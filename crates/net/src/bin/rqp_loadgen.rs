//! Multi-process load generator for the wire server.
//!
//! ```sh
//! rqp-loadgen --addr 127.0.0.1:PORT [--clients 4] [--queries 4]
//!             [--mode closed|open] [--rate 1.0] [--churn 1] [--seed 7]
//!             [--subscribe]
//! ```
//!
//! With `--subscribe` each worker drives a *streaming* workload instead:
//! it registers a standing subscription over the (ORDER BY-stripped) query
//! menu, then alternates APPEND batches into `lineitem` with POLL rounds
//! that drain the subscription to zero lag, reporting
//! `subs=1 polls=… deltas=…`. Churn workers vanish with the subscription
//! still live, exercising the server's disconnect teardown of standing
//! state (the `wire.subs.torn_down` counter).
//!
//! The parent re-executes its own binary once per client with `--worker`,
//! so every client is a real OS *process* with its own TCP connection —
//! not a thread sharing the server's address space. Workers run a
//! deterministic query menu (chosen by `(seed, client, index)`), with:
//!
//! * **closed-loop** arrival: submit → drain → next (one query in flight,
//!   one round trip each: `WireClient::run` grants the rest of the result
//!   with the SUBMIT);
//! * **open-loop** arrival: all queries submitted up front with no credit
//!   window (several are in flight, none may send pages yet), then drained —
//!   arrival *timestamps* are virtual (`index / rate`), carried in the
//!   submission options for the server's deterministic schedule replay,
//!   while the submission burst itself is real;
//! * a **priority mix**: worker `i` uses priority `i % 3`;
//! * optional **churn**: the first `--churn` workers submit one extra
//!   query and then kill their own process while it is still queued or
//!   executing — no GOODBYE, no drain — exercising the server's
//!   abrupt-disconnect teardown (cancel, reap, release slot + grants).
//!
//! Each worker prints one machine-readable summary line
//! (`RQPLOAD client=… results=idx:checksum,…`); the parent relays them
//! (inherited stdout) and appends an aggregate `RQPLOAD total …` line.
//! With `--observe` the parent also runs an observer thread on its own
//! connection, tailing the server's flight recorder (EVENTS) for the
//! duration of the run; the total line then reports
//! `observer_events=N observer_gaps=G` — `G > 0` means the recorder ring
//! overwrote events faster than the observer drained them.
//! Checksums are [`rqp_net::rows_checksum`] over the wire encoding, so a
//! driver that also knows the menu can verify bit-identity against solo
//! runs without the rows ever being re-shipped.

use rqp_common::{Row, Value};
use rqp_net::loadgen::{menu, menu_index};
use rqp_net::proto::{WireQueryOptions, WireSubscribeOptions};
use rqp_net::{rows_checksum, WireClient};
use rqp_opt::QuerySpec;
use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

#[derive(Clone)]
struct Args {
    addr: String,
    clients: usize,
    queries: usize,
    open_loop: bool,
    rate: f64,
    churn: usize,
    seed: u64,
    observe: bool,
    subscribe: bool,
    worker: Option<usize>,
}

fn parse_args() -> Args {
    let mut args = Args {
        addr: String::new(),
        clients: 4,
        queries: 4,
        open_loop: false,
        rate: 1.0,
        churn: 0,
        seed: 7,
        observe: false,
        subscribe: false,
        worker: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--addr" => args.addr = val("--addr"),
            "--clients" => args.clients = val("--clients").parse().expect("--clients"),
            "--queries" => args.queries = val("--queries").parse().expect("--queries"),
            "--mode" => {
                args.open_loop = match val("--mode").as_str() {
                    "open" => true,
                    "closed" => false,
                    m => {
                        eprintln!("unknown mode {m} (open|closed)");
                        std::process::exit(2);
                    }
                }
            }
            "--rate" => args.rate = val("--rate").parse().expect("--rate"),
            "--churn" => args.churn = val("--churn").parse().expect("--churn"),
            "--seed" => args.seed = val("--seed").parse().expect("--seed"),
            "--observe" => args.observe = true,
            "--subscribe" => args.subscribe = true,
            "--worker" => args.worker = Some(val("--worker").parse().expect("--worker")),
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }
    if args.addr.is_empty() {
        eprintln!("--addr is required");
        std::process::exit(2);
    }
    args
}

fn run_worker(args: &Args, id: usize) {
    let menu = menu();
    let priority = (id % 3) as u8;
    let mut client = match WireClient::connect(&args.addr, priority) {
        Ok(c) => c,
        Err(e) => {
            println!("RQPLOAD client={id} error=connect msg={e}");
            std::process::exit(1);
        }
    };
    if args.subscribe {
        run_subscriber(args, id, &mut client);
        return;
    }
    let mut results: Vec<(usize, u64)> = Vec::new();
    let mut ok = 0usize;
    let mut failed = 0usize;
    let mut codes: Vec<u16> = Vec::new();

    let opts_for = |global_q: usize| WireQueryOptions {
        arrival: global_q as f64 / args.rate.max(1e-9),
        ..WireQueryOptions::default()
    };

    fn outcome_of(
        results: &mut Vec<(usize, u64)>,
        ok: &mut usize,
        failed: &mut usize,
        codes: &mut Vec<u16>,
        idx: usize,
        res: Result<rqp_net::RemoteOutcome, rqp_net::RemoteFailure>,
    ) {
        match res {
            Ok(out) => {
                results.push((idx, rows_checksum(&out.rows)));
                *ok += 1;
            }
            Err(f) => {
                codes.push(f.code);
                *failed += 1;
            }
        }
    }

    if args.open_loop {
        // Open loop: every query submitted before any is drained, so none
        // carries a credit window — pages flow once its fetch asks.
        let mut pending = Vec::new();
        for q in 0..args.queries {
            let idx = menu_index(args.seed, id, q, menu.len());
            let global_q = q * args.clients + id;
            match client.submit(&menu[idx], opts_for(global_q)) {
                Ok(query) => pending.push((idx, query)),
                Err(e) => {
                    println!("RQPLOAD client={id} error=submit msg={e}");
                    std::process::exit(1);
                }
            }
        }
        for (idx, query) in pending {
            match client.fetch(query) {
                Ok(res) => outcome_of(&mut results, &mut ok, &mut failed, &mut codes, idx, res),
                Err(e) => {
                    println!("RQPLOAD client={id} error=fetch msg={e}");
                    std::process::exit(1);
                }
            }
        }
    } else {
        // Closed loop: one query in flight at a time.
        for q in 0..args.queries {
            let idx = menu_index(args.seed, id, q, menu.len());
            let global_q = q * args.clients + id;
            match client.run(&menu[idx], opts_for(global_q)) {
                Ok(res) => outcome_of(&mut results, &mut ok, &mut failed, &mut codes, idx, res),
                Err(e) => {
                    println!("RQPLOAD client={id} error=run msg={e}");
                    std::process::exit(1);
                }
            }
        }
    }

    let disconnect = id < args.churn;
    if disconnect {
        // Submit one more query and die mid-flight: no GOODBYE, no fetch
        // drain, just a vanished peer. The server must cancel the query and
        // release its MPL slot and memory grants.
        let idx = menu_index(args.seed, id, args.queries, menu.len());
        let _ = client.submit(&menu[idx], WireQueryOptions::default());
        print_summary(id, ok, failed, true, &results, &codes);
        std::process::exit(0); // drops the TCP stream mid-query
    }

    print_summary(id, ok, failed, false, &results, &codes);
    let _ = client.goodbye();
}

/// The query menu with ORDER BY / LIMIT stripped: standing subscriptions
/// maintain order-canonical *sets*, so the server rejects ordered specs.
fn sub_menu() -> Vec<QuerySpec> {
    menu()
        .into_iter()
        .map(|mut s| {
            s.order_by.clear();
            s.limit = None;
            s
        })
        .collect()
}

/// A deterministic `lineitem` row for `(client, batch, row)`. Floats stay
/// dyadic so grouped SUM/AVG retraction is exact under churn.
fn lineitem_row(client: usize, batch: usize, r: usize) -> Row {
    let k = (client * 1_000 + batch * 10 + r) as i64;
    vec![
        Value::Int(k % 50),
        Value::Int(k % 20),
        Value::Int(k % 10),
        Value::Int(1 + k % 50),
        Value::Float(1_000.0 + (k % 100) as f64 * 0.25),
        Value::Float(0.0625),
        Value::Int(k % 2_400),
        Value::Int(k % 3),
    ]
}

/// Subscription workload for one worker: register a standing view over
/// the menu, then alternate APPEND batches into `lineitem` with POLL
/// rounds that drain the subscription to zero lag, counting delta rows.
/// Churn workers vanish without UNSUBSCRIBE or GOODBYE, exercising the
/// server's disconnect teardown of standing subscriptions.
fn run_subscriber(args: &Args, id: usize, client: &mut WireClient) {
    let menu = sub_menu();
    let idx = menu_index(args.seed, id, 0, menu.len());
    let sub = match client.subscribe(&menu[idx], WireSubscribeOptions::default()) {
        Ok(s) => s,
        Err(e) => {
            println!("RQPLOAD client={id} error=subscribe msg={e}");
            std::process::exit(1);
        }
    };
    let mut ok = 0usize;
    let mut failed = 0usize;
    let mut polls = 0u64;
    let mut deltas = 0u64;
    for batch in 0..args.queries {
        let rows: Vec<Row> = (0..8).map(|r| lineitem_row(id, batch, r)).collect();
        match client.append("lineitem", rows) {
            Ok(Ok(_epoch)) => ok += 1,
            Ok(Err(_)) => failed += 1,
            Err(e) => {
                println!("RQPLOAD client={id} error=append msg={e}");
                std::process::exit(1);
            }
        }
        loop {
            polls += 1;
            match client.poll_sub(sub, 0) {
                Ok(Ok((delta, lag))) => {
                    deltas += (delta.inserted.len() + delta.retracted.len()) as u64;
                    if lag == 0 {
                        break;
                    }
                }
                Ok(Err(_)) => {
                    failed += 1;
                    break;
                }
                Err(e) => {
                    println!("RQPLOAD client={id} error=poll msg={e}");
                    std::process::exit(1);
                }
            }
        }
    }
    let disconnect = id < args.churn;
    println!(
        "RQPLOAD client={id} ok={ok} failed={failed} disconnected={} subs=1 polls={polls} deltas={deltas}",
        disconnect as u8
    );
    if disconnect {
        std::process::exit(0); // vanish with the subscription still live
    }
    let _ = client.unsubscribe(sub);
}

fn print_summary(
    id: usize,
    ok: usize,
    failed: usize,
    disconnected: bool,
    results: &[(usize, u64)],
    codes: &[u16],
) {
    let results_s = results
        .iter()
        .map(|(i, c)| format!("{i}:{c:016x}"))
        .collect::<Vec<_>>()
        .join(",");
    let codes_s = codes.iter().map(|c| c.to_string()).collect::<Vec<_>>().join(",");
    println!(
        "RQPLOAD client={id} ok={ok} failed={failed} disconnected={} results={results_s} codes={codes_s}",
        disconnected as u8
    );
}

/// Tail the server's flight recorder on a dedicated connection until told
/// to stop, then report `(events_seen, gaps)`. Read-only frames bypass
/// admission, so the observer never perturbs the workload's scheduling.
fn run_observer(
    addr: String,
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
) -> std::thread::JoinHandle<(u64, u64)> {
    std::thread::spawn(move || {
        let Ok(mut client) = WireClient::connect(&addr, 0) else { return (0, 0) };
        let mut cursor = 0u64;
        let mut events = 0u64;
        let mut gaps = 0u64;
        loop {
            let done = stop.load(std::sync::atomic::Ordering::SeqCst);
            // One last drain after the stop flag so nothing published
            // before the workload finished goes uncounted.
            loop {
                let Ok(tail) = client.events(cursor, 4096) else { return (events, gaps) };
                cursor = tail.next_cursor;
                events += tail.events.len() as u64;
                gaps += tail.gap;
                if tail.events.is_empty() {
                    break;
                }
            }
            if done {
                return (events, gaps);
            }
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
    })
}

fn run_parent(args: &Args) {
    let exe = std::env::current_exe().expect("current exe");
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let observer = args
        .observe
        .then(|| run_observer(args.addr.clone(), std::sync::Arc::clone(&stop)));
    let mut children = Vec::new();
    for id in 0..args.clients {
        let mut cmd = Command::new(&exe);
        cmd.arg("--addr")
            .arg(&args.addr)
            .arg("--clients")
            .arg(args.clients.to_string())
            .arg("--queries")
            .arg(args.queries.to_string())
            .arg("--mode")
            .arg(if args.open_loop { "open" } else { "closed" })
            .arg("--rate")
            .arg(args.rate.to_string())
            .arg("--churn")
            .arg(args.churn.to_string())
            .arg("--seed")
            .arg(args.seed.to_string())
            .arg("--worker")
            .arg(id.to_string())
            .stdout(Stdio::piped());
        if args.subscribe {
            cmd.arg("--subscribe");
        }
        let child = cmd.spawn().expect("spawn worker process");
        children.push(child);
    }
    let mut ok = 0usize;
    let mut failed = 0usize;
    let mut disconnected = 0usize;
    let mut hard_errors = 0usize;
    let mut deltas = 0u64;
    for mut child in children {
        let stdout = child.stdout.take().expect("worker stdout");
        for line in BufReader::new(stdout).lines() {
            let line = line.expect("read worker line");
            // Relay the worker's summary, then fold it into the aggregate.
            println!("{line}");
            if line.contains("error=") {
                hard_errors += 1;
                continue;
            }
            for tok in line.split_whitespace() {
                if let Some(v) = tok.strip_prefix("ok=") {
                    ok += v.parse::<usize>().unwrap_or(0);
                } else if let Some(v) = tok.strip_prefix("failed=") {
                    failed += v.parse::<usize>().unwrap_or(0);
                } else if let Some(v) = tok.strip_prefix("deltas=") {
                    deltas += v.parse::<u64>().unwrap_or(0);
                } else if tok == "disconnected=1" {
                    disconnected += 1;
                }
            }
        }
        let status = child.wait().expect("wait worker");
        if !status.success() {
            hard_errors += 1;
        }
    }
    let observed = observer.map(|handle| {
        stop.store(true, std::sync::atomic::Ordering::SeqCst);
        handle.join().expect("join observer thread")
    });
    let observer_s = match observed {
        Some((events, gaps)) => format!(" observer_events={events} observer_gaps={gaps}"),
        None => String::new(),
    };
    let subs_s = if args.subscribe { format!(" deltas={deltas}") } else { String::new() };
    println!(
        "RQPLOAD total clients={} ok={ok} failed={failed} disconnected={disconnected} errors={hard_errors}{observer_s}{subs_s}",
        args.clients
    );
    if hard_errors > 0 {
        std::process::exit(1);
    }
}

fn main() {
    let args = parse_args();
    match args.worker {
        Some(id) => run_worker(&args, id),
        None => run_parent(&args),
    }
}
