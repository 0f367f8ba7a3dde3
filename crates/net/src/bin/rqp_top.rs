//! `rqp-top` — a live terminal dashboard over a running wire server.
//!
//! ```sh
//! rqp-top --addr 127.0.0.1:PORT [--interval 1.0] [--once]
//!         [--events N] [--events-dump PATH]
//! ```
//!
//! Polls the read-only STATS and EVENTS introspection frames on a
//! dedicated connection (they bypass admission, so watching the service
//! never competes with it) and redraws a refreshing dashboard: admission
//! and broker gauges, the start-up ANALYZE time (`server.setup.analyze_ms`),
//! the buffer-pool pager gauges (when the server runs
//! with a page budget), the standing-subscription gauges (`server.subs.*`,
//! when subscriptions are registered, plus the maintained state's bytes per
//! state row), the storage footprint
//! (`server.storage.{table,index}_bytes`), the wire counters, every
//! in-flight query with its
//! phase / cost-clock ticks / grants / deadline headroom, and the newest
//! flight-recorder events. `--once` prints a single snapshot and exits —
//! the CI wire-smoke job greps that output for non-empty gauges.
//!
//! Every EVENTS reply's `gap` is accumulated and shown: if this observer
//! falls behind the ring, the loss is visible, never silent. With
//! `--events-dump` the full tail collected so far is rewritten to PATH as
//! an events-dump JSON document after every poll; `rqp-report show PATH`
//! renders it with the run-report event formatter.

use rqp_net::WireClient;
use rqp_telemetry::{EventTail, MetricValue, RecordedEvent};

struct Args {
    addr: String,
    interval: f64,
    once: bool,
    /// Newest events shown per refresh.
    events_shown: usize,
    events_dump: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        addr: String::new(),
        interval: 1.0,
        once: false,
        events_shown: 12,
        events_dump: None,
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
            "--interval" => args.interval = val("--interval").parse().expect("--interval"),
            "--once" => args.once = true,
            "--events" => args.events_shown = val("--events").parse().expect("--events"),
            "--events-dump" => args.events_dump = Some(val("--events-dump")),
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }
    if args.addr.is_empty() {
        eprintln!("usage: rqp-top --addr HOST:PORT [--interval SECS] [--once] [--events N] [--events-dump PATH]");
        std::process::exit(2);
    }
    args
}

fn metric_line(name: &str, value: &MetricValue) -> String {
    match value {
        MetricValue::Counter(n) => format!("  {name} = {n}\n"),
        MetricValue::Gauge(x) => format!("  {name} = {x}\n"),
        MetricValue::Histogram { count, sum, max, buckets } => format!(
            "  {name}: count {count}, mean {:.2}, max {max:.2}, p50 {:.2}, p99 {:.2}\n",
            if *count > 0 { sum / *count as f64 } else { f64::NAN },
            rqp_telemetry::bucket_quantile(buckets, 0.50),
            rqp_telemetry::bucket_quantile(buckets, 0.99),
        ),
    }
}

fn event_line(e: &RecordedEvent) -> String {
    format!("  #{:<8} @{:<10.3} q{:<5} {:<18} {}\n", e.seq, e.at, e.query, e.kind, e.detail)
}

/// One full dashboard frame as a string (rendered off-screen, printed in
/// one write so a refresh never shows a half-drawn frame).
fn render(
    addr: &str,
    snap: &rqp_net::ServiceSnapshot,
    recent: &[RecordedEvent],
    polls: u64,
    total_events: u64,
    total_gap: u64,
) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "rqp-top — {addr}   poll {polls}   events seen {total_events}   lost {total_gap}\n\n"
    ));

    out.push_str("service:\n");
    for (name, value) in &snap.metrics {
        if name.starts_with("server.live.") || name.starts_with("server.recorder.") {
            out.push_str(&metric_line(name, value));
        }
    }
    out.push_str("wire:\n");
    for (name, value) in &snap.metrics {
        if name.starts_with("wire.") {
            out.push_str(&metric_line(name, value));
        }
    }
    let counter = |name: &str| {
        snap.metrics.iter().find_map(|(n, v)| match v {
            MetricValue::Counter(c) if n == name => Some(*c as f64),
            _ => None,
        })
    };
    let gauge = |name: &str| {
        snap.metrics.iter().find_map(|(n, v)| match v {
            MetricValue::Gauge(x) if n == name => Some(*x),
            _ => None,
        })
    };
    if let (Some(frames_in), Some(frames_out), Some(queries)) = (
        counter("wire.frames.in"),
        counter("wire.frames.out"),
        counter("server.queries.completed").filter(|&q| q > 0.0),
    ) {
        out.push_str(&format!(
            "  frames per completed query = {:.2} in, {:.2} out (every frame type counted)\n",
            frames_in / queries,
            frames_out / queries
        ));
    }
    // Sections that appear only once the server publishes their gauges.
    for (title, prefix) in [
        ("setup:", "server.setup."),
        ("pager:", "server.pager."),
        ("subs:", "server.subs."),
        ("storage:", "server.storage."),
    ] {
        let mut lines = snap.metrics.iter().filter(|(n, _)| n.starts_with(prefix)).peekable();
        if lines.peek().is_some() {
            out.push_str(title);
            out.push('\n');
            for (name, value) in lines {
                out.push_str(&metric_line(name, value));
            }
            let state = (gauge("server.subs.state_bytes"), gauge("server.subs.state_rows"));
            if let ("subs:", (Some(bytes), Some(rows))) = (title, state) {
                if rows > 0.0 {
                    out.push_str(&format!("  bytes per state row = {:.1}\n", bytes / rows));
                }
            }
        }
    }
    let rest: Vec<&(String, MetricValue)> = snap
        .metrics
        .iter()
        .filter(|(n, _)| {
            !n.starts_with("server.live.")
                && !n.starts_with("server.recorder.")
                && !n.starts_with("server.pager.")
                && !n.starts_with("server.subs.")
                && !n.starts_with("server.storage.")
                && !n.starts_with("server.setup.")
                && !n.starts_with("wire.")
        })
        .collect();
    if !rest.is_empty() {
        out.push_str("metrics:\n");
        for (name, value) in rest {
            out.push_str(&metric_line(name, value));
        }
    }

    out.push_str(&format!("\nin-flight queries ({}):\n", snap.live.len()));
    if !snap.live.is_empty() {
        out.push_str(
            "  query   sess  prio  phase    ticks        granted    share      deadline\n",
        );
        for q in &snap.live {
            let deadline = match q.deadline_remaining {
                Some(d) => format!("{d:.0}"),
                None => "-".into(),
            };
            out.push_str(&format!(
                "  {:<7} {:<5} {:<5} {:<8} {:<12.1} {:<10.0} {:<10.0} {deadline}\n",
                q.query,
                q.session,
                q.priority,
                q.phase.label(),
                q.ticks,
                q.granted,
                q.share,
            ));
        }
    }

    out.push_str(&format!("\nrecent events ({} shown):\n", recent.len()));
    for e in recent {
        out.push_str(&event_line(e));
    }
    out
}

fn main() {
    let args = parse_args();
    let mut client = match WireClient::connect(&args.addr, 0) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("rqp-top: {e}");
            std::process::exit(1);
        }
    };
    let mut cursor = 0u64;
    let mut collected: Vec<RecordedEvent> = Vec::new();
    let mut total_gap = 0u64;
    let mut polls = 0u64;
    loop {
        let snap = match client.stats() {
            Ok(s) => s,
            Err(e) => {
                eprintln!("rqp-top: STATS failed: {e}");
                std::process::exit(1);
            }
        };
        // Drain the recorder completely each poll (the reply is capped per
        // frame, so keep tailing until it comes back empty).
        loop {
            let tail = match client.events(cursor, 4096) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("rqp-top: EVENTS failed: {e}");
                    std::process::exit(1);
                }
            };
            cursor = tail.next_cursor;
            total_gap += tail.gap;
            let done = tail.events.is_empty();
            collected.extend(tail.events);
            if done {
                break;
            }
        }
        polls += 1;

        if let Some(path) = &args.events_dump {
            let dump = EventTail {
                events: collected.clone(),
                next_cursor: cursor,
                gap: total_gap,
            };
            let tmp = format!("{path}.tmp");
            let write = std::fs::write(&tmp, dump.to_json().pretty())
                .and_then(|()| std::fs::rename(&tmp, path));
            if let Err(e) = write {
                eprintln!("rqp-top: write {path}: {e}");
                std::process::exit(1);
            }
        }

        let shown = &collected[collected.len().saturating_sub(args.events_shown)..];
        let frame =
            render(&args.addr, &snap, shown, polls, collected.len() as u64, total_gap);
        if args.once {
            print!("{frame}");
            return;
        }
        // Clear + home, then one frame per write.
        print!("\x1b[2J\x1b[H{frame}");
        use std::io::Write;
        let _ = std::io::stdout().flush();
        std::thread::sleep(std::time::Duration::from_secs_f64(args.interval.max(0.05)));
    }
}
