//! A07: the TCP wire service under multi-process client load.

use super::harness::{self, Harness, RunEnv};
use rqp::common::percentile;
use rqp::expr::col;
use rqp::metrics::ReportTable;
use rqp::server::{QueryService, ServiceConfig};
use rqp::telemetry::scoreboard::samples;
use rqp::workload::{tpch::TpchParams, Job, TpchDb, WorkloadManager};
use rqp::QuerySpec;
use rqp_net::loadgen::{menu, menu_index};
use rqp_net::{rows_checksum, WireClient, WireQueryOptions, WireServer};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A07 — wire service: real client *processes* against the TCP front door
/// (result-checksum identity, mid-query disconnect churn, credit-based
/// backpressure), plus a deterministic clients × arrival-rate × churn sweep
/// replayed in virtual time for the tail-latency gauges.
pub fn a07_wire_service(env: &RunEnv) -> String {
    harness::run("a07_wire_service", env, a07_body)
}

/// Spin until `cond` holds or a generous deadline passes.
fn await_until(mut cond: impl FnMut() -> bool, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::yield_now();
    }
}

fn a07_body(h: &mut Harness) -> String {
    let fast = h.fast();
    // The workload seed is the chaos-seed convention: the process's chaos
    // seed pins the whole run (menu draws in every worker process included).
    let seed = h.note_seed("chaos", h.env().engine.chaos_seed.unwrap_or(7));

    let li = if fast { 4_000 } else { 12_000 };
    let db = TpchDb::build(
        TpchParams { lineitem_rows: li, ..Default::default() },
        h.note_seed("db", 107),
    );
    let mpl = 4;
    let svc = Arc::new(QueryService::new(
        &db.catalog,
        ServiceConfig {
            mpl,
            memory_rows: if fast { 20_000.0 } else { 60_000.0 },
            drift_threshold: 1e9,
            ..Default::default()
        },
    ));

    // --- Solo baselines over the shared loadgen menu: the checksums the
    // worker processes must reproduce, and the demands the sweep replays. ---
    let menu_specs = menu();
    let solo: Vec<_> =
        menu_specs.iter().map(|q| svc.run_solo(q).expect("solo menu run")).collect();
    let checksums: Vec<u64> = solo.iter().map(|o| rows_checksum(&o.rows)).collect();
    let unit = solo.iter().map(|o| o.cost).sum::<f64>() / solo.len() as f64;
    let units: Vec<f64> = solo.iter().map(|o| o.cost / unit).collect();

    // --- Behavioral leg: N real client processes over TCP, one of them
    // killing itself mid-query. ---
    let clients = if fast { 4 } else { 6 };
    let queries = if fast { 3 } else { 4 };
    let churn = 1usize;
    h.config("lineitem_rows", li);
    h.config("clients", clients);
    h.config("queries_per_client", queries);
    h.config("churn_clients", churn);

    let server = WireServer::start(Arc::clone(&svc), "127.0.0.1:0").expect("bind wire server");
    let addr = format!("127.0.0.1:{}", server.port());
    let bin = &h.env().loadgen_bin;
    let output = std::process::Command::new(bin)
        .args(["--addr", &addr])
        .args(["--clients", &clients.to_string()])
        .args(["--queries", &queries.to_string()])
        .args(["--mode", "open"])
        .args(["--churn", &churn.to_string()])
        .args(["--seed", &seed.to_string()])
        .output()
        .unwrap_or_else(|e| panic!("spawn {}: {e}", bin.display()));
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "loadgen failed ({}):\n{stdout}\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );

    // Every checksum a worker process reported must match the solo run of
    // the same menu entry — result identity across process boundaries.
    let mut verified = 0usize;
    let mut ok_total = 0usize;
    let mut disconnected_workers = 0usize;
    for line in stdout.lines().filter(|l| l.starts_with("RQPLOAD client=")) {
        for tok in line.split_whitespace() {
            if let Some(v) = tok.strip_prefix("ok=") {
                ok_total += v.parse::<usize>().unwrap_or(0);
            } else if tok == "disconnected=1" {
                disconnected_workers += 1;
            } else if let Some(pairs) = tok.strip_prefix("results=") {
                for pair in pairs.split(',').filter(|p| !p.is_empty()) {
                    let (idx, sum) = pair.split_once(':').expect("idx:checksum");
                    let idx: usize = idx.parse().expect("menu index");
                    let sum = u64::from_str_radix(sum, 16).expect("hex checksum");
                    assert_eq!(
                        sum, checksums[idx],
                        "worker checksum for menu entry {idx} diverged from solo"
                    );
                    verified += 1;
                }
            }
        }
    }
    assert_eq!(ok_total, clients * queries, "worker queries went missing");
    assert_eq!(verified, clients * queries, "unverified worker results");
    assert_eq!(disconnected_workers, churn, "churn worker summary missing");

    // The disconnects must be fully absorbed: every connection reaped, the
    // churn queries cancelled and recovered, no slot or grant leaked.
    await_until(|| server.stats().closed == clients as u64, "connection teardown");
    let stats = server.stats();
    assert_eq!(stats.disconnected_queries, churn as u64, "mid-query disconnects");
    assert_eq!(
        stats.recovered_queries, stats.disconnected_queries,
        "disconnected queries not reaped"
    );
    await_until(|| svc.queue_depth() == 0, "admission queue to drain");
    assert_eq!(svc.reserved(), 0.0, "wire churn leaked memory grants");
    assert!(svc.peak_concurrency() <= mpl, "MPL gate violated under wire load");
    let churn_recovery = stats.recovered_queries as f64 / stats.disconnected_queries as f64;

    // --- Backpressure leg: a stalled in-process consumer may hold at most
    // one encoded page and zero broker memory while a neighbour proceeds. ---
    let scan = QuerySpec::new()
        .table("lineitem")
        .filter("lineitem", col("lineitem.quantity").ge(rqp::expr::lit(0)))
        .project(&["lineitem.orderkey", "lineitem.quantity"]);
    let mut slow = WireClient::connect(&addr, 0).expect("connect slow consumer");
    let q = slow.submit(&scan, WireQueryOptions::default()).expect("submit scan");
    let first = slow.fetch_partial(q, 1).expect("first page");
    assert!(!first.is_empty(), "scan produced no first page");
    assert_eq!(svc.reserved(), 0.0, "stalled consumer held broker memory");
    let mut neighbour = WireClient::connect(&addr, 0).expect("connect neighbour");
    let out = neighbour
        .run(&menu_specs[0], WireQueryOptions::default())
        .expect("wire transport")
        .expect("neighbour behind stalled consumer");
    assert_eq!(rows_checksum(&out.rows), checksums[0]);
    neighbour.goodbye().expect("goodbye neighbour");
    let rest = slow.fetch_partial(q, u32::MAX).expect("drain");
    assert_eq!(first.len() + rest.len(), li, "row loss across the stall");
    slow.goodbye().expect("goodbye slow");
    let peak_pages = server.stats().peak_buffered_pages;
    assert!(peak_pages <= 1, "pager buffered {peak_pages} pages despite credits");
    drop(server);

    // --- The sweep: clients × arrival period × churn, replayed in virtual
    // time (real-process latencies race; the replay is exact). Churn is
    // modeled conservatively: the to-be-cancelled query charged at full
    // demand. ---
    let sweep_clients: &[usize] = if fast { &[2, 4] } else { &[2, 4, 8] };
    let periods = [1.0, 4.0];
    let churns = [0usize, 1];
    let sweep_q = if fast { 20 } else { 40 };
    h.config("sweep_clients", sweep_clients.len());
    h.config("sweep_periods", periods.len());
    h.config("sweep_queries_per_client", sweep_q);
    let mut table =
        ReportTable::new(&["clients", "period", "churn", "p50", "p99", "amp p99", "amp p999"]);
    let mut worst_p99 = 1.0f64;
    let mut worst_p999 = 1.0f64;
    let mut env_pairs = Vec::new();
    let mut gaps = Vec::new();
    for &c in sweep_clients {
        for &period in &periods {
            for &ch in &churns {
                let mut jobs: Vec<Job> = Vec::new();
                for id in 0..c {
                    for qi in 0..sweep_q {
                        jobs.push(Job {
                            id: id * 100_000 + qi,
                            arrival: (qi * c + id) as f64 * period,
                            demand: units[menu_index(seed, id, qi, units.len())],
                            priority: (id % 3) as u8,
                            weight: 1.0,
                        });
                    }
                }
                for id in 0..ch {
                    jobs.push(Job {
                        id: id * 100_000 + sweep_q,
                        arrival: (sweep_q * c + id) as f64 * period,
                        demand: units[menu_index(seed, id, sweep_q, units.len())],
                        priority: (id % 3) as u8,
                        weight: 1.0,
                    });
                }
                let sim = WorkloadManager::new(mpl, 1.0).simulate(&jobs);
                let mut resp: Vec<f64> = sim.jobs.iter().map(|j| j.response).collect();
                let mut solo_d: Vec<f64> = jobs.iter().map(|j| j.demand).collect();
                resp.sort_by(f64::total_cmp);
                solo_d.sort_by(f64::total_cmp);
                let p50 = percentile(&resp, 50.0);
                let p99 = percentile(&resp, 99.0);
                let p999 = percentile(&resp, 99.9);
                let amp99 = p99 / percentile(&solo_d, 99.0);
                let amp999 = p999 / percentile(&solo_d, 99.9);
                worst_p99 = worst_p99.max(amp99);
                worst_p999 = worst_p999.max(amp999);
                env_pairs.push((p99, percentile(&solo_d, 99.0)));
                gaps.push(p99 - percentile(&solo_d, 99.0));
                table.row(&[
                    format!("{c}"),
                    format!("{period}"),
                    format!("{ch}"),
                    format!("{p50:.1}"),
                    format!("{p99:.1}"),
                    format!("{amp99:.2}x"),
                    format!("{amp999:.2}x"),
                ]);
            }
        }
    }
    h.env_costs(&env_pairs);
    h.perf_gaps(&gaps);
    h.gauge(samples::WIRE_TAIL_P99, worst_p99);
    h.gauge(samples::WIRE_TAIL_P999, worst_p999);
    h.gauge(samples::WIRE_CHURN_RECOVERY, churn_recovery);
    h.gauge(samples::WIRE_BACKPRESSURE_PAGES, peak_pages.max(1) as f64);

    format!(
        "A07 — wire service ({li} lineitem rows; {clients} client processes × \
         {queries} queries over TCP, {churn} disconnecting mid-query; seed {seed})\n\n\
         behavioral leg: all {verified} worker-reported checksums bit-identical \
         to solo runs; {} mid-query disconnect(s) fully recovered (slot + \
         grants released); stalled consumer held {peak_pages} encoded page(s) \
         and zero broker memory.\n\n{table}\n\
         Expected shape: the tail amplification grows with client count and \
         arrival density; a single churn client barely moves it (its \
         cancelled query is bounded work); credit-based paging keeps the \
         backpressure gauge at 1 page regardless of consumer speed.\n",
        stats.disconnected_queries
    )
}
