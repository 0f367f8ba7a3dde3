//! A08: live observation of the wire service — overhead and event loss.

use super::harness::{self, Harness, RunEnv};
use rqp::metrics::ReportTable;
use rqp::server::{QueryService, ServiceConfig, ServiceReport};
use rqp::telemetry::scoreboard::samples;
use rqp::telemetry::MetricValue;
use rqp::workload::{tpch::TpchParams, TpchDb};
use rqp_net::loadgen::menu;
use rqp_net::{WireClient, WireQueryOptions, WireServer};
use std::path::Path;
use std::sync::Arc;

/// A08 — live observer: the same multi-process workload run bare and with
/// an observer tailing STATS/EVENTS; the introspection path must not move
/// the virtual-time tail at all (overhead ratio exactly 1), the observer
/// must see every flight-recorder event (zero loss at the provisioned ring
/// size), and when the ring *is* undersized the loss must be counted, not
/// silent.
pub fn a08_live_observer(env: &RunEnv) -> String {
    harness::run("a08_live_observer", env, a08_body)
}

struct RunOutcome {
    report: ServiceReport,
    published: f64,
    observer_events: Option<u64>,
    observer_gaps: Option<u64>,
}

/// Read one gauge out of a STATS metrics snapshot.
fn gauge_of(metrics: &[(String, MetricValue)], name: &str) -> f64 {
    metrics
        .iter()
        .find_map(|(n, v)| match v {
            MetricValue::Gauge(x) if n == name => Some(*x),
            _ => None,
        })
        .unwrap_or(f64::NAN)
}

/// One loadgen run against a fresh service; identical parameters except for
/// `observe`. Returns the deterministic virtual-time schedule report plus
/// the observer counters parsed from the loadgen total line.
fn run_leg(
    bin: &Path,
    svc: &Arc<QueryService>,
    seed: u64,
    clients: usize,
    queries: usize,
    observe: bool,
) -> RunOutcome {
    let server = WireServer::start(Arc::clone(svc), "127.0.0.1:0").expect("bind wire server");
    let addr = format!("127.0.0.1:{}", server.port());
    let mut cmd = std::process::Command::new(bin);
    cmd.args(["--addr", &addr])
        .args(["--clients", &clients.to_string()])
        .args(["--queries", &queries.to_string()])
        .args(["--mode", "open"])
        .args(["--seed", &seed.to_string()]);
    if observe {
        cmd.arg("--observe");
    }
    let output = cmd.output().unwrap_or_else(|e| panic!("spawn {}: {e}", bin.display()));
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "loadgen failed ({}):\n{stdout}\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let mut observer_events = None;
    let mut observer_gaps = None;
    for tok in stdout
        .lines()
        .find(|l| l.starts_with("RQPLOAD total"))
        .expect("loadgen total line")
        .split_whitespace()
    {
        if let Some(v) = tok.strip_prefix("observer_events=") {
            observer_events = v.parse().ok();
        } else if let Some(v) = tok.strip_prefix("observer_gaps=") {
            observer_gaps = v.parse().ok();
        }
    }

    // The recorder-published total, via the same STATS frame rqp-top polls.
    let mut probe = WireClient::connect(&addr, 0).expect("connect stats probe");
    let snap = probe.stats().expect("STATS");
    let published = gauge_of(&snap.metrics, "server.recorder.published");
    probe.goodbye().expect("goodbye probe");
    drop(server);

    RunOutcome { report: svc.schedule_report(), published, observer_events, observer_gaps }
}

fn a08_body(h: &mut Harness) -> String {
    let fast = h.fast();
    let seed = h.note_seed("chaos", h.env().engine.chaos_seed.unwrap_or(7));
    let bin = h.env().loadgen_bin.clone();

    let li = if fast { 4_000 } else { 12_000 };
    let db = TpchDb::build(
        TpchParams { lineitem_rows: li, ..Default::default() },
        h.note_seed("db", 108),
    );
    let clients = if fast { 4 } else { 6 };
    let queries = if fast { 3 } else { 4 };
    let config = ServiceConfig {
        mpl: 4,
        memory_rows: if fast { 20_000.0 } else { 60_000.0 },
        drift_threshold: 1e9,
        // The overhead ratio compares two runs cost for cost, and below a
        // page budget the shared pool's refaults land on whichever query
        // interleaves there: keep an inherited page budget out.
        page_budget: None,
        ..Default::default()
    };
    h.config("lineitem_rows", li);
    h.config("clients", clients);
    h.config("queries_per_client", queries);
    h.config("recorder_capacity", config.recorder_capacity);

    // --- Overhead leg: the identical workload against two fresh services,
    // bare and observed. Introspection frames bypass admission and charge
    // no cost units, so the completion logs — and therefore the replayed
    // virtual-time tails — must be bit-identical. ---
    let bare_svc = Arc::new(QueryService::new(&db.catalog, config.clone()));
    let bare = run_leg(&bin, &bare_svc, seed, clients, queries, false);
    let observed_svc = Arc::new(QueryService::new(&db.catalog, config.clone()));
    let observed = run_leg(&bin, &observed_svc, seed, clients, queries, true);

    assert_eq!(bare.report.completed, clients * queries, "bare queries went missing");
    assert_eq!(observed.report.completed, clients * queries, "observed queries went missing");
    assert!(bare.report.latency_p99 > 0.0, "bare run produced no tail");
    let overhead = observed.report.latency_p99 / bare.report.latency_p99;
    assert!(
        (overhead - 1.0).abs() < 1e-9,
        "observer moved the virtual-time tail: {} vs {}",
        observed.report.latency_p99,
        bare.report.latency_p99
    );

    // The observer must have seen every event the recorder published: the
    // ring is provisioned well past this workload's event volume, so the
    // loadgen-reported gap is zero and its event count matches the
    // recorder's own published total.
    let events = observed.observer_events.expect("observer_events on total line");
    let loss = observed.observer_gaps.expect("observer_gaps on total line");
    assert!(events > 0, "observer saw no events");
    assert_eq!(events as f64, observed.published, "observer missed published events");
    assert_eq!(loss, 0, "provisioned ring overwrote events under the observer");

    // INSPECT acceptance: a finished query remains inspectable by id — the
    // service keeps its span tree in the merged forest.
    let observed_server =
        WireServer::start(Arc::clone(&observed_svc), "127.0.0.1:0").expect("rebind wire server");
    let addr = format!("127.0.0.1:{}", observed_server.port());
    let mut obs = WireClient::connect(&addr, 0).expect("connect inspector");
    let q = obs
        .submit(&menu()[0], WireQueryOptions::default())
        .expect("submit inspect target");
    obs.fetch(q).expect("wire transport").expect("inspect target result");
    let outcome = obs.inspect(q).expect("INSPECT");
    assert!(outcome.found, "finished query q{q} not found by INSPECT");
    assert!(!outcome.rendered.is_empty(), "finished query q{q} rendered no tree");
    obs.goodbye().expect("goodbye inspector");
    drop(observed_server);

    // --- Loss-accounting leg: an undersized ring against the same menu.
    // Overwrite is allowed; *silent* overwrite is not — a single drain at
    // the end must report retained + gap == published exactly. ---
    let tiny_cap = 64usize;
    let tiny_svc = Arc::new(QueryService::new(
        &db.catalog,
        ServiceConfig { recorder_capacity: tiny_cap, ..config },
    ));
    let tiny_server =
        WireServer::start(Arc::clone(&tiny_svc), "127.0.0.1:0").expect("bind tiny server");
    let addr = format!("127.0.0.1:{}", tiny_server.port());
    let mut worker = WireClient::connect(&addr, 0).expect("connect tiny worker");
    for spec in menu().iter().cycle().take(if fast { 12 } else { 24 }) {
        worker
            .run(spec, WireQueryOptions::default())
            .expect("wire transport")
            .expect("tiny-ring query");
    }
    let snap = worker.stats().expect("tiny STATS");
    let tiny_published = gauge_of(&snap.metrics, "server.recorder.published");
    let mut cursor = 0u64;
    let mut retained = 0u64;
    let mut gap = 0u64;
    loop {
        let tail = worker.events(cursor, 4096).expect("tiny EVENTS");
        cursor = tail.next_cursor;
        retained += tail.events.len() as u64;
        gap += tail.gap;
        if tail.events.is_empty() {
            break;
        }
    }
    assert!(
        gap > 0,
        "{tiny_published} events did not overflow the {tiny_cap}-slot ring"
    );
    assert_eq!(
        (retained + gap) as f64,
        tiny_published,
        "ring overwrite went uncounted"
    );
    worker.goodbye().expect("goodbye tiny worker");
    drop(tiny_server);

    let mut table = ReportTable::new(&["leg", "completed", "p99", "amp", "published", "seen", "lost"]);
    table.row(&[
        "bare".into(),
        format!("{}", bare.report.completed),
        format!("{:.1}", bare.report.latency_p99),
        format!("{:.2}x", bare.report.tail_amplification),
        format!("{:.0}", bare.published),
        "-".into(),
        "-".into(),
    ]);
    table.row(&[
        "observed".into(),
        format!("{}", observed.report.completed),
        format!("{:.1}", observed.report.latency_p99),
        format!("{:.2}x", observed.report.tail_amplification),
        format!("{:.0}", observed.published),
        format!("{events}"),
        format!("{loss}"),
    ]);
    table.row(&[
        format!("ring={tiny_cap}"),
        format!("{}", if fast { 12 } else { 24 }),
        "-".into(),
        "-".into(),
        format!("{tiny_published:.0}"),
        format!("{retained}"),
        format!("{gap}"),
    ]);

    h.gauge(samples::OBSERVER_OVERHEAD_P99, overhead);
    h.gauge(samples::OBSERVER_EVENT_LOSS, loss as f64);

    format!(
        "A08 — live observer ({li} lineitem rows; {clients} client processes × \
         {queries} queries over TCP, bare vs observed; seed {seed})\n\n\
         overhead: virtual-time p99 ratio observed/bare = {overhead:.6} — \
         introspection frames bypass admission and charge no cost units, so \
         the replayed schedule is bit-identical.\n\
         loss: the {}-slot ring published {:.0} events and the observer saw \
         all of them; the deliberately undersized {tiny_cap}-slot ring \
         overwrote {gap} of {tiny_published:.0}, every one counted in the \
         reported gap.\n\n{table}\n\
         Expected shape: the overhead ratio is exactly 1 and the provisioned \
         ring loses nothing; shrinking the ring trades retention for memory \
         but never miscounts — retained + lost always equals published.\n",
        config.recorder_capacity, observed.published,
    )
}
