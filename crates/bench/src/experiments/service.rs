//! A06: the concurrent query service under a mixed OLTP/analytic workload.

use super::harness::{self, Harness, RunEnv};
use rqp::common::percentile;
use rqp::expr::col;
use rqp::metrics::ReportTable;
use rqp::server::{QueryOptions, QueryService, ServiceConfig};
use rqp::telemetry::scoreboard::samples;
use rqp::workload::{tpch::TpchParams, Job, TpchDb, WorkloadManager};
use rqp::QuerySpec;

/// A06 — concurrent service: MPL × arrival-rate sweep over a mixed
/// workload, plus the behavioral leg (result identity, MPL gate, deadline
/// abort, cancellation) on real threads.
pub fn a06_concurrent_service(env: &RunEnv) -> String {
    harness::run("a06_concurrent_service", env, a06_body)
}

fn a06_body(h: &mut Harness) -> String {
    let fast = h.fast();
    let li = if fast { 4_000 } else { 16_000 };
    let db = TpchDb::build(
        TpchParams { lineitem_rows: li, ..Default::default() },
        h.note_seed("db", 106),
    );
    // Mixed workload: an OLTP-ish stream of narrow range lookups plus an
    // analytic mix, all executed through one service.
    let oltp_specs: Vec<QuerySpec> = (0..4i64)
        .map(|i| {
            QuerySpec::new().table("lineitem").filter(
                "lineitem",
                col("lineitem.shipdate").between(i * 150, i * 150 + 2),
            )
        })
        .collect();
    let mut rng = h.seeded("analytic-mix", 106);
    let olap_specs = db.analytic_mix(if fast { 3 } else { 4 }, &mut rng);

    // Drift invalidation is off here (`tests/service.rs` covers it): every
    // submission must execute the *same* cached physical plan so results
    // are comparable bit-for-bit against the solo baseline.
    let config = ServiceConfig {
        mpl: 2,
        memory_rows: if fast { 20_000.0 } else { 60_000.0 },
        drift_threshold: 1e9,
        ..Default::default()
    };
    let mpl = config.mpl;
    let svc = QueryService::new(&db.catalog, config);
    h.config("lineitem_rows", li);
    h.config("oltp_specs", oltp_specs.len());
    h.config("olap_specs", olap_specs.len());

    // --- Solo baselines: deterministic demands; warms the plan cache. ---
    let oltp_solo: Vec<_> =
        oltp_specs.iter().map(|q| svc.run_solo(q).expect("solo oltp")).collect();
    let olap_solo: Vec<_> =
        olap_specs.iter().map(|q| svc.run_solo(q).expect("solo olap")).collect();
    // Work in units of the mean OLTP demand so the sweep's arrival periods
    // and capacity are scale-free.
    let unit = oltp_solo.iter().map(|o| o.cost).sum::<f64>() / oltp_solo.len() as f64;

    // --- Behavioral leg, on real threads: every concurrent query must
    // return exactly the solo rows, the gate must hold, and aborts must
    // release what they hold. ---
    let oltp_session = svc.session(0);
    let olap_session = svc.session(2);
    let mut handles = Vec::new();
    for round in 0..2u64 {
        for (i, q) in oltp_specs.iter().enumerate() {
            let opts = QueryOptions::default().at((round * 100) as f64 + i as f64);
            handles.push((false, i, oltp_session.submit(q.clone(), opts)));
        }
        for (k, q) in olap_specs.iter().enumerate() {
            let opts =
                QueryOptions::default().at((round * 100) as f64 + 50.0 + k as f64).weighted(4.0);
            handles.push((true, k, olap_session.submit(q.clone(), opts)));
        }
    }
    let submitted = handles.len();
    for (is_olap, idx, handle) in handles {
        let out = handle.join().expect("concurrent query");
        let solo = if is_olap { &olap_solo[idx] } else { &oltp_solo[idx] };
        assert_eq!(out.rows, solo.rows, "concurrent result differs from solo");
        assert!(out.plan_cached, "solo baseline warmed the plan cache");
    }
    assert!(svc.peak_concurrency() <= mpl, "MPL gate violated");
    assert_eq!(svc.reserved(), 0.0, "workspace reservations leaked");

    // Deadline abort: a quarter of the solo demand can never finish. Run
    // alone, so the abort point (and hence the cancellation latency) is a
    // deterministic position on the query's own cost clock.
    let doomed = olap_session
        .submit(olap_specs[0].clone(), QueryOptions::with_deadline(olap_solo[0].cost * 0.25));
    assert_eq!(
        doomed.join().unwrap_err(),
        rqp::common::RqpError::DeadlineExceeded,
        "past-deadline query must abort typed"
    );
    assert_eq!(svc.reserved(), 0.0, "aborted query released its reservation");
    let cancel_latency =
        svc.completions().iter().filter_map(|c| c.cancel_latency).fold(0.0, f64::max);

    // Cancelled while queued: pause the gate so the cancel deterministically
    // lands before admission.
    svc.pause_admission();
    let queued = olap_session.submit(olap_specs[0].clone(), QueryOptions::default());
    while svc.queue_depth() != 1 {
        std::thread::yield_now();
    }
    queued.cancel();
    assert!(queued.join().unwrap_err().is_cancellation());
    svc.resume_admission();

    // --- The sweep: MPL × arrival period over the mixed trace, replayed in
    // virtual time (real-thread latencies race; the replay is exact). ---
    let n_txn = if fast { 60 } else { 150 };
    let oltp_units: Vec<f64> = oltp_solo.iter().map(|o| o.cost / unit).collect();
    let olap_units: Vec<f64> = olap_solo.iter().map(|o| o.cost / unit).collect();
    let make_jobs = |period: f64| -> Vec<Job> {
        let mut jobs: Vec<Job> = (0..n_txn)
            .map(|i| Job {
                id: i,
                arrival: i as f64 * period,
                demand: oltp_units[i % oltp_units.len()],
                priority: 0,
                weight: 1.0,
            })
            .collect();
        for (k, &d) in olap_units.iter().enumerate() {
            jobs.push(Job {
                id: 10_000 + k,
                arrival: 5.0 + k as f64 * period * 20.0,
                demand: d,
                priority: 2,
                weight: 4.0,
            });
        }
        jobs
    };
    let mpls = [1usize, 2, 4, 8];
    let periods = [2.0, 6.0];
    h.config("sweep_mpls", mpls.len());
    h.config("sweep_periods", periods.len());
    h.config("oltp_jobs", n_txn);
    let mut table =
        ReportTable::new(&["mpl", "arrival period", "p50", "p99", "tail amp", "wait p99"]);
    let mut worst_amp = 1.0f64;
    let mut worst_wait = 0.0f64;
    let mut env_pairs = Vec::new();
    let mut gaps = Vec::new();
    for &m in &mpls {
        for &period in &periods {
            let jobs = make_jobs(period);
            let sim = WorkloadManager::new(m, 1.0).simulate(&jobs);
            let mut resp: Vec<f64> = sim.jobs.iter().map(|j| j.response).collect();
            let mut waits: Vec<f64> = sim.jobs.iter().map(|j| j.wait).collect();
            let mut solo: Vec<f64> = jobs.iter().map(|j| j.demand).collect();
            resp.sort_by(f64::total_cmp);
            waits.sort_by(f64::total_cmp);
            solo.sort_by(f64::total_cmp);
            let p50 = percentile(&resp, 50.0);
            let p99 = percentile(&resp, 99.0);
            let solo_p99 = percentile(&solo, 99.0);
            let amp = p99 / solo_p99;
            let w99 = percentile(&waits, 99.0);
            worst_amp = worst_amp.max(amp);
            worst_wait = worst_wait.max(w99);
            env_pairs.push((p99, solo_p99));
            gaps.push(p99 - solo_p99);
            table.row(&[
                format!("{m}"),
                format!("{period}"),
                format!("{p50:.1}"),
                format!("{p99:.1}"),
                format!("{amp:.2}x"),
                format!("{w99:.1}"),
            ]);
        }
    }
    h.env_costs(&env_pairs);
    h.perf_gaps(&gaps);
    h.gauge(samples::TAIL_AMPLIFICATION, worst_amp);
    h.gauge(samples::ADMISSION_WAIT, worst_wait);

    format!(
        "A06 — concurrent service ({li} lineitem rows, {submitted} concurrent \
         queries, {n_txn} OLTP + {} OLAP jobs per sweep cell; demands in \
         mean-OLTP units, unit = {unit:.1} cost)\n\n\
         behavioral leg: all concurrent results bit-identical to solo; \
         MPL gate held; deadline abort released every reservation \
         (cancellation latency {cancel_latency:.1} cost units past the \
         deadline); queued cancellation left the gate clean.\n\n{table}\n\
         Expected shape: MPL 1 serializes (long admission waits, tail \
         blows up under dense arrivals); past the saturation MPL the tail \
         stops improving — the good operating point is the knee, which is \
         what the admission gate pins the service to.\n",
        olap_units.len()
    )
}
