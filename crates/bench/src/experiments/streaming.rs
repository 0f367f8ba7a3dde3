//! A11: continuous queries — standing subscriptions under insert storms
//! and chaos.

use super::harness::{self, Harness, RunEnv};
use rqp::metrics::ReportTable;
use rqp::server::{QueryService, ServiceConfig, SubscribeOptions};
use rqp::stream::canonicalize;
use rqp::telemetry::scoreboard::samples;
use rqp::workload::{tpch::TpchParams, TpchDb};
use rqp::common::percentile;
use rqp::{QuerySpec, Row, Value};

/// A11 — continuous queries: subscription-count × insert-rate × chaos
/// sweep over the standing-subscription registry, gating per-delta
/// propagation latency and view consistency.
pub fn a11_continuous_queries(env: &RunEnv) -> String {
    harness::run("a11_continuous_queries", env, a11_body)
}

/// The standing-query menu: the loadgen menu shapes with ORDER BY/LIMIT
/// stripped (a maintained view is an unordered multiset; subscribers order
/// on their side). Covers a grouped aggregate, a 3-way join + aggregate,
/// and a global (no-group) aggregate over a multi-predicate filter.
fn sub_menu(db: &TpchDb) -> Vec<QuerySpec> {
    [db.q1(30), db.q3(1, 400), db.q6(100, 0.05, 30), db.q1(90)]
        .into_iter()
        .map(|mut s| {
            s.order_by.clear();
            s.limit = None;
            s
        })
        .collect()
}

/// A fresh lineitem row for batch `b`, slot `r`. Float values are dyadic
/// (exact in an f64), so retractable sums stay bit-exact under churn.
fn fresh_row(b: usize, r: usize) -> Row {
    let k = (b * 1_000 + r) as i64;
    vec![
        Value::Int(k % 200),                              // orderkey
        Value::Int(k % 20),                               // partkey
        Value::Int(k % 10),                               // suppkey
        Value::Int(1 + k % 50),                           // quantity
        Value::Float(1_000.0 + (k % 100) as f64 * 0.25),  // extendedprice
        Value::Float((k % 5) as f64 * 0.015_625),         // discount
        Value::Int(k % 2_400),                            // shipdate
        Value::Int(k % 3),                                // returnflag
    ]
}

fn a11_body(h: &mut Harness) -> String {
    let fast = h.fast();
    let li = if fast { 1_500 } else { 4_000 };
    let db = TpchDb::build(
        TpchParams { lineitem_rows: li, ..Default::default() },
        h.note_seed("db", 111),
    );
    let menu = sub_menu(&db);
    let sub_counts: &[usize] = if fast { &[4, 16, 64] } else { &[8, 64, 256] };
    let rates: &[usize] = &[16, 64];
    let batches = if fast { 4 } else { 8 };
    let chaos_seed = h.note_seed("chaos", 1111);
    h.config("lineitem_rows", li);
    h.config("menu_specs", menu.len());
    h.config("sub_counts", sub_counts.len());
    h.config("insert_rates", rates.len());
    h.config("batches_per_cell", batches);

    let mut t_out = ReportTable::new(&[
        "subs", "rows/batch", "chaos", "delta p50", "delta p99", "max lag", "delta rows",
        "diverged",
    ]);
    let mut worst_p99 = 0.0f64;
    let mut best_p99 = f64::INFINITY;
    let mut diverged_total = 0usize;
    let mut env_pairs = Vec::new();
    let mut gaps = Vec::new();
    for &n_subs in sub_counts {
        for &rate in rates {
            // Fault-free first: its p99 is the chaos cell's ideal.
            let mut cell_p99 = [f64::NAN; 2];
            for (ci, &chaos) in [false, true].iter().enumerate() {
                // A fresh service per cell: the snapshot is copy-on-write,
                // so appends never leak into the next cell's baseline.
                let svc = QueryService::new(
                    &db.catalog,
                    ServiceConfig {
                        mpl: 4,
                        drift_threshold: 1e9,
                        chaos_seed: chaos.then_some(chaos_seed),
                        ..ServiceConfig::default()
                    },
                );
                let ids: Vec<(u64, usize)> = (0..n_subs)
                    .map(|i| {
                        let mi = i % menu.len();
                        let id = svc
                            .subscribe(&menu[mi], SubscribeOptions::default())
                            .expect("subscribe");
                        (id, mi)
                    })
                    .collect();

                // The insert storm: append a batch, then advance every
                // subscription and charge its poll to its own cost clock —
                // the per-delta latency sample is that clock's delta.
                let mut poll_costs = Vec::new();
                let mut max_lag = 0u64;
                let mut delta_rows = 0u64;
                for b in 0..batches {
                    let rows: Vec<Row> = (0..rate).map(|r| fresh_row(b, r)).collect();
                    svc.append_rows("lineitem", rows).expect("append");
                    for &(id, _) in &ids {
                        let sub = svc.subscriptions().get(id).expect("live subscription");
                        let before = sub.cost();
                        let (packet, lag) =
                            svc.poll_subscription(id, 0).expect("poll never drops deltas");
                        poll_costs.push(sub.cost() - before);
                        max_lag = max_lag.max(lag);
                        delta_rows += packet.delta_rows() as u64;
                    }
                }

                // View consistency: every maintained view must equal a cold
                // re-run of its spec on the post-storm snapshot (the chaos
                // cell re-runs under chaos: it inflates cost, never changes
                // rows).
                let mut cold: Vec<Option<Vec<Row>>> = vec![None; menu.len()];
                let mut diverged = 0usize;
                for &(id, mi) in &ids {
                    let want = cold[mi].get_or_insert_with(|| {
                        canonicalize(svc.run_solo(&menu[mi]).expect("cold re-run").rows)
                    });
                    if svc.subscriptions().get(id).expect("live subscription").view() != *want {
                        diverged += 1;
                    }
                }
                diverged_total += diverged;

                // Teardown leaves nothing behind: no registry entries, no
                // broker grants.
                assert_eq!(svc.shutdown_subscriptions(), n_subs, "every sub torn down");
                assert_eq!(svc.subscriptions().count(), 0, "registry empty after shutdown");
                // Grant renegotiation is f64 arithmetic against fair-share
                // fractions; what must not remain is any material grant.
                assert!(svc.reserved().abs() < 1e-6, "subscription grants returned");

                poll_costs.sort_by(f64::total_cmp);
                let p50 = percentile(&poll_costs, 50.0);
                let p99 = percentile(&poll_costs, 99.0);
                cell_p99[ci] = p99;
                worst_p99 = worst_p99.max(p99);
                best_p99 = best_p99.min(p99);
                t_out.row(&[
                    format!("{n_subs}"),
                    format!("{rate}"),
                    if chaos { "on".into() } else { "off".into() },
                    format!("{p50:.1}"),
                    format!("{p99:.1}"),
                    format!("{max_lag}"),
                    format!("{delta_rows}"),
                    format!("{diverged}"),
                ]);
            }
            // The chaos cell's environment: same storm, injected faults;
            // the fault-free p99 is its ideal.
            env_pairs.push((cell_p99[1].max(cell_p99[0]), cell_p99[0]));
            gaps.push((cell_p99[1] - cell_p99[0]).max(0.0));
        }
    }
    assert_eq!(
        diverged_total, 0,
        "maintained views must be bit-identical to cold re-runs"
    );
    h.env_costs(&env_pairs);
    h.perf_gaps(&gaps);
    h.m3(worst_p99, best_p99);
    h.gauge(samples::STREAM_DELTA_P99, worst_p99);
    h.gauge(samples::STREAM_VIEW_DIVERGENCE, diverged_total as f64);
    format!(
        "A11 — continuous queries ({li} lineitem rows, {} standing specs, \
         {batches} append batches/cell)\n\n{t_out}\n\
         worst delta p99: {worst_p99:.1} cost units   diverged views: \
         {diverged_total} (contract: 0)\n\n\
         Expected shape: per-delta cost scales with the batch, not the \
         table — more subscribers multiply total propagation work but each \
         subscription's own delta stays flat; chaos inflates poll latency \
         with retry charges yet never drops a delta, so every maintained \
         view still matches its cold re-run bit-for-bit.\n",
        menu.len()
    )
}
