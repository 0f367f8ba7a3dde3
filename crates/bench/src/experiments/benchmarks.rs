//! E04–E06: the seminar's proposed robustness benchmarks.

use super::harness::{self, Harness, RunEnv};
use rqp::exec::ExecContext;
use rqp::expr::{col, lit, rewrites};
use rqp::metrics::{ReportTable, VariabilityReport};
use rqp::opt::{plan, PlannerConfig};
use rqp::stats::{CardEstimator, OracleEstimator, StatsEstimator, TableStatsRegistry};
use rqp::workload::{tpch::TpchParams, TpchDb, TractorPull};
use rqp::workload::tractor::TractorConfig;
use rqp::QuerySpec;
use std::rc::Rc;

/// E04 — the tractor-pull benchmark: escalate load until the stall.
pub fn e04_tractor_pull(env: &RunEnv) -> String {
    harness::run("e04_tractor_pull", env, e04_body)
}

fn e04_body(h: &mut Harness) -> String {
    let fast = h.fast();
    let cfg = if fast {
        TractorConfig {
            max_rounds: 4,
            base_rows: 500,
            growth: 2.0,
            queries_per_round: 3,
            stall_budget: 5_000.0,
            seed: 41,
        }
    } else {
        TractorConfig {
            max_rounds: 8,
            base_rows: 1_000,
            growth: 2.0,
            queries_per_round: 5,
            stall_budget: 20_000.0,
            seed: 41,
        }
    };
    h.note_seed("tractor", cfg.seed);
    let rounds = TractorPull::run(cfg).expect("tractor pull");
    h.config("rounds", rounds.len());
    h.gauge("tractor.distance", TractorPull::distance(&rounds) as f64);
    // Per-round spread between the worst and the mean query — the
    // response-time-variance signal the benchmark is built around.
    h.perf_gaps(&rounds.iter().map(|r| r.max_cost - r.mean_cost).collect::<Vec<_>>());
    h.env_costs(&rounds.iter().map(|r| (r.max_cost, r.mean_cost)).collect::<Vec<_>>());
    let mut t = ReportTable::new(&[
        "round", "fact rows", "joins", "mean cost", "CV", "max cost", "status",
    ]);
    for r in &rounds {
        t.row(&[
            format!("{}", r.round),
            format!("{}", r.fact_rows),
            format!("{}", r.joins),
            format!("{:.0}", r.mean_cost),
            format!("{:.3}", r.cv),
            format!("{:.0}", r.max_cost),
            if r.stalled { "STALL".into() } else { "pull".into() },
        ]);
    }
    format!(
        "E04 — tractor pull: increasingly complex workload until the stall\n\n{t}\n\
         distance (rounds completed): {}\n\
         Expected shape: mean cost grows with the sled; response-time \
         variance (CV) is the robustness signal.\n",
        TractorPull::distance(&rounds)
    )
}

/// E05 — end-to-end robustness: intrinsic vs extrinsic variability.
///
/// Environments: shrinking memory budgets. The *rigid* system carries its
/// big-memory plan everywhere; the *adaptive* system re-plans per
/// environment (the ideal-plan approximation the break-out proposes).
pub fn e05_extrinsic(env: &RunEnv) -> String {
    harness::run("e05_extrinsic", env, e05_body)
}

fn e05_body(h: &mut Harness) -> String {
    let li = if h.fast() { 3000 } else { 10_000 };
    let db = TpchDb::build(
        TpchParams { lineitem_rows: li, ..Default::default() },
        h.note_seed("db", 5),
    );
    let oracle = OracleEstimator::new(Rc::new(db.catalog.clone()));
    let spec = db.q3(1, 1200);
    let environments: [f64; 4] = [f64::INFINITY, 5_000.0, 500.0, 120.0];

    // Rigid: plan once for infinite memory.
    let rigid = plan(
        &spec,
        &db.catalog,
        &oracle,
        PlannerConfig { memory_rows: f64::INFINITY, ..Default::default() },
    )
    .expect("rigid plan");

    let mut rigid_pairs = Vec::new();
    let mut adaptive_pairs = Vec::new();
    let mut t = ReportTable::new(&["memory", "ideal cost", "rigid cost", "divergence"]);
    for &mem in &environments {
        let cfg = PlannerConfig { memory_rows: mem, ..Default::default() };
        let ideal_plan = plan(&spec, &db.catalog, &oracle, cfg).expect("ideal plan");
        let ctx = ExecContext::with_memory(mem);
        ideal_plan.build(&db.catalog, &ctx, None).expect("build").run();
        let ideal_cost = ctx.clock.now();
        let ctx = ExecContext::with_memory(mem);
        rigid.build(&db.catalog, &ctx, None).expect("build").run();
        let rigid_cost = ctx.clock.now();
        rigid_pairs.push((rigid_cost, ideal_cost));
        adaptive_pairs.push((ideal_cost, ideal_cost));
        t.row(&[
            if mem.is_infinite() { "∞".into() } else { format!("{mem:.0}") },
            format!("{ideal_cost:.0}"),
            format!("{rigid_cost:.0}"),
            format!("{:.2}x", rigid_cost / ideal_cost),
        ]);
    }
    h.config("environments", environments.len());
    // The rigid system's (chosen, ideal) pairs are the experiment's
    // extrinsic-variability evidence; the ideal totals bound Metric3.
    h.env_costs(&rigid_pairs);
    h.m3(
        rigid_pairs.iter().map(|(c, _)| c).sum(),
        rigid_pairs.iter().map(|(_, i)| i).sum(),
    );
    let rigid_report = VariabilityReport::from_costs(&rigid_pairs);
    let adaptive_report = VariabilityReport::from_costs(&adaptive_pairs);
    format!(
        "E05 — intrinsic vs extrinsic variability across memory environments\n\n{t}\n\
         intrinsic variability (CV of ideal costs, paid by everyone): {:.3}\n\
         extrinsic variability — rigid system:    {:.3} (worst divergence {:.2}x)\n\
         extrinsic variability — adaptive system: {:.3}\n\
         Expected shape: robustness = low extrinsic; intrinsic is not the \
         system's fault.\n",
        rigid_report.intrinsic(),
        rigid_report.extrinsic(),
        rigid_report.worst_divergence(),
        adaptive_report.extrinsic(),
    )
}

/// E06 — equivalent-query consistency: semantically equal formulations must
/// cost (and estimate) the same.
pub fn e06_equivalence(env: &RunEnv) -> String {
    harness::run("e06_equivalence", env, e06_body)
}

fn e06_body(h: &mut Harness) -> String {
    let li = if h.fast() { 3000 } else { 10_000 };
    let mut db = TpchDb::build(
        TpchParams { lineitem_rows: li, ..Default::default() },
        h.note_seed("db", 6),
    );
    // The session's multi-column case: an index on (returnflag, quantity)
    // should serve "returnflag = 1 AND quantity BETWEEN 7 AND 11" in every
    // phrasing.
    db.catalog
        .create_index("ix_rf_qty", "lineitem", &["returnflag", "quantity"])
        .expect("composite index");
    let reg = Rc::new(TableStatsRegistry::analyze_catalog(&db.catalog, 32));
    let est = StatsEstimator::new(Rc::clone(&reg));
    let mut rng = h.seeded("in-list", 66);
    use rand::Rng;

    let families: Vec<(&str, rqp::Expr)> = vec![
        (
            "range+negation",
            col("lineitem.shipdate")
                .between(200i64, 800i64)
                .and(col("lineitem.returnflag").ne(lit(1i64)).not()),
        ),
        (
            "in-list",
            col("lineitem.quantity").in_list(
                (0..8).map(|_| rqp::Value::Int(rng.gen_range(1..50))).collect(),
            ),
        ),
        (
            "conjunction",
            col("lineitem.quantity")
                .lt(lit(30i64))
                .and(col("lineitem.discount").le(lit(0.05)))
                .and(col("lineitem.shipdate").ge(lit(400i64))),
        ),
        (
            "multi-column index",
            col("lineitem.returnflag")
                .eq(lit(1i64))
                .and(col("lineitem.quantity").between(7i64, 11i64)),
        ),
    ];

    let mut t = ReportTable::new(&[
        "family", "variants", "distinct results", "plans", "est spread", "cost spread",
    ]);
    let mut worst_cost_spread = 1.0f64;
    let mut env_pairs = Vec::new();
    let mut spread_gaps = Vec::new();
    for (name, base) in &families {
        let variants = rewrites::variants(base);
        let mut results = std::collections::BTreeSet::new();
        let mut plans = std::collections::BTreeSet::new();
        let mut ests = Vec::new();
        let mut costs = Vec::new();
        for v in &variants {
            let spec = QuerySpec::new().table("lineitem").filter("lineitem", v.clone());
            ests.push(est.filtered_rows("lineitem", v));
            let p = plan(&spec, &db.catalog, &est, PlannerConfig::default()).expect("plan");
            plans.insert(p.fingerprint());
            let ctx = ExecContext::unbounded();
            let rows = p.build(&db.catalog, &ctx, None).expect("build").run();
            results.insert(rows.len());
            costs.push(ctx.clock.now());
        }
        let spread = |v: &[f64]| -> f64 {
            let lo = v.iter().cloned().fold(f64::INFINITY, f64::min).max(1e-9);
            let hi = v.iter().cloned().fold(0.0, f64::max);
            hi / lo
        };
        let cost_spread = spread(&costs);
        worst_cost_spread = worst_cost_spread.max(cost_spread);
        // Each phrasing is an "environment" whose ideal is the family's
        // cheapest variant; a robust system keeps every pair identical.
        let cheapest = costs.iter().cloned().fold(f64::INFINITY, f64::min);
        env_pairs.extend(costs.iter().map(|c| (*c, cheapest)));
        spread_gaps.push(cost_spread - 1.0);
        t.row(&[
            (*name).into(),
            format!("{}", variants.len()),
            format!("{}", results.len()),
            format!("{}", plans.len()),
            format!("{:.2}x", spread(&ests)),
            format!("{cost_spread:.2}x"),
        ]);
    }
    h.config("families", families.len());
    h.perf_gaps(&spread_gaps);
    h.env_costs(&env_pairs);
    format!(
        "E06 — equivalent-query robustness (Graefe et al. break-out)\n\n{t}\n\
         Ideal: every family has 1 distinct result (required) and spreads of \
         1.00x (estimates and execution resources identical no matter how \
         the query is phrased). worst cost spread observed: {worst_cost_spread:.2}x\n",
    )
}
