//! Integration tests of the robustness metrics pipeline: the selectivity
//! sweep (smoothness), extrinsic-variability decomposition, plan diagrams,
//! and the black-hat estimation traps — each wired through the real engine.

use rqp::metrics::{
    cardinality_error_geomean, metric1, smoothness, PlanStability, VariabilityReport,
};
use rqp::opt::plandiagram::{AnorexicReduction, PlanDiagram};
use rqp::opt::{plan, PlannerConfig};
use rqp::stats::{CardEstimator, OracleEstimator, StatsEstimator, TableStatsRegistry};
use rqp::workload::{tpch::TpchParams, BlackHatDb, StarDb, TpchDb};
use rqp::workload::star::StarParams;
use rqp::{Database, ExecContext};
use std::rc::Rc;

#[test]
fn selectivity_sweep_smoothness_ranks_access_paths() {
    // The E07 shape: a forced unclustered-index plan has a wildly varying
    // P(q) across the sweep; the scan is flat; the optimizer's choice should
    // be smooth-ish because it switches at the crossover.
    let db = TpchDb::build(TpchParams { lineitem_rows: 6000, ..Default::default() }, 7);
    let mut database = Database::from_catalog(db.catalog.clone());
    database.analyze();
    let sweep: Vec<f64> = (1..=10).map(|i| i as f64 / 10.0).collect();

    let mut chosen_costs = Vec::new();
    for &sel in &sweep {
        let r = database.execute(&db.range_query(sel)).unwrap();
        chosen_costs.push(r.cost);
    }
    // P(q) = |optimal - measured|; treat the optimizer's cost as measured
    // and the per-point minimum of (scan, chosen) as optimal proxy.
    let scan_cost = {
        let r = database.execute(&db.range_query(1.0)).unwrap();
        r.cost
    };
    let gaps: Vec<f64> = chosen_costs
        .iter()
        .map(|&c| (c - c.min(scan_cost)).abs() + 1.0)
        .collect();
    let s = smoothness(&gaps);
    assert!(s < 2.0, "optimizer sweep should not have wild cliffs, S(Q) = {s}");
    // Costs grow monotonically-ish with selectivity.
    assert!(chosen_costs.last().unwrap() >= &chosen_costs[0]);
}

#[test]
fn extrinsic_variability_zero_for_oracle_planning() {
    // Environments = different memory budgets. Planning with true
    // cardinalities per environment == the ideal plan, so extrinsic ≈ 0.
    let db = TpchDb::build(TpchParams { lineitem_rows: 3000, ..Default::default() }, 9);
    let oracle = OracleEstimator::new(Rc::new(db.catalog.clone()));
    let spec = db.q3(1, 1200);
    let mut pairs = Vec::new();
    for mem in [500.0, 5_000.0, f64::INFINITY] {
        let cfg = PlannerConfig { memory_rows: mem, ..Default::default() };
        let p = plan(&spec, &db.catalog, &oracle, cfg).unwrap();
        let ctx = ExecContext::with_memory(mem);
        p.build(&db.catalog, &ctx, None).unwrap().run();
        let cost = ctx.clock.now();
        pairs.push((cost, cost));
    }
    let report = VariabilityReport::from_costs(&pairs);
    assert!(report.extrinsic() < 1e-9);
}

#[test]
fn rigid_plan_shows_extrinsic_variability() {
    // The same fixed plan executed across environments, vs re-planned ideal.
    let db = TpchDb::build(TpchParams { lineitem_rows: 3000, ..Default::default() }, 9);
    let oracle = OracleEstimator::new(Rc::new(db.catalog.clone()));
    let spec = db.q3(1, 1200);
    let rigid = plan(
        &spec,
        &db.catalog,
        &oracle,
        PlannerConfig { memory_rows: f64::INFINITY, ..Default::default() },
    )
    .unwrap();
    let mut pairs = Vec::new();
    for mem in [100.0, 1_000.0, f64::INFINITY] {
        let ctx = ExecContext::with_memory(mem);
        rigid.build(&db.catalog, &ctx, None).unwrap().run();
        let rigid_cost = ctx.clock.now();
        let cfg = PlannerConfig { memory_rows: mem, ..Default::default() };
        let ideal = plan(&spec, &db.catalog, &oracle, cfg).unwrap();
        let ctx = ExecContext::with_memory(mem);
        ideal.build(&db.catalog, &ctx, None).unwrap().run();
        pairs.push((rigid_cost, ctx.clock.now()));
    }
    let report = VariabilityReport::from_costs(&pairs);
    assert!(report.worst_divergence() >= 1.0);
    // The rigid plan can never beat per-environment ideals on average.
    assert!(report.extrinsic() >= 0.0);
}

#[test]
fn plan_diagram_reduction_end_to_end() {
    let star = StarDb::build(StarParams { fact_rows: 8000, ..Default::default() }, 3);
    let reg = Rc::new(TableStatsRegistry::analyze_catalog(&star.catalog, 16));
    let est = StatsEstimator::new(reg);
    let grid: Vec<f64> = (1..=6).map(|i| (i as f64 / 6.0).powi(3).max(1e-4)).collect();
    let d = PlanDiagram::generate(
        &star.diagram_query(),
        &star.catalog,
        &est,
        PlannerConfig::default(),
        "fact",
        "d1",
        &grid,
    )
    .unwrap();
    let red = AnorexicReduction::reduce(&d, 0.2);
    assert!(red.plan_count() <= d.plan_count());
    assert!(red.max_inflation <= 1.2 + 1e-9);
}

#[test]
fn blackhat_traps_quantified_with_metrics() {
    let bh = BlackHatDb::build(4000, 99);
    let est = StatsEstimator::new(Rc::new(TableStatsRegistry::analyze_catalog(
        &bh.catalog,
        32,
    )));
    let mut pairs = Vec::new();
    for trap in bh.traps() {
        if let (Some(t), Some(p)) = (&trap.target_table, &trap.pred) {
            let guess = est.filtered_rows(t, p);
            let truth = bh.true_cardinality(&trap) as f64;
            pairs.push((guess, truth));
        }
    }
    assert!(pairs.len() >= 4);
    // The geometric mean is dragged down by the traps a fine equi-depth
    // histogram defuses (the skew pair); the correlation traps still hurt.
    let c_q = cardinality_error_geomean(&pairs);
    assert!(c_q > 0.1, "the trap suite must hurt: C(Q) = {c_q:.3}");
    let worst = pairs
        .iter()
        .map(|&(e, a)| (a - e).abs() / a.max(1.0))
        .fold(0.0f64, f64::max);
    assert!(worst > 0.85, "the pseudo-key trap must be near-total: {worst:.2}");
    let m1 = metric1(&pairs);
    assert!(m1 > 1.0, "Metric1 = {m1:.2}");
}

#[test]
fn plan_stability_tracks_real_plans() {
    let db = TpchDb::build(TpchParams { lineitem_rows: 2000, ..Default::default() }, 31);
    let mut database = Database::from_catalog(db.catalog.clone());
    database.analyze();
    let mut track = PlanStability::new();
    for sel in [0.001, 0.002, 0.5, 0.6] {
        let r = database.execute(&db.range_query(sel)).unwrap();
        track.record(r.plan_fingerprint, r.cost);
    }
    // Narrow range → index; wide → scan: at least one flip expected.
    assert!(track.distinct_plans() >= 2, "crossover should flip the plan");
    assert!(track.flips() >= 1);
}

#[test]
fn inflated_span_actuals_trip_the_scoreboard_diff_gate() {
    // The regression gate behind `rqp-report diff`: take a healthy run's
    // report, inflate the observed actuals on its spans (a plant whose
    // estimates went stale), and the q-error threshold must fire.
    use rqp::common::{rule, CostClock};
    use rqp::telemetry::{MetricsRegistry, RunReport, Scoreboard, Tracer};

    let make_report = |actual_rows: u64| -> RunReport {
        let clock = CostClock::default_clock();
        let tracer = Tracer::new();
        let span = tracer.open("scan", &clock);
        span.set_est_rows(100.0);
        let rows = actual_rows as f64;
        clock.charge(&rule::scan(clock.params().pages(rows), rows));
        for _ in 0..actual_rows {
            span.produced(&clock);
        }
        span.close(&clock);
        let mut report = RunReport::new("e01_probe");
        report.cost = clock.breakdown();
        report.spans = tracer.snapshot();
        report.metrics = MetricsRegistry::new().snapshot();
        report
    };

    let baseline = Scoreboard::fold(&[make_report(120)]);
    let healthy = Scoreboard::fold(&[make_report(120)]);
    assert!(
        baseline.diff(&healthy).is_empty(),
        "identical runs must pass the gate"
    );

    let inflated = Scoreboard::fold(&[make_report(50_000)]);
    let regressions = baseline.diff(&inflated);
    assert!(
        regressions.iter().any(|r| r.metric == "max_q_error"),
        "100x-inflated actuals must trip the q-error threshold, got {regressions:?}"
    );
}
