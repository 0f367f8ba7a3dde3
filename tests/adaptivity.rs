//! Integration tests of the adaptive machinery: POP under injected error,
//! LEO convergence across epochs, eddies and A-Greedy under drift, adaptive
//! indexing equivalence.

use rqp::exec::{
    collect, AGreedyFilterOp, CrackerScanOp, EddyFilterOp, ExecContext, Operator, RoutingPolicy,
    TableScanOp,
};
use rqp::expr::{col, lit};
use rqp::opt::run::{execute, EstimatorWrapper, ExecutionMode, PlanInputs};
use rqp::stats::{FeedbackRepo, LyingEstimator, TableStatsRegistry};
use rqp::storage::CrackerColumn;
use rqp::workload::{tpch::TpchParams, TpchDb};
use rqp::QuerySpec;
use std::cell::RefCell;
use std::rc::Rc;

fn setup() -> (TpchDb, TableStatsRegistry) {
    let db = TpchDb::build(TpchParams { lineitem_rows: 6000, ..Default::default() }, 606);
    let reg = TableStatsRegistry::analyze_catalog(&db.catalog, 32);
    (db, reg)
}

#[test]
fn pop_recovers_from_underestimates_across_queries() {
    let (db, reg) = setup();
    let wrap: Box<EstimatorWrapper<'_>> = Box::new(|e| {
        Box::new(LyingEstimator::new(e).with_table_factor("lineitem", 0.002))
    });
    let inputs = PlanInputs { lie: wrap.as_ref(), ..PlanInputs::new(&db.catalog, &reg) };
    let queries = vec![db.q3(0, 1000), db.q5(0, 24, 100)];
    for q in &queries {
        let std = execute(q, &inputs, ExecutionMode::Static, &ExecContext::unbounded()).unwrap();
        let pop = execute(q, &inputs, ExecutionMode::pop(), &ExecContext::unbounded()).unwrap();
        assert_eq!(std.rows.len(), pop.rows.len(), "POP must not change answers");
    }
}

#[test]
fn leo_qerror_decays() {
    // Under-estimate regime (the common disaster); damped smoothing avoids
    // the correction/re-plan ping-pong LEO is known for under over-estimates.
    let (db, reg) = setup();
    let repo = RefCell::new(FeedbackRepo::new(0.7));
    let lie: &EstimatorWrapper<'_> =
        &|e| Box::new(LyingEstimator::new(e).with_table_factor("lineitem", 1.0 / 30.0));
    let inputs = PlanInputs { lie, feedback: Some(&repo), ..PlanInputs::new(&db.catalog, &reg) };
    let q = db.q3(1, 1400);
    let ctx = ExecContext::unbounded();
    let mut qerrs = Vec::new();
    for _ in 0..5 {
        qerrs.push(execute(&q, &inputs, ExecutionMode::Leo, &ctx).unwrap().max_q_error());
    }
    let best_later = qerrs[1..].iter().cloned().fold(f64::INFINITY, f64::min);
    assert!(
        best_later < qerrs[0] / 3.0,
        "q-error must improve substantially: {qerrs:?}"
    );
    assert!(
        qerrs.last().unwrap() < &qerrs[0],
        "final epoch must beat the cold start: {qerrs:?}"
    );
}

#[test]
fn eddy_and_static_filters_agree_under_drift() {
    let (db, _) = setup();
    let preds = vec![
        col("lineitem.quantity").lt(lit(20i64)),
        col("lineitem.shipdate").lt(lit(800i64)),
        col("lineitem.returnflag").eq(lit(1i64)),
    ];
    let ctx = ExecContext::unbounded();
    let scan = || -> Box<dyn Operator> {
        Box::new(TableScanOp::new(db.catalog.table("lineitem").unwrap(), ctx.clone()))
    };
    let mut eddy = EddyFilterOp::new(
        scan(),
        &preds,
        RoutingPolicy::Lottery { decay: 0.99 },
        5,
        ctx.clone(),
    )
    .unwrap();
    let eddy_rows = collect(&mut eddy);
    let mut agreedy =
        AGreedyFilterOp::new(scan(), &preds, 100, 0.1, 50, 5, ctx.clone()).unwrap();
    let ag_rows = collect(&mut agreedy);
    // Ground truth via a composite filter.
    let truth = db
        .catalog
        .table("lineitem")
        .unwrap()
        .count_where(&rqp::Expr::conjoin(preds))
        .unwrap();
    assert_eq!(eddy_rows.len(), truth);
    assert_eq!(ag_rows.len(), truth);
}

#[test]
fn cracker_converges_and_matches_scan_results() {
    let (db, _) = setup();
    let catalog = &db.catalog;
    let lineitem = catalog.table("lineitem").unwrap();
    let cracker = Rc::new(RefCell::new(CrackerColumn::over(&lineitem, "shipdate").unwrap()));
    let ctx = ExecContext::unbounded();
    let mut first_cost = 0.0;
    let mut last_cost = 0.0;
    for i in 0..10 {
        let lo = (i * 137) % 2000;
        let hi = lo + 200;
        let before = ctx.clock.now();
        let mut scan = CrackerScanOp::new(
            Rc::clone(&cracker),
            catalog.table("lineitem").unwrap(),
            lo,
            hi,
            ctx.clone(),
        );
        let rows = collect(&mut scan);
        let cost = ctx.clock.now() - before;
        if i == 0 {
            first_cost = cost;
        }
        last_cost = cost;
        let truth = catalog
            .table("lineitem")
            .unwrap()
            .count_where(&col("lineitem.shipdate").between(lo, hi))
            .unwrap();
        assert_eq!(rows.len(), truth, "query {i}");
    }
    assert!(
        last_cost < first_cost / 2.0,
        "cracking must converge: first {first_cost:.0}, last {last_cost:.0}"
    );
}

#[test]
fn pop_with_accurate_stats_has_bounded_overhead() {
    let (db, reg) = setup();
    let q = db.q3(2, 1200);
    let inputs = PlanInputs::new(&db.catalog, &reg);
    let std = execute(&q, &inputs, ExecutionMode::Static, &ExecContext::unbounded()).unwrap();
    let pop = execute(&q, &inputs, ExecutionMode::pop(), &ExecContext::unbounded()).unwrap();
    assert_eq!(pop.reoptimizations(), 0);
    // CHECK materialization overhead exists, but must be modest.
    assert!(pop.cost < std.cost * 1.6, "POP overhead too high: {} vs {}", pop.cost, std.cost);
}

#[test]
fn feedback_survives_across_query_shapes() {
    let (db, reg) = setup();
    let repo = RefCell::new(FeedbackRepo::new(1.0));
    let inputs = PlanInputs { feedback: Some(&repo), ..PlanInputs::new(&db.catalog, &reg) };
    let ctx = ExecContext::unbounded();
    let q1 = QuerySpec::new()
        .table("lineitem")
        .filter("lineitem", col("lineitem.quantity").lt(lit(10i64)));
    execute(&q1, &inputs, ExecutionMode::Leo, &ctx).unwrap();
    let learned = repo.borrow().len();
    assert!(learned >= 1);
    // A different query adds different signatures, never clobbers.
    let q2 = db.q6(0, 0.05, 30);
    execute(&q2, &inputs, ExecutionMode::Leo, &ctx).unwrap();
    assert!(repo.borrow().len() >= learned);
}
