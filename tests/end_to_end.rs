//! End-to-end integration: the full stack (workload generation → statistics
//! → optimization → execution) across execution modes, with answers checked
//! against ground truth.

use rqp::expr::{col, lit};
use rqp::stats::{OracleEstimator, CardEstimator};
use rqp::workload::{tpch::TpchParams, StarDb, TpchDb};
use rqp::workload::star::StarParams;
use rqp::{Database, ExecutionMode, PlannerConfig, QuerySpec};
use std::rc::Rc;

fn tpch_db() -> (TpchDb, Database) {
    let tpch = TpchDb::build(TpchParams { lineitem_rows: 4000, ..Default::default() }, 404);
    let mut db = Database::from_catalog(tpch.catalog.clone());
    db.analyze();
    (tpch, db)
}

#[test]
fn tpch_queries_all_modes_agree() {
    let (tpch, db) = tpch_db();
    let queries = [tpch.q1(90), tpch.q3(2, 1200), tpch.q5(0, 12, 200), tpch.q6(100, 0.05, 30)];
    for (qi, q) in queries.iter().enumerate() {
        let baseline = db.execute(q).unwrap();
        for mode in [ExecutionMode::robust(), ExecutionMode::pop(), ExecutionMode::Leo] {
            let r = db.execute_mode(q, mode).unwrap();
            assert_eq!(
                sorted(&r.rows),
                sorted(&baseline.rows),
                "query {qi} under {mode:?} changed the answer"
            );
        }
    }
}

#[test]
fn limit_without_order_by_is_rejected_at_plan_time() {
    let (tpch, db) = tpch_db();
    let spec = QuerySpec::new().table("orders").limit(5);
    assert!(
        matches!(db.execute(&spec), Err(rqp::common::RqpError::Invalid(_))),
        "an unordered LIMIT has no stable first rows"
    );
    let ordered = db.execute(&spec.order(&["orders.orderkey"])).unwrap();
    assert_eq!(ordered.rows.len(), 5);
    assert!(db.execute(&tpch.q1(30)).is_ok());
}

#[test]
fn a_limit_past_every_row_plans_in_bounded_time_and_returns_every_row() {
    let (_, db) = tpch_db();
    let join = QuerySpec::new()
        .join("orders", "orderkey", "lineitem", "orderkey")
        .order(&["lineitem.orderkey"]);
    let all = db.execute(&join).unwrap().rows.len();
    let start = std::time::Instant::now();
    let limited = db.execute(&join.limit(usize::MAX)).unwrap();
    assert_eq!(limited.rows.len(), all);
    assert!(start.elapsed() < std::time::Duration::from_secs(30), "{:?}", start.elapsed());
}

#[test]
fn filter_counts_match_oracle() {
    let (_, db) = tpch_db();
    let oracle = OracleEstimator::new(Rc::new(db.catalog().clone()));
    let pred = col("lineitem.shipdate").between(500i64, 899i64);
    let spec = QuerySpec::new().table("lineitem").filter("lineitem", pred.clone());
    let rows = db.execute(&spec).unwrap().rows;
    let truth = (oracle.filtered_rows("lineitem", &pred)).round() as usize;
    assert_eq!(rows.len(), truth);
}

#[test]
fn bushy_and_left_deep_agree() {
    let (tpch, mut db) = tpch_db();
    let q = tpch.q5(0, 24, 0);
    let left_deep = db.execute(&q).unwrap();
    db.planner_config = PlannerConfig { bushy: true, ..Default::default() };
    let bushy = db.execute(&q).unwrap();
    assert_eq!(sorted(&left_deep.rows), sorted(&bushy.rows));
}

#[test]
fn memory_pressure_changes_cost_not_answers() {
    let (tpch, mut db) = tpch_db();
    let q = tpch.q3(1, 1500);
    let unbounded = db.execute(&q).unwrap();
    db.planner_config = PlannerConfig { memory_rows: 200.0, ..Default::default() };
    let tight = db.execute(&q).unwrap();
    assert_eq!(sorted(&unbounded.rows), sorted(&tight.rows));
    assert!(tight.cost >= unbounded.cost, "pressure can only cost more");
}

#[test]
fn star_schema_with_correlation_still_correct() {
    let star = StarDb::build(
        StarParams { fact_rows: 3000, correlated_fks: true, fk_skew: 0.8, ..Default::default() },
        5,
    );
    let mut db = Database::from_catalog(star.catalog.clone());
    db.analyze();
    let q = star.star_query(5, 8, 10);
    let r = db.execute(&q).unwrap();
    assert_eq!(r.rows.len(), 1, "global aggregate");
    let n = r.rows[0][0].as_int().unwrap();
    assert!(n > 0, "correlated+skewed data still joins");
    // POP agrees despite the correlation-induced misestimates.
    let p = db.execute_mode(&q, ExecutionMode::pop()).unwrap();
    assert_eq!(p.rows[0][0], r.rows[0][0]);
}

#[test]
fn equivalent_query_variants_return_identical_results() {
    let (_, db) = tpch_db();
    let base_pred = col("lineitem.shipdate")
        .between(200i64, 600i64)
        .and(col("lineitem.quantity").lt(lit(25i64)))
        .and(col("lineitem.returnflag").in_list(vec![0i64.into(), 2i64.into()]));
    let variants = rqp::expr::rewrites::variants(&base_pred);
    assert!(variants.len() >= 5);
    let mut counts = std::collections::BTreeSet::new();
    for v in &variants {
        let spec = QuerySpec::new().table("lineitem").filter("lineitem", v.clone());
        counts.insert(db.execute(&spec).unwrap().rows.len());
    }
    assert_eq!(counts.len(), 1, "all rewrites must agree: {counts:?}");
}

#[test]
fn updates_then_analyze_then_query() {
    let (tpch, mut db) = tpch_db();
    let before = db.execute(&tpch.q1(0)).unwrap();
    // OLTP-style growth.
    let mut oltp = rqp::workload::OltpSimulator::new(
        db.catalog().clone(),
        rqp::ExecContext::unbounded(),
        1,
    );
    oltp.run_stream(100);
    *db.catalog_mut() = oltp.catalog;
    db.analyze();
    let after = db.execute(&tpch.q1(0)).unwrap();
    let n = |rows: &Vec<rqp::Row>| -> i64 { rows.iter().map(|r| r[1].as_int().unwrap()).sum() };
    assert!(n(&after.rows) > n(&before.rows), "new lineitems visible");
}

fn sorted(rows: &[rqp::Row]) -> Vec<String> {
    let mut v: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
    v.sort();
    v
}
