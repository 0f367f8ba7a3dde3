//! One costing walk prices every plan. Fed the counts a run observed, it
//! returns the cost the clock charged, bit for bit; under the estimator the
//! planner planned with, `reestimate` returns the planner's own estimate, bit
//! for bit. Equal counts give equal bits, so what is left of an estimate's
//! error is count error.

use rqp::expr::{col, lit};
use rqp::opt::planner::JoinAlgos;
use rqp::opt::run::run_plan;
use rqp::opt::{plan, CostModel};
use rqp::stats::OracleEstimator;
use rqp::workload::{tpch::TpchParams, TpchDb};
use rqp::{Catalog, ExecContext, PlannerConfig, QuerySpec};
use std::rc::Rc;

/// Plan `spec` under the oracle, re-estimate it, run it, and re-cost the run.
fn one_walk(label: &str, catalog: &Rc<Catalog>, spec: &QuerySpec, cfg: PlannerConfig) -> String {
    let oracle = OracleEstimator::new(Rc::clone(catalog));
    let plan = plan(spec, catalog, &oracle, cfg).unwrap();
    let cm = CostModel::with_memory(cfg.memory_rows);
    let at = format!("{label} [{}] memory {}", plan.fingerprint(), cfg.memory_rows);

    let (rows, cost) = plan.reestimate(&oracle, &cm);
    let (planned_rows, planned_cost) = (plan.est_rows(), plan.est_cost());
    assert_eq!(rows.to_bits(), planned_rows.to_bits(), "{at}: rows {rows} vs {planned_rows}");
    assert_eq!(cost.to_bits(), planned_cost.to_bits(), "{at}: cost {cost} vs {planned_cost}");

    let ctx = ExecContext::with_memory(cfg.memory_rows);
    let mut built = plan.build(catalog, &ctx, None).unwrap();
    built.run();
    let observed = plan.observed_cost(&built.meters, catalog, &cm);
    let ran = run_plan(&plan, catalog, None, &ExecContext::with_memory(cfg.memory_rows)).unwrap();
    assert_eq!(ran.cost.to_bits(), ctx.clock.now().to_bits(), "{at}: runs differ");
    let charged = ran.cost;
    assert_eq!(observed.to_bits(), charged.to_bits(), "{at}: walk {observed} vs clock {charged}");
    plan.fingerprint()
}

#[test]
fn the_costing_walk_fed_observed_counts_returns_the_charged_cost_bit_for_bit() {
    let tpch = TpchDb::build(TpchParams { lineitem_rows: 20_000, ..Default::default() }, 7);
    let catalog = Rc::new(tpch.catalog.clone());
    let queries = [
        ("q1", tpch.q1(90)),
        ("q3", tpch.q3(2, 1200)),
        ("q5", tpch.q5(0, 12, 200)),
        ("q6", tpch.q6(100, 0.05, 30)),
        ("q3 top 10", tpch.q3(1, 1500).limit(10)),
    ];
    for memory_rows in [f64::INFINITY, 500.0] {
        let cfg = PlannerConfig { memory_rows, ..Default::default() };
        for (label, spec) in &queries {
            one_walk(label, &catalog, spec, cfg);
        }
        for sel in [0.001, 0.01, 0.1, 0.5] {
            one_walk(&format!("range {sel}"), &catalog, &tpch.range_query(sel), cfg);
        }
    }

    // The oltp_point lookup shape, and a clustered range on orders' key.
    let point = QuerySpec::new()
        .join("orders", "orderkey", "lineitem", "orderkey")
        .filter("orders", col("orders.orderkey").eq(lit(7i64)))
        .project(&["orders.orderkey", "orders.totalprice", "lineitem.extendedprice"]);
    one_walk("point", &catalog, &point, PlannerConfig::default());
    let range = QuerySpec::new()
        .table("orders")
        .filter("orders", col("orders.orderkey").between(1_000i64, 1_200i64));
    let fp = one_walk("orders range", &catalog, &range, PlannerConfig::default());
    assert_eq!(fp, "ixscan(orders:ix_orders_orderkey)");

    // Every join algorithm, forced, starved and not.
    let none = JoinAlgos { hash: false, merge: false, inl: false, gjoin: false };
    for algos in [
        JoinAlgos { hash: true, ..none },
        JoinAlgos { merge: true, ..none },
        JoinAlgos { inl: true, ..none },
        JoinAlgos { gjoin: true, ..none },
    ] {
        for memory_rows in [f64::INFINITY, 500.0] {
            let cfg = PlannerConfig { memory_rows, join_algos: algos, ..Default::default() };
            for (label, spec) in &queries[1..3] {
                one_walk(&format!("{label} {algos:?}"), &catalog, spec, cfg);
            }
        }
    }
}
