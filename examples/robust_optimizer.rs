//! What happens when cardinality estimates are badly wrong — and what each
//! robustness mechanism buys back.
//!
//! We inject a 500× selectivity underestimate on the fact table (the
//! seminar's canonical failure) and compare:
//!
//! * the classic optimizer trusting the bad estimate,
//! * Babcock–Chaudhuri robust (90th percentile) plan choice,
//! * POP (progressive optimization with CHECK operators),
//! * the oracle (true cardinalities — the unachievable ideal).
//!
//! ```sh
//! cargo run --release -p rqp --example robust_optimizer
//! ```

use rqp::exec::ExecContext;
use rqp::expr::{col, lit};
use rqp::metrics::ReportTable;
use rqp::opt::plan;
use rqp::opt::run::{execute, run_plan, EstimatorWrapper, Execution, ExecutionMode, PlanInputs};
use rqp::stats::{LyingEstimator, OracleEstimator, TableStatsRegistry};
use rqp::workload::{tpch::TpchParams, TpchDb};
use rqp::QuerySpec;
use std::rc::Rc;

fn main() {
    let db = TpchDb::build(TpchParams { lineitem_rows: 20_000, ..Default::default() }, 7);
    let registry = TableStatsRegistry::analyze_catalog(&db.catalog, 32);

    // The query: join lineitem → orders with a lineitem filter whose
    // selectivity the optimizer believes to be 500× smaller than it is.
    let spec = QuerySpec::new()
        .join("lineitem", "orderkey", "orders", "orderkey")
        .filter("lineitem", col("lineitem.quantity").le(lit(25i64)));
    let lie = 1.0 / 500.0;

    let wrap: Box<EstimatorWrapper<'_>> = Box::new(move |e| {
        Box::new(LyingEstimator::new(e).with_table_factor("lineitem", lie))
    });
    let inputs = PlanInputs { lie: wrap.as_ref(), ..PlanInputs::new(&db.catalog, &registry) };
    let run = |mode| execute(&spec, &inputs, mode, &ExecContext::unbounded()).unwrap();

    let mut table = ReportTable::new(&["strategy", "cost", "reopts", "plan"]);
    let mut row = |strategy: &str, r: &Execution| {
        table.row(&[
            strategy.into(),
            format!("{:.0}", r.cost),
            format!("{}", r.reoptimizations()),
            short(&r.plan_fingerprint),
        ]);
    };

    // 1. Classic optimizer, lied to.
    let classic = run(ExecutionMode::Static);
    row("classic (bad estimate)", &classic);

    // 2. Robust percentile choice, hedging against errors as large as this one.
    let robust = run(ExecutionMode::Robust { percentile: 0.9, error_factor: 500.0 });
    row("robust p90", &robust);

    // 3. POP: start from the bad plan, CHECK catches the violation mid-query.
    let pop = run(ExecutionMode::pop());
    row("POP", &pop);

    // 4. The oracle: what a perfect estimator would have done.
    let oracle = OracleEstimator::new(Rc::new(db.catalog.clone()));
    let ideal = plan(&spec, &db.catalog, &oracle, inputs.config).unwrap();
    let ideal = run_plan(&ideal, &db.catalog, None, &ExecContext::unbounded()).unwrap();
    row("oracle (true cards)", &ideal);

    for r in [&robust, &pop, &ideal] {
        assert_eq!(classic.rows.len(), r.rows.len());
    }

    println!(
        "Query returns {} rows; optimizer believed the lineitem filter was \
         500× more selective than it is.\n\n{table}",
        classic.rows.len()
    );
    println!(
        "Robust choice and POP should land near the oracle; the classic \
         optimizer pays for trusting its estimate."
    );
}

fn short(fp: &str) -> String {
    if fp.len() > 48 {
        format!("{}…", &fp[..48])
    } else {
        fp.to_owned()
    }
}
