//! E01–E03: the POP figures (the report's only *measured* artifacts).
//!
//! "Guy presented some slides showing how IBM demonstrated the impact of POP
//! upon a customer workload":
//!
//! * **Figure 1** — box plots of response times, standard vs POP: POP barely
//!   moves the mid-50% but dramatically shortens the outlier tail;
//! * **Figure 2** — per-query speed-up ratio (no-POP / POP) in decreasing
//!   order, with the no-speed-up line at 1.0 making regressions explicit;
//! * **Figure 3** — a scatter of response time without POP (x) vs with POP
//!   (y): improvements below the diagonal, regressions above.
//!
//! The "customer workload" substitute: a batch of 3-way join queries whose
//! fact-side selectivity estimates carry log-uniform random error (most
//! mild, a tail severe) — the estimation-error distribution every production
//! DBA recognizes.

use super::harness::{self, Harness, RunEnv};
use rand::Rng;
use rqp::common::rng::child_seed;
use rqp::exec::ExecContext;
use rqp::metrics::{BoxPlot, ReportTable, Summary};
use rqp::opt::run::{execute, EstimatorWrapper, ExecutionMode, PlanInputs};
use rqp::stats::{LyingEstimator, TableStatsRegistry};
use rqp::workload::{tpch::TpchParams, TpchDb};

/// One query's outcome under both regimes.
#[derive(Debug, Clone, Copy)]
pub struct PopPoint {
    /// Response (cost units) without POP.
    pub standard: f64,
    /// Response with POP.
    pub pop: f64,
    /// Re-optimizations POP performed.
    pub reopts: usize,
}

/// Run the shared POP problem workload, recording its seeds and headline
/// numbers on the harness.
pub fn run_pop_workload(h: &mut Harness) -> Vec<PopPoint> {
    let (li_rows, n_queries) = if h.fast() { (3000, 12) } else { (12_000, 60) };
    let db = TpchDb::build(
        TpchParams { lineitem_rows: li_rows, ..Default::default() },
        h.note_seed("db", 1001),
    );
    let registry = TableStatsRegistry::analyze_catalog(&db.catalog, 32);
    let mut rng = h.seeded("pop-workload", child_seed(1001, "pop-workload"));
    let mut out = Vec::with_capacity(n_queries);
    for qi in 0..n_queries {
        // Error severity: log-uniform underestimate in [1, 1000]×.
        let severity = 10f64.powf(rng.gen_range(0.0..3.0));
        let factor = 1.0 / severity;
        let spec = match qi % 2 {
            0 => db.q3(rng.gen_range(0..5), rng.gen_range(800..2000)),
            _ => db.q5(0, 24, rng.gen_range(0..1200)),
        };
        let wrap: Box<EstimatorWrapper<'_>> = Box::new(move |e| {
            Box::new(LyingEstimator::new(e).with_table_factor("lineitem", factor))
        });
        let inputs = PlanInputs { lie: wrap.as_ref(), ..PlanInputs::new(&db.catalog, &registry) };
        let run = |mode| execute(&spec, &inputs, mode, &ExecContext::unbounded());
        let standard = run(ExecutionMode::Static).expect("standard run");
        let pop = run(ExecutionMode::pop()).expect("pop run");
        assert_eq!(standard.rows.len(), pop.rows.len(), "POP must not change answers");
        let reopts = pop.reoptimizations();
        out.push(PopPoint { standard: standard.cost, pop: pop.cost, reopts });
    }
    // The workload's paper-metric samples: per-query gap between the
    // regimes (smoothness of improvement), and the static regime's
    // divergence from the adaptive one (extrinsic variability).
    h.config("queries", out.len());
    h.perf_gaps(&out.iter().map(|p| (p.standard - p.pop).abs()).collect::<Vec<_>>());
    h.env_costs(&out.iter().map(|p| (p.standard, p.pop)).collect::<Vec<_>>());
    out
}

/// Record the workload's cost distributions and re-optimization counts on
/// the harness registry, and execute one representative problem query (a
/// severe 100× underestimate) under POP on the harness context so its full
/// operator span trace — `check` spans, `pop.violation` events — lands in
/// the run report.
fn instrument_e01(h: &mut Harness, points: &[PopPoint]) {
    let std_hist = h.ctx().metrics.histogram("cost.standard");
    let pop_hist = h.ctx().metrics.histogram("cost.pop");
    for p in points {
        std_hist.observe(p.standard);
        pop_hist.observe(p.pop);
    }
    let li_rows = if h.fast() { 3000 } else { 12_000 };
    let db = TpchDb::build(
        TpchParams { lineitem_rows: li_rows, ..Default::default() },
        h.note_seed("db-representative", 1001),
    );
    let registry = TableStatsRegistry::analyze_catalog(&db.catalog, 32);
    let wrap: Box<EstimatorWrapper<'_>> = Box::new(|e| {
        Box::new(LyingEstimator::new(e).with_table_factor("lineitem", 0.01))
    });
    let inputs = PlanInputs { lie: wrap.as_ref(), ..PlanInputs::new(&db.catalog, &registry) };
    execute(&db.q3(1, 1200), &inputs, ExecutionMode::pop(), h.ctx()).expect("traced POP run");
}

/// E01 — Figure 1: aggregated improvement (box plots).
pub fn e01_pop_aggregate(env: &RunEnv) -> String {
    harness::run("e01_pop_aggregate", env, |h| {
        let points = run_pop_workload(h);
        instrument_e01(h, &points);
        let std_costs: Vec<f64> = points.iter().map(|p| p.standard).collect();
        let pop_costs: Vec<f64> = points.iter().map(|p| p.pop).collect();
        let sb = BoxPlot::of(&std_costs);
        let pb = BoxPlot::of(&pop_costs);
        let ss = Summary::of(&std_costs);
        let ps = Summary::of(&pop_costs);
        let mut t =
            ReportTable::new(&["regime", "q1", "median", "q3", "whisker-hi", "max", "mean"]);
        for (name, b, s) in [("standard", &sb, &ss), ("POP", &pb, &ps)] {
            t.row(&[
                name.into(),
                format!("{:.0}", b.q1),
                format!("{:.0}", b.median),
                format!("{:.0}", b.q3),
                format!("{:.0}", b.whisker_hi),
                format!("{:.0}", s.max),
                format!("{:.0}", s.mean),
            ]);
        }
        format!(
            "E01 — POP Figure 1: aggregated improvement ({} queries)\n\n\
             standard: {}\nPOP:      {}\n\n{t}\n\
             Expected shape: mid-50% barely moves, the outlier tail collapses.\n\
             tail compression (max std / max POP): {:.1}x\n",
            points.len(),
            sb.render(),
            pb.render(),
            ss.max / ps.max.max(1.0),
        )
    })
}

/// E02 — Figure 2: per-query speed-up ratios in decreasing order.
pub fn e02_pop_ratio(env: &RunEnv) -> String {
    harness::run("e02_pop_ratio", env, |h| {
        let points = run_pop_workload(h);
        e02_body(&points)
    })
}

fn e02_body(points: &[PopPoint]) -> String {
    let mut ratios: Vec<(f64, usize)> =
        points.iter().map(|p| (p.standard / p.pop.max(1e-9), p.reopts)).collect();
    ratios.sort_by(|a, b| b.0.total_cmp(&a.0));
    let mut t = ReportTable::new(&["rank", "speedup (std/POP)", "reopts", "vs 1.0 line"]);
    for (i, (r, reopts)) in ratios.iter().enumerate() {
        t.row(&[
            format!("{}", i + 1),
            format!("{r:.2}"),
            format!("{reopts}"),
            if *r >= 1.0 { "improved".into() } else { "REGRESSED".into() },
        ]);
    }
    let regressions = ratios.iter().filter(|(r, _)| *r < 1.0).count();
    let improved_5x = ratios.iter().filter(|(r, _)| *r >= 5.0).count();
    format!(
        "E02 — POP Figure 2: relative improvement, decreasing\n\n{t}\n\
         queries ≥5x faster: {improved_5x}; regressions (below the red line): {regressions} \
         of {}\nExpected shape: large improvements at the head, a small number of \
         mild regressions at the tail.\n",
        ratios.len()
    )
}

/// E03 — Figure 3: scatter of standard (x) vs POP (y) response time.
pub fn e03_pop_scatter(env: &RunEnv) -> String {
    harness::run("e03_pop_scatter", env, |h| {
        let points = run_pop_workload(h);
        e03_body(&points)
    })
}

fn e03_body(points: &[PopPoint]) -> String {
    let mut t = ReportTable::new(&["std (x)", "POP (y)", "y/x", "side of diagonal"]);
    let mut below = 0usize;
    for p in points {
        let ratio = p.pop / p.standard.max(1e-9);
        if ratio <= 1.0 {
            below += 1;
        }
        t.row(&[
            format!("{:.0}", p.standard),
            format!("{:.0}", p.pop),
            format!("{ratio:.2}"),
            if ratio <= 1.0 { "below (improved)".into() } else { "above (regressed)".into() },
        ]);
    }
    format!(
        "E03 — POP Figure 3: scatter plot data (x = no POP, y = with POP)\n\n{t}\n\
         points on/below the diagonal: {below}/{}\n\
         Expected shape: the cloud hugs the diagonal for easy queries and \
         falls far below it for the problem queries.\n",
        points.len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e01_report_carries_trace_seeds_and_paper_samples() {
        let dir = std::env::temp_dir().join("rqp_e01_report_test");
        let _ = std::fs::remove_dir_all(&dir);
        let out = e01_pop_aggregate(&RunEnv::new(true, dir.clone()));
        assert!(out.contains("run report:"), "{out}");
        let text = std::fs::read_to_string(dir.join("e01_pop_aggregate.json")).unwrap();
        let report = rqp::telemetry::RunReport::from_json(&text).expect("parse");
        assert_eq!(report.experiment, "e01_pop_aggregate");
        assert!(!report.spans.is_empty(), "traced query must leave spans");
        assert!(
            report.spans.iter().any(|s| s.kind == "check"),
            "POP instrumentation must show up as check spans"
        );
        assert!(report.rng.iter().any(|(s, _)| s == "db"), "db seed recorded");
        assert!(
            report.rng.iter().any(|(s, _)| s == "pop-workload"),
            "workload stream recorded"
        );
        assert!(
            report
                .metrics
                .iter()
                .any(|(name, _)| name
                    .starts_with(rqp::telemetry::scoreboard::samples::PERF_GAP_PREFIX)),
            "paper perf-gap samples published"
        );
        assert_eq!(
            report.to_json().pretty(),
            text,
            "re-serialization is stable"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
