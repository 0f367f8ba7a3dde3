//! The LEO learning loop.
//!
//! Each execution compares the per-node actual cardinalities (observed via
//! the operators' telemetry spans) with the estimates the plan carried, and
//! records adjustment factors in a shared [`FeedbackRepo`]. Optimizing
//! through a [`FeedbackEstimator`](rqp_stats::FeedbackEstimator) then applies
//! the corrections — estimates converge toward actuals over repeated
//! workloads (experiment E19 measures the q-error decay).

use crate::run::Execution;
use rqp_exec::ExecContext;
use rqp_stats::FeedbackRepo;

/// Record every learnable node of `exec` in `repo`, keyed by its signature,
/// at its per-operator-normalised estimate. Each one observes the
/// `leo.q_error` histogram on `ctx`; a misestimated one also counts a
/// `leo.corrections` and leaves a `leo.correction` event on its span.
pub fn learn(exec: &Execution, repo: &mut FeedbackRepo, ctx: &ExecContext) {
    for o in &exec.observations {
        let Some(sig) = &o.signature else { continue };
        repo.observe(sig, o.normalized, o.actual as f64);
        let q = rqp_stats::q_error(o.normalized, o.actual as f64);
        ctx.metrics.histogram("leo.q_error").observe(q);
        if q > 1.0 + 1e-9 {
            ctx.metrics.counter("leo.corrections").inc();
            o.span.record_event(
                &ctx.clock,
                "leo.correction",
                &format!("{sig}: est {:.1} vs actual {} (q {q:.2})", o.normalized, o.actual),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::run::{execute, EstimatorWrapper, Execution, ExecutionMode, PlanInputs};
    use crate::QuerySpec;
    use rqp_common::expr::{col, lit};
    use rqp_common::{DataType, Schema, Value};
    use rqp_exec::ExecContext;
    use rqp_stats::{FeedbackRepo, LyingEstimator, TableStatsRegistry};
    use rqp_storage::{Catalog, Table};
    use std::cell::RefCell;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let schema = Schema::from_pairs(&[("k", DataType::Int), ("g", DataType::Int)]);
        let mut t = Table::new("t", schema.clone());
        for i in 0..2000i64 {
            t.append(vec![Value::Int(i), Value::Int(i % 20)]);
        }
        c.add_table(t);
        let mut u = Table::new("u", schema);
        for i in 0..200i64 {
            u.append(vec![Value::Int(i), Value::Int(i % 20)]);
        }
        c.add_table(u);
        c
    }

    fn spec() -> QuerySpec {
        QuerySpec::new()
            .join("t", "g", "u", "g")
            .filter("t", col("t.k").lt(lit(500i64)))
    }

    /// One LEO execution of `spec()`, planned through `lie` and `repo`.
    fn run_leo(
        c: &Catalog,
        lie: &EstimatorWrapper<'_>,
        repo: &RefCell<FeedbackRepo>,
        ctx: &ExecContext,
    ) -> Execution {
        let reg = TableStatsRegistry::analyze_catalog(c, 16);
        let inputs = PlanInputs { lie, feedback: Some(repo), ..PlanInputs::new(c, &reg) };
        execute(&spec(), &inputs, ExecutionMode::Leo, ctx).unwrap()
    }

    /// A liar that underestimates t's filter 50×.
    fn lie_about_t(e: Box<dyn rqp_stats::CardEstimator>) -> Box<dyn rqp_stats::CardEstimator> {
        Box::new(LyingEstimator::new(e).with_table_factor("t", 0.02))
    }

    #[test]
    fn observations_cover_scans_and_joins() {
        let c = catalog();
        let repo = RefCell::new(FeedbackRepo::new(1.0));
        let ctx = ExecContext::unbounded();
        let report = run_leo(&c, &|e| e, &repo, &ctx);
        assert_eq!(report.rows.len(), 5000, "500 × 10 matches");
        assert!(report.observations.iter().any(|o| o.signature.is_some()));
        assert!(report.cost > 0.0);
        assert!(!repo.borrow().is_empty());
        // Learned observations leave a telemetry trail.
        let hist = ctx.metrics.histogram("leo.q_error");
        assert!(hist.count() > 0, "every learned node observes its q-error");
    }

    #[test]
    fn misestimates_surface_as_correction_events() {
        let c = catalog();
        let repo = RefCell::new(FeedbackRepo::new(1.0));
        let ctx = ExecContext::unbounded();
        run_leo(&c, &lie_about_t, &repo, &ctx);
        assert!(ctx.metrics.counter("leo.corrections").get() >= 1);
        let events: Vec<_> = ctx
            .tracer
            .snapshot()
            .into_iter()
            .flat_map(|s| s.events)
            .filter(|e| e.kind == "leo.correction")
            .collect();
        assert!(!events.is_empty(), "50x lie must show up as correction events");
        assert!(events.iter().any(|e| e.detail.contains("q ")), "{events:?}");
    }

    #[test]
    fn feedback_corrects_future_estimates() {
        let c = catalog();
        let repo = RefCell::new(FeedbackRepo::new(1.0));
        // LEO should learn the liar's error away.
        let ctx = ExecContext::unbounded();
        let r1 = run_leo(&c, &lie_about_t, &repo, &ctx);
        let q1 = r1.max_q_error();
        let r2 = run_leo(&c, &lie_about_t, &repo, &ctx);
        let q2 = r2.max_q_error();
        assert!(
            q2 < q1 / 2.0,
            "feedback must cut the q-error: epoch1 {q1:.1} epoch2 {q2:.1}"
        );
        assert_eq!(r1.rows.len(), r2.rows.len());
    }

    #[test]
    fn repeated_epochs_converge_near_one() {
        let c = catalog();
        let repo = RefCell::new(FeedbackRepo::new(1.0));
        let ctx = ExecContext::unbounded();
        let mut last_q = f64::INFINITY;
        for _ in 0..4 {
            last_q = run_leo(&c, &lie_about_t, &repo, &ctx).max_q_error();
        }
        assert!(last_q < 2.5, "converged q-error should be small, got {last_q}");
    }
}
