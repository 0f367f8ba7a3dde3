//! Advisor-robustness evaluation under workload drift.
//!
//! The protocol from "Evaluating the robustness of a physical database
//! design advisor" (Graefe, Ailamaki, Ewen, Nica, Wrembel): tune a physical
//! design on workload `W0`, then run modified-but-pattern-preserving
//! workloads `W1..Wn` against the *same* design and compare their total
//! times `T1..Tn` to `T0`. "The maximum difference between the times is
//! treated as a parameter" — the advisor's robustness score.

use crate::advisor::Advice;
use rqp_common::Result;
use rqp_exec::ExecContext;
use rqp_opt::{plan as plan_query, PlannerConfig, QuerySpec};
use rqp_stats::CardEstimator;
use rqp_storage::Catalog;

/// The evaluation result.
#[derive(Debug, Clone)]
pub struct DriftReport {
    /// `T0`: executed cost of the training workload on the tuned design.
    pub t0: f64,
    /// `T1..Tn` for the drifted workloads.
    pub drifted: Vec<f64>,
}

impl DriftReport {
    /// The robustness parameter: `max_i |Ti − T0| / T0`.
    pub fn max_relative_difference(&self) -> f64 {
        if self.t0 <= 0.0 {
            return 0.0;
        }
        self.drifted
            .iter()
            .map(|t| (t - self.t0).abs() / self.t0)
            .fold(0.0, f64::max)
    }
}

/// Execute a workload against a catalog, returning total cost.
fn execute_workload(
    workload: &[QuerySpec],
    catalog: &Catalog,
    est: &dyn CardEstimator,
) -> Result<f64> {
    let ctx = ExecContext::unbounded();
    for q in workload {
        let p = plan_query(q, catalog, est, PlannerConfig::default())?;
        p.build(catalog, &ctx, None)?.run();
    }
    Ok(ctx.clock.now())
}

/// Apply `advice` to a copy of `catalog` and execute the training workload
/// plus each drifted workload against it.
pub fn evaluate_advice(
    catalog: &Catalog,
    est: &dyn CardEstimator,
    advice: &Advice,
    training: &[QuerySpec],
    drifted: &[Vec<QuerySpec>],
) -> Result<DriftReport> {
    let mut tuned = catalog.clone();
    advice.apply(&mut tuned)?;
    let t0 = execute_workload(training, &tuned, est)?;
    let mut ts = Vec::with_capacity(drifted.len());
    for w in drifted {
        ts.push(execute_workload(w, &tuned, est)?);
    }
    Ok(DriftReport { t0, drifted: ts })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::advisor::{advise, AdvisorConfig};
    use rqp_common::expr::col;
    use rqp_stats::{StatsEstimator, TableStatsRegistry};
    use rqp_workload::{tpch::TpchParams, TpchDb};
    use std::rc::Rc;

    fn range_workload(lo: i64, width: i64, n: usize) -> Vec<QuerySpec> {
        (0..n as i64)
            .map(|i| {
                QuerySpec::new().table("lineitem").filter(
                    "lineitem",
                    col("lineitem.shipdate").between(lo + i * 50, lo + i * 50 + width),
                )
            })
            .collect()
    }

    #[test]
    fn similar_drift_stays_close_to_t0() {
        let db = TpchDb::build(
            TpchParams { lineitem_rows: 4000, with_indexes: false, ..Default::default() },
            33,
        );
        let reg = TableStatsRegistry::analyze_catalog(&db.catalog, 16);
        let est = StatsEstimator::new(Rc::new(reg.clone()));
        let training = range_workload(100, 3, 4);
        let advice = advise(&db.catalog, &reg, &training, AdvisorConfig::default()).unwrap();
        // Drift 1: same pattern, shifted constants — index still applies.
        let similar = range_workload(600, 3, 4);
        // Drift 2: much wider ranges — the index degrades toward scans.
        let hostile = range_workload(100, 1500, 4);
        let drifted: Vec<Vec<QuerySpec>> = vec![similar, hostile];
        let report =
            evaluate_advice(&db.catalog, &est, &advice, &training, &drifted).unwrap();
        assert_eq!(report.drifted.len(), 2);
        let similar_rel = (report.drifted[0] - report.t0).abs() / report.t0;
        let hostile_rel = (report.drifted[1] - report.t0).abs() / report.t0;
        assert!(
            similar_rel < hostile_rel,
            "pattern-preserving drift ({similar_rel:.2}) must hurt less than \
             hostile drift ({hostile_rel:.2})"
        );
        assert!(report.max_relative_difference() >= hostile_rel - 1e-9);
    }

    #[test]
    fn empty_drift_report() {
        let r = DriftReport { t0: 100.0, drifted: vec![] };
        assert_eq!(r.max_relative_difference(), 0.0);
        let r = DriftReport { t0: 0.0, drifted: vec![5.0] };
        assert_eq!(r.max_relative_difference(), 0.0);
    }
}
