//! Validity ranges for POP checkpoints (Markl et al., SIGMOD 2004).
//!
//! The validity range of a plan with respect to one input's cardinality is
//! the interval within which the plan remains (near-)optimal. POP plants a
//! CHECK with this interval at the corresponding materialization point; an
//! actual cardinality escaping the interval triggers re-optimization.
//!
//! Exact ranges require parametric reasoning over the plan space; like the
//! paper, we compute them numerically: sweep a scaling factor over the
//! table's filtered cardinality (log-spaced), re-plan at each point, and
//! find the maximal contiguous interval around factor 1.0 where the chosen
//! plan's cost stays within `(1 + slack)` of the re-planned optimum.

use crate::physical::PhysicalPlan;
use crate::planner::{plan as plan_query, PlannerConfig};
use crate::query::QuerySpec;
use crate::CostModel;
use rqp_common::Result;
use rqp_stats::{CardEstimator, LyingEstimator};
use rqp_storage::Catalog;

/// Compute the validity range (in output *rows* of `table`'s filtered scan)
/// for `plan` with respect to `table`'s cardinality.
///
/// Returns `(lo_rows, hi_rows)`. `slack` is the tolerated cost degradation
/// (e.g. 0.2); `steps` factors are probed on each side per decade across
/// `decades` orders of magnitude.
#[allow(clippy::too_many_arguments)]
pub fn validity_range<E>(
    spec: &QuerySpec,
    catalog: &Catalog,
    base: E,
    cfg: PlannerConfig,
    plan: &PhysicalPlan,
    table: &str,
    slack: f64,
    decades: u32,
    steps_per_decade: u32,
) -> Result<(f64, f64)>
where
    E: CardEstimator + Clone + 'static,
{
    let cm = CostModel::with_memory(cfg.memory_rows);
    let est_rows_at = |factor: f64| -> f64 {
        let e = LyingEstimator::new(Box::new(base.clone())).with_table_factor(table, factor);
        let pred = spec.local_pred(table);
        e.filtered_rows(table, &pred)
    };

    let valid_at = |factor: f64| -> Result<bool> {
        let e = LyingEstimator::new(Box::new(base.clone())).with_table_factor(table, factor);
        let chosen_cost = plan.reestimate(&e, &cm).1;
        let optimal = plan_query(spec, catalog, &e, cfg)?;
        let optimal_cost = optimal.reestimate(&e, &cm).1;
        Ok(chosen_cost <= optimal_cost * (1.0 + slack) + 1e-9)
    };

    // Sweep up from 1.0.
    let steps = (decades * steps_per_decade) as i32;
    let step_factor = 10f64.powf(1.0 / steps_per_decade as f64);
    let mut hi_factor = 1.0;
    for i in 1..=steps {
        let f = step_factor.powi(i);
        if valid_at(f)? {
            hi_factor = f;
        } else {
            break;
        }
    }
    let mut lo_factor = 1.0;
    for i in 1..=steps {
        let f = step_factor.powi(-i);
        if valid_at(f)? {
            lo_factor = f;
        } else {
            break;
        }
    }
    Ok((est_rows_at(lo_factor), est_rows_at(hi_factor)))
}

/// Simple threshold validity range: `[est/theta, est*theta]`. This is the
/// pragmatic check most systems implement; POP's evaluation uses it when
/// exact ranges are too expensive. Used as the default by the POP driver.
pub fn threshold_range(est_rows: f64, theta: f64) -> (f64, f64) {
    assert!(theta >= 1.0, "theta must be ≥ 1");
    ((est_rows / theta).max(0.0), est_rows * theta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rqp_common::expr::{col, lit};
    use rqp_common::{DataType, Schema, Value};
    use rqp_stats::{StatsEstimator, TableStatsRegistry};
    use rqp_storage::Table;
    use std::rc::Rc;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let schema = Schema::from_pairs(&[("k", DataType::Int), ("g", DataType::Int)]);
        let mut r = Table::new("r", schema.clone());
        for i in 0..10_000i64 {
            r.append(vec![Value::Int(i), Value::Int(i % 100)]);
        }
        c.add_table(r);
        let mut s = Table::new("s", schema);
        for i in 0..1_000i64 {
            s.append(vec![Value::Int(i), Value::Int(i % 100)]);
        }
        c.add_table(s);
        c.create_index("ix_s_g", "s", &["g"]).unwrap();
        c
    }

    #[test]
    fn threshold_range_brackets_estimate() {
        let (lo, hi) = threshold_range(100.0, 4.0);
        assert_eq!(lo, 25.0);
        assert_eq!(hi, 400.0);
        assert!(lo <= 100.0 && 100.0 <= hi);
    }

    #[test]
    #[should_panic(expected = "theta")]
    fn threshold_range_rejects_theta_below_one() {
        threshold_range(10.0, 0.5);
    }

    #[test]
    fn validity_range_contains_estimate() {
        let c = catalog();
        let est = StatsEstimator::new(Rc::new(TableStatsRegistry::analyze_catalog(&c, 16)));
        let spec = QuerySpec::new()
            .join("r", "g", "s", "g")
            .filter("r", col("r.k").lt(lit(100i64)));
        let plan = plan_query(&spec, &c, &est, PlannerConfig::default()).unwrap();
        let est_rows = est.filtered_rows("r", &spec.local_pred("r"));
        let (lo, hi) = validity_range(
            &spec,
            &c,
            est.clone(),
            PlannerConfig::default(),
            &plan,
            "r",
            0.2,
            3,
            4,
        )
        .unwrap();
        assert!(lo <= est_rows && est_rows <= hi, "[{lo},{hi}] ∋ {est_rows}");
        assert!(lo < hi);
    }

    #[test]
    fn validity_range_is_bounded_when_plans_flip() {
        let c = catalog();
        let est = StatsEstimator::new(Rc::new(TableStatsRegistry::analyze_catalog(&c, 16)));
        // Very selective filter: the optimal plan at 1× (INL into s) should
        // stop being optimal when r's cardinality is inflated 100–1000×.
        let spec = QuerySpec::new()
            .join("r", "g", "s", "g")
            .filter("r", col("r.k").lt(lit(20i64)));
        let plan = plan_query(&spec, &c, &est, PlannerConfig::default()).unwrap();
        let (lo, hi) = validity_range(
            &spec,
            &c,
            est.clone(),
            PlannerConfig::default(),
            &plan,
            "r",
            0.2,
            4,
            4,
        )
        .unwrap();
        let est_rows = est.filtered_rows("r", &spec.local_pred("r"));
        // Upper bound must not be the full sweep limit (10^4×): the plan
        // flips somewhere.
        assert!(
            hi < est_rows * 9_000.0,
            "expected a finite validity ceiling, got {hi} (est {est_rows})"
        );
        assert!(lo > 0.0);
    }
}
