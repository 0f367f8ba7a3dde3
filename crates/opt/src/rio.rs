//! Rio: proactive re-optimization (Babu, Bizarro & DeWitt, SIGMOD 2005).
//!
//! Rio classifies each uncertain estimate into one of six *uncertainty
//! levels* derived from how the estimate was computed (exact value → no
//! uncertainty; stale histogram under correlation → very high). The level
//! maps to a **bounding box** around the point estimate; the optimizer plans
//! at the box's corners, and:
//!
//! * if all corners pick the same plan → that plan is **robust** inside the
//!   box, no runtime machinery needed;
//! * otherwise the corner plans form a **switchable set**; Rio prefers plans
//!   that remain near-optimal across the box, accepting a small premium at
//!   the point estimate in exchange for insurance at the corners.

use crate::physical::PhysicalPlan;
use crate::planner::{plan as plan_query, PlannerConfig};
use crate::query::QuerySpec;
use crate::CostModel;
use rqp_common::{Result, RqpError};
use rqp_stats::{CardEstimator, LyingEstimator};
use rqp_storage::Catalog;

/// Rio's uncertainty taxonomy (derivation-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum UncertaintyLevel {
    /// Exact knowledge (e.g. key lookup on a unique column).
    None,
    /// Fresh single-column statistics, no correlation involved.
    Low,
    /// Stale statistics or minor extrapolation.
    Moderate,
    /// Independence assumption across predicates.
    High,
    /// Correlation known to exist but unmodelled.
    VeryHigh,
    /// Guess (no statistics at all, complex expressions).
    Extreme,
}

impl UncertaintyLevel {
    /// The bounding-box half-width as a multiplicative factor: the true
    /// cardinality is assumed within `[est / f, est * f]`.
    pub fn box_factor(&self) -> f64 {
        match self {
            UncertaintyLevel::None => 1.0,
            UncertaintyLevel::Low => 1.5,
            UncertaintyLevel::Moderate => 3.0,
            UncertaintyLevel::High => 8.0,
            UncertaintyLevel::VeryHigh => 25.0,
            UncertaintyLevel::Extreme => 100.0,
        }
    }

    /// All levels, in increasing order.
    pub fn all() -> [UncertaintyLevel; 6] {
        [
            UncertaintyLevel::None,
            UncertaintyLevel::Low,
            UncertaintyLevel::Moderate,
            UncertaintyLevel::High,
            UncertaintyLevel::VeryHigh,
            UncertaintyLevel::Extreme,
        ]
    }
}

/// Rio's verdict for a query under a given uncertainty box.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RioRobustness {
    /// Same plan optimal at every corner: provably robust inside the box.
    Robust,
    /// Corner plans differ: a switchable set is needed.
    Switchable,
}

/// The analysis result.
pub struct RioAnalysis {
    /// Verdict.
    pub robustness: RioRobustness,
    /// The plan Rio recommends executing.
    pub chosen: PhysicalPlan,
    /// Distinct corner-plan fingerprints (1 ⇒ robust).
    pub corner_fingerprints: Vec<String>,
    /// Chosen plan's cost at (low corner, point, high corner).
    pub chosen_corner_costs: (f64, f64, f64),
    /// Point-optimal plan's cost at the same three points.
    pub point_corner_costs: (f64, f64, f64),
}

impl RioAnalysis {
    /// Analyze `spec` with the estimate of `table`'s cardinality carrying
    /// `level` uncertainty.
    pub fn analyze<E>(
        spec: &QuerySpec,
        catalog: &Catalog,
        base: E,
        cfg: PlannerConfig,
        table: &str,
        level: UncertaintyLevel,
    ) -> Result<Self>
    where
        E: CardEstimator + Clone + 'static,
    {
        let f = level.box_factor();
        let cm = CostModel::with_memory(cfg.memory_rows);
        let corners = [1.0 / f, 1.0, f];
        let scenario = |factor: f64| -> Box<dyn CardEstimator> {
            Box::new(LyingEstimator::new(Box::new(base.clone())).with_table_factor(table, factor))
        };

        // Plan at each corner.
        let mut corner_plans = Vec::with_capacity(3);
        for &c in &corners {
            corner_plans.push(plan_query(spec, catalog, scenario(c).as_ref(), cfg)?);
        }
        let mut corner_fingerprints: Vec<String> =
            corner_plans.iter().map(|p| p.fingerprint()).collect();
        corner_fingerprints.sort();
        corner_fingerprints.dedup();

        let point_plan = corner_plans[1].clone();
        let costs_at = |p: &PhysicalPlan| -> (f64, f64, f64) {
            (
                p.reestimate(scenario(corners[0]).as_ref(), &cm).1,
                p.reestimate(scenario(corners[1]).as_ref(), &cm).1,
                p.reestimate(scenario(corners[2]).as_ref(), &cm).1,
            )
        };

        if corner_fingerprints.len() == 1 {
            let costs = costs_at(&point_plan);
            return Ok(RioAnalysis {
                robustness: RioRobustness::Robust,
                chosen: point_plan.clone(),
                corner_fingerprints,
                chosen_corner_costs: costs,
                point_corner_costs: costs,
            });
        }

        // Switchable: pick the corner plan minimizing the worst corner cost.
        let mut best: Option<(usize, f64)> = None;
        for (i, p) in corner_plans.iter().enumerate() {
            let (a, b, c) = costs_at(p);
            let worst = a.max(b).max(c);
            if best.map(|(_, w)| worst < w).unwrap_or(true) {
                best = Some((i, worst));
            }
        }
        let (idx, _) = best.ok_or_else(|| RqpError::Planning("no corner plans".into()))?;
        let chosen = corner_plans[idx].clone();
        Ok(RioAnalysis {
            robustness: RioRobustness::Switchable,
            chosen_corner_costs: costs_at(&chosen),
            point_corner_costs: costs_at(&point_plan),
            chosen,
            corner_fingerprints,
        })
    }
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
        for i in 0..20_000i64 {
            r.append(vec![Value::Int(i), Value::Int(i % 200)]);
        }
        c.add_table(r);
        let mut s = Table::new("s", schema);
        for i in 0..2_000i64 {
            s.append(vec![Value::Int(i), Value::Int(i % 200)]);
        }
        c.add_table(s);
        c.create_index("ix_s_g", "s", &["g"]).unwrap();
        c
    }

    fn est(c: &Catalog) -> StatsEstimator {
        StatsEstimator::new(Rc::new(TableStatsRegistry::analyze_catalog(c, 16)))
    }

    #[test]
    fn box_factors_monotone() {
        let all = UncertaintyLevel::all();
        for w in all.windows(2) {
            assert!(w[0].box_factor() <= w[1].box_factor());
        }
        assert_eq!(UncertaintyLevel::None.box_factor(), 1.0);
    }

    #[test]
    fn zero_uncertainty_is_robust() {
        let c = catalog();
        let spec = QuerySpec::new()
            .join("r", "g", "s", "g")
            .filter("r", col("r.k").lt(lit(500i64)));
        let a = RioAnalysis::analyze(
            &spec,
            &c,
            est(&c),
            PlannerConfig::default(),
            "r",
            UncertaintyLevel::None,
        )
        .unwrap();
        assert_eq!(a.robustness, RioRobustness::Robust);
        assert_eq!(a.corner_fingerprints.len(), 1);
    }

    #[test]
    fn extreme_uncertainty_on_cliff_query_is_switchable() {
        let c = catalog();
        // Selective filter: at 1× INL wins, at ×100 a hash join wins.
        let spec = QuerySpec::new()
            .join("r", "g", "s", "g")
            .filter("r", col("r.k").lt(lit(50i64)));
        let a = RioAnalysis::analyze(
            &spec,
            &c,
            est(&c),
            PlannerConfig::default(),
            "r",
            UncertaintyLevel::Extreme,
        )
        .unwrap();
        assert_eq!(a.robustness, RioRobustness::Switchable);
        assert!(a.corner_fingerprints.len() >= 2);
        // The chosen plan's worst corner must beat the point plan's worst.
        let worst = |t: (f64, f64, f64)| t.0.max(t.1).max(t.2);
        assert!(worst(a.chosen_corner_costs) <= worst(a.point_corner_costs) + 1e-9);
    }

    #[test]
    fn switchable_choice_accepts_bounded_point_premium() {
        let c = catalog();
        let spec = QuerySpec::new()
            .join("r", "g", "s", "g")
            .filter("r", col("r.k").lt(lit(50i64)));
        let a = RioAnalysis::analyze(
            &spec,
            &c,
            est(&c),
            PlannerConfig::default(),
            "r",
            UncertaintyLevel::VeryHigh,
        )
        .unwrap();
        if a.robustness == RioRobustness::Switchable {
            // The robust choice may cost more at the point estimate — but
            // the premium is what buys the corner insurance. Record both.
            assert!(a.chosen_corner_costs.1 > 0.0 && a.point_corner_costs.1 > 0.0);
        }
    }
}
