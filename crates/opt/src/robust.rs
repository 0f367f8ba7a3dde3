//! Robust plan selection (Babcock & Chaudhuri, SIGMOD 2005).
//!
//! Instead of costing plans at a single point estimate, the robust optimizer
//! costs every candidate across a set of *selectivity scenarios* (e.g. drawn
//! from a sampling posterior, or q-error-scaled perturbations) and chooses by
//! a conservative statistic: a high percentile of the cost distribution, or
//! its mean (least expected cost, Chu–Halpern–Seshadri). The "robustness
//! knob" is the percentile: 50% ≈ classic optimization, 90% buys insurance
//! against the estimate being wrong.

use crate::physical::PhysicalPlan;
use crate::planner::{plan as plan_query, PlannerConfig};
use crate::query::QuerySpec;
use crate::CostModel;
use rqp_common::{Result, RqpError};
use rqp_stats::{CardEstimator, LyingEstimator};
use rqp_storage::Catalog;

/// How to collapse a candidate's per-scenario cost vector into one score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RobustMode {
    /// Classic: cost under the first scenario only (the point estimate).
    Point,
    /// `p`-th percentile of the scenario costs, `p ∈ (0, 1]`.
    Percentile(f64),
    /// Mean scenario cost (least expected cost).
    LeastExpectedCost,
}

/// The outcome of robust plan selection.
pub struct RobustChoice {
    /// The chosen plan.
    pub plan: PhysicalPlan,
    /// Fingerprint of the plan classic point optimization would pick.
    pub point_fingerprint: String,
    /// Number of distinct candidate plans considered.
    pub candidate_count: usize,
    /// The chosen plan's cost under every scenario.
    pub scenario_costs: Vec<f64>,
    /// The point-optimal plan's cost under every scenario (for comparison).
    pub point_scenario_costs: Vec<f64>,
}

impl RobustChoice {
    /// Did the robust choice differ from the classic one?
    pub fn diverged(&self) -> bool {
        self.plan.fingerprint() != self.point_fingerprint
    }
}

/// Pick a plan for `spec` robustly across `scenarios`.
///
/// `scenarios[0]` is treated as the point estimate. Candidates are the
/// optimal plans under each scenario (deduplicated by fingerprint); each is
/// re-costed under every scenario via [`PhysicalPlan::reestimate`].
pub fn robust_plan(
    spec: &QuerySpec,
    catalog: &Catalog,
    scenarios: &[Box<dyn CardEstimator>],
    cfg: PlannerConfig,
    mode: RobustMode,
) -> Result<RobustChoice> {
    if scenarios.is_empty() {
        return Err(RqpError::Planning("robust_plan needs at least one scenario".into()));
    }
    if let RobustMode::Percentile(p) = mode {
        if !(0.0..=1.0).contains(&p) {
            return Err(RqpError::Invalid(format!("percentile {p} out of (0,1]")));
        }
    }
    let cm = CostModel::with_memory(cfg.memory_rows);

    // Candidate generation: optimal plan per scenario.
    let mut candidates: Vec<PhysicalPlan> = Vec::new();
    for est in scenarios {
        let p = plan_query(spec, catalog, est.as_ref(), cfg)?;
        if !candidates.iter().any(|c| c.fingerprint() == p.fingerprint()) {
            candidates.push(p);
        }
    }
    let point_fingerprint = {
        let p = plan_query(spec, catalog, scenarios[0].as_ref(), cfg)?;
        p.fingerprint()
    };

    // Cost matrix: candidate × scenario.
    let costs: Vec<Vec<f64>> = candidates
        .iter()
        .map(|c| {
            scenarios
                .iter()
                .map(|e| c.reestimate(e.as_ref(), &cm).1)
                .collect()
        })
        .collect();

    let score = |v: &[f64]| -> f64 {
        match mode {
            RobustMode::Point => v[0],
            RobustMode::LeastExpectedCost => v.iter().sum::<f64>() / v.len() as f64,
            RobustMode::Percentile(p) => {
                let mut s = v.to_vec();
                s.sort_by(f64::total_cmp);
                let idx = ((p * (s.len() as f64 - 1.0)).round() as usize).min(s.len() - 1);
                s[idx]
            }
        }
    };

    let best_idx = (0..candidates.len())
        .min_by(|&a, &b| score(&costs[a]).total_cmp(&score(&costs[b])))
        .expect("candidates non-empty");
    let point_idx = candidates
        .iter()
        .position(|c| c.fingerprint() == point_fingerprint)
        .unwrap_or(0);

    Ok(RobustChoice {
        plan: candidates[best_idx].clone(),
        point_fingerprint,
        candidate_count: candidates.len(),
        scenario_costs: costs[best_idx].clone(),
        point_scenario_costs: costs[point_idx].clone(),
    })
}

/// Build scenario estimators by scaling one table's selectivity by each
/// factor (factor 1.0 first = the point estimate).
pub fn scaled_scenarios<E>(
    base: E,
    table: &str,
    factors: &[f64],
) -> Vec<Box<dyn CardEstimator>>
where
    E: CardEstimator + Clone + 'static,
{
    factors
        .iter()
        .map(|&f| {
            Box::new(LyingEstimator::new(Box::new(base.clone())).with_table_factor(table, f))
                as Box<dyn CardEstimator>
        })
        .collect()
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
        let mut big = Table::new("big", schema.clone());
        for i in 0..20_000i64 {
            big.append(vec![Value::Int(i), Value::Int(i % 100)]);
        }
        c.add_table(big);
        let mut small = Table::new("small", schema);
        for i in 0..100i64 {
            small.append(vec![Value::Int(i), Value::Int(i)]);
        }
        c.add_table(small);
        c.create_index("ix_big_k", "big", &["k"]).unwrap();
        c.create_index("ix_small_g", "small", &["g"]).unwrap();
        c
    }

    fn est(c: &Catalog) -> StatsEstimator {
        StatsEstimator::new(Rc::new(TableStatsRegistry::analyze_catalog(c, 32)))
    }

    fn spec() -> QuerySpec {
        QuerySpec::new()
            .join("big", "g", "small", "g")
            .filter("big", col("big.k").lt(lit(200i64)))
    }

    #[test]
    fn point_mode_matches_classic_planner() {
        let c = catalog();
        let scenarios = scaled_scenarios(est(&c), "big", &[1.0, 10.0, 100.0]);
        let choice =
            robust_plan(&spec(), &c, &scenarios, PlannerConfig::default(), RobustMode::Point)
                .unwrap();
        assert_eq!(choice.plan.fingerprint(), choice.point_fingerprint);
        assert!(!choice.diverged());
        assert_eq!(choice.scenario_costs.len(), 3);
    }

    #[test]
    fn percentile_mode_limits_worst_case() {
        let c = catalog();
        // Scenarios: estimate might be 1×, 20×, or 100× the point value.
        let scenarios = scaled_scenarios(est(&c), "big", &[1.0, 20.0, 100.0]);
        let robust = robust_plan(
            &spec(),
            &c,
            &scenarios,
            PlannerConfig::default(),
            RobustMode::Percentile(0.9),
        )
        .unwrap();
        // The robust plan's worst scenario cost must be ≤ the point plan's.
        let worst_robust = robust
            .scenario_costs
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        let worst_point = robust
            .point_scenario_costs
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(
            worst_robust <= worst_point + 1e-9,
            "robust {worst_robust} vs point {worst_point}"
        );
        assert!(robust.candidate_count >= 1);
    }

    #[test]
    fn least_expected_cost_mode() {
        let c = catalog();
        let scenarios = scaled_scenarios(est(&c), "big", &[1.0, 50.0]);
        let choice = robust_plan(
            &spec(),
            &c,
            &scenarios,
            PlannerConfig::default(),
            RobustMode::LeastExpectedCost,
        )
        .unwrap();
        let mean_choice: f64 =
            choice.scenario_costs.iter().sum::<f64>() / choice.scenario_costs.len() as f64;
        let mean_point: f64 = choice.point_scenario_costs.iter().sum::<f64>()
            / choice.point_scenario_costs.len() as f64;
        assert!(mean_choice <= mean_point + 1e-9);
    }

    #[test]
    fn rejects_bad_inputs() {
        let c = catalog();
        assert!(robust_plan(
            &spec(),
            &c,
            &[],
            PlannerConfig::default(),
            RobustMode::Point
        )
        .is_err());
        let scenarios = scaled_scenarios(est(&c), "big", &[1.0]);
        assert!(robust_plan(
            &spec(),
            &c,
            &scenarios,
            PlannerConfig::default(),
            RobustMode::Percentile(1.5)
        )
        .is_err());
    }
}
