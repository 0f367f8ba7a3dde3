//! The what-if index advisor, plain and robustness-aware.
//!
//! Candidates are the columns the workload filters or joins on. Selection is
//! greedy: repeatedly add the candidate with the best marginal *objective*
//! until the budget is exhausted or nothing helps. The objective is
//!
//! ```text
//! benefit − risk_weight · risk + generality_weight · generality
//! ```
//!
//! * **benefit** — workload cost reduction, estimated by re-planning every
//!   query against a hypothetical catalog containing the candidate set
//!   (what-if indexing with real index metadata, built on the spot);
//! * **risk** (Gebaly & Aboulnaga) — the extra cost the configuration incurs
//!   when the optimizer's estimates are wrong: workload cost under
//!   pessimistically scaled selectivities, minus the same under the current
//!   configuration. An unclustered index chosen on an underestimate is the
//!   canonical risky pick;
//! * **generality** — the fraction of *distinct* workload-relevant columns
//!   covered; index sets hyper-specialized to one column score low and
//!   transfer badly to drifted workloads.
//!
//! `risk_weight = generality_weight = 0` recovers the classic advisor.

use rqp_common::{Result, SimplePred};
use rqp_opt::{plan as plan_query, PlannerConfig, QuerySpec};
use rqp_stats::{CardEstimator, LyingEstimator, StatsEstimator, TableStatsRegistry};
use rqp_storage::Catalog;
use std::collections::BTreeSet;
use std::rc::Rc;

/// A candidate single-column index.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct CandidateIndex {
    /// Table name.
    pub table: String,
    /// Column name (unqualified).
    pub column: String,
}

impl CandidateIndex {
    /// Index name used when materialized.
    pub fn name(&self) -> String {
        format!("adv_{}_{}", self.table, self.column)
    }
}

/// Advisor configuration.
#[derive(Debug, Clone, Copy)]
pub struct AdvisorConfig {
    /// Maximum indexes to recommend.
    pub max_indexes: usize,
    /// Weight of the risk term (0 = classic advisor).
    pub risk_weight: f64,
    /// Weight of the generality term (0 = classic advisor).
    pub generality_weight: f64,
    /// Error factor used for the pessimistic risk scenario (selectivities
    /// scaled up by this).
    pub risk_error_factor: f64,
}

impl Default for AdvisorConfig {
    fn default() -> Self {
        AdvisorConfig {
            max_indexes: 3,
            risk_weight: 0.0,
            generality_weight: 0.0,
            risk_error_factor: 20.0,
        }
    }
}

impl AdvisorConfig {
    /// The robustness-aware profile (Multi-Objective Design Advisor).
    pub fn robust(max_indexes: usize) -> Self {
        AdvisorConfig {
            max_indexes,
            risk_weight: 1.0,
            generality_weight: 0.2,
            risk_error_factor: 20.0,
        }
    }
}

/// The advisor's recommendation.
#[derive(Debug, Clone)]
pub struct Advice {
    /// Recommended indexes, in selection order.
    pub indexes: Vec<CandidateIndex>,
    /// Estimated workload cost without any recommended index.
    pub baseline_cost: f64,
    /// Estimated workload cost with the recommendation.
    pub final_cost: f64,
    /// Risk score of the final configuration (pessimistic-scenario cost
    /// increase relative to baseline pessimistic cost; lower is safer).
    pub risk: f64,
    /// Generality score in `[0, 1]`.
    pub generality: f64,
}

impl Advice {
    /// Estimated benefit.
    pub fn benefit(&self) -> f64 {
        self.baseline_cost - self.final_cost
    }

    /// Materialize the recommended indexes into a catalog.
    pub fn apply(&self, catalog: &mut Catalog) -> Result<()> {
        for c in &self.indexes {
            catalog.create_index(c.name(), &c.table, &[&c.column])?;
        }
        Ok(())
    }
}

/// Columns the workload constrains (filters and join keys).
fn candidates(workload: &[QuerySpec], catalog: &Catalog) -> Vec<CandidateIndex> {
    let mut set: BTreeSet<CandidateIndex> = BTreeSet::new();
    for q in workload {
        for (table, pred) in &q.local_preds {
            for c in pred.conjuncts() {
                if let Some(sp) = SimplePred::from_expr(&c) {
                    let col = sp
                        .column()
                        .rsplit_once('.')
                        .map(|(_, c)| c)
                        .unwrap_or(sp.column());
                    set.insert(CandidateIndex {
                        table: table.clone(),
                        column: col.to_owned(),
                    });
                }
            }
        }
        for e in &q.joins {
            set.insert(CandidateIndex {
                table: e.left_table.clone(),
                column: e.left_col.clone(),
            });
            set.insert(CandidateIndex {
                table: e.right_table.clone(),
                column: e.right_col.clone(),
            });
        }
    }
    set.into_iter()
        .filter(|c| {
            catalog.has_table(&c.table) && catalog.index_on(&c.table, &c.column).is_none()
        })
        .collect()
}

/// Estimated workload cost against a catalog configuration.
fn workload_cost(
    workload: &[QuerySpec],
    catalog: &Catalog,
    est: &dyn CardEstimator,
) -> Result<f64> {
    let mut total = 0.0;
    for q in workload {
        let p = plan_query(q, catalog, est, PlannerConfig::default())?;
        total += p.est_cost();
    }
    Ok(total)
}

/// Run the advisor.
pub fn advise(
    catalog: &Catalog,
    registry: &TableStatsRegistry,
    workload: &[QuerySpec],
    cfg: AdvisorConfig,
) -> Result<Advice> {
    let est = StatsEstimator::new(Rc::new(registry.clone()));
    let pessimist = |catalog: &Catalog| -> Result<f64> {
        // Pessimistic scenario: every table's selectivity inflated.
        let mut worst = 0.0f64;
        for t in catalog.table_names() {
            let liar = LyingEstimator::new(Box::new(est.clone()))
                .with_table_factor(&t, cfg.risk_error_factor);
            worst = worst.max(workload_cost(workload, catalog, &liar)?);
        }
        Ok(worst)
    };

    let all_candidates = candidates(workload, catalog);
    let total_columns = all_candidates.len().max(1);
    let mut chosen: Vec<CandidateIndex> = Vec::new();
    let mut current_catalog = catalog.clone();
    let baseline_cost = workload_cost(workload, &current_catalog, &est)?;
    let baseline_pessimist = pessimist(&current_catalog)?;
    let mut current_cost = baseline_cost;

    while chosen.len() < cfg.max_indexes {
        let mut best: Option<(CandidateIndex, f64, f64)> = None; // (cand, objective, new_cost)
        for cand in &all_candidates {
            if chosen.contains(cand) {
                continue;
            }
            let mut what_if = current_catalog.clone();
            what_if.create_index(cand.name(), &cand.table, &[&cand.column])?;
            let cost = workload_cost(workload, &what_if, &est)?;
            let benefit = current_cost - cost;
            let mut objective = benefit;
            if cfg.risk_weight > 0.0 {
                let risk = (pessimist(&what_if)? - baseline_pessimist).max(0.0);
                objective -= cfg.risk_weight * risk;
            }
            if cfg.generality_weight > 0.0 {
                let generality = (chosen.len() + 1) as f64 / total_columns as f64;
                objective += cfg.generality_weight * generality * baseline_cost * 0.01;
            }
            if objective > 1e-9 && best.as_ref().map(|(_, o, _)| objective > *o).unwrap_or(true)
            {
                best = Some((cand.clone(), objective, cost));
            }
        }
        match best {
            Some((cand, _, cost)) => {
                current_catalog.create_index(cand.name(), &cand.table, &[&cand.column])?;
                chosen.push(cand);
                current_cost = cost;
            }
            None => break,
        }
    }

    let final_pessimist = pessimist(&current_catalog)?;
    let risk = if baseline_pessimist > 0.0 {
        ((final_pessimist - baseline_pessimist) / baseline_pessimist).max(0.0)
    } else {
        0.0
    };
    let covered: BTreeSet<&str> = chosen.iter().map(|c| c.column.as_str()).collect();
    let generality = covered.len() as f64 / total_columns as f64;
    Ok(Advice { indexes: chosen, baseline_cost, final_cost: current_cost, risk, generality })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rqp_common::expr::{col, lit};
    use rqp_workload::{TpchDb, tpch::TpchParams};

    fn setup() -> (Catalog, TableStatsRegistry, Vec<QuerySpec>) {
        // Build without indexes so the advisor has work to do.
        let db = TpchDb::build(
            TpchParams { lineitem_rows: 4000, with_indexes: false, ..Default::default() },
            21,
        );
        let reg = TableStatsRegistry::analyze_catalog(&db.catalog, 16);
        // Unclustered index probes cost ~4 units/row vs 1 unit/100-row page
        // for scans, so indexes pay off below ~0.25% selectivity — use
        // narrow ranges, as point-lookup workloads do.
        let workload = vec![
            QuerySpec::new()
                .table("lineitem")
                .filter("lineitem", col("lineitem.shipdate").between(100i64, 103i64)),
            QuerySpec::new()
                .table("lineitem")
                .filter("lineitem", col("lineitem.shipdate").between(900i64, 903i64)),
            QuerySpec::new()
                .table("orders")
                .filter("orders", col("orders.orderdate").lt(lit(2i64))),
        ];
        (db.catalog, reg, workload)
    }

    #[test]
    fn advisor_finds_beneficial_indexes() {
        let (catalog, reg, workload) = setup();
        let advice = advise(&catalog, &reg, &workload, AdvisorConfig::default()).unwrap();
        assert!(!advice.indexes.is_empty());
        assert!(advice.benefit() > 0.0, "indexes must reduce estimated cost");
        assert!(advice.final_cost < advice.baseline_cost);
        // The heavily used shipdate column should be picked first.
        assert_eq!(advice.indexes[0].column, "shipdate");
    }

    #[test]
    fn advice_applies_to_catalog() {
        let (catalog, reg, workload) = setup();
        let advice = advise(&catalog, &reg, &workload, AdvisorConfig::default()).unwrap();
        let mut c = catalog.clone();
        advice.apply(&mut c).unwrap();
        for ix in &advice.indexes {
            assert!(c.index_on(&ix.table, &ix.column).is_some());
        }
    }

    #[test]
    fn budget_limits_recommendations() {
        let (catalog, reg, workload) = setup();
        let cfg = AdvisorConfig { max_indexes: 1, ..Default::default() };
        let advice = advise(&catalog, &reg, &workload, cfg).unwrap();
        assert!(advice.indexes.len() <= 1);
    }

    #[test]
    fn robust_advisor_has_bounded_risk() {
        let (catalog, reg, workload) = setup();
        let plain = advise(&catalog, &reg, &workload, AdvisorConfig::default()).unwrap();
        let robust =
            advise(&catalog, &reg, &workload, AdvisorConfig::robust(3)).unwrap();
        assert!(
            robust.risk <= plain.risk + 1e-9,
            "robust advisor must not pick riskier sets: {} vs {}",
            robust.risk,
            plain.risk
        );
        assert!((0.0..=1.0).contains(&robust.generality));
    }

    #[test]
    fn empty_workload_recommends_nothing() {
        let (catalog, reg, _) = setup();
        let advice = advise(&catalog, &reg, &[], AdvisorConfig::default()).unwrap();
        assert!(advice.indexes.is_empty());
        assert_eq!(advice.benefit(), 0.0);
    }

    #[test]
    fn existing_indexes_not_recommended() {
        let (mut catalog, reg, workload) = setup();
        catalog
            .create_index("ix_shipdate", "lineitem", &["shipdate"])
            .unwrap();
        let advice = advise(&catalog, &reg, &workload, AdvisorConfig::default()).unwrap();
        assert!(advice
            .indexes
            .iter()
            .all(|c| !(c.table == "lineitem" && c.column == "shipdate")));
    }
}
