//! Plan diagrams and anorexic reduction
//! (Reddy & Haritsa, VLDB 2005; Harish, Darera & Haritsa, PVLDB 2008).
//!
//! A **plan diagram** colors a 2-D selectivity grid by the plan the optimizer
//! picks at each point; production optimizers produce dozens of plans over
//! such grids, most covering slivers of the space. **Anorexic reduction**
//! swallows plans into neighbours whose cost at every swallowed point stays
//! within `(1 + λ)` of the original — the Harish et al. result is that λ =
//! 20% collapses diagrams to ~10 plans or fewer, and the retained plans are
//! intrinsically more robust to selectivity estimation error. Experiment E10
//! reproduces the reduction-vs-λ curve.

use crate::physical::PhysicalPlan;
use crate::planner::{plan as plan_query, PlannerConfig};
use crate::query::QuerySpec;
use crate::CostModel;
use rqp_common::{Expr, Result, RqpError};
use rqp_stats::CardEstimator;
use rqp_storage::Catalog;
use std::collections::HashMap;

/// Overrides the *local-predicate selectivity* of chosen tables, leaving
/// everything else to the inner estimator. This is how the diagram axes
/// become exogenous knobs.
pub struct SelectivityOverrideEstimator<'a> {
    inner: &'a dyn CardEstimator,
    overrides: HashMap<String, f64>,
}

impl<'a> SelectivityOverrideEstimator<'a> {
    /// Wrap `inner`, pinning each `(table, selectivity)` pair.
    pub fn new(inner: &'a dyn CardEstimator, overrides: &[(&str, f64)]) -> Self {
        SelectivityOverrideEstimator {
            inner,
            overrides: overrides
                .iter()
                .map(|(t, s)| ((*t).to_owned(), s.clamp(0.0, 1.0)))
                .collect(),
        }
    }
}

impl CardEstimator for SelectivityOverrideEstimator<'_> {
    fn table_rows(&self, table: &str) -> f64 {
        self.inner.table_rows(table)
    }

    fn selectivity(&self, table: &str, pred: &Expr) -> f64 {
        match self.overrides.get(table) {
            Some(&s) => s,
            None => self.inner.selectivity(table, pred),
        }
    }

    fn join_selectivity(&self, lt: &str, lc: &str, rt: &str, rc: &str) -> f64 {
        self.inner.join_selectivity(lt, lc, rt, rc)
    }
}

/// A 2-D plan diagram over selectivity axes `(x_table, y_table)`.
pub struct PlanDiagram {
    /// Axis selectivity values (same for x and y by construction).
    pub grid: Vec<f64>,
    /// `assignment[y][x]` = index into `plans`.
    pub assignment: Vec<Vec<usize>>,
    /// Distinct plans, by first appearance.
    pub plans: Vec<PhysicalPlan>,
    /// `costs[plan][y][x]` = plan's estimated cost at that grid point.
    pub costs: Vec<Vec<Vec<f64>>>,
}

impl PlanDiagram {
    /// Generate a diagram for `spec`, varying the local-predicate
    /// selectivities of `x_table` and `y_table` over `grid` (each in (0,1]).
    pub fn generate(
        spec: &QuerySpec,
        catalog: &Catalog,
        base: &dyn CardEstimator,
        cfg: PlannerConfig,
        x_table: &str,
        y_table: &str,
        grid: &[f64],
    ) -> Result<Self> {
        if grid.is_empty() {
            return Err(RqpError::Invalid("empty selectivity grid".into()));
        }
        let cm = CostModel::with_memory(cfg.memory_rows);
        let mut plans: Vec<PhysicalPlan> = Vec::new();
        let mut finger_to_id: HashMap<String, usize> = HashMap::new();
        let mut assignment = vec![vec![0usize; grid.len()]; grid.len()];
        for (yi, &sy) in grid.iter().enumerate() {
            for (xi, &sx) in grid.iter().enumerate() {
                let est =
                    SelectivityOverrideEstimator::new(base, &[(x_table, sx), (y_table, sy)]);
                let p = plan_query(spec, catalog, &est, cfg)?;
                let fp = p.fingerprint();
                let id = *finger_to_id.entry(fp).or_insert_with(|| {
                    plans.push(p);
                    plans.len() - 1
                });
                assignment[yi][xi] = id;
            }
        }
        // Cost matrix: every plan at every point.
        let mut costs = vec![vec![vec![0.0; grid.len()]; grid.len()]; plans.len()];
        for (pid, p) in plans.iter().enumerate() {
            for (yi, &sy) in grid.iter().enumerate() {
                for (xi, &sx) in grid.iter().enumerate() {
                    let est = SelectivityOverrideEstimator::new(
                        base,
                        &[(x_table, sx), (y_table, sy)],
                    );
                    costs[pid][yi][xi] = p.reestimate(&est, &cm).1;
                }
            }
        }
        Ok(PlanDiagram { grid: grid.to_vec(), assignment, plans, costs })
    }

    /// Number of distinct plans in the diagram.
    pub fn plan_count(&self) -> usize {
        self.plans.len()
    }

    /// Area (grid-point count) of each plan.
    pub fn areas(&self) -> Vec<usize> {
        let mut areas = vec![0usize; self.plans.len()];
        for row in &self.assignment {
            for &id in row {
                areas[id] += 1;
            }
        }
        areas
    }

    /// ASCII rendering: one letter per plan.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for row in self.assignment.iter().rev() {
            for &id in row {
                let c = (b'A' + (id % 26) as u8) as char;
                out.push(c);
            }
            out.push('\n');
        }
        out
    }
}

/// The result of anorexic reduction.
pub struct AnorexicReduction {
    /// New assignment (indices into the original diagram's `plans`).
    pub assignment: Vec<Vec<usize>>,
    /// Plans retained.
    pub retained: Vec<usize>,
    /// Worst cost inflation introduced at any reassigned point.
    pub max_inflation: f64,
}

impl AnorexicReduction {
    /// Swallow plans greedily: smallest-area plans first, each absorbed by
    /// the retained plan that covers all its points within `(1 + lambda)`
    /// of the point-optimal cost, if any.
    pub fn reduce(diagram: &PlanDiagram, lambda: f64) -> Self {
        let n = diagram.plans.len();
        let mut order: Vec<usize> = (0..n).collect();
        let areas = diagram.areas();
        order.sort_by_key(|&p| areas[p]);

        let mut replacement: Vec<usize> = (0..n).collect();
        let mut retained: Vec<bool> = vec![true; n];
        let g = diagram.grid.len();

        // Points owned by each plan.
        let mut points: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
        for yi in 0..g {
            for xi in 0..g {
                points[diagram.assignment[yi][xi]].push((yi, xi));
            }
        }

        let mut max_inflation: f64 = 1.0;
        for &victim in &order {
            if points[victim].is_empty() {
                continue;
            }
            // Try every other retained plan as the swallower, preferring the
            // one with the least worst-case inflation.
            let mut best: Option<(usize, f64)> = None;
            #[allow(clippy::needless_range_loop)]
            for cand in 0..n {
                if cand == victim || !retained[cand] {
                    continue;
                }
                let mut worst: f64 = 1.0;
                let mut ok = true;
                for &(yi, xi) in &points[victim] {
                    let opt = diagram.costs[victim][yi][xi];
                    let alt = diagram.costs[cand][yi][xi];
                    if opt <= 0.0 {
                        ok = false;
                        break;
                    }
                    let infl = alt / opt;
                    if infl > 1.0 + lambda {
                        ok = false;
                        break;
                    }
                    worst = worst.max(infl);
                }
                if ok && best.map(|(_, w)| worst < w).unwrap_or(true) {
                    best = Some((cand, worst));
                }
            }
            if let Some((cand, worst)) = best {
                // Move victim's points to cand.
                let moved = std::mem::take(&mut points[victim]);
                points[cand].extend(moved);
                retained[victim] = false;
                replacement[victim] = cand;
                max_inflation = max_inflation.max(worst);
            }
        }

        // Resolve chains (a swallowed by b swallowed by c).
        let resolve = |mut p: usize| -> usize {
            let mut seen = 0;
            while replacement[p] != p && seen < n {
                p = replacement[p];
                seen += 1;
            }
            p
        };
        let mut assignment = diagram.assignment.clone();
        for row in &mut assignment {
            for id in row.iter_mut() {
                *id = resolve(*id);
            }
        }
        let retained_ids: Vec<usize> =
            (0..n).filter(|&p| retained[p] && areas[p] > 0 || {
                // keep plans that ended up owning points after chains
                assignment.iter().flatten().any(|&id| id == p)
            }).collect();
        AnorexicReduction { assignment, retained: retained_ids, max_inflation }
    }

    /// Number of plans after reduction.
    pub fn plan_count(&self) -> usize {
        let mut ids: Vec<usize> = self.assignment.iter().flatten().copied().collect();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
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
        for (name, n) in [("r", 10_000i64), ("s", 2_000i64)] {
            let schema = Schema::from_pairs(&[("k", DataType::Int), ("v", DataType::Int)]);
            let mut t = Table::new(name, schema);
            for i in 0..n {
                t.append(vec![Value::Int(i % 500), Value::Int(i)]);
            }
            c.add_table(t);
        }
        c.create_index("ix_r_v", "r", &["v"]).unwrap();
        c.create_index("ix_s_v", "s", &["v"]).unwrap();
        c.create_index("ix_s_k", "s", &["k"]).unwrap();
        c
    }

    fn spec() -> QuerySpec {
        QuerySpec::new()
            .join("r", "k", "s", "k")
            .filter("r", col("r.v").lt(lit(100i64)))
            .filter("s", col("s.v").lt(lit(100i64)))
    }

    fn grid() -> Vec<f64> {
        (1..=8).map(|i| (i as f64 / 8.0).powi(3).max(1e-4)).collect()
    }

    #[test]
    fn diagram_has_multiple_plans() {
        let c = catalog();
        let reg = Rc::new(TableStatsRegistry::analyze_catalog(&c, 16));
        let est = StatsEstimator::new(reg);
        let d = PlanDiagram::generate(
            &spec(),
            &c,
            &est,
            PlannerConfig::default(),
            "r",
            "s",
            &grid(),
        )
        .unwrap();
        assert!(
            d.plan_count() >= 2,
            "selectivity extremes should flip plans, got {}\n{}",
            d.plan_count(),
            d.render()
        );
        assert_eq!(d.areas().iter().sum::<usize>(), grid().len() * grid().len());
    }

    #[test]
    fn override_estimator_pins_selectivity() {
        let c = catalog();
        let reg = Rc::new(TableStatsRegistry::analyze_catalog(&c, 16));
        let est = StatsEstimator::new(reg);
        let over = SelectivityOverrideEstimator::new(&est, &[("r", 0.42)]);
        let sel = over.selectivity("r", &col("r.v").lt(lit(1i64)));
        assert!((sel - 0.42).abs() < 1e-12);
        // Non-overridden table passes through.
        let sel_s = over.selectivity("s", &col("s.v").lt(lit(100i64)));
        assert!(sel_s < 0.2);
    }

    #[test]
    fn anorexic_reduction_shrinks_plan_count() {
        let c = catalog();
        let reg = Rc::new(TableStatsRegistry::analyze_catalog(&c, 16));
        let est = StatsEstimator::new(reg);
        let d = PlanDiagram::generate(
            &spec(),
            &c,
            &est,
            PlannerConfig::default(),
            "r",
            "s",
            &grid(),
        )
        .unwrap();
        let before = d.plan_count();
        let red = AnorexicReduction::reduce(&d, 0.2);
        let after = red.plan_count();
        assert!(after <= before);
        assert!(red.max_inflation <= 1.2 + 1e-9, "λ bound respected");
        // λ=0 cannot increase cost at all: only exact-cost swallows.
        let red0 = AnorexicReduction::reduce(&d, 0.0);
        assert!(red0.max_inflation <= 1.0 + 1e-9);
        // Monotone: larger λ swallows at least as much.
        let red_big = AnorexicReduction::reduce(&d, 2.0);
        assert!(red_big.plan_count() <= after);
    }

    #[test]
    fn reduction_preserves_cover() {
        let c = catalog();
        let reg = Rc::new(TableStatsRegistry::analyze_catalog(&c, 16));
        let est = StatsEstimator::new(reg);
        let d = PlanDiagram::generate(
            &spec(),
            &c,
            &est,
            PlannerConfig::default(),
            "r",
            "s",
            &grid(),
        )
        .unwrap();
        let red = AnorexicReduction::reduce(&d, 0.5);
        let g = d.grid.len();
        for yi in 0..g {
            for xi in 0..g {
                let new_id = red.assignment[yi][xi];
                let old_id = d.assignment[yi][xi];
                let infl = d.costs[new_id][yi][xi] / d.costs[old_id][yi][xi];
                assert!(infl <= 1.5 + 1e-9, "cover violated: {infl}");
            }
        }
    }

    #[test]
    fn rejects_empty_grid() {
        let c = catalog();
        let reg = Rc::new(TableStatsRegistry::analyze_catalog(&c, 16));
        let est = StatsEstimator::new(reg);
        assert!(PlanDiagram::generate(
            &spec(),
            &c,
            &est,
            PlannerConfig::default(),
            "r",
            "s",
            &[]
        )
        .is_err());
    }
}
