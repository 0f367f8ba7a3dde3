//! Dynamic-programming plan enumeration.
//!
//! A System-R style DPsize enumerator over connected table subsets, with
//! per-table access-path selection (scan vs index range scan) and a
//! configurable join repertoire (hash / sort-merge / index-nested-loop /
//! g-join). Left-deep by default; bushy on request. Every candidate node is
//! priced by the one costing walk step (`CostModel::priced`) on the
//! estimator's counts, so every join algorithm over the same inputs is costed
//! against the same cardinality, and [`PhysicalPlan::reestimate`] under the
//! planning estimator returns the planner's own estimates bit for bit.

use crate::cost::{CostModel, Estimated};
use crate::physical::{join_rows, PhysicalPlan};
use crate::query::{JoinEdge, QuerySpec};
use rqp_common::{Amounts, CmpOp, Expr, Result, RqpError, SimplePred, Value};
use rqp_stats::CardEstimator;
use rqp_storage::Catalog;
use std::collections::HashMap;

/// Which join algorithms the planner may pick.
#[derive(Debug, Clone, Copy)]
pub struct JoinAlgos {
    /// Hash join.
    pub hash: bool,
    /// Sort-merge join.
    pub merge: bool,
    /// Index-nested-loop join.
    pub inl: bool,
    /// Generalized join.
    pub gjoin: bool,
}

impl Default for JoinAlgos {
    fn default() -> Self {
        JoinAlgos { hash: true, merge: true, inl: true, gjoin: false }
    }
}

/// Planner configuration.
#[derive(Debug, Clone, Copy)]
pub struct PlannerConfig {
    /// Allow bushy trees (otherwise left-deep).
    pub bushy: bool,
    /// Memory budget for spill prediction.
    pub memory_rows: f64,
    /// Join repertoire.
    pub join_algos: JoinAlgos,
    /// Refuse queries with more tables than this (DP is exponential).
    pub max_tables: usize,
    /// Above this many tables, fall back from exhaustive DP to greedy
    /// operator ordering — the "heuristic guidance and termination" escape
    /// hatch the seminar's optimization session discusses (Neumann's query
    /// simplification is the production version).
    pub greedy_above: usize,
    /// Consider index access paths.
    pub use_indexes: bool,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            bushy: false,
            memory_rows: f64::INFINITY,
            join_algos: JoinAlgos::default(),
            max_tables: 30,
            greedy_above: 10,
            use_indexes: true,
        }
    }
}

/// The DP planner.
pub struct Planner<'a> {
    catalog: &'a Catalog,
    est: &'a dyn CardEstimator,
    cm: CostModel,
    cfg: PlannerConfig,
}

/// One-shot convenience: plan `spec` against `catalog` with `est`.
pub fn plan(
    spec: &QuerySpec,
    catalog: &Catalog,
    est: &dyn CardEstimator,
    cfg: PlannerConfig,
) -> Result<PhysicalPlan> {
    Planner::new(catalog, est, cfg).plan(spec)
}

/// A priced candidate: the plan and the amounts its subtree charges.
#[derive(Clone)]
struct Cand {
    plan: PhysicalPlan,
    amounts: Amounts,
}

impl Cand {
    /// What a node over this candidate is priced from.
    fn priced(&self) -> (f64, Amounts) {
        (self.plan.est_rows(), self.amounts)
    }
}

impl<'a> Planner<'a> {
    /// New planner.
    pub fn new(catalog: &'a Catalog, est: &'a dyn CardEstimator, cfg: PlannerConfig) -> Self {
        let cm = CostModel::with_memory(cfg.memory_rows);
        Planner { catalog, est, cm, cfg }
    }

    /// Produce the cheapest plan for `spec`.
    pub fn plan(&self, spec: &QuerySpec) -> Result<PhysicalPlan> {
        spec.validate()?;
        if spec.limit.is_some() && spec.order_by.is_empty() {
            return Err(RqpError::Invalid(
                "LIMIT without ORDER BY has no stable first rows; add an ORDER BY".into(),
            ));
        }
        let n = spec.tables.len();
        if n > self.cfg.max_tables {
            return Err(RqpError::Planning(format!(
                "query joins {n} tables, planner limit is {}",
                self.cfg.max_tables
            )));
        }
        if n > self.cfg.greedy_above.min(30) {
            return self.plan_greedy(spec);
        }
        // Access paths.
        let mut best: HashMap<u32, Cand> = HashMap::new();
        for (i, t) in spec.tables.iter().enumerate() {
            best.insert(1u32 << i, self.best_access_path(t, spec)?);
        }

        // DPsize.
        for size in 2..=n {
            for s in 1u32..(1 << n) {
                if (s.count_ones() as usize) != size {
                    continue;
                }
                let mut best_cand: Option<Cand> = None;
                // Enumerate partitions A ∪ B = S, A and B non-empty.
                let mut next = (s - 1) & s;
                while next > 0 {
                    let (a, b) = (next, s & !next);
                    next = (next - 1) & s;
                    let (Some(ca), Some(cb)) = (best.get(&a), best.get(&b)) else { continue };
                    if !self.cfg.bushy && b.count_ones() != 1 {
                        continue;
                    }
                    let a_tables = tables_of(a, &spec.tables);
                    let edges: Vec<JoinEdge> = spec
                        .edges_between(&a_tables, &tables_of(b, &spec.tables))
                        .map(|e| orient_edge(e, &a_tables))
                        .collect();
                    if edges.is_empty() {
                        continue;
                    }
                    let rows = join_rows(ca.plan.est_rows(), cb.plan.est_rows(), &edges, self.est);
                    for cand in self.join_candidates(ca, cb, &edges, rows, b, spec) {
                        let cost = cand.plan.est_cost();
                        if best_cand.as_ref().is_none_or(|bc| cost < bc.plan.est_cost()) {
                            best_cand = Some(cand);
                        }
                    }
                }
                if let Some(c) = best_cand {
                    best.insert(s, c);
                }
            }
        }

        let full: u32 = (1 << n) - 1;
        let join_plan = best
            .remove(&full)
            .ok_or_else(|| RqpError::Planning("no plan found for full join".into()))?;
        Ok(self.finish(join_plan, spec))
    }

    /// Greedy operator ordering (GOO): repeatedly join the connected pair of
    /// components with the smallest estimated output. O(n³) instead of
    /// exponential — the termination heuristic for many-table queries.
    fn plan_greedy(&self, spec: &QuerySpec) -> Result<PhysicalPlan> {
        // Each component: (set of tables, candidate plan).
        let mut components: Vec<(Vec<String>, Cand)> = Vec::new();
        for t in &spec.tables {
            let cand = self.best_access_path(t, spec)?;
            components.push((vec![t.clone()], cand));
        }
        while components.len() > 1 {
            // Find the connected pair with the smallest join output.
            let mut best: Option<(usize, usize, f64, Vec<JoinEdge>)> = None;
            for i in 0..components.len() {
                for j in i + 1..components.len() {
                    let edges: Vec<JoinEdge> = spec
                        .edges_between(&components[i].0, &components[j].0)
                        .map(|e| orient_edge(e, &components[i].0))
                        .collect();
                    if edges.is_empty() {
                        continue;
                    }
                    let (ri, rj) =
                        (components[i].1.plan.est_rows(), components[j].1.plan.est_rows());
                    let rows = join_rows(ri, rj, &edges, self.est);
                    if best.as_ref().map(|b| rows < b.2).unwrap_or(true) {
                        best = Some((i, j, rows, edges));
                    }
                }
            }
            let (i, j, rows, edges) = best.ok_or_else(|| {
                RqpError::Planning("greedy planner: join graph disconnected".into())
            })?;
            // Merge j into i with the cheapest join algorithm for the pair.
            let (tables_j, cand_j) = components.remove(j);
            let (tables_i, cand_i) = components.remove(i);
            // Reuse the DP's candidate generator; b_mask = 0 disables INL
            // (single-table detection), acceptable for the heuristic path.
            let cands = self.join_candidates(&cand_i, &cand_j, &edges, rows, 0, spec);
            let joined = cands
                .into_iter()
                .min_by(|a, b| a.plan.est_cost().total_cmp(&b.plan.est_cost()))
                .ok_or_else(|| RqpError::Planning("greedy planner: no join candidate".into()))?;
            let mut tables = tables_i;
            tables.extend(tables_j);
            components.push((tables, joined));
        }
        let (_, cand) = components.pop().expect("one component remains");
        Ok(self.finish(cand, spec))
    }

    /// Price `node` over its inputs' (rows, amounts) `ins` with the estimator's
    /// counts, a join's output being `joined` rows when given.
    fn price(&self, mut node: PhysicalPlan, ins: &[(f64, Amounts)], joined: Option<f64>) -> Cand {
        let (rows, amounts) = self.cm.priced(&node, ins, &mut Estimated { est: self.est, joined });
        node.set_estimates(rows, amounts.cost(&self.cm.params));
        Cand { plan: node, amounts }
    }

    /// Attach aggregation / ordering / limit / projection, each priced over
    /// the plan so far.
    fn finish(&self, mut cand: Cand, spec: &QuerySpec) -> PhysicalPlan {
        use PhysicalPlan::{Aggregate, Project, Sort, TopN};
        let (est_rows, est_cost) = (0.0, 0.0);
        if !spec.aggs.is_empty() || !spec.group_by.is_empty() {
            let (group_by, aggs) = (spec.group_by.clone(), spec.aggs.clone());
            cand = self.over(cand, |input| Aggregate { input, group_by, aggs, est_rows, est_cost });
        }
        if !spec.order_by.is_empty() {
            let keys = spec.order_by.clone();
            cand = self.over(cand, |input| match spec.limit {
                Some(n) => TopN { input, keys, n, est_rows, est_cost },
                None => Sort { input, keys, est_rows, est_cost },
            });
        }
        if let Some(columns) = spec.projections.clone() {
            cand = self.over(cand, |input| Project { input, columns, est_rows, est_cost });
        }
        cand.plan
    }

    /// `cand` under the node `wrap` builds over it, priced.
    fn over(&self, cand: Cand, wrap: impl FnOnce(Box<PhysicalPlan>) -> PhysicalPlan) -> Cand {
        let input = cand.priced();
        self.price(wrap(Box::new(cand.plan)), &[input], None)
    }

    /// Every join of `ca` and `cb` on `edges` the configuration allows, the
    /// hash, merge and g-joins each emitting the same `rows`.
    fn join_candidates(
        &self,
        ca: &Cand,
        cb: &Cand,
        edges: &[JoinEdge],
        rows: f64,
        b_mask: u32,
        spec: &QuerySpec,
    ) -> Vec<Cand> {
        use PhysicalPlan::{GJoin, HashJoin, IndexNlJoin, MergeJoin};
        let mut out = Vec::new();
        let (left, right) = (Box::new(ca.plan.clone()), Box::new(cb.plan.clone()));
        let (both, (est_rows, est_cost)) = ([ca.priced(), cb.priced()], (0.0, 0.0));
        let joined = Some(rows);
        let algos = self.cfg.join_algos;
        if algos.hash {
            // Build on B; the DP also sees the mirrored partition, so both
            // orientations are explored.
            let (left, right, edges) = (left.clone(), right.clone(), edges.to_vec());
            let node = HashJoin { left, right, edges, est_rows, est_cost };
            out.push(self.price(node, &both, joined));
        }
        if algos.merge {
            let (left, right, edges) = (left.clone(), right.clone(), edges.to_vec());
            let (sort_left, sort_right) = (true, true);
            let node = MergeJoin { left, right, edges, sort_left, sort_right, est_rows, est_cost };
            out.push(self.price(node, &both, joined));
        }
        if algos.gjoin {
            let (edges, left_sorted, right_sorted) = (edges.to_vec(), false, false);
            let node = GJoin { left, right, edges, left_sorted, right_sorted, est_rows, est_cost };
            out.push(self.price(node, &both, joined));
        }
        // B a single base table, joined on one edge: probing its index
        // replaces B's access path entirely (cb's cost is not paid). The
        // executor enforces the probe edge only, so a second edge rules it
        // out.
        if algos.inl && b_mask.count_ones() == 1 && edges.len() == 1 {
            let b_table = &spec.tables[b_mask.trailing_zeros() as usize];
            let e = &edges[0];
            if &e.right_table == b_table {
                if let Some(ix) = self.catalog.index_on(b_table, &e.right_col) {
                    let node = IndexNlJoin {
                        outer: Box::new(ca.plan.clone()),
                        inner_table: b_table.clone(),
                        inner_index: ix.name().to_owned(),
                        edge: e.clone(),
                        inner_residual: spec.local_preds.get(b_table).cloned(),
                        inner_clustered: ix.clustered(),
                        est_rows,
                        est_cost,
                    };
                    out.push(self.price(node, &[ca.priced()], None));
                }
            }
        }
        out
    }

    /// Best access path for one base table: a scan, or an index that
    /// answers equalities on at most its leading k − 1 columns and a range
    /// on the next one.
    fn best_access_path(&self, table: &str, spec: &QuerySpec) -> Result<Cand> {
        self.catalog.table(table)?;
        let pred = spec.local_preds.get(table);
        let scan = PhysicalPlan::TableScan {
            table: table.to_owned(),
            filter: pred.cloned(),
            est_rows: 0.0,
            est_cost: 0.0,
        };
        let mut best = self.price(scan, &[], None);
        if !self.cfg.use_indexes {
            return Ok(best);
        }
        let Some(p) = pred else { return Ok(best) };
        let conjuncts = p.conjuncts();
        // An equal-cost candidate never replaces an earlier one, so the visit
        // order is part of the plan: one-column indexes in the order the
        // predicate first names their column, then composite indexes by name.
        let named_at = |col: &str| {
            conjuncts.iter().position(|c| {
                SimplePred::from_expr(c).is_some_and(|sp| unqualify(sp.column()) == col)
            })
        };
        let mut candidates: Vec<_> = self
            .catalog
            .indexes_on(table)
            .into_iter()
            .filter_map(|ix| match ix.columns() {
                [col] => named_at(col).map(|at| (at, ix)),
                _ => Some((usize::MAX, ix)),
            })
            .collect();
        candidates.sort_by_key(|(at, _)| *at);
        for (_, ix) in candidates {
            let cols = ix.columns();
            let mut remaining = conjuncts.clone();
            let mut prefix = Vec::new();
            let mut used = Vec::new();
            for name in &cols[..cols.len() - 1] {
                let eq = remaining.iter().enumerate().find_map(|(i, c)| {
                    match SimplePred::from_expr(c) {
                        Some(SimplePred::Cmp { op: CmpOp::Eq, col, value })
                            if unqualify(&col) == name =>
                        {
                            Some((i, value))
                        }
                        _ => None,
                    }
                });
                let Some((i, value)) = eq else { break };
                prefix.push(value);
                used.push(remaining.remove(i));
            }
            let (lo, hi, range_used, residual) = split_range(&remaining, &cols[prefix.len()]);
            if used.is_empty() && range_used.is_empty() {
                continue;
            }
            used.extend(range_used);
            let node = PhysicalPlan::IndexScan {
                table: table.to_owned(),
                index: ix.name().to_owned(),
                prefix,
                lo,
                hi,
                range_filter: Expr::conjoin(used),
                residual: (!residual.is_empty()).then(|| Expr::conjoin(residual)),
                clustered: ix.clustered(),
                est_rows: 0.0,
                est_cost: 0.0,
            };
            let cand = self.price(node, &[], None);
            if cand.plan.est_cost() < best.plan.est_cost() {
                best = cand;
            }
        }
        Ok(best)
    }
}

fn unqualify(col: &str) -> &str {
    col.rsplit_once('.').map(|(_, c)| c).unwrap_or(col)
}

fn tables_of(mask: u32, tables: &[String]) -> Vec<String> {
    tables
        .iter()
        .enumerate()
        .filter(|(i, _)| mask & (1 << i) != 0)
        .map(|(_, t)| t.clone())
        .collect()
}

fn orient_edge(e: &JoinEdge, left_tables: &[String]) -> JoinEdge {
    if left_tables.contains(&e.left_table) {
        e.clone()
    } else {
        e.oriented_from(&e.right_table).expect("edge touches right table")
    }
}

/// Split conjuncts into an index range on `col` (`lo`, `hi`, used conjuncts)
/// plus residual conjuncts. Strict bounds stay inclusive in the range and are
/// re-checked in the residual (correctness over tightness).
fn split_range(
    conjuncts: &[Expr],
    col: &str,
) -> (Option<Value>, Option<Value>, Vec<Expr>, Vec<Expr>) {
    let mut lo: Option<Value> = None;
    let mut hi: Option<Value> = None;
    let mut used = Vec::new();
    let mut residual = Vec::new();
    for c in conjuncts {
        let sp = SimplePred::from_expr(c);
        let on_col = sp
            .as_ref()
            .map(|s| unqualify(s.column()) == col)
            .unwrap_or(false);
        if !on_col {
            residual.push(c.clone());
            continue;
        }
        match sp.expect("checked above") {
            SimplePred::Cmp { op, value, .. } => match op {
                CmpOp::Eq => {
                    tighten_lo(&mut lo, &value);
                    tighten_hi(&mut hi, &value);
                    used.push(c.clone());
                }
                CmpOp::Le => {
                    tighten_hi(&mut hi, &value);
                    used.push(c.clone());
                }
                CmpOp::Ge => {
                    tighten_lo(&mut lo, &value);
                    used.push(c.clone());
                }
                CmpOp::Lt => {
                    tighten_hi(&mut hi, &value);
                    used.push(c.clone());
                    residual.push(c.clone()); // strictness re-checked
                }
                CmpOp::Gt => {
                    tighten_lo(&mut lo, &value);
                    used.push(c.clone());
                    residual.push(c.clone());
                }
                CmpOp::Ne => residual.push(c.clone()),
            },
            SimplePred::Range { lo: l, hi: h, .. } => {
                tighten_lo(&mut lo, &l);
                tighten_hi(&mut hi, &h);
                used.push(c.clone());
            }
            SimplePred::InList { .. } => residual.push(c.clone()),
        }
    }
    (lo, hi, used, residual)
}

fn tighten_lo(lo: &mut Option<Value>, v: &Value) {
    if lo.as_ref().map(|x| v > x).unwrap_or(true) {
        *lo = Some(v.clone());
    }
}

fn tighten_hi(hi: &mut Option<Value>, v: &Value) {
    if hi.as_ref().map(|x| v < x).unwrap_or(true) {
        *hi = Some(v.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rqp_common::expr::{col, lit};
    use rqp_common::{DataType, Schema, Value};
    use rqp_exec::ExecContext;
    use rqp_stats::{OracleEstimator, StatsEstimator, TableStatsRegistry};
    use rqp_storage::Table;
    use std::rc::Rc;

    /// Three-table star: fact(1000) → dim1(100), dim2(10).
    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let schema = Schema::from_pairs(&[
            ("id", DataType::Int),
            ("d1", DataType::Int),
            ("d2", DataType::Int),
            ("v", DataType::Int),
        ]);
        let mut fact = Table::new("fact", schema);
        for i in 0..1000i64 {
            fact.append(vec![
                Value::Int(i),
                Value::Int(i % 100),
                Value::Int(i % 10),
                Value::Int(i % 50),
            ]);
        }
        c.add_table(fact);
        let schema = Schema::from_pairs(&[("k", DataType::Int), ("a", DataType::Int)]);
        let mut d1 = Table::new("dim1", schema.clone());
        for i in 0..100i64 {
            d1.append(vec![Value::Int(i), Value::Int(i % 4)]);
        }
        c.add_table(d1);
        let mut d2 = Table::new("dim2", schema);
        for i in 0..10i64 {
            d2.append(vec![Value::Int(i), Value::Int(i % 2)]);
        }
        c.add_table(d2);
        c.create_index("ix_fact_id", "fact", &["id"]).unwrap();
        c.create_index("ix_dim1_k", "dim1", &["k"]).unwrap();
        c
    }

    fn stats_est(c: &Catalog) -> StatsEstimator {
        StatsEstimator::new(Rc::new(TableStatsRegistry::analyze_catalog(c, 32)))
    }

    fn star_spec() -> QuerySpec {
        QuerySpec::new()
            .join("fact", "d1", "dim1", "k")
            .join("fact", "d2", "dim2", "k")
            .filter("fact", col("fact.v").lt(lit(5i64)))
    }

    #[test]
    fn plans_and_executes_star_join() {
        let c = catalog();
        let est = stats_est(&c);
        let plan = plan(&star_spec(), &c, &est, PlannerConfig::default()).unwrap();
        let ctx = ExecContext::unbounded();
        let mut built = plan.build(&c, &ctx, None).unwrap();
        let rows = built.run();
        // fact.v < 5 → v ∈ 0..5 → 100 fact rows; each matches 1 dim1 + 1 dim2.
        assert_eq!(rows.len(), 100);
    }

    #[test]
    fn plan_result_invariant_to_table_declaration_order() {
        let c = catalog();
        let est = stats_est(&c);
        let spec_a = star_spec();
        let spec_b = QuerySpec::new()
            .table("dim2")
            .table("dim1")
            .join("fact", "d1", "dim1", "k")
            .join("fact", "d2", "dim2", "k")
            .filter("fact", col("fact.v").lt(lit(5i64)));
        let ctx = ExecContext::unbounded();
        let pa = plan(&spec_a, &c, &est, PlannerConfig::default()).unwrap();
        let pb = plan(&spec_b, &c, &est, PlannerConfig::default()).unwrap();
        let na = pa.build(&c, &ctx, None).unwrap().run().len();
        let nb = pb.build(&c, &ctx, None).unwrap().run().len();
        assert_eq!(na, nb);
    }

    #[test]
    fn picks_index_scan_for_selective_predicate() {
        let c = catalog();
        let est = stats_est(&c);
        let spec = QuerySpec::new()
            .table("fact")
            .filter("fact", col("fact.id").between(10i64, 19i64));
        let p = plan(&spec, &c, &est, PlannerConfig::default()).unwrap();
        assert!(
            p.fingerprint().contains("ixscan"),
            "selective range should use the index: {}",
            p.fingerprint()
        );
        let ctx = ExecContext::unbounded();
        assert_eq!(p.build(&c, &ctx, None).unwrap().run().len(), 10);
    }

    #[test]
    fn picks_table_scan_for_wide_predicate() {
        let c = catalog();
        let est = stats_est(&c);
        let spec = QuerySpec::new()
            .table("fact")
            .filter("fact", col("fact.id").ge(lit(0i64)));
        let p = plan(&spec, &c, &est, PlannerConfig::default()).unwrap();
        // Clustered index is also fine (≤ scan); but never an unclustered
        // blowup. Either scan or ixscan acceptable — check it runs complete.
        let ctx = ExecContext::unbounded();
        assert_eq!(p.build(&c, &ctx, None).unwrap().run().len(), 1000);
    }

    #[test]
    fn strict_bounds_are_enforced() {
        let c = catalog();
        let est = stats_est(&c);
        let spec = QuerySpec::new()
            .table("fact")
            .filter("fact", col("fact.id").gt(lit(10i64)).and(col("fact.id").lt(lit(20i64))));
        let p = plan(&spec, &c, &est, PlannerConfig::default()).unwrap();
        let ctx = ExecContext::unbounded();
        let rows = p.build(&c, &ctx, None).unwrap().run();
        assert_eq!(rows.len(), 9, "strict bounds: 11..=19");
    }

    #[test]
    fn oracle_vs_stats_same_result_rows() {
        let c = Rc::new(catalog());
        let oracle = OracleEstimator::new(Rc::clone(&c));
        let stats = stats_est(&c);
        let ctx = ExecContext::unbounded();
        let po = plan(&star_spec(), &c, &oracle, PlannerConfig::default()).unwrap();
        let ps = plan(&star_spec(), &c, &stats, PlannerConfig::default()).unwrap();
        assert_eq!(
            po.build(&c, &ctx, None).unwrap().run().len(),
            ps.build(&c, &ctx, None).unwrap().run().len(),
            "plan choice must never change the answer"
        );
    }

    #[test]
    fn bushy_at_least_as_good_as_left_deep() {
        let c = catalog();
        let est = stats_est(&c);
        let ld = plan(&star_spec(), &c, &est, PlannerConfig::default()).unwrap();
        let bushy = plan(
            &star_spec(),
            &c,
            &est,
            PlannerConfig { bushy: true, ..Default::default() },
        )
        .unwrap();
        assert!(bushy.est_cost() <= ld.est_cost() + 1e-9);
    }

    #[test]
    fn gjoin_only_repertoire() {
        let c = catalog();
        let est = stats_est(&c);
        let gjoin_only = JoinAlgos { hash: false, merge: false, inl: false, gjoin: true };
        let cfg = PlannerConfig { join_algos: gjoin_only, ..Default::default() };
        let p = plan(&star_spec(), &c, &est, cfg).unwrap();
        assert!(p.fingerprint().contains("gj("), "{}", p.fingerprint());
        let ctx = ExecContext::unbounded();
        assert_eq!(p.build(&c, &ctx, None).unwrap().run().len(), 100);
    }

    #[test]
    fn aggregation_pipeline_plans() {
        let c = catalog();
        let est = stats_est(&c);
        let spec = star_spec()
            .aggregate(
                &["dim2.a"],
                vec![rqp_exec::AggSpec::count_star("n")],
            )
            .order(&["n"]);
        let p = plan(&spec, &c, &est, PlannerConfig::default()).unwrap();
        let ctx = ExecContext::unbounded();
        let rows = p.build(&c, &ctx, None).unwrap().run();
        assert_eq!(rows.len(), 2, "dim2.a ∈ {{0,1}}");
        let total: i64 = rows.iter().map(|r| r[1].as_int().unwrap()).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn rejects_oversized_and_disconnected() {
        let c = catalog();
        let est = stats_est(&c);
        let cfg = PlannerConfig { max_tables: 2, ..Default::default() };
        assert!(plan(&star_spec(), &c, &est, cfg).is_err());
        let disconnected = QuerySpec::new().table("fact").table("dim1");
        assert!(plan(&disconnected, &c, &est, PlannerConfig::default()).is_err());
    }

    #[test]
    fn composite_index_serves_eq_plus_range() {
        // The break-out's example: an index on (A, B, C) should be used for
        // "A = 4 AND B BETWEEN 7 AND 11".
        let mut c = Catalog::new();
        let schema = Schema::from_pairs(&[
            ("a", DataType::Int),
            ("b", DataType::Int),
            ("cc", DataType::Int),
        ]);
        let mut t = Table::new("t", schema);
        for i in 0..20_000i64 {
            t.append(vec![Value::Int(i % 50), Value::Int(i % 20), Value::Int(i)]);
        }
        c.add_table(t);
        c.create_index("ix_abc", "t", &["a", "b", "cc"]).unwrap();
        let est = StatsEstimator::new(Rc::new(TableStatsRegistry::analyze_catalog(&c, 32)));
        let spec = QuerySpec::new().table("t").filter(
            "t",
            col("t.a").eq(lit(4i64)).and(col("t.b").between(7i64, 11i64)),
        );
        let p = plan(&spec, &c, &est, PlannerConfig::default()).unwrap();
        assert!(
            p.fingerprint().contains("ixscan(t:ix_abc)"),
            "composite index expected: {}",
            p.fingerprint()
        );
        let ctx = ExecContext::unbounded();
        let rows = p.build(&c, &ctx, None).unwrap().run();
        let truth = (0..20_000i64)
            .filter(|i| i % 50 == 4 && (7..=11).contains(&(i % 20)))
            .count();
        assert_eq!(rows.len(), truth);
    }

    #[test]
    fn composite_index_needs_a_leading_prefix() {
        // A predicate only on the second column cannot use (a, b) as an
        // equality-prefix path; the planner must fall back to a scan.
        let mut c = Catalog::new();
        let schema = Schema::from_pairs(&[("a", DataType::Int), ("b", DataType::Int)]);
        let mut t = Table::new("t", schema);
        for i in 0..5000i64 {
            t.append(vec![Value::Int(i % 50), Value::Int(i % 20)]);
        }
        c.add_table(t);
        c.create_index("ix_ab", "t", &["a", "b"]).unwrap();
        let est = StatsEstimator::new(Rc::new(TableStatsRegistry::analyze_catalog(&c, 16)));
        let spec = QuerySpec::new()
            .table("t")
            .filter("t", col("t.b").eq(lit(3i64)));
        let p = plan(&spec, &c, &est, PlannerConfig::default()).unwrap();
        assert!(p.fingerprint().contains("scan(t)"), "{}", p.fingerprint());
        let ctx = ExecContext::unbounded();
        assert_eq!(p.build(&c, &ctx, None).unwrap().run().len(), 250);
    }

    #[test]
    fn greedy_fallback_handles_many_tables() {
        // A 15-table chain: DP would need 2^15 subsets; the greedy path
        // handles it and still produces a correct, executable plan.
        let mut c = Catalog::new();
        let n_tables = 15usize;
        for t in 0..n_tables {
            let schema = Schema::from_pairs(&[("k", DataType::Int)]);
            let mut table = Table::new(format!("t{t}"), schema);
            for i in 0..50i64 {
                table.append(vec![Value::Int(i)]);
            }
            c.add_table(table);
        }
        let mut spec = QuerySpec::new();
        for t in 0..n_tables - 1 {
            spec = spec.join(&format!("t{t}"), "k", &format!("t{}", t + 1), "k");
        }
        spec = spec.filter("t0", col("t0.k").lt(lit(5i64)));
        let est = stats_est(&c);
        let p = plan(&spec, &c, &est, PlannerConfig::default()).unwrap();
        let ctx = ExecContext::unbounded();
        let rows = p.build(&c, &ctx, None).unwrap().run();
        // 5 surviving keys, each matching exactly once per table.
        assert_eq!(rows.len(), 5);
        // And the hard cap still guards.
        let cfg = PlannerConfig { max_tables: 10, ..Default::default() };
        assert!(plan(&spec, &c, &est, cfg).is_err());
    }

    #[test]
    fn greedy_matches_dp_on_small_queries() {
        let c = catalog();
        let est = stats_est(&c);
        let dp = plan(&star_spec(), &c, &est, PlannerConfig::default()).unwrap();
        let greedy = plan(
            &star_spec(),
            &c,
            &est,
            PlannerConfig { greedy_above: 1, ..Default::default() },
        )
        .unwrap();
        let ctx = ExecContext::unbounded();
        assert_eq!(
            dp.build(&c, &ctx, None).unwrap().run().len(),
            greedy.build(&c, &ctx, None).unwrap().run().len()
        );
        // Greedy can never beat exhaustive DP on estimated cost.
        assert!(greedy.est_cost() >= dp.est_cost() - 1e-9);
    }

    #[test]
    fn inl_considered_when_index_exists() {
        let c = catalog();
        let est = stats_est(&c);
        // Highly selective fact filter → tiny outer → INL into dim1 is ideal.
        let spec = QuerySpec::new()
            .join("fact", "d1", "dim1", "k")
            .filter("fact", col("fact.id").between(0i64, 4i64));
        let p = plan(&spec, &c, &est, PlannerConfig::default()).unwrap();
        let ctx = ExecContext::unbounded();
        let rows = p.build(&c, &ctx, None).unwrap().run();
        assert_eq!(rows.len(), 5);
    }
}
