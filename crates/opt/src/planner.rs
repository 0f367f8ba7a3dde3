//! Dynamic-programming plan enumeration.
//!
//! A System-R style DPsize enumerator over connected table subsets, with
//! per-table access-path selection (scan vs index range scan) and a
//! configurable join repertoire (hash / sort-merge / index-nested-loop /
//! g-join). Left-deep by default; bushy on request. Subset cardinalities are
//! derived once per subset (base filtered sizes × edge selectivities) so
//! every join algorithm is costed against the same cardinality — mirroring
//! real optimizers, and ensuring the experiments isolate *estimation* error.

use crate::cost::CostModel;
use crate::physical::PhysicalPlan;
use crate::query::{JoinEdge, QuerySpec};
use rqp_common::{CmpOp, Expr, Result, RqpError, SimplePred, Value};
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

#[derive(Clone)]
struct Cand {
    plan: PhysicalPlan,
    cost: f64,
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
        // Base filtered cardinalities and access paths.
        let mut best: HashMap<u32, Cand> = HashMap::new();
        let mut subset_rows: HashMap<u32, f64> = HashMap::new();
        for (i, t) in spec.tables.iter().enumerate() {
            let cand = self.best_access_path(t, spec)?;
            let mask = 1u32 << i;
            subset_rows.insert(mask, cand.plan.est_rows());
            best.insert(mask, cand);
        }

        // DPsize.
        for size in 2..=n {
            for s in 1u32..(1 << n) {
                if (s.count_ones() as usize) != size {
                    continue;
                }
                // Subset cardinality (same for all plans of this subset).
                let rows_s = self.subset_cardinality(s, spec, &subset_rows);
                let mut best_cand: Option<Cand> = None;
                // Enumerate partitions A ∪ B = S.
                let mut a = (s - 1) & s;
                while a > 0 {
                    let b = s & !a;
                    if b != 0 {
                        let left_deep_ok = self.cfg.bushy || b.count_ones() == 1;
                        if left_deep_ok {
                            if let (Some(ca), Some(cb)) = (best.get(&a), best.get(&b)) {
                                let a_tables = tables_of(a, &spec.tables);
                                let b_tables = tables_of(b, &spec.tables);
                                let edges: Vec<JoinEdge> = spec
                                    .edges_between(&a_tables, &b_tables)
                                    .map(|e| orient_edge(e, &a_tables))
                                    .collect();
                                if !edges.is_empty() {
                                    for cand in self.join_candidates(
                                        ca, cb, &edges, rows_s, b, spec,
                                    ) {
                                        if best_cand
                                            .as_ref()
                                            .map(|bc| cand.cost < bc.cost)
                                            .unwrap_or(true)
                                        {
                                            best_cand = Some(cand);
                                        }
                                    }
                                }
                            }
                        }
                    }
                    a = (a - 1) & s;
                }
                if let Some(c) = best_cand {
                    subset_rows.insert(s, rows_s);
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
            let mut best: Option<(usize, usize, f64)> = None;
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
                    let sel: f64 = edges
                        .iter()
                        .map(|e| {
                            self.est.join_selectivity(
                                &e.left_table,
                                &e.left_col,
                                &e.right_table,
                                &e.right_col,
                            )
                        })
                        .product();
                    let rows = ri * rj * sel;
                    if best.map(|(_, _, r)| rows < r).unwrap_or(true) {
                        best = Some((i, j, rows));
                    }
                }
            }
            let (i, j, rows_out) = best.ok_or_else(|| {
                RqpError::Planning("greedy planner: join graph disconnected".into())
            })?;
            // Merge j into i with the cheapest join algorithm for the pair.
            let (tables_j, cand_j) = components.remove(j);
            let (tables_i, cand_i) = components.remove(i);
            let edges: Vec<JoinEdge> = spec
                .edges_between(&tables_i, &tables_j)
                .map(|e| orient_edge(e, &tables_i))
                .collect();
            // Reuse the DP's candidate generator; b_mask = 0 disables INL
            // (single-table detection), acceptable for the heuristic path.
            let cands = self.join_candidates(&cand_i, &cand_j, &edges, rows_out, 0, spec);
            let joined = cands
                .into_iter()
                .min_by(|a, b| a.cost.total_cmp(&b.cost))
                .ok_or_else(|| RqpError::Planning("greedy planner: no join candidate".into()))?;
            let mut tables = tables_i;
            tables.extend(tables_j);
            components.push((tables, joined));
        }
        let (_, cand) = components.pop().expect("one component remains");
        Ok(self.finish(cand, spec))
    }

    /// Attach aggregation / ordering / limit / projection.
    fn finish(&self, cand: Cand, spec: &QuerySpec) -> PhysicalPlan {
        let mut plan = cand.plan;
        let mut cost = cand.cost;
        let mut rows = plan.est_rows();
        if !spec.aggs.is_empty() || !spec.group_by.is_empty() {
            let groups = if spec.group_by.is_empty() { 1.0 } else { rows.sqrt().max(1.0) };
            cost += self.cm.hash_agg(rows, groups);
            rows = groups;
            plan = PhysicalPlan::Aggregate {
                input: Box::new(plan),
                group_by: spec.group_by.clone(),
                aggs: spec.aggs.clone(),
                est_rows: rows,
                est_cost: cost,
            };
        }
        if !spec.order_by.is_empty() {
            match spec.limit {
                Some(k) => {
                    cost += self.cm.top_n(rows, k as f64);
                    rows = rows.min(k as f64);
                    plan = PhysicalPlan::TopN {
                        input: Box::new(plan),
                        keys: spec.order_by.clone(),
                        n: k,
                        est_rows: rows,
                        est_cost: cost,
                    };
                }
                None => {
                    cost += self.cm.sort(rows);
                    plan = PhysicalPlan::Sort {
                        input: Box::new(plan),
                        keys: spec.order_by.clone(),
                        est_rows: rows,
                        est_cost: cost,
                    };
                }
            }
        } else if let Some(k) = spec.limit {
            // LIMIT without ORDER BY: TopN on nothing would need keys; just
            // truncate via TopN on the first projected/first column is wrong —
            // emulate with TopN over no keys is unsupported, so leave the
            // limit to the caller. (Deterministic engine: callers truncate.)
            let _ = k;
        }
        if let Some(cols) = &spec.projections {
            cost += self.cm.materialize(rows);
            plan = PhysicalPlan::Project {
                input: Box::new(plan),
                columns: cols.clone(),
                est_rows: rows,
                est_cost: cost,
            };
        }
        plan
    }

    fn subset_cardinality(&self, s: u32, spec: &QuerySpec, base: &HashMap<u32, f64>) -> f64 {
        let mut rows = 1.0;
        for (i, _) in spec.tables.iter().enumerate() {
            let m = 1u32 << i;
            if s & m != 0 {
                rows *= base.get(&m).copied().unwrap_or(1.0);
            }
        }
        for e in &spec.joins {
            let li = spec.tables.iter().position(|t| *t == e.left_table);
            let ri = spec.tables.iter().position(|t| *t == e.right_table);
            if let (Some(li), Some(ri)) = (li, ri) {
                if s & (1 << li) != 0 && s & (1 << ri) != 0 {
                    rows *= self.est.join_selectivity(
                        &e.left_table,
                        &e.left_col,
                        &e.right_table,
                        &e.right_col,
                    );
                }
            }
        }
        rows.max(0.0)
    }

    fn join_candidates(
        &self,
        ca: &Cand,
        cb: &Cand,
        edges: &[JoinEdge],
        rows_out: f64,
        b_mask: u32,
        spec: &QuerySpec,
    ) -> Vec<Cand> {
        let mut out = Vec::new();
        let (ra, rb) = (ca.plan.est_rows(), cb.plan.est_rows());
        let base_cost = ca.cost + cb.cost;
        let algos = self.cfg.join_algos;
        if algos.hash {
            // Build on the smaller side (B here); the DP also sees the
            // mirrored partition, so both orientations are explored.
            let cost = base_cost + self.cm.hash_join(rb, ra, rows_out);
            out.push(Cand {
                plan: PhysicalPlan::HashJoin {
                    left: Box::new(ca.plan.clone()),
                    right: Box::new(cb.plan.clone()),
                    edges: edges.to_vec(),
                    est_rows: rows_out,
                    est_cost: cost,
                },
                cost,
            });
        }
        if algos.merge {
            let cost = base_cost
                + self.cm.sort(ra)
                + self.cm.sort(rb)
                + self.cm.merge_join(ra, rb, rows_out);
            out.push(Cand {
                plan: PhysicalPlan::MergeJoin {
                    left: Box::new(ca.plan.clone()),
                    right: Box::new(cb.plan.clone()),
                    edges: edges.to_vec(),
                    sort_left: true,
                    sort_right: true,
                    est_rows: rows_out,
                    est_cost: cost,
                },
                cost,
            });
        }
        if algos.gjoin {
            let cost = base_cost + self.cm.g_join(ra, rb, rows_out, false, false);
            out.push(Cand {
                plan: PhysicalPlan::GJoin {
                    left: Box::new(ca.plan.clone()),
                    right: Box::new(cb.plan.clone()),
                    edges: edges.to_vec(),
                    left_sorted: false,
                    right_sorted: false,
                    est_rows: rows_out,
                    est_cost: cost,
                },
                cost,
            });
        }
        if algos.inl && b_mask.count_ones() == 1 {
            // B is a single base table: probing its index replaces B's access
            // path entirely (cb's cost is not paid).
            let bi = b_mask.trailing_zeros() as usize;
            let b_table = &spec.tables[bi];
            for e in edges {
                if &e.right_table != b_table {
                    continue;
                }
                if let Some(ix) = self.catalog.index_on(b_table, &e.right_col) {
                    let inner_rows = self.est.table_rows(b_table);
                    let js = self.est.join_selectivity(
                        &e.left_table,
                        &e.left_col,
                        &e.right_table,
                        &e.right_col,
                    );
                    let matches_total = ra * inner_rows * js;
                    let b_pred = spec.local_preds.get(b_table);
                    let mut cost = ca.cost
                        + self.cm.index_nl_join(
                            ra,
                            inner_rows,
                            matches_total,
                            ix.clustered(),
                        );
                    let mut rows = matches_total;
                    if let Some(p) = b_pred {
                        cost += self.cm.filter(matches_total);
                        rows *= self.est.selectivity(b_table, p);
                    }
                    // Residual edges beyond the probe edge: applied by the
                    // probe output check — approximate with edge selectivity
                    // (the executor enforces the first edge only; extra
                    // edges become residual filters).
                    let residual_edges: Vec<&JoinEdge> =
                        edges.iter().filter(|x| *x != e).collect();
                    if !residual_edges.is_empty() {
                        continue; // keep the executor semantics exact
                    }
                    out.push(Cand {
                        plan: PhysicalPlan::IndexNlJoin {
                            outer: Box::new(ca.plan.clone()),
                            inner_table: b_table.clone(),
                            inner_index: ix.name().to_owned(),
                            edge: e.clone(),
                            inner_residual: b_pred.cloned(),
                            est_rows: rows,
                            est_cost: cost,
                        },
                        cost,
                    });
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
        let base = self.est.table_rows(table);
        let pred = spec.local_preds.get(table);
        let rows = match pred {
            Some(p) => base * self.est.selectivity(table, p),
            None => base,
        };
        let mut cost = self.cm.scan(base);
        if pred.is_some() {
            cost += self.cm.filter(base);
        }
        let mut best = Cand {
            plan: PhysicalPlan::TableScan {
                table: table.to_owned(),
                filter: pred.cloned(),
                est_rows: rows,
                est_cost: cost,
            },
            cost,
        };
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
            let range_filter = Expr::conjoin(used);
            let matched = base * self.est.selectivity(table, &range_filter);
            let mut c_cost = self.cm.index_scan(base, matched, ix.clustered());
            let mut c_rows = matched;
            let residual_expr = if residual.is_empty() {
                None
            } else {
                let r = Expr::conjoin(residual);
                c_cost += self.cm.filter(matched);
                c_rows = matched * self.est.selectivity(table, &r);
                Some(r)
            };
            if c_cost < best.cost {
                best = Cand {
                    plan: PhysicalPlan::IndexScan {
                        table: table.to_owned(),
                        index: ix.name().to_owned(),
                        prefix,
                        lo,
                        hi,
                        range_filter,
                        residual: residual_expr,
                        est_rows: c_rows,
                        est_cost: c_cost,
                    },
                    cost: c_cost,
                };
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
