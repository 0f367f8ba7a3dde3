//! The optimizer's cost model: one costing walk over a [`PhysicalPlan`] that
//! prices every node with the cost rules the operators charge through
//! ([`rqp_common::rule`]) and folds the summed amounts with the clock's fold.
//! Counts come from an estimator (the planner and
//! [`PhysicalPlan::reestimate`]) or from a run's spans
//! ([`PhysicalPlan::observed_cost`]); equal
//! counts give equal bits, so what is left of an estimate's error is count
//! error. The seminar's break-outs separate "cardinality model" from "cost
//! model" errors; pinning the cost model isolates the one everyone agrees
//! dominates ("cardinality estimation has the biggest impact", Lohman).

use crate::physical::{join_rows, NodeMeter, PhysicalPlan};
use rqp_common::{rule, Amounts, CostModelParams, Expr};
use rqp_stats::CardEstimator;
use rqp_storage::Catalog;

/// Cost model parameterized like the executor's clock, plus the memory
/// budget its workspace grants are taken under.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Clock parameters (weights per cost category).
    pub params: CostModelParams,
    /// Workspace budget in rows (the memory governor's).
    pub memory_rows: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel { params: CostModelParams::default(), memory_rows: f64::INFINITY }
    }
}

/// What a node's rules read besides its inputs' rows.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Counts {
    /// Rows the node hands on.
    pub out: f64,
    /// Rows a scan reads, or an index scan or index join matches (before
    /// any residual).
    pub read: f64,
    /// Entries of the index an index scan or index join descends.
    pub entries: f64,
    /// A merge's key comparisons, or an index join's probes that hit.
    pub steps: f64,
    /// Pages an index join's hits fetched.
    pub pages: f64,
    /// Rows a merge join pulled from its sorted left and right inputs.
    pub pulled: [f64; 2],
}

/// Where the costing walk reads a node's counts. Nodes are asked in
/// post-order, children first, the order [`PhysicalPlan::build`] meters them.
pub(crate) trait CountSource {
    /// `node`'s counts, its inputs having handed on `inputs` rows.
    fn counts(&mut self, node: &PhysicalPlan, inputs: &[f64]) -> Counts;
}

/// Counts as a cardinality estimator predicts them.
pub(crate) struct Estimated<'a> {
    /// Where every other count comes from.
    pub est: &'a dyn CardEstimator,
    /// The output of the hash, merge or g-join node being priced, when the
    /// planner has it already: one estimate for every algorithm it tries.
    pub joined: Option<f64>,
}

impl CountSource for Estimated<'_> {
    fn counts(&mut self, node: &PhysicalPlan, inputs: &[f64]) -> Counts {
        use PhysicalPlan::*;
        let est = self.est;
        let sel = |t: &str, p: &Option<Expr>| p.as_ref().map_or(1.0, |p| est.selectivity(t, p));
        let input = inputs.first().copied().unwrap_or(0.0);
        let c = Counts { out: input, ..Counts::default() };
        match node {
            TableScan { table, filter, .. } => {
                let read = est.table_rows(table);
                Counts { read, out: read * sel(table, filter), ..c }
            }
            IndexScan { table, range_filter, residual, .. } => {
                let entries = est.table_rows(table);
                let read = entries * est.selectivity(table, range_filter);
                Counts { entries, read, out: read * sel(table, residual), ..c }
            }
            HashJoin { edges, .. } | MergeJoin { edges, .. } | GJoin { edges, .. } => {
                let (l, r) = (inputs[0], inputs[1]);
                let out = self.joined.unwrap_or_else(|| join_rows(l, r, edges, est));
                Counts { out, steps: l + r, pulled: [l, r], ..c }
            }
            IndexNlJoin { inner_table, edge, inner_residual, .. } => {
                let entries = est.table_rows(inner_table);
                let js = est.join_selectivity(
                    &edge.left_table,
                    &edge.left_col,
                    &edge.right_table,
                    &edge.right_col,
                );
                let read = input * entries * js;
                // At most one hit per probe, each fetching one page.
                let hits = input.min(read);
                let out = read * sel(inner_table, inner_residual);
                Counts { out, read, entries, steps: hits, pages: hits, ..c }
            }
            Aggregate { group_by, .. } => {
                let groups = if group_by.is_empty() { 1.0 } else { input.sqrt().max(1.0) };
                Counts { out: groups, ..c }
            }
            TopN { n, .. } => Counts { out: (*n as f64).min(input), ..c },
            Check { .. } | Sort { .. } | Project { .. } => c,
        }
    }
}

/// Counts a run observed: each node's meter and the spans of its own
/// operators, read back in build order.
pub(crate) struct Observed<'a> {
    meters: &'a [NodeMeter],
    catalog: &'a Catalog,
    next: usize,
}

impl<'a> Observed<'a> {
    /// The counts of a drained plan built over `catalog` with these meters.
    pub(crate) fn new(meters: &'a [NodeMeter], catalog: &'a Catalog) -> Self {
        Observed { meters, catalog, next: 0 }
    }
}

impl CountSource for Observed<'_> {
    fn counts(&mut self, node: &PhysicalPlan, inputs: &[f64]) -> Counts {
        use PhysicalPlan::*;
        let m = &self.meters[self.next];
        self.next += 1;
        let (ops, out) = (&m.ops, m.actual_rows() as f64);
        let rows = |i: usize| ops[i].rows() as f64;
        let entries = |index: &str| {
            self.catalog.index(index).expect("a built plan's index is in its catalog").entries()
                as f64
        };
        let c = Counts { out, ..Counts::default() };
        match node {
            TableScan { .. } => Counts { read: rows(0), ..c },
            IndexScan { index, .. } => Counts { read: rows(0), entries: entries(index), ..c },
            MergeJoin { sort_left, sort_right, .. } => {
                let left = if *sort_left { rows(0) } else { inputs[0] };
                let right = if *sort_right { rows(usize::from(*sort_left)) } else { inputs[1] };
                Counts { steps: m.span.steps() as f64, pulled: [left, right], ..c }
            }
            GJoin { .. } => Counts { steps: m.span.steps() as f64, ..c },
            IndexNlJoin { inner_index, .. } => {
                let probe = &ops[0];
                let (steps, pages) = (probe.steps() as f64, probe.pages() as f64);
                Counts { read: rows(0), entries: entries(inner_index), steps, pages, ..c }
            }
            _ => c,
        }
    }
}

impl CostModel {
    /// Model with a bounded workspace.
    pub fn with_memory(memory_rows: f64) -> Self {
        CostModel { memory_rows, ..CostModel::default() }
    }

    /// Price `node` over its priced inputs (rows, amounts): its output rows
    /// and the amounts of its subtree. The one step of the costing walk.
    pub(crate) fn priced(
        &self,
        node: &PhysicalPlan,
        inputs: &[(f64, Amounts)],
        src: &mut dyn CountSource,
    ) -> (f64, Amounts) {
        let rows: Vec<f64> = inputs.iter().map(|i| i.0).collect();
        let c = src.counts(node, &rows);
        (c.out, self.own(node, &rows, &c) + inputs.iter().map(|i| i.1).sum())
    }

    /// The amounts `node`'s own operators charge: its rules fed its counts.
    fn own(&self, node: &PhysicalPlan, inputs: &[f64], c: &Counts) -> Amounts {
        use PhysicalPlan::*;
        let p = &self.params;
        let grant = |want: f64| rule::grant(want, self.memory_rows);
        let residual = |e: &Option<Expr>, rows: f64| match e {
            Some(_) => rule::filter(rows),
            None => Amounts::ZERO,
        };
        let input = inputs.first().copied().unwrap_or(0.0);
        match node {
            TableScan { filter, .. } => {
                rule::scan(p.pages(c.read), c.read) + residual(filter, c.read)
            }
            IndexScan { clustered, residual: r, .. } => {
                rule::descend(c.entries)
                    + rule::fetch(*clustered, 0.0, p.pages(c.read), c.read)
                    + rule::emit(c.read)
                    + residual(r, c.read)
            }
            HashJoin { .. } => {
                let (probe, build) = (inputs[0], inputs[1]);
                let spilled = rule::overflow(build, grant(build));
                rule::spill(p, build * spilled)
                    + rule::hash_build(build)
                    + rule::hash_probe(probe)
                    + rule::emit(c.out)
                    + rule::spill(p, probe * spilled)
            }
            MergeJoin { sort_left, sort_right, .. } => {
                let side = |sorted: bool, n: f64, pulled: f64| match sorted {
                    true => rule::sort(p, n, grant(n)) + rule::emit(pulled),
                    false => Amounts::ZERO,
                };
                side(*sort_left, inputs[0], c.pulled[0])
                    + side(*sort_right, inputs[1], c.pulled[1])
                    + rule::merge(c.steps)
                    + rule::emit(c.out)
            }
            GJoin { left_sorted, right_sorted, .. } => {
                let (l, r) = (inputs[0], inputs[1]);
                rule::prepare(p, l, *left_sorted, grant(l))
                    + rule::prepare(p, r, *right_sorted, grant(r))
                    + rule::merge(c.steps)
                    + rule::emit(c.out)
            }
            IndexNlJoin { inner_clustered, inner_residual, .. } => {
                rule::descend(c.entries).times(input)
                    + rule::fetch(*inner_clustered, c.steps, c.pages, c.read)
                    + rule::emit(c.read)
                    + residual(inner_residual, c.read)
            }
            Check { .. } => rule::emit(input),
            Aggregate { .. } => rule::hash_agg(input, c.out),
            Sort { .. } => rule::sort(p, input, grant(input)) + rule::emit(c.out),
            TopN { n, .. } => rule::top_n(input, *n as f64) + rule::emit(c.out),
            Project { .. } => rule::emit(c.out),
        }
    }
}

impl PhysicalPlan {
    /// The one costing walk: this plan's output rows and the amounts it
    /// charges, every node priced on the counts `src` gives.
    pub(crate) fn cost_with(&self, src: &mut dyn CountSource, cm: &CostModel) -> (f64, Amounts) {
        let inputs: Vec<(f64, Amounts)> =
            self.inputs().into_iter().map(|i| i.cost_with(src, cm)).collect();
        cm.priced(self, &inputs, src)
    }

    /// What a run of this plan charged, recomputed by the costing walk from
    /// the counts its meters observed; equal to the clock's charge, bit for
    /// bit, for a drained plan on a fresh clock with `cm`'s budget.
    pub fn observed_cost(&self, meters: &[NodeMeter], catalog: &Catalog, cm: &CostModel) -> f64 {
        self.cost_with(&mut Observed::new(meters, catalog), cm).1.cost(&cm.params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rqp_common::expr::{col, lit};
    use rqp_common::{DataType, Schema, Value};
    use rqp_exec::ExecContext;
    use rqp_stats::OracleEstimator;
    use rqp_storage::Table;
    use std::rc::Rc;

    fn scan(table: &str) -> PhysicalPlan {
        PhysicalPlan::TableScan { table: table.into(), filter: None, est_rows: 0.0, est_cost: 0.0 }
    }

    fn join(kind: &str) -> PhysicalPlan {
        let (left, right, edges) = (Box::new(scan("l")), Box::new(scan("r")), Vec::new());
        let (est_rows, est_cost) = (0.0, 0.0);
        match kind {
            "hash" => PhysicalPlan::HashJoin { left, right, edges, est_rows, est_cost },
            "merge" => PhysicalPlan::MergeJoin {
                left,
                right,
                edges,
                sort_left: true,
                sort_right: true,
                est_rows,
                est_cost,
            },
            _ => PhysicalPlan::GJoin {
                left,
                right,
                edges,
                left_sorted: kind == "gjoin sorted",
                right_sorted: kind == "gjoin sorted",
                est_rows,
                est_cost,
            },
        }
    }

    /// The cost `node`'s own operators charge over inputs of `l` and `r`
    /// rows emitting `out`, with the estimator's merge and pull counts.
    fn own_cost(m: &CostModel, node: &PhysicalPlan, l: f64, r: f64, out: f64) -> f64 {
        let c = Counts { out, steps: l + r, pulled: [l, r], ..Counts::default() };
        m.own(node, &[l, r], &c).cost(&m.params)
    }

    fn index_scan(m: &CostModel, entries: f64, matched: f64, clustered: bool) -> f64 {
        let p = &m.params;
        let fetched = rule::fetch(clustered, 0.0, p.pages(matched), matched);
        (rule::descend(entries) + fetched + rule::emit(matched)).cost(p)
    }

    fn table_scan(m: &CostModel, rows: f64) -> f64 {
        rule::scan(m.params.pages(rows), rows).cost(&m.params)
    }

    #[test]
    fn scan_matches_executor_formula() {
        let m = CostModel::default();
        // 1000 rows = 10 pages * 1.0 + 1000 * 0.005
        assert!((table_scan(&m, 1000.0) - 15.0).abs() < 1e-9);
        // And the planned scan, run, charges the walk's estimate bit for bit.
        let mut c = rqp_storage::Catalog::new();
        let mut t = Table::new("t", Schema::from_pairs(&[("k", DataType::Int)]));
        (0..1_234i64).for_each(|i| t.append(vec![Value::Int(i)]));
        c.add_table(t);
        let c = Rc::new(c);
        let oracle = OracleEstimator::new(Rc::clone(&c));
        let spec = crate::QuerySpec::new().table("t").filter("t", col("t.k").lt(lit(617i64)));
        let plan = crate::plan(&spec, &c, &oracle, Default::default()).unwrap();
        let ctx = ExecContext::unbounded();
        assert_eq!(plan.build(&c, &ctx, None).unwrap().run().len(), 617);
        assert_eq!(plan.est_cost().to_bits(), ctx.clock.now().to_bits());
    }

    #[test]
    fn unclustered_index_beats_scan_only_at_low_selectivity() {
        let m = CostModel::default();
        let entries = 100_000.0;
        let scan = table_scan(&m, entries);
        let cheap = index_scan(&m, entries, 100.0, false);
        let expensive = index_scan(&m, entries, 50_000.0, false);
        assert!(cheap < scan, "low selectivity: index wins");
        assert!(expensive > scan, "high selectivity: scan wins");
    }

    #[test]
    fn clustered_index_always_at_most_scan() {
        let m = CostModel::default();
        for matched in [10.0, 1000.0, 100_000.0] {
            assert!(index_scan(&m, 100_000.0, matched, true) <= table_scan(&m, 100_000.0) + 1.0);
        }
    }

    #[test]
    fn hash_join_spill_increases_cost() {
        let bounded = CostModel::with_memory(1_000.0);
        let unbounded = CostModel::default();
        let hj = join("hash");
        // The right input is the build side.
        let small = own_cost(&bounded, &hj, 10_000.0, 500.0, 10_000.0);
        assert_eq!(small, own_cost(&unbounded, &hj, 10_000.0, 500.0, 10_000.0), "fits: same cost");
        let big_bounded = own_cost(&bounded, &hj, 10_000.0, 50_000.0, 10_000.0);
        let big_unbounded = own_cost(&unbounded, &hj, 10_000.0, 50_000.0, 10_000.0);
        assert!(big_bounded > big_unbounded);
    }

    #[test]
    fn gjoin_tracks_best_of_both_worlds() {
        let m = CostModel::default();
        let (l, r, out) = (10_000.0, 10_000.0, 10_000.0);
        let g_sorted = own_cost(&m, &join("gjoin sorted"), l, r, out);
        let merge_only = (rule::merge(l + r) + rule::emit(out)).cost(&m.params);
        // g-join adds one verification pass of comparisons over a merge.
        assert!((g_sorted - merge_only) / merge_only < 0.5, "sorted: ≈ merge join");
        let g_unsorted = own_cost(&m, &join("gjoin"), l, r, out);
        let hash = own_cost(&m, &join("hash"), l, r, out);
        assert!(
            g_unsorted < hash * 6.0,
            "unsorted: within a small factor of hash ({g_unsorted} vs {hash})"
        );
        assert!(g_unsorted <= own_cost(&m, &join("merge"), l, r, out), "no sort output pass");
    }

    #[test]
    fn sort_spills_beyond_memory() {
        let sort = |m: &CostModel, n: f64| {
            let node = PhysicalPlan::Sort {
                input: Box::new(scan("t")),
                keys: Vec::new(),
                est_rows: 0.0,
                est_cost: 0.0,
            };
            m.own(&node, &[n], &Counts { out: n, ..Counts::default() }).cost(&m.params)
        };
        let m = CostModel::with_memory(1_000.0);
        let fits = sort(&m, 900.0);
        let spills = sort(&m, 50_000.0);
        assert!(spills > fits);
        assert!(spills > sort(&CostModel::default(), 50_000.0));
    }

    #[test]
    fn degenerate_inputs() {
        let m = CostModel::default();
        let p = &m.params;
        assert_eq!(rule::sort(p, 0.0, 0.0), Amounts::ZERO);
        assert_eq!(rule::sort(p, 1.0, 0.0), Amounts::ZERO);
        assert!(table_scan(&m, 0.0) >= 0.0);
        assert_eq!(own_cost(&m, &join("hash"), 0.0, 0.0, 0.0), 0.0);
    }
}
