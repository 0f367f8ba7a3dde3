//! Physical plan trees.
//!
//! A [`PhysicalPlan`] carries, per node, the estimated output rows and
//! cumulative cost it was planned with. Three capabilities matter to the
//! robustness experiments:
//!
//! * [`PhysicalPlan::fingerprint`] — a structure-only identity (used to
//!   color plan diagrams and detect plan flips);
//! * [`PhysicalPlan::reestimate`] — re-derive rows/cost for the *same* plan
//!   shape under a *different* estimator (robust costing, plan diagrams,
//!   validity ranges all need to ask "what would this plan cost if the
//!   selectivities were X?"), through the one costing walk of [`crate::cost`]
//!   the planner prices with;
//! * [`PhysicalPlan::build`] — compile to `rqp-exec` operators. Every
//!   operator carries a telemetry span, so actual cardinalities are
//!   observable (POP, LEO) through the per-node [`NodeMeter`]s without any
//!   wrapper layer.

use crate::cost::{CostModel, Estimated};
use crate::query::JoinEdge;
use rqp_common::{Expr, Result, RqpError, StringDict, Value};
use rqp_exec::{
    AggSpec, BatchFilterOp, BatchHashAggOp, BatchHashJoinOp, BatchProjectOp, BatchRowsOp,
    BatchScanOp, BoxBatchOp, BoxOp, CheckOp, ExecContext, FilterOp, GJoinOp, HashAggOp,
    HashJoinOp, IndexNlJoinOp, IndexScanOp, MergeJoinOp, PopSignal, ProjectOp, SortOp, SpanHandle,
    TopNOp,
};
use rqp_stats::CardEstimator;
use rqp_storage::Catalog;
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

/// A physical plan node (with estimates attached).
#[derive(Debug, Clone)]
pub enum PhysicalPlan {
    /// Sequential scan + optional filter.
    TableScan {
        /// Table name.
        table: String,
        /// Full local predicate applied at this node.
        filter: Option<Expr>,
        /// Estimated output rows.
        est_rows: f64,
        /// Estimated cumulative cost.
        est_cost: f64,
    },
    /// Index scan: equality prefix + range on the next indexed column, then
    /// a residual filter.
    IndexScan {
        /// Table name.
        table: String,
        /// Index name in the catalog.
        index: String,
        /// Equality values for the leading indexed columns (empty on a
        /// one-column index).
        prefix: Vec<Value>,
        /// Inclusive lower bound on the column after the prefix.
        lo: Option<Value>,
        /// Inclusive upper bound.
        hi: Option<Value>,
        /// The predicate answered by the index (for re-estimation).
        range_filter: Expr,
        /// Residual predicate applied after the index.
        residual: Option<Expr>,
        /// The index was clustered when the plan was costed.
        clustered: bool,
        /// Estimated output rows (after residual).
        est_rows: f64,
        /// Estimated cumulative cost.
        est_cost: f64,
    },
    /// Hash join (right child is the build side).
    HashJoin {
        /// Probe side.
        left: Box<PhysicalPlan>,
        /// Build side.
        right: Box<PhysicalPlan>,
        /// Join edges, oriented left→right.
        edges: Vec<JoinEdge>,
        /// Estimated output rows.
        est_rows: f64,
        /// Estimated cumulative cost.
        est_cost: f64,
    },
    /// Sort-merge join (children sorted on demand).
    MergeJoin {
        /// Left input.
        left: Box<PhysicalPlan>,
        /// Right input.
        right: Box<PhysicalPlan>,
        /// Join edges, oriented left→right.
        edges: Vec<JoinEdge>,
        /// Sort the left input first.
        sort_left: bool,
        /// Sort the right input first.
        sort_right: bool,
        /// Estimated output rows.
        est_rows: f64,
        /// Estimated cumulative cost.
        est_cost: f64,
    },
    /// Generalized join (g-join).
    GJoin {
        /// Left input.
        left: Box<PhysicalPlan>,
        /// Right input.
        right: Box<PhysicalPlan>,
        /// Join edges, oriented left→right.
        edges: Vec<JoinEdge>,
        /// Left input arrives sorted on the key.
        left_sorted: bool,
        /// Right input arrives sorted on the key.
        right_sorted: bool,
        /// Estimated output rows.
        est_rows: f64,
        /// Estimated cumulative cost.
        est_cost: f64,
    },
    /// Index-nested-loop join into a base table.
    IndexNlJoin {
        /// Outer input.
        outer: Box<PhysicalPlan>,
        /// Inner table name.
        inner_table: String,
        /// Inner index name.
        inner_index: String,
        /// Edge oriented outer→inner.
        edge: JoinEdge,
        /// Inner local predicate applied as residual after the probe.
        inner_residual: Option<Expr>,
        /// The inner index was clustered when the plan was costed.
        inner_clustered: bool,
        /// Estimated output rows.
        est_rows: f64,
        /// Estimated cumulative cost.
        est_cost: f64,
    },
    /// POP checkpoint (materializes, compares against the validity range).
    Check {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// Checkpoint id.
        id: usize,
        /// Validity range on actual cardinality.
        validity: (f64, f64),
        /// Estimated output rows.
        est_rows: f64,
        /// Estimated cumulative cost.
        est_cost: f64,
    },
    /// Hash aggregation.
    Aggregate {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// Group-by columns (qualified).
        group_by: Vec<String>,
        /// Aggregates.
        aggs: Vec<AggSpec>,
        /// Estimated output rows.
        est_rows: f64,
        /// Estimated cumulative cost.
        est_cost: f64,
    },
    /// Sort (ascending).
    Sort {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// Sort columns (qualified).
        keys: Vec<String>,
        /// Estimated output rows.
        est_rows: f64,
        /// Estimated cumulative cost.
        est_cost: f64,
    },
    /// Top-N (ascending by keys).
    TopN {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// Sort columns (qualified).
        keys: Vec<String>,
        /// Row limit.
        n: usize,
        /// Estimated output rows.
        est_rows: f64,
        /// Estimated cumulative cost.
        est_cost: f64,
    },
    /// Column projection.
    Project {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// Output columns (qualified).
        columns: Vec<String>,
        /// Estimated output rows.
        est_rows: f64,
        /// Estimated cumulative cost.
        est_cost: f64,
    },
}

impl PhysicalPlan {
    /// Estimated output rows of this node.
    pub fn est_rows(&self) -> f64 {
        self.estimates().0
    }

    /// Estimated cumulative cost of this node.
    pub fn est_cost(&self) -> f64 {
        self.estimates().1
    }

    /// `(est_rows, est_cost)`.
    fn estimates(&self) -> (f64, f64) {
        use PhysicalPlan::*;
        match self {
            TableScan { est_rows, est_cost, .. }
            | IndexScan { est_rows, est_cost, .. }
            | HashJoin { est_rows, est_cost, .. }
            | MergeJoin { est_rows, est_cost, .. }
            | GJoin { est_rows, est_cost, .. }
            | IndexNlJoin { est_rows, est_cost, .. }
            | Check { est_rows, est_cost, .. }
            | Aggregate { est_rows, est_cost, .. }
            | Sort { est_rows, est_cost, .. }
            | TopN { est_rows, est_cost, .. }
            | Project { est_rows, est_cost, .. } => (*est_rows, *est_cost),
        }
    }

    /// Structure-only identity: same fingerprint ⇔ same operators, same
    /// shape, same access paths (estimates excluded). Used to color plan
    /// diagrams and count plan flips.
    pub fn fingerprint(&self) -> String {
        use PhysicalPlan::*;
        match self {
            TableScan { table, .. } => format!("scan({table})"),
            IndexScan { table, index, .. } => format!("ixscan({table}:{index})"),
            HashJoin { left, right, .. } => {
                format!("hj({},{})", left.fingerprint(), right.fingerprint())
            }
            MergeJoin { left, right, .. } => {
                format!("mj({},{})", left.fingerprint(), right.fingerprint())
            }
            GJoin { left, right, .. } => {
                format!("gj({},{})", left.fingerprint(), right.fingerprint())
            }
            IndexNlJoin { outer, inner_table, inner_index, .. } => {
                format!("inl({},{inner_table}:{inner_index})", outer.fingerprint())
            }
            Check { input, .. } => format!("check({})", input.fingerprint()),
            Aggregate { input, .. } => format!("agg({})", input.fingerprint()),
            Sort { input, .. } => format!("sort({})", input.fingerprint()),
            TopN { input, n, .. } => format!("top{n}({})", input.fingerprint()),
            Project { input, .. } => format!("proj({})", input.fingerprint()),
        }
    }

    /// Tables covered by this subtree, sorted.
    pub fn tables(&self) -> Vec<String> {
        use PhysicalPlan::*;
        let mut out: Vec<String> = self.inputs().iter().flat_map(|i| i.tables()).collect();
        match self {
            TableScan { table, .. } | IndexScan { table, .. } => out.push(table.clone()),
            IndexNlJoin { inner_table, .. } => out.push(inner_table.clone()),
            _ => {}
        }
        out.sort();
        out
    }

    /// This node's inputs, in build order.
    pub(crate) fn inputs(&self) -> Vec<&PhysicalPlan> {
        use PhysicalPlan::*;
        match self {
            TableScan { .. } | IndexScan { .. } => Vec::new(),
            HashJoin { left, right, .. }
            | MergeJoin { left, right, .. }
            | GJoin { left, right, .. } => vec![left, right],
            IndexNlJoin { outer: input, .. }
            | Check { input, .. }
            | Aggregate { input, .. }
            | Sort { input, .. }
            | TopN { input, .. }
            | Project { input, .. } => vec![input],
        }
    }

    /// This node's inputs, in build order, to rewrite.
    pub(crate) fn inputs_mut(&mut self) -> Vec<&mut Box<PhysicalPlan>> {
        use PhysicalPlan::*;
        match self {
            TableScan { .. } | IndexScan { .. } => Vec::new(),
            HashJoin { left, right, .. }
            | MergeJoin { left, right, .. }
            | GJoin { left, right, .. } => vec![left, right],
            IndexNlJoin { outer: input, .. }
            | Check { input, .. }
            | Aggregate { input, .. }
            | Sort { input, .. }
            | TopN { input, .. }
            | Project { input, .. } => vec![input],
        }
    }

    /// Attach the estimates this node was priced with.
    pub(crate) fn set_estimates(&mut self, rows: f64, cost: f64) {
        use PhysicalPlan::*;
        match self {
            TableScan { est_rows, est_cost, .. }
            | IndexScan { est_rows, est_cost, .. }
            | HashJoin { est_rows, est_cost, .. }
            | MergeJoin { est_rows, est_cost, .. }
            | GJoin { est_rows, est_cost, .. }
            | IndexNlJoin { est_rows, est_cost, .. }
            | Check { est_rows, est_cost, .. }
            | Aggregate { est_rows, est_cost, .. }
            | Sort { est_rows, est_cost, .. }
            | TopN { est_rows, est_cost, .. }
            | Project { est_rows, est_cost, .. } => (*est_rows, *est_cost) = (rows, cost),
        }
    }

    /// `(rows, cumulative cost)` of this plan shape under a different
    /// estimator (and cost model), through the costing walk the planner
    /// prices with: under the planning estimator and model it returns the
    /// plan's own `(est_rows(), est_cost())`, bit for bit. The plan's stored
    /// estimates are untouched.
    pub fn reestimate(&self, est: &dyn CardEstimator, cm: &CostModel) -> (f64, f64) {
        let (rows, amounts) = self.cost_with(&mut Estimated { est, joined: None }, cm);
        (rows, amounts.cost(&cm.params))
    }

    /// Compile to executable operators, metering every node.
    ///
    /// Every maximal batchable subtree becomes one batch pipeline over one
    /// [`StringDict`]: a `TableScan` is a [`BatchScanOp`] (then a
    /// [`BatchFilterOp`] for its predicate), a single-edge `HashJoin` of two
    /// batchable inputs a [`BatchHashJoinOp`], and a `Project` of a
    /// batchable input a [`BatchProjectOp`]. An `Aggregate` of a batchable
    /// input is a [`BatchHashAggOp`], which hands rows on. One
    /// [`BatchRowsOp`] adapter goes where a row operator consumes a
    /// pipeline, or at the root. Each node's meter reads the span of the
    /// operator that hands its output on: the adapter's, where there is one.
    pub fn build(
        &self,
        catalog: &Catalog,
        ctx: &ExecContext,
        signal: Option<Rc<PopSignal>>,
    ) -> Result<BuiltPlan> {
        let dict = Arc::new(StringDict::new());
        let mut lw = Lowering { catalog, ctx, signal, dict, meters: Vec::new(), own_from: 0 };
        let root = self.rows(&mut lw)?;
        Ok(BuiltPlan { root, meters: lw.meters })
    }

    /// Whether this node lowers to a batch operator: a table scan, a
    /// single-edge hash join of two batchable inputs, or a projection of a
    /// batchable input.
    fn batchable(&self) -> bool {
        use PhysicalPlan::*;
        match self {
            TableScan { .. } => true,
            HashJoin { left, right, edges, .. } => {
                edges.len() == 1 && left.batchable() && right.batchable()
            }
            Project { input, .. } => input.batchable(),
            _ => false,
        }
    }

    /// Lower this node for a row consumer.
    fn rows(&self, lw: &mut Lowering<'_>) -> Result<BoxOp> {
        match self.lower(lw, true)? {
            Lowered::Rows(op) => Ok(op),
            Lowered::Batch(_) => unreachable!("a row consumer gets the adapter"),
        }
    }

    /// Lower this (batchable) node for a batch consumer.
    fn batch(&self, lw: &mut Lowering<'_>) -> Result<BoxBatchOp> {
        match self.lower(lw, false)? {
            Lowered::Batch(op) => Ok(op),
            Lowered::Rows(_) => unreachable!("only a batchable node has a batch consumer"),
        }
    }

    /// Lower this node, behind the row adapter when `for_rows` and the node
    /// is batchable, and push its meter.
    fn lower(&self, lw: &mut Lowering<'_>, for_rows: bool) -> Result<Lowered> {
        use Lowered::{Batch, Rows};
        use PhysicalPlan::*;
        let subtree_start = lw.meters.len();
        let ctx = lw.ctx;
        // A leaf's operators open from here; each input's lowering moves the
        // mark past its own spans.
        lw.own_from = ctx.tracer.len();
        let batchable = self.batchable();
        let op = match self {
            TableScan { table, filter, .. } => {
                let t = lw.catalog.table(table)?;
                let end = t.nrows();
                let mut batch: BoxBatchOp =
                    Box::new(BatchScanOp::with_dict(t, 0, end, Arc::clone(&lw.dict), ctx.clone()));
                if let Some(f) = filter {
                    batch = Box::new(BatchFilterOp::new(batch, f, ctx.clone())?);
                }
                Batch(batch)
            }
            IndexScan { table, index, prefix, lo, hi, residual, .. } => {
                let t = lw.catalog.table(table)?;
                let ix = lw.catalog.index(index)?;
                let (prefix, lo, hi) = (prefix.clone(), lo.clone(), hi.clone());
                let scan: BoxOp = Box::new(IndexScanOp::new(ix, t, prefix, lo, hi, ctx.clone()));
                Rows(match residual {
                    Some(r) => Box::new(FilterOp::new(scan, r, ctx.clone())?),
                    None => scan,
                })
            }
            HashJoin { left, right, edges, .. } if batchable => {
                let (l, r) = (left.batch(lw)?, right.batch(lw)?);
                let e = &edges[0];
                let (lk, rk) = (e.left_qualified(), e.right_qualified());
                Batch(Box::new(BatchHashJoinOp::new(l, r, &lk, &rk, ctx.clone())?))
            }
            HashJoin { left, right, edges, .. } => {
                let (l, r) = (left.rows(lw)?, right.rows(lw)?);
                let (lk, rk) = edge_keys(edges);
                Rows(Box::new(HashJoinOp::new(l, r, &refs(&lk), &refs(&rk), ctx.clone())?))
            }
            MergeJoin { left, right, edges, sort_left, sort_right, .. } => {
                let (mut l, mut r) = (left.rows(lw)?, right.rows(lw)?);
                let (lk, rk) = edge_keys(edges);
                if *sort_left {
                    l = Box::new(SortOp::asc(l, &refs(&lk), ctx.clone())?);
                }
                if *sort_right {
                    r = Box::new(SortOp::asc(r, &refs(&rk), ctx.clone())?);
                }
                Rows(Box::new(MergeJoinOp::new(l, r, &refs(&lk), &refs(&rk), ctx.clone())?))
            }
            GJoin { left, right, edges, left_sorted, right_sorted, .. } => {
                let (l, r) = (left.rows(lw)?, right.rows(lw)?);
                let (lk, rk) = edge_keys(edges);
                let (lk, rk, ls, rs) = (refs(&lk), refs(&rk), *left_sorted, *right_sorted);
                Rows(Box::new(GJoinOp::new(l, r, &lk, &rk, ls, rs, None, ctx.clone())?))
            }
            IndexNlJoin { outer, inner_table, inner_index, edge, inner_residual, .. } => {
                let o = outer.rows(lw)?;
                let ix = lw.catalog.index(inner_index)?;
                let t = lw.catalog.table(inner_table)?;
                let join: BoxOp =
                    Box::new(IndexNlJoinOp::new(o, &edge.left_qualified(), ix, t, ctx.clone())?);
                Rows(match inner_residual {
                    Some(p) => Box::new(FilterOp::new(join, p, ctx.clone())?),
                    None => join,
                })
            }
            Check { input, id, validity, est_rows, .. } => {
                let i = input.rows(lw)?;
                let sig = lw.signal.as_ref().ok_or_else(|| {
                    RqpError::Planning("CHECK node requires a PopSignal".into())
                })?;
                let sig = Rc::clone(sig);
                Rows(Box::new(CheckOp::new(i, *id, *est_rows, *validity, sig, ctx.clone())))
            }
            Aggregate { input, group_by, aggs, .. } if input.batchable() => {
                let i = input.batch(lw)?;
                Rows(Box::new(BatchHashAggOp::new(i, &refs(group_by), aggs, ctx.clone())?))
            }
            Aggregate { input, group_by, aggs, .. } => {
                let i = input.rows(lw)?;
                Rows(Box::new(HashAggOp::new(i, &refs(group_by), aggs, ctx.clone())?))
            }
            Sort { input, keys, .. } => {
                let i = input.rows(lw)?;
                Rows(Box::new(SortOp::asc(i, &refs(keys), ctx.clone())?))
            }
            TopN { input, keys, n, .. } => {
                let i = input.rows(lw)?;
                let ks: Vec<(&str, rqp_exec::sort::SortOrder)> = keys
                    .iter()
                    .map(|s| (s.as_str(), rqp_exec::sort::SortOrder::Asc))
                    .collect();
                Rows(Box::new(TopNOp::new(i, &ks, *n, ctx.clone())?))
            }
            Project { input, columns, .. } if batchable => {
                let i = input.batch(lw)?;
                Batch(Box::new(BatchProjectOp::columns(i, &refs(columns), ctx.clone())?))
            }
            Project { input, columns, .. } => {
                let i = input.rows(lw)?;
                Rows(Box::new(ProjectOp::columns(i, &refs(columns), ctx.clone())?))
            }
        };
        let label = self.fingerprint();
        let op = match op {
            Batch(op) if for_rows => {
                // The pipeline's top operator carries its node's label too.
                // The estimate stays on the adapter alone, which the meter
                // reads: one estimated span per node.
                let top = op.span().expect("every rqp-exec operator carries a span");
                top.set_detail(&label);
                Rows(BatchRowsOp::boxed(op, ctx.clone()))
            }
            op => op,
        };
        let span = op.span().clone();
        span.set_detail(&label);
        span.set_est_rows(self.est_rows());
        let ops = ctx.tracer.spans_from(lw.own_from);
        lw.own_from = ctx.tracer.len();
        lw.meters.push(NodeMeter {
            label,
            est_rows: self.est_rows(),
            span,
            ops,
            feedback_signature: self.feedback_signature(),
            subtree_start,
        });
        Ok(op)
    }

    /// LEO feedback signature for this node (scans and joins only).
    fn feedback_signature(&self) -> Option<String> {
        use PhysicalPlan::*;
        match self {
            TableScan { table, filter: Some(f), .. } => {
                Some(rqp_stats::FeedbackRepo::signature(table, f))
            }
            IndexScan { table, range_filter, residual, .. } => {
                let full = match residual {
                    Some(r) => range_filter.clone().and(r.clone()),
                    None => range_filter.clone(),
                };
                Some(rqp_stats::FeedbackRepo::signature(table, &full))
            }
            HashJoin { edges, .. } | MergeJoin { edges, .. } | GJoin { edges, .. } => {
                edges.first().map(join_signature)
            }
            IndexNlJoin { edge, .. } => Some(join_signature(edge)),
            _ => None,
        }
    }

    fn fmt_tree(&self, f: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
        use PhysicalPlan::*;
        let pad = "  ".repeat(indent);
        let head = |name: &str| {
            format!(
                "{pad}{name} [rows≈{:.0} cost≈{:.1}]",
                self.est_rows(),
                self.est_cost()
            )
        };
        match self {
            TableScan { table, filter, .. } => {
                writeln!(
                    f,
                    "{} {}{}",
                    head("TableScan"),
                    table,
                    filter
                        .as_ref()
                        .map(|p| format!(" filter {p}"))
                        .unwrap_or_default()
                )
            }
            IndexScan { table, index, prefix, lo, hi, residual, .. } => {
                writeln!(
                    f,
                    "{} {table} via {index}{} [{:?}..{:?}]{}",
                    head("IndexScan"),
                    if prefix.is_empty() { String::new() } else { format!(" prefix {prefix:?}") },
                    lo,
                    hi,
                    residual
                        .as_ref()
                        .map(|p| format!(" residual {p}"))
                        .unwrap_or_default()
                )
            }
            HashJoin { left, right, edges, .. }
            | MergeJoin { left, right, edges, .. }
            | GJoin { left, right, edges, .. } => {
                let name = match self {
                    HashJoin { .. } => "HashJoin",
                    MergeJoin { .. } => "MergeJoin",
                    _ => "GJoin",
                };
                writeln!(f, "{} on {}", head(name), fmt_edges(edges))?;
                left.fmt_tree(f, indent + 1)?;
                right.fmt_tree(f, indent + 1)
            }
            IndexNlJoin { outer, inner_table, inner_index, edge, .. } => {
                writeln!(
                    f,
                    "{} probe {inner_table}:{inner_index} on {}",
                    head("IndexNLJoin"),
                    fmt_edges(std::slice::from_ref(edge))
                )?;
                outer.fmt_tree(f, indent + 1)
            }
            Check { input, id, validity, .. } => {
                writeln!(f, "{} #{id} valid [{:.0},{:.0}]", head("CHECK"), validity.0, validity.1)?;
                input.fmt_tree(f, indent + 1)
            }
            Aggregate { input, group_by, .. } => {
                writeln!(f, "{} by {:?}", head("HashAgg"), group_by)?;
                input.fmt_tree(f, indent + 1)
            }
            Sort { input, keys, .. } => {
                writeln!(f, "{} by {:?}", head("Sort"), keys)?;
                input.fmt_tree(f, indent + 1)
            }
            TopN { input, keys, n, .. } => {
                writeln!(f, "{} {n} by {:?}", head("TopN"), keys)?;
                input.fmt_tree(f, indent + 1)
            }
            Project { input, columns, .. } => {
                writeln!(f, "{} {:?}", head("Project"), columns)?;
                input.fmt_tree(f, indent + 1)
            }
        }
    }
}

/// LEO's feedback key for a join on `e`.
fn join_signature(e: &JoinEdge) -> String {
    format!("join|{}.{}={}.{}", e.left_table, e.left_col, e.right_table, e.right_col)
}

fn fmt_edges(edges: &[JoinEdge]) -> String {
    edges
        .iter()
        .map(|e| format!("{}={}", e.left_qualified(), e.right_qualified()))
        .collect::<Vec<_>>()
        .join(" AND ")
}

/// What [`PhysicalPlan::build`] threads through the tree: the catalog, the
/// context, POP's signal, the plan's one string dictionary and the meters
/// pushed so far.
struct Lowering<'a> {
    catalog: &'a Catalog,
    ctx: &'a ExecContext,
    signal: Option<Rc<PopSignal>>,
    dict: Arc<StringDict>,
    meters: Vec<NodeMeter>,
    /// Tracer position where the node being lowered opens its own operators.
    own_from: usize,
}

/// One lowered plan node: a batch pipeline still open to a batch consumer,
/// or a row operator.
enum Lowered {
    Batch(BoxBatchOp),
    Rows(BoxOp),
}

impl Lowered {
    /// The span of the operator producing this node's output.
    fn span(&self) -> &SpanHandle {
        let span = match self {
            Lowered::Batch(op) => op.span(),
            Lowered::Rows(op) => op.span(),
        };
        span.expect("every rqp-exec operator carries a span")
    }
}

/// Column names as the operators' constructors take them.
fn refs(names: &[String]) -> Vec<&str> {
    names.iter().map(|s| s.as_str()).collect()
}

/// Qualified key column lists for join construction.
fn edge_keys(edges: &[JoinEdge]) -> (Vec<String>, Vec<String>) {
    let lk = edges.iter().map(|e| e.left_qualified()).collect();
    let rk = edges.iter().map(|e| e.right_qualified()).collect();
    (lk, rk)
}

/// Estimated join output: |L| × |R| × ∏ edge selectivities.
pub(crate) fn join_rows(lr: f64, rr: f64, edges: &[JoinEdge], est: &dyn CardEstimator) -> f64 {
    let sel: f64 = edges
        .iter()
        .map(|e| {
            est.join_selectivity(&e.left_table, &e.left_col, &e.right_table, &e.right_col)
        })
        .product();
    lr * rr * sel
}

impl fmt::Display for PhysicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_tree(f, 0)
    }
}

/// Actual-cardinality meter for one plan node.
pub struct NodeMeter {
    /// Node fingerprint (human-readable).
    pub label: String,
    /// The estimate the plan carried.
    pub est_rows: f64,
    /// Telemetry span of the node's top operator: live actuals, timings,
    /// memory grants and spills.
    pub span: SpanHandle,
    /// Spans of the node's own operators (its inputs' excluded), in build
    /// order: where the costing walk reads a run's observed counts.
    pub ops: Vec<SpanHandle>,
    /// LEO feedback key for this node, when applicable.
    pub feedback_signature: Option<String>,
    /// Index of the first meter belonging to this node's subtree (meters are
    /// pushed in post-order; the subtree of meter `i` is `subtree_start..i`).
    pub subtree_start: usize,
}

impl NodeMeter {
    /// Rows this node has actually produced so far.
    pub fn actual_rows(&self) -> usize {
        self.span.rows() as usize
    }
}

/// A compiled plan: root operator plus per-node meters.
pub struct BuiltPlan {
    /// Root operator (pull from this).
    pub root: BoxOp,
    /// Meters in build (post-)order; the last is the root.
    pub meters: Vec<NodeMeter>,
}

impl BuiltPlan {
    /// Drain the plan, returning all rows.
    pub fn run(&mut self) -> Vec<rqp_common::Row> {
        rqp_exec::collect(self.root.as_mut())
    }

    /// Indices of meter `i`'s *direct* children (post-order recovery).
    pub fn children_of(&self, i: usize) -> Vec<usize> {
        let start = self.meters[i].subtree_start;
        let mut out = Vec::new();
        let mut j = i;
        while j > start {
            let child = j - 1;
            out.push(child);
            j = self.meters[child].subtree_start;
        }
        out.reverse();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rqp_common::expr::{col, lit};
    use rqp_common::{DataType, Schema, Value};
    use rqp_stats::{StatsEstimator, TableStatsRegistry};
    use rqp_storage::Table;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let schema = Schema::from_pairs(&[("k", DataType::Int), ("g", DataType::Int)]);
        let mut t = Table::new("t", schema);
        for i in 0..1000i64 {
            t.append(vec![Value::Int(i), Value::Int(i % 10)]);
        }
        c.add_table(t);
        let schema = Schema::from_pairs(&[("g", DataType::Int), ("w", DataType::Int)]);
        let mut u = Table::new("u", schema);
        for i in 0..100i64 {
            u.append(vec![Value::Int(i % 10), Value::Int(i)]);
        }
        c.add_table(u);
        c.create_index("ix_t_k", "t", &["k"]).unwrap();
        c
    }

    fn scan(table: &str, filter: Option<Expr>) -> PhysicalPlan {
        PhysicalPlan::TableScan { table: table.into(), filter, est_rows: 0.0, est_cost: 0.0 }
    }

    #[test]
    fn build_and_run_scan_filter() {
        let c = catalog();
        let ctx = ExecContext::unbounded();
        let plan = scan("t", Some(col("t.k").lt(lit(100i64))));
        let mut built = plan.build(&c, &ctx, None).unwrap();
        let rows = built.run();
        assert_eq!(rows.len(), 100);
        assert_eq!(built.meters.len(), 1);
        assert_eq!(built.meters[0].actual_rows(), 100);
    }

    #[test]
    fn build_hash_join_plan() {
        let c = catalog();
        let ctx = ExecContext::unbounded();
        let plan = PhysicalPlan::HashJoin {
            left: Box::new(scan("t", Some(col("t.k").lt(lit(50i64))))),
            right: Box::new(scan("u", None)),
            edges: vec![JoinEdge::new("t", "g", "u", "g")],
            est_rows: 500.0,
            est_cost: 0.0,
        };
        let mut built = plan.build(&c, &ctx, None).unwrap();
        let rows = built.run();
        // 50 t-rows × 10 matching u-rows each
        assert_eq!(rows.len(), 500);
        assert_eq!(built.meters.len(), 3);
        // meters in post-order: t-scan, u-scan, join
        assert_eq!(built.meters[2].actual_rows(), 500);
    }

    #[test]
    fn merge_join_with_sorts_matches_hash_join() {
        let c = catalog();
        let mk_children = || {
            (
                Box::new(scan("t", Some(col("t.k").lt(lit(50i64))))),
                Box::new(scan("u", None)),
            )
        };
        let edges = vec![JoinEdge::new("t", "g", "u", "g")];
        let (l, r) = mk_children();
        let mj = PhysicalPlan::MergeJoin {
            left: l,
            right: r,
            edges: edges.clone(),
            sort_left: true,
            sort_right: true,
            est_rows: 0.0,
            est_cost: 0.0,
        };
        let ctx = ExecContext::unbounded();
        let n_mj = mj.build(&c, &ctx, None).unwrap().run().len();
        assert_eq!(n_mj, 500);
    }

    #[test]
    fn index_scan_plan() {
        let c = catalog();
        let ctx = ExecContext::unbounded();
        let plan = PhysicalPlan::IndexScan {
            table: "t".into(),
            index: "ix_t_k".into(),
            prefix: Vec::new(),
            lo: Some(Value::Int(10)),
            hi: Some(Value::Int(19)),
            range_filter: col("t.k").between(10i64, 19i64),
            residual: Some(col("t.g").eq(lit(5i64))),
            clustered: true,
            est_rows: 1.0,
            est_cost: 0.0,
        };
        let mut built = plan.build(&c, &ctx, None).unwrap();
        let rows = built.run();
        assert_eq!(rows.len(), 1); // k=15 only
        assert_eq!(rows[0][0], Value::Int(15));
    }

    #[test]
    fn inl_join_plan() {
        let c = catalog();
        let ctx = ExecContext::unbounded();
        let plan = PhysicalPlan::IndexNlJoin {
            outer: Box::new(scan("u", Some(col("u.w").lt(lit(5i64))))),
            inner_table: "t".into(),
            inner_index: "ix_t_k".into(),
            edge: JoinEdge::new("u", "w", "t", "k"),
            inner_residual: None,
            inner_clustered: true,
            est_rows: 5.0,
            est_cost: 0.0,
        };
        let mut built = plan.build(&c, &ctx, None).unwrap();
        let rows = built.run();
        assert_eq!(rows.len(), 5, "w∈0..5 each matches one t.k");
    }

    #[test]
    fn aggregate_and_sort_pipeline() {
        let c = catalog();
        let ctx = ExecContext::unbounded();
        let plan = PhysicalPlan::Sort {
            input: Box::new(PhysicalPlan::Aggregate {
                input: Box::new(scan("t", None)),
                group_by: vec!["t.g".into()],
                aggs: vec![AggSpec::count_star("n")],
                est_rows: 10.0,
                est_cost: 0.0,
            }),
            keys: vec!["n".into()],
            est_rows: 10.0,
            est_cost: 0.0,
        };
        let mut built = plan.build(&c, &ctx, None).unwrap();
        let rows = built.run();
        assert_eq!(rows.len(), 10);
        assert!(rows.iter().all(|r| r[1] == Value::Int(100)));
    }

    #[test]
    fn fingerprints_ignore_estimates() {
        let a = scan("t", Some(col("t.k").lt(lit(10i64))));
        let mut b = scan("t", Some(col("t.k").lt(lit(900i64))));
        if let PhysicalPlan::TableScan { est_rows, .. } = &mut b {
            *est_rows = 900.0;
        }
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn reestimate_under_oracle() {
        let c = Rc::new(catalog());
        let oracle = rqp_stats::OracleEstimator::new(Rc::clone(&c));
        let cm = CostModel::default();
        let plan = scan("t", Some(col("t.k").lt(lit(100i64))));
        let (rows, cost) = plan.reestimate(&oracle, &cm);
        assert!((rows - 100.0).abs() < 1e-6);
        // A scan's cost reads the table's rows, which the oracle knows: the
        // run charges the estimate, bit for bit.
        let ctx = ExecContext::unbounded();
        plan.build(&c, &ctx, None).unwrap().run();
        assert_eq!(cost.to_bits(), ctx.clock.now().to_bits(), "{cost} vs {}", ctx.clock.now());
        // Join reestimation; fed the run's observed counts, the same walk
        // returns the charged cost bit for bit.
        let j = PhysicalPlan::HashJoin {
            left: Box::new(scan("t", None)),
            right: Box::new(scan("u", None)),
            edges: vec![JoinEdge::new("t", "g", "u", "g")],
            est_rows: 0.0,
            est_cost: 0.0,
        };
        let (rows, cost) = j.reestimate(&oracle, &cm);
        assert!((rows - 10_000.0).abs() < 1.0, "1000×100×0.1, got {rows}");
        let ctx = ExecContext::unbounded();
        let mut built = j.build(&c, &ctx, None).unwrap();
        assert_eq!(built.run().len(), 10_000);
        let charged = ctx.clock.now();
        assert_eq!(j.observed_cost(&built.meters, &c, &cm).to_bits(), charged.to_bits());
        assert!((cost - charged).abs() < 1e-6, "{cost} vs {charged}");
        // A clustered index scan is re-costed as the clustered scan it is.
        let ix = PhysicalPlan::IndexScan {
            table: "t".into(),
            index: "ix_t_k".into(),
            prefix: Vec::new(),
            lo: Some(Value::Int(0)),
            hi: Some(Value::Int(499)),
            range_filter: col("t.k").between(0i64, 499i64),
            residual: None,
            clustered: true,
            est_rows: 0.0,
            est_cost: 0.0,
        };
        let (_, cost) = ix.reestimate(&oracle, &cm);
        let ctx = ExecContext::unbounded();
        assert_eq!(ix.build(&c, &ctx, None).unwrap().run().len(), 500);
        assert!((cost - ctx.clock.now()).abs() < 1e-6, "{cost} vs {}", ctx.clock.now());
    }

    #[test]
    fn reestimate_with_stats_registry() {
        let c = catalog();
        let reg = Rc::new(TableStatsRegistry::analyze_catalog(&c, 16));
        let est = StatsEstimator::new(reg);
        let cm = CostModel::default();
        let plan = scan("t", Some(col("t.k").between(0i64, 249i64)));
        let (rows, _) = plan.reestimate(&est, &cm);
        assert!((rows - 250.0).abs() < 30.0, "got {rows}");
    }

    #[test]
    fn check_node_requires_signal() {
        let c = catalog();
        let ctx = ExecContext::unbounded();
        let plan = PhysicalPlan::Check {
            input: Box::new(scan("t", None)),
            id: 0,
            validity: (0.0, 1e9),
            est_rows: 1000.0,
            est_cost: 0.0,
        };
        assert!(plan.build(&c, &ctx, None).is_err());
        let sig = PopSignal::new();
        let mut built = plan.build(&c, &ctx, Some(sig)).unwrap();
        assert_eq!(built.run().len(), 1000);
    }

    #[test]
    fn meter_children_recovered_in_post_order() {
        let c = catalog();
        let ctx = ExecContext::unbounded();
        // join(scan(t), join-ish right): a 3-meter tree — t-scan, u-scan, join.
        let plan = PhysicalPlan::HashJoin {
            left: Box::new(scan("t", Some(col("t.k").lt(lit(50i64))))),
            right: Box::new(scan("u", None)),
            edges: vec![JoinEdge::new("t", "g", "u", "g")],
            est_rows: 500.0,
            est_cost: 0.0,
        };
        let built = plan.build(&c, &ctx, None).unwrap();
        assert_eq!(built.meters.len(), 3);
        // Root is last; its children are the two scans, in build order.
        let kids = built.children_of(2);
        assert_eq!(kids, vec![0, 1]);
        assert!(built.meters[0].label.contains("scan(t)"));
        assert!(built.meters[1].label.contains("scan(u)"));
        // Leaves have no children.
        assert!(built.children_of(0).is_empty());
        assert!(built.children_of(1).is_empty());
    }

    #[test]
    fn meter_children_in_nested_plans() {
        let c = catalog();
        let ctx = ExecContext::unbounded();
        // agg(join(scan, scan)): meters = [t, u, join, agg].
        let plan = PhysicalPlan::Aggregate {
            input: Box::new(PhysicalPlan::HashJoin {
                left: Box::new(scan("t", None)),
                right: Box::new(scan("u", None)),
                edges: vec![JoinEdge::new("t", "g", "u", "g")],
                est_rows: 0.0,
                est_cost: 0.0,
            }),
            group_by: vec!["t.g".into()],
            aggs: vec![AggSpec::count_star("n")],
            est_rows: 10.0,
            est_cost: 0.0,
        };
        let built = plan.build(&c, &ctx, None).unwrap();
        assert_eq!(built.meters.len(), 4);
        assert_eq!(built.children_of(3), vec![2], "agg's child is the join");
        assert_eq!(built.children_of(2), vec![0, 1]);
    }

    #[test]
    fn display_renders_tree() {
        let plan = PhysicalPlan::HashJoin {
            left: Box::new(scan("t", None)),
            right: Box::new(scan("u", None)),
            edges: vec![JoinEdge::new("t", "g", "u", "g")],
            est_rows: 10.0,
            est_cost: 5.0,
        };
        let s = plan.to_string();
        assert!(s.contains("HashJoin") && s.contains("TableScan"), "{s}");
        assert_eq!(plan.tables(), vec!["t".to_string(), "u".to_string()]);
    }
}
