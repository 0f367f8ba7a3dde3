//! The generalized join ("g-join", Graefe).
//!
//! The seminar abstract *A generalized join algorithm* proposes ending
//! mistaken join-method choices by replacing the three traditional
//! algorithms with one: like merge join it exploits sorted inputs, like
//! hybrid hash join it exploits size differences on unsorted inputs (its cost
//! function guided the design), and with a database index available it can
//! replace index-nested-loop join.
//!
//! This implementation follows that structure: inputs that arrive sorted skip
//! run generation entirely; unsorted inputs pay run-generation (and spill
//! beyond the memory grant); when an inner index exists and the outer turns
//! out small, probing replaces merging. The robustness claim E18 checks is
//! that its cost stays within a small constant of the per-regime best
//! algorithm *without the optimizer having to choose correctly*.

use crate::context::{ExecContext, WorkspaceLease};
use crate::{BoxOp, Operator};
use rqp_common::{rule, Result, Row, RqpError, Schema};
use rqp_storage::{Index, Table};
use rqp_telemetry::SpanHandle;
use std::cmp::Ordering;
use std::sync::Arc;

/// Optional index access path for the inner (right) input.
pub struct InnerIndex {
    /// B-tree on the inner join key.
    pub index: Arc<Index>,
    /// The inner base table.
    pub table: Arc<Table>,
}

/// The generalized join operator.
pub struct GJoinOp {
    left: Option<BoxOp>,
    right: Option<BoxOp>,
    left_keys: Vec<usize>,
    right_keys: Vec<usize>,
    left_sorted: bool,
    right_sorted: bool,
    inner_index: Option<InnerIndex>,
    schema: Schema,
    ctx: ExecContext,
    out: Option<std::vec::IntoIter<Row>>,
    strategy: Option<GJoinStrategy>,
    /// Workspace actually held (sum over both run-generation passes — the
    /// span's `mem_granted` is a high-water max, not the amount owed), with
    /// renegotiation under mid-query budget shrinks.
    lease: WorkspaceLease,
    span: SpanHandle,
}

/// Which internal mode the g-join chose at runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GJoinStrategy {
    /// Both inputs (already or after run generation) merged.
    Merge,
    /// Outer was small and an inner index existed: probed like INL join.
    IndexProbe,
}

impl GJoinOp {
    /// Create a g-join. `left_sorted`/`right_sorted` declare whether the
    /// inputs arrive sorted on their keys (the planner knows; the operator
    /// charges run generation only for unsorted inputs). `inner_index`
    /// optionally provides an index on the right key.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        left: BoxOp,
        right: BoxOp,
        left_keys: &[&str],
        right_keys: &[&str],
        left_sorted: bool,
        right_sorted: bool,
        inner_index: Option<InnerIndex>,
        ctx: ExecContext,
    ) -> Result<Self> {
        if left_keys.len() != right_keys.len() || left_keys.is_empty() {
            return Err(RqpError::Invalid("join keys must pair up".into()));
        }
        let lk: Vec<usize> = left_keys
            .iter()
            .map(|k| left.schema().index_of(k))
            .collect::<Result<_>>()?;
        let rk: Vec<usize> = right_keys
            .iter()
            .map(|k| right.schema().index_of(k))
            .collect::<Result<_>>()?;
        let schema = match &inner_index {
            Some(ii) => left.schema().join(&ii.table.qualified_schema()),
            None => left.schema().join(right.schema()),
        };
        let span = ctx.op_span("g_join", &[&left, &right]);
        Ok(GJoinOp {
            left: Some(left),
            right: Some(right),
            left_keys: lk,
            right_keys: rk,
            left_sorted,
            right_sorted,
            inner_index,
            schema,
            ctx,
            out: None,
            strategy: None,
            lease: WorkspaceLease::new(),
            span,
        })
    }

    /// The mode the join chose (available after the first `next()`).
    pub fn strategy(&self) -> Option<GJoinStrategy> {
        self.strategy
    }

    fn drain(op: &mut BoxOp) -> Vec<Row> {
        let mut rows = Vec::new();
        while let Some(r) = op.next() {
            rows.push(r);
        }
        rows
    }

    /// Charge run generation for an unsorted input of `n` rows and sort it,
    /// taking the pass's workspace on the lease.
    fn prepare(&mut self, rows: &mut [Row], keys: &[usize], already_sorted: bool) {
        let n = rows.len() as f64;
        if n <= 1.0 || already_sorted {
            // A sorted input gets a verification pass only.
            self.ctx.clock.charge(&rule::prepare(self.ctx.clock.params(), n, true, n));
            return;
        }
        let grant = self.lease.grant(&self.ctx, &self.span, n);
        self.ctx.clock.charge(&rule::prepare(self.ctx.clock.params(), n, false, grant));
        if n > grant {
            self.span.record_spill(n - grant);
        }
        rows.sort_by(|a, b| cmp_keys(a, b, keys, keys));
    }

    fn run(&mut self) {
        let mut left_rows = Self::drain(self.left.as_mut().expect("run once"));
        self.left = None;

        // Mode choice: if an inner index exists and the outer is small
        // relative to the indexed input, probe instead of merging — the
        // decision is made from *observed* sizes, not estimates.
        if let Some(ii) = &self.inner_index {
            let outer_n = left_rows.len() as f64;
            let inner_n = ii.index.entries() as f64;
            if outer_n * 10.0 < inner_n {
                self.strategy = Some(GJoinStrategy::IndexProbe);
                let mut out = Vec::new();
                let rows_per_page = self.ctx.clock.params().rows_per_page;
                for l in &left_rows {
                    self.ctx.clock.charge(&rule::descend(inner_n));
                    let rids = ii.index.lookup_eq(&l[self.left_keys[0]]);
                    // One random page at most per probe, even clustered.
                    let rows = rids.len() as f64;
                    let hit = (rows / rows_per_page).ceil().min(1.0);
                    self.ctx.clock.charge(&rule::fetch(ii.index.clustered(), hit, hit, rows));
                    for rid in rids {
                        self.ctx.clock.charge(&rule::emit(1.0));
                        let mut row = l.clone();
                        row.extend(ii.table.row(rid));
                        out.push(row);
                    }
                }
                self.right = None;
                self.out = Some(out.into_iter());
                return;
            }
        }

        self.strategy = Some(GJoinStrategy::Merge);
        let mut right_rows = Self::drain(self.right.as_mut().expect("run once"));
        self.right = None;
        let (lk, rk) = (self.left_keys.clone(), self.right_keys.clone());
        let (ls, rs) = (self.left_sorted, self.right_sorted);
        self.prepare(&mut left_rows, &lk, ls);
        self.prepare(&mut right_rows, &rk, rs);

        // Merge with duplicate-group handling.
        let mut out = Vec::new();
        let mut i = 0usize;
        let mut j = 0usize;
        let mut steps = 0u64;
        while i < left_rows.len() && j < right_rows.len() {
            self.ctx.clock.charge(&rule::merge(1.0));
            steps += 1;
            match cmp_keys(&left_rows[i], &right_rows[j], &lk, &rk) {
                Ordering::Less => i += 1,
                Ordering::Greater => j += 1,
                Ordering::Equal => {
                    // Extent of the equal group on both sides.
                    let mut i_end = i + 1;
                    while i_end < left_rows.len()
                        && cmp_keys(&left_rows[i_end], &right_rows[j], &lk, &rk)
                            == Ordering::Equal
                    {
                        i_end += 1;
                    }
                    let mut j_end = j + 1;
                    while j_end < right_rows.len()
                        && cmp_keys(&left_rows[i], &right_rows[j_end], &lk, &rk)
                            == Ordering::Equal
                    {
                        j_end += 1;
                    }
                    for l in &left_rows[i..i_end] {
                        for r in &right_rows[j..j_end] {
                            self.ctx.clock.charge(&rule::emit(1.0));
                            let mut row = l.clone();
                            row.extend(r.clone());
                            out.push(row);
                        }
                    }
                    i = i_end;
                    j = j_end;
                }
            }
        }
        self.span.record_work(steps, 0);
        self.out = Some(out.into_iter());
    }

    /// Release the run-generation grants and close the span. Idempotent;
    /// called on drain-to-`None` *and* on `Drop`, so early-terminating
    /// consumers cannot leak `outstanding` or leave an open span.
    fn finish(&mut self) {
        if !self.span.is_closed() {
            self.lease.release(&self.ctx);
            self.span.close(&self.ctx.clock);
        }
    }
}

impl Drop for GJoinOp {
    fn drop(&mut self) {
        self.finish();
    }
}

fn cmp_keys(l: &Row, r: &Row, lk: &[usize], rk: &[usize]) -> Ordering {
    for (&li, &ri) in lk.iter().zip(rk) {
        let o = l[li].total_cmp(&r[ri]);
        if o != Ordering::Equal {
            return o;
        }
    }
    Ordering::Equal
}

impl Operator for GJoinOp {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next(&mut self) -> Option<Row> {
        if self.out.is_none() {
            self.run();
            self.span.set_detail(match self.strategy {
                Some(GJoinStrategy::IndexProbe) => "index_probe",
                Some(GJoinStrategy::Merge) => "merge",
                None => "",
            });
        }
        // Cooperative abort, then shed run-generation workspace if the
        // budget shrank mid-drain.
        self.ctx.checkpoint();
        self.lease.renegotiate(&self.ctx, &self.span);
        let row = self.out.as_mut().expect("ran").next();
        match &row {
            Some(_) => self.span.produced(&self.ctx.clock),
            None => self.finish(),
        }
        row
    }

    fn span(&self) -> Option<&SpanHandle> {
        Some(&self.span)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rqp_common::Value;
    use crate::context::collect;
    use crate::filter::test_support::RowsOp;
    use crate::join::HashJoinOp;
    use rqp_common::DataType;

    fn src(name: &str, n: i64, shuffle: bool) -> BoxOp {
        let schema = Schema::from_pairs(&[(
            Box::leak(format!("{name}.k").into_boxed_str()) as &str,
            DataType::Int,
        )]);
        let rows: Vec<Row> = (0..n)
            .map(|i| {
                let k = if shuffle { (i * 7919) % n } else { i };
                vec![Value::Int(k % (n / 4).max(1))]
            })
            .collect();
        RowsOp::boxed(schema, rows)
    }

    #[test]
    fn matches_hash_join_output() {
        let ctx = ExecContext::unbounded();
        let mut g = GJoinOp::new(
            src("l", 100, true),
            src("r", 80, true),
            &["l.k"],
            &["r.k"],
            false,
            false,
            None,
            ctx.clone(),
        )
        .unwrap();
        let mut gout = collect(&mut g);
        assert_eq!(g.strategy(), Some(GJoinStrategy::Merge));
        let mut h =
            HashJoinOp::new(src("l", 100, true), src("r", 80, true), &["l.k"], &["r.k"], ctx)
                .unwrap();
        let mut hout = collect(&mut h);
        let key = |r: &Row| format!("{r:?}");
        gout.sort_by_key(key);
        hout.sort_by_key(key);
        assert_eq!(gout, hout);
    }

    #[test]
    fn sorted_inputs_skip_run_generation() {
        let unsorted_ctx = ExecContext::unbounded();
        let mut g = GJoinOp::new(
            src("l", 1000, true),
            src("r", 1000, true),
            &["l.k"],
            &["r.k"],
            false,
            false,
            None,
            unsorted_ctx.clone(),
        )
        .unwrap();
        collect(&mut g);

        let sorted_ctx = ExecContext::unbounded();
        let mut g = GJoinOp::new(
            src("l", 1000, false),
            src("r", 1000, false),
            &["l.k"],
            &["r.k"],
            true,
            true,
            None,
            sorted_ctx.clone(),
        )
        .unwrap();
        collect(&mut g);
        assert!(
            sorted_ctx.clock.now() < unsorted_ctx.clock.now(),
            "sorted {} should beat unsorted {}",
            sorted_ctx.clock.now(),
            unsorted_ctx.clock.now()
        );
    }

    #[test]
    fn small_outer_with_index_probes() {
        let mut cat = rqp_storage::Catalog::new();
        let schema = Schema::from_pairs(&[("k", DataType::Int), ("v", DataType::Int)]);
        let mut t = Table::new("inner", schema);
        for i in 0..10_000 {
            t.append(vec![Value::Int(i % 100), Value::Int(i)]);
        }
        cat.add_table(t);
        cat.create_index("ix", "inner", &["k"]).unwrap();
        let ctx = ExecContext::unbounded();
        let ii = InnerIndex {
            index: cat.index("ix").unwrap(),
            table: cat.table("inner").unwrap(),
        };
        // Outer: only 3 rows.
        let outer_schema = Schema::from_pairs(&[("o.k", DataType::Int)]);
        let outer_rows = vec![
            vec![Value::Int(5)],
            vec![Value::Int(7)],
            vec![Value::Int(500)], // no match
        ];
        let dummy_right = RowsOp::boxed(Schema::from_pairs(&[("inner.k", DataType::Int)]), vec![]);
        let mut g = GJoinOp::new(
            RowsOp::boxed(outer_schema, outer_rows),
            dummy_right,
            &["o.k"],
            &["inner.k"],
            false,
            false,
            Some(ii),
            ctx,
        )
        .unwrap();
        let out = collect(&mut g);
        assert_eq!(g.strategy(), Some(GJoinStrategy::IndexProbe));
        assert_eq!(out.len(), 200, "two keys × 100 matches each");
    }

    #[test]
    fn releases_both_run_generation_grants() {
        // Merge mode grants workspace twice (left and right run generation);
        // the release must cover the *sum*, not the high-water max.
        let ctx = ExecContext::with_memory(50_000.0);
        let mut g = GJoinOp::new(
            src("l", 1000, true),
            src("r", 500, true),
            &["l.k"],
            &["r.k"],
            false,
            false,
            None,
            ctx.clone(),
        )
        .unwrap();
        assert!(g.next().is_some());
        assert_eq!(ctx.memory.outstanding(), 1_500.0, "both grants held");
        collect(&mut g);
        assert_eq!(ctx.memory.outstanding(), 0.0, "full drain releases all");

        // Early termination releases on Drop instead.
        let ctx = ExecContext::with_memory(50_000.0);
        let mut g = GJoinOp::new(
            src("l", 1000, true),
            src("r", 500, true),
            &["l.k"],
            &["r.k"],
            false,
            false,
            None,
            ctx.clone(),
        )
        .unwrap();
        assert!(g.next().is_some());
        drop(g);
        assert_eq!(ctx.memory.outstanding(), 0.0, "drop releases the grants");
        assert!(
            ctx.tracer.snapshot().iter().all(|sp| !sp.closed_at.is_nan()),
            "no open spans after drop"
        );
    }

    #[test]
    fn budget_shrink_mid_drain_sheds_and_spills_once() {
        // Chaos-governor regression: both run-generation grants are held on
        // one lease; a mid-drain shrink sheds from the *sum* (spilling
        // exactly once per shock) and completion leaves nothing outstanding.
        let ctx = ExecContext::with_memory(50_000.0);
        let mut g = GJoinOp::new(
            src("l", 1000, true),
            src("r", 500, true),
            &["l.k"],
            &["r.k"],
            false,
            false,
            None,
            ctx.clone(),
        )
        .unwrap();
        assert!(g.next().is_some());
        assert_eq!(ctx.memory.outstanding(), 1_500.0, "both grants held");
        assert_eq!(ctx.clock.breakdown().spill, 0.0);
        ctx.memory.set_budget(300.0);
        assert!(g.next().is_some());
        assert_eq!(ctx.memory.outstanding(), 300.0, "sum shed to the new budget");
        let spill1 = ctx.clock.breakdown().spill;
        assert!(spill1 > 0.0);
        assert_eq!(g.span().unwrap().spill_events(), 1, "one spill per shock");
        for _ in 0..20 {
            g.next();
        }
        assert_eq!(ctx.clock.breakdown().spill, spill1);
        collect(&mut g);
        assert_eq!(ctx.memory.outstanding(), 0.0, "outstanding()==0 after completion");
        assert!(g
            .span()
            .unwrap()
            .events()
            .iter()
            .any(|e| e.kind == "governor.pressure"));
    }

    #[test]
    fn empty_inputs() {
        let ctx = ExecContext::unbounded();
        let empty = RowsOp::boxed(Schema::from_pairs(&[("l.k", DataType::Int)]), vec![]);
        let mut g = GJoinOp::new(
            empty,
            src("r", 10, false),
            &["l.k"],
            &["r.k"],
            true,
            true,
            None,
            ctx,
        )
        .unwrap();
        assert!(collect(&mut g).is_empty());
    }
}
