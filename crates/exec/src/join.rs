//! Classic join algorithms: hash, sort-merge, index-nested-loop and
//! block-nested-loop.
//!
//! The seminar's "wrong join method" discussions hinge on the cost asymmetry
//! between these: hash join pays O(build) memory and spills under pressure,
//! index-nested-loop is unbeatable for tiny outers and catastrophic for large
//! ones, merge join is safe when inputs are sorted. Misestimating a
//! cardinality flips the choice — E18 maps who wins where, E01–E03 measure
//! what POP recovers when the choice was wrong.

use crate::context::{ExecContext, WorkspaceLease};
use crate::{BoxOp, Operator};
use rqp_common::expr::BoundExpr;
use rqp_common::{rule, Expr, Result, Row, RqpError, Schema, Value};
use rqp_storage::{Index, Table};
use rqp_telemetry::SpanHandle;
use std::collections::HashMap;
use std::sync::Arc;

fn bind_keys(schema: &Schema, keys: &[&str]) -> Result<Vec<usize>> {
    keys.iter().map(|k| schema.index_of(k)).collect()
}

fn key_of(row: &Row, cols: &[usize]) -> Vec<Value> {
    cols.iter().map(|&i| row[i].clone()).collect()
}

/// Hash join: builds on the **right** input, probes with the left.
///
/// If the build side exceeds the memory grant, a Grace-style partitioning
/// spill is charged on the overflowing fraction of both inputs.
pub struct HashJoinOp {
    left: BoxOp,
    right: Option<BoxOp>,
    left_keys: Vec<usize>,
    right_keys: Vec<usize>,
    schema: Schema,
    ctx: ExecContext,
    table: HashMap<Vec<Value>, Vec<Row>>,
    built: bool,
    spill_fraction: f64,
    probe_rows: f64,
    pending: Vec<Row>,
    current_left: Option<Row>,
    lease: WorkspaceLease,
    span: SpanHandle,
}

impl HashJoinOp {
    /// Join `left` and `right` on equality of the named key columns.
    pub fn new(
        left: BoxOp,
        right: BoxOp,
        left_keys: &[&str],
        right_keys: &[&str],
        ctx: ExecContext,
    ) -> Result<Self> {
        if left_keys.len() != right_keys.len() || left_keys.is_empty() {
            return Err(RqpError::Invalid("join keys must pair up".into()));
        }
        let lk = bind_keys(left.schema(), left_keys)?;
        let rk = bind_keys(right.schema(), right_keys)?;
        let schema = left.schema().join(right.schema());
        let span = ctx.op_span("hash_join", &[&left, &right]);
        Ok(HashJoinOp {
            left,
            right: Some(right),
            left_keys: lk,
            right_keys: rk,
            schema,
            ctx,
            table: HashMap::new(),
            built: false,
            spill_fraction: 0.0,
            probe_rows: 0.0,
            pending: Vec::new(),
            current_left: None,
            lease: WorkspaceLease::new(),
            span,
        })
    }

    fn build(&mut self) {
        let mut right = self.right.take().expect("build called once");
        let mut rows = Vec::new();
        while let Some(r) = right.next() {
            rows.push(r);
        }
        let n = rows.len() as f64;
        let grant = self.lease.grant(&self.ctx, &self.span, n);
        self.spill_fraction = rule::overflow(n, grant);
        if self.spill_fraction > 0.0 {
            let spilled = n * self.spill_fraction;
            let detail =
                format!("hash build spilled {spilled:.0} of {n:.0} rows (grant {grant:.0})");
            self.ctx.spill(&self.span, spilled, "governor.spill", &detail);
        }
        self.ctx.clock.charge(&rule::hash_build(n));
        for r in rows {
            let k = key_of(&r, &self.right_keys);
            self.table.entry(k).or_default().push(r);
        }
        self.built = true;
    }

    /// Release the build-side grant and close the span. Idempotent; called
    /// on drain-to-`None` *and* on `Drop`, so early-terminating consumers
    /// cannot leak `outstanding` or leave an open span.
    fn finish(&mut self) {
        if !self.span.is_closed() {
            self.lease.release(&self.ctx);
            self.span.close(&self.ctx.clock);
        }
    }
}

impl Drop for HashJoinOp {
    fn drop(&mut self) {
        self.finish();
    }
}

impl Operator for HashJoinOp {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next(&mut self) -> Option<Row> {
        if !self.built {
            self.build();
        }
        // Cooperative abort, then graceful degradation: shed build-side
        // workspace (as incremental spill) when the budget shrank mid-probe.
        self.ctx.checkpoint();
        self.lease.renegotiate(&self.ctx, &self.span);
        loop {
            if let Some(right_row) = self.pending.pop() {
                let left_row = self.current_left.as_ref().expect("pending implies left");
                self.ctx.clock.charge(&rule::emit(1.0));
                let mut out = left_row.clone();
                out.extend(right_row);
                self.span.produced(&self.ctx.clock);
                return Some(out);
            }
            match self.left.next() {
                Some(l) => {
                    self.probe_rows += 1.0;
                    self.ctx.clock.charge(&rule::hash_probe(1.0));
                    let k = key_of(&l, &self.left_keys);
                    if let Some(matches) = self.table.get(&k) {
                        self.pending = matches.clone();
                        self.current_left = Some(l);
                    }
                }
                None => {
                    if self.spill_fraction > 0.0 && self.probe_rows > 0.0 {
                        // Spill the probe side's share once, at the end.
                        let spilled = self.probe_rows * self.spill_fraction;
                        let detail = format!("hash probe spilled {spilled:.0} rows");
                        self.ctx.spill(&self.span, spilled, "governor.spill", &detail);
                        self.probe_rows = 0.0;
                    }
                    self.finish();
                    return None;
                }
            }
        }
    }

    fn span(&self) -> Option<&SpanHandle> {
        Some(&self.span)
    }
}

/// Sort-merge join over inputs already sorted on their key columns.
pub struct MergeJoinOp {
    left: BoxOp,
    right: BoxOp,
    left_keys: Vec<usize>,
    right_keys: Vec<usize>,
    schema: Schema,
    ctx: ExecContext,
    left_row: Option<Row>,
    right_row: Option<Row>,
    /// Buffered right group with the current key, and emit position.
    group: Vec<Row>,
    group_pos: usize,
    started: bool,
    /// Key comparisons so far, recorded on the span when it closes.
    steps: u64,
    span: SpanHandle,
}

impl MergeJoinOp {
    /// Merge-join `left` and `right`, both sorted ascending on their keys.
    pub fn new(
        left: BoxOp,
        right: BoxOp,
        left_keys: &[&str],
        right_keys: &[&str],
        ctx: ExecContext,
    ) -> Result<Self> {
        if left_keys.len() != right_keys.len() || left_keys.is_empty() {
            return Err(RqpError::Invalid("join keys must pair up".into()));
        }
        let lk = bind_keys(left.schema(), left_keys)?;
        let rk = bind_keys(right.schema(), right_keys)?;
        let schema = left.schema().join(right.schema());
        let span = ctx.op_span("merge_join", &[&left, &right]);
        Ok(MergeJoinOp {
            left,
            right,
            left_keys: lk,
            right_keys: rk,
            schema,
            ctx,
            left_row: None,
            right_row: None,
            group: Vec::new(),
            group_pos: 0,
            started: false,
            steps: 0,
            span,
        })
    }

    fn cmp_keys(&self, l: &Row, r: &Row) -> std::cmp::Ordering {
        for (&li, &ri) in self.left_keys.iter().zip(&self.right_keys) {
            let o = l[li].total_cmp(&r[ri]);
            if o != std::cmp::Ordering::Equal {
                return o;
            }
        }
        std::cmp::Ordering::Equal
    }

    /// One key comparison: charged, and counted as the merge's work.
    fn step(&mut self) {
        self.ctx.clock.charge(&rule::merge(1.0));
        self.steps += 1;
    }

    fn left_key_eq(&self, a: &Row, b: &Row) -> bool {
        self.left_keys.iter().all(|&i| a[i] == b[i])
    }

    fn produce(&mut self) -> Option<Row> {
        if !self.started {
            self.left_row = self.left.next();
            self.right_row = self.right.next();
            self.started = true;
        }
        loop {
            // Emit from the buffered group first.
            if self.group_pos < self.group.len() {
                let l = self.left_row.as_ref()?;
                self.ctx.clock.charge(&rule::emit(1.0));
                let mut out = l.clone();
                out.extend(self.group[self.group_pos].clone());
                self.group_pos += 1;
                return Some(out);
            }
            // Group exhausted: advance left; if its key matches the group's
            // key, replay the group.
            if !self.group.is_empty() {
                let prev = self.left_row.take().expect("group implies left");
                self.left_row = self.left.next();
                self.step();
                match &self.left_row {
                    Some(l) if self.left_key_eq(l, &prev) => {
                        self.group_pos = 0;
                        continue;
                    }
                    _ => {
                        self.group.clear();
                        self.group_pos = 0;
                    }
                }
            }
            let l = self.left_row.clone()?;
            let r = match &self.right_row {
                Some(r) => r.clone(),
                None => return None,
            };
            self.step();
            match self.cmp_keys(&l, &r) {
                std::cmp::Ordering::Less => {
                    self.left_row = self.left.next();
                    self.left_row.as_ref()?;
                }
                std::cmp::Ordering::Greater => {
                    self.right_row = self.right.next();
                    self.right_row.as_ref()?;
                }
                std::cmp::Ordering::Equal => {
                    // Buffer the whole right group with this key.
                    self.group.clear();
                    self.group.push(r);
                    loop {
                        self.right_row = self.right.next();
                        self.step();
                        match &self.right_row {
                            Some(nr)
                                if self.cmp_keys(&l, nr) == std::cmp::Ordering::Equal =>
                            {
                                self.group.push(nr.clone());
                            }
                            _ => break,
                        }
                    }
                    self.group_pos = 0;
                }
            }
        }
    }
}

impl Operator for MergeJoinOp {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next(&mut self) -> Option<Row> {
        let row = self.produce();
        match &row {
            Some(_) => self.span.produced(&self.ctx.clock),
            None => {
                self.span.record_work(std::mem::take(&mut self.steps), 0);
                self.span.close(&self.ctx.clock);
            }
        }
        row
    }

    fn span(&self) -> Option<&SpanHandle> {
        Some(&self.span)
    }
}

/// Index-nested-loop join: probes a B-tree index on the inner table for each
/// outer row.
pub struct IndexNlJoinOp {
    outer: BoxOp,
    index: Arc<Index>,
    inner_table: Arc<Table>,
    outer_key: usize,
    schema: Schema,
    ctx: ExecContext,
    pending: Vec<Row>,
    current_outer: Option<Row>,
    /// Probes that hit and the pages they fetched, recorded on the span
    /// when it closes.
    work: (u64, u64),
    span: SpanHandle,
}

impl IndexNlJoinOp {
    /// Join `outer.outer_key = index.column` by index probing.
    pub fn new(
        outer: BoxOp,
        outer_key: &str,
        index: Arc<Index>,
        inner_table: Arc<Table>,
        ctx: ExecContext,
    ) -> Result<Self> {
        let ok = outer.schema().index_of(outer_key)?;
        let schema = outer.schema().join(&inner_table.qualified_schema());
        let span = ctx.op_span("index_nl_join", &[&outer]);
        span.set_detail(&format!("{}:{}", inner_table.name(), index.name()));
        Ok(IndexNlJoinOp {
            outer,
            index,
            inner_table,
            outer_key: ok,
            schema,
            ctx,
            pending: Vec::new(),
            current_outer: None,
            work: (0, 0),
            span,
        })
    }
}

impl Operator for IndexNlJoinOp {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next(&mut self) -> Option<Row> {
        loop {
            if let Some(inner_row) = self.pending.pop() {
                let o = self.current_outer.as_ref().expect("pending implies outer");
                self.ctx.clock.charge(&rule::emit(1.0));
                let mut out = o.clone();
                out.extend(inner_row);
                self.span.produced(&self.ctx.clock);
                return Some(out);
            }
            let Some(o) = self.outer.next() else {
                let (hits, pages) = std::mem::take(&mut self.work);
                self.span.record_work(hits, pages);
                self.span.close(&self.ctx.clock);
                return None;
            };
            self.ctx.clock.charge(&rule::descend(self.index.entries() as f64));
            let rids = self.index.lookup_eq(&o[self.outer_key]);
            if !rids.is_empty() {
                let (rows, clustered) = (rids.len() as f64, self.index.clustered());
                let pages = self.ctx.clock.params().pages(rows);
                self.ctx.clock.charge(&rule::fetch(clustered, 1.0, pages, rows));
                self.work = (self.work.0 + 1, self.work.1 + pages as u64);
                // `pending` is empty here (drained above): reuse its buffer.
                self.pending.extend(rids.map(|rid| self.inner_table.row(rid)));
                self.current_outer = Some(o);
            }
        }
    }

    fn span(&self) -> Option<&SpanHandle> {
        Some(&self.span)
    }
}

/// Block-nested-loop join with an arbitrary join predicate (the fallback for
/// non-equi joins, and the deliberately fragile baseline).
pub struct BnlJoinOp {
    left: BoxOp,
    right_rows: Option<Vec<Row>>,
    right_src: Option<BoxOp>,
    pred: Option<BoundExpr>,
    schema: Schema,
    ctx: ExecContext,
    current_left: Option<Row>,
    right_pos: usize,
    span: SpanHandle,
}

impl BnlJoinOp {
    /// Join with predicate `pred` evaluated on the concatenated row (pass
    /// `None` for a cross product).
    pub fn new(left: BoxOp, right: BoxOp, pred: Option<&Expr>, ctx: ExecContext) -> Result<Self> {
        let schema = left.schema().join(right.schema());
        let bound = pred.map(|p| p.bind(&schema)).transpose()?;
        let span = ctx.op_span("bnl_join", &[&left, &right]);
        Ok(BnlJoinOp {
            left,
            right_rows: None,
            right_src: Some(right),
            pred: bound,
            schema,
            ctx,
            current_left: None,
            right_pos: 0,
            span,
        })
    }

    fn produce(&mut self) -> Option<Row> {
        if self.right_rows.is_none() {
            let mut src = self.right_src.take().expect("materialize once");
            let mut rows = Vec::new();
            while let Some(r) = src.next() {
                rows.push(r);
            }
            self.ctx.clock.charge(&rule::emit(rows.len() as f64));
            self.right_rows = Some(rows);
        }
        loop {
            if self.current_left.is_none() {
                self.current_left = self.left.next();
                self.current_left.as_ref()?;
                self.right_pos = 0;
            }
            let right = self.right_rows.as_ref().expect("materialized above");
            let l = self.current_left.as_ref().expect("set above");
            while self.right_pos < right.len() {
                let r = &right[self.right_pos];
                self.right_pos += 1;
                self.ctx.clock.charge(&rule::filter(1.0));
                let mut out = l.clone();
                out.extend(r.clone());
                match &self.pred {
                    Some(p) if !p.eval_bool(&out) => continue,
                    _ => {
                        self.ctx.clock.charge(&rule::emit(1.0));
                        return Some(out);
                    }
                }
            }
            self.current_left = None;
        }
    }
}

impl Operator for BnlJoinOp {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next(&mut self) -> Option<Row> {
        let row = self.produce();
        match &row {
            Some(_) => self.span.produced(&self.ctx.clock),
            None => self.span.close(&self.ctx.clock),
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
    use crate::context::collect;
    use crate::filter::test_support::RowsOp;
    use rqp_common::expr::col;
    use rqp_common::DataType;

    fn left_src() -> BoxOp {
        let schema = Schema::from_pairs(&[("l.k", DataType::Int), ("l.x", DataType::Int)]);
        let rows: Vec<Row> = (0..20)
            .map(|i| vec![Value::Int(i % 5), Value::Int(i)])
            .collect();
        RowsOp::boxed(schema, rows)
    }

    fn right_src() -> BoxOp {
        let schema = Schema::from_pairs(&[("r.k", DataType::Int), ("r.y", DataType::Int)]);
        let rows: Vec<Row> = (0..5).map(|i| vec![Value::Int(i), Value::Int(i * 100)]).collect();
        RowsOp::boxed(schema, rows)
    }

    fn sorted_left() -> BoxOp {
        let schema = Schema::from_pairs(&[("l.k", DataType::Int)]);
        let rows: Vec<Row> = vec![1, 1, 2, 3, 5, 5, 5]
            .into_iter()
            .map(|i| vec![Value::Int(i)])
            .collect();
        RowsOp::boxed(schema, rows)
    }

    fn sorted_right() -> BoxOp {
        let schema = Schema::from_pairs(&[("r.k", DataType::Int), ("r.v", DataType::Int)]);
        let rows: Vec<Row> = vec![(0, 0), (1, 10), (1, 11), (3, 30), (5, 50), (6, 60)]
            .into_iter()
            .map(|(k, v)| vec![Value::Int(k), Value::Int(v)])
            .collect();
        RowsOp::boxed(schema, rows)
    }

    fn big_src(name: &str, n: i64) -> BoxOp {
        let schema = Schema::from_pairs(&[
            (Box::leak(format!("{name}.k").into_boxed_str()) as &str, DataType::Int),
        ]);
        let rows: Vec<Row> = (0..n).map(|i| vec![Value::Int(i % 50)]).collect();
        RowsOp::boxed(schema, rows)
    }

    #[test]
    fn budget_shrink_mid_probe_sheds_and_spills_once() {
        // Chaos-governor regression: a budget shrink landing while the hash
        // join is probing must shed build-side workspace (charged as spill
        // exactly once per shock) and leave outstanding()==0 at completion.
        let ctx = ExecContext::with_memory(10_000.0);
        let mut j = HashJoinOp::new(
            big_src("l", 2_000),
            big_src("r", 5_000),
            &["l.k"],
            &["r.k"],
            ctx.clone(),
        )
        .unwrap();
        assert!(j.next().is_some());
        assert_eq!(ctx.memory.outstanding(), 5_000.0, "build side granted in full");
        assert_eq!(ctx.clock.breakdown().spill, 0.0);
        ctx.memory.set_budget(1_000.0);
        assert!(j.next().is_some());
        assert_eq!(ctx.memory.outstanding(), 1_000.0, "overflow shed");
        let spill1 = ctx.clock.breakdown().spill;
        assert!(spill1 > 0.0);
        assert_eq!(j.span().unwrap().spill_events(), 1, "exactly one spill per shock");
        for _ in 0..50 {
            j.next();
        }
        assert_eq!(ctx.clock.breakdown().spill, spill1, "no repeat spill without a shock");
        collect(&mut j);
        assert_eq!(ctx.memory.outstanding(), 0.0, "outstanding()==0 after completion");
        assert!(j
            .span()
            .unwrap()
            .events()
            .iter()
            .any(|e| e.kind == "governor.pressure"));
    }

    #[test]
    fn hash_join_basic() {
        let ctx = ExecContext::unbounded();
        let mut j =
            HashJoinOp::new(left_src(), right_src(), &["l.k"], &["r.k"], ctx).unwrap();
        let out = collect(&mut j);
        assert_eq!(out.len(), 20, "every left row matches exactly one right");
        assert_eq!(j.schema().len(), 4);
        // spot-check a row: l.k == r.k
        for row in &out {
            assert_eq!(row[0], row[2]);
        }
    }

    #[test]
    fn hash_join_spills_under_memory_pressure() {
        let tight = ExecContext::with_memory(2.0); // ~nothing
        let mut j = HashJoinOp::new(left_src(), right_src(), &["l.k"], &["r.k"], tight.clone())
            .unwrap();
        let out = collect(&mut j);
        assert_eq!(out.len(), 20, "spill must not change the answer");
        // The right side (5 rows) fits the 100-row floor: no spill. Make a
        // bigger build side instead.
        let schema = Schema::from_pairs(&[("r.k", DataType::Int)]);
        let big: Vec<Row> = (0..10_000).map(|i| vec![Value::Int(i % 5)]).collect();
        let tight = ExecContext::with_memory(100.0);
        let mut j = HashJoinOp::new(
            left_src(),
            RowsOp::boxed(schema, big),
            &["l.k"],
            &["r.k"],
            tight.clone(),
        )
        .unwrap();
        let out = collect(&mut j);
        assert_eq!(out.len(), 20 * 2000);
        assert!(tight.clock.breakdown().spill > 0.0, "spill charged");
        // Same join with ample memory: no spill, cheaper.
        let schema = Schema::from_pairs(&[("r.k", DataType::Int)]);
        let big: Vec<Row> = (0..10_000).map(|i| vec![Value::Int(i % 5)]).collect();
        let ample = ExecContext::unbounded();
        let mut j = HashJoinOp::new(
            left_src(),
            RowsOp::boxed(schema, big),
            &["l.k"],
            &["r.k"],
            ample.clone(),
        )
        .unwrap();
        collect(&mut j);
        assert_eq!(ample.clock.breakdown().spill, 0.0);
        assert!(ample.clock.now() < tight.clock.now());
    }

    #[test]
    fn hash_join_partial_drain_releases_grant_and_closes_span() {
        // The headline early-termination bug: a consumer that stops after a
        // few rows (limit, top-n, POP re-plan) must not leak the build-side
        // grant or leave an open span in the run report.
        let ctx = ExecContext::with_memory(50_000.0);
        let schema = Schema::from_pairs(&[("r.k", DataType::Int)]);
        let big: Vec<Row> = (0..5_000).map(|i| vec![Value::Int(i % 5)]).collect();
        let mut j = HashJoinOp::new(
            left_src(),
            RowsOp::boxed(schema, big),
            &["l.k"],
            &["r.k"],
            ctx.clone(),
        )
        .unwrap();
        assert!(j.next().is_some());
        assert_eq!(ctx.memory.outstanding(), 5_000.0, "build grant held");
        drop(j);
        assert_eq!(ctx.memory.outstanding(), 0.0, "drop releases the grant");
        assert!(
            ctx.tracer.snapshot().iter().all(|sp| !sp.closed_at.is_nan()),
            "no open spans after drop"
        );
    }

    #[test]
    fn hash_join_rejects_mismatched_keys() {
        let ctx = ExecContext::unbounded();
        assert!(HashJoinOp::new(left_src(), right_src(), &["l.k"], &[], ctx.clone()).is_err());
        assert!(HashJoinOp::new(left_src(), right_src(), &["nope"], &["r.k"], ctx).is_err());
    }

    #[test]
    fn merge_join_with_duplicate_groups() {
        let ctx = ExecContext::unbounded();
        let mut j =
            MergeJoinOp::new(sorted_left(), sorted_right(), &["l.k"], &["r.k"], ctx).unwrap();
        let out = collect(&mut j);
        // l has 1,1,2,3,5,5,5 ; r has 1×2, 3×1, 5×1 → 2*2 + 1 + 3 = 8
        assert_eq!(out.len(), 8);
        for row in &out {
            assert_eq!(row[0], row[1]);
        }
    }

    #[test]
    fn merge_join_matches_hash_join() {
        let ctx = ExecContext::unbounded();
        let mut mj =
            MergeJoinOp::new(sorted_left(), sorted_right(), &["l.k"], &["r.k"], ctx.clone())
                .unwrap();
        let mut hout = {
            let mut hj =
                HashJoinOp::new(sorted_left(), sorted_right(), &["l.k"], &["r.k"], ctx)
                    .unwrap();
            collect(&mut hj)
        };
        let mut mout = collect(&mut mj);
        let key = |r: &Row| format!("{r:?}");
        hout.sort_by_key(key);
        mout.sort_by_key(key);
        assert_eq!(hout, mout);
    }

    #[test]
    fn index_nl_join() {
        let mut cat = rqp_storage::Catalog::new();
        let schema = Schema::from_pairs(&[("k", DataType::Int), ("v", DataType::Int)]);
        let mut t = Table::new("r", schema);
        for i in 0..100 {
            t.append(vec![Value::Int(i % 10), Value::Int(i)]);
        }
        cat.add_table(t);
        cat.create_index("ix", "r", &["k"]).unwrap();
        let ctx = ExecContext::unbounded();
        let mut j = IndexNlJoinOp::new(
            left_src(),
            "l.k",
            cat.index("ix").unwrap(),
            cat.table("r").unwrap(),
            ctx.clone(),
        )
        .unwrap();
        let out = collect(&mut j);
        // each of 20 outer rows matches 10 inner rows
        assert_eq!(out.len(), 200);
        assert!(ctx.clock.breakdown().rand_io > 0.0, "probing charges I/O");
        for row in &out {
            assert_eq!(row[0], row[2]);
        }
    }

    #[test]
    fn bnl_join_theta_predicate() {
        let ctx = ExecContext::unbounded();
        let pred = col("l.k").lt(col("r.k"));
        let mut j = BnlJoinOp::new(left_src(), right_src(), Some(&pred), ctx).unwrap();
        let out = collect(&mut j);
        // l.k ∈ {0..4} × 4 each; for l.k=v matches right keys v+1..4 → (4+3+2+1+0)*4
        assert_eq!(out.len(), 40);
        for row in &out {
            assert!(row[0] < row[2]);
        }
    }

    #[test]
    fn bnl_cross_product() {
        let ctx = ExecContext::unbounded();
        let mut j = BnlJoinOp::new(left_src(), right_src(), None, ctx).unwrap();
        assert_eq!(collect(&mut j).len(), 100);
    }

    #[test]
    fn joins_with_empty_inputs() {
        let ctx = ExecContext::unbounded();
        let empty = || {
            RowsOp::boxed(
                Schema::from_pairs(&[("e.k", DataType::Int)]),
                vec![],
            )
        };
        let mut j = HashJoinOp::new(left_src(), empty(), &["l.k"], &["e.k"], ctx.clone()).unwrap();
        assert!(collect(&mut j).is_empty());
        let mut j = HashJoinOp::new(empty(), right_src(), &["e.k"], &["r.k"], ctx.clone()).unwrap();
        assert!(collect(&mut j).is_empty());
        let mut j = MergeJoinOp::new(empty(), sorted_right(), &["e.k"], &["r.k"], ctx).unwrap();
        assert!(collect(&mut j).is_empty());
    }
}
