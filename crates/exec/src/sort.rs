//! Sort and top-N operators with memory-bounded spill accounting.

use crate::context::{ExecContext, WorkspaceLease};
use crate::{BoxOp, Operator};
use rqp_common::{rule, Result, Row, Schema};
use rqp_telemetry::SpanHandle;
use std::cmp::Ordering;

/// Sort direction per key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortOrder {
    /// Ascending.
    Asc,
    /// Descending.
    Desc,
}

fn cmp_rows(a: &Row, b: &Row, keys: &[(usize, SortOrder)]) -> Ordering {
    for &(i, ord) in keys {
        let o = a[i].total_cmp(&b[i]);
        if o != Ordering::Equal {
            return match ord {
                SortOrder::Asc => o,
                SortOrder::Desc => o.reverse(),
            };
        }
    }
    Ordering::Equal
}

/// Full sort: materializes the input, sorts, then streams.
///
/// If the input exceeds the memory grant, external-run generation and merge
/// are *charged* (one spill round trip of the overflow plus merge
/// comparisons) — the data itself stays in memory, only the cost model pays,
/// which is all the robustness metrics observe. The "grow & shrink memory"
/// session's point — rigid workspaces cause cliffs — reproduces as a cost
/// step at `input > grant`.
pub struct SortOp {
    inner: Option<BoxOp>,
    keys: Vec<(usize, SortOrder)>,
    schema: Schema,
    ctx: ExecContext,
    sorted: Option<std::vec::IntoIter<Row>>,
    lease: WorkspaceLease,
    span: SpanHandle,
}

impl SortOp {
    /// Sort by the named columns.
    pub fn new(inner: BoxOp, keys: &[(&str, SortOrder)], ctx: ExecContext) -> Result<Self> {
        let schema = inner.schema().clone();
        let bound: Vec<(usize, SortOrder)> = keys
            .iter()
            .map(|(k, o)| schema.index_of(k).map(|i| (i, *o)))
            .collect::<Result<_>>()?;
        let span = ctx.op_span("sort", &[&inner]);
        Ok(SortOp {
            inner: Some(inner),
            keys: bound,
            schema,
            ctx,
            sorted: None,
            lease: WorkspaceLease::new(),
            span,
        })
    }

    /// Ascending sort by the named columns.
    pub fn asc(inner: BoxOp, keys: &[&str], ctx: ExecContext) -> Result<Self> {
        let pairs: Vec<(&str, SortOrder)> =
            keys.iter().map(|k| (*k, SortOrder::Asc)).collect();
        Self::new(inner, &pairs, ctx)
    }

    fn materialize(&mut self) {
        let mut inner = self.inner.take().expect("materialize once");
        let mut rows = Vec::new();
        while let Some(r) = inner.next() {
            rows.push(r);
        }
        let n = rows.len() as f64;
        if n > 1.0 {
            let grant = self.lease.grant(&self.ctx, &self.span, n);
            self.ctx.clock.charge(&rule::runs(n));
            if n > grant {
                // External sort: spill overflow once (write+read), plus a
                // merge pass of comparisons across runs.
                let overflow = n - grant;
                let detail =
                    format!("sort spilled {overflow:.0} of {n:.0} rows (grant {grant:.0})");
                self.ctx.spill(&self.span, overflow, "governor.spill", &detail);
                self.ctx.clock.charge(&rule::merge_runs(n, grant));
            }
        }
        rows.sort_by(|a, b| cmp_rows(a, b, &self.keys));
        self.sorted = Some(rows.into_iter());
    }

    /// Release the workspace grant and close the span. Idempotent; called on
    /// drain-to-`None` *and* on `Drop`, so a consumer that stops early (a
    /// limit, a POP re-plan abandoning the pipeline) cannot leak
    /// `outstanding` or leave an open span in the run report.
    fn finish(&mut self) {
        if !self.span.is_closed() {
            self.lease.release(&self.ctx);
            self.span.close(&self.ctx.clock);
        }
    }
}

impl Drop for SortOp {
    fn drop(&mut self) {
        self.finish();
    }
}

impl Operator for SortOp {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next(&mut self) -> Option<Row> {
        if self.sorted.is_none() {
            self.materialize();
        }
        // Cooperative abort and budget pressure are observed at the same
        // boundary: a cancelled sort unwinds here (Drop releases the lease),
        // a budget shrink mid-drain (FMT shock) sheds workspace and charges
        // incremental spill instead of holding the grant hostage.
        self.ctx.checkpoint();
        self.lease.renegotiate(&self.ctx, &self.span);
        let row = self.sorted.as_mut().expect("materialized").next();
        match &row {
            Some(_) => {
                self.ctx.clock.charge(&rule::emit(1.0));
                self.span.produced(&self.ctx.clock);
            }
            None => self.finish(),
        }
        row
    }

    fn span(&self) -> Option<&SpanHandle> {
        Some(&self.span)
    }
}

/// Top-N by sort keys, using a bounded heap (never spills).
///
/// Accounting mirrors [`SortOp`]: the bounded buffer takes a governor grant
/// (for its `n`-row capacity) and each output row charges per-tuple CPU, so
/// Top-N is not invisible to the robustness metrics — it is merely cheaper
/// than a full sort, not free.
pub struct TopNOp {
    inner: Option<BoxOp>,
    keys: Vec<(usize, SortOrder)>,
    n: usize,
    schema: Schema,
    ctx: ExecContext,
    out: Option<std::vec::IntoIter<Row>>,
    lease: WorkspaceLease,
    span: SpanHandle,
}

impl TopNOp {
    /// Keep the first `n` rows in sort order.
    pub fn new(
        inner: BoxOp,
        keys: &[(&str, SortOrder)],
        n: usize,
        ctx: ExecContext,
    ) -> Result<Self> {
        let schema = inner.schema().clone();
        let bound: Vec<(usize, SortOrder)> = keys
            .iter()
            .map(|(k, o)| schema.index_of(k).map(|i| (i, *o)))
            .collect::<Result<_>>()?;
        let span = ctx.op_span("top_n", &[&inner]);
        Ok(TopNOp {
            inner: Some(inner),
            keys: bound,
            n,
            schema,
            ctx,
            out: None,
            lease: WorkspaceLease::new(),
            span,
        })
    }

    /// Release the buffer grant and close the span (idempotent; see
    /// [`SortOp::finish`]).
    fn finish(&mut self) {
        if !self.span.is_closed() {
            self.lease.release(&self.ctx);
            self.span.close(&self.ctx.clock);
        }
    }
}

impl Drop for TopNOp {
    fn drop(&mut self) {
        self.finish();
    }
}

impl Operator for TopNOp {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next(&mut self) -> Option<Row> {
        if self.out.is_none() {
            let mut inner = self.inner.take().expect("run once");
            // Simple bounded selection: keep a sorted buffer of ≤ n rows.
            self.lease.grant(&self.ctx, &self.span, self.n as f64);
            // Room for a small limit up front; a huge one grows as rows come.
            let mut buf: Vec<Row> = Vec::with_capacity(self.n.min(1024) + 1);
            while let Some(r) = inner.next() {
                self.ctx.clock.charge(&rule::top_n_offer(buf.len() as f64));
                let pos = buf
                    .binary_search_by(|probe| cmp_rows(probe, &r, &self.keys))
                    .unwrap_or_else(|e| e);
                if pos < self.n {
                    buf.insert(pos, r);
                    buf.truncate(self.n);
                }
            }
            self.out = Some(buf.into_iter());
        }
        let row = self.out.as_mut().expect("filled").next();
        match &row {
            Some(_) => {
                self.ctx.clock.charge(&rule::emit(1.0));
                self.span.produced(&self.ctx.clock);
            }
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
    use crate::context::collect;
    use crate::filter::test_support::RowsOp;
    use rqp_common::{DataType, Value};

    fn src(n: i64) -> BoxOp {
        let schema = Schema::from_pairs(&[("a", DataType::Int), ("b", DataType::Int)]);
        let rows: Vec<Row> = (0..n)
            .map(|i| vec![Value::Int((i * 7919) % n), Value::Int(i)])
            .collect();
        RowsOp::boxed(schema, rows)
    }

    #[test]
    fn sorts_ascending() {
        let ctx = ExecContext::unbounded();
        let mut s = SortOp::asc(src(100), &["a"], ctx).unwrap();
        let out = collect(&mut s);
        assert_eq!(out.len(), 100);
        assert!(out.windows(2).all(|w| w[0][0] <= w[1][0]));
    }

    #[test]
    fn sorts_descending_with_secondary_key() {
        let ctx = ExecContext::unbounded();
        let schema = Schema::from_pairs(&[("a", DataType::Int), ("b", DataType::Int)]);
        let rows = vec![
            vec![Value::Int(1), Value::Int(2)],
            vec![Value::Int(1), Value::Int(1)],
            vec![Value::Int(2), Value::Int(0)],
        ];
        let mut s = SortOp::new(
            RowsOp::boxed(schema, rows),
            &[("a", SortOrder::Desc), ("b", SortOrder::Asc)],
            ctx,
        )
        .unwrap();
        let out = collect(&mut s);
        assert_eq!(out[0][0], Value::Int(2));
        assert_eq!(out[1], vec![Value::Int(1), Value::Int(1)]);
    }

    #[test]
    fn cancelled_sort_unwinds_and_releases_its_lease() {
        use rqp_common::RqpError;
        let ctx = ExecContext::with_memory(50_000.0);
        let mut s = SortOp::asc(src(10_000), &["a"], ctx.clone()).unwrap();
        // Partially drain, then cancel mid-stream: the next checkpoint
        // unwinds with the typed cause and Drop releases the grant.
        for _ in 0..5 {
            s.next();
        }
        assert!(ctx.memory.outstanding() > 0.0, "sort holds its grant");
        ctx.cancel.cancel();
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.next();
        }))
        .expect_err("cancelled sort must unwind");
        assert_eq!(
            *payload.downcast_ref::<RqpError>().expect("typed payload"),
            RqpError::Cancelled
        );
        drop(s);
        assert_eq!(ctx.memory.outstanding(), 0.0, "lease released on unwind");
    }

    #[test]
    fn memory_pressure_charges_spill() {
        let tight = ExecContext::with_memory(100.0);
        let mut s = SortOp::asc(src(10_000), &["a"], tight.clone()).unwrap();
        let out = collect(&mut s);
        assert_eq!(out.len(), 10_000);
        assert!(out.windows(2).all(|w| w[0][0] <= w[1][0]), "spill keeps order");
        assert!(tight.clock.breakdown().spill > 0.0);

        let ample = ExecContext::unbounded();
        let mut s = SortOp::asc(src(10_000), &["a"], ample.clone()).unwrap();
        collect(&mut s);
        assert_eq!(ample.clock.breakdown().spill, 0.0);
        assert!(ample.clock.now() < tight.clock.now());
    }

    #[test]
    fn topn_matches_sort_prefix() {
        let ctx = ExecContext::unbounded();
        let mut t = TopNOp::new(src(500), &[("a", SortOrder::Asc)], 10, ctx.clone()).unwrap();
        let top = collect(&mut t);
        assert!(ctx.clock.now() > 0.0, "top-n is not free to the cost model");
        let topn_cost = ctx.clock.now();
        let mut s = SortOp::asc(src(500), &["a"], ctx.clone()).unwrap();
        let full = collect(&mut s);
        assert_eq!(top.len(), 10);
        for (a, b) in top.iter().zip(full.iter()) {
            assert_eq!(a[0], b[0]);
        }
        assert!(
            ctx.clock.now() - topn_cost > topn_cost,
            "full sort costs more than top-n"
        );
        drop(s);
        drop(t);
        assert_eq!(ctx.memory.outstanding(), 0.0, "buffer grants released");
    }

    #[test]
    fn topn_takes_a_buffer_grant() {
        let ctx = ExecContext::with_memory(1_000.0);
        let mut t = TopNOp::new(src(500), &[("a", SortOrder::Asc)], 10, ctx.clone()).unwrap();
        assert!(t.next().is_some());
        assert_eq!(ctx.memory.outstanding(), 10.0, "n-row buffer is accounted");
        collect(&mut t);
        assert_eq!(ctx.memory.outstanding(), 0.0, "released on drain");
    }

    #[test]
    fn partial_drain_releases_grant_and_closes_span() {
        // The headline early-termination bug: a consumer that stops early
        // (limit, top-n, POP re-plan) must not leak workspace or leave open
        // spans in the run report.
        let ctx = ExecContext::with_memory(50_000.0);
        let mut s = SortOp::asc(src(10_000), &["a"], ctx.clone()).unwrap();
        for _ in 0..3 {
            s.next(); // materializes (grant 10_000), yields 3 of 10_000 rows
        }
        assert_eq!(ctx.memory.outstanding(), 10_000.0, "grant held mid-drain");
        drop(s);
        assert_eq!(ctx.memory.outstanding(), 0.0, "drop releases the grant");
        assert!(
            ctx.tracer.snapshot().iter().all(|sp| !sp.closed_at.is_nan()),
            "no open spans after drop"
        );

        // Same for a partially drained top-n.
        let ctx = ExecContext::with_memory(50_000.0);
        let mut t =
            TopNOp::new(src(1_000), &[("a", SortOrder::Asc)], 100, ctx.clone()).unwrap();
        t.next();
        assert_eq!(ctx.memory.outstanding(), 100.0);
        drop(t);
        assert_eq!(ctx.memory.outstanding(), 0.0);
        assert!(ctx.tracer.snapshot().iter().all(|sp| !sp.closed_at.is_nan()));
    }

    #[test]
    fn budget_shrink_mid_drain_sheds_and_spills_once() {
        // The chaos-governor regression test: a shrink landing while the
        // sort is draining must shed workspace, charge spill exactly once
        // per shock, and leave nothing outstanding at completion.
        let ctx = ExecContext::with_memory(50_000.0);
        let mut s = SortOp::asc(src(10_000), &["a"], ctx.clone()).unwrap();
        for _ in 0..3 {
            s.next();
        }
        assert_eq!(ctx.memory.outstanding(), 10_000.0, "grant held mid-drain");
        assert_eq!(ctx.clock.breakdown().spill, 0.0, "no pressure yet");
        // Shock 1: shrink below the holding.
        ctx.memory.set_budget(2_000.0);
        s.next();
        assert_eq!(ctx.memory.outstanding(), 2_000.0, "overflow shed");
        let spill1 = ctx.clock.breakdown().spill;
        assert!(spill1 > 0.0, "shed workspace is charged as spill");
        assert_eq!(s.span().unwrap().spill_events(), 1, "exactly one spill per shock");
        // Draining further without another shock spills nothing more.
        for _ in 0..100 {
            s.next();
        }
        assert_eq!(ctx.clock.breakdown().spill, spill1);
        // Shock 2: another shrink, exactly one more spill event.
        ctx.memory.set_budget(500.0);
        s.next();
        assert_eq!(ctx.memory.outstanding(), 500.0);
        assert!(ctx.clock.breakdown().spill > spill1);
        assert_eq!(s.span().unwrap().spill_events(), 2);
        // Full drain completes with nothing outstanding and the event trail
        // in the span.
        let rest = collect(&mut s);
        assert_eq!(rest.len(), 10_000 - 3 - 1 - 100 - 1);
        assert_eq!(ctx.memory.outstanding(), 0.0, "outstanding()==0 after completion");
        let events = s.span().unwrap().events();
        assert_eq!(
            events.iter().filter(|e| e.kind == "governor.pressure").count(),
            2,
            "one governor.pressure event per shock"
        );
    }

    #[test]
    fn topn_with_fewer_rows_than_n() {
        let ctx = ExecContext::unbounded();
        let mut t = TopNOp::new(src(3), &[("a", SortOrder::Asc)], 10, ctx).unwrap();
        assert_eq!(collect(&mut t).len(), 3);
    }

    #[test]
    fn empty_sort() {
        let ctx = ExecContext::unbounded();
        let schema = Schema::from_pairs(&[("a", DataType::Int)]);
        let mut s = SortOp::asc(RowsOp::boxed(schema, vec![]), &["a"], ctx.clone()).unwrap();
        assert!(s.next().is_none());
        assert_eq!(ctx.clock.now(), 0.0);
    }

    #[test]
    fn unknown_sort_key_errors() {
        let ctx = ExecContext::unbounded();
        assert!(SortOp::asc(src(5), &["zz"], ctx).is_err());
    }
}
