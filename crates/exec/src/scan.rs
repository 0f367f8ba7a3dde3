//! Scan operators: full table scan, index scan (one- or multi-column, an
//! equality prefix plus a range), cracker scan, adaptive-merge scan.
//!
//! The cost asymmetry between these access paths — sequential pages for the
//! full scan, random pages per row for an unclustered index — is the origin
//! of the scan-vs-index *performance cliff* that the selectivity-smoothness
//! experiment (E07) measures, and that robust plan selection tries to keep
//! away from.

use crate::context::ExecContext;
use crate::Operator;
use rqp_common::{rule, Row, RqpError, Schema, Value};
use rqp_storage::{
    AdaptiveMergeIndex, BufferPool, CrackerColumn, Index, PagePin, RidCursor, RowId, Table,
};
use rqp_telemetry::SpanHandle;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

/// Row-at-a-time sequential scan of a whole table: the reference the batch
/// scan ([`crate::BatchScanOp`]), which the planner and the exchange run, is
/// tested against.
pub struct TableScanOp {
    table: Arc<Table>,
    schema: Schema,
    ctx: ExecContext,
    pos: usize,
    rows_per_page: f64,
    chaos: bool,
    /// The table's buffer pool, if one is attached; `None` keeps the legacy
    /// always-resident path (no pin accounting, no extra charges).
    pager: Option<Arc<BufferPool>>,
    /// The pin on the page the cursor is currently reading. Replaced at each
    /// page boundary; dropped on drain or operator drop, so early
    /// termination (cancel, deadline, disconnect) never leaks a pin.
    pin: Option<PagePin>,
    span: SpanHandle,
}

impl TableScanOp {
    /// Scan `table`, emitting rows with the qualified schema.
    pub fn new(table: Arc<Table>, ctx: ExecContext) -> Self {
        let schema = table.qualified_schema();
        let rows_per_page = ctx.clock.params().rows_per_page;
        let span = ctx.tracer.open("table_scan", &ctx.clock);
        span.set_detail(table.name());
        let chaos = ctx.chaos.is_enabled();
        if chaos {
            rqp_common::chaos::install_quiet_panic_hook();
        }
        let pager = table.pager();
        TableScanOp {
            table,
            schema,
            ctx,
            pos: 0,
            rows_per_page,
            chaos,
            pager,
            pin: None,
            span,
        }
    }

    /// Chaos injection point, hit once per page boundary; see [`page_chaos`].
    fn page_chaos(&mut self, page: u64) {
        page_chaos(&self.ctx, &self.span, self.table.name(), page);
    }
}

/// Chaos injection point, hit once per page boundary by both the scalar
/// [`TableScanOp`] and the batch scan. Both decisions key on the **absolute
/// page index**, so the fault schedule is identical no matter how the table
/// is partitioned across exchange workers — or whether rows are pulled one
/// at a time or in batches.
///
/// Transient read faults are retried per the error taxonomy
/// ([`RqpError::is_retryable`]), each retry charging one random-page
/// re-read; exhausting the retry budget escalates to a fatal error,
/// raised as a panic that the exchange's join-handle recovery converts
/// into a lost-partition retry. Memory shocks shrink (or restore) the
/// governor budget; renegotiating operators observe the pressure epoch.
pub(crate) fn page_chaos(ctx: &ExecContext, span: &SpanHandle, table_name: &str, page: u64) {
    let policy = &ctx.chaos;
    let mut attempt = 0u32;
    while policy.scan_fault(table_name, page, attempt) {
        let err = RqpError::TransientIo {
            site: format!("{table_name}/{page}"),
            attempt,
        };
        if attempt >= policy.scan_max_retries() || !err.is_retryable() {
            let fatal = RqpError::Execution(format!("retries exhausted: {err}"));
            span.record_event(&ctx.clock, "chaos.scan_fatal", &fatal.to_string());
            ctx.metrics.counter("chaos.scan_fatal").inc();
            std::panic::panic_any(fatal);
        }
        attempt += 1;
        // The retry re-reads the page out of sequence.
        ctx.clock.charge(&rule::random_pages(1.0));
        span.record_event(
            &ctx.clock,
            "chaos.scan_retry",
            &format!("{err} (retrying)"),
        );
        ctx.metrics.counter("chaos.scan_retries").inc();
    }
    if let Some(fraction) = policy.memory_shock(table_name, page) {
        ctx.metrics.counter("chaos.memory_shocks").inc();
        if fraction >= 1.0 {
            ctx.memory.restore();
            span.record_event(
                &ctx.clock,
                "chaos.memory_restore",
                &format!("budget restored to {:.0}", ctx.memory.base_budget()),
            );
        } else {
            let target = ctx.memory.base_budget() * fraction;
            let overcommitted = ctx.memory.shock_to(target);
            span.record_event(
                &ctx.clock,
                "chaos.memory_shock",
                &format!(
                    "budget shocked to {target:.0} ({fraction}x base){}",
                    if overcommitted { ", governor overcommitted" } else { "" }
                ),
            );
        }
    }
}

/// Pin one page of `table_name` through the buffer pool, shared by the
/// scalar and batch scans. Pool hits and first-ever loads charge nothing
/// (the scan's own per-boundary sequential charge *is* that read); re-faults
/// after eviction and injected page-I/O retries each charge one random page
/// inside [`BufferPool::pin`]. Pager activity is mirrored into `pager.*`
/// metrics; retries and fatal outcomes also land in the flight recorder via
/// span events. Pool errors — typed budget exhaustion, retries exhausted —
/// are raised as panics carrying the [`RqpError`], which the exchange's
/// join-handle triage surfaces typed instead of retrying.
pub(crate) fn pin_page(
    ctx: &ExecContext,
    span: &SpanHandle,
    pool: &Arc<BufferPool>,
    table_name: &str,
    page: u64,
) -> PagePin {
    match pool.pin(table_name, page, &ctx.clock, &ctx.chaos) {
        Ok((pin, outcome)) => {
            if outcome.hit {
                ctx.metrics.counter("pager.hits").inc();
            } else {
                ctx.metrics.counter("pager.faults").inc();
                if outcome.refault {
                    ctx.metrics.counter("pager.refaults").inc();
                }
            }
            if outcome.retries > 0 {
                ctx.metrics.counter("pager.retries").add(u64::from(outcome.retries));
                span.record_event(
                    &ctx.clock,
                    "pager.page_retry",
                    &format!(
                        "{table_name}/{page}: {} transient page-I/O fault(s), re-read charged",
                        outcome.retries
                    ),
                );
            }
            pin
        }
        Err(err) => {
            ctx.metrics.counter("pager.fatal").inc();
            span.record_event(&ctx.clock, "pager.fatal", &err.to_string());
            std::panic::panic_any(err);
        }
    }
}

impl Operator for TableScanOp {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next(&mut self) -> Option<Row> {
        if self.pos >= self.table.nrows() {
            self.pin = None;
            self.span.close(&self.ctx.clock);
            return None;
        }
        // One sequential page each time the cursor crosses a page boundary.
        // The page boundary is also the cancellation checkpoint: a cancelled
        // or past-deadline query stops within one page of work.
        if self.pos as f64 % self.rows_per_page == 0.0 {
            self.ctx.checkpoint();
            self.ctx.clock.charge(&rule::scan(1.0, 0.0));
            let page = (self.pos as f64 / self.rows_per_page) as u64;
            if self.chaos {
                self.page_chaos(page);
            }
            if let Some(pool) = &self.pager {
                // Unpin the page just left *before* pinning the next one, so
                // a lone scan makes progress with a single frame of budget.
                self.pin = None;
                self.pin =
                    Some(pin_page(&self.ctx, &self.span, pool, self.table.name(), page));
            }
        }
        self.ctx.clock.charge(&rule::scan(0.0, 1.0));
        let row = self.table.row(self.pos);
        self.pos += 1;
        self.span.produced(&self.ctx.clock);
        Some(row)
    }

    fn span(&self) -> Option<&SpanHandle> {
        Some(&self.span)
    }
}

/// Index scan: rows whose leading indexed columns equal `prefix` and whose
/// next column lies in an inclusive `[lo, hi]`; residual predicates are
/// applied upstream. A lookup the index rejects (a prefix longer than its
/// columns) matches nothing.
///
/// Clustered: matched rows are fetched with sequential pages. Unclustered:
/// every row costs one random page — cheap at low selectivity, disastrous at
/// high selectivity.
pub struct IndexScanOp {
    index: Arc<Index>,
    table: Arc<Table>,
    schema: Schema,
    ctx: ExecContext,
    prefix: Vec<Value>,
    lo: Option<Value>,
    hi: Option<Value>,
    /// Position in the index's run once opened; rows are fetched as the
    /// cursor walks, the rid list is never materialized.
    cursor: Option<RidCursor>,
    pos: usize,
    span: SpanHandle,
}

impl IndexScanOp {
    /// Scan `index` under the equality `prefix`, with the next column in
    /// `[lo, hi]` (inclusive; `None` = unbounded).
    pub fn new(
        index: Arc<Index>,
        table: Arc<Table>,
        prefix: Vec<Value>,
        lo: Option<Value>,
        hi: Option<Value>,
        ctx: ExecContext,
    ) -> Self {
        let schema = table.qualified_schema();
        let span = ctx.tracer.open("index_scan", &ctx.clock);
        span.set_detail(&format!("{}:{}", table.name(), index.name()));
        IndexScanOp {
            index,
            table,
            schema,
            ctx,
            prefix,
            lo,
            hi,
            cursor: None,
            pos: 0,
            span,
        }
    }
}

impl Operator for IndexScanOp {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next(&mut self) -> Option<Row> {
        let index = &self.index;
        let cursor = self.cursor.get_or_insert_with(|| {
            self.ctx.clock.charge(&rule::descend(index.entries() as f64));
            index
                .lookup(&self.prefix, self.lo.as_ref(), self.hi.as_ref())
                .map(|ids| ids.into_cursor())
                .unwrap_or_default()
        });
        let Some(rid) = index.next_rid(cursor) else {
            self.span.close(&self.ctx.clock);
            return None;
        };
        let page = f64::from(self.pos as f64 % self.ctx.clock.params().rows_per_page == 0.0);
        let fetched = rule::fetch(self.index.clustered(), 0.0, page, 1.0);
        self.ctx.clock.charge(&(fetched + rule::emit(1.0)));
        self.pos += 1;
        self.span.produced(&self.ctx.clock);
        Some(self.table.row(rid))
    }

    fn span(&self) -> Option<&SpanHandle> {
        Some(&self.span)
    }
}

/// Scan answered by a cracker column: cracking work is charged as CPU, then
/// rows are reconstructed from the base table.
pub struct CrackerScanOp {
    cracker: Rc<RefCell<CrackerColumn>>,
    table: Arc<Table>,
    schema: Schema,
    ctx: ExecContext,
    lo: i64,
    hi: i64,
    rowids: Option<Vec<RowId>>,
    pos: usize,
    span: SpanHandle,
}

impl CrackerScanOp {
    /// Scan `[lo, hi]` via the cracker column of one of `table`'s columns.
    pub fn new(
        cracker: Rc<RefCell<CrackerColumn>>,
        table: Arc<Table>,
        lo: i64,
        hi: i64,
        ctx: ExecContext,
    ) -> Self {
        let schema = table.qualified_schema();
        let span = ctx.tracer.open("cracker_scan", &ctx.clock);
        span.set_detail(table.name());
        CrackerScanOp { cracker, table, schema, ctx, lo, hi, rowids: None, pos: 0, span }
    }
}

impl Operator for CrackerScanOp {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next(&mut self) -> Option<Row> {
        if self.rowids.is_none() {
            let (ids, stats) = self.cracker.borrow_mut().query(self.lo, self.hi);
            // Partitioning work: one compare + potential swap per touched
            // tuple; merged updates cost a tuple move each.
            self.ctx.clock.charge(&rule::filter(stats.touched as f64));
            self.ctx.clock.charge(&rule::emit(stats.merged_updates as f64));
            self.rowids = Some(ids);
        }
        let ids = self.rowids.as_ref().expect("opened above");
        if self.pos >= ids.len() {
            self.span.close(&self.ctx.clock);
            return None;
        }
        self.ctx.clock.charge(&rule::emit(1.0));
        let row = self.table.row(ids[self.pos]);
        self.pos += 1;
        self.span.produced(&self.ctx.clock);
        Some(row)
    }

    fn span(&self) -> Option<&SpanHandle> {
        Some(&self.span)
    }
}

/// Scan answered by an adaptive-merge index.
pub struct AMergeScanOp {
    amerge: Rc<RefCell<AdaptiveMergeIndex>>,
    table: Arc<Table>,
    schema: Schema,
    ctx: ExecContext,
    lo: i64,
    hi: i64,
    rowids: Option<Vec<RowId>>,
    pos: usize,
    span: SpanHandle,
}

impl AMergeScanOp {
    /// Scan `[lo, hi]` via an adaptive-merge index of one of `table`'s
    /// columns.
    pub fn new(
        amerge: Rc<RefCell<AdaptiveMergeIndex>>,
        table: Arc<Table>,
        lo: i64,
        hi: i64,
        ctx: ExecContext,
    ) -> Self {
        let schema = table.qualified_schema();
        let span = ctx.tracer.open("amerge_scan", &ctx.clock);
        span.set_detail(table.name());
        AMergeScanOp { amerge, table, schema, ctx, lo, hi, rowids: None, pos: 0, span }
    }
}

impl Operator for AMergeScanOp {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next(&mut self) -> Option<Row> {
        if self.rowids.is_none() {
            let (ids, stats) = self.amerge.borrow_mut().query(self.lo, self.hi);
            self.ctx.clock.charge(&rule::merge(stats.probes as f64));
            // Moving an entry into the merged index ≈ one B-tree insert.
            self.ctx.clock.charge(&rule::hash_build(stats.moved as f64));
            self.rowids = Some(ids);
        }
        let ids = self.rowids.as_ref().expect("opened above");
        if self.pos >= ids.len() {
            self.span.close(&self.ctx.clock);
            return None;
        }
        self.ctx.clock.charge(&rule::emit(1.0));
        let row = self.table.row(ids[self.pos]);
        self.pos += 1;
        self.span.produced(&self.ctx.clock);
        Some(row)
    }

    fn span(&self) -> Option<&SpanHandle> {
        Some(&self.span)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::collect;
    use crate::{BatchRowsOp, BatchScanOp};
    use rqp_common::DataType;
    use rqp_storage::Catalog;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let schema = Schema::from_pairs(&[("k", DataType::Int), ("v", DataType::Float)]);
        let mut t = Table::new("t", schema);
        for i in 0..1000i64 {
            t.append(vec![Value::Int(i), Value::Float(i as f64)]);
        }
        c.add_table(t);
        c.create_index("ix", "t", &["k"]).unwrap();
        c
    }

    fn cracker(c: &Catalog) -> Rc<RefCell<CrackerColumn>> {
        Rc::new(RefCell::new(CrackerColumn::over(&c.table("t").unwrap(), "k").unwrap()))
    }

    fn amerge(c: &Catalog) -> Rc<RefCell<AdaptiveMergeIndex>> {
        Rc::new(RefCell::new(AdaptiveMergeIndex::over(&c.table("t").unwrap(), "k", 100).unwrap()))
    }

    #[test]
    fn table_scan_reads_all_and_charges_pages() {
        let c = catalog();
        let ctx = ExecContext::unbounded();
        let mut s = TableScanOp::new(c.table("t").unwrap(), ctx.clone());
        let rows = collect(&mut s);
        assert_eq!(rows.len(), 1000);
        let b = ctx.clock.breakdown();
        assert!((b.seq_io - 10.0).abs() < 1e-9, "10 pages, got {}", b.seq_io);
        assert!(b.rand_io == 0.0);
        assert_eq!(s.schema().field(0).name, "t.k");
    }

    #[test]
    fn range_scans_tile_the_table_and_sum_to_sequential_cost() {
        let c = catalog();
        let table = c.table("t").unwrap();
        let range_scan = |s: usize, e: usize, ctx: &ExecContext| {
            let scan = BatchScanOp::with_range(table.clone(), s, e, ctx.clone());
            collect(BatchRowsOp::boxed(Box::new(scan), ctx.clone()).as_mut())
        };
        // Sequential baseline.
        let seq = ExecContext::unbounded();
        let seq_rows = collect(&mut TableScanOp::new(table.clone(), seq.clone()));
        // Page-aligned partitions: concatenated rows identical, page charges
        // sum exactly to the sequential total.
        for k in [2, 3, 8] {
            let ctx = ExecContext::unbounded();
            let mut rows = Vec::new();
            for (s, e) in table.page_partitions(k, 100) {
                rows.extend(range_scan(s, e, &ctx));
            }
            assert_eq!(rows, seq_rows, "k={k}");
            assert_eq!(
                ctx.clock.breakdown(),
                seq.clock.breakdown(),
                "k={k}: partitioned cost equals sequential cost"
            );
        }
        // An unaligned range still pays for the page it enters mid-way.
        let ctx = ExecContext::unbounded();
        let rows = range_scan(150, 250, &ctx);
        assert_eq!(rows.len(), 100);
        assert_eq!(rows[0][0], Value::Int(150));
        assert!((ctx.clock.breakdown().seq_io - 2.0).abs() < 1e-9, "2 pages touched");
    }

    #[test]
    fn clustered_index_scan_range() {
        let c = catalog();
        let ctx = ExecContext::unbounded();
        let idx = c.index("ix").unwrap();
        assert!(idx.clustered());
        let mut s = IndexScanOp::new(
            idx,
            c.table("t").unwrap(),
            Vec::new(),
            Some(Value::Int(100)),
            Some(Value::Int(199)),
            ctx.clone(),
        );
        let rows = collect(&mut s);
        assert_eq!(rows.len(), 100);
        assert_eq!(rows[0][0], Value::Int(100));
        let b = ctx.clock.breakdown();
        assert!(b.seq_io <= 1.0 + 1e-9, "clustered: ~1 page for 100 rows");
        assert_eq!(b.rand_io, 0.0);
    }

    #[test]
    fn unclustered_index_scan_charges_random_io() {
        let mut c = Catalog::new();
        let schema = Schema::from_pairs(&[("k", DataType::Int)]);
        let mut t = Table::new("t", schema);
        for i in 0..1000i64 {
            t.append(vec![Value::Int((i * 7919) % 1000)]);
        }
        c.add_table(t);
        c.create_index("ix", "t", &["k"]).unwrap();
        let idx = c.index("ix").unwrap();
        assert!(!idx.clustered());
        let ctx = ExecContext::unbounded();
        let mut s = IndexScanOp::new(
            idx,
            c.table("t").unwrap(),
            Vec::new(),
            Some(Value::Int(0)),
            Some(Value::Int(99)),
            ctx.clone(),
        );
        let rows = collect(&mut s);
        assert_eq!(rows.len(), 100);
        let b = ctx.clock.breakdown();
        assert!(b.rand_io >= 100.0 * 4.0 - 1e-9, "one random page per row");
    }

    #[test]
    fn cracker_scan_matches_table_scan_results() {
        let c = catalog();
        let cracker = cracker(&c);
        let ctx = ExecContext::unbounded();
        let mut s = CrackerScanOp::new(
            Rc::clone(&cracker),
            c.table("t").unwrap(),
            250,
            349,
            ctx.clone(),
        );
        let mut rows = collect(&mut s);
        rows.sort_by(|a, b| a[0].cmp(&b[0]));
        assert_eq!(rows.len(), 100);
        assert_eq!(rows[0][0], Value::Int(250));
        assert!(ctx.clock.now() > 0.0);
        // Second identical query is much cheaper.
        let ctx2 = ExecContext::unbounded();
        let mut s2 = CrackerScanOp::new(
            Rc::clone(&cracker),
            c.table("t").unwrap(),
            250,
            349,
            ctx2.clone(),
        );
        let rows2 = collect(&mut s2);
        assert_eq!(rows2.len(), 100);
        assert!(ctx2.clock.now() < ctx.clock.now() / 2.0);
    }

    #[test]
    fn amerge_scan_matches_and_converges() {
        let c = catalog();
        let amerge = amerge(&c);
        let ctx = ExecContext::unbounded();
        let mut s = AMergeScanOp::new(
            Rc::clone(&amerge),
            c.table("t").unwrap(),
            500,
            599,
            ctx.clone(),
        );
        let rows = collect(&mut s);
        assert_eq!(rows.len(), 100);
        let first_cost = ctx.clock.now();
        let ctx2 = ExecContext::unbounded();
        let mut s2 = AMergeScanOp::new(
            Rc::clone(&amerge),
            c.table("t").unwrap(),
            500,
            599,
            ctx2.clone(),
        );
        collect(&mut s2);
        assert!(ctx2.clock.now() < first_cost);
    }

    #[test]
    fn empty_table_scan() {
        let mut c = Catalog::new();
        c.add_table(Table::new("e", Schema::from_pairs(&[("x", DataType::Int)])));
        let ctx = ExecContext::unbounded();
        let mut s = TableScanOp::new(c.table("e").unwrap(), ctx.clone());
        assert!(s.next().is_none());
        assert_eq!(ctx.clock.now(), 0.0);
    }
}
