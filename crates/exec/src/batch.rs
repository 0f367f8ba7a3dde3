//! Batch-at-a-time twins of the scalar hot-path operators.
//!
//! Each operator here consumes/produces [`ColumnBatch`]es instead of rows:
//! the scan packs a table range into typed column vectors (dictionary-encoding
//! strings), the filter clears selection bits by the batch evaluator's
//! verdicts, and the hash join and aggregation key their rows through the
//! shared keyed state ([`rqp_storage::keyed`]): the typed key map, with a
//! string entering as its dictionary code, and the group table of
//! accumulators every aggregation folds into.
//!
//! The planner (`PhysicalPlan::build` in `rqp-opt`) lowers every maximal
//! batchable subtree — table scans with their predicates, single-key hash
//! joins, column projections — into one batch pipeline, feeds an
//! aggregation over one into [`BatchHashAggOp`], and puts the one
//! [`BatchRowsOp`] row adapter where a row operator takes the pipeline
//! over. Every parallel-scan exchange worker scans its range with
//! [`BatchScanOp`] too. The scalar twins remain where a plan cannot run on
//! batches (multi-key joins, index access, the adaptive operators) and as
//! the reference these operators are tested against.
//!
//! **Cost contract.** Every batch operator charges the [cost
//! clock](rqp_common::clock) the *same amounts* as its scalar twin, just in
//! bulk (one `charge(&rule::emit(n))` instead of `n` charges of `1.0`). Page
//! charges, pins and chaos injection still happen per absolute page index,
//! so fault schedules are identical in both modes. The clock counts amounts
//! exactly, so the two breakdowns are bit-identical under any cost
//! parameters (the property tests in `tests/batch.rs` pin it).
//!
//! **Row contract.** A batch plan yields exactly the rows of its scalar twin,
//! in the same order — including the hash join's reversed per-probe match
//! emission and the aggregation's group-key output order.
//!
//! The batch hash join takes one key column per side (the common case in
//! this testbed); the aggregation groups by any number of columns.

use crate::context::{ExecContext, WorkspaceLease};
use crate::scan::{page_chaos, pin_page};
use crate::Operator;
use crate::agg::{AggBinding, AggSpec};
use rqp_common::expr::BoundExpr;
use rqp_common::{
    rule,
    ColVec, ColumnBatch, DataType, Expr, Result, Row, RqpError, Schema, StringDict, Truth, Value,
};
use rqp_storage::keyed::Keys;
use rqp_storage::{GroupTable, IndexKey, Table};
use rqp_telemetry::SpanHandle;
use std::sync::Arc;

/// A pull-based batch operator: the batch-mode analogue of [`Operator`].
pub trait BatchOperator {
    /// Output schema (one field per batch column).
    fn schema(&self) -> &Schema;

    /// The string dictionary all `Str` columns' codes point into. Operators
    /// that combine two batch streams require `Arc::ptr_eq` dictionaries.
    fn dict(&self) -> &Arc<StringDict>;

    /// Produce the next batch, or `None` when exhausted. A returned batch
    /// may have zero selected rows — consumers must keep pulling.
    fn next_batch(&mut self) -> Option<ColumnBatch>;

    /// The telemetry span counting this operator's output.
    fn span(&self) -> Option<&SpanHandle> {
        None
    }
}

/// Boxed batch operator, the unit of batch-plan composition.
pub type BoxBatchOp = Box<dyn BatchOperator>;

/// Copy row `i` of `src` onto the end of `dst` (same-typed columns).
fn push_from(dst: &mut ColVec, src: &ColVec, i: usize) {
    match (dst, src) {
        (ColVec::Int(d), ColVec::Int(s)) => d.push(s[i]),
        (ColVec::Float(d), ColVec::Float(s)) => d.push(s[i]),
        (ColVec::Str(d), ColVec::Str(s)) => d.push(s[i]),
        _ => unreachable!("column type drift within one batch stream"),
    }
}

/// An empty column vector of the same type as `like`.
fn empty_like(like: &ColVec) -> ColVec {
    match like {
        ColVec::Int(_) => ColVec::Int(Vec::new()),
        ColVec::Float(_) => ColVec::Float(Vec::new()),
        ColVec::Str(_) => ColVec::Str(Vec::new()),
    }
}

/// An empty column vector for a schema field type, with room for `rows`.
fn empty_for(dtype: DataType, rows: usize) -> ColVec {
    match dtype {
        DataType::Int => ColVec::Int(Vec::with_capacity(rows)),
        DataType::Float => ColVec::Float(Vec::with_capacity(rows)),
        DataType::Str => ColVec::Str(Vec::with_capacity(rows)),
    }
}

// ---------------------------------------------------------------------------
// Scan
// ---------------------------------------------------------------------------

/// Sequential batch scan of a table (or contiguous row range), in batches of
/// [`rqp_common::DEFAULT_BATCH_ROWS`] rows.
///
/// Page charges, cancellation checkpoints, chaos injection and buffer-pool
/// pins happen at the same absolute page boundaries as
/// [`crate::scan::TableScanOp`]; per-tuple CPU is charged in bulk per page.
/// So a range starting on a page boundary (as [`Table::page_partitions`]
/// guarantees) charges exactly its own pages, and per-range charges sum to
/// the whole scan's for any partition count.
/// `Str` columns are dictionary-encoded through the pipeline's shared
/// [`StringDict`] at batch-build time. The planner lowers every table scan
/// through this operator, with the plan's one dictionary, and each
/// [`ExchangeOp::parallel_scan`](crate::ExchangeOp::parallel_scan) worker
/// scans its range with it.
pub struct BatchScanOp {
    table: Arc<Table>,
    schema: Schema,
    ctx: ExecContext,
    dict: Arc<StringDict>,
    /// Per `Str` column: the table's memoized local encoding plus the map
    /// from local codes to this pipeline's dictionary codes. One intern per
    /// *distinct* value at construction, pure integer gathers per batch.
    str_cols: Vec<Option<(Arc<rqp_storage::StrEncoding>, Vec<u32>)>>,
    pos: usize,
    start: usize,
    end: usize,
    rows_per_page: f64,
    chaos: bool,
    /// The table's buffer pool, if attached (see [`crate::scan::pin_page`]).
    pager: Option<Arc<rqp_storage::BufferPool>>,
    /// The pin on the page the cursor is reading, as in the scalar scan:
    /// replaced at each page boundary, dropped on drain or operator drop.
    pin: Option<rqp_storage::PagePin>,
    span: SpanHandle,
}

impl BatchScanOp {
    /// Scan all of `table` with a fresh dictionary.
    pub fn new(table: Arc<Table>, ctx: ExecContext) -> Self {
        let end = table.nrows();
        Self::with_dict(table, 0, end, Arc::new(StringDict::new()), ctx)
    }

    /// Scan rows `[start, end)` with a fresh dictionary.
    pub fn with_range(table: Arc<Table>, start: usize, end: usize, ctx: ExecContext) -> Self {
        Self::with_dict(table, start, end, Arc::new(StringDict::new()), ctx)
    }

    /// Scan rows `[start, end)`, interning strings into `dict` (pass the
    /// same dictionary to every source feeding one batch pipeline).
    pub fn with_dict(
        table: Arc<Table>,
        start: usize,
        end: usize,
        dict: Arc<StringDict>,
        ctx: ExecContext,
    ) -> Self {
        let schema = table.qualified_schema();
        let rows_per_page = ctx.clock.params().rows_per_page;
        let end = end.min(table.nrows());
        let start = start.min(end);
        let span = ctx.tracer.open("batch_scan", &ctx.clock);
        if start == 0 && end == table.nrows() {
            span.set_detail(table.name());
        } else {
            span.set_detail(&format!("{}[{start}..{end}]", table.name()));
        }
        let chaos = ctx.chaos.is_enabled();
        if chaos {
            rqp_common::chaos::install_quiet_panic_hook();
        }
        let str_cols = (0..schema.len())
            .map(|c| {
                table.str_encoding(c).map(|enc| {
                    let xlate: Vec<u32> = enc.values.iter().map(|s| dict.intern(s)).collect();
                    (enc, xlate)
                })
            })
            .collect();
        let pager = table.pager();
        BatchScanOp {
            table,
            schema,
            ctx,
            dict,
            str_cols,
            pos: start,
            start,
            end,
            rows_per_page,
            chaos,
            pager,
            pin: None,
            span,
        }
    }
}

impl BatchOperator for BatchScanOp {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn dict(&self) -> &Arc<StringDict> {
        &self.dict
    }

    fn next_batch(&mut self) -> Option<ColumnBatch> {
        if self.pos >= self.end {
            self.pin = None;
            self.span.close(&self.ctx.clock);
            return None;
        }
        let start = self.pos;
        let end = (start + rqp_common::DEFAULT_BATCH_ROWS).min(self.end);
        let mut columns: Vec<ColVec> =
            self.schema.fields().iter().map(|f| empty_for(f.dtype, end - start)).collect();
        // The scalar scan's page walk, a page at a time: each time the cursor
        // crosses a page boundary (or enters mid-page at the start of its
        // range), one checkpoint, one sequential page, chaos keyed on the
        // absolute page index, and the pin moves to the new page; then that
        // page's rows in this batch are copied and charged. So every
        // checkpoint reads the clock the scalar scan reads, and the scan
        // holds at most one pin.
        let mut from = start;
        while from < end {
            if from as f64 % self.rows_per_page == 0.0 || from == self.start {
                self.ctx.checkpoint();
                self.ctx.clock.charge(&rule::scan(1.0, 0.0));
                let page = (from as f64 / self.rows_per_page) as u64;
                if self.chaos {
                    page_chaos(&self.ctx, &self.span, self.table.name(), page);
                }
                if let Some(pool) = &self.pager {
                    self.pin = None;
                    self.pin = Some(pin_page(&self.ctx, &self.span, pool, self.table.name(), page));
                }
            }
            let to = self.next_page_start(from).min(end);
            self.copy_rows(from..to, &mut columns);
            self.ctx.clock.charge(&rule::scan(0.0, (to - from) as f64));
            from = to;
        }
        self.pos = end;
        self.span.produced_n(&self.ctx.clock, (end - start) as u64);
        Some(ColumnBatch::new(columns, Arc::clone(&self.dict)))
    }

    fn span(&self) -> Option<&SpanHandle> {
        Some(&self.span)
    }
}

impl BatchScanOp {
    /// The first row after `pos` that starts a page (where the scalar scan's
    /// `pos % rows_per_page == 0` holds), or `self.end`.
    fn next_page_start(&self, pos: usize) -> usize {
        let rpp = self.rows_per_page;
        if rpp >= 1.0 && rpp.fract() == 0.0 {
            let rpp = rpp as usize;
            return (pos / rpp + 1) * rpp;
        }
        (pos + 1..self.end).find(|&p| p as f64 % rpp == 0.0).unwrap_or(self.end)
    }

    /// Append table rows `range` to the batch's columns.
    fn copy_rows(&self, range: std::ops::Range<usize>, columns: &mut [ColVec]) {
        for (c, out) in columns.iter_mut().enumerate() {
            let col = self.table.column(c);
            match out {
                ColVec::Int(v) => {
                    col.as_int_slice().expect("Int column").slice(range.clone()).extend_into(v)
                }
                ColVec::Float(v) => {
                    v.extend_from_slice(&col.as_float_slice().expect("Float column")[range.clone()])
                }
                ColVec::Str(v) => {
                    let (enc, xlate) = self.str_cols[c].as_ref().expect("Str column");
                    v.extend(enc.codes[range.clone()].iter().map(|&lc| xlate[lc as usize]));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Filter
// ---------------------------------------------------------------------------

/// Filters batches by any predicate that binds, clearing selection bits in
/// place.
///
/// It keeps exactly the rows the row [`FilterOp`](crate::filter::FilterOp)
/// keeps: both evaluators call one truth table ([`rqp_common::Truth`]), and a
/// row survives only on `True`. A predicate that reads nothing but one `Str`
/// column is decided once per dictionary code and cached; any other runs
/// through the batch evaluator [`BoundExpr::truths`]. One compare is charged
/// per examined (currently-selected) row whatever the predicate's shape,
/// the row filter's per-row charge in bulk.
pub struct BatchFilterOp {
    inner: BoxBatchOp,
    pred: BoundExpr,
    /// The one `Str` column the predicate reads, when it reads no other.
    str_col: Option<usize>,
    schema: Schema,
    ctx: ExecContext,
    /// Per-dictionary-code verdict cache for `str_col`.
    code_cache: Vec<Option<bool>>,
    span: SpanHandle,
}

impl BatchFilterOp {
    /// Filter `inner` by `pred`, bound against the inner schema.
    pub fn new(inner: BoxBatchOp, pred: &Expr, ctx: ExecContext) -> Result<Self> {
        let schema = inner.schema().clone();
        let bound = pred.bind(&schema)?;
        let str_col = match Vec::from_iter(pred.columns()).as_slice() {
            [c] => Some(schema.index_of(c)?).filter(|&i| schema.field(i).dtype == DataType::Str),
            _ => None,
        };
        let span = ctx.tracer.open("batch_filter", &ctx.clock);
        span.set_detail(&pred.to_string());
        if let Some(s) = inner.span() {
            s.set_parent(span.id());
        }
        let code_cache = Vec::new();
        Ok(BatchFilterOp { inner, pred: bound, str_col, schema, ctx, code_cache, span })
    }
}

impl BatchOperator for BatchFilterOp {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn dict(&self) -> &Arc<StringDict> {
        self.inner.dict()
    }

    fn next_batch(&mut self) -> Option<ColumnBatch> {
        let Some(mut batch) = self.inner.next_batch() else {
            self.span.close(&self.ctx.clock);
            return None;
        };
        self.ctx.clock.charge(&rule::filter(batch.sel.count() as f64));
        if let Some(c) = self.str_col {
            let ColVec::Str(codes) = &batch.columns[c] else { unreachable!("Str column") };
            let (pred, width, dict) = (&self.pred, self.schema.len(), &batch.dict);
            self.code_cache.resize(dict.len(), None);
            let cache = &mut self.code_cache;
            batch.sel.retain(|i| {
                *cache[codes[i] as usize].get_or_insert_with(|| {
                    let mut row = vec![Value::Null; width];
                    row[c] = Value::Str(dict.resolve(codes[i]));
                    pred.eval_bool(&row)
                })
            });
        } else {
            let truths = self.pred.truths(&batch);
            batch.sel.retain(|i| truths[i] == Truth::True);
        }
        self.span.produced_n(&self.ctx.clock, batch.sel.count() as u64);
        Some(batch)
    }

    fn span(&self) -> Option<&SpanHandle> {
        Some(&self.span)
    }
}

// ---------------------------------------------------------------------------
// Project
// ---------------------------------------------------------------------------

/// Projects a batch to a subset (or reordering) of its columns by name.
///
/// The batch twin of [`ProjectOp::columns`](crate::filter::ProjectOp::columns);
/// computed expressions are not batch-compiled — plans that need them fall
/// back to the scalar projector. Charges one CPU tuple per selected row, as
/// the scalar projector does for every row flowing through it.
pub struct BatchProjectOp {
    inner: BoxBatchOp,
    cols: Vec<usize>,
    schema: Schema,
    ctx: ExecContext,
    span: SpanHandle,
}

impl BatchProjectOp {
    /// Project `inner` to the named columns, keeping the given names.
    pub fn columns(inner: BoxBatchOp, cols: &[&str], ctx: ExecContext) -> Result<Self> {
        let in_schema = inner.schema();
        let mut idx = Vec::with_capacity(cols.len());
        let mut fields = Vec::with_capacity(cols.len());
        for c in cols {
            let i = in_schema.index_of(c)?;
            idx.push(i);
            fields.push(rqp_common::Field::new(*c, in_schema.field(i).dtype));
        }
        let span = ctx.tracer.open("batch_project", &ctx.clock);
        if let Some(s) = inner.span() {
            s.set_parent(span.id());
        }
        Ok(BatchProjectOp { inner, cols: idx, schema: Schema::new(fields), ctx, span })
    }
}

impl BatchOperator for BatchProjectOp {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn dict(&self) -> &Arc<StringDict> {
        self.inner.dict()
    }

    fn next_batch(&mut self) -> Option<ColumnBatch> {
        let Some(batch) = self.inner.next_batch() else {
            self.span.close(&self.ctx.clock);
            return None;
        };
        let n = batch.sel.count();
        self.ctx.clock.charge(&rule::emit(n as f64));
        let columns: Vec<ColVec> =
            self.cols.iter().map(|&i| batch.columns[i].clone()).collect();
        self.span.produced_n(&self.ctx.clock, n as u64);
        Some(ColumnBatch { columns, sel: batch.sel, dict: batch.dict })
    }

    fn span(&self) -> Option<&SpanHandle> {
        Some(&self.span)
    }
}

// ---------------------------------------------------------------------------
// Hash join
// ---------------------------------------------------------------------------

/// Columnar row store for the hash join's build side.
struct BuildStore {
    columns: Vec<ColVec>,
    rows: usize,
}

impl BuildStore {
    fn append_selected(&mut self, batch: &ColumnBatch) {
        for i in batch.sel.iter_set() {
            for (dst, src) in self.columns.iter_mut().zip(&batch.columns) {
                push_from(dst, src, i);
            }
            self.rows += 1;
        }
    }
}

/// Row `i` of a key column as the key maps take it: a number as its
/// `Value`, a string as its dictionary code, which is exact within one
/// pipeline's dictionary.
#[inline]
fn key_value(col: &ColVec, i: usize) -> Value {
    match col {
        ColVec::Int(xs) => Value::Int(xs[i]),
        ColVec::Float(xs) => Value::Float(xs[i]),
        ColVec::Str(xs) => Value::Int(i64::from(xs[i])),
    }
}

/// The type a key column of `dtype` enters the key maps as: a string as
/// its dictionary code, an `Int`.
fn key_type(dtype: DataType) -> DataType {
    if dtype == DataType::Str {
        DataType::Int
    } else {
        dtype
    }
}

/// Batch hash join on a single equality key per side: builds on the
/// **right** input, probes with the left. The build side's keys go through
/// the shared typed key map ([`Keys`]), so a probe matches exactly what
/// `Value`'s `Eq` matches — an `Int` key a `Float` of the same number,
/// a string key the same string (its dictionary code) and never a number.
///
/// Charges and emits as [`HashJoinOp`](crate::join::HashJoinOp) does:
/// workspace grant/spill accounting on the build side, per-probe-batch lease
/// renegotiation, reversed per-probe match emission, and the probe-side
/// spill charged once at the end.
pub struct BatchHashJoinOp {
    left: BoxBatchOp,
    right: Option<BoxBatchOp>,
    left_key: usize,
    right_key: usize,
    /// False when exactly one key column is a string: no probe can match.
    comparable: bool,
    schema: Schema,
    ctx: ExecContext,
    dict: Arc<StringDict>,
    store: BuildStore,
    /// Build key → the last stored row under it.
    keys: Keys<u32>,
    /// Per stored row, the previous row under its key (`u32::MAX` ends
    /// the chain), so a bucket walks in reverse build order.
    prev: Vec<u32>,
    built: bool,
    spill_fraction: f64,
    probe_rows: f64,
    lease: WorkspaceLease,
    span: SpanHandle,
}

impl BatchHashJoinOp {
    /// Join `left` and `right` on equality of one key column per side.
    ///
    /// Both inputs must share one dictionary (`Arc::ptr_eq`); build a
    /// pipeline's sources with [`BatchScanOp::with_dict`].
    pub fn new(
        left: BoxBatchOp,
        right: BoxBatchOp,
        left_key: &str,
        right_key: &str,
        ctx: ExecContext,
    ) -> Result<Self> {
        if !Arc::ptr_eq(left.dict(), right.dict()) {
            return Err(RqpError::Invalid(
                "batch join inputs must share one string dictionary".into(),
            ));
        }
        let lk = left.schema().index_of(left_key)?;
        let rk = right.schema().index_of(right_key)?;
        let lt = left.schema().field(lk).dtype;
        let rt = right.schema().field(rk).dtype;
        let schema = left.schema().join(right.schema());
        let span = ctx.tracer.open("batch_hash_join", &ctx.clock);
        for side in [&left, &right] {
            if let Some(s) = side.span() {
                s.set_parent(span.id());
            }
        }
        let dict = Arc::clone(left.dict());
        let store = BuildStore {
            columns: right
                .schema()
                .fields()
                .iter()
                .map(|f| empty_for(f.dtype, 0))
                .collect(),
            rows: 0,
        };
        Ok(BatchHashJoinOp {
            left,
            right: Some(right),
            left_key: lk,
            right_key: rk,
            comparable: (lt == DataType::Str) == (rt == DataType::Str),
            schema,
            ctx,
            dict,
            store,
            keys: Keys::new(&[key_type(rt)]),
            prev: Vec::new(),
            built: false,
            spill_fraction: 0.0,
            probe_rows: 0.0,
            lease: WorkspaceLease::new(),
            span,
        })
    }

    fn build(&mut self) {
        let mut right = self.right.take().expect("build called once");
        while let Some(batch) = right.next_batch() {
            let from = self.store.rows;
            self.store.append_selected(&batch);
            // Key every appended row from the compacted store, so chains
            // hold store indices.
            for r in from..self.store.rows {
                let key = IndexKey::One(key_value(&self.store.columns[self.right_key], r));
                let last = r as u32;
                match self.keys.get_mut(&key) {
                    Some(head) => self.prev.push(std::mem::replace(head, last)),
                    None => {
                        self.keys.insert(key, last);
                        self.prev.push(u32::MAX);
                    }
                }
            }
        }
        let n = self.store.rows as f64;
        let grant = self.lease.grant(&self.ctx, &self.span, n);
        self.spill_fraction = rule::overflow(n, grant);
        if self.spill_fraction > 0.0 {
            let spilled = n * self.spill_fraction;
            let detail =
                format!("hash build spilled {spilled:.0} of {n:.0} rows (grant {grant:.0})");
            self.ctx.spill(&self.span, spilled, "governor.spill", &detail);
        }
        self.ctx.clock.charge(&rule::hash_build(n));
        self.built = true;
    }

    /// Release the build-side grant and close the span. Idempotent; called
    /// on drain-to-`None` *and* on `Drop`.
    fn finish(&mut self) {
        if !self.span.is_closed() {
            self.lease.release(&self.ctx);
            self.span.close(&self.ctx.clock);
        }
    }
}

impl Drop for BatchHashJoinOp {
    fn drop(&mut self) {
        self.finish();
    }
}

impl BatchOperator for BatchHashJoinOp {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn dict(&self) -> &Arc<StringDict> {
        &self.dict
    }

    fn next_batch(&mut self) -> Option<ColumnBatch> {
        if !self.built {
            self.build();
        }
        // Same cadence as the scalar join's per-call prologue: cooperative
        // abort, then shed build-side workspace if the budget shrank.
        self.ctx.checkpoint();
        self.lease.renegotiate(&self.ctx, &self.span);
        let Some(batch) = self.left.next_batch() else {
            if self.spill_fraction > 0.0 && self.probe_rows > 0.0 {
                let spilled = self.probe_rows * self.spill_fraction;
                let detail = format!("hash probe spilled {spilled:.0} rows");
                self.ctx.spill(&self.span, spilled, "governor.spill", &detail);
                self.probe_rows = 0.0;
            }
            self.finish();
            return None;
        };
        let probes = batch.sel.count();
        self.probe_rows += probes as f64;
        self.ctx.clock.charge(&rule::hash_probe(probes as f64));
        let left_w = batch.columns.len();
        let mut out: Vec<ColVec> = batch
            .columns
            .iter()
            .map(empty_like)
            .chain(self.store.columns.iter().map(empty_like))
            .collect();
        let mut produced = 0u64;
        let key_col = &batch.columns[self.left_key];
        for i in batch.sel.iter_set().filter(|_| self.comparable) {
            // The scalar twin pops a cloned match list, emitting in
            // *reverse* build order: the chain's order.
            let key = IndexKey::One(key_value(key_col, i));
            let mut m = self.keys.get(&key).unwrap_or(u32::MAX);
            while m != u32::MAX {
                for (c, dst) in out.iter_mut().enumerate().take(left_w) {
                    push_from(dst, &batch.columns[c], i);
                }
                for (c, dst) in out.iter_mut().enumerate().skip(left_w) {
                    push_from(dst, &self.store.columns[c - left_w], m as usize);
                }
                produced += 1;
                m = self.prev[m as usize];
            }
        }
        self.ctx.clock.charge(&rule::emit(produced as f64));
        self.span.produced_n(&self.ctx.clock, produced);
        Some(ColumnBatch::new(out, Arc::clone(&self.dict)))
    }

    fn span(&self) -> Option<&SpanHandle> {
        Some(&self.span)
    }
}

// ---------------------------------------------------------------------------
// Hash aggregation
// ---------------------------------------------------------------------------

/// Batch hash GROUP BY aggregation, producing scalar rows (aggregation is a
/// pipeline breaker with tiny output, so its output side stays
/// row-oriented and it implements [`Operator`] directly).
///
/// Every selected row folds into a [`GroupTable`] at weight +1, as in
/// [`HashAggOp`](crate::agg::HashAggOp): the same groups, accumulators and
/// charges (one `hash_build` unit per input row after the drain, one CPU
/// tuple per output row), one global row for group-less aggregation over
/// empty input. A string group column is keyed by its dictionary code, so
/// the output resolves codes and sorts into `Value` order.
pub struct BatchHashAggOp {
    inner: Option<BoxBatchOp>,
    binding: AggBinding,
    ctx: ExecContext,
    out: Option<std::vec::IntoIter<Row>>,
    span: SpanHandle,
}

impl BatchHashAggOp {
    /// Aggregate `inner`, grouping by `group_by` columns.
    pub fn new(
        inner: BoxBatchOp,
        group_by: &[&str],
        aggs: &[AggSpec],
        ctx: ExecContext,
    ) -> Result<Self> {
        let binding = AggBinding::new(inner.schema(), group_by, aggs)?;
        let span = ctx.tracer.open("batch_hash_agg", &ctx.clock);
        if let Some(s) = inner.span() {
            s.set_parent(span.id());
        }
        Ok(BatchHashAggOp { inner: Some(inner), binding, ctx, out: None, span })
    }

    fn run(&mut self) {
        let mut inner = self.inner.take().expect("run once");
        let dict = Arc::clone(inner.dict());
        let AggBinding { group_cols, aggs, .. } = &self.binding;
        let key_types = self.binding.key_types();
        let keyed_as: Vec<DataType> = key_types.iter().map(|&t| key_type(t)).collect();
        let mut table = GroupTable::new(&keyed_as, self.binding.funcs());
        let mut groups: Vec<(usize, u32)> = Vec::new();
        let mut n = 0.0;
        while let Some(batch) = inner.next_batch() {
            let cols = &batch.columns;
            // Each row's group, in row order — so groups are created in the
            // order single rows would create them — then every aggregate
            // over all rows, a column at a time.
            groups.clear();
            for i in batch.sel.iter_set() {
                let g = table.group(IndexKey::with(group_cols, |c| key_value(&cols[c], i)));
                table.add_rows(g, 1);
                groups.push((i, g));
            }
            n += groups.len() as f64;
            for (a, &(func, col)) in aggs.iter().enumerate() {
                let (each, algebraic) = (groups.iter().copied(), func.is_algebraic());
                match col.map(|c| &cols[c]) {
                    Some(ColVec::Int(xs)) if algebraic => {
                        each.for_each(|(i, g)| table.add(a, g, xs[i] as f64, 1))
                    }
                    Some(ColVec::Float(xs)) if algebraic => {
                        each.for_each(|(i, g)| table.add(a, g, xs[i], 1))
                    }
                    // COUNT(*), and a string, which adds no number: the row counts.
                    None | Some(ColVec::Str(_)) if algebraic => {
                        each.for_each(|(_, g)| table.fold(a, g, None, 1))
                    }
                    col => each.for_each(|(i, g)| {
                        table.fold(a, g, col.map(|c| materialize(c, i, &dict)).as_ref(), 1)
                    }),
                }
            }
        }
        let mut rows = table.finish();
        for row in &mut rows {
            for (v, t) in row.iter_mut().zip(&key_types) {
                if let (DataType::Str, Value::Int(code)) = (t, &*v) {
                    *v = Value::Str(dict.resolve(*code as u32));
                }
            }
        }
        let width = key_types.len();
        rows.sort_by(|a, b| a[..width].cmp(&b[..width]));
        self.ctx.clock.charge(&rule::hash_agg(n, rows.len() as f64));
        self.out = Some(rows.into_iter());
    }
}

/// The `Value` of row `i` of `col`, a string resolved through `dict`.
fn materialize(col: &ColVec, i: usize, dict: &StringDict) -> Value {
    match col {
        ColVec::Int(xs) => Value::Int(xs[i]),
        ColVec::Float(xs) => Value::Float(xs[i]),
        ColVec::Str(xs) => Value::Str(dict.resolve(xs[i])),
    }
}

impl Operator for BatchHashAggOp {
    fn schema(&self) -> &Schema {
        &self.binding.schema
    }

    fn next(&mut self) -> Option<Row> {
        if self.out.is_none() {
            self.run();
        }
        let row = self.out.as_mut().expect("filled").next();
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

// ---------------------------------------------------------------------------
// Batch → row adapter
// ---------------------------------------------------------------------------

/// Materializes a batch stream's surviving rows as scalar [`Row`]s — the
/// boundary between a batch pipeline and its scalar consumer (exchange
/// gather, result collection, scalar operators above).
///
/// Charges nothing: every upstream batch operator already charged what its
/// scalar twin would have.
pub struct BatchRowsOp {
    inner: BoxBatchOp,
    schema: Schema,
    current: Option<(ColumnBatch, Vec<usize>, usize)>,
    /// Lock-free resolve cache: `str_cache[code]` is the dictionary string
    /// for `code`, synced from the (dense, grow-only) dictionary in chunks
    /// so materialization never takes the dictionary lock per cell.
    str_cache: Vec<String>,
    ctx: ExecContext,
    span: SpanHandle,
}

/// Materialize row `i` of `batch`, resolving dictionary codes through the
/// caller's local cache (one dictionary lock per cache refill, not per cell).
fn materialize_cached(batch: &ColumnBatch, i: usize, str_cache: &mut Vec<String>) -> Row {
    batch
        .columns
        .iter()
        .map(|c| match c {
            ColVec::Int(v) => Value::Int(v[i]),
            ColVec::Float(v) => Value::Float(v[i]),
            ColVec::Str(v) => {
                let code = v[i] as usize;
                if code >= str_cache.len() {
                    batch.dict.resolve_from(str_cache.len(), str_cache);
                }
                Value::Str(str_cache[code].clone())
            }
        })
        .collect()
}

impl BatchRowsOp {
    /// Adapt `inner` to the scalar [`Operator`] interface.
    pub fn new(inner: BoxBatchOp, ctx: ExecContext) -> Self {
        let schema = inner.schema().clone();
        let span = ctx.tracer.open("batch_rows", &ctx.clock);
        if let Some(s) = inner.span() {
            s.set_parent(span.id());
        }
        BatchRowsOp { inner, schema, current: None, str_cache: Vec::new(), ctx, span }
    }

    /// Convenience: box as a scalar operator.
    pub fn boxed(inner: BoxBatchOp, ctx: ExecContext) -> crate::BoxOp {
        Box::new(Self::new(inner, ctx))
    }
}

impl Operator for BatchRowsOp {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next(&mut self) -> Option<Row> {
        loop {
            if let Some((batch, idxs, pos)) = &mut self.current {
                if let Some(&i) = idxs.get(*pos) {
                    *pos += 1;
                    let row = materialize_cached(batch, i, &mut self.str_cache);
                    self.span.produced(&self.ctx.clock);
                    return Some(row);
                }
                self.current = None;
            }
            match self.inner.next_batch() {
                Some(batch) => {
                    let idxs: Vec<usize> = batch.sel.iter_set().collect();
                    self.current = Some((batch, idxs, 0));
                }
                None => {
                    self.span.close(&self.ctx.clock);
                    return None;
                }
            }
        }
    }

    fn span(&self) -> Option<&SpanHandle> {
        Some(&self.span)
    }
}
