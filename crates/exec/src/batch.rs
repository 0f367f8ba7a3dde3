//! Batch-at-a-time twins of the scalar hot-path operators.
//!
//! Each operator here consumes/produces [`ColumnBatch`]es instead of rows:
//! the scan packs a table range into typed column vectors (dictionary-encoding
//! strings), the filter clears selection bits by the batch evaluator's
//! verdicts, and the hash join/aggregation key on packed `(tag, u64)` codes
//! derived from [`rqp_common::KeyAtom`] instead of `Vec<Value>` keys.
//!
//! The planner lowers every table scan to [`BatchScanOp`], then
//! [`BatchFilterOp`] for any predicate, behind the [`BatchRowsOp`] row
//! adapter, and every parallel-scan exchange worker scans its range the same
//! way. The scalar scan and the other scalar twins remain as the reference
//! these operators are tested against.
//!
//! **Cost contract.** Every batch operator charges the [cost
//! clock](rqp_common::clock) the *same amounts* as its scalar twin, just in
//! bulk (one `charge_cpu_tuples(n)` instead of `n` charges of `1.0`). Page
//! charges, pins and chaos injection still happen per absolute page index,
//! so fault schedules are identical in both modes. The clock counts amounts
//! exactly, so the two breakdowns are bit-identical under any cost
//! parameters (the property tests in `tests/batch.rs` pin it).
//!
//! **Row contract.** A batch plan yields exactly the rows of its scalar twin,
//! in the same order — including the hash join's reversed per-probe match
//! emission and the aggregation's group-key output sort.
//!
//! Batch join/group-by keys are single-column (the common case in this
//! testbed); constructors return `Err` for multi-column keys and callers fall
//! back to the scalar operators.

use crate::context::{ExecContext, WorkspaceLease};
use crate::scan::{page_chaos, pin_page};
use crate::Operator;
use crate::agg::{AggFunc, AggSpec};
use rqp_common::expr::BoundExpr;
use rqp_common::{
    ColVec, ColumnBatch, DataType, Expr, Result, Row, RqpError, Schema, StringDict, Truth, Value,
};
use rqp_storage::Table;
use rqp_telemetry::SpanHandle;
use std::collections::HashMap;
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
/// through this operator, and each
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
                self.ctx.clock.charge_seq_pages(1.0);
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
            self.ctx.clock.charge_cpu_tuples((to - from) as f64);
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
        self.ctx.clock.charge_compares(batch.sel.count() as f64);
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
        self.ctx.clock.charge_cpu_tuples(n as f64);
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
// Packed keys
// ---------------------------------------------------------------------------

/// A packed single-column join/group key: a type tag plus 64 key bits.
///
/// Tags keep key spaces disjoint (a string never equals a number under
/// [`Value::total_cmp`]). Within a space the packing is exact:
///
/// * `INT` — the raw `i64` bits (integer columns joined/grouped against
///   integer columns compare exactly; no canonicalization loss);
/// * `F64` — `f64::to_bits()` of the numeric value, used for float columns
///   and for the *mixed* Int⋈Float case, where scalar equality is numeric
///   (`total_cmp` casts the int side to `f64`, and `f64` total-order
///   equality is bit equality);
/// * `STR` — the dictionary code (valid because both sides share one
///   dictionary, enforced with `Arc::ptr_eq`).
type PackedKey = (u8, u64);

const TAG_INT: u8 = 1;
const TAG_F64: u8 = 2;
const TAG_STR: u8 = 3;

/// How a key column packs into a [`PackedKey`], fixed per (column type,
/// partner column type) at operator construction.
#[derive(Clone, Copy, PartialEq, Eq)]
enum KeyPack {
    /// `i64` column, partner also `i64`: exact integer key.
    IntExact,
    /// Numeric column in a mixed or float pairing: key is `f64` bits.
    Numeric,
    /// String column: key is the dictionary code.
    Code,
}

impl KeyPack {
    /// Choose the packing for a column of `dtype` joined against `other`.
    fn for_pair(dtype: DataType, other: DataType) -> KeyPack {
        match (dtype, other) {
            (DataType::Int, DataType::Int) => KeyPack::IntExact,
            (DataType::Int, _) | (DataType::Float, _) => KeyPack::Numeric,
            (DataType::Str, _) => KeyPack::Code,
        }
    }

    /// Pack row `i` of `col`.
    #[inline]
    fn pack(self, col: &ColVec, i: usize) -> PackedKey {
        match (self, col) {
            (KeyPack::IntExact, ColVec::Int(xs)) => (TAG_INT, xs[i] as u64),
            (KeyPack::Numeric, ColVec::Int(xs)) => (TAG_F64, (xs[i] as f64).to_bits()),
            (KeyPack::Numeric, ColVec::Float(xs)) => (TAG_F64, xs[i].to_bits()),
            (KeyPack::Code, ColVec::Str(xs)) => (TAG_STR, xs[i] as u64),
            _ => unreachable!("key packing chosen from the column's own type"),
        }
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

/// Batch hash join on a single equality key per side: builds on the
/// **right** input, probes with the left, comparing packed keys (dictionary
/// codes for strings, exact or numeric-canonical bits for numbers).
///
/// Mirrors [`HashJoinOp`](crate::join::HashJoinOp) exactly: workspace
/// grant/spill accounting on the build side, per-probe-batch lease
/// renegotiation, reversed per-probe match emission, and the probe-side
/// spill charged once at the end.
pub struct BatchHashJoinOp {
    left: BoxBatchOp,
    right: Option<BoxBatchOp>,
    left_key: usize,
    right_key: usize,
    left_pack: KeyPack,
    right_pack: KeyPack,
    schema: Schema,
    ctx: ExecContext,
    dict: Arc<StringDict>,
    store: BuildStore,
    table: HashMap<PackedKey, Vec<u32>>,
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
            left_pack: KeyPack::for_pair(lt, rt),
            right_pack: KeyPack::for_pair(rt, lt),
            schema,
            ctx,
            dict,
            store,
            table: HashMap::new(),
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
            // Key every appended row from the compacted store so match
            // lists hold store indices in build (input) order.
            for r in from..self.store.rows {
                let k = self
                    .right_pack
                    .pack(&self.store.columns[self.right_key], r);
                self.table.entry(k).or_default().push(r as u32);
            }
        }
        let n = self.store.rows as f64;
        let grant = self.lease.grant(&self.ctx, &self.span, n);
        if n > grant {
            self.spill_fraction = 1.0 - grant / n;
            let spilled = n * self.spill_fraction;
            self.ctx.clock.charge_spill_rows(spilled);
            self.span.record_spill(spilled);
            self.span.record_event(
                &self.ctx.clock,
                "governor.spill",
                &format!("hash build spilled {spilled:.0} of {n:.0} rows (grant {grant:.0})"),
            );
        }
        self.ctx.clock.charge_hash_build(n);
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
                self.ctx.clock.charge_spill_rows(spilled);
                self.span.record_spill(spilled);
                self.span.record_event(
                    &self.ctx.clock,
                    "governor.spill",
                    &format!("hash probe spilled {spilled:.0} rows"),
                );
                self.probe_rows = 0.0;
            }
            self.finish();
            return None;
        };
        let probes = batch.sel.count();
        self.probe_rows += probes as f64;
        self.ctx.clock.charge_hash_probe(probes as f64);
        let left_w = batch.columns.len();
        let mut out: Vec<ColVec> = batch
            .columns
            .iter()
            .map(empty_like)
            .chain(self.store.columns.iter().map(empty_like))
            .collect();
        let mut produced = 0u64;
        let key_col = &batch.columns[self.left_key];
        for i in batch.sel.iter_set() {
            let k = self.left_pack.pack(key_col, i);
            if let Some(matches) = self.table.get(&k) {
                // Scalar twin pops a cloned match list, emitting in
                // *reverse* build order — replicate for row-identity.
                for &m in matches.iter().rev() {
                    for (c, dst) in out.iter_mut().enumerate().take(left_w) {
                        push_from(dst, &batch.columns[c], i);
                    }
                    for (c, dst) in out.iter_mut().enumerate().skip(left_w) {
                        push_from(dst, &self.store.columns[c - left_w], m as usize);
                    }
                    produced += 1;
                }
            }
        }
        self.ctx.clock.charge_cpu_tuples(produced as f64);
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

/// Typed accumulator mirroring the scalar `AggState` arithmetic exactly
/// (same `f64` summation in input-row order, same min/max comparisons).
#[derive(Clone)]
struct BatchAggState {
    count: f64,
    sum: f64,
    min_i: Option<i64>,
    max_i: Option<i64>,
    min_f: Option<f64>,
    max_f: Option<f64>,
}

impl BatchAggState {
    fn new() -> Self {
        BatchAggState { count: 0.0, sum: 0.0, min_i: None, max_i: None, min_f: None, max_f: None }
    }

    #[inline]
    fn update_int(&mut self, x: i64) {
        self.count += 1.0;
        self.sum += x as f64;
        if self.min_i.map(|m| x < m).unwrap_or(true) {
            self.min_i = Some(x);
        }
        if self.max_i.map(|m| x > m).unwrap_or(true) {
            self.max_i = Some(x);
        }
    }

    #[inline]
    fn update_float(&mut self, x: f64) {
        self.count += 1.0;
        self.sum += x;
        if self
            .min_f
            .map(|m| x.total_cmp(&m) == std::cmp::Ordering::Less)
            .unwrap_or(true)
        {
            self.min_f = Some(x);
        }
        if self
            .max_f
            .map(|m| x.total_cmp(&m) == std::cmp::Ordering::Greater)
            .unwrap_or(true)
        {
            self.max_f = Some(x);
        }
    }

    #[inline]
    fn update_count_only(&mut self) {
        self.count += 1.0;
    }

    fn finish(&self, func: AggFunc) -> Value {
        match func {
            AggFunc::Count => Value::Int(self.count as i64),
            AggFunc::Sum => Value::Float(self.sum),
            AggFunc::Min => self
                .min_i
                .map(Value::Int)
                .or(self.min_f.map(Value::Float))
                .unwrap_or(Value::Null),
            AggFunc::Max => self
                .max_i
                .map(Value::Int)
                .or(self.max_f.map(Value::Float))
                .unwrap_or(Value::Null),
            AggFunc::Avg => {
                if self.count > 0.0 {
                    Value::Float(self.sum / self.count)
                } else {
                    Value::Null
                }
            }
        }
    }
}

/// Batch hash GROUP BY aggregation over at most one group column, producing
/// scalar rows (aggregation is a pipeline breaker with tiny output, so its
/// output side stays row-oriented and it implements [`Operator`] directly).
///
/// Row- and charge-identical to [`HashAggOp`](crate::agg::HashAggOp): `f64`
/// accumulation in input-row order, one `hash_build` unit per input row
/// charged after the drain, deterministically sorted output, one global row
/// for group-less aggregation over empty input.
pub struct BatchHashAggOp {
    inner: Option<BoxBatchOp>,
    group_col: Option<usize>,
    group_pack: Option<KeyPack>,
    aggs: Vec<(AggFunc, Option<usize>)>,
    schema: Schema,
    ctx: ExecContext,
    out: Option<std::vec::IntoIter<Row>>,
    span: SpanHandle,
}

impl BatchHashAggOp {
    /// Aggregate `inner`, grouping by zero or one columns. `Min`/`Max`/`Sum`
    /// over string columns are rejected (callers fall back to the scalar
    /// aggregation, which compares `Value`s).
    pub fn new(
        inner: BoxBatchOp,
        group_by: &[&str],
        aggs: &[AggSpec],
        ctx: ExecContext,
    ) -> Result<Self> {
        if aggs.is_empty() && group_by.is_empty() {
            return Err(RqpError::Invalid("aggregation needs groups or aggregates".into()));
        }
        if group_by.len() > 1 {
            return Err(RqpError::Invalid(
                "batch aggregation supports at most one group column".into(),
            ));
        }
        let in_schema = inner.schema().clone();
        let group_col = group_by
            .first()
            .map(|c| in_schema.index_of(c))
            .transpose()?;
        let mut fields: Vec<rqp_common::Field> = group_col
            .iter()
            .map(|&i| in_schema.field(i).clone())
            .collect();
        let mut bound = Vec::with_capacity(aggs.len());
        for a in aggs {
            let col = a.col.as_deref().map(|c| in_schema.index_of(c)).transpose()?;
            let dtype = match a.func {
                AggFunc::Count => DataType::Int,
                AggFunc::Sum | AggFunc::Avg => DataType::Float,
                AggFunc::Min | AggFunc::Max => col
                    .map(|i| in_schema.field(i).dtype)
                    .unwrap_or(DataType::Float),
            };
            if let Some(i) = col {
                if in_schema.field(i).dtype == DataType::Str
                    && !matches!(a.func, AggFunc::Count)
                {
                    return Err(RqpError::Invalid(
                        "batch aggregation over string columns supports only COUNT".into(),
                    ));
                }
            }
            fields.push(rqp_common::Field::new(a.alias.clone(), dtype));
            bound.push((a.func, col));
        }
        let span = ctx.tracer.open("batch_hash_agg", &ctx.clock);
        if let Some(s) = inner.span() {
            s.set_parent(span.id());
        }
        let group_pack = group_col.map(|i| {
            let dt = in_schema.field(i).dtype;
            KeyPack::for_pair(dt, dt)
        });
        Ok(BatchHashAggOp {
            inner: Some(inner),
            group_col,
            group_pack,
            aggs: bound,
            schema: Schema::new(fields),
            ctx,
            out: None,
            span,
        })
    }

    fn run(&mut self) {
        let mut inner = self.inner.take().expect("run once");
        // Group key → (representative group Value for output, accumulators).
        let mut groups: HashMap<PackedKey, (Value, Vec<BatchAggState>)> = HashMap::new();
        let global_key: PackedKey = (0, 0);
        let mut n = 0.0;
        while let Some(batch) = inner.next_batch() {
            for i in batch.sel.iter_set() {
                n += 1.0;
                let (key, rep) = match (self.group_col, self.group_pack) {
                    (Some(c), Some(p)) => {
                        let col = &batch.columns[c];
                        (p.pack(col, i), Some(col))
                    }
                    _ => (global_key, None),
                };
                let states = groups.entry(key).or_insert_with(|| {
                    let rep_val = rep
                        .map(|col| match col {
                            ColVec::Int(xs) => Value::Int(xs[i]),
                            ColVec::Float(xs) => Value::Float(xs[i]),
                            ColVec::Str(xs) => Value::Str(batch.dict.resolve(xs[i])),
                        })
                        .unwrap_or(Value::Null);
                    (rep_val, vec![BatchAggState::new(); self.aggs.len()])
                });
                for (s, (_, col)) in states.1.iter_mut().zip(&self.aggs) {
                    match col.map(|c| &batch.columns[c]) {
                        None => s.update_count_only(),
                        Some(ColVec::Int(xs)) => s.update_int(xs[i]),
                        Some(ColVec::Float(xs)) => s.update_float(xs[i]),
                        Some(ColVec::Str(_)) => s.update_count_only(),
                    }
                }
            }
        }
        self.ctx.clock.charge_hash_build(n);
        if groups.is_empty() && self.group_col.is_none() {
            groups.insert(global_key, (Value::Null, vec![BatchAggState::new(); self.aggs.len()]));
        }
        let grouped = self.group_col.is_some();
        let mut rows: Vec<Row> = groups
            .into_values()
            .map(|(rep, states)| {
                let mut row = Vec::with_capacity(self.schema.len());
                if grouped {
                    row.push(rep);
                }
                row.extend(states.iter().zip(&self.aggs).map(|(s, (f, _))| s.finish(*f)));
                row
            })
            .collect();
        if grouped {
            rows.sort_by(|a, b| a[0].total_cmp(&b[0]));
        }
        self.ctx.clock.charge_cpu_tuples(rows.len() as f64);
        self.out = Some(rows.into_iter());
    }
}

impl Operator for BatchHashAggOp {
    fn schema(&self) -> &Schema {
        &self.schema
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
