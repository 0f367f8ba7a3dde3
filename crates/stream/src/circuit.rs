//! The delta circuit: a compiled `QuerySpec` maintained incrementally.
//!
//! ## What the circuit holds
//!
//! Only what a delta rule will read again. At compile time a
//! required-column analysis walks the plan backwards — the terminal stage
//! needs the group-by columns and aggregate inputs (or the projected
//! columns of a non-aggregate view), each join stage additionally needs the
//! key columns of the stages *after* it — and every row is narrowed to
//! those columns before it is stored in a join index or handed to the next
//! stage. Filter inputs and a stage's own key columns are read once, on the
//! way in, and not kept (the key lives in the index's map key).
//!
//! A join stage whose right input is a base table with a one-column
//! catalog index on its join key (of the left key's declared type) keeps
//! no index for that side at all: it *shares* the catalog's, as shared
//! arrangements do. An indexed table only grows — `Catalog::table_mut`
//! refuses it, and `append_rows` keeps table and index in step — so its row
//! ids are stable, and the right input as the circuit has seen it is the
//! table's rows below `seen`: all of them once the load has read the table,
//! one more per Insert record folded. A left row probes `lookup_eq`, keeps
//! the row ids below `seen` that pass the input's local filter, and reads
//! their kept columns from the table. The index compares a probe as
//! `Value`'s `Eq` does (a `Float(2.0)` finds `Int(2)`; NULL, NaN and 2.5
//! find nothing), so a shared side matches what an owned one would, and its
//! row ids for one key come out ascending, the order an owned bucket lists
//! append-only rows in. An owned bucket holds rows that agree on every
//! stored column as one entry of a larger weight; a shared side yields
//! them one by one, so weights, state, packets and charges agree, and a
//! float SUM adds such rows apart rather than as one product. The circuit
//! holds no handle on the table or index between calls: `load_initial`
//! and `apply` borrow the catalog they are given, and `apply` refuses —
//! changing nothing — a Delete on a shared input or an Insert that is not
//! the table's row `seen`. Every other right side, and every left side, is
//! *owned*: a join index of its own.
//!
//! ## How a join index stores it
//!
//! Each owned side of a join stage is one `JoinIndex`: a map from key to the
//! `(first, last)` slots of its bucket, and one slot arena holding every
//! bucket's `(narrowed row, weight)` entries — one vector per stored
//! column, a weight and a next-slot link per slot beside them. So a stored
//! row costs no heap allocation of its own. Rows that differ only in
//! columns nobody reads share an entry; an entry whose weight returns to
//! zero is removed the way `Vec::swap_remove` removes it (the bucket's last
//! entry takes its place), its slot goes on a free list the arena reuses
//! before it grows, and a bucket's key disappears with its last entry. So
//! a bucket iterates in the order a `Vec` bucket did, and everything
//! computed from it — packets, snapshots, cost-clock charges — is too.
//!
//! Storage is typed where the schema allows it, and exact always. An `Int`
//! or `Float` column is an `i64`/`f64` vector; every other column is a
//! `Vec<Value>`. The first time a typed column must store a value of
//! another variant — NULL, a `Str`, a `Float` in an `Int` column, an `Int`
//! in a `Float` one — it switches to the `Value` layout, for good, so every
//! stored value keeps its variant and bits. Keys go through the shared
//! typed key map of [`rqp_storage::keyed`] (`Keys`), whose ±2^53 `Int`
//! rule makes a probe match exactly what `Value`'s `Eq` matches (a
//! `Float(2.0)` probe finds the key `Int(2)`). The aggregate's groups live
//! in the same module's `GroupTable` — the one every aggregation folds
//! into — driven here at each change's weight.
//!
//! Cost-clock charges count *logical* rows (an entry of weight 3 charges
//! three units), so what the clock reads does not depend on how many rows
//! happened to collapse into one entry.
//!
//! ## How the initial load runs
//!
//! A load reads each base table, in join order, straight from its columns.
//! The selection kernel (`Table::select`) runs the table's local filter
//! over column batches through the batch evaluator and keeps the TRUE rows;
//! `reserve` sizes every arena and key map the survivors will fill; then the
//! survivors, in ascending row order and `LOAD_BATCH` at a time, go through
//! `ingest` — the one fold a changelog row takes too, as a batch of one.
//! A batch is read where it lies: table columns at their stored width, a
//! joined row as the left slot it matched plus its survivor. So no `Row` is
//! built: probes visit matching slots in place, keys and stored values are
//! read and compared as stored, and COUNT/SUM/AVG add the numbers as read.
//! Within a batch every index is either probed or merged into, never both,
//! and each sees its rows in row order; so a batch leaves exactly the state,
//! float sums and clock charges its rows one at a time would. Charges are
//! summed per batch (the clock is exact), and the typed join-key maps hash
//! an `i64` with one multiply.

use rqp_common::expr::BoundExpr;
use rqp_common::{
    rule, AggFunc, DataType, Field, Result, Row, RqpError, Schema, SelMask, SharedClock, Value,
};
use rqp_exec::AggBinding;
use rqp_opt::QuerySpec;
use rqp_storage::changelog::{ChangeOp, ChangeRecord};
use rqp_storage::keyed::{string_bytes, Keys, TYPED_KEYS};
use rqp_storage::{Catalog, ColumnData, Footprint, GroupTable, Index, IndexKey, IntSlice, Table};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::mem::size_of;
use std::sync::Arc;

/// What one batch of changelog records did to the view: the rows a
/// subscriber inserts into and retracts from its copy. Both lists are
/// canonically ordered (full-row comparison), so packets are deterministic
/// regardless of internal hash-index iteration order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeltaPacket {
    /// Epoch of the last changelog record folded into this packet.
    pub epoch: u64,
    /// Rows to add to the view (duplicates mean multiplicity).
    pub inserted: Vec<Row>,
    /// Rows to remove from the view.
    pub retracted: Vec<Row>,
}

impl DeltaPacket {
    /// True if the batch changed nothing visible.
    pub fn is_empty(&self) -> bool {
        self.inserted.is_empty() && self.retracted.is_empty()
    }

    /// Total rows moved (inserted + retracted).
    pub fn delta_rows(&self) -> usize {
        self.inserted.len() + self.retracted.len()
    }
}

/// Sort rows into the canonical (full-row `total_cmp`) order used for
/// view-consistency comparison — a maintained view is an unordered
/// multiset, so both it and a from-scratch run are compared canonically.
pub fn canonicalize(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort();
    rows
}

/// One base-table input. Rows enter the circuit in the table's *read
/// layout*: the columns at `cols`, in that order.
#[derive(Debug)]
struct TableInput {
    name: String,
    /// Column count of the base table (changelog rows arrive full-width).
    arity: usize,
    /// Base-table columns the circuit reads at all — filter inputs, this
    /// table's own join key, and whatever is kept downstream — ascending.
    cols: Vec<usize>,
    /// Local filter bound over the read layout; `None` when the predicate
    /// is trivially TRUE.
    filter: Option<BoundExpr>,
    /// Read-layout positions that survive the filter: the columns a later
    /// stage reads (plus, for the first table, stage 0's key).
    keep: Vec<usize>,
}

/// Where one arriving row is read: row `r` of its batch's row columns,
/// slot `s` of its slot columns (`NIL` when it has none).
#[derive(Clone, Copy)]
struct At {
    r: usize,
    s: u32,
}

/// One column of a batch of arriving rows: a stored column of a join
/// index's slot arena, read at the row's slot, or a column read at the
/// row's number — a table column at its stored width during the initial
/// load, one value per row otherwise (a changelog row is a batch of one).
#[derive(Clone, Copy)]
enum Src<'a> {
    Slot(&'a Column),
    Int(IntSlice<'a>),
    Float(&'a [f64]),
    Str(&'a [String]),
    Values(&'a [Value]),
}

impl<'a> Src<'a> {
    /// The columns of a materialized row, as a batch of one.
    fn of_row(row: &'a [Value]) -> Vec<Src<'a>> {
        row.iter().map(|v| Src::Values(std::slice::from_ref(v))).collect()
    }

    /// A table column, read at its stored width.
    fn table(column: &'a ColumnData) -> Src<'a> {
        match column {
            ColumnData::Int(xs) => Src::Int(xs.as_slice()),
            ColumnData::Float(xs) => Src::Float(xs),
            ColumnData::Str(xs) => Src::Str(xs),
        }
    }

    /// The value of the row at `at`.
    fn get(self, at: At) -> Value {
        match self {
            Src::Slot(c) => c.get(at.s as usize),
            Src::Int(xs) => Value::Int(xs.get(at.r)),
            Src::Float(xs) => Value::Float(xs[at.r]),
            Src::Str(xs) => Value::Str(xs[at.r].clone()),
            Src::Values(xs) => xs[at.r].clone(),
        }
    }

    /// The `Int` of the row at `at`, read as stored, when the column is a
    /// typed `Int` one; `None` for any other column, whatever its value.
    fn int(self, at: At) -> Option<i64> {
        match self {
            Src::Slot(Column::Int(v)) => Some(v[at.s as usize]),
            Src::Int(xs) => Some(xs.get(at.r)),
            _ => None,
        }
    }
}

/// A batch of rows arriving on the left of a join stage, or at the terminal
/// stage, read where they lie: the layout's columns, and per row where it
/// is read and its weight. A base row's first hop is its kept columns —
/// behind the stored row of the left slot it joined, for every table but
/// the first — and builds nothing; only rows that a later stage joins
/// (which the initial load never reaches: every index past the loading
/// table's is still empty) are gathered into value columns.
struct Arrivals<'a> {
    cols: Vec<Src<'a>>,
    rows: Vec<(At, i64)>,
}

/// A row to store in a join index, read where it lies: its `k`-th value
/// is `cols[positions[k]]` of the row at `at`.
#[derive(Clone, Copy)]
struct Gather<'a> {
    cols: &'a [Src<'a>],
    positions: &'a [usize],
    at: At,
}

impl<'a> Gather<'a> {
    /// Where the row's `k`-th value is read.
    fn src(&self, k: usize) -> Src<'a> {
        self.cols[self.positions[k]]
    }
}

/// How many rows `rows()` yields, and how many distinct keys — the values
/// at `key` of `cols` — they carry. A one-column key of a typed `Int`
/// column is counted in a bitmap over the keys' range — or, when that range
/// is sparser than one key per 64 values, in an exactly sized sorted
/// vector — so counting never holds more than 8 bytes per key; any other
/// key in a set that allocates once per key it has not seen, never per
/// row.
fn count_keys<I: Iterator<Item = At>>(
    cols: &[Src],
    key: &[usize],
    rows: impl Fn() -> I,
) -> (usize, usize) {
    if let [p] = *key {
        if let src @ (Src::Int(_) | Src::Slot(Column::Int(_))) = cols[p] {
            let keys = || rows().map(|at| src.int(at).expect("a typed Int column"));
            let (mut n, mut lo, mut hi) = (0, i64::MAX, i64::MIN);
            keys().for_each(|k| (n, lo, hi) = (n + 1, lo.min(k), hi.max(k)));
            if n == 0 {
                return (0, 0);
            }
            let span = hi.abs_diff(lo);
            if span / 64 < n as u64 {
                let mut bits = vec![0u64; span as usize / 64 + 1];
                for k in keys() {
                    let offset = k.abs_diff(lo) as usize;
                    bits[offset / 64] |= 1 << (offset % 64);
                }
                return (n, bits.iter().map(|w| w.count_ones() as usize).sum());
            }
            let mut sorted = Vec::with_capacity(n);
            sorted.extend(keys());
            sorted.sort_unstable();
            sorted.dedup();
            return (n, sorted.len());
        }
    }
    let mut distinct: HashSet<Box<[Value]>> = HashSet::new();
    let (mut n, mut k) = (0, Vec::new());
    for at in rows() {
        n += 1;
        k.clear();
        k.extend(key.iter().map(|&p| cols[p].get(at)));
        if !distinct.contains(&k[..]) {
            distinct.insert(k[..].into());
        }
    }
    (n, distinct.len())
}

/// Join key → the first and last slot of its bucket.
type KeyMap = Keys<(u32, u32)>;

/// End of a slot chain.
const NIL: u32 = u32::MAX;

/// One stored column of a [`Slots`] arena, typed while every value it had
/// to store was of its declared variant (see the module docs).
#[derive(Debug)]
enum Column {
    Int(Vec<i64>),
    Float(Vec<f64>),
    Values(Vec<Value>),
}

/// Store `x` at `c[s]`, or push it when `s` is the vector's length.
fn put<T>(c: &mut Vec<T>, s: usize, x: T) {
    if s == c.len() {
        c.push(x);
    } else {
        c[s] = x;
    }
}

/// Evaluate `$body` with `$c` bound to whichever vector `$column` holds.
macro_rules! each_column {
    ($column:expr, $c:ident => $body:expr) => {
        match $column {
            Column::Int($c) => $body,
            Column::Float($c) => $body,
            Column::Values($c) => $body,
        }
    };
}

/// Counted bytes of one stored value: an `Int`'s or `Float`'s typed size
/// whichever column holds it, so that the count depends on the values
/// alone; a `Value`'s, string contents included, for NULL or a `Str`.
fn value_bytes(v: &Value) -> usize {
    match v {
        Value::Int(_) | Value::Float(_) => 8,
        Value::Null | Value::Str(_) => size_of::<Value>() + string_bytes(std::slice::from_ref(v)),
    }
}

impl Column {
    fn new(dtype: DataType) -> Column {
        match dtype {
            DataType::Int => Column::Int(Vec::new()),
            DataType::Float => Column::Float(Vec::new()),
            DataType::Str => Column::Values(Vec::new()),
        }
    }

    fn get(&self, s: usize) -> Value {
        match self {
            Column::Int(c) => Value::Int(c[s]),
            Column::Float(c) => Value::Float(c[s]),
            Column::Values(c) => c[s].clone(),
        }
    }

    /// `Value`'s `Eq` between slot `s`'s value and `v`.
    fn eq_at(&self, s: usize, v: &Value) -> bool {
        match self {
            Column::Int(c) => Value::Int(c[s]) == *v,
            Column::Float(c) => Value::Float(c[s]) == *v,
            Column::Values(c) => c[s] == *v,
        }
    }

    /// [`eq_at`](Self::eq_at) against `src`'s value at `at`, compared as
    /// stored when both sides are typed (two floats are `Eq` exactly when
    /// their bits are).
    fn eq_src(&self, s: usize, src: Src, at: At) -> bool {
        match (self, src) {
            (Column::Int(c), Src::Int(xs)) => c[s] == xs.get(at.r),
            (Column::Int(c), Src::Slot(Column::Int(v))) => c[s] == v[at.s as usize],
            (Column::Float(c), Src::Float(xs)) => c[s].to_bits() == xs[at.r].to_bits(),
            (Column::Float(c), Src::Slot(Column::Float(v))) => {
                c[s].to_bits() == v[at.s as usize].to_bits()
            }
            _ => self.eq_at(s, &src.get(at)),
        }
    }

    /// Store `src`'s value at `at` at slot `s`, or at a new last slot when
    /// `s` is the column's length — as read when the column and the source
    /// are typed alike, else [admitted](Self::admit) as a `Value` first.
    fn store(&mut self, s: usize, src: Src, at: At) {
        match (&mut *self, src) {
            (Column::Int(c), Src::Int(xs)) => put(c, s, xs.get(at.r)),
            (Column::Int(c), Src::Slot(Column::Int(v))) => put(c, s, v[at.s as usize]),
            (Column::Float(c), Src::Float(xs)) => put(c, s, xs[at.r]),
            (Column::Float(c), Src::Slot(Column::Float(v))) => put(c, s, v[at.s as usize]),
            _ => {
                let v = src.get(at);
                self.admit(&v);
                self.put(s, v);
            }
        }
    }

    /// Counted bytes of slot `s`'s value.
    fn bytes_at(&self, s: usize) -> usize {
        match self {
            Column::Int(_) | Column::Float(_) => 8,
            Column::Values(c) => value_bytes(&c[s]),
        }
    }

    /// Make the column able to store `v`: a typed column switches to
    /// `Value`s when `v` is of another variant, keeping its capacity.
    fn admit(&mut self, v: &Value) {
        let mut values = match (&*self, v) {
            (Column::Int(_), Value::Int(_))
            | (Column::Float(_), Value::Float(_))
            | (Column::Values(_), _) => return,
            (Column::Int(c), _) => c.iter().map(|&x| Value::Int(x)).collect::<Vec<_>>(),
            (Column::Float(c), _) => c.iter().map(|&x| Value::Float(x)).collect(),
        };
        values.reserve_exact(self.capacity() - values.len());
        *self = Column::Values(values);
    }

    /// Store `v` (which the column [admits](Self::admit)) at slot `s`, or
    /// at a new last slot when `s` is the column's length.
    fn put(&mut self, s: usize, v: Value) {
        match (self, v) {
            (Column::Int(c), Value::Int(x)) => put(c, s, x),
            (Column::Float(c), Value::Float(x)) => put(c, s, x),
            (Column::Values(c), v) => put(c, s, v),
            (_, v) => unreachable!("{v:?} stored without being admitted"),
        }
    }

    fn swap(&mut self, a: usize, b: usize) {
        each_column!(self, c => c.swap(a, b))
    }

    /// Drop slot `s`'s string contents (a freed slot holds none).
    fn release(&mut self, s: usize) {
        if let Column::Values(c) = self {
            c[s] = Value::Null;
        }
    }

    fn len(&self) -> usize {
        each_column!(self, c => c.len())
    }

    fn capacity(&self) -> usize {
        each_column!(self, c => c.capacity())
    }

    fn reserve(&mut self, n: usize) {
        each_column!(self, c => c.reserve(n))
    }

    fn clear(&mut self) {
        each_column!(self, c => c.clear())
    }
}

/// The slot arena behind a [`JoinIndex`]: slot `s` holds a stored row in
/// the `s`-th value of every column, its net weight and the next slot of
/// its chain — its bucket's, or the free list's.
#[derive(Debug)]
struct Slots {
    /// One per stored value of a row (none for a side that stores only
    /// weights).
    columns: Vec<Column>,
    weights: Vec<i64>,
    next: Vec<u32>,
    /// Head of the free list, threaded through `next`.
    free: u32,
}

impl Slots {
    fn new(stored: &[DataType]) -> Slots {
        let columns = stored.iter().map(|&t| Column::new(t)).collect();
        Slots { columns, weights: Vec::new(), next: Vec::new(), free: NIL }
    }

    /// Slot `s`'s stored row.
    #[cfg(test)]
    fn row(&self, s: u32) -> Row {
        self.columns.iter().map(|c| c.get(s as usize)).collect()
    }

    /// `Value`'s `Eq` between slot `s`'s stored row and `row`.
    fn row_eq(&self, s: u32, row: Gather) -> bool {
        self.columns.iter().enumerate().all(|(k, c)| c.eq_src(s as usize, row.src(k), row.at))
    }

    /// Counted bytes of slot `s`'s entry: its values, its weight and its
    /// chain link.
    fn slot_bytes(&self, s: u32) -> usize {
        let values: usize = self.columns.iter().map(|c| c.bytes_at(s as usize)).sum();
        values + size_of::<i64>() + size_of::<u32>()
    }

    /// The slots of the chain starting at `first`, in order.
    fn chain(&self, first: u32) -> impl Iterator<Item = u32> + '_ {
        let live = |s: u32| (s != NIL).then_some(s);
        std::iter::successors(live(first), move |&s| live(self.next[s as usize]))
    }

    /// Store `(row, weight)` as the end of a chain — in a freed slot when
    /// there is one, at the end of the arena otherwise — counting it in
    /// `fp`.
    fn alloc(&mut self, row: Gather, weight: i64, fp: &mut Footprint) -> u32 {
        let s = if self.free != NIL {
            let s = self.free;
            self.free = self.next[s as usize];
            self.next[s as usize] = NIL;
            self.weights[s as usize] = weight;
            s
        } else {
            let s = u32::try_from(self.weights.len())
                .ok()
                .filter(|&s| s != NIL)
                .expect("a join index holds fewer than u32::MAX entries");
            self.weights.push(weight);
            self.next.push(NIL);
            s
        };
        for (k, c) in self.columns.iter_mut().enumerate() {
            c.store(s as usize, row.src(k), row.at);
        }
        fp.add(self.slot_bytes(s));
        s
    }

    /// Move slot `from`'s row and weight into slot `to`; `from` is left
    /// holding `to`'s old values, for [`release`](Self::release).
    fn move_into(&mut self, from: u32, to: u32) {
        for c in &mut self.columns {
            c.swap(to as usize, from as usize);
        }
        self.weights[to as usize] = self.weights[from as usize];
    }

    /// Put slot `s` on the free list, dropping its values' string contents.
    fn release(&mut self, s: u32) {
        for c in &mut self.columns {
            c.release(s as usize);
        }
        self.next[s as usize] = self.free;
        self.free = s;
    }

    fn reserve(&mut self, n: usize) {
        for c in &mut self.columns {
            c.reserve(n);
        }
        self.weights.reserve(n);
        self.next.reserve(n);
    }

    fn clear(&mut self) {
        for c in &mut self.columns {
            c.clear();
        }
        self.weights.clear();
        self.next.clear();
        self.free = NIL;
    }
}

/// One side of a join stage: key → bucket of narrowed rows with net
/// weights, every bucket's entries in one [`Slots`] arena (see the module
/// docs). Buckets are short chains, scanned linearly on update.
#[derive(Debug)]
struct JoinIndex {
    keys: KeyMap,
    slots: Slots,
}

impl JoinIndex {
    /// An empty index over keys of type `key` storing rows of type
    /// `stored`.
    fn new(key: &[DataType], stored: &[DataType]) -> JoinIndex {
        JoinIndex { keys: KeyMap::new(key), slots: Slots::new(stored) }
    }

    /// The slots under `key`, in the order a `Vec` bucket kept its
    /// entries: appended at the tail, a removed entry replaced by the last
    /// one.
    fn bucket(&self, key: &IndexKey) -> impl Iterator<Item = u32> + '_ {
        self.slots.chain(self.keys.get(key).map_or(NIL, |(first, _)| first))
    }

    /// Join a delta of weight `w` against the bucket for `key`: one output
    /// per stored row, `before ++ stored row ++ after`, at the product
    /// weight — the row load's probe, which built every joined row.
    #[cfg(test)]
    fn probe(&self, key: &IndexKey, w: i64, before: &[Value], after: &[Value]) -> Vec<(Row, i64)> {
        let width = before.len() + self.slots.columns.len() + after.len();
        self.bucket(key)
            .map(|s| {
                let mut out = Vec::with_capacity(width);
                out.extend_from_slice(before);
                out.extend(self.slots.columns.iter().map(|c| c.get(s as usize)));
                out.extend_from_slice(after);
                (out, self.slots.weights[s as usize] * w)
            })
            .collect()
    }

    /// Size the index for `entries` more entries under `keys` more keys.
    fn reserve(&mut self, entries: usize, keys: usize) {
        self.slots.reserve(entries);
        self.keys.reserve(keys);
    }

    /// Merge `(row, weight)` into the bucket for `key`, keeping `fp` in
    /// step. An entry whose weight returns to zero is removed (the bucket's
    /// last entry takes its place), a bucket's key goes with its last
    /// entry, and the arena is emptied with the last key, so fully
    /// retracted rows leave nothing behind.
    fn update(&mut self, key: IndexKey, row: Gather, weight: i64, fp: &mut Footprint) {
        let slots = &mut self.slots;
        // A key a typed map holds is looked up once, for reading or adding.
        let typed = match (&self.keys, &key) {
            (Keys::Int(_), IndexKey::One(Value::Int(k))) if TYPED_KEYS.contains(k) => Some(*k),
            _ => None,
        };
        let bucket = match (typed, &mut self.keys) {
            (Some(k), Keys::Int(m)) => match m.entry(k) {
                Entry::Occupied(e) => e.into_mut(),
                Entry::Vacant(e) => {
                    let s = slots.alloc(row, weight, fp);
                    e.insert((s, s));
                    fp.bytes += KeyMap::INT_BYTES;
                    return;
                }
            },
            (_, keys) => match keys.get_mut(&key) {
                Some(bucket) => bucket,
                None => {
                    let s = slots.alloc(row, weight, fp);
                    fp.bytes += keys.insert(key, (s, s));
                    return;
                }
            },
        };
        let (first, last) = *bucket;
        let Some(s) = slots.chain(first).find(|&s| slots.row_eq(s, row)) else {
            let s = slots.alloc(row, weight, fp);
            slots.next[last as usize] = s;
            bucket.1 = s;
            return;
        };
        slots.weights[s as usize] += weight;
        if slots.weights[s as usize] != 0 {
            return;
        }
        fp.remove(slots.slot_bytes(s));
        if first == last {
            slots.release(s);
            fp.bytes -= self.keys.remove(&key).1;
            if self.keys.is_empty() {
                slots.clear();
            }
            return;
        }
        // Swap-removal: the last entry moves into `s`, and the slot before
        // the last one becomes the bucket's end.
        let before_last = slots
            .chain(first)
            .find(|&p| slots.next[p as usize] == last)
            .expect("a bucket of two or more entries");
        if s != last {
            slots.move_into(last, s);
        }
        slots.release(last);
        slots.next[before_last as usize] = NIL;
        bucket.1 = before_last;
    }

    /// The footprint recounted by walking every bucket.
    #[cfg(any(test, debug_assertions))]
    fn recount(&self) -> Footprint {
        let mut fp = Footprint::default();
        for (_, (first, _), bytes) in self.keys.iter() {
            fp.bytes += bytes;
            for s in self.slots.chain(first) {
                fp.add(self.slots.slot_bytes(s));
            }
        }
        fp
    }

    /// Live entries, walked bucket by bucket.
    fn entries(&self) -> usize {
        self.keys.iter().map(|(_, (first, _), _)| self.slots.chain(first).count()).sum()
    }
}

/// The right side of a join stage (see the module docs).
#[derive(Debug)]
enum Right {
    /// The stage's own index of the right input's rows.
    Owned(JoinIndex),
    /// The catalog's index `index` on the right table's join key; the
    /// input as folded so far is the table's rows below `seen`.
    Shared { index: String, seen: usize },
}

impl Right {
    /// How many of its table's rows a shared side has seen.
    fn seen(&self) -> Option<usize> {
        match self {
            Right::Owned(_) => None,
            Right::Shared { seen, .. } => Some(*seen),
        }
    }

    /// The side as the `sub.register` event names it.
    fn describe(&self) -> String {
        match self {
            Right::Owned(ix) => format!("owned {}", ix.entries()),
            Right::Shared { index, .. } => format!("shared {index}"),
        }
    }
}

/// One left-deep join stage: the accumulated intermediate (left) against
/// the next base table (right), with an index per side — the right one
/// possibly the catalog's. The stage's output layout is the stored left
/// row followed by the right input's kept columns.
#[derive(Debug)]
struct JoinStage {
    /// Key positions in the arriving left row.
    left_key: Vec<usize>,
    /// Positions of the arriving left row that are stored and passed on.
    left_keep: Vec<usize>,
    /// Key positions in the right table's read layout (its stored columns
    /// are the input's `keep`).
    right_key: Vec<usize>,
    left_index: JoinIndex,
    right: Right,
}

/// The catalog's table and index behind each shared right side, by stage
/// (`None` for an owned side): held for one load or `apply`, never longer.
type Handles = Vec<Option<(Arc<Table>, Arc<Index>)>>;

/// The borrows of `handles` (see [`ViewCircuit::borrow_shared`]).
fn lend(handles: &Handles) -> Vec<Option<Lent<'_>>> {
    handles.iter().map(|h| h.as_ref().map(|(table, index)| Lent { table, index })).collect()
}

/// What one load or `apply` borrows of a shared right side: the table and
/// the catalog index on its join key.
#[derive(Clone, Copy)]
struct Lent<'a> {
    table: &'a Table,
    index: &'a Index,
}

impl Lent<'_> {
    /// Row `rid` of the table in `input`'s read layout, when it passes the
    /// input's local filter.
    fn passes(&self, input: &TableInput, rid: usize) -> bool {
        input.filter.as_ref().is_none_or(|f| {
            let row: Row = input.cols.iter().map(|&c| self.table.column(c).get(rid)).collect();
            f.eval_bool(&row)
        })
    }
}

/// The aggregation stage: the group table every aggregation folds into,
/// driven here by the rows arriving at the terminal stage at their
/// weights. Its groups iterate in key order, so snapshots come out in
/// `HashAggOp`'s group order.
#[derive(Debug)]
struct AggStage {
    /// Group column positions in the last stage's output layout.
    group_cols: Vec<usize>,
    /// `(function, input column position)` per aggregate.
    aggs: Vec<(AggFunc, Option<usize>)>,
    table: GroupTable,
}

impl AggStage {
    /// An aggregation with no groups yet — but for the global group, which
    /// a global aggregate always has. `key` is the group columns' types.
    fn new(group_cols: Vec<usize>, key: &[DataType], aggs: Vec<(AggFunc, Option<usize>)>) -> Self {
        let table = GroupTable::new(key, aggs.iter().map(|&(f, _)| f));
        AggStage { group_cols, aggs, table }
    }

    /// The group key of the row at `at` of `cols`.
    fn key_at(&self, cols: &[Src], at: At) -> IndexKey {
        IndexKey::with(&self.group_cols, |p| cols[p].get(at))
    }

    /// Apply aggregate `a`'s input of every row of `rows` (the last stage's
    /// output layout) at the row's weight to its group's accumulator —
    /// `groups[k]` is row `k`'s slot. Rows are applied in order, so each
    /// accumulator sees its values in the order single rows would bring
    /// them; a COUNT, SUM or AVG over a typed column adds the numbers as
    /// read, without building a `Value`.
    fn fold(&mut self, a: usize, rows: &Arrivals, groups: &[u32]) {
        let (func, col) = self.aggs[a];
        let table = &mut self.table;
        let each = rows.rows.iter().zip(groups).map(|(&(at, w), &g)| (at, w, g));
        let algebraic = func.is_algebraic();
        match col.map(|c| rows.cols[c]) {
            Some(Src::Int(xs)) if algebraic => {
                each.for_each(|(at, w, g)| table.add(a, g, xs.get(at.r) as f64, w))
            }
            Some(Src::Float(xs)) if algebraic => {
                each.for_each(|(at, w, g)| table.add(a, g, xs[at.r], w))
            }
            Some(Src::Slot(Column::Int(v))) if algebraic => {
                each.for_each(|(at, w, g)| table.add(a, g, v[at.s as usize] as f64, w))
            }
            Some(Src::Slot(Column::Float(v))) if algebraic => {
                each.for_each(|(at, w, g)| table.add(a, g, v[at.s as usize], w))
            }
            src => {
                each.for_each(|(at, w, g)| table.fold(a, g, src.map(|c| c.get(at)).as_ref(), w))
            }
        }
    }
}

/// Per-`apply` scratch: rows emitted so far plus, for aggregates, each
/// touched group's output *before* the batch (computed at first touch, so
/// one coalesced retract/insert pair is emitted per group per packet).
#[derive(Default)]
struct PacketAcc {
    inserted: Vec<Row>,
    retracted: Vec<Row>,
    touched: BTreeMap<IndexKey, Option<Row>>,
}

/// A compiled standing query: delta-aware filter → joins → aggregation →
/// projection, plus the maintained view itself. See the crate docs for the
/// view-consistency contract.
#[derive(Debug)]
pub struct ViewCircuit {
    spec: QuerySpec,
    /// Base inputs in left-deep join order (connectivity-greedy over the
    /// spec's declaration order).
    inputs: Vec<TableInput>,
    stages: Vec<JoinStage>,
    agg: Option<AggStage>,
    /// Output column positions (into the last stage's output layout, or the
    /// aggregate's output row); `None` keeps everything.
    projection: Option<Vec<usize>>,
    /// The final output schema (post-projection).
    out_schema: Schema,
    /// Maintained multiset for non-aggregate views (post-projection rows
    /// with net weights, in canonical order). Aggregate views are derived
    /// from the `AggStage` groups instead.
    view: BTreeMap<Row, i64>,
    /// One past the epoch of the last record folded in.
    cursor: u64,
    /// What the join indexes and `view` hold right now (the aggregate's
    /// group table counts its own).
    footprint: Footprint,
}

/// Resolve `name` in `schema`: exact match (specs use qualified names, agg
/// aliases are unqualified) — the same `Schema::index_of` contract the
/// batch operators use.
fn resolve(schema: &Schema, name: &str) -> Result<usize> {
    schema.index_of(name)
}

/// The values of `row` at `positions`, in that order.
fn narrow(row: &[Value], positions: &[usize]) -> Row {
    positions.iter().map(|&i| row[i].clone()).collect()
}

/// Where each of `wanted` sits in `layout` (every wanted column is in the
/// layout by construction of the required-column sets).
fn positions_in(layout: &[usize], wanted: impl IntoIterator<Item = usize>) -> Vec<usize> {
    wanted
        .into_iter()
        .map(|c| layout.iter().position(|&l| l == c).expect("required column is in the layout"))
        .collect()
}

/// The catalog index a join stage reads its right input through, if it
/// can: the join key is one column whose declared type is the left key's,
/// and the catalog holds a one-column index on exactly that column.
fn shared_index(
    catalog: &Catalog,
    right: &TableInput,
    key: &[usize],
    left: &[DataType],
) -> Option<String> {
    let ([k], [left]) = (key, left) else {
        return None;
    };
    let table = catalog.table(&right.name).ok()?;
    let col = right.cols[*k];
    if table.column(col).data_type() != *left {
        return None;
    }
    let index = catalog.index_on(&right.name, &table.schema().field(col).name)?;
    Some(index.name().to_owned())
}

/// Bytes of one non-aggregate view row with its weight: the map entry,
/// the row's values and their string contents.
fn entry_bytes(row: &[Value]) -> usize {
    size_of::<(Row, i64)>() + std::mem::size_of_val(row) + string_bytes(row)
}

impl ViewCircuit {
    /// Compile `spec` against `catalog` into an empty circuit (no rows
    /// folded in yet; see [`load_initial`](Self::load_initial)).
    ///
    /// Rejects `ORDER BY`/`LIMIT` specs: a standing view is an unordered
    /// multiset maintained under retraction, where "the first k" is not a
    /// stable notion. Subscribers order/truncate on their side.
    pub fn compile(spec: &QuerySpec, catalog: &Catalog) -> Result<ViewCircuit> {
        spec.validate()?;
        if !spec.order_by.is_empty() || spec.limit.is_some() {
            return Err(RqpError::Invalid(
                "standing subscriptions maintain unordered views; ORDER BY/LIMIT are not supported — order on the subscriber side".into(),
            ));
        }
        // Left-deep join order: declaration order, reordered greedily so
        // every table joins a connected prefix (validate() guarantees the
        // join graph is connected, so this always succeeds).
        let mut order: Vec<String> = vec![spec.tables[0].clone()];
        let mut remaining: Vec<String> = spec.tables[1..].to_vec();
        while !remaining.is_empty() {
            let pos = remaining
                .iter()
                .position(|t| {
                    spec.joins
                        .iter()
                        .any(|e| order.iter().any(|o| e.connects(o, t)))
                })
                .expect("validated join graph is connected");
            order.push(remaining.remove(pos));
        }
        let schemas: Vec<Schema> = order
            .iter()
            .map(|name| Ok(catalog.table(name)?.qualified_schema()))
            .collect::<Result<_>>()?;
        // Join keys, resolved over the *unpruned* schemas: left keys as
        // positions in the concatenation of the tables joined so far
        // ("global" positions: table i's column c is `offsets[i] + c`),
        // right keys as positions in the joining table.
        let mut offsets = vec![0usize];
        let mut joined_fields: Vec<Field> = schemas[0].fields().to_vec();
        let mut left_keys: Vec<Vec<usize>> = Vec::new();
        let mut right_keys: Vec<Vec<usize>> = Vec::new();
        for (s, schema) in schemas.iter().enumerate().skip(1) {
            let acc_schema = Schema::new(joined_fields.clone());
            let mut left_key = Vec::new();
            let mut right_key = Vec::new();
            for e in &spec.joins {
                if let Some(o) = e.oriented_from(&order[s]) {
                    if order[..s].contains(&o.right_table) {
                        right_key.push(resolve(schema, &o.left_qualified())?);
                        left_key.push(resolve(&acc_schema, &o.right_qualified())?);
                    }
                }
            }
            debug_assert!(!left_key.is_empty(), "greedy order guarantees an edge");
            left_keys.push(left_key);
            right_keys.push(right_key);
            offsets.push(joined_fields.len());
            joined_fields.extend(schema.fields().iter().cloned());
        }
        offsets.push(joined_fields.len());
        let joined_schema = Schema::new(joined_fields);
        // Declared types by global position: what a join index stores typed.
        let types: Vec<DataType> = joined_schema.fields().iter().map(|f| f.dtype).collect();
        // The aggregation binds as every aggregation does, then projection
        // resolves over the aggregate's output schema — the same stacking
        // order as the batch planner.
        let (agg_cols, pre_proj_schema) = if !spec.aggs.is_empty() || !spec.group_by.is_empty() {
            let AggBinding { group_cols, aggs, schema } =
                AggBinding::new(&joined_schema, &spec.group_by, &spec.aggs)?;
            (Some((group_cols, aggs)), schema)
        } else {
            (None, joined_schema)
        };
        let (projection, out_schema) = match &spec.projections {
            Some(cols) => {
                let idx: Vec<usize> = cols
                    .iter()
                    .map(|c| resolve(&pre_proj_schema, c))
                    .collect::<Result<_>>()?;
                let fields = idx
                    .iter()
                    .map(|&i| pre_proj_schema.field(i).clone())
                    .collect();
                (Some(idx), Schema::new(fields))
            }
            None => (None, pre_proj_schema),
        };
        // Required columns, as sets of global positions. The terminal stage
        // reads the group-by columns and aggregate inputs, or — without
        // aggregation — the projected columns (everything when nothing is
        // projected). `after[s]` is what is still read once stage `s` has
        // matched: the terminal's columns plus the keys of later stages.
        let total = *offsets.last().expect("at least one table");
        let terminal: BTreeSet<usize> = match (&agg_cols, &projection) {
            (Some((group_cols, aggs)), _) => {
                group_cols.iter().copied().chain(aggs.iter().filter_map(|(_, c)| *c)).collect()
            }
            (None, Some(idx)) => idx.iter().copied().collect(),
            (None, None) => (0..total).collect(),
        };
        let n_stages = left_keys.len();
        let mut after: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n_stages];
        let mut need = terminal.clone();
        for s in (0..n_stages).rev() {
            after[s] = need.clone();
            need.extend(left_keys[s].iter().copied());
        }
        // `need` is now what the first table's rows must carry into stage 0
        // (or into the terminal stage when there is no join).
        // The layout of the rows arriving on the left of stage `s`: the
        // required columns of tables 0..=s, ascending.
        let arriving = |s: usize| -> Vec<usize> {
            let mut cols: BTreeSet<usize> = after[s].clone();
            cols.extend(left_keys[s].iter().copied());
            cols.into_iter().filter(|&g| g < offsets[s + 1]).collect()
        };
        let mut inputs = Vec::with_capacity(order.len());
        for (i, (name, schema)) in order.iter().zip(&schemas).enumerate() {
            let (lo, hi) = (offsets[i], offsets[i + 1]);
            let downstream = if i == 0 { &need } else { &after[i - 1] };
            let kept: Vec<usize> = downstream.range(lo..hi).map(|g| g - lo).collect();
            let pred = spec.local_pred(name);
            let mut cols: BTreeSet<usize> = kept.iter().copied().collect();
            if i > 0 {
                cols.extend(right_keys[i - 1].iter().copied());
            }
            let reads: Vec<usize> =
                pred.columns().iter().map(|c| resolve(schema, c)).collect::<Result<_>>()?;
            cols.extend(reads.iter().copied());
            let cols: Vec<usize> = cols.into_iter().collect();
            let filter = if pred == rqp_common::Expr::true_() {
                None
            } else {
                Some(pred.bind(&schema.project(&cols))?)
            };
            let keep = positions_in(&cols, kept);
            if i > 0 {
                right_keys[i - 1] = positions_in(&cols, right_keys[i - 1].iter().copied());
            }
            inputs.push(TableInput { name: name.clone(), arity: schema.len(), cols, filter, keep });
        }
        let mut stages = Vec::with_capacity(n_stages);
        for (s, right_key) in right_keys.into_iter().enumerate() {
            let layout = arriving(s);
            let stored: Vec<usize> =
                after[s].iter().copied().filter(|&g| g < offsets[s + 1]).collect();
            let left_types =
                |global: &[usize]| global.iter().map(|&g| types[g]).collect::<Vec<_>>();
            let right = &inputs[s + 1];
            let right_types = |read: &[usize]| {
                read.iter().map(|&r| types[offsets[s + 1] + right.cols[r]]).collect::<Vec<_>>()
            };
            stages.push(JoinStage {
                left_index: JoinIndex::new(&left_types(&left_keys[s]), &left_types(&stored)),
                right: match shared_index(catalog, right, &right_key, &left_types(&left_keys[s])) {
                    Some(index) => Right::Shared { index, seen: 0 },
                    None => Right::Owned(JoinIndex::new(
                        &right_types(&right_key),
                        &right_types(&right.keep),
                    )),
                },
                left_key: positions_in(&layout, left_keys[s].iter().copied()),
                left_keep: positions_in(&layout, stored),
                right_key,
            });
        }
        // The terminal stage reads the last stage's output layout — exactly
        // the terminal's own required columns, ascending.
        let final_layout: Vec<usize> = terminal.into_iter().collect();
        let agg = agg_cols.map(|(group_cols, aggs)| {
            let aggs = aggs
                .into_iter()
                .map(|(f, c)| (f, c.map(|c| positions_in(&final_layout, [c])[0])))
                .collect();
            let key: Vec<DataType> = group_cols.iter().map(|&g| types[g]).collect();
            AggStage::new(positions_in(&final_layout, group_cols), &key, aggs)
        });
        // A non-aggregate projection indexes the joined row; an aggregate's
        // indexes its own output row, which pruning does not touch.
        let projection = match (&agg, projection) {
            (None, Some(idx)) => Some(positions_in(&final_layout, idx)),
            (_, p) => p,
        };
        Ok(ViewCircuit {
            spec: spec.clone(),
            inputs,
            stages,
            agg,
            projection,
            out_schema,
            view: BTreeMap::new(),
            cursor: 0,
            footprint: Footprint::default(),
        })
    }

    /// The compiled spec.
    pub fn spec(&self) -> &QuerySpec {
        &self.spec
    }

    /// The view's output schema (post-projection).
    pub fn out_schema(&self) -> &Schema {
        &self.out_schema
    }

    /// One past the epoch of the last record folded in — the cursor to
    /// pass to `Changelog::since_up_to` for the next poll.
    pub fn cursor(&self) -> u64 {
        self.cursor
    }

    /// Set the changelog cursor (after an initial load that already covers
    /// everything up to `cursor`).
    pub fn set_cursor(&mut self, cursor: u64) {
        self.cursor = cursor;
    }

    /// Fold the tables' *current* contents in as the initial state,
    /// charging `clock` for the build. Call once, right after `compile`,
    /// with the same catalog (or a snapshot taken at the changelog cursor
    /// stored with [`set_cursor`](Self::set_cursor)).
    ///
    /// Each table is read straight from its columns: the selection kernel
    /// ([`Table::select`](rqp_storage::Table::select)) picks the surviving
    /// rows first, what they will fill is sized once for them — a slot per
    /// row, a map entry per distinct key — and only then do the survivors,
    /// in ascending row order and 1024 at a time, go through the same
    /// `ingest` as a changelog row, read in place (see the module docs). A
    /// shared right side stores nothing: once its table is read, it has
    /// seen every row of it.
    pub fn load_initial(&mut self, catalog: &Catalog, clock: &SharedClock) -> Result<()> {
        let handles = self.borrow_shared(catalog)?;
        let lent = lend(&handles);
        for i in 0..self.inputs.len() {
            let table = catalog.table(&self.inputs[i].name)?;
            clock.charge(&rule::emit(table.nrows() as f64));
            let input = &self.inputs[i];
            let survivors = match &input.filter {
                Some(filter) => table.select(&input.cols, filter),
                None => SelMask::all(table.nrows()),
            };
            let cols: Vec<Src> = input.cols.iter().map(|&c| Src::table(table.column(c))).collect();
            self.reserve(i, &cols, &survivors);
            let mut tally = Tally::default();
            let mut batch = Vec::with_capacity(LOAD_BATCH);
            let mut rows = survivors.iter_set().peekable();
            while rows.peek().is_some() {
                batch.clear();
                batch.extend(rows.by_ref().take(LOAD_BATCH));
                self.ingest(i, &cols, &batch, 1, &lent, &mut tally, None);
            }
            tally.charge(clock);
            let shared = i.checked_sub(1).map(|s| (&mut self.stages[s].right, lent[s]));
            if let Some((Right::Shared { index, seen }, Some(side))) = shared {
                if side.index.entries() != table.nrows() {
                    return Err(RqpError::Invalid(format!(
                        "index '{index}' holds {} entries for the {} rows of '{}'",
                        side.index.entries(),
                        table.nrows(),
                        self.inputs[i].name
                    )));
                }
                *seen = table.nrows();
            }
        }
        #[cfg(debug_assertions)]
        assert_eq!(self.footprint(), self.recount(), "running footprint drifted from a recount");
        Ok(())
    }

    /// Size what input `i`'s survivors fill during the load before any of
    /// them is ingested, so that each structure is allocated once. A
    /// survivor is stored in one join index — stage 0's left side for the
    /// first table, stage `i - 1`'s right side for the others, unless that
    /// side is shared — and its joined rows land in one more place: stage
    /// `i`'s left side, or the groups past the last join. Every side
    /// further on is still empty, so nothing reaches beyond. Arenas get a
    /// slot per row they will receive (an upper bound: duplicates share
    /// one), key maps and groups an entry per distinct key. `cols` are the
    /// input's read-layout columns.
    fn reserve(&mut self, i: usize, cols: &[Src], survivors: &SelMask) {
        let input = &self.inputs[i];
        let own = match i.checked_sub(1) {
            // Stage 0's arriving layout is the first table's `keep`.
            None => self.stages.first_mut().map(|s| {
                (&mut s.left_index, s.left_key.iter().map(|&k| input.keep[k]).collect::<Vec<_>>())
            }),
            Some(s) => match &mut self.stages[s] {
                JoinStage { right: Right::Owned(index), right_key, .. } => {
                    Some((index, right_key.clone()))
                }
                JoinStage { right: Right::Shared { .. }, .. } => None,
            },
        };
        let survivors = || survivors.iter_set().map(|r| At { r, s: NIL });
        if let Some((index, key)) = own {
            let (n, distinct) = count_keys(cols, &key, survivors);
            index.reserve(n, distinct);
        }
        // Where the joined rows land: nowhere for the first table of a join
        // (stage 0's right side is still empty), else stage `i`'s left side
        // or the groups.
        let target_key = match (self.stages.get(i), &self.agg) {
            (Some(_), _) if i == 0 => return,
            (Some(next), _) => &next.left_key,
            (None, Some(agg)) => &agg.group_cols,
            (None, None) => return,
        };
        // A joined row is the left side's stored row (none for the first
        // table) followed by the survivor's kept columns, as `ingest` reads
        // it: at the left slot its key matched, and at the survivor.
        let left = i.checked_sub(1).map(|s| &self.stages[s]);
        let slots = left.into_iter().flat_map(|s| s.left_index.slots.columns.iter().map(Src::Slot));
        let joined_cols: Vec<Src> = slots.chain(input.keep.iter().map(|&p| cols[p])).collect();
        let (joined, distinct) = match left {
            // One joined row per stored row the survivor's key matches.
            Some(stage) => count_keys(&joined_cols, target_key, || {
                survivors().flat_map(|at| {
                    let key = IndexKey::with(&stage.right_key, |p| cols[p].get(at));
                    stage.left_index.bucket(&key).map(move |s| At { s, ..at })
                })
            }),
            None => count_keys(&joined_cols, target_key, survivors),
        };
        match (self.stages.get_mut(i), &mut self.agg) {
            (Some(next), _) => next.left_index.reserve(joined, distinct),
            (None, Some(agg)) => agg.table.reserve(distinct),
            (None, None) => {}
        }
    }

    /// Fold a batch of changelog records into the view, returning the
    /// delta packet subscribers apply to their copies. Records for tables
    /// the spec doesn't reference are skipped (the changelog is shared
    /// catalog-wide). Every touched row charges the shared cost clock.
    ///
    /// `catalog` is the one the records were published from, as of at
    /// least the last of them: a shared right side is read from it (see the
    /// module docs), and nothing of it is kept once this returns. Errors,
    /// folding nothing in, when a shared side cannot be read, or a record
    /// on a shared input is a Delete or an Insert of another row than the
    /// table's next unseen one.
    pub fn apply(
        &mut self,
        recs: &[ChangeRecord],
        catalog: &Catalog,
        clock: &SharedClock,
    ) -> Result<DeltaPacket> {
        let handles = self.borrow_shared(catalog)?;
        let lent = lend(&handles);
        self.check_shared(recs, &lent)?;
        let mut acc = PacketAcc::default();
        let mut tally = Tally::default();
        let mut epoch = self.cursor.saturating_sub(1);
        for rec in recs {
            epoch = epoch.max(rec.epoch);
            self.cursor = self.cursor.max(rec.epoch + 1);
            let Some(i) = self.input_of(rec) else { continue };
            let w = match rec.op {
                ChangeOp::Insert => 1,
                ChangeOp::Delete => -1,
            };
            let input = &self.inputs[i];
            debug_assert_eq!(rec.row.len(), input.arity, "changelog row arity");
            tally.tuples += 1;
            let row = narrow(&rec.row, &input.cols);
            if input.filter.as_ref().is_none_or(|f| f.eval_bool(&row)) {
                let (cols, out) = (Src::of_row(&row), Some(&mut acc));
                self.ingest(i, &cols, &[0], w, &lent, &mut tally, out);
            }
            if let Some(Right::Shared { seen, .. }) =
                i.checked_sub(1).map(|s| &mut self.stages[s].right)
            {
                *seen += 1;
            }
        }
        tally.charge(clock);
        // Aggregate finalization: one retract/insert pair per changed
        // group, comparing pre-batch and post-batch output rows. Only a
        // touched group can have lost its last row, so only touched groups
        // are checked for dropping.
        if let Some(agg) = &mut self.agg {
            for (key, old) in std::mem::take(&mut acc.touched) {
                let new = agg.table.output(&key).map(|r| project(&self.projection, r));
                agg.table.drop_if_empty(&key);
                if old == new {
                    continue;
                }
                if let Some(o) = old {
                    acc.retracted.push(o);
                }
                if let Some(n) = new {
                    acc.inserted.push(n);
                }
            }
        }
        #[cfg(debug_assertions)]
        assert_eq!(self.footprint(), self.recount(), "running footprint drifted from a recount");
        Ok(DeltaPacket {
            epoch,
            inserted: canonicalize(acc.inserted),
            retracted: canonicalize(acc.retracted),
        })
    }

    /// The right side of every join stage, in join order, as the
    /// `sub.register` event names it: `shared <index>` for a side read
    /// through the catalog's index, `owned <entries>` for one the circuit
    /// keeps.
    pub fn join_sides(&self) -> Vec<String> {
        self.stages.iter().map(|s| s.right.describe()).collect()
    }

    /// The input `rec` changes, if the view reads its table.
    fn input_of(&self, rec: &ChangeRecord) -> Option<usize> {
        self.inputs.iter().position(|t| *t.name == *rec.table)
    }

    /// Refuse `recs` unless every record on a shared input is an Insert of
    /// the table's next unseen row, in row order.
    fn check_shared(&self, recs: &[ChangeRecord], lent: &[Option<Lent>]) -> Result<()> {
        let mut next: Vec<Option<usize>> = self.stages.iter().map(|s| s.right.seen()).collect();
        for (rec, i) in recs.iter().filter_map(|rec| Some((rec, self.input_of(rec)?))) {
            let Some(Some(seen)) = i.checked_sub(1).map(|s| &mut next[s]) else { continue };
            let (input, side) = (&self.inputs[i], lent[i - 1].expect("a shared side is lent"));
            let matches = rec.op == ChangeOp::Insert
                && *seen < side.table.nrows()
                && input.cols.iter().all(|&c| {
                    rec.row.get(c).is_some_and(|v| *v == side.table.column(c).get(*seen))
                });
            if !matches {
                return Err(RqpError::Invalid(format!(
                    "epoch {}: a {:?} on '{}' is not its row {seen}, and the view reads it \
                     through an append-only index",
                    rec.epoch, rec.op, input.name
                )));
            }
            *seen += 1;
        }
        Ok(())
    }

    /// The catalog's table and index behind every shared right side.
    fn borrow_shared(&self, catalog: &Catalog) -> Result<Handles> {
        let shared = self.stages.iter().zip(&self.inputs[1..]).map(|(stage, input)| {
            let Right::Shared { index, .. } = &stage.right else {
                return Ok(None);
            };
            Ok(Some((catalog.table(&input.name)?, catalog.index(index)?)))
        });
        shared.collect()
    }

    /// The maintained view's current contents, in canonical order.
    pub fn snapshot(&self) -> Vec<Row> {
        match &self.agg {
            Some(agg) => {
                // Groups iterate in key order — the same sorted-group
                // order HashAggOp emits.
                let rows = agg.table.finish().into_iter();
                canonicalize(rows.map(|r| project(&self.projection, r)).collect())
            }
            None => self
                .view
                .iter()
                .flat_map(|(row, &w)| {
                    std::iter::repeat_with(move || row.clone()).take(w.max(0) as usize)
                })
                .collect(),
        }
    }

    /// Rows currently materialized in the view (post-projection
    /// multiset size for non-aggregate views, live group count for
    /// aggregate ones) — what a subscriber's copy holds.
    pub fn view_rows(&self) -> usize {
        match &self.agg {
            Some(agg) => agg.table.len(),
            None => self.view.values().map(|&w| w.max(0) as usize).sum(),
        }
    }

    /// Entries the circuit keeps resident: join-index rows on both sides of
    /// every stage, aggregate groups, MIN/MAX multiset values, and the
    /// distinct rows of a non-aggregate view. Counted as the structures
    /// change, not estimated — this is what the memory broker funds.
    pub fn state_rows(&self) -> usize {
        self.footprint().rows
    }

    /// Payload bytes behind [`state_rows`](Self::state_rows): every key,
    /// stored row, weight, accumulator and multiset value at its in-memory
    /// size, string contents included — a join-index entry as its arena
    /// slot (values, weight, chain link), a join key or group as its map
    /// entry. A value or key that a typed layout can hold counts at the
    /// typed size whichever layout holds it now (8 bytes for an `Int` or
    /// `Float`, a 16-byte entry for an `Int` key). Allocator overhead,
    /// spare capacity and free arena slots are not included (they are the
    /// allocator's and the arena's, not the state's), so two circuits in
    /// the same state report the same number, whatever values came and
    /// went, and a fully retracted circuit reports what an empty one does.
    pub fn state_bytes(&self) -> usize {
        self.footprint().bytes
    }

    /// What the circuit holds right now: the join indexes and the view, and
    /// the aggregate's groups.
    fn footprint(&self) -> Footprint {
        let groups = self.agg.as_ref().map(|agg| agg.table.footprint());
        self.footprint + groups.unwrap_or_default()
    }

    /// The footprint recounted by walking every structure — what the
    /// running count must equal at all times.
    #[cfg(any(test, debug_assertions))]
    fn recount(&self) -> Footprint {
        let rights = self.stages.iter().filter_map(|s| match &s.right {
            Right::Owned(index) => Some(index.recount()),
            Right::Shared { .. } => None,
        });
        let parts = self.stages.iter().map(|s| s.left_index.recount()).chain(rights);
        let groups = self.agg.as_ref().map(|agg| agg.table.recount());
        let mut fp = parts.chain(groups).fold(Footprint::default(), |a, b| a + b);
        fp.rows += self.view.len();
        fp.bytes += self.view.keys().map(|row| entry_bytes(row)).sum::<usize>();
        fp
    }

    /// Push a batch of base-table rows of input `input_idx` that passed its
    /// filter — rows `rows` of its read-layout columns `cols`, in order,
    /// each of weight `weight` — through the joins and the terminal stage,
    /// adding what they owe the cost clock to `tally`. `out` is `None`
    /// during the initial load (state is built, nothing is emitted).
    ///
    /// Rows on the first table enter stage 0 on the left; rows on table
    /// `i > 0` enter stage `i - 1` on the right, joining everything already
    /// accumulated on the left, and the joined rows flow on through the
    /// remaining stages, a stage at a time. Within a batch every index is
    /// either probed or merged into, never both, and each sees its rows in
    /// row order; so a batch leaves every index, group, float sum and
    /// charge as its rows ingested one at a time would.
    #[allow(clippy::too_many_arguments)]
    fn ingest(
        &mut self,
        input_idx: usize,
        cols: &[Src<'_>],
        rows: &[usize],
        weight: i64,
        lent: &[Option<Lent<'_>>],
        tally: &mut Tally,
        out: Option<&mut PacketAcc>,
    ) {
        let ViewCircuit { inputs, stages, agg, projection, view, footprint, .. } = self;
        let keep = &inputs[input_idx].keep;
        let kept: Vec<Src> = keep.iter().map(|&p| cols[p]).collect();
        let agg = agg.as_mut();
        let mut fold = Fold { agg, projection, view, footprint, tally, out, inputs, lent };
        let Some(prev) = input_idx.checked_sub(1) else {
            let rows = rows.iter().map(|&r| (At { r, s: NIL }, weight)).collect();
            return fold.push(0, stages, Arrivals { cols: kept, rows });
        };
        let (done, later) = stages.split_at_mut(input_idx);
        let stage = &mut done[prev];
        let left = &stage.left_index;
        let key = |r: usize| IndexKey::with(&stage.right_key, |p| cols[p].get(At { r, s: NIL }));
        // All probes first, then all merges: the lookups of a batch are
        // independent of one another, and a loop of nothing else lets them
        // overlap.
        let mut joined = Vec::new();
        for &r in rows {
            for s in left.bucket(&key(r)) {
                let w = left.slots.weights[s as usize] * weight;
                fold.tally.tuples += w.unsigned_abs();
                joined.push((At { r, s }, w));
            }
        }
        fold.tally.builds += rows.len() as u64;
        // A shared side is the table itself: its caller counts the rows.
        if let Right::Owned(index) = &mut stage.right {
            for &r in rows {
                let row = Gather { cols, positions: keep, at: At { r, s: NIL } };
                index.update(key(r), row, weight, fold.footprint);
            }
        }
        let slots = left.slots.columns.iter().map(Src::Slot);
        fold.push(
            input_idx,
            later,
            Arrivals { cols: slots.chain(kept.iter().copied()).collect(), rows: joined },
        );
    }
}

/// How many survivors the initial load hands [`ViewCircuit::ingest`] at a
/// time: enough to run each pass as a loop over plain slices, few enough
/// that a batch's joined rows stay small and cache-resident.
const LOAD_BATCH: usize = 1024;

/// Cost-clock units an ingest owes, charged in one go by its caller: the
/// clock is exact, so a sum charged once reads as its parts charged one by
/// one.
#[derive(Default)]
struct Tally {
    /// Tuples read or emitted, each row of weight `w` counting `|w|`.
    tuples: u64,
    /// Hash-table touches.
    builds: u64,
}

impl Tally {
    fn charge(self, clock: &SharedClock) {
        clock.charge(&rule::emit(self.tuples as f64));
        clock.charge(&rule::hash_build(self.builds as f64));
    }
}

/// What rows pushed through the join stages reach besides their indexes:
/// the terminal stage, the running footprint, the charges owed, the packet
/// being built (`None` during the initial load), and every shared right
/// side's input and borrowed table and index.
struct Fold<'a> {
    agg: Option<&'a mut AggStage>,
    projection: &'a Option<Vec<usize>>,
    view: &'a mut BTreeMap<Row, i64>,
    footprint: &'a mut Footprint,
    tally: &'a mut Tally,
    out: Option<&'a mut PacketAcc>,
    inputs: &'a [TableInput],
    lent: &'a [Option<Lent<'a>>],
}

impl Fold<'_> {
    /// Push `rows` into the first of `stages`, stage `s`: join each against
    /// the stage's right side and merge it into the left side, then push
    /// the joined rows on through the rest. Past the last stage, fold them
    /// into the terminal stage.
    ///
    /// A shared right side yields, per left row, the row ids under its key
    /// below `seen` that pass the right input's filter, ascending; their
    /// kept columns are gathered as read, so a joined row reads its right
    /// half at its own number, as it reads its left half.
    fn push(&mut self, s: usize, stages: &mut [JoinStage], rows: Arrivals<'_>) {
        if rows.rows.is_empty() {
            return;
        }
        let Some((stage, later)) = stages.split_first_mut() else {
            return self.terminal(&rows);
        };
        let JoinStage { left_key, left_keep: keep, left_index, right, .. } = stage;
        let input = &self.inputs[s + 1];
        // A shared side's kept columns, where they are read and the columns
        // its matches are gathered into.
        let mut shared = self.lent[s].map(|side| {
            let columns = input.keep.iter().map(|&p| side.table.column(input.cols[p]));
            let reads: Vec<Src> = columns.clone().map(Src::table).collect();
            (side, reads, columns.map(|c| Column::new(c.data_type())).collect::<Vec<_>>())
        });
        // The joined rows' left halves, gathered: a joined row reads them
        // at its number and its right half at its right slot — an owned
        // side's slot, or its number again for a shared side's gathered row.
        let mut stored: Vec<Vec<Value>> = vec![Vec::new(); keep.len()];
        let mut joined = Vec::new();
        for &(at, w) in &rows.rows {
            let key = IndexKey::with(left_key, |p| rows.cols[p].get(at));
            self.tally.builds += w.unsigned_abs();
            let mut matched = |t: Option<u32>, jw: i64| {
                for (column, &p) in stored.iter_mut().zip(keep.iter()) {
                    column.push(rows.cols[p].get(at));
                }
                self.tally.tuples += jw.unsigned_abs();
                let r = joined.len();
                joined.push((At { r, s: t.unwrap_or(r as u32) }, jw));
            };
            match (&*right, &mut shared) {
                (Right::Owned(index), _) => {
                    for t in index.bucket(&key) {
                        matched(Some(t), index.slots.weights[t as usize] * w);
                    }
                }
                (Right::Shared { seen, .. }, Some((side, reads, gathered))) if *seen > 0 => {
                    let IndexKey::One(v) = &key else { unreachable!("shared keys are one column") };
                    let rids = side.index.lookup_eq(v).filter(|&rid| rid < *seen);
                    for rid in rids.filter(|&rid| side.passes(input, rid)) {
                        for (column, &src) in gathered.iter_mut().zip(reads.iter()) {
                            column.store(column.len(), src, At { r: rid, s: NIL });
                        }
                        matched(None, w);
                    }
                }
                (Right::Shared { .. }, _) => {}
            }
            let row = Gather { cols: &rows.cols, positions: keep, at };
            left_index.update(key, row, w, self.footprint);
        }
        let lefts = stored.iter().map(|c| Src::Values(c));
        let rights: Vec<Src> = match (&*right, &shared) {
            (Right::Owned(index), _) => index.slots.columns.iter().map(Src::Slot).collect(),
            (Right::Shared { .. }, Some((_, _, gathered))) => gathered.iter().map(Src::Slot).collect(),
            (Right::Shared { .. }, None) => unreachable!("a shared side is lent"),
        };
        let cols = lefts.chain(rights).collect();
        self.push(s + 1, later, Arrivals { cols, rows: joined });
    }

    /// Fold `rows` into the aggregate groups or the multiset view, emitting
    /// into the packet when one is being built.
    fn terminal(&mut self, rows: &Arrivals<'_>) {
        self.tally.builds += rows.rows.iter().map(|(_, w)| w.unsigned_abs()).sum::<u64>();
        if let Some(agg) = self.agg.as_deref_mut() {
            // Each row's group, in row order — so groups are created in the
            // order single rows would create them — then every aggregate
            // over all rows, a column at a time.
            let mut groups = Vec::with_capacity(rows.rows.len());
            for &(at, w) in &rows.rows {
                let key = agg.key_at(&rows.cols, at);
                if let Some(acc) = self.out.as_deref_mut() {
                    if !acc.touched.contains_key(&key) {
                        let old = agg.table.output(&key).map(|r| project(self.projection, r));
                        acc.touched.insert(key.clone(), old);
                    }
                }
                let g = agg.table.group(key);
                agg.table.add_rows(g, w);
                groups.push(g);
            }
            for a in 0..agg.aggs.len() {
                agg.fold(a, rows, &groups);
            }
            return;
        }
        for &(at, w) in &rows.rows {
            let row: Row = match self.projection {
                Some(idx) => idx.iter().map(|&p| rows.cols[p].get(at)).collect(),
                None => rows.cols.iter().map(|c| c.get(at)).collect(),
            };
            let held = self.view.len();
            let net = self.view.entry(row.clone()).or_insert(0);
            *net += w;
            debug_assert!(*net >= 0, "retraction of a row the view never held");
            if *net == 0 {
                self.view.remove(&row);
            }
            if self.view.len() > held {
                self.footprint.add(entry_bytes(&row));
            } else if self.view.len() < held {
                self.footprint.remove(entry_bytes(&row));
            }
            if let Some(acc) = self.out.as_deref_mut() {
                let list = if w > 0 { &mut acc.inserted } else { &mut acc.retracted };
                for _ in 0..w.unsigned_abs() {
                    list.push(row.clone());
                }
            }
        }
    }
}

/// `row` under a view's output `projection` (`None` keeps everything).
fn project(projection: &Option<Vec<usize>>, row: Row) -> Row {
    match projection {
        Some(idx) => narrow(&row, idx),
        None => row,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rqp_common::expr::{col, lit};
    use rqp_common::{Accumulator, CostClock, DataType, Field};
    use rqp_exec::AggSpec;
    use rqp_storage::keyed::int_key;
    use rqp_storage::{Changelog, Table};
    use std::collections::{hash_map, HashMap};
    use std::sync::Arc;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let t = Table::new(
            "t",
            Schema::from_pairs(&[("k", DataType::Int), ("v", DataType::Int)]),
        );
        let u = Table::new(
            "u",
            Schema::from_pairs(&[("k", DataType::Int), ("w", DataType::Int)]),
        );
        c.add_table(t);
        c.add_table(u);
        c
    }

    /// Drive mutations through real tables + a real changelog, returning
    /// the packets from each poll alongside the circuit.
    struct Rig {
        catalog: Catalog,
        log: Arc<Changelog>,
        circuit: ViewCircuit,
        clock: SharedClock,
        cursor: u64,
    }

    impl Rig {
        fn new(spec: &QuerySpec) -> Rig {
            let catalog = catalog();
            let log = Arc::new(Changelog::new());
            catalog.attach_changelog(&log);
            let clock = CostClock::default_clock();
            let mut circuit = ViewCircuit::compile(spec, &catalog).unwrap();
            circuit.load_initial(&catalog, &clock).unwrap();
            Rig { catalog, log, circuit, clock, cursor: 0 }
        }

        fn insert(&mut self, table: &str, row: Row) {
            self.catalog.table_mut(table).unwrap().append(row);
        }

        fn delete_where(&mut self, table: &str, k: i64) {
            let t = self.catalog.table_mut(table).unwrap();
            while let Some(i) =
                (0..t.nrows()).find(|&i| t.row(i)[0] == Value::Int(k))
            {
                t.delete_row(i);
            }
        }

        fn poll(&mut self) -> DeltaPacket {
            let (recs, cur) = self.log.since_up_to(self.cursor, usize::MAX);
            self.cursor = cur;
            self.circuit.apply(&recs, &self.catalog, &self.clock).unwrap()
        }

        /// From-scratch reference: evaluate the spec naively over the
        /// tables' current contents (filter → nested-loop joins in circuit
        /// order → agg via the batch accumulator semantics → projection).
        fn rerun(&self) -> Vec<Row> {
            let spec = self.circuit.spec().clone();
            let order: Vec<String> =
                self.circuit.inputs.iter().map(|t| t.name.clone()).collect();
            let mut rows: Vec<Row> = Vec::new();
            let mut schema_fields: Vec<Field> = Vec::new();
            for (i, name) in order.iter().enumerate() {
                let t = self.catalog.table(name).unwrap();
                let qschema = t.qualified_schema();
                let pred = spec.local_pred(name).bind(&qschema).unwrap();
                let filtered: Vec<Row> =
                    t.iter_rows().filter(|r| pred.eval_bool(r)).collect();
                if i == 0 {
                    rows = filtered;
                    schema_fields = qschema.fields().to_vec();
                    continue;
                }
                let acc_schema = Schema::new(schema_fields.clone());
                let mut lk = Vec::new();
                let mut rk = Vec::new();
                for e in &spec.joins {
                    if let Some(o) = e.oriented_from(name) {
                        if order[..i].contains(&o.right_table) {
                            rk.push(qschema.index_of(&o.left_qualified()).unwrap());
                            lk.push(acc_schema.index_of(&o.right_qualified()).unwrap());
                        }
                    }
                }
                let mut next = Vec::new();
                for l in &rows {
                    for r in &filtered {
                        if lk.iter().zip(&rk).all(|(&a, &b)| l[a] == r[b]) {
                            let mut o = l.clone();
                            o.extend(r.iter().cloned());
                            next.push(o);
                        }
                    }
                }
                rows = next;
                schema_fields.extend(qschema.fields().iter().cloned());
            }
            let joined_schema = Schema::new(schema_fields);
            let mut out = if !spec.aggs.is_empty() || !spec.group_by.is_empty() {
                let gc: Vec<usize> = spec
                    .group_by
                    .iter()
                    .map(|g| joined_schema.index_of(g).unwrap())
                    .collect();
                let ac: Vec<Option<usize>> = spec
                    .aggs
                    .iter()
                    .map(|a| a.col.as_deref().map(|c| joined_schema.index_of(c).unwrap()))
                    .collect();
                let mut groups: BTreeMap<Vec<Value>, Vec<Accumulator>> = BTreeMap::new();
                if gc.is_empty() {
                    groups.insert(Vec::new(), vec![Accumulator::new(); spec.aggs.len()]);
                }
                for r in &rows {
                    let key: Vec<Value> = gc.iter().map(|&i| r[i].clone()).collect();
                    let states = groups
                        .entry(key)
                        .or_insert_with(|| vec![Accumulator::new(); spec.aggs.len()]);
                    for (s, c) in states.iter_mut().zip(&ac) {
                        s.apply(c.map(|i| &r[i]), 1);
                    }
                }
                groups
                    .into_iter()
                    .map(|(mut k, states)| {
                        k.extend(
                            states.iter().zip(&spec.aggs).map(|(s, a)| s.finish(a.func)),
                        );
                        k
                    })
                    .collect()
            } else {
                rows
            };
            if let Some(cols) = &spec.projections {
                let pre = if !spec.aggs.is_empty() || !spec.group_by.is_empty() {
                    let mut fields: Vec<Field> = spec
                        .group_by
                        .iter()
                        .map(|g| joined_schema.field(joined_schema.index_of(g).unwrap()).clone())
                        .collect();
                    for a in &spec.aggs {
                        fields.push(Field::new(a.alias.clone(), DataType::Int));
                    }
                    Schema::new(fields)
                } else {
                    joined_schema
                };
                let idx: Vec<usize> =
                    cols.iter().map(|c| pre.index_of(c).unwrap()).collect();
                out = out
                    .into_iter()
                    .map(|r| idx.iter().map(|&i| r[i].clone()).collect())
                    .collect();
            }
            canonicalize(out)
        }

        fn assert_consistent(&self) {
            assert_eq!(self.circuit.snapshot(), self.rerun(), "view diverged from re-run");
        }
    }

    /// Merge one materialized row into `index`'s bucket for `key`.
    fn update_row(index: &mut JoinIndex, key: IndexKey, row: &[Value], w: i64, fp: &mut Footprint) {
        let (cols, positions) = (Src::of_row(row), Vec::from_iter(0..row.len()));
        let row = Gather { cols: &cols, positions: &positions, at: At { r: 0, s: NIL } };
        index.update(key, row, w, fp);
    }

    /// Fold one materialized row (the last stage's output layout) into
    /// `key`'s group at weight `w`, as a batch of one.
    fn fold_row(agg: &mut AggStage, key: IndexKey, row: &[Value], w: i64) {
        let g = agg.table.group(key);
        agg.table.add_rows(g, w);
        let rows = Arrivals { cols: Src::of_row(row), rows: vec![(At { r: 0, s: NIL }, w)] };
        for a in 0..agg.aggs.len() {
            agg.fold(a, &rows, &[g]);
        }
    }

    /// Apply a packet to a materialized multiset copy of the view.
    fn replay(view: &mut Vec<Row>, p: &DeltaPacket) {
        for r in &p.retracted {
            let i = view.iter().position(|x| x == r).expect("retracting a held row");
            view.remove(i);
        }
        view.extend(p.inserted.iter().cloned());
        view.sort();
    }

    #[test]
    fn order_by_and_limit_rejected() {
        let c = catalog();
        let spec = QuerySpec::new().table("t").order(&["t.k"]);
        assert!(ViewCircuit::compile(&spec, &c).is_err());
        let spec = QuerySpec::new().table("t").limit(5);
        assert!(ViewCircuit::compile(&spec, &c).is_err());
    }

    #[test]
    fn filter_projection_view_tracks_inserts_and_deletes() {
        let spec = QuerySpec::new()
            .table("t")
            .filter("t", col("t.v").ge(lit(10i64)))
            .project(&["t.v"]);
        let mut rig = Rig::new(&spec);
        let mut copy = rig.circuit.snapshot();
        assert!(copy.is_empty());
        for (k, v) in [(1, 5), (2, 10), (3, 20), (4, 10)] {
            rig.insert("t", vec![Value::Int(k), Value::Int(v)]);
        }
        let p = rig.poll();
        assert_eq!(p.inserted.len(), 3, "v=5 filtered out");
        assert!(p.retracted.is_empty());
        assert_eq!(p.epoch, 3);
        replay(&mut copy, &p);
        rig.assert_consistent();
        assert_eq!(copy, rig.circuit.snapshot());
        // Duplicates are tracked as multiplicity: both v=10 rows present.
        assert_eq!(
            rig.circuit.snapshot(),
            vec![
                vec![Value::Int(10)],
                vec![Value::Int(10)],
                vec![Value::Int(20)]
            ]
        );
        // Deleting one of them retracts exactly one copy.
        rig.delete_where("t", 2);
        let p = rig.poll();
        assert_eq!((p.inserted.len(), p.retracted.len()), (0, 1));
        replay(&mut copy, &p);
        rig.assert_consistent();
        assert_eq!(copy, rig.circuit.snapshot());
        // Deleting a filtered-out row changes nothing.
        rig.delete_where("t", 1);
        assert!(rig.poll().is_empty());
        rig.assert_consistent();
    }

    #[test]
    fn join_maintains_both_sides_incrementally() {
        let spec = QuerySpec::new()
            .join("t", "k", "u", "k")
            .project(&["t.v", "u.w"]);
        let mut rig = Rig::new(&spec);
        let mut copy = Vec::new();
        // Left rows arrive before any right match exists.
        rig.insert("t", vec![Value::Int(1), Value::Int(100)]);
        rig.insert("t", vec![Value::Int(2), Value::Int(200)]);
        assert!(rig.poll().is_empty(), "no matches yet");
        // A right row joins everything already indexed on the left.
        rig.insert("u", vec![Value::Int(1), Value::Int(-1)]);
        let p = rig.poll();
        assert_eq!(p.inserted, vec![vec![Value::Int(100), Value::Int(-1)]]);
        replay(&mut copy, &p);
        rig.assert_consistent();
        // Fan-out: a second left row with the same key doubles the match.
        rig.insert("t", vec![Value::Int(1), Value::Int(101)]);
        let p = rig.poll();
        assert_eq!(p.inserted.len(), 1);
        replay(&mut copy, &p);
        rig.assert_consistent();
        // Deleting the right row retracts every joined output at once.
        rig.delete_where("u", 1);
        let p = rig.poll();
        assert_eq!((p.inserted.len(), p.retracted.len()), (0, 2));
        replay(&mut copy, &p);
        rig.assert_consistent();
        assert!(rig.circuit.snapshot().is_empty());
        assert_eq!(copy, rig.circuit.snapshot());
    }

    #[test]
    fn grouped_aggregation_retracts_and_drops_empty_groups() {
        let spec = QuerySpec::new().table("t").aggregate(
            &["t.k"],
            vec![
                AggSpec::count_star("n"),
                AggSpec::on(AggFunc::Sum, "t.v", "s"),
                AggSpec::on(AggFunc::Min, "t.v", "lo"),
            ],
        );
        let mut rig = Rig::new(&spec);
        let mut copy = Vec::new();
        for (k, v) in [(1, 10), (1, 4), (2, 7)] {
            rig.insert("t", vec![Value::Int(k), Value::Int(v)]);
        }
        let p = rig.poll();
        replay(&mut copy, &p);
        rig.assert_consistent();
        assert_eq!(
            rig.circuit.snapshot(),
            vec![
                vec![Value::Int(1), Value::Int(2), Value::Float(14.0), Value::Int(4)],
                vec![Value::Int(2), Value::Int(1), Value::Float(7.0), Value::Int(7)],
            ]
        );
        // Retracting the group minimum falls back to the runner-up, and
        // the packet carries one coalesced retract/insert pair.
        rig.delete_where("t", 1);
        // (deletes both k=1 rows: group 1 disappears entirely)
        let p = rig.poll();
        assert_eq!((p.inserted.len(), p.retracted.len()), (0, 1));
        replay(&mut copy, &p);
        rig.assert_consistent();
        assert_eq!(rig.circuit.view_rows(), 1, "empty group dropped");
        assert_eq!(copy, rig.circuit.snapshot());
    }

    #[test]
    fn global_aggregate_exists_even_when_empty() {
        let spec = QuerySpec::new().table("t").aggregate(
            &[],
            vec![AggSpec::count_star("n"), AggSpec::on(AggFunc::Avg, "t.v", "a")],
        );
        let mut rig = Rig::new(&spec);
        assert_eq!(
            rig.circuit.snapshot(),
            vec![vec![Value::Int(0), Value::Null]],
            "COUNT(*)=0 row over empty input, like HashAggOp"
        );
        rig.assert_consistent();
        let mut copy = rig.circuit.snapshot();
        rig.insert("t", vec![Value::Int(1), Value::Int(6)]);
        rig.insert("t", vec![Value::Int(2), Value::Int(2)]);
        let p = rig.poll();
        assert_eq!((p.inserted.len(), p.retracted.len()), (1, 1), "old row swapped for new");
        replay(&mut copy, &p);
        rig.assert_consistent();
        assert_eq!(copy, rig.circuit.snapshot());
        assert_eq!(copy, vec![vec![Value::Int(2), Value::Float(4.0)]]);
        // Back to empty: the COUNT=0 row returns.
        rig.delete_where("t", 1);
        rig.delete_where("t", 2);
        let p = rig.poll();
        replay(&mut copy, &p);
        rig.assert_consistent();
        assert_eq!(copy, vec![vec![Value::Int(0), Value::Null]]);
    }

    #[test]
    fn three_way_join_with_agg_stays_consistent_under_churn() {
        // t ⋈ u on k plus a second edge u ⋈ t on w≡v to exercise
        // composite keys… simpler: grouped sum over a two-table join,
        // churned from both sides in an interleaved pattern.
        let spec = QuerySpec::new()
            .join("t", "k", "u", "k")
            .filter("u", col("u.w").gt(lit(0i64)))
            .aggregate(&["t.k"], vec![AggSpec::on(AggFunc::Sum, "u.w", "s")]);
        let mut rig = Rig::new(&spec);
        let mut copy = Vec::new();
        for step in 0..40i64 {
            let k = step % 5;
            match step % 7 {
                0..=2 => rig.insert("t", vec![Value::Int(k), Value::Int(step)]),
                3..=5 => rig.insert("u", vec![Value::Int(k), Value::Int(step - 20)]),
                _ => {
                    rig.delete_where(if step % 2 == 0 { "t" } else { "u" }, k);
                }
            }
            let p = rig.poll();
            replay(&mut copy, &p);
            rig.assert_consistent();
            assert_eq!(copy, rig.circuit.snapshot(), "packet replay tracks the view");
        }
    }

    #[test]
    fn initial_load_then_deltas_matches_cold_compile() {
        // Pre-populate, compile+load, then churn: the circuit must agree
        // with a from-scratch evaluation at every step.
        let mut catalog = catalog();
        for i in 0..10i64 {
            catalog
                .table_mut("t")
                .unwrap()
                .append(vec![Value::Int(i % 3), Value::Int(i)]);
        }
        let log = Arc::new(Changelog::new());
        catalog.attach_changelog(&log);
        let clock = CostClock::default_clock();
        let spec = QuerySpec::new()
            .table("t")
            .filter("t", col("t.v").lt(lit(8i64)))
            .aggregate(&["t.k"], vec![AggSpec::count_star("n")]);
        let mut circuit = ViewCircuit::compile(&spec, &catalog).unwrap();
        circuit.load_initial(&catalog, &clock).unwrap();
        assert!(clock.now() > 0.0, "initial load charges the clock");
        assert_eq!(
            circuit.snapshot(),
            vec![
                vec![Value::Int(0), Value::Int(3)],
                vec![Value::Int(1), Value::Int(3)],
                vec![Value::Int(2), Value::Int(2)],
            ]
        );
        catalog.table_mut("t").unwrap().append(vec![Value::Int(0), Value::Int(4)]);
        let (recs, _) = log.since_up_to(0, usize::MAX);
        let before = clock.now();
        let p = circuit.apply(&recs, &catalog, &clock).unwrap();
        assert!(clock.now() > before, "deltas charge the clock");
        assert_eq!((p.inserted.len(), p.retracted.len()), (1, 1));
        assert_eq!(
            circuit.snapshot()[0],
            vec![Value::Int(0), Value::Int(4)]
        );
    }

    #[test]
    fn unrelated_tables_are_skipped() {
        let spec = QuerySpec::new().table("t").project(&["t.k"]);
        let mut rig = Rig::new(&spec);
        rig.insert("u", vec![Value::Int(1), Value::Int(1)]);
        let p = rig.poll();
        assert!(p.is_empty());
        assert_eq!(p.epoch, 0, "epoch still advances past skipped records");
        assert_eq!(rig.circuit.cursor(), 1);
    }

    /// A stage whose right table carries an index on its join key reads it
    /// through that index: an Insert record advances what it has seen,
    /// and a record that breaks the table's append-only order — a Delete,
    /// or an Insert of another row than the next unseen one — is refused
    /// with nothing folded in.
    #[test]
    fn shared_sides_fold_appends_and_refuse_other_records() {
        let mut c = catalog();
        for k in 0..4 {
            c.table_mut("t").unwrap().append(vec![Value::Int(k), Value::Int(10 * k)]);
            c.table_mut("u").unwrap().append(vec![Value::Int(k), Value::Int(k)]);
        }
        c.create_index("ix_u_k", "u", &["k"]).unwrap();
        let log = Arc::new(Changelog::new());
        c.attach_changelog(&log);
        let spec = QuerySpec::new()
            .join("t", "k", "u", "k")
            .filter("u", col("u.w").ne(lit(2i64)))
            .project(&["t.v", "u.w"]);
        let clock = CostClock::default_clock();
        let mut circuit = ViewCircuit::compile(&spec, &c).unwrap();
        circuit.load_initial(&c, &clock).unwrap();
        assert_eq!(circuit.join_sides(), ["shared ix_u_k"]);
        assert_eq!(circuit.state_rows(), 4 + 3, "the left side and the view, no right side");
        assert_eq!(circuit.snapshot().len(), 3, "u.w = 2 is filtered");
        // Appended rows: a left row meets the right rows the circuit has
        // folded, whether they were loaded or appended before it.
        c.append_rows("u", vec![vec![Value::Int(1), Value::Int(5)]]).unwrap();
        c.append_rows("t", vec![vec![Value::Int(1), Value::Int(11)]]).unwrap();
        let (recs, _) = log.since_up_to(0, usize::MAX);
        let p = circuit.apply(&recs, &c, &clock).unwrap();
        let pairs = |xs: &[(i64, i64)]| -> Vec<Row> {
            xs.iter().map(|&(a, b)| vec![Value::Int(a), Value::Int(b)]).collect()
        };
        assert_eq!(p.inserted, pairs(&[(10, 5), (11, 1), (11, 5)]));
        let before = (circuit.snapshot(), clock.now().to_bits(), circuit.cursor());
        let u: Arc<str> = Arc::from("u");
        let record = |op, row: Row| ChangeRecord { epoch: 2, table: Arc::clone(&u), op, row };
        let wrong = [
            record(ChangeOp::Delete, vec![Value::Int(1), Value::Int(5)]),
            // The table has no row 5 yet.
            record(ChangeOp::Insert, vec![Value::Int(3), Value::Int(3)]),
        ];
        for rec in wrong {
            assert!(circuit.apply(&[rec], &c, &clock).is_err());
            assert_eq!((circuit.snapshot(), clock.now().to_bits(), circuit.cursor()), before);
        }
        // Row 5 exists, but holds other values than the record.
        c.append_rows("u", vec![vec![Value::Int(3), Value::Int(4)]]).unwrap();
        let rec = record(ChangeOp::Insert, vec![Value::Int(3), Value::Int(3)]);
        assert!(circuit.apply(&[rec], &c, &clock).is_err());
        assert_eq!((circuit.snapshot(), clock.now().to_bits(), circuit.cursor()), before);
        let (recs, _) = log.since_up_to(before.2, usize::MAX);
        let p = circuit.apply(&recs, &c, &clock).unwrap();
        assert_eq!(p.inserted, pairs(&[(30, 4)]));
    }

    /// The required-column rule on the q3 shape (customer ⋈ orders ⋈
    /// lineitem, filtered on all three, SUM(extendedprice) by orderkey):
    /// what each table's rows are read as, what each join index stores,
    /// and that a column no rule reads never enters the circuit.
    #[test]
    fn q3_shape_stores_only_the_columns_a_rule_reads() {
        let int = |n: &'static str| (n, DataType::Int);
        let mut c = Catalog::new();
        let customer = [int("custkey"), int("nationkey"), int("mktsegment"), int("acctbal")];
        let orders = [int("orderkey"), int("custkey"), int("orderdate"), int("totalprice")];
        let lineitem = [
            int("orderkey"),
            int("partkey"),
            int("suppkey"),
            int("quantity"),
            int("extendedprice"),
            int("discount"),
            int("shipdate"),
            int("returnflag"),
        ];
        c.add_table(Table::new("customer", Schema::from_pairs(&customer)));
        c.add_table(Table::new("orders", Schema::from_pairs(&orders)));
        c.add_table(Table::new("lineitem", Schema::from_pairs(&lineitem)));
        let ints = |xs: &[i64]| xs.iter().map(|&x| Value::Int(x)).collect::<Row>();
        c.table_mut("customer").unwrap().append(ints(&[7, 3, 1, 50]));
        c.table_mut("orders").unwrap().append(ints(&[100, 7, 10, 999]));
        // Two lineitems that differ only in columns nobody reads.
        c.table_mut("lineitem").unwrap().append(ints(&[100, 1, 1, 5, 250, 0, 900, 0]));
        c.table_mut("lineitem").unwrap().append(ints(&[100, 2, 3, 9, 250, 1, 901, 2]));
        let spec = QuerySpec::new()
            .join("customer", "custkey", "orders", "custkey")
            .join("orders", "orderkey", "lineitem", "orderkey")
            .filter("customer", col("customer.mktsegment").eq(lit(1i64)))
            .filter("orders", col("orders.orderdate").lt(lit(400i64)))
            .filter("lineitem", col("lineitem.shipdate").gt(lit(400i64)))
            .aggregate(
                &["orders.orderkey"],
                vec![AggSpec::on(AggFunc::Sum, "lineitem.extendedprice", "revenue")],
            );
        let clock = CostClock::default_clock();
        let mut circuit = ViewCircuit::compile(&spec, &c).unwrap();
        circuit.load_initial(&c, &clock).unwrap();
        assert_eq!(circuit.snapshot(), vec![vec![Value::Int(100), Value::Float(500.0)]]);

        // Read layouts: join key + filter input + what flows on; never
        // nationkey/acctbal, totalprice, partkey/suppkey/quantity/discount/
        // returnflag.
        let read: Vec<(&str, &[usize])> =
            circuit.inputs.iter().map(|t| (t.name.as_str(), t.cols.as_slice())).collect();
        assert_eq!(
            read,
            vec![("customer", &[0, 2][..]), ("orders", &[0, 1, 2][..]), ("lineitem", &[0, 4, 6][..])]
        );
        // Stored rows, per stage and side. A stage's own key lives in the
        // map key, so customer rows are stored empty, orders rows as
        // (orderkey), the customer ⋈ orders intermediate as (orderkey) —
        // the group column — and lineitem rows as (extendedprice).
        let arities = |ix: &JoinIndex| -> Vec<usize> {
            entries(ix).iter().map(|(row, _)| row.len()).collect()
        };
        assert_eq!(arities(&circuit.stages[0].left_index), vec![0]);
        assert_eq!(arities(owned(&circuit.stages[0].right)), vec![1]);
        assert_eq!(arities(&circuit.stages[1].left_index), vec![1]);
        // The two lineitems collapse into one entry of weight 2.
        let lineitems = entries(owned(&circuit.stages[1].right));
        assert_eq!(lineitems, vec![(vec![Value::Int(250)], 2)]);
        assert_eq!(circuit.state_rows(), 4 + 1, "four index entries and one group");
        // Every key and stored column is an `Int`, so all of it is typed:
        // four slots (weight and link), three stored values, four keys.
        for ix in circuit.stages.iter().flat_map(|s| [&s.left_index, owned(&s.right)]) {
            assert!(matches!(ix.keys, Keys::Int(_)), "typed keys");
            assert!(ix.slots.columns.iter().all(|c| matches!(c, Column::Int(_))), "typed values");
        }
        let agg = circuit.agg.as_ref().expect("an aggregate");
        assert!(matches!(agg.table.keys(), Keys::Int(_)), "typed group keys");
        let group = Keys::<u32>::INT_BYTES + agg.table.slot_bytes();
        assert_eq!(circuit.state_bytes(), 4 * 12 + 3 * 8 + 4 * KeyMap::INT_BYTES + group);
    }

    /// An owned right side's index.
    fn owned(right: &Right) -> &JoinIndex {
        match right {
            Right::Owned(index) => index,
            Right::Shared { index, .. } => panic!("the side shares {index}"),
        }
    }

    /// Every `(row, weight)` entry of an index, bucket by bucket.
    fn entries(ix: &JoinIndex) -> Vec<(Row, i64)> {
        let firsts = ix.keys.iter().map(|(_, (first, _), _)| first);
        firsts
            .flat_map(|first| ix.slots.chain(first))
            .map(|s| (ix.slots.row(s), ix.slots.weights[s as usize]))
            .collect()
    }

    /// The key `index` stores for `key`, if it holds one.
    fn stored_key(index: &JoinIndex, key: &IndexKey) -> Option<IndexKey> {
        match (&index.keys, key) {
            (Keys::Int(m), IndexKey::One(v)) => {
                int_key(v).filter(|k| m.contains_key(k)).map(|k| IndexKey::One(Value::Int(k)))
            }
            (Keys::Int(_), IndexKey::Many(_)) => None,
            (Keys::Values(m), key) => m.get_key_value(key).map(|(k, _)| k.clone()),
        }
    }

    /// The layout the slot arena replaced, kept as the reference it must
    /// agree with entry for entry.
    type ModelIndex = HashMap<Vec<Value>, Vec<(Row, i64)>>;

    fn model_update(index: &mut ModelIndex, key: Vec<Value>, row: Row, weight: i64) {
        match index.entry(key) {
            hash_map::Entry::Vacant(slot) => {
                slot.insert(vec![(row, weight)]);
            }
            hash_map::Entry::Occupied(mut slot) => {
                let bucket = slot.get_mut();
                match bucket.iter().position(|(r, _)| *r == row) {
                    Some(i) => {
                        bucket[i].1 += weight;
                        if bucket[i].1 == 0 {
                            bucket.swap_remove(i);
                        }
                    }
                    None => bucket.push((row, weight)),
                }
                if bucket.is_empty() {
                    slot.remove();
                }
            }
        }
    }

    /// Equal as stored: same variant and same bits, so `Int(2)` is not
    /// `Float(2.0)`, `-0.0` is not `0.0` and NaN payloads are told apart.
    fn same(a: &[Value], b: &[Value]) -> bool {
        a.len() == b.len()
            && a.iter().zip(b).all(|pair| match pair {
                (Value::Null, Value::Null) => true,
                (Value::Int(x), Value::Int(y)) => x == y,
                (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
                (Value::Str(x), Value::Str(y)) => x == y,
                _ => false,
            })
    }

    /// Seeded inserts, duplicates and retractions (partial and to zero)
    /// over one- and three-column `Int` keys and stored rows of arity 0
    /// and 3 (declared `Int`, `Float`, `Int`). For the first steps every
    /// value is of its column's declared variant — the `Float` column's
    /// include `-0.0` beside `0.0` and two NaN payloads — and everything
    /// stays typed. Then values arrive that compare equal across
    /// representations — `Float(2.0)` against `Int(2)`, `0.0` against
    /// `Int(0)` — and others that must keep their exact form (NULL,
    /// strings, an `Int` beyond ±2^53): they switch the columns and the
    /// one-column key map mid-stream, with freed slots waiting to be
    /// reused. After every step each key and its
    /// bucket, in order, equal the model's as stored, and the running
    /// footprint equals a recount; after retracting everything the index is
    /// an empty one, arena included.
    #[test]
    fn join_index_matches_the_vec_bucket_model() {
        use rand::Rng;
        let ints = [Value::Int(2), Value::Int(-7), Value::Int(0), Value::Int(5)];
        let floats = [
            Value::Float(2.0),
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Float(f64::from_bits(0x7ff8_0000_0000_0001)),
            Value::Float(f64::from_bits(0xfff8_0000_0000_0002)),
        ];
        let pool = [
            Value::Int(2),
            Value::Int(-7),
            Value::Null,
            Value::Float(2.0),
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Float(f64::from_bits(0x7ff8_0000_0000_0001)),
            Value::Float(f64::from_bits(0xfff8_0000_0000_0002)),
            Value::Str("a".into()),
            Value::Str("long enough".into()),
            Value::Int((1 << 53) + 1),
        ];
        const TYPED_STEPS: usize = 200;
        let draw = |rng: &mut rand::rngs::StdRng, from: &[Value], n: usize, domain: usize| -> Row {
            (0..n).map(|_| from[rng.gen_range(0..domain.min(from.len()))].clone()).collect()
        };
        let mut reused_after_switch = 0;
        for (key_width, arity) in [(1usize, 0usize), (1, 3), (3, 0), (3, 3)] {
            // Narrow key domains so buckets hold several entries.
            let key_domain = if key_width == 1 { pool.len() } else { 4 };
            for seed in 0..4u64 {
                let mut rng = rqp_common::rng::seeded(seed * 16 + (key_width * 4 + arity) as u64);
                let key_types = vec![DataType::Int; key_width];
                let stored_types =
                    [DataType::Int, DataType::Float, DataType::Int][..arity].to_vec();
                let typed = |t: &DataType| -> &[Value] {
                    if *t == DataType::Int {
                        &ints
                    } else {
                        &floats
                    }
                };
                let mut index = JoinIndex::new(&key_types, &stored_types);
                let mut model = ModelIndex::new();
                let mut fp = Footprint::default();
                let positions: Vec<usize> = (0..key_width).collect();
                let mut apply = |index: &mut JoinIndex,
                                 model: &mut ModelIndex,
                                 key: Vec<Value>,
                                 row: Row,
                                 w: i64| {
                    let switched =
                        index.slots.columns.iter().any(|c| matches!(c, Column::Values(_)));
                    let entries = |model: &ModelIndex| model.values().map(Vec::len).sum::<usize>();
                    let (held, len) = (entries(model), index.slots.weights.len());
                    update_row(index, IndexKey::of(&key, &positions), &row, w, &mut fp);
                    model_update(model, key, row, w);
                    if switched && entries(model) > held && index.slots.weights.len() == len {
                        reused_after_switch += 1;
                    }
                    assert_eq!(index.keys.len(), model.len(), "key count");
                    for (key, bucket) in model.iter() {
                        let ik = IndexKey::of(key, &positions);
                        let stored = stored_key(index, &ik).expect("key present");
                        assert!(same(stored.values(), key), "stored key {stored:?} vs {key:?}");
                        let got: Vec<(Row, i64)> = index
                            .bucket(&ik)
                            .map(|s| (index.slots.row(s), index.slots.weights[s as usize]))
                            .collect();
                        assert_eq!(got.len(), bucket.len(), "bucket length under {key:?}");
                        for ((row, w), (mrow, mw)) in got.iter().zip(bucket) {
                            assert!(same(row, mrow) && w == mw, "{got:?} vs {bucket:?}");
                        }
                    }
                    assert_eq!(fp, index.recount(), "running footprint vs recount");
                };
                for step in 0..600 {
                    if step == TYPED_STEPS {
                        assert_eq!(matches!(index.keys, Keys::Int(_)), key_width == 1);
                        for (c, t) in index.slots.columns.iter().zip(&stored_types) {
                            let declared = match c {
                                Column::Int(_) => DataType::Int,
                                Column::Float(_) => DataType::Float,
                                Column::Values(_) => DataType::Str,
                            };
                            assert_eq!(declared, *t, "still typed");
                        }
                    }
                    // Sorted: a seed picks the same entry whatever the map's order.
                    let mut live: Vec<(&Vec<Value>, &(Row, i64))> =
                        model.iter().flat_map(|(k, b)| b.iter().map(move |e| (k, e))).collect();
                    live.sort();
                    match rng.gen_range(0..10) {
                        // Retract a live entry to zero, or by one.
                        0..=2 if !live.is_empty() => {
                            let (k, (r, w)) = live[rng.gen_range(0..live.len())];
                            let by = if rng.gen_range(0..2) == 0 { -w } else { -w.signum() };
                            let (k, r) = (k.clone(), r.clone());
                            apply(&mut index, &mut model, k, r, by);
                        }
                        // A duplicate of a live entry.
                        3 if !live.is_empty() => {
                            let (k, (r, _)) = live[rng.gen_range(0..live.len())];
                            let (k, r) = (k.clone(), r.clone());
                            apply(&mut index, &mut model, k, r, 1);
                        }
                        _ if step < TYPED_STEPS => {
                            let key = draw(&mut rng, &ints, key_width, key_domain);
                            let row: Row = stored_types
                                .iter()
                                .map(|t| typed(t)[rng.gen_range(0..typed(t).len())].clone())
                                .collect();
                            apply(&mut index, &mut model, key, row, rng.gen_range(1..3));
                        }
                        _ => {
                            let key = draw(&mut rng, &pool, key_width, key_domain);
                            let row = draw(&mut rng, &pool, arity, pool.len());
                            apply(&mut index, &mut model, key, row, rng.gen_range(1..3));
                        }
                    }
                }
                // Other variants reached every column and the key map.
                assert!(matches!(index.keys, Keys::Values(_)), "the key map switched");
                assert!(index.slots.columns.iter().all(|c| matches!(c, Column::Values(_))));
                let live: Vec<(Vec<Value>, Row, i64)> = model
                    .iter()
                    .flat_map(|(k, b)| b.iter().map(move |(r, w)| (k.clone(), r.clone(), *w)))
                    .collect();
                for (k, r, w) in live {
                    apply(&mut index, &mut model, k, r, -w);
                }
                assert_eq!(index.keys.len(), 0, "no key lingers");
                let arena = &index.slots;
                assert!(arena.weights.is_empty() && arena.next.is_empty());
                let emptied = |c: &Column| matches!(c, Column::Values(v) if v.is_empty());
                assert!(arena.columns.iter().all(emptied));
                assert_eq!(arena.free, NIL, "an empty arena has no free list");
                let empty = JoinIndex::new(&key_types, &stored_types);
                assert_eq!(fp, empty.recount(), "an empty index's footprint");
            }
        }
        assert!(reused_after_switch > 0, "freed slots are reused after a column switches");
    }

    /// Probes match what `Value`'s `Eq` matches, on either side of a key
    /// map's switch: a `Float(2.0)` probe finds the key `Int(2)`; `-0.0`,
    /// `2.5` and a NaN find nothing; a non-`Int` key switches the map and
    /// keeps its variant. A switching column keeps the values already
    /// stored, and its bytes are recounted at the `Value` size.
    #[test]
    fn typed_index_probes_like_values_across_a_switch() {
        let mut fp = Footprint::default();
        let mut index = JoinIndex::new(&[DataType::Int], &[DataType::Int]);
        let one = |v: Value| IndexKey::One(v);
        for k in 0..4 {
            update_row(&mut index, one(Value::Int(k)), &[Value::Int(10 * k)], 1, &mut fp);
        }
        let found = |index: &JoinIndex, v: Value| -> Vec<Row> {
            index.probe(&one(v), 1, &[], &[]).into_iter().map(|(r, _)| r).collect()
        };
        for typed in [true, false] {
            assert_eq!(matches!(index.keys, Keys::Int(_)), typed);
            assert_eq!(found(&index, Value::Float(2.0)), vec![vec![Value::Int(20)]]);
            assert_eq!(found(&index, Value::Int(2)), vec![vec![Value::Int(20)]]);
            let misses =
                [Value::Float(-0.0), Value::Float(2.5), Value::Float(f64::NAN), Value::Null];
            for miss in misses {
                assert!(found(&index, miss).is_empty());
            }
            assert_eq!(found(&index, Value::Float(0.0)), vec![vec![Value::Int(0)]]);
            // A `Float(1.0)` update merges into the key `Int(1)`.
            update_row(&mut index, one(Value::Float(1.0)), &[Value::Int(10)], 1, &mut fp);
            assert_eq!(index.probe(&one(Value::Int(1)), 1, &[], &[])[0].1, 2);
            update_row(&mut index, one(Value::Int(1)), &[Value::Int(10)], -1, &mut fp);
            // A key no typed map holds switches it.
            let x = one(Value::Str("x".into()));
            update_row(&mut index, x, &[Value::Float(0.5)], 1, &mut fp);
            assert_eq!(fp, index.recount());
        }
        // The column switched at the `Float(0.5)` and kept the `Int`s.
        assert!(matches!(index.slots.columns[0], Column::Values(_)));
        assert_eq!(found(&index, Value::Int(3)), vec![vec![Value::Int(30)]]);
        assert_eq!(found(&index, Value::Str("x".into())).len(), 1);
    }

    /// The compact groups against the layout they replaced — a `BTreeMap`
    /// from a `Vec<Value>` key to the row count and a `Vec` of
    /// accumulators — over seeded folds and retractions with zero-, one-
    /// and two-column keys. The one-column `Int` key starts typed; later
    /// keys include `Float(2.0)` (the group `Int(2)`), `-0.0`, `0.5` and
    /// NULL, which switch it mid-stream. After every step the groups
    /// iterate in the model's key order, each key stored as the model
    /// stores it, with the model's outputs; a group every row has left is
    /// gone (the global group never goes), freed slots are reused, and the
    /// running footprint equals a recount.
    #[test]
    fn agg_groups_match_the_btreemap_model() {
        use rand::Rng;
        type Model = BTreeMap<Vec<Value>, (i64, Vec<Accumulator>)>;
        let aggs = vec![
            (AggFunc::Count, None),
            (AggFunc::Sum, Some(2)),
            (AggFunc::Min, Some(2)),
            (AggFunc::Avg, Some(2)),
        ];
        let fresh = || aggs.iter().map(|(f, _)| Accumulator::for_func(*f)).collect::<Vec<_>>();
        let finish = |accs: &[Accumulator]| -> Vec<Value> {
            aggs.iter().zip(accs).map(|((f, _), a)| a.finish(*f)).collect()
        };
        let later = [Value::Float(2.0), Value::Float(-0.0), Value::Float(0.5), Value::Null];
        const TYPED_STEPS: usize = 150;
        for (group_cols, distinct) in [(vec![], 1), (vec![0], 4 + 3), (vec![0, 1], 2 * (4 + 3))] {
            let mut rng = rqp_common::rng::seeded(distinct as u64);
            let key_types = [DataType::Int, DataType::Str];
            let key_types = &key_types[..group_cols.len()];
            let mut agg = AggStage::new(group_cols.clone(), key_types, aggs.clone());
            let global = group_cols.is_empty();
            assert_eq!(matches!(agg.table.keys(), Keys::Int(_)), group_cols == [0]);
            let mut model = Model::new();
            if global {
                model.insert(Vec::new(), (0, fresh()));
            }
            // What is folded in, so a retraction takes back a real row.
            let mut held: Vec<Row> = Vec::new();
            let step = |agg: &mut AggStage, model: &mut Model, row: Row, w| {
                let key = IndexKey::of(&row, &group_cols);
                fold_row(agg, key.clone(), &row, w);
                agg.table.drop_if_empty(&key);
                let mkey = key.values().to_vec();
                let (rows, accs) = model.entry(mkey.clone()).or_insert_with(|| (0, fresh()));
                *rows += w;
                for (a, (_, col)) in accs.iter_mut().zip(&aggs) {
                    a.apply(col.map(|i| &row[i]), w);
                }
                if *rows <= 0 && !global {
                    model.remove(&mkey);
                }
                assert_eq!(agg.table.len(), model.len(), "group count");
                let groups = agg.table.groups().into_iter();
                for ((key, g), (mkey, (rows, accs))) in groups.zip(model.iter()) {
                    assert!(same(key.values(), mkey), "stored key {key:?} vs {mkey:?}");
                    let want = mkey.iter().cloned().chain(finish(accs)).collect();
                    let got = agg.table.output_of(&key, g);
                    assert_eq!(got, (*rows > 0 || global).then_some(want));
                }
                let fp = agg.table.footprint();
                assert_eq!(fp, agg.table.recount(), "running footprint vs recount");
            };
            let draw = |rng: &mut rand::rngs::StdRng, typed: bool| -> Row {
                let first = match rng.gen_range(0..4 + later.len()) {
                    k if k < 4 || typed => Value::Int(k as i64 % 4),
                    k => later[k - 4].clone(),
                };
                let tag = if rng.gen_range(0..2) == 0 { "a" } else { "b" };
                // Tenths are not dyadic: a retracted sum need not return to
                // zero, so a reused slot must start from fresh accumulators.
                let x = Value::Float(rng.gen_range(-5..5) as f64 * 0.1);
                vec![first, Value::Str(tag.into()), x]
            };
            for n in 0..400 {
                if !held.is_empty() && rng.gen_range(0..3) == 0 {
                    let row = held.swap_remove(rng.gen_range(0..held.len()));
                    step(&mut agg, &mut model, row, -1);
                    continue;
                }
                let row = draw(&mut rng, n < TYPED_STEPS);
                held.push(row.clone());
                step(&mut agg, &mut model, row, 1);
            }
            assert!(matches!(agg.table.keys(), Keys::Values(_)), "group keys switched");
            let slots = agg.table.row_counts().len();
            assert!(slots <= distinct, "a dropped group's slot is reused");
            for row in std::mem::take(&mut held) {
                step(&mut agg, &mut model, row, -1);
            }
            assert_eq!(agg.table.len(), usize::from(global), "only the global group stays");
            let empty = AggStage::new(group_cols.clone(), key_types, aggs.clone());
            let fp = agg.table.footprint();
            assert_eq!(fp, empty.table.footprint(), "an emptied stage counts as a new one");
            if global {
                let global = IndexKey::of(&[], &[]);
                let row = agg.table.output(&global).expect("the global group's row");
                assert_eq!(row[0], Value::Int(0), "COUNT=0 over no rows");
                assert!(row[2].is_null() && row[3].is_null(), "no MIN or AVG over no rows");
            }
            // Refilled, every reused slot starts as a new group would.
            for _ in 0..40 {
                let row = draw(&mut rng, false);
                step(&mut agg, &mut model, row, 1);
            }
        }
    }

    /// The row load the column-batch load replaced, kept as the reference
    /// it must match bit for bit: the filter evaluated on a `Row` per table
    /// row, a `Row` per survivor, each stage's joined rows collected as
    /// `Row`s before the next stage runs, and every charge made as it
    /// happens.
    fn row_load(circuit: &mut ViewCircuit, catalog: &Catalog, clock: &SharedClock) {
        for i in 0..circuit.inputs.len() {
            let table = catalog.table(&circuit.inputs[i].name).unwrap();
            clock.charge(&rule::emit(table.nrows() as f64));
            let input = &circuit.inputs[i];
            let read =
                |r: usize| -> Row { input.cols.iter().map(|&c| table.column(c).get(r)).collect() };
            let mut survivors = SelMask::all(table.nrows());
            if let Some(filter) = &input.filter {
                survivors.retain(|r| filter.eval_bool(&read(r)));
            }
            let cols: Vec<Src> = input.cols.iter().map(|&c| Src::table(table.column(c))).collect();
            let rows: Vec<Row> = survivors.iter_set().map(read).collect();
            circuit.reserve(i, &cols, &survivors);
            for row in rows {
                row_ingest(circuit, i, row, clock);
            }
        }
    }

    /// One survivor of input `i` through the row load's propagation.
    fn row_ingest(c: &mut ViewCircuit, i: usize, row: Row, clock: &SharedClock) {
        let logical = |rows: &[(Row, i64)]| rows.iter().map(|(_, w)| w.unsigned_abs()).sum::<u64>();
        let kept = narrow(&row, &c.inputs[i].keep);
        let mut cur = match i.checked_sub(1) {
            Some(s) => {
                let stage = &mut c.stages[s];
                let key = IndexKey::of(&row, &stage.right_key);
                clock.charge(&rule::hash_build(1.0));
                let joined = stage.left_index.probe(&key, 1, &[], &kept);
                let Right::Owned(right) = &mut stage.right else { panic!("an owned side") };
                update_row(right, key, &kept, 1, &mut c.footprint);
                clock.charge(&rule::emit(logical(&joined) as f64));
                joined
            }
            None => vec![(kept, 1)],
        };
        for stage in &mut c.stages[i..] {
            if cur.is_empty() {
                return;
            }
            let mut next = Vec::new();
            for (lrow, lw) in cur {
                let key = IndexKey::of(&lrow, &stage.left_key);
                let stored = narrow(&lrow, &stage.left_keep);
                clock.charge(&rule::hash_build(lw.unsigned_abs() as f64));
                next.extend(owned(&stage.right).probe(&key, lw, &stored, &[]));
                update_row(&mut stage.left_index, key, &stored, lw, &mut c.footprint);
            }
            clock.charge(&rule::emit(logical(&next) as f64));
            cur = next;
        }
        for (row, w) in cur {
            clock.charge(&rule::hash_build(w.unsigned_abs() as f64));
            if let Some(agg) = &mut c.agg {
                fold_row(agg, IndexKey::of(&row, &agg.group_cols), &row, w);
                continue;
            }
            let row = project(&c.projection, row);
            let net = c.view.entry(row.clone()).or_insert(0);
            *net += w;
            if *net == w {
                c.footprint.add(entry_bytes(&row));
            }
        }
    }

    /// Everything a load leaves that anyone could tell apart: the view, the
    /// footprint (running and recounted), every index's entries bucket by
    /// bucket with their stored keys, the groups, every arena's capacity and
    /// the cost clock's bits.
    fn load_state(c: &ViewCircuit, clock: &SharedClock) -> String {
        let mut out = format!(
            "{:?} rows {} bytes {} recount {:?} clock {:#x} {:?}\n",
            c.snapshot(),
            c.state_rows(),
            c.state_bytes(),
            c.recount(),
            clock.now().to_bits(),
            clock.breakdown(),
        );
        for ix in c.stages.iter().flat_map(|s| [&s.left_index, owned(&s.right)]) {
            let mut buckets: Vec<String> = ix
                .keys
                .iter()
                .map(|(k, (first, _), bytes)| {
                    let slots: Vec<(u32, Row, i64)> = ix
                        .slots
                        .chain(first)
                        .map(|s| (s, ix.slots.row(s), ix.slots.weights[s as usize]))
                        .collect();
                    format!("{k:?} {bytes} {slots:?}")
                })
                .collect();
            buckets.sort();
            let typed = ix.slots.columns.iter().map(|c| matches!(c, Column::Values(_)));
            let capacity = (ix.slots.weights.capacity(), ix.slots.next.capacity());
            let keys = match &ix.keys {
                Keys::Int(m) => ("typed", m.capacity()),
                Keys::Values(m) => ("values", m.capacity()),
            };
            out += &format!("{buckets:?} {:?} {capacity:?} {keys:?}\n", typed.collect::<Vec<_>>());
        }
        if let Some(agg) = &c.agg {
            let table = &agg.table;
            let mut groups: Vec<_> = table.keys().iter().collect();
            groups.sort();
            let accs: Vec<String> = table.accumulators().iter().map(|a| format!("{a:?}")).collect();
            let capacity = table.capacity();
            out += &format!("{groups:?} {:?} {accs:?} {capacity:?}\n", table.row_counts());
        }
        out
    }

    /// Compile `spec` and load `catalog` twice — through the column-batch
    /// load and through the row load — and require the same state.
    fn assert_loads_alike(spec: &QuerySpec, catalog: &Catalog) {
        let (batch_clock, row_clock) = (CostClock::default_clock(), CostClock::default_clock());
        let mut batch = ViewCircuit::compile(spec, catalog).unwrap();
        batch.load_initial(catalog, &batch_clock).unwrap();
        let mut rows = ViewCircuit::compile(spec, catalog).unwrap();
        row_load(&mut rows, catalog, &row_clock);
        assert_eq!(batch.footprint(), batch.recount(), "footprint vs recount");
        assert_eq!(load_state(&batch, &batch_clock), load_state(&rows, &row_clock), "{spec:?}");
    }

    /// The standing specs the benchmark and a11 subscribe, ORDER BY dropped.
    fn tpch_specs(db: &rqp_workload::TpchDb) -> Vec<QuerySpec> {
        let menu = [db.q1(30), db.q3(1, 400), db.q6(100, 0.05, 30), db.q1(90)];
        let shapes = [db.q1(60), db.q3(2, 1250), db.q5(3, 22, 700), db.q5(0, 24, 0)];
        let mut specs: Vec<QuerySpec> = menu.into_iter().chain(shapes).collect();
        for s in &mut specs {
            s.order_by.clear();
            s.limit = None;
        }
        specs
    }

    #[test]
    fn column_load_matches_the_row_load_on_tpch_shapes() {
        use rqp_workload::tpch::TpchParams;
        for (rows, seed) in [(4_000, 111), (20_000, 7)] {
            let params =
                TpchParams { lineitem_rows: rows, with_indexes: false, ..Default::default() };
            let db = rqp_workload::TpchDb::build(params, seed);
            for spec in tpch_specs(&db) {
                assert_loads_alike(&spec, &db.catalog);
            }
        }
    }

    /// Seeded tables `t(k, a, f, s)` and `u(k, b, g, s)` (`Int`, `Int`,
    /// `Float`, `Str`): each `Int` column drawn at one of the four stored
    /// widths, the eight-byte one with keys beyond ±2^53 and the `i64`
    /// extremes; floats with NaN payloads, ±0.0, ±inf and integral values
    /// that equal an `Int` key; short strings. Empty when `rows` is 0.
    fn random_catalog(seed: u64, rows: usize) -> Catalog {
        use rand::Rng;
        let mut rng = rqp_common::rng::seeded(seed);
        let floats = [
            0.0,
            -0.0,
            1.0,
            2.0,
            -3.5,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::from_bits(0x7ff8_0000_0000_0001),
            f64::from_bits(0xfff8_0000_0000_0002),
        ];
        let wide = [(1i64 << 53) + 1, -(1 << 53) - 3, i64::MAX, i64::MIN, 1 << 53];
        let mut c = Catalog::new();
        for (name, ints) in [("t", ["k", "a"]), ("u", ["k", "b"])] {
            let (f, s) = if name == "t" { ("f", "s") } else { ("g", "s") };
            let schema = Schema::from_pairs(&[
                (ints[0], DataType::Int),
                (ints[1], DataType::Int),
                (f, DataType::Float),
                (s, DataType::Str),
            ]);
            let mut table = Table::new(name, schema);
            // Per `Int` column a stored width; keys stay in a small domain
            // so joins and groups meet.
            let widths: [u32; 2] = [rng.gen_range(0..4), rng.gen_range(0..4)];
            for _ in 0..rows {
                let int = |rng: &mut rand::rngs::StdRng, width: u32| -> i64 {
                    let small = rng.gen_range(-4..6);
                    match (width, rng.gen_range(0..4)) {
                        (_, 0..=1) | (0, _) => small,
                        (1, _) => small * 1_000,
                        (2, _) => small * 100_000_000,
                        _ => wide[rng.gen_range(0..wide.len())],
                    }
                };
                let row = vec![
                    Value::Int(int(&mut rng, widths[0])),
                    Value::Int(int(&mut rng, widths[1])),
                    Value::Float(floats[rng.gen_range(0..floats.len())]),
                    Value::Str(["a", "b", "long enough", ""][rng.gen_range(0..4usize)].into()),
                ];
                table.append(row);
            }
            c.add_table(table);
        }
        c
    }

    /// Specs over [`random_catalog`]: filters on every column type
    /// (NULL-free, NaN-bearing and string ones among them), joins on an
    /// `Int`, a `Float` and a `Str` key, groups by each type, MIN/MAX
    /// beside SUM/AVG/COUNT, and plain projections.
    fn random_specs() -> Vec<QuerySpec> {
        let sums = |col: &str| {
            vec![
                AggSpec::count_star("n"),
                AggSpec::on(AggFunc::Sum, col, "s"),
                AggSpec::on(AggFunc::Avg, col, "a"),
                AggSpec::on(AggFunc::Min, col, "lo"),
                AggSpec::on(AggFunc::Max, col, "hi"),
            ]
        };
        vec![
            QuerySpec::new()
                .table("t")
                .filter("t", col("t.a").gt(lit(0i64)))
                .aggregate(&["t.k"], sums("t.f")),
            QuerySpec::new()
                .table("t")
                .filter("t", col("t.f").ge(lit(0.0)))
                .aggregate(&["t.f"], sums("t.a")),
            QuerySpec::new()
                .table("t")
                .filter("t", col("t.s").eq(lit("b")))
                .aggregate(&["t.s"], sums("t.k")),
            QuerySpec::new()
                .table("t")
                .filter("t", col("t.s").lt(lit("b")).or(col("t.f").lt(lit(1.0))))
                .project(&["t.k", "t.f"]),
            QuerySpec::new()
                .table("t")
                .filter("t", col("t.k").gt(lit(i64::MAX)))
                .aggregate(&["t.k"], sums("t.a")),
            QuerySpec::new().table("t").aggregate(&[], sums("t.a")),
            QuerySpec::new()
                .join("t", "k", "u", "k")
                .filter("u", col("u.b").ne(lit(0i64)))
                .aggregate(&["t.a"], sums("u.g")),
            QuerySpec::new().join("t", "f", "u", "g").aggregate(&["u.k"], sums("t.a")),
            // `t.f` reaches the groups from the left slots, where equal rows
            // of `t` have collapsed into one entry of weight above one.
            QuerySpec::new().join("t", "k", "u", "k").aggregate(&["u.b"], sums("t.f")),
            QuerySpec::new()
                .join("t", "s", "u", "s")
                .filter("t", col("t.f").lt(lit(f64::INFINITY)))
                .project(&["t.a", "u.b", "u.g"]),
            QuerySpec::new()
                .join("t", "k", "u", "b")
                .filter("t", col("t.s").ne(lit("a")))
                .aggregate(&["u.s", "t.a"], sums("u.g")),
        ]
    }

    #[test]
    fn column_load_matches_the_row_load_on_random_tables() {
        for seed in 0..12u64 {
            // Empty tables, a few rows, and enough to span several batches.
            let rows = [0, 1, 37, 2_600][seed as usize % 4];
            let catalog = random_catalog(seed, rows);
            for spec in random_specs() {
                assert_loads_alike(&spec, &catalog);
            }
        }
    }

    /// A copy of `catalog`'s tables, empty, with a changelog attached.
    fn empty_like(catalog: &Catalog, names: &[String]) -> (Catalog, Arc<Changelog>) {
        let mut empty = Catalog::new();
        for name in names {
            empty
                .add_table(Table::new(name.clone(), catalog.table(name).unwrap().schema().clone()));
        }
        let log = Arc::new(Changelog::new());
        empty.attach_changelog(&log);
        (empty, log)
    }

    /// Loading a populated table leaves what loading it empty and then
    /// inserting the same rows, table by table in the circuit's order and
    /// row by row, leaves; retracting every row afterwards leaves what an
    /// empty load does (nothing, but a global aggregate's group).
    #[test]
    fn a_load_equals_its_replay() {
        use rqp_workload::tpch::TpchParams;
        let params = TpchParams { lineitem_rows: 3_000, with_indexes: false, ..Default::default() };
        let db = rqp_workload::TpchDb::build(params, 5);
        let random = random_catalog(99, 700);
        let tpch = tpch_specs(&db).into_iter().map(|spec| (spec, &db.catalog));
        let cases = tpch.chain(random_specs().into_iter().map(|spec| (spec, &random)));
        for (spec, catalog) in cases {
            let clock = CostClock::default_clock();
            let mut loaded = ViewCircuit::compile(&spec, catalog).unwrap();
            loaded.load_initial(catalog, &clock).unwrap();
            let names: Vec<String> = loaded.inputs.iter().map(|t| t.name.clone()).collect();
            let (mut empty, log) = empty_like(catalog, &names);
            let mut replayed = ViewCircuit::compile(&spec, &empty).unwrap();
            replayed.load_initial(&empty, &clock).unwrap();
            let fresh = (replayed.state_rows(), replayed.state_bytes());
            for name in &names {
                for row in catalog.table(name).unwrap().iter_rows() {
                    empty.table_mut(name).unwrap().append(row);
                }
            }
            let (inserts, _) = log.since_up_to(0, usize::MAX);
            replayed.apply(&inserts, &empty, &clock).unwrap();
            assert_eq!(replayed.snapshot(), loaded.snapshot(), "{spec:?}");
            assert_eq!(replayed.state_rows(), loaded.state_rows(), "{spec:?}");
            assert_eq!(replayed.state_bytes(), loaded.state_bytes(), "{spec:?}");
            for name in &names {
                while empty.table(name).unwrap().nrows() > 0 {
                    empty.table_mut(name).unwrap().delete_row(0);
                }
            }
            let (retracts, _) = log.since_up_to(inserts.len() as u64, usize::MAX);
            replayed.apply(&retracts, &empty, &clock).unwrap();
            assert_eq!((replayed.state_rows(), replayed.state_bytes()), fresh, "{spec:?}");
            if spec.group_by.is_empty() && !spec.aggs.is_empty() {
                assert_eq!(fresh.0, 1, "a global aggregate keeps its group");
            } else {
                assert_eq!(fresh.0, 0, "nothing stays behind");
            }
        }
    }
}
