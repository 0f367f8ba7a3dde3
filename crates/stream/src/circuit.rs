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
//! ## How a join index stores it
//!
//! Each side of a join stage is one `JoinIndex`: a map from key to the
//! `(first, last)` slots of its bucket, and one slot arena holding every
//! bucket's `(narrowed row, weight)` entries — `arity` values per slot in
//! one `Vec<Value>`, a weight and a next-slot link per slot beside it.
//! A one-column key (every TPC-H join) is stored inline in the map, so a
//! stored row costs no heap allocation of its own. Rows that differ only in
//! columns nobody reads share an entry; an entry whose weight returns to
//! zero is removed the way `Vec::swap_remove` removes it (the bucket's last
//! entry takes its place), its slot goes on a free list the arena reuses
//! before it grows, and a bucket's key disappears with its last entry. So
//! a bucket iterates in the order a `Vec` bucket did, and everything
//! computed from it — packets, snapshots, cost-clock charges — is too.
//!
//! Cost-clock charges count *logical* rows (an entry of weight 3 charges
//! three times), so what the clock reads does not depend on how many rows
//! happened to collapse into one entry.

use crate::acc::RetractableAcc;
use rqp_common::expr::BoundExpr;
use rqp_common::{DataType, Field, Result, Row, RqpError, Schema, SharedClock, Value};
use rqp_exec::AggFunc;
use rqp_opt::QuerySpec;
use rqp_storage::changelog::{ChangeOp, ChangeRecord};
use rqp_storage::Catalog;
use std::collections::{btree_map, hash_map, BTreeMap, BTreeSet, HashMap};
use std::mem::size_of;

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

/// The values of a join stage's key columns. Every TPC-H join is on one
/// column, held inline; a wider key holds one boxed slice.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum IndexKey {
    One(Value),
    Many(Box<[Value]>),
}

impl IndexKey {
    /// The key of `row` under a stage's key `positions`.
    fn of(row: &[Value], positions: &[usize]) -> IndexKey {
        match positions {
            [p] => IndexKey::One(row[*p].clone()),
            _ => IndexKey::Many(positions.iter().map(|&i| row[i].clone()).collect()),
        }
    }

    fn values(&self) -> &[Value] {
        match self {
            IndexKey::One(v) => std::slice::from_ref(v),
            IndexKey::Many(vs) => vs,
        }
    }

    /// Bytes of the key's map entry: the entry itself plus a wide key's
    /// boxed values and the key's string contents.
    fn bytes(&self) -> usize {
        let boxed = match self {
            IndexKey::One(_) => 0,
            IndexKey::Many(vs) => vs.len() * size_of::<Value>(),
        };
        size_of::<(IndexKey, (u32, u32))>() + boxed + string_bytes(self.values())
    }
}

/// End of a slot chain.
const NIL: u32 = u32::MAX;

/// The slot arena behind a [`JoinIndex`]: slot `s` holds a stored row at
/// `values[s * arity..][..arity]`, its net weight and the next slot of its
/// chain — its bucket's, or the free list's.
#[derive(Debug)]
struct Slots {
    /// Values per stored row (0 for a side that stores only weights).
    arity: usize,
    values: Vec<Value>,
    weights: Vec<i64>,
    next: Vec<u32>,
    /// Head of the free list, threaded through `next`.
    free: u32,
}

impl Slots {
    fn row(&self, s: u32) -> &[Value] {
        let start = s as usize * self.arity;
        &self.values[start..start + self.arity]
    }

    /// The slots of the chain starting at `first`, in order.
    fn chain(&self, first: u32) -> impl Iterator<Item = u32> + '_ {
        let live = |s: u32| (s != NIL).then_some(s);
        std::iter::successors(live(first), move |&s| live(self.next[s as usize]))
    }

    /// Store `(row, weight)` as the end of a chain: in a freed slot when
    /// there is one, at the end of the arena otherwise.
    fn alloc(&mut self, row: Row, weight: i64) -> u32 {
        debug_assert_eq!(row.len(), self.arity, "stored-row arity");
        if self.free != NIL {
            let s = self.free;
            self.free = self.next[s as usize];
            self.next[s as usize] = NIL;
            self.weights[s as usize] = weight;
            let start = s as usize * self.arity;
            for (slot, v) in self.values[start..start + self.arity].iter_mut().zip(row) {
                *slot = v;
            }
            return s;
        }
        let s = u32::try_from(self.weights.len())
            .ok()
            .filter(|&s| s != NIL)
            .expect("a join index holds fewer than u32::MAX entries");
        self.values.extend(row);
        self.weights.push(weight);
        self.next.push(NIL);
        s
    }

    /// Move slot `from`'s row and weight into slot `to`; `from` is left
    /// holding `to`'s old values, for [`release`](Self::release).
    fn move_into(&mut self, from: u32, to: u32) {
        let a = self.arity;
        for i in 0..a {
            self.values.swap(to as usize * a + i, from as usize * a + i);
        }
        self.weights[to as usize] = self.weights[from as usize];
    }

    /// Put slot `s` on the free list, dropping its values' string contents.
    fn release(&mut self, s: u32) {
        let start = s as usize * self.arity;
        self.values[start..start + self.arity].fill(Value::Null);
        self.next[s as usize] = self.free;
        self.free = s;
    }

    fn clear(&mut self) {
        self.values.clear();
        self.weights.clear();
        self.next.clear();
        self.free = NIL;
    }
}

/// Bytes of one stored entry: its values (string contents included), its
/// weight and its chain link.
fn slot_bytes(row: &[Value]) -> usize {
    row_bytes(row) + size_of::<i64>() + size_of::<u32>()
}

/// One side of a join stage: key → bucket of narrowed rows with net
/// weights, every bucket's entries in one [`Slots`] arena (see the module
/// docs). Buckets are short chains, scanned linearly on update.
#[derive(Debug)]
struct JoinIndex {
    /// Key → the first and last slot of its bucket.
    keys: HashMap<IndexKey, (u32, u32)>,
    slots: Slots,
}

impl JoinIndex {
    /// An empty index storing rows of `arity` values.
    fn new(arity: usize) -> JoinIndex {
        let slots =
            Slots { arity, values: Vec::new(), weights: Vec::new(), next: Vec::new(), free: NIL };
        JoinIndex { keys: HashMap::new(), slots }
    }

    /// The `(row, weight)` entries under `key`, in the order a `Vec` bucket
    /// kept them: appended at the tail, a removed entry replaced by the
    /// last one.
    fn bucket(&self, key: &IndexKey) -> impl Iterator<Item = (&[Value], i64)> + '_ {
        let first = self.keys.get(key).map_or(NIL, |&(first, _)| first);
        self.slots.chain(first).map(|s| (self.slots.row(s), self.slots.weights[s as usize]))
    }

    /// Join a delta of weight `w` against the bucket for `key`: one output
    /// per stored row, built by `combine`, at the product weight.
    fn probe(&self, key: &IndexKey, w: i64, combine: impl Fn(&[Value]) -> Row) -> Vec<(Row, i64)> {
        self.bucket(key).map(|(row, bw)| (combine(row), bw * w)).collect()
    }

    /// Merge `(row, weight)` into the bucket for `key`, keeping `fp` in
    /// step. An entry whose weight returns to zero is removed (the bucket's
    /// last entry takes its place), a bucket's key goes with its last
    /// entry, and the arena is emptied with the last key, so fully
    /// retracted rows leave nothing behind.
    fn update(&mut self, key: IndexKey, row: Row, weight: i64, fp: &mut Footprint) {
        let slots = &mut self.slots;
        let mut entry = match self.keys.entry(key) {
            hash_map::Entry::Vacant(entry) => {
                fp.add(entry.key().bytes() + slot_bytes(&row));
                let s = slots.alloc(row, weight);
                entry.insert((s, s));
                return;
            }
            hash_map::Entry::Occupied(entry) => entry,
        };
        let (first, last) = *entry.get();
        let Some(s) = slots.chain(first).find(|&s| slots.row(s) == row.as_slice()) else {
            fp.add(slot_bytes(&row));
            let s = slots.alloc(row, weight);
            slots.next[last as usize] = s;
            entry.get_mut().1 = s;
            return;
        };
        slots.weights[s as usize] += weight;
        if slots.weights[s as usize] != 0 {
            return;
        }
        fp.remove(slot_bytes(slots.row(s)));
        if first == last {
            slots.release(s);
            fp.bytes -= entry.key().bytes();
            entry.remove();
            if self.keys.is_empty() {
                self.slots.clear();
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
        entry.get_mut().1 = before_last;
    }

    /// The footprint recounted by walking every bucket.
    #[cfg(test)]
    fn recount(&self) -> Footprint {
        let mut fp = Footprint::default();
        for (key, &(first, _)) in &self.keys {
            fp.bytes += key.bytes();
            for s in self.slots.chain(first) {
                fp.add(slot_bytes(self.slots.row(s)));
            }
        }
        fp
    }
}

/// One left-deep join stage: the accumulated intermediate (left) against
/// the next base table (right), with an index per side. The stage's output
/// layout is the stored left row followed by the stored right row.
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
    right_index: JoinIndex,
}

/// The aggregation stage: per-group retractable accumulators.
#[derive(Debug)]
struct AggStage {
    /// Group column positions in the last stage's output layout.
    group_cols: Vec<usize>,
    /// `(function, input column position)` per aggregate.
    aggs: Vec<(AggFunc, Option<usize>)>,
    /// Group key → (weighted row count, per-aggregate state). Ordered by
    /// key so snapshots come out in `HashAggOp`'s sorted-group order.
    groups: BTreeMap<Vec<Value>, (i64, Vec<RetractableAcc>)>,
}

/// One empty accumulator per aggregate, each holding only what its
/// function reads.
fn fresh_accs(aggs: &[(AggFunc, Option<usize>)]) -> Vec<RetractableAcc> {
    aggs.iter().map(|(f, _)| RetractableAcc::for_func(*f)).collect()
}

/// Bytes of one group slot over `n_aggs` aggregates: the map entry, the
/// key's values and the fixed part of each accumulator (multiset values are
/// counted apart).
fn group_bytes(key: &[Value], n_aggs: usize) -> usize {
    size_of::<(Vec<Value>, (i64, Vec<RetractableAcc>))>()
        + row_bytes(key)
        + n_aggs * size_of::<RetractableAcc>()
}

impl AggStage {
    /// The group's current output row (group key ++ aggregate values),
    /// pre-projection; `None` when the group has no rows (a global
    /// aggregate — empty `group_cols` — always has an output row, matching
    /// `HashAggOp` over empty input).
    fn output(&self, key: &[Value]) -> Option<Row> {
        let empty = (0, fresh_accs(&self.aggs));
        let (rows, accs) = match self.groups.get(key) {
            Some(g) => g,
            None if self.group_cols.is_empty() => &empty,
            None => return None,
        };
        if *rows <= 0 && !self.group_cols.is_empty() {
            return None;
        }
        let mut out = key.to_vec();
        out.extend(self.aggs.iter().zip(accs).map(|((f, _), a)| a.finish(*f)));
        Some(out)
    }
}

/// Per-`apply` scratch: rows emitted so far plus, for aggregates, each
/// touched group's output *before* the batch (computed at first touch, so
/// one coalesced retract/insert pair is emitted per group per packet).
#[derive(Default)]
struct PacketAcc {
    inserted: Vec<Row>,
    retracted: Vec<Row>,
    touched: BTreeMap<Vec<Value>, Option<Row>>,
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
    /// What the structures above hold right now.
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

/// String contents held by `values`.
fn string_bytes(values: &[Value]) -> usize {
    values.iter().map(|v| if let Value::Str(s) = v { s.len() } else { 0 }).sum()
}

/// Payload bytes of a row: its values plus their string contents.
fn row_bytes(row: &[Value]) -> usize {
    std::mem::size_of_val(row) + string_bytes(row)
}

/// Bytes of one non-aggregate view row with its weight.
fn entry_bytes(row: &[Value]) -> usize {
    size_of::<(Row, i64)>() + row_bytes(row)
}

/// Running count of what the circuit keeps resident, adjusted at every
/// insertion into and removal from a maintained structure (so reading it
/// is O(1) — a poll renegotiates its grant without walking the state).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Footprint {
    /// Resident entries (see [`ViewCircuit::state_rows`]).
    rows: usize,
    /// Their payload bytes (see [`ViewCircuit::state_bytes`]).
    bytes: usize,
}

impl Footprint {
    /// One entry of `bytes` became resident.
    fn add(&mut self, bytes: usize) {
        self.rows += 1;
        self.bytes += bytes;
    }

    /// One entry of `bytes` was dropped.
    fn remove(&mut self, bytes: usize) {
        self.rows -= 1;
        self.bytes -= bytes;
    }
}

/// Charge one hash-table touch per logical row of an entry of weight `w` —
/// as `|w|` unit charges, not one charge of `|w|`: the clock adds floats,
/// and its reading must not depend on how rows were grouped into entries.
fn charge_builds(clock: &SharedClock, w: i64) {
    for _ in 0..w.unsigned_abs() {
        clock.charge_hash_build(1.0);
    }
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
        // Aggregation binding mirrors HashAggOp::new (including output
        // field types), then projection resolves over the aggregate's
        // output schema — the same stacking order as the batch planner.
        let (agg_cols, pre_proj_schema) = if !spec.aggs.is_empty() || !spec.group_by.is_empty() {
            let mut group_cols = Vec::with_capacity(spec.group_by.len());
            let mut fields: Vec<Field> = Vec::new();
            for g in &spec.group_by {
                let i = resolve(&joined_schema, g)?;
                group_cols.push(i);
                fields.push(joined_schema.field(i).clone());
            }
            let mut aggs = Vec::with_capacity(spec.aggs.len());
            for a in &spec.aggs {
                let col = a
                    .col
                    .as_deref()
                    .map(|c| resolve(&joined_schema, c))
                    .transpose()?;
                let dtype = match a.func {
                    AggFunc::Count => DataType::Int,
                    AggFunc::Sum | AggFunc::Avg => DataType::Float,
                    AggFunc::Min | AggFunc::Max => col
                        .map(|i| joined_schema.field(i).dtype)
                        .unwrap_or(DataType::Float),
                };
                fields.push(Field::new(a.alias.clone(), dtype));
                aggs.push((a.func, col));
            }
            (Some((group_cols, aggs)), Schema::new(fields))
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
            for c in pred.columns() {
                cols.insert(resolve(schema, &c)?);
            }
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
            let left_keep =
                positions_in(&layout, after[s].iter().copied().filter(|&g| g < offsets[s + 1]));
            stages.push(JoinStage {
                left_key: positions_in(&layout, left_keys[s].iter().copied()),
                left_index: JoinIndex::new(left_keep.len()),
                right_index: JoinIndex::new(inputs[s + 1].keep.len()),
                left_keep,
                right_key,
            });
        }
        // The terminal stage reads the last stage's output layout — exactly
        // the terminal's own required columns, ascending.
        let final_layout: Vec<usize> = terminal.into_iter().collect();
        let mut footprint = Footprint::default();
        let agg = agg_cols.map(|(group_cols, aggs)| {
            let mut agg = AggStage {
                group_cols: positions_in(&final_layout, group_cols),
                aggs: aggs
                    .into_iter()
                    .map(|(f, c)| (f, c.map(|c| positions_in(&final_layout, [c])[0])))
                    .collect(),
                groups: BTreeMap::new(),
            };
            if agg.group_cols.is_empty() {
                // A global aggregate always has exactly one (possibly
                // empty) group — materialize it so the initial snapshot
                // over empty input already carries the COUNT=0 row.
                let accs = fresh_accs(&agg.aggs);
                agg.groups.insert(Vec::new(), (0, accs));
                footprint.add(group_bytes(&[], agg.aggs.len()));
            }
            agg
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
            footprint,
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
    /// stored with [`set_cursor`](Self::set_cursor)). Only the columns the
    /// circuit reads are materialized.
    pub fn load_initial(&mut self, catalog: &Catalog, clock: &SharedClock) -> Result<()> {
        for i in 0..self.inputs.len() {
            let table = catalog.table(&self.inputs[i].name)?;
            let cols = self.inputs[i].cols.clone();
            for row in table.iter_rows_of(&cols) {
                self.ingest(i, row, 1, clock, None);
            }
        }
        #[cfg(test)]
        assert_eq!(self.footprint, self.recount(), "running footprint drifted from a recount");
        Ok(())
    }

    /// Fold a batch of changelog records into the view, returning the
    /// delta packet subscribers apply to their copies. Records for tables
    /// the spec doesn't reference are skipped (the changelog is shared
    /// catalog-wide). Every touched row charges the shared cost clock.
    pub fn apply(&mut self, recs: &[ChangeRecord], clock: &SharedClock) -> DeltaPacket {
        let mut acc = PacketAcc::default();
        let mut epoch = self.cursor.saturating_sub(1);
        for rec in recs {
            epoch = epoch.max(rec.epoch);
            self.cursor = self.cursor.max(rec.epoch + 1);
            let Some(i) = self.inputs.iter().position(|t| *t.name == *rec.table) else {
                continue;
            };
            let w = match rec.op {
                ChangeOp::Insert => 1,
                ChangeOp::Delete => -1,
            };
            debug_assert_eq!(rec.row.len(), self.inputs[i].arity, "changelog row arity");
            let row = narrow(&rec.row, &self.inputs[i].cols);
            self.ingest(i, row, w, clock, Some(&mut acc));
        }
        // Aggregate finalization: one retract/insert pair per changed
        // group, comparing pre-batch and post-batch output rows.
        if let Some(agg) = &mut self.agg {
            // Drop fully-retracted groups (a from-scratch run would not
            // see them); the global group stays, COUNT=0 and all.
            if !agg.group_cols.is_empty() {
                let n_aggs = agg.aggs.len();
                let footprint = &mut self.footprint;
                agg.groups.retain(|key, (rows, _)| {
                    // A group without rows has had every value retracted:
                    // its multisets are already empty and uncounted.
                    let live = *rows > 0;
                    if !live {
                        footprint.remove(group_bytes(key, n_aggs));
                    }
                    live
                });
            }
        }
        if let Some(agg) = &self.agg {
            for (key, old) in std::mem::take(&mut acc.touched) {
                let new = agg.output(&key).map(|r| self.project(r));
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
        #[cfg(test)]
        assert_eq!(self.footprint, self.recount(), "running footprint drifted from a recount");
        DeltaPacket {
            epoch,
            inserted: canonicalize(acc.inserted),
            retracted: canonicalize(acc.retracted),
        }
    }

    /// The maintained view's current contents, in canonical order.
    pub fn snapshot(&self) -> Vec<Row> {
        match &self.agg {
            Some(agg) => {
                // Groups iterate in key order — the same sorted-group
                // order HashAggOp emits.
                let rows: Vec<Row> = agg
                    .groups
                    .keys()
                    .filter_map(|k| agg.output(k))
                    .map(|r| self.project(r))
                    .collect();
                canonicalize(rows)
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
            Some(agg) => agg.groups.len().max(usize::from(agg.group_cols.is_empty())),
            None => self.view.values().map(|&w| w.max(0) as usize).sum(),
        }
    }

    /// Entries the circuit keeps resident: join-index rows on both sides of
    /// every stage, aggregate groups, MIN/MAX multiset values, and the
    /// distinct rows of a non-aggregate view. Counted as the structures
    /// change, not estimated — this is what the memory broker funds.
    pub fn state_rows(&self) -> usize {
        self.footprint.rows
    }

    /// Payload bytes behind [`state_rows`](Self::state_rows): every key,
    /// stored row, weight, accumulator and multiset value at its in-memory
    /// size, string contents included — a join-index entry as its arena
    /// slot (values, weight, chain link), a join key as its map entry.
    /// Allocator overhead, spare capacity and free arena slots are not
    /// included (they are the allocator's and the arena's, not the state's),
    /// so two circuits in the same state report the same number and a fully
    /// retracted circuit reports what an empty one does.
    pub fn state_bytes(&self) -> usize {
        self.footprint.bytes
    }

    /// The footprint recounted by walking every structure — what the
    /// running count must equal at all times.
    #[cfg(test)]
    fn recount(&self) -> Footprint {
        let mut fp = Footprint::default();
        for index in self.stages.iter().flat_map(|s| [&s.left_index, &s.right_index]) {
            let ix = index.recount();
            fp.rows += ix.rows;
            fp.bytes += ix.bytes;
        }
        if let Some(agg) = &self.agg {
            for (key, (_, accs)) in &agg.groups {
                fp.rows += 1 + accs.iter().map(RetractableAcc::multiset_len).sum::<usize>();
                fp.bytes += group_bytes(key, agg.aggs.len())
                    + accs.iter().map(RetractableAcc::multiset_bytes).sum::<usize>();
            }
        }
        fp.rows += self.view.len();
        fp.bytes += self.view.keys().map(|row| entry_bytes(row)).sum::<usize>();
        fp
    }

    fn project(&self, row: Row) -> Row {
        match &self.projection {
            Some(idx) => narrow(&row, idx),
            None => row,
        }
    }

    /// Push one weighted base-table row (in its table's read layout)
    /// through filter → joins → the terminal stage. `out` is `None` during
    /// the initial load (state is built, nothing is emitted).
    fn ingest(
        &mut self,
        input_idx: usize,
        row: Row,
        weight: i64,
        clock: &SharedClock,
        mut out: Option<&mut PacketAcc>,
    ) {
        clock.charge_cpu_tuples(1.0);
        let input = &self.inputs[input_idx];
        debug_assert_eq!(row.len(), input.cols.len(), "read-layout arity");
        if let Some(f) = &input.filter {
            if !f.eval_bool(&row) {
                return;
            }
        }
        // Propagate through the join chain. A delta on the first table
        // enters stage 0 on the left; a delta on table i>0 enters stage
        // i-1 on the right (joining everything already accumulated), then
        // flows left through the remaining stages.
        let kept = narrow(&row, &input.keep);
        let mut cur: Vec<(Row, i64)> = if input_idx > 0 {
            let stage = &mut self.stages[input_idx - 1];
            let key = IndexKey::of(&row, &stage.right_key);
            clock.charge_hash_build(1.0);
            let joined = stage
                .left_index
                .probe(&key, weight, |lrow| lrow.iter().chain(&kept).cloned().collect());
            stage.right_index.update(key, kept, weight, &mut self.footprint);
            clock.charge_cpu_tuples(logical_rows(&joined));
            joined
        } else {
            vec![(kept, weight)]
        };
        for stage in &mut self.stages[input_idx..] {
            if cur.is_empty() {
                return;
            }
            let mut next = Vec::new();
            for (lrow, lw) in cur {
                let key = IndexKey::of(&lrow, &stage.left_key);
                let stored = narrow(&lrow, &stage.left_keep);
                charge_builds(clock, lw);
                next.extend(
                    stage
                        .right_index
                        .probe(&key, lw, |rrow| stored.iter().chain(rrow).cloned().collect()),
                );
                stage.left_index.update(key, stored, lw, &mut self.footprint);
            }
            clock.charge_cpu_tuples(logical_rows(&next));
            cur = next;
        }
        // Terminal stage: fold into the aggregate groups or the multiset
        // view, emitting into the packet when one is being built.
        if let Some(agg) = &mut self.agg {
            for (row, w) in cur {
                let key = narrow(&row, &agg.group_cols);
                if let Some(acc) = out.as_deref_mut() {
                    if !acc.touched.contains_key(&key) {
                        let old = agg.output(&key).map(|r| match &self.projection {
                            Some(idx) => narrow(&r, idx),
                            None => r,
                        });
                        acc.touched.insert(key.clone(), old);
                    }
                }
                charge_builds(clock, w);
                let (rows, accs) = match agg.groups.entry(key) {
                    btree_map::Entry::Occupied(slot) => slot.into_mut(),
                    btree_map::Entry::Vacant(slot) => {
                        self.footprint.add(group_bytes(slot.key(), agg.aggs.len()));
                        slot.insert((0, fresh_accs(&agg.aggs)))
                    }
                };
                *rows += w;
                for (a, (_, col)) in accs.iter_mut().zip(&agg.aggs) {
                    let v = col.map(|i| &row[i]);
                    let held = a.multiset_len();
                    a.apply(v, w);
                    // The multiset gained or lost at most this one value.
                    if let Some(v) = v {
                        if a.multiset_len() > held {
                            self.footprint.add(RetractableAcc::multiset_entry_bytes(v));
                        } else if a.multiset_len() < held {
                            self.footprint.remove(RetractableAcc::multiset_entry_bytes(v));
                        }
                    }
                }
            }
        } else {
            for (row, w) in cur {
                let row = self.project(row);
                charge_builds(clock, w);
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
                if let Some(acc) = out.as_deref_mut() {
                    let list = if w > 0 { &mut acc.inserted } else { &mut acc.retracted };
                    for _ in 0..w.unsigned_abs() {
                        list.push(row.clone());
                    }
                }
            }
        }
    }
}

/// Logical (weight-expanded) row count of a delta batch, as a clock charge.
fn logical_rows(rows: &[(Row, i64)]) -> f64 {
    rows.iter().map(|(_, w)| w.unsigned_abs()).sum::<u64>() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rqp_common::expr::{col, lit};
    use rqp_common::{CostClock, DataType};
    use rqp_exec::AggSpec;
    use rqp_storage::{Changelog, Table};
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
            self.circuit.apply(&recs, &self.clock)
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
                let mut groups: BTreeMap<Vec<Value>, Vec<RetractableAcc>> = BTreeMap::new();
                if gc.is_empty() {
                    groups.insert(Vec::new(), vec![RetractableAcc::new(); spec.aggs.len()]);
                }
                for r in &rows {
                    let key: Vec<Value> = gc.iter().map(|&i| r[i].clone()).collect();
                    let states = groups
                        .entry(key)
                        .or_insert_with(|| vec![RetractableAcc::new(); spec.aggs.len()]);
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
        let p = circuit.apply(&recs, &clock);
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
        assert_eq!(arities(&circuit.stages[0].right_index), vec![1]);
        assert_eq!(arities(&circuit.stages[1].left_index), vec![1]);
        // The two lineitems collapse into one entry of weight 2.
        let lineitems = entries(&circuit.stages[1].right_index);
        assert_eq!(lineitems, vec![(&[Value::Int(250)][..], 2)]);
        assert_eq!(circuit.state_rows(), 4 + 1, "four index entries and one group");
    }

    /// Every `(row, weight)` entry of an index, bucket by bucket.
    fn entries(ix: &JoinIndex) -> Vec<(&[Value], i64)> {
        ix.keys.keys().flat_map(|k| ix.bucket(k)).collect()
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
    /// over one- and three-column keys and stored rows of arity 0 and 3,
    /// drawn from values that compare equal across representations: after
    /// every step each key and its bucket, in order, equal the model's as
    /// stored, and the running footprint equals a recount; after retracting
    /// everything the index is an empty one, arena included.
    #[test]
    fn join_index_matches_the_vec_bucket_model() {
        use rand::Rng;
        let pool = [
            Value::Null,
            Value::Int(2),
            Value::Float(2.0),
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Float(f64::from_bits(0x7ff8_0000_0000_0001)),
            Value::Float(f64::from_bits(0xfff8_0000_0000_0002)),
            Value::Str("a".into()),
            Value::Str("long enough".into()),
            Value::Int(-7),
        ];
        let draw = |rng: &mut rand::rngs::StdRng, n: usize, domain: usize| -> Vec<Value> {
            (0..n).map(|_| pool[rng.gen_range(0..domain)].clone()).collect()
        };
        for (key_width, arity) in [(1usize, 0usize), (1, 3), (3, 0), (3, 3)] {
            // Narrow key domains so buckets hold several entries.
            let key_domain = if key_width == 1 { pool.len() } else { 4 };
            for seed in 0..4u64 {
                let mut rng = rqp_common::rng::seeded(seed * 16 + (key_width * 4 + arity) as u64);
                let mut index = JoinIndex::new(arity);
                let mut model = ModelIndex::new();
                let mut fp = Footprint::default();
                let positions: Vec<usize> = (0..key_width).collect();
                let mut apply = |index: &mut JoinIndex,
                                 model: &mut ModelIndex,
                                 key: Vec<Value>,
                                 row: Row,
                                 w: i64| {
                    index.update(IndexKey::of(&key, &positions), row.clone(), w, &mut fp);
                    model_update(model, key, row, w);
                    assert_eq!(index.keys.len(), model.len(), "key count");
                    for (key, bucket) in model.iter() {
                        let ik = IndexKey::of(key, &positions);
                        let (stored, _) = index.keys.get_key_value(&ik).expect("key present");
                        assert!(same(stored.values(), key), "stored key {stored:?} vs {key:?}");
                        let got: Vec<(&[Value], i64)> = index.bucket(&ik).collect();
                        assert_eq!(got.len(), bucket.len(), "bucket length under {key:?}");
                        for ((row, w), (mrow, mw)) in got.iter().zip(bucket) {
                            assert!(same(row, mrow) && w == mw, "{got:?} vs {bucket:?}");
                        }
                    }
                    assert_eq!(fp, index.recount(), "running footprint vs recount");
                };
                for _ in 0..600 {
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
                        _ => {
                            let key = draw(&mut rng, key_width, key_domain);
                            let row = draw(&mut rng, arity, pool.len());
                            apply(&mut index, &mut model, key, row, rng.gen_range(1..3));
                        }
                    }
                }
                let live: Vec<(Vec<Value>, Row, i64)> = model
                    .iter()
                    .flat_map(|(k, b)| b.iter().map(move |(r, w)| (k.clone(), r.clone(), *w)))
                    .collect();
                for (k, r, w) in live {
                    apply(&mut index, &mut model, k, r, -w);
                }
                assert!(index.keys.is_empty(), "no key lingers");
                let arena = &index.slots;
                assert!(
                    arena.values.is_empty() && arena.weights.is_empty() && arena.next.is_empty()
                );
                assert_eq!(arena.free, NIL, "an empty arena has no free list");
                assert_eq!(fp, JoinIndex::new(arity).recount(), "an empty index's footprint");
            }
        }
    }
}
