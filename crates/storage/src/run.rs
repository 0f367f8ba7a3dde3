//! The packed sorted run behind every secondary index.
//!
//! One layout serves [`BTreeIndex`](crate::BTreeIndex) and
//! [`MultiIndex`](crate::MultiIndex):
//!
//! * the **base run** — the distinct key tuples ascending under
//!   [`Value::total_cmp`] in one typed [`ColumnData`] per indexed column,
//!   one `u32` offset per key, and the row ids as `u32`s grouped by key in
//!   insertion order. It is immutable and sits behind an `Arc`;
//! * the **append partition** (the partitioned-B-tree sense of adaptive
//!   merging) — a small tail of `(key, rid)` entries kept sorted by key, then
//!   insertion order. Lookups merge it in key order, base rids before tail
//!   rids within a key; once it outgrows [`TAIL_FRACTION`] of the base it is
//!   merged into a fresh base.
//!
//! Cloning an index (what `Arc::make_mut` does when a running query still
//! holds the old handle) therefore copies the tail and shares the base.
//! Lookups borrow: a [`RowIds`] is a cursor over slices of the run, never a
//! fresh `Vec`.

use crate::column::{each_width, ColumnData, IntSlice};
use crate::table::Table;
use crate::RowId;
use rqp_common::{Result, RqpError, Value};
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::sync::Arc;

/// The tail is merged once it holds more than `1/TAIL_FRACTION` of the base
/// run's entries…
const TAIL_FRACTION: usize = 16;
/// …and more than this many entries, so a small index does not rebuild its
/// base on every handful of inserts.
const TAIL_MIN: usize = 64;

/// How cell `i` of a key column orders against a probe value — exactly
/// `col.get(i).total_cmp(v)`, without building the `Value`.
fn cmp_cell(col: &ColumnData, i: usize, v: &Value) -> Ordering {
    match (col, v) {
        (_, Value::Null) => Ordering::Greater,
        (ColumnData::Int(k), Value::Int(x)) => k.get(i).cmp(x),
        (ColumnData::Int(k), Value::Float(x)) => (k.get(i) as f64).total_cmp(x),
        (ColumnData::Float(k), Value::Int(x)) => k[i].total_cmp(&(*x as f64)),
        (ColumnData::Float(k), Value::Float(x)) => k[i].total_cmp(x),
        (ColumnData::Str(k), Value::Str(x)) => k[i].as_str().cmp(x.as_str()),
        (ColumnData::Int(_) | ColumnData::Float(_), Value::Str(_)) => Ordering::Less,
        (ColumnData::Str(_), Value::Int(_) | Value::Float(_)) => Ordering::Greater,
    }
}

/// How key tuple `i` orders against the probe `prefix ++ next`, comparing
/// only as many leading columns as the probe has: a key that extends the
/// probe compares `Equal`.
fn cmp_probe(keys: &[ColumnData], i: usize, prefix: &[Value], next: Option<&Value>) -> Ordering {
    for (col, v) in keys.iter().zip(prefix.iter().chain(next)) {
        let ord = cmp_cell(col, i, v);
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

/// Lexicographic order of key tuple `a[i]` against `b[j]`; both sides have
/// the same column types.
fn cmp_rows<A, B>(a: &[A], i: usize, b: &[B], j: usize) -> Ordering
where
    A: Borrow<ColumnData>,
    B: Borrow<ColumnData>,
{
    for (ca, cb) in a.iter().zip(b) {
        let ord = match (ca.borrow(), cb.borrow()) {
            (ColumnData::Int(x), ColumnData::Int(y)) => x.get(i).cmp(&y.get(j)),
            (ColumnData::Float(x), ColumnData::Float(y)) => x[i].total_cmp(&y[j]),
            (ColumnData::Str(x), ColumnData::Str(y)) => x[i].cmp(&y[j]),
            _ => unreachable!("key columns of one index share their types"),
        };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

/// First position in `[from, end)` whose key is not `Less` than the probe
/// (`cmp(i)` orders key `i` against it). One binary search.
fn lower_bound(from: usize, end: usize, cmp: impl Fn(usize) -> Ordering) -> usize {
    let (mut lo, mut hi) = (from, end);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if cmp(mid) == Ordering::Less {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// First position in `[from, end)` whose key is `Greater` than the probe,
/// galloping up from `from`: a point lookup ends one or two compares past
/// its lower bound instead of paying a second full binary search.
fn upper_bound(from: usize, end: usize, cmp: impl Fn(usize) -> Ordering) -> usize {
    let mut lo = from;
    let mut step = 1;
    while lo + step <= end && cmp(lo + step - 1) != Ordering::Greater {
        lo += step;
        step *= 2;
    }
    let mut hi = (lo + step - 1).min(end);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if cmp(mid) == Ordering::Greater {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

fn empty_like<C: Borrow<ColumnData>>(cols: &[C]) -> Vec<ColumnData> {
    cols.iter().map(|c| ColumnData::empty(c.borrow().data_type())).collect()
}

fn push_key<C: Borrow<ColumnData>>(dst: &mut [ColumnData], src: &[C], i: usize) {
    for (d, s) in dst.iter_mut().zip(src) {
        d.push(s.borrow().get(i));
    }
}

/// Row ids and entry counts are `u32` inside an index.
fn to_u32(n: usize) -> Result<u32> {
    u32::try_from(n)
        .map_err(|_| RqpError::Invalid(format!("{n} exceeds the index limit of {} rows", u32::MAX)))
}

/// The immutable base: distinct keys, one offset per key, grouped row ids.
#[derive(Debug)]
struct Run {
    /// One typed column per indexed column; row `k` is the `k`-th distinct
    /// key tuple, strictly ascending.
    keys: Vec<ColumnData>,
    /// `rids[offsets[k]..offsets[k + 1]]` are key `k`'s rows;
    /// `offsets.len() == nkeys + 1`.
    offsets: Vec<u32>,
    rids: Vec<u32>,
}

impl Run {
    fn nkeys(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Close a run under construction: final offset, exact-size buffers.
    fn seal(mut keys: Vec<ColumnData>, mut offsets: Vec<u32>, rids: Vec<u32>) -> Run {
        offsets.push(rids.len() as u32);
        keys.iter_mut().for_each(ColumnData::shrink_to_fit);
        offsets.shrink_to_fit();
        Run { keys, offsets, rids }
    }

    /// Sort a row-id permutation by the indexed columns (stable, so rids
    /// stay ascending within a key) and cut it into key groups.
    fn build(cols: &[&ColumnData], nrows: u32) -> Run {
        let mut rids: Vec<u32> = (0..nrows).collect();
        match cols {
            // The common single-integer key, without the per-compare column
            // and width dispatch: 21 ms against 80 ms for the seven TPC-H
            // indexes.
            [ColumnData::Int(v)] => {
                each_width!(IntSlice, v.as_slice(), xs => rids.sort_by_key(|&r| xs[r as usize]))
            }
            _ => rids.sort_by(|&a, &b| cmp_rows(cols, a as usize, cols, b as usize)),
        }
        let mut keys = empty_like(cols);
        let mut offsets = Vec::new();
        for (pos, &r) in rids.iter().enumerate() {
            let new_key = pos == 0
                || cmp_rows(cols, rids[pos - 1] as usize, cols, r as usize) != Ordering::Equal;
            if new_key {
                push_key(&mut keys, cols, r as usize);
                offsets.push(pos as u32);
            }
        }
        Run::seal(keys, offsets, rids)
    }

    /// This run with `tail` merged in: one pass over both in key order, base
    /// rids before tail rids within a key.
    fn merged(&self, tail: &Tail) -> Run {
        let (nb, nt) = (self.nkeys(), tail.rids.len());
        let mut keys = empty_like(&self.keys);
        let mut offsets = Vec::with_capacity(nb + 1);
        let mut rids = Vec::with_capacity(self.rids.len() + nt);
        let (mut i, mut j) = (0, 0);
        while i < nb || j < nt {
            let ord = match (i < nb, j < nt) {
                (true, true) => cmp_rows(&self.keys, i, &tail.keys, j),
                (true, false) => Ordering::Less,
                _ => Ordering::Greater,
            };
            offsets.push(rids.len() as u32);
            if ord == Ordering::Greater {
                push_key(&mut keys, &tail.keys, j);
            } else {
                push_key(&mut keys, &self.keys, i);
                rids.extend_from_slice(
                    &self.rids[self.offsets[i] as usize..self.offsets[i + 1] as usize],
                );
                i += 1;
            }
            if ord != Ordering::Less {
                let group = j;
                while j < nt && cmp_rows(&tail.keys, j, &tail.keys, group) == Ordering::Equal {
                    rids.push(tail.rids[j]);
                    j += 1;
                }
            }
        }
        Run::seal(keys, offsets, rids)
    }
}

/// The append partition: one key row per entry, sorted by key then insertion
/// order.
#[derive(Debug, Clone)]
struct Tail {
    keys: Vec<ColumnData>,
    rids: Vec<u32>,
}

/// The position of a lookup inside an index, as plain offsets — so an
/// operator can own one beside its `Arc` of the index and advance it with
/// [`BTreeIndex::next_rid`](crate::BTreeIndex::next_rid) /
/// [`MultiIndex::next_rid`](crate::MultiIndex::next_rid). Only meaningful
/// for the index (and index state) that produced it.
#[derive(Debug, Clone, Default)]
pub struct RidCursor {
    /// Next base row-id position, and where the current base piece ends:
    /// `stop == offsets[key]`, everything that sorts before `tail[tail]`.
    base: usize,
    stop: usize,
    key: usize,
    key_end: usize,
    tail: usize,
    tail_end: usize,
}

/// A borrowed lookup result: the matching row ids in key order, then
/// insertion order — base-run slices interleaved with append-partition
/// slices, walked in place.
#[derive(Debug, Clone)]
pub struct RowIds<'a> {
    ix: &'a PackedIndex,
    cur: RidCursor,
}

impl RowIds<'_> {
    /// True if no row matched.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Detach the position from the borrow (see [`RidCursor`]).
    pub fn into_cursor(self) -> RidCursor {
        self.cur
    }
}

impl Iterator for RowIds<'_> {
    type Item = RowId;

    fn next(&mut self) -> Option<RowId> {
        self.ix.next_rid(&mut self.cur)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let cur = &self.cur;
        let n = self.ix.base.offsets[cur.key_end] as usize - cur.base + (cur.tail_end - cur.tail);
        (n, Some(n))
    }
}

impl ExactSizeIterator for RowIds<'_> {}

/// The one secondary-index implementation: names, base run, append
/// partition. [`BTreeIndex`](crate::BTreeIndex) and
/// [`MultiIndex`](crate::MultiIndex) wrap it.
#[derive(Debug, Clone)]
pub struct PackedIndex {
    name: String,
    table: String,
    columns: Vec<String>,
    base: Arc<Run>,
    tail: Tail,
    clustered: bool,
}

impl PackedIndex {
    pub(crate) fn build(name: String, table: &Table, columns: &[&str]) -> Result<Self> {
        if columns.is_empty() {
            return Err(RqpError::Invalid("an index needs at least one column".into()));
        }
        let cols: Vec<&ColumnData> =
            columns.iter().map(|c| table.column_by_name(c)).collect::<Result<_>>()?;
        let base = Run::build(&cols, to_u32(table.nrows())?);
        // Clustered iff ascending key order visits row ids in ascending
        // order — for a permutation, iff it is the identity.
        let clustered = base.rids.iter().enumerate().all(|(i, &r)| r as usize == i);
        Ok(PackedIndex {
            name,
            table: table.name().to_owned(),
            columns: columns
                .iter()
                .map(|c| c.rsplit_once('.').map_or(*c, |(_, u)| u).to_owned())
                .collect(),
            tail: Tail { keys: empty_like(&cols), rids: Vec::new() },
            base: Arc::new(base),
            clustered,
        })
    }

    pub(crate) fn name(&self) -> &str {
        &self.name
    }

    pub(crate) fn table(&self) -> &str {
        &self.table
    }

    pub(crate) fn columns(&self) -> &[String] {
        &self.columns
    }

    pub(crate) fn clustered(&self) -> bool {
        self.clustered
    }

    pub(crate) fn entries(&self) -> usize {
        self.base.rids.len() + self.tail.rids.len()
    }

    pub(crate) fn tail_entries(&self) -> usize {
        self.tail.rids.len()
    }

    /// Distinct keys across both partitions: the base's, plus each tail key
    /// group the base does not hold.
    pub(crate) fn distinct_keys(&self) -> usize {
        let (base, tail) = (&*self.base, &self.tail);
        let mut n = base.nkeys();
        for j in 0..tail.rids.len() {
            if j > 0 && cmp_rows(&tail.keys, j - 1, &tail.keys, j) == Ordering::Equal {
                continue;
            }
            let k = lower_bound(0, base.nkeys(), |i| cmp_rows(&base.keys, i, &tail.keys, j));
            if k == base.nkeys() || cmp_rows(&base.keys, k, &tail.keys, j) != Ordering::Equal {
                n += 1;
            }
        }
        n
    }

    /// Rows whose leading columns equal `prefix` and whose next column lies
    /// in the inclusive `[lo, hi]` (`None` = unbounded on that side).
    pub(crate) fn lookup(
        &self,
        prefix: &[Value],
        lo: Option<&Value>,
        hi: Option<&Value>,
    ) -> RowIds<'_> {
        let (base, tail) = (&*self.base, &self.tail);
        let key = lower_bound(0, base.nkeys(), |i| cmp_probe(&base.keys, i, prefix, lo));
        let key_end = upper_bound(key, base.nkeys(), |i| cmp_probe(&base.keys, i, prefix, hi));
        let t = lower_bound(0, tail.rids.len(), |i| cmp_probe(&tail.keys, i, prefix, lo));
        let tail_end = upper_bound(t, tail.rids.len(), |i| cmp_probe(&tail.keys, i, prefix, hi));
        let mut cur = RidCursor {
            base: base.offsets[key] as usize,
            stop: 0,
            key,
            key_end,
            tail: t,
            tail_end,
        };
        self.aim(&mut cur);
        RowIds { ix: self, cur }
    }

    /// Point the cursor's base piece at everything that sorts at or before
    /// its next tail entry (the rest of the base range when the tail is
    /// spent).
    fn aim(&self, cur: &mut RidCursor) {
        let base = &*self.base;
        cur.key = if cur.tail < cur.tail_end {
            upper_bound(cur.key, cur.key_end, |i| {
                cmp_rows(&base.keys, i, &self.tail.keys, cur.tail)
            })
        } else {
            cur.key_end
        };
        cur.stop = base.offsets[cur.key] as usize;
    }

    /// Advance `cur` (from [`RowIds::into_cursor`]) by one row id.
    pub(crate) fn next_rid(&self, cur: &mut RidCursor) -> Option<RowId> {
        if cur.base < cur.stop {
            cur.base += 1;
            return Some(self.base.rids[cur.base - 1] as RowId);
        }
        if cur.tail < cur.tail_end {
            cur.tail += 1;
            self.aim(cur);
            return Some(self.tail.rids[cur.tail - 1] as RowId);
        }
        None
    }

    /// Add `(key, rid)` to the append partition, merging the partition into
    /// a new base once it outgrows its share. Errors on a key of the wrong
    /// arity or type and on a row id past `u32::MAX`; the index is unchanged
    /// then.
    pub(crate) fn insert(&mut self, key: &[Value], rid: RowId) -> Result<()> {
        let rid = to_u32(rid)?;
        to_u32(self.entries() + 1)?;
        if key.len() != self.columns.len() {
            return Err(RqpError::Invalid(format!(
                "index {} keys {} columns, got {} values",
                self.name,
                self.columns.len(),
                key.len()
            )));
        }
        for (col, v) in self.tail.keys.iter().zip(key) {
            if !col.accepts(v) {
                return Err(RqpError::TypeMismatch {
                    expected: col.data_type().to_string(),
                    got: v.data_type().map_or("NULL".into(), |t| t.to_string()),
                });
            }
        }
        let tail = &mut self.tail;
        // An append keeps a clustered index clustered only if it lands after
        // the current last entry in both key and row order; otherwise the
        // index degrades to unclustered — mirroring real B-tree/heap drift.
        // While clustered, every tail entry was inserted at or past the
        // base's last key, so a non-empty tail ends with the last entry.
        if self.clustered {
            let last = match (tail.rids.last(), self.base.rids.last()) {
                (Some(&r), _) => Some((&tail.keys, tail.rids.len() - 1, r)),
                (None, Some(&r)) => Some((&self.base.keys, self.base.nkeys() - 1, r)),
                (None, None) => None,
            };
            if let Some((keys, at, last_rid)) = last {
                let last_key_is_greater = cmp_probe(keys, at, key, None) == Ordering::Greater;
                self.clustered = !last_key_is_greater && rid >= last_rid;
            }
        }
        let at = upper_bound(0, tail.rids.len(), |i| cmp_probe(&tail.keys, i, key, None));
        for (col, v) in tail.keys.iter_mut().zip(key) {
            col.insert(at, v.clone());
        }
        tail.rids.insert(at, rid);
        if tail.rids.len() > TAIL_MIN.max(self.base.rids.len() / TAIL_FRACTION) {
            self.base = Arc::new(self.base.merged(tail));
            *tail = Tail { keys: empty_like(&self.base.keys), rids: Vec::new() };
        }
        Ok(())
    }

    /// Heap bytes held (capacity-based): both partitions and the names. A
    /// base shared with a snapshot is counted here too.
    pub(crate) fn heap_bytes(&self) -> usize {
        let base = &*self.base;
        let cols = |keys: &[ColumnData]| keys.iter().map(ColumnData::heap_bytes).sum::<usize>();
        cols(&base.keys)
            + cols(&self.tail.keys)
            + 4 * (base.offsets.capacity() + base.rids.capacity() + self.tail.rids.capacity())
            + self.name.capacity()
            + self.table.capacity()
            + self.columns.iter().map(String::capacity).sum::<usize>()
    }

    /// Check the layout's invariants: offsets ascending and covering every
    /// row id, base keys strictly ascending, tail sorted.
    pub(crate) fn validate(&self) -> Result<()> {
        let (base, tail) = (&*self.base, &self.tail);
        let bad = |what: &str| Err(RqpError::Invalid(format!("index {}: {what}", self.name)));
        if base.offsets.first() != Some(&0)
            || base.offsets.last().map(|&o| o as usize) != Some(base.rids.len())
            || base.offsets.windows(2).any(|w| w[0] >= w[1])
        {
            return bad("offsets do not partition the row ids");
        }
        if base.keys.iter().any(|c| c.len() != base.nkeys())
            || tail.keys.iter().any(|c| c.len() != tail.rids.len())
        {
            return bad("key columns and row ids differ in length");
        }
        if (1..base.nkeys()).any(|k| cmp_rows(&base.keys, k - 1, &base.keys, k) != Ordering::Less) {
            return bad("base keys are not strictly ascending");
        }
        if (1..tail.rids.len())
            .any(|j| cmp_rows(&tail.keys, j - 1, &tail.keys, j) == Ordering::Greater)
        {
            return bad("append partition is not sorted");
        }
        Ok(())
    }
}
