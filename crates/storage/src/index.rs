//! Secondary indexes: one [`Index`] over k ≥ 1 columns of a table.
//!
//! An index is a packed sorted run (see the `run` module) keyed on the column
//! tuple and searched lexicographically, probed the way a B-tree is: the
//! cost model charges `log2(entries)` compares per descent. A lookup is an
//! equality `prefix` on the leading columns plus an inclusive `[lo, hi]` on
//! the next one — the access-path algebra of the equivalent-query break-out
//! ("an index on (A, B, C) should be used for `A = 4 AND B BETWEEN 7 AND
//! 11`"); restrictions on later columns stay residual. A one-column index is
//! the case of an empty prefix.
//!
//! Writes land in the run's append partition, which is merged into a new
//! base once it outgrows `TAIL_FRACTION` of it. Cloning an index (what
//! `Arc::make_mut` does when a running query still holds the old handle)
//! therefore copies the tail and shares the base. Lookups borrow: a
//! [`RowIds`] is a cursor over slices of the run, never a fresh `Vec`.

use crate::column::ColumnData;
use crate::run::{cmp_probe, cmp_rows, empty_like, lower_bound, to_u32, upper_bound, Run, Tail};
use crate::table::Table;
use crate::RowId;
use rqp_common::{Result, RqpError, Value};
use std::cmp::Ordering;
use std::sync::Arc;

/// The tail is merged once it holds more than `1/TAIL_FRACTION` of the base
/// run's entries…
const TAIL_FRACTION: usize = 16;
/// …and more than this many entries, so a small index does not rebuild its
/// base on every handful of inserts.
const TAIL_MIN: usize = 64;

/// The position of a lookup inside an index, as plain offsets — so an
/// operator can own one beside its `Arc` of the index and advance it with
/// [`Index::next_rid`]. Only meaningful for the index (and index state) that
/// produced it.
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
    ix: &'a Index,
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

/// A secondary index over an ordered list of columns of one table: names,
/// base run, append partition.
///
/// `clustered` marks whether row ids in key order correspond to physical
/// order (built from a sorted column) — the cost model charges sequential
/// pages for clustered range scans and random pages for unclustered fetches,
/// which is precisely what creates the plan cliffs the robustness experiments
/// measure.
#[derive(Debug, Clone)]
pub struct Index {
    name: String,
    table: String,
    columns: Vec<String>,
    base: Arc<Run>,
    tail: Tail,
    clustered: bool,
}

impl Index {
    /// Build an index over `table.(columns…)` in the given order. Errors on
    /// no column, an unknown column and a table of more than `u32::MAX`
    /// rows.
    pub fn build(name: impl Into<String>, table: &Table, columns: &[&str]) -> Result<Self> {
        if columns.is_empty() {
            return Err(RqpError::Invalid("an index needs at least one column".into()));
        }
        let cols: Vec<&ColumnData> =
            columns.iter().map(|c| table.column_by_name(c)).collect::<Result<_>>()?;
        let base = Run::build(&cols, to_u32(table.nrows())?);
        // Clustered iff ascending key order visits row ids in ascending
        // order — for a permutation, iff it is the identity.
        let clustered = base.rids.iter().enumerate().all(|(i, &r)| r as usize == i);
        Ok(Index {
            name: name.into(),
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

    /// Index name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Indexed table name.
    pub fn table(&self) -> &str {
        &self.table
    }

    /// Indexed (unqualified) columns, leading first.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Whether key order matches physical row order.
    pub fn clustered(&self) -> bool {
        self.clustered
    }

    /// Total indexed entries.
    pub fn entries(&self) -> usize {
        self.base.rids.len() + self.tail.rids.len()
    }

    /// Entries still in the append partition, not yet merged into the base
    /// run.
    pub fn tail_entries(&self) -> usize {
        self.tail.rids.len()
    }

    /// Distinct keys across both partitions: the base's, plus each tail key
    /// group the base does not hold.
    pub fn distinct_keys(&self) -> usize {
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

    /// Row ids whose leading columns equal `prefix` and whose next column
    /// lies in the inclusive `[lo, hi]` (`None` = unbounded on that side),
    /// in key order then insertion order.
    ///
    /// `prefix` may be empty (a range on the first column) and at most
    /// `columns().len()` long; when it covers every column the range must be
    /// absent. Errors otherwise.
    pub fn lookup(
        &self,
        prefix: &[Value],
        lo: Option<&Value>,
        hi: Option<&Value>,
    ) -> Result<RowIds<'_>> {
        let ncols = self.columns.len();
        if prefix.len() > ncols {
            return Err(RqpError::Invalid(format!(
                "prefix of {} values exceeds {ncols} indexed columns",
                prefix.len()
            )));
        }
        if prefix.len() == ncols && (lo.is_some() || hi.is_some()) {
            return Err(RqpError::Invalid("range column exceeds the indexed columns".into()));
        }
        Ok(self.probe(prefix, lo, hi))
    }

    /// Row ids whose leading column equals `v`, in key order then insertion
    /// order — the probe of an index-nested-loop join.
    pub fn lookup_eq(&self, v: &Value) -> RowIds<'_> {
        self.probe(&[], Some(v), Some(v))
    }

    fn probe(&self, prefix: &[Value], lo: Option<&Value>, hi: Option<&Value>) -> RowIds<'_> {
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

    /// Advance a cursor detached from one of this index's lookups
    /// ([`RowIds::into_cursor`]) by one row id.
    pub fn next_rid(&self, cur: &mut RidCursor) -> Option<RowId> {
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

    /// Add `(key, rid)` — one value per indexed column — to the append
    /// partition, merging the partition into a new base once it outgrows its
    /// share. Errors, leaving the index unchanged, on a key of the wrong
    /// arity, on a value the column's type does not take (an `Int` coerces
    /// into a float column) and on a row id past `u32::MAX`.
    pub fn insert(&mut self, key: &[Value], rid: RowId) -> Result<()> {
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

    /// Exact fraction of entries a [`lookup`](Self::lookup) matches — the
    /// index doubles as a perfectly accurate (but expensive) statistics
    /// source.
    pub fn selectivity(
        &self,
        prefix: &[Value],
        lo: Option<&Value>,
        hi: Option<&Value>,
    ) -> Result<f64> {
        Ok(match self.entries() {
            0 => 0.0,
            n => self.lookup(prefix, lo, hi)?.len() as f64 / n as f64,
        })
    }

    /// Heap bytes held (capacity-based): both partitions and the names. A
    /// base shared with a snapshot is counted here too.
    pub fn heap_bytes(&self) -> usize {
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
    pub fn validate(&self) -> Result<()> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use rqp_common::{DataType, Schema};

    fn table_sorted() -> Table {
        let schema = Schema::from_pairs(&[("k", DataType::Int)]);
        let mut t = Table::new("t", schema);
        for i in 0..100 {
            t.append(vec![Value::Int(i)]);
        }
        t
    }

    fn table_shuffled() -> Table {
        let schema = Schema::from_pairs(&[("k", DataType::Int)]);
        let mut t = Table::new("t", schema);
        for i in 0..100 {
            t.append(vec![Value::Int((i * 37) % 100)]);
        }
        t
    }

    /// A one-column lookup over `[lo, hi]`.
    fn range(ix: &Index, lo: Option<i64>, hi: Option<i64>) -> Vec<RowId> {
        let (lo, hi) = (lo.map(Value::Int), hi.map(Value::Int));
        ix.lookup(&[], lo.as_ref(), hi.as_ref()).unwrap().collect()
    }

    #[test]
    fn eq_and_range_lookup() {
        let t = table_sorted();
        let idx = Index::build("ix", &t, &["k"]).unwrap();
        assert_eq!(idx.lookup_eq(&Value::Int(5)).collect::<Vec<_>>(), vec![5]);
        assert_eq!(range(&idx, Some(10), Some(14)), vec![10, 11, 12, 13, 14]);
        assert!(idx.lookup_eq(&Value::Int(1000)).is_empty());
    }

    #[test]
    fn empty_range_when_inverted() {
        let t = table_sorted();
        let idx = Index::build("ix", &t, &["k"]).unwrap();
        assert!(range(&idx, Some(10), Some(5)).is_empty());
    }

    #[test]
    fn unbounded_ranges() {
        let t = table_sorted();
        let idx = Index::build("ix", &t, &["k"]).unwrap();
        assert_eq!(range(&idx, None, Some(2)).len(), 3);
        assert_eq!(range(&idx, Some(98), None).len(), 2);
        assert_eq!(range(&idx, None, None).len(), 100);
    }

    #[test]
    fn clustered_detection() {
        let idx = Index::build("a", &table_sorted(), &["k"]).unwrap();
        assert!(idx.clustered());
        let idx = Index::build("b", &table_shuffled(), &["k"]).unwrap();
        assert!(!idx.clustered());
    }

    #[test]
    fn selectivity_exact() {
        let idx = Index::build("ix", &table_sorted(), &["k"]).unwrap();
        let s = idx.selectivity(&[], Some(&Value::Int(0)), Some(&Value::Int(24))).unwrap();
        assert!((s - 0.25).abs() < 1e-9);
    }

    #[test]
    fn prefix_selectivity_exact() {
        // Under an equality prefix: a = 0 is a fifth of the composite index.
        let ix = Index::build("ix", &table(), &["a", "b"]).unwrap();
        let s = ix.selectivity(&[Value::Int(0)], None, None).unwrap();
        assert!((s - 0.2).abs() < 1e-12);
    }

    #[test]
    fn insert_updates_and_may_decluster() {
        let t = table_sorted();
        let mut idx = Index::build("ix", &t, &["k"]).unwrap();
        assert!(idx.clustered());
        idx.insert(&[Value::Int(500)], 100).unwrap();
        assert!(idx.clustered(), "appending a max key keeps clustering");
        idx.insert(&[Value::Int(-1)], 101).unwrap();
        assert!(!idx.clustered(), "inserting below max declusters");
        assert_eq!(idx.entries(), 102);
        idx.validate().unwrap();
        // Key order, then insertion order: the tail entry for -1 leads.
        assert_eq!(range(&idx, None, Some(1)), vec![101, 0, 1]);
        assert_eq!(idx.distinct_keys(), 102);
    }

    #[test]
    fn insert_rejects_what_the_layout_cannot_hold() {
        let mut idx = Index::build("ix", &table_sorted(), &["k"]).unwrap();
        assert!(idx.insert(&[Value::Str("x".into())], 100).is_err(), "wrong key type");
        assert!(idx.insert(&[Value::Null], 100).is_err(), "NULL key");
        assert!(idx.insert(&[Value::Int(1)], u32::MAX as RowId + 1).is_err(), "row id past u32");
        assert!(idx.insert(&[Value::Int(1), Value::Int(2)], 100).is_err(), "wrong arity");
        assert_eq!(idx.entries(), 100, "a rejected insert leaves the index unchanged");
        idx.validate().unwrap();
    }

    #[test]
    fn clone_shares_the_base_and_copies_the_tail() {
        let mut idx = Index::build("ix", &table_shuffled(), &["k"]).unwrap();
        idx.insert(&[Value::Int(7)], 100).unwrap();
        let frozen = idx.clone();
        idx.insert(&[Value::Int(7)], 101).unwrap();
        assert_eq!(frozen.lookup_eq(&Value::Int(7)).len(), 2);
        assert_eq!(idx.lookup_eq(&Value::Int(7)).len(), 3);
        // Past the merge threshold the writer gets a new base; the frozen
        // clone keeps reading the old one.
        for rid in 102..400 {
            idx.insert(&[Value::Int(rid as i64 % 100)], rid).unwrap();
        }
        assert!(idx.tail_entries() < 298, "the tail was merged at least once");
        assert_eq!(frozen.entries(), 101);
        assert_eq!(idx.entries(), 400);
        idx.validate().unwrap();
        frozen.validate().unwrap();
    }

    #[test]
    fn duplicate_keys() {
        let schema = Schema::from_pairs(&[("k", DataType::Int)]);
        let mut t = Table::new("t", schema);
        for _ in 0..5 {
            t.append(vec![Value::Int(7)]);
        }
        let idx = Index::build("ix", &t, &["k"]).unwrap();
        assert_eq!(idx.lookup_eq(&Value::Int(7)).len(), 5);
        assert_eq!(idx.distinct_keys(), 1);
        idx.validate().unwrap();
    }

    /// The footprint the layout exists for, on the seven indexes
    /// `TpchDb::build` creates at 200 000 `lineitem` rows (same row counts
    /// and key distributions; `rqp-workload` sits above this crate): four
    /// unique sequential keys at 16 bytes per entry, three foreign keys and
    /// dates at 4–7. The `BTreeMap<Value, Vec<RowId>>` layout held ≈ 37.
    #[test]
    fn tpch_shaped_indexes_stay_under_12_bytes_per_entry() {
        use rand::Rng;
        let mut rng = rqp_common::rng::seeded(42);
        let mut column = |rows: usize, distinct: Option<i64>| -> Table {
            let keys: Vec<i64> = match distinct {
                None => (0..rows as i64).collect(),
                Some(n) => (0..rows).map(|_| rng.gen_range(0..n)).collect(),
            };
            let schema = Schema::from_pairs(&[("k", DataType::Int)]);
            Table::from_columns("t", schema, vec![keys.into()]).unwrap()
        };
        let tables = [
            column(5_000, None),           // customer.custkey
            column(50_000, None),          // orders.orderkey
            column(50_000, Some(5_000)),   // orders.custkey
            column(200_000, Some(50_000)), // lineitem.orderkey
            column(200_000, Some(2_557)),  // lineitem.shipdate
            column(6_666, None),           // part.partkey
            column(400, None),             // supplier.suppkey
        ];
        let (mut bytes, mut entries) = (0, 0);
        for t in &tables {
            let idx = Index::build("ix", t, &["k"]).unwrap();
            idx.validate().unwrap();
            bytes += idx.heap_bytes();
            entries += idx.entries();
        }
        assert_eq!(entries, 512_066);
        let per_entry = bytes as f64 / entries as f64;
        assert!(per_entry <= 12.0, "{per_entry:.1} bytes per index entry");
    }

    /// (a, b, c) with a ∈ 0..5, b ∈ 0..10, c sequential.
    fn table() -> Table {
        let schema =
            Schema::from_pairs(&[("a", DataType::Int), ("b", DataType::Int), ("c", DataType::Int)]);
        let mut t = Table::new("t", schema);
        for i in 0..500i64 {
            t.append(vec![Value::Int(i % 5), Value::Int(i % 10), Value::Int(i)]);
        }
        t
    }

    fn truth(f: impl Fn(i64, i64, i64) -> bool) -> Vec<RowId> {
        (0..500i64).filter(|&i| f(i % 5, i % 10, i)).map(|i| i as RowId).collect()
    }

    fn sorted(ids: RowIds<'_>) -> Vec<RowId> {
        let mut v: Vec<RowId> = ids.collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn full_prefix_equality() {
        let ix = Index::build("ix", &table(), &["a", "b"]).unwrap();
        let got = ix.lookup(&[Value::Int(3), Value::Int(8)], None, None).unwrap();
        assert_eq!(sorted(got), truth(|a, b, _| a == 3 && b == 8));
        assert_eq!(ix.columns(), &["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn the_session_example_eq_then_range() {
        // "an index on (A, B, C) should be used for A = 4 AND B BETWEEN 7 AND 11"
        let ix = Index::build("ix", &table(), &["a", "b", "c"]).unwrap();
        let got = ix.lookup(&[Value::Int(4)], Some(&Value::Int(7)), Some(&Value::Int(11)));
        assert_eq!(sorted(got.unwrap()), truth(|a, b, _| a == 4 && (7..=11).contains(&b)));
    }

    #[test]
    fn empty_prefix_is_a_leading_range() {
        let ix = Index::build("ix", &table(), &["a", "b"]).unwrap();
        let got = ix.lookup(&[], Some(&Value::Int(1)), Some(&Value::Int(2))).unwrap();
        assert_eq!(sorted(got), truth(|a, _, _| (1..=2).contains(&a)));
    }

    #[test]
    fn open_ended_ranges() {
        let ix = Index::build("ix", &table(), &["a", "b"]).unwrap();
        let got = ix.lookup(&[Value::Int(2)], Some(&Value::Int(7)), None).unwrap();
        assert_eq!(sorted(got), truth(|a, b, _| a == 2 && b >= 7));
        let got = ix.lookup(&[Value::Int(2)], None, Some(&Value::Int(3))).unwrap();
        assert_eq!(sorted(got), truth(|a, b, _| a == 2 && b <= 3));
    }

    #[test]
    fn misuse_is_rejected() {
        let t = table();
        let ix = Index::build("ix", &t, &["a", "b"]).unwrap();
        let (one, two, three) = (Value::Int(1), Value::Int(2), Value::Int(3));
        assert!(ix.lookup(&[one.clone(), two.clone(), three], None, None).is_err());
        assert!(ix.lookup(&[one, two], Some(&Value::Int(0)), None).is_err());
        assert!(Index::build("x", &t, &[]).is_err());
        assert!(Index::build("x", &t, &["nope"]).is_err());
    }

    #[test]
    fn no_match_prefix() {
        let ix = Index::build("ix", &table(), &["a", "b"]).unwrap();
        assert!(ix.lookup(&[Value::Int(99)], None, None).unwrap().is_empty());
        // hi < lo yields empty
        let got = ix.lookup(&[Value::Int(1)], Some(&Value::Int(9)), Some(&Value::Int(2)));
        assert!(got.unwrap().is_empty());
    }

    /// One-column keys a change of sort could mishandle: integers at every
    /// stored width over dense and sparse spans (the kernel's counting and
    /// sorting paths), `i64` extremes, floats with NaN payloads, both
    /// zeros, infinities and subnormals, and empty and one-row tables.
    fn awkward_keys() -> Vec<ColumnData> {
        use rand::Rng;
        let mut rng = rqp_common::rng::seeded(33);
        let nan_payload = f64::from_bits(f64::NAN.to_bits() | 0xbeef);
        let specials = [0.0, -0.0, f64::NAN, -f64::NAN, nan_payload, f64::INFINITY, 5e-324];
        let mut cols = vec![
            ColumnData::Int(Vec::new().into()),
            ColumnData::Float(Vec::new()),
            ColumnData::Int(vec![3].into()),
            ColumnData::Float(vec![f64::NAN]),
            ColumnData::Int(vec![i64::MAX, i64::MIN, 0, i64::MAX, i64::MIN + 1].into()),
            ColumnData::Int((0..500).collect()),
        ];
        for n in [2, 37, 1000, 70_000] {
            for (lo, hi) in [
                (-100, 27),
                (-20_000, 30_000),
                (0, n as i64 / 3),
                (i32::MIN as i64, i32::MAX as i64),
                (i64::MIN, i64::MAX),
            ] {
                cols.push(ColumnData::Int((0..n).map(|_| rng.gen_range(lo..=hi)).collect()));
            }
            let floats = (0..n).map(|_| match rng.gen_range(0..5) {
                0 => specials[rng.gen_range(0..specials.len())],
                1 => -f64::from_bits(rng.gen::<u64>() & 0x000f_ffff_ffff_ffff),
                2 => rng.gen_range(0..8) as f64 * 0.5 - 2.0,
                _ => rng.gen_range(-1e6..1e6),
            });
            cols.push(ColumnData::Float(floats.collect()));
        }
        cols
    }

    /// Keys as bits, so NaN payloads and zero signs compare.
    fn key_bits(keys: &[ColumnData]) -> Vec<u64> {
        keys.iter()
            .flat_map(|c| match c {
                ColumnData::Int(v) => v.as_slice().iter().map(|x| x as u64).collect::<Vec<_>>(),
                ColumnData::Float(v) => v.iter().map(|x| x.to_bits()).collect(),
                ColumnData::Str(_) => unreachable!("numeric keys"),
            })
            .collect()
    }

    #[test]
    fn one_column_runs_match_the_comparison_sort() {
        for col in awkward_keys() {
            let n = col.len();
            let what = format!("{:?} n={n}", col.data_type());
            let schema = Schema::from_pairs(&[("k", col.data_type())]);
            let t = Table::from_columns("t", schema, vec![col]).unwrap();
            let idx = Index::build("ix", &t, &["k"]).unwrap();
            idx.validate().unwrap();
            let want = Run::build_by_sort(&[t.column(0)], n as u32);
            let got = &*idx.base;
            assert_eq!(key_bits(&got.keys), key_bits(&want.keys), "{what}");
            let width = |keys: &[ColumnData]| keys[0].as_int_slice().map(|s| s.width());
            assert_eq!(width(&got.keys), width(&want.keys), "{what}");
            assert_eq!((&got.offsets, &got.rids), (&want.offsets, &want.rids), "{what}");
            let identity = want.rids.iter().enumerate().all(|(i, &r)| r as usize == i);
            assert_eq!(idx.clustered(), identity, "{what}");
            assert_eq!(
                idx.heap_bytes(),
                Index { base: Arc::new(want), ..idx.clone() }.heap_bytes(),
                "{what}"
            );
        }
    }
}
