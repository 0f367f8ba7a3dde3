//! Single-column secondary indexes.

use crate::run::{PackedIndex, RidCursor, RowIds};
use crate::table::Table;
use crate::RowId;
use rqp_common::{Result, Value};

/// A secondary index over one column of a table, laid out as a packed
/// sorted run (see [`crate::run`]) and probed the way a B-tree is: the cost
/// model charges `log2(entries)` compares per descent.
///
/// `clustered` marks whether row ids in key order correspond to physical
/// order (built from a sorted column) — the cost model charges sequential
/// pages for clustered range scans and random pages for unclustered fetches,
/// which is precisely what creates the plan cliffs the robustness experiments
/// measure.
#[derive(Debug, Clone)]
pub struct BTreeIndex(PackedIndex);

impl BTreeIndex {
    /// Build an index over `table.column`. Errors on an unknown column and
    /// on a table of more than `u32::MAX` rows.
    pub fn build(name: impl Into<String>, table: &Table, column: &str) -> Result<Self> {
        PackedIndex::build(name.into(), table, &[column]).map(BTreeIndex)
    }

    /// Index name.
    pub fn name(&self) -> &str {
        self.0.name()
    }

    /// Indexed table name.
    pub fn table(&self) -> &str {
        self.0.table()
    }

    /// Indexed (unqualified) column name.
    pub fn column(&self) -> &str {
        &self.0.columns()[0]
    }

    /// Whether key order matches physical row order.
    pub fn clustered(&self) -> bool {
        self.0.clustered()
    }

    /// Total indexed entries.
    pub fn entries(&self) -> usize {
        self.0.entries()
    }

    /// Number of distinct keys.
    pub fn distinct_keys(&self) -> usize {
        self.0.distinct_keys()
    }

    /// Entries still in the append partition, not yet merged into the base
    /// run.
    pub fn tail_entries(&self) -> usize {
        self.0.tail_entries()
    }

    /// Row ids with key exactly `v`, in insertion order.
    pub fn lookup_eq(&self, v: &Value) -> RowIds<'_> {
        self.0.lookup(&[], Some(v), Some(v))
    }

    /// Row ids with key in the inclusive range `[lo, hi]`, in key order then
    /// insertion order; `None` bounds are unbounded.
    pub fn lookup_range(&self, lo: Option<&Value>, hi: Option<&Value>) -> RowIds<'_> {
        self.0.lookup(&[], lo, hi)
    }

    /// Advance a cursor detached from one of this index's lookups
    /// ([`RowIds::into_cursor`]).
    pub fn next_rid(&self, cur: &mut RidCursor) -> Option<RowId> {
        self.0.next_rid(cur)
    }

    /// Insert a new entry into the append partition. Errors — leaving the
    /// index unchanged — on a key the column's type does not take (an `Int`
    /// coerces into a float column) and on a row id past `u32::MAX`.
    pub fn insert(&mut self, key: Value, rid: RowId) -> Result<()> {
        self.0.insert(&[key], rid)
    }

    /// Estimated fraction of entries in `[lo, hi]` — the index doubles as a
    /// perfectly accurate (but expensive) statistics source.
    pub fn selectivity(&self, lo: Option<&Value>, hi: Option<&Value>) -> f64 {
        match self.entries() {
            0 => 0.0,
            n => self.lookup_range(lo, hi).len() as f64 / n as f64,
        }
    }

    /// Heap bytes the index holds (capacity-based, counted).
    pub fn heap_bytes(&self) -> usize {
        self.0.heap_bytes()
    }

    /// Validate internal consistency (the run layout's invariants).
    pub fn validate(&self) -> Result<()> {
        self.0.validate()
    }

    pub(crate) fn packed_mut(&mut self) -> &mut PackedIndex {
        &mut self.0
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

    #[test]
    fn eq_and_range_lookup() {
        let t = table_sorted();
        let idx = BTreeIndex::build("ix", &t, "k").unwrap();
        assert_eq!(idx.lookup_eq(&Value::Int(5)).collect::<Vec<_>>(), vec![5]);
        let r = idx.lookup_range(Some(&Value::Int(10)), Some(&Value::Int(14)));
        assert_eq!(r.collect::<Vec<_>>(), vec![10, 11, 12, 13, 14]);
        assert!(idx.lookup_eq(&Value::Int(1000)).is_empty());
    }

    #[test]
    fn empty_range_when_inverted() {
        let t = table_sorted();
        let idx = BTreeIndex::build("ix", &t, "k").unwrap();
        assert!(idx
            .lookup_range(Some(&Value::Int(10)), Some(&Value::Int(5)))
            .is_empty());
    }

    #[test]
    fn unbounded_ranges() {
        let t = table_sorted();
        let idx = BTreeIndex::build("ix", &t, "k").unwrap();
        assert_eq!(idx.lookup_range(None, Some(&Value::Int(2))).len(), 3);
        assert_eq!(idx.lookup_range(Some(&Value::Int(98)), None).len(), 2);
        assert_eq!(idx.lookup_range(None, None).len(), 100);
    }

    #[test]
    fn clustered_detection() {
        let idx = BTreeIndex::build("a", &table_sorted(), "k").unwrap();
        assert!(idx.clustered());
        let idx = BTreeIndex::build("b", &table_shuffled(), "k").unwrap();
        assert!(!idx.clustered());
    }

    #[test]
    fn selectivity_exact() {
        let idx = BTreeIndex::build("ix", &table_sorted(), "k").unwrap();
        let s = idx.selectivity(Some(&Value::Int(0)), Some(&Value::Int(24)));
        assert!((s - 0.25).abs() < 1e-9);
    }

    #[test]
    fn insert_updates_and_may_decluster() {
        let t = table_sorted();
        let mut idx = BTreeIndex::build("ix", &t, "k").unwrap();
        assert!(idx.clustered());
        idx.insert(Value::Int(500), 100).unwrap();
        assert!(idx.clustered(), "appending a max key keeps clustering");
        idx.insert(Value::Int(-1), 101).unwrap();
        assert!(!idx.clustered(), "inserting below max declusters");
        assert_eq!(idx.entries(), 102);
        idx.validate().unwrap();
        // Key order, then insertion order: the tail entry for -1 leads.
        let head: Vec<RowId> = idx.lookup_range(None, Some(&Value::Int(1))).collect();
        assert_eq!(head, vec![101, 0, 1]);
        assert_eq!(idx.distinct_keys(), 102);
    }

    #[test]
    fn insert_rejects_what_the_layout_cannot_hold() {
        let mut idx = BTreeIndex::build("ix", &table_sorted(), "k").unwrap();
        assert!(idx.insert(Value::Str("x".into()), 100).is_err(), "wrong key type");
        assert!(idx.insert(Value::Null, 100).is_err(), "NULL key");
        assert!(idx.insert(Value::Int(1), u32::MAX as RowId + 1).is_err(), "row id past u32");
        assert_eq!(idx.entries(), 100, "a rejected insert leaves the index unchanged");
        idx.validate().unwrap();
    }

    #[test]
    fn clone_shares_the_base_and_copies_the_tail() {
        let mut idx = BTreeIndex::build("ix", &table_shuffled(), "k").unwrap();
        idx.insert(Value::Int(7), 100).unwrap();
        let frozen = idx.clone();
        idx.insert(Value::Int(7), 101).unwrap();
        assert_eq!(frozen.lookup_eq(&Value::Int(7)).len(), 2);
        assert_eq!(idx.lookup_eq(&Value::Int(7)).len(), 3);
        // Past the merge threshold the writer gets a new base; the frozen
        // clone keeps reading the old one.
        for rid in 102..400 {
            idx.insert(Value::Int(rid as i64 % 100), rid).unwrap();
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
        let idx = BTreeIndex::build("ix", &t, "k").unwrap();
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
            let idx = BTreeIndex::build("ix", t, "k").unwrap();
            idx.validate().unwrap();
            bytes += idx.heap_bytes();
            entries += idx.entries();
        }
        assert_eq!(entries, 512_066);
        let per_entry = bytes as f64 / entries as f64;
        assert!(per_entry <= 12.0, "{per_entry:.1} bytes per index entry");
    }
}
