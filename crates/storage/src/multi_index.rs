//! Multi-column (composite) B-tree indexes.
//!
//! The equivalent-query break-out's test design is explicit about these:
//! "With respect to selection from multi-column indexes, restrictions might
//! apply to leading, intermediate, or trailing index fields; they may be
//! equality or range predicates… an index on (A, B, C) should be used for
//! `A = 4 AND B BETWEEN 7 AND 11`". A [`MultiIndex`] keys a sorted run on a
//! column *tuple*; lookups take an equality prefix plus an optional range on
//! the next column — trailing restrictions stay residual, exactly the
//! access-path algebra the session wants exercised.

use crate::run::{PackedIndex, RidCursor, RowIds};
use crate::table::Table;
use crate::RowId;
use rqp_common::{Result, RqpError, Value};

/// A secondary index over an ordered list of columns: the same packed sorted
/// run as [`BTreeIndex`](crate::BTreeIndex), keyed on the column tuple and
/// searched lexicographically.
#[derive(Debug, Clone)]
pub struct MultiIndex(PackedIndex);

impl MultiIndex {
    /// Build over `table.(columns…)` in the given order.
    pub fn build(name: impl Into<String>, table: &Table, columns: &[&str]) -> Result<Self> {
        PackedIndex::build(name.into(), table, columns).map(MultiIndex)
    }

    /// Index name.
    pub fn name(&self) -> &str {
        self.0.name()
    }

    /// Indexed table.
    pub fn table(&self) -> &str {
        self.0.table()
    }

    /// Indexed columns, leading first (unqualified).
    pub fn columns(&self) -> &[String] {
        self.0.columns()
    }

    /// Total entries.
    pub fn entries(&self) -> usize {
        self.0.entries()
    }

    /// Row ids whose leading columns equal `prefix`, with an optional
    /// inclusive `[lo, hi]` range on the column *after* the prefix, in key
    /// order then insertion order.
    ///
    /// `prefix` may be empty (pure range on the first column) and at most
    /// `columns().len()` long; when it covers every column the range must be
    /// absent. Errors on a longer prefix.
    pub fn lookup(
        &self,
        prefix: &[Value],
        lo: Option<&Value>,
        hi: Option<&Value>,
    ) -> Result<RowIds<'_>> {
        let ncols = self.columns().len();
        if prefix.len() > ncols {
            return Err(RqpError::Invalid(format!(
                "prefix of {} values exceeds {ncols} indexed columns",
                prefix.len()
            )));
        }
        if prefix.len() == ncols && (lo.is_some() || hi.is_some()) {
            return Err(RqpError::Invalid("range column exceeds the indexed columns".into()));
        }
        Ok(self.0.lookup(prefix, lo, hi))
    }

    /// Advance a cursor detached from one of this index's lookups
    /// ([`RowIds::into_cursor`]).
    pub fn next_rid(&self, cur: &mut RidCursor) -> Option<RowId> {
        self.0.next_rid(cur)
    }

    /// Insert a new entry (one value per indexed column) into the append
    /// partition; errors as [`BTreeIndex::insert`](crate::BTreeIndex::insert)
    /// does, and on a key of the wrong arity.
    pub fn insert(&mut self, key: &[Value], rid: RowId) -> Result<()> {
        self.0.insert(key, rid)
    }

    /// Exact fraction of entries matched by a lookup (statistics surface).
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

    /// (a, b, c) with a ∈ 0..5, b ∈ 0..10, c sequential.
    fn table() -> Table {
        let schema = Schema::from_pairs(&[
            ("a", DataType::Int),
            ("b", DataType::Int),
            ("c", DataType::Int),
        ]);
        let mut t = Table::new("t", schema);
        for i in 0..500i64 {
            t.append(vec![Value::Int(i % 5), Value::Int(i % 10), Value::Int(i)]);
        }
        t
    }

    fn truth(f: impl Fn(i64, i64, i64) -> bool) -> Vec<RowId> {
        (0..500i64)
            .filter(|&i| f(i % 5, i % 10, i))
            .map(|i| i as RowId)
            .collect()
    }

    fn sorted(ids: RowIds<'_>) -> Vec<RowId> {
        let mut v: Vec<RowId> = ids.collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn full_prefix_equality() {
        let t = table();
        let ix = MultiIndex::build("ix", &t, &["a", "b"]).unwrap();
        let got = ix
            .lookup(&[Value::Int(3), Value::Int(8)], None, None)
            .unwrap();
        assert_eq!(sorted(got), truth(|a, b, _| a == 3 && b == 8));
        assert_eq!(ix.columns(), &["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn the_session_example_eq_then_range() {
        // "an index on (A, B, C) should be used for A = 4 AND B BETWEEN 7 AND 11"
        let t = table();
        let ix = MultiIndex::build("ix", &t, &["a", "b", "c"]).unwrap();
        let got = ix
            .lookup(&[Value::Int(4)], Some(&Value::Int(7)), Some(&Value::Int(11)))
            .unwrap();
        assert_eq!(sorted(got), truth(|a, b, _| a == 4 && (7..=11).contains(&b)));
    }

    #[test]
    fn empty_prefix_is_a_leading_range() {
        let t = table();
        let ix = MultiIndex::build("ix", &t, &["a", "b"]).unwrap();
        let got = ix
            .lookup(&[], Some(&Value::Int(1)), Some(&Value::Int(2)))
            .unwrap();
        assert_eq!(sorted(got), truth(|a, _, _| (1..=2).contains(&a)));
    }

    #[test]
    fn open_ended_ranges() {
        let t = table();
        let ix = MultiIndex::build("ix", &t, &["a", "b"]).unwrap();
        let got = ix.lookup(&[Value::Int(2)], Some(&Value::Int(7)), None).unwrap();
        assert_eq!(sorted(got), truth(|a, b, _| a == 2 && b >= 7));
        let got = ix.lookup(&[Value::Int(2)], None, Some(&Value::Int(3))).unwrap();
        assert_eq!(sorted(got), truth(|a, b, _| a == 2 && b <= 3));
    }

    #[test]
    fn misuse_is_rejected() {
        let t = table();
        let ix = MultiIndex::build("ix", &t, &["a", "b"]).unwrap();
        assert!(ix
            .lookup(&[Value::Int(1), Value::Int(2), Value::Int(3)], None, None)
            .is_err());
        assert!(ix
            .lookup(&[Value::Int(1), Value::Int(2)], Some(&Value::Int(0)), None)
            .is_err());
        assert!(MultiIndex::build("x", &t, &[]).is_err());
        assert!(MultiIndex::build("x", &t, &["nope"]).is_err());
    }

    #[test]
    fn selectivity_exact() {
        let t = table();
        let ix = MultiIndex::build("ix", &t, &["a", "b"]).unwrap();
        let s = ix.selectivity(&[Value::Int(0)], None, None).unwrap();
        assert!((s - 0.2).abs() < 1e-12);
    }

    #[test]
    fn no_match_prefix() {
        let t = table();
        let ix = MultiIndex::build("ix", &t, &["a", "b"]).unwrap();
        assert!(ix.lookup(&[Value::Int(99)], None, None).unwrap().is_empty());
        // hi < lo yields empty
        assert!(ix
            .lookup(&[Value::Int(1)], Some(&Value::Int(9)), Some(&Value::Int(2)))
            .unwrap()
            .is_empty());
    }
}
