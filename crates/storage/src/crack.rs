//! Database cracking (Idreos, Kersten, Manegold — CIDR 2007).
//!
//! A [`CrackerColumn`] copies a base column into `(key, rowid)` pairs and
//! physically reorganizes them *as a side effect of range queries*: each query
//! partitions ("cracks") only the pieces its bounds fall into, an incremental
//! quicksort driven by the workload. The cracker index is a map from boundary
//! key to position; pieces between boundaries are unsorted but value-bounded.
//!
//! The first query pays roughly a scan; subsequent queries touch ever smaller
//! pieces; hot key ranges converge toward a full index while cold ranges stay
//! coarse — the convergence curve experiment E11 reproduces.
//!
//! Updates follow the "self-organizing differential updates" idea of Idreos
//! et al. (SIGMOD 2007): inserts and deletes queue in pending sets and merge
//! lazily, only when a query actually asks for the affected key range.

use crate::table::Table;
use crate::RowId;
use rqp_common::Result;
use std::collections::BTreeMap;

/// Statistics about one cracking query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrackStats {
    /// Tuples physically moved/compared while cracking this query.
    pub touched: usize,
    /// Tuples returned.
    pub result_rows: usize,
    /// Number of pieces after the query.
    pub pieces: usize,
    /// Pending updates merged during this query.
    pub merged_updates: usize,
}

/// A cracker column over `i64` keys.
///
/// ```
/// use rqp_storage::CrackerColumn;
///
/// let mut c = CrackerColumn::new(&[5, 1, 9, 3, 7]);
/// let (rows, stats) = c.query(3, 7);           // first query cracks
/// assert_eq!(rows.len(), 3);                   // keys 3, 5, 7
/// assert!(stats.touched >= 5);
/// let (_, again) = c.query(3, 7);              // repeat is free
/// assert_eq!(again.touched, 0);
/// ```
#[derive(Debug, Clone)]
pub struct CrackerColumn {
    /// `(key, rowid)` pairs, partially ordered by the crack index.
    entries: Vec<(i64, RowId)>,
    /// Boundary key → position: entries[..pos] < key, entries[pos..] >= key.
    index: BTreeMap<i64, usize>,
    /// Pending inserts not yet merged into `entries`.
    pending_inserts: Vec<(i64, RowId)>,
    /// Pending deletes (by rowid) not yet applied.
    pending_deletes: Vec<(i64, RowId)>,
    /// Cumulative tuples touched by all cracking work.
    total_touched: usize,
}

impl CrackerColumn {
    /// Build from a column of keys; rowid = position.
    pub fn new(keys: &[i64]) -> Self {
        CrackerColumn {
            entries: keys.iter().copied().zip(0..).collect(),
            index: BTreeMap::new(),
            pending_inserts: Vec::new(),
            pending_deletes: Vec::new(),
            total_touched: 0,
        }
    }

    /// Build over the `INT` column `column` of `table` (rowid = row
    /// position). The caller owns the result: cracking mutates it on every
    /// query.
    pub fn over(table: &Table, column: &str) -> Result<Self> {
        Ok(CrackerColumn::new(&table.int_keys(column, "cracking")?))
    }

    /// Number of live entries (excluding pending deletes, including pending
    /// inserts).
    pub fn len(&self) -> usize {
        self.entries.len() + self.pending_inserts.len() - self.pending_deletes.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of pieces the column is currently cracked into.
    pub fn pieces(&self) -> usize {
        self.index.len() + 1
    }

    /// Cumulative tuples touched by cracking since creation.
    pub fn total_touched(&self) -> usize {
        self.total_touched
    }

    /// Queue an insert; merged lazily by the next query covering `key`.
    pub fn insert(&mut self, key: i64, rid: RowId) {
        self.pending_inserts.push((key, rid));
    }

    /// Queue a delete of `(key, rid)`; applied lazily.
    pub fn delete(&mut self, key: i64, rid: RowId) {
        self.pending_deletes.push((key, rid));
    }

    /// Range query `[lo, hi]` (inclusive): cracks the touched pieces, merges
    /// intersecting pending updates, and returns matching row ids plus stats.
    pub fn query(&mut self, lo: i64, hi: i64) -> (Vec<RowId>, CrackStats) {
        let mut touched = 0usize;
        let merged = self.merge_pending(lo, hi, &mut touched);
        if lo > hi {
            return (
                Vec::new(),
                CrackStats {
                    touched,
                    result_rows: 0,
                    pieces: self.pieces(),
                    merged_updates: merged,
                },
            );
        }
        let start = self.crack(lo, &mut touched);
        // Crack at hi+1 so [start, end) is exactly keys in [lo, hi]. Guard
        // against overflow at i64::MAX (then the range extends to the end).
        let end = if hi == i64::MAX {
            self.entries.len()
        } else {
            self.crack(hi + 1, &mut touched)
        };
        let rows: Vec<RowId> = self.entries[start..end].iter().map(|&(_, r)| r).collect();
        self.total_touched += touched;
        (
            rows,
            CrackStats {
                touched,
                result_rows: end - start,
                pieces: self.pieces(),
                merged_updates: merged,
            },
        )
    }

    /// Crack at `v`: ensure a boundary exists at key `v`, returning its
    /// position. Touches only the enclosing piece.
    fn crack(&mut self, v: i64, touched: &mut usize) -> usize {
        if let Some(&pos) = self.index.get(&v) {
            return pos;
        }
        let piece_start = self
            .index
            .range(..=v)
            .next_back()
            .map(|(_, &p)| p)
            .unwrap_or(0);
        let piece_end = self
            .index
            .range(v + 1..)
            .next()
            .map(|(_, &p)| p)
            .unwrap_or(self.entries.len());
        // Hoare-style partition of the piece: < v left, >= v right.
        let piece = &mut self.entries[piece_start..piece_end];
        *touched += piece.len();
        let mut i = 0usize;
        let mut j = piece.len();
        while i < j {
            if piece[i].0 < v {
                i += 1;
            } else {
                j -= 1;
                piece.swap(i, j);
            }
        }
        let pos = piece_start + i;
        self.index.insert(v, pos);
        pos
    }

    /// Merge pending inserts/deletes whose key intersects `[lo, hi]`.
    ///
    /// Inserts splice into the correct piece (positions after the splice
    /// shift right); deletes remove the first matching `(key, rid)` entry.
    /// Returns the number of updates merged.
    fn merge_pending(&mut self, lo: i64, hi: i64, touched: &mut usize) -> usize {
        let mut merged = 0usize;

        let ins: Vec<(i64, RowId)> = {
            let (take, keep): (Vec<_>, Vec<_>) = self
                .pending_inserts
                .drain(..)
                .partition(|&(k, _)| k >= lo && k <= hi);
            self.pending_inserts = keep;
            take
        };
        for (k, rid) in ins {
            // Insert at the start of the piece that owns k (any position
            // within the piece is valid since pieces are unsorted).
            let pos = self
                .index
                .range(..=k)
                .next_back()
                .map(|(_, &p)| p)
                .unwrap_or(0);
            self.entries.insert(pos, (k, rid));
            *touched += self.entries.len() - pos;
            for p in self.index.values_mut() {
                if *p > pos {
                    *p += 1;
                }
            }
            // Boundaries exactly at `pos` with key > k must also shift.
            let bump: Vec<i64> = self
                .index
                .iter()
                .filter(|&(&bk, &bp)| bp == pos && bk > k)
                .map(|(&bk, _)| bk)
                .collect();
            for bk in bump {
                *self.index.get_mut(&bk).expect("key just seen") += 1;
            }
            merged += 1;
        }

        let dels: Vec<(i64, RowId)> = {
            let (take, keep): (Vec<_>, Vec<_>) = self
                .pending_deletes
                .drain(..)
                .partition(|&(k, _)| k >= lo && k <= hi);
            self.pending_deletes = keep;
            take
        };
        for (k, rid) in dels {
            if let Some(pos) = self.entries.iter().position(|&(ek, er)| ek == k && er == rid) {
                self.entries.remove(pos);
                *touched += self.entries.len().saturating_sub(pos) + 1;
                for p in self.index.values_mut() {
                    if *p > pos {
                        *p -= 1;
                    }
                }
                merged += 1;
            }
        }
        merged
    }

    /// Check the cracker invariant: for every boundary `(k, p)`, all entries
    /// left of `p` are `< k` and all at/right of `p` are `>= k`.
    pub fn check_invariant(&self) -> bool {
        for (&k, &p) in &self.index {
            if p > self.entries.len() {
                return false;
            }
            if self.entries[..p].iter().any(|&(e, _)| e >= k) {
                return false;
            }
            if self.entries[p..].iter().any(|&(e, _)| e < k) {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AdaptiveMergeIndex;
    use rqp_common::{DataType, Schema, Value};

    fn keys() -> Vec<i64> {
        // deterministic shuffle of 0..100
        (0..100).map(|i| (i * 37) % 100).collect()
    }

    fn expected(lo: i64, hi: i64) -> Vec<RowId> {
        let mut v: Vec<RowId> = keys()
            .iter()
            .enumerate()
            .filter(|(_, &k)| k >= lo && k <= hi)
            .map(|(r, _)| r)
            .collect();
        v.sort_unstable();
        v
    }

    fn sorted(mut v: Vec<RowId>) -> Vec<RowId> {
        v.sort_unstable();
        v
    }

    #[test]
    fn first_query_touches_everything() {
        let mut c = CrackerColumn::new(&keys());
        let (rows, st) = c.query(10, 19);
        assert_eq!(sorted(rows), expected(10, 19));
        assert_eq!(st.result_rows, 10);
        assert!(st.touched >= 100, "first crack scans the whole column");
        assert!(c.check_invariant());
    }

    #[test]
    fn repeat_query_touches_nothing() {
        let mut c = CrackerColumn::new(&keys());
        c.query(10, 19);
        let before = c.total_touched();
        let (rows, st) = c.query(10, 19);
        assert_eq!(sorted(rows), expected(10, 19));
        assert_eq!(st.touched, 0, "boundaries already exist");
        assert_eq!(c.total_touched(), before);
    }

    #[test]
    fn converges_with_more_queries() {
        let mut c = CrackerColumn::new(&keys());
        let mut last_touch = usize::MAX;
        for q in 0..5 {
            let lo = q * 17 % 80;
            let (_, st) = c.query(lo, lo + 9);
            assert!(c.check_invariant(), "invariant broken after query {q}");
            assert!(st.touched <= last_touch.max(100));
            last_touch = st.touched;
        }
        assert!(c.pieces() > 5);
    }

    #[test]
    fn empty_and_inverted_ranges() {
        let mut c = CrackerColumn::new(&keys());
        let (rows, _) = c.query(200, 300);
        assert!(rows.is_empty());
        let (rows, st) = c.query(50, 40);
        assert!(rows.is_empty());
        assert_eq!(st.result_rows, 0);
        assert!(c.check_invariant());
    }

    #[test]
    fn extreme_bounds() {
        let mut c = CrackerColumn::new(&keys());
        let (rows, _) = c.query(i64::MIN, i64::MAX);
        assert_eq!(rows.len(), 100);
        assert!(c.check_invariant());
    }

    #[test]
    fn pending_insert_merges_on_covering_query() {
        let mut c = CrackerColumn::new(&keys());
        c.query(10, 19);
        c.insert(15, 1000);
        // A query not covering 15 leaves it pending.
        let (rows, st) = c.query(30, 39);
        assert!(!rows.contains(&1000));
        assert_eq!(st.merged_updates, 0);
        // A covering query merges and returns it.
        let (rows, st) = c.query(10, 19);
        assert!(rows.contains(&1000));
        assert_eq!(st.merged_updates, 1);
        assert!(c.check_invariant());
        assert_eq!(c.len(), 101);
    }

    #[test]
    fn pending_delete_applies_lazily() {
        let mut c = CrackerColumn::new(&keys());
        c.query(0, 99);
        // key 42 is at rowid r where keys()[r] == 42
        let rid = keys().iter().position(|&k| k == 42).unwrap();
        c.delete(42, rid);
        let (rows, st) = c.query(40, 45);
        assert!(!rows.contains(&rid));
        assert_eq!(st.merged_updates, 1);
        assert!(c.check_invariant());
        assert_eq!(c.len(), 99);
    }

    #[test]
    fn insert_then_crack_across_boundary() {
        let mut c = CrackerColumn::new(&keys());
        c.query(20, 29);
        c.query(60, 69);
        c.insert(25, 500);
        c.insert(65, 501);
        let (rows, _) = c.query(0, 99);
        assert_eq!(rows.len(), 102);
        assert!(rows.contains(&500) && rows.contains(&501));
        assert!(c.check_invariant());
    }

    #[test]
    fn single_value_range() {
        let mut c = CrackerColumn::new(&keys());
        let (rows, _) = c.query(7, 7);
        assert_eq!(rows.len(), 1);
        assert_eq!(keys()[rows[0]], 7);
    }

    fn table() -> Table {
        let schema = Schema::from_pairs(&[("k", DataType::Int), ("v", DataType::Float)]);
        let mut t = Table::new("t", schema);
        for i in 0..50 {
            t.append(vec![Value::Int(i), Value::Float(i as f64)]);
        }
        t
    }

    #[test]
    fn cracker_and_amerge_over_a_table_column() {
        let t = table();
        let (rows, _) = CrackerColumn::over(&t, "k").unwrap().query(10, 19);
        assert_eq!(sorted(rows), (10..20).collect::<Vec<_>>());
        let (rows, _) = AdaptiveMergeIndex::over(&t, "t.k", 8).unwrap().query(10, 19);
        assert_eq!(sorted(rows), (10..20).collect::<Vec<_>>(), "qualified names accepted");
    }

    #[test]
    fn cracker_requires_int_column() {
        let t = table();
        assert!(CrackerColumn::over(&t, "v").is_err());
        assert!(AdaptiveMergeIndex::over(&t, "v", 4).is_err());
        assert!(CrackerColumn::over(&t, "missing").is_err());
    }
}
