//! Adaptive merging (Graefe & Kuno, EDBT 2010).
//!
//! Where database cracking refines by *partitioning*, adaptive merging
//! refines by *merging*: the column is first split into sorted runs (the
//! cheap, sequential part of an index build), and each range query then
//! merges only the queried key range out of the runs into a final B-tree.
//! Hot ranges become fully indexed quickly; cold ranges never pay merge
//! cost. The seminar's adaptive-indexing session contrasts the two — E11
//! benchmarks them head to head.

use crate::table::Table;
use crate::RowId;
use rqp_common::Result;
use std::collections::BTreeMap;

/// Statistics for one adaptive-merge query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergeStats {
    /// Entries moved from runs into the merged index by this query.
    pub moved: usize,
    /// Binary-search probes into runs (charged as comparisons).
    pub probes: usize,
    /// Rows returned.
    pub result_rows: usize,
    /// Fraction (0–100) of all entries now in the merged index.
    pub merged_pct: u8,
}

/// An adaptive merge index over `i64` keys.
#[derive(Debug, Clone)]
pub struct AdaptiveMergeIndex {
    /// Sorted runs still holding un-merged entries.
    runs: Vec<Vec<(i64, RowId)>>,
    /// The final merged index.
    merged: BTreeMap<i64, Vec<RowId>>,
    total_entries: usize,
    merged_entries: usize,
    initial_sort_comparisons: usize,
}

impl AdaptiveMergeIndex {
    /// Build from keys, creating sorted runs of `run_size` entries each.
    /// `run_size == 0` defaults to √n runs.
    pub fn new(keys: &[i64], run_size: usize) -> Self {
        let n = keys.len();
        let run_size = if run_size == 0 {
            ((n as f64).sqrt().ceil() as usize).max(1)
        } else {
            run_size
        };
        let mut runs = Vec::with_capacity(n.div_ceil(run_size.max(1)));
        let mut comparisons = 0usize;
        for chunk_start in (0..n).step_by(run_size.max(1)) {
            let end = (chunk_start + run_size).min(n);
            let mut run: Vec<(i64, RowId)> = keys[chunk_start..end]
                .iter()
                .copied()
                .zip(chunk_start..end)
                .collect();
            run.sort_unstable_by_key(|&(k, _)| k);
            // n log n comparisons per run, the "run generation" cost.
            let len = run.len().max(1);
            comparisons += len * (usize::BITS - len.leading_zeros()) as usize;
            runs.push(run);
        }
        AdaptiveMergeIndex {
            runs,
            merged: BTreeMap::new(),
            total_entries: n,
            merged_entries: 0,
            initial_sort_comparisons: comparisons,
        }
    }

    /// Comparisons spent building the initial sorted runs.
    pub fn initial_sort_comparisons(&self) -> usize {
        self.initial_sort_comparisons
    }

    /// Build over the `INT` column `column` of `table` (rowid = row
    /// position), in runs of `run_size` as [`new`](Self::new) cuts them. The
    /// caller owns the result: every query merges into it.
    pub fn over(table: &Table, column: &str, run_size: usize) -> Result<Self> {
        Ok(AdaptiveMergeIndex::new(&table.int_keys(column, "adaptive merging")?, run_size))
    }

    /// Total entries across runs and merged index.
    pub fn len(&self) -> usize {
        self.total_entries
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.total_entries == 0
    }

    /// Fraction of entries already merged into the final index.
    pub fn merged_fraction(&self) -> f64 {
        if self.total_entries == 0 {
            0.0
        } else {
            self.merged_entries as f64 / self.total_entries as f64
        }
    }

    /// Range query `[lo, hi]` inclusive: merges that key range out of every
    /// run into the final index, then answers from the final index.
    pub fn query(&mut self, lo: i64, hi: i64) -> (Vec<RowId>, MergeStats) {
        let mut moved = 0usize;
        let mut probes = 0usize;
        if lo <= hi {
            for run in &mut self.runs {
                if run.is_empty() {
                    continue;
                }
                let start = run.partition_point(|&(k, _)| k < lo);
                let end = run.partition_point(|&(k, _)| k <= hi);
                probes += 2 * (usize::BITS - (run.len().max(1)).leading_zeros()) as usize;
                if start < end {
                    for (k, rid) in run.drain(start..end) {
                        self.merged.entry(k).or_default().push(rid);
                        moved += 1;
                    }
                }
            }
            self.runs.retain(|r| !r.is_empty());
            self.merged_entries += moved;
        }
        let mut rows = Vec::new();
        if lo <= hi {
            for rids in self.merged.range(lo..=hi).map(|(_, r)| r) {
                rows.extend_from_slice(rids);
            }
        }
        let stats = MergeStats {
            moved,
            probes,
            result_rows: rows.len(),
            merged_pct: (self.merged_fraction() * 100.0).round() as u8,
        };
        (rows, stats)
    }

    /// Check consistency: run entries + merged entries == total, runs sorted.
    pub fn check_invariant(&self) -> bool {
        let in_runs: usize = self.runs.iter().map(|r| r.len()).sum();
        if in_runs + self.merged_entries != self.total_entries {
            return false;
        }
        self.runs
            .iter()
            .all(|r| r.windows(2).all(|w| w[0].0 <= w[1].0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys() -> Vec<i64> {
        (0..200).map(|i| (i * 73) % 200).collect()
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
    fn query_returns_correct_rows() {
        let mut a = AdaptiveMergeIndex::new(&keys(), 32);
        let (rows, st) = a.query(50, 79);
        assert_eq!(sorted(rows), expected(50, 79));
        assert_eq!(st.result_rows, 30);
        assert!(a.check_invariant());
    }

    #[test]
    fn repeat_query_moves_nothing() {
        let mut a = AdaptiveMergeIndex::new(&keys(), 32);
        let (_, st1) = a.query(50, 79);
        assert!(st1.moved > 0);
        let (rows, st2) = a.query(50, 79);
        assert_eq!(sorted(rows), expected(50, 79));
        assert_eq!(st2.moved, 0, "range already merged");
    }

    #[test]
    fn overlapping_query_moves_only_new_part() {
        let mut a = AdaptiveMergeIndex::new(&keys(), 32);
        a.query(50, 79);
        let (_, st) = a.query(70, 99);
        assert_eq!(st.moved, 20, "only keys 80..=99 remain unmerged");
        assert!(a.check_invariant());
    }

    #[test]
    fn full_merge_reaches_100_pct() {
        let mut a = AdaptiveMergeIndex::new(&keys(), 0);
        let (rows, st) = a.query(i64::MIN, i64::MAX);
        assert_eq!(rows.len(), 200);
        assert_eq!(st.merged_pct, 100);
        assert!((a.merged_fraction() - 1.0).abs() < 1e-12);
        assert!(a.check_invariant());
    }

    #[test]
    fn inverted_range_is_noop() {
        let mut a = AdaptiveMergeIndex::new(&keys(), 32);
        let (rows, st) = a.query(10, 5);
        assert!(rows.is_empty());
        assert_eq!(st.moved, 0);
    }

    #[test]
    fn duplicates_preserved() {
        let ks = vec![7i64; 10];
        let mut a = AdaptiveMergeIndex::new(&ks, 3);
        let (rows, _) = a.query(7, 7);
        assert_eq!(rows.len(), 10);
        assert!(a.check_invariant());
    }

    #[test]
    fn empty_index() {
        let mut a = AdaptiveMergeIndex::new(&[], 8);
        assert!(a.is_empty());
        let (rows, _) = a.query(0, 10);
        assert!(rows.is_empty());
    }
}
