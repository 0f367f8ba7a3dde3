//! The optimizer's cost model.
//!
//! Formulas mirror the executor's cost-clock charges operator by operator, so
//! that with *correct* cardinalities the estimated cost equals the charged
//! cost (up to page-rounding). That calibration is deliberate: the seminar's
//! break-outs separate "cardinality model" from "cost model" errors, and this
//! testbed pins the cost model so experiments isolate the cardinality model —
//! the component everyone agrees dominates ("cardinality estimation has the
//! biggest impact, which far eclipses any other decision", Lohman).

use rqp_common::CostModelParams;

/// Cost model parameterized like the executor's clock, plus the memory
/// budget used for spill prediction.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Clock parameters (weights per cost category).
    pub params: CostModelParams,
    /// Workspace budget in rows (mirrors the memory governor).
    pub memory_rows: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel { params: CostModelParams::default(), memory_rows: f64::INFINITY }
    }
}

impl CostModel {
    /// Model with a bounded workspace.
    pub fn with_memory(memory_rows: f64) -> Self {
        CostModel { memory_rows, ..CostModel::default() }
    }

    fn pages(&self, rows: f64) -> f64 {
        (rows / self.params.rows_per_page).ceil().max(0.0)
    }

    /// Effective memory grant (mirrors `MemoryGovernor::grant`).
    fn grant(&self, want: f64) -> f64 {
        want.min(self.memory_rows).max(100.0)
    }

    /// Sequential scan of `rows`.
    pub fn scan(&self, rows: f64) -> f64 {
        self.pages(rows) * self.params.seq_page + rows * self.params.cpu_tuple
    }

    /// Filter applied to `rows` input tuples.
    pub fn filter(&self, rows: f64) -> f64 {
        rows * self.params.cpu_compare
    }

    /// Index scan returning `matched` of `entries` rows.
    pub fn index_scan(&self, entries: f64, matched: f64, clustered: bool) -> f64 {
        let descent = entries.max(2.0).log2() * self.params.cpu_compare;
        let fetch = if clustered {
            self.pages(matched) * self.params.seq_page
        } else {
            matched * self.params.rand_page
        };
        descent + fetch + matched * self.params.cpu_tuple
    }

    /// Hash join: build `build` rows, probe `probe` rows, emit `out`.
    pub fn hash_join(&self, build: f64, probe: f64, out: f64) -> f64 {
        let mut cost = build * self.params.hash_build
            + probe * self.params.hash_probe
            + out * self.params.cpu_tuple;
        let grant = self.grant(build);
        if build > grant {
            let frac = 1.0 - grant / build;
            cost += self.pages(build * frac) * self.params.spill_page;
            cost += self.pages(probe * frac) * self.params.spill_page;
        }
        cost
    }

    /// Merge join over sorted inputs of `l` and `r` rows emitting `out`.
    pub fn merge_join(&self, l: f64, r: f64, out: f64) -> f64 {
        (l + r) * self.params.cpu_compare + out * self.params.cpu_tuple
    }

    /// Full sort of `n` rows (run generation + spill beyond the grant).
    pub fn sort(&self, n: f64) -> f64 {
        if n <= 1.0 {
            return 0.0;
        }
        let mut cost = n * n.log2() * self.params.cpu_compare + n * self.params.cpu_tuple;
        let grant = self.grant(n);
        if n > grant {
            cost += self.pages(n - grant) * self.params.spill_page;
            let runs = (n / grant).ceil().max(2.0);
            cost += n * runs.log2() * self.params.cpu_compare;
        }
        cost
    }

    /// Index-nested-loop join: `outer` probes into an index of `entries`
    /// rows, matching `matches_total` rows overall.
    pub fn index_nl_join(
        &self,
        outer: f64,
        entries: f64,
        matches_total: f64,
        clustered: bool,
    ) -> f64 {
        let descents = outer * entries.max(2.0).log2() * self.params.cpu_compare;
        let fetch = if clustered {
            // ≤ one random page per matching probe (batched per key).
            outer.min(matches_total) * self.params.rand_page
        } else {
            matches_total * self.params.rand_page
        };
        descents + fetch + matches_total * self.params.cpu_tuple
    }

    /// Block-nested-loop join.
    pub fn bnl_join(&self, l: f64, r: f64, out: f64) -> f64 {
        r * self.params.cpu_tuple
            + l * r * self.params.cpu_compare
            + out * self.params.cpu_tuple
    }

    /// Generalized join: run generation for unsorted inputs, then merge.
    pub fn g_join(&self, l: f64, r: f64, out: f64, l_sorted: bool, r_sorted: bool) -> f64 {
        let prep = |n: f64, sorted: bool| -> f64 {
            if n <= 1.0 {
                return 0.0;
            }
            if sorted {
                n * self.params.cpu_compare
            } else {
                self.sort(n)
            }
        };
        prep(l, l_sorted) + prep(r, r_sorted) + self.merge_join(l, r, out)
    }

    /// Hash aggregation of `n` input rows into `groups` output rows.
    pub fn hash_agg(&self, n: f64, groups: f64) -> f64 {
        n * self.params.hash_build + groups * self.params.cpu_tuple
    }

    /// Materialization of `n` rows (CHECK operators, temp results).
    pub fn materialize(&self, n: f64) -> f64 {
        n * self.params.cpu_tuple
    }

    /// Top-N over `n` rows.
    pub fn top_n(&self, n: f64, limit: f64) -> f64 {
        n * (limit.max(2.0).log2() + 1.0) * self.params.cpu_compare
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_matches_executor_formula() {
        let m = CostModel::default();
        // 1000 rows = 10 pages * 1.0 + 1000 * 0.005
        assert!((m.scan(1000.0) - 15.0).abs() < 1e-9);
    }

    #[test]
    fn unclustered_index_beats_scan_only_at_low_selectivity() {
        let m = CostModel::default();
        let entries = 100_000.0;
        let scan = m.scan(entries);
        let cheap = m.index_scan(entries, 100.0, false);
        let expensive = m.index_scan(entries, 50_000.0, false);
        assert!(cheap < scan, "low selectivity: index wins");
        assert!(expensive > scan, "high selectivity: scan wins");
    }

    #[test]
    fn clustered_index_always_at_most_scan() {
        let m = CostModel::default();
        for matched in [10.0, 1000.0, 100_000.0] {
            assert!(m.index_scan(100_000.0, matched, true) <= m.scan(100_000.0) + 1.0);
        }
    }

    #[test]
    fn hash_join_spill_increases_cost() {
        let bounded = CostModel::with_memory(1_000.0);
        let unbounded = CostModel::default();
        let small = bounded.hash_join(500.0, 10_000.0, 10_000.0);
        assert!(
            (small - unbounded.hash_join(500.0, 10_000.0, 10_000.0)).abs() < 1e-9,
            "fits in memory: same cost"
        );
        let big_bounded = bounded.hash_join(50_000.0, 10_000.0, 10_000.0);
        let big_unbounded = unbounded.hash_join(50_000.0, 10_000.0, 10_000.0);
        assert!(big_bounded > big_unbounded);
    }

    #[test]
    fn gjoin_tracks_best_of_both_worlds() {
        let m = CostModel::default();
        let (l, r, out) = (10_000.0, 10_000.0, 10_000.0);
        let g_sorted = m.g_join(l, r, out, true, true);
        let merge = m.merge_join(l, r, out);
        // g-join adds one verification pass of comparisons over merge join.
        assert!((g_sorted - merge) / merge < 0.5, "sorted: ≈ merge join");
        let g_unsorted = m.g_join(l, r, out, false, false);
        let hash = m.hash_join(l, r, out);
        assert!(
            g_unsorted < hash * 6.0,
            "unsorted: within a small factor of hash ({g_unsorted} vs {hash})"
        );
    }

    #[test]
    fn sort_spills_beyond_memory() {
        let m = CostModel::with_memory(1_000.0);
        let fits = m.sort(900.0);
        let spills = m.sort(50_000.0);
        assert!(spills > fits);
        let unbounded = CostModel::default();
        assert!(spills > unbounded.sort(50_000.0));
    }

    #[test]
    fn degenerate_inputs() {
        let m = CostModel::default();
        assert_eq!(m.sort(0.0), 0.0);
        assert_eq!(m.sort(1.0), 0.0);
        assert!(m.scan(0.0) >= 0.0);
        assert!(m.hash_join(0.0, 0.0, 0.0) == 0.0);
    }
}
