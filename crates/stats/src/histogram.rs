//! Equi-width and equi-depth histograms over numeric columns.
//!
//! Both expose the same [`Histogram`] interface: estimate the selectivity of
//! a half-open range `[lo, hi]` (inclusive bounds, as produced by range
//! predicates) or an equality point. Within a bucket the continuous-uniform
//! assumption applies — exactly the assumption whose failure under skew the
//! black-hat experiments (E22) exploit.

use rqp_storage::{ColumnData, Groups};

/// Common interface of the numeric histograms.
pub trait Histogram {
    /// Total rows summarized.
    fn total_rows(&self) -> f64;

    /// Estimated fraction of rows with value in `[lo, hi]` (inclusive).
    /// Unbounded sides are expressed with `f64::NEG_INFINITY` /
    /// `f64::INFINITY`.
    fn range_selectivity(&self, lo: f64, hi: f64) -> f64;

    /// Estimated fraction of rows equal to `v`.
    fn eq_selectivity(&self, v: f64) -> f64;
}

/// A histogram with fixed-width buckets.
#[derive(Debug, Clone)]
pub struct EquiWidthHistogram {
    min: f64,
    max: f64,
    counts: Vec<f64>,
    total: f64,
    /// Distinct values per bucket (for equality estimates).
    distinct: Vec<f64>,
}

impl EquiWidthHistogram {
    /// Build from values with `buckets` equal-width buckets.
    pub fn build(values: &[f64], buckets: usize) -> Self {
        assert!(buckets > 0, "need at least one bucket");
        if values.is_empty() {
            return EquiWidthHistogram {
                min: 0.0,
                max: 0.0,
                counts: vec![0.0; buckets],
                total: 0.0,
                distinct: vec![0.0; buckets],
            };
        }
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let width = ((max - min) / buckets as f64).max(f64::MIN_POSITIVE);
        let mut counts = vec![0.0; buckets];
        let mut sets: Vec<std::collections::BTreeSet<u64>> =
            vec![std::collections::BTreeSet::new(); buckets];
        for &v in values {
            let b = (((v - min) / width) as usize).min(buckets - 1);
            counts[b] += 1.0;
            sets[b].insert(v.to_bits());
        }
        EquiWidthHistogram {
            min,
            max,
            counts,
            total: values.len() as f64,
            distinct: sets.iter().map(|s| s.len() as f64).collect(),
        }
    }

    fn bucket_bounds(&self, b: usize) -> (f64, f64) {
        let width = (self.max - self.min) / self.counts.len() as f64;
        (self.min + b as f64 * width, self.min + (b + 1) as f64 * width)
    }
}

impl Histogram for EquiWidthHistogram {
    fn total_rows(&self) -> f64 {
        self.total
    }

    fn range_selectivity(&self, lo: f64, hi: f64) -> f64 {
        if self.total == 0.0 || lo > hi {
            return 0.0;
        }
        let mut rows = 0.0;
        for (b, &c) in self.counts.iter().enumerate() {
            let (blo, bhi) = self.bucket_bounds(b);
            let ov_lo = lo.max(blo);
            let ov_hi = hi.min(bhi);
            if ov_hi <= ov_lo {
                // Degenerate bucket (width 0) still matches if point inside.
                if (bhi - blo) == 0.0 && lo <= blo && blo <= hi {
                    rows += c;
                }
                continue;
            }
            let frac = ((ov_hi - ov_lo) / (bhi - blo)).clamp(0.0, 1.0);
            rows += c * frac;
        }
        (rows / self.total).clamp(0.0, 1.0)
    }

    fn eq_selectivity(&self, v: f64) -> f64 {
        if self.total == 0.0 || v < self.min || v > self.max {
            return 0.0;
        }
        let buckets = self.counts.len();
        let width = ((self.max - self.min) / buckets as f64).max(f64::MIN_POSITIVE);
        let b = (((v - self.min) / width) as usize).min(buckets - 1);
        let d = self.distinct[b].max(1.0);
        (self.counts[b] / d / self.total).clamp(0.0, 1.0)
    }
}

/// A histogram with (approximately) equal row counts per bucket.
///
/// Bucket boundaries are quantiles of the build sample; skewed data thus gets
/// fine buckets where it is dense — the classic mitigation the seminar's
/// estimation sessions assume as baseline.
#[derive(Debug, Clone)]
pub struct EquiDepthHistogram {
    /// `bounds.len() == buckets + 1`; bucket b covers [bounds[b], bounds[b+1]].
    bounds: Vec<f64>,
    counts: Vec<f64>,
    distinct: Vec<f64>,
    total: f64,
}

impl EquiDepthHistogram {
    /// Build from values with at most `buckets` quantile buckets.
    pub fn build(values: &[f64], buckets: usize) -> Self {
        let groups = Groups::of(&ColumnData::Float(values.to_vec()), None).expect("floats group");
        let ColumnData::Float(keys) = &groups.keys else { unreachable!("float keys") };
        Self::from_runs(keys, &groups.offsets, buckets)
    }

    /// [`build`](Self::build) from a column's runs of equal values, as the
    /// grouping kernel ([`Groups`]) cuts them: `values` strictly ascending
    /// under `f64::total_cmp`, value `k` held by `offsets[k + 1] -
    /// offsets[k]` rows. A bucket never splits a run, and its distinct
    /// count is its number of runs — bit patterns, as `ndv` counts them.
    /// O(runs), whatever the row count.
    pub fn from_runs(values: &[f64], offsets: &[u32], buckets: usize) -> Self {
        assert!(buckets > 0, "need at least one bucket");
        debug_assert_eq!(offsets.len(), values.len() + 1);
        debug_assert!(values.windows(2).all(|w| w[0].total_cmp(&w[1]).is_lt()));
        if values.is_empty() {
            return EquiDepthHistogram {
                bounds: vec![0.0, 0.0],
                counts: vec![0.0],
                distinct: vec![0.0],
                total: 0.0,
            };
        }
        let n = offsets[values.len()] as usize;
        let per = (n as f64 / buckets as f64).ceil().max(1.0) as usize;
        let mut bounds = vec![values[0]];
        let mut counts = Vec::new();
        let mut distinct = Vec::new();
        let mut first = 0usize;
        while first < values.len() {
            // The bucket takes `per` rows and the rest of the run its last
            // row falls in.
            let target = (offsets[first] as usize + per).min(n) as u32;
            let mut last = first;
            while offsets[last + 1] < target {
                last += 1;
            }
            counts.push((offsets[last + 1] - offsets[first]) as f64);
            distinct.push((last + 1 - first) as f64);
            bounds.push(values[last]);
            first = last + 1;
        }
        EquiDepthHistogram { bounds, counts, distinct, total: n as f64 }
    }
}

impl Histogram for EquiDepthHistogram {
    fn total_rows(&self) -> f64 {
        self.total
    }

    fn range_selectivity(&self, lo: f64, hi: f64) -> f64 {
        if self.total == 0.0 || lo > hi {
            return 0.0;
        }
        let mut rows = 0.0;
        for b in 0..self.counts.len() {
            let blo = self.bounds[b];
            let bhi = self.bounds[b + 1];
            if hi < blo || lo > bhi {
                continue;
            }
            if bhi == blo {
                rows += self.counts[b];
                continue;
            }
            let ov_lo = lo.max(blo);
            let ov_hi = hi.min(bhi);
            let frac = ((ov_hi - ov_lo) / (bhi - blo)).clamp(0.0, 1.0);
            rows += self.counts[b] * frac;
        }
        (rows / self.total).clamp(0.0, 1.0)
    }

    fn eq_selectivity(&self, v: f64) -> f64 {
        if self.total == 0.0 {
            return 0.0;
        }
        for b in 0..self.counts.len() {
            let blo = self.bounds[b];
            let bhi = self.bounds[b + 1];
            if v >= blo && v <= bhi {
                return (self.counts[b] / self.distinct[b].max(1.0) / self.total)
                    .clamp(0.0, 1.0);
            }
        }
        0.0
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn uniform() -> Vec<f64> {
        (0..1000).map(|i| i as f64).collect()
    }

    fn skewed() -> Vec<f64> {
        // 900 values at 0..10, 100 spread over 10..1000
        let mut v: Vec<f64> = (0..900).map(|i| (i % 10) as f64).collect();
        v.extend((0..100).map(|i| 10.0 + i as f64 * 9.9));
        v
    }

    #[test]
    fn equiwidth_uniform_range() {
        let h = EquiWidthHistogram::build(&uniform(), 20);
        let s = h.range_selectivity(0.0, 249.0);
        assert!((s - 0.25).abs() < 0.02, "got {s}");
        assert_eq!(h.total_rows(), 1000.0);
    }

    #[test]
    fn equiwidth_out_of_domain() {
        let h = EquiWidthHistogram::build(&uniform(), 20);
        assert_eq!(h.eq_selectivity(-5.0), 0.0);
        assert_eq!(h.eq_selectivity(2000.0), 0.0);
        assert_eq!(h.range_selectivity(5.0, 1.0), 0.0, "inverted range");
        assert!(h.range_selectivity(f64::NEG_INFINITY, f64::INFINITY) > 0.99);
    }

    #[test]
    fn equiwidth_eq_estimate() {
        let h = EquiWidthHistogram::build(&uniform(), 10);
        let s = h.eq_selectivity(500.0);
        assert!((s - 0.001).abs() < 0.0005, "got {s}");
    }

    #[test]
    fn equidepth_handles_skew_better() {
        let data = skewed();
        let true_sel = data.iter().filter(|&&v| v <= 5.0).count() as f64 / data.len() as f64;
        let ew = EquiWidthHistogram::build(&data, 10);
        let ed = EquiDepthHistogram::build(&data, 10);
        let ew_err = (ew.range_selectivity(0.0, 5.0) - true_sel).abs();
        let ed_err = (ed.range_selectivity(0.0, 5.0) - true_sel).abs();
        assert!(
            ed_err < ew_err,
            "equi-depth ({ed_err:.4}) should beat equi-width ({ew_err:.4}) under skew"
        );
    }

    #[test]
    fn equidepth_duplicates_not_split() {
        let data = vec![7.0; 100];
        let h = EquiDepthHistogram::build(&data, 4);
        assert!((h.eq_selectivity(7.0) - 1.0).abs() < 1e-9);
        assert!((h.range_selectivity(7.0, 7.0) - 1.0).abs() < 1e-9);
        assert_eq!(h.eq_selectivity(8.0), 0.0);
    }

    #[test]
    fn empty_histograms() {
        let ew = EquiWidthHistogram::build(&[], 5);
        let ed = EquiDepthHistogram::build(&[], 5);
        assert_eq!(ew.range_selectivity(0.0, 1.0), 0.0);
        assert_eq!(ed.range_selectivity(0.0, 1.0), 0.0);
        assert_eq!(ew.total_rows(), 0.0);
    }

    #[test]
    fn selectivities_bounded() {
        let h = EquiDepthHistogram::build(&uniform(), 7);
        for (lo, hi) in [(0.0, 999.0), (-1e9, 1e9), (500.0, 500.0), (100.0, 101.0)] {
            let s = h.range_selectivity(lo, hi);
            assert!((0.0..=1.0).contains(&s), "sel {s} out of [0,1]");
        }
    }

    /// Floats whose handling a sort change could move: both zeros, NaNs of
    /// either sign and differing payloads, infinities, duplicates.
    pub(crate) fn awkward_floats() -> Vec<f64> {
        let nan_payload = f64::from_bits(f64::NAN.to_bits() | 0xbeef);
        let mut v = vec![0.0, -0.0, f64::NAN, -f64::NAN, nan_payload, f64::INFINITY];
        v.extend([f64::NEG_INFINITY, -0.0, 0.0, 1.5, 1.5, -7.25, f64::NAN]);
        v.extend((0..40).map(|i| ((i * 7) % 11) as f64 - 3.0));
        v
    }

    impl EquiDepthHistogram {
        /// Every field's bits, NaN payloads and zero signs included.
        pub(crate) fn bits(&self) -> Vec<u64> {
            let fields = [&self.bounds, &self.counts, &self.distinct, &vec![self.total]];
            fields.iter().flat_map(|f| f.iter().map(|x| x.to_bits())).collect()
        }

        /// Distinct values summed over the buckets.
        pub(crate) fn distinct_total(&self) -> f64 {
            self.distinct.iter().sum()
        }
    }

    /// The comparison-sort reference: the histogram cut from values
    /// ascending under `f64::total_cmp`, one element at a time, with runs of
    /// equal bit patterns kept whole.
    pub(crate) fn from_sorted(sorted: &[f64], buckets: usize) -> EquiDepthHistogram {
        assert!(sorted.windows(2).all(|w| w[0].total_cmp(&w[1]).is_le()));
        if sorted.is_empty() {
            return EquiDepthHistogram::from_runs(&[], &[0], buckets);
        }
        let same = |a: f64, b: f64| a.to_bits() == b.to_bits();
        let n = sorted.len();
        let per = (n as f64 / buckets as f64).ceil().max(1.0) as usize;
        let mut bounds = vec![sorted[0]];
        let mut counts = Vec::new();
        let mut distinct = Vec::new();
        let mut i = 0usize;
        while i < n {
            let mut j = (i + per).min(n);
            while j < n && same(sorted[j], sorted[j - 1]) {
                j += 1;
            }
            counts.push((j - i) as f64);
            let runs = 1 + (i + 1..j).filter(|&k| !same(sorted[k], sorted[k - 1])).count();
            distinct.push(runs as f64);
            bounds.push(sorted[j - 1]);
            i = j;
        }
        EquiDepthHistogram { bounds, counts, distinct, total: n as f64 }
    }

    #[test]
    fn from_sorted_is_bit_identical_to_build() {
        let vals = awkward_floats();
        let mut sorted = vals.clone();
        sorted.sort_by(f64::total_cmp);
        for buckets in [1, 3, 8, 64] {
            let a = EquiDepthHistogram::build(&vals, buckets);
            assert_eq!(a.bits(), from_sorted(&sorted, buckets).bits(), "buckets={buckets}");
        }
        // -0.0 sorts before 0.0 and negative NaNs before everything: the
        // first bound keeps the sign and payload it had.
        let h = EquiDepthHistogram::build(&vals, 4);
        assert_eq!(h.bounds[0].to_bits(), (-f64::NAN).to_bits());
    }

    #[test]
    fn distinct_means_distinct_bit_patterns() {
        // -0.0 and 0.0 are two values, as `ndv` counts them; two NaNs of
        // one payload are one.
        let zeros = EquiDepthHistogram::build(&[-0.0, 0.0], 1);
        assert_eq!((zeros.counts.clone(), zeros.distinct.clone()), (vec![2.0], vec![2.0]));
        let nans = EquiDepthHistogram::build(&[f64::NAN, f64::NAN], 1);
        assert_eq!((nans.counts.clone(), nans.distinct.clone()), (vec![2.0], vec![1.0]));
        // A run is never split: two NaNs stay in one bucket of two.
        let nans = EquiDepthHistogram::build(&[f64::NAN, f64::NAN], 2);
        assert_eq!(nans.counts, vec![2.0]);
        // …while -0.0 and 0.0 are two runs a bucket boundary may cut.
        let zeros = EquiDepthHistogram::build(&[-0.0, 0.0], 2);
        assert_eq!((zeros.counts, zeros.distinct), (vec![1.0, 1.0], vec![1.0, 1.0]));
    }
}
