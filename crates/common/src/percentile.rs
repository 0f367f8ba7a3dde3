//! Nearest-rank percentile, shared by every latency report.

/// Nearest-rank percentile `p` (0–100) over an ascending-sorted slice: the
/// smallest sample with at least `p` percent of the samples at or below it.
/// NaN when there are no samples.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 5.0);
        assert_eq!(percentile(&s, 99.0), 10.0);
        assert_eq!(percentile(&s, 99.9), 10.0);
        assert_eq!(percentile(&s, 0.0), 1.0, "rank clamps to the first sample");
        assert_eq!(percentile(&s, 10.0), 1.0);
        assert_eq!(percentile(&s, 10.1), 2.0);
        assert_eq!(percentile(&[4.0], 50.0), 4.0);
        assert!(percentile(&[], 50.0).is_nan());
    }
}
