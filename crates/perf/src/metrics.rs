//! The metric tables (names, units, direction, regression bounds) and the
//! order statistics every figure is reduced with.
//!
//! `BENCHMARK.json` at the repo root lists the same names; the smoke test
//! asserts the two agree, so a metric cannot be renamed in one place only.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// An end-to-end metric: what a user of the service sees, with the share
/// of the base value by which it may worsen before `compare` says
/// `regressed`.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.10,
    },
    EndToEnd {
        name: "lat_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "lat_p90_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "fail_ratio",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.0,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "server_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.15,
    },
];

/// A per-layer metric: no bound, read next to the end-to-end metric it
/// should move (README, "How the metrics interact").
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn layer(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit }
}

pub const PER_LAYER: [PerLayer; 42] = [
    layer("client.submit_ack_ms", "ms"),
    layer("client.frames_per_op", "count"),
    layer("client.first_page_ms", "ms"),
    layer("client.drain_ms", "ms"),
    layer("client.append_ms", "ms"),
    layer("client.poll_ms", "ms"),
    layer("client.lat_p99_ms", "ms"),
    layer("client.lat_drift_ratio", "ratio"),
    layer("client.trace_overhead_ratio", "ratio"),
    layer("net.encode_request_us", "us"),
    layer("net.decode_request_us", "us"),
    layer("net.encode_page_ns_per_row", "ns"),
    layer("net.decode_page_ns_per_row", "ns"),
    layer("net.checksum_ns_per_row", "ns"),
    layer("net.bytes_per_row", "bytes"),
    layer("net.wire_overhead_ms", "ms"),
    layer("server.run_solo_ms", "ms"),
    layer("server.overhead_us", "us"),
    layer("server.plan_cache_hit_ratio", "ratio"),
    layer("server.plan_cache_entries", "count"),
    layer("server.plan_cache_lookup_us", "us"),
    layer("server.rss_growth_kb_per_op", "kB"),
    layer("server.threads_peak", "count"),
    layer("server.leaked", "count"),
    layer("opt.cache_key_us", "us"),
    layer("opt.plan_us", "us"),
    layer("exec.build_run_ms", "ms"),
    layer("exec.ns_per_base_row", "ns"),
    layer("exec.cost_ticks_per_ms", "1/ms"),
    layer("storage.pool_hit_ratio", "ratio"),
    layer("storage.pool_refaults_per_op", "count"),
    layer("storage.pool_evictions_per_op", "count"),
    layer("storage.pool_pin_hit_ns", "ns"),
    layer("storage.pool_pin_refault_ns", "ns"),
    layer("storage.snapshot_to_catalog_us", "us"),
    layer("storage.append_us_per_row", "us"),
    layer("stream.poll_us_per_record", "us"),
    layer("stream.delta_rows_per_record", "count"),
    layer("stream.subscribe_ms", "ms"),
    layer("stream.max_lag", "count"),
    layer("telemetry.publish_ns", "ns"),
    layer("telemetry.recorder_dropped", "count"),
];

/// One measured figure: its reduced value (`None` = the workload does not
/// exercise it) and, where it was reduced from several, the samples.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: Option<f64>,
    pub samples: Vec<f64>,
}

/// Median; NaN for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile over an ascending-sorted slice; NaN when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Distance between the first and third quartile as a share of the median,
/// with the quartiles of Python's `statistics.quantiles(values, n=4)` — the
/// spread the benchmark contract is judged by. 0 below two samples or at a
/// zero median.
pub fn spread(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let mid = median(&v);
    if n < 2 || mid == 0.0 {
        return 0.0;
    }
    let quartile = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (quartile(3) - quartile(1)) / mid.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartile_spread_matches_python() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([3.0, 1.0], n=4) == [0.5, 2.0, 3.5]
        assert!((spread(&[3.0, 1.0]) - 1.5).abs() < 1e-12);
        assert_eq!(spread(&[7.0]), 0.0);
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn names_are_unique_and_contract_shaped() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        assert!(names.iter().all(|n| n.len() <= 64 && n.chars().all(ok)));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }
}
