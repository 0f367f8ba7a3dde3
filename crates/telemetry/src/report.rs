//! Structured run reports.
//!
//! A [`RunReport`] is the JSON document an experiment run leaves behind in
//! `exp_output/`: which experiment, which configuration, the cost-clock
//! breakdown, the full span list (from which the trace tree is
//! reconstructible), and every metric. Reports are deterministic — same
//! seed, same report — so they diff cleanly across commits, which is the
//! regression-detection story for the robustness experiments.

use crate::json::Json;
use crate::metrics::{bucket_quantile, MetricValue, MetricsSnapshot};
use crate::span::{SpanEvent, SpanSnapshot};
use crate::trace::TraceTree;
use rqp_common::CostBreakdown;
use std::io;
use std::path::{Path, PathBuf};

/// Schema version stamped into every report; bump on breaking changes.
///
/// * v1 — config, cost breakdown, spans, metrics.
/// * v2 — adds `rng` seed streams, per-span `events`, and histogram
///   p50/p95/p99 quantile bounds.
pub const SCHEMA_VERSION: u32 = 2;

/// Everything one experiment run leaves behind.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Experiment name, e.g. `"e01_pop_aggregate"`.
    pub experiment: String,
    /// Configuration labels, e.g. `[("mode", "fast"), ("seed", "42")]`.
    pub config: Vec<(String, String)>,
    /// Every named RNG stream the run drew from, as `(stream, seed)` — the
    /// report alone is enough to reproduce the run.
    pub rng: Vec<(String, u64)>,
    /// Final cost-clock breakdown.
    pub cost: CostBreakdown,
    /// Every span collected during the run, in open order.
    pub spans: Vec<SpanSnapshot>,
    /// Every metric, in registration order.
    pub metrics: MetricsSnapshot,
}

impl RunReport {
    /// A report with the given name and no observations yet.
    pub fn new(experiment: &str) -> RunReport {
        RunReport {
            experiment: experiment.to_string(),
            config: Vec::new(),
            rng: Vec::new(),
            cost: CostBreakdown::default(),
            spans: Vec::new(),
            metrics: Vec::new(),
        }
    }

    /// Add a configuration label.
    pub fn with_config(mut self, key: &str, value: &str) -> RunReport {
        self.config.push((key.to_string(), value.to_string()));
        self
    }

    /// Record a named RNG stream's seed.
    pub fn with_seed(mut self, stream: &str, seed: u64) -> RunReport {
        self.rng.push((stream.to_string(), seed));
        self
    }

    /// Every adaptive-decision event across all spans, as
    /// `(span_id, event)`, ordered by firing position on the cost clock.
    pub fn events(&self) -> Vec<(usize, SpanEvent)> {
        let mut all: Vec<(usize, SpanEvent)> = self
            .spans
            .iter()
            .flat_map(|s| s.events.iter().map(move |e| (s.id, e.clone())))
            .collect();
        all.sort_by(|a, b| a.1.at.total_cmp(&b.1.at).then(a.0.cmp(&b.0)));
        all
    }

    /// The trace tree assembled from the report's spans.
    pub fn trace(&self) -> TraceTree {
        TraceTree::assemble(&self.spans)
    }

    /// Serialize to a [`Json`] document.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema_version", Json::num(SCHEMA_VERSION as f64)),
            ("experiment", Json::str(&self.experiment)),
            (
                "config",
                Json::Obj(
                    self.config
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::str(v)))
                        .collect(),
                ),
            ),
            (
                "rng",
                Json::Obj(
                    self.rng
                        .iter()
                        // Seeds are serialized as strings: u64 values (e.g.
                        // from child_seed) exceed f64's integer range, and a
                        // recorded seed that lost its low bits could not
                        // reproduce the run.
                        .map(|(stream, seed)| (stream.clone(), Json::str(&seed.to_string())))
                        .collect(),
                ),
            ),
            (
                "cost",
                Json::obj(vec![
                    ("seq_io", Json::num(self.cost.seq_io)),
                    ("rand_io", Json::num(self.cost.rand_io)),
                    ("cpu", Json::num(self.cost.cpu)),
                    ("spill", Json::num(self.cost.spill)),
                    ("total", Json::num(self.cost.total())),
                ]),
            ),
            (
                "spans",
                Json::Arr(self.spans.iter().map(span_to_json).collect()),
            ),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|(name, v)| (name.clone(), metric_to_json(v)))
                        .collect(),
                ),
            ),
        ])
    }

    /// Parse a report back from JSON text. Reports errors for malformed
    /// documents, wrong schema versions and missing fields.
    pub fn from_json(text: &str) -> Result<RunReport, String> {
        let doc = Json::parse(text)?;
        let version = doc
            .get("schema_version")
            .and_then(Json::as_num)
            .ok_or("missing schema_version")?;
        if version as u32 != SCHEMA_VERSION {
            return Err(format!(
                "schema version {version} (this build reads {SCHEMA_VERSION})"
            ));
        }
        let experiment = doc
            .get("experiment")
            .and_then(Json::as_str)
            .ok_or("missing experiment")?
            .to_string();
        let config = match doc.get("config") {
            Some(Json::Obj(pairs)) => pairs
                .iter()
                .map(|(k, v)| {
                    Ok((
                        k.clone(),
                        v.as_str().ok_or("non-string config value")?.to_string(),
                    ))
                })
                .collect::<Result<Vec<_>, String>>()?,
            _ => return Err("missing config".to_string()),
        };
        let rng = match doc.get("rng") {
            Some(Json::Obj(pairs)) => pairs
                .iter()
                .map(|(stream, v)| {
                    let seed = v
                        .as_str()
                        .ok_or("non-string rng seed")?
                        .parse::<u64>()
                        .map_err(|e| format!("bad rng seed for {stream}: {e}"))?;
                    Ok((stream.clone(), seed))
                })
                .collect::<Result<Vec<_>, String>>()?,
            _ => return Err("missing rng".to_string()),
        };
        let cost_doc = doc.get("cost").ok_or("missing cost")?;
        let cost_field = |key: &str| -> Result<f64, String> {
            cost_doc
                .get(key)
                .and_then(Json::as_num)
                .ok_or(format!("missing cost.{key}"))
        };
        let cost = CostBreakdown {
            seq_io: cost_field("seq_io")?,
            rand_io: cost_field("rand_io")?,
            cpu: cost_field("cpu")?,
            spill: cost_field("spill")?,
        };
        let spans = doc
            .get("spans")
            .and_then(Json::as_arr)
            .ok_or("missing spans")?
            .iter()
            .map(span_from_json)
            .collect::<Result<Vec<_>, String>>()?;
        let metrics = match doc.get("metrics") {
            Some(Json::Obj(pairs)) => pairs
                .iter()
                .map(|(name, v)| Ok((name.clone(), metric_from_json(v)?)))
                .collect::<Result<Vec<_>, String>>()?,
            _ => return Err("missing metrics".to_string()),
        };
        Ok(RunReport { experiment, config, rng, cost, spans, metrics })
    }

    /// Write the report to `<dir>/<experiment>.json`, creating the
    /// directory if needed. Returns the path written.
    pub fn write_to(&self, dir: &Path) -> io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", self.experiment));
        std::fs::write(&path, self.to_json().pretty())?;
        Ok(path)
    }
}

fn span_to_json(s: &SpanSnapshot) -> Json {
    Json::obj(vec![
        ("id", Json::num(s.id as f64)),
        (
            "parent",
            s.parent.map_or(Json::Null, |p| Json::num(p as f64)),
        ),
        ("kind", Json::str(&s.kind)),
        ("detail", Json::str(&s.detail)),
        ("est_rows", Json::num(s.est_rows)),
        ("rows_out", Json::num(s.rows_out as f64)),
        ("opened_at", Json::num(s.opened_at)),
        ("first_row_at", Json::num(s.first_row_at)),
        ("closed_at", Json::num(s.closed_at)),
        ("mem_granted", Json::num(s.mem_granted)),
        ("spilled_rows", Json::num(s.spilled_rows)),
        ("spill_events", Json::num(s.spill_events as f64)),
        (
            "events",
            Json::Arr(
                s.events
                    .iter()
                    .map(|e| {
                        Json::obj(vec![
                            ("at", Json::num(e.at)),
                            ("kind", Json::str(&e.kind)),
                            ("detail", Json::str(&e.detail)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn span_from_json(doc: &Json) -> Result<SpanSnapshot, String> {
    let num = |key: &str| -> Result<f64, String> {
        doc.get(key)
            .and_then(Json::as_num)
            .ok_or(format!("span missing {key}"))
    };
    let text = |key: &str| -> Result<String, String> {
        doc.get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or(format!("span missing {key}"))
    };
    let events = doc
        .get("events")
        .and_then(Json::as_arr)
        .ok_or("span missing events")?
        .iter()
        .map(|e| {
            Ok(SpanEvent {
                at: e.get("at").and_then(Json::as_num).ok_or("event missing at")?,
                kind: e
                    .get("kind")
                    .and_then(Json::as_str)
                    .ok_or("event missing kind")?
                    .to_string(),
                detail: e
                    .get("detail")
                    .and_then(Json::as_str)
                    .ok_or("event missing detail")?
                    .to_string(),
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    // `parent: null` decodes through as_num as NaN; map it back to None.
    let parent = num("parent")?;
    Ok(SpanSnapshot {
        id: num("id")? as usize,
        parent: if parent.is_nan() { None } else { Some(parent as usize) },
        kind: text("kind")?,
        detail: text("detail")?,
        est_rows: num("est_rows")?,
        rows_out: num("rows_out")? as u64,
        opened_at: num("opened_at")?,
        first_row_at: num("first_row_at")?,
        closed_at: num("closed_at")?,
        mem_granted: num("mem_granted")?,
        spilled_rows: num("spilled_rows")?,
        spill_events: num("spill_events")? as u64,
        events,
    })
}

fn metric_to_json(v: &MetricValue) -> Json {
    match v {
        MetricValue::Counter(n) => Json::obj(vec![
            ("type", Json::str("counter")),
            ("value", Json::num(*n as f64)),
        ]),
        MetricValue::Gauge(x) => Json::obj(vec![
            ("type", Json::str("gauge")),
            ("value", Json::num(*x)),
        ]),
        MetricValue::Histogram { count, sum, max, buckets } => Json::obj(vec![
            ("type", Json::str("histogram")),
            ("count", Json::num(*count as f64)),
            ("sum", Json::num(*sum)),
            ("max", Json::num(*max)),
            // Quantile bounds are derived from the buckets at serialization
            // time (never parsed back), so round-trips stay byte-stable.
            ("p50", Json::num(bucket_quantile(buckets, 0.50))),
            ("p95", Json::num(bucket_quantile(buckets, 0.95))),
            ("p99", Json::num(bucket_quantile(buckets, 0.99))),
            (
                "buckets",
                Json::Arr(
                    buckets
                        .iter()
                        .map(|&(le, c)| {
                            Json::obj(vec![
                                ("le", Json::num(le)),
                                ("count", Json::num(c as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
    }
}

fn metric_from_json(doc: &Json) -> Result<MetricValue, String> {
    let kind = doc
        .get("type")
        .and_then(Json::as_str)
        .ok_or("metric missing type")?;
    let num = |key: &str| -> Result<f64, String> {
        doc.get(key)
            .and_then(Json::as_num)
            .ok_or(format!("metric missing {key}"))
    };
    match kind {
        "counter" => Ok(MetricValue::Counter(num("value")? as u64)),
        "gauge" => Ok(MetricValue::Gauge(num("value")?)),
        "histogram" => {
            let buckets = doc
                .get("buckets")
                .and_then(Json::as_arr)
                .ok_or("histogram missing buckets")?
                .iter()
                .map(|b| {
                    let le = b.get("le").and_then(Json::as_num).ok_or("bucket missing le")?;
                    let c = b
                        .get("count")
                        .and_then(Json::as_num)
                        .ok_or("bucket missing count")?;
                    Ok((le, c as u64))
                })
                .collect::<Result<Vec<_>, String>>()?;
            Ok(MetricValue::Histogram {
                count: num("count")? as u64,
                sum: num("sum")?,
                max: num("max")?,
                buckets,
            })
        }
        other => Err(format!("unknown metric type {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;
    use crate::span::Tracer;
    use rqp_common::{rule, CostClock};

    fn sample_report() -> RunReport {
        let clock = CostClock::default_clock();
        let tracer = Tracer::new();
        let reg = MetricsRegistry::new();
        let join = tracer.open("hash_join", &clock);
        join.set_est_rows(500.0);
        let scan = tracer.open("table_scan", &clock);
        scan.set_parent(join.id());
        scan.set_detail("lineitem");
        clock.charge(&rule::scan(clock.params().pages(1000.0), 1000.0));
        for _ in 0..1000 {
            scan.produced(&clock);
        }
        for _ in 0..420 {
            join.produced(&clock);
        }
        join.record_grant(256.0);
        join.record_spill(128.0);
        join.record_event(&clock, "pop.violation", "cp0 actual=420 range=[450,550]");
        scan.close(&clock);
        join.close(&clock);
        reg.counter("pop.replans").add(2);
        reg.gauge("governor.outstanding").set(64.0);
        reg.histogram("leo.q_error").observe(3.5);
        let mut report = RunReport::new("e99_round_trip")
            .with_config("mode", "fast")
            .with_config("seed", "42")
            .with_seed("workload", 42)
            .with_seed("noise", 1234);
        report.cost = clock.breakdown();
        report.spans = tracer.snapshot();
        report.metrics = reg.snapshot();
        report
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let report = sample_report();
        let text = report.to_json().pretty();
        let back = RunReport::from_json(&text).expect("parse");
        // NaN fields (first_row_at on spans that produced no rows, etc.)
        // break PartialEq; compare a NaN-free projection plus re-serialized
        // text, which must be identical byte-for-byte.
        assert_eq!(back.experiment, report.experiment);
        assert_eq!(back.config, report.config);
        assert_eq!(back.rng, report.rng);
        assert_eq!(back.cost, report.cost);
        assert_eq!(back.metrics, report.metrics);
        assert_eq!(back.spans.len(), report.spans.len());
        assert_eq!(back.spans[0].events, report.spans[0].events);
        assert_eq!(back.to_json().pretty(), text);
    }

    #[test]
    fn events_listing_is_clock_ordered() {
        let report = sample_report();
        let events = report.events();
        assert_eq!(events.len(), 1);
        let (span_id, ev) = &events[0];
        assert_eq!(*span_id, 0, "event fired on the join span");
        assert_eq!(ev.kind, "pop.violation");
    }

    #[test]
    fn histogram_json_carries_quantile_bounds() {
        let report = sample_report();
        let doc = report.to_json();
        let hist = doc.get("metrics").and_then(|m| m.get("leo.q_error")).expect("histogram");
        assert_eq!(hist.get("p50").and_then(Json::as_num), Some(4.0));
        assert_eq!(hist.get("p99").and_then(Json::as_num), Some(4.0));
    }

    #[test]
    fn report_exposes_trace_tree() {
        let report = sample_report();
        let tree = report.trace();
        assert_eq!(tree.roots.len(), 1);
        assert_eq!(tree.roots[0].span.kind, "hash_join");
        assert_eq!(tree.roots[0].children[0].span.detail, "lineitem");
        assert!(tree.render().contains("grant=256"));
    }

    #[test]
    fn schema_version_is_checked() {
        let report = sample_report();
        let text = report
            .to_json()
            .pretty()
            .replace("\"schema_version\": 2", "\"schema_version\": 999");
        let err = RunReport::from_json(&text).unwrap_err();
        assert!(err.contains("schema version"), "{err}");
    }

    #[test]
    fn writes_file_named_after_experiment() {
        let dir = std::env::temp_dir().join("rqp_telemetry_report_test");
        let _ = std::fs::remove_dir_all(&dir);
        let report = sample_report();
        let path = report.write_to(&dir).expect("write");
        assert!(path.ends_with("e99_round_trip.json"));
        let text = std::fs::read_to_string(&path).expect("read");
        let back = RunReport::from_json(&text).expect("parse");
        assert_eq!(back.experiment, "e99_round_trip");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_fields_are_reported() {
        assert!(RunReport::from_json("{}").unwrap_err().contains("schema_version"));
        let no_spans = r#"{"schema_version":2,"experiment":"x","config":{},"rng":{},
            "cost":{"seq_io":0,"rand_io":0,"cpu":0,"spill":0,"total":0},"metrics":{}}"#;
        assert!(RunReport::from_json(no_spans).unwrap_err().contains("spans"));
        let no_rng = r#"{"schema_version":2,"experiment":"x","config":{},
            "cost":{"seq_io":0,"rand_io":0,"cpu":0,"spill":0,"total":0},
            "spans":[],"metrics":{}}"#;
        assert!(RunReport::from_json(no_rng).unwrap_err().contains("rng"));
    }
}
