//! The cross-run scoreboard: one JSON document summarizing every
//! experiment's robustness numbers.
//!
//! A [`Scoreboard`] folds a directory of [`RunReport`]s into one entry per
//! experiment, computing the seminar's paper metrics (`rqp-metrics`) from
//! the raw observations the reports carry:
//!
//! * **M1** and **C(Q)** from the spans' estimated-vs-actual cardinalities;
//! * **M3** from the reserved `paper.m3.opt` / `paper.m3.best` gauges;
//! * **smoothness S(Q)** from the `paper.perf_gap.*` gauge family (one
//!   gauge per query in a parameterized sweep);
//! * **intrinsic/extrinsic variability** from the `paper.env.*.chosen` /
//!   `paper.env.*.ideal` gauge families (one pair per environment);
//! * adaptive-decision **event counts** and spill volume from the spans.
//!
//! Folding is exactly order-independent: every sample pool is sorted before
//! reduction, so any permutation of the same reports produces a
//! byte-identical scoreboard. [`Scoreboard::diff`] compares two scoreboards
//! under each metric's gate — the CI regression gate.
//!
//! Every metric is one row of `METRICS`: where its number comes from and
//! how far it may move. Folding, the JSON document and the gate all iterate
//! that table, so a new gated gauge is one [`samples`] const plus one row.

use crate::json::Json;
use crate::metrics::MetricValue;
use crate::report::RunReport;
use rqp_metrics::{cardinality_error_geomean, metric1, metric3, smoothness, VariabilityReport};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Version stamped into `scoreboard.json`. Bump it with every change to
/// `METRICS`: `from_json` requires exactly this build's keys, so a board
/// written before a row was added must be refused, not half-read.
pub const SCOREBOARD_VERSION: u32 = 9;

/// Reserved metric names through which experiments publish the raw samples
/// behind paper metrics the scoreboard cannot derive from spans alone.
pub mod samples {
    /// Gauge: `RunTimeOpt` for Metric3.
    pub const M3_OPT: &str = "paper.m3.opt";
    /// Gauge: `RunTimeBest` for Metric3.
    pub const M3_BEST: &str = "paper.m3.best";
    /// Gauge-family prefix: per-query performance gaps `P(qᵢ)` of a sweep,
    /// e.g. `paper.perf_gap.007`. Smoothness `S(Q)` is their CV.
    pub const PERF_GAP_PREFIX: &str = "paper.perf_gap.";
    /// Gauge-family prefix for per-environment costs: `paper.env.<k>.chosen`
    /// and `paper.env.<k>.ideal` feed the variability decomposition.
    pub const ENV_PREFIX: &str = "paper.env.";
    /// Suffix of the chosen-plan cost gauge in an environment pair.
    pub const ENV_CHOSEN: &str = ".chosen";
    /// Suffix of the ideal-plan cost gauge in an environment pair.
    pub const ENV_IDEAL: &str = ".ideal";
    // The gauges below are one `METRICS` row each; the row says which way
    // they fold across runs and how far they may move.
    /// Gauge: headline parallel speedup (total work / critical path at the
    /// experiment's reference worker count, zero skew).
    pub const PARALLEL_SPEEDUP: &str = "paper.parallel.speedup";
    /// Gauge: worst partition-imbalance factor (critical path relative to a
    /// perfectly balanced split).
    pub const PARALLEL_SKEW: &str = "paper.parallel.skew";
    /// Gauge: worst cost ratio between adjacent memory fractions of a chaos
    /// sweep — the steepest "cliff"; smooth degradation stays near 1.
    pub const DEGRADATION_CLIFF: &str = "paper.chaos.degradation_cliff";
    /// Gauge: fraction of chaos-injected queries that completed (after
    /// retries and renegotiation).
    pub const RECOVERY_RATE: &str = "paper.chaos.recovery_rate";
    /// Gauge: worst p99-latency amplification of concurrent over solo
    /// execution across a service sweep (`p99 / solo p99`).
    pub const TAIL_AMPLIFICATION: &str = "paper.service.tail_amplification";
    /// Gauge: worst p99 admission-queue wait (cost units) across a service sweep.
    pub const ADMISSION_WAIT: &str = "paper.service.admission_wait";
    /// Gauge: worst p99 end-to-end latency amplification over solo execution
    /// across the wire-service sweep.
    pub const WIRE_TAIL_P99: &str = "paper.wire.tail_p99";
    /// Gauge: the same at p99.9.
    pub const WIRE_TAIL_P999: &str = "paper.wire.tail_p999";
    /// Gauge: fraction of mid-query client disconnects whose queries were
    /// fully reaped (slot surrendered, grants returned).
    pub const WIRE_CHURN_RECOVERY: &str = "paper.wire.churn_recovery";
    /// Gauge: peak encoded-but-unsent result pages held for any single query
    /// under a stalled consumer — credit-based paging keeps this at 1.
    pub const WIRE_BACKPRESSURE_PAGES: &str = "paper.wire.backpressure_pages";
    /// Gauge: p99 wire-tail amplification with a live observer attached over
    /// the same workload unobserved — introspection frames bypass admission
    /// and must not perturb the workload's tail.
    pub const OBSERVER_OVERHEAD_P99: &str = "paper.observer.overhead_p99";
    /// Gauge: flight-recorder events the observer requested but lost to ring
    /// overwrite (summed `gap`) — a provisioned recorder loses nothing.
    pub const OBSERVER_EVENT_LOSS: &str = "paper.observer.event_loss";
    /// Gauge: worst wall-clock speedup of the batch execution path over its
    /// row-at-a-time twin on the `a09` sweep (batch plans are charge-
    /// identical, so only elapsed time can show the win).
    pub const BATCH_SPEEDUP: &str = "paper.batch.speedup";
    /// Gauge: worst mean-cost ratio between adjacent page-budget fractions of
    /// the paged-degradation sweep (`a10`) — the buffer pool's steepest cliff.
    pub const PAGED_CLIFF: &str = "paper.paged.degradation_cliff";
    /// Gauge: fraction of queries that completed across the paged sweep's
    /// constrained cells (budget exhaustion and retry-exhausted page I/O
    /// both count as losses).
    pub const PAGED_COMPLETION: &str = "paper.paged.completion_rate";
    /// Gauge: worst p99 per-delta maintenance cost (cost units per applied
    /// delta packet) across the continuous-query sweep (`a11`).
    pub const STREAM_DELTA_P99: &str = "paper.stream.delta_p99";
    /// Gauge: maintained views that diverged from a from-scratch re-execution
    /// anywhere in that sweep — the consistency contract allows exactly zero.
    pub const STREAM_VIEW_DIVERGENCE: &str = "paper.stream.view_divergence";
}

/// Which way a gauge's samples fold across an experiment's runs — always to
/// the worst one observed, whichever direction "worse" is.
#[derive(Clone, Copy)]
enum Fold {
    Min,
    Max,
}

/// Where a metric's number comes from.
enum Source {
    /// The named gauge (a [`samples`] const), folded across runs.
    Gauge(&'static str, Fold),
    /// Computed from the sorted span and paired-gauge [`Pools`].
    Derived(fn(&Pools) -> f64),
}

/// How far a metric may move against a baseline before [`Scoreboard::diff`]
/// reports it. A metric the baseline lacks (NaN) gates nothing; one the
/// baseline has and the current board lacks always trips.
enum Gate {
    /// Reported, never gated.
    Ungated,
    /// `Ceiling(ratio, slack)`: trips above `baseline * ratio + slack`. The
    /// ratio bounds multiplicative growth, the slack absolute growth (for
    /// baselines that are legitimately near zero).
    Ceiling(f64, f64),
    /// `Floor(slack)`: trips below `baseline - slack`.
    Floor(f64),
}

/// One scoreboard metric: its JSON key, its source and its gate.
struct MetricSpec {
    key: &'static str,
    source: Source,
    gate: Gate,
}

const fn row(key: &'static str, source: Source, gate: Gate) -> MetricSpec {
    MetricSpec { key, source, gate }
}

use {Fold::*, Gate::*, Source::*};

/// Every scoreboard metric, in `scoreboard.json` key order.
#[rustfmt::skip]
const METRICS: &[MetricSpec] = &[
    row("m1", Derived(m1), Ceiling(1.25, 0.5)),
    row("m3", Derived(m3), Ceiling(1.0, 0.25)),
    row("smoothness", Derived(smoothness_sq), Ceiling(1.0, 0.25)),
    row("intrinsic", Derived(|p| variability(p, VariabilityReport::intrinsic)), Ungated),
    row("extrinsic", Derived(|p| variability(p, VariabilityReport::extrinsic)), Ceiling(1.0, 0.25)),
    row("max_q_error", Derived(max_q_error), Ceiling(1.5, 0.0)),
    row("card_error_geomean", Derived(card_error_geomean), Ungated),
    // Cost-clock totals summed across runs; spilled rows summed across spans.
    row("total_cost", Derived(|p| p.costs.iter().sum()), Ceiling(1.10, 0.0)),
    row("spilled_rows", Derived(|p| p.spilled.iter().sum()), Ungated),
    row("parallel_speedup", Gauge(samples::PARALLEL_SPEEDUP, Min), Floor(0.25)),
    row("parallel_skew", Gauge(samples::PARALLEL_SKEW, Max), Ceiling(1.0, 0.5)),
    row("degradation_cliff", Gauge(samples::DEGRADATION_CLIFF, Max), Ceiling(1.0, 0.25)),
    row("recovery_rate", Gauge(samples::RECOVERY_RATE, Min), Floor(0.02)),
    row("tail_amplification", Gauge(samples::TAIL_AMPLIFICATION, Max), Ceiling(1.0, 0.5)),
    row("admission_wait", Gauge(samples::ADMISSION_WAIT, Max), Ceiling(1.5, 1.0)),
    row("wire_tail_p99", Gauge(samples::WIRE_TAIL_P99, Max), Ceiling(1.25, 0.5)),
    row("wire_tail_p999", Gauge(samples::WIRE_TAIL_P999, Max), Ceiling(1.25, 0.5)),
    row("wire_churn_recovery", Gauge(samples::WIRE_CHURN_RECOVERY, Min), Floor(0.02)),
    row("wire_backpressure_pages", Gauge(samples::WIRE_BACKPRESSURE_PAGES, Max), Ceiling(1.0, 0.5)),
    row("observer_overhead_p99", Gauge(samples::OBSERVER_OVERHEAD_P99, Max), Ceiling(1.25, 0.5)),
    row("observer_event_loss", Gauge(samples::OBSERVER_EVENT_LOSS, Max), Ceiling(1.0, 0.5)),
    // Wall-clock measurements jitter more than charged costs.
    row("batch_speedup", Gauge(samples::BATCH_SPEEDUP, Min), Floor(0.5)),
    row("paged_cliff", Gauge(samples::PAGED_CLIFF, Max), Ceiling(1.0, 0.25)),
    row("paged_completion", Gauge(samples::PAGED_COMPLETION, Min), Floor(0.02)),
    row("stream_delta_p99", Gauge(samples::STREAM_DELTA_P99, Max), Ceiling(1.25, 1.0)),
    // View consistency is a contract, not a budget: zero slack, so ANY
    // diverged maintained view is a regression.
    row("stream_view_divergence", Gauge(samples::STREAM_VIEW_DIVERGENCE, Max), Ceiling(1.0, 0.0)),
];

fn metric_index(key: &str) -> usize {
    METRICS
        .iter()
        .position(|m| m.key == key)
        .unwrap_or_else(|| panic!("no scoreboard metric named {key:?}"))
}

/// `f` over a pool, or NaN when the experiment published nothing into it.
fn nonempty<T>(pool: &[T], f: impl FnOnce(&[T]) -> f64) -> f64 {
    if pool.is_empty() { f64::NAN } else { f(pool) }
}

/// Nica et al. Metric1: Σ |est − act| / act over estimated spans.
fn m1(p: &Pools) -> f64 {
    nonempty(&p.est_act, metric1)
}

/// Nica et al. Metric3 from the `paper.m3.*` gauge pairs, mean across runs.
fn m3(p: &Pools) -> f64 {
    nonempty(&p.m3_pairs, |ps| {
        ps.iter().map(|&(o, b)| metric3(o, b)).sum::<f64>() / ps.len() as f64
    })
}

/// Sattler et al. smoothness S(Q), from the `paper.perf_gap.*` gauges.
fn smoothness_sq(p: &Pools) -> f64 {
    nonempty(&p.perf_gaps, |gaps| smoothness(&gaps.iter().map(|(_, g)| *g).collect::<Vec<_>>()))
}

/// Intrinsic or extrinsic variability (`pick`) over the `paper.env.*` gauge
/// pairs, paired by environment key; a chosen without an ideal (or vice
/// versa) is dropped.
fn variability(p: &Pools, pick: fn(&VariabilityReport) -> f64) -> f64 {
    let ideals: BTreeMap<&str, f64> = p.env_ideal.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    let pairs: Vec<(f64, f64)> = p
        .env_chosen
        .iter()
        .filter_map(|(k, chosen)| ideals.get(k.as_str()).map(|ideal| (*chosen, *ideal)))
        .collect();
    nonempty(&pairs, |pairs| pick(&VariabilityReport::from_costs(pairs)))
}

/// Worst per-span q-error.
fn max_q_error(p: &Pools) -> f64 {
    nonempty(&p.q_errors, |qs| qs.iter().copied().fold(1.0, f64::max))
}

/// Sattler et al. C(Q): geometric mean of relative cardinality errors.
fn card_error_geomean(p: &Pools) -> f64 {
    nonempty(&p.est_act, cardinality_error_geomean)
}

/// One experiment's folded robustness numbers. Metrics whose samples the
/// experiment did not publish are NaN (serialized as `null`).
#[derive(Debug, Clone, PartialEq)]
pub struct ScoreboardEntry {
    /// Number of run reports folded in.
    pub runs: u64,
    /// One value per `METRICS` row, in table order.
    values: Vec<f64>,
    /// Adaptive-decision events by kind, summed across all spans.
    pub events: BTreeMap<String, u64>,
}

impl ScoreboardEntry {
    /// The metric stored under the JSON key `key`; panics on a key the
    /// scoreboard does not have.
    pub fn get(&self, key: &str) -> f64 {
        self.values[metric_index(key)]
    }

    /// Overwrite the metric stored under the JSON key `key`.
    pub fn set(&mut self, key: &str, value: f64) {
        self.values[metric_index(key)] = value;
    }

    /// Every `(key, value)` in `scoreboard.json` order.
    pub fn metrics(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        METRICS.iter().zip(&self.values).map(|(m, v)| (m.key, *v))
    }
}

/// Per-experiment sample pools, accumulated before any float reduction.
#[derive(Default)]
struct Pools {
    runs: u64,
    est_act: Vec<(f64, f64)>,
    q_errors: Vec<f64>,
    perf_gaps: Vec<(String, f64)>,
    env_chosen: Vec<(String, f64)>,
    env_ideal: Vec<(String, f64)>,
    m3_pairs: Vec<(f64, f64)>,
    costs: Vec<f64>,
    spilled: Vec<f64>,
    /// Samples of every `Gauge` row of `METRICS`, by gauge name.
    gauges: BTreeMap<&'static str, Vec<f64>>,
    events: BTreeMap<String, u64>,
}

impl Pools {
    fn absorb(&mut self, report: &RunReport) {
        self.runs += 1;
        self.costs.push(report.cost.total());
        for s in &report.spans {
            if !s.est_rows.is_nan() {
                self.est_act.push((s.est_rows, s.rows_out as f64));
                self.q_errors.push(s.q_error());
            }
            self.spilled.push(s.spilled_rows);
            for e in &s.events {
                *self.events.entry(e.kind.clone()).or_insert(0) += 1;
            }
        }
        let mut m3 = (f64::NAN, f64::NAN);
        for (name, value) in &report.metrics {
            let MetricValue::Gauge(x) = value else { continue };
            if name == samples::M3_OPT {
                m3.0 = *x;
            } else if name == samples::M3_BEST {
                m3.1 = *x;
            } else if let Some(key) = name.strip_prefix(samples::PERF_GAP_PREFIX) {
                self.perf_gaps.push((key.to_string(), *x));
            } else if let Some(rest) = name.strip_prefix(samples::ENV_PREFIX) {
                if let Some(key) = rest.strip_suffix(samples::ENV_CHOSEN) {
                    self.env_chosen.push((key.to_string(), *x));
                } else if let Some(key) = rest.strip_suffix(samples::ENV_IDEAL) {
                    self.env_ideal.push((key.to_string(), *x));
                }
            } else if let Some(gauge) = METRICS.iter().find_map(|m| match m.source {
                Gauge(g, _) if g == name => Some(g),
                _ => Option::None,
            }) {
                self.gauges.entry(gauge).or_default().push(*x);
            }
        }
        if !m3.0.is_nan() && !m3.1.is_nan() {
            self.m3_pairs.push(m3);
        }
    }

    /// Reduce the pools to an entry. Every pool is sorted first (and a
    /// gauge's worst sample is its `total_cmp` extreme), so the entry is
    /// identical for any absorption order.
    fn entry(mut self) -> ScoreboardEntry {
        let by_key =
            |a: &(String, f64), b: &(String, f64)| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1));
        let by_pair =
            |a: &(f64, f64), b: &(f64, f64)| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1));
        self.est_act.sort_by(by_pair);
        self.m3_pairs.sort_by(by_pair);
        self.perf_gaps.sort_by(by_key);
        self.env_chosen.sort_by(by_key);
        self.env_ideal.sort_by(by_key);
        self.q_errors.sort_by(f64::total_cmp);
        self.costs.sort_by(f64::total_cmp);
        self.spilled.sort_by(f64::total_cmp);
        let values = METRICS
            .iter()
            .map(|m| match m.source {
                Derived(f) => f(&self),
                Gauge(g, fold) => {
                    let pool = self.gauges.get(g).into_iter().flatten().copied();
                    let worst = match fold {
                        Min => pool.min_by(f64::total_cmp),
                        Max => pool.max_by(f64::total_cmp),
                    };
                    worst.unwrap_or(f64::NAN)
                }
            })
            .collect();
        ScoreboardEntry { runs: self.runs, values, events: self.events }
    }
}

/// The cross-run scoreboard: one [`ScoreboardEntry`] per experiment.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Scoreboard {
    /// Entries keyed by experiment name.
    pub entries: BTreeMap<String, ScoreboardEntry>,
}

impl Scoreboard {
    /// Fold reports into a scoreboard. Any permutation of the same reports
    /// produces an identical scoreboard.
    pub fn fold(reports: &[RunReport]) -> Scoreboard {
        let mut pools: BTreeMap<String, Pools> = BTreeMap::new();
        for r in reports {
            pools.entry(r.experiment.clone()).or_default().absorb(r);
        }
        Scoreboard {
            entries: pools.into_iter().map(|(name, pool)| (name, pool.entry())).collect(),
        }
    }

    /// Fold every `*.json` run report under `dir` (skipping
    /// `scoreboard.json` itself). A report that fails to parse is an error —
    /// a gate must not silently ignore corrupt evidence.
    pub fn from_dir(dir: &Path) -> Result<Scoreboard, String> {
        let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
            .map_err(|e| format!("read {}: {e}", dir.display()))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| {
                p.extension().is_some_and(|ext| ext == "json")
                    && p.file_name().is_some_and(|n| n != "scoreboard.json")
            })
            .collect();
        paths.sort();
        let mut reports = Vec::with_capacity(paths.len());
        for p in paths {
            let text = std::fs::read_to_string(&p)
                .map_err(|e| format!("read {}: {e}", p.display()))?;
            reports.push(
                RunReport::from_json(&text).map_err(|e| format!("{}: {e}", p.display()))?,
            );
        }
        Ok(Scoreboard::fold(&reports))
    }

    /// Serialize to a [`Json`] document.
    pub fn to_json(&self) -> Json {
        let entries = self.entries.iter().map(|(name, e)| (name.clone(), entry_to_json(e)));
        Json::obj(vec![
            ("scoreboard_version", Json::num(SCOREBOARD_VERSION as f64)),
            ("entries", Json::Obj(entries.collect())),
        ])
    }

    /// Parse a scoreboard back from JSON text.
    pub fn from_json(text: &str) -> Result<Scoreboard, String> {
        let doc = Json::parse(text)?;
        let version = doc
            .get("scoreboard_version")
            .and_then(Json::as_num)
            .ok_or("missing scoreboard_version")?;
        if version as u32 != SCOREBOARD_VERSION {
            return Err(format!(
                "scoreboard version {version} (this build reads {SCOREBOARD_VERSION})"
            ));
        }
        let entries = match doc.get("entries") {
            Some(Json::Obj(pairs)) => pairs
                .iter()
                .map(|(name, v)| Ok((name.clone(), entry_from_json(v)?)))
                .collect::<Result<BTreeMap<_, _>, String>>()?,
            _ => return Err("missing entries".to_string()),
        };
        Ok(Scoreboard { entries })
    }

    /// Write to `path` as pretty JSON.
    pub fn write_to(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.to_json().pretty())
    }

    /// Compare `current` against this baseline under each metric's gate.
    /// Returns every regression found; empty means the gate passes.
    pub fn diff(&self, current: &Scoreboard) -> Vec<Regression> {
        let mut out = Vec::new();
        for (name, base) in &self.entries {
            let Some(cur) = current.entries.get(name) else {
                out.push(Regression {
                    experiment: name.clone(),
                    metric: "missing".to_string(),
                    baseline: base.runs as f64,
                    current: 0.0,
                    limit: base.runs as f64,
                });
                continue;
            };
            for (spec, (&baseline, &current)) in
                METRICS.iter().zip(base.values.iter().zip(&cur.values))
            {
                let (limit, beyond): (f64, fn(&f64, &f64) -> bool) = match spec.gate {
                    Ungated => continue,
                    Ceiling(ratio, slack) => (baseline * ratio + slack, f64::gt),
                    Floor(slack) => (baseline - slack, f64::lt),
                };
                // A metric that vanished is an observability regression.
                if !baseline.is_nan() && (current.is_nan() || beyond(&current, &limit)) {
                    out.push(Regression {
                        experiment: name.clone(),
                        metric: spec.key.to_string(),
                        baseline,
                        current,
                        limit,
                    });
                }
            }
        }
        out
    }
}

/// One metric of one experiment exceeding its threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Experiment the regression is in.
    pub experiment: String,
    /// Metric that regressed (`"total_cost"`, `"m1"`, … or `"missing"`).
    pub metric: String,
    /// Baseline value.
    pub baseline: f64,
    /// Current value.
    pub current: f64,
    /// The limit the current value exceeded.
    pub limit: f64,
}

impl std::fmt::Display for Regression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} {:.4} -> {:.4} (limit {:.4})",
            self.experiment, self.metric, self.baseline, self.current, self.limit
        )
    }
}

fn entry_to_json(e: &ScoreboardEntry) -> Json {
    let events =
        Json::Obj(e.events.iter().map(|(kind, n)| (kind.clone(), Json::num(*n as f64))).collect());
    let mut pairs = vec![("runs", Json::num(e.runs as f64))];
    pairs.extend(e.metrics().map(|(key, v)| (key, Json::num(v))));
    pairs.push(("events", events));
    Json::obj(pairs)
}

fn entry_from_json(doc: &Json) -> Result<ScoreboardEntry, String> {
    let num = |key: &str| -> Result<f64, String> {
        doc.get(key)
            .and_then(Json::as_num)
            .ok_or(format!("entry missing {key}"))
    };
    let Some(Json::Obj(pairs)) = doc.get("events") else {
        return Err("entry missing events".to_string());
    };
    let events = pairs
        .iter()
        .map(|(kind, v)| Ok((kind.clone(), v.as_num().ok_or("non-numeric event count")? as u64)))
        .collect::<Result<_, String>>()?;
    Ok(ScoreboardEntry {
        runs: num("runs")? as u64,
        values: METRICS.iter().map(|m| num(m.key)).collect::<Result<_, _>>()?,
        events,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;
    use crate::span::Tracer;
    use rqp_common::{rule, CostClock};

    /// One row per gauge metric: its key, its gauge, what the fixture report
    /// publishes for it, and the current values that must trip / must pass
    /// against that baseline (the numbers the per-family tests used to pin).
    type GaugeCase = (&'static str, &'static str, f64, &'static [f64], &'static [f64]);
    #[rustfmt::skip]
    const GAUGES: &[GaugeCase] = &[
        ("parallel_speedup", samples::PARALLEL_SPEEDUP, 3.5, &[1.1, f64::NAN], &[7.9]),
        ("parallel_skew", samples::PARALLEL_SKEW, 1.2, &[2.5], &[1.0]),
        ("degradation_cliff", samples::DEGRADATION_CLIFF, 1.4, &[2.5], &[1.0]),
        ("recovery_rate", samples::RECOVERY_RATE, 1.0, &[0.8, f64::NAN], &[]),
        ("tail_amplification", samples::TAIL_AMPLIFICATION, 2.0, &[2.6, f64::NAN], &[1.0]),
        // limit 40 * 1.5 + 1.0 = 61
        ("admission_wait", samples::ADMISSION_WAIT, 40.0, &[62.0], &[0.0]),
        // limits 3.0 * 1.25 + 0.5 = 4.25 and 4.0 * 1.25 + 0.5 = 5.5
        ("wire_tail_p99", samples::WIRE_TAIL_P99, 3.0, &[4.5], &[1.0]),
        ("wire_tail_p999", samples::WIRE_TAIL_P999, 4.0, &[6.0], &[1.0]),
        ("wire_churn_recovery", samples::WIRE_CHURN_RECOVERY, 1.0, &[0.9, f64::NAN], &[]),
        ("wire_backpressure_pages", samples::WIRE_BACKPRESSURE_PAGES, 1.0, &[8.0], &[]),
        // limit 1.0 * 1.25 + 0.5 = 1.75
        ("observer_overhead_p99", samples::OBSERVER_OVERHEAD_P99, 1.0, &[2.0, f64::NAN], &[0.9]),
        ("observer_event_loss", samples::OBSERVER_EVENT_LOSS, 0.0, &[1.0], &[]),
        ("batch_speedup", samples::BATCH_SPEEDUP, 2.5, &[1.4, f64::NAN], &[4.0]),
        ("paged_cliff", samples::PAGED_CLIFF, 1.3, &[1.6], &[1.0]),
        ("paged_completion", samples::PAGED_COMPLETION, 1.0, &[0.9, f64::NAN], &[]),
        // limit 4.0 * 1.25 + 1.0 = 6.0
        ("stream_delta_p99", samples::STREAM_DELTA_P99, 4.0, &[6.5, f64::NAN], &[2.0]),
        // zero slack: one diverged view trips
        ("stream_view_divergence", samples::STREAM_VIEW_DIVERGENCE, 0.0, &[1.0], &[]),
    ];

    fn report(experiment: &str, est: f64, act: u64, cost_rows: f64) -> RunReport {
        let clock = CostClock::default_clock();
        let tracer = Tracer::new();
        let reg = MetricsRegistry::new();
        let s = tracer.open("scan", &clock);
        s.set_est_rows(est);
        clock.charge(&rule::scan(clock.params().pages(cost_rows), cost_rows));
        for _ in 0..act {
            s.produced(&clock);
        }
        s.record_event(&clock, "pop.violation", "test");
        s.close(&clock);
        reg.gauge(samples::M3_OPT).set(100.0);
        reg.gauge(samples::M3_BEST).set(80.0);
        for (i, gap) in [5.0, 6.0, 50.0].iter().enumerate() {
            reg.gauge(&format!("{}{i:03}", samples::PERF_GAP_PREFIX)).set(*gap);
        }
        reg.gauge("paper.env.000.chosen").set(30.0);
        reg.gauge("paper.env.000.ideal").set(10.0);
        reg.gauge("paper.env.001.chosen").set(20.0);
        reg.gauge("paper.env.001.ideal").set(20.0);
        for (_, gauge, value, ..) in GAUGES {
            reg.gauge(gauge).set(*value);
        }
        let mut r = RunReport::new(experiment).with_seed("workload", 7);
        r.cost = clock.breakdown();
        r.spans = tracer.snapshot();
        r.metrics = reg.snapshot();
        r
    }

    #[test]
    fn fold_computes_paper_metrics() {
        let board = Scoreboard::fold(&[report("e01", 50.0, 100, 1000.0)]);
        let e = &board.entries["e01"];
        assert_eq!(e.runs, 1);
        assert!((e.get("m1") - 0.5).abs() < 1e-9, "|50-100|/100");
        assert!((e.get("m3") - 0.25).abs() < 1e-9, "|100-80|/80");
        assert!(e.get("smoothness") > 0.5, "gap cliff at 50");
        assert!(e.get("intrinsic") > 0.0);
        assert!(e.get("extrinsic") > 0.0, "env 000 diverges 3x");
        assert_eq!(e.get("max_q_error"), 2.0);
        assert_eq!(e.events["pop.violation"], 1);
        assert!(e.get("total_cost") > 0.0);
        for (key, _, value, ..) in GAUGES {
            assert_eq!(e.get(key), *value, "{key}");
        }
        // Across runs a gauge folds to its worst sample, whichever way that is.
        let mut low = report("e01", 50.0, 100, 1000.0);
        low.metrics.retain(|(name, _)| name != samples::RECOVERY_RATE);
        low.metrics.push((samples::RECOVERY_RATE.to_string(), MetricValue::Gauge(0.5)));
        low.metrics.push(("paper.parallel.skew.x".to_string(), MetricValue::Gauge(9.0)));
        let board = Scoreboard::fold(&[report("e01", 50.0, 100, 1000.0), low]);
        assert_eq!(board.entries["e01"].get("recovery_rate"), 0.5);
        assert_eq!(board.entries["e01"].get("parallel_skew"), 1.2, "exact names only");
    }

    #[test]
    fn diff_gates_every_metric_at_its_limit() {
        let baseline = Scoreboard::fold(&[report("e01", 50.0, 100, 1000.0)]);
        let tripped = |key: &str, value: f64| -> Vec<String> {
            let mut current = baseline.clone();
            current.entries.get_mut("e01").unwrap().set(key, value);
            baseline.diff(&current).into_iter().map(|r| r.metric).collect()
        };
        for &(key, _, _, trips, passes) in GAUGES {
            for &value in trips {
                assert_eq!(tripped(key, value), [key], "{key} -> {value}");
            }
            for &value in passes {
                assert!(tripped(key, value).is_empty(), "{key} -> {value}");
            }
        }
        // Every row: at the limit passes, a hair past it trips exactly that
        // metric, a vanished gauge trips, an improvement passes; ungated
        // rows never trip.
        for spec in METRICS {
            let base = baseline.entries["e01"].get(spec.key);
            assert!(base.is_finite(), "fixture publishes {}", spec.key);
            let (limit, past, better) = match spec.gate {
                Ungated => {
                    for v in [f64::NAN, 1e18, -1e18] {
                        assert!(tripped(spec.key, v).is_empty(), "{} is ungated", spec.key);
                    }
                    continue;
                }
                Ceiling(ratio, slack) => (base * ratio + slack, 1e-9, base - 1.0),
                Floor(slack) => (base - slack, -1e-9, base + 1.0),
            };
            assert!(tripped(spec.key, limit).is_empty(), "{} at its limit", spec.key);
            assert_eq!(tripped(spec.key, limit + past), [spec.key]);
            assert_eq!(tripped(spec.key, f64::NAN), [spec.key]);
            assert!(tripped(spec.key, better).is_empty(), "{} improved", spec.key);
        }
        assert_eq!(METRICS.iter().filter(|m| matches!(m.gate, Ungated)).count(), 3);
    }

    #[test]
    fn fold_is_order_independent() {
        let reports = vec![
            report("e01", 50.0, 100, 1000.0),
            report("e01", 10.0, 90, 500.0),
            report("e02", 700.0, 7, 2000.0),
            report("e01", 33.0, 33, 250.0),
        ];
        let a = Scoreboard::fold(&reports);
        let mut rev = reports.clone();
        rev.reverse();
        let b = Scoreboard::fold(&rev);
        let mut rotated = reports;
        rotated.rotate_left(2);
        let c = Scoreboard::fold(&rotated);
        assert_eq!(a.to_json().pretty(), b.to_json().pretty());
        assert_eq!(a.to_json().pretty(), c.to_json().pretty());
        assert_eq!(a.entries["e01"].runs, 3);
    }

    #[test]
    fn json_round_trip() {
        let board = Scoreboard::fold(&[report("e01", 50.0, 100, 1000.0)]);
        let text = board.to_json().pretty();
        let back = Scoreboard::from_json(&text).expect("parse");
        assert_eq!(back.to_json().pretty(), text);
        // NaN-bearing entries survive too (a report with no paper gauges).
        let mut bare = RunReport::new("e09");
        bare.spans = Vec::new();
        let board = Scoreboard::fold(&[bare]);
        assert!(board.entries["e09"].get("m1").is_nan());
        let text = board.to_json().pretty();
        let back = Scoreboard::from_json(&text).expect("parse");
        assert!(back.entries["e09"].get("m1").is_nan());
        assert_eq!(back.to_json().pretty(), text);
    }

    #[test]
    fn diff_passes_on_identical_boards() {
        let board = Scoreboard::fold(&[report("e01", 50.0, 100, 1000.0)]);
        assert!(board.diff(&board).is_empty());
    }

    #[test]
    fn diff_trips_on_inflated_actuals() {
        let baseline = Scoreboard::fold(&[report("e01", 50.0, 100, 1000.0)]);
        // The regression fixture: same experiment, but the span's actual
        // cardinality came out 50x higher — the estimate is now badly wrong.
        let bad = Scoreboard::fold(&[report("e01", 50.0, 5000, 1000.0)]);
        let regressions = baseline.diff(&bad);
        assert!(
            regressions.iter().any(|r| r.metric == "max_q_error"),
            "q-error blow-up must trip: {regressions:?}"
        );
        // And the reverse direction is fine (improvement, not regression).
        assert!(bad.diff(&baseline).is_empty());
    }

    #[test]
    fn diff_trips_on_missing_experiment_and_cost_growth() {
        let baseline = Scoreboard::fold(&[
            report("e01", 50.0, 100, 1000.0),
            report("e02", 50.0, 100, 1000.0),
        ]);
        let current = Scoreboard::fold(&[report("e01", 50.0, 100, 2000.0)]);
        let regressions = baseline.diff(&current);
        assert!(regressions.iter().any(|r| r.experiment == "e02" && r.metric == "missing"));
        assert!(regressions.iter().any(|r| r.experiment == "e01" && r.metric == "total_cost"));
    }

    /// The refactor oracle: the committed scoreboard is exactly what this
    /// build folds from the 33 committed run reports next to it.
    #[test]
    fn committed_scoreboard_refolds_byte_identical() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../exp_output");
        let committed = std::fs::read_to_string(dir.join("scoreboard.json")).expect("read");
        let board = Scoreboard::from_dir(&dir).expect("fold exp_output");
        assert_eq!(board.entries.len(), 33);
        assert_eq!(board.to_json().pretty(), committed);
    }

    #[test]
    fn from_dir_folds_and_skips_the_scoreboard_itself() {
        let dir = std::env::temp_dir().join("rqp_scoreboard_from_dir_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        report("e01", 50.0, 100, 1000.0).write_to(&dir).unwrap();
        report("e02", 10.0, 90, 500.0).write_to(&dir).unwrap();
        let board = Scoreboard::fold(&[
            report("e01", 50.0, 100, 1000.0),
            report("e02", 10.0, 90, 500.0),
        ]);
        board.write_to(&dir.join("scoreboard.json")).unwrap();
        let folded = Scoreboard::from_dir(&dir).expect("fold dir");
        assert_eq!(folded, board);
        // A corrupt report is an error, not a silent skip.
        std::fs::write(dir.join("e03.json"), "{broken").unwrap();
        assert!(Scoreboard::from_dir(&dir).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
