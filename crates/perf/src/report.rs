//! What a measurement is written as: the human table, the schema-versioned
//! JSON report, the one-line result the benchmark driver reads, and the
//! comparison of two reports.

use crate::bench::{Outcome, Plan};
use crate::metrics::{spread, Better, EndToEnd, Metric, END_TO_END};
use rqp_telemetry::Json;

pub const SCHEMA: &str = "rqp-perf/1";

fn opt_num(v: Option<f64>) -> Json {
    v.map_or(Json::Null, Json::num)
}

/// Print every metric of `outcome` by name with its unit; a metric the
/// workload does not exercise prints as `null`.
pub fn print_outcome(outcome: &Outcome, with_layers: bool) {
    let name = outcome.kind.name();
    println!(
        "{name}  attempted {}  failed {}  correct {}",
        outcome.attempted, outcome.failed, outcome.correct
    );
    for note in &outcome.notes {
        println!("{name}  ! {note}");
    }
    let layers = outcome.per_layer.iter().filter(|_| with_layers);
    for m in outcome.end_to_end.iter().chain(layers) {
        match m.value {
            Some(v) => println!("{name}  {:<32} {v:>14.4} {}", m.name, m.unit),
            None => println!("{name}  {:<32} {:>14} {}", m.name, "null", m.unit),
        }
    }
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                let mut fields = vec![("value", opt_num(m.value)), ("unit", Json::str(m.unit))];
                if !m.samples.is_empty() {
                    fields.push((
                        "samples",
                        Json::Arr(m.samples.iter().map(|&s| Json::num(s)).collect()),
                    ));
                    fields.push(("spread", Json::num(spread(&m.samples))));
                }
                (m.name.to_string(), Json::obj(fields))
            })
            .collect(),
    )
}

/// The report `--out` writes: machine, commit, seed, plan, and per workload
/// every metric with its per-window samples and their spread.
pub fn report_json(mode: &str, seed: u64, quick: bool, plan: &Plan, outcomes: &[Outcome]) -> Json {
    let git_rev = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".to_string(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        });
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let (traced_cap, traced_ops) = plan.traced.unwrap_or_default();
    let workloads = outcomes
        .iter()
        .map(|o| {
            Json::obj(vec![
                ("name", Json::str(o.kind.name())),
                ("why", Json::str(o.kind.why())),
                ("attempted", Json::num(o.attempted as f64)),
                ("failed", Json::num(o.failed as f64)),
                ("correct", Json::Bool(o.correct)),
                (
                    "notes",
                    Json::Arr(o.notes.iter().map(|n| Json::str(n)).collect()),
                ),
                ("end_to_end", metrics_json(&o.end_to_end)),
                ("per_layer", metrics_json(&o.per_layer)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("schema", Json::str(SCHEMA)),
        ("mode", Json::str(mode)),
        ("git_rev", Json::str(&git_rev)),
        ("nproc", Json::num(nproc as f64)),
        ("seed", Json::num(seed as f64)),
        ("quick", Json::Bool(quick)),
        (
            "plan",
            Json::obj(vec![
                ("lineitem_rows", Json::num(plan.lineitem_rows as f64)),
                (
                    "connections",
                    Json::num(crate::workload::CONNECTIONS as f64),
                ),
                ("setups", Json::num(plan.setups as f64)),
                ("warmup_s", Json::num(plan.warmup.as_secs_f64())),
                ("measured_s", Json::num(plan.plain.as_secs_f64())),
                ("traced_cap_s", Json::num(traced_cap.as_secs_f64())),
                ("traced_ops_per_connection", Json::num(traced_ops as f64)),
            ]),
        ),
        ("workloads", Json::Arr(workloads)),
    ])
}

/// The benchmark contract's result: one JSON object on one line. Untraced,
/// the gated end-to-end metrics; traced, every per-layer metric. The
/// contract wants a number under every name, so a per-layer metric the
/// workload does not exercise reads 0 here (and `null` everywhere else).
/// `fail_ratio` is carried by `attempted`/`failed`, not as a metric: it is
/// 0 on every healthy run, and a bound relative to 0 gates nothing.
pub fn driver_line(outcome: &Outcome, traced: bool) -> String {
    let metrics: Vec<&Metric> = if traced {
        outcome.per_layer.iter().collect()
    } else {
        outcome
            .end_to_end
            .iter()
            .filter(|m| m.name != "fail_ratio")
            .collect()
    };
    let metrics = metrics
        .into_iter()
        .map(|m| {
            (
                m.name.to_string(),
                Json::obj(vec![
                    ("value", Json::num(m.value.unwrap_or(0.0))),
                    ("unit", Json::str(m.unit)),
                ]),
            )
        })
        .collect();
    let line = Json::obj(vec![
        ("correct", Json::Bool(outcome.correct)),
        ("attempted", Json::num(outcome.attempted.max(1) as f64)),
        ("failed", Json::num(outcome.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ]);
    // `pretty` breaks lines only between tokens; strings escape theirs.
    line.pretty().split('\n').map(str::trim_start).collect()
}

/// One (workload, end-to-end metric) pair of a comparison.
pub struct Comparison {
    pub workload: String,
    pub metric: &'static str,
    pub unit: &'static str,
    pub base: Option<f64>,
    pub other: Option<f64>,
    pub bound: f64,
    pub verdict: &'static str,
}

/// How finely a reported value is resolved, as a share of itself: the
/// spread of the samples it was reduced from (its windows, its set-ups),
/// narrowed by the root of their number since the value pools them all.
fn resolution(samples: &[f64]) -> f64 {
    spread(samples) / (samples.len().max(1) as f64).sqrt()
}

/// `improved | unchanged | regressed | unresolved` for `other` against
/// `base`: unresolved when either report's own resolution is coarser than
/// the bound, so the pair cannot tell a change of that size.
fn verdict(def: &EndToEnd, base: f64, other: f64, resolution: f64) -> &'static str {
    let change = if base == other {
        0.0
    } else {
        (other - base) / base.abs()
    };
    let worse_by = match def.better {
        Better::Lower => change,
        Better::Higher => -change,
    };
    if def.bound > 0.0 && resolution > def.bound {
        "unresolved"
    } else if worse_by > def.bound {
        "regressed"
    } else if worse_by < -def.bound {
        "improved"
    } else {
        "unchanged"
    }
}

/// Compare two reports pair by pair. Workloads and metrics missing from
/// either side come back `unresolved`.
pub fn compare(base: &Json, other: &Json) -> Result<Vec<Comparison>, String> {
    for report in [base, other] {
        if report.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
            return Err(format!("not a {SCHEMA} report"));
        }
    }
    let workloads = |report: &Json| {
        report
            .get("workloads")
            .and_then(Json::as_arr)
            .map(<[Json]>::to_vec)
            .unwrap_or_default()
    };
    let metric = |workload: Option<&Json>, name: &str| -> (Option<f64>, f64) {
        let m = workload
            .and_then(|w| w.get("end_to_end"))
            .and_then(|e| e.get(name));
        let value = m.and_then(|m| m.get("value")).and_then(Json::as_num);
        let samples = m.and_then(|m| m.get("samples")).and_then(Json::as_arr);
        let samples: Vec<f64> =
            samples.map_or(Vec::new(), |s| s.iter().filter_map(Json::as_num).collect());
        (value, resolution(&samples))
    };
    let others = workloads(other);
    let mut rows = Vec::new();
    for w in workloads(base) {
        let name = w
            .get("name")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string();
        let twin = others
            .iter()
            .find(|o| o.get("name").and_then(Json::as_str) == Some(&name));
        for def in &END_TO_END {
            let ((a, coarse_a), (b, coarse_b)) =
                (metric(Some(&w), def.name), metric(twin, def.name));
            let verdict = match (a, b) {
                (Some(a), Some(b)) => verdict(def, a, b, coarse_a.max(coarse_b)),
                _ => "unresolved",
            };
            rows.push(Comparison {
                workload: name.clone(),
                metric: def.name,
                unit: def.unit,
                base: a,
                other: b,
                bound: def.bound,
                verdict,
            });
        }
    }
    Ok(rows)
}

/// Print a comparison: both values, the ratio with its base, the bound and
/// the verdict, one row per pair.
pub fn print_comparison(rows: &[Comparison]) {
    println!(
        "{:<14} {:<14} {:>12} {:>12} {:>22} {:>6}  verdict",
        "workload", "metric", "base", "other", "other/base", "bound"
    );
    for r in rows {
        let show = |v: Option<f64>| v.map_or("null".to_string(), |v| format!("{v:.4}"));
        let ratio = match (r.base, r.other) {
            (Some(a), Some(b)) if a != 0.0 => format!("{:.4} (of {:.4} {})", b / a, a, r.unit),
            _ => "-".to_string(),
        };
        println!(
            "{:<14} {:<14} {:>12} {:>12} {:>22} {:>6.2}  {}",
            r.workload,
            r.metric,
            show(r.base),
            show(r.other),
            ratio,
            r.bound,
            r.verdict
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let ops = &END_TO_END[0]; // higher is better, bound 0.10
        let lat = &END_TO_END[1]; // lower is better, bound 0.10
        let fail = &END_TO_END[3]; // bound 0
        assert_eq!(verdict(ops, 100.0, 105.0, 0.01), "unchanged");
        assert_eq!(verdict(ops, 100.0, 120.0, 0.01), "improved");
        assert_eq!(verdict(ops, 100.0, 80.0, 0.01), "regressed");
        assert_eq!(verdict(ops, 100.0, 80.0, 0.30), "unresolved");
        assert_eq!(verdict(lat, 10.0, 12.0, 0.0), "regressed");
        assert_eq!(verdict(lat, 10.0, 8.0, 0.0), "improved");
        assert_eq!(verdict(fail, 0.0, 0.0, 0.0), "unchanged");
        assert_eq!(verdict(fail, 0.0, 0.01, 0.0), "regressed");
    }
}
