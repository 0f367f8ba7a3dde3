//! `rqp-report` — the observability CLI over `exp_output/` artifacts.
//!
//! ```text
//! rqp-report show <report.json>                 render one run report
//! rqp-report scoreboard <dir> [-o <out.json>]   fold reports into a scoreboard
//! rqp-report diff <baseline.json> <current.json>   regression gate
//! ```
//!
//! `show` renders the report's trace tree EXPLAIN ANALYZE-style, lists the
//! adaptive-decision events in cost-clock order, and summarizes metrics.
//! `scoreboard` folds every `*.json` run report in a directory into the
//! cross-run scoreboard of paper metrics. `diff` compares two scoreboards
//! under each metric's gate and exits non-zero when the current board
//! regresses against the baseline — the CI gate.

use rqp::telemetry::{EventTail, Json, MetricValue, RunReport, Scoreboard};
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "usage:
  rqp-report show <report.json>
  rqp-report scoreboard <dir> [-o <out.json>]
  rqp-report diff <baseline.json> <current.json>

exit status: 0 on success, 1 on detected regression (diff), 2 on bad
invocation or unreadable input.";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("show") => show(&args[1..]),
        Some("scoreboard") => scoreboard(&args[1..]),
        Some("diff") => return diff(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

fn load_scoreboard(path: &str) -> Result<Scoreboard, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    Scoreboard::from_json(&text).map_err(|e| format!("parse {path}: {e}"))
}

fn show(args: &[String]) -> Result<(), String> {
    let [path] = args else { return Err(USAGE.to_string()) };
    // A `show` target is either a run report or a live-captured events
    // dump (`rqp-top --events-dump`); the dump's `kind` marker decides.
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("parse {path}: {e}"))?;
    if let Ok(dump) = EventTail::from_json(&doc) {
        print!("{}", render_events_dump(&dump));
    } else {
        let report = RunReport::from_json(&text).map_err(|e| format!("parse {path}: {e}"))?;
        print!("{}", render_report(&report));
    }
    Ok(())
}

/// Render a captured flight-recorder tail with the same event formatter
/// as the run-report adaptive-decision listing, keyed by owning query
/// instead of span id.
fn render_events_dump(dump: &EventTail) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "flight-recorder events ({}), {} overwritten before capture:\n",
        dump.events.len(),
        dump.gap,
    ));
    for ev in &dump.events {
        out.push_str(&event_line(ev.at, &format!("q {:>4}", ev.query), &ev.kind, &ev.detail));
    }
    out
}

/// One event line: shared by the run-report adaptive-decision listing
/// (owner = a span id) and the events-dump rendering (owner = a query id).
fn event_line(at: f64, owner: &str, kind: &str, detail: &str) -> String {
    format!("  @{at:<10.0} {owner}  {kind:<14} {detail}\n")
}

/// The full human rendering of one run report.
fn render_report(report: &RunReport) -> String {
    let mut out = String::new();
    out.push_str(&format!("experiment: {}\n", report.experiment));
    for (k, v) in &report.config {
        out.push_str(&format!("  config {k} = {v}\n"));
    }
    for (stream, seed) in &report.rng {
        out.push_str(&format!("  rng    {stream} = {seed}\n"));
    }
    out.push_str(&format!(
        "  cost   total {:.0} (seq_io {:.0}, rand_io {:.0}, cpu {:.0}, spill {:.0})\n",
        report.cost.total(),
        report.cost.seq_io,
        report.cost.rand_io,
        report.cost.cpu,
        report.cost.spill,
    ));

    if !report.spans.is_empty() {
        out.push_str("\ntrace:\n");
        out.push_str(&report.trace().render());
    }

    let events = report.events();
    if !events.is_empty() {
        out.push_str(&format!("\nadaptive-decision events ({}):\n", events.len()));
        for (span_id, ev) in &events {
            out.push_str(&event_line(ev.at, &format!("span {span_id:>3}"), &ev.kind, &ev.detail));
        }
    }

    if !report.metrics.is_empty() {
        out.push_str("\nmetrics:\n");
        for (name, value) in &report.metrics {
            match value {
                MetricValue::Counter(n) => {
                    out.push_str(&format!("  {name} = {n}\n"));
                }
                MetricValue::Gauge(x) => {
                    out.push_str(&format!("  {name} = {x}\n"));
                }
                MetricValue::Histogram { count, sum, max, buckets } => {
                    out.push_str(&format!(
                        "  {name}: count {count}, mean {:.2}, max {max:.2}, \
                         p50 {:.2}, p95 {:.2}, p99 {:.2}\n",
                        if *count > 0 { sum / *count as f64 } else { f64::NAN },
                        rqp::telemetry::bucket_quantile(buckets, 0.50),
                        rqp::telemetry::bucket_quantile(buckets, 0.95),
                        rqp::telemetry::bucket_quantile(buckets, 0.99),
                    ));
                }
            }
        }
    }
    out
}

fn scoreboard(args: &[String]) -> Result<(), String> {
    let (dir, out_path) = match args {
        [dir] => (dir, None),
        [dir, flag, out] if flag == "-o" => (dir, Some(out)),
        _ => return Err(USAGE.to_string()),
    };
    let board = Scoreboard::from_dir(Path::new(dir))?;
    let text = board.to_json().pretty();
    match out_path {
        Some(p) => {
            board
                .write_to(Path::new(p))
                .map_err(|e| format!("write {p}: {e}"))?;
            println!("scoreboard: {} experiments -> {p}", board.entries.len());
        }
        None => println!("{text}"),
    }
    Ok(())
}

fn diff(args: &[String]) -> ExitCode {
    let [baseline_path, current_path] = args else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let (baseline, current) =
        match (load_scoreboard(baseline_path), load_scoreboard(current_path)) {
            (Ok(b), Ok(c)) => (b, c),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("{e}");
                return ExitCode::from(2);
            }
        };
    let regressions = baseline.diff(&current);
    if regressions.is_empty() {
        println!(
            "no regressions: {} experiments within thresholds of {}",
            current.entries.len(),
            baseline_path,
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("{} regression(s) against {baseline_path}:", regressions.len());
        for r in &regressions {
            eprintln!("  {r}");
        }
        ExitCode::FAILURE
    }
}
