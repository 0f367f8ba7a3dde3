//! `rqp-perf` — the wall-clock benchmark of the rqp query service.
//!
//! ```sh
//! rqp-perf run     [--seed 42] [--out FILE] [--quick]
//! rqp-perf trace   [--seed 42] [--out FILE] [--dir DIR] [--quick]
//! rqp-perf repeat  [--seed 42] [--dir DIR] [--quick]
//! rqp-perf compare A.json B.json
//! rqp-perf --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! `run` measures the five workloads with tracing off and prints every
//! end-to-end metric; `trace` repeats them with the benchmark's own spans
//! and prints the per-layer metrics; the flag-only form is the benchmark
//! contract of `BENCHMARK.json` (one workload, one JSON line). See the
//! crate README for what is measured and why.

mod bench;
mod drive;
mod metrics;
mod replay;
mod report;
mod server;
mod trace;
mod workload;

use bench::{measure, Outcome, Plan};
use rqp_telemetry::Json;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;
use workload::Kind;

const USAGE: &str = "usage: rqp-perf run|trace|repeat [--seed N] [--out FILE] [--dir DIR] [--quick]
       rqp-perf compare A.json B.json
       rqp-perf --workload NAME --seed N --seconds S --trace 0|1";

type Failure = Box<dyn std::error::Error + Send + Sync>;

/// `--flag value` pairs and bare words of a command line.
struct Args {
    words: Vec<String>,
    flags: Vec<(String, String)>,
    quick: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, Failure> {
        let mut parsed = Args {
            words: Vec::new(),
            flags: Vec::new(),
            quick: false,
        };
        while let Some(arg) = args.next() {
            match arg.strip_prefix("--") {
                Some("quick") => parsed.quick = true,
                Some(flag) => {
                    let value = args.next().ok_or(format!("missing value for --{flag}"))?;
                    parsed.flags.push((flag.to_string(), value));
                }
                None => parsed.words.push(arg),
            }
        }
        Ok(parsed)
    }

    fn get(&self, flag: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, Failure> {
        self.get(flag)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--{flag} {v}: not a number").into())
            })
            .transpose()
    }
}

/// The measurement plan of `run` / `trace`. The quick variants exist for
/// the smoke test: a 4 000-row database and sub-second segments.
fn plan(traced: bool, quick: bool) -> Plan {
    let secs = Duration::from_secs_f64;
    let base = if quick {
        Plan {
            lineitem_rows: 4_000,
            setups: 1,
            warmup: secs(0.3),
            plain: secs(1.5),
            traced: None,
            replay_budget: secs(1.0),
        }
    } else {
        Plan {
            lineitem_rows: 200_000,
            setups: 7,
            warmup: secs(3.0),
            plain: secs(25.0),
            traced: None,
            replay_budget: secs(3.0),
        }
    };
    match (traced, quick) {
        (false, _) => base,
        // A fixed 200 operations per workload (100 per connection), after
        // a short untraced segment the overhead ratio is taken against.
        (true, false) => Plan {
            plain: secs(5.0),
            traced: Some((secs(40.0), 100)),
            ..base
        },
        (true, true) => Plan {
            plain: secs(0.6),
            traced: Some((secs(1.5), 100)),
            ..base
        },
    }
}

/// The plan of one run under the benchmark contract: `seconds` of
/// measuring after a fixed warm-up, split 30/70 between the untraced and
/// the traced segment when tracing is on.
fn contract_plan(seconds: f64, traced: bool) -> Plan {
    let secs = Duration::from_secs_f64;
    let base = Plan {
        warmup: secs(2.0),
        plain: secs(seconds),
        ..plan(false, false)
    };
    if traced {
        Plan {
            plain: secs(seconds * 0.3),
            traced: Some((secs(seconds * 0.7), usize::MAX)),
            ..base
        }
    } else {
        base
    }
}

/// Measure all five workloads; print them, and write the report and (on a
/// traced run) the span files.
fn run_all(
    mode: &str,
    seed: u64,
    quick: bool,
    out: Option<&Path>,
    dir: &Path,
) -> Result<Vec<Outcome>, Failure> {
    let traced = mode == "trace";
    let plan = plan(traced, quick);
    let mut outcomes = Vec::new();
    for kind in workload::ALL {
        let outcome = measure(kind, seed, &plan)?;
        report::print_outcome(&outcome, traced);
        if traced {
            std::fs::create_dir_all(dir)?;
            trace::write_jsonl(
                &dir.join(format!("trace_{}.jsonl", kind.name())),
                &outcome.spans,
            )?;
        }
        outcomes.push(outcome);
    }
    if let Some(path) = out {
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(
            path,
            report::report_json(mode, seed, quick, &plan, &outcomes).pretty(),
        )?;
    }
    Ok(outcomes)
}

fn read_report(path: &Path) -> Result<Json, Failure> {
    Ok(Json::parse(&std::fs::read_to_string(path)?)
        .map_err(|e| format!("{}: {e}", path.display()))?)
}

/// Whether every measurement was correct; a failed check is an exit code.
fn all_correct(outcomes: &[Outcome]) -> bool {
    outcomes.iter().all(|o| o.correct)
}

fn dispatch(args: Args) -> Result<bool, Failure> {
    let seed: u64 = args.number("seed")?.unwrap_or(42);
    let dir = PathBuf::from(args.get("dir").unwrap_or("perf_out"));
    let words: Vec<&str> = args.words.iter().map(String::as_str).collect();
    match words[..] {
        ["serve"] => {
            let rows = args.number("rows")?.ok_or("serve needs --rows")?;
            server::serve(rows, seed, args.number("page-budget")?)?;
            Ok(true)
        }
        [mode @ ("run" | "trace")] => {
            let outcomes = run_all(mode, seed, args.quick, args.get("out").map(Path::new), &dir)?;
            Ok(all_correct(&outcomes))
        }
        ["repeat"] => {
            // Two sets of runs of the same commit must agree within the
            // benchmark's own bounds on every pair.
            let (a, b) = (dir.join("run_a.json"), dir.join("run_b.json"));
            let first = run_all("run", seed, args.quick, Some(&a), &dir)?;
            let second = run_all("run", seed, args.quick, Some(&b), &dir)?;
            let rows = report::compare(&read_report(&a)?, &read_report(&b)?)?;
            report::print_comparison(&rows);
            Ok(all_correct(&first)
                && all_correct(&second)
                && rows.iter().all(|r| r.verdict == "unchanged"))
        }
        ["compare", a, b] => {
            let rows = report::compare(&read_report(Path::new(a))?, &read_report(Path::new(b))?)?;
            report::print_comparison(&rows);
            Ok(rows.iter().all(|r| r.verdict != "regressed"))
        }
        [] if args.get("workload").is_some() => {
            let name = args.get("workload").expect("checked by the guard");
            let kind = Kind::from_name(name).ok_or(format!("unknown workload {name}"))?;
            let seconds: f64 = args.number("seconds")?.ok_or("missing --seconds")?;
            let traced = args.number::<u8>("trace")?.ok_or("missing --trace")? != 0;
            let outcome = measure(kind, seed, &contract_plan(seconds, traced))?;
            for note in &outcome.notes {
                eprintln!("{name}: {note}");
            }
            println!("{}", report::driver_line(&outcome, traced));
            Ok(true)
        }
        _ => Err(USAGE.into()),
    }
}

fn main() -> ExitCode {
    // Engine switches are read from `RQP_*` variables deep inside library
    // code. Scrub them here, before any thread exists, so neither the
    // oracle in this process nor the server child sees a CI leg's or a dev
    // shell's settings.
    for (name, _) in std::env::vars_os() {
        if name.to_string_lossy().starts_with("RQP_") {
            std::env::remove_var(name);
        }
    }
    match Args::parse(std::env::args().skip(1)).and_then(dispatch) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("rqp-perf: {e}");
            ExitCode::from(2)
        }
    }
}
