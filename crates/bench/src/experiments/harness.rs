//! The shared experiment harness: every `e*`/`a*` experiment runs through
//! [`run`], so every run leaves a schema-versioned JSON [`RunReport`](rqp::telemetry::RunReport) in
//! `exp_output/` next to its `.txt` artifact — config, RNG seed streams,
//! operator spans with adaptive-decision events, and metrics.
//!
//! The harness owns the run's [`ExecContext`]. Experiments execute their
//! queries under it (or under scratch contexts whose summary numbers they
//! publish back via gauges/histograms), draw every RNG stream through
//! [`Harness::seeded`] so the seed lands in the report, and publish the raw
//! samples behind the paper metrics ([`Harness::perf_gaps`],
//! [`Harness::env_costs`], [`Harness::m3`]) that the telemetry scoreboard
//! folds into `exp_output/scoreboard.json`.

use rand::rngs::StdRng;
use rqp::common::EngineConfig;
use rqp::exec::ExecContext;
use rqp::telemetry::scoreboard::samples;
use std::path::{Path, PathBuf};

/// Everything a run takes from outside the experiment itself. `rqp-exp`
/// builds one from its arguments and environment; tests build one over a
/// temp directory.
#[derive(Debug, Clone)]
pub struct RunEnv {
    /// The reduced-size (`--fast`) variant.
    pub fast: bool,
    /// Where run reports and `.txt` artifacts land.
    pub out_dir: PathBuf,
    /// The `rqp-loadgen` binary A07/A08 spawn as real client processes.
    pub loadgen_bin: PathBuf,
    /// The engine switches the process runs under; A07/A08 seed their
    /// workload from `chaos_seed`.
    pub engine: EngineConfig,
}

impl RunEnv {
    /// A run into `out_dir` under the ambient engine switches, with the
    /// loadgen expected beside the running binary.
    pub fn new(fast: bool, out_dir: PathBuf) -> Self {
        RunEnv { fast, out_dir, loadgen_bin: sibling_loadgen(), engine: EngineConfig::ambient() }
    }

    /// The repository's committed `exp_output/`, anchored at the workspace
    /// root so the answer does not depend on the invoking directory.
    pub fn committed_dir() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../exp_output")
    }
}

/// `rqp-loadgen` as a sibling of the running binary (stepping out of
/// `target/<profile>/deps/` when invoked from a test).
fn sibling_loadgen() -> PathBuf {
    let mut dir = std::env::current_exe()
        .expect("current exe")
        .parent()
        .expect("exe dir")
        .to_path_buf();
    if dir.file_name().is_some_and(|n| n == "deps") {
        dir.pop();
    }
    dir.join("rqp-loadgen")
}

/// Per-run state the harness threads through an experiment body.
pub struct Harness {
    ctx: ExecContext,
    env: RunEnv,
    config: Vec<(String, String)>,
    seeds: Vec<(String, u64)>,
}

impl Harness {
    /// The run's execution context: execute representative queries under it
    /// so their spans (and adaptive-decision events) land in the report.
    pub fn ctx(&self) -> &ExecContext {
        &self.ctx
    }

    /// The run's inputs from outside.
    pub fn env(&self) -> &RunEnv {
        &self.env
    }

    /// Whether this is a reduced-size (`--fast`) run.
    pub fn fast(&self) -> bool {
        self.env.fast
    }

    /// Record a configuration label for the report.
    pub fn config(&mut self, key: &str, value: impl std::fmt::Display) {
        self.config.push((key.to_string(), value.to_string()));
    }

    /// Record a named RNG stream's seed without constructing a generator
    /// (for seeds handed to builders like `TpchDb::build`). Returns the seed
    /// so call sites stay one expression.
    pub fn note_seed(&mut self, stream: &str, seed: u64) -> u64 {
        self.seeds.push((stream.to_string(), seed));
        seed
    }

    /// A deterministic RNG for the named stream, with the seed recorded in
    /// the report — the only way experiments should obtain randomness.
    pub fn seeded(&mut self, stream: &str, seed: u64) -> StdRng {
        rqp::common::rng::seeded(self.note_seed(stream, seed))
    }

    /// Publish a named gauge on the run's metrics registry.
    pub fn gauge(&self, name: &str, value: f64) {
        self.ctx.metrics.gauge(name).set(value);
    }

    /// Publish a parameterized sweep's per-query performance gaps `P(qᵢ)`;
    /// the scoreboard computes smoothness `S(Q)` from them.
    pub fn perf_gaps(&self, gaps: &[f64]) {
        for (i, gap) in gaps.iter().enumerate() {
            self.gauge(&format!("{}{i:03}", samples::PERF_GAP_PREFIX), *gap);
        }
    }

    /// Publish per-environment `(chosen_cost, ideal_cost)` pairs; the
    /// scoreboard computes intrinsic/extrinsic variability from them.
    pub fn env_costs(&self, pairs: &[(f64, f64)]) {
        for (i, (chosen, ideal)) in pairs.iter().enumerate() {
            self.gauge(&format!("{}{i:03}{}", samples::ENV_PREFIX, samples::ENV_CHOSEN), *chosen);
            self.gauge(&format!("{}{i:03}{}", samples::ENV_PREFIX, samples::ENV_IDEAL), *ideal);
        }
    }

    /// Publish the Metric3 runtime pair (`RunTimeOpt`, `RunTimeBest`).
    pub fn m3(&self, runtime_opt: f64, runtime_best: f64) {
        self.gauge(samples::M3_OPT, runtime_opt);
        self.gauge(samples::M3_BEST, runtime_best);
    }
}

/// Run one experiment through the harness: execute `body`, assemble the
/// context's run report (config, seeds, spans, events, metrics), write it to
/// `env.out_dir/<name>.json`, and append a footer line naming the report to
/// the experiment's printed output.
pub fn run(name: &str, env: &RunEnv, body: impl FnOnce(&mut Harness) -> String) -> String {
    let mut h = Harness {
        ctx: ExecContext::unbounded(),
        env: env.clone(),
        config: Vec::new(),
        seeds: Vec::new(),
    };
    let text = body(&mut h);
    let mut report = h
        .ctx
        .run_report(name)
        .with_config("fast", if env.fast { "true" } else { "false" });
    for (k, v) in &h.config {
        report = report.with_config(k, v);
    }
    for (stream, seed) in &h.seeds {
        report = report.with_seed(stream, *seed);
    }
    // The footer names the report portably: committed `.txt` artifacts must
    // not embed the absolute checkout path.
    let footer = match report.write_to(&env.out_dir) {
        Ok(path) if env.out_dir == RunEnv::committed_dir() => format!(
            "run report: exp_output/{}",
            path.file_name().unwrap_or_default().to_string_lossy()
        ),
        Ok(path) => format!("run report: {}", path.display()),
        Err(e) => format!("run report: write failed ({e})"),
    };
    let sep = if text.ends_with('\n') { "" } else { "\n" };
    format!("{text}{sep}{footer}\n")
}

/// What `rqp-exp` does per experiment: run it, print its report, and write
/// it as `<name>.txt` next to the JSON run report.
pub fn run_to_artifact((name, experiment): super::Experiment, env: &RunEnv) -> Result<(), String> {
    let out = experiment(env);
    println!("{out}");
    let path = env.out_dir.join(format!("{name}.txt"));
    std::fs::create_dir_all(&env.out_dir)
        .and_then(|()| std::fs::write(&path, &out))
        .map_err(|e| format!("artifact write failed for {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rqp::telemetry::RunReport;

    #[test]
    fn run_writes_a_report_with_seeds_and_config() {
        let dir = std::env::temp_dir().join("rqp_harness_run_test");
        let _ = std::fs::remove_dir_all(&dir);
        let out = run("e00_harness_probe", &RunEnv::new(true, dir.clone()), |h| {
            let _rng = h.seeded("workload", 77);
            h.note_seed("db", 1001);
            h.config("queries", 12);
            h.gauge("probe.value", 3.0);
            h.ctx().tracer.open("probe", &h.ctx().clock);
            "probe output".to_string()
        });
        assert!(out.contains("probe output"));
        assert!(out.contains("run report:"), "{out}");
        let text = std::fs::read_to_string(dir.join("e00_harness_probe.json")).unwrap();
        let report = RunReport::from_json(&text).expect("parse");
        assert_eq!(report.experiment, "e00_harness_probe");
        assert_eq!(
            report.rng,
            vec![("workload".to_string(), 77), ("db".to_string(), 1001)]
        );
        assert!(report.config.contains(&("fast".to_string(), "true".to_string())));
        assert!(report.config.contains(&("queries".to_string(), "12".to_string())));
        assert_eq!(report.spans.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn paper_sample_helpers_use_reserved_names() {
        let dir = std::env::temp_dir().join("rqp_harness_samples_test");
        let _ = std::fs::remove_dir_all(&dir);
        run("e00_sample_probe", &RunEnv::new(true, dir.clone()), |h| {
            h.perf_gaps(&[1.0, 2.0, 30.0]);
            h.env_costs(&[(12.0, 10.0), (80.0, 20.0)]);
            h.m3(100.0, 80.0);
            String::new()
        });
        let board =
            rqp::telemetry::Scoreboard::from_dir(&dir).expect("fold");
        let e = &board.entries["e00_sample_probe"];
        assert!(e.get("smoothness") > 0.0);
        assert!(e.get("intrinsic") > 0.0);
        assert!(e.get("extrinsic") > 0.0);
        assert!((e.get("m3") - 0.25).abs() < 1e-9);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
