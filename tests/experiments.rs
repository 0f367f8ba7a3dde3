//! Every row of the `rqp-exp` registry, run `--fast`-sized in one process.
//!
//! Each experiment must still publish exactly the scoreboard metrics its
//! committed full-size entry has: a gauge that vanishes (or a new one that
//! nobody committed a baseline for) is caught here, under tier-1, rather
//! than first by CI's full-size regression gate.

use rqp_bench::experiments::{RunEnv, EXPERIMENTS};
use rqp_telemetry::Scoreboard;
use std::path::Path;

/// The metrics `name`'s entry actually carries (everything not `null`).
fn published(board: &Scoreboard, name: &str) -> Vec<&'static str> {
    board.entries[name].metrics().filter(|(_, v)| !v.is_nan()).map(|(key, _)| key).collect()
}

#[test]
fn every_experiment_publishes_its_committed_metric_set() {
    // Cargo built our own bins for this integration test, so the loadgen
    // path a07/a08 spawn is authoritative.
    let dir = std::env::temp_dir().join(format!("rqp_experiments_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let env = RunEnv {
        loadgen_bin: env!("CARGO_BIN_EXE_rqp-loadgen").into(),
        ..RunEnv::new(true, dir.clone())
    };
    for (name, experiment) in EXPERIMENTS {
        let out = experiment(&env);
        assert!(out.contains("run report:"), "{name} did not go through the harness");
    }

    let fresh = Scoreboard::from_dir(&dir).expect("fold the fresh run reports");
    let committed = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../exp_output/scoreboard.json");
    let committed = Scoreboard::from_json(&std::fs::read_to_string(committed).expect("read"))
        .expect("parse the committed scoreboard");
    let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
    assert_eq!(fresh.entries.keys().collect::<Vec<_>>(), names);
    assert_eq!(committed.entries.keys().collect::<Vec<_>>(), names);
    for name in names {
        assert_eq!(published(&fresh, name), published(&committed, name), "{name}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
