//! Smoke test of the benchmark itself: `run --quick` and `trace --quick`
//! (4 000-row database, sub-second segments) complete, report every metric
//! `BENCHMARK.json` lists, verify every result, and leak nothing.
//!
//! The numbers of a quick run mean nothing; this checks the harness, not
//! the service's speed. The wall-time limit is generous on purpose — it
//! catches a hang, not a slow box.

use rqp_telemetry::Json;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

const WALL_LIMIT: Duration = Duration::from_secs(90);

fn contract() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
        .expect("valid JSON")
}

fn names(contract: &Json, key: &str) -> Vec<(String, String)> {
    let listed = contract.get(key).and_then(Json::as_arr).expect(key);
    let field = |m: &Json, f: &str| {
        m.get(f)
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string()
    };
    listed
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect()
}

/// Run `rqp-perf <mode> --quick`, writing into a directory of its own, and
/// return that directory and the parsed report.
fn quick(mode: &str) -> (PathBuf, Json) {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke_{mode}"));
    let _ = std::fs::remove_dir_all(&dir);
    let report = dir.join("report.json");
    let start = Instant::now();
    let out = Command::new(env!("CARGO_BIN_EXE_rqp-perf"))
        .args([mode, "--quick", "--seed", "7", "--dir"])
        .arg(&dir)
        .arg("--out")
        .arg(&report)
        .output()
        .expect("spawn rqp-perf");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{mode} --quick failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        start.elapsed() < WALL_LIMIT,
        "{mode} --quick took {:?}",
        start.elapsed()
    );
    let doc = Json::parse(&std::fs::read_to_string(&report).expect("report written"))
        .expect("report is JSON");
    // Every metric is also printed by name, with its unit.
    for (name, unit) in names(
        &contract(),
        if mode == "trace" {
            "per_layer"
        } else {
            "end_to_end"
        },
    ) {
        assert!(
            stdout
                .lines()
                .any(|l| l.contains(&name) && l.trim_end().ends_with(&unit)),
            "{name} [{unit}] not printed"
        );
    }
    (dir, doc)
}

/// The workloads of a report, checked against the contract's list.
fn workloads(doc: &Json) -> Vec<Json> {
    let listed: Vec<String> = names(&contract(), "workloads")
        .into_iter()
        .map(|(name, _)| name)
        .collect();
    let measured = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .to_vec();
    let got: Vec<&str> = measured
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str))
        .collect();
    assert_eq!(got, listed, "the report's workloads are BENCHMARK.json's");
    measured
}

/// Assert the report carries every metric of `key` with the contract's
/// unit and a finite value — or, where `nullable`, an explicit null.
fn assert_metrics(workload: &Json, key: &str, nullable: bool) {
    let name_ok = |n: &str| {
        !n.is_empty()
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let who = workload.get("name").and_then(Json::as_str).unwrap_or("?");
    for (name, unit) in names(&contract(), key) {
        assert!(name_ok(&name), "{name}: not [A-Za-z0-9_.-]+");
        let metric = workload
            .get(key)
            .and_then(|m| m.get(&name))
            .unwrap_or_else(|| panic!("{who}: {name} missing"));
        assert_eq!(
            metric.get("unit").and_then(Json::as_str),
            Some(unit.as_str()),
            "{who}: unit of {name}"
        );
        match metric.get("value") {
            Some(Json::Num(v)) => assert!(v.is_finite(), "{who}: {name} = {v}"),
            Some(Json::Null) if nullable => {}
            other => panic!("{who}: {name} has value {other:?}"),
        }
    }
}

#[test]
fn quick_run_reports_every_end_to_end_metric() {
    let (_, doc) = quick("run");
    assert_eq!(doc.get("schema").and_then(Json::as_str), Some("rqp-perf/1"));
    for w in workloads(&doc) {
        assert_metrics(&w, "end_to_end", false);
        let value = |key: &str, name: &str| {
            w.get(key)
                .and_then(|m| m.get(name))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_num)
        };
        assert_eq!(
            value("end_to_end", "fail_ratio"),
            Some(0.0),
            "every result verified"
        );
        assert_eq!(
            value("per_layer", "server.leaked"),
            Some(0.0),
            "nothing held after the run"
        );
        assert_eq!(w.get("correct").and_then(Json::as_bool), Some(true));
    }
}

#[test]
fn quick_trace_reports_every_layer_and_writes_spans() {
    let (dir, doc) = quick("trace");
    for w in workloads(&doc) {
        assert_metrics(&w, "end_to_end", false);
        assert_metrics(&w, "per_layer", true);
        let name = w.get("name").and_then(Json::as_str).expect("name");
        let spans =
            std::fs::read_to_string(dir.join(format!("trace_{name}.jsonl"))).expect("span file");
        assert!(spans.lines().count() > 10, "{name}: spans recorded");
        for line in spans.lines().take(50) {
            let span = Json::parse(line).expect("a span is a JSON object");
            for key in ["name", "op", "id", "parent", "start_ns", "end_ns"] {
                assert!(span.get(key).is_some(), "{name}: span without {key}");
            }
        }
    }
}
