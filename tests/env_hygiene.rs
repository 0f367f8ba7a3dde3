//! The process environment is an input at the edge. Engine switches are read
//! by `rqp_common::EngineConfig::from_env` and nowhere else, the experiment
//! harness's output directory and loadgen path by `rqp-exp`'s `main` and
//! nowhere else, and nothing writes the environment: `setenv` beside a
//! neighbouring test thread's `getenv` is a data race, and a flipped switch
//! changes what every concurrently planning test gets. `crates/perf/` is the
//! benchmark's own program and keeps its scrub; doc comments may name the
//! variables, code and plain comments may not.
//!
//! Compiled under `rqp-common`, next to the one reader.

use std::path::{Path, PathBuf};

const ENGINE_VARS: [&str; 2] = ["RQP_CHAOS_SEED", "RQP_PAGE_BUDGET"];
const ENGINE_READER: &str = "crates/common/src/engine.rs";
const RUN_VARS: [&str; 2] = ["RQP_EXP_OUTPUT", "RQP_LOADGEN_BIN"];
const RUN_READER: &str = "crates/bench/src/bin/rqp_exp.rs";
const WRITES: [&str; 2] = ["env::set_var", "env::remove_var"];
/// This file has to spell out what it looks for.
const SELF: &str = "tests/env_hygiene.rs";

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("read source directory") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn the_environment_is_read_at_the_edge_and_never_written() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut files = Vec::new();
    for top in ["crates", "tests", "examples"] {
        rust_files(&root.join(top), &mut files);
    }
    let mut offences = Vec::new();
    let mut readers_seen = 0;
    for file in files {
        let rel = file.strip_prefix(&root).expect("under the root").to_string_lossy().replace('\\', "/");
        if rel.starts_with("crates/perf/") || rel == SELF {
            continue;
        }
        readers_seen += usize::from(rel == ENGINE_READER || rel == RUN_READER);
        let text = std::fs::read_to_string(&file).expect("read source file");
        for (at, line) in text.lines().enumerate() {
            let code = line.trim_start();
            if code.starts_with("///") || code.starts_with("//!") {
                continue;
            }
            let names = |vars: &[&str], reader: &str| {
                rel != reader && vars.iter().any(|var| code.contains(var))
            };
            if WRITES.iter().any(|call| code.contains(call))
                || names(&ENGINE_VARS, ENGINE_READER)
                || names(&RUN_VARS, RUN_READER)
            {
                offences.push(format!("{rel}:{}: {code}", at + 1));
            }
        }
    }
    assert_eq!(readers_seen, 2, "the two readers moved; update this test");
    assert!(offences.is_empty(), "environment access off the edge:\n{}", offences.join("\n"));
}
