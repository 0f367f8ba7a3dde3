//! One reader of the cost weights. The `CostModelParams` weights are read
//! by one function, the fold `Amounts::breakdown` that turns charged or
//! predicted amounts into cost; the clock and the optimizer's costing walk
//! both price through it, so equal counts give equal bits. A formula that
//! multiplies a weight anywhere else is a second cost model that can drift
//! from the clock. Test code (`tests/`, and `src/` after its first
//! `#[cfg(test)]`) may read them.
//!
//! Compiled under `rqp-common`, next to the one reader.

use std::path::{Path, PathBuf};

const WEIGHTS: [&str; 7] =
    ["seq_page", "rand_page", "cpu_tuple", "cpu_compare", "hash_build", "hash_probe", "spill_page"];
const READER: &str = "crates/common/src/clock.rs";
const FOLD: &str = "pub fn breakdown(&self, p: &CostModelParams) -> CostBreakdown {";

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

/// Whether `code` reads weight `w` as a field (`.w` not followed by more of
/// an identifier: `.hash_builds(` or `rule::hash_build(` is no read).
fn reads(code: &str, w: &str) -> bool {
    code.match_indices(w).any(|(at, _)| {
        let after = code[at + w.len()..].chars().next();
        code[..at].ends_with('.') && !after.is_some_and(|c| c.is_alphanumeric() || c == '_')
    })
}

#[test]
fn the_cost_weights_are_read_by_the_one_fold_only() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut files = Vec::new();
    for top in ["crates", "examples"] {
        rust_files(&root.join(top), &mut files);
    }
    let (mut offences, mut in_fold) = (Vec::new(), 0);
    for file in files {
        let rel = file.strip_prefix(&root).expect("under the root").to_string_lossy();
        let rel = rel.replace('\\', "/");
        let text = std::fs::read_to_string(&file).expect("read source file");
        let mut fold_depth: Option<usize> = None;
        for (at, line) in text.lines().enumerate() {
            let code = line.trim_start();
            if code.starts_with("#[cfg(test)]") {
                break;
            }
            if code.starts_with("//") {
                continue;
            }
            if rel == READER && code == FOLD {
                fold_depth = Some(line.len() - code.len());
            }
            for w in WEIGHTS.iter().filter(|w| reads(code, w)) {
                match fold_depth {
                    Some(_) => in_fold += 1,
                    None => offences.push(format!("{rel}:{}: reads `{w}`: {code}", at + 1)),
                }
            }
            if fold_depth.is_some_and(|d| code == "}" && line.len() - code.len() == d) {
                fold_depth = None;
            }
        }
    }
    assert!(offences.is_empty(), "a weight read outside the fold:\n{}", offences.join("\n"));
    assert_eq!(in_fold, WEIGHTS.len(), "the fold reads each weight once; update this test");
}
