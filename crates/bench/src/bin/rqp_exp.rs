//! `rqp-exp` — the one experiment binary.
//!
//! ```text
//! rqp-exp <name>... [--fast]   run the named experiments, in the order given
//! rqp-exp --all [--fast]       run every experiment, in registry order
//! rqp-exp --list               print the registry
//! ```
//!
//! Each experiment prints its report and writes `<name>.txt` plus a JSON run
//! report to `exp_output/` (override with `RQP_EXP_OUTPUT`); `--fast` is the
//! reduced-size variant. See DESIGN.md's per-experiment index. A07/A08 need
//! the `rqp-loadgen` binary (`cargo build -p rqp-net`) next to this one, or
//! named via `RQP_LOADGEN_BIN`.

use rqp_bench::experiments::{harness, Experiment, RunEnv, EXPERIMENTS};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage:
  rqp-exp <name>... [--fast]
  rqp-exp --all [--fast]
  rqp-exp --list

exit status: 0 on success, 1 when an experiment's artifact cannot be
written, 2 on bad invocation.";

enum Command {
    List,
    Run { experiments: Vec<Experiment>, fast: bool },
}

/// Parse the arguments after the program name. Anything that is not a known
/// flag or a registry name is an error: a typo must not run the wrong thing.
fn parse(args: &[String]) -> Result<Command, String> {
    let (mut fast, mut all, mut list) = (false, false, false);
    let mut experiments = Vec::new();
    for arg in args {
        match arg.as_str() {
            "--fast" => fast = true,
            "--all" => all = true,
            "--list" => list = true,
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
            name => match EXPERIMENTS.iter().find(|(n, _)| *n == name) {
                Some(experiment) => experiments.push(*experiment),
                None => return Err(format!("unknown experiment {name}")),
            },
        }
    }
    match (all, experiments.is_empty()) {
        _ if list && args.len() == 1 => Ok(Command::List),
        _ if list => Err("--list takes no other argument".to_string()),
        (true, true) => Ok(Command::Run { experiments: EXPERIMENTS.to_vec(), fast }),
        (true, false) => Err("--all takes no experiment names".to_string()),
        (false, true) => Err("no experiment named".to_string()),
        (false, false) => Ok(Command::Run { experiments, fast }),
    }
}

fn registry() -> String {
    EXPERIMENTS.iter().map(|(name, _)| format!("{name}\n")).collect()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (experiments, fast) = match parse(&args) {
        Ok(Command::List) => {
            print!("{}", registry());
            return ExitCode::SUCCESS;
        }
        Ok(Command::Run { experiments, fast }) => (experiments, fast),
        Err(e) => {
            eprintln!("{e}\n{USAGE}\n\nexperiments:\n{}", registry());
            return ExitCode::from(2);
        }
    };
    // The process environment enters here and nowhere else in the harness.
    let mut env = RunEnv::new(
        fast,
        std::env::var_os("RQP_EXP_OUTPUT").map_or_else(RunEnv::committed_dir, PathBuf::from),
    );
    if let Some(bin) = std::env::var_os("RQP_LOADGEN_BIN") {
        env.loadgen_bin = PathBuf::from(bin);
    }
    for experiment in experiments {
        if let Err(e) = harness::run_to_artifact(experiment, &env) {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names a command line selects and its `fast` flag, or the error.
    fn selected(args: &[&str]) -> Result<(Vec<&'static str>, bool), String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        match parse(&args)? {
            Command::List => Ok((vec!["--list"], false)),
            Command::Run { experiments, fast } => {
                Ok((experiments.iter().map(|(name, _)| *name).collect(), fast))
            }
        }
    }

    #[test]
    fn names_and_flags_select_experiments() {
        assert_eq!(selected(&["e01_pop_aggregate"]), Ok((vec!["e01_pop_aggregate"], false)));
        assert_eq!(
            selected(&["--fast", "e19_leo", "a07_wire_service"]),
            Ok((vec!["e19_leo", "a07_wire_service"], true)),
            "flags go anywhere; experiments run in the order given"
        );
        let (all, fast) = selected(&["--all", "--fast"]).unwrap();
        assert!(fast);
        assert_eq!(all.len(), 33);
        assert!(all.windows(2).all(|w| w[0] < w[1]), "registry is in name order");
        assert_eq!(selected(&["--list"]), Ok((vec!["--list"], false)));
    }

    #[test]
    fn typos_and_ambiguous_invocations_are_rejected() {
        assert_eq!(selected(&["--fats"]), Err("unknown flag --fats".to_string()));
        assert_eq!(selected(&["e01_pop_aggregate", "--fats"]).unwrap_err(), "unknown flag --fats");
        assert_eq!(selected(&["nosuch"]), Err("unknown experiment nosuch".to_string()));
        assert_eq!(selected(&["e01"]), Err("unknown experiment e01".to_string()), "no prefixes");
        assert_eq!(selected(&[]), Err("no experiment named".to_string()));
        assert_eq!(selected(&["--fast"]), Err("no experiment named".to_string()));
        assert!(selected(&["--all", "e01_pop_aggregate"]).is_err());
        assert!(selected(&["--list", "--all"]).is_err());
        assert!(selected(&["--list", "--fast"]).is_err());
    }
}
