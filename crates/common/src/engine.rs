//! The engine switches as one plain value.
//!
//! Two switches turn a whole process hostile for a CI leg: seeded chaos and
//! a squeezed buffer pool. (Execution mode is not a switch: the planner
//! lowers every table scan to the one batch pipeline.) They arrive through
//! the process environment, and this module is the only place that reads
//! them: a binary's `main` calls [`EngineConfig::from_env`], everything that
//! merely wants "whatever this process was started under" (the
//! `ServiceConfig` default) copies [`EngineConfig::ambient`], and anything
//! that wants a *specific* setting passes it as a value. README.md
//! § *Configuration* has the table.

use std::sync::OnceLock;

/// The engine switches a process (or one service) runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineConfig {
    /// Seed of the standard chaos mix a query service injects
    /// (`RQP_CHAOS_SEED` = a `u64`; unset or unparsable is no chaos).
    pub chaos_seed: Option<u64>,
    /// Frames of the service's brokered buffer pool (`RQP_PAGE_BUDGET` = a
    /// positive integer; unset, `0` or unparsable keeps tables resident).
    pub page_budget: Option<usize>,
}

impl EngineConfig {
    /// Parse the two variables out of `lookup` (variable name → value), so
    /// the parse rules are testable without touching the environment.
    fn from_lookup(lookup: impl Fn(&str) -> Option<String>) -> Self {
        EngineConfig {
            chaos_seed: lookup("RQP_CHAOS_SEED").and_then(|s| s.trim().parse().ok()),
            page_budget: lookup("RQP_PAGE_BUDGET")
                .and_then(|s| s.trim().parse().ok())
                .filter(|&n| n > 0),
        }
    }

    /// Read the process environment. For a binary's `main`.
    pub fn from_env() -> Self {
        Self::from_lookup(|name| std::env::var(name).ok())
    }

    /// The environment this process was started under, read once on first
    /// use. What the `ServiceConfig` default copies, so a CI leg's
    /// variables reach every test without any test naming them.
    pub fn ambient() -> Self {
        static AMBIENT: OnceLock<EngineConfig> = OnceLock::new();
        *AMBIENT.get_or_init(Self::from_env)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(name: &'static str, value: Option<&'static str>) -> EngineConfig {
        EngineConfig::from_lookup(|n| value.filter(|_| n == name).map(str::to_string))
    }

    #[test]
    fn parse_table() {
        assert_eq!(parsed("RQP_CHAOS_SEED", None), EngineConfig::default(), "nothing set, nothing on");
        for (value, want) in [
            ("1337", Some(1337)),
            (" 42\n", Some(42)),
            ("0", Some(0)),
            ("", None),
            ("-1", None),
            ("seed", None),
        ] {
            assert_eq!(parsed("RQP_CHAOS_SEED", Some(value)).chaos_seed, want, "{value:?}");
        }
        for (value, want) in
            [("16", Some(16)), (" 500 ", Some(500)), ("0", None), ("", None), ("many", None)]
        {
            assert_eq!(parsed("RQP_PAGE_BUDGET", Some(value)).page_budget, want, "{value:?}");
        }
        // Each variable sets its own field and no other.
        let one = parsed("RQP_PAGE_BUDGET", Some("16"));
        assert_eq!(one, EngineConfig { page_budget: Some(16), ..EngineConfig::default() });
    }

    #[test]
    fn ambient_is_the_environment_read_once() {
        assert_eq!(EngineConfig::ambient(), EngineConfig::from_env());
        assert_eq!(EngineConfig::ambient(), EngineConfig::ambient());
    }
}
