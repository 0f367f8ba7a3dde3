//! The experiments, grouped by theme. The `eNN_*` naming follows the
//! per-experiment index in `DESIGN.md`.

pub mod ablations;
pub mod benchmarks;
pub mod estimation;
pub mod execution;
pub mod harness;
pub mod observer;
pub mod optimizer;
pub mod pop;
pub mod resources;
pub mod service;
pub mod streaming;
pub mod wire;

pub use harness::RunEnv;

/// One registry row: the experiment's name (its artifact stem in
/// `exp_output/`) and its entry point.
pub type Experiment = (&'static str, fn(&RunEnv) -> String);

/// Every experiment, in name order: what `rqp-exp --all` runs and
/// `rqp-exp --list` prints.
pub const EXPERIMENTS: &[Experiment] = &[
    ("a01_pop_theta", ablations::a01_pop_theta),
    ("a02_amerge_runsize", ablations::a02_amerge_runsize),
    ("a03_eddy_decay", ablations::a03_eddy_decay),
    ("a04_parallel_scaling", ablations::a04_parallel_scaling),
    ("a05_resource_robustness", resources::a05_resource_robustness),
    ("a06_concurrent_service", service::a06_concurrent_service),
    ("a07_wire_service", wire::a07_wire_service),
    ("a08_live_observer", observer::a08_live_observer),
    ("a09_batch_speedup", ablations::a09_batch_speedup),
    ("a10_paged_degradation", resources::a10_paged_degradation),
    ("a11_continuous_queries", streaming::a11_continuous_queries),
    ("e01_pop_aggregate", pop::e01_pop_aggregate),
    ("e02_pop_ratio", pop::e02_pop_ratio),
    ("e03_pop_scatter", pop::e03_pop_scatter),
    ("e04_tractor_pull", benchmarks::e04_tractor_pull),
    ("e05_extrinsic", benchmarks::e05_extrinsic),
    ("e06_equivalence", benchmarks::e06_equivalence),
    ("e07_smoothness", optimizer::e07_smoothness),
    ("e08_card_metrics", estimation::e08_card_metrics),
    ("e09_robust_opt", optimizer::e09_robust_opt),
    ("e10_plan_diagram", optimizer::e10_plan_diagram),
    ("e11_cracking", execution::e11_cracking),
    ("e12_advisor", resources::e12_advisor),
    ("e13_fmt", resources::e13_fmt),
    ("e14_fpt", resources::e14_fpt),
    ("e15_mixed", resources::e15_mixed),
    ("e16_agreedy", execution::e16_agreedy),
    ("e17_eddy", execution::e17_eddy),
    ("e18_gjoin", execution::e18_gjoin),
    ("e19_leo", estimation::e19_leo),
    ("e20_rio", optimizer::e20_rio),
    ("e21_stats_refresh", optimizer::e21_stats_refresh),
    ("e22_blackhat", estimation::e22_blackhat),
];
