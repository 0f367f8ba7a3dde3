//! # rqp-bench
//!
//! The experiment harness: one function per table/figure the Dagstuhl 10381
//! report presents or specifies (see `DESIGN.md`'s per-experiment index).
//! Each experiment returns its printed report as a `String`; the `rqp-exp`
//! binary runs rows of the [`EXPERIMENTS`] registry and prints them, and
//! `EXPERIMENTS.md` records representative output.
//!
//! Run one experiment, or all of them:
//!
//! ```sh
//! cargo run --release -p rqp-bench --bin rqp-exp -- e01_pop_aggregate
//! cargo run --release -p rqp-bench --bin rqp-exp -- --all --fast
//! ```
//!
//! Every experiment takes a [`RunEnv`]: the output directory, the loadgen
//! binary A07/A08 spawn, the engine switches, and the `fast` flag (used by
//! the test suite and CI) that shrinks data sizes while preserving each
//! experiment's qualitative shape. `rqp-exp` builds it from its arguments
//! and environment; tests build one over a temp directory.

#![warn(missing_docs)]

pub mod experiments;

pub use experiments::*;
