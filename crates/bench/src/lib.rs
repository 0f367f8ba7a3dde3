//! # rqp-bench
//!
//! The experiment harness: one function per table/figure the Dagstuhl 10381
//! report presents or specifies (see `DESIGN.md`'s per-experiment index).
//! Each experiment returns its printed report as a `String`; the `e*` binary
//! targets print it, and `EXPERIMENTS.md` records representative output.
//!
//! Run a single experiment:
//!
//! ```sh
//! cargo run --release -p rqp-bench --bin e01_pop_aggregate
//! ```
//!
//! All experiments accept a `fast` flag (used by the test suite and CI) that
//! shrinks data sizes while preserving each experiment's qualitative shape.

#![warn(missing_docs)]

pub mod experiments;

pub use experiments::*;
