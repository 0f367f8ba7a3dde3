//! # rqp-telemetry
//!
//! The runtime observability substrate. Every robustness mechanism in the
//! seminar is a feedback loop over *observed* execution behavior — POP
//! compares actual cardinalities against validity ranges, LEO learns from
//! per-node actuals, Rio's validity boxes need live counters — and
//! "Visualizing the robustness of query execution" (Graefe/Kuno/Wiener)
//! argues robustness work starts from making that behavior visible. This
//! crate is the one place it all flows through:
//!
//! * [`span`] — **operator spans**: lightweight per-operator records
//!   (estimated vs actual rows, open/first-row/close positions on the cost
//!   clock, memory grants, spill volume) collected by a [`Tracer`]. Handles
//!   are `Rc`-backed with `Cell` fields, so bumping a span in an operator's
//!   inner loop is a single unsynchronized store — no allocation, no
//!   locking;
//! * [`metrics`] — a **metrics registry** of named counters, gauges and
//!   log-scale histograms, with the same cheap-handle discipline;
//! * [`recorder`] — the **flight recorder**: a fixed-capacity ring of
//!   sequenced service events (admission, broker, pager, lifecycle) with
//!   overwrite-with-gap-counting semantics, tailable live by a cursor;
//! * [`trace`] — assembles spans into a **query trace tree** and renders it
//!   `EXPLAIN ANALYZE`-style;
//! * [`report`] — **structured run reports**: a JSON document per
//!   experiment run (cost breakdown, trace, metrics, RNG seeds,
//!   adaptive-decision events) that the bench harness writes to
//!   `exp_output/`, diffable across commits;
//! * [`scoreboard`] — folds a directory of run reports into one
//!   cross-run **scoreboard** of the paper metrics (M1/M3, smoothness,
//!   intrinsic/extrinsic variability), with a thresholded diff — the CI
//!   regression gate behind `rqp-report diff`;
//! * [`json`] — the dependency-free JSON value type, writer and parser the
//!   reports round-trip through.

#![warn(missing_docs)]

pub mod json;
pub mod metrics;
pub mod recorder;
pub mod report;
pub mod scoreboard;
pub mod span;
pub mod trace;

pub use json::Json;
pub use metrics::{
    bucket_quantile, Counter, Gauge, Histogram, MetricValue, MetricsRegistry, MetricsSnapshot,
};
pub use recorder::{EventTail, FlightRecorder, RecordedEvent};
pub use report::RunReport;
pub use scoreboard::{Regression, Scoreboard, ScoreboardEntry};
pub use span::{SpanEvent, SpanHandle, SpanSnapshot, Tracer};
pub use trace::{TraceNode, TraceTree};
