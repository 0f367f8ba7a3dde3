//! # rqp — a robust query processing testbed
//!
//! `rqp` reproduces, as one coherent system, the landscape mapped by
//! Dagstuhl seminar 10381 *Robust Query Processing* (Graefe, Kuno, König,
//! Markl, Sattler — 2011): a relational engine substrate, every major
//! robustness mechanism the seminar surveys, and the robustness *metrics and
//! benchmarks* its break-out sessions define.
//!
//! ## Layers
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`common`] | `rqp-common` | values, schemas, expressions, cost clock |
//! | [`storage`] | `rqp-storage` | tables, B-trees, **database cracking**, **adaptive merging**, shared scans |
//! | [`stats`] | `rqp-stats` | histograms, self-tuning histograms, sampling posteriors, **maximum-entropy selectivity**, q-error, **LEO feedback** |
//! | [`exec`] | `rqp-exec` | Volcano operators: joins (hash/merge/INL/BNL/**g-join**/symmetric), sort, aggregation, **eddies**, **A-Greedy**, **POP CHECK** |
//! | [`opt`] | `rqp-opt` | DP optimizer, **robust (percentile) plan choice**, **plan diagrams + anorexic reduction**, **validity ranges**, **Rio boxes**, parametric cache, the run loop with its **POP** and **LEO** modes |
//! | [`physical`] | `rqp-physical` | index advisor (classic and **Risk/Generality**), drift evaluation, stats-refresh disasters |
//! | [`workload`] | `rqp-workload` | TPC-H-like / star / OLTP generators, black-hat traps, tractor pull, FMT/FPT, workload manager |
//! | [`server`] | `rqp-server` | concurrent query service: sessions, MPL admission, cross-query memory brokering, plan cache, cooperative cancellation, standing subscriptions |
//! | [`stream`] | `rqp-stream` | incremental view maintenance: delta circuits over streaming inserts/deletes, retractable aggregates |
//! | [`metrics`] | `rqp-metrics` | S(Q), C(Q), Metric1/3, intrinsic/extrinsic variability, plan stability, box plots |
//! | [`telemetry`] | `rqp-telemetry` | operator spans, metrics registry, EXPLAIN ANALYZE trace trees, JSON run reports |
//!
//! ## Quick start
//!
//! ```
//! use rqp::{Database, ExecutionMode};
//! use rqp::workload::{TpchDb, tpch::TpchParams};
//!
//! // Generate a TPC-H-like database and wrap it.
//! let tpch = TpchDb::build(TpchParams { lineitem_rows: 2000, ..Default::default() }, 42);
//! let mut db = Database::from_catalog(tpch.catalog.clone());
//! db.analyze();
//!
//! // Plan + execute a 3-way join.
//! let q = tpch.q3(1, 1200);
//! let result = db.execute(&q).unwrap();
//! assert!(!result.rows.is_empty());
//! assert!(result.cost > 0.0);
//!
//! // Same query under progressive optimization.
//! let pop = db.execute_mode(&q, ExecutionMode::pop()).unwrap();
//! assert_eq!(pop.rows.len(), result.rows.len());
//! ```

#![warn(missing_docs)]

pub use rqp_common as common;
pub use rqp_exec as exec;
pub use rqp_metrics as metrics;
pub use rqp_opt as opt;
pub use rqp_physical as physical;
pub use rqp_server as server;
pub use rqp_stats as stats;
pub use rqp_storage as storage;
pub use rqp_stream as stream;
pub use rqp_telemetry as telemetry;
pub use rqp_workload as workload;

mod db;

pub use db::Database;

// The most-used types, re-exported flat.
pub use rqp_common::{expr, DataType, Expr, Row, Schema, Value};
pub use rqp_exec::{AggFunc, AggSpec, ExecContext};
pub use rqp_opt::{Execution, ExecutionMode, PhysicalPlan, PlannerConfig, QuerySpec};
pub use rqp_storage::{Catalog, Table};
