//! # rqp-common
//!
//! Shared foundation types for the `rqp` robust-query-processing testbed:
//!
//! * [`value`] — dynamically typed scalar [`value::Value`]s and [`value::DataType`]s
//!   with a total order suitable for sorting and B-tree keys;
//! * [`schema`] — [`schema::Schema`]/[`schema::Field`] describing row shapes, and
//!   the [`schema::Row`] type flowing between operators;
//! * [`expr`] — a small scalar/boolean expression algebra ([`expr::Expr`]) with
//!   binding (name → index resolution), the one three-valued truth table
//!   ([`expr::Truth`]) its row and batch evaluators share, conjunct
//!   decomposition and the equivalent-query benchmark's rewrites;
//! * [`acc`] — the aggregate functions ([`acc::AggFunc`]) and the one
//!   [`acc::Accumulator`] that row, batch and standing-view aggregation all
//!   fold into (retractable, so a query is a view's load at weight +1);
//! * [`error`] — the crate-wide [`error::RqpError`] error enum with its
//!   retryable/fatal/cancellation taxonomy;
//! * [`cancel`] — the [`cancel::CancelToken`] cooperative-cancellation handle
//!   polled by operators at cost-charging boundaries, with deadlines in
//!   deterministic cost units;
//! * [`chaos`] — deterministic, seeded fault injection ([`chaos::ChaosPolicy`]):
//!   memory shocks, worker panics/stalls and transient scan errors whose
//!   decisions are pure hashes of `(seed, site, keys)`;
//! * [`clock`] — the deterministic [`clock::CostClock`] "virtual time" that every
//!   operator charges I/O and CPU cost units to, in exact fixed-point amounts,
//!   making robustness experiments reproducible to the bit;
//! * [`rule`] — the cost rules, one function per operator rule, that turn
//!   counts into the clock's [`clock::Amounts`]: what operators charge and
//!   what the optimizer predicts;
//! * [`rng`] — seeded random-number helpers (uniform, Zipf, correlated draws)
//!   so all workloads are deterministic;
//! * [`sync`] — the atomic primitives ([`sync::AtomicF64`]) behind the
//!   thread-safe governor/telemetry substrate;
//! * [`dict`] — the shared [`dict::StringDict`] interner mapping strings to
//!   dense `u32` codes so batch joins and group-bys compare integers;
//! * [`batch`] — the columnar [`batch::ColumnBatch`] (typed vectors + a
//!   selection bitmap) that batch-mode operators exchange instead of rows;
//! * [`engine`] — [`engine::EngineConfig`], the two engine switches
//!   (chaos seed, page budget) as one value, and the only reader of their
//!   environment variables;
//! * [`percentile`](mod@percentile) — the nearest-rank [`percentile::percentile`] every
//!   latency report uses.
//!
//! Everything else in the workspace (`rqp-storage`, `rqp-stats`, `rqp-exec`,
//! `rqp-opt`, …) builds on these types.

#![warn(missing_docs)]

pub mod acc;
pub mod batch;
pub mod cancel;
pub mod chaos;
pub mod clock;
pub mod dict;
pub mod engine;
pub mod error;
pub mod expr;
pub mod percentile;
pub mod rng;
pub mod rule;
pub mod schema;
pub mod sync;
pub mod value;

pub use acc::{Accumulator, AggFunc};
pub use batch::{ColumnBatch, ColVec, SelMask, DEFAULT_BATCH_ROWS};
pub use cancel::CancelToken;
pub use chaos::{ChaosConfig, ChaosPolicy, WorkerFault};
pub use clock::{Amounts, CostBreakdown, CostClock, CostModelParams, SharedClock};
pub use dict::StringDict;
pub use engine::EngineConfig;
pub use error::{Result, RqpError};
pub use expr::{CmpOp, Expr, SimplePred, Truth};
pub use percentile::percentile;
pub use schema::{Field, Row, Schema};
pub use sync::AtomicF64;
pub use value::{DataType, KeyAtom, Value};
