//! # rqp-exec
//!
//! The Volcano-style execution engine. Every operator implements
//! [`Operator`] (`open`-free, pull-based `next()`), charges the shared
//! [cost clock](rqp_common::clock) as it touches pages and tuples, and counts
//! the *actual* rows it produces — the raw material of every adaptive
//! technique in the seminar (POP checks actuals against validity ranges, LEO
//! feeds them back to the optimizer, eddies re-route on observed pass rates).
//!
//! Operator inventory:
//!
//! * [`scan`] — row table scan (the batch scan's reference), (un)clustered
//!   index scan over one- or multi-column indexes (equality prefix +
//!   range), cracker scan, adaptive-merge scan;
//! * [`filter`] — filter and project;
//! * [`join`] — hash join (with Grace-style spill), sort-merge join,
//!   index-nested-loop join, block-nested-loop join;
//! * [`gjoin`] — Graefe's **generalized join**: one algorithm that behaves
//!   like merge join on sorted inputs, like hash join on unsorted inputs and
//!   like index-nested-loop when an index + small outer make probing cheap;
//! * [`symjoin`] — the symmetric (pipelined, non-blocking) hash join used by
//!   adaptive routing;
//! * [`mjoin`] — the **n-ary symmetric hash join (MJoin)** with adaptive
//!   probing sequences;
//! * [`sort`] — memory-bounded sort with external-run spill accounting, and
//!   top-N;
//! * [`agg`] — hash aggregation (COUNT/SUM/MIN/MAX/AVG);
//! * [`eddy`] — an **eddy** (Avnur & Hellerstein) with lottery-scheduled
//!   routing over selection predicates and star-join probe SteMs;
//! * [`agreedy`] — **A-Greedy** adaptive selection ordering (Babu et al.);
//! * [`checkpoint`] — **POP CHECK operators** (Markl et al.): materialization
//!   points that compare actual cardinality against a validity range and
//!   signal re-optimization;
//! * [`exchange`] — Volcano-style exchange, two constructors over one
//!   deterministic gather across `std::thread` workers: a parallel scan
//!   whose workers run the planner's batch scan over page-aligned ranges,
//!   and a hash/range row repartition with injectable skew;
//! * [`batch`] — batch-at-a-time twins of the hot-path operators
//!   (scan/filter/project/hash join/hash agg) exchanging columnar
//!   [`rqp_common::ColumnBatch`]es with dictionary-encoded strings, plus the
//!   batch→row adapter; charge-compatible with their scalar twins;
//! * [`context`] — the execution context: cost clock, memory governor,
//!   span tracer and metrics registry.
//!
//! Every operator opens a [`rqp_telemetry`] span at construction and bumps
//! it per produced row, so actual cardinalities, grants and spills are
//! always observable via [`ExecContext::tracer`] — no wrapper needed.

#![warn(missing_docs)]

pub mod agg;
pub mod agreedy;
pub mod batch;
pub mod checkpoint;
pub mod context;
pub mod eddy;
pub mod exchange;
pub mod filter;
pub mod gjoin;
pub mod join;
pub mod mjoin;
pub mod scan;
pub mod sort;
pub mod symjoin;

pub use agg::{AggBinding, AggFunc, AggSpec, HashAggOp};
pub use agreedy::AGreedyFilterOp;
pub use batch::{
    BatchFilterOp, BatchHashAggOp, BatchHashJoinOp, BatchOperator, BatchProjectOp, BatchRowsOp,
    BatchScanOp, BoxBatchOp,
};
pub use checkpoint::{CheckOp, CheckOutcome, PopSignal};
pub use context::{collect, ExecContext, MemoryGovernor, SpanOp, WorkspaceLease};
pub use eddy::{EddyFilterOp, RoutingPolicy, StarEddyOp};
pub use exchange::{pipeline, ExchangeOp, Partitioning, PipelineBuilder};
pub use filter::{FilterOp, ProjectOp};
pub use gjoin::GJoinOp;
pub use join::{BnlJoinOp, HashJoinOp, IndexNlJoinOp, MergeJoinOp};
pub use mjoin::MJoinOp;
pub use scan::{AMergeScanOp, CrackerScanOp, IndexScanOp, TableScanOp};
pub use sort::{SortOp, TopNOp};
pub use symjoin::SymmetricHashJoinOp;

use rqp_common::{Row, Schema};

pub use rqp_telemetry::SpanHandle;

/// A pull-based physical operator.
pub trait Operator {
    /// Output schema.
    fn schema(&self) -> &Schema;

    /// Produce the next row, or `None` when exhausted.
    fn next(&mut self) -> Option<Row>;

    /// The telemetry span counting this operator's output, if it keeps one.
    ///
    /// Every operator in this crate does; the default exists so external
    /// sources (test fixtures, adapters) don't have to. Consumers parent
    /// their inputs' spans beneath their own at construction, which is how
    /// the trace tree takes the plan's shape.
    fn span(&self) -> Option<&SpanHandle> {
        None
    }
}

/// Boxed operator, the unit of plan composition.
pub type BoxOp = Box<dyn Operator>;
