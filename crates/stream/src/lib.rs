//! # rqp-stream
//!
//! Incremental view maintenance: the engine behind standing subscriptions.
//!
//! A registered [`QuerySpec`](rqp_opt::QuerySpec) is compiled once into a
//! [`ViewCircuit`] — a dataflow of delta-aware operators mirroring the
//! batch engine's semantics exactly:
//!
//! * **filter** — each base table's local predicate, bound once over the
//!   columns the circuit reads of that table and applied to every incoming
//!   delta row;
//! * **hash join** — one stage per joined table (left-deep, in a
//!   connectivity-greedy order), each holding a *join index per side*
//!   (key → short bucket of weighted rows, narrowed to the columns a later
//!   rule reads). A delta entering on one side joins the
//!   opposite side's index and flows on; the classic bilinear rule
//!   `Δ(A ⋈ B) = ΔA ⋈ B + A ⋈ ΔB` degenerates to one term per changelog
//!   record because records are applied one at a time;
//! * **grouped aggregation** — the group table every aggregation folds
//!   into ([`rqp_storage::GroupTable`], over the one retractable
//!   [`rqp_common::Accumulator`]), driven at each change's weight where
//!   `HashAggOp` drives it at +1 — so a view finishes exactly as a
//!   from-scratch run (COUNT → `Int`, SUM → `Float`, AVG of nothing →
//!   `Null`; only MIN/MAX keep an ordered value multiset, so retraction
//!   can fall back to the runner-up);
//! * **projection** — applied last, over the aggregate's output schema,
//!   exactly where the batch planner puts it.
//!
//! Feeding the circuit an epoch-sequenced
//! [`ChangeRecord`](rqp_storage::changelog::ChangeRecord) stream yields
//! [`DeltaPacket`]s — the rows a subscriber must insert into and retract
//! from its copy of the view — instead of a full re-execution per change.
//!
//! ## The view-consistency contract
//!
//! For any interleaving of inserts and deletes, the maintained view
//! ([`ViewCircuit::snapshot`], canonically ordered) is **identical to
//! re-running the query from scratch** over the tables' current contents
//! (both sides canonicalized with [`canonicalize`], since a standing view
//! is an unordered multiset — which is also why `ORDER BY`/`LIMIT` specs
//! are rejected at compile time). Exactness of retraction is guaranteed
//! for integer data and floats whose sums stay exactly representable
//! (dyadic values well within the 53-bit mantissa — true of the testbed's
//! generators); arbitrary floats retain the usual floating-point caveat
//! that `(a + b) - b` may not equal `a`.
//!
//! Every delta charges the shared deterministic cost clock (tuples for
//! filter/join fan-out, hash charges for index and view maintenance), so
//! chaos-driven clock inflation degrades *per-delta latency* smoothly
//! rather than dropping deltas — the paper's robustness story extended to
//! continuous queries.

#![warn(missing_docs)]

pub mod circuit;

pub use circuit::{canonicalize, DeltaPacket, ViewCircuit};
