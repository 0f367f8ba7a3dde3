//! # rqp-adaptive
//!
//! The two flagship instantiations of the adaptivity loop — *measure →
//! analyze → plan → actuate* (Deshpande, Ives & Raman's survey frames every
//! adaptive technique this way) — that the seminar's optimization/execution
//! session calls complementary:
//!
//! * [`pop`] — **POP / progressive optimization** (Markl et al., SIGMOD
//!   2004): CHECK operators with validity ranges halt a mis-planned query
//!   mid-flight and re-optimize *with the materialized intermediate as a new
//!   base relation*, so completed work is reused, not discarded. "POP
//!   recognizes and avoids problems at runtime."
//! * [`leo`] — **LEO** (Stillger et al., VLDB 2001): a post-mortem learner
//!   that compares per-operator actuals with estimates after each query and
//!   feeds adjustment factors back into future optimizations. "LEO can then
//!   figure out the causes of problems."

#![warn(missing_docs)]

pub mod leo;
pub mod pop;

pub use leo::{run_with_feedback, LeoReport};
pub use pop::{run_standard, run_with_pop, PopConfig, PopReport, PopRound};
