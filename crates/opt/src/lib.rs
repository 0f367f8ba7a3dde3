//! # rqp-opt
//!
//! The cost-based query optimizer, plus every *plan-robustness* technique the
//! Dagstuhl report catalogues, and the one run loop that executes its plans:
//!
//! * [`query`] — the conjunctive-query descriptor ([`query::QuerySpec`]) the
//!   planner consumes;
//! * [`cost`] — the optimizer's cost model: one costing walk that prices a
//!   plan with the executor's own cost rules and the clock's fold, on
//!   estimated or observed counts, so that *estimation error, not
//!   cost-model error*, is the experimental variable;
//! * [`physical`] — physical plan trees, re-estimation of a fixed plan under
//!   a different estimator, and compilation to `rqp-exec` operators;
//! * [`planner`] — dynamic-programming join enumeration (left-deep or bushy)
//!   with access-path selection;
//! * [`robust`] — **Babcock–Chaudhuri** robust plan selection: cost candidate
//!   plans across selectivity scenarios and pick by percentile or least
//!   expected cost instead of the optimistic point estimate;
//! * [`plandiagram`] — **plan diagrams** over a 2-D selectivity grid and
//!   **anorexic reduction** (Harish, Darera & Haritsa): swallow plans into a
//!   ≤ (1+λ) cost-degradation cover;
//! * [`validity`] — **validity ranges** for POP checkpoints: the cardinality
//!   interval within which the chosen plan stays near-optimal;
//! * [`rio`] — **Rio** bounding boxes (Babu, Bizarro, DeWitt): uncertainty-
//!   scaled corner checks that classify a plan as robust or switchable;
//! * [`parametric`] — a parametric plan cache (PQO-lite): reuse plans across
//!   parameter values that land in the same selectivity bucket;
//! * [`run`] — the run loop every query goes through: static, robust,
//!   **POP** (progressive optimization) and **LEO** (learning from
//!   execution feedback) execution of a [`QuerySpec`].

#![warn(missing_docs)]

pub mod cost;
mod leo;
pub mod parametric;
pub mod physical;
pub mod plandiagram;
pub mod planner;
mod pop;
pub mod query;
pub mod rio;
pub mod robust;
pub mod run;
pub mod validity;

pub use cost::CostModel;
pub use parametric::{ParametricPlanCache, PqoOutcome};
pub use physical::{BuiltPlan, NodeMeter, PhysicalPlan};
pub use plandiagram::{AnorexicReduction, PlanDiagram};
pub use planner::{plan, Planner, PlannerConfig};
pub use query::{JoinEdge, QuerySpec};
pub use rio::{RioAnalysis, RioRobustness, UncertaintyLevel};
pub use robust::{robust_plan, RobustChoice, RobustMode};
pub use run::{execute, Execution, ExecutionMode, PlanInputs};
pub use validity::validity_range;
