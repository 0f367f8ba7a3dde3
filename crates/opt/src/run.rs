//! The one run loop: `Database`, the query service and the POP/LEO
//! experiments all plan, run and meter a query through here.
//!
//! POP and LEO are the two flagship instantiations of the adaptivity loop —
//! *measure → analyze → plan → actuate* (Deshpande, Ives & Raman's framing)
//! — that the seminar's optimization/execution session calls complementary:
//!
//! * [`run_plan`] builds, runs and meters one physical plan. Every node's
//!   [`Observation`] carries the plan's estimate, the actual, and LEO's
//!   per-operator-normalised estimate.
//! * [`learn`] — **LEO** (Stillger et al., VLDB 2001): the post-mortem
//!   learner, and the only place an execution enters a [`FeedbackRepo`].
//!   "LEO can then figure out the causes of problems."
//! * [`ExecutionMode::Pop`] — **POP** (Markl et al., SIGMOD 2004): CHECK
//!   operators with validity ranges halt a mis-planned query mid-flight and
//!   re-optimize *with the materialized intermediate as a new base
//!   relation*, so completed work is reused. "POP recognizes and avoids
//!   problems at runtime."
//! * [`execute`] runs a spec under any [`ExecutionMode`] on the two
//!   functions above.

use crate::robust::{robust_plan, RobustMode};
use crate::{plan as plan_query, PhysicalPlan, PlannerConfig, QuerySpec};
use rqp_common::{Result, Row, RqpError};
use rqp_exec::{ExecContext, PopSignal, SpanHandle};
use rqp_stats::{
    CardEstimator, FeedbackEstimator, FeedbackRepo, LyingEstimator, StatsEstimator,
    TableStatsRegistry,
};
use rqp_storage::Catalog;
use std::cell::RefCell;
use std::rc::Rc;

pub use crate::leo::learn;
pub use crate::pop::PopRound;

/// How a query should be optimized and executed.
#[derive(Debug, Clone, Copy)]
pub enum ExecutionMode {
    /// Classic compile-time optimization, run to completion.
    Static,
    /// Babcock–Chaudhuri robust plan choice at the given cost percentile,
    /// hedging against per-table estimation error of the given factor.
    Robust {
        /// Cost percentile to minimize (e.g. 0.9).
        percentile: f64,
        /// Assumed possible estimation-error factor.
        error_factor: f64,
    },
    /// Progressive optimization: CHECK operators + mid-query re-optimization.
    Pop {
        /// Validity ranges are `[est/theta, est*theta]`.
        theta: f64,
        /// Re-optimizations before the last round runs to completion
        /// unchecked.
        max_reopts: usize,
    },
    /// Execute with LEO feedback: estimates corrected by (and actuals
    /// recorded into) [`PlanInputs::feedback`].
    Leo,
}

impl ExecutionMode {
    /// POP with default parameters (θ = 5, three re-optimizations).
    pub fn pop() -> Self {
        ExecutionMode::Pop { theta: 5.0, max_reopts: 3 }
    }

    /// Robust with default parameters (90th percentile, 20× error box).
    pub fn robust() -> Self {
        ExecutionMode::Robust { percentile: 0.9, error_factor: 20.0 }
    }
}

/// A wrapper that lets the caller keep injecting estimation error into every
/// estimator a mode plans with — including the ones POP builds over actual
/// statistics for its materialized intermediates.
pub type EstimatorWrapper<'a> = dyn Fn(Box<dyn CardEstimator>) -> Box<dyn CardEstimator> + 'a;

/// What a query is planned against.
pub struct PlanInputs<'a> {
    /// Tables and indexes.
    pub catalog: &'a Catalog,
    /// Base-table statistics.
    pub registry: &'a TableStatsRegistry,
    /// Injected estimation error (none by default).
    pub lie: &'a EstimatorWrapper<'a>,
    /// The repository LEO reads corrections from and [`learn`]s into: it is
    /// borrowed to plan, released, then borrowed mutably to learn.
    /// Required by [`ExecutionMode::Leo`]; the other modes ignore it.
    pub feedback: Option<&'a RefCell<FeedbackRepo>>,
    /// Planner configuration.
    pub config: PlannerConfig,
}

impl<'a> PlanInputs<'a> {
    /// Plan over `catalog` and `registry` as they are: no injected error, no
    /// feedback, the default planner configuration.
    pub fn new(catalog: &'a Catalog, registry: &'a TableStatsRegistry) -> Self {
        let config = PlannerConfig::default();
        PlanInputs { catalog, registry, lie: &no_lies, feedback: None, config }
    }

    /// The histogram estimator over `registry`, with the injected error.
    pub(crate) fn estimator(&self, registry: &Rc<TableStatsRegistry>) -> Box<dyn CardEstimator> {
        (self.lie)(Box::new(StatsEstimator::new(Rc::clone(registry))))
    }
}

fn no_lies(inner: Box<dyn CardEstimator>) -> Box<dyn CardEstimator> {
    inner
}

/// One metered plan node after execution.
#[derive(Debug)]
pub struct Observation {
    /// The estimate the plan carried.
    pub estimated: f64,
    /// LEO's per-operator estimate: `estimated` × ∏ (actual / estimate) over
    /// the node's direct children, so a join whose inputs were misestimated
    /// does not absorb (and later double-apply) their correction.
    pub normalized: f64,
    /// Rows the node produced.
    pub actual: usize,
    /// LEO feedback key. Filtered scans, index scans and joins have one;
    /// aggregates, sorts, top-N, projections and unfiltered scans do not, so
    /// no feedback can move their estimates.
    pub signature: Option<String>,
    /// The node's span, where [`learn`] records its corrections.
    pub(crate) span: SpanHandle,
}

/// The result of one query under any [`ExecutionMode`].
#[derive(Debug)]
pub struct Execution {
    /// Result rows.
    pub rows: Vec<Row>,
    /// Cost-clock units charged, over every round.
    pub cost: f64,
    /// Fingerprint of the plan that produced `rows` (POP: the last round's).
    pub plan_fingerprint: String,
    /// The POP rounds a CHECK halted, in order; empty in every other mode.
    pub rounds: Vec<PopRound>,
    /// The final plan's nodes in build (post-)order; the last is the root.
    pub observations: Vec<Observation>,
}

impl Execution {
    /// Number of mid-flight re-optimizations (POP only; 0 otherwise).
    pub fn reoptimizations(&self) -> usize {
        self.rounds.len()
    }

    /// Maximum q-error over the nodes LEO learns from (those with a
    /// [`signature`](Observation::signature)): a q-error no re-plan can
    /// correct says nothing about the plan.
    pub fn max_q_error(&self) -> f64 {
        self.observations
            .iter()
            .filter(|o| o.signature.is_some())
            .map(|o| rqp_stats::q_error(o.estimated, o.actual as f64))
            .fold(1.0, f64::max)
    }
}

/// Build, run and meter `plan`. `signal` is what POP's CHECK operators
/// raise; every other caller passes `None`.
pub fn run_plan(
    plan: &PhysicalPlan,
    catalog: &Catalog,
    signal: Option<Rc<PopSignal>>,
    ctx: &ExecContext,
) -> Result<Execution> {
    let plan_fingerprint = plan.fingerprint();
    let start = ctx.clock.now();
    let mut built = plan.build(catalog, ctx, signal)?;
    let rows = built.run();
    let cost = ctx.clock.now() - start;
    let observations = (0..built.meters.len())
        .map(|i| {
            let m = &built.meters[i];
            let mut normalized = m.est_rows;
            for c in built.children_of(i) {
                let cm = &built.meters[c];
                normalized *= (cm.actual_rows() as f64).max(1.0) / cm.est_rows.max(1.0);
            }
            Observation {
                estimated: m.est_rows,
                normalized,
                actual: m.actual_rows(),
                signature: m.feedback_signature.clone(),
                span: m.span.clone(),
            }
        })
        .collect();
    Ok(Execution { rows, cost, plan_fingerprint, rounds: Vec::new(), observations })
}

/// Plan `spec` against `inputs` under `mode` and run it on `ctx`. Only
/// [`ExecutionMode::Leo`] reads or writes the feedback repository.
pub fn execute(
    spec: &QuerySpec,
    inputs: &PlanInputs<'_>,
    mode: ExecutionMode,
    ctx: &ExecContext,
) -> Result<Execution> {
    let (catalog, config) = (inputs.catalog, inputs.config);
    let registry = Rc::new(inputs.registry.clone());
    let plan = match mode {
        ExecutionMode::Static => {
            plan_query(spec, catalog, inputs.estimator(&registry).as_ref(), config)?
        }
        ExecutionMode::Robust { percentile, error_factor } => {
            if error_factor < 1.0 {
                return Err(RqpError::Invalid("error_factor must be ≥ 1".into()));
            }
            // Scenarios: the point estimate plus over/under scenarios for
            // every table in the query.
            let mut scenarios = vec![inputs.estimator(&registry)];
            for t in &spec.tables {
                for f in [1.0 / error_factor, error_factor] {
                    scenarios.push(Box::new(
                        LyingEstimator::new(inputs.estimator(&registry)).with_table_factor(t, f),
                    ));
                }
            }
            robust_plan(spec, catalog, &scenarios, config, RobustMode::Percentile(percentile))?
                .plan
        }
        ExecutionMode::Pop { theta, max_reopts } => {
            return crate::pop::run(spec, inputs, theta, max_reopts, ctx)
        }
        ExecutionMode::Leo => {
            let repo = inputs.feedback.ok_or_else(|| {
                RqpError::Invalid("LEO mode needs a feedback repository".into())
            })?;
            let repo = repo.borrow();
            let est = FeedbackEstimator::new(inputs.estimator(&registry), &repo);
            plan_query(spec, catalog, &est, config)?
        }
    };
    let exec = run_plan(&plan, catalog, None, ctx)?;
    if let (ExecutionMode::Leo, Some(repo)) = (mode, inputs.feedback) {
        learn(&exec, &mut repo.borrow_mut(), ctx);
    }
    Ok(exec)
}
