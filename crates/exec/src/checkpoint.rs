//! POP CHECK operators (Markl, Raman, Simmen, Lohman, Pirahesh —
//! *Robust Query Processing through Progressive Optimization*, SIGMOD 2004).
//!
//! A CHECK operator sits at a materialization point of the plan. It carries a
//! **validity range** `[lo, hi]`: the interval of actual cardinalities within
//! which the remainder of the plan is still (near-)optimal, computed by the
//! optimizer at plan time. At runtime the CHECK materializes its input,
//! counts the actual rows, and — if the count escapes the range — *stops the
//! plan* and publishes the materialized intermediate through a shared
//! [`PopSignal`], so the re-optimizer can reuse the completed work as a new
//! base relation instead of discarding it.

use crate::context::ExecContext;
use crate::{BoxOp, Operator};
use rqp_common::{Row, Schema};
use rqp_telemetry::SpanHandle;
use std::cell::RefCell;
use std::rc::Rc;

/// Outcome of a CHECK once it has materialized its input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckOutcome {
    /// Not yet evaluated.
    Pending,
    /// Actual cardinality inside the validity range: plan continues.
    Passed,
    /// Range violated: plan halted, intermediate published for reuse.
    Violated,
}

/// A violation report carrying the reusable intermediate result.
#[derive(Debug, Clone)]
pub struct CheckViolation {
    /// Which checkpoint fired.
    pub checkpoint_id: usize,
    /// Estimated cardinality the optimizer planned with.
    pub estimated_rows: f64,
    /// Validity range `[lo, hi]` that was violated.
    pub validity: (f64, f64),
    /// Actual row count observed.
    pub actual_rows: usize,
    /// The materialized intermediate (reusable work).
    pub buffer: Vec<Row>,
    /// Schema of the intermediate.
    pub schema: Schema,
}

/// Shared mailbox through which a CHECK reports a violation to the POP
/// driver.
#[derive(Debug, Default)]
pub struct PopSignal {
    violation: RefCell<Option<CheckViolation>>,
}

impl PopSignal {
    /// Fresh signal.
    pub fn new() -> Rc<Self> {
        Rc::new(PopSignal::default())
    }

    /// Take the violation, if any (clears the mailbox).
    pub fn take(&self) -> Option<CheckViolation> {
        self.violation.borrow_mut().take()
    }

    /// True if a violation is waiting.
    pub fn violated(&self) -> bool {
        self.violation.borrow().is_some()
    }

    /// First violation wins: once a CHECK upstream has fired, every operator
    /// below it sees a truncated stream, so later "violations" are artifacts
    /// and must not mask the real one.
    fn publish(&self, v: CheckViolation) {
        let mut slot = self.violation.borrow_mut();
        if slot.is_none() {
            *slot = Some(v);
        }
    }
}

/// The CHECK operator.
pub struct CheckOp {
    inner: Option<BoxOp>,
    checkpoint_id: usize,
    estimated_rows: f64,
    validity: (f64, f64),
    signal: Rc<PopSignal>,
    schema: Schema,
    ctx: ExecContext,
    buffered: Option<std::vec::IntoIter<Row>>,
    outcome: CheckOutcome,
    span: SpanHandle,
    /// The input's span, when it carries one: the authoritative actual-
    /// cardinality observation (un-instrumented test sources fall back to
    /// the buffer length).
    input_span: Option<SpanHandle>,
}

impl CheckOp {
    /// Wrap `inner` with a checkpoint. `validity` is the inclusive actual-
    /// cardinality interval within which the downstream plan remains valid.
    pub fn new(
        inner: BoxOp,
        checkpoint_id: usize,
        estimated_rows: f64,
        validity: (f64, f64),
        signal: Rc<PopSignal>,
        ctx: ExecContext,
    ) -> Self {
        let schema = inner.schema().clone();
        let span = ctx.op_span("check", &[&inner]);
        span.set_est_rows(estimated_rows);
        span.set_detail(&format!("cp{checkpoint_id} [{},{}]", validity.0, validity.1));
        let input_span = inner.span().cloned();
        CheckOp {
            inner: Some(inner),
            checkpoint_id,
            estimated_rows,
            validity,
            signal,
            schema,
            ctx,
            buffered: None,
            outcome: CheckOutcome::Pending,
            span,
            input_span,
        }
    }

    /// The checkpoint's outcome so far.
    pub fn outcome(&self) -> CheckOutcome {
        self.outcome
    }

    fn materialize(&mut self) {
        let mut inner = self.inner.take().expect("materialize once");
        let mut buffer = Vec::new();
        while let Some(r) = inner.next() {
            buffer.push(r);
        }
        // Materialization cost: write + read the intermediate once.
        self.ctx.clock.charge(&rqp_common::rule::emit(buffer.len() as f64));
        // Fully drained, so the input's span observation equals the buffer
        // length; prefer the span as the single source of actuals.
        let actual = match &self.input_span {
            Some(s) => s.rows() as f64,
            None => buffer.len() as f64,
        };
        if actual < self.validity.0 || actual > self.validity.1 {
            self.outcome = CheckOutcome::Violated;
            self.span.record_event(
                &self.ctx.clock,
                "pop.violation",
                &format!(
                    "cp{} actual={} outside [{},{}] (est {})",
                    self.checkpoint_id, actual, self.validity.0, self.validity.1,
                    self.estimated_rows
                ),
            );
            self.ctx.metrics.counter("pop.violations").inc();
            self.signal.publish(CheckViolation {
                checkpoint_id: self.checkpoint_id,
                estimated_rows: self.estimated_rows,
                validity: self.validity,
                actual_rows: actual as usize,
                buffer,
                schema: self.schema.clone(),
            });
            self.buffered = Some(Vec::new().into_iter());
        } else {
            self.outcome = CheckOutcome::Passed;
            self.buffered = Some(buffer.into_iter());
        }
    }
}

impl Operator for CheckOp {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next(&mut self) -> Option<Row> {
        if self.buffered.is_none() {
            self.materialize();
        }
        let row = self.buffered.as_mut().expect("materialized").next();
        match &row {
            Some(_) => self.span.produced(&self.ctx.clock),
            None => self.span.close(&self.ctx.clock),
        }
        row
    }

    fn span(&self) -> Option<&SpanHandle> {
        Some(&self.span)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::collect;
    use crate::filter::test_support::RowsOp;
    use rqp_common::{DataType, Value};

    fn src(n: i64) -> BoxOp {
        let schema = Schema::from_pairs(&[("x", DataType::Int)]);
        RowsOp::boxed(schema, (0..n).map(|i| vec![Value::Int(i)]).collect())
    }

    #[test]
    fn passes_inside_validity_range() {
        let ctx = ExecContext::unbounded();
        let signal = PopSignal::new();
        let mut c = CheckOp::new(src(50), 1, 50.0, (10.0, 100.0), Rc::clone(&signal), ctx);
        let out = collect(&mut c);
        assert_eq!(out.len(), 50);
        assert_eq!(c.outcome(), CheckOutcome::Passed);
        assert!(!signal.violated());
    }

    #[test]
    fn violates_above_range_and_publishes_buffer() {
        let ctx = ExecContext::unbounded();
        let signal = PopSignal::new();
        let mut c = CheckOp::new(src(500), 7, 50.0, (10.0, 100.0), Rc::clone(&signal), ctx);
        let out = collect(&mut c);
        assert!(out.is_empty(), "plan halted");
        assert_eq!(c.outcome(), CheckOutcome::Violated);
        let v = signal.take().expect("violation published");
        assert_eq!(v.checkpoint_id, 7);
        assert_eq!(v.actual_rows, 500);
        let events = c.span.events();
        assert_eq!(events.len(), 1, "violation recorded as a span event");
        assert_eq!(events[0].kind, "pop.violation");
        assert!(events[0].detail.contains("cp7"), "{}", events[0].detail);
        assert_eq!(v.buffer.len(), 500, "intermediate preserved for reuse");
        assert_eq!(v.validity, (10.0, 100.0));
        assert!(!signal.violated(), "take clears");
    }

    #[test]
    fn violates_below_range() {
        let ctx = ExecContext::unbounded();
        let signal = PopSignal::new();
        let mut c = CheckOp::new(src(3), 2, 50.0, (10.0, 100.0), Rc::clone(&signal), ctx);
        let out = collect(&mut c);
        assert!(out.is_empty());
        assert_eq!(signal.take().unwrap().actual_rows, 3);
    }

    #[test]
    fn boundary_values_pass() {
        let ctx = ExecContext::unbounded();
        let signal = PopSignal::new();
        let mut c = CheckOp::new(src(10), 0, 10.0, (10.0, 100.0), Rc::clone(&signal), ctx.clone());
        assert_eq!(collect(&mut c).len(), 10);
        let mut c = CheckOp::new(src(100), 0, 10.0, (10.0, 100.0), Rc::clone(&signal), ctx);
        assert_eq!(collect(&mut c).len(), 100);
        assert!(!signal.violated());
    }

    #[test]
    fn first_violation_wins() {
        let ctx = ExecContext::unbounded();
        let signal = PopSignal::new();
        // Inner check violates (500 ≫ 100); the outer check then sees an
        // empty stream and "violates" too — but must not mask the inner one.
        let inner = CheckOp::new(src(500), 1, 50.0, (10.0, 100.0), Rc::clone(&signal), ctx.clone());
        let mut outer =
            CheckOp::new(Box::new(inner), 2, 400.0, (100.0, 800.0), Rc::clone(&signal), ctx);
        let out = collect(&mut outer);
        assert!(out.is_empty());
        let v = signal.take().expect("violation");
        assert_eq!(v.checkpoint_id, 1, "the root cause, not the artifact");
        assert_eq!(v.buffer.len(), 500);
    }

    #[test]
    fn pending_before_first_next() {
        let ctx = ExecContext::unbounded();
        let signal = PopSignal::new();
        let c = CheckOp::new(src(10), 0, 10.0, (0.0, 100.0), signal, ctx);
        assert_eq!(c.outcome(), CheckOutcome::Pending);
    }
}
