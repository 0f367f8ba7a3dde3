//! Execution context: cost clock, memory governor, span tracer, metrics.

use crate::{BoxOp, Operator};
use rqp_common::sync::AtomicF64;
use rqp_common::{CancelToken, ChaosPolicy, CostClock, Row, Schema, SharedClock};
use rqp_telemetry::{MetricsRegistry, SpanHandle, Tracer};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Workspace-memory governor, in *rows* of workspace.
///
/// The seminar's resource-management session ("grow & shrink memory",
/// FMT) needs memory that can fluctuate *while queries run*: operators ask
/// for a grant each time they materialize, so a budget change between two
/// pipeline stages is observed by the later stage. Spills are charged by the
/// operators themselves via the cost clock.
///
/// The governor also keeps pure-accounting tallies (grants issued,
/// outstanding workspace, high-water mark) so run reports can show memory
/// pressure; the tallies never influence what is granted. All state is
/// atomic: one governor budget spans every exchange worker, so a leak in one
/// worker would visibly starve the others — which is why operators release
/// on `Drop`, not only on drain-to-`None`.
#[derive(Debug)]
pub struct MemoryGovernor {
    budget_rows: AtomicF64,
    base_budget: AtomicF64,
    outstanding: AtomicF64,
    peak_outstanding: AtomicF64,
    grant_count: AtomicU64,
    granted_total: AtomicF64,
    pressure_epoch: AtomicU64,
}

impl MemoryGovernor {
    /// A governor with the given workspace budget (rows).
    pub fn new(budget_rows: f64) -> Arc<Self> {
        Arc::new(MemoryGovernor {
            budget_rows: AtomicF64::new(budget_rows.max(0.0)),
            base_budget: AtomicF64::new(budget_rows.max(0.0)),
            outstanding: AtomicF64::new(0.0),
            peak_outstanding: AtomicF64::new(0.0),
            grant_count: AtomicU64::new(0),
            granted_total: AtomicF64::new(0.0),
            pressure_epoch: AtomicU64::new(0),
        })
    }

    /// Current budget.
    pub fn budget(&self) -> f64 {
        self.budget_rows.get()
    }

    /// The budget the governor was configured with (what
    /// [`restore`](Self::restore) returns to after shocks).
    pub fn base_budget(&self) -> f64 {
        self.base_budget.get()
    }

    /// Change the budget (FMT schedules call this mid-workload). Outstanding
    /// grants are *not* revoked: shrinking below what is already handed out
    /// leaves the governor overcommitted until operators release — but no
    /// longer *silently*: the pressure epoch is bumped so holders
    /// renegotiate ([`WorkspaceLease::renegotiate`]), and the overcommit is
    /// reported to the caller. Also resets the base budget, so this is the
    /// "official" resize; transient chaos shocks use
    /// [`shock_to`](Self::shock_to) instead.
    pub fn set_budget(&self, rows: f64) -> bool {
        self.base_budget.set(rows.max(0.0));
        self.budget_rows.set(rows.max(0.0));
        let over = self.overcommitted();
        if over {
            self.pressure_epoch.fetch_add(1, Ordering::Relaxed);
        }
        over
    }

    /// Shock the budget down to at most `rows`, *monotonically*: the budget
    /// only moves toward the minimum, so concurrent shocks from racing
    /// workers commute and the post-shock budget is deterministic. The base
    /// budget is untouched; [`restore`](Self::restore) undoes the shock.
    /// Returns whether the shock left the governor overcommitted (and bumped
    /// the pressure epoch).
    pub fn shock_to(&self, rows: f64) -> bool {
        let rows = rows.max(0.0);
        self.budget_rows.update(|b| b.min(rows));
        let over = self.overcommitted();
        if over {
            self.pressure_epoch.fetch_add(1, Ordering::Relaxed);
        }
        over
    }

    /// Restore the budget to its base value — the "grow" half of a
    /// fluctuating-memory schedule. Never bumps the pressure epoch: growth
    /// requires no renegotiation.
    pub fn restore(&self) {
        self.budget_rows.set(self.base_budget.get());
    }

    /// Monotone counter bumped every time a budget change leaves the
    /// governor overcommitted. Operators holding workspace snapshot it at
    /// grant time and renegotiate when it moves.
    pub fn pressure_epoch(&self) -> u64 {
        self.pressure_epoch.load(Ordering::Relaxed)
    }

    /// Grant up to `want` rows of workspace; returns the granted amount.
    ///
    /// A zero-budget governor still grants `min(want, 100)` — the one-page
    /// progress floor, so operators never deadlock — but the floor never
    /// exceeds the ask: `grant(0.0)` is 0, and a 5-row ask gets 5 rows, not
    /// a phantom page inflating `outstanding`/`granted_total`.
    pub fn grant(&self, want: f64) -> f64 {
        let granted = rqp_common::rule::grant(want, self.budget_rows.get());
        let now_out = self.outstanding.update(|x| x + granted);
        self.peak_outstanding.fetch_max(now_out);
        self.grant_count.fetch_add(1, Ordering::Relaxed);
        self.granted_total.add(granted);
        granted
    }

    /// Return `rows` of workspace (an operator released its materialization).
    /// Clamped so sloppy callers cannot drive the tally negative.
    pub fn release(&self, rows: f64) {
        self.outstanding.update(|x| (x - rows.max(0.0)).max(0.0));
    }

    /// Workspace currently handed out and not yet released.
    pub fn outstanding(&self) -> f64 {
        self.outstanding.get()
    }

    /// High-water mark of [`outstanding`](Self::outstanding).
    pub fn peak_outstanding(&self) -> f64 {
        self.peak_outstanding.get()
    }

    /// Number of grants issued.
    pub fn grant_count(&self) -> u64 {
        self.grant_count.load(Ordering::Relaxed)
    }

    /// Sum of all grants issued.
    pub fn granted_total(&self) -> f64 {
        self.granted_total.get()
    }

    /// True while more workspace is outstanding than the current budget —
    /// the state a mid-query budget shrink leaves behind.
    pub fn overcommitted(&self) -> bool {
        self.outstanding.get() > self.budget_rows.get()
    }
}

/// One operator's workspace holding, with graceful degradation under
/// mid-query budget shrinks.
///
/// Sort, hash join and g-join materialize under a governor grant. Before the
/// chaos governor, that grant was fixed for the operator's lifetime, so an
/// FMT-style budget shrink mid-drain silently left the governor
/// overcommitted until the operator finished. A `WorkspaceLease` tracks what
/// the operator actually holds and a snapshot of the governor's pressure
/// epoch; when the epoch moves (a shrink landed),
/// [`renegotiate`](Self::renegotiate) sheds the overflow back to the governor and charges
/// it as incremental spill — the smooth response the robustness metrics
/// reward, instead of holding memory hostage or failing.
///
/// The lease tracks the *sum* of grants (an operator may grant more than
/// once, e.g. g-join's two run-generation passes), unlike the span's
/// `mem_granted`, which is a high-water max.
#[derive(Debug, Default)]
pub struct WorkspaceLease {
    held: f64,
    epoch: u64,
}

impl WorkspaceLease {
    /// An empty lease.
    pub fn new() -> Self {
        WorkspaceLease::default()
    }

    /// Workspace currently held.
    pub fn held(&self) -> f64 {
        self.held
    }

    /// Take a grant of up to `want` rows, recording it on `span`.
    pub fn grant(&mut self, ctx: &ExecContext, span: &SpanHandle, want: f64) -> f64 {
        let granted = ctx.memory.grant(want);
        span.record_grant(granted);
        self.held += granted;
        self.epoch = ctx.memory.pressure_epoch();
        granted
    }

    /// React to budget pressure: if the governor's pressure epoch moved
    /// since the last grant/renegotiation and this lease now holds more than
    /// the budget, release the overflow (down to the one-page progress
    /// floor) and charge it as spill — exactly once per shock. Returns the
    /// rows shed. A no-op (two atomic loads) while the epoch is unchanged,
    /// so drain loops can call it per row.
    pub fn renegotiate(&mut self, ctx: &ExecContext, span: &SpanHandle) -> f64 {
        let epoch = ctx.memory.pressure_epoch();
        if epoch == self.epoch {
            return 0.0;
        }
        self.epoch = epoch;
        let budget = ctx.memory.budget();
        if self.held <= budget {
            return 0.0;
        }
        // Keep at least one page so the operator still makes progress.
        let keep = budget.max(100.0).min(self.held);
        let shed = self.held - keep;
        if shed <= 0.0 {
            return 0.0;
        }
        self.held = keep;
        ctx.memory.release(shed);
        let detail = format!("budget shrink: shed {shed:.0} rows, kept {keep:.0}");
        ctx.spill(span, shed, "governor.pressure", &detail);
        ctx.metrics.counter("governor.renegotiations").inc();
        shed
    }

    /// Return everything still held to the governor.
    pub fn release(&mut self, ctx: &ExecContext) {
        if self.held > 0.0 {
            ctx.memory.release(self.held);
            self.held = 0.0;
        }
    }
}

/// Everything an operator needs from its environment.
#[derive(Debug, Clone)]
pub struct ExecContext {
    /// The deterministic cost clock ("response time").
    pub clock: SharedClock,
    /// The workspace-memory governor.
    pub memory: Arc<MemoryGovernor>,
    /// Collects one span per operator constructed under this context.
    pub tracer: Tracer,
    /// Named counters/gauges/histograms for everything that isn't a plan node.
    pub metrics: MetricsRegistry,
    /// Deterministic fault-injection policy (disabled by default). Shared by
    /// every worker forked from this context, so one seed governs a whole
    /// parallel query.
    pub chaos: Arc<ChaosPolicy>,
    /// Cooperative-cancellation token polled at cost-charging boundaries via
    /// [`checkpoint`](Self::checkpoint). Fresh (never cancelled, no deadline)
    /// unless installed with [`with_cancel`](Self::with_cancel); forked
    /// workers share it, offset by the coordinator's elapsed cost so
    /// deadlines stay in root-clock units.
    pub cancel: CancelToken,
}

impl ExecContext {
    /// Context with the given clock and memory budget.
    pub fn new(clock: SharedClock, memory_rows: f64) -> Self {
        ExecContext {
            clock,
            memory: MemoryGovernor::new(memory_rows),
            tracer: Tracer::new(),
            metrics: MetricsRegistry::new(),
            chaos: Arc::new(ChaosPolicy::off()),
            cancel: CancelToken::new(),
        }
    }

    /// This context with the given fault-injection policy.
    pub fn with_chaos(mut self, policy: ChaosPolicy) -> Self {
        self.chaos = Arc::new(policy);
        self
    }

    /// This context with the given cancellation token (a query service
    /// installs the session's token here before building the plan).
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = token;
        self
    }

    /// Default context: fresh clock, effectively unbounded memory.
    pub fn unbounded() -> Self {
        ExecContext::new(CostClock::default_clock(), f64::INFINITY)
    }

    /// Default context with a bounded workspace.
    pub fn with_memory(memory_rows: f64) -> Self {
        ExecContext::new(CostClock::default_clock(), memory_rows)
    }

    /// A worker-private context for one exchange worker: a **fresh shard
    /// clock** (same cost parameters, zeroed) and a **fresh tracer**, but
    /// the *same* governor and metrics registry.
    ///
    /// The split is what makes parallel execution deterministic: workers
    /// charge their private shard clocks, which the gather side
    /// [`absorb`](CostClock::absorb)s (exact amounts, so in any order), and
    /// it [`adopt`](Tracer::adopt)s the worker traces in worker-index order —
    /// so cost totals and trace contents never depend on thread scheduling.
    /// Memory, by contrast, is genuinely shared: one budget spans all
    /// workers, which is exactly the contention surface the governor exists
    /// to observe.
    pub fn fork_worker(&self) -> ExecContext {
        ExecContext {
            clock: CostClock::new(*self.clock.params()),
            memory: Arc::clone(&self.memory),
            tracer: Tracer::new(),
            metrics: self.metrics.clone(),
            chaos: Arc::clone(&self.chaos),
            // Same token, offset by the coordinator's elapsed cost: the
            // worker's shard clock restarts at zero but its deadline polls
            // must still compare against root-clock cost units.
            cancel: self.cancel.child(self.clock.now()),
        }
    }

    /// Poll the cancellation token at the current virtual time and unwind
    /// with the typed cause
    /// ([`RqpError::Cancelled`](rqp_common::RqpError::Cancelled) /
    /// [`RqpError::DeadlineExceeded`](rqp_common::RqpError::DeadlineExceeded))
    /// if it has tripped.
    ///
    /// Operators call this at cost-charging boundaries (scan pages, sort and
    /// join output rows, exchange worker loops), right where they already
    /// call [`WorkspaceLease::renegotiate`]: cancellation is just one more
    /// resource condition observed cooperatively. The unwind takes the
    /// normal early-termination path — operator `Drop` impls release
    /// workspace leases and close spans — and the exchange gather triages
    /// the payload as a cancellation, never as a retryable worker fault.
    #[inline]
    pub fn checkpoint(&self) {
        if let Some(cause) = self.cancel.poll(self.clock.now()) {
            self.metrics.counter("cancel.trips").inc();
            // The payload is a typed RqpError the unwind-catchers triage;
            // the quiet hook keeps the deliberate unwind off stderr.
            rqp_common::chaos::install_quiet_panic_hook();
            std::panic::panic_any(cause);
        }
    }

    /// Open a span for an operator under construction, re-parenting the
    /// spans of its `inputs` beneath it — the trace tree emerges from
    /// construction order.
    pub fn op_span(&self, kind: &'static str, inputs: &[&BoxOp]) -> SpanHandle {
        let span = self.tracer.open(kind, &self.clock);
        for op in inputs {
            if let Some(s) = op.span() {
                s.set_parent(span.id());
            }
        }
        span
    }

    /// Charge spilling `rows` rows to temp storage and back, and record it
    /// on `span` with an event of `kind`.
    pub(crate) fn spill(&self, span: &SpanHandle, rows: f64, kind: &str, detail: &str) {
        self.clock.charge(&rqp_common::rule::spill(self.clock.params(), rows));
        span.record_spill(rows);
        span.record_event(&self.clock, kind, detail);
    }

    /// Assemble a [`RunReport`](rqp_telemetry::RunReport) from everything
    /// this context observed: the cost-clock breakdown, every span, every
    /// metric. Experiments call this once at the end of a run and
    /// [`write_to`](rqp_telemetry::RunReport::write_to) `exp_output/`.
    pub fn run_report(&self, experiment: &str) -> rqp_telemetry::RunReport {
        let mut report = rqp_telemetry::RunReport::new(experiment);
        report.cost = self.clock.breakdown();
        report.spans = self.tracer.snapshot();
        report.metrics = self.metrics.snapshot();
        report
    }
}

/// A pass-through operator that gives an un-instrumented input a span.
///
/// This absorbs the old `Meter` row counter into the span API: wrapping a
/// source in `SpanOp` counts its rows exactly as `Meter` did, but the count
/// lands in the trace next to every other operator's observations instead of
/// in a bespoke `Rc<Cell<usize>>`. Operators in this crate already carry
/// spans; `SpanOp` is for ad-hoc pipelines (tests, benches, raw sources).
pub struct SpanOp {
    inner: BoxOp,
    span: SpanHandle,
    clock: SharedClock,
}

impl SpanOp {
    /// Wrap `inner` under a fresh span of the given kind.
    pub fn new(inner: BoxOp, kind: &'static str, ctx: &ExecContext) -> Self {
        let span = ctx.op_span(kind, &[&inner]);
        SpanOp { inner, span, clock: Arc::clone(&ctx.clock) }
    }

    /// A handle to the span counting this operator's output.
    pub fn handle(&self) -> SpanHandle {
        self.span.clone()
    }
}

impl Operator for SpanOp {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn next(&mut self) -> Option<Row> {
        let row = self.inner.next();
        match &row {
            Some(_) => self.span.produced(&self.clock),
            None => self.span.close(&self.clock),
        }
        row
    }

    fn span(&self) -> Option<&SpanHandle> {
        Some(&self.span)
    }
}

/// Drain an operator into a vector.
pub fn collect(op: &mut dyn Operator) -> Vec<Row> {
    let mut out = Vec::new();
    while let Some(r) = op.next() {
        out.push(r);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rqp_common::{rule, DataType, Value};

    /// A tiny literal-rows source for tests.
    pub struct RowsOp {
        schema: Schema,
        rows: std::vec::IntoIter<Row>,
    }

    impl RowsOp {
        pub fn new(schema: Schema, rows: Vec<Row>) -> Self {
            RowsOp { schema, rows: rows.into_iter() }
        }
    }

    impl Operator for RowsOp {
        fn schema(&self) -> &Schema {
            &self.schema
        }
        fn next(&mut self) -> Option<Row> {
            self.rows.next()
        }
    }

    #[test]
    fn span_op_counts_rows() {
        let ctx = ExecContext::unbounded();
        let schema = Schema::from_pairs(&[("x", DataType::Int)]);
        let rows: Vec<Row> = (0..5).map(|i| vec![Value::Int(i)]).collect();
        let src = Box::new(RowsOp::new(schema, rows));
        let mut m = SpanOp::new(src, "rows", &ctx);
        let handle = m.handle();
        assert_eq!(handle.rows(), 0);
        let out = collect(&mut m);
        assert_eq!(out.len(), 5);
        assert_eq!(handle.rows(), 5);
        assert!(handle.is_closed());
        assert_eq!(ctx.tracer.len(), 1);
    }

    #[test]
    fn governor_grant_and_fluctuation() {
        let g = MemoryGovernor::new(10_000.0);
        assert_eq!(g.grant(5_000.0), 5_000.0);
        assert_eq!(g.grant(50_000.0), 10_000.0);
        g.set_budget(1_000.0);
        assert_eq!(g.grant(50_000.0), 1_000.0);
        g.set_budget(0.0);
        assert_eq!(g.grant(50_000.0), 100.0, "one-page floor");
    }

    #[test]
    fn governor_zero_budget_still_makes_progress() {
        let g = MemoryGovernor::new(0.0);
        assert_eq!(g.budget(), 0.0);
        // Big asks against a zero budget are floored at one page so
        // operators never deadlock…
        assert_eq!(g.grant(1_000_000.0), 100.0);
        // …and the governor knows it handed out more than it has.
        assert_eq!(g.outstanding(), 100.0);
        assert!(g.overcommitted());
        // A negative construction budget clamps to zero, same behavior.
        let g = MemoryGovernor::new(-5.0);
        assert_eq!(g.budget(), 0.0);
        assert_eq!(g.grant(500.0), 100.0);
    }

    #[test]
    fn governor_never_grants_more_than_asked() {
        // The progress floor is capped at the ask: sub-page requests get
        // exactly what they wanted, and a zero ask gets zero — no phantom
        // pages in outstanding/granted_total.
        let g = MemoryGovernor::new(0.0);
        assert_eq!(g.grant(0.0), 0.0);
        assert_eq!(g.grant(5.0), 5.0);
        assert_eq!(g.grant(-3.0), 0.0, "negative asks clamp to zero");
        assert_eq!(g.outstanding(), 5.0);
        assert_eq!(g.granted_total(), 5.0);
        // Same with a healthy budget: the floor never rounds an ask up.
        let g = MemoryGovernor::new(10_000.0);
        assert_eq!(g.grant(7.0), 7.0);
        assert_eq!(g.grant(0.0), 0.0);
        assert_eq!(g.outstanding(), 7.0);
    }

    #[test]
    fn governor_shrink_below_outstanding_grants() {
        let g = MemoryGovernor::new(10_000.0);
        let a = g.grant(8_000.0);
        assert_eq!(a, 8_000.0);
        assert!(!g.overcommitted());
        // FMT shrinks the budget mid-query, below what is already out.
        g.set_budget(1_000.0);
        assert!(g.overcommitted(), "8000 outstanding vs budget 1000");
        // New grants see the shrunken budget; old grants are not revoked.
        let b = g.grant(5_000.0);
        assert_eq!(b, 1_000.0);
        assert_eq!(g.outstanding(), 9_000.0);
        // Releasing the big materialization clears the overcommit.
        g.release(a);
        assert_eq!(g.outstanding(), 1_000.0);
        assert!(!g.overcommitted());
    }

    #[test]
    fn governor_accounting_across_concurrent_operators() {
        let g = MemoryGovernor::new(4_000.0);
        // Two operators materialize at the same time (e.g. both sides of a
        // sort-merge join): each grant is tallied, not just the last one.
        let sort_l = g.grant(3_000.0);
        let sort_r = g.grant(3_000.0);
        assert_eq!((sort_l, sort_r), (3_000.0, 3_000.0));
        assert_eq!(g.grant_count(), 2);
        assert_eq!(g.granted_total(), 6_000.0);
        assert_eq!(g.outstanding(), 6_000.0);
        assert_eq!(g.peak_outstanding(), 6_000.0);
        assert!(g.overcommitted(), "governor admits both, but visibly");
        g.release(sort_l);
        g.release(sort_r);
        assert_eq!(g.outstanding(), 0.0);
        assert_eq!(g.peak_outstanding(), 6_000.0, "peak survives release");
        // Over-release clamps instead of going negative.
        g.release(1_000.0);
        assert_eq!(g.outstanding(), 0.0);
    }

    #[test]
    fn set_budget_reports_overcommit_and_bumps_pressure_epoch() {
        let g = MemoryGovernor::new(10_000.0);
        assert_eq!(g.pressure_epoch(), 0);
        // Shrinking with nothing outstanding is quiet.
        assert!(!g.set_budget(5_000.0));
        assert_eq!(g.pressure_epoch(), 0);
        // Shrinking below outstanding is reported, not silently passed.
        g.grant(4_000.0);
        assert!(g.set_budget(1_000.0), "outstanding 4000 vs budget 1000");
        assert_eq!(g.pressure_epoch(), 1);
        assert!(g.overcommitted());
        // Growing back is quiet again.
        assert!(!g.set_budget(50_000.0));
        assert_eq!(g.pressure_epoch(), 1);
    }

    #[test]
    fn shock_is_monotone_and_restore_returns_to_base() {
        let g = MemoryGovernor::new(8_000.0);
        assert!(!g.shock_to(2_000.0));
        assert_eq!(g.budget(), 2_000.0);
        // Shocks only tighten: a "weaker" concurrent shock cannot undo a
        // stronger one, so racing workers commute.
        g.shock_to(4_000.0);
        assert_eq!(g.budget(), 2_000.0);
        g.shock_to(500.0);
        assert_eq!(g.budget(), 500.0);
        assert_eq!(g.base_budget(), 8_000.0, "base survives shocks");
        g.restore();
        assert_eq!(g.budget(), 8_000.0);
        // An overcommitting shock bumps the epoch.
        g.grant(6_000.0);
        let before = g.pressure_epoch();
        assert!(g.shock_to(1_000.0));
        assert_eq!(g.pressure_epoch(), before + 1);
    }

    #[test]
    fn lease_renegotiates_once_per_shock() {
        let ctx = ExecContext::with_memory(10_000.0);
        let span = ctx.tracer.open("probe", &ctx.clock);
        let mut lease = WorkspaceLease::new();
        assert_eq!(lease.grant(&ctx, &span, 8_000.0), 8_000.0);
        assert_eq!(lease.held(), 8_000.0);
        // No pressure: renegotiation is a no-op, charges nothing.
        assert_eq!(lease.renegotiate(&ctx, &span), 0.0);
        assert_eq!(ctx.clock.breakdown().spill, 0.0);
        // One shock → exactly one shed, spilled exactly once.
        ctx.memory.set_budget(2_000.0);
        assert_eq!(lease.renegotiate(&ctx, &span), 6_000.0);
        assert_eq!(lease.held(), 2_000.0);
        assert_eq!(ctx.memory.outstanding(), 2_000.0);
        assert_eq!(span.spill_events(), 1);
        let spill_after_first = ctx.clock.breakdown().spill;
        assert!(spill_after_first > 0.0);
        // Re-checking without a new shock must not shed again.
        assert_eq!(lease.renegotiate(&ctx, &span), 0.0);
        assert_eq!(ctx.clock.breakdown().spill, spill_after_first);
        // Shrinking to zero still leaves the one-page progress floor.
        ctx.memory.set_budget(0.0);
        lease.renegotiate(&ctx, &span);
        assert_eq!(lease.held(), 100.0);
        lease.release(&ctx);
        assert_eq!(ctx.memory.outstanding(), 0.0);
        assert_eq!(lease.held(), 0.0);
        // governor.pressure surfaced as a span event.
        assert!(span.events().iter().any(|e| e.kind == "governor.pressure"));
    }

    #[test]
    fn chaos_defaults_off_and_forks_shared() {
        let ctx = ExecContext::unbounded();
        assert!(!ctx.chaos.is_enabled(), "default context injects nothing");
        let chaotic = ExecContext::with_memory(1_000.0)
            .with_chaos(rqp_common::ChaosPolicy::seeded(7));
        assert!(chaotic.chaos.is_enabled());
        let w = chaotic.fork_worker();
        assert!(
            Arc::ptr_eq(&w.chaos, &chaotic.chaos),
            "workers share the coordinator's policy"
        );
    }

    #[test]
    fn governor_is_shared_across_threads() {
        let g = MemoryGovernor::new(1_000_000.0);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let g = Arc::clone(&g);
                std::thread::spawn(move || {
                    for _ in 0..500 {
                        let got = g.grant(200.0);
                        g.release(got);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(g.outstanding(), 0.0, "all grants returned");
        assert_eq!(g.grant_count(), 2_000);
        assert_eq!(g.granted_total(), 400_000.0);
    }

    #[test]
    fn contexts() {
        let c = ExecContext::unbounded();
        assert_eq!(c.clock.now(), 0.0);
        assert!(c.memory.budget().is_infinite());
        assert!(c.tracer.is_empty());
        assert!(c.metrics.is_empty());
        let c = ExecContext::with_memory(500.0);
        assert_eq!(c.memory.budget(), 500.0);
        // Clones share the tracer and metrics namespace.
        let c2 = c.clone();
        c2.tracer.open("probe", &c2.clock);
        assert_eq!(c.tracer.len(), 1);
    }

    #[test]
    fn fork_worker_shares_memory_but_not_clock_or_trace() {
        let ctx = ExecContext::with_memory(5_000.0);
        ctx.clock.charge(&rule::scan(10.0, 0.0));
        ctx.tracer.open("parent_op", &ctx.clock);
        let w = ctx.fork_worker();
        assert_eq!(w.clock.now(), 0.0, "shard clock starts at zero");
        assert_eq!(w.clock.params(), ctx.clock.params());
        assert!(w.tracer.is_empty(), "worker traces privately");
        // The governor is the same object: a worker grant is visible to all.
        w.memory.grant(400.0);
        assert_eq!(ctx.memory.outstanding(), 400.0);
        // So is the metrics namespace.
        w.metrics.counter("shared.counter").inc();
        assert_eq!(ctx.metrics.counter("shared.counter").get(), 1);
        // Worker charges stay on the shard until absorbed.
        w.clock.charge(&rule::scan(3.0, 0.0));
        assert_eq!(ctx.clock.now(), 10.0);
        ctx.clock.absorb(&w.clock);
        assert_eq!(ctx.clock.now(), 13.0);
    }

    #[test]
    fn checkpoint_is_a_no_op_on_a_live_token() {
        let ctx = ExecContext::unbounded();
        ctx.clock.charge(&rule::scan(1_000.0, 0.0));
        ctx.checkpoint(); // must not panic
        assert_eq!(ctx.metrics.counter("cancel.trips").get(), 0);
    }

    #[test]
    fn checkpoint_unwinds_with_the_typed_cause() {
        use rqp_common::RqpError;
        let ctx = ExecContext::unbounded();
        ctx.cancel.cancel();
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ctx.checkpoint();
        }))
        .expect_err("cancelled context must unwind");
        let err = payload.downcast_ref::<RqpError>().expect("typed payload");
        assert_eq!(*err, RqpError::Cancelled);
        assert!(err.is_cancellation());
        assert_eq!(ctx.metrics.counter("cancel.trips").get(), 1);
    }

    #[test]
    fn deadline_trips_on_the_cost_clock() {
        use rqp_common::RqpError;
        let ctx = ExecContext::unbounded();
        ctx.cancel.set_deadline(50.0);
        ctx.clock.charge(&rule::scan(4.0, 0.0)); // 4 cost units < 50
        ctx.checkpoint();
        ctx.clock.charge(&rule::scan(100.0, 0.0));
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ctx.checkpoint();
        }))
        .expect_err("past-deadline context must unwind");
        assert_eq!(
            *payload.downcast_ref::<RqpError>().expect("typed payload"),
            RqpError::DeadlineExceeded
        );
    }

    #[test]
    fn forked_worker_shares_the_deadline_in_root_units() {
        let ctx = ExecContext::unbounded();
        ctx.cancel.set_deadline(100.0);
        ctx.clock.charge(&rule::scan(80.0, 0.0));
        let w = ctx.fork_worker();
        // The shard clock restarts at zero, but the worker's token carries
        // the coordinator's 80 elapsed units: 20 more trips the deadline.
        w.clock.charge(&rule::scan(19.0, 0.0));
        w.checkpoint();
        w.clock.charge(&rule::scan(1.0, 0.0));
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            w.checkpoint();
        }))
        .is_err());
        // The trip latched on the shared token: the coordinator sees it too.
        assert!(ctx.cancel.is_cancelled());
    }
}
