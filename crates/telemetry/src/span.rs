//! Operator spans: the per-operator unit of observation.
//!
//! A span is opened when an operator is constructed, bumped once per row the
//! operator produces, and closed when the operator exhausts. All positions
//! are **cost-clock readings** (the engine's deterministic notion of
//! response time), so span timings are exactly reproducible across runs.
//!
//! Handles are designed for inner loops: a [`SpanHandle`] is an `Arc` around
//! atomic fields, so [`SpanHandle::produced`] is a branch and two relaxed
//! stores — no allocation, no locking, no formatting. The expensive parts
//! (labels, tree assembly, rendering) happen once, at construction or
//! post-mortem. Since the exchange operators arrived, spans are `Send +
//! Sync`: worker pipelines trace into private [`Tracer`]s that the gather
//! side [`adopt`](Tracer::adopt)s into the query's main trace in worker
//! order, keeping trace contents deterministic under parallelism.

use rqp_common::sync::AtomicF64;
use rqp_common::CostClock;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// A timestamped adaptive decision recorded on a span: a POP validity-range
/// violation, a LEO correction, an eddy routing shift, a governor-forced
/// spill. Events are the *why* behind the span's numbers — the moments the
/// engine changed its mind.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanEvent {
    /// Cost-clock position when the decision fired.
    pub at: f64,
    /// Decision kind, e.g. `"pop.violation"` or `"eddy.reroute"`.
    pub kind: String,
    /// Free-form payload (old/new routing order, violated range, …).
    pub detail: String,
}

/// The observation record behind a [`SpanHandle`].
#[derive(Debug)]
pub struct SpanData {
    id: AtomicUsize,
    kind: &'static str,
    detail: Mutex<String>,
    /// Parent span id, or -1 for "no parent" (ids are tracer indices, so
    /// they always fit in an i64).
    parent: AtomicI64,
    est_rows: AtomicF64,
    rows_out: AtomicU64,
    opened_at: AtomicF64,
    first_row_at: AtomicF64,
    closed_at: AtomicF64,
    mem_granted: AtomicF64,
    spilled_rows: AtomicF64,
    spill_events: AtomicU64,
    steps: AtomicU64,
    pages: AtomicU64,
    events: Mutex<Vec<SpanEvent>>,
}

/// Cheap (`Arc`) handle to one operator's span.
#[derive(Debug, Clone)]
pub struct SpanHandle(Arc<SpanData>);

impl SpanHandle {
    /// Span id, unique within its [`Tracer`].
    pub fn id(&self) -> usize {
        self.0.id.load(Ordering::Relaxed)
    }

    /// Operator kind, e.g. `"hash_join"`.
    pub fn kind(&self) -> &'static str {
        self.0.kind
    }

    /// Free-form annotation (plan fingerprints, key columns, …).
    pub fn detail(&self) -> String {
        self.0.detail.lock().expect("span detail lock").clone()
    }

    /// Replace the annotation.
    pub fn set_detail(&self, detail: &str) {
        *self.0.detail.lock().expect("span detail lock") = detail.to_string();
    }

    /// Parent span id, if this operator feeds another instrumented operator.
    pub fn parent(&self) -> Option<usize> {
        match self.0.parent.load(Ordering::Relaxed) {
            p if p < 0 => None,
            p => Some(p as usize),
        }
    }

    /// Link this span under `parent_id`. Called by consuming operators on
    /// their inputs' spans — the plan tree emerges from construction order.
    pub fn set_parent(&self, parent_id: usize) {
        self.0.parent.store(parent_id as i64, Ordering::Relaxed);
    }

    /// The optimizer's row estimate for this operator (NaN = never set).
    pub fn est_rows(&self) -> f64 {
        self.0.est_rows.get()
    }

    /// Attach the optimizer's row estimate.
    pub fn set_est_rows(&self, est: f64) {
        self.0.est_rows.set(est);
    }

    /// Rows produced so far.
    pub fn rows(&self) -> u64 {
        self.0.rows_out.load(Ordering::Relaxed)
    }

    /// Record one produced row — the inner-loop hot path. The first row also
    /// stamps the clock position, so time-to-first-row is observable.
    #[inline]
    pub fn produced(&self, clock: &CostClock) {
        if self.0.rows_out.fetch_add(1, Ordering::Relaxed) == 0 {
            self.0.first_row_at.set_if_nan(clock.now());
        }
    }

    /// Record `n` produced rows at once (bulk transfers like an exchange
    /// gather); stamps time-to-first-row exactly like [`produced`](Self::produced).
    pub fn produced_n(&self, clock: &CostClock, n: u64) {
        if n == 0 {
            return;
        }
        if self.0.rows_out.fetch_add(n, Ordering::Relaxed) == 0 {
            self.0.first_row_at.set_if_nan(clock.now());
        }
    }

    /// Cost-clock position when the operator was constructed.
    pub fn opened_at(&self) -> f64 {
        self.0.opened_at.get()
    }

    /// Cost-clock position at the first produced row (NaN = no rows yet).
    pub fn first_row_at(&self) -> f64 {
        self.0.first_row_at.get()
    }

    /// Cost-clock position when the operator exhausted (NaN = still open).
    pub fn closed_at(&self) -> f64 {
        self.0.closed_at.get()
    }

    /// Mark the span closed at the clock's current position. Idempotent:
    /// only the first close is recorded (operators may see `next() == None`
    /// repeatedly).
    pub fn close(&self, clock: &CostClock) {
        self.0.closed_at.set_if_nan(clock.now());
    }

    /// True once [`close`](Self::close) has been called.
    pub fn is_closed(&self) -> bool {
        !self.0.closed_at.get().is_nan()
    }

    /// Record a workspace-memory grant (rows). The span keeps the maximum
    /// grant observed — the operator's high-water memory footprint.
    pub fn record_grant(&self, rows: f64) {
        self.0.mem_granted.fetch_max(rows);
    }

    /// Largest memory grant observed (rows of workspace).
    pub fn mem_granted(&self) -> f64 {
        self.0.mem_granted.get()
    }

    /// Record a spill of `rows` rows to temp storage.
    pub fn record_spill(&self, rows: f64) {
        self.0.spilled_rows.add(rows);
        self.0.spill_events.fetch_add(1, Ordering::Relaxed);
    }

    /// Total rows spilled.
    pub fn spilled_rows(&self) -> f64 {
        self.0.spilled_rows.get()
    }

    /// Number of spill events.
    pub fn spill_events(&self) -> u64 {
        self.0.spill_events.load(Ordering::Relaxed)
    }

    /// Record work the operator's rows do not determine: `steps` merge
    /// comparisons, or index-join probes that hit, fetching `pages` pages.
    /// What the optimizer's costing walk reads back as observed counts.
    pub fn record_work(&self, steps: u64, pages: u64) {
        self.0.steps.fetch_add(steps, Ordering::Relaxed);
        self.0.pages.fetch_add(pages, Ordering::Relaxed);
    }

    /// Steps recorded by [`record_work`](Self::record_work).
    pub fn steps(&self) -> u64 {
        self.0.steps.load(Ordering::Relaxed)
    }

    /// Pages recorded by [`record_work`](Self::record_work).
    pub fn pages(&self) -> u64 {
        self.0.pages.load(Ordering::Relaxed)
    }

    /// Record an adaptive decision at the clock's current position.
    pub fn record_event(&self, clock: &CostClock, kind: &str, detail: &str) {
        self.0.events.lock().expect("span events lock").push(SpanEvent {
            at: clock.now(),
            kind: kind.to_string(),
            detail: detail.to_string(),
        });
    }

    /// Adaptive decisions recorded so far, in firing order.
    pub fn events(&self) -> Vec<SpanEvent> {
        self.0.events.lock().expect("span events lock").clone()
    }

    /// q-error of the estimate vs the observed actual: `max(est/act,
    /// act/est)` with both floored at one row. NaN when no estimate was set.
    pub fn q_error(&self) -> f64 {
        let est = self.0.est_rows.get();
        if est.is_nan() {
            return f64::NAN;
        }
        let est = est.max(1.0);
        let act = (self.rows() as f64).max(1.0);
        (est / act).max(act / est)
    }

    /// An owned, plain-data copy of the span's current state.
    pub fn snapshot(&self) -> SpanSnapshot {
        SpanSnapshot {
            id: self.id(),
            parent: self.parent(),
            kind: self.0.kind.to_string(),
            detail: self.detail(),
            est_rows: self.0.est_rows.get(),
            rows_out: self.rows(),
            opened_at: self.0.opened_at.get(),
            first_row_at: self.0.first_row_at.get(),
            closed_at: self.0.closed_at.get(),
            mem_granted: self.0.mem_granted.get(),
            spilled_rows: self.0.spilled_rows.get(),
            spill_events: self.spill_events(),
            events: self.events(),
        }
    }

    /// Rewrite the span id (tracer adoption only — ids must stay unique
    /// within the owning tracer).
    fn set_id(&self, id: usize) {
        self.0.id.store(id, Ordering::Relaxed);
    }

    /// Drop the parent link (tracer adoption of roots without a new parent).
    fn clear_parent(&self) {
        self.0.parent.store(-1, Ordering::Relaxed);
    }
}

/// An owned, immutable copy of a span — the run-report / rendering unit.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanSnapshot {
    /// Span id (unique within the trace).
    pub id: usize,
    /// Parent span id.
    pub parent: Option<usize>,
    /// Operator kind.
    pub kind: String,
    /// Free-form annotation.
    pub detail: String,
    /// Optimizer estimate (NaN = none).
    pub est_rows: f64,
    /// Actual rows produced.
    pub rows_out: u64,
    /// Clock position at construction.
    pub opened_at: f64,
    /// Clock position at first row (NaN = none).
    pub first_row_at: f64,
    /// Clock position at exhaustion (NaN = never closed).
    pub closed_at: f64,
    /// High-water memory grant (rows).
    pub mem_granted: f64,
    /// Total spilled rows.
    pub spilled_rows: f64,
    /// Spill event count.
    pub spill_events: u64,
    /// Adaptive decisions, in firing order.
    pub events: Vec<SpanEvent>,
}

impl SpanSnapshot {
    /// q-error of the estimate (see [`SpanHandle::q_error`]).
    pub fn q_error(&self) -> f64 {
        if self.est_rows.is_nan() {
            return f64::NAN;
        }
        let est = self.est_rows.max(1.0);
        let act = (self.rows_out as f64).max(1.0);
        (est / act).max(act / est)
    }
}

#[derive(Debug, Default)]
struct TracerInner {
    spans: Mutex<Vec<SpanHandle>>,
}

/// Collects every span opened under one execution context.
///
/// Cloning shares the underlying collection (`Arc`), so the context, the
/// plan builder and the post-mortem consumers all see the same trace.
#[derive(Debug, Clone, Default)]
pub struct Tracer(Arc<TracerInner>);

impl Tracer {
    /// Fresh, empty tracer.
    pub fn new() -> Self {
        Tracer::default()
    }

    /// Open a span of the given operator kind, stamped with the clock's
    /// current position.
    pub fn open(&self, kind: &'static str, clock: &CostClock) -> SpanHandle {
        let mut spans = self.0.spans.lock().expect("tracer lock");
        let handle = SpanHandle(Arc::new(SpanData {
            id: AtomicUsize::new(spans.len()),
            kind,
            detail: Mutex::new(String::new()),
            parent: AtomicI64::new(-1),
            est_rows: AtomicF64::new(f64::NAN),
            rows_out: AtomicU64::new(0),
            opened_at: AtomicF64::new(clock.now()),
            first_row_at: AtomicF64::new(f64::NAN),
            closed_at: AtomicF64::new(f64::NAN),
            mem_granted: AtomicF64::new(0.0),
            spilled_rows: AtomicF64::new(0.0),
            spill_events: AtomicU64::new(0),
            steps: AtomicU64::new(0),
            pages: AtomicU64::new(0),
            events: Mutex::new(Vec::new()),
        }));
        spans.push(handle.clone());
        handle
    }

    /// Number of spans opened so far.
    pub fn len(&self) -> usize {
        self.0.spans.lock().expect("tracer lock").len()
    }

    /// True when no spans have been opened.
    pub fn is_empty(&self) -> bool {
        self.0.spans.lock().expect("tracer lock").is_empty()
    }

    /// Snapshot every span (in open order).
    pub fn snapshot(&self) -> Vec<SpanSnapshot> {
        self.0
            .spans
            .lock()
            .expect("tracer lock")
            .iter()
            .map(|s| s.snapshot())
            .collect()
    }

    /// Live handles to every span (in open order).
    pub fn spans(&self) -> Vec<SpanHandle> {
        self.spans_from(0)
    }

    /// Live handles to the spans opened from the `start`-th on.
    pub fn spans_from(&self, start: usize) -> Vec<SpanHandle> {
        let spans = self.0.spans.lock().expect("tracer lock");
        spans.get(start..).unwrap_or_default().to_vec()
    }

    /// Drop all spans collected so far (e.g. between POP rounds when only
    /// the final round should be reported).
    pub fn clear(&self) {
        self.0.spans.lock().expect("tracer lock").clear();
    }

    /// Move every span of `worker` into this tracer, re-identifying them
    /// past this tracer's current spans and re-parenting the worker trace's
    /// roots under `parent` (typically the exchange operator's span).
    ///
    /// This is the gather side of a parallel exchange: each worker traced
    /// into a private tracer, and the workers are adopted **in worker-index
    /// order**, so the merged trace is identical run-to-run regardless of
    /// thread scheduling. The worker tracer is drained.
    ///
    /// Worker span ids must be the contiguous `0..len` a fresh tracer
    /// assigns (guaranteed unless the worker tracer was `clear`ed
    /// mid-trace).
    pub fn adopt(&self, worker: &Tracer, parent: Option<usize>) {
        let moved: Vec<SpanHandle> =
            std::mem::take(&mut *worker.0.spans.lock().expect("tracer lock"));
        let mut spans = self.0.spans.lock().expect("tracer lock");
        let base = spans.len();
        // Re-parent before re-identifying: parent links hold *old* local ids.
        for s in &moved {
            match s.parent() {
                Some(p) => s.set_parent(base + p),
                None => match parent {
                    Some(pid) => s.set_parent(pid),
                    None => s.clear_parent(),
                },
            }
        }
        for (i, s) in moved.iter().enumerate() {
            s.set_id(base + i);
        }
        spans.extend(moved);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rqp_common::rule;

    #[test]
    fn span_lifecycle() {
        let clock = CostClock::default_clock();
        let tracer = Tracer::new();
        clock.charge(&rule::scan(2.0, 0.0));
        let s = tracer.open("table_scan", &clock);
        assert_eq!(s.opened_at(), 2.0);
        assert!(s.first_row_at().is_nan());
        assert!(!s.is_closed());
        clock.charge(&rule::scan(1.0, 0.0));
        s.produced(&clock);
        s.produced(&clock);
        assert_eq!(s.rows(), 2);
        assert_eq!(s.first_row_at(), 3.0);
        clock.charge(&rule::scan(1.0, 0.0));
        s.close(&clock);
        assert_eq!(s.closed_at(), 4.0);
        // Idempotent close.
        clock.charge(&rule::scan(10.0, 0.0));
        s.close(&clock);
        assert_eq!(s.closed_at(), 4.0);
    }

    #[test]
    fn parents_and_snapshots() {
        let clock = CostClock::default_clock();
        let tracer = Tracer::new();
        let parent = tracer.open("hash_join", &clock);
        let child = tracer.open("table_scan", &clock);
        child.set_parent(parent.id());
        child.set_detail("scan(t)");
        child.set_est_rows(100.0);
        for _ in 0..150 {
            child.produced(&clock);
        }
        let snaps = tracer.snapshot();
        assert_eq!(snaps.len(), 2);
        assert_eq!(snaps[1].parent, Some(parent.id()));
        assert_eq!(snaps[1].detail, "scan(t)");
        assert_eq!(snaps[1].rows_out, 150);
        assert!((snaps[1].q_error() - 1.5).abs() < 1e-12);
        assert!(snaps[0].q_error().is_nan(), "no estimate set");
    }

    #[test]
    fn grants_and_spills() {
        let clock = CostClock::default_clock();
        let tracer = Tracer::new();
        let s = tracer.open("sort", &clock);
        s.record_grant(500.0);
        s.record_grant(200.0);
        assert_eq!(s.mem_granted(), 500.0, "high-water grant");
        s.record_spill(1000.0);
        s.record_spill(250.0);
        assert_eq!(s.spilled_rows(), 1250.0);
        assert_eq!(s.spill_events(), 2);
    }

    #[test]
    fn events_are_timestamped_and_snapshotted() {
        let clock = CostClock::default_clock();
        let tracer = Tracer::new();
        let s = tracer.open("check", &clock);
        clock.charge(&rule::scan(3.0, 0.0));
        s.record_event(&clock, "pop.violation", "cp0 actual=500 range=[10,100]");
        clock.charge(&rule::scan(2.0, 0.0));
        s.record_event(&clock, "pop.violation", "cp1 actual=7 range=[10,100]");
        let events = s.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].at, 3.0);
        assert_eq!(events[0].kind, "pop.violation");
        assert_eq!(events[1].at, 5.0);
        let snap = s.snapshot();
        assert_eq!(snap.events, events, "snapshot carries the events");
    }

    #[test]
    fn q_error_floors_at_one_row() {
        let clock = CostClock::default_clock();
        let tracer = Tracer::new();
        let s = tracer.open("filter", &clock);
        s.set_est_rows(0.001);
        // Zero actual rows, near-zero estimate: q-error is 1, not inf.
        assert_eq!(s.q_error(), 1.0);
    }

    #[test]
    fn tracer_clear() {
        let clock = CostClock::default_clock();
        let tracer = Tracer::new();
        tracer.open("a", &clock);
        tracer.open("b", &clock);
        assert_eq!(tracer.len(), 2);
        tracer.clear();
        assert!(tracer.is_empty());
        // Ids restart from zero after a clear.
        assert_eq!(tracer.open("c", &clock).id(), 0);
    }

    #[test]
    fn produced_n_bulk_counts_and_stamps_first_row() {
        let clock = CostClock::default_clock();
        let tracer = Tracer::new();
        let s = tracer.open("gather", &clock);
        clock.charge(&rule::scan(1.0, 0.0));
        s.produced_n(&clock, 0);
        assert!(s.first_row_at().is_nan(), "zero rows is not a first row");
        s.produced_n(&clock, 40);
        assert_eq!(s.rows(), 40);
        assert_eq!(s.first_row_at(), 1.0);
        clock.charge(&rule::scan(1.0, 0.0));
        s.produced_n(&clock, 2);
        assert_eq!(s.rows(), 42);
        assert_eq!(s.first_row_at(), 1.0, "first-row mark is sticky");
    }

    #[test]
    fn adopt_reids_and_reparents_worker_spans() {
        let clock = CostClock::default_clock();
        let main = Tracer::new();
        let exchange = main.open("exchange", &clock);
        let extra = main.open("other_root", &clock);
        let worker = Tracer::new();
        let w_root = worker.open("sort", &clock);
        let w_child = worker.open("table_scan", &clock);
        w_child.set_parent(w_root.id());
        main.adopt(&worker, Some(exchange.id()));
        assert!(worker.is_empty(), "worker tracer drained");
        assert_eq!(main.len(), 4);
        let snaps = main.snapshot();
        assert_eq!(snaps[2].kind, "sort");
        assert_eq!(snaps[2].id, 2);
        assert_eq!(snaps[2].parent, Some(exchange.id()), "root under exchange");
        assert_eq!(snaps[3].kind, "table_scan");
        assert_eq!(snaps[3].parent, Some(2), "child link remapped");
        assert_eq!(extra.id(), 1, "existing spans untouched");
        // Adoption without a parent leaves roots as roots.
        let worker2 = Tracer::new();
        worker2.open("scan", &clock);
        main.adopt(&worker2, None);
        assert_eq!(main.snapshot()[4].parent, None);
    }

    #[test]
    fn spans_cross_threads() {
        let clock = CostClock::default_clock();
        let tracer = Tracer::new();
        let s = tracer.open("parallel_filter", &clock);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let s = s.clone();
                let clock = std::sync::Arc::clone(&clock);
                std::thread::spawn(move || {
                    for _ in 0..500 {
                        s.produced(&clock);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.rows(), 2000, "no lost updates");
    }
}
