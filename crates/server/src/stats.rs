//! Live service introspection: the per-query registry + flight recorder.
//!
//! The completion log
//! ([`QueryService::completions`](crate::QueryService::completions)) describes queries that have already
//! *ended*; a long-running service also has to answer "what is the service
//! doing right now?" — for the STATS/INSPECT/EVENTS wire frames and the
//! `rqp-top` dashboard. [`ServiceStats`] is that answer, in two halves:
//!
//! * a **live registry** of in-flight queries: phase
//!   ([`QueryPhase::Queued`] at the admission gate, [`QueryPhase::Running`]
//!   on an execution thread, [`QueryPhase::Paging`] while results stream to
//!   a wire client), cost-clock ticks, workspace held, deadline headroom —
//!   each [`snapshot`](ServiceStats::snapshot)-able mid-run because the
//!   underlying instruments (cost clock, governor, tracer) are all
//!   `Arc`-over-atomics;
//! * the service [`FlightRecorder`], through which every subsystem
//!   publishes sequenced events (`query.*`, `admission.*`, `broker.*`,
//!   `pager.*`, plus span-carried adaptive decisions republished at query
//!   end), stamped with wall-clock service uptime.
//!
//! Everything here is advisory observation: registry methods are called on
//! query/pager threads but never block execution on a reader, and an
//! unregistered query id is a no-op everywhere (solo runs bypass the
//! registry by design).

use rqp_common::{CancelToken, SharedClock};
use rqp_exec::MemoryGovernor;
use rqp_telemetry::{FlightRecorder, Tracer};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Where an in-flight query currently is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryPhase {
    /// Waiting at the admission gate.
    Queued,
    /// Executing on a query thread.
    Running,
    /// Finished executing; results are being paged to a wire client.
    Paging,
}

impl QueryPhase {
    /// Stable numeric encoding (wire frames and the phase atomic).
    pub fn as_u8(self) -> u8 {
        match self {
            QueryPhase::Queued => 0,
            QueryPhase::Running => 1,
            QueryPhase::Paging => 2,
        }
    }

    /// Decode [`as_u8`](Self::as_u8); unknown values read as `Queued`.
    pub fn from_u8(v: u8) -> QueryPhase {
        match v {
            1 => QueryPhase::Running,
            2 => QueryPhase::Paging,
            _ => QueryPhase::Queued,
        }
    }

    /// Lowercase label for dashboards.
    pub fn label(self) -> &'static str {
        match self {
            QueryPhase::Queued => "queued",
            QueryPhase::Running => "running",
            QueryPhase::Paging => "paging",
        }
    }
}

/// Execution-side instruments installed once a query starts running.
struct LiveExec {
    clock: SharedClock,
    gov: Arc<MemoryGovernor>,
    tracer: Tracer,
}

struct LiveEntry {
    session: u64,
    priority: u8,
    phase: AtomicU8,
    cancel: CancelToken,
    exec: Mutex<Option<LiveExec>>,
}

/// One in-flight query's live state, as snapshotted for STATS.
#[derive(Debug, Clone, PartialEq)]
pub struct LiveQueryStats {
    /// Service-wide query id.
    pub query: u64,
    /// Owning session id.
    pub session: u64,
    /// Effective admission priority.
    pub priority: u8,
    /// Current phase.
    pub phase: QueryPhase,
    /// Cost charged to the query's virtual clock so far (0 while queued).
    pub ticks: f64,
    /// Workspace rows currently granted out of the query's governor.
    pub granted: f64,
    /// The query's current broker share (its governor budget).
    pub share: f64,
    /// Cost-clock headroom to the deadline, if one is set.
    pub deadline_remaining: Option<f64>,
}

/// The live half of the observatory: in-flight registry + flight recorder.
#[derive(Debug)]
pub struct ServiceStats {
    live: Mutex<HashMap<u64, Arc<LiveEntry>>>,
    recorder: FlightRecorder,
    started: Instant,
}

impl std::fmt::Debug for LiveEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LiveEntry")
            .field("session", &self.session)
            .field("phase", &QueryPhase::from_u8(self.phase.load(Ordering::Relaxed)))
            .finish()
    }
}

impl ServiceStats {
    /// A registry whose flight recorder retains `recorder_capacity` events.
    pub fn new(recorder_capacity: usize) -> Self {
        ServiceStats {
            live: Mutex::new(HashMap::new()),
            recorder: FlightRecorder::new(recorder_capacity),
            started: Instant::now(),
        }
    }

    fn table(&self) -> std::sync::MutexGuard<'_, HashMap<u64, Arc<LiveEntry>>> {
        self.live.lock().expect("service stats lock")
    }

    /// The service flight recorder.
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Wall-clock seconds since the service came up — the `at` domain of
    /// every event published through [`publish`](Self::publish).
    pub fn uptime(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Publish one event to the flight recorder, stamped with the current
    /// uptime. `query` is 0 for service-wide events.
    pub fn publish(&self, query: u64, kind: &str, detail: &str) -> u64 {
        self.recorder.publish(self.uptime(), query, kind, detail)
    }

    /// Publish an event with an explicit timestamp (republished span events
    /// keep their cost-clock positions).
    pub fn publish_at(&self, at: f64, query: u64, kind: &str, detail: &str) -> u64 {
        self.recorder.publish(at, query, kind, detail)
    }

    /// Enter `query` into the live registry (phase `Queued`) and publish
    /// its `query.submit` lifecycle event.
    pub fn register(&self, query: u64, session: u64, priority: u8, cancel: &CancelToken) {
        let entry = Arc::new(LiveEntry {
            session,
            priority,
            phase: AtomicU8::new(QueryPhase::Queued.as_u8()),
            cancel: cancel.clone(),
            exec: Mutex::new(None),
        });
        self.table().insert(query, entry);
        self.publish(query, "query.submit", &format!("s{session} prio {priority}"));
    }

    /// Install the execution-side instruments and flip `query` to
    /// `Running`. No-op for unregistered ids (solo runs).
    pub fn mark_running(
        &self,
        query: u64,
        clock: SharedClock,
        gov: Arc<MemoryGovernor>,
        tracer: Tracer,
    ) {
        let Some(entry) = self.table().get(&query).cloned() else { return };
        *entry.exec.lock().expect("live exec lock") = Some(LiveExec { clock, gov, tracer });
        entry.phase.store(QueryPhase::Running.as_u8(), Ordering::Relaxed);
    }

    /// Remove `query` from the registry, publishing its `query.finish`
    /// event with the terminal `status` label.
    pub fn deregister(&self, query: u64, status: &str) {
        self.table().remove(&query);
        self.publish(query, "query.finish", status);
    }

    /// Re-enter a finished wire query as `Paging` while its results stream
    /// out. The execution thread is gone by now, so the entry is
    /// lightweight: phase only.
    pub fn begin_paging(&self, query: u64, session: u64) {
        let entry = Arc::new(LiveEntry {
            session,
            priority: 0,
            phase: AtomicU8::new(QueryPhase::Paging.as_u8()),
            cancel: CancelToken::new(),
            exec: Mutex::new(None),
        });
        self.table().insert(query, entry);
    }

    /// Remove a `Paging` entry once the terminal frame is on the wire.
    pub fn end_paging(&self, query: u64) {
        self.table().remove(&query);
    }

    /// The live tracer and clock of a running query, for INSPECT's
    /// mid-flight `EXPLAIN ANALYZE`. `None` while queued or paging.
    pub fn live_tracer(&self, query: u64) -> Option<(Tracer, SharedClock)> {
        let entry = self.table().get(&query).cloned()?;
        let exec = entry.exec.lock().expect("live exec lock");
        exec.as_ref().map(|e| (e.tracer.clone(), Arc::clone(&e.clock)))
    }

    /// The current phase of `query`, if it is in the registry.
    pub fn phase(&self, query: u64) -> Option<QueryPhase> {
        self.table()
            .get(&query)
            .map(|e| QueryPhase::from_u8(e.phase.load(Ordering::Relaxed)))
    }

    /// Number of queries currently in the registry.
    pub fn live_count(&self) -> usize {
        self.table().len()
    }

    /// Snapshot every in-flight query, ordered by query id.
    pub fn snapshot(&self) -> Vec<LiveQueryStats> {
        let entries: Vec<(u64, Arc<LiveEntry>)> =
            self.table().iter().map(|(q, e)| (*q, Arc::clone(e))).collect();
        let mut out: Vec<LiveQueryStats> = entries
            .into_iter()
            .map(|(query, entry)| {
                let (ticks, granted, share) = {
                    let exec = entry.exec.lock().expect("live exec lock");
                    match exec.as_ref() {
                        Some(e) => (e.clock.now(), e.gov.outstanding(), e.gov.budget()),
                        None => (0.0, 0.0, 0.0),
                    }
                };
                let deadline = entry.cancel.deadline();
                LiveQueryStats {
                    query,
                    session: entry.session,
                    priority: entry.priority,
                    phase: QueryPhase::from_u8(entry.phase.load(Ordering::Relaxed)),
                    ticks,
                    granted,
                    share,
                    deadline_remaining: deadline.is_finite().then_some(deadline - ticks),
                }
            })
            .collect();
        out.sort_by_key(|s| s.query);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rqp_common::CostClock;

    #[test]
    fn registry_tracks_phases_and_instruments() {
        let stats = ServiceStats::new(64);
        let cancel = CancelToken::new();
        cancel.set_deadline(100.0);
        stats.register(7, 3, 1, &cancel);
        let snap = stats.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].phase, QueryPhase::Queued);
        assert_eq!(snap[0].ticks, 0.0);
        assert_eq!(snap[0].deadline_remaining, Some(100.0));

        let clock = CostClock::default_clock();
        clock.charge_seq_pages(5.0);
        let gov = MemoryGovernor::new(1_000.0);
        gov.grant(400.0);
        stats.mark_running(7, Arc::clone(&clock), Arc::clone(&gov), Tracer::new());
        let snap = stats.snapshot();
        assert_eq!(snap[0].phase, QueryPhase::Running);
        assert_eq!(snap[0].ticks, 5.0);
        assert_eq!(snap[0].granted, 400.0);
        assert_eq!(snap[0].share, 1_000.0);
        assert_eq!(snap[0].deadline_remaining, Some(95.0));
        assert!(stats.live_tracer(7).is_some());
        assert!(stats.live_tracer(8).is_none(), "unknown id");

        stats.deregister(7, "completed");
        assert_eq!(stats.live_count(), 0);
        // Lifecycle events landed in the recorder.
        let kinds: Vec<String> =
            stats.recorder().tail(0, 100).events.into_iter().map(|e| e.kind).collect();
        assert_eq!(kinds, vec!["query.submit", "query.finish"]);
    }

    #[test]
    fn paging_entries_are_lightweight() {
        let stats = ServiceStats::new(64);
        stats.begin_paging(9, 2);
        let snap = stats.snapshot();
        assert_eq!(snap[0].phase, QueryPhase::Paging);
        assert_eq!(snap[0].session, 2);
        assert!(snap[0].deadline_remaining.is_none());
        assert!(stats.live_tracer(9).is_none(), "no execution instruments");
        stats.end_paging(9);
        assert_eq!(stats.live_count(), 0);
    }

    #[test]
    fn unregistered_ids_are_noops() {
        let stats = ServiceStats::new(64);
        stats.mark_running(
            99,
            CostClock::default_clock(),
            MemoryGovernor::new(0.0),
            Tracer::new(),
        );
        stats.deregister(99, "failed");
        stats.end_paging(99);
        assert_eq!(stats.live_count(), 0);
    }

    #[test]
    fn phase_round_trips_through_u8() {
        for p in [QueryPhase::Queued, QueryPhase::Running, QueryPhase::Paging] {
            assert_eq!(QueryPhase::from_u8(p.as_u8()), p);
        }
        assert_eq!(QueryPhase::from_u8(200), QueryPhase::Queued);
    }
}
