//! The query service: wires admission, brokering, the plan cache, feedback
//! and telemetry around per-query execution threads.

use crate::admission::AdmissionController;
use crate::broker::MemoryBroker;
use crate::cache::PlanCache;
use crate::session::{QueryOptions, QueryOutcome, Session};
use crate::stats::ServiceStats;
use crate::subs::{SubscribeOptions, Subscription, SubscriptionRegistry};
use rqp_common::chaos::{install_quiet_panic_hook, ChaosPolicy};
use rqp_common::{percentile, rule, CancelToken, CostClock, EngineConfig, Result, Row, RqpError};
use rqp_exec::{ExecContext, MemoryGovernor};
use rqp_opt::run::{learn, run_plan};
use rqp_opt::{plan, PlannerConfig, QuerySpec};
use rqp_stats::{FeedbackEstimator, FeedbackRepo, StatsEstimator, TableStatsRegistry};
use rqp_storage::{Catalog, Changelog};
use rqp_stream::{DeltaPacket, ViewCircuit};
use rqp_telemetry::{MetricsRegistry, Tracer};
use rqp_workload::{Job, WorkloadManager};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Service capacity in cost units per virtual time unit, used by the
/// deterministic schedule replay that derives the latency gauges.
const CAPACITY: f64 = 1.0;

/// Exponential-smoothing weight of new LEO feedback observations.
const FEEDBACK_SMOOTHING: f64 = 0.5;

/// Service-wide configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Multiprogramming limit enforced by the admission gate.
    pub mpl: usize,
    /// Total workspace budget (rows) divided among running queries.
    pub memory_rows: f64,
    /// Default per-query workspace ask when a submission does not set one.
    pub default_reservation: f64,
    /// Plan-cache invalidation threshold on the executed plan's maximum
    /// q-error over the nodes LEO learns from.
    pub drift_threshold: f64,
    /// Flight-recorder ring capacity (events retained for EVENTS tailing).
    pub recorder_capacity: usize,
    /// Page budget (frames) of the brokered buffer pool. `Some(n)` creates a
    /// [`BufferPool`](rqp_storage::BufferPool) attached to every served
    /// table and funded by the broker; `None` keeps the legacy
    /// always-resident storage path.
    pub page_budget: Option<usize>,
    /// Seed of the standard chaos mix injected into every query and every
    /// subscription poll; `None` injects nothing.
    pub chaos_seed: Option<u64>,
}

impl ServiceConfig {
    /// The default budgets under the given engine switches.
    pub fn with_engine(engine: EngineConfig) -> Self {
        ServiceConfig {
            mpl: 4,
            memory_rows: 40_000.0,
            default_reservation: 10_000.0,
            drift_threshold: 4.0,
            recorder_capacity: 4096,
            page_budget: engine.page_budget,
            chaos_seed: engine.chaos_seed,
        }
    }
}

impl Default for ServiceConfig {
    /// Under [`EngineConfig::ambient`], so a whole service (including the
    /// wire server) can be turned hostile from the process environment.
    fn default() -> Self {
        ServiceConfig::with_engine(EngineConfig::ambient())
    }
}

/// How a query ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryStatus {
    /// Ran to completion and returned rows.
    Completed,
    /// Aborted by an explicit [`QueryHandle::cancel`](crate::QueryHandle::cancel).
    Cancelled,
    /// Aborted because it charged past its deadline.
    DeadlineExceeded,
    /// Failed with any other typed error.
    Failed,
}

/// Completion record of one query, kept for the schedule replay.
#[derive(Debug, Clone)]
pub struct CompletedQuery {
    /// Service-wide query id.
    pub query: u64,
    /// Owning session id.
    pub session: u64,
    /// Effective admission priority.
    pub priority: u8,
    /// Replay processor-sharing weight.
    pub weight: f64,
    /// Virtual arrival time (from [`QueryOptions::at`]).
    pub arrival: f64,
    /// Cost charged to the query's virtual clock before it ended.
    pub demand: f64,
    /// Terminal status.
    pub status: QueryStatus,
    /// For deadline aborts: cost charged *past* the deadline before the
    /// abort landed (cooperative-cancellation reaction time).
    pub cancel_latency: Option<f64>,
}

/// Aggregate latency/robustness report derived from the completion log.
#[derive(Debug, Clone, Default)]
pub struct ServiceReport {
    /// Total queries recorded.
    pub queries: usize,
    /// Queries that completed.
    pub completed: usize,
    /// Queries cancelled explicitly.
    pub cancelled: usize,
    /// Queries aborted at their deadline.
    pub deadline_aborted: usize,
    /// Queries that failed otherwise.
    pub failed: usize,
    /// Median response time under the replayed schedule.
    pub latency_p50: f64,
    /// Tail (p99) response time under the replayed schedule.
    pub latency_p99: f64,
    /// Tail (p99) solo response time (demand / capacity, no contention).
    pub solo_p99: f64,
    /// `latency_p99 / solo_p99`: how much concurrency stretches the tail.
    pub tail_amplification: f64,
    /// Mean admission-queue wait (start − arrival) in the replay.
    pub admission_wait_mean: f64,
    /// Tail (p99) admission-queue wait in the replay.
    pub admission_wait_p99: f64,
    /// Worst observed cancellation reaction time (cost past the deadline).
    pub cancel_latency_max: f64,
    /// Mean response time in the replay.
    pub mean_response: f64,
    /// Replay makespan.
    pub makespan: f64,
    /// High-water mark of concurrently running queries.
    pub peak_mpl: usize,
    /// Plan-cache hits.
    pub plan_cache_hits: u64,
    /// Plan-cache misses.
    pub plan_cache_misses: u64,
    /// Plan-cache drift invalidations.
    pub plan_cache_invalidations: u64,
}

pub(crate) struct ServiceInner {
    pub(crate) config: ServiceConfig,
    /// The serving catalog, one `Arc` per epoch. A query clones the `Arc`
    /// under the read lock and plans and runs on that epoch to the end;
    /// a subscription loads under the read lock; [`QueryService::append_rows`]
    /// publishes the next epoch under the write lock (copy on write while
    /// a query still holds the last one), so a subscription's initial load
    /// and its changelog cursor are captured atomically with respect to
    /// appends.
    pub(crate) catalog: RwLock<Arc<Catalog>>,
    /// Epoch-sequenced mutation feed, attached to every served table.
    pub(crate) changelog: Arc<Changelog>,
    /// Live standing subscriptions.
    pub(crate) subs: SubscriptionRegistry,
    pub(crate) stats: TableStatsRegistry,
    pub(crate) admission: AdmissionController,
    pub(crate) broker: MemoryBroker,
    pub(crate) plan_cache: PlanCache,
    /// LEO's learned corrections: a plan-cache miss plans under the read
    /// lock, a completed query [`learn`]s under the write lock, and neither
    /// takes another service lock while it holds this one.
    pub(crate) feedback: RwLock<FeedbackRepo>,
    pub(crate) metrics: MetricsRegistry,
    pub(crate) tracer: Tracer,
    pub(crate) live: Arc<ServiceStats>,
    /// Serializes "open root span + adopt + close" so concurrent queries
    /// interleave whole span trees, never halves of them.
    trace_merge: Mutex<()>,
    next_query: AtomicU64,
    next_session: AtomicU64,
    completions: Mutex<Vec<CompletedQuery>>,
}

impl std::fmt::Debug for ServiceInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceInner")
            .field("config", &self.config)
            .field("running", &self.admission.running())
            .field("queued", &self.admission.queue_depth())
            .finish()
    }
}

impl ServiceInner {
    pub(crate) fn next_query_id(&self) -> u64 {
        self.next_query.fetch_add(1, Ordering::Relaxed) + 1
    }

    fn record(&self, c: CompletedQuery) {
        match c.status {
            QueryStatus::Completed => self.metrics.counter("server.queries.completed").inc(),
            QueryStatus::Cancelled => self.metrics.counter("server.queries.cancelled").inc(),
            QueryStatus::DeadlineExceeded => {
                self.metrics.counter("server.queries.deadline_aborted").inc()
            }
            QueryStatus::Failed => self.metrics.counter("server.queries.failed").inc(),
        }
        self.metrics.histogram("server.query.demand").observe(c.demand);
        if let Some(l) = c.cancel_latency {
            self.metrics.histogram("server.cancel.latency").observe(l);
        }
        self.completions.lock().expect("completions lock").push(c);
    }
}

/// A multi-session query service over a shared, epoch-versioned catalog.
///
/// Construction copies the [`Catalog`]'s handles (never its data) and runs
/// one ANALYZE pass; after that, every query plans and runs on the
/// `Arc<Catalog>` of the epoch it started in, against the shared
/// statistics and feedback repository. See the crate docs for the full
/// admission → brokering → execution → telemetry pipeline.
#[derive(Debug)]
pub struct QueryService {
    inner: Arc<ServiceInner>,
}

impl QueryService {
    pub(crate) fn from_inner(inner: Arc<ServiceInner>) -> Self {
        QueryService { inner }
    }

    /// Stand up a service over `catalog` (its handles copied and its tables
    /// analyzed here).
    /// The ANALYZE pass's wall time is the `server.setup.analyze_ms` gauge
    /// and a `stats.analyze` flight-recorder event.
    pub fn new(catalog: &Catalog, config: ServiceConfig) -> Self {
        let served = Arc::new(catalog.clone());
        let analyze_start = std::time::Instant::now();
        let stats = TableStatsRegistry::analyze_catalog(catalog, 32);
        let analyze_ms = analyze_start.elapsed().as_secs_f64() * 1e3;
        let shared = MemoryGovernor::new(config.memory_rows);
        let live = Arc::new(ServiceStats::new(config.recorder_capacity));
        let mut broker = MemoryBroker::new(shared).with_observer(Arc::clone(&live));
        if let Some(pages) = config.page_budget {
            // One pool for the whole service: attached to the served
            // catalog's tables, so every query pins through it; funded (and
            // shrunk under concurrency) by the broker, outside the workspace
            // ledger.
            let pool = rqp_storage::BufferPool::new(pages);
            served.attach_pool(&pool);
            broker = broker.with_page_pool(pool, pages);
        }
        // Every table publishes mutations into one service changelog, the
        // total order standing subscriptions replay.
        let changelog = Arc::new(Changelog::new());
        served.attach_changelog(&changelog);
        let inner = ServiceInner {
            catalog: RwLock::new(served),
            changelog,
            subs: SubscriptionRegistry::new(),
            admission: AdmissionController::new(config.mpl),
            broker,
            live,
            plan_cache: PlanCache::new(config.drift_threshold),
            feedback: RwLock::new(FeedbackRepo::new(FEEDBACK_SMOOTHING)),
            metrics: MetricsRegistry::new(),
            tracer: Tracer::new(),
            trace_merge: Mutex::new(()),
            next_query: AtomicU64::new(0),
            next_session: AtomicU64::new(0),
            completions: Mutex::new(Vec::new()),
            stats,
            config,
        };
        let tables = catalog.table_names();
        let rows: usize =
            tables.iter().filter_map(|t| catalog.table(t).ok()).map(|t| t.nrows()).sum();
        inner.metrics.gauge("server.setup.analyze_ms").set(analyze_ms);
        let detail = format!("{} tables {rows} rows {analyze_ms:.1} ms", tables.len());
        inner.live.publish(0, "stats.analyze", &detail);
        QueryService { inner: Arc::new(inner) }
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.inner.config
    }

    /// Open a session with the given default admission priority
    /// (0 = highest).
    pub fn session(&self, priority: u8) -> Session {
        let id = self.inner.next_session.fetch_add(1, Ordering::Relaxed) + 1;
        Session { inner: Arc::clone(&self.inner), id, priority }
    }

    /// Execute `spec` on the calling thread, bypassing admission and the
    /// broker (full `memory_rows` budget, no contention). This is the
    /// "solo" baseline the tail-amplification gauge compares against, and
    /// it shares the plan cache, statistics and feedback repository with
    /// concurrent execution — so solo and concurrent runs of the same spec
    /// execute the same physical plan.
    pub fn run_solo(&self, spec: &QuerySpec) -> Result<QueryOutcome> {
        let query = self.inner.next_query_id();
        let gov = MemoryGovernor::new(self.inner.config.memory_rows);
        let cancel = CancelToken::new();
        let (result, _demand, _lat) = execute(&self.inner, 0, query, spec, gov, &cancel);
        result
    }

    /// Service metrics (per-query counters plus the report gauges).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.inner.metrics
    }

    /// The merged span forest: one `query` root per executed query.
    pub fn tracer(&self) -> &Tracer {
        &self.inner.tracer
    }

    /// The live half of the observatory: the in-flight query registry and
    /// the service flight recorder.
    pub fn stats(&self) -> &ServiceStats {
        &self.inner.live
    }

    /// Refresh the `server.live.*` / `server.recorder.*` gauges from the
    /// admission gate, broker and recorder. Called by the STATS wire
    /// handler (and anyone else about to snapshot the registry) so the
    /// snapshot reflects the service *now*, not at the last completion.
    pub fn refresh_live_gauges(&self) {
        let inner = &self.inner;
        let m = &inner.metrics;
        m.gauge("server.live.running").set(inner.admission.running() as f64);
        m.gauge("server.live.queued").set(inner.admission.queue_depth() as f64);
        m.gauge("server.live.admitted").set(inner.admission.admitted() as f64);
        m.gauge("server.live.peak_mpl").set(inner.admission.peak_running() as f64);
        m.gauge("server.live.reserved").set(inner.broker.reserved());
        m.gauge("server.live.population").set(inner.broker.population() as f64);
        m.gauge("server.live.inflight").set(inner.live.live_count() as f64);
        m.gauge("server.recorder.published").set(inner.live.recorder().head() as f64);
        m.gauge("server.recorder.dropped").set(inner.live.recorder().dropped() as f64);
        if let Some(pool) = inner.broker.page_pool() {
            let s = pool.stats();
            m.gauge("server.pager.budget").set(pool.budget() as f64);
            m.gauge("server.pager.resident").set(pool.resident() as f64);
            m.gauge("server.pager.pinned").set(pool.pins() as f64);
            m.gauge("server.pager.faults").set(s.faults() as f64);
            m.gauge("server.pager.refaults").set(s.refaults as f64);
            m.gauge("server.pager.evictions").set(s.evictions as f64);
            m.gauge("server.pager.io_retries").set(s.io_retries as f64);
            m.gauge("server.pager.hit_rate").set(s.hit_rate());
        }
        m.gauge("server.subs.count").set(inner.subs.count() as f64);
        m.gauge("server.subs.deltas").set(inner.subs.total_deltas() as f64);
        m.gauge("server.subs.max_lag").set(inner.subs.max_lag(inner.changelog.len()) as f64);
        m.gauge("server.subs.state_rows").set(inner.subs.total_state_rows() as f64);
        m.gauge("server.subs.state_bytes").set(inner.subs.total_state_bytes() as f64);
        let (table_bytes, index_bytes) = inner.catalog.read().expect("catalog lock").heap_bytes();
        m.gauge("server.storage.table_bytes").set(table_bytes as f64);
        m.gauge("server.storage.index_bytes").set(index_bytes as f64);
        let signatures = inner.feedback.read().expect("feedback lock").len();
        m.gauge("server.feedback.signatures").set(signatures as f64);
    }

    /// The service's epoch-sequenced mutation feed.
    pub fn changelog(&self) -> &Arc<Changelog> {
        &self.inner.changelog
    }

    /// The served catalog's current epoch.
    #[cfg(test)]
    pub(crate) fn served(&self) -> Arc<Catalog> {
        Arc::clone(&self.inner.catalog.read().expect("catalog lock"))
    }

    /// The live subscription registry.
    pub fn subscriptions(&self) -> &SubscriptionRegistry {
        &self.inner.subs
    }

    /// Append `rows` to `table` and to every index on it under the catalog
    /// write lock, publishing each row to the changelog. Returns the
    /// changelog length after the append (the epoch one past the last
    /// published record). Running queries keep the catalog epoch they
    /// started in (snapshot isolation); queries started after this call see
    /// the new rows, and standing subscriptions pick them up at their next
    /// poll.
    pub fn append_rows(&self, table: &str, rows: Vec<Row>) -> Result<u64> {
        let inner = &self.inner;
        let count = rows.len();
        // Table and indexes move together under the write lock, so every
        // epoch a query clones holds one version of both.
        let mut guard = inner.catalog.write().expect("catalog lock");
        Arc::make_mut(&mut guard).append_rows(table, rows)?;
        let epoch = inner.changelog.len();
        drop(guard);
        self.trim_changelog();
        inner.metrics.counter("server.appends.rows").add(count as u64);
        inner.live.publish(0, "table.append", &format!("{table} +{count} epoch {epoch}"));
        Ok(epoch)
    }

    /// Register a standing subscription for `spec` on behalf of `session`
    /// (0 for service-local subscribers): compile the delta circuit, fold
    /// in the current table contents (under an admission permit — the
    /// initial load is a scan and competes like any query), capture the
    /// changelog cursor atomically with that load, and fund the circuit's
    /// maintained state from the memory broker. Returns the subscription
    /// id, drawn from the query-id sequence.
    pub fn subscribe_for(
        &self,
        session: u64,
        priority: u8,
        spec: &QuerySpec,
        opts: SubscribeOptions,
    ) -> Result<u64> {
        let inner = &self.inner;
        let id = inner.next_query_id();
        let priority = opts.priority.unwrap_or(priority);
        let cancel = CancelToken::new();
        if let Some(d) = opts.deadline {
            cancel.set_deadline(d);
        }
        let permit = inner.admission.admit(priority, &cancel)?;
        let want = opts.reservation.unwrap_or(inner.config.default_reservation);
        let gov = inner.broker.admit(id, want);
        let clock = CostClock::default_clock();
        // The read lock excludes appends from the initial load until the
        // subscription is in the registry: the cursor is exactly the epoch
        // of the state the circuit absorbed, and no changelog trim can run
        // past a cursor the registry does not list yet.
        let guard = inner.catalog.read().expect("catalog lock");
        let started = std::time::Instant::now();
        let loaded = (|| {
            let mut circuit = ViewCircuit::compile(spec, &guard)?;
            circuit.load_initial(&guard, &clock)?;
            circuit.set_cursor(inner.changelog.len());
            Ok(circuit)
        })();
        let load_ms = started.elapsed().as_secs_f64() * 1e3;
        drop(permit);
        let circuit = match loaded {
            Ok(c) => c,
            Err(e) => {
                inner.broker.complete(id);
                return Err(e);
            }
        };
        // Fund what the circuit actually keeps resident.
        gov.grant(circuit.state_rows() as f64);
        inner.metrics.histogram("server.subs.load_ms").observe(load_ms);
        let sides: String =
            circuit.join_sides().iter().map(|side| format!(" join {side}")).collect();
        let detail = format!(
            "s{session} prio {priority} cursor {} view {} state {}{sides} load {load_ms:.1} ms",
            circuit.cursor(),
            circuit.view_rows(),
            circuit.state_bytes()
        );
        let sub = Subscription {
            id,
            session,
            priority,
            clock,
            gov,
            cancel,
            deltas: AtomicU64::new(0),
            packets: AtomicU64::new(0),
            cursor: AtomicU64::new(circuit.cursor()),
            state_rows: AtomicU64::new(circuit.state_rows() as u64),
            state_bytes: AtomicU64::new(circuit.state_bytes() as u64),
            circuit: Mutex::new(circuit),
        };
        inner.subs.insert(Arc::new(sub));
        drop(guard);
        inner.metrics.counter("server.subs.registered").inc();
        inner.live.publish(id, "sub.register", &detail);
        Ok(id)
    }

    /// [`subscribe_for`](Self::subscribe_for) with no owning session and
    /// default priority 1 — the in-process subscriber entry point.
    pub fn subscribe(&self, spec: &QuerySpec, opts: SubscribeOptions) -> Result<u64> {
        self.subscribe_for(0, 1, spec, opts)
    }

    /// Tear down subscription `id`: return its broker grant, remove it
    /// from the registry, and cancel its token. Returns `false` (and
    /// touches nothing) if the id is not a live subscription. The grant
    /// goes back first, so an observer that sees the registry entry gone
    /// also sees no reservation for it; after this returns `true` the
    /// service holds nothing for the subscription — no registry entry, no
    /// reservation, no pins.
    pub fn unsubscribe(&self, id: u64) -> bool {
        let inner = &self.inner;
        let Some(sub) = inner.subs.get(id) else { return false };
        inner.broker.complete(id);
        if inner.subs.remove(id).is_none() {
            // A concurrent unsubscribe of the same id delisted it first.
            return false;
        }
        sub.cancel.cancel();
        self.trim_changelog();
        inner.metrics.counter("server.subs.unregistered").inc();
        inner.live.publish(
            id,
            "sub.unregister",
            &format!("deltas {} cost {:.0}", sub.delta_rows(), sub.cost()),
        );
        true
    }

    /// Drop the changelog records no live subscription can still ask for:
    /// everything below the smallest live cursor, or everything published
    /// so far when nobody subscribes. The log's length is read *before* the
    /// registry, and a registering subscription holds the catalog read
    /// lock from capturing its cursor until it is listed, so a trim never
    /// passes a cursor it could not see.
    fn trim_changelog(&self) {
        let published = self.inner.changelog.len();
        let floor = self.inner.subs.min_cursor().unwrap_or(published);
        self.inner.changelog.trim_below(floor);
    }

    /// Tear down every subscription owned by `session` (wire disconnect).
    pub fn unsubscribe_session(&self, session: u64) -> usize {
        let ids = self.inner.subs.ids_of_session(session);
        ids.iter().filter(|&&id| self.unsubscribe(id)).count()
    }

    /// Tear down every live subscription (service shutdown).
    pub fn shutdown_subscriptions(&self) -> usize {
        let ids = self.inner.subs.ids();
        ids.iter().filter(|&&id| self.unsubscribe(id)).count()
    }

    /// Advance subscription `id`: drain up to `max_records` changelog
    /// records (0 = all) through its circuit and return the resulting
    /// delta packet plus the lag (records still unfolded) left behind.
    ///
    /// Propagation shares the MPL gate: the poll takes an admission permit
    /// at the subscription's priority, so delta storms and ad-hoc queries
    /// arbitrate through the same gate. Costs charge the subscription's
    /// clock (and chaos inflates them with retry charges — deltas degrade
    /// in latency, never get dropped). A cancelled or deadline-exhausted
    /// subscription is torn down here and the typed error returned.
    pub fn poll_subscription(&self, id: u64, max_records: usize) -> Result<(DeltaPacket, u64)> {
        let inner = &self.inner;
        let sub = inner
            .subs
            .get(id)
            .ok_or_else(|| RqpError::Invalid(format!("unknown subscription {id}")))?;
        let teardown = |e: RqpError| {
            self.unsubscribe(id);
            Err(e)
        };
        if let Some(e) = sub.cancel.poll(sub.clock.now()) {
            return teardown(e);
        }
        let permit = match inner.admission.admit(sub.priority, &sub.cancel) {
            Ok(p) => p,
            Err(e) => return teardown(e),
        };
        let mut circuit = sub.circuit.lock().expect("circuit lock");
        let limit = if max_records == 0 { usize::MAX } else { max_records };
        let (recs, _) = inner.changelog.since_up_to(circuit.cursor(), limit);
        let chaos = ChaosPolicy::from_seed(inner.config.chaos_seed);
        if chaos.is_enabled() {
            // Chaos never drops a delta; transient faults surface as retry
            // charges that inflate this subscription's propagation latency.
            for rec in &recs {
                let mut attempt = 0;
                while attempt < chaos.scan_max_retries()
                    && chaos.scan_fault(&rec.table, rec.epoch, attempt)
                {
                    sub.clock.charge(&rule::random_pages(1.0));
                    attempt += 1;
                }
            }
        }
        // Lock order: the circuit, then the catalog. Shared join sides read
        // the served tables and indexes, borrowed only while the records
        // fold in; an append waits for the read lock, so every record read
        // above is in the epoch this borrows.
        let catalog = inner.catalog.read().expect("catalog lock");
        let applied = circuit.apply(&recs, &catalog, &sub.clock);
        drop(catalog);
        let packet = match applied {
            Ok(packet) => packet,
            Err(e) => {
                drop(circuit);
                drop(permit);
                return teardown(e);
            }
        };
        sub.mirror(&circuit);
        // Renegotiate the broker grant to the maintained state's new size.
        let held = sub.gov.outstanding();
        let want = circuit.state_rows() as f64;
        if want > held {
            sub.gov.grant(want - held);
        } else {
            sub.gov.release(held - want);
        }
        let lag = inner.changelog.len().saturating_sub(circuit.cursor());
        drop(circuit);
        drop(permit);
        self.trim_changelog();
        if !packet.is_empty() {
            sub.deltas.fetch_add(packet.delta_rows() as u64, Ordering::Relaxed);
            sub.packets.fetch_add(1, Ordering::Relaxed);
            inner.metrics.counter("server.subs.delta_rows").add(packet.delta_rows() as u64);
            inner.live.publish(
                id,
                "sub.delta",
                &format!(
                    "epoch {} +{} -{} lag {lag}",
                    packet.epoch,
                    packet.inserted.len(),
                    packet.retracted.len()
                ),
            );
        }
        if lag > 0 {
            inner.live.publish(id, "sub.lag", &format!("{lag} records behind"));
        }
        if let Some(e) = sub.cancel.poll(sub.clock.now()) {
            // The poll itself charged past the deadline: tear down now so
            // no grant outlives the budget.
            return teardown(e);
        }
        Ok((packet, lag))
    }

    /// The brokered buffer pool, when [`ServiceConfig::page_budget`] is set.
    pub fn pager(&self) -> Option<&Arc<rqp_storage::BufferPool>> {
        self.inner.broker.page_pool()
    }

    /// The shared plan cache.
    pub fn plan_cache(&self) -> &PlanCache {
        &self.inner.plan_cache
    }

    /// The cross-query memory broker.
    pub fn broker(&self) -> &MemoryBroker {
        &self.inner.broker
    }

    /// Workspace rows currently reserved across all running queries.
    pub fn reserved(&self) -> f64 {
        self.inner.broker.reserved()
    }

    /// High-water mark of concurrently admitted queries.
    pub fn peak_concurrency(&self) -> usize {
        self.inner.admission.peak_running()
    }

    /// Queries waiting at the admission gate right now.
    pub fn queue_depth(&self) -> usize {
        self.inner.admission.queue_depth()
    }

    /// Pause the admission gate (see [`AdmissionController::pause`]).
    pub fn pause_admission(&self) {
        self.inner.admission.pause();
    }

    /// Resume the admission gate.
    pub fn resume_admission(&self) {
        self.inner.admission.resume();
    }

    /// Completion records in completion order.
    pub fn completions(&self) -> Vec<CompletedQuery> {
        self.inner.completions.lock().expect("completions lock").clone()
    }

    /// Derive the latency/robustness report from the completion log.
    ///
    /// Real threads prove the *behavioral* properties (MPL gate, result
    /// identity, cancellation); wall-clock latencies on them are
    /// nondeterministic. So the gauges replay the recorded `(arrival,
    /// demand, priority, weight)` tuples through the
    /// [`WorkloadManager`], which drives the gate's own
    /// [`Admission`](rqp_workload::Admission) machine in virtual time. Same
    /// completion log → bit-identical report, which is what lets the
    /// scoreboard diff-gate these numbers.
    pub fn schedule_report(&self) -> ServiceReport {
        let inner = &self.inner;
        let completions = inner.completions.lock().expect("completions lock").clone();
        let mut report = ServiceReport {
            queries: completions.len(),
            peak_mpl: inner.admission.peak_running(),
            plan_cache_hits: inner.plan_cache.hits(),
            plan_cache_misses: inner.plan_cache.misses(),
            plan_cache_invalidations: inner.plan_cache.invalidations(),
            tail_amplification: 1.0,
            ..ServiceReport::default()
        };
        for c in &completions {
            match c.status {
                QueryStatus::Completed => report.completed += 1,
                QueryStatus::Cancelled => report.cancelled += 1,
                QueryStatus::DeadlineExceeded => report.deadline_aborted += 1,
                QueryStatus::Failed => report.failed += 1,
            }
            if let Some(l) = c.cancel_latency {
                report.cancel_latency_max = report.cancel_latency_max.max(l);
            }
        }
        // Cancelled-while-queued queries have zero demand and never held a
        // slot; everything that charged cost contends in the replay.
        let jobs: Vec<Job> = completions
            .iter()
            .filter(|c| c.demand > 0.0)
            .map(|c| Job {
                id: c.query as usize,
                arrival: c.arrival,
                demand: c.demand,
                priority: c.priority,
                weight: c.weight.max(1e-9),
            })
            .collect();
        if !jobs.is_empty() {
            let sim = WorkloadManager::new(inner.admission.mpl(), CAPACITY).simulate(&jobs);
            let mut responses: Vec<f64> = sim.jobs.iter().map(|j| j.response).collect();
            let mut waits: Vec<f64> = sim.jobs.iter().map(|j| j.wait).collect();
            let mut solos: Vec<f64> = jobs.iter().map(|j| j.demand / CAPACITY).collect();
            responses.sort_by(|a, b| a.total_cmp(b));
            waits.sort_by(|a, b| a.total_cmp(b));
            solos.sort_by(|a, b| a.total_cmp(b));
            report.latency_p50 = percentile(&responses, 50.0);
            report.latency_p99 = percentile(&responses, 99.0);
            report.solo_p99 = percentile(&solos, 99.0);
            if report.solo_p99 > 0.0 {
                report.tail_amplification = report.latency_p99 / report.solo_p99;
            }
            report.admission_wait_mean = waits.iter().sum::<f64>() / waits.len() as f64;
            report.admission_wait_p99 = percentile(&waits, 99.0);
            report.mean_response = sim.mean_response();
            report.makespan = sim.makespan;
        }
        let m = &inner.metrics;
        m.gauge("server.latency.p50").set(report.latency_p50);
        m.gauge("server.latency.p99").set(report.latency_p99);
        m.gauge("server.tail_amplification").set(report.tail_amplification);
        m.gauge("server.admission_wait.mean").set(report.admission_wait_mean);
        m.gauge("server.admission_wait.p99").set(report.admission_wait_p99);
        m.gauge("server.cancel.latency_max").set(report.cancel_latency_max);
        m.gauge("server.peak_mpl").set(report.peak_mpl as f64);
        m.gauge("server.plan_cache.hit_count").set(report.plan_cache_hits as f64);
        m.gauge("server.plan_cache.miss_count").set(report.plan_cache_misses as f64);
        m.gauge("server.plan_cache.invalidation_count")
            .set(report.plan_cache_invalidations as f64);
        report
    }
}

fn status_of(e: &RqpError) -> QueryStatus {
    match e {
        RqpError::Cancelled => QueryStatus::Cancelled,
        RqpError::DeadlineExceeded => QueryStatus::DeadlineExceeded,
        _ => QueryStatus::Failed,
    }
}

fn status_label(s: QueryStatus) -> &'static str {
    match s {
        QueryStatus::Completed => "completed",
        QueryStatus::Cancelled => "cancelled",
        QueryStatus::DeadlineExceeded => "deadline_exceeded",
        QueryStatus::Failed => "failed",
    }
}

/// Body of one query thread: admission → brokering → execution → record.
pub(crate) fn run_query(
    svc: Arc<ServiceInner>,
    session: u64,
    query: u64,
    priority: u8,
    spec: QuerySpec,
    opts: QueryOptions,
    cancel: CancelToken,
) -> Result<QueryOutcome> {
    install_quiet_panic_hook();
    svc.live.register(query, session, priority, &cancel);
    svc.live.publish(
        query,
        "admission.enqueue",
        &format!("prio {priority} depth {}", svc.admission.queue_depth()),
    );
    let permit = match svc.admission.admit(priority, &cancel) {
        Ok(p) => p,
        Err(e) => {
            // Cancelled while queued: never held a slot or a reservation.
            svc.live.publish(query, "admission.cancel", &format!("{e:?}"));
            let status = status_of(&e);
            svc.live.deregister(query, status_label(status));
            svc.record(CompletedQuery {
                query,
                session,
                priority,
                weight: opts.weight,
                arrival: opts.arrival,
                demand: 0.0,
                status,
                cancel_latency: None,
            });
            return Err(e);
        }
    };
    svc.live.publish(
        query,
        "admission.admit",
        &format!("running {} of mpl {}", svc.admission.running(), svc.admission.mpl()),
    );
    let want = opts.reservation.unwrap_or(svc.config.default_reservation);
    let gov = svc.broker.admit(query, want);
    let (result, demand, cancel_latency) = execute(&svc, session, query, &spec, gov, &cancel);
    svc.broker.complete(query);
    let status = match &result {
        Ok(_) => QueryStatus::Completed,
        Err(e) => status_of(e),
    };
    svc.live.deregister(query, status_label(status));
    // Record while still holding the MPL slot: the completion log must
    // reflect admission order (the trace-agreement tests rely on it), so
    // the slot may not pass to the next waiter before this entry lands.
    svc.record(CompletedQuery {
        query,
        session,
        priority,
        weight: opts.weight,
        arrival: opts.arrival,
        demand,
        status,
        cancel_latency,
    });
    drop(permit);
    result
}

/// Plan (or fetch from the cache) and execute one query under `gov`.
/// Returns the outcome, the demand charged, and — for deadline aborts —
/// the cancellation reaction time.
fn execute(
    svc: &ServiceInner,
    session: u64,
    query: u64,
    spec: &QuerySpec,
    gov: Arc<MemoryGovernor>,
    cancel: &CancelToken,
) -> (Result<QueryOutcome>, f64, Option<f64>) {
    let mut ctx = ExecContext::new(CostClock::default_clock(), 0.0)
        .with_chaos(ChaosPolicy::from_seed(svc.config.chaos_seed))
        .with_cancel(cancel.clone());
    ctx.memory = gov;
    // Flip the live registry to Running with handles to this query's own
    // instruments — INSPECT renders the span tree from them mid-flight.
    // No-op for solo runs, which are never registered.
    svc.live.mark_running(
        query,
        Arc::clone(&ctx.clock),
        Arc::clone(&ctx.memory),
        ctx.tracer.clone(),
    );
    let catalog = Arc::clone(&svc.catalog.read().expect("catalog lock"));
    let key = spec.cache_key();
    let (phys, plan_cached) = match svc.plan_cache.lookup(&key) {
        Some(p) => (p, true),
        None => {
            let planned = {
                let stats = Box::new(StatsEstimator::new(Rc::new(svc.stats.clone())));
                let cfg = PlannerConfig {
                    memory_rows: svc.config.default_reservation,
                    ..PlannerConfig::default()
                };
                let repo = svc.feedback.read().expect("feedback lock");
                plan(spec, &catalog, &FeedbackEstimator::new(stats, &repo), cfg)
            };
            match planned {
                Ok(p) => {
                    svc.plan_cache.insert(key.clone(), p.clone());
                    (p, false)
                }
                Err(e) => return (Err(e), 0.0, None),
            }
        }
    };
    let fingerprint = phys.fingerprint();
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_plan(&phys, &catalog, None, &ctx)
    }));
    if let Ok(Ok(exec)) = &run {
        learn(exec, &mut svc.feedback.write().expect("feedback lock"), &ctx);
    }
    let demand = ctx.clock.now();
    // Republish span-carried adaptive decisions (chaos injections, governor
    // pressure, POP/LEO corrections) to the flight recorder, keeping their
    // cost-clock positions — this is how per-operator events reach EVENTS
    // tailers without the recorder being threaded through the engine.
    for span in ctx.tracer.spans() {
        for ev in span.events() {
            svc.live.publish_at(ev.at, query, &ev.kind, &ev.detail);
        }
    }
    {
        // Merge the query's spans into the service forest under one root,
        // whatever the outcome — aborted queries leave their partial tree.
        let _merge = svc.trace_merge.lock().expect("trace merge lock");
        let qspan = svc.tracer.open("query", &ctx.clock);
        qspan.set_detail(&format!("q{query} s{session} {fingerprint}"));
        svc.tracer.adopt(&ctx.tracer, Some(qspan.id()));
        qspan.close(&ctx.clock);
    }
    match run {
        Ok(Ok(exec)) => {
            let max_q_error = exec.max_q_error();
            svc.plan_cache.note_execution(&key, max_q_error);
            let outcome = QueryOutcome {
                query,
                session,
                rows: exec.rows,
                cost: demand,
                fingerprint,
                plan_cached,
                max_q_error,
            };
            (Ok(outcome), demand, None)
        }
        Ok(Err(e)) => (Err(e), demand, None),
        Err(payload) => match payload.downcast::<RqpError>() {
            Ok(e) => {
                let e = *e;
                let lat = (e == RqpError::DeadlineExceeded)
                    .then(|| (demand - cancel.deadline()).max(0.0));
                (Err(e), demand, lat)
            }
            Err(other) => std::panic::resume_unwind(other),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rqp_common::expr::{col, lit};
    use rqp_common::{DataType, Schema, Value};
    use rqp_opt::run::{execute, ExecutionMode, PlanInputs};
    use rqp_storage::Table;
    use rqp_workload::{tpch::TpchParams, TpchDb};
    use std::cell::RefCell;

    #[test]
    fn aggregate_q_error_never_evicts_a_cached_plan() {
        // q1's and q3's worst q-errors sit on aggregate and sort nodes, which
        // no feedback corrects: re-planning would rebuild the same plan.
        let db = TpchDb::build(TpchParams { lineitem_rows: 4000, ..Default::default() }, 7);
        let svc = QueryService::new(&db.catalog, ServiceConfig::default());
        for spec in [db.q1(90), db.q3(1, 1200)] {
            assert!(!svc.run_solo(&spec).unwrap().plan_cached);
            let again = svc.run_solo(&spec).unwrap();
            assert!(again.plan_cached, "{} was evicted", again.fingerprint);
        }
        assert_eq!(svc.plan_cache().invalidations(), 0);
    }

    #[test]
    fn the_service_learns_what_leo_learns() {
        // `t.a` and `t.b` are equal, so the independence assumption
        // underestimates their conjunction 10× and the join above inherits it.
        let mut catalog = Catalog::new();
        let schema =
            Schema::from_pairs(&[("a", DataType::Int), ("b", DataType::Int), ("g", DataType::Int)]);
        let mut t = Table::new("t", schema);
        for i in 0..4000i64 {
            t.append(vec![Value::Int(i % 100), Value::Int(i % 100), Value::Int(i % 40)]);
        }
        catalog.add_table(t);
        let mut u = Table::new("u", Schema::from_pairs(&[("g", DataType::Int)]));
        for i in 0..400i64 {
            u.append(vec![Value::Int(i % 40)]);
        }
        catalog.add_table(u);
        let spec = QuerySpec::new()
            .join("t", "g", "u", "g")
            .filter("t", col("t.a").lt(lit(10i64)).and(col("t.b").lt(lit(10i64))));

        let config = ServiceConfig::default();
        let registry = TableStatsRegistry::analyze_catalog(&catalog, 32);
        let repo = RefCell::new(FeedbackRepo::new(1.0));
        let inputs = PlanInputs {
            feedback: Some(&repo),
            config: PlannerConfig { memory_rows: config.default_reservation, ..Default::default() },
            ..PlanInputs::new(&catalog, &registry)
        };
        let leo = execute(&spec, &inputs, ExecutionMode::Leo, &ExecContext::unbounded()).unwrap();
        let join = leo
            .observations
            .iter()
            .find(|o| o.signature.as_deref().is_some_and(|s| s.starts_with("join|")))
            .expect("a metered join");
        let sig = join.signature.as_deref().unwrap();
        let learned = repo.borrow().adjustment(sig).unwrap();
        let raw = (join.actual as f64).max(1.0) / join.estimated.max(1.0);
        assert!(raw > 2.0 * learned, "the join inherits its input's error: {raw} vs {learned}");

        let svc = QueryService::new(&catalog, config);
        let outcome = svc.run_solo(&spec).unwrap();
        assert_eq!(outcome.fingerprint, leo.plan_fingerprint);
        let served = svc.inner.feedback.read().unwrap().adjustment(sig);
        assert_eq!(served, Some(learned), "the service stores LEO's normalised factor");
        let events = svc.stats().recorder().tail(0, usize::MAX).events;
        assert!(events.iter().any(|e| e.kind == "leo.correction"), "{events:?}");
    }

    #[test]
    fn start_up_publishes_its_analyze_time() {
        let mut catalog = Catalog::new();
        let mut t = Table::new("t", Schema::from_pairs(&[("a", DataType::Int)]));
        for i in 0..300i64 {
            t.append(vec![Value::Int(i % 7)]);
        }
        catalog.add_table(t);
        let svc = QueryService::new(&catalog, ServiceConfig::default());
        assert!(svc.metrics().gauge("server.setup.analyze_ms").get() >= 0.0);
        let events = svc.stats().recorder().tail(0, usize::MAX).events;
        let analyze: Vec<_> = events.iter().filter(|e| e.kind == "stats.analyze").collect();
        assert_eq!(analyze.len(), 1, "{events:?}");
        assert_eq!(analyze[0].seq, 0, "the first event of the service's life");
        assert!(analyze[0].detail.starts_with("1 tables 300 rows "), "{}", analyze[0].detail);
    }
}
