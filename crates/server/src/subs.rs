//! Standing subscriptions: the registry tying delta circuits to the
//! service's admission, brokering and telemetry machinery.
//!
//! A subscription is "a query that never finishes": it is registered once
//! ([`QueryService::subscribe`](crate::QueryService::subscribe) compiles
//! the spec into a [`ViewCircuit`] and folds in the current table contents
//! under the catalog read lock, which excludes appends, so the
//! registration point is an exact changelog epoch), then advanced by
//! *polls* that drain the shared
//! [`Changelog`](rqp_storage::Changelog) through the circuit and emit
//! [`DeltaPacket`](rqp_stream::DeltaPacket)s. The service pieces each subscription touches:
//!
//! * **Identity** — subscriptions draw ids from the same sequence as
//!   queries, so `broker.*` and `sub.*` flight-recorder events share one id
//!   space and `rqp-top` can attribute both.
//! * **Brokering** — each subscription holds a
//!   [`MemoryGovernor`] granted by the
//!   [`MemoryBroker`](crate::MemoryBroker), funded from the circuit's
//!   counted resident entries ([`ViewCircuit::state_rows`]: join-index
//!   rows, groups, MIN/MAX multiset values — not the handful of rows the
//!   view *shows*, nor a base table whose join side the circuit reads
//!   through the catalog's index); registering a subscription shrinks running queries'
//!   shares exactly like admitting a query, and unsubscribing returns the
//!   grant (the teardown suites assert `reserved() == 0`).
//! * **Changelog retention** — the registry knows every live cursor, so
//!   the service trims the changelog below the smallest one after each
//!   poll, append and unsubscribe: the log holds the slowest subscriber's
//!   lag, and nothing when nobody subscribes.
//! * **Admission** — delta propagation competes for the MPL gate: every
//!   poll takes an admission permit at the subscription's priority, so a
//!   storm of deltas cannot starve ad-hoc queries (or vice versa — a
//!   high-priority subscription overtakes queued batch work).
//! * **Cancellation** — the subscription's [`CancelToken`] carries an
//!   optional cost-unit deadline against its own clock; a poll past the
//!   deadline (or after `cancel()`) tears the subscription down and
//!   reports the typed error, leaving no grants behind.

use rqp_common::{CancelToken, SharedClock};
use rqp_exec::MemoryGovernor;
use rqp_opt::QuerySpec;
use rqp_stream::ViewCircuit;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Per-subscription registration options.
#[derive(Debug, Clone, Default)]
pub struct SubscribeOptions {
    /// Admission priority for polls (0 = highest); defaults to the
    /// session's priority.
    pub priority: Option<u8>,
    /// Workspace reservation ask in rows; defaults to the service's
    /// `default_reservation`. The broker caps it at the fair share.
    pub reservation: Option<f64>,
    /// Deadline in cost units on the subscription's own clock: once the
    /// accumulated propagation cost charges past it, the next poll aborts
    /// with `DeadlineExceeded` and the subscription is torn down.
    pub deadline: Option<f64>,
}

impl SubscribeOptions {
    /// Options with a propagation-cost deadline.
    pub fn with_deadline(deadline: f64) -> Self {
        SubscribeOptions { deadline: Some(deadline), ..Default::default() }
    }
}

/// One standing subscription: a compiled circuit plus its service grants.
#[derive(Debug)]
pub struct Subscription {
    /// Service-wide id (drawn from the query-id sequence).
    pub(crate) id: u64,
    /// Owning session.
    pub(crate) session: u64,
    /// Admission priority of this subscription's polls.
    pub(crate) priority: u8,
    /// The delta circuit; locked per poll (polls for one subscription are
    /// serialized, polls for different subscriptions interleave).
    pub(crate) circuit: Mutex<ViewCircuit>,
    /// Propagation cost clock: initial load and every delta charge here.
    pub(crate) clock: SharedClock,
    /// Broker grant backing the circuit's maintained state.
    pub(crate) gov: Arc<MemoryGovernor>,
    /// Cancellation/deadline token checked at every poll.
    pub(crate) cancel: CancelToken,
    /// Total delta rows (inserted + retracted) emitted so far.
    pub(crate) deltas: AtomicU64,
    /// Non-empty packets emitted so far.
    pub(crate) packets: AtomicU64,
    /// The circuit's changelog cursor and resident entries and bytes,
    /// mirrored after every poll so gauges and changelog trimming read them
    /// without waiting on a poll in progress.
    pub(crate) cursor: AtomicU64,
    pub(crate) state_rows: AtomicU64,
    pub(crate) state_bytes: AtomicU64,
}

impl Subscription {
    /// Service-wide subscription id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Owning session id.
    pub fn session(&self) -> u64 {
        self.session
    }

    /// Admission priority of this subscription's polls.
    pub fn priority(&self) -> u8 {
        self.priority
    }

    /// The registered query spec.
    pub fn spec(&self) -> QuerySpec {
        self.circuit.lock().expect("circuit lock").spec().clone()
    }

    /// Total delta rows emitted over the subscription's lifetime.
    pub fn delta_rows(&self) -> u64 {
        self.deltas.load(Ordering::Relaxed)
    }

    /// Non-empty delta packets emitted over the subscription's lifetime.
    pub fn packets(&self) -> u64 {
        self.packets.load(Ordering::Relaxed)
    }

    /// Changelog epochs this subscription has folded in (its cursor), as
    /// of its last completed poll.
    pub fn cursor(&self) -> u64 {
        self.cursor.load(Ordering::SeqCst)
    }

    /// Entries of the circuit's maintained state
    /// ([`ViewCircuit::state_rows`]), as of its last completed poll.
    pub fn state_rows(&self) -> u64 {
        self.state_rows.load(Ordering::Relaxed)
    }

    /// Payload bytes of the circuit's maintained state
    /// ([`ViewCircuit::state_bytes`]), as of its last completed poll.
    pub fn state_bytes(&self) -> u64 {
        self.state_bytes.load(Ordering::Relaxed)
    }

    /// Mirror the circuit's cursor and footprint (called with the circuit
    /// lock held, so mirrors never run ahead of the circuit).
    pub(crate) fn mirror(&self, circuit: &ViewCircuit) {
        self.cursor.store(circuit.cursor(), Ordering::SeqCst);
        self.state_rows.store(circuit.state_rows() as u64, Ordering::Relaxed);
        self.state_bytes.store(circuit.state_bytes() as u64, Ordering::Relaxed);
    }

    /// Propagation cost charged so far (initial load + all polls).
    pub fn cost(&self) -> f64 {
        self.clock.now()
    }

    /// The subscription's cancellation token (cancel it to have the next
    /// poll tear the subscription down).
    pub fn token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// The current maintained view, canonically ordered.
    pub fn view(&self) -> Vec<rqp_common::Row> {
        self.circuit.lock().expect("circuit lock").snapshot()
    }
}

/// The service's subscription table: id → live subscription.
#[derive(Debug, Default)]
pub struct SubscriptionRegistry {
    subs: Mutex<BTreeMap<u64, Arc<Subscription>>>,
}

impl SubscriptionRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        SubscriptionRegistry::default()
    }

    fn table(&self) -> MutexGuard<'_, BTreeMap<u64, Arc<Subscription>>> {
        self.subs.lock().expect("subscription registry lock")
    }

    pub(crate) fn insert(&self, sub: Arc<Subscription>) {
        self.table().insert(sub.id, sub);
    }

    pub(crate) fn remove(&self, id: u64) -> Option<Arc<Subscription>> {
        self.table().remove(&id)
    }

    /// Look up a live subscription.
    pub fn get(&self, id: u64) -> Option<Arc<Subscription>> {
        self.table().get(&id).cloned()
    }

    /// Ids of all live subscriptions, ascending.
    pub fn ids(&self) -> Vec<u64> {
        self.table().keys().copied().collect()
    }

    /// Ids of the live subscriptions owned by `session`, ascending.
    pub fn ids_of_session(&self, session: u64) -> Vec<u64> {
        self.table().values().filter(|s| s.session == session).map(|s| s.id).collect()
    }

    /// Number of live subscriptions.
    pub fn count(&self) -> usize {
        self.table().len()
    }

    /// Total delta rows emitted across all live subscriptions.
    pub fn total_deltas(&self) -> u64 {
        self.table().values().map(|s| s.delta_rows()).sum()
    }

    /// Maintained-state entries across all live subscriptions.
    pub fn total_state_rows(&self) -> u64 {
        self.table().values().map(|s| s.state_rows()).sum()
    }

    /// Payload bytes of maintained state across all live subscriptions.
    pub fn total_state_bytes(&self) -> u64 {
        self.table().values().map(|s| s.state_bytes()).sum()
    }

    /// The smallest cursor among live subscriptions — records below it can
    /// never be asked for again; `None` when nobody subscribes.
    pub fn min_cursor(&self) -> Option<u64> {
        self.table().values().map(|s| s.cursor()).min()
    }

    /// The worst lag (changelog epochs published but not yet folded) across
    /// live subscriptions, given the changelog's current length.
    pub fn max_lag(&self, log_len: u64) -> u64 {
        self.table().values().map(|s| log_len.saturating_sub(s.cursor())).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{QueryService, ServiceConfig};
    use rqp_common::expr::{col, lit};
    use rqp_common::{DataType, RqpError, Schema, Value};
    use rqp_storage::{Catalog, Table};
    use rqp_stream::{canonicalize, ViewCircuit};

    fn service() -> QueryService {
        let mut c = Catalog::new();
        let schema = Schema::from_pairs(&[("k", DataType::Int), ("v", DataType::Int)]);
        let mut t = Table::new("t", schema);
        for i in 0..100i64 {
            t.append(vec![Value::Int(i), Value::Int(i % 7)]);
        }
        c.add_table(t);
        QueryService::new(&c, ServiceConfig { page_budget: None, ..ServiceConfig::default() })
    }

    fn spec() -> rqp_opt::QuerySpec {
        rqp_opt::QuerySpec::new()
            .table("t")
            .filter("t", col("t.v").lt(lit(3i64)))
            .project(&["t.k"])
    }

    #[test]
    fn subscription_view_tracks_appends_and_matches_rerun() {
        let svc = service();
        let id = svc.subscribe(&spec(), SubscribeOptions::default()).unwrap();
        let sub = svc.subscriptions().get(id).expect("registered");
        assert_eq!(sub.view().len(), 44, "initial load absorbed the table");
        assert!(sub.cost() > 0.0, "initial load charged the clock");
        // The load's wall time: one histogram sample, and the event detail.
        assert_eq!(svc.metrics().histogram("server.subs.load_ms").count(), 1);
        let events = svc.stats().recorder().tail(0, usize::MAX).events;
        let register = events.iter().find(|e| e.kind == "sub.register").expect("registered");
        assert!(register.detail.ends_with(" ms"), "{}", register.detail);
        assert!(register.detail.contains(" load "), "{}", register.detail);

        let epoch = svc
            .append_rows(
                "t",
                vec![
                    vec![Value::Int(100), Value::Int(0)],
                    vec![Value::Int(101), Value::Int(6)],
                ],
            )
            .unwrap();
        assert_eq!(epoch, 2);
        assert_eq!(svc.subscriptions().max_lag(svc.changelog().len()), 2);

        let (packet, lag) = svc.poll_subscription(id, 0).unwrap();
        assert_eq!(lag, 0);
        assert_eq!(packet.inserted, vec![vec![Value::Int(100)]], "v=6 filtered out");
        assert!(packet.retracted.is_empty());
        // View-consistency: the maintained view equals re-running the query.
        let rerun = canonicalize(svc.run_solo(&spec()).unwrap().rows);
        assert_eq!(sub.view(), rerun);
        assert_eq!(sub.delta_rows(), 1);

        assert!(svc.unsubscribe(id), "teardown");
        assert!(!svc.unsubscribe(id), "idempotent");
        assert_eq!(svc.subscriptions().count(), 0);
        assert_eq!(svc.reserved(), 0.0, "grant returned");
    }

    /// A service over a small indexed TPC-H catalog, paged, and the q3
    /// view as the benchmark subscribes it.
    fn tpch_service() -> (rqp_workload::TpchDb, QueryService, rqp_opt::QuerySpec) {
        let params = rqp_workload::tpch::TpchParams { lineitem_rows: 2_000, ..Default::default() };
        let db = rqp_workload::TpchDb::build(params, 7);
        let config =
            ServiceConfig { page_budget: Some(64), drift_threshold: 1e9, ..Default::default() };
        let svc = QueryService::new(&db.catalog, config);
        let mut q3 = db.q3(2, 1_250);
        q3.order_by.clear();
        q3.limit = None;
        (db, svc, q3)
    }

    /// A lineitem row whose order exists, as an APPEND brings it.
    fn lineitem(i: i64) -> Vec<Value> {
        let f = |x: f64| Value::Float(x);
        let int = Value::Int;
        vec![
            int(i % 500),
            int(i % 66),
            int(i % 4),
            int(1 + i % 50),
            f(1_000.25),
            f(0.0),
            int(2_000),
            int(0),
        ]
    }

    /// The q3 view reads `orders` and `lineitem` through the catalog's
    /// indexes, names them so in its `sub.register` event, and holds no
    /// handle on either between polls: after 100 APPEND + poll cycles the
    /// served catalog is the only holder of the `lineitem` table and of
    /// `ix_lineitem_orderkey` (the counts read 2: the catalog's handle and
    /// the one this check takes), so an APPEND copies neither on write.
    #[test]
    fn shared_join_sides_hold_no_catalog_handle_between_polls() {
        let (_db, svc, q3) = tpch_service();
        let id = svc.subscribe(&q3, SubscribeOptions::default()).unwrap();
        let events = svc.stats().recorder().tail(0, usize::MAX).events;
        let register = events.iter().find(|e| e.kind == "sub.register").expect("registered");
        let sides = " join shared ix_orders_custkey join shared ix_lineitem_orderkey load ";
        assert!(register.detail.contains(sides), "{}", register.detail);
        for i in 0..100 {
            svc.append_rows("lineitem", vec![lineitem(i)]).unwrap();
            let (_, lag) = svc.poll_subscription(id, 0).unwrap();
            assert_eq!(lag, 0);
        }
        let served = svc.served();
        assert_eq!(Arc::strong_count(&served.table("lineitem").unwrap()), 2);
        assert_eq!(Arc::strong_count(&served.index("ix_lineitem_orderkey").unwrap()), 2);
        assert!(svc.unsubscribe(id));
    }

    /// An index-free catalog's view keeps its own join sides, and names
    /// how many entries each holds.
    #[test]
    fn owned_join_sides_name_their_entries() {
        let params = rqp_workload::tpch::TpchParams {
            lineitem_rows: 2_000,
            with_indexes: false,
            ..Default::default()
        };
        let db = rqp_workload::TpchDb::build(params, 7);
        let svc = QueryService::new(&db.catalog, ServiceConfig::default());
        let mut q3 = db.q3(2, 1_250);
        q3.order_by.clear();
        let id = svc.subscribe(&q3, SubscribeOptions::default()).unwrap();
        let events = svc.stats().recorder().tail(0, usize::MAX).events;
        let register = events.iter().find(|e| e.kind == "sub.register").expect("registered");
        let owned: Vec<&str> = register.detail.split(" join ").skip(1).collect();
        assert_eq!(owned.len(), 2, "{}", register.detail);
        for side in owned {
            let entries = side.split(' ').nth(1).and_then(|n| n.parse::<usize>().ok());
            assert!(side.starts_with("owned ") && entries > Some(0), "{}", register.detail);
        }
        svc.unsubscribe(id);
    }

    /// A Delete on a table the view reads through an index breaks the
    /// append-only invariant: the circuit refuses it, changing nothing,
    /// and the service tears the subscription down — no registry entry,
    /// grant or pin left.
    #[test]
    fn a_delete_on_a_shared_input_tears_the_subscription_down() {
        let (db, svc, q3) = tpch_service();
        let row = db.catalog.table("lineitem").unwrap().row(0);
        let mut circuit = ViewCircuit::compile(&q3, &db.catalog).unwrap();
        let clock = rqp_common::CostClock::default_clock();
        circuit.load_initial(&db.catalog, &clock).unwrap();
        let (view, cost) = (circuit.snapshot(), clock.now());
        let delete = rqp_storage::ChangeRecord {
            epoch: 0,
            table: Arc::from("lineitem"),
            op: rqp_storage::ChangeOp::Delete,
            row: row.clone(),
        };
        let err = circuit.apply(&[delete], &db.catalog, &clock).unwrap_err();
        assert!(matches!(err, RqpError::Invalid(_)), "{err:?}");
        assert_eq!((circuit.snapshot(), clock.now(), circuit.cursor()), (view, cost, 0));

        let id = svc.subscribe(&q3, SubscribeOptions::default()).unwrap();
        svc.append_rows("lineitem", vec![lineitem(1)]).unwrap();
        svc.changelog().publish_delete("lineitem", row);
        assert!(matches!(svc.poll_subscription(id, 0), Err(RqpError::Invalid(_))));
        assert_eq!(svc.subscriptions().count(), 0, "registry empty after the refusal");
        assert_eq!(svc.reserved(), 0.0, "no grant outlives the subscription");
        assert_eq!(svc.pager().expect("a paged service").pins(), 0, "no pins");
        assert!(matches!(svc.poll_subscription(id, 0), Err(RqpError::Invalid(_))), "gone");
    }

    #[test]
    fn append_rejects_unknown_table_and_bad_arity() {
        let svc = service();
        assert!(svc.append_rows("missing", vec![vec![Value::Int(1)]]).is_err());
        assert!(svc.append_rows("t", vec![vec![Value::Int(1)]]).is_err(), "arity 1 != 2");
        assert_eq!(svc.changelog().len(), 0, "nothing published");
    }

    #[test]
    fn deadline_poll_tears_the_subscription_down() {
        let svc = service();
        // The initial load alone exhausts a deadline this small.
        let id = svc.subscribe(&spec(), SubscribeOptions::with_deadline(1e-6)).unwrap();
        svc.append_rows("t", vec![vec![Value::Int(100), Value::Int(0)]]).unwrap();
        assert_eq!(svc.poll_subscription(id, 0).unwrap_err(), RqpError::DeadlineExceeded);
        assert_eq!(svc.subscriptions().count(), 0, "registry empty after deadline");
        assert_eq!(svc.reserved(), 0.0, "no grant outlives the deadline");
        assert!(
            matches!(svc.poll_subscription(id, 0), Err(RqpError::Invalid(_))),
            "polling a torn-down subscription reports unknown id"
        );
    }

    #[test]
    fn cancelled_subscription_is_torn_down_at_next_poll() {
        let svc = service();
        let id = svc.subscribe(&spec(), SubscribeOptions::default()).unwrap();
        svc.subscriptions().get(id).unwrap().token().cancel();
        assert_eq!(svc.poll_subscription(id, 0).unwrap_err(), RqpError::Cancelled);
        assert_eq!(svc.subscriptions().count(), 0);
        assert_eq!(svc.reserved(), 0.0);
    }

    #[test]
    fn shutdown_unsubscribes_everything() {
        let svc = service();
        let s = svc.session(1);
        for _ in 0..3 {
            s.subscribe(&spec(), SubscribeOptions::default()).unwrap();
        }
        assert_eq!(svc.subscriptions().count(), 3);
        assert!(svc.reserved() > 0.0, "subscriptions hold grants while live");
        assert_eq!(svc.shutdown_subscriptions(), 3);
        assert_eq!(svc.subscriptions().count(), 0);
        assert_eq!(svc.reserved(), 0.0);
    }

    #[test]
    fn session_teardown_only_touches_that_sessions_subs() {
        let svc = service();
        let (s1, s2) = (svc.session(1), svc.session(1));
        let a = s1.subscribe(&spec(), SubscribeOptions::default()).unwrap();
        let b = s2.subscribe(&spec(), SubscribeOptions::default()).unwrap();
        assert_eq!(svc.unsubscribe_session(s1.id()), 1);
        assert!(svc.subscriptions().get(a).is_none());
        assert!(svc.subscriptions().get(b).is_some(), "other session untouched");
        svc.shutdown_subscriptions();
    }

    #[test]
    fn partial_polls_report_lag_and_converge() {
        let svc = service();
        let id = svc.subscribe(&spec(), SubscribeOptions::default()).unwrap();
        let rows: Vec<_> = (0..10i64).map(|i| vec![Value::Int(200 + i), Value::Int(0)]).collect();
        svc.append_rows("t", rows).unwrap();
        let (p1, lag1) = svc.poll_subscription(id, 4).unwrap();
        assert_eq!((p1.inserted.len(), lag1), (4, 6), "bounded poll leaves lag");
        let (p2, lag2) = svc.poll_subscription(id, 0).unwrap();
        assert_eq!((p2.inserted.len(), lag2), (6, 0), "unbounded poll drains");
        svc.refresh_live_gauges();
        let m = svc.metrics();
        assert_eq!(m.gauge("server.subs.count").get(), 1.0);
        assert_eq!(m.gauge("server.subs.deltas").get(), 10.0);
        assert_eq!(m.gauge("server.subs.max_lag").get(), 0.0);
        svc.unsubscribe(id);
    }

    /// The service trims the changelog to what a live subscription can
    /// still ask for: with one polling subscriber it never holds more than
    /// that subscriber's lag, with none it holds nothing — and epochs keep
    /// counting (`len()` is the next epoch) whatever was dropped.
    #[test]
    fn changelog_retains_only_live_subscribers_lag() {
        let svc = service();
        let log = svc.changelog();
        let batch = |k: i64| (0..16).map(|i| vec![Value::Int(k * 16 + i), Value::Int(0)]).collect();
        // Nobody subscribes: published, counted, dropped.
        assert_eq!(svc.append_rows("t", batch(0)).unwrap(), 16);
        assert_eq!((log.len(), log.retained()), (16, 0));

        let id = svc.subscribe(&spec(), SubscribeOptions::default()).unwrap();
        let sub = svc.subscriptions().get(id).unwrap();
        let mut seen = 0;
        for k in 1..=625 {
            let epoch = svc.append_rows("t", batch(k)).unwrap();
            assert_eq!(epoch, 16 * (k as u64 + 1), "epochs stay dense and monotone");
            // Drain 12 of every 16: the subscriber falls steadily behind.
            let (packet, lag) = svc.poll_subscription(id, 12).unwrap();
            seen += packet.inserted.len();
            assert_eq!(lag, log.len() - sub.cursor());
            assert_eq!(log.retained() as u64, lag, "the log holds exactly the lag");
        }
        assert_eq!(log.len(), 16 + 10_000);
        // Everything retained is still readable, in order, exactly once.
        let (packet, lag) = svc.poll_subscription(id, 0).unwrap();
        assert_eq!((seen + packet.inserted.len(), lag, log.retained()), (10_000, 0, 0));
        // A second, idle subscriber pins the tail; its teardown releases it.
        let idle = svc.subscribe(&spec(), SubscribeOptions::default()).unwrap();
        svc.append_rows("t", batch(626)).unwrap();
        svc.poll_subscription(id, 0).unwrap();
        assert_eq!(log.retained(), 16, "held for the subscriber that has not polled");
        assert!(svc.unsubscribe(idle));
        assert_eq!(log.retained(), 0);
        assert!(svc.unsubscribe(id));
        svc.append_rows("t", batch(627)).unwrap();
        assert_eq!((log.len(), log.retained()), (16 * 628, 0));
        assert_eq!(svc.reserved(), 0.0);
    }
}
