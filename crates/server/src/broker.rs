//! Cross-query workspace brokering against a shared memory budget.
//!
//! Every admitted query executes under its **own**
//! [`MemoryGovernor`] — operators inside a query already know how to
//! degrade gracefully when *their* governor shrinks (the pressure-epoch /
//! [`WorkspaceLease::renegotiate`](rqp_exec::WorkspaceLease::renegotiate)
//! machinery). The broker's job is
//! the layer above: it divides the *service's* budget among the running
//! queries and moves each per-query budget as the population changes.
//!
//! * **Admission shrinks grants**: when a new query is admitted, every
//!   running query's fair share drops; the broker calls `set_budget` on
//!   each per-query governor, which bumps its pressure epoch if the query
//!   holds more than the new share — and its sorts/joins shed the overflow
//!   (as spill) at their next output row. No revocation, no blocking:
//!   exactly the "grow & shrink memory" response the FMT test rewards.
//! * **Completion returns them**: when a query finishes, the survivors'
//!   shares grow again (growth needs no renegotiation).
//!
//! The service-wide governor is used as the reservation *ledger*: each
//! query's current share is `grant`ed from it at admission and `release`d at
//! completion, so `outstanding()` on the shared governor always equals the
//! sum of the running queries' budgets — and drops to zero when the service
//! is idle, which the deadline-abort acceptance test checks.

use crate::stats::ServiceStats;
use rqp_exec::MemoryGovernor;
use rqp_storage::BufferPool;
use std::sync::{Arc, Mutex};

#[derive(Debug)]
struct Entry {
    query: u64,
    gov: Arc<MemoryGovernor>,
    /// Current share, as recorded in the shared ledger.
    share: f64,
    /// What the query asked for (its share never exceeds this).
    want: f64,
}

/// Divides a shared workspace budget among running queries (module docs).
#[derive(Debug)]
pub struct MemoryBroker {
    shared: Arc<MemoryGovernor>,
    /// No query's budget falls below this (one page): the same progress
    /// floor the governor's own grants enforce.
    floor: f64,
    running: Mutex<Vec<Entry>>,
    /// Flight-recorder home for `broker.*` events; brokering works the same
    /// with or without one (tests construct bare brokers).
    observer: Option<Arc<ServiceStats>>,
    /// Page pool funded alongside the workspace shares: `(pool, full page
    /// budget)`. The pool's frames are accounted *outside* the workspace
    /// ledger (an idle service still reports `reserved() == 0`); rebalances
    /// shrink the pool as the query population grows, evicting cold pages
    /// and bumping the pool's budget epoch like a workspace-lease shrink.
    pool: Option<(Arc<BufferPool>, usize)>,
}

impl MemoryBroker {
    /// A broker dividing `shared`'s base budget among admitted queries.
    pub fn new(shared: Arc<MemoryGovernor>) -> Self {
        MemoryBroker {
            shared,
            floor: 100.0,
            running: Mutex::new(Vec::new()),
            observer: None,
            pool: None,
        }
    }

    /// Publish `broker.grant` / `broker.shrink` / `broker.epoch` events to
    /// `observer`'s flight recorder on every rebalance.
    pub fn with_observer(mut self, observer: Arc<ServiceStats>) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Fund `pool` from this broker: an idle service leaves it at its full
    /// `pages` budget; each admitted query halves the concurrent working
    /// sets the pool must serve, so its budget becomes
    /// `max(pages / population, pages / 4, 1)` and shrinks evict cold pages
    /// through the pool's own clock sweep (struct docs).
    pub fn with_page_pool(mut self, pool: Arc<BufferPool>, pages: usize) -> Self {
        pool.set_budget(pages.max(1));
        self.pool = Some((pool, pages.max(1)));
        self
    }

    /// The brokered page pool, if one is funded.
    pub fn page_pool(&self) -> Option<&Arc<BufferPool>> {
        self.pool.as_ref().map(|(p, _)| p)
    }

    fn publish(&self, query: u64, kind: &str, detail: &str) {
        if let Some(obs) = &self.observer {
            obs.publish(query, kind, detail);
        }
    }

    /// The shared ledger governor.
    pub fn shared(&self) -> &Arc<MemoryGovernor> {
        &self.shared
    }

    /// Admit `query` with a workspace ask of `want` rows. Returns the
    /// query's private governor, budgeted at `min(want, fair share)`;
    /// every other running query is rebalanced downward (shedding via its
    /// own pressure epoch) to make room.
    pub fn admit(&self, query: u64, want: f64) -> Arc<MemoryGovernor> {
        let mut running = self.running.lock().expect("broker lock");
        let gov = MemoryGovernor::new(0.0);
        running.push(Entry { query, gov: Arc::clone(&gov), share: 0.0, want: want.max(0.0) });
        self.rebalance(&mut running);
        gov
    }

    /// Return `query`'s reservation to the pool and grow the survivors.
    pub fn complete(&self, query: u64) {
        let mut running = self.running.lock().expect("broker lock");
        if let Some(pos) = running.iter().position(|e| e.query == query) {
            let entry = running.remove(pos);
            self.shared.release(entry.share);
        }
        self.rebalance(&mut running);
    }

    /// Sum of the running queries' current shares (ledger `outstanding`).
    pub fn reserved(&self) -> f64 {
        self.shared.outstanding()
    }

    /// Number of queries currently holding reservations.
    pub fn population(&self) -> usize {
        self.running.lock().expect("broker lock").len()
    }

    /// Recompute every entry's share as `min(want, budget/n)` (floored at
    /// one page) and push the change into its governor and the ledger.
    fn rebalance(&self, running: &mut [Entry]) {
        if let Some((pool, full)) = &self.pool {
            // Idle (or single-query) service: the pool keeps its full frame
            // budget. Concurrency shrinks it — floored at a quarter of full
            // so the pager keeps making progress under any MPL.
            let n = running.len().max(1);
            let target = (*full / n).max(*full / 4).max(1);
            if target != pool.budget() {
                let epoch_before = pool.budget_epoch();
                let overcommitted = pool.set_budget(target);
                if pool.budget_epoch() != epoch_before {
                    self.publish(
                        0,
                        "broker.pool_shrink",
                        &format!(
                            "page budget -> {target} (epoch {}{})",
                            pool.budget_epoch(),
                            if overcommitted { ", pins overcommit" } else { "" }
                        ),
                    );
                } else {
                    self.publish(0, "broker.pool_grow", &format!("page budget -> {target}"));
                }
            }
        }
        if running.is_empty() {
            return;
        }
        let fair = self.shared.base_budget() / running.len() as f64;
        for e in running.iter_mut() {
            // Floored at one page even when oversubscribed (fair < floor):
            // the per-query governor would hand out the progress floor
            // anyway, so the reservation covers it honestly and the shared
            // ledger reports the oversubscription as overcommit.
            let target = e.want.min(fair).max(self.floor);
            if (target - e.share).abs() < 1e-9 {
                continue;
            }
            if target > e.share {
                self.shared.grant(target - e.share);
                self.publish(e.query, "broker.grant", &format!("{:.0} -> {target:.0}", e.share));
            } else {
                self.shared.release(e.share - target);
                self.publish(e.query, "broker.shrink", &format!("{:.0} -> {target:.0}", e.share));
            }
            e.share = target;
            // A shrink below what the query currently holds bumps its
            // pressure epoch; its leases shed at the next renegotiation.
            if e.gov.set_budget(target) {
                self.publish(
                    e.query,
                    "broker.epoch",
                    &format!("epoch {} overcommitted", e.gov.pressure_epoch()),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_shrink_on_admission_and_grow_on_completion() {
        let shared = MemoryGovernor::new(10_000.0);
        let broker = MemoryBroker::new(Arc::clone(&shared));
        let g1 = broker.admit(1, 50_000.0);
        assert_eq!(g1.budget(), 10_000.0, "alone, the query gets everything");
        assert_eq!(broker.reserved(), 10_000.0);

        let g2 = broker.admit(2, 50_000.0);
        assert_eq!(g1.budget(), 5_000.0, "admission shrank the running query");
        assert_eq!(g2.budget(), 5_000.0);
        assert_eq!(broker.reserved(), 10_000.0, "ledger conserves the budget");

        broker.complete(2);
        assert_eq!(g1.budget(), 10_000.0, "completion returned the share");
        assert_eq!(broker.reserved(), 10_000.0);
        broker.complete(1);
        assert_eq!(broker.reserved(), 0.0, "idle service holds nothing");
        assert_eq!(broker.population(), 0);
    }

    #[test]
    fn shrink_bumps_the_running_governor_pressure_epoch() {
        let shared = MemoryGovernor::new(10_000.0);
        let broker = MemoryBroker::new(Arc::clone(&shared));
        let g1 = broker.admit(1, 50_000.0);
        // The query materializes a big sort under its full share…
        let held = g1.grant(9_000.0);
        assert_eq!(held, 9_000.0);
        let epoch_before = g1.pressure_epoch();
        // …then a second query is admitted: the share halves, the governor
        // is overcommitted, and the epoch moves so leases renegotiate.
        let _g2 = broker.admit(2, 50_000.0);
        assert_eq!(g1.budget(), 5_000.0);
        assert!(g1.overcommitted());
        assert!(g1.pressure_epoch() > epoch_before);
    }

    #[test]
    fn page_pool_shrinks_with_population_and_stays_off_the_ledger() {
        let shared = MemoryGovernor::new(10_000.0);
        let broker =
            MemoryBroker::new(Arc::clone(&shared)).with_page_pool(BufferPool::new(40), 40);
        let pool = Arc::clone(broker.page_pool().expect("funded"));
        assert_eq!(pool.budget(), 40, "idle service funds the full page budget");
        assert_eq!(broker.reserved(), 0.0, "pool frames are not workspace reservations");

        broker.admit(1, 1_000.0);
        assert_eq!(pool.budget(), 40, "a lone query keeps the full pool");
        let epoch = pool.budget_epoch();
        broker.admit(2, 1_000.0);
        assert_eq!(pool.budget(), 20, "two queries halve the pool");
        assert!(pool.budget_epoch() > epoch, "shrink bumps the budget epoch");
        for q in 3..10 {
            broker.admit(q, 1_000.0);
        }
        assert_eq!(pool.budget(), 10, "floor: a quarter of the full budget");

        for q in 1..10 {
            broker.complete(q);
        }
        assert_eq!(pool.budget(), 40, "idle again: the pool grows back");
        assert_eq!(broker.reserved(), 0.0);
    }

    #[test]
    fn small_asks_leave_room_and_floors_apply() {
        let shared = MemoryGovernor::new(10_000.0);
        let broker = MemoryBroker::new(Arc::clone(&shared));
        let g1 = broker.admit(1, 300.0);
        assert_eq!(g1.budget(), 300.0, "ask below fair share is honored");
        let g2 = broker.admit(2, 50_000.0);
        assert_eq!(g2.budget(), 5_000.0);
        // Heavily oversubscribed: everyone still gets the one-page floor.
        for q in 3..200 {
            broker.admit(q, 50_000.0);
        }
        assert_eq!(g2.budget(), 100.0, "floor keeps queries progressing");
    }
}
