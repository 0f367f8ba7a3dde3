//! Fingerprint-keyed plan cache with feedback-drift invalidation.
//!
//! Re-planning every submission of a repeated query wastes optimizer time —
//! but *never* re-planning is the classic plan-cache robustness hazard: the
//! cached plan was chosen under estimates that execution feedback (LEO) may
//! since have refuted. The cache splits the difference:
//!
//! * entries are keyed by [`QuerySpec::cache_key`](rqp_opt::QuerySpec::cache_key)
//!   (the deterministic query-shape fingerprint) and hold the planned
//!   [`PhysicalPlan`] — plain data, cheap to clone onto a query thread;
//! * after every execution the service reports the plan's observed maximum
//!   q-error over the nodes LEO learns from — filtered scans, index scans
//!   and joins, the nodes with a feedback signature; when it exceeds the
//!   drift threshold the entry is **invalidated**, so the next submission
//!   re-plans under the by-then feedback-corrected estimator instead of
//!   riding the stale plan. Aggregates, sorts, top-N and projections carry
//!   no signature: no feedback moves their estimates, so a re-plan would
//!   only rebuild the same plan, and their q-error never evicts one.
//!
//! That is the LEO loop at service granularity: plan → execute → observe →
//! drift past θ → replan.

use rqp_opt::PhysicalPlan;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Shared plan cache (module docs).
#[derive(Debug)]
pub struct PlanCache {
    drift_threshold: f64,
    entries: Mutex<HashMap<String, PhysicalPlan>>,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
}

impl PlanCache {
    /// A cache that invalidates entries whose executed max node q-error
    /// exceeds `drift_threshold` (clamped to ≥ 1, the perfect-estimate
    /// q-error).
    pub fn new(drift_threshold: f64) -> Self {
        PlanCache {
            drift_threshold: drift_threshold.max(1.0),
            entries: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    /// The q-error ceiling above which entries are invalidated.
    pub fn drift_threshold(&self) -> f64 {
        self.drift_threshold
    }

    /// Cached plan for `key`, counting the hit/miss.
    pub fn lookup(&self, key: &str) -> Option<PhysicalPlan> {
        let cached = self.entries.lock().expect("plan cache lock").get(key).cloned();
        match &cached {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        cached
    }

    /// Insert (or refresh) the plan for `key`.
    pub fn insert(&self, key: String, plan: PhysicalPlan) {
        self.entries.lock().expect("plan cache lock").insert(key, plan);
    }

    /// Report an execution of `key`'s plan with its observed maximum
    /// q-error over learnable nodes. Past the drift threshold the entry is
    /// dropped; returns whether an invalidation happened.
    pub fn note_execution(&self, key: &str, max_q_error: f64) -> bool {
        if max_q_error.is_finite() && max_q_error <= self.drift_threshold {
            return false;
        }
        let removed = self.entries.lock().expect("plan cache lock").remove(key).is_some();
        if removed {
            self.invalidations.fetch_add(1, Ordering::Relaxed);
        }
        removed
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Drift invalidations so far.
    pub fn invalidations(&self) -> u64 {
        self.invalidations.load(Ordering::Relaxed)
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("plan cache lock").len()
    }

    /// True when the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rqp_common::expr::{col, lit};
    use rqp_common::{DataType, Schema, Value};
    use rqp_opt::{plan, PlannerConfig, QuerySpec};
    use rqp_stats::{StatsEstimator, TableStatsRegistry};
    use rqp_storage::{Catalog, Table};
    use std::rc::Rc;

    fn fixture() -> (Catalog, QuerySpec, PhysicalPlan) {
        let mut c = Catalog::new();
        let schema = Schema::from_pairs(&[("k", DataType::Int), ("v", DataType::Int)]);
        let mut t = Table::new("t", schema);
        for i in 0..200 {
            t.append(vec![Value::Int(i), Value::Int(i % 7)]);
        }
        c.add_table(t);
        let reg = Rc::new(TableStatsRegistry::analyze_catalog(&c, 16));
        let est = StatsEstimator::new(reg);
        let spec = QuerySpec::new().table("t").filter("t", col("t.k").lt(lit(50)));
        let p = plan(&spec, &c, &est, PlannerConfig::default()).unwrap();
        (c, spec, p)
    }

    #[test]
    fn hit_miss_and_drift_invalidation() {
        let (_c, spec, p) = fixture();
        let cache = PlanCache::new(4.0);
        let key = spec.cache_key();
        assert!(cache.lookup(&key).is_none());
        assert_eq!(cache.misses(), 1);

        cache.insert(key.clone(), p);
        assert!(cache.lookup(&key).is_some());
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.len(), 1);

        // Mild drift keeps the entry; past the threshold it is dropped.
        assert!(!cache.note_execution(&key, 2.0));
        assert_eq!(cache.len(), 1);
        assert!(cache.note_execution(&key, 8.0));
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.invalidations(), 1);
        assert!(cache.lookup(&key).is_none(), "invalidated entry misses");
        // Re-invalidation of an absent key is a no-op.
        assert!(!cache.note_execution(&key, 100.0));
        assert_eq!(cache.invalidations(), 1);
    }

    #[test]
    fn nan_q_error_invalidates() {
        let (_c, spec, p) = fixture();
        let cache = PlanCache::new(4.0);
        let key = spec.cache_key();
        cache.insert(key.clone(), p);
        // A NaN q-error means the observation itself is broken — treat it
        // as drift rather than silently keeping the plan.
        assert!(cache.note_execution(&key, f64::NAN));
    }
}
