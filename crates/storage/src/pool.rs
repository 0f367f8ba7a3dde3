//! The paged buffer pool: fixed-size pages over column data, pin/unpin
//! accounting, and clock (second-chance) eviction.
//!
//! The testbed's tables stay physically resident (this is a simulator), but
//! *logically* every scan must now pin the page it reads through a
//! [`BufferPool`] whose frame budget is a brokered resource. The pool tracks
//! residency per `(table, page)` key, evicts with the classic clock sweep,
//! and charges the deterministic cost clock for exactly the work a real
//! pager would add:
//!
//! * a **hit** (page resident) charges nothing — the scan's own sequential
//!   page charge already covers the read;
//! * a **cold load** (first-ever fault of a page) also charges nothing
//!   extra, because that first read *is* the sequential read the scan
//!   charged — this is what keeps paged execution bit-identical to the
//!   pre-pool engine whenever the budget covers the data;
//! * a **re-fault** (reloading a page that was evicted) charges one random
//!   page — the only cost the pool ever adds, so constraining the budget
//!   degrades cost smoothly and measurably;
//! * an injected **page-I/O fault** (chaos `page_io_fault`, keyed by the
//!   absolute page index so it is worker-count invariant) charges one random
//!   page per retry and escalates to a fatal error past the retry budget.
//!
//! Pins are released by [`PagePin`]'s `Drop`, so early termination, cancel,
//! and disconnect paths cannot leak them; a pool whose frames are all pinned
//! when a new page faults surfaces [`RqpError::PageBudgetExhausted`] — a
//! typed, non-retryable error, never a panic from the pool itself.

use rqp_common::{rule, ChaosPolicy, Result, RqpError, SharedClock};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Identity of one logical page: the table's stable FNV key (survives
/// catalog snapshots rebuilding `Table` handles) plus the absolute page
/// index within the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PageKey {
    /// Stable table key ([`ChaosPolicy::table_key`] of the name).
    pub table: u64,
    /// Absolute page index (`row / rows_per_page`).
    pub page: u64,
}

/// Per-frame state: pin count plus the clock sweep's reference bit.
#[derive(Debug)]
struct FrameState {
    pins: u32,
    referenced: bool,
}

#[derive(Debug)]
struct PoolInner {
    /// Frame budget (resident-page capacity), always ≥ 1.
    budget: usize,
    /// Resident pages.
    frames: HashMap<PageKey, FrameState>,
    /// Clock order over resident pages; kept in sync with `frames`.
    ring: Vec<PageKey>,
    /// Clock hand: index into `ring` of the next sweep candidate.
    hand: usize,
    /// Every page ever loaded — distinguishes cold loads from re-faults.
    ever_loaded: HashSet<PageKey>,
    /// Per-table eviction epochs; bumped whenever one of the table's pages
    /// is evicted, so derived structures (the memoized `StrEncoding`) can
    /// invalidate coherently.
    table_epochs: HashMap<u64, u64>,
}

/// Counter snapshot of a pool's activity since construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PagerStats {
    /// Pins that found the page resident.
    pub hits: u64,
    /// First-ever page loads (free: covered by the scan's own charge).
    pub cold_loads: u64,
    /// Reloads of previously evicted pages (each charged one random page).
    pub refaults: u64,
    /// Pages evicted by the clock sweep (pressure or budget shrink).
    pub evictions: u64,
    /// Injected page-I/O faults retried (each charged one random page).
    pub io_retries: u64,
    /// Frames dropped by targeted invalidation (an append mutated the
    /// page); not evictions — the table's epoch is deliberately untouched.
    pub invalidations: u64,
}

impl PagerStats {
    /// Total page loads — cold loads plus re-faults.
    pub fn faults(&self) -> u64 {
        self.cold_loads + self.refaults
    }

    /// Fraction of pins served from resident frames; 1.0 when idle.
    pub fn hit_rate(&self) -> f64 {
        let accesses = self.hits + self.faults();
        if accesses == 0 {
            1.0
        } else {
            self.hits as f64 / accesses as f64
        }
    }
}

/// What one [`BufferPool::pin`] call did, for the caller's telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PinOutcome {
    /// The page was already resident.
    pub hit: bool,
    /// The load was a re-fault of an evicted page (one random page charged).
    pub refault: bool,
    /// Injected page-I/O faults retried before the load succeeded.
    pub retries: u32,
}

/// The shared buffer pool. See the module docs for the charging contract.
#[derive(Debug)]
pub struct BufferPool {
    inner: Mutex<PoolInner>,
    hits: AtomicU64,
    cold_loads: AtomicU64,
    refaults: AtomicU64,
    evictions: AtomicU64,
    io_retries: AtomicU64,
    invalidations: AtomicU64,
    /// Budget epoch: bumped on every shrink, like the memory governor's
    /// pressure epoch, so consumers can renegotiate mid-drain.
    epoch: AtomicU64,
}

impl BufferPool {
    /// A pool with a frame budget of `pages` (clamped to at least one frame
    /// so a lone scan can always make progress).
    pub fn new(pages: usize) -> Arc<BufferPool> {
        Arc::new(BufferPool {
            inner: Mutex::new(PoolInner {
                budget: pages.max(1),
                frames: HashMap::new(),
                ring: Vec::new(),
                hand: 0,
                ever_loaded: HashSet::new(),
                table_epochs: HashMap::new(),
            }),
            hits: AtomicU64::new(0),
            cold_loads: AtomicU64::new(0),
            refaults: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            io_retries: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            epoch: AtomicU64::new(0),
        })
    }

    /// Pin `page` of `table`, faulting it in if necessary. Charges `clock`
    /// per the module-level contract and draws injected page-I/O faults from
    /// `chaos`. The returned [`PagePin`] releases the pin on drop.
    ///
    /// Errors: [`RqpError::PageBudgetExhausted`] when every frame is pinned
    /// and none can be evicted, or a fatal [`RqpError::Execution`] when the
    /// chaos retry budget is exhausted.
    pub fn pin(
        self: &Arc<Self>,
        table: &str,
        page: u64,
        clock: &SharedClock,
        chaos: &ChaosPolicy,
    ) -> Result<(PagePin, PinOutcome)> {
        let key = PageKey { table: ChaosPolicy::table_key(table), page };
        let mut inner = self.inner.lock().unwrap();
        if let Some(frame) = inner.frames.get_mut(&key) {
            frame.pins += 1;
            frame.referenced = true;
            self.hits.fetch_add(1, Ordering::Relaxed);
            let pin = PagePin { pool: Arc::clone(self), key };
            return Ok((pin, PinOutcome { hit: true, refault: false, retries: 0 }));
        }
        // Make room: evict until a frame is free, or report exhaustion if
        // everything resident is pinned.
        while inner.frames.len() >= inner.budget {
            match evict_one(&mut inner) {
                Some(victim) => {
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                    *inner.table_epochs.entry(victim.table).or_insert(0) += 1;
                }
                None => {
                    let pinned = inner.frames.values().filter(|f| f.pins > 0).count();
                    return Err(RqpError::PageBudgetExhausted { pinned, budget: inner.budget });
                }
            }
        }
        // Injected transient page-I/O faults: keyed by the absolute page
        // index and the attempt number, so the retry trace is invariant
        // under worker count and partitioning.
        let mut retries = 0u32;
        while chaos.page_io_fault(key.table, page, retries) {
            let err = RqpError::PageIo { site: format!("{table}/{page}"), attempt: retries };
            if retries >= chaos.page_max_retries() {
                return Err(RqpError::Execution(format!("page retries exhausted: {err}")));
            }
            debug_assert!(err.is_retryable());
            retries += 1;
            clock.charge(&rule::random_pages(1.0));
            self.io_retries.fetch_add(1, Ordering::Relaxed);
        }
        // The load: a cold load is the read the scan already charged; a
        // re-fault re-reads an evicted page and charges one random page.
        let refault = !inner.ever_loaded.insert(key);
        if refault {
            clock.charge(&rule::random_pages(1.0));
            self.refaults.fetch_add(1, Ordering::Relaxed);
        } else {
            self.cold_loads.fetch_add(1, Ordering::Relaxed);
        }
        inner.frames.insert(key, FrameState { pins: 1, referenced: true });
        inner.ring.push(key);
        let pin = PagePin { pool: Arc::clone(self), key };
        Ok((pin, PinOutcome { hit: false, refault, retries }))
    }

    /// Retarget the frame budget (clamped to ≥ 1). A shrink bumps the
    /// budget epoch and evicts cold pages down to the new budget; pinned
    /// pages are never evicted. Returns `true` when pinned pages alone
    /// exceed the new budget — the pool is overcommitted until pins drop.
    pub fn set_budget(&self, pages: usize) -> bool {
        let mut inner = self.inner.lock().unwrap();
        let pages = pages.max(1);
        if pages < inner.budget {
            self.epoch.fetch_add(1, Ordering::Relaxed);
        }
        inner.budget = pages;
        while inner.frames.len() > inner.budget {
            match evict_one(&mut inner) {
                Some(victim) => {
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                    *inner.table_epochs.entry(victim.table).or_insert(0) += 1;
                }
                None => break,
            }
        }
        inner.frames.len() > inner.budget
    }

    /// Current frame budget.
    pub fn budget(&self) -> usize {
        self.inner.lock().unwrap().budget
    }

    /// Total outstanding pins across all frames.
    pub fn pins(&self) -> usize {
        self.inner.lock().unwrap().frames.values().map(|f| f.pins as usize).sum()
    }

    /// Resident pages.
    pub fn resident(&self) -> usize {
        self.inner.lock().unwrap().frames.len()
    }

    /// Budget epoch: bumped on every shrink (cf. the governor's pressure
    /// epoch).
    pub fn budget_epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Eviction epoch of one table (by its stable key): bumped every time a
    /// page of that table is evicted. The memoized `StrEncoding` tags itself
    /// with this and rebuilds when it moves.
    pub fn evict_epoch(&self, table_key: u64) -> u64 {
        self.inner.lock().unwrap().table_epochs.get(&table_key).copied().unwrap_or(0)
    }

    /// Snapshot of the activity counters.
    pub fn stats(&self) -> PagerStats {
        PagerStats {
            hits: self.hits.load(Ordering::Relaxed),
            cold_loads: self.cold_loads.load(Ordering::Relaxed),
            refaults: self.refaults.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            io_retries: self.io_retries.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
        }
    }

    /// Drop the resident frame for one page of one table because the page's
    /// content changed (an append landed in it). This is *not* an eviction:
    /// the table's eviction epoch is untouched (the memoized `StrEncoding`
    /// extends itself incrementally and must not see a spurious epoch bump),
    /// no eviction is counted, and every other frame — including unrelated
    /// tables' cold pages — keeps its place in the clock ring. The page
    /// stays in `ever_loaded`, so the next pin charges an honest re-fault
    /// for re-reading the mutated page. A pinned frame is left alone (the
    /// reader keeps its snapshot); returns whether a frame was dropped.
    pub fn invalidate_page(&self, table_key: u64, page: u64) -> bool {
        let key = PageKey { table: table_key, page };
        let mut inner = self.inner.lock().unwrap();
        match inner.frames.get(&key) {
            Some(frame) if frame.pins == 0 => {
                inner.frames.remove(&key);
                let pos = inner.ring.iter().position(|k| *k == key).expect("ring in sync");
                inner.ring.remove(pos);
                if pos < inner.hand {
                    inner.hand -= 1;
                }
                self.invalidations.fetch_add(1, Ordering::Relaxed);
                true
            }
            _ => false,
        }
    }
}

/// Clock (second-chance) sweep: skip pinned frames, clear reference bits on
/// the first pass, evict the first unreferenced unpinned frame. `None` when
/// every frame is pinned.
fn evict_one(inner: &mut PoolInner) -> Option<PageKey> {
    if inner.ring.is_empty() {
        return None;
    }
    // Two full revolutions bound the sweep: the first clears every
    // reference bit, the second must find any unpinned frame.
    let max_steps = inner.ring.len() * 2;
    for _ in 0..max_steps {
        if inner.hand >= inner.ring.len() {
            inner.hand = 0;
        }
        let key = inner.ring[inner.hand];
        let frame = inner.frames.get_mut(&key).expect("ring and frames in sync");
        if frame.pins > 0 {
            inner.hand += 1;
        } else if frame.referenced {
            frame.referenced = false;
            inner.hand += 1;
        } else {
            inner.frames.remove(&key);
            inner.ring.remove(inner.hand);
            return Some(key);
        }
    }
    None
}

/// A held pin on one page. Dropping it releases the pin — scans hold their
/// current page's pin in a field, so early termination, cancellation, and
/// disconnect all release through ordinary unwinding.
#[derive(Debug)]
pub struct PagePin {
    pool: Arc<BufferPool>,
    key: PageKey,
}

impl PagePin {
    /// The pinned page's key.
    pub fn key(&self) -> PageKey {
        self.key
    }
}

impl Drop for PagePin {
    fn drop(&mut self) {
        let mut inner = self.pool.inner.lock().unwrap();
        if let Some(frame) = inner.frames.get_mut(&self.key) {
            debug_assert!(frame.pins > 0, "double-release of a page pin");
            frame.pins = frame.pins.saturating_sub(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rqp_common::{ChaosConfig, CostClock};

    fn pin_n(
        pool: &Arc<BufferPool>,
        pages: std::ops::Range<u64>,
        clock: &SharedClock,
    ) -> Vec<PagePin> {
        let off = ChaosPolicy::off();
        pages
            .map(|p| pool.pin("t", p, clock, &off).expect("pin").0)
            .collect()
    }

    #[test]
    fn hits_and_cold_loads_charge_nothing() {
        let pool = BufferPool::new(8);
        let clock = CostClock::default_clock();
        let off = ChaosPolicy::off();
        for p in 0..8 {
            let (pin, out) = pool.pin("t", p, &clock, &off).unwrap();
            assert!(!out.hit && !out.refault && out.retries == 0);
            drop(pin);
        }
        let (_pin, out) = pool.pin("t", 3, &clock, &off).unwrap();
        assert!(out.hit);
        assert_eq!(clock.now(), 0.0, "hits and cold loads are free");
        let s = pool.stats();
        assert_eq!((s.hits, s.cold_loads, s.refaults, s.evictions), (1, 8, 0, 0));
        assert_eq!(s.hit_rate(), 1.0 / 9.0);
    }

    #[test]
    fn refaults_charge_one_random_page_and_bump_the_table_epoch() {
        let pool = BufferPool::new(2);
        let clock = CostClock::default_clock();
        let off = ChaosPolicy::off();
        let tk = ChaosPolicy::table_key("t");
        // Load 0, 1; loading 2 evicts; re-pinning the victim re-faults.
        for p in 0..3 {
            drop(pool.pin("t", p, &clock, &off).unwrap());
        }
        assert_eq!(pool.resident(), 2);
        assert_eq!(pool.stats().evictions, 1);
        assert!(pool.evict_epoch(tk) >= 1);
        assert_eq!(clock.breakdown().rand_io, 0.0, "cold loads are free");
        // Page 0 was the clock victim (oldest, unreferenced after sweep).
        let before = clock.breakdown().rand_io;
        let (_pin, out) = pool.pin("t", 0, &clock, &off).unwrap();
        assert!(out.refault);
        assert!(clock.breakdown().rand_io > before, "re-fault charges a random page");
        assert_eq!(pool.stats().refaults, 1);
    }

    #[test]
    fn pinned_frames_survive_the_sweep_and_exhaust_typed() {
        let pool = BufferPool::new(2);
        let clock = CostClock::default_clock();
        let held = pin_n(&pool, 0..2, &clock);
        assert_eq!(pool.pins(), 2);
        let off = ChaosPolicy::off();
        let err = pool.pin("t", 9, &clock, &off).unwrap_err();
        assert_eq!(err, RqpError::PageBudgetExhausted { pinned: 2, budget: 2 });
        assert!(!err.is_retryable());
        drop(held);
        assert_eq!(pool.pins(), 0);
        // With the pins released the same pin now succeeds by evicting.
        assert!(pool.pin("t", 9, &clock, &off).is_ok());
    }

    #[test]
    fn clock_sweep_gives_referenced_pages_a_second_chance() {
        let pool = BufferPool::new(3);
        let clock = CostClock::default_clock();
        let off = ChaosPolicy::off();
        for p in 0..3 {
            drop(pool.pin("t", p, &clock, &off).unwrap());
        }
        // Fresh loads all carry set reference bits, so the first pressure
        // sweep clears every bit and evicts the ring head (page 0)…
        drop(pool.pin("t", 3, &clock, &off).unwrap());
        assert_eq!(pool.stats().evictions, 1);
        assert!(pool.pin("t", 1, &clock, &off).unwrap().1.hit, "1 survived");
        // …which also re-referenced page 1. Page 2's bit is still clear, so
        // the next eviction gives 1 its second chance and takes 2 instead.
        drop(pool.pin("t", 4, &clock, &off).unwrap());
        assert_eq!(pool.stats().evictions, 2);
        assert!(pool.pin("t", 1, &clock, &off).unwrap().1.hit, "referenced page survived");
        assert!(pool.pin("t", 3, &clock, &off).unwrap().1.hit, "recent load survived");
        assert!(pool.pin("t", 2, &clock, &off).unwrap().1.refault, "unreferenced page evicted");
    }

    #[test]
    fn shrink_evicts_cold_pages_bumps_epoch_and_reports_overcommit() {
        let pool = BufferPool::new(4);
        let clock = CostClock::default_clock();
        let held = pin_n(&pool, 0..2, &clock);
        let _cold = pin_n(&pool, 2..4, &clock); // dropped immediately below
        drop(_cold);
        assert_eq!(pool.resident(), 4);
        let e0 = pool.budget_epoch();
        // Shrink to 3: one cold page goes, no overcommit.
        assert!(!pool.set_budget(3));
        assert_eq!(pool.resident(), 3);
        assert!(pool.budget_epoch() > e0, "shrink bumps the epoch");
        // Shrink to 1: only the two pinned pages remain — overcommitted.
        assert!(pool.set_budget(1));
        assert_eq!(pool.resident(), 2);
        assert_eq!(pool.pins(), 2);
        // Growing back is not an epoch bump and reports no overcommit.
        let e1 = pool.budget_epoch();
        assert!(!pool.set_budget(8));
        assert_eq!(pool.budget_epoch(), e1);
        drop(held);
    }

    #[test]
    fn chaos_page_faults_retry_with_charges_and_escalate_past_budget() {
        let clock = CostClock::default_clock();
        // Rate 1.0: every attempt faults, so the retry budget must exhaust
        // with one random-page charge per retry burned on the way.
        let always = ChaosPolicy::new(ChaosConfig {
            page_fault_rate: 1.0,
            page_max_retries: 3,
            ..ChaosConfig::off()
        });
        let pool = BufferPool::new(4);
        let err = pool.pin("t", 0, &clock, &always).unwrap_err();
        assert!(matches!(err, RqpError::Execution(ref m) if m.contains("page retries exhausted")));
        assert_eq!(pool.stats().io_retries, 3);
        assert!(clock.breakdown().rand_io > 0.0);
        // A moderate rate recovers: some page loads see a fault on attempt 0
        // and succeed on a redraw.
        let sometimes = ChaosPolicy::new(ChaosConfig {
            page_fault_rate: 0.4,
            page_max_retries: 8,
            ..ChaosConfig::off()
        });
        let pool = BufferPool::new(64);
        let mut retried = 0;
        for p in 0..50 {
            let (_pin, out) = pool.pin("t", p, &clock, &sometimes).expect("retries recover");
            retried += out.retries;
        }
        assert!(retried > 0, "40% fault rate must retry somewhere");
        assert_eq!(pool.stats().io_retries as u32, retried);
    }

    #[test]
    fn invalidate_page_drops_one_frame_without_epoch_or_eviction() {
        let pool = BufferPool::new(4);
        let clock = CostClock::default_clock();
        let off = ChaosPolicy::off();
        let tk = ChaosPolicy::table_key("t");
        for p in 0..3 {
            drop(pool.pin("t", p, &clock, &off).unwrap());
        }
        // Dropping a resident unpinned frame: counted as an invalidation,
        // not an eviction, and the table epoch holds.
        assert!(pool.invalidate_page(tk, 1));
        let s = pool.stats();
        assert_eq!((s.invalidations, s.evictions), (1, 0));
        assert_eq!(pool.evict_epoch(tk), 0);
        assert_eq!(pool.resident(), 2);
        // Not resident (already dropped, or never loaded): no-op.
        assert!(!pool.invalidate_page(tk, 1));
        assert!(!pool.invalidate_page(tk, 99));
        // A pinned frame is left alone — the reader keeps its snapshot.
        let (held, _) = pool.pin("t", 0, &clock, &off).unwrap();
        assert!(!pool.invalidate_page(tk, 0));
        assert_eq!(pool.resident(), 2);
        drop(held);
        // Re-pinning the invalidated page charges an honest re-fault.
        let (_pin, out) = pool.pin("t", 1, &clock, &off).unwrap();
        assert!(out.refault);
        // The clock ring stays coherent: pressure eviction still works.
        for p in 10..16 {
            drop(pool.pin("t", p, &clock, &off).unwrap());
        }
        assert_eq!(pool.resident(), 4);
        assert!(pool.stats().evictions > 0);
    }

    #[test]
    fn pins_are_reentrant_and_drop_releases_in_any_order() {
        let pool = BufferPool::new(2);
        let clock = CostClock::default_clock();
        let off = ChaosPolicy::off();
        let a = pool.pin("t", 0, &clock, &off).unwrap().0;
        let b = pool.pin("t", 0, &clock, &off).unwrap().0;
        assert_eq!(pool.pins(), 2);
        assert_eq!(a.key(), b.key());
        drop(a);
        assert_eq!(pool.pins(), 1);
        drop(b);
        assert_eq!(pool.pins(), 0);
    }
}
