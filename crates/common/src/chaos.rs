//! Deterministic, seeded fault injection — the "chaos governor".
//!
//! The seminar's resource-robustness sessions (FMT's fluctuating memory,
//! FPT's fluctuating parallelism) demand an engine whose performance degrades
//! *smoothly* when the environment misbehaves mid-query. To measure that, the
//! testbed needs faults it can inject on purpose: memory-budget shocks,
//! exchange-worker panics and stalls, transient scan errors.
//!
//! Determinism is the design center, exactly as for the cost clock: every
//! injection decision is a **pure hash** of `(seed, site, keys)` — never of
//! wall-clock time, thread scheduling, or call order. The keys are chosen to
//! be schedule-independent (a scan keys on the *absolute page index*, a
//! worker fault on the *worker index and attempt number*), so a run with a
//! fixed chaos seed and worker count reproduces bit-for-bit, and page-keyed
//! decisions don't even depend on how a table is partitioned across workers.
//!
//! A disabled policy ([`ChaosPolicy::off`], the default on every
//! `ExecContext`) makes every decision a constant `None`/`false`, so
//! chaos-off runs are byte-identical to builds that predate this module.

use crate::error::RqpError;
use std::sync::Once;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    h
}

/// Tuning knobs for a [`ChaosPolicy`]. All rates are probabilities in
/// `[0, 1]`; a rate of zero disables that fault class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosConfig {
    /// Seed every injection decision is derived from.
    pub seed: u64,
    /// Probability that reading a scan page raises a transient I/O error.
    pub scan_fault_rate: f64,
    /// Transient-error retries a scan may burn before escalating to fatal.
    pub scan_max_retries: u32,
    /// Probability that a scan page boundary delivers a memory shock
    /// (budget shrink or restore) to the governor.
    pub shock_rate: f64,
    /// Probability that an exchange worker panics at startup.
    pub worker_panic_rate: f64,
    /// Probability that an exchange worker stalls (extra I/O) at startup.
    pub worker_stall_rate: f64,
    /// Sequential pages a stalled worker charges before proceeding.
    pub worker_stall_pages: f64,
    /// Times the exchange re-runs a lost partition before giving up.
    pub worker_max_retries: u32,
    /// Probability that faulting a page into the buffer pool raises a
    /// transient page-I/O error.
    pub page_fault_rate: f64,
    /// Page-I/O retries the pager may burn before escalating to fatal.
    pub page_max_retries: u32,
}

impl ChaosConfig {
    /// The disabled configuration: every rate zero.
    pub fn off() -> Self {
        ChaosConfig {
            seed: 0,
            scan_fault_rate: 0.0,
            scan_max_retries: 8,
            shock_rate: 0.0,
            worker_panic_rate: 0.0,
            worker_stall_rate: 0.0,
            worker_stall_pages: 16.0,
            worker_max_retries: 4,
            page_fault_rate: 0.0,
            page_max_retries: 8,
        }
    }

    /// A moderate default fault mix for the given seed: the profile the
    /// `RQP_CHAOS_SEED` CI leg and the chaos test-suite run under.
    pub fn standard(seed: u64) -> Self {
        ChaosConfig {
            seed,
            scan_fault_rate: 0.05,
            scan_max_retries: 8,
            shock_rate: 0.02,
            worker_panic_rate: 0.2,
            worker_stall_rate: 0.2,
            worker_stall_pages: 16.0,
            worker_max_retries: 4,
            page_fault_rate: 0.05,
            page_max_retries: 8,
        }
    }
}

/// What an injected worker fault does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WorkerFault {
    /// The worker panics before producing anything.
    Panic,
    /// The worker charges this many extra sequential pages, then proceeds.
    Stall(f64),
}

/// Payload of an injected worker panic. The exchange downcasts join-handle
/// errors to this (or to an escalated [`RqpError`]) to distinguish injected
/// faults — which it retries — from genuine bugs, which it re-raises.
#[derive(Debug, Clone, Copy)]
pub struct ChaosPanic {
    /// Worker index the panic was injected into.
    pub worker: usize,
    /// Attempt number (0 = first execution, n = nth retry).
    pub attempt: u32,
}

/// The fault-injection policy carried by `ExecContext`.
///
/// Every decision method is a pure function of the config seed and the
/// caller-supplied site keys; the policy holds no mutable state.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosPolicy {
    cfg: ChaosConfig,
    enabled: bool,
}

impl ChaosPolicy {
    /// A policy injecting faults per `cfg`.
    pub fn new(cfg: ChaosConfig) -> Self {
        let enabled = cfg.scan_fault_rate > 0.0
            || cfg.shock_rate > 0.0
            || cfg.worker_panic_rate > 0.0
            || cfg.worker_stall_rate > 0.0
            || cfg.page_fault_rate > 0.0;
        ChaosPolicy { cfg, enabled }
    }

    /// The disabled policy: never injects anything.
    pub fn off() -> Self {
        ChaosPolicy::new(ChaosConfig::off())
    }

    /// The standard fault mix under the given seed.
    pub fn seeded(seed: u64) -> Self {
        ChaosPolicy::new(ChaosConfig::standard(seed))
    }

    /// The standard mix under `seed`, or the disabled policy for `None` —
    /// the shape [`crate::EngineConfig::chaos_seed`] carries.
    pub fn from_seed(seed: Option<u64>) -> Self {
        seed.map_or_else(ChaosPolicy::off, ChaosPolicy::seeded)
    }

    /// Whether any fault class has a non-zero rate. Operators check this
    /// once and skip their injection points entirely when false.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The policy's configuration.
    pub fn config(&self) -> &ChaosConfig {
        &self.cfg
    }

    /// A uniform draw in `[0, 1)` that is a pure function of
    /// `(seed, site, keys)`.
    fn draw(&self, site: &str, keys: &[u64]) -> f64 {
        let mut h = fnv1a(FNV_OFFSET ^ self.cfg.seed.rotate_left(23), site.as_bytes());
        for k in keys {
            h = fnv1a(h, &k.to_le_bytes());
        }
        // Top 53 bits as a dyadic fraction: exact in an f64.
        (h >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Should reading `page` of `table` raise a transient I/O error on this
    /// `attempt`? Keyed by the absolute page index, so the decision is the
    /// same no matter how the table is partitioned across workers.
    pub fn scan_fault(&self, table: &str, page: u64, attempt: u32) -> bool {
        self.enabled
            && self.cfg.scan_fault_rate > 0.0
            && self.draw("scan_fault", &[fnv1a(FNV_OFFSET, table.as_bytes()), page, u64::from(attempt)])
                < self.cfg.scan_fault_rate
    }

    /// Transient-error retries a scan may burn before escalating to fatal.
    pub fn scan_max_retries(&self) -> u32 {
        self.cfg.scan_max_retries
    }

    /// Should faulting `page` of the table keyed `table_key` into the buffer
    /// pool raise a transient page-I/O error on this `attempt`? Keyed by the
    /// absolute page index (like [`scan_fault`](Self::scan_fault)), so the
    /// decision is invariant under worker count and partitioning.
    pub fn page_io_fault(&self, table_key: u64, page: u64, attempt: u32) -> bool {
        self.enabled
            && self.cfg.page_fault_rate > 0.0
            && self.draw("page_io_fault", &[table_key, page, u64::from(attempt)])
                < self.cfg.page_fault_rate
    }

    /// Page-I/O retries the pager may burn before escalating to fatal.
    pub fn page_max_retries(&self) -> u32 {
        self.cfg.page_max_retries
    }

    /// The stable chaos/pool key of a table name: FNV-1a of the bytes. Both
    /// the pager and the chaos policy key pages by `(table_key, page)` so
    /// decisions survive catalog snapshots rebuilding `Table` handles.
    pub fn table_key(table: &str) -> u64 {
        fnv1a(FNV_OFFSET, table.as_bytes())
    }

    /// Memory shock at `page` of `table`: `Some(fraction)` shrinks the
    /// budget to `fraction × base` (monotone — shocks only tighten), and
    /// `Some(1.0)` restores the base budget (the "grow" half of FMT).
    pub fn memory_shock(&self, table: &str, page: u64) -> Option<f64> {
        if !self.enabled || self.cfg.shock_rate <= 0.0 {
            return None;
        }
        let key = fnv1a(FNV_OFFSET, table.as_bytes());
        if self.draw("memory_shock", &[key, page]) >= self.cfg.shock_rate {
            return None;
        }
        // Which shock: mostly shrinks of varying depth, sometimes a restore.
        const FRACTIONS: [f64; 4] = [0.5, 0.25, 0.125, 1.0];
        let pick = (self.draw("shock_fraction", &[key, page]) * FRACTIONS.len() as f64) as usize;
        Some(FRACTIONS[pick.min(FRACTIONS.len() - 1)])
    }

    /// Fault injected into exchange `worker` on `attempt` (0 = the original
    /// execution, 1.. = retries of a lost partition).
    pub fn worker_fault(&self, worker: usize, attempt: u32) -> Option<WorkerFault> {
        if !self.enabled {
            return None;
        }
        let u = self.draw("worker_fault", &[worker as u64, u64::from(attempt)]);
        if u < self.cfg.worker_panic_rate {
            Some(WorkerFault::Panic)
        } else if u < self.cfg.worker_panic_rate + self.cfg.worker_stall_rate {
            Some(WorkerFault::Stall(self.cfg.worker_stall_pages))
        } else {
            None
        }
    }

    /// Times the exchange re-runs a lost partition before giving up.
    pub fn worker_max_retries(&self) -> u32 {
        self.cfg.worker_max_retries
    }
}

impl Default for ChaosPolicy {
    fn default() -> Self {
        ChaosPolicy::off()
    }
}

/// Install (once, process-wide) a panic hook that suppresses the default
/// stderr backtrace for *injected* panics — payloads of type [`ChaosPanic`]
/// or [`RqpError`] — and delegates every other panic to the previous hook.
/// Chaos runs inject thousands of panics on purpose; drowning test output in
/// "thread panicked" noise would hide real failures.
pub fn install_quiet_panic_hook() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            if payload.is::<ChaosPanic>() || payload.is::<RqpError>() {
                return;
            }
            previous(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_policy_never_injects() {
        let p = ChaosPolicy::off();
        assert!(!p.is_enabled());
        let tk = ChaosPolicy::table_key("t");
        for page in 0..1000 {
            assert!(!p.scan_fault("t", page, 0));
            assert!(!p.page_io_fault(tk, page, 0));
            assert!(p.memory_shock("t", page).is_none());
        }
        for w in 0..64 {
            assert!(p.worker_fault(w, 0).is_none());
        }
    }

    #[test]
    fn decisions_are_pure_functions_of_seed_and_keys() {
        let a = ChaosPolicy::seeded(42);
        let b = ChaosPolicy::seeded(42);
        for page in 0..500 {
            assert_eq!(a.scan_fault("t", page, 0), b.scan_fault("t", page, 0));
            assert_eq!(a.memory_shock("t", page), b.memory_shock("t", page));
        }
        for w in 0..16 {
            for att in 0..4 {
                assert_eq!(a.worker_fault(w, att), b.worker_fault(w, att));
            }
        }
    }

    #[test]
    fn different_seeds_disagree_somewhere() {
        let a = ChaosPolicy::seeded(1);
        let b = ChaosPolicy::seeded(2);
        let diverges = (0..2000).any(|p| a.scan_fault("t", p, 0) != b.scan_fault("t", p, 0));
        assert!(diverges, "two seeds should not share a fault schedule");
    }

    #[test]
    fn rates_are_roughly_honored() {
        let p = ChaosPolicy::new(ChaosConfig {
            scan_fault_rate: 0.2,
            ..ChaosConfig::standard(7)
        });
        let hits = (0..10_000).filter(|&pg| p.scan_fault("t", pg, 0)).count();
        assert!(
            (1_500..2_500).contains(&hits),
            "~20% of pages should fault, got {hits}/10000"
        );
    }

    #[test]
    fn shock_fractions_are_from_the_palette_and_include_restores() {
        let p = ChaosPolicy::new(ChaosConfig { shock_rate: 1.0, ..ChaosConfig::standard(11) });
        let mut restores = 0;
        let mut shrinks = 0;
        for page in 0..1000 {
            match p.memory_shock("t", page) {
                Some(f) if f >= 1.0 => restores += 1,
                Some(f) => {
                    assert!([0.5, 0.25, 0.125].contains(&f), "unexpected fraction {f}");
                    shrinks += 1;
                }
                None => panic!("shock_rate=1.0 must always shock"),
            }
        }
        assert!(restores > 0, "the grow half of FMT must occur");
        assert!(shrinks > restores, "shrinks dominate the palette");
    }

    #[test]
    fn attempts_get_independent_draws() {
        // A page that faults on attempt 0 must be able to succeed on a
        // retry: the attempt number is part of the key.
        let p = ChaosPolicy::new(ChaosConfig {
            scan_fault_rate: 0.5,
            ..ChaosConfig::standard(3)
        });
        let faulting: Vec<u64> = (0..200).filter(|&pg| p.scan_fault("t", pg, 0)).collect();
        assert!(!faulting.is_empty());
        let recovered = faulting.iter().any(|&pg| !p.scan_fault("t", pg, 1));
        assert!(recovered, "retries must redraw, not repeat the fault");
    }

    #[test]
    fn page_io_faults_are_page_keyed_and_redraw_per_attempt() {
        // Same table key + page + attempt → same decision across policy
        // instances (worker-count invariance rests on this purity)…
        let a = ChaosPolicy::new(ChaosConfig { page_fault_rate: 0.3, ..ChaosConfig::standard(9) });
        let b = ChaosPolicy::new(ChaosConfig { page_fault_rate: 0.3, ..ChaosConfig::standard(9) });
        let tk = ChaosPolicy::table_key("t");
        for page in 0..500 {
            assert_eq!(a.page_io_fault(tk, page, 0), b.page_io_fault(tk, page, 0));
        }
        // …while a faulting page can recover on a retry (attempt in the key).
        let faulting: Vec<u64> = (0..200).filter(|&pg| a.page_io_fault(tk, pg, 0)).collect();
        assert!(!faulting.is_empty(), "30% of 200 pages should fault");
        assert!(faulting.iter().any(|&pg| !a.page_io_fault(tk, pg, 1)));
        // Distinct tables get independent schedules.
        let other = ChaosPolicy::table_key("u");
        assert!((0..500).any(|pg| a.page_io_fault(tk, pg, 0) != a.page_io_fault(other, pg, 0)));
    }

    #[test]
    fn env_policy_defaults_off() {
        // What the process environment selects: off, unless the CI chaos
        // leg seeded it.
        let ambient = crate::EngineConfig::ambient().chaos_seed;
        assert_eq!(ChaosPolicy::from_seed(ambient).is_enabled(), ambient.is_some());
        assert_eq!(ChaosPolicy::from_seed(None), ChaosPolicy::off());
        assert_eq!(ChaosPolicy::from_seed(Some(7)), ChaosPolicy::seeded(7));
        assert!(ChaosPolicy::from_seed(Some(0)).is_enabled(), "seed 0 is a seed");
    }
}
