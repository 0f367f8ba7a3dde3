//! The deterministic cost clock.
//!
//! The Dagstuhl report's robustness metrics are all ratios and variances of
//! *response time*. Real wall-clock time is noisy and machine-dependent, so
//! the engine charges abstract **cost units** to a [`CostClock`] instead:
//! sequential page reads, random page reads, per-tuple CPU work, and spill
//! traffic each have a configurable weight ([`CostModelParams`]). The clock is
//! the experiment-level notion of "response time"; the `rqp-perf` benchmark
//! measures real time separately.
//!
//! The clock uses atomic interior mutability so every operator in a plan can
//! hold a [`SharedClock`] (an `Arc`) and charge as it runs — including from
//! exchange workers on other threads. For *deterministic* parallel totals,
//! workers charge private shard clocks ([`ExecContext::fork_worker`] in
//! `rqp-exec`) that the gather side [`absorb`](CostClock::absorb)s in worker
//! order, so floating-point accumulation order never depends on scheduling.

use crate::sync::AtomicF64;
use std::sync::Arc;

/// Weights of the abstract cost model, in arbitrary "cost units".
///
/// Defaults are chosen so that one sequential page ≈ 100 tuples of CPU work
/// and a random page is 4× a sequential one — the classic ratio that creates
/// the scan-vs-index crossover the smoothness experiments (E07) measure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModelParams {
    /// Tuples per page: converts row counts to page counts.
    pub rows_per_page: f64,
    /// Cost of reading one page sequentially.
    pub seq_page: f64,
    /// Cost of reading one page at a random position.
    pub rand_page: f64,
    /// CPU cost of touching/producing one tuple.
    pub cpu_tuple: f64,
    /// CPU cost of one comparison (sorting, merging).
    pub cpu_compare: f64,
    /// CPU cost of one hash-table insert.
    pub hash_build: f64,
    /// CPU cost of one hash-table probe.
    pub hash_probe: f64,
    /// Cost of spilling one page to temp storage and reading it back.
    pub spill_page: f64,
}

impl Default for CostModelParams {
    fn default() -> Self {
        CostModelParams {
            rows_per_page: 100.0,
            seq_page: 1.0,
            rand_page: 4.0,
            cpu_tuple: 0.005,
            cpu_compare: 0.002,
            hash_build: 0.01,
            hash_probe: 0.005,
            spill_page: 2.5,
        }
    }
}

/// Running totals per cost category, for post-mortem attribution.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CostBreakdown {
    /// Cost charged for sequential I/O.
    pub seq_io: f64,
    /// Cost charged for random I/O.
    pub rand_io: f64,
    /// Cost charged for CPU work.
    pub cpu: f64,
    /// Cost charged for spills.
    pub spill: f64,
}

impl CostBreakdown {
    /// Sum of all categories.
    pub fn total(&self) -> f64 {
        self.seq_io + self.rand_io + self.cpu + self.spill
    }
}

/// A deterministic virtual clock accumulating cost units.
#[derive(Debug)]
pub struct CostClock {
    params: CostModelParams,
    seq_io: AtomicF64,
    rand_io: AtomicF64,
    cpu: AtomicF64,
    spill: AtomicF64,
}

/// Shared handle to a [`CostClock`]; clone freely into every operator.
pub type SharedClock = Arc<CostClock>;

impl CostClock {
    /// New clock with the given parameters.
    pub fn new(params: CostModelParams) -> SharedClock {
        Arc::new(CostClock {
            params,
            seq_io: AtomicF64::new(0.0),
            rand_io: AtomicF64::new(0.0),
            cpu: AtomicF64::new(0.0),
            spill: AtomicF64::new(0.0),
        })
    }

    /// New clock with default parameters.
    pub fn default_clock() -> SharedClock {
        Self::new(CostModelParams::default())
    }

    /// The cost parameters this clock charges with.
    pub fn params(&self) -> &CostModelParams {
        &self.params
    }

    /// Charge a sequential scan of `rows` tuples (page I/O + per-tuple CPU).
    pub fn charge_seq_rows(&self, rows: f64) {
        let pages = (rows / self.params.rows_per_page).ceil();
        self.seq_io.add(pages * self.params.seq_page);
        self.cpu.add(rows * self.params.cpu_tuple);
    }

    /// Charge `n` random page accesses (e.g. unclustered index fetches).
    pub fn charge_random_pages(&self, n: f64) {
        self.rand_io.add(n * self.params.rand_page);
    }

    /// Charge exactly `n` sequential page reads (no per-tuple CPU).
    pub fn charge_seq_pages(&self, n: f64) {
        self.seq_io.add(n * self.params.seq_page);
    }

    /// Charge CPU work for touching `n` tuples.
    pub fn charge_cpu_tuples(&self, n: f64) {
        self.cpu.add(n * self.params.cpu_tuple);
    }

    /// Charge `n` comparisons.
    pub fn charge_compares(&self, n: f64) {
        self.cpu.add(n * self.params.cpu_compare);
    }

    /// Charge `n` hash-table builds.
    pub fn charge_hash_build(&self, n: f64) {
        self.cpu.add(n * self.params.hash_build);
    }

    /// Charge `n` hash-table probes.
    pub fn charge_hash_probe(&self, n: f64) {
        self.cpu.add(n * self.params.hash_probe);
    }

    /// Charge spilling `rows` tuples to temp storage and reading them back.
    pub fn charge_spill_rows(&self, rows: f64) {
        let pages = (rows / self.params.rows_per_page).ceil();
        self.spill.add(pages * self.params.spill_page);
    }

    /// Current virtual time (total cost charged so far).
    pub fn now(&self) -> f64 {
        self.seq_io.get() + self.rand_io.get() + self.cpu.get() + self.spill.get()
    }

    /// Per-category totals.
    pub fn breakdown(&self) -> CostBreakdown {
        CostBreakdown {
            seq_io: self.seq_io.get(),
            rand_io: self.rand_io.get(),
            cpu: self.cpu.get(),
            spill: self.spill.get(),
        }
    }

    /// Fold another clock's totals into this one, category by category.
    ///
    /// The merge primitive of the exchange operators: each worker charges a
    /// private shard clock, and the gather side absorbs the shards in worker
    /// order. Because the absorption order is fixed, parallel totals are
    /// reproducible run-to-run and independent of thread scheduling.
    pub fn absorb(&self, shard: &CostBreakdown) {
        self.seq_io.add(shard.seq_io);
        self.rand_io.add(shard.rand_io);
        self.cpu.add(shard.cpu);
        self.spill.add(shard.spill);
    }

    /// Measure the cost of running `f`: returns (result, cost charged by `f`).
    pub fn lap<T>(&self, f: impl FnOnce() -> T) -> (T, f64) {
        let start = self.now();
        let out = f();
        (out, self.now() - start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seq_scan_charges_pages_and_cpu() {
        let c = CostClock::default_clock();
        c.charge_seq_rows(250.0);
        // 3 pages * 1.0 + 250 * 0.005
        assert!((c.now() - (3.0 + 1.25)).abs() < 1e-9);
        let b = c.breakdown();
        assert!((b.seq_io - 3.0).abs() < 1e-9);
        assert!((b.cpu - 1.25).abs() < 1e-9);
    }

    #[test]
    fn random_pages_cost_more() {
        let c = CostClock::default_clock();
        c.charge_random_pages(3.0);
        assert!((c.now() - 12.0).abs() < 1e-9);
    }

    #[test]
    fn lap_measures_delta() {
        let c = CostClock::default_clock();
        c.charge_cpu_tuples(100.0);
        let (_, d) = c.lap(|| c.charge_cpu_tuples(200.0));
        assert!((d - 1.0).abs() < 1e-9);
        assert!((c.now() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn absorb_merges_shard_breakdowns() {
        let main = CostClock::default_clock();
        main.charge_seq_pages(2.0);
        let shard = CostClock::new(*main.params());
        shard.charge_random_pages(1.0);
        shard.charge_cpu_tuples(200.0);
        main.absorb(&shard.breakdown());
        let b = main.breakdown();
        assert!((b.seq_io - 2.0).abs() < 1e-12);
        assert!((b.rand_io - 4.0).abs() < 1e-12);
        assert!((b.cpu - 1.0).abs() < 1e-12);
    }

    #[test]
    fn clock_is_send_and_sync() {
        fn check<T: Send + Sync>() {}
        check::<CostClock>();
    }
}
