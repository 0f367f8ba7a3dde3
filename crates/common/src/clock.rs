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
//! **Exact.** The clock counts *amounts*, not cost: one counter per weight
//! (seq pages, random pages, CPU tuples, compares, hash builds, hash probes,
//! spill pages), each an integer in fixed point at 2⁻²⁴ of one unit, charged
//! with an atomic `fetch_add`. Integer addition is associative, so the
//! counters do not depend on how work is chunked (one charge of `n` or `n`
//! charges of one), on the order of charges, or on how it is split across
//! exchange workers and [`absorb`](CostClock::absorb)ed back. Cost appears
//! only when it is read: [`breakdown`](CostClock::breakdown) and
//! [`now`](CostClock::now) compute Σ amount × weight in one fixed order, so
//! equal amounts give equal bits under *any* [`CostModelParams`]. One charge
//! rounds its amount to the nearest 2⁻²⁴; integer amounts are exact.
//!
//! Every operator in a plan holds a [`SharedClock`] (an `Arc`) and charges as
//! it runs, including from exchange workers on other threads; workers charge
//! private shard clocks (`ExecContext::fork_worker` in `rqp-exec`) so each
//! worker's own cost stays attributable until the gather absorbs it.

use std::sync::atomic::{AtomicU64, Ordering};
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

/// Fixed-point scale of the amount counters: one unit is 2²⁴ counts.
const SCALE: f64 = (1u64 << 24) as f64;

// Counter slots, one per weight of `CostModelParams`.
const SEQ_PAGES: usize = 0;
const RAND_PAGES: usize = 1;
const CPU_TUPLES: usize = 2;
const COMPARES: usize = 3;
const HASH_BUILDS: usize = 4;
const HASH_PROBES: usize = 5;
const SPILL_PAGES: usize = 6;

/// A deterministic virtual clock accumulating exact charged amounts.
#[derive(Debug)]
pub struct CostClock {
    params: CostModelParams,
    /// Charged amount per weight, in two's-complement fixed point (so a
    /// negative charge wraps back exactly).
    amounts: [AtomicU64; 7],
}

/// Shared handle to a [`CostClock`]; clone freely into every operator.
pub type SharedClock = Arc<CostClock>;

impl CostClock {
    /// New clock with the given parameters.
    pub fn new(params: CostModelParams) -> SharedClock {
        Arc::new(CostClock { params, amounts: Default::default() })
    }

    /// New clock with default parameters.
    pub fn default_clock() -> SharedClock {
        Self::new(CostModelParams::default())
    }

    /// The cost parameters this clock charges with.
    pub fn params(&self) -> &CostModelParams {
        &self.params
    }

    #[inline]
    fn charge(&self, slot: usize, n: f64) {
        let fixed = (n * SCALE).round() as i64;
        self.amounts[slot].fetch_add(fixed as u64, Ordering::Relaxed);
    }

    /// The amount charged to `slot` so far, in units.
    #[inline]
    fn amount(&self, slot: usize) -> f64 {
        self.amounts[slot].load(Ordering::Relaxed) as i64 as f64 / SCALE
    }

    /// Charge a sequential scan of `rows` tuples (page I/O + per-tuple CPU).
    pub fn charge_seq_rows(&self, rows: f64) {
        self.charge(SEQ_PAGES, (rows / self.params.rows_per_page).ceil());
        self.charge(CPU_TUPLES, rows);
    }

    /// Charge `n` random page accesses (e.g. unclustered index fetches).
    pub fn charge_random_pages(&self, n: f64) {
        self.charge(RAND_PAGES, n);
    }

    /// Charge exactly `n` sequential page reads (no per-tuple CPU).
    pub fn charge_seq_pages(&self, n: f64) {
        self.charge(SEQ_PAGES, n);
    }

    /// Charge CPU work for touching `n` tuples.
    pub fn charge_cpu_tuples(&self, n: f64) {
        self.charge(CPU_TUPLES, n);
    }

    /// Charge `n` comparisons.
    pub fn charge_compares(&self, n: f64) {
        self.charge(COMPARES, n);
    }

    /// Charge `n` hash-table builds.
    pub fn charge_hash_build(&self, n: f64) {
        self.charge(HASH_BUILDS, n);
    }

    /// Charge `n` hash-table probes.
    pub fn charge_hash_probe(&self, n: f64) {
        self.charge(HASH_PROBES, n);
    }

    /// Charge spilling `rows` tuples to temp storage and reading them back.
    pub fn charge_spill_rows(&self, rows: f64) {
        self.charge(SPILL_PAGES, (rows / self.params.rows_per_page).ceil());
    }

    /// Current virtual time (total cost charged so far).
    pub fn now(&self) -> f64 {
        self.breakdown().total()
    }

    /// Per-category totals: each charged amount times its weight, summed in
    /// one fixed order.
    pub fn breakdown(&self) -> CostBreakdown {
        let p = &self.params;
        let a = |slot| self.amount(slot);
        CostBreakdown {
            seq_io: a(SEQ_PAGES) * p.seq_page,
            rand_io: a(RAND_PAGES) * p.rand_page,
            cpu: a(CPU_TUPLES) * p.cpu_tuple
                + a(COMPARES) * p.cpu_compare
                + a(HASH_BUILDS) * p.hash_build
                + a(HASH_PROBES) * p.hash_probe,
            spill: a(SPILL_PAGES) * p.spill_page,
        }
    }

    /// Fold a shard clock's amounts into this one.
    ///
    /// The merge primitive of the exchange operators: each worker charges a
    /// private shard clock (same parameters), and the gather side absorbs
    /// it. The amounts are integers, so totals do not depend on the order
    /// in which shards are absorbed.
    pub fn absorb(&self, shard: &CostClock) {
        debug_assert_eq!(self.params, shard.params, "a shard charges with its parent's weights");
        for (mine, theirs) in self.amounts.iter().zip(&shard.amounts) {
            mine.fetch_add(theirs.load(Ordering::Relaxed), Ordering::Relaxed);
        }
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
    use rand::Rng;

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
        main.absorb(&shard);
        let b = main.breakdown();
        assert!((b.seq_io - 2.0).abs() < 1e-12);
        assert!((b.rand_io - 4.0).abs() < 1e-12);
        assert!((b.cpu - 1.0).abs() < 1e-12);
    }

    /// One charge of the seeded sequence: which method, and how much.
    #[derive(Clone, Copy, Debug)]
    struct Charge(u8, f64);

    impl Charge {
        fn apply(self, c: &CostClock) {
            let Charge(kind, n) = self;
            match kind {
                0 => c.charge_seq_rows(n),
                1 => c.charge_random_pages(n),
                2 => c.charge_seq_pages(n),
                3 => c.charge_cpu_tuples(n),
                4 => c.charge_compares(n),
                5 => c.charge_hash_build(n),
                6 => c.charge_hash_probe(n),
                _ => c.charge_spill_rows(n),
            }
        }

        /// Split a whole-count charge in two, as a batch operator charges `n`
        /// at once where its scalar twin charges one at a time. Row charges
        /// (which round to pages) and fractional amounts stay whole.
        fn chunks(self, rng: &mut impl Rng) -> Vec<Charge> {
            let Charge(kind, n) = self;
            if matches!(kind, 0 | 7) || n.fract() != 0.0 || n < 2.0 {
                return vec![self];
            }
            let cut = rng.gen_range(1..n as i64) as f64;
            vec![Charge(kind, cut), Charge(kind, n - cut)]
        }
    }

    fn charge_sequence(seed: u64) -> Vec<Charge> {
        let mut rng = crate::rng::seeded(seed);
        (0..400)
            .map(|_| {
                let kind = rng.gen_range(0..8u8);
                let k = rng.gen_range(1..5_000i64) as f64;
                // Whole counts beside the fractional amounts a sort or an
                // index descent charges (n·log₂n, log₂ of a fan-out).
                let n = match rng.gen_range(0..3u8) {
                    0 => k,
                    1 => k.log2(),
                    _ => k * k.log2(),
                };
                Charge(kind, n)
            })
            .collect()
    }

    fn shuffle<T>(xs: &mut [T], rng: &mut impl Rng) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, rng.gen_range(0..=i));
        }
    }

    fn bits(c: &CostClock) -> [u64; 5] {
        let b = c.breakdown();
        [b.seq_io, b.rand_io, b.cpu, b.spill, c.now()].map(f64::to_bits)
    }

    #[test]
    fn chunking_order_and_shard_splits_never_change_a_bit() {
        let awkward = CostModelParams {
            rows_per_page: 37.0,
            seq_page: 0.3,
            rand_page: 1.1,
            cpu_tuple: 0.007,
            cpu_compare: 1.0 / 3.0,
            hash_build: 0.013,
            hash_probe: 0.0031,
            spill_page: 2.9,
        };
        for params in [CostModelParams::default(), awkward] {
            for seed in 0..8u64 {
                let charges = charge_sequence(seed);
                let reference = CostClock::new(params);
                charges.iter().for_each(|c| c.apply(&reference));
                let want = bits(&reference);

                let mut rng = crate::rng::seeded(seed ^ 0x5EED);
                for trial in 0..4 {
                    // Rechunk, then permute the whole sequence.
                    let mut pieces: Vec<Charge> =
                        charges.iter().flat_map(|c| c.chunks(&mut rng)).collect();
                    shuffle(&mut pieces, &mut rng);
                    let permuted = CostClock::new(params);
                    pieces.iter().for_each(|c| c.apply(&permuted));
                    assert_eq!(bits(&permuted), want, "seed {seed} trial {trial}: permuted");

                    // Deal the pieces to shard clocks, absorb them in a
                    // shuffled order into a coordinator that charged some itself.
                    let shards: Vec<SharedClock> =
                        (0..rng.gen_range(1..9usize)).map(|_| CostClock::new(params)).collect();
                    let root = CostClock::new(params);
                    for c in &pieces {
                        match rng.gen_range(0..=shards.len()) {
                            0 => c.apply(&root),
                            s => c.apply(&shards[s - 1]),
                        }
                    }
                    let mut order: Vec<usize> = (0..shards.len()).collect();
                    shuffle(&mut order, &mut rng);
                    order.iter().for_each(|&s| root.absorb(&shards[s]));
                    assert_eq!(bits(&root), want, "seed {seed} trial {trial}: sharded");
                }
            }
        }
    }

    #[test]
    fn clock_is_send_and_sync() {
        fn check<T: Send + Sync>() {}
        check::<CostClock>();
    }
}
