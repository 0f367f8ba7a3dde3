//! Hermetic in-tree stand-in for the crates.io `rand` crate.
//!
//! The rqp workspace must build and test with **no network access** (the
//! tier-1 verify gate runs in sealed containers), so the external `rand`
//! dependency is replaced by this minimal, API-compatible shim. It provides
//! exactly the subset rqp uses:
//!
//! * [`rngs::StdRng`] + [`SeedableRng::seed_from_u64`] — deterministic
//!   seeding (every stochastic choice in the testbed flows from an explicit
//!   seed);
//! * [`Rng::gen`] / [`Rng::gen_range`] over the integer/float ranges the
//!   workload generators draw from;
//! * [`distributions::Distribution`] — implemented by samplers such as
//!   `rqp_common::rng::Zipf`.
//!
//! The generator is **xoshiro256\*\*** seeded through SplitMix64 — small,
//! fast, and statistically strong far beyond what a cost-model testbed
//! needs. Streams differ from the real `rand`'s ChaCha-based `StdRng`, so
//! absolute experiment outputs shifted when this shim was introduced; all
//! assertions in the repo are statistical or self-consistent, not tied to a
//! particular stream.
//!
//! Integer `gen_range` uses multiply-shift range reduction (Lemire); the
//! modulo bias of the naive approach is avoided.

#![warn(missing_docs)]

/// The raw entropy source: 64 random bits per call.
pub trait RngCore {
    /// Next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Seedable construction (the only constructor rqp uses).
pub trait SeedableRng: Sized {
    /// Build the generator from a 64-bit seed, deterministically.
    fn seed_from_u64(seed: u64) -> Self;
}

/// User-facing sampling methods, blanket-implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// Sample a value from the [`distributions::Standard`] distribution
    /// (uniform bits for integers, uniform `[0, 1)` for floats).
    fn gen<T>(&mut self) -> T
    where
        distributions::Standard: distributions::Distribution<T>,
    {
        use distributions::Distribution;
        distributions::Standard.sample(self)
    }

    /// Sample uniformly from `range` (half-open or inclusive).
    ///
    /// Panics if the range is empty, matching the real `rand`.
    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        R: SampleRange<T>,
    {
        range.sample_single(self)
    }

    /// Sample from an explicit distribution.
    fn sample<T, D>(&mut self, distr: D) -> T
    where
        D: distributions::Distribution<T>,
    {
        distr.sample(self)
    }

    /// Bernoulli draw: `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool probability out of range");
        standard_f64(self.next_u64()) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Uniform `[0, 1)` from 53 random mantissa bits.
#[inline]
fn standard_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Lemire multiply-shift reduction of a 64-bit draw onto `0..span`,
/// with rejection to remove bias.
#[inline]
fn uniform_below(rng: &mut impl RngCore, span: u64) -> u64 {
    debug_assert!(span > 0);
    // Rejection zone: the lowest `threshold` multiples wrap unevenly.
    let threshold = span.wrapping_neg() % span;
    loop {
        let x = rng.next_u64();
        let m = (x as u128) * (span as u128);
        if (m as u64) >= threshold {
            return (m >> 64) as u64;
        }
    }
}

/// A range that [`Rng::gen_range`] can sample from.
pub trait SampleRange<T> {
    /// Draw one uniform value from the range.
    fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_int_range {
    ($($t:ty => $wide:ty),* $(,)?) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as $wide).wrapping_sub(self.start as $wide) as u64;
                (self.start as $wide).wrapping_add(uniform_below(&mut &mut *rng, span) as $wide)
                    as $t
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi as $wide).wrapping_sub(lo as $wide) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                (lo as $wide).wrapping_add(uniform_below(&mut &mut *rng, span + 1) as $wide) as $t
            }
        }
    )*};
}

impl_int_range!(
    i8 => i64, i16 => i64, i32 => i64, i64 => i64, isize => i64,
    u8 => u64, u16 => u64, u32 => u64, u64 => u64, usize => u64,
);

macro_rules! impl_float_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let u = standard_f64(rng.next_u64()) as $t;
                self.start + u * (self.end - self.start)
            }
        }
    )*};
}

impl_float_range!(f32, f64);

/// Distributions: the [`Distribution`](distributions::Distribution) trait and the
/// [`Standard`](distributions::Standard) instance.
pub mod distributions {
    use super::{standard_f64, Rng};

    /// A sampling distribution over `T`.
    pub trait Distribution<T> {
        /// Draw one value.
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> T;
    }

    /// The "natural" uniform distribution per type: full-width uniform
    /// integers, uniform `[0, 1)` floats, fair-coin bools.
    pub struct Standard;

    macro_rules! impl_standard_int {
        ($($t:ty),*) => {$(
            impl Distribution<$t> for Standard {
                fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Distribution<bool> for Standard {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    impl Distribution<f64> for Standard {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
            standard_f64(rng.next_u64())
        }
    }

    impl Distribution<f32> for Standard {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f32 {
            standard_f64(rng.next_u64()) as f32
        }
    }
}

/// Named generators (only [`StdRng`](rngs::StdRng) is provided).
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The standard deterministic generator: xoshiro256\*\* seeded via
    /// SplitMix64. Not the ChaCha `StdRng` of the real `rand`; rqp only
    /// requires determinism and statistical quality, not stream
    /// compatibility.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // SplitMix64 expansion of the seed into the 256-bit state.
            let mut x = seed;
            let mut next = || {
                x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            };
            let s = [next(), next(), next(), next()];
            StdRng { s }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            // xoshiro256** (Blackman & Vigna).
            let out = self.s[1]
                .wrapping_mul(5)
                .rotate_left(7)
                .wrapping_mul(9);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_streams() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(8);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    use super::RngCore;

    #[test]
    fn gen_range_bounds_and_coverage() {
        let mut r = StdRng::seed_from_u64(1);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v: i64 = r.gen_range(-5i64..5);
            assert!((-5..5).contains(&v));
            seen[(v + 5) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all 10 values hit in 1000 draws");
        for _ in 0..1000 {
            let v = r.gen_range(3usize..=7);
            assert!((3..=7).contains(&v));
        }
        let v = r.gen_range(4i64..5);
        assert_eq!(v, 4, "singleton half-open range");
        let v = r.gen_range(9i64..=9);
        assert_eq!(v, 9, "singleton inclusive range");
    }

    #[test]
    fn float_ranges_stay_inside() {
        let mut r = StdRng::seed_from_u64(2);
        let mut lo_half = 0usize;
        for _ in 0..2000 {
            let v: f64 = r.gen_range(2.5..3.5);
            assert!((2.5..3.5).contains(&v));
            if v < 3.0 {
                lo_half += 1;
            }
        }
        assert!((700..1300).contains(&lo_half), "roughly uniform halves: {lo_half}");
    }

    #[test]
    fn gen_standard_types() {
        let mut r = StdRng::seed_from_u64(3);
        let f: f64 = r.gen();
        assert!((0.0..1.0).contains(&f));
        let _: u32 = r.gen();
        let _: bool = r.gen();
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut r = StdRng::seed_from_u64(4);
        let hits = (0..10_000).filter(|_| r.gen_bool(0.25)).count();
        assert!((2200..2800).contains(&hits), "p=0.25 over 10k: {hits}");
    }

    #[test]
    fn uniform_int_is_roughly_uniform() {
        let mut r = StdRng::seed_from_u64(5);
        let mut counts = [0usize; 8];
        for _ in 0..8000 {
            counts[r.gen_range(0usize..8)] += 1;
        }
        for &c in &counts {
            assert!((800..1200).contains(&c), "bucket count {c}");
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut r = StdRng::seed_from_u64(6);
        let _: i64 = r.gen_range(5i64..5);
    }
}
