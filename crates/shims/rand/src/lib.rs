//! Offline stand-in for the `rand` crate.
//!
//! This workspace builds in environments with no crates.io access, so the
//! subset of `rand` the repository actually uses is reimplemented here:
//! [`rngs::SmallRng`] (an xorshift64*-based generator seeded through
//! SplitMix64), [`SeedableRng::seed_from_u64`], [`RngExt::random`] /
//! [`RngExt::random_range`], and [`seq::SliceRandom::shuffle`].
//!
//! The generators are deterministic functions of the seed — exactly the
//! property the deterministic-Galois test suite and input generators rely
//! on — but make no statistical-quality or stability promises beyond this
//! workspace.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

/// Construction of generators from seeds.
pub trait SeedableRng: Sized {
    /// Builds a generator whose entire stream is a function of `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Minimal core RNG interface: a stream of `u64`s.
pub trait RngCore {
    /// Next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64;
}

pub mod rngs {
    //! Concrete generators.

    use super::{RngCore, SeedableRng};

    /// A small, fast, seedable generator (xorshift64* over a SplitMix64-mixed
    /// seed).
    #[derive(Debug, Clone)]
    pub struct SmallRng {
        state: u64,
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(seed: u64) -> Self {
            // SplitMix64 finalizer: spreads low-entropy seeds (0, 1, ...)
            // across the whole state space and never yields state 0.
            let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            SmallRng { state: z | 1 }
        }
    }

    impl RngCore for SmallRng {
        fn next_u64(&mut self) -> u64 {
            // xorshift64*.
            let mut x = self.state;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.state = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }
    }
}

/// Types that can be sampled uniformly from the generator's raw stream
/// (the `Standard` distribution of real `rand`).
pub trait Standard: Sized {
    /// Draws one value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 uniform mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for u64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Ranges a value can be drawn from (the `SampleRange` of real `rand`).
pub trait SampleRange<T> {
    /// Draws one value from the range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let off = (rng.next_u64() as u128 % span) as i128;
                (self.start as i128 + off) as $t
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                let off = (rng.next_u64() as u128 % span) as i128;
                (lo as i128 + off) as $t
            }
        }
    )*};
}

impl_int_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleRange<f64> for core::ops::Range<f64> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        self.start + (self.end - self.start) * f64::sample(rng)
    }
}

/// Convenience sampling methods, implemented for every [`RngCore`].
pub trait RngExt: RngCore {
    /// Draws a value from the `Standard` distribution of its type.
    fn random<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// Draws a value uniformly from `range`.
    fn random_range<T, Rg: SampleRange<T>>(&mut self, range: Rg) -> T {
        range.sample_from(self)
    }

    /// Draws `true` with probability `p`.
    fn random_bool(&mut self, p: f64) -> bool {
        f64::sample(self) < p
    }
}

impl<R: RngCore + ?Sized> RngExt for R {}

pub mod seq {
    //! Sequence-related sampling.

    use super::{RngCore, RngExt};

    /// Slice shuffling (Fisher–Yates).
    pub trait SliceRandom {
        /// Shuffles the slice in place, uniformly over permutations.
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.random_range(0..=i);
                self.swap(i, j);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::seq::SliceRandom;
    use super::{RngExt, SeedableRng};

    #[test]
    fn same_seed_same_stream() {
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.random::<u64>(), b.random::<u64>());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SmallRng::seed_from_u64(1);
        let mut b = SmallRng::seed_from_u64(2);
        let sa: Vec<u64> = (0..8).map(|_| a.random()).collect();
        let sb: Vec<u64> = (0..8).map(|_| b.random()).collect();
        assert_ne!(sa, sb);
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..1000 {
            let v: u32 = rng.random_range(0..17);
            assert!(v < 17);
            let w: i64 = rng.random_range(1..=5);
            assert!((1..=5).contains(&w));
            let f: f64 = rng.random_range(10.0..200.0);
            assert!((10.0..200.0).contains(&f));
            let u: f64 = rng.random();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn shuffle_is_permutation_and_deterministic() {
        let run = |seed| {
            let mut v: Vec<u32> = (0..64).collect();
            v.shuffle(&mut SmallRng::seed_from_u64(seed));
            v
        };
        let a = run(9);
        assert_eq!(a, run(9));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..64).collect::<Vec<_>>());
        assert_ne!(a, sorted, "64 elements should not shuffle to identity");
    }
}
