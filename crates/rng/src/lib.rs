#![warn(missing_docs)]

//! A tiny deterministic PRNG for the synthetic dataset generators.
//!
//! The workspace builds hermetically (no registry access), so instead of
//! the `rand` crate the generators use this xoshiro256++ implementation
//! seeded through SplitMix64. The API mirrors the `rand` subset the
//! generators need (`StdRng::seed_from_u64`, `gen_range`, `gen_bool`), so
//! call sites read identically; determinism per seed is guaranteed across
//! platforms, which is what the experiment harness actually relies on.
//! The same generator drives the workspace's property suites through
//! [`prop::check`].

pub mod prop;

/// Seedable random number generators (API parity with `rand::rngs`).
pub mod rngs {
    /// The standard deterministic generator: xoshiro256++.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        pub(crate) state: [u64; 4],
    }
}

pub use rngs::StdRng;

/// Construction from a seed (API parity with `rand::SeedableRng`).
pub trait SeedableRng: Sized {
    /// Builds a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

impl SeedableRng for StdRng {
    fn seed_from_u64(seed: u64) -> StdRng {
        // SplitMix64 expansion, the standard way to seed xoshiro.
        let mut s = seed;
        let mut next = || {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        StdRng {
            state: [next(), next(), next(), next()],
        }
    }
}

impl StdRng {
    /// Produces the next 64 random bits (xoshiro256++ step).
    pub fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.state;
        let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
        let t = s1 << 17;
        let mut s = [s0, s1, s2, s3];
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        self.state = s;
        result
    }
}

/// Sampling helpers over a generator (API parity with `rand::Rng`).
pub trait Rng {
    /// Samples a value uniformly from `range`.
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T;

    /// Returns `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool;
}

impl Rng for StdRng {
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }

    fn gen_bool(&mut self, p: f64) -> bool {
        debug_assert!((0.0..=1.0).contains(&p), "probability out of range");
        // 53 uniform mantissa bits, the usual open [0, 1) construction.
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        unit < p
    }
}

/// A range that can be sampled uniformly.
pub trait SampleRange<T> {
    /// Draws one value from the range.
    fn sample(self, rng: &mut StdRng) -> T;
}

/// Unbiased sampling of `[0, bound)` by rejection (Lemire-style masking
/// would also do; the bound sizes here make rejection negligible).
fn uniform_below(rng: &mut StdRng, bound: u64) -> u64 {
    assert!(bound > 0, "empty range");
    let zone = u64::MAX - (u64::MAX % bound);
    loop {
        let raw = rng.next_u64();
        if raw < zone {
            return raw % bound;
        }
    }
}

macro_rules! impl_sample_range {
    ($($ty:ty),*) => {$(
        impl SampleRange<$ty> for std::ops::Range<$ty> {
            fn sample(self, rng: &mut StdRng) -> $ty {
                assert!(self.start < self.end, "empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                let offset = uniform_below(rng, span);
                (self.start as i128 + offset as i128) as $ty
            }
        }

        impl SampleRange<$ty> for std::ops::RangeInclusive<$ty> {
            fn sample(self, rng: &mut StdRng) -> $ty {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty range");
                let span = (end as i128 - start as i128) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $ty;
                }
                let offset = uniform_below(rng, span + 1);
                (start as i128 + offset as i128) as $ty
            }
        }
    )*};
}

impl_sample_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        let xs: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(xs[0], c.next_u64());
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v = rng.gen_range(100..120u32);
            assert!((100..120).contains(&v));
            let w: i32 = rng.gen_range(0..10);
            assert!((0..10).contains(&w));
            let x = rng.gen_range(0..=3u8);
            assert!(x <= 3);
        }
    }

    #[test]
    fn gen_range_covers_every_value() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut seen = [false; 5];
        for _ in 0..1000 {
            seen[rng.gen_range(0..5usize)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = StdRng::seed_from_u64(9);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.15)).count();
        assert!((1200..1800).contains(&hits), "got {hits}");
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
    }
}
