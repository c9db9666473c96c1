//! A seeded property-test driver for the workspace's test suites.
//!
//! The offline build cannot resolve `proptest`, so property suites draw
//! their inputs from [`StdRng`] instead. Every case is a pure function of
//! `CONCORD_PROP_SEED` (default `0xC0C0`) and its index, and
//! `CONCORD_PROP_CASES` replaces each property's default case count, so
//! CI can run the same suites deeper. A failing case prints the seed and
//! the case count that replays it.
//!
//! ```
//! use concord_rng::{prop, Rng};
//!
//! prop::check("sum_commutes", 64, |rng| {
//!     let (a, b) = (rng.gen_range(0..1000u32), rng.gen_range(0..1000u32));
//!     assert_eq!(a + b, b + a);
//! });
//! ```

use std::ops::RangeInclusive;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use crate::{Rng, SeedableRng, StdRng};

/// The seed used when `CONCORD_PROP_SEED` is unset.
const DEFAULT_SEED: u64 = 0xC0C0;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Runs `property` once per case, each time on a fresh generator derived
/// from the run's seed. A panicking case is reported with the environment
/// that replays it, then re-raised.
pub fn check(name: &str, default_cases: u64, mut property: impl FnMut(&mut StdRng)) {
    let seed = env_u64("CONCORD_PROP_SEED", DEFAULT_SEED);
    let cases = env_u64("CONCORD_PROP_CASES", default_cases);
    let mut seeds = StdRng::seed_from_u64(seed);
    for case in 0..cases {
        let mut rng = StdRng::seed_from_u64(seeds.next_u64());
        if let Err(panic) = catch_unwind(AssertUnwindSafe(|| property(&mut rng))) {
            eprintln!(
                "property `{name}` failed at case {case}; replay with \
                 CONCORD_PROP_SEED={seed} CONCORD_PROP_CASES={}",
                case + 1
            );
            resume_unwind(panic);
        }
    }
}

/// Picks one element of `items` uniformly.
///
/// # Panics
///
/// Panics if `items` is empty.
pub fn pick<'a, T>(rng: &mut StdRng, items: &'a [T]) -> &'a T {
    &items[rng.gen_range(0..items.len())]
}

/// A string of `len` characters drawn uniformly from `alphabet`.
pub fn string_of(rng: &mut StdRng, alphabet: &str, len: RangeInclusive<usize>) -> String {
    let chars: Vec<char> = alphabet.chars().collect();
    let n = rng.gen_range(len);
    (0..n).map(|_| *pick(rng, &chars)).collect()
}

/// A string of `len` non-control characters: mostly printable ASCII,
/// with about one in five drawn from all of Unicode.
pub fn printable(rng: &mut StdRng, len: RangeInclusive<usize>) -> String {
    let n = rng.gen_range(len);
    (0..n).map(|_| printable_char(rng)).collect()
}

fn printable_char(rng: &mut StdRng) -> char {
    if rng.gen_bool(0.8) {
        return char::from(rng.gen_range(b' '..=b'~'));
    }
    loop {
        let c = char::from_u32(rng.gen_range(0..=0x10FFFFu32));
        if let Some(c) = c.filter(|c| !c.is_control()) {
            return c;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_are_a_function_of_the_seed() {
        let mut first = Vec::new();
        check("record", 8, |rng| first.push(rng.next_u64()));
        let mut second = Vec::new();
        check("record", 8, |rng| second.push(rng.next_u64()));
        assert_eq!(first, second);
        first.sort_unstable();
        first.dedup();
        assert_eq!(first.len(), second.len(), "cases draw distinct streams");
    }

    #[test]
    fn strings_respect_alphabet_and_length() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..200 {
            let s = string_of(&mut rng, "ab:", 2..=5);
            assert!((2..=5).contains(&s.len()));
            assert!(s.chars().all(|c| "ab:".contains(c)));
            let p = printable(&mut rng, 0..=6);
            assert!(p.chars().count() <= 6);
            assert!(!p.chars().any(char::is_control));
        }
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn failures_propagate() {
        check("fails", 4, |_| panic!("boom"));
    }
}
