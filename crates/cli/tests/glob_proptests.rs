//! Differential property tests for the glob segment matcher against a
//! naive recursive reference implementation, on seeded inputs from
//! `concord_rng::prop` (`CONCORD_PROP_SEED`, `CONCORD_PROP_CASES`).

use std::sync::atomic::{AtomicUsize, Ordering};

use concord_rng::prop;

/// Cases per property when `CONCORD_PROP_CASES` is unset: each case
/// creates and removes a directory.
const CASES: u64 = 64;

/// Naive recursive wildcard matcher: the specification.
fn reference_match(pattern: &[char], name: &[char]) -> bool {
    match (pattern.split_first(), name.split_first()) {
        (None, None) => true,
        (None, Some(_)) => false,
        (Some(('*', rest)), _) => {
            // Zero characters, or one character consumed.
            reference_match(rest, name)
                || name
                    .split_first()
                    .is_some_and(|(_, tail)| reference_match(pattern, tail))
        }
        (Some(('?', rest)), Some((_, tail))) => reference_match(rest, tail),
        (Some((p, rest)), Some((n, tail))) => p == n && reference_match(rest, tail),
        (Some(_), None) => false,
    }
}

/// Drives the public glob through the filesystem: creates a file named
/// `name` in a directory of its own and checks whether `pattern`
/// matches it.
fn glob_matches(pattern: &str, name: &str) -> bool {
    static NEXT_DIR: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "concord-globprop-{}-{}",
        std::process::id(),
        NEXT_DIR.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir is writable");
    std::fs::write(dir.join(name), "x").expect("temp file is writable");
    let hits = concord_cli::expand_glob(&format!("{}/{pattern}", dir.display()))
        .expect("the temp dir is readable");
    let _ = std::fs::remove_dir_all(&dir);
    !hits.is_empty()
}

/// Checks the filesystem glob against the reference on one pair.
fn assert_agrees(pattern: &str, name: &str) {
    let p: Vec<char> = pattern.chars().collect();
    let n: Vec<char> = name.chars().collect();
    assert_eq!(
        glob_matches(pattern, name),
        reference_match(&p, &n),
        "pattern {pattern:?} vs name {name:?}"
    );
}

/// The filesystem glob agrees with the reference wildcard matcher.
#[test]
fn glob_agrees_with_reference() {
    prop::check("glob_agrees_with_reference", CASES, |rng| {
        let pattern = prop::string_of(rng, "ab?*", 1..=6);
        let name = prop::string_of(rng, "ab", 1..=6);
        assert_agrees(&pattern, &name);
    });
}

/// A segment of exactly `**` is the globstar, which as the last segment
/// matches every file: the same answer the reference gives.
#[test]
fn globstar_segment_matches_a_file() {
    assert!(glob_matches("**", "a"));
    assert_agrees("**", "a");
}

/// A literal name always matches itself and nothing with a different
/// literal.
#[test]
fn literal_globs_are_exact() {
    prop::check("literal_globs_are_exact", CASES, |rng| {
        let name = prop::string_of(rng, "abcdefghijklmnopqrstuvwxyz", 1..=8);
        let other = prop::string_of(rng, "abcdefghijklmnopqrstuvwxyz", 1..=8);
        assert!(glob_matches(&name, &name));
        if name != other {
            assert!(!glob_matches(&name, &other));
        }
    });
}
