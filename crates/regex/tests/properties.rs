//! Property tests for the regex engine, on seeded inputs from
//! `concord_rng::prop` (`CONCORD_PROP_SEED`, `CONCORD_PROP_CASES`).

use concord_regex::Regex;
use concord_rng::prop::{self, printable, string_of};
use concord_rng::Rng;

const DIGITS: &str = "0123456789";
const LOWER: &str = "abcdefghijklmnopqrstuvwxyz";

/// A literal pattern (with metacharacters escaped) matches exactly its
/// own text.
#[test]
fn escaped_literal_matches_itself() {
    let alphabet = format!("{LOWER}ABCDEFGHIJKLMNOPQRSTUVWXYZ{DIGITS} .:/+*?()[]{{}}|^$-");
    prop::check("escaped_literal_matches_itself", 256, |rng| {
        let s = string_of(rng, &alphabet, 0..=24);
        let escaped: String = s
            .chars()
            .map(|c| {
                if "\\.+*?()[]{}|^$-/:".contains(c) {
                    format!("\\{c}")
                } else {
                    c.to_string()
                }
            })
            .collect();
        let re = Regex::new(&escaped).unwrap();
        assert!(re.is_full_match(&s), "{escaped:?} vs {s:?}");
    });
}

/// `match_at` never reports a length extending past the end of input.
#[test]
fn match_len_in_bounds() {
    let re = Regex::new("a+(b|c)*").unwrap();
    prop::check("match_len_in_bounds", 256, |rng| {
        let s = string_of(rng, "abc", 0..=32);
        for start in 0..=s.len() {
            if let Some(len) = re.match_at(&s, start) {
                assert!(start + len <= s.len(), "{s:?} at {start}");
            }
        }
    });
}

/// Digit runs are fully consumed by `[0-9]+` (maximal munch).
#[test]
fn digits_maximal_munch() {
    let re = Regex::new("[0-9]+").unwrap();
    prop::check("digits_maximal_munch", 256, |rng| {
        let digits = string_of(rng, DIGITS, 1..=12);
        let text = format!(
            "{}{digits}{}",
            string_of(rng, LOWER, 0..=8),
            string_of(rng, LOWER, 0..=8)
        );
        let (start, end) = re.find(&text).unwrap();
        assert_eq!(&text[start..end], digits, "{text:?}");
    });
}

/// `find_all` yields non-overlapping, strictly increasing digit ranges.
#[test]
fn find_all_monotone() {
    let re = Regex::new("[0-9]+").unwrap();
    prop::check("find_all_monotone", 256, |rng| {
        let s = string_of(rng, "ab0123456789", 0..=40);
        let matches = re.find_all(&s);
        for w in matches.windows(2) {
            assert!(w[0].1 <= w[1].0, "{s:?}: {matches:?}");
        }
        for &(a, b) in &matches {
            assert!(a < b, "{s:?}: {matches:?}");
            assert!(s[a..b].chars().all(|c| c.is_ascii_digit()), "{s:?}");
        }
    });
}

/// The IPv4 token pattern from the paper accepts every dotted quad.
#[test]
fn ipv4_token_accepts_dotted_quads() {
    let re = Regex::new(r"[0-9]+(\.[0-9]+){3}").unwrap();
    prop::check("ipv4_token_accepts_dotted_quads", 256, |rng| {
        let [a, b, c, d] = [(); 4].map(|_| rng.gen_range(0..=255u32));
        let quad = format!("{a}.{b}.{c}.{d}");
        assert!(re.is_full_match(&quad), "{quad}");
    });
}

/// Compiling never panics on arbitrary input (it may error).
#[test]
fn new_never_panics() {
    prop::check("new_never_panics", 256, |rng| {
        let _ = Regex::new(&printable(rng, 0..=24));
    });
}

/// Matching is deterministic: two runs agree.
#[test]
fn deterministic() {
    let re = Regex::new("(a|ab)*c?d+").unwrap();
    prop::check("deterministic", 256, |rng| {
        let s = string_of(rng, "abcd", 0..=24);
        assert_eq!(re.find(&s), re.find(&s), "{s:?}");
    });
}
