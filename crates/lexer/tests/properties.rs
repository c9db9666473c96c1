//! Property tests for the pattern lexer, on seeded inputs from
//! `concord_rng::prop` (`CONCORD_PROP_SEED`, `CONCORD_PROP_CASES`).

use concord_lexer::{pattern_holes, type_agnostic_pattern, Lexer};
use concord_rng::prop::{self, printable, string_of};
use concord_rng::{Rng, StdRng};

const DIGITS: &str = "0123456789";
const LOWER: &str = "abcdefghijklmnopqrstuvwxyz";

/// A word followed by up to `max` space-separated words or numbers of up
/// to `digits` digits.
fn words(rng: &mut StdRng, max: usize, digits: usize) -> String {
    let mut line = string_of(rng, LOWER, 1..=8);
    for _ in 0..rng.gen_range(0..=max) {
        line.push(' ');
        line.push_str(&if rng.gen_bool(0.5) {
            string_of(rng, LOWER, 1..=8)
        } else {
            string_of(rng, DIGITS, 1..=digits)
        });
    }
    line
}

fn arb_config_line(rng: &mut StdRng) -> String {
    match rng.gen_range(0..4u32) {
        // Word/number mixes.
        0 => words(rng, 4, 5),
        // Lines with addresses and prefixes.
        1 => {
            let [a, b, c] = [(); 3].map(|_| rng.gen_range(0..=255u8));
            let len = rng.gen_range(0..=32u8);
            format!("ip address 10.{a}.{b}.{c} or 10.{a}.{b}.0/{len}")
        }
        // MAC-bearing lines.
        2 => {
            let o = [(); 6].map(|_| rng.gen_range(0..=255u8));
            format!(
                "route-target import {:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
                o[0], o[1], o[2], o[3], o[4], o[5]
            )
        }
        // Arbitrary printable noise.
        _ => printable(rng, 0..=60),
    }
}

/// Lexing is total, deterministic, and binds one parameter per bound hole.
#[test]
fn lexing_total_and_consistent() {
    let lexer = Lexer::standard();
    prop::check("lexing_total_and_consistent", 256, |rng| {
        let line = arb_config_line(rng);
        let (pattern, params) = lexer.lex_fragment(&line);
        assert_eq!(lexer.lex_fragment(&line), (pattern.clone(), params.clone()));

        let holes = pattern_holes(&pattern);
        let bound: Vec<_> = holes.iter().filter(|(name, _)| !name.is_empty()).collect();
        assert_eq!(bound.len(), params.len(), "{line:?} -> {pattern:?}");
        for ((_, hole_ty), param) in bound.iter().zip(&params) {
            assert_eq!(hole_ty, &param.ty, "{line:?}");
        }
    });
}

/// Parameter names are `a`, `b`, `c`, ... in order of appearance.
#[test]
fn parameter_names_sequential() {
    let lexer = Lexer::standard();
    prop::check("parameter_names_sequential", 256, |rng| {
        let line = arb_config_line(rng);
        let (_, params) = lexer.lex_fragment(&line);
        for (i, param) in params.iter().enumerate().take(26) {
            assert_eq!(
                param.name,
                ((b'a' + i as u8) as char).to_string(),
                "{line:?}"
            );
        }
    });
}

/// Substituting rendered values back into the pattern and re-lexing
/// yields the same pattern, for value-stable token types. (`hex` renders
/// as decimal, so lines containing `0x` literals are excluded by
/// construction here.)
#[test]
fn relex_of_substituted_pattern_is_stable() {
    let lexer = Lexer::standard();
    prop::check("relex_of_substituted_pattern_is_stable", 256, |rng| {
        let mut line = string_of(rng, LOWER, 1..=8);
        for _ in 0..rng.gen_range(0..=3) {
            line.push(' ');
            if rng.gen_bool(0.5) {
                line.push_str(&string_of(rng, DIGITS, 1..=4));
            } else {
                let [a, b, c] = [(); 3].map(|_| string_of(rng, DIGITS, 1..=3));
                line.push_str(&format!("10.{a}.{b}.{c}"));
            }
        }
        let (pattern, params) = lexer.lex_fragment(&line);
        // Rebuild the line from the pattern by splicing values back in.
        let mut rebuilt = String::new();
        let mut values = params.iter();
        let mut rest = pattern.as_str();
        while let Some(start) = rest.find('[') {
            rebuilt.push_str(&rest[..start]);
            let end = rest[start..].find(']').map(|e| start + e).unwrap();
            rebuilt.push_str(&values.next().unwrap().value.render());
            rest = &rest[end + 1..];
        }
        rebuilt.push_str(rest);
        let (pattern2, _) = lexer.lex_fragment(&rebuilt);
        assert_eq!(pattern, pattern2, "line {line:?} rebuilt {rebuilt:?}");
    });
}

/// The embedded pattern of a line always starts with its parents'
/// anonymous patterns.
#[test]
fn embedded_pattern_prefix() {
    let lexer = Lexer::standard();
    let word_and_number = |rng: &mut StdRng| {
        format!(
            "{} {}",
            string_of(rng, LOWER, 1..=8),
            string_of(rng, DIGITS, 1..=4)
        )
    };
    prop::check("embedded_pattern_prefix", 256, |rng| {
        let parent = word_and_number(rng);
        let lexed = lexer.lex_line(std::slice::from_ref(&parent), &word_and_number(rng), 1);
        assert!(lexed.pattern.starts_with('/'));
        // The parent segment contains an anonymous hole, not a bound one.
        let first_segment = lexed.pattern[1..].split('/').next().unwrap();
        assert!(!first_segment.contains(':'), "{}", lexed.pattern);
    });
}

/// The type-agnostic rewrite is idempotent and erases every hole.
#[test]
fn agnostic_rewrite_idempotent() {
    let lexer = Lexer::standard();
    prop::check("agnostic_rewrite_idempotent", 256, |rng| {
        let (pattern, _) = lexer.lex_fragment(&arb_config_line(rng));
        let agnostic = type_agnostic_pattern(&pattern);
        assert_eq!(type_agnostic_pattern(&agnostic), agnostic);
        for (name, _) in pattern_holes(&agnostic) {
            assert!(name.is_empty(), "{agnostic:?}");
        }
    });
}
