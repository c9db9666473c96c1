//! Pins the lexer's lead checks.
//!
//! Before a built-in token's regex runs at a position, `TokenDef` checks a
//! byte-level lead that every match of that regex starts with (1-3 digits
//! then `.` for IPv4 shapes, at most four hex digits then `:` for IPv6 and
//! MAC shapes, one first character for the rest). The checks must only
//! skip positions where the regex cannot match, so `TokenDef::match_at`
//! must equal the unfiltered rule — the regex, the boolean word
//! boundaries, then the semantic parse — at every position of seeded
//! random text over the characters the leads look at, and of every
//! distinct line of the ten standard roles.

use std::collections::BTreeSet;

use concord_datagen::{generate_role, standard_roles};
use concord_lexer::{Lexer, TokenDef};
use concord_regex::Regex;
use concord_rng::prop::{self, pick, string_of};
use concord_rng::{Rng, StdRng};
use concord_types::{Value, ValueType};

/// The token rule without its lead check.
fn unfiltered(def: &TokenDef, regex: &Regex, text: &str, pos: usize) -> Option<usize> {
    let len = regex.match_at(text, pos).filter(|&len| len > 0)?;
    let word = |c: Option<char>| c.is_some_and(char::is_alphanumeric);
    if *def.ty() == ValueType::Bool
        && (word(text[..pos].chars().next_back()) || word(text[pos + len..].chars().next()))
    {
        return None;
    }
    Value::parse_as(def.ty(), &text[pos..pos + len])?;
    Some(len)
}

/// Compares every built-in token with its unfiltered rule at every
/// position of `text`, counting each token's matches into `matches`.
fn assert_leads_exact(defs: &[(TokenDef, Regex)], text: &str, matches: &mut [usize]) {
    for pos in (0..=text.len()).filter(|&pos| text.is_char_boundary(pos)) {
        for ((def, regex), count) in defs.iter().zip(matches.iter_mut()) {
            let got = def.match_at(text, pos);
            assert_eq!(
                got,
                unfiltered(def, regex, text, pos),
                "[{}] at byte {pos} of {text:?}",
                def.ty()
            );
            *count += usize::from(got.is_some());
        }
    }
}

fn builtins() -> Vec<(TokenDef, Regex)> {
    let defs = Lexer::standard().defs().to_vec();
    assert_eq!(defs.len(), 8, "every built-in token is covered");
    defs.into_iter()
        .map(|def| {
            let regex = Regex::new(def.pattern()).expect("built-in pattern compiles");
            (def, regex)
        })
        .collect()
}

const ALPHABET: &str = "0123456789abcdefABCDEF:./x- truefals";
const DIGITS: &str = "0123456789";
const HEX: &str = "0123456789abcdefABCDEF";
const WORDS: [&str; 5] = ["0x", "true", "false", " true ", "false "];

/// Random text over `0-9a-fA-F:./x-`, space and `truefals`: short runs of
/// any of those characters mixed with runs shaped like tokens and near
/// misses (2-8 digit groups joined by `.`, 2-8 hex groups of 0-4 digits
/// joined by `:`, a `/` length, `0x`, `true`, `false`).
fn random_text(rng: &mut StdRng) -> String {
    let mut text = String::new();
    for _ in 0..rng.gen_range(0..=8) {
        match rng.gen_range(0..5u32) {
            0 => text.push_str(&string_of(rng, ALPHABET, 1..=4)),
            1 => text.push_str(&groups(rng, DIGITS, 1, 3, ".")),
            2 => text.push_str(&groups(rng, HEX, 0, 4, ":")),
            3 => text.push_str(&format!("/{}", string_of(rng, DIGITS, 1..=3))),
            _ => {
                let word = *pick(rng, &WORDS);
                text.push_str(word);
            }
        }
    }
    text
}

/// 2-8 runs of `min..=max` characters from `alphabet`, joined by `sep`.
fn groups(rng: &mut StdRng, alphabet: &str, min: usize, max: usize, sep: &str) -> String {
    let n = rng.gen_range(2..=8);
    let runs: Vec<String> = (0..n)
        .map(|_| string_of(rng, alphabet, min..=max))
        .collect();
    runs.join(sep)
}

#[test]
fn lead_checks_match_the_unfiltered_rule_on_random_text() {
    let defs = builtins();
    let (mut cases, mut matches) = (0, vec![0; defs.len()]);
    prop::check("lead_checks_match_the_unfiltered_rule", 2000, |rng| {
        assert_leads_exact(&defs, &random_text(rng), &mut matches);
        cases += 1;
    });
    // At the default depth the text carries every token (the rarest,
    // `mac`, in about 2% of cases).
    for ((def, _), count) in defs.iter().zip(&matches) {
        assert!(
            *count > 0 || cases < 2000,
            "no [{}] in the random text",
            def.ty()
        );
    }
}

#[test]
fn lead_checks_match_the_unfiltered_rule_on_standard_roles() {
    let defs = builtins();
    let mut lines = BTreeSet::new();
    for spec in standard_roles(0.5) {
        let role = generate_role(&spec, 7);
        for (_, text) in role.configs.iter().chain(&role.metadata) {
            lines.extend(
                text.lines()
                    .map(str::trim)
                    .filter(|l| !l.is_empty())
                    .map(String::from),
            );
        }
    }
    assert!(lines.len() > 1000, "only {} distinct lines", lines.len());
    let mut matches = vec![0; defs.len()];
    for line in &lines {
        assert_leads_exact(&defs, line, &mut matches);
    }
    for ((def, _), count) in defs.iter().zip(&matches) {
        let common = [
            ValueType::Pfx4,
            ValueType::Ip4,
            ValueType::Ip6,
            ValueType::Mac,
            ValueType::Num,
        ];
        assert!(
            *count > 0 || !common.contains(def.ty()),
            "no [{}] in the roles",
            def.ty()
        );
    }
}
