//! Pins the lexer's lead checks and its byte scanner.
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
//!
//! The lexer scans `num`, `hex`, `ip4`, `pfx4` and `bool` by hand. So
//! `Lexer::lex_line` must equal a reference maximal munch over the same
//! unfiltered rule: at each character, the longest valid match of any
//! definition wins, ties go to the earlier definition, unmatched text is
//! copied, and parents lex anonymously. This is checked for the standard
//! lexer and for one whose custom tokens overlap the built-ins, on random
//! text and on every distinct line of the ten roles.

use std::collections::BTreeSet;

use concord_datagen::{generate_role, standard_roles};
use concord_lexer::{LexedLine, Lexer, Param, TokenDef};
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

/// Every distinct trimmed line of the ten standard roles at scale 0.5.
fn role_lines() -> BTreeSet<String> {
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
    lines
}

#[test]
fn lead_checks_match_the_unfiltered_rule_on_standard_roles() {
    let defs = builtins();
    let lines = role_lines();
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

/// A lexer's definitions, each with its own copy of its regex.
fn with_regexes(lexer: &Lexer) -> Vec<(TokenDef, Regex)> {
    lexer
        .defs()
        .iter()
        .map(|def| {
            let regex = Regex::new(def.pattern()).expect("token pattern compiles");
            (def.clone(), regex)
        })
        .collect()
}

/// The standard lexer and one whose custom tokens overlap the built-ins:
/// `iface` starts inside words, and `dotted` ties with `num` on every
/// digit run and with `ip4` on every address, where it must win as the
/// earlier definition.
fn lexers() -> Vec<(Lexer, Vec<(TokenDef, Regex)>)> {
    let custom = Lexer::with_custom([
        ("iface", "([eE]t|ae)-?[0-9]+"),
        ("dotted", r"[0-9]+(\.[0-9]+)*"),
    ])
    .expect("custom tokens compile");
    [Lexer::standard(), custom]
        .into_iter()
        .map(|lexer| {
            let defs = with_regexes(&lexer);
            (lexer, defs)
        })
        .collect()
}

/// The reference scanner: maximal munch over every definition's
/// unfiltered rule at every character, the longest valid match winning
/// and ties going to the earlier definition. Binds parameters named as
/// the lexer names them when `params` is given.
fn reference_fragment(
    defs: &[(TokenDef, Regex)],
    text: &str,
    mut params: Option<&mut Vec<Param>>,
) -> String {
    let mut pattern = String::new();
    let mut pos = 0;
    while pos < text.len() {
        let mut best: Option<(usize, usize)> = None;
        for (i, (def, regex)) in defs.iter().enumerate() {
            if let Some(len) = unfiltered(def, regex, text, pos) {
                if best.is_none_or(|(_, best_len)| len > best_len) {
                    best = Some((i, len));
                }
            }
        }
        let Some((i, len)) = best else {
            let c = text[pos..].chars().next().expect("in bounds");
            pattern.push(c);
            pos += c.len_utf8();
            continue;
        };
        let ty = defs[i].0.ty();
        match params.as_deref_mut() {
            Some(params) => {
                let n = params.len();
                let letter = char::from(b'a' + (n % 26) as u8);
                let name = match n / 26 {
                    0 => letter.to_string(),
                    round => format!("{letter}{round}"),
                };
                pattern.push_str(&format!("[{name}:{}]", ty.name()));
                let value = Value::parse_as(ty, &text[pos..pos + len]).expect("validated");
                params.push(Param {
                    name,
                    ty: ty.clone(),
                    value,
                });
            }
            None => pattern.push_str(&format!("[{}]", ty.name())),
        }
        pos += len;
    }
    pattern
}

fn reference_line(defs: &[(TokenDef, Regex)], parents: &[String], original: &str) -> LexedLine {
    let mut pattern = String::new();
    for parent in parents {
        pattern.push('/');
        pattern.push_str(&reference_fragment(defs, parent, None));
    }
    pattern.push('/');
    let mut params = Vec::new();
    pattern.push_str(&reference_fragment(defs, original, Some(&mut params)));
    LexedLine {
        pattern,
        params,
        line_no: 1,
        original: original.to_string(),
    }
}

fn assert_scanner_exact(
    lexer: &Lexer,
    defs: &[(TokenDef, Regex)],
    parents: &[String],
    original: &str,
) {
    assert_eq!(
        lexer.lex_line(parents, original, 1),
        reference_line(defs, parents, original),
        "lexing {original:?} under {parents:?}"
    );
}

/// Random text for the scanner: the lead alphabet plus `0X` and non-ASCII
/// letters and punctuation, runs of 1-4 digits joined by `.` (a last
/// octet of four digits, `999.1.1.1`), hex groups joined by `:`, `/`
/// lengths, and `true`/`false` beside ASCII and non-ASCII word
/// characters.
fn scanner_text(rng: &mut StdRng) -> String {
    const WIDE: &str = "0123456789abcdefABCDEF:./xX- truefalsEt\u{e9}\u{df}\u{65e5}\u{b7}";
    const WORDS: [&str; 8] = [
        "0x",
        "0X",
        "true",
        "false",
        "\u{e9}true",
        "false\u{df}",
        "\u{b7}true\u{b7}",
        "ae",
    ];
    let mut text = String::new();
    for _ in 0..rng.gen_range(0..=8) {
        match rng.gen_range(0..6u32) {
            0 => text.push_str(&string_of(rng, WIDE, 1..=4)),
            1 => text.push_str(&groups(rng, DIGITS, 1, 4, ".")),
            2 => text.push_str(&groups(rng, HEX, 0, 4, ":")),
            3 => text.push_str(&format!("/{}", string_of(rng, DIGITS, 1..=3))),
            4 => text.push_str(&groups(rng, DIGITS, 1, 3, ".")),
            _ => {
                let word = *pick(rng, &WORDS);
                text.push_str(word);
            }
        }
    }
    text
}

#[test]
fn byte_scanner_matches_the_reference_munch_on_random_text() {
    let lexers = lexers();
    prop::check("byte_scanner_matches_the_reference_munch", 2000, |rng| {
        let parents: Vec<String> = (0..rng.gen_range(0..=2))
            .map(|_| scanner_text(rng))
            .collect();
        let original = scanner_text(rng);
        for (lexer, defs) in &lexers {
            assert_scanner_exact(lexer, defs, &parents, &original);
        }
    });
}

#[test]
fn byte_scanner_matches_the_reference_munch_on_standard_roles() {
    let lines: Vec<String> = role_lines().into_iter().collect();
    for (lexer, defs) in &lexers() {
        // Each line once as an original, under the line before it as an
        // anonymous parent.
        for pair in lines.windows(2) {
            assert_scanner_exact(lexer, defs, &pair[..1], &pair[1]);
        }
    }
}

#[test]
fn byte_scanner_keeps_the_documented_rules() {
    let lexer = Lexer::standard();
    let pattern = |text: &str| lexer.lex_fragment(text).0;
    // A longest match that fails validation yields no token, with no
    // shorter fallback.
    assert_eq!(pattern("999.1.1.1"), "[a:num].[b:num].[c:num].[d:num]");
    assert_eq!(pattern("1.2.3.456"), "[a:num].[b:num].[c:num].[d:num]");
    // The last octet takes at most three digits; a prefix needs the
    // octet's whole digit run to end at `/`.
    assert_eq!(pattern("1.2.3.1234"), "[a:ip4][b:num]");
    assert_eq!(pattern("1.2.3.1234/24"), "[a:ip4][b:num]/[c:num]");
    assert_eq!(pattern("1.2.3.4/245"), "[a:pfx4][b:num]");
    // `0x` is lowercase only.
    assert_eq!(pattern("0x1f 0X1f"), "[a:hex] [b:num]X[c:num]f");
    // The `bool` boundaries test Unicode alphanumerics.
    assert_eq!(
        pattern("\u{e9}true \u{b7}true\u{b7}"),
        "\u{e9}true \u{b7}[a:bool]\u{b7}"
    );
}
