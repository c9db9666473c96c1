#![warn(missing_docs)]

//! A small regular-expression engine used by the Concord lexer.
//!
//! The engine implements the classic pipeline: a recursive-descent parser
//! builds an [`Ast`], the compiler lowers it to a Thompson NFA program,
//! and a Pike-style virtual machine simulates the NFA over the input. The simulation tracks every live thread at once, so
//! matching is linear in the input size with no exponential backtracking.
//!
//! Unlike general-purpose engines, the matcher is tuned for tokenization:
//! [`Regex::match_at`] returns the *longest* match starting at a given
//! position (leftmost-longest, POSIX style), which is exactly the rule a
//! maximal-munch lexer needs.
//!
//! Supported syntax: literals, `.`, escapes (`\d`, `\w`, `\s`, `\D`, `\W`,
//! `\S`, and escaped metacharacters), character classes with ranges and
//! negation (`[a-z0-9]`, `[^:]`), alternation, grouping (`(...)` and
//! `(?:...)`), the quantifiers `*`, `+`, `?`, `{n}`, `{n,}`, `{n,m}`, and
//! the anchors `^` and `$`.
//!
//! A bounded repetition compiles to one copy of its body per repetition,
//! so [`Regex::new`] refuses a pattern whose program would exceed 10,000
//! instructions (`x{20000}`, or `(x{100}){200}`) instead of allocating it;
//! the largest pattern the Concord lexer builds in needs 312. The limit
//! also bounds the scratch each matching thread keeps: matching reuses one
//! pair of thread sets per thread and allocates nothing once it is warm.
//!
//! # Examples
//!
//! ```
//! use concord_regex::Regex;
//!
//! let re = Regex::new(r"[0-9]+(\.[0-9]+){3}").unwrap();
//! assert!(re.is_full_match("10.14.14.34"));
//! assert_eq!(re.match_at("ip address 10.0.0.1 secondary", 11), Some(8));
//! ```

mod ast;
mod compile;
mod parse;
mod program;
mod vm;

pub use ast::{Ast, ClassItem, ClassSet};
pub use parse::ParseError;

use program::Program;

/// A compiled regular expression.
///
/// Construction validates and compiles the pattern once; matching never
/// fails and runs in `O(len(input) * len(program))` time.
#[derive(Debug, Clone)]
pub struct Regex {
    pattern: String,
    program: Program,
}

impl Regex {
    /// Compiles `pattern` into a [`Regex`].
    ///
    /// Returns a [`ParseError`] describing the offending position when the
    /// pattern is malformed, or when it would compile to more than 10,000
    /// instructions (see the crate docs).
    ///
    /// # Examples
    ///
    /// ```
    /// use concord_regex::Regex;
    ///
    /// assert!(Regex::new("a|b").is_ok());
    /// assert!(Regex::new("a{3,1}").is_err());
    /// ```
    pub fn new(pattern: &str) -> Result<Self, ParseError> {
        let ast = parse::parse(pattern)?;
        if compile::program_len(&ast) > compile::MAX_PROGRAM_LEN {
            return Err(ParseError {
                position: pattern.len(),
                message: format!(
                    "pattern compiles to more than {} instructions",
                    compile::MAX_PROGRAM_LEN
                ),
            });
        }
        let program = compile::compile(&ast);
        Ok(Regex {
            pattern: pattern.to_string(),
            program,
        })
    }

    /// Returns the source pattern this regex was compiled from.
    pub fn pattern(&self) -> &str {
        &self.pattern
    }

    /// Returns the length (in bytes) of the longest match starting exactly
    /// at byte offset `start`, or `None` if no match starts there.
    ///
    /// A zero-length match is reported as `Some(0)` only when the pattern
    /// can match the empty string.
    ///
    /// # Panics
    ///
    /// Panics if `start` is not a character boundary of `text`.
    pub fn match_at(&self, text: &str, start: usize) -> Option<usize> {
        vm::longest_match_at(&self.program, text, start)
    }

    /// Returns `true` if the whole of `text` matches the pattern.
    pub fn is_full_match(&self, text: &str) -> bool {
        self.match_at(text, 0) == Some(text.len())
    }

    /// Returns `true` if the pattern matches anywhere in `text`.
    pub fn is_match(&self, text: &str) -> bool {
        self.find(text).is_some()
    }

    /// Finds the leftmost-longest match in `text`.
    ///
    /// Returns the byte range of the match, or `None` when the pattern does
    /// not occur. A zero-length match is reported only when the pattern can
    /// match the empty string.
    pub fn find(&self, text: &str) -> Option<(usize, usize)> {
        let mut start = 0;
        loop {
            if let Some(len) = self.match_at(text, start) {
                if len > 0 || self.program.matches_empty {
                    return Some((start, start + len));
                }
            }
            match text[start..].chars().next() {
                Some(c) => start += c.len_utf8(),
                None => return None,
            }
        }
    }

    /// Finds all non-overlapping leftmost-longest matches in `text`.
    ///
    /// Zero-length matches advance the scan position by one character so
    /// the iteration always terminates.
    pub fn find_all(&self, text: &str) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        let mut pos = 0;
        while pos <= text.len() {
            let rest = &text[pos..];
            match self.find(rest) {
                Some((s, e)) => {
                    out.push((pos + s, pos + e));
                    if e > s {
                        pos += e;
                    } else {
                        // Zero-length match: step over one character.
                        pos += s + rest[s..].chars().next().map(|c| c.len_utf8()).unwrap_or(1);
                    }
                }
                None => break,
            }
        }
        out
    }
}

impl std::fmt::Display for Regex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.pattern)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn re(p: &str) -> Regex {
        Regex::new(p).unwrap_or_else(|e| panic!("pattern {p:?} failed: {e}"))
    }

    #[test]
    fn literal_match() {
        let r = re("abc");
        assert!(r.is_full_match("abc"));
        assert!(!r.is_full_match("ab"));
        assert!(!r.is_full_match("abcd"));
        assert_eq!(r.find("xxabcxx"), Some((2, 5)));
    }

    #[test]
    fn alternation() {
        let r = re("true|false");
        assert!(r.is_full_match("true"));
        assert!(r.is_full_match("false"));
        assert!(!r.is_full_match("truefalse"));
    }

    #[test]
    fn alternation_prefers_longest() {
        // POSIX longest-match semantics: "ab" wins over "a".
        let r = re("a|ab");
        assert_eq!(r.match_at("ab", 0), Some(2));
    }

    #[test]
    fn star_and_plus() {
        let r = re("ab*c");
        assert!(r.is_full_match("ac"));
        assert!(r.is_full_match("abbbc"));
        let r = re("ab+c");
        assert!(!r.is_full_match("ac"));
        assert!(r.is_full_match("abc"));
    }

    #[test]
    fn optional() {
        let r = re("colou?r");
        assert!(r.is_full_match("color"));
        assert!(r.is_full_match("colour"));
    }

    #[test]
    fn bounded_repeat() {
        let r = re("a{2,3}");
        assert!(!r.is_full_match("a"));
        assert!(r.is_full_match("aa"));
        assert!(r.is_full_match("aaa"));
        assert!(!r.is_full_match("aaaa"));
        let r = re("a{3}");
        assert!(r.is_full_match("aaa"));
        assert!(!r.is_full_match("aa"));
        let r = re("a{2,}");
        assert!(r.is_full_match("aaaaa"));
        assert!(!r.is_full_match("a"));
    }

    #[test]
    fn char_class() {
        let r = re("[a-c0-2]+");
        assert!(r.is_full_match("ab012c"));
        assert!(!r.is_full_match("d"));
        let r = re("[^:]+");
        assert!(r.is_full_match("abc"));
        assert!(!r.is_match(":"));
    }

    #[test]
    fn class_with_escape_and_literal_dash() {
        let r = re(r"[\d-]+");
        assert!(r.is_full_match("12-34"));
        let r = re(r"[a\]b]+");
        assert!(r.is_full_match("a]b"));
    }

    #[test]
    fn dot_matches_any_but_newline() {
        let r = re("a.c");
        assert!(r.is_full_match("abc"));
        assert!(r.is_full_match("a=c"));
        assert!(!r.is_full_match("a\nc"));
    }

    #[test]
    fn escapes() {
        assert!(re(r"\d+").is_full_match("12345"));
        assert!(re(r"\w+").is_full_match("abc_123"));
        assert!(re(r"\s+").is_full_match(" \t"));
        assert!(re(r"\D+").is_full_match("ab-"));
        assert!(!re(r"\D").is_match("7"));
        assert!(re(r"\.").is_full_match("."));
        assert!(!re(r"\.").is_match("a"));
        assert!(re(r"\\").is_full_match("\\"));
    }

    #[test]
    fn anchors() {
        let r = re("^abc$");
        assert!(r.is_full_match("abc"));
        assert_eq!(r.find("xabc"), None);
        let r = re("abc$");
        assert_eq!(r.find("xxabc"), Some((2, 5)));
        assert_eq!(r.find("abcx"), None);
    }

    #[test]
    fn grouping() {
        let r = re("(ab)+");
        assert!(r.is_full_match("ababab"));
        assert!(!r.is_full_match("aba"));
        let r = re("(?:ab|cd)e");
        assert!(r.is_full_match("abe"));
        assert!(r.is_full_match("cde"));
    }

    #[test]
    fn ipv4_pattern() {
        let r = re(r"[0-9]+(\.[0-9]+){3}");
        assert!(r.is_full_match("10.14.14.34"));
        assert!(r.is_full_match("0.0.0.0"));
        assert!(!r.is_full_match("10.14.14"));
        assert_eq!(r.match_at("10.1.2.3/24", 0), Some(8));
    }

    #[test]
    fn prefix_pattern() {
        let r = re(r"[0-9]+(\.[0-9]+){3}/[0-9]+");
        assert!(r.is_full_match("10.1.2.0/24"));
        assert!(!r.is_full_match("10.1.2.0"));
    }

    #[test]
    fn mac_pattern() {
        let r = re("[0-9a-zA-Z]+(:[0-9a-zA-Z]+){5}");
        assert!(r.is_full_match("00:00:0c:d3:00:6e"));
        assert!(!r.is_full_match("00:00:0c:d3:00"));
    }

    #[test]
    fn iface_pattern() {
        let r = re("([aA]e|[eE]t)-?[0-9]+");
        assert!(r.is_full_match("Et1"));
        assert!(r.is_full_match("ae-42"));
        assert!(!r.is_full_match("xe-0"));
    }

    #[test]
    fn match_at_mid_string() {
        let r = re(r"\d+");
        assert_eq!(r.match_at("abc 123 def", 4), Some(3));
        assert_eq!(r.match_at("abc 123 def", 0), None);
    }

    #[test]
    fn longest_match_wins() {
        let r = re(r"\d+");
        assert_eq!(r.match_at("123456", 0), Some(6));
        let r = re("a*");
        assert_eq!(r.match_at("aaab", 0), Some(3));
        assert_eq!(r.match_at("b", 0), Some(0));
    }

    #[test]
    fn find_all_non_overlapping() {
        let r = re(r"\d+");
        assert_eq!(r.find_all("a1b22c333"), vec![(1, 2), (3, 5), (6, 9)]);
    }

    #[test]
    fn empty_pattern_matches_empty() {
        let r = re("");
        assert_eq!(r.match_at("abc", 0), Some(0));
        assert!(r.is_full_match(""));
    }

    #[test]
    fn parse_errors() {
        assert!(Regex::new("a{3,1}").is_err());
        assert!(Regex::new("(ab").is_err());
        assert!(Regex::new("ab)").is_err());
        assert!(Regex::new("[abc").is_err());
        assert!(Regex::new("*a").is_err());
        assert!(Regex::new(r"\q").is_err());
        assert!(Regex::new("a{").is_err());
    }

    #[test]
    fn program_size_is_limited() {
        for pattern in [
            "x{20000}",
            "(x{100}){200}",
            "x{4294967295}",
            "(x{65536}){65536}",
        ] {
            let err = Regex::new(pattern).unwrap_err();
            assert!(
                err.message.contains("10000 instructions"),
                "{pattern}: {err}"
            );
        }
        // Exactly at the limit: 9999 characters and the final `Match`.
        let r = re("x{9999}");
        assert_eq!(r.program.len(), compile::MAX_PROGRAM_LEN);
        assert!(r.is_full_match(&"x".repeat(9999)));
        // The largest built-in lexer token, `pfx6`, sits far below it.
        let g = "[0-9a-fA-F]{1,4}";
        let ip6 =
            format!("(({g}:){{7}}{g}|({g}:){{1,7}}:|({g}:){{1,6}}(:{g}){{1,6}}|:(:{g}){{1,7}}|::)");
        assert_eq!(re(&format!("{ip6}/[0-9]{{1,3}}")).program.len(), 312);
        assert_eq!(re(&ip6).program.len(), 306);
    }

    #[test]
    fn brace_without_digits_is_literal() {
        // `{` not followed by a valid bound spec is treated as an error by
        // this engine (strict mode), matching the documented grammar.
        assert!(Regex::new("a{x}").is_err());
    }

    #[test]
    fn unicode_input() {
        let r = re("é+");
        assert!(r.is_full_match("ééé"));
        let r = re(".");
        assert!(r.is_full_match("é"));
    }

    #[test]
    fn nested_repetition_no_blowup() {
        // A classic catastrophic-backtracking pattern; the Pike VM must
        // stay linear.
        let r = re("(a+)+$");
        let input = "a".repeat(64) + "b";
        assert!(!r.is_match(&input));
    }

    #[test]
    fn display_roundtrip() {
        let r = re("ab|cd");
        assert_eq!(r.to_string(), "ab|cd");
        assert_eq!(r.pattern(), "ab|cd");
    }
}
