//! Differential testing: the Pike VM against a naive backtracking
//! reference matcher over the same AST, on seeded inputs from
//! `concord_rng::prop` (`CONCORD_PROP_SEED`, `CONCORD_PROP_CASES`).
//!
//! Every match on a thread reuses that thread's VM scratch, so checking
//! patterns of every size one after another on the test thread also pins
//! that no run sees state left by the one before.

use concord_regex::{Ast, ClassItem, ClassSet, Regex};
use concord_rng::prop::{self, pick, string_of};
use concord_rng::{Rng, StdRng};

/// A tiny backtracking matcher: returns every possible match length of
/// `ast` starting at `pos` (the VM's longest match must be its maximum).
fn match_lengths(ast: &Ast, chars: &[char], pos: usize, total_len: usize) -> Vec<usize> {
    match ast {
        Ast::Empty => vec![0],
        Ast::Literal(c) => {
            if chars.get(pos) == Some(c) {
                vec![1]
            } else {
                vec![]
            }
        }
        Ast::Dot => {
            if chars.get(pos).is_some_and(|&c| c != '\n') {
                vec![1]
            } else {
                vec![]
            }
        }
        Ast::Class(set) => {
            if chars.get(pos).is_some_and(|&c| set.contains(c)) {
                vec![1]
            } else {
                vec![]
            }
        }
        Ast::StartAnchor => {
            if pos == 0 {
                vec![0]
            } else {
                vec![]
            }
        }
        Ast::EndAnchor => {
            if pos == total_len {
                vec![0]
            } else {
                vec![]
            }
        }
        Ast::Concat(parts) => {
            let mut lengths = vec![0usize];
            for part in parts {
                let mut next = Vec::new();
                for &len in &lengths {
                    for extra in match_lengths(part, chars, pos + len, total_len) {
                        next.push(len + extra);
                    }
                }
                next.sort_unstable();
                next.dedup();
                if next.is_empty() {
                    return vec![];
                }
                lengths = next;
            }
            lengths
        }
        Ast::Alternate(branches) => {
            let mut lengths: Vec<usize> = branches
                .iter()
                .flat_map(|b| match_lengths(b, chars, pos, total_len))
                .collect();
            lengths.sort_unstable();
            lengths.dedup();
            lengths
        }
        Ast::Repeat { node, min, max } => {
            // Lengths achievable with exactly k repetitions, k from min to
            // max (past `min`, bounded by the input length to terminate).
            let cap = max.map_or(*min as usize + chars.len() + 1, |m| m as usize);
            let mut per_count = vec![0usize];
            let mut result: Vec<usize> = if *min == 0 { vec![0] } else { vec![] };
            for k in 1..=cap {
                let mut next = Vec::new();
                for &len in &per_count {
                    for extra in match_lengths(node, chars, pos + len, total_len) {
                        // Zero-width repetition loops forever; cut it.
                        if extra > 0 || k <= *min as usize {
                            next.push(len + extra);
                        }
                    }
                }
                next.sort_unstable();
                next.dedup();
                if next.is_empty() {
                    break;
                }
                if k >= *min as usize {
                    result.extend(&next);
                }
                per_count = next;
            }
            result.sort_unstable();
            result.dedup();
            result
        }
    }
}

/// A small random pattern: leaves combined up to `depth` levels deep by
/// concatenation, alternation and the quantifiers, rendered as a string.
fn arb_pattern(rng: &mut StdRng, depth: u32) -> String {
    if depth == 0 || rng.gen_bool(0.3) {
        return pick(rng, &["a", "b", "c", ".", "[ab]", "[^c]"]).to_string();
    }
    let a = arb_pattern(rng, depth - 1);
    match rng.gen_range(0..9u32) {
        0 | 1 => format!("{a}{}", arb_pattern(rng, depth - 1)),
        2 | 3 => format!("(?:{a}|{})", arb_pattern(rng, depth - 1)),
        4 => format!("(?:{a})*"),
        5 => format!("(?:{a})?"),
        6 => format!("(?:{a})+"),
        _ => format!(
            "(?:{a}){}",
            pick(rng, &["{1,2}", "{2}", "{0,3}", "{2,}", "{0}"])
        ),
    }
}

/// The VM's longest match equals the reference matcher's maximum match
/// length at every start position, with or without anchors around the
/// pattern and with multi-byte characters in the input.
#[test]
fn vm_agrees_with_backtracking_reference() {
    prop::check("vm_agrees_with_backtracking_reference", 200, |rng| {
        let mut pattern = arb_pattern(rng, 3);
        if rng.gen_bool(0.2) {
            pattern.insert(0, '^');
        }
        if rng.gen_bool(0.2) {
            pattern.push('$');
        }
        let input = string_of(rng, "aaabbbccc\u{e9}", 0..=8);
        let regex = Regex::new(&pattern).unwrap();
        let ast = parse_for_reference(&pattern);
        let chars: Vec<char> = input.chars().collect();
        for start in 0..=chars.len() {
            let byte_start: usize = chars[..start].iter().map(|c| c.len_utf8()).sum();
            let vm = regex.match_at(&input, byte_start);
            let expected = match_lengths(&ast, &chars, start, chars.len())
                .into_iter()
                .max()
                .map(|n| chars[start..start + n].iter().map(|c| c.len_utf8()).sum());
            assert_eq!(
                vm, expected,
                "pattern {pattern:?} input {input:?} start {start}"
            );
        }
    });
}

/// Re-parses a pattern into the public AST (the parser itself is under
/// test elsewhere; here it is the shared ground truth).
fn parse_for_reference(pattern: &str) -> Ast {
    // `Regex::new` validated the pattern; re-derive the AST through the
    // public parse path by rebuilding with the same grammar.
    concord_regex_parse(pattern)
}

/// Minimal mirror of the engine's grammar for test purposes, built on the
/// public `Ast` type. Panics on invalid input (inputs come from
/// `arb_pattern`, which only emits valid patterns).
fn concord_regex_parse(pattern: &str) -> Ast {
    // The engine does not expose its parser; reconstruct the AST with a
    // tiny recursive-descent parser for the restricted grammar used by
    // `arb_pattern`: literals a-c, `.`, anchors, classes, `(?:..|..)`,
    // postfix `*?+` and `{n}`, `{n,}`, `{n,m}` on groups.
    Parser {
        chars: pattern.chars().collect(),
        pos: 0,
    }
    .alternate()
}

struct Parser {
    chars: Vec<char>,
    pos: usize,
}

impl Parser {
    fn alternate(&mut self) -> Ast {
        let mut branches = vec![self.concat()];
        while self.eat('|') {
            branches.push(self.concat());
        }
        if branches.len() == 1 {
            branches.pop().unwrap()
        } else {
            Ast::Alternate(branches)
        }
    }

    fn concat(&mut self) -> Ast {
        let mut parts = Vec::new();
        while let Some(c) = self.peek() {
            if c == '|' || c == ')' {
                break;
            }
            parts.push(self.repeat());
        }
        match parts.len() {
            0 => Ast::Empty,
            1 => parts.pop().unwrap(),
            _ => Ast::Concat(parts),
        }
    }

    fn repeat(&mut self) -> Ast {
        let atom = self.atom();
        let (min, max) = match self.peek() {
            Some('*') => {
                self.pos += 1;
                (0, None)
            }
            Some('+') => {
                self.pos += 1;
                (1, None)
            }
            Some('?') => {
                self.pos += 1;
                (0, Some(1))
            }
            Some('{') => {
                self.pos += 1;
                let min = self.number();
                let max = if self.eat(',') {
                    (self.peek() != Some('}')).then(|| self.number())
                } else {
                    Some(min)
                };
                assert!(self.eat('}'));
                (min, max)
            }
            _ => return atom,
        };
        Ast::Repeat {
            node: Box::new(atom),
            min,
            max,
        }
    }

    fn atom(&mut self) -> Ast {
        match self.bump().unwrap() {
            '(' => {
                // Always `(?:`.
                self.pos += 2;
                let inner = self.alternate();
                assert!(self.eat(')'));
                inner
            }
            '[' => {
                let negated = self.eat('^');
                let mut items = Vec::new();
                loop {
                    let c = self.bump().unwrap();
                    if c == ']' {
                        break;
                    }
                    items.push(ClassItem::Char(c));
                }
                Ast::Class(ClassSet { items, negated })
            }
            '.' => Ast::Dot,
            '^' => Ast::StartAnchor,
            '$' => Ast::EndAnchor,
            c => Ast::Literal(c),
        }
    }

    fn number(&mut self) -> u32 {
        let mut n = 0;
        while let Some(d) = self.peek().and_then(|c| c.to_digit(10)) {
            n = n * 10 + d;
            self.pos += 1;
        }
        n
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek();
        if c.is_some() {
            self.pos += 1;
        }
        c
    }

    fn eat(&mut self, expected: char) -> bool {
        if self.peek() == Some(expected) {
            self.pos += 1;
            true
        } else {
            false
        }
    }
}
