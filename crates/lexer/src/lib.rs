#![warn(missing_docs)]

//! Pattern and value extraction (§3.2 of the paper).
//!
//! The lexer separates each configuration line into a *typed pattern* and a
//! *parameter map*. The line
//!
//! ```text
//! rd 10.14.14.117:10251
//! ```
//!
//! becomes the pattern `rd [a:ip4]:[b:num]` with parameters
//! `{a ↦ 10.14.14.117, b ↦ 10251}`. Patterns identify configuration lines
//! that differ only in their data, which is what lets Concord learn
//! contracts such as "every loopback address is permitted by a prefix
//! list".
//!
//! Token types follow Table 1 of the paper: built-ins for numbers, hex
//! numbers, booleans, MAC addresses, IPv4/IPv6 addresses and prefixes, plus
//! user-defined types supplied as custom regular expressions (which take
//! precedence over the built-ins, like `[iface]` and `[descr]` in the
//! paper). Every regex match is validated semantically (e.g. `999.1.1.1`
//! matches the IPv4 regex but is rejected by the parser), and the longest
//! valid candidate wins, with earlier definitions breaking ties.
//!
//! The regexes of [`TokenDef`] are the specification. The scanner reads
//! `num`, `hex`, `ip4`, `pfx4` and `bool` with byte tests that take the
//! longest match of each regex, and validates it with the same
//! [`Value::parse_as`], keeping the parsed value for the parameter. Only
//! a lead of at most four hex digits and `:` runs the `ip6`, `pfx6` and
//! `mac` regexes, and custom definitions run theirs at every position.
//! `tests/lexer_lead_checks.rs` pins [`Lexer::lex_line`] to a maximal
//! munch over the regexes alone.
//!
//! Parent context from embedding is lexed *anonymously*: holes in parent
//! components render as `[num]` with no variable, because Concord does not
//! bind variables for embedded context (§3.2, footnote 2).
//!
//! # Examples
//!
//! ```
//! use concord_lexer::Lexer;
//!
//! let lexer = Lexer::standard();
//! let lexed = lexer.lex_line(&["router bgp 65015".to_string()], "vlan 251", 21);
//! assert_eq!(lexed.pattern, "/router bgp [num]/vlan [a:num]");
//! assert_eq!(lexed.params.len(), 1);
//! assert_eq!(lexed.params[0].value.render(), "251");
//! ```

mod cache;
mod token;

pub use cache::{CacheStats, LexCache};
pub use token::{TokenDef, TokenDefError};

use concord_types::{Value, ValueType};
use token::run_len;

/// A named, typed parameter extracted from a line.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Param {
    /// The variable name (`a`, `b`, ..., then `a1`, `b1`, ...).
    pub name: String,
    /// The token type the value was extracted as.
    pub ty: ValueType,
    /// The extracted value.
    pub value: Value,
}

/// A configuration line after lexing: its full embedded typed pattern plus
/// the parameters bound from the original (non-context) text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexedLine {
    /// The typed pattern of the embedded line, e.g.
    /// `/interface Port-Channel[num]/route-target import [a:mac]`.
    pub pattern: String,
    /// Parameters bound from the original line, in order of appearance.
    pub params: Vec<Param>,
    /// 1-based source line number.
    pub line_no: u32,
    /// The trimmed original source text (without embedded context).
    pub original: String,
}

/// The Concord lexer: an ordered list of token definitions.
#[derive(Debug, Clone)]
pub struct Lexer {
    defs: Vec<TokenDef>,
    /// Number of user-defined definitions, which precede the built-ins.
    custom: usize,
}

/// The token the scanner chose at one position.
struct Token {
    /// Index of the winning definition.
    def: usize,
    /// Its length in bytes.
    len: usize,
    /// Its value, when the scan already parsed it to validate the token.
    value: Option<Value>,
}

/// The best candidate offered at one position so far: the longest, and
/// of equally long ones the earliest definition.
#[derive(Default)]
struct Best(Option<Token>);

impl Best {
    fn offer(&mut self, def: usize, len: usize, value: Option<Value>) {
        let better = match &self.0 {
            Some(best) => len > best.len || (len == best.len && def < best.def),
            None => true,
        };
        if better {
            self.0 = Some(Token { def, len, value });
        }
    }
}

/// Whether a built-in token can start at byte `b`: a digit (`num`,
/// `hex`, `ip4`, `pfx4`), a hex letter or `:` (the HexColon lead of
/// `ip6`, `pfx6` and `mac`), or the `t` of `true` (`f` is a hex letter).
fn may_start_builtin(b: u8) -> bool {
    b.is_ascii_hexdigit() || b == b':' || b == b't'
}

/// The IPv4 shape at the start of `rest`, as the built-in regexes read
/// it: three octets of 1-3 digits each followed by `.`, then the last
/// octet's digit run. Returns the byte length of the `ip4` candidate (the
/// last octet takes at most three digits) and, when that whole digit run
/// has at most three digits and is followed by `/` and a digit, of the
/// `pfx4` candidate (the length takes at most two digits).
fn dotted_quad(rest: &[u8]) -> Option<(usize, Option<usize>)> {
    let digit = u8::is_ascii_digit;
    let mut at = 0;
    for _ in 0..3 {
        let n = run_len(&rest[at..], 4, digit);
        if !(1..=3).contains(&n) || rest.get(at + n) != Some(&b'.') {
            return None;
        }
        at += n + 1;
    }
    let last = run_len(&rest[at..], 4, digit);
    if last == 0 {
        return None;
    }
    let slash = at + last;
    let pfx4 = (last <= 3 && rest.get(slash) == Some(&b'/'))
        .then(|| run_len(&rest[slash + 1..], 2, digit))
        .filter(|&n| n > 0)
        .map(|n| slash + 1 + n);
    Some((at + last.min(3), pfx4))
}

/// Byte length of the UTF-8 character led by byte `b`.
fn utf8_len(b: u8) -> usize {
    match b {
        0..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

impl Lexer {
    /// Builds the standard lexer with the built-in token types of Table 1.
    pub fn standard() -> Lexer {
        Lexer {
            defs: token::builtin_defs(),
            custom: 0,
        }
    }

    /// Builds a lexer with user-defined token types layered *before* the
    /// built-ins (custom definitions win ties, mirroring Table 1 where
    /// user patterns sit above the dotted line).
    ///
    /// Each definition is a `(name, regex)` pair; the extracted values are
    /// strings typed as [`ValueType::Custom`].
    pub fn with_custom<I, S>(custom: I) -> Result<Lexer, TokenDefError>
    where
        I: IntoIterator<Item = (S, S)>,
        S: AsRef<str>,
    {
        let mut defs = Vec::new();
        for (name, pattern) in custom {
            defs.push(TokenDef::custom(name.as_ref(), pattern.as_ref())?);
        }
        let custom = defs.len();
        defs.extend(token::builtin_defs());
        Ok(Lexer { defs, custom })
    }

    /// Returns the token definitions in matching priority order.
    pub fn defs(&self) -> &[TokenDef] {
        &self.defs
    }

    /// Lexes a full embedded line: anonymous patterns for the parents,
    /// bound parameters for the original text.
    pub fn lex_line(&self, parents: &[String], original: &str, line_no: u32) -> LexedLine {
        let (mut pattern, mut params) = (String::new(), Vec::new());
        self.lex_into(parents, original, &mut pattern, &mut params);
        LexedLine {
            pattern,
            params,
            line_no,
            original: original.to_string(),
        }
    }

    /// Lexes a full embedded line into `pattern` and `params`, clearing
    /// both first: the pattern and parameters [`Lexer::lex_line`] returns,
    /// written into buffers a caller reuses across lines.
    pub fn lex_into(
        &self,
        parents: &[String],
        original: &str,
        pattern: &mut String,
        params: &mut Vec<Param>,
    ) {
        pattern.clear();
        params.clear();
        for parent in parents {
            pattern.push('/');
            self.fragment_pattern(parent, pattern, None);
        }
        pattern.push('/');
        self.fragment_pattern(original, pattern, Some(params));
    }

    /// Like [`Lexer::lex_into`], through a shared [`LexCache`]: a shape
    /// the cache holds replays its memoized pattern and parameters, and a
    /// new one is scanned and memoized.
    ///
    /// The result is identical to [`Lexer::lex_into`] as long as `cache`
    /// is only ever used with lexers holding the same token definitions.
    pub fn lex_into_cached(
        &self,
        cache: &LexCache,
        parents: &[String],
        original: &str,
        pattern: &mut String,
        params: &mut Vec<Param>,
    ) {
        cache.lex_through(
            LexCache::key(parents, original),
            pattern,
            params,
            |pattern, params| self.lex_into(parents, original, pattern, params),
        );
    }

    /// Lexes a standalone fragment, binding parameters.
    ///
    /// Returns the typed pattern and the extracted parameters.
    pub fn lex_fragment(&self, text: &str) -> (String, Vec<Param>) {
        let (mut pattern, mut params) = (String::with_capacity(text.len()), Vec::new());
        self.fragment_pattern(text, &mut pattern, Some(&mut params));
        (pattern, params)
    }

    /// Core scanning loop: maximal munch over the token definitions,
    /// appending `text`'s typed pattern to `pattern`.
    ///
    /// With `params = None` the holes render anonymously (`[ty]`);
    /// otherwise they bind fresh variables (`[a:ty]`) and push values.
    /// Text between tokens is copied a run at a time; with no custom
    /// definitions, bytes no built-in can start at are skipped without a
    /// lookup.
    fn fragment_pattern(
        &self,
        text: &str,
        pattern: &mut String,
        mut params: Option<&mut Vec<Param>>,
    ) {
        let bytes = text.as_bytes();
        let (mut pos, mut literal) = (0, 0);
        while pos < bytes.len() {
            if self.custom == 0 && !may_start_builtin(bytes[pos]) {
                pos += 1;
                continue;
            }
            let Some(token) = self.best_token_at(text, pos) else {
                pos += utf8_len(bytes[pos]);
                continue;
            };
            pattern.push_str(&text[literal..pos]);
            let ty = self.defs[token.def].ty();
            pattern.push('[');
            if let Some(params) = params.as_deref_mut() {
                let name = var_name(params.len());
                pattern.push_str(&name);
                pattern.push(':');
                let value = token.value.unwrap_or_else(|| {
                    Value::parse_as(ty, &text[pos..pos + token.len])
                        .expect("the scan validated the token")
                });
                params.push(Param {
                    name,
                    ty: ty.clone(),
                    value,
                });
            }
            pattern.push_str(ty.name());
            pattern.push(']');
            pos += token.len;
            literal = pos;
        }
        pattern.push_str(&text[literal..]);
    }

    /// Finds the best token at `pos`: the longest valid match, ties broken
    /// by definition order.
    ///
    /// Custom definitions run their regex at every position. The built-ins
    /// dispatch on the first byte: a digit run is `num`, `0x` and hex
    /// digits is `hex`, a dotted quad is scanned by hand and validated
    /// with [`Value::parse_as`] as `pfx4` or `ip4`, and `true`/`false`
    /// between word boundaries is `bool`. Only a HexColon lead (at most
    /// four hex digits, then `:`) runs the `pfx6`, `ip6` and `mac`
    /// regexes. Each hand scan reads the longest match of its regex, and
    /// a longest match that fails validation yields no token, exactly as
    /// [`TokenDef::match_at`] does.
    fn best_token_at(&self, text: &str, pos: usize) -> Option<Token> {
        use token::builtin::{BOOL, HEX, IP4, IP6, MAC, NUM, PFX4, PFX6};
        let mut best = Best::default();
        let base = self.custom;
        let rest = &text.as_bytes()[pos..];
        match rest[0] {
            b'0'..=b'9' => {
                best.offer(
                    base + NUM,
                    run_len(rest, usize::MAX, u8::is_ascii_digit),
                    None,
                );
                if rest.starts_with(b"0x") {
                    let digits = run_len(&rest[2..], usize::MAX, u8::is_ascii_hexdigit);
                    if digits > 0 {
                        best.offer(base + HEX, 2 + digits, None);
                    }
                }
                if let Some((ip4, pfx4)) = dotted_quad(rest) {
                    // A valid prefix is longer than the address it starts
                    // with, so the address need not be parsed.
                    let parse = |ty, len: usize| Value::parse_as(&ty, &text[pos..pos + len]);
                    match pfx4.and_then(|len| Some((len, parse(ValueType::Pfx4, len)?))) {
                        Some((len, value)) => best.offer(base + PFX4, len, Some(value)),
                        None => {
                            if let Some(value) = parse(ValueType::Ip4, ip4) {
                                best.offer(base + IP4, ip4, Some(value));
                            }
                        }
                    }
                }
            }
            b't' | b'f' => {
                let word: &[u8] = if rest[0] == b't' { b"true" } else { b"false" };
                if rest.starts_with(word)
                    && token::boundary_before(text, pos)
                    && token::boundary_after(text, pos + word.len())
                {
                    best.offer(base + BOOL, word.len(), None);
                }
            }
            _ => {}
        }
        // The VM path: every custom definition, and the IPv6 and MAC
        // programs behind a HexColon lead.
        let hex_colon: &[usize] = if token::Lead::HexColon.admits(rest) {
            &[PFX6, IP6, MAC]
        } else {
            &[]
        };
        for def in (0..base).chain(hex_colon.iter().map(|&def| base + def)) {
            if let Some(len) = self.defs[def].match_at(text, pos) {
                best.offer(def, len, None);
            }
        }
        best.0
    }
}

/// Renders the `i`-th variable name: `a`..`z`, then `a1`, `b1`, ...
fn var_name(i: usize) -> String {
    let letter = (b'a' + (i % 26) as u8) as char;
    let round = i / 26;
    if round == 0 {
        letter.to_string()
    } else {
        format!("{letter}{round}")
    }
}

/// Rewrites a typed pattern into its type-agnostic form, replacing every
/// hole with `[?]` (used by type-contract learning, §3.4).
///
/// # Examples
///
/// ```
/// use concord_lexer::type_agnostic_pattern;
///
/// assert_eq!(
///     type_agnostic_pattern("ip address [a:ip4]"),
///     "ip address [?]"
/// );
/// ```
pub fn type_agnostic_pattern(pattern: &str) -> String {
    rewrite_holes(pattern, |_, _| "[?]".to_string())
}

/// Parses the holes of a typed pattern, returning `(name, type)` pairs in
/// order. Anonymous holes yield an empty name.
pub fn pattern_holes(pattern: &str) -> Vec<(String, ValueType)> {
    let mut holes = Vec::new();
    rewrite_holes(pattern, |name, ty| {
        holes.push((name.to_string(), ValueType::from_name(ty)));
        format!("[{}]", ty)
    });
    holes
}

/// Internal scanner over `[...]` holes; `f(name, ty)` produces the
/// replacement text for each hole.
fn rewrite_holes(pattern: &str, mut f: impl FnMut(&str, &str) -> String) -> String {
    let mut out = String::with_capacity(pattern.len());
    let bytes = pattern.as_bytes();
    let mut pos = 0;
    while pos < pattern.len() {
        if bytes[pos] == b'[' {
            if let Some(end_rel) = pattern[pos + 1..].find(']') {
                let inner = &pattern[pos + 1..pos + 1 + end_rel];
                let looks_like_hole = !inner.is_empty()
                    && inner
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || c == ':' || c == '?');
                if looks_like_hole {
                    let (name, ty) = match inner.split_once(':') {
                        Some((name, ty)) => (name, ty),
                        None => ("", inner),
                    };
                    out.push_str(&f(name, ty));
                    pos += end_rel + 2;
                    continue;
                }
            }
        }
        let c = pattern[pos..].chars().next().expect("in-bounds position");
        out.push(c);
        pos += c.len_utf8();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn std_lexer() -> Lexer {
        Lexer::standard()
    }

    #[test]
    fn lexes_ip_address_line() {
        let (pattern, params) = std_lexer().lex_fragment("ip address 10.14.14.34");
        assert_eq!(pattern, "ip address [a:ip4]");
        assert_eq!(params.len(), 1);
        assert_eq!(params[0].ty, ValueType::Ip4);
        assert_eq!(params[0].value.render(), "10.14.14.34");
    }

    #[test]
    fn prefix_beats_address() {
        let (pattern, params) = std_lexer().lex_fragment("seq 10 permit 10.14.14.34/32");
        assert_eq!(pattern, "seq [a:num] permit [b:pfx4]");
        assert_eq!(params[1].value.render(), "10.14.14.34/32");
    }

    #[test]
    fn mac_beats_number_runs() {
        let (pattern, params) = std_lexer().lex_fragment("route-target import 00:00:0c:d3:00:6e");
        assert_eq!(pattern, "route-target import [a:mac]");
        assert_eq!(params[0].value.render(), "00:00:0c:d3:00:6e");
    }

    #[test]
    fn route_distinguisher_splits() {
        let (pattern, params) = std_lexer().lex_fragment("rd 10.14.14.117:10251");
        assert_eq!(pattern, "rd [a:ip4]:[b:num]");
        assert_eq!(params[0].value.render(), "10.14.14.117");
        assert_eq!(params[1].value.render(), "10251");
    }

    #[test]
    fn number_embedded_in_word() {
        let (pattern, params) = std_lexer().lex_fragment("interface Loopback0");
        assert_eq!(pattern, "interface Loopback[a:num]");
        assert_eq!(params[0].value.render(), "0");
        let (pattern, _) = std_lexer().lex_fragment("hostname DEV1");
        assert_eq!(pattern, "hostname DEV[a:num]");
    }

    #[test]
    fn booleans_need_word_boundaries() {
        let (pattern, _) = std_lexer().lex_fragment("bfd true");
        assert_eq!(pattern, "bfd [a:bool]");
        let (pattern, _) = std_lexer().lex_fragment("trueness");
        assert_eq!(pattern, "trueness");
    }

    #[test]
    fn invalid_ip_rejected_semantically() {
        // `999.1.1.1` matches the IPv4 token regex but fails parsing; the
        // octet runs lex as plain numbers instead.
        let (pattern, _) = std_lexer().lex_fragment("ip address 999.1.1.1");
        assert_eq!(pattern, "ip address [a:num].[b:num].[c:num].[d:num]");
    }

    #[test]
    fn ipv6_and_prefix6() {
        // Note the `6` of `ipv6` itself extracts as a number, exactly like
        // `DEV1` -> `DEV[a:num]` in Figure 3 of the paper.
        let (pattern, params) = std_lexer().lex_fragment("ipv6 address 2001:db8::1/64");
        assert_eq!(pattern, "ipv[a:num] address [b:pfx6]");
        assert_eq!(params[1].ty, ValueType::Pfx6);
        let (pattern, _) = std_lexer().lex_fragment("neighbor fe80::12 remote-as 65000");
        assert_eq!(pattern, "neighbor [a:ip6] remote-as [b:num]");
    }

    #[test]
    fn hex_numbers() {
        let (pattern, params) = std_lexer().lex_fragment("register 0x1f");
        assert_eq!(pattern, "register [a:hex]");
        assert_eq!(params[0].value.render(), "31");
    }

    #[test]
    fn parents_lex_anonymously() {
        let lexed = std_lexer().lex_line(
            &[
                "interface Port-Channel110".to_string(),
                "evpn ether-segment".to_string(),
            ],
            "route-target import 00:00:0c:d3:00:6e",
            8,
        );
        assert_eq!(
            lexed.pattern,
            "/interface Port-Channel[num]/evpn ether-segment/route-target import [a:mac]"
        );
        assert_eq!(lexed.params.len(), 1);
        assert_eq!(lexed.line_no, 8);
        assert_eq!(lexed.original, "route-target import 00:00:0c:d3:00:6e");
    }

    #[test]
    fn custom_tokens_take_priority() {
        let lexer = Lexer::with_custom(vec![("iface", "([eE]t|ae)-?[0-9]+")]).unwrap();
        let (pattern, params) = lexer.lex_fragment("interface Et12");
        assert_eq!(pattern, "interface [a:iface]");
        assert_eq!(params[0].ty, ValueType::Custom("iface".to_string()));
        assert_eq!(params[0].value.render(), "Et12");
    }

    #[test]
    fn custom_token_bad_regex_errors() {
        assert!(Lexer::with_custom(vec![("bad", "a{3,1}")]).is_err());
    }

    #[test]
    fn multiple_params_name_in_order() {
        let (pattern, params) = std_lexer().lex_fragment("maximum-paths 64 ecmp 64");
        assert_eq!(pattern, "maximum-paths [a:num] ecmp [b:num]");
        assert_eq!(params[0].name, "a");
        assert_eq!(params[1].name, "b");
    }

    #[test]
    fn var_names_wrap_after_z() {
        assert_eq!(var_name(0), "a");
        assert_eq!(var_name(25), "z");
        assert_eq!(var_name(26), "a1");
        assert_eq!(var_name(27), "b1");
    }

    #[test]
    fn type_agnostic_rewrites_all_holes() {
        assert_eq!(
            type_agnostic_pattern("/router bgp [num]/rd [a:ip4]:[b:num]"),
            "/router bgp [?]/rd [?]:[?]"
        );
        // Literal brackets that are not holes survive.
        assert_eq!(type_agnostic_pattern("match [x y]"), "match [x y]");
    }

    #[test]
    fn pattern_holes_extraction() {
        let holes = pattern_holes("/interface Port-Channel[num]/rt [a:mac] x [b:num]");
        assert_eq!(
            holes,
            vec![
                ("".to_string(), ValueType::Num),
                ("a".to_string(), ValueType::Mac),
                ("b".to_string(), ValueType::Num),
            ]
        );
    }

    #[test]
    fn empty_line_lexes_to_empty_pattern() {
        let (pattern, params) = std_lexer().lex_fragment("");
        assert_eq!(pattern, "");
        assert!(params.is_empty());
    }

    #[test]
    fn bang_separator_survives() {
        let (pattern, params) = std_lexer().lex_fragment("!");
        assert_eq!(pattern, "!");
        assert!(params.is_empty());
    }

    #[test]
    fn figure_3_full_example() {
        let lexer = std_lexer();
        let cases = [
            ("hostname DEV1", "hostname DEV[a:num]"),
            ("interface Loopback0", "interface Loopback[a:num]"),
            ("interface Port-Channel110", "interface Port-Channel[a:num]"),
            ("seq 20 permit 0.0.0.0/0", "seq [a:num] permit [b:pfx4]"),
            ("router bgp 65015", "router bgp [a:num]"),
            ("vlan 251", "vlan [a:num]"),
        ];
        for (line, expected) in cases {
            let (pattern, _) = lexer.lex_fragment(line);
            assert_eq!(pattern, expected, "lexing {line:?}");
        }
    }
}
