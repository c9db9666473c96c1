//! Token definitions (Table 1 of the paper).

use concord_regex::Regex;
use concord_types::{Value, ValueType};

/// A byte-level shape that every match of a built-in token's regex starts
/// with, checked before the regex runs so the scanner skips positions
/// where the token cannot start. Each check is a necessary condition of
/// the regex, never a sufficient one, so skipping never changes a match;
/// `tests/lexer_lead_checks.rs` pins this against the unfiltered rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Lead {
    /// 1-3 ASCII digits, then `.` (IPv4 addresses and prefixes).
    DottedQuad,
    /// At most four hex digits, then `:` (IPv6 and MAC shapes).
    HexColon,
    /// `0` (the `0x...` hex literal prefix).
    Zero,
    /// An ASCII digit.
    Digit,
    /// `t` or `f` (booleans).
    TrueFalse,
    /// No check (user-defined tokens).
    Any,
}

impl Lead {
    /// Whether `rest`, the text from the candidate position on, starts
    /// with this shape.
    fn admits(self, rest: &[u8]) -> bool {
        match self {
            Lead::DottedQuad => {
                let digits = run_len(rest, 4, |b| b.is_ascii_digit());
                (1..=3).contains(&digits) && rest.get(digits) == Some(&b'.')
            }
            Lead::HexColon => {
                let digits = run_len(rest, 5, |b| b.is_ascii_hexdigit());
                digits <= 4 && rest.get(digits) == Some(&b':')
            }
            Lead::Zero => rest.first() == Some(&b'0'),
            Lead::Digit => rest.first().is_some_and(u8::is_ascii_digit),
            Lead::TrueFalse => matches!(rest.first(), Some(b't' | b'f')),
            Lead::Any => true,
        }
    }
}

/// Length of the run of bytes satisfying `pred` at the start of `bytes`,
/// counted up to `cap`.
fn run_len(bytes: &[u8], cap: usize, pred: impl Fn(&u8) -> bool) -> usize {
    bytes.iter().take(cap).take_while(|b| pred(b)).count()
}

/// A single token definition: a type, its regex, and matching rules.
#[derive(Debug, Clone)]
pub struct TokenDef {
    ty: ValueType,
    regex: Regex,
    lead: Lead,
    /// Require non-alphanumeric characters on both sides of the match
    /// (used by word-like tokens such as booleans so `trueness` does not
    /// contain a `[bool]`).
    word_boundary: bool,
}

/// Error constructing a [`TokenDef`] from a user-supplied pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TokenDefError {
    /// The token name the definition was for.
    pub name: String,
    /// Why the regex failed to compile.
    pub message: String,
}

impl std::fmt::Display for TokenDefError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid token definition [{}]: {}",
            self.name, self.message
        )
    }
}

impl std::error::Error for TokenDefError {}

impl TokenDef {
    /// Creates a user-defined token type from a regex.
    pub fn custom(name: &str, pattern: &str) -> Result<TokenDef, TokenDefError> {
        let regex = Regex::new(pattern).map_err(|e| TokenDefError {
            name: name.to_string(),
            message: e.to_string(),
        })?;
        Ok(TokenDef {
            ty: ValueType::Custom(name.to_string()),
            regex,
            lead: Lead::Any,
            word_boundary: false,
        })
    }

    /// Returns the token's value type.
    pub fn ty(&self) -> &ValueType {
        &self.ty
    }

    /// Returns the source regex pattern.
    pub fn pattern(&self) -> &str {
        self.regex.pattern()
    }

    /// Attempts to match this token at byte offset `pos` of `text`.
    ///
    /// Returns the match length only if the regex matches, boundary rules
    /// hold, and the matched text semantically parses as the token's type.
    pub fn match_at(&self, text: &str, pos: usize) -> Option<usize> {
        if pos >= text.len() || !self.lead.admits(&text.as_bytes()[pos..]) {
            return None;
        }
        if self.word_boundary && !boundary_before(text, pos) {
            return None;
        }
        let len = self.regex.match_at(text, pos)?;
        if len == 0 {
            return None;
        }
        if self.word_boundary && !boundary_after(text, pos + len) {
            return None;
        }
        Value::parse_as(&self.ty, &text[pos..pos + len])?;
        Some(len)
    }
}

fn boundary_before(text: &str, pos: usize) -> bool {
    pos == 0
        || text[..pos]
            .chars()
            .next_back()
            .is_none_or(|c| !c.is_alphanumeric())
}

fn boundary_after(text: &str, end: usize) -> bool {
    text[end..]
        .chars()
        .next()
        .is_none_or(|c| !c.is_alphanumeric())
}

/// Builds the built-in token definitions in priority order.
///
/// The longest match wins regardless of order, so order only breaks ties;
/// the more specific types come first for clarity.
pub fn builtin_defs() -> Vec<TokenDef> {
    let hex_group = "[0-9a-fA-F]{1,4}";
    let ip6 = format!(
        "(({g}:){{7}}{g}|({g}:){{1,7}}:|({g}:){{1,6}}(:{g}){{1,6}}|:(:{g}){{1,7}}|::)",
        g = hex_group
    );
    let defs: Vec<(ValueType, String, Lead, bool)> = vec![
        (
            ValueType::Pfx4,
            r"[0-9]{1,3}(\.[0-9]{1,3}){3}/[0-9]{1,2}".to_string(),
            Lead::DottedQuad,
            false,
        ),
        (
            ValueType::Ip4,
            r"[0-9]{1,3}(\.[0-9]{1,3}){3}".to_string(),
            Lead::DottedQuad,
            false,
        ),
        (
            ValueType::Pfx6,
            format!("{ip6}/[0-9]{{1,3}}"),
            Lead::HexColon,
            false,
        ),
        (ValueType::Ip6, ip6.clone(), Lead::HexColon, false),
        (
            ValueType::Mac,
            "[0-9a-fA-F]{1,2}(:[0-9a-fA-F]{1,2}){5}".to_string(),
            Lead::HexColon,
            false,
        ),
        (
            ValueType::Hex,
            "0x[0-9a-fA-F]+".to_string(),
            Lead::Zero,
            false,
        ),
        (ValueType::Num, "[0-9]+".to_string(), Lead::Digit, false),
        (
            ValueType::Bool,
            "true|false".to_string(),
            Lead::TrueFalse,
            true,
        ),
    ];
    defs.into_iter()
        .map(|(ty, pattern, lead, word_boundary)| TokenDef {
            regex: Regex::new(&pattern).expect("built-in token regex must compile"),
            ty,
            lead,
            word_boundary,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def_for(ty: &ValueType) -> TokenDef {
        builtin_defs()
            .into_iter()
            .find(|d| d.ty() == ty)
            .unwrap_or_else(|| panic!("missing builtin {ty}"))
    }

    #[test]
    fn builtins_compile() {
        let defs = builtin_defs();
        assert_eq!(defs.len(), 8);
    }

    #[test]
    fn ip4_def_validates_semantically() {
        let def = def_for(&ValueType::Ip4);
        assert_eq!(def.match_at("10.0.0.1", 0), Some(8));
        assert_eq!(def.match_at("999.0.0.1", 0), None);
    }

    #[test]
    fn ip6_def_rejects_mac_shape() {
        let def = def_for(&ValueType::Ip6);
        assert!(def.match_at("00:00:0c:d3:00:6e", 0).is_none());
        assert!(def.match_at("2001:db8::1", 0).is_some());
        assert_eq!(def.match_at("::", 0), Some(2));
    }

    #[test]
    fn mac_def_rejects_short_runs() {
        let def = def_for(&ValueType::Mac);
        assert!(def.match_at("00:00:0c:d3:00", 0).is_none());
        assert_eq!(def.match_at("00:00:0c:d3:00:6e", 0), Some(17));
    }

    #[test]
    fn bool_word_boundaries() {
        let def = def_for(&ValueType::Bool);
        assert_eq!(def.match_at("true", 0), Some(4));
        assert_eq!(def.match_at("trueness", 0), None);
        assert_eq!(def.match_at("xtrue", 1), None);
        assert_eq!(def.match_at("x true y", 2), Some(4));
    }

    #[test]
    fn hex_requires_prefix() {
        let def = def_for(&ValueType::Hex);
        assert_eq!(def.match_at("0x1f", 0), Some(4));
        assert_eq!(def.match_at("1f", 0), None);
    }

    #[test]
    fn first_set_filter_blocks_cheaply() {
        let def = def_for(&ValueType::Num);
        // Starts with a letter: filtered before regex execution.
        assert_eq!(def.match_at("abc", 0), None);
    }

    #[test]
    fn lead_checks_need_the_separator() {
        let quad = |s: &str| Lead::DottedQuad.admits(s.as_bytes());
        assert!(quad("1.") && quad("10.0.0.1") && quad("255.x"));
        assert!(!quad("1234.5") && !quad("10") && !quad(".1") && !quad(""));
        let hex = |s: &str| Lead::HexColon.admits(s.as_bytes());
        assert!(hex(":") && hex("::1") && hex("fe80::1") && hex("00:1c") && hex("dead:"));
        assert!(!hex("12345:") && !hex("beef") && !hex("g:") && !hex(""));
        // The checks run before the regex and skip it outright.
        assert_eq!(def_for(&ValueType::Ip4).match_at("10 0.0.1", 0), None);
        assert_eq!(def_for(&ValueType::Mac).match_at("a0", 0), None);
    }

    #[test]
    fn custom_token_roundtrip() {
        let def = TokenDef::custom("iface", "[eE]t-?[0-9]+").unwrap();
        assert_eq!(def.ty(), &ValueType::Custom("iface".to_string()));
        assert_eq!(def.match_at("Et10", 0), Some(4));
        assert_eq!(def.pattern(), "[eE]t-?[0-9]+");
    }

    #[test]
    fn custom_token_error_carries_name() {
        let err = TokenDef::custom("bad", "(").unwrap_err();
        assert_eq!(err.name, "bad");
        assert!(err.to_string().contains("bad"));
    }
}
