#![warn(missing_docs)]

//! A dependency-free JSON library for the Concord workspace.
//!
//! The build environment is hermetic (no registry access), so instead of
//! `serde`/`serde_json` the workspace serializes through this crate: a
//! [`Json`] value model, a strict parser, compact and pretty writers, the
//! [`ToJson`]/[`FromJson`] conversion traits, and a [`json!`] macro for
//! building values inline.
//!
//! Large documents that are written often (the engine's checkpoint
//! segments, manifest, learn sketches and WAL records) skip the value
//! tree: their writers append straight to one `String` through
//! [`push_string`], [`push_number`] and [`push_array`], and render small
//! leaf values with [`Json::render_into`]. The tree renderer escapes strings and formats
//! numbers through the same two functions, so a streamed document and
//! the rendered tree of the same value are the same bytes.
//!
//! Conventions mirror serde's externally-tagged encoding so contract
//! files keep the obvious shape:
//!
//! * unit enum variants encode as their name (`"Num"`),
//! * newtype/struct variants encode as a one-key object
//!   (`{"Present": {"pattern": "..."}}`),
//! * structs encode as objects of their fields.
//!
//! Object key order is preserved (insertion order), which keeps every
//! writer deterministic.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// Alias matching the `serde_json::Value` spelling used around the
/// workspace.
pub type Value = Json;

/// A parsed or constructed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number. Integers up to 2^53 round-trip exactly.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; insertion order is preserved.
    Object(Vec<(String, Json)>),
}

/// A JSON error: parse failure or a shape mismatch during decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl Error {
    /// Builds an error from any displayable message (serde parity).
    pub fn custom(msg: impl fmt::Display) -> Error {
        Error(msg.to_string())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

impl Json {
    /// Returns the bool value, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns the number as `f64`, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Returns the number as `u64` when it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 9.007199254740992e15 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// Returns the number as `i64` when it is an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(n) if n.fract() == 0.0 && n.abs() <= 9.007199254740992e15 => Some(*n as i64),
            _ => None,
        }
    }

    /// Returns the string slice, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Returns the key/value pairs, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Returns `true` for `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Looks up `key` in an object (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_object()
            .and_then(|pairs| pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v))
    }

    /// Builds the one-key object `{tag: value}` (externally-tagged enum
    /// encoding).
    pub fn tagged(tag: &str, value: Json) -> Json {
        Json::Object(vec![(tag.to_string(), value)])
    }

    /// Parses a JSON document, requiring it to span the whole input.
    pub fn parse(text: &str) -> Result<Json, Error> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(Error(format!("trailing characters at byte {}", p.pos)));
        }
        Ok(value)
    }

    /// Renders the document compactly.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    /// Appends the compact rendering of the document to `out`: what
    /// [`Json::render`] returns, without a buffer of its own.
    pub fn render_into(&self, out: &mut String) {
        write_value(self, None, 0, out);
    }

    /// Renders the document with two-space indentation.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        write_value(self, Some(2), 0, &mut out);
        out
    }
}

/// The shared `null` returned by out-of-range indexing.
static NULL: Json = Json::Null;

impl std::ops::Index<&str> for Json {
    type Output = Json;

    /// Object field access; missing keys and non-objects yield `null`
    /// (serde_json parity).
    fn index(&self, key: &str) -> &Json {
        self.get(key).unwrap_or(&NULL)
    }
}

impl std::ops::Index<usize> for Json {
    type Output = Json;

    /// Array element access; out-of-range and non-arrays yield `null`.
    fn index(&self, i: usize) -> &Json {
        self.as_array().and_then(|a| a.get(i)).unwrap_or(&NULL)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Serializes any [`ToJson`] value compactly.
///
/// Serialization cannot fail; the `Result` mirrors the `serde_json` call
/// shape so call sites read the same.
pub fn to_string<T: ToJson + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(value.to_json().render())
}

/// Serializes any [`ToJson`] value with pretty indentation.
pub fn to_string_pretty<T: ToJson + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(value.to_json().render_pretty())
}

/// Parses `text` and decodes it into `T`.
pub fn from_str<T: FromJson>(text: &str) -> Result<T, Error> {
    T::from_json(&Json::parse(text)?)
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

fn write_value(value: &Json, indent: Option<usize>, depth: usize, out: &mut String) {
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(true) => out.push_str("true"),
        Json::Bool(false) => out.push_str("false"),
        Json::Num(n) => push_number(out, *n),
        Json::Str(s) => push_string(out, s),
        Json::Array(items) => {
            write_seq(items.iter(), indent, depth, out, '[', ']', |item, d, o| {
                write_value(item, indent, d, o)
            })
        }
        Json::Object(pairs) => write_seq(
            pairs.iter(),
            indent,
            depth,
            out,
            '{',
            '}',
            |(k, v), d, o| {
                push_string(o, k);
                o.push(':');
                if indent.is_some() {
                    o.push(' ');
                }
                write_value(v, indent, d, o);
            },
        ),
    }
}

fn write_seq<I: ExactSizeIterator>(
    items: I,
    indent: Option<usize>,
    depth: usize,
    out: &mut String,
    open: char,
    close: char,
    mut write_item: impl FnMut(I::Item, usize, &mut String),
) {
    out.push(open);
    let len = items.len();
    for (i, item) in items.enumerate() {
        if let Some(step) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', step * (depth + 1)));
        }
        write_item(item, depth + 1, out);
        if i + 1 < len {
            out.push(',');
            if indent.is_none() {
                // compact form: no separator space
            }
        }
    }
    if indent.is_some() && len > 0 {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', indent.unwrap_or(0) * depth));
    }
    out.push(close);
}

/// Appends `n` as a JSON number: integers below 2^53 in magnitude
/// without a fraction, other finite values in Rust's shortest
/// round-trip form, and non-finite values as `null` (JSON has no NaN or
/// infinity). Integer types reach here as `f64`, as [`ToJson`] converts
/// them, so a streamed integer renders exactly as its value tree does.
pub fn push_number(out: &mut String, n: f64) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 9.007199254740992e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

/// What follows the backslash when a byte is escaped, or 0 when it is
/// copied as is. Every escaped byte is ASCII, so a multi-byte character
/// is never split.
const ESCAPES: [u8; 256] = {
    let mut table = [0u8; 256];
    let mut b = 0;
    while b < 0x20 {
        table[b] = b'u';
        b += 1;
    }
    table[b'\n' as usize] = b'n';
    table[b'\r' as usize] = b'r';
    table[b'\t' as usize] = b't';
    table[b'"' as usize] = b'"';
    table[b'\\' as usize] = b'\\';
    table
};

/// Appends `s` as a quoted JSON string. `"` and `\` are backslash
/// escaped, `\n`, `\r` and `\t` take their short forms, other control
/// bytes below 0x20 become `\u00xx`, and everything else (DEL and
/// non-ASCII included) is copied, each run between escapes with one
/// `push_str`.
pub fn push_string(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    let mut start = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let escape = ESCAPES[b as usize];
        if escape == 0 {
            continue;
        }
        out.push_str(&s[start..i]);
        out.push('\\');
        out.push(char::from(escape));
        if escape == b'u' {
            out.push_str("00");
            out.push(char::from(HEX[usize::from(b >> 4)]));
            out.push(char::from(HEX[usize::from(b & 0xf)]));
        }
        start = i + 1;
    }
    out.push_str(&s[start..]);
    out.push('"');
}

/// Appends `[item,item,…]`, each item written by `write`: the array
/// form of the streamed writers.
pub fn push_array<T>(
    out: &mut String,
    items: impl IntoIterator<Item = T>,
    mut write: impl FnMut(&mut String, T),
) {
    out.push('[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write(out, item);
    }
    out.push(']');
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn fail<T>(&self, msg: &str) -> Result<T, Error> {
        Err(Error(format!("{msg} at byte {}", self.pos)))
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            self.fail(&format!("expected {:?}", b as char))
        }
    }

    fn eat_literal(&mut self, word: &str) -> bool {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, Error> {
        match self.bytes.get(self.pos) {
            None => self.fail("unexpected end of input"),
            Some(b'n') if self.eat_literal("null") => Ok(Json::Null),
            Some(b't') if self.eat_literal("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(_) => self.fail("unexpected character"),
        }
    }

    fn array(&mut self) -> Result<Json, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return self.fail("expected ',' or ']'"),
            }
        }
    }

    fn object(&mut self) -> Result<Json, Error> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Json::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(pairs));
                }
                _ => return self.fail("expected ',' or '}'"),
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| Error("invalid utf-8 in string".to_string()))?,
            );
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| Error("unterminated escape".to_string()))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let first = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&first) {
                                // High surrogate: a \uXXXX low surrogate
                                // must follow.
                                if !self.eat_literal("\\u") {
                                    return self.fail("unpaired surrogate");
                                }
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return self.fail("invalid low surrogate");
                                }
                                0x10000 + ((first - 0xD800) << 10) + (low - 0xDC00)
                            } else {
                                first
                            };
                            match char::from_u32(code) {
                                Some(c) => out.push(c),
                                None => return self.fail("invalid unicode escape"),
                            }
                        }
                        _ => return self.fail("invalid escape"),
                    }
                }
                _ => return self.fail("unterminated string"),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let slice = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| Error("truncated \\u escape".to_string()))?;
        let text =
            std::str::from_utf8(slice).map_err(|_| Error("invalid \\u escape".to_string()))?;
        let code =
            u32::from_str_radix(text, 16).map_err(|_| Error("invalid \\u escape".to_string()))?;
        self.pos += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, Error> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.bytes.get(self.pos) == Some(&b'.') {
            self.pos += 1;
            while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.bytes.get(self.pos), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.bytes.get(self.pos), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error("invalid number".to_string()))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| Error(format!("invalid number {text:?}")))
    }
}

// ---------------------------------------------------------------------------
// Conversion traits
// ---------------------------------------------------------------------------

/// Converts a value into its [`Json`] representation.
pub trait ToJson {
    /// Builds the JSON form of `self`.
    fn to_json(&self) -> Json;
}

/// Reconstructs a value from its [`Json`] representation.
pub trait FromJson: Sized {
    /// Decodes `value`, failing with a descriptive [`Error`] on shape
    /// mismatches.
    fn from_json(value: &Json) -> Result<Self, Error>;
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl FromJson for Json {
    fn from_json(value: &Json) -> Result<Self, Error> {
        Ok(value.clone())
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(value: &Json) -> Result<Self, Error> {
        value
            .as_bool()
            .ok_or_else(|| Error(format!("expected bool, got {value}")))
    }
}

macro_rules! impl_json_int {
    ($($ty:ty),*) => {$(
        impl ToJson for $ty {
            fn to_json(&self) -> Json {
                Json::Num(*self as f64)
            }
        }

        impl FromJson for $ty {
            fn from_json(value: &Json) -> Result<Self, Error> {
                value
                    .as_i64()
                    .and_then(|n| <$ty>::try_from(n).ok())
                    .ok_or_else(|| Error(format!(
                        concat!("expected ", stringify!($ty), ", got {}"),
                        value
                    )))
            }
        }
    )*};
}

impl_json_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
}

impl FromJson for f64 {
    fn from_json(value: &Json) -> Result<Self, Error> {
        value
            .as_f64()
            .ok_or_else(|| Error(format!("expected number, got {value}")))
    }
}

impl ToJson for f32 {
    fn to_json(&self) -> Json {
        Json::Num(f64::from(*self))
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(value: &Json) -> Result<Self, Error> {
        value
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| Error(format!("expected string, got {value}")))
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(value: &Json) -> Result<Self, Error> {
        if value.is_null() {
            Ok(None)
        } else {
            T::from_json(value).map(Some)
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(value: &Json) -> Result<Self, Error> {
        value
            .as_array()
            .ok_or_else(|| Error(format!("expected array, got {value}")))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

impl<K: fmt::Display, V: ToJson> ToJson for BTreeMap<K, V> {
    fn to_json(&self) -> Json {
        Json::Object(
            self.iter()
                .map(|(k, v)| (k.to_string(), v.to_json()))
                .collect(),
        )
    }
}

/// Builds a [`Json`] value inline.
///
/// Supports `null`, object literals with literal keys, array literals, and
/// any expression implementing [`ToJson`] as a value. Nest by calling
/// `json!` recursively in value position.
///
/// ```
/// use concord_json::json;
///
/// let v = json!({ "name": "W2", "lines": 2865, "ok": true });
/// assert_eq!(v.get("lines").and_then(|n| n.as_u64()), Some(2865));
/// ```
#[macro_export]
macro_rules! json {
    (null) => {
        $crate::Json::Null
    };
    ({ $($key:literal : $value:expr),* $(,)? }) => {
        $crate::Json::Object(vec![
            $( ($key.to_string(), $crate::ToJson::to_json(&$value)) ),*
        ])
    };
    ([ $($value:expr),* $(,)? ]) => {
        $crate::Json::Array(vec![ $( $crate::ToJson::to_json(&$value) ),* ])
    };
    ($other:expr) => {
        $crate::ToJson::to_json(&$other)
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use concord_rng::{prop, Rng};

    #[test]
    fn roundtrip_scalars() {
        for text in ["null", "true", "false", "0", "-17", "3.5", "\"hi\""] {
            let v = Json::parse(text).unwrap();
            assert_eq!(v.render(), text);
        }
    }

    #[test]
    fn roundtrip_nested() {
        let text = r#"{"a":[1,2,{"b":null}],"c":"x\ny","d":-0.5}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.render(), text);
        let pretty = v.render_pretty();
        assert!(pretty.contains("\n  \"a\": [\n"));
        assert_eq!(Json::parse(&pretty).unwrap(), v);
    }

    #[test]
    fn string_escapes() {
        let v = Json::parse(r#""tab\tquote\"uAsurrogate😀""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "tab\tquote\"uAsurrogate\u{1F600}");
        let back = Json::parse(&v.render()).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn rejects_garbage() {
        for text in ["", "{", "[1,", "\"open", "{\"a\" 1}", "nul", "1 2", "[01a]"] {
            assert!(Json::parse(text).is_err(), "accepted {text:?}");
        }
    }

    #[test]
    fn numbers_render_integers_exactly() {
        assert_eq!(Json::Num(42.0).render(), "42");
        assert_eq!(Json::Num(-3.0).render(), "-3");
        assert_eq!(Json::Num(0.25).render(), "0.25");
        assert_eq!(
            Json::parse("9007199254740991").unwrap().as_u64(),
            Some(9007199254740991)
        );
    }

    #[test]
    fn object_order_is_preserved() {
        let v = json!({ "z": 1, "a": 2 });
        assert_eq!(v.render(), r#"{"z":1,"a":2}"#);
    }

    #[test]
    fn macro_shapes() {
        let rows = vec![json!({ "x": 1 }), json!({ "x": 2 })];
        let v = json!({ "rows": rows, "label": "t", "none": json!(null) });
        assert_eq!(v.get("rows").unwrap().as_array().unwrap().len(), 2);
        assert!(v.get("none").unwrap().is_null());
        let arr = json!([1, 2, 3]);
        assert_eq!(arr.as_array().unwrap().len(), 3);
    }

    #[test]
    fn conversion_traits_roundtrip() {
        let xs = vec![1u32, 5, 9];
        let text = to_string(&xs).unwrap();
        let back: Vec<u32> = from_str(&text).unwrap();
        assert_eq!(back, xs);
        let opt: Option<String> = from_str("null").unwrap();
        assert_eq!(opt, None);
        assert!(from_str::<u8>("300").is_err());
    }

    /// The escaper as the tree renderer wrote it before [`push_string`]:
    /// one `char` at a time, one `format!` per control character.
    fn reference_string(s: &str) -> String {
        let mut out = String::from('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    /// The number format as the tree renderer wrote it before
    /// [`push_number`]: one `format!` per number.
    fn reference_number(n: f64) -> String {
        if !n.is_finite() {
            "null".to_string()
        } else if n.fract() == 0.0 && n.abs() < 9.007199254740992e15 {
            format!("{}", n as i64)
        } else {
            format!("{n}")
        }
    }

    fn pushed_string(s: &str) -> String {
        let mut out = String::new();
        push_string(&mut out, s);
        out
    }

    fn pushed_number(n: f64) -> String {
        let mut out = String::new();
        push_number(&mut out, n);
        out
    }

    #[test]
    fn escapes_have_their_known_forms() {
        assert_eq!(pushed_string("\u{0}"), r#""\u0000""#);
        assert_eq!(pushed_string("\u{1f}"), r#""\u001f""#);
        assert_eq!(pushed_string("\u{8}\u{c}"), r#""\u0008\u000c""#);
        assert_eq!(pushed_string("a\nb"), r#""a\nb""#);
        assert_eq!(pushed_string("\r\t"), r#""\r\t""#);
        assert_eq!(pushed_string("say \"hi\\\""), r#""say \"hi\\\"""#);
        assert_eq!(pushed_string("\u{7f}é😀"), "\"\u{7f}é😀\"");
        assert_eq!(pushed_string(""), r#""""#);
    }

    #[test]
    fn pushed_strings_parse_back_and_match_the_reference_escaper() {
        let mut alphabet: String = (0u8..0x20).map(char::from).collect();
        alphabet.push_str("\"\\\u{7f}azAZ09 /:-é€😀");
        prop::check("pushed_strings_parse_back", 2000, |rng| {
            let s = prop::string_of(rng, &alphabet, 0..=40);
            let rendered = pushed_string(&s);
            assert_eq!(rendered, reference_string(&s), "{s:?}");
            assert_eq!(Json::parse(&rendered), Ok(Json::Str(s.clone())), "{s:?}");
            assert_eq!(Json::Str(s).render(), rendered);
        });
    }

    #[test]
    fn pushed_numbers_match_the_reference_format() {
        const LIMIT: i64 = 1 << 53;
        for n in [
            0.0,
            -0.0,
            1.0,
            -1.0,
            0.25,
            -0.5,
            1e-7,
            1.5e300,
            (LIMIT - 1) as f64,
            -(LIMIT - 1) as f64,
            LIMIT as f64,
            -LIMIT as f64,
            u64::MAX as f64,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            assert_eq!(pushed_number(n), reference_number(n), "{n:?}");
            assert_eq!(Json::Num(n).render(), reference_number(n), "{n:?}");
        }
        assert_eq!(pushed_number(f64::NAN), "null");
        assert_eq!(pushed_number(-0.0), "0");
        prop::check("pushed_numbers_match", 2000, |rng| {
            let int = rng.gen_range(-LIMIT..=LIMIT) as f64;
            let fraction = int / f64::from(rng.gen_range(1..1000u32));
            let bits = f64::from_bits(rng.next_u64());
            for n in [int, fraction, bits] {
                assert_eq!(pushed_number(n), reference_number(n), "{n:?}");
            }
        });
    }

    #[test]
    fn render_into_appends_the_rendering() {
        let v = json!({ "a": json!([1, 2]), "b": "x\ty", "c": json!(null) });
        let mut out = String::from("prefix ");
        v.render_into(&mut out);
        assert_eq!(out, format!("prefix {}", v.render()));
    }

    #[test]
    fn btreemap_serializes_as_object() {
        let mut m = BTreeMap::new();
        m.insert("k".to_string(), 7u32);
        assert_eq!(to_string(&m).unwrap(), r#"{"k":7}"#);
    }
}
