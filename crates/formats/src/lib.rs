#![warn(missing_docs)]

//! Data-format inference and context embedding (§3.1 of the paper).
//!
//! Treating each configuration line as an isolated unit of text loses the
//! hierarchy that most configuration dialects express — indentation blocks
//! in vendor CLIs, object nesting in JSON, mappings in YAML. Concord first
//! infers a *format category* for each file and then runs a context
//! embedding pass that prefixes every line with the chain of its parents,
//! e.g. (Figure 3):
//!
//! ```text
//! interface Loopback0
//!     ip address 10.14.14.34
//! ```
//!
//! becomes
//!
//! ```text
//! /interface Loopback0
//! /interface Loopback0/ip address 10.14.14.34
//! ```
//!
//! The embedded text is treated downstream as uninterpreted input to the
//! lexer; the separator is arbitrary (this implementation uses `/`, like
//! the paper). Crucially, every [`EmbeddedLine`] remembers its original
//! 1-based line number so contract violations can be localized.
//!
//! # Examples
//!
//! ```
//! use concord_formats::{embed_auto, FormatCategory};
//!
//! let config = "interface Loopback0\n    ip address 10.0.0.1\n";
//! let (format, lines) = embed_auto(config);
//! assert_eq!(format, FormatCategory::Indent);
//! assert_eq!(lines[1].parents, vec!["interface Loopback0".to_string()]);
//! assert_eq!(lines[1].original, "ip address 10.0.0.1");
//! assert_eq!(lines[1].line_no, 2);
//! ```

mod detect;
mod edit;
mod indent;
mod json;
mod yaml;

pub use detect::detect_format;
pub use edit::{embed_edit, EditWindow};

/// The inferred data-format category of a configuration file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FormatCategory {
    /// JSON object/array data.
    Json,
    /// YAML mappings and sequences (a pragmatic subset).
    Yaml,
    /// Indentation-structured text (most vendor CLI configs).
    Indent,
    /// Flat text with no hierarchical structure.
    Flat,
}

impl std::fmt::Display for FormatCategory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            FormatCategory::Json => "json",
            FormatCategory::Yaml => "yaml",
            FormatCategory::Indent => "indent",
            FormatCategory::Flat => "flat",
        };
        f.write_str(name)
    }
}

/// One configuration line with its embedded hierarchical context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EmbeddedLine {
    /// 1-based line number in the source file.
    pub line_no: u32,
    /// The chain of enclosing parents, outermost first. Parents are the
    /// trimmed source text of the enclosing lines (or object keys for
    /// JSON).
    pub parents: Vec<String>,
    /// The trimmed original line text (or `key value` form for JSON).
    pub original: String,
}

impl EmbeddedLine {
    /// Renders the full embedded form, e.g.
    /// `/interface Loopback0/ip address 10.0.0.1`.
    pub fn embedded_text(&self) -> String {
        let mut out = String::new();
        for parent in &self.parents {
            out.push('/');
            out.push_str(parent);
        }
        out.push('/');
        out.push_str(&self.original);
        out
    }
}

/// Embeds `text` according to an already-detected `format`.
///
/// Returns one [`EmbeddedLine`] per content-bearing source line;
/// whitespace-only lines (and, for JSON, pure punctuation lines) are
/// skipped. With embedding conceptually disabled (`FormatCategory::Flat`),
/// each line is returned with an empty parent chain — this is the
/// "Baseline" configuration of Figure 7.
pub fn embed(text: &str, format: FormatCategory) -> Vec<EmbeddedLine> {
    match format {
        FormatCategory::Json => json::embed(text),
        FormatCategory::Yaml => yaml::embed(text),
        FormatCategory::Indent => indent::embed(text),
        FormatCategory::Flat => flat_lines(text.lines().enumerate()),
    }
}

/// Detects the format of `text` and embeds it.
pub fn embed_auto(text: &str) -> (FormatCategory, Vec<EmbeddedLine>) {
    let format = detect_format(text);
    let lines = embed(text, format);
    (format, lines)
}

/// Embeds `(0-based line index, raw line)` pairs with no hierarchy:
/// every line gets an empty parent chain.
fn flat_lines<'a>(lines: impl Iterator<Item = (usize, &'a str)>) -> Vec<EmbeddedLine> {
    let mut out = Vec::new();
    for (i, line) in lines {
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        out.push(EmbeddedLine {
            line_no: (i + 1) as u32,
            parents: Vec::new(),
            original: trimmed.to_string(),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_embedding_keeps_lines_and_numbers() {
        let lines = embed("a b c\n\n  d e\n", FormatCategory::Flat);
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].line_no, 1);
        assert_eq!(lines[0].original, "a b c");
        assert_eq!(lines[1].line_no, 3);
        assert_eq!(lines[1].original, "d e");
        assert!(lines[1].parents.is_empty());
    }

    #[test]
    fn embedded_text_uses_slash_separator() {
        let line = EmbeddedLine {
            line_no: 4,
            parents: vec!["router bgp 65015".to_string(), "vlan 251".to_string()],
            original: "rd 10.14.14.117:10251".to_string(),
        };
        assert_eq!(
            line.embedded_text(),
            "/router bgp 65015/vlan 251/rd 10.14.14.117:10251"
        );
    }

    #[test]
    fn embed_auto_routes_by_format() {
        let (format, lines) = embed_auto("{\"a\": {\"b\": 1}}");
        assert_eq!(format, FormatCategory::Json);
        assert!(!lines.is_empty());
        let (format, _) = embed_auto("x 1\ny 2\nz 3\n");
        assert_eq!(format, FormatCategory::Flat);
    }

    #[test]
    fn display_names() {
        assert_eq!(FormatCategory::Json.to_string(), "json");
        assert_eq!(FormatCategory::Indent.to_string(), "indent");
    }
}
