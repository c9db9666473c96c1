//! Property tests for format detection and context embedding, on seeded
//! inputs from `concord_rng::prop` (`CONCORD_PROP_SEED`,
//! `CONCORD_PROP_CASES`).

use concord_formats::{detect_format, embed, embed_auto, FormatCategory};
use concord_rng::prop;
use concord_rng::{Rng, StdRng};

/// Cases per property when `CONCORD_PROP_CASES` is unset.
const CASES: u64 = 256;

const LOWER: &str = "abcdefghijklmnopqrstuvwxyz";

/// Indentation-structured text: 1 to 29 lines, each indented 0 to 3
/// levels, of a keyword and up to three arguments.
fn any_indent_text(rng: &mut StdRng) -> String {
    let mut out = String::new();
    for _ in 0..rng.gen_range(1..30usize) {
        out.push_str(&"   ".repeat(rng.gen_range(0..4usize)));
        out.push_str(&prop::string_of(rng, LOWER, 1..=8));
        for _ in 0..rng.gen_range(0..=3usize) {
            out.push(' ');
            out.push_str(&prop::string_of(
                rng,
                "abcdefghijklmnopqrstuvwxyz0123456789.",
                1..=10,
            ));
        }
        out.push('\n');
    }
    out
}

/// Embedding emits exactly the non-blank lines, in order, with strictly
/// increasing line numbers.
#[test]
fn embedding_preserves_lines() {
    prop::check("embedding_preserves_lines", CASES, |rng| {
        let text = any_indent_text(rng);
        let (_, lines) = embed_auto(&text);
        let expected: Vec<&str> = text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty())
            .collect();
        let got: Vec<&str> = lines.iter().map(|l| l.original.as_str()).collect();
        assert_eq!(got, expected);
        for w in lines.windows(2) {
            assert!(w[0].line_no < w[1].line_no);
        }
    });
}

/// A line's parents are a prefix chain: each parent appeared earlier in
/// the file as some line's original text.
#[test]
fn parents_come_from_earlier_lines() {
    prop::check("parents_come_from_earlier_lines", CASES, |rng| {
        let lines = embed(&any_indent_text(rng), FormatCategory::Indent);
        for (i, line) in lines.iter().enumerate() {
            for parent in &line.parents {
                assert!(
                    lines[..i].iter().any(|e| &e.original == parent),
                    "parent {parent:?} of line {} not seen earlier",
                    line.line_no
                );
            }
        }
    });
}

/// Flat embedding never invents hierarchy.
#[test]
fn flat_embedding_has_no_parents() {
    prop::check("flat_embedding_has_no_parents", CASES, |rng| {
        for line in embed(&any_indent_text(rng), FormatCategory::Flat) {
            assert!(line.parents.is_empty());
        }
    });
}

/// The embedded text renders with one `/` per component.
#[test]
fn embedded_text_well_formed() {
    prop::check("embedded_text_well_formed", CASES, |rng| {
        for line in embed(&any_indent_text(rng), FormatCategory::Indent) {
            let rendered = line.embedded_text();
            assert!(rendered.starts_with('/'));
            assert!(rendered.ends_with(&line.original));
        }
    });
}

/// Detection never panics and embedding is total for arbitrary text.
#[test]
fn detection_and_embedding_total() {
    prop::check("detection_and_embedding_total", CASES, |rng| {
        let text = prop::printable(rng, 0..=400);
        let lines = embed(&text, detect_format(&text));
        // Every produced line number indexes a real source line.
        let source = text.lines().count();
        for line in &lines {
            assert!((line.line_no as usize) <= source);
        }
    });
}

/// JSON detection implies the scanner accepts the document, and
/// embedding then produces only scalar-bearing lines.
#[test]
fn json_detection_consistent() {
    prop::check("json_detection_consistent", CASES, |rng| {
        let pairs: Vec<String> = (0..rng.gen_range(1..6usize))
            .map(|_| {
                let key = prop::string_of(rng, LOWER, 1..=6);
                format!("\"{key}\": {}", rng.gen_range(0..1000u32))
            })
            .collect();
        let doc = format!("{{ {} }}", pairs.join(", "));
        assert_eq!(detect_format(&doc), FormatCategory::Json);
        // One line per key: a duplicate JSON key still emits its own line
        // during scanning.
        assert_eq!(embed(&doc, FormatCategory::Json).len(), pairs.len());
    });
}

/// YAML mapping documents embed every key.
#[test]
fn yaml_mappings_embed_all_keys() {
    prop::check("yaml_mappings_embed_all_keys", CASES, |rng| {
        let pairs: Vec<(String, u32)> = (0..rng.gen_range(1..8usize))
            .map(|_| {
                (
                    prop::string_of(rng, LOWER, 1..=6),
                    rng.gen_range(1..1000u32),
                )
            })
            .collect();
        let doc: String = pairs.iter().map(|(k, v)| format!("{k}: {v}\n")).collect();
        let lines = embed(&doc, FormatCategory::Yaml);
        assert_eq!(lines.len(), pairs.len());
        for ((k, v), line) in pairs.iter().zip(&lines) {
            assert_eq!(line.original, format!("{k} {v}"));
        }
    });
}
