//! Context embedding for indentation-structured text (Figure 3).
//!
//! A stack of `(indent, text)` pairs tracks the current block nesting: a
//! line deeper than the stack top becomes its child, while a line at equal
//! or shallower indentation pops back to its level first. This matches the
//! block structure of Arista/Cisco-style CLI configurations as well as any
//! other whitespace-nested format.

use std::ops::Range;

use crate::EmbeddedLine;

/// Number of columns a tab advances (classic terminal default).
const TAB_WIDTH: usize = 8;

/// The stack of `(indent_width, trimmed_text)` ancestors a line is
/// embedded under.
type Ancestors = Vec<(usize, String)>;

/// Embeds indentation-structured `text`.
pub fn embed(text: &str) -> Vec<EmbeddedLine> {
    embed_from(Vec::new(), text.lines().enumerate())
}

/// Embeds source lines `range` of a text split by `str::lines` exactly as
/// [`embed`] of the whole text embeds them: the window starts from the
/// ancestor chain read back from the lines before it.
pub fn embed_range(lines: &[&str], range: Range<usize>) -> Vec<EmbeddedLine> {
    let stack = ancestors(&lines[..range.start]);
    embed_from(stack, range.clone().zip(lines[range].iter().copied()))
}

/// Embeds `(0-based line index, raw line)` pairs under the ancestor chain
/// `stack`: a line deeper than the stack top becomes its child, and one
/// at equal or shallower indentation pops back to its level first.
/// Whitespace-only lines are skipped.
fn embed_from<'a>(
    mut stack: Ancestors,
    lines: impl Iterator<Item = (usize, &'a str)>,
) -> Vec<EmbeddedLine> {
    let mut out = Vec::new();
    for (i, raw) in lines {
        let trimmed = raw.trim();
        if trimmed.is_empty() {
            continue;
        }
        let indent = indent_width(raw);
        while matches!(stack.last(), Some(&(parent_indent, _)) if parent_indent >= indent) {
            stack.pop();
        }
        out.push(EmbeddedLine {
            line_no: (i + 1) as u32,
            parents: stack.iter().map(|(_, t)| t.clone()).collect(),
            original: trimmed.to_string(),
        });
        stack.push((indent, trimmed.to_string()));
    }
    out
}

/// The stack [`embed_from`] holds after `prefix`: its last non-blank
/// line, then the nearest line before that one indented less, and so on
/// (every line in between was popped by one of them). Reads back only
/// as far as the first unindented line.
fn ancestors(prefix: &[&str]) -> Ancestors {
    let mut chain = Vec::new();
    let mut below = usize::MAX;
    for raw in prefix.iter().rev() {
        if below == 0 {
            break;
        }
        let trimmed = raw.trim();
        if trimmed.is_empty() {
            continue;
        }
        let indent = indent_width(raw);
        if indent < below {
            chain.push((indent, trimmed.to_string()));
            below = indent;
        }
    }
    chain.reverse();
    chain
}

/// How many of `lines` (the lines after an edited window) are blank or
/// indented deeper than `depth`, up to the first that is not: the block
/// lines whose ancestors an edit at `depth` can change.
pub fn deeper_run(lines: &[&str], depth: usize) -> usize {
    lines
        .iter()
        .take_while(|raw| raw.trim().is_empty() || indent_width(raw) > depth)
        .count()
}

/// The shallowest indentation among the non-blank `lines`, if any.
pub fn shallowest(lines: &[&str]) -> Option<usize> {
    lines
        .iter()
        .filter(|raw| !raw.trim().is_empty())
        .map(|raw| indent_width(raw))
        .min()
}

fn indent_width(line: &str) -> usize {
    let mut width = 0;
    for c in line.chars() {
        match c {
            ' ' => width += 1,
            '\t' => width = (width / TAB_WIDTH + 1) * TAB_WIDTH,
            _ => break,
        }
    }
    width
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parents_of<'a>(lines: &'a [EmbeddedLine], original: &str) -> &'a [String] {
        &lines
            .iter()
            .find(|l| l.original == original)
            .unwrap_or_else(|| panic!("line {original:?} missing"))
            .parents
    }

    #[test]
    fn figure_3_shape() {
        let config = "\
hostname DEV1
!
interface Loopback0
   ip address 10.14.14.34
!
interface Port-Channel110
   evpn ether-segment
      route-target import 00:00:0c:d3:00:6e
!
ip prefix-list loopback
   seq 10 permit 10.14.14.34/32
   seq 20 permit 0.0.0.0/0
!
router bgp 65015
   maximum-paths 64 ecmp 64
   vlan 251
      rd 10.14.14.117:10251
";
        let lines = embed(config);
        assert!(parents_of(&lines, "hostname DEV1").is_empty());
        assert!(parents_of(&lines, "!").is_empty());
        assert_eq!(
            parents_of(&lines, "ip address 10.14.14.34"),
            &["interface Loopback0".to_string()]
        );
        assert_eq!(
            parents_of(&lines, "route-target import 00:00:0c:d3:00:6e"),
            &[
                "interface Port-Channel110".to_string(),
                "evpn ether-segment".to_string(),
            ]
        );
        assert_eq!(
            parents_of(&lines, "rd 10.14.14.117:10251"),
            &["router bgp 65015".to_string(), "vlan 251".to_string()]
        );
        // The separator `!` resets nesting.
        assert!(parents_of(&lines, "ip prefix-list loopback").is_empty());
    }

    #[test]
    fn sibling_lines_share_parent() {
        let lines = embed("a\n  b\n  c\n");
        assert_eq!(parents_of(&lines, "b"), &["a".to_string()]);
        assert_eq!(parents_of(&lines, "c"), &["a".to_string()]);
    }

    #[test]
    fn dedent_pops_multiple_levels() {
        let lines = embed("a\n  b\n    c\nd\n");
        assert!(parents_of(&lines, "d").is_empty());
    }

    #[test]
    fn equal_indent_replaces_sibling() {
        let lines = embed("a\n  b\n    x\n  c\n    y\n");
        assert_eq!(parents_of(&lines, "y"), &["a".to_string(), "c".to_string()]);
    }

    #[test]
    fn tabs_count_as_indentation() {
        let lines = embed("a\n\tb\n");
        assert_eq!(parents_of(&lines, "b"), &["a".to_string()]);
    }

    #[test]
    fn line_numbers_are_one_based_and_skip_blanks() {
        let lines = embed("a\n\n  b\n");
        assert_eq!(lines[0].line_no, 1);
        assert_eq!(lines[1].line_no, 3);
    }

    #[test]
    fn empty_input() {
        assert!(embed("").is_empty());
        assert!(embed("\n\n  \n").is_empty());
    }

    #[test]
    fn embedded_text_matches_figure_3() {
        let lines = embed("router bgp 65015\n   vlan 251\n      rd 10.14.14.117:10251\n");
        assert_eq!(
            lines[2].embedded_text(),
            "/router bgp 65015/vlan 251/rd 10.14.14.117:10251"
        );
    }
}
