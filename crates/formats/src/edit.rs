//! Re-embedding after an edit: only the lines whose embedding can change.
//!
//! The flat and indentation embedders work left to right, and a line's
//! embedding depends only on its own text and (for indentation) on its
//! ancestor chain. So an edit is diffed by raw line — the `str::lines`
//! split the embedders read, common prefix first, then common suffix —
//! and only the changed lines are re-embedded, plus, for indentation,
//! the lines after them that sit deeper than the shallowest changed
//! line, whose ancestors the edit may have moved. Every other line keeps
//! its `(parents, original)`; the lines after the window shift by the
//! change in line count.

use crate::{embed, flat_lines, indent, EmbeddedLine, FormatCategory};

/// The source lines an edit can change the embedding of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EditWindow {
    /// Every line is re-embedded: the format has no window (JSON, YAML)
    /// or there is no previous text to diff against.
    Whole,
    /// Source lines `start..old_end` (0-based) of the old text become
    /// lines `start..new_end` of the new one. The lines before `start`
    /// and the lines after the two ends are the same on both sides and
    /// keep their embedding; those after the window move by
    /// `new_end - old_end` line numbers.
    Lines {
        /// First line of the window on both sides.
        start: usize,
        /// End of the window in the old text.
        old_end: usize,
        /// End of the window in the new text.
        new_end: usize,
    },
}

/// Re-embeds `new` after an edit from `old`, the text last embedded in
/// the same `format` (`None` when there is none). Returns the window of
/// source lines the edit can change and the embedding of the window's
/// lines of `new`, which is exactly what [`embed`] of the whole of `new`
/// gives for those lines.
///
/// ```
/// use concord_formats::{embed, embed_edit, EditWindow, FormatCategory};
///
/// let old = "interface Et1\n   mtu 9214\n!\nvlan 10\n";
/// let new = "interface Et1\n   mtu 1500\n!\nvlan 10\n";
/// let (window, lines) = embed_edit(Some(old), new, FormatCategory::Indent);
/// assert_eq!(window, EditWindow::Lines { start: 1, old_end: 2, new_end: 2 });
/// assert_eq!(lines, embed(new, FormatCategory::Indent)[1..2].to_vec());
/// ```
pub fn embed_edit(
    old: Option<&str>,
    new: &str,
    format: FormatCategory,
) -> (EditWindow, Vec<EmbeddedLine>) {
    let old = match (old, format) {
        (Some(old), FormatCategory::Flat | FormatCategory::Indent) => old,
        _ => return (EditWindow::Whole, embed(new, format)),
    };
    let old: Vec<&str> = old.lines().collect();
    let new: Vec<&str> = new.lines().collect();
    let start = old.iter().zip(&new).take_while(|(a, b)| a == b).count();
    let tail = old[start..]
        .iter()
        .rev()
        .zip(new[start..].iter().rev())
        .take_while(|(a, b)| a == b)
        .count();
    let (mut old_end, mut new_end) = (old.len() - tail, new.len() - tail);
    let lines = if format == FormatCategory::Indent {
        let changed = [&old[start..old_end], &new[start..new_end]];
        if let Some(depth) = changed.iter().filter_map(|l| indent::shallowest(l)).min() {
            let deeper = indent::deeper_run(&new[new_end..], depth);
            old_end += deeper;
            new_end += deeper;
        }
        indent::embed_range(&new, start..new_end)
    } else {
        flat_lines((start..).zip(new[start..new_end].iter().copied()))
    };
    let window = EditWindow::Lines {
        start,
        old_end,
        new_end,
    };
    (window, lines)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The window's embedding equals the whole-text embedding's lines in
    /// the window, and the lines outside it are the old embedding's,
    /// shifted.
    fn assert_exact(old: &str, new: &str, format: FormatCategory) -> EditWindow {
        let (window, lines) = embed_edit(Some(old), new, format);
        let full = embed(new, format);
        let EditWindow::Lines {
            start,
            old_end,
            new_end,
        } = window
        else {
            assert_eq!(lines, full);
            return window;
        };
        let in_window = |l: &&EmbeddedLine| (start..new_end).contains(&(l.line_no as usize - 1));
        let want: Vec<EmbeddedLine> = full.iter().filter(in_window).cloned().collect();
        assert_eq!(lines, want, "window lines of {new:?}");
        let kept: Vec<EmbeddedLine> = embed(old, format)
            .into_iter()
            .filter(|l| !(start..old_end).contains(&(l.line_no as usize - 1)))
            .map(|mut l| {
                if l.line_no as usize > old_end {
                    l.line_no = (l.line_no as usize - old_end + new_end) as u32;
                }
                l
            })
            .collect();
        let outside: Vec<EmbeddedLine> = full.iter().filter(|l| !in_window(l)).cloned().collect();
        assert_eq!(kept, outside, "lines outside the window of {new:?}");
        window
    }

    #[test]
    fn a_leaf_edit_reembeds_one_line() {
        let old = "a\n  b\n  c\n    d\ne\n";
        let new = "a\n  b\n  x\n    d\ne\n";
        // `c` heads `d`, so its replacement carries `d` along.
        assert_eq!(
            assert_exact(old, new, FormatCategory::Indent),
            EditWindow::Lines {
                start: 2,
                old_end: 4,
                new_end: 4
            }
        );
        let new = "a\n  b\n  c\n    x\ne\n";
        assert_eq!(
            assert_exact(old, new, FormatCategory::Indent),
            EditWindow::Lines {
                start: 3,
                old_end: 4,
                new_end: 4
            }
        );
    }

    #[test]
    fn reindenting_a_header_reembeds_its_block() {
        let old = "a\n  b\n  c\n    d\n    e\n  f\ng\n";
        let new = "a\n  b\n    c\n    d\n    e\n  f\ng\n";
        assert_eq!(
            assert_exact(old, new, FormatCategory::Indent),
            EditWindow::Lines {
                start: 2,
                old_end: 5,
                new_end: 5
            }
        );
        // Dedenting a child out of its block moves nothing after it
        // that is not deeper.
        let new = "a\n  b\n  c\n    d\n  e\n  f\ng\n";
        assert_exact(old, new, FormatCategory::Indent);
    }

    #[test]
    fn deleting_a_header_reparents_its_children() {
        let old = "a\n  b\n    c\n    d\n  e\n";
        let new = "a\n    c\n    d\n  e\n";
        assert_eq!(
            assert_exact(old, new, FormatCategory::Indent),
            EditWindow::Lines {
                start: 1,
                old_end: 4,
                new_end: 3
            }
        );
    }

    #[test]
    fn blank_tab_and_crlf_edits_stay_exact() {
        let old = "a\n\tb\n\n\tc\nd\n";
        for new in [
            "a\n\tb\n\tc\nd\n",
            "a\n\tb\n   \n\n\tc\nd\n",
            "a\r\n\tb\r\n\r\n\tc\r\nd\r\n",
            "a\n\tb\n\n\tc\nd",
            "a\n        b\n\n\tc\nd\n",
        ] {
            assert_exact(old, new, FormatCategory::Indent);
            assert_exact(old, new, FormatCategory::Flat);
        }
        // A blank line inside a block does not end the window.
        let nested = "a\n  b\n\n    c\nd\n";
        assert_eq!(
            assert_exact(nested, "a\n      b\n\n    c\nd\n", FormatCategory::Indent),
            EditWindow::Lines {
                start: 1,
                old_end: 4,
                new_end: 4
            }
        );
        // A blank-only change re-embeds nothing.
        let (_, lines) = embed_edit(Some(old), "a\n\tb\n\n\n\tc\nd\n", FormatCategory::Indent);
        assert!(lines.is_empty());
    }

    #[test]
    fn identical_text_has_an_empty_window() {
        let text = "a\n  b\nc\n";
        let (window, lines) = embed_edit(Some(text), text, FormatCategory::Indent);
        assert_eq!(
            window,
            EditWindow::Lines {
                start: 3,
                old_end: 3,
                new_end: 3
            }
        );
        assert!(lines.is_empty());
    }

    #[test]
    fn json_yaml_and_a_missing_old_text_reembed_everything() {
        let (window, lines) = embed_edit(Some("a: 1\n"), "a: 2\n", FormatCategory::Yaml);
        assert_eq!(window, EditWindow::Whole);
        assert_eq!(lines, embed("a: 2\n", FormatCategory::Yaml));
        let (window, _) = embed_edit(Some("{}"), "{\"a\": 1}", FormatCategory::Json);
        assert_eq!(window, EditWindow::Whole);
        let (window, lines) = embed_edit(None, "a\n  b\n", FormatCategory::Indent);
        assert_eq!(window, EditWindow::Whole);
        assert_eq!(lines, embed("a\n  b\n", FormatCategory::Indent));
    }
}
