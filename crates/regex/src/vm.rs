//! Pike-style NFA simulation.
//!
//! The VM advances a set of live threads (program counters) one input
//! character at a time. Because the thread set is deduplicated, the total
//! work per character is bounded by the program size, giving linear-time
//! matching regardless of the pattern.
//!
//! Every match on a thread runs on that thread's one pair of thread sets,
//! grown to the largest program it has run, so matching allocates nothing
//! once the pair is warm. Compilation caps a program at
//! [`MAX_PROGRAM_LEN`](crate::compile::MAX_PROGRAM_LEN) instructions, which
//! also caps this scratch.

use std::cell::RefCell;

use crate::program::{Inst, Program};

thread_local! {
    static SCRATCH: RefCell<[ThreadSet; 2]> =
        const { RefCell::new([ThreadSet::EMPTY, ThreadSet::EMPTY]) };
}

/// Returns the length in bytes of the longest match of `program` starting
/// at byte offset `start` of `text`, or `None` when nothing matches there.
pub fn longest_match_at(program: &Program, text: &str, start: usize) -> Option<usize> {
    assert!(
        text.is_char_boundary(start),
        "start offset {start} is not a char boundary"
    );
    SCRATCH.with(|scratch| {
        let mut scratch = scratch.borrow_mut();
        let [current, next] = &mut *scratch;
        current.reset(program.len());
        next.reset(program.len());
        run(program, text, start, current, next)
    })
}

fn run<'a>(
    program: &Program,
    text: &str,
    start: usize,
    mut current: &'a mut ThreadSet,
    mut next: &'a mut ThreadSet,
) -> Option<usize> {
    let mut best: Option<usize> = None;

    let at_input_start = start == 0;
    add_thread(program, current, 0, at_input_start, {
        // Whether position `start` is at the end of input.
        start == text.len()
    });
    if current.matched {
        best = Some(0);
    }

    let tail = &text[start..];
    for (offset, c) in tail.char_indices() {
        if current.is_dead() {
            break;
        }
        let next_offset = offset + c.len_utf8();
        let at_end_after = start + next_offset == text.len();
        next.clear();
        for i in 0..current.pcs.len() {
            let pc = current.pcs[i];
            let advance = match &program.insts[pc] {
                Inst::Char(ch) => *ch == c,
                Inst::AnyChar => c != '\n',
                Inst::Class(set) => set.contains(c),
                // Epsilon instructions never sit in the thread list; they
                // are resolved eagerly by `add_thread`.
                _ => false,
            };
            if advance {
                add_thread(program, next, pc + 1, false, at_end_after);
            }
        }
        if next.matched {
            best = Some(next_offset);
        }
        std::mem::swap(&mut current, &mut next);
    }
    best
}

/// A deduplicated set of live program counters.
///
/// Membership marks are generation-stamped so that `clear` is `O(1)` and
/// also forgets epsilon instructions that were visited but never stored in
/// `pcs`.
struct ThreadSet {
    pcs: Vec<usize>,
    stamp: Vec<u64>,
    generation: u64,
    matched: bool,
}

impl ThreadSet {
    const EMPTY: ThreadSet = ThreadSet {
        pcs: Vec::new(),
        stamp: Vec::new(),
        generation: 0,
        matched: false,
    };

    /// Empties the set for a run of a program of `n` instructions. Stamps
    /// left by earlier runs are all below the new generation, so growing
    /// is the only work that depends on `n`.
    fn reset(&mut self, n: usize) {
        self.clear();
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
            self.pcs.reserve(n);
        }
    }

    fn clear(&mut self) {
        self.generation += 1;
        self.pcs.clear();
        self.matched = false;
    }

    fn visited(&mut self, pc: usize) -> bool {
        if self.stamp[pc] == self.generation {
            true
        } else {
            self.stamp[pc] = self.generation;
            false
        }
    }

    fn is_dead(&self) -> bool {
        self.pcs.is_empty()
    }
}

/// Adds `pc` to the thread set, eagerly following epsilon transitions
/// (splits, jumps, and satisfied anchors).
fn add_thread(program: &Program, set: &mut ThreadSet, pc: usize, at_start: bool, at_end: bool) {
    if set.visited(pc) {
        return;
    }
    match &program.insts[pc] {
        Inst::Jmp(t) => add_thread(program, set, *t, at_start, at_end),
        Inst::Split(a, b) => {
            add_thread(program, set, *a, at_start, at_end);
            add_thread(program, set, *b, at_start, at_end);
        }
        Inst::AssertStart => {
            if at_start {
                add_thread(program, set, pc + 1, at_start, at_end);
            }
        }
        Inst::AssertEnd => {
            if at_end {
                add_thread(program, set, pc + 1, at_start, at_end);
            }
        }
        Inst::Match => set.matched = true,
        Inst::Char(_) | Inst::AnyChar | Inst::Class(_) => set.pcs.push(pc),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::parse::parse;

    fn run(pattern: &str, text: &str, start: usize) -> Option<usize> {
        let program = compile(&parse(pattern).unwrap());
        longest_match_at(&program, text, start)
    }

    #[test]
    fn simple_runs() {
        assert_eq!(run("abc", "abcdef", 0), Some(3));
        assert_eq!(run("abc", "xabc", 0), None);
        assert_eq!(run("abc", "xabc", 1), Some(3));
    }

    #[test]
    fn longest_of_alternatives() {
        assert_eq!(run("a|aa|aaa", "aaaa", 0), Some(3));
    }

    #[test]
    fn anchors_respect_position() {
        assert_eq!(run("^a", "ab", 0), Some(1));
        assert_eq!(run("^a", "ba", 1), None);
        assert_eq!(run("a$", "ba", 1), Some(1));
        assert_eq!(run("a$", "ab", 0), None);
    }

    #[test]
    fn start_anchor_mid_string_never_matches() {
        assert_eq!(run("^b", "ab", 1), None);
    }

    #[test]
    #[should_panic(expected = "char boundary")]
    fn non_boundary_start_panics() {
        run("a", "é", 1);
    }

    #[test]
    fn dead_threads_stop_early() {
        // Would loop forever if the VM failed to detect thread death.
        assert_eq!(run("z", &"a".repeat(10_000), 0), None);
    }
}
