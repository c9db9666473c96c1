//! Lowers an [`Ast`] to a flat NFA [`Program`] (Thompson construction).

use crate::ast::Ast;
use crate::program::{Inst, Program};

/// The most instructions a compiled program may hold. Bounded repetition
/// unrolls, so `x{50000000}` would compile to 50 million instructions;
/// the largest built-in lexer token (`pfx6`) needs 312.
pub const MAX_PROGRAM_LEN: usize = 10_000;

/// Returns the number of instructions [`compile`] emits for `ast`,
/// saturating at `usize::MAX`, without emitting them.
pub fn program_len(ast: &Ast) -> usize {
    fragment_len(ast).saturating_add(1) // The final `Match`.
}

fn fragment_len(node: &Ast) -> usize {
    match node {
        Ast::Empty => 0,
        Ast::Literal(_) | Ast::Dot | Ast::Class(_) | Ast::StartAnchor | Ast::EndAnchor => 1,
        Ast::Concat(parts) => parts
            .iter()
            .fold(0, |n, part| n.saturating_add(fragment_len(part))),
        // A split and a jump around every branch but the last.
        Ast::Alternate(branches) => branches
            .iter()
            .fold(2 * branches.len().saturating_sub(1), |n, branch| {
                n.saturating_add(fragment_len(branch))
            }),
        Ast::Repeat { node, min, max } => {
            let body = fragment_len(node);
            let min = *min as usize;
            match max {
                // `min` copies (one for `e*`) and a split, plus a jump for `e*`.
                None => {
                    body.saturating_mul(min.max(1))
                        .saturating_add(if min == 0 { 2 } else { 1 })
                }
                // `min` copies, then a split and a copy per optional one.
                Some(max) => body.saturating_mul(min).saturating_add(
                    body.saturating_add(1)
                        .saturating_mul((*max as usize).saturating_sub(min)),
                ),
            }
        }
    }
}

/// Compiles `ast` into an executable NFA program.
pub fn compile(ast: &Ast) -> Program {
    let mut compiler = Compiler { insts: Vec::new() };
    compiler.emit_node(ast);
    compiler.insts.push(Inst::Match);
    debug_assert_eq!(compiler.insts.len(), program_len(ast));
    Program {
        insts: compiler.insts,
        matches_empty: ast.matches_empty(),
    }
}

struct Compiler {
    insts: Vec<Inst>,
}

impl Compiler {
    fn pc(&self) -> usize {
        self.insts.len()
    }

    /// Emits the program fragment for `node`; on entry the fragment starts
    /// at the current pc, and on exit execution falls through to the next
    /// emitted instruction.
    fn emit_node(&mut self, node: &Ast) {
        match node {
            Ast::Empty => {}
            Ast::Literal(c) => self.insts.push(Inst::Char(*c)),
            Ast::Dot => self.insts.push(Inst::AnyChar),
            Ast::Class(set) => self.insts.push(Inst::Class(set.clone())),
            Ast::StartAnchor => self.insts.push(Inst::AssertStart),
            Ast::EndAnchor => self.insts.push(Inst::AssertEnd),
            Ast::Concat(parts) => {
                for part in parts {
                    self.emit_node(part);
                }
            }
            Ast::Alternate(branches) => self.emit_alternate(branches),
            Ast::Repeat { node, min, max } => self.emit_repeat(node, *min, *max),
        }
    }

    fn emit_alternate(&mut self, branches: &[Ast]) {
        // Chain of splits: each split tries the next branch first and
        // falls back to the remaining alternatives. Jumps at the end of
        // every branch converge on a common exit.
        let mut jump_ends = Vec::new();
        for (i, branch) in branches.iter().enumerate() {
            let last = i == branches.len() - 1;
            if !last {
                let split_pc = self.pc();
                self.insts.push(Inst::Split(0, 0)); // Patched below.
                self.emit_node(branch);
                jump_ends.push(self.pc());
                self.insts.push(Inst::Jmp(0)); // Patched below.
                let next_branch = self.pc();
                self.insts[split_pc] = Inst::Split(split_pc + 1, next_branch);
            } else {
                self.emit_node(branch);
            }
        }
        let end = self.pc();
        for pc in jump_ends {
            self.insts[pc] = Inst::Jmp(end);
        }
    }

    fn emit_repeat(&mut self, node: &Ast, min: u32, max: Option<u32>) {
        match (min, max) {
            (0, Some(1)) => {
                // `e?`
                let split_pc = self.pc();
                self.insts.push(Inst::Split(0, 0));
                self.emit_node(node);
                let end = self.pc();
                self.insts[split_pc] = Inst::Split(split_pc + 1, end);
            }
            (0, None) => {
                // `e*`
                let split_pc = self.pc();
                self.insts.push(Inst::Split(0, 0));
                self.emit_node(node);
                self.insts.push(Inst::Jmp(split_pc));
                let end = self.pc();
                self.insts[split_pc] = Inst::Split(split_pc + 1, end);
            }
            (1, None) => {
                // `e+`
                let start = self.pc();
                self.emit_node(node);
                let split_pc = self.pc();
                self.insts.push(Inst::Split(start, split_pc + 1));
            }
            (min, None) => {
                // `e{n,}` = n-1 copies followed by `e+`.
                for _ in 0..min.saturating_sub(1) {
                    self.emit_node(node);
                }
                self.emit_repeat(node, 1, None);
            }
            (min, Some(max)) => {
                // `e{n,m}` = n copies followed by m-n optional copies.
                for _ in 0..min {
                    self.emit_node(node);
                }
                let optional = max - min;
                // Each optional copy can bail out to the common end.
                let mut split_pcs = Vec::new();
                for _ in 0..optional {
                    let split_pc = self.pc();
                    self.insts.push(Inst::Split(0, 0));
                    split_pcs.push(split_pc);
                    self.emit_node(node);
                }
                let end = self.pc();
                for pc in split_pcs {
                    self.insts[pc] = Inst::Split(pc + 1, end);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;

    fn program(p: &str) -> Program {
        compile(&parse(p).unwrap())
    }

    #[test]
    fn literal_program_shape() {
        let prog = program("ab");
        assert_eq!(prog.len(), 3); // Char, Char, Match.
        assert!(matches!(prog.insts[2], Inst::Match));
    }

    #[test]
    fn empty_program_matches_empty() {
        let prog = program("");
        assert!(prog.matches_empty);
        assert_eq!(prog.len(), 1);
    }

    #[test]
    fn star_program_matches_empty_flag() {
        assert!(program("a*").matches_empty);
        assert!(!program("a+").matches_empty);
    }

    #[test]
    fn bounded_repeat_unrolls() {
        // `a{3}` should be three Char instructions plus Match.
        let prog = program("a{3}");
        assert_eq!(prog.len(), 4);
    }

    #[test]
    fn program_len_counts_without_compiling() {
        for pattern in [
            "",
            "ab",
            "a|b|c",
            "(ab|cd)*e?",
            "x{2,5}",
            "(a+)+",
            "a{0,3}",
            "a{0}b",
            "a{3,}",
            "(a|)*",
            "^a$",
            "[0-9a-fA-F]{1,4}(:[0-9a-fA-F]{1,4}){1,6}",
        ] {
            let ast = parse(pattern).unwrap();
            assert_eq!(program_len(&ast), compile(&ast).len(), "{pattern}");
        }
        let huge = parse("((x{4000000000}){4000000000}){4000000000}").unwrap();
        assert_eq!(program_len(&huge), usize::MAX);
    }

    #[test]
    fn split_targets_in_range() {
        for pattern in ["a|b|c", "(ab|cd)*e?", "x{2,5}", "(a+)+", "a{0,3}"] {
            let prog = program(pattern);
            for inst in &prog.insts {
                match inst {
                    Inst::Split(a, b) => {
                        assert!(*a < prog.len(), "{pattern}: split target {a} oob");
                        assert!(*b < prog.len(), "{pattern}: split target {b} oob");
                    }
                    Inst::Jmp(t) => assert!(*t < prog.len(), "{pattern}: jmp target {t} oob"),
                    _ => {}
                }
            }
        }
    }
}
