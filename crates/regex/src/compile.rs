//! AST → NFA program for the Pike VM.

use crate::parse::{Ast, CharClass, RegexError};

/// Largest program [`compile`] will emit. Counted repeats are compiled by
/// copying their body, so a 16-character pattern such as
/// `(a{2000}){2000}$` asks for 4 M instructions; rule files come from
/// outside the program and the largest real Hoiho-style rule is under a
/// hundred instructions.
const MAX_PROGRAM_INSTS: usize = 100_000;

/// One character-consuming predicate.
#[derive(Clone, Debug)]
pub enum CharPred {
    Literal(char),
    /// `.` — anything but `\n`.
    Dot,
    Class(CharClass),
}

impl CharPred {
    pub fn matches(&self, c: char) -> bool {
        match self {
            CharPred::Literal(l) => *l == c,
            CharPred::Dot => c != '\n',
            CharPred::Class(cc) => cc.matches(c),
        }
    }
}

/// NFA instruction. `Split` tries the first branch with higher priority,
/// which is what makes repetition greedy (loop branch first) or lazy (exit
/// branch first).
#[derive(Clone, Debug)]
pub enum Inst {
    Char(CharPred),
    Split(usize, usize),
    Jmp(usize),
    /// Store the current position into a capture slot.
    Save(usize),
    /// `^` — succeeds only at position 0.
    AssertStart,
    /// `$` — succeeds only at end of input.
    AssertEnd,
    Match,
}

/// A compiled program.
pub struct Program {
    pub insts: Vec<Inst>,
    /// Number of capture groups (excluding group 0).
    pub groups: usize,
    /// Number of save slots (2 per group, including group 0).
    pub slots: usize,
}

/// Compiles an AST, wrapping it in group 0: `Save(0) body Save(1) Match`.
/// Fails, before emitting anything, when the program would be longer than
/// `MAX_PROGRAM_INSTS`.
pub fn compile(ast: &Ast) -> Result<Program, RegexError> {
    let size = emitted_len(ast).saturating_add(3);
    if size > MAX_PROGRAM_INSTS {
        return Err(RegexError {
            message: format!(
                "pattern compiles to {size} instructions, above the limit of {MAX_PROGRAM_INSTS}"
            ),
            offset: 0,
        });
    }
    let mut c = Compiler {
        insts: Vec::new(),
        max_group: 0,
    };
    c.insts.push(Inst::Save(0));
    c.emit(ast);
    c.insts.push(Inst::Save(1));
    c.insts.push(Inst::Match);
    debug_assert_eq!(c.insts.len(), size, "emitted_len disagrees with emit");
    let groups = c.max_group;
    Ok(Program {
        insts: c.insts,
        groups,
        slots: 2 * (groups + 1),
    })
}

/// The number of instructions [`Compiler::emit`] produces for `ast`,
/// saturating at `usize::MAX` — computed from the tree alone so an
/// oversized pattern is refused without allocating for it.
fn emitted_len(ast: &Ast) -> usize {
    match ast {
        Ast::Empty => 0,
        Ast::Literal(_) | Ast::Dot | Ast::Class(_) | Ast::AnchorStart | Ast::AnchorEnd => 1,
        Ast::Concat(items) => items
            .iter()
            .fold(0, |n, item| n.saturating_add(emitted_len(item))),
        // A Split and a Jmp per branch but the last.
        Ast::Alt(alts) => alts.iter().fold(2 * (alts.len() - 1), |n, alt| {
            n.saturating_add(emitted_len(alt))
        }),
        Ast::Group(_, inner) => emitted_len(inner).saturating_add(2),
        Ast::NonCapGroup(inner) => emitted_len(inner),
        Ast::Repeat { node, min, max, .. } => {
            let body = emitted_len(node);
            let required = body.saturating_mul(*min as usize);
            let tail = match max {
                // Split, body, Jmp.
                None => body.saturating_add(2),
                // A Split before each optional copy.
                Some(max) => body
                    .saturating_add(1)
                    .saturating_mul(max.saturating_sub(*min) as usize),
            };
            required.saturating_add(tail)
        }
    }
}

struct Compiler {
    insts: Vec<Inst>,
    max_group: usize,
}

impl Compiler {
    fn emit(&mut self, ast: &Ast) {
        match ast {
            Ast::Empty => {}
            Ast::Literal(c) => self.insts.push(Inst::Char(CharPred::Literal(*c))),
            Ast::Dot => self.insts.push(Inst::Char(CharPred::Dot)),
            Ast::Class(cc) => self.insts.push(Inst::Char(CharPred::Class(cc.clone()))),
            Ast::AnchorStart => self.insts.push(Inst::AssertStart),
            Ast::AnchorEnd => self.insts.push(Inst::AssertEnd),
            Ast::Concat(items) => {
                for item in items {
                    self.emit(item);
                }
            }
            Ast::Alt(alts) => self.emit_alt(alts),
            Ast::Group(idx, inner) => {
                self.max_group = self.max_group.max(*idx);
                self.insts.push(Inst::Save(2 * idx));
                self.emit(inner);
                self.insts.push(Inst::Save(2 * idx + 1));
            }
            Ast::NonCapGroup(inner) => self.emit(inner),
            Ast::Repeat {
                node,
                min,
                max,
                greedy,
            } => self.emit_repeat(node, *min, *max, *greedy),
        }
    }

    fn emit_alt(&mut self, alts: &[Ast]) {
        // alt := a | b | c compiles to a chain of Splits with Jmps to a
        // common exit.
        let mut jmp_fixups = Vec::new();
        for (i, alt) in alts.iter().enumerate() {
            if i + 1 < alts.len() {
                let split_at = self.insts.len();
                self.insts.push(Inst::Split(0, 0)); // fixed below
                self.emit(alt);
                jmp_fixups.push(self.insts.len());
                self.insts.push(Inst::Jmp(0)); // fixed below
                let next_branch = self.insts.len();
                self.insts[split_at] = Inst::Split(split_at + 1, next_branch);
            } else {
                self.emit(alt);
            }
        }
        let end = self.insts.len();
        for j in jmp_fixups {
            self.insts[j] = Inst::Jmp(end);
        }
    }

    fn emit_repeat(&mut self, node: &Ast, min: u32, max: Option<u32>, greedy: bool) {
        // Required copies. A body that emits nothing (`(?:)`) is not under
        // the size limit's protection, so it is not walked `min` times.
        let start = self.insts.len();
        for _ in 0..min {
            self.emit(node);
            if self.insts.len() == start {
                break;
            }
        }
        match max {
            None => {
                // Unbounded tail: a star loop.
                let split_at = self.insts.len();
                self.insts.push(Inst::Split(0, 0));
                self.emit(node);
                self.insts.push(Inst::Jmp(split_at));
                let after = self.insts.len();
                self.insts[split_at] = if greedy {
                    Inst::Split(split_at + 1, after)
                } else {
                    Inst::Split(after, split_at + 1)
                };
            }
            Some(maxn) => {
                // (max - min) optional copies, each individually skippable
                // to a common exit.
                let optional = maxn.saturating_sub(min);
                let mut split_fixups = Vec::new();
                for _ in 0..optional {
                    let split_at = self.insts.len();
                    self.insts.push(Inst::Split(0, 0));
                    split_fixups.push(split_at);
                    self.emit(node);
                }
                let end = self.insts.len();
                for s in split_fixups {
                    self.insts[s] = if greedy {
                        Inst::Split(s + 1, end)
                    } else {
                        Inst::Split(end, s + 1)
                    };
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;

    fn prog(pat: &str) -> Program {
        compile(&parse(pat).unwrap()).unwrap()
    }

    #[test]
    fn literal_program_shape() {
        let p = prog("ab");
        // Save(0) Char(a) Char(b) Save(1) Match
        assert_eq!(p.insts.len(), 5);
        assert!(matches!(p.insts[0], Inst::Save(0)));
        assert!(matches!(p.insts[4], Inst::Match));
        assert_eq!(p.groups, 0);
        assert_eq!(p.slots, 2);
    }

    #[test]
    fn group_slots_counted() {
        let p = prog("(a)(b)");
        assert_eq!(p.groups, 2);
        assert_eq!(p.slots, 6);
    }

    #[test]
    fn split_targets_in_range() {
        for pat in ["a*", "a+?", "(ab|cd)+", "x{2,5}", "a{3,}", "(a|b|c)?"] {
            let p = prog(pat);
            for inst in &p.insts {
                match inst {
                    Inst::Split(a, b) => {
                        assert!(*a < p.insts.len() && *b < p.insts.len(), "{pat}: {inst:?}");
                    }
                    Inst::Jmp(t) => assert!(*t < p.insts.len(), "{pat}: {inst:?}"),
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn emitted_len_is_exact() {
        for pat in [
            "",
            "ab",
            "a|b|c",
            "(a|)(?:b)",
            "a*b+?c?",
            "x{2,5}",
            "a{3,}",
            "a{0}",
            "(ab|cd){2,4}?",
            r"^xe-\d+\.([a-z0-9-]+)\.foo\.net$",
            r"\.rcr\d+\.([a-z]{3,4})\d{2}\.atlas\.foo\.com$",
        ] {
            let ast = parse(pat).unwrap();
            assert_eq!(emitted_len(&ast) + 3, prog(pat).insts.len(), "{pat}");
        }
    }

    #[test]
    fn oversized_programs_are_refused_before_emitting() {
        // 4 M instructions, and a count that never finishes copying: both
        // must fail on the size computed from the tree, i.e. at once.
        for pat in [
            "(a{2000}){2000}$",
            "a{4000000000}",
            "(?:a{4000000000}){4000000000}",
        ] {
            let start = std::time::Instant::now();
            let err = compile(&parse(pat).unwrap()).err().expect(pat);
            assert!(
                start.elapsed().as_millis() < 250,
                "{pat} took {:?}",
                start.elapsed()
            );
            assert!(err.message.contains("instructions"), "{err}");
        }
        // An empty body has no size to refuse; it must not cost time either.
        assert_eq!(prog("(?:(?:){4000000000}){4000000000}").insts.len(), 3);
        // The boundary itself: the limit compiles, one more does not.
        let fits = format!("a{{{}}}", MAX_PROGRAM_INSTS - 3);
        assert_eq!(prog(&fits).insts.len(), MAX_PROGRAM_INSTS);
        let over = format!("a{{{}}}", MAX_PROGRAM_INSTS - 2);
        assert!(compile(&parse(&over).unwrap()).is_err());
    }

    #[test]
    fn char_pred_semantics() {
        assert!(CharPred::Literal('a').matches('a'));
        assert!(!CharPred::Literal('a').matches('b'));
        assert!(CharPred::Dot.matches('x'));
        assert!(!CharPred::Dot.matches('\n'));
    }
}
