//! Pike VM: NFA simulation with capture slots in linear time.
//!
//! The VM maintains a priority-ordered list of threads per input position.
//! Epsilon transitions (`Split`, `Jmp`, `Save`, anchors) are resolved when
//! a thread is *added*, so stepping only ever sees `Char` and `Match`.
//! Leftmost-greedy semantics fall out of thread priority: earlier-added
//! threads win, and greedy `Split`s put the looping branch first.

use crate::compile::{Inst, Program};

/// A runnable thread: program counter plus capture slots.
struct Thread {
    pc: usize,
    slots: Vec<Option<usize>>,
}

/// Searches `text` for the leftmost match. Returns the capture slots
/// (byte offsets), with slots 0/1 delimiting the whole match.
pub fn search(prog: &Program, text: &str) -> Option<Vec<Option<usize>>> {
    let chars: Vec<(usize, char)> = text.char_indices().collect();
    let n = chars.len();
    let mut clist: Vec<Thread> = Vec::new();
    let mut nlist: Vec<Thread> = Vec::new();
    // Visited markers per list generation, to keep addthread O(insts).
    let mut seen = vec![u32::MAX; prog.insts.len()];
    let mut generation: u32 = 0;
    let mut matched: Option<Vec<Option<usize>>> = None;

    for i in 0..=n {
        let byte_pos = if i < n { chars[i].0 } else { text.len() };
        // New start thread at this position (lowest priority), unless a
        // match is already pinned at an earlier start.
        if matched.is_none() {
            let slots = vec![None; prog.slots];
            add_thread(
                prog,
                &mut clist,
                &mut seen,
                generation,
                0,
                byte_pos,
                text.len(),
                slots,
            );
        }
        let mut j = 0;
        while j < clist.len() {
            // A run-list entry is read once: its slots move on with the
            // thread (or into the match) instead of being copied.
            let pc = clist[j].pc;
            match &prog.insts[pc] {
                Inst::Char(pred) => {
                    if i < n && pred.matches(chars[i].1) {
                        let next_byte = if i + 1 < n {
                            chars[i + 1].0
                        } else {
                            text.len()
                        };
                        add_thread(
                            prog,
                            &mut nlist,
                            &mut seen,
                            generation + 1,
                            pc + 1,
                            next_byte,
                            text.len(),
                            std::mem::take(&mut clist[j].slots),
                        );
                    }
                }
                Inst::Match => {
                    matched = Some(std::mem::take(&mut clist[j].slots));
                    // Kill lower-priority threads: they can only produce a
                    // worse (later-starting or less-greedy) match.
                    clist.truncate(j + 1);
                }
                // Epsilons were resolved in add_thread.
                other => unreachable!("epsilon {other:?} in run list"),
            }
            j += 1;
        }
        std::mem::swap(&mut clist, &mut nlist);
        nlist.clear();
        generation += 2; // both lists advanced a generation
        if clist.is_empty() && matched.is_some() {
            break;
        }
    }
    matched
}

/// Adds a thread, chasing epsilon instructions. `gen` tags the visited set
/// for the target list so each pc enters a list at most once per position.
#[allow(clippy::too_many_arguments)]
fn add_thread(
    prog: &Program,
    list: &mut Vec<Thread>,
    seen: &mut [u32],
    gen: u32,
    pc: usize,
    pos: usize,
    end: usize,
    slots: Vec<Option<usize>>,
) {
    if seen[pc] == gen {
        return;
    }
    seen[pc] = gen;
    match &prog.insts[pc] {
        Inst::Jmp(t) => add_thread(prog, list, seen, gen, *t, pos, end, slots),
        Inst::Split(a, b) => {
            add_thread(prog, list, seen, gen, *a, pos, end, slots.clone());
            add_thread(prog, list, seen, gen, *b, pos, end, slots);
        }
        Inst::Save(slot) => {
            let mut s = slots;
            s[*slot] = Some(pos);
            add_thread(prog, list, seen, gen, pc + 1, pos, end, s);
        }
        Inst::AssertStart => {
            if pos == 0 {
                add_thread(prog, list, seen, gen, pc + 1, pos, end, slots);
            }
        }
        Inst::AssertEnd => {
            if pos == end {
                add_thread(prog, list, seen, gen, pc + 1, pos, end, slots);
            }
        }
        Inst::Char(_) | Inst::Match => list.push(Thread { pc, slots }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::parse::parse;

    fn run(pat: &str, text: &str) -> Option<Vec<Option<usize>>> {
        search(&compile(&parse(pat).unwrap()).unwrap(), text)
    }

    #[test]
    fn whole_match_slots() {
        let s = run("bc", "abcd").unwrap();
        assert_eq!(s[0], Some(1));
        assert_eq!(s[1], Some(3));
    }

    #[test]
    fn no_match_is_none() {
        assert!(run("xyz", "abc").is_none());
    }

    #[test]
    fn greedy_takes_longest() {
        let s = run("a+", "aaab").unwrap();
        assert_eq!((s[0], s[1]), (Some(0), Some(3)));
    }

    #[test]
    fn lazy_takes_shortest() {
        let s = run("a+?", "aaab").unwrap();
        assert_eq!((s[0], s[1]), (Some(0), Some(1)));
    }

    #[test]
    fn leftmost_wins_over_longer_later() {
        // Both "ab" at 0 and "abb…" later; leftmost must win.
        let s = run("ab+", "abxabbbb").unwrap();
        assert_eq!((s[0], s[1]), (Some(0), Some(2)));
    }

    #[test]
    fn empty_star_does_not_loop_forever() {
        // (a*)* on "b" must terminate and match empty at 0.
        let s = run("(a*)*", "b").unwrap();
        assert_eq!((s[0], s[1]), (Some(0), Some(0)));
    }

    #[test]
    fn multibyte_offsets_are_byte_positions() {
        let s = run("X", "éX").unwrap();
        assert_eq!((s[0], s[1]), (Some(2), Some(3))); // é is 2 bytes
    }
}
