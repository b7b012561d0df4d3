//! Linear-time Horn closure: the engine behind the eventual consequence
//! mapping `S_P` (Definition 4.2).
//!
//! Given a fixed set `Ĩ` of negative literals, the paper forms the program
//! `P ∪ Ĩ` — negative literals in `P` are treated as *additional EDB
//! relations* whose facts are given by `Ĩ` (Figure 3) — and takes the Horn
//! least fixpoint `S_P(Ĩ) = T_{P∪Ĩ}↑ω(∅)`. Because the negative facts are
//! frozen, this closure is a plain Horn computation and runs in time linear
//! in the program size with the classic Dowling–Gallier counter scheme:
//! every rule keeps a countdown of positive subgoals not yet derived and of
//! negative subgoals not yet confirmed by `Ĩ`; when both hit zero the head
//! is derived and its own counters cascade.
//!
//! [`HornEngine`] additionally supports *warm starting*: `Ĩ` may grow
//! monotonically (`assume_false`) and the closure is extended incrementally
//! instead of recomputed. The alternating fixpoint's increasing chain of
//! underestimates `Ĩ₀ ⊆ Ĩ₂ ⊆ Ĩ₄ ⊆ …` exploits this (see
//! `afp-core::afp::Strategy::IncrementalUnder`).

use crate::atoms::AtomId;
use crate::bitset::AtomSet;
use crate::program::GroundProgram;

/// Incremental Horn-closure engine over a ground program.
///
/// Invariant: `derived` is exactly `T_{P∪Ĩ}↑ω(∅)` for the current set `Ĩ`
/// of assumed-false atoms, at every point where the public API returns.
pub struct HornEngine<'p> {
    prog: &'p GroundProgram,
    /// Per rule: positive subgoals not yet derived.
    pos_remaining: Vec<u32>,
    /// Per rule: negative subgoals not yet confirmed in `Ĩ`.
    neg_remaining: Vec<u32>,
    /// The atoms assumed false (`Ĩ`, stored as positive ids).
    assumed_false: AtomSet,
    /// The derived positive atoms.
    derived: AtomSet,
    /// Work queue of freshly derived atoms whose consequences are pending.
    queue: Vec<AtomId>,
}

impl<'p> HornEngine<'p> {
    /// Create an engine with `Ĩ = ∅` and run the initial closure (rules
    /// with no positive and no negative subgoals fire immediately).
    pub fn new(prog: &'p GroundProgram) -> Self {
        let mut engine = HornEngine {
            prog,
            pos_remaining: Vec::with_capacity(prog.rule_count()),
            neg_remaining: Vec::with_capacity(prog.rule_count()),
            assumed_false: prog.empty_set(),
            derived: prog.empty_set(),
            queue: Vec::new(),
        };
        for (i, r) in prog.rules().enumerate() {
            engine.pos_remaining.push(r.pos.len() as u32);
            engine.neg_remaining.push(r.neg.len() as u32);
            if r.pos.is_empty() && r.neg.is_empty() {
                engine.fire(i as u32);
            }
        }
        engine.propagate();
        engine
    }

    /// The current closure `S_P(Ĩ)`.
    pub fn derived(&self) -> &AtomSet {
        &self.derived
    }

    /// The current `Ĩ`.
    pub fn assumed_false(&self) -> &AtomSet {
        &self.assumed_false
    }

    /// Grow `Ĩ` by one atom and extend the closure. Adding an atom twice is
    /// a no-op (counters are decremented exactly once per rule occurrence —
    /// body lists are deduplicated by [`GroundProgram`]).
    pub fn assume_false(&mut self, atom: AtomId) {
        if !self.assumed_false.insert(atom.0) {
            return;
        }
        for &rid in self.prog.rules_with_neg(atom) {
            let n = &mut self.neg_remaining[rid as usize];
            *n -= 1;
            if *n == 0 && self.pos_remaining[rid as usize] == 0 {
                self.fire(rid);
            }
        }
        self.propagate();
    }

    /// Grow `Ĩ` by a whole set and extend the closure.
    pub fn assume_false_all(&mut self, atoms: &AtomSet) {
        for id in atoms.iter() {
            if !self.assumed_false.insert(id) {
                continue;
            }
            for &rid in self.prog.rules_with_neg(AtomId(id)) {
                let n = &mut self.neg_remaining[rid as usize];
                *n -= 1;
                if *n == 0 && self.pos_remaining[rid as usize] == 0 {
                    self.fire(rid);
                }
            }
        }
        self.propagate();
    }

    #[inline]
    fn fire(&mut self, rid: u32) {
        let head = self.prog.rule(rid).head;
        if self.derived.insert(head.0) {
            self.queue.push(head);
        }
    }

    fn propagate(&mut self) {
        while let Some(atom) = self.queue.pop() {
            for i in 0..self.prog.rules_with_pos(atom).len() {
                let rid = self.prog.rules_with_pos(atom)[i];
                let p = &mut self.pos_remaining[rid as usize];
                *p -= 1;
                if *p == 0 && self.neg_remaining[rid as usize] == 0 {
                    let head = self.prog.rule(rid).head;
                    if self.derived.insert(head.0) {
                        self.queue.push(head);
                    }
                }
            }
        }
    }
}

/// One-shot eventual consequence mapping: `S_P(Ĩ) = T_{P∪Ĩ}↑ω(∅)`
/// (Definition 4.2). Linear in the program size.
pub fn eventual_consequences(prog: &GroundProgram, assumed_false: &AtomSet) -> AtomSet {
    let mut engine = HornEngine::new(prog);
    engine.assume_false_all(assumed_false);
    engine.derived
}

/// Reference implementation of `S_P` by naive round-based iteration of
/// `T_{P∪Ĩ}` — quadratic, used only for differential testing of the
/// counter engine.
pub fn eventual_consequences_naive(prog: &GroundProgram, assumed_false: &AtomSet) -> AtomSet {
    let mut current = prog.empty_set();
    loop {
        let next = immediate_consequences(prog, &current, assumed_false);
        if next == current {
            return current;
        }
        current = next;
    }
}

/// The two-argument immediate consequence mapping `C_P(I⁺, Ĩ)` of
/// Definition 3.6: heads of rules whose positive subgoals all lie in `I⁺`
/// and whose negated subgoals all lie in `Ĩ`. One application, no closure.
///
/// The combined set `I⁺ ∔ Ĩ` is *not* required to be consistent — during
/// the alternating computation overestimates can be "contradictory"
/// (Example 5.1) and that is fine.
pub fn immediate_consequences(
    prog: &GroundProgram,
    pos: &AtomSet,
    assumed_false: &AtomSet,
) -> AtomSet {
    let mut out = prog.empty_set();
    'rules: for r in prog.rules() {
        for &p in r.pos.iter() {
            if !pos.contains(p.0) {
                continue 'rules;
            }
        }
        for &n in r.neg.iter() {
            if !assumed_false.contains(n.0) {
                continue 'rules;
            }
        }
        out.insert(r.head.0);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::parse_ground;

    #[test]
    fn plain_horn_closure() {
        let g = parse_ground("a. b :- a. c :- b. d :- e.");
        let out = eventual_consequences(&g, &g.empty_set());
        assert_eq!(g.set_to_names(&out), vec!["a", "b", "c"]);
    }

    #[test]
    fn negative_literals_block_until_assumed() {
        let g = parse_ground("p :- not q. q :- r.");
        let none = eventual_consequences(&g, &g.empty_set());
        assert!(none.is_empty());
        let q = g.find_atom_by_name("q", &[]).unwrap();
        let mut assumed = g.empty_set();
        assumed.insert(q.0);
        let out = eventual_consequences(&g, &assumed);
        assert_eq!(g.set_to_names(&out), vec!["p"]);
    }

    #[test]
    fn contradictory_overestimates_are_allowed() {
        // With Ĩ = {¬p, ¬q} both p and q are derivable — the combination is
        // "contradictory" in the paper's words, and deliberately permitted.
        let g = parse_ground("p :- not q. q :- not p.");
        let out = eventual_consequences(&g, &g.full_set());
        assert_eq!(out.count(), 2);
    }

    #[test]
    fn warm_start_equals_cold_start() {
        let g = parse_ground("p :- not q. q :- not r. r :- s, not t. s. u :- p, q. v :- not v.");
        let t = g.find_atom_by_name("t", &[]).unwrap();
        let r = g.find_atom_by_name("r", &[]).unwrap();
        let q = g.find_atom_by_name("q", &[]).unwrap();

        let mut warm = HornEngine::new(&g);
        warm.assume_false(t);
        warm.assume_false(r);
        warm.assume_false(q);
        // duplicate add is a no-op
        warm.assume_false(q);

        let mut assumed = g.empty_set();
        for a in [t, r, q] {
            assumed.insert(a.0);
        }
        let cold = eventual_consequences(&g, &assumed);
        assert_eq!(warm.derived(), &cold);
    }

    #[test]
    fn counter_engine_matches_naive_reference() {
        let g = parse_ground("a. b :- a, not c. c :- not b. d :- b, c. e :- d. e :- a, not a.");
        for mask in 0u32..32 {
            let mut assumed = g.empty_set();
            for bit in 0..5 {
                if mask & (1 << bit) != 0 {
                    assumed.insert(bit);
                }
            }
            assert_eq!(
                eventual_consequences(&g, &assumed),
                eventual_consequences_naive(&g, &assumed),
                "mismatch for Ĩ = {assumed:?}"
            );
        }
    }

    #[test]
    fn s_p_is_monotone_in_assumed_false() {
        let g = parse_ground("p :- not q. r :- p, not s. q :- not p.");
        let small = g.empty_set();
        let mut big = g.empty_set();
        big.insert(g.find_atom_by_name("q", &[]).unwrap().0);
        big.insert(g.find_atom_by_name("s", &[]).unwrap().0);
        let s_small = eventual_consequences(&g, &small);
        let s_big = eventual_consequences(&g, &big);
        assert!(s_small.is_subset(&s_big));
    }

    #[test]
    fn immediate_consequences_single_step() {
        let g = parse_ground("a. b :- a. c :- b.");
        let step1 = immediate_consequences(&g, &g.empty_set(), &g.empty_set());
        assert_eq!(g.set_to_names(&step1), vec!["a"]);
        let step2 = immediate_consequences(&g, &step1, &g.empty_set());
        assert_eq!(g.set_to_names(&step2), vec!["a", "b"]);
    }

    #[test]
    fn self_negation_never_fires_without_assumption() {
        let g = parse_ground("v :- not v.");
        assert!(eventual_consequences(&g, &g.empty_set()).is_empty());
        let out = eventual_consequences(&g, &g.full_set());
        assert_eq!(out.count(), 1);
    }

    #[test]
    fn example_5_1_first_steps() {
        // The program of Example 5.1 / Table I:
        //   S_P(∅)   = {p(c)}
        //   Ĩ₁       = conj({p(c)}) = ¬·p{a,b,d,e,f,g,h,i}
        //   S_P(Ĩ₁)  = p{a,b,c,i}   (row 1 of Table I)
        let g = example_5_1();
        let s0 = eventual_consequences(&g, &g.empty_set());
        assert_eq!(g.set_to_names(&s0), vec!["p(c)"]);
        let i1 = s0.complement();
        let s1 = eventual_consequences(&g, &i1);
        assert_eq!(g.set_to_names(&s1), vec!["p(a)", "p(b)", "p(c)", "p(i)"]);
    }

    /// The nine-atom program of Example 5.1 / Table I.
    pub(crate) fn example_5_1() -> GroundProgram {
        parse_ground(
            "p(a) :- p(c), not p(b).
             p(b) :- not p(a).
             p(c).
             p(d) :- p(e), not p(f).
             p(d) :- p(f), not p(g).
             p(d) :- p(h).
             p(e) :- p(d).
             p(f) :- p(e).
             p(f) :- not p(c).
             p(i) :- p(c), not p(d).",
        )
    }
}
