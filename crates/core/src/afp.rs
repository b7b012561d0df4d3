//! The alternating fixpoint computation (Section 5).
//!
//! Starting from the empty set of negative conclusions, repeatedly apply
//! the stability transformation `S̃_P`:
//!
//! ```text
//! Ĩ₀ = ∅,   Ĩ_{k+1} = S̃_P(Ĩ_k)
//! ```
//!
//! Because `S̃_P` is antimonotone, the even-indexed iterates form an
//! increasing chain of *underestimates* of the well-founded negative
//! conclusions and the odd-indexed ones a decreasing chain of
//! *overestimates* (Figure 2):
//!
//! ```text
//! Ĩ₀ ⊆ Ĩ₂ ⊆ Ĩ₄ ⊆ … ⊆ W̃ ⊆ … ⊆ Ĩ₅ ⊆ Ĩ₃ ⊆ Ĩ₁
//! ```
//!
//! The even chain converges to `Ã = lfp(A_P)`, the least fixpoint of the
//! (monotone) alternating transformation `A_P = S̃_P ∘ S̃_P`. The
//! **alternating fixpoint partial model** is then `A⁺ ∔ Ã` with
//! `A⁺ = S_P(Ã)` (Definition 5.2) — and by Theorem 7.8 this is exactly the
//! well-founded partial model. For finite Herbrand bases the computation is
//! polynomial: at most `|H|/2 + 2` outer iterations, each two linear-time
//! `S_P` closures.

use afp_datalog::bitset::AtomSet;
use afp_datalog::horn::HornEngine;
use afp_datalog::program::GroundProgram;

use crate::interp::PartialModel;
use crate::ops;

/// How the `S_P` closures of the alternating sequence are computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strategy {
    /// Recompute every closure from scratch (two cold `S_P` per outer
    /// iteration). Matches the paper's definition verbatim.
    #[default]
    Naive,
    /// Warm-start the closures of the increasing underestimate chain
    /// `Ĩ₀ ⊆ Ĩ₂ ⊆ …`: the engine's rule counters survive across outer
    /// iterations and only the freshly added negative literals are
    /// propagated. The decreasing overestimate chain is still recomputed
    /// (retraction is not incremental). An ablation, not in the paper;
    /// bench `afp_ablation` quantifies it.
    IncrementalUnder,
}

/// Options for [`alternating_fixpoint_with`].
#[derive(Debug, Clone, Copy, Default)]
pub struct AfpOptions {
    /// Closure strategy.
    pub strategy: Strategy,
    /// Record the full `(Ĩ_k, S_P(Ĩ_k))` sequence (Table I format).
    pub record_trace: bool,
}

/// One row of the alternating sequence, as in Table I of the paper.
#[derive(Debug, Clone)]
pub struct TraceStep {
    /// Iteration index `k`.
    pub k: usize,
    /// The set of negative literals `Ĩ_k` (atoms assumed false).
    pub i_tilde: AtomSet,
    /// `S_P(Ĩ_k)` — the positive consequences granted `Ĩ_k`.
    pub s_p: AtomSet,
}

/// The recorded alternating sequence.
#[derive(Debug, Clone, Default)]
pub struct AfpTrace {
    /// Rows in iteration order. When the computation converges because
    /// `Ĩ_{k+2} = Ĩ_k`, the repeated row is included, mirroring the
    /// paper's Table I which shows the convergence row explicitly.
    pub steps: Vec<TraceStep>,
}

/// Result of the alternating fixpoint computation.
#[derive(Debug, Clone)]
pub struct AfpResult {
    /// The alternating fixpoint partial model `A⁺ ∔ Ã` (= the
    /// well-founded partial model, Theorem 7.8).
    pub model: PartialModel,
    /// `Ã = lfp(A_P)`, the negative conclusions.
    pub negative_fixpoint: AtomSet,
    /// Number of `S̃_P` applications performed.
    pub iterations: usize,
    /// True iff the model is total (no undefined atoms). A total AFP model
    /// is the unique stable model of the program (Section 5).
    pub is_total: bool,
    /// True iff `Ã` is a fixpoint of `S̃_P` itself (not merely of
    /// `A_P`); equivalent to the model being total.
    pub is_stable_fixpoint: bool,
    /// The alternating sequence, when requested.
    pub trace: Option<AfpTrace>,
}

impl AfpResult {
    /// Convenience: the positive conclusions `A⁺`.
    pub fn positive(&self) -> &AtomSet {
        &self.model.pos
    }

    /// Convenience: the atoms left undefined.
    pub fn undefined(&self) -> AtomSet {
        self.model.undefined()
    }
}

/// Compute the alternating fixpoint partial model with default options.
pub fn alternating_fixpoint(prog: &GroundProgram) -> AfpResult {
    alternating_fixpoint_with(prog, &AfpOptions::default())
}

/// Compute the alternating fixpoint partial model.
pub fn alternating_fixpoint_with(prog: &GroundProgram, options: &AfpOptions) -> AfpResult {
    match options.strategy {
        Strategy::Naive => run(prog, options, NaiveCursor::new(prog)),
        Strategy::IncrementalUnder => run(prog, options, IncrementalCursor::new(prog)),
    }
}

/// Strategy abstraction: computes `S_P(Ĩ)` for the under-chain iterates.
trait UnderChainCursor {
    /// `S_P(under)` where `under` is the current even iterate; `under` is
    /// guaranteed to be a superset of the previous call's argument.
    fn s_p_under(&mut self, prog: &GroundProgram, under: &AtomSet) -> AtomSet;
}

struct NaiveCursor;

impl NaiveCursor {
    fn new(_prog: &GroundProgram) -> Self {
        NaiveCursor
    }
}

impl UnderChainCursor for NaiveCursor {
    fn s_p_under(&mut self, prog: &GroundProgram, under: &AtomSet) -> AtomSet {
        ops::s_p(prog, under)
    }
}

struct IncrementalCursor<'p> {
    engine: HornEngine<'p>,
}

impl<'p> IncrementalCursor<'p> {
    fn new(prog: &'p GroundProgram) -> Self {
        IncrementalCursor {
            engine: HornEngine::new(prog),
        }
    }
}

impl UnderChainCursor for IncrementalCursor<'_> {
    fn s_p_under(&mut self, _prog: &GroundProgram, under: &AtomSet) -> AtomSet {
        // `under` only grows along the even chain; feed the delta.
        let fresh = under.difference(self.engine.assumed_false());
        self.engine.assume_false_all(&fresh);
        self.engine.derived().clone()
    }
}

fn run(prog: &GroundProgram, options: &AfpOptions, mut cursor: impl UnderChainCursor) -> AfpResult {
    let mut trace = options.record_trace.then(AfpTrace::default);
    let mut under = prog.empty_set(); // Ĩ₀ = ∅
    let mut k = 0usize;
    let mut iterations = 0usize;
    let mut stable_fixpoint = false;

    let (a_tilde, a_plus) = loop {
        // S_P(Ĩ_{2m}) — underestimate of the positive conclusions.
        let sp_under = cursor.s_p_under(prog, &under);
        if let Some(t) = trace.as_mut() {
            t.steps.push(TraceStep {
                k,
                i_tilde: under.clone(),
                s_p: sp_under.clone(),
            });
        }
        // Ĩ_{2m+1} = S̃_P(Ĩ_{2m}) — overestimate of the negatives.
        let over = sp_under.complement();
        iterations += 1;
        if over == under {
            // Ĩ is a fixpoint of S̃_P itself: total model, unique stable
            // model (Section 5 examples (a) and (c)).
            stable_fixpoint = true;
            break (under, sp_under);
        }
        // S_P(Ĩ_{2m+1}) — overestimate of the positives.
        let sp_over = ops::s_p(prog, &over);
        if let Some(t) = trace.as_mut() {
            t.steps.push(TraceStep {
                k: k + 1,
                i_tilde: over.clone(),
                s_p: sp_over.clone(),
            });
        }
        // Ĩ_{2m+2} = S̃_P(Ĩ_{2m+1}) — next underestimate.
        let next_under = sp_over.complement();
        iterations += 1;
        if next_under == under {
            // Least fixpoint of A_P reached. Record the convergence row as
            // Table I does.
            if let Some(t) = trace.as_mut() {
                t.steps.push(TraceStep {
                    k: k + 2,
                    i_tilde: next_under.clone(),
                    s_p: sp_under.clone(),
                });
            }
            break (under, sp_under);
        }
        under = next_under;
        k += 2;
    };

    let model = PartialModel::new(a_plus, a_tilde.clone());
    let is_total = model.is_total();
    AfpResult {
        model,
        negative_fixpoint: a_tilde,
        iterations,
        is_total,
        is_stable_fixpoint: stable_fixpoint || is_total,
        trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afp_datalog::program::parse_ground;

    /// The nine-atom program of Example 5.1 / Table I.
    fn example_5_1() -> GroundProgram {
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

    fn names(prog: &GroundProgram, s: &AtomSet) -> Vec<String> {
        prog.set_to_names(s)
    }

    #[test]
    fn example_5_1_model() {
        let g = example_5_1();
        let r = alternating_fixpoint(&g);
        assert_eq!(names(&g, &r.model.pos), vec!["p(c)", "p(i)"]);
        assert_eq!(
            names(&g, &r.model.neg),
            vec!["p(d)", "p(e)", "p(f)", "p(g)", "p(h)"]
        );
        assert_eq!(names(&g, &r.undefined()), vec!["p(a)", "p(b)"]);
        assert!(!r.is_total);
        assert!(!r.is_stable_fixpoint);
    }

    #[test]
    fn example_5_1_trace_matches_table_1() {
        let g = example_5_1();
        let r = alternating_fixpoint_with(
            &g,
            &AfpOptions {
                record_trace: true,
                ..Default::default()
            },
        );
        let t = r.trace.expect("trace requested");
        assert_eq!(t.steps.len(), 5, "Table I has rows k = 0..4");
        // Row 0: Ĩ₀ = ∅, S_P = {p(c)}.
        assert!(t.steps[0].i_tilde.is_empty());
        assert_eq!(names(&g, &t.steps[0].s_p), vec!["p(c)"]);
        // Row 1: Ĩ₁ = ¬p{a,b,d,e,f,g,h,i}, S_P = p{a,b,c,i}.
        assert_eq!(
            names(&g, &t.steps[1].i_tilde),
            vec!["p(a)", "p(b)", "p(d)", "p(e)", "p(f)", "p(g)", "p(h)", "p(i)"]
        );
        assert_eq!(
            names(&g, &t.steps[1].s_p),
            vec!["p(a)", "p(b)", "p(c)", "p(i)"]
        );
        // Row 2: Ĩ₂ = ¬p{d,e,f,g,h}, S_P = p{c,i}.
        assert_eq!(
            names(&g, &t.steps[2].i_tilde),
            vec!["p(d)", "p(e)", "p(f)", "p(g)", "p(h)"]
        );
        assert_eq!(names(&g, &t.steps[2].s_p), vec!["p(c)", "p(i)"]);
        // Row 3: Ĩ₃ = ¬p{a,b,d,e,f,g,h}, S_P = p{a,b,c,i}.
        assert_eq!(
            names(&g, &t.steps[3].i_tilde),
            vec!["p(a)", "p(b)", "p(d)", "p(e)", "p(f)", "p(g)", "p(h)"]
        );
        assert_eq!(
            names(&g, &t.steps[3].s_p),
            vec!["p(a)", "p(b)", "p(c)", "p(i)"]
        );
        // Row 4: Ĩ₄ = Ĩ₂ — convergence.
        assert_eq!(t.steps[4].i_tilde, t.steps[2].i_tilde);
        assert_eq!(t.steps[4].s_p, t.steps[2].s_p);
    }

    #[test]
    fn horn_program_total_in_one_round() {
        let g = parse_ground("a. b :- a. c :- d.");
        let r = alternating_fixpoint(&g);
        assert!(r.is_total);
        assert!(r.is_stable_fixpoint);
        assert_eq!(names(&g, &r.model.pos), vec!["a", "b"]);
        assert_eq!(names(&g, &r.model.neg), vec!["c", "d"]);
    }

    #[test]
    fn two_cycle_all_undefined() {
        let g = parse_ground("p :- not q. q :- not p.");
        let r = alternating_fixpoint(&g);
        assert!(r.model.pos.is_empty());
        assert!(r.model.neg.is_empty());
        assert_eq!(r.undefined().count(), 2);
        assert!(!r.is_total);
    }

    #[test]
    fn odd_cycle_all_undefined() {
        let g = parse_ground("p :- not q. q :- not r. r :- not p.");
        let r = alternating_fixpoint(&g);
        assert_eq!(r.undefined().count(), 3);
    }

    #[test]
    fn strategies_agree() {
        let programs = [
            "p :- not q. q :- not p. r :- p. r :- q.",
            "a. b :- a, not c. c :- not b. d :- c, not a.",
            "w :- not l. l :- not w. x :- w, not y. y :- not x.",
            "p(a) :- p(c), not p(b). p(b) :- not p(a). p(c).
             p(d) :- p(e), not p(f). p(d) :- p(f), not p(g). p(d) :- p(h).
             p(e) :- p(d). p(f) :- p(e). p(f) :- not p(c).
             p(i) :- p(c), not p(d).",
        ];
        for src in programs {
            let g = parse_ground(src);
            let naive = alternating_fixpoint_with(
                &g,
                &AfpOptions {
                    strategy: Strategy::Naive,
                    record_trace: false,
                },
            );
            let incr = alternating_fixpoint_with(
                &g,
                &AfpOptions {
                    strategy: Strategy::IncrementalUnder,
                    record_trace: false,
                },
            );
            assert_eq!(naive.model, incr.model, "strategy mismatch on {src}");
        }
    }

    #[test]
    fn sandwich_invariant_on_trace() {
        // Even iterates ⊆ Ã ⊆ odd iterates (Figure 2).
        let g = example_5_1();
        let r = alternating_fixpoint_with(
            &g,
            &AfpOptions {
                record_trace: true,
                ..Default::default()
            },
        );
        let t = r.trace.unwrap();
        for step in &t.steps {
            if step.k % 2 == 0 {
                assert!(
                    step.i_tilde.is_subset(&r.negative_fixpoint),
                    "even iterate must underestimate"
                );
            } else {
                assert!(
                    r.negative_fixpoint.is_subset(&step.i_tilde),
                    "odd iterate must overestimate"
                );
            }
        }
    }

    #[test]
    fn empty_program() {
        let b = afp_datalog::GroundProgramBuilder::new();
        let g = b.finish();
        let r = alternating_fixpoint(&g);
        assert!(r.is_total);
        assert_eq!(r.model.pos.count(), 0);
    }

    #[test]
    fn afp_model_is_a_partial_model() {
        for src in [
            "p :- not q. q :- not p.",
            "a. b :- a, not c. c :- not b.",
            "v :- not v.",
            "x :- not y. y :- x.",
        ] {
            let g = parse_ground(src);
            let r = alternating_fixpoint(&g);
            assert!(
                r.model.is_partial_model(&g),
                "AFP model must satisfy every rule of {src}"
            );
        }
    }

    #[test]
    fn self_negation_leaves_atom_undefined() {
        // v :- not v.  — v is undefined in the WFS.
        let g = parse_ground("v :- not v.");
        let r = alternating_fixpoint(&g);
        assert_eq!(r.undefined().count(), 1);
    }
}
