//! Component-wise (modular) evaluation of the well-founded model, **in
//! place** over the global ground program.
//!
//! Section 9 of the paper asks for "classes of unstratified programs and
//! queries on them for which the alternating fixpoint semantics is
//! computationally tractable". The workhorse answer in later systems
//! (modular stratification, Ross \[41\]; splitting sets; Lonc &
//! Truszczyński's component-wise bound) is to run the alternating fixpoint
//! **per strongly connected component** of the atom dependency graph,
//! bottom-up, so the worst-case `O(|H|·|P_H|)` cost is paid per component:
//! a program that is a long chain of small knots costs the sum of the
//! knots, not the square of the chain.
//!
//! Unlike a textbook implementation, no subprogram is ever constructed.
//! The dependency graph is condensed once into a reusable
//! [`Condensation`] (atom → component ids in topological order, per-
//! component atom and rule slices), and each component is evaluated by
//! **index-restricted closures** directly against the global
//! [`PartialModel`]:
//!
//! * components are processed in dependency order, so when a component is
//!   evaluated every body literal on a lower component is already decided
//!   (or known undefined);
//! * each rule of the component is classified once per evaluation:
//!   decided boundary literals either drop out (true positive / false
//!   negative) or kill the rule (false positive / true negative), in-
//!   component literals are kept as local counter targets, and a literal
//!   on an *undefined* lower atom marks the rule `ext_undef` — the
//!   in-place equivalent of pinning the boundary atom with the
//!   self-negation gadget `u ← ¬u`: such a rule can never fire in the
//!   increasing **under**-closures (the gadget atom is not derivable from
//!   an even iterate) and always can in the decreasing **over**-closures
//!   (the gadget atom is derivable from every odd iterate);
//! * the alternating fixpoint then runs over the component's atoms alone,
//!   with Dowling–Gallier counter closures over the component's rule
//!   slice — no symbol interning, no hash maps, no allocation beyond a
//!   handful of reused scratch vectors.
//!
//! The result is identical to the global alternating fixpoint (checked by
//! a differential property test and by the engine's differential CI
//! test). [`modular_wfs_update`] additionally supports **per-component
//! warm re-solves**: given the previous model and the set of atoms whose
//! truth may have changed (the forward dependency cone of a fact *or
//! rule* delta — for a rule delta, the cone of the heads whose rule sets
//! changed), components disjoint from the cone copy their stored truth
//! values verbatim instead of being re-derived — the engine's `Session`
//! uses this to make update-heavy workloads pay only for the cone they
//! touch. The reuse check is **by atom id**, not component id: a
//! mutation repairs the condensation in place
//! (`Condensation::apply_delta` renumbers component ids inside the
//! delta's window), but atom ids are stable across in-place mutations,
//! so the repaired condensation still reuses every component outside the
//! cone. Atoms interned after the previous solve (heads and bodies a new
//! rule brought into the program) fail the `a < old_n` universe check
//! and are always evaluated.
//!
//! Components are evaluated in one loop in ascending component id,
//! which is a topological order, by a single reusable `ComponentEval`
//! that reads the settled lower components from the [`PartialModel`]
//! under construction and writes its own atoms' verdicts straight into
//! it.

use afp_core::interp::{PartialModel, Truth};
use afp_datalog::atoms::AtomId;
use afp_datalog::bitset::AtomSet;
use afp_datalog::depgraph::Condensation;
use afp_datalog::program::GroundProgram;

/// Result of the modular computation.
#[derive(Debug, Clone)]
pub struct ModularResult {
    /// The well-founded partial model (identical to the global one).
    pub model: PartialModel,
    /// Number of strongly connected components in the condensation.
    pub components: usize,
    /// Size of the largest component.
    pub largest_component: usize,
    /// Components actually evaluated by this call.
    pub evaluated: usize,
    /// Components whose truth values were copied from a previous model
    /// (always `0` unless called through [`modular_wfs_update`]).
    pub reused: usize,
    /// Atoms covered by the reused components.
    pub reused_atoms: usize,
}

/// Compute the well-founded model component by component, condensing the
/// dependency graph first. Use [`modular_wfs_with`] to reuse an existing
/// [`Condensation`] across solves.
pub fn modular_wfs(prog: &GroundProgram) -> ModularResult {
    let cond = Condensation::of(prog);
    modular_wfs_with(prog, &cond)
}

/// Compute the well-founded model over a precomputed condensation.
pub fn modular_wfs_with(prog: &GroundProgram, cond: &Condensation) -> ModularResult {
    modular_wfs_update(prog, cond, None)
}

/// Component-wise evaluation with **per-component reuse**: when
/// `previous` is `Some((old_model, affected))`, any component all of
/// whose atoms (a) existed at the time of `old_model` and (b) lie outside
/// `affected` copies its old truth values instead of being re-evaluated.
///
/// # Soundness
/// `affected` must contain every atom whose set of rules changed since
/// `old_model` was computed, **closed under the dependent (forward)
/// direction of the dependency graph**: if `affected` holds some body
/// atom of a rule, it must hold the rule's head too, transitively. Atoms
/// outside such a cone keep their truth values by the relevance/splitting
/// argument — none of their rules changed and nothing they depend on
/// changed. `cond` must condense the *current* program.
pub fn modular_wfs_update(
    prog: &GroundProgram,
    cond: &Condensation,
    previous: Option<(&PartialModel, &AtomSet)>,
) -> ModularResult {
    let mut model = PartialModel::empty(prog.atom_count());
    // Allocated on the first evaluated component: a warm solve that
    // copies every component never pays for the scratch.
    let mut eval: Option<ComponentEval> = None;
    let mut reused = 0usize;
    let mut reused_atoms = 0usize;

    for comp in 0..cond.len() {
        let atoms = cond.atoms(comp);
        if let Some((old, affected)) = previous {
            let old_n = old.pos.universe() as u32;
            if atoms.iter().all(|&a| a < old_n && !affected.contains(a)) {
                for &a in atoms {
                    if old.pos.contains(a) {
                        model.pos.insert(a);
                    } else if old.neg.contains(a) {
                        model.neg.insert(a);
                    }
                }
                reused += 1;
                reused_atoms += atoms.len();
                continue;
            }
        }
        eval.get_or_insert_with(|| ComponentEval::new(prog.atom_count(), prog.rule_count()))
            .evaluate(prog, cond, comp, &mut model);
    }

    ModularResult {
        model,
        components: cond.len(),
        largest_component: cond.largest(),
        evaluated: cond.len() - reused,
        reused,
        reused_atoms,
    }
}

/// How one partially-evaluated rule of the current component behaves.
#[derive(Clone, Copy)]
struct LocalRule {
    /// Head atom, as a local (within-component) index.
    head: u32,
    /// Number of positive body literals on atoms of this component.
    pos_in: u32,
    /// Range into `ComponentEval::neg_lits` of this rule's in-component
    /// negative literals (local indices).
    neg_start: u32,
    neg_end: u32,
    /// Some boundary literal is on an undefined lower atom: the rule is
    /// blocked in under-closures and enabled in over-closures.
    ext_undef: bool,
    /// Some boundary literal is decided against the rule.
    dead: bool,
}

/// Sentinel for "this rule cannot fire in the current closure".
const BLOCKED: u32 = u32::MAX;

/// Reusable scratch for evaluating one component at a time against the
/// global model. All vectors are allocated once and reused; the
/// global-sized maps (`local_ix`, `rule_slot`) are only ever read for
/// atoms/rules of the component being evaluated, so they need no
/// clearing between components.
struct ComponentEval {
    /// Global atom id → local index (valid for the current component).
    local_ix: Vec<u32>,
    /// Global rule id → local rule index (valid for rules whose head is
    /// in the current component).
    rule_slot: Vec<u32>,
    /// The current component's partially evaluated rules.
    rules: Vec<LocalRule>,
    /// Flat storage for in-component negative literals, local indices.
    neg_lits: Vec<u32>,
    /// Per local rule: positive subgoals not yet derived, or [`BLOCKED`].
    pos_rem: Vec<u32>,
    /// Work queue of freshly derived local atoms.
    queue: Vec<u32>,
}

impl ComponentEval {
    fn new(atom_count: usize, rule_count: usize) -> ComponentEval {
        ComponentEval {
            local_ix: vec![0; atom_count],
            rule_slot: vec![0; rule_count],
            rules: Vec::new(),
            neg_lits: Vec::new(),
            pos_rem: Vec::new(),
            queue: Vec::new(),
        }
    }

    /// Decide the atoms of component `comp`, reading settled lower
    /// components from `model` and writing only this component's atoms.
    fn evaluate(
        &mut self,
        prog: &GroundProgram,
        cond: &Condensation,
        comp: usize,
        model: &mut PartialModel,
    ) {
        let atoms = cond.atoms(comp);
        let rule_ids = cond.rules(comp);

        // Fast path for singleton components without a self-referencing
        // rule — the overwhelmingly common case. The atom is decided
        // directly from the (already settled) lower components.
        if atoms.len() == 1 && self.try_singleton(prog, atoms[0], rule_ids, model) {
            return;
        }

        // ---- Classify the component's rules against the model ----------
        let cid = cond.component_of(atoms[0]);
        for (i, &a) in atoms.iter().enumerate() {
            self.local_ix[a as usize] = i as u32;
        }
        self.rules.clear();
        self.neg_lits.clear();
        for &rid in rule_ids {
            self.rule_slot[rid as usize] = self.rules.len() as u32;
            let r = prog.rule(rid);
            let mut lr = LocalRule {
                head: self.local_ix[r.head.index()],
                pos_in: 0,
                neg_start: self.neg_lits.len() as u32,
                neg_end: 0,
                ext_undef: false,
                dead: false,
            };
            for &q in r.pos.iter() {
                if cond.component_of(q.0) == cid {
                    lr.pos_in += 1;
                } else {
                    match model.truth(q.0) {
                        Truth::True => {}
                        Truth::False => lr.dead = true,
                        Truth::Undefined => lr.ext_undef = true,
                    }
                }
            }
            for &q in r.neg.iter() {
                if cond.component_of(q.0) == cid {
                    self.neg_lits.push(self.local_ix[q.index()]);
                } else {
                    match model.truth(q.0) {
                        Truth::False => {}
                        Truth::True => lr.dead = true,
                        Truth::Undefined => lr.ext_undef = true,
                    }
                }
            }
            lr.neg_end = self.neg_lits.len() as u32;
            self.rules.push(lr);
        }

        // ---- Alternating fixpoint over the component's atoms -----------
        // Ĩ₀ = ∅ locally; boundary-undefined rules are blocked in the
        // under-closures and enabled in the over-closures (see module
        // docs for why this is exactly the `u ← ¬u` gadget semantics).
        let k = atoms.len();
        let mut under = AtomSet::empty(k);
        let (a_tilde, a_plus) = loop {
            let sp_under = self.closure(prog, cond, cid, atoms, false, &under);
            let over = sp_under.complement();
            if over == under {
                break (under, sp_under);
            }
            let sp_over = self.closure(prog, cond, cid, atoms, true, &over);
            let mut next_under = sp_over.complement();
            next_under.union_with(&under);
            if next_under == under {
                break (under, sp_under);
            }
            under = next_under;
        };

        for (i, &a) in atoms.iter().enumerate() {
            if a_plus.contains(i as u32) {
                model.pos.insert(a);
            } else if a_tilde.contains(i as u32) {
                model.neg.insert(a);
            }
        }
    }

    /// Local `S_P(Ĩ)` over the component: a counter-based Horn closure of
    /// the component's rules with the in-component negative literals read
    /// from `i_tilde` and boundary-undefined rules enabled only when
    /// `optimistic`.
    fn closure(
        &mut self,
        prog: &GroundProgram,
        cond: &Condensation,
        cid: u32,
        atoms: &[u32],
        optimistic: bool,
        i_tilde: &AtomSet,
    ) -> AtomSet {
        let mut derived = AtomSet::empty(atoms.len());
        self.pos_rem.clear();
        self.queue.clear();
        for lr in &self.rules {
            if lr.dead || (lr.ext_undef && !optimistic) {
                self.pos_rem.push(BLOCKED);
                continue;
            }
            let negs = &self.neg_lits[lr.neg_start as usize..lr.neg_end as usize];
            if !negs.iter().all(|&l| i_tilde.contains(l)) {
                self.pos_rem.push(BLOCKED);
                continue;
            }
            self.pos_rem.push(lr.pos_in);
            if lr.pos_in == 0 && derived.insert(lr.head) {
                self.queue.push(lr.head);
            }
        }
        while let Some(local) = self.queue.pop() {
            let global = atoms[local as usize];
            for &rid in prog.rules_with_pos(AtomId(global)) {
                if cond.component_of(prog.rule(rid).head.0) != cid {
                    continue; // a dependent rule of a higher component
                }
                let slot = self.rule_slot[rid as usize] as usize;
                let rem = &mut self.pos_rem[slot];
                if *rem == BLOCKED {
                    continue;
                }
                *rem -= 1;
                if *rem == 0 {
                    let head = self.rules[slot].head;
                    if derived.insert(head) {
                        self.queue.push(head);
                    }
                }
            }
        }
        derived
    }

    /// Decide a singleton component without a self-referencing rule
    /// directly from the settled lower components: true if some body is
    /// all-true, false if every body has a false literal, undefined
    /// otherwise. Returns
    /// `false` (not handled) when the atom's rules mention the atom
    /// itself — those go through the general alternating path.
    fn try_singleton(
        &mut self,
        prog: &GroundProgram,
        atom: u32,
        rule_ids: &[afp_datalog::RuleId],
        model: &mut PartialModel,
    ) -> bool {
        let atom = AtomId(atom);
        if rule_ids.is_empty() {
            model.neg.insert(atom.0);
            return true;
        }
        let self_ref = rule_ids.iter().any(|&rid| {
            let r = prog.rule(rid);
            r.pos.contains(&atom) || r.neg.contains(&atom)
        });
        if self_ref {
            return false;
        }
        let mut any_undefined = false;
        for &rid in rule_ids {
            let r = prog.rule(rid);
            let mut body = Truth::True;
            for &q in r.pos.iter() {
                match model.truth(q.0) {
                    Truth::False => {
                        body = Truth::False;
                        break;
                    }
                    Truth::Undefined => body = Truth::Undefined,
                    Truth::True => {}
                }
            }
            if body != Truth::False {
                for &q in r.neg.iter() {
                    match model.truth(q.0) {
                        Truth::True => {
                            body = Truth::False;
                            break;
                        }
                        Truth::Undefined => body = Truth::Undefined,
                        Truth::False => {}
                    }
                }
            }
            match body {
                Truth::True => {
                    model.pos.insert(atom.0);
                    return true;
                }
                Truth::Undefined => any_undefined = true,
                Truth::False => {}
            }
        }
        if !any_undefined {
            model.neg.insert(atom.0);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afp_core::afp::alternating_fixpoint;
    use afp_datalog::program::parse_ground;

    fn check(src: &str) {
        let g = parse_ground(src);
        let global = alternating_fixpoint(&g);
        let modular = modular_wfs(&g);
        assert_eq!(global.model, modular.model, "on {src}");
    }

    #[test]
    fn matches_global_on_paper_examples() {
        check(
            "p(a) :- p(c), not p(b). p(b) :- not p(a). p(c).
             p(d) :- p(e), not p(f). p(d) :- p(f), not p(g). p(d) :- p(h).
             p(e) :- p(d). p(f) :- p(e). p(f) :- not p(c).
             p(i) :- p(c), not p(d).",
        );
        check("p :- not q. q :- not p. r :- p. r :- q. s :- not r.");
        check("a. b :- a, not c. c :- not b. d :- b, c.");
        check("v :- not v. w :- not v.");
        check("x :- y. y :- x. z :- not x.");
    }

    #[test]
    fn undefined_boundaries_propagate() {
        // p/q undefined (2-cycle); r depends on p positively; s negatively;
        // both must stay undefined; t depends on decided u.
        check("p :- not q. q :- not p. r :- p. s :- not p. u. t :- u, not p.");
    }

    #[test]
    fn undefined_boundary_feeding_a_knot() {
        // The boundary-undefined atom u feeds a genuine 2-cycle; the knot
        // must stay undefined, exercising `ext_undef` inside the
        // alternating loop rather than the singleton fast path.
        check("u :- not v. v :- not u. a :- u, not b. b :- not a.");
        check("u :- not v. v :- not u. a :- not u, not b. b :- not a, u.");
    }

    #[test]
    fn self_referencing_singletons() {
        check("v :- not v.");
        check("x :- x."); // positive self-loop: false
        check("w. v :- v, w."); // positive self-loop with true context
        check("v :- not v, q. q :- not r. r :- not q."); // gadget context
    }

    #[test]
    fn chain_of_knots_statistics() {
        // Ten independent 2-cycles chained through decided links: many
        // small components, largest of size 2.
        let mut src = String::new();
        for i in 0..10 {
            src.push_str(&format!("a{i} :- not b{i}. b{i} :- not a{i}.\n"));
            if i > 0 {
                src.push_str(&format!("link{i} :- a{i}, not a{}.\n", i - 1));
            }
        }
        let g = parse_ground(&src);
        let modular = modular_wfs(&g);
        let global = alternating_fixpoint(&g);
        assert_eq!(modular.model, global.model);
        assert!(modular.components >= 10);
        assert!(modular.largest_component <= 2);
        assert_eq!(modular.evaluated, modular.components);
        assert_eq!(modular.reused, 0);
    }

    #[test]
    fn facts_and_empty_components() {
        check("a. b. c :- a, b. d :- nothere.");
    }

    #[test]
    fn update_reuses_untouched_components() {
        // Two independent halves; mark only the right half affected and
        // feed a deliberately *wrong* previous model for the left half —
        // reuse must copy it verbatim, proving the left was not re-run.
        let g = parse_ground("l1. l2 :- l1. r1. r2 :- r1, not r3.");
        let cond = Condensation::of(&g);
        let cold = modular_wfs_with(&g, &cond);

        let l1 = g.find_atom_by_name("l1", &[]).unwrap().0;
        let l2 = g.find_atom_by_name("l2", &[]).unwrap().0;
        let mut fake_prev = cold.model.clone();
        fake_prev.pos.remove(l2); // wrong on purpose: l2 is really true

        let mut affected = g.empty_set();
        for name in ["r1", "r2", "r3"] {
            affected.insert(g.find_atom_by_name(name, &[]).unwrap().0);
        }
        let warm = modular_wfs_update(&g, &cond, Some((&fake_prev, &affected)));
        assert!(warm.reused >= 2, "left components must be copied");
        assert!(warm.model.pos.contains(l1));
        assert!(
            !warm.model.pos.contains(l2),
            "reuse must copy the stored value, not recompute"
        );

        // With the correct previous model the result matches cold exactly.
        let warm = modular_wfs_update(&g, &cond, Some((&cold.model, &affected)));
        assert_eq!(warm.model, cold.model);
        assert!(warm.reused > 0 && warm.evaluated < warm.components);
    }

    #[test]
    fn update_with_grown_universe_evaluates_new_atoms() {
        // Previous model over a smaller universe: components containing
        // new atoms must be evaluated, old disjoint ones reused.
        let old = parse_ground("a. b :- a.");
        let cond_old = Condensation::of(&old);
        let prev = modular_wfs_with(&old, &cond_old).model;

        let g = parse_ground("a. b :- a. c :- not d. d :- not c.");
        let cond = Condensation::of(&g);
        let affected = g.empty_set();
        let r = modular_wfs_update(&g, &cond, Some((&prev, &affected)));
        assert_eq!(r.model, alternating_fixpoint(&g).model);
        assert!(r.reused >= 2);
        assert!(r.evaluated >= 1, "the new {{c, d}} knot is evaluated");
    }

    #[test]
    fn rule_delta_cone_invalidation_reuses_outside_components() {
        // Simulate what the engine does for a *rule* assert: the program
        // gains a rule (and possibly atoms), the condensation is rebuilt,
        // and `affected` holds the forward cone of the new rule's head.
        // Components outside the cone must be copied even though every
        // component id changed.
        let old = parse_ground("k1 :- not k2. k2 :- not k1. a. b :- a, not c.");
        let prev = modular_wfs(&old).model;

        // Same program + `c :- a.` (changes c's rule set, hence b's and
        // c's truth) + a brand-new knot. Atom ids of the old atoms are
        // stable by construction of the parse order.
        let g = parse_ground(
            "k1 :- not k2. k2 :- not k1. a. b :- a, not c. c :- a.
             n1 :- not n2. n2 :- not n1.",
        );
        let cond = Condensation::of(&g);
        let mut affected = g.empty_set();
        for name in ["c", "b"] {
            affected.insert(g.find_atom_by_name(name, &[]).unwrap().0);
        }
        let r = modular_wfs_update(&g, &cond, Some((&prev, &affected)));
        assert_eq!(r.model, alternating_fixpoint(&g).model);
        let c = g.find_atom_by_name("c", &[]).unwrap().0;
        let b = g.find_atom_by_name("b", &[]).unwrap().0;
        assert!(r.model.pos.contains(c), "the new rule derives c");
        assert!(r.model.neg.contains(b), "b flips: not c now fails");
        assert!(r.reused >= 2, "{{k1,k2}} and a are outside the cone");
        assert!(
            r.evaluated >= 3,
            "the cone and the brand-new {{n1,n2}} knot are evaluated"
        );
    }

    #[test]
    fn differential_on_random_programs() {
        for seed in 0..40u64 {
            let g = random_program(seed);
            let global = alternating_fixpoint(&g);
            let modular = modular_wfs(&g);
            assert_eq!(global.model, modular.model, "seed {seed}");
        }
    }

    /// Tiny deterministic random program generator (xorshift), local to
    /// the tests so the crate needs no dev-dependency on afp-bench.
    fn random_program(seed: u64) -> GroundProgram {
        use afp_datalog::program::GroundProgramBuilder;
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let n_atoms = 3 + (next() % 10) as usize;
        let n_rules = 2 + (next() % 18) as usize;
        let mut b = GroundProgramBuilder::new();
        let atoms: Vec<_> = (0..n_atoms).map(|i| b.prop(&format!("a{i}"))).collect();
        for _ in 0..n_rules {
            let head = atoms[(next() % n_atoms as u64) as usize];
            let body_len = (next() % 4) as usize;
            let mut pos = Vec::new();
            let mut neg = Vec::new();
            for _ in 0..body_len {
                let a = atoms[(next() % n_atoms as u64) as usize];
                if next() % 2 == 0 {
                    neg.push(a);
                } else {
                    pos.push(a);
                }
            }
            b.rule(head, pos, neg);
        }
        b.finish()
    }
}
