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
//! [`Condensation`] (atom → component, per-component atom lists, a
//! topological order by component label), and each component is
//! evaluated by **index-restricted closures** directly against the
//! global [`PartialModel`]:
//!
//! * components are processed in dependency order, so when a component is
//!   evaluated every body literal on a lower component is already decided
//!   (or known undefined);
//! * each rule of the component (`rules_with_head` of its atoms) is
//!   classified once per evaluation:
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
//!   with Dowling–Gallier counter closures over the component's rules —
//!   no symbol interning, no hash maps, and scratch sized by the
//!   component, never by the program.
//!
//! The result is identical to the global alternating fixpoint (checked by
//! a differential property test and by the engine's differential CI
//! test). [`modular_wfs_update`] additionally supports **change-driven
//! warm re-solves**: given the previous model and the atoms whose rule
//! sets changed since (the heads of a fact *or rule* delta), it starts
//! from a word copy of the previous model and evaluates, in label order,
//! the components of those atoms, of the atoms interned since, and of
//! every rule head that reads an atom whose truth value changed. A
//! component whose rules and inputs are as before keeps its stored
//! values without being visited, so a write costs the components its
//! truth changes reach plus the copy. A repaired condensation needs no
//! extra seeds: a merge holds the dirty head of its new edge, and a part
//! that a retract splits off computes the same local fixpoint over the
//! same inputs unless one changed, which queues it. Reuse is keyed by
//! atom id, and atom ids are stable across in-place mutations, so it
//! survives the engine's in-place condensation repairs
//! (`Condensation::apply_delta`).
//!
//! Components are evaluated in one loop in topological order by a single
//! reusable `ComponentEval` that reads the settled lower components from
//! the [`PartialModel`] under construction and writes its own atoms'
//! verdicts straight into it.

use afp_core::interp::{PartialModel, Truth};
use afp_datalog::atoms::AtomId;
use afp_datalog::bitset::AtomSet;
use afp_datalog::depgraph::Condensation;
use afp_datalog::program::GroundProgram;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

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
    /// Components whose truth values were kept from a previous model
    /// (always `0` without a previous model).
    pub reused: usize,
    /// Atoms covered by the reused components.
    pub reused_atoms: usize,
}

/// Compute the well-founded model component by component, condensing the
/// dependency graph first. Use [`modular_wfs_update`] to reuse an
/// existing [`Condensation`] and a previous model across solves.
pub fn modular_wfs(prog: &GroundProgram) -> ModularResult {
    modular_wfs_update(prog, &Condensation::of(prog), None)
}

/// Component-wise evaluation with **change-driven reuse**: when
/// `previous` is `Some((old_model, dirty))`, `dirty` holds the atoms
/// whose rule sets changed since `old_model` was computed. The solve
/// starts from a copy of `old_model` and evaluates, in label order, the
/// components of `dirty`, of the atoms interned since (ids at or above
/// `old_model`'s universe), and of every rule head that reads an atom
/// whose truth value this solve changed. Every other component keeps
/// its values from `old_model` and is not visited: its rules and the
/// truth values it reads are as before. `cond` must condense the
/// *current* program.
pub fn modular_wfs_update(
    prog: &GroundProgram,
    cond: &Condensation,
    previous: Option<(&PartialModel, &[AtomId])>,
) -> ModularResult {
    let n = prog.atom_count();
    let mut eval = ComponentEval::default();
    let Some((old, dirty)) = previous else {
        let mut model = PartialModel::empty(n);
        for comp in cond.topological_order() {
            eval.evaluate(prog, cond, comp, &mut model);
        }
        return ModularResult {
            model,
            components: cond.len(),
            largest_component: cond.largest(),
            evaluated: cond.len(),
            reused: 0,
            reused_atoms: 0,
        };
    };

    let old_n = old.pos.universe();
    debug_assert!(old_n <= n, "atom ids only grow between warm solves");
    let mut model = PartialModel {
        pos: old.pos.grown(n),
        neg: old.neg.grown(n),
    };
    let entry = |a: u32| (cond.label(cond.component_of(a)), cond.component_of(a));
    let mut frontier = Frontier::default();
    for a in dirty.iter().map(|a| a.0).chain(old_n as u32..n as u32) {
        frontier.push(entry(a));
    }
    let (mut evaluated, mut evaluated_atoms, mut last) = (0, 0, None);
    while let Some((label, comp)) = frontier.pop() {
        if last.replace(label) == Some(label) {
            continue;
        }
        evaluated += 1;
        evaluated_atoms += cond.component_size(comp);
        eval.evaluate(prog, cond, comp, &mut model);
        for &a in &eval.atoms {
            if (a as usize) < old_n && model.truth(a) == old.truth(a) {
                continue;
            }
            let readers = prog.rules_with_pos(AtomId(a)).iter();
            for &rid in readers.chain(prog.rules_with_neg(AtomId(a))) {
                let next = entry(prog.rule(rid).head.0);
                if next.0 > label {
                    frontier.push(next);
                }
            }
        }
    }

    ModularResult {
        model,
        components: cond.len(),
        largest_component: cond.largest(),
        evaluated,
        reused: cond.len() - evaluated,
        reused_atoms: n - evaluated_atoms,
    }
}

/// Components awaiting evaluation, popped in label order. Pushes lie
/// above the last pop, so one sorted `run` serves most pops: a push
/// inside the run goes to the `inside` heap, one beyond it to the
/// unsorted `tail`, sorted into the next run once the run and the heap
/// are spent. Duplicates pop side by side.
#[derive(Default)]
struct Frontier {
    run: Vec<(u64, u32)>,
    next: usize,
    inside: BinaryHeap<Reverse<(u64, u32)>>,
    tail: Vec<(u64, u32)>,
}

impl Frontier {
    fn push(&mut self, entry: (u64, u32)) {
        match self.run.last() {
            Some(&max) if entry < max => self.inside.push(Reverse(entry)),
            _ => self.tail.push(entry),
        }
    }

    fn pop(&mut self) -> Option<(u64, u32)> {
        if self.next == self.run.len() && self.inside.is_empty() {
            std::mem::swap(&mut self.run, &mut self.tail);
            self.tail.clear();
            self.run.sort_unstable();
            self.next = 0;
        }
        let run = self.run.get(self.next).copied();
        if run.is_none_or(|r| self.inside.peek().is_some_and(|&Reverse(h)| h < r)) {
            return self.inside.pop().map(|Reverse(h)| h);
        }
        self.next += 1;
        run
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
/// global model. Every vector is indexed by the component's local atom
/// or rule positions, so the scratch grows to the largest component
/// evaluated, never to the program.
#[derive(Default)]
struct ComponentEval {
    /// The current component's atoms, ascending: local index
    /// ([`Condensation::local_index`]) → atom.
    atoms: Vec<u32>,
    /// The current component's partially evaluated rules.
    rules: Vec<LocalRule>,
    /// Flat storage for in-component negative literals, local indices.
    neg_lits: Vec<u32>,
    /// `(local body atom, local rule)` for every in-component positive
    /// literal, grouped by atom into `watch` below.
    pos_occ: Vec<(u32, u32)>,
    /// Local atom `l` → `watch[watch_start[l]..watch_start[l + 1]]`, the
    /// local rules with `l` in their positive body.
    watch_start: Vec<u32>,
    watch: Vec<u32>,
    /// Per local rule: positive subgoals not yet derived, or [`BLOCKED`].
    pos_rem: Vec<u32>,
    /// Work queue of freshly derived local atoms.
    queue: Vec<u32>,
    /// Alternating-fixpoint iterates, reused across components.
    sets: [AtomSet; 4],
}

impl ComponentEval {
    /// Decide the atoms of component `comp`, reading settled lower
    /// components from `model` and writing only this component's atoms
    /// (any stale value of theirs is cleared first).
    fn evaluate(
        &mut self,
        prog: &GroundProgram,
        cond: &Condensation,
        comp: u32,
        model: &mut PartialModel,
    ) {
        self.atoms.clear();
        for a in cond.atoms(comp) {
            model.pos.remove(a);
            model.neg.remove(a);
            self.atoms.push(a);
        }

        // Fast path for singleton components without a self-referencing
        // rule — the overwhelmingly common case. The atom is decided
        // directly from the (already settled) lower components.
        if self.atoms.len() == 1 && try_singleton(prog, self.atoms[0], model) {
            return;
        }

        // ---- Classify the component's rules against the model ----------
        self.rules.clear();
        self.neg_lits.clear();
        self.pos_occ.clear();
        for i in 0..self.atoms.len() {
            let a = self.atoms[i];
            for &rid in prog.rules_with_head(AtomId(a)) {
                let r = prog.rule(rid);
                let slot = self.rules.len() as u32;
                let mut lr = LocalRule {
                    head: i as u32,
                    pos_in: 0,
                    neg_start: self.neg_lits.len() as u32,
                    neg_end: 0,
                    ext_undef: false,
                    dead: false,
                };
                for &q in r.pos.iter() {
                    if cond.component_of(q.0) == comp {
                        lr.pos_in += 1;
                        self.pos_occ.push((cond.local_index(q.0), slot));
                    } else {
                        match model.truth(q.0) {
                            Truth::True => {}
                            Truth::False => lr.dead = true,
                            Truth::Undefined => lr.ext_undef = true,
                        }
                    }
                }
                for &q in r.neg.iter() {
                    if cond.component_of(q.0) == comp {
                        self.neg_lits.push(cond.local_index(q.0));
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
        }
        // Group the positive occurrences by body atom (counting sort):
        // inclusive prefix sums give each atom's end, and placing the
        // occurrences back to front leaves each entry at its atom's start.
        let k = self.atoms.len();
        self.watch_start.clear();
        self.watch_start.resize(k + 1, 0);
        for &(l, _) in &self.pos_occ {
            self.watch_start[l as usize] += 1;
        }
        let mut end = 0;
        for s in &mut self.watch_start {
            end += *s;
            *s = end;
        }
        self.watch.clear();
        self.watch.resize(self.pos_occ.len(), 0);
        for &(l, slot) in self.pos_occ.iter().rev() {
            let start = &mut self.watch_start[l as usize];
            *start -= 1;
            self.watch[*start as usize] = slot;
        }

        // ---- Alternating fixpoint over the component's atoms -----------
        // Ĩ₀ = ∅ locally; boundary-undefined rules are blocked in the
        // under-closures and enabled in the over-closures (see module
        // docs for why this is exactly the `u ← ¬u` gadget semantics).
        // The iterates live in the four reused scratch sets: Ĩ (`under`),
        // S_P(Ĩ) (`sp_under`), then the over-iterate and its closure.
        let [mut under, mut sp_under, mut over, mut sp_over] = std::mem::take(&mut self.sets);
        under.reset(k);
        loop {
            self.closure(false, &under, &mut sp_under);
            over.assign_complement(&sp_under);
            if over == under {
                break;
            }
            self.closure(true, &over, &mut sp_over);
            // Ĩ ∪ ~S_P(over) is the next under-iterate.
            over.assign_complement(&sp_over);
            over.union_with(&under);
            if over == under {
                break;
            }
            std::mem::swap(&mut under, &mut over);
        }

        for (i, &a) in self.atoms.iter().enumerate() {
            if sp_under.contains(i as u32) {
                model.pos.insert(a);
            } else if under.contains(i as u32) {
                model.neg.insert(a);
            }
        }
        self.sets = [under, sp_under, over, sp_over];
    }

    /// Local `S_P(Ĩ)` over the component, into `derived`: a counter-based
    /// Horn closure of the component's rules with the in-component
    /// negative literals read from `i_tilde` and boundary-undefined rules
    /// enabled only when `optimistic`.
    fn closure(&mut self, optimistic: bool, i_tilde: &AtomSet, derived: &mut AtomSet) {
        derived.reset(self.atoms.len());
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
        while let Some(l) = self.queue.pop() {
            let watchers =
                self.watch_start[l as usize] as usize..self.watch_start[l as usize + 1] as usize;
            for &slot in &self.watch[watchers] {
                let rem = &mut self.pos_rem[slot as usize];
                if *rem == BLOCKED {
                    continue;
                }
                *rem -= 1;
                if *rem == 0 {
                    let head = self.rules[slot as usize].head;
                    if derived.insert(head) {
                        self.queue.push(head);
                    }
                }
            }
        }
    }
}

/// Decide a singleton component without a self-referencing rule directly
/// from the settled lower components: true if some body is all-true,
/// false if every body has a false literal, undefined otherwise. Returns
/// `false` (not handled) when the atom's rules mention the atom itself —
/// those go through the general alternating path.
fn try_singleton(prog: &GroundProgram, atom: u32, model: &mut PartialModel) -> bool {
    let atom = AtomId(atom);
    let rule_ids = prog.rules_with_head(atom);
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
        // Two independent halves; mark only the right half dirty and
        // feed a deliberately *wrong* previous model for the left half —
        // reuse must copy it verbatim, proving the left was not re-run.
        let g = parse_ground("l1. l2 :- l1. r1. r2 :- r1, not r3.");
        let cond = Condensation::of(&g);
        let cold = modular_wfs_update(&g, &cond, None);

        let l1 = g.find_atom_by_name("l1", &[]).unwrap().0;
        let l2 = g.find_atom_by_name("l2", &[]).unwrap().0;
        let mut fake_prev = cold.model.clone();
        fake_prev.pos.remove(l2); // wrong on purpose: l2 is really true

        let dirty: Vec<AtomId> = ["r1", "r2", "r3"]
            .iter()
            .map(|name| g.find_atom_by_name(name, &[]).unwrap())
            .collect();
        let warm = modular_wfs_update(&g, &cond, Some((&fake_prev, &dirty)));
        assert!(warm.reused >= 2, "left components must be copied");
        assert!(warm.model.pos.contains(l1));
        assert!(
            !warm.model.pos.contains(l2),
            "reuse must copy the stored value, not recompute"
        );

        // With the correct previous model the result matches cold exactly.
        let warm = modular_wfs_update(&g, &cond, Some((&cold.model, &dirty)));
        assert_eq!(warm.model, cold.model);
        assert!(warm.reused > 0 && warm.evaluated < warm.components);
    }

    #[test]
    fn update_with_grown_universe_evaluates_new_atoms() {
        // Previous model over a smaller universe: components containing
        // new atoms must be evaluated, old disjoint ones reused.
        let old = parse_ground("a. b :- a.");
        let cond_old = Condensation::of(&old);
        let prev = modular_wfs_update(&old, &cond_old, None).model;

        let g = parse_ground("a. b :- a. c :- not d. d :- not c.");
        let cond = Condensation::of(&g);
        let r = modular_wfs_update(&g, &cond, Some((&prev, &[])));
        assert_eq!(r.model, alternating_fixpoint(&g).model);
        assert!(r.reused >= 2);
        assert!(r.evaluated >= 1, "the new {{c, d}} knot is evaluated");
    }

    #[test]
    fn rule_delta_cone_invalidation_reuses_outside_components() {
        // Simulate what the engine does for a *rule* assert: the program
        // gains a rule (and possibly atoms), the condensation is rebuilt,
        // and `dirty` holds only the new rule's head. Its reader `b` must
        // be re-evaluated because `c`'s truth flips, and components no
        // changed truth reaches must be copied even though every
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
        let dirty = [g.find_atom_by_name("c", &[]).unwrap()];
        let r = modular_wfs_update(&g, &cond, Some((&prev, &dirty)));
        assert_eq!(r.model, alternating_fixpoint(&g).model);
        let c = g.find_atom_by_name("c", &[]).unwrap().0;
        let b = g.find_atom_by_name("b", &[]).unwrap().0;
        assert!(r.model.pos.contains(c), "the new rule derives c");
        assert!(r.model.neg.contains(b), "b flips: not c now fails");
        assert!(r.reused >= 2, "{{k1,k2}} and a are not reached");
        assert!(
            r.evaluated >= 3,
            "c, its reader b and the brand-new {{n1,n2}} knot are evaluated"
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
