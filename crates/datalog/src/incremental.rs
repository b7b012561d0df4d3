//! Incremental grounding: keep the grounder's working state alive so new
//! EDB facts extend an existing [`GroundProgram`] instead of re-running
//! the whole parse → envelope → instantiate pipeline.
//!
//! [`IncrementalGrounder`] performs the same three passes as
//! [`crate::ground::ground_with`] (safety analysis and compilation,
//! positive-envelope fixpoint, rule instantiation over the envelope) but
//! retains everything a later delta needs:
//!
//! * the working [`HerbrandBase`] and envelope [`Database`], so
//!   [`IncrementalGrounder::assert_fact`] can run the semi-naive rounds
//!   **from the new tuples only** ([`extend_positive`]);
//! * the compiled rules, so only rule bodies mentioning a delta predicate
//!   are re-joined — with the delta relation substituted at one focus
//!   position at a time, classic semi-naive discipline;
//! * the set of already-emitted instances (keyed by rule index and
//!   variable binding), so re-joins never duplicate a ground rule;
//! * the negative literals that were **pruned** because their atom lay
//!   outside the envelope (certainly-true at the time). When a delta
//!   brings such an atom into the envelope, the literal is resurrected
//!   onto the instances it was pruned from — without this, a warm
//!   `assert` would silently change the semantics of old instances.
//!
//! Retraction ([`IncrementalGrounder::retract_fact`]) removes the fact
//! rule but deliberately leaves the envelope as a stale **superset**:
//! instances whose positive body mentions underivable atoms can never
//! fire, and negative literals kept against a larger envelope just
//! evaluate against atoms that are false — both semantics-preserving, at
//! the cost of a slightly larger ground program than a cold re-ground
//! would produce.
//!
//! Updates are **batched**: [`IncrementalGrounder::assert_batch`] /
//! [`IncrementalGrounder::retract_batch`] apply N facts with one
//! envelope round, one resurrection pass, and one focused re-join (the
//! single-fact entry points are one-element batches). Under the
//! active-domain policy the grounder also keeps per-term fact reference
//! counts, so `retract_batch` can tell the retractions that *actually*
//! shrink the domain (cold re-ground required) from the
//! domain-preserving majority (warm).
//!
//! **Rules** are incremental too ([`IncrementalGrounder::assert_rules`] /
//! [`IncrementalGrounder::retract_rules`]): an asserted rule is
//! safety-analyzed and compiled exactly as at load time, joined **once
//! over the existing envelope** to seed the tuples it can already derive,
//! and then the whole batch runs one semi-naive envelope-delta round in
//! which old and new rules participate alike. Heads the new rules bring
//! into the envelope resurrect pruned negative literals on existing
//! instances, old rules are re-joined focused on the delta, and the new
//! rules are instantiated over the final envelope. Retraction drops
//! exactly the ground instances the rule emitted (the grounder keeps
//! per-instance provenance) and, under the active-domain policy, checks
//! per-term **rule-constant reference counts** so only a batch that
//! actually removes a term from the domain forces a cold re-ground —
//! mirroring the fact-retract discipline. The envelope again stays a
//! stale superset, which is semantics-preserving by the same argument as
//! for facts.
//!
//! One caveat: a negative literal over a term that was never materialized
//! (possible only with function symbols under the active-domain policy)
//! cannot be keyed for resurrection. Such programs set
//! [`IncrementalGrounder::supports_incremental`] to `false` and callers
//! should fall back to cold grounding on `assert`. The same flag turns
//! false when a batch errors mid-delta (rule/envelope budget): the
//! grounder is then *poisoned* — the program may be missing consequences
//! — and must be rebuilt cold before further use.

use crate::ast::{Atom, Program, Rule};
use crate::atoms::{AtomId, ConstId, HerbrandBase};
use crate::depgraph::RuleRename;
use crate::error::GroundError;
use crate::fx::{FxHashMap, FxHashSet};
use crate::ground::{
    collect_rule_consts, collect_subterms, intern_ground_term, unsafe_variables, GroundOptions,
    SafetyPolicy,
};
use crate::program::{GroundProgram, GroundProgramBuilder, RuleId};
use crate::relation::{Database, Relation, Tuple};
use crate::seminaive::{
    compile_neg_atoms, compile_rule, eval_pat, evaluate_positive, extend_positive, join,
    try_eval_pat, CompiledAtom, CompiledRule, EvalLimits, Pat,
};
use crate::symbol::Symbol;

/// How one negative literal of an emitted instance resolved against the
/// envelope at emission time.
enum NegResolution {
    /// In the envelope: a real negative literal.
    Inside(Vec<ConstId>),
    /// Resolved to a concrete atom outside the envelope: pruned, but
    /// recorded so a later envelope growth can resurrect it.
    Outside(Symbol, Tuple),
    /// Mentions a term never materialized: pruned and unrecoverable.
    Unresolved,
}

struct Emission {
    sig: Box<[Option<ConstId>]>,
    head: Vec<ConstId>,
    pos: Vec<Vec<ConstId>>,
    neg: Vec<NegResolution>,
}

/// An imported, validated, and compiled `assert_rules` batch — produced
/// without mutating the grounder's working state, so a rejected batch
/// leaves everything untouched.
struct PreparedRules {
    facts: Vec<Atom>,
    rules: Vec<(Rule, CompiledRule, Vec<CompiledAtom>)>,
}

/// What an [`IncrementalGrounder::assert_batch`] /
/// [`IncrementalGrounder::retract_batch`] call (or their single-fact
/// wrappers) did to the ground program.
#[derive(Debug, Clone, Default)]
pub struct DeltaEffect {
    /// The last fact's atom id in the ground program (when it resolved).
    pub atom: Option<AtomId>,
    /// `false` when the call was a no-op (facts already present / absent).
    pub fresh: bool,
    /// Heads of rules added or patched, plus the fact atom itself — the
    /// atoms whose truth value may differ from the previous solve.
    /// Everything *outside* the dependency ancestors of these atoms
    /// provably keeps its truth value (relevance / splitting).
    pub changed: Vec<AtomId>,
    /// Body atoms of ground rules this call added or patched — the
    /// targets of dependency edges that did not necessarily exist
    /// before, which is exactly what
    /// [`crate::depgraph::Condensation::apply_delta`] needs to bound its
    /// repair window.
    pub new_edge_targets: Vec<AtomId>,
    /// Swap-remove renames of ground rule ids
    /// ([`crate::program::GroundProgram::remove_rule`] moving the last
    /// rule into the freed slot), in chronological order — the other
    /// half of the condensation-repair delta.
    pub renames: Vec<RuleRename>,
    /// Ground rule instances added by this call.
    pub new_rules: usize,
    /// Negative literals resurrected onto existing instances.
    pub resurrected: usize,
}

/// Outcome of [`IncrementalGrounder::retract_batch`] and
/// [`IncrementalGrounder::retract_rules`].
#[derive(Debug, Clone)]
pub enum RetractOutcome {
    /// The batch was applied warm; the effect describes the delta.
    Applied(DeltaEffect),
    /// Nothing was applied: the batch would shrink the active domain, so
    /// a warm retract is unsound — re-ground cold from the edited source
    /// program.
    DomainShrunk,
}

/// Outcome of [`IncrementalGrounder::assert_rules`].
#[derive(Debug, Clone)]
pub enum RuleAssertOutcome {
    /// The batch was applied warm; the effect describes the delta.
    Applied(DeltaEffect),
    /// Nothing was applied: the batch needs grounder state only a cold
    /// re-ground can build — the first *unsafe* rule of a program that
    /// was grounded without active-domain machinery (domain facts,
    /// per-term reference counts) has nowhere to hang its guards.
    NeedsCold,
}

/// The grounder with its working state retained for incremental updates.
pub struct IncrementalGrounder {
    options: GroundOptions,
    dom_pred: Symbol,
    need_dom: bool,
    /// Working base: term ids the envelope and compiled rules speak.
    base: HerbrandBase,
    envelope: Database,
    /// Compiled non-fact rules, parallel arrays (with `src_rules`).
    compiled: Vec<CompiledRule>,
    negs: Vec<Vec<CompiledAtom>>,
    /// The source (AST) form of each compiled rule, expressed against the
    /// grounder's own symbol store — what
    /// [`IncrementalGrounder::retract_rules`] matches structurally.
    src_rules: Vec<Rule>,
    prog: GroundProgram,
    /// Working-base (pred, args) → final atom id.
    atom_ids: FxHashMap<(Symbol, Tuple), AtomId>,
    /// Variable bindings of every instance ever emitted, grouped by rule
    /// index — grouping makes a rule retract's index remap two O(1) map
    /// moves instead of a rebuild of the whole set.
    emitted: FxHashMap<u32, FxHashSet<Box<[Option<ConstId>]>>>,
    /// Ground instance → index of the compiled rule it was emitted from
    /// (facts have no entry). This is the provenance
    /// [`IncrementalGrounder::retract_rules`] uses to drop exactly a
    /// retracted rule's instances.
    instance_src: FxHashMap<RuleId, u32>,
    /// Pruned negative literals by working-base key → instances to patch.
    dropped: FxHashMap<(Symbol, Tuple), Vec<RuleId>>,
    precise: bool,
    /// Set when a mutating call errored mid-delta (a rule or envelope
    /// budget hit): the ground program may hold a fact whose consequences
    /// were never instantiated. All further warm updates are refused
    /// ([`IncrementalGrounder::supports_incremental`] turns false) so the
    /// caller re-grounds cold.
    poisoned: bool,
    /// Active-domain bookkeeping (maintained only when `need_dom`): for
    /// every working-base term, how many current EDB facts contribute it
    /// as a subterm. A retraction that drops some term's count to zero
    /// (and the term is not kept alive by a rule constant) shrinks the
    /// active domain and needs a cold re-ground.
    dom_fact_refs: FxHashMap<ConstId, u32>,
    /// Per-term reference counts of **rule constants** (one count per
    /// syntactic occurrence across non-fact rules). Fact retracts cannot
    /// touch these, but a rule retract decrements them — a term whose
    /// fact refcount and rule refcount both reach zero leaves the active
    /// domain and forces a cold re-ground.
    dom_rule_consts: FxHashMap<ConstId, u32>,
    /// Atoms currently present as **EDB facts** (stated in the source
    /// program or asserted). A bodyless rule alone does not qualify: a
    /// rule instance whose guards were stripped and whose negative
    /// literals were pruned is *derived*, and retracting its head must
    /// not delete it.
    edb_facts: FxHashSet<AtomId>,
}

impl IncrementalGrounder {
    /// Ground `program`, retaining the working state. Produces exactly the
    /// [`GroundProgram`] that [`crate::ground::ground_with`] produces (that
    /// function now delegates here).
    pub fn new(program: &Program, options: &GroundOptions) -> Result<Self, GroundError> {
        let mut symbols = program.symbols.clone();
        let dom_pred = symbols.intern_fresh("$dom");
        let mut base = HerbrandBase::new();

        // ---- Pass 1: safety analysis & compilation ----------------------
        let mut compiled: Vec<CompiledRule> = Vec::new();
        let mut negs: Vec<Vec<CompiledAtom>> = Vec::new();
        let mut src_rules: Vec<Rule> = Vec::new();
        let mut facts: Vec<(Symbol, Tuple)> = Vec::new();
        let mut need_dom = false;
        for rule in &program.rules {
            if rule.is_fact() {
                let tuple: Vec<ConstId> = rule
                    .head
                    .args
                    .iter()
                    .map(|t| intern_ground_term(t, &mut base))
                    .collect();
                facts.push((rule.head.pred, tuple.into_boxed_slice()));
                continue;
            }
            let unsafe_vars = unsafe_variables(rule);
            let guards: Vec<CompiledAtom> = if unsafe_vars.is_empty() {
                vec![]
            } else {
                match options.safety {
                    SafetyPolicy::Reject => {
                        return Err(GroundError::UnsafeRule {
                            rule: crate::ast::display_rule(rule, &symbols),
                            variable: symbols.name(unsafe_vars[0]).to_string(),
                        });
                    }
                    SafetyPolicy::ActiveDomain => {
                        need_dom = true;
                        // Guards share the rule's slot assignment.
                        let probe = compile_rule(rule, &[]);
                        let mut slot_of: FxHashMap<Symbol, usize> = FxHashMap::default();
                        for (i, v) in probe.var_names.iter().enumerate() {
                            slot_of.insert(*v, i);
                        }
                        unsafe_vars
                            .iter()
                            .map(|v| CompiledAtom {
                                pred: dom_pred,
                                pats: vec![Pat::Var(slot_of[v])],
                            })
                            .collect()
                    }
                }
            };
            negs.push(compile_neg_atoms(rule));
            compiled.push(compile_rule(rule, &guards));
            // The grounder's symbol store starts as a clone of the
            // program's, so the rule can be retained verbatim.
            src_rules.push(rule.clone());
        }

        // ---- Active domain facts ----------------------------------------
        // Alongside the domain itself, keep the provenance needed to
        // decide later whether a retraction shrinks it: per-term fact
        // reference counts, and the terms pinned by non-fact rule
        // constants (which no retraction can remove).
        let mut dom_fact_refs: FxHashMap<ConstId, u32> = FxHashMap::default();
        let mut dom_rule_consts: FxHashMap<ConstId, u32> = FxHashMap::default();
        if need_dom {
            let mut dom_terms: Vec<ConstId> = Vec::new();
            let mut per_fact: Vec<ConstId> = Vec::new();
            for (_, tuple) in &facts {
                per_fact.clear();
                for &t in tuple.iter() {
                    collect_subterms(t, &base, &mut per_fact);
                }
                per_fact.sort_unstable();
                per_fact.dedup();
                for &t in &per_fact {
                    *dom_fact_refs.entry(t).or_insert(0) += 1;
                }
                dom_terms.extend_from_slice(&per_fact);
            }
            for rule in program.rules.iter().filter(|r| !r.is_fact()) {
                let start = dom_terms.len();
                collect_rule_consts(rule, &mut base, &mut dom_terms);
                for &t in &dom_terms[start..] {
                    *dom_rule_consts.entry(t).or_insert(0) += 1;
                }
            }
            dom_terms.sort_unstable();
            dom_terms.dedup();
            if dom_terms.is_empty() {
                return Err(GroundError::EmptyDomain);
            }
            for t in dom_terms {
                facts.push((dom_pred, vec![t].into_boxed_slice()));
            }
        }

        // ---- Pass 2: positive envelope ----------------------------------
        let limits = EvalLimits {
            max_tuples: options.max_envelope_tuples,
        };
        let mut envelope = evaluate_positive(&compiled, &facts, &mut base, &limits)?;
        index_all_columns(&mut envelope);

        let mut grounder = IncrementalGrounder {
            options: *options,
            dom_pred,
            need_dom,
            base,
            envelope,
            compiled,
            negs,
            src_rules,
            prog: GroundProgramBuilder::with_symbols(symbols).finish(),
            atom_ids: FxHashMap::default(),
            emitted: FxHashMap::default(),
            instance_src: FxHashMap::default(),
            dropped: FxHashMap::default(),
            precise: true,
            poisoned: false,
            dom_fact_refs,
            dom_rule_consts,
            edb_facts: FxHashSet::default(),
        };

        // ---- Pass 3: instantiate over the envelope ----------------------
        // EDB facts become bodyless ground rules (the synthetic domain
        // guard is not part of H).
        for (pred, tuple) in &facts {
            if *pred == grounder.dom_pred {
                continue;
            }
            let head = grounder.intern_final(*pred, tuple);
            grounder.edb_facts.insert(head);
            grounder.push_rule_checked(head, vec![], vec![])?;
        }
        let mut initial = DeltaEffect::default(); // discarded: nothing to repair yet
        for ix in 0..grounder.compiled.len() {
            let emissions = grounder.join_rule(ix, None);
            for e in emissions {
                grounder.admit(ix as u32, e, &mut initial)?;
            }
        }
        Ok(grounder)
    }

    /// The ground program in its current state.
    pub fn program(&self) -> &GroundProgram {
        &self.prog
    }

    /// Consume the grounder, keeping only the ground program.
    pub fn into_program(self) -> GroundProgram {
        self.prog
    }

    /// `false` when warm asserts would be unsound and the caller should
    /// re-ground cold: either some negative literal could not be keyed
    /// for resurrection (see module docs), or a previous mutating call
    /// errored mid-delta and left the program partially extended
    /// ([`IncrementalGrounder::is_poisoned`]).
    pub fn supports_incremental(&self) -> bool {
        self.precise && !self.poisoned
    }

    /// `true` after a mutating call errored mid-delta (rule or envelope
    /// budget): the ground program may hold a fact whose consequences
    /// were never instantiated, so it must not be solved or warm-updated
    /// — re-ground cold from the source program.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// `true` when grounding used active-domain guards. Retraction can
    /// then shrink the domain, and instances whose only positive subgoal
    /// was a stripped `$dom` guard would survive a warm retract that a
    /// cold re-ground would drop — callers should re-ground cold.
    pub fn uses_active_domain(&self) -> bool {
        self.need_dom
    }

    /// Translate an atom expressed against a foreign
    /// [`SymbolStore`](crate::SymbolStore) into this grounder's symbol
    /// space (mapping by name, interning as needed). The grounder's store
    /// starts as a clone of the source program's but the two diverge as
    /// soon as either side interns new names, so assert/retract go
    /// through this translation.
    pub fn import_atom(&mut self, atom: &Atom, from: &crate::symbol::SymbolStore) -> Atom {
        // Read-first: known names never force a copy of a symbol store
        // shared with a live program snapshot.
        self.prog.import_atom(atom, from)
    }

    /// Add one ground EDB fact — [`IncrementalGrounder::assert_batch`]
    /// with a single element.
    ///
    /// # Panics
    /// Panics if `atom` is not ground.
    pub fn assert_fact(
        &mut self,
        atom: &Atom,
        from: &crate::symbol::SymbolStore,
    ) -> Result<DeltaEffect, GroundError> {
        self.assert_batch(std::slice::from_ref(atom), from)
    }

    /// Add a batch of ground EDB facts, extending the envelope and the
    /// ground program by exactly the affected instances — with **one**
    /// semi-naive envelope round and one focused re-join pass for the
    /// whole batch, not one per fact. `from` is the symbol store the
    /// atoms were parsed against (see
    /// [`IncrementalGrounder::import_atom`]).
    ///
    /// On an error (rule or envelope budget), the grounder is left
    /// **poisoned**: the program may hold facts whose consequences were
    /// never instantiated, [`IncrementalGrounder::supports_incremental`]
    /// turns false, and the caller must re-ground cold from its source
    /// program before solving again.
    ///
    /// # Panics
    /// Panics if any atom is not ground.
    pub fn assert_batch(
        &mut self,
        atoms: &[Atom],
        from: &crate::symbol::SymbolStore,
    ) -> Result<DeltaEffect, GroundError> {
        let result = self.assert_batch_inner(atoms, from);
        if result.is_err() {
            self.poisoned = true;
        }
        result
    }

    fn assert_batch_inner(
        &mut self,
        atoms: &[Atom],
        from: &crate::symbol::SymbolStore,
    ) -> Result<DeltaEffect, GroundError> {
        let mut effect = DeltaEffect::default();
        let mut seed: Vec<(Symbol, Tuple)> = Vec::with_capacity(atoms.len());
        let mut dom_terms: Vec<ConstId> = Vec::new();
        for atom in atoms {
            assert!(atom.is_ground(), "assert_batch needs ground atoms");
            let atom = self.import_atom(atom, from);
            let tuple: Tuple = atom
                .args
                .iter()
                .map(|t| intern_ground_term(t, &mut self.base))
                .collect();
            let final_atom = self.intern_final(atom.pred, &tuple);
            effect.atom = Some(final_atom);
            if !self.edb_facts.insert(final_atom) {
                continue; // already an EDB fact — no-op
            }
            effect.fresh = true;
            self.push_rule_checked(final_atom, vec![], vec![])?;
            effect.changed.push(final_atom);
            if self.need_dom {
                // One subterm walk serves both the refcounts and the
                // domain seed below.
                dom_terms.extend(self.count_fact_terms(&tuple, true));
            }
            seed.push((atom.pred, tuple));
        }
        if seed.is_empty() {
            return Ok(effect); // whole batch was a no-op
        }

        // One envelope delta for the whole batch: the facts plus any new
        // active-domain members they introduce.
        if self.need_dom {
            dom_terms.sort_unstable();
            dom_terms.dedup();
            for t in dom_terms {
                seed.push((self.dom_pred, vec![t].into_boxed_slice()));
            }
        }
        let limits = EvalLimits {
            max_tuples: self.options.max_envelope_tuples,
        };
        let delta = extend_positive(
            &self.compiled,
            &mut self.envelope,
            seed,
            &mut self.base,
            &limits,
        )?;
        index_all_columns(&mut self.envelope);

        // Resurrect negative literals whose atom just entered the envelope.
        for (pred, rel) in delta.iter() {
            for row in rel.rows() {
                if let Some(rules) = self.dropped.remove(&(pred, row.clone())) {
                    let neg_atom = self.intern_final(pred, row);
                    for rid in rules {
                        self.prog.add_neg_literal(rid, neg_atom);
                        effect.changed.push(self.prog.rule(rid).head);
                        effect.new_edge_targets.push(neg_atom);
                        effect.resurrected += 1;
                    }
                }
            }
        }

        // Instantiate the rules whose body touches a delta relation, with
        // the delta substituted at one focus position at a time; the
        // `emitted` set keeps re-joins from duplicating instances.
        for ix in 0..self.compiled.len() {
            let touches = self.compiled[ix]
                .body
                .iter()
                .any(|a| delta.relation(a.pred).is_some_and(|r| !r.is_empty()));
            if !touches {
                continue;
            }
            for focus in 0..self.compiled[ix].body.len() {
                let pred = self.compiled[ix].body[focus].pred;
                if delta.relation(pred).is_none_or(Relation::is_empty) {
                    continue;
                }
                let emissions = self.join_rule(ix, Some((focus, &delta)));
                for e in emissions {
                    if self.already_emitted(ix as u32, &e.sig) {
                        continue;
                    }
                    let head = self.admit(ix as u32, e, &mut effect)?;
                    effect.changed.push(head);
                    effect.new_rules += 1;
                }
            }
        }
        effect.changed.sort_unstable();
        effect.changed.dedup();
        effect.new_edge_targets.sort_unstable();
        effect.new_edge_targets.dedup();
        Ok(effect)
    }

    /// Remove a ground EDB fact (the bodyless rule for its atom), if
    /// present — **unconditionally warm**. The envelope intentionally
    /// stays a stale superset (see the module docs for why this is
    /// semantics-preserving), but under the active-domain policy a
    /// retraction that shrinks the domain is *not* preserved this way:
    /// use [`IncrementalGrounder::retract_batch`], which detects that
    /// case, unless the caller re-grounds cold on every retract anyway.
    pub fn retract_fact(
        &mut self,
        atom: &Atom,
        from: &crate::symbol::SymbolStore,
    ) -> Result<DeltaEffect, GroundError> {
        let atom = self.import_atom(atom, from);
        Ok(self.retract_one(&atom))
    }

    /// Remove a batch of ground EDB facts with one dirty-set merge —
    /// after checking that the batch keeps the active domain intact.
    /// When the batch would shrink the domain (some term of a retracted
    /// fact no longer occurs in any remaining fact or non-fact rule),
    /// **nothing is applied** and [`RetractOutcome::DomainShrunk`] is
    /// returned: the caller must re-ground cold from its edited source
    /// program. Programs grounded without active-domain guards never
    /// shrink.
    pub fn retract_batch(
        &mut self,
        atoms: &[Atom],
        from: &crate::symbol::SymbolStore,
    ) -> RetractOutcome {
        let atoms: Vec<Atom> = atoms.iter().map(|a| self.import_atom(a, from)).collect();
        if self.need_dom && self.batch_shrinks_domain(&atoms) {
            return RetractOutcome::DomainShrunk;
        }
        let mut effect = DeltaEffect::default();
        for atom in &atoms {
            let one = self.retract_one(atom);
            effect.fresh |= one.fresh;
            effect.atom = one.atom.or(effect.atom);
            effect.changed.extend(one.changed);
            effect.renames.extend(one.renames);
        }
        effect.changed.sort_unstable();
        effect.changed.dedup();
        RetractOutcome::Applied(effect)
    }

    /// Would retracting every (present) fact of `atoms` remove some term
    /// from the active domain? Simulates the batch's reference-count
    /// decrements so that two facts jointly holding a term's last two
    /// references are detected even though each alone would not shrink.
    fn batch_shrinks_domain(&mut self, atoms: &[Atom]) -> bool {
        let mut dec: FxHashMap<ConstId, u32> = FxHashMap::default();
        let mut seen: FxHashSet<AtomId> = FxHashSet::default();
        for atom in atoms {
            let Some(final_atom) = self.find_final_atom(atom) else {
                continue; // never materialized — retract is a no-op
            };
            if !self.edb_facts.contains(&final_atom) || !seen.insert(final_atom) {
                continue; // no-op, or the same fact twice in one batch
            }
            let tuple: Tuple = atom
                .args
                .iter()
                .map(|t| intern_ground_term(t, &mut self.base))
                .collect();
            let mut terms = Vec::new();
            for &t in tuple.iter() {
                collect_subterms(t, &self.base, &mut terms);
            }
            terms.sort_unstable();
            terms.dedup();
            for t in terms {
                *dec.entry(t).or_insert(0) += 1;
            }
        }
        dec.iter().any(|(t, &d)| {
            self.dom_rule_consts.get(t).copied().unwrap_or(0) == 0
                && self.dom_fact_refs.get(t).copied().unwrap_or(0) <= d
        })
    }

    /// Warm-retract one imported fact atom, maintaining the resurrection
    /// records and (under the active-domain policy) the term refcounts.
    fn retract_one(&mut self, atom: &Atom) -> DeltaEffect {
        assert!(atom.is_ground(), "retract needs a ground atom");
        let mut effect = DeltaEffect::default();
        let Some(final_atom) = self.find_final_atom(atom) else {
            return effect; // never materialized — nothing to retract
        };
        effect.atom = Some(final_atom);
        if !self.edb_facts.remove(&final_atom) {
            // Not an EDB fact. A bodyless *rule* with this head may well
            // exist (a derived instance whose guards were stripped and
            // negative literals pruned) — it is not retractable.
            return effect;
        }
        let Some(&rid) = self
            .prog
            .rules_with_head(final_atom)
            .iter()
            .find(|&&r| self.prog.rule(r).is_fact())
        else {
            return effect; // the fact rule itself is gone — nothing to do
        };
        if let Some(moved) = self.prog.remove_rule_logged(rid, &mut effect.renames) {
            self.fix_moved_rule(moved, rid);
        }
        if self.need_dom {
            let tuple: Tuple = atom
                .args
                .iter()
                .map(|t| intern_ground_term(t, &mut self.base))
                .collect();
            self.count_fact_terms(&tuple, false);
        }
        effect.fresh = true;
        effect.changed.push(final_atom);
        effect
    }

    /// Adjust the active-domain refcounts for one fact's subterms
    /// (deduplicated within the fact, so assert/retract stay symmetric).
    /// Returns the deduplicated subterm list so callers can reuse the
    /// walk (the assert path feeds it to the domain seed).
    fn count_fact_terms(&mut self, tuple: &[ConstId], add: bool) -> Vec<ConstId> {
        let mut terms = Vec::new();
        for &t in tuple {
            collect_subterms(t, &self.base, &mut terms);
        }
        terms.sort_unstable();
        terms.dedup();
        for &t in &terms {
            let slot = self.dom_fact_refs.entry(t).or_insert(0);
            if add {
                *slot += 1;
            } else {
                *slot = slot.saturating_sub(1);
            }
        }
        terms
    }

    /// Translate a rule expressed against a foreign [`SymbolStore`] into
    /// this grounder's symbol space (the rule-level analogue of
    /// [`IncrementalGrounder::import_atom`]).
    ///
    /// [`SymbolStore`]: crate::symbol::SymbolStore
    pub fn import_rule(&mut self, rule: &Rule, from: &crate::symbol::SymbolStore) -> Rule {
        // Read-first, like `import_atom`.
        self.prog.import_rule(rule, from)
    }

    /// Add a batch of rules (facts allowed — they take the EDB-fact
    /// path), extending the envelope and the ground program by exactly
    /// the affected instances. Each new rule is safety-analyzed and
    /// compiled as at load time, joined **once** over the existing
    /// envelope to seed what it can already derive, and the whole batch
    /// then runs one semi-naive envelope-delta round in which old and
    /// new rules participate alike; heads entering the envelope
    /// resurrect pruned negative literals, and old rules re-join focused
    /// on the delta. Rules identical to a retained one are skipped
    /// (idempotent).
    ///
    /// Returns [`RuleAssertOutcome::NeedsCold`] — with nothing applied —
    /// when the batch brings the first *unsafe* rule to a program that
    /// was grounded without the active-domain machinery. Validation
    /// errors (an unsafe rule under [`SafetyPolicy::Reject`]) also leave
    /// the grounder untouched; errors during the delta itself (rule or
    /// envelope budget) **poison** it, exactly like
    /// [`IncrementalGrounder::assert_batch`].
    pub fn assert_rules(
        &mut self,
        rules: &[Rule],
        from: &crate::symbol::SymbolStore,
    ) -> Result<RuleAssertOutcome, GroundError> {
        // Validation and compilation mutate nothing but the symbol
        // store, so a rejected batch leaves the grounder consistent.
        let Some(prepared) = self.prepare_rules(rules, from)? else {
            return Ok(RuleAssertOutcome::NeedsCold);
        };
        let result = self.assert_rules_inner(prepared);
        if result.is_err() {
            self.poisoned = true;
        }
        result.map(RuleAssertOutcome::Applied)
    }

    /// Import, safety-check, and compile an assert batch without touching
    /// the grounder's working state. `None` means the batch needs a cold
    /// re-ground (active-domain bootstrap).
    fn prepare_rules(
        &mut self,
        rules: &[Rule],
        from: &crate::symbol::SymbolStore,
    ) -> Result<Option<PreparedRules>, GroundError> {
        let mut prepared = PreparedRules {
            facts: Vec::new(),
            rules: Vec::new(),
        };
        for rule in rules {
            let rule = self.import_rule(rule, from);
            if rule.is_fact() {
                prepared.facts.push(rule.head);
                continue;
            }
            if self.src_rules.contains(&rule) || prepared.rules.iter().any(|(r, ..)| *r == rule) {
                continue; // an identical rule is already present
            }
            let unsafe_vars = unsafe_variables(&rule);
            let guards: Vec<CompiledAtom> = if unsafe_vars.is_empty() {
                vec![]
            } else {
                match self.options.safety {
                    SafetyPolicy::Reject => {
                        return Err(GroundError::UnsafeRule {
                            rule: crate::ast::display_rule(&rule, self.prog.symbols()),
                            variable: self.prog.symbols().name(unsafe_vars[0]).to_string(),
                        });
                    }
                    SafetyPolicy::ActiveDomain => {
                        if !self.need_dom {
                            // The load-time grounding had no unsafe rule,
                            // so none of the active-domain machinery
                            // (domain facts, refcounts) exists to hang
                            // the guards on — bootstrap cold.
                            return Ok(None);
                        }
                        let probe = compile_rule(&rule, &[]);
                        let mut slot_of: FxHashMap<Symbol, usize> = FxHashMap::default();
                        for (i, v) in probe.var_names.iter().enumerate() {
                            slot_of.insert(*v, i);
                        }
                        unsafe_vars
                            .iter()
                            .map(|v| CompiledAtom {
                                pred: self.dom_pred,
                                pats: vec![Pat::Var(slot_of[v])],
                            })
                            .collect()
                    }
                }
            };
            let negs = compile_neg_atoms(&rule);
            let compiled = compile_rule(&rule, &guards);
            prepared.rules.push((rule, compiled, negs));
        }
        Ok(Some(prepared))
    }

    fn assert_rules_inner(&mut self, prepared: PreparedRules) -> Result<DeltaEffect, GroundError> {
        let PreparedRules { facts, rules } = prepared;
        let mut effect = DeltaEffect::default();
        let mut seed: Vec<(Symbol, Tuple)> = Vec::new();
        let mut dom_terms: Vec<ConstId> = Vec::new();

        // Fact rules in the batch take the exact EDB-fact assert path.
        for atom in &facts {
            let tuple: Tuple = atom
                .args
                .iter()
                .map(|t| intern_ground_term(t, &mut self.base))
                .collect();
            let final_atom = self.intern_final(atom.pred, &tuple);
            effect.atom = Some(final_atom);
            if !self.edb_facts.insert(final_atom) {
                continue; // already an EDB fact — no-op
            }
            effect.fresh = true;
            self.push_rule_checked(final_atom, vec![], vec![])?;
            effect.changed.push(final_atom);
            if self.need_dom {
                dom_terms.extend(self.count_fact_terms(&tuple, true));
            }
            seed.push((atom.pred, tuple));
        }
        if self.need_dom {
            dom_terms.sort_unstable();
            dom_terms.dedup();
            for t in dom_terms {
                seed.push((self.dom_pred, vec![t].into_boxed_slice()));
            }
        }

        // Register the new rules. Their constants extend and pin the
        // active domain; the corresponding `$dom` tuples join the seed
        // (`extend_positive` drops tuples already in the envelope).
        let first_new = self.compiled.len();
        for (rule, compiled, negs) in rules {
            if self.need_dom {
                let mut consts = Vec::new();
                collect_rule_consts(&rule, &mut self.base, &mut consts);
                for &t in &consts {
                    *self.dom_rule_consts.entry(t).or_insert(0) += 1;
                    seed.push((self.dom_pred, vec![t].into_boxed_slice()));
                }
            }
            self.src_rules.push(rule);
            self.negs.push(negs);
            self.compiled.push(compiled);
            effect.fresh = true;
        }
        if !effect.fresh {
            return Ok(effect); // whole batch was a no-op
        }

        // Seed what the new rules can already derive from the existing
        // envelope: one full join per new rule. The delta rounds below
        // re-join focused on *new* tuples only, so derivations over
        // purely pre-existing tuples must be found here.
        let empty = Relation::new(0);
        for ix in first_new..self.compiled.len() {
            let head_pred = self.compiled[ix].head.pred;
            let head_pats = self.compiled[ix].head.pats.clone();
            let mut envs: Vec<Vec<Option<ConstId>>> = Vec::new();
            if self.compiled[ix].body.is_empty() {
                // A body-free rule (after compilation) fires once, as in
                // the initial grounding's zero-body pass.
                envs.push(vec![None; self.compiled[ix].nvars]);
            } else {
                let cr = &self.compiled[ix];
                let rels: Vec<&Relation> = cr
                    .body
                    .iter()
                    .map(|a| self.envelope.relation(a.pred).unwrap_or(&empty))
                    .collect();
                let mut env: Vec<Option<ConstId>> = vec![None; cr.nvars];
                join(&cr.body, &rels, &self.base, &mut env, &mut |e, _| {
                    envs.push(e.to_vec())
                });
            }
            for env in envs {
                let head: Vec<ConstId> = head_pats
                    .iter()
                    .map(|p| eval_pat(p, &env, &mut self.base))
                    .collect();
                seed.push((head_pred, head.into_boxed_slice()));
            }
        }

        // One envelope delta for the whole batch; old and new rules both
        // participate in the semi-naive rounds.
        let limits = EvalLimits {
            max_tuples: self.options.max_envelope_tuples,
        };
        let delta = extend_positive(
            &self.compiled,
            &mut self.envelope,
            seed,
            &mut self.base,
            &limits,
        )?;
        index_all_columns(&mut self.envelope);

        // Resurrect negative literals whose atom just entered the envelope.
        for (pred, rel) in delta.iter() {
            for row in rel.rows() {
                if let Some(rules) = self.dropped.remove(&(pred, row.clone())) {
                    let neg_atom = self.intern_final(pred, row);
                    for rid in rules {
                        self.prog.add_neg_literal(rid, neg_atom);
                        effect.changed.push(self.prog.rule(rid).head);
                        effect.new_edge_targets.push(neg_atom);
                        effect.resurrected += 1;
                    }
                }
            }
        }

        // Instantiate the new rules over the (now extended) envelope …
        for ix in first_new..self.compiled.len() {
            let emissions = self.join_rule(ix, None);
            for e in emissions {
                if self.already_emitted(ix as u32, &e.sig) {
                    continue;
                }
                let head = self.admit(ix as u32, e, &mut effect)?;
                effect.changed.push(head);
                effect.new_rules += 1;
            }
        }
        // … and re-join the pre-existing rules focused on the delta.
        for ix in 0..first_new {
            let touches = self.compiled[ix]
                .body
                .iter()
                .any(|a| delta.relation(a.pred).is_some_and(|r| !r.is_empty()));
            if !touches {
                continue;
            }
            for focus in 0..self.compiled[ix].body.len() {
                let pred = self.compiled[ix].body[focus].pred;
                if delta.relation(pred).is_none_or(Relation::is_empty) {
                    continue;
                }
                let emissions = self.join_rule(ix, Some((focus, &delta)));
                for e in emissions {
                    if self.already_emitted(ix as u32, &e.sig) {
                        continue;
                    }
                    let head = self.admit(ix as u32, e, &mut effect)?;
                    effect.changed.push(head);
                    effect.new_rules += 1;
                }
            }
        }
        effect.changed.sort_unstable();
        effect.changed.dedup();
        effect.new_edge_targets.sort_unstable();
        effect.new_edge_targets.dedup();
        Ok(effect)
    }

    /// Remove a batch of previously asserted or load-time rules (facts
    /// allowed — they take the EDB-fact retract path), dropping exactly
    /// the ground instances each rule emitted. Rules are matched
    /// **structurally** against their retained source form (same literal
    /// order, same variable names); unknown rules are ignored. The
    /// envelope stays a stale superset, which is semantics-preserving by
    /// the same argument as for fact retraction (see the module docs).
    /// Under the active-domain policy a batch whose facts and rule
    /// constants jointly drop some term's last references returns
    /// [`RetractOutcome::DomainShrunk`] with nothing applied: the caller
    /// must re-ground cold from its edited source program.
    pub fn retract_rules(
        &mut self,
        rules: &[Rule],
        from: &crate::symbol::SymbolStore,
    ) -> RetractOutcome {
        let imported: Vec<Rule> = rules.iter().map(|r| self.import_rule(r, from)).collect();
        let mut fact_atoms: Vec<Atom> = Vec::new();
        let mut ixs: Vec<usize> = Vec::new();
        for rule in &imported {
            if rule.is_fact() {
                fact_atoms.push(rule.head.clone());
            } else if let Some(ix) = self.src_rules.iter().position(|r| r == rule) {
                if !ixs.contains(&ix) {
                    ixs.push(ix);
                }
            }
        }
        if self.need_dom && self.rule_batch_shrinks_domain(&fact_atoms, &ixs) {
            return RetractOutcome::DomainShrunk;
        }
        let mut effect = DeltaEffect::default();
        for atom in &fact_atoms {
            let one = self.retract_one(atom);
            effect.fresh |= one.fresh;
            effect.atom = one.atom.or(effect.atom);
            effect.changed.extend(one.changed);
            effect.renames.extend(one.renames);
        }
        // Highest index first: each swap-remove fills the freed slot from
        // the end, which in descending order is never an index still
        // pending removal.
        ixs.sort_unstable();
        for &ix in ixs.iter().rev() {
            self.remove_compiled_rule(ix, &mut effect);
        }
        effect.changed.sort_unstable();
        effect.changed.dedup();
        RetractOutcome::Applied(effect)
    }

    /// Would retracting these facts *and* rules jointly remove some term
    /// from the active domain? Mirrors
    /// [`IncrementalGrounder::batch_shrinks_domain`], additionally
    /// simulating the rule-constant refcount decrements, so a fact and a
    /// rule jointly holding a term's last references are detected.
    fn rule_batch_shrinks_domain(&mut self, fact_atoms: &[Atom], ixs: &[usize]) -> bool {
        let mut fact_dec: FxHashMap<ConstId, u32> = FxHashMap::default();
        let mut seen: FxHashSet<AtomId> = FxHashSet::default();
        for atom in fact_atoms {
            let Some(final_atom) = self.find_final_atom(atom) else {
                continue;
            };
            if !self.edb_facts.contains(&final_atom) || !seen.insert(final_atom) {
                continue;
            }
            let tuple: Tuple = atom
                .args
                .iter()
                .map(|t| intern_ground_term(t, &mut self.base))
                .collect();
            let mut terms = Vec::new();
            for &t in tuple.iter() {
                collect_subterms(t, &self.base, &mut terms);
            }
            terms.sort_unstable();
            terms.dedup();
            for t in terms {
                *fact_dec.entry(t).or_insert(0) += 1;
            }
        }
        let mut rule_dec: FxHashMap<ConstId, u32> = FxHashMap::default();
        for &ix in ixs {
            let rule = self.src_rules[ix].clone();
            let mut consts = Vec::new();
            collect_rule_consts(&rule, &mut self.base, &mut consts);
            for t in consts {
                *rule_dec.entry(t).or_insert(0) += 1;
            }
        }
        let mut candidates: Vec<ConstId> =
            fact_dec.keys().chain(rule_dec.keys()).copied().collect();
        candidates.sort_unstable();
        candidates.dedup();
        candidates.into_iter().any(|t| {
            let fr = self.dom_fact_refs.get(&t).copied().unwrap_or(0);
            let rr = self.dom_rule_consts.get(&t).copied().unwrap_or(0);
            let fd = fact_dec.get(&t).copied().unwrap_or(0);
            let rd = rule_dec.get(&t).copied().unwrap_or(0);
            (fr > 0 || rr > 0) && fr <= fd && rr <= rd
        })
    }

    /// Drop compiled rule `ix` and every ground instance it emitted,
    /// patching the instance provenance, the resurrection records, and
    /// the emission keys of the rule that takes over the freed slot.
    fn remove_compiled_rule(&mut self, ix: usize, effect: &mut DeltaEffect) {
        // 1. Remove the rule's ground instances.
        let mut rids: Vec<RuleId> = self
            .instance_src
            .iter()
            .filter(|&(_, &src)| src as usize == ix)
            .map(|(&rid, _)| rid)
            .collect();
        while let Some(rid) = rids.pop() {
            effect.changed.push(self.prog.rule(rid).head);
            self.instance_src.remove(&rid);
            for rules in self.dropped.values_mut() {
                rules.retain(|&r| r != rid);
            }
            if let Some(moved) = self.prog.remove_rule_logged(rid, &mut effect.renames) {
                self.fix_moved_rule(moved, rid);
                for r in rids.iter_mut() {
                    if *r == moved {
                        *r = rid;
                    }
                }
            }
        }
        self.dropped.retain(|_, rules| !rules.is_empty());
        // 2. Release the rule's pin on the active domain.
        if self.need_dom {
            let rule = self.src_rules[ix].clone();
            let mut consts = Vec::new();
            collect_rule_consts(&rule, &mut self.base, &mut consts);
            for t in consts {
                if let Some(n) = self.dom_rule_consts.get_mut(&t) {
                    *n = n.saturating_sub(1);
                }
            }
        }
        // 3. Swap-remove the compiled arrays and remap everything keyed
        //    by the rule index that moved into the freed slot.
        let last = self.compiled.len() - 1;
        self.compiled.swap_remove(ix);
        self.negs.swap_remove(ix);
        self.src_rules.swap_remove(ix);
        effect.fresh = true;
        self.emitted.remove(&(ix as u32)); // the rule's emissions are forgotten
        if ix != last {
            if let Some(sigs) = self.emitted.remove(&(last as u32)) {
                self.emitted.insert(ix as u32, sigs);
            }
            for src in self.instance_src.values_mut() {
                if *src as usize == last {
                    *src = ix as u32;
                }
            }
        }
    }

    /// Test-only fault injection: mark the grounder poisoned as if a
    /// mutating call had errored mid-delta. Lets integration tests drive
    /// the recovery paths that are unreachable through the public API (a
    /// retained source program always re-grounds within the budgets that
    /// admitted it — the warm program is a superset of its cold
    /// re-ground).
    #[doc(hidden)]
    pub fn poison_for_testing(&mut self) {
        self.poisoned = true;
    }

    // ---- internals ------------------------------------------------------

    /// The swap-remove in [`GroundProgram::remove_rule`] renamed the
    /// former last rule `moved` to `now`; keep the resurrection records
    /// and the instance provenance pointing at it.
    fn fix_moved_rule(&mut self, moved: RuleId, now: RuleId) {
        for rules in self.dropped.values_mut() {
            for r in rules.iter_mut() {
                if *r == moved {
                    *r = now;
                }
            }
        }
        if let Some(src) = self.instance_src.remove(&moved) {
            self.instance_src.insert(now, src);
        }
    }

    fn intern_final(&mut self, pred: Symbol, args: &[ConstId]) -> AtomId {
        let key = (pred, args.to_vec().into_boxed_slice());
        if let Some(&id) = self.atom_ids.get(&key) {
            return id;
        }
        // Read-first reintern: terms already present in the final base
        // never force a copy of a base shared with a live snapshot.
        let (prog, base) = (&mut self.prog, &self.base);
        let new_args: Vec<ConstId> = args.iter().map(|&a| prog.reintern_term(a, base)).collect();
        let id = self.prog.intern_atom_ids(pred, &new_args);
        self.atom_ids.insert(key, id);
        id
    }

    /// Resolve an AST atom against the **final** base without interning.
    fn find_final_atom(&self, atom: &Atom) -> Option<AtomId> {
        fn find_term(t: &crate::ast::Term, base: &HerbrandBase) -> Option<ConstId> {
            match t {
                crate::ast::Term::Const(c) => base.find_term(&crate::atoms::GroundTerm::Const(*c)),
                crate::ast::Term::App(f, args) => {
                    let ids: Option<Vec<ConstId>> =
                        args.iter().map(|a| find_term(a, base)).collect();
                    base.find_term(&crate::atoms::GroundTerm::App(*f, ids?.into_boxed_slice()))
                }
                crate::ast::Term::Var(_) => None,
            }
        }
        let args: Option<Vec<ConstId>> = atom
            .args
            .iter()
            .map(|t| find_term(t, self.prog.base()))
            .collect();
        self.prog.base().find_atom(atom.pred, &args?)
    }

    /// Join rule `ix` over the envelope — or, when `focus` names a body
    /// position and a delta database, with the delta substituted there —
    /// and collect the emissions.
    fn join_rule(&self, ix: usize, focus: Option<(usize, &Database)>) -> Vec<Emission> {
        let cr = &self.compiled[ix];
        let negs = &self.negs[ix];
        let empty = Relation::new(0);
        let rels: Vec<&Relation> = cr
            .body
            .iter()
            .enumerate()
            .map(|(i, atom)| {
                let db = match focus {
                    Some((f, delta)) if i == f => delta,
                    _ => &self.envelope,
                };
                db.relation(atom.pred).unwrap_or(&empty)
            })
            .collect();
        let mut env: Vec<Option<ConstId>> = vec![None; cr.nvars];
        let mut emissions: Vec<Emission> = Vec::new();
        let dom_pred = self.dom_pred;
        let envelope = &self.envelope;
        join(&cr.body, &rels, &self.base, &mut env, &mut |env, base| {
            let head: Vec<ConstId> = cr
                .head
                .pats
                .iter()
                .map(|p| try_eval_pat(p, env, base).expect("head term is in the envelope"))
                .collect();
            let pos: Vec<Vec<ConstId>> = cr
                .body
                .iter()
                .filter(|a| a.pred != dom_pred)
                .map(|a| {
                    a.pats
                        .iter()
                        .map(|p| try_eval_pat(p, env, base).expect("pos body term matched"))
                        .collect()
                })
                .collect();
            let neg: Vec<NegResolution> = negs
                .iter()
                .map(|a| {
                    let args: Option<Vec<ConstId>> =
                        a.pats.iter().map(|p| try_eval_pat(p, env, base)).collect();
                    match args {
                        None => NegResolution::Unresolved,
                        Some(args) if envelope.contains(a.pred, &args) => {
                            NegResolution::Inside(args)
                        }
                        Some(args) => NegResolution::Outside(a.pred, args.into_boxed_slice()),
                    }
                })
                .collect();
            emissions.push(Emission {
                sig: env.to_vec().into_boxed_slice(),
                head,
                pos,
                neg,
            });
        });
        emissions
    }

    /// Intern one emission's atoms and append its ground rule, recording
    /// the binding signature, any pruned negative literals, and the new
    /// instance's dependency-edge targets (into `effect`, for the
    /// caller's condensation repair). Returns the instance's head atom.
    fn admit(
        &mut self,
        ix: u32,
        e: Emission,
        effect: &mut DeltaEffect,
    ) -> Result<AtomId, GroundError> {
        let head = self.intern_final(self.compiled[ix as usize].head.pred, &e.head);
        let body_preds: Vec<Symbol> = self.compiled[ix as usize]
            .body
            .iter()
            .filter(|a| a.pred != self.dom_pred)
            .map(|a| a.pred)
            .collect();
        let mut pos_ids = Vec::with_capacity(e.pos.len());
        for (pred, args) in body_preds.into_iter().zip(e.pos.iter()) {
            pos_ids.push(self.intern_final(pred, args));
        }
        let neg_preds: Vec<Symbol> = self.negs[ix as usize].iter().map(|a| a.pred).collect();
        let mut neg_ids = Vec::new();
        let mut pruned: Vec<(Symbol, Tuple)> = Vec::new();
        for (k, res) in e.neg.into_iter().enumerate() {
            match res {
                NegResolution::Inside(args) => {
                    neg_ids.push(self.intern_final(neg_preds[k], &args));
                }
                NegResolution::Outside(pred, args) => pruned.push((pred, args)),
                NegResolution::Unresolved => {
                    self.precise = false;
                }
            }
        }
        effect.new_edge_targets.extend_from_slice(&pos_ids);
        effect.new_edge_targets.extend_from_slice(&neg_ids);
        let rid = self.push_rule_checked(head, pos_ids, neg_ids)?;
        for key in pruned {
            self.dropped.entry(key).or_default().push(rid);
        }
        self.emitted.entry(ix).or_default().insert(e.sig);
        self.instance_src.insert(rid, ix);
        Ok(head)
    }

    fn already_emitted(&self, ix: u32, sig: &[Option<ConstId>]) -> bool {
        self.emitted.get(&ix).is_some_and(|sigs| sigs.contains(sig))
    }

    fn push_rule_checked(
        &mut self,
        head: AtomId,
        pos: Vec<AtomId>,
        neg: Vec<AtomId>,
    ) -> Result<RuleId, GroundError> {
        if self.prog.rule_count() + 1 > self.options.max_ground_rules {
            return Err(GroundError::RuleBudgetExceeded {
                limit: self.options.max_ground_rules,
            });
        }
        Ok(self.prog.push_rule(head, pos, neg))
    }
}

fn index_all_columns(db: &mut Database) {
    let preds: Vec<Symbol> = db.iter().map(|(p, _)| p).collect();
    for p in preds {
        if let Some(rel) = db.relation(p) {
            let arity = rel.arity();
            let rel = db.relation_mut(p, arity);
            for col in 0..arity {
                rel.ensure_index(col);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ground::{ground_with, GroundOptions};
    use crate::parser::{parse_atom_into, parse_program};

    fn assert_same_programs(a: &GroundProgram, b: &GroundProgram) {
        // Compare as (displayed) rule sets — atom id assignment may differ
        // between a warm and a cold grounding.
        let mut ra: Vec<String> = a.to_string().lines().map(String::from).collect();
        let mut rb: Vec<String> = b.to_string().lines().map(String::from).collect();
        ra.sort();
        rb.sort();
        assert_eq!(ra, rb);
    }

    #[test]
    fn initial_grounding_matches_batch() {
        for src in [
            "wins(X) :- move(X, Y), not wins(Y). move(a, b). move(b, a). move(b, c).",
            "p :- not q. q :- not p. r :- p, q.",
            "tc(X,Y) :- e(X,Y). tc(X,Y) :- e(X,Z), tc(Z,Y). e(a,b). e(b,c).",
        ] {
            let program = parse_program(src).unwrap();
            let options = GroundOptions::default();
            let batch = ground_with(&program, &options).unwrap();
            let incr = IncrementalGrounder::new(&program, &options).unwrap();
            assert_same_programs(&batch, incr.program());
        }
    }

    #[test]
    fn assert_equals_cold_ground_of_concatenated_text() {
        let base_src = "wins(X) :- move(X, Y), not wins(Y). move(a, b). move(b, a).";
        let mut program = parse_program(base_src).unwrap();
        let options = GroundOptions::default();
        let mut g = IncrementalGrounder::new(&program, &options).unwrap();
        assert!(g.supports_incremental());

        // move(b, c) resurrects nothing; move(c, d) must resurrect the
        // pruned `not wins(c)` on the wins(b) :- move(b,c) instance.
        for fact in ["move(b, c)", "move(c, d)"] {
            let atom = parse_atom_into(fact, &mut program).unwrap();
            let effect = g.assert_fact(&atom, &program.symbols).unwrap();
            assert!(effect.fresh);
        }
        let cold_src = format!("{base_src} move(b, c). move(c, d).");
        let cold = ground_with(&parse_program(&cold_src).unwrap(), &options).unwrap();
        assert_same_programs(g.program(), &cold);
    }

    #[test]
    fn resurrection_restores_pruned_negative_literals() {
        let mut program = parse_program("wins(X) :- move(X, Y), not wins(Y). move(b, c).").unwrap();
        let options = GroundOptions::default();
        let mut g = IncrementalGrounder::new(&program, &options).unwrap();
        // Initially `not wins(c)` is pruned: wins(c) has no derivation.
        let wb = g.program().find_atom_by_name("wins", &["b"]).unwrap();
        let rb = g.program().rules_with_head(wb)[0];
        assert!(g.program().rule(rb).neg.is_empty());

        let atom = parse_atom_into("move(c, d)", &mut program).unwrap();
        let effect = g.assert_fact(&atom, &program.symbols).unwrap();
        assert!(effect.resurrected >= 1);
        let wc = g.program().find_atom_by_name("wins", &["c"]).unwrap();
        let rb = g.program().rules_with_head(wb)[0];
        assert_eq!(g.program().rule(rb).neg.as_ref(), &[wc]);
    }

    #[test]
    fn assert_is_idempotent() {
        let mut program = parse_program("p(X) :- e(X). e(a).").unwrap();
        let options = GroundOptions::default();
        let mut g = IncrementalGrounder::new(&program, &options).unwrap();
        let atom = parse_atom_into("e(b)", &mut program).unwrap();
        assert!(g.assert_fact(&atom, &program.symbols).unwrap().fresh);
        let before = g.program().rule_count();
        assert!(!g.assert_fact(&atom, &program.symbols).unwrap().fresh);
        assert_eq!(g.program().rule_count(), before);
    }

    #[test]
    fn retract_removes_the_fact_rule_only() {
        let mut program = parse_program("p(X) :- e(X). e(a). e(b).").unwrap();
        let options = GroundOptions::default();
        let mut g = IncrementalGrounder::new(&program, &options).unwrap();
        let atom = parse_atom_into("e(a)", &mut program).unwrap();
        let effect = g.retract_fact(&atom, &program.symbols).unwrap();
        assert!(effect.fresh);
        let ea = g.program().find_atom_by_name("e", &["a"]).unwrap();
        assert!(g.program().rules_with_head(ea).is_empty());
        // Retracting again is a no-op.
        assert!(!g.retract_fact(&atom, &program.symbols).unwrap().fresh);
        // The instance p(a) :- e(a) survives but can never fire.
        let pa = g.program().find_atom_by_name("p", &["a"]).unwrap();
        assert_eq!(g.program().rules_with_head(pa).len(), 1);
    }

    #[test]
    fn retract_then_assert_round_trips() {
        let mut program = parse_program("p(X) :- e(X). e(a).").unwrap();
        let options = GroundOptions::default();
        let mut g = IncrementalGrounder::new(&program, &options).unwrap();
        let atom = parse_atom_into("e(a)", &mut program).unwrap();
        assert!(g.retract_fact(&atom, &program.symbols).unwrap().fresh);
        assert!(g.assert_fact(&atom, &program.symbols).unwrap().fresh);
        let ea = g.program().find_atom_by_name("e", &["a"]).unwrap();
        let facts = g
            .program()
            .rules_with_head(ea)
            .iter()
            .filter(|&&r| g.program().rule(r).is_fact())
            .count();
        assert_eq!(facts, 1);
    }

    #[test]
    fn batch_assert_equals_cold_ground_of_concatenated_text() {
        let base_src = "wins(X) :- move(X, Y), not wins(Y). move(a, b).";
        let mut program = parse_program(base_src).unwrap();
        let options = GroundOptions::default();
        let mut g = IncrementalGrounder::new(&program, &options).unwrap();
        let batch: Vec<_> = ["move(b, c)", "move(c, d)", "move(d, e)"]
            .iter()
            .map(|f| parse_atom_into(f, &mut program).unwrap())
            .collect();
        let effect = g.assert_batch(&batch, &program.symbols).unwrap();
        assert!(effect.fresh);
        assert!(effect.new_rules >= 3);
        let cold_src = format!("{base_src} move(b, c). move(c, d). move(d, e).");
        let cold = ground_with(&parse_program(&cold_src).unwrap(), &options).unwrap();
        assert_same_programs(g.program(), &cold);
    }

    #[test]
    fn batch_with_duplicates_and_noops_is_idempotent() {
        let mut program = parse_program("p(X) :- e(X). e(a).").unwrap();
        let options = GroundOptions::default();
        let mut g = IncrementalGrounder::new(&program, &options).unwrap();
        let batch: Vec<_> = ["e(a)", "e(b)", "e(b)"]
            .iter()
            .map(|f| parse_atom_into(f, &mut program).unwrap())
            .collect();
        let effect = g.assert_batch(&batch, &program.symbols).unwrap();
        assert!(effect.fresh);
        let cold = ground_with(
            &parse_program("p(X) :- e(X). e(a). e(b).").unwrap(),
            &options,
        )
        .unwrap();
        assert_same_programs(g.program(), &cold);
    }

    #[test]
    fn budget_error_mid_batch_poisons_the_grounder() {
        // Budget: the base program grounds in 4 rules; the batch would
        // need many more, erroring partway through instantiation.
        let mut program = parse_program("p(X, Y) :- d(X), d(Y). d(a).").unwrap();
        let options = GroundOptions {
            max_ground_rules: 6,
            ..Default::default()
        };
        let mut g = IncrementalGrounder::new(&program, &options).unwrap();
        assert!(g.supports_incremental());
        let batch: Vec<_> = ["d(b)", "d(c)", "d(e)"]
            .iter()
            .map(|f| parse_atom_into(f, &mut program).unwrap())
            .collect();
        let err = g.assert_batch(&batch, &program.symbols);
        assert!(err.is_err());
        assert!(g.is_poisoned());
        assert!(!g.supports_incremental(), "poisoned ⇒ no more warm deltas");
    }

    #[test]
    fn domain_preserving_retraction_stays_warm() {
        let mut program = parse_program("p(X) :- not q(X). r(c). r(d). s(d).").unwrap();
        let options = GroundOptions {
            safety: SafetyPolicy::ActiveDomain,
            ..Default::default()
        };
        let mut g = IncrementalGrounder::new(&program, &options).unwrap();
        // d is still held by s(d): retracting r(d) keeps the domain.
        let atom = parse_atom_into("r(d)", &mut program).unwrap();
        match g.retract_batch(std::slice::from_ref(&atom), &program.symbols) {
            RetractOutcome::Applied(effect) => assert!(effect.fresh),
            RetractOutcome::DomainShrunk => panic!("d is kept alive by s(d)"),
        }
        // Now s(d) holds the last reference: retracting it shrinks.
        let atom = parse_atom_into("s(d)", &mut program).unwrap();
        match g.retract_batch(std::slice::from_ref(&atom), &program.symbols) {
            RetractOutcome::DomainShrunk => {}
            RetractOutcome::Applied(_) => panic!("last reference to d must shrink the domain"),
        }
        // Nothing was applied: the fact rule is still present.
        let sd = g.program().find_atom_by_name("s", &["d"]).unwrap();
        assert!(g
            .program()
            .rules_with_head(sd)
            .iter()
            .any(|&r| g.program().rule(r).is_fact()));
    }

    #[test]
    fn derived_bodyless_rules_are_not_retractable() {
        // `p :- not q.` grounds to the bodyless rule `p.` because q is
        // outside the envelope and the literal is pruned — but p is
        // DERIVED, not an EDB fact, and retracting it must be a no-op.
        let mut program = parse_program("p :- not q. r.").unwrap();
        let options = GroundOptions::default();
        let mut g = IncrementalGrounder::new(&program, &options).unwrap();
        let atom = parse_atom_into("p", &mut program).unwrap();
        let effect = g.retract_fact(&atom, &program.symbols).unwrap();
        assert!(!effect.fresh, "derived conclusions cannot be retracted");
        let p = g.program().find_atom_by_name("p", &[]).unwrap();
        assert_eq!(g.program().rules_with_head(p).len(), 1);

        // The same under the active-domain policy, where the stripped
        // `$dom` guard also empties the body.
        let mut program = parse_program("p(X) :- not q(X). ok :- p(c). r(c).").unwrap();
        let options = GroundOptions {
            safety: SafetyPolicy::ActiveDomain,
            ..Default::default()
        };
        let mut g = IncrementalGrounder::new(&program, &options).unwrap();
        let atom = parse_atom_into("p(c)", &mut program).unwrap();
        match g.retract_batch(std::slice::from_ref(&atom), &program.symbols) {
            RetractOutcome::Applied(effect) => {
                assert!(!effect.fresh, "p(c) was never stated or asserted")
            }
            RetractOutcome::DomainShrunk => panic!("a no-op cannot shrink the domain"),
        }
        let pc = g.program().find_atom_by_name("p", &["c"]).unwrap();
        assert!(
            !g.program().rules_with_head(pc).is_empty(),
            "the derived instance survives"
        );
    }

    #[test]
    fn rule_constants_pin_the_domain() {
        // c occurs syntactically in a non-fact rule: retracting r(c)
        // cannot shrink the domain.
        let mut program = parse_program("p(X) :- not q(X). ok :- p(c). r(c). r(d).").unwrap();
        let options = GroundOptions {
            safety: SafetyPolicy::ActiveDomain,
            ..Default::default()
        };
        let mut g = IncrementalGrounder::new(&program, &options).unwrap();
        let atom = parse_atom_into("r(c)", &mut program).unwrap();
        match g.retract_batch(std::slice::from_ref(&atom), &program.symbols) {
            RetractOutcome::Applied(effect) => assert!(effect.fresh),
            RetractOutcome::DomainShrunk => panic!("c is pinned by `ok :- p(c)`"),
        }
    }

    #[test]
    fn joint_last_references_shrink_even_when_each_alone_would_not() {
        let mut program = parse_program("p(X) :- not q(X). r(d). s(d).").unwrap();
        let options = GroundOptions {
            safety: SafetyPolicy::ActiveDomain,
            ..Default::default()
        };
        let mut g = IncrementalGrounder::new(&program, &options).unwrap();
        let batch: Vec<_> = ["r(d)", "s(d)"]
            .iter()
            .map(|f| parse_atom_into(f, &mut program).unwrap())
            .collect();
        match g.retract_batch(&batch, &program.symbols) {
            RetractOutcome::DomainShrunk => {}
            RetractOutcome::Applied(_) => panic!("the batch drops d's last two references"),
        }
    }

    fn parse_rules(src: &str) -> Program {
        parse_program(src).unwrap()
    }

    #[test]
    fn rule_assert_equals_cold_ground_of_concatenated_text() {
        let base_src = "wins(X) :- move(X, Y), not wins(Y). move(a, b). move(b, a). move(b, c).";
        let program = parse_program(base_src).unwrap();
        let options = GroundOptions::default();
        let mut g = IncrementalGrounder::new(&program, &options).unwrap();

        // A rule joining purely over the existing envelope, plus a rule
        // that recursively extends it.
        let delta_src = "reach(Y) :- move(a, Y). reach(Y) :- move(X, Y), reach(X).";
        let delta = parse_rules(delta_src);
        let effect = match g.assert_rules(&delta.rules, &delta.symbols).unwrap() {
            RuleAssertOutcome::Applied(e) => e,
            RuleAssertOutcome::NeedsCold => panic!("safe rules stay warm"),
        };
        assert!(effect.fresh);
        assert!(effect.new_rules >= 4, "reach(b), reach(a), reach(c) chains");
        let cold_src = format!("{base_src} {delta_src}");
        let cold = ground_with(&parse_program(&cold_src).unwrap(), &options).unwrap();
        assert_same_programs(g.program(), &cold);
    }

    #[test]
    fn rule_assert_enlarging_envelope_resurrects_pruned_negatives() {
        // `not wins(c)` is pruned at load (wins(c) underivable); the new
        // rule derives wins(c) via bonus, so the literal must come back.
        let base_src = "wins(X) :- move(X, Y), not wins(Y). move(b, c). bonus(c).";
        let program = parse_program(base_src).unwrap();
        let options = GroundOptions::default();
        let mut g = IncrementalGrounder::new(&program, &options).unwrap();
        let wb = g.program().find_atom_by_name("wins", &["b"]).unwrap();
        assert!(g
            .program()
            .rule(g.program().rules_with_head(wb)[0])
            .neg
            .is_empty());

        let delta = parse_rules("wins(X) :- bonus(X).");
        let effect = match g.assert_rules(&delta.rules, &delta.symbols).unwrap() {
            RuleAssertOutcome::Applied(e) => e,
            RuleAssertOutcome::NeedsCold => panic!("safe rule stays warm"),
        };
        assert!(effect.resurrected >= 1, "not wins(c) must resurrect");
        let cold_src = format!("{base_src} wins(X) :- bonus(X).");
        let cold = ground_with(&parse_program(&cold_src).unwrap(), &options).unwrap();
        assert_same_programs(g.program(), &cold);
    }

    #[test]
    fn rule_assert_is_idempotent() {
        let base = parse_program("p(X) :- e(X). e(a).").unwrap();
        let options = GroundOptions::default();
        let mut g = IncrementalGrounder::new(&base, &options).unwrap();
        let delta = parse_rules("q(X) :- e(X).");
        match g.assert_rules(&delta.rules, &delta.symbols).unwrap() {
            RuleAssertOutcome::Applied(e) => assert!(e.fresh),
            RuleAssertOutcome::NeedsCold => panic!(),
        }
        let before = g.program().rule_count();
        match g.assert_rules(&delta.rules, &delta.symbols).unwrap() {
            RuleAssertOutcome::Applied(e) => assert!(!e.fresh, "identical rule is a no-op"),
            RuleAssertOutcome::NeedsCold => panic!(),
        }
        assert_eq!(g.program().rule_count(), before);
    }

    #[test]
    fn rule_retract_drops_exactly_its_instances() {
        let base_src = "p(X) :- e(X). q(X) :- e(X). e(a). e(b).";
        let program = parse_program(base_src).unwrap();
        let options = GroundOptions::default();
        let mut g = IncrementalGrounder::new(&program, &options).unwrap();
        let delta = parse_rules("q(X) :- e(X).");
        let effect = match g.retract_rules(&delta.rules, &delta.symbols) {
            RetractOutcome::Applied(e) => e,
            RetractOutcome::DomainShrunk => panic!("no active domain in play"),
        };
        assert!(effect.fresh);
        let qa = g.program().find_atom_by_name("q", &["a"]).unwrap();
        let qb = g.program().find_atom_by_name("q", &["b"]).unwrap();
        assert!(g.program().rules_with_head(qa).is_empty());
        assert!(g.program().rules_with_head(qb).is_empty());
        let pa = g.program().find_atom_by_name("p", &["a"]).unwrap();
        assert_eq!(g.program().rules_with_head(pa).len(), 1, "p untouched");
        // Retracting again is a no-op.
        match g.retract_rules(&delta.rules, &delta.symbols) {
            RetractOutcome::Applied(e) => assert!(!e.fresh),
            RetractOutcome::DomainShrunk => panic!(),
        }
    }

    #[test]
    fn rule_retract_then_assert_round_trips() {
        let base_src = "wins(X) :- move(X, Y), not wins(Y). move(a, b). move(b, a).";
        let program = parse_program(base_src).unwrap();
        let options = GroundOptions::default();
        let mut g = IncrementalGrounder::new(&program, &options).unwrap();
        let delta = parse_rules("wins(X) :- move(X, Y), not wins(Y).");
        match g.retract_rules(&delta.rules, &delta.symbols) {
            RetractOutcome::Applied(e) => assert!(e.fresh),
            RetractOutcome::DomainShrunk => panic!(),
        }
        match g.assert_rules(&delta.rules, &delta.symbols).unwrap() {
            RuleAssertOutcome::Applied(e) => assert!(e.fresh),
            RuleAssertOutcome::NeedsCold => panic!(),
        }
        // The envelope stayed a (here: exact) superset, so the program
        // round-trips to the cold grounding.
        let cold = ground_with(&parse_program(base_src).unwrap(), &options).unwrap();
        assert_same_programs(g.program(), &cold);
    }

    #[test]
    fn unsafe_rule_assert_is_rejected_without_poisoning() {
        let base = parse_program("p(X) :- e(X). e(a).").unwrap();
        let options = GroundOptions::default();
        let mut g = IncrementalGrounder::new(&base, &options).unwrap();
        let delta = parse_rules("bad(X) :- not e(X).");
        let err = g.assert_rules(&delta.rules, &delta.symbols);
        assert!(matches!(err, Err(GroundError::UnsafeRule { .. })));
        assert!(
            !g.is_poisoned(),
            "validation errors leave the grounder clean"
        );
        assert!(g.supports_incremental());
    }

    #[test]
    fn first_unsafe_rule_needs_cold_bootstrap_under_active_domain() {
        // The loaded program is safe, so no active-domain machinery was
        // built; the first unsafe rule cannot be guarded warm.
        let base = parse_program("p(X) :- e(X). e(a).").unwrap();
        let options = GroundOptions {
            safety: SafetyPolicy::ActiveDomain,
            ..Default::default()
        };
        let mut g = IncrementalGrounder::new(&base, &options).unwrap();
        let delta = parse_rules("q(X) :- not p(X).");
        match g.assert_rules(&delta.rules, &delta.symbols).unwrap() {
            RuleAssertOutcome::NeedsCold => {}
            RuleAssertOutcome::Applied(_) => panic!("bootstrap requires a cold re-ground"),
        }
        assert!(g.supports_incremental(), "nothing was applied");
    }

    #[test]
    fn unsafe_rule_assert_stays_warm_when_domain_machinery_exists() {
        let base = parse_program("p(X) :- not q(X). r(c). r(d).").unwrap();
        let options = GroundOptions {
            safety: SafetyPolicy::ActiveDomain,
            ..Default::default()
        };
        let mut g = IncrementalGrounder::new(&base, &options).unwrap();
        let delta = parse_rules("s(X) :- not p(X).");
        match g.assert_rules(&delta.rules, &delta.symbols).unwrap() {
            RuleAssertOutcome::Applied(e) => assert!(e.fresh),
            RuleAssertOutcome::NeedsCold => panic!("the domain machinery exists"),
        }
        let cold_src = "p(X) :- not q(X). r(c). r(d). s(X) :- not p(X).";
        let cold = ground_with(&parse_program(cold_src).unwrap(), &options).unwrap();
        assert_same_programs(g.program(), &cold);
    }

    #[test]
    fn rule_constants_pin_and_release_the_domain() {
        // `ok :- p(c)` pins c; retracting that rule drops the pin, and c
        // has no other reference — the domain shrinks.
        let base_src = "p(X) :- not q(X). ok :- p(c). r(d).";
        let program = parse_program(base_src).unwrap();
        let options = GroundOptions {
            safety: SafetyPolicy::ActiveDomain,
            ..Default::default()
        };
        let mut g = IncrementalGrounder::new(&program, &options).unwrap();
        let delta = parse_rules("ok :- p(c).");
        match g.retract_rules(&delta.rules, &delta.symbols) {
            RetractOutcome::DomainShrunk => {}
            RetractOutcome::Applied(_) => panic!("c's last reference leaves with the rule"),
        }

        // With a fact also holding c, the same retract stays warm.
        let program = parse_program("p(X) :- not q(X). ok :- p(c). r(c). r(d).").unwrap();
        let mut g = IncrementalGrounder::new(&program, &options).unwrap();
        let delta = parse_rules("ok :- p(c).");
        match g.retract_rules(&delta.rules, &delta.symbols) {
            RetractOutcome::Applied(e) => assert!(e.fresh),
            RetractOutcome::DomainShrunk => panic!("c is still held by r(c)"),
        }
    }

    #[test]
    fn rule_and_fact_joint_last_references_shrink_the_domain() {
        // The batch retracts the fact r(c) *and* the rule pinning c: each
        // alone keeps c in the domain, jointly they drop it.
        let program = parse_program("p(X) :- not q(X). ok :- p(c). r(c). r(d).").unwrap();
        let options = GroundOptions {
            safety: SafetyPolicy::ActiveDomain,
            ..Default::default()
        };
        let mut g = IncrementalGrounder::new(&program, &options).unwrap();
        let delta = parse_rules("ok :- p(c). r(c).");
        match g.retract_rules(&delta.rules, &delta.symbols) {
            RetractOutcome::DomainShrunk => {}
            RetractOutcome::Applied(_) => panic!("joint last references must shrink"),
        }
    }

    #[test]
    fn mixed_rule_and_fact_batch_matches_cold_ground() {
        let base_src = "wins(X) :- move(X, Y), not wins(Y). move(a, b).";
        let program = parse_program(base_src).unwrap();
        let options = GroundOptions::default();
        let mut g = IncrementalGrounder::new(&program, &options).unwrap();
        let delta = parse_rules("wins(X) :- bonus(X). bonus(b). move(b, c).");
        match g.assert_rules(&delta.rules, &delta.symbols).unwrap() {
            RuleAssertOutcome::Applied(e) => assert!(e.fresh),
            RuleAssertOutcome::NeedsCold => panic!(),
        }
        let cold_src = format!("{base_src} wins(X) :- bonus(X). bonus(b). move(b, c).");
        let cold = ground_with(&parse_program(&cold_src).unwrap(), &options).unwrap();
        assert_same_programs(g.program(), &cold);
    }

    #[test]
    fn fact_retract_after_rule_retract_keeps_provenance_consistent() {
        // Interleave rule and fact removals so the swap-remove renames
        // cross both maps; the final program must match a cold ground.
        let base_src = "p(X) :- e(X). q(X) :- e(X), not p(X). e(a). e(b). e(c).";
        let program = parse_program(base_src).unwrap();
        let options = GroundOptions::default();
        let mut g = IncrementalGrounder::new(&program, &options).unwrap();
        let rule = parse_rules("p(X) :- e(X).");
        match g.retract_rules(&rule.rules, &rule.symbols) {
            RetractOutcome::Applied(e) => assert!(e.fresh),
            RetractOutcome::DomainShrunk => panic!(),
        }
        let mut program2 = parse_program("").unwrap();
        let ea = parse_atom_into("e(a)", &mut program2).unwrap();
        assert!(g.retract_fact(&ea, &program2.symbols).unwrap().fresh);
        let rule2 = parse_rules("r(X) :- e(X).");
        match g.assert_rules(&rule2.rules, &rule2.symbols).unwrap() {
            RuleAssertOutcome::Applied(e) => assert!(e.fresh),
            RuleAssertOutcome::NeedsCold => panic!(),
        }
        // Cold reference: the envelope kept by the warm path is a stale
        // superset, so compare models not programs — here the q(a)
        // instance survives warm but can never fire (e(a) retracted).
        let qa = g.program().find_atom_by_name("q", &["a"]);
        if let Some(qa) = qa {
            // q(a)'s remaining instances all need e(a), which has no rules.
            for &rid in g.program().rules_with_head(qa) {
                assert!(!g.program().rule(rid).pos.is_empty());
            }
        }
        let rb = g.program().find_atom_by_name("r", &["b"]).unwrap();
        assert!(!g.program().rules_with_head(rb).is_empty());
    }

    #[test]
    fn active_domain_asserts_extend_the_domain() {
        let mut program = parse_program("p(X) :- not q(X). q(a). r(b).").unwrap();
        let options = GroundOptions {
            safety: SafetyPolicy::ActiveDomain,
            ..Default::default()
        };
        let mut g = IncrementalGrounder::new(&program, &options).unwrap();
        let atom = parse_atom_into("r(c)", &mut program).unwrap();
        g.assert_fact(&atom, &program.symbols).unwrap();
        let cold_src = "p(X) :- not q(X). q(a). r(b). r(c).";
        let cold = ground_with(&parse_program(cold_src).unwrap(), &options).unwrap();
        assert_same_programs(g.program(), &cold);
    }
}
