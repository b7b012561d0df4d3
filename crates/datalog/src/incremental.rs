//! Incremental grounding: keep the grounder's working state alive so new
//! EDB facts and rules extend an existing [`GroundProgram`] instead of
//! re-running the whole parse → envelope → instantiate pipeline.
//!
//! [`IncrementalGrounder::new`] grounds a program once:
//!
//! 1. it safety-analyzes and compiles the rules, interns the EDB facts'
//!    terms and atoms straight into the ground program's Herbrand base —
//!    the only base there is — and seeds the envelope with them;
//! 2. it computes the positive envelope (the least model with negation
//!    erased) by semi-naive rounds over an append-only [`Database`];
//! 3. it instantiates every rule by one join over the envelope.
//!
//! It retains everything a later delta needs:
//!
//! * the envelope. It only grows, so what a call added is a **row
//!   range** per relation, starting at the [`Marks`] taken when the call
//!   began. [`IncrementalGrounder::assert_rules`] seeds it with the new
//!   facts and what the new rules derive, and runs the semi-naive rounds
//!   from those rows only ([`extend_positive`]);
//! * the compiled rules, so only rule bodies mentioning a grown relation
//!   are re-joined — with the new rows at one focus position, the rows
//!   from before the call at the positions before it, and all rows at
//!   the positions after it, classic semi-naive discipline. A binding
//!   that matches new rows is so found exactly once, at its first new
//!   row, and a binding with no new row was found by an earlier call:
//!   no instance is ever emitted twice, with no record of past ones;
//! * the negative literals that were **pruned** because their atom lay
//!   outside the envelope (certainly-true at the time). When a delta
//!   brings such an atom into the envelope, the literal is resurrected
//!   onto the instances it was pruned from — without this, a warm
//!   `assert` would silently change the semantics of old instances.
//!
//! Terms are interned read-first into the program's base, so a write
//! that brings no new term or atom copies no segment the base shares
//! with a published snapshot.
//!
//! There is one entry point per direction, and a fact is a rule with an
//! empty body: [`IncrementalGrounder::assert_rules`] and
//! [`IncrementalGrounder::retract_rules`] take any mix of facts and
//! rules, and each call is one **batch**, with one envelope extension,
//! one resurrection pass and one focused re-join however many
//! statements it carries.
//!
//! An asserted fact seeds the envelope as an EDB row. An asserted rule
//! is safety-analyzed and compiled exactly as at load time, its body
//! predicates are indexed, and it is joined **once over the existing
//! envelope** to seed the tuples it can already derive. The batch then
//! runs one semi-naive envelope extension in which old and new rules
//! participate alike. Heads entering the envelope resurrect pruned
//! negative literals on existing instances, old rules are re-joined
//! focused on the new rows, and the new rules are instantiated over the
//! final envelope.
//!
//! A retracted fact loses its bodyless rule; a retracted rule loses
//! exactly the ground instances it emitted (the grounder keeps
//! per-instance provenance). The envelope deliberately stays a stale
//! **superset**: instances whose positive body mentions underivable
//! atoms can never fire, and negative literals kept against a larger
//! envelope just evaluate against atoms that are false — both
//! semantics-preserving, at the cost of a slightly larger ground program
//! than a cold re-ground would produce. Under the active-domain policy
//! the grounder keeps per-term reference counts of facts and of rule
//! constants, so a retract can tell the batches that *actually* shrink
//! the domain (cold re-ground required) from the domain-preserving
//! majority (warm).
//!
//! One caveat: a negative literal over a term that was never materialized
//! (possible only with function symbols under the active-domain policy)
//! cannot be keyed for resurrection. Such programs set
//! [`IncrementalGrounder::supports_incremental`] to `false` and callers
//! should fall back to cold grounding on `assert`. The same flag turns
//! false when a batch errors mid-delta (rule/envelope budget): the
//! grounder is then *poisoned* — the program may be missing consequences
//! — and must be rebuilt cold before further use.
//!
//! The grounder holds the one copy of the live statement set: the EDB
//! facts (by atom) and the source form of every compiled rule, each
//! once, since a load skips repeated statements and a batch skips
//! present ones. [`IncrementalGrounder::source`] renders it as a
//! program; checkpoints serialize it, and cold re-grounds (the fallback
//! where a warm delta is unsound, and recovery from poison) ground it. A
//! batch that errors takes its statements back out before it poisons
//! the grounder, so a failed batch never stays in the set.

use crate::ast::{write_rule, Atom, Program, Rule, Term};
use crate::atoms::{AtomId, ConstId, GroundTerm, HerbrandBase};
use crate::bitset::AtomSet;
use crate::cow::CowVec;
use crate::error::GroundError;
use crate::fx::{FxHashMap, FxHashSet};
use crate::ground::{
    collect_rule_consts, collect_subterms, intern_ground_term, unsafe_variables, GroundOptions,
    SafetyPolicy,
};
use crate::program::{GroundProgram, GroundProgramBuilder, GroundRule, RuleId};
use crate::relation::{Database, Marks, Tuple};
use crate::seminaive::{
    compile_neg_atoms, compile_rule, eval_pat, evaluate_positive, extend_positive, focused_scopes,
    full_scopes, index_bodies, join, try_eval_pat, CompiledAtom, CompiledRule, EvalLimits, Pat,
};
use crate::symbol::Symbol;
use std::collections::hash_map::Entry;
use std::collections::HashSet;
use std::ops::Range;

/// An imported, validated, and compiled `assert_rules` batch — produced
/// without mutating the grounder's working state, so a rejected batch
/// leaves everything untouched.
struct PreparedRules {
    facts: Vec<Atom>,
    rules: Vec<(Rule, CompiledRule, Vec<CompiledAtom>)>,
}

/// What an [`IncrementalGrounder::assert_rules`] /
/// [`IncrementalGrounder::retract_rules`] call did to the ground program.
#[derive(Debug, Clone, Default)]
pub struct DeltaEffect {
    /// `false` when the call was a no-op (every statement already present
    /// / absent).
    pub fresh: bool,
    /// Heads of rules added, removed or patched, facts included — the
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
    /// Ground rule instances added by this call.
    pub new_rules: usize,
    /// Negative literals resurrected onto existing instances.
    pub resurrected: usize,
}

/// Outcome of [`IncrementalGrounder::retract_rules`].
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
    /// The positive envelope, over the term ids of `prog`'s base.
    envelope: Database,
    /// Compiled non-fact rules, parallel arrays (with `src_rules` and
    /// `lists`).
    compiled: Vec<CompiledRule>,
    negs: Vec<Vec<CompiledAtom>>,
    /// The source (AST) form of each compiled rule, expressed against the
    /// grounder's own symbol store — what
    /// [`IncrementalGrounder::retract_rules`] matches structurally, and
    /// with `edb_facts` the statement set
    /// [`IncrementalGrounder::source`] renders.
    src_rules: Vec<Rule>,
    /// The instance list ([`Provenance`]) of each compiled rule.
    lists: Vec<ListId>,
    prog: GroundProgram,
    /// Rules admitted but not yet appended to `prog`; their ids continue
    /// `prog`'s. Appended in one [`GroundProgram::extend_rules`] at the
    /// end of each mutating call (and of the cold load), so an atom
    /// occurring in many new rules has its occurrence list built once
    /// per batch, not once per rule. Nothing reads a pending rule: the
    /// calls resurrect onto existing instances before they admit new ones.
    pending: CowVec<GroundRule>,
    /// Which compiled rule emitted each ground rule, pending ones
    /// included: what [`IncrementalGrounder::retract_rules`] uses to
    /// drop exactly a retracted rule's instances.
    provenance: Provenance,
    /// Buffers [`IncrementalGrounder::admit`] reuses across instances.
    scratch: Scratch,
    /// Pruned negative literals by (pred, args) → instances to patch.
    dropped: FxHashMap<(Symbol, Tuple), Vec<RuleId>>,
    /// The reverse of `dropped`: instance → the keys pruned from it and
    /// not resurrected yet (`rid` is listed under a key in `dropped` iff
    /// the key is listed under `rid` here). A rule move or removal
    /// patches only the moved or removed instance's keys.
    pruned_of: FxHashMap<RuleId, Vec<(Symbol, Tuple)>>,
    precise: bool,
    /// Set when a mutating call errored mid-delta (a rule or envelope
    /// budget hit): the ground program may hold a fact whose consequences
    /// were never instantiated. All further warm updates are refused
    /// ([`IncrementalGrounder::supports_incremental`] turns false) so the
    /// caller re-grounds cold.
    poisoned: bool,
    /// Active-domain bookkeeping (maintained only when `need_dom`): for
    /// every term, how many current EDB facts contribute it
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
    /// function now delegates here). A repeated statement is skipped: the
    /// first occurrence stays, so it is grounded once.
    pub fn new(program: &Program, options: &GroundOptions) -> Result<Self, GroundError> {
        let mut symbols = program.symbols.clone();
        // A grounder's own `source` holds `$dom` but no rule over it; its
        // re-grounds reuse the name instead of interning one per re-ground.
        let mentions = |r: &Rule, p| r.head.pred == p || r.body.iter().any(|l| l.atom.pred == p);
        let dom_pred = match symbols.get("$dom") {
            Some(dom) if !program.rules.iter().any(|r| mentions(r, dom)) => dom,
            _ => symbols.intern_fresh("$dom"),
        };
        let mut g = IncrementalGrounder {
            options: *options,
            dom_pred,
            need_dom: false,
            envelope: Database::new(),
            compiled: Vec::new(),
            negs: Vec::new(),
            src_rules: Vec::new(),
            lists: Vec::new(),
            prog: GroundProgramBuilder::with_symbols(symbols).finish(),
            pending: CowVec::new(),
            provenance: Provenance::default(),
            scratch: Scratch::default(),
            dropped: FxHashMap::default(),
            pruned_of: FxHashMap::default(),
            precise: true,
            poisoned: false,
            dom_fact_refs: FxHashMap::default(),
            dom_rule_consts: FxHashMap::default(),
            edb_facts: FxHashSet::default(),
        };

        // ---- Safety analysis and compilation; EDB facts seed the
        // envelope, in program order. Their argument count bounds the
        // terms they intern when no argument nests a function term, and
        // is only a hint otherwise; their argument lists are kept, to
        // intern the facts as atoms once the envelope bounds the atom
        // count. A fact whose row the envelope already holds, and a rule
        // already compiled, are repeats. -----------------------------------
        let (mut fact_count, mut fact_arity) = (0, 0);
        for rule in program.rules.iter().filter(|r| r.is_fact()) {
            fact_count += 1;
            fact_arity += rule.head.args.len();
        }
        g.prog.base_mut().reserve(fact_arity, 0);
        let mut fact_args: Vec<ConstId> = Vec::with_capacity(fact_arity);
        // Each kept fact's predicate and argument count, in program order.
        let mut facts: Vec<(Symbol, u32)> = Vec::with_capacity(fact_count);
        let mut rules_seen: HashSet<&Rule> = HashSet::new();
        for rule in &program.rules {
            if rule.is_fact() {
                let (base, start) = (g.prog.base_mut(), fact_args.len());
                fact_args.extend(rule.head.args.iter().map(|t| intern_ground_term(t, base)));
                if g.envelope.insert(rule.head.pred, &fact_args[start..]) {
                    facts.push((rule.head.pred, rule.head.args.len() as u32));
                } else {
                    fact_args.truncate(start);
                }
                continue;
            }
            if !rules_seen.insert(rule) {
                continue;
            }
            let guards = g.guards(rule)?;
            g.need_dom |= !guards.is_empty();
            g.negs.push(compile_neg_atoms(rule));
            g.compiled.push(compile_rule(rule, &guards));
            // The grounder's symbol store starts as a clone of the
            // program's, so the rule can be retained verbatim.
            g.src_rules.push(rule.clone());
            g.lists.push(g.provenance.new_list());
        }

        // ---- Active domain facts ----------------------------------------
        // Alongside the domain itself, keep the provenance needed to
        // decide later whether a retraction shrinks it: per-term fact
        // reference counts, and the terms pinned by non-fact rule
        // constants (which no retraction can remove).
        // Each kept fact's predicate and interned arguments, in program
        // order.
        let fact_tuples = || {
            let mut rest = &fact_args[..];
            facts.iter().map(move |&(pred, arity)| {
                let (args, after) = rest.split_at(arity as usize);
                rest = after;
                (pred, args)
            })
        };
        if g.need_dom {
            let mut dom_terms: Vec<ConstId> = Vec::new();
            for (_, args) in fact_tuples() {
                dom_terms.extend(g.count_fact_terms(args, true));
            }
            for rule in &g.src_rules {
                let start = dom_terms.len();
                collect_rule_consts(rule, g.prog.base_mut(), &mut dom_terms);
                for &t in &dom_terms[start..] {
                    *g.dom_rule_consts.entry(t).or_insert(0) += 1;
                }
            }
            dom_terms.sort_unstable();
            dom_terms.dedup();
            if dom_terms.is_empty() {
                return Err(GroundError::EmptyDomain);
            }
            for t in dom_terms {
                g.envelope.insert(dom_pred, &[t]);
            }
        }

        // ---- Positive envelope ------------------------------------------
        let limits = g.limits();
        evaluate_positive(&g.compiled, &mut g.envelope, g.prog.base_mut(), &limits)?;

        // ---- Instantiate over the envelope ------------------------------
        // Every atom, fact or instance, is an envelope row, so the rows
        // bound the atom count. EDB facts are the first atoms, in program
        // order, and become bodyless ground rules (the synthetic domain
        // guard is not part of H).
        g.prog.base_mut().reserve(0, g.envelope.total_tuples());
        g.edb_facts.reserve(facts.len());
        for (pred, args) in fact_tuples() {
            let head = g.prog.intern_atom_ids(pred, args);
            g.edb_facts.insert(head);
            g.push_rule_checked(GroundRule::new(head, vec![], vec![]), FACT)?;
        }
        let mut initial = DeltaEffect::default(); // discarded: nothing to repair yet
        for ix in 0..g.compiled.len() {
            g.instantiate(ix, None, &mut initial)?;
            initial.changed.clear();
            initial.new_edge_targets.clear();
        }
        g.flush_rules();
        Ok(g)
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
    /// — re-ground [`IncrementalGrounder::source`] cold.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// The live statement set as re-parseable text, one statement per
    /// line: [`IncrementalGrounder::source`]'s statements in its order,
    /// the facts written straight from their atoms into one buffer.
    pub fn source_text(&self) -> String {
        let mut out = String::new();
        for atom in self.edb_fact_set().iter() {
            self.prog.write_atom(&mut out, AtomId(atom));
            out.push_str(".\n");
        }
        for rule in &self.src_rules {
            write_rule(&mut out, rule, self.prog.symbols());
            out.push('\n');
        }
        out
    }

    /// The EDB facts as a set, which iterates in atom-id order.
    fn edb_fact_set(&self) -> AtomSet {
        AtomSet::from_iter(self.prog.atom_count(), self.edb_facts.iter().map(|a| a.0))
    }

    /// The live statement set as a program over the grounder's symbol
    /// store: the EDB facts in atom-id order, then the rules in their
    /// retained order, each once. Grounding it cold gives an equivalent
    /// grounder, without the instances a stale envelope keeps.
    pub fn source(&self) -> Program {
        fn term(t: ConstId, base: &HerbrandBase) -> Term {
            match base.term(t) {
                GroundTerm::Const(c) => Term::Const(*c),
                GroundTerm::App(f, args) => {
                    Term::App(*f, args.iter().map(|&a| term(a, base)).collect())
                }
            }
        }
        let base = self.prog.base();
        let mut rules = Vec::with_capacity(self.edb_facts.len() + self.src_rules.len());
        rules.extend(self.edb_fact_set().iter().map(|atom| {
            let (pred, args) = base.atom(AtomId(atom));
            Rule::fact(Atom::new(
                pred,
                args.iter().map(|&t| term(t, base)).collect(),
            ))
        }));
        rules.extend(self.src_rules.iter().cloned());
        Program {
            rules,
            symbols: self.prog.symbols().clone(),
        }
    }

    /// Add imported ground EDB facts: push each new one's bodyless rule
    /// and insert it, then the active-domain members the batch
    /// introduces, into the envelope as seed rows for
    /// [`extend_positive`].
    fn seed_facts(
        &mut self,
        atoms: Vec<Atom>,
        effect: &mut DeltaEffect,
    ) -> Result<(), GroundError> {
        let mut dom_terms: Vec<ConstId> = Vec::new();
        for atom in atoms {
            assert!(atom.is_ground(), "asserted facts must be ground");
            let tuple = self.intern_args(&atom);
            let final_atom = self.prog.intern_atom_ids(atom.pred, &tuple);
            if self.edb_facts.contains(&final_atom) {
                continue; // already an EDB fact — no-op
            }
            effect.fresh = true;
            let fact = GroundRule::new(final_atom, vec![], vec![]);
            // Pushed first: an EDB fact always has its rule, which is how
            // a failed batch finds the facts to take back.
            self.push_rule_checked(fact, FACT)?;
            self.edb_facts.insert(final_atom);
            effect.changed.push(final_atom);
            if self.need_dom {
                // One subterm walk serves both the refcounts and the
                // domain seed below.
                dom_terms.extend(self.count_fact_terms(&tuple, true));
            }
            self.envelope.insert(atom.pred, &tuple);
        }
        dom_terms.sort_unstable();
        dom_terms.dedup();
        for t in dom_terms {
            self.envelope.insert(self.dom_pred, &[t]);
        }
        Ok(())
    }

    /// Intern a ground atom's argument terms.
    fn intern_args(&mut self, atom: &Atom) -> Vec<ConstId> {
        let base = self.prog.base_mut();
        atom.args
            .iter()
            .map(|t| intern_ground_term(t, base))
            .collect()
    }

    /// Warm-retract one imported fact atom, maintaining the resurrection
    /// records and (under the active-domain policy) the term refcounts.
    fn retract_one(&mut self, atom: &Atom, effect: &mut DeltaEffect) {
        assert!(atom.is_ground(), "retract needs a ground atom");
        let Some(final_atom) = self.prog.base().find_ground_atom(atom) else {
            return; // never materialized — nothing to retract
        };
        if !self.edb_facts.remove(&final_atom) {
            // Not an EDB fact. A bodyless *rule* with this head may well
            // exist (a derived instance whose guards were stripped and
            // negative literals pruned) — it is not retractable.
            return;
        }
        // The EDB fact rule, not a derived instance that happens to be
        // bodyless: only instances carry provenance and pruned literals.
        let Some(&rid) = self
            .prog
            .rules_with_head(final_atom)
            .iter()
            .find(|&&r| self.prog.rule(r).is_fact() && !self.provenance.is_instance(r))
        else {
            return; // the fact rule itself is gone — nothing to do
        };
        self.remove_rule(rid);
        if self.need_dom {
            let tuple = self.intern_args(atom);
            self.count_fact_terms(&tuple, false);
        }
        effect.fresh = true;
        effect.changed.push(final_atom);
    }

    /// Adjust the active-domain refcounts for one fact's subterms
    /// (deduplicated within the fact, so assert/retract stay symmetric).
    /// Returns the deduplicated subterm list so callers can reuse the
    /// walk (the assert path feeds it to the domain seed).
    fn count_fact_terms(&mut self, tuple: &[ConstId], add: bool) -> Vec<ConstId> {
        let mut terms = Vec::new();
        for &t in tuple {
            collect_subterms(t, self.prog.base(), &mut terms);
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
    /// this grounder's symbol space (mapping by name, interning as
    /// needed). The grounder's store starts as a clone of the source
    /// program's but the two diverge as soon as either side interns new
    /// names, so assert/retract go through this translation.
    ///
    /// [`SymbolStore`]: crate::symbol::SymbolStore
    pub fn import_rule(&mut self, rule: &Rule, from: &crate::symbol::SymbolStore) -> Rule {
        // Read-first: known names never force a copy of a symbol store
        // shared with a live program snapshot.
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
    /// envelope budget) **poison** it: the program may hold facts whose
    /// consequences were never instantiated,
    /// [`IncrementalGrounder::supports_incremental`] turns false, and the
    /// caller must re-ground [`IncrementalGrounder::source`] cold before
    /// solving again. The batch's statements are out of that source by
    /// then, so the re-ground restores the program from before the batch.
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
        let (first_rule, first_compiled) = (self.prog.rule_count(), self.compiled.len());
        let result = self.assert_rules_inner(prepared);
        self.flush_rules();
        if result.is_err() {
            // An assert removes no rule, so the batch's new facts are the
            // fact rules from `first_rule` on.
            for rid in first_rule as RuleId..self.prog.rule_count() as RuleId {
                if !self.provenance.is_instance(rid) {
                    self.edb_facts.remove(&self.prog.rule(rid).head);
                }
            }
            self.src_rules.truncate(first_compiled);
            self.compiled.truncate(first_compiled);
            self.negs.truncate(first_compiled);
            self.lists.truncate(first_compiled);
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
            let guards = self.guards(&rule)?;
            if !guards.is_empty() && !self.need_dom {
                // The load-time grounding had no unsafe rule, so none of
                // the active-domain machinery (domain facts, refcounts)
                // exists to hang the guards on — bootstrap cold.
                return Ok(None);
            }
            let negs = compile_neg_atoms(&rule);
            let compiled = compile_rule(&rule, &guards);
            prepared.rules.push((rule, compiled, negs));
        }
        Ok(Some(prepared))
    }

    fn assert_rules_inner(&mut self, prepared: PreparedRules) -> Result<DeltaEffect, GroundError> {
        let PreparedRules { facts, rules } = prepared;
        let mut effect = DeltaEffect::default();
        let since = self.envelope.marks();

        // Fact rules in the batch take the exact EDB-fact assert path.
        self.seed_facts(facts, &mut effect)?;

        // Register the new rules. Their constants extend and pin the
        // active domain; the corresponding `$dom` tuples join the seed.
        let first_new = self.compiled.len();
        for (rule, compiled, negs) in rules {
            if self.need_dom {
                let mut consts = Vec::new();
                collect_rule_consts(&rule, self.prog.base_mut(), &mut consts);
                for &t in &consts {
                    *self.dom_rule_consts.entry(t).or_insert(0) += 1;
                    self.envelope.insert(self.dom_pred, &[t]);
                }
            }
            self.src_rules.push(rule);
            self.negs.push(negs);
            self.compiled.push(compiled);
            self.lists.push(self.provenance.new_list());
            effect.fresh = true;
        }
        if !effect.fresh {
            return Ok(effect); // whole batch was a no-op
        }

        // Seed what the new rules can already derive from the envelope as
        // it was before this call: one full join per new rule. The delta
        // rounds below re-join focused on *new* tuples only, so
        // derivations over purely pre-existing tuples must be found
        // here. Their body columns are indexed first: unindexed, the
        // join would scan a whole relation per outer row.
        index_bodies(&mut self.envelope, &self.compiled[first_new..]);
        for ix in first_new..self.compiled.len() {
            let cr = &self.compiled[ix];
            let mut envs: Vec<Vec<Option<ConstId>>> = Vec::new();
            if cr.body.is_empty() {
                // A body-free rule (after compilation) fires once, as in
                // the initial grounding's zero-body pass.
                envs.push(vec![None; cr.nvars]);
            } else {
                let scopes = full_scopes(&self.envelope, &cr.body, Some(&since));
                join(
                    &cr.body,
                    &scopes,
                    cr.nvars,
                    self.prog.base(),
                    &mut |e, _| envs.push(e.to_vec()),
                );
            }
            let (head_pred, head_pats) = (cr.head.pred, cr.head.pats.clone());
            for env in envs {
                let base = self.prog.base_mut();
                let head: Vec<ConstId> =
                    head_pats.iter().map(|p| eval_pat(p, &env, base)).collect();
                self.envelope.insert(head_pred, &head);
            }
        }

        // One envelope delta for the whole batch; old and new rules both
        // participate in the semi-naive rounds.
        self.extend_envelope(&since)?;
        self.resurrect(&since, &mut effect);

        // Instantiate the new rules over the (now extended) envelope …
        for ix in first_new..self.compiled.len() {
            self.instantiate(ix, None, &mut effect)?;
        }
        // … and re-join the pre-existing rules focused on the delta.
        self.rejoin(0..first_new, &since, &mut effect)?;
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
        let mut fact_atoms: Vec<Atom> = Vec::new();
        let mut ixs: Vec<usize> = Vec::new();
        for rule in rules {
            let rule = self.import_rule(rule, from);
            if rule.is_fact() {
                fact_atoms.push(rule.head);
            } else if let Some(ix) = self.src_rules.iter().position(|r| *r == rule) {
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
            self.retract_one(atom, &mut effect);
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
    /// from the active domain? Simulates the batch's fact and
    /// rule-constant refcount decrements, so that several statements
    /// jointly holding a term's last references are detected even though
    /// each alone would not shrink it.
    fn rule_batch_shrinks_domain(&mut self, fact_atoms: &[Atom], ixs: &[usize]) -> bool {
        let mut fact_dec: FxHashMap<ConstId, u32> = FxHashMap::default();
        let mut seen: FxHashSet<AtomId> = FxHashSet::default();
        for atom in fact_atoms {
            let Some(final_atom) = self.prog.base().find_ground_atom(atom) else {
                continue;
            };
            if !self.edb_facts.contains(&final_atom) || !seen.insert(final_atom) {
                continue;
            }
            let tuple = self.intern_args(atom);
            let mut terms = Vec::new();
            for &t in &tuple {
                collect_subterms(t, self.prog.base(), &mut terms);
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
            collect_rule_consts(&rule, self.prog.base_mut(), &mut consts);
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
    /// patching the resurrection records. Costs the rule's own
    /// instances: its instance list names them, and each removal patches
    /// the records of the one rule its swap-remove moves.
    fn remove_compiled_rule(&mut self, ix: usize, effect: &mut DeltaEffect) {
        // 1. Remove the rule's ground instances, last first (each
        //    removal keeps the list naming every remaining instance by
        //    its current id).
        let list = self.lists[ix];
        while let Some(&rid) = self.provenance.instances(list).last() {
            effect.changed.push(self.prog.rule(rid).head);
            self.remove_rule(rid);
        }
        self.provenance.release(list);
        // 2. Release the rule's pin on the active domain.
        if self.need_dom {
            let rule = self.src_rules[ix].clone();
            let mut consts = Vec::new();
            collect_rule_consts(&rule, self.prog.base_mut(), &mut consts);
            for t in consts {
                if let Some(n) = self.dom_rule_consts.get_mut(&t) {
                    *n = n.saturating_sub(1);
                }
            }
        }
        // 3. Swap-remove the compiled arrays. The rule moving into the
        //    freed index keeps its instance list, so no record names it
        //    by index.
        self.compiled.swap_remove(ix);
        self.negs.swap_remove(ix);
        self.src_rules.swap_remove(ix);
        self.lists.swap_remove(ix);
        effect.fresh = true;
    }

    /// Test-only fault injection: mark the grounder poisoned as if a
    /// mutating call had errored mid-delta. Lets integration tests drive
    /// the recovery paths that are unreachable through the public API
    /// (the statement set always re-grounds within the budgets that
    /// admitted it — the warm program is a superset of its cold
    /// re-ground).
    #[doc(hidden)]
    pub fn poison_for_testing(&mut self) {
        self.poisoned = true;
    }

    // ---- internals ------------------------------------------------------

    /// The active-domain guards of `rule`: one `$dom` atom per unsafe
    /// variable, sharing the rule's slot assignment. None for a safe
    /// rule; an error for an unsafe one under [`SafetyPolicy::Reject`].
    fn guards(&self, rule: &Rule) -> Result<Vec<CompiledAtom>, GroundError> {
        let unsafe_vars = unsafe_variables(rule);
        if unsafe_vars.is_empty() {
            return Ok(Vec::new());
        }
        if self.options.safety == SafetyPolicy::Reject {
            let symbols = self.prog.symbols();
            return Err(GroundError::UnsafeRule {
                rule: crate::ast::display_rule(rule, symbols),
                variable: symbols.name(unsafe_vars[0]).to_string(),
            });
        }
        let probe = compile_rule(rule, &[]);
        let slot_of = |v: &Symbol| {
            probe
                .var_names
                .iter()
                .position(|n| n == v)
                .expect("every rule variable has a slot")
        };
        Ok(unsafe_vars
            .iter()
            .map(|v| CompiledAtom {
                pred: self.dom_pred,
                pats: vec![Pat::Var(slot_of(v))],
            })
            .collect())
    }

    /// Remove ground rule `rid`, a fact or an instance, with its
    /// provenance and resurrection records. The swap-remove in
    /// [`GroundProgram::remove_rule`] renames the last rule to `rid`;
    /// its records follow it, touching only its own pruned keys.
    fn remove_rule(&mut self, rid: RuleId) {
        self.forget_pruned(rid);
        self.provenance.remove(rid);
        let Some(moved) = self.prog.remove_rule(rid) else {
            return;
        };
        if let Some(keys) = self.pruned_of.remove(&moved) {
            for key in &keys {
                let rules = self
                    .dropped
                    .get_mut(key)
                    .expect("a recorded pruned literal");
                for r in rules.iter_mut().filter(|r| **r == moved) {
                    *r = rid;
                }
            }
            self.pruned_of.insert(rid, keys);
        }
    }

    /// Drop the resurrection records of instance `rid`, which is about
    /// to be removed.
    fn forget_pruned(&mut self, rid: RuleId) {
        for key in self.pruned_of.remove(&rid).into_iter().flatten() {
            if let Entry::Occupied(mut rules) = self.dropped.entry(key) {
                rules.get_mut().retain(|&r| r != rid);
                if rules.get().is_empty() {
                    rules.remove();
                }
            }
        }
    }

    /// Run the envelope's semi-naive rounds over the rows seeded since
    /// the mark `since`.
    fn extend_envelope(&mut self, since: &Marks) -> Result<(), GroundError> {
        let limits = self.limits();
        extend_positive(
            &self.compiled,
            &mut self.envelope,
            since,
            self.prog.base_mut(),
            &limits,
        )
    }

    fn limits(&self) -> EvalLimits {
        EvalLimits {
            max_tuples: self.options.max_envelope_tuples,
        }
    }

    /// Resurrect the pruned negative literals whose atom entered the
    /// envelope since the mark `since`.
    fn resurrect(&mut self, since: &Marks, effect: &mut DeltaEffect) {
        if self.dropped.is_empty() {
            return;
        }
        for (pred, rel, rows) in self.envelope.grown(since, None) {
            for r in rows {
                let key = (pred, Tuple::from(rel.row(r)));
                let Some(rules) = self.dropped.remove(&key) else {
                    continue;
                };
                let neg_atom = self.prog.intern_atom_ids(pred, &key.1);
                for &rid in &rules {
                    let keys = self.pruned_of.get_mut(&rid).expect("a recorded instance");
                    let at = keys.iter().position(|k| *k == key).expect("a recorded key");
                    keys.swap_remove(at);
                    if keys.is_empty() {
                        self.pruned_of.remove(&rid);
                    }
                    effect.changed.push(self.prog.rule(rid).head);
                    effect.new_edge_targets.push(neg_atom);
                    effect.resurrected += 1;
                }
                self.prog.add_neg_literals(neg_atom, &rules);
            }
        }
    }

    /// Re-join the compiled rules `ixs` focused on the envelope rows
    /// added since the mark `since`, one body position at a time, and
    /// admit the instances found.
    fn rejoin(
        &mut self,
        ixs: Range<usize>,
        since: &Marks,
        effect: &mut DeltaEffect,
    ) -> Result<(), GroundError> {
        for ix in ixs {
            for focus in 0..self.compiled[ix].body.len() {
                self.instantiate(ix, Some((focus, since)), effect)?;
            }
        }
        Ok(())
    }

    /// Join rule `ix` over the whole envelope — or, with a focus
    /// position and a mark, the semi-naive step over the rows added since
    /// the mark ([`focused_scopes`]) — and admit every instance found.
    fn instantiate(
        &mut self,
        ix: usize,
        focus: Option<(usize, &Marks)>,
        effect: &mut DeltaEffect,
    ) -> Result<(), GroundError> {
        let cr = &self.compiled[ix];
        let scopes = match focus {
            None => full_scopes(&self.envelope, &cr.body, None),
            Some((f, since)) => focused_scopes(&self.envelope, &cr.body, f, since, None),
        };
        if scopes.iter().any(|(_, rows)| rows.is_empty()) {
            return Ok(()); // some body atom matches no row
        }
        // The bindings, flat, `nvars` slots each.
        let (nvars, mut envs, mut n) = (cr.nvars, Vec::new(), 0usize);
        join(&cr.body, &scopes, nvars, self.prog.base(), &mut |env, _| {
            envs.extend_from_slice(env);
            n += 1;
        });
        for k in 0..n {
            let head = self.admit(ix, &envs[k * nvars..(k + 1) * nvars], effect)?;
            effect.changed.push(head);
            effect.new_rules += 1;
        }
        Ok(())
    }

    /// Intern the atoms of rule `ix`'s instance under the binding `env`
    /// and append it, recording its provenance, any pruned negative
    /// literals, and the new instance's dependency-edge targets (into
    /// `effect`, for the caller's condensation repair). A negative
    /// literal whose atom is outside the envelope is pruned. Returns the
    /// instance's head atom.
    fn admit(
        &mut self,
        ix: usize,
        env: &[Option<ConstId>],
        effect: &mut DeltaEffect,
    ) -> Result<AtomId, GroundError> {
        let (cr, negs) = (&self.compiled[ix], &self.negs[ix]);
        let Scratch {
            args,
            pos,
            neg,
            pruned,
        } = &mut self.scratch;
        pos.clear();
        neg.clear();
        let resolved = eval_args(&cr.head, env, self.prog.base(), args);
        assert!(resolved, "head terms are in the envelope");
        let head = self.prog.intern_atom_ids(cr.head.pred, args);
        for atom in cr.body.iter().filter(|a| a.pred != self.dom_pred) {
            let resolved = eval_args(atom, env, self.prog.base(), args);
            assert!(resolved, "body terms matched envelope rows");
            pos.push(self.prog.intern_atom_ids(atom.pred, args));
        }
        for atom in negs {
            if !eval_args(atom, env, self.prog.base(), args) {
                // Mentions a term never materialized: pruned, and no
                // later growth can be keyed to resurrect it.
                self.precise = false;
            } else if self.envelope.contains(atom.pred, args) {
                neg.push(self.prog.intern_atom_ids(atom.pred, args));
            } else {
                pruned.push((atom.pred, Tuple::from(&args[..])));
            }
        }
        effect.new_edge_targets.extend_from_slice(pos);
        effect.new_edge_targets.extend_from_slice(neg);
        let rule = GroundRule::from_scratch(head, pos, neg);
        // Exactly as long as it is, and no allocation when empty; the
        // scratch buffer keeps its capacity.
        let pruned = pruned.split_off(0);
        let rid = self.push_rule_checked(rule, self.lists[ix])?;
        for key in &pruned {
            self.dropped.entry(key.clone()).or_default().push(rid);
        }
        if !pruned.is_empty() {
            self.pruned_of.insert(rid, pruned);
        }
        Ok(head)
    }

    /// Queue `rule`, emitted by the compiled rule owning instance list
    /// `list` (or a fact: [`FACT`]), within the rule budget.
    fn push_rule_checked(&mut self, rule: GroundRule, list: ListId) -> Result<RuleId, GroundError> {
        let rid = self.prog.rule_count() + self.pending.len();
        if rid + 1 > self.options.max_ground_rules {
            return Err(GroundError::RuleBudgetExceeded {
                limit: self.options.max_ground_rules,
            });
        }
        self.pending.push(rule);
        let provenance = self.provenance.push(list);
        debug_assert_eq!(provenance as usize, rid, "one provenance entry per rule");
        Ok(rid as RuleId)
    }

    /// Append the pending rules to the program.
    fn flush_rules(&mut self) {
        if !self.pending.is_empty() {
            self.prog.extend_rules(std::mem::take(&mut self.pending));
        }
    }
}

/// Marks a ground rule that no compiled rule emitted: a fact.
const FACT: ListId = ListId::MAX;

/// Names one compiled rule's instance list in [`Provenance`]. It stays
/// the rule's for the rule's life, whatever index the rule moves to.
type ListId = u32;

/// Which compiled rule emitted each ground rule, in both directions: a
/// dense column by rule id naming the instance list the rule is in (and
/// its position there), and one list of instances per compiled rule.
/// Both follow the swap-removes of [`GroundProgram::remove_rule`], so
/// a rule retract walks its own instances only, and each removal
/// patches the entries of the one rule it moves.
#[derive(Default)]
struct Provenance {
    /// Per rule id: its instance list, or [`FACT`].
    list: Vec<ListId>,
    /// Per rule id: its position in that list.
    slot: Vec<u32>,
    /// The instance lists, by list id.
    lists: Vec<Vec<RuleId>>,
    /// Ids of empty lists whose compiled rule was retracted.
    free: Vec<ListId>,
}

impl Provenance {
    /// An empty instance list for a newly compiled rule.
    fn new_list(&mut self) -> ListId {
        self.free.pop().unwrap_or_else(|| {
            self.lists.push(Vec::new());
            (self.lists.len() - 1) as ListId
        })
    }

    /// Give up `list`, emptied by a rule retract, for reuse.
    fn release(&mut self, list: ListId) {
        debug_assert!(self.lists[list as usize].is_empty());
        self.free.push(list);
    }

    /// Record the next rule id, a member of `list` (or a fact).
    fn push(&mut self, list: ListId) -> RuleId {
        let rid = self.list.len() as RuleId;
        let mut slot = 0;
        if list != FACT {
            let members = &mut self.lists[list as usize];
            slot = members.len() as u32;
            members.push(rid);
        }
        self.list.push(list);
        self.slot.push(slot);
        rid
    }

    /// Was `rid` emitted by a compiled rule?
    fn is_instance(&self, rid: RuleId) -> bool {
        self.list[rid as usize] != FACT
    }

    /// The current ids of the rules in `list`.
    fn instances(&self, list: ListId) -> &[RuleId] {
        &self.lists[list as usize]
    }

    /// Follow [`GroundProgram::remove_rule`]`(rid)`: drop `rid`, a fact
    /// or the last member of its list (instances leave only with their
    /// rule, last first), and rename the last rule to `rid`.
    fn remove(&mut self, rid: RuleId) {
        let r = rid as usize;
        if self.list[r] != FACT {
            let last = self.lists[self.list[r] as usize].pop();
            assert_eq!(last, Some(rid), "instances leave last first");
        }
        self.list.swap_remove(r);
        self.slot.swap_remove(r);
        if let Some(&list) = self.list.get(r).filter(|&&l| l != FACT) {
            self.lists[list as usize][self.slot[r] as usize] = rid;
        }
    }
}

/// Reusable buffers for [`IncrementalGrounder::admit`]: an instance's
/// arguments, its positive and negative body before normalizing, and
/// the negative literals pruned from it.
#[derive(Default)]
struct Scratch {
    args: Vec<ConstId>,
    pos: Vec<AtomId>,
    neg: Vec<AtomId>,
    pruned: Vec<(Symbol, Tuple)>,
}

/// `atom`'s arguments under the binding `env`, into `args`; `false` if
/// one names a term never interned.
fn eval_args(
    atom: &CompiledAtom,
    env: &[Option<ConstId>],
    base: &HerbrandBase,
    args: &mut Vec<ConstId>,
) -> bool {
    args.clear();
    for p in &atom.pats {
        match try_eval_pat(p, env, base) {
            Some(v) => args.push(v),
            None => return false,
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ground::{ground_with, GroundOptions};
    use crate::parser::parse_program;

    fn assert_same_programs(a: &GroundProgram, b: &GroundProgram) {
        // Compare as (displayed) rule sets — atom id assignment may differ
        // between a warm and a cold grounding.
        let mut ra: Vec<String> = a.to_string().lines().map(String::from).collect();
        let mut rb: Vec<String> = b.to_string().lines().map(String::from).collect();
        ra.sort();
        rb.sort();
        assert_eq!(ra, rb);
    }

    fn parse_rules(src: &str) -> Program {
        parse_program(src).unwrap()
    }

    /// Assert the facts and rules of `src` through the one assert entry
    /// point. None of these batches brings an unsafe rule, so none needs
    /// the cold bootstrap.
    fn assert_src(g: &mut IncrementalGrounder, src: &str) -> Result<DeltaEffect, GroundError> {
        let delta = parse_rules(src);
        let outcome = g.assert_rules(&delta.rules, &delta.symbols)?;
        match outcome {
            RuleAssertOutcome::Applied(effect) => Ok(effect),
            RuleAssertOutcome::NeedsCold => panic!("no unsafe rule in {src:?}"),
        }
    }

    /// Retract the facts and rules of `src` through the one retract
    /// entry point.
    fn retract_src(g: &mut IncrementalGrounder, src: &str) -> RetractOutcome {
        let delta = parse_rules(src);
        g.retract_rules(&delta.rules, &delta.symbols)
    }

    /// The effect of a retract that must stay warm.
    fn applied(outcome: RetractOutcome) -> DeltaEffect {
        match outcome {
            RetractOutcome::Applied(effect) => effect,
            RetractOutcome::DomainShrunk => panic!("no active-domain shrink in play"),
        }
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
        let program = parse_program(base_src).unwrap();
        let options = GroundOptions::default();
        let mut g = IncrementalGrounder::new(&program, &options).unwrap();
        assert!(g.supports_incremental());

        // move(b, c) resurrects nothing; move(c, d) must resurrect the
        // pruned `not wins(c)` on the wins(b) :- move(b,c) instance.
        for fact in ["move(b, c).", "move(c, d)."] {
            let effect = assert_src(&mut g, fact).unwrap();
            assert!(effect.fresh);
        }
        let cold_src = format!("{base_src} move(b, c). move(c, d).");
        let cold = ground_with(&parse_program(&cold_src).unwrap(), &options).unwrap();
        assert_same_programs(g.program(), &cold);
    }

    #[test]
    fn resurrection_restores_pruned_negative_literals() {
        let program = parse_program("wins(X) :- move(X, Y), not wins(Y). move(b, c).").unwrap();
        let options = GroundOptions::default();
        let mut g = IncrementalGrounder::new(&program, &options).unwrap();
        // Initially `not wins(c)` is pruned: wins(c) has no derivation.
        let wb = g.program().find_atom_by_name("wins", &["b"]).unwrap();
        let rb = g.program().rules_with_head(wb)[0];
        assert!(g.program().rule(rb).neg.is_empty());

        let effect = assert_src(&mut g, "move(c, d).").unwrap();
        assert!(effect.resurrected >= 1);
        let wc = g.program().find_atom_by_name("wins", &["c"]).unwrap();
        let rb = g.program().rules_with_head(wb)[0];
        assert_eq!(g.program().rule(rb).neg.as_ref(), &[wc]);
    }

    #[test]
    fn assert_is_idempotent() {
        let program = parse_program("p(X) :- e(X). e(a).").unwrap();
        let options = GroundOptions::default();
        let mut g = IncrementalGrounder::new(&program, &options).unwrap();
        assert!(assert_src(&mut g, "e(b).").unwrap().fresh);
        let before = g.program().rule_count();
        assert!(!assert_src(&mut g, "e(b).").unwrap().fresh);
        assert_eq!(g.program().rule_count(), before);
    }

    #[test]
    fn retract_removes_the_fact_rule_only() {
        let program = parse_program("p(X) :- e(X). e(a). e(b).").unwrap();
        let options = GroundOptions::default();
        let mut g = IncrementalGrounder::new(&program, &options).unwrap();
        let effect = applied(retract_src(&mut g, "e(a)."));
        assert!(effect.fresh);
        let ea = g.program().find_atom_by_name("e", &["a"]).unwrap();
        assert!(g.program().rules_with_head(ea).is_empty());
        // Retracting again is a no-op.
        assert!(!applied(retract_src(&mut g, "e(a).")).fresh);
        // The instance p(a) :- e(a) survives but can never fire.
        let pa = g.program().find_atom_by_name("p", &["a"]).unwrap();
        assert_eq!(g.program().rules_with_head(pa).len(), 1);
    }

    #[test]
    fn retract_then_assert_round_trips() {
        let program = parse_program("p(X) :- e(X). e(a).").unwrap();
        let options = GroundOptions::default();
        let mut g = IncrementalGrounder::new(&program, &options).unwrap();
        assert!(applied(retract_src(&mut g, "e(a).")).fresh);
        assert!(assert_src(&mut g, "e(a).").unwrap().fresh);
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
        let program = parse_program(base_src).unwrap();
        let options = GroundOptions::default();
        let mut g = IncrementalGrounder::new(&program, &options).unwrap();
        let effect = assert_src(&mut g, "move(b, c). move(c, d). move(d, e).").unwrap();
        assert!(effect.fresh);
        assert!(effect.new_rules >= 3);
        let cold_src = format!("{base_src} move(b, c). move(c, d). move(d, e).");
        let cold = ground_with(&parse_program(&cold_src).unwrap(), &options).unwrap();
        assert_same_programs(g.program(), &cold);
    }

    #[test]
    fn batch_with_duplicates_and_noops_is_idempotent() {
        let program = parse_program("p(X) :- e(X). e(a).").unwrap();
        let options = GroundOptions::default();
        let mut g = IncrementalGrounder::new(&program, &options).unwrap();
        let effect = assert_src(&mut g, "e(a). e(b). e(b).").unwrap();
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
        let program = parse_program("p(X, Y) :- d(X), d(Y). d(a).").unwrap();
        let options = GroundOptions {
            max_ground_rules: 6,
            ..Default::default()
        };
        let mut g = IncrementalGrounder::new(&program, &options).unwrap();
        assert!(g.supports_incremental());
        let err = assert_src(&mut g, "d(b). d(c). d(e).");
        assert!(err.is_err());
        assert!(g.is_poisoned());
        assert!(!g.supports_incremental(), "poisoned ⇒ no more warm deltas");
    }

    /// The lines of `g`'s source program, sorted.
    fn source_lines(g: &IncrementalGrounder) -> Vec<String> {
        let mut lines: Vec<String> = g.source().to_text().lines().map(String::from).collect();
        lines.sort();
        lines
    }

    #[test]
    fn source_lists_each_live_statement_once() {
        let program = parse_program("p(a). q :- not p(b). p(a). q :- not p(b).").unwrap();
        let mut g = IncrementalGrounder::new(&program, &GroundOptions::default()).unwrap();
        assert_eq!(source_lines(&g), ["p(a).", "q :- not p(b)."]);
        assert_src(&mut g, "p(c). p(a). q :- not p(b). r(X) :- p(X).").unwrap();
        assert_eq!(
            source_lines(&g),
            ["p(a).", "p(c).", "q :- not p(b).", "r(X) :- p(X)."]
        );
        applied(retract_src(&mut g, "p(a). q :- not p(b)."));
        applied(retract_src(&mut g, "p(a). q :- not p(b)."));
        assert_eq!(source_lines(&g), ["p(c).", "r(X) :- p(X)."]);
        // Facts come first, then rules.
        assert_eq!(g.source().to_text(), "p(c).\nr(X) :- p(X).\n");
    }

    /// The text written from the atoms is the rendering of the program
    /// built from them, quoted constants and function terms included.
    #[test]
    fn source_text_renders_source() {
        let program = parse_program(
            "p('a b'). p('X'). p(f(g('not'), 42)). q(X) :- p(X), not r(X). r('it\\'s').",
        )
        .unwrap();
        let mut g = IncrementalGrounder::new(&program, &GroundOptions::default()).unwrap();
        assert_src(&mut g, "p(''). s(Y) :- q(Y).").unwrap();
        applied(retract_src(&mut g, "p('X')."));
        let text = g.source_text();
        assert_eq!(text, g.source().to_text());
        assert!(text.starts_with("p('a b').\np(f(g('not'), 42)).\nr('it\\'s').\np('').\n"));
        assert_eq!(parse_program(&text).unwrap().rules.len(), 6);
    }

    #[test]
    fn regrounding_the_source_interns_no_new_name() {
        let program = parse_program("p(X) :- not q(X). q(a). r(b).").unwrap();
        let options = GroundOptions {
            safety: SafetyPolicy::ActiveDomain,
            ..Default::default()
        };
        let g = IncrementalGrounder::new(&program, &options).unwrap();
        let again = IncrementalGrounder::new(&g.source(), &options).unwrap();
        assert_eq!(again.program().symbols().len(), g.program().symbols().len());
        assert_same_programs(again.program(), g.program());
    }

    #[test]
    fn a_failed_batch_takes_its_statements_back() {
        let program = parse_program("p(X, Y) :- d(X), d(Y). d(a).").unwrap();
        let options = GroundOptions {
            max_ground_rules: 6,
            ..Default::default()
        };
        let mut g = IncrementalGrounder::new(&program, &options).unwrap();
        let before = source_lines(&g);
        assert!(assert_src(&mut g, "q(X) :- d(X). d(b). d(c).").is_err());
        assert!(g.is_poisoned());
        assert_eq!(source_lines(&g), before);
        // The recovery re-ground fits the budget that admitted the program.
        let recovered = IncrementalGrounder::new(&g.source(), &options).unwrap();
        assert_eq!(recovered.program().rule_count(), 2);
    }

    #[test]
    fn domain_preserving_retraction_stays_warm() {
        let program = parse_program("p(X) :- not q(X). r(c). r(d). s(d).").unwrap();
        let options = GroundOptions {
            safety: SafetyPolicy::ActiveDomain,
            ..Default::default()
        };
        let mut g = IncrementalGrounder::new(&program, &options).unwrap();
        // d is still held by s(d): retracting r(d) keeps the domain.
        match retract_src(&mut g, "r(d).") {
            RetractOutcome::Applied(effect) => assert!(effect.fresh),
            RetractOutcome::DomainShrunk => panic!("d is kept alive by s(d)"),
        }
        // Now s(d) holds the last reference: retracting it shrinks.
        match retract_src(&mut g, "s(d).") {
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
        let program = parse_program("p :- not q. r.").unwrap();
        let options = GroundOptions::default();
        let mut g = IncrementalGrounder::new(&program, &options).unwrap();
        let effect = applied(retract_src(&mut g, "p."));
        assert!(!effect.fresh, "derived conclusions cannot be retracted");
        let p = g.program().find_atom_by_name("p", &[]).unwrap();
        assert_eq!(g.program().rules_with_head(p).len(), 1);

        // The same under the active-domain policy, where the stripped
        // `$dom` guard also empties the body.
        let program = parse_program("p(X) :- not q(X). ok :- p(c). r(c).").unwrap();
        let options = GroundOptions {
            safety: SafetyPolicy::ActiveDomain,
            ..Default::default()
        };
        let mut g = IncrementalGrounder::new(&program, &options).unwrap();
        match retract_src(&mut g, "p(c).") {
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
        let program = parse_program("p(X) :- not q(X). ok :- p(c). r(c). r(d).").unwrap();
        let options = GroundOptions {
            safety: SafetyPolicy::ActiveDomain,
            ..Default::default()
        };
        let mut g = IncrementalGrounder::new(&program, &options).unwrap();
        match retract_src(&mut g, "r(c).") {
            RetractOutcome::Applied(effect) => assert!(effect.fresh),
            RetractOutcome::DomainShrunk => panic!("c is pinned by `ok :- p(c)`"),
        }
    }

    #[test]
    fn joint_last_references_shrink_even_when_each_alone_would_not() {
        let program = parse_program("p(X) :- not q(X). r(d). s(d).").unwrap();
        let options = GroundOptions {
            safety: SafetyPolicy::ActiveDomain,
            ..Default::default()
        };
        let mut g = IncrementalGrounder::new(&program, &options).unwrap();
        match retract_src(&mut g, "r(d). s(d).") {
            RetractOutcome::DomainShrunk => {}
            RetractOutcome::Applied(_) => panic!("the batch drops d's last two references"),
        }
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
        assert!(applied(retract_src(&mut g, "e(a).")).fresh);
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

    /// The provenance column and the per-rule instance lists agree with
    /// a full recount from the ground program: every rule is an EDB fact
    /// or sits, once, in the list of one live compiled rule at the slot
    /// the column names, with that rule's head predicate; the lists hold
    /// exactly the rules the column puts there; lists of retracted rules
    /// are empty and free.
    fn assert_instance_lists_match_recount(g: &IncrementalGrounder) {
        let p = &g.provenance;
        let rules = g.prog.rule_count();
        assert_eq!((p.list.len(), p.slot.len()), (rules, rules));
        assert!(g.pending.is_empty(), "every call flushes its rules");
        let owner: FxHashMap<ListId, usize> =
            g.lists.iter().enumerate().map(|(ix, &l)| (l, ix)).collect();
        assert_eq!(owner.len(), g.compiled.len(), "one list per compiled rule");
        let mut recount: Vec<Vec<RuleId>> = vec![Vec::new(); p.lists.len()];
        for rid in 0..rules as RuleId {
            let rule = g.prog.rule(rid);
            let list = p.list[rid as usize];
            if list == FACT {
                assert!(
                    rule.is_fact() && g.edb_facts.contains(&rule.head),
                    "an EDB fact"
                );
                continue;
            }
            let ix = owner[&list];
            let (pred, _) = g.prog.base().atom(rule.head);
            assert_eq!(pred, g.compiled[ix].head.pred, "the instance's head");
            assert_eq!(p.lists[list as usize][p.slot[rid as usize] as usize], rid);
            recount[list as usize].push(rid);
        }
        for (list, members) in p.lists.iter().enumerate() {
            let mut sorted = members.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, recount[list], "instance list {list}");
            let live = owner.contains_key(&(list as ListId));
            assert_eq!(p.free.contains(&(list as ListId)), !live);
        }
        let edb_rules = (0..rules as RuleId).filter(|&r| !p.is_instance(r)).count();
        assert_eq!(edb_rules, g.edb_facts.len());
    }

    /// Seeded random rule and fact asserts and retracts keep the
    /// instance lists equal to a recount, and the resurrection records
    /// consistent, across swap-removes of rules and compiled rules.
    #[test]
    fn instance_lists_match_a_recount_under_random_rule_deltas() {
        const RULES: &[&str] = &[
            "a(K) :- e(K), not b(K).",
            "b(K) :- e(K), not a(K), not c(K).",
            "c(K) :- d(K).",
            "w :- e(k0).",
            "x(K) :- a(K), d(K).",
            "y(K) :- e(K), not x(K).",
            "z(K, J) :- e(K), d(J), not w.",
        ];
        for seed in 1..=4u64 {
            let mut rng = seed;
            let mut next = || {
                rng = rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = rng;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                (z ^ (z >> 31)) as usize
            };
            let base = format!("{} {} e(k0). e(k1). e(k2). d(k0).", RULES[0], RULES[2]);
            let program = parse_program(&base).unwrap();
            let mut g = IncrementalGrounder::new(&program, &GroundOptions::default()).unwrap();
            assert_instance_lists_match_recount(&g);
            for _ in 0..200 {
                let statement = match next() % 3 {
                    0 => format!("e(k{}).", next() % 6),
                    1 => format!("d(k{}).", next() % 6),
                    _ => RULES[next() % RULES.len()].to_string(),
                };
                if next() % 2 == 0 {
                    assert_src(&mut g, &statement).unwrap();
                } else {
                    applied(retract_src(&mut g, &statement));
                }
                assert_instance_lists_match_recount(&g);
                assert_pruned_records_consistent(&g);
            }
        }
    }

    /// `dropped` and `pruned_of` are exact inverses over live instances.
    fn assert_pruned_records_consistent(g: &IncrementalGrounder) {
        let mut forward: Vec<(RuleId, &(Symbol, Tuple))> = Vec::new();
        for (key, rules) in &g.dropped {
            assert!(!rules.is_empty(), "no empty record lists");
            for &rid in rules {
                assert!((rid as usize) < g.prog.rule_count(), "a live instance");
                assert!(g.provenance.is_instance(rid), "an instance, not a fact");
                forward.push((rid, key));
            }
        }
        let mut reverse: Vec<(RuleId, &(Symbol, Tuple))> = g
            .pruned_of
            .iter()
            .flat_map(|(&rid, keys)| keys.iter().map(move |k| (rid, k)))
            .collect();
        forward.sort();
        reverse.sort();
        assert_eq!(forward, reverse);
    }

    #[test]
    fn resurrection_follows_instances_moved_by_fact_retracts() {
        // The facts `n0`..`n2` come first and feed no rule; the last rules
        // are the `wins` instances whose `not wins(c)` / `not wins(f)`
        // are pruned. Each retract swap-removes a fact, moving the last
        // instance into the freed slot; the asserts then bring wins(c)
        // and wins(f) into the envelope, resurrecting the literals on
        // the moved instances.
        let rule = "wins(X) :- move(X, Y), not wins(Y).";
        let program =
            parse_program(&format!("{rule} n0. n1. n2. move(b, c). move(e, f).")).unwrap();
        let options = GroundOptions::default();
        let mut g = IncrementalGrounder::new(&program, &options).unwrap();
        assert_eq!(g.pruned_of.len(), 2);
        assert_pruned_records_consistent(&g);
        for fact in ["n0.", "n1.", "n2."] {
            let before = g.program().rule_count();
            assert!(applied(retract_src(&mut g, fact)).fresh);
            assert_eq!(g.program().rule_count(), before - 1);
            assert_pruned_records_consistent(&g);
        }
        let effect = assert_src(&mut g, "move(c, d). move(f, g).").unwrap();
        assert_eq!(effect.resurrected, 2);
        for (head, neg) in [("b", "c"), ("e", "f")] {
            let prog = g.program();
            let h = prog.find_atom_by_name("wins", &[head]).unwrap();
            let n = prog.find_atom_by_name("wins", &[neg]).unwrap();
            assert_eq!(&*prog.rule(prog.rules_with_head(h)[0]).neg, &[n]);
        }
        assert_pruned_records_consistent(&g);
        let cold_src = format!("{rule} move(b, c). move(e, f). move(c, d). move(f, g).");
        let cold = ground_with(&parse_program(&cold_src).unwrap(), &options).unwrap();
        assert_same_programs(g.program(), &cold);
    }

    #[test]
    fn rule_retract_forgets_the_pruned_literals_of_its_instances() {
        // Both rules' instances carry the pruned `not q(a)` / `not q(b)`.
        // Retracting the `p` rule removes its instances, and the
        // swap-removes move `r` instances into their slots. Asserting
        // q(a) must then patch the `r(a)` instance only: never a removed
        // `p` instance, nor whatever rule took over a freed id.
        let kept = "r(X) :- e(X), not q(X), not s(X).";
        let src = format!("p(X) :- e(X), not q(X). {kept} e(a). e(b). e(c).");
        let program = parse_program(&src).unwrap();
        let options = GroundOptions::default();
        let mut g = IncrementalGrounder::new(&program, &options).unwrap();
        assert_pruned_records_consistent(&g);
        let delta = parse_rules("p(X) :- e(X), not q(X).");
        match g.retract_rules(&delta.rules, &delta.symbols) {
            RetractOutcome::Applied(e) => assert!(e.fresh),
            RetractOutcome::DomainShrunk => panic!("no active domain in play"),
        }
        assert_pruned_records_consistent(&g);
        let effect = assert_src(&mut g, "q(a).").unwrap();
        assert_eq!(effect.resurrected, 1, "only r(a) carried `not q(a)`");
        assert_pruned_records_consistent(&g);
        let cold_src = format!("{kept} e(a). e(b). e(c). q(a).");
        let cold = ground_with(&parse_program(&cold_src).unwrap(), &options).unwrap();
        assert_same_programs(g.program(), &cold);
    }

    #[test]
    fn a_new_rule_over_head_only_predicates_joins_through_indexes() {
        // `a` and `b` are head-only at load: no join probes them, so they
        // are not indexed. `x(K) :- a(K), b(K)` probes `b` with K bound
        // by `a` in its seed join; `join` refuses to probe an unindexed
        // column, so this assert panics unless both relations are
        // indexed before that join (unindexed, a scan of all of `b` per
        // row of `a` would make the join quadratic).
        let base_src = "a(K) :- e(K), not b(K). b(K) :- e(K), not a(K), not c(K). \
                        c(K) :- d(K). e(k0). e(k1). e(k2). d(k0).";
        let program = parse_program(base_src).unwrap();
        let options = GroundOptions::default();
        let mut g = IncrementalGrounder::new(&program, &options).unwrap();
        let symbol = |name: &str| g.prog.symbols().get(name).unwrap();
        let (a, b, e) = (symbol("a"), symbol("b"), symbol("e"));
        let indexed =
            |g: &IncrementalGrounder, pred| g.envelope.relation(pred, 1).unwrap().is_indexed(0);
        assert!(indexed(&g, e), "body predicates are indexed at load");
        assert!(
            !indexed(&g, a) && !indexed(&g, b),
            "head-only predicates are not"
        );

        let delta = parse_rules("x(K) :- a(K), b(K).");
        match g.assert_rules(&delta.rules, &delta.symbols).unwrap() {
            RuleAssertOutcome::Applied(effect) => assert_eq!(effect.new_rules, 3),
            RuleAssertOutcome::NeedsCold => panic!("a safe rule stays warm"),
        }
        assert!(indexed(&g, a) && indexed(&g, b));
        let cold_src = format!("{base_src} x(K) :- a(K), b(K).");
        let cold = ground_with(&parse_program(&cold_src).unwrap(), &options).unwrap();
        assert_same_programs(g.program(), &cold);
    }

    #[test]
    fn active_domain_asserts_extend_the_domain() {
        let program = parse_program("p(X) :- not q(X). q(a). r(b).").unwrap();
        let options = GroundOptions {
            safety: SafetyPolicy::ActiveDomain,
            ..Default::default()
        };
        let mut g = IncrementalGrounder::new(&program, &options).unwrap();
        assert_src(&mut g, "r(c).").unwrap();
        let cold_src = "p(X) :- not q(X). q(a). r(b). r(c).";
        let cold = ground_with(&parse_program(cold_src).unwrap(), &options).unwrap();
        assert_same_programs(g.program(), &cold);
    }
}
