//! The unified entry point: one [`Engine`] for all five semantics of the
//! paper, producing reusable [`Session`]s whose grounding survives across
//! queries and fact updates, and a single three-valued [`Model`] type for
//! every result.
//!
//! Theorem 7.8 puts the alternating fixpoint, the well-founded semantics,
//! stable models, Fitting's semantics and perfect models on one lattice of
//! partial models; this module puts them behind one API:
//!
//! ```
//! use afp::{Engine, Semantics, Truth};
//!
//! let engine = Engine::default();
//! let mut session = engine
//!     .load("wins(X) :- move(X, Y), not wins(Y). move(a, b). move(b, a). move(b, c).")
//!     .unwrap();
//! let model = session.solve().unwrap();
//! assert_eq!(model.truth("wins", &["b"]), Truth::True);
//! assert!(model.is_total());
//!
//! // The same session answers under any other semantics …
//! let stable = session.solve_with(Semantics::Stable { max_models: usize::MAX }).unwrap();
//! assert_eq!(stable.stable_models().len(), 1);
//!
//! // … and absorbs new facts without re-parsing or re-grounding.
//! session.assert_facts("move(c, d).").unwrap();
//! let model = session.solve().unwrap();
//! assert_eq!(model.truth("wins", &["c"]), Truth::True);
//! ```
//!
//! ## SCC-stratified solving and warm re-solves
//!
//! Well-founded solves run **per strongly connected component** of the
//! atom dependency graph by default ([`WfStrategy::SccStratified`]): the
//! session condenses the graph once into a reusable
//! [`afp_datalog::Condensation`] and evaluates each component in place
//! against the global partial model
//! ([`afp_semantics::modular_wfs_update`]), so the `O(|H|·|P_H|)`
//! worst case is paid per component, not per program. The global
//! alternating fixpoint ([`WfStrategy::Global`]) remains available for
//! differential testing and is what trace recording (Table I) uses.
//!
//! A [`Session`] keeps the incremental grounder
//! ([`afp_datalog::IncrementalGrounder`]) alive: `assert_facts` /
//! `retract_facts` extend the existing ground program — with **one**
//! envelope delta and one focused re-join pass per batch of facts, not
//! one per fact — instead of starting from text, and `assert_rules` /
//! `retract_rules` do the same for **rules**: a new rule is compiled and
//! joined once over the retained envelope, a retracted rule drops
//! exactly its ground instances, and only a delta the warm machinery
//! cannot express soundly (a real active-domain shrink, the bootstrap of
//! the domain machinery itself) falls back to a single cold re-ground of
//! the mirrored source program. Re-solves are warm in both strategies,
//! via the relevance/splitting argument (atoms that cannot reach any
//! changed atom in the dependency graph keep their truth values):
//!
//! * per-SCC (the default): components disjoint from the changed cone
//!   **copy their stored truth values verbatim** from the previous
//!   solve; only the forward dependency cone of the delta is
//!   re-evaluated;
//! * global: the previous negative fixpoint restricted to unaffected
//!   atoms seeds the under-chain of
//!   [`afp_core::alternating_fixpoint_from`].
//!
//! [`Session::stats`] reports every reuse channel.

use afp_core::afp::{alternating_fixpoint_from, AfpOptions, AfpTrace};
use afp_core::interp::{PartialModel, Truth};
use afp_core::Strategy;
use afp_datalog::ast::{Atom, Program, Rule};
use afp_datalog::atoms::AtomId;
use afp_datalog::bitset::AtomSet;
use afp_datalog::depgraph::{Condensation, CondensationDelta, RuleRename};
use afp_datalog::program::{GroundProgram, GroundRule};
use afp_datalog::{
    GroundOptions, IncrementalGrounder, RetractOutcome, RuleAssertOutcome, SafetyPolicy,
    SymbolStore,
};
use std::sync::Arc;
use std::time::Instant;

use crate::telemetry::{stat_set, SessionPhases};
use crate::Error;

/// How a well-founded solve is evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WfStrategy {
    /// Condense the atom dependency graph and run the alternating
    /// fixpoint per strongly connected component, in place over the
    /// global ground program (`afp_semantics::modular`). The default:
    /// asymptotically faster on programs with many small components, and
    /// the substrate for per-component warm re-solves. Trace recording
    /// ([`EngineBuilder::trace`]) falls back to [`WfStrategy::Global`] —
    /// the alternating sequence of Table I is a global object.
    #[default]
    SccStratified,
    /// The paper's global alternating fixpoint, with the given
    /// under-chain closure strategy. Retained for differential testing
    /// and for trace/Table-I output.
    Global(Strategy),
}

/// Which of the paper's semantics a solve computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Semantics {
    /// The well-founded partial model via the alternating fixpoint
    /// (Sections 5–7; the paper's main object).
    WellFounded {
        /// How the solve is evaluated (per-SCC by default).
        strategy: WfStrategy,
    },
    /// Gelfond–Lifschitz stable models (Sections 2.4, 4). The model
    /// reports the cautious collapse (true in all / false in all /
    /// undefined otherwise) and carries the enumerated models.
    Stable {
        /// Stop enumeration after this many models.
        max_models: usize,
    },
    /// Fitting's Kripke–Kleene three-valued semantics (Section 2.1).
    Fitting,
    /// The perfect model of a locally stratified program (Section 2.3);
    /// solving errs with [`Error::NotLocallyStratified`] otherwise.
    Perfect,
    /// The inflationary fixpoint (Section 2.2): always total, and
    /// deliberately wrong on Example 2.2 — kept for comparison.
    Inflationary,
}

impl Default for Semantics {
    fn default() -> Self {
        Semantics::WellFounded {
            strategy: WfStrategy::default(),
        }
    }
}

impl Semantics {
    /// Kebab-case name, as the CLI spells it.
    pub fn name(&self) -> &'static str {
        match self {
            Semantics::WellFounded { .. } => "wfs",
            Semantics::Stable { .. } => "stable",
            Semantics::Fitting => "fitting",
            Semantics::Perfect => "perfect",
            Semantics::Inflationary => "ifp",
        }
    }
}

/// Configures and builds an [`Engine`].
#[derive(Debug, Clone, Default)]
pub struct EngineBuilder {
    semantics: Semantics,
    ground: GroundOptions,
    record_trace: bool,
    relevance: Vec<String>,
    /// Search-node cap for stable-model enumeration (`None` = unlimited).
    stable_search_nodes: Option<usize>,
}

impl EngineBuilder {
    /// Default semantics for sessions of this engine
    /// ([`Session::solve_with`] can override per solve).
    pub fn semantics(mut self, semantics: Semantics) -> Self {
        self.semantics = semantics;
        self
    }

    /// Well-founded evaluation strategy for this engine's sessions: sets
    /// the default semantics to [`Semantics::WellFounded`] with the given
    /// strategy. Per-SCC evaluation ([`WfStrategy::SccStratified`]) is
    /// already the default; use this to opt back into the global
    /// alternating fixpoint ([`WfStrategy::Global`]).
    pub fn strategy(mut self, strategy: WfStrategy) -> Self {
        self.semantics = Semantics::WellFounded { strategy };
        self
    }

    /// Safety policy for rules with unguarded variables.
    pub fn safety(mut self, policy: SafetyPolicy) -> Self {
        self.ground.safety = policy;
        self
    }

    /// Full grounding options (safety, envelope and rule budgets).
    pub fn ground_options(mut self, options: GroundOptions) -> Self {
        self.ground = options;
        self
    }

    /// Record the alternating sequence (Table I) on well-founded solves.
    pub fn trace(mut self, record: bool) -> Self {
        self.record_trace = record;
        self
    }

    /// Cap the number of search nodes a stable-model enumeration may
    /// expand, mirroring the grounding budgets: when the cap trips, the
    /// solve **succeeds** with the (sound) models found so far and
    /// [`Model::is_complete`] reports `false` — enumeration truncation is
    /// an answer-quality signal, not an error. Unlimited by default.
    pub fn stable_search_budget(mut self, nodes: usize) -> Self {
        self.stable_search_nodes = Some(nodes);
        self
    }

    /// Restrict solving to the dependency cone of these ground query
    /// atoms (written as text, e.g. `"wins(a)"`). Atoms outside the cone
    /// have no rules in the restricted program and report `False`; only
    /// query truth values within the cone are meaningful. Disables warm
    /// seeding.
    pub fn relevance<I, S>(mut self, queries: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.relevance = queries.into_iter().map(Into::into).collect();
        self
    }

    /// Build the engine.
    pub fn build(self) -> Engine {
        Engine { config: self }
    }
}

/// The unified solver front end. An `Engine` is a reusable configuration;
/// [`Engine::load`] produces a [`Session`] per program.
#[derive(Debug, Clone, Default)]
pub struct Engine {
    config: EngineBuilder,
}

impl Engine {
    /// An engine with the given semantics and default options.
    pub fn new(semantics: Semantics) -> Engine {
        Engine::builder().semantics(semantics).build()
    }

    /// Start configuring an engine.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::default()
    }

    /// Parse and ground `src` into a reusable session.
    pub fn load(&self, src: &str) -> Result<Session, Error> {
        let program = afp_datalog::parse_program(src)?;
        self.load_program(program)
    }

    /// Ground an already-parsed program into a reusable session.
    pub fn load_program(&self, program: Program) -> Result<Session, Error> {
        let grounder = IncrementalGrounder::new(&program, &self.config.ground)?;
        Ok(Session {
            config: self.config.clone(),
            grounder: Some(grounder),
            ast: Some(program),
            fixed: None,
            snapshot: None,
            dirty: Vec::new(),
            last_model: None,
            scc_cond: None,
            restricted_conds: Vec::new(),
            stats: SessionStats::default(),
            phases: SessionPhases::default(),
        })
    }

    /// Wrap an existing ground program in a session (no grounder state;
    /// `assert_facts` appends fact rules directly, which is exact for
    /// ground programs).
    pub fn load_ground(&self, ground: GroundProgram) -> Session {
        Session {
            config: self.config.clone(),
            grounder: None,
            ast: None,
            fixed: Some(ground),
            snapshot: None,
            dirty: Vec::new(),
            last_model: None,
            scc_cond: None,
            restricted_conds: Vec::new(),
            stats: SessionStats::default(),
            phases: SessionPhases::default(),
        }
    }

    /// One-shot convenience: load and solve in one call.
    pub fn solve(&self, src: &str) -> Result<Model, Error> {
        self.load(src)?.solve()
    }

    /// Load `src` and wrap the session in a concurrent serving layer:
    /// version 0 is solved and published immediately, then any number of
    /// reader threads pin immutable snapshots while writers submit
    /// coalesced deltas. See [`crate::service::Service`].
    pub fn serve(&self, src: &str) -> Result<crate::service::Service, Error> {
        crate::service::Service::new(self.load(src)?)
    }
}

/// Reuse counters for a [`Session`] — how much work warm re-solves and
/// batched updates skipped.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Total solves.
    pub solves: u64,
    /// Well-founded solves that reused previous conclusions: a non-empty
    /// under-chain seed (global strategy) or at least one copied
    /// component (per-SCC strategy).
    pub warm_solves: u64,
    /// Atoms whose truth values were carried over into the last
    /// well-founded solve (seed atoms or atoms of copied components).
    pub last_seed_size: usize,
    /// Full re-groundings since load. Stays `0` on the pure incremental
    /// path; counts the cold fallbacks the session takes where a warm
    /// delta would be unsound — retractions that shrink the active
    /// domain, asserts after a negative literal over a
    /// never-materialized term was pruned unrecoverably, and recovery
    /// from a mid-delta grounding error.
    pub regrounds: u64,
    /// Facts asserted.
    pub asserts: u64,
    /// Facts retracted.
    pub retracts: u64,
    /// Rules asserted through [`Session::assert_rules`] (facts passed to
    /// that API count here, not under `asserts`).
    pub rule_asserts: u64,
    /// Rules retracted through [`Session::retract_rules`].
    pub rule_retracts: u64,
    /// Condensations built **from scratch** since load. The memoized
    /// condensation is *repaired* in place across warm mutations
    /// (`condensation_repairs`), so this stays at `1` across any warm
    /// delta script — it counts only the first build, restricted-cone
    /// cache misses, and rebuilds after a cold re-ground.
    pub condensation_builds: u64,
    /// In-place condensation repairs ([`Condensation::apply_delta`]):
    /// one per warm mutation batch that found a memoized condensation to
    /// patch instead of evicting it.
    pub condensation_repairs: u64,
    /// Atoms the last condensation repair actually visited (its
    /// localized-Tarjan window) — compare against the program's atom
    /// count to see the repair staying delta-bounded.
    pub last_repair_atoms: usize,
    /// Dependency edges the last condensation repair inspected.
    pub last_repair_edges: usize,
    /// Relevance-restricted solves that found their restricted
    /// condensation in the session's per-restriction cache (keyed by the
    /// resolved query atom set; invalidated by any mutation).
    pub restricted_cond_hits: u64,
    /// Well-founded solves taken by the SCC-stratified path.
    pub scc_solves: u64,
    /// Components in the condensation at the last SCC-stratified solve.
    pub last_components: usize,
    /// Components evaluated by the last SCC-stratified solve.
    pub last_components_evaluated: usize,
    /// Components whose values were copied verbatim by the last
    /// SCC-stratified solve.
    pub last_components_reused: usize,
    /// Envelope delta rounds run by the grounder — one per *batch* of
    /// asserted facts, however many facts the batch carries.
    pub delta_rounds: u64,
    /// Times the session materialized a fresh program snapshot + model —
    /// i.e. the program had actually mutated since the last solve. With
    /// the copy-on-write [`GroundProgram`] storage each of these is a
    /// pointer-copy of the program plus one solve, not a deep clone.
    pub snapshot_clones: u64,
    /// Solves served **entirely** from the memoized snapshot + model of
    /// the previous solve (pure pointer copies — zero deep clones, zero
    /// fixpoint work). The read-path counterpart of `snapshot_clones`.
    pub snapshot_reuses: u64,
}

// Wire serialization of the `stats` section: every field, in the frame's
// historical key order (which predates this impl and differs from the
// struct's declaration order). The exhaustive pattern inside the macro
// means a field added above without a line here is a compile error — a
// counter can no longer silently miss the wire frame.
stat_set!(SessionStats {
    solves,
    warm_solves,
    snapshot_clones,
    snapshot_reuses,
    regrounds,
    asserts,
    retracts,
    rule_asserts,
    rule_retracts,
    delta_rounds,
    condensation_builds,
    condensation_repairs,
    last_repair_atoms,
    last_repair_edges,
    restricted_cond_hits,
    scc_solves,
    last_components,
    last_components_evaluated,
    last_components_reused,
    last_seed_size,
});

/// A loaded program: interned symbols, ground rules, and (for programs
/// loaded from text or AST) the live grounder state for incremental fact
/// updates. Produced by [`Engine::load`].
pub struct Session {
    config: EngineBuilder,
    grounder: Option<IncrementalGrounder>,
    /// Source program retained for the cold re-ground fallback.
    ast: Option<Program>,
    fixed: Option<GroundProgram>,
    /// Copy-on-write snapshot handed to models; invalidated on mutation.
    snapshot: Option<Arc<GroundProgram>>,
    /// Atoms whose rules changed since the last well-founded solve.
    dirty: Vec<AtomId>,
    /// Full model of the last well-founded solve, shared (`Arc`) with the
    /// [`Model`]s handed out for that program version — retention is a
    /// pointer copy, not a bitset clone. The SCC-stratified strategy
    /// copies unaffected components from it; the global strategy seeds
    /// its under-chain from its negative half (`AfpResult` sets
    /// `negative_fixpoint == model.neg`, so nothing else needs storing);
    /// and a re-solve with **no** pending deltas returns it outright
    /// (`SessionStats::snapshot_reuses`).
    last_model: Option<Arc<PartialModel>>,
    /// Condensation of the current ground program. Built (linear time)
    /// on the first SCC solve, then **repaired in place** across warm
    /// mutations ([`Condensation::apply_delta`] over the delta's window)
    /// — only a cold re-ground, which renumbers atom ids, drops it.
    scc_cond: Option<Condensation>,
    /// Condensations of relevance-restricted programs
    /// ([`Session::solve_restricted`]), keyed by the resolved seed atom
    /// set (sorted, deduplicated — compared by value, so equal keys
    /// really mean an identical restricted program); cleared on any
    /// mutation (the restricted cone's rules may change) and bounded to
    /// a handful of entries.
    restricted_conds: Vec<(Vec<AtomId>, Condensation)>,
    stats: SessionStats,
    /// Phase wall-clock accumulated since the last
    /// [`Session::take_phases`] — the raw material of the service's
    /// per-cycle [`crate::telemetry::PhaseBreakdown`].
    phases: SessionPhases,
}

/// Entries kept in the per-restriction condensation cache.
const RESTRICTED_COND_CACHE_CAP: usize = 16;

impl Session {
    /// The current ground program.
    pub fn ground(&self) -> &GroundProgram {
        match &self.grounder {
            Some(g) => g.program(),
            None => self.fixed.as_ref().expect("fixed or grounder"),
        }
    }

    /// Reuse counters.
    pub fn stats(&self) -> &SessionStats {
        &self.stats
    }

    /// Drain the phase wall-clock accumulated since the previous call:
    /// grounding and condensation repair charged at mutation time,
    /// condense/solve at solve time. The service calls this once per
    /// write cycle; callers that never drain simply leave the counters
    /// growing.
    pub fn take_phases(&mut self) -> SessionPhases {
        std::mem::take(&mut self.phases)
    }

    /// The retained source program, rendered as re-parseable text — the
    /// exact statement set the warm deltas have maintained (asserted
    /// facts and rules present, retracted ones absent), one statement
    /// per line. `None` for sessions loaded from a pre-ground program
    /// ([`Engine::load_ground`]), which keep no AST. The [`crate::journal`]
    /// layer serializes checkpoints from this text, so
    /// `Engine::load(source_text())` reconstructs an equivalent session.
    pub fn source_text(&self) -> Option<String> {
        self.ast.as_ref().map(|p| p.to_text())
    }

    /// Assert ground facts, written as source text (e.g.
    /// `"move(c, d). move(d, e)."`). The existing grounding is extended in
    /// place — no re-parse of the program, no envelope recomputation from
    /// scratch, no instance re-join outside the delta — and the whole
    /// batch runs **one** envelope/delta round (or, when a warm delta
    /// would be unsound, at most one cold re-ground), however many facts
    /// it carries.
    pub fn assert_facts(&mut self, facts: &str) -> Result<(), Error> {
        let (atoms, symbols) = parse_fact_batch(facts)?;
        self.stats.asserts += atoms.len() as u64;
        match &mut self.grounder {
            Some(g) => {
                if !g.supports_incremental() {
                    // A pruned negative literal could not be keyed for
                    // resurrection (or the grounder is poisoned by an
                    // earlier mid-delta error); a warm delta could
                    // silently change old instances' semantics. Apply
                    // every edit to the retained AST and re-ground once.
                    return self.cold_update(&atoms, &symbols, true);
                }
                let ground_started = Instant::now();
                let outcome = g.assert_batch(&atoms, &symbols);
                self.phases.ground_ns += ground_started.elapsed().as_nanos() as u64;
                let effect = match outcome {
                    Ok(effect) => effect,
                    Err(e) => {
                        // The grounder is poisoned: some consequence of a
                        // partially applied batch may be missing. Restore
                        // a consistent session by re-grounding cold from
                        // the retained AST, which does not contain the
                        // failed batch; the original error still
                        // surfaces.
                        self.recover_if_poisoned();
                        return Err(e.into());
                    }
                };
                if effect.fresh {
                    self.dirty.extend_from_slice(&effect.changed);
                    self.note_mutation(&effect.changed, &effect.new_edge_targets, &effect.renames);
                    self.stats.delta_rounds += 1;
                }
                // Mirror into the retained AST: a later cold fallback
                // re-grounds from it and must see these facts.
                let ast = self.ast.as_mut().expect("grounder sessions retain the AST");
                for atom in &atoms {
                    apply_fact_to_ast(ast, atom, &symbols, true);
                }
            }
            None => {
                let mut touched: Vec<AtomId> = Vec::new();
                for atom in &atoms {
                    let ground = self.fixed.as_mut().expect("fixed or grounder");
                    let id = intern_ast_atom(ground, atom, &symbols);
                    let already = ground
                        .rules_with_head(id)
                        .iter()
                        .any(|&r| ground.rule(r).is_fact());
                    if !already {
                        ground.push_rule(id, vec![], vec![]);
                        self.dirty.push(id);
                        touched.push(id);
                    }
                }
                if !touched.is_empty() {
                    self.note_mutation(&touched, &[], &[]);
                }
            }
        }
        Ok(())
    }

    /// Retract ground facts previously stated in the program or asserted.
    /// Unknown facts are ignored. The grounding is patched in place; only
    /// a batch that actually shrinks the active domain falls back to a
    /// (single) cold re-ground.
    pub fn retract_facts(&mut self, facts: &str) -> Result<(), Error> {
        let (atoms, symbols) = parse_fact_batch(facts)?;
        self.stats.retracts += atoms.len() as u64;
        match &mut self.grounder {
            Some(g) => {
                if g.is_poisoned() {
                    return self.cold_update(&atoms, &symbols, false);
                }
                let ground_started = Instant::now();
                let outcome = g.retract_batch(&atoms, &symbols);
                self.phases.ground_ns += ground_started.elapsed().as_nanos() as u64;
                match outcome {
                    RetractOutcome::Applied(effect) => {
                        if effect.fresh {
                            self.dirty.extend_from_slice(&effect.changed);
                            self.note_mutation(
                                &effect.changed,
                                &effect.new_edge_targets,
                                &effect.renames,
                            );
                        }
                        // Mirror into the retained AST: a later cold
                        // fallback re-grounds from it and must not
                        // resurrect these facts.
                        let ast = self.ast.as_mut().expect("grounder sessions retain the AST");
                        for atom in &atoms {
                            apply_fact_to_ast(ast, atom, &symbols, false);
                        }
                    }
                    RetractOutcome::DomainShrunk => {
                        // Instances whose only positive subgoal was a
                        // stripped `$dom` guard would wrongly survive a
                        // warm retract. Apply every edit to the retained
                        // AST and re-ground once.
                        return self.cold_update(&atoms, &symbols, false);
                    }
                }
            }
            None => {
                let mut touched: Vec<AtomId> = Vec::new();
                let mut renames: Vec<RuleRename> = Vec::new();
                for atom in &atoms {
                    let ground = self.fixed.as_mut().expect("fixed or grounder");
                    let Some(id) = find_ast_atom(ground, atom, &symbols) else {
                        continue;
                    };
                    let Some(&rid) = ground
                        .rules_with_head(id)
                        .iter()
                        .find(|&&r| ground.rule(r).is_fact())
                    else {
                        continue;
                    };
                    ground.remove_rule_logged(rid, &mut renames);
                    self.dirty.push(id);
                    touched.push(id);
                }
                if !touched.is_empty() {
                    self.note_mutation(&touched, &[], &renames);
                }
            }
        }
        Ok(())
    }

    /// Assert a batch of **rules**, written as source text (facts are
    /// allowed and take the fact path). The existing grounding is
    /// extended in place: each new rule is compiled and joined once over
    /// the retained envelope, the whole batch runs **one** envelope-delta
    /// round, pruned negative literals whose atoms the new rules derive
    /// are resurrected, and only the new/changed heads' forward
    /// dependency cone is re-solved on the next warm solve. Falls back to
    /// at most one cold re-ground where a warm delta would be unsound
    /// (first unsafe rule of a previously-safe active-domain program, or
    /// a grounder that already lost precision).
    pub fn assert_rules(&mut self, rules: &str) -> Result<(), Error> {
        let parsed = afp_datalog::parse_program(rules)?;
        if parsed.rules.is_empty() {
            return Ok(());
        }
        self.stats.rule_asserts += parsed.rules.len() as u64;
        match &mut self.grounder {
            Some(g) => {
                if !g.supports_incremental() {
                    return self.cold_rule_update(&parsed.rules, &parsed.symbols, true);
                }
                let ground_started = Instant::now();
                let outcome = g.assert_rules(&parsed.rules, &parsed.symbols);
                self.phases.ground_ns += ground_started.elapsed().as_nanos() as u64;
                match outcome {
                    Ok(RuleAssertOutcome::Applied(effect)) => {
                        if effect.fresh {
                            self.dirty.extend_from_slice(&effect.changed);
                            self.note_mutation(
                                &effect.changed,
                                &effect.new_edge_targets,
                                &effect.renames,
                            );
                            self.stats.delta_rounds += 1;
                        }
                        // Mirror into the retained AST: a later cold
                        // fallback re-grounds from it and must see these
                        // rules.
                        let ast = self.ast.as_mut().expect("grounder sessions retain the AST");
                        for rule in &parsed.rules {
                            apply_rule_to_ast(ast, rule, &parsed.symbols, true);
                        }
                    }
                    Ok(RuleAssertOutcome::NeedsCold) => {
                        return self.cold_rule_update(&parsed.rules, &parsed.symbols, true);
                    }
                    Err(e) => {
                        self.recover_if_poisoned();
                        return Err(e.into());
                    }
                }
            }
            None => return self.apply_ground_rules(&parsed, true),
        }
        Ok(())
    }

    /// Retract a batch of rules previously stated in the program or
    /// asserted (facts allowed). Rules are matched **structurally**
    /// against their source form — same literal order, same variable
    /// names; unknown rules are ignored. Exactly the rules' ground
    /// instances are dropped in place; only a batch that actually shrinks
    /// the active domain (its facts and rule constants jointly hold some
    /// term's last references) falls back to a single cold re-ground.
    pub fn retract_rules(&mut self, rules: &str) -> Result<(), Error> {
        let parsed = afp_datalog::parse_program(rules)?;
        if parsed.rules.is_empty() {
            return Ok(());
        }
        self.stats.rule_retracts += parsed.rules.len() as u64;
        match &mut self.grounder {
            Some(g) => {
                if g.is_poisoned() {
                    return self.cold_rule_update(&parsed.rules, &parsed.symbols, false);
                }
                let ground_started = Instant::now();
                let outcome = g.retract_rules(&parsed.rules, &parsed.symbols);
                self.phases.ground_ns += ground_started.elapsed().as_nanos() as u64;
                match outcome {
                    RetractOutcome::Applied(effect) => {
                        if effect.fresh {
                            self.dirty.extend_from_slice(&effect.changed);
                            self.note_mutation(
                                &effect.changed,
                                &effect.new_edge_targets,
                                &effect.renames,
                            );
                        }
                        let ast = self.ast.as_mut().expect("grounder sessions retain the AST");
                        for rule in &parsed.rules {
                            apply_rule_to_ast(ast, rule, &parsed.symbols, false);
                        }
                    }
                    RetractOutcome::DomainShrunk => {
                        return self.cold_rule_update(&parsed.rules, &parsed.symbols, false);
                    }
                }
            }
            None => return self.apply_ground_rules(&parsed, false),
        }
        Ok(())
    }

    /// Rule deltas on a grounder-less session ([`Engine::load_ground`]):
    /// exact for ground rules, rejected otherwise.
    fn apply_ground_rules(&mut self, parsed: &Program, assert: bool) -> Result<(), Error> {
        for rule in &parsed.rules {
            if !rule.head.is_ground() || rule.body.iter().any(|l| !l.atom.is_ground()) {
                return Err(Error::NotGroundRule(afp_datalog::ast::display_rule(
                    rule,
                    &parsed.symbols,
                )));
            }
        }
        let mut touched: Vec<AtomId> = Vec::new();
        let mut edge_targets: Vec<AtomId> = Vec::new();
        let mut renames: Vec<RuleRename> = Vec::new();
        for rule in &parsed.rules {
            let ground = self.fixed.as_mut().expect("fixed or grounder");
            let head = intern_ast_atom(ground, &rule.head, &parsed.symbols);
            let mut pos = Vec::new();
            let mut neg = Vec::new();
            for lit in &rule.body {
                let id = intern_ast_atom(ground, &lit.atom, &parsed.symbols);
                if lit.positive {
                    pos.push(id);
                } else {
                    neg.push(id);
                }
            }
            let candidate = GroundRule::new(head, pos.clone(), neg.clone());
            let existing = ground
                .rules_with_head(head)
                .iter()
                .find(|&&r| *ground.rule(r) == candidate)
                .copied();
            match (assert, existing) {
                (true, None) => {
                    edge_targets.extend_from_slice(&pos);
                    edge_targets.extend_from_slice(&neg);
                    ground.push_rule(head, pos, neg);
                    self.dirty.push(head);
                    touched.push(head);
                }
                (false, Some(rid)) => {
                    ground.remove_rule_logged(rid, &mut renames);
                    self.dirty.push(head);
                    touched.push(head);
                }
                _ => {} // idempotent no-op
            }
        }
        if !touched.is_empty() {
            self.note_mutation(&touched, &edge_targets, &renames);
        }
        Ok(())
    }

    /// Apply a batch of rule updates by editing the retained source
    /// program and re-grounding cold **once** — the sound fallback where
    /// a warm rule delta is not. Commit-on-success, like
    /// [`Session::cold_update`].
    fn cold_rule_update(
        &mut self,
        rules: &[Rule],
        from: &SymbolStore,
        assert: bool,
    ) -> Result<(), Error> {
        self.cold_reground(|ast| {
            for rule in rules {
                apply_rule_to_ast(ast, rule, from, assert);
            }
        })
    }

    /// The shared cold-fallback protocol: clone the retained AST, let
    /// `apply_edits` rewrite it, re-ground once, and commit AST +
    /// grounder together. On a re-ground error (e.g. a budget) the
    /// session keeps its previous AST and grounder, so the failed update
    /// leaves no trace a later fallback could resurrect. Atom ids change
    /// on success, so every piece of warm state is dropped.
    fn cold_reground(&mut self, apply_edits: impl FnOnce(&mut Program)) -> Result<(), Error> {
        let mut ast = self.ast.clone().expect("grounder sessions retain the AST");
        apply_edits(&mut ast);
        let ground_started = Instant::now();
        self.grounder = Some(IncrementalGrounder::new(&ast, &self.config.ground)?);
        self.phases.ground_ns += ground_started.elapsed().as_nanos() as u64;
        self.ast = Some(ast);
        self.stats.regrounds += 1;
        self.clear_warm_state();
        Ok(())
    }

    /// Solve under the session's default semantics.
    pub fn solve(&mut self) -> Result<Model, Error> {
        self.solve_with(self.config.semantics)
    }

    /// Solve under an explicit semantics, sharing the session's grounding.
    pub fn solve_with(&mut self, semantics: Semantics) -> Result<Model, Error> {
        let relevance = self.config.relevance.clone();
        self.solve_inner(semantics, &relevance)
    }

    /// Solve under the session's default semantics, restricted to the
    /// dependency cone of these ground query atoms (written as text, e.g.
    /// `"wins(a)"`) — a per-solve version of [`EngineBuilder::relevance`].
    /// Atoms outside the cone have no rules in the restricted program and
    /// report `False`; only query truth values within the cone are
    /// meaningful. The solve is never warm-seeded, and it neither uses
    /// nor evicts the session's cached condensation and memoized model —
    /// a later unrestricted solve picks them up where it left them.
    /// Repeated restricted solves of the **same** query set reuse a
    /// per-restriction condensation cache
    /// ([`SessionStats::restricted_cond_hits`]), invalidated by any
    /// mutation.
    pub fn solve_restricted<I, S>(&mut self, queries: I) -> Result<Model, Error>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let queries: Vec<String> = queries.into_iter().map(Into::into).collect();
        self.solve_inner(self.config.semantics, &queries)
    }

    fn solve_inner(&mut self, semantics: Semantics, relevance: &[String]) -> Result<Model, Error> {
        if self.grounder.as_ref().is_some_and(|g| g.is_poisoned()) {
            // A previous batch errored mid-delta; the current grounding
            // may be missing consequences. Re-ground cold before solving.
            self.recover_from_poison()?;
        }
        self.stats.solves += 1;
        let record_trace = self.config.record_trace;
        let warm_wfs = matches!(semantics, Semantics::WellFounded { .. }) && relevance.is_empty();
        // Memoized read path: a well-founded re-solve with no pending
        // deltas returns the previous snapshot and model as pure pointer
        // copies — zero deep clones, zero fixpoint work. (`snapshot` is
        // cleared by every mutation, so its presence certifies that
        // `last_model` still describes the current program; trace
        // recording recomputes, because the memo keeps no trace.)
        if warm_wfs && !record_trace && self.dirty.is_empty() {
            if let (Some(snap), Some(model)) = (&self.snapshot, &self.last_model) {
                self.stats.snapshot_reuses += 1;
                self.stats.warm_solves += 1;
                return Ok(Model {
                    ground: Arc::clone(snap),
                    semantics,
                    assignment: Arc::clone(model),
                    stable: Vec::new(),
                    complete: true,
                    trace: None,
                });
            }
        }
        // The affected cone of the pending deltas — what both warm paths
        // need — computed before the program is borrowed for solving.
        let affected = warm_wfs.then(|| self.affected_cone());
        let ground = self.snapshot();
        let restricted = self.restrict_for_relevance(relevance, &ground)?;
        let solve_on: &GroundProgram = restricted.as_ref().map(|(p, _)| p).unwrap_or(&ground);

        let mut trace: Option<AfpTrace> = None;
        let mut stable: Vec<AtomSet> = Vec::new();
        let mut complete = true;
        let assignment = match semantics {
            // Trace recording needs the global alternating sequence, so
            // `SccStratified` falls back to the global path there.
            Semantics::WellFounded {
                strategy: WfStrategy::SccStratified,
            } if !record_trace => {
                let condense_started = Instant::now();
                let cond = match &restricted {
                    None => {
                        // Reuse the memoized condensation of the full
                        // program — kept current across mutations by
                        // in-place repair, so its presence means it
                        // condenses exactly the program being solved.
                        match self.scc_cond.take() {
                            Some(cond) => cond,
                            None => {
                                self.stats.condensation_builds += 1;
                                Condensation::of(solve_on)
                            }
                        }
                    }
                    Some((_, key)) => {
                        // A restricted solve condenses the *restricted*
                        // program; the session's full-program memo must
                        // survive untouched, but repeated solves of the
                        // same restriction hit their own cache (cleared
                        // on any mutation).
                        match self.restricted_conds.iter().position(|(k, _)| k == key) {
                            Some(i) => {
                                self.stats.restricted_cond_hits += 1;
                                self.restricted_conds.swap_remove(i).1
                            }
                            None => {
                                self.stats.condensation_builds += 1;
                                Condensation::of(solve_on)
                            }
                        }
                    }
                };
                self.phases.condense_ns += condense_started.elapsed().as_nanos() as u64;
                let previous = match (&restricted, &self.last_model, &affected) {
                    (None, Some(model), Some(aff)) => Some((model.as_ref(), aff)),
                    _ => None,
                };
                let solve_started = Instant::now();
                let result = afp_semantics::modular_wfs_update(solve_on, &cond, previous);
                self.phases.solve_ns += solve_started.elapsed().as_nanos() as u64;
                self.stats.scc_solves += 1;
                self.stats.last_components = result.components;
                self.stats.last_components_evaluated = result.evaluated;
                self.stats.last_components_reused = result.reused;
                self.stats.last_seed_size = result.reused_atoms;
                if result.reused > 0 {
                    self.stats.warm_solves += 1;
                }
                let model = Arc::new(result.model);
                match &restricted {
                    None => {
                        self.scc_cond = Some(cond);
                        // Retention is a pointer copy: the session and the
                        // returned `Model` share one allocation.
                        self.last_model = Some(Arc::clone(&model));
                        self.dirty.clear();
                    }
                    Some((_, key)) => {
                        if self.restricted_conds.len() >= RESTRICTED_COND_CACHE_CAP {
                            self.restricted_conds.remove(0); // oldest entry
                        }
                        self.restricted_conds.push((key.clone(), cond));
                    }
                }
                model
            }
            Semantics::WellFounded { strategy } => {
                let chain = match strategy {
                    WfStrategy::Global(chain) => chain,
                    WfStrategy::SccStratified => Strategy::default(),
                };
                let seed = match (&self.last_model, &affected, &restricted) {
                    (Some(old), Some(aff), None) => AtomSet::from_iter(
                        solve_on.atom_count(),
                        old.neg.iter().filter(|&a| !aff.contains(a)),
                    ),
                    _ => solve_on.empty_set(),
                };
                if !seed.is_empty() {
                    self.stats.warm_solves += 1;
                }
                self.stats.last_seed_size = seed.count();
                let solve_started = Instant::now();
                let result = alternating_fixpoint_from(
                    solve_on,
                    &AfpOptions {
                        strategy: chain,
                        record_trace,
                    },
                    &seed,
                );
                self.phases.solve_ns += solve_started.elapsed().as_nanos() as u64;
                trace = result.trace;
                let model = Arc::new(result.model);
                if restricted.is_none() {
                    self.last_model = Some(Arc::clone(&model));
                    self.dirty.clear();
                }
                model
            }
            Semantics::Stable { max_models } => {
                let result = afp_semantics::enumerate_stable(
                    solve_on,
                    &afp_semantics::EnumerateOptions {
                        max_models,
                        max_nodes: self.config.stable_search_nodes.unwrap_or(usize::MAX),
                    },
                );
                complete = result.complete;
                stable = result.models;
                Arc::new(afp_semantics::cautious_consequences(
                    &stable,
                    solve_on.atom_count(),
                ))
            }
            Semantics::Fitting => Arc::new(afp_semantics::fitting_model(solve_on).model),
            Semantics::Perfect => match afp_semantics::perfect_model(solve_on) {
                Some(r) => Arc::new(r.model),
                None => return Err(Error::NotLocallyStratified),
            },
            Semantics::Inflationary => {
                let r = afp_semantics::inflationary_fixpoint(solve_on);
                let neg = r.model.complement();
                Arc::new(PartialModel::new(r.model, neg))
            }
        };
        Ok(Model {
            ground: restricted.map(|(p, _)| Arc::new(p)).unwrap_or(ground),
            semantics,
            assignment,
            stable,
            complete,
            trace,
        })
    }

    /// Apply a batch of fact updates by editing the retained source
    /// program and re-grounding cold **once** — the sound fallback where
    /// a warm delta is not (see `assert_facts` / `retract_facts`).
    /// Commit-on-success; see [`Session::cold_reground`].
    fn cold_update(
        &mut self,
        atoms: &[Atom],
        from: &SymbolStore,
        assert: bool,
    ) -> Result<(), Error> {
        self.cold_reground(|ast| {
            for atom in atoms {
                apply_fact_to_ast(ast, atom, from, assert);
            }
        })
    }

    /// Re-ground cold from the retained AST after a mid-delta grounding
    /// error poisoned the grounder. The AST never contains a failed
    /// batch (mirroring happens only after the grounder succeeds), so a
    /// successful recovery restores exactly the last consistent program
    /// state. On failure the poisoned grounder is kept **as is** — its
    /// `is_poisoned` flag stays set, so every later solve re-attempts
    /// recovery (and surfaces the error) before trusting the grounding;
    /// no path hands a half-extended program to a fixpoint computation.
    fn recover_from_poison(&mut self) -> Result<(), Error> {
        let ast = self.ast.clone().expect("grounder sessions retain the AST");
        self.grounder = Some(IncrementalGrounder::new(&ast, &self.config.ground)?);
        self.stats.regrounds += 1;
        self.clear_warm_state();
        Ok(())
    }

    /// Recovery entry point for the update error paths, where the
    /// *original* batch error is about to surface and a recovery failure
    /// must not mask it. Explicitly drops the recovery error: the
    /// grounder then stays poisoned and [`Session::solve_with`] (which
    /// checks the flag first) re-attempts recovery — surfacing the
    /// grounding error instead of solving over a half-extended program.
    fn recover_if_poisoned(&mut self) {
        if self.grounder.as_ref().is_some_and(|g| g.is_poisoned())
            && self.recover_from_poison().is_err()
        {
            debug_assert!(
                self.grounder.as_ref().is_some_and(|g| g.is_poisoned()),
                "a failed recovery must leave the poison flag set"
            );
        }
    }

    /// Test-only fault injection: poison the live grounder and replace
    /// the session's grounding budgets, so the recovery re-ground can be
    /// driven into errors that are unreachable through the public API
    /// (the retained AST always re-grounds within the budgets that
    /// admitted it — see the double-fault regression test).
    #[doc(hidden)]
    pub fn inject_grounder_fault_for_testing(&mut self, options: GroundOptions) {
        self.config.ground = options;
        if let Some(g) = self.grounder.as_mut() {
            g.poison_for_testing();
        }
    }

    /// The program mutated in place: models must re-snapshot, the
    /// per-restriction condensation cache is stale, and the memoized
    /// condensation is **repaired** from the delta instead of dropped —
    /// `touched`, `edge_targets`, and `renames` are the
    /// [`CondensationDelta`] contract (heads whose rule set changed,
    /// targets of possibly-new dependency edges, swap-remove rule-id
    /// renames in order). Warm models stay — the `dirty` set records
    /// what they may no longer be right about.
    fn note_mutation(
        &mut self,
        touched: &[AtomId],
        edge_targets: &[AtomId],
        renames: &[RuleRename],
    ) {
        self.snapshot = None;
        self.restricted_conds.clear();
        if let Some(mut cond) = self.scc_cond.take() {
            let repair_started = Instant::now();
            let prog = match &self.grounder {
                Some(g) => g.program(),
                None => self.fixed.as_ref().expect("fixed or grounder"),
            };
            let repair = cond.apply_delta(
                prog,
                &CondensationDelta {
                    touched,
                    new_edge_targets: edge_targets,
                    renames,
                },
            );
            self.phases.repair_ns += repair_started.elapsed().as_nanos() as u64;
            self.stats.condensation_repairs += 1;
            self.stats.last_repair_atoms = repair.atoms_visited;
            self.stats.last_repair_edges = repair.edges_visited;
            // Differential safety net: in debug builds every repair is
            // checked against a from-scratch build (same partition, same
            // rule sets, both orders topologically valid).
            #[cfg(debug_assertions)]
            {
                let fresh = Condensation::of(prog);
                debug_assert!(
                    cond.same_decomposition(&fresh) && cond.is_consistent_with(prog),
                    "condensation repair must reproduce the from-scratch decomposition"
                );
            }
            self.scc_cond = Some(cond);
        }
    }

    /// Atom ids changed (cold re-ground): drop every piece of warm state.
    fn clear_warm_state(&mut self) {
        self.last_model = None;
        self.scc_cond = None;
        self.restricted_conds.clear();
        self.dirty.clear();
        self.snapshot = None;
    }

    /// The forward dependency cone of the pending deltas: the dirty atoms
    /// closed under "some rule's body mentions it → the rule's head".
    /// Everything outside provably keeps its truth value (the
    /// relevance/splitting argument), which is what both warm re-solve
    /// paths rely on.
    fn affected_cone(&self) -> AtomSet {
        let prog = self.ground();
        let n = prog.atom_count();
        let mut affected = AtomSet::empty(n);
        let mut queue: Vec<AtomId> = Vec::new();
        for &a in &self.dirty {
            if affected.insert(a.0) {
                queue.push(a);
            }
        }
        while let Some(atom) = queue.pop() {
            for &rid in prog
                .rules_with_pos(atom)
                .iter()
                .chain(prog.rules_with_neg(atom).iter())
            {
                let head = prog.rule(rid).head;
                if affected.insert(head.0) {
                    queue.push(head);
                }
            }
        }
        affected
    }

    fn snapshot(&mut self) -> Arc<GroundProgram> {
        if self.snapshot.is_none() {
            // `GroundProgram` storage is copy-on-write: this clone is a
            // handful of reference-count bumps however large the program,
            // and later session mutations copy only the segments they
            // touch — models keep an immutable view for free.
            self.snapshot = Some(Arc::new(self.ground().clone()));
            self.stats.snapshot_clones += 1;
        }
        Arc::clone(self.snapshot.as_ref().expect("just set"))
    }

    /// Apply a relevance restriction (the engine's configured one or a
    /// [`Session::solve_restricted`] query set). Queries that fail to
    /// parse are an error; queries naming atoms the grounder never
    /// materialized resolve to nothing (such atoms are false in every
    /// semantics, and the empty cone answers exactly that). Alongside the
    /// restricted program, returns the resolved seed atom set (sorted,
    /// deduplicated) — the key of the per-restriction condensation cache
    /// (atom ids are stable between mutations, and any mutation clears
    /// the cache, so an equal seed set means an identical restricted
    /// program).
    fn restrict_for_relevance(
        &self,
        queries: &[String],
        ground: &GroundProgram,
    ) -> Result<Option<(GroundProgram, Vec<AtomId>)>, Error> {
        if queries.is_empty() {
            return Ok(None);
        }
        let mut seeds = relevance_seeds(queries, ground)?;
        seeds.sort_unstable();
        seeds.dedup();
        let restricted = afp_core::relevance::restrict_to_query(ground, &seeds);
        Ok(Some((restricted, seeds)))
    }
}

/// Parse query atoms (text) and resolve them against a ground program.
/// Queries naming atoms the grounder never materialized resolve to
/// nothing — such atoms are false in every semantics, and the empty cone
/// answers exactly that.
fn relevance_seeds(queries: &[String], ground: &GroundProgram) -> Result<Vec<AtomId>, Error> {
    let mut seeds: Vec<AtomId> = Vec::new();
    for query in queries {
        let mut tmp = Program::new();
        let atom = afp_datalog::parser::parse_atom_into(query, &mut tmp)?;
        if let Some(id) = find_ast_atom(ground, &atom, &tmp.symbols) {
            seeds.push(id);
        }
    }
    Ok(seeds)
}

/// Solve the well-founded model of `ground` restricted to the dependency
/// cone of `queries` — the session-free, read-side counterpart of
/// [`Session::solve_restricted`], used by [`crate::service::ModelSnapshot`]
/// to answer relevance-restricted subqueries against a pinned immutable
/// snapshot from any reader thread. Atoms outside the cone have no rules
/// in the restricted program and report `False`; only query truth values
/// within the cone are meaningful.
pub(crate) fn restricted_wfs_model(
    ground: &GroundProgram,
    queries: &[String],
) -> Result<Model, Error> {
    let seeds = relevance_seeds(queries, ground)?;
    let restricted = afp_core::relevance::restrict_to_query(ground, &seeds);
    let cond = Condensation::of(&restricted);
    let result = afp_semantics::modular_wfs_with(&restricted, &cond);
    Ok(Model {
        ground: Arc::new(restricted),
        semantics: Semantics::WellFounded {
            strategy: WfStrategy::SccStratified,
        },
        assignment: Arc::new(result.model),
        stable: Vec::new(),
        complete: true,
        trace: None,
    })
}

/// Parse update text into a batch of ground fact atoms, rejecting
/// anything that is not a ground fact. All facts are validated before any
/// is applied, so a rejected batch leaves the session untouched.
pub(crate) fn parse_fact_batch(facts: &str) -> Result<(Vec<Atom>, SymbolStore), Error> {
    let parsed = afp_datalog::parse_program(facts)?;
    for rule in &parsed.rules {
        if !rule.is_fact() || !rule.head.is_ground() {
            return Err(Error::NotAFact(afp_datalog::ast::display_rule(
                rule,
                &parsed.symbols,
            )));
        }
    }
    let atoms = parsed.rules.into_iter().map(|r| r.head).collect();
    Ok((atoms, parsed.symbols))
}

/// Add or remove a ground fact in a retained source program. Idempotent
/// in both directions; used by the warm update paths (to keep the AST in
/// lockstep with the grounder) and by the cold fallback itself.
fn apply_fact_to_ast(
    ast: &mut Program,
    atom: &afp_datalog::ast::Atom,
    from: &afp_datalog::SymbolStore,
    assert: bool,
) {
    let imported = afp_datalog::ast::import_atom(&mut ast.symbols, atom, from);
    if assert {
        let present = ast.rules.iter().any(|r| r.is_fact() && r.head == imported);
        if !present {
            ast.push(afp_datalog::ast::Rule::fact(imported));
        }
    } else {
        ast.rules.retain(|r| !(r.is_fact() && r.head == imported));
    }
}

/// Add or remove a rule in a retained source program. Idempotent in both
/// directions (rules are matched structurally); used by the warm rule
/// delta paths to keep the AST in lockstep with the grounder and by the
/// cold fallback itself.
fn apply_rule_to_ast(
    ast: &mut Program,
    rule: &Rule,
    from: &afp_datalog::SymbolStore,
    assert: bool,
) {
    let imported = afp_datalog::ast::import_rule(&mut ast.symbols, rule, from);
    if assert {
        if !ast.rules.contains(&imported) {
            ast.push(imported);
        }
    } else {
        ast.rules.retain(|r| *r != imported);
    }
}

/// Intern an AST atom (expressed against `from`) into a ground program,
/// read-first: an atom whose names are all known copies no shared
/// storage.
fn intern_ast_atom(
    ground: &mut GroundProgram,
    atom: &afp_datalog::ast::Atom,
    from: &afp_datalog::SymbolStore,
) -> AtomId {
    fn intern_term(
        t: &afp_datalog::ast::Term,
        ground: &mut GroundProgram,
        from: &afp_datalog::SymbolStore,
    ) -> afp_datalog::atoms::ConstId {
        match t {
            afp_datalog::ast::Term::Const(c) => {
                let sym = ground.intern_symbol(from.name(*c));
                ground.intern_const(sym)
            }
            afp_datalog::ast::Term::App(f, args) => {
                let ids: Vec<_> = args.iter().map(|a| intern_term(a, ground, from)).collect();
                let sym = ground.intern_symbol(from.name(*f));
                ground.intern_term(afp_datalog::atoms::GroundTerm::App(
                    sym,
                    ids.into_boxed_slice(),
                ))
            }
            afp_datalog::ast::Term::Var(_) => unreachable!("caller checked groundness"),
        }
    }
    let args: Vec<_> = atom
        .args
        .iter()
        .map(|t| intern_term(t, ground, from))
        .collect();
    let pred = ground.intern_symbol(from.name(atom.pred));
    ground.intern_atom_ids(pred, &args)
}

/// Resolve an AST atom against a ground program without interning.
fn find_ast_atom(
    ground: &GroundProgram,
    atom: &afp_datalog::ast::Atom,
    from: &afp_datalog::SymbolStore,
) -> Option<AtomId> {
    fn find_term(
        t: &afp_datalog::ast::Term,
        ground: &GroundProgram,
        from: &afp_datalog::SymbolStore,
    ) -> Option<afp_datalog::atoms::ConstId> {
        match t {
            afp_datalog::ast::Term::Const(c) => {
                let sym = ground.symbols().get(from.name(*c))?;
                ground
                    .base()
                    .find_term(&afp_datalog::atoms::GroundTerm::Const(sym))
            }
            afp_datalog::ast::Term::App(f, args) => {
                let ids: Option<Vec<_>> = args.iter().map(|a| find_term(a, ground, from)).collect();
                let sym = ground.symbols().get(from.name(*f))?;
                ground
                    .base()
                    .find_term(&afp_datalog::atoms::GroundTerm::App(
                        sym,
                        ids?.into_boxed_slice(),
                    ))
            }
            afp_datalog::ast::Term::Var(_) => None,
        }
    }
    let args: Option<Vec<_>> = atom
        .args
        .iter()
        .map(|t| find_term(t, ground, from))
        .collect();
    let pred = ground.symbols().get(from.name(atom.pred))?;
    ground.base().find_atom(pred, &args?)
}

/// A solved program under one semantics: a three-valued assignment over
/// the ground atoms, plus semantics-specific extras (stable model list,
/// alternating-sequence trace). All five [`Semantics`] produce this type.
pub struct Model {
    pub(crate) ground: Arc<GroundProgram>,
    pub(crate) semantics: Semantics,
    /// Shared with the session's memo (and, through `afp::service`, with
    /// every pinned snapshot of this program version).
    pub(crate) assignment: Arc<PartialModel>,
    pub(crate) stable: Vec<AtomSet>,
    pub(crate) complete: bool,
    pub(crate) trace: Option<AfpTrace>,
}

impl Model {
    /// Three-valued truth of `pred(args…)`. Atoms never materialized
    /// during grounding are false (they have no derivation under any of
    /// the five semantics).
    pub fn truth(&self, pred: &str, args: &[&str]) -> Truth {
        match self.ground.find_atom_by_name(pred, args) {
            Some(id) => self.truth_of(id),
            None => Truth::False,
        }
    }

    /// Three-valued truth of an interned atom.
    pub fn truth_of(&self, atom: AtomId) -> Truth {
        self.assignment.truth(atom.0)
    }

    /// The semantics this model was computed under.
    pub fn semantics(&self) -> Semantics {
        self.semantics
    }

    /// Is every atom decided? (For the well-founded semantics a total
    /// model is also the unique stable model — Section 5.)
    pub fn is_total(&self) -> bool {
        self.assignment.is_total()
    }

    /// True atoms, rendered lazily in atom-id order (grounding order, not
    /// alphabetical — collect and sort for display stability).
    pub fn true_atoms(&self) -> impl Iterator<Item = String> + '_ {
        self.assignment
            .pos
            .iter()
            .map(|id| self.ground.atom_name(AtomId(id)))
    }

    /// False atoms within the materialized base, rendered lazily.
    pub fn false_atoms(&self) -> impl Iterator<Item = String> + '_ {
        self.assignment
            .neg
            .iter()
            .map(|id| self.ground.atom_name(AtomId(id)))
    }

    /// Undefined atoms, rendered lazily.
    pub fn undefined_atoms(&self) -> impl Iterator<Item = String> + '_ {
        (0..self.ground.atom_count() as u32)
            .filter(|&id| self.assignment.truth(id) == Truth::Undefined)
            .map(|id| self.ground.atom_name(AtomId(id)))
    }

    /// The underlying three-valued assignment.
    pub fn partial_model(&self) -> &PartialModel {
        &self.assignment
    }

    /// The ground program this model assigns over.
    pub fn ground(&self) -> &GroundProgram {
        &self.ground
    }

    /// The enumerated stable models (empty unless solved with
    /// [`Semantics::Stable`]; an empty list there means **no** stable
    /// model exists, in which case the three-valued assignment is
    /// everywhere undefined).
    pub fn stable_models(&self) -> &[AtomSet] {
        &self.stable
    }

    /// False when stable enumeration was cut off by `max_models`.
    pub fn is_complete(&self) -> bool {
        self.complete
    }

    /// The alternating sequence (Table I), when tracing was enabled and
    /// the semantics records one.
    pub fn trace(&self) -> Option<&AfpTrace> {
        self.trace.as_ref()
    }

    /// Render a justification tree for `pred(args…)` in the paper's
    /// vocabulary (derivations, witnesses of unusability, undefined
    /// dependencies), to `depth` levels.
    ///
    /// Returns `None` when the model is not explainable this way: atoms
    /// the grounder never materialized, and semantics whose conclusions
    /// are not `S_P`-replayable (the inflationary fixpoint, stable-model
    /// collapses with more than one model).
    pub fn explain(&self, pred: &str, args: &[&str], depth: usize) -> Option<String> {
        let atom = self.ground.find_atom_by_name(pred, args)?;
        let explainer = afp_semantics::Explainer::try_new(&self.ground, &self.assignment)?;
        Some(explainer.render(atom, depth))
    }
}

impl std::fmt::Debug for Model {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Model")
            .field("semantics", &self.semantics.name())
            .field("atoms", &self.ground.atom_count())
            .field("true", &self.assignment.pos.count())
            .field("false", &self.assignment.neg.count())
            .field("total", &self.is_total())
            .finish()
    }
}
