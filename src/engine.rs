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
//! alternating fixpoint ([`WfStrategy::Global`]) is the differential
//! oracle and what trace recording (Table I) uses; it always solves cold.
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
//! the grounder's statement set
//! ([`afp_datalog::IncrementalGrounder::source`]), which is also what
//! checkpoints render. There is one warm solve: the default
//! well-founded one (per-SCC, no trace, no restriction). The fixpoint is
//! modular over the condensation, so a component whose rules did not
//! change and whose inputs kept their truth values keeps its own. The
//! warm solve starts from a word copy of the previous model, evaluates
//! the components of the heads whose rules changed, and from there
//! **only the components that read an atom whose truth value changed**,
//! in topological order; every other component keeps its stored truth
//! values without being visited.
//! Every other solve (the global oracle, trace recording, restricted
//! solves and the other semantics) runs cold and leaves the warm state
//! alone.
//!
//! [`Session::stats`] reports every reuse channel.

use afp_core::afp::{alternating_fixpoint_with, AfpOptions, AfpTrace};
use afp_core::interp::{PartialModel, Truth};
use afp_core::Strategy;
use afp_datalog::ast::{import_rule, Program, Rule};
use afp_datalog::atoms::AtomId;
use afp_datalog::bitset::AtomSet;
use afp_datalog::depgraph::{Condensation, CondensationDelta};
use afp_datalog::program::GroundProgram;
use afp_datalog::{
    GroundOptions, IncrementalGrounder, RetractOutcome, RuleAssertOutcome, SafetyPolicy,
    SymbolStore,
};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

use crate::service::DeltaKind;
use crate::telemetry::SessionPhases;
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
    /// The paper's global alternating fixpoint from `Ĩ₀ = ∅`, with the
    /// given under-chain closure strategy: always cold, the differential
    /// oracle for the per-SCC path, and the trace/Table-I output.
    Global(Strategy),
}

/// The semantics of the one warm solve.
const WARM: Semantics = Semantics::WellFounded {
    strategy: WfStrategy::SccStratified,
};

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
        Ok(Session {
            config: self.config.clone(),
            grounder: IncrementalGrounder::new(&program, &self.config.ground)?,
            snapshot: None,
            dirty: Vec::new(),
            last_model: None,
            scc_cond: None,
            stats: SessionStats::default(),
            phases: SessionPhases::default(),
        })
    }

    /// One-shot convenience: load and solve in one call.
    pub fn solve(&self, src: &str) -> Result<Model, Error> {
        self.load(src)?.solve()
    }

    /// Load `src` and wrap the session in a concurrent serving layer:
    /// version 0 is solved and published immediately, and the service's
    /// writer thread starts. Any number of reader threads then pin
    /// immutable snapshots while writers submit deltas to its bounded
    /// queue, where concurrent submissions coalesce into shared write
    /// cycles. See [`crate::service::Service`].
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
    /// Warm well-founded solves that reused previous conclusions: a memo
    /// hit or at least one copied component. Cold solves never count.
    pub warm_solves: u64,
    /// Atoms of the components the last warm solve copied from the
    /// previous model.
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
    /// Condensations the warm path built **from scratch** since load.
    /// The memoized condensation is *repaired* in place across warm
    /// mutations (`condensation_repairs`), so this stays at `1` across
    /// any warm delta script — it counts only the first build and
    /// rebuilds after a cold re-ground. A cold solve's private
    /// condensation is not counted.
    pub condensation_builds: u64,
    /// In-place condensation repairs ([`Condensation::apply_delta`]):
    /// one per warm mutation batch that found a memoized condensation to
    /// patch instead of evicting it.
    pub condensation_repairs: u64,
    /// Atoms whose component entry or component label the last
    /// condensation repair wrote (its localized-Tarjan window, plus any
    /// neighbours a relabel respaced) — compare against the program's
    /// atom count to see the repair staying delta-bounded.
    pub last_repair_atoms: usize,
    /// Dependency edges the last condensation repair inspected.
    pub last_repair_edges: usize,
    /// Solves taken by the warm SCC-stratified path (memo hits excluded).
    pub scc_solves: u64,
    /// Components in the condensation at the last SCC-stratified solve.
    pub last_components: usize,
    /// Components evaluated by the last SCC-stratified solve: on a warm
    /// solve, the components of the pending deltas' heads and of every
    /// rule head that reads an atom whose truth value changed.
    pub last_components_evaluated: usize,
    /// Components whose values the last SCC-stratified solve kept from
    /// the previous model without visiting them.
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

/// A loaded program: the live grounder (the statement set that
/// checkpoints and cold re-grounds read, and its ground program) and the
/// warm state of the last solve. Produced by [`Engine::load`].
pub struct Session {
    config: EngineBuilder,
    grounder: IncrementalGrounder,
    /// Copy-on-write snapshot handed to models; invalidated on mutation.
    snapshot: Option<Arc<GroundProgram>>,
    /// Atoms whose rules changed since the last well-founded solve.
    dirty: Vec<AtomId>,
    /// Full model of the last well-founded solve, shared (`Arc`) with the
    /// [`Model`]s handed out for that program version — retention is a
    /// pointer copy, not a bitset clone. The warm solve copies unaffected
    /// components from it, and a re-solve with **no** pending deltas
    /// returns it outright (`SessionStats::snapshot_reuses`).
    last_model: Option<Arc<PartialModel>>,
    /// Condensation of the current ground program. Built (linear time)
    /// on the first SCC solve, then **repaired in place** across warm
    /// mutations ([`Condensation::apply_delta`] rewrites only the delta's
    /// window: component ids elsewhere are stable and new components
    /// take order labels between the window's neighbours) — only a cold
    /// re-ground, which renumbers atom ids, drops it. A warm solve
    /// evaluates, in label order, the components of the dirty atoms and
    /// those a changed truth value reaches.
    scc_cond: Option<Condensation>,
    stats: SessionStats,
    /// Phase wall-clock accumulated since the last
    /// [`Session::take_phases`] — the raw material of the service's
    /// per-cycle [`crate::telemetry::PhaseBreakdown`].
    phases: SessionPhases,
}

impl Session {
    /// The current ground program.
    pub fn ground(&self) -> &GroundProgram {
        self.grounder.program()
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

    /// The grounder's statement set, rendered as re-parseable text — the
    /// program the deltas have maintained (asserted facts and rules
    /// present, retracted ones absent), one statement per line: the EDB
    /// facts, written straight from the grounder's atoms, then the
    /// rules. The [`crate::journal`] layer serializes checkpoints from
    /// this text, so `Engine::load(source_text())` reconstructs an
    /// equivalent session.
    pub fn source_text(&self) -> String {
        self.grounder.source_text()
    }

    /// Assert ground facts, written as source text (e.g.
    /// `"move(c, d). move(d, e)."`). The existing grounding is extended in
    /// place — no re-parse of the program, no envelope recomputation from
    /// scratch, no instance re-join outside the delta — and the whole
    /// batch runs **one** envelope/delta round (or, when a warm delta
    /// would be unsound, at most one cold re-ground), however many facts
    /// it carries. Anything but a ground fact is refused with
    /// [`Error::NotAFact`] before the session changes.
    pub fn assert_facts(&mut self, facts: &str) -> Result<(), Error> {
        self.apply(&Delta::parse(DeltaKind::AssertFacts, facts)?)
    }

    /// Retract ground facts previously stated in the program or asserted.
    /// Unknown facts are ignored. The grounding is patched in place; only
    /// a batch that actually shrinks the active domain falls back to a
    /// (single) cold re-ground.
    pub fn retract_facts(&mut self, facts: &str) -> Result<(), Error> {
        self.apply(&Delta::parse(DeltaKind::RetractFacts, facts)?)
    }

    /// Assert a batch of **rules**, written as source text (facts are
    /// allowed). The existing grounding is extended in place: each new
    /// rule is compiled and joined once over the retained envelope, the
    /// whole batch runs **one** envelope-delta round, pruned negative
    /// literals whose atoms the new rules derive are resurrected, and
    /// the next warm solve re-evaluates the new/changed heads and only
    /// what their changed truth values reach. Falls back to at most one
    /// cold re-ground where a warm delta would be unsound (first unsafe
    /// rule of a previously-safe active-domain program, or a grounder
    /// that already lost precision).
    pub fn assert_rules(&mut self, rules: &str) -> Result<(), Error> {
        self.apply(&Delta::parse(DeltaKind::AssertRules, rules)?)
    }

    /// Retract a batch of rules previously stated in the program or
    /// asserted (facts allowed). Rules are matched **structurally**
    /// against their source form — same literal order, same variable
    /// names; unknown rules are ignored. Exactly the rules' ground
    /// instances are dropped in place; only a batch that actually shrinks
    /// the active domain (its facts and rule constants jointly hold some
    /// term's last references) falls back to a single cold re-ground.
    pub fn retract_rules(&mut self, rules: &str) -> Result<(), Error> {
        self.apply(&Delta::parse(DeltaKind::RetractRules, rules)?)
    }

    /// Apply one parsed delta: the single update path behind the four
    /// public wrappers, the service's write cycles and journal replay.
    /// Facts are bodiless rules, so every kind takes the grounder's rule
    /// entry points; the fact kinds differ only in what
    /// [`Delta::parse`] admitted and in which counter they bump, once per
    /// statement and only once the delta applied.
    pub(crate) fn apply(&mut self, delta: &Delta) -> Result<(), Error> {
        let assert = matches!(delta.kind, DeltaKind::AssertFacts | DeltaKind::AssertRules);
        self.apply_statements(&delta.program, assert)?;
        *match delta.kind {
            DeltaKind::AssertFacts => &mut self.stats.asserts,
            DeltaKind::RetractFacts => &mut self.stats.retracts,
            DeltaKind::AssertRules => &mut self.stats.rule_asserts,
            DeltaKind::RetractRules => &mut self.stats.rule_retracts,
        } += delta.program.rules.len() as u64;
        Ok(())
    }

    /// The body of [`Session::apply`], short of its statement counters.
    fn apply_statements(&mut self, program: &Program, assert: bool) -> Result<(), Error> {
        let Program { rules, symbols } = program;
        if rules.is_empty() {
            return Ok(());
        }
        let g = &mut self.grounder;
        // An assert needs a precise, unpoisoned grounder: a pruned
        // negative literal that could not be keyed for resurrection would
        // let a warm delta silently change old instances' semantics. A
        // retract needs only an unpoisoned one. `None` asks for the cold
        // path: apply the edit to the grounder's statements and re-ground
        // once. The grounder itself asks for it on an assert bootstrapping
        // the active-domain machinery, or a retract that shrinks the
        // domain (instances whose only positive subgoal was a stripped
        // `$dom` guard would wrongly survive it warm).
        let ground_started = Instant::now();
        let outcome = if assert && g.supports_incremental() {
            g.assert_rules(rules, symbols).map(|o| match o {
                RuleAssertOutcome::Applied(effect) => Some(effect),
                RuleAssertOutcome::NeedsCold => None,
            })
        } else if !assert && !g.is_poisoned() {
            Ok(match g.retract_rules(rules, symbols) {
                RetractOutcome::Applied(effect) => Some(effect),
                RetractOutcome::DomainShrunk => None,
            })
        } else {
            Ok(None)
        };
        self.phases.ground_ns += ground_started.elapsed().as_nanos() as u64;
        let effect = match outcome {
            Ok(Some(effect)) => effect,
            Ok(None) => {
                let source = edited_source(g, rules, symbols, assert);
                return self.reground(&source);
            }
            Err(e) => {
                // The grounder is poisoned: some consequence of a
                // partially applied batch may be missing. Restore a
                // consistent session by re-grounding its statements cold,
                // which the failed batch already left, and surface the
                // original error. A failed recovery keeps the poisoned
                // grounder, so the next solve retries it (and surfaces
                // its error) instead of solving a half-extended program.
                let _ = self.recover_from_poison();
                return Err(e.into());
            }
        };
        if effect.fresh {
            self.dirty.extend_from_slice(&effect.changed);
            self.note_mutation(&effect.changed, &effect.new_edge_targets);
            if assert {
                self.stats.delta_rounds += 1;
            }
        }
        Ok(())
    }

    /// Re-ground `program` cold and make it the session's: the sound
    /// fallback where a warm delta is not, and the recovery from a
    /// poisoned grounder. Commit-on-success: on an error (e.g. a budget)
    /// the session keeps its grounder, whose statements the failed
    /// update never reached. Atom ids change on success, so every piece
    /// of warm state is dropped.
    fn reground(&mut self, program: &Program) -> Result<(), Error> {
        let ground_started = Instant::now();
        let grounder = IncrementalGrounder::new(program, &self.config.ground)?;
        self.phases.ground_ns += ground_started.elapsed().as_nanos() as u64;
        self.grounder = grounder;
        self.stats.regrounds += 1;
        self.clear_warm_state();
        Ok(())
    }

    /// Solve under the session's default semantics.
    pub fn solve(&mut self) -> Result<Model, Error> {
        self.solve_with(self.config.semantics)
    }

    /// Solve under an explicit semantics, sharing the session's grounding.
    /// Only the default well-founded solve ([`WfStrategy::SccStratified`],
    /// no trace) is warm; every other solve, the global oracle included,
    /// starts from nothing and leaves the session's warm state as it was.
    pub fn solve_with(&mut self, semantics: Semantics) -> Result<Model, Error> {
        self.begin_solve()?;
        if semantics == WARM && !self.config.record_trace {
            return Ok(self.solve_warm());
        }
        let ground = self.snapshot();
        let solve_started = Instant::now();
        let model = solve_cold(ground, semantics, &self.config);
        self.phases.solve_ns += solve_started.elapsed().as_nanos() as u64;
        model
    }

    /// Solve under the session's default semantics, restricted to the
    /// dependency cone of these ground query atoms (written as text, e.g.
    /// `"wins(a)"`). Atoms outside the cone have no rules in the
    /// restricted program and report `False`; only query truth values
    /// within the cone are meaningful. The solve is always cold: it
    /// neither uses nor changes the session's condensation and memoized
    /// model, so a later unrestricted solve picks them up where it left
    /// them.
    pub fn solve_restricted<I, S>(&mut self, queries: I) -> Result<Model, Error>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.begin_solve()?;
        let queries: Vec<String> = queries.into_iter().map(Into::into).collect();
        solve_restricted_cold(self.ground(), &queries, &self.config)
    }

    /// Re-ground a grounder that a previous batch poisoned mid-delta (the
    /// grounding may be missing consequences), then count the solve.
    fn begin_solve(&mut self) -> Result<(), Error> {
        self.recover_from_poison()?;
        self.stats.solves += 1;
        Ok(())
    }

    /// The one warm path: the default well-founded solve. It starts from
    /// the previous model and re-evaluates the components of the dirty
    /// atoms and those a changed truth value reaches, over the
    /// condensation kept current by in-place repair.
    fn solve_warm(&mut self) -> Model {
        // Memoized read path: a re-solve with no pending deltas returns
        // the previous snapshot and model as pure pointer copies — zero
        // deep clones, zero fixpoint work. (`snapshot` is cleared by every
        // mutation, so its presence certifies that `last_model` still
        // describes the current program.)
        if self.dirty.is_empty() {
            if let (Some(snap), Some(model)) = (&self.snapshot, &self.last_model) {
                self.stats.snapshot_reuses += 1;
                self.stats.warm_solves += 1;
                return Model {
                    ground: Arc::clone(snap),
                    semantics: WARM,
                    assignment: Arc::clone(model),
                    stable: Vec::new(),
                    complete: true,
                    trace: None,
                };
            }
        }
        let ground = self.snapshot();
        let condense_started = Instant::now();
        // The memoized condensation is kept current across mutations by
        // in-place repair, so its presence means it condenses exactly the
        // program being solved.
        let cond = self.scc_cond.take().unwrap_or_else(|| {
            self.stats.condensation_builds += 1;
            Condensation::of(&ground)
        });
        self.phases.condense_ns += condense_started.elapsed().as_nanos() as u64;
        let previous = self
            .last_model
            .as_deref()
            .map(|model| (model, &self.dirty[..]));
        let solve_started = Instant::now();
        let result = afp_semantics::modular_wfs_update(&ground, &cond, previous);
        self.phases.solve_ns += solve_started.elapsed().as_nanos() as u64;
        self.stats.scc_solves += 1;
        self.stats.last_components = result.components;
        self.stats.last_components_evaluated = result.evaluated;
        self.stats.last_components_reused = result.reused;
        self.stats.last_seed_size = result.reused_atoms;
        if result.reused > 0 {
            self.stats.warm_solves += 1;
        }
        self.scc_cond = Some(cond);
        // Retention is a pointer copy: the session and the returned
        // `Model` share one allocation.
        let model = Arc::new(result.model);
        self.last_model = Some(Arc::clone(&model));
        self.dirty.clear();
        Model {
            ground,
            semantics: WARM,
            assignment: model,
            stable: Vec::new(),
            complete: true,
            trace: None,
        }
    }

    /// Re-ground the grounder's statements cold if a mid-delta grounding
    /// error poisoned it. The failed batch took its statements back out
    /// before it poisoned the grounder, so a successful recovery restores
    /// exactly the last consistent program state. On failure the
    /// poisoned grounder is kept **as is** — its `is_poisoned` flag stays
    /// set, so every later solve re-attempts recovery (and surfaces the
    /// error) before trusting the grounding; no path hands a
    /// half-extended program to a fixpoint computation.
    fn recover_from_poison(&mut self) -> Result<(), Error> {
        if !self.grounder.is_poisoned() {
            return Ok(());
        }
        let source = self.grounder.source();
        self.reground(&source)
    }

    /// Test-only fault injection: poison the live grounder and replace
    /// the session's grounding budgets, so the recovery re-ground can be
    /// driven into errors that are unreachable through the public API
    /// (the grounder's statements always re-ground within the budgets
    /// that admitted them — see the double-fault regression test).
    #[doc(hidden)]
    pub fn inject_grounder_fault_for_testing(&mut self, options: GroundOptions) {
        self.config.ground = options;
        self.grounder.poison_for_testing();
    }

    /// The program mutated in place: models must re-snapshot, and the
    /// memoized condensation is **repaired** from the delta instead of dropped —
    /// `touched` and `edge_targets` are the [`CondensationDelta`]
    /// contract (heads whose rule set changed, targets of possibly-new
    /// dependency edges). The repair writes only its window's atoms and
    /// labels, so it costs the delta, not the program. Warm models stay
    /// — the `dirty` set records what they may no longer be right about.
    fn note_mutation(&mut self, touched: &[AtomId], edge_targets: &[AtomId]) {
        self.snapshot = None;
        if let Some(mut cond) = self.scc_cond.take() {
            let repair_started = Instant::now();
            let prog = self.grounder.program();
            let repair = cond.apply_delta(
                prog,
                &CondensationDelta {
                    touched,
                    new_edge_targets: edge_targets,
                },
            );
            self.phases.repair_ns += repair_started.elapsed().as_nanos() as u64;
            self.stats.condensation_repairs += 1;
            self.stats.last_repair_atoms = repair.atoms_visited;
            self.stats.last_repair_edges = repair.edges_visited;
            // Differential safety net: in debug builds every repair is
            // checked against a from-scratch build (same partition, both
            // orders topologically valid by label).
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
        self.dirty.clear();
        self.snapshot = None;
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
}

/// Parse query atoms (text) and resolve them against a ground program.
/// Queries naming atoms the grounder never materialized resolve to
/// nothing — such atoms are false in every semantics, and the empty cone
/// answers exactly that.
fn relevance_seeds(queries: &[String], ground: &GroundProgram) -> Result<Vec<AtomId>, Error> {
    // Parsed over the program's own names, a query atom resolves
    // directly; a name the program lacks gets a symbol no atom uses.
    let mut tmp = Program {
        rules: Vec::new(),
        symbols: ground.symbols().clone(),
    };
    let mut seeds: Vec<AtomId> = Vec::new();
    for query in queries {
        let atom = afp_datalog::parser::parse_atom_into(query, &mut tmp)?;
        seeds.extend(ground.base().find_ground_atom(&atom));
    }
    Ok(seeds)
}

/// Solve `ground` under `semantics` from nothing: no memo, no seed, and
/// a condensation of its own. Every solve but the session's warm one runs
/// here: the global oracle, trace recording, restricted solves and the
/// other semantics. Taking no session makes the oracle an oracle: it
/// cannot read, or be served from, the warm state it checks.
fn solve_cold(
    ground: Arc<GroundProgram>,
    semantics: Semantics,
    config: &EngineBuilder,
) -> Result<Model, Error> {
    let mut trace: Option<AfpTrace> = None;
    let mut stable: Vec<AtomSet> = Vec::new();
    let mut complete = true;
    let assignment = match semantics {
        // Trace recording needs the global alternating sequence, so
        // `SccStratified` falls back to the global path there.
        Semantics::WellFounded {
            strategy: WfStrategy::SccStratified,
        } if !config.record_trace => afp_semantics::modular_wfs(&ground).model,
        Semantics::WellFounded { strategy } => {
            let chain = match strategy {
                WfStrategy::Global(chain) => chain,
                WfStrategy::SccStratified => Strategy::default(),
            };
            let result = alternating_fixpoint_with(
                &ground,
                &AfpOptions {
                    strategy: chain,
                    record_trace: config.record_trace,
                },
            );
            trace = result.trace;
            result.model
        }
        Semantics::Stable { max_models } => {
            let result = afp_semantics::enumerate_stable(
                &ground,
                &afp_semantics::EnumerateOptions {
                    max_models,
                    max_nodes: config.stable_search_nodes.unwrap_or(usize::MAX),
                },
            );
            complete = result.complete;
            stable = result.models;
            afp_semantics::cautious_consequences(&stable, ground.atom_count())
        }
        Semantics::Fitting => afp_semantics::fitting_model(&ground).model,
        Semantics::Perfect => match afp_semantics::perfect_model(&ground) {
            Some(r) => r.model,
            None => return Err(Error::NotLocallyStratified),
        },
        Semantics::Inflationary => {
            let r = afp_semantics::inflationary_fixpoint(&ground);
            let neg = r.model.complement();
            PartialModel::new(r.model, neg)
        }
    };
    Ok(Model {
        ground,
        semantics,
        assignment: Arc::new(assignment),
        stable,
        complete,
        trace,
    })
}

/// Restrict `ground` to the dependency cone of `queries` (ground atoms as
/// text) and solve the restricted program cold under the semantics of
/// `config`: the one restricted solve, behind both
/// [`Session::solve_restricted`] and
/// [`crate::service::ModelSnapshot::subquery`]. Atoms outside the cone
/// have no rules in the restricted program and report `False`; only
/// query truth values within the cone are meaningful.
pub(crate) fn solve_restricted_cold(
    ground: &GroundProgram,
    queries: &[String],
    config: &EngineBuilder,
) -> Result<Model, Error> {
    let seeds = relevance_seeds(queries, ground)?;
    let restricted = afp_core::relevance::restrict_to_query(ground, &seeds);
    solve_cold(Arc::new(restricted), config.semantics, config)
}

/// One write, parsed once where it enters: its kind, the submitted text
/// verbatim (what the journal and the changelog record), and the parsed
/// statements [`Session::apply`] takes. A delta merged from a run of
/// same-kind submissions carries no text of its own; its members'
/// texts are what gets recorded.
pub(crate) struct Delta {
    pub(crate) kind: DeltaKind,
    pub(crate) text: String,
    pub(crate) program: Program,
}

impl Delta {
    /// Parse `text` as a `kind` delta — the only parser of write text.
    /// The fact kinds refuse any statement that is not a ground fact,
    /// so a refused batch leaves every session untouched.
    pub(crate) fn parse(kind: DeltaKind, text: &str) -> Result<Delta, Error> {
        let program = afp_datalog::parse_program(text)?;
        if matches!(kind, DeltaKind::AssertFacts | DeltaKind::RetractFacts) {
            if let Some(rule) = program.rules.iter().find(|r| !r.is_fact()) {
                return Err(Error::NotAFact(afp_datalog::ast::display_rule(
                    rule,
                    &program.symbols,
                )));
            }
        }
        Ok(Delta {
            kind,
            text: text.to_string(),
            program,
        })
    }
}

/// The grounder's statements with a batch written against `from`
/// applied, for a cold re-ground. An assert appends the batch, whose
/// statements already present the re-ground skips; a retract drops the
/// statements of the batch. Costs the program plus the batch.
fn edited_source(
    grounder: &IncrementalGrounder,
    rules: &[Rule],
    from: &SymbolStore,
    assert: bool,
) -> Program {
    let mut source = grounder.source();
    let batch = rules
        .iter()
        .map(|rule| import_rule(&mut source.symbols, rule, from));
    if assert {
        source.rules.extend(batch);
    } else {
        let batch: HashSet<Rule> = batch.collect();
        source.rules.retain(|rule| !batch.contains(rule));
    }
    source
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
