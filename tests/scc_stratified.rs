//! Acceptance tests for SCC-stratified solving as the engine's hot path:
//!
//! * the SCC-stratified default agrees with the global alternating
//!   fixpoint on generated programs (differential), cold and across
//!   random update sequences (per-SCC warm re-solves);
//! * a warm update touching a leaf component re-solves only that
//!   component's forward dependency cone (`SessionStats`), and a dirty
//!   atom whose truth value stays put re-solves nothing above it;
//! * an N-fact batch runs one grounder delta round, not N;
//! * a rule-budget error mid-assert leaves the session able to solve
//!   correctly (grounder poisoning + cold recovery).

use afp::datalog::GroundOptions;
use afp::{Engine, Error, Semantics, Strategy, Truth, WfStrategy};
use afp_bench::gen::{hard_knot_chain_src, random_ground_program};

const SCC: Semantics = Semantics::WellFounded {
    strategy: WfStrategy::SccStratified,
};
const GLOBAL: Semantics = Semantics::WellFounded {
    strategy: WfStrategy::Global(Strategy::Naive),
};

/// Deterministic xorshift for update scripts.
struct Rng(u64);
impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

#[test]
fn scc_stratified_is_the_default() {
    let mut session = Engine::default()
        .load("a :- not b. b :- not a. c.")
        .unwrap();
    session.solve().unwrap();
    assert_eq!(session.stats().scc_solves, 1);
    assert!(session.stats().last_components >= 2);
}

/// Differential: global AFP vs SCC-stratified on random ground programs,
/// loaded from their rendering. The grounder prunes rules that can never
/// fire, so both solve the pruned program; its true and undefined atoms
/// are those of the crate-level solve of the program as generated.
#[test]
fn scc_agrees_with_global_on_random_programs() {
    let engine = Engine::default();
    let sorted = |atoms: &mut dyn Iterator<Item = String>| {
        let mut atoms: Vec<String> = atoms.collect();
        atoms.sort();
        atoms
    };
    for seed in 0..30u64 {
        let prog = random_ground_program(14, 30, 0.45, seed);
        let mut session = engine.load(&prog.to_string()).unwrap();
        let scc = session.solve_with(SCC).unwrap();
        let global = session.solve_with(GLOBAL).unwrap();
        assert_eq!(
            scc.partial_model(),
            global.partial_model(),
            "strategy divergence on seed {seed}"
        );
        let unpruned = afp::core::afp::alternating_fixpoint(&prog).model;
        assert_eq!(
            sorted(&mut scc.true_atoms()),
            prog.set_to_names(&unpruned.pos),
            "seed {seed}"
        );
        assert_eq!(
            sorted(&mut scc.undefined_atoms()),
            prog.set_to_names(&unpruned.undefined()),
            "seed {seed}"
        );
    }
}

/// The global oracle is computed, never served from the warm state it
/// checks. On an unchanged session a global solve after a per-SCC one
/// moves no warm counter; after a delta it leaves the delta pending for
/// the warm solve, which then re-solves the cone instead of hitting the
/// memo.
#[test]
fn the_global_oracle_is_computed_cold() {
    let mut session = Engine::default().load(&hard_knot_chain_src(8)).unwrap();
    let scc = session.solve_with(SCC).unwrap();
    let before = *session.stats();
    let global = session.solve_with(GLOBAL).unwrap();
    let after = *session.stats();
    assert_eq!(after.snapshot_reuses, before.snapshot_reuses);
    assert_eq!(after.warm_solves, before.warm_solves);
    assert!(!std::ptr::eq(scc.partial_model(), global.partial_model()));
    assert_eq!(scc.partial_model(), global.partial_model());

    session.retract_facts("e(k3).").unwrap();
    let before = *session.stats();
    let global = session.solve_with(GLOBAL).unwrap();
    assert_eq!(session.stats().warm_solves, before.warm_solves);
    let scc = session.solve_with(SCC).unwrap();
    assert_eq!(session.stats().scc_solves, before.scc_solves + 1);
    assert_eq!(session.stats().snapshot_reuses, before.snapshot_reuses);
    assert_eq!(scc.partial_model(), global.partial_model());
}

/// Differential under updates: a session re-solving warm per SCC after a
/// random assert/retract script always matches a cold global solve of
/// the same final state — and interleaving strategies is safe.
#[test]
fn warm_per_scc_resolves_match_cold_after_random_updates() {
    let engine = Engine::default();
    let base = "wins(X) :- move(X, Y), not wins(Y).\n";
    for seed in 1..8u64 {
        let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
        let mut session = engine
            .load(&format!("{base}move(n0, n1). move(n1, n2)."))
            .unwrap();
        session.solve().unwrap();
        let mut live: Vec<(u32, u32)> = vec![(0, 1), (1, 2)];
        for step in 0..12 {
            let u = (rng.next() % 6) as u32;
            let v = (rng.next() % 6) as u32;
            if u == v {
                continue;
            }
            let fact = format!("move(n{u}, n{v}).");
            if live.contains(&(u, v)) && rng.next().is_multiple_of(2) {
                session.retract_facts(&fact).unwrap();
                live.retain(|&e| e != (u, v));
            } else {
                session.assert_facts(&fact).unwrap();
                if !live.contains(&(u, v)) {
                    live.push((u, v));
                }
            }
            // Occasionally interleave a global solve: both warm channels
            // must stay consistent.
            let warm = if step % 5 == 4 {
                session.solve_with(GLOBAL).unwrap()
            } else {
                session.solve_with(SCC).unwrap()
            };
            let cold_src = live.iter().fold(base.to_string(), |mut acc, (u, v)| {
                acc.push_str(&format!("move(n{u}, n{v}).\n"));
                acc
            });
            let cold = engine.solve(&cold_src).unwrap();
            for n in 0..6 {
                let name = format!("n{n}");
                assert_eq!(
                    warm.truth("wins", &[&name]),
                    cold.truth("wins", &[&name]),
                    "wins(n{n}) diverged at seed {seed} step {step}"
                );
            }
        }
        assert_eq!(session.stats().regrounds, 0, "all updates stay warm");
        assert!(session.stats().warm_solves > 0, "per-SCC reuse engaged");
    }
}

/// A warm update touching a leaf knot of a chain re-solves only that
/// knot's forward cone; every other component is copied verbatim.
#[test]
fn leaf_update_resolves_only_its_cone() {
    let k = 24;
    let mut session = Engine::default().load(&hard_knot_chain_src(k)).unwrap();
    let cold = session.solve().unwrap();
    assert!(cold.is_total());
    let components = session.stats().last_components;
    assert!(
        components >= 3 * k,
        "≈5 components per knot, got {components}"
    );
    assert_eq!(session.stats().last_components_reused, 0);

    // Touch the last knot only: retract and re-assert its e-fact.
    let leaf = format!("e(k{}).", k - 1);
    session.retract_facts(&leaf).unwrap();
    let gone = session.solve().unwrap();
    assert_eq!(gone.truth("a", &[&format!("k{}", k - 1)]), Truth::False);
    let stats = *session.stats();
    assert_eq!(stats.regrounds, 0, "retract stays warm");
    assert!(
        stats.last_components_evaluated <= 6,
        "only the leaf knot's cone may be re-solved, got {}",
        stats.last_components_evaluated
    );
    assert!(
        stats.last_components_reused >= components - 6,
        "everything else is copied ({} of {components})",
        stats.last_components_reused
    );

    session.assert_facts(&leaf).unwrap();
    let back = session.solve().unwrap();
    assert_eq!(back.truth("a", &[&format!("k{}", k - 1)]), Truth::True);
    assert!(session.stats().last_components_evaluated <= 6);

    // An update at the chain's *root* invalidates every knot above it:
    // the cone is the whole chain, so almost nothing is reused.
    session.retract_facts("e(k0).").unwrap();
    session.solve().unwrap();
    assert!(
        session.stats().last_components_evaluated >= k,
        "a root update must re-solve the whole cone"
    );
}

/// A dirty atom whose truth value does not change stops the warm solve:
/// asserting a second rule for an already-true chain root evaluates the
/// root alone, while a delta that flips the root re-evaluates every
/// component above it.
#[test]
fn unchanged_truth_cuts_the_warm_solve_off() {
    let mut src = String::from("x0. y.\n");
    for i in 1..=100 {
        src.push_str(&format!("x{i} :- x{}.\n", i - 1));
    }
    let mut session = Engine::default().load(&src).unwrap();
    session.solve().unwrap();

    session.assert_rules("x0 :- y.").unwrap();
    let same = session.solve().unwrap();
    assert_eq!(same.truth("x100", &[]), Truth::True);
    assert!(
        session.stats().last_components_evaluated <= 2,
        "x0 stays true, so nothing above it is re-evaluated, got {}",
        session.stats().last_components_evaluated
    );

    session.retract_rules("x0. x0 :- y.").unwrap();
    let flipped = session.solve().unwrap();
    assert_eq!(flipped.truth("x100", &[]), Truth::False);
    assert!(
        session.stats().last_components_evaluated >= 101,
        "x0 turns false, so the whole chain is re-evaluated, got {}",
        session.stats().last_components_evaluated
    );
    assert_eq!(session.stats().regrounds, 0);
}

/// An N-fact batch performs one grounder delta round, not N.
#[test]
fn fact_batches_run_one_delta_round() {
    let mut src = String::from("wins(X) :- move(X, Y), not wins(Y).\n");
    for i in 0..16 {
        src.push_str(&format!("move(n{i}, n{}).\n", i + 1));
    }
    let engine = Engine::default();

    let mut batched = engine.load(&src).unwrap();
    let batch: String = (0..10).map(|i| format!("move(n16, x{i}). ")).collect();
    batched.assert_facts(&batch).unwrap();
    assert_eq!(batched.stats().asserts, 10);
    assert_eq!(
        batched.stats().delta_rounds,
        1,
        "one envelope/delta round for the whole batch"
    );

    let mut one_by_one = engine.load(&src).unwrap();
    for i in 0..10 {
        one_by_one
            .assert_facts(&format!("move(n16, x{i})."))
            .unwrap();
    }
    assert_eq!(one_by_one.stats().delta_rounds, 10);

    // Same resulting model either way.
    let a = batched.solve().unwrap();
    let b = one_by_one.solve().unwrap();
    assert_eq!(a.partial_model(), b.partial_model());

    // Batched retraction round-trips in one call.
    batched.retract_facts(&batch).unwrap();
    let back = batched.solve().unwrap();
    let cold = engine.solve(&src).unwrap();
    assert_eq!(
        back.partial_model().pos.count(),
        cold.partial_model().pos.count()
    );
    assert_eq!(batched.stats().regrounds, 0);
}

/// Regression (ROADMAP): a rule-budget error mid-assert must not leave
/// the session on a half-extended grounding. The grounder is poisoned
/// and the session recovers by re-grounding cold from its retained AST —
/// solves after the failure match a cold solve of the pre-batch state.
#[test]
fn budget_error_mid_assert_leaves_a_consistent_session() {
    let src = "p(X, Y) :- d(X), d(Y). d(a).";
    let engine = Engine::builder()
        .ground_options(GroundOptions {
            max_ground_rules: 6,
            ..Default::default()
        })
        .build();
    let mut session = engine.load(src).unwrap();
    let before = session.solve().unwrap();
    assert_eq!(before.truth("p", &["a", "a"]), Truth::True);

    // 4 constants → 16 instances: blows the 6-rule budget mid-batch.
    let err = session.assert_facts("d(b). d(c). d(e).");
    assert!(matches!(err, Err(Error::Ground(_))), "budget must surface");

    // The session still solves, and agrees with a cold solve of the
    // program *without* the failed batch.
    let after = session.solve().unwrap();
    let cold = engine.solve(src).unwrap();
    assert_eq!(after.partial_model(), cold.partial_model());
    assert!(
        session.stats().regrounds >= 1,
        "recovery re-grounds from the retained AST"
    );

    // Subsequent updates work: one more constant fits the budget.
    session.assert_facts("d(b).").unwrap();
    let extended = session.solve().unwrap();
    let cold = engine.solve("p(X, Y) :- d(X), d(Y). d(a). d(b).").unwrap();
    assert_eq!(extended.partial_model(), cold.partial_model());
    assert_eq!(extended.truth("p", &["a", "b"]), Truth::True);
}

/// Retracting a *derived* conclusion is a no-op, even when its ground
/// rule happens to be bodyless (stripped `$dom` guard + pruned negative
/// literal). Regression for the warm active-domain retract path.
#[test]
fn retracting_a_derived_conclusion_is_a_noop() {
    use afp::SafetyPolicy;
    let engine = Engine::builder().safety(SafetyPolicy::ActiveDomain).build();
    let mut session = engine.load("p(X) :- not q(X). ok :- p(c). r(c).").unwrap();
    let before = session.solve().unwrap();
    assert_eq!(before.truth("p", &["c"]), Truth::True);
    assert_eq!(before.truth("ok", &[]), Truth::True);

    session.retract_facts("p(c).").unwrap();
    let after = session.solve().unwrap();
    assert_eq!(after.truth("p", &["c"]), Truth::True, "p(c) is derived");
    assert_eq!(after.truth("ok", &[]), Truth::True);

    // And the refcounts were not corrupted: retracting r(c) stays warm
    // because c is pinned by the rule constant in `ok :- p(c)` — exactly
    // what a cold re-ground of the edited program concludes too.
    session.retract_facts("r(c).").unwrap();
    assert_eq!(session.stats().regrounds, 0, "c stays in the domain");
    let still = session.solve().unwrap();
    let cold = engine.solve("p(X) :- not q(X). ok :- p(c).").unwrap();
    assert_eq!(still.truth("p", &["c"]), cold.truth("p", &["c"]));
    assert_eq!(still.truth("p", &["c"]), Truth::True);
    assert_eq!(still.truth("r", &["c"]), Truth::False);
}

/// The same budget failure followed by a retract (no solve in between):
/// the recovery re-ground must leave the retract operating on the last
/// consistent fact set, never on the half-extended program.
#[test]
fn poisoned_grounder_recovers_before_the_next_retract() {
    let src = "p(X, Y) :- d(X), d(Y). d(a). d(b).";
    let engine = Engine::builder()
        .ground_options(GroundOptions {
            max_ground_rules: 8,
            ..Default::default()
        })
        .build();
    let mut session = engine.load(src).unwrap();
    session.solve().unwrap();
    assert!(session.assert_facts("d(c). d(e). d(f).").is_err());
    assert!(session.stats().regrounds >= 1, "recovery re-ground");

    session.retract_facts("d(b).").unwrap();
    let after = session.solve().unwrap();
    let cold = engine.solve("p(X, Y) :- d(X), d(Y). d(a).").unwrap();
    for (pred, args) in [
        ("d", vec!["a"]),
        ("d", vec!["b"]),
        ("d", vec!["c"]),
        ("p", vec!["a", "a"]),
        ("p", vec!["a", "b"]),
        ("p", vec!["b", "b"]),
        ("p", vec!["c", "c"]),
    ] {
        let refs: Vec<&str> = args.clone();
        assert_eq!(
            after.truth(pred, &refs),
            cold.truth(pred, &refs),
            "{pred}({args:?})"
        );
    }
}
