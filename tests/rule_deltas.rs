//! Acceptance tests for incremental rule deltas and the warm-state
//! correctness fixes that ride along:
//!
//! * differential: random scripts interleaving rule asserts/retracts with
//!   fact deltas must agree with a fresh `Engine::load` of the final
//!   program, under both `WfStrategy::SccStratified` and
//!   `WfStrategy::Global` — including `win/move`-style odd loops
//!   introduced by an asserted rule;
//! * a rule assert on a k-knot chain re-solves without a cold re-ground
//!   (`SessionStats::regrounds` unchanged, components reused);
//! * envelope enlargement by an asserted rule resurrects pruned negative
//!   literals (in either order of rule vs fact arrival);
//! * active-domain rule retracts go cold only when the domain shrinks;
//! * regression: relevance-restricted solves no longer evict the
//!   memoized condensation;
//! * regression: a stable-model search budget yields a partial-but-sound
//!   model list with `complete == false`, never an error;
//! * regression: a double fault (grounding error during poison recovery)
//!   never lets a later solve trust a half-extended grounding;
//! * a batch that errors mid-delta leaves the session's statements as
//!   they were before it.

use std::collections::BTreeSet;

use afp::datalog::GroundOptions;
use afp::{Engine, Error, SafetyPolicy, Semantics, Strategy, Truth, WfStrategy};
use afp_bench::gen::hard_knot_chain_src;

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

/// The rule pool for the differential scripts. `odd` is the
/// `win/move`-style odd loop: asserting it turns a decided program into
/// one with a genuinely three-valued well-founded model.
const RULE_POOL: &[&str] = &[
    "reach(X) :- move(n0, X).",
    "reach(X) :- move(Y, X), reach(Y).",
    "win(X) :- bonus(X).",
    "trapped(X) :- move(X, Y), not win(Y), not reach(Y).",
    "p :- not q.",
    "q :- not p.",
    "odd :- win(n0), not odd.",
];

const FACT_POOL: &[&str] = &[
    "move(n0, n1).",
    "move(n1, n2).",
    "move(n2, n0).",
    "move(n2, n3).",
    "move(n3, n4).",
    "bonus(n2).",
    "bonus(n4).",
];

const BASE_RULES: &str = "win(X) :- move(X, Y), not win(Y).\n";
const BASE_FACTS: &[&str] = &["move(n0, n1).", "move(n1, n2)."];

/// Probe atoms compared between the warm session and the cold reference.
fn probes() -> Vec<(String, Vec<String>)> {
    let mut out = vec![
        ("p".to_string(), vec![]),
        ("q".to_string(), vec![]),
        ("odd".to_string(), vec![]),
    ];
    for n in 0..5 {
        for pred in ["win", "reach", "trapped", "bonus"] {
            out.push((pred.to_string(), vec![format!("n{n}")]));
        }
    }
    out
}

fn assert_models_agree(warm: &afp::Model, cold: &afp::Model, context: &str) {
    for (pred, args) in probes() {
        let refs: Vec<&str> = args.iter().map(String::as_str).collect();
        assert_eq!(
            warm.truth(&pred, &refs),
            cold.truth(&pred, &refs),
            "{pred}({args:?}) diverged {context}"
        );
    }
}

/// The differential suite: random interleavings of rule and fact deltas
/// against a fresh load of the final program, under both strategies.
#[test]
fn random_rule_and_fact_scripts_match_fresh_load() {
    let engine = Engine::default();
    for seed in 1..10u64 {
        let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
        let mut live_rules: Vec<&str> = Vec::new();
        let mut live_facts: Vec<&str> = BASE_FACTS.to_vec();
        let base_src = format!("{BASE_RULES}{}\n", BASE_FACTS.join(" "));
        let mut session = engine.load(&base_src).unwrap();
        session.solve().unwrap();
        for step in 0..16 {
            match rng.next() % 4 {
                0 => {
                    let rule = RULE_POOL[(rng.next() % RULE_POOL.len() as u64) as usize];
                    session.assert_rules(rule).unwrap();
                    if !live_rules.contains(&rule) {
                        live_rules.push(rule);
                    }
                }
                1 => {
                    if !live_rules.is_empty() {
                        let rule = live_rules[(rng.next() % live_rules.len() as u64) as usize];
                        session.retract_rules(rule).unwrap();
                        live_rules.retain(|&r| r != rule);
                    }
                }
                2 => {
                    let fact = FACT_POOL[(rng.next() % FACT_POOL.len() as u64) as usize];
                    session.assert_facts(fact).unwrap();
                    if !live_facts.contains(&fact) {
                        live_facts.push(fact);
                    }
                }
                _ => {
                    if !live_facts.is_empty() {
                        let fact = live_facts[(rng.next() % live_facts.len() as u64) as usize];
                        session.retract_facts(fact).unwrap();
                        live_facts.retain(|&f| f != fact);
                    }
                }
            }
            // Warm solve (occasionally under the global strategy) versus
            // a fresh load of the final program text.
            let warm = if step % 5 == 4 {
                session.solve_with(GLOBAL).unwrap()
            } else {
                session.solve_with(SCC).unwrap()
            };
            let mut cold_src = String::from(BASE_RULES);
            for r in &live_rules {
                cold_src.push_str(r);
                cold_src.push('\n');
            }
            for f in &live_facts {
                cold_src.push_str(f);
                cold_src.push('\n');
            }
            let cold = engine.solve(&cold_src).unwrap();
            assert_models_agree(&warm, &cold, &format!("at seed {seed} step {step}"));
        }
        assert_eq!(
            session.stats().regrounds,
            0,
            "every rule/fact delta in the pool stays warm (seed {seed})"
        );
    }
}

/// Acceptance: a rule assert into a k-knot chain re-solves warm —
/// `regrounds` unchanged, components outside the new rule's cone copied —
/// and matches a fresh load of the extended program bit for bit (compared
/// as named true/undefined sets; extra never-derivable atoms retained by
/// the warm grounding are false on both sides).
#[test]
fn rule_assert_on_knot_chain_stays_warm_and_reuses_components() {
    let k = 32;
    let src = hard_knot_chain_src(k);
    let mut session = Engine::default().load(&src).unwrap();
    let cold_base = session.solve().unwrap();
    assert!(cold_base.is_total());
    let regrounds_before = session.stats().regrounds;

    session.assert_rules("q(K) :- a(K).").unwrap();
    let warm = session.solve().unwrap();
    assert_eq!(
        session.stats().regrounds,
        regrounds_before,
        "the rule assert must not fall back to a cold re-ground"
    );
    assert!(
        session.stats().last_components_reused > 0,
        "components outside the new rule's cone are copied"
    );
    assert_eq!(warm.truth("q", &[&format!("k{}", k - 1)]), Truth::True);

    let cold = Engine::default()
        .solve(&format!("{src}q(K) :- a(K).\n"))
        .unwrap();
    let mut warm_true: Vec<String> = warm.true_atoms().collect();
    let mut cold_true: Vec<String> = cold.true_atoms().collect();
    warm_true.sort();
    cold_true.sort();
    assert_eq!(warm_true, cold_true);
    let mut warm_undef: Vec<String> = warm.undefined_atoms().collect();
    let mut cold_undef: Vec<String> = cold.undefined_atoms().collect();
    warm_undef.sort();
    cold_undef.sort();
    assert_eq!(warm_undef, cold_undef);

    // Retract round-trips warm too, back to the base model.
    session.retract_rules("q(K) :- a(K).").unwrap();
    let back = session.solve().unwrap();
    assert_eq!(session.stats().regrounds, regrounds_before);
    assert_eq!(back.truth("q", &[&format!("k{}", k - 1)]), Truth::False);
    assert_eq!(back.truth("a", &["k0"]), Truth::True);
}

/// An asserted rule that enlarges the positive envelope must resurrect
/// the negative literals that were pruned while its head atoms were
/// underivable — in either arrival order of the rule and its feeding
/// fact.
#[test]
fn envelope_enlarging_rule_resurrects_pruned_negatives() {
    let base = "wins(X) :- move(X, Y), not wins(Y). move(b, c).";
    let engine = Engine::default();
    // wins(c) is underivable at load: `not wins(c)` was pruned, wins(b)
    // is (vacuously) true.
    for order in ["rule_then_fact", "fact_then_rule"] {
        let mut session = engine.load(base).unwrap();
        assert_eq!(session.solve().unwrap().truth("wins", &["b"]), Truth::True);
        if order == "rule_then_fact" {
            session.assert_rules("wins(X) :- bonus(X).").unwrap();
            session.assert_facts("bonus(c).").unwrap();
        } else {
            session.assert_facts("bonus(c).").unwrap();
            session.assert_rules("wins(X) :- bonus(X).").unwrap();
        }
        let warm = session.solve().unwrap();
        let cold = engine
            .solve("wins(X) :- move(X, Y), not wins(Y). move(b, c). wins(X) :- bonus(X). bonus(c).")
            .unwrap();
        for args in [["b"], ["c"]] {
            assert_eq!(
                warm.truth("wins", &args),
                cold.truth("wins", &args),
                "wins({args:?}) with {order}"
            );
        }
        assert_eq!(warm.truth("wins", &["c"]), Truth::True);
        assert_eq!(
            warm.truth("wins", &["b"]),
            Truth::False,
            "the resurrected `not wins(c)` must now block wins(b) ({order})"
        );
        assert_eq!(session.stats().regrounds, 0, "both orders stay warm");
    }
}

/// Under the active-domain policy, retracting a rule goes cold exactly
/// when its constants held some term's last domain references.
#[test]
fn active_domain_rule_retract_goes_cold_only_on_domain_shrink() {
    let engine = Engine::builder().safety(SafetyPolicy::ActiveDomain).build();

    // c pinned by the rule only: the retract must re-ground cold, and the
    // result must match a fresh load of the program without the rule.
    let mut session = engine.load("p(X) :- not q(X). ok :- p(c). r(d).").unwrap();
    session.solve().unwrap();
    session.retract_rules("ok :- p(c).").unwrap();
    assert_eq!(session.stats().regrounds, 1, "domain shrank: cold fallback");
    let after = session.solve().unwrap();
    let cold = engine.solve("p(X) :- not q(X). r(d).").unwrap();
    assert_eq!(after.truth("p", &["d"]), cold.truth("p", &["d"]));
    assert_eq!(after.truth("p", &["c"]), Truth::False, "c left the domain");

    // c also held by a fact: the same retract stays warm.
    let mut session = engine
        .load("p(X) :- not q(X). ok :- p(c). r(c). r(d).")
        .unwrap();
    session.solve().unwrap();
    session.retract_rules("ok :- p(c).").unwrap();
    assert_eq!(session.stats().regrounds, 0, "r(c) keeps c in the domain");
    let after = session.solve().unwrap();
    assert_eq!(after.truth("p", &["c"]), Truth::True);
    assert_eq!(after.truth("ok", &[]), Truth::False);
}

/// The first unsafe rule asserted into a previously-safe active-domain
/// program bootstraps the domain machinery through the (single) cold
/// fallback — and the session keeps working warm afterwards.
#[test]
fn first_unsafe_rule_bootstraps_active_domain_cold_then_stays_warm() {
    let engine = Engine::builder().safety(SafetyPolicy::ActiveDomain).build();
    let mut session = engine.load("p(X) :- e(X). e(a). e(b).").unwrap();
    session.solve().unwrap();
    session.assert_rules("q(X) :- not p(X).").unwrap();
    assert_eq!(
        session.stats().regrounds,
        1,
        "bootstrap is a cold re-ground"
    );
    let model = session.solve().unwrap();
    let cold = engine
        .solve("p(X) :- e(X). e(a). e(b). q(X) :- not p(X).")
        .unwrap();
    assert_eq!(model.truth("q", &["a"]), cold.truth("q", &["a"]));

    // With the machinery in place, the next unsafe rule stays warm.
    session.assert_rules("s(X) :- not q(X).").unwrap();
    assert_eq!(session.stats().regrounds, 1, "second unsafe rule is warm");
    let model = session.solve().unwrap();
    let cold = engine
        .solve("p(X) :- e(X). e(a). e(b). q(X) :- not p(X). s(X) :- not q(X).")
        .unwrap();
    assert_eq!(model.truth("s", &["a"]), cold.truth("s", &["a"]));
}

/// Rule deltas also work on grounder-less sessions (`load_ground`), for
/// ground rules; non-ground rules are rejected with a typed error.
#[test]
fn ground_sessions_take_ground_rule_deltas() {
    let ground = afp::datalog::parse_ground("a. b :- a, not c.");
    let mut session = Engine::default().load_ground(ground);
    assert_eq!(session.solve().unwrap().truth("b", &[]), Truth::True);

    session.assert_rules("c :- a.").unwrap();
    let model = session.solve().unwrap();
    assert_eq!(model.truth("c", &[]), Truth::True);
    assert_eq!(model.truth("b", &[]), Truth::False);

    session.retract_rules("c :- a.").unwrap();
    assert_eq!(session.solve().unwrap().truth("b", &[]), Truth::True);

    let err = session.assert_rules("d(X) :- e(X).").unwrap_err();
    assert!(matches!(err, Error::NotGroundRule(_)), "got {err:?}");
}

/// Regression: on a grounder-less session, retracting a rule that is
/// not present must leave the program as it was. Resolving the rule's
/// atoms used to intern them, so the warm model listed atoms no cold
/// load of the same program has.
#[test]
fn ground_session_retract_of_an_absent_rule_interns_nothing() {
    let engine = Engine::default();
    let mut session = engine.load_ground(afp::datalog::parse_ground("a. b :- a, not c."));
    let atoms = session.ground().atom_count();
    session.retract_rules("z :- y, not w.").unwrap();
    session.retract_facts("z.").unwrap();
    assert_eq!(session.ground().atom_count(), atoms);
    session.assert_facts("c.").unwrap();
    let warm = session.solve().unwrap();
    let cold = engine
        .load_ground(afp::datalog::parse_ground("a. b :- a, not c. c."))
        .solve()
        .unwrap();
    assert_eq!(
        afp::net::codec::model_json(0, &warm),
        afp::net::codec::model_json(0, &cold)
    );
}

/// Regression (satellite): a relevance-restricted solve must not evict
/// the memoized condensation — one restricted query used to force a full
/// `Condensation::of` rebuild on the next unrestricted solve.
#[test]
fn restricted_solves_keep_the_memoized_condensation() {
    let mut session = Engine::default()
        .load("a :- not b. b :- not a. c. d :- c, not a.")
        .unwrap();
    session.solve().unwrap();
    assert_eq!(session.stats().condensation_builds, 1);

    // The restricted solve condenses its own (restricted) program cold,
    // which the build counter does not count…
    let restricted = session.solve_restricted(["c"]).unwrap();
    assert_eq!(restricted.truth("c", &[]), Truth::True);
    assert_eq!(session.stats().condensation_builds, 1);

    // …and the next unrestricted solve reuses the cached one: the build
    // counter must not move (it used to). A delta first, so the solve
    // goes through the condensation instead of the memo.
    session.assert_facts("e.").unwrap();
    session.solve().unwrap();
    assert_eq!(
        session.stats().condensation_builds,
        1,
        "the unrestricted condensation survived the restricted solve"
    );
    assert_eq!(session.stats().condensation_repairs, 1);

    // The restricted solve must not have corrupted warm state either.
    let model = session.solve().unwrap();
    assert_eq!(model.truth("d", &[]), Truth::Undefined);
}

/// Regression (satellite): a stable-model search budget yields the
/// models found so far (each genuinely stable) with `complete == false`,
/// not an error.
#[test]
fn stable_search_budget_yields_partial_but_sound_models() {
    // Four independent choice pairs: 16 stable models, a search tree far
    // larger than the budget.
    let src = "a :- not na. na :- not a. b :- not nb. nb :- not b.
               c :- not nc. nc :- not c. d :- not nd. nd :- not d.";
    let budgeted = Engine::builder()
        .stable_search_budget(3)
        .build()
        .load(src)
        .unwrap()
        .solve_with(Semantics::Stable {
            max_models: usize::MAX,
        })
        .unwrap();
    assert!(!budgeted.is_complete(), "the budget must trip");
    assert!(
        budgeted.stable_models().len() < 16,
        "partial enumeration only"
    );

    // Soundness: every model the truncated search returned is also found
    // by the unbudgeted enumeration.
    let full = Engine::default()
        .load(src)
        .unwrap()
        .solve_with(Semantics::Stable {
            max_models: usize::MAX,
        })
        .unwrap();
    assert!(full.is_complete());
    assert_eq!(full.stable_models().len(), 16);
    for m in budgeted.stable_models() {
        let names = budgeted.ground().set_to_names(m);
        assert!(
            full.stable_models()
                .iter()
                .any(|fm| full.ground().set_to_names(fm) == names),
            "truncated search returned a non-model: {names:?}"
        );
    }
}

/// Regression (satellite): double fault — the grounder is poisoned *and*
/// the recovery re-ground itself errors (injected: unreachable through
/// the public API, since a retained AST always re-grounds within the
/// budgets that admitted it). Every solve must surface the grounding
/// error rather than trust the half-extended program, and the session
/// must heal completely once re-grounding can succeed again.
#[test]
fn double_fault_budget_error_during_recovery_never_serves_poisoned_state() {
    let src = "p(X, Y) :- d(X), d(Y). d(a). d(b).";
    let engine = Engine::default();
    let mut session = engine.load(src).unwrap();
    let healthy = session.solve().unwrap();
    assert_eq!(healthy.truth("p", &["a", "b"]), Truth::True);

    // Fault injection: poison + a budget no re-ground of this AST fits.
    session.inject_grounder_fault_for_testing(GroundOptions {
        max_ground_rules: 2,
        ..Default::default()
    });
    let err = session.solve();
    assert!(
        matches!(err, Err(Error::Ground(_))),
        "recovery failed: the error surfaces instead of a poisoned solve"
    );
    // Still failing — the session must keep refusing, not wedge or panic.
    assert!(session.solve().is_err());
    // Updates while double-faulted go through the cold path and fail too;
    // the session state stays the last consistent one.
    assert!(session.assert_facts("d(c).").is_err());

    // Restore workable budgets: the next solve recovers from the retained
    // AST (which never saw the failed updates) and matches a fresh load.
    session.inject_grounder_fault_for_testing(GroundOptions::default());
    let after = session.solve().unwrap();
    let cold = engine.solve(src).unwrap();
    assert_eq!(after.partial_model(), cold.partial_model());
    assert!(session.stats().regrounds >= 1);

    // And the session is fully functional again.
    session.assert_facts("d(c).").unwrap();
    let extended = session.solve().unwrap();
    assert_eq!(extended.truth("p", &["a", "c"]), Truth::True);
}

/// A batch that errors mid-delta leaves the session's statements as
/// they were before it, for a fact batch and for a rule batch alike: a
/// checkpoint holds none of its statements, and the recovery re-grounds
/// the program from before the batch.
#[test]
fn a_failed_batch_leaves_the_statements_as_they_were() {
    let engine = Engine::builder()
        .ground_options(GroundOptions {
            max_ground_rules: 6,
            ..Default::default()
        })
        .build();
    let mut session = engine.load("p(X, Y) :- d(X), d(Y). d(a).").unwrap();
    let statements = |session: &afp::Session| -> BTreeSet<String> {
        let text = session.source_text().unwrap();
        text.lines().map(str::to_owned).collect()
    };
    let before = statements(&session);

    // 4 constants → 16 instances of `p`: over the budget mid-batch.
    let err = session.assert_facts("d(b). d(c). d(e).");
    assert!(matches!(err, Err(Error::Ground(_))), "budget must surface");
    assert_eq!(statements(&session), before, "after the fact batch");

    // 2 constants → 2 instances of `q` and 4 of `p`, with 2 facts: 8.
    let err = session.assert_rules("q(X) :- d(X). d(b).");
    assert!(matches!(err, Err(Error::Ground(_))), "budget must surface");
    assert_eq!(statements(&session), before, "after the rule batch");

    let model = session.solve().unwrap();
    assert_eq!(model.truth("p", &["a", "a"]), Truth::True);
    assert_eq!(model.truth("d", &["b"]), Truth::False);
    assert_eq!(model.truth("q", &["a"]), Truth::False);
}

/// Rule deltas compose with warm fact deltas in a single session: the
/// mirrored AST keeps both kinds of edit, so a later cold fallback (here
/// forced by a domain shrink) sees the complete current program.
#[test]
fn cold_fallback_sees_warm_rule_and_fact_updates() {
    let engine = Engine::builder().safety(SafetyPolicy::ActiveDomain).build();
    let mut session = engine.load("p(X) :- not q(X). r(c). r(d). s(d).").unwrap();
    session.solve().unwrap();

    session.assert_rules("t(X) :- p(X), not s(X).").unwrap();
    session.assert_facts("r(e).").unwrap();
    // Retract d's last references: DomainShrunk → cold re-ground from the
    // mirrored AST, which must contain the rule and r(e).
    session.retract_facts("r(d). s(d).").unwrap();
    let after = session.solve().unwrap();
    let cold = engine
        .solve("p(X) :- not q(X). r(c). t(X) :- p(X), not s(X). r(e).")
        .unwrap();
    for c in ["c", "d", "e"] {
        assert_eq!(after.truth("t", &[c]), cold.truth("t", &[c]), "t({c})");
        assert_eq!(after.truth("p", &[c]), cold.truth("p", &[c]), "p({c})");
    }
    assert!(session.stats().regrounds >= 1, "the shrink went cold");
}

/// `odd :- win(n0), not odd.` — an asserted odd loop flips atoms to
/// undefined and retracting it restores the decided model, warm both
/// ways.
#[test]
fn asserted_odd_loop_round_trips_warm() {
    let engine = Engine::default();
    let base_src = format!("{BASE_RULES}{}\n", BASE_FACTS.join(" "));
    let mut session = engine.load(&base_src).unwrap();
    // win(n0): n0 → n1 → n2(sink): n1 wins, n0 loses.
    let before = session.solve().unwrap();
    assert_eq!(before.truth("win", &["n0"]), Truth::False);
    assert_eq!(before.truth("odd", &[]), Truth::False);

    session
        .assert_rules("odd :- not win(n0), not odd.")
        .unwrap();
    let with_loop = session.solve().unwrap();
    let cold = engine
        .solve(&format!("{base_src}odd :- not win(n0), not odd.\n"))
        .unwrap();
    assert_eq!(with_loop.truth("odd", &[]), cold.truth("odd", &[]));
    assert_eq!(
        with_loop.truth("odd", &[]),
        Truth::Undefined,
        "the odd loop is live (win(n0) is false) and undefined"
    );
    assert!(!with_loop.is_total());

    session
        .retract_rules("odd :- not win(n0), not odd.")
        .unwrap();
    let back = session.solve().unwrap();
    assert_eq!(back.truth("odd", &[]), Truth::False);
    assert_eq!(back.truth("win", &["n1"]), Truth::True);
    assert_eq!(session.stats().regrounds, 0, "both deltas stayed warm");
}
