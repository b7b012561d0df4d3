//! The unified `Engine` / `Session` facade: every semantics of the paper
//! through one entry point, one `Model` type, and warm session reuse.

use afp::{Engine, Error, Semantics, SessionStats, Strategy, Truth, WfStrategy};

const WIN_MOVE: &str = "
    wins(X) :- move(X, Y), not wins(Y).
    move(a, b). move(b, a). move(b, c).
";

const ALL_STABLE: Semantics = Semantics::Stable {
    max_models: usize::MAX,
};

/// Every `Semantics` variant solves through the same `Engine` and the same
/// `Session`, returning the unified `Model`.
#[test]
fn all_five_semantics_through_one_engine() {
    let engine = Engine::default();
    let mut session = engine.load(WIN_MOVE).unwrap();

    // Well-founded: Figure 4(c) — total despite the cycle. The default
    // strategy is SCC-stratified evaluation.
    let wfs = session
        .solve_with(Semantics::WellFounded {
            strategy: WfStrategy::SccStratified,
        })
        .unwrap();
    assert_eq!(wfs.truth("wins", &["b"]), Truth::True);
    assert_eq!(wfs.truth("wins", &["a"]), Truth::False);
    assert!(wfs.is_total());
    assert!(session.stats().scc_solves >= 1);

    // Every evaluation strategy agrees.
    for strategy in [
        WfStrategy::Global(Strategy::Naive),
        WfStrategy::Global(Strategy::IncrementalUnder),
    ] {
        let global = session
            .solve_with(Semantics::WellFounded { strategy })
            .unwrap();
        assert_eq!(global.partial_model(), wfs.partial_model());
    }

    // Stable: total WFS ⇒ unique stable model with the same positives.
    let stable = session.solve_with(ALL_STABLE).unwrap();
    assert_eq!(stable.stable_models().len(), 1);
    assert!(stable.is_complete());
    assert_eq!(&stable.stable_models()[0], &wfs.partial_model().pos);
    assert_eq!(stable.truth("wins", &["b"]), Truth::True);

    // Fitting: informationally below the WFS.
    let fitting = session.solve_with(Semantics::Fitting).unwrap();
    assert!(fitting.partial_model().leq(wfs.partial_model()));

    // Perfect: the ground win–move cycle is not locally stratified.
    assert_eq!(
        session.solve_with(Semantics::Perfect).unwrap_err(),
        Error::NotLocallyStratified
    );

    // Inflationary: always total, not necessarily the WFS.
    let ifp = session.solve_with(Semantics::Inflationary).unwrap();
    assert!(ifp.is_total());

    // One engine also serves other sessions; `Perfect` works where the
    // program is stratified.
    let perfect = Engine::new(Semantics::Perfect)
        .solve("a. b :- a. c :- not b.")
        .unwrap();
    assert_eq!(perfect.truth("b", &[]), Truth::True);
    assert_eq!(perfect.truth("c", &[]), Truth::False);
    assert!(perfect.is_total());
}

/// The unified model's iterators are lazy views over the assignment.
#[test]
fn model_iterators_cover_the_base() {
    let model = Engine::default()
        .solve("a. b :- a. c :- not b. p :- not q. q :- not p.")
        .unwrap();
    let mut names: Vec<String> = model
        .true_atoms()
        .chain(model.false_atoms())
        .chain(model.undefined_atoms())
        .collect();
    names.sort();
    assert_eq!(names, vec!["a", "b", "c", "p", "q"]);
    assert_eq!(model.true_atoms().count(), 2);
    assert_eq!(model.false_atoms().count(), 1);
    assert_eq!(model.undefined_atoms().count(), 2);
}

/// `assert_facts` + warm re-solve gives the same model as a cold solve of
/// the concatenated text — without re-parsing or re-grounding.
#[test]
fn session_reuse_equals_cold_solve() {
    // The win–move board plus an independent x → y → z chain: the chain
    // cannot reach the asserted facts in the dependency graph, so its
    // conclusions survive the delta and seed the warm re-solve.
    let src = format!("{WIN_MOVE} move(x, y). move(y, z).");
    let engine = Engine::default();
    let mut session = engine.load(&src).unwrap();
    let first = session.solve().unwrap();
    assert_eq!(first.truth("wins", &["c"]), Truth::False);
    assert_eq!(first.truth("wins", &["y"]), Truth::True);

    // Remember an atom id: grounding reuse keeps ids stable where a cold
    // re-ground would restart interning from scratch.
    let wins_a_before = session.ground().find_atom_by_name("wins", &["a"]).unwrap();
    let rules_before = session.ground().rule_count();

    session.assert_facts("move(c, d). move(d, e).").unwrap();
    let warm = session.solve().unwrap();

    let cold_src = format!("{src} move(c, d). move(d, e).");
    let cold = engine.solve(&cold_src).unwrap();
    for (pred, args) in [
        ("wins", ["a"]),
        ("wins", ["b"]),
        ("wins", ["c"]),
        ("wins", ["d"]),
        ("wins", ["e"]),
        ("wins", ["x"]),
        ("wins", ["y"]),
        ("wins", ["z"]),
    ] {
        assert_eq!(
            warm.truth(pred, &args),
            cold.truth(pred, &args),
            "{pred}({args:?})"
        );
    }
    // The tail decided the game: d escapes to the new sink e, so c (which
    // can only feed the winner d) now loses *for a reason* — and wins(b),
    // whose pruned `not wins(c)` literal was resurrected, stays a winner.
    assert_eq!(warm.truth("wins", &["d"]), Truth::True);
    assert_eq!(warm.truth("wins", &["c"]), Truth::False);
    assert_eq!(warm.truth("wins", &["b"]), Truth::True);

    // The grounding was extended in place, not rebuilt.
    let stats: &SessionStats = session.stats();
    assert_eq!(stats.regrounds, 0, "assert_facts must not re-ground");
    assert_eq!(stats.asserts, 2);
    assert_eq!(
        session.ground().find_atom_by_name("wins", &["a"]).unwrap(),
        wins_a_before,
        "atom ids survive the delta"
    );
    assert!(session.ground().rule_count() > rules_before);

    // And the solve was warm-seeded from surviving conclusions.
    assert_eq!(stats.warm_solves, 1);
    assert!(stats.last_seed_size > 0, "seed carries surviving negatives");
}

/// Retraction patches the grounding in place and re-solves correctly.
#[test]
fn retract_facts_resolve() {
    let engine = Engine::default();
    let mut session = engine
        .load("wins(X) :- move(X, Y), not wins(Y). move(a, b).")
        .unwrap();
    let model = session.solve().unwrap();
    assert_eq!(model.truth("wins", &["a"]), Truth::True); // b is a sink

    session.retract_facts("move(a, b).").unwrap();
    let model = session.solve().unwrap();
    assert_eq!(model.truth("wins", &["a"]), Truth::False); // no moves at all
    assert_eq!(session.stats().retracts, 1);
    assert_eq!(session.stats().regrounds, 0);

    // Round trip: assert it back.
    session.assert_facts("move(a, b).").unwrap();
    let model = session.solve().unwrap();
    assert_eq!(model.truth("wins", &["a"]), Truth::True);
}

/// Sessions loaded from a rendered ground program update in place. The
/// grounder prunes both rules at load (`e` and `f` have no rules), so
/// the asserts instantiate `p`'s rule and then resurrect its `not q`.
#[test]
fn ground_program_sessions_update_in_place() {
    let ground = afp::datalog::parse_ground("p :- e, not q. q :- f.");
    let mut session = Engine::default().load(&ground.to_string()).unwrap();
    let model = session.solve().unwrap();
    assert_eq!(model.truth("p", &[]), Truth::False); // e is false

    session.assert_facts("e.").unwrap();
    let model = session.solve().unwrap();
    assert_eq!(model.truth("p", &[]), Truth::True);

    session.assert_facts("f.").unwrap();
    let model = session.solve().unwrap();
    assert_eq!(model.truth("p", &[]), Truth::False); // q holds now

    session.retract_facts("f.").unwrap();
    let model = session.solve().unwrap();
    assert_eq!(model.truth("p", &[]), Truth::True);
    assert_eq!(session.stats().regrounds, 0);
}

/// Re-asserting facts whose atoms are all known, on a session loaded
/// from a rendered ground program, after a snapshot, copies no Herbrand
/// base or symbol storage: the session's program still shares it with
/// the snapshot. Only an atom never seen before un-shares it, and the
/// snapshot never sees it.
#[test]
fn known_facts_on_ground_sessions_copy_no_base_storage() {
    let ground = afp::datalog::parse_ground("p(a) :- e(a, b), not q. e(a, b). q :- f(c). f(c).");
    let mut session = Engine::default().load(&ground.to_string()).unwrap();
    session.retract_facts("f(c).").unwrap(); // `f(c)` stays a known atom
    let snapshot = session.solve().unwrap();
    assert!(session.ground().shares_base_with(snapshot.ground()));

    session.assert_facts("e(a, b).").unwrap(); // already a fact
    session.assert_facts("f(c).").unwrap(); // known atom, new fact rule
    assert!(
        session.ground().shares_base_with(snapshot.ground()),
        "known names and atoms must not copy shared base storage"
    );
    assert_eq!(session.solve().unwrap().truth("q", &[]), Truth::True);

    session.assert_facts("f(d).").unwrap(); // a new constant and atom
    assert!(!session.ground().shares_base_with(snapshot.ground()));
    assert!(snapshot.ground().find_atom_by_name("f", &["d"]).is_none());
    assert_eq!(snapshot.truth("f", &["d"]), Truth::False);
}

/// Non-fact input to the update API is a typed error.
#[test]
fn updates_reject_rules_and_non_ground_facts() {
    let mut session = Engine::default().load("p(a).").unwrap();
    assert!(matches!(
        session.assert_facts("q(X) :- p(X)."),
        Err(Error::NotAFact(_))
    ));
    assert!(matches!(
        session.retract_facts("p(X)."),
        Err(Error::NotAFact(_))
    ));
    assert!(matches!(session.assert_facts("p("), Err(Error::Parse(_))));
}

/// A restricted solve solves the query's dependency cone only.
#[test]
fn relevance_restriction_solves_the_cone_only() {
    let src = "
        goal :- p, not q. p. q :- not r. r :- not q.
        unrelated1 :- not unrelated2. unrelated2 :- not unrelated1.
    ";
    let mut session = Engine::default().load(src).unwrap();
    let full = session.solve().unwrap();
    let restricted = session.solve_restricted(["goal"]).unwrap();
    assert_eq!(restricted.truth("goal", &[]), full.truth("goal", &[]));
    assert!(restricted.ground().rule_count() < full.ground().rule_count());

    // A relevance query that does not parse is an error, not a silently
    // empty (all-False) restriction.
    assert!(matches!(
        session.solve_restricted(["goal("]),
        Err(Error::Parse(_))
    ));
}

/// Where a warm delta would be unsound, the session re-grounds cold and
/// says so in its stats — the model always matches a cold solve.
#[test]
fn unsound_deltas_fall_back_to_cold_regrounding() {
    use afp::SafetyPolicy;
    let engine = Engine::builder().safety(SafetyPolicy::ActiveDomain).build();

    // Case 1: a pruned negative literal over a never-materialized term
    // (`not q(f(a))` — f(a) exists nowhere) cannot be keyed for
    // resurrection; asserting q(f(a)) must not leave the stale instance.
    let mut session = engine.load("p(X) :- e(X), not q(f(X)). e(a).").unwrap();
    let model = session.solve().unwrap();
    assert_eq!(model.truth("p", &["a"]), Truth::True);
    session.assert_facts("q(f(a)).").unwrap();
    let warm = session.solve().unwrap();
    let cold = engine
        .solve("p(X) :- e(X), not q(f(X)). e(a). q(f(a)).")
        .unwrap();
    assert_eq!(warm.truth("p", &["a"]), cold.truth("p", &["a"]));
    assert_eq!(warm.truth("p", &["a"]), Truth::False);
    assert!(session.stats().regrounds >= 1, "must have re-ground cold");

    // Case 2: retraction under the active-domain policy shrinks the
    // domain; instances guarded only by the stripped `$dom` atom must not
    // survive.
    let mut session = engine.load("p(X) :- not q(X). r(c). r(d).").unwrap();
    let model = session.solve().unwrap();
    assert_eq!(model.truth("p", &["d"]), Truth::True);
    session.retract_facts("r(d).").unwrap();
    let warm = session.solve().unwrap();
    let cold = engine.solve("p(X) :- not q(X). r(c).").unwrap();
    assert_eq!(warm.truth("p", &["d"]), cold.truth("p", &["d"]));
    assert_eq!(warm.truth("p", &["d"]), Truth::False);
    assert!(session.stats().regrounds >= 1);

    // The cold fallback still round-trips: re-asserting restores.
    session.assert_facts("r(d).").unwrap();
    let model = session.solve().unwrap();
    assert_eq!(model.truth("p", &["d"]), Truth::True);
}

/// Cold fallbacks re-ground from the session's *current* fact set: a fact
/// asserted warm survives a later cold retract, and a fact retracted warm
/// stays gone through a later cold assert. (Regression: the warm paths
/// once updated only the grounder, so the retained AST went stale and the
/// cold fallback silently undid warm updates.)
#[test]
fn cold_fallback_sees_warm_updates() {
    use afp::SafetyPolicy;

    // Warm assert, then a cold retract (retraction under the
    // active-domain policy re-grounds): r(c) must survive the re-ground.
    let engine = Engine::builder().safety(SafetyPolicy::ActiveDomain).build();
    let mut session = engine.load("p(X) :- not q(X). q(a). r(b).").unwrap();
    session.solve().unwrap();
    session.assert_facts("r(c).").unwrap();
    assert_eq!(session.stats().regrounds, 0, "assert stays warm");
    session.retract_facts("q(a).").unwrap();
    assert!(
        session.stats().regrounds >= 1,
        "active-domain retract goes cold"
    );
    let warm = session.solve().unwrap();
    let cold = engine.solve("p(X) :- not q(X). r(b). r(c).").unwrap();
    for atom in ["a", "b", "c"] {
        assert_eq!(
            warm.truth("p", &[atom]),
            cold.truth("p", &[atom]),
            "p({atom})"
        );
        assert_eq!(
            warm.truth("r", &[atom]),
            cold.truth("r", &[atom]),
            "r({atom})"
        );
        assert_eq!(
            warm.truth("q", &[atom]),
            cold.truth("q", &[atom]),
            "q({atom})"
        );
    }
    assert_eq!(
        warm.truth("r", &["c"]),
        Truth::True,
        "warm-asserted fact survives the cold fallback"
    );

    // Warm retract, then a cold assert (an unkeyable pruned negative
    // literal re-grounds): s(b) must not be resurrected by the re-ground.
    let engine = Engine::default();
    let mut session = engine
        .load("p(X) :- e(X), not q(f(X)). e(a). s(b).")
        .unwrap();
    session.solve().unwrap();
    session.retract_facts("s(b).").unwrap();
    assert_eq!(session.stats().regrounds, 0, "retract stays warm");
    session.assert_facts("q(f(a)).").unwrap();
    assert!(session.stats().regrounds >= 1, "unkeyable assert goes cold");
    let warm = session.solve().unwrap();
    let cold = engine
        .solve("p(X) :- e(X), not q(f(X)). e(a). q(f(a)).")
        .unwrap();
    assert_eq!(warm.truth("p", &["a"]), cold.truth("p", &["a"]));
    assert_eq!(warm.truth("p", &["a"]), Truth::False);
    assert_eq!(
        warm.truth("s", &["b"]),
        Truth::False,
        "warm-retracted fact stays gone through the cold fallback"
    );
}

/// The explain hook renders justifications for explainable semantics and
/// degrades to `None` for non-replayable ones.
#[test]
fn explain_hook() {
    let engine = Engine::default();
    let mut session = engine
        .load("e(a,b). p(a,b) :- e(a,b). np(a,b) :- not p(a,b).")
        .unwrap();
    let wfs = session.solve().unwrap();
    let tree = wfs
        .explain("p", &["a", "b"], 3)
        .expect("wfs is explainable");
    assert!(tree.contains("TRUE"));
    assert!(wfs.explain("nosuch", &[], 3).is_none());

    // The inflationary fixpoint wrongly concludes np(a,b) (Example 2.2) —
    // a conclusion that is not S_P-replayable, so explain declines.
    let ifp = session.solve_with(Semantics::Inflationary).unwrap();
    assert_eq!(ifp.truth("np", &["a", "b"]), Truth::True);
    assert!(ifp.explain("np", &["a", "b"], 3).is_none());
}

/// Stable solving reports the cautious collapse in the unified model.
#[test]
fn stable_cautious_collapse() {
    let model = Engine::new(ALL_STABLE)
        .solve("p :- not q. q :- not p. r :- p. r :- q. s :- not r.")
        .unwrap();
    assert_eq!(model.stable_models().len(), 2);
    assert_eq!(model.truth("r", &[]), Truth::True); // in both models
    assert_eq!(model.truth("s", &[]), Truth::False); // in neither
    assert_eq!(model.truth("p", &[]), Truth::Undefined); // in one
    assert!(!model.is_total());

    // No stable model: empty list, everything undefined.
    let none = Engine::new(ALL_STABLE)
        .solve("a :- not b. b :- not c. c :- not a.")
        .unwrap();
    assert!(none.stable_models().is_empty());
    assert_eq!(none.truth("a", &[]), Truth::Undefined);

    // max_models caps enumeration and reports incompleteness.
    let capped = Engine::new(Semantics::Stable { max_models: 1 })
        .solve("p :- not q. q :- not p.")
        .unwrap();
    assert_eq!(capped.stable_models().len(), 1);
}

/// Warm seeding is an optimization only: an adversarial mix of asserts,
/// retracts and re-solves always matches a cold solve of the final state.
#[test]
fn warm_resolves_match_cold_under_update_sequences() {
    let engine = Engine::default();
    let base = "wins(X) :- move(X, Y), not wins(Y).\n";
    let mut session = engine
        .load(&format!("{base}move(n0, n1). move(n1, n0)."))
        .unwrap();
    session.solve().unwrap();

    let mut live = vec![("n0", "n1"), ("n1", "n0")];
    let script: &[(&str, &str, bool)] = &[
        ("n1", "n2", true),
        ("n2", "n3", true),
        ("n1", "n0", false),
        ("n3", "n4", true),
        ("n2", "n3", false),
        ("n0", "n1", false),
        ("n2", "n3", true),
    ];
    for &(u, v, add) in script {
        if add {
            session.assert_facts(&format!("move({u}, {v}).")).unwrap();
            live.push((u, v));
        } else {
            session.retract_facts(&format!("move({u}, {v}).")).unwrap();
            live.retain(|&e| e != (u, v));
        }
        let warm = session.solve().unwrap();
        let cold_src = live.iter().fold(base.to_string(), |mut acc, (u, v)| {
            acc.push_str(&format!("move({u}, {v}).\n"));
            acc
        });
        let cold = engine.solve(&cold_src).unwrap();
        for n in ["n0", "n1", "n2", "n3", "n4"] {
            assert_eq!(
                warm.truth("wins", &[n]),
                cold.truth("wins", &[n]),
                "wins({n}) after {script:?} step ({u},{v},{add})"
            );
        }
    }
    assert_eq!(session.stats().regrounds, 0);
}

/// Satellite regression (PR 4): a read-only re-solve performs **zero**
/// deep clones — the returned model and ground snapshot are the same
/// allocations as the previous solve's (pointer copies), and the stats
/// counters say the memo served it.
#[test]
fn read_only_resolve_is_a_pointer_copy() {
    let mut session = Engine::default()
        .load("wins(X) :- move(X, Y), not wins(Y). move(a, b). move(b, a). move(b, c).")
        .unwrap();
    let first = session.solve().unwrap();
    assert_eq!(session.stats().snapshot_clones, 1);
    assert_eq!(session.stats().snapshot_reuses, 0);

    let second = session.solve().unwrap();
    assert!(
        std::ptr::eq(first.partial_model(), second.partial_model()),
        "re-solve must share the previous model allocation"
    );
    assert!(
        std::ptr::eq(first.ground(), second.ground()),
        "re-solve must share the previous program snapshot"
    );
    assert_eq!(second.truth("wins", &["b"]), Truth::True);
    assert_eq!(session.stats().snapshot_clones, 1, "no new snapshot");
    assert_eq!(session.stats().snapshot_reuses, 1);

    // A mutation re-materializes (cheaply, via CoW) …
    session.assert_facts("move(c, d).").unwrap();
    let third = session.solve().unwrap();
    assert!(!std::ptr::eq(second.partial_model(), third.partial_model()));
    assert_eq!(session.stats().snapshot_clones, 2);
    assert_eq!(third.truth("wins", &["c"]), Truth::True);
    // … and the pinned old model still answers for its own version.
    assert_eq!(second.truth("wins", &["c"]), Truth::False);

    // The memo serves the new version thereafter. The global oracle is
    // computed cold instead, and agrees with it.
    let fourth = session.solve().unwrap();
    assert!(std::ptr::eq(third.partial_model(), fourth.partial_model()));
    assert_eq!(session.stats().snapshot_reuses, 2);
    let global = session
        .solve_with(Semantics::WellFounded {
            strategy: WfStrategy::Global(Strategy::default()),
        })
        .unwrap();
    assert!(!std::ptr::eq(third.partial_model(), global.partial_model()));
    assert_eq!(global.partial_model(), third.partial_model());
    assert_eq!(session.stats().snapshot_reuses, 2);

    // Non-WFS semantics bypass the memo (different model object) without
    // disturbing it.
    let fitting = session.solve_with(Semantics::Fitting).unwrap();
    assert!(!std::ptr::eq(
        third.partial_model(),
        fitting.partial_model()
    ));
    let fifth = session.solve().unwrap();
    assert!(std::ptr::eq(third.partial_model(), fifth.partial_model()));
}
