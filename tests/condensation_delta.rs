//! Acceptance tests for incremental condensation maintenance
//! (`Condensation::apply_delta`): warm re-solves must patch the memoized
//! SCC decomposition in O(|delta window|) instead of rebuilding it in
//! O(|program|), without ever diverging from a from-scratch build.
//!
//! * differential, condensation level: random rule add/remove scripts
//!   over random ground programs (both literal polarities, SCC merges
//!   *and* splits, odd loops through negation) — after every mutation
//!   the repaired condensation must describe the same decomposition as
//!   `Condensation::of` of the current program and pass the full
//!   structural audit (`is_consistent_with`);
//! * differential, session level: random fact+rule delta scripts under
//!   both `WfStrategy` variants agree with a fresh load at every step
//!   while `SessionStats::condensation_builds` stays at **1** — every
//!   later mutation is a repair, not a rebuild (in debug builds the
//!   session additionally asserts repair ≡ rebuild after every single
//!   mutation);
//! * per-component memoization survives repair: components outside a
//!   delta's cone are still reused after the condensation was patched
//!   (ids inside the window may be renumbered; reuse is keyed by atom
//!   id);
//! * the repair is delta-bounded: a 1-fact delta on a k-knot chain
//!   visits a small constant number of atoms, not Θ(k).
//!
//! Component ids and order labels are an arbitrary topological labeling
//! (Tarjan renumbers freely), so "identical to a from-scratch build"
//! means: identical atom partition and a topologically valid order on
//! both sides — which is what `same_decomposition` +
//! `is_consistent_with` check.

use afp::datalog::depgraph::{Condensation, CondensationDelta};
use afp::datalog::program::parse_ground;
use afp::datalog::{AtomId, GroundProgram, RuleId};
use afp::{Engine, Semantics, Strategy, Truth, WfStrategy};
use afp_bench::gen::hard_knot_chain_src;

const SCC: Semantics = Semantics::WellFounded {
    strategy: WfStrategy::SccStratified,
};
const GLOBAL: Semantics = Semantics::WellFounded {
    strategy: WfStrategy::Global(Strategy::Naive),
};

/// Deterministic xorshift for mutation scripts.
struct Rng(u64);
impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

fn assert_repaired(cond: &Condensation, prog: &GroundProgram, context: &str) {
    assert!(
        cond.is_consistent_with(prog),
        "structural audit failed {context}"
    );
    let fresh = Condensation::of(prog);
    assert!(
        cond.same_decomposition(&fresh),
        "repair diverged from the from-scratch build {context}"
    );
}

/// Remove a rule from `prog`, returning its head and the swap-remove
/// move (the rule formerly at the returned id now lives at `rid`).
fn remove_with_rename(prog: &mut GroundProgram, rid: RuleId) -> (AtomId, Option<RuleId>) {
    let head = prog.rule(rid).head;
    let moved = prog.remove_rule(rid);
    (head, moved)
}

/// Condensation-level differential: random add/remove-rule scripts over
/// a seed program with knots, chains, and odd loops. Every mutation is
/// repaired and checked against a from-scratch build — merges (a new
/// edge closing a long cycle) and splits (removing it again) included.
#[test]
fn random_mutation_scripts_repair_exactly() {
    // Atoms a0..a9; the seed program mixes decided chains, a 2-knot, and
    // an odd loop, so windows cross components of every flavour.
    let seed_src = "a0. a1 :- a0. a2 :- a1, not a3. a3 :- not a2.
                    a4 :- a2. a5 :- not a5, a4. a6 :- a5. a7 :- a6. a8. a9 :- a8, not a0.";
    for seed in 1..12u64 {
        let mut rng = Rng::new(seed);
        let mut prog = parse_ground(seed_src);
        let mut cond = Condensation::of(&prog);
        let atoms: Vec<AtomId> = (0..10)
            .map(|i| prog.find_atom_by_name(&format!("a{i}"), &[]).unwrap())
            .collect();
        // Rules this script added, as (rid, head) — removal candidates.
        let mut added: Vec<RuleId> = Vec::new();
        for step in 0..40 {
            let context = format!("(seed {seed}, step {step})");
            if !rng.next().is_multiple_of(3) || added.is_empty() {
                // Add a random rule: random head, 0..3 body literals of
                // random polarity — long back-edges merge components.
                let head = atoms[(rng.next() % 10) as usize];
                let mut pos = Vec::new();
                let mut neg = Vec::new();
                let mut targets = Vec::new();
                for _ in 0..(rng.next() % 3) {
                    let b = atoms[(rng.next() % 10) as usize];
                    targets.push(b);
                    if rng.next().is_multiple_of(2) {
                        pos.push(b);
                    } else {
                        neg.push(b);
                    }
                }
                let rid = prog.push_rule(head, pos, neg);
                added.push(rid);
                cond.apply_delta(
                    &prog,
                    &CondensationDelta {
                        touched: &[head],
                        new_edge_targets: &targets,
                    },
                );
            } else {
                // Remove one of the added rules (splits what its edge
                // merged). The swap-remove may rename another added rid.
                let ix = (rng.next() % added.len() as u64) as usize;
                let rid = added.swap_remove(ix);
                let (head, moved) = remove_with_rename(&mut prog, rid);
                if let Some(from) = moved {
                    for a in added.iter_mut() {
                        if *a == from {
                            *a = rid;
                        }
                    }
                }
                cond.apply_delta(
                    &prog,
                    &CondensationDelta {
                        touched: &[head],
                        new_edge_targets: &[],
                    },
                );
            }
            assert_repaired(&cond, &prog, &context);
        }
    }
}

/// Merge a whole chain into one big SCC with a single back-edge, then
/// split it again — the window spans every chain component both times.
#[test]
fn chain_collapse_and_split() {
    let k = 24;
    let mut src = String::from("c0.\n");
    for i in 1..k {
        src.push_str(&format!("c{i} :- c{}.\n", i - 1));
    }
    let mut prog = parse_ground(&src);
    let mut cond = Condensation::of(&prog);
    assert_eq!(cond.len(), k);
    let first = prog.find_atom_by_name("c0", &[]).unwrap();
    let last = prog.find_atom_by_name(&format!("c{}", k - 1), &[]).unwrap();

    // Back-edge c0 :- not c{k-1}: everything merges into one odd knot.
    let rid = prog.push_rule(first, vec![], vec![last]);
    let stats = cond.apply_delta(
        &prog,
        &CondensationDelta {
            touched: &[first],
            new_edge_targets: &[last],
        },
    );
    assert_repaired(&cond, &prog, "(merge)");
    assert_eq!(cond.len(), 1);
    assert_eq!(cond.largest(), k);
    assert_eq!(stats.components_replaced, k);
    assert_eq!(stats.components_recomputed, 1);

    // Remove it: the knot splits back into k singletons.
    let (head, _) = remove_with_rename(&mut prog, rid);
    let stats = cond.apply_delta(
        &prog,
        &CondensationDelta {
            touched: &[head],
            new_edge_targets: &[],
        },
    );
    assert_repaired(&cond, &prog, "(split)");
    assert_eq!(cond.len(), k);
    assert_eq!(stats.components_recomputed, k);
}

/// Session-level differential under both strategies: random fact+rule
/// scripts agree with a fresh load at every step, and the SCC session
/// never rebuilds its condensation after the first solve.
#[test]
fn session_scripts_repair_instead_of_rebuilding() {
    const RULE_POOL: &[&str] = &[
        "reach(X) :- move(n0, X).",
        "reach(X) :- move(Y, X), reach(Y).",
        "win(X) :- bonus(X).",
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
    ];
    let base = "win(X) :- move(X, Y), not win(Y).\nmove(n0, n1). move(n1, n2).\n";
    for strategy in [SCC, GLOBAL] {
        let engine = Engine::builder().semantics(strategy).build();
        for seed in 1..6u64 {
            let mut rng = Rng::new(seed);
            let mut live_rules: Vec<&str> = Vec::new();
            let mut live_facts: Vec<&str> = vec!["move(n0, n1).", "move(n1, n2)."];
            let mut session = engine.load(base).unwrap();
            session.solve().unwrap();
            for step in 0..14 {
                match rng.next() % 4 {
                    0 => {
                        let r = RULE_POOL[(rng.next() % RULE_POOL.len() as u64) as usize];
                        session.assert_rules(r).unwrap();
                        if !live_rules.contains(&r) {
                            live_rules.push(r);
                        }
                    }
                    1 => {
                        if let Some(&r) = live_rules.last() {
                            session.retract_rules(r).unwrap();
                            live_rules.pop();
                        }
                    }
                    2 => {
                        let f = FACT_POOL[(rng.next() % FACT_POOL.len() as u64) as usize];
                        session.assert_facts(f).unwrap();
                        if !live_facts.contains(&f) {
                            live_facts.push(f);
                        }
                    }
                    _ => {
                        if let Some(&f) = live_facts.last() {
                            session.retract_facts(f).unwrap();
                            live_facts.pop();
                        }
                    }
                }
                let warm = session.solve().unwrap();
                let cold_src = format!(
                    "win(X) :- move(X, Y), not win(Y).\n{}\n{}\n",
                    live_rules.join("\n"),
                    live_facts.join(" ")
                );
                let cold = engine.load(&cold_src).unwrap().solve().unwrap();
                for pred in ["p", "q", "odd"] {
                    assert_eq!(
                        warm.truth(pred, &[]),
                        cold.truth(pred, &[]),
                        "{pred} diverged (seed {seed}, step {step})"
                    );
                }
                for n in 0..5 {
                    for pred in ["win", "reach", "bonus"] {
                        let arg = format!("n{n}");
                        assert_eq!(
                            warm.truth(pred, &[&arg]),
                            cold.truth(pred, &[&arg]),
                            "{pred}({arg}) diverged (seed {seed}, step {step})"
                        );
                    }
                }
            }
            let stats = session.stats();
            assert_eq!(stats.regrounds, 0, "the whole script stays warm");
            match strategy {
                Semantics::WellFounded {
                    strategy: WfStrategy::SccStratified,
                } => {
                    assert_eq!(
                        stats.condensation_builds, 1,
                        "every mutation after the first solve is a repair (seed {seed})"
                    );
                    assert!(stats.condensation_repairs > 0);
                }
                _ => assert_eq!(
                    stats.condensation_builds, 0,
                    "the global strategy never condenses"
                ),
            }
        }
    }
}

/// Per-component memoization survives repair: after a 1-fact delta on a
/// knot chain, the repaired condensation still lets the warm solve copy
/// every component outside the delta's cone verbatim (reuse is keyed by
/// atom id, so the window's renumbering is irrelevant), and the repair
/// itself touches a small window, not the program.
#[test]
fn memoized_components_survive_repair_and_repair_is_delta_bounded() {
    let k = 128;
    let engine = Engine::default();
    let mut session = engine.load(&hard_knot_chain_src(k)).unwrap();
    session.solve().unwrap();
    assert_eq!(session.stats().condensation_builds, 1);

    let fact = format!("e(k{}).", k - 1);
    session.retract_facts(&fact).unwrap();
    session.solve().unwrap();
    session.assert_facts(&fact).unwrap();
    let model = session.solve().unwrap();
    assert_eq!(model.truth("a", &[&format!("k{}", k - 1)]), Truth::True);

    let stats = session.stats();
    assert_eq!(stats.condensation_builds, 1, "repairs, not rebuilds");
    assert_eq!(stats.condensation_repairs, 2);
    let atoms = session.ground().atom_count();
    assert!(
        stats.last_repair_atoms * 10 < atoms,
        "a leaf delta's repair window ({} atoms) must stay under 10% of the program ({atoms} atoms)",
        stats.last_repair_atoms
    );
    assert!(
        stats.last_components_reused * 10 >= stats.last_components * 9,
        "at least 90% of components copied verbatim ({} of {})",
        stats.last_components_reused,
        stats.last_components
    );
}

/// Ground-rule deltas on a session loaded from a rendered ground program
/// go through the same repair path.
#[test]
fn load_ground_sessions_repair_too() {
    let engine = Engine::default();
    let ground = parse_ground("p :- not q. q :- not p. r :- p. s.");
    let mut session = engine.load(&ground.to_string()).unwrap();
    session.solve().unwrap();
    assert_eq!(session.stats().condensation_builds, 1);

    session.assert_rules("p :- s, not r.").unwrap();
    let model = session.solve().unwrap();
    assert_eq!(model.truth("s", &[]), Truth::True);
    session.retract_rules("p :- s, not r.").unwrap();
    session.assert_facts("t.").unwrap(); // a brand-new atom
    let model = session.solve().unwrap();
    assert_eq!(model.truth("t", &[]), Truth::True);

    let stats = session.stats();
    assert_eq!(stats.condensation_builds, 1);
    assert_eq!(stats.condensation_repairs, 3);
}
