//! Warm per-SCC re-solves agree with the global alternating fixpoint.
//!
//! Components are solved in one loop in topological order, and a warm
//! re-solve copies every component outside the delta's forward cone.
//! These tests replay mutation scripts against live sessions and check
//! the warm model after every step:
//!
//! * engine-level differential — identical seeded fact *and rule* update
//!   scripts replayed against an SCC-stratified session and a global one,
//!   comparing full partial models after every step (warm cone re-solves
//!   included);
//! * warm-cone round trip — retracting and re-asserting one fact of a
//!   knot chain re-solves only its cone and restores the cold model.

use afp::{Engine, Semantics, Session, Strategy, Truth, WfStrategy};
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

/// One mutation step of the random script, applied identically to every
/// session under test.
enum Step {
    AssertFact(String),
    RetractFact(String),
    AssertRule(String),
    RetractRule(String),
}

/// Generate a seeded fact+rule script over the `wins/move` game program.
/// Rule steps toggle an extra derived layer (`safe(X) :- not wins(X).`
/// flavoured) so condensation repairs and rule-delta cones are exercised,
/// not just fact flips.
fn random_script(seed: u64, steps: usize) -> Vec<Step> {
    let mut rng = Rng::new(seed);
    let mut live_edges: Vec<(u32, u32)> = vec![(0, 1), (1, 2)];
    let mut rule_in = false;
    let mut script = Vec::new();
    for _ in 0..steps {
        match rng.next() % 8 {
            0..=2 => {
                let u = (rng.next() % 6) as u32;
                let v = (rng.next() % 6) as u32;
                if u != v {
                    live_edges.push((u, v));
                    script.push(Step::AssertFact(format!("move(n{u}, n{v}).")));
                }
            }
            3 | 4 => {
                if !live_edges.is_empty() {
                    let i = (rng.next() as usize) % live_edges.len();
                    let (u, v) = live_edges.swap_remove(i);
                    script.push(Step::RetractFact(format!("move(n{u}, n{v}).")));
                }
            }
            5 => {
                let u = (rng.next() % 6) as u32;
                script.push(Step::AssertFact(format!("pinned(n{u}).")));
            }
            _ => {
                if rule_in {
                    script.push(Step::RetractRule(EXTRA_RULE.into()));
                } else {
                    script.push(Step::AssertRule(EXTRA_RULE.into()));
                }
                rule_in = !rule_in;
            }
        }
    }
    script
}

const BASE: &str = "wins(X) :- move(X, Y), not wins(Y).\n\
                    pinned(n0).\n\
                    move(n0, n1). move(n1, n2).";
const EXTRA_RULE: &str = "safe(X) :- pinned(X), not wins(X).";

fn apply(session: &mut Session, step: &Step) {
    match step {
        Step::AssertFact(t) => session.assert_facts(t).unwrap(),
        Step::RetractFact(t) => session.retract_facts(t).unwrap(),
        Step::AssertRule(t) => session.assert_rules(t).unwrap(),
        Step::RetractRule(t) => session.retract_rules(t).unwrap(),
    }
}

/// Engine-level differential: the same seeded script replayed against an
/// SCC-stratified session and a global one produces the same partial
/// model after every step, warm cone re-solves included.
#[test]
fn update_scripts_scc_matches_global_after_every_step() {
    for seed in 0..5u64 {
        let script = random_script(seed, 14);
        let mut scc = Engine::default().load(BASE).unwrap();
        let mut global = Engine::default().load(BASE).unwrap();
        for (stepno, step) in script.iter().enumerate() {
            apply(&mut scc, step);
            apply(&mut global, step);
            let warm = scc.solve_with(SCC).unwrap().partial_model().clone();
            let reference = global.solve_with(GLOBAL).unwrap().partial_model().clone();
            assert_eq!(reference, warm, "divergence at seed {seed} step {stepno}");
        }
        assert!(scc.stats().scc_solves > 0);
    }
}

/// Repeated retract/assert round trips on one session re-solve only the
/// touched knot's cone, restore the cold model every time, and surface
/// the per-component counters through `SessionStats`.
#[test]
fn warm_cone_round_trips_are_stable_and_counted() {
    let src = hard_knot_chain_src(24);
    let mut session = Engine::default().load(&src).unwrap();
    let expected = session.solve().unwrap().partial_model().clone();
    let cold = *session.stats();
    assert!(cold.last_components > 0);
    assert_eq!(cold.last_components_evaluated, cold.last_components);
    assert_eq!(cold.last_components_reused, 0);

    for round in 0..6 {
        let model = session.solve().unwrap().partial_model().clone();
        assert_eq!(expected, model, "round {round} moved the model");
        // Mutate and restore so every round after the first re-solves a
        // warm cone instead of hitting the snapshot memo.
        session.retract_facts("e(k11).").unwrap();
        let holed = session.solve().unwrap();
        assert_eq!(holed.truth("a", &["k11"]), Truth::False);
        session.assert_facts("e(k11).").unwrap();
    }
    let stats = *session.stats();
    assert!(stats.warm_solves > 0, "the warm path ran");
    assert!(
        stats.last_components_reused > 0,
        "knots below k11 are copied"
    );
    assert!(stats.last_components_evaluated < stats.last_components);
    assert_eq!(
        stats.last_components_evaluated + stats.last_components_reused,
        stats.last_components
    );
}
