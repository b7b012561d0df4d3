//! Random-delta differential for the change-driven warm solve.
//!
//! Each seed loads a random propositional program (3–15 atoms, up to 26
//! rules with positive and negative bodies) and replays 30 random deltas
//! against it: rule and fact asserts and retracts, one or two statements
//! at a time. Random rules merge and split strongly connected components,
//! and a retract can flip an atom that many components read. After every
//! step the warm per-SCC model must have the same true and undefined
//! atoms as two cold solves: a fresh `Engine::load` of the session's
//! source text and the global alternating fixpoint over the session's
//! own ground program.

use afp::{Engine, Model, Semantics, Strategy, WfStrategy};

const GLOBAL: Semantics = Semantics::WellFounded {
    strategy: WfStrategy::Global(Strategy::Naive),
};

/// Deterministic xorshift for programs and delta scripts.
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
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A random statement over atoms `a0..a{atoms-1}`: a fact when the body
/// comes out empty, else a rule of up to three literals.
fn statement(rng: &mut Rng, atoms: usize) -> String {
    let head = format!("a{}", rng.below(atoms));
    let body: Vec<String> = (0..rng.below(4))
        .map(|_| {
            let atom = rng.below(atoms);
            if rng.next().is_multiple_of(2) {
                format!("not a{atom}")
            } else {
                format!("a{atom}")
            }
        })
        .collect();
    if body.is_empty() {
        format!("{head}.")
    } else {
        format!("{head} :- {}.", body.join(", "))
    }
}

/// The true and the undefined atoms of a model, each sorted.
fn verdicts(model: &Model) -> (Vec<String>, Vec<String>) {
    let mut true_atoms: Vec<String> = model.true_atoms().collect();
    let mut undefined: Vec<String> = model.undefined_atoms().collect();
    true_atoms.sort();
    undefined.sort();
    (true_atoms, undefined)
}

#[test]
fn warm_solves_match_cold_after_random_deltas() {
    let engine = Engine::default();
    let mut evaluated = 0usize;
    let mut components = 0usize;
    for seed in 0..400u64 {
        let mut rng = Rng::new(seed);
        let atoms = 3 + rng.below(13);
        let mut stated: Vec<String> = (0..rng.below(27))
            .map(|_| statement(&mut rng, atoms))
            .collect();
        let mut session = engine.load(&stated.join("\n")).unwrap();
        session.solve().unwrap();
        for step in 0..30 {
            let batch: Vec<String> = (0..1 + rng.below(2))
                .map(|_| match rng.below(3) {
                    0 if !stated.is_empty() => stated[rng.below(stated.len())].clone(),
                    1 => format!("a{}.", rng.below(atoms)),
                    _ => statement(&mut rng, atoms),
                })
                .collect();
            let text = batch.join(" ");
            let facts_only = batch.iter().all(|s| !s.contains(":-"));
            let result = match (rng.below(2), facts_only) {
                (0, true) => session.assert_facts(&text),
                (0, false) => session.assert_rules(&text),
                (_, true) => session.retract_facts(&text),
                (_, false) => session.retract_rules(&text),
            };
            result.unwrap_or_else(|e| panic!("seed {seed} step {step} `{text}`: {e}"));
            stated.extend(batch);

            let warm = session.solve().unwrap();
            evaluated += session.stats().last_components_evaluated;
            components += session.stats().last_components;
            let context = format!("seed {seed} step {step} after `{text}`");
            let global = session.solve_with(GLOBAL).unwrap();
            assert_eq!(
                warm.partial_model(),
                global.partial_model(),
                "warm vs global oracle, {context}"
            );
            let cold = engine.solve(&session.source_text()).unwrap();
            assert_eq!(
                verdicts(&warm),
                verdicts(&cold),
                "warm vs cold load, {context}"
            );
        }
    }
    assert!(
        evaluated < components,
        "warm solves re-evaluate fewer components than they hold ({evaluated} of {components})"
    );
}
