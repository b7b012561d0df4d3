//! Differential test of the grounder's statement set, read through
//! `Session::source_text`: after every step of a seeded assert/retract
//! script, the session's `source_text` must load cold into the same
//! true and undefined atoms as the warm session, and must hold every
//! present statement exactly once.
//!
//! The scripts cover duplicate facts in the load text, facts asserted
//! and retracted through `assert_rules` / `retract_rules`, retracts of
//! absent statements, function-term facts, and a cold fallback
//! (`DomainShrunk`) in the middle of the script.

use std::collections::BTreeSet;

use afp::datalog::ast::display_rule;
use afp::datalog::parse_program;
use afp::{Engine, SafetyPolicy, Session};

/// `u(X) :- not q(X).` is unsafe, so the program grounds over the active
/// domain and a retract of a constant's last fact shrinks it.
const BASE: &str = "p(X) :- q(X), not r(X).
r(X) :- s(X).
u(X) :- not q(X).
q(a). q(a).
q(f(b)).
s(a).
t(c).
";

const FACTS: &[&str] = &[
    "q(a).",
    "q(b).",
    "q(f(b)).",
    "q(h(a, b)).",
    "s(a).",
    "s(b).",
    "s(f(b)).",
    "t(g(c)).",
];

const RULES: &[&str] = &[
    "r(X) :- t(X).",
    "v(X) :- q(X), not p(X).",
    "p(X) :- s(X), not u(X).",
    "q(a).",
    "s(h(a, b)).",
];

/// Deterministic xorshift.
struct Rng(u64);
impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n as u64) as usize
    }
}

/// A statement in the spelling `source_text` renders.
fn canonical(statement: &str) -> String {
    let p = parse_program(statement).unwrap();
    display_rule(&p.rules[0], &p.symbols)
}

fn names(it: impl Iterator<Item = String>) -> BTreeSet<String> {
    it.collect()
}

/// Check the session against its own source text and the expected
/// statement set.
fn check(engine: &Engine, session: &mut Session, present: &BTreeSet<String>, context: &str) {
    let text = session.source_text();
    let lines: Vec<&str> = text.lines().collect();
    for statement in present {
        let copies = lines.iter().filter(|l| **l == statement).count();
        assert_eq!(
            copies, 1,
            "{statement} appears {copies} times {context}:\n{text}"
        );
    }
    assert_eq!(
        lines.len(),
        present.len(),
        "no other statement {context}:\n{text}"
    );

    let warm = session.solve().unwrap();
    let cold = engine.load(&text).unwrap().solve().unwrap();
    assert_eq!(
        names(warm.true_atoms()),
        names(cold.true_atoms()),
        "true atoms {context}"
    );
    assert_eq!(
        names(warm.undefined_atoms()),
        names(cold.undefined_atoms()),
        "undefined atoms {context}"
    );
}

#[test]
fn warm_mirror_matches_a_cold_load_of_its_source_text() {
    let engine = Engine::builder().safety(SafetyPolicy::ActiveDomain).build();
    for seed in 1..=8u64 {
        let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
        let mut session = engine.load(BASE).unwrap();
        let mut present: BTreeSet<String> = BASE
            .split_inclusive('.')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(canonical)
            .collect();
        check(
            &engine,
            &mut session,
            &present,
            &format!("(seed {seed}, load)"),
        );
        for step in 0..24 {
            let context = format!("(seed {seed}, step {step})");
            if step == 12 {
                // Give `c` a second fact, then retract both: the active
                // domain shrinks and the session re-grounds cold.
                let regrounds = session.stats().regrounds;
                session.assert_facts("t(c).").unwrap();
                session.retract_facts("t(c). t(g(c)).").unwrap();
                present.remove(&canonical("t(c)."));
                present.remove(&canonical("t(g(c))."));
                assert_eq!(
                    session.stats().regrounds,
                    regrounds + 1,
                    "the retract took the cold fallback {context}"
                );
                check(&engine, &mut session, &present, &context);
                continue;
            }
            let rule = rng.below(2) == 0;
            let pool = if rule { RULES } else { FACTS };
            let statement = pool[rng.below(pool.len())];
            let assert = rng.below(3) != 0;
            match (rule, assert) {
                (false, true) => session.assert_facts(statement),
                (false, false) => session.retract_facts(statement),
                (true, true) => session.assert_rules(statement),
                (true, false) => session.retract_rules(statement),
            }
            .unwrap();
            if assert {
                present.insert(canonical(statement));
            } else {
                present.remove(&canonical(statement));
            }
            check(&engine, &mut session, &present, &context);
        }
    }
}
