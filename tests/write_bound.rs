//! Work-bound regression for the warm write cycle: a one-key write on
//! the `write_edb` program shape does the same work at 10³ and at 10⁴
//! keys.
//!
//! Two writes per size, each followed by a solve:
//!
//! * an assert of `d(kI)` for an odd key, which interns `c(kI)` and
//!   `d(kI)` below the existing knot `{a(kI), b(kI)}` — the repair turns
//!   one component into three;
//! * a retract of an existing `d(kI)`.
//!
//! The session counters of both writes must match across sizes, and the
//! solve must evaluate exactly the components of the write's cone. At
//! the condensation level, the repair behind the assert must leave the
//! component id and label of every atom outside the write's knot as
//! they were: no suffix of the order is rewritten.

use afp::datalog::depgraph::{Condensation, CondensationDelta};
use afp::datalog::{
    parse_program, AtomId, GroundOptions, GroundProgram, IncrementalGrounder, RuleAssertOutcome,
};
use afp::Engine;
use afp_bench::gen::write_edb_src;

/// `(components evaluated, repair atoms, repair edges)` of one write.
type Work = (usize, usize, usize);

/// The number of components in the forward dependency cone of `seed`.
fn cone_components(prog: &GroundProgram, seed: AtomId) -> usize {
    let cond = Condensation::of(prog);
    let mut seen = vec![false; prog.atom_count()];
    let mut queue = vec![seed];
    seen[seed.index()] = true;
    while let Some(atom) = queue.pop() {
        for &rid in prog
            .rules_with_pos(atom)
            .iter()
            .chain(prog.rules_with_neg(atom))
        {
            let head = prog.rule(rid).head;
            if !seen[head.index()] {
                seen[head.index()] = true;
                queue.push(head);
            }
        }
    }
    let mut comps: Vec<u32> = (0..prog.atom_count() as u32)
        .filter(|&a| seen[a as usize])
        .map(|a| cond.component_of(a))
        .collect();
    comps.sort_unstable();
    comps.dedup();
    comps.len()
}

/// Assert a new odd key, then retract an even one, on a `keys`-key
/// session; returns the work counters of both writes.
fn session_writes(keys: usize) -> [Work; 2] {
    let engine = Engine::default();
    let mut session = engine.load(&write_edb_src(keys)).unwrap();
    session.solve().unwrap();
    let odd = keys / 2 + 1;
    let mut work = Vec::new();
    for (fact, assert) in [(format!("d(k{odd})."), true), ("d(k0).".to_string(), false)] {
        if assert {
            session.assert_facts(&fact).unwrap();
        } else {
            session.retract_facts(&fact).unwrap();
        }
        session.solve().unwrap();
        let stats = session.stats();
        let key = fact.trim_start_matches("d(").trim_end_matches(").");
        let d = session.ground().find_atom_by_name("d", &[key]).unwrap();
        let cone = cone_components(session.ground(), d);
        assert_eq!(
            cone, 3,
            "{{d}}, {{c}} and the knot {{a, b}} ({fact}, {keys} keys)"
        );
        assert_eq!(
            stats.last_components_evaluated, cone,
            "the solve evaluates the write's cone and nothing else ({fact}, {keys} keys)"
        );
        work.push((
            stats.last_components_evaluated,
            stats.last_repair_atoms,
            stats.last_repair_edges,
        ));
    }
    [work[0], work[1]]
}

#[test]
fn one_key_writes_cost_the_same_at_every_size() {
    let small = session_writes(1_000);
    let large = session_writes(10_000);
    assert_eq!(
        small, large,
        "(evaluated, repair atoms, repair edges) of the assert and the retract"
    );
    // The assert's repair writes the knot's two atoms and the two new
    // ones; the retract's rewrites d(k0)'s singleton.
    assert_eq!(small[0].1, 4);
    assert_eq!(small[1].1, 1);
}

/// The repair behind an interning assert, driven directly: only the
/// write's knot and the new atoms change component or label.
fn repair_keeps_the_rest_of_the_order(keys: usize) -> usize {
    let program = parse_program(&write_edb_src(keys)).unwrap();
    let mut grounder = IncrementalGrounder::new(&program, &GroundOptions::default()).unwrap();
    let mut cond = Condensation::of(grounder.program());
    let old_n = grounder.program().atom_count();
    let before: Vec<(u32, u64)> = (0..old_n as u32)
        .map(|a| (cond.component_of(a), cond.label(cond.component_of(a))))
        .collect();

    let odd = keys / 2 + 1;
    let delta = parse_program(&format!("d(k{odd}).")).unwrap();
    let RuleAssertOutcome::Applied(effect) =
        grounder.assert_rules(&delta.rules, &delta.symbols).unwrap()
    else {
        panic!("a fact batch applies warm");
    };
    let prog = grounder.program();
    assert_eq!(
        prog.atom_count(),
        old_n + 2,
        "c(k{odd}) and d(k{odd}) are new"
    );
    let stats = cond.apply_delta(
        prog,
        &CondensationDelta {
            touched: &effect.changed,
            new_edge_targets: &effect.new_edge_targets,
        },
    );
    assert!(cond.is_consistent_with(prog));
    assert!(cond.same_decomposition(&Condensation::of(prog)));

    let key = format!("k{odd}");
    let knot = [
        prog.find_atom_by_name("a", &[&key]).unwrap(),
        prog.find_atom_by_name("b", &[&key]).unwrap(),
    ];
    for a in 0..old_n as u32 {
        if knot.contains(&AtomId(a)) {
            continue;
        }
        let c = cond.component_of(a);
        assert_eq!(
            (c, cond.label(c)),
            before[a as usize],
            "atom {} outside the write's knot kept its component and label ({keys} keys)",
            prog.atom_name(AtomId(a))
        );
    }
    assert_eq!(stats.components_replaced, 1);
    assert_eq!(stats.components_recomputed, 3);
    stats.atoms_visited
}

#[test]
fn an_interning_repair_rewrites_only_its_window() {
    assert_eq!(repair_keeps_the_rest_of_the_order(1_000), 4);
    assert_eq!(repair_keeps_the_rest_of_the_order(10_000), 4);
}
