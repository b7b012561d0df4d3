//! Property tests for the substrate: bitsets against a `BTreeSet` model,
//! parser round-trips over arbitrary ASTs, and semi-naive evaluation
//! against naive ground-level closure.

use afp_datalog::ast::{Atom, Literal, Program, Rule, Term};
use afp_datalog::bitset::AtomSet;
use afp_datalog::parser::parse_program;
use proptest::prelude::*;
use std::collections::BTreeSet;

// ---------------------------------------------------------------- bitset

fn set_pair() -> impl Strategy<Value = (usize, Vec<u32>, Vec<u32>)> {
    (1usize..200).prop_flat_map(|n| {
        (
            Just(n),
            proptest::collection::vec(0..n as u32, 0..n),
            proptest::collection::vec(0..n as u32, 0..n),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn bitset_matches_btreeset((n, xs, ys) in set_pair()) {
        let a = AtomSet::from_iter(n, xs.iter().copied());
        let b = AtomSet::from_iter(n, ys.iter().copied());
        let ra: BTreeSet<u32> = xs.iter().copied().collect();
        let rb: BTreeSet<u32> = ys.iter().copied().collect();

        prop_assert_eq!(a.count(), ra.len());
        prop_assert_eq!(
            a.union(&b).iter().collect::<Vec<_>>(),
            ra.union(&rb).copied().collect::<Vec<_>>()
        );
        prop_assert_eq!(
            a.intersection(&b).iter().collect::<Vec<_>>(),
            ra.intersection(&rb).copied().collect::<Vec<_>>()
        );
        prop_assert_eq!(
            a.difference(&b).iter().collect::<Vec<_>>(),
            ra.difference(&rb).copied().collect::<Vec<_>>()
        );
        prop_assert_eq!(a.is_subset(&b), ra.is_subset(&rb));
        prop_assert_eq!(a.is_disjoint(&b), ra.is_disjoint(&rb));
        // Complement laws.
        prop_assert_eq!(a.complement().complement(), a.clone());
        prop_assert_eq!(a.complement().count(), n - ra.len());
        prop_assert!(a.complement().is_disjoint(&a));
    }

    #[test]
    fn bitset_insert_remove((n, xs, _) in set_pair()) {
        let mut s = AtomSet::empty(n);
        let mut model: BTreeSet<u32> = BTreeSet::new();
        for x in xs {
            prop_assert_eq!(s.insert(x), model.insert(x));
        }
        for x in model.clone() {
            prop_assert!(s.contains(x));
            prop_assert!(s.remove(x));
            prop_assert!(!s.remove(x));
        }
        prop_assert!(s.is_empty());
    }
}

// ---------------------------------------------------------------- parser

/// Generate a random (well-formed) program AST and check that rendering
/// then reparsing is a fixpoint of rendering.
fn ast_strategy() -> impl Strategy<Value = Program> {
    let pred_names = prop_oneof![
        Just("p"),
        Just("q"),
        Just("edge"),
        Just("wins"),
        Just("a_b1")
    ];
    let const_names = prop_oneof![
        Just("a"),
        Just("b"),
        Just("c42"),
        Just("two words"),
        Just("It's"),
        Just("42")
    ];
    let var_names = prop_oneof![Just("X"), Just("Y"), Just("_Z")];
    let term = prop_oneof![
        const_names.clone().prop_map(TermDesc::Const),
        var_names.prop_map(TermDesc::Var),
        const_names.prop_map(|c| TermDesc::App("f", vec![TermDesc::Const(c)])),
    ];
    let atom = (pred_names, proptest::collection::vec(term, 0..3));
    let literal = (atom.clone(), any::<bool>());
    let rule = (atom, proptest::collection::vec(literal, 0..3));
    proptest::collection::vec(rule, 0..6).prop_map(|rules| {
        let mut p = Program::new();
        for ((hp, hargs), body) in rules {
            let head = build_atom(&mut p, hp, &hargs);
            let lits = body
                .into_iter()
                .map(|((bp, bargs), positive)| {
                    let atom = build_atom(&mut p, bp, &bargs);
                    Literal { atom, positive }
                })
                .collect();
            p.push(Rule::new(head, lits));
        }
        p
    })
}

#[derive(Debug, Clone)]
enum TermDesc {
    Const(&'static str),
    Var(&'static str),
    App(&'static str, Vec<TermDesc>),
}

fn build_term(p: &mut Program, d: &TermDesc) -> Term {
    match d {
        TermDesc::Const(c) => Term::Const(p.symbols.intern(c)),
        TermDesc::Var(v) => Term::Var(p.symbols.intern(v)),
        TermDesc::App(f, args) => {
            let fs = p.symbols.intern(f);
            let ts = args.iter().map(|a| build_term(p, a)).collect();
            Term::App(fs, ts)
        }
    }
}

fn build_atom(p: &mut Program, pred: &str, args: &[TermDesc]) -> Atom {
    let ps = p.symbols.intern(pred);
    let ts = args.iter().map(|a| build_term(p, a)).collect();
    Atom::new(ps, ts)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn display_parse_roundtrip(ast in ast_strategy()) {
        let text1 = ast.to_text();
        let reparsed = parse_program(&text1).unwrap_or_else(|e| {
            panic!("rendered program failed to parse: {e}\n{text1}")
        });
        let text2 = reparsed.to_text();
        prop_assert_eq!(text1, text2, "render ∘ parse must be a fixpoint");
    }
}

// ------------------------------------------------- grounding vs ground AST

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn positive_seminaive_agrees_with_ground_horn(
        edges in proptest::collection::vec((0u8..5, 0u8..5), 0..12)
    ) {
        // tc over a random small graph: evaluate with the relational
        // semi-naive engine (via the grounder's envelope) and compare to
        // the Horn closure of the *manually* instantiated program.
        let mut src = String::from(
            "tc(X, Y) :- e(X, Y).\n tc(X, Y) :- e(X, Z), tc(Z, Y).\n",
        );
        for &(u, v) in &edges {
            src.push_str(&format!("e(c{u}, c{v}).\n"));
        }
        let ast = parse_program(&src).unwrap();
        let env = afp_datalog::ground::positive_envelope(
            &ast,
            &afp_datalog::GroundOptions::default(),
        ).unwrap();
        let tc = ast.symbols.get("tc");
        let seminaive_count = tc
            .and_then(|t| env.relation(t, 2))
            .map(|r| r.len())
            .unwrap_or(0);

        // Reference: Floyd–Warshall style closure.
        let mut reach = [[false; 5]; 5];
        for &(u, v) in &edges {
            reach[u as usize][v as usize] = true;
        }
        for k in 0..5 {
            for i in 0..5 {
                for j in 0..5 {
                    if reach[i][k] && reach[k][j] {
                        reach[i][j] = true;
                    }
                }
            }
        }
        let expected = reach.iter().flatten().filter(|&&b| b).count();
        prop_assert_eq!(seminaive_count, expected);
    }
}
