//! The grounder's envelope pruning is semantics-preserving: solving the
//! relevance-grounded program gives the same well-founded truth value for
//! every atom as solving the full Herbrand instantiation (atoms the
//! grounder never materializes are false).
//!
//! Random non-ground programs over a fixed active domain {a, b, c} are
//! instantiated both ways and compared atom by atom.

use afp::core::alternating_fixpoint;
use afp::Truth;
use afp_datalog::ast::{Atom, Literal, Program, Rule, Term};
use afp_datalog::ground::{ground_with, GroundOptions, SafetyPolicy};
use afp_datalog::program::GroundProgramBuilder;
use afp_datalog::symbol::Symbol;
use proptest::prelude::*;

const CONSTS: [&str; 3] = ["a", "b", "c"];
const PREDS: [(&str, usize); 4] = [("p", 1), ("q", 1), ("r", 2), ("e", 2)];

/// Compact description of a random rule, decoded into the AST later.
/// Terms: 0..3 = constants a/b/c, 3 = X, 4 = Y.
#[derive(Debug, Clone)]
struct RuleDesc {
    head_pred: usize,
    head_args: Vec<u8>,
    body: Vec<(usize, Vec<u8>, bool)>,
}

fn term(program: &mut Program, code: u8) -> Term {
    match code {
        0..=2 => Term::Const(program.symbols.intern(CONSTS[code as usize])),
        3 => Term::Var(program.symbols.intern("X")),
        _ => Term::Var(program.symbols.intern("Y")),
    }
}

fn build_program(descs: &[RuleDesc], fact_bits: u8) -> Program {
    let mut program = Program::new();
    // A few e/2 facts so the EDB is non-trivial and the active domain is
    // always {a, b, c}.
    for (i, &c1) in CONSTS.iter().enumerate() {
        if fact_bits & (1 << i) != 0 {
            let e = program.symbols.intern("e");
            let a1 = program.symbols.intern(c1);
            let a2 = program.symbols.intern(CONSTS[(i + 1) % 3]);
            program.push(Rule::fact(Atom::new(
                e,
                vec![Term::Const(a1), Term::Const(a2)],
            )));
        }
    }
    let seed = program.symbols.intern("seed");
    for c in CONSTS {
        let s = program.symbols.intern(c);
        program.push(Rule::fact(Atom::new(seed, vec![Term::Const(s)])));
    }
    for d in descs {
        let (hp, harity) = PREDS[d.head_pred];
        let hsym = program.symbols.intern(hp);
        let head_args: Vec<Term> = d.head_args[..harity]
            .iter()
            .map(|&c| term(&mut program, c))
            .collect();
        let head = Atom::new(hsym, head_args);
        let mut body = Vec::new();
        for (bp, args, positive) in &d.body {
            let (bpn, barity) = PREDS[*bp];
            let bsym = program.symbols.intern(bpn);
            let bargs: Vec<Term> = args[..barity]
                .iter()
                .map(|&c| term(&mut program, c))
                .collect();
            let atom = Atom::new(bsym, bargs);
            body.push(if *positive {
                Literal::pos(atom)
            } else {
                Literal::neg(atom)
            });
        }
        program.push(Rule::new(head, body));
    }
    program
}

/// Full instantiation: substitute every variable by every constant, keep
/// every instance, materialize every mentioned atom.
fn full_instantiation(program: &Program) -> afp_datalog::GroundProgram {
    let mut b = GroundProgramBuilder::with_symbols(program.symbols.clone());
    let const_syms: Vec<Symbol> = CONSTS
        .iter()
        .map(|c| program.symbols.get(c).expect("interned"))
        .collect();
    for rule in &program.rules {
        let vars = rule.variables();
        let n = vars.len();
        let mut assignment = vec![0usize; n];
        loop {
            let intern_atom = |a: &Atom, b: &mut GroundProgramBuilder| {
                let args: Vec<afp_datalog::ConstId> = a
                    .args
                    .iter()
                    .map(|t| match t {
                        Term::Const(c) => b.base_mut().intern_const(*c),
                        Term::Var(v) => {
                            let ix = vars.iter().position(|w| w == v).unwrap();
                            b.base_mut().intern_const(const_syms[assignment[ix]])
                        }
                        Term::App(..) => unreachable!("no function symbols generated"),
                    })
                    .collect();
                b.base_mut().intern_atom(a.pred, &args)
            };
            let head = intern_atom(&rule.head, &mut b);
            let mut pos = Vec::new();
            let mut neg = Vec::new();
            for l in &rule.body {
                let id = intern_atom(&l.atom, &mut b);
                if l.positive {
                    pos.push(id);
                } else {
                    neg.push(id);
                }
            }
            b.rule(head, pos, neg);
            // Odometer over assignments.
            let mut pos_ix = 0;
            loop {
                if pos_ix == n {
                    break;
                }
                assignment[pos_ix] += 1;
                if assignment[pos_ix] < CONSTS.len() {
                    break;
                }
                assignment[pos_ix] = 0;
                pos_ix += 1;
            }
            if n == 0 || pos_ix == n {
                break;
            }
        }
    }
    b.finish()
}

fn rule_desc_strategy() -> impl Strategy<Value = RuleDesc> {
    (
        0..PREDS.len(),
        proptest::collection::vec(0u8..5, 2),
        proptest::collection::vec(
            (
                0..PREDS.len(),
                proptest::collection::vec(0u8..5, 2),
                any::<bool>(),
            ),
            0..3,
        ),
    )
        .prop_map(|(head_pred, head_args, body)| RuleDesc {
            head_pred,
            head_args,
            body,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn envelope_grounding_preserves_wfs(
        descs in proptest::collection::vec(rule_desc_strategy(), 0..6),
        fact_bits in 0u8..8,
    ) {
        let program = build_program(&descs, fact_bits);

        // Route 1: relevance grounding (active-domain safety).
        let pruned = ground_with(
            &program,
            &GroundOptions {
                safety: SafetyPolicy::ActiveDomain,
                ..Default::default()
            },
        ).expect("grounds");
        let pruned_afp = alternating_fixpoint(&pruned);

        // Route 2: full instantiation over the same domain.
        let full = full_instantiation(&program);
        let full_afp = alternating_fixpoint(&full);

        // Every atom of the full base must agree (missing ⇒ false).
        for id in 0..full.atom_count() as u32 {
            let name = full.atom_name(afp_datalog::AtomId(id));
            let full_truth = full_afp.model.truth(id);
            let pruned_truth = lookup(&pruned, &pruned_afp, &name);
            prop_assert_eq!(
                full_truth, pruned_truth,
                "atom {} disagrees (full={:?}, pruned={:?})",
                name, full_truth, pruned_truth
            );
        }
    }
}

fn lookup(prog: &afp_datalog::GroundProgram, afp: &afp::AfpResult, name: &str) -> Truth {
    for id in 0..prog.atom_count() as u32 {
        if prog.atom_name(afp_datalog::AtomId(id)) == name {
            return afp.model.truth(id);
        }
    }
    Truth::False
}

/// A statement stated twice is grounded once: by `ground` as by a
/// session, whose checkpoints and cold re-grounds read the grounder's
/// statements. A rule stated twice at load is one rule, so retracting it
/// drops every instance.
#[test]
fn repeated_statements_are_grounded_once() {
    let src = "p(a). p(a). q :- p(a). q :- p(a). r(X) :- p(X). r(X) :- p(X).";
    let program = afp_datalog::parse_program(src).unwrap();
    assert_eq!(afp_datalog::ground(&program).unwrap().rule_count(), 3);
    let session = afp::Engine::default().load(src).unwrap();
    assert_eq!(session.ground().rule_count(), 3);

    let mut grounder =
        afp_datalog::IncrementalGrounder::new(&program, &GroundOptions::default()).unwrap();
    let retract = afp_datalog::parse_program("r(X) :- p(X).").unwrap();
    grounder.retract_rules(&retract.rules, &retract.symbols);
    let prog = grounder.program();
    let r_a = prog.find_atom_by_name("r", &["a"]).unwrap();
    assert!(
        prog.rules_with_head(r_a).is_empty(),
        "the retracted rule keeps no instance"
    );
    assert_eq!(prog.rule_count(), 2);
}
