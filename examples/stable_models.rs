//! Stable models next to the well-founded model (Sections 2.4, 4, 5)
//! through one [`afp::Engine`] session: enumeration, the `S̃_P`-fixpoint
//! characterization, and the WFS ⊆ every-stable-model theorem.
//!
//! ```text
//! cargo run --example stable_models
//! ```

use afp::core::ops;
use afp::{Engine, Semantics};

const ALL: Semantics = Semantics::Stable {
    max_models: usize::MAX,
};

fn main() {
    // A choice between p and q, with consequences.
    let src = "
        p :- not q.
        q :- not p.
        r :- p.
        r :- q.
        s :- not r.
        base.
    ";
    let mut session = Engine::default().load(src).unwrap();

    let wfs = session.solve().unwrap();
    println!("well-founded model:");
    println!("  true      : {:?}", sorted(wfs.true_atoms()));
    println!("  false     : {:?}", sorted(wfs.false_atoms()));
    println!("  undefined : {:?}", sorted(wfs.undefined_atoms()));

    let stable = session.solve_with(ALL).unwrap();
    let ground = stable.ground();
    println!("\nstable models ({}):", stable.stable_models().len());
    for m in stable.stable_models() {
        println!("  {:?}", ground.set_to_names(m));
        // Section 5: every stable model is a fixpoint of S̃_P …
        let m_tilde = m.complement();
        assert_eq!(ops::s_tilde(ground, &m_tilde), m_tilde);
        // … and contains the well-founded partial model.
        assert!(wfs.partial_model().pos.is_subset(m));
        assert!(wfs.partial_model().neg.is_disjoint(m));
        assert!(afp::semantics::is_stable(ground, m));
    }
    println!("\nevery stable model: is an S̃_P fixpoint ✓, contains the WFS ✓");
    // The cautious collapse of the two models decides exactly r and base.
    assert_eq!(sorted(stable.true_atoms()), vec!["base", "r"]);

    // An odd negative cycle has NO stable model, while the WFS still
    // assigns what it can.
    let mut odd_session = Engine::new(ALL)
        .load("a :- not b. b :- not c. c :- not a. d.")
        .unwrap();
    let odd_stable = odd_session.solve().unwrap();
    let odd_wfs = odd_session
        .solve_with(Semantics::WellFounded {
            strategy: Default::default(),
        })
        .unwrap();
    println!(
        "\nodd cycle program: {} stable models; WFS still concludes {:?}",
        odd_stable.stable_models().len(),
        sorted(odd_wfs.true_atoms())
    );
    assert!(odd_stable.stable_models().is_empty());

    // SAT as stable models (the NP-completeness construction of §2.4):
    // models of (x1 ∨ ¬x2) ∧ (x2 ∨ x3).
    let sat = afp_bench::gen::sat_to_stable(3, &[[1, -2, -2], [2, 3, 3]]);
    let sat_model = Engine::new(ALL)
        .load(&sat.to_string())
        .unwrap()
        .solve()
        .unwrap();
    println!(
        "\nSAT reduction: {} satisfying assignments found as stable models:",
        sat_model.stable_models().len()
    );
    for m in sat_model.stable_models() {
        let names: Vec<String> = sat_model
            .ground()
            .set_to_names(m)
            .into_iter()
            .filter(|n| n.starts_with('v') || n.starts_with("nv"))
            .collect();
        println!("  {names:?}");
    }
}

fn sorted(it: impl Iterator<Item = String>) -> Vec<String> {
    let mut v: Vec<String> = it.collect();
    v.sort();
    v
}
