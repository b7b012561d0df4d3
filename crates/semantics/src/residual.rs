//! Residual programs: simplify a program by its well-founded model.
//!
//! Once the well-founded partial model `W` is known, every rule can be
//! partially evaluated: rules with a body literal false in `W` (or a
//! decided head) are deleted, and body literals true in `W` are removed.
//! What remains — the **residual program** — mentions only the undefined
//! atoms. This is the classic simplification bridge between the
//! well-founded and stable semantics (every stable model is the
//! well-founded positive part plus a stable model of the residual), the
//! practical upshot of the paper's "every stable model contains the
//! well-founded partial model": the polynomial WFS computation does all
//! the deterministic work, leaving the NP search only the genuinely
//! ambiguous core.

use afp_core::interp::{PartialModel, Truth};
use afp_datalog::bitset::AtomSet;
use afp_datalog::program::{GroundProgram, GroundProgramBuilder};

/// The residual program of `prog` under `model` (normally its well-founded
/// model). Shares atom names but **not** atom ids: undefined atoms are
/// re-interned densely; use the returned program's `find_atom_by_name`.
pub fn residual_program(prog: &GroundProgram, model: &PartialModel) -> GroundProgram {
    let mut b = GroundProgramBuilder::with_symbols(prog.symbols().clone());
    // Re-intern undefined atoms (dense ids in the residual).
    let undefined = model.undefined();
    let mut new_id = vec![None; prog.atom_count()];
    for a in undefined.iter() {
        let (pred, args) = prog.base().atom(afp_datalog::AtomId(a));
        let new_args: Vec<_> = args.iter().map(|&t| reintern(t, prog, &mut b)).collect();
        new_id[a as usize] = Some(b.base_mut().intern_atom(pred, &new_args));
    }
    'rules: for r in prog.rules() {
        if model.truth(r.head.0) != Truth::Undefined {
            continue;
        }
        let mut pos = Vec::new();
        let mut neg = Vec::new();
        for &q in r.pos.iter() {
            match model.truth(q.0) {
                Truth::False => continue 'rules,
                Truth::True => {}
                Truth::Undefined => pos.push(new_id[q.index()].expect("undefined interned")),
            }
        }
        for &q in r.neg.iter() {
            match model.truth(q.0) {
                Truth::True => continue 'rules,
                Truth::False => {}
                Truth::Undefined => neg.push(new_id[q.index()].expect("undefined interned")),
            }
        }
        let head = new_id[r.head.index()].expect("undefined head interned");
        b.rule(head, pos, neg);
    }
    b.finish()
}

/// Lift a stable model of the residual back to the original program: the
/// well-founded positives plus the residual model's atoms. Residual atom
/// `i` is the `i`-th undefined atom of `model`, the order in which
/// [`residual_program`] interns them, so the original program `_prog` is
/// not consulted.
pub fn lift_residual_model(
    _prog: &GroundProgram,
    model: &PartialModel,
    residual: &GroundProgram,
    residual_stable: &AtomSet,
) -> AtomSet {
    let undefined: Vec<u32> = model.undefined().iter().collect();
    debug_assert_eq!(undefined.len(), residual.atom_count());
    let mut out = model.pos.clone();
    for a in residual_stable.iter() {
        out.insert(undefined[a as usize]);
    }
    out
}

fn reintern(
    t: afp_datalog::ConstId,
    prog: &GroundProgram,
    b: &mut GroundProgramBuilder,
) -> afp_datalog::ConstId {
    match prog.base().term(t).clone() {
        afp_datalog::atoms::GroundTerm::Const(c) => b.base_mut().intern_const(c),
        afp_datalog::atoms::GroundTerm::App(f, args) => {
            let new_args: Vec<_> = args.iter().map(|&a| reintern(a, prog, b)).collect();
            b.base_mut()
                .intern_term(afp_datalog::atoms::GroundTerm::App(
                    f,
                    new_args.into_boxed_slice(),
                ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stable::brute_force_stable;
    use afp_core::afp::alternating_fixpoint;
    use afp_datalog::program::parse_ground;

    #[test]
    fn residual_keeps_only_the_undefined_core() {
        let g = parse_ground("base. p :- not q. q :- not p. r :- base, p. dead :- not base.");
        let wfs = alternating_fixpoint(&g);
        let res = residual_program(&g, &wfs.model);
        // base true, dead false — gone. p, q, r remain.
        assert_eq!(res.atom_count(), 3);
        // r :- base, p simplifies to r :- p.
        let r_atom = res.find_atom_by_name("r", &[]).unwrap();
        let rid = res.rules_with_head(r_atom)[0];
        assert_eq!(res.rule(rid).pos.len(), 1);
        assert!(res.rule(rid).neg.is_empty());
    }

    #[test]
    fn residual_of_total_model_is_empty() {
        let g = parse_ground("a. b :- a. c :- not b.");
        let wfs = alternating_fixpoint(&g);
        assert!(wfs.is_total);
        let res = residual_program(&g, &wfs.model);
        assert_eq!(res.atom_count(), 0);
        assert_eq!(res.rule_count(), 0);
    }

    #[test]
    fn stable_models_split_through_the_residual() {
        // stable(P) = { WFS⁺ ∪ S : S ∈ stable(residual(P)) }
        for src in [
            "base. p :- not q. q :- not p. r :- base, p. dead :- not base.",
            "a :- not b. b :- not a. c :- a, not d. d :- b. e.",
            "v :- not v. w. x :- w, not y. y :- not x.",
        ] {
            let g = parse_ground(src);
            let wfs = alternating_fixpoint(&g);
            let res = residual_program(&g, &wfs.model);
            let direct = brute_force_stable(&g);
            let via_residual: Vec<AtomSet> = brute_force_stable(&res)
                .iter()
                .map(|s| lift_residual_model(&g, &wfs.model, &res, s))
                .collect();
            let mut a: Vec<Vec<u32>> = direct.iter().map(|m| m.iter().collect()).collect();
            let mut b: Vec<Vec<u32>> = via_residual.iter().map(|m| m.iter().collect()).collect();
            a.sort();
            b.sort();
            assert_eq!(a, b, "splitting failed on {src}");
        }
    }

    #[test]
    fn residual_wfs_is_everywhere_undefined() {
        // The WFS of the residual leaves everything undefined — the
        // residual is the "hard core".
        let g = parse_ground("p :- not q. q :- not p. r :- p. r :- q. s :- not r.");
        let wfs = alternating_fixpoint(&g);
        let res = residual_program(&g, &wfs.model);
        let res_wfs = alternating_fixpoint(&res);
        assert_eq!(res_wfs.model.defined_count(), 0);
    }
}
