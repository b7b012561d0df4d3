//! Stratified and locally stratified (perfect-model) evaluation
//! (Section 2.3).
//!
//! A ground program is *locally stratified* (Przymusiński) when its atom
//! dependency graph has no negative arc inside a strongly connected
//! component; the strata can then be evaluated bottom-up, treating the
//! negative conclusions of lower strata as settled — the *iterated
//! fixpoint*, whose result is the unique **perfect model**.
//!
//! A program with variables is *stratified* when the same condition holds
//! at the predicate level; a stratified program grounds to a locally
//! stratified one (grounding only deletes arcs), so predicate-level
//! evaluation reduces to the ground machinery here.
//!
//! Section 2.4: every locally stratified program has a total well-founded
//! model and a unique stable model, all coinciding with the perfect model —
//! pinned by integration tests.

use afp_core::interp::PartialModel;
use afp_datalog::depgraph::tarjan_sccs;
use afp_datalog::program::GroundProgram;

/// Atom-level stratum assignment, or `None` when the ground program is not
/// locally stratified (a negative arc within an SCC of the atom dependency
/// graph).
pub fn local_strata(prog: &GroundProgram) -> Option<Vec<u32>> {
    let n = prog.atom_count();
    // Atom dependency graph: head → body atoms.
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for r in prog.rules() {
        for &q in r.pos.iter().chain(r.neg.iter()) {
            adj[r.head.index()].push(q.index());
        }
    }
    let sccs = tarjan_sccs(&adj);
    let mut comp_of = vec![usize::MAX; n];
    for (cid, comp) in sccs.iter().enumerate() {
        for &a in comp {
            comp_of[a as usize] = cid;
        }
    }
    // Negative arc inside a component ⇒ not locally stratified.
    for r in prog.rules() {
        for &q in r.neg.iter() {
            if comp_of[r.head.index()] == comp_of[q.index()] {
                return None;
            }
        }
    }
    // Components arrive in dependency order; accumulate stratum numbers.
    let mut comp_stratum = vec![0u32; sccs.len()];
    for (cid, comp) in sccs.iter().enumerate() {
        let mut s = 0;
        for &a in comp {
            for &rid in prog.rules_with_head(afp_datalog::AtomId(a)) {
                let r = prog.rule(rid);
                for &q in r.pos.iter() {
                    let qc = comp_of[q.index()];
                    if qc != cid {
                        s = s.max(comp_stratum[qc]);
                    }
                }
                for &q in r.neg.iter() {
                    let qc = comp_of[q.index()];
                    debug_assert_ne!(qc, cid);
                    s = s.max(comp_stratum[qc] + 1);
                }
            }
        }
        comp_stratum[cid] = s;
    }
    Some((0..n).map(|a| comp_stratum[comp_of[a]]).collect())
}

/// True iff the ground program is locally stratified.
pub fn is_locally_stratified(prog: &GroundProgram) -> bool {
    local_strata(prog).is_some()
}

/// Result of the iterated-fixpoint evaluation.
#[derive(Debug, Clone)]
pub struct PerfectResult {
    /// The perfect model (always total).
    pub model: PartialModel,
    /// Number of strata evaluated.
    pub strata: usize,
}

/// The perfect model of a locally stratified ground program, by iterated
/// fixpoint over the strata; `None` when the program is not locally
/// stratified.
pub fn perfect_model(prog: &GroundProgram) -> Option<PerfectResult> {
    let strata = local_strata(prog)?;
    let max_stratum = strata.iter().copied().max().unwrap_or(0);
    let mut pos = prog.empty_set();
    let mut neg = prog.empty_set();
    for s in 0..=max_stratum {
        // Least fixpoint of the rules whose head lies in stratum `s`,
        // reading lower strata from (pos, neg). A rule can fire when its
        // negative atoms are settled false and its positive atoms are
        // either settled true (lower strata) or derived in this stratum.
        loop {
            let mut changed = false;
            'rules: for r in prog.rules() {
                if strata[r.head.index()] != s || pos.contains(r.head.0) {
                    continue;
                }
                for &q in r.neg.iter() {
                    // q is in a strictly lower stratum; settled.
                    if pos.contains(q.0) {
                        continue 'rules;
                    }
                }
                for &q in r.pos.iter() {
                    if !pos.contains(q.0) {
                        continue 'rules;
                    }
                }
                pos.insert(r.head.0);
                changed = true;
            }
            if !changed {
                break;
            }
        }
        // Atoms of stratum `s` not derived are now settled false.
        for a in 0..prog.atom_count() as u32 {
            if strata[a as usize] == s && !pos.contains(a) {
                neg.insert(a);
            }
        }
    }
    Some(PerfectResult {
        model: PartialModel::new(pos, neg),
        strata: max_stratum as usize + 1,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use afp_core::afp::alternating_fixpoint;
    use afp_datalog::program::parse_ground;

    #[test]
    fn ntc_is_locally_stratified_and_matches_wfs() {
        // Ground tc/ntc over a 2-node graph (Example 2.2 shape).
        let g = parse_ground(
            "e(a,b).
             tc(a,b) :- e(a,b).
             ntc(b,a) :- not tc(b,a).
             ntc(a,b) :- not tc(a,b).",
        );
        let perfect = perfect_model(&g).expect("locally stratified");
        assert!(perfect.model.is_total());
        let wfs = alternating_fixpoint(&g);
        assert_eq!(perfect.model, wfs.model);
        let ntc_ba = g.find_atom_by_name("ntc", &["b", "a"]).unwrap();
        assert!(perfect.model.pos.contains(ntc_ba.0));
        let ntc_ab = g.find_atom_by_name("ntc", &["a", "b"]).unwrap();
        assert!(perfect.model.neg.contains(ntc_ab.0));
    }

    #[test]
    fn win_move_ground_cycle_not_locally_stratified() {
        // wins(a) depends negatively on wins(b) and vice versa.
        let g = parse_ground("wins(a) :- not wins(b). wins(b) :- not wins(a).");
        assert!(!is_locally_stratified(&g));
        assert!(perfect_model(&g).is_none());
    }

    #[test]
    fn acyclic_negation_is_locally_stratified() {
        // Predicate-level unstratified but ground-level (locally) stratified:
        // the classic even/odd on an acyclic chain.
        let g = parse_ground(
            "even(z).
             even(a) :- not even(b).
             even(b) :- not even(c).",
        );
        let strata = local_strata(&g).expect("acyclic ⇒ locally stratified");
        let ea = g.find_atom_by_name("even", &["a"]).unwrap();
        let eb = g.find_atom_by_name("even", &["b"]).unwrap();
        let ec = g.find_atom_by_name("even", &["c"]).unwrap();
        assert!(strata[ea.index()] > strata[eb.index()]);
        assert!(strata[eb.index()] > strata[ec.index()]);
        let perfect = perfect_model(&g).unwrap();
        // even(c): no rules ⇒ false; even(b): ¬even(c) ⇒ true;
        // even(a): ¬even(b) fails ⇒ false.
        assert!(perfect.model.neg.contains(ec.0));
        assert!(perfect.model.pos.contains(eb.0));
        assert!(perfect.model.neg.contains(ea.0));
    }

    #[test]
    fn perfect_equals_wfs_equals_unique_stable_on_stratified() {
        let g = parse_ground("a. b :- a. c :- not b. d :- not c. e :- d, not c.");
        let perfect = perfect_model(&g).unwrap();
        let wfs = alternating_fixpoint(&g);
        assert_eq!(perfect.model, wfs.model);
        assert!(wfs.is_total);
        let stables = crate::stable::stable_models(&g);
        assert_eq!(stables.len(), 1);
        assert_eq!(stables[0], perfect.model.pos);
    }

    #[test]
    fn positive_cycles_do_not_block_stratification() {
        let g = parse_ground("x :- y. y :- x. z :- not x.");
        let perfect = perfect_model(&g).expect("positive cycles are fine");
        assert_eq!(g.set_to_names(&perfect.model.pos), vec!["z"]);
        assert_eq!(g.set_to_names(&perfect.model.neg), vec!["x", "y"]);
    }

    #[test]
    fn stratum_counts() {
        let g = parse_ground("a. b :- not a. c :- not b.");
        let r = perfect_model(&g).unwrap();
        assert_eq!(r.strata, 3);
    }
}
