//! Grounding: from a normal program with variables to its relevant Herbrand
//! instantiation `P_H`.
//!
//! The paper's operators are defined on the full instantiation of `P`
//! (Section 3.3), which is wasteful or infinite to materialize directly.
//! We instead instantiate over the **positive envelope**: the least model of
//! the program with every negative literal erased. Any atom outside the
//! envelope has no derivation even with all negative literals granted, so it
//! is false in the well-founded, stable, Fitting, stratified, *and*
//! inflationary semantics; rule instances whose positive body leaves the
//! envelope can never fire under any of them. Concretely:
//!
//! * rule instances are enumerated by joining the positive body over the
//!   envelope;
//! * a negative literal `¬q` whose instantiation lies outside the envelope
//!   is certainly true and is deleted from the instance;
//! * everything else is kept verbatim.
//!
//! This is the standard "intelligent grounding" argument; the proptest
//! `grounding_preserves_semantics` in the workspace integration tests
//! checks it against full instantiation on random programs.
//!
//! # Safety
//!
//! A rule is *safe* when every variable occurring in its head or in a
//! negative subgoal also occurs in a positive subgoal. Unsafe rules are
//! rejected by default ([`SafetyPolicy::Reject`]); with
//! [`SafetyPolicy::ActiveDomain`] each unguarded variable is instead
//! restricted to the active domain (all ground terms appearing in facts
//! plus all constants in rules), which matches the finite-structure
//! convention of fixpoint logic used in Section 8.

use crate::ast::{Program, Rule, Term};
use crate::atoms::{ConstId, HerbrandBase};
use crate::error::GroundError;
use crate::program::GroundProgram;
use crate::relation::Database;
use crate::seminaive::{compile_rule, evaluate_positive, EvalLimits};
use crate::symbol::Symbol;

/// What to do with unsafe rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SafetyPolicy {
    /// Return [`GroundError::UnsafeRule`].
    #[default]
    Reject,
    /// Guard every unsafe variable with the active domain.
    ActiveDomain,
}

/// Grounding options.
#[derive(Debug, Clone, Copy)]
pub struct GroundOptions {
    /// Safety policy for rules with unguarded variables.
    pub safety: SafetyPolicy,
    /// Cap on materialized envelope tuples (defends against infinite
    /// Herbrand universes introduced by function symbols).
    pub max_envelope_tuples: usize,
    /// Cap on emitted ground rules.
    pub max_ground_rules: usize,
}

impl Default for GroundOptions {
    fn default() -> Self {
        GroundOptions {
            safety: SafetyPolicy::Reject,
            max_envelope_tuples: 10_000_000,
            max_ground_rules: 50_000_000,
        }
    }
}

/// Ground `program` into its relevant instantiation.
pub fn ground(program: &Program) -> Result<GroundProgram, GroundError> {
    ground_with(program, &GroundOptions::default())
}

/// Ground with explicit options.
///
/// This is the one-shot entry point; it runs
/// [`crate::incremental::IncrementalGrounder::new`] and discards the
/// working state. Callers that will later assert or retract
/// facts should hold on to the grounder instead.
pub fn ground_with(
    program: &Program,
    options: &GroundOptions,
) -> Result<GroundProgram, GroundError> {
    Ok(crate::incremental::IncrementalGrounder::new(program, options)?.into_program())
}

/// The variables of `rule` that occur in the head or a negative subgoal but
/// in no positive subgoal.
pub fn unsafe_variables(rule: &Rule) -> Vec<Symbol> {
    let mut bound = Vec::new();
    for atom in rule.pos_body() {
        atom.collect_vars(&mut bound);
    }
    let mut needed = Vec::new();
    rule.head.collect_vars(&mut needed);
    for atom in rule.neg_body() {
        atom.collect_vars(&mut needed);
    }
    let mut out = Vec::new();
    for v in needed {
        if !bound.contains(&v) && !out.contains(&v) {
            out.push(v);
        }
    }
    out
}

/// True iff every rule of the program is safe.
pub fn is_safe(program: &Program) -> bool {
    program.rules.iter().all(|r| unsafe_variables(r).is_empty())
}

pub(crate) fn intern_ground_term(t: &Term, base: &mut HerbrandBase) -> ConstId {
    match t {
        Term::Const(c) => base.intern_const(*c),
        Term::App(f, args) => {
            let ids: Vec<ConstId> = args.iter().map(|a| intern_ground_term(a, base)).collect();
            base.intern_term(crate::atoms::GroundTerm::App(*f, ids.into_boxed_slice()))
        }
        Term::Var(_) => unreachable!("caller checked groundness"),
    }
}

/// Add `t` and all its subterms to `out`.
pub(crate) fn collect_subterms(t: ConstId, base: &HerbrandBase, out: &mut Vec<ConstId>) {
    out.push(t);
    if let crate::atoms::GroundTerm::App(_, args) = base.term(t) {
        for &a in args.clone().iter() {
            collect_subterms(a, base, out);
        }
    }
}

/// Intern every constant appearing syntactically in `rule` and add it to
/// `out` (for the active domain).
pub(crate) fn collect_rule_consts(rule: &Rule, base: &mut HerbrandBase, out: &mut Vec<ConstId>) {
    fn walk(t: &Term, base: &mut HerbrandBase, out: &mut Vec<ConstId>) {
        match t {
            Term::Const(c) => out.push(base.intern_const(*c)),
            Term::App(_, args) => {
                for a in args {
                    walk(a, base, out);
                }
            }
            Term::Var(_) => {}
        }
    }
    for t in &rule.head.args {
        walk(t, base, out);
    }
    for l in &rule.body {
        for t in &l.atom.args {
            walk(t, base, out);
        }
    }
}

/// Compute only the positive envelope of a program (exposed for the
/// benchmarks and for diagnostics).
pub fn positive_envelope(
    program: &Program,
    options: &GroundOptions,
) -> Result<Database, GroundError> {
    let mut base = HerbrandBase::new();
    let mut db = Database::new();
    let mut rules = Vec::new();
    for rule in &program.rules {
        if rule.is_fact() {
            let tuple: Vec<ConstId> = rule
                .head
                .args
                .iter()
                .map(|t| intern_ground_term(t, &mut base))
                .collect();
            db.insert(rule.head.pred, &tuple);
        } else {
            rules.push(compile_rule(rule, &[]));
        }
    }
    let limits = EvalLimits {
        max_tuples: options.max_envelope_tuples,
    };
    evaluate_positive(&rules, &mut db, &mut base, &limits)?;
    Ok(db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atoms::AtomId;
    use crate::parser::parse_program;

    fn ground_src(src: &str) -> GroundProgram {
        ground(&parse_program(src).unwrap()).unwrap()
    }

    #[test]
    fn win_move_grounding() {
        let g = ground_src(
            "wins(X) :- move(X, Y), not wins(Y).
             move(a, b). move(b, a). move(b, c).",
        );
        // Atoms: 3 move facts + wins(a), wins(b), wins(c) heads... wins(c)
        // appears only in a negative literal of the instance for wins(b).
        // Envelope(wins) = {a, b} (sources of edges); wins(c) is outside
        // the envelope so `not wins(c)` is dropped.
        let names: Vec<String> = (0..g.atom_count() as u32)
            .map(|i| g.atom_name(AtomId(i)))
            .collect();
        assert!(names.contains(&"wins(a)".to_string()));
        assert!(names.contains(&"wins(b)".to_string()));
        assert!(!names.contains(&"wins(c)".to_string()));
        // Rules: 3 facts + wins(a):-move(a,b),¬wins(b);
        // wins(b):-move(b,a),¬wins(a); wins(b):-move(b,c) (literal dropped).
        assert_eq!(g.rule_count(), 6);
        let dropped = g
            .rules()
            .find(|r| !r.pos.is_empty() && r.neg.is_empty())
            .expect("the wins(b) :- move(b,c) instance lost its negative literal");
        assert_eq!(g.atom_name(dropped.head), "wins(b)");
    }

    #[test]
    fn unsafe_rule_rejected_by_default() {
        let p = parse_program("p(X) :- not q(X). q(a).").unwrap();
        let err = ground(&p).unwrap_err();
        assert!(matches!(err, GroundError::UnsafeRule { .. }));
    }

    #[test]
    fn unsafe_head_variable_rejected() {
        let p = parse_program("p(X, Y) :- q(X). q(a).").unwrap();
        let err = ground(&p).unwrap_err();
        assert!(matches!(err, GroundError::UnsafeRule { .. }));
    }

    #[test]
    fn active_domain_guards_unsafe_rules() {
        let p = parse_program("p(X) :- not q(X). q(a). r(b).").unwrap();
        let g = ground_with(
            &p,
            &GroundOptions {
                safety: SafetyPolicy::ActiveDomain,
                ..Default::default()
            },
        )
        .unwrap();
        // Active domain {a, b}: p(a) :- not q(a); p(b) (not q(b) dropped,
        // q(b) outside envelope).
        let pa = g.find_atom_by_name("p", &["a"]).unwrap();
        let pb = g.find_atom_by_name("p", &["b"]).unwrap();
        let qa = g.find_atom_by_name("q", &["a"]).unwrap();
        assert!(g.find_atom_by_name("q", &["b"]).is_none());
        let pa_rules = g.rules_with_head(pa);
        assert_eq!(pa_rules.len(), 1);
        assert_eq!(g.rule(pa_rules[0]).neg.as_ref(), &[qa]);
        let pb_rules = g.rules_with_head(pb);
        assert_eq!(pb_rules.len(), 1);
        assert!(g.rule(pb_rules[0]).is_fact());
    }

    #[test]
    fn empty_domain_reported() {
        let p = parse_program("p(X) :- not q(X).").unwrap();
        let err = ground_with(
            &p,
            &GroundOptions {
                safety: SafetyPolicy::ActiveDomain,
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, GroundError::EmptyDomain));
    }

    #[test]
    fn envelope_prunes_underivable_instances() {
        let g = ground_src(
            "p(X) :- e(X, Y), p(Y).
             p(a) :- not q(a).
             q(a) :- not p(a).
             e(b, a). e(c, b).",
        );
        // Envelope: p{a,b,c}, q(a); instances p(b):-e(b,a),p(a) etc.
        assert!(g.find_atom_by_name("p", &["c"]).is_some());
        // No instance with head p over constants not reachable: only a,b,c.
        for r in g.rules() {
            assert!(r.pos.len() <= 2);
        }
    }

    #[test]
    fn propositional_programs_ground_to_themselves() {
        let g = ground_src("p :- not q. q :- not p. r :- p, q.");
        assert_eq!(g.rule_count(), 3);
        assert_eq!(g.atom_count(), 3);
    }

    #[test]
    fn budget_error_on_function_symbol_divergence() {
        let p = parse_program("n(z). n(s(X)) :- n(X).").unwrap();
        let err = ground_with(
            &p,
            &GroundOptions {
                max_envelope_tuples: 1000,
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, GroundError::AtomBudgetExceeded { .. }));
    }

    #[test]
    fn bounded_function_symbols_ground_fine() {
        let g = ground_src("n(z). n(s(X)) :- n(X), small(X). small(z).");
        // n(z), n(s(z)); small(z); the rule instance for X=s(z) is pruned
        // because small(s(z)) is outside the envelope.
        assert!(g.find_atom_by_name("n", &[]).is_none()); // arity mismatch probe
        let names: Vec<String> = (0..g.atom_count() as u32)
            .map(|i| g.atom_name(AtomId(i)))
            .collect();
        assert!(names.contains(&"n(s(z))".to_string()));
        assert!(!names.iter().any(|n| n.contains("s(s(z))")));
    }

    #[test]
    fn positive_envelope_standalone() {
        let p = parse_program("tc(X,Y) :- e(X,Y). tc(X,Y) :- e(X,Z), tc(Z,Y). e(a,b). e(b,c).")
            .unwrap();
        let env = positive_envelope(&p, &GroundOptions::default()).unwrap();
        let tc = p.symbols.get("tc").unwrap();
        assert_eq!(env.relation(tc, 2).unwrap().len(), 3);
    }

    #[test]
    fn one_predicate_at_two_arities_grounds_as_two_relations() {
        let g = ground_src("p(a). p(a, b). q(X) :- p(X). r(Y) :- p(X, Y), not q(Y).");
        assert!(g.find_atom_by_name("q", &["a"]).is_some());
        assert!(g.find_atom_by_name("q", &["b"]).is_none());
        let rb = g.find_atom_by_name("r", &["b"]).unwrap();
        let rule = g.rule(g.rules_with_head(rb)[0]);
        assert!(rule.neg.is_empty(), "q(b) is outside the envelope");
    }

    #[test]
    fn safety_analysis_lists_offending_variable() {
        let p = parse_program("p(X) :- q(Y), not r(X, Z).").unwrap();
        let v = unsafe_variables(&p.rules[0]);
        let names: Vec<&str> = v.iter().map(|s| p.symbols.name(*s)).collect();
        assert_eq!(names, vec!["X", "Z"]);
        assert!(!is_safe(&p));
    }
}
