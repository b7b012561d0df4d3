//! Direct evaluation of general programs: fixpoint logic (FP) and
//! alternating fixpoint logic (Sections 8.1, 8.3, 8.4).
//!
//! Having defined formula truth under a literal set (Definition 8.2), the
//! paper generalizes the operators immediately: the head of an instantiated
//! rule is in the output of `T` when its body is assigned true. `T_P`,
//! `S_P`, and `A_P` stay monotone / antimonotone as before, so the
//! alternating fixpoint lifts verbatim; this module computes it by naive
//! iteration over the finite active domain (FP has no function symbols —
//! function symbols are rejected).
//!
//! For programs whose IDB relations occur only positively, `S_P(Ĩ)` is
//! independent of `Ĩ` (Theorem 8.1) and equals the fixpoint-logic least
//! model, which [`fp_model`] also computes directly — the agreement is a
//! test.

use crate::formula::{
    eval_nnf, resolve_atom, to_nnf, EvalContext, Formula, GeneralProgram, LiteralSet, Nnf,
};
use afp_core::interp::PartialModel;
use afp_datalog::ast::{Atom, Term};
use afp_datalog::atoms::{write_ground_atom, ConstId, HerbrandBase};
use afp_datalog::bitset::AtomSet;
use afp_datalog::fx::FxHashMap;
use afp_datalog::symbol::Symbol;
use afp_datalog::AtomId;

/// Errors from general-program evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GeneralError {
    /// Function symbols are outside FP / alternating fixpoint logic's
    /// finite-structure setting.
    FunctionSymbols,
    /// A predicate is used with two different arities.
    ArityMismatch(String),
    /// [`fp_model`] requires IDB relations to occur only positively.
    NegativeIdbOccurrence(String),
    /// The program mentions no constants: the active domain is empty and
    /// no atom can be instantiated.
    EmptyDomain,
}

impl std::fmt::Display for GeneralError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GeneralError::FunctionSymbols => {
                write!(f, "general programs must be function-free")
            }
            GeneralError::ArityMismatch(p) => write!(f, "predicate {p} used with two arities"),
            GeneralError::NegativeIdbOccurrence(p) => {
                write!(
                    f,
                    "fixpoint logic requires positive IDB occurrences, but {p} occurs negatively"
                )
            }
            GeneralError::EmptyDomain => write!(f, "empty active domain"),
        }
    }
}

impl std::error::Error for GeneralError {}

/// The instantiated universe of a general program: active domain plus the
/// fully materialized Herbrand base (every predicate × every domain tuple).
#[derive(Debug)]
pub struct GeneralContext {
    /// Interned ground atoms.
    pub base: HerbrandBase,
    /// The active domain.
    pub domain: Vec<ConstId>,
    /// Predicates with their arities, in first-appearance order.
    pub preds: Vec<(Symbol, usize)>,
    /// The EDB facts as an atom set.
    pub facts: AtomSet,
}

impl GeneralContext {
    /// Build the context: collect predicates/arities and constants, then
    /// materialize all atoms.
    pub fn build(y: &GeneralProgram) -> Result<GeneralContext, GeneralError> {
        let mut preds: Vec<(Symbol, usize)> = Vec::new();
        let mut consts: Vec<Symbol> = Vec::new();
        fn see_atom(
            a: &Atom,
            preds: &mut Vec<(Symbol, usize)>,
            consts: &mut Vec<Symbol>,
        ) -> Result<(), GeneralError> {
            match preds.iter().find(|(p, _)| *p == a.pred) {
                Some((_, ar)) if *ar != a.arity() => {
                    return Err(GeneralError::ArityMismatch(format!("{:?}", a.pred)))
                }
                Some(_) => {}
                None => preds.push((a.pred, a.arity())),
            }
            for t in &a.args {
                collect_consts(t, consts)?;
            }
            Ok(())
        }
        for f in &y.facts {
            see_atom(f, &mut preds, &mut consts)?;
        }
        for r in &y.rules {
            see_atom(&r.head, &mut preds, &mut consts)?;
            walk_formula(&r.body, &mut preds, &mut consts)?;
        }
        consts.sort_unstable();
        consts.dedup();
        // A purely propositional program is fine over the empty structure
        // (∀ vacuously true, ∃ vacuously false); but a rule head with
        // variables can never be instantiated — reject that as a user
        // error.
        if consts.is_empty() {
            let head_has_vars = y.rules.iter().any(|r| !r.head.is_ground());
            if head_has_vars {
                return Err(GeneralError::EmptyDomain);
            }
        }
        let mut base = HerbrandBase::new();
        let domain: Vec<ConstId> = consts.iter().map(|&c| base.intern_const(c)).collect();
        // Materialize every atom so conjugation ranges over the full base.
        for &(p, arity) in &preds {
            let mut tuple = vec![0usize; arity];
            loop {
                let args: Vec<ConstId> = tuple.iter().map(|&i| domain[i]).collect();
                base.intern_atom(p, &args);
                // Odometer.
                let mut pos = 0;
                loop {
                    if pos == arity {
                        break;
                    }
                    tuple[pos] += 1;
                    if tuple[pos] < domain.len() {
                        break;
                    }
                    tuple[pos] = 0;
                    pos += 1;
                }
                if arity == 0 || pos == arity {
                    break;
                }
            }
        }
        let mut facts = AtomSet::empty(base.atom_count());
        for f in &y.facts {
            let env = FxHashMap::default();
            let id = resolve_atom(f, &base, &env).expect("facts are materialized");
            facts.insert(id.0);
        }
        Ok(GeneralContext {
            base,
            domain,
            preds,
            facts,
        })
    }

    /// Universe size.
    pub fn atom_count(&self) -> usize {
        self.base.atom_count()
    }

    /// Render a set of atoms as sorted names.
    pub fn set_to_names(&self, y: &GeneralProgram, set: &AtomSet) -> Vec<String> {
        let mut v: Vec<String> = set
            .iter()
            .map(|a| {
                let mut name = String::new();
                write_ground_atom(&mut name, &self.base, AtomId(a), &y.symbols);
                name
            })
            .collect();
        v.sort();
        v
    }
}

fn collect_consts(t: &Term, out: &mut Vec<Symbol>) -> Result<(), GeneralError> {
    match t {
        Term::Const(c) => {
            out.push(*c);
            Ok(())
        }
        Term::Var(_) => Ok(()),
        Term::App(..) => Err(GeneralError::FunctionSymbols),
    }
}

fn walk_formula(
    f: &Formula,
    preds: &mut Vec<(Symbol, usize)>,
    consts: &mut Vec<Symbol>,
) -> Result<(), GeneralError> {
    match f {
        Formula::Atom(a) => {
            match preds.iter().find(|(p, _)| *p == a.pred) {
                Some((_, ar)) if *ar != a.arity() => {
                    return Err(GeneralError::ArityMismatch(format!("{:?}", a.pred)))
                }
                Some(_) => {}
                None => preds.push((a.pred, a.arity())),
            }
            for t in &a.args {
                collect_consts(t, consts)?;
            }
            Ok(())
        }
        Formula::Eq(l, r) => {
            collect_consts(l, consts)?;
            collect_consts(r, consts)
        }
        Formula::True | Formula::False => Ok(()),
        Formula::Not(g) => walk_formula(g, preds, consts),
        Formula::And(fs) | Formula::Or(fs) => {
            for g in fs {
                walk_formula(g, preds, consts)?;
            }
            Ok(())
        }
        Formula::Exists(_, g) | Formula::Forall(_, g) => walk_formula(g, preds, consts),
    }
}

/// A rule pre-compiled for instantiation: head variables and NNF body
/// (body variables not in the head are wrapped in an implicit `∃`).
struct PreparedRule {
    head: Atom,
    head_vars: Vec<Symbol>,
    body: Nnf,
}

fn prepare(y: &GeneralProgram) -> Vec<PreparedRule> {
    y.rules
        .iter()
        .map(|r| {
            let mut head_vars = Vec::new();
            r.head.collect_vars(&mut head_vars);
            head_vars.dedup();
            let mut extra = r.body.free_vars();
            extra.retain(|v| !head_vars.contains(v));
            let body = if extra.is_empty() {
                r.body.clone()
            } else {
                Formula::exists(extra, r.body.clone())
            };
            PreparedRule {
                head: r.head.clone(),
                head_vars,
                body: to_nnf(&body),
            }
        })
        .collect()
}

/// `S_P(Ĩ)` for a general program: least fixpoint of one-step derivation
/// with the negative literals frozen to `Ĩ` (Definition 4.2 lifted to
/// first-order bodies, Section 8.1). EDB facts participate as bodyless
/// rules.
pub fn s_p_general(y: &GeneralProgram, ctx: &GeneralContext, i_tilde: &AtomSet) -> AtomSet {
    let rules = prepare(y);
    let mut current = ctx.facts.clone();
    loop {
        let next = step(&rules, ctx, &current, i_tilde);
        if next == current {
            return current;
        }
        current = next;
    }
}

fn step(rules: &[PreparedRule], ctx: &GeneralContext, pos: &AtomSet, neg: &AtomSet) -> AtomSet {
    let mut out = pos.clone();
    let z = LiteralSet {
        pos: pos.clone(),
        neg: neg.clone(),
    };
    let ectx = EvalContext {
        base: &ctx.base,
        domain: &ctx.domain,
    };
    for rule in rules {
        let mut env: FxHashMap<Symbol, ConstId> = FxHashMap::default();
        instantiate_heads(rule, 0, &mut env, &z, &ectx, &mut out);
    }
    out
}

fn instantiate_heads(
    rule: &PreparedRule,
    depth: usize,
    env: &mut FxHashMap<Symbol, ConstId>,
    z: &LiteralSet,
    ectx: &EvalContext<'_>,
    out: &mut AtomSet,
) {
    if depth == rule.head_vars.len() {
        if eval_nnf(&rule.body, z, ectx, env) {
            if let Some(id) = resolve_atom(&rule.head, ectx.base, env) {
                out.insert(id.0);
            }
        }
        return;
    }
    let v = rule.head_vars[depth];
    for &d in ectx.domain {
        env.insert(v, d);
        instantiate_heads(rule, depth + 1, env, z, ectx, out);
    }
    env.remove(&v);
}

/// Result of the general alternating fixpoint.
pub struct GeneralAfpResult {
    /// The AFP partial model over the materialized base.
    pub model: PartialModel,
    /// The context (for rendering and lookups).
    pub ctx: GeneralContext,
    /// Number of `S̃_P` applications.
    pub iterations: usize,
}

/// Alternating fixpoint of a general program (Section 8.1's lift of
/// Definition 5.1/5.2).
pub fn afp_general(y: &GeneralProgram) -> Result<GeneralAfpResult, GeneralError> {
    let ctx = GeneralContext::build(y)?;
    let mut under = AtomSet::empty(ctx.atom_count());
    let mut iterations = 0;
    let (a_tilde, a_plus) = loop {
        let sp_under = s_p_general(y, &ctx, &under);
        let over = sp_under.complement();
        iterations += 1;
        if over == under {
            break (under, sp_under);
        }
        let sp_over = s_p_general(y, &ctx, &over);
        let next_under = sp_over.complement();
        iterations += 1;
        if next_under == under {
            break (under, sp_under);
        }
        under = next_under;
    };
    Ok(GeneralAfpResult {
        model: PartialModel::new(a_plus, a_tilde),
        ctx,
        iterations,
    })
}

/// The fixpoint-logic (FP) least model of a program whose IDB relations
/// occur only positively (Theorem 8.1's hypothesis; negative EDB literals
/// are allowed and evaluate against the complement of the facts).
pub fn fp_model(y: &GeneralProgram) -> Result<(AtomSet, GeneralContext), GeneralError> {
    let idb = y.idb_predicates();
    for r in &y.rules {
        for (pred, positive) in r.body.predicate_occurrences() {
            if !positive && idb.contains(&pred) {
                return Err(GeneralError::NegativeIdbOccurrence(format!("{pred:?}")));
            }
        }
    }
    let ctx = GeneralContext::build(y)?;
    // Negative literals can only name EDB relations; they hold exactly on
    // the complement of the facts (restricted to EDB predicates).
    let mut neg = ctx.facts.complement();
    let idb_atoms: Vec<u32> = ctx
        .base
        .atom_ids()
        .filter(|&a| {
            let (p, _) = ctx.base.atom(a);
            idb.contains(&p)
        })
        .map(|a| a.0)
        .collect();
    for a in idb_atoms {
        neg.remove(a);
    }
    let m = s_p_general(y, &ctx, &neg);
    Ok((m, ctx))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formula::GeneralRule;

    /// Example 8.2 over a configurable edge list.
    fn well_founded_program(edges: &[(&str, &str)], extra_nodes: &[&str]) -> GeneralProgram {
        let mut y = GeneralProgram::new();
        let w = y.symbols.intern("w");
        let e = y.symbols.intern("e");
        let node = y.symbols.intern("node");
        let x = y.symbols.intern("X");
        let yv = y.symbols.intern("Y");
        let body = Formula::And(vec![
            Formula::Atom(Atom::new(node, vec![Term::Var(x)])),
            Formula::not(Formula::exists(
                vec![yv],
                Formula::And(vec![
                    Formula::Atom(Atom::new(e, vec![Term::Var(yv), Term::Var(x)])),
                    Formula::not(Formula::Atom(Atom::new(w, vec![Term::Var(yv)]))),
                ]),
            )),
        ]);
        y.rules.push(GeneralRule {
            head: Atom::new(w, vec![Term::Var(x)]),
            body,
        });
        let mut nodes: Vec<&str> = extra_nodes.to_vec();
        for &(a, b) in edges {
            if !nodes.contains(&a) {
                nodes.push(a);
            }
            if !nodes.contains(&b) {
                nodes.push(b);
            }
        }
        for n in nodes {
            let c = y.symbols.intern(n);
            y.facts.push(Atom::new(node, vec![Term::Const(c)]));
        }
        for &(a, b) in edges {
            let ca = y.symbols.intern(a);
            let cb = y.symbols.intern(b);
            y.facts
                .push(Atom::new(e, vec![Term::Const(ca), Term::Const(cb)]));
        }
        y
    }

    #[test]
    fn example_8_2_chain_is_well_founded() {
        // a → b → c (edges point parent→child; e(Y,X) means Y is a
        // predecessor of X). Every node of a finite acyclic graph is
        // well-founded.
        let y = well_founded_program(&[("a", "b"), ("b", "c")], &[]);
        let (m, ctx) = fp_model(&y).unwrap();
        let names = ctx.set_to_names(&y, &m);
        assert!(names.contains(&"w(a)".to_string()));
        assert!(names.contains(&"w(b)".to_string()));
        assert!(names.contains(&"w(c)".to_string()));
    }

    #[test]
    fn example_8_2_cycle_is_not_well_founded() {
        // a ⇄ b cycle plus isolated d: cycle nodes have an infinite
        // descending chain; d is well-founded.
        let y = well_founded_program(&[("a", "b"), ("b", "a")], &["d"]);
        let (m, ctx) = fp_model(&y).unwrap();
        let names = ctx.set_to_names(&y, &m);
        assert!(!names.contains(&"w(a)".to_string()));
        assert!(!names.contains(&"w(b)".to_string()));
        assert!(names.contains(&"w(d)".to_string()));
    }

    #[test]
    fn theorem_8_1_afp_positive_part_equals_fp() {
        let y = well_founded_program(&[("a", "b"), ("b", "a"), ("b", "c")], &["d"]);
        let (fp, ctx_fp) = fp_model(&y).unwrap();
        let afp = afp_general(&y).unwrap();
        // Compare on the w relation by display names (the two contexts
        // intern identically, but names are the robust interface).
        let fp_names = ctx_fp.set_to_names(&y, &fp);
        let afp_names = afp.ctx.set_to_names(&y, &afp.model.pos);
        let fp_w: Vec<&String> = fp_names.iter().filter(|n| n.starts_with("w(")).collect();
        let afp_w: Vec<&String> = afp_names.iter().filter(|n| n.starts_with("w(")).collect();
        assert_eq!(fp_w, afp_w, "Theorem 8.1");
    }

    #[test]
    fn fp_rejects_negative_idb() {
        let mut y = GeneralProgram::new();
        let p = y.symbols.intern("p");
        let q = y.symbols.intern("q");
        let a = y.symbols.intern("a");
        y.rules.push(GeneralRule {
            head: Atom::new(p, vec![Term::Const(a)]),
            body: Formula::not(Formula::Atom(Atom::new(q, vec![Term::Const(a)]))),
        });
        y.rules.push(GeneralRule {
            head: Atom::new(q, vec![Term::Const(a)]),
            body: Formula::False,
        });
        assert!(matches!(
            fp_model(&y),
            Err(GeneralError::NegativeIdbOccurrence(_))
        ));
        // But the alternating fixpoint handles it fine.
        let afp = afp_general(&y).unwrap();
        let names = afp.ctx.set_to_names(&y, &afp.model.pos);
        assert!(names.contains(&"p(a)".to_string()));
    }

    #[test]
    fn function_symbols_rejected() {
        let mut y = GeneralProgram::new();
        let p = y.symbols.intern("p");
        let f = y.symbols.intern("f");
        let a = y.symbols.intern("a");
        y.facts
            .push(Atom::new(p, vec![Term::App(f, vec![Term::Const(a)])]));
        assert_eq!(
            GeneralContext::build(&y).unwrap_err(),
            GeneralError::FunctionSymbols
        );
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut y = GeneralProgram::new();
        let p = y.symbols.intern("p");
        let a = y.symbols.intern("a");
        y.facts.push(Atom::new(p, vec![Term::Const(a)]));
        y.facts
            .push(Atom::new(p, vec![Term::Const(a), Term::Const(a)]));
        assert!(matches!(
            GeneralContext::build(&y),
            Err(GeneralError::ArityMismatch(_))
        ));
    }

    #[test]
    fn empty_domain_rejected() {
        let mut y = GeneralProgram::new();
        let p = y.symbols.intern("p");
        let x = y.symbols.intern("X");
        y.rules.push(GeneralRule {
            head: Atom::new(p, vec![Term::Var(x)]),
            body: Formula::True,
        });
        assert_eq!(
            GeneralContext::build(&y).unwrap_err(),
            GeneralError::EmptyDomain
        );
    }

    #[test]
    fn transitive_closure_in_fp() {
        // tc(X,Y) ← e(X,Y) ∨ ∃Z[e(X,Z) ∧ tc(Z,Y)] — one rule per IDB
        // relation, FP style.
        let mut y = GeneralProgram::new();
        let tc = y.symbols.intern("tc");
        let e = y.symbols.intern("e");
        let x = y.symbols.intern("X");
        let yy = y.symbols.intern("Y");
        let z = y.symbols.intern("Z");
        y.rules.push(GeneralRule {
            head: Atom::new(tc, vec![Term::Var(x), Term::Var(yy)]),
            body: Formula::Or(vec![
                Formula::Atom(Atom::new(e, vec![Term::Var(x), Term::Var(yy)])),
                Formula::exists(
                    vec![z],
                    Formula::And(vec![
                        Formula::Atom(Atom::new(e, vec![Term::Var(x), Term::Var(z)])),
                        Formula::Atom(Atom::new(tc, vec![Term::Var(z), Term::Var(yy)])),
                    ]),
                ),
            ]),
        });
        for (a, b) in [("a", "b"), ("b", "c")] {
            let ca = y.symbols.intern(a);
            let cb = y.symbols.intern(b);
            y.facts
                .push(Atom::new(e, vec![Term::Const(ca), Term::Const(cb)]));
        }
        let (m, ctx) = fp_model(&y).unwrap();
        let names = ctx.set_to_names(&y, &m);
        assert!(names.contains(&"tc(a, c)".to_string()));
        assert!(!names.contains(&"tc(c, a)".to_string()));
    }
}
