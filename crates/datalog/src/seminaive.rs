//! Semi-naive bottom-up evaluation of positive programs.
//!
//! This is the classical Horn-clause least-fixpoint `T_P↑ω` of van Emden &
//! Kowalski computed at the *relational* level: rules are compiled to
//! backtracking joins over indexed relations, and each round only re-joins
//! against the tuples newly derived in the previous round (the semi-naive
//! delta discipline). The store is append-only, so that delta is the row
//! range each relation grew by, not a second database, and every body
//! position of a join carries its own row range. The grounder
//! ([`mod@crate::ground`]) runs this engine on
//! the negation-erased program to obtain the *positive envelope* — the set
//! of atoms with any derivation at all — and then instantiates rules only
//! over that envelope.

use crate::ast::{Rule, Term};
use crate::atoms::{ConstId, GroundTerm, HerbrandBase};
use crate::error::GroundError;
use crate::fx::FxHashMap;
use crate::relation::{Database, Marks, Relation};
use crate::symbol::Symbol;
use std::cmp::Ordering;
use std::ops::Range;

/// A term pattern with rule variables renamed to dense slots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Pat {
    /// Slot in the binding environment.
    Var(usize),
    /// A constant symbol (interned to a term id lazily during matching).
    Const(Symbol),
    /// Function application over sub-patterns.
    App(Symbol, Vec<Pat>),
}

impl Pat {
    /// True when every variable in the pattern is bound in `env`.
    fn is_determined(&self, env: &[Option<ConstId>]) -> bool {
        match self {
            Pat::Var(v) => env[*v].is_some(),
            Pat::Const(_) => true,
            Pat::App(_, args) => args.iter().all(|a| a.is_determined(env)),
        }
    }
}

/// A compiled atom: predicate plus argument patterns.
#[derive(Debug, Clone)]
pub struct CompiledAtom {
    /// Predicate symbol.
    pub pred: Symbol,
    /// Argument patterns.
    pub pats: Vec<Pat>,
}

/// A rule compiled for join evaluation. Only positive body literals are
/// retained here; callers that need the negative literals (the grounder)
/// keep them separately.
#[derive(Debug, Clone)]
pub struct CompiledRule {
    /// Compiled head.
    pub head: CompiledAtom,
    /// Compiled positive body, in evaluation order.
    pub body: Vec<CompiledAtom>,
    /// Number of variable slots.
    pub nvars: usize,
    /// Map from slot to the source variable symbol (for diagnostics).
    pub var_names: Vec<Symbol>,
}

/// Compile a rule's head and positive body. `extra_guards` are appended to
/// the body after compilation (used for active-domain safety guards).
pub fn compile_rule(rule: &Rule, extra_guards: &[CompiledAtom]) -> CompiledRule {
    let mut slots: FxHashMap<Symbol, usize> = FxHashMap::default();
    let mut var_names = Vec::new();
    let compile_term = |t: &Term,
                        slots: &mut FxHashMap<Symbol, usize>,
                        var_names: &mut Vec<Symbol>|
     -> Pat { compile_term_rec(t, slots, var_names) };
    let mut body = Vec::new();
    for lit in rule.body.iter().filter(|l| l.positive) {
        let pats = lit
            .atom
            .args
            .iter()
            .map(|t| compile_term(t, &mut slots, &mut var_names))
            .collect();
        body.push(CompiledAtom {
            pred: lit.atom.pred,
            pats,
        });
    }
    let head_pats = rule
        .head
        .args
        .iter()
        .map(|t| compile_term(t, &mut slots, &mut var_names))
        .collect();
    // Also assign slots to variables that occur only in negative literals,
    // so the grounder can substitute them (they are guarded separately).
    for lit in rule.body.iter().filter(|l| !l.positive) {
        for t in &lit.atom.args {
            compile_term(t, &mut slots, &mut var_names);
        }
    }
    body.extend(extra_guards.iter().cloned());
    CompiledRule {
        head: CompiledAtom {
            pred: rule.head.pred,
            pats: head_pats,
        },
        body,
        nvars: slots.len(),
        var_names,
    }
}

fn compile_term_rec(
    t: &Term,
    slots: &mut FxHashMap<Symbol, usize>,
    var_names: &mut Vec<Symbol>,
) -> Pat {
    match t {
        Term::Var(v) => {
            let next = slots.len();
            let slot = *slots.entry(*v).or_insert(next);
            if slot == var_names.len() {
                var_names.push(*v);
            }
            Pat::Var(slot)
        }
        Term::Const(c) => Pat::Const(*c),
        Term::App(f, args) => Pat::App(
            *f,
            args.iter()
                .map(|a| compile_term_rec(a, slots, var_names))
                .collect(),
        ),
    }
}

/// Compile a negative literal's atom against the slot assignment of an
/// already-compiled rule (slots must match — call with the same rule).
pub fn compile_neg_atoms(rule: &Rule) -> Vec<CompiledAtom> {
    // Recompute the same slot assignment deterministically.
    let compiled = compile_rule(rule, &[]);
    let mut slots: FxHashMap<Symbol, usize> = FxHashMap::default();
    for (i, v) in compiled.var_names.iter().enumerate() {
        slots.insert(*v, i);
    }
    let mut out = Vec::new();
    for lit in rule.body.iter().filter(|l| !l.positive) {
        let pats = lit
            .atom
            .args
            .iter()
            .map(|t| compile_term_ro(t, &slots))
            .collect();
        out.push(CompiledAtom {
            pred: lit.atom.pred,
            pats,
        });
    }
    out
}

fn compile_term_ro(t: &Term, slots: &FxHashMap<Symbol, usize>) -> Pat {
    match t {
        Term::Var(v) => Pat::Var(*slots.get(v).expect("slot assigned for every rule variable")),
        Term::Const(c) => Pat::Const(*c),
        Term::App(f, args) => {
            Pat::App(*f, args.iter().map(|a| compile_term_ro(a, slots)).collect())
        }
    }
}

/// Match a pattern against an interned ground term, extending `env` and
/// recording each slot it binds on `trail` (so the caller can undo the
/// bindings whether or not the match succeeds).
fn match_pat(
    pat: &Pat,
    value: ConstId,
    env: &mut [Option<ConstId>],
    trail: &mut Vec<usize>,
    base: &HerbrandBase,
) -> bool {
    match pat {
        Pat::Var(slot) => match env[*slot] {
            Some(bound) => bound == value,
            None => {
                env[*slot] = Some(value);
                trail.push(*slot);
                true
            }
        },
        Pat::Const(c) => base.find_term(&GroundTerm::Const(*c)) == Some(value),
        Pat::App(f, pats) => match base.term(value) {
            GroundTerm::App(g, args) if g == f && args.len() == pats.len() => pats
                .iter()
                .zip(args.iter())
                .all(|(p, &a)| match_pat(p, a, env, trail, base)),
            _ => false,
        },
    }
}

/// Evaluate a fully determined pattern to a term id, interning new terms as
/// needed (head construction).
pub fn eval_pat(pat: &Pat, env: &[Option<ConstId>], base: &mut HerbrandBase) -> ConstId {
    match pat {
        Pat::Var(slot) => env[*slot].expect("pattern not determined"),
        Pat::Const(c) => base.intern_const(*c),
        Pat::App(f, pats) => {
            let args: Vec<ConstId> = pats.iter().map(|p| eval_pat(p, env, base)).collect();
            base.intern_term(GroundTerm::App(*f, args.into_boxed_slice()))
        }
    }
}

/// Evaluate a fully determined pattern without interning; `None` when some
/// sub-term was never materialized (in which case no tuple can match it).
pub fn try_eval_pat(pat: &Pat, env: &[Option<ConstId>], base: &HerbrandBase) -> Option<ConstId> {
    match pat {
        Pat::Var(slot) => env[*slot],
        Pat::Const(c) => base.find_term(&GroundTerm::Const(*c)),
        Pat::App(f, pats) => {
            let mut args = Vec::with_capacity(pats.len());
            for p in pats {
                args.push(try_eval_pat(p, env, base)?);
            }
            base.find_term(&GroundTerm::App(*f, args.into_boxed_slice()))
        }
    }
}

/// Where one body position of a join looks: a relation and the range of
/// its rows to match.
pub type Scope<'a> = (&'a Relation, Range<u32>);

/// The scopes of a join of `body` over the rows of `db` before the mark
/// `to` (all rows if `None`).
pub fn full_scopes<'a>(
    db: &'a Database,
    body: &[CompiledAtom],
    to: Option<&Marks>,
) -> Vec<Scope<'a>> {
    body.iter()
        .map(|a| db.rows_between(a.pred, a.pats.len(), None, to))
        .collect()
}

/// The scopes of the semi-naive step over `body` focused on position
/// `focus`: the focus ranges over the rows added between the marks `lo`
/// and `hi` (now if `None`), the positions before it over the rows
/// before `lo`, and the positions after it over the rows before `hi`. A
/// binding that matches new rows at several positions is so enumerated
/// once, at the first of them.
pub fn focused_scopes<'a>(
    db: &'a Database,
    body: &[CompiledAtom],
    focus: usize,
    lo: &Marks,
    hi: Option<&Marks>,
) -> Vec<Scope<'a>> {
    body.iter()
        .enumerate()
        .map(|(i, a)| {
            let (from, to) = match i.cmp(&focus) {
                Ordering::Less => (None, Some(lo)),
                Ordering::Equal => (Some(lo), hi),
                Ordering::Greater => (None, hi),
            };
            db.rows_between(a.pred, a.pats.len(), from, to)
        })
        .collect()
}

/// Backtracking join: enumerate every binding of `body` whose atom `i`
/// matches a row in `scopes[i]`, in row order, and call `emit` with the
/// complete environment (`nvars` slots).
///
/// # Panics
/// Panics if a column it probes is not indexed: callers index the body
/// predicates first ([`index_bodies`]).
pub fn join(
    body: &[CompiledAtom],
    scopes: &[Scope<'_>],
    nvars: usize,
    base: &HerbrandBase,
    emit: &mut dyn FnMut(&[Option<ConstId>], &HerbrandBase),
) {
    Join {
        body,
        scopes,
        base,
        env: vec![None; nvars],
        trail: Vec::new(),
        emit,
    }
    .rec(0);
}

struct Join<'a, 'e> {
    body: &'a [CompiledAtom],
    scopes: &'a [Scope<'a>],
    base: &'a HerbrandBase,
    env: Vec<Option<ConstId>>,
    /// Slots bound since the start of the join, innermost last.
    trail: Vec<usize>,
    emit: &'e mut dyn FnMut(&[Option<ConstId>], &HerbrandBase),
}

impl Join<'_, '_> {
    fn rec(&mut self, depth: usize) {
        if depth == self.body.len() {
            (self.emit)(&self.env, self.base);
            return;
        }
        let (rel, rows) = (self.scopes[depth].0, self.scopes[depth].1.clone());
        if rows.is_empty() {
            return;
        }
        // Probe the first column whose pattern the bindings so far fix.
        let mut probe: Option<(usize, ConstId)> = None;
        for (col, pat) in self.body[depth].pats.iter().enumerate() {
            if pat.is_determined(&self.env) {
                match try_eval_pat(pat, &self.env, self.base) {
                    Some(v) => {
                        probe = Some((col, v));
                        break;
                    }
                    // A determined pattern naming a term that was never
                    // materialized matches nothing.
                    None => return,
                }
            }
        }
        match probe {
            Some((col, value)) => {
                let hits = rel
                    .probe(col, value, rows)
                    .expect("callers index every body column before joining");
                for &r in hits {
                    self.try_row(depth, rel.row(r));
                }
            }
            None => {
                for r in rows {
                    self.try_row(depth, rel.row(r));
                }
            }
        }
    }

    fn try_row(&mut self, depth: usize, row: &[ConstId]) {
        let mark = self.trail.len();
        let matched = self.body[depth]
            .pats
            .iter()
            .zip(row)
            .all(|(pat, &val)| match_pat(pat, val, &mut self.env, &mut self.trail, self.base));
        if matched {
            self.rec(depth + 1);
        }
        for slot in self.trail.drain(mark..) {
            self.env[slot] = None;
        }
    }
}

/// Resource bounds for evaluation; exceeding them aborts with an error
/// instead of diverging (function symbols can make the envelope infinite).
#[derive(Debug, Clone, Copy)]
pub struct EvalLimits {
    /// Maximum number of tuples across all relations.
    pub max_tuples: usize,
}

impl Default for EvalLimits {
    fn default() -> Self {
        EvalLimits {
            max_tuples: 10_000_000,
        }
    }
}

/// Index every column of every positive body predicate of `rules`
/// (creating empty relations as needed), so that joins over them probe
/// instead of scanning. Head-only predicates stay unindexed.
pub fn index_bodies(db: &mut Database, rules: &[CompiledRule]) {
    for atom in rules.iter().flat_map(|r| &r.body) {
        let arity = atom.pats.len();
        let rel = db.relation_mut(atom.pred, arity);
        for col in 0..arity {
            rel.ensure_index(col);
        }
    }
}

/// Compute the least model of a *positive* program by semi-naive
/// iteration. `db` holds the facts on entry and the least model on
/// return; compiled rules with an empty body fire once first.
pub fn evaluate_positive(
    rules: &[CompiledRule],
    db: &mut Database,
    base: &mut HerbrandBase,
    limits: &EvalLimits,
) -> Result<(), GroundError> {
    let since = Marks::default();
    for rule in rules.iter().filter(|r| r.body.is_empty()) {
        let env: Vec<Option<ConstId>> = vec![None; rule.nvars];
        let head: Vec<ConstId> = rule
            .head
            .pats
            .iter()
            .map(|p| eval_pat(p, &env, base))
            .collect();
        db.insert(rule.head.pred, &head);
    }
    extend_positive(rules, db, &since, base, limits)
}

/// Run the semi-naive rounds of `rules` over `db` to closure. The rows
/// `db` gained since the mark `since` are the first round's delta; each
/// later round's delta is what the round before it added. On return the
/// rows since `since` are exactly the tuples this extension added, its
/// seed included — which the incremental grounder uses to instantiate
/// only the affected rule instances.
pub fn extend_positive(
    rules: &[CompiledRule],
    db: &mut Database,
    since: &Marks,
    base: &mut HerbrandBase,
    limits: &EvalLimits,
) -> Result<(), GroundError> {
    index_bodies(db, rules);
    let mut lo = since.clone();
    // The bindings one focused join found, flat, `nvars` slots each.
    let mut envs: Vec<Option<ConstId>> = Vec::new();
    let mut head: Vec<ConstId> = Vec::new();
    loop {
        if db.total_tuples() > limits.max_tuples {
            return Err(GroundError::AtomBudgetExceeded {
                limit: limits.max_tuples,
            });
        }
        let hi = db.marks();
        if db.grown(&lo, Some(&hi)).next().is_none() {
            return Ok(());
        }
        for rule in rules {
            for focus in 0..rule.body.len() {
                let scopes = focused_scopes(db, &rule.body, focus, &lo, Some(&hi));
                if scopes[focus].1.is_empty() {
                    continue;
                }
                envs.clear();
                let mut n = 0usize;
                join(&rule.body, &scopes, rule.nvars, base, &mut |env, _| {
                    envs.extend_from_slice(env);
                    n += 1;
                });
                // Heads may name terms not interned yet: build them after
                // the join, which only reads the base.
                for env in (0..n).map(|k| &envs[k * rule.nvars..(k + 1) * rule.nvars]) {
                    head.clear();
                    head.extend(rule.head.pats.iter().map(|p| eval_pat(p, env, base)));
                    db.insert(rule.head.pred, &head);
                }
            }
        }
        lo = hi;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_atom_into, parse_program};

    /// Helper: run the positive part of a parsed program.
    fn run(src: &str) -> (Database, HerbrandBase, crate::symbol::SymbolStore) {
        let prog = parse_program(src).unwrap();
        let mut base = HerbrandBase::new();
        let mut db = Database::new();
        let mut rules = Vec::new();
        for rule in &prog.rules {
            if rule.is_fact() {
                let tuple: Vec<ConstId> = rule
                    .head
                    .args
                    .iter()
                    .map(|t| intern_ground(t, &mut base))
                    .collect();
                db.insert(rule.head.pred, &tuple);
            } else {
                rules.push(compile_rule(rule, &[]));
            }
        }
        evaluate_positive(&rules, &mut db, &mut base, &EvalLimits::default()).unwrap();
        (db, base, prog.symbols)
    }

    fn intern_ground(t: &Term, base: &mut HerbrandBase) -> ConstId {
        match t {
            Term::Const(c) => base.intern_const(*c),
            Term::App(f, args) => {
                let ids: Vec<ConstId> = args.iter().map(|a| intern_ground(a, base)).collect();
                base.intern_term(GroundTerm::App(*f, ids.into_boxed_slice()))
            }
            Term::Var(_) => panic!("fact with variable"),
        }
    }

    #[test]
    fn transitive_closure() {
        let (db, base, syms) = run("e(a,b). e(b,c). e(c,d).
             tc(X,Y) :- e(X,Y).
             tc(X,Y) :- e(X,Z), tc(Z,Y).");
        let tc = syms.get("tc").unwrap();
        let rel = db.relation(tc, 2).unwrap();
        assert_eq!(rel.len(), 6); // ab ac ad bc bd cd
        let a = base
            .find_term(&GroundTerm::Const(syms.get("a").unwrap()))
            .unwrap();
        let d = base
            .find_term(&GroundTerm::Const(syms.get("d").unwrap()))
            .unwrap();
        assert!(rel.contains(&[a, d]));
        assert!(!rel.contains(&[d, a]));
    }

    #[test]
    fn join_with_repeated_variables() {
        let (db, _, syms) = run("e(a,a). e(a,b). loop(X) :- e(X,X).");
        let l = syms.get("loop").unwrap();
        assert_eq!(db.relation(l, 1).unwrap().len(), 1);
    }

    #[test]
    fn constants_in_rule_bodies() {
        let (db, _, syms) = run("e(a,b). e(b,c). from_a(Y) :- e(a,Y).");
        assert_eq!(
            db.relation(syms.get("from_a").unwrap(), 1).unwrap().len(),
            1
        );
    }

    #[test]
    fn function_symbols_in_heads() {
        // Successor-bounded arithmetic: derivations build new terms.
        let (db, base, syms) = run("n(z).
             n(s(X)) :- n(X), small(X).
             small(z). small(s(z)).");
        let n = syms.get("n").unwrap();
        // z, s(z), s(s(z)) — growth stops because small/1 is finite.
        assert_eq!(db.relation(n, 1).unwrap().len(), 3);
        assert!(base.term_count() >= 3);
    }

    #[test]
    fn budget_stops_runaway_programs() {
        let prog = parse_program("n(z). n(s(X)) :- n(X).").unwrap();
        let mut base = HerbrandBase::new();
        let mut db = Database::new();
        let mut rules = Vec::new();
        for rule in &prog.rules {
            if rule.is_fact() {
                let t: Vec<ConstId> = rule
                    .head
                    .args
                    .iter()
                    .map(|t| intern_ground(t, &mut base))
                    .collect();
                db.insert(rule.head.pred, &t);
            } else {
                rules.push(compile_rule(rule, &[]));
            }
        }
        let limits = EvalLimits { max_tuples: 100 };
        let err = evaluate_positive(&rules, &mut db, &mut base, &limits).unwrap_err();
        assert!(matches!(err, GroundError::AtomBudgetExceeded { .. }));
    }

    #[test]
    fn seminaive_equals_expected_on_cycles() {
        let (db, _, syms) = run("e(a,b). e(b,a).
             tc(X,Y) :- e(X,Y).
             tc(X,Y) :- e(X,Z), tc(Z,Y).");
        // {a,b}² — cycles must terminate.
        assert_eq!(db.relation(syms.get("tc").unwrap(), 2).unwrap().len(), 4);
    }

    #[test]
    fn propositional_rules_work() {
        let (db, _, syms) = run("p. q :- p. r :- q, p.");
        assert!(db.contains(syms.get("r").unwrap(), &[]));
    }

    /// Every tuple of `db`, rendered, as a set.
    fn rendered(
        db: &Database,
        base: &HerbrandBase,
        syms: &crate::symbol::SymbolStore,
    ) -> std::collections::BTreeSet<String> {
        db.grown(&Marks::default(), None)
            .flat_map(|(pred, rel, rows)| rows.map(move |r| (pred, rel.row(r))))
            .map(|(pred, row)| render(pred, row, base, syms))
            .collect()
    }

    fn render(
        pred: Symbol,
        row: &[ConstId],
        base: &HerbrandBase,
        syms: &crate::symbol::SymbolStore,
    ) -> String {
        let mut out = format!("{}(", syms.name(pred));
        for (i, &t) in row.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            crate::atoms::write_ground_term(&mut out, base, t, syms);
        }
        out.push(')');
        out
    }

    /// The reference: naive `T_P` iteration, every rule matched against
    /// every combination of rows (no indexes, no row ranges), until
    /// nothing new is derived.
    fn naive_fixpoint(rules: &[CompiledRule], db: &mut Database, base: &mut HerbrandBase) {
        loop {
            let mut derived: Vec<(Symbol, Vec<ConstId>)> = Vec::new();
            for rule in rules {
                let rels: Vec<Vec<Vec<ConstId>>> = rule
                    .body
                    .iter()
                    .map(|a| match db.relation(a.pred, a.pats.len()) {
                        Some(rel) => rel.rows().map(<[ConstId]>::to_vec).collect(),
                        None => Vec::new(),
                    })
                    .collect();
                let mut pick = vec![0usize; rels.len()];
                if rels.iter().any(Vec::is_empty) {
                    continue;
                }
                loop {
                    let mut env = vec![None; rule.nvars];
                    let mut trail = Vec::new();
                    let matched = rule.body.iter().zip(&pick).enumerate().all(|(i, (a, &k))| {
                        a.pats
                            .iter()
                            .zip(&rels[i][k])
                            .all(|(p, &v)| match_pat(p, v, &mut env, &mut trail, base))
                    });
                    if matched {
                        let head = rule.head.pats.iter().map(|p| eval_pat(p, &env, base));
                        derived.push((rule.head.pred, head.collect()));
                    }
                    // Next combination, odometer style.
                    let mut i = 0;
                    while i < pick.len() {
                        pick[i] += 1;
                        if pick[i] < rels[i].len() {
                            break;
                        }
                        pick[i] = 0;
                        i += 1;
                    }
                    if i == pick.len() {
                        break;
                    }
                }
            }
            let mut grew = false;
            for (pred, tuple) in derived {
                grew |= db.insert(pred, &tuple);
            }
            if !grew {
                return;
            }
        }
    }

    /// A seeded random positive program: transitive closure with the
    /// recursive predicate at both body positions, a function term built
    /// in one head and matched in another body, and a few random rules
    /// over constants and variables. Returns the rules and the facts.
    fn random_positive_program(seed: u64) -> (String, Vec<String>) {
        let mut rng = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = |n: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % n
        };
        let mut rules = String::from(
            "path(X, Y) :- e(X, Y).\n\
             path(X, Z) :- path(X, Y), path(Y, Z).\n\
             w(f(X)) :- path(X, a).\n\
             v(X) :- w(f(X)), path(X, X).\n",
        );
        let preds = [("e", 2), ("path", 2), ("p", 2), ("q", 1), ("v", 1)];
        let terms = ["X", "Y", "Z", "a", "b", "c"];
        for _ in 0..2 + next(3) {
            let mut body = Vec::new();
            let mut vars = Vec::new();
            for _ in 0..1 + next(3) {
                let (pred, arity) = preds[next(preds.len() as u64) as usize];
                let args: Vec<&str> = (0..arity)
                    .map(|_| terms[next(terms.len() as u64) as usize])
                    .collect();
                vars.extend(args.iter().filter(|t| t.starts_with(char::is_uppercase)));
                body.push(format!("{pred}({})", args.join(", ")));
            }
            let (head, arity) = [("p", 2), ("q", 1), ("path", 2)][next(3) as usize];
            let args: Vec<&str> = (0..arity)
                .map(|_| match vars.len() {
                    0 => terms[3 + next(3) as usize],
                    n => vars[next(n as u64) as usize],
                })
                .collect();
            rules.push_str(&format!(
                "{head}({}) :- {}.\n",
                args.join(", "),
                body.join(", ")
            ));
        }
        let consts = ["a", "b", "c", "d", "f(a)"];
        let facts = (0..4 + next(8))
            .map(|_| {
                let x = consts[next(5) as usize];
                let y = consts[next(5) as usize];
                match next(4) {
                    0 => format!("q({x})."),
                    _ => format!("e({x}, {y})."),
                }
            })
            .collect();
        (rules, facts)
    }

    /// Parse `src`, compile its rules and seed a database with its facts.
    fn load_positive(
        src: &str,
    ) -> (
        Vec<CompiledRule>,
        Database,
        HerbrandBase,
        crate::ast::Program,
    ) {
        let prog = parse_program(src).unwrap();
        let mut base = HerbrandBase::new();
        let mut db = Database::new();
        let mut rules = Vec::new();
        for rule in &prog.rules {
            if rule.is_fact() {
                let t: Vec<ConstId> = rule
                    .head
                    .args
                    .iter()
                    .map(|t| intern_ground(t, &mut base))
                    .collect();
                db.insert(rule.head.pred, &t);
            } else {
                rules.push(compile_rule(rule, &[]));
            }
        }
        (rules, db, base, prog)
    }

    #[test]
    fn row_range_rounds_equal_the_naive_fixpoint() {
        for seed in 0..150 {
            let (rules, facts) = random_positive_program(seed);
            let src = format!("{rules}{}", facts.join(" "));
            let (compiled, mut db, mut base, prog) = load_positive(&src);
            evaluate_positive(&compiled, &mut db, &mut base, &EvalLimits::default()).unwrap();
            let (compiled, mut naive, mut nbase, nprog) = load_positive(&src);
            naive_fixpoint(&compiled, &mut naive, &mut nbase);
            assert_eq!(
                rendered(&db, &base, &prog.symbols),
                rendered(&naive, &nbase, &nprog.symbols),
                "seed {seed}:\n{src}"
            );
        }
    }

    #[test]
    fn a_warm_extension_reports_exactly_the_rows_it_added() {
        for seed in 0..150 {
            let (rules, facts) = random_positive_program(seed);
            let (old_facts, new_facts) = facts.split_at(facts.len() / 2);
            let src = format!("{rules}{}", old_facts.join(" "));
            let (compiled, mut db, mut base, mut prog) = load_positive(&src);
            evaluate_positive(&compiled, &mut db, &mut base, &EvalLimits::default()).unwrap();
            let old = rendered(&db, &base, &prog.symbols);

            let since = db.marks();
            for fact in new_facts {
                let atom = parse_atom_into(fact.trim_end_matches('.'), &mut prog).unwrap();
                let t: Vec<ConstId> = atom
                    .args
                    .iter()
                    .map(|t| intern_ground(t, &mut base))
                    .collect();
                db.insert(atom.pred, &t);
            }
            let syms = &prog.symbols;
            extend_positive(
                &compiled,
                &mut db,
                &since,
                &mut base,
                &EvalLimits::default(),
            )
            .unwrap();
            let new = rendered(&db, &base, syms);
            let added: Vec<String> = db
                .grown(&since, None)
                .flat_map(|(pred, rel, rows)| rows.map(move |r| (pred, rel.row(r))))
                .map(|(pred, row)| render(pred, row, &base, syms))
                .collect();
            let expected: Vec<&String> = new.difference(&old).collect();
            let mut sorted: Vec<&String> = added.iter().collect();
            sorted.sort();
            assert_eq!(sorted, expected, "seed {seed}");
            assert_eq!(added.len(), expected.len(), "no row is reported twice");

            let all = format!("{rules}{}", facts.join(" "));
            let (compiled, mut cold, mut cbase, cprog) = load_positive(&all);
            evaluate_positive(&compiled, &mut cold, &mut cbase, &EvalLimits::default()).unwrap();
            let cold = rendered(&cold, &cbase, &cprog.symbols);
            assert_eq!(new, cold, "seed {seed}: warm = cold");
        }
    }

    #[test]
    fn compile_assigns_slots_to_negative_only_vars() {
        let prog = parse_program("p(X) :- e(X, Y), not q(Y, Z).").unwrap();
        let compiled = compile_rule(&prog.rules[0], &[]);
        // X, Y from positive body and head; Z from the negative literal.
        assert_eq!(compiled.nvars, 3);
        let negs = compile_neg_atoms(&prog.rules[0]);
        assert_eq!(negs.len(), 1);
        assert_eq!(negs[0].pats.len(), 2);
    }
}
