//! The abstract syntax of normal logic programs (Definition 3.1).
//!
//! A *normal rule* is `head ← l₁, …, lₙ` where the head is an atom and each
//! `lᵢ` is a literal — an atom or a negated atom. A *normal logic program* is
//! a finite set of normal rules. A *fact* is a variable-free rule with an
//! empty body; the extensional database (EDB) of a program is exactly its
//! facts (Section 2.5).
//!
//! Terms may contain function symbols (the paper works over general Herbrand
//! universes); the grounder in [`mod@crate::ground`] bounds instantiation so that
//! only finitely-derivable programs are accepted.

use crate::symbol::{Symbol, SymbolStore};

/// A first-order term: a variable, a constant, or a function application.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Term {
    /// A logical variable (`X`, `Y`, …). Variables are scoped to one rule.
    Var(Symbol),
    /// A constant (`a`, `42`, `'two words'`).
    Const(Symbol),
    /// A function application `f(t₁, …, tₖ)` with `k ≥ 1`.
    App(Symbol, Vec<Term>),
}

impl Term {
    /// True if no variable occurs in the term.
    pub fn is_ground(&self) -> bool {
        match self {
            Term::Var(_) => false,
            Term::Const(_) => true,
            Term::App(_, args) => args.iter().all(Term::is_ground),
        }
    }

    /// Collect the variables of this term into `out` (with duplicates).
    pub fn collect_vars(&self, out: &mut Vec<Symbol>) {
        match self {
            Term::Var(v) => out.push(*v),
            Term::Const(_) => {}
            Term::App(_, args) => {
                for a in args {
                    a.collect_vars(out);
                }
            }
        }
    }
}

/// An atomic formula `p(t₁, …, tₖ)`; `k = 0` atoms are propositions.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Atom {
    /// The predicate (relation) symbol.
    pub pred: Symbol,
    /// Argument terms.
    pub args: Vec<Term>,
}

impl Atom {
    /// Construct an atom.
    pub fn new(pred: Symbol, args: Vec<Term>) -> Self {
        Atom { pred, args }
    }

    /// A zero-ary (propositional) atom.
    pub fn prop(pred: Symbol) -> Self {
        Atom { pred, args: vec![] }
    }

    /// Number of arguments.
    pub fn arity(&self) -> usize {
        self.args.len()
    }

    /// True if every argument is ground.
    pub fn is_ground(&self) -> bool {
        self.args.iter().all(Term::is_ground)
    }

    /// Collect variables (with duplicates) into `out`.
    pub fn collect_vars(&self, out: &mut Vec<Symbol>) {
        for t in &self.args {
            t.collect_vars(out);
        }
    }
}

/// A body literal: an atom or its negation. "¬ q" is read *q cannot be
/// proved* (negation as failure), never classical negation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Literal {
    /// The underlying atom.
    pub atom: Atom,
    /// `true` for a positive literal, `false` for a negated one.
    pub positive: bool,
}

impl Literal {
    /// A positive literal.
    pub fn pos(atom: Atom) -> Self {
        Literal {
            atom,
            positive: true,
        }
    }

    /// A negative literal.
    pub fn neg(atom: Atom) -> Self {
        Literal {
            atom,
            positive: false,
        }
    }
}

/// A normal rule `head ← body` (Definition 3.1). An empty body means the
/// head holds unconditionally; if additionally the head is ground, the rule
/// is a *fact*.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Rule {
    /// The rule head.
    pub head: Atom,
    /// Conjunction of body literals.
    pub body: Vec<Literal>,
}

impl Rule {
    /// Construct a rule.
    pub fn new(head: Atom, body: Vec<Literal>) -> Self {
        Rule { head, body }
    }

    /// A bodyless rule.
    pub fn fact(head: Atom) -> Self {
        Rule { head, body: vec![] }
    }

    /// True iff this is a fact: ground head, no body.
    pub fn is_fact(&self) -> bool {
        self.body.is_empty() && self.head.is_ground()
    }

    /// Positive body literals.
    pub fn pos_body(&self) -> impl Iterator<Item = &Atom> {
        self.body.iter().filter(|l| l.positive).map(|l| &l.atom)
    }

    /// Negative body literals (their atoms).
    pub fn neg_body(&self) -> impl Iterator<Item = &Atom> {
        self.body.iter().filter(|l| !l.positive).map(|l| &l.atom)
    }

    /// All variables of the rule, deduplicated, in first-occurrence order.
    pub fn variables(&self) -> Vec<Symbol> {
        let mut vars = Vec::new();
        self.head.collect_vars(&mut vars);
        for l in &self.body {
            l.atom.collect_vars(&mut vars);
        }
        let mut seen = Vec::new();
        for v in vars {
            if !seen.contains(&v) {
                seen.push(v);
            }
        }
        seen
    }
}

/// A normal logic program: a finite set of rules plus the symbol store all
/// of its names live in.
#[derive(Debug, Clone, Default)]
pub struct Program {
    /// The rules, in source order.
    pub rules: Vec<Rule>,
    /// Interned names.
    pub symbols: SymbolStore,
}

impl Program {
    /// An empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a rule.
    pub fn push(&mut self, rule: Rule) {
        self.rules.push(rule);
    }

    /// Predicates that appear only as facts — the extensional database
    /// (Section 2.5). Returned in first-appearance order.
    pub fn edb_predicates(&self) -> Vec<Symbol> {
        let mut order = Vec::new();
        let mut intensional = Vec::new();
        for r in &self.rules {
            if !order.contains(&r.head.pred) {
                order.push(r.head.pred);
            }
            if !r.is_fact() && !intensional.contains(&r.head.pred) {
                intensional.push(r.head.pred);
            }
        }
        order.retain(|p| !intensional.contains(p));
        order
    }

    /// Predicates defined by at least one non-fact rule — the intentional
    /// database.
    pub fn idb_predicates(&self) -> Vec<Symbol> {
        let mut out = Vec::new();
        for r in &self.rules {
            if !r.is_fact() && !out.contains(&r.head.pred) {
                out.push(r.head.pred);
            }
        }
        out
    }

    /// Every predicate that occurs anywhere (head or body), in first
    /// appearance order.
    pub fn all_predicates(&self) -> Vec<Symbol> {
        let mut out = Vec::new();
        let push = |p: Symbol, out: &mut Vec<Symbol>| {
            if !out.contains(&p) {
                out.push(p);
            }
        };
        for r in &self.rules {
            push(r.head.pred, &mut out);
            for l in &r.body {
                push(l.atom.pred, &mut out);
            }
        }
        out
    }

    /// Render the whole program in re-parseable syntax, one rule per
    /// line.
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        for r in &self.rules {
            write_rule(&mut s, r, &self.symbols);
            s.push('\n');
        }
        s
    }
}

/// Translate an atom expressed against a foreign [`SymbolStore`] into
/// `to`'s symbol space, mapping by name and interning as needed. Two
/// stores that start as clones diverge as soon as either side interns a
/// new name, so any atom crossing between them goes through this.
pub fn import_atom(to: &mut SymbolStore, atom: &Atom, from: &SymbolStore) -> Atom {
    import_atom_with(&mut |name| to.intern(name), atom, from)
}

/// [`import_atom`] generalized over the interner: callers with
/// copy-on-write symbol storage (`GroundProgram::import_atom`) pass a
/// read-first closure so that importing already-known names never forces
/// a copy of a shared store.
pub fn import_atom_with(
    intern: &mut impl FnMut(&str) -> Symbol,
    atom: &Atom,
    from: &SymbolStore,
) -> Atom {
    fn import_term(t: &Term, from: &SymbolStore, intern: &mut impl FnMut(&str) -> Symbol) -> Term {
        match t {
            Term::Const(c) => Term::Const(intern(from.name(*c))),
            Term::App(f, args) => Term::App(
                intern(from.name(*f)),
                args.iter().map(|a| import_term(a, from, intern)).collect(),
            ),
            Term::Var(v) => Term::Var(intern(from.name(*v))),
        }
    }
    Atom::new(
        intern(from.name(atom.pred)),
        atom.args
            .iter()
            .map(|t| import_term(t, from, intern))
            .collect(),
    )
}

/// Translate a whole rule between symbol stores — [`import_atom`] applied
/// to the head and every body atom, preserving literal order and polarity.
/// Used by the incremental grounder to bring asserted/retracted rules into
/// its own symbol space before compiling or matching them.
pub fn import_rule(to: &mut SymbolStore, rule: &Rule, from: &SymbolStore) -> Rule {
    import_rule_with(&mut |name| to.intern(name), rule, from)
}

/// [`import_rule`] generalized over the interner, like
/// [`import_atom_with`].
pub fn import_rule_with(
    intern: &mut impl FnMut(&str) -> Symbol,
    rule: &Rule,
    from: &SymbolStore,
) -> Rule {
    Rule::new(
        import_atom_with(intern, &rule.head, from),
        rule.body
            .iter()
            .map(|l| Literal {
                atom: import_atom_with(intern, &l.atom, from),
                positive: l.positive,
            })
            .collect(),
    )
}

/// Render a term.
pub fn display_term(t: &Term, store: &SymbolStore) -> String {
    let mut out = String::new();
    write_term(&mut out, t, store);
    out
}

/// Render an atom.
pub fn display_atom(a: &Atom, store: &SymbolStore) -> String {
    let mut out = String::new();
    write_atom(&mut out, a, store);
    out
}

/// Render a rule, terminated with `.`.
pub fn display_rule(r: &Rule, store: &SymbolStore) -> String {
    let mut out = String::new();
    write_rule(&mut out, r, store);
    out
}

/// Append the rendering of `t` to `out`.
fn write_term(out: &mut String, t: &Term, store: &SymbolStore) {
    match t {
        Term::Var(v) => out.push_str(store.name(*v)),
        Term::Const(c) => write_constant(out, store.name(*c)),
        Term::App(f, args) => {
            out.push_str(store.name(*f));
            write_args(out, args, store);
        }
    }
}

/// Append `(t₁, …, tₖ)` to `out`.
fn write_args(out: &mut String, args: &[Term], store: &SymbolStore) {
    out.push('(');
    for (i, t) in args.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write_term(out, t, store);
    }
    out.push(')');
}

/// Append the rendering of `a` to `out`.
fn write_atom(out: &mut String, a: &Atom, store: &SymbolStore) {
    out.push_str(store.name(a.pred));
    if !a.args.is_empty() {
        write_args(out, &a.args, store);
    }
}

/// Append the rendering of `l` to `out`.
fn write_literal(out: &mut String, l: &Literal, store: &SymbolStore) {
    if !l.positive {
        out.push_str("not ");
    }
    write_atom(out, &l.atom, store);
}

/// Append the rendering of `r`, terminated with `.`, to `out`.
pub(crate) fn write_rule(out: &mut String, r: &Rule, store: &SymbolStore) {
    write_atom(out, &r.head, store);
    for (i, l) in r.body.iter().enumerate() {
        out.push_str(if i == 0 { " :- " } else { ", " });
        write_literal(out, l, store);
    }
    out.push('.');
}

/// Append a constant name to `out`, quoted unless the lexer reads it
/// back bare as this one constant: a number (`42`, `7_b`), or an
/// identifier that starts with a letter that is not upper case and
/// continues with ASCII letters, digits and `_` or other alphanumerics,
/// and is not `not` (which reads as negation).
pub(crate) fn write_constant(out: &mut String, name: &str) {
    let mut chars = name.chars();
    let bare = match chars.next() {
        Some(first) if first.is_ascii_digit() => {
            chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
        }
        Some(first) => {
            first.is_alphabetic()
                && !first.is_uppercase()
                && chars.all(|c| {
                    c.is_ascii_alphanumeric() || c == '_' || (!c.is_ascii() && c.is_alphanumeric())
                })
                && name != "not"
        }
        None => false,
    };
    if bare {
        out.push_str(name);
    } else {
        out.push('\'');
        for c in name.chars() {
            if c == '\\' || c == '\'' {
                out.push('\\');
            }
            out.push(c);
        }
        out.push('\'');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_program() -> Program {
        // wins(X) :- move(X, Y), not wins(Y).   move(a,b).
        let mut p = Program::new();
        let wins = p.symbols.intern("wins");
        let mv = p.symbols.intern("move");
        let x = p.symbols.intern("X");
        let y = p.symbols.intern("Y");
        let a = p.symbols.intern("a");
        let b = p.symbols.intern("b");
        p.push(Rule::new(
            Atom::new(wins, vec![Term::Var(x)]),
            vec![
                Literal::pos(Atom::new(mv, vec![Term::Var(x), Term::Var(y)])),
                Literal::neg(Atom::new(wins, vec![Term::Var(y)])),
            ],
        ));
        p.push(Rule::fact(Atom::new(
            mv,
            vec![Term::Const(a), Term::Const(b)],
        )));
        p
    }

    #[test]
    fn groundness() {
        let p = small_program();
        assert!(!p.rules[0].head.is_ground());
        assert!(p.rules[1].head.is_ground());
        assert!(p.rules[1].is_fact());
        assert!(!p.rules[0].is_fact());
    }

    #[test]
    fn edb_idb_partition() {
        let p = small_program();
        let edb = p.edb_predicates();
        let idb = p.idb_predicates();
        assert_eq!(edb.len(), 1);
        assert_eq!(p.symbols.name(edb[0]), "move");
        assert_eq!(idb.len(), 1);
        assert_eq!(p.symbols.name(idb[0]), "wins");
    }

    #[test]
    fn variables_deduplicated_in_order() {
        let p = small_program();
        let vars = p.rules[0].variables();
        let names: Vec<&str> = vars.iter().map(|v| p.symbols.name(*v)).collect();
        assert_eq!(names, vec!["X", "Y"]);
    }

    #[test]
    fn display_roundtrip_shape() {
        let p = small_program();
        let text = p.to_text();
        assert!(text.contains("wins(X) :- move(X, Y), not wins(Y)."));
        assert!(text.contains("move(a, b)."));
    }

    #[test]
    fn quoting_non_bare_constants() {
        let quoted = |name: &str| {
            let mut out = String::new();
            write_constant(&mut out, name);
            out
        };
        assert_eq!(quoted("abc"), "abc");
        assert_eq!(quoted("a_b1"), "a_b1");
        assert_eq!(quoted("Abc"), "'Abc'");
        assert_eq!(quoted("two words"), "'two words'");
        assert_eq!(quoted("it's"), "'it\\'s'");
        assert_eq!(quoted("42"), "42");
        assert_eq!(quoted(""), "''");
        assert_eq!(quoted("not"), "'not'");
        assert_eq!(quoted("nota"), "nota");
        assert_eq!(quoted("a\\b"), "'a\\\\b'");
        assert_eq!(quoted("ñandú"), "ñandú");
        assert_eq!(quoted("Ñandú"), "'Ñandú'");
        assert_eq!(quoted("1é"), "'1é'");
        assert_eq!(quoted("a-b"), "'a-b'");
    }

    #[test]
    fn function_terms_display() {
        let mut store = SymbolStore::new();
        let f = store.intern("f");
        let a = store.intern("a");
        let x = store.intern("X");
        let t = Term::App(f, vec![Term::Const(a), Term::Var(x)]);
        assert_eq!(display_term(&t, &store), "f(a, X)");
        assert!(!t.is_ground());
    }

    #[test]
    fn pos_neg_body_iterators() {
        let p = small_program();
        assert_eq!(p.rules[0].pos_body().count(), 1);
        assert_eq!(p.rules[0].neg_body().count(), 1);
    }
}
