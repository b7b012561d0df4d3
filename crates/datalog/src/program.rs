//! Ground (instantiated) programs `P_H` with rule indices.
//!
//! The paper's operators all work on the *Herbrand instantiation* of a
//! program (Section 3.3): every rule has ground terms substituted for its
//! variables in all possible ways. [`GroundProgram`] stores that
//! instantiation with atoms interned to dense [`AtomId`]s and three
//! occurrence indices (by head, by positive-body, by negative-body) so that
//! every fixpoint operator runs in time linear in the program size.
//!
//! ## Copy-on-write snapshots
//!
//! All storage is segmented behind `Arc`s: [`crate::cow::CowVec`] holds
//! the rules and occurrence indices, and [`crate::cow::InternTable`]
//! (two `CowVec`s each) holds the Herbrand base's terms and atoms and the
//! symbol store's names. **Cloning a `GroundProgram` is a handful of
//! reference-count bumps**, however large the program. A clone is an
//! immutable snapshot — mutating either side afterwards copies only the
//! segments actually touched (`Arc::make_mut`), so a mutate → snapshot →
//! solve loop pays `O(delta)` per cycle, not `O(program)`. That holds
//! for a delta that interns new atoms too: it copies the last key
//! segment, one index segment and the segment directories of each table
//! it grows, not the base. Every list-valued element (a rule's body
//! lists, an atom's occurrence lists, an atom's argument list) is a
//! [`SharedSlice`], so the first write to a segment after a snapshot
//! costs one allocation and a memcpy with reference-count bumps, not one
//! allocation per element, and a one-fact write allocates the same
//! amount at any program size. The interning entry points
//! ([`GroundProgram::intern_symbol`], [`GroundProgram::intern_const`],
//! [`GroundProgram::intern_term`], [`GroundProgram::intern_atom_ids`],
//! [`GroundProgram::import_rule`]) probe before they write: re-interning
//! something already present never copies a shared segment, which keeps
//! steady-state update loops allocation-free on the shared storage.
//!
//! ## Where the occurrence indices grow
//!
//! Interning an atom does not touch the occurrence indices. They grow in
//! `GroundProgram::extend_rules`, the only way rules enter, once per
//! batch: each index is extended to the base's atom count a segment at a
//! time, the batch's occurrences are sorted by atom, and every list the
//! batch touches is rebuilt once (in place when it is short enough to
//! sit in its slot). An atom interned after the last batch is simply
//! past the end of the indices, which read as empty lists there.

use crate::ast::{Program, Term};
use crate::atoms::{write_ground_atom, AtomId, ConstId, GroundTerm, HerbrandBase};
use crate::bitset::AtomSet;
use crate::cow::{CowVec, SharedSlice};
use crate::symbol::{Symbol, SymbolStore};
use std::fmt;

/// Index of a rule within a [`GroundProgram`].
pub type RuleId = u32;

/// A ground normal rule `head ← pos₁,…,posₖ, ¬neg₁,…,¬negₘ`.
///
/// `pos` and `neg` are sorted and deduplicated at construction so that the
/// counter-based propagation engines can decrement exactly once per
/// (atom, rule) pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroundRule {
    /// Head atom.
    pub head: AtomId,
    /// Positive body atoms (sorted, deduplicated). Shared by reference
    /// count: cloning the rule allocates nothing.
    pub pos: SharedSlice<AtomId>,
    /// Negated body atoms (sorted, deduplicated). Shared like `pos`.
    pub neg: SharedSlice<AtomId>,
}

impl GroundRule {
    /// Normalize body lists: sort and deduplicate. A list longer than
    /// [`crate::cow::INLINE`] is copied into a shared vector; a shorter
    /// one sits in place.
    pub fn new(head: AtomId, mut pos: Vec<AtomId>, mut neg: Vec<AtomId>) -> Self {
        Self::from_scratch(head, &mut pos, &mut neg)
    }

    /// [`GroundRule::new`] over the caller's scratch buffers, which are
    /// normalized in place and can be reused: the rule allocates only
    /// for its own long lists.
    pub fn from_scratch(head: AtomId, pos: &mut Vec<AtomId>, neg: &mut Vec<AtomId>) -> Self {
        for list in [&mut *pos, &mut *neg] {
            list.sort_unstable();
            list.dedup();
        }
        GroundRule {
            head,
            pos: SharedSlice::from(&pos[..]),
            neg: SharedSlice::from(&neg[..]),
        }
    }

    /// True iff the rule has an empty body.
    pub fn is_fact(&self) -> bool {
        self.pos.is_empty() && self.neg.is_empty()
    }
}

/// An instantiated program together with its interned Herbrand base and
/// occurrence indices.
///
/// `Clone` is a copy-on-write snapshot (reference-count bumps only); see
/// the module docs.
#[derive(Clone)]
pub struct GroundProgram {
    rules: CowVec<GroundRule>,
    base: HerbrandBase,
    symbols: SymbolStore,
    head_index: CowVec<SharedSlice<RuleId>>,
    pos_index: CowVec<SharedSlice<RuleId>>,
    neg_index: CowVec<SharedSlice<RuleId>>,
}

impl GroundProgram {
    /// The rules, in id order.
    pub fn rules(&self) -> impl Iterator<Item = &GroundRule> {
        self.rules.iter()
    }

    /// A rule by id.
    #[inline]
    pub fn rule(&self, id: RuleId) -> &GroundRule {
        self.rules.get(id as usize)
    }

    /// Number of rules.
    pub fn rule_count(&self) -> usize {
        self.rules.len()
    }

    /// Size of the Herbrand base (number of distinct atoms). This is the
    /// universe every [`AtomSet`] over this program ranges over.
    pub fn atom_count(&self) -> usize {
        self.base.atom_count()
    }

    /// The interned Herbrand base.
    pub fn base(&self) -> &HerbrandBase {
        &self.base
    }

    /// The symbol store names resolve through.
    pub fn symbols(&self) -> &SymbolStore {
        &self.symbols
    }

    /// Rules whose head is `atom`.
    #[inline]
    pub fn rules_with_head(&self, atom: AtomId) -> &[RuleId] {
        occurrences(&self.head_index, atom)
    }

    /// Rules with `atom` in their positive body.
    #[inline]
    pub fn rules_with_pos(&self, atom: AtomId) -> &[RuleId] {
        occurrences(&self.pos_index, atom)
    }

    /// Rules with `atom` in their negative body.
    #[inline]
    pub fn rules_with_neg(&self, atom: AtomId) -> &[RuleId] {
        occurrences(&self.neg_index, atom)
    }

    /// An empty atom set sized for this program's Herbrand base.
    pub fn empty_set(&self) -> AtomSet {
        AtomSet::empty(self.atom_count())
    }

    /// The full Herbrand base as a set.
    pub fn full_set(&self) -> AtomSet {
        AtomSet::full(self.atom_count())
    }

    /// Render a ground atom ([`write_ground_atom`]).
    pub fn atom_name(&self, id: AtomId) -> String {
        let mut out = String::new();
        self.write_atom(&mut out, id);
        out
    }

    /// Append a ground atom to `out` ([`write_ground_atom`]).
    pub fn write_atom(&self, out: &mut String, id: AtomId) {
        write_ground_atom(out, &self.base, id, &self.symbols);
    }

    /// Append a rule to `out`, terminated with `.`: positive body atoms,
    /// then negated ones, each list in atom-id order.
    pub fn write_rule(&self, out: &mut String, rule: &GroundRule) {
        self.write_atom(out, rule.head);
        let body = rule
            .pos
            .iter()
            .map(|&a| (a, ""))
            .chain(rule.neg.iter().map(|&a| (a, "not ")));
        for (i, (atom, sign)) in body.enumerate() {
            out.push_str(if i == 0 { " :- " } else { ", " });
            out.push_str(sign);
            self.write_atom(out, atom);
        }
        out.push('.');
    }

    /// Resolve an atom by textual predicate name and constant arguments.
    /// Returns `None` if any name is unknown or the atom was never
    /// materialized during grounding (such an atom is false in every
    /// semantics computed over this program).
    pub fn find_atom_by_name(&self, pred: &str, args: &[&str]) -> Option<AtomId> {
        let p = self.symbols.get(pred)?;
        let mut ids = Vec::with_capacity(args.len());
        for a in args {
            let sym = self.symbols.get(a)?;
            let id = self.base.find_term(&crate::atoms::GroundTerm::Const(sym))?;
            ids.push(id);
        }
        self.base.find_atom(p, &ids)
    }

    /// Render a set of atoms sorted by display name — handy in tests and
    /// the experiment harness.
    pub fn set_to_names(&self, set: &AtomSet) -> Vec<String> {
        let mut v: Vec<String> = set.iter().map(|id| self.atom_name(AtomId(id))).collect();
        v.sort();
        v
    }

    /// Total size: Σ over rules of (1 + |pos| + |neg|). The complexity
    /// bounds in DESIGN.md are stated against this quantity.
    pub fn size(&self) -> usize {
        self.rules
            .iter()
            .map(|r| 1 + r.pos.len() + r.neg.len())
            .sum()
    }

    /// Intern a ground atom (over term ids of **this program's base**).
    /// New atoms start with no rules — false in every semantics — until
    /// rules are pushed; the occurrence indices grow when they are (see
    /// the module docs). Read-first: an already-interned atom is
    /// resolved without touching (and so without copying) shared storage.
    pub fn intern_atom_ids(&mut self, pred: Symbol, args: &[ConstId]) -> AtomId {
        self.base.intern_atom(pred, args)
    }

    /// Intern a symbol name, read-first (a known name never copies a
    /// shared segment).
    pub fn intern_symbol(&mut self, name: &str) -> Symbol {
        self.symbols.intern(name)
    }

    /// Intern a constant term, read-first.
    pub fn intern_const(&mut self, sym: Symbol) -> ConstId {
        self.intern_term(GroundTerm::Const(sym))
    }

    /// Intern a ground term (over this program's symbols and term ids),
    /// read-first.
    pub fn intern_term(&mut self, term: GroundTerm) -> ConstId {
        self.base.intern_term(term)
    }

    /// Translate an AST rule from another symbol store into this
    /// program's, read-first (see [`crate::ast::import_rule`]).
    pub fn import_rule(&mut self, rule: &crate::ast::Rule, from: &SymbolStore) -> crate::ast::Rule {
        crate::ast::import_rule_with(&mut |name| self.intern_symbol(name), rule, from)
    }

    /// Mutable access to the Herbrand base, for interning ground terms
    /// before [`GroundProgram::intern_atom_ids`], or for sizing it ahead
    /// of a bulk load ([`HerbrandBase::reserve`]). Interning through it
    /// copies only the segments it writes.
    pub fn base_mut(&mut self) -> &mut HerbrandBase {
        &mut self.base
    }

    /// Mutable access to the symbol store (to intern predicate or constant
    /// names arriving after initial grounding); prefer
    /// [`GroundProgram::intern_symbol`] on warm paths.
    pub fn symbols_mut(&mut self) -> &mut SymbolStore {
        &mut self.symbols
    }

    /// Do `self` and `other` still share all their Herbrand base and
    /// symbol storage? True between a program and its snapshot until one
    /// of them interns a genuinely new symbol/term/atom (which un-shares
    /// a few segments, never the whole base) — the observable guarantee
    /// of the copy-on-write layout, asserted by tests and relied on by
    /// [`GroundProgram::restrict_heads`].
    pub fn shares_base_with(&self, other: &GroundProgram) -> bool {
        self.base.shares_storage_with(&other.base)
            && self.symbols.shares_storage_with(&other.symbols)
    }

    /// Append a rule, maintaining the occurrence indices. Body lists are
    /// normalized exactly as during initial construction.
    pub fn push_rule(&mut self, head: AtomId, pos: Vec<AtomId>, neg: Vec<AtomId>) -> RuleId {
        let id = self.rules.len() as RuleId;
        self.extend_rules(CowVec::from_vec(vec![GroundRule::new(head, pos, neg)]));
        id
    }

    /// Append `rules`, which take the ids from
    /// [`GroundProgram::rule_count`] on, maintaining the occurrence
    /// indices. Each index grows to the base's atom count once per
    /// batch, and each occurrence list the batch touches is rebuilt once,
    /// however many of the new rules it gains: rules
    /// appended one at a time would copy the list of an atom occurring in
    /// `k` of them `k` times. The batch's segments join the program's
    /// rules as they are when the program ends on a segment boundary, as
    /// an empty one does: a cold load copies no rule.
    pub(crate) fn extend_rules(&mut self, rules: CowVec<GroundRule>) {
        if rules.is_empty() {
            return;
        }
        let first = self.rules.len() as RuleId;
        let atoms = self.base.atom_count();
        let indices: [(_, AtomsOf); 3] = [
            (&mut self.head_index, |r| std::slice::from_ref(&r.head)),
            (&mut self.pos_index, |r| &r.pos),
            (&mut self.neg_index, |r| &r.neg),
        ];
        let mut by_atom: Vec<(u32, RuleId)> = Vec::new();
        for (index, atoms_of) in indices {
            index.grow_with(atoms, SharedSlice::default);
            occurrences_by_atom(&rules, first, atoms_of, &mut by_atom);
            let groups = by_atom.chunk_by(|x, y| x.0 == y.0);
            index.edit_ascending(groups.map(|g| (g[0].0 as usize, g)), |list, g| {
                list.extend(g.iter().map(|&(_, id)| id))
            });
        }
        self.rules.append(rules);
    }

    /// Add `atom` to the negative body of each of `rules` (a rule that
    /// already has it is skipped), maintaining the occurrence indices
    /// with one edit of `atom`'s list, however many rules there are. Used
    /// by the incremental grounder to resurrect negative literals it had
    /// pruned while their atom was outside the positive envelope.
    pub fn add_neg_literals(&mut self, atom: AtomId, rules: &[RuleId]) {
        let mut added = Vec::with_capacity(rules.len());
        for &rule in rules {
            let r = self.rules.get_mut(rule as usize);
            if let Err(ix) = r.neg.binary_search(&atom) {
                r.neg.insert(ix, atom);
                added.push(rule);
            }
        }
        if !added.is_empty() {
            let atoms = self.base.atom_count();
            self.neg_index.grow_with(atoms, SharedSlice::default);
            self.neg_index
                .get_mut(atom.index())
                .extend(added.iter().copied());
        }
    }

    /// Remove a rule by id via swap-remove: the **last** rule takes over
    /// `id` (the returned value names the rule that moved, if any). All
    /// occurrence indices are patched; other rule ids are unchanged.
    pub fn remove_rule(&mut self, id: RuleId) -> Option<RuleId> {
        let unlink = |index: &mut CowVec<SharedSlice<RuleId>>, atom: AtomId, rid: RuleId| {
            let v = index.get_mut(atom.index());
            let pos = v.iter().position(|&r| r == rid).expect("indexed rule");
            v.swap_remove(pos);
        };
        let relink =
            |index: &mut CowVec<SharedSlice<RuleId>>, atom: AtomId, from: RuleId, to: RuleId| {
                let v = index.get_mut(atom.index());
                let pos = v.iter().position(|&r| r == from).expect("indexed rule");
                v.replace(pos, to);
            };
        let gone = self.rules.get(id as usize).clone();
        unlink(&mut self.head_index, gone.head, id);
        for &p in gone.pos.iter() {
            unlink(&mut self.pos_index, p, id);
        }
        for &q in gone.neg.iter() {
            unlink(&mut self.neg_index, q, id);
        }
        let last = (self.rules.len() - 1) as RuleId;
        self.rules.swap_remove(id as usize);
        if last == id {
            return None;
        }
        let moved = self.rules.get(id as usize).clone();
        relink(&mut self.head_index, moved.head, last, id);
        for &p in moved.pos.iter() {
            relink(&mut self.pos_index, p, last, id);
        }
        for &q in moved.neg.iter() {
            relink(&mut self.neg_index, q, last, id);
        }
        Some(last)
    }

    /// A copy of this program over the **same Herbrand base and atom ids**
    /// but keeping only the rules whose head is in `keep`. Atoms outside
    /// `keep` lose all their rules and become false in every semantics —
    /// which is exactly what query-directed relevance restriction wants
    /// (see `afp-core::relevance`). The base and symbol store are shared
    /// with `self` (copy-on-write clones), so restriction costs only the
    /// kept rules and their indices.
    pub fn restrict_heads(&self, keep: &crate::bitset::AtomSet) -> GroundProgram {
        let mut rules = CowVec::new();
        rules.extend(
            self.rules
                .iter()
                .filter(|r| keep.contains(r.head.0))
                .cloned(),
        );
        let mut restricted = GroundProgram::without_rules(self.base.clone(), self.symbols.clone());
        restricted.extend_rules(rules);
        restricted
    }

    /// A program over `base` and `symbols` with no rules yet.
    fn without_rules(base: HerbrandBase, symbols: SymbolStore) -> GroundProgram {
        GroundProgram {
            rules: CowVec::new(),
            head_index: CowVec::new(),
            pos_index: CowVec::new(),
            neg_index: CowVec::new(),
            base,
            symbols,
        }
    }
}

/// The atoms of a rule that one occurrence index lists it under.
type AtomsOf = fn(&GroundRule) -> &[AtomId];

/// The list of `atom` in an occurrence index: empty past its end, where
/// the atoms interned since the last batch of rules lie.
#[inline]
fn occurrences(index: &CowVec<SharedSlice<RuleId>>, atom: AtomId) -> &[RuleId] {
    index.try_get(atom.index()).map_or(&[], |list| list)
}

/// The occurrences `(atom, rule id)` of `rules`, whose ids start at
/// `first`, under `atoms_of`, into `out` sorted by atom and, within an
/// atom, by rule id: the ids stay in order in every list.
fn occurrences_by_atom(
    rules: &CowVec<GroundRule>,
    first: RuleId,
    atoms_of: AtomsOf,
    out: &mut Vec<(u32, RuleId)>,
) {
    out.clear();
    for (id, r) in (first..).zip(rules.iter()) {
        out.extend(atoms_of(r).iter().map(|a| (a.0, id)));
    }
    out.sort_unstable();
}

impl fmt::Debug for GroundProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GroundProgram")
            .field("rules", &self.rules.len())
            .field("atoms", &self.atom_count())
            .finish()
    }
}

/// One rule per line ([`GroundProgram::write_rule`]): text that parses
/// back to the same rules.
impl fmt::Display for GroundProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut line = String::new();
        for r in self.rules.iter() {
            line.clear();
            self.write_rule(&mut line, r);
            line.push('\n');
            f.write_str(&line)?;
        }
        Ok(())
    }
}

/// Incremental builder for [`GroundProgram`].
#[derive(Default)]
pub struct GroundProgramBuilder {
    rules: CowVec<GroundRule>,
    base: HerbrandBase,
    symbols: SymbolStore,
}

impl GroundProgramBuilder {
    /// Start from an empty Herbrand base and symbol store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Start from an existing symbol store (e.g. the one a [`Program`] was
    /// parsed into) so that displayed names match the source.
    pub fn with_symbols(symbols: SymbolStore) -> Self {
        GroundProgramBuilder {
            rules: CowVec::new(),
            base: HerbrandBase::new(),
            symbols,
        }
    }

    /// Access the symbol store mutably (to intern new names).
    pub fn symbols_mut(&mut self) -> &mut SymbolStore {
        &mut self.symbols
    }

    /// Access the Herbrand base mutably (to intern terms/atoms).
    pub fn base_mut(&mut self) -> &mut HerbrandBase {
        &mut self.base
    }

    /// Intern a propositional atom by name.
    pub fn prop(&mut self, name: &str) -> AtomId {
        let sym = self.symbols.intern(name);
        self.base.intern_atom(sym, &[])
    }

    /// Intern an atom `pred(c1, …, ck)` over constant names.
    pub fn atom(&mut self, pred: &str, args: &[&str]) -> AtomId {
        let p = self.symbols.intern(pred);
        let ids: Vec<_> = args
            .iter()
            .map(|a| {
                let sym = self.symbols.intern(a);
                self.base.intern_const(sym)
            })
            .collect();
        self.base.intern_atom(p, &ids)
    }

    /// Add a rule.
    pub fn rule(&mut self, head: AtomId, pos: Vec<AtomId>, neg: Vec<AtomId>) -> &mut Self {
        self.rules.push(GroundRule::new(head, pos, neg));
        self
    }

    /// Add a fact.
    pub fn fact(&mut self, head: AtomId) -> &mut Self {
        self.rules.push(GroundRule::new(head, vec![], vec![]));
        self
    }

    /// Current number of interned atoms.
    pub fn atom_count(&self) -> usize {
        self.base.atom_count()
    }

    /// Current number of rules.
    pub fn rule_count(&self) -> usize {
        self.rules.len()
    }

    /// Build the indices and finish.
    pub fn finish(self) -> GroundProgram {
        let mut prog = GroundProgram::without_rules(self.base, self.symbols);
        prog.extend_rules(self.rules);
        prog
    }
}

/// Build a ground program directly from an AST [`Program`] whose rules are
/// all ground (no variables). This bypasses the grounder for propositional
/// programs — the common case in tests, random workloads, and the paper's
/// propositional examples.
///
/// # Errors
/// Returns the display string of the first non-ground rule encountered.
pub fn ground_program_from_ast(program: &Program) -> Result<GroundProgram, String> {
    let mut b = GroundProgramBuilder::with_symbols(program.symbols.clone());
    for rule in &program.rules {
        let head = intern_atom_checked(&mut b, &rule.head, rule, &program.symbols)?;
        let mut pos = Vec::new();
        let mut neg = Vec::new();
        for lit in &rule.body {
            let id = intern_atom_checked(&mut b, &lit.atom, rule, &program.symbols)?;
            if lit.positive {
                pos.push(id);
            } else {
                neg.push(id);
            }
        }
        b.rule(head, pos, neg);
    }
    Ok(b.finish())
}

fn intern_atom_checked(
    b: &mut GroundProgramBuilder,
    atom: &crate::ast::Atom,
    rule: &crate::ast::Rule,
    symbols: &SymbolStore,
) -> Result<AtomId, String> {
    if !atom.is_ground() {
        return Err(format!(
            "rule is not ground: {}",
            crate::ast::display_rule(rule, symbols)
        ));
    }
    let mut args = Vec::with_capacity(atom.args.len());
    for t in &atom.args {
        args.push(intern_ground_term(b, t));
    }
    Ok(b.base.intern_atom(atom.pred, &args))
}

fn intern_ground_term(b: &mut GroundProgramBuilder, t: &Term) -> crate::atoms::ConstId {
    match t {
        Term::Const(c) => b.base.intern_const(*c),
        Term::App(f, args) => {
            let ids: Vec<_> = args.iter().map(|a| intern_ground_term(b, a)).collect();
            b.base
                .intern_term(crate::atoms::GroundTerm::App(*f, ids.into_boxed_slice()))
        }
        Term::Var(_) => unreachable!("groundness checked by caller"),
    }
}

/// Parse a propositional (already-ground) program from text — a convenience
/// wrapper for tests and examples.
pub fn parse_ground(src: &str) -> GroundProgram {
    let ast = crate::parser::parse_program(src).expect("parse error");
    ground_program_from_ast(&ast).expect("program must be ground")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_indices() {
        let mut b = GroundProgramBuilder::new();
        let p = b.prop("p");
        let q = b.prop("q");
        let r = b.prop("r");
        b.rule(p, vec![q], vec![r]);
        b.fact(q);
        let g = b.finish();
        assert_eq!(g.rule_count(), 2);
        assert_eq!(g.atom_count(), 3);
        assert_eq!(g.rules_with_head(p), &[0]);
        assert_eq!(g.rules_with_pos(q), &[0]);
        assert_eq!(g.rules_with_neg(r), &[0]);
        assert_eq!(g.rules_with_head(q), &[1]);
        assert_eq!(g.size(), 2 + 1 + 1 + 1 - 1); // rule0: 1+1+1, rule1: 1
    }

    #[test]
    fn duplicate_body_literals_are_deduped() {
        let mut b = GroundProgramBuilder::new();
        let p = b.prop("p");
        let q = b.prop("q");
        b.rule(p, vec![q, q], vec![q, q]);
        let g = b.finish();
        assert_eq!(g.rule(0).pos.len(), 1);
        assert_eq!(g.rule(0).neg.len(), 1);
    }

    #[test]
    fn from_ast_ground_program() {
        let g = parse_ground("p :- q, not r. q. r :- not s.");
        assert_eq!(g.rule_count(), 3);
        assert_eq!(g.atom_count(), 4);
        let p = g.find_atom_by_name("p", &[]).unwrap();
        assert_eq!(g.atom_name(p), "p");
    }

    #[test]
    fn from_ast_rejects_variables() {
        let ast = crate::parser::parse_program("p(X) :- q(X).").unwrap();
        let err = ground_program_from_ast(&ast).unwrap_err();
        assert!(err.contains("not ground"));
    }

    #[test]
    fn from_ast_with_relational_facts() {
        let g = parse_ground("e(a, b). e(b, c). p(a, c) :- e(a, b), e(b, c).");
        assert_eq!(g.atom_count(), 3);
        let atom = g.find_atom_by_name("e", &["a", "b"]).unwrap();
        assert_eq!(g.atom_name(atom), "e(a, b)");
        assert!(g.find_atom_by_name("e", &["a", "c"]).is_none());
        assert!(g.find_atom_by_name("nope", &[]).is_none());
    }

    #[test]
    fn display_roundtrip() {
        let g = parse_ground("p :- q, not r. q.");
        let text = g.to_string();
        assert!(text.contains("p :- q, not r."));
        assert!(text.contains("q."));
    }

    #[test]
    fn clone_is_a_snapshot_mutation_is_isolated() {
        let mut g = parse_ground("p :- q, not r. q. r :- not s.");
        let snapshot = g.clone();
        assert!(g.shares_base_with(&snapshot), "clone shares all storage");

        // Mutate the original: push a new fact rule for an existing atom.
        let s = g.find_atom_by_name("s", &[]).unwrap();
        g.push_rule(s, vec![], vec![]);
        assert_eq!(g.rule_count(), 4);
        assert_eq!(snapshot.rule_count(), 3, "snapshot sees the old rules");
        assert!(snapshot.rules_with_head(s).is_empty());
        assert_eq!(g.rules_with_head(s).len(), 1);
        assert!(
            g.shares_base_with(&snapshot),
            "no new atoms: the Herbrand base stays shared"
        );

        // Interning a genuinely new atom un-shares the base only then.
        let sym = g.intern_symbol("brand_new");
        g.intern_atom_ids(sym, &[]);
        assert!(!g.shares_base_with(&snapshot));
        assert!(snapshot.find_atom_by_name("brand_new", &[]).is_none());
    }

    #[test]
    fn read_first_interning_never_unshares() {
        let mut g = parse_ground("e(a, b). p :- e(a, b).");
        let snapshot = g.clone();
        // Everything below re-interns existing material only.
        let sym_e = g.intern_symbol("e");
        let sym_a = g.intern_symbol("a");
        let sym_b = g.intern_symbol("b");
        let a = g.intern_const(sym_a);
        let b = g.intern_const(sym_b);
        assert_eq!(
            g.intern_atom_ids(sym_e, &[a, b]),
            g.base().find_atom(sym_e, &[a, b]).unwrap()
        );
        assert!(
            g.shares_base_with(&snapshot),
            "re-interning known symbols/terms/atoms must not copy shared storage"
        );
    }

    #[test]
    fn remove_rule_after_snapshot_keeps_snapshot_indices_intact() {
        let mut g = parse_ground("p :- q, not r. q. r :- not s.");
        let snapshot = g.clone();
        let q = g.find_atom_by_name("q", &[]).unwrap();
        let fact = *g
            .rules_with_head(q)
            .iter()
            .find(|&&r| g.rule(r).is_fact())
            .unwrap();
        g.remove_rule(fact);
        assert_eq!(g.rule_count(), 2);
        assert_eq!(snapshot.rule_count(), 3);
        let snap_fact = snapshot.rules_with_head(q);
        assert_eq!(snap_fact.len(), 1);
        assert!(snapshot.rule(snap_fact[0]).is_fact());
    }

    #[test]
    fn restrict_heads_shares_the_base() {
        let g = parse_ground("p :- q. q. r :- not p.");
        let p = g.find_atom_by_name("p", &[]).unwrap();
        let keep = AtomSet::from_iter(g.atom_count(), [p.0]);
        let restricted = g.restrict_heads(&keep);
        assert!(restricted.shares_base_with(&g));
        assert_eq!(restricted.rule_count(), 1);
    }

    #[test]
    fn function_symbol_ground_atoms() {
        let g = parse_ground("p(f(a)). q :- p(f(a)).");
        let q = g.find_atom_by_name("q", &[]).unwrap();
        assert_eq!(g.atom_name(q), "q");
        assert_eq!(g.atom_count(), 2);
        assert_eq!(g.rule(1).pos.len(), 1);
    }
}
