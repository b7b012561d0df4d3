//! Interning of ground terms and ground atoms — the Herbrand machinery.
//!
//! The *Herbrand universe* of a program is the set of ground terms built
//! from its constants and function symbols; the *Herbrand base* `H` is the
//! set of ground atoms over those terms (Section 3). Both are interned here
//! into dense ids so that interpretations are bitsets ([`crate::bitset`])
//! and rule bodies are flat id arrays.
//!
//! Both intern tables are copy-on-write ([`crate::cow::InternTable`]):
//! cloning a base is a handful of reference-count bumps, and interning
//! into a clone copies a few segments, not the base. An atom's argument
//! list is a [`SharedSlice`], so copying a key segment is one allocation
//! and a reference-count bump per key, not an allocation per key.

use crate::ast::{write_constant, Atom, Term};
use crate::cow::{fx_hash, InternTable, SharedSlice};
use crate::symbol::{Symbol, SymbolStore};
use std::fmt;

/// An interned ground term (element of the Herbrand universe).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConstId(u32);

impl ConstId {
    /// Raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The structure of an interned ground term.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum GroundTerm {
    /// A constant.
    Const(Symbol),
    /// A function application over already-interned arguments.
    App(Symbol, Box<[ConstId]>),
}

/// An interned ground atom (element of the Herbrand base).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AtomId(pub u32);

impl AtomId {
    /// Raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Intern table for the Herbrand universe (ground terms) and Herbrand base
/// (ground atoms) actually materialized by grounding.
///
/// `Clone` is a copy-on-write snapshot; see the module docs.
#[derive(Default, Clone)]
pub struct HerbrandBase {
    terms: InternTable<GroundTerm>,
    atoms: InternTable<(Symbol, SharedSlice<ConstId>)>,
}

impl HerbrandBase {
    /// An empty base.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a constant.
    pub fn intern_const(&mut self, sym: Symbol) -> ConstId {
        self.intern_term(GroundTerm::Const(sym))
    }

    /// Intern a ground term.
    pub fn intern_term(&mut self, term: GroundTerm) -> ConstId {
        let hash = fx_hash(&term);
        let id = match self.terms.find(hash, |t| *t == term) {
            Some(id) => id,
            None => self.terms.insert_new(hash, term),
        };
        ConstId(id)
    }

    /// Intern a ground atom `pred(args…)`. Allocates only when the atom
    /// is new: one allocation for a non-empty argument list, plus what
    /// the table's growth costs.
    pub fn intern_atom(&mut self, pred: Symbol, args: &[ConstId]) -> AtomId {
        let hash = fx_hash(&(pred, args));
        let id = match self.atoms.find(hash, |(p, a)| *p == pred && **a == *args) {
            Some(id) => id,
            None => self.atoms.insert_new(hash, (pred, args.into())),
        };
        AtomId(id)
    }

    /// Size the term and atom indexes for `terms` and `atoms` more
    /// keys ([`InternTable::reserve`]), ahead of a bulk load.
    pub fn reserve(&mut self, terms: usize, atoms: usize) {
        self.terms.reserve(terms);
        self.atoms.reserve(atoms);
    }

    /// Look up an atom without interning. Never allocates.
    pub fn find_atom(&self, pred: Symbol, args: &[ConstId]) -> Option<AtomId> {
        self.atoms
            .find(fx_hash(&(pred, args)), |(p, a)| *p == pred && **a == *args)
            .map(AtomId)
    }

    /// Look up a ground term without interning.
    pub fn find_term(&self, term: &GroundTerm) -> Option<ConstId> {
        self.terms.find(fx_hash(term), |t| t == term).map(ConstId)
    }

    /// Look up an AST atom written over this base's symbols, without
    /// interning: `None` when it is not ground or was never interned.
    pub fn find_ground_atom(&self, atom: &Atom) -> Option<AtomId> {
        fn find(t: &Term, base: &HerbrandBase) -> Option<ConstId> {
            match t {
                Term::Const(c) => base.find_term(&GroundTerm::Const(*c)),
                Term::App(f, args) => {
                    let ids: Option<Box<[ConstId]>> = args.iter().map(|a| find(a, base)).collect();
                    base.find_term(&GroundTerm::App(*f, ids?))
                }
                Term::Var(_) => None,
            }
        }
        let args: Option<Vec<ConstId>> = atom.args.iter().map(|t| find(t, self)).collect();
        self.find_atom(atom.pred, &args?)
    }

    /// Number of interned atoms (the size of the materialized Herbrand base).
    pub fn atom_count(&self) -> usize {
        self.atoms.len()
    }

    /// Number of interned ground terms.
    pub fn term_count(&self) -> usize {
        self.terms.len()
    }

    /// Predicate and arguments of an atom.
    pub fn atom(&self, id: AtomId) -> (Symbol, &[ConstId]) {
        let (p, args) = self.atoms.key(id.0);
        (*p, args)
    }

    /// Structure of a ground term.
    pub fn term(&self, id: ConstId) -> &GroundTerm {
        self.terms.key(id.0)
    }

    /// Does `self` share all its storage with `other` (is one an
    /// unmutated clone of the other)?
    pub(crate) fn shares_storage_with(&self, other: &Self) -> bool {
        self.terms.shares_storage_with(&other.terms) && self.atoms.shares_storage_with(&other.atoms)
    }

    /// Iterate over all interned atom ids.
    pub fn atom_ids(&self) -> impl Iterator<Item = AtomId> {
        (0..self.atoms.len() as u32).map(AtomId)
    }

    /// All atoms of a given predicate.
    pub fn atoms_of(&self, pred: Symbol) -> impl Iterator<Item = AtomId> + '_ {
        self.atoms
            .iter()
            .enumerate()
            .filter(move |(_, (p, _))| *p == pred)
            .map(|(i, _)| AtomId(i as u32))
    }
}

/// Append ground term `id` of `base` to `out` in the surface syntax,
/// constants quoted as the AST writer quotes them, so the text parses
/// back to the same term.
pub fn write_ground_term(
    out: &mut String,
    base: &HerbrandBase,
    id: ConstId,
    symbols: &SymbolStore,
) {
    match base.term(id) {
        GroundTerm::Const(c) => write_constant(out, symbols.name(*c)),
        GroundTerm::App(f, args) => {
            out.push_str(symbols.name(*f));
            write_ground_args(out, base, args, symbols);
        }
    }
}

/// Append ground atom `id` of `base` to `out`, like
/// [`write_ground_term`]: the one renderer of ground atoms.
pub fn write_ground_atom(out: &mut String, base: &HerbrandBase, id: AtomId, symbols: &SymbolStore) {
    let (pred, args) = base.atom(id);
    out.push_str(symbols.name(pred));
    if !args.is_empty() {
        write_ground_args(out, base, args, symbols);
    }
}

/// Append `(t₁, …, tₖ)` to `out`.
fn write_ground_args(
    out: &mut String,
    base: &HerbrandBase,
    args: &[ConstId],
    symbols: &SymbolStore,
) {
    out.push('(');
    for (i, &t) in args.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write_ground_term(out, base, t, symbols);
    }
    out.push(')');
}

impl fmt::Debug for HerbrandBase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HerbrandBase")
            .field("terms", &self.terms.len())
            .field("atoms", &self.atoms.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_atoms_is_idempotent() {
        let mut syms = SymbolStore::new();
        let p = syms.intern("p");
        let a = syms.intern("a");
        let mut hb = HerbrandBase::new();
        let ca = hb.intern_const(a);
        let id1 = hb.intern_atom(p, &[ca]);
        let id2 = hb.intern_atom(p, &[ca]);
        assert_eq!(id1, id2);
        assert_eq!(hb.atom_count(), 1);
    }

    #[test]
    fn distinct_args_distinct_atoms() {
        let mut syms = SymbolStore::new();
        let p = syms.intern("p");
        let a = hbc(&mut syms, "a");
        let mut hb = HerbrandBase::new();
        let ca = hb.intern_const(a);
        let cb = hb.intern_const(hbc(&mut syms, "b"));
        assert_ne!(hb.intern_atom(p, &[ca]), hb.intern_atom(p, &[cb]));
    }

    fn hbc(syms: &mut SymbolStore, s: &str) -> Symbol {
        syms.intern(s)
    }

    #[test]
    fn function_terms_display() {
        let mut syms = SymbolStore::new();
        let f = syms.intern("f");
        let a = syms.intern("a");
        let p = syms.intern("p");
        let mut hb = HerbrandBase::new();
        let ca = hb.intern_const(a);
        let fa = hb.intern_term(GroundTerm::App(f, vec![ca].into_boxed_slice()));
        let ffa = hb.intern_term(GroundTerm::App(f, vec![fa].into_boxed_slice()));
        let atom = hb.intern_atom(p, &[ffa]);
        let mut out = String::new();
        write_ground_atom(&mut out, &hb, atom, &syms);
        assert_eq!(out, "p(f(f(a)))");
        assert_eq!(hb.term_count(), 3);
    }

    #[test]
    fn find_without_intern() {
        let mut syms = SymbolStore::new();
        let p = syms.intern("p");
        let a = syms.intern("a");
        let mut hb = HerbrandBase::new();
        let ca = hb.intern_const(a);
        assert!(hb.find_atom(p, &[ca]).is_none());
        let id = hb.intern_atom(p, &[ca]);
        assert_eq!(hb.find_atom(p, &[ca]), Some(id));
    }

    /// Random interning of constants, function terms and atoms with
    /// snapshots taken along the way: every snapshot keeps resolving
    /// exactly what was interned before it, and its counts stay frozen.
    #[test]
    fn snapshots_resolve_exactly_their_prefix() {
        let mut syms = SymbolStore::new();
        let p = syms.intern("p");
        let f = syms.intern("f");
        let consts: Vec<Symbol> = (0..64).map(|i| syms.intern(&format!("c{i}"))).collect();
        let mut hb = HerbrandBase::new();
        let mut rng = 0x2545_f491_4f6c_dd1du64;
        let mut atoms: Vec<(Symbol, Vec<ConstId>)> = Vec::new();
        let mut snaps: Vec<HerbrandBase> = Vec::new();
        for step in 0..6000 {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let c = hb.intern_const(consts[(rng % 64) as usize]);
            let arg = if rng.is_multiple_of(3) {
                hb.intern_term(GroundTerm::App(f, vec![c].into_boxed_slice()))
            } else {
                c
            };
            let args = vec![arg, ConstId((rng >> 20) as u32 % hb.term_count() as u32)];
            if hb.find_atom(p, &args).is_none() {
                atoms.push((p, args.clone()));
            }
            let id = hb.intern_atom(p, &args);
            assert_eq!(hb.atom(id), (p, &args[..]));
            if step % 500 == 499 {
                snaps.push(hb.clone());
            }
        }
        assert!(hb.atom_count() > 2 * crate::cow::SEG_LEN);
        for snap in &snaps {
            let n = snap.atom_count();
            for (i, (pred, args)) in atoms.iter().enumerate() {
                let got = snap.find_atom(*pred, args);
                assert_eq!(got, (i < n).then_some(AtomId(i as u32)));
            }
            for t in 0..hb.term_count() as u32 {
                let term = hb.term(ConstId(t));
                let expect = (t < snap.term_count() as u32).then_some(ConstId(t));
                assert_eq!(snap.find_term(term), expect);
            }
        }
        let frozen: Vec<(usize, usize)> = snaps
            .iter()
            .map(|s| (s.atom_count(), s.term_count()))
            .collect();
        hb.intern_atom(p, &[]);
        let after: Vec<(usize, usize)> = snaps
            .iter()
            .map(|s| (s.atom_count(), s.term_count()))
            .collect();
        assert_eq!(frozen, after);
    }

    /// Interning one atom into a clone of a 10⁵-atom base leaves all but
    /// a constant number of segments shared with the clone.
    #[test]
    fn interning_after_a_clone_copies_a_constant_number_of_segments() {
        let mut syms = SymbolStore::new();
        let p = syms.intern("p");
        let mut hb = HerbrandBase::new();
        for i in 0..100_000u32 {
            let c = hb.intern_const(Symbol::from_index(i as usize));
            hb.intern_atom(p, &[c]);
        }
        let snapshot = hb.clone();
        assert!(hb.shares_storage_with(&snapshot));
        let fresh = hb.intern_const(Symbol::from_index(100_000));
        let atom = hb.intern_atom(p, &[fresh]);
        let (shared_t, total_t) = hb.terms.segment_sharing(&snapshot.terms);
        let (shared_a, total_a) = hb.atoms.segment_sharing(&snapshot.atoms);
        assert!(total_t + total_a > 600, "a large base");
        assert!(
            (total_t - shared_t) + (total_a - shared_a) <= 4,
            "one key and one slot segment per table may be copied"
        );
        assert_eq!(snapshot.find_atom(p, &[fresh]), None);
        assert_eq!(snapshot.atom_count(), 100_000);
        assert_eq!(hb.find_atom(p, &[fresh]), Some(atom));
    }

    #[test]
    fn atoms_of_filters_by_predicate() {
        let mut syms = SymbolStore::new();
        let p = syms.intern("p");
        let q = syms.intern("q");
        let a = syms.intern("a");
        let mut hb = HerbrandBase::new();
        let ca = hb.intern_const(a);
        hb.intern_atom(p, &[ca]);
        hb.intern_atom(q, &[ca]);
        hb.intern_atom(p, &[]);
        assert_eq!(hb.atoms_of(p).count(), 2);
        assert_eq!(hb.atoms_of(q).count(), 1);
    }
}
