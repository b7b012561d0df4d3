//! String interning.
//!
//! Every name in a program — predicate symbols, constants, function symbols,
//! variable names — is interned once into a [`SymbolStore`] and referred to by
//! a 4-byte [`Symbol`] thereafter. All comparisons on hot paths are integer
//! comparisons; the store is only consulted again for display.
//!
//! The store is a copy-on-write [`InternTable`]: cloning it is a handful
//! of reference-count bumps, and interning into a clone copies a few
//! segments, not the store. Each name is an `Arc<str>`, so copying a
//! segment of names bumps reference counts and allocates no name.

use crate::cow::{fx_hash, InternTable};
use std::fmt;
use std::sync::Arc;

/// An interned string. Cheap to copy and compare; resolve through the
/// [`SymbolStore`] that produced it.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

impl Symbol {
    /// The raw index of this symbol inside its store.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstruct a symbol from a raw index. The caller must guarantee the
    /// index came from [`Symbol::index`] on the same store.
    #[inline]
    pub fn from_index(ix: usize) -> Symbol {
        Symbol(u32::try_from(ix).expect("symbol index overflow"))
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sym#{}", self.0)
    }
}

/// An append-only intern table mapping strings to [`Symbol`]s.
#[derive(Default, Clone)]
pub struct SymbolStore {
    names: InternTable<Arc<str>>,
}

impl SymbolStore {
    /// Create an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `name`, returning its symbol. Re-interning an existing name
    /// returns the same symbol.
    pub fn intern(&mut self, name: &str) -> Symbol {
        let hash = fx_hash(name);
        let id = match self.names.find(hash, |n| **n == *name) {
            Some(id) => id,
            None => self.names.insert_new(hash, name.into()),
        };
        Symbol(id)
    }

    /// Look up a name without interning it.
    pub fn get(&self, name: &str) -> Option<Symbol> {
        self.names.find(fx_hash(name), |n| **n == *name).map(Symbol)
    }

    /// Resolve a symbol back to its string.
    ///
    /// # Panics
    /// Panics if `sym` did not come from this store.
    pub fn name(&self, sym: Symbol) -> &str {
        self.names.key(sym.0)
    }

    /// Number of interned symbols.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterate over `(symbol, name)` pairs in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (Symbol(i as u32), n.as_ref()))
    }

    /// Does `self` share all its storage with `other` (is one an
    /// unmutated clone of the other)?
    pub(crate) fn shares_storage_with(&self, other: &Self) -> bool {
        self.names.shares_storage_with(&other.names)
    }

    /// Intern a name that is guaranteed fresh (used by transformations that
    /// invent auxiliary predicates). If `base` is taken, `base_2`, `base_3`,
    /// … are tried.
    pub fn intern_fresh(&mut self, base: &str) -> Symbol {
        if self.get(base).is_none() {
            return self.intern(base);
        }
        for i in 2.. {
            let candidate = format!("{base}_{i}");
            if self.get(&candidate).is_none() {
                return self.intern(&candidate);
            }
        }
        unreachable!("unbounded loop always returns")
    }
}

impl fmt::Debug for SymbolStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SymbolStore")
            .field("len", &self.names.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut store = SymbolStore::new();
        let a = store.intern("wins");
        let b = store.intern("wins");
        assert_eq!(a, b);
        assert_eq!(store.len(), 1);
        assert_eq!(store.name(a), "wins");
    }

    #[test]
    fn distinct_names_distinct_symbols() {
        let mut store = SymbolStore::new();
        let a = store.intern("p");
        let b = store.intern("q");
        assert_ne!(a, b);
        assert_eq!(store.name(a), "p");
        assert_eq!(store.name(b), "q");
    }

    #[test]
    fn get_does_not_intern() {
        let mut store = SymbolStore::new();
        assert!(store.get("missing").is_none());
        let s = store.intern("present");
        assert_eq!(store.get("present"), Some(s));
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn fresh_names_avoid_collisions() {
        let mut store = SymbolStore::new();
        store.intern("aux");
        store.intern("aux_2");
        let f = store.intern_fresh("aux");
        assert_eq!(store.name(f), "aux_3");
        let g = store.intern_fresh("other");
        assert_eq!(store.name(g), "other");
    }

    #[test]
    fn iteration_order_is_interning_order() {
        let mut store = SymbolStore::new();
        store.intern("a");
        store.intern("b");
        store.intern("c");
        let names: Vec<&str> = store.iter().map(|(_, n)| n).collect();
        assert_eq!(names, vec!["a", "b", "c"]);
    }

    #[test]
    fn clones_are_isolated_snapshots() {
        let mut store = SymbolStore::new();
        for i in 0..5000 {
            store.intern(&format!("s{i}"));
        }
        let snapshot = store.clone();
        assert!(store.shares_storage_with(&snapshot));
        assert_eq!(store.intern("s42"), snapshot.get("s42").unwrap());
        assert!(
            store.shares_storage_with(&snapshot),
            "a known name writes nothing"
        );
        let fresh = store.intern("brand_new");
        assert!(!store.shares_storage_with(&snapshot));
        assert_eq!(snapshot.get("brand_new"), None);
        assert_eq!(snapshot.len(), 5000);
        assert_eq!(store.name(fresh), "brand_new");
        let (shared, total) = store.names.segment_sharing(&snapshot.names);
        assert!(total - shared <= 2);
    }

    #[test]
    fn symbol_index_roundtrip() {
        let mut store = SymbolStore::new();
        let s = store.intern("x");
        assert_eq!(Symbol::from_index(s.index()), s);
    }
}
