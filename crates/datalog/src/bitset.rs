//! Dense bitsets over ground-atom ids.
//!
//! Interpretations in the alternating-fixpoint computation are subsets of the
//! (finite) Herbrand base. With atoms interned to dense `u32` ids, a set of
//! atoms is a dense bitset; every operator in the paper (`S_P`, `S̃_P`,
//! conjugation, union, set difference) becomes a handful of word-parallel
//! loops.
//!
//! [`AtomSet`] carries its own universe size so the *conjugate* operation of
//! Definition 3.2 — complement within the Herbrand base `H` — is well defined.

use std::fmt;

/// A set of atom ids drawn from a fixed universe `0..universe`.
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct AtomSet {
    universe: usize,
    words: Vec<u64>,
}

const BITS: usize = 64;

impl AtomSet {
    /// The empty set over a universe of `universe` atoms.
    pub fn empty(universe: usize) -> Self {
        AtomSet {
            universe,
            words: vec![0; universe.div_ceil(BITS)],
        }
    }

    /// The full set `{0, …, universe-1}`.
    pub fn full(universe: usize) -> Self {
        let mut s = Self::empty(universe);
        for w in &mut s.words {
            *w = !0;
        }
        s.trim();
        s
    }

    /// Build from an iterator of ids.
    pub fn from_iter(universe: usize, ids: impl IntoIterator<Item = u32>) -> Self {
        let mut s = Self::empty(universe);
        for id in ids {
            s.insert(id);
        }
        s
    }

    /// Number of atoms in the universe this set ranges over.
    #[inline]
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Make this the empty set over `universe` atoms, keeping the
    /// allocation: scratch sets reused across differently sized
    /// universes allocate only when they grow.
    pub fn reset(&mut self, universe: usize) {
        self.universe = universe;
        self.words.clear();
        self.words.resize(universe.div_ceil(BITS), 0);
    }

    /// Make this the complement of `other` within `other`'s universe,
    /// keeping the allocation ([`AtomSet::complement`] in place).
    pub fn assign_complement(&mut self, other: &AtomSet) {
        self.universe = other.universe;
        self.words.clear();
        self.words.extend(other.words.iter().map(|w| !w));
        self.trim();
    }

    /// A copy of this set over the larger universe `universe` (the added
    /// atoms are absent) — a word copy. A smaller `universe` keeps the
    /// current one.
    pub fn grown(&self, universe: usize) -> AtomSet {
        let universe = universe.max(self.universe);
        let mut words = Vec::with_capacity(universe.div_ceil(BITS));
        words.extend_from_slice(&self.words);
        words.resize(universe.div_ceil(BITS), 0);
        AtomSet { universe, words }
    }

    /// Zero out any bits beyond the universe (kept as an internal invariant
    /// so that `count`, `eq`, and `hash` are exact).
    fn trim(&mut self) {
        let rem = self.universe % BITS;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }

    /// Insert an id; returns `true` if it was newly inserted.
    #[inline]
    pub fn insert(&mut self, id: u32) -> bool {
        let (w, b) = (id as usize / BITS, id as usize % BITS);
        debug_assert!((id as usize) < self.universe, "atom id out of universe");
        let mask = 1u64 << b;
        let was = self.words[w] & mask != 0;
        self.words[w] |= mask;
        !was
    }

    /// Remove an id; returns `true` if it was present.
    #[inline]
    pub fn remove(&mut self, id: u32) -> bool {
        let (w, b) = (id as usize / BITS, id as usize % BITS);
        let mask = 1u64 << b;
        let was = self.words[w] & mask != 0;
        self.words[w] &= !mask;
        was
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, id: u32) -> bool {
        let (w, b) = (id as usize / BITS, id as usize % BITS);
        w < self.words.len() && self.words[w] & (1u64 << b) != 0
    }

    /// Cardinality.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True iff the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// `self ⊆ other`. Panics in debug builds if universes differ.
    pub fn is_subset(&self, other: &AtomSet) -> bool {
        debug_assert_eq!(self.universe, other.universe);
        self.words
            .iter()
            .zip(&other.words)
            .all(|(&a, &b)| a & !b == 0)
    }

    /// True iff the sets share no element.
    pub fn is_disjoint(&self, other: &AtomSet) -> bool {
        debug_assert_eq!(self.universe, other.universe);
        self.words
            .iter()
            .zip(&other.words)
            .all(|(&a, &b)| a & b == 0)
    }

    /// In-place union.
    pub fn union_with(&mut self, other: &AtomSet) {
        debug_assert_eq!(self.universe, other.universe);
        for (a, &b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// In-place intersection.
    pub fn intersect_with(&mut self, other: &AtomSet) {
        debug_assert_eq!(self.universe, other.universe);
        for (a, &b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// In-place set difference `self − other`.
    pub fn difference_with(&mut self, other: &AtomSet) {
        debug_assert_eq!(self.universe, other.universe);
        for (a, &b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// The complement within the universe. This is the heart of the
    /// *conjugate* of Definition 3.2: for a positive set `I`,
    /// `Ī = ¬·(H − I)`; the polarity flip is carried by context (the caller
    /// knows whether a set holds positive or negative literals).
    pub fn complement(&self) -> AtomSet {
        let mut out = self.clone();
        for w in &mut out.words {
            *w = !*w;
        }
        out.trim();
        out
    }

    /// Fresh union.
    pub fn union(&self, other: &AtomSet) -> AtomSet {
        let mut out = self.clone();
        out.union_with(other);
        out
    }

    /// Fresh intersection.
    pub fn intersection(&self, other: &AtomSet) -> AtomSet {
        let mut out = self.clone();
        out.intersect_with(other);
        out
    }

    /// Fresh difference.
    pub fn difference(&self, other: &AtomSet) -> AtomSet {
        let mut out = self.clone();
        out.difference_with(other);
        out
    }

    /// Remove every element.
    pub fn clear(&mut self) {
        for w in &mut self.words {
            *w = 0;
        }
    }

    /// Iterate over member ids in increasing order.
    pub fn iter(&self) -> AtomSetIter<'_> {
        AtomSetIter {
            set: self,
            word_ix: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }
}

/// Iterator over the ids in an [`AtomSet`].
pub struct AtomSetIter<'a> {
    set: &'a AtomSet,
    word_ix: usize,
    current: u64,
}

impl Iterator for AtomSetIter<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros();
                self.current &= self.current - 1;
                return Some((self.word_ix * BITS) as u32 + bit);
            }
            self.word_ix += 1;
            if self.word_ix >= self.set.words.len() {
                return None;
            }
            self.current = self.set.words[self.word_ix];
        }
    }
}

impl<'a> IntoIterator for &'a AtomSet {
    type Item = u32;
    type IntoIter = AtomSetIter<'a>;
    fn into_iter(self) -> AtomSetIter<'a> {
        self.iter()
    }
}

impl fmt::Debug for AtomSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_full() {
        let e = AtomSet::empty(130);
        assert!(e.is_empty());
        assert_eq!(e.count(), 0);
        let f = AtomSet::full(130);
        assert_eq!(f.count(), 130);
        assert!(f.contains(0));
        assert!(f.contains(129));
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = AtomSet::empty(100);
        assert!(s.insert(63));
        assert!(!s.insert(63));
        assert!(s.insert(64));
        assert!(s.contains(63));
        assert!(s.contains(64));
        assert!(!s.contains(65));
        assert!(s.remove(63));
        assert!(!s.remove(63));
        assert!(!s.contains(63));
        assert_eq!(s.count(), 1);
    }

    #[test]
    fn complement_respects_universe() {
        let mut s = AtomSet::empty(70);
        s.insert(0);
        s.insert(69);
        let c = s.complement();
        assert_eq!(c.count(), 68);
        assert!(!c.contains(0));
        assert!(!c.contains(69));
        assert!(c.contains(1));
        // Double complement is identity.
        assert_eq!(c.complement(), s);
    }

    #[test]
    fn set_algebra() {
        let a = AtomSet::from_iter(10, [1, 2, 3]);
        let b = AtomSet::from_iter(10, [3, 4]);
        assert_eq!(a.union(&b), AtomSet::from_iter(10, [1, 2, 3, 4]));
        assert_eq!(a.intersection(&b), AtomSet::from_iter(10, [3]));
        assert_eq!(a.difference(&b), AtomSet::from_iter(10, [1, 2]));
        assert!(AtomSet::from_iter(10, [1, 3]).is_subset(&a));
        assert!(!a.is_subset(&b));
        assert!(a.is_disjoint(&AtomSet::from_iter(10, [5, 6])));
        assert!(!a.is_disjoint(&b));
    }

    #[test]
    fn iteration_is_sorted() {
        let s = AtomSet::from_iter(200, [199, 0, 64, 65, 127, 128]);
        let v: Vec<u32> = s.iter().collect();
        assert_eq!(v, vec![0, 64, 65, 127, 128, 199]);
    }

    #[test]
    fn eq_ignores_nothing_after_trim() {
        let mut a = AtomSet::full(65);
        let b = AtomSet::full(65);
        assert_eq!(a, b);
        a.remove(64);
        assert_ne!(a, b);
        assert_eq!(a.count(), 64);
    }

    #[test]
    fn zero_universe_is_fine() {
        let s = AtomSet::empty(0);
        assert!(s.is_empty());
        assert_eq!(s.complement().count(), 0);
        assert_eq!(s.iter().count(), 0);
    }

    #[test]
    fn clear_empties() {
        let mut s = AtomSet::full(50);
        s.clear();
        assert!(s.is_empty());
    }
}
