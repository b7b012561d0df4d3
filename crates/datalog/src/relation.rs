//! Tuple storage: relations and database instances.
//!
//! The grounder evaluates the positive part of a program bottom-up over
//! *relations* — sets of tuples of interned ground terms — exactly the
//! EDB/IDB view of Section 2.5 (Figure 1).
//!
//! The positive envelope only grows: a retraction leaves it a stale
//! superset (see [`crate::incremental`]), so no row is ever removed and
//! a row number is stable for the life of the [`Database`]. That makes
//! every "what is new" question a **row range**:
//!
//! * a semi-naive round's delta is the range each relation grew by in
//!   the previous round;
//! * what one incremental call added is the range since the [`Marks`]
//!   taken when it began.
//!
//! A [`Relation`] stores its tuples once, flat, with an open-addressing
//! table of row numbers for deduplication and optional per-column
//! indexes. Index lists are in row order, so restricting a probe to a
//! row range is a binary search, not a second index.

use crate::atoms::ConstId;
use crate::cow::{fx_hash, SharedSlice};
use crate::fx::FxHashMap;
use crate::symbol::Symbol;
use std::ops::Range;

/// A tuple of interned ground terms, held in place when short.
pub type Tuple = SharedSlice<ConstId>;

/// An append-only set of tuples of fixed arity with optional per-column
/// indexes.
#[derive(Debug, Clone, Default)]
pub struct Relation {
    arity: usize,
    len: u32,
    /// Row `r` is `data[r * arity..(r + 1) * arity]`.
    data: Vec<ConstId>,
    /// Open addressing over rows: `row + 1`, or 0 for an empty slot. A
    /// power of two, at most half full (empty while there are no rows).
    slots: Vec<u32>,
    /// `indices[col]`, when built, maps a term id to the rows whose
    /// `col`-th component equals it, ascending. Maintained by `insert`.
    indices: Vec<Option<FxHashMap<ConstId, Vec<u32>>>>,
}

/// The relation an absent predicate joins against.
static EMPTY: Relation = Relation::new(0);

impl Relation {
    /// An empty relation of the given arity.
    pub const fn new(arity: usize) -> Self {
        Relation {
            arity,
            len: 0,
            data: Vec::new(),
            slots: Vec::new(),
            indices: Vec::new(),
        }
    }

    /// Arity of the relation.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True iff no tuples.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// A tuple by row number.
    pub fn row(&self, row: u32) -> &[ConstId] {
        let at = row as usize * self.arity;
        &self.data[at..at + self.arity]
    }

    /// All tuples, in insertion (row) order.
    pub fn rows(&self) -> impl Iterator<Item = &[ConstId]> {
        (0..self.len).map(|r| self.row(r))
    }

    /// The row holding `tuple`, or the empty slot where it would go.
    fn find(&self, tuple: &[ConstId], hash: u64) -> Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let mut i = home_slot(hash, self.slots.len());
        loop {
            match self.slots[i] {
                0 => return Err(i),
                s if self.row(s - 1) == tuple => return Ok(s - 1),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Insert a tuple; returns `true` if it was new.
    ///
    /// # Panics
    /// Panics if the tuple's arity is wrong.
    pub fn insert(&mut self, tuple: &[ConstId]) -> bool {
        assert_eq!(tuple.len(), self.arity, "tuple arity");
        if 2 * (self.len as usize + 1) > self.slots.len() {
            self.rehash((2 * (self.len as usize + 1)).next_power_of_two().max(16));
        }
        let Err(slot) = self.find(tuple, fx_hash(tuple)) else {
            return false;
        };
        let row = self.len;
        self.slots[slot] = row + 1;
        for (col, index) in self.indices.iter_mut().enumerate() {
            if let Some(index) = index {
                index.entry(tuple[col]).or_default().push(row);
            }
        }
        self.data.extend_from_slice(tuple);
        self.len += 1;
        true
    }

    /// Replace the slot table by one of `n` slots holding every row.
    fn rehash(&mut self, n: usize) {
        self.slots = vec![0; n];
        for row in 0..self.len {
            let Err(slot) = self.find(self.row(row), fx_hash(self.row(row))) else {
                unreachable!("rows are distinct");
            };
            self.slots[slot] = row + 1;
        }
    }

    /// Membership test.
    pub fn contains(&self, tuple: &[ConstId]) -> bool {
        tuple.len() == self.arity && !self.is_empty() && self.find(tuple, fx_hash(tuple)).is_ok()
    }

    /// Build (if absent) the index for `col`.
    pub fn ensure_index(&mut self, col: usize) {
        assert!(col < self.arity, "index column out of range");
        if self.indices.len() < self.arity {
            self.indices.resize_with(self.arity, || None);
        }
        if self.indices[col].is_some() {
            return;
        }
        let mut index: FxHashMap<ConstId, Vec<u32>> = FxHashMap::default();
        for row in 0..self.len {
            index.entry(self.row(row)[col]).or_default().push(row);
        }
        self.indices[col] = Some(index);
    }

    /// Is column `col` indexed?
    pub fn is_indexed(&self, col: usize) -> bool {
        self.indices.get(col).is_some_and(Option::is_some)
    }

    /// The rows in `rows` whose `col`-th component is `value`, ascending,
    /// if that column is indexed.
    pub fn probe(&self, col: usize, value: ConstId, rows: Range<u32>) -> Option<&[u32]> {
        let index = self.indices.get(col)?.as_ref()?;
        let list = index.get(&value).map(Vec::as_slice).unwrap_or(&[]);
        let lo = list.partition_point(|&r| r < rows.start);
        let hi = list.partition_point(|&r| r < rows.end);
        Some(&list[lo..hi])
    }
}

/// The home slot of `hash` in a table of `n` slots (a power of two): its
/// high bits, which the multiply in the Fx hasher mixes best.
#[inline]
fn home_slot(hash: u64, n: usize) -> usize {
    (hash >> (64 - n.trailing_zeros())) as usize
}

/// Row counts of every relation of a [`Database`] at one moment: the
/// rows a relation gained after it are a row range starting at its mark.
#[derive(Debug, Clone, Default)]
pub struct Marks(Vec<u32>);

impl Marks {
    /// Rows of relation `slot` at the mark (0 if it did not exist yet).
    fn at(&self, slot: usize) -> u32 {
        self.0.get(slot).copied().unwrap_or(0)
    }
}

/// A database instance: one relation per predicate and arity, in order
/// of creation.
#[derive(Debug, Clone, Default)]
pub struct Database {
    relations: Vec<(Symbol, Relation)>,
    slots: FxHashMap<(Symbol, usize), usize>,
}

impl Database {
    /// An empty instance.
    pub fn new() -> Self {
        Self::default()
    }

    fn slot(&self, pred: Symbol, arity: usize) -> Option<usize> {
        self.slots.get(&(pred, arity)).copied()
    }

    /// The relation for `pred`/`arity`, creating it if absent.
    pub fn relation_mut(&mut self, pred: Symbol, arity: usize) -> &mut Relation {
        let next = self.relations.len();
        let slot = *self.slots.entry((pred, arity)).or_insert(next);
        if slot == next {
            self.relations.push((pred, Relation::new(arity)));
        }
        &mut self.relations[slot].1
    }

    /// The relation for `pred`/`arity`, if it was ever created.
    pub fn relation(&self, pred: Symbol, arity: usize) -> Option<&Relation> {
        self.slot(pred, arity).map(|s| &self.relations[s].1)
    }

    /// Insert a tuple; creates the relation on first use.
    pub fn insert(&mut self, pred: Symbol, tuple: &[ConstId]) -> bool {
        self.relation_mut(pred, tuple.len()).insert(tuple)
    }

    /// Membership test (false if the relation does not exist).
    pub fn contains(&self, pred: Symbol, tuple: &[ConstId]) -> bool {
        self.relation(pred, tuple.len())
            .is_some_and(|r| r.contains(tuple))
    }

    /// Total tuple count across relations.
    pub fn total_tuples(&self) -> usize {
        self.relations.iter().map(|(_, r)| r.len()).sum()
    }

    /// The row counts of every relation now.
    pub fn marks(&self) -> Marks {
        Marks(self.relations.iter().map(|(_, r)| r.len).collect())
    }

    /// The relation for `pred`/`arity` (an empty one if absent) and its rows
    /// from the mark `from` (the first row if `None`) up to the mark `to`
    /// (the last row if `None`).
    pub fn rows_between(
        &self,
        pred: Symbol,
        arity: usize,
        from: Option<&Marks>,
        to: Option<&Marks>,
    ) -> (&Relation, Range<u32>) {
        let Some(slot) = self.slot(pred, arity) else {
            return (&EMPTY, 0..0);
        };
        let rel = &self.relations[slot].1;
        let start = from.map_or(0, |m| m.at(slot));
        let end = to.map_or(rel.len, |m| m.at(slot));
        (rel, start..end.max(start))
    }

    /// Every relation that gained rows between the marks `from` and `to`
    /// (now if `None`), with that row range, in order of creation.
    pub fn grown<'a>(
        &'a self,
        from: &'a Marks,
        to: Option<&'a Marks>,
    ) -> impl Iterator<Item = (Symbol, &'a Relation, Range<u32>)> + 'a {
        self.relations
            .iter()
            .enumerate()
            .map(move |(slot, (pred, rel))| {
                let end = to.map_or(rel.len, |m| m.at(slot));
                (*pred, rel, from.at(slot)..end)
            })
            .filter(|(_, _, rows)| !rows.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atoms::HerbrandBase;
    use crate::symbol::SymbolStore;

    fn consts(n: usize) -> (HerbrandBase, Vec<ConstId>, SymbolStore) {
        let mut syms = SymbolStore::new();
        let mut hb = HerbrandBase::new();
        let ids = (0..n)
            .map(|i| {
                let s = syms.intern(&format!("c{i}"));
                hb.intern_const(s)
            })
            .collect();
        (hb, ids, syms)
    }

    #[test]
    fn insert_dedup_and_contains() {
        let (_, c, _) = consts(3);
        let mut r = Relation::new(2);
        assert!(r.insert(&[c[0], c[1]]));
        assert!(!r.insert(&[c[0], c[1]]));
        assert!(r.insert(&[c[1], c[2]]));
        assert_eq!(r.len(), 2);
        assert!(r.contains(&[c[0], c[1]]));
        assert!(!r.contains(&[c[2], c[0]]));
        assert_eq!(r.row(1), &[c[1], c[2]]);
    }

    #[test]
    fn many_rows_survive_rehashing() {
        let (_, c, _) = consts(64);
        let mut r = Relation::new(2);
        for &x in &c {
            for &y in &c {
                assert!(r.insert(&[x, y]));
            }
        }
        assert_eq!(r.len(), 64 * 64);
        for &x in &c {
            for &y in &c {
                assert!(!r.insert(&[x, y]));
                assert!(r.contains(&[x, y]));
            }
        }
        let rows: Vec<&[ConstId]> = r.rows().collect();
        assert_eq!(rows[65], &[c[1], c[1]]);
    }

    #[test]
    fn nullary_relations_hold_one_row() {
        let mut r = Relation::new(0);
        assert!(!r.contains(&[]));
        assert!(r.insert(&[]));
        assert!(!r.insert(&[]));
        assert!(r.contains(&[]));
        assert_eq!(r.rows().count(), 1);
    }

    #[test]
    fn index_probe_finds_rows_within_a_range() {
        let (_, c, _) = consts(4);
        let mut r = Relation::new(2);
        r.insert(&[c[0], c[1]]);
        r.insert(&[c[0], c[2]]);
        r.insert(&[c[3], c[1]]);
        r.insert(&[c[0], c[3]]);
        r.ensure_index(0);
        assert!(r.is_indexed(0) && !r.is_indexed(1));
        assert_eq!(r.probe(0, c[0], 0..4).unwrap(), &[0, 1, 3]);
        assert_eq!(r.probe(0, c[0], 1..3).unwrap(), &[1]);
        assert_eq!(r.probe(0, c[3], 0..2).unwrap(), &[] as &[u32]);
        assert!(r.probe(1, c[1], 0..4).is_none(), "column 1 not indexed");
    }

    #[test]
    fn index_is_maintained_across_inserts() {
        let (_, c, _) = consts(3);
        let mut r = Relation::new(1);
        r.ensure_index(0);
        r.insert(&[c[0]]);
        r.insert(&[c[1]]);
        assert_eq!(r.probe(0, c[0], 0..2).unwrap(), &[0]);
        assert_eq!(r.probe(0, c[1], 0..2).unwrap(), &[1]);
        assert_eq!(r.probe(0, c[2], 0..2).unwrap(), &[] as &[u32]);
    }

    #[test]
    fn database_roundtrip() {
        let (_, c, mut syms) = consts(2);
        let e = syms.intern("e");
        let mut db = Database::new();
        assert!(db.insert(e, &[c[0], c[1]]));
        assert!(!db.insert(e, &[c[0], c[1]]));
        assert!(db.contains(e, &[c[0], c[1]]));
        assert!(!db.contains(e, &[c[1], c[0]]));
        assert_eq!(db.total_tuples(), 1);
        let missing = syms.intern("missing");
        assert!(db.relation(missing, 1).is_none());
        assert!(!db.contains(missing, &[c[0]]));
    }

    #[test]
    fn one_predicate_at_two_arities_is_two_relations() {
        let (_, c, mut syms) = consts(2);
        let p = syms.intern("p");
        let mut db = Database::new();
        assert!(db.insert(p, &[c[0]]));
        assert!(db.insert(p, &[c[0], c[1]]));
        assert_eq!(db.relation(p, 1).unwrap().len(), 1);
        assert_eq!(db.relation(p, 2).unwrap().len(), 1);
        assert!(!db.contains(p, &[c[1]]));
    }

    #[test]
    fn marks_turn_growth_into_row_ranges() {
        let (_, c, mut syms) = consts(3);
        let (e, f) = (syms.intern("e"), syms.intern("f"));
        let mut db = Database::new();
        db.insert(e, &[c[0]]);
        let before = db.marks();
        db.insert(e, &[c[1]]);
        db.insert(e, &[c[0]]);
        db.insert(f, &[c[2]]);
        let grown: Vec<(Symbol, Range<u32>)> = db
            .grown(&before, None)
            .map(|(p, _, rows)| (p, rows))
            .collect();
        assert_eq!(grown, vec![(e, 1..2), (f, 0..1)]);
        let (rel, rows) = db.rows_between(e, 1, None, Some(&before));
        assert_eq!((rel.len(), rows), (2, 0..1));
        assert_eq!(db.rows_between(f, 1, Some(&before), None).1, 0..1);
        assert_eq!(db.rows_between(f, 2, None, None).1, 0..0);
        let now = db.marks();
        assert_eq!(db.grown(&now, None).count(), 0);
    }
}
