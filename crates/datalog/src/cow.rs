//! Copy-on-write segmented storage for ground-program state.
//!
//! [`CowVec`] is the structural backbone of cheap [`crate::program::GroundProgram`]
//! snapshots: a vector split into fixed-size segments, each behind its own
//! [`Arc`], with the segment directory behind one more `Arc`. Cloning is
//! two reference-count bumps regardless of length; mutating element `i`
//! copies **only** the segment holding `i` (and the pointer directory),
//! via [`Arc::make_mut`], and only when that segment is actually shared
//! with a live snapshot. A mutate → snapshot → mutate loop therefore pays
//! `O(segment)` per touched location instead of `O(collection)` per
//! cycle, which is what turns `Session::snapshot` from a deep clone into
//! a pointer copy.
//!
//! The invariants are those of a plain `Vec` chunked greedily: every
//! segment is full ([`SEG_LEN`] elements) except possibly the last, and
//! the last is non-empty unless the vector is.
//!
//! What a segment copy costs depends on the element type. Elements that
//! are lists use [`SharedSlice`], which holds a short list in place and
//! shares a longer one by reference count, so copying a segment is one
//! allocation (the segment), a memcpy and at most [`SEG_LEN`] bumps. It
//! is not [`SEG_LEN`] allocations, one per element, as it would be for
//! `Vec` or `Box<[T]>` elements.
//!
//! Bulk growth goes a segment at a time: [`CowVec::extend`] and
//! [`CowVec::grow_with`] make the directory and the last segment unique
//! once per call, [`CowVec::append`] adopts another vector's segments
//! whole when `self` ends on a segment boundary, and
//! [`CowVec::edit_ascending`] edits many elements with one uniqueness
//! check per segment. The ground program grows its occurrence indices
//! through these, once per batch of rules (see
//! [`crate::program`](mod@crate::program)).
//!
//! [`InternTable`] builds the append-only intern tables of the Herbrand
//! base and the symbol store on two `CowVec`s, so interning after a
//! snapshot copies a segment, not the table.

use crate::fx::FxHasher;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// Elements a [`SharedSlice`] holds in place, with no allocation.
pub const INLINE: usize = 3;

/// An immutable slice shared by reference count: the list-valued element
/// type of copy-on-write collections.
///
/// A slice of at most [`INLINE`] elements is held in place and
/// allocates nothing; most rule bodies, occurrence lists and atom
/// argument lists are that short, so building one is a copy. A longer
/// slice is an `Arc<Vec<T>>`. `clone` is a copy or a reference-count
/// bump. It derefs to `&[T]`, and hashes, compares and orders like
/// `[T]`, so a table keyed by it can be probed with a borrowed `&[T]`
/// (see [`fx_hash`]). An edit ([`SharedSlice::extend`],
/// [`SharedSlice::insert`], [`SharedSlice::swap_remove`],
/// [`SharedSlice::replace`]) builds a new slice, allocating only when
/// it is longer than [`INLINE`], and leaves every clone as it was; the
/// lists it is meant for are short, or edited in batches.
pub struct SharedSlice<T>(Repr<T>);

enum Repr<T> {
    Empty,
    /// `len` elements, `1..=INLINE`; the slots past `len` repeat the
    /// first element.
    Inline {
        len: u8,
        items: [T; INLINE],
    },
    /// More than [`INLINE`] elements, behind a thin pointer so that a
    /// slice of `u32`s takes 16 bytes.
    Shared(Arc<Vec<T>>),
}

impl<T: Copy> SharedSlice<T> {
    /// Collect `iter`: in place when its exact length is known and at
    /// most [`INLINE`], else into a vector sized once when the standard
    /// library can trust that length (`TrustedLen`: slice iterators
    /// under `copied`, `map`, `enumerate` and `chain`, as every edit
    /// here uses). Other iterators collect through a `Vec` first.
    fn collect(mut iter: impl Iterator<Item = T>) -> Self {
        let (len, upper) = iter.size_hint();
        if upper != Some(len) {
            let all: Vec<T> = iter.collect();
            return Self::collect(all.into_iter());
        }
        if len > INLINE {
            return SharedSlice(Repr::Shared(Arc::new(iter.collect())));
        }
        let Some(first) = iter.next() else {
            return SharedSlice(Repr::Empty);
        };
        let mut items = [first; INLINE];
        for (slot, x) in items[1..len].iter_mut().zip(iter) {
            *slot = x;
        }
        SharedSlice(Repr::Inline {
            len: len as u8,
            items,
        })
    }

    /// Append the elements of `extra`, sizing the result once when its
    /// exact length is trusted, as for a slice iterator under `map` or
    /// `copied`.
    pub fn extend(&mut self, extra: impl Iterator<Item = T>) {
        *self = Self::collect(self.iter().copied().chain(extra));
    }

    /// Append `value`.
    pub fn push(&mut self, value: T) {
        self.extend(std::iter::once(value));
    }

    /// Insert `value` at `index`, shifting the later elements right.
    ///
    /// # Panics
    /// Panics if `index > len`.
    pub fn insert(&mut self, index: usize, value: T) {
        let (front, back) = self.split_at(index);
        *self = Self::collect(
            front
                .iter()
                .copied()
                .chain(std::iter::once(value))
                .chain(back.iter().copied()),
        );
    }

    /// Remove element `index` by moving the last element into its place
    /// (like `Vec::swap_remove`); returns the removed element.
    ///
    /// # Panics
    /// Panics if `index >= len`.
    pub fn swap_remove(&mut self, index: usize) -> T {
        let removed = self[index];
        let last = self.len() - 1;
        let tail = self[last];
        let kept = self[..last].iter().enumerate();
        *self = Self::collect(kept.map(|(i, &x)| if i == index { tail } else { x }));
        removed
    }

    /// Replace element `index` by `value`.
    ///
    /// # Panics
    /// Panics if `index >= len`.
    pub fn replace(&mut self, index: usize, value: T) {
        assert!(index < self.len(), "index {index} out of bounds");
        let all = self.iter().enumerate();
        *self = Self::collect(all.map(|(i, &x)| if i == index { value } else { x }));
    }
}

impl<T> Default for SharedSlice<T> {
    fn default() -> Self {
        SharedSlice(Repr::Empty)
    }
}

impl<T: Copy> Clone for SharedSlice<T> {
    fn clone(&self) -> Self {
        SharedSlice(match &self.0 {
            Repr::Empty => Repr::Empty,
            Repr::Inline { len, items } => Repr::Inline {
                len: *len,
                items: *items,
            },
            Repr::Shared(all) => Repr::Shared(all.clone()),
        })
    }
}

impl<T> Deref for SharedSlice<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        match &self.0 {
            Repr::Empty => &[],
            Repr::Inline { len, items } => &items[..*len as usize],
            Repr::Shared(all) => all,
        }
    }
}

impl<'a, T> IntoIterator for &'a SharedSlice<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// In place for at most [`INLINE`] elements, else a shared vector.
impl<T: Copy> From<&[T]> for SharedSlice<T> {
    fn from(slice: &[T]) -> Self {
        Self::collect(slice.iter().copied())
    }
}

impl<T: Hash> Hash for SharedSlice<T> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (**self).hash(state)
    }
}

impl<T: PartialEq> PartialEq for SharedSlice<T> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: Eq> Eq for SharedSlice<T> {}

impl<T: PartialOrd> PartialOrd for SharedSlice<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        (**self).partial_cmp(&**other)
    }
}

impl<T: Ord> Ord for SharedSlice<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (**self).cmp(&**other)
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for SharedSlice<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

/// Log₂ of the segment length.
const SEG_SHIFT: usize = 10;
/// Elements per segment. The trade-off: larger segments amortize the
/// per-segment `Arc` overhead on reads, smaller segments bound the copy a
/// single mutation can trigger.
pub const SEG_LEN: usize = 1 << SEG_SHIFT;
const SEG_MASK: usize = SEG_LEN - 1;

/// A segmented vector with `Arc`-shared segments and copy-on-write
/// mutation. See the module docs for the sharing model.
#[derive(Clone)]
pub struct CowVec<T> {
    segs: Arc<Vec<Arc<Vec<T>>>>,
    len: usize,
}

impl<T> Default for CowVec<T> {
    fn default() -> Self {
        CowVec {
            segs: Arc::new(Vec::new()),
            len: 0,
        }
    }
}

impl<T: Clone> CowVec<T> {
    /// An empty vector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Chunk an existing `Vec` into segments (consumes it; no sharing with
    /// anything yet).
    pub fn from_vec(v: Vec<T>) -> Self {
        let len = v.len();
        let mut segs = Vec::with_capacity(len.div_ceil(SEG_LEN));
        let mut iter = v.into_iter();
        loop {
            let seg: Vec<T> = iter.by_ref().take(SEG_LEN).collect();
            if seg.is_empty() {
                break;
            }
            segs.push(Arc::new(seg));
        }
        CowVec {
            segs: Arc::new(segs),
            len,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Shared access to element `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`, like slice indexing.
    #[inline]
    pub fn get(&self, i: usize) -> &T {
        &self.segs[i >> SEG_SHIFT][i & SEG_MASK]
    }

    /// Mutable access to element `i`, copying the segment holding it (and
    /// the segment directory) first if shared with a clone.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    pub fn get_mut(&mut self, i: usize) -> &mut T {
        assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        let segs = Arc::make_mut(&mut self.segs);
        let seg = Arc::make_mut(&mut segs[i >> SEG_SHIFT]);
        &mut seg[i & SEG_MASK]
    }

    /// Append an element.
    pub fn push(&mut self, value: T) {
        let segs = Arc::make_mut(&mut self.segs);
        if self.len == segs.len() << SEG_SHIFT {
            // The first segment grows on demand (to exactly `SEG_LEN`):
            // many vectors stay tiny, such as the symbol store a parser
            // builds per request. Later ones are allocated whole.
            let cap = if segs.is_empty() { 0 } else { SEG_LEN };
            segs.push(Arc::new(Vec::with_capacity(cap)));
        }
        let last = segs.last_mut().expect("segment just ensured");
        Arc::make_mut(last).push(value);
        self.len += 1;
    }

    /// Remove and return the last element.
    pub fn pop(&mut self) -> Option<T> {
        if self.len == 0 {
            return None;
        }
        let segs = Arc::make_mut(&mut self.segs);
        let last = Arc::make_mut(segs.last_mut().expect("non-empty"));
        let value = last.pop().expect("last segment non-empty");
        if last.is_empty() {
            segs.pop();
        }
        self.len -= 1;
        Some(value)
    }

    /// Remove element `i` by moving the **last** element into its place
    /// (like `Vec::swap_remove`); returns the removed element.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    pub fn swap_remove(&mut self, i: usize) -> T {
        assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        let last = self.pop().expect("non-empty");
        if i == self.len {
            last // removed element *was* the last
        } else {
            std::mem::replace(self.get_mut(i), last)
        }
    }

    /// Shared access to element `i`, or `None` past the end.
    #[inline]
    pub fn try_get(&self, i: usize) -> Option<&T> {
        (i < self.len).then(|| self.get(i))
    }

    /// Append every element of `items`, a segment at a time: the
    /// directory and the last segment are made unique once per call, not
    /// once per element.
    pub fn extend(&mut self, items: impl IntoIterator<Item = T>) {
        let mut items = items.into_iter().peekable();
        if items.peek().is_none() {
            return;
        }
        let segs = Arc::make_mut(&mut self.segs);
        if let Some(last) = segs.last_mut().filter(|s| s.len() < SEG_LEN) {
            let last = Arc::make_mut(last);
            let before = last.len();
            last.extend(items.by_ref().take(SEG_LEN - before));
            self.len += last.len() - before;
        }
        while items.peek().is_some() {
            let seg: Vec<T> = items.by_ref().take(SEG_LEN).collect();
            self.len += seg.len();
            segs.push(Arc::new(seg));
        }
    }

    /// Append every element of `other`. When `self` ends on a segment
    /// boundary (an empty vector does), `other`'s segments join `self`
    /// as they are: no element is moved or copied.
    pub fn append(&mut self, other: CowVec<T>) {
        if !self.len.is_multiple_of(SEG_LEN) {
            self.extend(other.iter().cloned());
            return;
        }
        let segs = Arc::make_mut(&mut self.segs);
        match Arc::try_unwrap(other.segs) {
            Ok(theirs) => segs.extend(theirs),
            Err(shared) => segs.extend(shared.iter().cloned()),
        }
        self.len += other.len;
    }

    /// Grow to at least `n` elements, filling with `fill()`, a segment at
    /// a time (see [`CowVec::extend`]).
    pub fn grow_with(&mut self, n: usize, mut fill: impl FnMut() -> T) {
        if self.len < n {
            self.extend((self.len..n).map(|_| fill()));
        }
    }

    /// Call `edit(element, payload)` for each `(index, payload)` of
    /// `edits`, whose indices ascend. A shared segment is copied at most
    /// once per call, and the directory once, where a [`CowVec::get_mut`]
    /// per edit would check both for sharing every time.
    ///
    /// # Panics
    /// Panics if an index is out of bounds.
    pub fn edit_ascending<P>(
        &mut self,
        edits: impl IntoIterator<Item = (usize, P)>,
        mut edit: impl FnMut(&mut T, P),
    ) {
        let len = self.len;
        let segs = Arc::make_mut(&mut self.segs);
        let mut current = usize::MAX;
        let mut seg: &mut [T] = &mut [];
        for (i, payload) in edits {
            assert!(i < len, "index {i} out of bounds (len {len})");
            if i >> SEG_SHIFT != current {
                current = i >> SEG_SHIFT;
                seg = Arc::make_mut(&mut segs[current]).as_mut_slice();
            }
            edit(&mut seg[i & SEG_MASK], payload);
        }
    }

    /// Iterate over the elements in order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.segs.iter().flat_map(|s| s.iter())
    }

    /// Do `self` and `other` hold the same segment directory, i.e. is
    /// one an unmutated clone of the other?
    pub fn shares_storage_with(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.segs, &other.segs)
    }

    /// Number of segments `self` and `other` share by pointer.
    #[cfg(test)]
    pub(crate) fn shared_segments(&self, other: &Self) -> usize {
        self.segs
            .iter()
            .zip(other.segs.iter())
            .filter(|(a, b)| Arc::ptr_eq(a, b))
            .count()
    }

    /// Number of segments.
    #[cfg(test)]
    pub(crate) fn segment_count(&self) -> usize {
        self.segs.len()
    }
}

impl<T: Clone + std::fmt::Debug> std::fmt::Debug for CowVec<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The [`FxHasher`] hash of `value`. An [`InternTable`] expects every
/// hash it is handed to be this function of the key (a borrowed probe
/// form must hash like the owned key: `&str` like `Arc<str>`,
/// `(Symbol, &[ConstId])` like `(Symbol, SharedSlice<ConstId>)`).
pub fn fx_hash<Q: Hash + ?Sized>(value: &Q) -> u64 {
    let mut h = FxHasher::default();
    value.hash(&mut h);
    h.finish()
}

/// An [`InternTable`] of at most this many keys has no index, and
/// lookups scan the keys: the wire codec parses each request into a
/// fresh, tiny symbol store, which should cost no more than the names.
const SCAN_MAX: usize = 8;

/// An append-only intern table with copy-on-write storage: keys get
/// dense `u32` ids in insertion order.
///
/// Keys live once, in a [`CowVec`] indexed by id. The lookup index is an
/// open-addressed, linearly probed slot array (`0` = empty, otherwise
/// `id + 1`), also a `CowVec`, whose home slot is taken from the high
/// bits of the key's [`fx_hash`]; probes compare keys through the key
/// table, so no key is stored twice. The index doubles (a full rebuild)
/// when an insert would take its load past ½, or once ahead of a bulk
/// load ([`InternTable::reserve`]); tables of at most `SCAN_MAX` keys
/// have none unless reserved.
///
/// Cloning is two reference-count bumps. Inserting into a clone copies
/// the last key segment, the one slot segment written, and the two
/// segment directories — unless the insert doubles the index, which
/// rebuilds the index (never the keys).
#[derive(Clone)]
pub struct InternTable<K> {
    keys: CowVec<K>,
    slots: CowVec<u32>,
}

impl<K> Default for InternTable<K> {
    fn default() -> Self {
        InternTable {
            keys: CowVec::default(),
            slots: CowVec::default(),
        }
    }
}

impl<K: Clone + Hash> InternTable<K> {
    /// Number of interned keys.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True iff nothing is interned.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The key with id `id`.
    ///
    /// # Panics
    /// Panics if `id >= len`.
    #[inline]
    pub fn key(&self, id: u32) -> &K {
        self.keys.get(id as usize)
    }

    /// Iterate over the keys in id order.
    pub fn iter(&self) -> impl Iterator<Item = &K> {
        self.keys.iter()
    }

    /// The id of the key that `is` accepts, if interned; `hash` must be
    /// the [`fx_hash`] of that key. Never allocates.
    pub fn find(&self, hash: u64, mut is: impl FnMut(&K) -> bool) -> Option<u32> {
        if self.slots.is_empty() {
            return self.keys.iter().position(is).map(|i| i as u32);
        }
        let mask = self.slots.len() - 1;
        let mut i = home_slot(hash, self.slots.len());
        loop {
            match *self.slots.get(i) {
                0 => return None,
                s if is(self.keys.get(s as usize - 1)) => return Some(s - 1),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Intern a key known to be absent (the caller has just missed on
    /// [`InternTable::find`]) and return its new id; `hash` must be its
    /// [`fx_hash`].
    pub fn insert_new(&mut self, hash: u64, key: K) -> u32 {
        debug_assert_eq!(hash, fx_hash(&key), "hash is not the key's fx_hash");
        let len = self.keys.len() + 1;
        let slot_val = u32::try_from(len).expect("intern table overflow");
        if len > SCAN_MAX || !self.slots.is_empty() {
            if 2 * len > self.slots.len() {
                self.rebuild_index((2 * len).next_power_of_two());
            }
            let mask = self.slots.len() - 1;
            let mut i = home_slot(hash, self.slots.len());
            while *self.slots.get(i) != 0 {
                i = (i + 1) & mask;
            }
            *self.slots.get_mut(i) = slot_val;
        }
        self.keys.push(key);
        slot_val - 1
    }

    /// Size the index for `additional` more keys, so that inserting
    /// them rebuilds it at most once, here, instead of at every doubling
    /// on the way. A bulk load that knows a bound on its key count calls
    /// this first.
    pub fn reserve(&mut self, additional: usize) {
        let want = (2 * (self.keys.len() + additional)).next_power_of_two();
        if self.keys.len() + additional > SCAN_MAX && want > self.slots.len() {
            self.rebuild_index(want);
        }
    }

    /// Replace the index by one of `n` slots (a power of two) holding
    /// every key.
    fn rebuild_index(&mut self, n: usize) {
        let mask = n - 1;
        let mut slots = vec![0u32; n];
        for (id, key) in self.keys.iter().enumerate() {
            let mut i = home_slot(fx_hash(key), n);
            while slots[i] != 0 {
                i = (i + 1) & mask;
            }
            slots[i] = id as u32 + 1;
        }
        self.slots = CowVec::from_vec(slots);
    }

    /// Do `self` and `other` share all their storage — is one an
    /// unmutated clone of the other?
    pub fn shares_storage_with(&self, other: &Self) -> bool {
        self.keys.shares_storage_with(&other.keys) && self.slots.shares_storage_with(&other.slots)
    }

    /// Segments shared by pointer with `other`, and segments in `self`.
    #[cfg(test)]
    pub(crate) fn segment_sharing(&self, other: &Self) -> (usize, usize) {
        (
            self.keys.shared_segments(&other.keys) + self.slots.shared_segments(&other.slots),
            self.keys.segment_count() + self.slots.segment_count(),
        )
    }
}

/// The home slot of `hash` in an index of `n` slots (a power of two):
/// its high bits, which the multiply in [`FxHasher`] mixes best.
#[inline]
fn home_slot(hash: u64, n: usize) -> usize {
    (hash >> (64 - n.trailing_zeros())) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(n: usize) -> CowVec<usize> {
        CowVec::from_vec((0..n).collect())
    }

    #[test]
    fn push_get_iter_roundtrip() {
        let mut v = CowVec::new();
        for i in 0..(3 * SEG_LEN + 7) {
            v.push(i);
        }
        assert_eq!(v.len(), 3 * SEG_LEN + 7);
        assert_eq!(*v.get(0), 0);
        assert_eq!(*v.get(SEG_LEN), SEG_LEN);
        assert_eq!(*v.get(v.len() - 1), v.len() - 1);
        let collected: Vec<usize> = v.iter().copied().collect();
        assert_eq!(collected, (0..v.len()).collect::<Vec<_>>());
    }

    #[test]
    fn clone_is_shallow_and_mutation_is_isolated() {
        let mut v = filled(2 * SEG_LEN + 5);
        let snapshot = v.clone();
        *v.get_mut(3) = 999;
        v.push(12345);
        assert_eq!(*snapshot.get(3), 3, "snapshot unaffected by get_mut");
        assert_eq!(
            snapshot.len(),
            2 * SEG_LEN + 5,
            "snapshot unaffected by push"
        );
        assert_eq!(*v.get(3), 999);
        assert_eq!(*v.get(v.len() - 1), 12345);
    }

    #[test]
    fn untouched_segments_stay_shared_after_mutation() {
        let mut v = filled(3 * SEG_LEN);
        let snapshot = v.clone();
        *v.get_mut(0) = 7; // touches segment 0 only
        assert!(
            !Arc::ptr_eq(&v.segs[0], &snapshot.segs[0]),
            "mutated segment was copied"
        );
        for s in 1..3 {
            assert!(
                Arc::ptr_eq(&v.segs[s], &snapshot.segs[s]),
                "segment {s} untouched, must remain shared"
            );
        }
    }

    #[test]
    fn unshared_mutation_does_not_copy() {
        let mut v = filled(SEG_LEN);
        let seg_before = Arc::as_ptr(&v.segs[0]);
        *v.get_mut(5) = 42;
        assert_eq!(
            Arc::as_ptr(&v.segs[0]),
            seg_before,
            "no snapshot alive: mutation must happen in place"
        );
    }

    #[test]
    fn swap_remove_semantics_match_vec() {
        for n in [1usize, 2, 5, SEG_LEN, SEG_LEN + 1, 2 * SEG_LEN + 3] {
            for i in [0usize, n / 2, n - 1] {
                let mut reference: Vec<usize> = (0..n).collect();
                let mut v = filled(n);
                assert_eq!(v.swap_remove(i), reference.swap_remove(i));
                assert_eq!(v.iter().copied().collect::<Vec<_>>(), reference);
            }
        }
    }

    #[test]
    fn pop_across_segment_boundary() {
        let mut v = filled(SEG_LEN + 1);
        assert_eq!(v.pop(), Some(SEG_LEN));
        assert_eq!(v.pop(), Some(SEG_LEN - 1));
        assert_eq!(v.len(), SEG_LEN - 1);
        v.push(77);
        assert_eq!(*v.get(SEG_LEN - 1), 77);
    }

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn find_str(t: &InternTable<Box<str>>, key: &str) -> Option<u32> {
        t.find(fx_hash(key), |k| **k == *key)
    }

    /// Seeded random intern/find sequences against a reference map, with
    /// clones taken at random points and on every segment boundary and
    /// index doubling: each clone must resolve exactly the keys interned
    /// before it, with its length frozen. Seed 2 reserves an index while
    /// the table is still small enough to scan, and every seed reserves
    /// at random points.
    #[test]
    fn intern_table_matches_a_reference_map_across_clones() {
        for seed in 1..=3u64 {
            let mut rng = seed;
            let mut table: InternTable<Box<str>> = InternTable::default();
            if seed == 2 {
                table.reserve(SCAN_MAX + 1);
            }
            let mut reference: std::collections::HashMap<String, u32> = Default::default();
            let mut order: Vec<String> = Vec::new();
            let mut clones: Vec<(InternTable<Box<str>>, usize)> = Vec::new();
            for _ in 0..12_000 {
                let r = splitmix(&mut rng);
                let key = format!("k{}", r % 5000);
                assert_eq!(find_str(&table, &key), reference.get(&key).copied());
                if r.is_multiple_of(4) {
                    continue; // a probe only
                }
                if r % 1024 == 1 {
                    table.reserve((r >> 32) as usize % 3000);
                }
                let before = table.len();
                let id = match find_str(&table, &key) {
                    Some(id) => id,
                    None => table.insert_new(fx_hash(key.as_str()), key.as_str().into()),
                };
                let expect = *reference.entry(key.clone()).or_insert_with(|| {
                    order.push(key.clone());
                    before as u32
                });
                assert_eq!(id, expect);
                assert_eq!(table.len(), reference.len());
                let n = table.len();
                let boundary = n % SEG_LEN <= 1 || (n - 1).is_power_of_two() || n.is_power_of_two();
                if table.len() > before && (boundary || r % 256 == 1) {
                    clones.push((table.clone(), n));
                }
            }
            assert!(table.len() > 3 * SEG_LEN, "crosses several key segments");
            for (clone, n) in &clones {
                assert_eq!(clone.len(), *n, "a clone's length is frozen");
                for (i, key) in order.iter().enumerate() {
                    let got = find_str(clone, key);
                    if i < *n {
                        assert_eq!(got, Some(i as u32));
                        assert_eq!(&**clone.key(i as u32), key.as_str());
                    } else {
                        assert_eq!(got, None, "key interned after the clone");
                    }
                }
            }
        }
    }

    impl<T> SharedSlice<T> {
        fn allocates(&self) -> bool {
            matches!(self.0, Repr::Shared(_))
        }
    }

    /// Every edit matches the same edit on a `Vec`, leaves clones as they
    /// were, and a slice of at most `INLINE` elements holds no
    /// allocation. The lengths wander across `INLINE` both ways.
    #[test]
    fn shared_slice_edits_match_vec() {
        let mut reference: Vec<u32> = Vec::new();
        let mut s: SharedSlice<u32> = SharedSlice::default();
        assert!(!s.allocates(), "an empty slice allocates nothing");
        let mut rng = 7u64;
        for step in 0..400u32 {
            let before = s.clone();
            let frozen = reference.clone();
            let r = splitmix(&mut rng) as usize;
            let op = if reference.len() > 3 * INLINE {
                2
            } else {
                r % 4
            };
            match op {
                0 | 1 => {
                    let ix = r / 4 % (reference.len() + 1);
                    reference.insert(ix, step);
                    s.insert(ix, step);
                }
                2 if !reference.is_empty() => {
                    let ix = r / 4 % reference.len();
                    assert_eq!(s.swap_remove(ix), reference.swap_remove(ix));
                }
                3 if !reference.is_empty() => {
                    let ix = r / 4 % reference.len();
                    reference[ix] = step;
                    s.replace(ix, step);
                }
                _ => {
                    reference.push(step);
                    s.push(step);
                }
            }
            assert_eq!(&*s, &reference[..]);
            assert_eq!(&*before, &frozen[..], "a clone is unaffected by an edit");
            assert_eq!(fx_hash(&s), fx_hash(&reference[..]), "hashes like [T]");
            assert_eq!(s.allocates(), reference.len() > INLINE);
        }
        let mut one = SharedSlice::from(&[5u32][..]);
        assert_eq!(one.swap_remove(0), 5);
        assert!(one.is_empty() && !one.allocates());
        assert!(!SharedSlice::<u32>::from(&[][..]).allocates());
        let long: Vec<u32> = (0..=INLINE as u32).collect();
        let mut shared = SharedSlice::from(&long[..]);
        assert!(shared.allocates());
        shared.swap_remove(0);
        assert!(
            !shared.allocates(),
            "a slice shrunk to INLINE moves in place"
        );
        assert_eq!(std::mem::size_of::<SharedSlice<u32>>(), 16);
    }

    #[test]
    fn grow_with_fills() {
        let mut v: CowVec<Vec<u32>> = CowVec::new();
        v.grow_with(SEG_LEN + 2, Vec::new);
        assert_eq!(v.len(), SEG_LEN + 2);
        assert!(v.get(SEG_LEN + 1).is_empty());
    }
}
