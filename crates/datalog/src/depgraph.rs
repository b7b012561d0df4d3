//! Predicate dependency graphs, stratification, and strictness.
//!
//! The *dependency graph* of a program (Definition 8.3) has the relation
//! symbols as nodes and an arc `p → q` whenever `q` occurs in the body of a
//! rule with head `p`. Arcs are labeled positive, negative, or mixed
//! according to the polarity of `q`'s occurrences.
//!
//! On top of it we provide:
//!
//! * **Stratification** (Section 2.3): a program is stratified when no
//!   negative arc lies inside a strongly connected component; the stratum
//!   assignment drives the iterated-fixpoint evaluation in
//!   `afp-semantics::stratified`.
//! * **Strictness** (Definition 8.3, Section 8.2): a pair `(p, q)` is strict
//!   when all paths `p ⇝ q` cross an even number of negative arcs and no
//!   mixed arc, or all cross an odd number and no mixed arc, or there is no
//!   path. Strictness-in-the-IDB is the side condition of the
//!   expressiveness theorems (8.6, 8.7).
//!
//! For ground programs, [`Condensation`] condenses the **atom**
//! dependency graph into strongly connected components with stable ids
//! and order labels, the substrate of per-component well-founded
//! evaluation. [`Condensation::apply_delta`] keeps it current under
//! in-place program mutations: a repair re-runs Tarjan over the window
//! of components the delta can restructure and writes nothing outside
//! it, so a one-knot write costs the knot, not the program.

use crate::ast::Program;
use crate::atoms::AtomId;
use crate::fx::FxHashMap;
use crate::program::GroundProgram;
use crate::symbol::Symbol;

/// Polarity label of a dependency arc.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EdgePolarity {
    /// Some occurrence of the target is positive.
    pub positive: bool,
    /// Some occurrence of the target is negative.
    pub negative: bool,
}

impl EdgePolarity {
    /// "Mixed" per Definition 8.3: the target occurs both ways.
    pub fn is_mixed(&self) -> bool {
        self.positive && self.negative
    }
}

/// The dependency graph of a program.
#[derive(Debug, Clone)]
pub struct DepGraph {
    preds: Vec<Symbol>,
    index: FxHashMap<Symbol, usize>,
    /// `edges[p]` maps a successor node to the arc polarity.
    edges: Vec<FxHashMap<usize, EdgePolarity>>,
}

impl DepGraph {
    /// Build the graph from a program. Every predicate that occurs anywhere
    /// becomes a node.
    pub fn build(program: &Program) -> Self {
        let preds = program.all_predicates();
        let mut index = FxHashMap::default();
        for (i, &p) in preds.iter().enumerate() {
            index.insert(p, i);
        }
        let mut edges = vec![FxHashMap::<usize, EdgePolarity>::default(); preds.len()];
        for rule in &program.rules {
            let from = index[&rule.head.pred];
            for lit in &rule.body {
                let to = index[&lit.atom.pred];
                let e = edges[from].entry(to).or_default();
                if lit.positive {
                    e.positive = true;
                } else {
                    e.negative = true;
                }
            }
        }
        DepGraph {
            preds,
            index,
            edges,
        }
    }

    /// Build a graph from raw `(head, body, positive-occurrence)` triples —
    /// used by the first-order extension (`afp-fol`), where bodies are
    /// formulas rather than literal lists. Every symbol mentioned becomes a
    /// node.
    pub fn from_edges(edges: &[(Symbol, Symbol, bool)]) -> Self {
        let mut preds = Vec::new();
        let mut index: FxHashMap<Symbol, usize> = FxHashMap::default();
        let node = |s: Symbol, preds: &mut Vec<Symbol>, index: &mut FxHashMap<Symbol, usize>| {
            *index.entry(s).or_insert_with(|| {
                preds.push(s);
                preds.len() - 1
            })
        };
        let mut edge_list = Vec::new();
        for &(from, to, positive) in edges {
            let f = node(from, &mut preds, &mut index);
            let t = node(to, &mut preds, &mut index);
            edge_list.push((f, t, positive));
        }
        let mut adj = vec![FxHashMap::<usize, EdgePolarity>::default(); preds.len()];
        for (f, t, positive) in edge_list {
            let e = adj[f].entry(t).or_default();
            if positive {
                e.positive = true;
            } else {
                e.negative = true;
            }
        }
        DepGraph {
            preds,
            index,
            edges: adj,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.preds.len()
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.preds.is_empty()
    }

    /// Node id of a predicate, if present.
    pub fn node(&self, pred: Symbol) -> Option<usize> {
        self.index.get(&pred).copied()
    }

    /// Predicate of a node id.
    pub fn pred(&self, node: usize) -> Symbol {
        self.preds[node]
    }

    /// The polarity of the arc `p → q`, if it exists.
    pub fn edge(&self, p: usize, q: usize) -> Option<EdgePolarity> {
        self.edges[p].get(&q).copied()
    }

    /// Iterate over the successors of a node.
    pub fn successors(&self, p: usize) -> impl Iterator<Item = (usize, EdgePolarity)> + '_ {
        self.edges[p].iter().map(|(&q, &e)| (q, e))
    }

    /// Strongly connected components in *dependency order*: if any node of
    /// component `A` depends (directly or transitively) on a node of
    /// component `B ≠ A`, then `B` appears before `A` in the result.
    pub fn sccs(&self) -> SccList {
        let adj: Vec<Vec<usize>> = self
            .edges
            .iter()
            .map(|m| m.keys().copied().collect())
            .collect();
        tarjan_sccs(&adj)
    }

    /// Stratum assignment per node, or `None` if the program is not
    /// stratified (a negative or mixed arc inside an SCC). EDB predicates
    /// and other bottom predicates get stratum 0.
    pub fn stratification(&self) -> Option<Vec<u32>> {
        let sccs = self.sccs();
        let mut comp_of = vec![usize::MAX; self.len()];
        for (cid, comp) in sccs.iter().enumerate() {
            for &n in comp {
                comp_of[n as usize] = cid;
            }
        }
        // Reject negative arcs within a component.
        for (p, succ) in self.edges.iter().enumerate() {
            for (&q, e) in succ {
                if comp_of[p] == comp_of[q] && e.negative {
                    return None;
                }
            }
        }
        // Components come in dependency order, so one pass suffices.
        let mut comp_stratum = vec![0u32; sccs.len()];
        for (cid, comp) in sccs.iter().enumerate() {
            let mut s = 0;
            for &p in comp {
                for (q, e) in self.successors(p as usize) {
                    let qc = comp_of[q];
                    if qc != cid {
                        let need = comp_stratum[qc] + u32::from(e.negative);
                        s = s.max(need);
                    }
                }
            }
            comp_stratum[cid] = s;
        }
        Some((0..self.len()).map(|n| comp_stratum[comp_of[n]]).collect())
    }

    /// True iff the program is stratified.
    pub fn is_stratified(&self) -> bool {
        self.stratification().is_some()
    }

    /// Parity-reachability from `p`: for each node `q`, which parities of
    /// negative-arc counts are achievable on some path `p ⇝ q`. Traversing
    /// a mixed arc makes both parities achievable from that point on.
    /// The null path makes `p` even-reachable from itself.
    ///
    /// Returned as `(even, odd)` bit vectors.
    pub fn parity_reachability(&self, p: usize) -> (Vec<bool>, Vec<bool>) {
        let n = self.len();
        let mut even = vec![false; n];
        let mut odd = vec![false; n];
        let mut queue: Vec<(usize, bool)> = Vec::new(); // (node, parity-is-odd)
        even[p] = true;
        queue.push((p, false));
        while let Some((u, is_odd)) = queue.pop() {
            for (v, e) in self.successors(u) {
                let push = |v: usize,
                            po: bool,
                            even: &mut Vec<bool>,
                            odd: &mut Vec<bool>,
                            queue: &mut Vec<(usize, bool)>| {
                    let seen = if po { &mut odd[v] } else { &mut even[v] };
                    if !*seen {
                        *seen = true;
                        queue.push((v, po));
                    }
                };
                if e.is_mixed() {
                    push(v, false, &mut even, &mut odd, &mut queue);
                    push(v, true, &mut even, &mut odd, &mut queue);
                } else if e.negative {
                    push(v, !is_odd, &mut even, &mut odd, &mut queue);
                } else {
                    push(v, is_odd, &mut even, &mut odd, &mut queue);
                }
            }
        }
        (even, odd)
    }

    /// Is the ordered pair `(p, q)` strict (Definition 8.3)?
    pub fn is_strict_pair(&self, p: usize, q: usize) -> bool {
        let (even, odd) = self.parity_reachability(p);
        !(even[q] && odd[q])
    }

    /// Is the whole program strict?
    pub fn is_strict(&self) -> bool {
        (0..self.len()).all(|p| {
            let (even, odd) = self.parity_reachability(p);
            (0..self.len()).all(|q| !(even[q] && odd[q]))
        })
    }

    /// Is the program strict when restricted to pairs of IDB predicates?
    pub fn is_strict_in_idb(&self, idb: &[Symbol]) -> bool {
        let idb_nodes: Vec<usize> = idb.iter().filter_map(|&s| self.node(s)).collect();
        idb_nodes.iter().all(|&p| {
            let (even, odd) = self.parity_reachability(p);
            idb_nodes.iter().all(|&q| !(even[q] && odd[q]))
        })
    }
}

/// Strongly connected components in a flat CSR layout: one `nodes` array
/// grouped by component plus an `offsets` fence array, like
/// [`Condensation`] — two allocations total instead of one `Vec` per
/// component. Components are stored in reverse topological order of the
/// condensation (callees before callers), matching what [`tarjan_sccs`]
/// has always emitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SccList {
    /// Component `i` is `nodes[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<u32>,
    /// Node ids grouped by component.
    nodes: Vec<u32>,
}

impl SccList {
    /// Number of components.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True when the underlying graph had no nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The nodes of component `i`.
    pub fn get(&self, i: usize) -> &[u32] {
        &self.nodes[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Iterate over the components in emission (dependency) order.
    pub fn iter(&self) -> impl Iterator<Item = &[u32]> {
        (0..self.len()).map(move |i| self.get(i))
    }
}

/// Iterative Tarjan SCC. Components are returned in reverse topological
/// order of the condensation — i.e. if there is an arc from a node of `A`
/// to a node of `B` (A depends on B), `B` is emitted before `A`.
pub fn tarjan_sccs(adj: &[Vec<usize>]) -> SccList {
    let n = adj.len();
    let mut offsets = Vec::with_capacity(n + 1);
    offsets.push(0u32);
    let mut targets = Vec::new();
    for succ in adj {
        targets.extend(succ.iter().map(|&w| w as u32));
        offsets.push(targets.len() as u32);
    }
    let mut out = SccList {
        offsets: vec![0u32],
        nodes: Vec::with_capacity(n),
    };
    tarjan_csr(n, &offsets, &targets, |comp| {
        out.nodes.extend_from_slice(comp);
        out.offsets.push(out.nodes.len() as u32);
    });
    out
}

/// Iterative Tarjan over a CSR adjacency (`targets[offsets[v]..offsets[v+1]]`
/// are the successors of `v`). `emit` is called once per strongly connected
/// component, in reverse topological order of the condensation (callees
/// before callers); the slice it receives is scratch, valid for the call.
fn tarjan_csr(n: usize, offsets: &[u32], targets: &[u32], mut emit: impl FnMut(&[u32])) {
    let mut index = vec![u32::MAX; n];
    let mut low = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut next_index: u32 = 0;

    // Explicit DFS stack: (node, next child position in `targets`).
    let mut call: Vec<(u32, u32)> = Vec::new();
    for root in 0..n {
        if index[root] != u32::MAX {
            continue;
        }
        call.push((root as u32, offsets[root]));
        index[root] = next_index;
        low[root] = next_index;
        next_index += 1;
        stack.push(root as u32);
        on_stack[root] = true;
        while let Some(&mut (v, ref mut ci)) = call.last_mut() {
            let v = v as usize;
            if *ci < offsets[v + 1] {
                let w = targets[*ci as usize] as usize;
                *ci += 1;
                if index[w] == u32::MAX {
                    index[w] = next_index;
                    low[w] = next_index;
                    next_index += 1;
                    stack.push(w as u32);
                    on_stack[w] = true;
                    call.push((w as u32, offsets[w]));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                call.pop();
                if let Some(&(parent, _)) = call.last() {
                    let parent = parent as usize;
                    low[parent] = low[parent].min(low[v]);
                }
                if low[v] == index[v] {
                    let first = stack
                        .iter()
                        .rposition(|&w| w as usize == v)
                        .expect("stack holds the component");
                    for &w in &stack[first..] {
                        on_stack[w as usize] = false;
                    }
                    emit(&stack[first..]);
                    stack.truncate(first);
                }
            }
        }
    }
}

/// No atom / no component.
const NONE: u32 = u32::MAX;

/// Label distance between neighbouring components of a fresh
/// condensation, and the largest step a repair leaves between the labels
/// it assigns: 32 halvings of one gap before a relabel is needed.
const LABEL_GAP: u64 = 1 << 32;

/// Smallest average gap a relabel leaves in the neighbourhood it
/// respaces.
const MIN_RELABEL_GAP: u64 = 1 << 20;

/// One strongly connected component: its atoms (a list threaded through
/// [`Condensation`]'s `next_atom`), its order label and its neighbours in
/// the topological order.
#[derive(Debug, Clone, Copy)]
struct Comp {
    /// Smallest atom of the component, or [`NONE`] for a free id.
    first: u32,
    /// Atom count; `0` for a free id.
    size: u32,
    /// Previous and next component in topological order ([`NONE`] at
    /// the ends).
    prev: u32,
    next: u32,
    /// Order label: strictly increasing along the topological order.
    label: u64,
}

const FREE: Comp = Comp {
    first: NONE,
    size: 0,
    prev: NONE,
    next: NONE,
    label: 0,
};

/// The condensation of a ground program's **atom** dependency graph,
/// precomputed once and reused across solves: atom → component, the
/// atoms of each component, and a topological order of the components.
///
/// Components have **stable ids** and a separate **order label**. If any
/// atom of component `A` depends (directly or transitively) on an atom of
/// component `B ≠ A`, then `label(B) < label(A)`, so processing
/// components by ascending label ([`Condensation::topological_order`]) is
/// bottom-up. This is the substrate of the in-place component-wise
/// well-founded evaluation (`afp-semantics::modular`) and of its warm
/// re-solves, which evaluate only the components of a delta's cone,
/// sorted by label.
///
/// The condensation is **maintained incrementally** across in-place
/// program mutations: [`Condensation::apply_delta`] re-runs Tarjan only
/// over the *window* of components the delta can restructure, frees
/// their ids, and links the recomputed components into the window's
/// place in the order. Nothing outside the window is written: the order
/// is a doubly linked list with gapped labels, as in order-maintenance
/// structures (Dietz & Sleator, STOC 1987; Bender et al., ESA 2002), so
/// new components take labels between the window's neighbours instead
/// of shifting every later component. This is the dynamic topological
/// order of Pearce & Kelly (JEA 2006) with a contiguous window in place
/// of their reachability-bounded one. Rules are not stored: the rules of
/// a component are `prog.rules_with_head(a)` over its atoms.
#[derive(Debug, Clone)]
pub struct Condensation {
    /// Atom → component id.
    comp_of: Vec<u32>,
    /// Atom → next atom of its component (ascending), or [`NONE`].
    next_atom: Vec<u32>,
    /// Atom → its position in its component's ascending atom list.
    rank: Vec<u32>,
    /// Component id → component; ids with `size == 0` are free.
    comps: Vec<Comp>,
    /// Free component ids, reused before new ids are appended.
    free: Vec<u32>,
    /// First and last component in topological order.
    head: u32,
    tail: u32,
    /// Live components.
    live: usize,
    /// `size_hist[s]` = live components with `s` atoms.
    size_hist: Vec<u32>,
    /// Size of the largest component.
    largest: usize,
}

impl Condensation {
    /// Condense the atom dependency graph of `prog` (an arc `head → q` for
    /// every body atom `q`, positive or negative). Linear in the program
    /// size.
    pub fn of(prog: &crate::program::GroundProgram) -> Condensation {
        let n = prog.atom_count();
        // CSR adjacency head → body atoms.
        let mut offsets = vec![0u32; n + 1];
        for r in prog.rules() {
            offsets[r.head.index() + 1] += (r.pos.len() + r.neg.len()) as u32;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor = offsets.clone();
        let mut targets = vec![0u32; *offsets.last().unwrap_or(&0) as usize];
        for r in prog.rules() {
            let c = &mut cursor[r.head.index()];
            for &q in r.pos.iter().chain(r.neg.iter()) {
                targets[*c as usize] = q.0;
                *c += 1;
            }
        }

        let mut cond = Condensation {
            comp_of: vec![NONE; n],
            next_atom: vec![NONE; n],
            rank: vec![0; n],
            comps: Vec::new(),
            free: Vec::new(),
            head: NONE,
            tail: NONE,
            live: 0,
            size_hist: vec![0],
            largest: 0,
        };
        // Tarjan emits callees before callers: emission order is a
        // topological order, and the emission index is the id.
        tarjan_csr(n, &offsets, &targets, |comp| {
            let cid = cond.comps.len() as u32;
            for &a in comp {
                cond.comp_of[a as usize] = cid;
            }
            cond.comps.push(Comp {
                first: NONE,
                size: comp.len() as u32,
                prev: cid.checked_sub(1).unwrap_or(NONE),
                next: NONE,
                label: (u64::from(cid) + 1) * LABEL_GAP,
            });
            if let Some(p) = cid.checked_sub(1) {
                cond.comps[p as usize].next = cid;
            }
            cond.count_size(comp.len(), true);
        });
        // Thread each component's atom list in ascending order; a second
        // pass numbers each atom within its component.
        for a in (0..n as u32).rev() {
            let c = &mut cond.comps[cond.comp_of[a as usize] as usize];
            cond.next_atom[a as usize] = c.first;
            c.first = a;
        }
        let mut seen = vec![0u32; cond.comps.len()];
        for a in 0..n {
            let c = cond.comp_of[a] as usize;
            cond.rank[a] = seen[c];
            seen[c] += 1;
        }
        let k = cond.comps.len() as u32;
        cond.live = k as usize;
        if k > 0 {
            cond.head = 0;
            cond.tail = k - 1;
        }
        cond
    }

    /// Number of strongly connected components.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when the program has no atoms.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Component id of an atom. Ids are stable across repairs that do
    /// not restructure the component; compare [`Condensation::label`]s
    /// for dependency order.
    pub fn component_of(&self, atom: u32) -> u32 {
        self.comp_of[atom as usize]
    }

    /// Order label of component `comp`: every component whose atoms
    /// `comp`'s rules mention (other than `comp` itself) has a smaller
    /// label.
    pub fn label(&self, comp: u32) -> u64 {
        self.comps[comp as usize].label
    }

    /// Position of `atom` in its component's ascending atom list
    /// ([`Condensation::atoms`]): a dense local index for per-component
    /// scratch.
    pub fn local_index(&self, atom: u32) -> u32 {
        self.rank[atom as usize]
    }

    /// Number of atoms in component `comp`.
    pub fn component_size(&self, comp: u32) -> usize {
        self.comps[comp as usize].size as usize
    }

    /// The atoms of component `comp`, in ascending atom-id order.
    pub fn atoms(&self, comp: u32) -> impl Iterator<Item = u32> + '_ {
        let mut a = self.comps[comp as usize].first;
        std::iter::from_fn(move || {
            let cur = a;
            (cur != NONE).then(|| {
                a = self.next_atom[cur as usize];
                cur
            })
        })
    }

    /// Every component id, in topological (ascending label) order.
    pub fn topological_order(&self) -> impl Iterator<Item = u32> + '_ {
        let mut c = self.head;
        std::iter::from_fn(move || {
            let cur = c;
            (cur != NONE).then(|| {
                c = self.comps[cur as usize].next;
                cur
            })
        })
    }

    /// Size of the largest component.
    pub fn largest(&self) -> usize {
        self.largest
    }

    /// Add (`add`) or remove one component of `size` atoms from the size
    /// histogram, keeping `largest` current.
    fn count_size(&mut self, size: usize, add: bool) {
        if add {
            if self.size_hist.len() <= size {
                self.size_hist.resize(size + 1, 0);
            }
            self.size_hist[size] += 1;
            self.largest = self.largest.max(size);
        } else {
            self.size_hist[size] -= 1;
            while self.largest > 0 && self.size_hist[self.largest] == 0 {
                self.largest -= 1;
            }
        }
    }

    /// Patch this condensation after a batch of in-place program
    /// mutations, instead of rebuilding it from scratch. `prog` is the
    /// program **after** the mutations; `delta` describes them (see
    /// [`CondensationDelta`] for the exact contract). Returns counters
    /// for how much of the condensation the repair read and wrote.
    ///
    /// # Algorithm
    ///
    /// Component membership and order can only change inside a bounded
    /// *window* of the topological order. A removed edge can split only
    /// the component that contained it (its head is touched). An added
    /// edge `u → v` can merge components only along a pre-existing
    /// dependency path `v ⇝ u`, and every component on such a path has a
    /// label between those of `comp(u)` and `comp(v)`: labels along old
    /// dependency edges are non-increasing and both endpoints of every
    /// added edge are recorded in the delta. So the window — the
    /// components from the lowest to the highest labelled seed, walked
    /// along the order list — contains every component whose membership
    /// or relative position can change; no cycle through a changed edge
    /// can leave it. Atoms interned since the last repair join the
    /// window: they are connected only to window atoms or to each other.
    ///
    /// The repair re-runs Tarjan over the window's atoms, frees the
    /// window's component ids, and links the recomputed components (ids
    /// from the free list first) into the window's place in the order.
    /// Their labels split the gap between the window's neighbours; only
    /// when that gap is too small does a relabel respace the smallest
    /// enclosing neighbourhood that has room, doubling it on each side.
    pub fn apply_delta(&mut self, prog: &GroundProgram, delta: &CondensationDelta) -> RepairStats {
        let old_n = self.comp_of.len();
        let new_n = prog.atom_count();

        // ---- Window of possibly-restructured components -----------------
        let (mut lo, mut hi) = (NONE, NONE);
        for &a in delta.touched.iter().chain(delta.new_edge_targets.iter()) {
            if a.index() < old_n {
                let c = self.comp_of[a.index()];
                if lo == NONE || self.label(c) < self.label(lo) {
                    lo = c;
                }
                if hi == NONE || self.label(c) > self.label(hi) {
                    hi = c;
                }
            }
        }
        if lo == NONE && new_n == old_n {
            return RepairStats::default();
        }
        // Neighbours the recomputed components are linked between. With
        // no existing seed, new atoms are appended after everything else.
        let (before, after) = if lo == NONE {
            (self.tail, NONE)
        } else {
            (self.comps[lo as usize].prev, self.comps[hi as usize].next)
        };
        let mut window_comps: Vec<u32> = Vec::new();
        let mut window_atoms: Vec<u32> = Vec::new();
        let mut c = lo;
        while c != NONE {
            window_comps.push(c);
            window_atoms.extend(self.atoms(c));
            c = if c == hi {
                NONE
            } else {
                self.comps[c as usize].next
            };
        }
        // Old atoms ascending, then the new ones (all larger).
        window_atoms.sort_unstable();
        window_atoms.extend(old_n as u32..new_n as u32);
        let nw = window_atoms.len();
        // The window is a label range plus the new atoms. Its atoms' ranks
        // are rewritten below anyway, so they hold window positions
        // meanwhile.
        self.comp_of.resize(new_n, NONE);
        self.next_atom.resize(new_n, NONE);
        self.rank.resize(new_n, 0);
        for (i, &a) in window_atoms.iter().enumerate() {
            self.rank[a as usize] = i as u32;
        }
        let labels = (lo != NONE).then(|| self.label(lo)..=self.label(hi));
        let local = |q: u32| {
            let inside = q as usize >= old_n
                || labels
                    .as_ref()
                    .is_some_and(|l| l.contains(&self.label(self.comp_of[q as usize])));
            inside.then(|| self.rank[q as usize])
        };

        // ---- Localized Tarjan over the window's atoms -------------------
        let mut offsets: Vec<u32> = Vec::with_capacity(nw + 1);
        offsets.push(0);
        let mut targets: Vec<u32> = Vec::new();
        let mut edges_visited = 0usize;
        for &a in &window_atoms {
            for &rid in prog.rules_with_head(AtomId(a)) {
                let r = prog.rule(rid);
                for &q in r.pos.iter().chain(r.neg.iter()) {
                    edges_visited += 1;
                    if let Some(lq) = local(q.0) {
                        targets.push(lq);
                    } else {
                        // A dependency that leaves the window can only go
                        // below it: old edges respect the old order, and
                        // both endpoints of every added edge are seeds.
                        debug_assert!(
                            labels
                                .as_ref()
                                .is_some_and(|l| self.label(self.comp_of[q.index()]) < *l.start()),
                            "window atoms only depend into or below the window"
                        );
                    }
                }
            }
            offsets.push(targets.len() as u32);
        }
        let mut local_comp = vec![0u32; nw];
        let mut m = 0u32;
        tarjan_csr(nw, &offsets, &targets, |comp| {
            for &x in comp {
                local_comp[x as usize] = m;
            }
            m += 1;
        });
        let m = m as usize;

        // ---- Free the window's components -------------------------------
        for &c in &window_comps {
            let size = self.comps[c as usize].size as usize;
            self.count_size(size, false);
            self.comps[c as usize] = FREE;
            self.free.push(c);
        }
        self.live -= window_comps.len();

        // ---- Link the recomputed components in the window's place -------
        let mut ids: Vec<u32> = Vec::with_capacity(m);
        let mut prev = before;
        for _ in 0..m {
            let id = match self.free.pop() {
                Some(id) => id,
                None => {
                    self.comps.push(FREE);
                    (self.comps.len() - 1) as u32
                }
            };
            self.comps[id as usize].prev = prev;
            match prev {
                NONE => self.head = id,
                p => self.comps[p as usize].next = id,
            }
            prev = id;
            ids.push(id);
        }
        match after {
            NONE => self.tail = prev,
            s => self.comps[s as usize].prev = prev,
        }
        if let Some(&last) = ids.last() {
            self.comps[last as usize].next = after;
        }
        // Thread atoms in descending order so every list ends ascending.
        for (i, &a) in window_atoms.iter().enumerate().rev() {
            let id = ids[local_comp[i] as usize];
            let comp = &mut self.comps[id as usize];
            self.comp_of[a as usize] = id;
            self.next_atom[a as usize] = comp.first;
            comp.first = a;
            comp.size += 1;
        }
        for &id in &ids {
            let size = self.comps[id as usize].size as usize;
            self.count_size(size, true);
            let mut a = self.comps[id as usize].first;
            for r in 0..size as u32 {
                self.rank[a as usize] = r;
                a = self.next_atom[a as usize];
            }
        }
        self.live += m;

        // ---- Labels -----------------------------------------------------
        let mut atoms_written = nw;
        if let (Some(&first), Some(&last)) = (ids.first(), ids.last()) {
            let lower = self.label_or(before, 0);
            let upper = self.label_or(after, u64::MAX);
            let step = LABEL_GAP.min((upper - lower) / (m as u64 + 1));
            if step > 0 {
                for (i, &id) in ids.iter().enumerate() {
                    self.comps[id as usize].label = lower + step * (i as u64 + 1);
                }
            } else {
                // The respaced neighbourhood holds the window's `nw`
                // atoms and those of the components around it.
                atoms_written = self.respace(first, last, m);
            }
        }

        RepairStats {
            atoms_visited: atoms_written,
            edges_visited,
            components_replaced: window_comps.len(),
            components_recomputed: m,
        }
    }

    /// The label of `comp`, or `sentinel` past either end of the order.
    fn label_or(&self, comp: u32, sentinel: u64) -> u64 {
        match comp {
            NONE => sentinel,
            c => self.label(c),
        }
    }

    /// Relabel the smallest neighbourhood of the `count` consecutive
    /// components `first..=last` whose label span leaves an average gap
    /// of at least [`MIN_RELABEL_GAP`], growing it by doubling on each
    /// side, and space its labels evenly. The whole order always
    /// qualifies: at most `u32::MAX` components share the `u64` labels.
    /// Returns the atoms of the relabelled components.
    fn respace(&mut self, mut first: u32, mut last: u32, mut count: usize) -> usize {
        let mut reach = 1usize;
        loop {
            let lower = self.label_or(self.comps[first as usize].prev, 0);
            let upper = self.label_or(self.comps[last as usize].next, u64::MAX);
            let gap = (upper - lower) / (count as u64 + 1);
            let whole =
                self.comps[first as usize].prev == NONE && self.comps[last as usize].next == NONE;
            if gap >= MIN_RELABEL_GAP || whole {
                let mut atoms = 0usize;
                let mut c = first;
                for i in 0..count {
                    let comp = &mut self.comps[c as usize];
                    comp.label = lower + gap * (i as u64 + 1);
                    atoms += comp.size as usize;
                    c = comp.next;
                }
                return atoms;
            }
            for _ in 0..reach {
                let p = self.comps[first as usize].prev;
                if p != NONE {
                    first = p;
                    count += 1;
                }
                let s = self.comps[last as usize].next;
                if s != NONE {
                    last = s;
                    count += 1;
                }
            }
            reach *= 2;
        }
    }

    /// Do `self` and `other` describe the same condensation? The SCC
    /// *partition* of a graph is unique but component ids and labels are
    /// an arbitrary topological labelling, so this compares the atom
    /// partition — the notion of identity the differential suite holds
    /// [`Condensation::apply_delta`] to against a from-scratch
    /// [`Condensation::of`] (use [`Condensation::is_consistent_with`]
    /// for the order-validity half).
    pub fn same_decomposition(&self, other: &Condensation) -> bool {
        if self.comp_of.len() != other.comp_of.len() || self.len() != other.len() {
            return false;
        }
        // Atom lists are ascending on both sides, so list equality is set
        // equality; equal counts + disjointness make the component
        // mapping a bijection.
        self.topological_order().all(|c| {
            let oc = other.comp_of[self.comps[c as usize].first as usize];
            self.atoms(c).eq(other.atoms(oc))
        })
    }

    /// Full structural audit against `prog`: sizes, the order list (every
    /// live component exactly once, labels strictly increasing), the
    /// free list, atom lists (ascending, agreeing with `comp_of`),
    /// **topologically valid** labels (no rule's body reaches a component
    /// labelled above its head's), and a correct histogram and `largest`.
    /// `O(|program|)` — this is the debug-mode check behind warm
    /// condensation repairs, not a hot-path operation.
    pub fn is_consistent_with(&self, prog: &GroundProgram) -> bool {
        let n = prog.atom_count();
        if self.comp_of.len() != n || self.next_atom.len() != n || self.rank.len() != n {
            return false;
        }
        let mut seen = vec![false; self.comps.len()];
        let mut hist = vec![0u32; n + 1];
        let (mut prev, mut last_label, mut live, mut atoms) = (NONE, None, 0usize, 0usize);
        for c in self.topological_order() {
            let comp = &self.comps[c as usize];
            if seen[c as usize] || comp.size == 0 || comp.prev != prev {
                return false;
            }
            if last_label.is_some_and(|l| l >= comp.label) {
                return false;
            }
            seen[c as usize] = true;
            (prev, last_label) = (c, Some(comp.label));
            let list: Vec<u32> = self.atoms(c).collect();
            if list.len() != comp.size as usize
                || !list.windows(2).all(|p| p[0] < p[1])
                || list.iter().any(|&a| self.comp_of[a as usize] != c)
                || list
                    .iter()
                    .enumerate()
                    .any(|(r, &a)| self.rank[a as usize] != r as u32)
            {
                return false;
            }
            hist[list.len()] += 1;
            live += 1;
            atoms += list.len();
        }
        let free_ok = self.free.len() == self.comps.len() - live
            && self.free.iter().all(|&c| self.comps[c as usize].size == 0);
        if prev != self.tail || live != self.live || atoms != n || !free_ok {
            return false;
        }
        let topological = prog.rules().all(|r| {
            let hl = self.label(self.comp_of[r.head.index()]);
            r.pos
                .iter()
                .chain(r.neg.iter())
                .all(|&q| self.label(self.comp_of[q.index()]) <= hl)
        });
        let largest = hist.iter().rposition(|&k| k > 0).unwrap_or(0);
        let hist_ok = (0..self.size_hist.len().max(hist.len())).all(|s| {
            self.size_hist.get(s).copied().unwrap_or(0) == hist.get(s).copied().unwrap_or(0)
        });
        topological && hist_ok && self.largest == largest
    }
}

/// The change a batch of in-place program mutations makes to the atom
/// dependency graph, as [`Condensation::apply_delta`] needs to see it.
///
/// # Contract
///
/// The condensation must be current up to (but not including) the batch
/// — apply deltas after **every** mutation batch, in order. The batch
/// must satisfy:
///
/// * `touched` holds the head atom of every ground rule the batch added,
///   removed, or patched (a resurrected negative literal patches its
///   rule);
/// * `new_edge_targets` holds every body atom of every added rule and
///   every atom added to an existing rule's body — the targets of
///   dependency edges that did not necessarily exist before;
/// * atoms interned since the last delta are exactly
///   `old_atom_count..prog.atom_count()` (dense append), and each of
///   them either has its rules' heads in `touched` or appears in
///   `new_edge_targets` or has no incident dependency edges at all.
///
/// Rule ids play no part: swap-remove renames of rules need no report.
#[derive(Debug, Clone, Copy)]
pub struct CondensationDelta<'a> {
    /// Heads whose rule set changed (rules added, removed, or patched).
    pub touched: &'a [AtomId],
    /// Body atoms of added rules and added (resurrected) body literals.
    pub new_edge_targets: &'a [AtomId],
}

/// What one [`Condensation::apply_delta`] call actually walked — the
/// evidence that a repair was delta-bounded rather than a hidden rebuild.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairStats {
    /// Atoms whose component entry or component label the repair wrote:
    /// the window's atoms, plus the atoms of any component a relabel
    /// outside the window respaced.
    pub atoms_visited: usize,
    /// Dependency edges inspected while rebuilding the window adjacency.
    pub edges_visited: usize,
    /// Components the window replaced.
    pub components_replaced: usize,
    /// Components the localized Tarjan emitted in their place.
    pub components_recomputed: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn graph(src: &str) -> (DepGraph, Program) {
        let p = parse_program(src).unwrap();
        (DepGraph::build(&p), p)
    }

    #[test]
    fn builds_labeled_edges() {
        let (g, p) = graph("p(X) :- q(X), not r(X). q(a).");
        let pn = g.node(p.symbols.get("p").unwrap()).unwrap();
        let qn = g.node(p.symbols.get("q").unwrap()).unwrap();
        let rn = g.node(p.symbols.get("r").unwrap()).unwrap();
        assert_eq!(
            g.edge(pn, qn),
            Some(EdgePolarity {
                positive: true,
                negative: false
            })
        );
        assert!(g.edge(pn, rn).unwrap().negative);
        assert!(g.edge(qn, pn).is_none());
    }

    #[test]
    fn mixed_edges_detected() {
        let (g, p) = graph("p(X) :- q(X), not q(X).");
        let pn = g.node(p.symbols.get("p").unwrap()).unwrap();
        let qn = g.node(p.symbols.get("q").unwrap()).unwrap();
        assert!(g.edge(pn, qn).unwrap().is_mixed());
    }

    #[test]
    fn tc_program_is_stratified() {
        let (g, p) = graph(
            "tc(X,Y) :- e(X,Y). tc(X,Y) :- e(X,Z), tc(Z,Y).
             ntc(X,Y) :- d(X), d(Y), not tc(X,Y). e(a,b). d(a).",
        );
        let strata = g.stratification().expect("stratified");
        let s = |name: &str| strata[g.node(p.symbols.get(name).unwrap()).unwrap()];
        assert_eq!(s("e"), 0);
        assert_eq!(s("tc"), 0);
        assert_eq!(s("ntc"), 1);
        assert!(g.is_stratified());
    }

    #[test]
    fn win_move_is_not_stratified() {
        let (g, _) = graph("wins(X) :- move(X,Y), not wins(Y). move(a,b).");
        assert!(!g.is_stratified());
        assert!(g.stratification().is_none());
    }

    #[test]
    fn even_odd_cycle_stratification() {
        // p :- not q. q :- not p.  — a 2-cycle through negation: unstratified.
        let (g, _) = graph("p :- not q. q :- not p.");
        assert!(!g.is_stratified());
    }

    #[test]
    fn sccs_in_dependency_order() {
        let (g, p) = graph("a :- b. b :- a. c :- a.");
        let sccs = g.sccs();
        assert_eq!(sccs.len(), 2);
        // {a, b} must come before {c}.
        let first: Vec<&str> = sccs
            .get(0)
            .iter()
            .map(|&n| p.symbols.name(g.pred(n as usize)))
            .collect();
        assert!(first.contains(&"a") && first.contains(&"b"));
        assert_eq!(p.symbols.name(g.pred(sccs.get(1)[0] as usize)), "c");
    }

    #[test]
    fn strictness_of_win_move() {
        // wins depends on itself through one negation: paths wins⇝wins have
        // lengths 0, 1, 2, … negations — both parities ⇒ not strict.
        let (g, p) = graph("wins(X) :- move(X,Y), not wins(Y). move(a,b).");
        let w = g.node(p.symbols.get("wins").unwrap()).unwrap();
        assert!(!g.is_strict_pair(w, w));
        assert!(!g.is_strict());
        // But restricted to {move} as "IDB" it is trivially strict.
        assert!(g.is_strict_in_idb(&[p.symbols.get("move").unwrap()]));
    }

    #[test]
    fn strict_program_example_8_2() {
        // w(X) :- not u(X).  u(X) :- e(Y,X), not w(Y).  (Example 8.2)
        // Paths w⇝w: w→u→w with 2 negations; w⇝u: 1 negation; all strict.
        let (g, p) = graph("w(X) :- not u(X). u(X) :- e(Y, X), not w(Y). e(a, b).");
        assert!(g.is_strict());
        let idb = [p.symbols.get("w").unwrap(), p.symbols.get("u").unwrap()];
        assert!(g.is_strict_in_idb(&idb));
    }

    #[test]
    fn mixed_arc_breaks_strictness() {
        let (g, p) = graph("p(X) :- q(X), not q(X). q(a).");
        let pn = g.node(p.symbols.get("p").unwrap()).unwrap();
        let qn = g.node(p.symbols.get("q").unwrap()).unwrap();
        assert!(!g.is_strict_pair(pn, qn));
    }

    #[test]
    fn tarjan_on_larger_graph() {
        // 0→1→2→0 cycle; 3→0; 4 isolated.
        let adj = vec![vec![1], vec![2], vec![0], vec![0], vec![]];
        let sccs = tarjan_sccs(&adj);
        assert_eq!(sccs.len(), 3);
        let cycle = sccs.iter().find(|c| c.len() == 3).unwrap();
        let mut sorted = cycle.to_vec();
        sorted.sort();
        assert_eq!(sorted, vec![0, 1, 2]);
        // The cycle must precede node 3 (which depends on it).
        let cycle_pos = sccs.iter().position(|c| c.len() == 3).unwrap();
        let three_pos = sccs.iter().position(|c| c == [3]).unwrap();
        assert!(cycle_pos < three_pos);
    }

    #[test]
    fn condensation_groups_atoms() {
        use crate::program::parse_ground;
        let g = parse_ground("p :- not q. q :- not p. r :- p. r :- q. s :- not r. t.");
        let c = Condensation::of(&g);
        assert_eq!(c.len(), 4, "{{p,q}}, {{r}}, {{s}}, {{t}}");
        assert_eq!(c.largest(), 2);
        let p = g.find_atom_by_name("p", &[]).unwrap().0;
        let q = g.find_atom_by_name("q", &[]).unwrap().0;
        let r = g.find_atom_by_name("r", &[]).unwrap().0;
        let s = g.find_atom_by_name("s", &[]).unwrap().0;
        assert_eq!(c.component_of(p), c.component_of(q));
        assert_ne!(c.component_of(p), c.component_of(r));
        // Dependency order: callees get smaller labels.
        let label = |a: u32| c.label(c.component_of(a));
        assert!(label(p) < label(r));
        assert!(label(r) < label(s));
        // The knot's component holds both atoms, ascending.
        let knot = c.component_of(p);
        assert_eq!(c.atoms(knot).collect::<Vec<_>>(), [p.min(q), p.max(q)]);
        assert_eq!(c.component_size(knot), 2);
        // Every atom lands in exactly one component, listed in order.
        let order: Vec<u32> = c.topological_order().collect();
        assert_eq!(order.len(), c.len());
        assert!(order.windows(2).all(|w| c.label(w[0]) < c.label(w[1])));
        let total_atoms: usize = order.iter().map(|&i| c.atoms(i).count()).sum();
        assert_eq!(total_atoms, g.atom_count());
    }

    #[test]
    fn condensation_of_empty_program() {
        use crate::program::GroundProgramBuilder;
        let g = GroundProgramBuilder::new().finish();
        let c = Condensation::of(&g);
        assert!(c.is_empty());
        assert_eq!(c.len(), 0);
    }

    /// Rebuild from scratch and check the repaired condensation against
    /// it — the identity notion of the differential suite.
    fn assert_repaired(c: &Condensation, g: &crate::program::GroundProgram) {
        let fresh = Condensation::of(g);
        assert!(c.is_consistent_with(g), "repaired condensation audits");
        assert!(
            c.same_decomposition(&fresh),
            "repair must reproduce the from-scratch decomposition"
        );
    }

    #[test]
    fn apply_delta_fact_toggle_is_partition_stable() {
        use crate::program::parse_ground;
        let mut g = parse_ground("p :- not q, e. q :- not p. r :- p. e.");
        let mut c = Condensation::of(&g);
        let e = g.find_atom_by_name("e", &[]).unwrap();
        let fact = *g
            .rules_with_head(e)
            .iter()
            .find(|&&r| g.rule(r).is_fact())
            .unwrap();
        // Retract the fact…
        g.remove_rule(fact);
        let stats = c.apply_delta(
            &g,
            &CondensationDelta {
                touched: &[e],
                new_edge_targets: &[],
            },
        );
        assert_repaired(&c, &g);
        assert_eq!(stats.atoms_visited, 1, "only e's singleton is rewritten");
        // …and assert it back.
        g.push_rule(e, vec![], vec![]);
        c.apply_delta(
            &g,
            &CondensationDelta {
                touched: &[e],
                new_edge_targets: &[],
            },
        );
        assert_repaired(&c, &g);
    }

    #[test]
    fn apply_delta_merges_and_splits_components() {
        use crate::program::parse_ground;
        // A 3-chain of singletons: c depends on b depends on a.
        let mut g = parse_ground("a. b :- a. c :- b. z :- not c.");
        let mut c = Condensation::of(&g);
        let a = g.find_atom_by_name("a", &[]).unwrap();
        let b = g.find_atom_by_name("b", &[]).unwrap();
        let cc = g.find_atom_by_name("c", &[]).unwrap();
        // Add `a :- c.`: merges {a}, {b}, {c} into one odd-sized knot.
        let rid = g.push_rule(a, vec![cc], vec![]);
        let stats = c.apply_delta(
            &g,
            &CondensationDelta {
                touched: &[a],
                new_edge_targets: &[cc],
            },
        );
        assert_repaired(&c, &g);
        assert_eq!(c.component_of(a.0), c.component_of(cc.0));
        assert_eq!(stats.components_replaced, 3, "the window is the chain");
        assert_eq!(stats.components_recomputed, 1, "merged into one knot");
        assert_eq!(c.largest(), 3);
        // Remove it again: the knot splits back into three singletons.
        g.remove_rule(rid);
        c.apply_delta(
            &g,
            &CondensationDelta {
                touched: &[a],
                new_edge_targets: &[],
            },
        );
        assert_repaired(&c, &g);
        assert_ne!(c.component_of(a.0), c.component_of(b.0));
        assert_eq!(c.largest(), 1);
    }

    #[test]
    fn apply_delta_handles_new_atoms_and_odd_loops() {
        use crate::program::parse_ground;
        let mut g = parse_ground("p :- not q. q :- not p. r :- p.");
        let mut c = Condensation::of(&g);
        // Intern a brand-new atom with an odd loop through negation on
        // itself plus an edge into the old program.
        let s = g.intern_symbol("s");
        let sa = g.intern_atom_ids(s, &[]);
        let p = g.find_atom_by_name("p", &[]).unwrap();
        g.push_rule(sa, vec![p], vec![sa]);
        c.apply_delta(
            &g,
            &CondensationDelta {
                touched: &[sa],
                new_edge_targets: &[p, sa],
            },
        );
        assert_repaired(&c, &g);
        assert!(c.label(c.component_of(sa.0)) > c.label(c.component_of(p.0)));
        // A floating new atom with no rules at all becomes a singleton.
        let t = g.intern_symbol("t");
        let ta = g.intern_atom_ids(t, &[]);
        c.apply_delta(
            &g,
            &CondensationDelta {
                touched: &[],
                new_edge_targets: &[],
            },
        );
        assert_repaired(&c, &g);
        assert_eq!(c.atoms(c.component_of(ta.0)).collect::<Vec<_>>(), [ta.0]);
    }

    #[test]
    fn repeated_splits_in_one_gap_relabel_a_neighbourhood() {
        use crate::program::parse_ground;
        // Each step interns x_i below b, so the repair puts two
        // components where b was, between x_{i-1} and z: the gap there
        // shrinks by a third per step until a relabel must respace.
        let mut g = parse_ground("a. b :- a. z :- b.");
        let mut c = Condensation::of(&g);
        let b = g.find_atom_by_name("b", &[]).unwrap();
        let mut relabelled = false;
        for i in 0..80 {
            let sym = g.intern_symbol(&format!("x{i}"));
            let x = g.intern_atom_ids(sym, &[]);
            g.push_rule(b, vec![x], vec![]);
            let stats = c.apply_delta(
                &g,
                &CondensationDelta {
                    touched: &[b],
                    new_edge_targets: &[x],
                },
            );
            assert_repaired(&c, &g);
            assert_eq!(stats.components_recomputed, 2);
            relabelled |= stats.atoms_visited > 2;
        }
        assert!(relabelled, "80 splits of one gap needed a relabel");
        assert_eq!(c.len(), 83);
    }

    #[test]
    fn stratification_depth_chain() {
        let (g, p) =
            graph("s1(X) :- e(X). s2(X) :- e(X), not s1(X). s3(X) :- e(X), not s2(X). e(a).");
        let strata = g.stratification().unwrap();
        let s = |name: &str| strata[g.node(p.symbols.get(name).unwrap()).unwrap()];
        assert_eq!(s("e"), 0);
        assert_eq!(s("s1"), 0);
        assert_eq!(s("s2"), 1);
        assert_eq!(s("s3"), 2);
    }
}
