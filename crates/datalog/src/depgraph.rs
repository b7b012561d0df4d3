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

use crate::ast::Program;
use crate::atoms::AtomId;
use crate::fx::FxHashMap;
use crate::program::{GroundProgram, RuleId};
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

/// The condensation of a ground program's **atom** dependency graph,
/// precomputed once and reused across solves: atom → component ids in
/// topological (dependency) order, the atoms of each component, and the
/// rules of each component (those whose head lies in it).
///
/// Component ids are assigned so that if any atom of component `A` depends
/// (directly or transitively) on an atom of component `B ≠ A`, then
/// `B < A` — processing components in id order is bottom-up. This is the
/// substrate of the in-place component-wise well-founded evaluation
/// (`afp-semantics::modular`) and of per-component warm re-solves in the
/// engine's sessions.
///
/// The condensation is **maintained incrementally** across in-place
/// program mutations: [`Condensation::apply_delta`] patches the CSR
/// structures by re-running Tarjan only over the *window* of components
/// the delta's dependency edges can possibly restructure, so a warm
/// re-solve pays `O(|delta cone|)` for its SCC structure, not
/// `O(|program|)`. Components outside the window keep their ids, atom
/// slices, and rule slices untouched. Atom ids are stable across
/// in-place mutations, which is why per-component memoization keyed by
/// atom id additionally survives even the id renumbering *inside* the
/// window: a component whose atoms all lie outside the delta's forward
/// cone can copy its previous truth values verbatim.
#[derive(Debug, Clone)]
pub struct Condensation {
    /// Atom index → component id.
    comp_of: Vec<u32>,
    /// Component id → range into `atoms` (len = components + 1).
    atom_offsets: Vec<u32>,
    /// Atom indices grouped by component, components in id order.
    atoms: Vec<u32>,
    /// Component id → range into `rules` (len = components + 1).
    rule_offsets: Vec<u32>,
    /// Rule ids grouped by their head's component.
    rules: Vec<RuleId>,
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

        let mut comp_of = vec![0u32; n];
        let mut comp_sizes: Vec<u32> = Vec::new();
        let mut largest = 0usize;
        tarjan_csr(n, &offsets, &targets, |comp| {
            let cid = comp_sizes.len() as u32;
            for &a in comp {
                comp_of[a as usize] = cid;
            }
            comp_sizes.push(comp.len() as u32);
            largest = largest.max(comp.len());
        });

        // Group atoms and rules by component (counting sort).
        let k = comp_sizes.len();
        let mut atom_offsets = vec![0u32; k + 1];
        for (i, &s) in comp_sizes.iter().enumerate() {
            atom_offsets[i + 1] = atom_offsets[i] + s;
        }
        let mut cursor = atom_offsets.clone();
        let mut atoms = vec![0u32; n];
        for a in 0..n as u32 {
            let c = &mut cursor[comp_of[a as usize] as usize];
            atoms[*c as usize] = a;
            *c += 1;
        }

        let mut rule_offsets = vec![0u32; k + 1];
        for r in prog.rules() {
            rule_offsets[comp_of[r.head.index()] as usize + 1] += 1;
        }
        for i in 0..k {
            rule_offsets[i + 1] += rule_offsets[i];
        }
        let mut cursor = rule_offsets.clone();
        let mut rules = vec![0 as RuleId; prog.rule_count()];
        for (rid, r) in prog.rules().enumerate() {
            let c = &mut cursor[comp_of[r.head.index()] as usize];
            rules[*c as usize] = rid as RuleId;
            *c += 1;
        }

        Condensation {
            comp_of,
            atom_offsets,
            atoms,
            rule_offsets,
            rules,
            largest,
        }
    }

    /// Number of strongly connected components.
    pub fn len(&self) -> usize {
        self.atom_offsets.len() - 1
    }

    /// True when the program has no atoms.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Component id of an atom. Component ids respect dependencies: every
    /// component an atom's rules mention (other than its own) has a
    /// smaller id.
    pub fn component_of(&self, atom: u32) -> u32 {
        self.comp_of[atom as usize]
    }

    /// The atoms of component `comp`, in ascending atom-id order.
    pub fn atoms(&self, comp: usize) -> &[u32] {
        &self.atoms[self.atom_offsets[comp] as usize..self.atom_offsets[comp + 1] as usize]
    }

    /// The rules whose head lies in component `comp`.
    pub fn rules(&self, comp: usize) -> &[RuleId] {
        &self.rules[self.rule_offsets[comp] as usize..self.rule_offsets[comp + 1] as usize]
    }

    /// Size of the largest component.
    pub fn largest(&self) -> usize {
        self.largest
    }

    /// Patch this condensation after a batch of in-place program
    /// mutations, instead of rebuilding it from scratch. `prog` is the
    /// program **after** the mutations; `delta` describes them (see
    /// [`CondensationDelta`] for the exact contract). Returns counters
    /// for how much of the graph the repair actually walked.
    ///
    /// # Algorithm
    ///
    /// Component membership and order can only change inside a bounded
    /// *window* of the topological order. A removed edge can split only
    /// the component that contained it (its head is touched). An added
    /// edge `u → v` can merge components only along a pre-existing
    /// dependency path `v ⇝ u`, and every component on such a path has an
    /// id between `comp(u)` and `comp(v)` — ids along old dependency
    /// edges are non-increasing and both endpoints of every added edge
    /// are recorded in the delta. So the window `[lo, hi]` spanned by the
    /// components of all touched heads and new-edge targets contains
    /// every component whose membership or relative position can change;
    /// no cycle through a changed edge can leave it. The repair re-runs
    /// Tarjan over the window's atoms only (plus atoms interned since the
    /// last repair, which join the window), splices the recomputed
    /// components back into the id range `[lo, lo + m)`, shifts the
    /// suffix only when the component count actually changed, and
    /// regroups rule slices for window components straight from the
    /// program's head index. Components outside the window keep their
    /// ids, atom slices, and rule slices (modulo swap-remove rule-id
    /// renames, which are patched pointwise).
    pub fn apply_delta(&mut self, prog: &GroundProgram, delta: &CondensationDelta) -> RepairStats {
        let old_n = self.comp_of.len();
        let new_n = prog.atom_count();
        let k_old = self.len();

        // ---- Window of possibly-restructured components -----------------
        let mut lo = usize::MAX;
        let mut hi_ex = 0usize; // exclusive upper bound
        for &a in delta.touched.iter().chain(delta.new_edge_targets.iter()) {
            if a.index() < old_n {
                let c = self.comp_of[a.index()] as usize;
                lo = lo.min(c);
                hi_ex = hi_ex.max(c + 1);
            }
        }
        if lo == usize::MAX {
            // No existing component is seeded: new atoms (if any) are
            // appended as fresh components after everything else.
            lo = k_old;
            hi_ex = k_old;
        }
        let w = hi_ex - lo;

        // ---- Rename pass ------------------------------------------------
        // Swap-removed rule ids in slices *outside* the window are patched
        // pointwise, in chronological order (window slices are regrouped
        // wholesale below, so stale entries there are simply discarded).
        for r in delta.renames {
            if r.head.index() >= old_n {
                // The moved rule was added in this same batch (its head is
                // a new atom): it was never indexed here, and the window
                // regroup below picks up its final id from the program.
                continue;
            }
            let c = self.comp_of[r.head.index()] as usize;
            if c >= lo && c < hi_ex {
                continue;
            }
            let (s, e) = (
                self.rule_offsets[c] as usize,
                self.rule_offsets[c + 1] as usize,
            );
            let slice = &mut self.rules[s..e];
            let pos = slice
                .iter()
                .position(|&x| x == r.from)
                .expect("renamed rule is indexed under its head's component");
            slice[pos] = r.to;
        }

        if w == 0 && new_n == old_n {
            return RepairStats::default(); // renames were the whole delta
        }

        // ---- Localized Tarjan over the window's atoms -------------------
        let a_lo = self.atom_offsets[lo] as usize;
        let a_hi = self.atom_offsets[hi_ex] as usize;
        let mut window_atoms: Vec<u32> = Vec::with_capacity(a_hi - a_lo + (new_n - old_n));
        window_atoms.extend_from_slice(&self.atoms[a_lo..a_hi]);
        window_atoms.extend(old_n as u32..new_n as u32);
        let nw = window_atoms.len();
        let mut local: FxHashMap<u32, u32> = FxHashMap::default();
        for (i, &a) in window_atoms.iter().enumerate() {
            local.insert(a, i as u32);
        }
        let mut offsets: Vec<u32> = Vec::with_capacity(nw + 1);
        offsets.push(0);
        let mut targets: Vec<u32> = Vec::new();
        let mut edges_visited = 0usize;
        for &a in &window_atoms {
            for &rid in prog.rules_with_head(AtomId(a)) {
                let r = prog.rule(rid);
                for &q in r.pos.iter().chain(r.neg.iter()) {
                    edges_visited += 1;
                    if let Some(&lq) = local.get(&q.0) {
                        targets.push(lq);
                    } else {
                        // A dependency that leaves the window can only go
                        // below it: old edges respect the old order, and
                        // both endpoints of every added edge are seeds.
                        debug_assert!(
                            (self.comp_of[q.index()] as usize) < lo,
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

        // Group the window's atoms by new component, ascending atom id
        // within each component (the invariant `Condensation::of`'s
        // counting sort establishes globally).
        let mut new_atom_offsets = vec![0u32; m + 1];
        for &lc in &local_comp {
            new_atom_offsets[lc as usize + 1] += 1;
        }
        for i in 0..m {
            new_atom_offsets[i + 1] += new_atom_offsets[i];
        }
        let mut sorted = window_atoms.clone();
        sorted.sort_unstable();
        let mut cursor = new_atom_offsets.clone();
        let mut grouped_atoms = vec![0u32; nw];
        for &a in &sorted {
            let lc = local_comp[local[&a] as usize] as usize;
            grouped_atoms[cursor[lc] as usize] = a;
            cursor[lc] += 1;
        }

        // Did the window hold a component of the current maximum size?
        // Only then can the maximum shrink, requiring a full fence
        // rescan below; otherwise `largest` is monotone under this
        // repair and a window-local max suffices. Read the old fences
        // before they are spliced.
        let window_held_largest = (lo..hi_ex)
            .any(|c| (self.atom_offsets[c + 1] - self.atom_offsets[c]) as usize == self.largest);

        // ---- Splice: comp_of --------------------------------------------
        let dcomp = m as i64 - w as i64;
        self.comp_of.resize(new_n, 0);
        if dcomp != 0 {
            // Suffix components shift uniformly; their relative order (and
            // hence every dependency constraint they participate in) is
            // preserved.
            for &a in &self.atoms[a_hi..] {
                self.comp_of[a as usize] = (self.comp_of[a as usize] as i64 + dcomp) as u32;
            }
        }
        for (i, &a) in window_atoms.iter().enumerate() {
            self.comp_of[a as usize] = lo as u32 + local_comp[i];
        }

        // ---- Splice: atom slices ----------------------------------------
        if m == w && nw == a_hi - a_lo {
            // Same component count, no new atoms: patch in place.
            self.atoms[a_lo..a_hi].copy_from_slice(&grouped_atoms);
            for i in 0..m {
                self.atom_offsets[lo + 1 + i] = a_lo as u32 + new_atom_offsets[i + 1];
            }
        } else {
            let mut atoms2 = Vec::with_capacity(new_n);
            atoms2.extend_from_slice(&self.atoms[..a_lo]);
            atoms2.extend_from_slice(&grouped_atoms);
            atoms2.extend_from_slice(&self.atoms[a_hi..]);
            self.atoms = atoms2;
            let grow = nw as i64 - (a_hi - a_lo) as i64;
            let mut off2 = Vec::with_capacity((k_old as i64 + dcomp) as usize + 1);
            off2.extend_from_slice(&self.atom_offsets[..=lo]);
            off2.extend(new_atom_offsets[1..].iter().map(|&o| a_lo as u32 + o));
            for &o in &self.atom_offsets[hi_ex + 1..] {
                off2.push((o as i64 + grow) as u32);
            }
            self.atom_offsets = off2;
        }

        // ---- Splice: rule slices ----------------------------------------
        // Membership changes are confined to window components (every
        // added or removed rule's head is touched), so the window's rule
        // slices are regrouped straight from the program's head index.
        let r_lo = self.rule_offsets[lo] as usize;
        let r_hi = self.rule_offsets[hi_ex] as usize;
        let mut grouped_rules: Vec<RuleId> = Vec::with_capacity(r_hi - r_lo);
        let mut new_rule_offsets = vec![0u32; m + 1];
        for c in 0..m {
            let range = new_atom_offsets[c] as usize..new_atom_offsets[c + 1] as usize;
            for &a in &grouped_atoms[range] {
                grouped_rules.extend_from_slice(prog.rules_with_head(AtomId(a)));
            }
            new_rule_offsets[c + 1] = grouped_rules.len() as u32;
        }
        if m == w && grouped_rules.len() == r_hi - r_lo {
            self.rules[r_lo..r_hi].copy_from_slice(&grouped_rules);
            for i in 0..m {
                self.rule_offsets[lo + 1 + i] = r_lo as u32 + new_rule_offsets[i + 1];
            }
        } else {
            let grow = grouped_rules.len() as i64 - (r_hi - r_lo) as i64;
            let mut rules2 = Vec::with_capacity((self.rules.len() as i64 + grow) as usize);
            rules2.extend_from_slice(&self.rules[..r_lo]);
            rules2.extend_from_slice(&grouped_rules);
            rules2.extend_from_slice(&self.rules[r_hi..]);
            self.rules = rules2;
            let mut off2 = Vec::with_capacity((k_old as i64 + dcomp) as usize + 1);
            off2.extend_from_slice(&self.rule_offsets[..=lo]);
            off2.extend(new_rule_offsets[1..].iter().map(|&o| r_lo as u32 + o));
            for &o in &self.rule_offsets[hi_ex + 1..] {
                off2.push((o as i64 + grow) as u32);
            }
            self.rule_offsets = off2;
        }
        debug_assert_eq!(self.rules.len(), prog.rule_count());
        debug_assert_eq!(self.atoms.len(), new_n);

        // ---- Largest component ------------------------------------------
        let window_max = (0..m)
            .map(|c| (new_atom_offsets[c + 1] - new_atom_offsets[c]) as usize)
            .max()
            .unwrap_or(0);
        if window_held_largest {
            // A split may have shrunk the maximum: rescan the (cheap,
            // fence-array-only) component sizes.
            let k_new = self.len();
            self.largest = (0..k_new)
                .map(|c| (self.atom_offsets[c + 1] - self.atom_offsets[c]) as usize)
                .max()
                .unwrap_or(0);
        } else {
            // Components outside the window are untouched, so the
            // maximum can only grow — by a merge inside the window.
            self.largest = self.largest.max(window_max);
        }

        RepairStats {
            atoms_visited: nw,
            edges_visited,
            components_replaced: w,
            components_recomputed: m,
        }
    }

    /// Do `self` and `other` describe the same condensation? The SCC
    /// *partition* of a graph is unique but component ids are an arbitrary
    /// topological labeling, so this compares the atom partition and the
    /// per-component rule **sets** — the notion of identity the
    /// differential suite holds [`Condensation::apply_delta`] to against
    /// a from-scratch [`Condensation::of`] (use
    /// [`Condensation::is_consistent_with`] for the order-validity half).
    pub fn same_decomposition(&self, other: &Condensation) -> bool {
        if self.comp_of.len() != other.comp_of.len()
            || self.len() != other.len()
            || self.rules.len() != other.rules.len()
        {
            return false;
        }
        for c in 0..self.len() {
            let atoms = self.atoms(c);
            let oc = other.comp_of[atoms[0] as usize] as usize;
            // Atom slices are ascending on both sides, so slice equality
            // is set equality; equal counts + disjointness make the
            // component mapping a bijection.
            if atoms != other.atoms(oc) {
                return false;
            }
            let mut r1: Vec<RuleId> = self.rules(c).to_vec();
            let mut r2: Vec<RuleId> = other.rules(oc).to_vec();
            r1.sort_unstable();
            r2.sort_unstable();
            if r1 != r2 {
                return false;
            }
        }
        true
    }

    /// Full structural audit against `prog`: sizes, slice/`comp_of`
    /// agreement, ascending atom slices, every rule indexed exactly once
    /// under its head's component, **topologically valid** component ids
    /// (no rule's body reaches a higher component than its head), and a
    /// correct `largest`. `O(|program|)` — this is the debug-mode check
    /// behind warm condensation repairs, not a hot-path operation.
    pub fn is_consistent_with(&self, prog: &GroundProgram) -> bool {
        let n = prog.atom_count();
        let k = self.len();
        if self.comp_of.len() != n
            || self.atoms.len() != n
            || self.rules.len() != prog.rule_count()
            || self.rule_offsets.len() != k + 1
        {
            return false;
        }
        let mut seen_rule = vec![false; prog.rule_count()];
        for c in 0..k {
            let atoms = self.atoms(c);
            if atoms.is_empty() || !atoms.windows(2).all(|p| p[0] < p[1]) {
                return false;
            }
            if atoms.iter().any(|&a| self.comp_of[a as usize] != c as u32) {
                return false;
            }
            for &rid in self.rules(c) {
                if seen_rule[rid as usize] || self.comp_of[prog.rule(rid).head.index()] != c as u32
                {
                    return false;
                }
                seen_rule[rid as usize] = true;
            }
        }
        for r in prog.rules() {
            let hc = self.comp_of[r.head.index()];
            if r.pos
                .iter()
                .chain(r.neg.iter())
                .any(|&q| self.comp_of[q.index()] > hc)
            {
                return false;
            }
        }
        let largest = (0..k).map(|c| self.atoms(c).len()).max().unwrap_or(0);
        self.largest == largest
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
/// * `renames` records every swap-remove rename
///   ([`GroundProgram::remove_rule`] moving the last rule into the freed
///   slot) in chronological order, each stamped with the moved rule's
///   head **at event time**;
/// * atoms interned since the last delta are exactly
///   `old_atom_count..prog.atom_count()` (dense append), and each of
///   them either has its rules' heads in `touched` or appears in
///   `new_edge_targets` or has no incident dependency edges at all.
#[derive(Debug, Clone, Copy)]
pub struct CondensationDelta<'a> {
    /// Heads whose rule set changed (rules added, removed, or patched).
    pub touched: &'a [AtomId],
    /// Body atoms of added rules and added (resurrected) body literals.
    pub new_edge_targets: &'a [AtomId],
    /// Swap-remove rule-id renames, in chronological order.
    pub renames: &'a [RuleRename],
}

/// A swap-remove rename of a ground rule id: the rule formerly at `from`
/// now lives at `to`. `head` is that rule's head **at event time** —
/// recorded eagerly because a later rename in the same batch may move
/// the slot again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuleRename {
    /// The rule's previous id (the last rule at removal time).
    pub from: RuleId,
    /// The slot it moved into.
    pub to: RuleId,
    /// The moved rule's head atom.
    pub head: AtomId,
}

/// What one [`Condensation::apply_delta`] call actually walked — the
/// evidence that a repair was delta-bounded rather than a hidden rebuild.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairStats {
    /// Atoms the localized Tarjan visited (the repair window).
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
    fn condensation_groups_atoms_and_rules() {
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
        // Dependency order: callees get smaller ids.
        assert!(c.component_of(p) < c.component_of(r));
        assert!(c.component_of(r) < c.component_of(s));
        // The knot's component holds both atoms and both 2-cycle rules.
        let knot = c.component_of(p) as usize;
        assert_eq!(c.atoms(knot), &[p.min(q), p.max(q)]);
        assert_eq!(c.rules(knot).len(), 2);
        // Every rule lands in exactly one component slice.
        let total: usize = (0..c.len()).map(|i| c.rules(i).len()).sum();
        assert_eq!(total, g.rule_count());
        let total_atoms: usize = (0..c.len()).map(|i| c.atoms(i).len()).sum();
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
        let mut renames: Vec<RuleRename> = Vec::new();
        g.remove_rule_logged(fact, &mut renames);
        let stats = c.apply_delta(
            &g,
            &CondensationDelta {
                touched: &[e],
                new_edge_targets: &[],
                renames: &renames,
            },
        );
        assert_repaired(&c, &g);
        assert!(stats.atoms_visited <= 1, "only e's singleton is rewalked");
        // …and assert it back.
        g.push_rule(e, vec![], vec![]);
        c.apply_delta(
            &g,
            &CondensationDelta {
                touched: &[e],
                new_edge_targets: &[],
                renames: &[],
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
                renames: &[],
            },
        );
        assert_repaired(&c, &g);
        assert_eq!(c.component_of(a.0), c.component_of(cc.0));
        assert_eq!(stats.components_replaced, 3, "the window is the chain");
        assert_eq!(stats.components_recomputed, 1, "merged into one knot");
        assert_eq!(c.largest(), 3);
        // Remove it again: the knot splits back into three singletons.
        let mut renames: Vec<RuleRename> = Vec::new();
        g.remove_rule_logged(rid, &mut renames);
        c.apply_delta(
            &g,
            &CondensationDelta {
                touched: &[a],
                new_edge_targets: &[],
                renames: &renames,
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
                renames: &[],
            },
        );
        assert_repaired(&c, &g);
        assert!(c.component_of(sa.0) > c.component_of(p.0));
        // A floating new atom with no rules at all becomes a singleton.
        let t = g.intern_symbol("t");
        let ta = g.intern_atom_ids(t, &[]);
        c.apply_delta(
            &g,
            &CondensationDelta {
                touched: &[],
                new_edge_targets: &[],
                renames: &[],
            },
        );
        assert_repaired(&c, &g);
        assert_eq!(c.atoms(c.component_of(ta.0) as usize), &[ta.0]);
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
