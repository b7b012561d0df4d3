//! Workload generators for the experiment harness and benches.
//!
//! Everything is deterministic under a caller-supplied seed (ChaCha8), so
//! benchmark numbers and property-test failures are reproducible.

use afp_datalog::ast::Program;
use afp_datalog::program::{GroundProgram, GroundProgramBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A directed graph as an edge list over nodes `0..n`.
#[derive(Debug, Clone)]
pub struct Graph {
    /// Number of nodes.
    pub n: usize,
    /// Directed edges.
    pub edges: Vec<(u32, u32)>,
}

impl Graph {
    /// The path `0 → 1 → … → n-1`.
    pub fn path(n: usize) -> Graph {
        Graph {
            n,
            edges: (0..n.saturating_sub(1) as u32)
                .map(|i| (i, i + 1))
                .collect(),
        }
    }

    /// The cycle `0 → 1 → … → n-1 → 0`.
    pub fn cycle(n: usize) -> Graph {
        let mut g = Graph::path(n);
        if n > 0 {
            g.edges.push((n as u32 - 1, 0));
        }
        g
    }

    /// Erdős–Rényi digraph: each ordered pair (u ≠ v) is an edge with
    /// probability `p`.
    pub fn random(n: usize, p: f64, seed: u64) -> Graph {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut edges = Vec::new();
        for u in 0..n as u32 {
            for v in 0..n as u32 {
                if u != v && rng.gen_bool(p) {
                    edges.push((u, v));
                }
            }
        }
        Graph { n, edges }
    }

    /// Random DAG: edges only from lower to higher node ids.
    pub fn random_dag(n: usize, p: f64, seed: u64) -> Graph {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut edges = Vec::new();
        for u in 0..n as u32 {
            for v in (u + 1)..n as u32 {
                if rng.gen_bool(p) {
                    edges.push((u, v));
                }
            }
        }
        Graph { n, edges }
    }

    /// Out-degree-bounded random graph: every node gets exactly `d`
    /// random successors (possibly repeated targets collapse).
    pub fn random_regular_out(n: usize, d: usize, seed: u64) -> Graph {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut edges = Vec::new();
        for u in 0..n as u32 {
            for _ in 0..d {
                let v = rng.gen_range(0..n as u32);
                if v != u {
                    edges.push((u, v));
                }
            }
        }
        edges.sort_unstable();
        edges.dedup();
        Graph { n, edges }
    }
}

/// Node display name: `n0`, `n1`, ….
pub fn node_name(i: u32) -> String {
    format!("n{i}")
}

/// The win–move game (Example 5.2) as a **ground** program with the move
/// relation compiled away: one rule `w(x) :- not w(y)` per edge, plus a
/// `w` atom for every node (losers with no rules are interned via a
/// self-contained trick: every node's atom appears in some rule of the
/// graph, or is added as an isolated atom through a vacuous rule-free
/// intern).
pub fn win_move_ground(g: &Graph) -> GroundProgram {
    let mut b = GroundProgramBuilder::new();
    // Intern every node's atom first so the Herbrand base covers sinks.
    let atoms: Vec<_> = (0..g.n as u32)
        .map(|i| b.atom("w", &[node_name(i).as_str()]))
        .collect();
    for &(u, v) in &g.edges {
        b.rule(atoms[u as usize], vec![], vec![atoms[v as usize]]);
    }
    b.finish()
}

/// The win–move game as source text: `wins(X) :- move(X, Y), not
/// wins(Y).` over one `move` fact per edge.
pub fn win_move_src(g: &Graph) -> String {
    let mut src = String::from("wins(X) :- move(X, Y), not wins(Y).\n");
    for &(u, v) in &g.edges {
        src.push_str(&format!("move({}, {}).\n", node_name(u), node_name(v)));
    }
    src
}

/// The win–move game as a non-ground program with an EDB `move` relation —
/// exercises the grounder.
pub fn win_move_ast(g: &Graph) -> Program {
    afp_datalog::parser::parse_program(&win_move_src(g)).expect("generated source parses")
}

/// Up to `count` distinct non-edges `(u, v)` of `g`, drawn under `seed`,
/// whose `wins` atoms both lie in the largest component of `prog`, the
/// grounding of [`win_move_src`]: asserting `move(u, v)` for the first
/// time adds a rule whose `wins` edge stays inside that component.
pub fn giant_component_non_edges(
    g: &Graph,
    prog: &GroundProgram,
    count: usize,
    seed: u64,
) -> Vec<(u32, u32)> {
    let cond = afp_datalog::depgraph::Condensation::of(prog);
    let in_giant = |i: u32| {
        prog.find_atom_by_name("wins", &[&node_name(i)])
            .is_some_and(|a| cond.component_size(cond.component_of(a.0)) == cond.largest())
    };
    let edges: std::collections::HashSet<(u32, u32)> = g.edges.iter().copied().collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    for _ in 0..count * 1000 {
        if out.len() == count {
            break;
        }
        let (u, v) = (rng.gen_range(0..g.n as u32), rng.gen_range(0..g.n as u32));
        if u != v
            && !edges.contains(&(u, v))
            && !out.contains(&(u, v))
            && in_giant(u)
            && in_giant(v)
        {
            out.push((u, v));
        }
    }
    out
}

/// Transitive closure and its complement (Example 2.2), guarded by a
/// `node` relation for safety:
///
/// ```text
/// tc(X,Y) :- e(X,Y).
/// tc(X,Y) :- e(X,Z), tc(Z,Y).
/// ntc(X,Y) :- node(X), node(Y), not tc(X,Y).
/// ```
pub fn tc_ntc_ast(g: &Graph) -> Program {
    let mut src = String::from(
        "tc(X, Y) :- e(X, Y).\n\
         tc(X, Y) :- e(X, Z), tc(Z, Y).\n\
         ntc(X, Y) :- node(X), node(Y), not tc(X, Y).\n",
    );
    for i in 0..g.n as u32 {
        src.push_str(&format!("node({}).\n", node_name(i)));
    }
    for &(u, v) in &g.edges {
        src.push_str(&format!("e({}, {}).\n", node_name(u), node_name(v)));
    }
    afp_datalog::parser::parse_program(&src).expect("generated source parses")
}

/// A random ground normal program: `n_atoms` propositions, `n_rules` rules
/// with geometric-ish body sizes and the given probability that a body
/// literal is negative.
pub fn random_ground_program(
    n_atoms: usize,
    n_rules: usize,
    neg_prob: f64,
    seed: u64,
) -> GroundProgram {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GroundProgramBuilder::new();
    let atoms: Vec<_> = (0..n_atoms).map(|i| b.prop(&format!("a{i}"))).collect();
    for _ in 0..n_rules {
        let head = atoms[rng.gen_range(0..n_atoms)];
        let body_len = {
            // Geometric with mean ≈ 2, capped at 4.
            let mut k = 0;
            while k < 4 && rng.gen_bool(0.55) {
                k += 1;
            }
            k
        };
        let mut pos = Vec::new();
        let mut neg = Vec::new();
        for _ in 0..body_len {
            let a = atoms[rng.gen_range(0..n_atoms)];
            if rng.gen_bool(neg_prob) {
                neg.push(a);
            } else {
                pos.push(a);
            }
        }
        b.rule(head, pos, neg);
    }
    b.finish()
}

/// A random 3-CNF formula reduced to a normal program whose stable models
/// are exactly the satisfying assignments (the classic NP-hardness
/// construction behind Elkan's result cited in Section 2.4):
///
/// * per variable `v`: `v :- not nv.  nv :- not v.` (choice);
/// * per clause `c`: `satc :- lᵢ.` for each literal, and the constraint
///   `badc :- not satc, not badc.` which admits no stable model unless the
///   clause is satisfied.
pub fn sat_to_stable(n_vars: usize, clauses: &[[i32; 3]]) -> GroundProgram {
    let mut b = GroundProgramBuilder::new();
    let pos_atoms: Vec<_> = (1..=n_vars).map(|v| b.prop(&format!("v{v}"))).collect();
    let neg_atoms: Vec<_> = (1..=n_vars).map(|v| b.prop(&format!("nv{v}"))).collect();
    for v in 0..n_vars {
        b.rule(pos_atoms[v], vec![], vec![neg_atoms[v]]);
        b.rule(neg_atoms[v], vec![], vec![pos_atoms[v]]);
    }
    for (ci, clause) in clauses.iter().enumerate() {
        let sat = b.prop(&format!("sat{ci}"));
        for &lit in clause {
            debug_assert!(lit != 0);
            let atom = if lit > 0 {
                pos_atoms[(lit - 1) as usize]
            } else {
                neg_atoms[(-lit - 1) as usize]
            };
            b.rule(sat, vec![atom], vec![]);
        }
        let bad = b.prop(&format!("bad{ci}"));
        b.rule(bad, vec![], vec![sat, bad]);
    }
    b.finish()
}

/// Random 3-SAT instance (clauses of 3 distinct variables, random signs).
pub fn random_3sat(n_vars: usize, n_clauses: usize, seed: u64) -> Vec<[i32; 3]> {
    assert!(n_vars >= 3);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut clauses = Vec::with_capacity(n_clauses);
    for _ in 0..n_clauses {
        let mut vars = Vec::new();
        while vars.len() < 3 {
            let v = rng.gen_range(1..=n_vars as i32);
            if !vars.contains(&v) {
                vars.push(v);
            }
        }
        let mut c = [0i32; 3];
        for (i, v) in vars.into_iter().enumerate() {
            c[i] = if rng.gen_bool(0.5) { v } else { -v };
        }
        clauses.push(c);
    }
    clauses
}

/// The three game graphs of Figure 4 (Example 5.2).
pub mod fig4 {
    use afp_datalog::program::{GroundProgram, GroundProgramBuilder};

    fn build(nodes: &[&str], edges: &[(&str, &str)]) -> GroundProgram {
        let mut b = GroundProgramBuilder::new();
        let atoms: Vec<_> = nodes.iter().map(|n| b.atom("w", &[n])).collect();
        let ix = |n: &str| nodes.iter().position(|&m| m == n).unwrap();
        for &(u, v) in edges {
            b.rule(atoms[ix(u)], vec![], vec![atoms[ix(v)]]);
        }
        b.finish()
    }

    /// Part (a): acyclic; sinks {c,d,f,h,i}; winners {b,e,g}; `a` loses
    /// because all of its moves reach winners. Total AFP model.
    pub fn part_a() -> GroundProgram {
        build(
            &["a", "b", "c", "d", "e", "f", "g", "h", "i"],
            &[
                ("a", "b"),
                ("a", "e"),
                ("a", "g"),
                ("b", "c"),
                ("b", "d"),
                ("e", "f"),
                ("g", "h"),
                ("g", "i"),
            ],
        )
    }

    /// Part (b): the 2-cycle a ⇄ b with a tail b → c → d. Partial model:
    /// `{w(c), ¬w(d)}`; a, b stay undefined.
    pub fn part_b() -> GroundProgram {
        build(
            &["a", "b", "c", "d"],
            &[("a", "b"), ("b", "a"), ("b", "c"), ("c", "d")],
        )
    }

    /// Part (c): the 2-cycle a ⇄ b with b → c. Total model despite the
    /// cycle: `{w(b), ¬w(a), ¬w(c)}`.
    pub fn part_c() -> GroundProgram {
        build(&["a", "b", "c"], &[("a", "b"), ("b", "a"), ("b", "c")])
    }
}

/// The nine-atom program of Example 5.1 / Table I.
pub fn example_5_1() -> GroundProgram {
    afp_datalog::program::parse_ground(
        "p(a) :- p(c), not p(b).
         p(b) :- not p(a).
         p(c).
         p(d) :- p(e), not p(f).
         p(d) :- p(f), not p(g).
         p(d) :- p(h).
         p(e) :- p(d).
         p(f) :- p(e).
         p(f) :- not p(c).
         p(i) :- p(c), not p(d).",
    )
}

/// A "chain of knots": `k` independent 2-cycles (`aᵢ ← ¬bᵢ; bᵢ ← ¬aᵢ`)
/// linked by decided atoms — many small strongly connected components.
/// The worst case for the *global* alternating fixpoint's iteration count
/// stays trivial here, but the instance exercises component-wise
/// evaluation (`afp-semantics::modular`): cost should scale with the sum
/// of knot sizes, not globally.
pub fn knot_chain(k: usize) -> GroundProgram {
    let mut b = GroundProgramBuilder::new();
    let mut prev_link = None;
    for i in 0..k {
        let a = b.prop(&format!("a{i}"));
        let bb = b.prop(&format!("b{i}"));
        b.rule(a, vec![], vec![bb]);
        b.rule(bb, vec![], vec![a]);
        let link = b.prop(&format!("link{i}"));
        match prev_link {
            None => {
                b.fact(link);
            }
            Some(p) => {
                b.rule(link, vec![p], vec![]);
            }
        }
        prev_link = Some(link);
    }
    b.finish()
}

/// A **coupled** chain of knots: `k` two-atom negative cycles where each
/// knot is broken by the *previous* knot's outcome:
///
/// ```text
/// a₀ :- not b₀.          aᵢ :- not bᵢ.
/// b₀ :- not a₀, not p₋.  bᵢ :- not aᵢ, not pᵢ₋₁.   (p₋ a fact)
/// p₀ :- a₀.              pᵢ :- aᵢ.
/// ```
///
/// Every knot is decided (`pᵢ₋₁` true kills `bᵢ`, so `aᵢ` wins), but the
/// *global* alternating fixpoint can only decide one knot per round —
/// alternation depth `Θ(k)`, total cost `Θ(k²)`. Component-wise
/// evaluation decides each knot in `O(1)` rounds over `O(1)` rules:
/// total `Θ(k)`. This is the separating workload for the SCC-stratified
/// strategy.
pub fn hard_knot_chain(k: usize) -> GroundProgram {
    let mut b = GroundProgramBuilder::new();
    let boot = b.prop("p_start");
    b.fact(boot);
    let mut prev = boot;
    for i in 0..k {
        let a = b.prop(&format!("a{i}"));
        let bb = b.prop(&format!("b{i}"));
        let p = b.prop(&format!("p{i}"));
        b.rule(a, vec![], vec![bb]);
        b.rule(bb, vec![], vec![a, prev]);
        b.rule(p, vec![a], vec![]);
        prev = p;
    }
    b.finish()
}

/// [`hard_knot_chain`] as a non-ground program with the bootstrap fact as
/// an EDB relation, for session/update workloads: retracting or
/// re-asserting `e(kᵢ)` dirties only knot `i`'s forward cone.
///
/// ```text
/// a(K) :- e(K), not b(K).     b(K) :- e(K), not a(K), not pprev(K).
/// p(K) :- a(K).               pprev(K) :- link(J, K), p(J).
/// pprev(k0).
/// ```
pub fn hard_knot_chain_src(k: usize) -> String {
    let mut src = String::from(
        "a(K) :- e(K), not b(K).\n\
         b(K) :- e(K), not a(K), not pprev(K).\n\
         p(K) :- a(K).\n\
         pprev(K) :- link(J, K), p(J).\n\
         pprev(k0).\n",
    );
    for i in 0..k {
        src.push_str(&format!("e(k{i}).\n"));
        if i + 1 < k {
            src.push_str(&format!("link(k{i}, k{}).\n", i + 1));
        }
    }
    src
}

/// The knot forest of the `write_edb` wire workload over `keys` keys:
/// `e(kI)` for every key, `d(kI)` for even `I`, and per key the knot
/// `{a(kI), b(kI)}` guarded by `c(kI)`.
///
/// ```text
/// a(K) :- e(K), not b(K).     b(K) :- e(K), not a(K), not c(K).
/// c(K) :- d(K).
/// ```
///
/// Asserting `d(kI)` for an odd `I` the first time interns `c(kI)` and
/// `d(kI)` below an existing knot: a one-knot write whose condensation
/// repair creates components.
pub fn write_edb_src(keys: usize) -> String {
    let mut src =
        String::from("a(K) :- e(K), not b(K).\nb(K) :- e(K), not a(K), not c(K).\nc(K) :- d(K).\n");
    for i in 0..keys {
        src.push_str(&format!("e(k{i}).\n"));
        if i % 2 == 0 {
            src.push_str(&format!("d(k{i}).\n"));
        }
    }
    src
}

/// A "negation ladder" of depth `k`: `p₀` is a fact and each
/// `pᵢ₊₁ ← ¬pᵢ` alternates — a long chain of singleton components with
/// negative links; stratified, decided all the way up.
pub fn negation_ladder(k: usize) -> GroundProgram {
    let mut b = GroundProgramBuilder::new();
    let mut prev = b.prop("p0");
    b.fact(prev);
    for i in 1..=k {
        let p = b.prop(&format!("p{i}"));
        b.rule(p, vec![], vec![prev]);
        prev = p;
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph_shapes() {
        let p = Graph::path(5);
        assert_eq!(p.edges.len(), 4);
        let c = Graph::cycle(5);
        assert_eq!(c.edges.len(), 5);
        let d = Graph::random_dag(10, 0.3, 7);
        assert!(d.edges.iter().all(|&(u, v)| u < v));
    }

    #[test]
    fn generators_are_deterministic() {
        let a = Graph::random(20, 0.2, 42);
        let b = Graph::random(20, 0.2, 42);
        assert_eq!(a.edges, b.edges);
        let c = Graph::random(20, 0.2, 43);
        assert_ne!(a.edges, c.edges);
    }

    #[test]
    fn win_move_ground_covers_sinks() {
        let g = Graph::path(3);
        let p = win_move_ground(&g);
        assert_eq!(p.atom_count(), 3, "sink n2 must be in the base");
        assert_eq!(p.rule_count(), 2);
    }

    #[test]
    fn sat_reduction_counts_models() {
        // (x1 ∨ x2 ∨ x3): 7 of 8 assignments satisfy.
        let prog = sat_to_stable(3, &[[1, 2, 3]]);
        let models = afp_semantics::stable::stable_models(&prog);
        assert_eq!(models.len(), 7);
        let prog2 = sat_to_stable(3, &[[1, 1, 1], [-1, -1, -1]]);
        assert!(afp_semantics::stable::stable_models(&prog2).is_empty());
    }

    #[test]
    fn random_ground_program_is_reproducible() {
        let a = random_ground_program(20, 40, 0.4, 9);
        let b = random_ground_program(20, 40, 0.4, 9);
        assert_eq!(a.rule_count(), b.rule_count());
        for (x, y) in a.rules().zip(b.rules()) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn tc_ntc_parses_and_grounds() {
        let ast = tc_ntc_ast(&Graph::path(3));
        let g = afp_datalog::ground(&ast).unwrap();
        assert!(g.rule_count() > 0);
    }

    #[test]
    fn knot_chain_has_many_small_components() {
        let g = knot_chain(5);
        assert_eq!(g.atom_count(), 15);
        let r = afp_semantics::modular_wfs(&g);
        assert!(r.components >= 10);
        assert!(r.largest_component <= 2);
    }

    #[test]
    fn hard_knot_chain_is_total_and_separating() {
        let g = hard_knot_chain(8);
        let global = afp_core::alternating_fixpoint(&g);
        assert!(global.is_total, "every knot is decided by its predecessor");
        let modular = afp_semantics::modular_wfs(&g);
        assert_eq!(modular.model, global.model);
        // One knot decided per global round: alternation depth Θ(k).
        assert!(
            global.iterations >= 8,
            "global alternation must walk the chain ({} rounds)",
            global.iterations
        );
        assert!(modular.largest_component <= 2);
        // Winners all the way up.
        for i in 0..8 {
            let a = g.find_atom_by_name(&format!("a{i}"), &[]).unwrap();
            assert!(global.model.pos.contains(a.0));
        }
    }

    #[test]
    fn hard_knot_chain_src_matches_ground_shape() {
        let src = hard_knot_chain_src(6);
        let ast = afp_datalog::parser::parse_program(&src).unwrap();
        let g = afp_datalog::ground(&ast).unwrap();
        let r = afp_core::alternating_fixpoint(&g);
        assert!(r.is_total);
        for i in 0..6 {
            let a = g.find_atom_by_name("a", &[&format!("k{i}")]).unwrap();
            assert!(r.model.pos.contains(a.0), "a(k{i}) wins");
        }
    }

    #[test]
    fn negation_ladder_is_total_and_alternating() {
        let g = negation_ladder(6);
        let r = afp_core::alternating_fixpoint(&g);
        assert!(r.is_total);
        // p0 true, p1 false, p2 true, …
        let p0 = g.find_atom_by_name("p0", &[]).unwrap();
        let p1 = g.find_atom_by_name("p1", &[]).unwrap();
        let p2 = g.find_atom_by_name("p2", &[]).unwrap();
        assert!(r.model.pos.contains(p0.0));
        assert!(r.model.neg.contains(p1.0));
        assert!(r.model.pos.contains(p2.0));
    }
}
