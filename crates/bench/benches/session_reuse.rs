//! Warm `Session` reuse versus cold solve-from-text: the acceptance bench
//! for the `Engine`/`Session` API. The cold path re-parses, re-grounds
//! (envelope fixpoint + instantiation joins) and solves from scratch on
//! every fact update; the warm path extends the existing grounding with
//! the delta and re-solves only what the delta touched — per strongly
//! connected component under the default SCC-stratified strategy.
//!
//! Three groups:
//!
//! * `win_move_path_*` — the original warm-vs-cold single-fact loop;
//! * `leaf_update_*` / `mid_update_*` — update a knot of a chain of
//!   knots: the per-SCC warm path re-evaluates only the knot's forward
//!   dependency cone and copies every other component;
//! * `batched_asserts_*` — assert N facts in one call (one envelope
//!   delta round) versus N calls (N rounds).

use afp::Engine;
use afp_bench::gen::{hard_knot_chain_src, node_name, win_move_src, Graph};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn session_reuse(c: &mut Criterion) {
    let engine = Engine::default();
    for n in [64usize, 256] {
        let g = Graph::path(n);
        let src = win_move_src(&g);
        // The update: one extra edge hanging off the end of the path.
        let new_fact = format!("move({}, x).", node_name(n as u32 - 1));
        let cold_src = format!("{src}{new_fact}\n");

        let mut group = c.benchmark_group(format!("session_reuse/win_move_path_{n}"));
        group.bench_with_input(BenchmarkId::new("cold_text", n), &cold_src, |b, src| {
            // Parse + ground + solve, every time.
            b.iter(|| engine.solve(src).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("warm_session", n), &src, |b, src| {
            let mut session = engine.load(src).unwrap();
            session.solve().unwrap();
            b.iter(|| {
                // Assert + warm re-solve + retract, keeping the session's
                // grounding and conclusions alive across iterations.
                session.assert_facts(&new_fact).unwrap();
                let model = session.solve().unwrap();
                session.retract_facts(&new_fact).unwrap();
                model
            })
        });
        group.finish();
    }
}

fn knot_update(c: &mut Criterion) {
    for k in [64usize, 256] {
        let src = hard_knot_chain_src(k);
        // A leaf update dirties one knot; a mid-chain update dirties the
        // upper half of the chain, and the per-SCC path pays one small
        // alternating fixpoint per affected knot.
        for (site, fact) in [
            ("leaf", format!("e(k{}).", k - 1)),
            ("mid", format!("e(k{}).", k / 2)),
        ] {
            let mut group = c.benchmark_group(format!("session_reuse/{site}_update_{k}"));
            let mut session = Engine::default().load(&src).unwrap();
            session.solve().unwrap();
            group.bench_function(BenchmarkId::new("scc_warm", k), |b| {
                b.iter(|| {
                    session.retract_facts(&fact).unwrap();
                    session.solve().unwrap();
                    session.assert_facts(&fact).unwrap();
                    session.solve().unwrap()
                })
            });
            group.finish();
        }
    }
}

fn batched_asserts(c: &mut Criterion) {
    let engine = Engine::default();
    for n in [16usize, 64] {
        let g = Graph::path(128);
        let src = win_move_src(&g);
        let facts: Vec<String> = (0..n).map(|i| format!("move(n127, x{i}).")).collect();
        let batch = facts.concat();
        let mut group = c.benchmark_group(format!("session_reuse/batched_asserts_{n}"));
        group.bench_function(BenchmarkId::new("one_call", n), |b| {
            let mut session = engine.load(&src).unwrap();
            session.solve().unwrap();
            b.iter(|| {
                // One grounder delta round for the whole batch…
                session.assert_facts(&batch).unwrap();
                let model = session.solve().unwrap();
                session.retract_facts(&batch).unwrap();
                model
            })
        });
        group.bench_function(BenchmarkId::new("n_calls", n), |b| {
            let mut session = engine.load(&src).unwrap();
            session.solve().unwrap();
            b.iter(|| {
                // …versus one round per fact.
                for f in &facts {
                    session.assert_facts(f).unwrap();
                }
                let model = session.solve().unwrap();
                session.retract_facts(&batch).unwrap();
                model
            })
        });
        group.finish();
    }
}

criterion_group!(benches, session_reuse, knot_update, batched_asserts);
criterion_main!(benches);
