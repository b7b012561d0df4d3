//! Acceptance bench for the concurrent serving subsystem, in three parts:
//!
//! * `snapshot_*` — the primitive: cloning a solved ground program for a
//!   model snapshot, which is what `Session::snapshot` does (reference-
//!   count bumps, whatever the program's size).
//! * `mutate_solve_*` — the loop the CoW layout exists for: one fact
//!   toggle + warm re-solve per iteration, with a model snapshot taken
//!   each cycle.
//! * `read_scaling_*` — reader throughput on one pinned
//!   `afp::service::ModelSnapshot`: `t` threads each run a fixed block
//!   of truth probes against the same immutable version; per-iteration
//!   time divided into `t × QUERIES` gives aggregate queries/sec, which
//!   should grow with `t` (no lock on the read path).

use afp::Engine;
use afp_bench::gen::{hard_knot_chain_src, node_name, win_move_src, Graph};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::thread;

fn snapshot_cost(c: &mut Criterion) {
    let engine = Engine::default();
    for k in [64usize, 256] {
        let mut session = engine.load(&hard_knot_chain_src(k)).unwrap();
        session.solve().unwrap();
        let ground = session.ground().clone();
        let mut group = c.benchmark_group(format!("serve/snapshot_knot_{k}"));
        group.bench_function(BenchmarkId::new("cow", k), |b| {
            // What `Session::snapshot` costs: Arc bumps.
            b.iter(|| std::hint::black_box(ground.clone()))
        });
        group.finish();
    }
}

fn mutate_solve_loop(c: &mut Criterion) {
    let engine = Engine::default();
    for k in [64usize, 256] {
        let src = hard_knot_chain_src(k);
        let toggle = format!("e(k{}).", k / 2);
        let mut group = c.benchmark_group(format!("serve/mutate_solve_knot_{k}"));
        group.bench_function(BenchmarkId::new("cow", k), |b| {
            let mut session = engine.load(&src).unwrap();
            session.solve().unwrap();
            let mut present = true;
            b.iter(|| {
                if present {
                    session.retract_facts(&toggle).unwrap();
                } else {
                    session.assert_facts(&toggle).unwrap();
                }
                present = !present;
                // The solve takes the (CoW) model snapshot internally.
                session.solve().unwrap()
            })
        });
        group.finish();
    }
}

const QUERIES: usize = 20_000;

fn read_scaling(c: &mut Criterion) {
    let g = Graph::random_regular_out(256, 3, 42);
    let service = Engine::default().serve(&win_move_src(&g)).unwrap();
    let snapshot = service.snapshot();
    let nodes: Vec<String> = (0..256u32).map(node_name).collect();
    let mut group = c.benchmark_group("serve/read_scaling_win_move_256");
    group.sample_size(10);
    for t in [1usize, 2, 4, 8] {
        group.bench_function(BenchmarkId::new("threads", t), |b| {
            b.iter(|| {
                thread::scope(|s| {
                    for worker in 0..t {
                        let snapshot = &snapshot;
                        let nodes = &nodes;
                        s.spawn(move || {
                            let mut trues = 0usize;
                            for i in 0..QUERIES {
                                let node = &nodes[(worker * 7919 + i) % nodes.len()];
                                if snapshot.truth("wins", &[node]) == afp::Truth::True {
                                    trues += 1;
                                }
                            }
                            std::hint::black_box(trues)
                        });
                    }
                });
            })
        });
    }
    group.finish();
}

criterion_group!(benches, snapshot_cost, mutate_solve_loop, read_scaling);
criterion_main!(benches);
