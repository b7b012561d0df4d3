//! Grounder benchmarks: relevance-based instantiation over the positive
//! envelope (see `afp-datalog::ground`). Measures envelope computation
//! and full grounding on tc/ntc and win–move workloads, and a cold
//! `IncrementalGrounder::new` over the `write_edb` EDB (the cost a
//! server's start and recovery pay per fact).

use afp_bench::gen::{self, Graph};
use afp_datalog::ground::{positive_envelope, GroundOptions};
use afp_datalog::{parse_program, IncrementalGrounder};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn grounding(c: &mut Criterion) {
    let mut group = c.benchmark_group("grounding/tc_ntc");
    for n in [20usize, 40] {
        let ast = gen::tc_ntc_ast(&Graph::random(n, 0.08, 3));
        group.bench_with_input(BenchmarkId::new("full", n), &ast, |b, ast| {
            b.iter(|| afp_datalog::ground(ast).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("envelope_only", n), &ast, |b, ast| {
            b.iter(|| positive_envelope(ast, &GroundOptions::default()).unwrap())
        });
    }
    group.finish();

    let mut group = c.benchmark_group("grounding/win_move");
    for n in [500usize, 2000] {
        let ast = gen::win_move_ast(&Graph::random_regular_out(n, 3, 17));
        group.bench_with_input(BenchmarkId::new("full", n), &ast, |b, ast| {
            b.iter(|| afp_datalog::ground(ast).unwrap())
        });
    }
    group.finish();

    let mut group = c.benchmark_group("grounding/edb_load");
    let keys = 10_000usize;
    let ast = parse_program(&gen::write_edb_src(keys)).unwrap();
    group.bench_with_input(BenchmarkId::new("write_edb", keys), &ast, |b, ast| {
        b.iter(|| IncrementalGrounder::new(ast, &GroundOptions::default()).unwrap())
    });
    group.finish();
}

criterion_group!(benches, grounding);
criterion_main!(benches);
