//! Incremental condensation maintenance versus full rebuild — the
//! acceptance bench for `Condensation::apply_delta`.
//!
//! Three groups per chain size `k`:
//!
//! * `rebuild` / `repair_toggle` — the **condensation step alone**: one
//!   `Condensation::of` over the whole ground program, versus one fact
//!   toggle (remove + re-add the leaf fact rule) with `apply_delta`
//!   after each mutation. The repair walks the delta's window (a couple
//!   of atoms on this workload) however long the chain, so the gap
//!   widens with `k`.
//! * `warm_toggle` / `warm_toggle_rebuild` — **end to end**: a session's
//!   retract → solve → assert → solve cycle on the repair path, versus
//!   the same cycle with a from-scratch `Condensation::of` added per
//!   solve, emulating the pre-repair warm path (which rebuilt the
//!   condensation on the first solve after every mutation).
//!
//! Those toggles only ever touch atoms that exist, so the component
//! count never changes. One more group per key count covers the repair
//! that creates components:
//!
//! * `intern/assert_new_key` — on the `write_edb` program shape
//!   ([`afp_bench::gen::write_edb_src`]), assert `d(kI)` for a fresh odd
//!   key and solve. The assert interns `c(kI)` and `d(kI)` below the
//!   existing knot `{a(kI), b(kI)}`, so the repair turns one component
//!   into three.
//!
//! After the timed loops the bench prints the session's repair window
//! as a fraction of the program, and for `intern` the median repair
//! wall time from `Session::take_phases` — the delta-boundedness
//! evidence recorded in `BENCH_cond.json`.

use afp::datalog::depgraph::{Condensation, CondensationDelta};
use afp::Engine;
use afp_bench::gen::{hard_knot_chain_src, write_edb_src};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn condensation_step(c: &mut Criterion) {
    for k in [64usize, 256, 1024] {
        let engine = Engine::default();
        let mut session = engine.load(&hard_knot_chain_src(k)).unwrap();
        session.solve().unwrap();
        let mut prog = session.ground().clone();
        let mut group = c.benchmark_group(format!("cond/step_{k}"));

        group.bench_function(BenchmarkId::new("rebuild", k), |b| {
            b.iter(|| Condensation::of(&prog))
        });

        // The 1-fact delta: toggle the leaf fact rule e(k{k-1}) off and
        // back on, repairing after each mutation.
        let leaf = prog
            .find_atom_by_name("e", &[&format!("k{}", k - 1)])
            .unwrap();
        let mut cond = Condensation::of(&prog);
        group.bench_function(BenchmarkId::new("repair_toggle", k), |b| {
            b.iter(|| {
                let rid = *prog
                    .rules_with_head(leaf)
                    .iter()
                    .find(|&&r| prog.rule(r).is_fact())
                    .unwrap();
                prog.remove_rule(rid);
                cond.apply_delta(
                    &prog,
                    &CondensationDelta {
                        touched: &[leaf],
                        new_edge_targets: &[],
                    },
                );
                prog.push_rule(leaf, vec![], vec![]);
                cond.apply_delta(
                    &prog,
                    &CondensationDelta {
                        touched: &[leaf],
                        new_edge_targets: &[],
                    },
                );
            })
        });
        group.finish();
        assert!(
            cond.is_consistent_with(&prog),
            "the repaired condensation stayed exact across the timed loop"
        );
    }
}

fn warm_solve_one_fact_delta(c: &mut Criterion) {
    for k in [64usize, 256, 1024] {
        let src = hard_knot_chain_src(k);
        let fact = format!("e(k{}).", k - 1);
        let mut group = c.benchmark_group(format!("cond/warm_1fact_{k}"));

        let engine = Engine::default();
        let mut session = engine.load(&src).unwrap();
        session.solve().unwrap();
        group.bench_function(BenchmarkId::new("warm_toggle", k), |b| {
            b.iter(|| {
                session.retract_facts(&fact).unwrap();
                session.solve().unwrap();
                session.assert_facts(&fact).unwrap();
                session.solve().unwrap()
            })
        });
        let stats = *session.stats();
        let atoms = session.ground().atom_count();

        // Pre-repair emulation: the old warm path dropped the memoized
        // condensation on every mutation and rebuilt it (linear) on the
        // next solve — add that rebuild back per solve.
        let mut session2 = engine.load(&src).unwrap();
        session2.solve().unwrap();
        group.bench_function(BenchmarkId::new("warm_toggle_rebuild", k), |b| {
            b.iter(|| {
                session2.retract_facts(&fact).unwrap();
                std::hint::black_box(Condensation::of(session2.ground()));
                session2.solve().unwrap();
                session2.assert_facts(&fact).unwrap();
                std::hint::black_box(Condensation::of(session2.ground()));
                session2.solve().unwrap()
            })
        });
        group.finish();

        assert_eq!(stats.condensation_builds, 1, "repairs, never rebuilds");
        println!(
            "cond/warm_1fact_{k}: repair window {} of {} atoms ({:.2}%), \
             {} repairs, components reused {}/{}",
            stats.last_repair_atoms,
            atoms,
            100.0 * stats.last_repair_atoms as f64 / atoms as f64,
            stats.condensation_repairs,
            stats.last_components_reused,
            stats.last_components,
        );
    }
}

fn assert_new_key(c: &mut Criterion) {
    for keys in [1_000usize, 10_000, 100_000] {
        let engine = Engine::default();
        let mut session = engine.load(&write_edb_src(keys)).unwrap();
        session.solve().unwrap();
        let mut group = c.benchmark_group(format!("cond/intern_{keys}"));
        let mut odd = (1..keys).step_by(2);
        let mut repair_us: Vec<f64> = Vec::new();
        group.bench_function(BenchmarkId::new("assert_new_key", keys), |b| {
            b.iter(|| {
                let key = odd.next().expect("a fresh odd key per iteration");
                let _ = session.take_phases();
                session.assert_facts(&format!("d(k{key}).")).unwrap();
                repair_us.push(session.take_phases().repair_ns as f64 / 1e3);
                session.solve().unwrap()
            })
        });
        group.finish();
        repair_us.sort_by(f64::total_cmp);
        let stats = session.stats();
        println!(
            "cond/intern_{keys}: repair p50 {:.1} us over {} asserts, last repair wrote {} of {} atoms, \
             {} of {} components evaluated",
            repair_us[repair_us.len() / 2],
            repair_us.len(),
            stats.last_repair_atoms,
            session.ground().atom_count(),
            stats.last_components_evaluated,
            stats.last_components,
        );
    }
}

criterion_group!(
    benches,
    condensation_step,
    warm_solve_one_fact_delta,
    assert_new_key
);
criterion_main!(benches);
