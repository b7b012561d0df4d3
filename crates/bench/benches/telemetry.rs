//! Acceptance bench for the telemetry tier: what does observing a
//! write cycle cost?
//!
//! * `write_cycle/*` — the service's mutate→publish loop (one fact
//!   toggle per iteration through `Service::retract_facts` /
//!   `assert_facts`, i.e. two full write cycles) with telemetry
//!   disabled, enabled (the default: histograms + recent-cycle ring),
//!   and enabled with a live `--trace` stream to a file. Disabled must
//!   be indistinguishable from the same toggle on a bare `Session`
//!   (a warm re-solve of one knot's forward cone); enabled and tracing
//!   are the budget for always-on observability.
//! * `record/*` — the primitives in isolation: one `record_cycle`
//!   against a disabled handle (a single branch) and an enabled one
//!   (8 histogram records + the cycle counter + the ring push).
//!
//! On the 1-core CI runner these are indicative medians from the
//! criterion shim, not statistics — see vendor/README.md.

use afp::{Engine, PhaseBreakdown, Service, Telemetry, TraceSink};
use afp_bench::gen::hard_knot_chain_src;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

const KNOTS: usize = 64;

fn serve(src: &str) -> Service {
    Service::new(Engine::default().load(src).unwrap()).unwrap()
}

fn write_cycle(c: &mut Criterion) {
    let src = hard_knot_chain_src(KNOTS);
    let toggle = format!("e(k{}).", KNOTS / 2);
    let trace_path = std::env::temp_dir().join(format!("afp-bench-trace-{}", std::process::id()));

    let mut group = c.benchmark_group("telemetry/write_cycle");
    for mode in ["disabled", "enabled", "enabled_trace"] {
        group.bench_with_input(BenchmarkId::new("mode", mode), &src, |b, src| {
            let service = serve(src);
            service.set_telemetry(match mode {
                "disabled" => Telemetry::disabled(),
                "enabled" => Telemetry::new(),
                _ => Telemetry::configured(
                    Default::default(),
                    Some(TraceSink::create(&trace_path).unwrap()),
                    None,
                ),
            });
            b.iter(|| {
                service.retract_facts(&toggle).unwrap();
                service.assert_facts(&toggle).unwrap()
            })
        });
    }
    group.finish();
    let _ = std::fs::remove_file(&trace_path);
}

fn record(c: &mut Criterion) {
    let breakdown = PhaseBreakdown {
        version: 1,
        width: 1,
        total_ns: 180_000,
        ground_ns: 9_000,
        repair_ns: 2_000,
        condense_ns: 4_000,
        solve_ns: 120_000,
        journal_append_ns: 0,
        fsync_ns: 0,
        publish_ns: 3_000,
    };
    let mut group = c.benchmark_group("telemetry/record");
    for mode in ["disabled", "enabled"] {
        group.bench_with_input(
            BenchmarkId::new("mode", mode),
            &breakdown,
            |b, breakdown| {
                let telemetry = match mode {
                    "disabled" => Telemetry::disabled(),
                    _ => Telemetry::new(),
                };
                b.iter(|| telemetry.record_cycle(std::hint::black_box(breakdown)))
            },
        );
    }
    group.finish();
}

criterion_group!(benches, write_cycle, record);
criterion_main!(benches);
