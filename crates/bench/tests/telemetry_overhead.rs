//! CI smoke: telemetry must be free when disabled and near-free when
//! enabled.
//!
//! Measures the service's toggle write cycle (retract and re-assert one
//! knot's fact, so each cycle warm-re-solves that knot's forward cone;
//! through `Service` so the telemetry seam is on the path) with
//! telemetry disabled and enabled, in interleaved rounds so clock drift
//! and CI-runner noise hit both sides equally, and asserts the medians
//! agree within a generous 2× bound. The
//! honest numbers live in BENCH_telemetry.json; this test only guards
//! gross regressions (telemetry accidentally doing per-cycle
//! allocation, locking, or I/O on the disabled path).

use afp::{Engine, Service, Telemetry};
use afp_bench::gen::hard_knot_chain_src;
use std::time::Instant;

const KNOTS: usize = 64;
const ROUNDS: usize = 5;
const CYCLES_PER_ROUND: usize = 16;

fn serve(src: &str) -> Service {
    Service::new(Engine::default().load(src).unwrap()).unwrap()
}

/// Median per-toggle time (two write cycles) over one round.
fn round_ns(service: &Service, toggle: &str) -> u64 {
    let mut samples = Vec::with_capacity(CYCLES_PER_ROUND);
    for _ in 0..CYCLES_PER_ROUND {
        let started = Instant::now();
        service.retract_facts(toggle).unwrap();
        service.assert_facts(toggle).unwrap();
        samples.push(started.elapsed().as_nanos() as u64);
    }
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn median(mut rounds: Vec<u64>) -> u64 {
    rounds.sort_unstable();
    rounds[rounds.len() / 2]
}

#[test]
fn disabled_telemetry_overhead_is_within_noise() {
    let src = hard_knot_chain_src(KNOTS);
    let toggle = format!("e(k{}).", KNOTS / 2);
    let disabled = serve(&src);
    disabled.set_telemetry(Telemetry::disabled());
    let enabled = serve(&src);

    // Warm both services past their cold first cycles.
    round_ns(&disabled, &toggle);
    round_ns(&enabled, &toggle);

    let mut disabled_rounds = Vec::with_capacity(ROUNDS);
    let mut enabled_rounds = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        disabled_rounds.push(round_ns(&disabled, &toggle));
        enabled_rounds.push(round_ns(&enabled, &toggle));
    }
    let disabled_ns = median(disabled_rounds);
    let enabled_ns = median(enabled_rounds);

    // A write cycle is ~10⁵ ns of solving; telemetry records ~10² ns.
    // 2× in either direction is far beyond honest overhead and well
    // within what a loaded CI runner can produce by accident.
    assert!(
        enabled_ns <= disabled_ns.saturating_mul(2),
        "enabled telemetry more than doubled the write cycle: \
         disabled {disabled_ns}ns, enabled {enabled_ns}ns"
    );
    assert!(
        disabled_ns <= enabled_ns.saturating_mul(2),
        "disabled telemetry slower than enabled — measurement is broken: \
         disabled {disabled_ns}ns, enabled {enabled_ns}ns"
    );

    // And the enabled side actually recorded what we ran.
    let recorded = enabled.metrics().cycles.get();
    assert!(recorded >= (ROUNDS * CYCLES_PER_ROUND * 2) as u64);
    assert_eq!(disabled.metrics().cycles.get(), 0);
}
