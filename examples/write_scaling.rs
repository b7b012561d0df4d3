//! In-process write scaling on the `write_edb` program shape: for each
//! key count on the command line, load the knot forest, solve it, then
//! time seeded one-key writes (toggle `d(kI)`, then solve) and print
//! where each write's time goes.
//!
//! ```text
//! cargo run --release --example write_scaling -- 10000 100000 400000
//! ```
//!
//! Columns: `Engine::load` wall time, and the same per key (the load of
//! a program whose cost grows only with its EDB should be flat per
//! key), the first solve, the p50 of a
//! whole write (the session call plus the solve after it), and the p50
//! of its layers from [`afp::Session::take_phases`]: grounding,
//! condensation repair, `mirror` (the session call's wall time minus
//! ground and repair: the call's own bookkeeping, which the benchmark
//! reports as `engine.mirror_us`) and the solve, and the rest: the
//! write minus those four, the time
//! no phase accounts for. A write whose cone is one knot should cost the
//! same at every size. The last column is the process's peak resident
//! set so far (`VmHWM`, Linux only): with key counts in ascending order,
//! the peak of the largest size run yet.

use afp::Engine;
use afp_bench::gen::write_edb_src;
use std::time::Instant;

/// Timed writes per key count.
const WRITES: usize = 40;

fn p50(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn main() {
    let sizes: Result<Vec<usize>, _> = std::env::args().skip(1).map(|a| a.parse()).collect();
    let sizes = match sizes {
        Ok(sizes) if !sizes.is_empty() => sizes,
        Ok(_) => vec![10_000],
        Err(_) => {
            eprintln!("usage: write_scaling [KEYS...]  (key counts, default 10000)");
            std::process::exit(2);
        }
    };
    println!(
        "| keys | load (s) | load µs/key | first solve (ms) | write p50 (us) | ground p50 (us) \
         | repair p50 (us) | mirror p50 (us) | solve p50 (us) | rest p50 (us) | peak RSS (MiB) |"
    );
    println!("|---|---|---|---|---|---|---|---|---|---|---|");
    for keys in sizes {
        let engine = Engine::default();
        let t = Instant::now();
        let mut session = engine
            .load(&write_edb_src(keys))
            .expect("the program loads");
        let load_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        // The last model stays alive across the next write, as a
        // server's published head does.
        let mut _alive = session.solve().expect("the program solves");
        let first_ms = t.elapsed().as_secs_f64() * 1e3;

        let mut present: Vec<bool> = (0..keys).map(|i| i % 2 == 0).collect();
        let mut rng = 0x2545_f491_4f6c_dd1d_u64 ^ keys as u64;
        let [mut write, mut ground, mut repair, mut mirror, mut solve, mut rest]: [Vec<f64>; 6] =
            Default::default();
        for _ in 0..WRITES {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let key = (rng % keys as u64) as usize;
            let fact = format!("d(k{key}).");
            let _ = session.take_phases();
            let t = Instant::now();
            if present[key] {
                session.retract_facts(&fact)
            } else {
                session.assert_facts(&fact)
            }
            .expect("a one-key write applies");
            let call_ns = t.elapsed().as_nanos() as f64;
            present[key] = !present[key];
            let delta = session.take_phases();
            _alive = session.solve().expect("the write solves");
            let total_ns = t.elapsed().as_nanos() as f64;
            let solved = session.take_phases();
            let (ground_ns, repair_ns) = (delta.ground_ns as f64, delta.repair_ns as f64);
            let mirror_ns = (call_ns - ground_ns - repair_ns).max(0.0);
            let solve_ns = solved.solve_ns as f64;
            write.push(total_ns / 1e3);
            ground.push(ground_ns / 1e3);
            repair.push(repair_ns / 1e3);
            mirror.push(mirror_ns / 1e3);
            solve.push(solve_ns / 1e3);
            rest.push((total_ns - ground_ns - repair_ns - mirror_ns - solve_ns) / 1e3);
        }
        println!(
            "| {keys} | {load_s:.2} | {:.1} | {first_ms:.1} | {:.0} | {:.0} | {:.0} | {:.0} | {:.0} | {:.0} | {} |",
            load_s * 1e6 / keys as f64,
            p50(write),
            p50(ground),
            p50(repair),
            p50(mirror),
            p50(solve),
            p50(rest),
            peak_rss_mib().map_or("-".to_string(), |mib| format!("{mib:.0}")),
        );
    }
}

/// The process's peak resident set so far, from `/proc/self/status`.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
