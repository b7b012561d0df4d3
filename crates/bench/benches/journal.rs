//! Acceptance bench for the durability tier (`afp::journal`), in two
//! parts:
//!
//! * `write_path_*` — one fact-toggle write cycle per iteration through
//!   a journaled service, parameterized by fsync policy: `none` is the
//!   unjournaled baseline (over the wire, perfbench's
//!   `server.request_us` and `writer.queue_wait_*` figures time the same
//!   write path), `never` adds the append without any syncing
//!   (framing + CRC + one `write(2)` per record), `every8` amortizes
//!   one `fdatasync` over 8 records, and `always` pays the sync on the
//!   publish path of every cycle. The deltas between the four are the
//!   journal's bookkeeping cost and the raw price of durability.
//!
//! * `recovery_replay` — `Service::recover` over a journal of 64
//!   warm-replayable deltas, measuring what a crash restart actually
//!   costs when the checkpoint interval lets the tail grow that long.
//!
//! Results land in BENCH_journal.json with the runner-core annotation;
//! on the 1-core CI runner the fsync numbers measure the filesystem of
//! the runner's tmpdir, not a production disk — record, don't compare
//! across machines.

use afp::{Engine, FsyncPolicy, JournalOptions, Service, ServiceOptions};
use afp_bench::gen::{node_name, Graph};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::path::PathBuf;

fn win_move_src(g: &Graph) -> String {
    let mut src = String::from("wins(X) :- move(X, Y), not wins(Y).\n");
    for &(u, v) in &g.edges {
        src.push_str(&format!("move({}, {}).\n", node_name(u), node_name(v)));
    }
    src
}

fn bench_dir(label: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("afp-bench-journal-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn write_path(c: &mut Criterion) {
    let g = Graph::random_regular_out(256, 3, 42);
    let src = win_move_src(&g);
    let toggle_on = format!("move({}, sink).", node_name(0));
    let mut group = c.benchmark_group("journal/write_path_win_move_256");
    group.sample_size(10);

    let policies: [(&str, Option<FsyncPolicy>); 4] = [
        ("none", None),
        ("never", Some(FsyncPolicy::Never)),
        ("every8", Some(FsyncPolicy::EveryN(8))),
        ("always", Some(FsyncPolicy::Always)),
    ];
    for (label, policy) in policies {
        group.bench_function(BenchmarkId::new("fsync", label), |b| {
            let session = Engine::default().load(&src).unwrap();
            let service = match policy {
                None => Service::new(session).unwrap(),
                Some(fsync) => {
                    let dir = bench_dir(label);
                    Service::with_journal(
                        session,
                        ServiceOptions::default(),
                        &dir,
                        JournalOptions {
                            fsync,
                            ..JournalOptions::default()
                        },
                    )
                    .unwrap()
                }
            };
            let mut present = false;
            b.iter(|| {
                present = !present;
                let v = if present {
                    service.assert_facts(&toggle_on).unwrap()
                } else {
                    service.retract_facts(&toggle_on).unwrap()
                };
                std::hint::black_box(v)
            });
            if let Some(stats) = service.journal_stats() {
                eprintln!(
                    "journal fsync={label}: {} records, {} bytes, {} syncs \
                     (for BENCH_journal.json)",
                    stats.records_appended, stats.bytes_appended, stats.syncs
                );
            }
            drop(service);
            let _ = std::fs::remove_dir_all(bench_dir(label));
        });
    }
    group.finish();
}

const REPLAY_DEPTH: u64 = 64;

fn recovery_replay(c: &mut Criterion) {
    let g = Graph::random_regular_out(256, 3, 42);
    let src = win_move_src(&g);
    let engine = Engine::default();

    // Build one journal with a 64-record tail past the initial
    // checkpoint, closed cleanly; each iteration recovers from it.
    let dir = bench_dir("replay");
    let service = Service::with_journal(
        engine.load(&src).unwrap(),
        ServiceOptions {
            changelog_capacity: REPLAY_DEPTH as usize + 1,
            ..ServiceOptions::default()
        },
        &dir,
        JournalOptions {
            fsync: FsyncPolicy::Never,
            ..JournalOptions::default()
        },
    )
    .unwrap();
    for i in 0..REPLAY_DEPTH {
        service
            .assert_facts(&format!("move({}, x{i}).", node_name((i % 256) as u32)))
            .unwrap();
    }
    drop(service);

    let mut group = c.benchmark_group("journal/recovery");
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("replay_records", REPLAY_DEPTH), |b| {
        b.iter(|| {
            let recovered = Service::recover(
                &engine,
                &dir,
                ServiceOptions {
                    changelog_capacity: REPLAY_DEPTH as usize + 1,
                    ..ServiceOptions::default()
                },
                JournalOptions {
                    fsync: FsyncPolicy::Never,
                    ..JournalOptions::default()
                },
            )
            .unwrap();
            assert_eq!(recovered.version(), REPLAY_DEPTH);
            std::hint::black_box(recovered)
        })
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(benches, write_path, recovery_replay);
criterion_main!(benches);
