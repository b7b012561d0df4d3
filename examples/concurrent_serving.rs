//! Concurrent model serving: a win/move game served to parallel readers
//! while the writer rewires the board live.
//!
//! One [`afp::Service`] owns the writer session; any number of reader
//! threads pin versioned, immutable snapshots and query them lock-free
//! while fact deltas publish new versions behind them. Each published
//! version is a complete, consistent well-founded model — readers never
//! observe a half-applied update, and a pinned snapshot keeps answering
//! for *its* version however far the writer has moved on.
//!
//! Run with `cargo run --example concurrent_serving`.

use afp::{Engine, Truth};
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;

fn main() {
    // Figure 4(c)'s shape, grown into a little board: a ⇄ b with an
    // escape to the sink c.
    let service = Engine::default()
        .serve(
            "wins(X) :- move(X, Y), not wins(Y).
             move(a, b). move(b, a). move(b, c).",
        )
        .expect("program loads and solves");

    println!("version 0 published:");
    println!(
        "  wins(b) = {:?} (b escapes to the sink c)",
        service.snapshot().truth("wins", &["b"])
    );

    // A reader pins version 0 before any update lands. This snapshot is
    // immutable for its whole lifetime.
    let pinned_v0 = service.snapshot();

    let stop = AtomicBool::new(false);
    let results: Vec<(usize, u64, usize)> = thread::scope(|s| {
        // Three readers poll the *current* version as it advances; each
        // query runs against an immutable snapshot without any lock.
        let mut readers = Vec::new();
        for id in 0..3usize {
            let service = &service;
            let stop = &stop;
            readers.push(s.spawn(move || {
                let mut reads = 0usize;
                let mut last_version;
                // At least one pass even if the writer wins the race to
                // finish (single-core schedulers do that).
                loop {
                    let snapshot = service.snapshot();
                    last_version = snapshot.version();
                    // The hot path: truth probes on the pinned version.
                    for node in ["a", "b", "c", "d", "e"] {
                        let _ = snapshot.truth("wins", &[node]);
                        reads += 1;
                    }
                    // Readers can also run whole relevance-restricted
                    // subqueries on their own thread.
                    let sub = snapshot.subquery(["wins(a)"]).expect("subquery solves");
                    let _ = sub.truth("wins", &["a"]);
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                    thread::yield_now();
                }
                (id, last_version, reads)
            }));
        }

        // The writer extends the game live: c stops being a sink, then
        // the whole tail is torn down again. Each submission publishes a
        // new version; concurrent submissions would coalesce into shared
        // write cycles.
        let service = &service;
        for delta in [
            "move(c, d).", // c can now move: wins(c) flips
            "move(d, e).",
            "move(e, c).", // 3-cycle c → d → e → c: all three undefined
        ] {
            let version = service.assert_facts(delta).expect("delta applies");
            let snapshot = service.snapshot();
            println!(
                "version {version}: after `{delta}` wins(c) = {:?}",
                snapshot.truth("wins", &["c"])
            );
        }
        let version = service
            .retract_facts("move(c, d). move(d, e). move(e, c).")
            .expect("batch retract applies");
        println!(
            "version {version}: tail removed, wins(c) = {:?}",
            service.snapshot().truth("wins", &["c"])
        );

        stop.store(true, Ordering::Release);
        readers.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (id, version, reads) in results {
        println!("reader {id}: {reads} lock-free reads, last saw version {version}");
    }

    // The version-0 pin never moved, whatever the writer did since.
    assert_eq!(pinned_v0.version(), 0);
    assert_eq!(pinned_v0.truth("wins", &["b"]), Truth::True);
    assert_eq!(pinned_v0.truth("wins", &["c"]), Truth::False);
    println!(
        "pinned version 0 still answers for its own epoch: wins(b) = {:?}",
        pinned_v0.truth("wins", &["b"])
    );

    let m = service.metrics();
    println!(
        "service: {} versions, {} submissions over {} write cycles, {} pins",
        m.version.get(),
        m.submissions.get(),
        m.write_cycles.get(),
        m.pins.get()
    );
}
