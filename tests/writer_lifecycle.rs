//! The writer thread lives exactly as long as its `Service` handles:
//! dropping the last handle drains the write queue and joins the thread.
//!
//! This binary holds a single test because it counts the process's
//! threads; a second test running beside it would spawn writer threads
//! of its own and skew the count.

use afp::{DeltaKind, Engine};
use std::time::{Duration, Instant};

const SRC: &str = "wins(X) :- move(X, Y), not wins(Y). move(a, b). move(b, a). move(b, c).";

fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs lists this process's threads")
        .count()
}

#[test]
fn dropping_the_last_handle_drains_the_queue_and_joins_the_writer() {
    let before = thread_count();
    for round in 0..50 {
        let service = Engine::default().serve(SRC).unwrap();
        // Freeze the writer so the submission is provably still queued
        // when the last handle drops.
        service.hold_writer(true);
        let handle = service
            .submit(DeltaKind::AssertFacts, &format!("move(c, x{round})."))
            .unwrap();
        assert_eq!(handle.try_result(), None, "round {round}");
        drop(service);
        assert_eq!(handle.wait(), Ok(1), "round {round}: drained, not dropped");
    }
    // A joined thread's task entry can outlive the join by a moment.
    let deadline = Instant::now() + Duration::from_secs(5);
    while thread_count() != before && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(
        thread_count(),
        before,
        "a writer thread outlived its service"
    );
}
