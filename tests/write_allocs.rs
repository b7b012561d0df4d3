//! Allocation bounds on the `write_edb` program shape.
//!
//! * A one-fact grounder write: with a snapshot of the ground program
//!   alive (as a server's published head is), one assert and one retract
//!   allocate a bounded amount at 10³ and at 10⁴ keys. A write copies the
//!   segments it touches out of the snapshot. That copy must cost one
//!   allocation per segment, not one per list-valued element in it, so
//!   the count stays flat as the EDB grows. The snapshots must not
//!   change: their rendering is byte-identical before and after.
//! * A cold load: `Engine::load` allocates a bounded, flat amount per
//!   EDB fact, so nothing in parsing, the envelope or instantiation keeps
//!   a per-tuple copy it could share.
//! * A negative literal pruned from every instance of a rule: the bytes
//!   a cold load allocates per instance stay flat, so recording the
//!   instances under the one pruned literal does not copy the list on
//!   each instance. Asserting the literal's atom resurrects it into every
//!   instance, again in flat bytes per instance, so the atom's occurrence
//!   list is not rebuilt once per instance.

use afp::datalog::{
    parse_program, GroundOptions, IncrementalGrounder, RetractOutcome, RuleAssertOutcome,
};
use afp::Engine;
use afp_bench::gen::write_edb_src;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Counts every allocation and reallocation made through it, and the
/// bytes each asks for.
struct Counting;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations one write may make, at any EDB size.
const BUDGET: usize = 256;

/// Allocations a cold load may make per EDB fact: the measured 3.69
/// (at 10³ keys; 3.43 at 10⁴) plus 25%.
const LOAD_BUDGET_PER_FACT: f64 = 4.6;

/// The counter is process-wide: tests that read it run one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

/// The allocations of `f`.
fn allocations<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = f();
    (ALLOCS.load(Ordering::Relaxed) - before, out)
}

/// `(assert, retract)` allocation counts on a `keys`-key grounder.
fn write_allocations(keys: usize) -> (usize, usize) {
    let program = parse_program(&write_edb_src(keys)).unwrap();
    let mut grounder = IncrementalGrounder::new(&program, &GroundOptions::default()).unwrap();
    let odd = keys / 2 + 1;
    let assert = parse_program(&format!("d(k{odd}).")).unwrap();
    let retract = parse_program("d(k0).").unwrap();

    let first = grounder.program().clone();
    let first_text = first.to_string();
    let (asserted, outcome) = allocations(|| {
        grounder
            .assert_rules(&assert.rules, &assert.symbols)
            .unwrap()
    });
    assert!(
        matches!(outcome, RuleAssertOutcome::Applied(ref e) if e.fresh && e.new_rules > 0),
        "the assert applies"
    );

    let second = grounder.program().clone();
    let second_text = second.to_string();
    let (retracted, outcome) =
        allocations(|| grounder.retract_rules(&retract.rules, &retract.symbols));
    assert!(
        matches!(outcome, RetractOutcome::Applied(ref e) if e.fresh),
        "the retract applies"
    );

    assert_eq!(
        first.to_string(),
        first_text,
        "the first snapshot is unchanged"
    );
    assert_eq!(
        second.to_string(),
        second_text,
        "the second snapshot is unchanged"
    );
    assert_ne!(grounder.program().to_string(), second_text);
    (asserted, retracted)
}

#[test]
fn a_one_fact_write_allocates_a_bounded_amount_at_any_size() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for keys in [1_000, 10_000] {
        let (asserted, retracted) = write_allocations(keys);
        eprintln!("{keys} keys: assert {asserted}, retract {retracted} allocations");
        assert!(
            asserted <= BUDGET,
            "the assert made {asserted} allocations at {keys} keys (budget {BUDGET})"
        );
        assert!(
            retracted <= BUDGET,
            "the retract made {retracted} allocations at {keys} keys (budget {BUDGET})"
        );
    }
}

#[test]
fn a_cold_load_allocates_a_flat_amount_per_fact() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let per_fact: Vec<f64> = [1_000, 10_000]
        .into_iter()
        .map(|keys| {
            let src = write_edb_src(keys);
            let (n, session) = allocations(|| Engine::default().load(&src));
            session.expect("the program loads");
            // `e(kI)` for every key and `d(kI)` for every other one.
            let facts = keys + keys.div_ceil(2);
            let per_fact = n as f64 / facts as f64;
            eprintln!("{keys} keys: load {n} allocations, {per_fact:.2} per EDB fact");
            assert!(
                per_fact <= LOAD_BUDGET_PER_FACT,
                "{per_fact:.2} allocations per fact at {keys} keys (budget {LOAD_BUDGET_PER_FACT})"
            );
            per_fact
        })
        .collect();
    let ratio = per_fact[1] / per_fact[0];
    assert!(
        (0.9..=1.1).contains(&ratio),
        "allocations per fact grew {ratio:.3}× from 10³ to 10⁴ keys"
    );
}

/// The bytes `f` asks the allocator for.
fn bytes_allocated<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = BYTES.load(Ordering::Relaxed);
    let out = f();
    (BYTES.load(Ordering::Relaxed) - before, out)
}

/// `keys` instances of `p(X) :- e(X), not flag.`: `flag` never enters
/// the envelope, so `not flag` is pruned from every `p` instance, and
/// each instance is recorded under it.
fn pruned_flag_src(keys: usize) -> String {
    let mut src = String::from("p(X) :- e(X), not flag.\n");
    for i in 0..keys {
        src.push_str(&format!("e(k{i}).\n"));
    }
    src
}

#[test]
fn a_literal_pruned_from_every_instance_loads_in_flat_bytes_per_instance() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let per_instance: Vec<f64> = [1_000, 10_000]
        .into_iter()
        .map(|keys| {
            let src = pruned_flag_src(keys);
            let (n, session) = bytes_allocated(|| Engine::default().load(&src));
            session.expect("the program loads");
            let per_instance = n as f64 / keys as f64;
            eprintln!("{keys} instances: load {n} bytes, {per_instance:.0} per instance");
            per_instance
        })
        .collect();
    let ratio = per_instance[1] / per_instance[0];
    assert!(
        ratio <= 1.5,
        "bytes per instance grew {ratio:.2}× from 10³ to 10⁴ instances"
    );
}

#[test]
fn resurrecting_a_literal_pruned_from_every_instance_takes_flat_bytes_per_instance() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // Asserting `flag` puts `not flag` back into every `p` instance.
    let per_instance: Vec<f64> = [1_000, 10_000]
        .into_iter()
        .map(|keys| {
            let program = parse_program(&pruned_flag_src(keys)).unwrap();
            let mut grounder =
                IncrementalGrounder::new(&program, &GroundOptions::default()).unwrap();
            let flag = parse_program("flag.").unwrap();
            let (n, outcome) =
                bytes_allocated(|| grounder.assert_rules(&flag.rules, &flag.symbols).unwrap());
            assert!(
                matches!(outcome, RuleAssertOutcome::Applied(ref e) if e.resurrected == keys),
                "the assert resurrects `not flag` in every instance"
            );
            let per_instance = n as f64 / keys as f64;
            eprintln!("{keys} instances: resurrect {n} bytes, {per_instance:.0} per instance");
            per_instance
        })
        .collect();
    let ratio = per_instance[1] / per_instance[0];
    assert!(
        ratio <= 1.5,
        "bytes per resurrected instance grew {ratio:.2}× from 10³ to 10⁴ instances"
    );
}
