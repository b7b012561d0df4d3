//! Concurrent differential acceptance suite for `afp::service`.
//!
//! The contract under test: **every versioned snapshot a reader can pin
//! is bit-identical to a fresh cold `Engine::load` solve of that exact
//! program version**, no matter how reader queries interleave with
//! writer deltas, under both well-founded strategies. The scaffolding
//! (deterministic xorshift scripts, rule/fact pools, probe-atom digests)
//! mirrors `tests/rule_deltas.rs`; the service's changelog provides the
//! version → program-text mapping the cold side replays.
//!
//! Thread counts are bounded (4 readers / 4 writers) and every script is
//! seeded, so the suite is CI-deterministic in its *verdicts* — the
//! interleavings vary run to run, the checked property must not.

use afp::{Engine, Semantics, Strategy, Truth, WfStrategy};
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;

const SCC: Semantics = Semantics::WellFounded {
    strategy: WfStrategy::SccStratified,
};
const GLOBAL: Semantics = Semantics::WellFounded {
    strategy: WfStrategy::Global(Strategy::Naive),
};

/// Deterministic xorshift for update scripts.
struct Rng(u64);
impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

const RULE_POOL: &[&str] = &[
    "reach(X) :- move(n0, X).",
    "reach(X) :- move(Y, X), reach(Y).",
    "win(X) :- bonus(X).",
    "trapped(X) :- move(X, Y), not win(Y), not reach(Y).",
    "p :- not q.",
    "q :- not p.",
    "odd :- win(n0), not odd.",
];

const FACT_POOL: &[&str] = &[
    "move(n0, n1).",
    "move(n1, n2).",
    "move(n2, n0).",
    "move(n2, n3).",
    "move(n3, n4).",
    "bonus(n2).",
    "bonus(n4).",
];

const BASE_RULES: &str = "win(X) :- move(X, Y), not win(Y).\n";
const BASE_FACTS: &[&str] = &["move(n0, n1).", "move(n1, n2)."];

fn base_src() -> String {
    format!("{BASE_RULES}{}\n", BASE_FACTS.join(" "))
}

/// Probe atoms whose truth values form a version's digest.
fn probes() -> Vec<(String, Vec<String>)> {
    let mut out = vec![
        ("p".to_string(), vec![]),
        ("q".to_string(), vec![]),
        ("odd".to_string(), vec![]),
    ];
    for n in 0..5 {
        for pred in ["win", "reach", "trapped", "bonus"] {
            out.push((pred.to_string(), vec![format!("n{n}")]));
        }
    }
    out
}

fn digest(model: &afp::Model) -> Vec<Truth> {
    probes()
        .iter()
        .map(|(pred, args)| {
            let refs: Vec<&str> = args.iter().map(String::as_str).collect();
            model.truth(pred, &refs)
        })
        .collect()
}

/// Rebuild the program text of `version` from the service changelog —
/// the base program plus every applied delta with version ≤ `version`,
/// replayed as set updates (each submitted text is one pool element, so
/// structural membership is exact).
fn reconstruct(changelog: &[afp::AppliedDelta], version: u64) -> String {
    let mut live_rules: Vec<&str> = Vec::new();
    let mut live_facts: Vec<&str> = BASE_FACTS.to_vec();
    for entry in changelog {
        if entry.version > version {
            break;
        }
        let text = entry.text.as_str();
        match entry.kind {
            afp::DeltaKind::AssertRules => {
                if !live_rules.contains(&text) {
                    live_rules.push(text);
                }
            }
            afp::DeltaKind::RetractRules => live_rules.retain(|&r| r != text),
            afp::DeltaKind::AssertFacts => {
                if !live_facts.contains(&text) {
                    live_facts.push(text);
                }
            }
            afp::DeltaKind::RetractFacts => live_facts.retain(|&f| f != text),
        }
    }
    let mut src = String::from(BASE_RULES);
    for r in &live_rules {
        src.push_str(r);
        src.push('\n');
    }
    for f in &live_facts {
        src.push_str(f);
        src.push('\n');
    }
    src
}

/// The flagship differential: 4 reader threads pin snapshots and record
/// `(version, digest)` observations while the writer replays a seeded
/// random fact+rule delta script; afterwards **every observation** must
/// equal a fresh cold solve of that version's reconstructed program.
/// Run under both strategies.
#[test]
fn concurrent_reads_match_cold_solves_of_their_version() {
    for (semantics, label) in [(SCC, "scc"), (GLOBAL, "global")] {
        let engine = Engine::builder().semantics(semantics).build();
        let service = afp::Service::new(engine.load(&base_src()).unwrap()).unwrap();
        let stop = AtomicBool::new(false);
        const STEPS: usize = 24;
        const READERS: usize = 4;

        let observations: Vec<Vec<(u64, Vec<Truth>)>> = thread::scope(|s| {
            let mut readers = Vec::new();
            for r in 0..READERS {
                let service = &service;
                let stop = &stop;
                readers.push(s.spawn(move || {
                    let mut seen = Vec::new();
                    while !stop.load(Ordering::Acquire) {
                        let snapshot = service.snapshot();
                        seen.push((snapshot.version(), digest(snapshot.model())));
                        // Half the readers also exercise the version
                        // cache and re-pin an older version mid-write.
                        if r % 2 == 0 {
                            if let Ok(old) =
                                service.at_version(snapshot.version().saturating_sub(1))
                            {
                                seen.push((old.version(), digest(old.model())));
                            }
                        }
                        thread::yield_now();
                    }
                    // One final read of the settled head.
                    let snapshot = service.snapshot();
                    seen.push((snapshot.version(), digest(snapshot.model())));
                    seen
                }));
            }

            // Writer: seeded random script, submitted sequentially so each
            // delta publishes its own version (coalescing is exercised by
            // the dedicated test below — here we want a deterministic
            // version ↦ program mapping to verify against).
            let mut rng = Rng(if label == "scc" { 0xDEC0DE } else { 0xC0FFEE });
            let mut live_rules: Vec<&str> = Vec::new();
            let mut live_facts: Vec<&str> = BASE_FACTS.to_vec();
            for _ in 0..STEPS {
                match rng.next() % 4 {
                    0 => {
                        let rule = RULE_POOL[(rng.next() % RULE_POOL.len() as u64) as usize];
                        service.assert_rules(rule).unwrap();
                        if !live_rules.contains(&rule) {
                            live_rules.push(rule);
                        }
                    }
                    1 => {
                        if let Some(&rule) = {
                            let len = live_rules.len();
                            (len > 0).then(|| &live_rules[(rng.next() % len as u64) as usize])
                        } {
                            service.retract_rules(rule).unwrap();
                            live_rules.retain(|&r| r != rule);
                        }
                    }
                    2 => {
                        let fact = FACT_POOL[(rng.next() % FACT_POOL.len() as u64) as usize];
                        service.assert_facts(fact).unwrap();
                        if !live_facts.contains(&fact) {
                            live_facts.push(fact);
                        }
                    }
                    _ => {
                        if let Some(&fact) = {
                            let len = live_facts.len();
                            (len > 0).then(|| &live_facts[(rng.next() % len as u64) as usize])
                        } {
                            service.retract_facts(fact).unwrap();
                            live_facts.retain(|&f| f != fact);
                        }
                    }
                }
                thread::yield_now();
            }
            stop.store(true, Ordering::Release);
            readers.into_iter().map(|h| h.join().unwrap()).collect()
        });

        // Cold-verify every distinct version any reader observed.
        let changelog = service.changelog().unwrap();
        let final_version = service.version();
        let mut cold_digests: Vec<Option<Vec<Truth>>> = vec![None; final_version as usize + 1];
        let mut checked = 0usize;
        for seen in &observations {
            for (version, observed) in seen {
                let slot = &mut cold_digests[*version as usize];
                if slot.is_none() {
                    let cold_src = reconstruct(&changelog, *version);
                    let cold = engine.solve(&cold_src).unwrap();
                    *slot = Some(digest(&cold));
                }
                assert_eq!(
                    observed,
                    slot.as_ref().unwrap(),
                    "snapshot of version {version} diverged from its cold solve ({label})"
                );
                checked += 1;
            }
        }
        assert!(checked > 0, "readers observed nothing ({label})");
        assert_eq!(
            service.session_stats().regrounds,
            0,
            "every pool delta stays warm ({label})"
        );
    }
}

/// Concurrent writers: all submissions succeed, write cycles never
/// exceed submissions (queued deltas coalesce into shared cycles), and
/// the final model equals a cold solve of the base plus all deltas —
/// submission order is immaterial because the deltas are disjoint
/// asserts.
#[test]
fn concurrent_writers_coalesce_into_batched_cycles() {
    const WRITERS: usize = 4;
    const PER_WRITER: usize = 8;
    let service = Engine::default().serve(&base_src()).unwrap();

    thread::scope(|s| {
        for w in 0..WRITERS {
            let service = &service;
            s.spawn(move || {
                for i in 0..PER_WRITER {
                    // Disjoint facts: writer w hangs a chain off node w.
                    let fact = format!("move(n{w}, w{w}_{i}).");
                    let version = service.assert_facts(&fact).unwrap();
                    assert!(version > 0);
                }
            });
        }
    });

    let m = service.metrics();
    let (submissions, write_cycles) = (m.submissions.get(), m.write_cycles.get());
    assert_eq!(submissions, (WRITERS * PER_WRITER) as u64);
    assert_eq!(m.rejected.get(), 0);
    assert!(
        write_cycles <= submissions,
        "cycles {write_cycles} > submissions {submissions}"
    );
    assert_eq!(
        m.version.get() as u64,
        write_cycles,
        "every cycle published exactly one version"
    );
    assert_eq!(service.changelog().unwrap().len(), WRITERS * PER_WRITER);

    // Final-state differential against the cold solve of everything.
    let mut cold_src = base_src();
    for entry in service.changelog().unwrap() {
        cold_src.push_str(&entry.text);
        cold_src.push('\n');
    }
    let cold = Engine::default().solve(&cold_src).unwrap();
    let head = service.snapshot();
    assert_eq!(digest(head.model()), digest(&cold));
    for w in 0..WRITERS {
        let arg = format!("w{w}_0");
        assert_eq!(
            head.truth("win", &[&format!("n{w}")]),
            cold.truth("win", &[&format!("n{w}")])
        );
        assert_eq!(head.truth("win", &[&arg]), Truth::False);
    }
}

/// A pinned snapshot is immutable while the writer churns: its digest
/// and its read-side subqueries keep answering for version 0.
#[test]
fn pinned_snapshots_are_immutable_under_writes() {
    let service = Engine::default().serve(&base_src()).unwrap();
    let pinned = service.snapshot();
    let baseline = digest(pinned.model());
    let cold_v0 = Engine::default().solve(&base_src()).unwrap();
    assert_eq!(baseline, digest(&cold_v0));

    thread::scope(|s| {
        let service = &service;
        let writer = s.spawn(move || {
            for fact in FACT_POOL {
                service.assert_facts(fact).unwrap();
            }
            for rule in RULE_POOL {
                service.assert_rules(rule).unwrap();
            }
        });
        // Reader re-checks the pinned version while the writer runs.
        let pinned = &pinned;
        let baseline = &baseline;
        s.spawn(move || {
            for _ in 0..50 {
                assert_eq!(&digest(pinned.model()), baseline, "pin drifted");
                let sub = pinned.subquery(["win(n1)"]).unwrap();
                assert_eq!(
                    sub.truth("win", &["n1"]),
                    Truth::True,
                    "version-0 cone: n1 → n2 (sink), so n1 wins"
                );
                thread::yield_now();
            }
        });
        writer.join().unwrap();
    });

    // The head moved on; the pin did not.
    assert_eq!(
        service.version(),
        (FACT_POOL.len() + RULE_POOL.len()) as u64
    );
    assert_eq!(pinned.version(), 0);
    assert_eq!(digest(pinned.model()), baseline);
}

/// Snapshot isolation across the version cache: every write interns
/// atoms over a never-seen constant, and more writes than the cache
/// holds push the early versions out of it. Each pinned version still
/// answers exactly its own cold model and reports `False` for every atom
/// interned after it, however much of the base the later writes share.
#[test]
fn pinned_versions_do_not_see_atoms_interned_after_them() {
    const WRITES: usize = 12; // more than the 8-deep version cache
    let service = Engine::default().serve(&base_src()).unwrap();
    let mut pins = vec![service.snapshot()];
    let mut facts: Vec<String> = Vec::new();
    for i in 0..WRITES {
        let fact = format!("move(fresh{i}, n{}).", i % 3);
        let version = service.assert_facts(&fact).unwrap();
        assert_eq!(version, i as u64 + 1);
        facts.push(fact);
        pins.push(service.snapshot());
    }
    assert!(
        service.at_version(0).is_err(),
        "version 0 left the version cache"
    );
    for (v, pin) in pins.iter().enumerate() {
        assert_eq!(pin.version(), v as u64);
        let cold = Engine::default()
            .solve(&format!("{}{}\n", base_src(), facts[..v].join(" ")))
            .unwrap();
        assert_eq!(digest(pin.model()), digest(&cold), "version {v}");
        for i in 0..WRITES {
            let fresh = format!("fresh{i}");
            let target = format!("n{}", i % 3);
            let (edge, win) = (
                pin.truth("move", &[&fresh, &target]),
                pin.truth("win", &[&fresh]),
            );
            if i < v {
                assert_eq!(edge, Truth::True, "version {v} holds write {i}");
                assert_eq!(win, cold.truth("win", &[&fresh]), "version {v}");
            } else {
                assert_eq!(edge, Truth::False, "version {v} predates write {i}");
                assert_eq!(win, Truth::False, "version {v} predates write {i}");
            }
        }
    }
}

/// Warm-path accounting across the service: repeated reads of an
/// unchanged version are served from the session memo (pointer copies),
/// and a failed delta neither publishes nor disturbs the memo.
#[test]
fn service_read_path_rides_the_session_memo() {
    let service = Engine::default().serve(&base_src()).unwrap();
    service.assert_facts("move(n2, n3).").unwrap();
    let before = service.session_stats();

    // Reads do not touch the session at all.
    for _ in 0..10 {
        let snapshot = service.snapshot();
        assert_eq!(snapshot.version(), 1);
    }
    let after = service.session_stats();
    assert_eq!(before, after, "reads must not reach the writer session");

    // A rejected delta leaves version and memo untouched.
    assert!(service.assert_facts("win(X) :- p.").is_err());
    assert_eq!(service.version(), 1);
    assert_eq!(service.metrics().rejected.get(), 1);
}

/// Review regression: a semantically invalid delta (valid text, unsafe
/// rule) that lands in the same coalesced cycle as valid deltas must
/// fail **alone** — its cycle-mates' deltas apply and publish. The
/// writer is held while the four submissions queue, so they share one
/// cycle and one merged run, which fails and is retried delta by delta.
#[test]
fn invalid_delta_does_not_fail_its_cycle_mates() {
    let service = Engine::default().serve(&base_src()).unwrap();
    // Each delta names constants no other one uses.
    let deltas = [
        "reach(X) :- move(n0, X).",
        "bonus(n3) :- move(n1, n2).",
        "r(X) :- not s(X).", // unsafe: passes parse
        "bonus(n4).",
    ];
    let cycles = service.metrics().write_cycles.get();
    service.hold_writer(true);
    let handles: Vec<_> = deltas
        .iter()
        .map(|text| service.submit(afp::DeltaKind::AssertRules, text).unwrap())
        .collect();
    service.hold_writer(false);
    let results: Vec<_> = handles.iter().map(|h| h.wait()).collect();

    let m = service.metrics();
    assert_eq!(m.write_cycles.get(), cycles + 1, "one write cycle");
    assert_eq!(m.last_cycle_width.get(), 4);
    assert!(
        matches!(results[2], Err(afp::Error::Ground(_))),
        "{:?}",
        results[2]
    );
    let v = results[0]
        .clone()
        .expect("valid rule despite the unsafe cycle-mate");
    assert_eq!(results[1], Ok(v));
    assert_eq!(results[3], Ok(v));

    let log = service.changelog().unwrap();
    let texts: Vec<&str> = log.iter().map(|e| e.text.as_str()).collect();
    assert_eq!(texts, [deltas[0], deltas[1], deltas[3]], "verbatim");
    assert!(log.iter().all(|e| e.version == v));
    let head = service.snapshot();
    assert_eq!(head.version(), v);
    let cold = Engine::default().solve(&reconstruct(&log, v)).unwrap();
    assert_eq!(
        afp::net::codec::model_json(v, head.model()),
        afp::net::codec::model_json(v, &cold)
    );
}

/// Statement counters count applied statements once each: the unsafe
/// delta of a held, coalesced run counts nothing, and the delta-by-delta
/// retry of the failed merged run does not count its cycle-mates twice.
#[test]
fn rule_asserts_count_only_applied_statements() {
    let service = Engine::default().serve(&base_src()).unwrap();
    service.hold_writer(true);
    let handles: Vec<_> = [
        "win(n5) :- move(n0, n1).",
        "bonus(n6).",
        "r(X) :- not s(X).", // unsafe: passes parse, fails to ground
        "bonus(n7).",
    ]
    .iter()
    .map(|text| service.submit(afp::DeltaKind::AssertRules, text).unwrap())
    .collect();
    service.hold_writer(false);
    let applied = handles.iter().filter(|h| h.wait().is_ok()).count();
    assert_eq!(applied, 3);
    assert_eq!(service.session_stats().rule_asserts, 3);
    assert_eq!(service.metrics().rule_asserts.get(), 3, "mirrored");
}

/// Review regression: a delta that applies but whose cycle's *solve*
/// fails (no perfect model) is retained in the writer and must be
/// attributed, in the changelog, to the next version that does solve —
/// so changelog reconstruction stays exact.
#[test]
fn solve_failure_retains_deltas_and_attributes_them_to_the_next_version() {
    let engine = Engine::builder().semantics(Semantics::Perfect).build();
    let service = afp::Service::new(engine.load("x.").unwrap()).unwrap();

    // The odd loop has no perfect model: apply succeeds, solve fails,
    // nothing publishes.
    let err = service.assert_rules("a :- not b. b :- not a.").unwrap_err();
    assert!(matches!(err, afp::Error::NotLocallyStratified), "{err:?}");
    assert_eq!(service.version(), 0);
    assert!(
        service.changelog().unwrap().is_empty(),
        "no published version yet"
    );

    // Retracting half the loop restores stratification: version 1 must
    // carry BOTH deltas in its changelog, because its snapshot includes
    // both.
    let v = service.retract_rules("b :- not a.").unwrap();
    assert_eq!(v, 1);
    let log = service.changelog().unwrap();
    assert_eq!(
        log.len(),
        2,
        "retained delta attributed on publish: {log:?}"
    );
    assert!(log.iter().all(|e| e.version == 1));
    let head = service.snapshot();
    assert_eq!(
        head.truth("a", &[]),
        Truth::True,
        "a :- not b. with b false"
    );

    // Cold differential over the reconstructed version-1 program.
    let cold = engine.solve("x. a :- not b.").unwrap();
    assert_eq!(head.truth("a", &[]), cold.truth("a", &[]));
    assert_eq!(head.truth("x", &[]), cold.truth("x", &[]));
}
