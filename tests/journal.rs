//! Crash-recovery differential acceptance suite for `afp::journal`.
//!
//! The durability contract under test: **after any crash — injected
//! before the journal append, after the append but before publish, or
//! mid-checkpoint — recovery rebuilds a head model that is
//! bit-identical (modulo the warm/cold false-set asymmetry, see
//! [`comparable`]) to a cold `Engine::load` solve of the program
//! reconstructed from the recovered changelog, and the recovered
//! changelog is prefix-consistent with the pre-crash one** (equal on
//! the common prefix; at most the in-flight delta differs). Torn tails
//! — short writes and damage to the final record — are truncated
//! silently; damage *before* a valid record is mid-journal corruption
//! and recovery refuses with a loud [`Error::JournalCorrupt`]. Both
//! well-founded strategies are exercised, because recovery replays
//! through the same warm-update path the live writer uses.

use afp::net::codec;
use afp::{
    AppliedDelta, CrashPoint, DeltaKind, Engine, Error, FsyncPolicy, Journal, JournalOptions,
    Semantics, Service, ServiceOptions, Strategy, WfStrategy,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

const SCC: Semantics = Semantics::WellFounded {
    strategy: WfStrategy::SccStratified,
};
const GLOBAL: Semantics = Semantics::WellFounded {
    strategy: WfStrategy::Global(Strategy::Naive),
};

/// Deterministic xorshift for per-seed write scripts.
struct Rng(u64);
impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

const BASE_RULES: &str = "win(X) :- move(X, Y), not win(Y).\n";
const BASE_FACTS: &[&str] = &["move(n0, n1).", "move(n1, n2)."];

fn base_src() -> String {
    format!("{BASE_RULES}{}\n", BASE_FACTS.join(" "))
}

const RULE_POOL: &[&str] = &[
    "reach(X) :- move(n0, X).",
    "reach(X) :- move(Y, X), reach(Y).",
    "p :- not q.",
    "q :- not p.",
];

const FACT_POOL: &[&str] = &[
    "move(n0, j0).",
    "move(j0, j1).",
    "move(j1, j2).",
    "bonus(j0).",
    "bonus(j2).",
];

/// Rebuild the program text of `version` from a changelog: the base
/// program plus every applied delta with version ≤ `version`, replayed
/// as set updates (same folding as `tests/net.rs`).
fn reconstruct(changelog: &[AppliedDelta], version: u64) -> String {
    let mut live_rules: Vec<&str> = Vec::new();
    let mut live_facts: Vec<&str> = BASE_FACTS.to_vec();
    for entry in changelog {
        if entry.version > version {
            break;
        }
        let text = entry.text.as_str();
        match entry.kind {
            DeltaKind::AssertRules => {
                if !live_rules.contains(&text) {
                    live_rules.push(text);
                }
            }
            DeltaKind::RetractRules => live_rules.retain(|&r| r != text),
            DeltaKind::AssertFacts => {
                if !live_facts.contains(&text) {
                    live_facts.push(text);
                }
            }
            DeltaKind::RetractFacts => live_facts.retain(|&f| f != text),
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

/// Strip the `"false"` list before comparing: recovery replays through
/// the warm path, whose Herbrand base retains retracted atoms (as
/// false) that a cold load never saw. Every truth value still agrees.
fn comparable(model_json: &str) -> String {
    let start = model_json.find(",\"false\":[").expect("false list");
    let end = start + model_json[start..].find(']').expect("list close") + 1;
    format!("{}{}", &model_json[..start], &model_json[end..])
}

fn temp_journal_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("afp-tj-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn engine(semantics: Semantics) -> Engine {
    Engine::builder().semantics(semantics).build()
}

fn fresh_service(eng: &Engine, dir: &Path, journal_options: JournalOptions) -> Service {
    let session = eng.load(&base_src()).unwrap();
    Service::with_journal(session, ServiceOptions::default(), dir, journal_options).unwrap()
}

/// Head model of `service` must match a cold solve of the program its
/// own changelog reconstructs for the head version.
fn assert_head_matches_cold(eng: &Engine, service: &Service, changelog: &[AppliedDelta]) {
    let snapshot = service.snapshot();
    let version = snapshot.version();
    let warm = codec::model_json(version, snapshot.model());
    let cold_model = eng.solve(&reconstruct(changelog, version)).unwrap();
    let cold = codec::model_json(version, &cold_model);
    assert_eq!(comparable(&warm), comparable(&cold));
}

/// Apply a seeded mixed script of asserts/retracts straight to the
/// service (each call waits for its own write cycle), tracking
/// liveness so retracts only touch live text.
fn run_script(service: &Service, rng: &mut Rng, steps: usize) {
    let mut live_facts: Vec<&str> = Vec::new();
    let mut live_rules: Vec<&str> = Vec::new();
    for _ in 0..steps {
        match rng.next() % 6 {
            0 | 1 => {
                let fact = FACT_POOL[(rng.next() % FACT_POOL.len() as u64) as usize];
                service.assert_facts(fact).unwrap();
                if !live_facts.contains(&fact) {
                    live_facts.push(fact);
                }
            }
            2 => {
                let len = live_facts.len();
                if len > 0 {
                    let fact = live_facts[(rng.next() % len as u64) as usize];
                    service.retract_facts(fact).unwrap();
                    live_facts.retain(|&f| f != fact);
                }
            }
            3 => {
                let rule = RULE_POOL[(rng.next() % RULE_POOL.len() as u64) as usize];
                service.assert_rules(rule).unwrap();
                if !live_rules.contains(&rule) {
                    live_rules.push(rule);
                }
            }
            4 => {
                let len = live_rules.len();
                if len > 0 {
                    let rule = live_rules[(rng.next() % len as u64) as usize];
                    service.retract_rules(rule).unwrap();
                    live_rules.retain(|&r| r != rule);
                }
            }
            _ => {
                // A read between writes, like a real client mix.
                let _ = service.snapshot().truth("win", &["n0"]);
            }
        }
    }
}

/// Clean shutdown and restart: the recovered service resumes at the
/// same version with the same changelog and model, and keeps accepting
/// (and journaling) writes.
fn clean_restart(semantics: Semantics, label: &str) {
    let eng = engine(semantics);
    let dir = temp_journal_dir(&format!("restart-{label}"));
    let service = fresh_service(&eng, &dir, JournalOptions::default());
    run_script(&service, &mut Rng(0xC1EA_A001), 12);
    let pre_version = service.version();
    let pre_changelog = service.changelog().unwrap();
    drop(service);

    let recovered = Service::recover(
        &eng,
        &dir,
        ServiceOptions::default(),
        JournalOptions::default(),
    )
    .unwrap();
    assert_eq!(recovered.version(), pre_version);
    let changelog = recovered.changelog().unwrap();
    assert_eq!(changelog, pre_changelog);
    assert_head_matches_cold(&eng, &recovered, &changelog);
    let stats = recovered.journal_stats().unwrap();
    assert_eq!(stats.records_replayed, pre_changelog.len() as u64);

    // The reopened journal keeps absorbing writes.
    let v = recovered.assert_facts("bonus(j9).").unwrap();
    assert_eq!(v, pre_version + 1);
    assert!(recovered.journal_stats().unwrap().records_appended > 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn clean_restart_round_trips_state_scc() {
    clean_restart(SCC, "scc");
}

#[test]
fn clean_restart_round_trips_state_global() {
    clean_restart(GLOBAL, "global");
}

fn journal_files(dir: &Path) -> (Vec<PathBuf>, Vec<PathBuf>) {
    let mut checkpoints = Vec::new();
    let mut wals = Vec::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        match path.extension().and_then(|e| e.to_str()) {
            Some("ckpt") => checkpoints.push(path),
            Some("log") => wals.push(path),
            _ => {}
        }
    }
    checkpoints.sort();
    wals.sort();
    (checkpoints, wals)
}

/// Periodic checkpoints compact the journal down to one checkpoint and
/// one WAL, so replay is bounded by the checkpoint interval — and the
/// changelog horizon moves up with the checkpoint, so reads below it
/// report eviction rather than silently empty history.
#[test]
fn checkpoint_compaction_bounds_replay() {
    let eng = engine(SCC);
    let dir = temp_journal_dir("compact");
    let options = JournalOptions {
        checkpoint_every: 4,
        ..JournalOptions::default()
    };
    let service = fresh_service(&eng, &dir, options);
    for i in 0..10 {
        service.assert_facts(&format!("move(n0, k{i}).")).unwrap();
    }
    assert_eq!(service.version(), 10);
    let stats = service.journal_stats().unwrap();
    assert!(stats.checkpoints >= 2, "{stats:?}");
    assert!(stats.compacted_records >= 4, "{stats:?}");
    drop(service);

    let (checkpoints, wals) = journal_files(&dir);
    assert_eq!(checkpoints.len(), 1, "{checkpoints:?}");
    assert_eq!(wals.len(), 1, "{wals:?}");

    let recovered = Service::recover(&eng, &dir, ServiceOptions::default(), options).unwrap();
    assert_eq!(recovered.version(), 10);
    let stats = recovered.journal_stats().unwrap();
    // Versions 9 and 10 live past the version-8 checkpoint.
    assert_eq!(stats.records_replayed, 2, "{stats:?}");
    // History at and below the checkpoint is compacted away.
    assert!(matches!(
        recovered.changelog_since(0),
        Err(Error::VersionEvicted { .. })
    ));
    let tail = recovered.changelog_since(8).unwrap();
    assert_eq!(tail.len(), 2);
    assert_eq!(
        recovered.snapshot().truth("win", &["k9"]),
        afp::Truth::False
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The flagship differential: seeded write scripts crash at injected
/// points (before the append, or after the append but before publish);
/// recovery must land on pre-crash state (PreAppend: the in-flight
/// delta is lost) or pre-crash + the in-flight delta (PostAppend: its
/// record was already durable), with the changelog prefix-consistent
/// and the head model matching a cold solve either way.
fn crash_differential(semantics: Semantics, label: &str) {
    for (seed_idx, seed) in [0xDEAD_0001u64, 0xDEAD_0002, 0xDEAD_0003]
        .into_iter()
        .enumerate()
    {
        for point in [CrashPoint::PreAppend, CrashPoint::PostAppend] {
            let eng = engine(semantics);
            let dir = temp_journal_dir(&format!("crash-{label}-{seed_idx}-{point:?}"));
            let service = fresh_service(&eng, &dir, JournalOptions::default());
            let mut rng = Rng(seed);
            run_script(&service, &mut rng, 8 + (seed % 5) as usize);
            let pre_version = service.version();
            let pre_changelog = service.changelog().unwrap();

            // The crash op: the seam fires inside this write cycle, so
            // the writer thread panics and the submission is aborted.
            service.inject_crash_for_testing(Some(point));
            let crash_fact = FACT_POOL[(rng.next() % FACT_POOL.len() as u64) as usize];
            let outcome = service.assert_facts(crash_fact);
            assert_eq!(outcome, Err(Error::WriterAborted), "crash seam must abort");
            drop(service);

            let recovered = Service::recover(
                &eng,
                &dir,
                ServiceOptions::default(),
                JournalOptions::default(),
            )
            .unwrap();
            let recovered_version = recovered.version();
            match point {
                CrashPoint::PreAppend => assert_eq!(
                    recovered_version, pre_version,
                    "pre-append crash loses the in-flight delta"
                ),
                _ => assert_eq!(
                    recovered_version,
                    pre_version + 1,
                    "post-append crash preserves the durable record"
                ),
            }

            let changelog = recovered.changelog().unwrap();
            let common = pre_changelog.len().min(changelog.len());
            assert_eq!(
                &changelog[..common],
                &pre_changelog[..common],
                "recovered changelog must be prefix-consistent"
            );
            assert!(changelog.len() <= pre_changelog.len() + 1);
            if changelog.len() > pre_changelog.len() {
                let extra = changelog.last().unwrap();
                assert_eq!(extra.kind, DeltaKind::AssertFacts);
                assert_eq!(extra.version, pre_version + 1);
            }
            assert_head_matches_cold(&eng, &recovered, &changelog);

            // Post-recovery writes pick up where the journal left off.
            let v = recovered.assert_facts("bonus(j7).").unwrap();
            assert_eq!(v, recovered_version + 1);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// A cycle that panics after its journal append stops the writer: its
/// submission fails with `WriterAborted`, a later submission fails
/// without publishing, and the WAL holds the crashed delta's record
/// exactly once (no retry cycle re-appends it).
#[test]
fn post_append_panic_stops_the_writer_and_journals_the_delta_once() {
    let eng = engine(SCC);
    let dir = temp_journal_dir("post-append-once");
    let service = fresh_service(&eng, &dir, JournalOptions::default());
    assert_eq!(service.assert_facts(FACT_POOL[0]), Ok(1));

    service.inject_crash_for_testing(Some(CrashPoint::PostAppend));
    assert_eq!(
        service.assert_facts(FACT_POOL[1]),
        Err(Error::WriterAborted)
    );
    assert!(service.assert_facts(FACT_POOL[2]).is_err());
    assert_eq!(service.version(), 1, "nothing published after the crash");
    assert!(!service.writer_live());
    drop(service);

    let recovered = afp::journal::recover(&dir, JournalOptions::default()).unwrap();
    let records: Vec<(u64, &str)> = recovered
        .records
        .iter()
        .map(|r| (r.version, r.text.as_str()))
        .collect();
    assert_eq!(records, vec![(1, FACT_POOL[0]), (2, FACT_POOL[1])]);
    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crash_recovery_differential_scc() {
    crash_differential(SCC, "scc");
}

#[test]
fn crash_recovery_differential_global() {
    crash_differential(GLOBAL, "global");
}

/// A crash in the middle of writing a checkpoint file must not lose
/// anything: the previous checkpoint + full WAL still reconstruct the
/// head, and recovery deletes the torn checkpoint.
#[test]
fn mid_checkpoint_crash_preserves_previous_checkpoint() {
    let eng = engine(SCC);
    let dir = temp_journal_dir("midckpt");
    let service = fresh_service(&eng, &dir, JournalOptions::default());
    run_script(&service, &mut Rng(0xC4C4_0001), 6);
    service.checkpoint().unwrap();
    run_script(&service, &mut Rng(0xC4C4_0002), 5);
    let pre_version = service.version();

    service.inject_crash_for_testing(Some(CrashPoint::MidCheckpoint));
    let outcome = catch_unwind(AssertUnwindSafe(|| service.checkpoint()));
    assert!(outcome.is_err(), "mid-checkpoint seam must panic");
    drop(service);

    let (checkpoints, _) = journal_files(&dir);
    assert_eq!(
        checkpoints.len(),
        2,
        "torn checkpoint written: {checkpoints:?}"
    );

    let recovered = Service::recover(
        &eng,
        &dir,
        ServiceOptions::default(),
        JournalOptions::default(),
    )
    .unwrap();
    assert_eq!(recovered.version(), pre_version);
    // The surviving checkpoint bounds the visible changelog; the
    // differential uses whatever tail is retained.
    let tail = match recovered.changelog_since(0) {
        Ok(entries) => entries,
        Err(Error::VersionEvicted { retained_from, .. }) => {
            recovered.changelog_since(retained_from).unwrap()
        }
        Err(other) => panic!("{other}"),
    };
    assert!(!tail.is_empty() || pre_version == 0);

    let (checkpoints, _) = journal_files(&dir);
    assert_eq!(
        checkpoints.len(),
        1,
        "recovery must delete the torn checkpoint: {checkpoints:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Offsets of complete framed records in a WAL image (past the 8-byte
/// magic): `(start, total_len)` per record.
fn record_frames(bytes: &[u8]) -> Vec<(usize, usize)> {
    let mut frames = Vec::new();
    let mut off = 8;
    while off + 8 <= bytes.len() {
        let len = u32::from_be_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
        if off + 8 + len > bytes.len() {
            break;
        }
        frames.push((off, 8 + len));
        off += 8 + len;
    }
    frames
}

fn wal_file(dir: &Path) -> PathBuf {
    let (_, wals) = journal_files(dir);
    wals.into_iter().next_back().expect("a WAL file")
}

/// External damage to the WAL: a short write or a bit flip in the final
/// record is a torn tail (truncated, state rolls back one version); a
/// bit flip *before* a valid record is mid-journal corruption and
/// recovery refuses loudly.
#[test]
fn torn_tails_truncate_but_mid_journal_corruption_refuses() {
    let eng = engine(SCC);
    let dir = temp_journal_dir("damage");
    let service = fresh_service(&eng, &dir, JournalOptions::default());
    for i in 0..4 {
        service.assert_facts(&format!("move(n0, d{i}).")).unwrap();
    }
    drop(service);
    let wal = wal_file(&dir);
    let pristine = std::fs::read(&wal).unwrap();
    let frames = record_frames(&pristine);
    assert_eq!(frames.len(), 4);

    // Short write: chop into the last record.
    std::fs::write(&wal, &pristine[..pristine.len() - 3]).unwrap();
    let recovered = Service::recover(
        &eng,
        &dir,
        ServiceOptions::default(),
        JournalOptions::default(),
    )
    .unwrap();
    assert_eq!(recovered.version(), 3);
    assert_eq!(recovered.journal_stats().unwrap().torn_truncations, 1);
    assert_eq!(
        recovered.snapshot().truth("win", &["d3"]),
        afp::Truth::False
    );
    drop(recovered);

    // Bit flip in the last record's payload: no valid continuation, so
    // the torn-tail rule truncates it too.
    let mut tail_flip = pristine.clone();
    let (start, len) = *frames.last().unwrap();
    tail_flip[start + len - 1] ^= 0x20;
    std::fs::write(&wal, &tail_flip).unwrap();
    let recovered = Service::recover(
        &eng,
        &dir,
        ServiceOptions::default(),
        JournalOptions::default(),
    )
    .unwrap();
    assert_eq!(recovered.version(), 3);
    drop(recovered);

    // Restore, then flip a payload byte in the FIRST record: records
    // 1..3 still parse after it, so this is mid-journal damage — a
    // loud, typed error, never silent truncation.
    let mut mid_flip = pristine.clone();
    let (start, _) = frames[0];
    mid_flip[start + 8 + 8] ^= 0x20; // past the u64 version stamp
    std::fs::write(&wal, &mid_flip).unwrap();
    match Service::recover(
        &eng,
        &dir,
        ServiceOptions::default(),
        JournalOptions::default(),
    ) {
        Err(Error::JournalCorrupt { record, .. }) => assert_eq!(record, 0),
        Err(other) => panic!("wrong error: {other}"),
        Ok(_) => panic!("mid-journal corruption must refuse recovery"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every file of a journal directory, by name.
fn directory_bytes(dir: &Path) -> std::collections::BTreeMap<PathBuf, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| {
            let path = entry.unwrap().path();
            let bytes = std::fs::read(&path).unwrap();
            (path, bytes)
        })
        .collect()
}

/// Recovery is idempotent: the first recovery of a journal with a torn
/// tail truncates it; recovering the same directory again, with no
/// write in between, finds nothing to repair, lands on the same head
/// and leaves every file as it was.
#[test]
fn recovering_one_directory_twice_gives_the_same_head() {
    let eng = engine(SCC);
    let dir = temp_journal_dir("recover-twice");
    let options = JournalOptions {
        checkpoint_every: 4,
        ..JournalOptions::default()
    };
    let service = fresh_service(&eng, &dir, options);
    for i in 0..7 {
        service.assert_facts(&format!("move(n0, r{i}).")).unwrap();
    }
    assert!(service.journal_stats().unwrap().checkpoints >= 1);
    drop(service);

    // Short write: chop into the WAL's last record.
    let wal = wal_file(&dir);
    let pristine = std::fs::read(&wal).unwrap();
    assert_eq!(
        record_frames(&pristine).len(),
        3,
        "versions 5..=7 follow the checkpoint"
    );
    std::fs::write(&wal, &pristine[..pristine.len() - 3]).unwrap();

    let recover = || Service::recover(&eng, &dir, ServiceOptions::default(), options).unwrap();
    // History at and below the version-4 checkpoint is compacted, so
    // `changelog()` reports the same eviction both times; the entries
    // past the checkpoint must match too.
    let head = |service: &Service| {
        let snapshot = service.snapshot();
        (
            service.version(),
            format!("{:?}", service.changelog()),
            service.changelog_since(4).unwrap(),
            codec::model_json(snapshot.version(), snapshot.model()),
        )
    };

    let first = recover();
    assert_eq!(first.journal_stats().unwrap().torn_truncations, 1);
    let first_head = head(&first);
    assert_eq!(first_head.0, 6);
    assert_eq!(first_head.2.len(), 2);
    drop(first);

    let before = directory_bytes(&dir);
    let second = recover();
    assert_eq!(second.journal_stats().unwrap().torn_truncations, 0);
    assert_eq!(head(&second), first_head);
    drop(second);
    assert_eq!(
        directory_bytes(&dir),
        before,
        "a recovery with nothing to repair must not rewrite the journal"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every fsync policy recovers a cleanly closed journal; `Always` syncs
/// each cycle and `Never` leaves syncing to the OS.
#[test]
fn all_fsync_policies_recover() {
    for (label, fsync) in [
        ("always", FsyncPolicy::Always),
        ("every3", FsyncPolicy::EveryN(3)),
        ("never", FsyncPolicy::Never),
    ] {
        let eng = engine(SCC);
        let dir = temp_journal_dir(&format!("fsync-{label}"));
        let options = JournalOptions {
            fsync,
            ..JournalOptions::default()
        };
        let service = fresh_service(&eng, &dir, options);
        run_script(&service, &mut Rng(0xF5F5 ^ fsync_tag(fsync)), 10);
        let pre_version = service.version();
        let stats = service.journal_stats().unwrap();
        match fsync {
            FsyncPolicy::Always => assert!(stats.syncs >= 1, "always must sync: {stats:?}"),
            FsyncPolicy::Never => assert_eq!(stats.syncs, 0, "{stats:?}"),
            FsyncPolicy::EveryN(_) => {}
        }
        drop(service);

        let recovered = Service::recover(&eng, &dir, ServiceOptions::default(), options).unwrap();
        assert_eq!(recovered.version(), pre_version, "policy {label}");
        let changelog = recovered.changelog().unwrap();
        assert_head_matches_cold(&eng, &recovered, &changelog);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

fn fsync_tag(policy: FsyncPolicy) -> u64 {
    match policy {
        FsyncPolicy::Always => 1,
        FsyncPolicy::EveryN(n) => 100 + n as u64,
        FsyncPolicy::Never => 2,
    }
}

/// `Journal::exists` drives the CLI's fresh-vs-recover branch; creating
/// over an existing journal is refused.
#[test]
fn create_refuses_existing_journal_dir() {
    let eng = engine(SCC);
    let dir = temp_journal_dir("refuse");
    let service = fresh_service(&eng, &dir, JournalOptions::default());
    drop(service);
    assert!(Journal::exists(&dir));
    let session = eng.load(&base_src()).unwrap();
    match Service::with_journal(
        session,
        ServiceOptions::default(),
        &dir,
        JournalOptions::default(),
    ) {
        Err(Error::Journal(detail)) => assert!(detail.contains("already"), "{detail}"),
        Err(other) => panic!("wrong error: {other}"),
        Ok(_) => panic!("must refuse to overwrite an existing journal"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The WAL format is pinned: a fixed submission sequence, including a
/// coalesced cycle and a refused delta, writes exactly these bytes.
/// Each record is `[u32 len][u32 crc32][u64 version][u8 kind][text]`,
/// big-endian, and the text is the submitted text verbatim — a merged
/// run journals each member's own.
#[test]
fn wal_records_hold_the_submitted_text_byte_for_byte() {
    let eng = engine(SCC);
    let dir = temp_journal_dir("pin");
    let service = fresh_service(&eng, &dir, JournalOptions::default());
    assert_eq!(service.assert_facts("move(n2, n3)."), Ok(1));
    service.hold_writer(true);
    let handles = [
        (DeltaKind::AssertRules, "reach(X) :- move(n0, X)."),
        (
            DeltaKind::AssertRules,
            "reach(X)  :-  move(Y, X), reach(Y).",
        ),
        (DeltaKind::RetractFacts, "move(n2, n3)."),
    ]
    .map(|(kind, text)| service.submit(kind, text).unwrap());
    service.hold_writer(false);
    for handle in &handles {
        assert_eq!(handle.wait(), Ok(2));
    }
    assert!(service.assert_rules("r(X) :- not s(X).").is_err());
    assert_eq!(service.retract_rules("reach(X) :- move(n0, X)."), Ok(3));
    drop(service);

    let records: [(u64, u8, &str); 5] = [
        (1, 0, "move(n2, n3)."),
        (2, 2, "reach(X) :- move(n0, X)."),
        (2, 2, "reach(X)  :-  move(Y, X), reach(Y)."),
        (2, 1, "move(n2, n3)."),
        (3, 3, "reach(X) :- move(n0, X)."),
    ];
    let mut expected = b"AFPWAL1\n".to_vec();
    for (version, kind, text) in records {
        let mut payload = version.to_be_bytes().to_vec();
        payload.push(kind);
        payload.extend_from_slice(text.as_bytes());
        expected.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        expected.extend_from_slice(&afp::journal::crc32(&payload).to_be_bytes());
        expected.extend_from_slice(&payload);
    }
    assert_eq!(std::fs::read(wal_file(&dir)).unwrap(), expected);

    // The same bytes replay to the same history.
    let recovered = Service::recover(
        &eng,
        &dir,
        ServiceOptions::default(),
        JournalOptions::default(),
    )
    .unwrap();
    assert_eq!(recovered.version(), 3);
    let log = recovered.changelog().unwrap();
    let replayed: Vec<(u64, &str)> = log.iter().map(|e| (e.version, e.text.as_str())).collect();
    let written: Vec<(u64, &str)> = records.iter().map(|&(v, _, t)| (v, t)).collect();
    assert_eq!(replayed, written);
    assert_head_matches_cold(&eng, &recovered, &log);
    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);
}
