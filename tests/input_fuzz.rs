//! Seeded mutation loops over the two remaining parsers on a trust
//! boundary: the journal decoder behind crash recovery and the program
//! parser behind `Engine::load` and every delta.
//!
//! Each loop damages valid input — flipped bytes, truncations, inserted
//! punctuation, repeated and spliced slices, rewritten length prefixes —
//! and requires `Ok` or a structured `Err`, never a panic, within a
//! bounded time per case. A program that parses must also survive the
//! checkpoint round trip: its rendering parses back to the same
//! statements.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use afp::datalog::parse_program;
use afp::journal::{self, FsyncPolicy, Journal, JournalOptions};
use afp::DeltaKind;

/// Cases per loop.
const CASES: usize = 10_000;
/// No single case may take longer than this.
const CASE_BOUND: Duration = Duration::from_secs(5);

/// Deterministic xorshift, so every case is reproducible from its seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// Bytes the grammars give meaning to, so mutations hit the parsers'
/// decision points more often than uniform noise would.
const PUNCTUATION: &[u8] = b"().,:-'%\\~ \n\tXabf0_";

/// Damage `bytes` in place with one to three random edits drawn from
/// `corpus` for splices.
fn mutate(bytes: &mut Vec<u8>, corpus: &[Vec<u8>], rng: &mut Rng) {
    for _ in 0..1 + rng.below(3) {
        match rng.below(6) {
            0 if !bytes.is_empty() => {
                let i = rng.below(bytes.len());
                bytes[i] ^= 1 + rng.below(255) as u8;
            }
            1 => bytes.truncate(rng.below(bytes.len() + 1)),
            2 => {
                let c = PUNCTUATION[rng.below(PUNCTUATION.len())];
                bytes.insert(rng.below(bytes.len() + 1), c);
            }
            3 if !bytes.is_empty() => {
                // Repeat a short slice many times: deep nesting, long
                // bodies and runs of separators.
                let start = rng.below(bytes.len());
                let end = (start + 1 + rng.below(8)).min(bytes.len());
                let slice = bytes[start..end].to_vec();
                let times = 1 << rng.below(13);
                let at = rng.below(bytes.len() + 1);
                let repeated: Vec<u8> = slice
                    .iter()
                    .copied()
                    .cycle()
                    .take(slice.len() * times)
                    .collect();
                bytes.splice(at..at, repeated);
            }
            4 => {
                let other = &corpus[rng.below(corpus.len())];
                let from = rng.below(other.len() + 1);
                let at = rng.below(bytes.len() + 1);
                bytes.splice(at..at, other[from..].iter().copied());
            }
            _ if bytes.len() >= 8 => {
                // Rewrite a big-endian u32 somewhere: a length prefix or
                // a checksum when the input is a journal file.
                let at = rng.below(bytes.len() - 3);
                let value = match rng.below(3) {
                    0 => rng.below(64) as u32,
                    1 => rng.next() as u32,
                    _ => u32::MAX - rng.below(1 << 16) as u32,
                };
                bytes[at..at + 4].copy_from_slice(&value.to_be_bytes());
            }
            _ => {}
        }
    }
}

const PROGRAMS: &[&str] = &[
    "wins(X) :- move(X, Y), not wins(Y).\nmove(a, b). move(b, a). move(b, c).\n",
    "p :- not q. q :- not p. r :- p. r :- q. s :- not r.",
    "a(K) :- e(K), not b(K). b(K) :- e(K), not a(K), not c(K). c(K) :- d(K). e(k0). d(k0).",
    "p(f(X)) :- p(X), not q(g(X, a)). p(z). q('two words').",
    "reach(X) :- move(n0, X). % a comment\nreach(X) :- move(Y, X), reach(Y).",
    "p :- \\+ q. q :- ~r. r ← ¬p. s(1, 2, 3).",
    "u(X) :- not q(X). q(a). q(h(a, b)).",
];

#[test]
fn mutated_programs_parse_or_err() {
    let corpus: Vec<Vec<u8>> = PROGRAMS.iter().map(|p| p.as_bytes().to_vec()).collect();
    let mut rng = Rng(0x0dd5_eed5_1234_abcd);
    let (mut parsed, mut slowest) = (0usize, Duration::ZERO);
    for case in 0..CASES {
        let mut bytes = corpus[rng.below(corpus.len())].clone();
        mutate(&mut bytes, &corpus, &mut rng);
        let text = String::from_utf8_lossy(&bytes).into_owned();
        let started = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let Ok(program) = parse_program(&text) else {
                return false;
            };
            // Checkpoints store the rendering; recovery parses it back.
            let rendered = program.to_text();
            let again = parse_program(&rendered)
                .unwrap_or_else(|e| panic!("rendering {rendered:?} does not parse: {e}"));
            assert_eq!(again.to_text(), rendered, "rendering is a fixpoint");
            true
        }));
        slowest = slowest.max(started.elapsed());
        match outcome {
            Ok(ok) => parsed += usize::from(ok),
            Err(_) => panic!("case {case} panicked on {text:?}"),
        }
    }
    assert!(slowest < CASE_BOUND, "slowest case took {slowest:?}");
    // The mutations must leave a share of valid programs, or the loop
    // would only ever exercise the first error path.
    assert!(parsed > CASES / 20, "only {parsed} of {CASES} cases parsed");
}

/// A scratch directory unique to this process and test.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("afp-fuzz-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn options() -> JournalOptions {
    JournalOptions {
        fsync: FsyncPolicy::Never,
        ..JournalOptions::default()
    }
}

/// A valid journal's files: a checkpoint at version 2 and the WAL after
/// it, as `(file name, bytes)`.
fn journal_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut journal = Journal::create(dir, options(), PROGRAMS[0]).unwrap();
    journal
        .append(1, DeltaKind::AssertFacts, "move(c, d).")
        .unwrap();
    journal
        .append(2, DeltaKind::RetractFacts, "move(b, a).")
        .unwrap();
    journal.checkpoint(2, PROGRAMS[0], false).unwrap();
    journal
        .append(3, DeltaKind::AssertRules, "wins(X) :- bonus(X).")
        .unwrap();
    journal
        .append(4, DeltaKind::RetractRules, "wins(X) :- bonus(X).")
        .unwrap();
    journal
        .append(5, DeltaKind::AssertFacts, "move(d, e). move(e, f).")
        .unwrap();
    drop(journal);
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            (
                e.file_name().into_string().unwrap(),
                std::fs::read(e.path()).unwrap(),
            )
        })
        .collect();
    files.sort();
    files
}

#[test]
fn mutated_journals_recover_or_err() {
    let valid = scratch("valid");
    let files = journal_files(&valid);
    assert_eq!(files.len(), 2, "one checkpoint and one wal: {files:?}");
    let recovered = journal::recover(&valid, options()).unwrap();
    assert_eq!(
        recovered.records.len(),
        3,
        "the undamaged journal replays its tail"
    );
    drop(recovered);

    let corpus: Vec<Vec<u8>> = files.iter().map(|(_, b)| b.clone()).collect();
    let case_dir = scratch("case");
    let mut rng = Rng(0x00c0_ffee_d00d_5eed);
    let (mut recovered, mut slowest) = (0usize, Duration::ZERO);
    for case in 0..CASES {
        let _ = std::fs::remove_dir_all(&case_dir);
        std::fs::create_dir_all(&case_dir).unwrap();
        // Damage one file, sometimes both.
        let target = rng.below(files.len());
        let both = rng.below(4) == 0;
        for (i, (name, bytes)) in files.iter().enumerate() {
            let mut bytes = bytes.clone();
            if i == target || both {
                mutate(&mut bytes, &corpus, &mut rng);
            }
            std::fs::write(case_dir.join(name), &bytes).unwrap();
        }
        let started = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            journal::recover(&case_dir, options()).is_ok()
        }));
        slowest = slowest.max(started.elapsed());
        match outcome {
            Ok(ok) => recovered += usize::from(ok),
            Err(_) => panic!("case {case} panicked (seeded loop, reproducible)"),
        }
    }
    let _ = std::fs::remove_dir_all(&case_dir);
    let _ = std::fs::remove_dir_all(&valid);
    assert!(slowest < CASE_BOUND, "slowest case took {slowest:?}");
    assert!(
        recovered > 0 && recovered < CASES,
        "{recovered} of {CASES} recovered"
    );
}
