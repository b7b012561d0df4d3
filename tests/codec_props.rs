//! Property tests for the shared protocol codec: the command grammar
//! and the frame layer are each other's inverses.
//!
//! `parse_command(render_command(r)) == r` for every representable
//! [`Request`], and `read_frame(write_frame(b)) == b` for arbitrary
//! payloads — including the empty payload and both sides of the
//! max-frame boundary, pinned by plain tests below (the vendored
//! proptest shim generates uniformly, so exact boundary values would
//! be astronomically unlikely to come up by chance).
//!
//! The shim has no string strategies, so atom and program texts are
//! built from small integers via `prop_map` — which also keeps every
//! generated `query`/`at` operand inside the ground-atom sublanguage
//! `parse_command` itself validates.
//!
//! The parsers also sit on a trust boundary, so a seeded mutation loop
//! feeds them damaged input: valid rendered commands and frames with
//! flipped bytes, truncations and rewritten length prefixes. Each case
//! must come back as `Ok` or `Err`, never a panic, and an oversized
//! length prefix must be refused before its payload is allocated.

use afp::net::codec::{
    parse_command, read_frame, render_command, write_frame, Request, DEFAULT_MAX_FRAME_LEN,
};
use afp::DeltaKind;
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The system allocator, recording the largest single request made on
/// each thread so a test can bound what one call allocated.
struct LargestAlloc;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = LARGEST.try_with(|c| c.set(c.get().max(size)));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the thread-local bookkeeping is const-initialized and never
// allocates.
unsafe impl GlobalAlloc for LargestAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: LargestAlloc = LargestAlloc;

/// A ground atom in canonical spelling: `p2`, `p0(c1)`, `p4(c0, c3)`…
fn atom() -> impl Strategy<Value = String> {
    (0u8..6, 0usize..3).prop_flat_map(|(pred, arity)| {
        proptest::collection::vec(0u8..8, arity).prop_map(move |args| {
            if args.is_empty() {
                format!("p{pred}")
            } else {
                let args: Vec<String> = args.iter().map(|c| format!("c{c}")).collect();
                format!("p{pred}({})", args.join(", "))
            }
        })
    })
}

/// Submission text: one or more statements on one line. `parse_command`
/// stores it verbatim (trimmed), so the property needs no trailing
/// whitespace and no newlines — which this construction guarantees.
fn submit_text() -> impl Strategy<Value = String> {
    proptest::collection::vec((0u8..6, 0u8..6), 1..4).prop_map(|pairs| {
        let stmts: Vec<String> = pairs
            .iter()
            .map(|(a, b)| format!("edge(c{a}, c{b})."))
            .collect();
        stmts.join(" ")
    })
}

fn request() -> impl Strategy<Value = Request> {
    prop_oneof![
        atom().prop_map(|atom| Request::Query { atom }),
        (any::<u32>(), atom()).prop_map(|(version, atom)| Request::At {
            version: version as u64,
            atom,
        }),
        (0u8..4, submit_text()).prop_map(|(kind, text)| Request::Submit {
            kind: match kind {
                0 => DeltaKind::AssertFacts,
                1 => DeltaKind::RetractFacts,
                2 => DeltaKind::AssertRules,
                _ => DeltaKind::RetractRules,
            },
            text,
        }),
        any::<u32>().prop_map(|since| Request::Changelog {
            since: since as u64
        }),
        Just(Request::Model),
        Just(Request::Version),
        Just(Request::Stats),
        Just(Request::Metrics),
        Just(Request::Ping),
        Just(Request::Checkpoint),
        Just(Request::Quit),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn command_render_parse_round_trips(request in request()) {
        let line = render_command(&request);
        let reparsed = parse_command(&line);
        prop_assert_eq!(reparsed.as_ref(), Ok(&request), "line: {line:?}");
    }

    #[test]
    fn frame_write_read_round_trips(payload in proptest::collection::vec(any::<u8>(), 0..256)) {
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        prop_assert_eq!(wire.len(), 4 + payload.len());
        let mut reader: &[u8] = &wire;
        let back = read_frame(&mut reader, DEFAULT_MAX_FRAME_LEN).unwrap().unwrap();
        prop_assert_eq!(back, payload);
        // The reader stops exactly at the frame boundary…
        prop_assert!(reader.is_empty());
        // …so the next read is a clean EOF, not an error.
        prop_assert!(matches!(read_frame(&mut reader, DEFAULT_MAX_FRAME_LEN), Ok(None)));
    }

    #[test]
    fn back_to_back_frames_round_trip(
        first in proptest::collection::vec(any::<u8>(), 0..64),
        second in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut wire = Vec::new();
        write_frame(&mut wire, &first).unwrap();
        write_frame(&mut wire, &second).unwrap();
        let mut reader: &[u8] = &wire;
        prop_assert_eq!(read_frame(&mut reader, DEFAULT_MAX_FRAME_LEN).unwrap().unwrap(), first);
        prop_assert_eq!(read_frame(&mut reader, DEFAULT_MAX_FRAME_LEN).unwrap().unwrap(), second);
        prop_assert!(matches!(read_frame(&mut reader, DEFAULT_MAX_FRAME_LEN), Ok(None)));
    }
}

#[test]
fn empty_payload_round_trips() {
    let mut wire = Vec::new();
    write_frame(&mut wire, &[]).unwrap();
    assert_eq!(wire, [0, 0, 0, 0]);
    let mut reader: &[u8] = &wire;
    assert_eq!(
        read_frame(&mut reader, DEFAULT_MAX_FRAME_LEN)
            .unwrap()
            .unwrap(),
        Vec::<u8>::new()
    );
}

#[test]
fn max_frame_boundary_is_inclusive() {
    // Exactly at the cap: accepted.
    let payload = vec![0xA5u8; DEFAULT_MAX_FRAME_LEN as usize];
    let mut wire = Vec::new();
    write_frame(&mut wire, &payload).unwrap();
    let mut reader: &[u8] = &wire;
    let back = read_frame(&mut reader, DEFAULT_MAX_FRAME_LEN)
        .unwrap()
        .unwrap();
    assert_eq!(back.len(), payload.len());

    // One past the cap: the reader refuses before allocating.
    let mut wire = Vec::new();
    write_frame(&mut wire, &vec![0u8; DEFAULT_MAX_FRAME_LEN as usize + 1]).unwrap();
    let mut reader: &[u8] = &wire;
    let err = read_frame(&mut reader, DEFAULT_MAX_FRAME_LEN).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
}

#[test]
fn mid_frame_eof_is_an_error_not_a_clean_end() {
    let mut wire = Vec::new();
    write_frame(&mut wire, b"torn").unwrap();
    // Chop inside the payload.
    let mut reader: &[u8] = &wire[..wire.len() - 2];
    assert!(read_frame(&mut reader, DEFAULT_MAX_FRAME_LEN).is_err());
    // Chop inside the header.
    let mut reader: &[u8] = &wire[..2];
    let err = read_frame(&mut reader, DEFAULT_MAX_FRAME_LEN).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
}

/// `exit` is an accepted alias on the parse side only; the renderer
/// canonicalizes to `quit`. Pinned here so the round-trip property's
/// scope is explicit.
#[test]
fn exit_alias_parses_but_renders_as_quit() {
    assert_eq!(parse_command("exit"), Ok(Request::Quit));
    assert_eq!(render_command(&Request::Quit), "quit");
}

/// One valid request of every shape, the seed corpus for mutation.
fn corpus() -> Vec<String> {
    let requests = [
        Request::Query {
            atom: "wins(a)".into(),
        },
        Request::At {
            version: 42,
            atom: "p4(c0, c3)".into(),
        },
        Request::Submit {
            kind: DeltaKind::AssertFacts,
            text: "move(a, b). move(b, c).".into(),
        },
        Request::Submit {
            kind: DeltaKind::RetractRules,
            text: "wins(X) :- move(X, Y), not wins(Y).".into(),
        },
        Request::Changelog { since: 7 },
        Request::Model,
        Request::Version,
        Request::Stats,
        Request::Metrics,
        Request::Ping,
        Request::Checkpoint,
        Request::Quit,
    ];
    requests.iter().map(render_command).collect()
}

/// Deterministic xorshift, so every mutation case is reproducible.
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

/// Frame cap for the mutation loop: small, so rewritten prefixes land
/// on both sides of it.
const MUTATION_MAX_FRAME: u32 = 256;

/// Read every frame out of `wire` and parse each payload as lossy
/// UTF-8. Returns the number of frames read.
fn drain(wire: &[u8]) -> usize {
    let mut reader = wire;
    let mut frames = 0;
    while let Ok(Some(payload)) = read_frame(&mut reader, MUTATION_MAX_FRAME) {
        let _ = parse_command(&String::from_utf8_lossy(&payload));
        frames += 1;
    }
    frames
}

#[test]
fn mutated_commands_and_frames_never_panic() {
    const CASES: usize = 12_000;
    let corpus = corpus();
    let mut rng = Rng(0x5eed_c0de_cafe_f00d);
    let mut refused = 0usize;
    let mut frames = 0usize;
    for case in 0..CASES {
        let line = &corpus[rng.below(corpus.len())];
        let mut wire = Vec::new();
        write_frame(&mut wire, line.as_bytes()).unwrap();
        // A second frame behind the first, so a damaged prefix can
        // misalign the reader into it.
        if rng.below(2) == 0 {
            let next = &corpus[rng.below(corpus.len())];
            write_frame(&mut wire, next.as_bytes()).unwrap();
        }
        let mut oversized = None;
        for _ in 0..1 + rng.below(3) {
            match rng.below(3) {
                0 if !wire.is_empty() => {
                    let i = rng.below(wire.len());
                    wire[i] ^= 1 + rng.below(255) as u8;
                }
                1 => wire.truncate(rng.below(wire.len() + 1)),
                _ if wire.len() >= 4 => {
                    let len = match rng.below(3) {
                        0 => rng.below(MUTATION_MAX_FRAME as usize + 1) as u32,
                        1 => MUTATION_MAX_FRAME + 1 + rng.below(1 << 16) as u32,
                        _ => u32::MAX - rng.below(1 << 16) as u32,
                    };
                    wire[..4].copy_from_slice(&len.to_be_bytes());
                    oversized = (len > MUTATION_MAX_FRAME).then_some(len);
                }
                _ => {}
            }
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let _ = parse_command(&String::from_utf8_lossy(&wire[wire.len().min(4)..]));
            drain(&wire)
        }));
        match outcome {
            Ok(read) => frames += read,
            Err(_) => panic!("case {case} panicked on {wire:?}"),
        }

        // A prefix over the cap is refused from the header alone: the
        // reader stops after four bytes and nothing near the claimed
        // length is allocated.
        let header = wire
            .get(..4)
            .map(|h| u32::from_be_bytes(h.try_into().unwrap()));
        if let (Some(claimed), Some(header)) = (oversized, header) {
            if header == claimed {
                let mut reader: &[u8] = &wire;
                LARGEST.with(|c| c.set(0));
                let err = read_frame(&mut reader, MUTATION_MAX_FRAME).unwrap_err();
                let largest = LARGEST.with(|c| c.get());
                assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "case {case}");
                assert_eq!(
                    reader.len(),
                    wire.len() - 4,
                    "case {case} read past the header"
                );
                assert!(
                    largest < MUTATION_MAX_FRAME as usize,
                    "case {case}: refusing a {claimed}-byte frame allocated {largest} bytes"
                );
                refused += 1;
            }
        }
    }
    assert!(
        refused > CASES / 10,
        "only {refused} oversized prefixes exercised"
    );
    assert!(
        frames > CASES / 10,
        "only {frames} damaged frames reached the parser"
    );
}
