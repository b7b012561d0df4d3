//! Wire-level differential acceptance suite for `afp::net`.
//!
//! The contract under test extends `tests/service.rs` across the
//! network: **every model a client observes over the framed TCP or
//! unix-socket transport assigns every atom the same truth value as a
//! fresh cold `Engine::load` solve of that exact program version**, no
//! matter how N connections interleave reads and writes, under both
//! well-founded strategies. The service changelog provides the
//! version → program-text mapping the cold side replays, and
//! `codec::model_json` is the canonical rendering both sides share
//! (compared minus the false-set enumeration — see [`comparable`]).
//!
//! Alongside the differential, the backpressure contract is pinned at
//! the wire: a full queue answers with an `overloaded` error frame
//! immediately, a queued deadline expires into a `submit-timeout`
//! frame without applying, and drain-shutdown resolves every accepted
//! submission with its real result before the writer stops.

use afp::net::codec::{self, read_frame, write_frame, DEFAULT_MAX_FRAME_LEN};
use afp::{
    DeltaKind, Engine, NetOptions, NetServer, Semantics, ServiceOptions, Shutdown, Strategy,
    WfStrategy,
};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::thread;
use std::time::Duration;

const SCC: Semantics = Semantics::WellFounded {
    strategy: WfStrategy::SccStratified,
};
const GLOBAL: Semantics = Semantics::WellFounded {
    strategy: WfStrategy::Global(Strategy::Naive),
};

/// Deterministic xorshift for per-connection scripts.
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

/// Rules shared across versions; only connection 0 asserts/retracts
/// these, so its local ledger tracks their liveness exactly.
const RULE_POOL: &[&str] = &[
    "reach(X) :- move(n0, X).",
    "reach(X) :- move(Y, X), reach(Y).",
    "trapped(X) :- move(X, Y), not win(Y), not reach(Y).",
    "p :- not q.",
    "q :- not p.",
];

/// Facts namespaced by connection, so each connection's retracts only
/// ever touch facts it asserted itself — liveness stays exact under
/// arbitrary interleaving.
fn fact_pool(conn: usize) -> Vec<String> {
    vec![
        format!("move(n0, c{conn}a)."),
        format!("move(c{conn}a, c{conn}b)."),
        format!("move(c{conn}b, c{conn}c)."),
        format!("bonus(c{conn}a)."),
        format!("bonus(c{conn}c)."),
    ]
}

/// Rebuild the program text of `version` from the service changelog:
/// the base program plus every applied delta with version ≤ `version`,
/// replayed as set updates.
fn reconstruct(changelog: &[afp::AppliedDelta], version: u64) -> String {
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

trait Stream: Read + Write + Send {}
impl<T: Read + Write + Send> Stream for T {}

/// One request frame out, one response frame back.
fn send(conn: &mut dyn Stream, line: &str) -> String {
    write_frame(conn, line.as_bytes()).expect("request frame");
    let payload = read_frame(conn, DEFAULT_MAX_FRAME_LEN)
        .expect("transport intact")
        .expect("response frame");
    String::from_utf8(payload).expect("utf-8 response")
}

fn version_of(model_json: &str) -> u64 {
    let rest = model_json
        .strip_prefix("{\"version\":")
        .unwrap_or_else(|| panic!("not a model response: {model_json}"));
    rest[..rest.find(',').unwrap()].parse().unwrap()
}

/// Strip the `"false"` list from a model rendering before comparing.
/// A warm session keeps retracted facts' atoms in its Herbrand base
/// (as false) while a cold load never saw them — every *truth value*
/// agrees (closed world: absent = false) but the false-set enumeration
/// differs by construction. Version, semantics, totality, and the true
/// and undefined sets remain, which determine every atom's truth.
fn comparable(model_json: &str) -> String {
    let start = model_json.find(",\"false\":[").expect("false list");
    let end = start + model_json[start..].find(']').expect("list close") + 1;
    format!("{}{}", &model_json[..start], &model_json[end..])
}

/// The flagship wire differential: N client connections run seeded
/// mixed read/write scripts against one served program; every `model`
/// frame any client ever received must equal the canonical rendering of
/// a cold solve of that version's reconstructed program.
fn wire_differential(semantics: Semantics, label: &str, unix: bool) {
    let engine = Engine::builder().semantics(semantics).build();
    let service = afp::Service::new(engine.load(&base_src()).unwrap()).unwrap();
    let socket_path =
        std::env::temp_dir().join(format!("afp-wire-{label}-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&socket_path);
    let server = if unix {
        NetServer::bind_unix(service.clone(), &socket_path, NetOptions::default()).unwrap()
    } else {
        NetServer::bind_tcp(service.clone(), "127.0.0.1:0", NetOptions::default()).unwrap()
    };
    let addr = server.addr().to_string();

    const CONNS: usize = 3;
    const STEPS: usize = 16;
    let observations: Vec<Vec<String>> = thread::scope(|s| {
        let handles: Vec<_> = (0..CONNS)
            .map(|c| {
                let addr = &addr;
                s.spawn(move || {
                    let mut conn: Box<dyn Stream> = if unix {
                        Box::new(UnixStream::connect(addr).unwrap())
                    } else {
                        Box::new(TcpStream::connect(addr).unwrap())
                    };
                    let pool = fact_pool(c);
                    let mut rng = Rng(0x5EED ^ ((c as u64 + 1) << 32));
                    let mut live_facts: Vec<&str> = Vec::new();
                    let mut live_rules: Vec<&str> = Vec::new();
                    let mut seen = Vec::new();
                    for _ in 0..STEPS {
                        match rng.next() % 6 {
                            0 | 1 => {
                                let fact = pool[(rng.next() % pool.len() as u64) as usize].as_str();
                                let resp = send(&mut *conn, &format!("assert-facts {fact}"));
                                assert!(resp.starts_with("{\"ok\":true,"), "{resp}");
                                if !live_facts.contains(&fact) {
                                    live_facts.push(fact);
                                }
                            }
                            2 => {
                                if let Some(&fact) = {
                                    let len = live_facts.len();
                                    (len > 0)
                                        .then(|| &live_facts[(rng.next() % len as u64) as usize])
                                } {
                                    let resp = send(&mut *conn, &format!("retract-facts {fact}"));
                                    assert!(resp.starts_with("{\"ok\":true,"), "{resp}");
                                    live_facts.retain(|&f| f != fact);
                                }
                            }
                            3 if c == 0 => {
                                let rule =
                                    RULE_POOL[(rng.next() % RULE_POOL.len() as u64) as usize];
                                let resp = send(&mut *conn, &format!("assert {rule}"));
                                assert!(resp.starts_with("{\"ok\":true,"), "{resp}");
                                if !live_rules.contains(&rule) {
                                    live_rules.push(rule);
                                }
                            }
                            4 if c == 0 => {
                                if let Some(&rule) = {
                                    let len = live_rules.len();
                                    (len > 0)
                                        .then(|| &live_rules[(rng.next() % len as u64) as usize])
                                } {
                                    let resp = send(&mut *conn, &format!("retract {rule}"));
                                    assert!(resp.starts_with("{\"ok\":true,"), "{resp}");
                                    live_rules.retain(|&r| r != rule);
                                }
                            }
                            _ => seen.push(send(&mut *conn, "model")),
                        }
                    }
                    // One final read of the settled head, then a clean quit.
                    seen.push(send(&mut *conn, "model"));
                    write_frame(&mut *conn, b"quit").unwrap();
                    seen
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Cold-verify every model frame any connection received.
    let changelog = service.changelog().unwrap();
    let mut cold: HashMap<u64, String> = HashMap::new();
    let mut checked = 0usize;
    for observed in observations.iter().flatten() {
        let version = version_of(observed);
        let expected = cold.entry(version).or_insert_with(|| {
            let cold_model = engine.solve(&reconstruct(&changelog, version)).unwrap();
            comparable(&codec::model_json(version, &cold_model))
        });
        assert_eq!(
            &comparable(observed),
            expected,
            "wire model of version {version} diverged from its cold solve ({label})"
        );
        checked += 1;
    }
    assert!(checked > 0, "connections observed nothing ({label})");

    let m = service.metrics();
    assert_eq!(m.conns_accepted.get(), CONNS as u64, "({label})");
    assert!(m.frames_in.get() >= m.frames_out.get(), "({label})");
    server.shutdown();
    service.shutdown(Shutdown::Drain);
    let _ = std::fs::remove_file(&socket_path);
}

#[test]
fn tcp_models_match_cold_solves_of_their_version() {
    wire_differential(SCC, "tcp-scc", false);
    wire_differential(GLOBAL, "tcp-global", false);
}

#[test]
fn unix_models_match_cold_solves_of_their_version() {
    wire_differential(SCC, "unix-scc", true);
    wire_differential(GLOBAL, "unix-global", true);
}

const SERVE_SRC: &str = "wins(X) :- move(X, Y), not wins(Y). move(a, b). move(b, a). move(b, c).";

fn serve_with(options: ServiceOptions) -> (afp::Service, NetServer) {
    let service =
        afp::Service::with_options(Engine::default().load(SERVE_SRC).unwrap(), options).unwrap();
    let server =
        NetServer::bind_tcp(service.clone(), "127.0.0.1:0", NetOptions::default()).unwrap();
    (service, server)
}

/// Backpressure at the wire: a full queue answers `overloaded`
/// immediately — the client gets an error frame, not a stalled
/// connection — and the queued work still completes once the writer
/// catches up.
#[test]
fn wire_overload_rejection_is_immediate_and_structured() {
    let (service, server) = serve_with(ServiceOptions {
        queue_depth: 1,
        submit_deadline: None,
        ..ServiceOptions::default()
    });
    let mut conn = TcpStream::connect(server.addr()).unwrap();

    service.hold_writer(true);
    let queued = service
        .submit(DeltaKind::AssertFacts, "move(c, d).")
        .unwrap();
    let resp = send(&mut conn, "assert-facts move(d, e).");
    assert!(
        resp.starts_with("{\"error\":{\"kind\":\"overloaded\""),
        "{resp}"
    );
    service.hold_writer(false);
    assert_eq!(
        queued.wait().unwrap(),
        1,
        "held work completes after release"
    );

    // The connection survived the rejection and the service still accepts.
    let resp = send(&mut conn, "assert-facts move(d, e).");
    assert!(resp.starts_with("{\"ok\":true,"), "{resp}");
    assert!(service.metrics().overloaded.get() >= 1);
    server.shutdown();
    service.shutdown(Shutdown::Drain);
}

/// A queued submission's deadline fires while it waits: the client gets
/// a `submit-timeout` error frame and the delta is never applied.
#[test]
fn wire_submission_deadline_expires_without_applying() {
    let (service, server) = serve_with(ServiceOptions {
        queue_depth: 8,
        submit_deadline: Some(Duration::from_millis(25)),
        ..ServiceOptions::default()
    });
    let mut conn = TcpStream::connect(server.addr()).unwrap();

    service.hold_writer(true);
    write_frame(&mut conn, b"assert-facts move(c, d).").unwrap();
    thread::sleep(Duration::from_millis(80));
    service.hold_writer(false);
    let resp = String::from_utf8(
        read_frame(&mut conn, DEFAULT_MAX_FRAME_LEN)
            .unwrap()
            .expect("timeout frame"),
    )
    .unwrap();
    assert!(
        resp.starts_with("{\"error\":{\"kind\":\"submit-timeout\""),
        "{resp}"
    );
    assert_eq!(service.version(), 0, "expired delta never applied");
    assert!(service.metrics().timed_out.get() >= 1);
    server.shutdown();
    service.shutdown(Shutdown::Drain);
}

/// Drain shutdown with a wire submission in flight: the accepted delta
/// runs to completion and its client receives the real result; later
/// submissions get `service-stopped`.
#[test]
fn wire_drain_shutdown_resolves_accepted_work() {
    let (service, server) = serve_with(ServiceOptions::default());
    let mut conn = TcpStream::connect(server.addr()).unwrap();

    service.hold_writer(true);
    write_frame(&mut conn, b"assert-facts move(c, d).").unwrap();
    // Wait until the submission is actually queued (not just written to
    // the socket) so the drain provably covers it.
    while service.metrics().queue_depth.get() == 0 {
        thread::yield_now();
    }
    service.shutdown(Shutdown::Drain);
    let resp = String::from_utf8(
        read_frame(&mut conn, DEFAULT_MAX_FRAME_LEN)
            .unwrap()
            .expect("drained result frame"),
    )
    .unwrap();
    assert_eq!(
        resp, "{\"ok\":true,\"version\":1}",
        "drained work publishes"
    );
    assert_eq!(service.version(), 1);

    let resp = send(&mut conn, "assert-facts move(d, e).");
    assert!(
        resp.starts_with("{\"error\":{\"kind\":\"service-stopped\""),
        "{resp}"
    );
    server.shutdown();
}

/// The changelog crosses the wire: `log SINCE` returns exactly the
/// entries after the anchor, and reads behind the retention horizon
/// come back as structured `version-evicted` errors, not silently
/// truncated history.
#[test]
fn wire_changelog_and_eviction_are_structured() {
    let service = afp::Service::with_options(
        Engine::default().load(SERVE_SRC).unwrap(),
        ServiceOptions {
            cache_capacity: 2,
            changelog_capacity: 2,
            ..ServiceOptions::default()
        },
    )
    .unwrap();
    let server =
        NetServer::bind_tcp(service.clone(), "127.0.0.1:0", NetOptions::default()).unwrap();
    let mut conn = TcpStream::connect(server.addr()).unwrap();

    for i in 0..4 {
        let resp = send(&mut conn, &format!("assert-facts move(x{i}, y{i})."));
        assert!(resp.starts_with("{\"ok\":true,"), "{resp}");
    }
    // Versions 1..2 were evicted from the changelog (capacity 2).
    let resp = send(&mut conn, "log");
    assert!(
        resp.starts_with("{\"error\":{\"kind\":\"version-evicted\""),
        "{resp}"
    );
    let resp = send(&mut conn, "log 2");
    assert_eq!(
        resp,
        "{\"changelog\":[\
         {\"version\":3,\"kind\":\"assert-facts\",\"text\":\"move(x2, y2).\"},\
         {\"version\":4,\"kind\":\"assert-facts\",\"text\":\"move(x3, y3).\"}]}"
    );
    let resp = send(&mut conn, "at 1 wins(b)");
    assert!(
        resp.starts_with("{\"error\":{\"kind\":\"version-evicted\""),
        "{resp}"
    );
    server.shutdown();
    service.shutdown(Shutdown::Drain);
}

/// `ping` is a readiness probe: it reports the current version plus
/// writer liveness over the wire, and liveness flips to `false` once
/// the writer stops — so a load balancer can tell a read-only survivor
/// from a fully live server.
#[test]
fn wire_ping_reports_version_and_writer_liveness() {
    let (service, server) = serve_with(ServiceOptions::default());
    let mut conn = TcpStream::connect(server.addr()).unwrap();

    let resp = send(&mut conn, "ping");
    assert!(
        resp.starts_with("{\"pong\":true,\"version\":0,\"writer_live\":true,\"uptime_ms\":"),
        "{resp}"
    );

    let resp = send(&mut conn, "assert-facts move(c, d).");
    assert!(resp.starts_with("{\"ok\":true,"), "{resp}");
    let resp = send(&mut conn, "ping");
    assert!(
        resp.starts_with("{\"pong\":true,\"version\":1,\"writer_live\":true,\"uptime_ms\":"),
        "{resp}"
    );

    // After the writer stops, reads (including ping) still answer, but
    // liveness is reported honestly.
    service.shutdown(Shutdown::Drain);
    let resp = send(&mut conn, "ping");
    assert!(
        resp.starts_with("{\"pong\":true,\"version\":1,\"writer_live\":false,\"uptime_ms\":"),
        "{resp}"
    );
    server.shutdown();
}

/// A finished connection is released: 50 sequential connect, `version`,
/// close cycles leave the server holding no stream clone and no
/// connection thread, and the process as many open files as before.
/// The cycles run alone in a child process of this test binary, so the
/// sockets of tests running beside this one cannot move the count.
#[test]
fn finished_connections_are_released() {
    let child = std::process::Command::new(std::env::current_exe().unwrap())
        .args(["--exact", "connection_cycles_release_their_files"])
        .args(["--ignored", "--test-threads", "1"])
        .output()
        .expect("run the cycles in a child process");
    assert!(
        child.status.success(),
        "{}{}",
        String::from_utf8_lossy(&child.stdout),
        String::from_utf8_lossy(&child.stderr)
    );
}

#[test]
#[ignore = "run alone, in a child process, by finished_connections_are_released"]
fn connection_cycles_release_their_files() {
    let (service, server) = serve_with(ServiceOptions::default());
    let open_files = || std::fs::read_dir("/proc/self/fd").unwrap().count();
    let cycle = || {
        let mut conn = TcpStream::connect(server.addr()).unwrap();
        assert_eq!(send(&mut conn, "version"), "{\"version\":0}");
    };
    let released = || {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while server.held_for_testing() != (0, 0) {
            assert!(
                std::time::Instant::now() < deadline,
                "still held (stream clones, threads): {:?}",
                server.held_for_testing()
            );
            thread::sleep(Duration::from_millis(5));
        }
    };
    // One cycle first, so whatever the process opens once is in the
    // baseline.
    cycle();
    released();
    let baseline = open_files();
    for _ in 0..50 {
        cycle();
    }
    released();
    let after = open_files();
    assert!(
        after.abs_diff(baseline) <= 2,
        "{baseline} open files before the cycles, {after} after"
    );
    assert_eq!(service.metrics().conns_open.get(), 0);
    server.shutdown();
    service.shutdown(Shutdown::Drain);
}
