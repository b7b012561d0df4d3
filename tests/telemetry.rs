//! Integration tests for the telemetry tier: the `metrics` command over
//! every transport, the golden key-set pins for the `stats` and
//! `metrics` frame schemas, the Chrome trace stream, and the
//! phase-breakdown recording in the write cycle itself.
//!
//! The schema tests pin **key sets**, not values: adding a counter is a
//! deliberate schema change (update the lists here), renaming or
//! dropping one is a wire break this file catches.

use std::io::Write;
use std::process::{Command, Stdio};

use afp::{Engine, MetricsFormat, Service, Telemetry};

// ---------------------------------------------------------------------------
// Minimal JSON scanners (the repo speaks hand-rolled JSON; the tests
// read it the same way). Good enough for the engine's own output: keys
// are identifiers and values are numbers, strings without escapes,
// objects, or arrays.
// ---------------------------------------------------------------------------

/// Top-level keys of the JSON object starting at `obj[0] == '{'`.
fn object_keys(obj: &str) -> Vec<String> {
    let bytes = obj.as_bytes();
    assert_eq!(bytes.first(), Some(&b'{'), "not an object: {obj}");
    let mut keys = Vec::new();
    let mut depth = 0usize;
    let mut in_str = false;
    let mut str_start = 0usize;
    let mut last_str: Option<String> = None;
    for (i, &c) in bytes.iter().enumerate() {
        if in_str {
            if c == b'"' {
                in_str = false;
                last_str = Some(obj[str_start..i].to_string());
            }
            continue;
        }
        match c {
            b'"' => {
                in_str = true;
                str_start = i + 1;
            }
            b'{' | b'[' => depth += 1,
            b'}' | b']' => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            b':' if depth == 1 => {
                if let Some(k) = last_str.take() {
                    keys.push(k);
                }
            }
            _ => {}
        }
    }
    keys
}

/// The balanced object/array value of `"key":` inside `json`.
fn section<'a>(json: &'a str, key: &str) -> &'a str {
    let pat = format!("{key:?}:");
    let start = json
        .find(&pat)
        .unwrap_or_else(|| panic!("no {key} in {json}"))
        + pat.len();
    let bytes = json.as_bytes();
    let (open, close) = match bytes[start] {
        b'{' => (b'{', b'}'),
        b'[' => (b'[', b']'),
        other => panic!("{key} is not an object/array (starts {:?})", other as char),
    };
    let mut depth = 0usize;
    let mut in_str = false;
    for (i, &c) in bytes[start..].iter().enumerate() {
        if in_str {
            in_str = c != b'"';
            continue;
        }
        match c {
            b'"' => in_str = true,
            c if c == open => depth += 1,
            c if c == close => {
                depth -= 1;
                if depth == 0 {
                    return &json[start..=start + i];
                }
            }
            _ => {}
        }
    }
    panic!("unbalanced {key} in {json}")
}

fn sorted(mut v: Vec<String>) -> Vec<String> {
    v.sort();
    v
}

fn keys_of(json: &str, key: &str) -> Vec<String> {
    sorted(object_keys(section(json, key)))
}

// ---------------------------------------------------------------------------
// Golden key sets — the wire schema, pinned. Order-independent (sets),
// values unchecked.
// ---------------------------------------------------------------------------

const SESSION_KEYS: &[&str] = &[
    "asserts",
    "condensation_builds",
    "condensation_repairs",
    "delta_rounds",
    "last_components",
    "last_components_evaluated",
    "last_components_reused",
    "last_repair_atoms",
    "last_repair_edges",
    "last_seed_size",
    "regrounds",
    "restricted_cond_hits",
    "retracts",
    "rule_asserts",
    "rule_retracts",
    "scc_solves",
    "snapshot_clones",
    "snapshot_reuses",
    "solves",
    "warm_solves",
];

const SERVICE_KEYS: &[&str] = &[
    "cache_hits",
    "cache_misses",
    "changelog_evicted",
    "coalesced",
    "last_cycle_width",
    "max_cycle_width",
    "pins",
    "rejected",
    "submissions",
    "version",
    "write_cycles",
];

const NET_KEYS: &[&str] = &[
    "aborted",
    "completed",
    "conns_accepted",
    "conns_open",
    "conns_rejected",
    "frames_in",
    "frames_out",
    "last_cycle_width",
    "max_cycle_width",
    "overloaded",
    "queue_depth",
    "queue_depth_hwm",
    "submitted",
    "timed_out",
    "write_p50_us",
    "write_p99_us",
];

const HISTOGRAM_KEYS: &[&str] = &[
    "condense_ns",
    "cycle_total_ns",
    "fsync_ns",
    "ground_ns",
    "journal_append_ns",
    "publish_ns",
    "queue_wait_ns",
    "repair_ns",
    "request_ns",
    "solve_ns",
];

const COUNTER_KEYS: &[&str] = &["cycles", "slow_cycles", "trace_dropped"];

const GAUGE_KEYS: &[&str] = &["recent_cycles", "trace_buffered"];

fn assert_stats_schema(frame: &str) {
    assert_eq!(sorted(object_keys(frame)), vec!["net", "service", "stats"]);
    assert_eq!(keys_of(frame, "stats"), SESSION_KEYS, "{frame}");
    assert_eq!(keys_of(frame, "service"), SERVICE_KEYS, "{frame}");
    assert_eq!(keys_of(frame, "net"), NET_KEYS, "{frame}");
}

fn assert_metrics_schema(frame: &str) {
    assert_eq!(object_keys(frame), vec!["telemetry"], "{frame}");
    assert_eq!(
        keys_of(frame, "telemetry"),
        vec![
            "counters",
            "enabled",
            "format",
            "gauges",
            "histograms",
            "recent_cycles"
        ],
        "{frame}"
    );
    assert_eq!(keys_of(frame, "histograms"), HISTOGRAM_KEYS, "{frame}");
    assert_eq!(keys_of(frame, "counters"), COUNTER_KEYS, "{frame}");
    assert_eq!(keys_of(frame, "gauges"), GAUGE_KEYS, "{frame}");
    // Every histogram snapshot carries the full quantile set.
    assert_eq!(
        keys_of(section(frame, "histograms"), "cycle_total_ns"),
        vec!["count", "max", "p50", "p90", "p99", "sum"],
        "{frame}"
    );
}

// ---------------------------------------------------------------------------
// CLI harness (mirrors tests/cli.rs)
// ---------------------------------------------------------------------------

const SERVE_SRC: &str = "wins(X) :- move(X, Y), not wins(Y). move(a, b). move(b, a). move(b, c).";

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("afp-telemetry-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run_serve(tag: &str, args: &[&str], commands: &str) -> (String, String, Option<i32>) {
    let dir = temp_dir(tag);
    let file = dir.join("program.afp");
    std::fs::write(&file, SERVE_SRC).unwrap();
    let mut full: Vec<&str> = vec!["--serve"];
    full.extend_from_slice(args);
    let path = file.to_str().unwrap().to_string();
    full.push(&path);
    let mut child = Command::new(env!("CARGO_BIN_EXE_afp"))
        .args(&full)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let _ = child
        .stdin
        .as_mut()
        .expect("stdin piped")
        .write_all(commands.as_bytes());
    let out = child.wait_with_output().expect("wait");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code(),
    )
}

/// 4-byte big-endian length framing, by hand — the client-side spec of
/// the wire format (same as tests/cli.rs).
fn send(conn: &mut (impl std::io::Read + std::io::Write), line: &str) -> String {
    conn.write_all(&(line.len() as u32).to_be_bytes()).unwrap();
    conn.write_all(line.as_bytes()).unwrap();
    conn.flush().unwrap();
    let mut header = [0u8; 4];
    conn.read_exact(&mut header).unwrap();
    let mut payload = vec![0u8; u32::from_be_bytes(header) as usize];
    conn.read_exact(&mut payload).unwrap();
    String::from_utf8(payload).unwrap()
}

// ---------------------------------------------------------------------------
// Golden schema over TCP and unix — one process fronting both.
// ---------------------------------------------------------------------------

#[test]
fn stats_and_metrics_schemas_match_over_tcp_and_unix() {
    use std::io::{BufRead, BufReader};

    let dir = temp_dir("wire-schema");
    let file = dir.join("program.afp");
    std::fs::write(&file, SERVE_SRC).unwrap();
    let socket = dir.join("afp.sock");
    let _ = std::fs::remove_file(&socket);

    let mut child = Command::new(env!("CARGO_BIN_EXE_afp"))
        .args([
            "--serve",
            "--json",
            "--listen",
            "127.0.0.1:0",
            "--socket",
            socket.to_str().unwrap(),
            file.to_str().unwrap(),
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout piped"));

    let mut line = String::new();
    stdout.read_line(&mut line).unwrap();
    let addr = line
        .trim()
        .strip_prefix("{\"listening\":{\"transport\":\"tcp\",\"addr\":\"")
        .unwrap_or_else(|| panic!("bad announce line: {line}"))
        .strip_suffix("\"}}")
        .unwrap()
        .to_string();
    line.clear();
    stdout.read_line(&mut line).unwrap();
    assert!(line.starts_with("{\"listening\":{\"transport\":\"unix\","));

    let mut tcp = std::net::TcpStream::connect(&addr).unwrap();
    let mut unix = std::os::unix::net::UnixStream::connect(&socket).unwrap();

    // A write so the histograms have a recorded cycle behind them.
    assert_eq!(
        send(&mut tcp, "assert-facts move(c, d)."),
        "{\"ok\":true,\"version\":1}"
    );

    let tcp_stats = send(&mut tcp, "stats");
    let unix_stats = send(&mut unix, "stats");
    assert_stats_schema(&tcp_stats);
    assert_stats_schema(&unix_stats);

    let tcp_metrics = send(&mut tcp, "metrics");
    let unix_metrics = send(&mut unix, "metrics");
    assert_metrics_schema(&tcp_metrics);
    assert_metrics_schema(&unix_metrics);
    // Both transports expose the same registry: same schema, and the
    // recorded write cycle is visible from both sides.
    for frame in [&tcp_metrics, &unix_metrics] {
        assert!(frame.contains("\"enabled\":true"), "{frame}");
        let cycle = section(section(frame, "histograms"), "cycle_total_ns");
        assert!(cycle.contains("\"count\":1"), "{frame}");
        assert!(!cycle.contains("\"p50\":0,"), "cycle p50 empty: {frame}");
        assert!(!cycle.contains("\"p99\":0,"), "cycle p99 empty: {frame}");
    }
    // The per-request histogram is live on the wire path: the assert
    // and both stats requests were already recorded when this frame
    // rendered.
    assert!(
        !section(section(&tcp_metrics, "histograms"), "request_ns").contains("\"count\":0,"),
        "{tcp_metrics}"
    );

    drop(tcp);
    drop(unix);
    drop(child.stdin.take());
    assert_eq!(child.wait().expect("wait").code(), Some(0));
}

// ---------------------------------------------------------------------------
// metrics over stdin: JSON and Prometheus renderings
// ---------------------------------------------------------------------------

#[test]
fn metrics_over_stdin_reports_phase_histograms() {
    let (stdout, _, code) = run_serve(
        "stdin-json",
        &["--json"],
        "assert move(c, d).\nassert move(d, e).\nmetrics\nquit\n",
    );
    assert_eq!(code, Some(0));
    let frame = stdout
        .lines()
        .find(|l| l.starts_with("{\"telemetry\":"))
        .unwrap_or_else(|| panic!("no metrics frame: {stdout}"));
    assert_metrics_schema(frame);
    assert!(frame.contains("\"enabled\":true"), "{frame}");
    assert!(frame.contains("\"format\":\"json\""), "{frame}");
    // Two write cycles recorded, with live quantiles.
    assert!(frame.contains("\"cycles\":2"), "{frame}");
    let cycle = section(section(frame, "histograms"), "cycle_total_ns");
    assert!(cycle.contains("\"count\":2"), "{frame}");
    assert!(!cycle.contains("\"p50\":0,"), "{frame}");
    assert!(!cycle.contains("\"p99\":0,"), "{frame}");
    // The recent-cycle ring carries both breakdowns, newest last.
    // (Index past the identically-named gauge to the array itself.)
    let recent = &frame[frame.find("\"recent_cycles\":[").unwrap()..];
    assert!(recent.contains("\"version\":1,"), "{frame}");
    assert!(recent.contains("\"version\":2,"), "{frame}");
}

#[test]
fn metrics_format_prom_renders_prometheus_text() {
    let (stdout, _, code) = run_serve(
        "stdin-prom",
        &["--metrics-format", "prom"],
        "assert move(c, d).\nmetrics\nquit\n",
    );
    assert_eq!(code, Some(0));
    assert!(
        stdout.contains("# TYPE afp_cycles_total counter"),
        "{stdout}"
    );
    assert!(stdout.contains("afp_cycles_total 1"), "{stdout}");
    assert!(
        stdout.contains("# TYPE afp_cycle_total_ns summary"),
        "{stdout}"
    );
    assert!(
        stdout.contains("afp_cycle_total_ns{quantile=\"0.5\"}"),
        "{stdout}"
    );
    assert!(
        stdout.contains("afp_cycle_total_ns{quantile=\"0.99\"}"),
        "{stdout}"
    );
    assert!(stdout.contains("afp_cycle_total_ns_count 1"), "{stdout}");
    assert!(stdout.contains("afp_recent_cycles 1"), "{stdout}");
    // Every histogram is exported under its prefixed name.
    for name in HISTOGRAM_KEYS {
        assert!(
            stdout.contains(&format!("afp_{name}_sum")),
            "{name}: {stdout}"
        );
    }
}

/// The JSON metrics frame over stdin and over the wire expose the same
/// schema — one registry, one renderer, three transports.
#[test]
fn stdin_metrics_matches_wire_schema() {
    let (stdout, _, code) = run_serve("stdin-schema", &["--json"], "metrics\nquit\n");
    assert_eq!(code, Some(0));
    let frame = stdout
        .lines()
        .find(|l| l.starts_with("{\"telemetry\":"))
        .unwrap_or_else(|| panic!("no metrics frame: {stdout}"));
    assert_metrics_schema(frame);
}

// ---------------------------------------------------------------------------
// Trace stream and slow-cycle log
// ---------------------------------------------------------------------------

#[test]
fn trace_file_streams_chrome_trace_events() {
    let dir = temp_dir("trace");
    let trace = dir.join("trace.json");
    let _ = std::fs::remove_file(&trace);
    let (_, _, code) = run_serve(
        "trace-run",
        &["--trace", trace.to_str().unwrap()],
        "assert move(c, d).\nassert move(d, e).\nassert move(e, f).\nquit\n",
    );
    assert_eq!(code, Some(0));

    let body = std::fs::read_to_string(&trace).unwrap();
    // Chrome trace-event streaming format: `[` then comma-terminated
    // complete events, one per line; the closing `]` is optional.
    let mut lines = body.lines();
    assert_eq!(lines.next(), Some("["), "{body}");
    let events: Vec<&str> = lines.collect();
    // 8 events per write cycle (the cycle span + 7 phases), 3 cycles.
    assert_eq!(events.len(), 24, "{body}");
    for ev in &events {
        assert!(ev.starts_with('{'), "{ev}");
        assert!(ev.ends_with("},"), "{ev}");
        assert!(ev.contains("\"ph\":\"X\""), "{ev}");
        for field in [
            "\"name\":",
            "\"cat\":",
            "\"ts\":",
            "\"dur\":",
            "\"pid\":",
            "\"tid\":",
        ] {
            assert!(ev.contains(field), "{ev}");
        }
    }
    // Each cycle opens with its span, versions in publish order.
    for (version, chunk) in events.chunks(8).enumerate() {
        assert!(
            chunk[0].contains("\"name\":\"cycle\"")
                && chunk[0].contains(&format!("\"version\":{}", version + 1)),
            "{body}"
        );
        for (ev, name) in chunk[1..].iter().zip([
            "ground",
            "repair",
            "condense",
            "solve",
            "journal_append",
            "fsync",
            "publish",
        ]) {
            assert!(ev.contains(&format!("\"name\":{name:?}")), "{ev}");
        }
    }
}

#[test]
fn slow_cycle_threshold_logs_and_counts() {
    let (stdout, stderr, code) = run_serve(
        "slow",
        &["--json", "--slow-cycle-ms", "0"],
        "assert move(c, d).\nmetrics\nquit\n",
    );
    assert_eq!(code, Some(0));
    // Threshold 0: every cycle is slow. The log line carries the
    // phase breakdown rendering.
    assert!(stderr.contains("slow cycle: version 1 width 1"), "{stderr}");
    assert!(stderr.contains("solve"), "{stderr}");
    assert!(stdout.contains("\"slow_cycles\":1"), "{stdout}");
}

// ---------------------------------------------------------------------------
// Library-level: the service records breakdowns; disabled telemetry
// records nothing.
// ---------------------------------------------------------------------------

#[test]
fn service_records_phase_breakdowns_per_cycle() {
    let engine = Engine::default();
    let service = Service::new(engine.load(SERVE_SRC).unwrap()).unwrap();
    service.assert_facts("move(c, d).").unwrap();
    service.assert_facts("move(d, e).").unwrap();

    let telemetry = service.telemetry();
    assert!(telemetry.enabled());
    assert_eq!(telemetry.format(), MetricsFormat::Json);
    let cycles = telemetry.recent_cycles();
    assert_eq!(cycles.len(), 2);
    assert_eq!(cycles[0].version, 1);
    assert_eq!(cycles[1].version, 2);
    for b in &cycles {
        assert_eq!(b.width, 1);
        assert!(b.total_ns > 0);
        assert!(b.solve_ns > 0);
        // Phases are disjoint slices of the cycle.
        assert!(
            b.ground_ns + b.repair_ns + b.condense_ns + b.solve_ns + b.publish_ns <= b.total_ns,
            "{b:?}"
        );
        // No journal: those phases are zero, not garbage.
        assert_eq!(b.journal_append_ns, 0);
        assert_eq!(b.fsync_ns, 0);
    }
    let registry = telemetry.registry().unwrap();
    assert_eq!(registry.cycles.get(), 2);
    assert_eq!(registry.cycle_total_ns.snapshot().count, 2);
    assert!(registry.cycle_total_ns.snapshot().p50 > 0);
}

#[test]
fn journaled_cycles_record_append_and_fsync_time() {
    use afp::{FsyncPolicy, JournalOptions};
    let dir = temp_dir("journaled");
    let jdir = dir.join("journal");
    let _ = std::fs::remove_dir_all(&jdir);
    let engine = Engine::default();
    let service = Service::with_journal(
        engine.load(SERVE_SRC).unwrap(),
        Default::default(),
        &jdir,
        JournalOptions {
            fsync: FsyncPolicy::Always,
            ..Default::default()
        },
    )
    .unwrap();
    service.assert_facts("move(c, d).").unwrap();

    let cycles = service.telemetry().recent_cycles();
    assert_eq!(cycles.len(), 1);
    assert!(cycles[0].journal_append_ns > 0, "{:?}", cycles[0]);
    assert!(cycles[0].fsync_ns > 0, "{:?}", cycles[0]);
}

#[test]
fn disabled_telemetry_records_nothing_and_says_so() {
    let engine = Engine::default();
    let service = Service::new(engine.load(SERVE_SRC).unwrap()).unwrap();
    service.set_telemetry(Telemetry::disabled());
    service.assert_facts("move(c, d).").unwrap();

    let telemetry = service.telemetry();
    assert!(!telemetry.enabled());
    assert!(telemetry.registry().is_none());
    assert!(telemetry.recent_cycles().is_empty());
    assert_eq!(telemetry.render(), "{\"telemetry\":{\"enabled\":false}}");
    // The write itself still worked.
    assert_eq!(service.version(), 1);
}

#[test]
fn uptime_is_monotonic() {
    let engine = Engine::default();
    let service = Service::new(engine.load("a.").unwrap()).unwrap();
    let first = service.uptime_ms();
    std::thread::sleep(std::time::Duration::from_millis(5));
    assert!(service.uptime_ms() > first || service.uptime_ms() >= 5);
}
