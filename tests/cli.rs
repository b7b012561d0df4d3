//! End-to-end tests of the `afp` command-line binary.

use std::io::Write;
use std::process::{Command, Stdio};

fn run_afp(args: &[&str], stdin: &str) -> (String, String, Option<i32>) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_afp"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    // Ignore EPIPE: usage errors may exit before stdin is drained.
    let _ = child
        .stdin
        .as_mut()
        .expect("stdin piped")
        .write_all(stdin.as_bytes());
    let out = child.wait_with_output().expect("wait");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code(),
    )
}

#[test]
fn wfs_is_the_default() {
    let (stdout, _, code) = run_afp(&[], "a. b :- a. c :- not b.");
    assert_eq!(code, Some(0));
    assert!(stdout.contains("a."));
    assert!(stdout.contains("b."));
    assert!(!stdout.contains("c."));
    assert!(stdout.contains("% total: true"));
}

#[test]
fn undefined_atoms_marked() {
    let (stdout, _, code) = run_afp(&[], "p :- not q. q :- not p.");
    assert_eq!(code, Some(0));
    assert!(stdout.contains("p?"));
    assert!(stdout.contains("q?"));
    assert!(stdout.contains("% total: false"));
}

#[test]
fn query_exit_codes() {
    let (stdout, _, code) = run_afp(&["-q", "b"], "a. b :- a.");
    assert_eq!(code, Some(0));
    assert!(stdout.contains("True"));
    let (stdout, _, code) = run_afp(&["-q", "zzz"], "a.");
    assert_eq!(code, Some(1));
    assert!(stdout.contains("False"));
}

#[test]
fn stable_enumeration_and_counts() {
    let (stdout, _, code) = run_afp(&["-s", "stable"], "p :- not q. q :- not p.");
    assert_eq!(code, Some(0));
    assert!(stdout.contains("% stable model 1"));
    assert!(stdout.contains("% stable model 2"));
    let (stdout, _, code) = run_afp(&["-s", "stable"], "p :- not q. q :- not r. r :- not p.");
    assert_eq!(code, Some(1));
    assert!(stdout.contains("% no stable model"));
}

#[test]
fn max_models_flag() {
    let (stdout, _, _) = run_afp(&["-s", "stable", "-n", "1"], "p :- not q. q :- not p.");
    assert!(stdout.contains("% stable model 1"));
    assert!(!stdout.contains("% stable model 2"));
}

#[test]
fn ground_dump() {
    let (stdout, _, code) = run_afp(
        &["--ground"],
        "wins(X) :- move(X, Y), not wins(Y). move(a, b).",
    );
    assert_eq!(code, Some(0));
    assert!(stdout.contains("move(a, b)."));
    assert!(stdout.contains("wins(a)"));
}

#[test]
fn parse_errors_go_to_stderr_with_code_2() {
    let (_, stderr, code) = run_afp(&[], "p :- ");
    assert_eq!(code, Some(2));
    assert!(stderr.contains("parse error"));
}

#[test]
fn unsafe_rules_suggest_active_domain() {
    let (_, stderr, code) = run_afp(&[], "p(X) :- not q(X). q(a).");
    assert_eq!(code, Some(2));
    assert!(stderr.contains("unsafe rule"));
    // With -a the same program works.
    let (stdout, _, code) = run_afp(&["-a"], "p(X) :- not q(X). q(a). r(b).");
    assert_eq!(code, Some(0));
    assert!(stdout.contains("p(b)."));
}

#[test]
fn fitting_and_perfect_semantics() {
    // (The positive-loop Fitting gap is not visible through the CLI: the
    // grounder's envelope already prunes derivation-free loops. A negative
    // cycle survives grounding and stays undefined under Fitting.)
    let (stdout, _, _) = run_afp(&["-s", "fitting"], "x :- not y. y :- not x. z.");
    assert!(stdout.contains("x?"));
    assert!(stdout.contains("z."));
    let (stdout, _, code) = run_afp(&["-s", "perfect"], "a. b :- not a.");
    assert_eq!(code, Some(0));
    assert!(stdout.contains("a."));
    assert!(!stdout.contains("b."));
    // Perfect on a non-locally-stratified program fails cleanly.
    let (_, stderr, code) = run_afp(&["-s", "perfect"], "p :- not q. q :- not p.");
    assert_eq!(code, Some(2));
    assert!(stderr.contains("not locally stratified"));
}

#[test]
fn ifp_semantics_runs() {
    let (stdout, _, code) = run_afp(&["-s", "ifp"], "e(a,b). p :- e(a,b). np :- not p.");
    assert_eq!(code, Some(0));
    // IFP concludes both p and np (the Example 2.2 effect).
    assert!(stdout.contains("p."));
    assert!(stdout.contains("np."));
}

#[test]
fn unknown_semantics_rejected() {
    let (_, stderr, code) = run_afp(&["-s", "nonsense"], "a.");
    assert_eq!(code, Some(2));
    assert!(stderr.contains("unknown semantics"));
}

#[test]
fn trace_flag_prints_sequence() {
    let (stdout, _, _) = run_afp(&["-t"], "p :- not q. q :- not p.");
    assert!(stdout.contains("% alternating sequence"));
    assert!(stdout.contains("k=0"));
}

#[test]
fn json_output_for_truth_assignments() {
    let (stdout, _, code) = run_afp(
        &["--json"],
        "a. b :- a. c :- not b. p :- not q. q :- not p.",
    );
    assert_eq!(code, Some(0));
    assert!(stdout.contains("\"semantics\":\"wfs\""));
    assert!(stdout.contains("\"total\":false"));
    assert!(stdout.contains("\"true\":[\"a\",\"b\"]"));
    assert!(stdout.contains("\"false\":[\"c\"]"));
    assert!(stdout.contains("\"undefined\":[\"p\",\"q\"]"));
}

#[test]
fn json_output_for_stable_models() {
    let (stdout, _, code) = run_afp(&["-s", "stable", "-j"], "p :- not q. q :- not p.");
    assert_eq!(code, Some(0));
    assert!(stdout.contains("\"semantics\":\"stable\""));
    assert!(stdout.contains("\"count\":2"));
    assert!(stdout.contains("[\"p\"]"));
    assert!(stdout.contains("[\"q\"]"));
    // No stable model still exits 1, with an empty JSON list.
    let (stdout, _, code) = run_afp(
        &["-s", "stable", "-j"],
        "p :- not q. q :- not r. r :- not p.",
    );
    assert_eq!(code, Some(1));
    assert!(stdout.contains("\"count\":0"));
}

#[test]
fn json_output_for_queries() {
    let (stdout, _, code) = run_afp(&["-q", "b", "-j"], "a. b :- a.");
    assert_eq!(code, Some(0));
    assert!(stdout.contains("\"query\":\"b\""));
    assert!(stdout.contains("\"truth\":\"true\""));
    let (stdout, _, code) = run_afp(&["-q", "zzz", "-j"], "a.");
    assert_eq!(code, Some(1));
    assert!(stdout.contains("\"truth\":\"false\""));
}

#[test]
fn stable_query_keeps_no_model_exit_code() {
    // The documented contract — exit 1 when no stable model exists —
    // holds even when a query is printed.
    let (stdout, _, code) = run_afp(
        &["-s", "stable", "-q", "a"],
        "a :- not b. b :- not c. c :- not a.",
    );
    assert_eq!(code, Some(1));
    assert!(stdout.contains("Undefined"));
    let (_, _, code) = run_afp(&["-s", "stable", "-q", "p"], "p :- not q. q :- not p.");
    assert_eq!(code, Some(0));
}

#[test]
fn unknown_flags_exit_2_with_usage_hint() {
    let (_, stderr, code) = run_afp(&["--no-such-flag"], "a.");
    assert_eq!(code, Some(2));
    assert!(stderr.contains("usage:"));
    let (_, stderr, code) = run_afp(&["-s", "nonsense"], "a.");
    assert_eq!(code, Some(2));
    assert!(stderr.contains("usage:"));
}

#[test]
fn bad_queries_exit_2_with_usage_hint() {
    for query in ["wins(X)", "p(", ""] {
        let (_, stderr, code) = run_afp(&["-q", query], "a.");
        assert_eq!(code, Some(2), "query {query:?}");
        assert!(stderr.contains("bad query"), "query {query:?}: {stderr}");
        assert!(stderr.contains("usage:"), "query {query:?}: {stderr}");
    }
}

#[test]
fn assert_and_retract_apply_in_order() {
    // The asserted rule derives q(a); the later retract removes the fact
    // feeding it, so the final model has q(a) false again.
    let (stdout, _, code) = run_afp(
        &["--assert", "q(X) :- e(X).", "-q", "q(a)"],
        "p(X) :- e(X). e(a).",
    );
    assert_eq!(code, Some(0));
    assert!(stdout.contains("True"));

    let (stdout, _, code) = run_afp(
        &[
            "--assert",
            "q(X) :- e(X).",
            "--retract",
            "e(a).",
            "-q",
            "q(a)",
        ],
        "p(X) :- e(X). e(a).",
    );
    assert_eq!(code, Some(1), "q(a) is false once e(a) is retracted");
    assert!(stdout.contains("False"));

    // Retracting a rule stated in the program works too.
    let (stdout, _, code) = run_afp(
        &["--retract", "p(X) :- e(X).", "-q", "p(a)"],
        "p(X) :- e(X). e(a).",
    );
    assert_eq!(code, Some(1));
    assert!(stdout.contains("False"));
}

#[test]
fn bad_updates_exit_2() {
    // An unsafe asserted rule surfaces the grounding error (exit 2).
    let (_, stderr, code) = run_afp(&["--assert", "r(X) :- not e(X)."], "p(X) :- e(X). e(a).");
    assert_eq!(code, Some(2));
    assert!(stderr.contains("unsafe"), "{stderr}");
    // A parse error in the update text too.
    let (_, _, code) = run_afp(&["--assert", "p :- "], "a.");
    assert_eq!(code, Some(2));
    // Missing operand is a usage error.
    let (_, stderr, code) = run_afp(&["--assert"], "a.");
    assert_eq!(code, Some(2));
    assert!(stderr.contains("usage:"));
}

#[test]
fn stats_flag_prints_json_counters() {
    // JSON mode: a second JSON line with the session counters.
    let (stdout, _, code) = run_afp(&["--json", "--stats"], "a. b :- a. c :- not b.");
    assert_eq!(code, Some(0));
    assert!(stdout.contains("\"stats\":{"), "{stdout}");
    assert!(stdout.contains("\"solves\":1"));
    assert!(stdout.contains("\"snapshot_clones\":1"));
    assert!(stdout.contains("\"snapshot_reuses\":0"));

    // Plain mode: the same object behind a `%` comment.
    let (stdout, _, code) = run_afp(&["--stats"], "a.");
    assert_eq!(code, Some(0));
    assert!(stdout.contains("% stats {"), "{stdout}");

    // Counters reflect --assert updates.
    let (stdout, _, code) = run_afp(
        &["--json", "--stats", "--assert", "d."],
        "a. b :- a. c :- not b.",
    );
    assert_eq!(code, Some(0));
    assert!(stdout.contains("\"rule_asserts\":1"), "{stdout}");

    // And compose with queries (exit-code contract intact).
    let (stdout, _, code) = run_afp(&["--stats", "-q", "zzz"], "a.");
    assert_eq!(code, Some(1));
    assert!(stdout.contains("% stats {"));

    // The per-component solve counters ride along in the same object.
    let (stdout, _, code) = run_afp(&["--json", "--stats"], "a. b :- a.");
    assert_eq!(code, Some(0));
    for key in [
        "\"last_components\":",
        "\"last_components_evaluated\":",
        "\"last_components_reused\":0",
    ] {
        assert!(stdout.contains(key), "missing {key} in {stdout}");
    }
}

#[test]
fn threads_flag_is_a_usage_error() {
    // Components solve in one sequential loop: there is no solver-thread
    // knob, so the old flag is an unknown option.
    let (stdout, stderr, code) = run_afp(&["--threads", "2"], "a.");
    assert_eq!(code, Some(2));
    assert!(stdout.is_empty(), "{stdout}");
    assert!(stderr.contains("usage:"), "{stderr}");
    let (_, stderr, _) = run_afp(&["-h"], "");
    assert!(!stderr.contains("--threads"), "{stderr}");
}

const SERVE_SRC: &str = "wins(X) :- move(X, Y), not wins(Y). move(a, b). move(b, a). move(b, c).";

fn run_serve(args: &[&str], commands: &str) -> (String, String, Option<i32>) {
    let dir = std::env::temp_dir().join(format!(
        "afp-serve-test-{}-{}",
        std::process::id(),
        commands.len()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("program.afp");
    std::fs::write(&file, SERVE_SRC).unwrap();
    let mut full: Vec<&str> = vec!["--serve"];
    full.extend_from_slice(args);
    let path = file.to_str().unwrap().to_string();
    full.push(&path);
    run_afp(&full, commands)
}

#[test]
fn serve_mode_queries_and_updates() {
    let (stdout, _, code) = run_serve(
        &[],
        "query wins(b)\n\
         assert move(c, d).\n\
         query wins(c)\n\
         at 0 wins(c)\n\
         version\n\
         retract move(c, d).\n\
         query wins(c)\n\
         quit\n",
    );
    assert_eq!(code, Some(0));
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(
        lines,
        vec!["True", "ok 1", "True", "False", "1", "ok 2", "False"],
        "{stdout}"
    );
}

#[test]
fn serve_mode_json_protocol() {
    let (stdout, _, code) = run_serve(
        &["--json"],
        "query wins(b)\nassert move(c, d).\nstats\nquit\n",
    );
    assert_eq!(code, Some(0));
    assert!(
        stdout.contains("\"version\":0,\"query\":\"wins(b)\",\"truth\":\"true\""),
        "{stdout}"
    );
    assert!(stdout.contains("{\"ok\":true,\"version\":1}"));
    assert!(stdout.contains("\"service\":{\"version\":1,\"submissions\":1,\"write_cycles\":1"));
}

#[test]
fn serve_mode_survives_bad_commands() {
    let (stdout, _, code) = run_serve(
        &[],
        "bogus\n\
         query wins(X)\n\
         assert r(X) :- not s(X).\n\
         at 99 wins(a)\n\
         query wins(b)\n",
    );
    // EOF ends the loop; every failure was inline, the server kept going.
    assert_eq!(code, Some(0));
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 5, "{stdout}");
    assert!(lines[0].starts_with("error: unknown command"));
    assert!(lines[1].starts_with("error: bad query"));
    assert!(lines[2].starts_with("error: grounding error"), "{stdout}");
    assert!(
        lines[3].starts_with("error: version 99 is outside the retained window"),
        "{stdout}"
    );
    assert_eq!(lines[4], "True");
}

#[test]
fn serve_mode_model_dump() {
    let (stdout, _, code) = run_serve(&[], "assert move(c, d).\nmodel\nquit\n");
    assert_eq!(code, Some(0));
    assert!(stdout.contains("% version 1"), "{stdout}");
    assert!(stdout.contains("wins(c)."));
}

#[test]
fn serve_mode_honors_stats_flag_at_exit() {
    let (stdout, _, code) = run_serve(&["--json", "--stats"], "assert move(c, d).\nquit\n");
    assert_eq!(code, Some(0));
    assert!(
        stdout
            .lines()
            .last()
            .unwrap()
            .contains("\"service\":{\"version\":1"),
        "{stdout}"
    );
}

#[test]
fn serve_mode_structured_json_errors_and_changelog() {
    let (stdout, _, code) = run_serve(
        &["--json"],
        "bogus\n\
         at 99 wins(a)\n\
         assert move(c, d).\n\
         log\n\
         quit\n",
    );
    // Malformed commands are structured error lines; transport was fine,
    // so the exit code stays zero.
    assert_eq!(code, Some(0));
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(
        lines[0].starts_with("{\"error\":{\"kind\":\"protocol\",\"message\":\"unknown command"),
        "{stdout}"
    );
    assert!(
        lines[1].starts_with("{\"error\":{\"kind\":\"version-evicted\""),
        "{stdout}"
    );
    assert_eq!(lines[2], "{\"ok\":true,\"version\":1}");
    assert_eq!(
        lines[3],
        "{\"changelog\":[{\"version\":1,\"kind\":\"assert-rules\",\"text\":\"move(c, d).\"}]}"
    );
}

#[test]
fn serve_mode_changelog_plain() {
    let (stdout, _, code) = run_serve(&[], "assert move(c, d).\nlog\nlog 1\nquit\n");
    assert_eq!(code, Some(0));
    assert!(stdout.contains("% 1 deltas"), "{stdout}");
    assert!(stdout.contains("1 assert-rules move(c, d)."), "{stdout}");
    assert!(stdout.contains("% 0 deltas"), "{stdout}");
}

/// `--listen`/`--socket`: the bound endpoints are announced on stdout
/// first, the framed protocol answers over both transports with the
/// same JSON the stdin front end prints, and `--stats` at exit carries
/// the net counter block — all through one process.
#[test]
fn serve_listen_and_socket_front_the_same_service() {
    use std::io::{BufRead, BufReader, Read as _};

    let dir = std::env::temp_dir().join(format!("afp-listen-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("program.afp");
    std::fs::write(&file, SERVE_SRC).unwrap();
    let socket = dir.join("afp.sock");
    let _ = std::fs::remove_file(&socket);

    let mut child = Command::new(env!("CARGO_BIN_EXE_afp"))
        .args([
            "--serve",
            "--json",
            "--stats",
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

    // The announce lines come first, with the real (ephemeral) port.
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
    assert!(
        line.starts_with("{\"listening\":{\"transport\":\"unix\","),
        "{line}"
    );

    // 4-byte big-endian length framing, by hand — this test is the
    // client-side spec of the wire format.
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

    let mut tcp = std::net::TcpStream::connect(&addr).unwrap();
    assert_eq!(
        send(&mut tcp, "query wins(b)"),
        "{\"version\":0,\"query\":\"wins(b)\",\"truth\":\"true\"}"
    );
    assert_eq!(
        send(&mut tcp, "assert-facts move(c, d)."),
        "{\"ok\":true,\"version\":1}"
    );

    // The unix socket fronts the same service: version 1 is visible.
    let mut unix = std::os::unix::net::UnixStream::connect(&socket).unwrap();
    assert_eq!(
        send(&mut unix, "query wins(c)"),
        "{\"version\":1,\"query\":\"wins(c)\",\"truth\":\"true\"}"
    );
    drop(tcp);
    drop(unix);

    // Closing stdin shuts the listeners down and exits cleanly.
    drop(child.stdin.take());
    let mut rest = String::new();
    stdout.read_to_string(&mut rest).unwrap();
    let status = child.wait().expect("wait");
    assert_eq!(status.code(), Some(0));
    assert!(rest.contains("\"net\":{\"submitted\":1"), "{rest}");
    assert!(rest.contains("\"conns_accepted\":2"), "{rest}");
    assert!(rest.contains("\"frames_in\":3"), "{rest}");
    assert!(!socket.exists(), "socket file removed on shutdown");
}

/// `ping` through the stdin front end: version + writer liveness, in
/// both renderings. The stdin backend has no async tier, so the writer
/// is the submitting thread itself — always live.
#[test]
fn serve_mode_ping() {
    let (stdout, _, code) = run_serve(&[], "ping\nassert move(c, d).\nping\nquit\n");
    assert_eq!(code, Some(0));
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 3, "{stdout}");
    assert!(
        lines[0].starts_with("pong version 0 writer live uptime "),
        "{stdout}"
    );
    assert!(lines[0].ends_with("ms"), "{stdout}");
    assert_eq!(lines[1], "ok 1", "{stdout}");
    assert!(
        lines[2].starts_with("pong version 1 writer live uptime "),
        "{stdout}"
    );

    let (stdout, _, code) = run_serve(&["--json"], "ping\nquit\n");
    assert_eq!(code, Some(0));
    let first = stdout.lines().next().unwrap();
    assert!(
        first.starts_with("{\"pong\":true,\"version\":0,\"writer_live\":true,\"uptime_ms\":"),
        "{first}"
    );
    assert!(first.ends_with('}'), "{first}");
}

/// `--changelog-cap N` bounds retention: reads behind the horizon come
/// back as version-evicted errors, exactly like the library-level
/// `ServiceOptions::changelog_capacity` they configure.
#[test]
fn changelog_cap_flag_bounds_retention() {
    let (stdout, _, code) = run_serve(
        &["--json", "--changelog-cap", "2"],
        "assert-facts move(x0, y0).\n\
         assert-facts move(x1, y1).\n\
         assert-facts move(x2, y2).\n\
         assert-facts move(x3, y3).\n\
         log\n\
         log 2\n\
         quit\n",
    );
    assert_eq!(code, Some(0));
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(
        lines[4].starts_with("{\"error\":{\"kind\":\"version-evicted\""),
        "{stdout}"
    );
    assert_eq!(
        lines[5],
        "{\"changelog\":[\
         {\"version\":3,\"kind\":\"assert-facts\",\"text\":\"move(x2, y2).\"},\
         {\"version\":4,\"kind\":\"assert-facts\",\"text\":\"move(x3, y3).\"}]}"
    );
    // A cap needs an operand and a number.
    let (_, stderr, code) = run_afp(&["--serve", "--changelog-cap"], "");
    assert_eq!(code, Some(2));
    assert!(stderr.contains("usage:"));
}

/// The durability loop end-to-end through the binary: a journaled serve
/// session absorbs writes and a manual checkpoint, exits, and a second
/// invocation pointed at the same `--journal` directory recovers the
/// exact version and model — announced before anything else — with the
/// journal counters visible in `stats`.
#[test]
fn journal_serve_recovers_across_invocations() {
    let dir = std::env::temp_dir().join(format!("afp-cli-journal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("program.afp");
    std::fs::write(&file, SERVE_SRC).unwrap();
    let jdir = dir.join("journal");
    let jdir_s = jdir.to_str().unwrap().to_string();

    // First run: two writes, a checkpoint, one more write.
    let (stdout, stderr, code) = run_afp(
        &["--json", "--journal", &jdir_s, file.to_str().unwrap()],
        "assert-facts move(c, d).\n\
         assert-facts move(d, e).\n\
         checkpoint\n\
         assert-facts move(e, f).\n\
         stats\n\
         quit\n",
    );
    assert_eq!(code, Some(0), "{stderr}");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines[0], "{\"ok\":true,\"version\":1}");
    assert_eq!(lines[1], "{\"ok\":true,\"version\":2}");
    assert_eq!(lines[2], "{\"ok\":true,\"checkpoint\":2}");
    assert_eq!(lines[3], "{\"ok\":true,\"version\":3}");
    assert!(
        lines[4].contains("\"journal\":{\"records_appended\":3"),
        "{stdout}"
    );

    // Second run: FILE is superseded by the recovered history.
    let (stdout, stderr, code) = run_afp(
        &["--json", "--journal", &jdir_s, file.to_str().unwrap()],
        "query wins(e)\nquery wins(d)\nquit\n",
    );
    assert_eq!(code, Some(0), "{stderr}");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(
        lines[0], "{\"journal\":{\"recovered\":3}}",
        "recovery announce comes first: {stdout}"
    );
    assert_eq!(
        lines[1],
        "{\"version\":3,\"query\":\"wins(e)\",\"truth\":\"true\"}"
    );
    assert_eq!(
        lines[2],
        "{\"version\":3,\"query\":\"wins(d)\",\"truth\":\"false\"}"
    );

    // Plain rendering of the same announce + checkpoint grammar.
    let (stdout, _, code) = run_afp(
        &["--journal", &jdir_s, file.to_str().unwrap()],
        "checkpoint\nquit\n",
    );
    assert_eq!(code, Some(0));
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines[0], "% journal recovered version 3");
    assert_eq!(lines[1], "checkpoint 3");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `checkpoint` without `--journal` is a structured journal error, not
/// a crash — and the unknown-command hint advertises the new verbs.
#[test]
fn checkpoint_without_journal_errors_inline() {
    let (stdout, _, code) = run_serve(&["--json"], "checkpoint\nbogus\nquit\n");
    assert_eq!(code, Some(0));
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(
        lines[0].starts_with("{\"error\":{\"kind\":\"journal\""),
        "{stdout}"
    );
    assert!(lines[1].contains("ping/checkpoint"), "{stdout}");
}

/// `--fsync` accepts the documented spellings and rejects the rest.
#[test]
fn fsync_flag_spellings() {
    for policy in ["always", "never", "8"] {
        let (_, stderr, code) = run_serve(&["--fsync", policy], "version\nquit\n");
        assert_eq!(code, Some(0), "--fsync {policy}: {stderr}");
    }
    let (_, stderr, code) = run_afp(&["--serve", "--fsync", "sometimes"], "");
    assert_eq!(code, Some(2));
    assert!(stderr.contains("usage:"));
}
