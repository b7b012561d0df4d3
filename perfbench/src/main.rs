//! `afp-perfbench` — the seeded open-loop wire benchmark of
//! `afp --listen`.
//!
//! ```text
//! afp-perfbench --workload NAME --seed N --seconds S --trace 0|1 --afp PATH --work DIR
//! ```
//!
//! One run generates the workload's program and request stream from the
//! seed, starts the server (several times, for `setup_s`), drives two
//! connections open-loop for `S` seconds, saturates the writer
//! closed-loop, fetches the final `model` and checks it against a cold
//! solve, then SIGKILLs and restarts the server (for `recover_s`). With
//! `--trace 0` it prints the end-to-end metrics; with `--trace 1` the
//! server runs under `--trace`, its `stats`/`metrics` are scraped, an
//! in-process replay times the layers the server does not, and the
//! per-layer metrics are printed. The last stdout line is the result
//! object; the line before it records the run's context.

mod check;
mod client;
mod json;
mod replay;
mod server;
mod spans;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use afp::Engine;

use client::{Acked, Conn, ConnOutcome, OpKind, Sample};
use json::Json;
use server::{fresh_dir, Launch, Server};
use spans::SpanLog;
use workload::{Generated, Item, Spec};

/// A run whose generator sent its p99 request later than this after
/// its due time, or any request later than [`LAG_MAX_US`], measured the
/// client as well as the server and is flagged suspect. Both sit far
/// above the lag a healthy 2-core run shows (p99 well under 1 ms, a few
/// ms at most when the server's cycles crowd the cores).
const LAG_P99_US: f64 = 25_000.0;
const LAG_MAX_US: f64 = 1_000_000.0;
/// A run during which the hypervisor stole more than this share of the
/// machine's CPU time (`/proc/stat` steal, whole run) measured a slower
/// host as well as the server and is flagged suspect. On the 2-core
/// reference VM quiet spells show about 0%; runs at 2–3.5% read up to
/// about a quarter slower, and a ten-seed pass at about 6% moved medians
/// by 27–50%, past every bound.
const STEAL_PCT_MAX: f64 = 5.0;
/// How long a traced run waits for the server's trace writer to put the
/// last acknowledged cycle into the trace file.
const TRACE_WAIT: Duration = Duration::from_secs(10);
/// Closed-loop pings timed for `server.transport_us`.
const PINGS: usize = 2_000;

struct Args {
    workload: String,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
    afp: PathBuf,
    work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: None,
        seconds: 15.0,
        trace: false,
        afp: PathBuf::new(),
        work: PathBuf::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => a.workload = value.clone(),
            "--seed" => a.seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => a.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => a.trace = value == "1",
            "--afp" => a.afp = PathBuf::from(&value),
            "--work" => a.work = PathBuf::from(&value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if a.afp.as_os_str().is_empty() || a.work.as_os_str().is_empty() {
        return Err("--afp and --work are required".into());
    }
    Ok(a)
}

/// One printed metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

#[derive(Default)]
struct Report {
    metrics: Vec<Metric>,
    context: Vec<(String, String)>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    /// Why the run's numbers may measure the host or the client rather
    /// than the server, if a validity check says so. A suspect run still
    /// prints its numbers and succeeds: the flag is for whoever reads
    /// them, and steadiness mode shows it on each run's line.
    suspect: Option<String>,
}

impl Report {
    fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    fn ctx(&mut self, key: &str, value: impl ToString) {
        self.context.push((key.into(), value.to_string()));
    }

    fn absorb(&mut self, out: &ConnOutcome) {
        self.attempted += out.attempted;
        self.failed += out.failed;
        self.failures.extend(out.failures.iter().cloned());
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("afp-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    let outcome = run(&args, &mut report);
    let mut fields: Vec<String> = report
        .context
        .iter()
        .map(|(k, v)| format!("{}:{}", json::quote(k), json::quote(v)))
        .collect();
    if let Err(e) = &outcome {
        fields.push(format!("\"error\":{}", json::quote(e)));
    }
    if let Some(why) = &report.suspect {
        fields.push(format!("\"suspect\":{}", json::quote(why)));
    }
    if let Some(mb) = own_peak_rss_mb() {
        fields.push(format!("\"client_peak_rss_mb\":\"{mb:.1}\""));
    }
    println!("{{\"context\":{{{}}}}}", fields.join(","));

    let ok = outcome.is_ok() && report.failed == 0;
    for m in &report.metrics {
        eprintln!("  {:<34} {:>14.3} {}", m.name, m.value, m.unit);
    }
    for f in &report.failures {
        eprintln!("afp-perfbench: failure: {f}");
    }
    if let Err(e) = &outcome {
        eprintln!("afp-perfbench: {e}");
    }
    if let Some(why) = &report.suspect {
        eprintln!("afp-perfbench: suspect run: {why}");
    }
    let metrics: Vec<String> = if ok {
        report
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    json::quote(&m.name),
                    m.value,
                    json::quote(m.unit)
                )
            })
            .collect()
    } else {
        Vec::new()
    };
    println!(
        "{{\"correct\":{ok},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.attempted.max(1),
        report.failed + u64::from(outcome.is_err()),
        metrics.join(",")
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// This process's own peak resident set, MiB.
fn own_peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    Some(line.split_whitespace().nth(1)?.parse::<f64>().ok()? / 1024.0)
}

/// (stolen, total) CPU jiffies of the whole machine so far: time the
/// hypervisor ran someone else while this VM's vCPUs were runnable.
fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Start the server `n` times, each from a fresh journal directory when
/// it journals, and record every spawn→announce time in `setups`. Each
/// start but the last is quit before the next; the last is returned
/// still running.
fn timed_starts(
    launch: &Launch,
    n: usize,
    setups: &mut Vec<f64>,
) -> Result<Option<Server>, String> {
    let mut last: Option<Server> = None;
    for _ in 0..n {
        if let Some(s) = last.take() {
            s.quit()?;
        }
        if let Some((dir, _)) = &launch.journal {
            fresh_dir(dir)?;
        }
        let s = launch.start()?;
        setups.push(s.setup_s);
        last = Some(s);
    }
    Ok(last)
}

/// Owned items of one connection, cloned out of the generator.
fn owned(gen: &Generated, idx: &[usize]) -> Vec<(usize, Item)> {
    idx.iter().map(|&i| (i, gen.items[i].clone())).collect()
}

fn give_back(gen: &mut Generated, out: &ConnOutcome) {
    for (i, item) in &out.items {
        gen.items[*i] = item.clone();
    }
}

fn request_json(conn: &mut Conn, line: &str) -> Result<Json, String> {
    let reply = conn.request(line).map_err(|e| format!("{line}: {e}"))?;
    json::parse(&reply).map_err(|e| format!("{line}: {e}"))
}

fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let spec: Spec = workload::spec(&args.workload)
        .ok_or_else(|| format!("unknown workload {:?}", args.workload))?;
    let seed = args.seed.unwrap_or(spec.default_seed);
    report.ctx("workload", spec.name);
    report.ctx("seed", seed);
    report.ctx("seconds", args.seconds);
    report.ctx("trace", u8::from(args.trace));
    report.ctx(
        "nproc",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    for (key, var) in [
        ("rustc", "PERFBENCH_RUSTC"),
        ("git_rev", "PERFBENCH_REV"),
        ("date", "PERFBENCH_DATE"),
    ] {
        report.ctx(key, std::env::var(var).unwrap_or_else(|_| "unknown".into()));
    }

    let mut gen = workload::generate(&spec);
    let base_program = gen.program();
    let work = fresh_dir(
        &args
            .work
            .join(format!("{}-{}", spec.name, std::process::id())),
    )?;
    let program_path = work.join("program.lp");
    std::fs::write(&program_path, &base_program).map_err(|e| e.to_string())?;
    let journal_dir = work.join("journal");
    let trace_path = work.join("trace.json");
    let launch = Launch {
        afp: args.afp.clone(),
        program: program_path,
        journal: spec
            .journal
            .then(|| (journal_dir.clone(), spec.checkpoint_every)),
        trace: args.trace.then(|| trace_path.clone()),
    };
    let run = Run {
        args,
        spec,
        seed,
        launch,
        work: &work,
        base_program: &base_program,
    };
    let result = drive(&run, &mut gen, report);
    let _ = std::fs::remove_dir_all(&work);
    result
}

/// The fixed inputs of one run.
struct Run<'a> {
    args: &'a Args,
    spec: Spec,
    seed: u64,
    launch: Launch,
    work: &'a std::path::Path,
    base_program: &'a str,
}

fn drive(run: &Run<'_>, gen: &mut Generated, report: &mut Report) -> Result<(), String> {
    let Run {
        args,
        spec,
        seed,
        ref launch,
        work,
        base_program,
    } = *run;
    let spec = &spec;
    let jiffies_before = cpu_jiffies();
    // --- Set-up: the first half of the starts; the last one serves. ----
    let mut setups = Vec::new();
    let server =
        timed_starts(launch, spec.setups.div_ceil(2), &mut setups)?.expect("at least one set-up");
    let connect = || Conn::connect(&server.addr).map_err(|e| format!("connect: {e}"));
    let (mut c0, mut c1) = (connect()?, connect()?);

    // --- Open loop. -----------------------------------------------------
    let acked = Mutex::new(Acked::default());
    let epoch = Instant::now();
    let start = epoch + Duration::from_millis(50);
    let end = start + Duration::from_secs_f64(args.seconds);
    let half = |rate: f64| Duration::from_secs_f64(0.5 / rate);
    let (o0, o1) = {
        let gen_ref: &Generated = gen;
        let jobs = [0usize, 1].map(|c| client::OpenLoop {
            spec: spec.conns[c],
            gen: gen_ref,
            owned: owned(gen_ref, &gen_ref.open_owned[c]),
            seed: seed.wrapping_mul(31).wrapping_add(c as u64 + 1),
            epoch,
            start: start
                + if c == 1 {
                    half(spec.conns[c].rate)
                } else {
                    Duration::ZERO
                },
            end,
            acked: &acked,
        });
        let [j0, j1] = jobs;
        std::thread::scope(|sc| {
            let h0 = sc.spawn(|| client::open_loop(&mut c0, j0));
            let h1 = sc.spawn(|| client::open_loop(&mut c1, j1));
            (
                h0.join().expect("connection thread 0"),
                h1.join().expect("connection thread 1"),
            )
        })
    };
    give_back(gen, &o0);
    give_back(gen, &o1);
    report.absorb(&o0);
    report.absorb(&o1);
    let open: Vec<&Sample> = o0.samples.iter().chain(&o1.samples).collect();
    let stats_open = if args.trace {
        Some(request_json(&mut c0, "stats")?)
    } else {
        None
    };

    // --- Saturation: closed-loop writes on both connections. ------------
    let sat_started = Instant::now();
    let sat_end = sat_started + Duration::from_secs_f64(args.seconds * workload::SATURATION_SHARE);
    let (s0, s1) = {
        let gen_ref: &Generated = gen;
        let own0 = owned(gen_ref, &gen_ref.sat_owned[0]);
        let own1 = owned(gen_ref, &gen_ref.sat_owned[1]);
        let acked = &acked;
        std::thread::scope(|sc| {
            let h0 =
                sc.spawn(|| client::saturate(&mut c0, own0, seed ^ 0x5a, epoch, sat_end, acked));
            let h1 =
                sc.spawn(|| client::saturate(&mut c1, own1, seed ^ 0xa5, epoch, sat_end, acked));
            (
                h0.join().expect("saturation thread 0"),
                h1.join().expect("saturation thread 1"),
            )
        })
    };
    let sat_secs = sat_started.elapsed().as_secs_f64();
    give_back(gen, &s0);
    give_back(gen, &s1);
    report.absorb(&s0);
    report.absorb(&s1);
    let sat_writes = (s0.samples.len() + s1.samples.len()) as f64;
    let last_acked = acked.lock().expect("acked lock").max;

    // --- Traced-run scrapes: transport probe, stats, metrics, trace. ----
    let mut scraped = None;
    if args.trace {
        let rtts = client::ping_rtts(&mut c1, PINGS).map_err(|e| format!("ping: {e}"))?;
        let stats_end = request_json(&mut c0, "stats")?;
        let metrics = request_json(&mut c0, "metrics")?;
        let (cycles, through) = trace::read_through(
            launch.trace.as_deref().expect("traced"),
            last_acked,
            TRACE_WAIT,
        )?;
        if !through {
            report.suspect.get_or_insert(format!(
                "the trace file lacked the cycle of version {last_acked} after {TRACE_WAIT:?}"
            ));
        }
        scraped = Some((rtts, stats_end, metrics, cycles));
    }

    // --- Final model and the output check. ------------------------------
    report.attempted += 1;
    let model_reply = c0.request("model").map_err(|e| format!("model: {e}"))?;
    let model_kb = model_reply.len() as f64 / 1024.0;
    let model = json::parse(&model_reply).map_err(|e| format!("model reply: {e}"))?;
    drop(model_reply);
    if model.get("error").is_some() {
        return Err("model request failed".into());
    }
    let warm = check::ModelSets::from_json(&model)?;
    drop(model);
    let final_program = gen.program();
    let cold_model = Engine::default()
        .solve(&final_program)
        .map_err(|e| format!("cold solve of the final program: {e}"))?;
    let cold = check::ModelSets::from_model(&cold_model);
    check::compare(&warm, &cold).map_err(|e| format!("output check: {e}"))?;
    let peak_rss_mb = server.peak_rss_mb().unwrap_or(0.0);

    // --- SIGKILL and restart. -------------------------------------------
    drop((c0, c1));
    server.kill();
    let restart = Launch {
        trace: None,
        ..launch.clone()
    };
    let mut recovers = Vec::new();
    let mut replayed_records = 0.0;
    for i in 0..spec.restarts {
        let s = restart.start()?;
        recovers.push(s.setup_s);
        if spec.journal && s.recovered != Some(last_acked) {
            return Err(format!(
                "recovered head {:?} is not the last acknowledged version {last_acked}",
                s.recovered
            ));
        }
        if args.trace && i + 1 == spec.restarts {
            let mut c = Conn::connect(&s.addr).map_err(|e| e.to_string())?;
            replayed_records = request_json(&mut c, "stats")?.num_at("journal.records_replayed");
        }
        s.kill();
    }

    // --- Set-up: the second half of the starts. -------------------------
    // Spread over the run, the starts sample more of the host's speed
    // drift than a burst at the beginning would, so their median moves
    // less from run to run.
    let late = Launch {
        trace: None,
        ..launch.clone()
    };
    if let Some(s) = timed_starts(&late, spec.setups / 2, &mut setups)? {
        s.quit()?;
    }
    // Host steal over the whole run: the share of CPU time the shared
    // machine took away, which slows every timing of the run.
    if let (Some((s0, t0)), Some((s1, t1))) = (jiffies_before, cpu_jiffies()) {
        let pct = 100.0 * (s1 - s0) as f64 / (t1 - t0).max(1) as f64;
        report.ctx("host_steal_pct", format!("{pct:.2}"));
        report.ctx("host_steal_bound_pct", STEAL_PCT_MAX);
        if pct > STEAL_PCT_MAX {
            report.suspect = Some(format!(
                "the host stole {pct:.2}% of CPU time, over the {STEAL_PCT_MAX}% bound"
            ));
        }
    }

    // --- End-to-end figures. --------------------------------------------
    let (writes, queries): (Vec<&Sample>, Vec<&Sample>) =
        open.iter().partition(|s| s.kind == OpKind::Write);
    let writes: Vec<f64> = writes.iter().map(|s| s.latency()).collect();
    let queries: Vec<f64> = queries.iter().map(|s| s.latency()).collect();
    let q = stats::summarize(&queries).ok_or("too few query samples for a tail")?;
    let w = stats::summarize(&writes).ok_or("too few write samples for a tail")?;
    let lags: Vec<f64> = open.iter().map(|s| s.sent - s.sched).collect();
    let lag_sorted = stats::sorted(&lags);
    let lag_p99 = stats::percentile_sorted(&lag_sorted, 99.0).unwrap_or(0.0);
    let lag_max = lag_sorted.last().copied().unwrap_or(0.0);
    report.ctx("query_samples", q.count);
    report.ctx("query_tail_percentile", q.tail_p);
    report.ctx("write_samples", w.count);
    report.ctx("write_tail_percentile", w.tail_p);
    report.ctx("saturation_writes", sat_writes);
    report.ctx("generator_lag_p99_us", format!("{lag_p99:.1}"));
    report.ctx("generator_lag_max_us", format!("{lag_max:.1}"));
    report.ctx(
        "generator_lag_bound_us",
        format!("p99<={LAG_P99_US} max<={LAG_MAX_US}"),
    );
    if lag_p99 > LAG_P99_US || lag_max > LAG_MAX_US {
        report.suspect.get_or_insert(format!(
            "generator lag p99 {lag_p99:.0} us / max {lag_max:.0} us exceeds its bound"
        ));
    }

    let restart_s = stats::median(&recovers).unwrap_or(0.0);
    let saturation_ops = sat_writes / sat_secs;
    if !args.trace {
        report.metric("setup_s", stats::median(&setups).unwrap_or(0.0), "s");
        report.metric("query_p50_us", q.p50, "us");
        report.metric("write_p50_us", w.p50, "us");
        report.metric("peak_rss_mb", peak_rss_mb, "MiB");
        // Printed, not contracted: too unsteady run to run on a shared
        // 2-core box for a regression bound (see README).
        report.ctx("query_tail_us", format!("{:.1}", q.tail));
        report.ctx("write_tail_us", format!("{:.1}", w.tail));
        report.ctx("write_tput_ops", format!("{saturation_ops:.2}"));
        report.ctx("recover_s", format!("{restart_s:.4}"));
        return Ok(());
    }

    // --- Per-layer figures (traced run). --------------------------------
    let (rtts, stats_end, metrics, cycles) = scraped.expect("scraped in traced runs");
    let dropped = metrics.num_at("telemetry.counters.trace_dropped");
    report.ctx("trace_dropped", dropped);
    if dropped > 0.0 {
        report
            .suspect
            .get_or_insert(format!("the trace dropped {dropped} events"));
    }
    let write_lines: Vec<String> = {
        let mut w: Vec<&Sample> = open
            .iter()
            .copied()
            .filter(|s| s.kind == OpKind::Write)
            .collect();
        w.sort_by_key(|s| s.version);
        w.iter().map(|s| s.line.clone()).collect()
    };
    let query_lines: Vec<String> = open
        .iter()
        .filter(|s| s.kind != OpKind::Write)
        .map(|s| s.line.clone())
        .collect();
    let replay = replay::run(
        base_program,
        &write_lines,
        &query_lines,
        &cold_model,
        &final_program,
        work,
    )?;

    // Mirror cost per delta kind, from the replay.
    let mut mirror_by_kind: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (line, m) in write_lines.iter().zip(&replay.mirror_us) {
        if let Some((kind, _)) = replay::delta_of(line) {
            mirror_by_kind.entry(kind.name()).or_default().push(*m);
        }
    }
    let mirror_of = |line: &str| -> f64 {
        replay::delta_of(line)
            .and_then(|(k, _)| mirror_by_kind.get(k.name()))
            .or_else(|| mirror_by_kind.values().next())
            .and_then(|v| stats::median(v))
            .unwrap_or(0.0)
    };

    // Span trees: one per open-loop request. A write whose cycle is not
    // in the trace has no tree (and the run is flagged).
    let transport = stats::median(&rtts).unwrap_or(0.0);
    let mut log = SpanLog::default();
    let mut untraced = 0usize;
    for (req, s) in open.iter().enumerate() {
        let req = req as u64;
        let cycle_of = cycles.get(&s.version).filter(|c| c.complete());
        if s.kind == OpKind::Write && cycle_of.is_none() {
            untraced += 1;
            continue;
        }
        let root_name = if s.kind == OpKind::Write {
            "client.write"
        } else {
            "client.query"
        };
        let root = log.push(req, None, root_name, s.sched, s.done);
        log.push(req, Some(root), "client.lag", s.sched, s.sent);
        if let (OpKind::Write, Some(c)) = (s.kind, cycle_of) {
            let cstart = (s.done - c.total).max(s.sent);
            let cycle = log.push(req, Some(root), "service.cycle", cstart, s.done);
            let part = |p: &str| c.phase(p);
            log.push_sequence(
                req,
                cycle,
                cstart,
                &[
                    ("incremental.ground", part("ground")),
                    ("depgraph.repair", part("repair")),
                    ("engine.mirror", mirror_of(&s.line)),
                    ("depgraph.condense", part("condense")),
                    ("modular.solve", part("solve")),
                    ("journal.append", part("journal_append")),
                    ("journal.fsync", part("fsync")),
                    ("service.publish", part("publish")),
                ],
            );
        } else {
            // Replayed medians stand in for the per-request server work.
            let first = log.spans.len();
            log.push_sequence(
                req,
                root,
                s.sent,
                &[
                    ("server.transport", transport),
                    ("codec.parse", replay.parse_cmd_us),
                    ("codec.execute", replay.execute_us),
                    ("codec.render", replay.render_us),
                ],
            );
            let exec = first + 2;
            log.push_sequence(
                req,
                exec,
                log.spans[exec].start,
                &[
                    ("service.snapshot", replay.snapshot_ns / 1e3),
                    ("service.truth", replay.truth_ns / 1e3),
                ],
            );
        }
    }
    report.ctx("untraced_writes", untraced);
    if untraced > 0 {
        report.suspect.get_or_insert(format!(
            "{untraced} writes have no whole cycle in the trace"
        ));
    }
    // The traced run's spans and server trace outlive its scratch
    // directory: the latest of each workload stays next to it.
    let keep = work.with_file_name(format!("last-{}", spec.name));
    if fresh_dir(&keep).is_ok() {
        if let Ok(mut f) = std::fs::File::create(keep.join("spans.jsonl")) {
            let _ = log.write_jsonl(&mut f);
        }
        let _ = std::fs::copy(
            launch.trace.as_ref().expect("traced"),
            keep.join("trace.json"),
        );
    }
    let by = log.self_times_by_name();
    let tail = |v: &[f64]| stats::tail(v).map_or(0.0, |(_, t)| t);
    let write_split = spans::median_split(
        &log,
        "client.write",
        &[
            "client.write",
            "client.lag",
            "incremental.ground",
            "depgraph.repair",
            "engine.mirror",
            "depgraph.condense",
            "modular.solve",
            "journal.append",
            "journal.fsync",
            "service.publish",
        ],
    );
    let query_split = spans::median_split(
        &log,
        "client.query",
        &[
            "client.lag",
            "server.transport",
            "codec.parse",
            "codec.execute",
            "service.snapshot",
            "service.truth",
            "codec.render",
        ],
    );
    for (kind, split) in [("write", &write_split), ("query", &query_split)] {
        let parts: Vec<String> = split
            .layers
            .iter()
            .map(|(n, v)| format!("{n}={v:.1}"))
            .collect();
        report.ctx(
            &format!("{kind}_median_split_us"),
            format!(
                "median={:.1} {} unaccounted={:.1}",
                split.median,
                parts.join(" "),
                split.unaccounted
            ),
        );
    }

    let open_cycles: Vec<&trace::Cycle> = {
        let mut versions: Vec<u64> = open
            .iter()
            .filter(|s| s.kind == OpKind::Write)
            .map(|s| s.version)
            .collect();
        versions.sort_unstable();
        versions.dedup();
        versions
            .iter()
            .filter_map(|v| cycles.get(v).filter(|c| c.complete()))
            .collect()
    };
    let phase_all = |p: &str| -> Vec<f64> { open_cycles.iter().map(|c| c.phase(p)).collect() };
    let totals: Vec<f64> = open_cycles.iter().map(|c| c.total).collect();
    let solves = phase_all("solve");
    let appends = phase_all("journal_append");
    let fsyncs = phase_all("fsync");
    // A write's own span minus the cycle that acknowledged it (and the
    // generator's lag): transport, codec and waiting in the writer queue.
    let queue_wait = by.get("client.write").cloned().unwrap_or_default();

    let sv = |j: &Json, k: &str| j.num_at(k);
    let stats_open = stats_open.expect("traced");
    let width = |subs: f64, cycles: f64| if cycles > 0.0 { subs / cycles } else { 0.0 };
    let hits = sv(&stats_end, "service.cache_hits");
    let misses = sv(&stats_end, "service.cache_misses");
    let records = sv(&stats_end, "journal.records_appended");

    report.metric("parser.program_ms", replay.parse_ms, "ms");
    report.metric("engine.load_ms", replay.load_ms, "ms");
    report.metric("engine.first_solve_ms", replay.first_solve_ms, "ms");
    report.metric("engine.mirror_us", write_split.layer("engine.mirror"), "us");
    report.metric(
        "engine.regrounds",
        sv(&stats_end, "stats.regrounds"),
        "count",
    );
    report.metric(
        "engine.atom_growth",
        warm.atoms() as f64 / cold.atoms().max(1) as f64,
        "ratio",
    );
    report.metric(
        "incremental.ground_us",
        write_split.layer("incremental.ground"),
        "us",
    );
    report.metric(
        "depgraph.repair_us",
        write_split.layer("depgraph.repair"),
        "us",
    );
    report.metric(
        "depgraph.condense_us",
        write_split.layer("depgraph.condense"),
        "us",
    );
    report.metric(
        "modular.solve_p50_us",
        stats::median(&solves).unwrap_or(0.0),
        "us",
    );
    report.metric("modular.solve_tail_us", tail(&solves), "us");
    report.metric(
        "modular.components_per_write",
        stats::median(&replay.components_evaluated).unwrap_or(0.0),
        "count",
    );
    report.metric(
        "modular.reuse_frac",
        stats::median(&replay.reuse_frac).unwrap_or(0.0),
        "ratio",
    );
    report.metric(
        "journal.append_p50_us",
        stats::median(&appends).unwrap_or(0.0),
        "us",
    );
    report.metric("journal.append_tail_us", tail(&appends), "us");
    report.metric(
        "journal.fsync_p50_us",
        stats::median(&fsyncs).unwrap_or(0.0),
        "us",
    );
    report.metric("journal.fsync_tail_us", tail(&fsyncs), "us");
    report.metric(
        "journal.checkpoint_ms",
        if spec.journal {
            replay.checkpoint_ms
        } else {
            0.0
        },
        "ms",
    );
    report.metric(
        "journal.bytes_per_write",
        if records > 0.0 {
            sv(&stats_end, "journal.bytes_appended") / records
        } else {
            0.0
        },
        "B",
    );
    report.metric("journal.replayed", replayed_records, "count");
    report.metric(
        "service.cycle_p50_us",
        stats::median(&totals).unwrap_or(0.0),
        "us",
    );
    report.metric("service.cycle_tail_us", tail(&totals), "us");
    report.metric(
        "service.publish_us",
        write_split.layer("service.publish"),
        "us",
    );
    report.metric(
        "service.batch_width_open",
        width(
            sv(&stats_open, "service.submissions"),
            sv(&stats_open, "service.write_cycles"),
        ),
        "count",
    );
    report.metric(
        "service.batch_width_sat",
        width(
            sv(&stats_end, "service.submissions") - sv(&stats_open, "service.submissions"),
            sv(&stats_end, "service.write_cycles") - sv(&stats_open, "service.write_cycles"),
        ),
        "count",
    );
    report.metric("service.snapshot_ns", replay.snapshot_ns, "ns");
    report.metric("service.truth_ns", replay.truth_ns, "ns");
    report.metric("service.at_ns", replay.at_ns, "ns");
    report.metric(
        "service.cache_hit_frac",
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            1.0
        },
        "ratio",
    );
    report.metric(
        "writer.queue_wait_p50_us",
        stats::median(&queue_wait).unwrap_or(0.0),
        "us",
    );
    report.metric("writer.queue_wait_tail_us", tail(&queue_wait), "us");
    report.metric(
        "writer.refused",
        sv(&stats_end, "net.overloaded") + sv(&stats_end, "net.timed_out"),
        "count",
    );
    report.metric("codec.parse_us", replay.parse_cmd_us, "us");
    report.metric("codec.execute_us", replay.execute_us, "us");
    report.metric("codec.render_us", replay.render_us, "us");
    report.metric("codec.model_ms", replay.model_ms, "ms");
    report.metric("codec.model_kb", model_kb, "KiB");
    report.metric(
        "server.request_us",
        metrics.num_at("telemetry.histograms.request_ns.p50") / 1e3,
        "us",
    );
    report.metric("server.transport_us", transport, "us");
    report.metric("unaccounted.write_us", write_split.unaccounted, "us");
    report.metric("unaccounted.query_us", query_split.unaccounted, "us");
    report.metric("traced.query_p50_us", q.p50, "us");
    report.metric("traced.query_tail_us", q.tail, "us");
    report.metric("traced.write_p50_us", w.p50, "us");
    report.metric("traced.write_tail_us", w.tail, "us");
    report.metric("writer.saturation_ops", saturation_ops, "1/s");
    report.metric("server.restart_s", restart_s, "s");
    report.metric("server.setup_s", stats::median(&setups).unwrap_or(0.0), "s");
    report.metric("generator.lag_p99_us", lag_p99, "us");
    Ok(())
}
