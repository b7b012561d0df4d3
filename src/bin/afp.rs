//! `afp` — command-line front end over the unified [`afp::Engine`].
//!
//! ```text
//! afp [OPTIONS] [FILE]          read a program from FILE (default: stdin)
//!
//! OPTIONS:
//!   -s, --semantics <S>   wfs (default) | stable | fitting | perfect | ifp
//!   -q, --query <ATOM>    print the truth value of one atom (e.g. 'wins(a)')
//!   -t                    print the alternating sequence (wfs only)
//!   -a, --active-domain   range-restrict unsafe rules to the active domain
//!   -n, --max-models <N>  cap stable-model enumeration
//!   -j, --json            machine-readable output on stdout
//!       --assert <TEXT>   apply rules/facts to the loaded session (repeatable)
//!       --retract <TEXT>  remove rules/facts from the session (repeatable)
//!       --stats           print session counters as JSON at exit (serve mode: the
//!                         final `stats` frame)
//!       --serve           serve FILE: read update/query commands from stdin
//!       --listen <ADDR>   also serve the framed protocol over TCP (implies --serve;
//!                         port 0 picks an ephemeral port, announced on stdout)
//!       --socket <PATH>   also serve the framed protocol over a unix socket
//!                         (implies --serve)
//!       --queue-depth <N> bound the one write queue (default 64), stdin and
//!                         listeners alike; a full queue rejects submissions
//!                         with an overloaded error
//!       --max-conns <N>   open-connection limit over all listeners (default 32)
//!       --submit-timeout-ms <N>  deadline for queued submissions (default: none)
//!       --journal <DIR>   durable serve mode (implies --serve): write-ahead
//!                         journal + checkpoints in DIR; a DIR that already
//!                         holds a journal is recovered from — FILE's text is
//!                         then superseded by the recovered history
//!       --fsync <P>       journal sync policy: always (default) | never | N
//!                         (sync every N records)
//!       --checkpoint-every <N>  checkpoint + compact the journal every N
//!                         versions (default 0 = only on the checkpoint command)
//!       --changelog-cap <N>  bound changelog retention (default 1024); reads
//!                         behind the evicted horizon get a version-evicted
//!                         error
//!       --metrics-format <F>  how the serve-mode `metrics` command renders:
//!                         json (default) | prom (Prometheus text exposition)
//!       --trace <FILE>    stream write-cycle phase spans to FILE as JSONL
//!                         trace events (Chrome trace-event format; load the
//!                         file in chrome://tracing or Perfetto). Bounded
//!                         buffer: events beyond it are counted as dropped,
//!                         never block a write cycle
//!       --slow-cycle-ms <N>  log any write cycle slower than N ms to stderr
//!                         with its full phase breakdown
//!       --ground          print the ground program and exit
//!   -h, --help            this text
//! ```
//!
//! `--assert` / `--retract` apply **after** the program is loaded, in
//! command-line order, through the session's incremental rule/fact delta
//! machinery — the grounding is patched in place, not rebuilt, exactly as
//! a long-running embedder of [`afp::Session`] would do it.
//!
//! `--serve` runs the program behind [`afp::Service`]: the model is
//! solved once and published as version 0, then stdin is read as one
//! command per line against the live service, whose one writer thread
//! applies the writes of every front end. The grammar (shared with
//! the network transport — see [`afp::net::codec`]):
//!
//! ```text
//! query ATOM            truth of ATOM in the current version
//! at VERSION ATOM       truth of ATOM in a cached earlier version
//! assert TEXT           submit rules/facts; prints the published version
//! retract TEXT          remove rules/facts; prints the published version
//! assert-facts TEXT     as `assert`, but refuses anything not a ground fact
//! retract-facts TEXT    as `retract`, but refuses anything not a ground fact
//! model                 print the current version's full model
//! version               print the current version number
//! log [SINCE]           applied deltas with version > SINCE
//! stats                 session, service and net counters (+ journal with
//!                       --journal) as one JSON object; every front end
//!                       reports the same totals
//! metrics               telemetry exposition: per-phase write-cycle histograms,
//!                       counters and recent cycles as JSON, or with
//!                       --metrics-format prom every `stats` counter too, as
//!                       Prometheus text
//! ping                  readiness probe: version + writer liveness + uptime
//! checkpoint            write a durability checkpoint now (needs --journal)
//! quit                  exit (EOF works too)
//! ```
//!
//! Command errors are reported inline as structured error lines
//! (`error: …` or `{"error":{"kind":…,"message":…}}`) and the server
//! keeps running — the published model chain is never left in a
//! half-applied state, and serve mode exits nonzero only when the
//! *transport* (stdin or a listener) fails, never because a command was
//! malformed.
//!
//! With `--listen`/`--socket` the same service is additionally exposed
//! over length-prefixed TCP / unix-socket framing ([`afp::NetServer`]):
//! each bound endpoint is announced on stdout first
//! (`% listening tcp 127.0.0.1:PORT` or its JSON twin), then stdin is
//! served as usual; EOF or `quit` on stdin shuts the listeners down
//! (draining queued writes) and exits.
//!
//! Exit codes: 0 ok; 1 no stable model (with `-s stable`) or query false;
//! 2 usage / parse / grounding / transport error.

use afp::net::codec;
use afp::{
    Engine, Error, FsyncPolicy, Journal, JournalOptions, MetricsFormat, MetricsRegistry, Model,
    NetOptions, NetServer, Semantics, Service, ServiceOptions, Shutdown, Telemetry, TraceSink,
    Truth,
};
use std::io::{BufRead, Read};
use std::process::ExitCode;
use std::time::Duration;

const USAGE_HINT: &str = "usage: afp [-s wfs|stable|fitting|perfect|ifp] [-q ATOM] [-t] [-a] \
     [-n N] [-j] [--assert TEXT] [--retract TEXT] [--stats] [--serve] [--listen ADDR] \
     [--socket PATH] [--queue-depth N] [--max-conns N] [--submit-timeout-ms N] \
     [--journal DIR] [--fsync always|never|N] [--checkpoint-every N] [--changelog-cap N] \
     [--metrics-format json|prom] [--trace FILE] [--slow-cycle-ms N] [--ground] [FILE]";

struct Options {
    semantics: String,
    query: Option<String>,
    trace: bool,
    active_domain: bool,
    max_models: usize,
    json: bool,
    ground_only: bool,
    stats: bool,
    serve: bool,
    listen: Option<String>,
    socket: Option<String>,
    queue_depth: usize,
    max_conns: usize,
    submit_timeout_ms: Option<u64>,
    journal: Option<String>,
    fsync: FsyncPolicy,
    checkpoint_every: u64,
    changelog_cap: Option<usize>,
    metrics_format: MetricsFormat,
    /// Serve-mode trace stream target (`--trace FILE`); distinct from
    /// the one-shot `-t` alternating-sequence trace.
    trace_file: Option<String>,
    slow_cycle_ms: Option<u64>,
    /// Session updates in command-line order: `(assert?, program text)`.
    updates: Vec<(bool, String)>,
    file: Option<String>,
}

fn usage() -> ! {
    eprintln!("afp — well-founded and stable model solver\n{USAGE_HINT}");
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut options = Options {
        semantics: "wfs".into(),
        query: None,
        trace: false,
        active_domain: false,
        max_models: usize::MAX,
        json: false,
        ground_only: false,
        stats: false,
        serve: false,
        listen: None,
        socket: None,
        queue_depth: 64,
        max_conns: 32,
        submit_timeout_ms: None,
        journal: None,
        fsync: FsyncPolicy::Always,
        checkpoint_every: 0,
        changelog_cap: None,
        metrics_format: MetricsFormat::Json,
        trace_file: None,
        slow_cycle_ms: None,
        updates: Vec::new(),
        file: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "-s" | "--semantics" => {
                options.semantics = args.next().unwrap_or_else(|| usage());
            }
            "-q" | "--query" => {
                options.query = Some(args.next().unwrap_or_else(|| usage()));
            }
            "-t" => options.trace = true,
            "--trace" => {
                options.trace_file = Some(args.next().unwrap_or_else(|| usage()));
            }
            "--metrics-format" => {
                let f = args.next().unwrap_or_else(|| usage());
                options.metrics_format = MetricsFormat::parse(&f).unwrap_or_else(|| usage());
            }
            "--slow-cycle-ms" => {
                let n = args.next().unwrap_or_else(|| usage());
                options.slow_cycle_ms = Some(n.parse().unwrap_or_else(|_| usage()));
            }
            "-a" | "--active-domain" => options.active_domain = true,
            "-n" | "--max-models" => {
                let n = args.next().unwrap_or_else(|| usage());
                options.max_models = n.parse().unwrap_or_else(|_| usage());
            }
            "-j" | "--json" => options.json = true,
            "--assert" => {
                let text = args.next().unwrap_or_else(|| usage());
                options.updates.push((true, text));
            }
            "--retract" => {
                let text = args.next().unwrap_or_else(|| usage());
                options.updates.push((false, text));
            }
            "--listen" => {
                options.listen = Some(args.next().unwrap_or_else(|| usage()));
                options.serve = true;
            }
            "--socket" => {
                options.socket = Some(args.next().unwrap_or_else(|| usage()));
                options.serve = true;
            }
            // A zero bound would refuse every write (or connection).
            "--queue-depth" => options.queue_depth = positive(args.next()),
            "--max-conns" => options.max_conns = positive(args.next()),
            "--submit-timeout-ms" => {
                let n = args.next().unwrap_or_else(|| usage());
                options.submit_timeout_ms = Some(n.parse().unwrap_or_else(|_| usage()));
            }
            "--journal" => {
                options.journal = Some(args.next().unwrap_or_else(|| usage()));
                options.serve = true;
            }
            "--fsync" => {
                let policy = args.next().unwrap_or_else(|| usage());
                options.fsync = match policy.as_str() {
                    "always" => FsyncPolicy::Always,
                    "never" => FsyncPolicy::Never,
                    n => FsyncPolicy::EveryN(n.parse().unwrap_or_else(|_| usage())),
                };
            }
            "--checkpoint-every" => {
                let n = args.next().unwrap_or_else(|| usage());
                options.checkpoint_every = n.parse().unwrap_or_else(|_| usage());
            }
            "--changelog-cap" => {
                let n = args.next().unwrap_or_else(|| usage());
                options.changelog_cap = Some(n.parse().unwrap_or_else(|_| usage()));
            }
            "--ground" => options.ground_only = true,
            "--stats" => options.stats = true,
            "--serve" => options.serve = true,
            "-h" | "--help" => usage(),
            _ if arg.starts_with('-') => usage(),
            _ => {
                if options.file.is_some() {
                    usage();
                }
                options.file = Some(arg);
            }
        }
    }
    options
}

/// A flag operand that must be a positive integer; anything else is a
/// usage error.
fn positive(arg: Option<String>) -> usize {
    arg.and_then(|n| n.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| usage())
}

fn semantics_of(name: &str, max_models: usize) -> Option<Semantics> {
    Some(match name {
        "wfs" => Semantics::WellFounded {
            strategy: Default::default(),
        },
        "stable" => Semantics::Stable { max_models },
        "fitting" => Semantics::Fitting,
        "perfect" => Semantics::Perfect,
        "ifp" => Semantics::Inflationary,
        _ => None?,
    })
}

fn main() -> ExitCode {
    let options = parse_args();
    let src = match &options.file {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("afp: cannot read {path}: {e}");
                return ExitCode::from(2);
            }
        },
        None => {
            let mut s = String::new();
            if std::io::stdin().read_to_string(&mut s).is_err() {
                eprintln!("afp: cannot read stdin");
                return ExitCode::from(2);
            }
            s
        }
    };
    // Validated only after stdin is drained: exiting while the writer is
    // still feeding the pipe would hand well-behaved callers an EPIPE.
    let Some(semantics) = semantics_of(&options.semantics, options.max_models) else {
        eprintln!(
            "afp: unknown semantics {:?}\n{USAGE_HINT}",
            options.semantics
        );
        return ExitCode::from(2);
    };

    // Resolve the query to (pred, args-as-names) before solving so bad
    // queries exit 2 without wasted work.
    let query: Option<(String, Vec<String>)> = match &options.query {
        None => None,
        Some(text) => match codec::parse_query(text) {
            Ok(q) => Some(q),
            Err(msg) => {
                eprintln!("afp: bad query: {msg}\n{USAGE_HINT}");
                return ExitCode::from(2);
            }
        },
    };

    let engine = Engine::builder()
        .semantics(semantics)
        .safety(if options.active_domain {
            afp::SafetyPolicy::ActiveDomain
        } else {
            afp::SafetyPolicy::Reject
        })
        .trace(options.trace)
        .build();

    if options.serve {
        return run_serve(&engine, &src, &options);
    }

    let mut session = match engine.load(&src) {
        Ok(s) => s,
        Err(e) => return report_error(&e),
    };
    for (assert, text) in &options.updates {
        let result = if *assert {
            session.assert_rules(text)
        } else {
            session.retract_rules(text)
        };
        if let Err(e) = result {
            return report_error(&e);
        }
    }
    if options.ground_only {
        print!("{}", session.ground());
        return ExitCode::SUCCESS;
    }
    let model = match session.solve() {
        Ok(m) => m,
        Err(e) => return report_error(&e),
    };

    if options.trace {
        if let Some(trace) = model.trace() {
            println!("% alternating sequence");
            for s in &trace.steps {
                println!(
                    "% k={} |negatives|={} |positives|={}",
                    s.k,
                    s.i_tilde.count(),
                    s.s_p.count()
                );
            }
        }
    }

    let code = if let Some((pred, args)) = &query {
        let arg_refs: Vec<&str> = args.iter().map(String::as_str).collect();
        let truth = model.truth(pred, &arg_refs);
        if options.json {
            println!(
                "{{\"semantics\":{},\"query\":{},\"truth\":{}}}",
                codec::json_str(model.semantics().name()),
                codec::json_str(options.query.as_deref().unwrap_or_default()),
                codec::json_str(codec::truth_name(truth))
            );
        } else {
            println!("{truth:?}");
        }
        // Exit-code contract: wfs signals a non-true query; stable still
        // signals "no stable model" even when a query is printed.
        let failed = match semantics {
            Semantics::WellFounded { .. } => truth != Truth::True,
            Semantics::Stable { .. } => model.stable_models().is_empty(),
            _ => false,
        };
        if failed {
            ExitCode::from(1)
        } else {
            ExitCode::SUCCESS
        }
    } else {
        print_result(&model, semantics, &options)
    };
    if options.stats {
        print_stats(
            &MetricsRegistry::session_json(session.stats()),
            options.json,
        );
    }
    code
}

fn print_result(model: &Model, semantics: Semantics, options: &Options) -> ExitCode {
    match semantics {
        Semantics::Stable { .. } => {
            if options.json {
                print_stable_json(model);
            } else {
                for (i, m) in model.stable_models().iter().enumerate() {
                    println!("% stable model {}", i + 1);
                    for name in model.ground().set_to_names(m) {
                        println!("{name}.");
                    }
                }
                if model.stable_models().is_empty() {
                    println!("% no stable model");
                }
            }
            if model.stable_models().is_empty() {
                ExitCode::from(1)
            } else {
                ExitCode::SUCCESS
            }
        }
        Semantics::Inflationary => {
            if options.json {
                print_assignment_json(model);
            } else {
                for name in codec::SortedNames::of(model, Truth::True).iter() {
                    println!("{name}.");
                }
            }
            ExitCode::SUCCESS
        }
        other => {
            if options.json {
                print_assignment_json(model);
            } else {
                print_partial(model);
                if matches!(other, Semantics::WellFounded { .. }) {
                    println!("% total: {}", model.is_total());
                }
            }
            ExitCode::SUCCESS
        }
    }
}

/// Serve mode: publish the program behind [`afp::Service`], optionally
/// expose it over TCP/unix listeners, and process one command per stdin
/// line against the live service — through the shared
/// [`codec`](afp::net::codec), so stdin and the wire speak one grammar
/// and one error shape. Command failures are reported inline and the
/// loop continues; only transport failures exit nonzero.
fn run_serve(engine: &Engine, src: &str, options: &Options) -> ExitCode {
    let mut service_options = ServiceOptions {
        queue_depth: options.queue_depth,
        submit_deadline: options.submit_timeout_ms.map(Duration::from_millis),
        ..ServiceOptions::default()
    };
    if let Some(cap) = options.changelog_cap {
        service_options.changelog_capacity = cap;
    }
    let journal_options = JournalOptions {
        fsync: options.fsync,
        checkpoint_every: options.checkpoint_every,
    };
    // With `--journal`, a directory that already holds a journal wins
    // over FILE: the service is rebuilt from the newest checkpoint plus
    // the journal tail. A fresh directory seeds the journal from FILE.
    let service = match &options.journal {
        Some(dir) if Journal::exists(dir) => {
            match Service::recover(engine, dir, service_options, journal_options) {
                Ok(s) => {
                    announce_recovery(s.version(), options.json);
                    s
                }
                Err(e) => return report_error(&e),
            }
        }
        Some(dir) => {
            let session = match engine.load(src) {
                Ok(s) => s,
                Err(e) => return report_error(&e),
            };
            match Service::with_journal(session, service_options, dir, journal_options) {
                Ok(s) => s,
                Err(e) => return report_error(&e),
            }
        }
        None => {
            let session = match engine.load(src) {
                Ok(s) => s,
                Err(e) => return report_error(&e),
            };
            match Service::with_options(session, service_options) {
                Ok(s) => s,
                Err(e) => return report_error(&e),
            }
        }
    };
    // Telemetry is configured before any listener or seed delta, so the
    // very first write cycle is phase-timed (and traced, when asked).
    let trace_sink = match &options.trace_file {
        Some(path) => match TraceSink::create(std::path::Path::new(path)) {
            Ok(sink) => Some(sink),
            Err(e) => {
                eprintln!("afp: cannot open trace file {path}: {e}");
                return ExitCode::from(2);
            }
        },
        None => None,
    };
    service.set_telemetry(Telemetry::configured(
        options.metrics_format,
        trace_sink,
        options.slow_cycle_ms,
    ));

    // --assert/--retract seed the service before commands are read.
    for (assert, text) in &options.updates {
        let result = if *assert {
            service.assert_rules(text)
        } else {
            service.retract_rules(text)
        };
        if let Err(e) = result {
            return report_error(&e);
        }
    }

    // Listeners front the same service as stdin: one writer thread and
    // one bounded queue, so one admission-control policy governs every
    // front end.
    let mut servers: Vec<NetServer> = Vec::new();
    let net_options = NetOptions {
        max_conns: options.max_conns,
        ..NetOptions::default()
    };
    if let Some(addr) = &options.listen {
        match NetServer::bind_tcp(service.clone(), addr.as_str(), net_options) {
            Ok(server) => {
                announce("tcp", server.addr(), options.json);
                servers.push(server);
            }
            Err(e) => {
                eprintln!("afp: cannot listen on {addr}: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if let Some(path) = &options.socket {
        match NetServer::bind_unix(service.clone(), path, net_options) {
            Ok(server) => {
                announce("unix", server.addr(), options.json);
                servers.push(server);
            }
            Err(e) => {
                eprintln!("afp: cannot bind socket {path}: {e}");
                for server in &servers {
                    server.shutdown();
                }
                return ExitCode::from(2);
            }
        }
    }
    let mut transport_failed = false;
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let line = match line {
            Ok(line) => line,
            Err(e) => {
                eprintln!("afp: stdin transport failure: {e}");
                transport_failed = true;
                break;
            }
        };
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some(response) = codec::respond(&service, line) else {
            break;
        };
        if options.json {
            println!("{}", codec::render_json(&response));
        } else {
            println!("{}", codec::render_plain(&response));
        }
    }

    // Deterministic teardown: stop accepting, close connections, then
    // drain the write queue so every accepted submission resolves.
    for server in &servers {
        server.shutdown();
    }
    service.shutdown(Shutdown::Drain);

    // `--stats` reports the final counters at exit, like one-shot mode
    // (the interactive `stats` command reports them mid-session).
    if options.stats {
        print_stats(&service.metrics().stats_json(), options.json);
    }
    if transport_failed {
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    }
}

/// Announce a bound endpoint on stdout — first, so callers binding port
/// 0 (or waiting for readiness) can parse the real address.
fn announce(transport: &str, addr: &str, json: bool) {
    if json {
        println!(
            "{{\"listening\":{{\"transport\":{},\"addr\":{}}}}}",
            codec::json_str(transport),
            codec::json_str(addr)
        );
    } else {
        println!("% listening {transport} {addr}");
    }
}

/// Announce a successful journal recovery on stdout, before any
/// listener lines, so supervisors can confirm the restored version.
fn announce_recovery(version: u64, json: bool) {
    if json {
        println!("{{\"journal\":{{\"recovered\":{version}}}}}");
    } else {
        println!("% journal recovered version {version}");
    }
}

/// Print a `stats` frame rendered by [`MetricsRegistry`], the listing
/// behind the interactive `stats` command and the wire protocol too.
/// Plain (non-`--json`) output prefixes it as a `%` comment so
/// downstream fact parsers stay happy.
fn print_stats(body: &str, as_json: bool) {
    if as_json {
        println!("{body}");
    } else {
        println!("% stats {body}");
    }
}

fn report_error(e: &Error) -> ExitCode {
    match e {
        Error::NotLocallyStratified => eprintln!("afp: program is not locally stratified"),
        other => eprintln!("afp: {other}"),
    }
    ExitCode::from(2)
}

fn print_partial(model: &Model) {
    for name in codec::SortedNames::of(model, Truth::True).iter() {
        println!("{name}.");
    }
    for name in codec::SortedNames::of(model, Truth::Undefined).iter() {
        println!("{name}?  % undefined");
    }
}

fn print_assignment_json(model: &Model) {
    println!("{}", codec::model_object(None, model));
}

fn print_stable_json(model: &Model) {
    let models: Vec<String> = model
        .stable_models()
        .iter()
        .map(|m| {
            let names = model.ground().set_to_names(m);
            let json = codec::json_list(names.iter().map(String::as_str));
            json.to_string()
        })
        .collect();
    println!(
        "{{\"semantics\":\"stable\",\"complete\":{},\"count\":{},\"models\":[{}]}}",
        model.is_complete(),
        model.stable_models().len(),
        models.join(",")
    );
}
