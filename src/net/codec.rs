//! One protocol, three front ends: the shared command/response codec.
//!
//! The stdin `--serve` mode, the TCP transport and the unix-socket
//! transport all speak the same line-oriented command grammar —
//!
//! ```text
//! query ATOM            truth of ATOM in the current version
//! at VERSION ATOM       truth of ATOM in a cached earlier version
//! assert TEXT           submit rules/facts; prints the version
//! retract TEXT          remove rules/facts
//! assert-facts TEXT     as `assert`, but refuses anything not a ground fact
//! retract-facts TEXT    as `retract`, but refuses anything not a ground fact
//! model                 the current version's full model
//! version               the current version number
//! log SINCE             applied deltas with version > SINCE
//! stats                 session + service + net (+ journal) counters as JSON
//! metrics               telemetry exposition: phase histograms + counters
//! ping                  readiness probe: version + writer liveness + uptime
//! checkpoint            write a durability checkpoint now (journaled services)
//! quit                  end the session (EOF works too)
//! ```
//!
//! — and render responses through the same functions, so a malformed
//! command produces the *same structured error shape* everywhere:
//! `{"error":{"kind":…,"message":…}}` in JSON (the only wire form) or
//! `error: message` in plain stdin mode. Command failures are data, not
//! process failures: front ends keep serving after reporting them, and
//! only transport failures terminate a session abnormally.
//!
//! The wire transport frames each payload (request line out, JSON
//! object back) with a **4-byte big-endian length prefix**
//! ([`write_frame`] / [`read_frame`]); the stdin front end frames by
//! newline. Nothing else differs.
//!
//! [`execute`] answers every command for every front end, `stats`
//! included: the frame is rendered from the service's
//! [`crate::MetricsRegistry`], the one listing behind `stats`, `metrics`
//! and the one-shot `--stats`, so the outputs cannot drift.

use std::fmt::{self, Write as _};
use std::io::{self, Read, Write};

use afp_datalog::ast::Term;

use crate::service::ModelSnapshot;
use crate::{AppliedDelta, DeltaKind, Error, Model, Service, Truth};

// ---------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------

/// One parsed protocol command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// `query ATOM` — truth of a ground atom in the current version.
    Query {
        /// The ground atom text, e.g. `wins(a)`.
        atom: String,
    },
    /// `at VERSION ATOM` — truth in a cached earlier version.
    At {
        /// The pinned version.
        version: u64,
        /// The ground atom text.
        atom: String,
    },
    /// `assert`/`retract`/`assert-facts`/`retract-facts TEXT`.
    Submit {
        /// Which delta path the text takes.
        kind: DeltaKind,
        /// The program text.
        text: String,
    },
    /// `model` — the current version's full three-valued model.
    Model,
    /// `version` — the current version number.
    Version,
    /// `log SINCE` — applied deltas with version > `SINCE`.
    Changelog {
        /// The anchor version (deltas strictly after it).
        since: u64,
    },
    /// `stats` — counters as JSON.
    Stats,
    /// `metrics` — the telemetry tier's exposition: per-phase write-cycle
    /// latency histograms (p50/p90/p99), counters, gauges and the recent
    /// cycle ring, rendered as JSON or Prometheus text per the service's
    /// configured [`crate::MetricsFormat`].
    Metrics,
    /// `ping` — readiness probe: current version + writer liveness +
    /// uptime, answered from shared memory without touching the write
    /// path (a load balancer health check must not queue behind a slow
    /// cycle).
    Ping,
    /// `checkpoint` — write a durability checkpoint now and compact the
    /// journal prefix it subsumes ([`crate::Service::checkpoint`]).
    Checkpoint,
    /// `quit` / `exit` — end the session.
    Quit,
}

/// Parse one command line. Errors are protocol errors (unknown command,
/// malformed operands) reported back to the client — never transport
/// failures.
pub fn parse_command(line: &str) -> Result<Request, String> {
    let line = line.trim();
    let (command, rest) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
    let rest = rest.trim();
    // Commands without operands refuse trailing text: `model wins(a)` is
    // a mistyped query, not a request for the whole model.
    let bare = |request: Request| {
        if rest.is_empty() {
            Ok(request)
        } else {
            Err(format!("usage: {command}"))
        }
    };
    match command {
        "query" => match parse_query(rest) {
            Ok(_) => Ok(Request::Query { atom: rest.into() }),
            Err(msg) => Err(format!("bad query: {msg}")),
        },
        "at" => {
            let (version, atom) = rest.split_once(char::is_whitespace).unwrap_or((rest, ""));
            let version = version
                .parse::<u64>()
                .map_err(|_| "usage: at VERSION ATOM".to_string())?;
            match parse_query(atom.trim()) {
                Ok(_) => Ok(Request::At {
                    version,
                    atom: atom.trim().into(),
                }),
                Err(msg) => Err(format!("bad query: {msg}")),
            }
        }
        "assert" => Ok(Request::Submit {
            kind: DeltaKind::AssertRules,
            text: rest.into(),
        }),
        "retract" => Ok(Request::Submit {
            kind: DeltaKind::RetractRules,
            text: rest.into(),
        }),
        "assert-facts" => Ok(Request::Submit {
            kind: DeltaKind::AssertFacts,
            text: rest.into(),
        }),
        "retract-facts" => Ok(Request::Submit {
            kind: DeltaKind::RetractFacts,
            text: rest.into(),
        }),
        "model" => bare(Request::Model),
        "version" => bare(Request::Version),
        "log" => {
            let since = if rest.is_empty() {
                0
            } else {
                rest.parse::<u64>()
                    .map_err(|_| "usage: log [SINCE]".to_string())?
            };
            Ok(Request::Changelog { since })
        }
        "stats" => bare(Request::Stats),
        "metrics" => bare(Request::Metrics),
        "ping" => bare(Request::Ping),
        "checkpoint" => bare(Request::Checkpoint),
        "quit" | "exit" => bare(Request::Quit),
        other => Err(format!(
            "unknown command {other:?} (query/at/assert/retract/assert-facts/\
             retract-facts/model/version/log/stats/metrics/ping/checkpoint/quit)"
        )),
    }
}

/// Render a request back to its command-line spelling — an inverse of
/// [`parse_command`] (`parse_command(render_command(r)) == r`, which
/// `tests/codec_props.rs` property-tests). `Quit` renders as `quit`
/// even though `exit` also parses to it.
pub fn render_command(request: &Request) -> String {
    match request {
        Request::Query { atom } => format!("query {atom}"),
        Request::At { version, atom } => format!("at {version} {atom}"),
        Request::Submit { kind, text } => {
            let word = match kind {
                DeltaKind::AssertRules => "assert",
                DeltaKind::RetractRules => "retract",
                DeltaKind::AssertFacts => "assert-facts",
                DeltaKind::RetractFacts => "retract-facts",
            };
            format!("{word} {text}")
        }
        Request::Model => "model".into(),
        Request::Version => "version".into(),
        Request::Changelog { since } => format!("log {since}"),
        Request::Stats => "stats".into(),
        Request::Metrics => "metrics".into(),
        Request::Ping => "ping".into(),
        Request::Checkpoint => "checkpoint".into(),
        Request::Quit => "quit".into(),
    }
}

/// Parse `pred(c1, …, ck)` into the names its symbols stand for (`'a b'`
/// gives `a b`, as the symbol store holds it); rejects variables and
/// function terms. Shared by the protocol front ends and the CLI's `-q`.
pub fn parse_query(text: &str) -> Result<(String, Vec<String>), String> {
    let mut tmp = crate::Program::new();
    let atom = afp_datalog::parser::parse_atom_into(text, &mut tmp).map_err(|e| e.to_string())?;
    if !atom.is_ground() {
        return Err("query must be a ground atom".into());
    }
    let name = |sym| tmp.symbols.name(sym).to_string();
    let args = atom
        .args
        .iter()
        .map(|t| match t {
            Term::Const(c) => Ok(name(*c)),
            _ => Err(format!(
                "query arguments must be constants, found {}",
                afp_datalog::ast::display_term(t, &tmp.symbols)
            )),
        })
        .collect::<Result<_, _>>()?;
    Ok((name(atom.pred), args))
}

// ---------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------

/// One protocol response, renderable as a JSON line ([`render_json`],
/// the wire form) or plain text ([`render_plain`], the stdin default).
#[derive(Debug, Clone)]
pub enum Response {
    /// Truth of one atom in one version.
    Truth {
        /// The version the truth was read from.
        version: u64,
        /// The query text as submitted.
        query: String,
        /// The three-valued verdict.
        truth: Truth,
    },
    /// A submission was applied; `version` first includes it.
    Applied {
        /// The published version.
        version: u64,
    },
    /// The current version number.
    Version {
        /// The version.
        version: u64,
    },
    /// A full model of one pinned version.
    Model {
        /// The pinned snapshot.
        snapshot: ModelSnapshot,
    },
    /// Counters, already serialized by
    /// [`crate::MetricsRegistry::stats_json`].
    Stats {
        /// The JSON object.
        json: String,
    },
    /// Telemetry exposition, already rendered by
    /// [`crate::Telemetry::render`] (JSON object or Prometheus text,
    /// per the service's configured format).
    Metrics {
        /// The rendered exposition, shipped verbatim.
        body: String,
    },
    /// Changelog entries.
    Changelog {
        /// Applied deltas, oldest first.
        entries: Vec<AppliedDelta>,
    },
    /// Readiness probe answer.
    Pong {
        /// The current version.
        version: u64,
        /// Whether the write path is accepting work (`false` once the
        /// service's writer thread has stopped).
        writer_live: bool,
        /// Milliseconds since the service was constructed.
        uptime_ms: u64,
    },
    /// A durability checkpoint was written.
    Checkpointed {
        /// The checkpointed version.
        version: u64,
    },
    /// A command failed. The session continues.
    Error {
        /// Stable machine-readable failure class (see [`error_kind`];
        /// `"protocol"` for unparseable commands).
        kind: &'static str,
        /// Human-readable detail.
        message: String,
    },
}

impl Response {
    /// Wrap a command-level failure.
    pub fn protocol_error(message: impl Into<String>) -> Response {
        Response::Error {
            kind: "protocol",
            message: message.into(),
        }
    }

    /// Wrap an engine/service error with its stable kind.
    pub fn from_error(e: &Error) -> Response {
        Response::Error {
            kind: error_kind(e),
            message: e.to_string(),
        }
    }
}

/// Stable machine-readable class for every [`Error`] variant — part of
/// the wire protocol, so clients can branch without string-matching
/// messages.
pub fn error_kind(e: &Error) -> &'static str {
    match e {
        Error::Parse(_) => "parse",
        Error::Ground(_) => "ground",
        Error::NotLocallyStratified => "not-locally-stratified",
        Error::NotAFact(_) => "not-a-fact",
        Error::WriterAborted => "writer-aborted",
        Error::Overloaded => "overloaded",
        Error::SubmitTimeout => "submit-timeout",
        Error::ServiceStopped => "service-stopped",
        Error::VersionEvicted { .. } => "version-evicted",
        Error::Journal(_) => "journal",
        Error::JournalCorrupt { .. } => "journal-corrupt",
    }
}

/// Spell a [`Truth`] the way the protocol does.
pub fn truth_name(t: Truth) -> &'static str {
    match t {
        Truth::True => "true",
        Truth::False => "false",
        Truth::Undefined => "undefined",
    }
}

/// Render a response as the one-line JSON the wire always speaks (and
/// stdin speaks under `--json`).
pub fn render_json(response: &Response) -> String {
    match response {
        Response::Truth {
            version,
            query,
            truth,
        } => format!(
            "{{\"version\":{version},\"query\":{},\"truth\":{}}}",
            json_str(query),
            json_str(truth_name(*truth))
        ),
        Response::Applied { version } => format!("{{\"ok\":true,\"version\":{version}}}"),
        Response::Version { version } => format!("{{\"version\":{version}}}"),
        Response::Model { snapshot } => model_json(snapshot.version(), snapshot.model()),
        Response::Stats { json } => json.clone(),
        Response::Metrics { body } => body.clone(),
        Response::Changelog { entries } => {
            let body: Vec<String> = entries
                .iter()
                .map(|e| {
                    format!(
                        "{{\"version\":{},\"kind\":{},\"text\":{}}}",
                        e.version,
                        json_str(e.kind.name()),
                        json_str(&e.text)
                    )
                })
                .collect();
            format!("{{\"changelog\":[{}]}}", body.join(","))
        }
        Response::Pong {
            version,
            writer_live,
            uptime_ms,
        } => format!(
            "{{\"pong\":true,\"version\":{version},\"writer_live\":{writer_live},\
             \"uptime_ms\":{uptime_ms}}}"
        ),
        Response::Checkpointed { version } => {
            format!("{{\"ok\":true,\"checkpoint\":{version}}}")
        }
        Response::Error { kind, message } => format!(
            "{{\"error\":{{\"kind\":{},\"message\":{}}}}}",
            json_str(kind),
            json_str(message)
        ),
    }
}

/// Render a response for the plain (non-`--json`) stdin mode. May be
/// multi-line (`model`, `log`).
pub fn render_plain(response: &Response) -> String {
    match response {
        Response::Truth { truth, .. } => format!("{truth:?}"),
        Response::Applied { version } => format!("ok {version}"),
        Response::Version { version } => format!("{version}"),
        Response::Model { snapshot } => {
            let model = snapshot.model();
            let mut out = format!("% version {}", snapshot.version());
            for name in sorted(model.true_atoms()) {
                out.push('\n');
                out.push_str(&name);
                out.push('.');
            }
            for name in sorted(model.undefined_atoms()) {
                out.push('\n');
                out.push_str(&name);
                out.push_str("?  % undefined");
            }
            out
        }
        // Counters stay JSON even in plain interactive mode — they are
        // one opaque machine-readable object either way; the metrics
        // body is likewise already in its final form (JSON or
        // Prometheus text).
        Response::Stats { json } => json.clone(),
        Response::Metrics { body } => body.clone(),
        Response::Changelog { entries } => {
            let mut out = format!("% {} deltas", entries.len());
            for e in entries {
                out.push_str(&format!("\n{} {} {}", e.version, e.kind.name(), e.text));
            }
            out
        }
        Response::Pong {
            version,
            writer_live,
            uptime_ms,
        } => format!(
            "pong version {version} writer {} uptime {uptime_ms}ms",
            if *writer_live { "live" } else { "stopped" }
        ),
        Response::Checkpointed { version } => format!("checkpoint {version}"),
        Response::Error { message, .. } => format!("error: {message}"),
    }
}

/// The canonical JSON for one pinned model version: sorted atom lists,
/// so two bit-identical models render byte-identically — the wire
/// differential test compares these strings directly against cold
/// solves.
pub fn model_json(version: u64, model: &Model) -> String {
    model_object(Some(version), model).to_string()
}

/// A model's JSON object: its version when it has one (`afp --json`
/// prints none), the semantics, totality and the sorted true, false and
/// undefined atoms, each atom escaped straight into the output.
pub fn model_object(version: Option<u64>, model: &Model) -> impl fmt::Display + '_ {
    fmt::from_fn(move |f| {
        let version = version.map(|v| format!("\"version\":{v},"));
        write!(
            f,
            "{{{}\"semantics\":{},\"total\":{},\"true\":{},\"false\":{},\"undefined\":{}}}",
            version.unwrap_or_default(),
            json_str(model.semantics().name()),
            model.is_total(),
            json_list(&sorted(model.true_atoms())),
            json_list(&sorted(model.false_atoms())),
            json_list(&sorted(model.undefined_atoms())),
        )
    })
}

// ---------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------

/// Run one parsed command against a service. [`Request::Quit`] is the
/// caller's to handle (it ends the *session*, not a computation); this
/// function answers it like `version` so misrouted quits stay harmless.
pub fn execute(service: &Service, request: &Request) -> Response {
    match request {
        Request::Query { atom } => match parse_query(atom) {
            Ok((pred, args)) => {
                let refs: Vec<&str> = args.iter().map(String::as_str).collect();
                let snapshot = service.snapshot();
                Response::Truth {
                    version: snapshot.version(),
                    query: atom.clone(),
                    truth: snapshot.truth(&pred, &refs),
                }
            }
            Err(msg) => Response::protocol_error(format!("bad query: {msg}")),
        },
        Request::At { version, atom } => match parse_query(atom) {
            Ok((pred, args)) => match service.at_version(*version) {
                Ok(snapshot) => {
                    let refs: Vec<&str> = args.iter().map(String::as_str).collect();
                    Response::Truth {
                        version: *version,
                        query: atom.clone(),
                        truth: snapshot.truth(&pred, &refs),
                    }
                }
                Err(e) => Response::from_error(&e),
            },
            Err(msg) => Response::protocol_error(format!("bad query: {msg}")),
        },
        Request::Submit { kind, text } => {
            match service.submit(*kind, text).and_then(|h| h.wait()) {
                Ok(version) => Response::Applied { version },
                Err(e) => Response::from_error(&e),
            }
        }
        Request::Model => Response::Model {
            snapshot: service.snapshot(),
        },
        Request::Version => Response::Version {
            version: service.version(),
        },
        Request::Changelog { since } => match service.changelog_since(*since) {
            Ok(entries) => Response::Changelog { entries },
            Err(e) => Response::from_error(&e),
        },
        Request::Stats => Response::Stats {
            json: service.metrics().stats_json(),
        },
        Request::Metrics => Response::Metrics {
            body: service.telemetry().render(service.metrics()),
        },
        Request::Ping => Response::Pong {
            version: service.version(),
            writer_live: service.writer_live(),
            uptime_ms: service.uptime_ms(),
        },
        Request::Checkpoint => match service.checkpoint() {
            Ok(version) => Response::Checkpointed { version },
            Err(e) => Response::from_error(&e),
        },
        Request::Quit => Response::Version {
            version: service.version(),
        },
    }
}

// ---------------------------------------------------------------------
// Length-prefixed framing
// ---------------------------------------------------------------------

/// Default cap on one frame's payload (1 MiB) — a defensive bound, not
/// a protocol constant; see [`super::NetOptions::max_frame_len`].
pub const DEFAULT_MAX_FRAME_LEN: u32 = 1 << 20;

/// Write one frame: 4-byte big-endian payload length, then the payload.
/// Header and payload go out as ONE write — two writes would let
/// Nagle's algorithm hold the payload segment for the header's delayed
/// ACK (~40 ms per frame on loopback TCP).
pub fn write_frame(w: &mut dyn Write, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&len.to_be_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()
}

/// Read one frame. `Ok(None)` on clean EOF **at a frame boundary**; a
/// mid-frame EOF, an oversized length, or any transport error is an
/// `Err`.
pub fn read_frame(r: &mut dyn Read, max_len: u32) -> io::Result<Option<Vec<u8>>> {
    let mut header = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "eof inside frame header",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_be_bytes(header);
    if len > max_len {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds cap {max_len}"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

// ---------------------------------------------------------------------
// Small JSON helpers (shared with the CLI's one-shot output paths)
// ---------------------------------------------------------------------

/// JSON-escape a string, with quotes, writing each run of characters
/// that needs no escape in one piece.
pub fn json_str(s: &str) -> impl fmt::Display + '_ {
    fmt::from_fn(move |f| {
        f.write_char('"')?;
        let mut rest = s;
        while let Some(i) = rest.find(|c: char| c == '"' || c == '\\' || (c as u32) < 0x20) {
            f.write_str(&rest[..i])?;
            match rest.as_bytes()[i] {
                b'"' => f.write_str("\\\"")?,
                b'\\' => f.write_str("\\\\")?,
                b'\n' => f.write_str("\\n")?,
                b'\r' => f.write_str("\\r")?,
                b'\t' => f.write_str("\\t")?,
                c => write!(f, "\\u{:04x}", c)?,
            }
            rest = &rest[i + 1..];
        }
        f.write_str(rest)?;
        f.write_char('"')
    })
}

/// JSON list of strings.
pub fn json_list(items: &[String]) -> impl fmt::Display + '_ {
    fmt::from_fn(move |f| {
        f.write_char('[')?;
        for (i, item) in items.iter().enumerate() {
            write!(f, "{}{}", if i == 0 { "" } else { "," }, json_str(item))?;
        }
        f.write_char(']')
    })
}

/// Atom names in sorted order, as every model rendering lists them.
pub fn sorted(iter: impl Iterator<Item = String>) -> Vec<String> {
    let mut v: Vec<String> = iter.collect();
    v.sort_unstable();
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Engine;

    #[test]
    fn command_grammar_round_trips() {
        assert_eq!(
            parse_command("query wins(a)").unwrap(),
            Request::Query {
                atom: "wins(a)".into()
            }
        );
        assert_eq!(
            parse_command("at 3 wins(a)").unwrap(),
            Request::At {
                version: 3,
                atom: "wins(a)".into()
            }
        );
        assert_eq!(
            parse_command("assert-facts move(a, b).").unwrap(),
            Request::Submit {
                kind: DeltaKind::AssertFacts,
                text: "move(a, b).".into()
            }
        );
        assert_eq!(
            parse_command("log 5").unwrap(),
            Request::Changelog { since: 5 }
        );
        assert_eq!(
            parse_command("log").unwrap(),
            Request::Changelog { since: 0 }
        );
        assert_eq!(parse_command("  quit  ").unwrap(), Request::Quit);
        assert_eq!(parse_command("ping").unwrap(), Request::Ping);
        assert_eq!(parse_command("metrics").unwrap(), Request::Metrics);
        assert_eq!(parse_command("checkpoint").unwrap(), Request::Checkpoint);
        assert!(parse_command("query wins(X)")
            .unwrap_err()
            .contains("bad query"));
        assert!(parse_command("at x wins(a)").unwrap_err().contains("usage"));
        assert!(parse_command("bogus")
            .unwrap_err()
            .contains("unknown command"));
        // Operand-free commands refuse trailing text.
        for cmd in [
            "model",
            "version",
            "stats",
            "metrics",
            "ping",
            "checkpoint",
            "quit",
            "exit",
        ] {
            assert_eq!(
                parse_command(&format!("{cmd} wins(a)")),
                Err(format!("usage: {cmd}")),
                "{cmd}"
            );
        }
    }

    #[test]
    fn error_shape_is_shared_and_structured() {
        let resp = Response::from_error(&Error::Overloaded);
        let json = render_json(&resp);
        assert!(
            json.starts_with("{\"error\":{\"kind\":\"overloaded\","),
            "{json}"
        );
        assert!(render_plain(&resp).starts_with("error: "));
        let resp = Response::protocol_error("unknown command \"x\"");
        assert!(render_json(&resp).contains("\"kind\":\"protocol\""));
    }

    #[test]
    fn frames_round_trip_and_enforce_caps() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"query wins(a)").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(
            read_frame(&mut r, DEFAULT_MAX_FRAME_LEN).unwrap().unwrap(),
            b"query wins(a)"
        );
        assert_eq!(
            read_frame(&mut r, DEFAULT_MAX_FRAME_LEN).unwrap().unwrap(),
            b""
        );
        assert!(read_frame(&mut r, DEFAULT_MAX_FRAME_LEN).unwrap().is_none());

        // Oversized frame refused without reading the payload.
        let mut oversized = Vec::new();
        write_frame(&mut oversized, &[b'x'; 64]).unwrap();
        let mut r = &oversized[..];
        assert!(read_frame(&mut r, 16).is_err());

        // Mid-frame EOF is a transport error, not a clean end.
        let mut truncated = Vec::new();
        write_frame(&mut truncated, b"query wins(a)").unwrap();
        truncated.truncate(truncated.len() - 3);
        let mut r = &truncated[..];
        assert!(read_frame(&mut r, DEFAULT_MAX_FRAME_LEN).is_err());
        let mut r = &buf[..2];
        assert!(read_frame(&mut r, DEFAULT_MAX_FRAME_LEN).is_err());
    }

    #[test]
    fn execute_against_a_live_service() {
        let service = Engine::default()
            .serve("wins(X) :- move(X, Y), not wins(Y). move(a, b). move(b, a). move(b, c).")
            .unwrap();
        let resp = execute(&service, &parse_command("query wins(b)").unwrap());
        assert_eq!(
            render_json(&resp),
            "{\"version\":0,\"query\":\"wins(b)\",\"truth\":\"true\"}"
        );
        let resp = execute(&service, &parse_command("assert move(c, d).").unwrap());
        assert_eq!(render_json(&resp), "{\"ok\":true,\"version\":1}");
        let resp = execute(&service, &parse_command("at 99 wins(a)").unwrap());
        assert!(render_json(&resp).contains("\"kind\":\"version-evicted\""));
        let resp = execute(&service, &parse_command("log").unwrap());
        assert!(render_json(&resp).contains("\"kind\":\"assert-rules\""));
        let resp = execute(&service, &parse_command("model").unwrap());
        let json = render_json(&resp);
        assert!(
            json.starts_with("{\"version\":1,\"semantics\":\"wfs\""),
            "{json}"
        );
        assert!(json.contains("\"true\":["));
        let resp = execute(&service, &parse_command("metrics").unwrap());
        let json = render_json(&resp);
        assert!(
            json.starts_with("{\"telemetry\":{\"enabled\":true"),
            "{json}"
        );
        assert!(json.contains("\"cycle_total_ns\""), "{json}");
        let resp = execute(&service, &parse_command("ping").unwrap());
        let json = render_json(&resp);
        assert!(
            json.starts_with("{\"pong\":true,\"version\":1,\"writer_live\":true,\"uptime_ms\":"),
            "{json}"
        );
    }

    #[test]
    fn model_json_matches_between_snapshot_and_cold_solve() {
        const SRC: &str = "wins(X) :- move(X, Y), not wins(Y). move(a, b). move(b, a).";
        let service = Engine::default().serve(SRC).unwrap();
        let snapshot = service.snapshot();
        let wire = render_json(&Response::Model { snapshot });
        let cold = Engine::default().solve(SRC).unwrap();
        assert_eq!(
            wire,
            model_json(0, &cold),
            "bit-identical models render identically"
        );
    }
}
