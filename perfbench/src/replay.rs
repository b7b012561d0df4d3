//! The in-process replay of a traced run: it calls the public functions
//! the server does not time itself and measures them from outside —
//! parse, load and first solve, the AST mirror of each write, snapshot
//! pinning and truth probes, the codec, checkpoints and model
//! rendering.

use std::path::Path;
use std::time::Instant;

use afp::net::codec::{self, Request};
use afp::{
    AsyncOptions, AsyncService, DeltaKind, Engine, Journal, JournalOptions, Service, Session,
    Shutdown,
};

use crate::stats;

/// Writes replayed for the mirror and component counts: on `write_edb`
/// each costs ~0.15 s in process, and a traced run must stay well inside
/// its time limit.
const MAX_WRITES: usize = 40;
/// Calls per timed batch of a sub-microsecond function.
const BATCH: usize = 200;
/// Timed batches per function; the reported cost is their median.
const BATCHES: usize = 25;

/// Medians of the replayed layer costs.
#[derive(Debug, Default)]
pub struct Replayed {
    pub parse_ms: f64,
    pub load_ms: f64,
    pub first_solve_ms: f64,
    /// Per replayed write: session call wall time − ground − repair, µs.
    pub mirror_us: Vec<f64>,
    pub components_evaluated: Vec<f64>,
    pub reuse_frac: Vec<f64>,
    pub snapshot_ns: f64,
    pub truth_ns: f64,
    pub at_ns: f64,
    pub parse_cmd_us: f64,
    pub execute_us: f64,
    pub render_us: f64,
    pub checkpoint_ms: f64,
    pub model_ms: f64,
}

/// Parse a wire write line into its delta kind and text.
pub fn delta_of(line: &str) -> Option<(DeltaKind, String)> {
    match codec::parse_command(line).ok()? {
        Request::Submit { kind, text } => Some((kind, text)),
        _ => None,
    }
}

fn apply(session: &mut Session, kind: DeltaKind, text: &str) -> Result<(), afp::Error> {
    match kind {
        DeltaKind::AssertFacts => session.assert_facts(text),
        DeltaKind::RetractFacts => session.retract_facts(text),
        DeltaKind::AssertRules => session.assert_rules(text),
        DeltaKind::RetractRules => session.retract_rules(text),
    }
}

/// Median per-call cost in ns of `f`, timed in batches.
fn per_call_ns(mut f: impl FnMut(usize)) -> f64 {
    let mut batches = Vec::with_capacity(BATCHES);
    for b in 0..BATCHES {
        let t = Instant::now();
        for i in 0..BATCH {
            f(b * BATCH + i);
        }
        batches.push(t.elapsed().as_nanos() as f64 / BATCH as f64);
    }
    stats::median(&batches).unwrap_or(0.0)
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Replay `program`, the acknowledged `writes` (wire lines, in version
/// order) and the `queries` (wire lines) in process. `final_text`, the
/// final program, is checkpointed into `scratch`.
pub fn run(
    program: &str,
    writes: &[String],
    queries: &[String],
    cold_final: &afp::Model,
    final_text: &str,
    scratch: &Path,
) -> Result<Replayed, String> {
    let mut r = Replayed::default();
    let engine = Engine::default();
    let t = Instant::now();
    std::hint::black_box(afp::datalog::parse_program(program).map_err(|e| e.to_string())?);
    r.parse_ms = ms(t);
    let t = Instant::now();
    let mut session = engine.load(program).map_err(|e| e.to_string())?;
    r.load_ms = ms(t);
    let t = Instant::now();
    let mut alive = session.solve().map_err(|e| e.to_string())?;
    r.first_solve_ms = ms(t);

    // The last solved model stays alive across the next mutation, as the
    // server's published head does: a dropped model would free its
    // program snapshot inside the mutation and bill the deallocation to
    // the mirror, where the server pays it at cache eviction (its
    // publish phase) instead.
    for line in writes.iter().take(MAX_WRITES) {
        let (kind, text) = delta_of(line).ok_or_else(|| format!("not a write: {line}"))?;
        let _ = session.take_phases();
        let t = Instant::now();
        apply(&mut session, kind, &text).map_err(|e| e.to_string())?;
        let wall_ns = t.elapsed().as_nanos() as f64;
        let phases = session.take_phases();
        r.mirror_us
            .push((wall_ns - (phases.ground_ns + phases.repair_ns) as f64).max(0.0) / 1e3);
        alive = session.solve().map_err(|e| e.to_string())?;
        let s = session.stats();
        r.components_evaluated
            .push(s.last_components_evaluated as f64);
        if s.last_components > 0 {
            r.reuse_frac
                .push(s.last_components_reused as f64 / s.last_components as f64);
        }
    }

    drop(alive);
    let service = Service::new(session).map_err(|e| e.to_string())?;
    let probes: Vec<(String, Vec<String>)> = queries
        .iter()
        .filter_map(|l| match codec::parse_command(l).ok()? {
            Request::Query { atom } | Request::At { atom, .. } => codec::parse_query(&atom).ok(),
            _ => None,
        })
        .collect();
    if probes.is_empty() {
        return Err("no queries to replay".into());
    }
    r.snapshot_ns = per_call_ns(|_| {
        std::hint::black_box(service.snapshot());
    });
    let snap = service.snapshot();
    r.truth_ns = per_call_ns(|i| {
        let (pred, args) = &probes[i % probes.len()];
        let refs: Vec<&str> = args.iter().map(String::as_str).collect();
        std::hint::black_box(snap.truth(pred, &refs));
    });
    let head = service.version();
    r.at_ns = per_call_ns(|_| {
        std::hint::black_box(service.at_version(head).ok());
    });

    let tier = AsyncService::new(service.clone(), AsyncOptions::default());
    let requests: Vec<Request> = queries
        .iter()
        .filter_map(|l| codec::parse_command(l).ok())
        .map(|req| match req {
            // `at` names a version the replay's own service holds.
            Request::At { atom, .. } => Request::At {
                version: head,
                atom,
            },
            other => other,
        })
        .collect();
    r.parse_cmd_us = per_call_ns(|i| {
        std::hint::black_box(codec::parse_command(&queries[i % queries.len()]).ok());
    }) / 1e3;
    r.execute_us = per_call_ns(|i| {
        std::hint::black_box(codec::execute(&tier, &requests[i % requests.len()]));
    }) / 1e3;
    let responses: Vec<codec::Response> = requests
        .iter()
        .take(BATCH)
        .map(|q| codec::execute(&tier, q))
        .collect();
    r.render_us = per_call_ns(|i| {
        std::hint::black_box(codec::render_json(&responses[i % responses.len()]));
    }) / 1e3;
    tier.shutdown(Shutdown::Drain);

    let dir = scratch.join("checkpoint-replay");
    let _ = std::fs::remove_dir_all(&dir);
    let mut journal =
        Journal::create(&dir, JournalOptions::default(), final_text).map_err(|e| e.to_string())?;
    let mut ckpt = Vec::new();
    for v in 1..=3 {
        let t = Instant::now();
        journal
            .checkpoint(v, final_text, false)
            .map_err(|e| e.to_string())?;
        ckpt.push(ms(t));
    }
    drop(journal);
    let _ = std::fs::remove_dir_all(&dir);
    r.checkpoint_ms = stats::median(&ckpt).unwrap_or(0.0);

    let mut model = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        std::hint::black_box(codec::model_json(0, cold_final));
        model.push(ms(t));
    }
    r.model_ms = stats::median(&model).unwrap_or(0.0);
    Ok(r)
}
