//! # afp — The Alternating Fixpoint of Logic Programs with Negation
//!
//! A from-scratch Rust reproduction of *Allen Van Gelder, "The Alternating
//! Fixpoint of Logic Programs with Negation"* (PODS 1989; JCSS 47(1),
//! 1993): the constructive characterization of the **well-founded
//! semantics** as the least fixpoint of the monotone alternating
//! transformation `A_P = S̃_P ∘ S̃_P`, together with the stable-model,
//! Fitting, stratified and inflationary semantics it is related to, and
//! the first-order extension of Section 8.
//!
//! ## Quickstart: one [`Engine`], five semantics, reusable sessions
//!
//! ```
//! use afp::{Engine, Semantics, Truth};
//!
//! // Figure 4(c): a ⇄ b cycle, but b can escape to the sink c.
//! let engine = Engine::default(); // well-founded semantics by default
//! let mut session = engine
//!     .load(
//!         "wins(X) :- move(X, Y), not wins(Y).
//!          move(a, b). move(b, a). move(b, c).",
//!     )
//!     .unwrap();
//!
//! let model = session.solve().unwrap();
//! assert_eq!(model.truth("wins", &["b"]), Truth::True);  // b escapes to the sink
//! assert_eq!(model.truth("wins", &["a"]), Truth::False); // a can only feed b
//! assert!(model.is_total()); // ⇒ also the unique stable model (Section 5)
//!
//! // The same session answers under every other semantics of the paper.
//! let stable = session
//!     .solve_with(Semantics::Stable { max_models: usize::MAX })
//!     .unwrap();
//! assert_eq!(stable.stable_models().len(), 1);
//! let fitting = session.solve_with(Semantics::Fitting).unwrap();
//! assert!(fitting.partial_model().leq(model.partial_model())); // Fitting ⊑ WFS
//!
//! // Fact updates reuse the grounding: no re-parse, no cold re-ground.
//! session.assert_facts("move(c, d).").unwrap();
//! let model = session.solve().unwrap();
//! assert_eq!(model.truth("wins", &["c"]), Truth::True);
//! assert_eq!(session.stats().regrounds, 0);
//! ```
//!
//! See [`engine`] for the full API: [`EngineBuilder`] (semantics,
//! [`SafetyPolicy`], tracing), [`Session`] (`assert_facts` /
//! `retract_facts` / warm re-solve / `solve_restricted`), and the
//! unified three-valued [`Model`].
//!
//! ## Crates
//!
//! * [`datalog`] (`afp-datalog`) — parser, Herbrand machinery, batch and
//!   incremental grounder, relational engine;
//! * [`core`] (`afp-core`) — the operators `S_P`, `S̃_P`, `A_P` and the
//!   alternating fixpoint computation;
//! * [`semantics`] (`afp-semantics`) — unfounded sets, stable models,
//!   Fitting, perfect models, inflationary fixpoints, explanations;
//! * [`fol`] (`afp-fol`) — first-order rule bodies, Lloyd–Topor, fixpoint
//!   logic.

pub use afp_core as core;
pub use afp_datalog as datalog;
pub use afp_fol as fol;
pub use afp_semantics as semantics;

pub mod engine;
pub mod journal;
pub mod net;
pub mod service;
pub mod telemetry;

pub use afp_core::interp::Truth;
pub use afp_core::{AfpOptions, AfpResult, PartialModel, Strategy};
pub use afp_datalog::{GroundOptions, GroundProgram, Program, SafetyPolicy};
pub use engine::{Engine, EngineBuilder, Model, Semantics, Session, SessionStats, WfStrategy};
pub use journal::{CrashPoint, FsyncPolicy, Journal, JournalOptions, JournalStats};
#[doc(hidden)]
pub use net::{AsyncOptions, AsyncService};
pub use net::{NetOptions, NetServer};
pub use service::{
    AppliedDelta, DeltaKind, ModelSnapshot, Service, ServiceOptions, Shutdown, SubmitHandle,
};
pub use telemetry::{
    MetricsFormat, MetricsRegistry, PhaseBreakdown, SessionPhases, Telemetry, TraceSink,
};

use std::fmt;

/// Anything that can go wrong across the parse → ground → solve pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// The source text did not parse.
    Parse(afp_datalog::ParseError),
    /// The program could not be grounded.
    Ground(afp_datalog::GroundError),
    /// [`Semantics::Perfect`] was requested for a program that is not
    /// locally stratified (no perfect model exists — Section 2.3).
    NotLocallyStratified,
    /// [`Session::assert_facts`] / [`Session::retract_facts`] was given a
    /// rule that is not a ground fact.
    NotAFact(String),
    /// [`Session::assert_rules`] / [`Session::retract_rules`] was given a
    /// non-ground rule on a session without grounder state
    /// ([`Engine::load_ground`] keeps no envelope to instantiate over).
    NotGroundRule(String),
    /// A [`Service`] write cycle panicked, and this delta was in that
    /// cycle or queued behind it; the writer thread has stopped. The
    /// outcome is **unknown**: a cycle that dies after its journal
    /// append leaves a durable record, and recovery publishes it. Check
    /// the recovered `version` and `log` before resubmitting.
    WriterAborted,
    /// The bounded write queue of a [`Service`] was full at
    /// submission time. The delta was **not** enqueued; this is the
    /// admission-control verdict, returned immediately (a full queue
    /// never blocks the submitter). Back off and resubmit.
    Overloaded,
    /// A queued submission's deadline expired before the writer thread
    /// picked it up. The delta was **not** applied; resubmitting is
    /// safe.
    SubmitTimeout,
    /// The [`Service`] was shut down (or is shutting down) before
    /// this delta could be applied. Aborted submissions were **not**
    /// applied; resubmitting against a live service is safe.
    ServiceStopped,
    /// The requested version is outside the service's bounded retention
    /// window: [`Service::at_version`] past the version cache, or a
    /// changelog read reaching behind
    /// [`ServiceOptions::changelog_capacity`]. Retention is bounded so
    /// sustained writes cannot grow memory without limit; raise the
    /// capacities if you need deeper history.
    VersionEvicted {
        /// The version (or changelog horizon) that was asked for.
        requested: u64,
        /// The oldest version still fully retained.
        retained_from: u64,
        /// The newest published version at the time of the read.
        retained_to: u64,
    },
    /// A [`journal`] operation failed: opening/appending/syncing the
    /// write-ahead log, writing a checkpoint, or recovering from a
    /// journal directory. When a live write cycle hits this, its
    /// submissions fail with it and **no version is published** — the
    /// journal never lags the served history.
    Journal(String),
    /// The journal's history is damaged *before* the end of the log —
    /// an invalid record followed by further valid ones (bit rot, not a
    /// crash). Recovery refuses rather than silently dropping an
    /// interior delta; a torn **tail** is truncated instead, never
    /// reported as this. `record` is the 0-based index of the first
    /// invalid record in its WAL file.
    JournalCorrupt {
        /// 0-based index of the first invalid record in its WAL file.
        record: u64,
        /// What failed to validate, and where.
        detail: String,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Parse(e) => write!(f, "parse error: {e}"),
            Error::Ground(e) => write!(f, "grounding error: {e}"),
            Error::NotLocallyStratified => {
                write!(f, "program is not locally stratified")
            }
            Error::NotAFact(rule) => {
                write!(f, "not a ground fact: {rule}")
            }
            Error::NotGroundRule(rule) => {
                write!(
                    f,
                    "not a ground rule: {rule} (sessions loaded from a ground \
                     program accept only ground rule deltas)"
                )
            }
            Error::WriterAborted => {
                write!(
                    f,
                    "service writer aborted during this delta's cycle (outcome unknown: \
                     check version and log before resubmitting)"
                )
            }
            Error::Overloaded => {
                write!(
                    f,
                    "write queue full: submission rejected by admission control \
                     (not enqueued; back off and resubmit)"
                )
            }
            Error::SubmitTimeout => {
                write!(
                    f,
                    "submission deadline expired while queued (not applied; \
                     resubmitting is safe)"
                )
            }
            Error::ServiceStopped => {
                write!(f, "service stopped before this delta could be applied")
            }
            Error::VersionEvicted {
                requested,
                retained_from,
                retained_to,
            } => {
                write!(
                    f,
                    "version {requested} is outside the retained window \
                     [{retained_from}, {retained_to}] (bounded retention; \
                     raise cache/changelog capacity for deeper history)"
                )
            }
            Error::Journal(detail) => {
                write!(f, "journal error: {detail}")
            }
            Error::JournalCorrupt { record, detail } => {
                write!(
                    f,
                    "journal corrupt at record {record}: {detail} (mid-journal \
                     damage cannot be repaired automatically; a torn tail would \
                     have been truncated instead)"
                )
            }
        }
    }
}

impl std::error::Error for Error {}

impl From<afp_datalog::ParseError> for Error {
    fn from(e: afp_datalog::ParseError) -> Self {
        Error::Parse(e)
    }
}

impl From<afp_datalog::GroundError> for Error {
    fn from(e: afp_datalog::GroundError) -> Self {
        Error::Ground(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_end_to_end() {
        let model = Engine::default()
            .solve("p :- not q. q :- not p. r.")
            .unwrap();
        assert_eq!(model.truth("r", &[]), Truth::True);
        assert_eq!(model.truth("p", &[]), Truth::Undefined);
        assert_eq!(model.truth("missing", &[]), Truth::False);
        assert!(!model.is_total());
        assert_eq!(model.true_atoms().collect::<Vec<_>>(), vec!["r"]);
        let mut undefined: Vec<String> = model.undefined_atoms().collect();
        undefined.sort();
        assert_eq!(undefined, vec!["p", "q"]);
    }

    #[test]
    fn parse_errors_surface() {
        assert!(matches!(
            Engine::default().solve("p :- "),
            Err(Error::Parse(_))
        ));
    }

    #[test]
    fn ground_errors_surface() {
        assert!(matches!(
            Engine::default().solve("p(X) :- not q(X). q(a)."),
            Err(Error::Ground(_))
        ));
        // …and the active-domain policy fixes it.
        let model = Engine::builder()
            .safety(SafetyPolicy::ActiveDomain)
            .build()
            .solve("p(X) :- not q(X). q(a). r(b).")
            .unwrap();
        assert_eq!(model.truth("p", &["b"]), Truth::True);
        assert_eq!(model.truth("p", &["a"]), Truth::False);
    }

    #[test]
    fn error_display() {
        let e = Engine::default().solve("p :- ").unwrap_err();
        assert!(e.to_string().contains("parse error"));
        assert!(Error::NotLocallyStratified
            .to_string()
            .contains("not locally stratified"));
        assert!(Error::NotAFact("p :- q.".into())
            .to_string()
            .contains("not a ground fact"));
    }
}
