//! # afp-core — the alternating fixpoint
//!
//! The primary contribution of *Van Gelder, "The Alternating Fixpoint of
//! Logic Programs with Negation"* (PODS 1989 / JCSS 1993), implemented over
//! the `afp-datalog` substrate:
//!
//! * [`interp`] — partial interpretations and Definition 3.5 satisfaction;
//! * [`ops`] — the operator zoo: `C_P`, `T_P`, `S_P`, `S̃_P`, `A_P`, and
//!   the Section 8.4 operators `Q`/`Q_P`;
//! * [`afp`] — the alternating fixpoint computation itself, with trace
//!   recording (Table I) and an incremental evaluation strategy.
//!
//! ## Quick example
//!
//! ```
//! use afp_datalog::program::parse_ground;
//! use afp_core::afp::alternating_fixpoint;
//!
//! // The win–move game on a 3-node path: a → b → c.
//! let g = parse_ground(
//!     "wins(a) :- move(a, b), not wins(b).
//!      wins(b) :- move(b, c), not wins(c).
//!      move(a, b). move(b, c).",
//! );
//! let r = alternating_fixpoint(&g);
//! let wins_b = g.find_atom_by_name("wins", &["b"]).unwrap();
//! assert!(r.model.pos.contains(wins_b.0)); // b moves to the sink c and wins
//! let wins_a = g.find_atom_by_name("wins", &["a"]).unwrap();
//! assert!(r.model.neg.contains(wins_a.0)); // a can only move to the winner b
//! assert!(r.is_total);
//! ```

#![warn(missing_docs)]

pub mod afp;
pub mod interp;
pub mod ops;
pub mod relevance;

pub use afp::{
    alternating_fixpoint, alternating_fixpoint_with, AfpOptions, AfpResult, AfpTrace, Strategy,
    TraceStep,
};
pub use interp::{PartialModel, Truth};
