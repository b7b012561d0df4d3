//! # afp-datalog — the Datalog-with-negation substrate
//!
//! Everything the alternating-fixpoint computation of
//! *Van Gelder, "The Alternating Fixpoint of Logic Programs with Negation"*
//! (PODS 1989 / JCSS 1993) stands on:
//!
//! * [`ast`] / [`parser`] — normal logic programs (Definition 3.1) and a
//!   Prolog-flavoured surface syntax;
//! * [`atoms`] / [`bitset`] — the interned Herbrand base and dense
//!   interpretations;
//! * [`program`] — ground programs `P_H` with occurrence indices, stored
//!   copy-on-write ([`cow`]) so snapshots are reference-count bumps;
//! * [`horn`] — the linear-time Horn closure behind the eventual
//!   consequence operator `S_P` (Definition 4.2);
//! * [`relation`] / [`seminaive`] — an indexed relational engine with
//!   semi-naive evaluation for positive programs;
//! * [`mod@ground`] — safety checking and relevance-based instantiation over
//!   the positive envelope;
//! * [`depgraph`] — dependency graphs, stratification (Section 2.3) and
//!   strictness (Definition 8.3).
//!
//! The operators of the paper itself (`S_P`, `S̃_P`, `A_P`, the AFP model)
//! live one crate up, in `afp-core`.

#![warn(missing_docs)]

pub mod ast;
pub mod atoms;
pub mod bitset;
pub mod cow;
pub mod depgraph;
pub mod error;
pub mod fx;
pub mod ground;
pub mod horn;
pub mod incremental;
pub mod parser;
pub mod program;
pub mod relation;
pub mod seminaive;
pub mod symbol;

pub use ast::{Atom, Literal, Program, Rule, Term};
pub use atoms::{AtomId, ConstId, HerbrandBase};
pub use bitset::AtomSet;
pub use depgraph::{Condensation, CondensationDelta, RepairStats, SccList};
pub use error::{GroundError, ParseError};
pub use ground::{ground, ground_with, GroundOptions, SafetyPolicy};
pub use incremental::{DeltaEffect, IncrementalGrounder, RetractOutcome, RuleAssertOutcome};
pub use parser::parse_program;
pub use program::{parse_ground, GroundProgram, GroundProgramBuilder, GroundRule, RuleId};
pub use symbol::{Symbol, SymbolStore};
