//! # afp-semantics — baseline and comparison semantics
//!
//! The semantics the paper relates the alternating fixpoint to:
//!
//! * [`unfounded`] / [`wfs`] — the original well-founded semantics via
//!   greatest unfounded sets (Section 6); the equivalence with the
//!   alternating fixpoint is Theorem 7.8;
//! * [`stable`] — Gelfond–Lifschitz stable models: GL-reduct, the
//!   `S̃_P`-fixpoint characterization (Section 4), and a
//!   branch-and-propagate enumerator;
//! * [`fitting`] — the Kripke–Kleene three-valued semantics (Section 2.1);
//! * [`stratified`] — locally stratified programs and perfect models
//!   (Section 2.3);
//! * [`inflationary`] — inductive fixpoint logic's inflationary semantics
//!   and the Example 2.2 failure mode (Section 2.2);
//! * [`modular`] — SCC-stratified well-founded evaluation, in place over
//!   the global ground program with per-component warm reuse: the
//!   engine's default well-founded strategy and its answer to the
//!   Section 9 tractability question.

#![warn(missing_docs)]

pub mod explain;
pub mod fitting;
pub mod inflationary;
pub mod modular;
pub mod residual;
pub mod stable;
pub mod stratified;
pub mod unfounded;
pub mod wfs;

pub use explain::{Explainer, Reason, Witness};
pub use fitting::{fitting_model, FittingResult};
pub use inflationary::{inflationary_fixpoint, InflationaryResult, NaiveOutcome};
pub use modular::{modular_wfs, modular_wfs_update, modular_wfs_with, ModularResult};
pub use residual::{lift_residual_model, residual_program};
pub use stable::{
    brute_force_stable, cautious_consequences, enumerate_stable, is_stable, stable_models,
    EnumerateOptions, EnumerateResult,
};
pub use stratified::{is_locally_stratified, local_strata, perfect_model, PerfectResult};
pub use unfounded::{greatest_unfounded_set, is_unfounded_set};
pub use wfs::{well_founded_model, WfsResult};
