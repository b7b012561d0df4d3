//! # afp-bench — workloads, the experiment harness, and benches
//!
//! * [`gen`] — deterministic workload generators: graphs, win–move and
//!   tc/ntc programs, random ground programs, and the SAT→stable-models
//!   reduction behind the NP-completeness discussion of Section 2.4;
//! * [`game`] — an independent retrograde-analysis solver for the win–move
//!   game of Example 5.2, used as ground truth;
//! * the `experiments` binary regenerates every table and figure of the
//!   paper (`cargo run -p afp-bench --bin experiments -- all`);
//! * `benches/` holds the Criterion benchmarks for the paper's complexity
//!   claims (`afp_scaling`, `afp_vs_wfs`, `afp_ablation`, `tc_ntc`,
//!   `stable_hard`, `grounding`) and for what the wire benchmark does not
//!   split out (`session_reuse`, `rule_deltas`, `telemetry`).

#![warn(missing_docs)]

pub mod game;
pub mod gen;

pub use game::{solve, GameValue};
pub use gen::Graph;
