//! Benchmark harness: regenerates every table and figure of the paper's
//! evaluation (§4 and §5) on the scaled datasets.
//!
//! Run an experiment with the CLI binary:
//!
//! ```text
//! cargo run --release -p noswalker-bench -- fig9
//! cargo run --release -p noswalker-bench -- all --scale tiny
//! ```
//!
//! Each experiment prints a table matching the figure's series and writes
//! the rows as TSV under `results/`. See `EXPERIMENTS.md` at the workspace
//! root for paper-vs-measured summaries.

#![warn(unused_crate_dependencies)]
#![allow(
    clippy::disallowed_types,
    reason = "the paper-figure harness sits outside the engine's determinism invariant; its \
              dataset cache is a HashMap whose order is never observed"
)]

pub mod datasets;
pub mod experiments;
pub mod report;
pub mod runner;

pub use datasets::{Dataset, Scale};
pub use report::Report;
pub use runner::{Outcome, SystemKind};
