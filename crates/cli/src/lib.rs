//! Library backing the `noswalker` command-line tool.
//!
//! The CLI wires the workspace together for end users:
//!
//! ```text
//! noswalker convert  edges.txt graph.csr          # edge list → binary CSR
//! noswalker info     graph.csr                    # dataset statistics
//! noswalker generate rmat --scale 16 --degree 32 out.csr
//! noswalker run      graph.csr --app ppr --engine noswalker --budget-pct 12
//! noswalker serve    graph.csr --script queries.txt       # online multi-query
//! ```
//!
//! Argument parsing is hand-rolled (no external CLI dependency); every
//! subcommand is a pure function from parsed options to an exit report, so
//! the whole surface is unit-testable.

#![warn(unused_crate_dependencies)]

pub mod args;
pub mod commands;

pub use args::{Cli, Command, ParseError};

/// Runs a parsed CLI invocation, returning the text to print.
///
/// # Errors
///
/// Returns a human-readable error string on any failure (bad input file,
/// infeasible budget, unknown app, …).
pub fn run(cli: Cli) -> Result<String, String> {
    match cli.command {
        Command::Convert { input, output } => commands::convert(&input, &output),
        Command::Info { graph } => commands::info(&graph),
        Command::Generate {
            family,
            scale,
            degree,
            output,
            seed,
        } => commands::generate(&family, scale, degree, &output, seed),
        Command::Run {
            graph,
            app,
            engine,
            budget_pct,
            walkers,
            length,
            seed,
            trace_out,
        } => commands::run_walk(
            &graph,
            &app,
            &engine,
            budget_pct,
            walkers,
            length,
            seed,
            trace_out.as_deref(),
        ),
        Command::Serve {
            graph,
            script,
            budget_pct,
            seed,
            backend,
            shards,
            mode,
            duration_ms,
        } => commands::run_serve(
            &graph,
            &script,
            budget_pct,
            seed,
            backend,
            shards,
            &mode,
            duration_ms,
        ),
    }
}
