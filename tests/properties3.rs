//! Property tests over the CLI's argument parser: whatever tokens it is
//! fed, it parses them or returns a user-readable error, never panics.
//! Data-structure properties are in `properties.rs`, engine runs in
//! `properties2.rs`.

mod common;

use common::{cases, token, vec_of, SEED};
use rand::Rng;

const LOWER: &str = "abcdefghijklmnopqrstuvwxyz";
const LOWER_DIGITS: &str = "abcdefghijklmnopqrstuvwxyz0123456789";
const ARG_CHARS: &str = "abcdefghijklmnopqrstuvwxyz0123456789./=-";

/// The CLI parser must never panic, whatever tokens it is fed —
/// every input either parses or yields a user-readable error.
#[test]
fn cli_parser_never_panics() {
    cases(64, SEED, |rng| {
        let tokens = vec_of(rng, 0..10, |r| token(r, ARG_CHARS, 0..=12));
        let _ = noswalker_cli::args::parse(tokens);
    });
}

/// Known-prefix fuzz: a valid subcommand followed by arbitrary flags.
#[test]
fn cli_run_subcommand_robust() {
    cases(64, SEED, |rng| {
        let tokens = vec_of(rng, 0..8, |r| {
            if r.gen::<bool>() {
                format!("--{}", token(r, LOWER, 1..=8))
            } else {
                token(r, LOWER_DIGITS, 1..=6)
            }
        });
        let mut args = vec!["run".to_string(), "g.csr".to_string()];
        args.extend(tokens);
        let _ = noswalker_cli::args::parse(args);
    });
}
