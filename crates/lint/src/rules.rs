//! The nosw-lint rule driver: phase 1 builds per-file analyses and the
//! workspace [`SymbolIndex`](crate::index), phase 2 runs the pluggable
//! passes in [`crate::passes`] and applies suppression/allowlist
//! bookkeeping to their raw hits.
//!
//! | rule | invariant |
//! |---|---|
//! | L1 | `RunMetrics` fields are only written through the tracked helpers in `crates/core/src/metrics.rs` |
//! | L2 | every `TraceEvent` variant has an emit site (engine/baselines/serve/shard) and a handling site (its defining module) |
//! | L3 | wall-clock reads (`Instant::now`, `SystemTime::now`) only in `clock.rs`, `crates/bench`, `crates/cli` |
//! | L4 | threads are only spawned in `threaded.rs` / `parallel.rs` / the realtime driver (`crates/serve/src/realtime.rs`) |
//! | L5 | no `unwrap`/`expect`/`panic!` family in library code of core/storage/graph |
//! | L6 | every `unsafe` is preceded by a `SAFETY:` comment; unsafe-free crates `#![forbid(unsafe_code)]` |
//! | L7 | `std::sync::atomic` types in `crates/core/src` only in `presample.rs`, `parallel.rs` |
//! | L8 | no `thread::sleep` or raw clock reads in `crates/serve/src`, and `WallTimer` only in `realtime.rs` — lockstep serving uses modeled time |
//! | L9 | no ambient/time-seeded randomness and no `HashMap`/`HashSet` in functions reachable from a digest or trace-emit path in core/serve/shard |
//! | L10 | `Ordering::Relaxed` only on sanctioned counter modules (`presample.rs`, serve `app.rs`); Acquire/Release/SeqCst sites carry registered protocol comments |
//! | L11 | `let`-bound Mutex guards in parallel.rs/serve drop within their binding block — never across a loop or a loader call |
//! | L12 | every `RunMetrics` counter is referenced by a conservation law in `audit.rs` |
//!
//! Rules are *self-configuring*: the `RunMetrics` field set, the
//! `TraceEvent` variant list, the call graph, ordering sites and lock
//! guards are all parsed out of the scanned sources, so adding a field,
//! variant, or function automatically extends enforcement.
//!
//! Every hit is suppressible with an annotation comment (the `LINT`
//! `ALLOW` marker with the rule in parentheses and a justification after
//! a colon), cross-checked two-way against
//! `crates/lint/nosw-lint.allow`. The same register also carries the
//! `ORDERING` protocol-comment counts consumed by L10.

use std::collections::{BTreeMap, BTreeSet};

use crate::analysis::Analysis;
use crate::index::SymbolIndex;
use crate::passes::{self, PassCx};
use crate::{Allowlist, SourceFile, Violation};

/// The full result of a rule run: the violations plus the canonical
/// allowlist derived from the annotations actually present (what
/// `--prune-allow` writes).
#[derive(Debug)]
pub struct RunOutput {
    /// Violations found, sorted by path, line, rule.
    pub violations: Vec<Violation>,
    /// Canonical `RULE PATH COUNT` register content matching the sources.
    pub suggested_allow: String,
}

/// Runs every rule over the lexed files and cross-checks the allowlist.
pub fn run(files: &[SourceFile], allow: &Allowlist) -> Vec<Violation> {
    run_full(files, allow).violations
}

/// Runs every rule and also returns the canonical allowlist content.
pub fn run_full(files: &[SourceFile], allow: &Allowlist) -> RunOutput {
    let mut analyses: Vec<Analysis> = files.iter().map(Analysis::new).collect();
    analyses.sort_by(|a, b| a.path.cmp(&b.path));
    let index = SymbolIndex::build(&analyses);

    // Phase 2: run the pass registry over the shared context.
    let mut hits = Vec::new();
    {
        let cx = PassCx {
            files: &analyses,
            index: &index,
        };
        for pass in passes::all() {
            let before = hits.len();
            pass.run(&cx, &mut hits);
            debug_assert!(
                hits[before..].iter().all(|h| h.rule == pass.id()),
                "pass {} emitted a hit under a foreign rule id",
                pass.id()
            );
        }
    }

    // Suppression: an annotation for the same rule anchored to the hit
    // line consumes the hit.
    let mut out: Vec<Violation> = Vec::new();
    for h in hits {
        let a = &mut analyses[h.file];
        let suppressed = a
            .annotations
            .iter_mut()
            .find(|an| an.rule == h.rule && an.target == Some(h.line));
        if let Some(an) = suppressed {
            an.used = true;
            continue;
        }
        out.push(Violation {
            rule: h.rule,
            path: a.path.clone(),
            line: h.line,
            message: h.message,
            hint: h.hint,
        });
    }

    // Annotation hygiene + the two-way allowlist cross-check. The counts
    // map carries both suppression annotations (per rule) and L10's
    // ordering-protocol comments (under the ORDERING key).
    let mut counts: BTreeMap<(String, String), u32> = BTreeMap::new();
    for a in &analyses {
        for an in &a.annotations {
            *counts.entry((an.rule.clone(), a.path.clone())).or_default() += 1;
            if !an.reason_ok {
                out.push(Violation {
                    rule: "ALLOW",
                    path: a.path.clone(),
                    line: an.line,
                    message: "suppression annotation has no justification".into(),
                    hint: "write the reason after the colon; unexplained suppressions \
                           are not accepted"
                        .into(),
                });
            }
            if !an.used {
                out.push(Violation {
                    rule: "ALLOW",
                    path: a.path.clone(),
                    line: an.line,
                    message: format!(
                        "dangling suppression: no {} violation on the annotated line",
                        an.rule
                    ),
                    hint: "delete the annotation or move it directly above the line it \
                           justifies"
                        .into(),
                });
            }
        }
        if passes::atomics::l10_scope(&a.path) {
            for _c in &a.ordering_comments {
                *counts
                    .entry(("ORDERING".to_string(), a.path.clone()))
                    .or_default() += 1;
            }
        }
    }
    let scanned: BTreeSet<&str> = analyses.iter().map(|a| a.path.as_str()).collect();
    for e in &allow.entries {
        if !scanned.contains(e.path.as_str()) {
            out.push(Violation {
                rule: "ALLOW",
                path: e.path.clone(),
                line: 1,
                message: format!(
                    "stale allowlist entry: `{}` is not part of the scanned source tree",
                    e.path
                ),
                hint: "the file was moved or deleted; remove the entry, or run \
                       `cargo run -p nosw-lint -- --prune-allow` to rewrite the register"
                    .into(),
            });
            continue;
        }
        let actual = counts
            .get(&(e.rule.clone(), e.path.clone()))
            .copied()
            .unwrap_or(0);
        if actual != e.count {
            out.push(Violation {
                rule: "ALLOW",
                path: e.path.clone(),
                line: 1,
                message: format!(
                    "allowlist records {} {} suppression(s) for this file but the \
                     source carries {actual}",
                    e.count, e.rule
                ),
                hint: "update crates/lint/nosw-lint.allow to match the annotations \
                       actually present, or run `cargo run -p nosw-lint -- --prune-allow`"
                    .into(),
            });
        }
    }
    for ((rule, path), count) in &counts {
        let registered = allow
            .entries
            .iter()
            .any(|e| &e.rule == rule && &e.path == path);
        if !registered {
            let what = if rule == "ORDERING" {
                format!("{count} ordering protocol comment(s) in this file are")
            } else {
                format!("{count} {rule} suppression(s) in this file are")
            };
            out.push(Violation {
                rule: "ALLOW",
                path: path.clone(),
                line: 1,
                message: format!("{what} not registered in the allowlist"),
                hint: "add a `RULE PATH COUNT` line to crates/lint/nosw-lint.allow".into(),
            });
        }
    }

    let mut suggested_allow = String::from(
        "# Justified exceptions, one `RULE PATH COUNT` per line.\n\
         # Counts are exact both ways; regenerate with `--prune-allow`.\n",
    );
    for ((rule, path), count) in &counts {
        suggested_allow.push_str(&format!("{rule} {path} {count}\n"));
    }

    out.sort_by(|x, y| (&x.path, x.line, x.rule).cmp(&(&y.path, y.line, y.rule)));
    RunOutput {
        violations: out,
        suggested_allow,
    }
}
