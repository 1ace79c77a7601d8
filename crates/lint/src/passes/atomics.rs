//! L7 — `std::sync::atomic` types in `crates/core/src` only in
//! `presample.rs` and `parallel.rs` — and L10 — memory-ordering
//! discipline for core and serve.
//!
//! L10 enforces the two halves of the lock-free protocol register:
//!
//! * `Ordering::Relaxed` is only legitimate on the sanctioned *counter*
//!   modules, where every atomic is a mergeable tally folded at a barrier
//!   (`presample.rs` slot claims and demand tallies, the serve layer's
//!   per-query slot counters in `app.rs`). A Relaxed anywhere else
//!   is either a bug or needs an explicit suppression with justification.
//! * Any Acquire/Release/AcqRel/SeqCst site is a *protocol* site: it must
//!   carry an anchored comment starting with the ordering marker that
//!   documents what it pairs with. Those comments are registered two-way
//!   in `nosw-lint.allow` (rule key `ORDERING`), exactly like L5
//!   suppressions, so a stale protocol comment fails the run.

use super::{Hit, Pass, PassCx};

/// The `std::sync::atomic` type names gated by L7: concurrent state in the
/// core crate is confined to the modules whose invariants are documented
/// and audited (the pre-sample buffers' claim counters and the parallel
/// runner's pool). Run counters are plain `RunMetrics` values merged by
/// the coordinator, so `metrics.rs` holds no atomics.
const ATOMIC_TYPES: &[&str] = &[
    "AtomicBool",
    "AtomicU8",
    "AtomicU16",
    "AtomicU32",
    "AtomicU64",
    "AtomicUsize",
    "AtomicI8",
    "AtomicI16",
    "AtomicI32",
    "AtomicI64",
    "AtomicIsize",
    "AtomicPtr",
];

/// Files where `Ordering::Relaxed` is sanctioned: all their atomics are
/// commutative counters folded at a synchronization barrier, so ordering
/// genuinely does not matter.
const SANCTIONED_RELAXED: &[&str] = &["crates/core/src/presample.rs", "crates/serve/src/app.rs"];

fn l7_exempt(path: &str) -> bool {
    !path.starts_with("crates/core/src/")
        || path.ends_with("/presample.rs")
        || path.ends_with("/parallel.rs")
}

/// L10 applies to the engine and serving crates — the code whose
/// cross-backend determinism the atomics protocols protect.
pub(crate) fn l10_scope(path: &str) -> bool {
    path.starts_with("crates/core/src/") || path.starts_with("crates/serve/src/")
}

pub(crate) struct AtomicConfinement;

impl Pass for AtomicConfinement {
    fn id(&self) -> &'static str {
        "L7"
    }

    fn run(&self, cx: &PassCx<'_>, out: &mut Vec<Hit>) {
        for (fi, a) in cx.files.iter().enumerate() {
            if l7_exempt(&a.path) {
                continue;
            }
            for (i, tok) in a.lexed.tokens.iter().enumerate() {
                if a.is_test_line(tok.line) || !a.is_ident(i) || !ATOMIC_TYPES.contains(&a.t(i)) {
                    continue;
                }
                out.push(Hit {
                    file: fi,
                    rule: "L7",
                    line: tok.line,
                    message: format!("`{}` outside the audited concurrency modules", a.t(i)),
                    hint: "count into a per-job RunMetrics and merge it; lock-free claim \
                           state belongs in presample.rs (PreSampleBuffer), other concurrent \
                           state in parallel.rs"
                        .into(),
                });
            }
        }
    }
}

pub(crate) struct OrderingDiscipline;

impl Pass for OrderingDiscipline {
    fn id(&self) -> &'static str {
        "L10"
    }

    fn run(&self, cx: &PassCx<'_>, out: &mut Vec<Hit>) {
        for site in &cx.index.ordering_sites {
            let a = &cx.files[site.file];
            if !l10_scope(&a.path) {
                continue;
            }
            if site.which == "Relaxed" {
                if !SANCTIONED_RELAXED.contains(&a.path.as_str()) {
                    out.push(Hit {
                        file: site.file,
                        rule: "L10",
                        line: site.line,
                        message: "`Ordering::Relaxed` outside the sanctioned counter modules"
                            .into(),
                        hint: "Relaxed is only safe for mergeable counters (presample.rs \
                               slot claims, serve app.rs slot folds); use a stronger \
                               ordering with a protocol comment, or justify with a \
                               registered suppression"
                            .into(),
                    });
                }
            } else {
                let covered = a
                    .ordering_comments
                    .iter()
                    .any(|c| c.target == Some(site.line));
                if !covered {
                    out.push(Hit {
                        file: site.file,
                        rule: "L10",
                        line: site.line,
                        message: format!(
                            "`Ordering::{}` without an anchored protocol comment",
                            site.which
                        ),
                        hint: "document the acquire/release pairing in an ordering-marker \
                               comment directly above the site and register it in \
                               crates/lint/nosw-lint.allow under rule ORDERING"
                            .into(),
                    });
                }
            }
        }
        // Dangling protocol comments: a register entry must anchor a real
        // Acquire/Release/AcqRel/SeqCst site, or it is documentation rot.
        for (fi, a) in cx.files.iter().enumerate() {
            if !l10_scope(&a.path) {
                continue;
            }
            for c in &a.ordering_comments {
                let anchored = cx
                    .index
                    .ordering_sites
                    .iter()
                    .any(|s| s.file == fi && s.which != "Relaxed" && Some(s.line) == c.target);
                if !anchored {
                    out.push(Hit {
                        file: fi,
                        rule: "L10",
                        line: c.line,
                        message: "dangling ordering-protocol comment: no Acquire/Release/\
                                  SeqCst site on the annotated line"
                            .into(),
                        hint: "delete the comment or move it directly above the atomic \
                               operation it documents"
                            .into(),
                    });
                }
            }
        }
    }
}
