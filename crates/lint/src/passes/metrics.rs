//! L1 — `RunMetrics` fields are only written through the tracked helpers
//! in `crates/core/src/metrics.rs` — and L12 — every `RunMetrics` counter
//! is referenced by at least one conservation law in `audit.rs`.
//!
//! Together they close the metrics loop: L1 guarantees a counter can only
//! change through an audited helper, L12 guarantees the audit actually
//! looks at it, so a newly added counter cannot silently escape the
//! conservation laws.

use std::collections::BTreeSet;

use super::{Hit, Pass, PassCx};

/// Methods that mutate an atomic counter (treated as writes under L1).
const ATOMIC_WRITES: &[&str] = &["store", "fetch_add", "fetch_sub", "fetch_max", "fetch_min"];
/// Compound and plain assignment operators.
const ASSIGN_OPS: &[&str] = &[
    "=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=",
];

pub(crate) struct MetricsWrites;

impl Pass for MetricsWrites {
    fn id(&self) -> &'static str {
        "L1"
    }

    fn run(&self, cx: &PassCx<'_>, out: &mut Vec<Hit>) {
        let fields: BTreeSet<&str> = cx
            .index
            .metrics_fields
            .iter()
            .map(|f| f.name.as_str())
            .collect();
        if fields.is_empty() {
            return;
        }
        for (fi, a) in cx.files.iter().enumerate() {
            if a.path.ends_with("core/src/metrics.rs") {
                continue;
            }
            // L1 only bites in files that handle `RunMetrics` at all; a
            // field named `steps` on some unrelated walker struct is not a
            // metrics write.
            let toks = &a.lexed.tokens;
            if !toks.iter().any(|t| t.text == "RunMetrics") {
                continue;
            }
            for i in 0..toks.len() {
                if a.is_test_line(toks[i].line) {
                    continue;
                }
                if a.t(i) != "." || !a.is_ident(i + 1) || !fields.contains(a.t(i + 1)) {
                    continue;
                }
                let field = a.t(i + 1).to_string();
                if ASSIGN_OPS.contains(&a.t(i + 2)) {
                    out.push(Hit {
                        file: fi,
                        rule: "L1",
                        line: toks[i + 1].line,
                        message: format!("direct write to RunMetrics field `{field}`"),
                        hint: format!(
                            "route the update through a tracked RunMetrics helper \
                             (record_*/set_*) in crates/core/src/metrics.rs instead of \
                             assigning `{field}` here"
                        ),
                    });
                } else if a.t(i + 2) == "."
                    && ATOMIC_WRITES.contains(&a.t(i + 3))
                    && a.t(i + 4) == "("
                {
                    out.push(Hit {
                        file: fi,
                        rule: "L1",
                        line: toks[i + 1].line,
                        message: format!("atomic write to shared metrics field `{field}`"),
                        hint: "count into a plain RunMetrics through its record_* helpers \
                               and RunMetrics::merge it; run counters are never atomics"
                            .into(),
                    });
                }
            }
        }
    }
}

pub(crate) struct AuditCoverage;

impl Pass for AuditCoverage {
    fn id(&self) -> &'static str {
        "L12"
    }

    fn run(&self, cx: &PassCx<'_>, out: &mut Vec<Hit>) {
        let Some(metrics_path) = &cx.index.metrics_path else {
            return;
        };
        let Some(mfi) = cx.files.iter().position(|a| &a.path == metrics_path) else {
            return;
        };
        let Some(audit) = cx
            .files
            .iter()
            .find(|a| a.path.ends_with("core/src/audit.rs"))
        else {
            return;
        };
        // Every `.field` access in non-test audit code counts as coverage:
        // a law that reads the counter references it this way.
        let mut referenced: BTreeSet<&str> = BTreeSet::new();
        let toks = &audit.lexed.tokens;
        for (i, tok) in toks.iter().enumerate() {
            if tok.text == "." && audit.is_ident(i + 1) && !audit.is_test_line(tok.line) {
                referenced.insert(audit.t(i + 1));
            }
        }
        for f in &cx.index.metrics_fields {
            // Counters are the plain `u64` fields; `_ns` clock aggregates
            // are checked by the clock-sanity law as a family, and
            // non-`u64` fields (e.g. `Option<u64>` markers) carry no
            // conserved quantity.
            if f.ty != ["u64"] || f.name.ends_with("_ns") {
                continue;
            }
            if !referenced.contains(f.name.as_str()) {
                out.push(Hit {
                    file: mfi,
                    rule: "L12",
                    line: f.line,
                    message: format!(
                        "RunMetrics counter `{}` is not referenced by any conservation \
                         law in audit.rs",
                        f.name
                    ),
                    hint: format!(
                        "add (or extend) a law in RunAudit::verify_metrics that reads \
                         `{}` — every counter must be auditable, or it can drift \
                         silently",
                        f.name
                    ),
                });
            }
        }
    }
}
