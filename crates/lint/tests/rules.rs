//! Rule-by-rule fixture tests, the workspace-clean gate, and seeded
//! negative tests that plant a violation in otherwise-clean sources.

use std::path::Path;

use nosw_lint::{lint_files, Allowlist, SourceFile, Violation};

const METRICS: &str = include_str!("../fixtures/metrics_mini.rs");
const L1: &str = include_str!("../fixtures/l1_direct_write.rs");
const L2_AUDIT: &str = include_str!("../fixtures/l2_audit_mini.rs");
const L2_ENGINE: &str = include_str!("../fixtures/l2_engine_emit.rs");
const L3: &str = include_str!("../fixtures/l3_instant.rs");
const L4: &str = include_str!("../fixtures/l4_spawn.rs");
const L5: &str = include_str!("../fixtures/l5_unwrap.rs");
const L5_ALLOWED: &str = include_str!("../fixtures/l5_allowed.rs");
const L6: &str = include_str!("../fixtures/l6_unsafe.rs");
const L7: &str = include_str!("../fixtures/l7_atomics.rs");
const L8: &str = include_str!("../fixtures/l8_blocking.rs");
const L8_WALL: &str = include_str!("../fixtures/l8_walltimer.rs");
const L9: &str = include_str!("../fixtures/l9_determinism.rs");
const L9_TIME: &str = include_str!("../fixtures/l9_time_seed.rs");
const L10: &str = include_str!("../fixtures/l10_ordering.rs");
const L11: &str = include_str!("../fixtures/l11_locks.rs");
const L12_METRICS: &str = include_str!("../fixtures/l12_metrics.rs");
const L12_AUDIT: &str = include_str!("../fixtures/l12_audit.rs");

fn file(path: &str, text: &str) -> SourceFile {
    SourceFile {
        path: path.to_string(),
        text: text.to_string(),
    }
}

fn metrics_file() -> SourceFile {
    file("crates/core/src/metrics.rs", METRICS)
}

fn rules_of(vs: &[Violation]) -> Vec<&'static str> {
    vs.iter().map(|v| v.rule).collect()
}

#[test]
fn l1_direct_field_writes_are_flagged_with_lines() {
    let vs = lint_files(
        &[metrics_file(), file("crates/core/src/engine.rs", L1)],
        &Allowlist::empty(),
    );
    let l1: Vec<_> = vs.iter().filter(|v| v.rule == "L1").collect();
    assert_eq!(l1.len(), 2, "{vs:?}");
    assert_eq!(l1[0].line, 5); // m.steps += 1;
    assert_eq!(l1[1].line, 7); // m.wall_ns = 7;
    assert!(l1[0].message.contains("steps"));
    assert!(!l1[0].hint.is_empty());
}

#[test]
fn l1_reads_and_metrics_module_writes_are_clean() {
    let own_writes = "impl RunMetrics { pub fn bump(&mut self) { self.steps += 1; } }\n";
    let mut m = metrics_file();
    m.text.push_str(own_writes);
    let reader = "pub fn read(m: &RunMetrics) -> u64 { m.steps + m.wall_ns }\n";
    let vs = lint_files(
        &[m, file("crates/bench/src/report.rs", reader)],
        &Allowlist::empty(),
    );
    assert!(vs.is_empty(), "{vs:?}");
}

#[test]
fn l2_unemitted_variant_is_flagged_at_its_declaration() {
    let vs = lint_files(
        &[
            file("crates/core/src/audit.rs", L2_AUDIT),
            file("crates/core/src/engine.rs", L2_ENGINE),
        ],
        &Allowlist::empty(),
    );
    assert_eq!(rules_of(&vs), vec!["L2"], "{vs:?}");
    assert!(vs[0].message.contains("Swap"));
    assert!(vs[0].message.contains("never emitted"));
    assert_eq!(vs[0].path, "crates/core/src/audit.rs");
    assert_eq!(vs[0].line, 9); // Swap's declaration line in the fixture
}

#[test]
fn l2_unhandled_variant_is_flagged() {
    // Strip the Swap arm from the handler: Swap becomes emitted-but-unhandled.
    let audit = L2_AUDIT.replace("TraceEvent::Swap { .. } => {}", "_ => {}");
    let engine = "pub fn run(emit: impl Fn(TraceEvent)) {\n    \
                  emit(TraceEvent::CoarseLoad { bytes: 1 });\n    \
                  emit(TraceEvent::Swap { bytes: 2 });\n}\n";
    let vs = lint_files(
        &[
            file("crates/core/src/audit.rs", &audit),
            file("crates/core/src/engine.rs", engine),
        ],
        &Allowlist::empty(),
    );
    assert_eq!(rules_of(&vs), vec!["L2"], "{vs:?}");
    assert!(vs[0].message.contains("Swap"));
    assert!(vs[0].message.contains("no handling site"));
}

#[test]
fn l3_raw_clock_reads_are_flagged_outside_exempt_crates() {
    let vs = lint_files(
        &[file("crates/core/src/engine.rs", L3)],
        &Allowlist::empty(),
    );
    assert_eq!(rules_of(&vs), vec!["L3"], "{vs:?}");
    assert_eq!(vs[0].line, 4);
    // The same source is fine in clock.rs and in the bench/cli crates.
    for exempt in [
        "crates/core/src/clock.rs",
        "crates/bench/src/runner.rs",
        "crates/cli/src/commands.rs",
    ] {
        let vs = lint_files(&[file(exempt, L3)], &Allowlist::empty());
        assert!(vs.is_empty(), "{exempt}: {vs:?}");
    }
}

#[test]
fn l8_blocking_and_clock_reads_are_flagged_in_serve() {
    let vs = lint_files(
        &[file("crates/serve/src/engine.rs", L8)],
        &Allowlist::empty(),
    );
    // Exactly one rule fires per site: L3 is waived in crates/serve, so the
    // clock read is reported once, as L8.
    assert_eq!(rules_of(&vs), vec!["L8", "L8"], "{vs:?}");
    assert_eq!(vs[0].line, 4);
    assert!(vs[0].message.contains("thread::sleep"));
    assert_eq!(vs[1].line, 8);
    assert!(vs[1].message.contains("Instant::now"));
}

#[test]
fn l8_is_scoped_to_the_serve_crate() {
    // In the measurement crates the same source is fine (L3-exempt, no L8).
    let vs = lint_files(
        &[file("crates/bench/src/runner.rs", L8)],
        &Allowlist::empty(),
    );
    assert!(vs.is_empty(), "{vs:?}");
    // In the engine only the ordinary L3 clock rule fires; the sleep is a
    // serving-specific concern.
    let vs = lint_files(
        &[file("crates/core/src/engine.rs", L8)],
        &Allowlist::empty(),
    );
    assert_eq!(rules_of(&vs), vec!["L3"], "{vs:?}");
}

#[test]
fn l8_wall_timers_are_confined_to_the_realtime_driver() {
    // A WallTimer anywhere else in the serving crate is flagged — the
    // `use` and the construction site both fire.
    let vs = lint_files(
        &[file("crates/serve/src/tick.rs", L8_WALL)],
        &Allowlist::empty(),
    );
    assert_eq!(rules_of(&vs), vec!["L8", "L8"], "{vs:?}");
    assert_eq!(vs.iter().map(|v| v.line).collect::<Vec<_>>(), vec![3, 6]);
    assert!(vs[0].message.contains("WallTimer"));
    assert!(vs[0].hint.contains("realtime.rs"));
    // The realtime driver is the sanctioned holder of wall time.
    let vs = lint_files(
        &[file("crates/serve/src/realtime.rs", L8_WALL)],
        &Allowlist::empty(),
    );
    assert!(vs.is_empty(), "{vs:?}");
    // ...but raw clock reads and sleeps stay banned even there: all wall
    // time funnels through the one WallTimer gateway, and pacing must be
    // interruptible (recv_timeout), never a blocking sleep.
    let vs = lint_files(
        &[file("crates/serve/src/realtime.rs", L8)],
        &Allowlist::empty(),
    );
    assert_eq!(rules_of(&vs), vec!["L8", "L8"], "{vs:?}");
}

#[test]
fn l4_thread_spawn_is_flagged_outside_sanctioned_modules() {
    let vs = lint_files(
        &[file("crates/core/src/engine.rs", L4)],
        &Allowlist::empty(),
    );
    assert_eq!(rules_of(&vs), vec!["L4"], "{vs:?}");
    assert_eq!(vs[0].line, 4);
    for exempt in ["crates/core/src/threaded.rs", "crates/core/src/parallel.rs"] {
        let vs = lint_files(&[file(exempt, L4)], &Allowlist::empty());
        assert!(vs.is_empty(), "{exempt}: {vs:?}");
    }
}

#[test]
fn l4_realtime_driver_may_spawn_its_tick_thread() {
    let vs = lint_files(
        &[file("crates/serve/src/realtime.rs", L4)],
        &Allowlist::empty(),
    );
    assert!(vs.is_empty(), "{vs:?}");
    // The exemption is the driver module alone, not the serving crate:
    // its siblings stay thread-confined.
    let vs = lint_files(
        &[file("crates/serve/src/engine.rs", L4)],
        &Allowlist::empty(),
    );
    assert_eq!(rules_of(&vs), vec!["L4"], "{vs:?}");
}

#[test]
fn l5_panicking_calls_flagged_in_library_code_only() {
    let vs = lint_files(
        &[file("crates/storage/src/file.rs", L5)],
        &Allowlist::empty(),
    );
    // unwrap (line 4), expect (line 8), panic! (line 12); the unwrap inside
    // #[cfg(test)] must NOT be flagged.
    assert_eq!(rules_of(&vs), vec!["L5", "L5", "L5"], "{vs:?}");
    assert_eq!(
        vs.iter().map(|v| v.line).collect::<Vec<_>>(),
        vec![4, 8, 12]
    );
    // The same source in a crate outside L5 scope is clean.
    let vs = lint_files(
        &[file("crates/apps/src/node2vec.rs", L5)],
        &Allowlist::empty(),
    );
    assert!(vs.is_empty(), "{vs:?}");
}

#[test]
fn l5_suppression_needs_an_allowlist_entry() {
    let f = file("crates/core/src/walk.rs", L5_ALLOWED);
    // Annotation present but unregistered: the suppression itself is flagged.
    let vs = lint_files(std::slice::from_ref(&f), &Allowlist::empty());
    assert_eq!(rules_of(&vs), vec!["ALLOW"], "{vs:?}");
    assert!(vs[0].message.contains("not registered"));
    // Registered with the right count: clean.
    let allow = Allowlist::parse("L5 crates/core/src/walk.rs 1").unwrap();
    let vs = lint_files(std::slice::from_ref(&f), &allow);
    assert!(vs.is_empty(), "{vs:?}");
    // Registered with a stale count: flagged.
    let allow = Allowlist::parse("L5 crates/core/src/walk.rs 2").unwrap();
    let vs = lint_files(&[f], &allow);
    assert_eq!(rules_of(&vs), vec!["ALLOW"], "{vs:?}");
}

#[test]
fn dangling_suppression_is_flagged() {
    let src = "pub fn fine() -> u32 {\n    // LINT-ALLOW(L5): nothing to suppress here.\n    \
               42\n}\n";
    let allow = Allowlist::parse("L5 crates/core/src/x.rs 1").unwrap();
    let vs = lint_files(&[file("crates/core/src/x.rs", src)], &allow);
    assert_eq!(rules_of(&vs), vec!["ALLOW"], "{vs:?}");
    assert!(vs[0].message.contains("dangling"));
}

#[test]
fn l6_unsafe_without_safety_comment_is_flagged() {
    let vs = lint_files(
        &[file("crates/storage/src/mmap.rs", L6)],
        &Allowlist::empty(),
    );
    let l6: Vec<_> = vs.iter().filter(|v| v.rule == "L6").collect();
    assert_eq!(l6.len(), 1, "{vs:?}");
    assert_eq!(l6[0].line, 9); // the undocumented block
}

#[test]
fn l6_unsafe_free_crate_must_forbid_unsafe_code() {
    let bare = "pub fn f() {}\n";
    let vs = lint_files(
        &[file("crates/graph/src/lib.rs", bare)],
        &Allowlist::empty(),
    );
    assert_eq!(rules_of(&vs), vec!["L6"], "{vs:?}");
    assert!(vs[0].message.contains("forbid"));
    let guarded = "#![forbid(unsafe_code)]\npub fn f() {}\n";
    let vs = lint_files(
        &[file("crates/graph/src/lib.rs", guarded)],
        &Allowlist::empty(),
    );
    assert!(vs.is_empty(), "{vs:?}");
}

#[test]
fn l7_atomics_flagged_outside_audited_core_modules() {
    let vs = lint_files(
        &[file("crates/core/src/engine.rs", L7)],
        &Allowlist::empty(),
    );
    // The `use` (line 3) and the field type (line 6); the atomics inside
    // #[cfg(test)] must NOT be flagged.
    assert_eq!(rules_of(&vs), vec!["L7", "L7"], "{vs:?}");
    assert_eq!(vs.iter().map(|v| v.line).collect::<Vec<_>>(), vec![3, 6]);
    assert!(vs[0].message.contains("AtomicU64"));
    // The audited modules and other crates may hold atomic state freely.
    for exempt in [
        "crates/core/src/presample.rs",
        "crates/core/src/parallel.rs",
        "crates/apps/src/basic.rs",
    ] {
        let vs = lint_files(&[file(exempt, L7)], &Allowlist::empty());
        assert!(vs.is_empty(), "{exempt}: {vs:?}");
    }
    // Run counters are plain values the coordinator merges: the metrics
    // module gave up its exemption along with its atomics.
    let vs = lint_files(
        &[file("crates/core/src/metrics.rs", L7)],
        &Allowlist::empty(),
    );
    assert_eq!(rules_of(&vs), vec!["L7", "L7"], "{vs:?}");
}

#[test]
fn kernel_module_has_no_concurrency_exemptions() {
    // The StepKernel seam (crates/core/src/kernel.rs) is pure delegation:
    // it selects and drives an engine but owns no threads and no shared
    // state. Pin that it never grows L4/L7 exemptions — planting a spawn
    // or an atomic there must keep firing.
    let vs = lint_files(
        &[file("crates/core/src/kernel.rs", L4)],
        &Allowlist::empty(),
    );
    assert_eq!(rules_of(&vs), vec!["L4"], "{vs:?}");
    let vs = lint_files(
        &[file("crates/core/src/kernel.rs", L7)],
        &Allowlist::empty(),
    );
    assert_eq!(rules_of(&vs), vec!["L7", "L7"], "{vs:?}");
}

#[test]
fn seeded_violation_in_clean_sources_is_caught() {
    // Plant one stray metrics write into an otherwise-clean engine file and
    // one unwrap into a storage file; both must surface with exact lines.
    let engine = "pub fn drive(m: &mut RunMetrics) {\n    \
                  let budget = 4;\n    \
                  m.steps += budget;\n}\n";
    let storage = "pub fn read_header(xs: &[u8]) -> u8 {\n    \
                   *xs.first().unwrap()\n}\n";
    let vs = lint_files(
        &[
            metrics_file(),
            file("crates/core/src/engine.rs", engine),
            file("crates/storage/src/device.rs", storage),
        ],
        &Allowlist::empty(),
    );
    assert_eq!(rules_of(&vs), vec!["L1", "L5"], "{vs:?}");
    assert_eq!(
        (vs[0].path.as_str(), vs[0].line),
        ("crates/core/src/engine.rs", 3)
    );
    assert_eq!(
        (vs[1].path.as_str(), vs[1].line),
        ("crates/storage/src/device.rs", 2)
    );
}

#[test]
fn l9_flags_only_functions_reachable_from_a_digest_root() {
    let vs = lint_files(&[file("crates/core/src/walk.rs", L9)], &Allowlist::empty());
    // `unordered_helper` is reachable from `publish_digest`: its HashMap
    // (line 15, deduped across the two mentions) and thread_rng (line 17)
    // fire. `cold_path` is unreachable, so its HashSet (line 22) must not.
    assert_eq!(rules_of(&vs), vec!["L9", "L9"], "{vs:?}");
    assert_eq!(vs.iter().map(|v| v.line).collect::<Vec<_>>(), vec![15, 17]);
    assert!(vs[0].message.contains("HashMap"));
    assert!(vs[0].message.contains("unordered_helper"));
    assert!(vs[1].message.contains("thread_rng"));
    // The same nondeterminism with no digest/trace root in scope is not
    // L9's business (other rules own ambient hygiene).
    let vs = lint_files(&[file("crates/apps/src/sweep.rs", L9)], &Allowlist::empty());
    assert!(vs.is_empty(), "{vs:?}");
}

#[test]
fn l9_time_seeded_rng_is_flagged_behind_a_trace_emitting_root() {
    let vs = lint_files(
        &[file("crates/core/src/engine.rs", L9_TIME)],
        &Allowlist::empty(),
    );
    assert_eq!(rules_of(&vs), vec!["L9"], "{vs:?}");
    assert_eq!(vs[0].line, 11); // seed_from_u64(now_ns() ^ salt)
    assert!(vs[0].message.contains("time-seeded"));
    assert!(vs[0].message.contains("reseed"));
}

#[test]
fn l10_relaxed_and_undocumented_orderings_are_flagged() {
    // The ordering-protocol comment in the fixture must itself be
    // registered (two-way, like suppressions) for the run to focus on the
    // real sites.
    let allow = Allowlist::parse("ORDERING crates/core/src/parallel.rs 1").unwrap();
    let vs = lint_files(&[file("crates/core/src/parallel.rs", L10)], &allow);
    // Relaxed outside the sanctioned counter modules (line 9) and the
    // undocumented Acquire (line 13); the documented Release (line 19) is
    // clean.
    assert_eq!(rules_of(&vs), vec!["L10", "L10"], "{vs:?}");
    assert_eq!(vs.iter().map(|v| v.line).collect::<Vec<_>>(), vec![9, 13]);
    assert!(vs[0].message.contains("Relaxed"));
    assert!(vs[1].message.contains("Acquire"));
    assert!(vs[1].message.contains("protocol comment"));
}

#[test]
fn l10_relaxed_is_sanctioned_in_counter_modules() {
    let allow = Allowlist::parse("ORDERING crates/core/src/presample.rs 1").unwrap();
    let vs = lint_files(&[file("crates/core/src/presample.rs", L10)], &allow);
    // Same source in a sanctioned counter module: the Relaxed bump is
    // fine; only the undocumented Acquire remains.
    assert_eq!(rules_of(&vs), vec!["L10"], "{vs:?}");
    assert_eq!(vs[0].line, 13);
}

#[test]
fn l10_ordering_comments_must_be_registered() {
    let vs = lint_files(
        &[file("crates/core/src/parallel.rs", L10)],
        &Allowlist::empty(),
    );
    let allows: Vec<_> = vs.iter().filter(|v| v.rule == "ALLOW").collect();
    assert_eq!(allows.len(), 1, "{vs:?}");
    assert!(allows[0].message.contains("ordering protocol comment"));
    assert!(allows[0].message.contains("not registered"));
}

#[test]
fn l10_dangling_ordering_comment_is_flagged() {
    let src = "pub fn quiet() -> u32 {\n    \
               // ORDERING: pairs with nothing at all.\n    \
               42\n}\n";
    let allow = Allowlist::parse("ORDERING crates/core/src/engine.rs 1").unwrap();
    let vs = lint_files(&[file("crates/core/src/engine.rs", src)], &allow);
    assert_eq!(rules_of(&vs), vec!["L10"], "{vs:?}");
    assert_eq!(vs[0].line, 2);
    assert!(vs[0].message.contains("dangling"));
}

#[test]
fn l11_guards_crossing_loops_or_loader_calls_are_flagged() {
    let vs = lint_files(
        &[file("crates/core/src/parallel.rs", L11)],
        &Allowlist::empty(),
    );
    // `crosses_loop`'s guard (bound line 6) and `calls_loader`'s (line
    // 15); the scoped, explicitly-dropped, and value-extracting shapes
    // stay clean.
    assert_eq!(rules_of(&vs), vec!["L11", "L11"], "{vs:?}");
    assert_eq!(vs.iter().map(|v| v.line).collect::<Vec<_>>(), vec![6, 15]);
    assert!(vs[0].message.contains("guard `guard`"));
    assert!(vs[0].message.contains("`for` loop"));
    assert!(vs[1].message.contains("loader call `.request()`"));
}

#[test]
fn l11_is_scoped_to_the_runner_and_serve() {
    // The same guard shapes in a crate outside the runner/serve scope are
    // not L11's concern.
    let vs = lint_files(
        &[file("crates/storage/src/cache.rs", L11)],
        &Allowlist::empty(),
    );
    assert!(vs.is_empty(), "{vs:?}");
}

#[test]
fn l12_uncovered_counter_is_flagged_at_its_declaration() {
    let vs = lint_files(
        &[
            file("crates/core/src/metrics.rs", L12_METRICS),
            file("crates/core/src/audit.rs", L12_AUDIT),
        ],
        &Allowlist::empty(),
    );
    // The audit fixture reads steps and steps_on_block but never
    // swap_bytes; wall_ns (clock family) and fine_mode_at_step (not a
    // u64 counter) are exempt by type.
    assert_eq!(rules_of(&vs), vec!["L12"], "{vs:?}");
    assert_eq!(vs[0].path, "crates/core/src/metrics.rs");
    assert_eq!(vs[0].line, 13); // swap_bytes declaration
    assert!(vs[0].message.contains("swap_bytes"));
    assert!(vs[0].hint.contains("verify_metrics"));
    // Covering the counter in the audit module clears the rule.
    let covered =
        format!("{L12_AUDIT}\npub fn swap_law(m: &RunMetrics) -> u64 {{ m.swap_bytes }}\n");
    let vs = lint_files(
        &[
            file("crates/core/src/metrics.rs", L12_METRICS),
            file("crates/core/src/audit.rs", &covered),
        ],
        &Allowlist::empty(),
    );
    assert!(vs.is_empty(), "{vs:?}");
}

#[test]
fn stale_allowlist_entry_is_a_hard_error() {
    let allow = Allowlist::parse("L5 crates/core/src/gone.rs 1").unwrap();
    let vs = lint_files(
        &[file("crates/core/src/walk.rs", "pub fn f() {}\n")],
        &allow,
    );
    assert_eq!(rules_of(&vs), vec!["ALLOW"], "{vs:?}");
    assert!(vs[0].message.contains("stale allowlist entry"));
    assert!(vs[0].message.contains("crates/core/src/gone.rs"));
    assert!(vs[0].hint.contains("--prune-allow"));
}

#[test]
fn workspace_report_renders_json_and_a_canonical_allowlist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = nosw_lint::lint_workspace(&root).expect("workspace scan");
    let json = report.to_json();
    assert!(json.contains("\"files_scanned\""));
    assert!(json.contains("\"violations\": []"));
    // The suggested allowlist round-trips through the parser and carries
    // every registered suppression in the canonical RULE PATH COUNT form.
    let parsed = Allowlist::parse(&report.suggested_allow).expect("suggested allowlist parses");
    assert!(!parsed.entries.is_empty());
    assert!(report
        .suggested_allow
        .contains("L10 crates/core/src/parallel.rs 4"));
}

#[test]
fn workspace_passes_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = nosw_lint::lint_workspace(&root).expect("workspace scan");
    assert!(
        report.files_scanned > 30,
        "scanned {}",
        report.files_scanned
    );
    let rendered: Vec<String> = report.violations.iter().map(|v| v.to_string()).collect();
    assert!(
        report.violations.is_empty(),
        "workspace not lint-clean:\n{}",
        rendered.join("\n")
    );
}
