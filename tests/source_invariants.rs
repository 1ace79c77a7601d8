//! Source invariants rustc and clippy cannot state (DESIGN.md §10), read
//! line by line: `//` lines and all after a file's first top-level
//! `#[cfg(test)]` are skipped, the cut `tools/loc.sh` makes. L1 is deleted
//! once `RunMetrics` fields are private (after ROADMAP item 7 moves the
//! benchmark onto accessors); L2's handling half is `audit.rs`'s
//! wildcard-free matches.

use std::fs;
use std::path::{Path, PathBuf};

type Line = (PathBuf, usize, String);

/// `(file below crates/, line number, trimmed line)` of library code.
fn library() -> Vec<Line> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let crates = fs::read_dir(&root).expect("crates/").flatten();
    let mut dirs: Vec<PathBuf> = crates.map(|e| e.path().join("src")).collect();
    let mut out = Vec::new();
    while let Some(dir) = dirs.pop() {
        let entries = fs::read_dir(&dir).into_iter().flatten().flatten();
        for path in entries.map(|e| e.path()) {
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let text = fs::read_to_string(&path).expect("source");
                let file = path.strip_prefix(&root).expect("below").to_path_buf();
                let lines = text.lines().enumerate();
                let lib = lines.take_while(|(_, l)| !l.starts_with("#[cfg(test)]"));
                let code = lib.filter(|(_, l)| !l.trim_start().starts_with("//"));
                out.extend(code.map(|(i, l)| (file.clone(), i + 1, l.trim().to_owned())));
            }
        }
    }
    out
}

/// The body lines of the item in `file` whose header line starts `header`.
fn body<'a>(lib: &'a [Line], file: &str, header: &str) -> Vec<&'a str> {
    let lines = lib.iter().filter(|(p, ..)| p.ends_with(file));
    let lines = lines.map(|(.., l)| l.as_str());
    let body = lines.skip_while(|l| !l.starts_with(header)).skip(1);
    body.take_while(|l| *l != "}").collect()
}

/// Whether `line` assigns, compound-assigns or atomically writes `.field`.
fn writes(line: &str, field: &str) -> bool {
    let ops = "= += -= *= /= %= &= |= ^= <<= >>= .fetch_";
    let field = format!(".{field}");
    line.match_indices(&field).any(|(at, _)| {
        let rest = &line[at + field.len()..];
        let op = rest.trim_start();
        let assigns = |o: &str| op.starts_with(o) && !op[o.len()..].starts_with(['=', '>']);
        !rest.starts_with(|c: char| c == '_' || c.is_alphanumeric()) && ops.split(' ').any(assigns)
    })
}

fn assert_none<T: std::fmt::Debug>(found: Vec<T>, what: &str) {
    assert!(found.is_empty(), "{what}: {found:#?}");
}

/// L1: `RunMetrics` fields change only through the tracked helpers in
/// `core/src/metrics.rs`.
#[test]
fn run_metrics_fields_change_only_through_tracked_helpers() {
    let lib = library();
    let decls = body(&lib, "core/src/metrics.rs", "pub struct RunMetrics {");
    let names = decls.iter().filter_map(|l| l.strip_prefix("pub "));
    let fields: Vec<&str> = names.filter_map(|l| l.split(':').next()).collect();
    assert!(fields.len() > 20, "RunMetrics fields not found");
    // A `steps` field in code that never names `RunMetrics` is another's.
    let naming = lib.iter().filter(|(.., l)| l.contains("RunMetrics"));
    let naming: Vec<&PathBuf> = naming.map(|(p, ..)| p).collect();
    let hits = lib.iter().filter(|(p, _, l)| {
        naming.contains(&p)
            && !p.ends_with("core/src/metrics.rs")
            && fields.iter().any(|f| writes(l, f))
    });
    let hits = hits.map(|(p, n, l)| format!("{}:{n}: {l}", p.display()));
    assert_none(hits.collect(), "RunMetrics writes outside metrics.rs");
}

/// L2: every `TraceEvent` variant is emitted by core, baselines, serve or
/// shard library code.
#[test]
fn every_trace_event_variant_is_emitted() {
    let lib = library();
    let decls = body(&lib, "core/src/audit.rs", "pub enum TraceEvent {");
    let variants: Vec<&str> = decls.iter().filter_map(|l| l.strip_suffix(" {")).collect();
    assert!(variants.len() > 10, "TraceEvent variants not found");
    let emitters = lib.iter().filter(|(p, ..)| {
        let crates = ["core", "baselines", "serve", "shard"];
        !p.ends_with("core/src/audit.rs") && crates.iter().any(|c| p.starts_with(c))
    });
    let lines: Vec<&str> = emitters.map(|(.., l)| l.as_str()).collect();
    let silent = variants.iter().filter(|v| {
        let ctor = format!("TraceEvent::{v} {{");
        !lines.iter().any(|l| l.contains(&ctor))
    });
    assert_none(silent.collect(), "TraceEvent variants never emitted");
}
