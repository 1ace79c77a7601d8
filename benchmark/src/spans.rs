//! Spans recorded by the benchmark around its calls into each layer's
//! public API. They are kept in memory and written out once, at exit; an
//! untraced run records nothing.

use crate::json::{obj, Value};
use std::collections::BTreeMap;
use std::time::Instant;

/// One timed interval. `rep` and `query` tie the spans of one repetition
/// or one query together (0 = not applicable).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub rep: u32,
    pub query: u64,
}

/// Handle to an open span; `None` when tracing is off.
pub type SpanId = Option<usize>;

/// Per-name totals: how many spans, their summed duration, and their
/// summed self time (duration minus the part child spans cover).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotal {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: SpanId, rep: u32, query: u64) -> SpanId {
        if !self.on {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            rep,
            query,
        });
        Some(self.spans.len() - 1)
    }

    pub fn end(&mut self, id: SpanId) {
        if let Some(i) = id {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Times `f` and, when tracing, records it as a span. Returns the
    /// result and the elapsed nanoseconds (measured either way — the
    /// metrics need the time whether or not the span is kept).
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        rep: u32,
        query: u64,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let id = self.begin(name, parent, rep, query);
        let t = Instant::now();
        let out = f();
        let ns = t.elapsed().as_nanos() as u64;
        self.end(id);
        (out, ns)
    }

    /// Totals per span name, self time included.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotal> {
        totals(&self.spans)
    }

    /// The trace file: every span plus the per-name totals.
    pub fn to_json(&self, workload: &str) -> Value {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                obj([
                    ("id", Value::Num(i as f64)),
                    ("name", Value::Str(s.name.into())),
                    ("start_ns", Value::Num(s.start_ns as f64)),
                    ("end_ns", Value::Num(s.end_ns as f64)),
                    (
                        "parent",
                        s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                    ),
                    ("rep", Value::Num(f64::from(s.rep))),
                    ("query", Value::Num(s.query as f64)),
                ])
            })
            .collect();
        let totals = self
            .totals()
            .into_iter()
            .map(|(name, t)| {
                (
                    name,
                    obj([
                        ("count", Value::Num(t.count as f64)),
                        ("total_ns", Value::Num(t.total_ns as f64)),
                        ("self_ns", Value::Num(t.self_ns as f64)),
                    ]),
                )
            })
            .collect::<Vec<_>>();
        obj([
            ("workload", Value::Str(workload.into())),
            ("totals", obj(totals)),
            ("spans", Value::Arr(spans)),
        ])
    }
}

/// A span's self time is its duration minus the part of that interval
/// its direct children cover (overlapping children are merged first, so
/// concurrent children are not subtracted twice).
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, NameTotal> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(children.iter_mut()) {
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut reach = 0u64;
        for &(a, b) in kids.iter() {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        let total = s.end_ns - s.start_ns;
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += total;
        t.self_ns += total - covered;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            rep: 0,
            query: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = [
            span("rep", 0, 100, None),
            span("run", 10, 40, Some(0)),
            span("run", 30, 60, Some(0)), // overlaps the first child
            span("load", 15, 25, Some(1)),
            span("spill", 90, 130, Some(0)), // clipped to the parent's end
        ];
        let t = totals(&spans);
        // Children cover [10, 60) and [90, 100): 60 of the parent's 100.
        assert_eq!(
            t["rep"],
            NameTotal {
                count: 1,
                total_ns: 100,
                self_ns: 40
            }
        );
        // The two runs total 60; the first loses 10 to its `load` child.
        assert_eq!(
            t["run"],
            NameTotal {
                count: 2,
                total_ns: 60,
                self_ns: 50
            }
        );
        assert_eq!(t["load"].self_ns, 10);
        assert_eq!(t["spill"].total_ns, 40);
    }

    #[test]
    fn an_untraced_run_records_nothing_but_still_times() {
        let mut off = Tracer::new(false);
        let (v, ns) = off.time("x", None, 0, 0, || std::hint::black_box(41) + 1);
        assert_eq!(v, 42);
        assert!(ns < 1_000_000_000);
        assert!(off.spans.is_empty());
        let mut on = Tracer::new(true);
        let root = on.begin("rep", None, 1, 0);
        on.time("run", root, 1, 0, || ());
        on.end(root);
        assert_eq!(on.spans.len(), 2);
        assert_eq!(on.spans[1].parent, Some(0));
        assert_eq!(on.totals()["rep"].count, 1);
    }
}
