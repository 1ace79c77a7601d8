//! Query-trace scripts and the human latency/shed report.
//!
//! A script is a plain-text query trace, one query per line:
//!
//! ```text
//! # at_us  class         walkers  length  deadline_us (- = none)
//! 0        ppr:7         2000     10      5000
//! 150      deepwalk:0    500      10      -
//! 300      rwr:7:0.15    1000     10      8000
//! ```
//!
//! `noswalker serve --script <file>` replays one through
//! [`crate::ServeEngine`] and prints [`render_report`]'s latency/shed
//! summary. Times are microseconds of *modeled* time, so a script replay
//! is deterministic.

use crate::app::QueryClass;
use crate::engine::ServeReport;
use noswalker_core::QuerySpec;

/// A script parse failure (`Display` carries line number and reason).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScriptError {
    /// 1-based line number.
    pub line: usize,
    /// What was wrong.
    pub reason: String,
}

impl std::fmt::Display for ScriptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "script line {}: {}", self.line, self.reason)
    }
}

impl std::error::Error for ScriptError {}

fn field<T: std::str::FromStr>(line: usize, name: &str, v: Option<&str>) -> Result<T, ScriptError> {
    let v = v.ok_or_else(|| ScriptError {
        line,
        reason: format!("missing {name} column"),
    })?;
    v.parse().map_err(|_| ScriptError {
        line,
        reason: format!("invalid {name} {v:?}"),
    })
}

/// Parses a query-trace script into arrival-ordered [`QuerySpec`]s.
/// Blank lines and `#` comments are skipped; query ids are assigned in
/// file order starting at 1.
///
/// # Errors
///
/// [`ScriptError`] naming the offending line on malformed input,
/// unknown query classes included.
pub fn parse_script(text: &str) -> Result<Vec<QuerySpec>, ScriptError> {
    let mut specs = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = i + 1;
        let body = raw.split('#').next().unwrap_or("").trim();
        if body.is_empty() {
            continue;
        }
        let mut cols = body.split_whitespace();
        let at_us: u64 = field(line, "at_us", cols.next())?;
        let class = cols
            .next()
            .ok_or_else(|| ScriptError {
                line,
                reason: "missing class column".into(),
            })?
            .to_string();
        if QueryClass::parse(&class).is_none() {
            return Err(ScriptError {
                line,
                reason: format!("unknown query class {class:?}"),
            });
        }
        let walkers: u64 = field(line, "walkers", cols.next())?;
        let walk_length: u32 = field(line, "length", cols.next())?;
        let deadline_ns = match cols.next() {
            None | Some("-") => None,
            v => Some(field::<u64>(line, "deadline_us", v)? * 1_000),
        };
        if let Some(extra) = cols.next() {
            return Err(ScriptError {
                line,
                reason: format!("unexpected trailing column {extra:?}"),
            });
        }
        specs.push(QuerySpec {
            id: specs.len() as u64 + 1,
            class,
            walkers,
            walk_length,
            deadline_ns,
            arrival_ns: at_us * 1_000,
        });
    }
    Ok(specs)
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1_000.0
}

/// Renders the latency/shed report the `noswalker serve` CLI prints: one
/// block of totals, one latency line per query class, then per-query
/// outcome lines.
pub fn render_report(r: &ServeReport) -> String {
    let mut out = String::new();
    let good = r.good_count();
    out.push_str(&format!(
        "served {} queries in {} rounds over {:.1} us modeled ({:.1} q/s)   \
         good: {} ({:.1} q/s)\n",
        r.completed_count(),
        r.rounds,
        us(r.end_ns),
        r.achieved_qps(),
        good,
        good as f64 / (r.end_ns.max(1) as f64 / 1e9),
    ));
    out.push_str(&format!(
        "  shed: {}   deadline misses: {}   degraded: {}\n",
        r.shed_count(),
        r.deadline_miss_count(),
        r.degraded_count(),
    ));
    // A walker handed to another shard retires through the cancel path;
    // it is not a cancelled walker, so it is counted apart.
    let m = &r.metrics;
    out.push_str(&format!(
        "  walkers: {} finished, {} cancelled, {} handed off, {} steps\n",
        m.walkers_finished,
        m.walkers_cancelled.saturating_sub(m.walkers_emigrated),
        m.walkers_emigrated,
        m.steps,
    ));
    for (class, h) in &r.histograms {
        out.push_str(&format!(
            "  {class:<10} n={:<5} p50={:.1}us p90={:.1}us p99={:.1}us max={:.1}us\n",
            h.count(),
            us(h.quantile(0.50)),
            us(h.quantile(0.90)),
            us(h.quantile(0.99)),
            us(h.max()),
        ));
    }
    for o in &r.outcomes {
        if o.shed {
            out.push_str(&format!(
                "  query {:<4} {:<10} SHED (retry after {:.1} us)\n",
                o.id,
                o.class,
                us(o.retry_after_ns.unwrap_or(0)),
            ));
        } else {
            out.push_str(&format!(
                "  query {:<4} {:<10} {}/{} walkers ({} cancelled) in {:.1} us{}{}\n",
                o.id,
                o.class,
                o.stats.completed,
                o.stats.budget,
                o.stats.cancelled,
                us(o.latency_ns.unwrap_or(0)),
                if o.deadline_missed {
                    "  DEADLINE MISS"
                } else {
                    ""
                },
                if o.degraded { "  (degraded)" } else { "" },
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::QueryOutcome;

    #[test]
    fn report_totals_separate_good_answers_from_served() {
        let clean = QueryOutcome {
            id: 1,
            class: "ppr".to_string(),
            stats: Default::default(),
            latency_ns: Some(400_000),
            degraded: false,
            deadline_missed: false,
            shed: false,
            retry_after_ns: None,
            digest: 0,
        };
        let late_partial = QueryOutcome {
            latency_ns: Some(900_000),
            degraded: true,
            deadline_missed: true,
            ..clean.clone()
        };
        let shed = QueryOutcome {
            latency_ns: None,
            shed: true,
            retry_after_ns: Some(2_000),
            ..clean.clone()
        };
        let r = ServeReport {
            outcomes: vec![clean, late_partial, shed],
            histograms: Default::default(),
            metrics: Default::default(),
            rounds: 5,
            end_ns: 1_000_000,
        };
        let text = render_report(&r);
        let totals: Vec<&str> = text.lines().take(2).collect();
        assert_eq!(
            totals[0],
            "served 2 queries in 5 rounds over 1000.0 us modeled (2000.0 q/s)   \
             good: 1 (1000.0 q/s)"
        );
        assert_eq!(totals[1], "  shed: 1   deadline misses: 1   degraded: 1");
        assert!(text.contains("in 900.0 us  DEADLINE MISS  (degraded)"));
        assert!(text.contains("SHED (retry after 2.0 us)"));
    }

    #[test]
    fn parses_a_script_with_comments_and_defaults() {
        let specs = parse_script(
            "# header comment\n\
             0    ppr:7       200  10  5000\n\
             \n\
             150  deepwalk:0  50   10  -   # best effort\n\
             300  basic       10   4\n",
        )
        .expect("parse");
        assert_eq!(specs.len(), 3);
        assert_eq!(specs[0].id, 1);
        assert_eq!(specs[0].arrival_ns, 0);
        assert_eq!(specs[0].deadline_ns, Some(5_000_000));
        assert_eq!(specs[1].class, "deepwalk:0");
        assert_eq!(specs[1].deadline_ns, None);
        assert_eq!(specs[2].arrival_ns, 300_000);
        assert_eq!(specs[2].deadline_ns, None);
    }

    #[test]
    fn rejects_malformed_lines_with_line_numbers() {
        for (text, needle, line) in [
            ("0 ppr:7", "missing walkers", 1),
            ("\n0 nope 5 4 -", "unknown query class", 2),
            ("x ppr:1 5 4 -", "invalid at_us", 1),
            ("0 ppr:1 5 4 9 9", "trailing column", 1),
        ] {
            let err = parse_script(text).expect_err(text);
            assert_eq!(err.line, line, "{text}");
            assert!(err.reason.contains(needle), "{text}: {err}");
        }
    }
}
