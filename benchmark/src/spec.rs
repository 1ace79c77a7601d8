//! What the benchmark declares: workloads, end-to-end metrics with their
//! bounds, and per-layer metrics. `BENCHMARK.json` at the repository root
//! carries the same lists; a test keeps the two equal.

use crate::json::{obj, Value};
use std::collections::BTreeMap;

/// Seconds one run measures when `--seconds` is not given; equals
/// `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 12.0;

/// `(name, why)` of each workload, in run order.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "batch-ooc",
        "scale-18 R-MAT at a 25% memory budget, dense walkers on both engines: device reads, block decode, pre-sample build and pool claims do most of the work",
    ),
    (
        "batch-inmem",
        "same graph at a budget of twice the edge region: every byte fits, so the step loop does nearly all the work and I/O changes should not move it",
    ),
    (
        "batch-sparse",
        "same graph at 25% with few long walkers in many short jobs: 4 KiB fine loads and per-run fixed cost dominate",
    ),
    (
        "serve-steady",
        "realtime server on a scale-16 graph, open-loop Poisson arrivals at 60 q/s (half of capacity): tick, cold kernel start, ingress and egress set latency",
    ),
    (
        "serve-overload",
        "same server at 240 q/s (twice capacity) with a 2 s deadline: admission and shedding do most of the work and goodput measures capacity",
    ),
    (
        "serve-shard",
        "4-shard plane in lockstep on the modeled clock at 250 q/s modeled: the only path through walker handoff and BSP supersteps",
    ),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

use Better::{Higher, Lower};

/// `(name, unit, better, bound)`: the bound is the share of the parent's
/// median by which the metric may worsen before it counts as a regression.
pub const END_TO_END: &[(&str, &str, Better, f64)] = &[
    ("setup_s", "s", Lower, 0.25),
    ("peak_rss_mb", "MB", Lower, 0.20),
    ("seq_wall_msteps_s", "Msteps/s", Higher, 0.25),
    ("par_wall_msteps_s", "Msteps/s", Higher, 0.25),
    ("seq_model_msteps_s", "Msteps/s", Higher, 0.10),
    ("par_model_msteps_s", "Msteps/s", Higher, 0.15),
    ("goodput_qps", "q/s", Higher, 0.10),
    ("latency_p50_ms", "ms", Lower, 0.25),
    ("latency_p95_ms", "ms", Lower, 0.25),
    ("wall_qps", "q/s", Higher, 0.25),
];

/// `(name, unit, better)` of each per-layer metric. A layer that is not on
/// a workload's path reports 0 there.
pub const PER_LAYER: &[(&str, &str, Better)] = &[
    ("storage.read_coarse_ns_per_kib", "ns/KiB", Lower),
    ("storage.read_fine_ns_per_op", "ns", Lower),
    ("storage.model_coarse_ns_per_kib", "ns/KiB", Lower),
    ("storage.model_fine_ns_per_op", "ns", Lower),
    ("storage.budget_reserve_ns_per_op", "ns", Lower),
    ("storage.bytes_read", "B/op", Lower),
    ("storage.read_ops", "1/op", Lower),
    ("graph.rmat_gen_s", "s", Lower),
    ("graph.encode_ns_per_edge", "ns", Lower),
    ("core.disk_graph.store_s", "s", Lower),
    ("core.disk_graph.load_block_ns_per_kib", "ns/KiB", Lower),
    ("core.disk_graph.decode_ns_per_vertex", "ns", Lower),
    ("core.disk_graph.load_fine_us_per_call", "us", Lower),
    ("core.presample.plan_us_per_block", "us", Lower),
    ("core.presample.build_ns_per_draw", "ns", Lower),
    ("core.presample.peek_consume_ns_per_op", "ns", Lower),
    ("core.presample.publish_us_per_block", "us", Lower),
    ("core.presample.claim_ns_per_op", "ns", Lower),
    ("core.presample.claim_batch_ns_per_slot", "ns", Lower),
    ("core.engine.wall_ns_per_step", "ns", Lower),
    ("core.engine.model_ns_per_step", "ns", Lower),
    ("core.engine.io_bytes_per_step", "B", Lower),
    ("core.engine.coarse_loads", "1/run", Lower),
    ("core.engine.fine_loads", "1/run", Lower),
    ("core.engine.steps_on_block_frac", "share", Higher),
    ("core.engine.steps_on_presample_frac", "share", Higher),
    ("core.engine.steps_on_raw_frac", "share", Higher),
    ("core.engine.presample_use_ratio", "share", Higher),
    ("core.engine.stall_frac", "share", Lower),
    ("core.engine.io_util", "share", Higher),
    ("core.engine.budget_peak_frac", "share", Lower),
    ("core.engine.fixed_cost_us", "us", Lower),
    ("core.parallel.wall_ns_per_step", "ns", Lower),
    ("core.parallel.model_ns_per_step", "ns", Lower),
    ("core.parallel.io_bytes_per_step", "B", Lower),
    ("core.parallel.coarse_loads", "1/run", Lower),
    ("core.parallel.pool_stalls_per_step", "1/step", Lower),
    ("core.parallel.pool_deferrals_per_step", "1/step", Lower),
    ("core.parallel.claims_burned_per_step", "1/step", Lower),
    ("core.parallel.prefetch_hit_ratio", "share", Higher),
    ("core.parallel.speedup_2w_vs_1w", "x", Higher),
    ("core.parallel.fixed_cost_us", "us", Lower),
    ("core.parallel.run_errors", "count", Lower),
    ("core.kernel.seq_round_us", "us", Lower),
    ("core.kernel.par_round_us", "us", Lower),
    ("core.kernel.seq_empty_round_us", "us", Lower),
    ("core.kernel.par_empty_round_us", "us", Lower),
    ("core.kernel.seq_advance_ns_per_step", "ns", Lower),
    ("core.kernel.par_advance_ns_per_step", "ns", Lower),
    ("serve.admission.offer_ns_per_op", "ns", Lower),
    ("serve.admission.shed_frac", "share", Lower),
    ("serve.tick.idle_tick_ns", "ns", Lower),
    ("serve.tick.round_wall_us_p50", "us", Lower),
    ("serve.tick.rounds_per_query", "1/q", Lower),
    ("serve.tick.walkers_per_round", "count", Higher),
    ("serve.tick.io_bytes_per_step", "B", Lower),
    ("serve.tick.steps_on_presample_frac", "share", Higher),
    ("serve.realtime.empty_rtt_us", "us", Lower),
    ("serve.realtime.submit_ns_per_op", "ns", Lower),
    ("serve.realtime.take_outcomes_us_at_1k", "us", Lower),
    ("serve.realtime.take_outcomes_us_at_4k", "us", Lower),
    ("serve.realtime.ingress_egress_ms_p50", "ms", Lower),
    ("serve.realtime.generator_late_ms_max", "ms", Lower),
    ("serve.realtime.rounds_per_s", "1/s", Higher),
    ("shard.plane.build_s", "s", Lower),
    ("shard.plane.rounds_per_query", "1/q", Lower),
    ("shard.plane.hops_per_query", "1/q", Lower),
    ("shard.plane.io_bytes_per_step", "B", Lower),
    ("shard.plane.wall_ratio_vs_1shard", "x", Lower),
    ("shard.plane.model_latency_ratio_vs_1shard", "x", Lower),
    ("shard.router.shard_of_ns", "ns", Lower),
    ("shard.plane.digest_match", "share", Higher),
    ("bench.failed_frac", "share", Lower),
    ("bench.trace_overhead_frac", "share", Lower),
];

/// The metrics one run reports: exactly the end-to-end list (untraced) or
/// the per-layer list (traced). Setting an undeclared name is a bug in
/// the benchmark and panics at once.
#[derive(Debug, Clone)]
pub struct Metrics {
    traced: bool,
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    pub fn new(traced: bool) -> Self {
        Metrics {
            traced,
            values: BTreeMap::new(),
        }
    }

    fn unit_of(&self, name: &str) -> Option<&'static str> {
        if self.traced {
            PER_LAYER.iter().find(|m| m.0 == name).map(|m| m.1)
        } else {
            END_TO_END.iter().find(|m| m.0 == name).map(|m| m.1)
        }
    }

    /// Records `name`. A name from the other list is ignored, so a
    /// workload can compute both kinds in one pass.
    pub fn set(&mut self, name: &'static str, value: f64) {
        let declared =
            END_TO_END.iter().any(|m| m.0 == name) || PER_LAYER.iter().any(|m| m.0 == name);
        assert!(declared, "metric {name} is not declared in spec.rs");
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        if self.unit_of(name).is_some() {
            self.values.insert(name, value);
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Every declared metric of this run's list with its unit; a per-layer
    /// metric the workload never set reads 0 (its layer is off the path).
    /// An end-to-end metric must have been set.
    pub fn complete(&self) -> Vec<(&'static str, f64, &'static str)> {
        if self.traced {
            PER_LAYER
                .iter()
                .map(|&(name, unit, _)| (name, self.get(name).unwrap_or(0.0), unit))
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|&(name, unit, _, _)| {
                    let v = self
                        .get(name)
                        .unwrap_or_else(|| panic!("end-to-end metric {name} was not measured"));
                    (name, v, unit)
                })
                .collect()
        }
    }
}

/// What went wrong in a run, one message each. An *error* is an operation
/// that returned `Err` (engine, serve, ingress); a *violation* is an output
/// check that failed. Both count as failed operations; only a violation
/// makes the run incorrect.
#[derive(Debug, Clone, Default)]
pub struct Problems {
    pub errors: Vec<String>,
    pub violations: Vec<String>,
}

impl Problems {
    /// Takes over `other`'s messages, each prefixed with where it arose.
    pub fn absorb(&mut self, other: Problems, context: &str) {
        let tag = |m: String| {
            if context.is_empty() {
                m
            } else {
                format!("{context}: {m}")
            }
        };
        self.errors.extend(other.errors.into_iter().map(tag));
        self.violations
            .extend(other.violations.into_iter().map(tag));
    }

    /// Records the violations of an audit report.
    pub fn audit(&mut self, report: &noswalker_core::AuditReport) {
        for v in &report.violations {
            self.violations.push(format!("[{}] {}", v.law, v.detail));
        }
    }
}

/// `{name: {value, unit}}`, the shape of `metrics` in the result line.
pub fn metrics_json(list: Vec<(&'static str, f64, &'static str)>) -> Value {
    obj(list.into_iter().map(|(name, v, unit)| {
        (
            name,
            obj([("value", Value::Num(v)), ("unit", Value::Str(unit.into()))]),
        )
    }))
}

/// One workload run's result: the line the driver reads, plus what the
/// results file keeps.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Printed and kept in the results file, not declared: sample counts,
    /// p99, `failed_frac` and the like.
    pub info: Vec<(&'static str, f64, &'static str)>,
    /// One message per failed operation or violated check.
    pub failures: Vec<String>,
}

impl Outcome {
    pub fn new(
        metrics: Metrics,
        attempted: u64,
        problems: Problems,
        info: Vec<(&'static str, f64, &'static str)>,
    ) -> Self {
        Outcome {
            correct: problems.violations.is_empty(),
            attempted,
            failed: (problems.errors.len() + problems.violations.len()) as u64,
            metrics,
            info,
            failures: [problems.errors, problems.violations].concat(),
        }
    }

    /// The last line of standard output: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self) -> Value {
        obj([
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", metrics_json(self.metrics.complete())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use std::collections::BTreeSet;

    fn names(v: &Value, key: &str) -> Vec<String> {
        v.get(key)
            .and_then(Value::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no array {key}"))
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Value::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect()
    }

    /// What a run emits is `Metrics::complete`, which iterates the lists
    /// above; so the lists equal to `BENCHMARK.json` means every declared
    /// metric and workload is emitted and nothing else is.
    #[test]
    fn benchmark_json_declares_exactly_what_the_benchmark_emits() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");

        let declared: Vec<String> = names(&doc, "workloads");
        let ours: Vec<String> = WORKLOADS.iter().map(|w| w.0.to_string()).collect();
        assert_eq!(declared, ours, "workloads");
        for (w, (_, why)) in doc
            .get("workloads")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .zip(WORKLOADS)
        {
            assert_eq!(w.get("why").and_then(Value::as_str), Some(*why));
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "why is one short line"
            );
        }

        let e2e = doc
            .get("end_to_end")
            .and_then(Value::as_arr)
            .expect("end_to_end");
        assert_eq!(
            names(&doc, "end_to_end"),
            END_TO_END.iter().map(|m| m.0).collect::<Vec<_>>()
        );
        for (d, &(name, unit, better, bound)) in e2e.iter().zip(END_TO_END) {
            assert_eq!(d.get("unit").and_then(Value::as_str), Some(unit), "{name}");
            assert_eq!(
                d.get("better").and_then(Value::as_str),
                Some(better.as_str()),
                "{name}"
            );
            assert_eq!(
                d.get("bound").and_then(Value::as_f64),
                Some(bound),
                "{name}"
            );
            assert!(
                bound > 0.0 && bound <= 0.25,
                "{name}: bound within the contract"
            );
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.0 == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.1, setup.2), ("s", Lower));
        assert!(
            END_TO_END.iter().all(|m| m.3 <= setup.3),
            "setup_s has the largest bound"
        );

        let layers = doc
            .get("per_layer")
            .and_then(Value::as_arr)
            .expect("per_layer");
        assert_eq!(
            names(&doc, "per_layer"),
            PER_LAYER.iter().map(|m| m.0).collect::<Vec<_>>()
        );
        for (d, &(name, unit, better)) in layers.iter().zip(PER_LAYER) {
            assert_eq!(d.get("unit").and_then(Value::as_str), Some(unit), "{name}");
            assert_eq!(
                d.get("better").and_then(Value::as_str),
                Some(better.as_str()),
                "{name}"
            );
        }

        assert_eq!(
            doc.get("run_seconds").and_then(Value::as_f64),
            Some(DEFAULT_SECONDS)
        );
        assert_eq!(
            doc.get("paths").and_then(Value::as_arr).map(<[Value]>::len),
            Some(1)
        );

        let mut seen = BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.0)
            .chain(END_TO_END.iter().map(|m| m.0))
            .chain(PER_LAYER.iter().map(|m| m.0))
        {
            assert!(seen.insert(name), "{name} is used twice");
            assert!(
                name.len() <= 64
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
    }

    #[test]
    fn an_emitted_result_carries_exactly_the_declared_metrics() {
        let mut m = Metrics::new(false);
        for (i, &(name, ..)) in END_TO_END.iter().enumerate() {
            m.set(name, 1.0 + i as f64);
        }
        m.set("bench.failed_frac", 0.5); // per-layer name: ignored untraced
        let out = Outcome::new(m, 3, Problems::default(), Vec::new());
        assert!(out.correct && out.failed == 0);
        let mut bad = Problems::default();
        bad.errors.push("budget exceeded".into());
        let failed = Outcome::new(Metrics::new(true), 3, bad.clone(), Vec::new());
        assert!(
            failed.correct && failed.failed == 1,
            "an Err is counted, not a wrong output"
        );
        bad.violations.push("walker lost".into());
        let wrong = Outcome::new(Metrics::new(true), 3, bad, Vec::new());
        assert!(!wrong.correct && wrong.failed == 2 && wrong.failures.len() == 2);
        let line = json::parse(&out.result_line().render()).unwrap();
        let keys: Vec<&str> = line
            .members()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let emitted: Vec<&str> = line
            .get("metrics")
            .and_then(Value::members)
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(emitted, END_TO_END.iter().map(|m| m.0).collect::<Vec<_>>());

        let traced = Metrics::new(true).complete();
        assert_eq!(traced.len(), PER_LAYER.len());
        assert!(traced.iter().all(|&(_, v, _)| v == 0.0));
    }
}
