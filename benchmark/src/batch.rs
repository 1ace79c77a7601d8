//! The three batch workloads: `BasicRw` jobs run closed-loop, one at a
//! time, on the sequential engine and on the parallel runner, each on a
//! fresh simulated device and memory budget.

use crate::engines::{self, ratio, EngineTotals, PAR_WORKERS};
use crate::inputs::{self, Rng};
use crate::probes;
use crate::spans::Tracer;
use crate::spec::{Metrics, Outcome, Problems};
use crate::stats::{median, percentile, sorted};
use crate::Args;
use noswalker_apps::BasicRw;
use noswalker_core::audit::RunAudit;
use noswalker_core::parallel::ParallelRunner;
use noswalker_core::{EngineOptions, NosWalkerEngine, OnDiskGraph, RunMetrics};
use noswalker_graph::Csr;
use noswalker_storage::{Device, MemoryBudget};
use std::sync::Arc;
use std::time::Instant;

/// Shape of one batch workload. Every job is `walkers` walkers of
/// `length` steps; a repetition runs `jobs_per_rep` jobs back to back on
/// each engine.
#[derive(Debug, Clone, Copy)]
pub struct BatchSpec {
    pub scale: u32,
    /// Memory budget as a share of the edge region.
    pub budget_frac: f64,
    pub walkers: u64,
    pub length: u32,
    pub jobs_per_rep: u64,
}

pub fn spec_for(workload: &str) -> Option<BatchSpec> {
    // 25 % and not 12 %: at 12 % the parallel runner sometimes returns
    // `BudgetExceeded` (README, "Known findings"), which would make the
    // failure count flaky.
    let base = BatchSpec {
        scale: 18,
        budget_frac: 0.25,
        walkers: 500_000,
        length: 10,
        jobs_per_rep: 1,
    };
    match workload {
        "batch-ooc" => Some(base),
        "batch-inmem" => Some(BatchSpec {
            budget_frac: 2.0,
            ..base
        }),
        "batch-sparse" => Some(BatchSpec {
            walkers: 2_000,
            length: 80,
            jobs_per_rep: 4,
            ..base
        }),
        _ => None,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Engine {
    Seq,
    Par,
}

/// One measured phase.
#[derive(Debug, Default)]
struct Phase {
    seq: EngineTotals,
    par: EngineTotals,
    /// Modeled time of each fully good repetition (both engines), ms.
    rep_model_ms: Vec<f64>,
    /// Wall seconds inside the engines of each repetition, good or not.
    rep_wall_s: Vec<f64>,
    device_bytes: u64,
    device_ops: u64,
    problems: Problems,
}

impl Phase {
    fn totals(&mut self, engine: Engine) -> &mut EngineTotals {
        match engine {
            Engine::Seq => &mut self.seq,
            Engine::Par => &mut self.par,
        }
    }
    fn jobs(&self) -> u64 {
        self.seq.runs + self.par.runs
    }
    fn ok(&self) -> u64 {
        self.seq.ok + self.par.ok
    }
    fn failed_frac(&self) -> f64 {
        (self.jobs() - self.ok()) as f64 / self.jobs().max(1) as f64
    }
}

fn budget_bytes(graph: &OnDiskGraph, frac: f64) -> u64 {
    (graph.edge_region_bytes() as f64 * frac) as u64
}

/// Runs one job and checks it: `RunAudit` clean and every walker
/// finished. A failed job leaves its message in `problems` and yields
/// nothing.
fn run_job(
    engine: Engine,
    graph: &Arc<OnDiskGraph>,
    budget: &Arc<MemoryBudget>,
    spec: &BatchSpec,
    job_seed: u64,
    workers: usize,
    problems: &mut Problems,
) -> Option<RunMetrics> {
    let app = Arc::new(BasicRw::new(
        spec.walkers,
        spec.length,
        graph.num_vertices(),
    ));
    let audit = RunAudit::begin(spec.walkers, budget);
    let opts = EngineOptions::default();
    let res = match engine {
        Engine::Seq => {
            NosWalkerEngine::new(app, Arc::clone(graph), opts, Arc::clone(budget)).run(job_seed)
        }
        Engine::Par => ParallelRunner::new(app, Arc::clone(graph), opts, Arc::clone(budget))
            .run(job_seed, workers),
    };
    let m = match res {
        Ok(m) => m,
        Err(e) => {
            problems.errors.push(e.to_string());
            return None;
        }
    };
    let before = problems.violations.len();
    problems.audit(&audit.verify(&m, budget));
    if m.walkers_finished != spec.walkers {
        problems.violations.push(format!(
            "{} of {} walkers finished",
            m.walkers_finished, spec.walkers
        ));
    }
    (problems.violations.len() == before).then_some(m)
}

/// Repeats (sequential jobs, then parallel jobs) until another repetition
/// would overrun `seconds`.
fn measure(spec: &BatchSpec, csr: &Csr, seed: u64, seconds: f64, tracer: &mut Tracer) -> Phase {
    let mut phase = Phase::default();
    let base_seed = Rng::new(seed, "jobs").next_u64();
    let start = Instant::now();
    let mut rep = 0u32;
    loop {
        let rep_start = Instant::now();
        let rep_span = tracer.begin("bench.rep", None, rep, 0);
        let (mut rep_model_ns, mut rep_wall_ns) = (0u64, 0u64);
        let mut rep_problems = Problems::default();
        for (engine, span_name) in [
            (Engine::Seq, "core.engine.run"),
            (Engine::Par, "core.parallel.run"),
        ] {
            let inputs::Stored { device, graph } = match inputs::store(csr) {
                Ok(g) => g,
                Err(e) => {
                    rep_problems.errors.push(e);
                    continue;
                }
            };
            let before = device.stats();
            let budget = MemoryBudget::new(budget_bytes(&graph, spec.budget_frac));
            let (mut steps, mut wall) = (0u64, 0u64);
            for j in 0..spec.jobs_per_rep {
                let job_seed = base_seed.wrapping_add(u64::from(rep) * spec.jobs_per_rep + j);
                let (done, ns) = tracer.time(span_name, rep_span, rep, j, || {
                    run_job(
                        engine,
                        &graph,
                        &budget,
                        spec,
                        job_seed,
                        PAR_WORKERS,
                        &mut rep_problems,
                    )
                });
                rep_wall_ns += ns;
                let totals = phase.totals(engine);
                totals.runs += 1;
                if let Some(m) = done {
                    totals.ok += 1;
                    totals.add(&m, ns);
                    steps += m.steps;
                    wall += ns;
                    rep_model_ns += m.sim_ns;
                }
            }
            let totals = phase.totals(engine);
            totals.close_rep(steps, wall);
            totals.budget_peak_frac = totals
                .budget_peak_frac
                .max(budget.peak() as f64 / budget.limit().max(1) as f64);
            let io = device.stats().since(&before);
            phase.device_bytes += io.read_bytes;
            phase.device_ops += io.read_ops;
        }
        tracer.end(rep_span);
        phase.rep_wall_s.push(rep_wall_ns as f64 / 1e9);
        if rep_problems.errors.is_empty() && rep_problems.violations.is_empty() {
            phase.rep_model_ms.push(rep_model_ns as f64 / 1e6);
        }
        phase.problems.absorb(rep_problems, &format!("rep {rep}"));
        rep += 1;
        let rep_s = rep_start.elapsed().as_secs_f64();
        if start.elapsed().as_secs_f64() + rep_s > seconds {
            return phase;
        }
    }
}

/// `(max − min) ÷ median` of a run's per-repetition rates: how unsteady
/// the host was while this run measured.
fn rep_range(rates: &[f64]) -> f64 {
    let s = sorted(rates);
    match (s.first(), s.last()) {
        (Some(lo), Some(hi)) => (hi - lo) / median(rates).max(f64::MIN_POSITIVE),
        _ => 0.0,
    }
}

pub fn run(spec: &BatchSpec, args: &Args) -> (Outcome, Tracer) {
    let mut tracer = Tracer::new(args.trace);
    let mut out = Metrics::new(args.trace);

    // Set-up: generate the graph and store it.
    let (csr, graph) = crate::set_up(
        args,
        &mut tracer,
        &mut out,
        |tracer, span, out| {
            let (csr, gen_ns) = tracer.time("graph.rmat", span, 0, 0, || inputs::graph(spec.scale));
            let (stored, store_ns) =
                tracer.time("core.disk_graph.store", span, 0, 0, || inputs::store(&csr));
            out.set("graph.rmat_gen_s", gen_ns as f64 / 1e9);
            out.set("core.disk_graph.store_s", store_ns as f64 / 1e9);
            (csr, stored.unwrap_or_else(|e| crate::fatal(&e)).graph)
        },
        drop,
    );

    let (mut phase, overhead) = if args.trace {
        // Half the time untraced, half traced: the difference in the
        // headline (sequential wall throughput) is what tracing costs.
        let mut off = Tracer::new(false);
        let plain = measure(spec, &csr, args.seed, args.seconds / 2.0, &mut off);
        let mut traced = measure(spec, &csr, args.seed, args.seconds / 2.0, &mut tracer);
        let overhead =
            1.0 - traced.seq.wall_msteps_s() / plain.seq.wall_msteps_s().max(f64::MIN_POSITIVE);
        traced.problems.absorb(plain.problems, "untraced half");
        (traced, overhead)
    } else {
        (
            measure(spec, &csr, args.seed, args.seconds, &mut tracer),
            0.0,
        )
    };

    engines::end_to_end(&mut out, &phase.seq, &phase.par);
    let jobs = phase.jobs();
    let model_s = (phase.seq.merged.sim_ns + phase.par.merged.sim_ns) as f64 / 1e9;
    let reps = sorted(&phase.rep_model_ms);
    // The service clock of a batch job is the modeled one: jobs per
    // modeled second, and the modeled time of one repetition (the job on
    // each engine in turn) as its latency.
    out.set(
        "goodput_qps",
        phase.ok() as f64 / model_s.max(f64::MIN_POSITIVE),
    );
    out.set("latency_p50_ms", percentile(&reps, 50.0));
    out.set("latency_p95_ms", percentile(&reps, 95.0));
    out.set(
        "wall_qps",
        (2 * spec.jobs_per_rep) as f64 / median(&phase.rep_wall_s).max(f64::MIN_POSITIVE),
    );
    out.set("peak_rss_mb", crate::peak_rss_mb());

    if args.trace {
        engines::layers(&mut out, &phase.seq, &phase.par);
        out.set("storage.bytes_read", ratio(phase.device_bytes, jobs));
        out.set("storage.read_ops", ratio(phase.device_ops, jobs));
        out.set("bench.failed_frac", phase.failed_frac());
        out.set("bench.trace_overhead_frac", overhead);
        probes::common(&csr, &graph, args.seed, &mut tracer, &mut out);
        let bytes = budget_bytes(&graph, spec.budget_frac);
        probes::fixed_costs(&graph, bytes, &mut tracer, &mut out);
        // One more parallel job with a single worker, against the
        // two-worker repetitions.
        let budget = MemoryBudget::new(bytes);
        let seed1 = Rng::new(args.seed, "jobs").next_u64();
        let mut probe = Problems::default();
        let (done, ns) = tracer.time("core.parallel.run_1w", None, 0, 0, || {
            run_job(Engine::Par, &graph, &budget, spec, seed1, 1, &mut probe)
        });
        if let Some(m) = done {
            out.set(
                "core.parallel.speedup_2w_vs_1w",
                median(&phase.par.rep_rates) / (m.steps as f64 / ns.max(1) as f64),
            );
        }
        phase.problems.absorb(probe, "1-worker probe");
    }

    let info = vec![
        ("repetitions", phase.rep_wall_s.len() as f64, "count"),
        ("jobs", jobs as f64, "count"),
        (
            "steps_per_job",
            ratio(phase.seq.merged.steps, phase.seq.ok),
            "count",
        ),
        ("failed_frac", phase.failed_frac(), "share"),
        ("seq_rep_range", rep_range(&phase.seq.rep_rates), "share"),
        ("par_rep_range", rep_range(&phase.par.rep_rates), "share"),
    ];
    (Outcome::new(out, jobs, phase.problems, info), tracer)
}
