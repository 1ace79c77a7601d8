//! `serve-shard`: a four-shard plane run in lockstep on the modeled clock.
//! Latency and goodput are modeled and repeat exactly for a seed; what
//! the host pays shows in `wall_qps`.

use crate::engines::{self, ratio};
use crate::inputs::{self, Rng};
use crate::probes;
use crate::serve::{self, budget_bytes, is_good, kernel_layers, kernel_rounds, serve_options};
use crate::spans::Tracer;
use crate::spec::{Metrics, Outcome, Problems};
use crate::stats::{median, percentile, sorted, supported_tail};
use crate::Args;
use noswalker_core::{audit_handoffs, audit_queries, QuerySpec, StaticQuerySource};
use noswalker_graph::{Csr, VertexId};
use noswalker_serve::QueryOutcome;
use noswalker_shard::{ShardPlane, ShardReport, ShardRouter};
use noswalker_storage::{per_shard_devices, Device, SsdProfile};
use std::hint::black_box;
use std::sync::Arc;

const SHARDS: usize = 4;
/// Modeled arrival rate and deadline.
const RATE_QPS: f64 = 250.0;
const DEADLINE_NS: u64 = 60_000_000;
/// Queries offered per second of `--seconds`: a lockstep run cannot be cut
/// short, so the work is fixed by the arguments (at the seed commit a
/// query costs the host ~23 ms, which makes this about 0.85 of the time).
const QUERIES_PER_SECOND: f64 = 36.0;
/// Queries the traced run replays on a single shard.
const REPLAY_QUERIES: usize = 150;

struct Plane {
    plane: ShardPlane,
    devices: Vec<Arc<dyn Device>>,
}

fn build(csr: &Csr, shards: usize, seed: u64) -> Result<Plane, String> {
    let devices = per_shard_devices(shards, 1, SsdProfile::nvme_p4618(), 64 << 10);
    let budget = (csr.edge_region_bytes() as f64 * serve::SERVE_BUDGET_FRAC) as u64;
    ShardPlane::build(
        csr,
        devices.clone(),
        budget,
        inputs::block_bytes(csr),
        serve_options(seed),
    )
    .map(|plane| Plane { plane, devices })
    .map_err(|e| format!("plane build: {e}"))
}

/// One lockstep run of the plane over a trace.
struct PlaneRun {
    report: Option<ShardReport>,
    offered: u64,
    wall_ns: u64,
    device_bytes: u64,
    device_ops: u64,
    problems: Problems,
}

impl PlaneRun {
    fn outcomes(&self) -> &[QueryOutcome] {
        self.report.as_ref().map_or(&[], |r| &r.report.outcomes)
    }

    /// Modeled latency of every good answer, ascending, in ms.
    fn good_latencies_ms(&self) -> Vec<f64> {
        sorted(
            &self
                .outcomes()
                .iter()
                .filter(|o| is_good(o))
                .filter_map(|o| o.latency_ns)
                .map(|ns| ns as f64 / 1e6)
                .collect::<Vec<_>>(),
        )
    }

    fn wall_qps(&self) -> f64 {
        self.offered as f64 / (self.wall_ns as f64 / 1e9).max(f64::MIN_POSITIVE)
    }
}

fn run_plane(p: &Plane, trace: &[QuerySpec], tracer: &mut Tracer) -> PlaneRun {
    let before: Vec<_> = p.devices.iter().map(|d| d.stats()).collect();
    let mut source = StaticQuerySource::new(trace.to_vec());
    let (res, wall_ns) = tracer.time("shard.plane.run", None, 0, 0, || {
        p.plane.run(&mut source, None)
    });
    let mut run = PlaneRun {
        report: None,
        offered: trace.len() as u64,
        wall_ns,
        device_bytes: 0,
        device_ops: 0,
        problems: Problems::default(),
    };
    for (d, b) in p.devices.iter().zip(&before) {
        let io = d.stats().since(b);
        run.device_bytes += io.read_bytes;
        run.device_ops += io.read_ops;
    }
    match res {
        Err(e) => run.problems.errors.push(format!("plane run: {e}")),
        Ok(report) => {
            // Output checks: handoff conservation, per-query conservation,
            // exactly one outcome per offered query.
            run.problems.audit(&audit_handoffs(
                report.walkers_emigrated,
                report.walkers_immigrated,
                0,
            ));
            run.problems
                .audit(&audit_queries(&report.report.query_stats()));
            let mut ids: Vec<u64> = report.report.outcomes.iter().map(|o| o.id).collect();
            ids.sort_unstable();
            if !ids.iter().copied().eq(trace.iter().map(|q| q.id)) {
                run.problems.violations.push(format!(
                    "{} outcomes for {} offered queries, or ids differ",
                    ids.len(),
                    trace.len()
                ));
            }
            run.report = Some(report);
        }
    }
    run
}

pub fn run(args: &Args) -> (Outcome, Tracer) {
    let mut tracer = Tracer::new(args.trace);
    let mut out = Metrics::new(args.trace);

    // Set-up: generate the graph and build the plane.
    let (csr, plane) = crate::set_up(
        args,
        &mut tracer,
        &mut out,
        |tracer, span, out| {
            let (csr, gen_ns) = tracer.time("graph.rmat", span, 0, 0, || {
                inputs::graph(serve::SERVE_SCALE)
            });
            let (plane, build_ns) = tracer.time("shard.plane.build", span, 0, 0, || {
                build(&csr, SHARDS, args.seed)
            });
            out.set("graph.rmat_gen_s", gen_ns as f64 / 1e9);
            out.set("shard.plane.build_s", build_ns as f64 / 1e9);
            (csr, plane.unwrap_or_else(|e| crate::fatal(&e)))
        },
        drop,
    );

    // Inputs: MIX4 queries on a modeled Poisson schedule. The traced run
    // offers half the queries twice, untraced and traced.
    let n = ((QUERIES_PER_SECOND * args.seconds) as usize / if args.trace { 2 } else { 1 }).max(40);
    let due = inputs::poisson_schedule(args.seed, n, (n as f64 / RATE_QPS * 1e9) as u64);
    let trace: Vec<QuerySpec> = inputs::mix4(args.seed, n, &csr)
        .into_iter()
        .zip(&due)
        .map(|(q, &t)| QuerySpec {
            arrival_ns: t,
            deadline_ns: Some(t + DEADLINE_NS),
            ..q
        })
        .collect();

    // Engine section: both step kernels on this workload's rounds, over
    // the unsharded graph at the plane's whole budget.
    let (whole, store_ns) =
        tracer.time("core.disk_graph.store", None, 0, 0, || inputs::store(&csr));
    let whole = whole.unwrap_or_else(|e| crate::fatal(&e));
    out.set("core.disk_graph.store_s", store_ns as f64 / 1e9);
    let opts = serve_options(args.seed);
    let kernels = kernel_rounds(
        &whole.graph,
        budget_bytes(&whole.graph),
        &trace,
        opts.seed,
        serve::KERNEL_ROUNDS,
        &mut tracer,
    );
    engines::end_to_end(&mut out, &kernels.seq.totals, &kernels.par.totals);

    let mut problems = kernels.problems;
    let (mut r, overhead) = if args.trace {
        let plain = run_plane(&plane, &trace, &mut Tracer::new(false));
        let traced = run_plane(&plane, &trace, &mut tracer);
        let overhead = 1.0 - traced.wall_qps() / plain.wall_qps().max(f64::MIN_POSITIVE);
        problems.absorb(plain.problems, "untraced run");
        (traced, overhead)
    } else {
        (run_plane(&plane, &trace, &mut tracer), 0.0)
    };
    problems.absorb(std::mem::take(&mut r.problems), "");

    let lat = r.good_latencies_ms();
    let end_s = r
        .report
        .as_ref()
        .map_or(0.0, |x| x.report.end_ns as f64 / 1e9);
    out.set(
        "goodput_qps",
        lat.len() as f64 / end_s.max(f64::MIN_POSITIVE),
    );
    out.set("latency_p50_ms", percentile(&lat, 50.0));
    out.set("latency_p95_ms", percentile(&lat, 95.0));
    out.set("wall_qps", r.wall_qps());
    out.set("peak_rss_mb", crate::peak_rss_mb());

    let failed_frac = 1.0 - lat.len() as f64 / r.offered.max(1) as f64;
    if args.trace {
        engines::layers(&mut out, &kernels.seq.totals, &kernels.par.totals);
        kernel_layers(
            &kernels.seq,
            &kernels.par,
            &whole.graph,
            budget_bytes(&whole.graph),
            opts.seed,
            &mut tracer,
            &mut out,
        );
        out.set("storage.bytes_read", ratio(r.device_bytes, r.offered));
        out.set("storage.read_ops", ratio(r.device_ops, r.offered));
        out.set("bench.failed_frac", failed_frac);
        out.set("bench.trace_overhead_frac", overhead);
        if let Some(rep) = &r.report {
            let m = &rep.report.metrics;
            out.set(
                "shard.plane.rounds_per_query",
                ratio(rep.report.rounds, r.offered),
            );
            out.set(
                "shard.plane.hops_per_query",
                ratio(rep.walkers_emigrated, r.offered),
            );
            out.set(
                "shard.plane.io_bytes_per_step",
                ratio(m.edge_bytes_loaded, m.steps),
            );
        }
        probes::common(&csr, &whole.graph, args.seed, &mut tracer, &mut out);
        probes::fixed_costs(
            &whole.graph,
            budget_bytes(&whole.graph),
            &mut tracer,
            &mut out,
        );

        // The head of the trace again on one shard: what the plane buys in
        // modeled latency and costs in host time, and whether sharding
        // changed any answer.
        let head = &trace[..REPLAY_QUERIES.min(trace.len())];
        match build(&csr, 1, args.seed) {
            Err(e) => problems.errors.push(e),
            Ok(single) => {
                let mut one = run_plane(&single, head, &mut tracer);
                problems.absorb(std::mem::take(&mut one.problems), "1-shard replay");
                out.set(
                    "shard.plane.wall_ratio_vs_1shard",
                    one.wall_qps() / r.wall_qps().max(f64::MIN_POSITIVE),
                );
                let served_ms = |run: &PlaneRun| {
                    median(
                        &run.outcomes()
                            .iter()
                            .filter_map(|o| o.latency_ns)
                            .map(|ns| ns as f64 / 1e6)
                            .collect::<Vec<_>>(),
                    )
                };
                out.set(
                    "shard.plane.model_latency_ratio_vs_1shard",
                    served_ms(&r) / served_ms(&one).max(f64::MIN_POSITIVE),
                );
                // Digests must agree for every query complete in both runs.
                let complete = |o: &&QueryOutcome| !o.shed && !o.degraded;
                let (mut both, mut same) = (0u64, 0u64);
                for a in one.outcomes().iter().filter(complete) {
                    if let Some(b) = r.outcomes().iter().filter(complete).find(|b| b.id == a.id) {
                        both += 1;
                        same += u64::from(a.digest == b.digest);
                    }
                }
                out.set(
                    "shard.plane.digest_match",
                    if both == 0 {
                        1.0
                    } else {
                        same as f64 / both as f64
                    },
                );
                if same != both {
                    problems.violations.push(format!(
                        "digests differ between 4 shards and 1 for {} of {both} queries",
                        both - same
                    ));
                }
            }
        }
        let ranges: Vec<_> = (0..plane.plane.num_shards())
            .map(|s| plane.plane.owned_range(s))
            .collect();
        let router = ShardRouter::new(&ranges);
        let mut rng = Rng::new(args.seed, "router");
        let vs: Vec<VertexId> = (0..1 << 16)
            .map(|_| rng.below(csr.num_vertices() as u64) as VertexId)
            .collect();
        const PASSES: u64 = 16;
        let ((), ns) = tracer.time("shard.router.shard_of", None, 0, 0, || {
            for _ in 0..PASSES {
                for &v in &vs {
                    black_box(router.shard_of(v));
                }
            }
        });
        out.set(
            "shard.router.shard_of_ns",
            ratio(ns, PASSES * vs.len() as u64),
        );
    }

    let mut info = vec![
        ("queries_offered", r.offered as f64, "count"),
        ("latency_samples", lat.len() as f64, "count"),
        ("failed_frac", failed_frac, "share"),
        ("latency_p99_ms", percentile(&lat, 99.0), "ms"),
        (
            "host_ms_per_query",
            r.wall_ns as f64 / 1e6 / r.offered.max(1) as f64,
            "ms",
        ),
    ];
    if let Some(p) = supported_tail(lat.len()) {
        info.push(("latency_tail_percentile", p, "%"));
    }
    (Outcome::new(out, r.offered, problems, info), tracer)
}
