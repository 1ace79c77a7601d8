//! The two realtime workloads: a `RealtimeServer` under the wall clock,
//! driven open-loop by one generator thread on a seeded Poisson schedule.
//! Every query is timed from the instant it was due, not from when it was
//! sent, so a stalled generator or server shows up as latency.

use crate::engines::{self, ratio, EngineTotals, PAR_WORKERS};
use crate::inputs::{self, Rng};
use crate::probes;
use crate::spans::Tracer;
use crate::spec::{Metrics, Outcome, Problems};
use crate::stats::{median, percentile, sorted, supported_tail};
use crate::Args;
use noswalker_core::audit::{RunAudit, Trace};
use noswalker_core::{
    audit_queries, EngineOptions, ModelClock, OnDiskGraph, ParallelKernel, QuerySpec,
    SequentialKernel, StaticQuerySource, StepKernel, TickClock,
};
use noswalker_serve::{
    query_stream_seed, Admission, AdmissionController, AdmissionOptions, Backend, LaneConfig,
    QueryClass, QueryOutcome, QueryTable, RealtimeHandle, RealtimeOptions, RealtimeServer,
    RoundApp, ServeOptions, SingleLane, Tick, TickCore, TickReport,
};
use noswalker_storage::{Device, MemoryBudget, SimSsd};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Graph scale of the serve workloads (65,536 vertices, 8.4 MB of edges).
pub const SERVE_SCALE: u32 = 16;
/// Memory budget of a server as a share of the edge region.
pub const SERVE_BUDGET_FRAC: f64 = 0.25;
/// Kernel rounds run on each backend before the open loop starts: ten
/// passes over the four query classes.
pub const KERNEL_ROUNDS: usize = 40;
/// The generator polls for outcomes at least this often.
const POLL: Duration = Duration::from_micros(250);
/// Part of `--seconds` kept back for the kernel rounds and the drain.
const RESERVE_S: f64 = 2.0;

#[derive(Debug, Clone, Copy)]
pub struct ServeSpec {
    pub rate_qps: f64,
    pub deadline_ms: u64,
}

pub fn spec_for(workload: &str) -> Option<ServeSpec> {
    match workload {
        // About half of the seed commit's capacity (~118 q/s).
        "serve-steady" => Some(ServeSpec {
            rate_qps: 60.0,
            deadline_ms: 250,
        }),
        // Twice capacity. 2 s and not tighter: shorter deadlines sit on a
        // cliff at the seed commit (README, "Known findings").
        "serve-overload" => Some(ServeSpec {
            rate_qps: 240.0,
            deadline_ms: 2_000,
        }),
        _ => None,
    }
}

/// The serving options of every serve workload: sequential backend,
/// default admission (`max_pending` 64), seeded.
pub fn serve_options(seed: u64) -> ServeOptions {
    ServeOptions {
        seed: Rng::new(seed, "serve").next_u64(),
        backend: Backend::Seq,
        par_workers: PAR_WORKERS,
        ..ServeOptions::default()
    }
}

pub fn budget_bytes(graph: &OnDiskGraph) -> u64 {
    (graph.edge_region_bytes() as f64 * SERVE_BUDGET_FRAC) as u64
}

fn start_server(graph: &Arc<OnDiskGraph>, seed: u64) -> (RealtimeHandle, Instant) {
    let server = RealtimeServer::single(
        Arc::clone(graph),
        MemoryBudget::new(budget_bytes(graph)),
        serve_options(seed),
        RealtimeOptions::default(),
    );
    // The server's wall clock starts inside `start`; this reading is
    // within microseconds of it and stamps deadlines on that clock.
    let t0 = Instant::now();
    (server.start(), t0)
}

/// What one step kernel did over the kernel rounds.
#[derive(Debug, Default)]
pub struct KernelSide {
    pub totals: EngineTotals,
    pub round_us: Vec<f64>,
    /// Summed `RoundOutcome::advance_ns`, the modeled charge.
    pub advance_ns: u64,
    /// Steps and wall nanoseconds of the repetition still open.
    open: (u64, u64),
}

/// What the kernel rounds of a serve workload measured.
#[derive(Debug, Default)]
pub struct KernelRounds {
    pub seq: KernelSide,
    pub par: KernelSide,
    pub problems: Problems,
}

/// Runs `rounds` query-shaped rounds through each step kernel: round `r`
/// is query `r` of `queries` alone, all its walkers in one chunk, as the
/// server carves an uncontended query. The kernels get the options
/// `TickCore::new` gives its own (all-raw pre-sample retention), so this
/// is the serving path's kernel, not the offline engine's. Four rounds —
/// one of each query class — make one repetition for the wall rate.
pub fn kernel_rounds(
    graph: &Arc<OnDiskGraph>,
    budget_bytes: u64,
    queries: &[QuerySpec],
    serve_seed: u64,
    rounds: usize,
    tracer: &mut Tracer,
) -> KernelRounds {
    let mut k = KernelRounds::default();
    let opts = EngineOptions {
        low_degree_threshold: u32::MAX,
        ..EngineOptions::default()
    };
    let budget = MemoryBudget::new(budget_bytes);
    let seq = SequentialKernel::new(Arc::clone(graph), opts.clone(), Arc::clone(&budget));
    let par = ParallelKernel::new(Arc::clone(graph), opts, Arc::clone(&budget), PAR_WORKERS);
    let nv = graph.num_vertices() as u32;
    for (r, q) in queries.iter().cycle().take(rounds).enumerate() {
        let Some(class) = QueryClass::parse(&q.class) else {
            k.problems
                .errors
                .push(format!("kernel round {r}: bad class {:?}", q.class));
            continue;
        };
        for on_par in [false, true] {
            let table = Arc::new(QueryTable::new(vec![(
                class,
                q.walk_length,
                None,
                query_stream_seed(serve_seed, q.id),
            )]));
            let app = Arc::new(RoundApp::new(
                Arc::clone(&table),
                vec![(0, 0, q.walkers)],
                nv,
            ));
            let audit = RunAudit::begin(q.walkers, &budget);
            let (side, name) = if on_par {
                (&mut k.par, "core.kernel.par_round")
            } else {
                (&mut k.seq, "core.kernel.seq_round")
            };
            let (res, ns) = tracer.time(name, None, r as u32, q.id, || {
                if on_par {
                    StepKernel::run_round(&par, app, r as u64)
                } else {
                    StepKernel::run_round(&seq, app, r as u64)
                }
            });
            side.totals.runs += 1;
            let mut round = Problems::default();
            match res {
                Err(e) => round.errors.push(e.to_string()),
                Ok(o) => {
                    round.audit(&audit.verify(&o.metrics, &budget));
                    if table.completed_walkers(0) != q.walkers {
                        round.violations.push(format!(
                            "{} of {} walkers completed",
                            table.completed_walkers(0),
                            q.walkers
                        ));
                    }
                    if round.violations.is_empty() {
                        side.totals.ok += 1;
                        side.totals.add(&o.metrics, ns);
                        side.open.0 += o.metrics.steps;
                        side.open.1 += ns;
                        side.round_us.push(ns as f64 / 1e3);
                        side.advance_ns += o.advance_ns;
                    }
                }
            }
            k.problems.absorb(round, &format!("{name} {r}"));
        }
        if (r + 1) % 4 == 0 || r + 1 == rounds {
            for side in [&mut k.seq, &mut k.par] {
                let (steps, wall) = std::mem::take(&mut side.open);
                side.totals.close_rep(steps, wall);
            }
        }
    }
    for side in [&mut k.seq, &mut k.par] {
        side.totals.budget_peak_frac = budget.peak() as f64 / budget.limit().max(1) as f64;
    }
    k
}

/// `core.kernel.*` from the kernel rounds plus rounds of a single walker.
pub fn kernel_layers(
    seq: &KernelSide,
    par: &KernelSide,
    graph: &Arc<OnDiskGraph>,
    budget_bytes: u64,
    serve_seed: u64,
    tracer: &mut Tracer,
    out: &mut Metrics,
) {
    out.set("core.kernel.seq_round_us", median(&seq.round_us));
    out.set("core.kernel.par_round_us", median(&par.round_us));
    out.set(
        "core.kernel.seq_advance_ns_per_step",
        ratio(seq.advance_ns, seq.totals.merged.steps),
    );
    out.set(
        "core.kernel.par_advance_ns_per_step",
        ratio(par.advance_ns, par.totals.merged.steps),
    );
    let empty = kernel_rounds(
        graph,
        budget_bytes,
        &[tiny_query(1)],
        serve_seed,
        20,
        tracer,
    );
    out.set(
        "core.kernel.seq_empty_round_us",
        median(&empty.seq.round_us),
    );
    out.set(
        "core.kernel.par_empty_round_us",
        median(&empty.par.round_us),
    );
}

/// One query as the generator saw it.
#[derive(Debug, Clone, Default)]
struct Seen {
    due_ns: u64,
    refused: bool,
    seen_ns: Option<u64>,
    outcome: Option<QueryOutcome>,
    duplicates: u32,
}

/// One open-loop window.
#[derive(Debug, Default)]
struct Window {
    seen: Vec<Seen>,
    /// Last outcome seen minus first due time.
    span_ns: u64,
    received: u64,
    late_max_ns: u64,
    submit_ns: u64,
    submits: u64,
    report: Option<TickReport>,
    device_bytes: u64,
    device_ops: u64,
    problems: Problems,
}

/// What an open-loop window offers: the queries, when each is due, and
/// the deadline each gets, with the device whose reads are counted.
struct Offer<'a> {
    device: &'a SimSsd,
    queries: &'a [QuerySpec],
    due: &'a [u64],
    deadline_ns: u64,
}

/// A good answer: complete, on time, with a latency.
pub fn is_good(o: &QueryOutcome) -> bool {
    !o.shed && !o.degraded && !o.deadline_missed && o.latency_ns.is_some()
}

impl Window {
    fn good(&self) -> impl Iterator<Item = (&Seen, &QueryOutcome)> {
        self.seen
            .iter()
            .filter(|s| s.duplicates == 0)
            .filter_map(|s| s.outcome.as_ref().map(|o| (s, o)))
            .filter(|(_, o)| is_good(o))
    }

    /// Observed latency of every good answer, ascending, in ms.
    fn good_latencies_ms(&self) -> Vec<f64> {
        sorted(
            &self
                .good()
                .map(|(s, _)| (s.seen_ns.unwrap_or(s.due_ns) - s.due_ns) as f64 / 1e6)
                .collect::<Vec<_>>(),
        )
    }

    fn goodput_qps(&self) -> f64 {
        self.good().count() as f64 / (self.span_ns as f64 / 1e9).max(f64::MIN_POSITIVE)
    }
}

/// Offers the queries at their due times, polls for outcomes, and drains
/// the server. `server_t0` is when the server's clock started.
fn open_loop(
    (mut handle, server_t0): (RealtimeHandle, Instant),
    offer: &Offer<'_>,
    tracer: &mut Tracer,
) -> Window {
    let Offer {
        device,
        queries,
        due,
        deadline_ns,
    } = *offer;
    let mut w = Window {
        seen: due
            .iter()
            .map(|&due_ns| Seen {
                due_ns,
                ..Seen::default()
            })
            .collect(),
        ..Window::default()
    };
    let io_before = device.stats();
    let n = queries.len();
    let t0 = Instant::now();
    let offset_ns = t0.duration_since(server_t0).as_nanos() as u64;
    let now_ns = || t0.elapsed().as_nanos() as u64;
    let give_up_ns = due.last().copied().unwrap_or(0) + deadline_ns + 5_000_000_000;
    let (mut next, mut accepted) = (0usize, 0u64);
    loop {
        let now = now_ns();
        while next < n && due[next] <= now {
            let q = QuerySpec {
                deadline_ns: Some(offset_ns + due[next] + deadline_ns),
                ..queries[next].clone()
            };
            let id = q.id;
            w.late_max_ns = w.late_max_ns.max(now_ns() - due[next]);
            let (res, ns) = tracer.time("serve.realtime.submit", None, 0, id, || handle.submit(q));
            w.submit_ns += ns;
            w.submits += 1;
            match res {
                Ok(()) => accepted += 1,
                Err(e) => {
                    w.seen[next].refused = true;
                    w.problems
                        .errors
                        .push(format!("query {id}: refused at submit: {e}"));
                }
            }
            next += 1;
        }
        let (fresh, _) = tracer.time("serve.realtime.take_outcomes", None, 0, 0, || {
            handle.take_outcomes()
        });
        let seen_ns = now_ns();
        for o in fresh {
            w.received += 1;
            w.span_ns = seen_ns.saturating_sub(due[0]);
            match w.seen.get_mut((o.id as usize).wrapping_sub(1)) {
                Some(s) if s.outcome.is_none() => {
                    s.seen_ns = Some(seen_ns);
                    s.outcome = Some(o);
                }
                Some(s) => s.duplicates += 1,
                None => w
                    .problems
                    .violations
                    .push(format!("outcome for unknown query {}", o.id)),
            }
        }
        if next == n && w.received >= accepted {
            break;
        }
        if now > give_up_ns {
            w.problems.violations.push(format!(
                "gave up waiting: {} of {accepted} accepted queries have an outcome",
                w.received
            ));
            break;
        }
        let poll_at = now + POLL.as_nanos() as u64;
        let until = due.get(next).map_or(poll_at, |&d| d.min(poll_at));
        let now = now_ns();
        if until > now {
            std::thread::sleep(Duration::from_nanos(until - now));
        }
    }
    match handle.drain_and_join() {
        Ok(report) => w.report = Some(report),
        Err(e) => w.problems.errors.push(format!("serve: {e}")),
    }
    let io = device.stats().since(&io_before);
    w.device_bytes = io.read_bytes;
    w.device_ops = io.read_ops;

    // Output checks: exactly one outcome per accepted query, and the
    // per-query conservation law on the server's own report.
    for (i, s) in w.seen.iter().enumerate() {
        if s.duplicates > 0 {
            w.problems
                .violations
                .push(format!("query {}: {} outcomes", i + 1, 1 + s.duplicates));
        } else if !s.refused && s.outcome.is_none() {
            w.problems
                .violations
                .push(format!("query {}: no outcome", i + 1));
        }
    }
    if let Some(r) = &w.report {
        w.problems.audit(&audit_queries(&r.report.query_stats()));
        if r.report.outcomes.len() as u64 != accepted {
            w.problems.violations.push(format!(
                "report holds {} outcomes for {accepted} accepted queries",
                r.report.outcomes.len()
            ));
        }
    }
    w
}

/// `serve.admission.offer_ns_per_op`: offers into a controller that is
/// drained whenever it fills, so every offer is an admission.
fn admission_probe(queries: &[QuerySpec], tracer: &mut Tracer, out: &mut Metrics) {
    let mut ctl = AdmissionController::new(AdmissionOptions::default());
    let mut offers = 0u64;
    let ((), ns) = tracer.time("serve.admission.offer", None, 0, 0, || {
        for _ in 0..50 {
            for q in queries.iter().take(64) {
                if ctl.offer(q.clone()) == Admission::Admitted {
                    offers += 1;
                }
            }
            while noswalker_core::QuerySource::next_ready(&mut ctl, u64::MAX, u64::MAX).is_some() {}
        }
    });
    out.set("serve.admission.offer_ns_per_op", ratio(ns, offers));
}

/// `serve.tick.*`: the benchmark drives `TickCore::tick` itself over the
/// head of the workload's trace under the modeled clock, one span per
/// call.
fn tick_probe(
    graph: &Arc<OnDiskGraph>,
    opts: &ServeOptions,
    trace_head: Vec<QuerySpec>,
    tracer: &mut Tracer,
    out: &mut Metrics,
) -> Result<(), String> {
    let lane = || LaneConfig {
        graph: Arc::clone(graph),
        budget: MemoryBudget::new(budget_bytes(graph)),
        owned: 0..graph.num_vertices() as u32,
    };
    let mut idle = TickCore::new(vec![lane()], Box::new(SingleLane), opts.clone());
    let mut clock = ModelClock::new();
    let mut empty = StaticQuerySource::new(Vec::new());
    const IDLE_TICKS: u64 = 1_000;
    let (res, ns) = tracer.time("serve.tick.idle", None, 0, 0, || {
        (0..IDLE_TICKS).try_for_each(|_| {
            idle.tick(&mut clock, &mut empty, &mut Trace::off())
                .map(drop)
        })
    });
    res.map_err(|e| format!("idle tick: {e}"))?;
    out.set("serve.tick.idle_tick_ns", ratio(ns, IDLE_TICKS));

    let queries = trace_head.len() as u64;
    let mut core = TickCore::new(vec![lane()], Box::new(SingleLane), opts.clone());
    let mut clock = ModelClock::new();
    let mut source = StaticQuerySource::new(trace_head);
    let mut round_us = Vec::new();
    loop {
        let (tick, ns) = tracer.time("serve.tick.tick", None, 0, 0, || {
            core.tick(&mut clock, &mut source, &mut Trace::off())
        });
        match tick.map_err(|e| format!("tick: {e}"))? {
            Tick::Ran => round_us.push(ns as f64 / 1e3),
            Tick::Exhausted => break,
            Tick::Idle { next_arrival_ns } => match next_arrival_ns {
                Some(t) if !noswalker_core::QuerySource::is_exhausted(&source) => {
                    clock.advance_idle(t);
                }
                _ => break,
            },
        }
    }
    let end_ns = TickClock::now_ns(&mut clock);
    let report = core.finish(end_ns).report;
    let m = &report.metrics;
    out.set("serve.tick.round_wall_us_p50", median(&round_us));
    out.set("serve.tick.rounds_per_query", ratio(report.rounds, queries));
    out.set(
        "serve.tick.walkers_per_round",
        ratio(m.walkers_finished + m.walkers_cancelled, report.rounds),
    );
    out.set(
        "serve.tick.io_bytes_per_step",
        ratio(m.edge_bytes_loaded, m.steps),
    );
    out.set(
        "serve.tick.steps_on_presample_frac",
        ratio(m.steps_on_presample, m.steps),
    );
    Ok(())
}

/// A query of one walker taking one step: the least work a query can be.
fn tiny_query(id: u64) -> QuerySpec {
    QuerySpec {
        id,
        class: "basic".into(),
        walkers: 1,
        walk_length: 1,
        deadline_ns: None,
        arrival_ns: 0,
    }
}

/// Sends one tiny query and spins on `take_outcomes` until its outcome is
/// back; the round trip in µs. One span for the whole trip: a span per
/// poll would be most of the trace file.
fn round_trip(
    handle: &mut RealtimeHandle,
    ids: &mut std::ops::RangeFrom<u64>,
    tracer: &mut Tracer,
) -> Result<f64, String> {
    let id = ids.next().expect("ids never run out");
    let (res, ns) = tracer.time("serve.realtime.round_trip", None, 0, id, || {
        handle
            .submit_blocking(tiny_query(id))
            .map_err(|e| format!("probe submit: {e}"))?;
        let t = Instant::now();
        while handle.take_outcomes().is_empty() {
            if t.elapsed() > Duration::from_secs(5) {
                return Err(format!("probe query {id}: no outcome within 5 s"));
            }
            std::hint::spin_loop();
        }
        Ok(())
    });
    res.map(|()| ns as f64 / 1e3)
}

/// `serve.realtime.empty_rtt_us`: the round trip of a 1-walker query to
/// an idle server. `take_outcomes_us_at_1k`/`_at_4k`: the same round trip
/// once the server holds 1,000 and 4,000 outcomes. `take_outcomes` sees
/// an outcome only after the server has cloned every outcome so far into
/// its per-tick snapshot, so the growth over the empty round trip is what
/// the cumulative snapshot costs.
fn realtime_probe(
    graph: &Arc<OnDiskGraph>,
    seed: u64,
    tracer: &mut Tracer,
    out: &mut Metrics,
) -> Result<(), String> {
    let (mut handle, _) = start_server(graph, seed);
    let mut ids = 1u64..;
    let mut trips = |handle: &mut RealtimeHandle, ids: &mut std::ops::RangeFrom<u64>, n: usize| {
        let rtts = (0..n)
            .map(|_| round_trip(handle, ids, tracer))
            .collect::<Result<Vec<_>, _>>()?;
        Ok::<f64, String>(median(&rtts))
    };
    out.set(
        "serve.realtime.empty_rtt_us",
        trips(&mut handle, &mut ids, 200)?,
    );
    for (held, name) in [
        (1_000usize, "serve.realtime.take_outcomes_us_at_1k"),
        (4_000, "serve.realtime.take_outcomes_us_at_4k"),
    ] {
        // Sixteen tiny queries per shot: the admission queue holds 64, so
        // none is shed and every one runs.
        let t = Instant::now();
        let mut sent = handle.snapshot().outcomes.len();
        while sent < held {
            for _ in 0..16 {
                handle
                    .submit_blocking(tiny_query(ids.next().expect("ids never run out")))
                    .map_err(|e| format!("probe flood: {e}"))?;
            }
            sent += 16;
            while handle.snapshot().outcomes.len() < sent {
                if t.elapsed() > Duration::from_secs(20) {
                    return Err(format!("probe flood: server never held {held} outcomes"));
                }
                std::hint::spin_loop();
            }
        }
        std::thread::sleep(Duration::from_millis(20));
        handle.take_outcomes();
        out.set(name, trips(&mut handle, &mut ids, 50)?);
    }
    handle
        .drain_and_join()
        .map_err(|e| format!("probe server: {e}"))?;
    Ok(())
}

pub fn run(spec: &ServeSpec, args: &Args) -> (Outcome, Tracer) {
    let mut tracer = Tracer::new(args.trace);
    let mut out = Metrics::new(args.trace);
    let mut problems = Problems::default();

    // Set-up: generate, store, start the server. Only the last server is
    // measured; the earlier ones are shut down.
    let (csr, stored, server) = crate::set_up(
        args,
        &mut tracer,
        &mut out,
        |tracer, span, out| {
            let (csr, gen_ns) =
                tracer.time("graph.rmat", span, 0, 0, || inputs::graph(SERVE_SCALE));
            let (stored, store_ns) =
                tracer.time("core.disk_graph.store", span, 0, 0, || inputs::store(&csr));
            let stored = stored.unwrap_or_else(|e| crate::fatal(&e));
            let (server, _) = tracer.time("serve.realtime.start", span, 0, 0, || {
                start_server(&stored.graph, args.seed)
            });
            out.set("graph.rmat_gen_s", gen_ns as f64 / 1e9);
            out.set("core.disk_graph.store_s", store_ns as f64 / 1e9);
            (csr, stored, server)
        },
        |(_, _, (handle, _))| {
            if let Err(e) = handle.shutdown_and_join() {
                problems.errors.push(format!("set-up server: {e}"));
            }
        },
    );
    let graph = &stored.graph;
    let opts = serve_options(args.seed);

    // Inputs: the arrival schedule and its MIX4 queries. The traced run
    // has two windows, untraced and traced.
    let windows = if args.trace { 2.0 } else { 1.0 };
    let window_s = (args.seconds - RESERVE_S * windows).max(1.0) / windows;
    let due = inputs::poisson_schedule(
        args.seed,
        (spec.rate_qps * window_s) as usize,
        (window_s * 1e9) as u64,
    );
    let queries = inputs::mix4(args.seed, due.len(), &csr);
    let offer = Offer {
        device: &stored.device,
        queries: &queries,
        due: &due,
        deadline_ns: spec.deadline_ms * 1_000_000,
    };

    // Engine section: both step kernels on this workload's rounds.
    let kernels = kernel_rounds(
        graph,
        budget_bytes(graph),
        &queries,
        opts.seed,
        KERNEL_ROUNDS,
        &mut tracer,
    );
    engines::end_to_end(&mut out, &kernels.seq.totals, &kernels.par.totals);

    let (mut w, overhead) = if args.trace {
        let plain = open_loop(server, &offer, &mut Tracer::new(false));
        let traced = open_loop(start_server(graph, args.seed), &offer, &mut tracer);
        let overhead = 1.0 - traced.goodput_qps() / plain.goodput_qps().max(f64::MIN_POSITIVE);
        problems.absorb(plain.problems, "untraced window");
        (traced, overhead)
    } else {
        (open_loop(server, &offer, &mut tracer), 0.0)
    };
    problems.absorb(std::mem::take(&mut w.problems), "");
    problems.absorb(kernels.problems, "");

    let offered = due.len() as u64;
    let lat = w.good_latencies_ms();
    let span_s = (w.span_ns as f64 / 1e9).max(f64::MIN_POSITIVE);
    out.set("goodput_qps", w.goodput_qps());
    out.set("latency_p50_ms", percentile(&lat, 50.0));
    out.set("latency_p95_ms", percentile(&lat, 95.0));
    out.set("wall_qps", w.received as f64 / span_s);
    out.set("peak_rss_mb", crate::peak_rss_mb());

    let shed = w
        .seen
        .iter()
        .filter(|s| s.outcome.as_ref().is_some_and(|o| o.shed))
        .count() as u64;
    let failed_frac = 1.0 - lat.len() as f64 / offered.max(1) as f64;
    if args.trace {
        engines::layers(&mut out, &kernels.seq.totals, &kernels.par.totals);
        kernel_layers(
            &kernels.seq,
            &kernels.par,
            graph,
            budget_bytes(graph),
            opts.seed,
            &mut tracer,
            &mut out,
        );
        out.set("storage.bytes_read", ratio(w.device_bytes, offered));
        out.set("storage.read_ops", ratio(w.device_ops, offered));
        out.set("serve.admission.shed_frac", ratio(shed, offered));
        out.set(
            "serve.realtime.submit_ns_per_op",
            ratio(w.submit_ns, w.submits),
        );
        out.set(
            "serve.realtime.generator_late_ms_max",
            w.late_max_ns as f64 / 1e6,
        );
        let gaps: Vec<f64> = w
            .good()
            .map(|(s, o)| {
                let observed = s.seen_ns.unwrap_or(s.due_ns) - s.due_ns;
                observed.saturating_sub(o.latency_ns.unwrap_or(0)) as f64 / 1e6
            })
            .collect();
        out.set("serve.realtime.ingress_egress_ms_p50", median(&gaps));
        if let Some(r) = &w.report {
            out.set(
                "serve.realtime.rounds_per_s",
                r.report.rounds as f64 / span_s,
            );
        }
        out.set("bench.failed_frac", failed_frac);
        out.set("bench.trace_overhead_frac", overhead);
        probes::common(&csr, graph, args.seed, &mut tracer, &mut out);
        probes::fixed_costs(graph, budget_bytes(graph), &mut tracer, &mut out);
        admission_probe(&queries, &mut tracer, &mut out);
        let head: Vec<QuerySpec> = queries
            .iter()
            .zip(&due)
            .take(100)
            .map(|(q, &t)| QuerySpec {
                arrival_ns: t,
                deadline_ns: Some(t + offer.deadline_ns),
                ..q.clone()
            })
            .collect();
        let probed = tick_probe(graph, &opts, head, &mut tracer, &mut out)
            .and_then(|()| realtime_probe(graph, args.seed, &mut tracer, &mut out));
        problems.errors.extend(probed.err());
    }

    let mut info = vec![
        ("queries_offered", offered as f64, "count"),
        ("latency_samples", lat.len() as f64, "count"),
        ("shed", shed as f64, "count"),
        ("failed_frac", failed_frac, "share"),
        ("generator_late_ms_max", w.late_max_ns as f64 / 1e6, "ms"),
        ("latency_p99_ms", percentile(&lat, 99.0), "ms"),
    ];
    if let Some(p) = supported_tail(lat.len()) {
        info.push(("latency_tail_percentile", p, "%"));
    }
    (Outcome::new(out, offered, problems, info), tracer)
}
