//! Implementations of the CLI subcommands.

use noswalker_apps::{
    BasicRw, DeepWalk, GraphletConcentration, Node2Vec, Ppr, RandomWalkDomination,
    RandomWalkWithRestart,
};
use noswalker_baselines::{DrunkardMob, GraphWalker, Graphene, InMemory};
use noswalker_core::audit::{MemorySink, TraceSink};
use noswalker_core::parallel::ParallelRunner;
use noswalker_core::StaticQuerySource;
use noswalker_core::{EngineOptions, NosWalkerEngine, OnDiskGraph, RunMetrics, Walk, WallTimer};
use noswalker_graph::io::{load_csr, read_edge_list, save_csr};
use noswalker_graph::stats::DegreeStats;
use noswalker_graph::{generators, Csr};
use noswalker_serve::{
    parse_script, render_report, Backend, RealtimeOptions, RealtimeServer, ServeEngine,
    ServeOptions,
};
use noswalker_shard::ShardPlane;
use noswalker_storage::{per_shard_devices, MemoryBudget, SimSsd, SsdProfile};
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::sync::Arc;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn load_graph(path: &str) -> Result<Csr, String> {
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    if path.ends_with(".csr") {
        load_csr(BufReader::new(file)).map_err(err)
    } else {
        read_edge_list(BufReader::new(file)).map_err(err)
    }
}

/// `noswalker convert <edges> <out.csr>`.
pub fn convert(input: &str, output: &str) -> Result<String, String> {
    let g = load_graph(input)?;
    let out = File::create(output).map_err(|e| format!("cannot create {output}: {e}"))?;
    save_csr(&g, BufWriter::new(out)).map_err(err)?;
    Ok(format!(
        "wrote {output}: {} vertices, {} edges{}",
        g.num_vertices(),
        g.num_edges(),
        if g.is_weighted() { " (weighted)" } else { "" }
    ))
}

/// `noswalker info <graph>`.
pub fn info(path: &str) -> Result<String, String> {
    let g = load_graph(path)?;
    let s = DegreeStats::of(&g);
    Ok(format!(
        "{path}\n  vertices:          {}\n  edges:             {}\n  csr bytes:         {}\n  avg degree:        {:.2}\n  max degree:        {}\n  degree gini:       {:.3}\n  low-degree (≤4):   {:.1}% of vertices, {:.2}% of edges\n  weighted:          {}",
        s.num_vertices,
        s.num_edges,
        g.csr_bytes(),
        s.avg_degree,
        s.max_degree,
        s.gini,
        s.low_degree_fraction * 100.0,
        s.low_degree_edge_fraction * 100.0,
        g.is_weighted(),
    ))
}

/// `noswalker generate <family> --scale N --degree D <out.csr>`.
pub fn generate(
    family: &str,
    scale: u32,
    degree: u32,
    output: &str,
    seed: u64,
) -> Result<String, String> {
    let g = match family {
        "rmat" => generators::rmat(scale, degree, generators::RmatParams::default(), seed),
        "uniform" => generators::uniform_degree(1usize << scale, degree, seed),
        "powerlaw" => {
            generators::configuration_model(1usize << scale, 2.7, degree.max(1), 256, seed)
        }
        other => return Err(format!("unknown generator family {other:?}")),
    };
    let out = File::create(output).map_err(|e| format!("cannot create {output}: {e}"))?;
    save_csr(&g, BufWriter::new(out)).map_err(err)?;
    Ok(format!(
        "generated {family} graph: {} vertices, {} edges → {output}",
        g.num_vertices(),
        g.num_edges()
    ))
}

fn format_metrics(label: &str, m: &RunMetrics) -> String {
    // Derived figures are computed here; every raw counter comes from the
    // shared RunMetrics snapshot writer (the same enumeration the bench
    // JSON artifacts use), so a new counter appears in this report
    // without touching the CLI.
    let mut out = format!(
        "{label}\n  derived:           {:.1} edges/step, {:.2} M steps/s, {:.4} s simulated, {:.4} s wall",
        m.edges_per_step(),
        m.steps_per_sec() / 1e6,
        m.sim_secs(),
        m.wall_ns as f64 / 1e9,
    );
    for (name, value) in m.snapshot_fields() {
        out.push_str(&format!("\n  {name:<19}{value}"));
    }
    out
}

/// Reborrows a sink with a fresh (shorter) trait-object lifetime, so it
/// can be handed to an engine constructed as a temporary in the same
/// statement.
fn reborrow<'a>(s: &'a mut Option<&mut dyn TraceSink>) -> Option<&'a mut dyn TraceSink> {
    s.as_deref_mut().map(|x| x as &mut dyn TraceSink)
}

fn dispatch_engine<A: Walk + 'static>(
    engine: &str,
    app: Arc<A>,
    csr: &Csr,
    budget_bytes: u64,
    seed: u64,
    mut sink: Option<&mut dyn TraceSink>,
) -> Result<RunMetrics, String> {
    let device = Arc::new(SimSsd::new(SsdProfile::nvme_p4618()));
    let block_bytes = (csr.num_edges() * 4 / 32).max(4096);
    let graph = Arc::new(OnDiskGraph::store(csr, device, block_bytes).map_err(err)?);
    let budget = MemoryBudget::new(budget_bytes);
    let opts = EngineOptions::default();
    match engine {
        "noswalker" => NosWalkerEngine::new(app, graph, opts, budget)
            .run_with_sink(seed, reborrow(&mut sink))
            .map_err(err),
        "graphwalker" => GraphWalker::new(app, graph, opts, budget)
            .run_with_sink(seed, reborrow(&mut sink))
            .map_err(err),
        "drunkardmob" => DrunkardMob::new(app, graph, opts, budget)
            .run_with_sink(seed, reborrow(&mut sink))
            .map_err(err),
        "graphene" => Graphene::new(app, graph, opts, budget)
            .run_with_sink(seed, reborrow(&mut sink))
            .map_err(err),
        "inmemory" => Ok(
            InMemory::new(app, Arc::new(csr.clone()), opts, SsdProfile::nvme_p4618())
                .run_with_sink(seed, reborrow(&mut sink)),
        ),
        "parallel" => {
            let workers = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1);
            ParallelRunner::new(app, graph, opts, budget)
                .run_with_sink(seed, workers, reborrow(&mut sink))
                .map_err(err)
        }
        other => Err(format!("unknown engine {other:?}")),
    }
}

/// Serializes a recorded trace to `path` (JSON unless the extension is
/// `.tsv`) and returns report lines summarizing it, including stall
/// attribution (which block the engine was waiting on, worst first).
fn write_trace(path: &str, sink: &MemorySink) -> Result<String, String> {
    let body = if path.ends_with(".tsv") {
        sink.to_tsv()
    } else {
        sink.to_json()
    };
    std::fs::write(path, body).map_err(|e| format!("cannot write {path}: {e}"))?;
    let mut note = format!(
        "\n  trace:             {} events → {path}",
        sink.events.len()
    );
    let total = sink.total_stall_ns();
    if total > 0 {
        note.push_str(&format!(
            "\n  stall attribution: {:.4} s total",
            total as f64 / 1e9
        ));
        for (block, ns) in sink.stall_by_block().into_iter().take(3) {
            let who = match block {
                Some(b) => format!("block {b}"),
                None => "unattributed".into(),
            };
            note.push_str(&format!(
                "\n    {who}: {:.4} s ({:.1}%)",
                ns as f64 / 1e9,
                ns as f64 * 100.0 / total as f64
            ));
        }
    }
    Ok(note)
}

/// `noswalker run <graph> --app APP ... [--trace-out PATH]`.
#[expect(
    clippy::too_many_arguments,
    reason = "one parameter per parsed `run` flag"
)]
pub fn run_walk(
    graph_path: &str,
    app: &str,
    engine: &str,
    budget_pct: u32,
    walkers: u64,
    length: u32,
    seed: u64,
    trace_out: Option<&str>,
) -> Result<String, String> {
    let csr = load_graph(graph_path)?;
    let n = csr.num_vertices();
    if n == 0 {
        return Err("graph has no vertices".into());
    }
    let budget_bytes = (csr.edge_region_bytes() * budget_pct as u64 / 100).max(64 << 10);
    let label =
        format!("{app} on {graph_path} via {engine} (budget {budget_pct}% = {budget_bytes} bytes)");

    let mut sink: Option<MemorySink> = trace_out.map(|_| MemorySink::new());
    fn as_dyn(s: &mut Option<MemorySink>) -> Option<&mut dyn TraceSink> {
        s.as_mut().map(|m| m as &mut dyn TraceSink)
    }

    // App-specific defaults follow the paper's settings.
    let m = match app {
        "basic" => {
            let w = if walkers == 0 { n as u64 } else { walkers };
            dispatch_engine(
                engine,
                Arc::new(BasicRw::new(w, length, n)),
                &csr,
                budget_bytes,
                seed,
                as_dyn(&mut sink),
            )?
        }
        "ppr" => {
            let per = if walkers == 0 { 2000 } else { walkers };
            let sources = vec![0u32, (n as u32) / 3, (n as u32) / 2];
            dispatch_engine(
                engine,
                Arc::new(Ppr::new(sources, per, length, n)),
                &csr,
                budget_bytes,
                seed,
                as_dyn(&mut sink),
            )?
        }
        "rwr" => {
            let per = if walkers == 0 { 2000 } else { walkers };
            dispatch_engine(
                engine,
                Arc::new(RandomWalkWithRestart::new(vec![0], per, 0.15, length, n)),
                &csr,
                budget_bytes,
                seed,
                as_dyn(&mut sink),
            )?
        }
        "rwd" => dispatch_engine(
            engine,
            Arc::new(RandomWalkDomination::new(n, length.min(6))),
            &csr,
            budget_bytes,
            seed,
            as_dyn(&mut sink),
        )?,
        "graphlet" => dispatch_engine(
            engine,
            Arc::new(GraphletConcentration::paper_scale(n)),
            &csr,
            budget_bytes,
            seed,
            as_dyn(&mut sink),
        )?,
        "deepwalk" => {
            let per = if walkers == 0 {
                1
            } else {
                walkers.min(u32::MAX as u64) as u32
            };
            dispatch_engine(
                engine,
                Arc::new(DeepWalk::new(n, per, length, 0)),
                &csr,
                budget_bytes,
                seed,
                as_dyn(&mut sink),
            )?
        }
        "node2vec" => {
            if engine != "noswalker" {
                return Err("node2vec (second order) runs on --engine noswalker only".into());
            }
            let und = csr.to_undirected();
            let per = if walkers == 0 {
                1
            } else {
                walkers.min(u32::MAX as u64) as u32
            };
            let app = Arc::new(Node2Vec::new(und.num_vertices(), per, length, 2.0, 0.5));
            let device = Arc::new(SimSsd::new(SsdProfile::nvme_p4618()));
            let block_bytes = (und.num_edges() * 4 / 32).max(4096);
            let graph = Arc::new(OnDiskGraph::store(&und, device, block_bytes).map_err(err)?);
            NosWalkerEngine::new(
                app,
                graph,
                EngineOptions::default(),
                MemoryBudget::new(budget_bytes),
            )
            .run_second_order_with_sink(seed, as_dyn(&mut sink))
            .map_err(err)?
        }
        other => return Err(format!("unknown app {other:?}")),
    };
    let mut report = format_metrics(&label, &m);
    if let (Some(path), Some(sink)) = (trace_out, sink.as_ref()) {
        report.push_str(&write_trace(path, sink)?);
    }
    Ok(report)
}

/// `noswalker serve <graph> --script <trace.txt> [--shards N]
/// [--mode lockstep|realtime]`.
///
/// Replays a query trace against the online serving engine and prints a
/// latency / shed report. The trace file format is one query per line:
/// `at_us class walkers length [deadline_us|-]` (`#` starts a comment).
/// With `--shards N > 1` the trace runs on the sharded serve plane: one
/// simulated device and walker-pool share per shard, cross-shard walker
/// handoff between rounds. With `--mode realtime` the trace is *paced*:
/// a background tick thread serves continuously while this thread
/// submits each query when its `at_us` of wall time has elapsed;
/// `--duration-ms` caps the run, shutting the server down mid-serve
/// (in-flight queries report degraded partials, nothing is lost).
#[expect(
    clippy::too_many_arguments,
    reason = "one parameter per parsed `serve` flag"
)]
pub fn run_serve(
    graph_path: &str,
    script_path: &str,
    budget_pct: u32,
    seed: u64,
    backend: Backend,
    shards: u32,
    mode: &str,
    duration_ms: u64,
) -> Result<String, String> {
    let csr = load_graph(graph_path)?;
    if csr.num_vertices() == 0 {
        return Err("graph has no vertices".into());
    }
    let text = std::fs::read_to_string(script_path)
        .map_err(|e| format!("cannot open {script_path}: {e}"))?;
    let specs = parse_script(&text).map_err(err)?;
    if specs.is_empty() {
        return Err(format!("{script_path}: script has no queries"));
    }

    let budget_bytes = (csr.edge_region_bytes() * budget_pct as u64 / 100).max(64 << 10);
    let block_bytes = (csr.num_edges() * 4 / 32).max(4096);
    let opts = ServeOptions {
        seed,
        backend,
        ..ServeOptions::default()
    };
    let queries = specs.len();
    let header = format!(
        "{queries} queries from {script_path} on {graph_path} (backend {}, budget {budget_pct}% = {budget_bytes} bytes",
        backend.name()
    );
    if mode == "realtime" {
        let device = Arc::new(SimSsd::new(SsdProfile::nvme_p4618()));
        let graph = Arc::new(OnDiskGraph::store(&csr, device, block_bytes).map_err(err)?);
        let budget = MemoryBudget::new(budget_bytes);
        return run_serve_realtime(graph, budget, opts, specs, duration_ms, &header);
    }
    let mut source = StaticQuerySource::new(specs);
    if shards <= 1 {
        let device = Arc::new(SimSsd::new(SsdProfile::nvme_p4618()));
        let graph = Arc::new(OnDiskGraph::store(&csr, device, block_bytes).map_err(err)?);
        let budget = MemoryBudget::new(budget_bytes);
        let engine = ServeEngine::new(graph, budget, opts);
        let report = engine.run(&mut source, None).map_err(err)?;
        Ok(format!("{header})\n{}", render_report(&report)))
    } else {
        let devices = per_shard_devices(shards as usize, 1, SsdProfile::nvme_p4618(), 64 << 10);
        let plane =
            ShardPlane::build(&csr, devices, budget_bytes, block_bytes, opts).map_err(err)?;
        let r = plane.run(&mut source, None).map_err(err)?;
        Ok(format!(
            "{header}, {shards} shards)\n{}\nhandoffs: {} walkers emigrated, {} re-admitted",
            render_report(&r.report),
            r.walkers_emigrated,
            r.walkers_immigrated
        ))
    }
}

/// The realtime leg of `run_serve`: a background tick thread serves
/// while this thread paces the script's arrivals against the wall clock
/// (the CLI is the sanctioned wall-time boundary). With a duration cap
/// the server is shut down when the cap elapses — whatever is in flight
/// reports a degraded partial, and every submitted query still gets
/// exactly one outcome.
#[expect(
    clippy::disallowed_methods,
    reason = "the CLI is the wall-clock boundary: a realtime `serve` paces the script's \
              arrivals and its duration cap with real sleeps"
)]
fn run_serve_realtime(
    graph: Arc<OnDiskGraph>,
    budget: Arc<MemoryBudget>,
    opts: ServeOptions,
    specs: Vec<noswalker_core::QuerySpec>,
    duration_ms: u64,
    header: &str,
) -> Result<String, String> {
    let queries = specs.len();
    let cap_ns = if duration_ms == 0 {
        u64::MAX
    } else {
        duration_ms.saturating_mul(1_000_000)
    };
    let server = RealtimeServer::single(graph, budget, opts, RealtimeOptions::default());
    let wall = WallTimer::start();
    let handle = server.start();
    let mut submitted = 0usize;
    for q in specs {
        if q.arrival_ns >= cap_ns {
            break; // arrives after the cap: the run ends first
        }
        let now = wall.elapsed_ns();
        if q.arrival_ns > now {
            std::thread::sleep(std::time::Duration::from_nanos(q.arrival_ns - now));
        }
        if handle.submit_blocking(q).is_err() {
            break; // server stopped (round backstop); report what we have
        }
        submitted += 1;
    }
    let capped = cap_ns != u64::MAX;
    if capped {
        let now = wall.elapsed_ns();
        if cap_ns > now {
            std::thread::sleep(std::time::Duration::from_nanos(cap_ns - now));
        }
    }
    let t = if capped {
        handle.shutdown_and_join().map_err(err)?
    } else {
        handle.drain_and_join().map_err(err)?
    };
    let wall_ms = wall.elapsed_ns() / 1_000_000;
    let cap = if capped {
        format!(", cap {duration_ms} ms")
    } else {
        String::new()
    };
    Ok(format!(
        "{header}, mode realtime)\n{}\nrealtime: {submitted}/{queries} submitted, wall {wall_ms} ms{cap}",
        render_report(&t.report)
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> String {
        let mut p = std::env::temp_dir();
        p.push(format!("noswalker-cli-{}-{name}", std::process::id()));
        p.to_string_lossy().into_owned()
    }

    #[test]
    fn generate_info_run_roundtrip() {
        let path = tmp("g.csr");
        let out = generate("rmat", 10, 8, &path, 5).unwrap();
        assert!(out.contains("1024 vertices"));
        let info = info(&path).unwrap();
        assert!(info.contains("vertices:          1024"));
        let report = run_walk(&path, "basic", "noswalker", 12, 500, 5, 3, None).unwrap();
        assert!(report.contains("walkers_finished   500"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn convert_handles_edge_lists() {
        let el = tmp("edges.txt");
        std::fs::write(&el, "0 1\n1 2\n2 0\n").unwrap();
        let out = tmp("conv.csr");
        let msg = convert(&el, &out).unwrap();
        assert!(msg.contains("3 vertices, 3 edges"));
        let report = run_walk(&out, "basic", "inmemory", 50, 10, 4, 1, None).unwrap();
        assert!(report.contains("walkers_finished   10"));
        std::fs::remove_file(&el).ok();
        std::fs::remove_file(&out).ok();
    }

    #[test]
    fn run_every_engine_and_app_smoke() {
        let path = tmp("smoke.csr");
        generate("uniform", 9, 6, &path, 7).unwrap();
        for engine in [
            "noswalker",
            "graphwalker",
            "drunkardmob",
            "graphene",
            "inmemory",
            "parallel",
        ] {
            let r = run_walk(&path, "basic", engine, 25, 200, 4, 2, None);
            assert!(r.is_ok(), "{engine}: {r:?}");
        }
        for app in ["ppr", "rwr", "rwd", "graphlet", "deepwalk", "node2vec"] {
            let r = run_walk(&path, app, "noswalker", 25, 50, 4, 2, None);
            assert!(r.is_ok(), "{app}: {r:?}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn trace_out_writes_parseable_trace_with_stall_attribution() {
        let path = tmp("traced.csr");
        generate("uniform", 9, 6, &path, 7).unwrap();

        let json_path = tmp("run.json");
        let report =
            run_walk(&path, "basic", "noswalker", 25, 200, 4, 2, Some(&json_path)).unwrap();
        assert!(report.contains("trace:"), "{report}");
        let body = std::fs::read_to_string(&json_path).unwrap();
        assert!(body.trim_start().starts_with('['), "JSON array: {body}");
        assert!(body.contains("\"event\":\"run_end\""), "{body}");
        assert!(body.contains("\"event\":\"coarse_load\""), "{body}");
        // Stalls carry attribution: the block the engine waited on.
        if body.contains("\"event\":\"stall\"") {
            assert!(body.contains("\"waiting_for\""), "{body}");
            assert!(report.contains("stall attribution"), "{report}");
        }

        let tsv_path = tmp("run.tsv");
        run_walk(
            &path,
            "basic",
            "drunkardmob",
            25,
            200,
            4,
            2,
            Some(&tsv_path),
        )
        .unwrap();
        let tsv = std::fs::read_to_string(&tsv_path).unwrap();
        assert!(tsv.lines().any(|l| l.starts_with("run_end\t")), "{tsv}");

        for f in [&path, &json_path, &tsv_path] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn serve_replays_a_script_and_reports_latency() {
        let path = tmp("serve.csr");
        generate("uniform", 9, 6, &path, 7).unwrap();
        let script = tmp("serve.txt");
        std::fs::write(
            &script,
            "# at_us class walkers length deadline_us\n\
             0    ppr:3      40 8 -\n\
             100  basic      40 8 900000\n\
             200  deepwalk:0 40 8 -\n",
        )
        .unwrap();

        for backend in [Backend::Seq, Backend::Par] {
            let report = run_serve(&path, &script, 25, 3, backend, 1, "lockstep", 0).unwrap();
            assert!(report.contains("3 queries"), "{report}");
            assert!(
                report.contains(&format!("backend {}", backend.name())),
                "{report}"
            );
            assert!(report.contains("served 3"), "{report}");
            assert!(report.contains("ppr"), "{report}");
            assert!(report.contains("p99="), "{report}");
            // Same inputs, same report: the serving loop runs on modeled
            // time on every backend.
            assert_eq!(
                report,
                run_serve(&path, &script, 25, 3, backend, 1, "lockstep", 0).unwrap()
            );
        }

        std::fs::write(&script, "0 node2vec:0 4 4 -\n").unwrap();
        assert!(
            run_serve(&path, &script, 25, 3, Backend::Seq, 1, "lockstep", 0)
                .unwrap_err()
                .contains("node2vec")
        );
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&script).ok();
    }

    #[test]
    fn serve_realtime_drains_and_caps() {
        let path = tmp("rt.csr");
        generate("uniform", 9, 6, &path, 7).unwrap();
        let script = tmp("rt.txt");
        std::fs::write(
            &script,
            "0   ppr:3 40 8 -\n\
             200 basic 40 8 -\n",
        )
        .unwrap();

        // Uncapped: pace the whole trace, drain, serve everything.
        let report = run_serve(&path, &script, 25, 3, Backend::Seq, 1, "realtime", 0).unwrap();
        assert!(report.contains("mode realtime"), "{report}");
        assert!(report.contains("served 2"), "{report}");
        assert!(report.contains("2/2 submitted"), "{report}");

        // Capped: the run is cut off by wall time, but every submitted
        // query still reports exactly one outcome (possibly degraded).
        let capped = run_serve(&path, &script, 25, 3, Backend::Seq, 1, "realtime", 50).unwrap();
        assert!(capped.contains("cap 50 ms"), "{capped}");

        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&script).ok();
    }

    #[test]
    fn serve_runs_sharded_and_reports_handoffs() {
        let path = tmp("shards.csr");
        generate("uniform", 9, 6, &path, 7).unwrap();
        let script = tmp("shards.txt");
        std::fs::write(
            &script,
            "0    ppr:3    40 8 -\n\
             100  basic    40 8 -\n\
             200  ppr:400  40 8 -\n",
        )
        .unwrap();

        let sharded = run_serve(&path, &script, 25, 3, Backend::Seq, 4, "lockstep", 0).unwrap();
        assert!(sharded.contains("4 shards"), "{sharded}");
        assert!(sharded.contains("served 3"), "{sharded}");
        assert!(sharded.contains("walkers emigrated"), "{sharded}");
        // Deterministic: replaying the same trace reproduces the report.
        assert_eq!(
            sharded,
            run_serve(&path, &script, 25, 3, Backend::Seq, 4, "lockstep", 0).unwrap()
        );

        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&script).ok();
    }

    #[test]
    fn errors_are_user_readable() {
        assert!(info("/no/such/file.csr")
            .unwrap_err()
            .contains("cannot open"));
        let path = tmp("err.csr");
        generate("uniform", 8, 4, &path, 1).unwrap();
        assert!(run_walk(&path, "nope", "noswalker", 12, 1, 1, 1, None)
            .unwrap_err()
            .contains("unknown app"));
        assert!(run_walk(&path, "basic", "nope", 12, 1, 1, 1, None)
            .unwrap_err()
            .contains("unknown engine"));
        assert!(
            run_walk(&path, "node2vec", "graphwalker", 12, 1, 1, 1, None)
                .unwrap_err()
                .contains("second order")
        );
        assert!(generate("nope", 8, 4, &path, 1)
            .unwrap_err()
            .contains("family"));
        std::fs::remove_file(&path).ok();
    }
}
