//! Per-layer probes of the traced run: short loops over one layer's
//! public API, replaying the workload's own blocks and vertices. Each
//! loop is one span; a metric is the span's time over the units it moved.

use crate::engines::{ratio, PAR_WORKERS};
use crate::inputs::Rng;
use crate::spans::Tracer;
use crate::spec::Metrics;
use crate::stats::median;
use noswalker_apps::BasicRw;
use noswalker_core::parallel::ParallelRunner;
use noswalker_core::presample::{plan_quotas, BatchClaim, Claim, Peek, PreSampleBuffer};
use noswalker_core::{EngineOptions, NosWalkerEngine, OnDiskGraph};
use noswalker_graph::layout::encode_edge_region;
use noswalker_graph::{Csr, VertexId};
use noswalker_storage::{Device, MemoryBudget, SimSsd, SsdProfile};
use std::hint::black_box;
use std::sync::Arc;

const FINE_PAGE: u64 = 4096;

/// `graph.encode_*`, `storage.*` unit costs, `core.disk_graph.*` loads
/// and `core.presample.*`, on the workload's graph.
pub fn common(
    csr: &Csr,
    graph: &Arc<OnDiskGraph>,
    seed: u64,
    tracer: &mut Tracer,
    out: &mut Metrics,
) {
    let mut rng = Rng::new(seed, "probes");
    let blocks = graph.partition().blocks().to_vec();
    let nv = graph.num_vertices() as u64;

    // graph: encoding the CSR into the on-device edge region.
    let (region, ns) = tracer.time("graph.encode", None, 0, 0, || {
        encode_edge_region(csr, csr.edge_format())
    });
    out.set("graph.encode_ns_per_edge", ratio(ns, csr.num_edges()));
    let Ok(region) = region else { return };

    // storage: block-sized and page-sized reads of that region from a
    // fresh simulated SSD, wall time beside the service time it returns.
    let device = SimSsd::new(SsdProfile::nvme_p4618());
    if device.write(0, &region).is_err() {
        return;
    }
    let mut buf = vec![0u8; blocks.iter().map(|b| b.byte_len()).max().unwrap_or(0) as usize];
    let (model_ns, wall_ns) = tracer.time("storage.read_coarse", None, 0, 0, || {
        blocks
            .iter()
            .filter_map(|b| {
                device
                    .read(b.byte_start, &mut buf[..b.byte_len() as usize])
                    .ok()
            })
            .sum::<u64>()
    });
    let kib = region.len() as u64 / 1024;
    out.set("storage.read_coarse_ns_per_kib", ratio(wall_ns, kib));
    out.set("storage.model_coarse_ns_per_kib", ratio(model_ns, kib));
    let pages: Vec<u64> = (0..4096)
        .map(|_| graph.vertex_byte_range(rng.below(nv) as VertexId).start / FINE_PAGE * FINE_PAGE)
        .filter(|&off| off + FINE_PAGE <= region.len() as u64)
        .collect();
    let mut page = [0u8; FINE_PAGE as usize];
    let (model_ns, wall_ns) = tracer.time("storage.read_fine", None, 0, 0, || {
        pages
            .iter()
            .filter_map(|&off| device.read(off, &mut page).ok())
            .sum::<u64>()
    });
    out.set(
        "storage.read_fine_ns_per_op",
        ratio(wall_ns, pages.len() as u64),
    );
    out.set(
        "storage.model_fine_ns_per_op",
        ratio(model_ns, pages.len() as u64),
    );
    let budget = MemoryBudget::new(1 << 30);
    const RESERVES: u64 = 100_000;
    let ((), ns) = tracer.time("storage.budget_reserve", None, 0, 0, || {
        for _ in 0..RESERVES {
            black_box(budget.try_reserve(FINE_PAGE).ok());
        }
    });
    out.set("storage.budget_reserve_ns_per_op", ratio(ns, RESERVES));

    // core.disk_graph: coarse loads, per-vertex decode, fine loads.
    let roomy = MemoryBudget::new(graph.edge_region_bytes() * 2 + (1 << 20));
    let (mut load_ns, mut decode_ns, mut fine_ns, mut fine_calls) = (0u64, 0u64, 0u64, 0u64);
    for b in &blocks {
        let (loaded, ns) = tracer.time("core.disk_graph.load_block", None, 0, 0, || {
            graph.load_block(b.id, &roomy)
        });
        load_ns += ns;
        if let Ok((block, _)) = loaded {
            let ((), ns) = tracer.time("core.disk_graph.decode", None, 0, 0, || {
                for v in b.vertex_start..b.vertex_end {
                    black_box(block.vertex_edges(graph, v).map(|e| e.degree()));
                }
            });
            decode_ns += ns;
        }
        if b.num_vertices() > 0 {
            let vs: Vec<VertexId> = (0..8)
                .map(|_| b.vertex_start + rng.below(u64::from(b.num_vertices())) as VertexId)
                .collect();
            let (_, ns) = tracer.time("core.disk_graph.load_fine", None, 0, 0, || {
                graph
                    .load_fine(b.id, &vs, &roomy)
                    .map(|(f, _)| f.loaded_bytes())
            });
            fine_ns += ns;
            fine_calls += 1;
        }
    }
    out.set("core.disk_graph.load_block_ns_per_kib", ratio(load_ns, kib));
    out.set("core.disk_graph.decode_ns_per_vertex", ratio(decode_ns, nv));
    out.set(
        "core.disk_graph.load_fine_us_per_call",
        ratio(fine_ns, fine_calls) / 1e3,
    );

    presample(graph, &roomy, &mut rng, tracer, out);
}

/// Plans, builds, consumes, publishes and claims pre-sample buffers for
/// four of the graph's blocks, with the default engine options' knobs.
fn presample(
    graph: &Arc<OnDiskGraph>,
    budget: &Arc<MemoryBudget>,
    rng: &mut Rng,
    tracer: &mut Tracer,
    out: &mut Metrics,
) {
    let opts = EngineOptions::default();
    let blocks = graph.partition().blocks();
    let picks: Vec<_> = blocks
        .iter()
        .step_by((blocks.len() / 4).max(1))
        .take(4)
        .collect();
    let (mut plan_ns, mut build_ns, mut draws) = (0u64, 0u64, 0u64);
    let (mut peek_ns, mut peeks) = (0u64, 0u64);
    let (mut publish_ns, mut claim_ns, mut claims) = (0u64, 0u64, 0u64);
    let (mut batch_ns, mut batch_slots) = (0u64, 0u64);
    for b in &picks {
        let Ok((block, _)) = graph.load_block(b.id, budget) else {
            continue;
        };
        let vertices: Vec<VertexId> = (b.vertex_start..b.vertex_end).collect();
        let degrees: Vec<u64> = vertices.iter().map(|&v| graph.degree(v)).collect();
        let weights = vec![0u32; degrees.len()];
        let (plan, ns) = tracer.time("core.presample.plan", None, 0, 0, || {
            plan_quotas(
                &degrees,
                &weights,
                degrees.len() as u64 * 8,
                opts.low_degree_threshold,
                opts.alias_degree_threshold,
                opts.presample_cap_per_vertex,
            )
        });
        plan_ns += ns;
        let ((mut buffer, drawn), ns) = tracer.time("core.presample.build", None, 0, 0, || {
            PreSampleBuffer::build(
                b.vertex_start,
                &plan,
                false,
                |v| {
                    let edges = block
                        .vertex_edges(graph, v)
                        .expect("planned vertices are covered");
                    edges.target(rng.below(edges.degree() as u64) as usize)
                },
                |v, targets, _| {
                    let edges = block
                        .vertex_edges(graph, v)
                        .expect("planned vertices are covered");
                    targets.extend((0..edges.degree()).map(|i| edges.target(i)));
                },
            )
        });
        build_ns += ns;
        draws += drawn;
        // Two passes over every vertex: half the sampled slots get used.
        let ((), ns) = tracer.time("core.presample.peek_consume", None, 0, 0, || {
            for _ in 0..2 {
                for &v in &vertices {
                    match buffer.peek(v) {
                        Peek::Sampled(dst) => {
                            black_box(dst);
                            buffer.consume(v);
                        }
                        Peek::Raw(edges) => {
                            black_box(edges.degree());
                            buffer.consume(v);
                        }
                        Peek::Empty => {}
                    }
                }
            }
        });
        peek_ns += ns;
        peeks += 2 * vertices.len() as u64;
        let (published, ns) = tracer.time("core.presample.publish", None, 0, 0, || {
            buffer.into_published()
        });
        publish_ns += ns;
        let ((), ns) = tracer.time("core.presample.claim", None, 0, 0, || {
            for &v in &vertices {
                match published.claim(v) {
                    Claim::Sampled(dst) => drop(black_box(dst)),
                    Claim::Raw(edges) => drop(black_box(edges.degree())),
                    Claim::Stalled => {}
                }
            }
        });
        claim_ns += ns;
        claims += vertices.len() as u64;
        let (slots, ns) = tracer.time("core.presample.claim_batch", None, 0, 0, || {
            let mut slots = 0u64;
            for &v in &vertices {
                slots += match published.claim_batch(v, opts.claim_batch.max(2)) {
                    BatchClaim::Sampled(dsts) => black_box(dsts).len() as u64,
                    BatchClaim::Raw(edges) => u64::from(black_box(edges.degree()) > 0),
                    BatchClaim::Stalled => 1,
                };
            }
            slots
        });
        batch_ns += ns;
        batch_slots += slots;
    }
    let n = picks.len() as u64;
    out.set("core.presample.plan_us_per_block", ratio(plan_ns, n) / 1e3);
    out.set("core.presample.build_ns_per_draw", ratio(build_ns, draws));
    out.set(
        "core.presample.peek_consume_ns_per_op",
        ratio(peek_ns, peeks),
    );
    out.set(
        "core.presample.publish_us_per_block",
        ratio(publish_ns, n) / 1e3,
    );
    out.set("core.presample.claim_ns_per_op", ratio(claim_ns, claims));
    out.set(
        "core.presample.claim_batch_ns_per_slot",
        ratio(batch_ns, batch_slots),
    );
}

/// `core.engine.fixed_cost_us` and `core.parallel.fixed_cost_us`: the
/// median time of a run with one walker taking one step — engine
/// construction, thread spawn and join, and nothing else.
pub fn fixed_costs(
    graph: &Arc<OnDiskGraph>,
    budget_bytes: u64,
    tracer: &mut Tracer,
    out: &mut Metrics,
) {
    const RUNS: u64 = 20;
    let (mut seq_us, mut par_us) = (Vec::new(), Vec::new());
    for i in 0..RUNS {
        let app = Arc::new(BasicRw::new(1, 1, graph.num_vertices()));
        let budget = MemoryBudget::new(budget_bytes);
        let (res, ns) = tracer.time("core.engine.run_1walker", None, 0, i, || {
            NosWalkerEngine::new(
                Arc::clone(&app),
                Arc::clone(graph),
                EngineOptions::default(),
                Arc::clone(&budget),
            )
            .run(i)
        });
        if res.is_ok() {
            seq_us.push(ns as f64 / 1e3);
        }
        let (res, ns) = tracer.time("core.parallel.run_1walker", None, 0, i, || {
            ParallelRunner::new(app, Arc::clone(graph), EngineOptions::default(), budget)
                .run(i, PAR_WORKERS)
        });
        if res.is_ok() {
            par_us.push(ns as f64 / 1e3);
        }
    }
    out.set("core.engine.fixed_cost_us", median(&seq_us));
    out.set("core.parallel.fixed_cost_us", median(&par_us));
}
