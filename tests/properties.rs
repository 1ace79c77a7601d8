//! Property-based tests over the core data structures and invariants.

use noswalker::apps::BasicRw;
use noswalker::core::presample::plan_quotas;
use noswalker::core::{EngineOptions, NosWalkerEngine, OnDiskGraph, PipelineClock};
use noswalker::graph::layout::{encode_edge_region, EdgeFormat, VertexEdges};
use noswalker::graph::partition::Partition;
use noswalker::graph::{AliasTable, CsrBuilder};
use noswalker::storage::{MemDevice, MemoryBudget, SimSsd, SsdProfile};
use proptest::prelude::*;
use std::sync::Arc;

/// An arbitrary small graph as an edge list over `n` vertices.
fn arb_graph(max_v: usize) -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (2..max_v).prop_flat_map(|n| {
        let edges = prop::collection::vec((0..n as u32, 0..n as u32), 0..(n * 4));
        (Just(n), edges)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn csr_roundtrips_through_raw_encoding((n, edges) in arb_graph(64)) {
        let mut b = CsrBuilder::new(n);
        for &(s, d) in &edges {
            b.push_edge(s, d);
        }
        let csr = b.build();
        let bytes = encode_edge_region(&csr, EdgeFormat::Unweighted).unwrap();
        prop_assert_eq!(bytes.len() as u64, csr.num_edges() * 4);
        for v in 0..n as u32 {
            let s = csr.edge_start(v) as usize * 4;
            let e = csr.edge_start(v + 1) as usize * 4;
            let view = VertexEdges::from_raw(&bytes[s..e], EdgeFormat::Unweighted);
            prop_assert_eq!(view.degree() as u64, csr.degree(v));
            for i in 0..view.degree() {
                prop_assert_eq!(view.target(i), csr.neighbors(v)[i]);
            }
        }
    }

    #[test]
    fn partition_covers_graph_exactly((n, edges) in arb_graph(64), block_bytes in 1u64..512) {
        let mut b = CsrBuilder::new(n);
        for &(s, d) in &edges {
            b.push_edge(s, d);
        }
        let csr = b.build();
        let p = Partition::by_block_bytes(&csr, EdgeFormat::Unweighted, block_bytes);
        // Vertex coverage: contiguous, complete.
        let mut v = 0;
        let mut byte = 0;
        for blk in p.blocks() {
            prop_assert_eq!(blk.vertex_start, v);
            prop_assert_eq!(blk.byte_start, byte);
            v = blk.vertex_end;
            byte = blk.byte_end;
        }
        prop_assert_eq!(v as usize, n);
        prop_assert_eq!(byte, csr.num_edges() * 4);
        for u in 0..n as u32 {
            prop_assert!(p.block(p.block_of_vertex(u)).contains_vertex(u));
        }
    }

    #[test]
    fn alias_table_picks_valid_nonzero_slots(weights in prop::collection::vec(0.0f32..10.0, 1..40)) {
        prop_assume!(weights.iter().any(|&w| w > 0.0));
        let t = AliasTable::new(&weights);
        for slot in 0..weights.len() {
            for u in [0.0f32, 0.25, 0.5, 0.75, 0.999] {
                let picked = t.pick(slot, u) as usize;
                prop_assert!(picked < weights.len());
                // A picked slot is only ever one with positive weight,
                // unless the uniform slot itself had weight 0 and u >= prob
                // (prob of a zero-weight slot is 0, so it always redirects).
                if weights[slot] == 0.0 {
                    prop_assert!(u >= t.prob(slot) || t.prob(slot) == 0.0);
                }
            }
        }
    }

    #[test]
    fn quota_plans_respect_classes(
        degrees in prop::collection::vec(0u64..200, 1..50),
        capacity in 0u64..2000,
        low in 0u32..6,
        alias in 8u32..200,
        cap in 1u32..64,
    ) {
        let weights = vec![0u32; degrees.len()];
        let plan = plan_quotas(&degrees, &weights, capacity, low, alias, cap);
        for (i, &deg) in degrees.iter().enumerate() {
            if deg == 0 {
                prop_assert_eq!(plan.quotas[i], 0);
            } else if deg <= low as u64 {
                prop_assert!(plan.raw[i]);
                prop_assert!(!plan.alias[i]);
                prop_assert_eq!(plan.quotas[i] as u64, deg);
            } else if plan.alias[i] {
                // Hub retention: raw, whole edge list, only over the
                // alias threshold.
                prop_assert!(plan.raw[i]);
                prop_assert!(deg >= alias as u64);
                prop_assert_eq!(plan.quotas[i] as u64, deg);
            } else {
                prop_assert!(!plan.raw[i]);
                prop_assert!(plan.quotas[i] <= cap);
            }
        }
        let total: u64 = plan.quotas.iter().map(|&q| q as u64).sum();
        prop_assert_eq!(total, plan.total_slots);
    }

    #[test]
    fn budget_never_exceeds_limit(ops in prop::collection::vec((0u64..2000, prop::bool::ANY), 1..60)) {
        let budget = MemoryBudget::new(4096);
        let mut held = Vec::new();
        for (bytes, release_one) in ops {
            if release_one && !held.is_empty() {
                held.pop();
            }
            if let Ok(r) = budget.try_reserve(bytes) {
                held.push(r);
            }
            prop_assert!(budget.in_use() <= 4096);
            prop_assert!(budget.peak() <= 4096);
        }
        drop(held);
        prop_assert_eq!(budget.in_use(), 0);
    }

    #[test]
    fn pipeline_clock_is_monotone(ops in prop::collection::vec((0u8..3, 0u64..10_000), 1..80)) {
        let mut clock = PipelineClock::new();
        let mut last = 0;
        for (kind, x) in ops {
            match kind {
                0 => clock.advance_compute(x),
                1 => {
                    let done = clock.issue_io(x);
                    prop_assert!(done >= clock.now());
                }
                _ => clock.stall_until(x),
            }
            prop_assert!(clock.now() >= last);
            last = clock.now();
        }
        prop_assert!(clock.compute_ns() + clock.stall_ns() <= clock.now() + 1);
    }

    #[test]
    fn engine_terminates_and_conserves_walkers(
        (n, edges) in arb_graph(48),
        walkers in 1u64..200,
        length in 1u32..12,
        block_bytes in 8u64..256,
        pool in 1usize..64,
        knobs in 0u8..8,
    ) {
        let mut b = CsrBuilder::new(n);
        for &(s, d) in &edges {
            b.push_edge(s, d);
        }
        let csr = b.build();
        let device = Arc::new(MemDevice::new());
        let graph = Arc::new(OnDiskGraph::store(&csr, device, block_bytes).unwrap());
        let app = Arc::new(BasicRw::new(walkers, length, n));
        let opts = EngineOptions {
            walker_pool_size: pool,
            enable_walker_management: knobs & 1 != 0,
            enable_shrink_block: knobs & 2 != 0,
            enable_presample: knobs & 4 != 0,
            ..EngineOptions::default()
        };
        let engine = NosWalkerEngine::new(
            Arc::clone(&app),
            graph,
            opts,
            MemoryBudget::new(1 << 20),
        );
        let m = engine.run(9).unwrap();
        prop_assert_eq!(m.walkers_finished, walkers);
        prop_assert!(m.steps <= walkers * length as u64);
        prop_assert_eq!(m.steps, app.steps_taken());
    }

    #[test]
    fn sim_ssd_service_times_scale(len_a in 1u64..(1<<22), len_b in 1u64..(1<<22)) {
        let p = SsdProfile::nvme_p4618();
        let (small, large) = if len_a < len_b { (len_a, len_b) } else { (len_b, len_a) };
        prop_assert!(p.service_ns(small) <= p.service_ns(large));
        prop_assert!(p.service_ns(small) >= 1_000_000_000 / p.iops);
    }

    #[test]
    fn noswalker_is_deterministic_under_arbitrary_configs(
        seed in 0u64..1000,
        walkers in 1u64..300,
        length in 1u32..10,
        budget_kib in 24u64..96,
        pool in 1usize..96,
        rung in 0usize..8,
        alpha in 0u64..5,
    ) {
        // 64 KiB of edges in 2 KiB blocks: the small budgets are out of
        // core, so walkers park on dry buffers and wait for loads, and a
        // small `alpha` turns those loads fine-grained. A parked walker
        // nobody wakes must fail here (the engine's own `debug_assert!`s,
        // or the walker count below), not hang a benchmark.
        let csr = noswalker::graph::generators::uniform_degree(2048, 8, 5);
        let ladder = [
            EngineOptions::base(),
            EngineOptions::with_walker_management(),
            EngineOptions::with_shrink_block(),
            EngineOptions::full(),
        ];
        let opts = EngineOptions {
            walker_pool_size: pool,
            alpha,
            ..ladder[rung.min(3)].clone()
        };
        let run = || {
            let device = Arc::new(SimSsd::new(SsdProfile::nvme_p4618()));
            let graph = Arc::new(OnDiskGraph::store(&csr, device, 2048).unwrap());
            let app = Arc::new(BasicRw::new(walkers, length, 2048));
            NosWalkerEngine::new(app, graph, opts.clone(), MemoryBudget::new(budget_kib << 10))
                .run(seed)
                .unwrap()
        };
        let (mut a, mut b) = (run(), run());
        prop_assert_eq!(a.walkers_finished + a.walkers_cancelled, walkers);
        prop_assert_eq!(a.steps, b.steps);
        a.wall_ns = 0;
        b.wall_ns = 0;
        prop_assert_eq!(a, b);
    }
}
