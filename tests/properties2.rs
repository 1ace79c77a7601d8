//! Property tests over whole engine runs: the sequential engine under
//! arbitrary graphs and knob settings, its second-order and restart
//! paths, and the parallel runner under any worker count. Data-structure
//! properties are in `properties.rs`, CLI parsing in `properties3.rs`.

mod common;

use common::{cases, graph, SEED};
use noswalker::apps::{BasicRw, Node2Vec, RandomWalkWithRestart};
use noswalker::core::parallel::ParallelRunner;
use noswalker::core::{EngineOptions, NosWalkerEngine, OnDiskGraph};
use noswalker::graph::generators;
use noswalker::storage::{MemDevice, MemoryBudget, SimSsd, SsdProfile};
use rand::Rng;
use std::sync::Arc;

#[test]
fn engine_terminates_and_conserves_walkers() {
    cases(64, SEED, |rng| {
        let csr = graph(rng, 48, 0);
        let n = csr.num_vertices();
        let walkers = rng.gen_range(1u64..200);
        let length = rng.gen_range(1u32..12);
        let block_bytes = rng.gen_range(8u64..256);
        let pool = rng.gen_range(1usize..64);
        let knobs = rng.gen_range(0u8..8);
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
        let engine =
            NosWalkerEngine::new(Arc::clone(&app), graph, opts, MemoryBudget::new(1 << 20));
        let m = engine.run(9).unwrap();
        assert_eq!(m.walkers_finished, walkers);
        assert!(m.steps <= walkers * length as u64);
        assert_eq!(m.steps, app.steps_taken());
    });
}

#[test]
fn noswalker_is_deterministic_under_arbitrary_configs() {
    // 64 KiB of edges in 2 KiB blocks: the small budgets are out of
    // core, so walkers park on dry buffers and wait for loads, and a
    // small `alpha` turns those loads fine-grained. A parked walker
    // nobody wakes must fail here (the engine's own `debug_assert!`s,
    // or the walker count below), not hang a benchmark.
    let csr = generators::uniform_degree(2048, 8, 5);
    let ladder = [
        EngineOptions::base(),
        EngineOptions::with_walker_management(),
        EngineOptions::with_shrink_block(),
        EngineOptions::full(),
    ];
    cases(64, SEED, |rng| {
        let seed = rng.gen_range(0u64..1000);
        let walkers = rng.gen_range(1u64..300);
        let length = rng.gen_range(1u32..10);
        let budget_kib = rng.gen_range(24u64..96);
        let pool = rng.gen_range(1usize..96);
        let rung = rng.gen_range(0usize..8);
        let alpha = rng.gen_range(0u64..5);
        let opts = EngineOptions {
            walker_pool_size: pool,
            alpha,
            ..ladder[rung.min(3)].clone()
        };
        let run = || {
            let device = Arc::new(SimSsd::new(SsdProfile::nvme_p4618()));
            let graph = Arc::new(OnDiskGraph::store(&csr, device, 2048).unwrap());
            let app = Arc::new(BasicRw::new(walkers, length, 2048));
            NosWalkerEngine::new(
                app,
                graph,
                opts.clone(),
                MemoryBudget::new(budget_kib << 10),
            )
            .run(seed)
            .unwrap()
        };
        let (mut a, mut b) = (run(), run());
        assert_eq!(a.walkers_finished + a.walkers_cancelled, walkers);
        assert_eq!(a.steps, b.steps);
        a.wall_ns = 0;
        b.wall_ns = 0;
        assert_eq!(a, b);
    });
}

#[test]
fn second_order_engine_terminates_and_is_deterministic() {
    cases(48, SEED, |rng| {
        let scale = rng.gen_range(5u32..8);
        let walks_per_vertex = rng.gen_range(1u32..3);
        let length = rng.gen_range(1u32..6);
        let seed = rng.gen_range(0u64..500);
        let csr = generators::rmat(scale, 4, generators::RmatParams::default(), 13).to_undirected();
        let n = csr.num_vertices();
        let run = || {
            let device = Arc::new(SimSsd::new(SsdProfile::nvme_p4618()));
            let graph = Arc::new(OnDiskGraph::store(&csr, device, 256).unwrap());
            let app = Arc::new(Node2Vec::new(n, walks_per_vertex, length, 2.0, 0.5));
            NosWalkerEngine::new(
                app,
                graph,
                EngineOptions::default(),
                MemoryBudget::new(1 << 20),
            )
            .run_second_order(seed)
            .unwrap()
        };
        let (mut a, mut b) = (run(), run());
        assert_eq!(a.walkers_finished, (n as u64) * walks_per_vertex as u64);
        assert!(a.steps <= a.walkers_finished * length as u64);
        assert_eq!(a.steps, a.accepts);
        a.wall_ns = 0;
        b.wall_ns = 0;
        assert_eq!(a, b);
    });
}

#[test]
fn restart_walks_complete_under_any_restart_probability() {
    let csr = generators::uniform_degree(128, 4, 3);
    cases(48, SEED, |rng| {
        let c = rng.gen_range(0.0f32..0.95);
        let walkers = rng.gen_range(1u64..80);
        let seed = rng.gen_range(0u64..200);
        let device = Arc::new(SimSsd::new(SsdProfile::nvme_p4618()));
        let graph = Arc::new(OnDiskGraph::store(&csr, device, 512).unwrap());
        let sources = vec![0u32, 7, 99];
        let app = Arc::new(RandomWalkWithRestart::new(sources, walkers, c, 12, 128));
        let engine = NosWalkerEngine::new(
            Arc::clone(&app),
            graph,
            EngineOptions::default(),
            MemoryBudget::new(1 << 20),
        );
        let m = engine.run(seed).unwrap();
        assert_eq!(m.walkers_finished, 3 * walkers);
        // Uniform graph, no dead ends: every hop (restart or move) counts.
        assert_eq!(m.steps, 3 * walkers * 12);
        assert!(app.restarts() <= m.steps);
        if c == 0.0 {
            assert_eq!(app.restarts(), 0);
        }
    });
}

/// Walker and step conservation must hold for any worker count.
#[test]
fn parallel_runner_conserves_for_any_worker_count() {
    let csr = generators::uniform_degree(256, 4, 3);
    cases(64, SEED, |rng| {
        let workers = rng.gen_range(1usize..12);
        let walkers = rng.gen_range(1u64..400);
        let length = rng.gen_range(1u32..7);
        let seed = rng.gen_range(0u64..100);
        let device = Arc::new(SimSsd::new(SsdProfile::nvme_p4618()));
        let graph = Arc::new(OnDiskGraph::store(&csr, device, 512).unwrap());
        let app = Arc::new(BasicRw::new(walkers, length, 256));
        let m = ParallelRunner::new(
            Arc::clone(&app),
            graph,
            EngineOptions::default(),
            MemoryBudget::new(1 << 20),
        )
        .run(seed, workers)
        .unwrap();
        assert_eq!(m.walkers_finished, walkers);
        assert_eq!(m.steps, walkers * length as u64);
        assert_eq!(m.steps, app.steps_taken());
    });
}
