//! The real concurrent runner must produce the same walk *semantics* as
//! the deterministic simulation engine — thread interleavings may permute
//! RNG draws, but conservation laws and stationary statistics must agree.

use noswalker::apps::{BasicRw, Ppr};
use noswalker::core::apps_prelude::*;
use noswalker::core::parallel::ParallelRunner;
use noswalker::core::{EngineOptions, NosWalkerEngine, OnDiskGraph};
use noswalker::graph::generators::{self, RmatParams};
use noswalker::graph::Csr;
use noswalker::storage::{MemoryBudget, SimSsd, SsdProfile};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn graph() -> Csr {
    generators::rmat(12, 12, RmatParams::default(), 55)
}

fn on_device(csr: &Csr) -> Arc<OnDiskGraph> {
    let device = Arc::new(SimSsd::new(SsdProfile::nvme_p4618()));
    Arc::new(OnDiskGraph::store(csr, device, csr.edge_region_bytes() / 24).unwrap())
}

#[test]
fn step_conservation_matches_sequential_engine() {
    // Uniform graph → exact step counts on both execution modes.
    let csr = generators::uniform_degree(1 << 11, 6, 9);
    let app = Arc::new(BasicRw::new(4000, 7, csr.num_vertices()));
    let m_par = ParallelRunner::new(
        Arc::clone(&app),
        on_device(&csr),
        EngineOptions::default(),
        MemoryBudget::new(1 << 20),
    )
    .run(3, 4)
    .unwrap();
    let app2 = Arc::new(BasicRw::new(4000, 7, csr.num_vertices()));
    let m_seq = NosWalkerEngine::new(
        Arc::clone(&app2),
        on_device(&csr),
        EngineOptions::default(),
        MemoryBudget::new(1 << 20),
    )
    .run(3)
    .unwrap();
    assert_eq!(m_par.steps, 4000 * 7);
    assert_eq!(m_seq.steps, 4000 * 7);
    assert_eq!(m_par.walkers_finished, m_seq.walkers_finished);
}

#[test]
fn ppr_statistics_agree_with_sequential_engine() {
    let csr = graph();
    let sources = vec![2u32, 33, 444];
    let make = || Arc::new(Ppr::new(sources.clone(), 3000, 10, csr.num_vertices()));

    let par_app = make();
    ParallelRunner::new(
        Arc::clone(&par_app),
        on_device(&csr),
        EngineOptions::default(),
        MemoryBudget::new(1 << 20),
    )
    .run(7, 4)
    .unwrap();

    let seq_app = make();
    NosWalkerEngine::new(
        Arc::clone(&seq_app),
        on_device(&csr),
        EngineOptions::default(),
        MemoryBudget::new(1 << 20),
    )
    .run(7)
    .unwrap();

    let (pe, se) = (par_app.estimate(), seq_app.estimate());
    let l1: f64 = pe.iter().zip(&se).map(|(a, b)| (a - b).abs()).sum();
    assert!(
        l1 < 0.25,
        "L1 distance {l1} between parallel and sequential"
    );
    assert_eq!(
        par_app.top_k(1)[0].0,
        seq_app.top_k(1)[0].0,
        "top hub differs"
    );
}

/// A fixed-length uniform walk that histograms every vertex it lands on.
#[derive(Debug)]
struct VisitCount {
    walkers: u64,
    length: u32,
    n: u32,
    visits: Vec<AtomicU64>,
}

impl VisitCount {
    fn new(walkers: u64, length: u32, n: usize) -> Arc<Self> {
        Arc::new(VisitCount {
            walkers,
            length,
            n: n as u32,
            visits: (0..n).map(|_| AtomicU64::new(0)).collect(),
        })
    }

    fn distribution(&self) -> Vec<f64> {
        let total: u64 = self.visits.iter().map(|v| v.load(Ordering::Relaxed)).sum();
        self.visits
            .iter()
            .map(|v| v.load(Ordering::Relaxed) as f64 / total.max(1) as f64)
            .collect()
    }
}

impl Walk for VisitCount {
    type Walker = (VertexId, u32);
    fn total_walkers(&self) -> u64 {
        self.walkers
    }
    fn generate(&self, n: u64, _r: &mut WalkRng) -> Self::Walker {
        ((n % self.n as u64) as VertexId, 0)
    }
    fn location(&self, w: &Self::Walker) -> VertexId {
        w.0
    }
    fn is_active(&self, w: &Self::Walker) -> bool {
        w.1 < self.length
    }
    fn sample(&self, v: &VertexEdges<'_>, r: &mut WalkRng) -> VertexId {
        uniform_sample(v, r)
    }
    fn action(&self, w: &mut Self::Walker, next: VertexId, _r: &mut WalkRng) -> bool {
        self.visits[next as usize].fetch_add(1, Ordering::Relaxed);
        *w = (next, w.1 + 1);
        true
    }
}

/// The batched step kernel (per-bucket pool draining, lock-free claims)
/// must visit vertices with the same stationary distribution as the
/// sequential engine's one-walker-at-a-time loop: with many short walkers
/// on coarse blocks, and with a few long walkers at a tight budget, where
/// both engines read 4 KiB page batches (ShrinkBlock, §3.3.1) and a
/// walker at a vertex the batch missed waits for the next one.
#[test]
fn batched_kernel_matches_sequential_distribution() {
    let sparse = graph().to_undirected();
    let sparse_budget = sparse.edge_region_bytes() / 4;
    for (cell, csr, walkers, length, budget) in [
        ("dense", graph(), 6000, 12, 1 << 20),
        ("sparse", sparse, 16, 12_000, sparse_budget),
    ] {
        let par_app = VisitCount::new(walkers, length, csr.num_vertices());
        let m_par = ParallelRunner::new(
            Arc::clone(&par_app),
            on_device(&csr),
            EngineOptions::default(),
            MemoryBudget::new(budget),
        )
        .run(21, 4)
        .unwrap();

        let seq_app = VisitCount::new(walkers, length, csr.num_vertices());
        let m_seq = NosWalkerEngine::new(
            Arc::clone(&seq_app),
            on_device(&csr),
            EngineOptions::default(),
            MemoryBudget::new(budget),
        )
        .run(21)
        .unwrap();

        // Every walker completes on both engines; step totals differ only
        // by which RNG draws hit dead ends, so compare distributions.
        assert_eq!(m_par.walkers_finished, walkers, "{cell}");
        assert_eq!(m_seq.walkers_finished, walkers, "{cell}");
        if cell == "sparse" {
            assert_eq!(
                m_par.fine_mode_at_step,
                Some(0),
                "par reads page batches throughout"
            );
        }
        let (pd, sd) = (par_app.distribution(), seq_app.distribution());
        let l1: f64 = pd.iter().zip(&sd).map(|(a, b)| (a - b).abs()).sum();
        assert!(
            l1 < 0.2,
            "{cell}: L1 distance {l1} between batched-kernel and sequential visit distributions"
        );
    }
}

#[test]
fn worker_count_does_not_change_conservation() {
    let csr = generators::uniform_degree(1 << 10, 4, 5);
    for workers in [1usize, 2, 3, 8] {
        let app = Arc::new(BasicRw::new(1500, 5, csr.num_vertices()));
        let m = ParallelRunner::new(
            app,
            on_device(&csr),
            EngineOptions::default(),
            MemoryBudget::new(1 << 20),
        )
        .run(1, workers)
        .unwrap();
        assert_eq!(m.steps, 1500 * 5, "workers = {workers}");
        assert_eq!(m.walkers_finished, 1500, "workers = {workers}");
    }
}

/// A fixed-length walk over a graph whose every vertex has one heavy and
/// one light out-edge, counting how often the heavy one is taken. Samples
/// by weight wherever the edge view carries weights.
#[derive(Debug)]
struct HeavyShare {
    walkers: u64,
    length: u32,
    heavy: Vec<VertexId>,
    heavy_taken: AtomicU64,
}

impl HeavyShare {
    fn share(&self, steps: u64) -> f64 {
        self.heavy_taken.load(Ordering::Relaxed) as f64 / steps as f64
    }
}

impl Walk for HeavyShare {
    type Walker = (VertexId, u32);
    fn total_walkers(&self) -> u64 {
        self.walkers
    }
    fn generate(&self, n: u64, _r: &mut WalkRng) -> Self::Walker {
        ((n % self.heavy.len() as u64) as VertexId, 0)
    }
    fn location(&self, w: &Self::Walker) -> VertexId {
        w.0
    }
    fn is_active(&self, w: &Self::Walker) -> bool {
        w.1 < self.length
    }
    fn sample(&self, v: &VertexEdges<'_>, r: &mut WalkRng) -> VertexId {
        if v.weight(0).is_some() {
            noswalker::core::walk::weighted_sample(v, r)
        } else {
            uniform_sample(v, r)
        }
    }
    fn action(&self, w: &mut Self::Walker, next: VertexId, _r: &mut WalkRng) -> bool {
        if next == self.heavy[w.0 as usize] {
            self.heavy_taken.fetch_add(1, Ordering::Relaxed);
        }
        *w = (next, w.1 + 1);
        true
    }
}

/// Raw-retained vertices served from the published pool must keep their
/// edge weights: on a 9:1 graph under a budget (the size of the edge
/// region) where the pool serves a real share of the steps, the parallel
/// runner takes the heavy edge as often as the sequential engine does.
#[test]
fn weighted_raw_retention_keeps_edge_weights() {
    let n: u32 = 4096;
    let heavy: Vec<VertexId> = (0..n).map(|v| v.wrapping_mul(2_654_435_761) % n).collect();
    let mut b = noswalker::graph::CsrBuilder::new(n as usize);
    for v in 0..n {
        let h = heavy[v as usize];
        let l = v.wrapping_mul(40_503).wrapping_add(977) % n;
        b.push_edge(v, h);
        b.push_edge(v, if l == h { (l + 1) % n } else { l });
    }
    let csr = b.build();
    let weights: Vec<f32> = (0..n)
        .flat_map(|v| csr.neighbors(v).iter().map(move |&t| (v, t)))
        .map(|(v, t)| if t == heavy[v as usize] { 9.0 } else { 1.0 })
        .collect();
    let csr = csr.with_weights(weights);
    let (walkers, length) = (40_000u64, 10u32);
    let steps = walkers * length as u64;
    let make = || {
        Arc::new(HeavyShare {
            walkers,
            length,
            heavy: heavy.clone(),
            heavy_taken: AtomicU64::new(0),
        })
    };

    let seq_app = make();
    let m_seq = NosWalkerEngine::new(
        Arc::clone(&seq_app),
        on_device(&csr),
        EngineOptions::default(),
        MemoryBudget::new(64 << 10),
    )
    .run(5)
    .unwrap();
    assert_eq!(m_seq.steps, steps);
    let seq_share = seq_app.share(steps);
    assert!((seq_share - 0.9).abs() < 0.01, "sequential {seq_share}");

    for workers in [1usize, 2] {
        let par_app = make();
        let m_par = ParallelRunner::new(
            Arc::clone(&par_app),
            on_device(&csr),
            EngineOptions::default(),
            MemoryBudget::new(64 << 10),
        )
        .run(5, workers)
        .unwrap();
        assert_eq!(m_par.steps, steps);
        assert!(
            m_par.steps_on_raw * 20 >= steps,
            "only {} of {steps} steps on raw slots at {workers} workers",
            m_par.steps_on_raw
        );
        let par_share = par_app.share(steps);
        assert!(
            (par_share - seq_share).abs() < 0.01,
            "heavy-edge share {par_share} at {workers} workers vs sequential {seq_share}"
        );
    }
}

/// The two ratchets of the former `noswalker-bench throughput` gate, on
/// its exact tiny cell and at one worker only: that pipeline is
/// FIFO-deterministic (0.702 and 0.315 on every run), while multi-worker
/// interleaving is the OS scheduler's and is measured at scale by
/// `benchmark/`. Both engines are modeled-I/O-bound here, so the ratio
/// tracks bytes moved (coarse reloads); `pool_stalls` are attempts that
/// found a live pre-sample generation already dry, the quota planner's miss
/// rate. Both engines count a stalled visit once per attempt, so their
/// per-step stall rates must agree within 1.25× (0.271 sequential, 0.315
/// 1-worker). Counting one tick per scheduler pass a walker waits read 1.430
/// for the sequential engine; moving to one tick per attempt cut its modeled
/// rate on this cell by 5 %, taking the 1-worker/sequential ratio from
/// 0.660 to 0.696; reading 4 KiB page batches for the last few walkers,
/// as the sequential engine does, took it to 0.702.
/// Raise the floor and lower the ceiling when the kernel improves; never
/// loosen either without a recorded regression analysis.
#[test]
fn one_worker_pipeline_overhead_and_stall_rate_stay_ratcheted() {
    use noswalker_bench::datasets::{self, Scale};
    use noswalker_bench::runner::env;
    const RATIO_FLOOR: f64 = 0.65;
    const STALL_CEILING: f64 = 0.35;

    let d = datasets::get("k30", Scale::Tiny);
    let budget = datasets::default_budget(Scale::Tiny);
    let walkers = Scale::Tiny.walkers(100_000);
    let make = || Arc::new(BasicRw::new(walkers, 10, d.csr.num_vertices()));

    let e = env(&d, budget);
    let m_seq = NosWalkerEngine::new(make(), e.graph, EngineOptions::default(), e.budget)
        .run(29)
        .unwrap();
    let e = env(&d, budget);
    let m_par = ParallelRunner::new(make(), e.graph, EngineOptions::default(), e.budget)
        .run(29, 1)
        .unwrap();

    let ratio = m_par.steps_per_sec() / m_seq.steps_per_sec();
    assert!(
        ratio >= RATIO_FLOOR,
        "1-worker/sequential modeled steps/s {ratio:.3} under the floor {RATIO_FLOOR}"
    );
    let stall_rate = m_par.pool_stalls as f64 / m_par.steps.max(1) as f64;
    assert!(
        stall_rate <= STALL_CEILING,
        "1-worker pool_stalls/steps {stall_rate:.3} over the ceiling {STALL_CEILING}"
    );
    let seq_rate = m_seq.pool_stalls as f64 / m_seq.steps.max(1) as f64;
    let spread = seq_rate.max(stall_rate) / seq_rate.min(stall_rate);
    assert!(
        spread <= 1.25,
        "stall rates disagree: sequential {seq_rate:.3} vs 1-worker {stall_rate:.3} per step"
    );
}

/// The sparse sibling of the ratchet above: 40 walkers of 80 steps on a
/// 2 MB edge region in 32 blocks at a quarter of it as budget, so
/// α·|Wa|·4KiB is under the edge region before the first load and both
/// engines read only 4 KiB page batches. At one worker the fine pipeline
/// is as FIFO-deterministic as the coarse one: the 1-worker/sequential
/// modeled steps/s ratio reads 0.904 on every run, against 0.237 when the
/// parallel runner reloaded whole blocks. Raise the floor when the kernel
/// improves; never loosen it without a recorded regression analysis.
#[test]
fn one_worker_fine_mode_ratio_stays_ratcheted() {
    const RATIO_FLOOR: f64 = 0.85;

    let csr = generators::rmat(15, 16, RmatParams::default(), 55);
    let budget = csr.edge_region_bytes() / 4;
    let make = || Arc::new(BasicRw::new(40, 80, csr.num_vertices()));
    let store = || {
        let device = Arc::new(SimSsd::new(SsdProfile::nvme_p4618()));
        Arc::new(OnDiskGraph::store(&csr, device, csr.edge_region_bytes() / 32).unwrap())
    };
    let opts = EngineOptions::default();
    let m_seq = NosWalkerEngine::new(make(), store(), opts.clone(), MemoryBudget::new(budget))
        .run(29)
        .unwrap();
    let m_par = ParallelRunner::new(make(), store(), opts, MemoryBudget::new(budget))
        .run(29, 1)
        .unwrap();

    for m in [&m_seq, &m_par] {
        assert_eq!(m.fine_mode_at_step, Some(0));
        assert_eq!(m.coarse_loads, 0);
        assert!(m.fine_loads > 0);
    }
    let ratio = m_par.steps_per_sec() / m_seq.steps_per_sec();
    assert!(
        ratio >= RATIO_FLOOR,
        "fine-mode 1-worker/sequential modeled steps/s {ratio:.3} under the floor {RATIO_FLOOR}"
    );
}
