//! Scheduler parity oracle: the sequential engine's scheduler may change
//! how much host work a run costs, never what the run simulates. Every
//! constant below lists every `RunMetrics` counter except `wall_ns`. They
//! were first recorded with the polling `presample_pass` that re-visited
//! every waiting walker on every pass, and the park-once scheduler kept
//! them exactly. They were re-recorded once, when a stalled visit became
//! one `cnt` tick per attempt instead of one per pass a walker waits:
//! that changes the quota plans of every cell with sampled slots (a, b,
//! c, e, f, h), while the all-raw cells d and g only lost the retired
//! per-pass stall field. They were re-recorded a second time when a
//! fine-mode load began reading its block whole where that funds the
//! block's next whole-block pre-sample generation at no more than twice
//! the page batch's device price: cells a, c, d, f and h each trade some
//! page batches for whole-block reads (coarse loads +1, +5, +3, +2, +2),
//! which moves their load order, refills and trace, while b, e and g
//! never meet such a load. They were re-recorded a third time when the
//! sequential engine began moving budget between its walker pool and its
//! pre-sample pool at every load (the "Adjust" arrow): in cells a, f and
//! h loaded edges serve more steps per byte than the pre-samples, so the
//! walker pool grows past its opening quota and each cell loads less
//! (coarse loads 309 → 227, 2,953 → 2,218, 334 → 264). In b, c, e and g
//! the opening quota already holds every walker, and in d (all-raw at
//! 24 KiB) no generation is held while walkers are still being generated,
//! so the split holds. A cell that moves now means the simulation
//! changed — bucket order, stall ticks, quota plans, load order or RNG
//! consumption — and is a bug in the scheduler, not a number to re-record.

use noswalker::apps::{BasicRw, Node2Vec, WeightedRw};
use noswalker::core::apps_prelude::*;
use noswalker::core::audit::MemorySink;
use noswalker::core::{
    EngineOptions, NosWalkerEngine, OnDiskGraph, QuerySpec, RunMetrics, StaticQuerySource,
};
use noswalker::graph::generators::{self, RmatParams};
use noswalker::graph::Csr;
use noswalker::serve::{Backend, ServeEngine, ServeOptions};
use noswalker::storage::{MemoryBudget, SimSsd, SsdProfile};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Every counter but `wall_ns`, as `name=value` pairs in declaration
/// order, then the event count and an FNV-1a hash of the run's whole trace
/// — which pins what the counters only sum: the order of loads, each
/// refill's slots and draws, every stall interval.
fn fingerprint(m: &RunMetrics, trace: &MemorySink) -> String {
    let mut fields: Vec<String> = m
        .snapshot_fields()
        .into_iter()
        .filter(|(name, _)| *name != "wall_ns")
        .map(|(name, value)| format!("{name}={value}"))
        .collect();
    let hash = trace
        .to_json()
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
    fields.push(format!("trace={}:{hash:016x}", trace.events.len()));
    fields.join(" ")
}

fn on_device(csr: &Csr, block_bytes: u64) -> Arc<OnDiskGraph> {
    let device = Arc::new(SimSsd::new(SsdProfile::nvme_p4618()));
    Arc::new(OnDiskGraph::store(csr, device, block_bytes).unwrap())
}

/// The `presample_knob_reduces_io` graph: ~128 KiB of edges in 4 KiB blocks.
fn ooc_graph() -> Csr {
    generators::rmat(12, 8, RmatParams::default(), 11)
}

fn basic_cell(opts: EngineOptions, budget_bytes: u64) -> String {
    let csr = ooc_graph();
    let app = Arc::new(BasicRw::new(2000, 10, csr.num_vertices()));
    let engine = NosWalkerEngine::new(
        app,
        on_device(&csr, 4096),
        opts,
        MemoryBudget::new(budget_bytes),
    );
    let mut sink = MemorySink::new();
    let m = engine.run_with_sink(3, Some(&mut sink)).unwrap();
    fingerprint(&m, &sink)
}

#[test]
fn a_out_of_core() {
    assert_eq!(basic_cell(EngineOptions::full(), 24 << 10), CELL_A);
}

#[test]
fn b_in_memory() {
    let budget = 2 * ooc_graph().edge_region_bytes();
    assert_eq!(basic_cell(EngineOptions::full(), budget), CELL_B);
}

#[test]
fn c_fine_mode() {
    // The `fine_mode_engages_for_sparse_walkers` cell.
    let mut opts = EngineOptions::full();
    opts.walker_pool_size = 64;
    let csr = generators::rmat(15, 16, RmatParams::default(), 5);
    let app = Arc::new(BasicRw::new(50, 10, csr.num_vertices()));
    let engine = NosWalkerEngine::new(
        app,
        on_device(&csr, 64 << 10),
        opts,
        MemoryBudget::new(512 << 10),
    );
    let mut sink = MemorySink::new();
    let m = engine.run_with_sink(9, Some(&mut sink)).unwrap();
    assert!(m.fine_loads > 0, "the cell must exercise fine loads");
    assert_eq!(fingerprint(&m, &sink), CELL_C);
}

#[test]
fn d_all_raw_as_serve_runs_it() {
    let mut opts = EngineOptions::full();
    opts.low_degree_threshold = u32::MAX;
    assert_eq!(basic_cell(opts, 24 << 10), CELL_D);
}

#[test]
fn e_weighted() {
    let csr =
        generators::with_random_weights(generators::rmat(11, 8, RmatParams::default(), 13), 13);
    let app = Arc::new(WeightedRw::new(2000, 8, csr.num_vertices()));
    let engine = NosWalkerEngine::new(
        app,
        on_device(&csr, 4096),
        EngineOptions::default(),
        MemoryBudget::new(64 << 10),
    );
    let mut sink = MemorySink::new();
    let m = engine.run_with_sink(6, Some(&mut sink)).unwrap();
    assert_eq!(fingerprint(&m, &sink), CELL_E);
}

#[test]
fn f_second_order() {
    let csr = generators::rmat(10, 8, RmatParams::default(), 21).to_undirected();
    let app = Arc::new(Node2Vec::new(csr.num_vertices(), 2, 8, 2.0, 0.5));
    let engine = NosWalkerEngine::new(
        app,
        on_device(&csr, csr.edge_region_bytes() / 16),
        EngineOptions::default(),
        MemoryBudget::new(csr.edge_region_bytes() / 4),
    );
    let mut sink = MemorySink::new();
    let m = engine
        .run_second_order_with_sink(5, Some(&mut sink))
        .unwrap();
    assert!(m.pool_stalls > 0, "the cell must exercise stalled visits");
    assert_eq!(fingerprint(&m, &sink), CELL_F);
}

#[test]
fn g_serve_allowance_runs_out_mid_round() {
    // The set-up of `serve_multiquery::tight_deadlines_cancel_mid_run_…`,
    // plus an unconstrained query sharing the rounds.
    let csr = generators::rmat(10, 10, RmatParams::default(), 41);
    let graph = on_device(&csr, csr.edge_region_bytes() / 16);
    let budget = MemoryBudget::new((csr.edge_region_bytes() / 4).max(64 << 10));
    let opts = ServeOptions {
        backend: Backend::Seq,
        ..ServeOptions::default()
    };
    let spec = |id, class: &str, walkers, deadline_ns| QuerySpec {
        id,
        class: class.to_string(),
        walkers,
        walk_length: 8,
        deadline_ns,
        arrival_ns: 0,
    };
    let mut src = StaticQuerySource::new(vec![
        spec(1, "deepwalk:0", 500, Some(12_000)),
        spec(2, "basic", 600, None),
    ]);
    let mut sink = MemorySink::new();
    let report = ServeEngine::new(graph, budget, opts)
        .run(&mut src, Some(&mut sink))
        .expect("serve");
    assert!(
        report.metrics.walkers_cancelled > 0,
        "must cancel mid-round"
    );
    let mut got: Vec<String> = report
        .outcomes
        .iter()
        .map(|o| format!("q{} digest={} latency={:?}", o.id, o.digest, o.latency_ns))
        .collect();
    got.push(format!("rounds={} end_ns={}", report.rounds, report.end_ns));
    got.push(fingerprint(&report.metrics, &sink));
    assert_eq!(got, CELL_G);
}

/// Four "queries" of plain uniform walkers; a query's shared step
/// allowance running out cancels its remaining walkers wherever they are —
/// including parked on a dry pre-sample buffer, the case `RoundApp` can
/// only reach in fine mode.
#[derive(Debug)]
struct Cancelling {
    walkers: u64,
    num_vertices: u32,
    taken: [AtomicU64; 4],
    cancelled: [AtomicBool; 4],
    epoch: AtomicU64,
}

#[derive(Debug, Clone)]
struct CancellingWalker {
    at: VertexId,
    step: u32,
    query: usize,
}

impl Cancelling {
    const LENGTH: u32 = 10;
    const ALLOWANCE: [u64; 4] = [u64::MAX, 1200, 2500, 400];
}

impl Walk for Cancelling {
    type Walker = CancellingWalker;
    fn total_walkers(&self) -> u64 {
        self.walkers
    }
    fn generate(&self, n: u64, _rng: &mut WalkRng) -> CancellingWalker {
        CancellingWalker {
            at: (n % self.num_vertices as u64) as VertexId,
            step: 0,
            query: (n % 4) as usize,
        }
    }
    fn location(&self, w: &CancellingWalker) -> VertexId {
        w.at
    }
    fn is_active(&self, w: &CancellingWalker) -> bool {
        w.step < Self::LENGTH && !self.cancelled[w.query].load(Ordering::Relaxed)
    }
    fn sample(&self, v: &VertexEdges<'_>, rng: &mut WalkRng) -> VertexId {
        uniform_sample(v, rng)
    }
    fn action(&self, w: &mut CancellingWalker, next: VertexId, _rng: &mut WalkRng) -> bool {
        let taken = self.taken[w.query].fetch_add(1, Ordering::Relaxed) + 1;
        if taken > Self::ALLOWANCE[w.query]
            && !self.cancelled[w.query].swap(true, Ordering::Relaxed)
        {
            self.epoch.fetch_add(1, Ordering::Relaxed);
        }
        w.at = next;
        w.step += 1;
        true
    }
    fn is_cancelled(&self, w: &CancellingWalker) -> bool {
        w.step < Self::LENGTH && self.cancelled[w.query].load(Ordering::Relaxed)
    }
    fn cancel_epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }
}

#[test]
fn h_cancellation_reaches_parked_walkers() {
    let csr = ooc_graph();
    let app = Arc::new(Cancelling {
        walkers: 2000,
        num_vertices: csr.num_vertices() as u32,
        taken: Default::default(),
        cancelled: Default::default(),
        epoch: AtomicU64::new(0),
    });
    let engine = NosWalkerEngine::new(
        Arc::clone(&app),
        on_device(&csr, 4096),
        EngineOptions::full(),
        MemoryBudget::new(24 << 10),
    );
    let mut sink = MemorySink::new();
    let m = engine.run_with_sink(3, Some(&mut sink)).unwrap();
    assert_eq!(app.epoch.load(Ordering::Relaxed), 3);
    assert!(m.walkers_cancelled > 0 && m.pool_stalls > 0);
    assert_eq!(fingerprint(&m, &sink), CELL_H);
}

const CELL_A: &str =
    "sim_ns=388187 stall_ns=267056 io_busy_ns=388178 steps=13365 steps_on_block=12804 \
    steps_on_presample=556 steps_on_raw=5 edge_bytes_loaded=926784 edges_loaded=231696 \
    io_ops=233 swap_bytes=0 coarse_loads=227 fine_loads=6 walkers_finished=2000 \
    walkers_cancelled=0 fine_mode_at_step=13358 presamples_filled=979 presamples_consumed=556 \
    pool_publishes=0 pool_stalls=2649 pool_deferrals=0 pool_attempts=2649 claims_burned=0 \
    prefetch_hits=0 prefetch_wasted=0 walkers_emigrated=0 walkers_immigrated=0 accepts=0 \
    rejects=0 peak_memory=24568 trace=737:c436e2205e537056";
const CELL_B: &str =
    "sim_ns=171091 stall_ns=4783 io_busy_ns=59976 steps=13612 steps_on_block=5839 \
    steps_on_presample=4477 steps_on_raw=3296 edge_bytes_loaded=142704 edges_loaded=35676 \
    io_ops=36 swap_bytes=0 coarse_loads=34 fine_loads=2 walkers_finished=2000 \
    walkers_cancelled=0 fine_mode_at_step=13582 presamples_filled=26377 \
    presamples_consumed=4477 pool_publishes=0 pool_stalls=374 pool_deferrals=0 \
    pool_attempts=374 claims_burned=0 prefetch_hits=0 prefetch_wasted=0 \
    walkers_emigrated=0 walkers_immigrated=0 accepts=0 rejects=0 peak_memory=262141 \
    trace=105:187f394fb76baf34";
const CELL_C: &str =
    "sim_ns=656516 stall_ns=609238 io_busy_ns=656489 steps=474 steps_on_block=414 \
    steps_on_presample=48 steps_on_raw=12 edge_bytes_loaded=1913248 edges_loaded=478312 \
    io_ops=270 swap_bytes=0 coarse_loads=5 fine_loads=117 walkers_finished=50 \
    walkers_cancelled=0 fine_mode_at_step=0 presamples_filled=21554 presamples_consumed=48 \
    pool_publishes=0 pool_stalls=325 pool_deferrals=0 pool_attempts=325 claims_burned=0 \
    prefetch_hits=0 prefetch_wasted=0 walkers_emigrated=0 walkers_immigrated=0 accepts=0 \
    rejects=0 peak_memory=510965 trace=276:76a3c2530e486d03";
const CELL_D: &str =
    "sim_ns=613097 stall_ns=491759 io_busy_ns=613088 steps=13482 steps_on_block=13477 \
    steps_on_presample=0 steps_on_raw=5 edge_bytes_loaded=1469328 edges_loaded=367332 \
    io_ops=368 swap_bytes=0 coarse_loads=362 fine_loads=6 walkers_finished=2000 \
    walkers_cancelled=0 fine_mode_at_step=13471 presamples_filled=0 \
    presamples_consumed=0 pool_publishes=0 pool_stalls=0 pool_deferrals=0 \
    pool_attempts=0 claims_burned=0 prefetch_hits=0 prefetch_wasted=0 \
    walkers_emigrated=0 walkers_immigrated=0 accepts=0 rejects=0 peak_memory=24564 \
    trace=1109:b8b4e52631d7f4c5";
const CELL_E: &str =
    "sim_ns=267359 stall_ns=174689 io_busy_ns=267350 steps=9820 steps_on_block=6789 \
    steps_on_presample=2447 steps_on_raw=584 edge_bytes_loaded=611364 edges_loaded=50947 \
    io_ops=159 swap_bytes=0 coarse_loads=149 fine_loads=10 walkers_finished=2000 \
    walkers_cancelled=0 fine_mode_at_step=9805 presamples_filled=4592 \
    presamples_consumed=2447 pool_publishes=0 pool_stalls=3439 pool_deferrals=0 \
    pool_attempts=3439 claims_burned=0 prefetch_hits=0 prefetch_wasted=0 \
    walkers_emigrated=0 walkers_immigrated=0 accepts=0 rejects=0 peak_memory=65533 \
    trace=566:438812d6d1115c3e";
const CELL_F: &str =
    "sim_ns=3745380 stall_ns=3587799 io_busy_ns=3745168 steps=12775 steps_on_block=12775 \
    steps_on_presample=0 steps_on_raw=0 edge_bytes_loaded=6334852 edges_loaded=1583713 \
    io_ops=2248 swap_bytes=0 coarse_loads=2218 fine_loads=30 walkers_finished=2048 \
    walkers_cancelled=0 fine_mode_at_step=12769 presamples_filled=98 presamples_consumed=31 \
    pool_publishes=0 pool_stalls=18 pool_deferrals=0 pool_attempts=18 claims_burned=0 \
    prefetch_hits=0 prefetch_wasted=0 walkers_emigrated=0 walkers_immigrated=0 accepts=12775 \
    rejects=4695 peak_memory=12067 trace=6737:e09021fc80722167";
const CELL_G: [&str; 4] = [
    "q1 digest=13960382981112310547 latency=Some(35158)",
    "q2 digest=8347337876302802075 latency=Some(72067)",
    "rounds=2 end_ns=72067",
    "sim_ns=72067 stall_ns=22549 io_busy_ns=59976 steps=5502 steps_on_block=3128 \
     steps_on_presample=0 steps_on_raw=2374 edge_bytes_loaded=81920 edges_loaded=20480 \
     io_ops=36 swap_bytes=0 coarse_loads=36 fine_loads=0 walkers_finished=765 \
     walkers_cancelled=335 fine_mode_at_step=0 presamples_filled=0 \
     presamples_consumed=0 pool_publishes=0 pool_stalls=0 pool_deferrals=0 \
     pool_attempts=0 claims_burned=0 prefetch_hits=0 prefetch_wasted=0 \
     walkers_emigrated=0 walkers_immigrated=0 accepts=0 rejects=0 peak_memory=65472 \
     trace=5:94139cdbca236540",
];
const CELL_H: &str =
    "sim_ns=450072 stall_ns=376424 io_busy_ns=449820 steps=8130 steps_on_block=7710 \
    steps_on_presample=418 steps_on_raw=2 edge_bytes_loaded=1073344 edges_loaded=268336 \
    io_ops=270 swap_bytes=0 coarse_loads=264 fine_loads=6 walkers_finished=877 \
    walkers_cancelled=1123 fine_mode_at_step=8121 presamples_filled=657 \
    presamples_consumed=418 pool_publishes=0 pool_stalls=1281 pool_deferrals=0 \
    pool_attempts=1281 claims_burned=0 prefetch_hits=0 prefetch_wasted=0 walkers_emigrated=0 \
    walkers_immigrated=0 accepts=0 rejects=0 peak_memory=24560 trace=842:974881682181e75e";
