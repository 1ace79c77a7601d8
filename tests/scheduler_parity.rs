//! Scheduler parity oracle: the sequential engine's scheduler may change
//! how much host work a run costs, never what the run simulates. Every
//! constant below was recorded at the commit *before* the park-once
//! scheduler landed (the polling `presample_pass` that re-visited every
//! waiting walker on every pass) and lists every `RunMetrics` counter
//! except `wall_ns`. A cell that moves means the simulation changed —
//! bucket order, stall ticks, quota plans, load order or RNG consumption —
//! and is a bug in the scheduler, not a number to re-record.

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
    assert!(
        m.presample_stalls > 0,
        "the cell must exercise stalled visits"
    );
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
    assert!(m.walkers_cancelled > 0 && m.presample_stalls > 0);
    assert_eq!(fingerprint(&m, &sink), CELL_H);
}

const CELL_A: &str =
    "sim_ns=534795 stall_ns=413748 io_busy_ns=534786 steps=13381 steps_on_block=12307 \
    steps_on_presample=1055 steps_on_raw=19 edge_bytes_loaded=1275792 \
    edges_loaded=318948 io_ops=321 swap_bytes=0 coarse_loads=312 fine_loads=9 \
    walkers_finished=2000 walkers_cancelled=0 presample_stalls=37469 \
    fine_mode_at_step=13369 presamples_filled=1364 presamples_consumed=1055 \
    pool_publishes=0 pool_stalls=0 pool_deferrals=0 pool_attempts=0 claims_burned=0 \
    prefetch_hits=0 prefetch_wasted=0 walkers_emigrated=0 walkers_immigrated=0 accepts=0 \
    rejects=0 peak_memory=24572 trace=1013:c7568abce03bb15c";
const CELL_B: &str =
    "sim_ns=171046 stall_ns=4953 io_busy_ns=59976 steps=13597 steps_on_block=5837 \
    steps_on_presample=4464 steps_on_raw=3296 edge_bytes_loaded=143020 \
    edges_loaded=35755 io_ops=36 swap_bytes=0 coarse_loads=34 fine_loads=2 \
    walkers_finished=2000 walkers_cancelled=0 presample_stalls=1372 \
    fine_mode_at_step=13586 presamples_filled=26324 presamples_consumed=4464 \
    pool_publishes=0 pool_stalls=0 pool_deferrals=0 pool_attempts=0 claims_burned=0 \
    prefetch_hits=0 prefetch_wasted=0 walkers_emigrated=0 walkers_immigrated=0 accepts=0 \
    rejects=0 peak_memory=262141 trace=106:db3d3dded62e8fef";
const CELL_C: &str =
    "sim_ns=656886 stall_ns=606701 io_busy_ns=654980 steps=475 steps_on_block=437 \
    steps_on_presample=29 steps_on_raw=9 edge_bytes_loaded=1922748 edges_loaded=480687 \
    io_ops=279 swap_bytes=0 coarse_loads=0 fine_loads=138 walkers_finished=50 \
    walkers_cancelled=0 presample_stalls=2662 fine_mode_at_step=0 \
    presamples_filled=22984 presamples_consumed=29 pool_publishes=0 pool_stalls=0 \
    pool_deferrals=0 pool_attempts=0 claims_burned=0 prefetch_hits=0 prefetch_wasted=0 \
    walkers_emigrated=0 walkers_immigrated=0 accepts=0 rejects=0 peak_memory=297346 \
    trace=305:34640898da2029e2";
const CELL_D: &str =
    "sim_ns=613097 stall_ns=491759 io_busy_ns=613088 steps=13482 steps_on_block=13477 \
    steps_on_presample=0 steps_on_raw=5 edge_bytes_loaded=1469328 edges_loaded=367332 \
    io_ops=368 swap_bytes=0 coarse_loads=359 fine_loads=9 walkers_finished=2000 \
    walkers_cancelled=0 presample_stalls=0 fine_mode_at_step=13471 presamples_filled=0 \
    presamples_consumed=0 pool_publishes=0 pool_stalls=0 pool_deferrals=0 \
    pool_attempts=0 claims_burned=0 prefetch_hits=0 prefetch_wasted=0 \
    walkers_emigrated=0 walkers_immigrated=0 accepts=0 rejects=0 peak_memory=24564 \
    trace=1104:e65d51eb0246d78d";
const CELL_E: &str =
    "sim_ns=270691 stall_ns=178394 io_busy_ns=270682 steps=9783 steps_on_block=6797 \
    steps_on_presample=2400 steps_on_raw=586 edge_bytes_loaded=618972 edges_loaded=51581 \
    io_ops=161 swap_bytes=0 coarse_loads=152 fine_loads=9 walkers_finished=2000 \
    walkers_cancelled=0 presample_stalls=37592 fine_mode_at_step=9770 \
    presamples_filled=4525 presamples_consumed=2400 pool_publishes=0 pool_stalls=0 \
    pool_deferrals=0 pool_attempts=0 claims_burned=0 prefetch_hits=0 prefetch_wasted=0 \
    walkers_emigrated=0 walkers_immigrated=0 accepts=0 rejects=0 peak_memory=65534 \
    trace=573:05866dbf3c93d2ed";
const CELL_F: &str =
    "sim_ns=4940091 stall_ns=4781810 io_busy_ns=4939690 steps=12766 steps_on_block=12766 \
    steps_on_presample=0 steps_on_raw=0 edge_bytes_loaded=8375860 edges_loaded=2093965 \
    io_ops=2965 swap_bytes=0 coarse_loads=2948 fine_loads=17 walkers_finished=2048 \
    walkers_cancelled=0 presample_stalls=818 fine_mode_at_step=12760 \
    presamples_filled=185 presamples_consumed=57 pool_publishes=0 pool_stalls=0 \
    pool_deferrals=0 pool_attempts=0 claims_burned=0 prefetch_hits=0 prefetch_wasted=0 \
    walkers_emigrated=0 walkers_immigrated=0 accepts=12766 rejects=4748 \
    peak_memory=12067 trace=8907:c608c0f29928ae92";
const CELL_G: [&str; 4] = [
    "q1 digest=13960382981112310547 latency=Some(35158)",
    "q2 digest=8347337876302802075 latency=Some(72067)",
    "rounds=2 end_ns=72067",
    "sim_ns=72067 stall_ns=22549 io_busy_ns=59976 steps=5502 steps_on_block=3128 \
     steps_on_presample=0 steps_on_raw=2374 edge_bytes_loaded=81920 edges_loaded=20480 \
     io_ops=36 swap_bytes=0 coarse_loads=36 fine_loads=0 walkers_finished=765 \
     walkers_cancelled=335 presample_stalls=0 fine_mode_at_step=0 presamples_filled=0 \
     presamples_consumed=0 pool_publishes=0 pool_stalls=0 pool_deferrals=0 \
     pool_attempts=0 claims_burned=0 prefetch_hits=0 prefetch_wasted=0 \
     walkers_emigrated=0 walkers_immigrated=0 accepts=0 rejects=0 peak_memory=65472 \
     trace=5:94139cdbca236540",
];
const CELL_H: &str =
    "sim_ns=598156 stall_ns=524288 io_busy_ns=598094 steps=8132 steps_on_block=7348 \
    steps_on_presample=777 steps_on_raw=7 edge_bytes_loaded=1425940 edges_loaded=356485 \
    io_ops=359 swap_bytes=0 coarse_loads=349 fine_loads=10 walkers_finished=917 \
    walkers_cancelled=1083 presample_stalls=21581 fine_mode_at_step=8118 \
    presamples_filled=1117 presamples_consumed=777 pool_publishes=0 pool_stalls=0 \
    pool_deferrals=0 pool_attempts=0 claims_burned=0 prefetch_hits=0 prefetch_wasted=0 \
    walkers_emigrated=0 walkers_immigrated=0 accepts=0 rejects=0 peak_memory=24576 \
    trace=1122:2349ee88a8052429";
