//! The NosWalker engine: decoupled, walker-oriented scheduling
//! (paper §3.1, Algorithms 1 and 3).
//!
//! Two workflows share one `Run` state:
//!
//! * **Pooled** (walker management on — the real NosWalker): a bounded
//!   walker pool, pre-sample chasing between loads, hottest-block
//!   asynchronous loading, adaptive fine-grained I/O.
//! * **Epoch** (walker management off — the Fig. 14 "Base
//!   Implementation"): every walker exists upfront, block-at-a-time
//!   processing with walker-state swap I/O, still with asynchronous
//!   double-buffered loads (the paper's base is faster than GraphWalker
//!   precisely because of overlapped I/O).
//!
//! Time is simulated through [`PipelineClock`]: device service times come
//! from the storage layer, compute is charged per step/sample, and stalls
//! are whatever the pipeline exposes.

use crate::audit::{RunAudit, Trace, TraceEvent, TraceSink};
use crate::block::{BlockCache, FineLoad, LoadedBlock};
use crate::clock::{PipelineClock, WallTimer};
use crate::disk_graph::{LoadError, OnDiskGraph};
use crate::metrics::{RunMetrics, StepSource};
use crate::options::EngineOptions;
use crate::presample::{plan_quotas, Peek, PreSampleBuffer};
use crate::threaded::Edges;
use crate::walk::{SecondOrderWalk, Walk, WalkRng};
use noswalker_graph::layout::VertexEdges;
use noswalker_graph::partition::{BlockId, BlockInfo};
use noswalker_graph::VertexId;
use noswalker_storage::{BudgetExceeded, MemoryBudget, Reservation};
use rand::SeedableRng;
use std::ops::ControlFlow;
use std::sync::Arc;

/// Errors an engine run can produce.
#[derive(Debug)]
pub enum EngineError {
    /// The memory budget cannot hold the engine's minimum working set
    /// (e.g. a single block buffer) — the configuration is infeasible, the
    /// same condition under which the paper's DrunkardMob "cannot process"
    /// a graph.
    Budget(BudgetExceeded),
    /// A device operation failed.
    Load(LoadError),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Budget(e) => write!(f, "engine: {e}"),
            EngineError::Load(e) => write!(f, "engine: {e}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<BudgetExceeded> for EngineError {
    fn from(e: BudgetExceeded) -> Self {
        EngineError::Budget(e)
    }
}

impl From<LoadError> for EngineError {
    fn from(e: LoadError) -> Self {
        match e {
            LoadError::Budget(b) => EngineError::Budget(b),
            other => EngineError::Load(other),
        }
    }
}

/// A source of decoded vertex edges (a coarse block or a fine load).
pub(crate) trait EdgeSource {
    fn edges<'a>(&'a self, graph: &OnDiskGraph, v: VertexId) -> Option<VertexEdges<'a>>;
}

impl EdgeSource for LoadedBlock {
    fn edges<'a>(&'a self, graph: &OnDiskGraph, v: VertexId) -> Option<VertexEdges<'a>> {
        self.vertex_edges(graph, v)
    }
}

impl EdgeSource for FineLoad {
    fn edges<'a>(&'a self, graph: &OnDiskGraph, v: VertexId) -> Option<VertexEdges<'a>> {
        self.vertex_edges(graph, v)
    }
}

impl EdgeSource for Edges {
    fn edges<'a>(&'a self, graph: &OnDiskGraph, v: VertexId) -> Option<VertexEdges<'a>> {
        self.vertex_edges(graph, v)
    }
}

// ----------------------------------------------------------------------
// Shared with the real-thread runner (`crate::parallel`)
// ----------------------------------------------------------------------

/// Finalizes a walker whose walk is over, attributing a cancellation to
/// the cancelled counter so the walker-completion law stays balanced.
pub(crate) fn retire_walker<A: Walk>(app: &A, metrics: &mut RunMetrics, w: &A::Walker) {
    let cancelled = app.is_cancelled(w);
    app.on_terminate(w);
    if cancelled {
        metrics.record_walker_cancelled();
    } else {
        metrics.record_walker_finished();
    }
}

/// Generates walker `id`. One that is born inactive is retired on the spot
/// and never occupies a pool slot.
pub(crate) fn spawn_walker<A: Walk>(
    app: &A,
    metrics: &mut RunMetrics,
    id: u64,
    rng: &mut WalkRng,
) -> Option<A::Walker> {
    let w = app.generate(id, rng);
    if app.is_active(&w) {
        return Some(w);
    }
    retire_walker(app, metrics, &w);
    None
}

/// Stalls `clock` until `t`, attributing the wait to `block` in the trace
/// (no event when `t` is already past).
pub(crate) fn stall_on(
    clock: &mut PipelineClock,
    trace: &mut Trace<'_>,
    block: Option<BlockId>,
    t: u64,
) {
    let from = clock.now();
    clock.stall_until(t);
    if t > from {
        trace.emit(|| TraceEvent::Stall {
            waiting_for: block,
            from_ns: from,
            until_ns: t,
        });
    }
}

/// The fine-mode switch `α·|Wa|·4KiB < S_G` (§3.3.1): whether loads are
/// 4 KiB page batches once `remaining` walkers are left. Sticky: the first
/// `true` marks the switch in `metrics` (`fine_mode_at_step`) and the trace.
pub(crate) fn check_fine_mode(
    opts: &EngineOptions,
    graph: &OnDiskGraph,
    remaining: u64,
    metrics: &mut RunMetrics,
    trace: &mut Trace<'_>,
    at_ns: u64,
) -> bool {
    if metrics.fine_mode_at_step.is_some() {
        return true;
    }
    let lhs = opts.alpha * remaining * noswalker_graph::FINE_PAGE_BYTES;
    if !opts.enable_shrink_block || lhs >= graph.edge_region_bytes() {
        return false;
    }
    metrics.mark_fine_mode_switch();
    let at_step = metrics.steps;
    trace.emit(|| TraceEvent::FineModeSwitch { at_step, at_ns });
    true
}

/// Plans one fine batch from the vertices walkers wait on in one block:
/// distinct and in id order, cut where their pages would pass a quarter of
/// the budget so the batch fits comfortably in memory (the first vertex is
/// always kept; later batches serve the rest). Returns the batch and the
/// bytes to make room for.
pub(crate) fn plan_fine_batch(
    graph: &OnDiskGraph,
    budget: &MemoryBudget,
    waiting: impl Iterator<Item = VertexId>,
) -> (Vec<VertexId>, u64) {
    let mut verts: Vec<VertexId> = waiting.collect();
    verts.sort_unstable();
    verts.dedup();
    let cap = (budget.limit() / 4).max(noswalker_graph::FINE_PAGE_BYTES * 4);
    let mut estimate = 0u64;
    let mut keep = verts.len();
    for (i, &v) in verts.iter().enumerate() {
        let r = graph.vertex_byte_range(v);
        estimate += (r.end - r.start) + 2 * noswalker_graph::FINE_PAGE_BYTES;
        if estimate > cap {
            keep = i.max(1);
            break;
        }
    }
    verts.truncate(keep);
    (verts, estimate.min(cap))
}

/// Accounts one fine batch read for `vertices` waiting vertices, issued at
/// `at_ns`: its device runs and bytes, and a `FineLoad` trace event.
pub(crate) fn record_fine_load(
    metrics: &mut RunMetrics,
    trace: &mut Trace<'_>,
    vertices: usize,
    load: &FineLoad,
    at_ns: u64,
) {
    let (block, runs, bytes) = (load.info().id, load.num_runs() as u64, load.loaded_bytes());
    metrics.record_fine_load(runs, bytes);
    trace.emit(|| TraceEvent::FineLoad {
        block,
        vertices: vertices as u64,
        runs,
        bytes,
        at_ns,
    });
}

/// What one pre-sample generation is built against: the application's
/// sampler and the loaded edges it draws from.
pub(crate) struct Generation<'a, A: Walk, S: EdgeSource + ?Sized> {
    pub(crate) app: &'a A,
    pub(crate) graph: &'a OnDiskGraph,
    pub(crate) opts: &'a EngineOptions,
    pub(crate) src: &'a S,
}

impl<A: Walk, S: EdgeSource + ?Sized> Generation<'_, A, S> {
    /// Builds block `info`'s next generation (§3.3.2): slots are planned
    /// over the vertices `src` covers — the whole block when `only` is
    /// `None` (a coarse load), otherwise the listed vertices a fine load
    /// actually served — proportionally to the carried visit `weights`.
    /// `capacity_slots` bounds the *sampled* slots only: raw retention of
    /// low-degree vertices is planned on top of it, whatever it is. The
    /// planned bytes are reserved; then the slots are filled by sampling.
    /// Weighted graphs keep their edge weights on raw-retained slots.
    ///
    /// How much to plan for and what to do when the budget says no are the
    /// caller's policy: `reserve(bytes, &mut capacity_slots)` returns the
    /// reservation, gives up with `Break(None)`, or adjusts the capacity
    /// and asks for a re-plan with `Continue` — which is honoured only
    /// while the capacity can change the plan: a refused plan that is
    /// nothing but raw retention is refused for good.
    ///
    /// Returns the buffer (reservation attached), its planned slot count
    /// and the sample draws performed — or `None` when nothing was built.
    pub(crate) fn build(
        &self,
        info: &BlockInfo,
        only: Option<&[VertexId]>,
        weights: &[u32],
        mut capacity_slots: u64,
        rng: &mut WalkRng,
        mut reserve: impl FnMut(u64, &mut u64) -> ControlFlow<Option<Reservation>>,
    ) -> Option<(PreSampleBuffer, u64, u64)> {
        let (graph, src) = (self.graph, self.src);
        let mut degrees = vec![0u64; info.num_vertices() as usize];
        match only {
            None => {
                for v in info.vertex_start..info.vertex_end {
                    degrees[(v - info.vertex_start) as usize] = graph.degree(v);
                }
            }
            Some(list) => {
                for &v in list.iter().filter(|&&v| src.edges(graph, v).is_some()) {
                    degrees[(v - info.vertex_start) as usize] = graph.degree(v);
                }
            }
        }
        let weighted = graph.format() != noswalker_graph::EdgeFormat::Unweighted;
        let (plan, reservation) = loop {
            let plan = plan_quotas(
                &degrees,
                weights,
                capacity_slots,
                self.opts.low_degree_threshold,
                self.opts.alias_degree_threshold,
                self.opts.presample_cap_per_vertex,
            );
            if plan.total_slots == 0 {
                return None;
            }
            let bytes = PreSampleBuffer::planned_bytes(&plan, weighted);
            match reserve(bytes, &mut capacity_slots) {
                ControlFlow::Break(r) => break (plan, r?),
                ControlFlow::Continue(()) => {}
            }
            // Every smaller capacity would plan these same bytes again.
            if (0..degrees.len()).all(|i| degrees[i] == 0 || (plan.raw[i] && !plan.alias[i])) {
                return None;
            }
        };
        let (mut buf, draws) = PreSampleBuffer::build(
            info.vertex_start,
            &plan,
            weighted,
            |v| {
                #[expect(clippy::expect_used, reason = "the planner zeroes uncovered vertices")]
                let view = src.edges(graph, v).expect("planned vertices are covered");
                self.app.sample(&view, rng)
            },
            |v, edges, mut wts| {
                #[expect(clippy::expect_used, reason = "the planner zeroes uncovered vertices")]
                let view = src.edges(graph, v).expect("planned vertices are covered");
                for i in 0..view.degree() {
                    edges.push(view.target(i));
                    if let Some(w) = wts.as_deref_mut() {
                        w.push(view.weight(i).unwrap_or(1.0));
                    }
                }
            },
        );
        buf.set_reservation(reservation);
        Some((buf, plan.total_slots, draws))
    }
}

/// The NosWalker engine.
///
/// Construction is cheap and the engine is reusable — every
/// [`NosWalkerEngine::run`] is an independent deterministic simulation
/// under its seed. See the crate-level docs for a complete example.
#[derive(Debug)]
pub struct NosWalkerEngine<A: Walk> {
    app: Arc<A>,
    graph: Arc<OnDiskGraph>,
    opts: EngineOptions,
    budget: Arc<MemoryBudget>,
}

impl<A: Walk> NosWalkerEngine<A> {
    /// Creates an engine for `app` over `graph` under `budget`.
    pub fn new(
        app: Arc<A>,
        graph: Arc<OnDiskGraph>,
        opts: EngineOptions,
        budget: Arc<MemoryBudget>,
    ) -> Self {
        NosWalkerEngine {
            app,
            graph,
            opts,
            budget,
        }
    }

    /// The engine's options.
    pub fn options(&self) -> &EngineOptions {
        &self.opts
    }

    /// Runs the first-order workflow (Algorithm 1) to completion.
    ///
    /// # Errors
    ///
    /// [`EngineError::Budget`] if the budget cannot hold the minimum
    /// working set; [`EngineError::Load`] on device failure.
    pub fn run(&self, seed: u64) -> Result<RunMetrics, EngineError> {
        self.run_with_sink(seed, None)
    }

    /// Like [`NosWalkerEngine::run`], recording structured
    /// [`TraceEvent`]s into `sink` when one is supplied. With `None` the
    /// cost is one branch per emission site.
    ///
    /// In debug builds the returned metrics are additionally checked
    /// against the [`RunAudit`] conservation laws.
    ///
    /// # Errors
    ///
    /// As for [`NosWalkerEngine::run`].
    pub fn run_with_sink<'a>(
        &'a self,
        seed: u64,
        sink: Option<&'a mut dyn TraceSink>,
    ) -> Result<RunMetrics, EngineError> {
        let audit = RunAudit::begin(self.app.total_walkers(), &self.budget);
        let mut run = Run::new(self, seed, Trace::from_option(sink))?;
        if self.opts.enable_walker_management {
            run.run_pooled()?;
        } else {
            run.run_epochs()?;
        }
        let metrics = run.finish();
        if cfg!(debug_assertions) {
            audit.verify(&metrics, &self.budget).assert_clean();
        }
        Ok(metrics)
    }
}

impl<A: SecondOrderWalk> NosWalkerEngine<A> {
    /// Runs the second-order workflow (Algorithm 3): pre-samples provide
    /// uniform candidates; rejection is processed when each candidate's
    /// block is resident.
    ///
    /// # Errors
    ///
    /// As for [`NosWalkerEngine::run`].
    ///
    /// # Panics
    ///
    /// Panics if `enable_walker_management` is off — the second-order
    /// extension is defined on the full decoupled architecture.
    pub fn run_second_order(&self, seed: u64) -> Result<RunMetrics, EngineError> {
        self.run_second_order_with_sink(seed, None)
    }

    /// Like [`NosWalkerEngine::run_second_order`], recording structured
    /// [`TraceEvent`]s into `sink` when one is supplied.
    ///
    /// # Errors
    ///
    /// As for [`NosWalkerEngine::run`].
    ///
    /// # Panics
    ///
    /// As for [`NosWalkerEngine::run_second_order`].
    pub fn run_second_order_with_sink<'a>(
        &'a self,
        seed: u64,
        sink: Option<&'a mut dyn TraceSink>,
    ) -> Result<RunMetrics, EngineError> {
        assert!(
            self.opts.enable_walker_management,
            "second-order runs require walker management"
        );
        let audit = RunAudit::begin(self.app.total_walkers(), &self.budget);
        let mut run = Run::new(self, seed, Trace::from_option(sink))?;
        run.run_pooled_2nd()?;
        let metrics = run.finish();
        if cfg!(debug_assertions) {
            audit.verify(&metrics, &self.budget).assert_clean();
        }
        Ok(metrics)
    }
}

/// A pending asynchronous load.
enum Pending {
    Coarse {
        block: std::sync::Arc<LoadedBlock>,
        ready_at: u64,
    },
    Fine {
        load: FineLoad,
        ready_at: u64,
    },
}

impl Pending {
    fn ready_at(&self) -> u64 {
        match self {
            Pending::Coarse { ready_at, .. } | Pending::Fine { ready_at, .. } => *ready_at,
        }
    }

    fn block_id(&self) -> BlockId {
        match self {
            Pending::Coarse { block, .. } => block.info().id,
            Pending::Fine { load, .. } => load.info().id,
        }
    }
}

/// A bucket entry: a walker slot and the vertex whose edge data it is
/// waiting for (its location; for second order with a pending candidate,
/// the candidate).
#[derive(Clone, Copy)]
struct Entry {
    slot: usize,
    v: VertexId,
}

/// The walkers waiting on one block, as a *parked prefix + untried tail*.
///
/// An entry is parked once an attempt to move it made no progress against
/// the block's current pre-sample generation (its peek came back empty, it
/// waits on a rejection, or there is no buffer). Pre-sample slots only
/// drain, so nothing but a load of the block — which takes the whole
/// bucket — can make a parked walker runnable; the scheduler pass skips the
/// prefix. A stalled visit is an attempt, so a parked walker records no
/// stall until it is tried again. A pass that polled every entry would
/// re-push the failing prefix first and in order, so skipping it leaves
/// bucket order exactly as polling would.
#[derive(Clone, Default)]
struct Bucket {
    entries: Vec<Entry>,
    /// `entries[..parked]` are parked.
    parked: usize,
    /// [`Walk::cancel_epoch`] when the whole bucket was last polled.
    swept: u64,
}

/// All mutable state of one engine run.
struct Run<'e, A: Walk> {
    app: &'e A,
    graph: &'e OnDiskGraph,
    opts: &'e EngineOptions,
    budget: &'e Arc<MemoryBudget>,
    rng: WalkRng,
    clock: PipelineClock,
    metrics: RunMetrics,
    slab: Vec<Option<A::Walker>>,
    free: Vec<usize>,
    /// Walker entries bucketed by the block of their needed vertex.
    buckets: Vec<Bucket>,
    live: u64,
    next_id: u64,
    total: u64,
    presample: Vec<Option<PreSampleBuffer>>,
    pool_reservation: Option<Reservation>,
    /// Page-cache stand-in for coarse blocks (the cgroups budget covers
    /// the OS page cache for every system, §4.1).
    cache: BlockCache,
    /// Offset of the walker-state swap region on the device (epoch mode).
    swap_base: u64,
    /// Largest coarse block, for sizing fixed overhead.
    max_block_bytes: u64,
    trace: Trace<'e>,
    wall: WallTimer,
    /// Calls of `chase_presamples` / `chase_block` (the scheduler ratchet).
    #[cfg(test)]
    pickups: u64,
}

/// The live walker in slot `i`. Bucket entries only reference live slots,
/// so a vacant slot here is engine-state corruption, not a user error.
fn live<W>(slab: &[Option<W>], i: usize) -> &W {
    #[expect(clippy::expect_used, reason = "bucket entries reference live slots")]
    slab[i].as_ref().expect("bucketed walker slot is live")
}

/// Mutable access to the live walker in slot `i` (see [`live`]).
fn live_mut<W>(slab: &mut [Option<W>], i: usize) -> &mut W {
    #[expect(clippy::expect_used, reason = "bucket entries reference live slots")]
    slab[i].as_mut().expect("bucketed walker slot is live")
}

/// Takes the live walker out of slot `i` for retirement (see [`live`]).
fn take_live<W>(slab: &mut [Option<W>], i: usize) -> W {
    #[expect(clippy::expect_used, reason = "bucket entries reference live slots")]
    slab[i].take().expect("retiring a live walker")
}

/// The pre-sample buffer for block `b`, which the caller has just peeked
/// (the shared `Peek` borrow ends before this mutable re-borrow starts).
fn peeked_buf(bufs: &mut [Option<PreSampleBuffer>], b: usize) -> &mut PreSampleBuffer {
    #[expect(clippy::expect_used, reason = "callers check the buffer is present")]
    bufs[b]
        .as_mut()
        .expect("pre-sample buffer peeked by caller")
}

impl<'e, A: Walk> Run<'e, A> {
    fn new(
        engine: &'e NosWalkerEngine<A>,
        seed: u64,
        trace: Trace<'e>,
    ) -> Result<Self, EngineError> {
        let num_blocks = engine.graph.num_blocks();
        let total = engine.app.total_walkers();
        // Pooled mode charges the pool; epoch mode charges only the fixed
        // in-memory walker buffer (the remaining states live on disk and
        // cost swap I/O instead, §2.4.2).
        let charged =
            engine
                .opts
                .walker_pool_quota(&engine.budget, engine.app.state_bytes(), total);
        let pool_bytes = charged * engine.app.state_bytes() as u64;
        let pool_reservation = engine.budget.try_reserve(pool_bytes)?;
        Ok(Run {
            app: &engine.app,
            graph: &engine.graph,
            opts: &engine.opts,
            budget: &engine.budget,
            rng: WalkRng::seed_from_u64(seed),
            clock: PipelineClock::new(),
            metrics: RunMetrics::default(),
            slab: Vec::new(),
            free: Vec::new(),
            buckets: vec![Bucket::default(); num_blocks],
            live: 0,
            next_id: 0,
            total,
            presample: (0..num_blocks).map(|_| None).collect(),
            pool_reservation: Some(pool_reservation),
            cache: BlockCache::new(num_blocks),
            swap_base: engine.graph.edge_region_bytes(),
            max_block_bytes: engine.graph.max_block_bytes(),
            trace,
            wall: WallTimer::start(),
            #[cfg(test)]
            pickups: 0,
        })
    }

    fn finish(mut self) -> RunMetrics {
        debug_assert!(
            self.buckets.iter().all(|b| b.entries.is_empty()),
            "a walker was left parked in a bucket"
        );
        let at = self.clock.now();
        let steps = self.metrics.steps;
        let walkers_finished = self.metrics.walkers_finished;
        self.trace.emit(|| TraceEvent::RunEnd {
            steps,
            walkers_finished,
            at_ns: at,
        });
        self.metrics.finalize_clock(&self.clock);
        self.metrics.finalize_wall(&self.wall);
        self.metrics.set_peak_memory(self.budget.peak());
        self.metrics
            .derive_edges_loaded(self.graph.format().record_bytes() as u64);
        self.metrics
    }

    // ------------------------------------------------------------------
    // Walker bookkeeping
    // ------------------------------------------------------------------

    fn remaining(&self) -> u64 {
        self.total - self.metrics.walkers_finished - self.metrics.walkers_cancelled
    }

    /// The effective walker pool capacity (see
    /// [`EngineOptions::walker_pool_quota`]).
    fn pool_cap(&self) -> u64 {
        self.opts
            .walker_pool_quota(self.budget, self.app.state_bytes(), self.total)
    }

    fn done(&self) -> bool {
        self.next_id >= self.total && self.live == 0
    }

    fn insert_walker(&mut self, w: A::Walker, needed: VertexId) -> usize {
        let idx = if let Some(i) = self.free.pop() {
            self.slab[i] = Some(w);
            i
        } else {
            self.slab.push(Some(w));
            self.slab.len() - 1
        };
        self.enqueue(idx, needed);
        self.live += 1;
        idx
    }

    /// Appends walker `slot`, waiting on `v`, to the untried tail of `v`'s
    /// bucket.
    fn enqueue(&mut self, slot: usize, v: VertexId) {
        self.buckets[self.graph.block_of(v) as usize]
            .entries
            .push(Entry { slot, v });
    }

    fn retire(&mut self, i: usize) {
        let w = take_live(&mut self.slab, i);
        retire_walker(self.app, &mut self.metrics, &w);
        self.free.push(i);
        self.live -= 1;
    }

    /// Re-buckets walker `i` by `needed`; no-op if it terminated.
    fn rebucket(&mut self, i: usize, needed: impl Fn(&Self, &A::Walker) -> VertexId) {
        if let Some(w) = &self.slab[i] {
            self.enqueue(i, needed(self, w));
        }
    }

    /// Takes block `b`'s whole bucket for a load, parked walkers included.
    fn take_bucket(&mut self, b: BlockId) -> Vec<Entry> {
        let bucket = &mut self.buckets[b as usize];
        bucket.parked = 0;
        std::mem::take(&mut bucket.entries)
    }

    /// One scheduler pass (the `pass` of [`Run::run_pool`]): gives every
    /// walker that may be able to move on reserved pre-samples one
    /// `attempt`, block by block, and re-buckets it by `needed`. Parked
    /// walkers are not visited. Returns the progress made.
    fn pool_pass(
        &mut self,
        needed: impl Fn(&Self, &A::Walker) -> VertexId + Copy,
        attempt: impl Fn(&mut Self, usize) -> u64,
    ) -> u64 {
        if !self.opts.enable_presample {
            return 0;
        }
        let mut progress = 0u64;
        for b in 0..self.buckets.len() {
            if self.presample[b].is_none() || self.buckets[b].entries.is_empty() {
                continue;
            }
            // Read per bucket: an `action` earlier in this pass may cancel
            // walkers parked further on. They are retired by polling their
            // bucket this once, at the pass a per-pass poll would have.
            let epoch = self.app.cancel_epoch();
            let bucket = &mut self.buckets[b];
            if std::mem::replace(&mut bucket.swept, epoch) != epoch {
                bucket.parked = 0;
            }
            if bucket.parked == bucket.entries.len() {
                continue;
            }
            let tail = bucket.entries.split_off(bucket.parked);
            // The first walker that moved and landed back here may move
            // again; everything before it is parked.
            let mut runnable = usize::MAX;
            for e in tail {
                let n = attempt(self, e.slot);
                progress += n;
                let at = self.buckets[b].entries.len();
                self.rebucket(e.slot, needed);
                if n > 0 && self.buckets[b].entries.len() > at {
                    runnable = runnable.min(at);
                }
            }
            self.buckets[b].parked = runnable.min(self.buckets[b].entries.len());
        }
        progress
    }

    /// Generates walkers up to `cap` live, shrinking the pool reservation
    /// once generation is exhausted (memory recycling, §3.3.3). `needed`
    /// computes the bucket vertex for a fresh walker.
    fn generate(&mut self, cap: u64, needed: impl Fn(&Self, &A::Walker) -> VertexId) {
        while self.live < cap && self.next_id < self.total {
            let spawned = spawn_walker(self.app, &mut self.metrics, self.next_id, &mut self.rng);
            self.next_id += 1;
            if let Some(w) = spawned {
                let v = needed(self, &w);
                self.insert_walker(w, v);
            }
        }
        if self.next_id >= self.total {
            let cap = self.pool_cap();
            if let Some(r) = &mut self.pool_reservation {
                let want = self.live.min(cap) * self.app.state_bytes() as u64;
                if want < r.bytes() {
                    r.shrink_to(want);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Moving
    // ------------------------------------------------------------------

    /// Takes one step for walker `i` to `dst`, served from `src`. Returns
    /// `(alive, consumed)`: whether the walker survived, and whether it
    /// consumed the supplied destination (the paper's `Action` return
    /// value, Algorithm 1 line 17 — `false` means e.g. a restart hop that
    /// ignored the sample). Threading the [`StepSource`] through here means
    /// every step is attributed to exactly one serving tier.
    fn step_to(&mut self, i: usize, dst: VertexId, src: StepSource) -> (bool, bool) {
        let w = live_mut(&mut self.slab, i);
        let consumed = self.app.action(w, dst, &mut self.rng);
        self.clock.advance_compute(self.opts.step_cost());
        self.metrics.record_step(src);
        let alive = self.app.is_active(live(&self.slab, i));
        if !alive {
            self.retire(i);
        }
        (alive, consumed)
    }

    /// Moves walker `i` as far as possible on pre-sampled / raw slots
    /// (the decoupled fast path). Returns steps taken.
    fn chase_presamples(&mut self, i: usize) -> u64 {
        #[cfg(test)]
        {
            self.pickups += 1;
        }
        let mut steps = 0u64;
        loop {
            let Some(w) = self.slab[i].as_ref() else {
                break;
            };
            if !self.app.is_active(w) {
                self.retire(i);
                break;
            }
            let loc = self.app.location(w);
            if self.graph.degree(loc) == 0 {
                self.retire(i);
                break;
            }
            let b = self.graph.block_of(loc) as usize;
            let Some(buf) = &self.presample[b] else {
                break;
            };
            match buf.peek(loc) {
                Peek::Sampled(dst) => {
                    steps += 1;
                    let (alive, consumed) = self.step_to(i, dst, StepSource::PreSample);
                    if consumed {
                        // Pop only when Action consumed the sample
                        // (Algorithm 1, lines 17-18).
                        peeked_buf(&mut self.presample, b).consume(loc);
                        self.metrics.record_presample_consumed();
                    }
                    if !alive {
                        break;
                    }
                }
                Peek::Raw(view) => {
                    let dst =
                        self.app
                            .sample_for(live_mut(&mut self.slab, i), &view, &mut self.rng);
                    self.clock.advance_compute(self.opts.sample_cost());
                    // Unlike the `Sampled` arm, `consume` here is
                    // unconditional: raw retained slots never deplete
                    // (`PreSampleBuffer::consume` only bumps the visit
                    // counter that steers the next generation's quotas),
                    // so an `Action` that ignores the destination loses
                    // nothing — there is no reserved sample to waste.
                    peeked_buf(&mut self.presample, b).consume(loc);
                    steps += 1;
                    if !self.step_to(i, dst, StepSource::Raw).0 {
                        break;
                    }
                }
                Peek::Empty => {
                    peeked_buf(&mut self.presample, b).record_stall(loc);
                    self.metrics.record_pool_stall();
                    break;
                }
            }
        }
        steps
    }

    /// Moves walker `i` as far as possible inside edge source `src`
    /// (GraphWalker-style re-entry; "use loaded edges as pre-sampled
    /// edges", §3.3.5), then keeps going on pre-samples. Returns steps.
    fn chase_block(&mut self, i: usize, src: &dyn EdgeSource) -> u64 {
        #[cfg(test)]
        {
            self.pickups += 1;
        }
        let mut steps = 0u64;
        loop {
            let Some(w) = self.slab[i].as_ref() else {
                break;
            };
            if !self.app.is_active(w) {
                self.retire(i);
                break;
            }
            let loc = self.app.location(w);
            if self.graph.degree(loc) == 0 {
                self.retire(i);
                break;
            }
            let Some(view) = src.edges(self.graph, loc) else {
                steps += self.chase_presamples(i);
                break;
            };
            let dst = self
                .app
                .sample_for(live_mut(&mut self.slab, i), &view, &mut self.rng);
            self.clock.advance_compute(self.opts.sample_cost());
            steps += 1;
            if !self.step_to(i, dst, StepSource::Block).0 {
                break;
            }
        }
        steps
    }

    // ------------------------------------------------------------------
    // Loading and pre-sampling
    // ------------------------------------------------------------------

    /// Evicts pre-sample buffers (largest first) until `bytes` fit in the
    /// budget. Errors if they cannot fit even with everything evicted.
    fn make_room(&mut self, bytes: u64) -> Result<(), BudgetExceeded> {
        while self.budget.available() < bytes {
            // Cached blocks are the cheapest to give back (they can be
            // reloaded); reserved pre-samples go next.
            if self.cache.evict_one() {
                let at = self.clock.now();
                self.trace.emit(|| TraceEvent::CacheEvict { at_ns: at });
                continue;
            }
            let victim = (0..self.presample.len())
                .filter(|&b| self.presample[b].is_some())
                .max_by_key(|&b| self.presample[b].as_ref().map_or(0, |p| p.memory_bytes()));
            match victim {
                Some(b) => {
                    let at = self.clock.now();
                    let freed = self.presample[b].as_ref().map_or(0, |p| p.memory_bytes());
                    self.trace.emit(|| TraceEvent::PresampleEvict {
                        block: b as BlockId,
                        bytes: freed,
                        at_ns: at,
                    });
                    self.presample[b] = None;
                }
                None => {
                    return Err(BudgetExceeded {
                        requested: bytes,
                        in_use: self.budget.in_use(),
                        limit: self.budget.limit(),
                    })
                }
            }
        }
        Ok(())
    }

    /// The block with the most waiting walkers, excluding `skip`.
    fn hottest_block(&self, skip: Option<BlockId>) -> Option<BlockId> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|&(i, b)| Some(i as BlockId) != skip && !b.entries.is_empty())
            .max_by_key(|(_, b)| b.entries.len())
            .map(|(i, _)| i as BlockId)
    }

    /// Like [`Run::issue_load`], but tolerates a tight budget by skipping
    /// the prefetch (used while the previous block buffer is still alive).
    fn try_prefetch(&mut self, skip: Option<BlockId>) -> Result<Option<Pending>, EngineError> {
        match self.issue_load(skip) {
            Ok(p) => Ok(p),
            Err(EngineError::Budget(_)) => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Issues the next load (hottest block; fine-grained in fine mode),
    /// or `None` if no walker is waiting for anything.
    fn issue_load(&mut self, skip: Option<BlockId>) -> Result<Option<Pending>, EngineError> {
        let Some(b) = self.hottest_block(skip) else {
            return Ok(None);
        };
        let remaining = self.remaining();
        let at = self.clock.now();
        let fine = check_fine_mode(
            self.opts,
            self.graph,
            remaining,
            &mut self.metrics,
            &mut self.trace,
            at,
        );
        if fine {
            let waiting = self.buckets[b as usize].entries.iter().map(|e| e.v);
            let (verts, room) = plan_fine_batch(self.graph, self.budget, waiting);
            self.make_room(room)?;
            let (load, ns) = self.graph.load_fine(b, &verts, self.budget)?;
            let ready_at = self.clock.issue_io(ns);
            record_fine_load(&mut self.metrics, &mut self.trace, verts.len(), &load, at);
            Ok(Some(Pending::Fine { load, ready_at }))
        } else {
            self.issue_coarse(b)
                .map(|(block, ready_at)| Some(Pending::Coarse { block, ready_at }))
        }
    }

    /// Issues an asynchronous coarse load of block `b`; returns the buffer
    /// and its completion time.
    fn issue_coarse(&mut self, b: BlockId) -> Result<(Arc<LoadedBlock>, u64), EngineError> {
        let info = *self.graph.partition().block(b);
        if self.budget.available() < info.byte_len() {
            self.make_room(info.byte_len())?;
        }
        let (block, ns, hit) = self
            .cache
            .load(self.graph, b, self.budget)
            .map_err(EngineError::from)?;
        let at = self.clock.now();
        let ready_at = self.clock.issue_io(ns);
        // An empty block (only zero-degree vertices) is a zero-byte no-op
        // read, not an I/O op — counting it would break the audit's
        // load-byte-consistency law (loads issued ⇔ bytes moved).
        if !hit && info.byte_len() > 0 {
            self.metrics.record_coarse_load(info.byte_len());
        }
        self.trace.emit(|| TraceEvent::CoarseLoad {
            block: b,
            bytes: if hit { 0 } else { info.byte_len() },
            cache_hit: hit,
            at_ns: at,
        });
        Ok((block, ready_at))
    }

    /// Rebuilds block `b`'s pre-sample buffer from a loaded source
    /// (§3.3.2): drop the old generation, reallocate slots proportional to
    /// carried visit counters, refill by sampling. `only` restricts slots
    /// to the vertices actually covered by a fine load.
    fn rebuild_presamples(&mut self, b: BlockId, src: &dyn EdgeSource, only: Option<&[VertexId]>) {
        if !self.opts.enable_presample {
            return;
        }
        // Regenerating a buffer discards its unconsumed slots (the compact
        // CSR layout cannot be appended to, §3.3.2); only do so once the
        // current generation is mostly drained, so reserved samples are not
        // wasted on every reload of a hot block.
        if let Some(buf) = &self.presample[b as usize] {
            let cap = buf.sampled_capacity();
            if cap > 0 && buf.remaining_sampled() * 4 > cap {
                return;
            }
        }
        let info = *self.graph.partition().block(b);
        let nv = info.num_vertices() as usize;
        if nv == 0 {
            return;
        }
        // Called with `b`'s bucket just taken for the load, so the new
        // generation finds the whole bucket untried.
        debug_assert_eq!(self.buckets[b as usize].parked, 0);
        let old = self.presample[b as usize].take();
        let weights: Vec<u32> = if self.opts.uniform_presample_alloc {
            vec![0; nv] // zero weights → the planner falls back to uniform
        } else {
            match &old {
                Some(buf) => buf.visit_weights_snapshot(),
                None => vec![0; nv],
            }
        };
        drop(old); // release the old generation's memory first

        // Sampled slots are 4 B regardless of edge format — the succinct
        // representation that makes pre-sampling shine on weighted data.
        let slot_bytes: u64 = 4;
        let meta_bytes = nv as u64 * 9 + 4;
        // Fair share: the pre-sample pool as a whole gets a fraction of the
        // budget left after the fixed working set (two block buffers + the
        // walker pool), split evenly across blocks. This is what lets the
        // reserved samples cover the *entire* graph at a few slots per
        // vertex — the succinct-representation effect of §2.4.1 — instead
        // of a handful of blocks hoarding deep sample queues.
        let fixed =
            2 * self.max_block_bytes + self.pool_reservation.as_ref().map_or(0, |r| r.bytes());
        let pool_budget = (self.budget.limit().saturating_sub(fixed) as f64
            * EngineOptions::PRESAMPLE_BUDGET_FRACTION) as u64;
        let fair = pool_budget / self.graph.num_blocks().max(1) as u64;
        let avail = self.budget.available();
        let cap_bytes = fair.min(avail);
        if cap_bytes <= meta_bytes {
            return;
        }
        let generation = Generation {
            app: self.app,
            graph: self.graph,
            opts: self.opts,
            src,
        };
        // Budget too tight for the plan: halve it, down to a floor below
        // which the rebuild just waits for the next load of this block.
        let reserve = |bytes, slots: &mut u64| match self.budget.try_reserve(bytes) {
            Ok(r) => ControlFlow::Break(Some(r)),
            Err(_) if *slots > 64 => {
                *slots /= 2;
                ControlFlow::Continue(())
            }
            Err(_) => ControlFlow::Break(None),
        };
        let capacity_slots = (cap_bytes - meta_bytes) / slot_bytes;
        let Some((buf, slots, draws)) = generation.build(
            &info,
            only,
            &weights,
            capacity_slots,
            &mut self.rng,
            reserve,
        ) else {
            return;
        };
        self.clock.advance_compute(draws * self.opts.sample_cost());
        self.metrics.record_presamples_filled(draws);
        let at = self.clock.now();
        self.trace.emit(|| TraceEvent::PresampleRefill {
            block: b,
            slots,
            draws,
            at_ns: at,
        });
        self.presample[b as usize] = Some(buf);
    }

    // ------------------------------------------------------------------
    // First-order pooled workflow (Algorithm 1)
    // ------------------------------------------------------------------

    /// The pooled scheduling loop both orders share. `needed` names the
    /// vertex a walker waits on, `integrate` consumes a completed load,
    /// and `pass` moves walkers on reserved pre-samples between loads
    /// (returning how much progress it made).
    fn run_pool(
        &mut self,
        needed: impl Fn(&Self, &A::Walker) -> VertexId + Copy,
        integrate: impl Fn(&mut Self, Pending),
        pass: impl Fn(&mut Self) -> u64,
    ) -> Result<(), EngineError> {
        let cap = self.pool_cap();
        self.generate(cap, needed);
        let mut pending: Option<Pending> = None;
        loop {
            if self.done() {
                break;
            }
            // Integrate a completed load; issue the next one first so the
            // loader never idles (background I/O thread, Algorithm 1).
            let now = self.clock.now();
            if let Some(p) = pending.take_if(|p| p.ready_at() <= now) {
                pending = self.try_prefetch(Some(p.block_id()))?;
                integrate(self, p);
                self.generate(cap, needed);
            }
            // Keep walkers moving on reserved pre-samples meanwhile.
            let moved = pass(self);
            self.generate(cap, needed);
            if self.done() {
                break;
            }
            if pending.is_none() {
                pending = self.issue_load(None)?;
            }
            if moved == 0 {
                match &pending {
                    Some(p) => {
                        let (b, t) = (p.block_id(), p.ready_at());
                        stall_on(&mut self.clock, &mut self.trace, Some(b), t);
                    }
                    None => {
                        debug_assert!(self.done(), "walkers remain but nothing to load");
                        break;
                    }
                }
            }
        }
        Ok(())
    }

    fn run_pooled(&mut self) -> Result<(), EngineError> {
        self.run_pool(
            |run, w| run.app.location(w),
            Self::integrate_first_order,
            Self::presample_pass,
        )
    }

    /// One pass over the walkers that may move, chasing pre-samples.
    /// Returns total steps moved.
    fn presample_pass(&mut self) -> u64 {
        self.pool_pass(|run, w| run.app.location(w), Self::chase_presamples)
    }

    fn integrate_first_order(&mut self, p: Pending) {
        let b = p.block_id();
        let src: &dyn EdgeSource = match &p {
            Pending::Coarse { block, .. } => &**block,
            Pending::Fine { load, .. } => load,
        };
        let mut served: Vec<VertexId> = Vec::new();
        // Process the waiting walkers, then adaptively generate more
        // (Fig. 6 ②): fresh walkers whose start vertex lies in the
        // resident block are drained immediately while the data is hot,
        // freeing their pool slots for yet more generation. Iterate until
        // the block has no runnable walker left or the pool is pinned by
        // walkers stuck elsewhere.
        let cap = self.pool_cap();
        loop {
            let progress_mark = self.metrics.steps + self.metrics.walkers_finished + self.next_id;
            let bucket = self.take_bucket(b);
            if bucket.is_empty() {
                self.generate(cap, |run, w| run.app.location(w));
                if self.next_id + self.metrics.walkers_finished == progress_mark
                    || self.buckets[b as usize].entries.is_empty()
                {
                    break;
                }
                continue;
            }
            for Entry { slot: i, v, .. } in bucket {
                if matches!(p, Pending::Fine { .. }) {
                    served.push(v);
                }
                self.chase_block(i, src);
                self.rebucket(i, |run, w| run.app.location(w));
            }
            if self.metrics.steps + self.metrics.walkers_finished + self.next_id == progress_mark {
                break; // remaining walkers cannot move on this load
            }
        }
        served.sort_unstable();
        served.dedup();
        match &p {
            Pending::Coarse { block, .. } => self.rebuild_presamples(b, &**block, None),
            Pending::Fine { load, .. } => self.rebuild_presamples(b, load, Some(&served)),
        }
        // `p` drops here; the coarse buffer stays alive in the cache.
    }

    // ------------------------------------------------------------------
    // Epoch workflow (walker management off — Fig. 14 base)
    // ------------------------------------------------------------------

    fn run_epochs(&mut self) -> Result<(), EngineError> {
        let by_loc = |run: &Self, w: &A::Walker| run.app.location(w);
        self.generate(u64::MAX, by_loc);
        // Epoch mode never shrinks to fine-grained I/O, so pending loads
        // are plain coarse buffers (no `Pending` enum needed).
        let mut pending: Option<(Arc<LoadedBlock>, u64)> = None;
        while !self.done() {
            let (block, ready_at) = match pending.take() {
                Some(p) => p,
                None => match self.hottest_block(None) {
                    Some(b) => self.issue_coarse(b)?,
                    None => break,
                },
            };
            let b = block.info().id;
            stall_on(&mut self.clock, &mut self.trace, Some(b), ready_at);
            // Walker-state swap (GraphWalker's fixed walker buffer,
            // §2.4.2): the block's walker states are read from and written
            // back to a swap region on the same device.
            let in_block = self.buckets[b as usize].entries.len() as u64;
            self.charge_swap(in_block)?;
            // Prefetch the next-hottest block while processing (skipped
            // when the budget cannot hold two block buffers).
            if let Some(nb) = self.hottest_block(Some(b)) {
                match self.issue_coarse(nb) {
                    Ok(p) => pending = Some(p),
                    Err(EngineError::Budget(_)) => {}
                    Err(e) => return Err(e),
                }
            }
            for Entry { slot: i, .. } in self.take_bucket(b) {
                self.chase_block(i, &*block);
                self.rebucket(i, by_loc);
            }
        }
        Ok(())
    }

    /// Performs the swap-region I/O for `n` walker states: write back, then
    /// read in — real device operations so the cost model and stats agree.
    fn charge_swap(&mut self, n: u64) -> Result<(), EngineError> {
        let bytes = n * EngineOptions::SWAP_RECORD_BYTES;
        if bytes == 0 {
            return Ok(());
        }
        const CHUNK: u64 = 16 << 20;
        let mut left = bytes;
        let buf_len = left.min(CHUNK) as usize;
        let mut buf = vec![0u8; buf_len];
        let device = self.graph.device();
        while left > 0 {
            let n = left.min(CHUNK) as usize;
            let wns = device
                .write(self.swap_base, &buf[..n])
                .map_err(|e| EngineError::Load(LoadError::Device(e)))?;
            let rns = device
                .read(self.swap_base, &mut buf[..n])
                .map_err(|e| EngineError::Load(LoadError::Device(e)))?;
            self.clock.sync_io(wns + rns);
            left -= n as u64;
        }
        self.metrics.record_swap(2 * bytes, 0);
        let at = self.clock.now();
        self.trace.emit(|| TraceEvent::Swap {
            bytes: 2 * bytes,
            at_ns: at,
        });
        Ok(())
    }
}

// ----------------------------------------------------------------------
// Second-order pooled workflow (Algorithm 3)
// ----------------------------------------------------------------------

impl<'e, A: SecondOrderWalk> Run<'e, A> {
    /// The vertex whose edges this walker needs next: the pending
    /// candidate (for rejection) or the current location (for sampling).
    fn needed_vertex(&self, w: &A::Walker) -> VertexId {
        self.app
            .candidate(w)
            .unwrap_or_else(|| self.app.location(w))
    }

    fn run_pooled_2nd(&mut self) -> Result<(), EngineError> {
        self.run_pool(
            |run, w| run.needed_vertex(w),
            Self::integrate_2nd,
            Self::candidate_pass,
        )
    }

    /// Hands candidates to candidate-less walkers from pre-samples
    /// (steps 1–2 of the rejection method, Appendix A.2).
    fn candidate_pass(&mut self) -> u64 {
        self.pool_pass(|run, w| run.needed_vertex(w), Self::acquire_candidate)
    }

    fn acquire_candidate(&mut self, i: usize) -> u64 {
        let Some(w) = self.slab[i].as_ref() else {
            return 0;
        };
        if !self.app.is_active(w) {
            self.retire(i);
            return 0;
        }
        if self.app.candidate(w).is_some() {
            return 0; // waiting for rejection, not for a sample
        }
        let loc = self.app.location(w);
        if self.graph.degree(loc) == 0 {
            self.retire(i);
            return 0;
        }
        let b = self.graph.block_of(loc) as usize;
        let Some(buf) = &self.presample[b] else {
            return 0;
        };
        match buf.peek(loc) {
            Peek::Sampled(dst) => {
                let w = live_mut(&mut self.slab, i);
                let consumed = self.app.action(w, dst, &mut self.rng);
                self.clock.advance_compute(self.opts.step_cost());
                if consumed {
                    peeked_buf(&mut self.presample, b).consume(loc);
                    self.metrics.record_presample_consumed();
                }
                1
            }
            Peek::Raw(view) => {
                let dst = self.app.sample(&view, &mut self.rng);
                self.clock.advance_compute(self.opts.sample_cost());
                let w = live_mut(&mut self.slab, i);
                self.app.action(w, dst, &mut self.rng);
                // Unconditional on purpose: raw slots never deplete, so
                // `consume` is a visit-popularity tick, not a pop (see
                // `chase_presamples`).
                peeked_buf(&mut self.presample, b).consume(loc);
                1
            }
            Peek::Empty => {
                peeked_buf(&mut self.presample, b).record_stall(loc);
                self.metrics.record_pool_stall();
                0
            }
        }
    }

    /// Integrates a load for second order: RejectionProcess for walkers
    /// whose candidate lives here, then in-block candidate + rejection
    /// chaining (Algorithm 3).
    fn integrate_2nd(&mut self, p: Pending) {
        let b = p.block_id();
        let src: &dyn EdgeSource = match &p {
            Pending::Coarse { block, .. } => &**block,
            Pending::Fine { load, .. } => load,
        };
        let bucket = self.take_bucket(b);
        let mut served: Vec<VertexId> = Vec::new();
        for Entry { slot: i, v, .. } in bucket {
            if matches!(p, Pending::Fine { .. }) {
                served.push(v);
            }
            loop {
                let Some(w) = self.slab[i].as_ref() else {
                    break;
                };
                if !self.app.is_active(w) {
                    self.retire(i);
                    break;
                }
                if let Some(c) = self.app.candidate(w) {
                    let Some(cedges) = src.edges(self.graph, c) else {
                        break; // candidate's pages not in this load
                    };
                    let before = self.app.location(w);
                    let wm = live_mut(&mut self.slab, i);
                    self.app.rejection(wm, &cedges, &mut self.rng);
                    self.clock.advance_compute(self.opts.step_cost());
                    let w = live(&self.slab, i);
                    let accepted = self.app.location(w) != before;
                    self.metrics.record_second_order(accepted);
                    continue;
                }
                let loc = self.app.location(w);
                if self.graph.degree(loc) == 0 {
                    self.retire(i);
                    break;
                }
                let Some(view) = src.edges(self.graph, loc) else {
                    break;
                };
                let dst = self.app.sample(&view, &mut self.rng);
                self.clock.advance_compute(self.opts.sample_cost());
                let wm = live_mut(&mut self.slab, i);
                self.app.action(wm, dst, &mut self.rng);
            }
            self.rebucket(i, |run, w| run.needed_vertex(w));
        }
        served.sort_unstable();
        served.dedup();
        match &p {
            Pending::Coarse { block, .. } => self.rebuild_presamples(b, &**block, None),
            Pending::Fine { load, .. } => self.rebuild_presamples(b, load, Some(&served)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::walk::uniform_sample;
    use noswalker_graph::generators;
    use noswalker_storage::{SimSsd, SsdProfile};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A basic fixed-length uniform walk that counts visits.
    #[derive(Debug)]
    struct Basic {
        walkers: u64,
        length: u32,
        start_mod: u32,
        visits: Vec<AtomicU64>,
    }

    impl Basic {
        fn new(walkers: u64, length: u32, n: usize) -> Self {
            Basic {
                walkers,
                length,
                start_mod: n as u32,
                visits: (0..n).map(|_| AtomicU64::new(0)).collect(),
            }
        }
    }

    #[derive(Debug, Clone)]
    struct BasicWalker {
        at: VertexId,
        step: u32,
    }

    impl Walk for Basic {
        type Walker = BasicWalker;
        fn total_walkers(&self) -> u64 {
            self.walkers
        }
        fn generate(&self, n: u64, _rng: &mut WalkRng) -> BasicWalker {
            BasicWalker {
                at: (n % self.start_mod as u64) as u32,
                step: 0,
            }
        }
        fn location(&self, w: &BasicWalker) -> VertexId {
            w.at
        }
        fn is_active(&self, w: &BasicWalker) -> bool {
            w.step < self.length
        }
        fn sample(&self, v: &VertexEdges<'_>, rng: &mut WalkRng) -> VertexId {
            uniform_sample(v, rng)
        }
        fn action(&self, w: &mut BasicWalker, next: VertexId, _rng: &mut WalkRng) -> bool {
            self.visits[next as usize].fetch_add(1, Ordering::Relaxed);
            w.at = next;
            w.step += 1;
            true
        }
    }

    fn small_setup(opts: EngineOptions, budget_bytes: u64) -> (Arc<Basic>, NosWalkerEngine<Basic>) {
        let csr = generators::rmat(10, 8, generators::RmatParams::default(), 11);
        let device = Arc::new(SimSsd::new(SsdProfile::nvme_p4618()));
        let graph = Arc::new(OnDiskGraph::store(&csr, device, 2048).unwrap());
        let app = Arc::new(Basic::new(500, 10, csr.num_vertices()));
        let budget = MemoryBudget::new(budget_bytes);
        let engine = NosWalkerEngine::new(Arc::clone(&app), graph, opts, budget);
        (app, engine)
    }

    /// `Basic` with a deliberately huge declared walker state, to pin the
    /// pool-sizing byte clamp.
    #[derive(Debug)]
    struct FatState(Basic);

    impl Walk for FatState {
        type Walker = BasicWalker;
        fn total_walkers(&self) -> u64 {
            self.0.total_walkers()
        }
        fn generate(&self, n: u64, rng: &mut WalkRng) -> BasicWalker {
            self.0.generate(n, rng)
        }
        fn location(&self, w: &BasicWalker) -> VertexId {
            self.0.location(w)
        }
        fn is_active(&self, w: &BasicWalker) -> bool {
            self.0.is_active(w)
        }
        fn sample(&self, v: &VertexEdges<'_>, rng: &mut WalkRng) -> VertexId {
            self.0.sample(v, rng)
        }
        fn action(&self, w: &mut BasicWalker, next: VertexId, rng: &mut WalkRng) -> bool {
            self.0.action(w, next, rng)
        }
        fn state_bytes(&self) -> usize {
            4096
        }
    }

    #[test]
    fn pool_sizing_respects_tiny_budgets_with_fat_walker_state() {
        // 4096-byte walker states under a 64 KiB budget: the former
        // 64-walker pool floor would have demanded 256 KiB up front and
        // errored. The byte clamp caps the pool so the run completes.
        let csr = generators::rmat(10, 8, generators::RmatParams::default(), 11);
        let device = Arc::new(SimSsd::new(SsdProfile::nvme_p4618()));
        let graph = Arc::new(OnDiskGraph::store(&csr, device, 2048).unwrap());
        let app = Arc::new(FatState(Basic::new(200, 6, csr.num_vertices())));
        let engine = NosWalkerEngine::new(
            app,
            graph,
            EngineOptions::default(),
            MemoryBudget::new(64 << 10),
        );
        let m = engine
            .run(7)
            .expect("byte-clamped pool must fit the budget");
        assert_eq!(m.walkers_finished, 200);
    }

    #[test]
    fn full_engine_completes_all_steps() {
        let (app, engine) = small_setup(EngineOptions::default(), 64 << 10);
        let m = engine.run(7).unwrap();
        assert_eq!(m.walkers_finished, 500);
        // Every step lands on a vertex; walkers at dead ends terminate
        // early, so steps <= walkers * length.
        assert!(m.steps <= 500 * 10);
        assert!(m.steps > 0);
        let visited: u64 = app.visits.iter().map(|v| v.load(Ordering::Relaxed)).sum();
        assert_eq!(visited, m.steps);
        assert!(m.sim_ns > 0);
    }

    #[test]
    fn base_mode_completes_with_swap_traffic() {
        let (_, engine) = small_setup(EngineOptions::base(), 64 << 10);
        let m = engine.run(7).unwrap();
        assert_eq!(m.walkers_finished, 500);
        assert!(m.swap_bytes > 0, "epoch mode must charge swap I/O");
        assert_eq!(m.steps_on_presample, 0);
        assert!(m.fine_mode_at_step.is_none());
    }

    /// An out-of-core regime: the graph (~128 KiB) far exceeds the budget
    /// (24 KiB), so the block cache cannot mask reloads and the pre-sample
    /// pool is what saves I/O.
    fn ooc_engine(opts: EngineOptions) -> NosWalkerEngine<Basic> {
        let csr = generators::rmat(12, 8, generators::RmatParams::default(), 11);
        let device = Arc::new(SimSsd::new(SsdProfile::nvme_p4618()));
        let graph = Arc::new(OnDiskGraph::store(&csr, device, 4096).unwrap());
        let app = Arc::new(Basic::new(2000, 10, csr.num_vertices()));
        NosWalkerEngine::new(app, graph, opts, MemoryBudget::new(24 << 10))
    }

    #[test]
    fn presample_knob_reduces_io() {
        let m_no = ooc_engine(EngineOptions::with_shrink_block())
            .run(3)
            .unwrap();
        let m_ps = ooc_engine(EngineOptions::full()).run(3).unwrap();
        assert!(m_ps.steps_on_presample > 0);
        assert!(
            m_ps.edge_bytes_loaded < m_no.edge_bytes_loaded,
            "pre-sampling should reduce edge I/O: {} vs {}",
            m_ps.edge_bytes_loaded,
            m_no.edge_bytes_loaded
        );
    }

    #[test]
    fn scheduler_cost_follows_steps_not_pool_size_times_passes() {
        // The `presample_knob_reduces_io` cell (`scheduler_parity`'s cell
        // (a)). The polling pass that re-visited every waiting walker on
        // every scheduler pass cost 58,764 pick-ups for the 13,381 steps
        // it simulated (4.39 per step); park-once measured 25,323 (1.89)
        // there, and 25,001 for the 13,356 steps here (1.87). Wall-free: a
        // loop that is O(pool x passes) again cannot pass this, whatever
        // the host. A stall is an attempt that came back dry, so the stall
        // count guards too: a pick-up stalls at most once, and a ledger
        // that booked a tick per pass a walker waits (37,469 on that cell)
        // cannot stay under the pick-ups.
        let engine = ooc_engine(EngineOptions::full());
        let mut run = Run::new(&engine, 3, Trace::from_option(None)).unwrap();
        run.run_pooled().unwrap();
        let pickups = run.pickups;
        let m = run.finish();
        assert_eq!((m.steps, m.pool_stalls), (13_356, 3_770));
        assert!(m.pool_stalls <= pickups, "{} stalls", m.pool_stalls);
        let per_step = pickups as f64 / m.steps as f64;
        assert!(
            per_step < 1.25 * 1.89,
            "{pickups} pick-ups for {} steps = {per_step:.2} per step",
            m.steps
        );
    }

    /// Builds block 0's generation under `opts` with a budget policy that
    /// always refuses and halves down to the 64-slot floor; returns the
    /// capacities it was asked at.
    fn refused_build_capacities(opts: EngineOptions) -> Vec<u64> {
        let csr = generators::rmat(10, 8, generators::RmatParams::default(), 11);
        let device = Arc::new(SimSsd::new(SsdProfile::nvme_p4618()));
        let graph = OnDiskGraph::store(&csr, device, 2048).unwrap();
        let (block, _) = graph.load_block(0, &MemoryBudget::new(1 << 20)).unwrap();
        let info = *block.info();
        let generation = Generation {
            app: &Basic::new(1, 1, csr.num_vertices()),
            graph: &graph,
            opts: &opts,
            src: &block,
        };
        let mut asked = Vec::new();
        let built = generation.build(
            &info,
            None,
            &vec![0; info.num_vertices() as usize],
            4096,
            &mut WalkRng::seed_from_u64(1),
            |_bytes, slots| {
                asked.push(*slots);
                if *slots > 64 {
                    *slots /= 2;
                    ControlFlow::Continue(())
                } else {
                    ControlFlow::Break(None)
                }
            },
        );
        assert!(built.is_none());
        asked
    }

    #[test]
    fn refused_build_replans_only_while_capacity_can_change_the_plan() {
        // All-raw (what serve runs): the plan is a raw copy of the block
        // whatever the capacity, so one refusal settles it.
        let all_raw = EngineOptions {
            low_degree_threshold: u32::MAX,
            ..EngineOptions::default()
        };
        assert_eq!(refused_build_capacities(all_raw), [4096]);
        // Default options: halving shrinks the sampled share, so the
        // policy is followed all the way down to its floor.
        assert_eq!(
            refused_build_capacities(EngineOptions::default()),
            [4096, 2048, 1024, 512, 256, 128, 64]
        );
    }

    #[test]
    fn fine_mode_engages_for_sparse_walkers() {
        let mut opts = EngineOptions::full();
        opts.walker_pool_size = 64;
        let csr = generators::rmat(15, 16, generators::RmatParams::default(), 5);
        let device = Arc::new(SimSsd::new(SsdProfile::nvme_p4618()));
        let graph = Arc::new(OnDiskGraph::store(&csr, device, 64 << 10).unwrap());
        let app = Arc::new(Basic::new(50, 10, csr.num_vertices()));
        let budget = MemoryBudget::new(512 << 10);
        let engine = NosWalkerEngine::new(Arc::clone(&app), graph, opts, budget);
        let m = engine.run(9).unwrap();
        assert_eq!(m.walkers_finished, 50);
        // α·|Wa|·4KiB = 4·50·4096 ≈ 0.8 MB < S_G = 512k edges · 4 B = 2 MB:
        // fine mode should engage immediately.
        assert!(m.fine_mode_at_step.is_some());
        assert!(m.fine_loads > 0);
    }

    #[test]
    fn deterministic_under_seed() {
        let (_, e1) = small_setup(EngineOptions::default(), 64 << 10);
        let (_, e2) = small_setup(EngineOptions::default(), 64 << 10);
        let m1 = e1.run(42).unwrap();
        let m2 = e2.run(42).unwrap();
        assert_eq!(m1.steps, m2.steps);
        assert_eq!(m1.sim_ns, m2.sim_ns);
        assert_eq!(m1.edge_bytes_loaded, m2.edge_bytes_loaded);
    }

    #[test]
    fn budget_too_small_for_block_fails() {
        let (_, engine) = small_setup(EngineOptions::default(), 1024);
        assert!(matches!(engine.run(1), Err(EngineError::Budget(_))));
    }

    #[test]
    fn zero_walkers_is_a_noop() {
        let csr = generators::uniform_degree(32, 4, 2);
        let device = Arc::new(SimSsd::new(SsdProfile::nvme_p4618()));
        let graph = Arc::new(OnDiskGraph::store(&csr, device, 1024).unwrap());
        let app = Arc::new(Basic::new(0, 10, 32));
        let engine = NosWalkerEngine::new(
            app,
            graph,
            EngineOptions::default(),
            MemoryBudget::new(1 << 20),
        );
        let m = engine.run(0).unwrap();
        assert_eq!(m.steps, 0);
        assert_eq!(m.walkers_finished, 0);
    }

    #[test]
    fn errors_render_for_humans() {
        let budget = MemoryBudget::new(10);
        let e: EngineError = budget.try_reserve(100).unwrap_err().into();
        let msg = e.to_string();
        assert!(msg.contains("engine:"), "{msg}");
        assert!(msg.contains("memory budget exceeded"), "{msg}");
        let le: EngineError = crate::disk_graph::LoadError::Device(
            noswalker_storage::DeviceError::Io("disk on fire".into()),
        )
        .into();
        assert!(le.to_string().contains("disk on fire"));
    }

    #[test]
    fn load_error_budget_converts_to_engine_budget() {
        let budget = MemoryBudget::new(10);
        let le = crate::disk_graph::LoadError::Budget(budget.try_reserve(100).unwrap_err());
        assert!(matches!(EngineError::from(le), EngineError::Budget(_)));
    }

    #[test]
    fn walkers_on_dead_end_vertices_terminate() {
        use noswalker_graph::CsrBuilder;
        // Vertex 1 is a sink.
        let csr = CsrBuilder::new(2).edge(0, 1).build();
        let device = Arc::new(SimSsd::new(SsdProfile::nvme_p4618()));
        let graph = Arc::new(OnDiskGraph::store(&csr, device, 1024).unwrap());
        let app = Arc::new(Basic::new(10, 5, 2));
        let engine = NosWalkerEngine::new(
            app,
            graph,
            EngineOptions::default(),
            MemoryBudget::new(1 << 20),
        );
        let m = engine.run(3).unwrap();
        assert_eq!(m.walkers_finished, 10);
        // Walkers starting at 0 take one step to 1 then die; walkers
        // starting at 1 die immediately.
        assert_eq!(m.steps, 5);
    }
}
