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
//! Time is simulated through the run's [`Ledger`]'s pipeline clock: device
//! service times come from the storage layer, compute is charged per
//! step/sample, and stalls are whatever the pipeline exposes.

use crate::audit::{RunAudit, Trace, TraceEvent, TraceSink};
use crate::block::BlockCache;
use crate::disk_graph::{LoadError, OnDiskGraph};
use crate::ledger::Ledger;
use crate::metrics::{RunMetrics, StepSource};
use crate::options::{adjust_split, Adjust, EngineOptions};
use crate::presample::{plan_quotas, Peek, PreSampleBuffer};
use crate::threaded::Edges;
use crate::walk::{SecondOrderWalk, Walk, WalkRng};
use noswalker_graph::layout::VertexEdges;
use noswalker_graph::partition::{BlockId, BlockInfo};
use noswalker_graph::VertexId;
use noswalker_storage::{BudgetExceeded, MemoryBudget, Reservation};
use rand::SeedableRng;
use std::marker::PhantomData;
use std::ops::{ControlFlow, Range};
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

// ----------------------------------------------------------------------
// Shared with the real-thread runner (`crate::parallel`) and the baselines
// ----------------------------------------------------------------------

/// Finalizes a walker whose walk is over, attributing a cancellation to
/// the cancelled counter so the walker-completion law stays balanced.
pub fn retire_walker<A: Walk>(app: &A, metrics: &mut RunMetrics, w: &A::Walker) {
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
pub fn spawn_walker<A: Walk>(
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

/// Why a walker stopped moving ([`walk_resident`], [`walk_resident_2nd`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stop {
    /// The walk is over (inactive, or at a vertex with no out-edges); the
    /// caller retires the walker.
    Done,
    /// Nothing the source holds serves the walker's next hop, or its pool
    /// ran dry; it is still active.
    Left,
}

/// What serves one hop at a walker's vertex: the loaded block's edges
/// (§3.3.5), a pre-sampled slot (§3.3.2) or a raw-retained edge list
/// (§3.3.4) — or nothing, because the vertex's pool is dry.
#[derive(Debug)]
pub enum Draw<'a> {
    /// Loaded edges, sampled on line with [`Walk::sample_for`].
    Edges(VertexEdges<'a>),
    /// A pre-sampled destination; the source books it in
    /// [`Source::settle`] once [`Walk::action`] took or declined it.
    Slot(VertexId),
    /// Raw-retained edges, sampled on line; they never deplete.
    Raw(VertexEdges<'a>),
    /// The vertex's pool has no slot left: one pool stall.
    Dry,
}

/// Where a walker's hops come from: one engine's loaded edges and pools,
/// handed to the step verbs ([`walk_resident`], [`walk_resident_2nd`]).
pub trait Source {
    /// The out-degree of `v`; a walker at a vertex without out-edges is
    /// done.
    fn degree(&self, v: VertexId) -> u64;

    /// The loaded edges of `v`, if held (second order's rejection test
    /// reads the candidate's edges here). None by default.
    fn edges(&self, _v: VertexId) -> Option<VertexEdges<'_>> {
        None
    }

    /// What serves a hop at `at`, or `None` when nothing here does and the
    /// walker leaves. The loaded edges by default.
    fn draw(&mut self, at: VertexId) -> Option<Draw<'_>> {
        self.edges(at).map(Draw::Edges)
    }

    /// Books the [`Draw::Slot`] `dst` drawn at `at`, which
    /// [`Walk::action`] `taken` or declined.
    fn settle(&mut self, _at: VertexId, _dst: VertexId, _taken: bool) {}
}

/// Loaded edges as a [`Source`]: a degree lookup and an edge lookup (an
/// `Edges`, `FineLoad`, `LoadedBlock` or the CSR) whose views live for
/// `'g`.
#[derive(Debug)]
pub struct Resident<'g, D, E>(D, E, PhantomData<VertexEdges<'g>>);

impl<D, E> Resident<'_, D, E> {
    /// The source over `edges`, with `degree` telling dead ends apart.
    pub fn new(degree: D, edges: E) -> Self {
        Resident(degree, edges, PhantomData)
    }
}

impl<'g, D, E> Source for Resident<'g, D, E>
where
    D: Fn(VertexId) -> u64,
    E: Fn(VertexId) -> Option<VertexEdges<'g>>,
{
    fn degree(&self, v: VertexId) -> u64 {
        (self.0)(v)
    }

    fn edges(&self, v: VertexId) -> Option<VertexEdges<'_>> {
        (self.1)(v)
    }
}

/// One hop of an active walker at its location: draws from `source`,
/// applies [`Walk::action`] and books what the draw used up — a slot
/// Action took, or a stall on a dry pool. Returns the vertex left, the
/// destination and what served it, or why the walker stopped.
fn hop<A: Walk>(
    app: &A,
    w: &mut A::Walker,
    rng: &mut WalkRng,
    metrics: &mut RunMetrics,
    source: &mut impl Source,
) -> Result<(VertexId, VertexId, StepSource), Stop> {
    let at = app.location(w);
    if !app.is_active(w) || source.degree(at) == 0 {
        return Err(Stop::Done);
    }
    let (dst, from) = match source.draw(at) {
        None => return Err(Stop::Left),
        Some(Draw::Dry) => {
            metrics.record_pool_stall();
            return Err(Stop::Left);
        }
        Some(Draw::Edges(view)) => (app.sample_for(w, &view, rng), StepSource::Block),
        Some(Draw::Raw(view)) => (app.sample_for(w, &view, rng), StepSource::Raw),
        Some(Draw::Slot(dst)) => (dst, StepSource::PreSample),
    };
    let taken = app.action(w, dst, rng);
    if from == StepSource::PreSample {
        // A slot is used up only when Action took it (Algorithm 1, lines
        // 17-18); a declined one goes back to the source.
        if taken {
            metrics.record_presample_consumed();
        }
        source.settle(at, dst, taken);
    }
    Ok((at, dst, from))
}

/// The first-order step every engine takes: moves `w` on what `source`
/// draws until its walk ends or nothing serves its next hop. Each step
/// applies [`Walk::action`], calls `on_step(at, dst)` and books one step
/// by what served it; an edge drawn on line costs a sample on top of the
/// step.
///
/// Returns the modeled nanoseconds spent and why the walker stopped. The
/// caller charges them and retires a [`Stop::Done`] walker.
pub fn walk_resident<A: Walk>(
    app: &A,
    w: &mut A::Walker,
    rng: &mut WalkRng,
    metrics: &mut RunMetrics,
    opts: &EngineOptions,
    source: &mut impl Source,
    mut on_step: impl FnMut(VertexId, VertexId),
) -> (u64, Stop) {
    let mut ns = 0;
    loop {
        let (at, dst, from) = match hop(app, w, rng, metrics, source) {
            Ok(moved) => moved,
            Err(stop) => return (ns, stop),
        };
        on_step(at, dst);
        metrics.record_step(from);
        ns += opts.step_cost();
        if from != StepSource::PreSample {
            ns += opts.sample_cost();
        }
    }
}

/// The second-order step (Algorithm 3): while the walker holds a
/// candidate whose edges are loaded, accept or reject it
/// ([`SecondOrderWalk::rejection`], one step cost each); otherwise draw a
/// new candidate at its location from `source` (one sample cost, or one
/// step cost for a pre-sampled slot).
///
/// Returns the modeled nanoseconds spent and why the walker stopped. The
/// caller charges them and retires a [`Stop::Done`] walker.
pub fn walk_resident_2nd<A: SecondOrderWalk>(
    app: &A,
    w: &mut A::Walker,
    rng: &mut WalkRng,
    metrics: &mut RunMetrics,
    opts: &EngineOptions,
    source: &mut impl Source,
) -> (u64, Stop) {
    let mut ns = 0;
    loop {
        if !app.is_active(w) {
            return (ns, Stop::Done);
        }
        if let Some(c) = app.candidate(w) {
            let Some(cedges) = source.edges(c) else {
                return (ns, Stop::Left);
            };
            let before = app.location(w);
            app.rejection(w, &cedges, rng);
            ns += opts.step_cost();
            metrics.record_second_order(app.location(w) != before);
            continue;
        }
        ns += match hop(app, w, rng, metrics, source) {
            Ok((_, _, StepSource::PreSample)) => opts.step_cost(),
            Ok(_) => opts.sample_cost(),
            Err(stop) => return (ns, stop),
        };
    }
}

/// Plans one fine batch from the vertices walkers wait on in one block:
/// distinct and in id order, cut where their pages would pass a quarter of
/// the budget (at least four pages, but never more than the budget leaves
/// after the walker pool's `hold`) so the batch fits comfortably in memory
/// (the first vertex is always kept; later batches serve the rest).
/// Returns the batch and the bytes to make room for.
pub(crate) fn plan_fine_batch(
    graph: &OnDiskGraph,
    budget: &MemoryBudget,
    hold: u64,
    waiting: impl Iterator<Item = VertexId>,
) -> (Vec<VertexId>, u64) {
    let mut verts: Vec<VertexId> = waiting.collect();
    verts.sort_unstable();
    verts.dedup();
    let cap = (budget.limit() / 4)
        .max(noswalker_graph::FINE_PAGE_BYTES * 4)
        .min(budget.limit().saturating_sub(hold));
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

/// The raw-retention floor of a generation over vertices of these
/// `degrees`: the bytes every plan holds at least (each low-degree
/// vertex's edges, 8 B each on weighted graphs, plus 9 B per vertex + 4).
fn raw_floor(opts: &EngineOptions, graph: &OnDiskGraph, degrees: &[u64]) -> u64 {
    let weighted = graph.format() != noswalker_graph::EdgeFormat::Unweighted;
    let low = u64::from(opts.low_degree_threshold);
    let raw_edges: u64 = degrees.iter().filter(|&&d| d > 0 && d <= low).sum();
    raw_edges * if weighted { 8 } else { 4 } + degrees.len() as u64 * 9 + 4
}

/// Whether a refill of block `info` from the whole block builds a new
/// pre-sample generation (§3.3.2). All of: pre-sampling is on; the fair
/// share `fair` is above the block's metadata; its generation `current`
/// is absent or drained to a quarter of its sampled slots; and, with
/// `room = (floor, avail)` given, the whole block's raw-retention floor
/// fits in `avail`. Regenerating discards unconsumed slots (the compact
/// CSR layout cannot be appended to), hence the drain rule: reserved
/// samples are not wasted on every reload of a hot block.
///
/// The refill calls this without `room` (the build checks the floor of
/// the vertices it covers). In fine mode a load calls it with the budget
/// left after reading the block whole, and reads the block whole only
/// when this holds: a page batch refills only the vertices it covered, so
/// it can never fund a whole-block generation (see `Run::reads_whole`).
fn refills_whole_block(
    opts: &EngineOptions,
    info: &BlockInfo,
    current: Option<&PreSampleBuffer>,
    fair: u64,
    room: Option<(u64, u64)>,
) -> bool {
    opts.enable_presample
        && fair > u64::from(info.num_vertices()) * 9 + 4
        && room.is_none_or(|(floor, avail)| floor <= avail)
        && current.is_none_or(|buf| buf.remaining_sampled() * 4 <= buf.sampled_capacity())
}

/// What one pre-sample generation is built against: the application's
/// sampler and the loaded edges it draws from.
pub(crate) struct Generation<'a, A: Walk> {
    pub(crate) app: &'a A,
    pub(crate) graph: &'a OnDiskGraph,
    pub(crate) opts: &'a EngineOptions,
    pub(crate) src: &'a Edges,
    /// Budget bytes free for the build; `u64::MAX` when the reserve
    /// policy can free memory itself.
    pub(crate) available: u64,
}

impl<A: Walk> Generation<'_, A> {
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
    /// A build whose raw-retention floor (the bytes every plan holds at
    /// least) exceeds [`Generation::available`] is refused before any
    /// planning: no plan could pass the reserve.
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
                for &v in list
                    .iter()
                    .filter(|&&v| src.vertex_edges(graph, v).is_some())
                {
                    degrees[(v - info.vertex_start) as usize] = graph.degree(v);
                }
            }
        }
        let weighted = graph.format() != noswalker_graph::EdgeFormat::Unweighted;
        // Every plan holds at least the raw-retention floor, so a budget
        // below it would refuse each re-plan in turn.
        if raw_floor(self.opts, graph, &degrees) > self.available {
            return None;
        }
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
        // Planned vertices are covered (the planner zeroes the rest), and
        // a run of raw ones is a single loaded span: their records touch.
        #[expect(clippy::expect_used, reason = "the planner zeroes uncovered vertices")]
        let covered = |vs: Range<VertexId>| src.run_edges(graph, vs).expect("planned, so covered");
        let mut last = None;
        let (mut buf, draws) = PreSampleBuffer::build(
            info.vertex_start,
            &plan,
            weighted,
            |v| {
                // A vertex's draws come in a row: decode it once.
                let view = match last {
                    Some((u, view)) if u == v => view,
                    _ => last.insert((v, covered(v..v + 1))).1,
                };
                self.app.sample(&view, rng)
            },
            |v, edges, wts| {
                // The first vertex of a run of raw vertices appends the
                // whole run: its records are one span, decoded in one pass.
                let i = (v - info.vertex_start) as usize;
                if i == 0 || !plan.raw[i - 1] {
                    let len = plan.raw[i..].iter().take_while(|&&r| r).count() as VertexId;
                    covered(v..v + len).append_edges(edges, wts);
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
        self.audited(seed, sink, |run| {
            if run.opts.enable_walker_management {
                run.run_pooled()
            } else {
                run.run_epochs()
            }
        })
    }

    /// Drives one [`Run`] through `workflow` under a [`RunAudit`].
    fn audited<'a>(
        &'a self,
        seed: u64,
        sink: Option<&'a mut dyn TraceSink>,
        workflow: impl FnOnce(&mut Run<'a, A>) -> Result<(), EngineError>,
    ) -> Result<RunMetrics, EngineError> {
        RunAudit::audited(self.app.total_walkers(), Some(&self.budget), || {
            let mut run = Run::new(self, seed, Trace::from_option(sink))?;
            workflow(&mut run)?;
            Ok(run.finish())
        })
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
        self.audited(seed, sink, Run::run_pooled_2nd)
    }
}

/// A pending asynchronous load: the edges and when they are ready.
type Pending = (Edges, u64);

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
    ledger: Ledger<'e>,
    slab: Vec<Option<A::Walker>>,
    free: Vec<usize>,
    /// Walker entries bucketed by the block of their needed vertex.
    buckets: Vec<Bucket>,
    live: u64,
    next_id: u64,
    total: u64,
    presample: Vec<Option<PreSampleBuffer>>,
    pool_reservation: Reservation,
    /// Live walkers the pool may hold: [`EngineOptions::walker_pool_quota`]
    /// at the start, then moved at every load by [`Run::adjust`].
    cap: u64,
    /// On-block and pool steps booked at the last load boundary.
    mark: (u64, u64),
    /// Page-cache stand-in for coarse blocks (the cgroups budget covers
    /// the OS page cache for every system, §4.1).
    cache: BlockCache,
    /// Largest coarse block, for sizing fixed overhead.
    max_block_bytes: u64,
    /// Calls of `chase_presamples` / `chase_block` (the scheduler ratchet).
    #[cfg(test)]
    pickups: u64,
}

/// Takes the live walker out of slot `i` for retirement. Bucket entries
/// only reference live slots, so a vacant slot here is engine-state
/// corruption, not a user error.
fn take_live<W>(slab: &mut [Option<W>], i: usize) -> W {
    #[expect(clippy::expect_used, reason = "bucket entries reference live slots")]
    slab[i].take().expect("retiring a live walker")
}

/// The sequential engine's own pre-sample pool as a [`Source`]: each
/// block's generation serves by [`PreSampleBuffer::peek`], and a slot is
/// consumed only when Action took it. A raw draw or a stall ticks the
/// vertex's visit counter, steering the next generation's quotas.
struct OwnPool<'a> {
    graph: &'a OnDiskGraph,
    bufs: &'a mut [Option<PreSampleBuffer>],
}

impl Source for OwnPool<'_> {
    fn degree(&self, v: VertexId) -> u64 {
        self.graph.degree(v)
    }

    fn draw(&mut self, at: VertexId) -> Option<Draw<'_>> {
        let buf = self.bufs[self.graph.block_of(at) as usize].as_ref()?;
        let draw = match buf.peek(at) {
            Peek::Sampled(dst) => return Some(Draw::Slot(dst)),
            Peek::Raw(view) => Draw::Raw(view),
            Peek::Empty => Draw::Dry,
        };
        buf.record_visit(at);
        Some(draw)
    }

    fn settle(&mut self, at: VertexId, _: VertexId, taken: bool) {
        if let (true, Some(buf)) = (taken, &mut self.bufs[self.graph.block_of(at) as usize]) {
            buf.consume(at);
        }
    }
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
            ledger: Ledger::new(trace),
            slab: Vec::new(),
            free: Vec::new(),
            buckets: vec![Bucket::default(); num_blocks],
            live: 0,
            next_id: 0,
            total,
            presample: (0..num_blocks).map(|_| None).collect(),
            pool_reservation,
            cap: charged,
            mark: (0, 0),
            cache: BlockCache::new(num_blocks),
            max_block_bytes: engine.graph.max_block_bytes(),
            #[cfg(test)]
            pickups: 0,
        })
    }

    fn finish(self) -> RunMetrics {
        debug_assert!(
            self.buckets.iter().all(|b| b.entries.is_empty()),
            "a walker was left parked in a bucket"
        );
        self.ledger.close(self.graph, self.budget)
    }

    // ------------------------------------------------------------------
    // Walker bookkeeping
    // ------------------------------------------------------------------

    fn remaining(&self) -> u64 {
        self.total - self.ledger.metrics.walkers_finished - self.ledger.metrics.walkers_cancelled
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
        retire_walker(self.app, &mut self.ledger.metrics, &w);
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
    /// to the live walkers and the pool's cap, or to the live walkers
    /// alone once generation is exhausted (memory recycling, §3.3.3).
    /// `needed` computes the bucket vertex for a fresh walker.
    fn generate(&mut self, cap: u64, needed: impl Fn(&Self, &A::Walker) -> VertexId) {
        while self.live < cap && self.next_id < self.total {
            let spawned = spawn_walker(
                self.app,
                &mut self.ledger.metrics,
                self.next_id,
                &mut self.rng,
            );
            self.next_id += 1;
            if let Some(w) = spawned {
                let v = needed(self, &w);
                self.insert_walker(w, v);
            }
        }
        let keep = if self.next_id < self.total {
            self.live.max(self.cap)
        } else {
            self.live
        };
        let want = keep * self.app.state_bytes() as u64;
        if want < self.pool_reservation.bytes() {
            self.pool_reservation.shrink_to(want);
        }
    }

    // ------------------------------------------------------------------
    // Moving
    // ------------------------------------------------------------------

    /// Moves walker `i` as far as possible on its blocks' pre-sampled and
    /// raw slots (the decoupled fast path). Returns the modeled
    /// nanoseconds spent, nonzero exactly when it moved.
    fn chase_presamples(&mut self, i: usize) -> u64 {
        #[cfg(test)]
        {
            self.pickups += 1;
        }
        self.walk_own_pool(i, |app, w, rng, m, opts, pool| {
            walk_resident(app, w, rng, m, opts, pool, |_, _| {})
        })
    }

    /// Moves walker `i` with `verb` over the engine's own pool, charges
    /// the modeled time and retires the walker once its walk is over.
    /// Returns the nanoseconds spent, nonzero exactly when it moved.
    fn walk_own_pool(
        &mut self,
        i: usize,
        verb: impl FnOnce(
            &A,
            &mut A::Walker,
            &mut WalkRng,
            &mut RunMetrics,
            &EngineOptions,
            &mut OwnPool<'_>,
        ) -> (u64, Stop),
    ) -> u64 {
        let Some(w) = self.slab[i].as_mut() else {
            return 0;
        };
        let pool = &mut OwnPool {
            graph: self.graph,
            bufs: &mut self.presample,
        };
        let (ns, stop) = verb(
            self.app,
            w,
            &mut self.rng,
            &mut self.ledger.metrics,
            self.opts,
            pool,
        );
        self.ledger.compute(ns);
        if stop == Stop::Done {
            self.retire(i);
        }
        ns
    }

    /// Moves walker `i` as far as possible inside the loaded edges `src`
    /// (GraphWalker-style re-entry; "use loaded edges as pre-sampled
    /// edges", §3.3.5), then keeps going on pre-samples.
    fn chase_block(&mut self, i: usize, src: &Edges) {
        #[cfg(test)]
        {
            self.pickups += 1;
        }
        let Some(w) = self.slab[i].as_mut() else {
            return;
        };
        let graph = self.graph;
        let (ns, stop) = walk_resident(
            self.app,
            w,
            &mut self.rng,
            &mut self.ledger.metrics,
            self.opts,
            &mut Resident::new(|v| graph.degree(v), |v| src.vertex_edges(graph, v)),
            |_, _| {},
        );
        self.ledger.compute(ns);
        if stop == Stop::Done {
            return self.retire(i);
        }
        self.chase_presamples(i);
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
                let at = self.ledger.now();
                self.ledger.emit(|| TraceEvent::CacheEvict { at_ns: at });
                continue;
            }
            let victim = (0..self.presample.len())
                .filter(|&b| self.presample[b].is_some())
                .max_by_key(|&b| self.presample[b].as_ref().map_or(0, |p| p.memory_bytes()));
            match victim {
                Some(b) => self.evict_generation(b),
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

    /// Drops block `b`'s pre-sample generation, booking the eviction.
    fn evict_generation(&mut self, b: usize) {
        if let Some(buf) = self.presample[b].take() {
            let (at, bytes) = (self.ledger.now(), buf.memory_bytes());
            self.ledger.emit(|| TraceEvent::PresampleEvict {
                block: b as BlockId,
                bytes,
                at_ns: at,
            });
        }
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
        if self.ledger.fine_mode(self.opts, self.graph, remaining) {
            let waiting = self.buckets[b as usize].entries.iter().map(|e| e.v);
            let hold = self.pool_reservation.bytes();
            let (verts, room) = plan_fine_batch(self.graph, self.budget, hold, waiting);
            if !self.reads_whole(b, &verts) {
                self.make_room(room)?;
                let at = self.ledger.now();
                let (load, ns) = self.graph.load_fine(b, &verts, self.budget)?;
                let ready_at = self.ledger.issue_io_at(at, ns);
                self.ledger.fine_load(verts.len(), &load, at);
                return Ok(Some((Edges::Fine(load, verts), ready_at)));
            }
        }
        self.issue_coarse(b).map(Some)
    }

    /// Whether fine mode reads block `b` whole instead of the page batch
    /// `verts`: when the device prices the whole read at most
    /// [`EngineOptions::WHOLE_READ_PRICE_CAP`] times the batch, and the
    /// load funds `b`'s next whole-block generation
    /// ([`refills_whole_block`], with the budget left after the read).
    fn reads_whole(&self, b: BlockId, verts: &[VertexId]) -> bool {
        let (graph, info) = (self.graph, self.graph.partition().block(b));
        let cheap = |(whole, batch)| whole <= EngineOptions::WHOLE_READ_PRICE_CAP * batch;
        graph.price_loads(b, verts).is_some_and(cheap) && {
            let vs = info.vertex_start..info.vertex_end;
            let degrees: Vec<u64> = vs.map(|v| graph.degree(v)).collect();
            let avail = self.budget.available().saturating_sub(info.byte_len());
            let room = (raw_floor(self.opts, graph, &degrees), avail);
            let (current, fair) = (self.presample[b as usize].as_ref(), self.fair_share());
            refills_whole_block(self.opts, info, current, fair, Some(room))
        }
    }

    /// Issues an asynchronous coarse load of block `b`.
    fn issue_coarse(&mut self, b: BlockId) -> Result<Pending, EngineError> {
        let info = *self.graph.partition().block(b);
        if self.budget.available() < info.byte_len() {
            self.make_room(info.byte_len())?;
        }
        let (block, ns, hit) = self
            .cache
            .load(self.graph, b, self.budget)
            .map_err(EngineError::from)?;
        let at = self.ledger.now();
        let ready_at = self.ledger.issue_io_at(at, ns);
        self.ledger.coarse_load(b, info.byte_len(), hit, at);
        Ok((Edges::Coarse(block), ready_at))
    }

    /// Fair share: the pre-sample pool as a whole gets a fraction of the
    /// budget left after the fixed working set (two block buffers + the
    /// walker pool), split evenly across blocks. This is what lets the
    /// reserved samples cover the *entire* graph at a few slots per
    /// vertex — the succinct-representation effect of §2.4.1 — instead
    /// of a handful of blocks hoarding deep sample queues. It falls within
    /// a run only when [`Run::adjust`] grows the walker pool, which then
    /// evicts every generation the lowered share no longer funds.
    fn fair_share(&self) -> u64 {
        let fixed = 2 * self.max_block_bytes + self.pool_reservation.bytes();
        let pool_budget = (self.budget.limit().saturating_sub(fixed) as f64
            * EngineOptions::PRESAMPLE_BUDGET_FRACTION) as u64;
        pool_budget / self.graph.num_blocks().max(1) as u64
    }

    /// Rebuilds block `b`'s pre-sample buffer from a loaded source
    /// (§3.3.2): drop the old generation, reallocate slots proportional to
    /// carried visit counters, refill by sampling. `only` restricts slots
    /// to the vertices actually covered by a fine load. Nothing happens
    /// unless [`refills_whole_block`] holds, the same rule a fine-mode
    /// load consults before reading the block whole.
    fn rebuild_presamples(&mut self, b: BlockId, src: &Edges, only: Option<&[VertexId]>) {
        let info = *self.graph.partition().block(b);
        let nv = info.num_vertices() as usize;
        let fair = self.fair_share();
        let current = self.presample[b as usize].as_ref();
        // Checked before the counter snapshot: none of it depends on the
        // free budget.
        if nv == 0 || !refills_whole_block(self.opts, &info, current, fair, None) {
            // A block refused on its fair share holds no generation to
            // drop: a grown walker pool evicts the ones it defunds.
            debug_assert!(fair > nv as u64 * 9 + 4 || current.is_none());
            return;
        }
        // Called with `b`'s bucket just taken for the load, so the new
        // generation finds the whole bucket untried.
        debug_assert_eq!(self.buckets[b as usize].parked, 0);
        let meta_bytes = nv as u64 * 9 + 4;
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
            available: avail,
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
        self.ledger.compute(draws * self.opts.sample_cost());
        self.ledger.refill(b, slots, draws);
        self.presample[b as usize] = Some(buf);
    }

    /// The "Adjust" arrow (Fig. 6), at a load boundary while walkers are
    /// still being generated: moves one fair share of budget toward the
    /// side that served more steps per byte since the last boundary
    /// ([`adjust_split`]). Growing the walker pool gives back cached
    /// blocks first, never evicts a generation to make room, keeps room
    /// for one more block and stays inside the working set the fair share
    /// leaves out; the generations the lowered fair share no longer funds
    /// are then evicted. Shrinking lowers the cap, never below the opening
    /// quota, and the reservation follows live walkers down in
    /// [`Run::generate`].
    fn adjust(&mut self) {
        let m = &self.ledger.metrics;
        let steps = (m.steps_on_block, m.steps_on_presample + m.steps_on_raw);
        let (block, pool) = (steps.0 - self.mark.0, steps.1 - self.mark.1);
        self.mark = steps;
        if self.next_id >= self.total || self.cap >= self.total {
            return;
        }
        let pool_bytes = self
            .presample
            .iter()
            .flatten()
            .map(|p| p.memory_bytes())
            .sum();
        let (fair, state) = (self.fair_share(), self.app.state_bytes().max(1) as u64);
        let held = self.pool_reservation.bytes();
        match adjust_split(block, pool, held, pool_bytes) {
            Adjust::Grow => {
                let most = self.total.min(self.opts.walker_pool_size as u64);
                let cap = (self.cap + fair / state).min(most);
                let need = (cap * state).saturating_sub(held);
                let room = need + self.max_block_bytes;
                while cap > self.cap && self.budget.available() < room && self.cache.evict_one() {
                    let at = self.ledger.now();
                    self.ledger.emit(|| TraceEvent::CacheEvict { at_ns: at });
                }
                if cap <= self.cap
                    || self.budget.available() < room
                    || self.pool_reservation.try_grow(need).is_err()
                {
                    return;
                }
                // The fair share leaves out the working set, so the pool
                // never grows into the two block buffers.
                let ceiling = self.budget.limit().saturating_sub(2 * self.max_block_bytes);
                debug_assert!(self.pool_reservation.bytes() <= ceiling);
                self.cap = cap;
                let fair = self.fair_share();
                for b in 0..self.presample.len() {
                    let info = self.graph.partition().block(b as BlockId);
                    if fair <= u64::from(info.num_vertices()) * 9 + 4 {
                        self.evict_generation(b);
                    }
                }
            }
            Adjust::Shrink => {
                let state_bytes = self.app.state_bytes();
                let opening = self
                    .opts
                    .walker_pool_quota(self.budget, state_bytes, self.total);
                self.cap = self.cap.saturating_sub(fair / state).max(opening);
            }
            Adjust::Hold => {}
        }
    }

    // ------------------------------------------------------------------
    // First-order pooled workflow (Algorithm 1)
    // ------------------------------------------------------------------

    /// The pooled scheduling loop both orders share. `needed` names the
    /// vertex a walker waits on, `integrate` consumes a completed load,
    /// and `attempt` moves one walker on reserved pre-samples in the
    /// [`Run::pool_pass`] between loads (returning the progress made).
    fn run_pool(
        &mut self,
        needed: impl Fn(&Self, &A::Walker) -> VertexId + Copy,
        integrate: impl Fn(&mut Self, Pending),
        attempt: impl Fn(&mut Self, usize) -> u64,
    ) -> Result<(), EngineError> {
        self.generate(self.cap, needed);
        let mut pending: Option<Pending> = None;
        loop {
            if self.done() {
                break;
            }
            // Integrate a completed load; issue the next one first so the
            // loader never idles (background I/O thread, Algorithm 1).
            let now = self.ledger.now();
            if let Some(p) = pending.take_if(|p| p.1 <= now) {
                pending = self.try_prefetch(Some(p.0.info().id))?;
                integrate(self, p);
                self.adjust();
                self.generate(self.cap, needed);
            }
            // Keep walkers moving on reserved pre-samples meanwhile.
            let moved = self.pool_pass(needed, &attempt);
            self.generate(self.cap, needed);
            if self.done() {
                break;
            }
            if pending.is_none() {
                pending = self.issue_load(None)?;
            }
            if moved == 0 {
                match &pending {
                    Some((edges, t)) => self.ledger.stall(Some(edges.info().id), *t),
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
            Self::chase_presamples,
        )
    }

    fn integrate_first_order(&mut self, (edges, _): Pending) {
        let (b, fine) = (edges.info().id, matches!(edges, Edges::Fine(..)));
        let mut served: Vec<VertexId> = Vec::new();
        // Process the waiting walkers, then adaptively generate more
        // (Fig. 6 ②): fresh walkers whose start vertex lies in the
        // resident block are drained immediately while the data is hot,
        // freeing their pool slots for yet more generation. Iterate until
        // the block has no runnable walker left or the pool is pinned by
        // walkers stuck elsewhere.
        loop {
            let progress_mark =
                self.ledger.metrics.steps + self.ledger.metrics.walkers_finished + self.next_id;
            let bucket = self.take_bucket(b);
            if bucket.is_empty() {
                self.generate(self.cap, |run, w| run.app.location(w));
                if self.next_id + self.ledger.metrics.walkers_finished == progress_mark
                    || self.buckets[b as usize].entries.is_empty()
                {
                    break;
                }
                continue;
            }
            for Entry { slot: i, v, .. } in bucket {
                if fine {
                    served.push(v);
                }
                self.chase_block(i, &edges);
                self.rebucket(i, |run, w| run.app.location(w));
            }
            if self.ledger.metrics.steps + self.ledger.metrics.walkers_finished + self.next_id
                == progress_mark
            {
                break; // remaining walkers cannot move on this load
            }
        }
        self.refill_from(&edges, served);
        // `edges` drops here; a coarse buffer stays alive in the cache.
    }

    /// Rebuilds the generation of `edges`' block once its walkers were
    /// integrated. A fine batch plans only the vertices the bucket held
    /// at integration, `served`.
    fn refill_from(&mut self, edges: &Edges, mut served: Vec<VertexId>) {
        served.sort_unstable();
        served.dedup();
        let only = matches!(edges, Edges::Fine(..)).then_some(served.as_slice());
        self.rebuild_presamples(edges.info().id, edges, only);
    }

    // ------------------------------------------------------------------
    // Epoch workflow (walker management off — Fig. 14 base)
    // ------------------------------------------------------------------

    fn run_epochs(&mut self) -> Result<(), EngineError> {
        let by_loc = |run: &Self, w: &A::Walker| run.app.location(w);
        self.generate(u64::MAX, by_loc);
        // Epoch mode never shrinks to fine-grained I/O: every pending
        // load is a coarse block.
        let mut pending: Option<Pending> = None;
        while !self.done() {
            let (edges, ready_at) = match pending.take() {
                Some(p) => p,
                None => match self.hottest_block(None) {
                    Some(b) => self.issue_coarse(b)?,
                    None => break,
                },
            };
            let b = edges.info().id;
            self.ledger.stall(Some(b), ready_at);
            // Walker-state swap (GraphWalker's fixed walker buffer,
            // §2.4.2): the block's walker states are written back to and
            // read from a swap region on the same device.
            let in_block = self.buckets[b as usize].entries.len() as u64;
            let bytes = in_block * EngineOptions::SWAP_RECORD_BYTES;
            self.ledger.swap(self.graph, Some(b), bytes)?;
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
                self.chase_block(i, &edges);
                self.rebucket(i, by_loc);
            }
        }
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

    /// Between loads, candidate-less walkers draw candidates from
    /// pre-samples (steps 1–2 of the rejection method, Appendix A.2); a
    /// walker already holding one waits for its rejection test.
    fn run_pooled_2nd(&mut self) -> Result<(), EngineError> {
        self.run_pool(
            |run, w| run.needed_vertex(w),
            Self::integrate_2nd,
            |run, i| {
                run.walk_own_pool(i, |app, w, rng, m, opts, pool| {
                    walk_resident_2nd(app, w, rng, m, opts, pool)
                })
            },
        )
    }

    /// Integrates a load for second order: RejectionProcess for walkers
    /// whose candidate lives here, then in-block candidate + rejection
    /// chaining (Algorithm 3).
    fn integrate_2nd(&mut self, (edges, _): Pending) {
        let bucket = self.take_bucket(edges.info().id);
        let fine = matches!(edges, Edges::Fine(..));
        let mut served: Vec<VertexId> = Vec::new();
        for Entry { slot: i, v, .. } in bucket {
            if fine {
                served.push(v);
            }
            let Some(w) = self.slab[i].as_mut() else {
                continue;
            };
            let graph = self.graph;
            let (ns, stop) = walk_resident_2nd(
                self.app,
                w,
                &mut self.rng,
                &mut self.ledger.metrics,
                self.opts,
                &mut Resident::new(|v| graph.degree(v), |v| edges.vertex_edges(graph, v)),
            );
            self.ledger.compute(ns);
            match stop {
                Stop::Done => self.retire(i),
                Stop::Left => self.rebucket(i, |run, w| run.needed_vertex(w)),
            }
        }
        self.refill_from(&edges, served);
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

    /// A scripted [`Source`]: serves `draws` from the back, holds the
    /// `loaded` edges of one vertex, and gives every vertex but `dead` one
    /// out-edge. Records what it was asked to settle.
    struct Script<'a> {
        draws: Vec<Draw<'a>>,
        loaded: Option<(VertexId, VertexEdges<'a>)>,
        dead: VertexId,
        settled: Vec<(VertexId, VertexId, bool)>,
    }

    impl<'a> Script<'a> {
        fn new(mut draws: Vec<Draw<'a>>) -> Self {
            draws.reverse();
            Script {
                draws,
                loaded: None,
                dead: VertexId::MAX,
                settled: Vec::new(),
            }
        }
    }

    impl Source for Script<'_> {
        fn degree(&self, v: VertexId) -> u64 {
            u64::from(v != self.dead)
        }

        fn edges(&self, v: VertexId) -> Option<VertexEdges<'_>> {
            self.loaded.filter(|&(u, _)| u == v).map(|(_, view)| view)
        }

        fn draw(&mut self, _: VertexId) -> Option<Draw<'_>> {
            self.draws.pop()
        }

        fn settle(&mut self, at: VertexId, dst: VertexId, taken: bool) {
            self.settled.push((at, dst, taken));
        }
    }

    fn one_edge(target: &[VertexId]) -> VertexEdges<'_> {
        VertexEdges::Mem {
            targets: target,
            weights: None,
            alias: None,
        }
    }

    /// A walk of `length` hops whose Action declines destination 99
    /// (counting the hop, staying put) and, in second order, accepts
    /// every candidate.
    #[derive(Debug)]
    struct Picky {
        length: u32,
    }

    #[derive(Debug, Clone, Default)]
    struct PickyWalker {
        at: VertexId,
        step: u32,
        candidate: Option<VertexId>,
    }

    impl Walk for Picky {
        type Walker = PickyWalker;
        fn total_walkers(&self) -> u64 {
            1
        }
        fn generate(&self, _: u64, _: &mut WalkRng) -> PickyWalker {
            PickyWalker::default()
        }
        fn location(&self, w: &PickyWalker) -> VertexId {
            w.at
        }
        fn is_active(&self, w: &PickyWalker) -> bool {
            w.step < self.length
        }
        fn sample(&self, v: &VertexEdges<'_>, rng: &mut WalkRng) -> VertexId {
            uniform_sample(v, rng)
        }
        fn action(&self, w: &mut PickyWalker, next: VertexId, _: &mut WalkRng) -> bool {
            if w.candidate.is_some() || next == 99 {
                w.step += 1;
                return false;
            }
            w.at = next;
            w.step += 1;
            true
        }
    }

    /// Candidates are recorded by Action and always accepted.
    #[derive(Debug)]
    struct Picky2nd;

    impl Walk for Picky2nd {
        type Walker = PickyWalker;
        fn total_walkers(&self) -> u64 {
            1
        }
        fn generate(&self, _: u64, _: &mut WalkRng) -> PickyWalker {
            PickyWalker::default()
        }
        fn location(&self, w: &PickyWalker) -> VertexId {
            w.at
        }
        fn is_active(&self, w: &PickyWalker) -> bool {
            w.step < 5
        }
        fn sample(&self, v: &VertexEdges<'_>, rng: &mut WalkRng) -> VertexId {
            uniform_sample(v, rng)
        }
        fn action(&self, w: &mut PickyWalker, next: VertexId, _: &mut WalkRng) -> bool {
            w.candidate = Some(next);
            true
        }
    }

    impl SecondOrderWalk for Picky2nd {
        fn candidate(&self, w: &PickyWalker) -> Option<VertexId> {
            w.candidate
        }
        fn rejection(&self, w: &mut PickyWalker, _: &VertexEdges<'_>, _: &mut WalkRng) {
            w.at = w.candidate.take().unwrap();
            w.step += 1;
        }
    }

    #[test]
    fn the_verb_books_each_draw_by_what_served_it() {
        let opts = EngineOptions::default();
        let (five, eight) = ([5], [8]);
        let mut script = Script::new(vec![
            Draw::Edges(one_edge(&five)),
            Draw::Slot(99), // declined
            Draw::Slot(7),  // taken
            Draw::Raw(one_edge(&eight)),
            Draw::Dry,
        ]);
        let (app, mut w) = (Picky { length: 10 }, PickyWalker::default());
        let (mut rng, mut m, mut hops) = (WalkRng::seed_from_u64(1), RunMetrics::default(), vec![]);
        let on_step = |at, dst| hops.push((at, dst));
        let (ns, stop) = walk_resident(&app, &mut w, &mut rng, &mut m, &opts, &mut script, on_step);
        assert_eq!(stop, Stop::Left);
        assert_eq!(hops, [(0, 5), (5, 99), (5, 7), (7, 8)]);
        assert_eq!((w.at, w.step), (8, 4));
        let by_source = (m.steps_on_block, m.steps_on_presample, m.steps_on_raw);
        assert_eq!((m.steps, by_source), (4, (1, 2, 1)));
        // Only the slot Action took is consumed; the declined one goes
        // back to the source.
        assert_eq!(m.presamples_consumed, 1);
        assert_eq!(script.settled, [(5, 99, false), (5, 7, true)]);
        // The dry draw is one stall, and a stall is one pool attempt.
        assert_eq!((m.pool_stalls, m.pool_attempts), (1, 1));
        // Four steps; the edge and the raw draw were sampled on line.
        assert_eq!(ns, 4 * opts.step_cost() + 2 * opts.sample_cost());

        // At a dead end the walk is over, with nothing drawn.
        script.dead = 8;
        let on_step = |_, _| panic!("no hop at a dead end");
        let (ns, stop) = walk_resident(&app, &mut w, &mut rng, &mut m, &opts, &mut script, on_step);
        assert_eq!((ns, stop), (0, Stop::Done));
    }

    #[test]
    fn the_second_order_verb_draws_one_candidate_then_tests_it() {
        let opts = EngineOptions::default();
        let zero = [0];
        let mut script = Script::new(vec![Draw::Slot(3)]);
        let (app, mut w) = (Picky2nd, PickyWalker::default());
        let (mut rng, mut m) = (WalkRng::seed_from_u64(1), RunMetrics::default());
        // The candidate's edges are not loaded: the walker leaves holding
        // it, and a candidate is no step.
        let (ns, stop) = walk_resident_2nd(&app, &mut w, &mut rng, &mut m, &opts, &mut script);
        assert_eq!((ns, stop), (opts.step_cost(), Stop::Left));
        assert_eq!(
            (w.candidate, m.steps, m.presamples_consumed),
            (Some(3), 0, 1)
        );
        assert_eq!(script.settled, [(0, 3, true)]);
        // Once they are, the rejection test accepts it; nothing else is
        // drawn, so the walker leaves again.
        script.loaded = Some((3, one_edge(&zero)));
        let (ns, stop) = walk_resident_2nd(&app, &mut w, &mut rng, &mut m, &opts, &mut script);
        assert_eq!((ns, stop), (opts.step_cost(), Stop::Left));
        assert_eq!((w.at, w.candidate, m.steps, m.accepts), (3, None, 1, 1));
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
        // there, and 25,572 for the 13,365 steps here (1.91). Wall-free: a
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
        assert_eq!((m.steps, m.pool_stalls), (13_365, 2_649));
        assert!(m.pool_stalls <= pickups, "{} stalls", m.pool_stalls);
        let per_step = pickups as f64 / m.steps as f64;
        assert!(
            per_step < 1.25 * 1.89,
            "{pickups} pick-ups for {} steps = {per_step:.2} per step",
            m.steps
        );
    }

    #[test]
    fn adjust_grows_the_walker_pool_only_where_the_budget_leaves_room() {
        let finished = |engine: &NosWalkerEngine<Basic>| {
            let state = engine.app.state_bytes();
            let opening = engine.opts.walker_pool_quota(&engine.budget, state, 2000);
            let mut run = Run::new(engine, 3, Trace::from_option(None)).unwrap();
            run.run_pooled().unwrap();
            (opening, run.cap)
        };
        // Out of core: loaded blocks serve more steps per byte than the
        // pre-samples, so the pool ends above its opening quota.
        let (opening, cap) = finished(&ooc_engine(EngineOptions::full()));
        assert!(cap > opening, "cap {cap}, opening {opening}");
        // Two block buffers take the whole limit: no fair share funds a
        // generation, so nothing is weighed and nothing can shrink the cap
        // back — ending at the opening quota means it never rose.
        let engine = ooc_engine(EngineOptions::full());
        let limit = 2 * engine.graph.max_block_bytes();
        let tight = NosWalkerEngine::new(
            Arc::clone(&engine.app),
            Arc::clone(&engine.graph),
            EngineOptions::full(),
            MemoryBudget::new(limit),
        );
        let (opening, cap) = finished(&tight);
        assert_eq!(cap, opening);
    }

    /// Runs `f` on block 0 of a scale-10 R-MAT graph (2 KiB blocks): its
    /// generation builder under `opts` with `available` free bytes.
    fn with_block0<R>(
        opts: &EngineOptions,
        available: u64,
        f: impl FnOnce(&Generation<'_, Basic>, &BlockInfo) -> R,
    ) -> R {
        let csr = generators::rmat(10, 8, generators::RmatParams::default(), 11);
        let device = Arc::new(SimSsd::new(SsdProfile::nvme_p4618()));
        let graph = OnDiskGraph::store(&csr, device, 2048).unwrap();
        let (block, _) = graph.load_block(0, &MemoryBudget::new(1 << 20)).unwrap();
        let info = *block.info();
        let generation = Generation {
            app: &Basic::new(1, 1, csr.num_vertices()),
            graph: &graph,
            opts,
            src: &Edges::Coarse(Arc::new(block)),
            available,
        };
        f(&generation, &info)
    }

    /// Builds block 0's generation under `opts` with a budget policy that
    /// always refuses and halves down to the 64-slot floor; returns the
    /// capacities it was asked at.
    fn refused_build_capacities(opts: EngineOptions) -> Vec<u64> {
        with_block0(&opts, u64::MAX, |generation, info| {
            let mut asked = Vec::new();
            let built = generation.build(
                info,
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
        })
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

    /// Per-vertex view of a built buffer: the next sampled destination or
    /// the raw targets.
    type Peeks = Vec<(Option<VertexId>, Vec<VertexId>)>;

    /// Builds block 0 with `available` free bytes behind the sequential
    /// engine's policy over a budget of `limit` bytes; returns the bytes
    /// the policy was asked for and the slots, draws and peeks built.
    fn budgeted_build(
        opts: &EngineOptions,
        available: u64,
        limit: u64,
    ) -> (Vec<u64>, Option<(u64, u64, Peeks)>) {
        with_block0(opts, available, |generation, info| {
            let budget = MemoryBudget::new(limit);
            let mut asked = Vec::new();
            let built = generation.build(
                info,
                None,
                &vec![0; info.num_vertices() as usize],
                4096,
                &mut WalkRng::seed_from_u64(1),
                |bytes, slots| {
                    asked.push(bytes);
                    match budget.try_reserve(bytes) {
                        Ok(r) => ControlFlow::Break(Some(r)),
                        Err(_) if *slots > 64 => {
                            *slots /= 2;
                            ControlFlow::Continue(())
                        }
                        Err(_) => ControlFlow::Break(None),
                    }
                },
            );
            let built = built.map(|(buf, slots, draws)| {
                let peeks = (info.vertex_start..info.vertex_end)
                    .map(|v| match buf.peek(v) {
                        Peek::Sampled(d) => (Some(d), Vec::new()),
                        Peek::Raw(view) => {
                            let mut targets = Vec::new();
                            view.append_edges(&mut targets, None);
                            (None, targets)
                        }
                        Peek::Empty => (None, Vec::new()),
                    })
                    .collect();
                (slots, draws, peeks)
            });
            (asked, built)
        })
    }

    #[test]
    fn refused_build_precheck_refuses_exactly_what_the_reserve_would() {
        for low in [u32::MAX, 4] {
            let opts = EngineOptions {
                low_degree_threshold: low,
                ..EngineOptions::default()
            };
            // The floor every plan holds: raw edges at 4 B (unweighted)
            // plus 9 B per vertex and 4 B.
            let floor = with_block0(&opts, 0, |generation, info| {
                let raw: u64 = (info.vertex_start..info.vertex_end)
                    .map(|v| generation.graph.degree(v))
                    .filter(|&d| d > 0 && d <= u64::from(low))
                    .sum();
                raw * 4 + u64::from(info.num_vertices()) * 9 + 4
            });
            // One byte short: refused before planning, the policy never
            // asked — and without the check every ask would be refused.
            assert_eq!(budgeted_build(&opts, floor - 1, floor - 1), (vec![], None));
            assert!(budgeted_build(&opts, u64::MAX, floor - 1).1.is_none());
            // At the floor and above: the same asks and the same buffer as
            // a build that skips the check.
            let mut built = 0;
            for limit in [floor, floor + 1024, floor + (16 << 10), 1 << 20] {
                let checked = budgeted_build(&opts, limit, limit);
                assert!(!checked.0.is_empty(), "threshold {low}, limit {limit}");
                assert_eq!(checked, budgeted_build(&opts, u64::MAX, limit));
                built += usize::from(checked.1.is_some());
            }
            assert!(built >= 2, "threshold {low}: only {built} builds");
        }
    }

    #[test]
    fn whole_block_refill_rule() {
        // Hub retention off, so block 0's generation holds sampled slots.
        let opts = EngineOptions {
            alias_degree_threshold: u32::MAX,
            ..EngineOptions::default()
        };
        with_block0(&opts, u64::MAX, |generation, info| {
            let meta = u64::from(info.num_vertices()) * 9 + 4;
            let vs = info.vertex_start..info.vertex_end;
            let degrees: Vec<u64> = vs.clone().map(|v| generation.graph.degree(v)).collect();
            let floor = raw_floor(&opts, generation.graph, &degrees);
            let rule = |opts: &EngineOptions, current: Option<&PreSampleBuffer>, fair, room| {
                refills_whole_block(opts, info, current, fair, room)
            };
            // Block 0 of an R-MAT graph: few vertices, all hubs.
            assert!(info.num_vertices() < 64 && floor < 4 * meta);
            // No generation yet: a whole read funds one.
            assert!(rule(&opts, None, meta + 1, Some((floor, floor))));
            assert!(rule(&opts, None, meta + 1, None));
            // Pre-sampling off (Fig. 14's +ShrinkBlock bar): never.
            let off = EngineOptions::with_shrink_block();
            assert!(!off.enable_presample);
            assert!(!rule(&off, None, meta + 1, Some((floor, floor))));
            // A build that would be refused: fair share at the metadata,
            // or the raw-retention floor past what the read leaves.
            assert!(!rule(&opts, None, meta, Some((floor, floor))));
            assert!(!rule(&opts, None, meta + 1, Some((floor, floor - 1))));
            // A live generation blocks the read until drained to a
            // quarter of its sampled slots.
            let (mut buf, _, _) = generation
                .build(
                    info,
                    None,
                    &vec![0; degrees.len()],
                    4096,
                    &mut WalkRng::seed_from_u64(1),
                    |_, _| {
                        ControlFlow::Break(Some(MemoryBudget::new(1 << 20).try_reserve(0).unwrap()))
                    },
                )
                .unwrap();
            assert!(buf.sampled_capacity() > 0);
            assert!(!rule(&opts, Some(&buf), meta + 1, None));
            for v in vs {
                while matches!(buf.peek(v), Peek::Sampled(_)) {
                    buf.consume(v);
                }
            }
            assert_eq!(buf.remaining_sampled(), 0);
            assert!(rule(&opts, Some(&buf), meta + 1, Some((floor, floor))));
        });
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
