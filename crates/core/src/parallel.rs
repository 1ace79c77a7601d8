//! A real multithreaded NosWalker runner with a lock-free step kernel.
//!
//! The simulation engine ([`crate::NosWalkerEngine`]) models the paper's
//! concurrency deterministically through the pipeline clock. This module is
//! the *actual* concurrent implementation: a background loader thread
//! services hottest-block requests (with a small prefetch window) while a
//! pool of worker threads moves walkers over loaded blocks and the shared
//! pre-sample pool. It shares its nouns with the sequential engine — the
//! same [`PreSampleBuffer`], [`RunMetrics`], run [`Ledger`], loaded
//! [`Edges`], walker lifecycle and generation builder — and differs only
//! in who drives them.
//!
//! The division of labour mirrors the paper's Fig. 6:
//!
//! * **coordinator** (caller thread): walker generation ②, bucket
//!   bookkeeping, hottest-block scheduling and prefetch top-up, refill
//!   dispatch ④;
//! * **loader thread** ①: whole-block reads, or 4 KiB page batches for
//!   the waiting walkers' vertices once the fine-mode switch the
//!   sequential engine uses fires (ShrinkBlock, §3.3.1); up to
//!   [`EngineOptions::PREFETCH_DEPTH`] loads in flight beyond the demand
//!   load;
//! * **workers** ③: run the step kernel — each walker is walked once
//!   through [`crate::walk_resident`], the step verb every engine shares,
//!   over a source that serves the resident edges where they are loaded
//!   (a fine batch covers only its vertices) and otherwise claims one slot
//!   from the vertex's published generation. A walker nothing serves goes
//!   back to its bucket for a later load.
//!
//! # The published pre-sample pool
//!
//! Pre-sample buffers are *built privately* on a worker (a refill job,
//! single-flight per block through its `refill_pending` flag) and then
//! *published*: the finished [`PreSampleBuffer`] goes behind an `Arc` and
//! is never written again except through its per-vertex atomic counters.
//! Consumption is lock-free: a walk job takes one snapshot of the
//! published generations when it starts, then claims one sampled slot per
//! `fetch_add` ([`PreSampleBuffer::claim`]). A slot the application
//! declines (e.g. a restart) is re-served to the next walker at its vertex
//! in the same job; one still held when the job ends is surfaced as
//! `claims_burned`, so `pool_attempts` stays conserved against
//! consumption, burn, and stalls (`DESIGN.md` §9, law 13).
//!
//! Refills are scheduled by *demand*: each block tallies claims and
//! stalls against its current generation
//! ([`crate::presample::BlockDemand`]), and the coordinator dispatches a
//! refill as soon as the remaining slots dip under a demand-derived low
//! watermark — proactively, while workers still chew on the round, not
//! only after the pool runs dry. The refill's slot budget is split across
//! blocks proportionally to that same demand signal. The coordinator
//! awaits every refill job before it next reads the pool, so with one
//! worker each publish is billed in the same round on every run. No lock
//! ever appears on the step path — the only locks are the brief pointer
//! swap at publish time and the pointer clones of a job's snapshot. See
//! `DESIGN.md` §11 for the full protocol and its ordering argument.
//!
//! # Counters
//!
//! Every walk job accumulates into its own plain [`RunMetrics`] through
//! the same `record_*` helpers the sequential engine uses and hands it
//! back with its survivors; the coordinator [`RunMetrics::merge`]s it.
//! Nothing on the step path touches a shared counter.
//!
//! # The simulated clock
//!
//! Wall-clock timing on a shared host measures the host, not the
//! architecture — so, like the sequential engine, this runner reports
//! `sim_ns` from a deterministic [`crate::PipelineClock`]: each round of walk
//! jobs charges `max(longest job, total work / workers)` of compute —
//! priced with the same per-thread [`EngineOptions::step_cost`] /
//! [`EngineOptions::sample_cost`] the sequential engine charges, so the
//! two `sim_ns` figures are directly comparable — and block loads flow
//! through the clock's single-channel FIFO device timeline, fed by the
//! storage device's own service times and stamped with the modeled time
//! each request was issued ([`crate::PipelineClock::issue_io_at`]). `wall_ns`
//! still reports honest wall time. Walk *semantics* are identical to the
//! sequential engine (same `Walk` contract), which the tests check.

#![expect(
    clippy::disallowed_types,
    reason = "`refill_pending` is an Acquire/Release hand-off (see its ORDERING: comments); \
              `published_bytes` is a Relaxed advisory tally, the swap is ordered by the slot mutex"
)]

use crate::audit::{RunAudit, Trace, TraceSink};
use crate::disk_graph::{LoadError, OnDiskGraph};
use crate::engine::{
    plan_fine_batch, retire_walker, spawn_walker, walk_resident, Draw, EngineError, Generation,
    Source, Stop,
};
use crate::ledger::Ledger;
use crate::metrics::RunMetrics;
use crate::options::EngineOptions;
use crate::presample::{BlockDemand, Claim, PreSampleBuffer};
use crate::threaded::{BackgroundLoader, Edges, LoadRequest, Loaded, LoaderError};
use crate::walk::{Walk, WalkRng};
use crossbeam::channel::{Receiver, Sender};
use noswalker_graph::layout::VertexEdges;
use noswalker_graph::partition::BlockId;
use noswalker_graph::VertexId;
use noswalker_storage::{MemoryBudget, Reservation};
use parking_lot::Mutex;
use rand::SeedableRng;
use std::collections::VecDeque;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// One block's slot in the published pool.
#[derive(Debug)]
struct PoolSlot {
    /// The current published generation, if any. Locked only to swap or
    /// clone the `Arc` — never while stepping walkers.
    published: Mutex<Option<Arc<PreSampleBuffer>>>,
    /// Demand observed against the current generation (sampled claims and
    /// stalls since the last publish) — the low-watermark refill signal
    /// and the weight of this block's share of the refill budget.
    demand: BlockDemand,
    /// Visit cursors of the last *retired* generation, so a budget-pressure
    /// eviction does not erase the popularity history the next quota plan
    /// feeds on. Taken (and cleared) by the next refill. Deliberately NOT
    /// blended across healthy refills: walk demand here is non-stationary
    /// (walkers finish and move on), and measured stall rates are lower
    /// when quotas track only the latest generation's cursors.
    carried_weights: Mutex<Option<Vec<u32>>>,
    /// Set while a refill job for this block is queued or running, so the
    /// coordinator schedules at most one refill per block at a time: the
    /// single-flight guarantee every [`refill_block`] call runs under.
    refill_pending: AtomicBool,
}

/// The published pre-sample pool: one slot per coarse block.
#[derive(Debug)]
struct SharedPool {
    slots: Vec<PoolSlot>,
    /// Bytes held by the currently published generations (in-flight reader
    /// `Arc`s briefly keep retired generations alive beyond this figure —
    /// the refill planner's budget fraction leaves slack for exactly
    /// that). Lets refills self-limit so the pool never squeezes the
    /// loader's block buffers into a budget failure.
    published_bytes: AtomicU64,
    /// The pool's total byte budget, fixed at run start: the memory
    /// budget minus the walker pool's hold and the loader's block working
    /// set, scaled by `EngineOptions::PRESAMPLE_BUDGET_FRACTION`. Refills split this
    /// figure demand-weighted; `published_bytes` must stay under it.
    byte_budget: u64,
}

impl SharedPool {
    fn new(num_blocks: usize, byte_budget: u64) -> Self {
        SharedPool {
            slots: (0..num_blocks)
                .map(|_| PoolSlot {
                    published: Mutex::new(None),
                    demand: BlockDemand::default(),
                    carried_weights: Mutex::new(None),
                    refill_pending: AtomicBool::new(false),
                })
                .collect(),
            published_bytes: AtomicU64::new(0),
            byte_budget,
        }
    }

    /// Clones the current generation's handle (one brief lock per block
    /// per walk job; all subsequent claims on the handle are lock-free).
    fn acquire(&self, b: BlockId) -> Option<Arc<PreSampleBuffer>> {
        self.slots[b as usize].published.lock().clone()
    }

    /// Swaps in a freshly built generation, returning the old one.
    fn publish(&self, b: BlockId, buf: Arc<PreSampleBuffer>) -> Option<Arc<PreSampleBuffer>> {
        // The byte tally is an advisory planning input (refills size
        // their next share from it), never a synchronization edge; the
        // generation swap itself is ordered by the slot mutex.
        let added = buf.memory_bytes();
        self.published_bytes.fetch_add(added, Ordering::Relaxed);
        let old = self.slots[b as usize].published.lock().replace(buf);
        if let Some(old) = &old {
            let freed = old.memory_bytes();
            self.published_bytes.fetch_sub(freed, Ordering::Relaxed);
        }
        old
    }

    /// Retires the current generation (its memory reservation is released
    /// once the last outstanding `Arc` drops), snapshotting its visit
    /// cursors into the slot so the next refill still plans with the
    /// demand the eviction would otherwise erase.
    fn unpublish(&self, b: BlockId) -> Option<Arc<PreSampleBuffer>> {
        let slot = &self.slots[b as usize];
        let buf = slot.published.lock().take();
        if let Some(buf) = &buf {
            *slot.carried_weights.lock() = Some(buf.visit_weights_snapshot());
            let freed = buf.memory_bytes();
            self.published_bytes.fetch_sub(freed, Ordering::Relaxed);
        }
        buf
    }

    /// Bytes currently committed to published generations. Refills cap
    /// their plans so this never exceeds the pool's budget share — the
    /// loader's block working set must never be squeezed by the pool,
    /// because a budget-pressure eviction darkens whole blocks (every
    /// claim on them stalls) until their next residency.
    fn published_bytes(&self) -> u64 {
        self.published_bytes.load(Ordering::Relaxed)
    }

    /// Takes the visit history saved by an eviction-time [`Self::unpublish`]
    /// (cleared so it feeds exactly one rebuild).
    fn take_carried_weights(&self, b: BlockId) -> Option<Vec<u32>> {
        self.slots[b as usize].carried_weights.lock().take()
    }

    /// The demand tally for block `b`, fed by the step kernel's claims and
    /// read by the refill planner.
    fn demand(&self, b: BlockId) -> &BlockDemand {
        &self.slots[b as usize].demand
    }

    /// Total demand pressure across all blocks — the denominator of the
    /// demand-weighted refill budget split.
    fn total_demand(&self) -> u64 {
        self.slots.iter().map(|s| s.demand.pressure()).sum()
    }

    /// The low-watermark refill policy (§3.3.2): whether `buf`, block `b`'s
    /// generation, has dipped under a watermark derived from the demand
    /// seen against it. The watermark is clamped to `[cap/8, cap/2]`, so an
    /// idle block still refills when seven eighths drained and a hammered
    /// one refills no earlier than half — the refill always lands *before*
    /// walkers hit a dry pool. `None` when `buf` has no sampled slots to
    /// run out of.
    fn under_watermark(&self, b: BlockId, buf: &PreSampleBuffer) -> Option<bool> {
        let cap = buf.sampled_capacity();
        let watermark = self.demand(b).pressure().clamp(cap / 8, cap / 2).max(1);
        (cap > 0).then(|| buf.remaining_sampled() < watermark)
    }

    /// A block wants a refill when it has no published generation at all,
    /// or when the one it has is [under its watermark](Self::under_watermark).
    fn needs_refill(&self, b: BlockId) -> bool {
        self.acquire(b)
            .is_none_or(|buf| self.under_watermark(b, &buf) == Some(true))
    }

    /// Claims the right to schedule one refill job for `b`. Returns false
    /// while an earlier refill is still queued or running.
    fn try_begin_refill(&self, b: BlockId) -> bool {
        let pending = &self.slots[b as usize].refill_pending;
        // ORDERING: the Acquire success ordering pairs with the Release
        // store in `end_refill`, so the scheduler that wins the flag
        // observes everything the previous refill wrote (the swapped-in
        // generation and the reset demand tally) before dispatching the
        // next job; failure also loads Acquire so a losing check never
        // reads stale state either.
        let won = pending.compare_exchange(false, true, Ordering::Acquire, Ordering::Acquire);
        won.is_ok()
    }

    /// Re-arms refill scheduling for `b` once its refill job finished
    /// (whether or not it published a new generation).
    fn end_refill(&self, b: BlockId) {
        let pending = &self.slots[b as usize].refill_pending;
        // ORDERING: Release pairs with the Acquire compare-exchange in
        // `try_begin_refill`: the publish and the demand reset performed
        // by this refill happen-before the next refill of the same block.
        pending.store(false, Ordering::Release);
    }
}

/// Work handed to the persistent worker threads.
enum Job<W> {
    /// Step an owned chunk of walkers against the resident edges.
    Walk(Arc<Edges>, Vec<W>),
    /// Regenerate the block's published pre-sample buffer asynchronously
    /// (the paper's background pre-sampling ④).
    Refill(Arc<Edges>),
}

/// What a finished walk job hands back to the coordinator.
struct WalkOutcome<W> {
    /// Walkers that stalled on the pool and need re-bucketing.
    survivors: Vec<W>,
    /// Everything the job counted; also what the compute model prices.
    metrics: RunMetrics,
}

/// Completed refill, reported back to the coordinator for counting,
/// tracing, and charging the refill's compute into the simulated clock.
#[derive(Debug, Clone, Copy)]
struct RefillReport {
    block: BlockId,
    /// Sampled slot capacity of the published generation.
    slots: u64,
    /// Samples actually drawn while building it.
    draws: u64,
}

impl RefillReport {
    /// Books the published generation; returns its draw count for the
    /// round's compute bill.
    fn book(self, ledger: &mut Ledger<'_>) -> u64 {
        ledger.publish(self.block, self.slots, self.draws);
        self.draws
    }
}

/// Charges one round of concurrent jobs: bounded below by the longest job
/// (critical path) and by total work spread over `workers`.
fn charge_round(ledger: &mut Ledger<'_>, job_costs: &[u64], workers: usize) {
    let longest = job_costs.iter().copied().max().unwrap_or(0);
    let total: u64 = job_costs.iter().sum();
    ledger.compute(longest.max(total.div_ceil(workers as u64)));
}

/// The run state the coordinator and every worker read: the runner's
/// inputs plus the published pool.
#[derive(Debug)]
struct Shared<A: Walk> {
    app: Arc<A>,
    graph: Arc<OnDiskGraph>,
    opts: EngineOptions,
    budget: Arc<MemoryBudget>,
    pool: SharedPool,
}

/// A real-thread NosWalker runner for first-order walks.
#[derive(Debug)]
pub struct ParallelRunner<A: Walk> {
    app: Arc<A>,
    graph: Arc<OnDiskGraph>,
    opts: EngineOptions,
    budget: Arc<MemoryBudget>,
}

impl<A: Walk + 'static> ParallelRunner<A> {
    /// Creates a runner.
    pub fn new(
        app: Arc<A>,
        graph: Arc<OnDiskGraph>,
        opts: EngineOptions,
        budget: Arc<MemoryBudget>,
    ) -> Self {
        ParallelRunner {
            app,
            graph,
            opts,
            budget,
        }
    }

    /// Runs to completion with `workers` walker-processing threads (plus
    /// the background loader thread); zero is clamped to one.
    ///
    /// The returned metrics report modeled time in `sim_ns` (see the
    /// module docs) and honest wall-clock time in `wall_ns`.
    ///
    /// # Errors
    ///
    /// [`EngineError::Budget`] / [`EngineError::Load`] as for the
    /// sequential engine.
    pub fn run(&self, seed: u64, workers: usize) -> Result<RunMetrics, EngineError> {
        self.run_with_sink(seed, workers, None)
    }

    /// Like [`ParallelRunner::run`], recording [`TraceEvent`]s into `sink`.
    ///
    /// Only the coordinator thread emits (loads, stalls, pool publishes,
    /// prefetch outcomes, run end); worker threads never touch the sink,
    /// so tracing adds no synchronization to the walking hot path. Refill
    /// completions reach the coordinator over a channel and are stamped
    /// when it drains them. Timestamps are modeled nanoseconds on the
    /// simulated clock.
    ///
    /// # Errors
    ///
    /// As for [`ParallelRunner::run`].
    pub fn run_with_sink(
        &self,
        seed: u64,
        workers: usize,
        sink: Option<&mut dyn TraceSink>,
    ) -> Result<RunMetrics, EngineError> {
        RunAudit::audited(self.app.total_walkers(), Some(&self.budget), || {
            let mut run = Coordinator::start(self, seed, workers.max(1), Trace::from_option(sink))?;
            run.run()?;
            Ok(run.finish())
        })
    }
}

/// The caller-thread half of a run (Fig. 6 ② and ④): walker generation and
/// bucketing, hottest-block scheduling with prefetch, dispatch to the
/// workers, refill scheduling, and all accounting.
struct Coordinator<'t, A: Walk> {
    shared: Arc<Shared<A>>,
    workers: usize,
    loader: BackgroundLoader,
    job_tx: Sender<Job<A::Walker>>,
    res_rx: Receiver<WalkOutcome<A::Walker>>,
    refill_rx: Receiver<Option<RefillReport>>,
    /// Refill jobs sent and not yet awaited ([`Coordinator::await_refills`]).
    refills_out: usize,
    worker_handles: Vec<JoinHandle<()>>,
    ledger: Ledger<'t>,
    /// The walker-generation stream.
    rng: WalkRng,
    /// Private stream for warm-up pre-sampling: `rng` must not be
    /// perturbed by how many blocks happened to need a first generation.
    warm_rng: WalkRng,
    /// Waiting walkers by the block of their location.
    buckets: Vec<Vec<A::Walker>>,
    live: u64,
    next_id: u64,
    total: u64,
    /// Walker pool capacity (see [`EngineOptions::walker_pool_quota`]).
    cap: u64,
    /// Requests handed to the loader, oldest first: (block, is_prefetch,
    /// modeled issue time). Results come back in the same order.
    inflight: VecDeque<(BlockId, bool, u64)>,
    /// The walker pool's budget share, held for the whole run.
    pool_hold: Reservation,
}

impl<'t, A: Walk + 'static> Coordinator<'t, A> {
    /// Reserves the walker pool, sizes the pre-sample pool, and starts
    /// the loader and worker threads.
    fn start(
        runner: &ParallelRunner<A>,
        seed: u64,
        workers: usize,
        trace: Trace<'t>,
    ) -> Result<Self, EngineError> {
        let (graph, opts, budget) = (&runner.graph, &runner.opts, &runner.budget);
        let total = runner.app.total_walkers();
        let state = runner.app.state_bytes().max(1) as u64;
        let cap = opts.walker_pool_quota(budget, runner.app.state_bytes(), total);
        let pool_hold = budget.try_reserve(cap * state)?;

        // The pre-sample pool's fixed byte budget: whatever the walker
        // hold and the loader's block working set (the resident target
        // plus `PREFETCH_DEPTH + 1` loads queued or in flight) leave of
        // the limit, scaled by the configured fraction (whose slack
        // covers retired generations briefly kept alive by in-flight
        // reader `Arc`s). Sized once here — where every other
        // subsystem's hold is known — so refills never squeeze the
        // loader into a budget failure, whose eviction fallback darkens
        // whole blocks.
        let max_block_bytes = graph.max_block_bytes().max(1);
        let working_set =
            (EngineOptions::PREFETCH_DEPTH as u64 + 1).saturating_mul(max_block_bytes);
        let headroom = budget
            .limit()
            .saturating_sub(cap * state)
            .saturating_sub(working_set);
        let pool_bytes = (headroom as f64 * EngineOptions::PRESAMPLE_BUDGET_FRACTION) as u64;
        let shared = Arc::new(Shared {
            app: Arc::clone(&runner.app),
            graph: Arc::clone(graph),
            opts: opts.clone(),
            budget: Arc::clone(budget),
            pool: SharedPool::new(graph.num_blocks(), pool_bytes),
        });

        // The loader queue holds the demand load plus the prefetch window.
        let loader = BackgroundLoader::spawn(
            Arc::clone(graph),
            Arc::clone(budget),
            EngineOptions::PREFETCH_DEPTH + 1,
        );
        let (job_tx, job_rx) = crossbeam::channel::unbounded();
        let (res_tx, res_rx) = crossbeam::channel::unbounded();
        let (refill_tx, refill_rx) = crossbeam::channel::unbounded();
        let worker_handles = (0..workers)
            .map(|wi| {
                let wrng = WalkRng::seed_from_u64(seed ^ (wi as u64 + 1).wrapping_mul(0x9E37_79B9));
                let shared = Arc::clone(&shared);
                let (job_rx, res_tx, refill_tx) =
                    (job_rx.clone(), res_tx.clone(), refill_tx.clone());
                #[expect(clippy::disallowed_methods, reason = "sanctioned spawn: worker pool")]
                #[expect(clippy::expect_used, reason = "spawn fails only on OS exhaustion")]
                std::thread::Builder::new()
                    .name(format!("noswalker-worker-{wi}"))
                    .spawn(move || worker_loop(&shared, wrng, &job_rx, &res_tx, &refill_tx))
                    .expect("spawning a worker thread")
            })
            .collect();

        Ok(Coordinator {
            workers,
            loader,
            job_tx,
            res_rx,
            refill_rx,
            refills_out: 0,
            worker_handles,
            ledger: Ledger::new(trace),
            rng: WalkRng::seed_from_u64(seed),
            warm_rng: WalkRng::seed_from_u64(seed ^ 0xD6E8_FEB8_6659_FD93),
            buckets: vec![Vec::new(); graph.num_blocks()],
            live: 0,
            next_id: 0,
            total,
            cap,
            inflight: VecDeque::new(),
            pool_hold,
            shared,
        })
    }

    fn bucket(&mut self, w: A::Walker) {
        let b = self.shared.graph.block_of(self.shared.app.location(&w));
        self.buckets[b as usize].push(w);
    }

    /// Generates walkers up to the pool capacity.
    fn generate(&mut self) {
        while self.live < self.cap && self.next_id < self.total {
            let spawned = spawn_walker(
                &*self.shared.app,
                &mut self.ledger.metrics,
                self.next_id,
                &mut self.rng,
            );
            self.next_id += 1;
            if let Some(w) = spawned {
                self.bucket(w);
                self.live += 1;
            }
        }
    }

    /// The block with the most waiting walkers that is not already on its
    /// way from the loader.
    fn hottest_block(&self) -> Option<BlockId> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|&(i, v)| {
                !v.is_empty() && !self.inflight.iter().any(|&(b, _, _)| b as usize == i)
            })
            .max_by_key(|(_, v)| v.len())
            .map(|(i, _)| i as BlockId)
    }

    /// The load for block `b`: the whole block, or once the fine-mode
    /// switch has fired, a fine batch of its waiting walkers' vertices.
    fn plan_request(&mut self, b: BlockId) -> LoadRequest {
        let (shared, metrics) = (&self.shared, &self.ledger.metrics);
        let remaining = self.total - metrics.walkers_finished - metrics.walkers_cancelled;
        let (opts, graph) = (&shared.opts, &shared.graph);
        if !self.ledger.fine_mode(opts, graph, remaining) {
            return LoadRequest::Coarse(b);
        }
        let waiting = self.buckets[b as usize]
            .iter()
            .map(|w| shared.app.location(w));
        let hold = self.pool_hold.bytes();
        LoadRequest::Fine(b, plan_fine_batch(graph, &shared.budget, hold, waiting).0)
    }

    /// The scheduling loop: demand-load the hottest block whenever nothing
    /// is in flight, take loads in FIFO order, dispatch each to the
    /// workers; then drain what is still in flight.
    fn run(&mut self) -> Result<(), EngineError> {
        self.generate();
        // Consecutive budget-failed loads tolerated before giving up: one
        // full in-flight window can fail from a single scarcity episode
        // (the loader computed those results before any eviction), plus
        // slack for a refill racing the retry. Reset on every delivery.
        let evict_retries = EngineOptions::PREFETCH_DEPTH + 3;
        let mut retries_left = evict_retries;
        while self.live > 0 || self.next_id < self.total {
            if self.inflight.is_empty() {
                let Some(b) = self.hottest_block() else {
                    break;
                };
                let req = self.plan_request(b);
                self.loader.request(req).map_err(loader_err)?;
                self.inflight.push_back((b, false, self.ledger.now()));
            }
            let Some((target, was_prefetch, issued_ns)) = self.inflight.pop_front() else {
                break;
            };
            match self.loader.recv() {
                Ok(loaded) => {
                    retries_left = evict_retries;
                    self.deliver(target, was_prefetch, issued_ns, loaded)?;
                }
                // Budget pressure: make room, then re-plan the failed load
                // and queue it behind the in-flight window so result order
                // stays FIFO.
                Err(LoaderError::Load(LoadError::Budget(_))) if retries_left > 0 => {
                    self.evict_pool(retries_left == evict_retries);
                    retries_left -= 1;
                    let req = self.plan_request(target);
                    self.loader.request(req).map_err(loader_err)?;
                    let now = self.ledger.now();
                    self.inflight.push_back((target, was_prefetch, now));
                }
                Err(e) => return Err(loader_err(e)),
            }
        }
        self.drain_inflight()
    }

    /// Frees budget for a load that failed on it. The published pre-sample
    /// pool is the only memory the coordinator can reclaim (the sequential
    /// engine's block cache evicts in the same spot). Retire the *coldest
    /// half* of the published generations first — readers holding an
    /// `Arc` finish their job first; the rest of the reservations free
    /// immediately — so the hot blocks keep their buffers and, crucially,
    /// the visit counters the next quota plan feeds on. Only a repeat
    /// failure escalates to retiring everything.
    fn evict_pool(&self, first_try: bool) {
        let pool = &self.shared.pool;
        let num_blocks = self.buckets.len();
        if first_try {
            // Mostly-drained generations hold memory but serve little;
            // fresh full ones are the pool's working capital. (The
            // eviction keeps every generation's visit counters via
            // `unpublish`.) Keys are sampled once up front: workers keep
            // ticking the claim counters while we sort, and a comparator
            // that re-reads them would not be a total order.
            let mut victims: Vec<(u64, BlockId)> = (0..num_blocks as BlockId)
                .map(|b| (pool.acquire(b).map_or(0, |buf| buf.remaining_sampled()), b))
                .collect();
            victims.sort_unstable();
            for &(_, b) in &victims[..num_blocks.div_ceil(2)] {
                drop(pool.unpublish(b));
            }
        } else {
            for b in 0..num_blocks {
                drop(pool.unpublish(b as BlockId));
            }
        }
    }

    /// Takes delivery of a load: push it through the device timeline, wait
    /// for it if walkers need it, and dispatch them.
    fn deliver(
        &mut self,
        target: BlockId,
        was_prefetch: bool,
        issued_ns: u64,
        loaded: Loaded,
    ) -> Result<(), EngineError> {
        let done_ns = self.ledger.issue_io_at(issued_ns, loaded.service_ns);
        let edges = Arc::new(loaded.edges);
        debug_assert_eq!(edges.info().id, target);
        if self.buckets[target as usize].is_empty() {
            // Nobody wants this block any more: account the I/O and move
            // on (only prefetches can end up here).
            self.ledger.load(&edges, done_ns);
            if was_prefetch {
                self.ledger.prefetch(target, false, done_ns);
            }
            return Ok(());
        }
        self.ledger.stall(Some(target), done_ns);
        let now = self.ledger.now();
        self.ledger.load(&edges, now);
        if was_prefetch {
            self.ledger.prefetch(target, true, now);
        }
        self.dispatch(&edges)
    }

    /// One round on resident edges: warm or refill their block's pool
    /// slot, fan its walkers out to the workers, keep the loader busy
    /// meanwhile, then collect, bill and re-bucket.
    fn dispatch(&mut self, edges: &Arc<Edges>) -> Result<(), EngineError> {
        let target = edges.info().id;
        let mut job_costs: Vec<u64> = Vec::new();
        self.await_refills(&mut job_costs)?;
        let pool = &self.shared.pool;
        let sample_cost = self.shared.opts.sample_cost();
        // Warm-up pre-sampling: a block delivered with no published
        // generation would push every walker of its first dispatch
        // through the raw-sampling deferral path. The load just arrived
        // and the workers are idle, so build the first generation here on
        // the coordinator before fanning out; the draw cost is billed
        // into this round like any refill.
        if self.shared.opts.enable_presample
            && pool.acquire(target).is_none()
            && pool.try_begin_refill(target)
        {
            let warm = refill_block(&self.shared, edges, &mut self.warm_rng);
            pool.end_refill(target);
            if let Some(rep) = warm {
                job_costs.push(rep.book(&mut self.ledger) * sample_cost);
            }
        }
        // Proactive refill (④): if the block's buffer is already under
        // its demand watermark, queue the rebuild ahead of this round's
        // walkers.
        self.schedule_refill(edges)?;

        // Fan the block's walkers out to the persistent workers. Chunks
        // are kept coarse (at most one per worker) so per-job overhead
        // stays negligible next to the walking itself.
        let mut batch = std::mem::take(&mut self.buckets[target as usize]);
        let batch_len = batch.len() as u64;
        let chunk = batch.len().div_ceil(self.workers).max(64);
        let mut jobs = 0;
        while !batch.is_empty() {
            let tail = batch.split_off(batch.len().saturating_sub(chunk));
            self.send(Job::Walk(Arc::clone(edges), tail))?;
            jobs += 1;
        }

        // Top up the prefetch window while the workers chew: the loader
        // reads ahead into the blocks that will most likely be scheduled
        // next. `try_request` never blocks the coordinator.
        while self.inflight.len() < EngineOptions::PREFETCH_DEPTH {
            let Some(nb) = self.hottest_block() else {
                break;
            };
            let req = self.plan_request(nb);
            if !self.loader.try_request(req).map_err(loader_err)? {
                break;
            }
            self.inflight.push_back((nb, true, self.ledger.now()));
        }

        let mut survivors = Vec::new();
        for _ in 0..jobs {
            let out = self.res_rx.recv().map_err(|_| worker_died())?;
            // Reserved slots were drawn (and billed) at refill time; only
            // on-block and raw steps sample on line.
            let samples = out.metrics.steps_on_block + out.metrics.steps_on_raw;
            job_costs
                .push(out.metrics.steps * self.shared.opts.step_cost() + samples * sample_cost);
            self.ledger.metrics.merge(&out.metrics);
            survivors.extend(out.survivors);
        }
        self.await_refills(&mut job_costs)?;
        charge_round(&mut self.ledger, &job_costs, self.workers);

        self.live -= batch_len - survivors.len() as u64;
        for w in survivors {
            self.bucket(w);
        }
        // This round's pool claims may have pushed the buffer under its
        // watermark; schedule the rebuild before the block leaves memory
        // (the Arc keeps the data alive until the refill job runs). The
        // next round awaits it.
        self.schedule_refill(edges)?;
        self.generate();
        Ok(())
    }

    fn send(&self, job: Job<A::Walker>) -> Result<(), EngineError> {
        self.job_tx.send(job).map_err(|_| worker_died())
    }

    /// Queues a refill job for `block` if its pool slot is under the
    /// demand watermark. The pending flag keeps refills single-flight per
    /// block.
    fn schedule_refill(&mut self, edges: &Arc<Edges>) -> Result<(), EngineError> {
        let (pool, b) = (&self.shared.pool, edges.info().id);
        if self.shared.opts.enable_presample && pool.needs_refill(b) && pool.try_begin_refill(b) {
            self.send(Job::Refill(Arc::clone(edges)))?;
            self.refills_out += 1;
        }
        Ok(())
    }

    /// Waits for every refill job in flight and bills the generations they
    /// published into `costs`. The coordinator calls it before it reads
    /// the pool, so no refill races those reads and, with one worker,
    /// every publish is billed in the same round on every run.
    fn await_refills(&mut self, costs: &mut Vec<u64>) -> Result<(), EngineError> {
        let sample_cost = self.shared.opts.sample_cost();
        for _ in 0..std::mem::take(&mut self.refills_out) {
            if let Some(rep) = self.refill_rx.recv().map_err(|_| worker_died())? {
                costs.push(rep.book(&mut self.ledger) * sample_cost);
            }
        }
        Ok(())
    }

    /// Drains prefetches still in flight once no walker is left, so their
    /// I/O is accounted and the loader can shut down cleanly.
    fn drain_inflight(&mut self) -> Result<(), EngineError> {
        while let Some((b, was_prefetch, issued_ns)) = self.inflight.pop_front() {
            let at_ns = match self.loader.recv() {
                Ok(loaded) => {
                    let done_ns = self.ledger.issue_io_at(issued_ns, loaded.service_ns);
                    self.ledger.load(&loaded.edges, done_ns);
                    done_ns
                }
                // A prefetch that lost the budget race delivered nothing:
                // no walker is waiting (the run is over), so it is just a
                // wasted prefetch, not a run failure.
                Err(LoaderError::Load(LoadError::Budget(_))) => self.ledger.now(),
                Err(e) => return Err(loader_err(e)),
            };
            if was_prefetch {
                self.ledger.prefetch(b, false, at_ns);
            }
        }
        Ok(())
    }

    /// Stops the workers and closes the books.
    fn finish(mut self) -> RunMetrics {
        // Refills queued after the last round still get counted, traced
        // and billed; a worker that died cannot report any.
        let mut tail_costs: Vec<u64> = Vec::new();
        let _ = self.await_refills(&mut tail_costs);
        if !tail_costs.is_empty() {
            charge_round(&mut self.ledger, &tail_costs, self.workers);
        }
        drop(self.job_tx);
        for h in self.worker_handles {
            let _ = h.join();
        }
        // Even an empty run reports a nonzero duration.
        if self.ledger.now() == 0 {
            self.ledger.compute(1);
        }
        self.ledger.close(&self.shared.graph, &self.shared.budget)
    }
}

/// A worker thread's life: take jobs until the coordinator hangs up.
fn worker_loop<A: Walk>(
    shared: &Shared<A>,
    mut rng: WalkRng,
    jobs: &Receiver<Job<A::Walker>>,
    outcomes: &Sender<WalkOutcome<A::Walker>>,
    refills: &Sender<Option<RefillReport>>,
) {
    while let Ok(job) = jobs.recv() {
        match job {
            Job::Walk(edges, walkers) => {
                let mut metrics = RunMetrics::default();
                let survivors = drive_batch(shared, &edges, &mut metrics, &mut rng, walkers);
                if outcomes.send(WalkOutcome { survivors, metrics }).is_err() {
                    break;
                }
            }
            Job::Refill(edges) => {
                let rep = refill_block(shared, &edges, &mut rng);
                // Re-arm scheduling before reporting, even when nothing was
                // published (above the watermark, or out of budget).
                shared.pool.end_refill(edges.info().id);
                if refills.send(rep).is_err() {
                    break;
                }
            }
        }
    }
}

/// Rebuilds a block's pre-sample buffer and publishes it (on a worker
/// thread, or on the coordinator for a warm-up). Every caller has won the
/// block's `refill_pending` flag ([`SharedPool::try_begin_refill`]) and
/// clears it only afterwards, so refills of one block are single-flight.
/// The build happens entirely on private data; readers of the previous
/// generation are never blocked.
///
/// A fine batch plans slots only for the vertices it was read for.
///
/// Returns `None` when nothing was published (remaining slots still above
/// the demand watermark, or no budget even after retiring the old
/// generation).
fn refill_block<A: Walk>(
    shared: &Shared<A>,
    edges: &Edges,
    rng: &mut WalkRng,
) -> Option<RefillReport> {
    let (graph, pool, budget) = (&shared.graph, &shared.pool, &shared.budget);
    let info = *edges.info();
    let b = info.id;
    let nv = info.num_vertices() as usize;
    if nv == 0 {
        return None;
    }
    let demand = pool.demand(b);
    // Carry the previous generation's visit counters forward: claims count
    // both served steps and overflow stalls, which is exactly the demand
    // signal `plan_quotas` wants (§3.3.2). The old generation's footprint
    // counts as reclaimable headroom below — publishing its successor
    // retires it.
    let (weights, own_bytes): (Vec<u32>, u64) = match pool.acquire(b) {
        Some(prev) => {
            // Re-check the watermark: the coordinator's `needs_refill` ran
            // earlier and demand may have moved.
            if pool.under_watermark(b, &prev) == Some(false) {
                return None; // comfortably above the watermark
            }
            (prev.visit_weights_snapshot(), prev.memory_bytes())
        }
        // Evicted under budget pressure: plan from the cursors the retired
        // generation saved on its way out (zeros only on a true first
        // build).
        None => (
            pool.take_carried_weights(b)
                .filter(|w| w.len() == nv)
                .unwrap_or_else(|| vec![0; nv]),
            0,
        ),
    };
    // Demand-weighted split of the *stable* pool budget fixed at run
    // start. Sizing shares from `budget.available()` self-throttles: once
    // every block holds a published generation, "available" is only the
    // slack between generations, so each refill shrinks towards the
    // metadata floor and the pool starves at ~100 slots per publish.
    let total_budget = pool.byte_budget;
    // A block's share is proportional to the pressure it reported since
    // its last publish, clamped to [even/4, total/2] so no block starves
    // and none monopolizes — then capped by *need*: twice the claims the
    // last generation actually saw (plus metadata), so a block whose
    // relative pressure is high only because the run just started cannot
    // grab half the pool, starve the loader, and trigger the mass-retire
    // fallback that wipes every block's visit history. With no demand
    // signal yet, fall back to an even split.
    let meta = nv as u64 * 9 + 4;
    let even = total_budget / graph.num_blocks().max(1) as u64;
    let total_demand = pool.total_demand();
    let pressure = demand.pressure();
    let share = if total_demand == 0 || pressure == 0 {
        even
    } else {
        let s = (total_budget as u128 * pressure as u128 / total_demand as u128) as u64;
        let need = meta + pressure.saturating_mul(8);
        s.clamp(even / 4, total_budget / 2).min(need)
    };
    // Never plan past what is actually reservable right now: the free
    // budget plus this block's own generation (retired on publish). The
    // stable split says what the block *deserves*; the headroom says what
    // the run can *afford* this instant. The pool additionally
    // self-limits to `total_budget` across all generations — without
    // that cap the pool creeps into the loader's working set, the next
    // load fails on budget pressure, and the eviction fallback darkens
    // half the pool (every claim on an unpublished block is a stall
    // until its next residency).
    let pool_free = total_budget
        .saturating_sub(pool.published_bytes())
        .saturating_add(own_bytes);
    let avail = share
        .min(pool_free)
        .min(budget.available().saturating_add(own_bytes));
    if avail <= meta {
        return None;
    }
    let generation = Generation {
        app: &*shared.app,
        graph,
        opts: &shared.opts,
        src: edges,
        // Its reserve policy unpublishes the old generation to make room.
        available: u64::MAX,
    };
    // No room for the plan: retire the old generation to free its
    // reservation (readers holding an Arc keep it alive until their walk
    // job ends), then try once more.
    let reserve = |bytes, _: &mut u64| {
        ControlFlow::Break(budget.try_reserve(bytes).ok().or_else(|| {
            drop(pool.unpublish(b));
            budget.try_reserve(bytes).ok()
        }))
    };
    let only = match edges {
        Edges::Coarse(_) => None,
        Edges::Fine(_, verts) => Some(verts.as_slice()),
    };
    let (buf, slots, draws) =
        generation.build(&info, only, &weights, (avail - meta) / 4, rng, reserve)?;
    drop(pool.publish(b, Arc::new(buf.into_published())));
    // A fresh generation starts with a clean demand tally: the watermark
    // should reflect pressure against *this* buffer, not its ancestors.
    demand.reset();
    Some(RefillReport {
        block: b,
        slots,
        draws,
    })
}

fn loader_err(e: crate::threaded::LoaderError) -> EngineError {
    match e {
        crate::threaded::LoaderError::Load(l) => EngineError::Load(l),
        crate::threaded::LoaderError::Disconnected => {
            EngineError::Load(crate::disk_graph::LoadError::Device(
                noswalker_storage::DeviceError::Io("background loader disconnected".into()),
            ))
        }
    }
}

/// The error reported when a worker thread exits early (its channel
/// endpoint hung up), e.g. after a panic in application code.
fn worker_died() -> EngineError {
    EngineError::Load(crate::disk_graph::LoadError::Device(
        noswalker_storage::DeviceError::Io("a worker thread died mid-run".into()),
    ))
}

/// One walk job's [`Source`]: the resident edges where they are loaded,
/// otherwise one slot claimed from the vertex's generation in the job's
/// snapshot of the published pool. A slot the app declines (e.g. a
/// restart) is re-served to the next walker at its vertex; one still held
/// when the job ends is burned.
struct JobSource<'j, A: Walk> {
    shared: &'j Shared<A>,
    resident: &'j Edges,
    /// The published generations, taken once when the job starts.
    snapshot: Vec<Option<Arc<PreSampleBuffer>>>,
    /// Declined slots as `(vertex, destination)`, re-served first.
    declined: Vec<(VertexId, VertexId)>,
    /// Sampled slots claimed (pool attempts that did not stall).
    claimed: u64,
    /// Visits to blocks with no published generation.
    deferred: u64,
}

impl<A: Walk> Source for JobSource<'_, A> {
    fn degree(&self, v: VertexId) -> u64 {
        self.shared.graph.degree(v)
    }

    fn edges(&self, v: VertexId) -> Option<VertexEdges<'_>> {
        self.resident.vertex_edges(&self.shared.graph, v)
    }

    /// Both cases that move no walker feed the block's [`BlockDemand`]: a
    /// claim on a dry generation is a *stall* (a quota-planning miss), and
    /// a visit to a block with no published generation *defers* to the
    /// block's next residency (nothing existed to claim from, so it is not
    /// a pool attempt) — absence of a generation is exactly what the
    /// refill scheduler must learn about.
    fn draw(&mut self, at: VertexId) -> Option<Draw<'_>> {
        let (graph, resident) = (&*self.shared.graph, self.resident);
        if let Some(view) = resident.vertex_edges(graph, at) {
            return Some(Draw::Edges(view));
        }
        if let Some(k) = self.declined.iter().position(|&(v, _)| v == at) {
            return Some(Draw::Slot(self.declined.swap_remove(k).1));
        }
        let b = graph.block_of(at);
        let demand = self.shared.pool.demand(b);
        let Some(buf) = &self.snapshot[b as usize] else {
            demand.note_stalls(1);
            self.deferred += 1;
            return None;
        };
        Some(match buf.claim(at) {
            Claim::Sampled(dst) => {
                demand.note_claims(1);
                self.claimed += 1;
                Draw::Slot(dst)
            }
            Claim::Raw(view) => Draw::Raw(view),
            Claim::Stalled => {
                demand.note_stalls(1);
                Draw::Dry
            }
        })
    }

    fn settle(&mut self, at: VertexId, dst: VertexId, taken: bool) {
        if !taken {
            self.declined.push((at, dst));
        }
    }
}

/// The step kernel: walks each walker of a chunk once, through the job's
/// [`JobSource`], until its walk ends or nothing serves its next hop.
///
/// Returns the walkers the pool could not move — the coordinator
/// re-buckets them for a future block schedule.
fn drive_batch<A: Walk>(
    shared: &Shared<A>,
    block: &Edges,
    local: &mut RunMetrics,
    rng: &mut WalkRng,
    walkers: Vec<A::Walker>,
) -> Vec<A::Walker> {
    let (app, opts, pool) = (&*shared.app, &shared.opts, &shared.pool);
    let mut source = JobSource {
        shared,
        resident: block,
        snapshot: (0..pool.slots.len() as BlockId)
            .map(|b| pool.acquire(b))
            .collect(),
        declined: Vec::new(),
        claimed: 0,
        deferred: 0,
    };
    let mut stalled = Vec::new();
    for mut w in walkers {
        match walk_resident(app, &mut w, rng, local, opts, &mut source, |_, _| {}).1 {
            Stop::Done => retire_walker(app, local, &w),
            Stop::Left => stalled.push(w),
        }
    }
    // Every claimed slot was consumed or is burned here, so
    // `pool_attempts == presamples_consumed + claims_burned + pool_stalls`.
    local.record_pool_attempts(source.claimed);
    local.record_claims_burned(source.declined.len() as u64);
    local.record_pool_deferrals(source.deferred);
    stalled
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::{MemorySink, TraceEvent};
    use crate::presample::{plan_quotas, BatchClaim};
    use noswalker_graph::generators;
    use noswalker_storage::{SimSsd, SsdProfile};
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicU64 as A64, Ordering};

    #[derive(Debug)]
    struct Basic {
        walkers: u64,
        length: u32,
        n: u32,
        visits: A64,
    }
    #[derive(Debug, Clone)]
    struct W {
        at: u32,
        step: u32,
    }
    impl Walk for Basic {
        type Walker = W;
        fn total_walkers(&self) -> u64 {
            self.walkers
        }
        fn generate(&self, i: u64, _r: &mut WalkRng) -> W {
            W {
                at: (i % self.n as u64) as u32,
                step: 0,
            }
        }
        fn location(&self, w: &W) -> u32 {
            w.at
        }
        fn is_active(&self, w: &W) -> bool {
            w.step < self.length
        }
        fn sample(&self, v: &noswalker_graph::layout::VertexEdges<'_>, r: &mut WalkRng) -> u32 {
            crate::walk::uniform_sample(v, r)
        }
        fn action(&self, w: &mut W, next: u32, _r: &mut WalkRng) -> bool {
            self.visits.fetch_add(1, Ordering::Relaxed);
            w.at = next;
            w.step += 1;
            true
        }
    }

    fn runner(walkers: u64) -> (Arc<Basic>, ParallelRunner<Basic>) {
        let csr = generators::uniform_degree(512, 8, 7);
        let device = Arc::new(SimSsd::new(SsdProfile::nvme_p4618()));
        let graph = Arc::new(OnDiskGraph::store(&csr, device, 2048).unwrap());
        let app = Arc::new(Basic {
            walkers,
            length: 9,
            n: 512,
            visits: A64::new(0),
        });
        let r = ParallelRunner::new(
            Arc::clone(&app),
            graph,
            EngineOptions::default(),
            MemoryBudget::new(1 << 20),
        );
        (app, r)
    }

    #[test]
    fn completes_all_walkers_with_multiple_threads() {
        let (app, r) = runner(5000);
        let m = r.run(3, 4).unwrap();
        assert_eq!(m.walkers_finished, 5000);
        // Uniform graph, no dead ends: exact step count.
        assert_eq!(m.steps, 5000 * 9);
        assert_eq!(app.visits.load(Ordering::Relaxed), m.steps);
        assert!(m.wall_ns > 0);
        assert!(m.sim_ns > 0);
    }

    #[test]
    fn single_thread_matches_semantics() {
        let (app, r) = runner(800);
        let m = r.run(5, 1).unwrap();
        assert_eq!(m.walkers_finished, 800);
        assert_eq!(m.steps, 800 * 9);
        assert_eq!(app.visits.load(Ordering::Relaxed), m.steps);
        // Zero workers is clamped to one (as `ParallelKernel::new` does),
        // not a panic: the same seed gives the same run.
        let (_, r0) = runner(800);
        let m0 = r0.run(5, 0).unwrap();
        assert_eq!((m0.steps, m0.sim_ns), (m.steps, m.sim_ns));
    }

    #[test]
    fn presamples_are_used() {
        let (_, r) = runner(20_000);
        let m = r.run(7, 4).unwrap();
        assert!(
            m.steps_on_presample + m.steps_on_raw > 0,
            "the shared pre-sample pool should serve some steps"
        );
        assert!(
            m.pool_publishes > 0,
            "refills should publish at least one generation"
        );
    }

    #[test]
    fn budget_violation_is_reported() {
        let csr = generators::uniform_degree(512, 8, 7);
        let device = Arc::new(SimSsd::new(SsdProfile::nvme_p4618()));
        let graph = Arc::new(OnDiskGraph::store(&csr, device, 2048).unwrap());
        let app = Arc::new(Basic {
            walkers: 100,
            length: 3,
            n: 512,
            visits: A64::new(0),
        });
        let r = ParallelRunner::new(app, graph, EngineOptions::default(), MemoryBudget::new(64));
        assert!(r.run(1, 2).is_err());
    }

    #[test]
    fn tight_budget_evicts_published_pool_instead_of_failing() {
        // A power-law graph under all-raw retention makes published
        // buffers nearly as large as the blocks they mirror, so on a
        // tight budget they starve demand loads mid-run. The coordinator
        // must retire published generations and retry the load — the
        // sequential engine's eviction behaviour — not fail the run.
        let csr = generators::rmat(10, 10, generators::RmatParams::default(), 19);
        let device = Arc::new(SimSsd::new(SsdProfile::nvme_p4618()));
        let graph = Arc::new(OnDiskGraph::store(&csr, device, 2048).unwrap());
        let app = Arc::new(Basic {
            walkers: 2000,
            length: 8,
            n: 1024,
            visits: A64::new(0),
        });
        let opts = EngineOptions {
            low_degree_threshold: u32::MAX,
            ..EngineOptions::default()
        };
        let r = ParallelRunner::new(Arc::clone(&app), graph, opts, MemoryBudget::new(24 << 10));
        let m = r.run(17, 2).expect("tight budget must evict, not fail");
        assert_eq!(m.walkers_finished + m.walkers_cancelled, 2000);
    }

    #[test]
    fn trace_carries_pool_and_prefetch_events() {
        let (_, r) = runner(20_000);
        let mut sink = MemorySink::default();
        let m = r.run_with_sink(11, 4, Some(&mut sink)).unwrap();
        let publishes = sink
            .events
            .iter()
            .filter(|e| matches!(e, TraceEvent::PoolPublish { .. }))
            .count() as u64;
        assert_eq!(publishes, m.pool_publishes);
        let (hits, wasted) = sink.events.iter().fold((0u64, 0u64), |(h, w), e| match e {
            TraceEvent::Prefetch { hit: true, .. } => (h + 1, w),
            TraceEvent::Prefetch { hit: false, .. } => (h, w + 1),
            _ => (h, w),
        });
        assert_eq!(hits, m.prefetch_hits);
        assert_eq!(wasted, m.prefetch_wasted);
    }

    #[test]
    fn watermark_schedules_refill_before_depletion() {
        let pool = SharedPool::new(1, 1 << 20);
        assert!(
            pool.needs_refill(0),
            "an unpublished slot always wants a refill"
        );
        let degrees = vec![100u64; 4];
        let weights = vec![1u32; 4];
        let plan = plan_quotas(&degrees, &weights, 64, 0, u32::MAX, 64);
        let (buf, _) = PreSampleBuffer::build(0, &plan, false, |_| 1, |_, _, _| unreachable!());
        pool.publish(0, Arc::new(buf.into_published()));
        assert!(
            !pool.needs_refill(0),
            "a fresh generation sits above the watermark"
        );
        let buf = pool.acquire(0).unwrap();
        let cap = buf.sampled_capacity();
        assert!(cap > 0);
        // Drain slots while feeding the demand tally, the way the kernel
        // does: the watermark must trip strictly before the pool is dry.
        let mut drained = 0u64;
        while !pool.needs_refill(0) {
            assert!(drained < 2 * cap, "watermark never tripped");
            match buf.claim_batch((drained % 4) as u32, 1) {
                BatchClaim::Sampled(dsts) => pool.demand(0).note_claims(dsts.len() as u64),
                BatchClaim::Stalled => pool.demand(0).note_stalls(1),
                BatchClaim::Raw(_) => unreachable!("no raw vertices planned"),
            }
            drained += 1;
        }
        assert!(
            buf.remaining_sampled() > 0,
            "the watermark must trip while slots remain, not after the pool runs dry"
        );
        assert!(pool.try_begin_refill(0));
        assert!(
            !pool.try_begin_refill(0),
            "refill scheduling is single-flight per block"
        );
        pool.end_refill(0);
        assert!(pool.try_begin_refill(0), "end_refill re-arms scheduling");
    }

    /// Declines every third hop (like PPR restarts): steps still advance
    /// so walks terminate, but a declined pre-sampled slot must be
    /// re-served or burned — never silently lost or double-charged.
    #[derive(Debug)]
    struct Decliner {
        walkers: u64,
        length: u32,
        n: u32,
    }
    impl Walk for Decliner {
        type Walker = W;
        fn total_walkers(&self) -> u64 {
            self.walkers
        }
        fn generate(&self, i: u64, _r: &mut WalkRng) -> W {
            W {
                at: (i % self.n as u64) as u32,
                step: 0,
            }
        }
        fn location(&self, w: &W) -> u32 {
            w.at
        }
        fn is_active(&self, w: &W) -> bool {
            w.step < self.length
        }
        fn sample(&self, v: &noswalker_graph::layout::VertexEdges<'_>, r: &mut WalkRng) -> u32 {
            crate::walk::uniform_sample(v, r)
        }
        fn action(&self, w: &mut W, next: u32, _r: &mut WalkRng) -> bool {
            w.step += 1;
            if w.step.is_multiple_of(3) {
                return false; // decline the hop, stay put
            }
            w.at = next;
            true
        }
    }

    #[test]
    fn declined_claims_conserve_pool_attempts() {
        let csr = generators::uniform_degree(512, 8, 7);
        let device = Arc::new(SimSsd::new(SsdProfile::nvme_p4618()));
        let graph = Arc::new(OnDiskGraph::store(&csr, device, 2048).unwrap());
        let app = Arc::new(Decliner {
            walkers: 4000,
            length: 9,
            n: 512,
        });
        let r = ParallelRunner::new(
            app,
            graph,
            EngineOptions::default(),
            MemoryBudget::new(1 << 20),
        );
        let m = r.run(21, 1).unwrap();
        assert_eq!(m.walkers_finished, 4000);
        assert!(m.pool_attempts > 0, "phase B must claim from the pool");
        // Exact conservation (law 13 holds with equality inside one run):
        // every claimed slot was consumed or burned, and every stalled
        // attempt was counted.
        assert_eq!(
            m.pool_attempts,
            m.presamples_consumed + m.claims_burned + m.pool_stalls
        );
    }

    #[test]
    fn first_generation_publishes_at_load_delivery() {
        // Warm-up pre-sampling builds a block's first generation on the
        // coordinator the moment its load is delivered — before the first
        // walk-job fan-out — instead of queueing an async refill behind
        // the walk jobs. Pinned via the trace: each block's first
        // `PoolPublish` carries the same model timestamp as a
        // `CoarseLoad` of that same block (publish-at-delivery), and
        // every block gets a generation.
        let csr = generators::uniform_degree(512, 8, 7);
        let device = Arc::new(SimSsd::new(SsdProfile::nvme_p4618()));
        let graph = Arc::new(OnDiskGraph::store(&csr, device, 2048).unwrap());
        let num_blocks = graph.num_blocks();
        let app = Arc::new(Basic {
            walkers: 3000,
            length: 9,
            n: 512,
            visits: A64::new(0),
        });
        let r = ParallelRunner::new(
            app,
            graph,
            EngineOptions::default(),
            MemoryBudget::new(1 << 20),
        );
        let mut sink = MemorySink::new();
        let m = r.run_with_sink(9, 1, Some(&mut sink)).unwrap();
        assert_eq!(m.walkers_finished, 3000);
        assert!(
            m.pool_publishes >= num_blocks as u64,
            "every block must get a first generation ({} publishes, {num_blocks} blocks)",
            m.pool_publishes
        );
        let mut loads: BTreeMap<BlockId, Vec<u64>> = BTreeMap::new();
        let mut first_publish: BTreeMap<BlockId, u64> = BTreeMap::new();
        for e in &sink.events {
            match *e {
                TraceEvent::CoarseLoad { block, at_ns, .. } => {
                    loads.entry(block).or_default().push(at_ns);
                }
                TraceEvent::PoolPublish { block, at_ns, .. } => {
                    first_publish.entry(block).or_insert(at_ns);
                }
                _ => {}
            }
        }
        assert_eq!(first_publish.len(), num_blocks);
        for (&b, &at) in &first_publish {
            assert!(
                loads.get(&b).is_some_and(|ts| ts.contains(&at)),
                "block {b}: first publish at {at} ns must coincide with its load delivery"
            );
        }
    }

    /// ShrinkBlock (§3.3.1) on the parallel runner: the switch the
    /// sequential engine uses fires for few walkers, loads become 4 KiB
    /// page batches, and the run conserves. With the knob off every load
    /// stays coarse.
    #[test]
    fn fine_mode_engages_for_sparse_walkers() {
        let csr = generators::rmat(15, 16, generators::RmatParams::default(), 5);
        for shrink in [true, false] {
            let device = Arc::new(SimSsd::new(SsdProfile::nvme_p4618()));
            let graph = Arc::new(OnDiskGraph::store(&csr, device, 64 << 10).unwrap());
            let app = Arc::new(Basic {
                walkers: 50,
                length: 10,
                n: csr.num_vertices() as u32,
                visits: A64::new(0),
            });
            let opts = EngineOptions {
                enable_shrink_block: shrink,
                ..EngineOptions::default()
            };
            let budget = MemoryBudget::new(512 << 10);
            let audit = RunAudit::begin(50, &budget);
            let mut sink = MemorySink::new();
            let m = ParallelRunner::new(app, graph, opts, Arc::clone(&budget))
                .run_with_sink(9, 2, Some(&mut sink))
                .unwrap();
            audit.verify(&m, &budget).assert_clean();
            assert_eq!(m.walkers_finished, 50);
            let count = |f: fn(&TraceEvent) -> bool| sink.events.iter().filter(|e| f(e)).count();
            let fine = count(|e| matches!(e, TraceEvent::FineLoad { .. })) as u64;
            let switches = count(|e| matches!(e, TraceEvent::FineModeSwitch { .. }));
            assert_eq!(fine, m.fine_loads);
            if shrink {
                // α·|Wa|·4KiB = 4·50·4096 ≈ 0.8 MB < S_G = 2 MB: fine mode
                // engages before the first load.
                assert_eq!(m.fine_mode_at_step, Some(0));
                assert_eq!(switches, 1);
                assert!(m.fine_loads > 0);
                assert_eq!(m.coarse_loads, 0);
            } else {
                assert_eq!(m.fine_mode_at_step, None);
                assert_eq!((m.fine_loads, switches), (0, 0));
                assert!(m.coarse_loads > 0);
            }
        }
    }
}
