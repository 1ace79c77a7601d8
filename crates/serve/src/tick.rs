//! `TickCore`: the mode-agnostic per-round serving state machine.
//!
//! Both serving drivers used to carry their own copy of the six-phase
//! round loop — [`ServeEngine`](crate::ServeEngine) for the unsharded
//! case and `ShardPlane` (crates/shard) for the N-lane case. `TickCore`
//! is that loop lifted out once: drain arrivals → admission → activate →
//! boundary expiry → carve chunks → run on a
//! [`StepKernel`] → deadline check → finalize/handoff. A *driver* owns
//! the loop around [`TickCore::tick`] and supplies the clock through the
//! [`TickClock`] seam:
//!
//! * **lockstep** — [`TickCore::run_lockstep`], the one drive loop both
//!   [`ServeEngine`](crate::ServeEngine) and `ShardPlane` delegate to: a
//!   [`ModelClock`] charged with the kernels' deterministic `advance_ns`,
//!   idle gaps jumped to the next arrival, replays bit-identical.
//! * **realtime** — a wall clock confined to [`crate::realtime`]; an
//!   autonomous background thread ticks the same state machine against
//!   real time and streams partial results per tick.
//!
//! The core is *lane*-structured: one lane per shard (admission queue,
//! walker-pool quota, the one kernel [`ServeOptions::backend`] names,
//! owned vertex range), with a [`LaneRouter`] deciding which lane admits a query and
//! which lane owns a handed-off walker. Lanes are parallel in the model
//! (a round costs its slowest lane) and on the host: a tick with work on
//! several lanes runs their rounds on scoped threads and folds the
//! results in lane order. With a single lane every phase
//! degenerates to the unsharded engine's behavior bit-for-bit (the
//! `shard_plane` N=1 test pins this), which is what lets both shells be
//! thin wrappers over the same code.

use crate::admission::{Admission, AdmissionController};
use crate::app::{query_stream_seed, QueryClass, QueryTable, RoundApp, ServeWalker};
use crate::engine::{QueryOutcome, ServeError, ServeOptions, ServeReport};
use noswalker_core::audit::{Trace, TraceEvent, TraceSink};
use noswalker_core::{
    audit_handoffs, audit_queries, Backend, LatencyHistogram, ModelClock, OnDiskGraph,
    ParallelKernel, QueryId, QuerySource, QuerySpec, QueryStats, RunMetrics, SequentialKernel,
    StepKernel, TickClock,
};
use noswalker_graph::VertexId;
use noswalker_storage::MemoryBudget;
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;

/// The one deadline predicate every serving site uses: a deadline landing
/// exactly on the clock has passed.
pub(crate) fn deadline_passed(deadline_ns: Option<u64>, now_ns: u64) -> bool {
    deadline_ns.is_some_and(|d| d <= now_ns)
}

/// One lane's immutable serving substrate: its (sub-)graph, its share of
/// the memory budget, and the vertex range it owns. The unsharded engine
/// is a single lane owning the whole vertex space. A tick runs its lanes
/// at once, so lanes sharing a budget or device would see each other's
/// use in host order: replays are exact only when each lane owns its own.
#[derive(Debug, Clone)]
pub struct LaneConfig {
    /// The stored graph this lane's kernels walk.
    pub graph: Arc<OnDiskGraph>,
    /// The lane's memory budget (kernels and quota sizing read it).
    pub budget: Arc<MemoryBudget>,
    /// Vertices this lane owns; walkers landing outside emigrate.
    pub owned: Range<VertexId>,
}

/// Decides which lane admits a query and which lane owns a vertex.
///
/// Kept as a seam (rather than baking in the shard router) because the
/// shard router lives in `noswalker-shard`, which depends on this crate:
/// the plane injects its range-lookup router, the unsharded shell injects
/// [`SingleLane`].
pub trait LaneRouter: Send {
    /// The lane that admits `q` and issues its fresh walkers.
    fn home_of(&self, q: &QuerySpec) -> usize;
    /// The lane owning vertex `v` (where a handed-off walker re-enters).
    fn lane_of(&self, v: VertexId) -> usize;
}

/// The trivial router: everything lives on lane 0.
#[derive(Debug, Default, Clone, Copy)]
pub struct SingleLane;

impl LaneRouter for SingleLane {
    fn home_of(&self, _q: &QuerySpec) -> usize {
        0
    }
    fn lane_of(&self, _v: VertexId) -> usize {
        0
    }
}

/// A query in the active set.
#[derive(Debug)]
struct ActiveQuery {
    spec: QuerySpec,
    class: QueryClass,
    stats: QueryStats,
    digest: u64,
    deadline_missed: bool,
    /// The lane that admitted the query and issues its fresh walkers.
    home: u32,
    /// No more fresh walkers are issued (deadline fired or the caller
    /// cancelled); handed-off walkers retire through pre-cancelled slots
    /// and the query finalizes once every issued walker is accounted for.
    draining: bool,
    /// The caller cancelled the query through the realtime ingress. Never
    /// set in lockstep mode, so lockstep behavior is unchanged.
    cancel_requested: bool,
}

impl ActiveQuery {
    /// Budget still issuable as fresh walkers (zero once draining — a
    /// missed or cancelled query surrenders its remaining budget).
    fn fresh_unissued(&self) -> u64 {
        if self.draining {
            0
        } else {
            self.spec.walkers - self.stats.issued
        }
    }

    /// Issued walkers not yet terminated: parked in a handoff queue.
    fn in_flight(&self) -> u64 {
        self.stats.issued - self.stats.completed - self.stats.cancelled
    }
}

/// Per-lane round-carve state.
#[derive(Default)]
struct Group {
    entries: Vec<(QueryClass, u32, Option<u64>, u64)>,
    chunks: Vec<(u32, u64, u64)>,
    /// `(index into active, table slot, fresh walkers issued)`; immigrant
    /// -only slots charge zero fresh walkers.
    charged: Vec<(usize, u32, u64)>,
    resumed: Vec<ServeWalker>,
    /// Slots to pre-cancel before the round runs (draining queries).
    precancel: Vec<u32>,
    /// `query id → slot` for this lane (linear scan; tiny and
    /// deterministic — `crates/clippy.toml` bans hash maps, rule L9).
    slot_of_query: Vec<(u64, u32)>,
}

impl Group {
    /// Query `q`'s slot in this group (`idx` is its index into the active
    /// set), created on first use with its deadline step allowance, its
    /// stream seed and a charge of `fresh` fresh walkers; a draining
    /// query's new slot is pre-cancelled. A fresh carve always creates,
    /// so a found slot is only ever an immigrant's and charges nothing.
    fn slot(
        &mut self,
        idx: usize,
        q: &ActiveQuery,
        fresh: u64,
        now: u64,
        step_cost: u64,
        seed: u64,
    ) -> u32 {
        let id = q.spec.id;
        if let Some(&(_, slot)) = self.slot_of_query.iter().find(|&&(qid, _)| qid == id) {
            return slot;
        }
        let slot = self.entries.len() as u32;
        let allowance = q
            .spec
            .deadline_ns
            .map(|d| d.saturating_sub(now) / step_cost.max(1));
        let stream = query_stream_seed(seed, id);
        self.entries
            .push((q.class, q.spec.walk_length, allowance, stream));
        self.charged.push((idx, slot, fresh));
        self.slot_of_query.push((id, slot));
        if q.draining {
            self.precancel.push(slot);
        }
        slot
    }
}

/// One lane's mutable serving machinery.
struct Lane {
    kernel: Box<dyn StepKernel<RoundApp>>,
    admission: AdmissionController,
    quota: u64,
    owned: Range<VertexId>,
}

/// What one [`TickCore::tick`] call did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tick {
    /// A round ran; the clock was charged with its modeled duration.
    Ran,
    /// Nothing is runnable right now. `next_arrival_ns` is the earliest
    /// time the source may have new work (`None` when it never will);
    /// the driver decides whether to jump the clock there (lockstep),
    /// wait for real time or commands (realtime), or stop.
    Idle {
        /// Earliest future arrival, from the source, or `None`.
        next_arrival_ns: Option<u64>,
    },
    /// The `max_rounds` backstop tripped: every in-flight query was
    /// finalized as a degraded partial and the pending queues drained as
    /// shed. The driver must stop and [`TickCore::finish`].
    Exhausted,
}

/// Everything a finished [`TickCore`] run produced: the merged
/// [`ServeReport`] plus the lane-plane extras.
#[derive(Debug)]
pub struct TickReport {
    /// The merged report — outcomes, global histograms, merged metrics.
    pub report: ServeReport,
    /// Per-lane completion-latency histograms (what the global
    /// `report.histograms` were merged from).
    pub lane_histograms: Vec<BTreeMap<String, LatencyHistogram>>,
    /// Total cross-lane handoff hops (emigrations).
    pub walkers_emigrated: u64,
    /// Total handed-off walkers re-admitted (equals `walkers_emigrated`
    /// at run end — the conservation law with zero in flight).
    pub walkers_immigrated: u64,
}

/// One parked walker: the owning query and its full mobile state.
type Parked = (u64, ServeWalker);

/// The mode-agnostic round state machine (see module docs). A driver
/// constructs one per run, calls [`tick`](Self::tick) until the source
/// is exhausted (or forever, in realtime mode), and closes with
/// [`finish`](Self::finish).
pub struct TickCore {
    lanes: Vec<Lane>,
    router: Box<dyn LaneRouter>,
    opts: ServeOptions,
    nv: u32,
    step_cost: u64,
    active: Vec<ActiveQuery>,
    inbox: Vec<Vec<Parked>>,
    outcomes: Vec<QueryOutcome>,
    lane_histograms: Vec<BTreeMap<String, LatencyHistogram>>,
    metrics: RunMetrics,
    rounds: u64,
    total_emigrated: u64,
    total_immigrated: u64,
}

impl std::fmt::Debug for TickCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TickCore")
            .field("lanes", &self.lanes.len())
            .field("rounds", &self.rounds)
            .field("active", &self.active.len())
            .field("opts", &self.opts)
            .finish()
    }
}

impl TickCore {
    /// Builds a core over `lanes` with `router` deciding placement. The
    /// number of vertices is taken as the maximum owned range end (lanes
    /// partition the vertex space).
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is empty.
    pub fn new(lanes: Vec<LaneConfig>, router: Box<dyn LaneRouter>, opts: ServeOptions) -> Self {
        assert!(!lanes.is_empty(), "need at least one lane");
        let n = lanes.len();
        let nv = lanes.iter().map(|l| l.owned.end).max().unwrap_or(0);
        let step_cost = opts.engine.step_cost();
        // All-raw pre-sample retention: a pre-drawn sampled slot would
        // embed the refill path's RNG into walker movement, and the
        // refill path differs per kernel. With every retained buffer raw,
        // destinations come only from `Walk::sample_for` (walker-private
        // randomness) on either backend, which is what makes
        // cross-backend digests bit-identical. What it costs: an all-raw
        // buffer is a whole-block raw copy, planned outside the capacity
        // it was offered, so it is built only when the budget happens to
        // hold it. A 4 s `serve-shard` benchmark run (2-core AMD EPYC)
        // made 74,394 builds and 52,276 refused attempts. A build costs
        // ~3.5 µs with raw edges decoded in bulk (8.5 µs edge by edge); a
        // refusal ~0.3 µs, checked against the raw floor before planning
        // (2.1 µs with the plan computed first). The serving pre-sample
        // builder (ROADMAP item 1) starts from that split, not from zero.
        let mut round_opts = opts.engine.clone();
        round_opts.low_degree_threshold = u32::MAX;
        let built: Vec<Lane> = lanes
            .into_iter()
            .map(|cfg| Lane {
                quota: opts.engine.walker_pool_quota(
                    &cfg.budget,
                    std::mem::size_of::<ServeWalker>(),
                    u64::MAX,
                ),
                kernel: match opts.backend {
                    Backend::Seq => Box::new(SequentialKernel::new(
                        Arc::clone(&cfg.graph),
                        round_opts.clone(),
                        Arc::clone(&cfg.budget),
                    )),
                    Backend::Par => Box::new(ParallelKernel::new(
                        Arc::clone(&cfg.graph),
                        round_opts.clone(),
                        Arc::clone(&cfg.budget),
                        opts.par_workers,
                    )),
                },
                admission: AdmissionController::new(opts.admission.clone()),
                owned: cfg.owned,
            })
            .collect();
        TickCore {
            lanes: built,
            router,
            opts,
            nv,
            step_cost,
            active: Vec::new(),
            inbox: vec![Vec::new(); n],
            outcomes: Vec::new(),
            lane_histograms: vec![BTreeMap::new(); n],
            metrics: RunMetrics::default(),
            rounds: 0,
            total_emigrated: 0,
            total_immigrated: 0,
        }
    }

    /// Serving rounds executed so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Queries currently in the active set.
    pub fn active_len(&self) -> usize {
        self.active.len()
    }

    /// Queries admitted but not yet activated, across all lanes.
    pub fn pending_len(&self) -> usize {
        self.lanes.iter().map(|l| l.admission.pending_len()).sum()
    }

    /// Every outcome recorded so far, in termination order.
    pub fn outcomes(&self) -> &[QueryOutcome] {
        &self.outcomes
    }

    /// The per-class completion-latency histograms, merged across lanes.
    pub fn merged_histograms(&self) -> BTreeMap<String, LatencyHistogram> {
        let mut histograms: BTreeMap<String, LatencyHistogram> = BTreeMap::new();
        for h in &self.lane_histograms {
            for (k, v) in h {
                histograms.entry(k.clone()).or_default().merge(v);
            }
        }
        histograms
    }

    /// Terminates an active query — outcome, latency histogram sample
    /// (in the query's *home lane's* histogram), and the
    /// `QueryDeadlineMiss`/`QueryCompleted` trace events.
    fn finalize(&mut self, q: ActiveQuery, now: u64, trace: &mut Trace<'_>) {
        let degraded = q.stats.cancelled > 0 || q.stats.issued < q.spec.walkers;
        if q.deadline_missed {
            let deadline_ns = q.spec.deadline_ns.unwrap_or(now);
            let query = q.spec.id;
            trace.emit(|| TraceEvent::QueryDeadlineMiss {
                query,
                deadline_ns,
                at_ns: now,
            });
        }
        let latency = now.saturating_sub(q.spec.arrival_ns);
        self.lane_histograms[q.home as usize]
            .entry(q.class.name().to_string())
            .or_default()
            .record(latency);
        let (query, issued, completed, cancelled) = (
            q.spec.id,
            q.stats.issued,
            q.stats.completed,
            q.stats.cancelled,
        );
        trace.emit(|| TraceEvent::QueryCompleted {
            query,
            issued,
            completed,
            cancelled,
            degraded,
            at_ns: now,
        });
        self.outcomes.push(QueryOutcome {
            id: q.spec.id,
            class: q.class.name().to_string(),
            stats: q.stats,
            latency_ns: Some(latency),
            degraded,
            deadline_missed: q.deadline_missed,
            shed: false,
            retry_after_ns: None,
            digest: q.digest,
        });
    }

    /// Records a shed outcome (admission rejection or backstop drain).
    fn shed(&mut self, q: QuerySpec, retry_after_ns: u64, now: u64, trace: &mut Trace<'_>) {
        let query = q.id;
        trace.emit(|| TraceEvent::QueryShed {
            query,
            retry_after_ns,
            at_ns: now,
        });
        self.outcomes.push(QueryOutcome {
            id: q.id,
            class: q.class.clone(),
            stats: QueryStats {
                id: q.id,
                budget: q.walkers,
                ..QueryStats::default()
            },
            latency_ns: None,
            degraded: false,
            deadline_missed: false,
            shed: true,
            retry_after_ns: Some(retry_after_ns),
            digest: 0,
        });
    }

    /// Records the outcome of a query cancelled before it ever activated
    /// (still queued in admission or in the realtime ingress): zero
    /// walkers issued, so the conservation law holds trivially; flagged
    /// degraded because the admitted budget went unserved. No histogram
    /// sample — the query never ran.
    pub fn cancel_unstarted(&mut self, q: QuerySpec, now_ns: u64, trace: &mut Trace<'_>) {
        let query = q.id;
        trace.emit(|| TraceEvent::QueryCancelled {
            query,
            at_ns: now_ns,
        });
        self.outcomes.push(QueryOutcome {
            id: q.id,
            class: q.class.clone(),
            stats: QueryStats {
                id: q.id,
                budget: q.walkers,
                ..QueryStats::default()
            },
            latency_ns: None,
            degraded: true,
            deadline_missed: false,
            shed: false,
            retry_after_ns: None,
            digest: 0,
        });
    }

    /// Records a shed outcome for a query the driver rejects at its own
    /// ingress (server shutting down, or ingress already drained) — the
    /// realtime counterpart of an admission shed, using lane 0's current
    /// retry-after hint.
    pub fn shed_rejected(&mut self, q: QuerySpec, now_ns: u64, trace: &mut Trace<'_>) {
        let retry_after_ns = self.lanes[0].admission.retry_after();
        self.shed(q, retry_after_ns, now_ns, trace);
    }

    /// Cancels a query by id: an *active* query stops issuing fresh
    /// walkers and drains (in-flight walkers retire through
    /// pre-cancelled slots; it finalizes as a degraded partial at the
    /// next boundary), a *pending* query is removed from its admission
    /// queue and reported via [`cancel_unstarted`](Self::cancel_unstarted).
    /// Returns `false` when the id is unknown here (already finished, or
    /// still in the driver's ingress — the realtime driver then checks
    /// its own queue). Lockstep drivers never call this.
    pub fn cancel(&mut self, id: QueryId, now_ns: u64, trace: &mut Trace<'_>) -> bool {
        if let Some(q) = self.active.iter_mut().find(|q| q.spec.id == id) {
            q.cancel_requested = true;
            q.draining = true;
            trace.emit(|| TraceEvent::QueryCancelled {
                query: id,
                at_ns: now_ns,
            });
            return true;
        }
        for lane in &mut self.lanes {
            if let Some(q) = lane.admission.remove(id) {
                self.cancel_unstarted(q, now_ns, trace);
                return true;
            }
        }
        false
    }

    /// The backstop/shutdown path: purges the handoff queues (each
    /// parked walker counts as re-admitted and immediately cancelled, so
    /// both conservation laws stay exact), finalizes every in-flight
    /// query as a degraded partial, and drains every lane's pending
    /// queue as shed — every admitted query still gets an outcome.
    pub fn abort(&mut self, now_ns: u64, trace: &mut Trace<'_>) {
        self.abort_in(now_ns, trace);
    }

    fn abort_in(&mut self, now: u64, trace: &mut Trace<'_>) {
        let mut inbox = std::mem::take(&mut self.inbox);
        for b in &mut inbox {
            for (qid, _w) in b.drain(..) {
                self.total_immigrated += 1;
                self.metrics.record_walkers_immigrated(1);
                self.active
                    .iter_mut()
                    .find(|q| q.spec.id == qid)
                    .expect("parked walker's query stays active")
                    .stats
                    .cancelled += 1;
            }
        }
        self.inbox = inbox;
        for q in std::mem::take(&mut self.active) {
            self.finalize(q, now, trace);
        }
        for s in 0..self.lanes.len() {
            let retry_after_ns = self.lanes[s].admission.retry_after();
            while let Some(q) = self.lanes[s].admission.next_ready(now, u64::MAX) {
                self.shed(q, retry_after_ns, now, trace);
            }
        }
    }

    /// Runs one tick of the state machine: drain arrivals, activate,
    /// expire, carve, run kernels, fold results and hand off walkers.
    /// Returns [`Tick::Idle`] (without touching the clock) when nothing
    /// is runnable, so the driver owns the waiting policy.
    ///
    /// # Errors
    ///
    /// [`ServeError::Engine`] when a kernel round fails;
    /// [`ServeError::BadQueryClass`] when an admitted query's class spec
    /// does not parse.
    pub fn tick(
        &mut self,
        clock: &mut dyn TickClock,
        source: &mut dyn QuerySource,
        trace: &mut Trace<'_>,
    ) -> Result<Tick, ServeError> {
        let n = self.lanes.len();
        let now = clock.now_ns();

        // (1) Drain time-ready arrivals into their home lane's admission
        // controller.
        while let Some(q) = source.next_ready(now, u64::MAX) {
            let home = self.router.home_of(&q);
            match self.lanes[home].admission.offer(q.clone()) {
                Admission::Admitted => {
                    let (query, walkers, deadline_ns) = (q.id, q.walkers, q.deadline_ns);
                    trace.emit(|| TraceEvent::QueryAdmitted {
                        query,
                        walkers,
                        deadline_ns,
                        at_ns: now,
                    });
                }
                Admission::Shed { retry_after_ns } => self.shed(q, retry_after_ns, now, trace),
            }
        }

        // (2) Activate per lane while that lane's walker quota has room
        // (a partially fitting query still activates — it just spans
        // rounds).
        for s in 0..n {
            let mut unissued: u64 = self
                .active
                .iter()
                .filter(|q| q.home as usize == s)
                .map(ActiveQuery::fresh_unissued)
                .sum();
            while unissued < self.lanes[s].quota {
                let room = self.lanes[s].quota - unissued;
                let Some(q) = self.lanes[s].admission.next_ready(now, room) else {
                    break;
                };
                let Some(class) = QueryClass::parse(&q.class) else {
                    return Err(ServeError::BadQueryClass {
                        id: q.id,
                        class: q.class,
                    });
                };
                unissued += q.walkers;
                self.active.push(ActiveQuery {
                    stats: QueryStats {
                        id: q.id,
                        budget: q.walkers,
                        ..QueryStats::default()
                    },
                    class,
                    digest: 0,
                    deadline_missed: false,
                    home: s as u32,
                    draining: false,
                    cancel_requested: false,
                    spec: q,
                });
            }
        }

        // (3) Boundary expiry. A query whose deadline passed (or whose
        // caller cancelled it) starts draining; it finalizes only once no
        // walker is in flight (immediately, when none are).
        let mut i = 0;
        while i < self.active.len() {
            let q = &mut self.active[i];
            let overdue = deadline_passed(q.spec.deadline_ns, now);
            let expired = (overdue || q.cancel_requested) && q.fresh_unissued() > 0;
            if expired {
                q.deadline_missed |= overdue;
                q.draining = true;
            }
            if (expired || q.fresh_unissued() == 0) && q.in_flight() == 0 {
                let q = self.active.remove(i);
                self.finalize(q, now, trace);
            } else {
                i += 1;
            }
        }

        // Global EDF-then-FIFO priority; per-lane carving below preserves
        // this relative order.
        self.active.sort_by_key(|q| {
            (
                q.spec.deadline_ns.unwrap_or(u64::MAX),
                q.spec.arrival_ns,
                q.spec.id,
            )
        });

        // (4) Carve fresh walker chunks per lane, EDF order first, under
        // each lane's per-round cap.
        let mut groups: Vec<Group> = (0..n).map(|_| Group::default()).collect();
        let mut caps: Vec<u64> = self
            .lanes
            .iter()
            .map(|l| l.quota.max(1).min(self.opts.round_walkers.max(1)))
            .collect();
        for (idx, q) in self.active.iter().enumerate() {
            let s = q.home as usize;
            if caps[s] == 0 {
                continue;
            }
            let count = q.fresh_unissued().min(caps[s]);
            if count == 0 {
                continue;
            }
            caps[s] -= count;
            let g = &mut groups[s];
            let slot = g.slot(idx, q, count, now, self.step_cost, self.opts.seed);
            g.chunks.push((slot, q.stats.issued, count));
        }

        let idle =
            groups.iter().all(|g| g.entries.is_empty()) && self.inbox.iter().all(|b| b.is_empty());
        if idle {
            // Nothing runnable anywhere: the driver decides whether to
            // jump to the next arrival, wait, or stop.
            debug_assert!(self.active.is_empty(), "active queries always have work");
            return Ok(Tick::Idle {
                next_arrival_ns: source.next_pending_at(now),
            });
        }

        self.rounds += 1;
        if self.rounds > self.opts.max_rounds {
            self.rounds -= 1;
            self.abort_in(now, trace);
            return Ok(Tick::Exhausted);
        }

        // (4b) Re-admit handed-off walkers on their owning lane: each
        // resumes ahead of the fresh chunks with vertex, step count, and
        // private RNG stream intact. Draining queries get pre-cancelled
        // slots so their walkers retire on contact.
        for (s, g) in groups.iter_mut().enumerate() {
            let arrivals = std::mem::take(&mut self.inbox[s]);
            if arrivals.is_empty() {
                continue;
            }
            self.total_immigrated += arrivals.len() as u64;
            self.metrics
                .record_walkers_immigrated(arrivals.len() as u64);
            for (qid, mut w) in arrivals {
                let idx = self
                    .active
                    .iter()
                    .position(|q| q.spec.id == qid)
                    .expect("in-flight walker's query stays active");
                w.slot = g.slot(
                    idx,
                    &self.active[idx],
                    0,
                    now,
                    self.step_cost,
                    self.opts.seed,
                );
                g.resumed.push(w);
            }
        }

        // (5) Run every lane's round. Lanes own disjoint devices, budgets
        // and kernels, so they run at once on the host as they do in the
        // model; results fold in lane order. The shared clock advances by
        // the slowest lane; the admission controllers all observe the
        // *global* stall rate — the shared backpressure view.
        let seed = self
            .opts
            .seed
            .wrapping_add(self.rounds.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut max_advance = 0u64;
        let mut round_stalls = 0u64;
        let mut round_steps = 0u64;
        type Ran = (
            usize,
            Arc<QueryTable>,
            Vec<(usize, u32, u64)>,
            Arc<RoundApp>,
        );
        let mut ran: Vec<Ran> = Vec::new();
        for (s, g) in groups.into_iter().enumerate() {
            if g.entries.is_empty() {
                continue;
            }
            let table = Arc::new(QueryTable::new(g.entries));
            for &slot in &g.precancel {
                table.cancel(slot);
            }
            let app = Arc::new(RoundApp::sharded(
                Arc::clone(&table),
                g.chunks,
                self.nv,
                self.lanes[s].owned.clone(),
                g.resumed,
            ));
            ran.push((s, table, g.charged, app));
        }
        let lanes = &self.lanes;
        let run = |(s, .., app): &Ran| lanes[*s].kernel.run_round(Arc::clone(app), seed);
        #[expect(clippy::disallowed_methods, reason = "sanctioned spawn: shard lanes")]
        let outs: Vec<_> = if ran.len() < 2 {
            ran.iter().map(run).collect()
        } else {
            std::thread::scope(|scope| {
                let rest: Vec<_> = ran[1..].iter().map(|r| scope.spawn(|| run(r))).collect();
                let mut outs = vec![run(&ran[0])];
                for h in rest {
                    outs.push(h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
                }
                outs
            })
        };
        for out in outs {
            let out = out?;
            max_advance = max_advance.max(out.advance_ns);
            round_stalls += out.metrics.pool_stalls;
            round_steps += out.metrics.steps;
            self.metrics.merge(&out.metrics);
        }
        clock.advance_round(max_advance);
        for lane in &mut self.lanes {
            lane.admission.observe_stall_rate(round_stalls, round_steps);
        }

        // (6a) Fold per-slot results back into each query.
        let after = clock.now_ns();
        let mut candidates: Vec<usize> = Vec::new();
        for (_s, table, charged, _app) in &ran {
            for &(idx, slot, count) in charged {
                let q = &mut self.active[idx];
                q.stats.issued += count;
                q.stats.completed += table.completed_walkers(slot);
                q.stats.cancelled += table.cancelled_walkers(slot);
                q.digest = q.digest.wrapping_add(table.digest(slot));
                let timed_out = table.is_cancelled(slot);
                let missed = deadline_passed(q.spec.deadline_ns, after);
                if timed_out || missed {
                    q.deadline_missed = true;
                    q.draining = true;
                }
                candidates.push(idx);
            }
        }

        // (6b) Drain emigrants into per-destination handoff queues, on a
        // deterministic key so parallel retirement order never leaks into
        // re-admission order.
        for (s, table, charged, app) in &ran {
            let mut slot_to_qidx = vec![usize::MAX; table.len()];
            for &(idx, slot, _) in charged {
                slot_to_qidx[slot as usize] = idx;
            }
            let mut ems = app.take_emigrants();
            if ems.is_empty() {
                continue;
            }
            ems.sort_by_key(|w| {
                (
                    self.active[slot_to_qidx[w.slot as usize]].spec.id,
                    w.rng,
                    w.step,
                    w.at,
                )
            });
            self.total_emigrated += ems.len() as u64;
            self.metrics.record_walkers_emigrated(ems.len() as u64);
            let mut per_dest = vec![0u64; n];
            for w in ems {
                let qid = self.active[slot_to_qidx[w.slot as usize]].spec.id;
                let dest = self.router.lane_of(w.at);
                per_dest[dest] += 1;
                self.inbox[dest].push((qid, w));
            }
            for (dest, &walkers) in per_dest.iter().enumerate() {
                if walkers == 0 {
                    continue;
                }
                let (from_shard, to_shard) = (*s as u32, dest as u32);
                trace.emit(|| TraceEvent::ShardHandoff {
                    from_shard,
                    to_shard,
                    walkers,
                    at_ns: after,
                });
            }
        }
        if cfg!(debug_assertions) {
            let in_flight: u64 = self.inbox.iter().map(|b| b.len() as u64).sum();
            audit_handoffs(self.total_emigrated, self.total_immigrated, in_flight).assert_clean();
        }

        // (6c) Terminate finished queries: budget fully issued (or
        // surrendered by draining) and nothing in flight.
        let mut done: Vec<usize> = candidates
            .into_iter()
            .filter(|&idx| {
                let q = &self.active[idx];
                (q.draining || q.fresh_unissued() == 0) && q.in_flight() == 0
            })
            .collect();
        done.sort_unstable_by(|a, b| b.cmp(a));
        done.dedup();
        for idx in done {
            let q = self.active.remove(idx);
            self.finalize(q, after, trace);
        }

        Ok(Tick::Ran)
    }

    /// The lockstep drive loop: ticks against a fresh [`ModelClock`]
    /// until `source` is exhausted (idle gaps jump to the next arrival)
    /// or the `max_rounds` backstop trips, then [`finish`](Self::finish)es
    /// at the clock's final reading.
    ///
    /// # Errors
    ///
    /// As for [`tick`](Self::tick).
    pub fn run_lockstep(
        mut self,
        source: &mut dyn QuerySource,
        sink: Option<&mut dyn TraceSink>,
    ) -> Result<TickReport, ServeError> {
        let mut clock = ModelClock::new();
        let mut trace = Trace::from_option(sink);
        loop {
            match self.tick(&mut clock, source, &mut trace)? {
                Tick::Ran => {}
                Tick::Exhausted => break,
                Tick::Idle {
                    next_arrival_ns: Some(t),
                } if !source.is_exhausted() => {
                    clock.advance_idle(t);
                }
                Tick::Idle { .. } => break,
            }
        }
        let end_ns = TickClock::now_ns(&mut clock);
        Ok(self.finish(end_ns))
    }

    /// Closes the run and builds the merged report. `end_ns` is the
    /// driver clock's final reading. In debug builds the run-end
    /// handoff-conservation and per-query conservation laws are asserted.
    pub fn finish(mut self, end_ns: u64) -> TickReport {
        // The serving layer reports modeled time only: the inner rounds'
        // host wall time would make otherwise bit-identical replays
        // differ run to run. Callers that want wall time (`benchmark/`,
        // the CLI's realtime mode) measure it around the run themselves.
        self.metrics.set_wall_ns(0);
        if cfg!(debug_assertions) {
            // Run-end conservation: every emigrated walker was re-admitted.
            audit_handoffs(self.total_emigrated, self.total_immigrated, 0).assert_clean();
        }
        let histograms = self.merged_histograms();
        let report = ServeReport {
            end_ns,
            outcomes: self.outcomes,
            histograms,
            metrics: self.metrics,
            rounds: self.rounds,
        };
        if cfg!(debug_assertions) {
            audit_queries(&report.query_stats()).assert_clean();
        }
        TickReport {
            report,
            lane_histograms: self.lane_histograms,
            walkers_emigrated: self.total_emigrated,
            walkers_immigrated: self.total_immigrated,
        }
    }
}
