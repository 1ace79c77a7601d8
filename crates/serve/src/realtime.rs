//! Realtime-async serving: an autonomous background thread ticking the
//! shared [`TickCore`] state machine against real time.
//!
//! This module is the **only** place in the serving crates where wall
//! time exists (`crates/serve/clippy.toml` bans `WallTimer` and thread
//! spawns elsewhere; the exemptions are the `expect`s in this file).
//! Everything time-*semantic* — deadlines, latency, retry-after hints —
//! still runs through the [`TickClock`] seam, so the realtime driver and
//! the lockstep [`ServeEngine`](crate::ServeEngine) execute the identical
//! round state machine; only the waiting policy differs:
//!
//! * [`WallClock`] reads a [`WallTimer`] for `now_ns` and lets real time
//!   pass on its own (`advance_round` is a no-op; `advance_idle` returns
//!   `false`, telling the driver to actually wait).
//! * Any deterministic [`TickClock`] (e.g. a
//!   [`ModelClock`](noswalker_core::ModelClock)) can be injected through
//!   [`RealtimeServer::start_with_clock`]; combined with
//!   [`IngressMode::Replay`] the run is **bit-identical** to a lockstep
//!   [`ServeEngine`](crate::ServeEngine) run over the same trace (the
//!   `serve_realtime` parity test pins this, on both kernels).
//!
//! # Protocol
//!
//! The caller talks to the server thread over a *bounded* command channel
//! ([`RealtimeHandle`]): `Submit` enqueues a query (backpressure, not
//! unbounded buffering, when the ingress is full), `Cancel` revokes one
//! wherever it currently is (ingress queue, admission queue, or active —
//! an active query drains and reports a degraded partial), `Drain` closes
//! the ingress so the run finishes once everything queued has been
//! served, and `Shutdown` aborts: in-flight queries finalize as degraded
//! partials, queued ones shed — **every accepted submit still gets
//! exactly one outcome** (the ingress stress test pins this). Results
//! stream back per tick through one mutex-guarded snapshot slot
//! ([`RealtimeHandle::snapshot`] / [`RealtimeHandle::take_outcomes`])
//! that readers poll without ever blocking the tick thread for more than
//! an [`Arc`] clone.

#![expect(
    clippy::disallowed_types,
    reason = "`WallClock` is the serving crate's one WallTimer holder"
)]

use crate::engine::{QueryOutcome, ServeError, ServeOptions};
use crate::tick::{LaneConfig, LaneRouter, SingleLane, Tick, TickCore, TickReport};
use noswalker_core::audit::Trace;
use noswalker_core::{
    BufferedQuerySource, OnDiskGraph, QueryId, QuerySource, QuerySpec, TickClock, WallTimer,
};
use noswalker_storage::MemoryBudget;
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TryRecvError, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A [`TickClock`] over real elapsed time, measured from server start by
/// the sanctioned [`WallTimer`] gateway. Rounds charge nothing (real time
/// passes on its own) and idle gaps are not jumpable — `advance_idle`
/// returns `false` so the driver waits out real time (or the next
/// command) instead.
#[derive(Debug)]
pub struct WallClock {
    timer: WallTimer,
}

impl WallClock {
    /// Starts counting now.
    pub fn start() -> Self {
        WallClock {
            timer: WallTimer::start(),
        }
    }
}

impl TickClock for WallClock {
    fn now_ns(&mut self) -> u64 {
        self.timer.elapsed_ns()
    }

    fn advance_round(&mut self, _advance_ns: u64) {}

    fn advance_idle(&mut self, _t_ns: u64) -> bool {
        false
    }
}

/// How `Submit` timestamps arrivals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IngressMode {
    /// Live serving: each submit is re-stamped with the wall clock's
    /// *arrival* reading, so latency measures real queueing + service
    /// time.
    #[default]
    Wall,
    /// Trace replay: submitted `arrival_ns` stamps are preserved and the
    /// first tick is gated until `Drain` arrives, so the state machine
    /// sees the complete trace up front — exactly what a lockstep run
    /// sees. With a deterministic injected clock this makes the replay
    /// bit-identical to [`crate::ServeEngine::run`] on the same trace.
    Replay,
}

/// Knobs for the realtime driver (the round semantics all live in
/// [`ServeOptions`]).
#[derive(Debug, Clone)]
pub struct RealtimeOptions {
    /// Bound on queued ingress commands; a full queue pushes back on
    /// submitters ([`IngressError::Backpressure`]) instead of buffering
    /// without limit.
    pub ingress_capacity: usize,
    /// Arrival timestamping policy.
    pub mode: IngressMode,
}

impl Default for RealtimeOptions {
    fn default() -> Self {
        RealtimeOptions {
            ingress_capacity: 256,
            mode: IngressMode::Wall,
        }
    }
}

/// Why an ingress command was not accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngressError {
    /// The bounded ingress queue is full — backpressure; retry later.
    Backpressure,
    /// The server thread has terminated; no further commands are
    /// accepted.
    Closed,
}

impl std::fmt::Display for IngressError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngressError::Backpressure => write!(f, "ingress queue full (backpressure)"),
            IngressError::Closed => write!(f, "realtime server closed"),
        }
    }
}

impl std::error::Error for IngressError {}

/// The ingress command set.
#[derive(Debug)]
enum Command {
    Submit(QuerySpec),
    Cancel(QueryId),
    Drain,
    Shutdown,
}

/// A point-in-time view of the running server, published per tick.
///
/// `outcomes` is cumulative (termination order), so a poller can diff
/// against the last length it saw — [`RealtimeHandle::take_outcomes`]
/// does exactly that.
#[derive(Debug, Clone, Default)]
pub struct ServeSnapshot {
    /// Serving rounds executed so far.
    pub rounds: u64,
    /// Queries currently active.
    pub active: usize,
    /// Queries admitted but not yet activated.
    pub pending: usize,
    /// Every outcome recorded so far, in termination order.
    pub outcomes: Vec<QueryOutcome>,
    /// The tick clock's reading when this snapshot was published.
    pub now_ns: u64,
}

/// The egress slot: the latest published snapshot. The tick thread
/// swaps in each new one under a momentary lock and drops the old one
/// after unlocking; a reader holds the lock only for an [`Arc`] clone.
type Egress = Mutex<Arc<ServeSnapshot>>;

fn read(egress: &Egress) -> Arc<ServeSnapshot> {
    Arc::clone(&egress.lock().expect("egress slot poisoned"))
}

/// A configured-but-not-yet-started realtime server.
pub struct RealtimeServer {
    lanes: Vec<LaneConfig>,
    router: Box<dyn LaneRouter>,
    opts: ServeOptions,
    rt: RealtimeOptions,
}

impl std::fmt::Debug for RealtimeServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RealtimeServer")
            .field("lanes", &self.lanes.len())
            .field("opts", &self.opts)
            .field("rt", &self.rt)
            .finish()
    }
}

impl RealtimeServer {
    /// A single-lane server over one stored graph — the realtime
    /// counterpart of [`crate::ServeEngine::new`].
    pub fn single(
        graph: Arc<OnDiskGraph>,
        budget: Arc<MemoryBudget>,
        opts: ServeOptions,
        rt: RealtimeOptions,
    ) -> Self {
        let nv = graph.num_vertices() as u32;
        RealtimeServer::new(
            vec![LaneConfig {
                graph,
                budget,
                owned: 0..nv,
            }],
            Box::new(SingleLane),
            opts,
            rt,
        )
    }

    /// A multi-lane server with an explicit router.
    pub fn new(
        lanes: Vec<LaneConfig>,
        router: Box<dyn LaneRouter>,
        opts: ServeOptions,
        rt: RealtimeOptions,
    ) -> Self {
        RealtimeServer {
            lanes,
            router,
            opts,
            rt,
        }
    }

    /// Starts the server thread against real time ([`WallClock`]).
    pub fn start(self) -> RealtimeHandle {
        self.start_with_clock(Box::new(WallClock::start()))
    }

    /// Starts the server thread against an injected clock. With a
    /// deterministic clock and [`IngressMode::Replay`] the run replays a
    /// trace bit-identically to the lockstep engine.
    pub fn start_with_clock(self, clock: Box<dyn TickClock + Send>) -> RealtimeHandle {
        let core = TickCore::new(self.lanes, self.router, self.opts);
        let (tx, rx) = std::sync::mpsc::sync_channel(self.rt.ingress_capacity.max(1));
        let egress: Arc<Egress> = Arc::default();
        let thread_egress = Arc::clone(&egress);
        let mode = self.rt.mode;
        #[expect(clippy::disallowed_methods, reason = "sanctioned spawn: tick thread")]
        let join = std::thread::Builder::new()
            .name("nosw-serve-tick".into())
            .spawn(move || serve_thread(core, clock, rx, &thread_egress, mode))
            .expect("spawn serve tick thread");
        RealtimeHandle {
            ingress: IngressSender { tx },
            egress,
            join,
            taken: 0,
        }
    }
}

/// Per-thread driver state shared by the command-application sites.
struct Ingress {
    source: BufferedQuerySource,
    shutdown: bool,
    /// Submits accepted into `source` (used by the idle completion check
    /// only indirectly — the source itself tracks exhaustion).
    accepted: u64,
}

impl Ingress {
    fn apply(&mut self, cmd: Command, core: &mut TickCore, clock: &mut dyn TickClock, wall: bool) {
        let now = clock.now_ns();
        match cmd {
            Command::Submit(mut q) => {
                if self.source.is_closed() || self.shutdown {
                    // Drained or shutting down: reject with backpressure
                    // semantics so the submit still gets its one outcome.
                    core.shed_rejected(q, now, &mut Trace::off());
                    return;
                }
                if wall {
                    q.arrival_ns = now;
                }
                self.accepted += 1;
                self.source.push(q);
            }
            Command::Cancel(id) => {
                if !core.cancel(id, now, &mut Trace::off()) {
                    if let Some(q) = self.source.remove(id) {
                        core.cancel_unstarted(q, now, &mut Trace::off());
                    }
                }
            }
            Command::Drain => self.source.close(),
            Command::Shutdown => {
                self.shutdown = true;
                self.source.close();
            }
        }
    }
}

/// The autonomous tick loop (see module docs for the protocol).
fn serve_thread(
    mut core: TickCore,
    mut clock: Box<dyn TickClock + Send>,
    rx: Receiver<Command>,
    egress: &Egress,
    mode: IngressMode,
) -> Result<TickReport, ServeError> {
    let wall = mode == IngressMode::Wall;
    let mut ing = Ingress {
        source: BufferedQuerySource::new(),
        shutdown: false,
        accepted: 0,
    };
    loop {
        // (a) Drain every immediately available command.
        loop {
            match rx.try_recv() {
                Ok(cmd) => ing.apply(cmd, &mut core, clock.as_mut(), wall),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    // Every handle is gone: nothing more can arrive.
                    ing.source.close();
                    break;
                }
            }
        }

        if ing.shutdown {
            // Abort: parked walkers retire (conservation preserved),
            // in-flight queries finalize as degraded partials, queued
            // ones shed — then keep shedding late submits until every
            // sender is gone, so no accepted submit ever loses its
            // outcome.
            let now = clock.now_ns();
            core.abort(now, &mut Trace::off());
            while let Some(q) = ing.source.next_ready(u64::MAX, u64::MAX) {
                core.shed_rejected(q, now, &mut Trace::off());
            }
            while let Ok(cmd) = rx.recv() {
                if let Command::Submit(q) = cmd {
                    let now = clock.now_ns();
                    core.shed_rejected(q, now, &mut Trace::off());
                }
            }
            break;
        }

        // (b) Replay mode gates the first tick until the trace is fully
        // submitted (`Drain`), so the state machine sees exactly what a
        // lockstep run would.
        if mode == IngressMode::Replay && !ing.source.is_closed() {
            match rx.recv() {
                Ok(cmd) => {
                    ing.apply(cmd, &mut core, clock.as_mut(), wall);
                    continue;
                }
                Err(_) => {
                    ing.source.close();
                    continue;
                }
            }
        }

        // (c) One tick of the shared state machine.
        match core.tick(clock.as_mut(), &mut ing.source, &mut Trace::off())? {
            Tick::Ran => publish(egress, &core, clock.as_mut()),
            Tick::Exhausted => break,
            Tick::Idle { next_arrival_ns } => {
                publish(egress, &core, clock.as_mut());
                if ing.source.is_exhausted() && next_arrival_ns.is_none() {
                    break; // drained and fully served
                }
                match next_arrival_ns {
                    Some(t) => {
                        if !clock.advance_idle(t) {
                            // Wall clock: actually wait, but wake early
                            // for any command.
                            let now = clock.now_ns();
                            let wait = Duration::from_nanos(t.saturating_sub(now).max(1));
                            match rx.recv_timeout(wait) {
                                Ok(cmd) => ing.apply(cmd, &mut core, clock.as_mut(), wall),
                                Err(RecvTimeoutError::Timeout) => {}
                                Err(RecvTimeoutError::Disconnected) => ing.source.close(),
                            }
                        }
                    }
                    None => {
                        // Nothing scheduled: block until the next command
                        // (or until every handle is gone).
                        match rx.recv() {
                            Ok(cmd) => ing.apply(cmd, &mut core, clock.as_mut(), wall),
                            Err(_) => ing.source.close(),
                        }
                    }
                }
            }
        }
    }
    publish(egress, &core, clock.as_mut());
    let end_ns = clock.now_ns();
    Ok(core.finish(end_ns))
}

fn publish(egress: &Egress, core: &TickCore, clock: &mut dyn TickClock) {
    let snap = Arc::new(ServeSnapshot {
        rounds: core.rounds(),
        active: core.active_len(),
        pending: core.pending_len(),
        outcomes: core.outcomes().to_vec(),
        now_ns: clock.now_ns(),
    });
    // The guard is a temporary of this statement, so it is released
    // before `_stale` (the old snapshot) drops at the end of the scope.
    let _stale = std::mem::replace(&mut *egress.lock().expect("egress slot poisoned"), snap);
}

/// The caller's side of a running realtime server: submit/cancel/drain/
/// shutdown commands in, streamed snapshots and outcomes out.
#[derive(Debug)]
pub struct RealtimeHandle {
    ingress: IngressSender,
    egress: Arc<Egress>,
    join: std::thread::JoinHandle<Result<TickReport, ServeError>>,
    taken: usize,
}

/// A clonable submit/cancel endpoint for worker threads. While any
/// sender (or the handle) is alive, an accepted command is guaranteed to
/// be processed — the server thread drains the channel to disconnection
/// even through shutdown.
#[derive(Debug, Clone)]
pub struct IngressSender {
    tx: SyncSender<Command>,
}

fn map_try_send(r: Result<(), TrySendError<Command>>) -> Result<(), IngressError> {
    r.map_err(|e| match e {
        TrySendError::Full(_) => IngressError::Backpressure,
        TrySendError::Disconnected(_) => IngressError::Closed,
    })
}

impl IngressSender {
    /// Submits a query; fails fast with backpressure when the bounded
    /// ingress is full.
    pub fn submit(&self, q: QuerySpec) -> Result<(), IngressError> {
        map_try_send(self.tx.try_send(Command::Submit(q)))
    }

    /// Submits a query, blocking while the bounded ingress is full.
    pub fn submit_blocking(&self, q: QuerySpec) -> Result<(), IngressError> {
        self.send(Command::Submit(q))
    }

    /// Requests cancellation of a query wherever it currently is
    /// (ingress, admission queue, or active set).
    pub fn cancel(&self, id: QueryId) -> Result<(), IngressError> {
        self.send(Command::Cancel(id))
    }

    /// Sends `cmd`, blocking while the bounded ingress is full.
    fn send(&self, cmd: Command) -> Result<(), IngressError> {
        self.tx.send(cmd).map_err(|_| IngressError::Closed)
    }
}

impl RealtimeHandle {
    /// A clonable submit/cancel endpoint for worker threads.
    pub fn sender(&self) -> IngressSender {
        self.ingress.clone()
    }

    /// See [`IngressSender::submit`].
    pub fn submit(&self, q: QuerySpec) -> Result<(), IngressError> {
        self.ingress.submit(q)
    }

    /// See [`IngressSender::submit_blocking`].
    pub fn submit_blocking(&self, q: QuerySpec) -> Result<(), IngressError> {
        self.ingress.submit_blocking(q)
    }

    /// See [`IngressSender::cancel`].
    pub fn cancel(&self, id: QueryId) -> Result<(), IngressError> {
        self.ingress.cancel(id)
    }

    /// Closes the ingress: the server finishes everything queued, then
    /// stops. Join with [`join`](Self::join) afterwards.
    pub fn drain(&self) -> Result<(), IngressError> {
        self.ingress.send(Command::Drain)
    }

    /// Requests an abort: in-flight queries finalize as degraded
    /// partials, queued ones shed; every accepted submit still gets an
    /// outcome.
    pub fn shutdown(&self) -> Result<(), IngressError> {
        self.ingress.send(Command::Shutdown)
    }

    /// The latest published snapshot (never blocks the tick thread for
    /// more than an `Arc` clone).
    pub fn snapshot(&self) -> Arc<ServeSnapshot> {
        read(&self.egress)
    }

    /// Outcomes newly published since the last call — the streamed
    /// partial-results view.
    pub fn take_outcomes(&mut self) -> Vec<QueryOutcome> {
        let snap = read(&self.egress);
        let fresh = snap.outcomes.get(self.taken..).unwrap_or_default().to_vec();
        self.taken = snap.outcomes.len();
        fresh
    }

    /// Closes the ingress and waits for the server to finish serving
    /// everything queued.
    pub fn drain_and_join(self) -> Result<TickReport, ServeError> {
        let _ = self.drain();
        self.join()
    }

    /// Aborts and waits for the server thread.
    pub fn shutdown_and_join(self) -> Result<TickReport, ServeError> {
        let _ = self.shutdown();
        self.join()
    }

    /// Waits for the server thread and returns its final report. The
    /// thread ends after a `Drain` has been fully served, on `Shutdown`
    /// (once every [`IngressSender`] clone is dropped), or when the
    /// round backstop trips. Dropping this handle's sender is part of
    /// `join`, so callers keeping [`IngressSender`] clones alive must
    /// drop them for a shutdown join to complete.
    pub fn join(self) -> Result<TickReport, ServeError> {
        let RealtimeHandle { ingress, join, .. } = self;
        drop(ingress);
        join.join().expect("serve tick thread panicked")
    }
}
