//! The deterministic pipeline clock shared by all engines.
//!
//! Engines interleave compute (walker steps, sampling) with device I/O. The
//! clock models a single I/O pipeline: operations are serviced in issue
//! order, each taking the service time the device reported; compute advances
//! `now` directly. An engine that overlaps I/O with compute (NosWalker's
//! background loader, §3.1) issues a load and keeps computing until it
//! *needs* the data — [`PipelineClock::stall_until`] accounts any wait. An
//! engine with synchronous buffered I/O (GraphChi-derived baselines, whose
//! disk utilization the paper measures at 20–30 %) stalls immediately after
//! every issue. Engines drive the clock through their
//! [`Ledger`](crate::Ledger), which books each wait as it happens.

/// Simulated-time bookkeeping for one engine run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineClock {
    now_ns: u64,
    io_free_ns: u64,
    stall_ns: u64,
    compute_ns: u64,
    io_busy_ns: u64,
}

impl PipelineClock {
    /// A clock at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current simulated time in nanoseconds.
    pub fn now(&self) -> u64 {
        self.now_ns
    }

    /// Total time spent stalled waiting for I/O.
    pub fn stall_ns(&self) -> u64 {
        self.stall_ns
    }

    /// Total compute time charged.
    pub fn compute_ns(&self) -> u64 {
        self.compute_ns
    }

    /// Total device service time issued.
    pub fn io_busy_ns(&self) -> u64 {
        self.io_busy_ns
    }

    /// Fraction of elapsed time the device was busy (I/O utilization, the
    /// quantity behind the paper's Fig. 4 discussion). 0 if no time passed.
    pub fn io_utilization(&self) -> f64 {
        if self.now_ns == 0 {
            0.0
        } else {
            self.io_busy_ns as f64 / self.now_ns as f64
        }
    }

    /// Charges `ns` of compute, advancing `now`.
    pub fn advance_compute(&mut self, ns: u64) {
        self.now_ns += ns;
        self.compute_ns += ns;
    }

    /// Issues an asynchronous I/O of `service_ns`; returns its completion
    /// time. The operation queues behind any in-flight I/O.
    pub fn issue_io(&mut self, service_ns: u64) -> u64 {
        self.issue_io_at(self.now_ns, service_ns)
    }

    /// Like [`PipelineClock::issue_io`], for an I/O that was handed to the
    /// device at `issued_ns` rather than now (the parallel runner learns a
    /// load's service time only when the loader thread delivers it, after
    /// `now` has moved on). Operations must be reported in issue order.
    pub fn issue_io_at(&mut self, issued_ns: u64, service_ns: u64) -> u64 {
        let start = self.io_free_ns.max(issued_ns);
        self.io_free_ns = start + service_ns;
        self.io_busy_ns += service_ns;
        self.io_free_ns
    }

    /// Blocks until `t`: advances `now` and accounts the gap as stall time.
    /// No-op if `t` has already passed.
    pub fn stall_until(&mut self, t: u64) {
        if t > self.now_ns {
            self.stall_ns += t - self.now_ns;
            self.now_ns = t;
        }
    }
}

/// Host wall-clock measurement for run epilogues (`RunMetrics::wall_ns`)
/// and the real-thread runner's trace timestamps.
///
/// This is the single sanctioned gateway to `std::time::Instant` in
/// engine code: `crates/clippy.toml` bans `Instant::now` everywhere else
/// outside the bench/CLI crates, so simulated results can never silently
/// depend on host time.
#[derive(Debug, Clone, Copy)]
pub struct WallTimer {
    started: std::time::Instant,
}

impl WallTimer {
    /// Starts the timer.
    #[expect(clippy::disallowed_methods, reason = "the one wall-clock gateway")]
    pub fn start() -> Self {
        WallTimer {
            started: std::time::Instant::now(),
        }
    }

    /// Nanoseconds elapsed since [`WallTimer::start`].
    pub fn elapsed_ns(&self) -> u64 {
        self.started.elapsed().as_nanos() as u64
    }
}

/// A deterministic model of *service* time for the online serving layer.
///
/// The serving engine multiplexes queries over simulated rounds; between
/// rounds it advances this clock by the round's modeled duration
/// (`RunMetrics::sim_ns`) and while idle it jumps to the next query
/// arrival. Every latency, deadline, and retry-after figure in
/// `noswalker-serve` is derived from this clock, never from the host —
/// which is what makes a `noswalker serve --script` replay bit-for-bit
/// repeatable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ModelClock {
    now_ns: u64,
}

impl ModelClock {
    /// A clock at t = 0.
    pub fn new() -> Self {
        ModelClock::default()
    }

    /// Current modeled nanoseconds since the clock started.
    pub fn now_ns(&self) -> u64 {
        self.now_ns
    }

    /// Advances the clock by `ns` (e.g. one serving round's `sim_ns`).
    pub fn advance(&mut self, ns: u64) {
        self.now_ns = self.now_ns.saturating_add(ns);
    }

    /// Jumps forward to absolute time `t_ns`; earlier times are ignored
    /// (the clock is monotone).
    pub fn advance_to(&mut self, t_ns: u64) {
        self.now_ns = self.now_ns.max(t_ns);
    }
}

/// The clock a round-based serving driver runs on — the seam that lets
/// the same per-round state machine (`TickCore` in `noswalker-serve`)
/// execute in *lockstep* mode (deterministic [`ModelClock`], bit-identical
/// replays) or *realtime* mode (a wall clock confined to the realtime
/// driver module).
///
/// The contract mirrors how the lockstep loops already use `ModelClock`:
/// the driver reads [`now_ns`](TickClock::now_ns) at the top of each tick,
/// charges the round's deterministic modeled duration with
/// [`advance_round`](TickClock::advance_round) after the kernels run, and
/// calls [`advance_idle`](TickClock::advance_idle) when nothing is
/// runnable before a known future arrival. A wall clock ignores both
/// advances — real time passes on its own — and signals via
/// `advance_idle`'s return value that the driver must actually wait.
pub trait TickClock {
    /// Current time in nanoseconds on this clock's base (modeled ns for
    /// deterministic clocks, host ns since start for wall clocks).
    fn now_ns(&mut self) -> u64;

    /// Charges one completed round's deterministic modeled duration.
    /// Deterministic clocks advance by exactly `advance_ns`; wall clocks
    /// ignore it (the round's real duration already elapsed).
    fn advance_round(&mut self, advance_ns: u64);

    /// Nothing is runnable before absolute time `t_ns`. Deterministic
    /// clocks jump forward (at least one tick past `now`, matching the
    /// lockstep loops' idle jump) and return `true`; wall clocks return
    /// `false` — the driver owns the real waiting.
    fn advance_idle(&mut self, t_ns: u64) -> bool;
}

impl TickClock for ModelClock {
    fn now_ns(&mut self) -> u64 {
        ModelClock::now_ns(self)
    }

    fn advance_round(&mut self, advance_ns: u64) {
        self.advance(advance_ns);
    }

    fn advance_idle(&mut self, t_ns: u64) -> bool {
        let target = t_ns.max(ModelClock::now_ns(self) + 1);
        self.advance_to(target);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_clock_is_monotone() {
        let mut c = ModelClock::new();
        c.advance(50);
        c.advance_to(40); // never goes backwards
        assert_eq!(c.now_ns(), 50);
        c.advance_to(120);
        assert_eq!(c.now_ns(), 120);
    }

    #[test]
    fn model_clock_drives_the_tick_clock_seam() {
        let mut c = ModelClock::new();
        let t: &mut dyn TickClock = &mut c;
        assert_eq!(t.now_ns(), 0);
        t.advance_round(500);
        assert_eq!(t.now_ns(), 500);
        // Idle with a future arrival jumps exactly to it.
        assert!(t.advance_idle(2_000));
        assert_eq!(t.now_ns(), 2_000);
        // Idle with a stale arrival still makes progress (the lockstep
        // loops' `t.max(now + 1)` jump, so an idle loop can never spin).
        assert!(t.advance_idle(1_000));
        assert_eq!(t.now_ns(), 2_001);
    }

    #[test]
    fn wall_timer_is_monotonic() {
        let t = WallTimer::start();
        let a = t.elapsed_ns();
        let b = t.elapsed_ns();
        assert!(b >= a);
    }

    #[test]
    fn compute_advances_now() {
        let mut c = PipelineClock::new();
        c.advance_compute(100);
        assert_eq!(c.now(), 100);
        assert_eq!(c.compute_ns(), 100);
        assert_eq!(c.stall_ns(), 0);
    }

    #[test]
    fn overlapped_io_hides_behind_compute() {
        let mut c = PipelineClock::new();
        let done = c.issue_io(500);
        assert_eq!(done, 500);
        c.advance_compute(800); // compute covers the whole I/O
        c.stall_until(done);
        assert_eq!(c.stall_ns(), 0);
        assert_eq!(c.now(), 800);
    }

    #[test]
    fn stall_accounts_waiting() {
        let mut c = PipelineClock::new();
        let done = c.issue_io(500);
        c.advance_compute(100);
        c.stall_until(done);
        assert_eq!(c.now(), 500);
        assert_eq!(c.stall_ns(), 400);
    }

    #[test]
    fn io_queues_behind_inflight_io() {
        let mut c = PipelineClock::new();
        let first = c.issue_io(300);
        let second = c.issue_io(200);
        assert_eq!(first, 300);
        assert_eq!(second, 500);
        assert_eq!(c.io_busy_ns(), 500);
    }

    #[test]
    fn issue_io_at_queues_from_the_issue_time() {
        let mut c = PipelineClock::new();
        c.advance_compute(1_000);
        // Device idle, issued in the past: service starts at the issue
        // time, not at `now`.
        assert_eq!(c.issue_io_at(200, 300), 500);
        // Issued before the device frees up: queues behind the first.
        assert_eq!(c.issue_io_at(400, 100), 600);
        // Issued exactly when the device frees up: starts immediately.
        assert_eq!(c.issue_io_at(600, 50), 650);
        // Issued after the device went idle: the gap is not service time.
        assert_eq!(c.issue_io_at(900, 10), 910);
        assert_eq!(c.io_busy_ns(), 460);
        // Issuing never moves `now`; waiting for a finished I/O is free.
        c.stall_until(910);
        assert_eq!((c.now(), c.stall_ns()), (1_000, 0));
        // `issue_io` is `issue_io_at(now)`.
        let mut d = c;
        assert_eq!(c.issue_io(70), d.issue_io_at(1_000, 70));
        assert_eq!(c, d);
    }

    #[test]
    fn utilization_is_busy_over_elapsed() {
        let mut c = PipelineClock::new();
        let done = c.issue_io(100);
        c.stall_until(done);
        c.advance_compute(100);
        assert!((c.io_utilization() - 0.5).abs() < 1e-9);
    }
}
