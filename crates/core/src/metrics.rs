//! Run metrics shared by every engine.
//!
//! All mutation goes through the tracked helpers on [`RunMetrics`]:
//! `tests/source_invariants.rs` (rule L1) fails on a direct field write
//! outside this module, so the audit conservation laws cannot be bypassed
//! by an engine quietly bumping a counter. In particular
//! [`RunMetrics::record_step`] couples
//! `steps` to exactly one of the three attribution counters, making the
//! step-attribution law structurally true at every call site. The
//! real-thread runner's workers each accumulate into a private
//! `RunMetrics` per job and the coordinator [`RunMetrics::merge`]s them,
//! so there is one counter set and no shared cache line on the step path.

use crate::clock::{PipelineClock, WallTimer};

/// Where a walker step got its edge data from — the paper's three serving
/// tiers (§3.3): the resident block buffer, a reserved pre-sample, or a
/// raw retained low-degree edge list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepSource {
    /// Served from a loaded (coarse or fine) block buffer.
    Block,
    /// Served from a reserved pre-sampled slot.
    PreSample,
    /// Served from raw retained low-degree edges.
    Raw,
}

/// Everything a run reports: the raw material for every figure in the
/// paper's evaluation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunMetrics {
    /// End-to-end simulated time in nanoseconds (compute + exposed I/O
    /// stalls under the engine's pipeline model).
    pub sim_ns: u64,
    /// Wall-clock time the simulation itself took (host seconds, for
    /// curiosity only — never an input to any modeled figure). The
    /// serving layer zeroes it (via [`RunMetrics::set_wall_ns`]) so
    /// replays stay bit-identical.
    pub wall_ns: u64,
    /// Time spent stalled on I/O.
    pub stall_ns: u64,
    /// Total device service time consumed.
    pub io_busy_ns: u64,
    /// Total walker steps moved.
    pub steps: u64,
    /// Steps taken directly on a loaded block buffer (§3.3.5).
    pub steps_on_block: u64,
    /// Steps taken from reserved pre-samples after the block was evicted.
    pub steps_on_presample: u64,
    /// Steps taken on raw retained low-degree edges (§3.3.4).
    pub steps_on_raw: u64,
    /// Bytes of edge data read from the device.
    pub edge_bytes_loaded: u64,
    /// Edge records loaded (bytes / record size).
    pub edges_loaded: u64,
    /// Device read operations issued for edge data.
    pub io_ops: u64,
    /// Bytes of walker-state swap traffic (engines without in-memory
    /// walker management, §2.4.2).
    pub swap_bytes: u64,
    /// Coarse block loads performed.
    pub coarse_loads: u64,
    /// Fine-grained load batches performed.
    pub fine_loads: u64,
    /// Walkers that finished.
    pub walkers_finished: u64,
    /// Walkers retired by cancellation (their query was withdrawn — e.g. a
    /// serving deadline fired) rather than by completing their walk. The
    /// walker-completion audit law balances finished + cancelled against
    /// the total, so no cancellation path can silently drop a walker.
    pub walkers_cancelled: u64,
    /// Step count at which the engine switched to fine-grained mode
    /// (`None` = never switched).
    pub fine_mode_at_step: Option<u64>,
    /// Pre-sample slots drawn while refilling buffers.
    pub presamples_filled: u64,
    /// Pre-sampled slots consumed by moves.
    pub presamples_consumed: u64,
    /// Pre-sample buffer generations published to the parallel runner's
    /// lock-free shared pool.
    pub pool_publishes: u64,
    /// Stalled visits, on both engines: attempts that found a *live*
    /// pre-sample generation's sampled slots dry — the quota planner's
    /// actionable miss signal (it sized this vertex's quota too small for
    /// the demand that materialized), and the per-step rate the serving
    /// layer's shedding policy watches. One per attempt, whether the walker
    /// arrived by a step, was just spawned, or was re-tried after a wake;
    /// a walker waiting out several scheduler passes counts once. The
    /// parallel runner's walker falls back to the coordinator, the
    /// sequential engine's waits in its block's bucket.
    pub pool_stalls: u64,
    /// Walker visits that found no published generation at all for their
    /// destination block — warmup before the block's first residency, a
    /// budget-pressure eviction, or a refill skipped for lack of a
    /// worthwhile share. There was no pool to claim from, so these are
    /// not pool attempts; the walker defers to the block's next
    /// residency and is served on-block.
    pub pool_deferrals: u64,
    /// Pool demand in slots: sampled slots claimed from published buffers
    /// plus one per stalled visit. The claim-conservation audit law checks
    /// `pool_attempts <= presamples_consumed + claims_burned + pool_stalls`
    /// — a claimed slot must end up consumed, burned, or stalled.
    pub pool_attempts: u64,
    /// Claimed pre-sampled slots retired without serving a step: batch
    /// leftovers swept when a walker bucket ends (rejected-hop slots are
    /// returned to the batch first, so a rejection alone no longer burns).
    pub claims_burned: u64,
    /// Prefetched coarse blocks that a waiting walker bucket consumed.
    pub prefetch_hits: u64,
    /// Prefetched coarse blocks discarded because no walker needed them by
    /// the time they arrived.
    pub prefetch_wasted: u64,
    /// Walkers that crossed a shard boundary and were drained into a
    /// cross-shard handoff queue (sharded serving only). The handoff
    /// conservation audit law balances emigration against immigration:
    /// `walkers_emigrated == walkers_immigrated + in_flight`, with
    /// `in_flight` reaching zero by the end of every run.
    pub walkers_emigrated: u64,
    /// Walkers re-admitted on their destination shard after a cross-shard
    /// handoff (sharded serving only; see `walkers_emigrated`).
    pub walkers_immigrated: u64,
    /// Second-order candidates accepted.
    pub accepts: u64,
    /// Second-order candidates rejected.
    pub rejects: u64,
    /// Peak memory-budget usage in bytes.
    pub peak_memory: u64,
}

impl RunMetrics {
    // ------------------------------------------------------------------
    // Tracked mutation helpers (the only sanctioned write sites; rule L1)
    // ------------------------------------------------------------------

    /// Records one walker step served from `src`. Couples `steps` to its
    /// attribution counter so the audit's step-attribution law
    /// (`steps == on_block + on_presample + on_raw`) holds by construction.
    pub fn record_step(&mut self, src: StepSource) {
        self.steps += 1;
        match src {
            StepSource::Block => self.steps_on_block += 1,
            StepSource::PreSample => self.steps_on_presample += 1,
            StepSource::Raw => self.steps_on_raw += 1,
        }
    }

    /// Records a second-order rejection round: an accepted candidate is a
    /// real step (on the resident block), a rejected one only counts
    /// toward the accept/reject ratio.
    pub fn record_second_order(&mut self, accepted: bool) {
        if accepted {
            self.accepts += 1;
            self.record_step(StepSource::Block);
        } else {
            self.rejects += 1;
        }
    }

    /// Records one walker reaching its end state.
    pub fn record_walker_finished(&mut self) {
        self.walkers_finished += 1;
    }

    /// Records one walker retired by cancellation (its query was withdrawn
    /// before the walk completed). Every cancellation path must tick this
    /// counter — the walker-completion audit law checks
    /// `finished + cancelled == total`.
    pub fn record_walker_cancelled(&mut self) {
        self.walkers_cancelled += 1;
    }

    /// Records one coarse block load of `bytes` from the device (one
    /// device read operation).
    pub fn record_coarse_load(&mut self, bytes: u64) {
        self.coarse_loads += 1;
        self.io_ops += 1;
        self.edge_bytes_loaded += bytes;
    }

    /// Records one fine-grained load batch of `runs` contiguous page runs
    /// (each a device read operation) moving `bytes`.
    pub fn record_fine_load(&mut self, runs: u64, bytes: u64) {
        self.fine_loads += 1;
        self.io_ops += runs;
        self.edge_bytes_loaded += bytes;
    }

    /// Records walker-state swap traffic (`ops` extra device operations;
    /// engines that fold the swap into an existing operation pass 0).
    pub fn record_swap(&mut self, bytes: u64, ops: u64) {
        self.swap_bytes += bytes;
        self.io_ops += ops;
    }

    /// Records `draws` pre-sample slots drawn during a buffer refill.
    pub fn record_presamples_filled(&mut self, draws: u64) {
        self.presamples_filled += draws;
    }

    /// Records one reserved pre-sampled slot consumed by a move.
    pub fn record_presample_consumed(&mut self) {
        self.presamples_consumed += 1;
    }

    /// Records one buffer generation published to the shared pool, built
    /// with `draws` sample draws.
    pub fn record_pool_publish(&mut self, draws: u64) {
        self.pool_publishes += 1;
        self.presamples_filled += draws;
    }

    /// Records a stalled visit: an attempt against a live pre-sample
    /// generation that found its slots depleted. A stall is also one pool
    /// attempt, keeping the claim-conservation law structurally balanced.
    pub fn record_pool_stall(&mut self) {
        self.pool_stalls += 1;
        self.pool_attempts += 1;
    }

    /// Records `n` walker visits that found no published generation at
    /// all for their block: not pool attempts (there was nothing to
    /// claim from) — the walkers defer to the block's next residency.
    pub fn record_pool_deferrals(&mut self, n: u64) {
        self.pool_deferrals += n;
    }

    /// Records `n` sampled slots claimed from a published buffer (batched
    /// claims pass the batch length).
    pub fn record_pool_attempts(&mut self, n: u64) {
        self.pool_attempts += n;
    }

    /// Records `n` claimed slots retired unserved when a walker bucket
    /// ends (batch leftovers).
    pub fn record_claims_burned(&mut self, n: u64) {
        self.claims_burned += n;
    }

    /// Records a prefetched block that a waiting walker bucket consumed.
    pub fn record_prefetch_hit(&mut self) {
        self.prefetch_hits += 1;
    }

    /// Records a prefetched block that arrived after its bucket drained
    /// (or the run ended) and was discarded unconsumed.
    pub fn record_prefetch_wasted(&mut self) {
        self.prefetch_wasted += 1;
    }

    /// Records `n` walkers drained into cross-shard handoff queues after
    /// hopping over a partition boundary. Every emigration path must tick
    /// this counter — the handoff-conservation audit law balances it
    /// against `walkers_immigrated`.
    pub fn record_walkers_emigrated(&mut self, n: u64) {
        self.walkers_emigrated += n;
    }

    /// Records `n` walkers re-admitted on their destination shard after a
    /// cross-shard handoff (the receiving half of the handoff-conservation
    /// audit law).
    pub fn record_walkers_immigrated(&mut self, n: u64) {
        self.walkers_immigrated += n;
    }

    /// Marks the switch to fine-grained I/O at the current step count
    /// (§3.3.1); the first call wins.
    pub fn mark_fine_mode_switch(&mut self) {
        if self.fine_mode_at_step.is_none() {
            self.fine_mode_at_step = Some(self.steps);
        }
    }

    /// Records the edge records loaded (the run ledger derives them from
    /// the bytes read; in-memory engines count their one ingest scan).
    pub fn set_edges_loaded(&mut self, n: u64) {
        self.edges_loaded = n;
    }

    /// Records the peak memory-budget usage.
    pub fn set_peak_memory(&mut self, bytes: u64) {
        self.peak_memory = bytes;
    }

    /// Copies the simulated-time totals out of the pipeline clock.
    pub fn finalize_clock(&mut self, clock: &PipelineClock) {
        self.sim_ns = clock.now();
        self.stall_ns = clock.stall_ns();
        self.io_busy_ns = clock.io_busy_ns();
    }

    /// Records the host wall-clock time of the run.
    pub fn finalize_wall(&mut self, timer: &WallTimer) {
        self.wall_ns = timer.elapsed_ns();
    }

    /// Sets `wall_ns` directly (the bench/CLI boundary re-stamping a
    /// replay's measured time).
    pub fn set_wall_ns(&mut self, ns: u64) {
        self.wall_ns = ns;
    }

    /// Folds another run's metrics into this one (multi-query experiments
    /// that report summed totals). Additive counters and times sum;
    /// `peak_memory` takes the maximum; `fine_mode_at_step` keeps the
    /// first recorded switch.
    pub fn merge(&mut self, other: &RunMetrics) {
        self.sim_ns += other.sim_ns;
        self.wall_ns += other.wall_ns;
        self.stall_ns += other.stall_ns;
        self.io_busy_ns += other.io_busy_ns;
        self.steps += other.steps;
        self.steps_on_block += other.steps_on_block;
        self.steps_on_presample += other.steps_on_presample;
        self.steps_on_raw += other.steps_on_raw;
        self.edge_bytes_loaded += other.edge_bytes_loaded;
        self.edges_loaded += other.edges_loaded;
        self.io_ops += other.io_ops;
        self.swap_bytes += other.swap_bytes;
        self.coarse_loads += other.coarse_loads;
        self.fine_loads += other.fine_loads;
        self.walkers_finished += other.walkers_finished;
        self.walkers_cancelled += other.walkers_cancelled;
        if self.fine_mode_at_step.is_none() {
            self.fine_mode_at_step = other.fine_mode_at_step;
        }
        self.presamples_filled += other.presamples_filled;
        self.presamples_consumed += other.presamples_consumed;
        self.pool_publishes += other.pool_publishes;
        self.pool_stalls += other.pool_stalls;
        self.pool_deferrals += other.pool_deferrals;
        self.pool_attempts += other.pool_attempts;
        self.claims_burned += other.claims_burned;
        self.prefetch_hits += other.prefetch_hits;
        self.prefetch_wasted += other.prefetch_wasted;
        self.walkers_emigrated += other.walkers_emigrated;
        self.walkers_immigrated += other.walkers_immigrated;
        self.accepts += other.accepts;
        self.rejects += other.rejects;
        self.peak_memory = self.peak_memory.max(other.peak_memory);
    }

    // ------------------------------------------------------------------
    // Derived metrics
    // ------------------------------------------------------------------

    /// Average edge records loaded per step — the paper's Fig. 2(a) metric.
    pub fn edges_per_step(&self) -> f64 {
        if self.steps == 0 {
            0.0
        } else {
            self.edges_loaded as f64 / self.steps as f64
        }
    }

    /// Steps per simulated second — the paper's Fig. 2(b) metric.
    pub fn steps_per_sec(&self) -> f64 {
        if self.sim_ns == 0 {
            0.0
        } else {
            self.steps as f64 * 1e9 / self.sim_ns as f64
        }
    }

    /// Simulated seconds.
    pub fn sim_secs(&self) -> f64 {
        self.sim_ns as f64 / 1e9
    }

    /// Total device bytes moved (edges + swap).
    pub fn total_io_bytes(&self) -> u64 {
        self.edge_bytes_loaded + self.swap_bytes
    }

    /// Fraction of elapsed time spent with the device busy.
    pub fn io_utilization(&self) -> f64 {
        if self.sim_ns == 0 {
            0.0
        } else {
            (self.io_busy_ns as f64 / self.sim_ns as f64).min(1.0)
        }
    }

    // ------------------------------------------------------------------
    // Snapshot writer (the single field enumeration every report uses)
    // ------------------------------------------------------------------

    /// Every counter as `(name, JSON scalar)` in declaration order — the
    /// one place that enumerates the fields. The CLI report renders from
    /// this list, so a new counter shows up there without a hand-rolled
    /// copy to drift.
    pub fn snapshot_fields(&self) -> Vec<(&'static str, String)> {
        // Unset optionals render as 0, not `null`: every engine then emits
        // the same scalar shape and downstream tooling needs no
        // per-backend special case (0 is unambiguous — a real fine-mode
        // switch at step 0 would mean "before any step", which no engine
        // produces).
        let opt = |v: Option<u64>| v.unwrap_or(0).to_string();
        vec![
            ("sim_ns", self.sim_ns.to_string()),
            ("wall_ns", self.wall_ns.to_string()),
            ("stall_ns", self.stall_ns.to_string()),
            ("io_busy_ns", self.io_busy_ns.to_string()),
            ("steps", self.steps.to_string()),
            ("steps_on_block", self.steps_on_block.to_string()),
            ("steps_on_presample", self.steps_on_presample.to_string()),
            ("steps_on_raw", self.steps_on_raw.to_string()),
            ("edge_bytes_loaded", self.edge_bytes_loaded.to_string()),
            ("edges_loaded", self.edges_loaded.to_string()),
            ("io_ops", self.io_ops.to_string()),
            ("swap_bytes", self.swap_bytes.to_string()),
            ("coarse_loads", self.coarse_loads.to_string()),
            ("fine_loads", self.fine_loads.to_string()),
            ("walkers_finished", self.walkers_finished.to_string()),
            ("walkers_cancelled", self.walkers_cancelled.to_string()),
            ("fine_mode_at_step", opt(self.fine_mode_at_step)),
            ("presamples_filled", self.presamples_filled.to_string()),
            ("presamples_consumed", self.presamples_consumed.to_string()),
            ("pool_publishes", self.pool_publishes.to_string()),
            ("pool_stalls", self.pool_stalls.to_string()),
            ("pool_deferrals", self.pool_deferrals.to_string()),
            ("pool_attempts", self.pool_attempts.to_string()),
            ("claims_burned", self.claims_burned.to_string()),
            ("prefetch_hits", self.prefetch_hits.to_string()),
            ("prefetch_wasted", self.prefetch_wasted.to_string()),
            ("walkers_emigrated", self.walkers_emigrated.to_string()),
            ("walkers_immigrated", self.walkers_immigrated.to_string()),
            ("accepts", self.accepts.to_string()),
            ("rejects", self.rejects.to_string()),
            ("peak_memory", self.peak_memory.to_string()),
        ]
    }
}

// ----------------------------------------------------------------------
// Latency histogram (serving observability)
// ----------------------------------------------------------------------

/// Sub-buckets per power-of-two octave: bounds the relative quantile
/// error to `1/SUB_BUCKETS` while keeping the whole `u64` range in under
/// a thousand buckets.
const SUB_BUCKETS: u64 = 16;
const SUB_SHIFT: u32 = SUB_BUCKETS.trailing_zeros();

/// A log-bucketed latency histogram (log-linear, HdrHistogram-style).
///
/// Values below [`SUB_BUCKETS`] get exact unit-width buckets; above, each
/// power-of-two octave is split into [`SUB_BUCKETS`] linear sub-buckets,
/// so recorded values land within `1/16` of their true magnitude. Merge
/// is element-wise addition, which makes it associative and commutative —
/// per-worker or per-round histograms fold into totals in any order.
///
/// The serving layer keeps one per query class and reports
/// p50/p90/p99 from [`LatencyHistogram::quantile`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram::default()
    }

    /// The bucket index covering `v` (log-linear: exact below
    /// [`SUB_BUCKETS`], `1/SUB_BUCKETS` relative width above).
    pub fn bucket_of(v: u64) -> usize {
        if v < SUB_BUCKETS {
            return v as usize;
        }
        let octave = 63 - v.leading_zeros();
        let shift = octave - SUB_SHIFT;
        let sub = (v >> shift) - SUB_BUCKETS;
        ((u64::from(shift) + 1) * SUB_BUCKETS + sub) as usize
    }

    /// The smallest value that lands in bucket `i` (inclusive lower
    /// bound; bucket `i` covers `[lower(i), lower(i + 1))`).
    pub fn bucket_lower(i: usize) -> u64 {
        let i = i as u64;
        if i < 2 * SUB_BUCKETS {
            return i;
        }
        let block = i / SUB_BUCKETS - 1;
        let pos = i % SUB_BUCKETS;
        (SUB_BUCKETS + pos) << block
    }

    /// Records one value.
    pub fn record(&mut self, v: u64) {
        let i = Self::bucket_of(v);
        if self.counts.len() <= i {
            self.counts.resize(i + 1, 0);
        }
        self.counts[i] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The largest recorded value (exact, not bucketed).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of the recorded values (exact, from the running sum).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (`0.0..=1.0`) with linear interpolation inside
    /// the covering bucket. Returns 0 on an empty histogram; `q = 1.0`
    /// returns the exact recorded maximum.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if q >= 1.0 {
            return self.max;
        }
        let rank = ((q.max(0.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.counts.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= rank {
                let lo = Self::bucket_lower(i);
                let width = Self::bucket_lower(i + 1) - lo;
                // Midpoint-of-rank interpolation: the k-th of n values in
                // a bucket sits at fraction (k - 0.5) / n of its width.
                let frac = (rank - seen) as f64 - 0.5;
                let est = lo as f64 + width as f64 * (frac / n as f64);
                return (est as u64).min(self.max);
            }
            seen += n;
        }
        self.max
    }

    /// Folds `other` into `self` (element-wise; associative and
    /// commutative).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_attribution_is_conserved_by_construction() {
        let mut m = RunMetrics::default();
        m.record_step(StepSource::Block);
        m.record_step(StepSource::PreSample);
        m.record_step(StepSource::Raw);
        m.record_second_order(true);
        m.record_second_order(false);
        assert_eq!(m.steps, 4);
        assert_eq!(
            m.steps,
            m.steps_on_block + m.steps_on_presample + m.steps_on_raw
        );
        assert_eq!((m.accepts, m.rejects), (1, 1));
    }

    #[test]
    fn load_helpers_couple_ops_to_bytes() {
        let mut m = RunMetrics::default();
        m.record_coarse_load(4096);
        m.record_fine_load(3, 1024);
        m.record_swap(512, 1);
        assert_eq!(m.coarse_loads, 1);
        assert_eq!(m.fine_loads, 1);
        assert_eq!(m.io_ops, 1 + 3 + 1);
        assert_eq!(m.edge_bytes_loaded, 5120);
        assert_eq!(m.swap_bytes, 512);
    }

    #[test]
    fn fine_mode_switch_marks_first_step_only() {
        let mut m = RunMetrics::default();
        m.record_step(StepSource::Block);
        m.mark_fine_mode_switch();
        m.record_step(StepSource::Block);
        m.mark_fine_mode_switch();
        assert_eq!(m.fine_mode_at_step, Some(1));
    }

    #[test]
    fn prefetch_helpers_and_merge_cover_pool_counters() {
        let mut m = RunMetrics::default();
        m.record_prefetch_hit();
        m.record_prefetch_hit();
        m.record_prefetch_wasted();
        let mut other = RunMetrics::default();
        other.record_prefetch_hit();
        other.record_prefetch_wasted();
        other.pool_publishes = 3;
        other.pool_stalls = 5;
        other.pool_attempts = 11;
        other.claims_burned = 4;
        m.merge(&other);
        assert_eq!(m.prefetch_hits, 3);
        assert_eq!(m.prefetch_wasted, 2);
        assert_eq!(m.pool_publishes, 3);
        assert_eq!(m.pool_stalls, 5);
        assert_eq!(m.pool_attempts, 11);
        assert_eq!(m.claims_burned, 4);
        // The pool helpers a worker's per-job metrics accumulate through.
        let mut job = RunMetrics::default();
        job.record_pool_publish(7);
        job.record_pool_stall();
        job.record_pool_attempts(3);
        job.record_pool_deferrals(6);
        job.record_claims_burned(2);
        assert_eq!((job.pool_publishes, job.presamples_filled), (1, 7));
        // The stall ticked one attempt on top of the three explicit ones.
        assert_eq!((job.pool_stalls, job.pool_attempts), (1, 4));
        m.merge(&job);
        assert_eq!(m.pool_publishes, 4);
        assert_eq!(m.presamples_filled, 7);
        assert_eq!(m.pool_stalls, 6);
        assert_eq!(m.pool_attempts, 15);
        assert_eq!(m.pool_deferrals, 6);
        assert_eq!(m.claims_burned, 6);
    }

    #[test]
    fn derived_metrics() {
        let m = RunMetrics {
            sim_ns: 2_000_000_000,
            steps: 1000,
            edges_loaded: 32_000,
            edge_bytes_loaded: 128_000,
            swap_bytes: 64_000,
            io_busy_ns: 1_000_000_000,
            ..Default::default()
        };
        assert_eq!(m.edges_per_step(), 32.0);
        assert_eq!(m.steps_per_sec(), 500.0);
        assert_eq!(m.sim_secs(), 2.0);
        assert_eq!(m.total_io_bytes(), 192_000);
        assert!((m.io_utilization() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn zero_run_is_safe() {
        let m = RunMetrics::default();
        assert_eq!(m.edges_per_step(), 0.0);
        assert_eq!(m.steps_per_sec(), 0.0);
        assert_eq!(m.io_utilization(), 0.0);
    }

    #[test]
    fn cancelled_walkers_are_tracked_and_merged() {
        let mut m = RunMetrics::default();
        m.record_walker_finished();
        m.record_walker_cancelled();
        m.record_walker_cancelled();
        m.record_pool_stall();
        let mut other = RunMetrics::default();
        other.record_walker_cancelled();
        other.record_pool_stall();
        m.merge(&other);
        assert_eq!(m.walkers_finished, 1);
        assert_eq!(m.walkers_cancelled, 3);
        assert_eq!(m.pool_stalls, 2);
    }

    #[test]
    fn handoff_counters_are_tracked_and_merged() {
        let mut m = RunMetrics::default();
        m.record_walkers_emigrated(3);
        m.record_walkers_immigrated(2);
        let mut other = RunMetrics::default();
        other.record_walkers_emigrated(1);
        other.record_walkers_immigrated(2);
        m.merge(&other);
        assert_eq!(m.walkers_emigrated, 4);
        assert_eq!(m.walkers_immigrated, 4);
        let fields = m.snapshot_fields();
        assert!(fields.contains(&("walkers_emigrated", "4".to_string())));
        assert!(fields.contains(&("walkers_immigrated", "4".to_string())));
    }

    #[test]
    fn snapshot_enumerates_every_counter_once() {
        let mut m = RunMetrics::default();
        m.record_walker_cancelled();
        m.mark_fine_mode_switch();
        let fields = m.snapshot_fields();
        let mut names: Vec<&str> = fields.iter().map(|(k, _)| *k).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate snapshot field");
        for key in [
            "sim_ns",
            "steps",
            "walkers_finished",
            "walkers_cancelled",
            "pool_stalls",
            "prefetch_hits",
            "peak_memory",
        ] {
            assert!(names.binary_search(&key).is_ok(), "missing {key}");
        }
        assert!(fields.contains(&("walkers_cancelled", "1".to_string())));
        assert!(fields.contains(&("fine_mode_at_step", "0".to_string())));
        // Unset optionals also render as 0 — every backend emits the same
        // scalar shape (no `null` special case downstream).
        assert!(RunMetrics::default()
            .snapshot_fields()
            .contains(&("fine_mode_at_step", "0".to_string())));
    }

    // ------------------------------------------------------------------
    // Latency histogram
    // ------------------------------------------------------------------

    #[test]
    fn histogram_bucket_boundaries_are_log_linear() {
        // Exact unit buckets below SUB_BUCKETS…
        for v in 0..SUB_BUCKETS {
            assert_eq!(LatencyHistogram::bucket_of(v), v as usize);
            assert_eq!(LatencyHistogram::bucket_lower(v as usize), v);
        }
        // …then each octave splits into SUB_BUCKETS linear sub-buckets.
        assert_eq!(LatencyHistogram::bucket_of(16), 16);
        assert_eq!(LatencyHistogram::bucket_of(31), 31);
        assert_eq!(LatencyHistogram::bucket_of(32), 32);
        assert_eq!(LatencyHistogram::bucket_of(33), 32); // width-2 bucket
        assert_eq!(LatencyHistogram::bucket_of(63), 47);
        assert_eq!(LatencyHistogram::bucket_of(64), 48);
        assert_eq!(LatencyHistogram::bucket_lower(32), 32);
        assert_eq!(LatencyHistogram::bucket_lower(47), 62);
        assert_eq!(LatencyHistogram::bucket_lower(48), 64);
        // Every value lands in the bucket whose range contains it, and
        // bucket widths bound the relative error by 1/SUB_BUCKETS.
        for v in [1u64, 15, 16, 100, 1_000, 123_456, 1 << 40, u64::MAX / 2] {
            let i = LatencyHistogram::bucket_of(v);
            let lo = LatencyHistogram::bucket_lower(i);
            let hi = LatencyHistogram::bucket_lower(i + 1);
            assert!(lo <= v && v < hi, "{v} outside [{lo}, {hi})");
            assert!(
                hi - lo <= (lo / SUB_BUCKETS).max(1),
                "bucket too wide at {v}"
            );
        }
    }

    #[test]
    fn histogram_quantiles_interpolate() {
        let mut h = LatencyHistogram::new();
        assert_eq!(h.quantile(0.5), 0);
        // Small exact values: quantiles are exact.
        for v in 1..=10 {
            h.record(v);
        }
        assert_eq!(h.count(), 10);
        assert_eq!(h.quantile(0.1), 1);
        assert_eq!(h.quantile(0.5), 5);
        assert_eq!(h.quantile(1.0), 10);
        assert_eq!(h.max(), 10);
        assert!((h.mean() - 5.5).abs() < 1e-9);
        // A bucketed value keeps 1/SUB_BUCKETS relative accuracy, and the
        // estimate interpolates inside the bucket instead of snapping to
        // its lower bound.
        let mut big = LatencyHistogram::new();
        big.record(1_000_000);
        let p50 = big.quantile(0.5);
        let err = (p50 as f64 - 1_000_000.0).abs() / 1_000_000.0;
        assert!(err <= 1.0 / SUB_BUCKETS as f64, "p50 {p50} off by {err}");
        let lo = LatencyHistogram::bucket_lower(LatencyHistogram::bucket_of(1_000_000));
        assert!(p50 > lo, "interpolation must land inside the bucket");
    }

    #[test]
    fn histogram_merge_is_associative() {
        let samples: [&[u64]; 3] = [&[1, 5, 900, 70_000], &[2, 2, 2, 1 << 30], &[40, 41, 65_536]];
        let hist = |vals: &[u64]| {
            let mut h = LatencyHistogram::new();
            for &v in vals {
                h.record(v);
            }
            h
        };
        let (a, b, c) = (hist(samples[0]), hist(samples[1]), hist(samples[2]));
        // (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c) == record-all-at-once.
        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        let all: Vec<u64> = samples.iter().flat_map(|s| s.iter().copied()).collect();
        let direct = hist(&all);
        assert_eq!(ab_c, a_bc);
        assert_eq!(ab_c, direct);
        assert_eq!(ab_c.count(), 11);
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(ab_c.quantile(q), direct.quantile(q));
        }
    }
}
