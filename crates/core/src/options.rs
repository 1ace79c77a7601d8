//! Engine configuration, including the ablation knobs of Fig. 14.

use noswalker_storage::MemoryBudget;

/// Configuration for [`crate::NosWalkerEngine`].
///
/// The three `enable_*` knobs reproduce the paper's optimization breakdown
/// (§4.4): the *base implementation* (all off) behaves like GraphWalker but
/// with asynchronous, overlapped I/O; the optimizations are then added one
/// by one — walker management, shrink block size, pre-sample edges.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineOptions {
    /// Upper bound on live walkers held in the pool. The effective pool
    /// opens at [`EngineOptions::walker_pool_quota`]; the sequential engine
    /// then moves budget between it and the pre-sample buffers at every
    /// load ([`adjust_split`], the "Adjust" arrow of the paper's Fig. 6).
    pub walker_pool_size: usize,
    /// Dynamic in-memory walker generation (§2.4.2). When off, all walkers
    /// conceptually exist from the start and moving a block's walkers
    /// charges swap I/O for their states, like GraphWalker's fixed-length
    /// walker buffer.
    pub enable_walker_management: bool,
    /// Adaptive coarse→fine block granularity (§3.3.1): once walkers are
    /// sparse, both the sequential engine and the parallel runner load
    /// 4 KiB page batches instead of whole blocks.
    pub enable_shrink_block: bool,
    /// Pre-sampled edge buffers (§2.4.1, §3.3.2–3.3.5).
    pub enable_presample: bool,
    /// Unevenness factor α in the fine-mode switch condition
    /// `α·|Wa|·4KiB < S_G` both engines share (default 4, §3.3.1).
    pub alpha: u64,
    /// Retain raw edges instead of samples for vertices with degree ≤ this
    /// (§3.3.4; the paper uses 1–4 depending on graph size).
    pub low_degree_threshold: u32,
    /// Hard cap of pre-sample slots per vertex per refill.
    pub presample_cap_per_vertex: u32,
    /// Hub retention: vertices with degree ≥ this get their *whole* edge
    /// list retained raw (with an O(1) alias table on weighted graphs,
    /// ThunderRW-style) when it fits the refill budget, so the hottest
    /// vertices never deplete their slots. `u32::MAX` disables hub
    /// retention.
    pub alias_degree_threshold: u32,
    /// Sampled slots claimed per atomic RMW by
    /// [`crate::presample::PreSampleBuffer::claim_batch`]. No engine reads it: the parallel runner claims one slot per RMW.
    /// Only the benchmark's claim probe (`benchmark/src/probes.rs`) does,
    /// and it goes with that probe (ROADMAP item 7).
    pub claim_batch: u32,
    /// Degree of walker-processing parallelism the compute model assumes.
    pub threads: u64,
    /// Ablation: allocate pre-sample slots uniformly instead of
    /// proportionally to the carried visit counters (§3.3.2). Off by
    /// default (the paper's design).
    pub uniform_presample_alloc: bool,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            walker_pool_size: 1 << 20,
            enable_walker_management: true,
            enable_shrink_block: true,
            enable_presample: true,
            alpha: 4,
            low_degree_threshold: 4,
            presample_cap_per_vertex: 4096,
            alias_degree_threshold: 64,
            claim_batch: 2,
            threads: 16,
            uniform_presample_alloc: false,
        }
    }
}

impl EngineOptions {
    /// Fraction of the *remaining* memory budget (after block buffers)
    /// given to pre-sample buffers.
    pub const PRESAMPLE_BUDGET_FRACTION: f64 = 0.9;

    /// In fine mode, a load whose refill would build a whole-block
    /// pre-sample generation reads the block whole only if the device
    /// prices that read at most this many times the 4 KiB page batch it
    /// replaces; a device without a cost model keeps the batch.
    pub const WHOLE_READ_PRICE_CAP: u64 = 2;

    /// Loads (coarse blocks or fine page batches) the parallel runner's
    /// loader queue keeps in flight beyond the demand load (next-hottest
    /// prefetching).
    pub const PREFETCH_DEPTH: usize = 2;

    /// Simulated compute cost per walker step in nanoseconds (divided by
    /// `threads`).
    pub const STEP_NS: u64 = 120;

    /// Simulated compute cost per pre-sample draw in nanoseconds (divided
    /// by `threads`).
    pub const SAMPLE_NS: u64 = 40;

    /// Per-walker swap record bytes when walker management is off (walker
    /// state as serialized by GraphWalker-style buffers).
    pub const SWAP_RECORD_BYTES: u64 = 24;

    /// Service-time multiplier for the *buffered, synchronous* I/O path of
    /// the GraphChi-derived baselines. The paper measures their disk
    /// utilization at 20–30 % against NosWalker's 70–90 % (§4.4); a 3.5×
    /// de-rate reproduces that measured gap. NosWalker itself never uses
    /// this (its asynchronous pipeline model yields utilization directly).
    pub const BUFFERED_IO_PENALTY: f64 = 3.5;

    /// The paper's "Base Implementation" (Fig. 14): GraphWalker-like
    /// workflow, but with NosWalker's asynchronous overlapped I/O.
    pub fn base() -> Self {
        EngineOptions {
            enable_walker_management: false,
            enable_shrink_block: false,
            enable_presample: false,
            ..Self::default()
        }
    }

    /// Base + in-memory walker management (Fig. 14, second bar).
    pub fn with_walker_management() -> Self {
        EngineOptions {
            enable_walker_management: true,
            ..Self::base()
        }
    }

    /// Base + walker management + shrink block size (Fig. 14, third bar).
    pub fn with_shrink_block() -> Self {
        EngineOptions {
            enable_shrink_block: true,
            ..Self::with_walker_management()
        }
    }

    /// All optimizations (Fig. 14, fourth bar) — same as `default()`.
    pub fn full() -> Self {
        Self::default()
    }

    /// The number of walkers a pool may hold for an app whose state takes
    /// `state_bytes` per walker, out of `total` walkers overall.
    ///
    /// The opening split: walker pools take at most a quarter of the
    /// budget, leaving the rest for block buffers and the pre-sample pool.
    /// A floor of 64 walkers keeps tiny budgets from serializing walk
    /// execution — but the floor is itself clamped so the pool's *bytes*
    /// never exceed half the budget, otherwise a large per-walker state
    /// under a small budget would make the reservation overshoot the limit
    /// outright.
    ///
    /// The sequential engine opens every run here and then moves the split
    /// by [`adjust_split`], never below this quota. The parallel runner and
    /// the serve lanes keep this rule for the whole run; it must not be
    /// re-derived at call sites.
    pub fn walker_pool_quota(&self, budget: &MemoryBudget, state_bytes: usize, total: u64) -> u64 {
        let state = state_bytes.max(1) as u64;
        let by_budget = budget.limit() / 4 / state;
        let hard_cap = (budget.limit() / 2 / state).max(1);
        (self.walker_pool_size as u64)
            .min(total.max(1))
            .min(by_budget.max(64))
            .min(hard_cap)
    }

    /// Effective compute nanoseconds for one step.
    pub fn step_cost(&self) -> u64 {
        (Self::STEP_NS / self.threads.max(1)).max(1)
    }

    /// Effective compute nanoseconds for one pre-sample draw (also charged
    /// for direct on-block sampling).
    pub fn sample_cost(&self) -> u64 {
        (Self::SAMPLE_NS / self.threads.max(1)).max(1)
    }
}

/// Where the sequential engine moves one fair share of budget at a load
/// boundary ([`adjust_split`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Adjust {
    /// To the walker pool.
    Grow,
    /// To the pre-sample pool.
    Shrink,
    /// Nowhere.
    Hold,
}

/// The "Adjust" arrow of the paper's Fig. 6: compares the steps each side
/// of the budget served per byte since the last load boundary. The walker
/// pool earned `block_steps` (steps on loaded edges) with `walker_bytes`;
/// the pre-sample pool earned `pool_steps` (pre-sampled and raw slots)
/// with the `pool_bytes` its generations hold. Budget moves toward the
/// higher rate; a tie, zero steps on both sides included, holds.
pub fn adjust_split(
    block_steps: u64,
    pool_steps: u64,
    walker_bytes: u64,
    pool_bytes: u64,
) -> Adjust {
    let walkers = u128::from(block_steps) * u128::from(pool_bytes);
    let pool = u128::from(pool_steps) * u128::from(walker_bytes);
    match walkers.cmp(&pool) {
        std::cmp::Ordering::Greater => Adjust::Grow,
        std::cmp::Ordering::Less => Adjust::Shrink,
        std::cmp::Ordering::Equal => Adjust::Hold,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knob_ladder_is_cumulative() {
        let base = EngineOptions::base();
        assert!(!base.enable_walker_management);
        assert!(!base.enable_shrink_block);
        assert!(!base.enable_presample);
        let wm = EngineOptions::with_walker_management();
        assert!(wm.enable_walker_management && !wm.enable_shrink_block);
        let sb = EngineOptions::with_shrink_block();
        assert!(sb.enable_walker_management && sb.enable_shrink_block && !sb.enable_presample);
        let full = EngineOptions::full();
        assert!(full.enable_presample && full.enable_shrink_block);
    }

    #[test]
    fn costs_divide_by_threads() {
        let o = EngineOptions {
            threads: 4,
            ..Default::default()
        };
        assert_eq!(o.step_cost(), EngineOptions::STEP_NS / 4);
        assert_eq!(o.sample_cost(), EngineOptions::SAMPLE_NS / 4);
        let single = EngineOptions {
            threads: 1,
            ..Default::default()
        };
        assert_eq!(single.step_cost(), EngineOptions::STEP_NS);
    }

    #[test]
    fn pool_quota_respects_budget_even_with_large_state() {
        let o = EngineOptions::default();
        let budget = MemoryBudget::new(64 << 10);
        // A 4 KiB walker state: the 64-walker floor alone would want
        // 256 KiB — four times the whole budget.
        let q = o.walker_pool_quota(&budget, 4096, 1_000);
        assert!(q >= 1);
        assert!(q * 4096 <= budget.limit() / 2);
        // Small states still enjoy the 64-walker floor.
        let q = o.walker_pool_quota(&budget, 16, 1_000);
        assert!(q >= 64);
        // Never more walkers than the app will ever generate.
        assert_eq!(o.walker_pool_quota(&budget, 16, 5), 5);
    }

    #[test]
    fn split_moves_toward_the_side_with_more_steps_per_byte() {
        // 100 steps on 1,000 walker bytes against 100 on 2,000 pool bytes.
        assert_eq!(adjust_split(100, 100, 1_000, 2_000), Adjust::Grow);
        assert_eq!(adjust_split(100, 100, 2_000, 1_000), Adjust::Shrink);
        assert_eq!(adjust_split(10, 20, 1_000, 2_000), Adjust::Hold);
        assert_eq!(adjust_split(0, 0, 1_000, 2_000), Adjust::Hold);
        // No pool and no pool steps (pre-sampling off): nothing to weigh.
        assert_eq!(adjust_split(500, 0, 1_000, 0), Adjust::Hold);
        // The cross-products are exact at the extremes.
        let max = u64::MAX;
        assert_eq!(adjust_split(max, max - 1, max, max), Adjust::Grow);
        assert_eq!(adjust_split(max, max, max, max - 1), Adjust::Shrink);
        assert_eq!(adjust_split(max, max, max, max), Adjust::Hold);
    }

    #[test]
    fn zero_threads_does_not_divide_by_zero() {
        let o = EngineOptions {
            threads: 0,
            ..Default::default()
        };
        assert!(o.step_cost() >= 1);
    }
}
