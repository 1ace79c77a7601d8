//! GraphWalker (Wang et al., ATC '20): the state-of-the-art out-of-core
//! random walk system the paper primarily compares against.
//!
//! Faithful policy reproduction (paper §2.3, Fig. 3c):
//!
//! * **state-aware I/O**: the block with the most walkers is loaded first;
//! * **asynchronous walker updating / re-entry** (from CLIP): each walker
//!   moves as many steps as possible while it stays inside the loaded
//!   block;
//! * walker states live in a **fixed-length walker buffer** and are swapped
//!   to disk when the buffer overflows — the paper measures this swap at up
//!   to 60 % of GraphWalker's total disk I/O (§2.4.2);
//! * synchronous buffered I/O (GraphChi heritage; the paper measures its
//!   disk utilization at 20–30 %).
//!
//! The optional [`TracePoint`] trace reproduces the paper's Fig. 4: per
//! I/O, the number of unterminated walkers and the fraction of the loaded
//! block actually accessed (in 4 KiB page granularity).

use crate::common::{read_block, WalkerSet};
use noswalker_core::audit::{RunAudit, Trace, TraceSink};
use noswalker_core::{
    walk_resident, BlockCache, EngineError, EngineOptions, Ledger, OnDiskGraph, Resident,
    RunMetrics, Stop, Walk, WalkRng,
};
use noswalker_graph::partition::FINE_PAGE_BYTES;
use noswalker_storage::MemoryBudget;
use rand::SeedableRng;
use std::borrow::Borrow;
use std::sync::Arc;

/// One Fig. 4 sample: the state of the system at one block I/O.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TracePoint {
    /// Sequence number of the I/O.
    pub io_number: u64,
    /// Unterminated walkers at the time of the I/O.
    pub unterminated: u64,
    /// Fraction (0–1) of the loaded block's 4 KiB pages actually touched
    /// while moving walkers.
    pub accessed_fraction: f64,
}

/// The GraphWalker baseline engine.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use noswalker_baselines::GraphWalker;
/// use noswalker_core::{EngineOptions, OnDiskGraph};
/// use noswalker_apps::BasicRw;
/// use noswalker_graph::generators;
/// use noswalker_storage::{MemoryBudget, SimSsd, SsdProfile};
///
/// let csr = generators::uniform_degree(128, 4, 1);
/// let device = Arc::new(SimSsd::new(SsdProfile::nvme_p4618()));
/// let graph = Arc::new(OnDiskGraph::store(&csr, device, 512)?);
/// let app = Arc::new(BasicRw::new(50, 5, 128));
/// let gw = GraphWalker::new(app, graph, EngineOptions::default(), MemoryBudget::new(1 << 20));
/// let traced = gw.run_traced(1)?; // metrics + the Fig. 4 trace
/// assert_eq!(traced.metrics.walkers_finished, 50);
/// assert!(!traced.trace.is_empty());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct GraphWalker<A: Walk> {
    app: Arc<A>,
    graph: Arc<OnDiskGraph>,
    opts: EngineOptions,
    budget: Arc<MemoryBudget>,
}

/// Result of a GraphWalker run with its Fig. 4 trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TracedRun {
    /// The usual run metrics.
    pub metrics: RunMetrics,
    /// One point per coarse block I/O.
    pub trace: Vec<TracePoint>,
}

impl Borrow<RunMetrics> for TracedRun {
    fn borrow(&self) -> &RunMetrics {
        &self.metrics
    }
}

impl<A: Walk> GraphWalker<A> {
    /// Creates the engine. `opts.walker_pool_size` sizes the in-memory
    /// walker buffer; `EngineOptions::SWAP_RECORD_BYTES` sizes swap records.
    pub fn new(
        app: Arc<A>,
        graph: Arc<OnDiskGraph>,
        opts: EngineOptions,
        budget: Arc<MemoryBudget>,
    ) -> Self {
        GraphWalker {
            app,
            graph,
            opts,
            budget,
        }
    }

    /// Runs to completion.
    ///
    /// # Errors
    ///
    /// [`EngineError::Budget`] if a block buffer cannot fit;
    /// [`EngineError::Load`] on device failure.
    pub fn run(&self, seed: u64) -> Result<RunMetrics, EngineError> {
        self.run_with_sink(seed, None)
    }

    /// Like [`GraphWalker::run`], recording structured
    /// [`TraceEvent`](noswalker_core::TraceEvent)s
    /// into `sink` when one is supplied (distinct from the Fig. 4
    /// [`TracePoint`] trace of [`GraphWalker::run_traced`]). In debug
    /// builds the metrics are checked against the engine conservation
    /// laws.
    ///
    /// # Errors
    ///
    /// As for [`GraphWalker::run`].
    pub fn run_with_sink<'a>(
        &'a self,
        seed: u64,
        sink: Option<&'a mut dyn TraceSink>,
    ) -> Result<RunMetrics, EngineError> {
        Ok(self.audited(seed, Trace::from_option(sink))?.metrics)
    }

    /// Runs to completion, additionally recording the Fig. 4 trace.
    ///
    /// # Errors
    ///
    /// As for [`GraphWalker::run`].
    pub fn run_traced(&self, seed: u64) -> Result<TracedRun, EngineError> {
        self.audited(seed, Trace::off())
    }

    fn audited(&self, seed: u64, trace: Trace<'_>) -> Result<TracedRun, EngineError> {
        let total = self.app.total_walkers();
        RunAudit::audited(total, Some(&self.budget), || self.run_inner(seed, trace))
    }

    fn run_inner(&self, seed: u64, tr: Trace<'_>) -> Result<TracedRun, EngineError> {
        // GraphChi-heritage buffered I/O: no compute/I/O overlap.
        let mut ledger = Ledger::buffered(tr);
        let mut trace = Vec::new();
        let mut rng = WalkRng::seed_from_u64(seed);

        // Fixed-length in-memory walker buffer; the rest is swapped. The
        // buffer may take at most an eighth of the budget.
        let buffer_walkers = (self.opts.walker_pool_size as u64)
            .min(self.app.total_walkers().max(1))
            .min((self.budget.limit() / 8 / self.app.state_bytes().max(1) as u64).max(64));
        let _buffer = self
            .budget
            .try_reserve(buffer_walkers * self.app.state_bytes() as u64)?;

        let mut set: WalkerSet<A> = WalkerSet::new(self.graph.num_blocks());
        set.generate_all(&self.app, &self.graph, &mut ledger.metrics, &mut rng);
        // Page-cache stand-in (the cgroups budget covers the page cache).
        let mut cache = BlockCache::new(self.graph.num_blocks());
        let mut epoch = 0u64;

        while !set.all_done() {
            epoch += 1;
            let Some(b) = set.hottest_block() else { break };
            let info = *self.graph.partition().block(b);
            let block = read_block(&mut ledger, &mut cache, &self.graph, b, &self.budget)?;
            // Swap in this block's walker states beyond the buffer, and
            // write back as many resident ones: `Ledger::swap` writes each
            // of the `swapped` records to a swap region on the device and
            // reads it back, two records of traffic per swapped walker.
            let in_block = set.buckets[b as usize].len() as u64;
            let swapped = in_block.saturating_sub(buffer_walkers / 2);
            let swap_bytes = swapped * EngineOptions::SWAP_RECORD_BYTES;
            ledger.swap(&self.graph, Some(b), swap_bytes)?;

            // Re-entry: move each walker as far as it stays in the block,
            // tracking which 4 KiB pages get touched.
            let num_pages = info.num_fine_pages().max(1);
            let mut touched = vec![false; num_pages as usize];
            let mut mark = |r: std::ops::Range<u64>| {
                if r.is_empty() {
                    return;
                }
                let first = (r.start - info.byte_start) / FINE_PAGE_BYTES;
                let last = (r.end - 1 - info.byte_start) / FINE_PAGE_BYTES;
                for p in first..=last {
                    touched[p as usize] = true;
                }
            };

            let bucket = std::mem::take(&mut set.buckets[b as usize]);
            for i in bucket {
                let Some(w) = set.get_mut(i) else { continue };
                let edges = |v| block.vertex_edges(&self.graph, v);
                let (ns, stop) = walk_resident(
                    &*self.app,
                    w,
                    &mut rng,
                    &mut ledger.metrics,
                    &self.opts,
                    &mut Resident::new(|v| self.graph.degree(v), edges),
                    |at, _| mark(self.graph.vertex_byte_range(at)),
                );
                ledger.compute(ns);
                match stop {
                    Stop::Done => set.retire(&self.app, &mut ledger.metrics, i),
                    Stop::Left => set.rebucket(&self.app, &self.graph, i),
                }
            }
            let accessed = touched.iter().filter(|&&t| t).count() as f64;
            trace.push(TracePoint {
                io_number: epoch,
                unterminated: set.live(),
                accessed_fraction: accessed / num_pages as f64,
            });
        }

        let metrics = ledger.close(&self.graph, &self.budget);
        Ok(TracedRun { metrics, trace })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noswalker_core::apps_prelude::*;
    use noswalker_graph::generators;
    use noswalker_storage::{SimSsd, SsdProfile};

    #[derive(Debug)]
    struct Basic {
        walkers: u64,
        length: u32,
        n: u32,
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
        fn sample(&self, v: &VertexEdges<'_>, r: &mut WalkRng) -> u32 {
            uniform_sample(v, r)
        }
        fn action(&self, w: &mut W, next: u32, _r: &mut WalkRng) -> bool {
            w.at = next;
            w.step += 1;
            true
        }
    }

    fn engine(walkers: u64) -> GraphWalker<Basic> {
        let csr = generators::rmat(10, 8, generators::RmatParams::default(), 17);
        let n = csr.num_vertices() as u32;
        let device = Arc::new(SimSsd::new(SsdProfile::nvme_p4618()));
        let graph = Arc::new(OnDiskGraph::store(&csr, device, 2048).unwrap());
        GraphWalker::new(
            Arc::new(Basic {
                walkers,
                length: 8,
                n,
            }),
            graph,
            EngineOptions::default(),
            MemoryBudget::new(1 << 20),
        )
    }

    #[test]
    fn completes_and_reenters() {
        let m = engine(300).run(4).unwrap();
        assert_eq!(m.walkers_finished, 300);
        assert!(m.steps > 0);
        // Re-entry means fewer loads than DrunkardMob would need: the
        // average steps per load should clearly exceed one per walker-epoch.
        assert!(m.steps as f64 / m.coarse_loads as f64 > 1.0);
    }

    #[test]
    fn trace_has_one_point_per_io_and_declines() {
        let t = engine(300).run_traced(4).unwrap();
        // One trace point per epoch; cache hits make epochs ≥ real loads.
        assert!(t.trace.len() as u64 >= t.metrics.coarse_loads);
        let first = t.trace.first().unwrap();
        let last = t.trace.last().unwrap();
        assert!(first.unterminated >= last.unterminated);
        for p in &t.trace {
            assert!((0.0..=1.0).contains(&p.accessed_fraction));
        }
    }

    #[test]
    fn swap_io_is_charged_for_large_walker_counts() {
        let m = engine(100_000).run(5).unwrap();
        assert!(m.swap_bytes > 0);
        assert_eq!(m.walkers_finished, 100_000);
    }

    /// One block holds the whole graph, so every walker is visited once,
    /// in the first epoch, and all but half the walker buffer swap.
    #[test]
    fn swap_moves_two_records_per_swapped_walker_visit() {
        let csr = generators::uniform_degree(256, 4, 1);
        let device = Arc::new(SimSsd::new(SsdProfile::nvme_p4618()));
        let graph = Arc::new(OnDiskGraph::store(&csr, device, 1 << 20).unwrap());
        assert_eq!(graph.num_blocks(), 1);
        let opts = EngineOptions {
            walker_pool_size: 64,
            ..EngineOptions::default()
        };
        let app = Arc::new(Basic {
            walkers: 1000,
            length: 8,
            n: 256,
        });
        let m = GraphWalker::new(app, graph, opts, MemoryBudget::new(1 << 20))
            .run(3)
            .unwrap();
        let swapped = 1000 - 64 / 2;
        assert_eq!(m.swap_bytes, swapped * 2 * 24);
    }

    #[test]
    fn deterministic() {
        let mut a = engine(200).run(6).unwrap();
        let mut b = engine(200).run(6).unwrap();
        a.wall_ns = 0;
        b.wall_ns = 0;
        assert_eq!(a, b);
    }
}
