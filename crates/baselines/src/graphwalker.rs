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

use crate::common::WalkerSet;
use noswalker_core::audit::{RunAudit, Trace, TraceEvent, TraceSink};
use noswalker_core::{
    BlockCache, EngineError, EngineOptions, OnDiskGraph, PipelineClock, RunMetrics, StepSource,
    Walk, WalkRng, WallTimer,
};
use noswalker_graph::partition::FINE_PAGE_BYTES;
use noswalker_graph::VertexId;
use noswalker_storage::MemoryBudget;
use rand::SeedableRng;
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

    /// Like [`GraphWalker::run`], recording structured [`TraceEvent`]s
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
        let audit = RunAudit::begin(self.app.total_walkers(), &self.budget);
        let metrics = self
            .run_traced_inner(seed, Trace::from_option(sink))?
            .metrics;
        if cfg!(debug_assertions) {
            audit.verify(&metrics, &self.budget).assert_clean();
        }
        Ok(metrics)
    }

    /// Runs to completion, additionally recording the Fig. 4 trace.
    ///
    /// # Errors
    ///
    /// As for [`GraphWalker::run`].
    pub fn run_traced(&self, seed: u64) -> Result<TracedRun, EngineError> {
        let audit = RunAudit::begin(self.app.total_walkers(), &self.budget);
        let traced = self.run_traced_inner(seed, Trace::off())?;
        if cfg!(debug_assertions) {
            audit.verify(&traced.metrics, &self.budget).assert_clean();
        }
        Ok(traced)
    }

    fn run_traced_inner(&self, seed: u64, mut tr: Trace<'_>) -> Result<TracedRun, EngineError> {
        let wall = WallTimer::start();
        let mut clock = PipelineClock::new();
        let mut metrics = RunMetrics::default();
        let mut trace = Vec::new();
        let mut rng = WalkRng::seed_from_u64(seed);
        // GraphChi-heritage buffered I/O runs at 20-30 % of the device's
        // bandwidth (paper §4.4); de-rate accordingly.
        let penalty = |ns: u64| (ns as f64 * EngineOptions::BUFFERED_IO_PENALTY) as u64;

        // Fixed-length in-memory walker buffer; the rest is swapped. The
        // buffer may take at most an eighth of the budget.
        let buffer_walkers = (self.opts.walker_pool_size as u64)
            .min(self.app.total_walkers().max(1))
            .min((self.budget.limit() / 8 / self.app.state_bytes().max(1) as u64).max(64));
        let _buffer = self
            .budget
            .try_reserve(buffer_walkers * self.app.state_bytes() as u64)?;

        let mut set: WalkerSet<A> = WalkerSet::new(self.graph.num_blocks());
        set.generate_all(&self.app, &self.graph, &mut rng);
        let swap_base = self.graph.edge_region_bytes();
        // Page-cache stand-in (the cgroups budget covers the page cache).
        let mut cache = BlockCache::new(self.graph.num_blocks());
        let mut epoch = 0u64;

        while !set.all_done() {
            epoch += 1;
            let Some(b) = set.hottest_block() else { break };
            let info = *self.graph.partition().block(b);
            let load_at = clock.now();
            let (block, ns, hit) = cache.load(&self.graph, b, &self.budget)?;
            clock.sync_io(penalty(ns)); // buffered I/O: no overlap
            if !hit {
                metrics.record_coarse_load(info.byte_len());
            }
            tr.emit(|| TraceEvent::CoarseLoad {
                block: b,
                bytes: if hit { 0 } else { info.byte_len() },
                cache_hit: hit,
                at_ns: load_at,
            });

            // Swap in this block's walker states beyond the buffer, and
            // write back the previously resident ones (real device I/O on a
            // swap region so cost model and stats agree).
            let in_block = set.buckets[b as usize].len() as u64;
            let swapped = in_block.saturating_sub(buffer_walkers / 2);
            let swap_bytes = 2 * swapped * EngineOptions::SWAP_RECORD_BYTES;
            if swap_bytes > 0 {
                let mut buf = vec![0u8; swap_bytes.min(16 << 20) as usize];
                let mut left = swap_bytes;
                while left > 0 {
                    let n = left.min(16 << 20) as usize;
                    let wns = self
                        .graph
                        .device()
                        .write(swap_base, &buf[..n])
                        .map_err(|e| {
                            EngineError::Load(noswalker_core::disk_graph::LoadError::Device(e))
                        })?;
                    let rns = self
                        .graph
                        .device()
                        .read(swap_base, &mut buf[..n])
                        .map_err(|e| {
                            EngineError::Load(noswalker_core::disk_graph::LoadError::Device(e))
                        })?;
                    clock.sync_io(penalty(wns + rns));
                    left -= n as u64;
                }
                metrics.record_swap(swap_bytes, 0);
                let at = clock.now();
                tr.emit(|| TraceEvent::Swap {
                    bytes: swap_bytes,
                    at_ns: at,
                });
            }
            // Synchronous buffered I/O: the whole load+swap service time
            // is a stall, attributed to the block being processed.
            let stall_until = clock.now();
            if stall_until > load_at {
                tr.emit(|| TraceEvent::Stall {
                    waiting_for: Some(b),
                    from_ns: load_at,
                    until_ns: stall_until,
                });
            }

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
                loop {
                    let Some(w) = set.get(i) else { break };
                    if !self.app.is_active(w) {
                        set.retire(&self.app, i);
                        break;
                    }
                    let loc: VertexId = self.app.location(w);
                    if self.graph.degree(loc) == 0 {
                        set.retire(&self.app, i);
                        break;
                    }
                    let Some(view) = block.vertex_edges(&self.graph, loc) else {
                        set.rebucket(&self.app, &self.graph, i);
                        break;
                    };
                    mark(self.graph.vertex_byte_range(loc));
                    let dst = self.app.sample(&view, &mut rng);
                    clock.advance_compute(self.opts.sample_cost());
                    let w = set.get_mut(i).expect("live");
                    self.app.action(w, dst, &mut rng);
                    clock.advance_compute(self.opts.step_cost());
                    metrics.record_step(StepSource::Block);
                }
            }
            let accessed = touched.iter().filter(|&&t| t).count() as f64;
            trace.push(TracePoint {
                io_number: epoch,
                unterminated: set.live(),
                accessed_fraction: accessed / num_pages as f64,
            });
        }

        metrics.set_walkers_finished(set.finished());
        let (steps, walkers_finished, end_at) =
            (metrics.steps, metrics.walkers_finished, clock.now());
        tr.emit(|| TraceEvent::RunEnd {
            steps,
            walkers_finished,
            at_ns: end_at,
        });
        metrics.finalize_clock(&clock);
        metrics.finalize_wall(&wall);
        metrics.set_peak_memory(self.budget.peak());
        metrics.derive_edges_loaded(self.graph.format().record_bytes() as u64);
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

    #[test]
    fn deterministic() {
        let mut a = engine(200).run(6).unwrap();
        let mut b = engine(200).run(6).unwrap();
        a.wall_ns = 0;
        b.wall_ns = 0;
        assert_eq!(a, b);
    }
}
