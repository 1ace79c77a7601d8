//! DrunkardMob (Kyrola, RecSys '13): the first out-of-core random walk
//! system, built on GraphChi.
//!
//! Faithful policy reproduction (paper §2.2, Fig. 3b):
//!
//! * all walker states are created upfront and **pinned in memory**
//!   (it fails — as in the paper — when they do not fit the budget);
//! * blocks are streamed **round-robin in disk order** with synchronous
//!   buffered I/O (no compute/I/O overlap);
//! * each epoch moves every walker residing in the loaded block **exactly
//!   one step** (synchronized iterations).

use crate::common::WalkerSet;
use noswalker_core::audit::{RunAudit, Trace, TraceEvent, TraceSink};
use noswalker_core::{
    BlockCache, EngineError, EngineOptions, OnDiskGraph, PipelineClock, RunMetrics, StepSource,
    Walk, WalkRng, WallTimer,
};
use noswalker_graph::partition::BlockId;
use noswalker_storage::MemoryBudget;
use rand::SeedableRng;
use std::sync::Arc;

/// The DrunkardMob baseline engine.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use noswalker_baselines::DrunkardMob;
/// use noswalker_core::{EngineOptions, OnDiskGraph};
/// use noswalker_apps::BasicRw;
/// use noswalker_graph::generators;
/// use noswalker_storage::{MemoryBudget, SimSsd, SsdProfile};
///
/// let csr = generators::uniform_degree(128, 4, 1);
/// let device = Arc::new(SimSsd::new(SsdProfile::nvme_p4618()));
/// let graph = Arc::new(OnDiskGraph::store(&csr, device, 512)?);
/// let app = Arc::new(BasicRw::new(50, 5, 128));
/// let dm = DrunkardMob::new(app, graph, EngineOptions::default(), MemoryBudget::new(1 << 20));
/// assert_eq!(dm.run(1)?.walkers_finished, 50);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct DrunkardMob<A: Walk> {
    app: Arc<A>,
    graph: Arc<OnDiskGraph>,
    opts: EngineOptions,
    budget: Arc<MemoryBudget>,
}

impl<A: Walk> DrunkardMob<A> {
    /// Creates the engine. Only the compute-cost fields of `opts` are used;
    /// DrunkardMob has no optimization knobs.
    pub fn new(
        app: Arc<A>,
        graph: Arc<OnDiskGraph>,
        opts: EngineOptions,
        budget: Arc<MemoryBudget>,
    ) -> Self {
        DrunkardMob {
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
    /// [`EngineError::Budget`] when the walker states do not fit in memory
    /// — the condition under which the paper reports "DrunkardMob cannot
    /// process" a workload; [`EngineError::Load`] on device failure.
    pub fn run(&self, seed: u64) -> Result<RunMetrics, EngineError> {
        self.run_with_sink(seed, None)
    }

    /// Like [`DrunkardMob::run`], recording structured
    /// [`TraceEvent`]s into `sink` when one is supplied. In debug builds
    /// the metrics are checked against the engine conservation laws.
    ///
    /// # Errors
    ///
    /// As for [`DrunkardMob::run`].
    pub fn run_with_sink<'a>(
        &'a self,
        seed: u64,
        sink: Option<&'a mut dyn TraceSink>,
    ) -> Result<RunMetrics, EngineError> {
        let audit = RunAudit::begin(self.app.total_walkers(), &self.budget);
        let metrics = self.run_inner(seed, Trace::from_option(sink))?;
        if cfg!(debug_assertions) {
            audit.verify(&metrics, &self.budget).assert_clean();
        }
        Ok(metrics)
    }

    fn run_inner(&self, seed: u64, mut trace: Trace<'_>) -> Result<RunMetrics, EngineError> {
        let wall = WallTimer::start();
        let mut clock = PipelineClock::new();
        let mut metrics = RunMetrics::default();
        let mut rng = WalkRng::seed_from_u64(seed);
        // GraphChi-heritage buffered I/O runs at 20-30 % of the device's
        // bandwidth (paper §4.4); de-rate accordingly.
        let penalty = |ns: u64| (ns as f64 * EngineOptions::BUFFERED_IO_PENALTY) as u64;

        // All walker states live in memory for the whole run.
        let state_bytes = self.app.total_walkers() * self.app.state_bytes() as u64;
        let _states = self.budget.try_reserve(state_bytes)?;

        let mut set: WalkerSet<A> = WalkerSet::new(self.graph.num_blocks());
        set.generate_all(&self.app, &self.graph, &mut rng);
        metrics.set_walkers_finished(set.finished());
        // Page-cache stand-in: the cgroups budget covers the OS page cache,
        // so re-reads of cached blocks are free (§4.1).
        let mut cache = BlockCache::new(self.graph.num_blocks());

        let num_blocks = self.graph.num_blocks() as BlockId;
        let mut b: BlockId = 0;
        while !set.all_done() {
            // Round-robin streaming: load the next block in disk order even
            // if it is cold (GraphChi's iteration model).
            let info = *self.graph.partition().block(b);
            if info.byte_len() > 0 && !set.buckets[b as usize].is_empty() {
                let load_at = clock.now();
                let (block, ns, hit) = cache.load(&self.graph, b, &self.budget)?;
                clock.sync_io(penalty(ns)); // buffered I/O: no overlap
                if !hit {
                    metrics.record_coarse_load(info.byte_len());
                }
                trace.emit(|| TraceEvent::CoarseLoad {
                    block: b,
                    bytes: if hit { 0 } else { info.byte_len() },
                    cache_hit: hit,
                    at_ns: load_at,
                });
                // GraphChi's parallel sliding windows write every processed
                // shard back to disk (edge values are mutable in its model),
                // a cost DrunkardMob inherits. The write goes to a scratch
                // region past the edge data: same cost, graph untouched.
                let wb = vec![0u8; info.byte_len() as usize];
                let scratch = self.graph.edge_region_bytes() + info.byte_start;
                let wns = self.graph.device().write(scratch, &wb).map_err(|e| {
                    EngineError::Load(noswalker_core::disk_graph::LoadError::Device(e))
                })?;
                clock.sync_io(penalty(wns));
                metrics.record_swap(info.byte_len(), 1);
                let stall_until = clock.now();
                trace.emit(|| TraceEvent::Swap {
                    bytes: info.byte_len(),
                    at_ns: stall_until,
                });
                // Synchronous buffered I/O: the whole service time is a
                // stall, attributed to the block being streamed.
                if stall_until > load_at {
                    trace.emit(|| TraceEvent::Stall {
                        waiting_for: Some(b),
                        from_ns: load_at,
                        until_ns: stall_until,
                    });
                }

                let bucket = std::mem::take(&mut set.buckets[b as usize]);
                for i in bucket {
                    let Some(w) = set.get(i) else { continue };
                    if !self.app.is_active(w) {
                        set.retire(&self.app, i);
                        continue;
                    }
                    let loc = self.app.location(w);
                    if self.graph.degree(loc) == 0 {
                        set.retire(&self.app, i);
                        continue;
                    }
                    let view = block
                        .vertex_edges(&self.graph, loc)
                        .expect("bucketed walker is in block");
                    let dst = self.app.sample(&view, &mut rng);
                    clock.advance_compute(self.opts.sample_cost());
                    let w = set.get_mut(i).expect("live");
                    self.app.action(w, dst, &mut rng);
                    clock.advance_compute(self.opts.step_cost());
                    metrics.record_step(StepSource::Block);
                    let w = set.get(i).expect("live");
                    if !self.app.is_active(w) {
                        set.retire(&self.app, i);
                    } else {
                        set.rebucket(&self.app, &self.graph, i);
                    }
                }
            }
            b = (b + 1) % num_blocks;
        }

        metrics.set_walkers_finished(set.finished());
        let (steps, walkers_finished, end_at) =
            (metrics.steps, metrics.walkers_finished, clock.now());
        trace.emit(|| TraceEvent::RunEnd {
            steps,
            walkers_finished,
            at_ns: end_at,
        });
        metrics.finalize_clock(&clock);
        metrics.finalize_wall(&wall);
        metrics.set_peak_memory(self.budget.peak());
        metrics.derive_edges_loaded(self.graph.format().record_bytes() as u64);
        Ok(metrics)
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

    fn engine(walkers: u64, budget: u64) -> DrunkardMob<Basic> {
        let csr = generators::uniform_degree(256, 8, 3);
        let device = Arc::new(SimSsd::new(SsdProfile::nvme_p4618()));
        let graph = Arc::new(OnDiskGraph::store(&csr, device, 1024).unwrap());
        DrunkardMob::new(
            Arc::new(Basic {
                walkers,
                length: 5,
                n: 256,
            }),
            graph,
            EngineOptions::default(),
            MemoryBudget::new(budget),
        )
    }

    #[test]
    fn completes_all_walkers() {
        let m = engine(100, 1 << 20).run(1).unwrap();
        assert_eq!(m.walkers_finished, 100);
        assert_eq!(m.steps, 500); // uniform graph: no dead ends
        assert!(m.coarse_loads >= 5, "round-robin reloads blocks");
    }

    #[test]
    fn fails_when_walker_states_exceed_memory() {
        // 1M walkers * 8B state > 64 KiB budget.
        let e = engine(1_000_000, 64 << 10);
        assert!(matches!(e.run(1), Err(EngineError::Budget(_))));
    }

    #[test]
    fn synchronous_io_shows_up_as_stall() {
        let m = engine(100, 1 << 20).run(2).unwrap();
        assert!(m.stall_ns > 0);
        assert_eq!(m.stall_ns, m.io_busy_ns); // fully unoverlapped
    }

    #[test]
    fn deterministic() {
        let mut a = engine(50, 1 << 20).run(9).unwrap();
        let mut b = engine(50, 1 << 20).run(9).unwrap();
        a.wall_ns = 0;
        b.wall_ns = 0;
        assert_eq!(a, b);
    }
}
