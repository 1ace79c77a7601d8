//! GraSorw (Li et al., VLDB '22): the state-of-the-art disk-based system
//! for *second-order* random walks, compared against in the paper's §4.5.
//!
//! Policy reproduction: GraSorw's key idea is **triangular bi-block
//! scheduling** — a second-order step needs both the current vertex's block
//! (to sample a candidate) and the candidate's block (to evaluate the
//! transition weight), so it iterates over *pairs* of blocks, loading two
//! blocks per epoch and bucketing walkers by their `(location block,
//! candidate block)` pair. Bucket-based walker management stores the
//! buckets on disk, charged here as swap I/O, and I/O is synchronous and
//! buffered like its GraphWalker-based walk engine.

use noswalker_core::audit::{RunAudit, Trace, TraceEvent, TraceSink};
use noswalker_core::{
    BlockCache, EngineError, EngineOptions, OnDiskGraph, PipelineClock, RunMetrics,
    SecondOrderWalk, WalkRng, WallTimer,
};
use noswalker_graph::partition::BlockId;
use noswalker_storage::MemoryBudget;
use rand::SeedableRng;
use std::sync::Arc;

/// The GraSorw baseline engine (second order only).
#[derive(Debug)]
pub struct GraSorw<A: SecondOrderWalk> {
    app: Arc<A>,
    graph: Arc<OnDiskGraph>,
    opts: EngineOptions,
    budget: Arc<MemoryBudget>,
}

impl<A: SecondOrderWalk> GraSorw<A> {
    /// Creates the engine.
    pub fn new(
        app: Arc<A>,
        graph: Arc<OnDiskGraph>,
        opts: EngineOptions,
        budget: Arc<MemoryBudget>,
    ) -> Self {
        GraSorw {
            app,
            graph,
            opts,
            budget,
        }
    }

    /// Runs the second-order task to completion.
    ///
    /// # Errors
    ///
    /// [`EngineError::Budget`] if two block buffers cannot fit;
    /// [`EngineError::Load`] on device failure.
    pub fn run(&self, seed: u64) -> Result<RunMetrics, EngineError> {
        self.run_with_sink(seed, None)
    }

    /// Like [`GraSorw::run`], recording structured [`TraceEvent`]s into
    /// `sink` when one is supplied. In debug builds the metrics are
    /// checked against the engine conservation laws.
    ///
    /// # Errors
    ///
    /// As for [`GraSorw::run`].
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
        let penalty = |ns: u64| (ns as f64 * EngineOptions::BUFFERED_IO_PENALTY) as u64;
        let nb = self.graph.num_blocks();

        let mut slab: Vec<Option<A::Walker>> = Vec::new();
        let mut free: Vec<usize> = Vec::new();
        // Pair buckets: key = loc_block * nb + partner_block, where the
        // partner is the candidate's block (or the location's own block
        // while no candidate is pending).
        let mut pairs: Vec<Vec<usize>> = vec![Vec::new(); nb * nb];
        let mut live = 0u64;

        let pair_key = |run: &Self, w: &A::Walker| -> usize {
            let i = run.graph.block_of(run.app.location(w)) as usize;
            let j = match run.app.candidate(w) {
                Some(c) => run.graph.block_of(c) as usize,
                None => i,
            };
            i * nb + j
        };

        for n in 0..self.app.total_walkers() {
            let w = self.app.generate(n, &mut rng);
            if !self.app.is_active(&w) {
                self.app.on_terminate(&w);
                metrics.record_walker_finished();
                continue;
            }
            let k = pair_key(self, &w);
            let idx = if let Some(i) = free.pop() {
                slab[i] = Some(w);
                i
            } else {
                slab.push(Some(w));
                slab.len() - 1
            };
            pairs[k].push(idx);
            live += 1;
        }

        let buffer_walkers = (self.opts.walker_pool_size as u64)
            .min(self.app.total_walkers().max(1))
            .min((self.budget.limit() / 8 / self.app.state_bytes().max(1) as u64).max(64));
        let _buffer = self
            .budget
            .try_reserve(buffer_walkers * self.app.state_bytes() as u64)?;
        let swap_base = self.graph.edge_region_bytes();
        let mut cache = BlockCache::new(nb);

        while live > 0 {
            // Hottest pair.
            let Some(k) = (0..pairs.len())
                .filter(|&k| !pairs[k].is_empty())
                .max_by_key(|&k| pairs[k].len())
            else {
                break;
            };
            let (bi, bj) = ((k / nb) as BlockId, (k % nb) as BlockId);
            // Load the pair (one load if diagonal).
            let pair_at = clock.now();
            let (block_i, ns_i, hit_i) = cache.load(&self.graph, bi, &self.budget)?;
            clock.sync_io(penalty(ns_i));
            if !hit_i {
                metrics.record_coarse_load(block_i.info().byte_len());
            }
            let bi_bytes = block_i.info().byte_len();
            trace.emit(|| TraceEvent::CoarseLoad {
                block: bi,
                bytes: if hit_i { 0 } else { bi_bytes },
                cache_hit: hit_i,
                at_ns: pair_at,
            });
            let block_j = if bi != bj {
                let at = clock.now();
                let (b, ns, hit) = cache.load(&self.graph, bj, &self.budget)?;
                clock.sync_io(penalty(ns));
                if !hit {
                    metrics.record_coarse_load(b.info().byte_len());
                }
                let bytes = b.info().byte_len();
                trace.emit(|| TraceEvent::CoarseLoad {
                    block: bj,
                    bytes: if hit { 0 } else { bytes },
                    cache_hit: hit,
                    at_ns: at,
                });
                Some(b)
            } else {
                None
            };
            let lookup = |v| {
                block_i.vertex_edges(&self.graph, v).or_else(|| {
                    block_j
                        .as_ref()
                        .and_then(|b| b.vertex_edges(&self.graph, v))
                })
            };

            // Bucket-based walker management: the pair's bucket is read
            // from and written back to disk.
            let bucket = std::mem::take(&mut pairs[k]);
            let swap_bytes = 2 * bucket.len() as u64 * EngineOptions::SWAP_RECORD_BYTES;
            if swap_bytes > 0 {
                let mut buf = vec![0u8; swap_bytes.min(16 << 20) as usize];
                let mut left = swap_bytes;
                while left > 0 {
                    let n = left.min(16 << 20) as usize;
                    let dev = self.graph.device();
                    let wns = dev.write(swap_base, &buf[..n]).map_err(|e| {
                        EngineError::Load(noswalker_core::disk_graph::LoadError::Device(e))
                    })?;
                    let rns = dev.read(swap_base, &mut buf[..n]).map_err(|e| {
                        EngineError::Load(noswalker_core::disk_graph::LoadError::Device(e))
                    })?;
                    clock.sync_io(penalty(wns + rns));
                    left -= n as u64;
                }
                metrics.record_swap(swap_bytes, 0);
                let at = clock.now();
                trace.emit(|| TraceEvent::Swap {
                    bytes: swap_bytes,
                    at_ns: at,
                });
            }
            // Synchronous buffered I/O: the pair's load+swap service time
            // is a stall, attributed to the first block of the pair.
            let stall_until = clock.now();
            if stall_until > pair_at {
                trace.emit(|| TraceEvent::Stall {
                    waiting_for: Some(bi),
                    from_ns: pair_at,
                    until_ns: stall_until,
                });
            }

            for i in bucket {
                loop {
                    let Some(w) = slab[i].as_ref() else { break };
                    if !self.app.is_active(w) {
                        let w = slab[i].take().expect("live");
                        self.app.on_terminate(&w);
                        free.push(i);
                        live -= 1;
                        metrics.record_walker_finished();
                        break;
                    }
                    if let Some(c) = self.app.candidate(w) {
                        let Some(cedges) = lookup(c) else { break };
                        let before = self.app.location(w);
                        let wm = slab[i].as_mut().expect("live");
                        self.app.rejection(wm, &cedges, &mut rng);
                        clock.advance_compute(self.opts.step_cost());
                        let w = slab[i].as_ref().expect("live");
                        metrics.record_second_order(self.app.location(w) != before);
                        continue;
                    }
                    let loc = self.app.location(w);
                    if self.graph.degree(loc) == 0 {
                        let w = slab[i].take().expect("live");
                        self.app.on_terminate(&w);
                        free.push(i);
                        live -= 1;
                        metrics.record_walker_finished();
                        break;
                    }
                    let Some(view) = lookup(loc) else { break };
                    let dst = self.app.sample(&view, &mut rng);
                    clock.advance_compute(self.opts.sample_cost());
                    let wm = slab[i].as_mut().expect("live");
                    self.app.action(wm, dst, &mut rng);
                }
                if let Some(w) = &slab[i] {
                    let k2 = pair_key(self, w);
                    pairs[k2].push(i);
                }
            }
        }

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
    use noswalker_core::Walk;
    use noswalker_graph::generators;
    use noswalker_storage::{SimSsd, SsdProfile};
    use rand::Rng;

    /// A minimal Node2Vec-style second-order walk for testing.
    #[derive(Debug)]
    struct N2v {
        walkers: u64,
        length: u32,
        n: u32,
        p: f32,
        q: f32,
    }
    #[derive(Debug, Clone)]
    struct W {
        prev: Option<u32>,
        at: u32,
        cand: Option<u32>,
        h: f32,
        step: u32,
    }
    impl Walk for N2v {
        type Walker = W;
        fn total_walkers(&self) -> u64 {
            self.walkers
        }
        fn generate(&self, i: u64, _r: &mut WalkRng) -> W {
            W {
                prev: None,
                at: (i % self.n as u64) as u32,
                cand: None,
                h: 0.0,
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
        fn action(&self, w: &mut W, next: u32, r: &mut WalkRng) -> bool {
            if w.cand.is_some() {
                return false;
            }
            w.cand = Some(next);
            let hi = (1.0 / self.p).max(1.0).max(1.0 / self.q);
            w.h = r.gen_range(0.0..hi);
            true
        }
    }
    impl SecondOrderWalk for N2v {
        fn candidate(&self, w: &W) -> Option<u32> {
            w.cand
        }
        fn rejection(&self, w: &mut W, cedges: &VertexEdges<'_>, _r: &mut WalkRng) {
            let c = w.cand.take().expect("pending candidate");
            let weight = match w.prev {
                None => 1.0, // first hop is uniform
                Some(p) if p == c => 1.0 / self.p,
                Some(p) if cedges.contains_target(p) => 1.0,
                Some(_) => 1.0 / self.q,
            };
            if w.h <= weight {
                w.prev = Some(w.at);
                w.at = c;
                w.step += 1;
            }
        }
    }

    fn engine(walkers: u64) -> GraSorw<N2v> {
        let csr = generators::rmat(9, 8, generators::RmatParams::default(), 31).to_undirected();
        let n = csr.num_vertices() as u32;
        let device = Arc::new(SimSsd::new(SsdProfile::nvme_p4618()));
        let graph = Arc::new(OnDiskGraph::store(&csr, device, 2048).unwrap());
        GraSorw::new(
            Arc::new(N2v {
                walkers,
                length: 5,
                n,
                p: 2.0,
                q: 0.5,
            }),
            graph,
            EngineOptions::default(),
            MemoryBudget::new(1 << 20),
        )
    }

    #[test]
    fn completes_second_order_walks() {
        let m = engine(100).run(1).unwrap();
        assert_eq!(m.walkers_finished, 100);
        assert!(m.steps > 0);
        assert!(m.accepts > 0);
        assert_eq!(m.steps, m.accepts);
    }

    #[test]
    fn bi_block_loads_pairs() {
        let m = engine(100).run(2).unwrap();
        assert!(m.coarse_loads >= 2, "pair scheduling loads two blocks");
    }

    #[test]
    fn deterministic() {
        let mut a = engine(50).run(7).unwrap();
        let mut b = engine(50).run(7).unwrap();
        a.wall_ns = 0;
        b.wall_ns = 0;
        assert_eq!(a, b);
    }
}
