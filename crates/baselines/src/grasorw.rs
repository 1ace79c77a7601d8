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

use crate::common::read_block;
use noswalker_core::audit::{RunAudit, Trace, TraceSink};
use noswalker_core::{
    retire_walker, spawn_walker, walk_resident_2nd, BlockCache, EngineError, EngineOptions, Ledger,
    OnDiskGraph, Resident, RunMetrics, SecondOrderWalk, Stop, WalkRng,
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

    /// Like [`GraSorw::run`], recording structured
    /// [`TraceEvent`](noswalker_core::TraceEvent)s into `sink` when one is
    /// supplied. In debug builds the metrics are
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
        let total = self.app.total_walkers();
        RunAudit::audited(total, Some(&self.budget), || {
            self.run_inner(seed, Trace::from_option(sink))
        })
    }

    fn run_inner(&self, seed: u64, trace: Trace<'_>) -> Result<RunMetrics, EngineError> {
        let mut ledger = Ledger::buffered(trace);
        let mut rng = WalkRng::seed_from_u64(seed);
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
            let Some(w) = spawn_walker(&*self.app, &mut ledger.metrics, n, &mut rng) else {
                continue;
            };
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
            let block_i = read_block(&mut ledger, &mut cache, &self.graph, bi, &self.budget)?;
            let block_j = if bi != bj {
                Some(read_block(
                    &mut ledger,
                    &mut cache,
                    &self.graph,
                    bj,
                    &self.budget,
                )?)
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

            // Bucket-based walker management: the pair's bucket is written
            // back to disk and read in again (`Ledger::swap` does both), two
            // records of traffic per walker.
            let bucket = std::mem::take(&mut pairs[k]);
            let swap_bytes = bucket.len() as u64 * EngineOptions::SWAP_RECORD_BYTES;
            ledger.swap(&self.graph, Some(bi), swap_bytes)?;

            for i in bucket {
                let Some(w) = slab[i].as_mut() else { continue };
                let (ns, stop) = walk_resident_2nd(
                    &*self.app,
                    w,
                    &mut rng,
                    &mut ledger.metrics,
                    &self.opts,
                    &mut Resident::new(|v| self.graph.degree(v), lookup),
                );
                ledger.compute(ns);
                match stop {
                    Stop::Done => {
                        let w = slab[i].take().expect("live");
                        retire_walker(&*self.app, &mut ledger.metrics, &w);
                        free.push(i);
                        live -= 1;
                    }
                    Stop::Left => pairs[pair_key(self, w)].push(i),
                }
            }
        }

        Ok(ledger.close(&self.graph, &self.budget))
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

    /// One block holds the whole graph, so every walker is visited once,
    /// in the one diagonal pair's first epoch.
    #[test]
    fn swap_moves_two_records_per_walker_visit() {
        let csr = generators::uniform_degree(256, 4, 1);
        let device = Arc::new(SimSsd::new(SsdProfile::nvme_p4618()));
        let graph = Arc::new(OnDiskGraph::store(&csr, device, 1 << 20).unwrap());
        assert_eq!(graph.num_blocks(), 1);
        let app = Arc::new(N2v {
            walkers: 300,
            length: 5,
            n: 256,
            p: 2.0,
            q: 0.5,
        });
        let m = GraSorw::new(
            app,
            graph,
            EngineOptions::default(),
            MemoryBudget::new(1 << 20),
        )
        .run(3)
        .unwrap();
        assert_eq!(m.walkers_finished, 300);
        assert_eq!(m.swap_bytes, 300 * 2 * 24);
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
