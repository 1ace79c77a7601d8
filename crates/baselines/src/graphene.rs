//! Graphene (Liu & Huang, FAST '17): fine-grained on-demand I/O inside a
//! graph-oriented framework.
//!
//! Faithful policy reproduction (paper §5.1, Fig. 16): Graphene issues
//! precise 4 KiB-granularity I/O for exactly the data the current walkers
//! need and skips blocks without walkers — but it still **iterates through
//! the graph in the order the data is stored on disk**, not by walker
//! hotness, and moves each walker only while its data happens to be loaded.
//! That disk-order scan is what keeps its I/O utilization low for random
//! walks.

use crate::common::WalkerSet;
use noswalker_core::audit::{RunAudit, Trace, TraceSink};
use noswalker_core::{
    walk_resident, EngineError, EngineOptions, Ledger, OnDiskGraph, Resident, RunMetrics, Stop,
    Walk, WalkRng,
};
use noswalker_graph::partition::BlockId;
use noswalker_storage::MemoryBudget;
use rand::SeedableRng;
use std::sync::Arc;

/// The Graphene baseline engine.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use noswalker_baselines::Graphene;
/// use noswalker_core::{EngineOptions, OnDiskGraph};
/// use noswalker_apps::BasicRw;
/// use noswalker_graph::generators;
/// use noswalker_storage::{MemoryBudget, SimSsd, SsdProfile};
///
/// let csr = generators::uniform_degree(4096, 8, 1);
/// let device = Arc::new(SimSsd::new(SsdProfile::nvme_p4618()));
/// let graph = Arc::new(OnDiskGraph::store(&csr, device, 8192)?);
/// let app = Arc::new(BasicRw::new(20, 5, 4096));
/// let m = Graphene::new(app, graph, EngineOptions::default(), MemoryBudget::new(1 << 20)).run(1)?;
/// assert_eq!(m.coarse_loads, 0); // Graphene is all fine-grained I/O
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Graphene<A: Walk> {
    app: Arc<A>,
    graph: Arc<OnDiskGraph>,
    opts: EngineOptions,
    budget: Arc<MemoryBudget>,
}

impl<A: Walk> Graphene<A> {
    /// Creates the engine.
    pub fn new(
        app: Arc<A>,
        graph: Arc<OnDiskGraph>,
        opts: EngineOptions,
        budget: Arc<MemoryBudget>,
    ) -> Self {
        Graphene {
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
    /// [`EngineError::Budget`] / [`EngineError::Load`] as usual.
    pub fn run(&self, seed: u64) -> Result<RunMetrics, EngineError> {
        self.run_with_sink(seed, None)
    }

    /// Like [`Graphene::run`], recording structured
    /// [`TraceEvent`](noswalker_core::TraceEvent)s into `sink` when one is
    /// supplied. In debug builds the metrics are
    /// checked against the engine conservation laws.
    ///
    /// # Errors
    ///
    /// As for [`Graphene::run`].
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

        let state_bytes = self.app.total_walkers() * self.app.state_bytes() as u64;
        let _states = self
            .budget
            .try_reserve(state_bytes.min(self.budget.limit() / 4))?;

        let mut set: WalkerSet<A> = WalkerSet::new(self.graph.num_blocks());
        set.generate_all(&self.app, &self.graph, &mut ledger.metrics, &mut rng);

        let num_blocks = self.graph.num_blocks() as BlockId;
        let mut b: BlockId = 0;
        while !set.all_done() {
            // Disk-order scan, skipping walker-free blocks.
            if set.buckets[b as usize].is_empty() {
                b = (b + 1) % num_blocks;
                continue;
            }
            // On-demand I/O: only the pages covering current walkers.
            let wanted = set.locations_in(&self.app, b);
            let load_at = ledger.now();
            let (load, ns) = self.graph.load_fine(b, &wanted, &self.budget)?;
            ledger.fine_load(wanted.len(), &load, load_at);
            // Synchronous I/O: the whole service time is a stall.
            ledger.sync_io(Some(b), ns);

            let bucket = std::mem::take(&mut set.buckets[b as usize]);
            for i in bucket {
                let Some(w) = set.get_mut(i) else { continue };
                let edges = |v| load.vertex_edges(&self.graph, v);
                let (ns, stop) = walk_resident(
                    &*self.app,
                    w,
                    &mut rng,
                    &mut ledger.metrics,
                    &self.opts,
                    &mut Resident::new(|v| self.graph.degree(v), edges),
                    |_, _| {},
                );
                ledger.compute(ns);
                match stop {
                    Stop::Done => set.retire(&self.app, &mut ledger.metrics, i),
                    Stop::Left => set.rebucket(&self.app, &self.graph, i),
                }
            }
            b = (b + 1) % num_blocks;
        }

        Ok(ledger.close(&self.graph, &self.budget))
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

    fn engine(walkers: u64) -> Graphene<Basic> {
        let csr = generators::rmat(11, 8, generators::RmatParams::default(), 23);
        let n = csr.num_vertices() as u32;
        let device = Arc::new(SimSsd::new(SsdProfile::nvme_p4618()));
        let graph = Arc::new(OnDiskGraph::store(&csr, device, 4096).unwrap());
        Graphene::new(
            Arc::new(Basic {
                walkers,
                length: 6,
                n,
            }),
            graph,
            EngineOptions::default(),
            MemoryBudget::new(4 << 20),
        )
    }

    #[test]
    fn completes_with_fine_io_only() {
        let m = engine(200).run(3).unwrap();
        assert_eq!(m.walkers_finished, 200);
        assert!(m.fine_loads > 0);
        assert_eq!(m.coarse_loads, 0);
    }

    #[test]
    fn sparse_walkers_load_less_than_full_graph_sweeps() {
        let few = engine(10).run(3).unwrap();
        let many = engine(2000).run(3).unwrap();
        assert!(few.edge_bytes_loaded < many.edge_bytes_loaded);
    }

    #[test]
    fn deterministic() {
        let mut a = engine(64).run(8).unwrap();
        let mut b = engine(64).run(8).unwrap();
        a.wall_ns = 0;
        b.wall_ns = 0;
        assert_eq!(a, b);
    }
}
