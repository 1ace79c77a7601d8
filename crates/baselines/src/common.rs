//! Shared walker bookkeeping and block reads for the baseline engines.

use noswalker_core::{retire_walker, spawn_walker, BlockCache, LoadedBlock, OnDiskGraph};
use noswalker_core::{EngineError, Ledger, RunMetrics, Walk, WalkRng};
use noswalker_graph::partition::BlockId;
use noswalker_graph::VertexId;
use noswalker_storage::MemoryBudget;
use std::sync::Arc;

/// Reads block `b` through the page-cache stand-in `cache` (hits move no
/// bytes) as one synchronous I/O, booked on `ledger`.
///
/// # Errors
///
/// As for [`BlockCache::load`].
pub fn read_block(
    ledger: &mut Ledger<'_>,
    cache: &mut BlockCache,
    graph: &OnDiskGraph,
    b: BlockId,
    budget: &Arc<MemoryBudget>,
) -> Result<Arc<LoadedBlock>, EngineError> {
    let at = ledger.now();
    let (block, ns, hit) = cache.load(graph, b, budget)?;
    ledger.coarse_load(b, block.info().byte_len(), hit, at);
    ledger.sync_io(Some(b), ns);
    Ok(block)
}

/// A slab of live walkers bucketed by the block of their current location,
/// shared by the block-centric baselines.
#[derive(Debug)]
pub struct WalkerSet<A: Walk> {
    slab: Vec<Option<A::Walker>>,
    free: Vec<usize>,
    /// Walker indices per block.
    pub buckets: Vec<Vec<usize>>,
    live: u64,
}

impl<A: Walk> WalkerSet<A> {
    /// An empty set sized for `num_blocks` buckets.
    pub fn new(num_blocks: usize) -> Self {
        WalkerSet {
            slab: Vec::new(),
            free: Vec::new(),
            buckets: vec![Vec::new(); num_blocks],
            live: 0,
        }
    }

    /// Live walker count.
    pub fn live(&self) -> u64 {
        self.live
    }

    /// True once every generated walker has finished.
    pub fn all_done(&self) -> bool {
        self.live == 0
    }

    /// Access a live walker.
    pub fn get(&self, i: usize) -> Option<&A::Walker> {
        self.slab[i].as_ref()
    }

    /// Mutable access to a live walker.
    pub fn get_mut(&mut self, i: usize) -> Option<&mut A::Walker> {
        self.slab[i].as_mut()
    }

    /// Generates all `app.total_walkers()` walkers (the DrunkardMob /
    /// GraphWalker model: vertex data created upfront, §2.4.2). Inactive
    /// newborns are retired into `metrics` immediately.
    pub fn generate_all(
        &mut self,
        app: &A,
        graph: &OnDiskGraph,
        metrics: &mut RunMetrics,
        rng: &mut WalkRng,
    ) {
        for n in 0..app.total_walkers() {
            if let Some(w) = spawn_walker(app, metrics, n, rng) {
                self.insert(app, graph, w);
            }
        }
    }

    /// Inserts one walker, bucketing by its location block.
    pub fn insert(&mut self, app: &A, graph: &OnDiskGraph, w: A::Walker) -> usize {
        let b = graph.block_of(app.location(&w)) as usize;
        let idx = if let Some(i) = self.free.pop() {
            self.slab[i] = Some(w);
            i
        } else {
            self.slab.push(Some(w));
            self.slab.len() - 1
        };
        self.buckets[b].push(idx);
        self.live += 1;
        idx
    }

    /// Retires walker `i` (must already be out of every bucket) into
    /// `metrics`.
    pub fn retire(&mut self, app: &A, metrics: &mut RunMetrics, i: usize) {
        let w = self.slab[i].take().expect("retiring a live walker");
        retire_walker(app, metrics, &w);
        self.free.push(i);
        self.live -= 1;
    }

    /// Puts a still-live walker back into the bucket of its location block.
    pub fn rebucket(&mut self, app: &A, graph: &OnDiskGraph, i: usize) {
        if let Some(w) = &self.slab[i] {
            let b = graph.block_of(app.location(w)) as usize;
            self.buckets[b].push(i);
        }
    }

    /// The block with the most bucketed walkers.
    pub fn hottest_block(&self) -> Option<BlockId> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, b)| !b.is_empty())
            .max_by_key(|(_, b)| b.len())
            .map(|(i, _)| i as BlockId)
    }

    /// Current locations of the walkers bucketed at block `b`, deduplicated
    /// and sorted.
    pub fn locations_in(&self, app: &A, b: BlockId) -> Vec<VertexId> {
        let mut v: Vec<VertexId> = self.buckets[b as usize]
            .iter()
            .filter_map(|&i| self.slab[i].as_ref())
            .map(|w| app.location(w))
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noswalker_core::apps_prelude::*;
    use noswalker_core::OnDiskGraph;
    use noswalker_graph::generators;
    use noswalker_storage::MemDevice;
    use rand::SeedableRng;
    use std::sync::Arc;

    #[derive(Debug)]
    struct Hop(u64);
    #[derive(Debug, Clone)]
    struct W(u32, u32);
    impl Walk for Hop {
        type Walker = W;
        fn total_walkers(&self) -> u64 {
            self.0
        }
        fn generate(&self, n: u64, _r: &mut WalkRng) -> W {
            W((n % 16) as u32, 0)
        }
        fn location(&self, w: &W) -> u32 {
            w.0
        }
        fn is_active(&self, w: &W) -> bool {
            w.1 < 3
        }
        fn sample(&self, v: &VertexEdges<'_>, r: &mut WalkRng) -> u32 {
            uniform_sample(v, r)
        }
        fn action(&self, w: &mut W, next: u32, _r: &mut WalkRng) -> bool {
            w.0 = next;
            w.1 += 1;
            true
        }
    }

    fn setup() -> (Hop, OnDiskGraph) {
        let csr = generators::uniform_degree(16, 4, 1);
        let g = OnDiskGraph::store(&csr, Arc::new(MemDevice::new()), 64).unwrap();
        (Hop(20), g)
    }

    #[test]
    fn generate_all_buckets_everyone() {
        let (app, g) = setup();
        let mut set: WalkerSet<Hop> = WalkerSet::new(g.num_blocks());
        let mut rng = WalkRng::seed_from_u64(1);
        set.generate_all(&app, &g, &mut RunMetrics::default(), &mut rng);
        assert_eq!(set.live(), 20);
        let total: usize = set.buckets.iter().map(|b| b.len()).sum();
        assert_eq!(total, 20);
        assert!(set.hottest_block().is_some());
    }

    #[test]
    fn retire_and_done() {
        let (app, g) = setup();
        let mut set: WalkerSet<Hop> = WalkerSet::new(g.num_blocks());
        let mut rng = WalkRng::seed_from_u64(1);
        let mut metrics = RunMetrics::default();
        set.generate_all(&app, &g, &mut metrics, &mut rng);
        let all: Vec<usize> = set.buckets.iter_mut().flat_map(std::mem::take).collect();
        for i in all {
            set.retire(&app, &mut metrics, i);
        }
        assert!(set.all_done());
        assert_eq!(metrics.walkers_finished, 20);
        assert_eq!(set.hottest_block(), None);
    }

    #[test]
    fn locations_are_deduped() {
        let (app, g) = setup();
        let mut set: WalkerSet<Hop> = WalkerSet::new(g.num_blocks());
        let mut rng = WalkRng::seed_from_u64(1);
        set.generate_all(&app, &g, &mut RunMetrics::default(), &mut rng);
        let b = set.hottest_block().unwrap();
        let locs = set.locations_in(&app, b);
        assert!(!locs.is_empty());
        assert!(locs.windows(2).all(|w| w[0] < w[1]));
    }
}
