//! In-memory buffers holding loaded edge data.

use crate::disk_graph::OnDiskGraph;
use noswalker_graph::layout::VertexEdges;
use noswalker_graph::partition::BlockInfo;
use noswalker_graph::VertexId;
use noswalker_storage::Reservation;
use std::ops::Range;

/// A fully loaded coarse block: one contiguous byte range of the edge
/// region, memory charged against the run's budget for its lifetime.
#[derive(Debug)]
pub struct LoadedBlock {
    info: BlockInfo,
    data: Vec<u8>,
    _reservation: Reservation,
}

impl LoadedBlock {
    pub(crate) fn new(info: BlockInfo, data: Vec<u8>, reservation: Reservation) -> Self {
        debug_assert_eq!(data.len() as u64, info.byte_len());
        LoadedBlock {
            info,
            data,
            _reservation: reservation,
        }
    }

    /// The block descriptor.
    pub fn info(&self) -> &BlockInfo {
        &self.info
    }

    /// Decodes vertex `v`'s out-edges from the buffer, or `None` if `v`
    /// is not in this block.
    pub fn vertex_edges<'a>(&'a self, graph: &OnDiskGraph, v: VertexId) -> Option<VertexEdges<'a>> {
        self.run_edges(graph, v..v + 1)
    }

    /// Decodes the out-edges of the consecutive vertices `vs` as one view
    /// (their records are contiguous), or `None` if one is not in this block.
    pub fn run_edges(&self, graph: &OnDiskGraph, vs: Range<VertexId>) -> Option<VertexEdges<'_>> {
        if !self.info.contains_run(&vs) {
            return None;
        }
        let r = graph.run_byte_range(vs);
        let s = (r.start - self.info.byte_start) as usize;
        let e = (r.end - self.info.byte_start) as usize;
        Some(VertexEdges::from_raw(&self.data[s..e], graph.format()))
    }
}

/// A sparse fine-grained load: merged runs of 4 KiB pages within one coarse
/// block (paper §3.3.1). Only the vertices whose full byte range falls
/// inside a loaded run are readable.
#[derive(Debug)]
pub struct FineLoad {
    info: BlockInfo,
    /// Sorted `(edge_region_byte_start, bytes)` runs.
    runs: Vec<(u64, Vec<u8>)>,
    _reservation: Reservation,
}

impl FineLoad {
    pub(crate) fn new(
        info: BlockInfo,
        runs: Vec<(u64, Vec<u8>)>,
        reservation: Reservation,
    ) -> Self {
        debug_assert!(runs.windows(2).all(|w| w[0].0 < w[1].0), "runs sorted");
        FineLoad {
            info,
            runs,
            _reservation: reservation,
        }
    }

    /// The block descriptor this load belongs to.
    pub fn info(&self) -> &BlockInfo {
        &self.info
    }

    /// Number of contiguous runs read.
    pub fn num_runs(&self) -> usize {
        self.runs.len()
    }

    /// Total bytes loaded across all runs.
    pub fn loaded_bytes(&self) -> u64 {
        self.runs.iter().map(|(_, d)| d.len() as u64).sum()
    }

    /// Decodes vertex `v`'s out-edges if its byte range is fully covered by
    /// one loaded run.
    pub fn vertex_edges<'a>(&'a self, graph: &OnDiskGraph, v: VertexId) -> Option<VertexEdges<'a>> {
        self.run_edges(graph, v..v + 1)
    }

    /// Decodes the out-edges of the consecutive vertices `vs` as one view
    /// if their byte range is fully covered by one loaded run. Covered
    /// vertices with edges that are consecutive always are: their pages
    /// touch, and `load_fine` merges touching pages into one run.
    pub fn run_edges(&self, graph: &OnDiskGraph, vs: Range<VertexId>) -> Option<VertexEdges<'_>> {
        if !self.info.contains_run(&vs) {
            return None;
        }
        let r = graph.run_byte_range(vs);
        if r.is_empty() {
            return Some(VertexEdges::from_raw(&[], graph.format()));
        }
        // Find the run whose start is <= r.start (runs are sorted).
        let idx = self.runs.partition_point(|(s, _)| *s <= r.start);
        if idx == 0 {
            return None;
        }
        let (run_start, data) = &self.runs[idx - 1];
        let run_end = run_start + data.len() as u64;
        if r.end > run_end {
            return None;
        }
        let s = (r.start - run_start) as usize;
        let e = (r.end - run_start) as usize;
        Some(VertexEdges::from_raw(&data[s..e], graph.format()))
    }
}

/// A budget-bounded LRU cache of loaded coarse blocks.
///
/// The paper's baselines run under a cgroups cap that *includes the OS
/// page cache* (§4.1), so graphs smaller than the memory budget are
/// effectively served from memory after the first sweep. The baseline
/// engines model that with this cache: hits cost no I/O; on budget
/// pressure the least-recently-used block is evicted.
#[derive(Debug)]
pub struct BlockCache {
    slots: Vec<Option<std::sync::Arc<LoadedBlock>>>,
    lru: std::collections::VecDeque<u32>,
    hits: u64,
    misses: u64,
}

impl BlockCache {
    /// An empty cache over `num_blocks` block ids.
    pub fn new(num_blocks: usize) -> Self {
        BlockCache {
            slots: (0..num_blocks).map(|_| None).collect(),
            lru: std::collections::VecDeque::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Evicts the least-recently-used cached block. Returns `false` when
    /// the cache is empty.
    pub fn evict_one(&mut self) -> bool {
        match self.lru.pop_front() {
            Some(victim) => {
                self.slots[victim as usize] = None;
                true
            }
            None => false,
        }
    }

    /// Returns block `b`, loading it through `graph` on a miss (evicting
    /// LRU blocks if the budget is tight). The second tuple element is the
    /// device service time and the third whether this was a cache hit
    /// (hits cost no I/O and move no bytes).
    ///
    /// # Errors
    ///
    /// Propagates device errors; budget errors only if the block cannot
    /// fit even with the whole cache evicted.
    pub fn load(
        &mut self,
        graph: &crate::disk_graph::OnDiskGraph,
        b: u32,
        budget: &std::sync::Arc<noswalker_storage::MemoryBudget>,
    ) -> Result<(std::sync::Arc<LoadedBlock>, u64, bool), crate::disk_graph::LoadError> {
        if let Some(block) = &self.slots[b as usize] {
            self.hits += 1;
            self.lru.retain(|&x| x != b);
            self.lru.push_back(b);
            return Ok((std::sync::Arc::clone(block), 0, true));
        }
        self.misses += 1;
        loop {
            match graph.load_block(b, budget) {
                Ok((block, ns)) => {
                    let arc = std::sync::Arc::new(block);
                    self.slots[b as usize] = Some(std::sync::Arc::clone(&arc));
                    self.lru.push_back(b);
                    return Ok((arc, ns, false));
                }
                Err(crate::disk_graph::LoadError::Budget(e)) => match self.lru.pop_front() {
                    Some(victim) => {
                        self.slots[victim as usize] = None;
                    }
                    None => return Err(crate::disk_graph::LoadError::Budget(e)),
                },
                Err(other) => return Err(other),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    // Behaviour of LoadedBlock / FineLoad is exercised end-to-end in
    // `disk_graph::tests` (loads need a stored graph); here we only test
    // the run lookup edge cases that are hard to hit from above.
    use super::*;
    use noswalker_graph::generators;
    use noswalker_storage::{MemoryBudget, SimSsd, SsdProfile};
    use std::sync::Arc;

    #[test]
    fn fine_load_boundary_vertices() {
        let csr = generators::uniform_degree(4096, 8, 9);
        let device = Arc::new(SimSsd::new(SsdProfile::nvme_p4618()));
        let g = OnDiskGraph::store(&csr, device, 1 << 20).unwrap();
        let budget = MemoryBudget::unlimited();
        // Request the very first and very last vertices of the block.
        let info = *g.partition().block(0);
        let wanted = vec![info.vertex_start, info.vertex_end - 1];
        let (fine, _) = g.load_fine(0, &wanted, &budget).unwrap();
        assert!(fine.vertex_edges(&g, info.vertex_start).is_some());
        assert!(fine.vertex_edges(&g, info.vertex_end - 1).is_some());
        // Out-of-block vertex yields None even if pages might overlap.
        assert!(fine.vertex_edges(&g, info.vertex_end).is_none());
    }

    #[test]
    fn block_cache_hits_after_first_load() {
        let csr = generators::uniform_degree(1024, 8, 9);
        let device = Arc::new(SimSsd::new(SsdProfile::nvme_p4618()));
        let g = OnDiskGraph::store(&csr, device, 8192).unwrap();
        let budget = MemoryBudget::new(1 << 20);
        let mut cache = super::BlockCache::new(g.num_blocks());
        let (_, ns1, hit1) = cache.load(&g, 0, &budget).unwrap();
        assert!(!hit1);
        assert!(ns1 > 0);
        let (_, ns2, hit2) = cache.load(&g, 0, &budget).unwrap();
        assert!(hit2);
        assert_eq!(ns2, 0);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn block_cache_evicts_lru_under_pressure() {
        let csr = generators::uniform_degree(1024, 8, 9);
        let device = Arc::new(SimSsd::new(SsdProfile::nvme_p4618()));
        let g = OnDiskGraph::store(&csr, device, 8192).unwrap();
        // Budget holds ~1.5 blocks.
        let budget = MemoryBudget::new(12 << 10);
        let mut cache = super::BlockCache::new(g.num_blocks());
        let (b0, _, _) = cache.load(&g, 0, &budget).unwrap();
        drop(b0);
        let (b1, _, _) = cache.load(&g, 1, &budget).unwrap();
        drop(b1);
        // Block 0 was evicted to make room: loading it again is a miss.
        let (_, _, hit) = cache.load(&g, 0, &budget).unwrap();
        assert!(!hit);
        assert_eq!(cache.misses(), 3);
    }

    #[test]
    fn block_cache_errors_when_nothing_left_to_evict() {
        let csr = generators::uniform_degree(1024, 8, 9);
        let device = Arc::new(SimSsd::new(SsdProfile::nvme_p4618()));
        let g = OnDiskGraph::store(&csr, device, 8192).unwrap();
        let budget = MemoryBudget::new(64);
        let mut cache = super::BlockCache::new(g.num_blocks());
        assert!(cache.load(&g, 0, &budget).is_err());
    }

    #[test]
    fn fine_load_empty_vertex_is_trivially_available() {
        use noswalker_graph::CsrBuilder;
        let mut b = CsrBuilder::new(10);
        b.push_edge(0, 1);
        // vertices 1..9 have no edges
        let csr = b.build();
        let device = Arc::new(SimSsd::new(SsdProfile::nvme_p4618()));
        let g = OnDiskGraph::store(&csr, device, 1 << 20).unwrap();
        let budget = MemoryBudget::unlimited();
        let (fine, _) = g.load_fine(0, &[5], &budget).unwrap();
        let view = fine.vertex_edges(&g, 5).unwrap();
        assert_eq!(view.degree(), 0);
        assert_eq!(fine.num_runs(), 0);
    }
}
