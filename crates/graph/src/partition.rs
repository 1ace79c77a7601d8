//! Coarse block partitioning of the on-disk edge region (paper §3.3.1).
//!
//! Out-of-core engines load the edge region in *coarse-grained blocks*: byte
//! ranges aligned to vertex boundaries so a loaded block always contains
//! complete out-edge sets. NosWalker's fine-grained mode further divides each
//! coarse block into 4 KiB pages ([`FINE_PAGE_BYTES`], one SSD page) and
//! loads only the pages covering stalled vertices, guided by a bitmap
//! (paper Fig. 7).

use crate::csr::Csr;
use crate::layout::EdgeFormat;
use crate::VertexId;

/// One SSD page: the smallest unit an I/O operation can read (paper §3.3.1).
pub const FINE_PAGE_BYTES: u64 = 4096;

/// Index of a coarse block.
pub type BlockId = u32;

/// A coarse block: a vertex range whose edge records occupy a contiguous
/// byte range of the on-disk edge region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockInfo {
    /// Block index.
    pub id: BlockId,
    /// First vertex in the block.
    pub vertex_start: VertexId,
    /// One past the last vertex in the block.
    pub vertex_end: VertexId,
    /// First byte of the block in the edge region.
    pub byte_start: u64,
    /// One past the last byte of the block in the edge region.
    pub byte_end: u64,
}

impl BlockInfo {
    /// Number of vertices in the block.
    pub fn num_vertices(&self) -> u32 {
        self.vertex_end - self.vertex_start
    }

    /// Size of the block in bytes.
    pub fn byte_len(&self) -> u64 {
        self.byte_end - self.byte_start
    }

    /// True if `v` belongs to this block.
    pub fn contains_vertex(&self, v: VertexId) -> bool {
        (self.vertex_start..self.vertex_end).contains(&v)
    }

    /// True if the consecutive vertices `vs` all lie in this block's range.
    pub fn contains_run(&self, vs: &std::ops::Range<VertexId>) -> bool {
        self.vertex_start <= vs.start && vs.end <= self.vertex_end
    }

    /// Number of 4 KiB fine pages covering this block (last page may be
    /// partial).
    pub fn num_fine_pages(&self) -> u64 {
        self.byte_len().div_ceil(FINE_PAGE_BYTES)
    }
}

/// A partition of a graph's edge region into coarse blocks.
///
/// # Example
///
/// ```
/// use noswalker_graph::{generators, EdgeFormat, Partition};
///
/// let g = generators::uniform_degree(1 << 12, 8, 1);
/// let p = Partition::by_block_bytes(&g, EdgeFormat::Unweighted, 16 * 1024);
/// assert!(p.num_blocks() > 1);
/// assert_eq!(p.block_of_vertex(0), 0);
/// ```
#[derive(Debug, Clone)]
pub struct Partition {
    blocks: Vec<BlockInfo>,
    /// block id per vertex (dense; u32 per vertex).
    vertex_block: Vec<BlockId>,
    format: EdgeFormat,
}

impl Partition {
    /// Partitions so that each block's edge region is at most
    /// `target_block_bytes` (a block holding a single huge vertex may
    /// exceed it — complete out-edge sets are never split).
    ///
    /// # Panics
    ///
    /// Panics if `target_block_bytes` is zero.
    pub fn by_block_bytes(csr: &Csr, format: EdgeFormat, target_block_bytes: u64) -> Self {
        assert!(target_block_bytes > 0, "block size must be positive");
        let rec = format.record_bytes() as u64;
        let n = csr.num_vertices();
        let mut blocks = Vec::new();
        let mut vertex_block: Vec<BlockId> = vec![0; n];
        let mut v = 0usize;
        while v < n {
            let byte_start = csr.edge_start(v as VertexId) * rec;
            let mut end = v;
            loop {
                end += 1;
                if end >= n {
                    break;
                }
                let next_bytes = csr.edge_start(end as VertexId + 1) * rec - byte_start;
                // Always take at least one vertex; stop before exceeding the
                // target (unless the single vertex alone exceeds it).
                if next_bytes > target_block_bytes && end > v {
                    break;
                }
            }
            let byte_end = csr.edge_start(end as VertexId) * rec;
            let id = blocks.len() as BlockId;
            blocks.push(BlockInfo {
                id,
                vertex_start: v as VertexId,
                vertex_end: end as VertexId,
                byte_start,
                byte_end,
            });
            for b in &mut vertex_block[v..end] {
                *b = id;
            }
            v = end;
        }
        if blocks.is_empty() {
            // Zero-vertex graph: single empty block keeps callers simple.
            blocks.push(BlockInfo {
                id: 0,
                vertex_start: 0,
                vertex_end: 0,
                byte_start: 0,
                byte_end: 0,
            });
        }
        Partition {
            blocks,
            vertex_block,
            format,
        }
    }

    /// Partitions into (approximately) `num_blocks` equal-byte blocks, the
    /// way GraphWalker divides a graph into a fixed number of shards (the
    /// paper evaluates it with 33 blocks, §2.3).
    pub fn by_block_count(csr: &Csr, format: EdgeFormat, num_blocks: u32) -> Self {
        let total = csr.num_edges() * format.record_bytes() as u64;
        let per = (total / num_blocks.max(1) as u64).max(1);
        Self::by_block_bytes(csr, format, per)
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Block descriptors.
    pub fn blocks(&self) -> &[BlockInfo] {
        &self.blocks
    }

    /// Descriptor of block `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn block(&self, id: BlockId) -> &BlockInfo {
        &self.blocks[id as usize]
    }

    /// The block containing vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn block_of_vertex(&self, v: VertexId) -> BlockId {
        self.vertex_block[v as usize]
    }

    /// The edge record format this partition addresses.
    pub fn format(&self) -> EdgeFormat {
        self.format
    }

    /// Total bytes of the partitioned edge region.
    pub fn total_bytes(&self) -> u64 {
        self.blocks.last().map_or(0, |b| b.byte_end)
    }

    /// The byte range (relative to the edge region) holding `v`'s records,
    /// given the CSR index.
    pub fn vertex_byte_range(&self, csr: &Csr, v: VertexId) -> std::ops::Range<u64> {
        let rec = self.format.record_bytes() as u64;
        (csr.edge_start(v) * rec)..(csr.edge_start(v + 1) * rec)
    }

    /// Places a graph onto `shards` shards: contiguous vertex ranges,
    /// byte-balanced over the edge region the same way coarse blocks are
    /// carved (complete out-edge sets are never split). Always returns
    /// exactly `shards` ranges covering `0..num_vertices` in order; when
    /// the graph has at least `shards` vertices every range is non-empty.
    ///
    /// This is the placement the sharded serve plane uses: shard `s` owns
    /// vertices `ranges[s]`, and a deterministic router maps a vertex to
    /// its owner by binary search over the range starts.
    pub fn shard_ranges(
        csr: &Csr,
        format: EdgeFormat,
        shards: u32,
    ) -> Vec<std::ops::Range<VertexId>> {
        let shards = shards.max(1) as usize;
        let n = csr.num_vertices();
        let rec = format.record_bytes() as u64;
        let total = csr.num_edges() * rec;
        let mut ranges = Vec::with_capacity(shards);
        let mut v = 0usize;
        for s in 0..shards {
            let start = v;
            if s + 1 == shards {
                v = n;
            } else {
                // Cut at the ideal cumulative byte boundary for shard s.
                let target = total * (s as u64 + 1) / shards as u64;
                while v < n && csr.edge_start(v as VertexId + 1) * rec < target {
                    v += 1;
                }
                // Keep every shard non-empty when the vertex count allows:
                // take at least one vertex, but leave one per later shard.
                let remaining = shards - s - 1;
                let max_end = n.saturating_sub(remaining).max(start);
                let min_end = (start + 1).min(max_end);
                v = v.clamp(min_end, max_end);
            }
            ranges.push(start as VertexId..v as VertexId);
        }
        ranges
    }

    /// The fine-page index range (within block `b`) covering vertex `v`'s
    /// records: which 4 KiB pages must be loaded so `v` is fully readable.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not in block `b`.
    pub fn vertex_fine_pages(&self, csr: &Csr, b: BlockId, v: VertexId) -> std::ops::Range<u64> {
        let blk = self.block(b);
        assert!(blk.contains_vertex(v), "vertex {v} not in block {b}");
        let r = self.vertex_byte_range(csr, v);
        if r.is_empty() {
            return 0..0;
        }
        let first = (r.start - blk.byte_start) / FINE_PAGE_BYTES;
        let last = (r.end - 1 - blk.byte_start) / FINE_PAGE_BYTES;
        first..last + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CsrBuilder;

    fn chain(n: u32) -> Csr {
        let mut b = CsrBuilder::new(n as usize);
        for v in 0..n {
            b.push_edge(v, (v + 1) % n);
        }
        b.build()
    }

    #[test]
    fn blocks_cover_all_vertices_contiguously() {
        let g = chain(100);
        let p = Partition::by_block_bytes(&g, EdgeFormat::Unweighted, 64);
        let mut v = 0;
        for b in p.blocks() {
            assert_eq!(b.vertex_start, v);
            v = b.vertex_end;
        }
        assert_eq!(v, 100);
        assert_eq!(p.total_bytes(), 400);
    }

    #[test]
    fn block_byte_ranges_are_contiguous() {
        let g = chain(64);
        let p = Partition::by_block_bytes(&g, EdgeFormat::Unweighted, 40);
        let mut end = 0;
        for b in p.blocks() {
            assert_eq!(b.byte_start, end);
            end = b.byte_end;
        }
        assert_eq!(end, g.num_edges() * 4);
    }

    #[test]
    fn vertex_block_lookup_consistent() {
        let g = chain(50);
        let p = Partition::by_block_bytes(&g, EdgeFormat::Unweighted, 32);
        for v in 0..50u32 {
            let b = p.block_of_vertex(v);
            assert!(p.block(b).contains_vertex(v));
        }
    }

    #[test]
    fn big_vertex_gets_own_oversized_block() {
        // Vertex 0 has 100 edges (400 bytes) > 64-byte target.
        let mut b = CsrBuilder::new(101);
        for i in 1..=100u32 {
            b.push_edge(0, i);
        }
        b.push_edge(1, 0);
        let g = b.build();
        let p = Partition::by_block_bytes(&g, EdgeFormat::Unweighted, 64);
        let blk0 = p.block(p.block_of_vertex(0));
        assert_eq!(blk0.vertex_start, 0);
        assert_eq!(blk0.vertex_end, 1);
        assert_eq!(blk0.byte_len(), 400);
    }

    #[test]
    fn by_block_count_yields_roughly_that_many() {
        let g = chain(1000);
        let p = Partition::by_block_count(&g, EdgeFormat::Unweighted, 10);
        assert!((8..=13).contains(&p.num_blocks()), "{}", p.num_blocks());
    }

    #[test]
    fn fine_pages_cover_vertex_bytes() {
        let g = chain(5000);
        let p = Partition::by_block_bytes(&g, EdgeFormat::Unweighted, 10_000);
        let v = 2500u32;
        let b = p.block_of_vertex(v);
        let pages = p.vertex_fine_pages(&g, b, v);
        let blk = p.block(b);
        let r = p.vertex_byte_range(&g, v);
        assert!(blk.byte_start + pages.start * FINE_PAGE_BYTES <= r.start);
        assert!(blk.byte_start + pages.end * FINE_PAGE_BYTES >= r.end);
    }

    #[test]
    fn zero_degree_vertex_has_empty_fine_pages() {
        let g = CsrBuilder::new(3).edge(0, 1).build();
        let p = Partition::by_block_bytes(&g, EdgeFormat::Unweighted, 4096);
        let b = p.block_of_vertex(2);
        assert_eq!(p.vertex_fine_pages(&g, b, 2), 0..0);
    }

    #[test]
    fn weighted_format_scales_bytes() {
        let g = chain(10);
        let p = Partition::by_block_bytes(&g, EdgeFormat::WeightedAlias, 1 << 20);
        assert_eq!(p.total_bytes(), 10 * 12);
    }

    #[test]
    fn shard_ranges_cover_vertices_contiguously() {
        let g = chain(100);
        for shards in [1u32, 2, 3, 4, 7, 16] {
            let ranges = Partition::shard_ranges(&g, EdgeFormat::Unweighted, shards);
            assert_eq!(ranges.len(), shards as usize);
            let mut v = 0;
            for r in &ranges {
                assert_eq!(r.start, v);
                assert!(!r.is_empty(), "shard range {r:?} empty for {shards} shards");
                v = r.end;
            }
            assert_eq!(v, 100);
        }
    }

    #[test]
    fn one_shard_owns_everything() {
        let g = chain(64);
        let ranges = Partition::shard_ranges(&g, EdgeFormat::Unweighted, 1);
        assert_eq!(ranges, vec![0..64]);
    }

    #[test]
    fn shard_ranges_balance_skewed_bytes() {
        // Vertex 0 owns half the edges; the first shard should not swallow
        // everything and later shards must still be non-empty.
        let mut b = CsrBuilder::new(16);
        for i in 0..64 {
            b.push_edge(0, i % 16);
        }
        for v in 1..16 {
            b.push_edge(v, (v + 1) % 16);
        }
        let g = b.build();
        let ranges = Partition::shard_ranges(&g, EdgeFormat::Unweighted, 4);
        assert_eq!(ranges.len(), 4);
        let mut v = 0;
        for r in &ranges {
            assert_eq!(r.start, v);
            assert!(!r.is_empty());
            v = r.end;
        }
        assert_eq!(v, 16);
    }

    #[test]
    fn more_shards_than_vertices_yields_some_empty_ranges() {
        let g = chain(3);
        let ranges = Partition::shard_ranges(&g, EdgeFormat::Unweighted, 5);
        assert_eq!(ranges.len(), 5);
        assert_eq!(ranges.last().unwrap().end, 3);
        let mut v = 0;
        for r in &ranges {
            assert!(r.start <= r.end);
            assert!(r.start == v || r.is_empty());
            v = v.max(r.end);
        }
        let owned: u32 = ranges.iter().map(|r| r.end - r.start).sum();
        assert_eq!(owned, 3);
    }
}
