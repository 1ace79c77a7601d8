//! The out-of-core graph: CSR index in memory, edge region on a device.
//!
//! All engines (NosWalker and every baseline) address graph data through
//! [`OnDiskGraph`]. Following the paper (§3.3.1), the CSR *index* — the
//! offsets prefix-sum — stays resident in host memory, while the edge
//! records live on the device and are only reachable through explicit
//! block/page loads that charge simulated I/O time.

use crate::block::{FineLoad, LoadedBlock};
use noswalker_graph::layout::{encode_edge_region, EdgeFormat, LayoutError};
use noswalker_graph::partition::{BlockId, Partition, FINE_PAGE_BYTES};
use noswalker_graph::{Csr, VertexId};
use noswalker_storage::{Device, DeviceError, MemoryBudget};
use std::ops::Range;
use std::sync::Arc;

/// A graph whose edge region lives on a [`Device`].
#[derive(Debug)]
pub struct OnDiskGraph {
    device: Arc<dyn Device>,
    offsets: Vec<u64>,
    partition: Partition,
    format: EdgeFormat,
    /// Byte offset of the edge region on the device.
    base: u64,
}

impl OnDiskGraph {
    /// Serializes `csr`'s edge region onto `device` (at offset 0) and
    /// partitions it into coarse blocks of at most `block_bytes`.
    ///
    /// The write is *setup*, not workload: benchmark harnesses snapshot
    /// device stats after construction.
    ///
    /// # Errors
    ///
    /// Propagates device write failures.
    pub fn store(csr: &Csr, device: Arc<dyn Device>, block_bytes: u64) -> Result<Self, StoreError> {
        Self::store_with_format(csr, device, block_bytes, csr.edge_format())
    }

    /// Like [`OnDiskGraph::store`] with an explicit edge record format.
    ///
    /// # Errors
    ///
    /// [`StoreError::Layout`] if the format requires weight/alias data the
    /// CSR lacks; [`StoreError::Device`] on device write failure.
    pub fn store_with_format(
        csr: &Csr,
        device: Arc<dyn Device>,
        block_bytes: u64,
        format: EdgeFormat,
    ) -> Result<Self, StoreError> {
        let bytes = encode_edge_region(csr, format)?;
        device.write(0, &bytes)?;
        let partition = Partition::by_block_bytes(csr, format, block_bytes);
        Ok(OnDiskGraph {
            device,
            offsets: csr.offsets().to_vec(),
            partition,
            format,
            base: 0,
        })
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> u64 {
        self.offsets.last().copied().unwrap_or(0)
    }

    /// Out-degree of `v`.
    pub fn degree(&self, v: VertexId) -> u64 {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// Edge record format on the device.
    pub fn format(&self) -> EdgeFormat {
        self.format
    }

    /// The coarse block partition.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// Number of coarse blocks.
    pub fn num_blocks(&self) -> usize {
        self.partition.num_blocks()
    }

    /// Byte length of the largest coarse block (0 for an empty graph) —
    /// what both engines size their block working set by.
    pub(crate) fn max_block_bytes(&self) -> u64 {
        let blocks = self.partition.blocks().iter();
        blocks.map(|b| b.byte_len()).max().unwrap_or(0)
    }

    /// The block holding vertex `v`'s edges.
    pub fn block_of(&self, v: VertexId) -> BlockId {
        self.partition.block_of_vertex(v)
    }

    /// Total size of the on-device edge region in bytes.
    pub fn edge_region_bytes(&self) -> u64 {
        self.num_edges() * self.format.record_bytes() as u64
    }

    /// The device the edge region lives on.
    pub fn device(&self) -> &Arc<dyn Device> {
        &self.device
    }

    /// Byte range (within the edge region) of `v`'s records.
    pub fn vertex_byte_range(&self, v: VertexId) -> Range<u64> {
        let rec = self.format.record_bytes() as u64;
        (self.offsets[v as usize] * rec)..(self.offsets[v as usize + 1] * rec)
    }

    /// Loads the entire coarse block `b`, charging one sequential read.
    ///
    /// Returns the loaded block and the device service time in nanoseconds.
    /// The block buffer is charged against `budget`.
    ///
    /// # Errors
    ///
    /// Fails if the budget cannot hold the block buffer or the device read
    /// fails.
    pub fn load_block(
        &self,
        b: BlockId,
        budget: &Arc<MemoryBudget>,
    ) -> Result<(LoadedBlock, u64), LoadError> {
        let info = *self.partition.block(b);
        let reservation = budget.try_reserve(info.byte_len())?;
        let mut data = vec![0u8; info.byte_len() as usize];
        let ns = self.device.read(self.base + info.byte_start, &mut data)?;
        Ok((LoadedBlock::new(info, data, reservation), ns))
    }

    /// Loads only the 4 KiB pages of block `b` needed to cover `vertices`
    /// (NosWalker's fine-grained mode, §3.3.1). Adjacent marked pages are
    /// merged into single contiguous reads, each charged separately — the
    /// IOPS side of the device model.
    ///
    /// Returns the sparse load and the *summed* service time.
    ///
    /// # Errors
    ///
    /// Fails if the budget cannot hold the marked pages or a read fails.
    ///
    /// # Panics
    ///
    /// Panics if any vertex is not in block `b`.
    pub fn load_fine(
        &self,
        b: BlockId,
        vertices: &[VertexId],
        budget: &Arc<MemoryBudget>,
    ) -> Result<(FineLoad, u64), LoadError> {
        let info = *self.partition.block(b);
        // Mark pages (the paper's bitmap, Fig. 7).
        let num_pages = info.num_fine_pages() as usize;
        let mut marked = vec![false; num_pages];
        for &v in vertices {
            assert!(info.contains_vertex(v), "vertex {v} not in block {b}");
            let r = self.vertex_byte_range(v);
            if r.is_empty() {
                continue;
            }
            let first = (r.start - info.byte_start) / FINE_PAGE_BYTES;
            let last = (r.end - 1 - info.byte_start) / FINE_PAGE_BYTES;
            for p in first..=last {
                marked[p as usize] = true;
            }
        }
        // Merge adjacent marked pages into runs.
        let mut runs: Vec<Range<u64>> = Vec::new();
        let mut p = 0;
        while p < num_pages {
            if marked[p] {
                let start = p;
                while p < num_pages && marked[p] {
                    p += 1;
                }
                let byte_start = info.byte_start + start as u64 * FINE_PAGE_BYTES;
                let byte_end = (info.byte_start + p as u64 * FINE_PAGE_BYTES).min(info.byte_end);
                runs.push(byte_start..byte_end);
            } else {
                p += 1;
            }
        }
        let total_bytes: u64 = runs.iter().map(|r| r.end - r.start).sum();
        let reservation = budget.try_reserve(total_bytes)?;
        let mut loaded = Vec::with_capacity(runs.len());
        let mut total_ns = 0u64;
        for r in runs {
            let mut buf = vec![0u8; (r.end - r.start) as usize];
            total_ns += self.device.read(self.base + r.start, &mut buf)?;
            loaded.push((r.start, buf));
        }
        Ok((FineLoad::new(info, loaded, reservation), total_ns))
    }
}

/// Errors from serializing a graph onto a device.
#[derive(Debug)]
pub enum StoreError {
    /// The edge format needs data the CSR does not carry.
    Layout(LayoutError),
    /// The device write failed.
    Device(DeviceError),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Layout(e) => write!(f, "store failed: {e}"),
            StoreError::Device(e) => write!(f, "store failed: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<LayoutError> for StoreError {
    fn from(e: LayoutError) -> Self {
        StoreError::Layout(e)
    }
}

impl From<DeviceError> for StoreError {
    fn from(e: DeviceError) -> Self {
        StoreError::Device(e)
    }
}

/// Errors from block/page loading.
#[derive(Debug)]
pub enum LoadError {
    /// The memory budget could not hold the buffer.
    Budget(noswalker_storage::BudgetExceeded),
    /// The device failed.
    Device(DeviceError),
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Budget(e) => write!(f, "load failed: {e}"),
            LoadError::Device(e) => write!(f, "load failed: {e}"),
        }
    }
}

impl std::error::Error for LoadError {}

impl From<noswalker_storage::BudgetExceeded> for LoadError {
    fn from(e: noswalker_storage::BudgetExceeded) -> Self {
        LoadError::Budget(e)
    }
}

impl From<DeviceError> for LoadError {
    fn from(e: DeviceError) -> Self {
        LoadError::Device(e)
    }
}

/// Re-exported for engines that need block descriptors.
pub use noswalker_graph::partition::BlockInfo as Block;

#[cfg(test)]
mod tests {
    use super::*;
    use noswalker_graph::generators;
    use noswalker_storage::{MemDevice, SimSsd, SsdProfile};

    fn graph_on_ssd(block_bytes: u64) -> (Csr, OnDiskGraph) {
        let csr = generators::uniform_degree(256, 8, 3);
        let device = Arc::new(SimSsd::new(SsdProfile::nvme_p4618()));
        let g = OnDiskGraph::store(&csr, device, block_bytes).unwrap();
        (csr, g)
    }

    #[test]
    fn store_preserves_shape() {
        let (csr, g) = graph_on_ssd(1024);
        assert_eq!(g.num_vertices(), csr.num_vertices());
        assert_eq!(g.num_edges(), csr.num_edges());
        assert_eq!(g.degree(10), csr.degree(10));
        assert!(g.num_blocks() > 1);
    }

    #[test]
    fn coarse_block_roundtrips_edges() {
        let (csr, g) = graph_on_ssd(1024);
        let budget = MemoryBudget::new(1 << 20);
        for b in 0..g.num_blocks() as BlockId {
            let (block, ns) = g.load_block(b, &budget).unwrap();
            assert!(ns > 0);
            let info = *g.partition().block(b);
            for v in info.vertex_start..info.vertex_end {
                let view = block.vertex_edges(&g, v).expect("vertex in block");
                assert_eq!(view.degree() as u64, csr.degree(v));
                for i in 0..view.degree() {
                    assert_eq!(view.target(i), csr.neighbors(v)[i]);
                }
            }
        }
    }

    #[test]
    fn block_load_charges_budget_and_releases() {
        let (_, g) = graph_on_ssd(1024);
        let budget = MemoryBudget::new(4096);
        let before = budget.in_use();
        {
            let (_block, _) = g.load_block(0, &budget).unwrap();
            assert!(budget.in_use() > before);
        }
        assert_eq!(budget.in_use(), before);
    }

    #[test]
    fn block_load_fails_on_tiny_budget() {
        let (_, g) = graph_on_ssd(1024);
        let budget = MemoryBudget::new(16);
        assert!(matches!(
            g.load_block(0, &budget),
            Err(LoadError::Budget(_))
        ));
    }

    #[test]
    fn fine_load_covers_requested_vertices_only() {
        let csr = generators::uniform_degree(8192, 8, 5);
        let device = Arc::new(SimSsd::new(SsdProfile::nvme_p4618()));
        let g = OnDiskGraph::store(&csr, device, 1 << 20).unwrap();
        let budget = MemoryBudget::new(1 << 20);
        let wanted = vec![100u32, 101, 5000];
        let (fine, ns) = g.load_fine(0, &wanted, &budget).unwrap();
        assert!(ns > 0);
        for &v in &wanted {
            let view = fine.vertex_edges(&g, v).expect("requested vertex loaded");
            assert_eq!(view.degree() as u64, csr.degree(v));
            for i in 0..view.degree() {
                assert_eq!(view.target(i), csr.neighbors(v)[i]);
            }
        }
        // A vertex far from any marked page is not available.
        assert!(fine.vertex_edges(&g, 3000).is_none());
        // Fine load must be much smaller than the whole block.
        let info = *g.partition().block(0);
        assert!(fine.loaded_bytes() < info.byte_len() / 4);
    }

    #[test]
    fn fine_load_merges_adjacent_pages() {
        let csr = generators::uniform_degree(8192, 8, 5);
        let device = Arc::new(SimSsd::new(SsdProfile::nvme_p4618()));
        let g = OnDiskGraph::store(&csr, device, 1 << 20).unwrap();
        let budget = MemoryBudget::new(1 << 20);
        // 200 consecutive vertices of degree 8 = 6.4 KB => 2-3 pages, 1 run.
        let wanted: Vec<u32> = (500..700).collect();
        let (fine, _) = g.load_fine(0, &wanted, &budget).unwrap();
        assert_eq!(fine.num_runs(), 1);
    }

    #[test]
    fn works_on_mem_device_with_zero_cost() {
        let csr = generators::uniform_degree(64, 4, 1);
        let device = Arc::new(MemDevice::new());
        let g = OnDiskGraph::store(&csr, device, 256).unwrap();
        let budget = MemoryBudget::unlimited();
        let (_, ns) = g.load_block(0, &budget).unwrap();
        assert_eq!(ns, 0);
    }
}
