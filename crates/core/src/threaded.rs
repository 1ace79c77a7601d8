//! A real background block loader thread.
//!
//! The simulation engines model the paper's background I/O thread with the
//! deterministic [`crate::PipelineClock`]; when running against *real*
//! storage (a [`noswalker_storage::FileDevice`]), this module provides the
//! genuine article: a dedicated thread that services load requests — whole
//! coarse blocks, or 4 KiB page batches once walkers are sparse (§3.3.1) —
//! through a bounded channel, overlapping actual disk reads with walker
//! processing (paper Fig. 6, ①). Results come back in request order.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use noswalker_core::threaded::{BackgroundLoader, LoadRequest};
//! use noswalker_core::OnDiskGraph;
//! use noswalker_graph::generators;
//! use noswalker_storage::{MemDevice, MemoryBudget};
//!
//! let csr = generators::uniform_degree(256, 4, 1);
//! let graph = Arc::new(OnDiskGraph::store(&csr, Arc::new(MemDevice::new()), 256)?);
//! let budget = MemoryBudget::new(1 << 20);
//! let loader = BackgroundLoader::spawn(Arc::clone(&graph), budget, 2);
//! loader.request(LoadRequest::Coarse(0))?;
//! loader.request(LoadRequest::Fine(1, vec![20]))?;
//! assert_eq!(loader.recv()?.edges.info().id, 0);
//! let fine = loader.recv()?.edges;
//! assert!(fine.vertex_edges(&graph, 20).is_some());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::block::{FineLoad, LoadedBlock};
use crate::disk_graph::{LoadError, OnDiskGraph};
use crossbeam::channel::{bounded, Receiver, Sender};
use noswalker_graph::layout::VertexEdges;
use noswalker_graph::partition::{BlockId, BlockInfo};
use noswalker_graph::VertexId;
use noswalker_storage::MemoryBudget;
use std::ops::Range;
use std::sync::Arc;
use std::thread::JoinHandle;

/// What to read.
#[derive(Debug, Clone)]
pub enum LoadRequest {
    /// A whole coarse block.
    Coarse(BlockId),
    /// The 4 KiB pages holding the listed vertices of one block.
    Fine(BlockId, Vec<VertexId>),
}

/// Loaded edge data: what the loader delivers for one [`LoadRequest`],
/// and what every engine walks on and builds pre-samples from.
#[derive(Debug)]
pub enum Edges {
    /// A whole coarse block, shared with the block cache that holds it.
    Coarse(Arc<LoadedBlock>),
    /// A fine page batch and the vertices it was read for.
    Fine(FineLoad, Vec<VertexId>),
}

impl Edges {
    /// The block descriptor.
    pub fn info(&self) -> &BlockInfo {
        match self {
            Edges::Coarse(b) => b.info(),
            Edges::Fine(f, _) => f.info(),
        }
    }

    /// Decodes vertex `v`'s out-edges, or `None` if they were not loaded.
    pub fn vertex_edges<'a>(&'a self, graph: &OnDiskGraph, v: VertexId) -> Option<VertexEdges<'a>> {
        self.run_edges(graph, v..v + 1)
    }

    /// Bytes read from the device.
    pub fn bytes(&self) -> u64 {
        match self {
            Edges::Coarse(b) => b.info().byte_len(),
            Edges::Fine(f, _) => f.loaded_bytes(),
        }
    }

    /// Decodes the out-edges of the consecutive vertices `vs` as one view,
    /// or `None` if they were not all loaded in one piece.
    pub fn run_edges(&self, graph: &OnDiskGraph, vs: Range<VertexId>) -> Option<VertexEdges<'_>> {
        match self {
            Edges::Coarse(b) => b.run_edges(graph, vs),
            Edges::Fine(f, _) => f.run_edges(graph, vs),
        }
    }
}

/// A completed background load.
#[derive(Debug)]
pub struct Loaded {
    /// The loaded edges.
    pub edges: Edges,
    /// Device service time reported for the read, in nanoseconds.
    pub service_ns: u64,
}

/// Errors from interacting with the loader.
#[derive(Debug)]
pub enum LoaderError {
    /// The loader thread has shut down.
    Disconnected,
    /// The load itself failed.
    Load(LoadError),
}

impl std::fmt::Display for LoaderError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoaderError::Disconnected => write!(f, "background loader has shut down"),
            LoaderError::Load(e) => write!(f, "background load failed: {e}"),
        }
    }
}

impl std::error::Error for LoaderError {}

/// Handle to a background loader thread.
///
/// Dropping the handle shuts the thread down after in-flight requests
/// drain. Up to `queue_depth` requests may be outstanding; further
/// [`BackgroundLoader::request`] calls block — which is exactly the
/// back-pressure a small block-buffer set implies.
#[derive(Debug)]
pub struct BackgroundLoader {
    requests: Sender<LoadRequest>,
    results: Receiver<Result<Loaded, LoadError>>,
    handle: Option<JoinHandle<()>>,
}

impl BackgroundLoader {
    /// Spawns the loader thread.
    ///
    /// # Panics
    ///
    /// Panics if `queue_depth` is zero.
    pub fn spawn(graph: Arc<OnDiskGraph>, budget: Arc<MemoryBudget>, queue_depth: usize) -> Self {
        assert!(queue_depth > 0, "queue depth must be positive");
        let (req_tx, req_rx) = bounded::<LoadRequest>(queue_depth);
        let (res_tx, res_rx) = bounded::<Result<Loaded, LoadError>>(queue_depth);
        #[expect(clippy::disallowed_methods, reason = "sanctioned spawn: block loader")]
        #[expect(clippy::expect_used, reason = "spawn fails only on OS exhaustion")]
        let handle = std::thread::Builder::new()
            .name("noswalker-loader".into())
            .spawn(move || {
                while let Ok(req) = req_rx.recv() {
                    let out = match req {
                        LoadRequest::Coarse(b) => graph
                            .load_block(b, &budget)
                            .map(|(block, ns)| (Edges::Coarse(Arc::new(block)), ns)),
                        LoadRequest::Fine(b, verts) => graph
                            .load_fine(b, &verts, &budget)
                            .map(|(load, ns)| (Edges::Fine(load, verts), ns)),
                    }
                    .map(|(edges, service_ns)| Loaded { edges, service_ns });
                    if res_tx.send(out).is_err() {
                        break; // receiver gone: shut down
                    }
                }
            })
            .expect("spawning the loader thread");
        BackgroundLoader {
            requests: req_tx,
            results: res_rx,
            handle: Some(handle),
        }
    }

    /// Enqueues a load; blocks when the queue is full.
    ///
    /// # Errors
    ///
    /// [`LoaderError::Disconnected`] if the thread has exited.
    pub fn request(&self, req: LoadRequest) -> Result<(), LoaderError> {
        self.requests
            .send(req)
            .map_err(|_| LoaderError::Disconnected)
    }

    /// Enqueues a load only if the queue has space right now.
    ///
    /// Returns `Ok(true)` when the request was enqueued and `Ok(false)`
    /// when the queue is full — the caller should retry later rather than
    /// stall. This is what opportunistic prefetching wants: topping up the
    /// in-flight window must never block the dispatch loop.
    ///
    /// # Errors
    ///
    /// [`LoaderError::Disconnected`] if the thread has exited.
    pub fn try_request(&self, req: LoadRequest) -> Result<bool, LoaderError> {
        match self.requests.try_send(req) {
            Ok(()) => Ok(true),
            Err(crossbeam::channel::TrySendError::Full(_)) => Ok(false),
            Err(crossbeam::channel::TrySendError::Disconnected(_)) => {
                Err(LoaderError::Disconnected)
            }
        }
    }

    /// Waits for the next completed load.
    ///
    /// # Errors
    ///
    /// [`LoaderError::Load`] if the load failed;
    /// [`LoaderError::Disconnected`] if the thread has exited.
    pub fn recv(&self) -> Result<Loaded, LoaderError> {
        match self.results.recv() {
            Ok(Ok(l)) => Ok(l),
            Ok(Err(e)) => Err(LoaderError::Load(e)),
            Err(_) => Err(LoaderError::Disconnected),
        }
    }

    /// Returns a completed load if one is ready, without blocking.
    ///
    /// # Errors
    ///
    /// As for [`BackgroundLoader::recv`]; `Ok(None)` when nothing is ready.
    pub fn try_recv(&self) -> Result<Option<Loaded>, LoaderError> {
        match self.results.try_recv() {
            Ok(Ok(l)) => Ok(Some(l)),
            Ok(Err(e)) => Err(LoaderError::Load(e)),
            Err(crossbeam::channel::TryRecvError::Empty) => Ok(None),
            Err(crossbeam::channel::TryRecvError::Disconnected) => Err(LoaderError::Disconnected),
        }
    }
}

impl Drop for BackgroundLoader {
    fn drop(&mut self) {
        // Close the request channel so the thread's recv() loop ends, then
        // drain any in-flight results so its send() cannot block forever.
        let (tx, _) = bounded::<LoadRequest>(1);
        let _ = std::mem::replace(&mut self.requests, tx);
        while let Ok(Some(_)) = self.try_recv() {}
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noswalker_graph::generators;
    use noswalker_storage::{MemDevice, SimSsd, SsdProfile};

    fn setup() -> (Arc<OnDiskGraph>, Arc<MemoryBudget>) {
        let csr = generators::uniform_degree(1024, 8, 3);
        let device = Arc::new(SimSsd::new(SsdProfile::nvme_p4618()));
        let graph = Arc::new(OnDiskGraph::store(&csr, device, 2048).unwrap());
        (graph, MemoryBudget::new(1 << 20))
    }

    #[test]
    fn loads_requested_blocks_in_order() {
        let (graph, budget) = setup();
        let loader = BackgroundLoader::spawn(Arc::clone(&graph), budget, 4);
        for b in 0..4u32 {
            loader.request(LoadRequest::Coarse(b)).unwrap();
        }
        for b in 0..4u32 {
            let loaded = loader.recv().unwrap();
            assert_eq!(loaded.edges.info().id, b);
            assert!(loaded.service_ns > 0);
        }
    }

    #[test]
    fn try_recv_is_nonblocking() {
        let (graph, budget) = setup();
        let loader = BackgroundLoader::spawn(graph, budget, 2);
        // Nothing requested yet: either empty or, never, an error.
        assert!(matches!(loader.try_recv(), Ok(None)));
        loader.request(LoadRequest::Coarse(1)).unwrap();
        // Eventually the result arrives.
        let mut spins = 0;
        loop {
            match loader.try_recv().unwrap() {
                Some(l) => {
                    assert_eq!(l.edges.info().id, 1);
                    break;
                }
                None => {
                    spins += 1;
                    assert!(spins < 1_000_000, "loader never produced the block");
                    std::hint::spin_loop();
                }
            }
        }
    }

    #[test]
    fn try_request_reports_full_without_blocking() {
        let (graph, budget) = setup();
        let loader = BackgroundLoader::spawn(graph, budget, 1);
        // Saturate the depth-1 request queue. The loader thread may have
        // already dequeued the first request, so a second attempt can
        // also succeed — keep pushing until one reports Full.
        let mut accepted = 0;
        loop {
            match loader.try_request(LoadRequest::Coarse(0)).unwrap() {
                true => {
                    accepted += 1;
                    assert!(accepted < 1_000, "queue never filled");
                }
                false => break,
            }
        }
        assert!(accepted >= 1);
        // Every accepted request completes.
        for _ in 0..accepted {
            loader.recv().unwrap();
        }
    }

    #[test]
    fn budget_failures_surface_as_errors() {
        let csr = generators::uniform_degree(1024, 8, 3);
        let graph = Arc::new(OnDiskGraph::store(&csr, Arc::new(MemDevice::new()), 2048).unwrap());
        let budget = MemoryBudget::new(16); // cannot hold any block
        let loader = BackgroundLoader::spawn(graph, budget, 1);
        loader.request(LoadRequest::Coarse(0)).unwrap();
        assert!(matches!(loader.recv(), Err(LoaderError::Load(_))));
    }

    #[test]
    fn coarse_and_fine_requests_come_back_in_fifo_order() {
        // 16 KiB blocks, so a two-vertex batch reads a fraction of one.
        let csr = generators::uniform_degree(1024, 8, 3);
        let device = Arc::new(SimSsd::new(SsdProfile::nvme_p4618()));
        let graph = Arc::new(OnDiskGraph::store(&csr, device, 16 << 10).unwrap());
        let loader = BackgroundLoader::spawn(Arc::clone(&graph), MemoryBudget::new(1 << 20), 4);
        let fine = |b: BlockId| {
            let start = graph.partition().block(b).vertex_start;
            LoadRequest::Fine(b, vec![start, start + 3])
        };
        let reqs = [
            LoadRequest::Coarse(0),
            fine(1),
            LoadRequest::Coarse(1),
            fine(0),
        ];
        for r in &reqs {
            loader.request(r.clone()).unwrap();
        }
        for r in &reqs {
            let loaded = loader.recv().unwrap();
            let id = loaded.edges.info().id;
            match (r, &loaded.edges) {
                (LoadRequest::Coarse(b), Edges::Coarse(_)) => assert_eq!(*b, id),
                (LoadRequest::Fine(b, want), Edges::Fine(load, got)) => {
                    assert_eq!(*b, id);
                    assert_eq!(want, got);
                    assert!(load.loaded_bytes() < loaded.edges.info().byte_len());
                    for &v in want {
                        assert!(loaded.edges.vertex_edges(&graph, v).is_some());
                    }
                }
                (r, e) => panic!("{r:?} answered with {e:?}"),
            }
            assert!(loaded.service_ns > 0);
        }
    }

    #[test]
    fn fine_request_over_budget_surfaces_as_load_error() {
        let csr = generators::uniform_degree(1024, 8, 3);
        let graph = Arc::new(OnDiskGraph::store(&csr, Arc::new(MemDevice::new()), 2048).unwrap());
        let budget = MemoryBudget::new(16); // cannot hold one 4 KiB page
        let loader = BackgroundLoader::spawn(graph, budget, 1);
        loader.request(LoadRequest::Fine(0, vec![0])).unwrap();
        assert!(matches!(loader.recv(), Err(LoaderError::Load(_))));
    }

    #[test]
    fn drop_shuts_the_thread_down() {
        let (graph, budget) = setup();
        let loader = BackgroundLoader::spawn(graph, budget, 2);
        loader.request(LoadRequest::Coarse(0)).unwrap();
        drop(loader); // must not hang
    }

    #[test]
    fn overlaps_with_foreground_work() {
        let (graph, budget) = setup();
        let loader = BackgroundLoader::spawn(Arc::clone(&graph), budget, 2);
        loader.request(LoadRequest::Coarse(2)).unwrap();
        // Foreground "compute" while the loader works.
        let mut acc = 0u64;
        for i in 0..10_000u64 {
            acc = acc.wrapping_add(i * i);
        }
        assert!(acc > 0);
        let loaded = loader.recv().unwrap();
        let view = loaded
            .edges
            .vertex_edges(&graph, loaded.edges.info().vertex_start);
        assert!(view.is_some());
    }
}
