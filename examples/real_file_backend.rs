//! Running NosWalker against a *real* file instead of the simulated SSD.
//!
//! ```text
//! cargo run --release --example real_file_backend
//! ```
//!
//! Everything else is identical — [`noswalker::storage::FileDevice`]
//! implements the same `Device` trait, with wall-clock service times.
//! Simulated time then reflects real I/O latencies (including your page
//! cache, so expect fast re-runs).

use noswalker::apps::BasicRw;
use noswalker::core::{EngineOptions, NosWalkerEngine, OnDiskGraph};
use noswalker::graph::generators::{self, RmatParams};
use noswalker::storage::{FileDevice, MemoryBudget};
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let csr = generators::rmat(14, 16, RmatParams::default(), 3);
    let mut path = std::env::temp_dir();
    path.push(format!("noswalker-example-{}.graph", std::process::id()));
    println!("storing edge region in {}", path.display());

    let device = Arc::new(FileDevice::create(&path)?);
    let graph = Arc::new(OnDiskGraph::store(
        &csr,
        device,
        csr.edge_region_bytes() / 32,
    )?);
    let budget = MemoryBudget::new(csr.edge_region_bytes() / 8);
    let app = Arc::new(BasicRw::new(50_000, 10, csr.num_vertices()));

    let engine = NosWalkerEngine::new(app, Arc::clone(&graph), EngineOptions::default(), budget);
    let m = engine.run(5)?;
    println!(
        "steps: {}  real I/O: {} MiB in {} ops  wall: {:.3}s",
        m.steps,
        m.edge_bytes_loaded >> 20,
        m.io_ops,
        m.wall_ns as f64 / 1e9,
    );
    let stats = graph.device().stats();
    println!(
        "device counters: {} reads / {} KiB read, {} writes / {} KiB written",
        stats.read_ops,
        stats.read_bytes >> 10,
        stats.write_ops,
        stats.write_bytes >> 10,
    );

    // Bonus: a *real* background loader thread (the paper's Fig. 6 ①) —
    // prefetch the first blocks off the file while the main thread works.
    let loader = noswalker::core::threaded::BackgroundLoader::spawn(
        Arc::clone(&graph),
        noswalker::storage::MemoryBudget::new(1 << 20),
        4,
    );
    for b in 0..4u32 {
        loader.request(noswalker::core::threaded::LoadRequest::Coarse(b))?;
    }
    let mut prefetched = 0u64;
    for _ in 0..4 {
        let loaded = loader.recv()?;
        prefetched += loaded.edges.bytes();
    }
    println!(
        "background loader prefetched {} KiB over 4 blocks",
        prefetched >> 10
    );
    std::fs::remove_file(&path).ok();
    Ok(())
}
