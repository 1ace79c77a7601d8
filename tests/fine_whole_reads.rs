//! Fine mode reads a block whole only when the refill after that load
//! builds the block's next whole-block pre-sample generation: in every
//! traced run below, each `CoarseLoad` issued after the fine-mode switch
//! is followed by a `PresampleRefill` of the same block before that block
//! is loaded again.

use noswalker::apps::{BasicRw, Node2Vec};
use noswalker::core::audit::{MemorySink, TraceEvent};
use noswalker::core::{EngineOptions, NosWalkerEngine, OnDiskGraph};
use noswalker::graph::generators::{self, RmatParams};
use noswalker::graph::Csr;
use noswalker::storage::{MemoryBudget, SimSsd, SsdProfile};
use std::sync::Arc;

fn on_device(csr: &Csr, block_bytes: u64) -> Arc<OnDiskGraph> {
    let device = Arc::new(SimSsd::new(SsdProfile::nvme_p4618()));
    Arc::new(OnDiskGraph::store(csr, device, block_bytes).unwrap())
}

/// Checks the rule on one trace; returns how many whole-block reads fine
/// mode made.
fn whole_reads_are_refilled(label: &str, events: &[TraceEvent]) -> usize {
    let switch = events
        .iter()
        .position(|e| matches!(e, TraceEvent::FineModeSwitch { .. }))
        .unwrap_or_else(|| panic!("{label}: fine mode never engaged"));
    let mut whole = 0;
    for (i, e) in events.iter().enumerate().skip(switch) {
        let TraceEvent::CoarseLoad { block, .. } = *e else {
            continue;
        };
        whole += 1;
        let refilled = events[i + 1..]
            .iter()
            .find_map(|later| match *later {
                TraceEvent::PresampleRefill { block: b, .. } if b == block => Some(true),
                TraceEvent::CoarseLoad { block: b, .. } | TraceEvent::FineLoad { block: b, .. }
                    if b == block =>
                {
                    Some(false)
                }
                _ => None,
            })
            .unwrap_or(false);
        assert!(
            refilled,
            "{label}: whole read of block {block} (event {i}) was not refilled"
        );
    }
    whole
}

#[test]
fn fine_mode_reads_whole_only_to_refill() {
    let mut whole = 0;

    // Few walkers from the start: fine mode before the first load.
    let csr = generators::rmat(15, 16, RmatParams::default(), 5);
    let mut opts = EngineOptions::full();
    opts.walker_pool_size = 64;
    let app = Arc::new(BasicRw::new(50, 10, csr.num_vertices()));
    let engine = NosWalkerEngine::new(
        app,
        on_device(&csr, 64 << 10),
        opts,
        MemoryBudget::new(512 << 10),
    );
    let mut sink = MemorySink::new();
    engine.run_with_sink(9, Some(&mut sink)).unwrap();
    whole += whole_reads_are_refilled("sparse first-order", &sink.events);

    // Long walks: the switch comes mid-run, with generations in place.
    let csr = generators::rmat(15, 16, RmatParams::default(), 55);
    let app = Arc::new(BasicRw::new(40, 80, csr.num_vertices()));
    let graph = on_device(&csr, csr.edge_region_bytes() / 32);
    let budget = MemoryBudget::new(csr.edge_region_bytes() / 4);
    let engine = NosWalkerEngine::new(app, graph, EngineOptions::default(), budget);
    let mut sink = MemorySink::new();
    engine.run_with_sink(29, Some(&mut sink)).unwrap();
    whole += whole_reads_are_refilled("long first-order", &sink.events);

    // Second order: candidate checks load blocks too.
    let csr = generators::rmat(10, 8, RmatParams::default(), 21).to_undirected();
    let app = Arc::new(Node2Vec::new(csr.num_vertices(), 2, 8, 2.0, 0.5));
    let graph = on_device(&csr, csr.edge_region_bytes() / 16);
    let budget = MemoryBudget::new(csr.edge_region_bytes() / 4);
    let engine = NosWalkerEngine::new(app, graph, EngineOptions::default(), budget);
    let mut sink = MemorySink::new();
    engine
        .run_second_order_with_sink(5, Some(&mut sink))
        .unwrap();
    whole += whole_reads_are_refilled("second-order", &sink.events);

    assert!(whole >= 3, "only {whole} whole-block reads in fine mode");
}
