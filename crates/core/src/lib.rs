//! The NosWalker out-of-core random walk engine (the paper's contribution).
//!
//! NosWalker replaces the graph-oriented, block-centric scheduling that
//! existing out-of-core systems inherit from general graph frameworks with a
//! **decoupled, walker-oriented architecture** (paper §3):
//!
//! ```text
//!   device ──▶ block buffers ──▶ pre-sampled edge buffers ──▶ walker pools
//!             (a few, loaded       (compact (idx, cnt) CSR      (small, never
//!              hottest-first)       of sampled destinations)     swapped out)
//! ```
//!
//! * The **background loader** keeps a small number of block buffers full,
//!   hottest block first (Algorithm 1, `BackgroundBlockLoad`).
//! * Loading and walking are decoupled by the **pre-sampled edge buffers**
//!   ([`presample`]): when a block is resident, the engine draws *more*
//!   samples than currently needed and reserves the surplus — a succinct
//!   stand-in for the evicted edge data (§2.4.1).
//! * The **walker pool** ([`engine`]) holds only a bounded set of live
//!   walkers and generates new ones as old ones terminate, so walker state
//!   is never swapped to disk (§2.4.2).
//! * When walkers grow sparse the engine switches to **fine-grained 4 KiB
//!   I/O** targeted at stalled vertices (§3.3.1), trading bandwidth for
//!   IOPS to beat the long tail.
//! * Second-order walks (Node2Vec) run through **rejection sampling**
//!   (Appendix A): pre-samples serve as uniform candidates and the
//!   accept/reject test is deferred until the candidate's block is loaded.
//!
//! Applications implement the four-function programming model of §3.2
//! ([`Walk`]: `generate` / `sample` / `is_active` / `action`, plus
//! [`SecondOrderWalk::rejection`] for second-order tasks) and run unchanged
//! on NosWalker and on every baseline engine in `noswalker-baselines`.
//!
//! # Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use noswalker_core::{apps_prelude::*, EngineOptions, NosWalkerEngine, OnDiskGraph};
//! use noswalker_graph::generators;
//! use noswalker_storage::{MemoryBudget, SimSsd, SsdProfile};
//!
//! // A tiny basic random walk: 100 walkers of length 5.
//! #[derive(Debug)]
//! struct Basic;
//! #[derive(Debug, Clone)]
//! struct W { at: u32, step: u32 }
//! impl Walk for Basic {
//!     type Walker = W;
//!     fn total_walkers(&self) -> u64 { 100 }
//!     fn generate(&self, n: u64, _rng: &mut WalkRng) -> W {
//!         W { at: (n % 64) as u32, step: 0 }
//!     }
//!     fn location(&self, w: &W) -> u32 { w.at }
//!     fn is_active(&self, w: &W) -> bool { w.step < 5 }
//!     fn sample(&self, v: &VertexEdges<'_>, rng: &mut WalkRng) -> u32 {
//!         uniform_sample(v, rng)
//!     }
//!     fn action(&self, w: &mut W, next: u32, _rng: &mut WalkRng) -> bool {
//!         w.at = next;
//!         w.step += 1;
//!         true
//!     }
//! }
//!
//! let csr = generators::uniform_degree(64, 4, 7);
//! let device = Arc::new(SimSsd::new(SsdProfile::nvme_p4618()));
//! let graph = Arc::new(OnDiskGraph::store(&csr, device, 512)?);
//! let budget = MemoryBudget::new(64 << 10);
//! let engine = NosWalkerEngine::new(Arc::new(Basic), graph, EngineOptions::default(), budget);
//! let metrics = engine.run(42)?;
//! assert_eq!(metrics.steps, 500);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(unused_crate_dependencies)]
#![allow(
    clippy::while_let_loop,
    reason = "the engine's walker-movement loops re-borrow the slab mutably inside the body, \
              so clippy's `while let` suggestion does not compile there"
)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![cfg_attr(test, allow(clippy::disallowed_types, reason = "test code is exempt"))]

pub mod audit;
pub mod block;
pub mod clock;
pub mod disk_graph;
pub mod engine;
pub mod kernel;
pub mod ledger;
pub mod metrics;
pub mod options;
pub mod parallel;
pub mod presample;
pub mod query;
pub mod threaded;
pub mod walk;

pub use audit::{
    audit_handoffs, audit_queries, AuditReport, MemorySink, RunAudit, Trace, TraceEvent, TraceSink,
};
pub use block::{BlockCache, FineLoad, LoadedBlock};
pub use clock::{ModelClock, PipelineClock, TickClock, WallTimer};
pub use disk_graph::{OnDiskGraph, StoreError};
pub use engine::{
    retire_walker, spawn_walker, walk_resident, walk_resident_2nd, Draw, EngineError,
    NosWalkerEngine, Resident, Source, Stop,
};
pub use kernel::{Backend, ParallelKernel, RoundOutcome, SequentialKernel, StepKernel};
pub use ledger::Ledger;
pub use metrics::{LatencyHistogram, RunMetrics, StepSource};
pub use options::EngineOptions;
pub use query::{
    BufferedQuerySource, QueryId, QuerySource, QuerySpec, QueryStats, StaticQuerySource,
};
pub use walk::{uniform_sample, SecondOrderWalk, Walk, WalkRng};

/// Convenience prelude for implementing applications.
pub mod apps_prelude {
    pub use crate::walk::{uniform_sample, SecondOrderWalk, Walk, WalkRng};
    pub use noswalker_graph::layout::VertexEdges;
    pub use noswalker_graph::VertexId;
}
