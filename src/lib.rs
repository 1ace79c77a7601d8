//! # NosWalker (reproduction)
//!
//! Facade crate re-exporting the whole NosWalker reproduction workspace:
//! a decoupled out-of-core random walk system (ASPLOS 2023) together with
//! the substrates (graph + simulated storage), baseline systems, and
//! applications it is evaluated against.
//!
//! Start with [`core::NosWalkerEngine`] or the `examples/` directory.

pub use noswalker_apps as apps;
pub use noswalker_baselines as baselines;
pub use noswalker_core as core;
pub use noswalker_graph as graph;
pub use noswalker_serve as serve;
pub use noswalker_shard as shard;
pub use noswalker_storage as storage;
