//! Sharded serve plane: partition-aware multi-shard serving with
//! cross-shard walker handoff.
//!
//! The paper's decoupling (walkers are a few words of mobile state, never
//! swapped to disk) makes horizontal scaling almost free: a shard needs
//! only a *handoff channel*, not a distributed graph store. This crate
//! builds an N-shard serve plane on top of the single-shard
//! [`noswalker_serve::ServeEngine`] machinery:
//!
//! ```text
//!   arrivals ─▶ router ─▶ shard 0: device ▸ sub-CSR ▸ kernel ▸ pool ┐
//!               (start    shard 1: device ▸ sub-CSR ▸ kernel ▸ pool ┼▶ merged
//!                vertex)      …                                     │  report
//!                          shard N: device ▸ sub-CSR ▸ kernel ▸ pool ┘
//!                              ▲ per-destination handoff queues ▼
//! ```
//!
//! * **Placement** reuses the coarse-block partitioner:
//!   `Partition::shard_ranges` carves the vertex space into N contiguous,
//!   byte-balanced ranges. Each shard stores a sub-CSR that keeps the
//!   *full* vertex-id space (so vertex ids, degrees-at-owned-vertices and
//!   RWR teleport targets are globally meaningful) but holds edges only
//!   for its owned range, on its own simulated device.
//! * **Routing** is a deterministic range lookup ([`ShardRouter`]): a
//!   query is admitted on the shard owning its first walker's start
//!   vertex; no hash maps anywhere (`crates/clippy.toml`, rule L9).
//! * **Handoff**: a walker that steps across a partition boundary goes
//!   inactive on its shard, retires through the engine's cancellation
//!   path (keeping each kernel round's walker-completion law balanced),
//!   and is parked in a per-destination queue. Next round the owning
//!   shard re-admits it with its full state — vertex, step count, private
//!   RNG stream — intact, so a walker's trajectory is identical whether
//!   or not it ever crossed a boundary. The plane enforces the exact
//!   conservation law `walkers_emigrated == walkers_immigrated +
//!   in_flight` ([`noswalker_core::audit_handoffs`]) after every round.
//! * **Clock**: each round advances the shared [`noswalker_core::ModelClock`]
//!   by the *maximum* of the shards' deterministic `advance_ns` charges —
//!   shards work in parallel in the model, which is why an overloaded
//!   plane serves more queries per modeled second with more shards.
//!
//! With one shard the plane degenerates to exactly the unsharded engine:
//! same admission decisions, same round carving, same walker streams —
//! the `N = 1` parity test asserts the reports are bit-identical.

#![warn(unused_crate_dependencies)]

pub mod plane;
pub mod router;
pub mod subgraph;

pub use plane::{ShardPlane, ShardReport};
pub use router::ShardRouter;
pub use subgraph::shard_subgraph;
