//! Baseline random walk systems the paper compares NosWalker against.
//!
//! All baselines run the same [`noswalker_core::Walk`] applications over
//! the same [`noswalker_core::OnDiskGraph`] + simulated devices, so every
//! difference in the measured numbers comes from the *scheduling policy and
//! walker management* — exactly the variables the paper studies.
//!
//! | module | paper system | policy |
//! |---|---|---|
//! | [`drunkardmob`] | DrunkardMob (RecSys '13) | synchronous round-robin block streaming, one step per walker per epoch, all walker states pinned in memory |
//! | [`graphwalker`] | GraphWalker (ATC '20) | state-aware hottest-block-first loading, walk-as-far-as-possible re-entry, fixed walker buffer with disk swapping, synchronous buffered I/O |
//! | [`graphene`] | Graphene (FAST '17) | disk-order scan with on-demand 4 KiB page I/O, skipping walker-free blocks |
//! | [`grasorw`] | GraSorw (VLDB '22) | second-order bi-block scheduling over (location, candidate) block pairs |
//! | [`in_memory`] | ThunderRW (VLDB '21) | whole graph resident; separates load time from walk time |
//! | [`distributed`] | KnightKing (SOSP '19) | partitioned in-memory cluster with per-hop network messages |

#![warn(unused_crate_dependencies)]
#![allow(
    clippy::while_let_loop,
    reason = "walker-movement loops re-borrow the walker set mutably inside the body, \
              so clippy's `while let` suggestion does not compile there"
)]

pub mod common;
pub mod distributed;
pub mod drunkardmob;
pub mod graphene;
pub mod graphwalker;
pub mod grasorw;
pub mod in_memory;

pub use distributed::{DistributedSim, NetworkProfile};
pub use drunkardmob::DrunkardMob;
pub use graphene::Graphene;
pub use graphwalker::{GraphWalker, TracePoint};
pub use grasorw::GraSorw;
pub use in_memory::InMemory;

// The doc examples drive the baselines with `noswalker_apps` walks; the
// lint sees only the unit-test target, not the doctests.
#[cfg(test)]
use noswalker_apps as _;
