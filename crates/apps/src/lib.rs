//! The paper's random walk applications, expressed once against the
//! [`noswalker_core::Walk`] programming model and runnable unchanged on
//! NosWalker and on every baseline engine.
//!
//! | module | paper workload (§4.2, §4.4, §4.5) |
//! |---|---|
//! | [`basic`] | Basic-RW: N walkers of fixed length, uniform sampling |
//! | [`ppr`] | Personalized PageRank: 2000 walks × length 10 per query source |
//! | [`simrank`] | SimRank: 2000 walk pairs × length 11, expected meeting time |
//! | [`rwd`] | Random Walk Domination: one length-6 walker per vertex |
//! | [`rwr`] | Random Walk with Restart: teleporting PPR (cited by the paper) |
//! | [`community`] | Network Community Profiling: PPR sweep + conductance (cited by the paper) |
//! | [`graphlet`] | Graphlet Concentration: \|V\|/100 walkers × length 3, triangle ratio |
//! | [`deepwalk`] | DeepWalk sequence extraction (walks per vertex, collected paths) |
//! | [`weighted`] | Weighted random walk over alias-table edge data (K30W) |
//! | [`node2vec`] | Node2Vec second-order walk via rejection sampling (Appendix A) |

#![warn(unused_crate_dependencies)]
#![allow(
    clippy::disallowed_types,
    reason = "applications keep per-vertex atomic tallies that any worker thread may bump"
)]

pub mod basic;
pub mod community;
pub mod deepwalk;
pub mod graphlet;
pub mod node2vec;
pub mod ppr;
pub mod rwd;
pub mod rwr;
pub mod simrank;
pub mod weighted;

pub use basic::BasicRw;
pub use community::CommunityProfiling;
pub use deepwalk::DeepWalk;
pub use graphlet::GraphletConcentration;
pub use node2vec::Node2Vec;
pub use ppr::Ppr;
pub use rwd::RandomWalkDomination;
pub use rwr::RandomWalkWithRestart;
pub use simrank::SimRank;
pub use weighted::WeightedRw;
