//! Online multi-query walk serving on top of the NosWalker engine.
//!
//! The paper's property (b) — walkers are independent and the engine only
//! needs a handful runnable at once, generating new ones as old ones
//! terminate (Algorithm 1) — makes the offline engine directly usable as
//! the backend of an *online* service: queries (PPR, RWR, DeepWalk corpus
//! slices, plain walks) arrive continuously and are multiplexed into the
//! same bounded walker pool instead of being batched up front.
//!
//! The subsystem decomposes into three layers:
//!
//! ```text
//!   QuerySource ──▶ AdmissionController ──▶ ServeEngine ──▶ ServeReport
//!   (arrivals)      (bounded pending queue,  (round-based     (per-query
//!                    EDF-then-FIFO order,     multiplexing     outcomes,
//!                    reject-with-retry-after, over the pooled  per-class
//!                    stall-rate shedding)     engine)          histograms)
//! ```
//!
//! * [`admission::AdmissionController`] holds the *admitted but not yet
//!   running* queries. It is itself a [`noswalker_core::QuerySource`], so
//!   the engine activates queries by pulling from it; a full queue or a
//!   stalling pre-sample pool sheds new arrivals with an explicit
//!   retry-after hint instead of queueing without bound.
//! * [`app::RoundApp`] multiplexes every active query's walkers into one
//!   [`noswalker_core::Walk`] application per serving round. Deadline
//!   enforcement happens *inside* the walk: a query that exhausts its
//!   modeled step allowance flips a cancelled flag, and the engine retires
//!   its remaining walkers through the `walkers_cancelled` path.
//! * [`engine::ServeEngine`] owns the deterministic
//!   [`noswalker_core::ModelClock`], drives rounds to completion, merges
//!   per-round [`noswalker_core::RunMetrics`], tracks per-class latency
//!   histograms, and emits the `Query*` trace events checked by
//!   `noswalker_core::audit`.
//!
//! The round loop itself lives in [`tick::TickCore`], a mode-agnostic
//! state machine shared by every serving driver: [`engine::ServeEngine`]
//! (lockstep, unsharded), the shard plane in `noswalker-shard` (lockstep,
//! N lanes), and [`realtime::RealtimeServer`] (an autonomous background
//! thread ticking against the wall clock, with a bounded command ingress
//! and a streamed result egress).
//!
//! Determinism is load-bearing: outside the explicitly wall-clocked
//! [`realtime`] module, no code in this crate reads the host clock or
//! sleeps (`crates/serve/clippy.toml` bans both) — latency is modeled from
//! each round's deterministic `advance_ns` charge, and walker movement
//! draws only walker-private randomness, so a replayed trace produces
//! identical reports on every [`Backend`]. The realtime driver reuses the
//! same state machine and confines wall time to pacing, which is why a
//! replayed ingress trace under a scripted clock is bit-identical to a
//! lockstep run (the `serve_realtime` parity test pins this).

#![warn(unused_crate_dependencies)]

// `rand` is a dependency only the unit tests use. It stays in
// `[dependencies]` until the benchmark's lockfile can drop it with it
// (ROADMAP item 7).
use rand as _;

pub mod admission;
pub mod app;
pub mod engine;
pub mod realtime;
pub mod tick;
pub mod trace;

pub use admission::{Admission, AdmissionController, AdmissionOptions};
pub use app::{
    query_stream_seed, walker_stream_seed, QueryClass, QueryTable, RoundApp, ServeWalker,
};
pub use engine::{QueryOutcome, ServeEngine, ServeError, ServeOptions, ServeReport};
pub use noswalker_core::Backend;
pub use realtime::{
    IngressError, IngressMode, IngressSender, RealtimeHandle, RealtimeOptions, RealtimeServer,
    ServeSnapshot, WallClock,
};
pub use tick::{LaneConfig, LaneRouter, SingleLane, Tick, TickCore, TickReport};
pub use trace::{parse_script, render_report, ScriptError};
