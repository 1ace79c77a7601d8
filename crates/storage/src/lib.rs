//! Storage substrate for the NosWalker reproduction.
//!
//! The paper evaluates on real NVMe hardware (an Intel P4618 SSD and a
//! 7-disk RAID-0 of S4610s) under a cgroups memory cap. This crate
//! substitutes deterministic simulations with the same *economics*:
//!
//! * [`Device`] — the byte-addressed block device abstraction every engine
//!   reads graph data through. Each operation returns its **service time**
//!   in simulated nanoseconds, so engines can build deterministic pipeline
//!   models (overlapping or not overlapping I/O with compute).
//! * [`SimSsd`] — an SSD with the two-sided cost model the paper measures
//!   (§3.3.1): sequential reads bounded by bandwidth, small random reads
//!   bounded by IOPS; `max(len/bandwidth, 1/IOPS)` per operation.
//! * [`Raid0`] — striping composition used for the multi-SSD experiments
//!   (Fig. 12 b/c): high aggregate bandwidth, low aggregate IOPS profiles
//!   are expressible either as a profile or a true striped array.
//! * [`FileDevice`] — a real file-backed device for out-of-simulation runs
//!   (used by the examples); charges wall-clock, not simulated, time.
//! * [`MemoryBudget`] — the cgroups stand-in: engines reserve every buffer
//!   against a byte budget and must evict when it is exhausted.
//! * [`IoStats`] — per-device counters (ops, bytes, busy time) that the
//!   benchmark harness diffs around each run.

#![warn(unused_crate_dependencies)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![cfg_attr(
    test,
    allow(clippy::disallowed_methods, reason = "test code is exempt")
)]

pub mod budget;
pub mod device;
pub mod file;
pub mod raid;
pub mod sim;

pub use budget::{BudgetExceeded, MemoryBudget, Reservation};
pub use device::{Device, DeviceError, IoStats, IoStatsSnapshot, MemDevice};
pub use file::FileDevice;
pub use raid::{per_shard_devices, Raid0};
pub use sim::{SimSsd, SsdProfile};
