//! RAID-0 striping over simulated SSDs.

use crate::device::{Device, DeviceError, IoStats, IoStatsSnapshot};
use crate::sim::{SimSsd, SsdProfile};
use std::sync::Arc;

/// A RAID-0 (striped) array of simulated SSDs.
///
/// Used for the paper's multi-SSD experiments: an operation is split into
/// per-stripe segments; segments on distinct members are serviced in
/// parallel, so the array's service time for an operation is the **maximum**
/// of each member's summed segment times. Aggregate bandwidth therefore
/// scales with member count while per-operation latency does not improve.
///
/// # Example
///
/// ```
/// use noswalker_storage::{Device, Raid0, SsdProfile};
///
/// let raid = Raid0::new(4, SsdProfile::nvme_p4618(), 64 * 1024);
/// raid.write(0, &vec![7u8; 1 << 20])?;
/// let mut buf = vec![0u8; 1 << 20];
/// let ns = raid.read(0, &mut buf)?;
/// let single = SsdProfile::nvme_p4618().service_ns(1 << 20);
/// assert!(ns < single, "4-way stripe should beat one device");
/// # Ok::<(), noswalker_storage::DeviceError>(())
/// ```
#[derive(Debug)]
pub struct Raid0 {
    members: Vec<Arc<SimSsd>>,
    stripe_bytes: u64,
    stats: IoStats,
}

impl Raid0 {
    /// Creates an array of `n` members with the given per-member profile and
    /// stripe size.
    ///
    /// # Panics
    ///
    /// Panics if `n` or `stripe_bytes` is zero.
    pub fn new(n: usize, member_profile: SsdProfile, stripe_bytes: u64) -> Self {
        assert!(n > 0, "need at least one member");
        assert!(stripe_bytes > 0, "stripe size must be positive");
        Raid0 {
            members: (0..n)
                .map(|_| Arc::new(SimSsd::new(member_profile)))
                .collect(),
            stripe_bytes,
            stats: IoStats::new(),
        }
    }

    /// Splits `[offset, offset+len)` into `(member, member_offset, len)`
    /// segments.
    fn segments(&self, mut offset: u64, mut len: u64) -> Vec<(usize, u64, u64)> {
        let n = self.members.len() as u64;
        let mut out = Vec::new();
        while len > 0 {
            let stripe_idx = offset / self.stripe_bytes;
            let within = offset % self.stripe_bytes;
            let member = (stripe_idx % n) as usize;
            let member_stripe = stripe_idx / n;
            let seg_len = (self.stripe_bytes - within).min(len);
            out.push((member, member_stripe * self.stripe_bytes + within, seg_len));
            offset += seg_len;
            len -= seg_len;
        }
        out
    }

    /// Runs `op` per segment and combines times: per-member serial, across
    /// members parallel.
    fn run<F>(&self, offset: u64, len: u64, mut op: F) -> Result<u64, DeviceError>
    where
        F: FnMut(&SimSsd, u64, u64, u64) -> Result<u64, DeviceError>,
    {
        let mut member_ns = vec![0u64; self.members.len()];
        let mut logical = 0u64;
        for (m, moff, seg) in self.segments(offset, len) {
            let ns = op(&self.members[m], moff, logical, seg)?;
            member_ns[m] += ns;
            logical += seg;
        }
        Ok(member_ns.into_iter().max().unwrap_or(0))
    }
}

/// Builds one independent device per shard for the sharded serve plane: a
/// plain [`SimSsd`] when `members_per_shard == 1`, otherwise a [`Raid0`] of
/// that many members. Shards never share a device, so their I/O service
/// times are modeled independently and the plane's round time is the
/// slowest shard's — the modeled-parallelism assumption behind multi-shard
/// throughput scaling.
///
/// # Panics
///
/// Panics if `shards`, `members_per_shard`, or `stripe_bytes` is zero.
pub fn per_shard_devices(
    shards: usize,
    members_per_shard: usize,
    profile: SsdProfile,
    stripe_bytes: u64,
) -> Vec<Arc<dyn Device>> {
    assert!(shards > 0, "need at least one shard");
    assert!(members_per_shard > 0, "need at least one member per shard");
    (0..shards)
        .map(|_| -> Arc<dyn Device> {
            if members_per_shard == 1 {
                Arc::new(SimSsd::new(profile))
            } else {
                Arc::new(Raid0::new(members_per_shard, profile, stripe_bytes))
            }
        })
        .collect()
}

impl Device for Raid0 {
    fn len(&self) -> u64 {
        // Logical length = sum of member lengths is an overestimate when the
        // last stripe is partial; track via max end written instead: the
        // members grow in stripe units, so reconstruct from member lengths.
        self.members.iter().map(|m| m.len()).sum()
    }

    fn read(&self, offset: u64, buf: &mut [u8]) -> Result<u64, DeviceError> {
        let ns = self.run(offset, buf.len() as u64, |m, moff, logical, seg| {
            m.read(moff, &mut buf[logical as usize..(logical + seg) as usize])
        })?;
        self.stats.record_read(buf.len() as u64, ns);
        Ok(ns)
    }

    fn write(&self, offset: u64, data: &[u8]) -> Result<u64, DeviceError> {
        let ns = self.run(offset, data.len() as u64, |m, moff, logical, seg| {
            m.write(moff, &data[logical as usize..(logical + seg) as usize])
        })?;
        self.stats.record_write(data.len() as u64, ns);
        Ok(ns)
    }

    fn stats(&self) -> IoStatsSnapshot {
        self.stats.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_across_stripes() {
        let raid = Raid0::new(3, SsdProfile::default(), 16);
        let payload: Vec<u8> = (0..200u8).collect();
        raid.write(5, &payload).unwrap();
        let mut buf = vec![0u8; 200];
        raid.read(5, &mut buf).unwrap();
        assert_eq!(buf, payload);
    }

    #[test]
    fn large_read_parallelizes() {
        let profile = SsdProfile {
            bandwidth_bytes_per_sec: 1 << 30,
            iops: 1_000_000,
        };
        let raid = Raid0::new(4, profile, 1 << 16);
        let len = 4 << 20;
        raid.write(0, &vec![0u8; len]).unwrap();
        let mut buf = vec![0u8; len];
        let raid_ns = raid.read(0, &mut buf).unwrap();

        let single = SimSsd::new(profile);
        single.write(0, &vec![0u8; len]).unwrap();
        let single_ns = single.read(0, &mut buf).unwrap();
        // 4-way striping ≈ 4× faster for a bandwidth-bound read, but the
        // per-segment IOPS floor costs something.
        assert!(raid_ns < single_ns / 2, "{raid_ns} vs {single_ns}");
    }

    #[test]
    fn small_read_does_not_parallelize() {
        let raid = Raid0::new(4, SsdProfile::default(), 1 << 16);
        raid.write(0, &[1u8; 4096]).unwrap();
        let mut buf = [0u8; 4096];
        let ns = raid.read(0, &mut buf).unwrap();
        // Fits in one stripe → one member → full single-device IOPS cost.
        assert_eq!(ns, SsdProfile::default().service_ns(4096));
    }

    #[test]
    fn segments_cover_range_exactly() {
        let raid = Raid0::new(2, SsdProfile::default(), 10);
        let segs = raid.segments(7, 25);
        let total: u64 = segs.iter().map(|&(_, _, l)| l).sum();
        assert_eq!(total, 25);
        // First segment ends at a stripe boundary.
        assert_eq!(segs[0].2, 3);
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn zero_members_rejected() {
        let _ = Raid0::new(0, SsdProfile::default(), 1024);
    }

    #[test]
    fn per_shard_devices_are_independent() {
        let devices = per_shard_devices(3, 1, SsdProfile::default(), 1 << 16);
        assert_eq!(devices.len(), 3);
        devices[0].write(0, &[7u8; 64]).unwrap();
        let mut buf = [0u8; 64];
        devices[1].read(0, &mut buf).unwrap_or(0);
        assert_ne!(buf, [7u8; 64], "shard devices must not share storage");
    }

    #[test]
    fn per_shard_devices_compose_raid() {
        let devices = per_shard_devices(2, 4, SsdProfile::default(), 1 << 16);
        assert_eq!(devices.len(), 2);
        let payload: Vec<u8> = (0..255u8).collect();
        devices[0].write(0, &payload).unwrap();
        let mut buf = vec![0u8; payload.len()];
        devices[0].read(0, &mut buf).unwrap();
        assert_eq!(buf, payload);
    }
}
