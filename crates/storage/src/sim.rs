//! The simulated SSD cost model.

use crate::device::{check_bounds, Device, DeviceError, IoStats, IoStatsSnapshot};
use parking_lot::RwLock;

/// Performance profile of an SSD (or SSD array).
///
/// The paper benchmarks two devices (§3.3.1, §4.3):
///
/// * Intel P4618 NVMe: ~3.1 GiB/s sequential, ~600 k IOPS at 4 KiB
///   (≈ 2.4 GiB/s random) — [`SsdProfile::nvme_p4618`].
/// * RAID-0 of 7 × Intel S4610 SATA: ~3.4 GiB/s sequential but only
///   ~150 k IOPS — [`SsdProfile::raid0_s4610x7`].
///
/// The per-operation service time is `max(len / bandwidth, 1 / IOPS)`:
/// large reads are bandwidth-bound, small reads are IOPS-bound. This is the
/// exact trade-off NosWalker's adaptive block granularity exploits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SsdProfile {
    /// Sequential read/write bandwidth in bytes per second.
    pub bandwidth_bytes_per_sec: u64,
    /// Sustained small-read operations per second (device-wide, i.e. at
    /// full queue depth).
    pub iops: u64,
}

impl SsdProfile {
    /// Intel SSD DC P4618 (the paper's primary device).
    pub fn nvme_p4618() -> Self {
        SsdProfile {
            bandwidth_bytes_per_sec: (3.1 * GIB) as u64,
            iops: 600_000,
        }
    }

    /// RAID-0 of seven Intel SSD D3 S4610 (the paper's Fig. 12 b/c device):
    /// slightly more bandwidth, 4× fewer IOPS.
    pub fn raid0_s4610x7() -> Self {
        SsdProfile {
            bandwidth_bytes_per_sec: (3.4 * GIB) as u64,
            iops: 150_000,
        }
    }

    /// Service time in nanoseconds for one operation of `len` bytes.
    pub fn service_ns(&self, len: u64) -> u64 {
        let bw_ns = len.saturating_mul(1_000_000_000) / self.bandwidth_bytes_per_sec.max(1);
        let iops_ns = 1_000_000_000 / self.iops.max(1);
        bw_ns.max(iops_ns)
    }
}

const GIB: f64 = 1024.0 * 1024.0 * 1024.0;

impl Default for SsdProfile {
    fn default() -> Self {
        SsdProfile::nvme_p4618()
    }
}

/// A deterministic simulated SSD.
///
/// Backing bytes live in host RAM; every operation is charged the profile's
/// service time and recorded in [`IoStats`]. The device is a shared-nothing
/// service-time source: it does not serialize callers — engines combine the
/// returned service times into their own pipeline clocks.
///
/// # Example
///
/// ```
/// use noswalker_storage::{Device, SimSsd, SsdProfile};
///
/// let d = SimSsd::new(SsdProfile::nvme_p4618());
/// d.write(0, &vec![0u8; 1 << 20])?;
/// let mut buf = vec![0u8; 4096];
/// let ns = d.read(0, &mut buf)?;
/// // A 4 KiB read is IOPS-bound: 1s / 600k ≈ 1.67 µs.
/// assert_eq!(ns, 1_000_000_000 / 600_000);
/// # Ok::<(), noswalker_storage::DeviceError>(())
/// ```
#[derive(Debug)]
pub struct SimSsd {
    profile: SsdProfile,
    data: RwLock<Vec<u8>>,
    stats: IoStats,
}

impl SimSsd {
    /// Creates an empty simulated SSD with the given profile.
    pub fn new(profile: SsdProfile) -> Self {
        SimSsd {
            profile,
            data: RwLock::new(Vec::new()),
            stats: IoStats::new(),
        }
    }

    /// The device's performance profile.
    pub fn profile(&self) -> SsdProfile {
        self.profile
    }
}

impl Device for SimSsd {
    fn len(&self) -> u64 {
        self.data.read().len() as u64
    }

    fn read(&self, offset: u64, buf: &mut [u8]) -> Result<u64, DeviceError> {
        let data = self.data.read();
        check_bounds(offset, buf.len() as u64, data.len() as u64)?;
        let off = offset as usize;
        buf.copy_from_slice(&data[off..off + buf.len()]);
        let ns = self.profile.service_ns(buf.len() as u64);
        self.stats.record_read(buf.len() as u64, ns);
        Ok(ns)
    }

    fn write(&self, offset: u64, data_in: &[u8]) -> Result<u64, DeviceError> {
        let mut data = self.data.write();
        let end = offset as usize + data_in.len();
        if data.len() < end {
            data.resize(end, 0);
        }
        data[offset as usize..end].copy_from_slice(data_in);
        let ns = self.profile.service_ns(data_in.len() as u64);
        self.stats.record_write(data_in.len() as u64, ns);
        Ok(ns)
    }

    fn stats(&self) -> IoStatsSnapshot {
        self.stats.snapshot()
    }

    fn price_ns(&self, _offset: u64, len: u64) -> Option<u64> {
        Some(self.profile.service_ns(len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_reads_are_iops_bound() {
        let p = SsdProfile::nvme_p4618();
        // 4 KiB at 3.1 GiB/s would be ~1.23 µs, but IOPS floor is 1.67 µs.
        assert_eq!(p.service_ns(4096), 1_000_000_000 / 600_000);
    }

    #[test]
    fn large_reads_are_bandwidth_bound() {
        let p = SsdProfile::nvme_p4618();
        let ns = p.service_ns(64 << 20); // 64 MiB
        let expect = (64u64 << 20) * 1_000_000_000 / p.bandwidth_bytes_per_sec;
        assert_eq!(ns, expect);
        assert!(ns > p.service_ns(4096) * 1000);
    }

    #[test]
    fn raid_profile_trades_iops_for_bandwidth() {
        let nvme = SsdProfile::nvme_p4618();
        let raid = SsdProfile::raid0_s4610x7();
        assert!(raid.bandwidth_bytes_per_sec > nvme.bandwidth_bytes_per_sec);
        assert!(raid.service_ns(4096) > nvme.service_ns(4096));
    }

    #[test]
    fn read_charges_busy_time() {
        let d = SimSsd::new(SsdProfile::nvme_p4618());
        d.write(0, &[0u8; 8192]).unwrap();
        let before = d.stats();
        let mut buf = [0u8; 4096];
        d.read(0, &mut buf).unwrap();
        d.read(4096, &mut buf).unwrap();
        let delta = d.stats().since(&before);
        assert_eq!(delta.read_ops, 2);
        assert_eq!(delta.busy_ns, 2 * (1_000_000_000 / 600_000));
    }

    #[test]
    fn data_integrity_preserved() {
        let d = SimSsd::new(SsdProfile::default());
        let payload: Vec<u8> = (0..=255).cycle().take(10_000).collect();
        d.write(123, &payload).unwrap();
        let mut buf = vec![0u8; 10_000];
        d.read(123, &mut buf).unwrap();
        assert_eq!(buf, payload);
    }

    #[test]
    fn out_of_bounds_read_fails() {
        let d = SimSsd::new(SsdProfile::default());
        let mut buf = [0u8; 1];
        assert!(d.read(0, &mut buf).is_err());
    }
}
