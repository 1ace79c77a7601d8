//! The block device abstraction and shared I/O accounting.

#![expect(
    clippy::disallowed_types,
    reason = "IoStats counters are independent Relaxed tallies; a snapshot is advisory \
              and diffed around a run, never used to order other memory"
)]

use parking_lot::RwLock;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Error type for device operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeviceError {
    /// A read or write referenced bytes beyond the device length.
    OutOfBounds {
        /// Requested offset.
        offset: u64,
        /// Requested length.
        len: u64,
        /// Device length.
        device_len: u64,
    },
    /// An underlying OS error (only produced by [`crate::FileDevice`]).
    Io(String),
}

impl fmt::Display for DeviceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceError::OutOfBounds {
                offset,
                len,
                device_len,
            } => write!(
                f,
                "access at offset {offset} length {len} exceeds device length {device_len}"
            ),
            DeviceError::Io(e) => write!(f, "device I/O error: {e}"),
        }
    }
}

impl std::error::Error for DeviceError {}

/// Live atomic I/O counters attached to a device.
#[derive(Debug, Default)]
pub struct IoStats {
    read_ops: AtomicU64,
    read_bytes: AtomicU64,
    write_ops: AtomicU64,
    write_bytes: AtomicU64,
    busy_ns: AtomicU64,
}

impl IoStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a read of `bytes` that took `service_ns` of device time.
    pub fn record_read(&self, bytes: u64, service_ns: u64) {
        self.read_ops.fetch_add(1, Ordering::Relaxed);
        self.read_bytes.fetch_add(bytes, Ordering::Relaxed);
        self.busy_ns.fetch_add(service_ns, Ordering::Relaxed);
    }

    /// Records a write of `bytes` that took `service_ns` of device time.
    pub fn record_write(&self, bytes: u64, service_ns: u64) {
        self.write_ops.fetch_add(1, Ordering::Relaxed);
        self.write_bytes.fetch_add(bytes, Ordering::Relaxed);
        self.busy_ns.fetch_add(service_ns, Ordering::Relaxed);
    }

    /// A point-in-time copy of the counters.
    pub fn snapshot(&self) -> IoStatsSnapshot {
        IoStatsSnapshot {
            read_ops: self.read_ops.load(Ordering::Relaxed),
            read_bytes: self.read_bytes.load(Ordering::Relaxed),
            write_ops: self.write_ops.load(Ordering::Relaxed),
            write_bytes: self.write_bytes.load(Ordering::Relaxed),
            busy_ns: self.busy_ns.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a device's [`IoStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStatsSnapshot {
    /// Number of read operations.
    pub read_ops: u64,
    /// Bytes read.
    pub read_bytes: u64,
    /// Number of write operations.
    pub write_ops: u64,
    /// Bytes written.
    pub write_bytes: u64,
    /// Total device service time in (simulated) nanoseconds.
    pub busy_ns: u64,
}

impl IoStatsSnapshot {
    /// Counter-wise difference `self - earlier`, for bracketing a run.
    pub fn since(&self, earlier: &IoStatsSnapshot) -> IoStatsSnapshot {
        IoStatsSnapshot {
            read_ops: self.read_ops - earlier.read_ops,
            read_bytes: self.read_bytes - earlier.read_bytes,
            write_ops: self.write_ops - earlier.write_ops,
            write_bytes: self.write_bytes - earlier.write_bytes,
            busy_ns: self.busy_ns - earlier.busy_ns,
        }
    }

    /// Total bytes moved in either direction.
    pub fn total_bytes(&self) -> u64 {
        self.read_bytes + self.write_bytes
    }
}

/// A byte-addressed block device.
///
/// Reads and writes return the operation's **service time** in nanoseconds:
/// simulated time for [`crate::SimSsd`]/[`crate::Raid0`], measured wall time
/// for [`crate::FileDevice`], zero for [`MemDevice`]. Engines fold these
/// service times into their pipeline clocks; the device itself has no notion
/// of "now".
///
/// Devices grow on writes past the end (they model a file / namespace, not
/// fixed media), but reads past the end are errors.
pub trait Device: Send + Sync + fmt::Debug {
    /// Current device length in bytes.
    fn len(&self) -> u64;

    /// True if nothing has been written yet.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reads `buf.len()` bytes at `offset`.
    ///
    /// Returns the service time in nanoseconds.
    ///
    /// # Errors
    ///
    /// [`DeviceError::OutOfBounds`] if the range exceeds the device length;
    /// [`DeviceError::Io`] for OS-level failures.
    fn read(&self, offset: u64, buf: &mut [u8]) -> Result<u64, DeviceError>;

    /// Writes `data` at `offset`, growing the device if needed.
    ///
    /// Returns the service time in nanoseconds.
    ///
    /// # Errors
    ///
    /// [`DeviceError::Io`] for OS-level failures.
    fn write(&self, offset: u64, data: &[u8]) -> Result<u64, DeviceError>;

    /// A snapshot of the device's I/O counters.
    fn stats(&self) -> IoStatsSnapshot;
}

/// A zero-cost RAM-backed device: infinite-speed storage used by the
/// in-memory baseline and by unit tests.
///
/// # Example
///
/// ```
/// use noswalker_storage::{Device, MemDevice};
///
/// let d = MemDevice::new();
/// d.write(0, b"hello")?;
/// let mut buf = [0u8; 5];
/// let ns = d.read(0, &mut buf)?;
/// assert_eq!(&buf, b"hello");
/// assert_eq!(ns, 0);
/// # Ok::<(), noswalker_storage::DeviceError>(())
/// ```
#[derive(Debug, Default)]
pub struct MemDevice {
    data: RwLock<Vec<u8>>,
    stats: IoStats,
}

impl MemDevice {
    /// Creates an empty device.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Device for MemDevice {
    fn len(&self) -> u64 {
        self.data.read().len() as u64
    }

    fn read(&self, offset: u64, buf: &mut [u8]) -> Result<u64, DeviceError> {
        let data = self.data.read();
        check_bounds(offset, buf.len() as u64, data.len() as u64)?;
        let off = offset as usize;
        buf.copy_from_slice(&data[off..off + buf.len()]);
        self.stats.record_read(buf.len() as u64, 0);
        Ok(0)
    }

    fn write(&self, offset: u64, data_in: &[u8]) -> Result<u64, DeviceError> {
        let mut data = self.data.write();
        let end = offset as usize + data_in.len();
        if data.len() < end {
            data.resize(end, 0);
        }
        data[offset as usize..end].copy_from_slice(data_in);
        self.stats.record_write(data_in.len() as u64, 0);
        Ok(0)
    }

    fn stats(&self) -> IoStatsSnapshot {
        self.stats.snapshot()
    }
}

/// Validates `[offset, offset + len)` against `device_len`.
pub(crate) fn check_bounds(offset: u64, len: u64, device_len: u64) -> Result<(), DeviceError> {
    if offset.checked_add(len).is_none_or(|end| end > device_len) {
        return Err(DeviceError::OutOfBounds {
            offset,
            len,
            device_len,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_device_roundtrip() {
        let d = MemDevice::new();
        d.write(10, &[1, 2, 3]).unwrap();
        assert_eq!(d.len(), 13);
        let mut buf = [0u8; 3];
        d.read(10, &mut buf).unwrap();
        assert_eq!(buf, [1, 2, 3]);
    }

    #[test]
    fn mem_device_zero_fills_gap() {
        let d = MemDevice::new();
        d.write(4, &[9]).unwrap();
        let mut buf = [7u8; 4];
        d.read(0, &mut buf).unwrap();
        assert_eq!(buf, [0, 0, 0, 0]);
    }

    #[test]
    fn read_past_end_errors() {
        let d = MemDevice::new();
        d.write(0, &[1, 2]).unwrap();
        let mut buf = [0u8; 4];
        let err = d.read(1, &mut buf).unwrap_err();
        assert!(matches!(err, DeviceError::OutOfBounds { .. }));
        assert!(err.to_string().contains("exceeds device length"));
    }

    #[test]
    fn stats_accumulate_and_diff() {
        let d = MemDevice::new();
        d.write(0, &[0; 100]).unwrap();
        let before = d.stats();
        let mut buf = [0u8; 50];
        d.read(0, &mut buf).unwrap();
        d.read(50, &mut buf).unwrap();
        let delta = d.stats().since(&before);
        assert_eq!(delta.read_ops, 2);
        assert_eq!(delta.read_bytes, 100);
        assert_eq!(delta.write_ops, 0);
        assert_eq!(delta.total_bytes(), 100);
    }

    #[test]
    fn overflow_offset_is_out_of_bounds() {
        let d = MemDevice::new();
        let mut buf = [0u8; 1];
        assert!(matches!(
            d.read(u64::MAX, &mut buf),
            Err(DeviceError::OutOfBounds { .. })
        ));
    }
}
