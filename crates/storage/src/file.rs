//! A real file-backed device for out-of-simulation runs.

use crate::device::{Device, DeviceError, IoStats, IoStatsSnapshot};
use parking_lot::Mutex;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::time::Instant;

/// A device backed by a real file.
///
/// Unlike [`crate::SimSsd`], service times are *measured wall-clock*
/// nanoseconds, so runs on a `FileDevice` report real I/O behaviour (page
/// cache included). The examples use this to run NosWalker against actual
/// storage.
///
/// # Example
///
/// ```no_run
/// use noswalker_storage::{Device, FileDevice};
///
/// let d = FileDevice::create("/tmp/graph.bin")?;
/// d.write(0, b"edges...")?;
/// # Ok::<(), noswalker_storage::DeviceError>(())
/// ```
#[derive(Debug)]
pub struct FileDevice {
    file: Mutex<File>,
    stats: IoStats,
}

impl FileDevice {
    /// Creates (truncating) a file-backed device at `path`.
    ///
    /// # Errors
    ///
    /// [`DeviceError::Io`] if the file cannot be created.
    pub fn create<P: AsRef<Path>>(path: P) -> Result<Self, DeviceError> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(io_err)?;
        Ok(FileDevice {
            file: Mutex::new(file),
            stats: IoStats::new(),
        })
    }

    /// Opens an existing file read-write.
    ///
    /// # Errors
    ///
    /// [`DeviceError::Io`] if the file cannot be opened.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self, DeviceError> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(io_err)?;
        Ok(FileDevice {
            file: Mutex::new(file),
            stats: IoStats::new(),
        })
    }
}

fn io_err(e: std::io::Error) -> DeviceError {
    DeviceError::Io(e.to_string())
}

impl Device for FileDevice {
    fn len(&self) -> u64 {
        self.file.lock().metadata().map(|m| m.len()).unwrap_or(0)
    }

    fn read(&self, offset: u64, buf: &mut [u8]) -> Result<u64, DeviceError> {
        #[expect(
            clippy::disallowed_methods,
            reason = "real device service time is wall-clock by definition; storage cannot \
                      depend on core's WallTimer"
        )]
        let start = Instant::now();
        let mut file = self.file.lock();
        file.seek(SeekFrom::Start(offset)).map_err(io_err)?;
        file.read_exact(buf).map_err(io_err)?;
        let ns = start.elapsed().as_nanos() as u64;
        self.stats.record_read(buf.len() as u64, ns);
        Ok(ns)
    }

    fn write(&self, offset: u64, data: &[u8]) -> Result<u64, DeviceError> {
        #[expect(
            clippy::disallowed_methods,
            reason = "real device service time is wall-clock by definition; storage cannot \
                      depend on core's WallTimer"
        )]
        let start = Instant::now();
        let mut file = self.file.lock();
        file.seek(SeekFrom::Start(offset)).map_err(io_err)?;
        file.write_all(data).map_err(io_err)?;
        let ns = start.elapsed().as_nanos() as u64;
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

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("noswalker-filedev-{}-{}", std::process::id(), name));
        p
    }

    #[test]
    fn roundtrip() {
        let path = temp_path("rt");
        let d = FileDevice::create(&path).unwrap();
        d.write(100, b"hello world").unwrap();
        let mut buf = [0u8; 11];
        d.read(100, &mut buf).unwrap();
        assert_eq!(&buf, b"hello world");
        assert_eq!(d.len(), 111);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn read_missing_range_errors() {
        let path = temp_path("missing");
        let d = FileDevice::create(&path).unwrap();
        let mut buf = [0u8; 4];
        assert!(matches!(d.read(0, &mut buf), Err(DeviceError::Io(_))));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn open_nonexistent_fails() {
        assert!(FileDevice::open("/nonexistent/dir/x.bin").is_err());
    }

    #[test]
    fn stats_track_real_io() {
        let path = temp_path("stats");
        let d = FileDevice::create(&path).unwrap();
        d.write(0, &[1u8; 4096]).unwrap();
        let mut buf = [0u8; 4096];
        d.read(0, &mut buf).unwrap();
        let s = d.stats();
        assert_eq!(s.read_bytes, 4096);
        assert_eq!(s.write_bytes, 4096);
        std::fs::remove_file(path).ok();
    }
}
