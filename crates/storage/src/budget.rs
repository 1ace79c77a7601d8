//! The memory budget tracker — our stand-in for the paper's cgroups cap.
//!
//! Every engine buffer (block buffers, pre-sample pools, walker pools,
//! walker swap buffers) must hold a [`Reservation`] for its bytes. The
//! budget is shared and thread-safe; a reservation releases its bytes on
//! drop, mirroring how freeing a buffer returns pages to the cgroup.

#![expect(
    clippy::disallowed_types,
    reason = "`used` is a Relaxed compare-exchange counter that alone decides admission; \
              `peak` is a Relaxed fetch_max high-water mark; neither orders other memory"
)]

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Error returned when a reservation would exceed the budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetExceeded {
    /// Bytes requested.
    pub requested: u64,
    /// Bytes currently in use.
    pub in_use: u64,
    /// Budget limit.
    pub limit: u64,
}

impl fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "memory budget exceeded: requested {} with {} of {} in use",
            self.requested, self.in_use, self.limit
        )
    }
}

impl std::error::Error for BudgetExceeded {}

/// A byte budget shared by every memory consumer of an engine run.
///
/// # Example
///
/// ```
/// use noswalker_storage::MemoryBudget;
///
/// let budget = MemoryBudget::new(1024);
/// let a = budget.try_reserve(700)?;
/// assert!(budget.try_reserve(700).is_err());
/// drop(a);
/// assert!(budget.try_reserve(700).is_ok());
/// # Ok::<(), noswalker_storage::BudgetExceeded>(())
/// ```
#[derive(Debug)]
pub struct MemoryBudget {
    limit: u64,
    used: AtomicU64,
    peak: AtomicU64,
}

impl MemoryBudget {
    /// Creates a budget of `limit` bytes. Returns an `Arc` because
    /// reservations keep the budget alive.
    pub fn new(limit: u64) -> Arc<Self> {
        Arc::new(MemoryBudget {
            limit,
            used: AtomicU64::new(0),
            peak: AtomicU64::new(0),
        })
    }

    /// An effectively unlimited budget (for in-memory baselines/tests).
    pub fn unlimited() -> Arc<Self> {
        Self::new(u64::MAX)
    }

    /// The budget limit in bytes.
    pub fn limit(&self) -> u64 {
        self.limit
    }

    /// Bytes currently reserved.
    pub fn in_use(&self) -> u64 {
        self.used.load(Ordering::Relaxed)
    }

    /// Bytes still available.
    pub fn available(&self) -> u64 {
        self.limit.saturating_sub(self.in_use())
    }

    /// High-water mark of reserved bytes.
    pub fn peak(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }

    /// Attempts to reserve `bytes`.
    ///
    /// # Errors
    ///
    /// [`BudgetExceeded`] if the reservation would push usage past the
    /// limit; usage is unchanged on failure.
    pub fn try_reserve(self: &Arc<Self>, bytes: u64) -> Result<Reservation, BudgetExceeded> {
        self.take(bytes)?;
        Ok(Reservation {
            budget: Arc::clone(self),
            bytes,
        })
    }

    /// Adds `bytes` to `used` unless that passes the limit.
    fn take(&self, bytes: u64) -> Result<(), BudgetExceeded> {
        let mut cur = self.used.load(Ordering::Relaxed);
        loop {
            let new = cur.saturating_add(bytes);
            if new > self.limit {
                return Err(BudgetExceeded {
                    requested: bytes,
                    in_use: cur,
                    limit: self.limit,
                });
            }
            match self
                .used
                .compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => {
                    self.peak.fetch_max(new, Ordering::Relaxed);
                    return Ok(());
                }
                Err(actual) => cur = actual,
            }
        }
    }
}

/// RAII guard for reserved bytes; releases them on drop.
#[derive(Debug)]
pub struct Reservation {
    budget: Arc<MemoryBudget>,
    bytes: u64,
}

impl Reservation {
    /// Number of bytes this reservation holds.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Grows the reservation by `extra` bytes.
    ///
    /// # Errors
    ///
    /// [`BudgetExceeded`] as for [`MemoryBudget::try_reserve`]; the
    /// reservation and the budget are unchanged on failure.
    pub fn try_grow(&mut self, extra: u64) -> Result<(), BudgetExceeded> {
        self.budget.take(extra)?;
        self.bytes += extra;
        Ok(())
    }

    /// Shrinks the reservation to `new_bytes`, releasing the difference.
    ///
    /// # Panics
    ///
    /// Panics if `new_bytes > self.bytes()` (growing is
    /// [`Reservation::try_grow`], whose failure is explicit).
    pub fn shrink_to(&mut self, new_bytes: u64) {
        assert!(
            new_bytes <= self.bytes,
            "cannot grow a reservation in place"
        );
        let release = self.bytes - new_bytes;
        self.budget.used.fetch_sub(release, Ordering::Relaxed);
        self.bytes = new_bytes;
    }
}

impl Drop for Reservation {
    fn drop(&mut self) {
        self.budget.used.fetch_sub(self.bytes, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_and_release() {
        let b = MemoryBudget::new(100);
        let r = b.try_reserve(60).unwrap();
        assert_eq!(b.in_use(), 60);
        assert_eq!(b.available(), 40);
        drop(r);
        assert_eq!(b.in_use(), 0);
        assert_eq!(b.peak(), 60);
    }

    #[test]
    fn exceeding_fails_without_side_effects() {
        let b = MemoryBudget::new(100);
        let _r = b.try_reserve(80).unwrap();
        let err = b.try_reserve(30).unwrap_err();
        assert_eq!(err.requested, 30);
        assert_eq!(err.in_use, 80);
        assert_eq!(b.in_use(), 80);
        assert!(err.to_string().contains("memory budget exceeded"));
    }

    #[test]
    fn shrink_releases_bytes() {
        let b = MemoryBudget::new(100);
        let mut r = b.try_reserve(90).unwrap();
        r.shrink_to(40);
        assert_eq!(b.in_use(), 40);
        assert_eq!(r.bytes(), 40);
        drop(r);
        assert_eq!(b.in_use(), 0);
    }

    #[test]
    fn grow_takes_room_or_fails_without_side_effects() {
        let b = MemoryBudget::new(100);
        let mut r = b.try_reserve(40).unwrap();
        r.try_grow(30).unwrap();
        assert_eq!((r.bytes(), b.in_use(), b.peak()), (70, 70, 70));
        let err = r.try_grow(31).unwrap_err();
        assert_eq!((err.requested, err.in_use), (31, 70));
        assert_eq!((r.bytes(), b.in_use(), b.peak()), (70, 70, 70));
        r.try_grow(30).unwrap();
        assert_eq!(b.in_use(), 100);
        drop(r);
        assert_eq!(b.in_use(), 0);
    }

    #[test]
    #[should_panic(expected = "cannot grow")]
    fn shrink_cannot_grow() {
        let b = MemoryBudget::new(100);
        let mut r = b.try_reserve(10).unwrap();
        r.shrink_to(20);
    }

    #[test]
    fn concurrent_reservations_never_exceed_limit() {
        let b = MemoryBudget::new(1000);
        std::thread::scope(|s| {
            for _ in 0..8 {
                let b = Arc::clone(&b);
                s.spawn(move || {
                    for _ in 0..1000 {
                        if let Ok(r) = b.try_reserve(7) {
                            assert!(b.in_use() <= 1000);
                            drop(r);
                        }
                    }
                });
            }
        });
        assert_eq!(b.in_use(), 0);
        assert!(b.peak() <= 1000);
    }

    #[test]
    fn unlimited_budget_accepts_everything() {
        let b = MemoryBudget::unlimited();
        let _r = b.try_reserve(u64::MAX / 2).unwrap();
        assert!(b.try_reserve(u64::MAX / 4).is_ok());
    }
}
