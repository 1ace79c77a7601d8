//! Admission control: bounded queueing with explicit backpressure.
//!
//! Arrivals pass through [`AdmissionController::offer`], which either
//! admits them into a *bounded* pending queue or sheds them with a
//! retry-after hint. Two conditions shed:
//!
//! * **queue full** — the pending queue holds `max_pending` admitted
//!   queries; unbounded queueing would only convert overload into
//!   unbounded latency, so the excess is rejected at the door;
//! * **overload mode** — the engine observed the pre-sample pool stall
//!   rate crossing its threshold last round (the backend is I/O-saturated
//!   and adding load cannot increase throughput). Overload does not shut
//!   the door: it throttles admission to one query at a time (admit only
//!   into an *empty* queue), so the backend keeps serving serially and
//!   later rounds can observe recovery and lift the mode. Shedding stays
//!   graceful — never a total blackout.
//!
//! Admitted queries are released to the engine in earliest-deadline-first
//! order, falling back to FIFO (arrival, then id) among queries with equal
//! or no deadlines — the controller is the serving layer's
//! [`QuerySource`].

use noswalker_core::{QuerySource, QuerySpec};
use std::collections::VecDeque;

/// Knobs for [`AdmissionController`].
#[derive(Debug, Clone, PartialEq)]
pub struct AdmissionOptions {
    /// Bound on admitted-but-not-yet-running queries.
    pub max_pending: usize,
    /// Base retry-after hint; the hint returned to a shed query scales
    /// with the current queue depth.
    pub retry_after_ns: u64,
    /// Throttle admission to one pending query at a time while the
    /// observed pre-sample stall rate (`RunMetrics::pool_stalls` per step
    /// in the previous round, the same unit on either kernel) is above
    /// this threshold.
    pub shed_stall_rate: f64,
}

impl Default for AdmissionOptions {
    fn default() -> Self {
        AdmissionOptions {
            max_pending: 64,
            retry_after_ns: 1_000_000, // 1 ms modeled
            shed_stall_rate: 0.5,
        }
    }
}

/// The verdict on one offered query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Queued; the engine will activate it in EDF-then-FIFO order.
    Admitted,
    /// Rejected with backpressure: retry after the given modeled delay.
    Shed {
        /// Suggested modeled wait before re-offering the query.
        retry_after_ns: u64,
    },
}

/// Bounded, deadline-aware admission queue (see module docs).
#[derive(Debug)]
pub struct AdmissionController {
    opts: AdmissionOptions,
    pending: VecDeque<QuerySpec>,
    overloaded: bool,
    shed: u64,
}

fn order_key(q: &QuerySpec) -> (u64, u64, u64) {
    (q.deadline_ns.unwrap_or(u64::MAX), q.arrival_ns, q.id)
}

impl AdmissionController {
    /// Creates an empty controller.
    pub fn new(opts: AdmissionOptions) -> Self {
        AdmissionController {
            opts,
            pending: VecDeque::new(),
            overloaded: false,
            shed: 0,
        }
    }

    /// Offers an arrival for admission.
    pub fn offer(&mut self, q: QuerySpec) -> Admission {
        let cap = if self.overloaded {
            // Overloaded: serialize. One pending query keeps the backend
            // busy (and producing fresh stall-rate observations) without
            // piling concurrency onto a saturated pre-sample pool.
            1
        } else {
            self.opts.max_pending
        };
        if self.pending.len() >= cap {
            self.shed += 1;
            return Admission::Shed {
                retry_after_ns: self.retry_after(),
            };
        }
        let at = self
            .pending
            .iter()
            .position(|p| order_key(&q) < order_key(p))
            .unwrap_or(self.pending.len());
        self.pending.insert(at, q);
        Admission::Admitted
    }

    /// The retry-after hint for a shed query: the base backoff scaled by
    /// queue depth, so heavier backlogs push retries further out
    /// (saturating: the base is caller-supplied).
    pub fn retry_after(&self) -> u64 {
        let depth = self.pending.len() as u64 + 1;
        self.opts.retry_after_ns.saturating_mul(depth)
    }

    /// Updates overload mode from the last round's observed pre-sample
    /// stall rate (stalls per step). Returns the new mode.
    pub fn observe_stall_rate(&mut self, stalls: u64, steps: u64) -> bool {
        let rate = stalls as f64 / steps.max(1) as f64;
        self.overloaded = rate > self.opts.shed_stall_rate;
        self.overloaded
    }

    /// Admitted-but-not-yet-activated queries.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Removes a pending query by id (a cancellation arriving before
    /// activation); returns it if it was still queued. The freed slot is
    /// immediately available to later offers.
    pub fn remove(&mut self, id: noswalker_core::QueryId) -> Option<QuerySpec> {
        let at = self.pending.iter().position(|p| p.id == id)?;
        self.pending.remove(at)
    }

    /// Total queries shed so far.
    pub fn shed_count(&self) -> u64 {
        self.shed
    }
}

impl QuerySource for AdmissionController {
    fn next_ready(&mut self, _now_ns: u64, room: u64) -> Option<QuerySpec> {
        if room == 0 {
            return None;
        }
        self.pending.pop_front()
    }

    fn next_pending_at(&self, _now_ns: u64) -> Option<u64> {
        // Admitted queries are runnable immediately.
        self.pending.front().map(|q| q.arrival_ns)
    }

    fn is_exhausted(&self) -> bool {
        self.pending.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(id: u64, arrival_ns: u64, deadline_ns: Option<u64>) -> QuerySpec {
        QuerySpec {
            id,
            class: "basic".into(),
            walkers: 10,
            walk_length: 4,
            deadline_ns,
            arrival_ns,
        }
    }

    #[test]
    fn releases_in_edf_then_fifo_order() {
        let mut c = AdmissionController::new(AdmissionOptions::default());
        assert_eq!(c.offer(spec(1, 0, None)), Admission::Admitted);
        assert_eq!(c.offer(spec(2, 10, Some(500))), Admission::Admitted);
        assert_eq!(c.offer(spec(3, 20, Some(100))), Admission::Admitted);
        assert_eq!(c.offer(spec(4, 5, None)), Admission::Admitted);
        let order: Vec<u64> = std::iter::from_fn(|| c.next_ready(0, u64::MAX))
            .map(|q| q.id)
            .collect();
        // Deadlines first (tightest first), then FIFO by arrival.
        assert_eq!(order, vec![3, 2, 1, 4]);
        assert!(c.is_exhausted());
    }

    #[test]
    fn full_queue_sheds_with_growing_retry_hint() {
        let mut c = AdmissionController::new(AdmissionOptions {
            max_pending: 2,
            retry_after_ns: 100,
            ..Default::default()
        });
        assert_eq!(c.offer(spec(1, 0, None)), Admission::Admitted);
        assert_eq!(c.offer(spec(2, 0, None)), Admission::Admitted);
        assert_eq!(
            c.offer(spec(3, 0, None)),
            Admission::Shed {
                retry_after_ns: 300
            }
        );
        assert_eq!(c.shed_count(), 1);
        assert_eq!(c.pending_len(), 2);
    }

    #[test]
    fn retry_hint_saturates_instead_of_overflowing() {
        let mut c = AdmissionController::new(AdmissionOptions {
            retry_after_ns: u64::MAX / 2,
            ..Default::default()
        });
        c.offer(spec(1, 0, None));
        c.offer(spec(2, 0, None));
        assert_eq!(c.retry_after(), u64::MAX);
    }

    #[test]
    fn overload_mode_follows_the_stall_rate() {
        let mut c = AdmissionController::new(AdmissionOptions {
            shed_stall_rate: 0.25,
            ..Default::default()
        });
        assert!(!c.observe_stall_rate(10, 100));
        assert_eq!(c.offer(spec(1, 0, None)), Admission::Admitted);
        assert!(c.observe_stall_rate(50, 100));
        assert!(matches!(c.offer(spec(2, 0, None)), Admission::Shed { .. }));
        // Recovery re-opens admission.
        assert!(!c.observe_stall_rate(0, 100));
        assert_eq!(c.offer(spec(3, 0, None)), Admission::Admitted);
    }

    #[test]
    fn overload_throttles_to_serial_rather_than_blackout() {
        let mut c = AdmissionController::new(AdmissionOptions {
            shed_stall_rate: 0.25,
            ..Default::default()
        });
        assert!(c.observe_stall_rate(50, 100));
        // An empty queue still admits — the backend must keep serving
        // (and producing stall-rate observations that can lift the mode).
        assert_eq!(c.offer(spec(1, 0, None)), Admission::Admitted);
        // A second concurrent query is what overload refuses.
        assert!(matches!(c.offer(spec(2, 0, None)), Admission::Shed { .. }));
        // Once the pending query is activated, the next arrival gets in.
        assert!(c.next_ready(0, u64::MAX).is_some());
        assert_eq!(c.offer(spec(3, 0, None)), Admission::Admitted);
    }

    #[test]
    fn next_ready_respects_room() {
        let mut c = AdmissionController::new(AdmissionOptions::default());
        c.offer(spec(1, 0, None));
        assert!(c.next_ready(0, 0).is_none());
        assert!(c.next_ready(0, 1).is_some());
    }
}
