//! The run ledger: the one place a run books what it did.
//!
//! Every engine — the sequential engine, the parallel runner's coordinator
//! and each baseline — holds one [`Ledger`]: the modeled [`PipelineClock`],
//! the [`RunMetrics`] counters, the [`Trace`] and the wall timer. Each
//! booked event (a load, a stall, a synchronous I/O, a swap, a pre-sample
//! publish, the run's end) is one method here that moves the clock, ticks
//! the counters and emits the trace event together, so the three agree by
//! construction: the trace's stalls sum to `stall_ns`, its loads and swaps
//! to the load and swap counters, and `RunEnd` lands on `sim_ns`.

use crate::audit::{Trace, TraceEvent};
use crate::block::FineLoad;
use crate::clock::{PipelineClock, WallTimer};
use crate::disk_graph::{LoadError, OnDiskGraph};
use crate::metrics::RunMetrics;
use crate::options::EngineOptions;
use crate::threaded::Edges;
use noswalker_graph::partition::BlockId;
use noswalker_storage::MemoryBudget;

/// What a run reports — modeled clock, counters, trace, wall time — and
/// the one place each kind of event is accounted.
#[derive(Debug)]
pub struct Ledger<'t> {
    clock: PipelineClock,
    /// The run's counters. Steps, walker retirements and pool claims are
    /// booked straight into them through their tracked helpers.
    pub metrics: RunMetrics,
    trace: Trace<'t>,
    wall: WallTimer,
    /// Synchronous I/O is de-rated by [`EngineOptions::BUFFERED_IO_PENALTY`]
    /// (the GraphChi-derived baselines' buffered I/O).
    buffered: bool,
}

impl<'t> Ledger<'t> {
    /// A ledger at time zero recording into `trace`; starts the wall timer.
    pub fn new(trace: Trace<'t>) -> Self {
        Ledger {
            clock: PipelineClock::new(),
            metrics: RunMetrics::default(),
            trace,
            wall: WallTimer::start(),
            buffered: false,
        }
    }

    /// Like [`Ledger::new`], for an engine whose synchronous I/O goes
    /// through a buffered page cache: every [`Ledger::sync_io`] is de-rated
    /// by [`EngineOptions::BUFFERED_IO_PENALTY`], which reproduces the
    /// 20–30 % disk utilization the paper measures for them (§4.4).
    pub fn buffered(trace: Trace<'t>) -> Self {
        Ledger {
            buffered: true,
            ..Ledger::new(trace)
        }
    }

    /// Current modeled time in nanoseconds.
    pub fn now(&self) -> u64 {
        self.clock.now()
    }

    /// Charges `ns` of compute.
    pub fn compute(&mut self, ns: u64) {
        self.clock.advance_compute(ns);
    }

    /// Issues an asynchronous I/O of `service_ns` handed to the device at
    /// `issued_ns`; returns its completion time
    /// ([`PipelineClock::issue_io_at`]).
    pub(crate) fn issue_io_at(&mut self, issued_ns: u64, service_ns: u64) -> u64 {
        self.clock.issue_io_at(issued_ns, service_ns)
    }

    /// Emits an event that books nothing (evictions).
    pub(crate) fn emit(&mut self, f: impl FnOnce() -> TraceEvent) {
        self.trace.emit(f);
    }

    /// Books a coarse load of `bytes` issued at `at_ns`. A cache hit or an
    /// empty block (only zero-degree vertices) moves nothing and is no I/O
    /// op — counting it would break the audit's load-byte-consistency law —
    /// but is still traced, with 0 bytes on a hit.
    pub fn coarse_load(&mut self, block: BlockId, bytes: u64, cache_hit: bool, at_ns: u64) {
        if !cache_hit && bytes > 0 {
            self.metrics.record_coarse_load(bytes);
        }
        let bytes = if cache_hit { 0 } else { bytes };
        self.trace.emit(|| TraceEvent::CoarseLoad {
            block,
            bytes,
            cache_hit,
            at_ns,
        });
    }

    /// Books one fine batch read for `vertices` waiting vertices, issued at
    /// `at_ns`: its device runs and bytes.
    pub fn fine_load(&mut self, vertices: usize, load: &FineLoad, at_ns: u64) {
        let (block, runs, bytes) = (load.info().id, load.num_runs() as u64, load.loaded_bytes());
        self.metrics.record_fine_load(runs, bytes);
        self.trace.emit(|| TraceEvent::FineLoad {
            block,
            vertices: vertices as u64,
            runs,
            bytes,
            at_ns,
        });
    }

    /// Books delivered edges as [`Ledger::coarse_load`] or
    /// [`Ledger::fine_load`] (a fine batch's vertices are the ones it was
    /// read for).
    pub(crate) fn load(&mut self, edges: &Edges, at_ns: u64) {
        match edges {
            Edges::Coarse(b) => self.coarse_load(b.info().id, b.info().byte_len(), false, at_ns),
            Edges::Fine(load, verts) => self.fine_load(verts.len(), load, at_ns),
        }
    }

    /// Books a prefetched block's fate: a waiting bucket consumed it
    /// (`hit`) or it was discarded.
    pub(crate) fn prefetch(&mut self, block: BlockId, hit: bool, at_ns: u64) {
        if hit {
            self.metrics.record_prefetch_hit();
        } else {
            self.metrics.record_prefetch_wasted();
        }
        self.trace
            .emit(|| TraceEvent::Prefetch { block, hit, at_ns });
    }

    /// The fine-mode switch `α·|Wa|·4KiB < S_G` (§3.3.1): whether loads are
    /// 4 KiB page batches once `remaining` walkers are left. Sticky: the
    /// first `true` marks the switch (`fine_mode_at_step`) and traces it.
    pub(crate) fn fine_mode(
        &mut self,
        opts: &EngineOptions,
        graph: &OnDiskGraph,
        remaining: u64,
    ) -> bool {
        if self.metrics.fine_mode_at_step.is_some() {
            return true;
        }
        let lhs = opts.alpha * remaining * noswalker_graph::FINE_PAGE_BYTES;
        if !opts.enable_shrink_block || lhs >= graph.edge_region_bytes() {
            return false;
        }
        self.metrics.mark_fine_mode_switch();
        let (at_step, at_ns) = (self.metrics.steps, self.clock.now());
        self.trace
            .emit(|| TraceEvent::FineModeSwitch { at_step, at_ns });
        true
    }

    /// Stalls until `t`, attributing the wait to `block` (no event when
    /// `t` has already passed).
    pub(crate) fn stall(&mut self, block: Option<BlockId>, t: u64) {
        let from = self.clock.now();
        self.clock.stall_until(t);
        if t > from {
            self.trace.emit(|| TraceEvent::Stall {
                waiting_for: block,
                from_ns: from,
                until_ns: t,
            });
        }
    }

    /// One synchronous I/O of `service_ns` (de-rated on a
    /// [buffered](Ledger::buffered) ledger): issued now and waited for, the
    /// whole wait attributed to `block`.
    pub fn sync_io(&mut self, block: Option<BlockId>, service_ns: u64) {
        let ns = if self.buffered {
            (service_ns as f64 * EngineOptions::BUFFERED_IO_PENALTY) as u64
        } else {
            service_ns
        };
        let done = self.clock.issue_io_at(self.clock.now(), ns);
        self.stall(block, done);
    }

    /// Swaps `bytes` of walker state through a swap region past `graph`'s
    /// edge data: in chunks of at most 16 MiB, each written back and read
    /// in again as one synchronous I/O attributed to `block` — real device
    /// operations, so the cost model and the device's stats agree. Books
    /// the `2 × bytes` the device moved.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn swap(
        &mut self,
        graph: &OnDiskGraph,
        block: Option<BlockId>,
        bytes: u64,
    ) -> Result<(), LoadError> {
        const CHUNK: u64 = 16 << 20;
        if bytes == 0 {
            return Ok(());
        }
        let (device, base) = (graph.device(), graph.edge_region_bytes());
        let mut buf = vec![0u8; bytes.min(CHUNK) as usize];
        let mut left = bytes;
        while left > 0 {
            let n = left.min(CHUNK) as usize;
            let wns = device.write(base, &buf[..n])?;
            let rns = device.read(base, &mut buf[..n])?;
            self.sync_io(block, wns + rns);
            left -= n as u64;
        }
        self.record_swap(2 * bytes, 0);
        Ok(())
    }

    /// Books `bytes` of swap-like traffic moved by `ops` extra device
    /// operations (0 when it rode on one already counted), at the current
    /// time.
    pub fn record_swap(&mut self, bytes: u64, ops: u64) {
        self.metrics.record_swap(bytes, ops);
        let at_ns = self.clock.now();
        self.trace.emit(|| TraceEvent::Swap { bytes, at_ns });
    }

    /// Books a pre-sample refill of block `block` on the sequential engine:
    /// `draws` samples drawn into `slots` slots.
    pub(crate) fn refill(&mut self, block: BlockId, slots: u64, draws: u64) {
        self.metrics.record_presamples_filled(draws);
        let at_ns = self.clock.now();
        self.trace.emit(|| TraceEvent::PresampleRefill {
            block,
            slots,
            draws,
            at_ns,
        });
    }

    /// Books one generation published to the parallel runner's shared pool.
    pub(crate) fn publish(&mut self, block: BlockId, slots: u64, draws: u64) {
        self.metrics.record_pool_publish(draws);
        let at_ns = self.clock.now();
        self.trace.emit(|| TraceEvent::PoolPublish {
            block,
            slots,
            draws,
            at_ns,
        });
    }

    /// Closes the books of a run over `graph` under `budget`: edges loaded
    /// are derived from the bytes read, peak memory from the budget.
    pub fn close(self, graph: &OnDiskGraph, budget: &MemoryBudget) -> RunMetrics {
        let record_bytes = graph.format().record_bytes().max(1) as u64;
        let edges_loaded = self.metrics.edge_bytes_loaded / record_bytes;
        self.close_with(budget.peak(), edges_loaded)
    }

    /// Closes the books: emits `RunEnd` at the current time and folds the
    /// clock, the wall time, `peak_memory` and `edges_loaded` into the
    /// counters.
    pub fn close_with(mut self, peak_memory: u64, edges_loaded: u64) -> RunMetrics {
        let (steps, walkers_finished) = (self.metrics.steps, self.metrics.walkers_finished);
        let at_ns = self.clock.now();
        self.trace.emit(|| TraceEvent::RunEnd {
            steps,
            walkers_finished,
            at_ns,
        });
        self.metrics.finalize_clock(&self.clock);
        self.metrics.finalize_wall(&self.wall);
        self.metrics.set_peak_memory(peak_memory);
        self.metrics.set_edges_loaded(edges_loaded);
        self.metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::MemorySink;
    use noswalker_graph::generators;
    use noswalker_storage::{Device, SimSsd, SsdProfile};
    use std::sync::Arc;

    #[test]
    fn sync_io_stalls_for_the_whole_service_time_and_traces_it() {
        let mut sink = MemorySink::new();
        let mut ledger = Ledger::new(Trace::on(&mut sink));
        ledger.sync_io(Some(3), 250);
        ledger.compute(50);
        ledger.sync_io(None, 0); // nothing to wait for: no event
        let mut buffered = Ledger::buffered(Trace::off());
        buffered.sync_io(Some(3), 100);
        assert_eq!(buffered.now(), 350); // de-rated 3.5×
        let m = ledger.close_with(0, 0);
        assert_eq!((m.sim_ns, m.stall_ns, m.io_busy_ns), (300, 250, 250));
        let stall = TraceEvent::Stall {
            waiting_for: Some(3),
            from_ns: 0,
            until_ns: 250,
        };
        assert_eq!(sink.events[0], stall);
        assert_eq!(sink.events.len(), 2, "{:?}", sink.events); // + RunEnd
    }

    #[test]
    fn swap_books_what_the_device_moved() {
        let csr = generators::uniform_degree(256, 4, 1);
        let device = Arc::new(SimSsd::new(SsdProfile::nvme_p4618()));
        let graph = OnDiskGraph::store(&csr, device.clone(), 1024).unwrap();
        let before = device.stats();
        let mut ledger = Ledger::new(Trace::off());
        ledger.swap(&graph, Some(0), 1000).unwrap();
        let moved = device.stats().since(&before);
        let m = ledger.close(&graph, &MemoryBudget::new(1 << 20));
        assert_eq!(m.swap_bytes, moved.read_bytes + moved.write_bytes);
        assert_eq!(m.swap_bytes, 2000);
        assert_eq!(m.stall_ns, m.sim_ns);
    }

    #[test]
    fn zero_byte_and_cached_coarse_loads_are_traced_but_not_counted() {
        let mut sink = MemorySink::new();
        let mut ledger = Ledger::new(Trace::on(&mut sink));
        ledger.coarse_load(0, 0, false, 0);
        ledger.coarse_load(1, 4096, true, 0);
        ledger.coarse_load(2, 4096, false, 0);
        let m = ledger.close_with(0, 0);
        assert_eq!(
            (m.coarse_loads, m.io_ops, m.edge_bytes_loaded),
            (1, 1, 4096)
        );
        let bytes: Vec<u64> = (sink.events.iter())
            .filter_map(|e| match e {
                TraceEvent::CoarseLoad { bytes, .. } => Some(*bytes),
                _ => None,
            })
            .collect();
        assert_eq!(bytes, [0, 0, 4096]);
    }
}
