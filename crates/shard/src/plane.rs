//! The sharded serving plane: N single-shard lanes under one
//! deterministic clock, stitched together by walker handoff.
//!
//! The round state machine — drain arrivals (routed to their home
//! shard's admission controller), activate per-shard up to each shard's
//! walker-pool quota, expire at the boundary, carve fresh walker chunks
//! per shard in global EDF order, run every shard's round on its own
//! kernel, fold per-slot results back, and drain emigrants into
//! per-destination handoff queues ([`TraceEvent::ShardHandoff`]) — lives
//! in [`noswalker_serve::TickCore`], shared with the unsharded engine
//! and the realtime driver. [`ShardPlane`] is the N-lane *lockstep*
//! shell: it builds one [`LaneConfig`] per shard, injects a
//! [`LaneRouter`] backed by the range-lookup [`ShardRouter`], and hands
//! the core to [`TickCore::run_lockstep`] — the same drive loop the
//! unsharded engine uses. A query whose deadline fires while
//! walkers are in flight *drains* (its handed-off walkers retire through
//! pre-cancelled slots) instead of finalizing early, keeping the
//! query-conservation law exact. The clock advances by the **maximum**
//! of the shards' `advance_ns` charges: shards are parallel in the
//! model. With one shard every phase degenerates to the unsharded
//! engine's behavior bit-for-bit.

use crate::router::ShardRouter;
use crate::subgraph::shard_subgraph;
use noswalker_core::audit::TraceSink;
use noswalker_core::{OnDiskGraph, QuerySource, QuerySpec, StoreError};
use noswalker_graph::{Csr, Partition, VertexId};
use noswalker_serve::{LaneConfig, LaneRouter, QueryClass, ServeError, ServeOptions, TickCore};
use noswalker_storage::{Device, MemoryBudget};
use std::ops::Range;
use std::sync::Arc;

/// One shard's immutable serving substrate: its sub-graph on its own
/// device, its share of the memory budget, and its owned vertex range.
struct ShardHome {
    graph: Arc<OnDiskGraph>,
    budget: Arc<MemoryBudget>,
    owned: Range<VertexId>,
}

/// The plane's [`LaneRouter`]: a query's home shard owns its first
/// walker's start vertex; a walker's owner is looked up by vertex range.
/// Unparseable class specs route to shard 0 (the error surfaces at
/// activation, as in the unsharded engine).
#[derive(Debug, Clone)]
struct PlaneRouter {
    router: ShardRouter,
    nv: u32,
}

impl LaneRouter for PlaneRouter {
    fn home_of(&self, q: &QuerySpec) -> usize {
        QueryClass::parse(&q.class)
            .map(|c| self.router.shard_of(c.start_vertex(0, self.nv)))
            .unwrap_or(0)
    }

    fn lane_of(&self, v: VertexId) -> usize {
        self.router.shard_of(v)
    }
}

/// Everything a sharded serving run produced: the merged report plus
/// per-shard histograms and handoff totals (one lane per shard).
pub use noswalker_serve::TickReport as ShardReport;

/// The N-shard serve plane (see module docs).
pub struct ShardPlane {
    shards: Vec<ShardHome>,
    router: ShardRouter,
    opts: ServeOptions,
    nv: u32,
}

impl std::fmt::Debug for ShardPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardPlane")
            .field("shards", &self.shards.len())
            .field("opts", &self.opts)
            .finish()
    }
}

impl ShardPlane {
    /// Builds an N-shard plane over `csr`: one shard per device, each
    /// owning a contiguous byte-balanced vertex range
    /// (`Partition::shard_ranges`), storing its sub-graph on its device
    /// with a block size scaled by its share of the edge region, and
    /// holding an equal share of `budget_bytes`. With one device this is
    /// exactly the unsharded configuration (`block_bytes`, full budget,
    /// whole graph).
    ///
    /// # Errors
    ///
    /// Propagates [`StoreError`] from writing a shard's sub-graph.
    ///
    /// # Panics
    ///
    /// Panics if `devices` is empty.
    pub fn build(
        csr: &Csr,
        devices: Vec<Arc<dyn Device>>,
        budget_bytes: u64,
        block_bytes: u64,
        opts: ServeOptions,
    ) -> Result<Self, StoreError> {
        assert!(!devices.is_empty(), "need at least one shard device");
        let n = devices.len();
        let ranges = Partition::shard_ranges(csr, csr.edge_format(), n as u32);
        let router = ShardRouter::new(&ranges);
        let total_edges = csr.num_edges().max(1);
        let per_budget = (budget_bytes / n as u64).max(1);
        let mut shards = Vec::with_capacity(n);
        for (range, device) in ranges.into_iter().zip(devices) {
            let sub = shard_subgraph(csr, range.clone());
            let shard_block =
                ((block_bytes as u128 * sub.num_edges() as u128) / total_edges as u128) as u64;
            let graph = Arc::new(OnDiskGraph::store(&sub, device, shard_block.max(1))?);
            shards.push(ShardHome {
                graph,
                budget: MemoryBudget::new(per_budget),
                owned: range,
            });
        }
        Ok(ShardPlane {
            shards,
            router,
            opts,
            nv: csr.num_vertices() as u32,
        })
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The serving options.
    pub fn options(&self) -> &ServeOptions {
        &self.opts
    }

    /// The vertex range shard `s` owns.
    pub fn owned_range(&self, s: usize) -> Range<VertexId> {
        self.shards[s].owned.clone()
    }

    /// Serves every query `source` yields across all shards and returns
    /// the merged report. In debug builds the handoff conservation law
    /// ([`noswalker_core::audit_handoffs`]) is asserted after every round
    /// and at run end, and the per-query conservation law
    /// ([`noswalker_core::audit_queries`]) on the final report.
    ///
    /// # Errors
    ///
    /// [`ServeError::Engine`] when a shard's round fails;
    /// [`ServeError::BadQueryClass`] when an admitted query's class spec
    /// does not parse.
    pub fn run(
        &self,
        source: &mut dyn QuerySource,
        sink: Option<&mut dyn TraceSink>,
    ) -> Result<ShardReport, ServeError> {
        let lanes = self
            .shards
            .iter()
            .map(|sh| LaneConfig {
                graph: Arc::clone(&sh.graph),
                budget: Arc::clone(&sh.budget),
                owned: sh.owned.clone(),
            })
            .collect();
        TickCore::new(
            lanes,
            Box::new(PlaneRouter {
                router: self.router.clone(),
                nv: self.nv,
            }),
            self.opts.clone(),
        )
        .run_lockstep(source, sink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noswalker_core::audit::TraceEvent;
    use noswalker_core::{audit_handoffs, MemorySink, StaticQuerySource};
    use noswalker_graph::generators;
    use noswalker_serve::ServeEngine;
    use noswalker_storage::{per_shard_devices, SimSsd, SsdProfile};

    const BLOCK: u64 = 2048;
    const BUDGET: u64 = 64 << 10;

    fn graph() -> Csr {
        generators::uniform_degree(64, 4, 11)
    }

    fn plane(shards: usize) -> ShardPlane {
        let csr = graph();
        let devices = per_shard_devices(shards, 1, SsdProfile::nvme_p4618(), 64 << 10);
        ShardPlane::build(&csr, devices, BUDGET, BLOCK, ServeOptions::default()).expect("build")
    }

    fn spec(id: u64, class: &str, walkers: u64, arrival_ns: u64) -> QuerySpec {
        QuerySpec {
            id,
            class: class.into(),
            walkers,
            walk_length: 5,
            deadline_ns: None,
            arrival_ns,
        }
    }

    /// A mix whose start vertices spread across the vertex space, so
    /// multi-shard runs actually hand walkers off.
    fn spread_mix() -> Vec<QuerySpec> {
        vec![
            spec(1, "ppr:3", 40, 0),
            spec(2, "basic", 30, 500),
            spec(3, "deepwalk:40", 20, 1_000),
            spec(4, "rwr:60:0.2", 25, 1_500),
            spec(5, "ppr:33", 15, 2_000),
        ]
    }

    #[test]
    fn one_shard_matches_the_unsharded_engine_bit_for_bit() {
        let csr = graph();
        let device = Arc::new(SimSsd::new(SsdProfile::nvme_p4618()));
        let graph = Arc::new(OnDiskGraph::store(&csr, device, BLOCK).expect("store"));
        let budget = MemoryBudget::new(BUDGET);
        let engine = ServeEngine::new(graph, budget, ServeOptions::default());
        let mut src = StaticQuerySource::new(spread_mix());
        let reference = engine.run(&mut src, None).expect("serve");

        let p = plane(1);
        let mut src = StaticQuerySource::new(spread_mix());
        let sharded = p.run(&mut src, None).expect("serve");

        assert_eq!(sharded.report.outcomes, reference.outcomes);
        assert_eq!(sharded.report.end_ns, reference.end_ns);
        assert_eq!(sharded.report.rounds, reference.rounds);
        assert_eq!(sharded.report.histograms, reference.histograms);
        assert_eq!(sharded.report.metrics.steps, reference.metrics.steps);
        assert_eq!(sharded.walkers_emigrated, 0);
        assert_eq!(sharded.walkers_immigrated, 0);
    }

    #[test]
    fn multi_shard_serves_everything_and_conserves_handoffs() {
        let p = plane(4);
        let mut src = StaticQuerySource::new(spread_mix());
        let r = p.run(&mut src, None).expect("serve");
        assert_eq!(r.report.outcomes.len(), 5);
        assert_eq!(r.report.completed_count(), 5);
        for o in &r.report.outcomes {
            assert_eq!(o.stats.issued, o.stats.budget);
            assert_eq!(o.stats.completed + o.stats.cancelled, o.stats.issued);
            assert_ne!(o.digest, 0);
        }
        assert!(r.walkers_emigrated > 0, "spread mix must cross boundaries");
        assert_eq!(r.walkers_emigrated, r.walkers_immigrated);
        assert_eq!(r.report.metrics.walkers_emigrated, r.walkers_emigrated);
        assert_eq!(r.report.metrics.walkers_immigrated, r.walkers_immigrated);
        audit_handoffs(r.walkers_emigrated, r.walkers_immigrated, 0).assert_clean();
    }

    #[test]
    fn sharded_digests_match_the_unsharded_engine() {
        // Walker trajectories are shard-count invariant: handoff preserves
        // the walker's private stream, so per-query digests are identical
        // at any shard count.
        let csr = graph();
        let device = Arc::new(SimSsd::new(SsdProfile::nvme_p4618()));
        let g = Arc::new(OnDiskGraph::store(&csr, device, BLOCK).expect("store"));
        let engine = ServeEngine::new(g, MemoryBudget::new(BUDGET), ServeOptions::default());
        let mut src = StaticQuerySource::new(spread_mix());
        let reference = engine.run(&mut src, None).expect("serve");
        for shards in [2usize, 3, 4] {
            let p = plane(shards);
            let mut src = StaticQuerySource::new(spread_mix());
            let r = p.run(&mut src, None).expect("serve");
            for o in &reference.outcomes {
                let s = r
                    .report
                    .outcomes
                    .iter()
                    .find(|x| x.id == o.id)
                    .expect("query");
                assert_eq!(s.digest, o.digest, "query {} at {shards} shards", o.id);
                assert_eq!(s.stats.completed, o.stats.completed);
            }
        }
    }

    #[test]
    fn sharded_runs_are_bit_identical() {
        let mk = || {
            let p = plane(3);
            let mut src = StaticQuerySource::new(spread_mix());
            p.run(&mut src, None).expect("serve")
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.report.outcomes, b.report.outcomes);
        assert_eq!(a.report.end_ns, b.report.end_ns);
        assert_eq!(a.walkers_emigrated, b.walkers_emigrated);
    }

    #[test]
    fn handoff_events_land_in_the_trace() {
        let p = plane(4);
        let mut src = StaticQuerySource::new(spread_mix());
        let mut sink = MemorySink::new();
        p.run(&mut src, Some(&mut sink)).expect("serve");
        let handoffs: u64 = sink
            .events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::ShardHandoff { walkers, .. } => Some(*walkers),
                _ => None,
            })
            .sum();
        assert!(handoffs > 0, "spread mix must emit handoff events");
    }

    #[test]
    fn draining_query_with_in_flight_walkers_conserves_walkers() {
        // A short deadline on a spread query forces the miss to land
        // while walkers are parked in handoff queues; the query must
        // drain (walkers cancelled on re-admission) rather than lose
        // them.
        let p = plane(4);
        let mut q = spec(1, "basic", 200, 0);
        q.deadline_ns = Some(50_000);
        let mut src = StaticQuerySource::new(vec![q, spec(2, "ppr:50", 30, 0)]);
        let r = p.run(&mut src, None).expect("serve");
        assert_eq!(r.report.outcomes.len(), 2);
        for o in &r.report.outcomes {
            assert_eq!(o.stats.completed + o.stats.cancelled, o.stats.issued);
        }
        assert_eq!(r.walkers_emigrated, r.walkers_immigrated);
    }
}
