//! A simulated distributed random walk cluster in the spirit of
//! KnightKing (SOSP '19), for the paper's Fig. 17 comparison.
//!
//! The graph is range-partitioned across `nodes` machines, each holding its
//! partition in memory. Every walker hop that crosses a partition boundary
//! ships the walker state over the interconnect; the paper's cluster is 4
//! nodes on 10 Gb/s Ethernet. Compute parallelizes across nodes; loading
//! does too (each node reads its own slice from its own SSD).

use noswalker_core::audit::{RunAudit, Trace, TraceSink};
use noswalker_core::{
    retire_walker, walk_resident, EngineOptions, Ledger, Resident, RunMetrics, Walk, WalkRng,
};
use noswalker_graph::layout::VertexEdges;
use noswalker_graph::{Csr, VertexId};
use noswalker_storage::SsdProfile;
use rand::SeedableRng;
use std::sync::Arc;

/// Interconnect cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkProfile {
    /// Per-node link bandwidth in bytes per second.
    pub bandwidth_bytes_per_sec: u64,
    /// Fixed per-message software overhead in nanoseconds (batched
    /// messaging amortizes the wire latency; this is the CPU cost).
    pub per_message_ns: u64,
}

impl NetworkProfile {
    /// 10 Gb/s Ethernet, the paper's cluster interconnect.
    pub fn ten_gbe() -> Self {
        NetworkProfile {
            bandwidth_bytes_per_sec: 10_000_000_000 / 8,
            per_message_ns: 150,
        }
    }
}

impl Default for NetworkProfile {
    fn default() -> Self {
        Self::ten_gbe()
    }
}

/// The simulated distributed engine.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use noswalker_baselines::{DistributedSim, NetworkProfile};
/// use noswalker_core::EngineOptions;
/// use noswalker_apps::BasicRw;
/// use noswalker_graph::generators;
/// use noswalker_storage::SsdProfile;
///
/// let csr = Arc::new(generators::uniform_degree(256, 4, 1));
/// let app = Arc::new(BasicRw::new(50, 5, 256));
/// let m = DistributedSim::new(
///     app, csr, EngineOptions::default(), 4,
///     SsdProfile::nvme_p4618(), NetworkProfile::ten_gbe(),
/// ).run(1);
/// assert_eq!(m.walkers_finished, 50);
/// assert!(m.swap_bytes > 0); // cross-partition walker messages
/// ```
#[derive(Debug)]
pub struct DistributedSim<A: Walk> {
    app: Arc<A>,
    csr: Arc<Csr>,
    opts: EngineOptions,
    nodes: u32,
    storage: SsdProfile,
    network: NetworkProfile,
}

impl<A: Walk> DistributedSim<A> {
    /// Creates a `nodes`-machine cluster simulation.
    ///
    /// # Panics
    ///
    /// Panics if `nodes == 0`.
    pub fn new(
        app: Arc<A>,
        csr: Arc<Csr>,
        opts: EngineOptions,
        nodes: u32,
        storage: SsdProfile,
        network: NetworkProfile,
    ) -> Self {
        assert!(nodes > 0, "need at least one node");
        DistributedSim {
            app,
            csr,
            opts,
            nodes,
            storage,
            network,
        }
    }

    fn node_of(&self, v: VertexId) -> u32 {
        let per = (self.csr.num_vertices() as u64).div_ceil(self.nodes as u64);
        (v as u64 / per.max(1)) as u32
    }

    /// Runs to completion. `stall_ns` in the result is the parallel graph
    /// load; `sim_ns` additionally includes parallel compute and network
    /// time, so *walk time* = `sim_ns - stall_ns`.
    pub fn run(&self, seed: u64) -> RunMetrics {
        self.run_with_sink(seed, None)
    }

    /// Like [`DistributedSim::run`], recording structured
    /// [`TraceEvent`](noswalker_core::TraceEvent)s into `sink` when one is
    /// supplied. In debug builds the metrics are
    /// checked against the engine conservation laws (there is no memory
    /// budget here, so the budget-floor law is vacuous).
    pub fn run_with_sink<'a>(
        &'a self,
        seed: u64,
        sink: Option<&'a mut dyn TraceSink>,
    ) -> RunMetrics {
        let total = self.app.total_walkers();
        let Ok(metrics) = RunAudit::audited(total, None, || {
            Ok::<_, std::convert::Infallible>(self.run_inner(seed, Trace::from_option(sink)))
        });
        metrics
    }

    fn run_inner(&self, seed: u64, trace: Trace<'_>) -> RunMetrics {
        let mut ledger = Ledger::new(trace);
        let mut rng = WalkRng::seed_from_u64(seed);

        // Parallel load: each node streams its partition slice (the last
        // one takes the remainder) as one load, all at once, so the wait is
        // one synchronous I/O of one slice.
        let (bytes, nodes) = (self.csr.csr_bytes(), u64::from(self.nodes));
        let slice = bytes / nodes;
        for node in 0..self.nodes {
            let own = if node + 1 == self.nodes {
                bytes - slice * (nodes - 1)
            } else {
                slice
            };
            ledger.coarse_load(node, own, false, 0);
        }
        ledger.sync_io(None, self.storage.service_ns(slice.max(1)));

        let mut cross_messages = 0u64;
        let edges = |v| Some(VertexEdges::from_csr(&self.csr, v));
        for n in 0..self.app.total_walkers() {
            let mut w = self.app.generate(n, &mut rng);
            walk_resident(
                &*self.app,
                &mut w,
                &mut rng,
                &mut ledger.metrics,
                &self.opts,
                &mut Resident::new(|v| self.csr.degree(v), edges),
                |at, dst| cross_messages += u64::from(self.node_of(at) != self.node_of(dst)),
            );
            retire_walker(&*self.app, &mut ledger.metrics, &w);
        }
        // Priced per node thread below, not at the options' thread count.
        let compute_ns_serial =
            ledger.metrics.steps * (EngineOptions::STEP_NS + EngineOptions::SAMPLE_NS);

        // Compute parallelizes over nodes × threads; network traffic is
        // spread over the per-node links.
        let parallel = (self.nodes as u64) * self.opts.threads.max(1);
        let compute_ns = compute_ns_serial / parallel.max(1);
        let msg_bytes = cross_messages * self.app.state_bytes() as u64;
        let wire_ns = msg_bytes * 1_000_000_000
            / (self.network.bandwidth_bytes_per_sec.max(1) * self.nodes as u64);
        let overhead_ns = cross_messages * self.network.per_message_ns / self.nodes as u64;
        let network_ns = wire_ns + overhead_ns;
        ledger.compute(compute_ns + network_ns);
        if msg_bytes > 0 {
            ledger.record_swap(msg_bytes, 0); // repurposed: bytes over the wire
        }
        ledger.close_with(0, self.csr.num_edges())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noswalker_core::apps_prelude::*;
    use noswalker_graph::generators;

    #[derive(Debug)]
    struct Basic {
        walkers: u64,
        length: u32,
        n: u32,
    }
    #[derive(Debug, Clone)]
    struct W {
        at: u32,
        step: u32,
    }
    impl Walk for Basic {
        type Walker = W;
        fn total_walkers(&self) -> u64 {
            self.walkers
        }
        fn generate(&self, i: u64, _r: &mut WalkRng) -> W {
            W {
                at: (i % self.n as u64) as u32,
                step: 0,
            }
        }
        fn location(&self, w: &W) -> u32 {
            w.at
        }
        fn is_active(&self, w: &W) -> bool {
            w.step < self.length
        }
        fn sample(&self, v: &VertexEdges<'_>, r: &mut WalkRng) -> u32 {
            uniform_sample(v, r)
        }
        fn action(&self, w: &mut W, next: u32, _r: &mut WalkRng) -> bool {
            w.at = next;
            w.step += 1;
            true
        }
    }

    fn cluster(nodes: u32) -> DistributedSim<Basic> {
        let csr = Arc::new(generators::uniform_degree(1024, 8, 4));
        DistributedSim::new(
            Arc::new(Basic {
                walkers: 200,
                length: 8,
                n: 1024,
            }),
            csr,
            EngineOptions::default(),
            nodes,
            SsdProfile::nvme_p4618(),
            NetworkProfile::ten_gbe(),
        )
    }

    #[test]
    fn completes_and_charges_network() {
        let m = cluster(4).run(1);
        assert_eq!(m.walkers_finished, 200);
        assert_eq!(m.steps, 1600);
        // Uniform random destinations on 4 partitions: ~75 % of hops cross.
        assert!(m.swap_bytes > 0, "cross-partition traffic expected");
    }

    #[test]
    fn more_nodes_load_faster() {
        let m4 = cluster(4).run(2);
        let m8 = cluster(8).run(2);
        assert!(m8.stall_ns < m4.stall_ns);
    }

    #[test]
    fn single_node_has_no_network_traffic() {
        let m = cluster(1).run(3);
        assert_eq!(m.swap_bytes, 0);
    }
}
