//! An in-memory random walk engine in the spirit of ThunderRW (VLDB '21).
//!
//! Holds the whole CSR in memory and just walks. Used for the paper's
//! Fig. 17 comparison, which separates **walk time** (pure computation,
//! where in-memory systems win) from **total time** (including the initial
//! graph load, where NosWalker's pipelining wins — the paper measures ~75 %
//! of ThunderRW's time as graph loading).

use noswalker_core::audit::{RunAudit, Trace, TraceEvent, TraceSink};
use noswalker_core::{EngineOptions, RunMetrics, StepSource, Walk, WalkRng, WallTimer};
use noswalker_graph::layout::VertexEdges;
use noswalker_graph::Csr;
use noswalker_storage::SsdProfile;
use rand::SeedableRng;
use std::sync::Arc;

/// The in-memory baseline engine.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use noswalker_baselines::InMemory;
/// use noswalker_core::EngineOptions;
/// use noswalker_apps::BasicRw;
/// use noswalker_graph::generators;
/// use noswalker_storage::SsdProfile;
///
/// let csr = Arc::new(generators::uniform_degree(128, 4, 1));
/// let app = Arc::new(BasicRw::new(50, 5, 128));
/// let m = InMemory::new(app, csr, EngineOptions::default(), SsdProfile::nvme_p4618()).run(1);
/// assert_eq!(m.steps, 250);
/// assert!(m.stall_ns > 0); // the graph-ingest time
/// ```
#[derive(Debug)]
pub struct InMemory<A: Walk> {
    app: Arc<A>,
    csr: Arc<Csr>,
    opts: EngineOptions,
    /// Device profile used to charge the one-time sequential graph load.
    profile: SsdProfile,
}

/// Multiplier on the raw read time for parsing + CSR construction. The
/// paper measures ~75 % of ThunderRW's end-to-end time as graph loading,
/// well above the raw read time of the bytes — ingest is parse-bound.
const INGEST_FACTOR: f64 = 2.5;

impl<A: Walk> InMemory<A> {
    /// Creates the engine over an in-memory CSR; `profile` prices the
    /// initial load from storage.
    pub fn new(app: Arc<A>, csr: Arc<Csr>, opts: EngineOptions, profile: SsdProfile) -> Self {
        InMemory {
            app,
            csr,
            opts,
            profile,
        }
    }

    /// Runs to completion. In the returned metrics, `stall_ns` is exactly
    /// the initial graph load (so *walk time* = `sim_ns - stall_ns`).
    pub fn run(&self, seed: u64) -> RunMetrics {
        self.run_with_sink(seed, None)
    }

    /// Like [`InMemory::run`], recording structured [`TraceEvent`]s into
    /// `sink` when one is supplied. In debug builds the metrics are
    /// checked against the engine conservation laws (there is no memory
    /// budget here, so the budget-floor law is vacuous).
    pub fn run_with_sink<'a>(
        &'a self,
        seed: u64,
        sink: Option<&'a mut dyn TraceSink>,
    ) -> RunMetrics {
        let audit = RunAudit::with_floor(self.app.total_walkers(), 0);
        let metrics = self.run_inner(seed, Trace::from_option(sink));
        if cfg!(debug_assertions) {
            audit.verify_metrics(&metrics).assert_clean();
        }
        metrics
    }

    fn run_inner(&self, seed: u64, mut trace: Trace<'_>) -> RunMetrics {
        let wall = WallTimer::start();
        let mut metrics = RunMetrics::default();
        let mut rng = WalkRng::seed_from_u64(seed);

        // One sequential scan of the CSR from storage, plus parse/build.
        let load_bytes = self.csr.csr_bytes();
        let load_ns = (self.profile.service_ns(load_bytes) as f64 * INGEST_FACTOR) as u64;
        metrics.record_coarse_load(load_bytes); // the one sequential ingest scan
        trace.emit(|| TraceEvent::CoarseLoad {
            block: 0,
            bytes: load_bytes,
            cache_hit: false,
            at_ns: 0,
        });
        trace.emit(|| TraceEvent::Stall {
            waiting_for: Some(0),
            from_ns: 0,
            until_ns: load_ns,
        });

        let mut compute_ns = 0u64;
        let total = self.app.total_walkers();
        for n in 0..total {
            let mut w = self.app.generate(n, &mut rng);
            loop {
                if !self.app.is_active(&w) {
                    break;
                }
                let loc = w_loc(&*self.app, &w);
                if self.csr.degree(loc) == 0 {
                    break;
                }
                let view = VertexEdges::from_csr(&self.csr, loc);
                let dst = self.app.sample(&view, &mut rng);
                self.app.action(&mut w, dst, &mut rng);
                compute_ns += self.opts.step_cost() + self.opts.sample_cost();
                metrics.record_step(StepSource::Block);
            }
            self.app.on_terminate(&w);
            metrics.record_walker_finished();
        }

        metrics.set_sim_times(load_ns + compute_ns, load_ns, load_ns);
        metrics.set_edges_loaded(self.csr.num_edges());
        let (steps, walkers_finished, end_at) =
            (metrics.steps, metrics.walkers_finished, metrics.sim_ns);
        trace.emit(|| TraceEvent::RunEnd {
            steps,
            walkers_finished,
            at_ns: end_at,
        });
        metrics.finalize_wall(&wall);
        metrics
    }
}

fn w_loc<A: Walk>(app: &A, w: &A::Walker) -> u32 {
    app.location(w)
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

    #[test]
    fn walk_time_excludes_load_time() {
        let csr = Arc::new(generators::uniform_degree(512, 8, 2));
        let app = Arc::new(Basic {
            walkers: 100,
            length: 10,
            n: 512,
        });
        let e = InMemory::new(app, csr, EngineOptions::default(), SsdProfile::nvme_p4618());
        let m = e.run(1);
        assert_eq!(m.walkers_finished, 100);
        assert_eq!(m.steps, 1000);
        assert!(m.stall_ns > 0, "load time charged");
        assert!(m.sim_ns > m.stall_ns, "walk time on top of load time");
    }

    #[test]
    fn deterministic() {
        let csr = Arc::new(generators::uniform_degree(128, 4, 9));
        let app = Arc::new(Basic {
            walkers: 40,
            length: 5,
            n: 128,
        });
        let e = InMemory::new(app, csr, EngineOptions::default(), SsdProfile::nvme_p4618());
        let mut a = e.run(3);
        let mut b = e.run(3);
        a.wall_ns = 0;
        b.wall_ns = 0;
        assert_eq!(a, b);
    }
}
