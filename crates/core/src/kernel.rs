//! The `StepKernel` seam: one interface over "run this set of walkers
//! over this graph under these options and return [`RunMetrics`]",
//! implemented by both execution strategies the crate ships —
//! [`NosWalkerEngine`] (sequential, fully modeled I/O pipeline) and
//! [`ParallelRunner`] (real threads claiming lock-free from a shared pool
//! of the same pre-sample buffers). Both count into [`RunMetrics`] through
//! the same helpers and time themselves on a [`crate::PipelineClock`].
//!
//! Callers that schedule *units* of walk work — the serving layer's
//! rounds — program against [`StepKernel`] and build the one kernel their
//! configured [`Backend`] names instead of hard-wiring one engine. The seam
//! deliberately returns a [`RoundOutcome`] rather than raw metrics: each
//! kernel also reports a **deterministic** modeled duration
//! (`advance_ns`) for the unit, because the two engines time work
//! differently. The sequential engine's `sim_ns` is already a pure
//! function of the seed; the parallel runner feeds the same clock type
//! from events whose order depends on host thread interleaving (refill
//! arrival order, stall patterns), so its `sim_ns` does too, and its
//! kernel charges a compute-only model — `steps × (step + sample cost)`
//! — which is identical across hosts and runs whenever the step count is
//! (see DESIGN.md §13). Both engines and both kernels now price compute
//! with the same per-thread `step_cost`/`sample_cost`, so cross-engine
//! `sim_ns` figures are directly comparable (the ratcheted 1-worker
//! ratio in `tests/parallel_agreement.rs` leans on this). The remaining
//! counters in `metrics` are honest per-run observations; under the
//! parallel kernel the I/O-shaped ones (loads, stalls, `sim_ns`) may vary
//! with scheduling. At one worker the parallel pipeline is FIFO-deterministic,
//! so even its `sim_ns` is stable run to run.

use crate::engine::{EngineError, NosWalkerEngine};
use crate::options::EngineOptions;
use crate::parallel::ParallelRunner;
use crate::{OnDiskGraph, RunMetrics, Walk};
use noswalker_storage::MemoryBudget;
use std::sync::Arc;

/// Which step kernel executes a unit of walk work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// The sequential [`NosWalkerEngine`] — every counter deterministic.
    #[default]
    Seq,
    /// The lock-free [`ParallelRunner`].
    Par,
}

impl Backend {
    /// Parses `"seq"` / `"par"`.
    pub fn parse(s: &str) -> Option<Backend> {
        match s {
            "seq" => Some(Backend::Seq),
            "par" => Some(Backend::Par),
            _ => None,
        }
    }

    /// The canonical spelling [`Backend::parse`] accepts.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Seq => "seq",
            Backend::Par => "par",
        }
    }
}

/// What one [`StepKernel::run_round`] invocation produced.
#[derive(Debug, Clone)]
pub struct RoundOutcome {
    /// The unit's run metrics (see the module docs for which fields are
    /// deterministic under which kernel).
    pub metrics: RunMetrics,
    /// Deterministic modeled duration of the unit — what the caller
    /// should charge its [`crate::ModelClock`]. A pure function of the
    /// walk outcome (never of host timing), so replays advance time
    /// identically on every backend that moves the walkers identically.
    pub advance_ns: u64,
}

/// An execution strategy for one unit of walk work over a fixed graph,
/// options and memory budget.
pub trait StepKernel<A: Walk + 'static>: Send + Sync {
    /// Runs `app`'s full walker set to completion under `seed`.
    ///
    /// # Errors
    ///
    /// [`EngineError`] as for the underlying engine (budget too small,
    /// device failure).
    fn run_round(&self, app: Arc<A>, seed: u64) -> Result<RoundOutcome, EngineError>;
}

/// [`StepKernel`] over the sequential [`NosWalkerEngine`].
#[derive(Debug)]
pub struct SequentialKernel {
    graph: Arc<OnDiskGraph>,
    opts: EngineOptions,
    budget: Arc<MemoryBudget>,
}

impl SequentialKernel {
    /// Creates a sequential kernel over a stored graph.
    pub fn new(graph: Arc<OnDiskGraph>, opts: EngineOptions, budget: Arc<MemoryBudget>) -> Self {
        SequentialKernel {
            graph,
            opts,
            budget,
        }
    }
}

impl<A: Walk + 'static> StepKernel<A> for SequentialKernel {
    fn run_round(&self, app: Arc<A>, seed: u64) -> Result<RoundOutcome, EngineError> {
        let metrics = NosWalkerEngine::new(
            app,
            Arc::clone(&self.graph),
            self.opts.clone(),
            Arc::clone(&self.budget),
        )
        .run(seed)?;
        Ok(RoundOutcome {
            advance_ns: metrics.sim_ns,
            metrics,
        })
    }
}

/// [`StepKernel`] over the lock-free [`ParallelRunner`].
#[derive(Debug)]
pub struct ParallelKernel {
    graph: Arc<OnDiskGraph>,
    opts: EngineOptions,
    budget: Arc<MemoryBudget>,
    workers: usize,
}

impl ParallelKernel {
    /// Creates a parallel kernel with `workers` walker threads (clamped
    /// to at least one).
    pub fn new(
        graph: Arc<OnDiskGraph>,
        opts: EngineOptions,
        budget: Arc<MemoryBudget>,
        workers: usize,
    ) -> Self {
        ParallelKernel {
            graph,
            opts,
            budget,
            workers: workers.max(1),
        }
    }
}

impl<A: Walk + 'static> StepKernel<A> for ParallelKernel {
    fn run_round(&self, app: Arc<A>, seed: u64) -> Result<RoundOutcome, EngineError> {
        let metrics = ParallelRunner::new(
            app,
            Arc::clone(&self.graph),
            self.opts.clone(),
            Arc::clone(&self.budget),
        )
        .run(seed, self.workers)?;
        // Compute-only time model: the runner's own sim_ns folds in
        // thread-interleaving-dependent stall time, which would make a
        // replayed clock host-dependent. Steps are a pure function of the
        // walk whenever movement is (walker-private sampling), so this
        // charge is too.
        let per_step = self.opts.step_cost() + self.opts.sample_cost();
        Ok(RoundOutcome {
            advance_ns: metrics.steps.saturating_mul(per_step),
            metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps_prelude::*;
    use noswalker_graph::generators;
    use noswalker_storage::{SimSsd, SsdProfile};

    #[derive(Debug)]
    struct Fixed {
        walkers: u64,
        length: u32,
        nv: u32,
    }

    #[derive(Debug, Clone)]
    struct W {
        at: u32,
        step: u32,
    }

    impl Walk for Fixed {
        type Walker = W;
        fn total_walkers(&self) -> u64 {
            self.walkers
        }
        fn generate(&self, n: u64, _rng: &mut WalkRng) -> W {
            W {
                at: (n % self.nv as u64) as u32,
                step: 0,
            }
        }
        fn location(&self, w: &W) -> u32 {
            w.at
        }
        fn is_active(&self, w: &W) -> bool {
            w.step < self.length
        }
        fn sample(&self, v: &VertexEdges<'_>, rng: &mut WalkRng) -> u32 {
            uniform_sample(v, rng)
        }
        fn action(&self, w: &mut W, next: u32, _rng: &mut WalkRng) -> bool {
            w.at = next;
            w.step += 1;
            true
        }
    }

    fn setup() -> (Arc<OnDiskGraph>, Arc<MemoryBudget>) {
        let csr = generators::uniform_degree(64, 4, 11);
        let device = Arc::new(SimSsd::new(SsdProfile::nvme_p4618()));
        let graph = Arc::new(OnDiskGraph::store(&csr, device, 2048).expect("store"));
        (graph, MemoryBudget::new(64 << 10))
    }

    #[test]
    fn backend_specs_round_trip() {
        for b in [Backend::Seq, Backend::Par] {
            assert_eq!(Backend::parse(b.name()), Some(b));
        }
        assert_eq!(Backend::parse("threads"), None);
        assert_eq!(Backend::default(), Backend::Seq);
    }

    #[test]
    fn both_kernels_run_the_same_walk_to_completion() {
        let (graph, budget) = setup();
        let opts = EngineOptions::default();
        let mk = || {
            Arc::new(Fixed {
                walkers: 200,
                length: 5,
                nv: 64,
            })
        };
        let seq = SequentialKernel::new(Arc::clone(&graph), opts.clone(), Arc::clone(&budget));
        let par = ParallelKernel::new(graph, opts, budget, 2);
        let a = seq.run_round(mk(), 7).expect("seq");
        let b = par.run_round(mk(), 7).expect("par");
        // Uniform degree-4 graph: no dead ends, every walker takes every
        // step on either kernel.
        assert_eq!(a.metrics.steps, 1000);
        assert_eq!(b.metrics.steps, 1000);
        assert_eq!(a.metrics.walkers_finished, 200);
        assert_eq!(b.metrics.walkers_finished, 200);
        assert!(a.advance_ns > 0);
        assert!(b.advance_ns > 0);
        // The sequential kernel charges its fully-modeled pipeline time.
        assert_eq!(a.advance_ns, a.metrics.sim_ns);
    }

    #[test]
    fn parallel_advance_is_a_pure_function_of_steps() {
        let (graph, budget) = setup();
        let opts = EngineOptions::default();
        let per_step = opts.step_cost() + opts.sample_cost();
        let par = ParallelKernel::new(graph, opts, budget, 3);
        let app = Arc::new(Fixed {
            walkers: 100,
            length: 4,
            nv: 64,
        });
        let out = par.run_round(app, 3).expect("par");
        assert_eq!(out.advance_ns, out.metrics.steps * per_step);
    }
}
