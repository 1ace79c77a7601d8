//! The lockstep serving engine: deterministic round-based multiplexing
//! of live queries over the pooled NosWalker engine.
//!
//! The round state machine itself — drain arrivals through admission,
//! activate up to the walker-pool quota
//! ([`EngineOptions::walker_pool_quota`]), expire deadlines, carve walker
//! chunks, run them on the lane's one `StepKernel` (the one
//! [`ServeOptions::backend`] names), and finalize — lives in
//! [`TickCore`](crate::tick::TickCore), shared with the shard plane and
//! the realtime driver. [`ServeEngine`] is the *lockstep* shell around
//! it: one single-lane core driven by
//! [`TickCore::run_lockstep`](crate::tick::TickCore::run_lockstep) on a
//! [`ModelClock`](noswalker_core::ModelClock), advancing by the kernel's
//! deterministic `advance_ns` charges and jumping idle gaps to the next
//! arrival. Latency, deadlines, retry-after hints and the shed
//! decision all read that clock — never the host clock — so the same
//! trace replays to an identical [`ServeReport`] on every backend: walker
//! movement draws only walker-private randomness (see [`crate::app`]),
//! and serving rounds force all-raw pre-sample retention so no kernel
//! ever consumes a pre-drawn slot whose value depends on refill
//! scheduling.

use crate::tick::{LaneConfig, SingleLane, TickCore};
use noswalker_core::audit::TraceSink;
use noswalker_core::{
    Backend, EngineError, EngineOptions, LatencyHistogram, OnDiskGraph, QueryId, QuerySource,
    QueryStats, RunMetrics,
};
use noswalker_storage::MemoryBudget;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Configuration for [`ServeEngine`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOptions {
    /// Options for the per-round walk engine (the pool quota, step costs
    /// and pre-sample knobs all apply unchanged).
    pub engine: EngineOptions,
    /// Admission-control knobs (queue bound, backoff, shed threshold).
    pub admission: crate::admission::AdmissionOptions,
    /// Base RNG seed; each round derives its own seed from it.
    pub seed: u64,
    /// Additional cap on walkers issued per round, so one giant query
    /// cannot monopolize a round even when the pool quota is large.
    pub round_walkers: u64,
    /// Hard bound on serving rounds — a backstop against a misbehaving
    /// [`QuerySource`] that keeps reporting future work it never yields.
    /// On exhaustion every in-flight query terminates as a degraded
    /// partial and the pending queue drains as shed, so each offered
    /// query still gets an outcome.
    pub max_rounds: u64,
    /// Which `StepKernel` executes rounds: each lane builds this one
    /// kernel and runs every round on it.
    pub backend: Backend,
    /// Worker threads for the parallel kernel. A fixed constant rather
    /// than a host-derived figure, so a trace replays identically on any
    /// machine.
    pub par_workers: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            engine: EngineOptions::default(),
            admission: crate::admission::AdmissionOptions::default(),
            seed: 42,
            round_walkers: 4096,
            max_rounds: 1_000_000,
            backend: Backend::Seq,
            par_workers: 4,
        }
    }
}

/// A serving-layer failure.
#[derive(Debug)]
pub enum ServeError {
    /// The per-round walk engine failed.
    Engine(EngineError),
    /// A query carried a class spec [`QueryClass::parse`] rejects.
    BadQueryClass {
        /// The offending query.
        id: QueryId,
        /// Its unparseable class spec.
        class: String,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Engine(e) => write!(f, "serving round failed: {e}"),
            ServeError::BadQueryClass { id, class } => {
                write!(f, "query {id}: unknown query class {class:?}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

impl From<EngineError> for ServeError {
    fn from(e: EngineError) -> Self {
        ServeError::Engine(e)
    }
}

/// The terminal record of one query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryOutcome {
    /// The query.
    pub id: QueryId,
    /// Its reporting class (`"ppr"`, `"basic"`, …).
    pub class: String,
    /// Walker accounting (the per-query conservation law's input).
    pub stats: QueryStats,
    /// Arrival → completion in modeled nanoseconds (`None` when shed).
    pub latency_ns: Option<u64>,
    /// True when the result is partial: walkers were cancelled or budget
    /// was left unissued at the deadline.
    pub degraded: bool,
    /// True when the deadline passed before the query finished.
    pub deadline_missed: bool,
    /// True when admission rejected the query outright.
    pub shed: bool,
    /// Backpressure hint returned with a shed (modeled ns).
    pub retry_after_ns: Option<u64>,
    /// Order-independent digest of the vertices the query's walkers
    /// visited — the deterministic stand-in for its result payload.
    pub digest: u64,
}

/// Everything a serving run produced.
#[derive(Debug)]
pub struct ServeReport {
    /// One entry per offered query, in termination order.
    pub outcomes: Vec<QueryOutcome>,
    /// Completion-latency histogram per query class.
    pub histograms: BTreeMap<String, LatencyHistogram>,
    /// All per-round [`RunMetrics`], merged.
    pub metrics: RunMetrics,
    /// Serving rounds executed.
    pub rounds: u64,
    /// Modeled time when the last query terminated.
    pub end_ns: u64,
}

impl ServeReport {
    /// Queries that ran to termination (admitted, not shed).
    pub fn completed_count(&self) -> u64 {
        self.outcomes.iter().filter(|o| !o.shed).count() as u64
    }

    /// Queries rejected by admission control.
    pub fn shed_count(&self) -> u64 {
        self.outcomes.iter().filter(|o| o.shed).count() as u64
    }

    /// Served queries whose deadline passed before they finished.
    pub fn deadline_miss_count(&self) -> u64 {
        self.outcomes.iter().filter(|o| o.deadline_missed).count() as u64
    }

    /// Served queries returned partial/degraded.
    pub fn degraded_count(&self) -> u64 {
        self.outcomes.iter().filter(|o| o.degraded).count() as u64
    }

    /// Good answers: served complete and on time (not shed, not degraded,
    /// no deadline miss) — the numerator of goodput.
    pub fn good_count(&self) -> u64 {
        self.outcomes
            .iter()
            .filter(|o| !(o.shed || o.degraded || o.deadline_missed))
            .count() as u64
    }

    /// Served queries per modeled second. "Served" includes degraded
    /// partials and deadline misses; goodput counts [`Self::good_count`].
    pub fn achieved_qps(&self) -> f64 {
        self.completed_count() as f64 / (self.end_ns.max(1) as f64 / 1e9)
    }

    /// The walker accounting of every served query, for
    /// [`noswalker_core::audit_queries`].
    pub fn query_stats(&self) -> Vec<QueryStats> {
        self.outcomes
            .iter()
            .filter(|o| !o.shed)
            .map(|o| o.stats.clone())
            .collect()
    }
}

/// The online serving engine (see module docs).
pub struct ServeEngine {
    graph: Arc<OnDiskGraph>,
    budget: Arc<MemoryBudget>,
    opts: ServeOptions,
}

impl std::fmt::Debug for ServeEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeEngine")
            .field("opts", &self.opts)
            .finish()
    }
}

impl ServeEngine {
    /// Creates a serving engine over a stored graph.
    pub fn new(graph: Arc<OnDiskGraph>, budget: Arc<MemoryBudget>, opts: ServeOptions) -> Self {
        ServeEngine {
            graph,
            budget,
            opts,
        }
    }

    /// The serving options.
    pub fn options(&self) -> &ServeOptions {
        &self.opts
    }

    /// Serves every query `source` yields, to completion, and returns the
    /// report. In debug builds the per-query conservation law
    /// ([`noswalker_core::audit_queries`]) and the per-round engine laws
    /// are asserted.
    ///
    /// # Errors
    ///
    /// [`ServeError::Engine`] when a round fails;
    /// [`ServeError::BadQueryClass`] when an admitted query's class spec
    /// does not parse.
    pub fn run(
        &self,
        source: &mut dyn QuerySource,
        sink: Option<&mut dyn TraceSink>,
    ) -> Result<ServeReport, ServeError> {
        let nv = self.graph.num_vertices() as u32;
        let core = TickCore::new(
            vec![LaneConfig {
                graph: Arc::clone(&self.graph),
                budget: Arc::clone(&self.budget),
                owned: 0..nv,
            }],
            Box::new(SingleLane),
            self.opts.clone(),
        );
        Ok(core.run_lockstep(source, sink)?.report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::ServeWalker;
    use noswalker_core::{QuerySpec, StaticQuerySource};
    use noswalker_graph::generators;
    use noswalker_storage::{SimSsd, SsdProfile};

    fn engine(budget_bytes: u64) -> ServeEngine {
        engine_with(budget_bytes, ServeOptions::default()).0
    }

    fn engine_with(budget_bytes: u64, opts: ServeOptions) -> (ServeEngine, Arc<MemoryBudget>) {
        let csr = generators::uniform_degree(64, 4, 11);
        let device = Arc::new(SimSsd::new(SsdProfile::nvme_p4618()));
        let graph = Arc::new(OnDiskGraph::store(&csr, device, 2048).expect("store"));
        let budget = MemoryBudget::new(budget_bytes);
        (ServeEngine::new(graph, Arc::clone(&budget), opts), budget)
    }

    fn pool_quota(e: &ServeEngine, budget: &MemoryBudget) -> u64 {
        e.options()
            .engine
            .walker_pool_quota(budget, std::mem::size_of::<ServeWalker>(), u64::MAX)
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

    #[test]
    fn serves_a_simple_query_stream_to_completion() {
        let e = engine(64 << 10);
        let mut src = StaticQuerySource::new(vec![
            spec(1, "ppr:3", 40, 0),
            spec(2, "basic", 30, 1_000),
            spec(3, "deepwalk:0", 20, 2_000),
        ]);
        let report = e.run(&mut src, None).expect("serve");
        assert_eq!(report.outcomes.len(), 3);
        assert_eq!(report.completed_count(), 3);
        assert_eq!(report.shed_count(), 0);
        for o in &report.outcomes {
            assert_eq!(o.stats.issued, o.stats.budget);
            assert_eq!(o.stats.completed + o.stats.cancelled, o.stats.issued);
            assert!(o.latency_ns.is_some());
            assert_ne!(o.digest, 0);
        }
        assert!(report.histograms.contains_key("ppr"));
        assert!(report.metrics.steps > 0);
        assert_eq!(
            report.metrics.walkers_finished + report.metrics.walkers_cancelled,
            90
        );
    }

    #[test]
    fn identical_runs_are_bit_identical() {
        let mk = || {
            let e = engine(64 << 10);
            let mut src = StaticQuerySource::new(vec![
                spec(1, "ppr:3", 25, 0),
                spec(2, "rwr:5:0.2", 25, 500),
            ]);
            e.run(&mut src, None).expect("serve")
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.outcomes, b.outcomes);
        assert_eq!(a.end_ns, b.end_ns);
        assert_eq!(a.metrics.steps, b.metrics.steps);
    }

    #[test]
    fn impossible_deadline_returns_degraded_partial_results() {
        let e = engine(64 << 10);
        let mut q = spec(9, "basic", 3_000, 0);
        q.deadline_ns = Some(1); // 1 ns for 15k steps: hopeless
        let mut src = StaticQuerySource::new(vec![q]);
        let report = e.run(&mut src, None).expect("serve");
        assert_eq!(report.outcomes.len(), 1);
        let o = &report.outcomes[0];
        assert!(o.deadline_missed);
        assert!(o.degraded);
        assert!(!o.shed);
        assert!(o.stats.issued < o.stats.budget || o.stats.cancelled > 0);
        assert_eq!(o.stats.completed + o.stats.cancelled, o.stats.issued);
        assert_eq!(report.deadline_miss_count(), 1);
    }

    #[test]
    fn unknown_class_is_an_error() {
        let e = engine(64 << 10);
        let mut src = StaticQuerySource::new(vec![spec(1, "node2vec:0", 10, 0)]);
        match e.run(&mut src, None) {
            Err(ServeError::BadQueryClass { id, class }) => {
                assert_eq!(id, 1);
                assert_eq!(class, "node2vec:0");
            }
            other => panic!("expected BadQueryClass, got {other:?}"),
        }
    }

    #[test]
    fn a_deadline_landing_exactly_on_completion_counts_as_missed() {
        // Regression: the round boundary used `d <= now` but post-round
        // accounting used `d < after`, so a deadline falling exactly on
        // the completion clock was silently not a miss.
        let run = |deadline_ns: Option<u64>| {
            let e = engine(64 << 10);
            let mut q = spec(1, "basic", 10, 0);
            q.deadline_ns = deadline_ns;
            let mut src = StaticQuerySource::new(vec![q]);
            e.run(&mut src, None).expect("serve")
        };
        let free = run(None);
        let exact = run(Some(free.end_ns));
        // The allowance is nowhere near exhausted, so the walk — and the
        // modeled clock — replay identically with the deadline attached.
        assert_eq!(exact.end_ns, free.end_ns);
        let o = &exact.outcomes[0];
        assert!(o.deadline_missed, "deadline == completion time is a miss");
        assert!(!o.degraded);
        assert_eq!(o.stats.issued, 10);
        assert_eq!(o.stats.cancelled, 0);
        assert_eq!(o.digest, free.outcomes[0].digest);
    }

    #[test]
    fn exhausted_round_budget_still_gives_every_offered_query_an_outcome() {
        // Regression: the `max_rounds` backstop broke out of the loop
        // without finalizing in-flight queries or draining the pending
        // queue, so offered queries vanished from the report.
        let opts = ServeOptions {
            max_rounds: 1,
            ..ServeOptions::default()
        };
        let (e, budget) = engine_with(64 << 10, opts);
        let quota = pool_quota(&e, &budget);
        // Query 1 overfills the pool quota so query 2 stays pending in
        // admission when the round budget runs out.
        let mut src = StaticQuerySource::new(vec![
            spec(1, "basic", quota * 2, 0),
            spec(2, "ppr:3", 10, 0),
        ]);
        let report = e.run(&mut src, None).expect("serve");
        assert_eq!(report.rounds, 1);
        assert_eq!(report.outcomes.len(), 2, "every offered query reports");
        let a = report.outcomes.iter().find(|o| o.id == 1).expect("q1");
        assert!(!a.shed);
        assert!(a.degraded, "in-flight work finalizes as a degraded partial");
        assert!(a.stats.issued > 0 && a.stats.issued < a.stats.budget);
        assert_eq!(a.stats.completed + a.stats.cancelled, a.stats.issued);
        let b = report.outcomes.iter().find(|o| o.id == 2).expect("q2");
        assert!(b.shed);
        assert!(b.retry_after_ns.expect("hint") > 0);
        assert!(b.latency_ns.is_none());
    }

    #[test]
    fn a_missed_query_releases_its_pool_share_immediately() {
        // Regression: a query flagged `deadline_missed` after a round —
        // but neither cancelled mid-round nor exhausted — stayed in the
        // active set holding its pool share, stranding pending queries.
        let (e, budget) = engine_with(64 << 10, ServeOptions::default());
        let quota = pool_quota(&e, &budget);
        let chunk = quota.min(e.options().round_walkers);
        // Deadline = the first round's compute-only time: the step
        // allowance (deadline / step cost) comfortably covers the chunk,
        // but the round's modeled I/O pushes the clock past the deadline,
        // so the query misses without a single walker being cancelled.
        let eng = &e.options().engine;
        let d = chunk * 5 * (eng.step_cost() + eng.sample_cost());
        let mut a = spec(1, "basic", quota * 2 + 10, 0);
        a.deadline_ns = Some(d);
        let mut src = StaticQuerySource::new(vec![a, spec(2, "ppr:3", 10, 0)]);
        let report = e.run(&mut src, None).expect("serve");
        assert_eq!(report.outcomes.len(), 2);
        let a = report.outcomes.iter().find(|o| o.id == 1).expect("q1");
        assert!(a.deadline_missed);
        assert_eq!(a.stats.cancelled, 0, "the allowance was never exhausted");
        assert_eq!(a.stats.issued, chunk, "exactly one round's chunk ran");
        // The share freed by the miss lets the pending query run to
        // completion instead of being stranded behind a dead query.
        let b = report.outcomes.iter().find(|o| o.id == 2).expect("q2");
        assert!(!b.shed && !b.degraded && !b.deadline_missed);
        assert_eq!(b.stats.completed, 10);
    }

    #[test]
    fn query_events_land_in_the_trace() {
        let e = engine(64 << 10);
        let mut src = StaticQuerySource::new(vec![spec(1, "basic", 10, 0)]);
        let mut sink = noswalker_core::MemorySink::new();
        e.run(&mut src, Some(&mut sink)).expect("serve");
        let kinds: Vec<&'static str> = sink.events.iter().map(|e| e.kind()).collect();
        assert!(kinds.contains(&"query_admitted"), "{kinds:?}");
        assert!(kinds.contains(&"query_completed"), "{kinds:?}");
    }
}
