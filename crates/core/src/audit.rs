//! Run auditing and structured per-run tracing.
//!
//! Two complementary observability tools for every engine in the workspace:
//!
//! * [`TraceSink`] — a cheap event stream. Engines emit [`TraceEvent`]s at
//!   their I/O and scheduling decision points (block loads, pre-sample
//!   refills and evictions, stalls with the block being waited on, swap
//!   traffic, the fine-grained mode switch). The default is no sink at all:
//!   emission goes through [`Trace`], which holds `Option<&mut dyn
//!   TraceSink>` and takes the event as a closure, so a disabled trace
//!   never constructs the event — the cost is one branch per site.
//! * [`RunAudit`] — an invariant checker asserting the engine
//!   *conservation laws* over the final [`RunMetrics`]: every step must be
//!   attributed to exactly one data source, every walker must finish,
//!   pre-sample consumption cannot exceed production, the memory budget
//!   must return to its pre-run floor, and byte counters must be
//!   consistent with the load counters that produced them.
//!
//! The laws are what the paper's evaluation implicitly relies on: a run
//! whose step attribution doesn't sum, or whose budget leaks, produces
//! figures that *look* fine but measure nothing. Test builds run every
//! engine through [`RunAudit::assert_clean`](AuditReport::assert_clean).

use crate::metrics::RunMetrics;
use noswalker_graph::partition::BlockId;
use noswalker_storage::MemoryBudget;

/// A structured event emitted by an engine during a run.
///
/// All timestamps are simulated nanoseconds from the run's
/// [`PipelineClock`](crate::PipelineClock) (baselines without a pipeline
/// clock report their own simulated time base).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A coarse (whole-block) load was issued to the device.
    CoarseLoad {
        /// Block that was loaded.
        block: BlockId,
        /// Bytes read from the device (0 on a cache hit).
        bytes: u64,
        /// True when the block was already resident and no I/O happened.
        cache_hit: bool,
        /// Simulated time the load was issued.
        at_ns: u64,
    },
    /// A fine-grained (4 KiB-page) load batch was issued (§3.3.1).
    FineLoad {
        /// Block the target vertices live in.
        block: BlockId,
        /// Stalled vertices served by this batch.
        vertices: u64,
        /// Contiguous device runs (individual read ops) issued.
        runs: u64,
        /// Bytes read from the device.
        bytes: u64,
        /// Simulated time the load was issued.
        at_ns: u64,
    },
    /// Pre-sample buffers were (re)filled from a resident block (§2.4.1).
    PresampleRefill {
        /// Block whose vertices were pre-sampled.
        block: BlockId,
        /// Vertices that received reserved samples.
        slots: u64,
        /// Total samples drawn.
        draws: u64,
        /// Simulated time of the refill.
        at_ns: u64,
    },
    /// A pre-sample buffer was evicted to free budget.
    PresampleEvict {
        /// Block whose buffer was dropped.
        block: BlockId,
        /// Budget bytes reclaimed.
        bytes: u64,
        /// Simulated time of the eviction.
        at_ns: u64,
    },
    /// A cached block buffer was evicted to free budget.
    CacheEvict {
        /// Simulated time of the eviction.
        at_ns: u64,
    },
    /// The engine stalled waiting for I/O.
    Stall {
        /// Block the engine was waiting on (`None` when the stall is not
        /// attributable to a single block, e.g. a swap drain).
        waiting_for: Option<BlockId>,
        /// Simulated time the stall began.
        from_ns: u64,
        /// Simulated time the stall ended.
        until_ns: u64,
    },
    /// Walker-state swap traffic (engines without walker management).
    Swap {
        /// Bytes moved (write + read-back).
        bytes: u64,
        /// Simulated time of the swap.
        at_ns: u64,
    },
    /// A new pre-sample buffer generation was atomically published to the
    /// parallel runner's lock-free shared pool (background refill ④).
    PoolPublish {
        /// Block whose generation was replaced.
        block: BlockId,
        /// Vertices that received slots in the new generation.
        slots: u64,
        /// Samples drawn while building it.
        draws: u64,
        /// Simulated time the publish was observed.
        at_ns: u64,
    },
    /// A prefetched coarse block arrived: consumed by a waiting walker
    /// bucket (`hit`) or discarded unneeded (`!hit`).
    Prefetch {
        /// The prefetched block.
        block: BlockId,
        /// Whether walkers were still waiting for it.
        hit: bool,
        /// Simulated time the block arrived.
        at_ns: u64,
    },
    /// The engine switched to fine-grained I/O mode (§3.3.1).
    FineModeSwitch {
        /// Global step count at the switch.
        at_step: u64,
        /// Simulated time of the switch.
        at_ns: u64,
    },
    /// The run finished.
    RunEnd {
        /// Total steps moved.
        steps: u64,
        /// Walkers that finished.
        walkers_finished: u64,
        /// Simulated end time.
        at_ns: u64,
    },
    /// The serving layer admitted a query into the active set.
    QueryAdmitted {
        /// Query id.
        query: u64,
        /// Walker budget the query carries.
        walkers: u64,
        /// Absolute deadline in simulated time (`None` = best effort).
        deadline_ns: Option<u64>,
        /// Simulated admission time.
        at_ns: u64,
    },
    /// A query finished serving: every issued walker was retired.
    QueryCompleted {
        /// Query id.
        query: u64,
        /// Walkers actually issued into the engine.
        issued: u64,
        /// Walkers that completed their walk.
        completed: u64,
        /// Walkers cancelled by the query's timeout.
        cancelled: u64,
        /// True when the result is partial (walkers were cancelled or
        /// never issued, or the deadline passed).
        degraded: bool,
        /// Simulated completion time.
        at_ns: u64,
    },
    /// Admission control rejected a query (backpressure or stall-rate
    /// shedding) instead of queueing it unboundedly.
    QueryShed {
        /// Query id.
        query: u64,
        /// Suggested simulated-time delay before retrying.
        retry_after_ns: u64,
        /// Simulated shed time.
        at_ns: u64,
    },
    /// A caller cancelled a query mid-flight (realtime ingress `Cancel`
    /// command). The query still reaches `ServeReport::outcomes` — as a
    /// degraded partial when it was already active, or with zero issued
    /// walkers when it was still queued — so the per-query conservation
    /// law stays exact.
    QueryCancelled {
        /// Query id.
        query: u64,
        /// Simulated (or wall, in realtime mode) time of the cancel.
        at_ns: u64,
    },
    /// A query's deadline passed before its walkers finished.
    QueryDeadlineMiss {
        /// Query id.
        query: u64,
        /// The deadline that was missed.
        deadline_ns: u64,
        /// Simulated time the miss was observed.
        at_ns: u64,
    },
    /// A batch of walkers crossed a shard partition boundary and was
    /// drained into the destination shard's handoff queue (sharded
    /// serving). The handoff-conservation law balances these against
    /// re-admissions: `walkers_emigrated == walkers_immigrated +
    /// in_flight`, with `in_flight` drained to zero by run end.
    ShardHandoff {
        /// Shard the walkers emigrated from.
        from_shard: u32,
        /// Shard the walkers will be re-admitted on next round.
        to_shard: u32,
        /// Walkers in the batch.
        walkers: u64,
        /// Simulated time the batch was drained.
        at_ns: u64,
    },
}

impl TraceEvent {
    /// Stable lowercase name of the event kind (JSON/TSV `event` field).
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::CoarseLoad { .. } => "coarse_load",
            TraceEvent::FineLoad { .. } => "fine_load",
            TraceEvent::PresampleRefill { .. } => "presample_refill",
            TraceEvent::PresampleEvict { .. } => "presample_evict",
            TraceEvent::CacheEvict { .. } => "cache_evict",
            TraceEvent::Stall { .. } => "stall",
            TraceEvent::Swap { .. } => "swap",
            TraceEvent::PoolPublish { .. } => "pool_publish",
            TraceEvent::Prefetch { .. } => "prefetch",
            TraceEvent::FineModeSwitch { .. } => "fine_mode_switch",
            TraceEvent::RunEnd { .. } => "run_end",
            TraceEvent::QueryAdmitted { .. } => "query_admitted",
            TraceEvent::QueryCompleted { .. } => "query_completed",
            TraceEvent::QueryShed { .. } => "query_shed",
            TraceEvent::QueryCancelled { .. } => "query_cancelled",
            TraceEvent::QueryDeadlineMiss { .. } => "query_deadline_miss",
            TraceEvent::ShardHandoff { .. } => "shard_handoff",
        }
    }

    /// The event's payload as `(key, JSON-ready value)` pairs. Values are
    /// already valid JSON scalars (numbers, `true`/`false`, `null`), so
    /// both exporters share this without an escaping pass.
    pub fn fields(&self) -> Vec<(&'static str, String)> {
        fn opt(v: Option<BlockId>) -> String {
            v.map_or_else(|| "null".to_string(), |b| b.to_string())
        }
        match self {
            TraceEvent::CoarseLoad {
                block,
                bytes,
                cache_hit,
                at_ns,
            } => vec![
                ("block", block.to_string()),
                ("bytes", bytes.to_string()),
                ("cache_hit", cache_hit.to_string()),
                ("at_ns", at_ns.to_string()),
            ],
            TraceEvent::FineLoad {
                block,
                vertices,
                runs,
                bytes,
                at_ns,
            } => vec![
                ("block", block.to_string()),
                ("vertices", vertices.to_string()),
                ("runs", runs.to_string()),
                ("bytes", bytes.to_string()),
                ("at_ns", at_ns.to_string()),
            ],
            TraceEvent::PresampleRefill {
                block,
                slots,
                draws,
                at_ns,
            } => vec![
                ("block", block.to_string()),
                ("slots", slots.to_string()),
                ("draws", draws.to_string()),
                ("at_ns", at_ns.to_string()),
            ],
            TraceEvent::PresampleEvict {
                block,
                bytes,
                at_ns,
            } => vec![
                ("block", block.to_string()),
                ("bytes", bytes.to_string()),
                ("at_ns", at_ns.to_string()),
            ],
            TraceEvent::CacheEvict { at_ns } => vec![("at_ns", at_ns.to_string())],
            TraceEvent::Stall {
                waiting_for,
                from_ns,
                until_ns,
            } => vec![
                ("waiting_for", opt(*waiting_for)),
                ("from_ns", from_ns.to_string()),
                ("until_ns", until_ns.to_string()),
            ],
            TraceEvent::Swap { bytes, at_ns } => {
                vec![("bytes", bytes.to_string()), ("at_ns", at_ns.to_string())]
            }
            TraceEvent::PoolPublish {
                block,
                slots,
                draws,
                at_ns,
            } => vec![
                ("block", block.to_string()),
                ("slots", slots.to_string()),
                ("draws", draws.to_string()),
                ("at_ns", at_ns.to_string()),
            ],
            TraceEvent::Prefetch { block, hit, at_ns } => vec![
                ("block", block.to_string()),
                ("hit", hit.to_string()),
                ("at_ns", at_ns.to_string()),
            ],
            TraceEvent::FineModeSwitch { at_step, at_ns } => vec![
                ("at_step", at_step.to_string()),
                ("at_ns", at_ns.to_string()),
            ],
            TraceEvent::RunEnd {
                steps,
                walkers_finished,
                at_ns,
            } => vec![
                ("steps", steps.to_string()),
                ("walkers_finished", walkers_finished.to_string()),
                ("at_ns", at_ns.to_string()),
            ],
            TraceEvent::QueryAdmitted {
                query,
                walkers,
                deadline_ns,
                at_ns,
            } => vec![
                ("query", query.to_string()),
                ("walkers", walkers.to_string()),
                (
                    "deadline_ns",
                    deadline_ns.map_or_else(|| "null".to_string(), |d| d.to_string()),
                ),
                ("at_ns", at_ns.to_string()),
            ],
            TraceEvent::QueryCompleted {
                query,
                issued,
                completed,
                cancelled,
                degraded,
                at_ns,
            } => vec![
                ("query", query.to_string()),
                ("issued", issued.to_string()),
                ("completed", completed.to_string()),
                ("cancelled", cancelled.to_string()),
                ("degraded", degraded.to_string()),
                ("at_ns", at_ns.to_string()),
            ],
            TraceEvent::QueryShed {
                query,
                retry_after_ns,
                at_ns,
            } => vec![
                ("query", query.to_string()),
                ("retry_after_ns", retry_after_ns.to_string()),
                ("at_ns", at_ns.to_string()),
            ],
            TraceEvent::QueryCancelled { query, at_ns } => {
                vec![("query", query.to_string()), ("at_ns", at_ns.to_string())]
            }
            TraceEvent::QueryDeadlineMiss {
                query,
                deadline_ns,
                at_ns,
            } => vec![
                ("query", query.to_string()),
                ("deadline_ns", deadline_ns.to_string()),
                ("at_ns", at_ns.to_string()),
            ],
            TraceEvent::ShardHandoff {
                from_shard,
                to_shard,
                walkers,
                at_ns,
            } => vec![
                ("from_shard", from_shard.to_string()),
                ("to_shard", to_shard.to_string()),
                ("walkers", walkers.to_string()),
                ("at_ns", at_ns.to_string()),
            ],
        }
    }
}

/// A consumer of [`TraceEvent`]s.
///
/// Sinks are driven from the engine's coordinating thread only; worker
/// threads in [`ParallelRunner`](crate::parallel::ParallelRunner) do not
/// emit (the sink is `&mut`, not shared).
pub trait TraceSink {
    /// Records one event. Called in run order.
    fn record(&mut self, ev: &TraceEvent);
}

/// A sink that discards every event.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn record(&mut self, _ev: &TraceEvent) {}
}

/// A sink that buffers events in memory and exports them as JSON or TSV.
#[derive(Debug, Default)]
pub struct MemorySink {
    /// The recorded events, in run order.
    pub events: Vec<TraceEvent>,
}

impl TraceSink for MemorySink {
    fn record(&mut self, ev: &TraceEvent) {
        self.events.push(ev.clone());
    }
}

impl MemorySink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Renders the events as a JSON array of objects, one per event, each
    /// with an `"event"` kind plus the event's fields.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, ev) in self.events.iter().enumerate() {
            out.push_str("  {\"event\":\"");
            out.push_str(ev.kind());
            out.push('"');
            for (k, v) in ev.fields() {
                out.push_str(",\"");
                out.push_str(k);
                out.push_str("\":");
                out.push_str(&v);
            }
            out.push('}');
            if i + 1 < self.events.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push(']');
        out.push('\n');
        out
    }

    /// Renders the events as TSV: `kind<TAB>key=value<TAB>...`, one event
    /// per line — greppable and `cut`-able without a JSON parser.
    pub fn to_tsv(&self) -> String {
        let mut out = String::new();
        for ev in &self.events {
            out.push_str(ev.kind());
            for (k, v) in ev.fields() {
                out.push('\t');
                out.push_str(k);
                out.push('=');
                out.push_str(&v);
            }
            out.push('\n');
        }
        out
    }

    /// Total stalled nanoseconds across all [`TraceEvent::Stall`] events.
    pub fn total_stall_ns(&self) -> u64 {
        self.events
            .iter()
            .filter_map(|ev| match ev {
                TraceEvent::Stall {
                    from_ns, until_ns, ..
                } => Some(until_ns.saturating_sub(*from_ns)),
                _ => None,
            })
            .sum()
    }

    /// Stall time attributed per block, worst offender first. `None` keys
    /// collect stalls not attributable to a single block.
    pub fn stall_by_block(&self) -> Vec<(Option<BlockId>, u64)> {
        let mut agg: Vec<(Option<BlockId>, u64)> = Vec::new();
        for ev in &self.events {
            if let TraceEvent::Stall {
                waiting_for,
                from_ns,
                until_ns,
            } = ev
            {
                let ns = until_ns.saturating_sub(*from_ns);
                match agg.iter_mut().find(|(k, _)| k == waiting_for) {
                    Some((_, total)) => *total += ns,
                    None => agg.push((*waiting_for, ns)),
                }
            }
        }
        agg.sort_by_key(|&(_, ns)| std::cmp::Reverse(ns));
        agg
    }
}

/// A handle engines thread through their run loops: either disabled (the
/// default — one branch per site, the event is never constructed) or
/// pointing at a caller-owned [`TraceSink`].
pub struct Trace<'a> {
    sink: Option<&'a mut dyn TraceSink>,
}

impl std::fmt::Debug for Trace<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Trace")
            .field("enabled", &self.sink.is_some())
            .finish()
    }
}

impl Default for Trace<'_> {
    fn default() -> Self {
        Trace::off()
    }
}

impl<'a> Trace<'a> {
    /// A disabled trace: `emit` is a single `None` check.
    pub fn off() -> Self {
        Trace { sink: None }
    }

    /// A trace recording into `sink`.
    pub fn on(sink: &'a mut dyn TraceSink) -> Self {
        Trace { sink: Some(sink) }
    }

    /// Wraps an optional sink (the shape engine entry points take).
    pub fn from_option(sink: Option<&'a mut dyn TraceSink>) -> Self {
        Trace { sink }
    }

    /// Whether events will be recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Records the event built by `f` — only calling `f` when a sink is
    /// attached, so disabled tracing never pays for event construction.
    #[inline]
    pub fn emit(&mut self, f: impl FnOnce() -> TraceEvent) {
        if let Some(sink) = self.sink.as_deref_mut() {
            let ev = f();
            sink.record(&ev);
        }
    }
}

/// One violated conservation law.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Stable short name of the law (e.g. `step-attribution`).
    pub law: &'static str,
    /// Human-readable account of the mismatch, with both sides' values.
    pub detail: String,
}

/// The outcome of a [`RunAudit`] check.
#[derive(Debug, Clone, Default)]
pub struct AuditReport {
    /// Every violated law, in check order. Empty means the run conserved.
    pub violations: Vec<Violation>,
}

impl AuditReport {
    /// True when no law was violated.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Panics with every violation listed unless the report is clean.
    /// Intended for test builds and debug assertions.
    #[expect(clippy::panic, reason = "panicking is its documented purpose")]
    pub fn assert_clean(&self) {
        if !self.is_clean() {
            let mut msg = String::from("run audit failed:\n");
            for v in &self.violations {
                msg.push_str("  [");
                msg.push_str(v.law);
                msg.push_str("] ");
                msg.push_str(&v.detail);
                msg.push('\n');
            }
            panic!("{msg}");
        }
    }
}

/// Checks the engine conservation laws over a finished run.
///
/// Construct it *before* the run with [`RunAudit::begin`] (capturing the
/// memory budget's pre-run floor), then call [`RunAudit::verify`] on the
/// returned metrics:
///
/// ```
/// # use noswalker_core::audit::RunAudit;
/// # use noswalker_core::RunMetrics;
/// # use noswalker_storage::MemoryBudget;
/// let budget = MemoryBudget::new(1 << 20);
/// let audit = RunAudit::begin(10, &budget);
/// let mut m = RunMetrics::default();
/// m.steps = 50;
/// m.steps_on_block = 50;
/// m.walkers_finished = 10;
/// audit.verify(&m, &budget).assert_clean();
/// ```
#[derive(Debug, Clone)]
pub struct RunAudit {
    total_walkers: u64,
    budget_floor: u64,
}

impl RunAudit {
    /// Starts an audit: `total_walkers` is the number the app will
    /// generate; the budget's current `in_use` becomes the floor the run
    /// must return to.
    pub fn begin(total_walkers: u64, budget: &MemoryBudget) -> Self {
        RunAudit {
            total_walkers,
            budget_floor: budget.in_use(),
        }
    }

    /// Starts an audit with an explicit budget floor (for callers without
    /// a budget handle, or replaying recorded runs).
    pub fn with_floor(total_walkers: u64, budget_floor: u64) -> Self {
        RunAudit {
            total_walkers,
            budget_floor,
        }
    }

    /// Checks the metrics-only laws plus the budget-floor law.
    pub fn verify(&self, m: &RunMetrics, budget: &MemoryBudget) -> AuditReport {
        let mut report = self.verify_metrics(m);
        let in_use = budget.in_use();
        if in_use != self.budget_floor {
            report.violations.push(Violation {
                law: "budget-floor",
                detail: format!(
                    "budget in_use {} != pre-run floor {} (reservation leak)",
                    in_use, self.budget_floor
                ),
            });
        }
        report
    }

    /// Checks every law derivable from the metrics alone:
    ///
    /// 1. **step-attribution** — `steps == steps_on_block +
    ///    steps_on_presample + steps_on_raw`: every step came from exactly
    ///    one data source.
    /// 2. **walker-completion** — `walkers_finished + walkers_cancelled ==
    ///    total_walkers`: every walker either completed its walk or was
    ///    explicitly cancelled; no path may silently drop one.
    /// 3. **presample-balance** — `presamples_consumed + claims_burned <=
    ///    presamples_filled`: consumption (served or burned) cannot outrun
    ///    production.
    /// 4. **load-byte-consistency** — bytes were loaded iff loads (and
    ///    I/O ops) were issued, in both directions.
    /// 5. **clock-sanity** — `stall_ns <= sim_ns`.
    /// 6. **edge-accounting** — `edges_loaded <= edge_bytes_loaded`: an
    ///    edge costs at least one byte, so the logical count can never
    ///    exceed the byte count.
    /// 7. **swap-attribution** — swap traffic (`swap_bytes`) implies the
    ///    run had walkers to swap.
    /// 8. **second-order-balance** — `accepts <= steps_on_block` (every
    ///    accepted candidate is recorded as a resident-block step), and
    ///    any rejection-sampling activity implies edge data was loaded.
    /// 9. **prefetch-accounting** — `prefetch_hits <= coarse_loads +
    ///    fine_loads`, and any prefetch outcome (hit or wasted) implies at
    ///    least one load (the first load is always a demand load).
    /// 10. **pool-accounting** — a published pre-sample buffer
    ///     (`pool_publishes`) is built from loaded edge data, so it
    ///     implies a coarse or fine load.
    /// 11. **stall-accounting** — a stalled or deferred walker survives
    ///     and eventually steps (or is cancelled), so stalls or
    ///     deferrals (`pool_deferrals` — visits that found no published
    ///     generation at all) with zero steps and zero cancellations
    ///     mean a walker was lost mid-wait.
    /// 12. **budget-peak** — a recorded `peak_memory` can never be below
    ///     the budget's pre-run floor (the peak is a running maximum over
    ///     a quantity that starts at the floor).
    /// 13. **claim-conservation** — every slot claimed from the shared
    ///     pool (plus every stalled visit) must end up consumed by a
    ///     step, burned as a batch leftover, or recorded as a stall:
    ///     `pool_attempts <= presamples_consumed + claims_burned +
    ///     pool_stalls`. A claimed slot cannot leak. (One-directional
    ///     because merged sequential runs consume pre-samples without
    ///     pool attempts.)
    /// 14. **handoff-conservation** — cross-shard walker handoff cannot
    ///     invent walkers: `walkers_immigrated <= walkers_emigrated`
    ///     (re-admission never outruns emigration; the difference is the
    ///     in-flight queue depth, which [`audit_handoffs`] checks exactly
    ///     round by round), and every emigrated walker was retired on its
    ///     source shard via the cancellation path, so
    ///     `walkers_emigrated <= walkers_cancelled`.
    pub fn verify_metrics(&self, m: &RunMetrics) -> AuditReport {
        let RunMetrics {
            sim_ns,
            wall_ns: _,
            stall_ns,
            io_busy_ns: _,
            steps,
            steps_on_block,
            steps_on_presample,
            steps_on_raw,
            edge_bytes_loaded,
            edges_loaded,
            io_ops,
            swap_bytes,
            coarse_loads,
            fine_loads,
            walkers_finished,
            walkers_cancelled,
            fine_mode_at_step: _,
            presamples_filled,
            presamples_consumed,
            pool_publishes,
            pool_stalls,
            pool_deferrals,
            pool_attempts,
            claims_burned,
            prefetch_hits,
            prefetch_wasted,
            walkers_emigrated,
            walkers_immigrated,
            accepts,
            rejects,
            peak_memory,
        } = *m;
        let mut violations = Vec::new();
        let mut fail = |law: &'static str, detail: String| {
            violations.push(Violation { law, detail });
        };

        let attributed = steps_on_block + steps_on_presample + steps_on_raw;
        if steps != attributed {
            fail(
                "step-attribution",
                format!(
                    "steps {steps} != on_block {steps_on_block} + on_presample \
                     {steps_on_presample} + on_raw {steps_on_raw} (= {attributed})"
                ),
            );
        }
        if walkers_finished + walkers_cancelled != self.total_walkers {
            fail(
                "walker-completion",
                format!(
                    "walkers_finished {walkers_finished} + walkers_cancelled \
                     {walkers_cancelled} != total_walkers {}",
                    self.total_walkers
                ),
            );
        }
        if presamples_consumed + claims_burned > presamples_filled {
            fail(
                "presample-balance",
                format!(
                    "presamples_consumed {presamples_consumed} + claims_burned \
                     {claims_burned} > presamples_filled {presamples_filled}"
                ),
            );
        }
        if pool_attempts > presamples_consumed + claims_burned + pool_stalls {
            fail(
                "claim-conservation",
                format!(
                    "pool_attempts {pool_attempts} > presamples_consumed \
                     {presamples_consumed} + claims_burned {claims_burned} + \
                     pool_stalls {pool_stalls} — a claimed slot leaked without being \
                     consumed, burned, or stalled"
                ),
            );
        }
        let loads = coarse_loads + fine_loads;
        if edge_bytes_loaded > 0 && (loads == 0 || io_ops == 0) {
            fail(
                "load-byte-consistency",
                format!(
                    "edge_bytes_loaded {edge_bytes_loaded} with coarse_loads \
                     {coarse_loads} + fine_loads {fine_loads} and io_ops {io_ops}"
                ),
            );
        }
        if loads > 0 && edge_bytes_loaded == 0 {
            fail(
                "load-byte-consistency",
                format!(
                    "{loads} loads issued ({coarse_loads} coarse, {fine_loads} fine) but \
                     edge_bytes_loaded == 0"
                ),
            );
        }
        if stall_ns > sim_ns {
            fail(
                "clock-sanity",
                format!("stall_ns {stall_ns} > sim_ns {sim_ns}"),
            );
        }
        if edges_loaded > edge_bytes_loaded {
            fail(
                "edge-accounting",
                format!(
                    "edges_loaded {edges_loaded} > edge_bytes_loaded {edge_bytes_loaded} \
                     (an edge costs at least one byte)"
                ),
            );
        }
        if swap_bytes > 0 && self.total_walkers == 0 {
            fail(
                "swap-attribution",
                format!("swap_bytes {swap_bytes} moved but the run had no walkers to swap"),
            );
        }
        if accepts > steps_on_block {
            fail(
                "second-order-balance",
                format!(
                    "accepts {accepts} > steps_on_block {steps_on_block} (every accepted \
                     candidate is a resident-block step)"
                ),
            );
        }
        if accepts + rejects > 0 && loads == 0 {
            fail(
                "second-order-balance",
                format!(
                    "rejection sampling ran ({accepts} accepts, {rejects} rejects) with no \
                     loads — candidate edges must come from loaded data"
                ),
            );
        }
        if prefetch_hits > loads {
            fail(
                "prefetch-accounting",
                format!(
                    "prefetch_hits {prefetch_hits} > {loads} loads (every hit is a load \
                     served early)"
                ),
            );
        }
        if prefetch_hits + prefetch_wasted > 0 && loads == 0 {
            fail(
                "prefetch-accounting",
                format!(
                    "prefetch outcomes recorded ({prefetch_hits} hits, {prefetch_wasted} \
                     wasted) with no loads — the first load is always a demand load"
                ),
            );
        }
        if pool_publishes > 0 && loads == 0 {
            fail(
                "pool-accounting",
                format!(
                    "pool_publishes {pool_publishes} with no loads — published buffers are \
                     built from loaded edge data"
                ),
            );
        }
        if pool_stalls + pool_deferrals > 0 && steps == 0 && walkers_cancelled == 0 {
            fail(
                "stall-accounting",
                format!(
                    "stalls recorded ({pool_stalls} stalled, {pool_deferrals} deferred) but \
                     the run took no steps and cancelled no walkers — a waiting walker was \
                     lost"
                ),
            );
        }
        if walkers_immigrated > walkers_emigrated {
            fail(
                "handoff-conservation",
                format!(
                    "walkers_immigrated {walkers_immigrated} > walkers_emigrated \
                     {walkers_emigrated} — a shard re-admitted a walker that never crossed \
                     a boundary"
                ),
            );
        }
        if walkers_emigrated > walkers_cancelled {
            fail(
                "handoff-conservation",
                format!(
                    "walkers_emigrated {walkers_emigrated} > walkers_cancelled \
                     {walkers_cancelled} — every emigrated walker is retired on its source \
                     shard via the cancellation path"
                ),
            );
        }
        if peak_memory != 0 && peak_memory < self.budget_floor {
            fail(
                "budget-peak",
                format!(
                    "peak_memory {peak_memory} below the pre-run budget floor {} (the peak \
                     is a running maximum starting at the floor)",
                    self.budget_floor
                ),
            );
        }

        AuditReport { violations }
    }
}

/// Checks the exact cross-shard handoff conservation law at a point in
/// time: `walkers_emigrated == walkers_immigrated + in_flight`, where
/// `in_flight` is the summed depth of every handoff queue. The sharded
/// serve plane runs this in debug builds after every round (queues may
/// hold walkers mid-run) and again at run end with `in_flight == 0` —
/// a walker drained into a queue must be re-admitted exactly once.
pub fn audit_handoffs(emigrated: u64, immigrated: u64, in_flight: u64) -> AuditReport {
    let mut violations = Vec::new();
    if emigrated != immigrated + in_flight {
        violations.push(Violation {
            law: "handoff-conservation",
            detail: format!(
                "walkers_emigrated {emigrated} != walkers_immigrated {immigrated} + \
                 in_flight {in_flight} — a handed-off walker was lost or duplicated",
            ),
        });
    }
    AuditReport { violations }
}

/// Checks the per-query conservation law over a finished serving run:
/// for every query id, **query-conservation** — walkers issued ==
/// walkers completed + walkers cancelled (a cancelled walker must be
/// counted, never dropped), and a query may not issue more walkers than
/// its admitted budget.
///
/// The serving layer runs this in debug builds at every query
/// completion, mirroring how the engines run
/// [`RunAudit::verify`] on every run.
pub fn audit_queries(stats: &[crate::query::QueryStats]) -> AuditReport {
    let mut violations = Vec::new();
    for s in stats {
        if s.issued != s.completed + s.cancelled {
            violations.push(Violation {
                law: "query-conservation",
                detail: format!(
                    "query {}: issued {} != completed {} + cancelled {}",
                    s.id, s.issued, s.completed, s.cancelled
                ),
            });
        }
        if s.issued > s.budget {
            violations.push(Violation {
                law: "query-conservation",
                detail: format!(
                    "query {}: issued {} exceeds admitted walker budget {}",
                    s.id, s.issued, s.budget
                ),
            });
        }
    }
    AuditReport { violations }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conserving_metrics() -> RunMetrics {
        RunMetrics {
            sim_ns: 1_000,
            stall_ns: 200,
            steps: 100,
            steps_on_block: 60,
            steps_on_presample: 30,
            steps_on_raw: 10,
            walkers_finished: 10,
            presamples_filled: 50,
            presamples_consumed: 30,
            pool_stalls: 5,
            pool_attempts: 20,
            claims_burned: 2,
            edge_bytes_loaded: 4096,
            coarse_loads: 2,
            io_ops: 2,
            ..RunMetrics::default()
        }
    }

    #[test]
    fn clean_run_passes_every_law() {
        let audit = RunAudit::with_floor(10, 0);
        let report = audit.verify_metrics(&conserving_metrics());
        assert!(report.is_clean(), "{:?}", report.violations);
        report.assert_clean();
    }

    #[test]
    fn each_law_trips_independently() {
        let audit = RunAudit::with_floor(10, 0);

        let mut m = conserving_metrics();
        m.steps_on_raw = 0;
        assert_eq!(
            audit.verify_metrics(&m).violations[0].law,
            "step-attribution"
        );

        let mut m = conserving_metrics();
        m.walkers_finished = 9;
        assert_eq!(
            audit.verify_metrics(&m).violations[0].law,
            "walker-completion"
        );

        let mut m = conserving_metrics();
        m.presamples_consumed = m.presamples_filled + 1;
        assert_eq!(
            audit.verify_metrics(&m).violations[0].law,
            "presample-balance"
        );

        // Burned claims weigh into the balance too: burning more than the
        // fill covers is a violation even with modest consumption.
        let mut m = conserving_metrics();
        m.claims_burned = m.presamples_filled - m.presamples_consumed + 1;
        assert_eq!(
            audit.verify_metrics(&m).violations[0].law,
            "presample-balance"
        );

        let mut m = conserving_metrics();
        m.pool_attempts = m.presamples_consumed + m.claims_burned + m.pool_stalls + 1;
        assert_eq!(
            audit.verify_metrics(&m).violations[0].law,
            "claim-conservation"
        );

        let mut m = conserving_metrics();
        m.coarse_loads = 0;
        m.io_ops = 0;
        assert_eq!(
            audit.verify_metrics(&m).violations[0].law,
            "load-byte-consistency"
        );

        let mut m = conserving_metrics();
        m.edge_bytes_loaded = 0;
        assert_eq!(
            audit.verify_metrics(&m).violations[0].law,
            "load-byte-consistency"
        );

        let mut m = conserving_metrics();
        m.stall_ns = m.sim_ns + 1;
        assert_eq!(audit.verify_metrics(&m).violations[0].law, "clock-sanity");

        let mut m = conserving_metrics();
        m.edges_loaded = m.edge_bytes_loaded + 1;
        assert_eq!(
            audit.verify_metrics(&m).violations[0].law,
            "edge-accounting"
        );

        let no_walkers = RunAudit::with_floor(0, 0);
        let m = RunMetrics {
            swap_bytes: 128,
            ..RunMetrics::default()
        };
        assert_eq!(
            no_walkers.verify_metrics(&m).violations[0].law,
            "swap-attribution"
        );

        let mut m = conserving_metrics();
        m.accepts = m.steps_on_block + 1;
        assert_eq!(
            audit.verify_metrics(&m).violations[0].law,
            "second-order-balance"
        );

        let mut m = conserving_metrics();
        m.rejects = 3;
        m.coarse_loads = 0;
        m.fine_loads = 0;
        m.edge_bytes_loaded = 0;
        m.io_ops = 0;
        let laws: Vec<_> = audit
            .verify_metrics(&m)
            .violations
            .iter()
            .map(|v| v.law)
            .collect();
        assert!(laws.contains(&"second-order-balance"), "{laws:?}");

        let mut m = conserving_metrics();
        m.prefetch_hits = m.coarse_loads + 1;
        assert_eq!(
            audit.verify_metrics(&m).violations[0].law,
            "prefetch-accounting"
        );

        // Fine page batches are loads too: prefetched and published from.
        let mut m = RunMetrics {
            coarse_loads: 0,
            fine_loads: 3,
            prefetch_hits: 3,
            pool_publishes: 1,
            ..conserving_metrics()
        };
        let report = audit.verify_metrics(&m);
        assert!(report.is_clean(), "{:?}", report.violations);
        m.prefetch_hits += 1;
        assert_eq!(
            audit.verify_metrics(&m).violations[0].law,
            "prefetch-accounting"
        );

        let mut m = conserving_metrics();
        m.coarse_loads = 0;
        m.edge_bytes_loaded = 0;
        m.io_ops = 0;
        m.prefetch_wasted = 2;
        let laws: Vec<_> = audit
            .verify_metrics(&m)
            .violations
            .iter()
            .map(|v| v.law)
            .collect();
        assert!(laws.contains(&"prefetch-accounting"), "{laws:?}");

        let mut m = conserving_metrics();
        m.coarse_loads = 0;
        m.edge_bytes_loaded = 0;
        m.io_ops = 0;
        m.pool_publishes = 1;
        let laws: Vec<_> = audit
            .verify_metrics(&m)
            .violations
            .iter()
            .map(|v| v.law)
            .collect();
        assert!(laws.contains(&"pool-accounting"), "{laws:?}");

        let m = RunMetrics {
            pool_stalls: 1,
            ..RunMetrics::default()
        };
        let lost = RunAudit::with_floor(0, 0);
        assert_eq!(
            lost.verify_metrics(&m).violations[0].law,
            "stall-accounting"
        );

        let floored = RunAudit::with_floor(10, 4096);
        let mut m = conserving_metrics();
        m.peak_memory = 4095;
        assert_eq!(floored.verify_metrics(&m).violations[0].law, "budget-peak");
        m.peak_memory = 4096;
        floored.verify_metrics(&m).assert_clean();
        m.peak_memory = 0; // runs that never record a peak stay exempt
        floored.verify_metrics(&m).assert_clean();
    }

    #[test]
    fn new_counters_stay_clean_on_a_conserving_run() {
        // A run that exercises every new counter consistently passes.
        let audit = RunAudit::with_floor(10, 100);
        let mut m = conserving_metrics();
        m.edges_loaded = 512; // 4096 bytes loaded
        m.swap_bytes = 64;
        m.accepts = 5;
        m.rejects = 7;
        m.prefetch_hits = 1;
        m.prefetch_wasted = 1;
        m.pool_publishes = 2;
        m.pool_stalls = 1;
        m.pool_deferrals = 1;
        m.peak_memory = 4096;
        audit.verify_metrics(&m).assert_clean();
    }

    #[test]
    fn budget_floor_law_detects_leaks() {
        let budget = MemoryBudget::new(1 << 20);
        let audit = RunAudit::begin(10, &budget);
        let r = budget.try_reserve(512).unwrap();
        let report = audit.verify(&conserving_metrics(), &budget);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].law, "budget-floor");
        drop(r);
        audit.verify(&conserving_metrics(), &budget).assert_clean();
    }

    #[test]
    #[should_panic(expected = "walker-completion")]
    fn assert_clean_panics_with_law_name() {
        let audit = RunAudit::with_floor(11, 0);
        audit.verify_metrics(&conserving_metrics()).assert_clean();
    }

    #[test]
    fn cancelled_walkers_balance_the_completion_law() {
        let audit = RunAudit::with_floor(10, 0);
        let mut m = conserving_metrics();
        m.walkers_finished = 7;
        m.walkers_cancelled = 3;
        audit.verify_metrics(&m).assert_clean();
        m.walkers_cancelled = 2; // one walker silently dropped
        assert_eq!(
            audit.verify_metrics(&m).violations[0].law,
            "walker-completion"
        );
    }

    #[test]
    fn query_conservation_law() {
        use crate::query::QueryStats;
        let ok = QueryStats {
            id: 1,
            budget: 64,
            issued: 64,
            completed: 60,
            cancelled: 4,
        };
        assert!(audit_queries(std::slice::from_ref(&ok)).is_clean());
        let dropped = QueryStats {
            completed: 59,
            ..ok.clone()
        };
        let r = audit_queries(&[ok.clone(), dropped]);
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].law, "query-conservation");
        assert!(r.violations[0].detail.contains("query 1"));
        let over = QueryStats {
            issued: 65,
            completed: 61,
            ..ok
        };
        let r = audit_queries(&[over]);
        assert_eq!(r.violations.len(), 1);
        assert!(r.violations[0].detail.contains("exceeds"));
    }

    #[test]
    fn handoff_conservation_law() {
        let audit = RunAudit::with_floor(10, 0);

        // Immigration outrunning emigration is a fabricated walker.
        let mut m = conserving_metrics();
        m.walkers_emigrated = 2;
        m.walkers_immigrated = 3;
        m.walkers_cancelled = 2;
        m.walkers_finished = 8;
        assert_eq!(
            audit.verify_metrics(&m).violations[0].law,
            "handoff-conservation"
        );

        // An emigrated walker must have retired via the cancellation path.
        let mut m = conserving_metrics();
        m.walkers_emigrated = 1;
        assert_eq!(
            audit.verify_metrics(&m).violations[0].law,
            "handoff-conservation"
        );

        // Balanced handoff traffic passes.
        let mut m = conserving_metrics();
        m.walkers_emigrated = 3;
        m.walkers_immigrated = 3;
        m.walkers_cancelled = 3;
        m.walkers_finished = 7;
        audit.verify_metrics(&m).assert_clean();

        // The exact point-in-time law accounts for queued walkers.
        audit_handoffs(5, 3, 2).assert_clean();
        audit_handoffs(0, 0, 0).assert_clean();
        let r = audit_handoffs(5, 3, 1);
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].law, "handoff-conservation");
        assert!(r.violations[0].detail.contains("lost or duplicated"));
    }

    #[test]
    fn shard_handoff_event_exports_cleanly() {
        let mut sink = MemorySink::new();
        sink.record(&TraceEvent::ShardHandoff {
            from_shard: 0,
            to_shard: 2,
            walkers: 17,
            at_ns: 42,
        });
        let json = sink.to_json();
        assert!(json.contains(
            "{\"event\":\"shard_handoff\",\"from_shard\":0,\"to_shard\":2,\"walkers\":17,\"at_ns\":42}"
        ));
        let tsv = sink.to_tsv();
        assert!(tsv.contains("shard_handoff\tfrom_shard=0\tto_shard=2\twalkers=17\tat_ns=42"));
    }

    #[test]
    fn query_events_export_cleanly() {
        let mut sink = MemorySink::new();
        sink.record(&TraceEvent::QueryAdmitted {
            query: 3,
            walkers: 64,
            deadline_ns: None,
            at_ns: 10,
        });
        sink.record(&TraceEvent::QueryDeadlineMiss {
            query: 3,
            deadline_ns: 500,
            at_ns: 600,
        });
        sink.record(&TraceEvent::QueryCompleted {
            query: 3,
            issued: 64,
            completed: 60,
            cancelled: 4,
            degraded: true,
            at_ns: 700,
        });
        sink.record(&TraceEvent::QueryShed {
            query: 4,
            retry_after_ns: 1_000,
            at_ns: 701,
        });
        let json = sink.to_json();
        assert!(json.contains("\"event\":\"query_admitted\""));
        assert!(json.contains("\"deadline_ns\":null"));
        assert!(json.contains("\"event\":\"query_completed\",\"query\":3,\"issued\":64,\"completed\":60,\"cancelled\":4,\"degraded\":true"));
        let tsv = sink.to_tsv();
        assert!(tsv.contains("query_shed\tquery=4\tretry_after_ns=1000"));
        assert!(tsv.contains("query_deadline_miss\tquery=3\tdeadline_ns=500"));
    }

    #[test]
    fn disabled_trace_skips_event_construction() {
        let mut trace = Trace::off();
        let mut built = false;
        trace.emit(|| {
            built = true;
            TraceEvent::CacheEvict { at_ns: 0 }
        });
        assert!(!built);
        assert!(!trace.is_enabled());
    }

    #[test]
    fn memory_sink_records_in_order() {
        let mut sink = MemorySink::new();
        {
            let mut trace = Trace::on(&mut sink);
            assert!(trace.is_enabled());
            trace.emit(|| TraceEvent::CoarseLoad {
                block: 3,
                bytes: 4096,
                cache_hit: false,
                at_ns: 10,
            });
            trace.emit(|| TraceEvent::Stall {
                waiting_for: Some(3),
                from_ns: 10,
                until_ns: 60,
            });
            trace.emit(|| TraceEvent::RunEnd {
                steps: 1,
                walkers_finished: 1,
                at_ns: 60,
            });
        }
        assert_eq!(sink.events.len(), 3);
        assert_eq!(sink.events[0].kind(), "coarse_load");
        assert_eq!(sink.total_stall_ns(), 50);
    }

    #[test]
    fn stall_attribution_aggregates_and_sorts() {
        let mut sink = MemorySink::new();
        let stalls = [
            (Some(1), 0, 10),
            (Some(2), 10, 40),
            (Some(1), 40, 45),
            (None, 45, 46),
        ];
        for (b, f, u) in stalls {
            sink.record(&TraceEvent::Stall {
                waiting_for: b,
                from_ns: f,
                until_ns: u,
            });
        }
        let by_block = sink.stall_by_block();
        assert_eq!(by_block, vec![(Some(2), 30), (Some(1), 15), (None, 1)]);
    }

    #[test]
    fn json_export_is_parseable_shape() {
        let mut sink = MemorySink::new();
        sink.record(&TraceEvent::CoarseLoad {
            block: 7,
            bytes: 2048,
            cache_hit: true,
            at_ns: 5,
        });
        sink.record(&TraceEvent::Stall {
            waiting_for: None,
            from_ns: 5,
            until_ns: 9,
        });
        let json = sink.to_json();
        assert!(json.starts_with('['));
        assert!(json.trim_end().ends_with(']'));
        assert!(json.contains("{\"event\":\"coarse_load\",\"block\":7,\"bytes\":2048,\"cache_hit\":true,\"at_ns\":5},"));
        assert!(json.contains("\"waiting_for\":null"));
    }

    #[test]
    fn tsv_export_one_line_per_event() {
        let mut sink = MemorySink::new();
        sink.record(&TraceEvent::Swap {
            bytes: 48,
            at_ns: 7,
        });
        sink.record(&TraceEvent::FineModeSwitch {
            at_step: 900,
            at_ns: 12,
        });
        let tsv = sink.to_tsv();
        let lines: Vec<&str> = tsv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], "swap\tbytes=48\tat_ns=7");
        assert_eq!(lines[1], "fine_mode_switch\tat_step=900\tat_ns=12");
    }
}
