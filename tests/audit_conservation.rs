//! Cross-engine conservation: the `RunAudit` laws must hold for every
//! engine under every option set — in release builds too, not only via
//! the `debug_assertions` hook inside the engines.

use noswalker::apps::{BasicRw, Node2Vec};
use noswalker::baselines::{
    DistributedSim, DrunkardMob, GraSorw, GraphWalker, Graphene, InMemory, NetworkProfile,
};
use noswalker::core::audit::{MemorySink, RunAudit, TraceEvent};
use noswalker::core::parallel::ParallelRunner;
use noswalker::core::{EngineOptions, NosWalkerEngine, OnDiskGraph, RunMetrics};
use noswalker::graph::generators::{self, RmatParams};
use noswalker::graph::Csr;
use noswalker::storage::{MemoryBudget, SimSsd, SsdProfile};
use std::sync::Arc;

const WALKERS: u64 = 150;
const LENGTH: u32 = 6;
const SEED: u64 = 13;

fn graph() -> Csr {
    generators::rmat(10, 10, RmatParams::default(), 41)
}

fn on_device(csr: &Csr) -> Arc<OnDiskGraph> {
    let device = Arc::new(SimSsd::new(SsdProfile::nvme_p4618()));
    Arc::new(OnDiskGraph::store(csr, device, csr.edge_region_bytes() / 16).unwrap())
}

fn option_sets() -> Vec<(&'static str, EngineOptions)> {
    vec![
        ("default", EngineOptions::default()),
        ("base", EngineOptions::base()),
        ("full", EngineOptions::full()),
        ("with_shrink_block", EngineOptions::with_shrink_block()),
    ]
}

/// Checks the trace agrees with the metrics where the engine's clock is
/// deterministic (every engine here is single- or coordinator-threaded).
fn check_trace(label: &str, sink: &MemorySink, m: &RunMetrics) {
    let run_end = sink.events.iter().find_map(|ev| match ev {
        TraceEvent::RunEnd {
            steps,
            walkers_finished,
            ..
        } => Some((*steps, *walkers_finished)),
        _ => None,
    });
    let (steps, finished) = run_end.unwrap_or_else(|| panic!("{label}: no RunEnd event"));
    assert_eq!(steps, m.steps, "{label}: RunEnd steps");
    assert_eq!(finished, m.walkers_finished, "{label}: RunEnd walkers");
    for ev in &sink.events {
        if let TraceEvent::Stall {
            from_ns, until_ns, ..
        } = ev
        {
            assert!(from_ns <= until_ns, "{label}: stall interval inverted");
        }
    }
}

/// One engine run returning its metrics, recorded trace, and budget.
type TracedRun<'a> = Box<dyn Fn() -> (RunMetrics, MemorySink, Arc<MemoryBudget>) + 'a>;

#[test]
fn budgeted_engines_conserve_under_every_option_set() {
    let csr = graph();
    let n = csr.num_vertices();
    for (opt_name, opts) in option_sets() {
        let runs: Vec<(&str, TracedRun<'_>)> = vec![
            (
                "noswalker",
                Box::new(|| {
                    let budget = MemoryBudget::new(1 << 20);
                    let app = Arc::new(BasicRw::new(WALKERS, LENGTH, n));
                    let e = NosWalkerEngine::new(
                        app,
                        on_device(&csr),
                        opts.clone(),
                        Arc::clone(&budget),
                    );
                    let mut sink = MemorySink::new();
                    let m = e.run_with_sink(SEED, Some(&mut sink)).unwrap();
                    (m, sink, budget)
                }),
            ),
            (
                "drunkardmob",
                Box::new(|| {
                    let budget = MemoryBudget::new(1 << 20);
                    let app = Arc::new(BasicRw::new(WALKERS, LENGTH, n));
                    let e =
                        DrunkardMob::new(app, on_device(&csr), opts.clone(), Arc::clone(&budget));
                    let mut sink = MemorySink::new();
                    let m = e.run_with_sink(SEED, Some(&mut sink)).unwrap();
                    (m, sink, budget)
                }),
            ),
            (
                "graphwalker",
                Box::new(|| {
                    let budget = MemoryBudget::new(1 << 20);
                    let app = Arc::new(BasicRw::new(WALKERS, LENGTH, n));
                    let e =
                        GraphWalker::new(app, on_device(&csr), opts.clone(), Arc::clone(&budget));
                    let mut sink = MemorySink::new();
                    let m = e.run_with_sink(SEED, Some(&mut sink)).unwrap();
                    (m, sink, budget)
                }),
            ),
            (
                "graphene",
                Box::new(|| {
                    let budget = MemoryBudget::new(1 << 20);
                    let app = Arc::new(BasicRw::new(WALKERS, LENGTH, n));
                    let e = Graphene::new(app, on_device(&csr), opts.clone(), Arc::clone(&budget));
                    let mut sink = MemorySink::new();
                    let m = e.run_with_sink(SEED, Some(&mut sink)).unwrap();
                    (m, sink, budget)
                }),
            ),
        ];
        for (engine, run) in runs {
            let label = format!("{engine}/{opt_name}");
            let (m, sink, budget) = run();
            let audit = RunAudit::with_floor(WALKERS, 0);
            let report = audit.verify(&m, &budget);
            assert!(report.is_clean(), "{label}: {:?}", report.violations);
            check_trace(&label, &sink, &m);
        }
    }
}

#[test]
fn parallel_runner_conserves_under_every_option_set() {
    let csr = graph();
    let n = csr.num_vertices();
    // Every option set on the shared cell, plus two long walkers at a
    // quarter of the edge region: α·|Wa|·4KiB is under the edge region, so
    // the runner reads only 4 KiB page batches.
    let cells = option_sets()
        .into_iter()
        .map(|(name, opts)| (name, opts, WALKERS, LENGTH, 1 << 20))
        .chain([(
            "sparse",
            EngineOptions::default(),
            2,
            400,
            csr.edge_region_bytes() / 4,
        )]);
    for (opt_name, opts, walkers, length, budget) in cells {
        let budget = MemoryBudget::new(budget);
        let app = Arc::new(BasicRw::new(walkers, length, n));
        let runner = ParallelRunner::new(app, on_device(&csr), opts, Arc::clone(&budget));
        let mut sink = MemorySink::new();
        let m = runner.run_with_sink(SEED, 3, Some(&mut sink)).unwrap();
        if opt_name == "sparse" {
            assert_eq!(
                m.fine_mode_at_step,
                Some(0),
                "sparse: fine from the first load"
            );
            assert!(m.fine_loads > 0 && m.coarse_loads == 0, "sparse: {m:?}");
        }
        let audit = RunAudit::with_floor(walkers, 0);
        let report = audit.verify(&m, &budget);
        assert!(
            report.is_clean(),
            "parallel/{opt_name}: {:?}",
            report.violations
        );
        check_trace(&format!("parallel/{opt_name}"), &sink, &m);
    }
}

#[test]
fn unbudgeted_engines_conserve() {
    let csr = Arc::new(graph());
    let n = csr.num_vertices();

    let app = Arc::new(BasicRw::new(WALKERS, LENGTH, n));
    let e = InMemory::new(
        app,
        Arc::clone(&csr),
        EngineOptions::default(),
        SsdProfile::nvme_p4618(),
    );
    let mut sink = MemorySink::new();
    let m = e.run_with_sink(SEED, Some(&mut sink));
    let report = RunAudit::with_floor(WALKERS, 0).verify_metrics(&m);
    assert!(report.is_clean(), "inmemory: {:?}", report.violations);
    check_trace("inmemory", &sink, &m);

    let app = Arc::new(BasicRw::new(WALKERS, LENGTH, n));
    let e = DistributedSim::new(
        app,
        Arc::clone(&csr),
        EngineOptions::default(),
        4,
        SsdProfile::nvme_p4618(),
        NetworkProfile::ten_gbe(),
    );
    let mut sink = MemorySink::new();
    let m = e.run_with_sink(SEED, Some(&mut sink));
    let report = RunAudit::with_floor(WALKERS, 0).verify_metrics(&m);
    assert!(report.is_clean(), "distributed: {:?}", report.violations);
    check_trace("distributed", &sink, &m);
}

#[test]
fn second_order_engines_conserve() {
    let csr = graph().to_undirected();
    let n = csr.num_vertices();
    let total = n as u64; // one walker per vertex

    // `base`/`with_shrink_block` disable the walker management the
    // second-order path requires, so only the managed option sets apply.
    for (opt_name, opts) in [
        ("default", EngineOptions::default()),
        ("full", EngineOptions::full()),
    ] {
        let budget = MemoryBudget::new(1 << 20);
        let app = Arc::new(Node2Vec::new(n, 1, LENGTH, 2.0, 0.5));
        let e = NosWalkerEngine::new(app, on_device(&csr), opts, Arc::clone(&budget));
        let mut sink = MemorySink::new();
        let m = e.run_second_order_with_sink(SEED, Some(&mut sink)).unwrap();
        let audit = RunAudit::with_floor(total, 0);
        let report = audit.verify(&m, &budget);
        assert!(
            report.is_clean(),
            "noswalker-2nd/{opt_name}: {:?}",
            report.violations
        );
        check_trace(&format!("noswalker-2nd/{opt_name}"), &sink, &m);
    }

    let budget = MemoryBudget::new(1 << 20);
    let app = Arc::new(Node2Vec::new(n, 1, LENGTH, 2.0, 0.5));
    let e = GraSorw::new(
        app,
        on_device(&csr),
        EngineOptions::default(),
        Arc::clone(&budget),
    );
    let mut sink = MemorySink::new();
    let m = e.run_with_sink(SEED, Some(&mut sink)).unwrap();
    let audit = RunAudit::with_floor(total, 0);
    let report = audit.verify(&m, &budget);
    assert!(report.is_clean(), "grasorw: {:?}", report.violations);
    check_trace("grasorw", &sink, &m);
}
