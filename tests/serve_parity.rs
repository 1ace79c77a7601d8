//! Cross-backend serving parity: the same query trace replayed on the
//! sequential and the parallel [`noswalker::serve::Backend`] must produce
//! bit-identical per-query outcome digests and walker accounting under a
//! fixed seed. This is the pin for the serving layer's determinism model:
//! walker movement draws only walker-private randomness and serving
//! rounds force all-raw pre-sample retention, so *which kernel* runs a
//! round — and even *which round* a walker lands in — cannot change where
//! its walkers go. These run in release builds too.

use noswalker::core::audit::audit_queries;
use noswalker::core::{OnDiskGraph, QuerySpec, StaticQuerySource};
use noswalker::graph::generators::{self, RmatParams};
use noswalker::graph::Csr;
use noswalker::serve::{Backend, ServeEngine, ServeOptions, ServeReport};
use noswalker::storage::{MemoryBudget, SimSsd, SsdProfile};
use std::collections::BTreeMap;
use std::sync::Arc;

const LENGTH: u32 = 8;

fn graph() -> Csr {
    generators::rmat(10, 10, RmatParams::default(), 41)
}

fn run(csr: &Csr, backend: Backend, specs: Vec<QuerySpec>, round_walkers: u64) -> ServeReport {
    let device = Arc::new(SimSsd::new(SsdProfile::nvme_p4618()));
    let g = Arc::new(OnDiskGraph::store(csr, device, csr.edge_region_bytes() / 16).unwrap());
    let budget = MemoryBudget::new((csr.edge_region_bytes() / 4).max(64 << 10));
    let e = ServeEngine::new(
        g,
        budget,
        ServeOptions {
            backend,
            par_workers: 3,
            round_walkers,
            ..ServeOptions::default()
        },
    );
    let mut src = StaticQuerySource::new(specs);
    e.run(&mut src, None).expect("serve")
}

fn spec(id: u64, class: &str, walkers: u64, arrival_ns: u64) -> QuerySpec {
    QuerySpec {
        id,
        class: class.to_string(),
        walkers,
        walk_length: LENGTH,
        deadline_ns: None,
        arrival_ns,
    }
}

/// Per-query (digest, issued, completed, cancelled, shed) — the fields
/// that must be invariant across backends. Latency and `end_ns` are
/// *not* compared across backends: the two kernels charge the model
/// clock differently (fully-modeled pipeline time vs compute-only), by
/// design.
fn outcome_map(r: &ServeReport) -> BTreeMap<u64, (u64, u64, u64, u64, bool)> {
    r.outcomes
        .iter()
        .map(|o| {
            (
                o.id,
                (
                    o.digest,
                    o.stats.issued,
                    o.stats.completed,
                    o.stats.cancelled,
                    o.shed,
                ),
            )
        })
        .collect()
}

fn assert_clean(r: &ServeReport) {
    audit_queries(&r.query_stats()).assert_clean();
    for o in r.outcomes.iter().filter(|o| !o.shed) {
        assert_eq!(
            o.stats.issued,
            o.stats.completed + o.stats.cancelled,
            "query {}: conservation",
            o.id
        );
    }
}

#[test]
fn seq_and_par_backends_produce_identical_digests() {
    let csr = graph();
    let specs = vec![
        spec(1, "ppr:7", 120, 0),
        spec(2, "basic", 90, 50),
        spec(3, "deepwalk:0", 80, 100),
        spec(4, "rwr:7:0.2", 70, 150),
    ];
    let seq = run(&csr, Backend::Seq, specs.clone(), 4096);
    let par = run(&csr, Backend::Par, specs, 4096);
    assert_clean(&seq);
    assert_clean(&par);
    assert_eq!(seq.completed_count(), 4);
    assert_eq!(par.completed_count(), 4);
    assert_eq!(
        outcome_map(&seq),
        outcome_map(&par),
        "digests and walker accounting must be backend-invariant"
    );
    for o in &seq.outcomes {
        assert_ne!(o.digest, 0, "query {}", o.id);
    }
    // The digests cannot tell which kernel ran; the clock charge can.
    // Every arrival lands before the first round ends, so no idle jump
    // enters `end_ns`.
    let eng = ServeOptions::default().engine;
    let per_step = eng.step_cost() + eng.sample_cost();
    assert_eq!(par.end_ns, par.metrics.steps * per_step);
    assert_eq!(seq.end_ns, seq.metrics.sim_ns);
    assert_ne!(seq.end_ns, par.end_ns);
}

#[test]
fn digests_survive_rounds_splitting_differently_per_backend() {
    // A tiny per-round walker cap forces queries to span many rounds, and
    // the two backends advance the clock differently — so the *round
    // composition* genuinely diverges between the replays. Walker-private
    // streams keyed on (seed, query, global walker index) make the
    // digests identical anyway.
    let csr = graph();
    let specs = vec![
        spec(1, "basic", 300, 0),
        spec(2, "ppr:7", 200, 10_000),
        spec(3, "rwr:7:0.3", 150, 20_000),
    ];
    let seq = run(&csr, Backend::Seq, specs.clone(), 64);
    let par = run(&csr, Backend::Par, specs, 64);
    assert_clean(&seq);
    assert_clean(&par);
    assert!(seq.rounds > 3, "cap must force multi-round queries");
    assert_eq!(outcome_map(&seq), outcome_map(&par));
}

#[test]
fn par_backend_replays_are_bit_identical() {
    // Run-to-run determinism of the parallel backend itself: movement is
    // walker-private and the clock charge is compute-only, so latencies
    // and end time replay exactly even though host thread interleaving
    // differs between runs.
    let csr = graph();
    let specs = vec![spec(1, "basic", 250, 0), spec(2, "deepwalk:0", 120, 500)];
    let a = run(&csr, Backend::Par, specs.clone(), 128);
    let b = run(&csr, Backend::Par, specs, 128);
    assert_eq!(a.outcomes, b.outcomes);
    assert_eq!(a.end_ns, b.end_ns);
    assert_eq!(a.rounds, b.rounds);
    assert_eq!(a.metrics.steps, b.metrics.steps);
}
