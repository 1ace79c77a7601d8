//! Root-level pins for the sharded serve plane, through the facade crate:
//!
//! * **N=1 parity** — a one-shard [`ShardPlane`] is not "close to" the
//!   unsharded [`ServeEngine`], it *is* it: outcomes, end time, round
//!   count, histograms and step counts replay bit-identically on a
//!   workload the in-crate smoke tests do not cover (RMAT skew plus
//!   deadline-constrained classes).
//! * **Conservation under randomized sharding** — for arbitrary shard
//!   counts, query mixes and admission bounds, every walker that crosses
//!   a partition boundary is re-admitted (`emigrated == immigrated`),
//!   every offered query gets exactly one outcome, and nothing is shed
//!   silently: each shed outcome has a matching `QueryShed` trace event.
//!
//! These run in release builds too.

mod common;

use common::{cases, vec_of, SEED};
use noswalker::core::audit::TraceEvent;
use noswalker::core::{
    audit_handoffs, Backend, MemorySink, OnDiskGraph, QuerySpec, StaticQuerySource,
};
use noswalker::graph::generators::{self, RmatParams};
use noswalker::graph::{Csr, CsrBuilder};
use noswalker::serve::{render_report, ServeEngine, ServeError, ServeOptions};
use noswalker::shard::ShardPlane;
use noswalker::storage::{per_shard_devices, MemoryBudget, SimSsd, SsdProfile};
use rand::Rng;
use std::collections::BTreeSet;
use std::sync::Arc;

fn spec(id: u64, class: &str, walkers: u64, arrival_ns: u64) -> QuerySpec {
    QuerySpec {
        id,
        class: class.to_string(),
        walkers,
        walk_length: 6,
        deadline_ns: None,
        arrival_ns,
    }
}

#[test]
fn one_shard_plane_is_bit_identical_to_the_serve_engine() {
    let csr: Csr = generators::rmat(10, 10, RmatParams::default(), 41);
    let block = csr.edge_region_bytes() / 16;
    let budget = (csr.edge_region_bytes() / 4).max(64 << 10);
    let mut mix = vec![
        spec(1, "ppr:7", 120, 0),
        spec(2, "basic", 90, 50),
        spec(3, "deepwalk:0", 80, 100),
        spec(4, "rwr:7:0.2", 70, 150),
        spec(5, "ppr:900", 60, 200),
    ];
    // A generous deadline exercises the deadline bookkeeping without
    // cancelling anything — the two paths must agree on it exactly.
    mix[3].deadline_ns = Some(u64::MAX / 2);

    let device = Arc::new(SimSsd::new(SsdProfile::nvme_p4618()));
    let g = Arc::new(OnDiskGraph::store(&csr, device, block).expect("store"));
    let engine = ServeEngine::new(g, MemoryBudget::new(budget), ServeOptions::default());
    let mut src = StaticQuerySource::new(mix.clone());
    let reference = engine.run(&mut src, None).expect("serve");

    let devices = per_shard_devices(1, 1, SsdProfile::nvme_p4618(), 64 << 10);
    let plane =
        ShardPlane::build(&csr, devices, budget, block, ServeOptions::default()).expect("build");
    let mut src = StaticQuerySource::new(mix);
    let sharded = plane.run(&mut src, None).expect("serve");

    assert_eq!(sharded.report.outcomes, reference.outcomes);
    assert_eq!(sharded.report.end_ns, reference.end_ns);
    assert_eq!(sharded.report.rounds, reference.rounds);
    assert_eq!(sharded.report.histograms, reference.histograms);
    assert_eq!(sharded.report.metrics.steps, reference.metrics.steps);
    assert_eq!(sharded.walkers_emigrated, 0, "one shard cannot hand off");
    assert_eq!(sharded.walkers_immigrated, 0);
}

/// The serve report counts a walker handed to another shard as a handoff,
/// not as a cancellation: a clean four-shard run reports none cancelled.
#[test]
fn report_counts_handoffs_apart_from_cancellations() {
    let csr = generators::uniform_degree(512, 8, 3);
    let budget = (csr.edge_region_bytes() / 4).max(64 << 10);
    let block = (csr.num_edges() * 4 / 32).max(4096);
    let devices = per_shard_devices(4, 1, SsdProfile::nvme_p4618(), 64 << 10);
    let plane =
        ShardPlane::build(&csr, devices, budget, block, ServeOptions::default()).expect("build");
    let mix = (1..=3).map(|id| spec(id, "basic", 60, 100 * id)).collect();
    let r = plane
        .run(&mut StaticQuerySource::new(mix), None)
        .expect("serve");
    assert!(r.walkers_emigrated > 0, "the mix must cross shards");
    assert_eq!(r.report.degraded_count(), 0);
    let text = render_report(&r.report);
    let walkers = text.lines().nth(2).expect("walkers line");
    assert_eq!(
        walkers,
        format!(
            "  walkers: 180 finished, 0 cancelled, {} handed off, {} steps",
            r.walkers_emigrated, r.report.metrics.steps
        )
    );
}

/// Handoff conservation and no-silent-shed, for any shard count,
/// query mix and (possibly tiny) admission bound.
#[test]
fn sharded_serving_conserves_walkers_and_never_sheds_silently() {
    let csr = generators::uniform_degree(128, 4, 7);
    cases(24, SEED, |rng| {
        let shards = rng.gen_range(1usize..=5);
        let queries = vec_of(rng, 1..8, |r| {
            (
                r.gen_range(0u32..128),
                r.gen_range(1u64..60),
                r.gen_range(0u64..3_000),
            )
        });
        let max_pending = rng.gen_range(1usize..=4);
        let seed = rng.gen_range(0u64..50);
        let mut specs = Vec::new();
        for (i, &(v, walkers, gap)) in queries.iter().enumerate() {
            let class = match i % 3 {
                0 => format!("ppr:{v}"),
                1 => format!("deepwalk:{v}"),
                _ => format!("rwr:{v}:0.2"),
            };
            let arrival = i as u64 * gap;
            specs.push(spec(i as u64 + 1, &class, walkers, arrival));
        }
        let offered: BTreeSet<u64> = specs.iter().map(|q| q.id).collect();

        let mut opts = ServeOptions {
            seed,
            ..ServeOptions::default()
        };
        opts.admission.max_pending = max_pending;
        let devices = per_shard_devices(shards, 1, SsdProfile::nvme_p4618(), 64 << 10);
        let plane = ShardPlane::build(&csr, devices, 64 << 10, 2048, opts).expect("build");
        let mut src = StaticQuerySource::new(specs);
        let mut sink = MemorySink::default();
        let r = plane.run(&mut src, Some(&mut sink)).expect("serve");

        // Handoff conservation: the run drains every boundary crossing.
        assert_eq!(r.walkers_emigrated, r.walkers_immigrated);
        audit_handoffs(r.walkers_emigrated, r.walkers_immigrated, 0).assert_clean();
        let handoff_sum: u64 = sink
            .events
            .iter()
            .map(|e| match e {
                TraceEvent::ShardHandoff { walkers, .. } => *walkers,
                _ => 0,
            })
            .sum();
        assert_eq!(handoff_sum, r.walkers_emigrated);

        // Every offered query gets exactly one outcome, served or shed.
        let got: BTreeSet<u64> = r.report.outcomes.iter().map(|o| o.id).collect();
        assert_eq!(r.report.outcomes.len(), got.len(), "duplicate outcomes");
        assert_eq!(&got, &offered);

        // No silent sheds: a shed outcome needs a QueryShed trace event,
        // and vice versa; a served query's walkers are fully accounted.
        let shed_events: BTreeSet<u64> = sink
            .events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::QueryShed { query, .. } => Some(*query),
                _ => None,
            })
            .collect();
        for o in &r.report.outcomes {
            if o.shed {
                assert!(shed_events.contains(&o.id), "silent shed of {}", o.id);
                assert_eq!(o.stats.issued, 0);
            } else {
                assert_eq!(o.stats.issued, o.stats.completed + o.stats.cancelled);
            }
        }
        for id in &shed_events {
            let o = r
                .report
                .outcomes
                .iter()
                .find(|o| o.id == *id)
                .expect("outcome");
            assert!(o.shed, "QueryShed event for a served query {id}");
        }
    });
}

/// A four-shard plane over an R-MAT graph with the mixed workload the
/// N=1 pin uses: every shard issues walkers, so every tick runs several
/// lanes at once.
fn four_shard_run(opts: ServeOptions) -> noswalker::shard::ShardReport {
    let csr: Csr = generators::rmat(10, 10, RmatParams::default(), 41);
    let block = csr.edge_region_bytes() / 16;
    let budget = (csr.edge_region_bytes() / 4).max(64 << 10);
    let mix = vec![
        spec(1, "ppr:7", 120, 0),
        spec(2, "basic", 90, 50),
        spec(3, "deepwalk:0", 80, 100),
        spec(4, "rwr:700:0.2", 70, 150),
        spec(5, "ppr:900", 60, 200),
        spec(6, "ppr:400", 60, 250),
    ];
    let devices = per_shard_devices(4, 1, SsdProfile::nvme_p4618(), 64 << 10);
    let plane = ShardPlane::build(&csr, devices, budget, block, opts).expect("build");
    let mut src = StaticQuerySource::new(mix);
    plane.run(&mut src, None).expect("serve")
}

#[test]
fn concurrent_seq_lanes_replay_bit_identically() {
    let first = four_shard_run(ServeOptions::default());
    assert!(first.walkers_emigrated > 0, "the mix must cross shards");
    for _ in 1..8 {
        let again = four_shard_run(ServeOptions::default());
        assert_eq!(again.report.outcomes, first.report.outcomes);
        assert_eq!(again.report.end_ns, first.report.end_ns);
        assert_eq!(again.report.rounds, first.report.rounds);
        assert_eq!(again.lane_histograms, first.lane_histograms);
        assert_eq!(again.report.metrics, first.report.metrics);
    }
}

#[test]
fn concurrent_par_lanes_replay_outcomes_and_end_time() {
    let opts = ServeOptions {
        backend: Backend::Par,
        par_workers: 2,
        ..ServeOptions::default()
    };
    let first = four_shard_run(opts.clone());
    for _ in 1..4 {
        let again = four_shard_run(opts.clone());
        assert_eq!(again.report.outcomes, first.report.outcomes);
        assert_eq!(again.report.end_ns, first.report.end_ns);
    }
}

#[test]
fn a_lane_whose_budget_cannot_hold_its_block_fails_the_plane() {
    // 63 vertices of degree 4 and a last vertex of degree 1,000. With a
    // block wider than the graph every shard is one block, and the
    // byte-balanced cut gives shard 0 vertices 0..61 (976 B), shards 1
    // and 2 one small vertex each, and shard 3 the hub (4,000 B). Every
    // query starts on a different shard, so the hub's lane runs on a
    // spawned thread next to the others.
    let mut b = CsrBuilder::new(64);
    for v in 0..63 {
        for k in 0..4 {
            b = b.edge(v, (v * 7 + k * 13 + 1) % 63);
        }
    }
    for i in 0..1_000 {
        b = b.edge(63, i % 63);
    }
    let csr = b.build();
    let mix = vec![
        spec(1, "ppr:3", 40, 0),
        spec(2, "ppr:61", 40, 0),
        spec(3, "ppr:62", 40, 0),
        spec(4, "ppr:63", 40, 0),
    ];
    let run = |per_shard: u64| {
        let devices = per_shard_devices(4, 1, SsdProfile::nvme_p4618(), 64 << 10);
        let plane = ShardPlane::build(
            &csr,
            devices,
            4 * per_shard,
            1 << 20,
            ServeOptions::default(),
        )
        .expect("build");
        plane.run(&mut StaticQuerySource::new(mix.clone()), None)
    };
    // Room for every block: the plane serves.
    assert!(run(64 << 10).is_ok());
    // 2,400 B a shard holds a small block beside a full walker pool (at
    // most half the budget), but not the hub's block at all.
    match run(2_400) {
        Err(ServeError::Engine(_)) => {}
        other => panic!("expected an engine error, got {other:?}"),
    }
}
