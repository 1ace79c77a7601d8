//! Property tests over the data structures the engines are built from:
//! graph encoding, partitioning and I/O, the alias table, the storage
//! devices and memory budget, and the core's quota planner and pipeline
//! clock. Engine runs are in `properties2.rs`, CLI parsing in
//! `properties3.rs`.

mod common;

use common::{cases, graph, vec_of, SEED};
use noswalker::core::presample::plan_quotas;
use noswalker::core::PipelineClock;
use noswalker::graph::io::{load_csr, read_edge_list, save_csr, write_edge_list};
use noswalker::graph::layout::{encode_edge_region, EdgeFormat, VertexEdges};
use noswalker::graph::partition::Partition;
use noswalker::graph::AliasTable;
use noswalker::storage::{Device, MemoryBudget, Raid0, SsdProfile};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::panic;

/// The helper itself: a failing case names its index and a seed that
/// replays it alone.
#[test]
fn cases_panics_with_case_index_and_replay_seed() {
    let draws_three = |rng: &mut SmallRng| rng.gen_range(0..4u32) == 3;
    let failed = panic::catch_unwind(|| {
        cases(64, SEED, |rng| assert!(!draws_three(rng), "drew a 3"));
    })
    .expect_err("some case draws a 3");
    let msg = failed.downcast_ref::<String>().expect("formatted message");
    let case = (0..64)
        .find(|&i| draws_three(&mut SmallRng::seed_from_u64(SEED ^ i)))
        .expect("a failing case");
    assert!(msg.contains(&format!("case {case} of 64")), "{msg}");
    assert!(
        msg.contains(&format!("replay seed {:#x}", SEED ^ case)),
        "{msg}"
    );
    assert!(msg.contains("drew a 3"), "{msg}");
    let replay = panic::catch_unwind(|| cases(1, SEED ^ case, |rng| assert!(!draws_three(rng))));
    assert!(replay.is_err());
}

#[test]
fn csr_roundtrips_through_raw_encoding() {
    cases(64, SEED, |rng| {
        let csr = graph(rng, 64, 0);
        let bytes = encode_edge_region(&csr, EdgeFormat::Unweighted).unwrap();
        assert_eq!(bytes.len() as u64, csr.num_edges() * 4);
        for v in 0..csr.num_vertices() as u32 {
            let s = csr.edge_start(v) as usize * 4;
            let e = csr.edge_start(v + 1) as usize * 4;
            let view = VertexEdges::from_raw(&bytes[s..e], EdgeFormat::Unweighted);
            assert_eq!(view.degree() as u64, csr.degree(v));
            for i in 0..view.degree() {
                assert_eq!(view.target(i), csr.neighbors(v)[i]);
            }
        }
    });
}

#[test]
fn partition_covers_graph_exactly() {
    cases(64, SEED, |rng| {
        let csr = graph(rng, 64, 0);
        let block_bytes = rng.gen_range(1u64..512);
        let p = Partition::by_block_bytes(&csr, EdgeFormat::Unweighted, block_bytes);
        // Vertex coverage: contiguous, complete.
        let mut v = 0;
        let mut byte = 0;
        for blk in p.blocks() {
            assert_eq!(blk.vertex_start, v);
            assert_eq!(blk.byte_start, byte);
            v = blk.vertex_end;
            byte = blk.byte_end;
        }
        assert_eq!(v as usize, csr.num_vertices());
        assert_eq!(byte, csr.num_edges() * 4);
        for u in 0..csr.num_vertices() as u32 {
            assert!(p.block(p.block_of_vertex(u)).contains_vertex(u));
        }
    });
}

#[test]
fn binary_csr_roundtrips_arbitrary_graphs() {
    cases(48, SEED, |rng| {
        let g = graph(rng, 64, 1);
        let mut bytes = Vec::new();
        save_csr(&g, &mut bytes).unwrap();
        let g2 = load_csr(bytes.as_slice()).unwrap();
        assert_eq!(g, g2);
    });
}

#[test]
fn edge_list_roundtrips_arbitrary_graphs() {
    cases(48, SEED, |rng| {
        let g = graph(rng, 48, 1);
        let mut text = Vec::new();
        write_edge_list(&g, &mut text).unwrap();
        let g2 = read_edge_list(text.as_slice()).unwrap();
        assert_eq!(g.num_edges(), g2.num_edges());
        for v in 0..g2.num_vertices() as u32 {
            assert_eq!(g.neighbors(v), g2.neighbors(v));
        }
    });
}

#[test]
fn alias_table_picks_valid_nonzero_slots() {
    cases(64, SEED, |rng| {
        // A quarter of the slots weigh exactly 0 (the redirect path), and
        // one slot is forced positive so the table is never all-zero.
        let mut weights = vec_of(rng, 1..40, |r| {
            if r.gen_bool(0.25) {
                0.0
            } else {
                r.gen_range(0.0f32..10.0)
            }
        });
        let hot = rng.gen_range(0..weights.len());
        weights[hot] = rng.gen_range(0.001f32..10.0);
        let t = AliasTable::new(&weights);
        for slot in 0..weights.len() {
            for u in [0.0f32, 0.25, 0.5, 0.75, 0.999] {
                let picked = t.pick(slot, u) as usize;
                assert!(picked < weights.len());
                // A picked slot is only ever one with positive weight,
                // unless the uniform slot itself had weight 0 and u >= prob
                // (prob of a zero-weight slot is 0, so it always redirects).
                if weights[slot] == 0.0 {
                    assert!(u >= t.prob(slot) || t.prob(slot) == 0.0);
                }
            }
        }
    });
}

#[test]
fn quota_plans_respect_classes() {
    cases(64, SEED, |rng| {
        let degrees = vec_of(rng, 1..50, |r| r.gen_range(0u64..200));
        let capacity = rng.gen_range(0u64..2000);
        let low = rng.gen_range(0u32..6);
        let alias = rng.gen_range(8u32..200);
        let cap = rng.gen_range(1u32..64);
        let weights = vec![0u32; degrees.len()];
        let plan = plan_quotas(&degrees, &weights, capacity, low, alias, cap);
        for (i, &deg) in degrees.iter().enumerate() {
            if deg == 0 {
                assert_eq!(plan.quotas[i], 0);
            } else if deg <= low as u64 {
                assert!(plan.raw[i]);
                assert!(!plan.alias[i]);
                assert_eq!(plan.quotas[i] as u64, deg);
            } else if plan.alias[i] {
                // Hub retention: raw, whole edge list, only over the
                // alias threshold.
                assert!(plan.raw[i]);
                assert!(deg >= alias as u64);
                assert_eq!(plan.quotas[i] as u64, deg);
            } else {
                assert!(!plan.raw[i]);
                assert!(plan.quotas[i] <= cap);
            }
        }
        let total: u64 = plan.quotas.iter().map(|&q| q as u64).sum();
        assert_eq!(total, plan.total_slots);
    });
}

#[test]
fn budget_never_exceeds_limit() {
    cases(64, SEED, |rng| {
        let ops = vec_of(rng, 1..60, |r| (r.gen_range(0u64..2000), r.gen::<bool>()));
        let budget = MemoryBudget::new(4096);
        let mut held = Vec::new();
        for (bytes, release_one) in ops {
            if release_one && !held.is_empty() {
                held.pop();
            }
            if let Ok(r) = budget.try_reserve(bytes) {
                held.push(r);
            }
            assert!(budget.in_use() <= 4096);
            assert!(budget.peak() <= 4096);
        }
        drop(held);
        assert_eq!(budget.in_use(), 0);
    });
}

#[test]
fn pipeline_clock_is_monotone() {
    cases(64, SEED, |rng| {
        let ops = vec_of(rng, 1..80, |r| {
            (r.gen_range(0u8..3), r.gen_range(0u64..10_000))
        });
        let mut clock = PipelineClock::new();
        let mut last = 0;
        for (kind, x) in ops {
            match kind {
                0 => clock.advance_compute(x),
                1 => {
                    let done = clock.issue_io(x);
                    assert!(done >= clock.now());
                }
                _ => clock.stall_until(x),
            }
            assert!(clock.now() >= last);
            last = clock.now();
        }
        assert!(clock.compute_ns() + clock.stall_ns() <= clock.now() + 1);
    });
}

#[test]
fn sim_ssd_service_times_scale() {
    cases(64, SEED, |rng| {
        let len_a = rng.gen_range(1u64..(1 << 22));
        let len_b = rng.gen_range(1u64..(1 << 22));
        let p = SsdProfile::nvme_p4618();
        let (small, large) = if len_a < len_b {
            (len_a, len_b)
        } else {
            (len_b, len_a)
        };
        assert!(p.service_ns(small) <= p.service_ns(large));
        assert!(p.service_ns(small) >= 1_000_000_000 / p.iops);
    });
}

#[test]
fn raid0_reads_match_writes() {
    cases(48, SEED, |rng| {
        let members = rng.gen_range(1usize..6);
        let stripe = rng.gen_range(1u64..200);
        let writes = vec_of(rng, 1..12, |r| {
            (
                r.gen_range(0u64..2000),
                vec_of(r, 1..300, |r| r.gen::<u8>()),
            )
        });
        let raid = Raid0::new(members, SsdProfile::nvme_p4618(), stripe);
        // A shadow flat buffer is the reference model.
        let mut shadow = vec![0u8; 4096];
        for (off, data) in &writes {
            let end = *off as usize + data.len();
            if shadow.len() < end {
                shadow.resize(end, 0);
            }
            shadow[*off as usize..end].copy_from_slice(data);
            raid.write(*off, data).unwrap();
        }
        for (off, data) in &writes {
            let mut buf = vec![0u8; data.len()];
            raid.read(*off, &mut buf).unwrap();
            assert_eq!(&buf, &shadow[*off as usize..*off as usize + data.len()]);
        }
    });
}
