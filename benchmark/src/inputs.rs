//! Seeded inputs: every random choice a workload makes — walker seeds,
//! query vertices, arrival schedule — derives from `--seed`, and the
//! program under test receives only the generated inputs. The graph is
//! the data set, the same for every seed.

use noswalker_core::{OnDiskGraph, QuerySpec};
use noswalker_graph::generators::{self, RmatParams};
use noswalker_graph::Csr;
use noswalker_storage::{Device, SimSsd, SsdProfile};
use std::sync::Arc;

/// SplitMix64: a tiny, well-mixed generator, enough for benchmark inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `(seed, purpose)`; streams with different purposes
    /// are independent, so adding a consumer never shifts another's
    /// inputs.
    pub fn new(seed: u64, purpose: &str) -> Self {
        let mut h = seed ^ 0x9E37_79B9_7F4A_7C15;
        for b in purpose.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
        let mut r = Rng(h);
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The R-MAT data set every workload walks: `2^scale` vertices, average
/// degree 32, default skew. It does not depend on `--seed`: an R-MAT
/// graph's hubs, and with them the engines' wall time per step, differ by
/// a quarter from one generator seed to the next, which would bury every
/// measurement under input variance.
pub fn graph(scale: u32) -> Csr {
    generators::rmat(scale, 32, RmatParams::default(), 1)
}

/// Coarse block size giving about 32 blocks, as the paper-figure harness
/// uses (`crates/bench` `default_block_bytes`).
pub fn block_bytes(csr: &Csr) -> u64 {
    (csr.num_edges() * 4 / 32).max(4096)
}

/// A stored graph with its device kept, so reads can be counted.
pub struct Stored {
    pub device: Arc<SimSsd>,
    pub graph: Arc<OnDiskGraph>,
}

pub fn store(csr: &Csr) -> Result<Stored, String> {
    let device = Arc::new(SimSsd::new(SsdProfile::nvme_p4618()));
    let graph = OnDiskGraph::store(
        csr,
        Arc::clone(&device) as Arc<dyn Device>,
        block_bytes(csr),
    )
    .map_err(|e| format!("store: {e}"))?;
    Ok(Stored {
        device,
        graph: Arc::new(graph),
    })
}

/// Due times in nanoseconds of `count` arrivals over a window, Poisson
/// within each tenth of it: a Poisson process conditioned on its count is
/// that many uniform instants, sorted, and every tenth of the window gets
/// its share of the count. Fixing the counts keeps the offered load the
/// same for every seed and across the window; the bursts and gaps that
/// make queues (a tenth holds dozens of arrivals) are still there.
pub fn poisson_schedule(seed: u64, count: usize, window_ns: u64) -> Vec<u64> {
    const STRATA: usize = 10;
    let mut rng = Rng::new(seed, "arrivals");
    let stratum_ns = window_ns as f64 / STRATA as f64;
    let mut due = Vec::with_capacity(count);
    for k in 0..STRATA {
        let share = count * (k + 1) / STRATA - count * k / STRATA;
        due.extend((0..share).map(|_| ((k as f64 + rng.unit()) * stratum_ns) as u64));
    }
    due.sort_unstable();
    due
}

/// Walkers per query and steps per walker of the `MIX4` query mix.
pub const MIX4_WALKERS: u64 = 2_000;
pub const MIX4_LENGTH: u32 = 10;

/// The first `n` queries of the seed's `MIX4` stream: query `i` (id
/// `i + 1`) cycles through PPR, basic, DeepWalk and RWR with a seeded
/// anchor vertex, uniform over the vertices that have out-edges (a third
/// of an R-MAT graph's vertices have none, and a query anchored there is
/// over before it starts). Arrival and deadline are the caller's to stamp.
pub fn mix4(seed: u64, n: usize, csr: &Csr) -> Vec<QuerySpec> {
    let mut rng = Rng::new(seed, "queries");
    let nv = csr.num_vertices() as u64;
    (0..n)
        .map(|i| {
            let v = loop {
                let v = rng.below(nv);
                if csr.degree(v as u32) > 0 {
                    break v;
                }
            };
            let class = match i % 4 {
                0 => format!("ppr:{v}"),
                1 => "basic".to_string(),
                2 => format!("deepwalk:{v}"),
                _ => format!("rwr:{v}:0.15"),
            };
            QuerySpec {
                id: i as u64 + 1,
                class,
                walkers: MIX4_WALKERS,
                walk_length: MIX4_LENGTH,
                deadline_ns: None,
                arrival_ns: 0,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_repeats_for_equal_seeds_and_differs_otherwise() {
        let a = poisson_schedule(7, 600, 10_000_000_000);
        let b = poisson_schedule(7, 600, 10_000_000_000);
        let c = poisson_schedule(8, 600, 10_000_000_000);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 600);
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "due times ascend");
        assert!(a.last().is_some_and(|&t| t < 10_000_000_000));
        // Exponential gaps: about 1/e of them exceed the mean gap.
        let mean = 10_000_000_000 / 600;
        let long = a.windows(2).filter(|w| w[1] - w[0] > mean).count();
        assert!((150..=290).contains(&long), "{long} long gaps");
    }

    #[test]
    fn mix4_cycles_the_four_classes() {
        let csr = generators::uniform_degree(64, 4, 11);
        let qs = mix4(3, 8, &csr);
        assert_eq!(qs, mix4(3, 8, &csr));
        let heads: Vec<&str> = qs
            .iter()
            .map(|q| q.class.split(':').next().unwrap())
            .collect();
        assert_eq!(
            heads,
            ["ppr", "basic", "deepwalk", "rwr", "ppr", "basic", "deepwalk", "rwr"]
        );
        assert!(qs.iter().enumerate().all(|(i, q)| q.id == i as u64 + 1));
        assert!(qs
            .iter()
            .all(|q| noswalker_serve::QueryClass::parse(&q.class).is_some()));
    }
}
