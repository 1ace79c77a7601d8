//! Personalized PageRank by Monte-Carlo random walks (paper §4.2: "2000
//! random walks with length 10 ... starting from each query source").

use noswalker_core::apps_prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

/// Monte-Carlo PPR: for each query source, `walks_per_source` fixed-length
/// walks; the visit frequency of each vertex approximates its PPR score
/// with respect to that source's query.
#[derive(Debug)]
pub struct Ppr {
    sources: Vec<VertexId>,
    walks_per_source: u64,
    length: u32,
    visits: Vec<AtomicU64>,
}

/// Walker state for [`Ppr`].
#[derive(Debug, Clone)]
pub struct PprWalker {
    /// Current vertex.
    pub at: VertexId,
    /// Steps taken.
    pub step: u32,
}

impl Ppr {
    /// Creates the query workload.
    ///
    /// # Panics
    ///
    /// Panics if `sources` is empty or `num_vertices` is zero.
    pub fn new(
        sources: Vec<VertexId>,
        walks_per_source: u64,
        length: u32,
        num_vertices: usize,
    ) -> Self {
        assert!(!sources.is_empty(), "need at least one query source");
        assert!(num_vertices > 0, "graph must have vertices");
        Ppr {
            sources,
            walks_per_source,
            length,
            visits: (0..num_vertices).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Total visits recorded at `v` across all sources.
    pub fn visits(&self, v: VertexId) -> u64 {
        self.visits[v as usize].load(Ordering::Relaxed)
    }

    /// Normalized visit distribution (the PPR estimate); sums to ~1.
    pub fn estimate(&self) -> Vec<f64> {
        let total: u64 = self.visits.iter().map(|c| c.load(Ordering::Relaxed)).sum();
        if total == 0 {
            return vec![0.0; self.visits.len()];
        }
        self.visits
            .iter()
            .map(|c| c.load(Ordering::Relaxed) as f64 / total as f64)
            .collect()
    }

    /// The `k` most-visited vertices with their counts, descending.
    pub fn top_k(&self, k: usize) -> Vec<(VertexId, u64)> {
        let mut all: Vec<(VertexId, u64)> = self
            .visits
            .iter()
            .enumerate()
            .map(|(v, c)| (v as VertexId, c.load(Ordering::Relaxed)))
            .filter(|&(_, c)| c > 0)
            .collect();
        all.sort_by_key(|&(v, c)| (std::cmp::Reverse(c), v));
        all.truncate(k);
        all
    }
}

impl Walk for Ppr {
    type Walker = PprWalker;

    fn total_walkers(&self) -> u64 {
        self.sources.len() as u64 * self.walks_per_source
    }

    fn generate(&self, n: u64, _rng: &mut WalkRng) -> PprWalker {
        let s = self.sources[(n / self.walks_per_source) as usize];
        PprWalker { at: s, step: 0 }
    }

    fn location(&self, w: &PprWalker) -> VertexId {
        w.at
    }

    fn is_active(&self, w: &PprWalker) -> bool {
        w.step < self.length
    }

    fn sample(&self, v: &VertexEdges<'_>, rng: &mut WalkRng) -> VertexId {
        uniform_sample(v, rng)
    }

    fn action(&self, w: &mut PprWalker, next: VertexId, _rng: &mut WalkRng) -> bool {
        w.at = next;
        w.step += 1;
        self.visits[next as usize].fetch_add(1, Ordering::Relaxed);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn walkers_start_at_their_source() {
        let app = Ppr::new(vec![3, 7], 5, 10, 16);
        let mut rng = WalkRng::seed_from_u64(0);
        assert_eq!(app.total_walkers(), 10);
        assert_eq!(app.generate(0, &mut rng).at, 3);
        assert_eq!(app.generate(4, &mut rng).at, 3);
        assert_eq!(app.generate(5, &mut rng).at, 7);
        assert_eq!(app.generate(9, &mut rng).at, 7);
    }

    #[test]
    fn visits_accumulate_and_normalize() {
        let app = Ppr::new(vec![0], 1, 4, 4);
        let mut rng = WalkRng::seed_from_u64(1);
        let mut w = app.generate(0, &mut rng);
        for v in [1u32, 2, 1, 3] {
            app.action(&mut w, v, &mut rng);
        }
        assert_eq!(app.visits(1), 2);
        let est = app.estimate();
        assert!((est.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert_eq!(app.top_k(1), vec![(1, 2)]);
    }

    #[test]
    #[should_panic(expected = "at least one query source")]
    fn rejects_empty_sources() {
        let _ = Ppr::new(vec![], 10, 10, 4);
    }
}
