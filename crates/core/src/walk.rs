//! The walker-oriented programming model (paper §3.2 and Appendix A.3).
//!
//! An application implements [`Walk`] (and [`SecondOrderWalk`] for
//! higher-order tasks). The same implementation runs unchanged on
//! NosWalker and on every baseline engine, which is what makes the paper's
//! system comparisons apples-to-apples.

use noswalker_graph::layout::VertexEdges;
use noswalker_graph::VertexId;
use rand::rngs::SmallRng;
use rand::Rng;

/// The RNG handed to application callbacks.
///
/// A concrete type (rather than a generic) keeps [`Walk`] object-safe and
/// every run deterministic under a fixed seed.
pub type WalkRng = SmallRng;

/// A first-order random walk application: the paper's four-function API
/// (Algorithm 2).
///
/// | paper | here |
/// |---|---|
/// | `GenerateWalker(n)` | [`Walk::generate`] |
/// | `Sample(v)` | [`Walk::sample`] |
/// | `Active(w)` | [`Walk::is_active`] (`true` while the walker should keep walking) |
/// | `Action(w, next)` | [`Walk::action`] |
///
/// Engines additionally need to read a walker's current vertex
/// ([`Walk::location`]) to schedule blocks, and call [`Walk::on_terminate`]
/// once per finished walker so applications can harvest results (visit
/// counts, full paths, …).
pub trait Walk: Send + Sync {
    /// Per-walker state. Keep it small: the engines account
    /// `size_of::<Walker>()` bytes of memory budget per live walker.
    type Walker: Clone + Send + std::fmt::Debug;

    /// Total number of walkers the task will issue.
    fn total_walkers(&self) -> u64;

    /// Creates the `n`-th walker (`n ∈ [0, total_walkers)`).
    fn generate(&self, n: u64, rng: &mut WalkRng) -> Self::Walker;

    /// The vertex the walker currently occupies.
    fn location(&self, w: &Self::Walker) -> VertexId;

    /// `true` while the walker has more steps to take. The engines check
    /// this before every move and retire the walker when it turns `false`.
    fn is_active(&self, w: &Self::Walker) -> bool;

    /// Samples one destination from the out-edges of a vertex. This is the
    /// application's core distribution logic (uniform, weighted, …).
    ///
    /// Engines call this both to move a walker directly on a loaded block
    /// and to pre-fill the pre-sampled edge buffers, which is sound because
    /// first-order sampling depends only on the vertex's own edge data
    /// (paper Property (a)).
    ///
    /// # Panics
    ///
    /// Implementations may panic if `v` has no edges; engines never call
    /// `sample` on an empty vertex (such walkers are retired instead).
    fn sample(&self, v: &VertexEdges<'_>, rng: &mut WalkRng) -> VertexId;

    /// Samples one destination *for a specific walker*. Engines call this
    /// on every movement path where the walker is at hand (resident-block
    /// steps and raw retained-edge steps); pre-fill draws, which have no
    /// walker, still go through [`Walk::sample`].
    ///
    /// The default delegates to [`Walk::sample`], so plain applications
    /// ignore it. Applications that need *engine-independent* movement —
    /// the serving layer's cross-backend replay parity — override it to
    /// draw from walker-private randomness instead of the engine's RNG,
    /// making each walker's trajectory a pure function of its own state.
    ///
    /// # Panics
    ///
    /// As for [`Walk::sample`]: engines never call this on an empty
    /// vertex.
    fn sample_for(&self, w: &mut Self::Walker, v: &VertexEdges<'_>, rng: &mut WalkRng) -> VertexId {
        let _ = w;
        self.sample(v, rng)
    }

    /// Consumes a sampled destination: updates the walker (location, step
    /// counter, application bookkeeping). Returns `true` if the sample was
    /// consumed (the engine then pops it from the pre-sample buffer);
    /// second-order apps return `true` after merely *recording* the
    /// destination as a candidate (Algorithm 4).
    fn action(&self, w: &mut Self::Walker, next: VertexId, rng: &mut WalkRng) -> bool;

    /// Called exactly once when a walker terminates (either `is_active`
    /// turned false or it reached a vertex with no out-edges).
    fn on_terminate(&self, w: &Self::Walker) {
        let _ = w;
    }

    /// Whether a terminating walker ended by *cancellation* — its query
    /// was withdrawn (e.g. a serving deadline fired) before the walk
    /// completed — rather than by finishing naturally. Engines consult
    /// this at every retirement site to attribute the walker to
    /// `walkers_cancelled` instead of `walkers_finished`, keeping the
    /// walker-completion audit law balanced. Offline apps never cancel;
    /// the default is `false`.
    fn is_cancelled(&self, w: &Self::Walker) -> bool {
        let _ = w;
        false
    }

    /// A counter that moves whenever [`Walk::is_active`] may have turned
    /// false for a walker nobody touched — a cancellation reaching walkers
    /// that are waiting in the engine. The sequential engine does not look
    /// at a parked walker again until its block loads; when this counter
    /// moves it re-checks the parked ones first, so they retire at the
    /// same scheduler pass a per-pass poll would have retired them. Apps
    /// whose `is_active` reads walker state only never need it; the
    /// default is a constant.
    fn cancel_epoch(&self) -> u64 {
        0
    }

    /// Bytes of memory charged per live walker.
    fn state_bytes(&self) -> usize {
        std::mem::size_of::<Self::Walker>().max(1)
    }
}

/// A second-order random walk application (paper Appendix A): the next step
/// depends on the previous vertex as well as the current one, handled with
/// rejection sampling.
///
/// The engine flow (Algorithm 3):
/// 1. [`Walk::action`] stores a *candidate* destination (a uniform
///    pre-sample) plus a uniform acceptance coordinate inside the walker.
/// 2. When the candidate's out-edges are next in memory, the engine calls
///    [`SecondOrderWalk::rejection`], which computes the true edge weight
///    and either commits the move or clears the candidate.
pub trait SecondOrderWalk: Walk {
    /// The walker's pending candidate destination, if any.
    fn candidate(&self, w: &Self::Walker) -> Option<VertexId>;

    /// Accept/reject the pending candidate given the candidate vertex's own
    /// out-edges. On accept, commits the move (updates `prev`, `location`,
    /// step counter) and clears the candidate; on reject, just clears the
    /// candidate.
    ///
    /// # Panics
    ///
    /// Implementations may panic if the walker has no pending candidate.
    fn rejection(&self, w: &mut Self::Walker, candidate_edges: &VertexEdges<'_>, rng: &mut WalkRng);
}

/// Samples a uniformly random out-edge destination — the `Sample` body of
/// every unweighted application.
///
/// # Panics
///
/// Panics if `v` has no edges.
///
/// # Example
///
/// ```
/// use noswalker_core::{uniform_sample, WalkRng};
/// use noswalker_graph::layout::VertexEdges;
/// use rand::SeedableRng;
///
/// let targets = [3u32, 9, 27];
/// let v = VertexEdges::Mem { targets: &targets, weights: None, alias: None };
/// let mut rng = WalkRng::seed_from_u64(1);
/// assert!(targets.contains(&uniform_sample(&v, &mut rng)));
/// ```
pub fn uniform_sample(v: &VertexEdges<'_>, rng: &mut WalkRng) -> VertexId {
    let d = v.degree();
    assert!(d > 0, "cannot sample from a vertex with no out-edges");
    v.target(rng.gen_range(0..d))
}

/// Samples a destination using the vertex's alias table (O(1) weighted
/// sampling) — the `Sample` body of weighted applications on
/// [`noswalker_graph::EdgeFormat::WeightedAlias`] data.
///
/// # Panics
///
/// Panics if `v` has no edges or carries no alias slots.
pub fn alias_sample(v: &VertexEdges<'_>, rng: &mut WalkRng) -> VertexId {
    let d = v.degree();
    assert!(d > 0, "cannot sample from a vertex with no out-edges");
    let slot = rng.gen_range(0..d);
    #[expect(clippy::expect_used, reason = "documented panic: needs alias data")]
    let (prob, alias) = v
        .alias_slot(slot)
        .expect("alias_sample requires alias-table edge data");
    let u: f32 = rng.gen();
    let idx = if u < prob { slot as u32 } else { alias };
    v.target(idx as usize)
}

/// Samples a destination proportional to raw edge weights in O(degree) —
/// used where weights are present but alias tables are not.
///
/// # Panics
///
/// Panics if `v` has no edges or carries no weights.
pub fn weighted_sample(v: &VertexEdges<'_>, rng: &mut WalkRng) -> VertexId {
    let d = v.degree();
    assert!(d > 0, "cannot sample from a vertex with no out-edges");
    #[expect(clippy::expect_used, reason = "documented panic: needs weights")]
    let total: f64 = (0..d)
        .map(|i| v.weight(i).expect("weighted_sample requires weights") as f64)
        .sum();
    let mut r = rng.gen::<f64>() * total;
    #[expect(clippy::expect_used, reason = "weights were checked just above")]
    for i in 0..d {
        r -= v.weight(i).expect("weights checked above") as f64;
        if r <= 0.0 {
            return v.target(i);
        }
    }
    v.target(d - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> WalkRng {
        WalkRng::seed_from_u64(99)
    }

    #[test]
    fn uniform_sample_covers_all_targets() {
        let targets = [1u32, 2, 3, 4];
        let v = VertexEdges::Mem {
            targets: &targets,
            weights: None,
            alias: None,
        };
        let mut rng = rng();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            seen.insert(uniform_sample(&v, &mut rng));
        }
        assert_eq!(seen.len(), 4);
    }

    #[test]
    #[should_panic(expected = "no out-edges")]
    fn uniform_sample_rejects_empty() {
        let v = VertexEdges::Mem {
            targets: &[],
            weights: None,
            alias: None,
        };
        let _ = uniform_sample(&v, &mut rng());
    }

    #[test]
    fn weighted_sample_respects_weights() {
        let targets = [10u32, 20];
        let weights = [1.0f32, 9.0];
        let v = VertexEdges::Mem {
            targets: &targets,
            weights: Some(&weights),
            alias: None,
        };
        let mut rng = rng();
        let heavy = (0..5000)
            .filter(|_| weighted_sample(&v, &mut rng) == 20)
            .count();
        let frac = heavy as f64 / 5000.0;
        assert!((frac - 0.9).abs() < 0.03, "heavy frac = {frac}");
    }

    #[test]
    fn alias_sample_matches_weighted_distribution() {
        use noswalker_graph::CsrBuilder;
        let g = CsrBuilder::new(4)
            .edge(0, 1)
            .edge(0, 2)
            .edge(0, 3)
            .build()
            .with_weights(vec![1.0, 2.0, 7.0])
            .build_alias_tables();
        let v = VertexEdges::from_csr(&g, 0);
        let mut rng = rng();
        let mut counts = [0u32; 4];
        for _ in 0..20_000 {
            counts[alias_sample(&v, &mut rng) as usize] += 1;
        }
        let f3 = counts[3] as f64 / 20_000.0;
        assert!((f3 - 0.7).abs() < 0.02, "f3 = {f3}");
        let f1 = counts[1] as f64 / 20_000.0;
        assert!((f1 - 0.1).abs() < 0.02, "f1 = {f1}");
    }
}
