//! Deterministic query-to-shard routing.

use noswalker_graph::VertexId;
use std::ops::Range;

/// Maps vertices (and therefore queries, via their first walker's start
/// vertex) to the shard owning them.
///
/// The router is a plain sorted-range lookup over the contiguous ranges
/// produced by `Partition::shard_ranges` — no hashing, no iteration-order
/// dependence, so the serving digest path stays deterministic (rule L9,
/// `crates/clippy.toml`).
#[derive(Debug, Clone)]
pub struct ShardRouter {
    /// `ends[s]` = one past the last vertex shard `s` owns. Ranges are
    /// contiguous and non-decreasing; empty shards repeat the previous
    /// end.
    ends: Vec<VertexId>,
}

impl ShardRouter {
    /// Builds a router from the shard placement ranges (contiguous,
    /// covering the vertex space in order).
    ///
    /// # Panics
    ///
    /// Panics if `ranges` is empty.
    pub fn new(ranges: &[Range<VertexId>]) -> Self {
        assert!(!ranges.is_empty(), "need at least one shard range");
        ShardRouter {
            ends: ranges.iter().map(|r| r.end).collect(),
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.ends.len()
    }

    /// The shard owning vertex `v`. Out-of-range vertices clamp to the
    /// last shard (they cannot occur for walkers on a stored graph).
    pub fn shard_of(&self, v: VertexId) -> usize {
        self.ends
            .partition_point(|&e| e <= v)
            .min(self.ends.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routes_by_range_lookup() {
        let r = ShardRouter::new(&[0..4, 4..10, 10..16]);
        assert_eq!(r.num_shards(), 3);
        assert_eq!(r.shard_of(0), 0);
        assert_eq!(r.shard_of(3), 0);
        assert_eq!(r.shard_of(4), 1);
        assert_eq!(r.shard_of(9), 1);
        assert_eq!(r.shard_of(10), 2);
        assert_eq!(r.shard_of(15), 2);
        // Out of range clamps to the last shard.
        assert_eq!(r.shard_of(99), 2);
    }

    #[test]
    fn empty_ranges_never_own_a_vertex() {
        let r = ShardRouter::new(&[0..0, 0..0, 0..2, 2..3, 3..3]);
        assert_eq!(r.shard_of(0), 2);
        assert_eq!(r.shard_of(1), 2);
        assert_eq!(r.shard_of(2), 3);
    }
}
