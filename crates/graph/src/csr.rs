//! In-memory compressed sparse row (CSR) adjacency structure.

use crate::alias::AliasTable;
use crate::layout::EdgeFormat;
use crate::{EdgeIndex, VertexId};

/// An immutable directed graph in CSR form.
///
/// `offsets` has `num_vertices + 1` entries; the out-edges of vertex `v` are
/// `targets[offsets[v] .. offsets[v + 1]]`. Optional parallel arrays carry
/// per-edge weights and per-vertex alias tables (pre-built for O(1) weighted
/// sampling, as the paper's `K30W` dataset does, §4.1).
///
/// # Example
///
/// ```
/// use noswalker_graph::CsrBuilder;
///
/// let g = CsrBuilder::new(3).edge(0, 1).edge(0, 2).edge(1, 2).build();
/// assert_eq!(g.degree(0), 2);
/// assert_eq!(g.neighbors(1), &[2]);
/// assert_eq!(g.num_edges(), 3);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Csr {
    pub(crate) offsets: Vec<EdgeIndex>,
    pub(crate) targets: Vec<VertexId>,
    pub(crate) weights: Option<Vec<f32>>,
    pub(crate) alias: Option<AliasData>,
}

/// Flattened per-vertex alias tables (parallel to `targets`).
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct AliasData {
    /// Probability of keeping slot `i`'s own target (vs. its alias).
    pub prob: Vec<f32>,
    /// Local (within-vertex) index of the alias target for slot `i`.
    pub alias: Vec<u32>,
}

impl Csr {
    /// Creates an empty graph with `n` vertices and no edges.
    pub fn empty(n: usize) -> Self {
        Csr {
            offsets: vec![0; n + 1],
            targets: Vec::new(),
            weights: None,
            alias: None,
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> u64 {
        self.offsets.last().copied().unwrap_or(0)
    }

    /// Out-degree of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn degree(&self, v: VertexId) -> u64 {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// Start index of `v`'s edges in the flat edge array.
    pub fn edge_start(&self, v: VertexId) -> EdgeIndex {
        self.offsets[v as usize]
    }

    /// The out-neighbors of `v` as a slice.
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let (s, e) = self.edge_range(v);
        &self.targets[s..e]
    }

    /// The edge weights of `v`, if the graph is weighted.
    pub fn edge_weights(&self, v: VertexId) -> Option<&[f32]> {
        let (s, e) = self.edge_range(v);
        self.weights.as_ref().map(|w| &w[s..e])
    }

    /// Alias-table slices `(prob, alias)` for `v`, if built.
    pub fn alias_slices(&self, v: VertexId) -> Option<(&[f32], &[u32])> {
        let (s, e) = self.edge_range(v);
        self.alias.as_ref().map(|a| (&a.prob[s..e], &a.alias[s..e]))
    }

    fn edge_range(&self, v: VertexId) -> (usize, usize) {
        (
            self.offsets[v as usize] as usize,
            self.offsets[v as usize + 1] as usize,
        )
    }

    /// Whether per-edge weights are present.
    pub fn is_weighted(&self) -> bool {
        self.weights.is_some()
    }

    /// Whether pre-built alias tables are present.
    pub fn has_alias_tables(&self) -> bool {
        self.alias.is_some()
    }

    /// The prefix-sum offset array (`num_vertices + 1` entries).
    pub fn offsets(&self) -> &[EdgeIndex] {
        &self.offsets
    }

    /// The flat target array.
    pub fn targets(&self) -> &[VertexId] {
        &self.targets
    }

    /// The flat weight array, if weighted.
    pub fn weights(&self) -> Option<&[f32]> {
        self.weights.as_deref()
    }

    /// The on-disk edge record format this graph serializes to.
    pub fn edge_format(&self) -> EdgeFormat {
        if self.alias.is_some() {
            EdgeFormat::WeightedAlias
        } else if self.weights.is_some() {
            EdgeFormat::Weighted
        } else {
            EdgeFormat::Unweighted
        }
    }

    /// Size in bytes of the serialized edge region (`num_edges × record`).
    pub fn edge_region_bytes(&self) -> u64 {
        self.num_edges() * self.edge_format().record_bytes() as u64
    }

    /// Approximate total CSR size in bytes (index + edge region), the
    /// "CSR Size" column of the paper's Table 1.
    pub fn csr_bytes(&self) -> u64 {
        (self.offsets.len() as u64) * 8 + self.edge_region_bytes()
    }

    /// Attaches per-edge weights.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != num_edges`.
    pub fn with_weights(mut self, weights: Vec<f32>) -> Self {
        assert_eq!(
            weights.len() as u64,
            self.num_edges(),
            "weights length must equal edge count"
        );
        self.weights = Some(weights);
        self
    }

    /// Builds per-vertex alias tables from the attached weights.
    ///
    /// # Panics
    ///
    /// Panics if the graph has no weights.
    pub fn build_alias_tables(mut self) -> Self {
        #[expect(
            clippy::expect_used,
            reason = "documented panic — the builder API contract is that weights are \
                      attached before alias construction"
        )]
        let weights = self.weights.as_ref().expect("alias tables need weights");
        let mut prob = vec![0.0f32; self.targets.len()];
        let mut alias = vec![0u32; self.targets.len()];
        for v in 0..self.num_vertices() {
            let s = self.offsets[v] as usize;
            let e = self.offsets[v + 1] as usize;
            if s == e {
                continue;
            }
            let table = AliasTable::new(&weights[s..e]);
            let (p, a) = table.into_parts();
            prob[s..e].copy_from_slice(&p);
            alias[s..e].copy_from_slice(&a);
        }
        self.alias = Some(AliasData { prob, alias });
        self
    }

    /// Iterates over all `(src, dst)` edges.
    pub fn iter_edges(&self) -> EdgeIter<'_> {
        EdgeIter {
            csr: self,
            v: 0,
            i: 0,
        }
    }

    /// Returns the symmetrized (undirected) version of this graph: for every
    /// edge `(u, v)` both `(u, v)` and `(v, u)` are present, deduplicated.
    ///
    /// Node2Vec (§4.5) requires undirected graphs; weights are dropped.
    pub fn to_undirected(&self) -> Csr {
        let mut edges = Vec::with_capacity(self.targets.len() * 2);
        for (u, v) in self.iter_edges() {
            edges.push((u, v));
            edges.push((v, u));
        }
        crate::builder::from_sorted_dedup(self.num_vertices(), edges)
    }

    /// True if the directed edge `(u, v)` exists (binary search; the
    /// neighbor lists are sorted by construction through [`crate::CsrBuilder`]).
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }
}

/// Iterator over all edges of a [`Csr`].
#[derive(Debug)]
pub struct EdgeIter<'a> {
    csr: &'a Csr,
    v: usize,
    i: usize,
}

impl Iterator for EdgeIter<'_> {
    type Item = (VertexId, VertexId);

    fn next(&mut self) -> Option<(VertexId, VertexId)> {
        loop {
            if self.v >= self.csr.num_vertices() {
                return None;
            }
            if (self.i as u64) < self.csr.offsets[self.v + 1] - self.csr.offsets[self.v] {
                let dst = self.csr.neighbors(self.v as VertexId)[self.i];
                self.i += 1;
                return Some((self.v as VertexId, dst));
            }
            self.v += 1;
            self.i = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::CsrBuilder;

    #[test]
    fn empty_graph() {
        let g = super::Csr::empty(4);
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.degree(3), 0);
        assert!(g.neighbors(0).is_empty());
    }

    #[test]
    fn degrees_and_neighbors() {
        let g = CsrBuilder::new(4)
            .edge(0, 1)
            .edge(0, 2)
            .edge(2, 3)
            .edge(2, 0)
            .build();
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(1), 0);
        assert_eq!(g.degree(2), 2);
        assert_eq!(g.neighbors(2), &[0, 3]); // sorted by builder
        assert_eq!(g.num_edges(), 4);
    }

    #[test]
    fn edge_iter_visits_all() {
        let g = CsrBuilder::new(3).edge(0, 1).edge(1, 2).edge(2, 0).build();
        let edges: Vec<_> = g.iter_edges().collect();
        assert_eq!(edges, vec![(0, 1), (1, 2), (2, 0)]);
    }

    #[test]
    fn weighted_graph_and_alias() {
        let g = CsrBuilder::new(2)
            .edge(0, 0)
            .edge(0, 1)
            .build()
            .with_weights(vec![1.0, 3.0])
            .build_alias_tables();
        assert!(g.is_weighted());
        assert!(g.has_alias_tables());
        let (prob, alias) = g.alias_slices(0).unwrap();
        assert_eq!(prob.len(), 2);
        assert_eq!(alias.len(), 2);
        assert_eq!(g.edge_format().record_bytes(), 12);
    }

    #[test]
    fn undirected_symmetrizes() {
        let g = CsrBuilder::new(3).edge(0, 1).edge(1, 2).build();
        let u = g.to_undirected();
        assert!(u.has_edge(1, 0));
        assert!(u.has_edge(0, 1));
        assert!(u.has_edge(2, 1));
        assert!(!u.has_edge(0, 2));
        assert_eq!(u.num_edges(), 4);
    }

    #[test]
    fn csr_bytes_accounts_index_and_edges() {
        let g = CsrBuilder::new(2).edge(0, 1).build();
        // 3 offsets * 8 bytes + 1 edge * 4 bytes
        assert_eq!(g.csr_bytes(), 24 + 4);
    }

    #[test]
    fn has_edge_binary_search() {
        let g = CsrBuilder::new(5).edge(0, 4).edge(0, 2).edge(0, 1).build();
        assert!(g.has_edge(0, 2));
        assert!(!g.has_edge(0, 3));
        assert!(!g.has_edge(1, 0));
    }
}
