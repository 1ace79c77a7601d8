//! On-disk edge record formats and decoded per-vertex edge views.
//!
//! All out-of-core engines in this reproduction store the graph as a CSR
//! whose *index* (the `offsets` prefix-sum) stays in memory — the paper
//! keeps the CSR index resident too (§3.3.1) — while the *edge region* lives
//! on the device as a flat array of fixed-size records:
//!
//! | format | record | contents |
//! |---|---|---|
//! | [`EdgeFormat::Unweighted`] | 4 B | `target: u32` |
//! | [`EdgeFormat::Weighted`] | 8 B | `target: u32, weight: f32` |
//! | [`EdgeFormat::WeightedAlias`] | 12 B | `target: u32, prob: f32, alias: u32` |
//!
//! 12 B/edge for the alias format matches the paper's `K30W` arithmetic
//! (32 B edges → 384 GiB).

use crate::csr::Csr;
use crate::VertexId;

/// Fixed-size on-disk edge record layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EdgeFormat {
    /// 4-byte records: destination vertex only.
    #[default]
    Unweighted,
    /// 8-byte records: destination + edge weight.
    Weighted,
    /// 12-byte records: destination + alias-table slot (prob, alias index).
    WeightedAlias,
}

impl EdgeFormat {
    /// Bytes per edge record.
    pub fn record_bytes(self) -> usize {
        match self {
            EdgeFormat::Unweighted => 4,
            EdgeFormat::Weighted => 8,
            EdgeFormat::WeightedAlias => 12,
        }
    }
}

/// Errors from serializing an edge region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayoutError {
    /// The requested format stores per-edge weights the CSR does not carry.
    MissingWeights,
    /// The requested format stores alias tables the CSR has not built.
    MissingAliasTables,
}

impl std::fmt::Display for LayoutError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LayoutError::MissingWeights => {
                write!(f, "Weighted format requires a CSR with edge weights")
            }
            LayoutError::MissingAliasTables => {
                write!(f, "WeightedAlias format requires built alias tables")
            }
        }
    }
}

impl std::error::Error for LayoutError {}

/// Serializes the edge region of `csr` in the given format.
///
/// # Errors
///
/// [`LayoutError`] if the format needs weights/alias data the CSR does
/// not carry.
pub fn encode_edge_region(csr: &Csr, format: EdgeFormat) -> Result<Vec<u8>, LayoutError> {
    let n = csr.num_edges() as usize;
    let mut out = Vec::with_capacity(n * format.record_bytes());
    match format {
        EdgeFormat::Unweighted => {
            for &t in csr.targets() {
                out.extend_from_slice(&t.to_le_bytes());
            }
        }
        EdgeFormat::Weighted => {
            let w = csr.weights().ok_or(LayoutError::MissingWeights)?;
            for (&t, &wt) in csr.targets().iter().zip(w) {
                out.extend_from_slice(&t.to_le_bytes());
                out.extend_from_slice(&wt.to_le_bytes());
            }
        }
        EdgeFormat::WeightedAlias => {
            for v in 0..csr.num_vertices() as VertexId {
                let targets = csr.neighbors(v);
                let (prob, alias) = csr.alias_slices(v).ok_or(LayoutError::MissingAliasTables)?;
                for i in 0..targets.len() {
                    out.extend_from_slice(&targets[i].to_le_bytes());
                    out.extend_from_slice(&prob[i].to_le_bytes());
                    out.extend_from_slice(&alias[i].to_le_bytes());
                }
            }
        }
    }
    Ok(out)
}

/// Reads a little-endian `u32` at `off`; panics if out of bounds, which
/// accessor index contracts already guarantee against.
fn le_u32(bytes: &[u8], off: usize) -> u32 {
    u32::from_le_bytes([bytes[off], bytes[off + 1], bytes[off + 2], bytes[off + 3]])
}

/// Reads a little-endian `f32` at `off`.
fn le_f32(bytes: &[u8], off: usize) -> f32 {
    f32::from_le_bytes([bytes[off], bytes[off + 1], bytes[off + 2], bytes[off + 3]])
}

/// A read-only view of one vertex's out-edges, either borrowed from an
/// in-memory [`Csr`] or decoded on the fly from raw loaded device bytes.
///
/// This is the `Vertex` argument of the paper's `Sample(Vertex v)` API
/// (Algorithm 2): applications see degree, targets, weights and alias slots
/// without knowing where the bytes came from.
#[derive(Debug, Clone, Copy)]
pub enum VertexEdges<'a> {
    /// Borrowed from an in-memory CSR.
    Mem {
        /// Neighbor targets.
        targets: &'a [VertexId],
        /// Parallel weights, if the graph is weighted.
        weights: Option<&'a [f32]>,
        /// Parallel alias slots, if built.
        alias: Option<(&'a [f32], &'a [u32])>,
    },
    /// Raw little-endian edge records loaded from a device.
    Raw {
        /// The record bytes (`degree × record_bytes` long).
        bytes: &'a [u8],
        /// Record layout.
        format: EdgeFormat,
    },
}

impl<'a> VertexEdges<'a> {
    /// Builds a view over an in-memory CSR vertex.
    pub fn from_csr(csr: &'a Csr, v: VertexId) -> Self {
        VertexEdges::Mem {
            targets: csr.neighbors(v),
            weights: csr.edge_weights(v),
            alias: csr.alias_slices(v),
        }
    }

    /// Builds a view over raw loaded bytes.
    ///
    /// # Panics
    ///
    /// Panics if `bytes.len()` is not a multiple of the record size.
    pub fn from_raw(bytes: &'a [u8], format: EdgeFormat) -> Self {
        assert!(
            bytes.len().is_multiple_of(format.record_bytes()),
            "raw edge bytes must be a whole number of records"
        );
        VertexEdges::Raw { bytes, format }
    }

    /// Out-degree of the vertex.
    pub fn degree(&self) -> usize {
        match self {
            VertexEdges::Mem { targets, .. } => targets.len(),
            VertexEdges::Raw { bytes, format } => bytes.len() / format.record_bytes(),
        }
    }

    /// True if the vertex has no out-edges.
    pub fn is_empty(&self) -> bool {
        self.degree() == 0
    }

    /// Destination of edge `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= degree()`.
    pub fn target(&self, i: usize) -> VertexId {
        match self {
            VertexEdges::Mem { targets, .. } => targets[i],
            VertexEdges::Raw { bytes, format } => le_u32(bytes, i * format.record_bytes()),
        }
    }

    /// Weight of edge `i`, if the layout carries weights.
    pub fn weight(&self, i: usize) -> Option<f32> {
        match self {
            VertexEdges::Mem { weights, .. } => weights.map(|w| w[i]),
            VertexEdges::Raw { bytes, format } => match format {
                // WeightedAlias records carry the alias slot instead of the
                // raw weight — the alias table alone suffices for sampling.
                EdgeFormat::Unweighted | EdgeFormat::WeightedAlias => None,
                EdgeFormat::Weighted => Some(le_f32(bytes, i * format.record_bytes() + 4)),
            },
        }
    }

    /// Alias slot `(prob, alias_index)` of edge `i`, if the layout carries
    /// alias tables.
    pub fn alias_slot(&self, i: usize) -> Option<(f32, u32)> {
        match self {
            VertexEdges::Mem { alias, .. } => alias.map(|(p, a)| (p[i], a[i])),
            VertexEdges::Raw { bytes, format } => match format {
                EdgeFormat::WeightedAlias => {
                    let off = i * format.record_bytes();
                    Some((le_f32(bytes, off + 4), le_u32(bytes, off + 8)))
                }
                _ => None,
            },
        }
    }

    /// Appends every target to `targets` and, when `weights` is given,
    /// every weight to it (1.0 where the layout carries none): the bulk
    /// form of a `target(i)` / `weight(i)` loop over the vertex.
    pub fn append_edges(&self, targets: &mut Vec<VertexId>, weights: Option<&mut Vec<f32>>) {
        match *self {
            VertexEdges::Mem {
                targets: t,
                weights: w,
                ..
            } => {
                targets.extend_from_slice(t);
                match (weights, w) {
                    (Some(out), Some(w)) => out.extend_from_slice(w),
                    (Some(out), None) => out.resize(out.len() + t.len(), 1.0),
                    (None, _) => {}
                }
            }
            VertexEdges::Raw { bytes, format } => {
                let records = bytes.chunks_exact(format.record_bytes());
                targets.extend(records.clone().map(|r| le_u32(r, 0)));
                match (weights, format) {
                    (Some(out), EdgeFormat::Weighted) => out.extend(records.map(|r| le_f32(r, 4))),
                    (Some(out), _) => out.resize(out.len() + records.len(), 1.0),
                    (None, _) => {}
                }
            }
        }
    }

    /// True if the directed edge to `dst` is present (linear scan — used by
    /// second-order rejection to compute `d_ux`, Appendix A).
    pub fn contains_target(&self, dst: VertexId) -> bool {
        (0..self.degree()).any(|i| self.target(i) == dst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CsrBuilder;

    fn weighted_graph() -> Csr {
        CsrBuilder::new(3)
            .edge(0, 1)
            .edge(0, 2)
            .edge(1, 0)
            .build()
            .with_weights(vec![1.0, 2.0, 5.0])
            .build_alias_tables()
    }

    #[test]
    fn record_sizes() {
        assert_eq!(EdgeFormat::Unweighted.record_bytes(), 4);
        assert_eq!(EdgeFormat::Weighted.record_bytes(), 8);
        assert_eq!(EdgeFormat::WeightedAlias.record_bytes(), 12);
    }

    #[test]
    fn encode_unweighted_roundtrip() {
        let g = CsrBuilder::new(3).edge(0, 2).edge(1, 0).build();
        let bytes = encode_edge_region(&g, EdgeFormat::Unweighted).unwrap();
        assert_eq!(bytes.len(), 8);
        let view = VertexEdges::from_raw(&bytes[0..4], EdgeFormat::Unweighted);
        assert_eq!(view.target(0), 2);
    }

    #[test]
    fn encode_weighted_roundtrip() {
        let g = weighted_graph();
        let bytes = encode_edge_region(&g, EdgeFormat::Weighted).unwrap();
        assert_eq!(bytes.len(), 3 * 8);
        let view = VertexEdges::from_raw(&bytes[8..16], EdgeFormat::Weighted);
        assert_eq!(view.target(0), 2);
        assert_eq!(view.weight(0), Some(2.0));
    }

    #[test]
    fn encode_alias_roundtrip_matches_mem_view() {
        let g = weighted_graph();
        let bytes = encode_edge_region(&g, EdgeFormat::WeightedAlias).unwrap();
        assert_eq!(bytes.len(), 3 * 12);
        // Vertex 0 has edges [0, 2) in the flat array.
        let raw = VertexEdges::from_raw(&bytes[0..24], EdgeFormat::WeightedAlias);
        let mem = VertexEdges::from_csr(&g, 0);
        assert_eq!(raw.degree(), mem.degree());
        for i in 0..raw.degree() {
            assert_eq!(raw.target(i), mem.target(i));
            // Raw WeightedAlias records drop the weight; the alias slot is
            // the sampling-relevant payload and must round-trip exactly.
            assert_eq!(raw.weight(i), None);
            assert_eq!(raw.alias_slot(i), mem.alias_slot(i));
        }
    }

    #[test]
    fn append_edges_matches_the_per_edge_loop_and_appends() {
        let g = weighted_graph();
        let unweighted = CsrBuilder::new(3).edge(0, 1).edge(0, 2).edge(1, 0).build();
        let cases = [
            (&unweighted, EdgeFormat::Unweighted),
            (&g, EdgeFormat::Weighted),
            (&g, EdgeFormat::WeightedAlias),
        ];
        for (csr, format) in cases {
            let region = encode_edge_region(csr, format).unwrap();
            let rb = format.record_bytes();
            for v in 0..csr.num_vertices() as VertexId {
                let (s, e) = (csr.offsets()[v as usize], csr.offsets()[v as usize + 1]);
                let raw = &region[s as usize * rb..e as usize * rb];
                for view in [
                    VertexEdges::from_csr(csr, v),
                    VertexEdges::from_raw(raw, format),
                ] {
                    let (mut want_t, mut want_w) = (vec![7], vec![0.5]);
                    for i in 0..view.degree() {
                        want_t.push(view.target(i));
                        want_w.push(view.weight(i).unwrap_or(1.0));
                    }
                    // Prior contents stay; the edges go after them.
                    let (mut t, mut w) = (vec![7], vec![0.5]);
                    view.append_edges(&mut t, Some(&mut w));
                    assert_eq!((&t, &w), (&want_t, &want_w), "{format:?} vertex {v}");
                    let mut t = vec![7];
                    view.append_edges(&mut t, None);
                    assert_eq!(t, want_t, "{format:?} vertex {v}, targets only");
                }
            }
            // A run of consecutive vertices is one span of records: one
            // raw view over it appends exactly what its vertices' raw views
            // append one by one.
            let offsets = csr.offsets();
            let span = |a: VertexId, b: VertexId| {
                let (s, e) = (offsets[a as usize] as usize, offsets[b as usize] as usize);
                VertexEdges::from_raw(&region[s * rb..e * rb], format)
            };
            let n = csr.num_vertices() as VertexId;
            for a in 0..n {
                for b in a..=n {
                    let (mut want_t, mut want_w) = (vec![7], vec![0.5]);
                    for v in a..b {
                        span(v, v + 1).append_edges(&mut want_t, Some(&mut want_w));
                    }
                    let run = span(a, b);
                    let (mut t, mut w) = (vec![7], vec![0.5]);
                    run.append_edges(&mut t, Some(&mut w));
                    assert_eq!((t, w), (want_t, want_w), "{format:?} run {a}..{b}");
                }
            }
        }
    }

    #[test]
    fn contains_target_scans() {
        let g = weighted_graph();
        let view = VertexEdges::from_csr(&g, 0);
        assert!(view.contains_target(1));
        assert!(view.contains_target(2));
        assert!(!view.contains_target(0));
    }

    #[test]
    #[should_panic(expected = "whole number of records")]
    fn raw_view_rejects_partial_records() {
        let bytes = [0u8; 6];
        let _ = VertexEdges::from_raw(&bytes, EdgeFormat::Unweighted);
    }
}
