//! The pre-sampled edge buffers — the center of the decoupled architecture
//! (paper §3.3.2, Fig. 8).
//!
//! One buffer covers one coarse block's worth of consecutive vertices. It is
//! a compact CSR-like structure: an `idx` prefix array gives each vertex's
//! slot range in a flat `edges` array, and a per-vertex `cnt` tracks both
//! consumption *and* stalled visits — so `cnt` doubles as the popularity
//! estimate that drives proportional reallocation at the next refill.
//!
//! Low-degree vertices (§3.3.4) get their *raw edges* retained instead of
//! samples: the slots never deplete, since the full edge set can be sampled
//! from forever.
//!
//! One [`PreSampleBuffer`] serves both consumption modes, because `cnt` is
//! an `AtomicU32` per vertex:
//!
//! * single-owner — [`PreSampleBuffer::peek`] then `&mut`
//!   [`PreSampleBuffer::consume`] (the sequential engine's path; plain
//!   loads and stores, no atomic RMW);
//! * shared — once the buffer sits behind an `Arc`, any number of worker
//!   threads [`PreSampleBuffer::claim`] slots with a single `fetch_add`
//!   and no lock (the parallel runner's path; see DESIGN.md §11 for the
//!   publish/claim protocol).

#![expect(
    clippy::disallowed_types,
    reason = "`cnt` slot cursors and `BlockDemand` tallies are Relaxed RMW counters: a claim's \
              fetch_add hands out a distinct slot, and publication is ordered by the pool mutex"
)]

use noswalker_graph::layout::VertexEdges;
use noswalker_graph::{AliasTable, VertexId};
use noswalker_storage::Reservation;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// What a vertex's pre-sample slots currently offer.
#[derive(Debug, Clone, Copy)]
pub enum Peek<'a> {
    /// A reserved pre-sampled destination, ready to consume.
    Sampled(VertexId),
    /// The vertex's raw retained edges (low-degree retention): sample from
    /// this view, it never depletes.
    Raw(VertexEdges<'a>),
    /// No usable slots: the walker stalls here.
    Empty,
}

/// Per-vertex slot quota plan for one buffer build.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuotaPlan {
    /// Slots per vertex (local index within the block).
    pub quotas: Vec<u32>,
    /// Whether each vertex's slots hold raw edges rather than samples.
    pub raw: Vec<bool>,
    /// Hub-retained vertices: raw retention granted *above* the alias
    /// degree threshold, where the buffer additionally builds a per-vertex
    /// alias table on weighted graphs so sampling stays O(1). Always a
    /// subset of `raw`.
    pub alias: Vec<bool>,
    /// Total slots planned.
    pub total_slots: u64,
}

/// Computes the slot allocation for a buffer rebuild.
///
/// `visit_weights[i]` is the carried `cnt` of local vertex `i` from the
/// previous buffer generation (0 on first build). Vertices with degree 0
/// get nothing; degree ≤ `low_degree_threshold` get raw retention (quota =
/// degree); the rest split `capacity_slots` proportionally to their visit
/// weight (uniformly if no vertex has been visited yet), clamped to
/// `cap_per_vertex`.
///
/// Hub retention: vertices with degree ≥ `alias_degree_threshold` — plus
/// *self-funding* vertices whose visit weight matches or exceeds their
/// degree, for whom retention is no more memory than the sampled slots
/// their traffic would claim — are admitted hottest-first into raw
/// retention too, as long as their whole edge list fits within three
/// quarters of the post-raw slot budget. A retained hub never depletes —
/// the dominant source of per-vertex slot exhaustion on skewed graphs —
/// and on weighted graphs the build step attaches an O(1) alias table
/// (ThunderRW-style), so retention costs no sampling speed.
pub fn plan_quotas(
    degrees: &[u64],
    visit_weights: &[u32],
    capacity_slots: u64,
    low_degree_threshold: u32,
    alias_degree_threshold: u32,
    cap_per_vertex: u32,
) -> QuotaPlan {
    assert_eq!(degrees.len(), visit_weights.len());
    let n = degrees.len();
    let mut quotas = vec![0u32; n];
    let mut raw = vec![false; n];
    let mut alias = vec![false; n];
    let mut raw_slots = 0u64;
    for i in 0..n {
        if degrees[i] > 0 && degrees[i] <= low_degree_threshold as u64 {
            raw[i] = true;
            quotas[i] = degrees[i] as u32;
            raw_slots += degrees[i];
        }
    }
    let mut budget = capacity_slots.saturating_sub(raw_slots);
    // `u32::MAX` is the documented "hub retention off" sentinel: it must
    // disable the self-funding admission too, not just the degree test.
    let mut hubs: Vec<usize> = (0..n)
        .filter(|&i| {
            !raw[i]
                && alias_degree_threshold != u32::MAX
                && degrees[i] > low_degree_threshold as u64
                && (degrees[i] >= alias_degree_threshold as u64
                    // Self-funding: retention costs `degree` slots once and
                    // serves unboundedly; a vertex already claiming at
                    // least that many slots per generation is cheaper
                    // retained than sampled, whatever its degree.
                    || visit_weights[i] as u64 >= degrees[i])
        })
        .collect();
    if !hubs.is_empty() && budget > 0 {
        // Hottest-first admission (degree as the cold-start proxy, local
        // index as the deterministic tie-break), bounded to three quarters
        // of the remaining budget so hub retention cannot fully starve the
        // sampled vertices it shares the buffer with.
        hubs.sort_by_key(|&i| {
            (
                std::cmp::Reverse(visit_weights[i]),
                std::cmp::Reverse(degrees[i]),
                i,
            )
        });
        let mut alias_budget = budget - budget / 4;
        for &i in &hubs {
            if degrees[i] <= alias_budget && degrees[i] <= u32::MAX as u64 {
                alias[i] = true;
                raw[i] = true;
                quotas[i] = degrees[i] as u32;
                alias_budget -= degrees[i];
                budget -= degrees[i];
            }
        }
    }
    let eligible: Vec<usize> = (0..n)
        .filter(|&i| !raw[i] && degrees[i] > low_degree_threshold as u64)
        .collect();
    if !eligible.is_empty() && budget > 0 {
        let sum_w: u64 = eligible.iter().map(|&i| visit_weights[i] as u64).sum();
        if sum_w == 0 {
            // First fill, no visit history yet: weight by degree — the
            // stationary visit probability of a random walk concentrates on
            // high-degree vertices, so they are the best prediction of the
            // future hot region (§3.1: "the distribution of reserved
            // samples can represent our prediction of ... future hot
            // regions").
            let sum_d: u64 = eligible.iter().map(|&i| degrees[i]).sum();
            for &i in &eligible {
                let share = (budget * degrees[i] / sum_d.max(1))
                    .max(1)
                    .min(cap_per_vertex as u64);
                quotas[i] = share as u32;
            }
        } else {
            for &i in &eligible {
                let w = visit_weights[i] as u64;
                if w == 0 {
                    continue;
                }
                let share = (budget * w)
                    .checked_div(sum_w)
                    .unwrap_or(0)
                    .max(1)
                    .min(cap_per_vertex as u64);
                quotas[i] = share as u32;
            }
        }
    }
    let total_slots = quotas.iter().map(|&q| q as u64).sum();
    QuotaPlan {
        quotas,
        raw,
        alias,
        total_slots,
    }
}

/// Per-block demand tally since the last publish, feeding the refill
/// watermark and the demand-weighted budget split.
///
/// Both fields are commutative Relaxed counters folded at refill time (the
/// publish mutex is the barrier), exactly like the buffers' claim counters.
#[derive(Debug, Default)]
pub struct BlockDemand {
    claims: AtomicU64,
    stalls: AtomicU64,
}

impl BlockDemand {
    /// Records `n` sampled-slot claims against this block.
    pub fn note_claims(&self, n: u64) {
        self.claims.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` stalled visits against this block (dry pool or missing
    /// buffer) — stalls weigh into demand just like served claims, so a
    /// starved block's pressure is visible even when it serves nothing.
    pub fn note_stalls(&self, n: u64) {
        self.stalls.fetch_add(n, Ordering::Relaxed);
    }

    /// Slots' worth of demand seen since the last [`BlockDemand::reset`].
    pub fn pressure(&self) -> u64 {
        self.claims.load(Ordering::Relaxed) + self.stalls.load(Ordering::Relaxed)
    }

    /// Zeroes the tally (called when a fresh generation is published) and
    /// returns the pressure it had accumulated.
    pub fn reset(&self) -> u64 {
        self.claims.swap(0, Ordering::Relaxed) + self.stalls.swap(0, Ordering::Relaxed)
    }
}

/// A pre-sampled edge buffer for one block of consecutive vertices.
///
/// The slot arrays (`idx`/`edges`/`weights`/`raw`/`alias`) are frozen at
/// build time; the only mutable state is one `AtomicU32` counter per
/// vertex, which serves three roles at once:
///
/// 1. **slot claim** — `fetch_add(1, Relaxed)` returns a unique previous
///    value per caller (atomic RMW totality), so each sampled slot index
///    `< quota` is handed to exactly one thread, with no lock;
/// 2. **stall recording** — a counter past the quota means the visit found
///    nothing; the tick itself is the stall record (the paper's `cnt`
///    doubling as popularity, §3.3.2), per-vertex and contention-sharded;
/// 3. **refill weights** — [`PreSampleBuffer::visit_weights_snapshot`]
///    reads the counters back as the next [`plan_quotas`] input.
///
/// `Relaxed` ordering suffices throughout: slot exclusivity needs only the
/// RMW's atomicity, and the arrays a claimed index dereferences are frozen
/// before the `Arc<PreSampleBuffer>` is published through the pool slot's
/// mutex, whose release/acquire pair provides the happens-before edge.
#[derive(Debug)]
pub struct PreSampleBuffer {
    vertex_start: VertexId,
    /// Prefix of slot positions: vertex `i`'s slots are
    /// `edges[idx[i] .. idx[i + 1]]`.
    idx: Vec<u32>,
    /// Consumed-or-stalled counter per vertex (the paper's `cnt`), doubling
    /// as the lock-free claim cursor.
    cnt: Vec<AtomicU32>,
    raw: Vec<bool>,
    edges: Vec<VertexId>,
    /// Parallel raw-edge weights (only populated for raw vertices of
    /// weighted graphs).
    weights: Option<Vec<f32>>,
    /// Per-hub alias tables (local vertex index → slot-parallel prob/alias
    /// arrays), built once per generation for weighted alias-retained
    /// vertices so their sampling is O(1).
    alias: BTreeMap<u32, (Vec<f32>, Vec<u32>)>,
    /// RAII hold on the budget bytes covering this buffer, if the owner
    /// charges one; released when the buffer (or the last `Arc` to it)
    /// drops. Never read, only owned.
    reservation: Option<Reservation>,
}

/// A [`PreSampleBuffer`] frozen into a generation of the parallel runner's
/// shared pool (see [`PreSampleBuffer::into_published`]).
pub type PublishedBuffer = PreSampleBuffer;

impl PreSampleBuffer {
    /// Builds a buffer from a quota plan, filling slots through callbacks:
    ///
    /// * `sample` draws one pre-sampled destination for a vertex (called
    ///   `quota` times per non-raw vertex);
    /// * `raw_edges` appends the raw targets (and weights, when `weighted`)
    ///   of a low-degree vertex.
    ///
    /// Returns the buffer plus the number of sample draws performed (the
    /// engine charges compute per draw).
    pub fn build(
        vertex_start: VertexId,
        plan: &QuotaPlan,
        weighted: bool,
        mut sample: impl FnMut(VertexId) -> VertexId,
        mut raw_edges: impl FnMut(VertexId, &mut Vec<VertexId>, Option<&mut Vec<f32>>),
    ) -> (Self, u64) {
        let n = plan.quotas.len();
        let mut idx = Vec::with_capacity(n + 1);
        let mut edges = Vec::with_capacity(plan.total_slots as usize);
        let mut weights = weighted.then(Vec::new);
        let mut alias = BTreeMap::new();
        let mut draws = 0u64;
        idx.push(0u32);
        for i in 0..n {
            let v = vertex_start + i as VertexId;
            if plan.raw[i] {
                let before = edges.len();
                raw_edges(v, &mut edges, weights.as_mut());
                debug_assert_eq!(edges.len() - before, plan.quotas[i] as usize);
                if let Some(w) = &mut weights {
                    w.resize(edges.len(), 1.0);
                    if plan.alias[i] {
                        // Build the hub's alias structure once per
                        // generation; sampling then costs one table lookup
                        // per hop instead of an O(degree) weight scan.
                        let slice = &w[before..edges.len()];
                        if !slice.is_empty() && slice.iter().any(|&x| x > 0.0) {
                            let (prob, idx_of) = AliasTable::new(slice).into_parts();
                            alias.insert(i as u32, (prob, idx_of));
                        }
                    }
                }
            } else {
                for _ in 0..plan.quotas[i] {
                    edges.push(sample(v));
                    draws += 1;
                }
                if let Some(w) = &mut weights {
                    w.resize(edges.len(), 1.0);
                }
            }
            idx.push(edges.len() as u32);
        }
        (
            PreSampleBuffer {
                vertex_start,
                idx,
                cnt: (0..n).map(|_| AtomicU32::new(0)).collect(),
                raw: plan.raw.clone(),
                edges,
                weights,
                alias,
                reservation: None,
            },
            draws,
        )
    }

    /// Attaches the budget reservation covering this buffer.
    pub fn set_reservation(&mut self, r: Reservation) {
        self.reservation = Some(r);
    }

    /// First vertex covered.
    pub fn vertex_start(&self) -> VertexId {
        self.vertex_start
    }

    /// Number of vertices covered.
    pub fn num_vertices(&self) -> usize {
        self.cnt.len()
    }

    /// Actual memory footprint in bytes (slots + metadata).
    ///
    /// A *sampled* slot is 4 B regardless of the graph's edge format —
    /// that size reduction is the whole point of pre-sampling on weighted
    /// graphs (§4.4: "the pre-sampled edges stored in memory are notably
    /// smaller than the entire graph with edge properties"). Raw-retained
    /// slots of weighted graphs pay 4 B extra for their weight, and
    /// alias-retained hub slots pay 8 B more for the alias table's
    /// prob/alias pair.
    pub fn memory_bytes(&self) -> u64 {
        let sampled = self.edges.len() as u64 * 4;
        let raw_weights = if self.weights.is_some() {
            (0..self.cnt.len())
                .filter(|&i| self.raw[i])
                .map(|i| (self.idx[i + 1] - self.idx[i]) as u64 * 4)
                .sum()
        } else {
            0
        };
        let alias_bytes: u64 = self
            .alias
            .values()
            .map(|(p, a)| (p.len() + a.len()) as u64 * 4)
            .sum();
        let meta = (self.idx.len() + self.cnt.len()) as u64 * 4 + self.raw.len() as u64;
        sampled + raw_weights + alias_bytes + meta
    }

    /// Estimated memory for a planned buffer (before building).
    pub fn planned_bytes(plan: &QuotaPlan, weighted: bool) -> u64 {
        let raw_slots: u64 = (0..plan.quotas.len())
            .filter(|&i| plan.raw[i])
            .map(|i| plan.quotas[i] as u64)
            .sum();
        let alias_slots: u64 = (0..plan.quotas.len())
            .filter(|&i| plan.alias[i])
            .map(|i| plan.quotas[i] as u64)
            .sum();
        let extra = if weighted {
            raw_slots * 4 + alias_slots * 8
        } else {
            0
        };
        plan.total_slots * 4 + extra + (plan.quotas.len() as u64) * 9 + 4
    }

    fn local(&self, v: VertexId) -> usize {
        debug_assert!(
            v >= self.vertex_start && ((v - self.vertex_start) as usize) < self.cnt.len(),
            "vertex {v} outside buffer"
        );
        (v - self.vertex_start) as usize
    }

    fn raw_view(&self, i: usize, s: usize, e: usize) -> VertexEdges<'_> {
        VertexEdges::Mem {
            targets: &self.edges[s..e],
            weights: self.weights.as_ref().map(|w| &w[s..e]),
            alias: self
                .alias
                .get(&(i as u32))
                .map(|(p, a)| (p.as_slice(), a.as_slice())),
        }
    }

    /// What's available for vertex `v` right now.
    pub fn peek(&self, v: VertexId) -> Peek<'_> {
        let i = self.local(v);
        let (s, e) = (self.idx[i] as usize, self.idx[i + 1] as usize);
        if self.raw[i] {
            if s == e {
                return Peek::Empty;
            }
            return Peek::Raw(self.raw_view(i, s, e));
        }
        let used = self.cnt[i].load(Ordering::Relaxed) as usize;
        if s + used < e {
            Peek::Sampled(self.edges[s + used])
        } else {
            Peek::Empty
        }
    }

    /// Consumes one slot (after a successful move): bumps `cnt`, which for
    /// sampled vertices pops the slot and for raw vertices just records the
    /// visit.
    pub fn consume(&mut self, v: VertexId) {
        let i = self.local(v);
        let cnt = self.cnt[i].get_mut();
        *cnt = cnt.saturating_add(1);
    }

    /// Records a stalled visit at `v` (pre-samples exhausted): bumps `cnt`
    /// so the next refill allocates this vertex more slots (§3.3.2).
    pub fn record_stall(&mut self, v: VertexId) {
        self.consume(v);
    }

    /// Snapshot of the visit counters, fed to [`plan_quotas`] at refill
    /// time (concurrent claims may still be ticking; any torn-across-
    /// vertices view is fine — the weights are a popularity heuristic).
    pub fn visit_weights_snapshot(&self) -> Vec<u32> {
        self.cnt.iter().map(|c| c.load(Ordering::Relaxed)).collect()
    }

    /// Total sampled slot capacity (raw slots excluded).
    pub fn sampled_capacity(&self) -> u64 {
        (0..self.cnt.len())
            .filter(|&i| !self.raw[i])
            .map(|i| (self.idx[i + 1] - self.idx[i]) as u64)
            .sum()
    }

    /// Remaining unconsumed sampled slots (raw slots excluded — they never
    /// deplete; a counter driven past its quota by stall ticks counts as
    /// zero remaining).
    pub fn remaining_sampled(&self) -> u64 {
        (0..self.cnt.len())
            .filter(|&i| !self.raw[i])
            .map(|i| {
                let quota = self.idx[i + 1] - self.idx[i];
                quota.saturating_sub(self.cnt[i].load(Ordering::Relaxed)) as u64
            })
            .sum()
    }

    /// Hands the buffer to the lock-free pool as one generation: the same
    /// value, consumption state included — wrap it in an `Arc` and workers
    /// [`claim`](PreSampleBuffer::claim) where the owner used to `consume`.
    pub fn into_published(self) -> PublishedBuffer {
        self
    }

    /// Claims one slot for vertex `v` — the entire lock-free step path.
    ///
    /// One `fetch_add` per visit, success or stall: a sampled counter value
    /// below the quota owns that slot, anything else *is* the recorded
    /// stall; raw vertices only tick the visit counter and never deplete.
    /// (Counter wrap-around would need 2³² visits to a single vertex within
    /// one buffer generation — unreachable between refills.)
    pub fn claim(&self, v: VertexId) -> Claim<'_> {
        let i = self.local(v);
        let (s, e) = (self.idx[i] as usize, self.idx[i + 1] as usize);
        let prev = self.cnt[i].fetch_add(1, Ordering::Relaxed) as usize;
        if self.raw[i] {
            if s == e {
                return Claim::Stalled;
            }
            return Claim::Raw(self.raw_view(i, s, e));
        }
        if s + prev < e {
            Claim::Sampled(self.edges[s + prev])
        } else {
            Claim::Stalled
        }
    }

    /// Claims up to `n` slots for vertex `v` in one atomic RMW — the
    /// batched variant of [`PreSampleBuffer::claim`] that amortizes the
    /// `fetch_add` across several hops at a hot vertex.
    ///
    /// The counter still means "visits": a batch that served `k` slots nets
    /// the counter `+k`, and a fully-stalled batch nets `+1` (one stall
    /// tick), by subtracting the overshoot right back. The transient
    /// overshoot between the add and the sub can only make concurrent
    /// claimers see *fewer* remaining slots, never hand a slot out twice —
    /// the counter never drops below the next-unserved index.
    pub fn claim_batch(&self, v: VertexId, n: u32) -> BatchClaim<'_> {
        let i = self.local(v);
        let (s, e) = (self.idx[i] as usize, self.idx[i + 1] as usize);
        if self.raw[i] {
            self.cnt[i].fetch_add(1, Ordering::Relaxed);
            if s == e {
                return BatchClaim::Stalled;
            }
            return BatchClaim::Raw(self.raw_view(i, s, e));
        }
        let n = n.max(1);
        let prev = self.cnt[i].fetch_add(n, Ordering::Relaxed) as usize;
        let quota = e - s;
        if prev >= quota {
            self.cnt[i].fetch_sub(n - 1, Ordering::Relaxed);
            return BatchClaim::Stalled;
        }
        let k = (quota - prev).min(n as usize);
        if k < n as usize {
            self.cnt[i].fetch_sub(n - k as u32, Ordering::Relaxed);
        }
        BatchClaim::Sampled(&self.edges[s + prev..s + prev + k])
    }
}

/// What a lock-free [`PreSampleBuffer::claim`] produced.
///
/// The mirror of [`Peek`], except that a successful `Sampled` claim has
/// *already* taken exclusive ownership of the slot — there is no separate
/// consume step to race on.
#[derive(Debug)]
pub enum Claim<'a> {
    /// A pre-sampled destination this caller now exclusively owns.
    Sampled(VertexId),
    /// The vertex's raw retained edges: sample freely, they never deplete.
    Raw(VertexEdges<'a>),
    /// No usable slots: the walker stalls here (the visit was still
    /// recorded, feeding the next refill's quota plan).
    Stalled,
}

/// What a batched [`PreSampleBuffer::claim_batch`] produced.
#[derive(Debug)]
pub enum BatchClaim<'a> {
    /// `1..=n` contiguous pre-sampled destinations this caller now
    /// exclusively owns. Unspent entries must be accounted by the caller
    /// (consumed later or reported as `claims_burned`).
    Sampled(&'a [VertexId]),
    /// The vertex's raw retained edges: sample freely, they never deplete.
    Raw(VertexEdges<'a>),
    /// No usable slots: the whole batch stalls (recorded as one visit).
    Stalled,
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::walk::{alias_sample, WalkRng};
    use rand::SeedableRng;

    fn simple_plan() -> QuotaPlan {
        // 4 vertices: deg 0, deg 2 (raw), deg 10, deg 20
        plan_quotas(&[0, 2, 10, 20], &[0, 0, 0, 0], 12, 2, u32::MAX, 64)
    }

    #[test]
    fn plan_respects_degree_classes() {
        let p = simple_plan();
        assert_eq!(p.quotas[0], 0);
        assert!(p.raw[1]);
        assert_eq!(p.quotas[1], 2);
        assert!(!p.raw[2] && !p.raw[3]);
        // First fill: the (12 - 2) = 10 budget splits by degree (10 vs 20).
        assert_eq!(p.quotas[2], 3);
        assert_eq!(p.quotas[3], 6);
    }

    #[test]
    fn plan_weights_proportionally_after_visits() {
        let p = plan_quotas(&[10, 10], &[30, 10], 40, 0, u32::MAX, 64);
        assert_eq!(p.quotas[0], 30);
        assert_eq!(p.quotas[1], 10);
    }

    #[test]
    fn plan_unvisited_vertices_get_nothing_once_weights_exist() {
        let p = plan_quotas(&[10, 10, 10], &[8, 0, 2], 100, 0, u32::MAX, 64);
        assert!(p.quotas[0] > p.quotas[2]);
        assert_eq!(p.quotas[1], 0);
    }

    #[test]
    fn plan_caps_per_vertex() {
        let p = plan_quotas(&[100], &[50], 1000, 0, u32::MAX, 16);
        assert_eq!(p.quotas[0], 16);
    }

    #[test]
    fn plan_visited_vertex_gets_at_least_one_slot() {
        // Vertex 1 has tiny weight; proportional share rounds to 0 but it
        // must still receive one slot.
        let p = plan_quotas(&[10, 10], &[1000, 1], 10, 0, u32::MAX, 64);
        assert!(p.quotas[1] >= 1);
    }

    fn build_simple() -> PreSampleBuffer {
        let plan = simple_plan();
        let mut next = 100u32;
        let (buf, draws) = PreSampleBuffer::build(
            0,
            &plan,
            false,
            |_v| {
                next += 1;
                next
            },
            |_v, edges, _w| {
                edges.push(7);
                edges.push(8);
            },
        );
        assert_eq!(draws, 9);
        buf
    }

    #[test]
    fn consume_pops_in_order_then_empties() {
        let mut buf = build_simple();
        // Vertex 2 has 3 sampled slots: 101..=103.
        for expect in 101..=103u32 {
            match buf.peek(2) {
                Peek::Sampled(d) => assert_eq!(d, expect),
                other => panic!("expected sampled, got {other:?}"),
            }
            buf.consume(2);
        }
        assert!(matches!(buf.peek(2), Peek::Empty));
        buf.record_stall(2);
        assert_eq!(buf.visit_weights_snapshot()[2], 4);
    }

    #[test]
    fn raw_vertex_never_depletes() {
        let mut buf = build_simple();
        for _ in 0..10 {
            match buf.peek(1) {
                Peek::Raw(view) => {
                    assert_eq!(view.degree(), 2);
                    assert_eq!(view.target(0), 7);
                }
                other => panic!("expected raw, got {other:?}"),
            }
            buf.consume(1);
        }
        assert_eq!(buf.visit_weights_snapshot()[1], 10);
    }

    #[test]
    fn zero_degree_vertex_is_empty() {
        let buf = build_simple();
        assert!(matches!(buf.peek(0), Peek::Empty));
    }

    #[test]
    fn remaining_sampled_counts_only_samples() {
        let mut buf = build_simple();
        assert_eq!(buf.remaining_sampled(), 9);
        assert_eq!(buf.sampled_capacity(), 9);
        buf.consume(2);
        buf.consume(1); // raw consume: no effect on remaining
        assert_eq!(buf.remaining_sampled(), 8);
        assert_eq!(buf.sampled_capacity(), 9);
    }

    #[test]
    fn memory_bytes_counts_slots_and_meta() {
        let buf = build_simple();
        // 11 slots * 4 + (5 + 4) * 4 + 4 raw flags
        assert_eq!(buf.memory_bytes(), 44 + 36 + 4);
        let plan = simple_plan();
        assert!(PreSampleBuffer::planned_bytes(&plan, false) >= buf.memory_bytes());
    }

    #[test]
    fn published_claim_pops_in_order_then_stalls() {
        let buf = build_simple().into_published();
        // Vertex 2 has 3 sampled slots: 101..=103, claimed exactly once.
        for expect in 101..=103u32 {
            match buf.claim(2) {
                Claim::Sampled(d) => assert_eq!(d, expect),
                other => panic!("expected sampled, got {other:?}"),
            }
        }
        assert!(matches!(buf.claim(2), Claim::Stalled));
        // Both the claims and the stall ticked the visit counter.
        assert_eq!(buf.visit_weights_snapshot()[2], 4);
    }

    #[test]
    fn published_raw_vertex_never_depletes() {
        let buf = build_simple().into_published();
        for _ in 0..10 {
            match buf.claim(1) {
                Claim::Raw(view) => {
                    assert_eq!(view.degree(), 2);
                    assert_eq!(view.target(0), 7);
                }
                other => panic!("expected raw, got {other:?}"),
            }
        }
        assert_eq!(buf.visit_weights_snapshot()[1], 10);
        // Raw claims leave the sampled accounting untouched.
        assert_eq!(buf.remaining_sampled(), 9);
    }

    #[test]
    fn published_zero_degree_vertex_stalls() {
        let buf = build_simple().into_published();
        assert!(matches!(buf.claim(0), Claim::Stalled));
    }

    #[test]
    fn into_published_carries_consumption_state() {
        let mut buf = build_simple();
        buf.consume(2); // slot 101 gone
        buf.record_stall(3);
        let mem = buf.memory_bytes();
        let published = buf.into_published();
        assert_eq!(published.memory_bytes(), mem);
        assert_eq!(published.sampled_capacity(), 9);
        // One slot consumed on vertex 2 plus one stall tick on vertex 3:
        // both advance the carried counters, same as `PreSampleBuffer`.
        assert_eq!(published.remaining_sampled(), 7);
        match published.claim(2) {
            Claim::Sampled(d) => assert_eq!(d, 102),
            other => panic!("expected sampled, got {other:?}"),
        }
        assert_eq!(published.visit_weights_snapshot()[3], 1);
        assert_eq!(published.vertex_start(), 0);
        assert_eq!(published.num_vertices(), 4);
    }

    #[test]
    fn weighted_raw_edges_keep_weights() {
        let plan = plan_quotas(&[2], &[0], 10, 2, u32::MAX, 8);
        let (buf, _) = PreSampleBuffer::build(
            0,
            &plan,
            true,
            |_v| 0,
            |_v, edges, weights| {
                edges.push(5);
                edges.push(6);
                let w = weights.expect("weighted build passes weight vec");
                w.push(2.0);
                w.push(3.0);
            },
        );
        match buf.peek(0) {
            Peek::Raw(view) => {
                assert_eq!(view.weight(0), Some(2.0));
                assert_eq!(view.weight(1), Some(3.0));
            }
            other => panic!("expected raw, got {other:?}"),
        }
    }

    #[test]
    fn plan_admits_hubs_hottest_first_greedy_with_skip() {
        // Three hubs (deg 40, 30, 10) over threshold 10, capacity 80:
        // alias budget = 60. Hottest-first by degree admits 40 (20 left),
        // skips 30 (does not fit), then still admits 10 — greedy with
        // skip, not first-fit-then-stop.
        let p = plan_quotas(&[40, 30, 10, 5], &[0, 0, 0, 0], 80, 2, 10, 8);
        assert!(p.alias[0] && p.raw[0]);
        assert_eq!(p.quotas[0], 40);
        assert!(!p.alias[1] && !p.raw[1]);
        assert!(p.alias[2] && p.raw[2]);
        assert_eq!(p.quotas[2], 10);
        // The rejected hub and the mid-degree vertex fall back to capped
        // sampled quotas from the remaining budget.
        assert!(p.quotas[1] >= 1 && p.quotas[1] <= 8);
        assert!(!p.alias[3]);
        assert!(p.total_slots <= 80);
    }

    #[test]
    fn plan_admits_self_funding_hot_vertices_below_threshold() {
        // Degree-8 vertices far below the degree threshold (1000):
        // vertex 0's visit weight (8) covers its retention cost, so it is
        // admitted raw and never depletes; vertex 1's traffic (2) does not
        // pay for retention and stays on capped sampled slots.
        let p = plan_quotas(&[8, 8], &[8, 2], 100, 2, 1000, 8);
        assert!(p.raw[0] && p.alias[0]);
        assert_eq!(p.quotas[0], 8);
        assert!(!p.raw[1] && !p.alias[1]);
        assert!(p.quotas[1] >= 1 && p.quotas[1] <= 8);
    }

    #[test]
    fn plan_alias_threshold_disabled_matches_old_behavior() {
        let with = plan_quotas(&[0, 2, 10, 20], &[0; 4], 12, 2, u32::MAX, 64);
        assert!(with.alias.iter().all(|&a| !a));
        assert_eq!(with, simple_plan());
    }

    #[test]
    fn plan_alias_admission_prefers_visited_hubs() {
        // Same degree, alias budget 30 fits only one hub — vertex 1 has
        // visit history, so it is admitted first.
        let p = plan_quotas(&[30, 30], &[0, 5], 40, 0, 10, 8);
        assert!(!p.alias[0]);
        assert!(p.alias[1]);
    }

    #[test]
    fn batch_claim_hands_each_slot_once_and_nets_visit_ticks() {
        let buf = build_simple().into_published();
        // Vertex 3 has 6 sampled slots (104..=109); batches of 4.
        let BatchClaim::Sampled(first) = buf.claim_batch(3, 4) else {
            panic!("expected sampled batch");
        };
        assert_eq!(first, &[104, 105, 106, 107]);
        // Second batch is truncated to the 2 remaining slots, and the
        // cursor nets back down to served-count.
        let BatchClaim::Sampled(rest) = buf.claim_batch(3, 4) else {
            panic!("expected sampled batch");
        };
        assert_eq!(rest, &[108, 109]);
        assert_eq!(buf.remaining_sampled(), 3); // vertex 2's slots remain
        assert_eq!(buf.visit_weights_snapshot()[3], 6);
        // Depleted: one stall tick, not n.
        assert!(matches!(buf.claim_batch(3, 4), BatchClaim::Stalled));
        assert_eq!(buf.visit_weights_snapshot()[3], 7);
    }

    #[test]
    fn batch_claim_raw_vertex_ticks_once_per_visit() {
        let buf = build_simple().into_published();
        for _ in 0..3 {
            match buf.claim_batch(1, 4) {
                BatchClaim::Raw(view) => assert_eq!(view.degree(), 2),
                other => panic!("expected raw, got {other:?}"),
            }
        }
        assert_eq!(buf.visit_weights_snapshot()[1], 3);
        assert!(matches!(buf.claim_batch(0, 4), BatchClaim::Stalled));
    }

    #[test]
    fn block_demand_accumulates_and_resets() {
        let d = BlockDemand::default();
        assert_eq!(d.pressure(), 0);
        d.note_claims(5);
        d.note_stalls(3);
        assert_eq!(d.pressure(), 8);
        assert_eq!(d.reset(), 8);
        assert_eq!(d.pressure(), 0);
    }

    /// Chi-square goodness-of-fit: alias-table sampling on a retained hub
    /// must reproduce the exact edge-weight distribution (seeded,
    /// deterministic).
    #[test]
    fn alias_hub_sampling_matches_edge_weights_chi_square() {
        let weights_in = [1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
        let plan = plan_quotas(&[8], &[0], 64, 0, 4, 32);
        assert!(plan.alias[0] && plan.raw[0]);
        let (buf, draws) = PreSampleBuffer::build(
            0,
            &plan,
            true,
            |_v| 0,
            |_v, edges, weights| {
                for t in 0..8u32 {
                    edges.push(100 + t);
                }
                let w = weights.expect("weighted build passes weight vec");
                w.extend_from_slice(&weights_in);
            },
        );
        assert_eq!(draws, 0, "retained hub costs no sample draws");
        let published = buf.into_published();
        let Claim::Raw(view) = published.claim(0) else {
            panic!("expected raw hub view");
        };
        assert!(view.alias_slot(0).is_some(), "alias seam must be filled");
        const N: u64 = 80_000;
        let mut rng = WalkRng::seed_from_u64(42);
        let mut counts = [0u64; 8];
        for _ in 0..N {
            let d = alias_sample(&view, &mut rng);
            counts[(d - 100) as usize] += 1;
        }
        let total_w: f64 = weights_in.iter().map(|&w| w as f64).sum();
        let mut chi = 0.0;
        for (t, &c) in counts.iter().enumerate() {
            let expected = N as f64 * weights_in[t] as f64 / total_w;
            chi += (c as f64 - expected).powi(2) / expected;
        }
        // 7 degrees of freedom, p = 0.001 critical value.
        assert!(chi < 24.32, "chi-square statistic too large: {chi}");
    }

    #[test]
    fn alias_memory_accounting_covers_tables() {
        let plan = plan_quotas(&[8], &[0], 64, 0, 4, 32);
        let (buf, _) = PreSampleBuffer::build(
            0,
            &plan,
            true,
            |_v| 0,
            |_v, edges, weights| {
                for t in 0..8u32 {
                    edges.push(t);
                }
                let w = weights.expect("weighted build passes weight vec");
                w.extend_from_slice(&[1.0; 8]);
            },
        );
        // 8 slots*4 + 8 raw weights*4 + 8 alias pairs*8 + meta.
        let mem = buf.memory_bytes();
        assert_eq!(mem, 32 + 32 + 64 + (2 + 1) * 4 + 1);
        assert!(PreSampleBuffer::planned_bytes(&plan, true) >= mem);
        assert_eq!(buf.into_published().memory_bytes(), mem);
    }
}
