//! Multiplexing many live queries into one engine run.
//!
//! Each serving round, the engine snapshots its active queries into a
//! [`QueryTable`] and wraps them in a [`RoundApp`] — a single
//! [`Walk`] application whose walkers carry the index of the query they
//! belong to. Deadline enforcement is embedded in the walk itself: every
//! step decrements the owning query's modeled step allowance, and when it
//! runs out the query's `cancelled` flag flips, its walkers stop being
//! active, and the engine retires them through the cancellation path
//! ([`Walk::is_cancelled`]) so the walker-completion audit law stays
//! balanced.

#![expect(clippy::disallowed_types, reason = "Relaxed tallies, read after join")]

use noswalker_core::apps_prelude::*;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The application a query binds its walkers to.
///
/// All bindings are first-order (paper property (a)), so their samples can
/// be served from pre-sample buffers; second-order queries (node2vec) need
/// the rejection-sampling run loop and are out of the serving layer's
/// scope (see DESIGN.md §12).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QueryClass {
    /// Plain fixed-length walks from vertices `k mod |V|`.
    Basic,
    /// Personalized PageRank: every walker starts at `source`.
    Ppr {
        /// The PPR query source vertex.
        source: VertexId,
    },
    /// Random walk with restart: like PPR but each step teleports back to
    /// `source` with probability `restart`.
    Rwr {
        /// The restart anchor vertex.
        source: VertexId,
        /// Per-step teleport probability.
        restart: f32,
    },
    /// DeepWalk corpus slice: walker `k` starts at vertex `start + k`.
    DeepWalk {
        /// First vertex of the slice.
        start: VertexId,
    },
}

impl QueryClass {
    /// Parses a class spec: `basic`, `ppr:<src>`, `rwr:<src>:<restart>`,
    /// `deepwalk:<start>`.
    pub fn parse(spec: &str) -> Option<QueryClass> {
        let mut parts = spec.split(':');
        let head = parts.next()?;
        let class = match head {
            "basic" => QueryClass::Basic,
            "ppr" => QueryClass::Ppr {
                source: parts.next()?.parse().ok()?,
            },
            "rwr" => QueryClass::Rwr {
                source: parts.next()?.parse().ok()?,
                restart: match parts.next() {
                    Some(r) => r.parse().ok().filter(|r| (0.0..=1.0).contains(r))?,
                    None => 0.15,
                },
            },
            "deepwalk" => QueryClass::DeepWalk {
                start: parts.next()?.parse().ok()?,
            },
            _ => return None,
        };
        if parts.next().is_some() {
            return None;
        }
        Some(class)
    }

    /// The histogram/reporting class name.
    pub fn name(&self) -> &'static str {
        match self {
            QueryClass::Basic => "basic",
            QueryClass::Ppr { .. } => "ppr",
            QueryClass::Rwr { .. } => "rwr",
            QueryClass::DeepWalk { .. } => "deepwalk",
        }
    }

    /// Start vertex of the query's `k`-th walker on a graph of
    /// `num_vertices` vertices.
    pub fn start_vertex(&self, k: u64, num_vertices: u32) -> VertexId {
        let nv = num_vertices.max(1);
        match self {
            QueryClass::Basic => (k % nv as u64) as VertexId,
            QueryClass::Ppr { source } => source % nv,
            QueryClass::Rwr { source, .. } => source % nv,
            QueryClass::DeepWalk { start } => ((*start as u64 + k) % nv as u64) as VertexId,
        }
    }
}

/// One splitmix64 draw, advancing `state` in place. The serving layer's
/// walkers each carry a private stream of these, so a walker's trajectory
/// is a pure function of its own seed — identical on every step kernel,
/// which is what makes cross-backend replay digests bit-identical.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform f32 in `[0, 1)` from one stream draw.
fn u01(x: u64) -> f32 {
    (x >> 40) as f32 / (1u64 << 24) as f32
}

/// The per-query stream seed: derived from the serving engine's base seed
/// and the query id only — never from round state — so a query spanning
/// several rounds (or carved differently by another backend's quota) still
/// hands each of its walkers the same private stream. Public so the
/// sharded serve plane seeds queries identically to [`crate::ServeEngine`]
/// (the N=1 parity contract).
pub fn query_stream_seed(base: u64, query: u64) -> u64 {
    let mut s = base ^ query.wrapping_mul(0xA24B_AED4_963E_E407);
    splitmix64(&mut s)
}

/// Walker `k`'s private stream seed within its query's stream. Public for
/// the same reason as [`query_stream_seed`].
pub fn walker_stream_seed(query_seed: u64, k: u64) -> u64 {
    let mut s = query_seed ^ k.wrapping_mul(0x9E6C_63D0_876A_8AD1);
    splitmix64(&mut s)
}

/// Per-round, per-query shared state read and written by walker callbacks.
///
/// Callbacks take `&self`, so the mutable pieces are atomics; under the
/// sequential engine they are plain interior mutability and every round is
/// deterministic.
///
/// Every access here is `Ordering::Relaxed`: each atomic is a commutative
/// per-query tally (step counts, walker completions, the xor/add digest
/// mix) or a monotonic cancel latch, never a publication handshake. The
/// round barrier in the serving loop joins all steppers before any slot is
/// folded into query results, so that join — not the atomics — provides
/// the happens-before edge readers rely on; ordering inside the round
/// genuinely does not matter.
#[derive(Debug)]
struct Slot {
    class: QueryClass,
    length: u32,
    /// Modeled steps the query may take this round before its deadline
    /// passes (`None` = no deadline).
    allowance: Option<u64>,
    /// The owning query's private RNG stream seed (see
    /// [`query_stream_seed`]).
    walker_seed: u64,
    steps_taken: AtomicU64,
    cancel_flag: AtomicBool,
    completed_walkers: AtomicU64,
    cancelled_walkers: AtomicU64,
    /// Walkers parked at a vertex outside the round's owned shard range:
    /// retired through the engine's cancellation path here, then handed
    /// off to the owning shard (sharded serving only).
    emigrated_walkers: AtomicU64,
    digest: AtomicU64,
}

/// The active-query table for one serving round.
#[derive(Debug, Default)]
pub struct QueryTable {
    slots: Vec<Slot>,
    /// Cancel flags raised so far ([`Walk::cancel_epoch`]): tells the
    /// sequential engine that walkers it parked may have gone inactive.
    cancel_epoch: AtomicU64,
}

fn mix(v: VertexId) -> u64 {
    (v as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

impl QueryTable {
    /// Builds the table; one entry per active query:
    /// `(class, walk_length, step_allowance, walker_stream_seed)`.
    pub fn new(entries: Vec<(QueryClass, u32, Option<u64>, u64)>) -> Self {
        QueryTable {
            slots: entries
                .into_iter()
                .map(|(class, length, allowance, walker_seed)| Slot {
                    class,
                    length,
                    allowance,
                    walker_seed,
                    steps_taken: AtomicU64::new(0),
                    cancel_flag: AtomicBool::new(false),
                    completed_walkers: AtomicU64::new(0),
                    cancelled_walkers: AtomicU64::new(0),
                    emigrated_walkers: AtomicU64::new(0),
                    digest: AtomicU64::new(0),
                })
                .collect(),
            cancel_epoch: AtomicU64::new(0),
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when the table has no slots.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Whether `slot`'s query has been cancelled (deadline allowance
    /// exhausted).
    pub fn is_cancelled(&self, slot: u32) -> bool {
        self.slots[slot as usize]
            .cancel_flag
            .load(Ordering::Relaxed)
    }

    /// Walkers of `slot` retired as completed this round.
    pub fn completed_walkers(&self, slot: u32) -> u64 {
        self.slots[slot as usize]
            .completed_walkers
            .load(Ordering::Relaxed)
    }

    /// Walkers of `slot` retired as cancelled this round.
    pub fn cancelled_walkers(&self, slot: u32) -> u64 {
        self.slots[slot as usize]
            .cancelled_walkers
            .load(Ordering::Relaxed)
    }

    /// Walkers of `slot` parked for cross-shard handoff this round
    /// (counted as neither completed nor cancelled at the query level —
    /// they resume on their destination shard next round).
    pub fn emigrated_walkers(&self, slot: u32) -> u64 {
        self.slots[slot as usize]
            .emigrated_walkers
            .load(Ordering::Relaxed)
    }

    /// Pre-cancels `slot` before the round runs: its walkers retire
    /// through the cancellation path on first contact. The sharded plane
    /// uses this to drain handed-off walkers of a query whose deadline
    /// already fired (the query stays active until every in-flight walker
    /// is accounted for, keeping the query-conservation law balanced).
    pub fn cancel(&self, slot: u32) {
        if !self.slots[slot as usize]
            .cancel_flag
            .swap(true, Ordering::Relaxed)
        {
            self.cancel_epoch.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Steps taken by `slot`'s walkers this round.
    pub fn steps_taken(&self, slot: u32) -> u64 {
        self.slots[slot as usize]
            .steps_taken
            .load(Ordering::Relaxed)
    }

    /// Order-independent digest of the vertices `slot`'s walkers visited
    /// this round (wrapping sum of per-visit hashes) — the query's
    /// deterministic "result".
    pub fn digest(&self, slot: u32) -> u64 {
        self.slots[slot as usize].digest.load(Ordering::Relaxed)
    }
}

/// One walker of one multiplexed query.
#[derive(Debug, Clone)]
pub struct ServeWalker {
    /// Current vertex.
    pub at: VertexId,
    /// Steps taken by this walker.
    pub step: u32,
    /// Index of the owning query's slot in the round's [`QueryTable`].
    pub slot: u32,
    /// Private splitmix64 stream state: every random decision this walker
    /// makes (destination draws, RWR teleports) comes from here, so its
    /// trajectory does not depend on which step kernel moves it.
    pub rng: u64,
}

struct Chunk {
    slot: u32,
    /// The owning query's walker index of this chunk's first walker
    /// (queries spanning several rounds keep a stable start-vertex
    /// sequence).
    base: u64,
    count: u64,
}

/// One serving round's walk application: the union of every active query's
/// walker chunk, multiplexed into the engine's single bounded pool.
///
/// Under sharded serving ([`RoundApp::sharded`]) the app additionally owns
/// a contiguous vertex range: walkers whose current vertex falls outside
/// it go inactive, retire through the engine's cancellation path (keeping
/// the per-round walker-completion law balanced), and are parked in the
/// emigrant list for the plane to hand off; walkers handed off *to* this
/// shard in a previous round are injected ahead of the fresh chunks with
/// their full state (vertex, step count, private RNG stream) intact, so a
/// walker's trajectory is identical whether or not it ever crossed a
/// boundary.
pub struct RoundApp {
    table: Arc<QueryTable>,
    chunks: Vec<Chunk>,
    /// `prefix[i]` = total walkers in chunks `0..i`.
    prefix: Vec<u64>,
    total: u64,
    num_vertices: u32,
    /// Vertices this round's shard owns; walkers outside it emigrate.
    /// The unsharded engine owns everything (`0..num_vertices`).
    owned: Range<u32>,
    /// Walkers resuming after a cross-shard handoff, occupying generation
    /// indices `0..resumed.len()` ahead of the chunk walkers.
    resumed: Vec<ServeWalker>,
    /// Walkers parked mid-walk at a foreign vertex this round, in
    /// retirement order (the plane sorts them on a deterministic key
    /// before re-admission, so parallel retirement order never leaks).
    emigrants: Mutex<Vec<ServeWalker>>,
}

impl std::fmt::Debug for RoundApp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RoundApp")
            .field("queries", &self.chunks.len())
            .field("total_walkers", &self.total)
            .finish()
    }
}

impl RoundApp {
    /// Builds the round application. `chunks` lists, per active query,
    /// `(slot, base_walker_index, walker_count)`; zero-count chunks are
    /// dropped.
    pub fn new(table: Arc<QueryTable>, chunks: Vec<(u32, u64, u64)>, num_vertices: u32) -> Self {
        Self::sharded(table, chunks, num_vertices, 0..num_vertices, Vec::new())
    }

    /// Builds a shard's round application: like [`RoundApp::new`] but the
    /// app owns only `owned` of the vertex space and starts with `resumed`
    /// walkers handed off from other shards in earlier rounds.
    pub fn sharded(
        table: Arc<QueryTable>,
        chunks: Vec<(u32, u64, u64)>,
        num_vertices: u32,
        owned: Range<u32>,
        resumed: Vec<ServeWalker>,
    ) -> Self {
        let chunks: Vec<Chunk> = chunks
            .into_iter()
            .filter(|&(_, _, count)| count > 0)
            .map(|(slot, base, count)| Chunk { slot, base, count })
            .collect();
        let mut prefix = Vec::with_capacity(chunks.len());
        let mut total = resumed.len() as u64;
        for c in &chunks {
            prefix.push(total);
            total += c.count;
        }
        RoundApp {
            table,
            chunks,
            prefix,
            total,
            num_vertices,
            owned,
            resumed,
            emigrants: Mutex::new(Vec::new()),
        }
    }

    /// Drains the walkers parked for cross-shard handoff this round.
    pub fn take_emigrants(&self) -> Vec<ServeWalker> {
        std::mem::take(&mut *self.emigrants.lock().expect("emigrant list poisoned"))
    }

    fn owns(&self, v: VertexId) -> bool {
        self.owned.contains(&v)
    }

    fn slot_of(&self, n: u64) -> (&Chunk, u64) {
        let i = self.prefix.partition_point(|&p| p <= n) - 1;
        let c = &self.chunks[i];
        (c, n - self.prefix[i])
    }

    fn slot(&self, w: &ServeWalker) -> &Slot {
        &self.table.slots[w.slot as usize]
    }
}

impl Walk for RoundApp {
    type Walker = ServeWalker;

    fn total_walkers(&self) -> u64 {
        self.total
    }

    fn generate(&self, n: u64, _rng: &mut WalkRng) -> ServeWalker {
        if let Some(w) = self.resumed.get(n as usize) {
            // A handed-off walker resumes exactly where it parked: same
            // vertex, same step count, same private stream state.
            return w.clone();
        }
        let (chunk, k) = self.slot_of(n);
        let s = &self.table.slots[chunk.slot as usize];
        ServeWalker {
            at: s.class.start_vertex(chunk.base + k, self.num_vertices),
            step: 0,
            slot: chunk.slot,
            // Seeded by the query's global walker index, not the round's,
            // so chunking a query differently (other backend, other quota)
            // never changes any walker's stream.
            rng: walker_stream_seed(s.walker_seed, chunk.base + k),
        }
    }

    fn location(&self, w: &ServeWalker) -> VertexId {
        w.at
    }

    fn is_active(&self, w: &ServeWalker) -> bool {
        let s = self.slot(w);
        w.step < s.length && !s.cancel_flag.load(Ordering::Relaxed) && self.owns(w.at)
    }

    fn sample(&self, v: &VertexEdges<'_>, rng: &mut WalkRng) -> VertexId {
        uniform_sample(v, rng)
    }

    fn sample_for(&self, w: &mut ServeWalker, v: &VertexEdges<'_>, _rng: &mut WalkRng) -> VertexId {
        // Engine-independent movement: the destination comes from the
        // walker's own stream, never the engine's RNG, so every step
        // kernel walks this walker along the same trajectory.
        let d = v.degree() as u64;
        debug_assert!(d > 0, "engines never sample an empty vertex");
        v.target((splitmix64(&mut w.rng) % d.max(1)) as usize)
    }

    fn action(&self, w: &mut ServeWalker, next: VertexId, _rng: &mut WalkRng) -> bool {
        let s = self.slot(w);
        let taken = s.steps_taken.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(allow) = s.allowance {
            if taken > allow {
                // The query's modeled time budget ran out mid-round: stop
                // every remaining walker of this query (they retire as
                // cancelled) and keep what was computed as the partial,
                // degraded result.
                self.table.cancel(w.slot);
            }
        }
        w.at = match s.class {
            QueryClass::Rwr { source, restart } if u01(splitmix64(&mut w.rng)) < restart => {
                source % self.num_vertices.max(1)
            }
            _ => next,
        };
        w.step += 1;
        s.digest.fetch_add(mix(w.at), Ordering::Relaxed);
        true
    }

    fn on_terminate(&self, w: &ServeWalker) {
        let s = self.slot(w);
        // Same predicate as `is_cancelled`: a walker that already took all
        // its steps finished naturally even if its query got cancelled in
        // the same round; dead-end retirements also count as completed. A
        // mid-walk walker parked at a foreign vertex is an emigrant: it is
        // neither completed nor cancelled at the query level — the plane
        // hands it to the owning shard, where it resumes next round.
        if s.cancel_flag.load(Ordering::Relaxed) && w.step < s.length {
            s.cancelled_walkers.fetch_add(1, Ordering::Relaxed);
        } else if w.step < s.length && !self.owns(w.at) {
            s.emigrated_walkers.fetch_add(1, Ordering::Relaxed);
            self.emigrants
                .lock()
                .expect("emigrant list poisoned")
                .push(w.clone());
        } else {
            s.completed_walkers.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn is_cancelled(&self, w: &ServeWalker) -> bool {
        // Emigrants count as cancelled *at the engine level* (so each
        // kernel round's walker-completion law balances); the query-level
        // attribution above keeps them out of the cancelled tally.
        let s = self.slot(w);
        w.step < s.length && (s.cancel_flag.load(Ordering::Relaxed) || !self.owns(w.at))
    }

    fn cancel_epoch(&self) -> u64 {
        self.table.cancel_epoch.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> WalkRng {
        WalkRng::seed_from_u64(7)
    }

    #[test]
    fn class_specs_round_trip() {
        assert_eq!(QueryClass::parse("basic"), Some(QueryClass::Basic));
        assert_eq!(
            QueryClass::parse("ppr:12"),
            Some(QueryClass::Ppr { source: 12 })
        );
        assert_eq!(
            QueryClass::parse("rwr:3:0.25"),
            Some(QueryClass::Rwr {
                source: 3,
                restart: 0.25
            })
        );
        assert_eq!(
            QueryClass::parse("rwr:3"),
            Some(QueryClass::Rwr {
                source: 3,
                restart: 0.15
            })
        );
        assert_eq!(
            QueryClass::parse("deepwalk:5"),
            Some(QueryClass::DeepWalk { start: 5 })
        );
        for bad in ["", "ppr", "ppr:x", "rwr:1:2.0", "node2vec:1", "basic:1"] {
            assert_eq!(QueryClass::parse(bad), None, "{bad}");
        }
    }

    #[test]
    fn walkers_map_to_their_chunk_and_start_vertex() {
        let table = Arc::new(QueryTable::new(vec![
            (QueryClass::Ppr { source: 9 }, 4, None, 1),
            (QueryClass::DeepWalk { start: 2 }, 4, None, 2),
        ]));
        // Query 1's chunk resumes at base walker index 10.
        let app = RoundApp::new(Arc::clone(&table), vec![(0, 0, 3), (1, 10, 2)], 16);
        assert_eq!(app.total_walkers(), 5);
        let mut r = rng();
        let w = app.generate(0, &mut r);
        assert_eq!((w.slot, w.at), (0, 9));
        let w = app.generate(2, &mut r);
        assert_eq!((w.slot, w.at), (0, 9));
        let w = app.generate(3, &mut r);
        assert_eq!((w.slot, w.at), (1, 12)); // deepwalk start 2 + base 10
        let w = app.generate(4, &mut r);
        assert_eq!((w.slot, w.at), (1, 13));
    }

    #[test]
    fn exhausted_allowance_cancels_remaining_walkers_only() {
        let table = Arc::new(QueryTable::new(vec![(QueryClass::Basic, 3, Some(4), 1)]));
        let app = RoundApp::new(Arc::clone(&table), vec![(0, 0, 2)], 8);
        let mut r = rng();
        // First walker finishes all 3 steps within the allowance.
        let mut w = app.generate(0, &mut r);
        for _ in 0..3 {
            assert!(app.is_active(&w));
            app.action(&mut w, 1, &mut r);
        }
        assert!(!app.is_active(&w));
        assert!(!app.is_cancelled(&w), "natural completion");
        app.on_terminate(&w);
        // Second walker trips the 4-step allowance on its second step.
        let mut w = app.generate(1, &mut r);
        app.action(&mut w, 2, &mut r);
        app.action(&mut w, 3, &mut r);
        assert!(table.is_cancelled(0));
        assert!(!app.is_active(&w));
        assert!(app.is_cancelled(&w), "cut short mid-walk");
        app.on_terminate(&w);
        assert_eq!(table.completed_walkers(0), 1);
        assert_eq!(table.cancelled_walkers(0), 1);
        assert_eq!(table.steps_taken(0), 5);
    }

    #[test]
    fn rwr_restarts_return_to_the_anchor() {
        let table = Arc::new(QueryTable::new(vec![(
            QueryClass::Rwr {
                source: 4,
                restart: 1.0,
            },
            8,
            None,
            1,
        )]));
        let app = RoundApp::new(Arc::clone(&table), vec![(0, 0, 1)], 16);
        let mut r = rng();
        let mut w = app.generate(0, &mut r);
        app.action(&mut w, 11, &mut r);
        assert_eq!(w.at, 4, "restart=1.0 always teleports home");
    }

    #[test]
    fn walker_streams_are_chunk_layout_invariant() {
        // The same global walker index seeds the same private stream no
        // matter how a round carved the query into chunks — the property
        // that makes multi-round queries replay identically across
        // backends with different per-round quotas.
        let mk = |chunks: Vec<(u32, u64, u64)>| {
            let t = Arc::new(QueryTable::new(vec![(QueryClass::Basic, 8, None, 99)]));
            RoundApp::new(t, chunks, 16)
        };
        let whole = mk(vec![(0, 0, 8)]);
        let resumed = mk(vec![(0, 5, 3)]);
        let mut r = rng();
        let a = whole.generate(6, &mut r); // global walker 6
        let b = resumed.generate(1, &mut r); // base 5 + 1 = global walker 6
        assert_eq!(a.rng, b.rng);
        assert_eq!(a.at, b.at);
        assert_ne!(whole.generate(0, &mut r).rng, whole.generate(1, &mut r).rng);
    }

    #[test]
    fn sample_for_ignores_the_engine_rng() {
        let t = Arc::new(QueryTable::new(vec![(QueryClass::Basic, 8, None, 7)]));
        let app = RoundApp::new(t, vec![(0, 0, 1)], 16);
        let targets = [3u32, 9, 27, 31];
        let v = VertexEdges::Mem {
            targets: &targets,
            weights: None,
            alias: None,
        };
        let mut r1 = rng();
        let mut r2 = WalkRng::seed_from_u64(12345);
        let mut w1 = app.generate(0, &mut r1);
        let mut w2 = app.generate(0, &mut r2);
        // Different engine RNGs, same walker: identical destination draws.
        let d1: Vec<u32> = (0..6)
            .map(|_| app.sample_for(&mut w1, &v, &mut r1))
            .collect();
        let d2: Vec<u32> = (0..6)
            .map(|_| app.sample_for(&mut w2, &v, &mut r2))
            .collect();
        assert_eq!(d1, d2);
        assert!(d1.iter().all(|d| targets.contains(d)));
    }

    #[test]
    fn foreign_walkers_park_as_emigrants_and_resume_intact() {
        let table = Arc::new(QueryTable::new(vec![(QueryClass::Basic, 8, None, 5)]));
        // Shard owning vertices 0..8 of a 16-vertex graph.
        let app = RoundApp::sharded(Arc::clone(&table), vec![(0, 0, 1)], 16, 0..8, Vec::new());
        let mut r = rng();
        let mut w = app.generate(0, &mut r);
        assert!(app.is_active(&w));
        // Step onto a foreign vertex: inactive, engine-cancelled, parked.
        app.action(&mut w, 12, &mut r);
        assert!(!app.is_active(&w));
        assert!(app.is_cancelled(&w));
        app.on_terminate(&w);
        assert_eq!(table.emigrated_walkers(0), 1);
        assert_eq!(table.completed_walkers(0), 0);
        assert_eq!(table.cancelled_walkers(0), 0);
        let parked = app.take_emigrants();
        assert_eq!(parked.len(), 1);
        assert_eq!((parked[0].at, parked[0].step), (12, 1));
        assert_eq!(parked[0].rng, w.rng);
        assert!(app.take_emigrants().is_empty(), "drained once");

        // The destination shard resumes the walker with identical state.
        let t2 = Arc::new(QueryTable::new(vec![(QueryClass::Basic, 8, None, 5)]));
        let app2 = RoundApp::sharded(Arc::clone(&t2), Vec::new(), 16, 8..16, parked);
        assert_eq!(app2.total_walkers(), 1);
        let resumed = app2.generate(0, &mut r);
        assert_eq!((resumed.at, resumed.step, resumed.rng), (12, 1, w.rng));
        assert!(app2.is_active(&resumed));

        // A walker that finishes its last step onto a foreign vertex
        // completed — the walk is over, nothing to hand off.
        let t3 = Arc::new(QueryTable::new(vec![(QueryClass::Basic, 1, None, 5)]));
        let app3 = RoundApp::sharded(Arc::clone(&t3), vec![(0, 0, 1)], 16, 0..8, Vec::new());
        let mut w = app3.generate(0, &mut r);
        app3.action(&mut w, 12, &mut r);
        assert!(!app3.is_cancelled(&w));
        app3.on_terminate(&w);
        assert_eq!(t3.completed_walkers(0), 1);
        assert_eq!(t3.emigrated_walkers(0), 0);
    }

    #[test]
    fn precancelled_slot_drains_resumed_walkers_as_cancelled() {
        let table = Arc::new(QueryTable::new(vec![(QueryClass::Basic, 8, None, 5)]));
        table.cancel(0);
        let resumed = vec![ServeWalker {
            at: 9,
            step: 3,
            slot: 0,
            rng: 77,
        }];
        let app = RoundApp::sharded(Arc::clone(&table), Vec::new(), 16, 8..16, resumed);
        let mut r = rng();
        let w = app.generate(0, &mut r);
        assert!(!app.is_active(&w));
        assert!(app.is_cancelled(&w));
        app.on_terminate(&w);
        assert_eq!(table.cancelled_walkers(0), 1);
        assert_eq!(table.emigrated_walkers(0), 0);
    }

    #[test]
    fn digest_is_order_independent() {
        let mk = || Arc::new(QueryTable::new(vec![(QueryClass::Basic, 8, None, 1)]));
        let t1 = mk();
        let a1 = RoundApp::new(Arc::clone(&t1), vec![(0, 0, 2)], 16);
        let t2 = mk();
        let a2 = RoundApp::new(Arc::clone(&t2), vec![(0, 0, 2)], 16);
        let mut r = rng();
        let mut w = a1.generate(0, &mut r);
        for v in [1, 2, 3] {
            a1.action(&mut w, v, &mut r);
        }
        let mut w = a2.generate(0, &mut r);
        for v in [3, 1, 2] {
            a2.action(&mut w, v, &mut r);
        }
        assert_eq!(t1.digest(0), t2.digest(0));
        assert_ne!(t1.digest(0), 0);
    }
}
