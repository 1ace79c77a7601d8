//! Basic random walk: the kernel workload of the paper's §4.3/§4.4
//! experiments (e.g. "1 billion walkers with 10 length").

use noswalker_core::apps_prelude::*;
use rand::Rng;
use std::sync::atomic::{AtomicU64, Ordering};

/// How walker start vertices are chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StartPolicy {
    /// Walker `n` starts at vertex `n mod |V|` (the paper's Algorithm 2
    /// issues one walker per vertex this way).
    RoundRobin,
    /// Uniformly random start vertex.
    Uniform,
}

/// A fixed-length uniform random walk with per-vertex visit counting.
///
/// # Example
///
/// ```
/// use noswalker_apps::BasicRw;
/// use noswalker_core::Walk;
///
/// let app = BasicRw::new(1000, 10, 1 << 16);
/// assert_eq!(app.total_walkers(), 1000);
/// ```
#[derive(Debug)]
pub struct BasicRw {
    walkers: u64,
    length: u32,
    num_vertices: u32,
    start: StartPolicy,
    steps_taken: AtomicU64,
}

/// Walker state for [`BasicRw`].
#[derive(Debug, Clone)]
pub struct BasicWalker {
    /// Current vertex.
    pub at: VertexId,
    /// Steps taken so far.
    pub step: u32,
}

impl BasicRw {
    /// `walkers` uniform walks of `length` steps over `num_vertices`
    /// vertices, round-robin starts.
    pub fn new(walkers: u64, length: u32, num_vertices: usize) -> Self {
        Self::with_start(walkers, length, num_vertices, StartPolicy::RoundRobin)
    }

    /// As [`BasicRw::new`] with an explicit start policy.
    ///
    /// # Panics
    ///
    /// Panics if `num_vertices` is zero.
    pub fn with_start(walkers: u64, length: u32, num_vertices: usize, start: StartPolicy) -> Self {
        assert!(num_vertices > 0, "graph must have vertices");
        BasicRw {
            walkers,
            length,
            num_vertices: num_vertices as u32,
            start,
            steps_taken: AtomicU64::new(0),
        }
    }

    /// Steps of the walks finished so far (across all engines/runs of
    /// this instance). Each walker adds its steps once, at termination,
    /// so concurrent workers share no counter while stepping.
    pub fn steps_taken(&self) -> u64 {
        self.steps_taken.load(Ordering::Relaxed)
    }

    /// Walk length.
    pub fn length(&self) -> u32 {
        self.length
    }
}

impl Walk for BasicRw {
    type Walker = BasicWalker;

    fn total_walkers(&self) -> u64 {
        self.walkers
    }

    fn generate(&self, n: u64, rng: &mut WalkRng) -> BasicWalker {
        let at = match self.start {
            StartPolicy::RoundRobin => (n % self.num_vertices as u64) as VertexId,
            StartPolicy::Uniform => rng.gen_range(0..self.num_vertices),
        };
        BasicWalker { at, step: 0 }
    }

    fn location(&self, w: &BasicWalker) -> VertexId {
        w.at
    }

    fn is_active(&self, w: &BasicWalker) -> bool {
        w.step < self.length
    }

    fn sample(&self, v: &VertexEdges<'_>, rng: &mut WalkRng) -> VertexId {
        uniform_sample(v, rng)
    }

    fn action(&self, w: &mut BasicWalker, next: VertexId, _rng: &mut WalkRng) -> bool {
        w.at = next;
        w.step += 1;
        true
    }

    fn on_terminate(&self, w: &BasicWalker) {
        self.steps_taken
            .fetch_add(u64::from(w.step), Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn round_robin_starts() {
        let app = BasicRw::new(10, 5, 4);
        let mut rng = WalkRng::seed_from_u64(0);
        for n in 0..10 {
            let w = app.generate(n, &mut rng);
            assert_eq!(w.at, (n % 4) as u32);
            assert!(app.is_active(&w));
        }
    }

    #[test]
    fn uniform_starts_in_range() {
        let app = BasicRw::with_start(100, 5, 7, StartPolicy::Uniform);
        let mut rng = WalkRng::seed_from_u64(1);
        for n in 0..100 {
            assert!(app.generate(n, &mut rng).at < 7);
        }
    }

    #[test]
    fn terminates_after_length_steps() {
        let app = BasicRw::new(1, 3, 4);
        let mut rng = WalkRng::seed_from_u64(2);
        let mut w = app.generate(0, &mut rng);
        for _ in 0..3 {
            assert!(app.is_active(&w));
            app.action(&mut w, 1, &mut rng);
        }
        assert!(!app.is_active(&w));
        app.on_terminate(&w);
        assert_eq!(app.steps_taken(), 3);
    }
}
