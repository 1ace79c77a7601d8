//! The seeded property-test helper the integration tests share.
//!
//! [`cases`] runs a property body on `n` deterministic cases. Case `i`
//! draws every input from its own `SmallRng::seed_from_u64(seed ^ i)`, so
//! a run is reproducible and a failing case panics with its index and the
//! seed that replays it alone: `cases(1, <that seed>, body)`. There is no
//! shrinking; a property that needs a precondition builds inputs that meet
//! it instead of rejecting cases.
//!
//! Integer and float ranges are drawn with `rng.gen_range(..)`; the
//! generators below cover the rest (vectors, alphabet tokens, small graphs).

#![allow(
    dead_code,
    reason = "each test crate includes this module and uses a different subset of it"
)]

use noswalker::graph::{Csr, CsrBuilder};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::ops::{Range, RangeInclusive};
use std::panic::{self, AssertUnwindSafe};

/// The base seed every property in the suite passes to [`cases`].
pub const SEED: u64 = 0x5eed_0000_0000_0000;

/// Runs `property` on `n` cases, case `i` on an RNG seeded with
/// `seed ^ i`. A panicking case is re-raised with its index and seed.
pub fn cases(n: u64, seed: u64, mut property: impl FnMut(&mut SmallRng)) {
    for case in 0..n {
        let case_seed = seed ^ case;
        let mut rng = SmallRng::seed_from_u64(case_seed);
        if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| property(&mut rng))) {
            let msg = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("non-string panic payload");
            panic!("property failed at case {case} of {n} (replay seed {case_seed:#x}): {msg}");
        }
    }
}

/// A vector whose length is drawn from `len` and whose elements come from
/// `elem`.
pub fn vec_of<T>(
    rng: &mut SmallRng,
    len: Range<usize>,
    mut elem: impl FnMut(&mut SmallRng) -> T,
) -> Vec<T> {
    let n = rng.gen_range(len);
    (0..n).map(|_| elem(rng)).collect()
}

/// A token of `len` characters, each drawn uniformly from `alphabet`.
pub fn token(rng: &mut SmallRng, alphabet: &str, len: RangeInclusive<usize>) -> String {
    let chars: Vec<char> = alphabet.chars().collect();
    let n = rng.gen_range(len);
    (0..n)
        .map(|_| chars[rng.gen_range(0..chars.len())])
        .collect()
}

/// A small arbitrary graph: `2..max_v` vertices and, over them,
/// `min_edges..4n` uniformly drawn edges (self-loops and duplicates
/// included).
pub fn graph(rng: &mut SmallRng, max_v: usize, min_edges: usize) -> Csr {
    let n = rng.gen_range(2..max_v);
    let edges = vec_of(rng, min_edges..n * 4, |r| {
        (r.gen_range(0..n as u32), r.gen_range(0..n as u32))
    });
    let mut b = CsrBuilder::new(n);
    for (s, d) in edges {
        b.push_edge(s, d);
    }
    b.build()
}
