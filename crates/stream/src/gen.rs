//! Deterministic synthetic stream generators used by tests, examples and
//! the micro-benchmarks (§8.1: "Based on the defined density, k indices out
//! of N are selected uniformly at random at each node and are assigned a
//! random value").
//!
//! All generators are pure functions of an explicit 64-bit seed so that
//! every experiment is reproducible bit-for-bit; they use a small internal
//! xorshift generator to avoid a dependency on `rand` in this base crate.

use crate::scalar::Scalar;
use crate::soa::SparseVec;
use crate::stream::SparseStream;

/// Minimal xorshift64* PRNG; statistically adequate for workload synthesis
/// and dependency-free.
#[derive(Debug, Clone)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// Creates a generator from a non-zero seed (zero is mapped away).
    pub fn new(seed: u64) -> Self {
        XorShift64 {
            state: seed.max(1).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1,
        }
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform value in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `[0, bound)`.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        // Modulo bias is negligible for bounds << 2^64 (ours are < 2^33).
        self.next_u64() % bound
    }

    /// Standard normal via Box–Muller.
    pub fn next_gaussian(&mut self) -> f64 {
        let u1 = self.next_f64().max(f64::MIN_POSITIVE);
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }
}

/// Draws `nnz` distinct indices uniformly from `[0, dim)`, sorted.
pub fn uniform_indices(dim: usize, nnz: usize, rng: &mut XorShift64) -> Vec<u32> {
    assert!(nnz <= dim, "cannot draw {nnz} distinct indices from {dim}");
    if nnz == 0 {
        return Vec::new();
    }
    // Dense Floyd sampling for high densities, hash-free rejection for low.
    if nnz * 3 >= dim {
        // Partial Fisher–Yates over the full index range.
        let mut all: Vec<u32> = (0..dim as u32).collect();
        for i in 0..nnz {
            let j = i + rng.next_below((dim - i) as u64) as usize;
            all.swap(i, j);
        }
        let mut picked = all[..nnz].to_vec();
        picked.sort_unstable();
        picked
    } else if dim / BITMAP_SPAN_PER_INDEX <= nnz {
        // Rejection sampling: each *new* index is uniform, so the final
        // k-subset is uniform (unlike draw-sort-truncate, which would bias
        // towards small indices). A bitmap over the range is the set, and
        // walking its set bits emits the subset sorted.
        let mut set = vec![0u64; dim.div_ceil(64)];
        let mut found = 0;
        while found < nnz {
            let idx = rng.next_below(dim as u64) as usize;
            let (word, bit) = (idx / 64, 1 << (idx % 64));
            found += usize::from(set[word] & bit == 0);
            set[word] |= bit;
        }
        let mut picked = Vec::with_capacity(nnz);
        for (word, &bits) in set.iter().enumerate() {
            let mut bits = bits;
            while bits != 0 {
                picked.push((64 * word) as u32 + bits.trailing_zeros());
                bits &= bits - 1;
            }
        }
        picked
    } else {
        // The same draws into a hash set, where a bitmap over the range
        // would be mostly zeros.
        let mut set = std::collections::HashSet::with_capacity(nnz * 2);
        while set.len() < nnz {
            set.insert(rng.next_below(dim as u64) as u32);
        }
        let mut picked: Vec<u32> = set.into_iter().collect();
        picked.sort_unstable();
        picked
    }
}

/// Slots of the range per index drawn past which [`uniform_indices`]
/// keeps its set in a hash set rather than a bitmap over the range.
const BITMAP_SPAN_PER_INDEX: usize = 1 << 10;

/// A sparse stream with `nnz` uniformly random support and standard-normal
/// values — the synthetic workload of the paper's micro-benchmarks (§8.1).
pub fn random_sparse<V: Scalar>(dim: usize, nnz: usize, seed: u64) -> SparseStream<V> {
    let mut rng = XorShift64::new(seed);
    let indices = uniform_indices(dim, nnz, &mut rng);
    let values: Vec<V> = indices
        .iter()
        .map(|_| {
            // Avoid exact zeros so nnz is exact.
            let mut v = rng.next_gaussian();
            if v == 0.0 {
                v = 1.0;
            }
            V::from_f64(v)
        })
        .collect();
    SparseStream::from_sorted(dim, SparseVec::from_slabs(indices, values))
        .expect("generated indices are sorted and in range")
}

/// A sparse stream whose support is clustered: `clusters` runs of
/// consecutive indices, modelling the spatial correlation of DNN gradient
/// layers (used by Fig. 1-style density studies).
pub fn clustered_sparse<V: Scalar>(
    dim: usize,
    nnz: usize,
    clusters: usize,
    seed: u64,
) -> SparseStream<V> {
    assert!(clusters > 0 && nnz <= dim);
    let mut rng = XorShift64::new(seed);
    let per = nnz.div_ceil(clusters);
    let mut idx: Vec<u32> = Vec::with_capacity(nnz);
    let mut remaining = nnz;
    while remaining > 0 {
        let run = per.min(remaining);
        let start = rng.next_below((dim - run + 1) as u64) as u32;
        for j in 0..run as u32 {
            idx.push(start + j);
        }
        remaining -= run;
    }
    idx.sort_unstable();
    idx.dedup();
    // Top up after dedup so nnz stays exact.
    while idx.len() < nnz {
        let cand = rng.next_below(dim as u64) as u32;
        if idx.binary_search(&cand).is_err() {
            let pos = idx.partition_point(|&i| i < cand);
            idx.insert(pos, cand);
        }
    }
    let values: Vec<V> = idx
        .iter()
        .map(|_| V::from_f64(rng.next_gaussian() + 0.1))
        .collect();
    SparseStream::from_sorted(dim, SparseVec::from_slabs(idx, values))
        .expect("sorted by construction")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xorshift_is_deterministic() {
        let mut a = XorShift64::new(7);
        let mut b = XorShift64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn uniform_indices_distinct_sorted_exact() {
        let mut rng = XorShift64::new(3);
        for &(dim, nnz) in &[(100usize, 10usize), (100, 90), (1000, 1), (64, 64)] {
            let idx = uniform_indices(dim, nnz, &mut rng);
            assert_eq!(idx.len(), nnz);
            assert!(idx.windows(2).all(|w| w[0] < w[1]), "sorted distinct");
            assert!(idx.iter().all(|&i| (i as usize) < dim));
        }
    }

    #[test]
    fn uniform_indices_are_actually_uniform() {
        // Regression test for a draw-sort-truncate bias: the mean sampled
        // index must be ~(dim-1)/2 in both the sparse (rejection) and the
        // dense (Fisher–Yates) paths.
        let mut rng = XorShift64::new(17);
        for nnz in [4usize, 400] {
            let dim = 1000usize;
            let mut total = 0u64;
            let trials = 400;
            for _ in 0..trials {
                for i in uniform_indices(dim, nnz, &mut rng) {
                    total += i as u64;
                }
            }
            let mean = total as f64 / (trials * nnz) as f64;
            let expect = (dim as f64 - 1.0) / 2.0;
            assert!(
                (mean - expect).abs() < expect * 0.08,
                "nnz={nnz}: mean index {mean} vs expected {expect}"
            );
        }
    }

    #[test]
    fn uniform_indices_draw_what_the_hash_set_drew() {
        // The sampler before the bitmap, kept as the oracle: the same
        // draws and the same accept rule give the same set.
        let oracle = |dim: usize, nnz: usize, rng: &mut XorShift64| {
            let mut set = std::collections::HashSet::new();
            while set.len() < nnz {
                set.insert(rng.next_below(dim as u64) as u32);
            }
            let mut picked: Vec<u32> = set.into_iter().collect();
            picked.sort_unstable();
            picked
        };
        for (dim, nnz, seed) in [
            (1 << 20, 100_000, 1),
            (1 << 20, 256, 2),
            (1 << 20, 1_024, 3),
            (3_866_624, 31_408, 4),
            (1 << 18, 8_192, 5),
            (1_000, 1, 6),
            (1_000, 333, 7),
            (1 << 30, 100, 8),
            (64, 21, 9),
        ] {
            let (mut a, mut b) = (XorShift64::new(seed), XorShift64::new(seed));
            assert_eq!(
                uniform_indices(dim, nnz, &mut a),
                oracle(dim, nnz, &mut b),
                "dim {dim} nnz {nnz} seed {seed}"
            );
            // And the generator is left where the oracle left it.
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn random_sparse_has_exact_nnz() {
        let v = random_sparse::<f32>(10_000, 100, 42);
        assert_eq!(v.nnz(), 100);
        v.check_invariants().unwrap();
        // Deterministic per seed.
        let w = random_sparse::<f32>(10_000, 100, 42);
        assert_eq!(v, w);
        let u = random_sparse::<f32>(10_000, 100, 43);
        assert_ne!(v, u);
    }

    #[test]
    fn clustered_sparse_valid() {
        let v = clustered_sparse::<f32>(10_000, 256, 8, 9);
        assert_eq!(v.nnz(), 256);
        v.check_invariants().unwrap();
    }

    #[test]
    fn gaussian_moments_plausible() {
        let mut rng = XorShift64::new(11);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.next_gaussian()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }
}
