//! Inputs from the seed, and the reference sums outputs are checked
//! against. Values are small positive integers, so every schedule's f32
//! sum is exact and results compare bitwise.

use sparcml::core::reference::reference_sum;
use sparcml::stream::{uniform_indices, SparseStream, XorShift64};

/// Pre-generated inputs each rank or client cycles through. At k = 1e5 a
/// rank's pool is ≈13 MB, past the 4 MiB L2.
pub const POOL: usize = 16;

/// Every `VERIFY_EVERY`th timed op is checked against its reference,
/// outside the op's span. Every warm-up op is checked.
pub const VERIFY_EVERY: usize = 64;

/// Per-op deadline: a hang becomes a counted failure, not a stuck run.
pub const OP_DEADLINE: std::time::Duration = std::time::Duration::from_secs(30);

/// One independent generator seed per (run seed, workload, stream).
pub fn stream_seed(seed: u64, workload: &str, stream: &[u64]) -> u64 {
    let mut h = seed ^ 0xA076_1D64_78BD_642F;
    let parts = workload
        .bytes()
        .map(u64::from)
        .chain(stream.iter().copied());
    for p in parts {
        // splitmix64 finalizer over a running sum: cheap, well mixed.
        h = h.wrapping_add(p).wrapping_add(0x9E37_79B9_7F4A_7C15);
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^= h >> 31;
    }
    h
}

/// `k` distinct uniform indices in `[0, dim)`, values in `1..=4`.
pub fn gen_stream(dim: usize, k: usize, seed: u64) -> SparseStream<f32> {
    gen_strided(dim, 1, k, seed)
}

/// As [`gen_stream`], with support drawn from every `stride`th index: the
/// hot set that keeps a long-lived accumulator sparse.
pub fn gen_strided(dim: usize, stride: usize, k: usize, seed: u64) -> SparseStream<f32> {
    let mut rng = XorShift64::new(seed);
    let mut indices = uniform_indices(dim / stride, k, &mut rng);
    for i in &mut indices {
        *i *= stride as u32;
    }
    let values = indices
        .iter()
        .map(|_| (1 + rng.next_below(4)) as f32)
        .collect();
    SparseStream::from_slabs(dim, indices, values).expect("generated indices are sorted, in range")
}

/// The exact sum of some inputs, kept as sorted non-zero pairs so sixteen
/// of them at N = 2^20 cost megabytes, not sixty-four.
pub struct Reference {
    pairs: Vec<(u32, u32)>,
}

impl Reference {
    pub fn of(inputs: &[SparseStream<f32>]) -> Reference {
        let pairs = reference_sum(inputs)
            .iter()
            .enumerate()
            .filter(|(_, v)| **v != 0.0)
            .map(|(i, v)| (i as u32, v.to_bits()))
            .collect();
        Reference { pairs }
    }

    /// The reference scaled as if each input had been summed `counts[i]`
    /// times (the serve accumulator's final state).
    pub fn weighted(inputs: &[SparseStream<f32>], counts: &[u64]) -> Reference {
        let scaled: Vec<SparseStream<f32>> = inputs
            .iter()
            .zip(counts)
            .filter(|(_, c)| **c > 0)
            .map(|(s, c)| {
                let mut s = s.clone();
                s.scale(*c as f32);
                s
            })
            .collect();
        if scaled.is_empty() {
            return Reference { pairs: Vec::new() };
        }
        Reference::of(&scaled)
    }

    pub fn nnz(&self) -> usize {
        self.pairs.len()
    }

    /// Bitwise equality with a result in either representation.
    pub fn matches(&self, out: &SparseStream<f32>) -> bool {
        let mut expect = self.pairs.iter();
        for (idx, val) in out.iter_nonzero() {
            if expect.next() != Some(&(idx, val.to_bits())) {
                return false;
            }
        }
        expect.next().is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_identical_inputs_and_another_seed_does_not() {
        let s = |seed| stream_seed(seed, "ar-latency", &[1, 5]);
        let a = gen_stream(1 << 20, 256, s(42));
        let b = gen_stream(1 << 20, 256, s(42));
        let c = gen_stream(1 << 20, 256, s(43));
        assert_eq!(a.encode(), b.encode());
        assert_ne!(a.encode(), c.encode());
        assert_eq!(a.nnz(), 256);
        assert!(a
            .iter_nonzero()
            .all(|(_, v)| (1.0..=4.0).contains(&v) && v.fract() == 0.0));
    }

    #[test]
    fn stream_seeds_differ_per_workload_rank_and_slot() {
        let seeds = [
            stream_seed(1, "ar-latency", &[0, 0]),
            stream_seed(1, "ar-latency", &[1, 0]),
            stream_seed(1, "ar-latency", &[0, 1]),
            stream_seed(1, "ar-bandwidth", &[0, 0]),
            stream_seed(2, "ar-latency", &[0, 0]),
        ];
        for (i, a) in seeds.iter().enumerate() {
            for b in &seeds[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn strided_support_stays_on_the_hot_set() {
        let s = gen_strided(1 << 20, 4, 8192, 9);
        assert_eq!(s.nnz(), 8192);
        assert!(s.iter_nonzero().all(|(i, _)| i % 4 == 0));
    }

    #[test]
    fn reference_matches_sparse_and_dense_results_and_rejects_a_flipped_value() {
        let a = gen_stream(4096, 300, 1);
        let b = gen_stream(4096, 300, 2);
        let reference = Reference::of(&[a.clone(), b.clone()]);
        let mut sum = a.clone();
        sum.add_assign(&b).unwrap();
        assert!(reference.matches(&sum));
        let mut dense = sum.clone();
        dense.densify();
        assert!(reference.matches(&dense));
        assert!(!reference.matches(&a));
        let (idx, val) = sum.iter_nonzero().next().unwrap();
        let mut wrong = sum.to_dense_vec();
        wrong[idx as usize] = val + 1.0;
        assert!(!reference.matches(&SparseStream::from_dense(wrong)));
    }

    #[test]
    fn weighted_reference_counts_repeats() {
        let a = gen_stream(1024, 50, 3);
        let b = gen_stream(1024, 50, 4);
        let reference = Reference::weighted(&[a.clone(), b.clone()], &[2, 0]);
        let mut twice = a.clone();
        twice.add_assign(&a).unwrap();
        assert!(reference.matches(&twice));
        assert_eq!(reference.nnz(), 50);
    }
}
