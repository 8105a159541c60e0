//! Datasets for MPI-OPT: sparse high-dimensional classification data and
//! dense vision-like data.
//!
//! The paper evaluates on URL \[40\], Webspam \[53\], CIFAR-10, ImageNet-1K,
//! ATIS and Hansards (Table 1). Those corpora are not redistributable
//! here, so this module provides *synthetic generators with matched
//! statistics*: trigram-like power-law sparse features with linearly
//! separable (noisy) labels for URL/Webspam, class-conditional Gaussians
//! for the vision tasks, and token sequences for the language tasks. The
//! experiments exercise sparsity structure, not corpus semantics, so these
//! preserve the relevant behaviour (see DESIGN.md, substitution table).

use sparcml_stream::XorShift64;

/// One sparse sample: sorted `(feature, value)` pairs plus a label.
#[derive(Debug, Clone)]
pub struct SparseSample {
    /// Sorted feature indices with values.
    pub features: Vec<(u32, f32)>,
    /// Class label (0/1 for binary tasks).
    pub label: u32,
}

/// A sparse dataset (URL/Webspam-like).
#[derive(Debug, Clone)]
pub struct SparseDataset {
    /// Feature space dimension `N`.
    pub dim: usize,
    /// Number of classes.
    pub classes: usize,
    /// Samples.
    pub samples: Vec<SparseSample>,
}

impl SparseDataset {
    /// Average number of non-zero features per sample.
    pub fn avg_nnz(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let total: usize = self.samples.iter().map(|s| s.features.len()).sum();
        total as f64 / self.samples.len() as f64
    }

    /// The contiguous shard of samples owned by `rank` out of `parts`
    /// (MPI-OPT's "efficient distributed partitioning of any dataset").
    pub fn shard(&self, parts: usize, rank: usize) -> &[SparseSample] {
        let range = sparcml_stream::partition_range(self.samples.len(), parts, rank);
        &self.samples[range.lo as usize..range.hi as usize]
    }
}

/// A dense dataset (CIFAR/ImageNet-like).
#[derive(Debug, Clone)]
pub struct DenseDataset {
    /// Input dimension.
    pub dim: usize,
    /// Number of classes.
    pub classes: usize,
    /// Row-major samples, `samples.len() == labels.len()`.
    pub samples: Vec<Vec<f32>>,
    /// Labels in `[0, classes)`.
    pub labels: Vec<u32>,
}

impl DenseDataset {
    /// Shard boundaries for data-parallel training.
    pub fn shard_range(&self, parts: usize, rank: usize) -> (usize, usize) {
        let r = sparcml_stream::partition_range(self.samples.len(), parts, rank);
        (r.lo as usize, r.hi as usize)
    }
}

/// A token-sequence dataset (ATIS/Hansards-like): each sample is a token
/// id sequence with one class label (intent classification stand-in).
#[derive(Debug, Clone)]
pub struct SequenceDataset {
    /// Vocabulary size.
    pub vocab: usize,
    /// Number of classes.
    pub classes: usize,
    /// Token sequences.
    pub sequences: Vec<Vec<u32>>,
    /// One label per sequence.
    pub labels: Vec<u32>,
}

/// Configuration of the sparse generator.
#[derive(Debug, Clone, Copy)]
pub struct SparseGenConfig {
    /// Feature dimension `N`.
    pub dim: usize,
    /// Number of samples.
    pub samples: usize,
    /// Non-zeros per sample (trigram hits).
    pub nnz_per_sample: usize,
    /// Power-law exponent for feature popularity (≈1.1 for text trigrams).
    pub popularity_exponent: f64,
    /// Label noise rate.
    pub noise: f64,
    /// RNG seed.
    pub seed: u64,
}

impl SparseGenConfig {
    /// URL-reputation-like (paper: N = 3 231 961, 2.4M samples; scaled
    /// sample count so it stays laptop-sized — feature dim is preserved).
    pub fn url_like(samples: usize) -> Self {
        SparseGenConfig {
            dim: 3_231_961,
            samples,
            nnz_per_sample: 115,
            // Trigram popularity is strongly Zipfian; 1.3 reproduces the
            // cross-node feature overlap that keeps reduced gradients
            // sparse at 32 nodes (probed against Fig. 1-style unions).
            popularity_exponent: 1.3,
            noise: 0.05,
            seed: 0x0c1,
        }
    }
}

/// Draws a feature index from a truncated power-law popularity
/// distribution via inverse transform on `u ∈ [0,1)`.
fn power_law_index(dim: usize, exponent: f64, rng: &mut XorShift64) -> u32 {
    // x ∝ u^{-1/(a-1)} over [1, dim]; heavier head for larger a.
    let u = rng.next_f64().max(1e-12);
    let x = u.powf(-1.0 / (exponent - 1.0).max(0.05));
    let idx = (x - 1.0) * 37.0; // spread the head across a few dozen slots
    ((idx as usize) % dim) as u32
}

/// Hidden separator weight of feature `idx`: ±1 on a deterministic 20% of
/// features (hash-selected), 0 elsewhere.
fn hidden_weight(idx: u32) -> f64 {
    let h = idx.wrapping_mul(0x9E37_79B9);
    if !h.is_multiple_of(5) {
        return 0.0;
    }
    if (h >> 8) & 1 == 0 {
        1.0
    } else {
        -1.0
    }
}

/// Generates a binary-labelled sparse dataset: a hidden sparse linear
/// separator produces labels, features follow a power law (frequent
/// trigrams shared across samples, rare ones nearly unique).
pub fn generate_sparse(cfg: &SparseGenConfig) -> SparseDataset {
    let mut rng = XorShift64::new(cfg.seed);
    let mut samples = Vec::with_capacity(cfg.samples);
    for _ in 0..cfg.samples {
        let mut feats: Vec<(u32, f32)> = Vec::with_capacity(cfg.nnz_per_sample);
        let mut margin = 0.0f64;
        for _ in 0..cfg.nnz_per_sample {
            let idx = power_law_index(cfg.dim, cfg.popularity_exponent, &mut rng);
            let val = 1.0 + 0.2 * rng.next_gaussian() as f32;
            margin += hidden_weight(idx) * val as f64;
            feats.push((idx, val));
        }
        feats.sort_unstable_by_key(|&(i, _)| i);
        feats.dedup_by(|a, b| {
            if a.0 == b.0 {
                b.1 += a.1;
                true
            } else {
                false
            }
        });
        let mut label = if margin >= 0.0 { 1u32 } else { 0u32 };
        if rng.next_f64() < cfg.noise {
            label ^= 1;
        }
        samples.push(SparseSample {
            features: feats,
            label,
        });
    }
    SparseDataset {
        dim: cfg.dim,
        classes: 2,
        samples,
    }
}

/// Generates a dense image-like dataset: class-conditional Gaussians with
/// per-class mean patterns (CIFAR-10-like for `classes = 10, dim = 3072`,
/// ImageNet-like for `classes = 100+`) and per-dimension noise σ
/// controlling task difficulty.
pub fn generate_dense_images_noisy(
    dim: usize,
    classes: usize,
    samples: usize,
    noise: f32,
    seed: u64,
) -> DenseDataset {
    let mut rng = XorShift64::new(seed);
    // Class means: independent random directions (pairwise distance
    // ≈ √(2·dim) · 0.6, so tasks are separable but noisy).
    let means: Vec<Vec<f32>> = (0..classes)
        .map(|c| {
            let mut crng =
                XorShift64::new(seed ^ (c as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            (0..dim)
                .map(|_| crng.next_gaussian() as f32 * 0.6)
                .collect()
        })
        .collect();
    let mut data = Vec::with_capacity(samples);
    let mut labels = Vec::with_capacity(samples);
    for i in 0..samples {
        let c = i % classes; // balanced classes
        let x: Vec<f32> = means[c]
            .iter()
            .map(|m| m + rng.next_gaussian() as f32 * noise)
            .collect();
        data.push(x);
        labels.push(c as u32);
    }
    DenseDataset {
        dim,
        classes,
        samples: data,
        labels,
    }
}

/// Generates an ATIS-like sequence classification dataset: each class has
/// a set of "trigger" tokens; sequences mix triggers with background
/// tokens drawn from a shared vocabulary.
pub fn generate_sequences(
    vocab: usize,
    classes: usize,
    samples: usize,
    seq_len: usize,
    seed: u64,
) -> SequenceDataset {
    assert!(
        vocab > classes * 4,
        "vocabulary too small for trigger tokens"
    );
    let mut rng = XorShift64::new(seed);
    let mut sequences = Vec::with_capacity(samples);
    let mut labels = Vec::with_capacity(samples);
    for i in 0..samples {
        let c = (i % classes) as u32;
        let len = seq_len.max(2);
        let mut seq = Vec::with_capacity(len);
        for t in 0..len {
            // ~30% trigger tokens for the class, rest background.
            if rng.next_f64() < 0.3 {
                let trigger = c * 4 + (rng.next_below(4)) as u32;
                seq.push(trigger);
            } else {
                let bg = classes as u64 * 4 + rng.next_below((vocab - classes * 4) as u64);
                seq.push(bg as u32);
            }
            let _ = t;
        }
        sequences.push(seq);
        labels.push(c);
    }
    SequenceDataset {
        vocab,
        classes,
        sequences,
        labels,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparse_generator_matches_config() {
        let cfg = SparseGenConfig {
            dim: 100_000,
            samples: 200,
            nnz_per_sample: 50,
            popularity_exponent: 1.1,
            noise: 0.0,
            seed: 1,
        };
        let ds = generate_sparse(&cfg);
        assert_eq!(ds.samples.len(), 200);
        assert_eq!(ds.dim, 100_000);
        assert!(
            ds.avg_nnz() > 30.0 && ds.avg_nnz() <= 50.0,
            "avg {}",
            ds.avg_nnz()
        );
        for s in &ds.samples {
            assert!(
                s.features.windows(2).all(|w| w[0].0 < w[1].0),
                "sorted unique"
            );
            assert!(s.features.iter().all(|&(i, _)| (i as usize) < ds.dim));
            assert!(s.label < 2);
        }
    }

    #[test]
    fn sparse_generator_is_deterministic() {
        let cfg = SparseGenConfig {
            dim: 10_000,
            samples: 20,
            nnz_per_sample: 30,
            popularity_exponent: 1.2,
            noise: 0.1,
            seed: 7,
        };
        let a = generate_sparse(&cfg);
        let b = generate_sparse(&cfg);
        assert_eq!(a.samples.len(), b.samples.len());
        for (x, y) in a.samples.iter().zip(b.samples.iter()) {
            assert_eq!(x.features, y.features);
            assert_eq!(x.label, y.label);
        }
    }

    #[test]
    fn labels_are_not_degenerate() {
        let ds = generate_sparse(&SparseGenConfig {
            dim: 50_000,
            samples: 500,
            nnz_per_sample: 60,
            popularity_exponent: 1.1,
            noise: 0.0,
            seed: 3,
        });
        let ones = ds.samples.iter().filter(|s| s.label == 1).count();
        assert!(ones > 50 && ones < 450, "label balance: {ones}/500");
    }

    #[test]
    fn sharding_covers_everything() {
        let ds = generate_sparse(&SparseGenConfig {
            dim: 1000,
            samples: 103,
            nnz_per_sample: 5,
            popularity_exponent: 1.3,
            noise: 0.0,
            seed: 9,
        });
        let total: usize = (0..4).map(|r| ds.shard(4, r).len()).sum();
        assert_eq!(total, 103);
    }

    #[test]
    fn dense_images_structure() {
        let ds = generate_dense_images_noisy(64, 10, 100, 0.9, 11);
        assert_eq!(ds.samples.len(), 100);
        assert_eq!(ds.labels.len(), 100);
        assert!(ds.labels.iter().all(|&l| l < 10));
        // Class means separated: same-class distance < cross-class distance
        // on average.
        let d =
            |a: &[f32], b: &[f32]| -> f32 { a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum() };
        let same = d(&ds.samples[0], &ds.samples[10]); // both class 0
        let cross = d(&ds.samples[0], &ds.samples[5]); // class 0 vs 5
        assert!(same < cross, "same {same} cross {cross}");
    }

    #[test]
    fn sequences_structure() {
        let ds = generate_sequences(1000, 8, 64, 12, 13);
        assert_eq!(ds.sequences.len(), 64);
        assert!(ds.sequences.iter().all(|s| s.len() == 12));
        assert!(ds.sequences.iter().flatten().all(|&t| (t as usize) < 1000));
    }
}
