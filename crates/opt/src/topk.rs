//! Top-k gradient sparsification with error feedback (Algorithms 1 and 2).
//!
//! SparCML's Top-k selection is *bucket-wise*: "gradients are split into
//! groups of 512 consecutive coordinates, out of which we select the 4
//! largest ones, which we transmit from each group, saving the rest
//! locally" (§8.4). The residual ε accumulates everything not sent and is
//! added to the next gradient ("accumulate error into a locally generated
//! gradient"), which is what preserves convergence \[5\].

use sparcml_stream::{SparseStream, SparseVec};

/// Configuration of bucket-wise Top-k selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopKConfig {
    /// Values kept per bucket.
    pub k_per_bucket: usize,
    /// Bucket width in coordinates (512 throughout §8).
    pub bucket_size: usize,
}

impl TopKConfig {
    /// The paper's CIFAR-10 setting: k = 8 of every 512 (~1.6% density).
    pub fn cifar_k8() -> Self {
        TopKConfig {
            k_per_bucket: 8,
            bucket_size: 512,
        }
    }

    /// The paper's ASR / wide-ResNet setting: k = 4 (ASR) or 1 (WRN) of 512.
    pub fn with_k(k: usize) -> Self {
        TopKConfig {
            k_per_bucket: k,
            bucket_size: 512,
        }
    }

    /// Fraction of coordinates transmitted.
    pub fn density(&self) -> f64 {
        self.k_per_bucket as f64 / self.bucket_size as f64
    }
}

/// Selects the top-`k` entries by magnitude in every bucket of `values`,
/// returning them as a sparse stream (sorted by index).
///
/// Selection works on per-bucket *offsets* and writes straight into the
/// stream's index/value slabs; buckets arrive in increasing base order, so
/// the output is sorted by construction.
pub fn topk_bucketwise(values: &[f32], cfg: &TopKConfig) -> SparseStream<f32> {
    assert!(cfg.bucket_size > 0 && cfg.k_per_bucket > 0);
    let mut out: SparseVec<f32> = SparseVec::with_capacity(
        values.len().div_ceil(cfg.bucket_size) * cfg.k_per_bucket.min(cfg.bucket_size),
    );
    let mut offsets: Vec<u32> = Vec::with_capacity(cfg.bucket_size);
    for (b, bucket) in values.chunks(cfg.bucket_size).enumerate() {
        let base = (b * cfg.bucket_size) as u32;
        offsets.clear();
        offsets.extend(0..bucket.len() as u32);
        let k = cfg.k_per_bucket.min(bucket.len());
        // Partial selection of offsets by |value| descending.
        offsets.select_nth_unstable_by(k - 1, |&a, &b| {
            bucket[b as usize]
                .abs()
                .partial_cmp(&bucket[a as usize].abs())
                .expect("no NaN gradients")
        });
        let picked = &mut offsets[..k];
        picked.sort_unstable();
        for &off in picked.iter() {
            out.push(base + off, bucket[off as usize]);
        }
    }
    SparseStream::from_sorted(values.len(), out).expect("bucket order is sorted")
}

/// Error-feedback compressor state (the ε of Algorithm 1/2).
#[derive(Debug, Clone)]
pub struct ErrorFeedback {
    residual: Vec<f32>,
    cfg: TopKConfig,
}

impl ErrorFeedback {
    /// Creates a zero-residual compressor for `dim` coordinates.
    pub fn new(dim: usize, cfg: TopKConfig) -> Self {
        ErrorFeedback {
            residual: vec![0.0; dim],
            cfg,
        }
    }

    /// The current residual (for inspection/tests).
    pub fn residual(&self) -> &[f32] {
        &self.residual
    }

    /// Compression step of Algorithm 1:
    /// `acc ← ε + g`; send `TopK(acc)`; `ε ← acc − TopK(acc)`.
    ///
    /// Returns the sparse stream to transmit.
    pub fn compress(&mut self, gradient: &[f32]) -> SparseStream<f32> {
        assert_eq!(gradient.len(), self.residual.len(), "gradient dim changed");
        for (r, g) in self.residual.iter_mut().zip(gradient) {
            *r += *g;
        }
        let selected = topk_bucketwise(&self.residual, &self.cfg);
        // Clear every *stored* coordinate (including explicit zeros: the
        // sent value was 0, so ε stays consistent).
        for &idx in selected
            .sparse_view()
            .expect("topk output is sparse")
            .indices()
        {
            self.residual[idx as usize] = 0.0;
        }
        selected
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topk_picks_largest_magnitudes_per_bucket() {
        let cfg = TopKConfig {
            k_per_bucket: 2,
            bucket_size: 4,
        };
        let values = vec![
            0.1f32, -5.0, 2.0, 0.0, /* bucket 2 */ 1.0, 1.5, -0.2, 0.3,
        ];
        let s = topk_bucketwise(&values, &cfg);
        assert_eq!(s.stored_len(), 4);
        assert_eq!(s.get(1), -5.0);
        assert_eq!(s.get(2), 2.0);
        assert_eq!(s.get(4), 1.0);
        assert_eq!(s.get(5), 1.5);
        assert_eq!(s.get(0), 0.0);
        s.check_invariants().unwrap();
    }

    #[test]
    fn topk_handles_short_tail_bucket() {
        let cfg = TopKConfig {
            k_per_bucket: 3,
            bucket_size: 4,
        };
        let values = vec![1.0f32, 2.0, 3.0, 4.0, 5.0]; // tail bucket has 1 entry
        let s = topk_bucketwise(&values, &cfg);
        assert_eq!(s.stored_len(), 4); // 3 + 1
        assert_eq!(s.get(4), 5.0);
    }

    #[test]
    fn error_feedback_conserves_mass() {
        // Invariant: sent + residual == sum of all gradients so far.
        let cfg = TopKConfig {
            k_per_bucket: 1,
            bucket_size: 4,
        };
        let dim = 8;
        let mut ef = ErrorFeedback::new(dim, cfg);
        let mut total = vec![0.0f32; dim];
        let mut sent = vec![0.0f32; dim];
        let mut rng = sparcml_stream::XorShift64::new(5);
        for _ in 0..20 {
            let g: Vec<f32> = (0..dim).map(|_| rng.next_gaussian() as f32).collect();
            for (t, gi) in total.iter_mut().zip(&g) {
                *t += *gi;
            }
            let s = ef.compress(&g);
            for (i, v) in s.iter_nonzero() {
                sent[i as usize] += v;
            }
            for i in 0..dim {
                let reconstructed = sent[i] + ef.residual()[i];
                assert!(
                    (reconstructed - total[i]).abs() < 1e-4,
                    "mass leak at {i}: {reconstructed} vs {}",
                    total[i]
                );
            }
        }
    }

    #[test]
    fn residual_eventually_flushes_every_coordinate() {
        // With a constant gradient, error feedback guarantees every
        // coordinate is transmitted eventually (the residual grows until
        // selected).
        let cfg = TopKConfig {
            k_per_bucket: 1,
            bucket_size: 8,
        };
        let dim = 8;
        let mut ef = ErrorFeedback::new(dim, cfg);
        let g: Vec<f32> = (0..dim).map(|i| 0.1 + i as f32 * 0.01).collect();
        let mut seen = vec![false; dim];
        for _ in 0..100 {
            let s = ef.compress(&g);
            for (i, _) in s.iter_nonzero() {
                seen[i as usize] = true;
            }
        }
        assert!(seen.iter().all(|&b| b), "unsent coordinates: {seen:?}");
    }

    #[test]
    fn density_matches_config() {
        let cfg = TopKConfig::cifar_k8();
        assert!((cfg.density() - 8.0 / 512.0).abs() < 1e-12);
        let values = vec![1.0f32; 5120];
        let s = topk_bucketwise(&values, &cfg);
        assert_eq!(s.stored_len(), 80); // 10 buckets × 8
    }
}
