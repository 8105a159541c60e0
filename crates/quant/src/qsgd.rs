//! QSGD stochastic quantization (Alistarh et al., NIPS 2017), as deployed
//! by SparCML (§6).
//!
//! Each dense vector is split into buckets of `bucket_size` consecutive
//! entries; every bucket is quantized independently: a full-precision
//! scaling factor (the bucket's L2 norm or max-abs) plus one
//! `bits`-wide code per entry (sign bit + stochastically rounded magnitude
//! level). The rounding is unbiased — `E[Q(v)] = v` — which is what makes
//! the combined sparsification + quantization scheme provably convergent
//! (Theorem 4.1).

use sparcml_stream::XorShift64;

use crate::pack::{pack_codes, packed_len, unpack_codes};

/// Which bucket statistic provides the scaling factor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NormKind {
    /// Bucket L2 norm (the original QSGD choice).
    L2,
    /// Bucket max absolute value (tighter levels, lower variance).
    MaxAbs,
}

/// Quantization configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QsgdConfig {
    /// Code width in bits (2, 4 or 8 — the widths SparCML supports, §6).
    pub bits: u8,
    /// Entries per bucket ("in the order of 1024 consecutive entries").
    pub bucket_size: usize,
    /// Scaling statistic.
    pub norm: NormKind,
}

impl QsgdConfig {
    /// Paper-default configuration: 4-bit codes, buckets of 1024, max-abs.
    pub fn paper_default() -> Self {
        QsgdConfig {
            bits: 4,
            bucket_size: 1024,
            norm: NormKind::MaxAbs,
        }
    }

    /// Config with a given bit width, paper-default otherwise.
    pub fn with_bits(bits: u8) -> Self {
        QsgdConfig {
            bits,
            ..Self::paper_default()
        }
    }

    /// Number of magnitude levels `s` (codes are sign + level in `[0, s]`).
    #[inline]
    pub fn levels(&self) -> u8 {
        (1u8 << (self.bits - 1)) - 1
    }
}

/// A quantized dense vector: per-bucket scales plus packed codes.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedVec {
    /// Original dimension.
    pub dim: usize,
    /// Code width.
    pub bits: u8,
    /// Bucket size used.
    pub bucket_size: usize,
    /// One scale per bucket.
    pub scales: Vec<f32>,
    /// Packed codes, `dim` of them.
    pub packed: Vec<u8>,
}

impl QuantizedVec {
    /// On-wire size in bytes: scales + packed codes (header excluded); this
    /// is the quantity that shrinks the quantized dense allgather stage.
    pub fn wire_bytes(&self) -> usize {
        self.scales.len() * 4 + self.packed.len()
    }
}

/// Quantizes a dense slice under `cfg`, using `rng` for the stochastic
/// rounding.
pub fn quantize(values: &[f32], cfg: &QsgdConfig, rng: &mut XorShift64) -> QuantizedVec {
    assert!(
        cfg.bits >= 2 && matches!(cfg.bits, 2 | 4 | 8),
        "bits must be 2, 4 or 8"
    );
    assert!(cfg.bucket_size > 0);
    let s = cfg.levels() as f32;
    let nbuckets = values.len().div_ceil(cfg.bucket_size);
    let mut scales = Vec::with_capacity(nbuckets);
    let mut codes: Vec<u8> = Vec::with_capacity(values.len());
    for bucket in values.chunks(cfg.bucket_size) {
        let scale = match cfg.norm {
            NormKind::L2 => bucket
                .iter()
                .map(|v| (*v as f64).powi(2))
                .sum::<f64>()
                .sqrt() as f32,
            NormKind::MaxAbs => bucket.iter().fold(0.0f32, |m, v| m.max(v.abs())),
        };
        scales.push(scale);
        if scale == 0.0 {
            codes.extend(std::iter::repeat_n(0u8, bucket.len()));
            continue;
        }
        for &v in bucket {
            let sign = if v < 0.0 { 1u8 } else { 0u8 };
            // Position in [0, s]; values can exceed s only by rounding noise
            // under L2 (|v| <= norm always holds), clamp defensively.
            let pos = (v.abs() / scale * s).min(s);
            let lo = pos.floor();
            let frac = pos - lo;
            let level = if (rng.next_f64() as f32) < frac {
                lo as u8 + 1
            } else {
                lo as u8
            };
            let level = level.min(s as u8);
            codes.push((sign << (cfg.bits - 1)) | level);
        }
    }
    QuantizedVec {
        dim: values.len(),
        bits: cfg.bits,
        bucket_size: cfg.bucket_size,
        scales,
        packed: pack_codes(&codes, cfg.bits),
    }
}

/// Reconstructs the (lossy) dense vector.
pub fn dequantize(q: &QuantizedVec) -> Vec<f32> {
    let s = ((1u8 << (q.bits - 1)) - 1) as f32;
    let codes = unpack_codes(&q.packed, q.bits, q.dim);
    let sign_bit = 1u8 << (q.bits - 1);
    let level_mask = sign_bit - 1;
    let mut out = Vec::with_capacity(q.dim);
    for (i, code) in codes.into_iter().enumerate() {
        let bucket = i / q.bucket_size;
        let scale = q.scales[bucket];
        let level = (code & level_mask) as f32;
        let magnitude = scale * level / s;
        out.push(if code & sign_bit != 0 {
            -magnitude
        } else {
            magnitude
        });
    }
    out
}

/// Expected packed size (scales + codes) for a vector of `dim` entries —
/// used by analytic bandwidth models without materializing the vector.
pub fn quantized_wire_bytes(dim: usize, cfg: &QsgdConfig) -> usize {
    dim.div_ceil(cfg.bucket_size) * 4 + packed_len(dim, cfg.bits)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> XorShift64 {
        XorShift64::new(1234)
    }

    #[test]
    fn round_trip_exact_for_representable_values() {
        // With MaxAbs scale and values at exact level positions the
        // round-trip is lossless regardless of the stochastic rounding.
        let cfg = QsgdConfig {
            bits: 4,
            bucket_size: 8,
            norm: NormKind::MaxAbs,
        };
        let s = cfg.levels() as f32; // 7
        let values: Vec<f32> = (0..8).map(|i| i as f32 * 7.0 / s).collect();
        let q = quantize(&values, &cfg, &mut rng());
        let back = dequantize(&q);
        for (a, b) in values.iter().zip(back.iter()) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn quantization_is_unbiased() {
        let cfg = QsgdConfig {
            bits: 4,
            bucket_size: 64,
            norm: NormKind::MaxAbs,
        };
        let values: Vec<f32> = (0..64).map(|i| ((i as f32) * 0.137).sin()).collect();
        let trials = 3000;
        let mut sums = vec![0.0f64; values.len()];
        let mut r = rng();
        for _ in 0..trials {
            let q = quantize(&values, &cfg, &mut r);
            for (acc, v) in sums.iter_mut().zip(dequantize(&q)) {
                *acc += v as f64;
            }
        }
        for (i, acc) in sums.iter().enumerate() {
            let mean = acc / trials as f64;
            let err = (mean - values[i] as f64).abs();
            assert!(err < 0.02, "index {i}: mean {mean} vs {}", values[i]);
        }
    }

    #[test]
    fn error_is_bounded_by_scale_over_levels() {
        let cfg = QsgdConfig {
            bits: 8,
            bucket_size: 128,
            norm: NormKind::MaxAbs,
        };
        let values: Vec<f32> = (0..512)
            .map(|i| ((i * i) as f32 * 0.01).cos() * 3.0)
            .collect();
        let q = quantize(&values, &cfg, &mut rng());
        let back = dequantize(&q);
        let s = cfg.levels() as f32;
        for (i, (a, b)) in values.iter().zip(back.iter()).enumerate() {
            let bucket = i / cfg.bucket_size;
            let bound = q.scales[bucket] / s + 1e-6;
            assert!((a - b).abs() <= bound, "index {i}: |{a} - {b}| > {bound}");
        }
    }

    #[test]
    fn zero_bucket_stays_zero() {
        let cfg = QsgdConfig {
            bits: 2,
            bucket_size: 4,
            norm: NormKind::L2,
        };
        let values = vec![0.0f32; 10];
        let q = quantize(&values, &cfg, &mut rng());
        assert!(dequantize(&q).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn wire_bytes_shrink_with_bits() {
        let dim = 4096;
        let cfg2 = QsgdConfig::with_bits(2);
        let cfg8 = QsgdConfig::with_bits(8);
        assert!(quantized_wire_bytes(dim, &cfg2) < quantized_wire_bytes(dim, &cfg8));
        // 4-bit on 4096 entries with buckets of 1024: 4 scales + 2048 bytes.
        assert_eq!(
            quantized_wire_bytes(dim, &QsgdConfig::with_bits(4)),
            4 * 4 + 2048
        );
    }

    #[test]
    fn wire_bytes_match_struct() {
        let cfg = QsgdConfig {
            bits: 4,
            bucket_size: 16,
            norm: NormKind::MaxAbs,
        };
        let values: Vec<f32> = (0..100).map(|i| i as f32).collect();
        let q = quantize(&values, &cfg, &mut rng());
        assert_eq!(q.wire_bytes(), quantized_wire_bytes(100, &cfg));
    }

    #[test]
    fn signs_are_preserved() {
        let cfg = QsgdConfig {
            bits: 8,
            bucket_size: 8,
            norm: NormKind::MaxAbs,
        };
        let values = vec![-1.0f32, 1.0, -0.5, 0.5, -2.0, 2.0, 0.0, -3.0];
        let q = quantize(&values, &cfg, &mut rng());
        let back = dequantize(&q);
        for (a, b) in values.iter().zip(back.iter()) {
            if *a != 0.0 && *b != 0.0 {
                assert_eq!(a.signum(), b.signum(), "{a} vs {b}");
            }
        }
    }
}
