//! Property-based tests of the sparse stream core invariants.
//!
//! Runs on the deterministic in-repo case generator (seeded `XorShift64`)
//! instead of the `proptest` crate — the build environment has no
//! registry access; failures reproduce by construction.

use sparcml::quant::{dequantize, quantize, NormKind, QsgdConfig};
use sparcml::stream::{DensityPolicy, PartRange, Scalar, SparseStream, WindowSum, XorShift64};

/// One randomized stream input: a dimension in 16..512 plus up to dim/2
/// in-range (index, value) pairs.
fn stream_inputs(rng: &mut XorShift64) -> (usize, Vec<(u32, f32)>) {
    let dim = 16 + rng.next_below(496) as usize;
    let nnz = rng.next_below(((dim / 2).max(1)) as u64) as usize;
    let pairs = (0..nnz)
        .map(|_| {
            let idx = rng.next_below(dim as u64) as u32;
            let val = (rng.next_gaussian() * 30.0) as f32;
            (idx, val)
        })
        .collect();
    (dim, pairs)
}

const CASES: usize = 48;

#[test]
fn from_pairs_preserves_logical_vector() {
    let mut rng = XorShift64::new(1);
    for _ in 0..CASES {
        let (dim, pairs) = stream_inputs(&mut rng);
        let s = SparseStream::from_pairs(dim, &pairs).unwrap();
        s.check_invariants().unwrap();
        let mut expect = vec![0.0f32; dim];
        for &(i, v) in &pairs {
            expect[i as usize] += v;
        }
        let got = s.to_dense_vec();
        for (g, e) in got.iter().zip(&expect) {
            assert!((g - e).abs() <= 1e-3 * (1.0 + e.abs()));
        }
    }
}

#[test]
fn sum_matches_dense_reference() {
    let mut rng = XorShift64::new(2);
    for case in 0..CASES {
        let (dim, a) = stream_inputs(&mut rng);
        let b_seed = rng.next_below(1000);
        let mut sa = SparseStream::from_pairs(dim, &a).unwrap();
        let mut sb = sparcml::stream::random_sparse::<f32>(dim, (dim / 4).max(1), b_seed);
        if case % 2 == 0 {
            sa.densify();
        }
        if case % 3 == 0 {
            sb.densify();
        }
        let mut expect = sa.to_dense_vec();
        for (i, v) in sb.iter_nonzero() {
            expect[i as usize] += v;
        }
        sa.add_assign(&sb).unwrap();
        let got = sa.to_dense_vec();
        for (g, e) in got.iter().zip(&expect) {
            assert!((g - e).abs() <= 1e-3 * (1.0 + e.abs()), "{g} vs {e}");
        }
    }
}

#[test]
fn sum_switches_repr_only_past_delta() {
    let mut rng = XorShift64::new(3);
    for _ in 0..CASES {
        let (dim, a) = stream_inputs(&mut rng);
        let b_seed = rng.next_below(1000);
        let mut sa = SparseStream::from_pairs(dim, &a).unwrap();
        let sb = sparcml::stream::random_sparse::<f32>(dim, (dim / 8).max(1), b_seed);
        let policy = DensityPolicy::default();
        let pre_len = sa.stored_len() + sb.stored_len();
        let stats = sa.add_assign_with(&sb, &policy).unwrap();
        let delta = policy.delta::<f32>(dim);
        if stats.switched_to_dense {
            assert!(pre_len > delta);
        } else if sa.is_sparse() {
            assert!(pre_len <= delta);
        }
    }
}

/// Operands for the window-sum property: `m` streams of one dimension in
/// one of four support shapes, values small integers (so every summation
/// order gives the same bits). Some operands are empty in every shape.
fn fold_many_inputs<V: Scalar>(
    rng: &mut XorShift64,
    dim: usize,
    m: usize,
    shape: usize,
) -> Vec<SparseStream<V>> {
    let value = |rng: &mut XorShift64| V::from_f64(rng.next_below(9) as f64 - 4.0);
    let shared: Vec<u32> = (0..dim as u32).filter(|i| i % 5 == 2).collect();
    (0..m)
        .map(|r| {
            let indices: Vec<u32> = match shape {
                // Identical supports: K = k.
                0 => shared.clone(),
                // Ordered-disjoint ranges, one per operand.
                1 => {
                    let width = (dim / m.max(1)) as u32;
                    let lo = r as u32 * width;
                    (lo..lo + rng.next_below(width as u64 + 1) as u32).collect()
                }
                // Random overlap.
                _ => (0..dim as u32)
                    .filter(|_| rng.next_below(8) < shape as u64)
                    .collect(),
            };
            let indices = if rng.next_below(5) == 0 {
                Vec::new()
            } else {
                indices
            };
            let values = indices.iter().map(|_| value(rng)).collect();
            SparseStream::from_slabs(dim, indices, values).unwrap()
        })
        .collect()
}

/// The left fold in operand order, as the reference.
fn sequential_fold<V: Scalar>(
    parts: &[SparseStream<V>],
    policy: &DensityPolicy,
) -> SparseStream<V> {
    let mut acc = parts[0].clone();
    for part in &parts[1..] {
        acc.add_assign_with(part, policy).unwrap();
    }
    acc
}

/// The split phase's window sum against the never-densifying left fold:
/// the same operands restricted to one window — all of `[0, dim)`, none
/// of it, or a random part — sum to the same sparse stream, explicit
/// zeros included, and the window's frame is that stream's. Shape 8 gives
/// every operand the whole window, so every slot is occupied.
fn window_sum_equals_the_sequential_fold<V: Scalar>(seed: u64) {
    let mut rng = XorShift64::new(seed);
    for m in 1..=17usize {
        for (case, shape) in [0, 1, 2, 3, 8].into_iter().enumerate() {
            let dim = 32 + rng.next_below(200) as usize;
            let (lo, hi) = match (m + case) % 3 {
                0 => (0, dim as u32),
                1 => {
                    let at = rng.next_below(dim as u64 + 1) as u32;
                    (at, at)
                }
                _ => {
                    let lo = rng.next_below(dim as u64) as u32;
                    (lo, lo + 1 + rng.next_below((dim as u32 - lo) as u64) as u32)
                }
            };
            let parts: Vec<SparseStream<V>> = fold_many_inputs::<V>(&mut rng, dim, m, shape)
                .iter()
                .map(|part| part.restrict(lo, hi))
                .collect();
            let what = format!("m={m} shape={shape} window [{lo}, {hi}) of {dim}");
            let mut sum = WindowSum::new(dim, PartRange { lo, hi });
            let mut scattered = 0;
            for part in &parts {
                scattered += sum.add(part).unwrap();
            }
            let stored: usize = parts.iter().map(|part| part.stored_len()).sum();
            assert_eq!(scattered, stored, "{what}");
            let expect = sequential_fold(&parts, &DensityPolicy::never_densify());
            assert_eq!(sum.len(), expect.stored_len(), "{what}");
            let mut frame = Vec::new();
            sum.encode_into(&mut frame);
            let (mut indices, mut values) = (vec![0; sum.len()], vec![V::zero(); sum.len()]);
            let (entries, _) = sum.drain_into(&mut indices, &mut values);
            assert_eq!(entries, expect.stored_len(), "{what}");
            let got = SparseStream::from_slabs(dim, indices, values).unwrap();
            assert_eq!(got, expect, "{what}");
            assert_eq!(frame, expect.encode().as_ref(), "{what}");
            assert!(sum.is_empty(), "{what}");
        }
    }
}

#[test]
fn window_sum_equals_the_sequential_fold_f32() {
    window_sum_equals_the_sequential_fold::<f32>(33);
}

#[test]
fn window_sum_equals_the_sequential_fold_f64() {
    window_sum_equals_the_sequential_fold::<f64>(34);
}

#[test]
fn encode_decode_round_trip() {
    let mut rng = XorShift64::new(4);
    for case in 0..CASES {
        let (dim, pairs) = stream_inputs(&mut rng);
        let mut s = SparseStream::from_pairs(dim, &pairs).unwrap();
        if case % 2 == 0 {
            s.densify();
        }
        let bytes = s.encode();
        assert_eq!(bytes.len(), s.encoded_len());
        let back = SparseStream::<f32>::decode(&bytes).unwrap();
        assert_eq!(back, s);
    }
}

#[test]
fn slab_codec_round_trip_all_shapes() {
    // Sparse/dense × f32/f64, sweeping density from empty to full.
    let mut rng = XorShift64::new(40);
    for case in 0..CASES {
        let dim = 8 + rng.next_below(504) as usize;
        // Hit the edges explicitly: empty, a single entry, full density.
        let nnz = match case % 4 {
            0 => 0,
            1 => 1,
            2 => dim,
            _ => rng.next_below(dim as u64) as usize,
        };
        let mut idx: Vec<u32> = (0..dim as u32).collect();
        // Deterministic shuffle-truncate-sort to pick nnz distinct indices.
        for i in (1..idx.len()).rev() {
            let j = rng.next_below((i + 1) as u64) as usize;
            idx.swap(i, j);
        }
        idx.truncate(nnz);
        idx.sort_unstable();

        let vals32: Vec<f32> = idx.iter().map(|_| rng.next_gaussian() as f32).collect();
        let s32 = SparseStream::from_slabs(dim, idx.clone(), vals32).unwrap();
        let back = SparseStream::<f32>::decode(&s32.encode()).unwrap();
        assert_eq!(back, s32, "sparse f32 dim={dim} nnz={nnz}");

        let vals64: Vec<f64> = idx.iter().map(|_| rng.next_gaussian()).collect();
        let s64 = SparseStream::from_slabs(dim, idx.clone(), vals64).unwrap();
        let back = SparseStream::<f64>::decode(&s64.encode()).unwrap();
        assert_eq!(back, s64, "sparse f64 dim={dim} nnz={nnz}");

        let mut d32 = s32.clone();
        d32.densify();
        let back = SparseStream::<f32>::decode(&d32.encode()).unwrap();
        assert_eq!(back, d32, "dense f32 dim={dim}");

        let mut d64 = s64.clone();
        d64.densify();
        let back = SparseStream::<f64>::decode(&d64.encode()).unwrap();
        assert_eq!(back, d64, "dense f64 dim={dim}");
    }
}

#[test]
fn slab_codec_encode_into_is_stable_under_reuse() {
    // One reused buffer across frames of very different sizes must always
    // produce exactly the frame a fresh encode would.
    let mut rng = XorShift64::new(41);
    let mut buf = Vec::new();
    for _ in 0..CASES {
        let (dim, pairs) = stream_inputs(&mut rng);
        let mut s = SparseStream::from_pairs(dim, &pairs).unwrap();
        if rng.next_below(2) == 0 {
            s.densify();
        }
        s.encode_into(&mut buf);
        assert_eq!(buf.as_slice(), s.encode().as_ref());
        assert_eq!(buf.len(), s.encoded_len());
    }
}

/// Reference array-of-structs summation: a sorted `Vec<(u32, V)>` merged
/// entry by entry, the way the pre-SoA stream computed sums.
fn aos_reference_sum(dim: usize, a: &SparseStream<f32>, b: &SparseStream<f32>) -> Vec<f32> {
    let mut pairs: Vec<(u32, f32)> = Vec::new();
    for s in [a, b] {
        for (i, v) in s.iter_nonzero() {
            pairs.push((i, v));
        }
    }
    pairs.sort_by_key(|&(i, _)| i);
    let mut out = vec![0.0f32; dim];
    for (i, v) in pairs {
        out[i as usize] += v;
    }
    out
}

#[test]
fn soa_sum_equals_aos_reference_across_repr_switches() {
    // The SoA merge/scatter kernels must agree with the entry-by-entry
    // AoS reference for every repr combination, including the summations
    // that cross the δ threshold and switch representation mid-call.
    let mut rng = XorShift64::new(42);
    for case in 0..CASES {
        let (dim, a_pairs) = stream_inputs(&mut rng);
        // Push some cases past δ so the sparse+sparse path densifies.
        let b_nnz = if case % 3 == 0 {
            (dim * 2 / 3).max(1)
        } else {
            (dim / 6).max(1)
        };
        let mut sa = SparseStream::from_pairs(dim, &a_pairs).unwrap();
        let mut sb = sparcml::stream::random_sparse::<f32>(dim, b_nnz, rng.next_below(1 << 20));
        if case % 4 == 1 {
            sa.densify();
        }
        if case % 4 == 2 {
            sb.densify();
        }
        let expect = aos_reference_sum(dim, &sa, &sb);
        let stats = sa.add_assign(&sb).unwrap();
        sa.check_invariants().unwrap();
        assert_eq!(stats.result_dense, sa.is_dense());
        let got = sa.to_dense_vec();
        for (i, (g, e)) in got.iter().zip(&expect).enumerate() {
            assert!(
                (g - e).abs() <= 1e-3 * (1.0 + e.abs()),
                "case {case} coord {i}: {g} vs {e}"
            );
        }
    }
}

#[test]
fn decoded_frames_always_satisfy_invariants() {
    // Whatever bytes decode accepts must already satisfy the stream
    // invariants — the collectives rely on never re-validating.
    let mut rng = XorShift64::new(43);
    for _ in 0..CASES {
        let (dim, pairs) = stream_inputs(&mut rng);
        let s = SparseStream::from_pairs(dim, &pairs).unwrap();
        let decoded = SparseStream::<f32>::decode(&s.encode()).unwrap();
        decoded.check_invariants().unwrap();
    }
}

#[test]
fn malformed_frames_never_decode() {
    // Random single-byte corruptions either still decode to an
    // invariant-satisfying stream (value bytes) or fail with a typed
    // error — never an invalid stream, never a panic. Whatever decodes is
    // the one frame that encodes it. Up to half the dimension in entries,
    // the inputs cover both index codings.
    let accepted = |bytes: &[u8]| {
        if let Ok(decoded) = SparseStream::<f32>::decode(bytes) {
            decoded.check_invariants().unwrap();
            assert_eq!(decoded.encode().as_ref(), bytes);
        }
    };
    let mut rng = XorShift64::new(44);
    let mut elias_fano = 0;
    for _ in 0..CASES {
        let (dim, pairs) = stream_inputs(&mut rng);
        let s = SparseStream::from_pairs(dim, &pairs).unwrap();
        let bytes = s.encode().to_vec();
        elias_fano += usize::from(bytes[3] == 2);
        for _ in 0..8 {
            let mut corrupted = bytes.clone();
            let pos = rng.next_below(corrupted.len() as u64) as usize;
            corrupted[pos] ^= 1 << rng.next_below(8);
            accepted(&corrupted);
            // Truncations of the corrupted frame must also fail cleanly.
            let cut = rng.next_below(corrupted.len() as u64) as usize;
            accepted(&corrupted[..cut]);
        }
    }
    assert!(
        elias_fano >= CASES / 4,
        "{elias_fano} Elias–Fano-indexed frames"
    );
}

#[test]
fn no_support_encodes_larger_than_under_wire_v4() {
    // Wire v4's index: the gap slab, or a 16-byte base and span and a
    // bitmap of the span where that is strictly smaller.
    let varint_len = |gap: u32| {
        1 + (gap >= 1 << 7) as usize
            + (gap >= 1 << 14) as usize
            + (gap >= 1 << 21) as usize
            + (gap >= 1 << 28) as usize
    };
    let v4_index = |indices: &[u32]| {
        let gaps: usize = indices
            .iter()
            .enumerate()
            .map(|(i, &idx)| {
                varint_len(if i == 0 {
                    idx
                } else {
                    idx - indices[i - 1] - 1
                })
            })
            .sum();
        match (indices.first(), indices.last()) {
            (Some(&first), Some(&last)) => gaps.min(16 + (last - first) as usize / 8 + 1),
            _ => gaps,
        }
    };
    let mut rng = XorShift64::new(52);
    let (mut smaller, mut gap_coded) = (0, 0);
    for case in 0..600 {
        let dim = 1usize << (4 + 4 * (case % 7));
        let nnz = (rng.next_below(4_000) as usize).min(dim) >> (case % 5);
        let s: SparseStream<f32> = match case % 3 {
            0 => sparcml::stream::random_sparse(dim, nnz, rng.next_u64()),
            // Clustered runs, few and long to many and short.
            _ => {
                let runs = 1 + rng.next_below(nnz.max(1) as u64) as usize % 64;
                sparcml::stream::clustered_sparse(dim, nnz, runs, rng.next_u64())
            }
        };
        let indices = s.sparse_view().unwrap().indices();
        let v4 = 20 + 4 * s.nnz() + v4_index(indices);
        assert!(s.encoded_len() <= v4, "case {case}: dim {dim} nnz {nnz}");
        smaller += usize::from(s.encoded_len() < v4);
        gap_coded += usize::from(s.nnz() > 0 && s.encode()[3] == 0);
    }
    assert!(
        smaller > 300 && gap_coded > 30,
        "{smaller} smaller, {gap_coded} gap-coded"
    );
}

#[test]
fn restrict_partition_concat_is_identity() {
    let mut rng = XorShift64::new(5);
    for _ in 0..CASES {
        let (dim, pairs) = stream_inputs(&mut rng);
        let parts = 1 + rng.next_below(7) as usize;
        let s = SparseStream::from_pairs(dim, &pairs).unwrap();
        let restricted: Vec<SparseStream<f32>> = (0..parts)
            .map(|r| {
                let pr = sparcml::stream::partition_range(dim, parts, r);
                s.restrict(pr.lo, pr.hi)
            })
            .collect();
        let joined = SparseStream::concat_disjoint(&restricted).unwrap();
        assert_eq!(joined.to_dense_vec(), s.to_dense_vec());
    }
}

#[test]
fn below_delta_the_sparse_frame_is_never_the_larger_one() {
    let mut rng = XorShift64::new(6);
    for _ in 0..CASES {
        let (dim, pairs) = stream_inputs(&mut rng);
        let s = SparseStream::from_pairs(dim, &pairs).unwrap();
        let mut d = s.clone();
        d.densify();
        // δ is the in-memory equality; on the wire a sparse entry weighs
        // less than the 4 + isize it is derived from, so up to δ the
        // sparse frame wins, headers included. (Past δ it may still win:
        // the wire's own equality sits near 0.8·N for f32.)
        if s.stored_len() <= sparcml::stream::delta_raw::<f32>(dim) {
            assert!(s.encoded_len() <= d.encoded_len());
        }
    }
}

#[test]
fn a_sparse_frame_is_never_larger_than_its_u32_slab_form() {
    // Up to dim = 2^28 a gap needs at most 4 bytes, so gap-coding can
    // only shrink the 20 + nnz·(4 + isize) frame of a u32 index slab.
    let mut rng = XorShift64::new(16);
    for case in 0..CASES {
        let dim = 1usize << [4, 10, 20, 28][case % 4];
        let nnz = rng.next_below(dim.min(400) as u64) as usize;
        let s = sparcml::stream::random_sparse::<f32>(dim, nnz, rng.next_u64());
        assert!(s.encoded_len() <= 20 + nnz * 8, "dim {dim} nnz {nnz}");
        assert_eq!(s.encode().len(), s.encoded_len());
        let w = sparcml::stream::random_sparse::<f64>(dim, nnz, rng.next_u64());
        assert!(w.encoded_len() <= 20 + nnz * 12, "dim {dim} nnz {nnz}");
    }
    // The bound is met: one entry as far out as the dimension reaches.
    let far = SparseStream::from_pairs(1 << 28, &[((1 << 28) - 1, 1.0f32)]).unwrap();
    assert_eq!(far.encoded_len(), 20 + 8);
}

#[test]
fn scale_is_linear() {
    let mut rng = XorShift64::new(7);
    for _ in 0..CASES {
        let (dim, pairs) = stream_inputs(&mut rng);
        let factor = (rng.next_gaussian() * 2.0) as f32;
        let mut s = SparseStream::from_pairs(dim, &pairs).unwrap();
        let before = s.to_dense_vec();
        s.scale(factor);
        for (a, b) in s.to_dense_vec().iter().zip(&before) {
            assert!((a - b * factor).abs() < 1e-3 * (1.0 + b.abs()));
        }
    }
}

#[test]
fn qsgd_error_bounded_and_sign_preserving() {
    let mut rng = XorShift64::new(8);
    for _ in 0..CASES {
        let len = 1 + rng.next_below(299) as usize;
        let values: Vec<f32> = (0..len)
            .map(|_| (rng.next_gaussian() * 15.0) as f32)
            .collect();
        let bits = [2u8, 4, 8][rng.next_below(3) as usize];
        let seed = rng.next_below(500);
        let cfg = QsgdConfig {
            bits,
            bucket_size: 64,
            norm: NormKind::MaxAbs,
        };
        let q = quantize(&values, &cfg, &mut XorShift64::new(seed));
        let back = dequantize(&q);
        let s = ((1u16 << (bits - 1)) - 1) as f32;
        for (i, (a, b)) in values.iter().zip(&back).enumerate() {
            let bucket = i / cfg.bucket_size;
            let bound = q.scales[bucket] / s + 1e-5;
            assert!((a - b).abs() <= bound, "i={i}: |{a}-{b}| > {bound}");
            if *b != 0.0 {
                assert_eq!(a.signum(), b.signum());
            }
        }
    }
}

#[test]
fn f64_streams_round_trip() {
    let mut rng = XorShift64::new(9);
    for _ in 0..CASES {
        let (dim, pairs) = stream_inputs(&mut rng);
        let pairs64: Vec<(u32, f64)> = pairs.iter().map(|&(i, v)| (i, v as f64)).collect();
        let s = SparseStream::from_pairs(dim, &pairs64).unwrap();
        let back = SparseStream::<f64>::decode(&s.encode()).unwrap();
        assert_eq!(back, s);
    }
}

#[test]
fn topk_error_feedback_mass_conservation() {
    use sparcml::opt::{ErrorFeedback, TopKConfig};
    let mut rng = XorShift64::new(10);
    for _ in 0..32 {
        let dim = 32;
        let rounds = 1 + rng.next_below(9) as usize;
        let k = 1 + rng.next_below(3) as usize;
        let cfg = TopKConfig {
            k_per_bucket: k,
            bucket_size: 8,
        };
        let mut ef = ErrorFeedback::new(dim, cfg);
        let mut total = vec![0.0f32; dim];
        let mut sent = vec![0.0f32; dim];
        for _ in 0..rounds {
            let g: Vec<f32> = (0..dim)
                .map(|_| (rng.next_gaussian() * 3.0) as f32)
                .collect();
            for (t, gi) in total.iter_mut().zip(&g) {
                *t += *gi;
            }
            let s = ef.compress(&g);
            for (i, v) in s.iter_nonzero() {
                sent[i as usize] += v;
            }
            for i in 0..dim {
                let rec = sent[i] + ef.residual()[i];
                assert!(
                    (rec - total[i]).abs() < 1e-3,
                    "coord {i}: {rec} vs {}",
                    total[i]
                );
            }
        }
    }
}
