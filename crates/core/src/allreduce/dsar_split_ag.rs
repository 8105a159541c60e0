//! `DSAR_Split_allgather` — the dynamic variant that switches to a dense
//! representation (§5.3.3), with optional low-precision allgather (§6).
//!
//! The split phase is identical to `SSAR_Split_allgather`, but each rank
//! reduces its partition directly into a *dense* partition buffer
//! ("exploit[ing] the fact that every reduced split will become dense").
//! The second stage is then a dense allgather of partition blocks, which
//! can "leverage existing implementations, which are highly optimized".
//! When [`crate::AllreduceConfig::quant`] is set, each partition block is
//! QSGD-quantized before the allgather, shrinking the dense bandwidth term
//! by the quantization factor — this is exactly where the paper applies
//! low precision ("we employ the low-precision data representation only in
//! the second part of the DSAR Split allgather algorithm").
//!
//! The dense result is allocated first, and the split phase scatters
//! straight into this rank's window of it, `γ` per entry. It runs the split
//! schedules' one scatter loop ([`super::ssar_split_ag::scatter_split`])
//! without the occupancy bitmap `SSAR_Split_allgather` keeps, since this
//! window is the result itself, and takes its own sub-range first, while
//! the first frames fly. The allgather frame is encoded from that window,
//! and each peer's block is decoded straight into its own fixed window
//! while the allgather's next frame is in flight
//! ([`crate::op::allgather_bytes_with`]). No partition block is copied:
//! assembly costs `γ` per element of the `P − 1` peer blocks,
//! `γ·(N − N/P)`, overlapping the transfer. With quantization every rank
//! — the owner included — keeps the dequantized values of every block, so
//! all ranks hold the same result and assembly costs `γ·N`.

use bytes::Bytes;
use sparcml_net::Transport;
use sparcml_quant::{dequantize, quantize, QuantizedVec};
use sparcml_stream::{partition_range, Scalar, SparseStream, WindowSum, WireFrame, XorShift64};

use crate::allreduce::ssar_split_ag::{scatter_split, send_split_steps};
use crate::allreduce::AllreduceConfig;
use crate::error::CollError;
use crate::op::{allgather_bytes_with, BufferPool};

/// Sparse split + dense (optionally quantized) allgather allreduce.
/// Always returns a dense stream. Works for any `P ≥ 1`.
pub(crate) fn dsar_split_allgather<T: Transport, V: Scalar>(
    ep: &mut T,
    input: &SparseStream<V>,
    cfg: &AllreduceConfig,
    pool: &mut BufferPool,
) -> Result<SparseStream<V>, CollError> {
    let p = ep.size();
    if p == 1 {
        let mut out = input.clone();
        out.densify();
        return Ok(out);
    }
    let op_id = ep.next_op_id();
    // The split-phase sends are `SSAR_Split_allgather`'s, frame for frame.
    send_split_steps(ep, input, op_id, 1..p, pool)?;
    dsar_receive_half(ep, input, cfg, op_id, op_id, pool)
}

/// Everything of `DSAR_Split_allgather` after the split-phase sends: the
/// partition scattered densely from the frames tagged `split_op`, then the
/// dense allgather under `gather_op` (the same op id when pinned, a fresh
/// one after `Auto`'s pass sent the split frames).
pub(crate) fn dsar_receive_half<T: Transport, V: Scalar>(
    ep: &mut T,
    input: &SparseStream<V>,
    cfg: &AllreduceConfig,
    split_op: u64,
    gather_op: u64,
    pool: &mut BufferPool,
) -> Result<SparseStream<V>, CollError> {
    let (p, rank, dim) = (ep.size(), ep.rank(), input.dim());
    let window = |r: usize| {
        let range = partition_range(dim, p, r);
        range.lo as usize..range.hi as usize
    };

    // --- Split phase: reduce own partition densely, in place. ---
    let mut out = vec![V::zero(); dim];
    // The own sub-range first, while the first frames fly; then the peers'
    // in rank order.
    let (my_range, mine) = (partition_range(dim, p, rank), window(rank));
    let sources = std::iter::once(rank).chain((0..p).filter(|&src| src != rank));
    scatter_split(ep, input, split_op, sources, pool, |part| {
        WindowSum::add_to_slice(&mut out[mine.clone()], dim, my_range, part)
    })?;

    // --- Dense allgather phase, optionally quantized. ---
    let mut buf = pool.acquire();
    match &cfg.quant {
        // Raw partition block, encoded straight from its window.
        None => SparseStream::encode_dense_slice_into(&out[window(rank)], &mut buf),
        Some(qcfg) => {
            let values: Vec<f32> = out[window(rank)]
                .iter()
                .map(|v| v.to_f64() as f32)
                .collect();
            let mut rng = XorShift64::new(cfg.quant_seed.wrapping_add(rank as u64));
            let q = quantize(&values, qcfg, &mut rng);
            ep.compute(values.len()); // quantization pass
            q.encode_into(&mut buf);
        }
    }
    // Each block lands in its fixed window while the next frame flies.
    allgather_bytes_with(ep, gather_op, Bytes::from(buf), pool, |ep, src, block| {
        let slot = &mut out[window(src)];
        match &cfg.quant {
            // Reduced in place: nothing to copy.
            None if src == rank => return Ok(()),
            None => {
                let frame = WireFrame::<V>::parse(block)?;
                if !frame.is_dense() || frame.dim() != slot.len() {
                    return Err(CollError::Invalid(format!(
                        "partition block from rank {src} is not {} dense values",
                        slot.len()
                    )));
                }
                frame.read_dense_into(slot)?;
            }
            // Every rank, the owner too, keeps the dequantized values.
            Some(_) => {
                let q = QuantizedVec::decode(block)?;
                if q.dim != slot.len() {
                    return Err(CollError::Invalid(format!(
                        "quantized block from rank {src} has length {} != {}",
                        q.dim,
                        slot.len()
                    )));
                }
                for (s, v) in slot.iter_mut().zip(dequantize(&q)) {
                    *s = V::from_f64(v as f64);
                }
            }
        }
        ep.compute(slot.len()); // assembly / dequantization of one block
        Ok(())
    })?;
    Ok(SparseStream::from_dense(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allreduce::{ssar_split_allgather, AllreduceConfig};
    use crate::reference::reference_sum;
    use sparcml_net::{max_virtual_time, run_cluster, CostModel};
    use sparcml_quant::QsgdConfig;
    use sparcml_stream::random_sparse;

    fn check(p: usize, dim: usize, nnz: usize) {
        let cfg = AllreduceConfig::default();
        let ins: Vec<SparseStream<f32>> = (0..p)
            .map(|r| random_sparse(dim, nnz, 31 + r as u64))
            .collect();
        let expect = reference_sum(&ins);
        let outs = run_cluster(p, CostModel::zero(), |ep| {
            dsar_split_allgather(ep, &ins[ep.rank()], &cfg, &mut BufferPool::new()).unwrap()
        });
        for out in outs {
            assert!(out.is_dense());
            let got = out.to_dense_vec();
            for (g, e) in got.iter().zip(expect.iter()) {
                assert!((g - e).abs() < 1e-4, "{g} vs {e} (P={p})");
            }
        }
    }

    #[test]
    fn correct_power_of_two() {
        check(8, 4096, 200);
    }

    #[test]
    fn correct_non_power_of_two() {
        check(5, 1000, 100);
    }

    #[test]
    fn quantized_variant_is_close() {
        let p = 4;
        let dim = 4096;
        let ins: Vec<SparseStream<f32>> = (0..p)
            .map(|r| random_sparse(dim, 400, 77 + r as u64))
            .collect();
        let expect = reference_sum(&ins);
        let cfg = AllreduceConfig {
            quant: Some(QsgdConfig {
                bits: 8,
                bucket_size: 256,
                ..QsgdConfig::paper_default()
            }),
            ..Default::default()
        };
        let outs = run_cluster(p, CostModel::zero(), |ep| {
            dsar_split_allgather(ep, &ins[ep.rank()], &cfg, &mut BufferPool::new()).unwrap()
        });
        // Max error per entry is bounded by bucket_scale / levels; verify a
        // loose global bound relative to the max summed magnitude.
        let max_abs = expect.iter().fold(0.0f32, |m, v| m.max(v.abs()));
        for out in outs {
            let got = out.to_dense_vec();
            for (g, e) in got.iter().zip(expect.iter()) {
                assert!((g - e).abs() <= max_abs / 127.0 + 1e-3, "{g} vs {e}");
            }
        }
    }

    #[test]
    fn all_ranks_agree_on_quantized_result() {
        // Quantization is stochastic but happens once per partition owner,
        // so every rank must receive the *same* quantized result.
        let p = 4;
        let ins: Vec<SparseStream<f32>> =
            (0..p).map(|r| random_sparse(2048, 300, r as u64)).collect();
        let cfg = AllreduceConfig {
            quant: Some(QsgdConfig::paper_default()),
            ..Default::default()
        };
        let outs = run_cluster(p, CostModel::zero(), |ep| {
            dsar_split_allgather(ep, &ins[ep.rank()], &cfg, &mut BufferPool::new()).unwrap()
        });
        for out in &outs[1..] {
            assert_eq!(out, &outs[0]);
        }
    }

    #[test]
    fn quantization_shrinks_allgather_bytes() {
        let p = 4;
        let dim = 1 << 16;
        let ins: Vec<SparseStream<f32>> =
            (0..p).map(|r| random_sparse(dim, 4096, r as u64)).collect();
        let bytes_for = |quant: Option<QsgdConfig>| {
            let cfg = AllreduceConfig {
                quant,
                ..Default::default()
            };
            let stats = run_cluster(p, CostModel::zero(), |ep| {
                dsar_split_allgather(ep, &ins[ep.rank()], &cfg, &mut BufferPool::new()).unwrap();
                ep.stats().bytes_sent
            });
            stats.iter().sum::<u64>()
        };
        let dense = bytes_for(None);
        let q4 = bytes_for(Some(QsgdConfig::with_bits(4)));
        // 4-bit codes vs 32-bit floats: allgather stage shrinks ~8x; the
        // split stage is unchanged, so total must shrink at least 3x here.
        assert!(q4 * 3 < dense, "dense {dense} vs 4-bit {q4}");
    }

    #[test]
    fn dsar_beats_ssar_when_result_is_dense() {
        let cfg = AllreduceConfig::default();
        // Dense fill-in: disjoint supports covering everything.
        let p = 8;
        let dim = 1 << 14;
        let per = dim / p;
        let cost = CostModel::aries();
        let mk = |rank: usize| {
            let pairs: Vec<(u32, f32)> = ((rank * per) as u32..((rank + 1) * per) as u32)
                .map(|i| (i, 1.0))
                .collect();
            SparseStream::from_pairs(dim, &pairs).unwrap()
        };
        let t_dsar = max_virtual_time(p, cost, |ep| {
            dsar_split_allgather(ep, &mk(ep.rank()), &cfg, &mut BufferPool::new()).unwrap();
        });
        let t_ssar = max_virtual_time(p, cost, |ep| {
            ssar_split_allgather(ep, &mk(ep.rank()), &mut BufferPool::new()).unwrap();
        });
        assert!(
            t_dsar < t_ssar,
            "DSAR ({t_dsar}) should beat SSAR ({t_ssar}) on dense results"
        );
    }

    /// `k` indices of `dim`, one uniform draw from each of `k` buckets
    /// that tile it — a uniform support's fill-in without a hash set.
    fn spread(dim: usize, k: usize, seed: u64) -> SparseStream<f32> {
        let mut rng = XorShift64::new(seed);
        let pairs: Vec<(u32, f32)> = (0..k)
            .map(|j| {
                let (lo, hi) = (j * dim / k, (j + 1) * dim / k);
                (lo as u32 + rng.next_below((hi - lo) as u64) as u32, 1.0)
            })
            .collect();
        SparseStream::from_pairs(dim, &pairs).unwrap()
    }

    #[test]
    fn both_split_schedules_overlap_assembly_with_the_gather() {
        // Aries, N = 2^20, virtual µs. Each gathered block is placed while
        // the next allgather frame flies, and DSAR copies no own block.
        // Each DSAR bound sits below what its point reads when assembly
        // follows the whole allgather instead (1 730.6 / 1 696.1 /
        // 1 566.1). SSAR's owner scatters into its window and drains it
        // behind round 0's frame: at P = 8 it reads 701.5 at k = 1e5 and
        // 106.3 at k = 1e4 (856 and 124 summing in a merge tournament).
        // P = 5 and 12 take the ring allgather.
        let cfg = AllreduceConfig::default();
        let dim = 1 << 20;
        let time = |p: usize, k: usize, dsar: bool| {
            let ins: Vec<SparseStream<f32>> =
                (0..p).map(|r| spread(dim, k, 77 + r as u64)).collect();
            max_virtual_time(p, CostModel::aries(), |ep| {
                let (input, pool) = (&ins[ep.rank()], &mut BufferPool::new());
                if dsar {
                    dsar_split_allgather(ep, input, &cfg, pool).unwrap();
                } else {
                    ssar_split_allgather(ep, input, pool).unwrap();
                }
            }) * 1e6
        };
        for (p, k, dsar, bound_us) in [
            (8usize, 100_000usize, false, 710.0),
            (8, 10_000, false, 108.0),
            (5, 100_000, false, 550.0),
            (12, 10_000, false, 170.0),
            (8, 300_000, true, 1_300.0),
            (5, 300_000, true, 1_300.0),
            (12, 100_000, true, 1_200.0),
        ] {
            let t = time(p, k, dsar);
            assert!(t <= bound_us, "P={p} k={k} dsar={dsar}: {t} µs");
        }
    }

    #[test]
    fn single_rank_returns_dense_copy() {
        let cfg = AllreduceConfig::default();
        let input = random_sparse::<f32>(256, 16, 5);
        let outs = run_cluster(1, CostModel::zero(), |ep| {
            dsar_split_allgather(ep, &input, &cfg, &mut BufferPool::new()).unwrap()
        });
        assert!(outs[0].is_dense());
        assert_eq!(outs[0].to_dense_vec(), input.to_dense_vec());
    }
}
