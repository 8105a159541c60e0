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

use bytes::Bytes;
use sparcml_net::Transport;
use sparcml_quant::{dequantize, quantize, QuantizedVec};
use sparcml_stream::{partition_range, Scalar, SparseStream, XorShift64};

use crate::allreduce::ssar_split_ag::send_split_steps;
use crate::allreduce::AllreduceConfig;
use crate::error::CollError;
use crate::op::{allgather_bytes, recv_stream, subtag, tag, BufferPool};

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
    send_split_steps(ep, input, cfg, op_id, 1..p, pool)?;
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

    // --- Split phase: reduce own partition densely. ---
    let my_range = partition_range(dim, p, rank);
    let block_len = my_range.len();
    let mut block = vec![V::zero(); block_len];
    let scatter = |ep: &mut T, part: &SparseStream<V>, block: &mut [V]| {
        let mut n = 0usize;
        for (idx, val) in part.iter_nonzero() {
            let slot = &mut block[(idx - my_range.lo) as usize];
            *slot = slot.add(val);
            n += 1;
        }
        ep.compute(n);
    };
    let own = input.restrict(my_range.lo, my_range.hi);
    scatter(ep, &own, &mut block);
    for src in 0..p {
        if src == rank {
            continue;
        }
        let part = recv_stream::<_, V>(ep, src, tag(split_op, subtag::SPLIT), pool)?;
        scatter(ep, &part, &mut block);
    }

    // --- Dense allgather phase, optionally quantized. ---
    let mut buf = pool.acquire();
    let payload: Bytes = match &cfg.quant {
        None => {
            // Raw partition block, encoded straight from the slab.
            SparseStream::encode_dense_slice_into(&block, &mut buf);
            Bytes::from(buf)
        }
        Some(qcfg) => {
            let values: Vec<f32> = block.iter().map(|v| v.to_f64() as f32).collect();
            let mut rng = XorShift64::new(cfg.quant_seed.wrapping_add(rank as u64));
            let q = quantize(&values, qcfg, &mut rng);
            ep.compute(block_len); // quantization pass
            q.encode_into(&mut buf);
            Bytes::from(buf)
        }
    };
    let blocks = allgather_bytes(ep, gather_op, payload, pool)?;

    // --- Assemble the full dense result. ---
    let mut out = vec![V::zero(); dim];
    for (src, bytes) in blocks.iter().enumerate() {
        let range = partition_range(dim, p, src);
        match &cfg.quant {
            None => {
                let part = SparseStream::<V>::decode(bytes)?;
                let values = part.into_dense_vec();
                if values.len() != range.len() {
                    return Err(CollError::Invalid(format!(
                        "partition block from rank {src} has length {} != {}",
                        values.len(),
                        range.len()
                    )));
                }
                out[range.lo as usize..range.hi as usize].copy_from_slice(&values);
            }
            Some(_) => {
                let q = QuantizedVec::decode(bytes)?;
                if q.dim != range.len() {
                    return Err(CollError::Invalid(format!(
                        "quantized block from rank {src} has length {} != {}",
                        q.dim,
                        range.len()
                    )));
                }
                let values = dequantize(&q);
                for (i, v) in values.into_iter().enumerate() {
                    out[range.lo as usize + i] = V::from_f64(v as f64);
                }
            }
        }
    }
    ep.compute(dim); // assembly / dequantization pass
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
            ssar_split_allgather(ep, &mk(ep.rank()), &cfg, &mut BufferPool::new()).unwrap();
        });
        assert!(
            t_dsar < t_ssar,
            "DSAR ({t_dsar}) should beat SSAR ({t_ssar}) on dense results"
        );
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
