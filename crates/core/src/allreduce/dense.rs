//! Dense allreduce baselines: recursive doubling, Rabenseifner [44], and
//! ring. These are "the MPI allreduce implementation on the fully dense
//! vectors" that every experiment in §8 compares against.

use sparcml_net::Transport;
use sparcml_stream::{partition_range, Scalar, SparseStream};

use crate::allreduce::AllreduceConfig;
use crate::error::CollError;
use crate::op::{
    add_charged, exchange_stream, fold_to_pow2, pow2_below, subtag, tag, unfold_result, BufferPool,
    FoldRole,
};

/// Encodes a dense value block as a stream container (dim = block length)
/// into a pooled buffer — one bulk slab write, no intermediate stream.
fn encode_block<V: Scalar>(values: &[V], pool: &mut BufferPool) -> bytes::Bytes {
    let mut buf = pool.acquire();
    SparseStream::encode_dense_slice_into(values, &mut buf);
    bytes::Bytes::from(buf)
}

/// Decodes a dense value block, checking its length.
fn decode_block<V: Scalar>(bytes: &[u8], expect_len: usize) -> Result<Vec<V>, CollError> {
    let stream = SparseStream::<V>::decode(bytes)?;
    let values = stream.into_dense_vec();
    if values.len() != expect_len {
        return Err(CollError::Invalid(format!(
            "dense block length {} != expected {expect_len}",
            values.len()
        )));
    }
    Ok(values)
}

/// Dense recursive-doubling allreduce: `log2(P)` rounds, each exchanging
/// the full vector. `T = log2(P)·(α + N·βd)` plus reduction time.
pub(crate) fn dense_recursive_double<T: Transport, V: Scalar>(
    ep: &mut T,
    input: &SparseStream<V>,
    cfg: &AllreduceConfig,
    pool: &mut BufferPool,
) -> Result<SparseStream<V>, CollError> {
    let p = ep.size();
    let mut dense_input = input.clone();
    if dense_input.is_sparse() {
        ep.compute(dense_input.stored_len());
        dense_input.densify();
    }
    if p == 1 {
        return Ok(dense_input);
    }
    let op_id = ep.next_op_id();
    let role = fold_to_pow2(ep, op_id, &dense_input, &cfg.policy, pool)?;
    let result = match role {
        FoldRole::Active(mut acc) => {
            let p2 = pow2_below(p);
            let rank = ep.rank();
            for t in 0..p2.trailing_zeros() as usize {
                let peer = rank ^ (1 << t);
                let theirs =
                    exchange_stream(ep, peer, tag(op_id, subtag::ROUND + t as u64), &acc, pool)?;
                add_charged(ep, &mut acc, &theirs, &cfg.policy)?;
            }
            unfold_result(ep, op_id, Some(acc), pool)?
        }
        FoldRole::Parked => unfold_result::<_, V>(ep, op_id, None, pool)?,
    };
    Ok(result)
}

/// Rabenseifner's allreduce \[44\]: recursive-halving reduce-scatter followed
/// by recursive-doubling allgather. `T = 2·log2(P)·α + 2·(P−1)/P·N·βd`,
/// bandwidth-optimal for large dense vectors (§5.3.2).
pub(crate) fn dense_rabenseifner<T: Transport, V: Scalar>(
    ep: &mut T,
    input: &SparseStream<V>,
    cfg: &AllreduceConfig,
    pool: &mut BufferPool,
) -> Result<SparseStream<V>, CollError> {
    let p = ep.size();
    let dim = input.dim();
    let mut dense_input = input.clone();
    if dense_input.is_sparse() {
        ep.compute(dense_input.stored_len());
        dense_input.densify();
    }
    if p == 1 {
        return Ok(dense_input);
    }
    let op_id = ep.next_op_id();
    let role = fold_to_pow2(ep, op_id, &dense_input, &cfg.policy, pool)?;
    let result = match role {
        FoldRole::Active(acc) => {
            let p2 = pow2_below(p);
            let rank = ep.rank();
            let rounds = p2.trailing_zeros() as usize;
            let mut vals = acc.into_dense_vec();
            let (mut lo, mut hi) = (0usize, dim);
            // Block range before each halving round; needed to reconstruct
            // the partner's (possibly different-sized) block on the way up.
            let mut range_stack: Vec<(usize, usize)> = Vec::with_capacity(rounds);
            // Recursive halving: at round t, pair with a peer at distance
            // p2/2^(t+1); each side keeps the half of its current block
            // selected by the corresponding rank bit.
            for t in 0..rounds {
                let dist = p2 >> (t + 1);
                let peer = rank ^ dist;
                range_stack.push((lo, hi));
                let mid = lo + (hi - lo) / 2;
                let (keep, send) = if rank & dist == 0 {
                    ((lo, mid), (mid, hi))
                } else {
                    ((mid, hi), (lo, mid))
                };
                let payload = encode_block(&vals[send.0..send.1], pool);
                ep.send(peer, tag(op_id, subtag::ROUND + t as u64), payload)?;
                let incoming = ep.recv(peer, tag(op_id, subtag::ROUND + t as u64))?;
                let theirs: Vec<V> = decode_block(&incoming, keep.1 - keep.0)?;
                pool.recycle(incoming);
                for (slot, v) in vals[keep.0..keep.1].iter_mut().zip(theirs) {
                    *slot = slot.add(v);
                }
                ep.compute(keep.1 - keep.0);
                lo = keep.0;
                hi = keep.1;
            }
            // Recursive doubling allgather: reverse pairing order. The
            // partner holds the complement of my block within the combined
            // range recorded on the way down.
            for t in (0..rounds).rev() {
                let dist = p2 >> (t + 1);
                let peer = rank ^ dist;
                let (combined_lo, combined_hi) = range_stack.pop().expect("one range per round");
                let payload = encode_block(&vals[lo..hi], pool);
                ep.send(peer, tag(op_id, subtag::ROUND + 32 + t as u64), payload)?;
                let incoming = ep.recv(peer, tag(op_id, subtag::ROUND + 32 + t as u64))?;
                let (their_lo, their_hi) = if lo == combined_lo {
                    (hi, combined_hi)
                } else {
                    (combined_lo, lo)
                };
                let theirs: Vec<V> = decode_block(&incoming, their_hi - their_lo)?;
                pool.recycle(incoming);
                vals[their_lo..their_hi].copy_from_slice(&theirs);
                lo = combined_lo;
                hi = combined_hi;
            }
            debug_assert_eq!((lo, hi), (0, dim));
            unfold_result(ep, op_id, Some(SparseStream::from_dense(vals)), pool)?
        }
        FoldRole::Parked => unfold_result::<_, V>(ep, op_id, None, pool)?,
    };
    Ok(result)
}

/// Ring allreduce: `P−1` reduce-scatter steps plus `P−1` allgather steps on
/// `N/P`-sized partitions. `T = 2·(P−1)·(α + (N/P)·βd)`. Bandwidth-optimal,
/// latency-heavy at scale — "on a fast network and relatively small number
/// of nodes, the ring-based algorithm is faster th\[a\]n all other
/// algorithms, but does not give any speedup at high number of nodes" (§8.1).
pub(crate) fn dense_ring<T: Transport, V: Scalar>(
    ep: &mut T,
    input: &SparseStream<V>,
    cfg: &AllreduceConfig,
    pool: &mut BufferPool,
) -> Result<SparseStream<V>, CollError> {
    let _ = cfg;
    let p = ep.size();
    let dim = input.dim();
    let mut dense_input = input.clone();
    if dense_input.is_sparse() {
        ep.compute(dense_input.stored_len());
        dense_input.densify();
    }
    if p == 1 {
        return Ok(dense_input);
    }
    let op_id = ep.next_op_id();
    let rank = ep.rank();
    let next = (rank + 1) % p;
    let prev = (rank + p - 1) % p;
    let mut vals = dense_input.into_dense_vec();
    let range = |j: usize| partition_range(dim, p, j);

    // Reduce-scatter: partition j travels rank j → j+1 → …, accumulating.
    for step in 0..p - 1 {
        let send_idx = (rank + p - step) % p;
        let recv_idx = (rank + p - step - 1) % p;
        let sr = range(send_idx);
        let payload = encode_block(&vals[sr.lo as usize..sr.hi as usize], pool);
        ep.send(
            next,
            tag(op_id, subtag::RING + ((step as u64) << 8)),
            payload,
        )?;
        let incoming = ep.recv(prev, tag(op_id, subtag::RING + ((step as u64) << 8)))?;
        let rr = range(recv_idx);
        let theirs: Vec<V> = decode_block(&incoming, rr.len())?;
        pool.recycle(incoming);
        for (slot, v) in vals[rr.lo as usize..rr.hi as usize].iter_mut().zip(theirs) {
            *slot = slot.add(v);
        }
        ep.compute(rr.len());
    }
    // Allgather: forward fully reduced partitions around the ring.
    for step in 0..p - 1 {
        let send_idx = (rank + 1 + p - step) % p;
        let recv_idx = (rank + p - step) % p;
        let sr = range(send_idx);
        let payload = encode_block(&vals[sr.lo as usize..sr.hi as usize], pool);
        ep.send(
            next,
            tag(op_id, subtag::RING + 1 + ((step as u64) << 8)),
            payload,
        )?;
        let incoming = ep.recv(prev, tag(op_id, subtag::RING + 1 + ((step as u64) << 8)))?;
        let rr = range(recv_idx);
        let theirs: Vec<V> = decode_block(&incoming, rr.len())?;
        pool.recycle(incoming);
        vals[rr.lo as usize..rr.hi as usize].copy_from_slice(&theirs);
    }
    Ok(SparseStream::from_dense(vals))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::reference_sum;
    use sparcml_net::{max_virtual_time, run_cluster, CostModel, Endpoint};
    use sparcml_stream::random_sparse;

    type DenseAlgo = fn(
        &mut Endpoint,
        &SparseStream<f32>,
        &AllreduceConfig,
        &mut BufferPool,
    ) -> Result<SparseStream<f32>, CollError>;

    fn check(algo: DenseAlgo, p: usize, dim: usize) {
        let cfg = AllreduceConfig::default();
        let ins: Vec<SparseStream<f32>> = (0..p)
            .map(|r| random_sparse(dim, dim / 8, 900 + r as u64))
            .collect();
        let expect = reference_sum(&ins);
        let outs = run_cluster(p, CostModel::zero(), |ep| {
            algo(ep, &ins[ep.rank()], &cfg, &mut BufferPool::new()).unwrap()
        });
        for out in outs {
            let got = out.to_dense_vec();
            for (g, e) in got.iter().zip(expect.iter()) {
                assert!((g - e).abs() < 1e-3, "{g} vs {e} (P={p}, dim={dim})");
            }
        }
    }

    #[test]
    fn rec_dbl_correct() {
        check(dense_recursive_double, 8, 512);
        check(dense_recursive_double, 6, 300);
        check(dense_recursive_double, 1, 64);
    }

    #[test]
    fn rabenseifner_correct() {
        check(dense_rabenseifner, 8, 512);
        check(dense_rabenseifner, 4, 64);
        check(dense_rabenseifner, 16, 1024);
    }

    #[test]
    fn rabenseifner_correct_non_power_of_two() {
        check(dense_rabenseifner, 6, 300);
        check(dense_rabenseifner, 3, 90);
    }

    #[test]
    fn rabenseifner_correct_odd_dimension() {
        // Halving of odd-length blocks produces unequal halves; the
        // allgather must reconstruct partner block sizes exactly.
        check(dense_rabenseifner, 4, 15);
        check(dense_rabenseifner, 8, 1021);
        check(dense_rabenseifner, 2, 3);
    }

    #[test]
    fn ring_correct() {
        check(dense_ring, 8, 512);
        check(dense_ring, 5, 300);
        check(dense_ring, 2, 10);
        check(dense_ring, 1, 4);
    }

    #[test]
    fn rabenseifner_latency_is_2log2p_alpha() {
        let cfg = AllreduceConfig::default();
        let cost = CostModel {
            alpha: 1.0,
            beta: 0.0,
            gamma: 0.0,
            isend_alpha_fraction: 0.0,
        };
        let p = 8;
        let t = max_virtual_time(p, cost, |ep| {
            let input = SparseStream::from_dense(vec![0.0f32; 64]);
            dense_rabenseifner(ep, &input, &cfg, &mut BufferPool::new()).unwrap();
        });
        assert!((t - 6.0).abs() < 1e-9, "t = {t}, expected 2·log2(8) = 6");
    }

    #[test]
    fn rabenseifner_bandwidth_beats_rec_dbl_for_large_n() {
        let cfg = AllreduceConfig::default();
        let cost = CostModel {
            alpha: 0.0,
            beta: 1e-6,
            gamma: 0.0,
            isend_alpha_fraction: 0.0,
        };
        let p = 8;
        let dim = 1 << 14;
        let input = SparseStream::from_dense(vec![1.0f32; dim]);
        let t_rab = max_virtual_time(p, cost, |ep| {
            dense_rabenseifner(ep, &input, &cfg, &mut BufferPool::new()).unwrap();
        });
        let t_rd = max_virtual_time(p, cost, |ep| {
            dense_recursive_double(ep, &input, &cfg, &mut BufferPool::new()).unwrap();
        });
        // 2·(P−1)/P·N vs log2(P)·N: ratio ≈ 1.75/3.
        assert!(t_rab < t_rd, "rabenseifner {t_rab} vs rec_dbl {t_rd}");
    }

    #[test]
    fn ring_latency_grows_linearly() {
        let cfg = AllreduceConfig::default();
        let cost = CostModel {
            alpha: 1.0,
            beta: 0.0,
            gamma: 0.0,
            isend_alpha_fraction: 0.0,
        };
        let input = SparseStream::from_dense(vec![0.0f32; 64]);
        let t8 = max_virtual_time(8, cost, |ep| {
            dense_ring(ep, &input, &cfg, &mut BufferPool::new()).unwrap();
        });
        assert!((t8 - 14.0).abs() < 1e-9, "2·(P−1)·α = 14, got {t8}");
    }
}
