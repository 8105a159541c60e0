//! The dense allreduce baseline: Rabenseifner's schedule [44], "the MPI
//! allreduce implementation on the fully dense vectors" that every
//! experiment in §8 compares against. (Recursive doubling on a dense input
//! is `SSAR_Recursive_double`, whose merges run dense past δ.)

use sparcml_net::Transport;
use sparcml_stream::{Scalar, SparseStream, WireFrame};

use crate::allreduce::AllreduceConfig;
use crate::error::CollError;
use crate::op::{fold_to_pow2, pow2_below, subtag, tag, unfold_result, BufferPool, FoldRole};

/// Encodes a dense value block as a stream container (dim = block length)
/// into a pooled buffer — one bulk slab write, no intermediate stream.
fn encode_block<V: Scalar>(values: &[V], pool: &mut BufferPool) -> bytes::Bytes {
    let mut buf = pool.acquire();
    SparseStream::encode_dense_slice_into(values, &mut buf);
    bytes::Bytes::from(buf)
}

/// Parses a dense value block, checking its length, so its values can be
/// read straight off the frame.
fn dense_block<V: Scalar>(bytes: &[u8], expect_len: usize) -> Result<WireFrame<'_, V>, CollError> {
    let frame = WireFrame::parse(bytes)?;
    if !frame.is_dense() || frame.dim() != expect_len {
        return Err(CollError::Invalid(format!(
            "block is not the {expect_len} dense values expected"
        )));
    }
    Ok(frame)
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
    // The one N-sized copy: the fold takes it, and the rounds work in it.
    if input.is_sparse() {
        ep.compute(input.stored_len());
    }
    let dense_input = SparseStream::from_dense(input.to_dense_vec());
    if p == 1 {
        return Ok(dense_input);
    }
    let op_id = ep.next_op_id();
    let role = fold_to_pow2(ep, op_id, dense_input, &cfg.policy, pool)?;
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
                dense_block(&incoming, keep.1 - keep.0)?
                    .add_dense_into(&mut vals[keep.0..keep.1])?;
                pool.recycle(incoming);
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
                dense_block(&incoming, their_hi - their_lo)?
                    .read_dense_into(&mut vals[their_lo..their_hi])?;
                pool.recycle(incoming);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::reference_sum;
    use sparcml_net::{max_virtual_time, run_cluster, CostModel};
    use sparcml_stream::random_sparse;

    fn check(p: usize, dim: usize) {
        let cfg = AllreduceConfig::default();
        let ins: Vec<SparseStream<f32>> = (0..p)
            .map(|r| random_sparse(dim, dim / 8, 900 + r as u64))
            .collect();
        let expect = reference_sum(&ins);
        let outs = run_cluster(p, CostModel::zero(), |ep| {
            dense_rabenseifner(ep, &ins[ep.rank()], &cfg, &mut BufferPool::new()).unwrap()
        });
        for out in outs {
            let got = out.to_dense_vec();
            for (g, e) in got.iter().zip(expect.iter()) {
                assert!((g - e).abs() < 1e-3, "{g} vs {e} (P={p}, dim={dim})");
            }
        }
    }

    #[test]
    fn rabenseifner_correct() {
        check(8, 512);
        check(4, 64);
        check(16, 1024);
    }

    #[test]
    fn rabenseifner_correct_non_power_of_two() {
        check(6, 300);
        check(3, 90);
    }

    #[test]
    fn rabenseifner_correct_odd_dimension() {
        // Halving of odd-length blocks produces unequal halves; the
        // allgather must reconstruct partner block sizes exactly.
        check(4, 15);
        check(8, 1021);
        check(2, 3);
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
        // Recursive doubling on a dense input is the sparse schedule,
        // whose frames are dense from the first round.
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
            crate::allreduce::ssar_recursive_double(ep, &input, &cfg, &mut BufferPool::new())
                .unwrap();
        });
        // 2·(P−1)/P·N vs log2(P)·N: ratio ≈ 1.75/3.
        assert!(t_rab < t_rd, "rabenseifner {t_rab} vs rec_dbl {t_rd}");
    }
}
