//! User-facing allgather collectives (§5.2).
//!
//! `allgather` collects every rank's contribution at every rank. SparCML's
//! sparse allgather concatenates sparse streams — when contributions have
//! disjoint supports (e.g. distributed coordinate descent, §8.2, where
//! "the values calculated by each node lie in different slices of the
//! entire model vector") the gather *is* the reduction. Overlapping
//! supports are folded in rank order instead, so `allgather_sum` returns
//! the sequential reference sum on any input.

use sparcml_net::Transport;
use sparcml_stream::{DensityPolicy, Scalar, SparseStream};

use crate::error::CollError;
use crate::op::{allgather_bytes, BufferPool};

/// Gathers every rank's sparse stream to every rank (streams returned in
/// rank order). Latency `log2(P)·α` for power-of-two `P` (recursive
/// doubling), `(P−1)·α` otherwise (ring).
pub(crate) fn sparse_allgather<T: Transport, V: Scalar>(
    ep: &mut T,
    input: &SparseStream<V>,
    pool: &mut BufferPool,
) -> Result<Vec<SparseStream<V>>, CollError> {
    let op_id = ep.next_op_id();
    let mut buf = pool.acquire();
    input.encode_into(&mut buf);
    let blocks = allgather_bytes(ep, op_id, bytes::Bytes::from(buf), pool)?;
    blocks
        .iter()
        .map(|b| SparseStream::decode(b).map_err(CollError::from))
        .collect()
}

/// Gathers and sums sparse streams whose supports are disjoint: the result
/// is the element-wise sum, assembled by concatenation. Overlapping
/// supports fall back to a left fold in rank order under the default
/// density policy: the order [`crate::reference::reference_sum`] adds in,
/// so the sum is the reference's bit for bit.
pub(crate) fn sparse_allgather_sum<T: Transport, V: Scalar>(
    ep: &mut T,
    input: &SparseStream<V>,
    pool: &mut BufferPool,
) -> Result<SparseStream<V>, CollError> {
    let parts = sparse_allgather(ep, input, pool)?;
    // Try the cheap disjoint concatenation first; fall back to the fold.
    if let Ok(out) = SparseStream::concat_disjoint(&parts) {
        ep.compute(out.stored_len());
        return Ok(out);
    }
    let policy = DensityPolicy::default();
    let mut parts = parts.into_iter();
    let mut out = parts.next().expect("one block per rank");
    let mut processed = 0;
    for part in parts {
        processed += out.add_assign_with(&part, &policy)?.elements_processed;
    }
    ep.compute(processed);
    Ok(out)
}

/// Dense allgather: every rank contributes a dense block (e.g. its slice
/// of the model); all blocks are returned in rank order. This is the dense
/// baseline the SCD experiment compares against (§8.2).
pub(crate) fn dense_allgather<T: Transport, V: Scalar>(
    ep: &mut T,
    block: &[V],
    pool: &mut BufferPool,
) -> Result<Vec<Vec<V>>, CollError> {
    let op_id = ep.next_op_id();
    let mut buf = pool.acquire();
    SparseStream::encode_dense_slice_into(block, &mut buf);
    let blocks = allgather_bytes(ep, op_id, bytes::Bytes::from(buf), pool)?;
    blocks
        .iter()
        .map(|b| {
            SparseStream::<V>::decode(b)
                .map(|s| s.into_dense_vec())
                .map_err(CollError::from)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparcml_net::{max_virtual_time, run_cluster, CostModel};
    use sparcml_stream::random_sparse;

    #[test]
    fn sparse_allgather_returns_all_inputs() {
        let p = 8;
        let ins: Vec<SparseStream<f32>> =
            (0..p).map(|r| random_sparse(1024, 16, r as u64)).collect();
        let outs = run_cluster(p, CostModel::zero(), |ep| {
            sparse_allgather(ep, &ins[ep.rank()], &mut BufferPool::new()).unwrap()
        });
        for got in outs {
            assert_eq!(got.len(), p);
            for (r, s) in got.iter().enumerate() {
                assert_eq!(s, &ins[r]);
            }
        }
    }

    #[test]
    fn allgather_sum_disjoint_blocks() {
        let p = 4;
        let dim = 64;
        let outs = run_cluster(p, CostModel::zero(), |ep| {
            let lo = (ep.rank() * 16) as u32;
            let pairs: Vec<(u32, f32)> = (lo..lo + 16).map(|i| (i, i as f32)).collect();
            let input = SparseStream::from_pairs(dim, &pairs).unwrap();
            sparse_allgather_sum(ep, &input, &mut BufferPool::new()).unwrap()
        });
        for out in outs {
            // 64 explicit pairs (index 0 carries an explicit 0.0).
            assert_eq!(out.stored_len(), dim);
            for i in 0..dim as u32 {
                assert_eq!(out.get(i), i as f32);
            }
        }
    }

    #[test]
    fn allgather_sum_overlapping_blocks_falls_back_to_merge() {
        let p = 4;
        let outs = run_cluster(p, CostModel::zero(), |ep| {
            let input = SparseStream::from_pairs(32, &[(3, 1.0f32), (9, 1.0)]).unwrap();
            sparse_allgather_sum(ep, &input, &mut BufferPool::new()).unwrap()
        });
        for out in outs {
            assert_eq!(out.get(3), p as f32);
            assert_eq!(out.get(9), p as f32);
        }
    }

    #[test]
    fn dense_allgather_round_trips_blocks() {
        let p = 4;
        let outs = run_cluster(p, CostModel::zero(), |ep| {
            let block = vec![ep.rank() as f32; 8];
            dense_allgather(ep, &block, &mut BufferPool::new()).unwrap()
        });
        for got in outs {
            for (r, block) in got.iter().enumerate() {
                assert_eq!(block, &vec![r as f32; 8]);
            }
        }
    }

    #[test]
    fn sparse_allgather_latency_log2p() {
        let cost = CostModel {
            alpha: 1.0,
            beta: 0.0,
            gamma: 0.0,
            isend_alpha_fraction: 0.0,
        };
        let t = max_virtual_time(8, cost, |ep| {
            let input = SparseStream::<f32>::zeros(64);
            sparse_allgather(ep, &input, &mut BufferPool::new()).unwrap();
        });
        assert!((t - 3.0).abs() < 1e-9, "t = {t}");
    }
}
