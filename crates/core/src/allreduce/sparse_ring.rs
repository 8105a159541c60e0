//! Sparse ring allreduce — the "sparse counterpart" of the ring-based MPI
//! dense allreduce that Fig. 3 compares against.
//!
//! Identical schedule to [`crate::allreduce::dense_ring`] (P−1
//! reduce-scatter steps + P−1 allgather steps over dimension partitions)
//! but every partition travels in sparse stream format, so step cost
//! scales with partition fill rather than `N/P`.

use sparcml_net::Transport;
use sparcml_stream::{partition_range, Scalar, SparseStream};

use crate::allreduce::AllreduceConfig;
use crate::error::CollError;
use crate::op::{add_charged, recv_stream, send_stream, subtag, tag, BufferPool};

/// Sparse ring allreduce. Works for any `P ≥ 1`.
pub(crate) fn sparse_ring<T: Transport, V: Scalar>(
    ep: &mut T,
    input: &SparseStream<V>,
    cfg: &AllreduceConfig,
    pool: &mut BufferPool,
) -> Result<SparseStream<V>, CollError> {
    let p = ep.size();
    if p == 1 {
        return Ok(input.clone());
    }
    let op_id = ep.next_op_id();
    let rank = ep.rank();
    let dim = input.dim();
    let next = (rank + 1) % p;
    let prev = (rank + p - 1) % p;

    // Per-partition sparse accumulators.
    let mut parts: Vec<SparseStream<V>> = (0..p)
        .map(|j| {
            let r = partition_range(dim, p, j);
            input.restrict(r.lo, r.hi)
        })
        .collect();

    // Reduce-scatter: partition j starts at rank j and accumulates while
    // travelling the ring; after P−1 steps rank r owns partition (r+1)%p.
    for step in 0..p - 1 {
        let send_idx = (rank + p - step) % p;
        let recv_idx = (rank + p - step - 1) % p;
        let t = tag(op_id, subtag::RING + ((step as u64) << 8));
        send_stream(ep, next, t, &parts[send_idx], true, pool)?;
        let incoming = recv_stream::<_, V>(ep, prev, t, pool)?;
        let acc = &mut parts[recv_idx];
        add_charged(ep, acc, &incoming, &cfg.policy)?;
    }
    // Partitions must be sparse for the concatenation at the end.
    let owned = (rank + 1) % p;
    if parts[owned].is_dense() {
        ep.compute(dim);
        parts[owned].sparsify();
    }
    // Allgather: circulate the reduced partitions.
    for step in 0..p - 1 {
        let send_idx = (rank + 1 + p - step) % p;
        let recv_idx = (rank + p - step) % p;
        let t = tag(op_id, subtag::RING + 1 + ((step as u64) << 8));
        send_stream(ep, next, t, &parts[send_idx], true, pool)?;
        parts[recv_idx] = recv_stream::<_, V>(ep, prev, t, pool)?;
    }
    let result = SparseStream::concat_disjoint(&parts)?;
    ep.compute(result.stored_len());
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allreduce::dense_ring;
    use crate::reference::reference_sum;
    use sparcml_net::{max_virtual_time, run_cluster, CostModel};
    use sparcml_stream::random_sparse;

    fn check(p: usize, dim: usize, nnz: usize) {
        let cfg = AllreduceConfig::default();
        let ins: Vec<SparseStream<f32>> = (0..p)
            .map(|r| random_sparse(dim, nnz, 55 + r as u64))
            .collect();
        let expect = reference_sum(&ins);
        let outs = run_cluster(p, CostModel::zero(), |ep| {
            sparse_ring(ep, &ins[ep.rank()], &cfg, &mut BufferPool::new()).unwrap()
        });
        for out in outs {
            let got = out.to_dense_vec();
            for (g, e) in got.iter().zip(expect.iter()) {
                assert!((g - e).abs() < 1e-4, "{g} vs {e} (P={p})");
            }
        }
    }

    #[test]
    fn correct_various_sizes() {
        check(8, 4096, 64);
        check(5, 1000, 50);
        check(2, 100, 10);
        check(1, 64, 4);
    }

    #[test]
    fn sparse_ring_cheaper_than_dense_ring_at_low_density() {
        let cfg = AllreduceConfig::default();
        let cost = CostModel {
            alpha: 0.0,
            beta: 1e-6,
            gamma: 0.0,
            isend_alpha_fraction: 0.0,
        };
        let p = 8;
        let dim = 1 << 14;
        let ins: Vec<SparseStream<f32>> =
            (0..p).map(|r| random_sparse(dim, 64, r as u64)).collect();
        let t_sparse = max_virtual_time(p, cost, |ep| {
            sparse_ring(ep, &ins[ep.rank()], &cfg, &mut BufferPool::new()).unwrap();
        });
        let t_dense = max_virtual_time(p, cost, |ep| {
            dense_ring(ep, &ins[ep.rank()], &cfg, &mut BufferPool::new()).unwrap();
        });
        assert!(
            t_sparse * 4.0 < t_dense,
            "sparse ring {t_sparse} should be ≫ cheaper than dense ring {t_dense}"
        );
    }
}
