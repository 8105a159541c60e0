//! Rooted collectives: sparse `reduce` (to a root), `broadcast`, and
//! `reduce_scatter` (§5.2: "allreduce can be implemented in many ways,
//! for example, the nodes could collaborate to compute the result at a
//! single node (reduce) followed by a broadcast").
//!
//! These complete the MPI-like surface of the library; `reduce +
//! broadcast` is also a useful latency/bandwidth trade-off point that the
//! integration tests compare against the one-shot allreduce.
//! `reduce_scatter` is the split schedules' split phase on its own: the
//! same sends, and the same scatter of every owned entry into the owner's
//! window ([`sparcml_stream::WindowSum`]), so its work is one element
//! operation per entry an owner takes in.

use sparcml_net::Transport;
use sparcml_stream::{partition_range, Scalar, SparseStream};

use crate::allreduce::{reduce_partition, send_split_steps, AllreduceConfig};
use crate::error::CollError;
use crate::op::{add_charged, pow2_below, recv_stream, send_stream, subtag, tag, BufferPool};

/// Binomial-tree sparse reduce: the element-wise sum of all inputs lands
/// at `root`; other ranks receive an empty stream of the same dimension.
pub(crate) fn sparse_reduce<T: Transport, V: Scalar>(
    ep: &mut T,
    input: &SparseStream<V>,
    root: usize,
    cfg: &AllreduceConfig,
    pool: &mut BufferPool,
) -> Result<SparseStream<V>, CollError> {
    let p = ep.size();
    if root >= p {
        return Err(CollError::Invalid(format!(
            "root {root} out of range for {p} ranks"
        )));
    }
    if p == 1 {
        return Ok(input.clone());
    }
    let op_id = ep.next_op_id();
    // Rotate ranks so the root sits at virtual rank 0, then run a binomial
    // tree over virtual ranks (correct for any P).
    let vrank = (ep.rank() + p - root) % p;
    let mut acc = input.clone();
    let mut step = 1usize;
    while step < p {
        if vrank & step != 0 {
            // Send to the partner below and leave the tree.
            let dst = ((vrank - step) + root) % p;
            send_stream(
                ep,
                dst,
                tag(op_id, subtag::ROUND + step as u64),
                &acc,
                true,
                pool,
            )?;
            break;
        }
        if vrank + step < p {
            let src = ((vrank + step) + root) % p;
            let theirs =
                recv_stream::<_, V>(ep, src, tag(op_id, subtag::ROUND + step as u64), pool)?;
            add_charged(ep, &mut acc, &theirs, &cfg.policy)?;
        }
        step <<= 1;
    }
    if ep.rank() == root {
        Ok(acc)
    } else {
        Ok(SparseStream::zeros(input.dim()))
    }
}

/// Binomial-tree broadcast of a sparse stream from `root`. Non-root ranks
/// pass their (ignored) `input` only to convey the dimension.
pub(crate) fn sparse_broadcast<T: Transport, V: Scalar>(
    ep: &mut T,
    input: &SparseStream<V>,
    root: usize,
    pool: &mut BufferPool,
) -> Result<SparseStream<V>, CollError> {
    let p = ep.size();
    if root >= p {
        return Err(CollError::Invalid(format!(
            "root {root} out of range for {p} ranks"
        )));
    }
    if p == 1 {
        return Ok(input.clone());
    }
    let op_id = ep.next_op_id();
    let vrank = (ep.rank() + p - root) % p;
    // Receive from the parent (highest set bit), then forward downwards.
    let value = if vrank == 0 {
        input.clone()
    } else {
        let parent_v = vrank & (vrank - 1); // clear lowest set bit
        let parent = (parent_v + root) % p;
        let sub = vrank & vrank.wrapping_neg(); // lowest set bit = my level
        recv_stream::<_, V>(ep, parent, tag(op_id, subtag::ROUND + sub as u64), pool)?
    };
    // Forward to children (farthest first, so distant subtrees start
    // while we serialize the remaining sends — this keeps the total depth
    // at log2(P) rounds).
    let my_low = if vrank == 0 {
        pow2_below(p).max(1) << 1
    } else {
        vrank & vrank.wrapping_neg()
    };
    let mut step = pow2_below(p);
    while step >= 1 {
        if step < my_low {
            let child_v = vrank + step;
            if child_v < p {
                let child = (child_v + root) % p;
                send_stream(
                    ep,
                    child,
                    tag(op_id, subtag::ROUND + step as u64),
                    &value,
                    true,
                    pool,
                )?;
            }
        }
        step >>= 1;
    }
    // Keep the invariant: every rank returns the root's stream.
    if ep.rank() != root {
        value.check_invariants()?;
    }
    Ok(value)
}

/// Reduce-scatter over sparse streams: rank `i` receives the fully reduced
/// sub-vector for its dimension partition (support restricted to
/// `partition_range(dim, P, i)`, logical dimension preserved). This is
/// exactly the split phase of `SSAR_Split_allgather` exposed as a
/// first-class collective: each owner scatters the `P` sub-ranges of its
/// partition into a [`sparcml_stream::WindowSum`] — `γ` per entry taken
/// in, whatever `P` is — and drains it into fresh slabs. The result is
/// sparse at any fill-in. The drain is the result's extraction, uncharged
/// like every decode.
pub(crate) fn sparse_reduce_scatter<T: Transport, V: Scalar>(
    ep: &mut T,
    input: &SparseStream<V>,
    pool: &mut BufferPool,
) -> Result<SparseStream<V>, CollError> {
    let p = ep.size();
    if p == 1 {
        return Ok(input.clone());
    }
    let op_id = ep.next_op_id();
    send_split_steps(ep, input, op_id, 1..p, pool)?;
    let mut window = reduce_partition(ep, input, op_id, false, pool)?;
    let (mut indices, mut values) = (vec![0; window.len()], vec![V::zero(); window.len()]);
    window.drain_into(&mut indices, &mut values);
    Ok(SparseStream::from_slabs(input.dim(), indices, values)?)
}

/// Convenience: the partition owned by this rank for a given dimension.
pub fn my_partition<T: Transport>(ep: &T, dim: usize) -> (u32, u32) {
    let r = partition_range(dim, ep.size(), ep.rank());
    (r.lo, r.hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::reference_sum;
    use sparcml_net::{max_virtual_time, run_cluster, CostModel};
    use sparcml_stream::random_sparse;

    fn inputs(p: usize, dim: usize, nnz: usize) -> Vec<SparseStream<f32>> {
        (0..p)
            .map(|r| random_sparse(dim, nnz, 4400 + r as u64))
            .collect()
    }

    #[test]
    fn reduce_lands_sum_at_root_only() {
        let cfg = AllreduceConfig::default();
        for p in [2usize, 4, 5, 8] {
            for root in [0usize, p - 1] {
                let ins = inputs(p, 1024, 32);
                let expect = reference_sum(&ins);
                let outs = run_cluster(p, CostModel::zero(), |ep| {
                    sparse_reduce(ep, &ins[ep.rank()], root, &cfg, &mut BufferPool::new()).unwrap()
                });
                for (g, e) in outs[root].to_dense_vec().iter().zip(&expect) {
                    assert!((g - e).abs() < 1e-4, "P={p} root={root}");
                }
                for (r, out) in outs.iter().enumerate() {
                    if r != root {
                        assert_eq!(out.nnz(), 0, "non-root rank {r} should be empty");
                    }
                }
            }
        }
    }

    #[test]
    fn broadcast_replicates_root_stream() {
        for p in [2usize, 3, 4, 7, 8] {
            let root = p / 2;
            let payload = random_sparse::<f32>(2048, 64, 99);
            let outs = run_cluster(p, CostModel::zero(), |ep| {
                let input = if ep.rank() == root {
                    payload.clone()
                } else {
                    SparseStream::zeros(2048)
                };
                sparse_broadcast(ep, &input, root, &mut BufferPool::new()).unwrap()
            });
            for (r, out) in outs.iter().enumerate() {
                assert_eq!(out, &payload, "P={p} rank={r}");
            }
        }
    }

    #[test]
    fn reduce_scatter_partitions_the_sum() {
        let p = 4;
        let dim = 1000;
        let ins = inputs(p, dim, 100);
        let expect = reference_sum(&ins);
        let outs = run_cluster(p, CostModel::zero(), |ep| {
            let mine = sparse_reduce_scatter(ep, &ins[ep.rank()], &mut BufferPool::new()).unwrap();
            (ep.rank(), mine)
        });
        for (rank, mine) in outs {
            let range = partition_range(dim, p, rank);
            let got = mine.to_dense_vec();
            for i in 0..dim {
                let e = if range.contains(i as u32) {
                    expect[i]
                } else {
                    0.0
                };
                assert!((got[i] - e).abs() < 1e-4, "rank {rank} coord {i}");
            }
        }
    }

    #[test]
    fn reduce_scatter_work_is_k_log_p() {
        // Disjoint, partition-balanced supports (as `tests/paper_claims.rs`
        // builds them): every owner takes in ≈ k entries and scatters each once
        // into its window, so its work is exactly the entries of its
        // result — inside the k·⌈log2 P⌉ a merge tournament could take. A
        // left fold re-walks its accumulator P−1 times — ≈ k·P/2, i.e.
        // k·32 at P = 64.
        let (dim, k) = (1usize << 16, 512usize);
        for p in [2usize, 3, 5, 8, 16, 64] {
            let stride = dim / (p * k);
            let work = run_cluster(p, CostModel::zero(), |ep| {
                let r = ep.rank();
                let pairs: Vec<(u32, f32)> = (0..k)
                    .map(|i| (((i * p + r) * stride) as u32, 1.0))
                    .collect();
                let input = SparseStream::from_pairs(dim, &pairs).unwrap();
                let mine = sparse_reduce_scatter(ep, &input, &mut BufferPool::new()).unwrap();
                assert!(mine.is_sparse());
                (mine.nnz() as u64, ep.stats().snapshot().compute_elements)
            });
            let levels = p.next_power_of_two().ilog2() as u64;
            for (rank, (entries, elements)) in work.into_iter().enumerate() {
                assert_eq!(elements, entries, "P={p} rank {rank}");
                assert!(
                    elements <= k as u64 * levels,
                    "P={p} rank {rank}: {elements} element-ops for k={k}"
                );
            }
        }
    }

    #[test]
    fn reduce_then_broadcast_latency_is_2log2p() {
        let cost = CostModel {
            alpha: 1.0,
            beta: 0.0,
            gamma: 0.0,
            isend_alpha_fraction: 0.0,
        };
        let p = 8;
        let t = max_virtual_time(p, cost, |ep| {
            let input = SparseStream::<f32>::zeros(256);
            let pool = &mut BufferPool::new();
            let reduced = sparse_reduce(ep, &input, 0, &AllreduceConfig::default(), pool).unwrap();
            sparse_broadcast(ep, &reduced, 0, pool).unwrap();
        });
        // Binomial reduce log2(P)·α + binomial bcast log2(P)·α.
        assert!((t - 6.0).abs() < 1e-9, "t = {t}");
    }

    #[test]
    fn invalid_root_rejected() {
        let cfg = AllreduceConfig::default();
        let outs = run_cluster(2, CostModel::zero(), |ep| {
            let input = SparseStream::<f32>::zeros(16);
            sparse_reduce(ep, &input, 7, &cfg, &mut BufferPool::new()).is_err()
        });
        assert!(outs.iter().all(|&e| e));
    }

    #[test]
    fn my_partition_covers_dim() {
        let outs = run_cluster(3, CostModel::zero(), |ep| my_partition(ep, 10));
        let total: u32 = outs.iter().map(|(lo, hi)| hi - lo).sum();
        assert_eq!(total, 10);
    }
}
