//! `SSAR_Split_allgather` — split + sparse allgather allreduce (§5.3.2).
//!
//! Phase 1 (*split*): the index space `[0, N)` is partitioned uniformly
//! across ranks; every rank splits its sparse vector and sends each
//! subrange directly to its owner. Each owner reduces the `P` received
//! sub-vectors, producing the final result for its partition. The `P`
//! sub-vectors are summed in rank order through a
//! [`TournamentSum`] — pairwise, in a binary-counter shape fixed by `P`
//! — so an owner taking in `n` entries pays at most `n·⌈log2 P⌉` element
//! operations (a left fold into one growing accumulator pays `≈ n·P/2`),
//! results are bit-identical on every transport, and each frame is merged
//! as it arrives while later ones are still in flight.
//!
//! Phase 2 (*sparse allgather*): partition results are gathered to all
//! ranks with a concatenating sparse allgather (partitions are disjoint
//! index ranges, so the "sum" is concatenation, §5.1).
//!
//! Latency is `L2(P) = (P−1)α + log2(P)α`; bandwidth lies between
//! `2·(P−1)/P·k·βs` and `P·k·βs`.

use std::ops::Range;

use sparcml_net::Transport;
use sparcml_stream::{partition_range, Scalar, SparseStream, TournamentSum};

use crate::allreduce::AllreduceConfig;
use crate::error::CollError;
use crate::op::{
    allgather_bytes, recv_stream, send_stream_range, subtag, sum_charged, tag, BufferPool,
};

/// Sends split-phase steps `steps` (a sub-range of `1..P`): step `s`
/// takes this rank's sub-range for rank `(rank + s) mod P` to its owner,
/// so senders walk destinations round-robin starting after their own
/// rank and do not all hammer rank 0 first. Each frame is encoded straight
/// from a borrowed slab view into a pooled buffer — no intermediate
/// stream, no per-message allocation. The one split-phase send loop of
/// both split schedules, and of `Auto`'s pass when it speculates on one.
pub(crate) fn send_split_steps<T: Transport, V: Scalar>(
    ep: &mut T,
    input: &SparseStream<V>,
    cfg: &AllreduceConfig,
    op_id: u64,
    steps: Range<usize>,
    pool: &mut BufferPool,
) -> Result<(), CollError> {
    let (p, rank) = (ep.size(), ep.rank());
    for step in steps {
        let dst = (rank + step) % p;
        let range = partition_range(input.dim(), p, dst);
        send_stream_range(
            ep,
            dst,
            tag(op_id, subtag::SPLIT),
            input,
            range,
            cfg.blocking_split_sends,
            pool,
        )?;
    }
    Ok(())
}

/// The receive half of the split phase: sums this rank's own sub-range
/// with the `P − 1` frames tagged `op_id` into its fully reduced
/// partition (support restricted to its range, logical dimension
/// preserved). Rank order, the own sub-range at its rank position: the
/// shape of the sum then depends on P alone (see the module docs).
fn reduce_partition<T: Transport, V: Scalar>(
    ep: &mut T,
    input: &SparseStream<V>,
    cfg: &AllreduceConfig,
    op_id: u64,
    pool: &mut BufferPool,
) -> Result<SparseStream<V>, CollError> {
    let (p, rank) = (ep.size(), ep.rank());
    let my_range = partition_range(input.dim(), p, rank);
    let mut sum = TournamentSum::new(cfg.policy);
    for src in 0..p {
        let part = if src == rank {
            input.restrict(my_range.lo, my_range.hi)
        } else {
            recv_stream::<_, V>(ep, src, tag(op_id, subtag::SPLIT), pool)?
        };
        sum_charged(ep, || Ok(((), sum.push(part)?)))?;
    }
    sum_charged(ep, || sum.finish())
}

/// Runs the split phase: scatter sub-ranges to their owners and reduce the
/// local partition ([`send_split_steps`] over every step, then
/// [`reduce_partition`]).
pub(crate) fn split_reduce_partition<T: Transport, V: Scalar>(
    ep: &mut T,
    input: &SparseStream<V>,
    cfg: &AllreduceConfig,
    op_id: u64,
    pool: &mut BufferPool,
) -> Result<SparseStream<V>, CollError> {
    send_split_steps(ep, input, cfg, op_id, 1..ep.size(), pool)?;
    reduce_partition(ep, input, cfg, op_id, pool)
}

/// Sparse split + sparse allgather allreduce. Works for any `P ≥ 1`.
pub(crate) fn ssar_split_allgather<T: Transport, V: Scalar>(
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
    send_split_steps(ep, input, cfg, op_id, 1..p, pool)?;
    ssar_receive_half(ep, input, cfg, op_id, op_id, pool)
}

/// Everything of `SSAR_Split_allgather` after the split-phase sends: the
/// partition reduced from the frames tagged `split_op`, then the sparse
/// allgather under `gather_op`. The pinned schedule passes its one op id
/// twice; `Auto`, whose pass sent the split frames, a fresh one for the
/// allgather.
pub(crate) fn ssar_receive_half<T: Transport, V: Scalar>(
    ep: &mut T,
    input: &SparseStream<V>,
    cfg: &AllreduceConfig,
    split_op: u64,
    gather_op: u64,
    pool: &mut BufferPool,
) -> Result<SparseStream<V>, CollError> {
    let mut mine = reduce_partition(ep, input, cfg, split_op, pool)?;
    // The partition result must be sparse for the concatenating allgather;
    // if fill-in forced it dense (the caller should have chosen DSAR), we
    // convert back, paying the scan.
    if mine.is_dense() {
        ep.compute(mine.dim());
        mine.sparsify();
    }
    let mut buf = pool.acquire();
    mine.encode_into(&mut buf);
    let blocks = allgather_bytes(ep, gather_op, bytes::Bytes::from(buf), pool)?;
    let parts: Vec<SparseStream<V>> = blocks
        .iter()
        .map(|b| SparseStream::decode(b))
        .collect::<Result<_, _>>()?;
    // Partitions arrive indexed by rank == increasing index ranges.
    let result = SparseStream::concat_disjoint(&parts)?;
    ep.compute(result.stored_len());
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::reference_sum;
    use sparcml_net::{max_virtual_time, run_cluster, CostModel};
    use sparcml_stream::random_sparse;

    fn check(p: usize, dim: usize, nnz: usize) {
        let cfg = AllreduceConfig::default();
        let ins: Vec<SparseStream<f32>> = (0..p)
            .map(|r| random_sparse(dim, nnz, 7 + r as u64))
            .collect();
        let expect = reference_sum(&ins);
        let outs = run_cluster(p, CostModel::zero(), |ep| {
            ssar_split_allgather(ep, &ins[ep.rank()], &cfg, &mut BufferPool::new()).unwrap()
        });
        for out in outs {
            let got = out.to_dense_vec();
            for (g, e) in got.iter().zip(expect.iter()) {
                assert!((g - e).abs() < 1e-4, "{g} vs {e} (P={p})");
            }
        }
    }

    #[test]
    fn correct_power_of_two() {
        check(8, 4096, 64);
    }

    #[test]
    fn correct_non_power_of_two() {
        check(5, 1000, 40);
        check(6, 2048, 32);
    }

    #[test]
    fn correct_overlapping_supports() {
        let cfg = AllreduceConfig::default();
        // All ranks share the same support: K = k.
        let p = 8;
        let dim = 1 << 14;
        let base = random_sparse::<f32>(dim, 100, 42);
        let expect = reference_sum(&vec![base.clone(); p]);
        let outs = run_cluster(p, CostModel::zero(), |ep| {
            ssar_split_allgather(ep, &base, &cfg, &mut BufferPool::new()).unwrap()
        });
        for out in outs {
            assert_eq!(out.nnz(), 100);
            let got = out.to_dense_vec();
            for (g, e) in got.iter().zip(expect.iter()) {
                assert!((g - e).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn densified_partition_is_sparsified_for_the_allgather() {
        let cfg = AllreduceConfig::default();
        // Rank 0's partition fills in past δ during the reduce (300 + 300
        // stored > 512) and goes dense; its owner converts it back for
        // the concatenating allgather. Rank 1's partition is empty.
        let p = 2;
        let dim = 1024;
        let supports = [(0u32, 300u32), (200, 500)];
        let outs = run_cluster(p, CostModel::zero(), |ep| {
            let (lo, hi) = supports[ep.rank()];
            let pairs: Vec<(u32, f32)> = (lo..hi).map(|i| (i, 1.0f32)).collect();
            let input = SparseStream::from_pairs(dim, &pairs).unwrap();
            let out = ssar_split_allgather(ep, &input, &cfg, &mut BufferPool::new()).unwrap();
            (out, ep.stats().snapshot().adaptive_densified)
        });
        for (rank, (out, densified)) in outs.into_iter().enumerate() {
            assert!(out.is_sparse());
            assert_eq!(out.nnz(), 500);
            for (i, v) in out.to_dense_vec().iter().enumerate() {
                let expect = match i {
                    0..=199 => 1.0,
                    200..=299 => 2.0,
                    300..=499 => 1.0,
                    _ => 0.0,
                };
                assert_eq!(*v, expect, "index {i}");
            }
            let expect_densified = if rank == 0 { 1 } else { 0 };
            assert_eq!(densified, expect_densified, "rank {rank}");
        }
    }

    #[test]
    fn latency_matches_l2() {
        let cfg = AllreduceConfig::default();
        // Empty inputs isolate latency: (P−1)α for the split (blocking
        // sends) + log2(P)α for the allgather.
        let cost = CostModel {
            alpha: 1.0,
            beta: 0.0,
            gamma: 0.0,
            isend_alpha_fraction: 0.0,
        };
        let p = 8;
        let t = max_virtual_time(p, cost, |ep| {
            let input = SparseStream::<f32>::zeros(1 << 16);
            ssar_split_allgather(ep, &input, &cfg, &mut BufferPool::new()).unwrap();
        });
        let l2 = (p - 1) as f64 + (p as f64).log2();
        assert!((t - l2).abs() < 1e-9, "t = {t}, L2 = {l2}");
    }

    #[test]
    fn split_phase_at_p64_fits_the_tournament_budget() {
        // P=64, k=1e4, N=2^20 on Aries: with each owner summing its 64
        // sub-ranges in 6 tournament levels the schedule takes ≈ 880
        // virtual µs; the left fold it replaced took ≈ 1 096.
        let cfg = AllreduceConfig::default();
        let (p, dim, k) = (64, 1 << 20, 10_000);
        let t = max_virtual_time(p, CostModel::aries(), |ep| {
            let input = random_sparse::<f32>(dim, k, 7 + ep.rank() as u64);
            ssar_split_allgather(ep, &input, &cfg, &mut BufferPool::new()).unwrap();
        });
        assert!(t <= 900e-6, "t = {t} s");
    }

    #[test]
    fn nonblocking_split_reduces_latency() {
        let cost = CostModel {
            alpha: 1.0,
            beta: 0.0,
            gamma: 0.0,
            isend_alpha_fraction: 0.1,
        };
        let p = 8;
        let blocking = AllreduceConfig {
            blocking_split_sends: true,
            ..Default::default()
        };
        let nonblocking = AllreduceConfig {
            blocking_split_sends: false,
            ..Default::default()
        };
        let zeros = SparseStream::<f32>::zeros(1 << 16);
        let time = |cfg: &AllreduceConfig| {
            max_virtual_time(p, cost, |ep| {
                ssar_split_allgather(ep, &zeros, cfg, &mut BufferPool::new()).unwrap();
            })
        };
        let (t_b, t_nb) = (time(&blocking), time(&nonblocking));
        assert!(t_nb < t_b, "nonblocking {t_nb} should beat blocking {t_b}");
    }
}
