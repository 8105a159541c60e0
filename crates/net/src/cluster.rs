//! In-process cluster harness: one thread per rank, all-to-all links
//! between them, and a caller-supplied rank program.
//!
//! This is the stand-in for the paper's MPI job launch. [`run_ranks`] is
//! the one spawn / join / re-panic harness behind [`run_cluster`],
//! [`crate::run_thread_cluster`] and
//! [`crate::run_reactor_loopback_cluster`]; they differ only in what a
//! rank is seated with. Under [`run_cluster`] threads exchange real
//! messages (the collectives execute their true communication schedules)
//! while *time* is virtual, driven by the [`CostModel`], so results are
//! deterministic and model the paper's target networks.

use crate::cost::CostModel;
use crate::endpoint::Endpoint;
use crate::transport::Transport;

/// Runs `f(rank, seat)` on one scoped thread per seat and returns the
/// results in rank order. Each thread owns its seat — a transport, or
/// what it takes to build one — so a rank that returns *or panics* drops
/// its session and its peers see it disconnect instead of waiting for it.
///
/// A panic in any rank program propagates (naming the lowest such rank)
/// after all threads have been joined.
pub(crate) fn run_ranks<S, R, F>(seats: Vec<S>, f: F) -> Vec<R>
where
    S: Send,
    R: Send,
    F: Fn(usize, S) -> R + Sync,
{
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = seats
            .into_iter()
            .enumerate()
            .map(|(rank, seat)| scope.spawn(move || f(rank, seat)))
            .collect();
        let joined: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
        if let Some(rank) = joined.iter().position(|out| out.is_err()) {
            panic!("rank {rank} panicked inside the cluster");
        }
        joined.into_iter().flatten().collect()
    })
}

/// Runs `f` once per rank on `size` concurrent rank threads and returns the
/// per-rank results, indexed by rank.
///
/// Panics in any rank program propagate (with the rank id) after all
/// threads have been joined.
pub fn run_cluster<R, F>(size: usize, cost: CostModel, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(&mut Endpoint) -> R + Sync,
{
    run_ranks(Endpoint::connect(size, cost), |_, mut ep| f(&mut ep))
}

/// Runs a collective program on every rank and returns the *virtual
/// completion time* of the operation: the maximum final clock across ranks.
pub fn max_virtual_time<F>(size: usize, cost: CostModel, f: F) -> f64
where
    F: Fn(&mut Endpoint) + Sync,
{
    run_cluster(size, cost, |ep| {
        f(ep);
        ep.clock()
    })
    .into_iter()
    .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    #[test]
    fn results_are_indexed_by_rank() {
        let out = run_cluster(8, CostModel::zero(), |ep| ep.rank() * 10);
        assert_eq!(out, vec![0, 10, 20, 30, 40, 50, 60, 70]);
    }

    #[test]
    fn single_rank_cluster_works() {
        let out = run_cluster(1, CostModel::zero(), |ep| ep.size());
        assert_eq!(out, vec![1]);
    }

    #[test]
    fn ring_pass_visits_everyone() {
        let size = 5;
        let out = run_cluster(size, CostModel::zero(), |ep| {
            let next = (ep.rank() + 1) % size;
            let prev = (ep.rank() + size - 1) % size;
            ep.send(next, 0, Bytes::from(vec![ep.rank() as u8]))
                .unwrap();
            let got = ep.recv(prev, 0).unwrap();
            got[0] as usize
        });
        for (rank, got) in out.iter().enumerate() {
            assert_eq!(*got, (rank + size - 1) % size);
        }
    }

    #[test]
    fn max_virtual_time_takes_slowest_rank() {
        let cost = CostModel {
            alpha: 1.0,
            beta: 0.0,
            gamma: 1.0,
            isend_alpha_fraction: 0.0,
        };
        let t = max_virtual_time(4, cost, |ep| {
            // Rank r does r element ops: slowest is 3.
            ep.compute(ep.rank());
        });
        assert_eq!(t, 3.0);
    }

    #[test]
    #[should_panic(expected = "rank 1 panicked inside the cluster")]
    fn rank_panic_propagates() {
        run_cluster(2, CostModel::zero(), |ep| {
            if ep.rank() == 1 {
                panic!("boom");
            }
        });
    }
}
