//! In-process cluster harness: spawns one thread per rank, wires all-to-all
//! channels between them, and runs a caller-supplied rank program.
//!
//! This is the stand-in for the paper's MPI job launch. Threads exchange
//! real messages (the collectives execute their true communication
//! schedules); *time* is virtual, driven by the [`CostModel`], so results
//! are deterministic and model the paper's target networks.

use crossbeam::channel::unbounded;

use crate::cost::CostModel;
use crate::endpoint::{Endpoint, WireMsg};

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
    assert!(size > 0, "cluster needs at least one rank");
    let mut txs = Vec::with_capacity(size);
    let mut rxs = Vec::with_capacity(size);
    for _ in 0..size {
        let (tx, rx) = unbounded::<WireMsg>();
        txs.push(tx);
        rxs.push(rx);
    }
    let endpoints: Vec<Endpoint> = rxs
        .into_iter()
        .enumerate()
        .map(|(rank, rx)| Endpoint::new(rank, size, txs.clone(), rx, cost))
        .collect();
    // Drop the original senders so channels disconnect once all ranks exit.
    drop(txs);

    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = endpoints
            .into_iter()
            .enumerate()
            .map(|(rank, mut ep)| {
                scope.spawn(move || {
                    let out = f(&mut ep);
                    (rank, out)
                })
            })
            .collect();
        let mut results: Vec<Option<R>> = (0..size).map(|_| None).collect();
        let mut panicked: Option<usize> = None;
        for (i, handle) in handles.into_iter().enumerate() {
            match handle.join() {
                Ok((rank, out)) => results[rank] = Some(out),
                Err(_) => panicked = panicked.or(Some(i)),
            }
        }
        if let Some(rank) = panicked {
            panic!("rank {rank} panicked inside run_cluster");
        }
        results
            .into_iter()
            .map(|r| r.expect("all ranks returned"))
            .collect()
    })
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
    #[should_panic(expected = "panicked inside run_cluster")]
    fn rank_panic_propagates() {
        run_cluster(2, CostModel::zero(), |ep| {
            if ep.rank() == 1 {
                panic!("boom");
            }
        });
    }
}
