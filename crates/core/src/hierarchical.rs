//! The two-level topology-aware allreduce ([`Algorithm::Hierarchical`]).
//!
//! On a multi-node cluster the intra-node links are far faster than the
//! inter-node links (§5.2 takes different α–β parameters per class), so a
//! flat schedule wastes the cheap links: every round crosses the slow
//! ones. The hierarchical schedule keeps inter-node traffic to the
//! minimum — one flat allreduce among *node leaders* — and handles
//! everything else on-node:
//!
//! ```text
//!   node 0: r0 r1 r2 r3          node 1: r4 r5 r6 r7
//!            \ | | /                      \ | | /
//!   (1) intra-node sparse reduce → leader (binomial tree, intra links)
//!             r0  ◄────────────────────►  r4
//!   (2) leader-level flat sparse allreduce (any §5.3 schedule, inter links)
//!            / | | \                      / | | \
//!   (3) intra-node broadcast of the global sum (binomial tree)
//! ```
//!
//! Each phase runs an *existing* collective unchanged over a
//! [`GroupTransport`] subgroup view — the node group for (1) and (3), the
//! leader group for (2) — so correctness is inherited from the flat
//! implementations, and the leader-stage algorithm is chosen recursively
//! by the §5.3 selector with the leaders' own `P`, `k` and the inter-node
//! cost model (or pinned via
//! [`AllreduceConfig::hier_leader_algorithm`]).

use sparcml_net::{GroupTransport, TopologyCostModel, Transport};
use sparcml_obs as obs;
use sparcml_stream::{Scalar, SparseStream};

use crate::allreduce::{dispatch, dispatch_flat, Algorithm, AllreduceConfig};
use crate::error::CollError;
use crate::op::BufferPool;
use crate::rooted::{sparse_broadcast, sparse_reduce};

/// Two-level hierarchical allreduce over the node placement of
/// [`AllreduceConfig::topology`]. Without one, or with a trivial one,
/// there is no hierarchy to exploit and the call runs the flat adaptive
/// path.
pub(crate) fn hierarchical_allreduce<T: Transport, V: Scalar>(
    ep: &mut T,
    input: &SparseStream<V>,
    cfg: &AllreduceConfig,
    pool: &mut BufferPool,
) -> Result<SparseStream<V>, CollError> {
    let p = ep.size();
    if p == 1 {
        return Ok(input.clone());
    }
    let topo = match &cfg.topology {
        Some(topo) if topo.size() != p => {
            return Err(CollError::Invalid(format!(
                "topology covers {} ranks but the communicator has {p}",
                topo.size()
            )));
        }
        Some(topo) if !topo.is_trivial() => topo,
        // No placement, one node, or one rank per node: run the flat
        // adaptive path. `resolve_auto` cannot bounce back here: it
        // selects Hierarchical only under a non-trivial topology.
        _ => return dispatch(ep, input, Algorithm::Auto, cfg, pool),
    };

    let rank = ep.rank();
    // Draw both tag scopes on *every* rank before any membership diverges,
    // keeping the base op-id counter rank-invariant (non-leaders never
    // construct the leader group, but must still account for its scope).
    let node_seq = ep.next_op_id();
    let lead_seq = ep.next_op_id();
    let group = topo.group_of(rank).to_vec();
    let leaders = topo.leaders();
    let is_leader = topo.is_leader(rank);
    let tcm = effective_topology_cost(ep, cfg);
    // Inner stages must not see the topology again (a leader-level Auto
    // re-selecting Hierarchical would recurse forever). Every other field
    // is `Copy`, so the topology itself is never cloned per call.
    let flat_cfg = AllreduceConfig {
        topology: None,
        topology_cost: None,
        ..*cfg
    };

    // The topology validated the groups, so the subgroup constructors
    // cannot fail; `expect` keeps the no-transport-loss invariant simple.
    let mut node = GroupTransport::with_scope(ep.detach(), group, node_seq)
        .expect("topology-derived node group is valid")
        .with_cost(tcm.intra);

    // Every fallible step reinstalls the base transport before returning,
    // so a failed phase leaves the communicator usable (and poisonable by
    // its own machinery) instead of silently holding a placeholder.
    macro_rules! bail_on_err {
        ($node:ident, $ep:ident, $result:expr) => {
            match $result {
                Ok(v) => v,
                Err(e) => {
                    *$ep = $node.into_parent();
                    return Err(e);
                }
            }
        };
    }

    // (1) Intra-node reduce: the node's sum lands at group rank 0 (the
    // leader); everyone else holds an empty stream of the right dimension.
    let reduced = {
        let _leg = obs::span(obs::Category::Phase, "hier-intra-reduce");
        bail_on_err!(
            node,
            ep,
            sparse_reduce(&mut node, input, 0, &flat_cfg, pool)
        )
    };

    // (2) Leader-level flat allreduce across nodes. The node view is
    // quiescent while its base is temporarily re-wrapped as the leader
    // group; non-leaders skip straight to the broadcast receive.
    let at_leader = if is_leader {
        let _leg = obs::span(obs::Category::Phase, "hier-leader-allreduce");
        let mut lead = GroupTransport::with_scope(node.parent_mut().detach(), leaders, lead_seq)
            .expect("topology-derived leader group is valid")
            .with_cost(tcm.inter);
        let summed = dispatch_flat(
            &mut lead,
            &reduced,
            cfg.hier_leader_algorithm,
            &flat_cfg,
            pool,
        );
        *node.parent_mut() = lead.into_parent();
        bail_on_err!(node, ep, summed)
    } else {
        reduced
    };

    // (3) Intra-node broadcast of the global sum from the leader.
    let out = {
        let _leg = obs::span(obs::Category::Phase, "hier-broadcast");
        bail_on_err!(node, ep, sparse_broadcast(&mut node, &at_leader, 0, pool))
    };
    *ep = node.into_parent();
    Ok(out)
}

/// The link-class cost model in force for a call: the explicit
/// [`AllreduceConfig::topology_cost`], else the transport's flat model on
/// the inter-node links beside the shared-memory intra-node default
/// ([`TopologyCostModel::from_flat`]).
pub(crate) fn effective_topology_cost<T: Transport>(
    ep: &T,
    cfg: &AllreduceConfig,
) -> TopologyCostModel {
    cfg.topology_cost
        .unwrap_or(TopologyCostModel::from_flat(*ep.cost()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allreduce::ssar_recursive_double;
    use crate::reference::reference_sum;
    use sparcml_net::{run_cluster, CostModel, Topology};
    use sparcml_stream::random_sparse;

    fn cfg_with(topo: Topology) -> AllreduceConfig {
        AllreduceConfig {
            topology: Some(topo),
            ..Default::default()
        }
    }

    #[test]
    fn two_by_four_matches_reference() {
        let p = 8;
        let ins: Vec<SparseStream<f32>> = (0..p)
            .map(|r| random_sparse(4096, 64, 7000 + r as u64))
            .collect();
        let expect = reference_sum(&ins);
        let cfg = cfg_with(Topology::uniform(2, 4).unwrap());
        let outs = run_cluster(p, CostModel::zero(), |ep| {
            hierarchical_allreduce(ep, &ins[ep.rank()], &cfg, &mut BufferPool::new()).unwrap()
        });
        for out in outs {
            for (g, e) in out.to_dense_vec().iter().zip(expect.iter()) {
                assert!((g - e).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn unequal_and_interleaved_nodes_work() {
        // Nodes {0,3,5}, {1,4}, {2}: non-uniform sizes, non-consecutive
        // ranks, one singleton node.
        let topo = Topology::from_groups(vec![vec![0, 3, 5], vec![1, 4], vec![2]]).unwrap();
        let p = 6;
        let ins: Vec<SparseStream<f32>> = (0..p)
            .map(|r| random_sparse(2000, 40, 7100 + r as u64))
            .collect();
        let expect = reference_sum(&ins);
        let cfg = cfg_with(topo);
        let outs = run_cluster(p, CostModel::zero(), |ep| {
            hierarchical_allreduce(ep, &ins[ep.rank()], &cfg, &mut BufferPool::new()).unwrap()
        });
        for out in outs {
            for (g, e) in out.to_dense_vec().iter().zip(expect.iter()) {
                assert!((g - e).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn trivial_topology_falls_back_to_flat() {
        let p = 4;
        let ins: Vec<SparseStream<f32>> = (0..p)
            .map(|r| random_sparse(1024, 16, 7200 + r as u64))
            .collect();
        let expect = reference_sum(&ins);
        for topo in [Topology::single_node(p), Topology::uniform(p, 1).unwrap()] {
            let cfg = cfg_with(topo);
            let outs = run_cluster(p, CostModel::zero(), |ep| {
                hierarchical_allreduce(ep, &ins[ep.rank()], &cfg, &mut BufferPool::new()).unwrap()
            });
            for out in outs {
                for (g, e) in out.to_dense_vec().iter().zip(expect.iter()) {
                    assert!((g - e).abs() < 1e-4);
                }
            }
        }
    }

    #[test]
    fn pinned_leader_algorithm_is_honored_and_exact_on_integers() {
        // Integer-valued inputs: every schedule sums them exactly, so the
        // hierarchical result must be bitwise-identical to the reference.
        let p = 8;
        let dim = 512;
        let ins: Vec<SparseStream<f32>> = (0..p)
            .map(|r| {
                let pairs: Vec<(u32, f32)> = (0..24)
                    .map(|i| (((r * 37 + i * 11) % dim) as u32, (1 + r + i) as f32))
                    .collect();
                SparseStream::from_pairs(dim, &pairs).unwrap()
            })
            .collect();
        let expect = reference_sum(&ins);
        for leader_algo in [Algorithm::SsarRecDbl, Algorithm::DenseRabenseifner] {
            let cfg = AllreduceConfig {
                topology: Some(Topology::uniform(4, 2).unwrap()),
                hier_leader_algorithm: leader_algo,
                ..Default::default()
            };
            let outs = run_cluster(p, CostModel::zero(), |ep| {
                hierarchical_allreduce(ep, &ins[ep.rank()], &cfg, &mut BufferPool::new()).unwrap()
            });
            for out in outs {
                let got = out.to_dense_vec();
                for (g, e) in got.iter().zip(expect.iter()) {
                    assert_eq!(g.to_bits(), e.to_bits(), "{leader_algo:?}");
                }
            }
        }
    }

    #[test]
    fn without_a_topology_it_is_the_flat_auto_path() {
        // Integer-valued inputs, so equality is bitwise.
        let p = 8;
        let ins: Vec<SparseStream<f32>> = (0..p)
            .map(|r| SparseStream::from_pairs(512, &[(9 * r as u32, 1.0 + r as f32), (500, 2.0)]))
            .collect::<Result<_, _>>()
            .unwrap();
        let cfg = AllreduceConfig::default();
        let run = |algo: Algorithm| {
            run_cluster(p, CostModel::aries(), |ep| {
                let out = dispatch(ep, &ins[ep.rank()], algo, &cfg, &mut BufferPool::new());
                (out.unwrap(), ep.stats().msgs_sent, ep.clock())
            })
        };
        assert_eq!(run(Algorithm::Hierarchical), run(Algorithm::Auto));
    }

    #[test]
    fn size_mismatch_is_rejected() {
        let cfg = cfg_with(Topology::uniform(2, 4).unwrap());
        let outs = run_cluster(2, CostModel::zero(), |ep| {
            let input = SparseStream::<f32>::zeros(64);
            hierarchical_allreduce(ep, &input, &cfg, &mut BufferPool::new()).is_err()
        });
        assert!(outs.iter().all(|&e| e));
    }

    #[test]
    fn world_collective_still_works_after_hierarchical() {
        let plain = AllreduceConfig::default();
        // The base op-id counter must stay rank-invariant through the
        // group phases: a flat collective issued right after must match.
        let p = 8;
        let ins: Vec<SparseStream<f32>> = (0..p)
            .map(|r| random_sparse(1024, 32, 7300 + r as u64))
            .collect();
        let expect = reference_sum(&ins);
        let cfg = cfg_with(Topology::uniform(2, 4).unwrap());
        let outs = run_cluster(p, CostModel::zero(), |ep| {
            let h =
                hierarchical_allreduce(ep, &ins[ep.rank()], &cfg, &mut BufferPool::new()).unwrap();
            let f =
                ssar_recursive_double(ep, &ins[ep.rank()], &plain, &mut BufferPool::new()).unwrap();
            (h, f)
        });
        for (h, f) in outs {
            for ((hg, fg), e) in h
                .to_dense_vec()
                .iter()
                .zip(f.to_dense_vec().iter())
                .zip(expect.iter())
            {
                assert!((hg - e).abs() < 1e-4);
                assert!((fg - e).abs() < 1e-4);
            }
        }
    }
}
