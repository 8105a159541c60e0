//! Group semantics: `Communicator::split`, subgroup collectives on every
//! transport, nested splits, concurrent sibling groups, engines and
//! `Auto` on subgroups.

use sparcml::core::reference::reference_sum;
use sparcml::core::{select_algorithm, Algorithm, Communicator};
use sparcml::engine::{CommunicatorEngineExt, EngineConfig};
use sparcml::net::{
    run_cluster, run_reactor_loopback_cluster, run_thread_cluster, CostModel, Transport,
    TransportConfig,
};
use sparcml::stream::{random_sparse, SparseStream};

/// Reference sum over a subset of the cluster's inputs.
fn group_reference(ins: &[SparseStream<f32>], members: &[usize]) -> Vec<f32> {
    let subset: Vec<SparseStream<f32>> = members.iter().map(|&r| ins[r].clone()).collect();
    reference_sum(&subset)
}

// --- split semantics -----------------------------------------------------

#[test]
fn split_runs_full_parity_matrix_inside_subgroups() {
    // P = 7 split by parity: groups {0,2,4,6} (size 4) and {1,3,5}
    // (size 3, non-pow2). Every flat algorithm must reproduce the
    // subgroup reference inside its group.
    let p = 7;
    let dim = 1024;
    let ins: Vec<SparseStream<f32>> = (0..p)
        .map(|r| random_sparse(dim, 48, 9000 + r as u64))
        .collect();
    for algo in Algorithm::ALL {
        let outs = run_cluster(p, CostModel::zero(), |ep| {
            let comm = Communicator::new(ep.detach());
            let world_rank = comm.rank();
            let mut sub = comm.split((world_rank % 2) as u64).unwrap();
            let out = sub
                .allreduce(&ins[world_rank])
                .algorithm(algo)
                .launch()
                .and_then(|h| h.wait())
                .unwrap();
            let members = sub.transport().members().to_vec();
            *ep = sub.into_parent().into_transport();
            (members, out)
        });
        for (rank, (members, out)) in outs.iter().enumerate() {
            let expect = group_reference(&ins, members);
            assert!(members.contains(&rank));
            for (g, e) in out.to_dense_vec().iter().zip(expect.iter()) {
                assert!((g - e).abs() < 1e-4, "{algo:?} rank {rank}");
            }
        }
    }
}

#[test]
fn split_works_on_thread_transport() {
    let p = 6;
    let dim = 2048;
    let ins: Vec<SparseStream<f32>> = (0..p)
        .map(|r| random_sparse(dim, 64, 9100 + r as u64))
        .collect();
    let outs = run_thread_cluster(p, |tp| {
        let comm = Communicator::new(tp.detach());
        let world_rank = comm.rank();
        let mut sub = comm.split((world_rank % 2) as u64).unwrap();
        let out = sub
            .allreduce(&ins[world_rank])
            .algorithm(Algorithm::SsarSplitAllgather)
            .launch()
            .and_then(|h| h.wait())
            .unwrap();
        let members = sub.transport().members().to_vec();
        *tp = sub.into_parent().into_transport();
        (members, out)
    });
    for (rank, (members, out)) in outs.iter().enumerate() {
        let expect = group_reference(&ins, members);
        for (g, e) in out.to_dense_vec().iter().zip(expect.iter()) {
            assert!((g - e).abs() < 1e-4, "rank {rank}");
        }
    }
}

#[test]
fn split_works_on_socket_transport() {
    let p = 6;
    let dim = 2048;
    let ins: Vec<SparseStream<f32>> = (0..p)
        .map(|r| random_sparse(dim, 64, 9200 + r as u64))
        .collect();
    let outs = run_reactor_loopback_cluster(
        p,
        CostModel::loopback_tcp(),
        TransportConfig::default(),
        |tp| {
            let comm = Communicator::new(tp.detach());
            let world_rank = comm.rank();
            let mut sub = comm.split((world_rank % 2) as u64).unwrap();
            // Auto on a subgroup: the k-agreement and selection run over
            // the group view.
            let out = sub
                .allreduce(&ins[world_rank])
                .launch()
                .and_then(|h| h.wait())
                .unwrap();
            let members = sub.transport().members().to_vec();
            *tp = sub.into_parent().into_transport();
            (members, out)
        },
    );
    for (rank, (members, out)) in outs.iter().enumerate() {
        let expect = group_reference(&ins, members);
        for (g, e) in out.to_dense_vec().iter().zip(expect.iter()) {
            assert!((g - e).abs() < 1e-4, "rank {rank}");
        }
    }
}

#[test]
fn singleton_groups_collectives_are_local() {
    let p = 4;
    let outs = run_cluster(p, CostModel::zero(), |ep| {
        let comm = Communicator::new(ep.detach());
        let world_rank = comm.rank();
        let input = random_sparse::<f32>(256, 16, 9300 + world_rank as u64);
        let mut sub = comm.split(world_rank as u64).unwrap();
        let out = sub
            .allreduce(&input)
            .algorithm(Algorithm::SsarRecDbl)
            .launch()
            .and_then(|h| h.wait())
            .unwrap();
        let size = sub.size();
        *ep = sub.into_parent().into_transport();
        (size, out == input)
    });
    for (size, same) in outs {
        assert_eq!(size, 1);
        assert!(same, "a singleton group's allreduce is the identity");
    }
}

#[test]
fn nested_splits_then_world_collective() {
    // 8 ranks → halves {0..3}, {4..7} → quarters {0,1}, {2,3}, …; run a
    // collective at every level, then dissolve back and verify a flat
    // world collective still matches (op-id counters stayed aligned).
    let p = 8;
    let dim = 512;
    let ins: Vec<SparseStream<f32>> = (0..p)
        .map(|r| random_sparse(dim, 32, 9400 + r as u64))
        .collect();
    let world_expect = reference_sum(&ins);
    let outs = run_cluster(p, CostModel::zero(), |ep| {
        let comm = Communicator::new(ep.detach());
        let world_rank = comm.rank();
        let mut half = comm.split((world_rank / 4) as u64).unwrap();
        let half_out = half
            .allreduce(&ins[world_rank])
            .algorithm(Algorithm::SsarSplitAllgather)
            .launch()
            .and_then(|h| h.wait())
            .unwrap();
        let half_members: Vec<usize> = half.transport().members().to_vec();
        let mut quarter = half.split((world_rank % 4 / 2) as u64).unwrap();
        let quarter_out = quarter
            .allreduce(&ins[world_rank])
            .algorithm(Algorithm::SsarRecDbl)
            .launch()
            .and_then(|h| h.wait())
            .unwrap();
        // Quarter members are half-group ranks; translate to world ranks.
        let quarter_members: Vec<usize> = quarter
            .transport()
            .members()
            .iter()
            .map(|&g| half_members[g])
            .collect();
        let mut comm = quarter.into_parent().into_parent();
        let world_out = comm
            .allreduce(&ins[world_rank])
            .algorithm(Algorithm::SsarSplitAllgather)
            .launch()
            .and_then(|h| h.wait())
            .unwrap();
        *ep = comm.into_transport();
        (
            half_members,
            half_out,
            quarter_members,
            quarter_out,
            world_out,
        )
    });
    for (rank, (hm, ho, qm, qo, wo)) in outs.iter().enumerate() {
        for (g, e) in ho.to_dense_vec().iter().zip(group_reference(&ins, hm)) {
            assert!((g - e).abs() < 1e-4, "half group, rank {rank}");
        }
        for (g, e) in qo.to_dense_vec().iter().zip(group_reference(&ins, qm)) {
            assert!((g - e).abs() < 1e-4, "quarter group, rank {rank}");
        }
        for (g, e) in wo.to_dense_vec().iter().zip(world_expect.iter()) {
            assert!((g - e).abs() < 1e-4, "world after nesting, rank {rank}");
        }
    }
}

#[test]
fn concurrent_sibling_groups_do_not_cross_talk() {
    // Real threads: the two sibling groups genuinely run concurrently and
    // issue *different* collective sequences (different counts and kinds),
    // so any tag leakage across groups would mis-match frames or deadlock.
    let p = 8;
    let dim = 1024;
    let ins: Vec<SparseStream<f32>> = (0..p)
        .map(|r| random_sparse(dim, 40, 9500 + r as u64))
        .collect();
    let world_expect = reference_sum(&ins);
    let outs = run_thread_cluster(p, |tp| {
        let comm = Communicator::new(tp.detach());
        let world_rank = comm.rank();
        let color = (world_rank % 2) as u64;
        let mut sub = comm.split(color).unwrap();
        let members = sub.transport().members().to_vec();
        let out = if color == 0 {
            // Group A: three chained allreduces.
            let mut acc = ins[world_rank].clone();
            for algo in [
                Algorithm::SsarRecDbl,
                Algorithm::DsarSplitAllgather,
                Algorithm::SsarSplitAllgather,
            ] {
                acc = sub
                    .allreduce(&ins[world_rank])
                    .algorithm(algo)
                    .launch()
                    .and_then(|h| h.wait())
                    .unwrap();
            }
            acc
        } else {
            // Group B: reduce → broadcast → one allreduce.
            let reduced = sub
                .reduce(&ins[world_rank], 0)
                .launch()
                .and_then(|h| h.wait())
                .unwrap();
            let bcast = sub
                .broadcast(&reduced, 0)
                .launch()
                .and_then(|h| h.wait())
                .unwrap();
            drop(bcast);
            sub.allreduce(&ins[world_rank])
                .algorithm(Algorithm::DenseRabenseifner)
                .launch()
                .and_then(|h| h.wait())
                .unwrap()
        };
        // Back to the world: a flat collective must still line up.
        let mut comm = sub.into_parent();
        let world_out = comm
            .allreduce(&ins[world_rank])
            .algorithm(Algorithm::SsarRecDbl)
            .launch()
            .and_then(|h| h.wait())
            .unwrap();
        *tp = comm.into_transport();
        (members, out, world_out)
    });
    for (rank, (members, out, world_out)) in outs.iter().enumerate() {
        let expect = group_reference(&ins, members);
        for (g, e) in out.to_dense_vec().iter().zip(expect.iter()) {
            assert!((g - e).abs() < 1e-4, "group result, rank {rank}");
        }
        for (g, e) in world_out.to_dense_vec().iter().zip(world_expect.iter()) {
            assert!((g - e).abs() < 1e-4, "world result, rank {rank}");
        }
    }
}

#[test]
fn split_orders_unequal_interleaved_colors_by_rank() {
    // Colors of unequal group sizes, interleaved and out of rank order:
    // each group is its members in ascending rank, whatever its color.
    let colors = [1, 0, 1, 0, 1, 1];
    let outs = run_cluster(6, CostModel::zero(), |ep| {
        let comm = Communicator::new(ep.detach());
        let color = colors[comm.rank()];
        let sub = comm.split(color).unwrap();
        let members = sub.transport().members().to_vec();
        *ep = sub.into_parent().into_transport();
        members
    });
    assert_eq!(outs[1], vec![1, 3]);
    assert_eq!(outs[0], vec![0, 2, 4, 5]);
    assert_eq!(outs[5], vec![0, 2, 4, 5]);
}

// --- engine on a subgroup -------------------------------------------------

#[test]
fn engine_submits_onto_split_communicators() {
    // Each sibling group runs its own progress engine concurrently (real
    // threads); fused group submissions must reduce within the subgroup
    // only, and the world session must still work afterwards.
    let p = 6;
    let dim = 1500;
    let ins: Vec<SparseStream<f32>> = (0..p)
        .map(|r| random_sparse(dim, 50, 9800 + r as u64))
        .collect();
    let world_expect = reference_sum(&ins);
    let outs = run_thread_cluster(p, |tp| {
        let comm = Communicator::new(tp.detach());
        let world_rank = comm.rank();
        let mut sub = comm.split((world_rank % 2) as u64).unwrap();
        let members = sub.transport().members().to_vec();
        let mut engine = sub.engine(EngineConfig::default());
        let t0 = engine.submit_allreduce(&ins[world_rank]);
        let t1 = engine.submit_allreduce(&ins[world_rank]);
        let first = t0.wait().unwrap();
        let second = t1.wait().unwrap();
        engine.finish_into(&mut sub).unwrap();
        let mut comm = sub.into_parent();
        let world_out = comm
            .allreduce(&ins[world_rank])
            .algorithm(Algorithm::SsarRecDbl)
            .launch()
            .and_then(|h| h.wait())
            .unwrap();
        *tp = comm.into_transport();
        (members, first, second, world_out)
    });
    for (rank, (members, first, second, world_out)) in outs.iter().enumerate() {
        let expect = group_reference(&ins, members);
        for out in [first, second] {
            for (g, e) in out.to_dense_vec().iter().zip(expect.iter()) {
                assert!((g - e).abs() < 1e-4, "engine result, rank {rank}");
            }
        }
        for (g, e) in world_out.to_dense_vec().iter().zip(world_expect.iter()) {
            assert!((g - e).abs() < 1e-4, "world after engine, rank {rank}");
        }
    }
}

// --- Auto's in-schedule agreement on nested transports ---------------------

/// `ins[rank]` with `nnz` non-zeros per rank (dense when `None`).
fn auto_inputs(p: usize, dim: usize, nnz: Option<usize>) -> Vec<SparseStream<f32>> {
    (0..p)
        .map(|r| {
            let mut s = random_sparse(dim, nnz.unwrap_or(dim / 2), 9850 + r as u64);
            if nnz.is_none() {
                s.densify();
            }
            s
        })
        .collect()
}

#[test]
fn auto_on_a_subgroup_is_bitwise_the_pinned_pick() {
    // P = 7 split by parity: a power-of-two group and one that folds.
    // Auto's agreement pass runs over the `GroupTransport`; it must give
    // the pinned pick's bits whether the pass was the collective (small
    // k) or only agreed (large k, dense).
    let p = 7;
    let dim = 1 << 13;
    let cost = CostModel::aries();
    for nnz in [Some(1), Some(64), Some(5_000), None] {
        let ins = auto_inputs(p, dim, nnz);
        let outs = run_cluster(p, cost, |ep| {
            let comm = Communicator::new(ep.detach());
            let world_rank = comm.rank();
            let mut sub = comm.split((world_rank % 2) as u64).unwrap();
            let k = ins[world_rank].stored_len().max(1);
            let pick = select_algorithm::<f32>(sub.size(), dim, k, sub.cost());
            let before = sub.stats_snapshot();
            let auto = sub
                .allreduce(&ins[world_rank])
                .launch()
                .and_then(|h| h.wait())
                .unwrap();
            let stats = sub.stats_snapshot().since(&before);
            let pinned = sub
                .allreduce(&ins[world_rank])
                .algorithm(pick)
                .launch()
                .and_then(|h| h.wait())
                .unwrap();
            *ep = sub.into_parent().into_transport();
            (pick, auto, pinned, stats.auto_fused, stats.auto_fallback)
        });
        for (rank, (pick, auto, pinned, fused, fallback)) in outs.into_iter().enumerate() {
            assert_eq!(auto, pinned, "rank {rank} nnz={nnz:?} pick {pick:?}");
            let rec_dbl = pick == Algorithm::SsarRecDbl;
            assert_eq!((fused, fallback), (rec_dbl as u64, !rec_dbl as u64));
        }
    }
}

#[test]
fn engine_fused_bucket_auto_is_bitwise_the_pinned_pick() {
    // Six small layers fuse into one bucket; the bucket's Auto resolves
    // to recursive doubling, so the engine's collective is the pass.
    let p = 4;
    let layers = 6;
    let dim = 2048;
    let ins: Vec<Vec<SparseStream<f32>>> = (0..p)
        .map(|r| {
            (0..layers)
                .map(|l| random_sparse(dim, 12, 9870 + (r * layers + l) as u64))
                .collect()
        })
        .collect();
    let run = |algorithm: Algorithm| {
        run_thread_cluster(p, |tp| {
            let mut comm = Communicator::new(tp.detach());
            let mut engine = comm.engine(EngineConfig {
                algorithm,
                ..EngineConfig::default()
            });
            let refs: Vec<&SparseStream<f32>> = ins[engine.rank()].iter().collect();
            let outs: Vec<SparseStream<f32>> = engine
                .submit_allreduce_group(&refs)
                .into_iter()
                .map(|t| t.wait().unwrap())
                .collect();
            let stats = engine.stats();
            engine.finish_into(&mut comm).unwrap();
            *tp = comm.into_transport();
            (outs, stats)
        })
    };
    let auto = run(Algorithm::Auto);
    let pinned = run(Algorithm::SsarRecDbl);
    for (rank, ((a, a_stats), (b, b_stats))) in auto.iter().zip(&pinned).enumerate() {
        assert_eq!(a, b, "rank {rank}");
        assert_eq!(a_stats.buckets, 1, "the group fused");
        assert_eq!(
            (a_stats.comm.auto_fused, a_stats.comm.auto_fallback),
            (a_stats.chunks.max(1), 0),
            "rank {rank}: every chunk's pass was its collective"
        );
        assert_eq!(
            a_stats.comm.msgs_sent, b_stats.comm.msgs_sent,
            "rank {rank}: Auto sent no message the pinned schedule does not"
        );
    }
}

// --- session pool reuse ----------------------------------------------------

#[test]
fn subgroup_collectives_count_in_session_stats() {
    let outs = run_cluster(4, CostModel::zero(), |ep| {
        let comm = Communicator::new(ep.detach());
        let world_rank = comm.rank();
        let input = random_sparse::<f32>(512, 16, 9950 + world_rank as u64);
        let before = comm.stats().collectives;
        let mut sub = comm.split((world_rank % 2) as u64).unwrap();
        sub.allreduce(&input)
            .algorithm(Algorithm::SsarRecDbl)
            .launch()
            .and_then(|h| h.wait())
            .unwrap();
        let comm = sub.into_parent();
        let after = comm.stats().collectives;
        *ep = comm.into_transport();
        (before, after)
    });
    for (before, after) in outs {
        // The split's color ring draws one flat op id; the subgroup
        // allreduce must also count, on the shared session counters.
        assert!(
            after >= before + 2,
            "subgroup collective not counted: {before} -> {after}"
        );
    }
}

#[test]
fn session_pool_reuse_shows_in_stats_snapshot() {
    let outs = run_cluster(4, CostModel::zero(), |ep| {
        let mut comm = Communicator::new(ep.detach());
        let input = random_sparse::<f32>(2048, 64, 9900 + comm.rank() as u64);
        for _ in 0..6 {
            comm.allreduce(&input)
                .algorithm(Algorithm::SsarRecDbl)
                .launch()
                .and_then(|h| h.wait())
                .unwrap();
        }
        let stats = comm.stats_snapshot();
        *ep = comm.into_transport();
        stats
    });
    for stats in outs {
        assert!(stats.pool_acquires > 0);
        assert!(
            stats.reuse_rate() > 0.5,
            "persistent pool should serve most acquisitions after warmup: {:?}",
            stats
        );
    }
}
