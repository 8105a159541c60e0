//! Progress-engine integration suite: concurrent collectives, fusion
//! correctness, tag-block isolation, chunking, and execution order —
//! over the virtual-time, thread, and loopback-socket transports.

use sparcml::core::reference::reference_sum;
use sparcml::core::{
    run_communicators, run_reactor_communicators, run_thread_communicators, Algorithm, Communicator,
};
use sparcml::engine::{CommunicatorEngineExt, EngineConfig, FusionPolicy};
use sparcml::net::{
    run_reactor_loopback_cluster, run_thread_cluster, CostModel, TagBlock, Transport,
    TransportConfig,
};
use sparcml::stream::SparseStream;

/// Deterministic integer-valued input for `(rank, layer)`: every
/// summation order produces identical bits, so fused and sequential
/// results can be compared exactly.
fn integer_stream(rank: usize, layer: usize, dim: usize, nnz: usize) -> SparseStream<f32> {
    let pairs: Vec<(u32, f32)> = (0..nnz)
        .map(|i| {
            (
                ((rank * 131 + layer * 37 + i * 17) % dim) as u32,
                (1 + (rank + layer + i) % 5) as f32,
            )
        })
        .collect();
    SparseStream::from_pairs(dim, &pairs).unwrap()
}

fn per_layer_inputs(rank: usize, layers: usize, dim: usize, nnz: usize) -> Vec<SparseStream<f32>> {
    (0..layers)
        .map(|l| integer_stream(rank, l, dim, nnz))
        .collect()
}

/// The sequential reference: per-layer sums over all ranks.
fn layer_references(p: usize, layers: usize, dim: usize, nnz: usize) -> Vec<Vec<f32>> {
    (0..layers)
        .map(|l| {
            let ins: Vec<SparseStream<f32>> =
                (0..p).map(|r| integer_stream(r, l, dim, nnz)).collect();
            reference_sum(&ins)
        })
        .collect()
}

fn fused_engine_config() -> EngineConfig {
    EngineConfig {
        algorithm: Algorithm::SsarRecDbl,
        ..EngineConfig::default()
    }
}

#[test]
fn fused_bucket_equals_sequential_allreduces_exactly() {
    let (p, layers, dim, nnz) = (4, 16, 1024, 48);
    let expect = layer_references(p, layers, dim, nnz);
    let outs = run_communicators(p, CostModel::zero(), |comm| {
        let mut engine = comm.engine::<f32>(fused_engine_config());
        let grads = per_layer_inputs(engine.rank(), layers, dim, nnz);
        let refs: Vec<&SparseStream<f32>> = grads.iter().collect();
        let tickets = engine.submit_allreduce_group(&refs);
        let results: Vec<SparseStream<f32>> =
            tickets.into_iter().map(|t| t.wait().unwrap()).collect();
        let stats = engine.stats();
        engine.finish_into(comm).unwrap();
        (results, stats)
    });
    for (results, stats) in outs {
        assert_eq!(stats.buckets, 1, "all layers must fuse into one bucket");
        assert_eq!(stats.fused_jobs, layers as u64);
        for (l, out) in results.iter().enumerate() {
            assert_eq!(out.dim(), dim);
            assert_eq!(
                out.to_dense_vec(),
                expect[l],
                "fused layer {l} must be element-exact vs the sequential reference"
            );
        }
    }
}

#[test]
fn shared_group_submission_matches_the_borrowed_api_exactly() {
    // `submit_allreduce_group_shared` hands Arc'd gradients to the
    // progress thread without the per-job payload clone; results must
    // be bit-identical to the borrowing API.
    let (p, layers, dim, nnz) = (4, 8, 1024, 48);
    let expect = layer_references(p, layers, dim, nnz);
    let outs = run_communicators(p, CostModel::zero(), |comm| {
        let mut engine = comm.engine::<f32>(fused_engine_config());
        let grads: Vec<std::sync::Arc<SparseStream<f32>>> =
            per_layer_inputs(engine.rank(), layers, dim, nnz)
                .into_iter()
                .map(std::sync::Arc::new)
                .collect();
        let tickets = engine.submit_allreduce_group_shared(&grads);
        let results: Vec<SparseStream<f32>> =
            tickets.into_iter().map(|t| t.wait().unwrap()).collect();
        engine.finish_into(comm).unwrap();
        results
    });
    for results in outs {
        for (l, out) in results.iter().enumerate() {
            assert_eq!(
                out.to_dense_vec(),
                expect[l],
                "shared-submission layer {l} must match the sequential reference"
            );
        }
    }
}

#[test]
fn fusion_reduces_messages_and_collectives_at_p4() {
    // The acceptance-shaped claim: 64 layers of k = 1e2 sparse gradients
    // at P = 4 — the engine's fused path completes in fewer transport
    // messages (and fewer collective ops) than 64 sequential allreduces,
    // asserted via the CommStats counters, and the results stay exact.
    let (p, layers, dim, nnz) = (4, 64, 1 << 16, 100);
    let expect = layer_references(p, layers, dim, nnz);

    let sequential = run_thread_communicators(p, |comm| {
        let grads = per_layer_inputs(comm.rank(), layers, dim, nnz);
        let baseline = comm.stats().snapshot();
        let results: Vec<SparseStream<f32>> = grads
            .iter()
            .map(|g| {
                comm.allreduce(g)
                    .algorithm(Algorithm::SsarRecDbl)
                    .launch()
                    .and_then(|h| h.wait())
                    .unwrap()
            })
            .collect();
        let traffic = comm.stats().since(&baseline);
        (results, traffic)
    });

    let fused = run_thread_communicators(p, |comm| {
        let mut engine = comm.engine::<f32>(fused_engine_config());
        let grads = per_layer_inputs(engine.rank(), layers, dim, nnz);
        let refs: Vec<&SparseStream<f32>> = grads.iter().collect();
        let tickets = engine.submit_allreduce_group(&refs);
        let results: Vec<SparseStream<f32>> =
            tickets.into_iter().map(|t| t.wait().unwrap()).collect();
        let traffic = engine.stats().comm.clone();
        engine.finish_into(comm).unwrap();
        (results, traffic)
    });

    for ((seq_results, seq_traffic), (eng_results, eng_traffic)) in
        sequential.iter().zip(fused.iter())
    {
        for (l, (s, e)) in seq_results.iter().zip(eng_results.iter()).enumerate() {
            assert_eq!(
                s.to_dense_vec(),
                e.to_dense_vec(),
                "layer {l} fused result must match the sequential result exactly"
            );
            assert_eq!(s.to_dense_vec(), expect[l]);
        }
        assert!(
            eng_traffic.msgs_sent < seq_traffic.msgs_sent,
            "fusion must reduce messages: engine {} vs sequential {}",
            eng_traffic.msgs_sent,
            seq_traffic.msgs_sent
        );
        assert!(
            eng_traffic.collectives < seq_traffic.collectives,
            "fusion must reduce collective ops: engine {} vs sequential {}",
            eng_traffic.collectives,
            seq_traffic.collectives
        );
    }
}

/// The interleaved-concurrency program: an allreduce and an allgather in
/// flight simultaneously (submitted back to back, waited out of order),
/// executed on distinct tag blocks by the engine. Returns
/// `(allreduce dense, allgather dense per rank)`.
fn interleaved_program<T: Transport + Send + 'static>(
    comm: &mut Communicator<T>,
    dim: usize,
    nnz: usize,
) -> (Vec<f32>, Vec<Vec<f32>>) {
    let mut engine = comm.engine::<f32>(fused_engine_config());
    let rank = engine.rank();
    let ar_input = integer_stream(rank, 0, dim, nnz);
    let ag_input = integer_stream(rank, 1, dim, nnz);
    let ar_ticket = engine.submit_allreduce(&ar_input);
    let ag_ticket = engine.submit_allgather(&ag_input);
    // Both are now in flight; resolve them in the opposite order.
    let gathered = ag_ticket.wait().unwrap();
    let reduced = ar_ticket.wait().unwrap();
    engine.finish_into(comm).unwrap();
    (
        reduced.to_dense_vec(),
        gathered.iter().map(|s| s.to_dense_vec()).collect(),
    )
}

fn check_interleaved(outs: Vec<(Vec<f32>, Vec<Vec<f32>>)>, p: usize, dim: usize, nnz: usize) {
    let ar_expect = reference_sum(
        &(0..p)
            .map(|r| integer_stream(r, 0, dim, nnz))
            .collect::<Vec<_>>(),
    );
    for (reduced, gathered) in outs {
        assert_eq!(reduced, ar_expect, "allreduce result must be bitwise-exact");
        assert_eq!(gathered.len(), p);
        for (r, g) in gathered.iter().enumerate() {
            assert_eq!(
                g,
                &integer_stream(r, 1, dim, nnz).to_dense_vec(),
                "allgather block of rank {r} must be bitwise-exact"
            );
        }
    }
}

#[test]
fn interleaved_allreduce_allgather_over_thread_transport() {
    let (p, dim, nnz) = (4, 2048, 64);
    let outs = run_thread_communicators(p, |comm| interleaved_program(comm, dim, nnz));
    check_interleaved(outs, p, dim, nnz);
}

#[test]
fn interleaved_allreduce_allgather_over_socket_transport() {
    let (p, dim, nnz) = (4, 2048, 64);
    let outs = run_reactor_communicators(p, |comm| interleaved_program(comm, dim, nnz));
    check_interleaved(outs, p, dim, nnz);
}

/// Raw tag-block isolation: frames under distinct blocks (same peer, same
/// sub-tag) match independently of arrival order.
fn tag_block_isolation_program<T: Transport>(tp: &mut T) -> bool {
    let block_a = TagBlock::control(1);
    let block_b = TagBlock::control(2);
    assert_ne!(block_a.tag(5), block_b.tag(5));
    if tp.rank() == 0 {
        // Send B's frame first; the peer asks for A's first.
        tp.send(1, block_b.tag(5), bytes::Bytes::from_static(b"bee"))
            .unwrap();
        tp.send(1, block_a.tag(5), bytes::Bytes::from_static(b"ay"))
            .unwrap();
        true
    } else if tp.rank() == 1 {
        let a = tp.recv(0, block_a.tag(5)).unwrap();
        let b = tp.recv(0, block_b.tag(5)).unwrap();
        a.as_ref() == b"ay" && b.as_ref() == b"bee"
    } else {
        true
    }
}

#[test]
fn tag_blocks_isolate_traffic_on_thread_transport() {
    let oks = run_thread_cluster(2, tag_block_isolation_program);
    assert!(oks.iter().all(|&ok| ok));
}

#[test]
fn tag_blocks_isolate_traffic_on_socket_transport() {
    let oks = run_reactor_loopback_cluster(
        2,
        CostModel::loopback_tcp(),
        TransportConfig::default(),
        tag_block_isolation_program,
    );
    assert!(oks.iter().all(|&ok| ok));
}

#[test]
fn chunked_pipelining_stays_exact() {
    // Force chunking: one 32768-index layer with a 1024-index chunk cap →
    // 32 chunks, still element-exact. (Only a single job past the cap is
    // chunked; a fused bucket closes before it.)
    let (p, layers, dim, nnz) = (3, 1, 32_768, 256);
    let expect = layer_references(p, layers, dim, nnz);
    let outs = run_communicators(p, CostModel::zero(), |comm| {
        let cfg = EngineConfig {
            algorithm: Algorithm::SsarRecDbl,
            fusion: FusionPolicy {
                max_chunk_elements: 1024,
                ..FusionPolicy::default()
            },
            ..EngineConfig::default()
        };
        let mut engine = comm.engine::<f32>(cfg);
        let grads = per_layer_inputs(engine.rank(), layers, dim, nnz);
        let refs: Vec<&SparseStream<f32>> = grads.iter().collect();
        let tickets = engine.submit_allreduce_group(&refs);
        let results: Vec<SparseStream<f32>> =
            tickets.into_iter().map(|t| t.wait().unwrap()).collect();
        let stats = engine.stats();
        engine.finish_into(comm).unwrap();
        (results, stats)
    });
    for (results, stats) in outs {
        assert_eq!(stats.chunked_buckets, 1);
        assert_eq!(stats.chunks, (dim / 1024) as u64);
        for (l, out) in results.iter().enumerate() {
            assert_eq!(out.dim(), dim);
            assert_eq!(out.to_dense_vec(), expect[l], "chunked layer {l}");
        }
    }
}

/// Eight 4096-index layers under a 10 000-index chunk cap: Σdim = 32 768
/// passes it, so the planner must close buckets of at most two layers
/// (8 192 indices) rather than fuse all eight and chunk the result.
/// Returns each layer's result and the engine's stats.
fn capped_group_program<T: Transport + Send + 'static>(
    comm: &mut Communicator<T>,
) -> (Vec<Vec<f32>>, sparcml::engine::EngineStats) {
    let (layers, dim, nnz) = (8, 4096, 32);
    let cfg = EngineConfig {
        algorithm: Algorithm::SsarRecDbl,
        fusion: FusionPolicy {
            max_chunk_elements: 10_000,
            ..FusionPolicy::default()
        },
        ..EngineConfig::default()
    };
    let mut engine = comm.engine::<f32>(cfg);
    let grads = per_layer_inputs(engine.rank(), layers, dim, nnz);
    let refs: Vec<&SparseStream<f32>> = grads.iter().collect();
    let tickets = engine.submit_allreduce_group(&refs);
    let results = tickets
        .into_iter()
        .map(|t| t.wait().unwrap().to_dense_vec())
        .collect();
    let stats = engine.stats();
    engine.finish_into(comm).unwrap();
    (results, stats)
}

fn check_capped_group(outs: Vec<(Vec<Vec<f32>>, sparcml::engine::EngineStats)>, p: usize) {
    let (layers, dim, nnz, cap) = (8, 4096, 32, 10_000);
    let expect = layer_references(p, layers, dim, nnz);
    for (results, stats) in outs {
        assert_eq!(stats.chunked_buckets, 0, "a fused bucket must not chunk");
        assert_eq!(stats.chunks, 0);
        // Four buckets, every job in one of several: each holds at least
        // two of the eight layers, so exactly two — 8 192 ≤ 10 000 indices.
        assert_eq!(stats.buckets, layers.div_ceil(cap / dim) as u64);
        assert_eq!(stats.fused_jobs, layers as u64);
        for (l, out) in results.iter().enumerate() {
            assert_eq!(out, &expect[l], "layer {l} must be element-exact");
        }
    }
}

#[test]
fn a_group_past_the_chunk_cap_plans_buckets_that_fit() {
    let p = 3;
    check_capped_group(
        run_communicators(p, CostModel::zero(), capped_group_program),
        p,
    );
    check_capped_group(run_thread_communicators(p, capped_group_program), p);
}

#[test]
fn submission_order_mode_preserves_fifo() {
    let outs = run_communicators(1, CostModel::zero(), |comm| {
        let cfg = EngineConfig {
            fusion: FusionPolicy::disabled(),
            ..EngineConfig::default()
        };
        let mut engine = comm.engine::<f32>(cfg);
        let grads = per_layer_inputs(0, 3, 128, 8);
        let refs: Vec<&SparseStream<f32>> = grads.iter().collect();
        let tickets = engine.submit_allreduce_group(&refs);
        for t in tickets {
            t.wait().unwrap();
        }
        let order = engine.stats().execution_order.clone();
        engine.finish_into(comm).unwrap();
        order
    });
    assert_eq!(outs[0], vec![0, 1, 2]);
}

#[test]
fn density_guard_splits_dense_batch_and_stays_exact() {
    // The k = 1e4 regime where fusing loses: with the 0.5 density bound
    // and the conservative fill prior P, two of
    // these jobs project 4·20_000/131_072 ≈ 0.61 fused — bandwidth-bound
    // — so the density guard must keep every job a singleton bucket, and
    // the results must stay element-exact.
    let (p, layers, dim, nnz) = (4, 4, 1 << 16, 10_000);
    let expect = layer_references(p, layers, dim, nnz);
    let outs = run_communicators(p, CostModel::zero(), |comm| {
        let mut engine = comm.engine::<f32>(fused_engine_config());
        let grads = per_layer_inputs(engine.rank(), layers, dim, nnz);
        let refs: Vec<&SparseStream<f32>> = grads.iter().collect();
        let tickets = engine.submit_allreduce_group(&refs);
        let results: Vec<SparseStream<f32>> =
            tickets.into_iter().map(|t| t.wait().unwrap()).collect();
        let stats = engine.stats();
        engine.finish_into(comm).unwrap();
        (results, stats)
    });
    for (results, stats) in outs {
        assert_eq!(
            stats.buckets, layers as u64,
            "density guard must split the dense batch into singletons"
        );
        assert_eq!(stats.fused_jobs, 0);
        for (l, out) in results.iter().enumerate() {
            assert_eq!(out.to_dense_vec(), expect[l], "split layer {l}");
        }
    }
}

#[test]
fn fill_factor_is_measured_by_the_engine_not_by_telemetry() {
    // Two steps of a two-job group whose supports coincide on every rank.
    // Step 1 plans with the prior fill P: 4·20_000/131_072 ≈ 0.61 > 0.5,
    // two buckets. It reduces 20_000 stored entries into 20_000, so step
    // 2 plans with fill 1 (≈ 0.15) and fuses: three buckets in all —
    // whether or not the process happens to be collecting telemetry,
    // which records density samples only while enabled.
    let (p, dim, nnz) = (4, 1 << 16, 10_000);
    let two_steps = || {
        run_communicators(p, CostModel::zero(), |comm| {
            let mut engine = comm.engine::<f32>(fused_engine_config());
            let grads = per_layer_inputs(0, 2, dim, nnz);
            let refs: Vec<&SparseStream<f32>> = grads.iter().collect();
            for _step in 0..2 {
                for t in engine.submit_allreduce_group(&refs) {
                    t.wait().unwrap();
                }
            }
            let buckets = engine.stats().buckets;
            engine.finish_into(comm).unwrap();
            buckets
        })
    };
    sparcml::obs::telemetry::disable();
    let off = two_steps();
    sparcml::obs::telemetry::enable();
    let on = two_steps();
    sparcml::obs::telemetry::disable();
    assert_eq!(off, vec![3; p], "telemetry off");
    assert_eq!(on, vec![3; p], "telemetry on");
}

#[test]
fn density_guard_preserves_sparse_runs_in_mixed_batches() {
    // Mixed batch [s, s, d, d, s, s]: the sparse runs keep fusing, the
    // dense middle is cut into singletons, and every layer stays
    // element-exact across the split/fused boundary.
    let (p, dim) = (4, 1 << 16);
    let nnz_of = |l: usize| if (2..4).contains(&l) { 30_000 } else { 100 };
    let layer_input = |rank: usize, l: usize| integer_stream(rank, l, dim, nnz_of(l));
    let expect: Vec<Vec<f32>> = (0..6)
        .map(|l| {
            let ins: Vec<SparseStream<f32>> = (0..p).map(|r| layer_input(r, l)).collect();
            reference_sum(&ins)
        })
        .collect();
    let outs = run_communicators(p, CostModel::zero(), |comm| {
        let mut engine = comm.engine::<f32>(fused_engine_config());
        let grads: Vec<SparseStream<f32>> = (0..6).map(|l| layer_input(engine.rank(), l)).collect();
        let refs: Vec<&SparseStream<f32>> = grads.iter().collect();
        let tickets = engine.submit_allreduce_group(&refs);
        let results: Vec<SparseStream<f32>> =
            tickets.into_iter().map(|t| t.wait().unwrap()).collect();
        let stats = engine.stats();
        engine.finish_into(comm).unwrap();
        (results, stats)
    });
    for (results, stats) in outs {
        // [[0,1],[2],[3],[4,5]] — the tail sparse pair still fuses.
        assert_eq!(
            stats.buckets, 4,
            "dense middle must split, sparse runs must fuse"
        );
        assert_eq!(stats.fused_jobs, 4);
        for (l, out) in results.iter().enumerate() {
            assert_eq!(out.to_dense_vec(), expect[l], "mixed layer {l}");
        }
    }
}

#[test]
fn many_individual_submissions_stay_correct_under_load() {
    // Individual (non-group) submissions with tickets waited only at the
    // end: batching is timing-dependent, correctness must not be.
    let (p, jobs, dim, nnz) = (4, 40, 512, 24);
    let expect = layer_references(p, jobs, dim, nnz);
    let outs = run_thread_communicators(p, |comm| {
        let mut engine = comm.engine::<f32>(fused_engine_config());
        let grads = per_layer_inputs(engine.rank(), jobs, dim, nnz);
        let tickets: Vec<_> = grads.iter().map(|g| engine.submit_allreduce(g)).collect();
        let results: Vec<SparseStream<f32>> =
            tickets.into_iter().map(|t| t.wait().unwrap()).collect();
        engine.finish_into(comm).unwrap();
        results
    });
    for results in outs {
        for (l, out) in results.iter().enumerate() {
            assert_eq!(out.to_dense_vec(), expect[l], "job {l}");
        }
    }
}
