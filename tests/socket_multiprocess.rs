//! Collectives over sockets across real OS processes.
//!
//! Every test here re-executes this test binary once per rank through
//! `sparcml::net::run_socket_cluster` (the launcher sets the
//! `SPARCML_RANK`/`SPARCML_WORLD`/`SPARCML_ROOT_ADDR` bootstrap and the
//! `--exact` libtest filter, so each child process runs exactly the test
//! that spawned it and becomes one rank, joining through
//! `ReactorTransport::from_env`). This is the acceptance harness for the
//! paper-shaped claim: `Communicator<ReactorTransport>` completes all
//! allreduce algorithms, allgather, and the rooted collectives across
//! ≥ 4 genuinely separate processes over loopback — and a killed peer
//! makes every surviving rank fail loudly instead of hanging.
//!
//! Pattern: the `job` string passed to the launcher must equal the test
//! function's name, and worker processes bail out through the
//! `else { return }` arm (the parent does the asserting).

use std::time::Duration;

use sparcml::core::reference::reference_sum;
use sparcml::core::{Algorithm, Communicator};
use sparcml::net::{run_socket_cluster, run_socket_cluster_outcomes, LaunchOptions, Transport};
use sparcml::stream::{random_sparse, SparseStream};

/// Deterministic integer-valued input for `rank`: every summation order
/// produces identical bits, so ranks and the sequential reference can be
/// compared exactly, even across processes.
fn integer_stream(rank: usize, dim: usize, nnz: usize) -> SparseStream<f32> {
    let pairs: Vec<(u32, f32)> = (0..nnz)
        .map(|i| (((rank * 131 + i * 17) % dim) as u32, 1.0f32))
        .collect();
    SparseStream::from_pairs(dim, &pairs).unwrap()
}

/// FNV-1a over the dense f32 bit pattern — a compact result fingerprint
/// that survives the stdout hop between processes.
fn fingerprint(dense: &[f32]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in dense {
        for b in v.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn opts() -> LaunchOptions {
    LaunchOptions::for_test().with_timeout(Duration::from_secs(120))
}

#[test]
fn all_allreduce_algorithms_across_processes() {
    let world = 4;
    let dim = 2048;
    let nnz = 96;
    let Some(results) = run_socket_cluster(
        "all_allreduce_algorithms_across_processes",
        world,
        &opts(),
        |tp| {
            assert_eq!(tp.backend_name(), "reactor");
            let mut comm = Communicator::new(tp.detach());
            let input = integer_stream(comm.rank(), dim, nnz);
            let mut parts = Vec::new();
            for algo in Algorithm::ALL {
                let out = comm
                    .allreduce(&input)
                    .algorithm(algo)
                    .launch()
                    .and_then(|h| h.wait())
                    .unwrap();
                parts.push(format!(
                    "{}={}",
                    algo.name(),
                    fingerprint(&out.to_dense_vec())
                ));
            }
            *tp = comm.into_transport();
            parts.join(";")
        },
    ) else {
        return;
    };
    // Every rank must agree with the sequential reference, algorithm by
    // algorithm (integer inputs make this exact).
    let ins: Vec<SparseStream<f32>> = (0..world).map(|r| integer_stream(r, dim, nnz)).collect();
    let expect = fingerprint(&reference_sum(&ins));
    let expected_line = Algorithm::ALL
        .iter()
        .map(|a| format!("{}={}", a.name(), expect))
        .collect::<Vec<_>>()
        .join(";");
    for (rank, line) in results.iter().enumerate() {
        assert_eq!(line, &expected_line, "rank {rank} disagrees");
    }
}

#[test]
fn allgather_rooted_and_nonblocking_across_processes() {
    // Non-pow2 world exercises the fold/ring paths; the non-blocking
    // launch moves the whole transport (loop thread included) onto a
    // helper thread and back — across real processes.
    let world = 5;
    let dim = 1024;
    let Some(results) = run_socket_cluster(
        "allgather_rooted_and_nonblocking_across_processes",
        world,
        &opts(),
        |tp| {
            let mut comm = Communicator::new(tp.detach());
            let rank = comm.rank();
            let ins: Vec<SparseStream<f32>> =
                (0..world).map(|r| integer_stream(r, dim, 40)).collect();
            let expect = reference_sum(&ins);

            // Allgather: every rank's stream arrives intact, in order.
            let gathered = comm
                .allgather(&ins[rank])
                .launch()
                .and_then(|h| h.wait())
                .unwrap();
            assert_eq!(gathered.len(), world);
            for (r, s) in gathered.iter().enumerate() {
                assert_eq!(s, &ins[r], "allgather rank {rank} slot {r}");
            }

            // Rooted: reduce to rank 1, broadcast back, reduce-scatter.
            let reduced = comm
                .reduce(&ins[rank], 1)
                .launch()
                .and_then(|h| h.wait())
                .unwrap();
            let bcast = comm
                .broadcast(&reduced, 1)
                .launch()
                .and_then(|h| h.wait())
                .unwrap();
            assert_eq!(bcast.to_dense_vec(), expect, "broadcast rank {rank}");
            let scattered = comm
                .reduce_scatter(&ins[rank])
                .launch()
                .and_then(|h| h.wait())
                .unwrap();
            for (i, v) in scattered.to_dense_vec().iter().enumerate() {
                assert!(
                    *v == 0.0 || *v == expect[i],
                    "reduce_scatter rank {rank} coord {i}"
                );
            }

            let mut handle = comm
                .allreduce(&ins[rank])
                .algorithm(Algorithm::SsarSplitAllgather)
                .nonblocking()
                .launch()
                .unwrap();
            handle.compute(10_000); // overlapped local work
            let overlapped = handle.wait().unwrap();
            assert_eq!(overlapped.to_dense_vec(), expect, "nonblocking rank {rank}");

            *tp = comm.into_transport();
            fingerprint(&bcast.to_dense_vec())
        },
    ) else {
        return;
    };
    let ins: Vec<SparseStream<f32>> = (0..world).map(|r| integer_stream(r, dim, 40)).collect();
    let expect = fingerprint(&reference_sum(&ins));
    for (rank, got) in results.iter().enumerate() {
        assert_eq!(got, &expect, "rank {rank}");
    }
}

#[test]
fn auto_agrees_on_k_across_processes() {
    // Ranks contribute different nonzero counts; Algorithm::Auto must
    // agree on one k (and hence one schedule) over the real wire, on
    // every rank, and produce the reference sum.
    let world = 4;
    let dim = 4096;
    let Some(results) =
        run_socket_cluster("auto_agrees_on_k_across_processes", world, &opts(), |tp| {
            let mut comm = Communicator::new(tp.detach());
            let rank = comm.rank();
            let input = integer_stream(rank, dim, 24 + 48 * rank);
            let resolved = Algorithm::Auto.resolve_for::<f32>(
                comm.size(),
                dim,
                // The agreement maximizes k across ranks; mirror it.
                24 + 48 * (world - 1),
                comm.cost(),
            );
            let out = comm
                .allreduce(&input)
                .launch()
                .and_then(|h| h.wait())
                .unwrap();
            *tp = comm.into_transport();
            format!("{}:{}", resolved.name(), fingerprint(&out.to_dense_vec()))
        })
    else {
        return;
    };
    let ins: Vec<SparseStream<f32>> = (0..world)
        .map(|r| integer_stream(r, dim, 24 + 48 * r))
        .collect();
    let expect = fingerprint(&reference_sum(&ins));
    // All ranks resolved the same schedule and computed the same sum.
    for line in &results {
        assert_eq!(line, &results[0], "ranks diverged: {results:?}");
        assert!(line.ends_with(&expect), "wrong sum: {line} vs {expect}");
    }
}

#[test]
fn multiple_collectives_one_session_across_processes() {
    // Back-to-back collectives on one communicator session: tags must
    // isolate them across processes exactly as in-process.
    let world = 4;
    let dim = 1024;
    let Some(results) = run_socket_cluster(
        "multiple_collectives_one_session_across_processes",
        world,
        &opts(),
        |tp| {
            let mut comm = Communicator::new(tp.detach());
            let rank = comm.rank();
            let a = integer_stream(rank, dim, 32);
            let b = random_sparse::<f32>(dim, 16, 7000 + rank as u64);
            let first = comm
                .allreduce(&a)
                .algorithm(Algorithm::DenseRabenseifner)
                .launch()
                .and_then(|h| h.wait())
                .unwrap();
            let second = comm
                .allreduce(&b)
                .algorithm(Algorithm::SsarSplitAllgather)
                .launch()
                .and_then(|h| h.wait())
                .unwrap();
            *tp = comm.into_transport();
            format!("{}+{}", fingerprint(&first.to_dense_vec()), second.nnz())
        },
    ) else {
        return;
    };
    let ins: Vec<SparseStream<f32>> = (0..world).map(|r| integer_stream(r, dim, 32)).collect();
    let expect = fingerprint(&reference_sum(&ins));
    for (rank, line) in results.iter().enumerate() {
        assert!(line.starts_with(&expect), "rank {rank}: {line}");
    }
}

#[test]
fn killed_peer_fails_survivors_within_timeout() {
    // Rank 2 dies right after the mesh is up; every survivor's collective
    // must error out well within the watchdog budget — never hang. The
    // launcher's hard deadline would catch a hang, but the point is that
    // the error arrives from the transport, not from the kill.
    let world = 4;
    let opts = LaunchOptions::for_test()
        .with_timeout(Duration::from_secs(60))
        .with_recv_timeout(Duration::from_secs(3));
    let started = std::time::Instant::now();
    let Some(outcomes) = run_socket_cluster_outcomes(
        "killed_peer_fails_survivors_within_timeout",
        world,
        &opts,
        |tp| {
            if tp.rank() == 2 {
                // Simulate a killed peer: vanish without any goodbye.
                std::process::exit(7);
            }
            let mut comm = Communicator::new(tp.detach());
            let input = integer_stream(comm.rank(), 1024, 32);
            let res = comm
                .allreduce(&input)
                .algorithm(Algorithm::SsarRecDbl)
                .launch()
                .and_then(|h| h.wait());
            *tp = comm.into_transport();
            match res {
                Ok(_) => "completed".to_string(),
                Err(e) => format!("errored: {e}"),
            }
        },
    ) else {
        return;
    };
    assert!(
        started.elapsed() < Duration::from_secs(45),
        "survivors took too long: {:?}",
        started.elapsed()
    );
    for o in &outcomes {
        assert!(!o.timed_out, "rank {} hit the hard deadline", o.rank);
        if o.rank == 2 {
            assert_eq!(o.exit_code, Some(7), "the dead rank must exit with 7");
        } else {
            assert_eq!(
                o.exit_code,
                Some(0),
                "rank {} stderr:\n{}",
                o.rank,
                o.stderr
            );
            let result = o.result.as_deref().unwrap_or("");
            assert!(
                result.starts_with("errored"),
                "rank {} must observe the dead peer, got: {result}",
                o.rank
            );
        }
    }
}

#[test]
fn engine_density_guard_splits_buckets_across_processes() {
    // The k = 1e4 shape where fusing loses to per-layer runs: before the
    // density-aware FusionPolicy these four 65_536-dim/10_000-nnz jobs
    // fused into ONE bandwidth-bound bucket. The guard (projected fused
    // union density 4·20_000/131_072 ≈ 0.61 > its 0.5 bound) must now
    // keep them singletons — across real processes — with the results
    // still exact.
    use sparcml::engine::{CommunicatorEngineExt, EngineConfig};

    let world = 4;
    let layers = 4;
    let dim = 1 << 16;
    let nnz = 10_000;
    let Some(results) = run_socket_cluster(
        "engine_density_guard_splits_buckets_across_processes",
        world,
        &opts(),
        |tp| {
            let mut comm = Communicator::new(tp.detach());
            let mut engine = comm.engine::<f32>(EngineConfig {
                algorithm: Algorithm::SsarRecDbl,
                ..EngineConfig::default()
            });
            let grads: Vec<SparseStream<f32>> = (0..layers)
                .map(|l| integer_stream(engine.rank() * 7 + l, dim, nnz))
                .collect();
            let refs: Vec<&SparseStream<f32>> = grads.iter().collect();
            let tickets = engine.submit_allreduce_group(&refs);
            let fps: Vec<String> = tickets
                .into_iter()
                .map(|t| fingerprint(&t.wait().unwrap().to_dense_vec()))
                .collect();
            let stats = engine.stats();
            engine.finish_into(&mut comm).unwrap();
            *tp = comm.into_transport();
            format!(
                "{};buckets={};fused={}",
                fps.join(":"),
                stats.buckets,
                stats.fused_jobs
            )
        },
    ) else {
        return;
    };
    let expect: Vec<String> = (0..layers)
        .map(|l| {
            let ins: Vec<SparseStream<f32>> = (0..world)
                .map(|r| integer_stream(r * 7 + l, dim, nnz))
                .collect();
            fingerprint(&reference_sum(&ins))
        })
        .collect();
    let expected_line = format!("{};buckets={layers};fused=0", expect.join(":"));
    for (rank, line) in results.iter().enumerate() {
        assert_eq!(
            line, &expected_line,
            "rank {rank}: the k=1e4 shape must not fuse into one bucket"
        );
    }
}

#[test]
fn hierarchical_2x4_with_engine_on_subgroup_across_processes() {
    // 8 real OS processes pinned to a 2×4 topology (the launcher exports
    // SPARCML_NODES to every rank). Exercises, across real sockets and
    // processes:
    //   1. hierarchical allreduce over the topology each worker read
    //      *from the environment* once at start-up (`Topology::from_env`
    //      handed to `.topology(..)` — the env bootstrap is the point),
    //      bitwise-equal to the flat reference;
    //   2. `Communicator::split` into node groups with a progress engine
    //      submitted onto each subgroup concurrently;
    //   3. a flat world collective afterwards (counters realigned).
    use sparcml::engine::{CommunicatorEngineExt, EngineConfig};
    use sparcml::net::Topology;

    let world = 8;
    let dim = 4096;
    let nnz = 128;
    let topo = Topology::uniform(2, 4).unwrap();
    let opts = LaunchOptions::for_test()
        .with_timeout(Duration::from_secs(120))
        .with_topology(topo.clone());
    let Some(results) = run_socket_cluster(
        "hierarchical_2x4_with_engine_on_subgroup_across_processes",
        world,
        &opts,
        |tp| {
            let mut comm = Communicator::new(tp.detach());
            let rank = comm.rank();
            let input = integer_stream(rank, dim, nnz);
            let env_topo = Topology::from_env(world)
                .expect("launcher exports a valid topology")
                .expect("SPARCML_NODES must be set for this job");

            let hier = comm
                .allreduce(&input)
                .algorithm(Algorithm::Hierarchical)
                .topology(env_topo.clone())
                .launch()
                .and_then(|h| h.wait())
                .unwrap();

            let mut sub = comm.split_by_topology(&env_topo).unwrap();
            let members = sub.transport().members().to_vec();
            let mut engine = sub.engine(EngineConfig::default());
            let t0 = engine.submit_allreduce(&input);
            let t1 = engine.submit_allreduce(&input);
            let sub_first = t0.wait().unwrap();
            let sub_second = t1.wait().unwrap();
            engine.finish_into(&mut sub).unwrap();
            let mut comm = sub.into_parent();

            let flat = comm
                .allreduce(&input)
                .algorithm(Algorithm::SsarRecDbl)
                .launch()
                .and_then(|h| h.wait())
                .unwrap();
            *tp = comm.into_transport();
            format!(
                "node{:?}|hier={}|sub={}:{}|flat={}",
                members,
                fingerprint(&hier.to_dense_vec()),
                fingerprint(&sub_first.to_dense_vec()),
                fingerprint(&sub_second.to_dense_vec()),
                fingerprint(&flat.to_dense_vec()),
            )
        },
    ) else {
        return;
    };
    let ins: Vec<SparseStream<f32>> = (0..world).map(|r| integer_stream(r, dim, nnz)).collect();
    let world_fp = fingerprint(&reference_sum(&ins));
    for (rank, line) in results.iter().enumerate() {
        let members = topo.group_of(rank);
        let sub_ins: Vec<SparseStream<f32>> = members.iter().map(|&r| ins[r].clone()).collect();
        let sub_fp = fingerprint(&reference_sum(&sub_ins));
        let expect = format!(
            "node{:?}|hier={world_fp}|sub={sub_fp}:{sub_fp}|flat={world_fp}",
            members
        );
        assert_eq!(line, &expect, "rank {rank}");
    }
}
