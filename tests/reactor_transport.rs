//! Collectives over sockets, in-process: loopback [`ReactorTransport`]
//! clusters.
//!
//! Every rank is an OS thread with its own event loop, and the messages
//! cross the real TCP stack (rendezvous, full mesh, framed slabs). Four
//! parts:
//!
//! * the **transport-parity matrix** — all allreduce algorithms (plus
//!   Auto's k-agreement, allgathers, rooted, quantized and non-blocking
//!   paths) for pow2 and non-pow2 rank counts, checked against the
//!   sequential reference and bitwise against the virtual-time transport
//!   on integer inputs;
//! * **socket edge cases** — short reads reassembled across wakeups,
//!   peers closing mid-frame, oversized frame declarations, malformed
//!   wire payloads arriving over a real socket, a receiver too busy to
//!   read while a large frame comes in, and per-`(src, tag)` order
//!   whichever thread read a frame;
//! * a **P = 64 loopback smoke test** that also asserts the thread count:
//!   one event loop per rank, whatever P is;
//! * the **progress engine** running fused gradient buckets over sockets.
//!
//! (The point-to-point `Transport` contract is `transport_contract.rs`;
//! ranks as separate OS processes are `socket_multiprocess.rs`.)

use std::time::Duration;

use sparcml::core::reference::reference_sum;
use sparcml::core::{
    run_communicators, run_reactor_communicators, run_reactor_communicators_with, Algorithm,
    Communicator,
};
use sparcml::engine::{CommunicatorEngineExt, EngineConfig};
use sparcml::net::{
    run_reactor_loopback_cluster, CommError, CostModel, ReactorTransport, Transport,
    TransportConfig,
};
use sparcml::quant::QsgdConfig;
use sparcml::stream::{random_sparse, Scalar, SparseStream, StreamError};

use bytes::Bytes;

fn quick_config() -> TransportConfig {
    TransportConfig::default()
        .with_recv_timeout(Duration::from_secs(20))
        .with_connect_timeout(Duration::from_secs(20))
}

/// Runs one allreduce program over the loopback socket cluster and
/// checks every rank against the sequential reference.
fn check_algo<V: Scalar>(algo: Algorithm, p: usize, dim: usize, nnz: usize, tol: f64) {
    let ins: Vec<SparseStream<V>> = (0..p)
        .map(|r| random_sparse(dim, nnz, 7100 + r as u64))
        .collect();
    let expect = reference_sum(&ins);
    let outs = run_reactor_communicators(p, |comm| {
        comm.allreduce(&ins[comm.rank()])
            .algorithm(algo)
            .launch()
            .and_then(|handle| handle.wait())
            .unwrap()
    });
    for (rank, out) in outs.iter().enumerate() {
        assert_eq!(out.dim(), dim);
        let got = out.to_dense_vec();
        for (i, (g, e)) in got.iter().zip(expect.iter()).enumerate() {
            assert!(
                (g.to_f64() - e.to_f64()).abs() < tol,
                "{algo:?} on ReactorTransport P={p} rank {rank} coord {i}: {g:?} vs {e:?}"
            );
        }
    }
}

#[test]
fn all_algorithms_match_reference() {
    // The parity matrix of the Endpoint/ThreadTransport suite, over
    // sockets: pow2 and non-pow2 rank counts.
    for &p in &[3usize, 4, 5, 8] {
        for algo in Algorithm::ALL {
            check_algo::<f32>(algo, p, 2048, 64, 1e-3);
        }
    }
}

#[test]
fn auto_and_f64_match_reference() {
    for &p in &[3usize, 4, 5, 8] {
        check_algo::<f32>(Algorithm::Auto, p, 2048, 96, 1e-3);
    }
    check_algo::<f64>(Algorithm::SsarRecDbl, 5, 1024, 48, 1e-9);
    check_algo::<f64>(Algorithm::Auto, 4, 1024, 48, 1e-9);
}

#[test]
fn auto_k_agreement_with_skewed_nnz() {
    // Ranks contribute *different* nonzero counts: the Auto path must
    // agree on one k over the real wire (a per-rank choice could pick
    // different schedules and deadlock).
    let p = 4;
    let dim = 4096;
    let ins: Vec<SparseStream<f32>> = (0..p)
        .map(|r| random_sparse(dim, 16 + 40 * r, 9900 + r as u64))
        .collect();
    let expect = reference_sum(&ins);
    let outs = run_reactor_communicators(p, |comm| {
        comm.allreduce(&ins[comm.rank()])
            .launch()
            .and_then(|h| h.wait())
            .unwrap()
    });
    for out in outs {
        for (g, e) in out.to_dense_vec().iter().zip(expect.iter()) {
            assert!((g - e).abs() < 1e-3);
        }
    }
}

#[test]
fn allgather_variants() {
    let p = 5;
    let dim = 1024;
    let outs = run_reactor_communicators(p, |comm| {
        let mine = random_sparse::<f32>(dim, 24, 501 + comm.rank() as u64);
        let gathered = comm
            .allgather(&mine)
            .launch()
            .and_then(|h| h.wait())
            .unwrap();
        let summed = comm
            .allgather_sum(&mine)
            .launch()
            .and_then(|h| h.wait())
            .unwrap();
        let block = vec![comm.rank() as f32; 8];
        let dense = comm
            .allgather_dense(&block)
            .launch()
            .and_then(|h| h.wait())
            .unwrap();
        (gathered, summed, dense)
    });
    let ins: Vec<SparseStream<f32>> = (0..p)
        .map(|r| random_sparse(dim, 24, 501 + r as u64))
        .collect();
    let expect = reference_sum(&ins);
    for (gathered, summed, dense) in outs {
        assert_eq!(gathered.len(), p);
        for (r, s) in gathered.iter().enumerate() {
            assert_eq!(s, &ins[r]);
        }
        for (g, e) in summed.to_dense_vec().iter().zip(expect.iter()) {
            assert!((g - e).abs() < 1e-4);
        }
        assert_eq!(dense.len(), p);
        for (r, b) in dense.iter().enumerate() {
            assert!(b.iter().all(|&v| v == r as f32));
        }
    }
}

#[test]
fn rooted_collectives() {
    let p = 5;
    let dim = 2048;
    let root = 2;
    let ins: Vec<SparseStream<f32>> = (0..p)
        .map(|r| random_sparse(dim, 48, 61 + r as u64))
        .collect();
    let expect = reference_sum(&ins);
    let outs = run_reactor_communicators(p, |comm| {
        let reduced = comm
            .reduce(&ins[comm.rank()], root)
            .launch()
            .and_then(|h| h.wait())
            .unwrap();
        let bcast = comm
            .broadcast(&reduced, root)
            .launch()
            .and_then(|h| h.wait())
            .unwrap();
        let scattered = comm
            .reduce_scatter(&ins[comm.rank()])
            .launch()
            .and_then(|h| h.wait())
            .unwrap();
        (bcast, scattered)
    });
    for (rank, (bcast, scattered)) in outs.iter().enumerate() {
        for (g, e) in bcast.to_dense_vec().iter().zip(expect.iter()) {
            assert!((g - e).abs() < 1e-4, "broadcast rank {rank}");
        }
        // The scattered partition must agree with the reference on its
        // support (each rank owns one dimension slice).
        for (i, v) in scattered.to_dense_vec().iter().enumerate() {
            if *v != 0.0 {
                assert!((v - expect[i]).abs() < 1e-4, "reduce_scatter rank {rank}");
            }
        }
    }
}

#[test]
fn quantized_and_nonblocking() {
    // The split schedule's QSGD gather rides the same frames, and a
    // non-blocking launch runs
    // on the caller's thread over the same ReactorTransport.
    let p = 4;
    let dim = 4096;
    let ins: Vec<SparseStream<f32>> = (0..p)
        .map(|r| random_sparse(dim, 256, 881 + r as u64))
        .collect();
    let expect = reference_sum(&ins);
    let quant = QsgdConfig {
        bits: 8,
        bucket_size: 512,
        ..QsgdConfig::paper_default()
    };
    let outs = run_reactor_communicators(p, |comm| {
        let mut handle = comm
            .allreduce(&ins[comm.rank()])
            .algorithm(Algorithm::SsarSplitAllgather)
            .quantized(quant)
            .nonblocking()
            .launch()
            .unwrap();
        handle.compute(1_000);
        handle.wait().unwrap()
    });
    let max_abs = expect.iter().fold(0.0f32, |m, v| m.max(v.abs()));
    for out in outs {
        for (g, e) in out.to_dense_vec().iter().zip(expect.iter()) {
            assert!((g - e).abs() <= max_abs / 127.0 + 1e-3, "{g} vs {e}");
        }
    }
}

#[test]
fn matches_virtual_time_transport_bitwise_for_integer_values() {
    // Integer-valued inputs make every summation order exact, so the
    // socket run must agree with the virtual-time Endpoint run bit for
    // bit.
    let p = 4;
    let dim = 1024;
    let mk = |rank: usize| {
        let pairs: Vec<(u32, f32)> = (0..48)
            .map(|i| (((rank * 37 + i * 11) % dim) as u32, 1.0f32))
            .collect();
        SparseStream::from_pairs(dim, &pairs).unwrap()
    };
    for algo in Algorithm::ALL {
        let virtual_outs = run_communicators(p, CostModel::zero(), |comm| {
            comm.allreduce(&mk(comm.rank()))
                .algorithm(algo)
                .launch()
                .and_then(|h| h.wait())
                .unwrap()
        });
        let reactor_outs = run_reactor_communicators(p, |comm| {
            comm.allreduce(&mk(comm.rank()))
                .algorithm(algo)
                .launch()
                .and_then(|h| h.wait())
                .unwrap()
        });
        assert_eq!(virtual_outs, reactor_outs, "{algo:?}");
    }
}

// ---------------------------------------------------------------------------
// Socket edge cases
// ---------------------------------------------------------------------------

/// Data-frame header as the wire defines it: `[len: u32 LE][tag: u64 LE]`.
fn frame_header(len: usize, tag: u64) -> Vec<u8> {
    let mut h = Vec::with_capacity(12);
    h.extend_from_slice(&(len as u32).to_le_bytes());
    h.extend_from_slice(&tag.to_le_bytes());
    h
}

#[test]
fn short_reads_reassemble_into_whole_frames() {
    // The payload dribbles in over many small raw writes with pauses;
    // the loop's incremental reassembly must carry the partial frame
    // across wakeups and deliver exactly one message.
    let payload: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
    let expected = payload.clone();
    let results = run_reactor_loopback_cluster(2, CostModel::zero(), quick_config(), move |tp| {
        if tp.rank() == 1 {
            let mut wire = frame_header(payload.len(), 9);
            wire.extend_from_slice(&payload);
            for chunk in wire.chunks(7) {
                tp.send_raw(0, chunk).unwrap();
                std::thread::sleep(Duration::from_micros(200));
            }
            // Hold the socket open until rank 0 confirms receipt, so the
            // frame cannot be confused with a close-race.
            let _ = tp.recv(0, 10).unwrap();
            Vec::new()
        } else {
            let got = tp.recv(1, 9).unwrap();
            tp.send(1, 10, Bytes::new()).unwrap();
            got.to_vec()
        }
    });
    assert_eq!(results[0], expected);
}

#[test]
fn peer_closing_mid_frame_is_a_typed_disconnect() {
    let results = run_reactor_loopback_cluster(2, CostModel::zero(), quick_config(), |tp| {
        if tp.rank() == 1 {
            // Declare 100 payload bytes, deliver only 10, then vanish.
            let mut wire = frame_header(100, 3);
            wire.extend_from_slice(&[0xAB; 10]);
            tp.send_raw(0, &wire).unwrap();
            (true, String::new())
        } else {
            let err = tp.recv(1, 3).unwrap_err();
            let reason = tp.close_reason(1).unwrap_or("").to_string();
            (
                matches!(err, CommError::PeerDisconnected { peer: 1 }),
                reason,
            )
        }
    });
    let (is_disconnect, reason) = &results[0];
    assert!(is_disconnect, "mid-frame close must be PeerDisconnected");
    assert!(
        reason.contains("mid-frame"),
        "close reason should say mid-frame, got: {reason}"
    );
}

#[test]
fn oversized_frame_declaration_is_rejected() {
    // A corrupt (or hostile) length prefix must not be honored with a
    // giant allocation: the connection is dropped with a typed error.
    let config = quick_config();
    let small = TransportConfig {
        max_frame_len: 1 << 10,
        ..config
    };
    let results = run_reactor_loopback_cluster(2, CostModel::zero(), small, |tp| {
        if tp.rank() == 1 {
            tp.send_raw(0, &frame_header(1 << 20, 4)).unwrap();
            // Our peer will cut the connection; just report success.
            (true, String::new())
        } else {
            let err = tp.recv(1, 4).unwrap_err();
            let reason = tp.close_reason(1).unwrap_or("").to_string();
            (
                matches!(err, CommError::PeerDisconnected { peer: 1 }),
                reason,
            )
        }
    });
    let (is_disconnect, reason) = &results[0];
    assert!(is_disconnect);
    assert!(
        reason.contains("exceeds"),
        "close reason should flag the limit, got: {reason}"
    );
}

#[test]
fn malformed_wire_frames_surface_typed_stream_errors() {
    // Frames arrive intact over TCP but their wire payload is bad: the
    // existing typed StreamErrors must surface, exactly as in-process.
    let results = run_reactor_loopback_cluster(2, CostModel::zero(), quick_config(), |tp| {
        if tp.rank() == 1 {
            // 20-byte sparse header (magic, version, width, repr tag, dim
            // u64, nnz u64), 16 × f32 values, then the Elias–Fano index:
            // L = 3 and the base (index 5) at byte 84, 6 bytes of low bits
            // and 6 of upper bits, the last one bit 4 of the final byte.
            let good = random_sparse::<f32>(256, 16, 42).encode();
            assert_eq!(good.len(), 20 + 16 * 4 + 5 + 6 + 6);
            assert_eq!((good[3], good[84], good[85]), (2, 3, 5));
            // (a) truncated: drop the tail of a valid frame.
            tp.send(0, 1, good.slice(0..good.len() - 5)).unwrap();
            // (b) a base of 10 carries the last index, 252, to 257, past
            // dim = 256 (an unsorted index slab has no encoding to send).
            let mut bad = good.to_vec();
            bad[85..89].copy_from_slice(&10u32.to_le_bytes());
            tp.send(0, 2, Bytes::from(bad)).unwrap();
            // (c) a 17th one in the upper bitvector, past the last entry.
            let mut bad = good.to_vec();
            bad[100] |= 0x80;
            tp.send(0, 3, Bytes::from(bad)).unwrap();
            let _ = tp.recv(0, 4).unwrap();
            Vec::new()
        } else {
            let errors = (1..=3)
                .map(|tag| SparseStream::<f32>::decode(&tp.recv(1, tag).unwrap()).unwrap_err())
                .collect();
            tp.send(1, 4, Bytes::new()).unwrap();
            errors
        }
    });
    let [truncated, out_of_bounds, extra_one] = &results[0][..] else {
        panic!("got {:?}", results[0]);
    };
    assert!(
        matches!(truncated, StreamError::Truncated { .. }),
        "got {truncated:?}"
    );
    assert!(
        matches!(
            out_of_bounds,
            StreamError::IndexOutOfBounds { dim: 256, .. }
        ),
        "got {out_of_bounds:?}"
    );
    assert!(
        matches!(extra_one, StreamError::Corrupt(_)),
        "got {extra_one:?}"
    );
}

#[test]
fn communicator_survives_collective_error_and_reports_it() {
    // A collective over a vanished peer must error (not hang), and the
    // error must be a communication error.
    let config = quick_config().with_recv_timeout(Duration::from_secs(2));
    let results = run_reactor_loopback_cluster(2, CostModel::zero(), config, |tp| {
        if tp.rank() == 1 {
            // Vanish before participating.
            String::new()
        } else {
            let mut comm = Communicator::new(tp.detach());
            let input = random_sparse::<f32>(512, 16, 3);
            let err = comm
                .allreduce(&input)
                .algorithm(Algorithm::SsarRecDbl)
                .launch()
                .and_then(|h| h.wait())
                .unwrap_err();
            *tp = comm.into_transport();
            err.to_string()
        }
    });
    assert!(
        results[0].contains("disconnected") || results[0].contains("timed out"),
        "got: {}",
        results[0]
    );
}

#[test]
fn busy_receiver_keeps_a_large_send_moving() {
    // The write-stall deadline is the config's 1 s; the receiver sleeps
    // 2.5 s before it reads. Only the receiving loop's background drain
    // keeps the sender's writes moving meanwhile: without it the sender
    // would fail its peer as wedged.
    const LEN: usize = 64 << 20;
    let config = quick_config().with_recv_timeout(Duration::from_secs(1));
    let results = run_reactor_loopback_cluster(2, CostModel::zero(), config, |tp| {
        tp.set_recv_deadline(Duration::from_secs(10));
        if tp.rank() == 0 {
            tp.send(1, 1, Bytes::from(vec![7u8; LEN]))?;
            tp.recv(1, 2).map(|ack| ack.len())
        } else {
            std::thread::sleep(Duration::from_millis(2500));
            let got = tp.recv(0, 1)?;
            assert!(got.iter().all(|&b| b == 7), "payload intact");
            tp.send(0, 2, Bytes::from_static(b"ok"))?;
            Ok(got.len())
        }
    });
    assert_eq!(results, vec![Ok(2), Ok(LEN)]);
}

/// A small frame whose payload is its sequence number.
fn seq_frame(seq: u32) -> Bytes {
    Bytes::from(seq.to_le_bytes().to_vec())
}

fn seq_of(frame: &[u8]) -> u32 {
    u32::from_le_bytes(frame[..4].try_into().unwrap())
}

#[test]
fn frames_keep_their_order_per_source_and_tag_across_delivery_routes() {
    // Three routes into one receive, on two interleaved tags:
    // * seqs 0..8 arrive while the receiver sleeps through several of
    //   the loop's 100 ms drains, which queue them;
    // * seq 8 is 16 MiB, more than the socket takes at once, so the rest
    //   is parked at the sender and seqs 9..16 queue behind it;
    // * seqs 16..24 are sent once the receiver is blocked in `recv`, which
    //   reads them off the socket itself.
    // Each tag must come out in send order.
    const BIG: usize = 16 << 20;
    const TAGS: [u64; 2] = [5, 7];
    let results = run_reactor_loopback_cluster(2, CostModel::zero(), quick_config(), |tp| {
        if tp.rank() == 0 {
            for seq in 0..16u32 {
                let payload = if seq == 8 {
                    let mut big = vec![0u8; BIG];
                    big[..4].copy_from_slice(&seq.to_le_bytes());
                    Bytes::from(big)
                } else {
                    seq_frame(seq)
                };
                for tag in TAGS {
                    tp.send(1, tag, payload.clone()).unwrap();
                }
            }
            let partial = tp.stats_mut().partial_writes;
            let _ = tp.recv(1, 6).unwrap();
            std::thread::sleep(Duration::from_millis(50));
            for seq in 16..24u32 {
                for tag in TAGS {
                    tp.send(1, tag, seq_frame(seq)).unwrap();
                }
            }
            let _ = tp.recv(1, 6).unwrap();
            assert!(partial >= 1, "the 16 MiB frame must have parked");
            Vec::new()
        } else {
            std::thread::sleep(Duration::from_millis(500));
            assert!(tp.stats_mut().wakeups >= 2, "the loop's drain ran");
            tp.send(0, 6, Bytes::new()).unwrap();
            // All of the first tag, then all of the second: every frame of
            // the second goes into the out-of-order buffer on the way.
            let got: Vec<Vec<u32>> = TAGS
                .iter()
                .map(|&tag| {
                    (0..24)
                        .map(|_| {
                            let frame = tp.recv(0, tag).unwrap();
                            if seq_of(&frame) == 8 {
                                assert_eq!(frame.len(), BIG);
                            }
                            seq_of(&frame)
                        })
                        .collect()
                })
                .collect();
            tp.send(0, 6, Bytes::new()).unwrap();
            got
        }
    });
    let expect: Vec<u32> = (0..24).collect();
    for (tag, seqs) in TAGS.iter().zip(&results[1]) {
        assert_eq!(seqs, &expect, "tag {tag}");
    }
}

#[test]
fn wrong_rank_fails_reactor_rendezvous() {
    // Sanity on the typed bootstrap errors without any env mutation.
    let err = ReactorTransport::rendezvous(
        3,
        2,
        "127.0.0.1:1",
        CostModel::zero(),
        TransportConfig::default(),
    )
    .unwrap_err();
    assert!(matches!(err, CommError::InvalidRank { rank: 3, size: 2 }));
}

// ---------------------------------------------------------------------------
// Thread scale: P = 64 in one process
// ---------------------------------------------------------------------------

/// This process's live thread count, from `/proc/self/status`.
fn process_threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
}

#[test]
fn p64_loopback_smoke_with_bounded_threads() {
    // 64 ranks in one process: a thread pair per peer connection would be
    // 64·2·63 ≈ 8000 I/O threads; the transport needs one loop thread per
    // rank. Run a real allreduce and assert the thread count stays there.
    let p = 64;
    let dim = 2048;
    let nnz = 32;
    let ins: Vec<SparseStream<f32>> = (0..p)
        .map(|r| {
            let pairs: Vec<(u32, f32)> = (0..nnz)
                .map(|i| (((r * 131 + i * 17) % dim) as u32, 1.0f32))
                .collect();
            SparseStream::from_pairs(dim, &pairs).unwrap()
        })
        .collect();
    let expect = reference_sum(&ins);
    let config = TransportConfig::default()
        .with_recv_timeout(Duration::from_secs(60))
        .with_connect_timeout(Duration::from_secs(60));
    let outs = run_reactor_communicators_with(p, CostModel::loopback_tcp(), config, |comm| {
        let out = comm
            .allreduce(&ins[comm.rank()])
            .algorithm(Algorithm::SsarRecDbl)
            .launch()
            .and_then(|h| h.wait())
            .unwrap();
        (out.to_dense_vec(), process_threads())
    });
    for (rank, (got, threads)) in outs.iter().enumerate() {
        assert_eq!(got, &expect, "rank {rank} result");
        if let Some(threads) = threads {
            // 64 rank threads + 64 loop threads + main + slack.
            assert!(
                *threads <= 3 * p + 16,
                "rank {rank} saw {threads} threads — not event-loop scale"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Progress engine over sockets
// ---------------------------------------------------------------------------

/// Deterministic integer-valued input for `(rank, layer)` (identical to
/// the engine suite's helper): every summation order produces identical
/// bits, so fused and sequential results compare exactly.
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

#[test]
fn engine_fused_group_is_exact() {
    // The progress engine's fused-bucket path (background thread owning
    // the transport, priority-scheduled concurrent collectives) on top of
    // the socket transport: detach/reattach and tag-block isolation must
    // compose with the event loop.
    let (p, layers, dim, nnz) = (4, 16, 1024, 48);
    let expect: Vec<Vec<f32>> = (0..layers)
        .map(|l| {
            let ins: Vec<SparseStream<f32>> =
                (0..p).map(|r| integer_stream(r, l, dim, nnz)).collect();
            reference_sum(&ins)
        })
        .collect();
    let outs = run_reactor_communicators(p, |comm| {
        let config = EngineConfig {
            algorithm: Algorithm::SsarRecDbl,
            ..EngineConfig::default()
        };
        let mut engine = comm.engine::<f32>(config);
        let grads: Vec<SparseStream<f32>> = (0..layers)
            .map(|l| integer_stream(engine.rank(), l, dim, nnz))
            .collect();
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
            assert_eq!(
                out.to_dense_vec(),
                expect[l],
                "fused layer {l} must be element-exact over sockets"
            );
        }
    }
}
