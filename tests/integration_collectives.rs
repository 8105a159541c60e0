//! Cross-crate integration tests: every collective against the sequential
//! reference, across representations, precisions, rank counts,
//! configurations — and across *transports*: the same collective programs
//! run on the virtual-time `Endpoint` and on the real-thread
//! `ThreadTransport`.

use sparcml::core::reference::reference_sum;
use sparcml::core::{
    max_communicator_time, run_communicators, run_reactor_communicators, run_thread_communicators,
    select_algorithm, Algorithm, Communicator, Transport,
};
use sparcml::net::CostModel;
use sparcml::quant::QsgdConfig;
use sparcml::stream::{
    expected_entry_bytes, random_sparse, uniform_indices, Scalar, SparseStream, XorShift64,
};

/// Runs one allreduce program on every rank of both backends and checks
/// each against the reference sum — the transport-parity harness.
fn check_algo_on_both_transports<V: Scalar>(
    algo: Algorithm,
    p: usize,
    dim: usize,
    nnz: usize,
    tol: f64,
) {
    fn program<T: Transport + Send + 'static, V: Scalar>(
        comm: &mut Communicator<T>,
        ins: &[SparseStream<V>],
        algo: Algorithm,
    ) -> SparseStream<V> {
        comm.allreduce(&ins[comm.rank()])
            .algorithm(algo)
            .launch()
            .and_then(|handle| handle.wait())
            .unwrap()
    }
    let ins: Vec<SparseStream<V>> = (0..p)
        .map(|r| random_sparse(dim, nnz, 9000 + r as u64))
        .collect();
    let expect = reference_sum(&ins);
    let virtual_outs = run_communicators(p, CostModel::zero(), |comm| program(comm, &ins, algo));
    let thread_outs = run_thread_communicators(p, |comm| program(comm, &ins, algo));
    for (backend, outs) in [("Endpoint", virtual_outs), ("ThreadTransport", thread_outs)] {
        for (rank, out) in outs.iter().enumerate() {
            assert_eq!(out.dim(), dim);
            let got = out.to_dense_vec();
            for (i, (g, e)) in got.iter().zip(expect.iter()).enumerate() {
                assert!(
                    (g.to_f64() - e.to_f64()).abs() < tol,
                    "{algo:?} on {backend} rank {rank} coord {i}: {g:?} vs {e:?}"
                );
            }
        }
    }
}

#[test]
fn all_algorithms_agree_with_reference_f32() {
    for algo in Algorithm::ALL {
        check_algo_on_both_transports::<f32>(algo, 8, 4096, 128, 1e-3);
    }
}

#[test]
fn all_algorithms_agree_with_reference_f64() {
    for algo in Algorithm::ALL {
        check_algo_on_both_transports::<f64>(algo, 4, 2048, 64, 1e-9);
    }
}

#[test]
fn auto_agrees_with_reference_on_both_transports() {
    // The default path: Algorithm::Auto resolves through the selector.
    check_algo_on_both_transports::<f32>(Algorithm::Auto, 8, 4096, 128, 1e-3);
    check_algo_on_both_transports::<f32>(Algorithm::Auto, 5, 1024, 512, 1e-3);
}

#[test]
fn all_algorithms_handle_two_and_one_ranks() {
    for algo in Algorithm::ALL {
        check_algo_on_both_transports::<f32>(algo, 1, 256, 16, 1e-4);
        check_algo_on_both_transports::<f32>(algo, 2, 256, 16, 1e-4);
    }
}

#[test]
fn empty_inputs_reduce_to_zero() {
    for algo in Algorithm::ALL {
        let outs = run_communicators(4, CostModel::zero(), |comm| {
            let input = SparseStream::<f32>::zeros(512);
            comm.allreduce(&input)
                .algorithm(algo)
                .launch()
                .and_then(|handle| handle.wait())
                .unwrap()
        });
        for out in outs {
            assert_eq!(out.nnz(), 0, "{algo:?}");
        }
    }
}

#[test]
fn repeated_collectives_in_one_session_do_not_cross_match() {
    // Three different allreduces back-to-back on the same communicator;
    // tags must isolate them.
    let p = 4;
    let dims = [512usize, 1024, 256];
    let outs = run_communicators(p, CostModel::zero(), |comm| {
        let mut results = Vec::new();
        for (i, &dim) in dims.iter().enumerate() {
            let input = random_sparse::<f32>(dim, 16, (i * 100 + comm.rank()) as u64);
            let algo = match i {
                0 => Algorithm::SsarRecDbl,
                1 => Algorithm::SsarSplitAllgather,
                _ => Algorithm::DenseRabenseifner,
            };
            results.push(
                comm.allreduce(&input)
                    .algorithm(algo)
                    .launch()
                    .and_then(|handle| handle.wait())
                    .unwrap(),
            );
        }
        results
    });
    for (i, &dim) in dims.iter().enumerate() {
        let ins: Vec<SparseStream<f32>> = (0..p)
            .map(|r| random_sparse(dim, 16, (i * 100 + r) as u64))
            .collect();
        let expect = reference_sum(&ins);
        for rank_out in &outs {
            let got = rank_out[i].to_dense_vec();
            for (g, e) in got.iter().zip(expect.iter()) {
                assert!((g - e).abs() < 1e-4);
            }
        }
    }
}

#[test]
fn quantized_dsar_is_within_qsgd_error_bound() {
    let p = 8;
    let dim = 8192;
    let ins: Vec<SparseStream<f32>> = (0..p)
        .map(|r| random_sparse(dim, 512, 400 + r as u64))
        .collect();
    let expect = reference_sum(&ins);
    let quant = QsgdConfig {
        bits: 8,
        bucket_size: 512,
        ..QsgdConfig::paper_default()
    };
    let outs = run_communicators(p, CostModel::zero(), |comm| {
        comm.allreduce(&ins[comm.rank()])
            .algorithm(Algorithm::SsarSplitAllgather)
            .quantized(quant)
            .launch()
            .and_then(|handle| handle.wait())
            .unwrap()
    });
    let max_abs = expect.iter().fold(0.0f32, |m, v| m.max(v.abs()));
    for out in outs {
        for (g, e) in out.to_dense_vec().iter().zip(expect.iter()) {
            assert!((g - e).abs() <= max_abs / 127.0 + 1e-3, "{g} vs {e}");
        }
    }
}

#[test]
fn mixed_blocking_and_nonblocking_collectives() {
    let p = 4;
    let dim = 2048;
    let ins: Vec<SparseStream<f32>> = (0..p)
        .map(|r| random_sparse(dim, 64, 777 + r as u64))
        .collect();
    let expect = reference_sum(&ins);
    let outs = run_communicators(p, CostModel::zero(), |comm| {
        // Blocking first…
        let first = comm
            .allreduce(&ins[comm.rank()])
            .algorithm(Algorithm::SsarRecDbl)
            .launch()
            .and_then(|handle| handle.wait())
            .unwrap();
        // …then a non-blocking one over the *result*, on the same
        // session.
        comm.allreduce(&first)
            .algorithm(Algorithm::SsarSplitAllgather)
            .nonblocking()
            .launch()
            .and_then(|handle| handle.wait())
            .unwrap()
    });
    // Second reduction sums the (identical) first results: P × first.
    for out in outs {
        for (g, e) in out.to_dense_vec().iter().zip(expect.iter()) {
            let scaled = e * p as f32;
            assert!((g - scaled).abs() < 1e-2, "{g} vs {scaled}");
        }
    }
}

#[test]
fn nonblocking_launches_reuse_the_session_pool() {
    // Every launch runs on the session's own buffer pool: the second
    // non-blocking launch must find the buffers the first one left.
    let outs = run_communicators(4, CostModel::zero(), |comm| {
        let input = random_sparse::<f32>(1024, 32, comm.rank() as u64);
        let mut acquires = [0u64; 2];
        for slot in &mut acquires {
            comm.allreduce(&input)
                .nonblocking()
                .launch()
                .and_then(|handle| handle.wait())
                .unwrap();
            *slot = comm.stats_snapshot().pool_acquires;
        }
        (acquires, comm.stats_snapshot().pool_reuses)
    });
    for ([first, second], reuses) in outs {
        assert!(first > 0 && second > first, "acquires {first} -> {second}");
        assert!(reuses > 0, "no buffer survived from the first launch");
    }
}

#[test]
fn auto_round_trips_through_select_algorithm() {
    // Algorithm::Auto must dispatch exactly what select_algorithm picks
    // for the agreed workload (all ranks share k here, so the agreement
    // step is the identity).
    let cost = CostModel::aries();
    for &(p, n, k) in &[
        (8usize, 1 << 16, 1 << 6),
        (8, 1 << 16, 1 << 12),
        (4, 1 << 14, 1 << 11),
    ] {
        let resolved = Algorithm::Auto.resolve_for::<f32>(p, n, k, &cost);
        let expected = select_algorithm::<f32>(p, n, k, &cost);
        assert_eq!(resolved, expected, "P={p} N={n} k={k}");
        assert!(
            !resolved.is_auto(),
            "Auto must resolve to a concrete schedule"
        );

        // And the dispatched result matches the pinned choice exactly —
        // same schedule, same floating-point summation order.
        let ins: Vec<SparseStream<f32>> =
            (0..p).map(|r| random_sparse(n, k, 5 + r as u64)).collect();
        let auto_outs = run_communicators(p, cost, |comm| {
            comm.allreduce(&ins[comm.rank()])
                .launch()
                .and_then(|h| h.wait())
                .unwrap()
        });
        let pinned_outs = run_communicators(p, cost, |comm| {
            comm.allreduce(&ins[comm.rank()])
                .algorithm(expected)
                .launch()
                .and_then(|h| h.wait())
                .unwrap()
        });
        assert_eq!(
            auto_outs, pinned_outs,
            "P={p} N={n} k={k} chose {expected:?}"
        );
    }
}

#[test]
fn auto_straddling_the_rec_dbl_boundary_falls_back_to_the_reference() {
    // Half the ranks hold k=100 (their own pick: recursive doubling, so
    // they enter the pass eager and attach their streams), half hold
    // k=2e5 (not eager). The bit dies somewhere along the way — in round
    // 0 when the halves interleave, in the last round (or the fold hop)
    // when they are the low and high ranks — every rank learns k = 2e5,
    // and the fallback schedule returns the exact sum everywhere.
    let cost = CostModel::aries();
    let dim = 1 << 20;
    for p in [8usize, 6] {
        for interleaved in [true, false] {
            let small = |rank: usize| {
                if interleaved {
                    rank.is_multiple_of(2)
                } else {
                    rank < p / 2
                }
            };
            let ins: Vec<SparseStream<f32>> = (0..p)
                .map(|rank| {
                    let k = if small(rank) { 100 } else { 200_000 };
                    let mut rng = XorShift64::new(31 + rank as u64);
                    let idx = uniform_indices(dim, k, &mut rng);
                    // Small integers: every schedule's f32 sum is exact.
                    let pairs: Vec<(u32, f32)> =
                        idx.into_iter().map(|i| (i, (1 + i % 5) as f32)).collect();
                    SparseStream::from_pairs(dim, &pairs).unwrap()
                })
                .collect();
            assert_eq!(
                select_algorithm::<f32>(p, dim, 100, &cost),
                Algorithm::SsarRecDbl
            );
            let agreed = select_algorithm::<f32>(p, dim, 200_000, &cost);
            assert_ne!(agreed, Algorithm::SsarRecDbl);
            let expect = reference_sum(&ins);
            let outs = run_communicators(p, cost, |comm| {
                let out = comm
                    .allreduce(&ins[comm.rank()])
                    .launch()
                    .and_then(|h| h.wait())
                    .unwrap();
                let stats = comm.stats_snapshot();
                (out, stats.auto_fused, stats.auto_fallback)
            });
            for (rank, (out, fused, fallback)) in outs.into_iter().enumerate() {
                assert_eq!(
                    out.to_dense_vec(),
                    expect,
                    "P={p} interleaved={interleaved} rank {rank}"
                );
                assert_eq!((fused, fallback), (0, 1), "rank {rank}");
            }
        }
    }
}

#[test]
fn auto_costs_no_round_where_recursive_doubling_is_the_pick() {
    // The paper's latency-bound regime on Aries at P=8, k=100: Auto sends
    // log2(P) = 3 messages per rank — the schedule's own, nothing for
    // agreement — and finishes within the three 8-byte words of the
    // pinned schedule's time.
    let cost = CostModel::aries();
    let (p, dim, k) = (8usize, 1 << 20, 100);
    let ins: Vec<SparseStream<f32>> = (0..p)
        .map(|r| random_sparse(dim, k, 61 + r as u64))
        .collect();
    let run = |algo: Algorithm| {
        run_communicators(p, cost, |comm| {
            comm.allreduce(&ins[comm.rank()])
                .algorithm(algo)
                .launch()
                .and_then(|h| h.wait())
                .unwrap();
            (comm.clock(), comm.stats_snapshot())
        })
    };
    let auto = run(Algorithm::Auto);
    let pinned = run(Algorithm::SsarRecDbl);
    for ((t_auto, stats), (t_pinned, _)) in auto.iter().zip(&pinned) {
        assert_eq!(stats.msgs_sent, 3);
        assert_eq!((stats.auto_fused, stats.auto_fallback), (1, 0));
        assert!(
            (t_auto - t_pinned).abs() <= 3.0 * 8.0 * cost.beta,
            "auto {t_auto} vs pinned {t_pinned}"
        );
    }
    // And the report shows it.
    let report = run_communicators(2, cost, |comm| {
        comm.allreduce(&ins[comm.rank()])
            .launch()
            .and_then(|h| h.wait())
            .unwrap();
        comm.stats_report()
    });
    assert!(report[0].contains("auto_fused 1\n") && report[0].contains("auto_fallback 0\n"));
}

/// `k` distinct uniform indices of `dim` with small integer values, so
/// every schedule's f32 sum is exact.
fn integer_sparse(dim: usize, k: usize, seed: u64) -> SparseStream<f32> {
    let idx = uniform_indices(dim, k, &mut XorShift64::new(seed));
    let pairs: Vec<(u32, f32)> = idx.into_iter().map(|i| (i, (1 + i % 5) as f32)).collect();
    SparseStream::from_pairs(dim, &pairs).unwrap()
}

/// `k` sorted indices of `dim`, one drawn uniformly from each of `k`
/// equal buckets, with standard-normal values: the density of
/// `random_sparse` without its hash set, which costs seconds per rank at
/// k = 3e5 in an unoptimised build.
fn bucketed_sparse(dim: usize, k: usize, seed: u64) -> SparseStream<f32> {
    let mut rng = XorShift64::new(seed);
    let width = dim / k;
    let pairs: Vec<(u32, f32)> = (0..k)
        .map(|j| {
            let at = j * width + rng.next_below(width as u64) as usize;
            (at as u32, rng.next_gaussian() as f32)
        })
        .collect();
    SparseStream::from_pairs(dim, &pairs).unwrap()
}

fn is_split(algo: Algorithm) -> bool {
    algo == Algorithm::SsarSplitAllgather
}

/// Runs `algo` on `ins` over a virtual cluster; per rank: the result, the
/// clock and the counters.
fn run_virtual(
    ins: &[SparseStream<f32>],
    cost: CostModel,
    algo: Algorithm,
) -> Vec<(SparseStream<f32>, f64, sparcml::net::CommStats)> {
    run_communicators(ins.len(), cost, |comm| {
        let out = comm
            .allreduce(&ins[comm.rank()])
            .algorithm(algo)
            .launch()
            .and_then(|h| h.wait())
            .unwrap();
        (out, comm.clock(), comm.stats_snapshot())
    })
}

#[test]
fn auto_costs_an_isend_per_round_where_a_split_schedule_is_the_pick() {
    // Aries, N = 2^20, P a power of two. Every rank's own k picks a split
    // schedule, so every rank sends its split-phase frames between the
    // pass's rounds, and each bare word goes out with an isend: Auto costs
    // the pinned pick plus ⌊log2 P⌋·0.1α on every rank — where the bare
    // pass cost ⌊log2 P⌋·α — and sends the pinned pick's frames plus one
    // 8-byte word per round.
    let cost = CostModel::aries();
    let dim = 1 << 20;
    for (p, k) in [
        (8usize, 10_000usize),
        (8, 300_000),
        (16, 10_000),
        (16, 300_000),
    ] {
        let pick = select_algorithm::<f32>(p, dim, k, &cost);
        assert!(is_split(pick), "P={p} k={k}: {pick:?}");
        let ins: Vec<SparseStream<f32>> = (0..p)
            .map(|r| bucketed_sparse(dim, k, 81 + r as u64))
            .collect();
        let rounds = p.ilog2() as u64;
        let extra = rounds as f64 * cost.isend_alpha_fraction * cost.alpha;
        let auto = run_virtual(&ins, cost, Algorithm::Auto);
        let pinned = run_virtual(&ins, cost, pick);
        for (rank, ((out, t_auto, stats), (expect, t_pinned, base))) in
            auto.iter().zip(&pinned).enumerate()
        {
            let what = format!("P={p} k={k} rank {rank}");
            assert_eq!(out, expect, "{what}");
            assert!(
                (t_auto - t_pinned - extra).abs() <= 1e-12,
                "{what}: auto {t_auto} vs pinned {t_pinned} + {extra}"
            );
            assert_eq!(stats.msgs_sent, base.msgs_sent + rounds, "{what}");
            assert_eq!(stats.bytes_sent, base.bytes_sent + 8 * rounds, "{what}");
            assert_eq!((stats.auto_fused, stats.auto_fallback), (0, 1), "{what}");
        }
    }
}

#[test]
fn auto_split_pick_off_powers_of_two_pays_under_half_the_bare_pass() {
    // Off powers of two the parked ranks speculate too, but each still
    // waits out its partner's unfold word: Auto's excess over the pinned
    // pick stays under half of the bare pass it replaced — (⌊log2 P⌋ + 2)
    // words, 7.50 µs at P=12 and 6.00 µs at P=5.
    let cost = CostModel::aries();
    let dim = 1 << 20;
    for (p, k) in [(12usize, 10_000usize), (5, 200_000)] {
        let pick = select_algorithm::<f32>(p, dim, k, &cost);
        assert!(is_split(pick), "P={p} k={k}: {pick:?}");
        let ins: Vec<SparseStream<f32>> = (0..p)
            .map(|r| bucketed_sparse(dim, k, 91 + r as u64))
            .collect();
        let slowest =
            |runs: &[(SparseStream<f32>, f64, _)]| runs.iter().map(|r| r.1).fold(0.0, f64::max);
        let auto = run_virtual(&ins, cost, Algorithm::Auto);
        let pinned = run_virtual(&ins, cost, pick);
        for (a, b) in auto.iter().zip(&pinned) {
            assert_eq!(a.0, b.0, "P={p} k={k}");
        }
        let bare_pass = (p.ilog2() + 2) as f64 * (cost.alpha + 8.0 * cost.beta);
        let gap = slowest(&auto) - slowest(&pinned);
        assert!(
            gap <= bare_pass / 2.0,
            "P={p} k={k}: Auto pays {gap} s over {pick:?}, half the bare pass is {}",
            bare_pass / 2.0
        );
    }
}

#[test]
fn auto_drains_speculated_frames_when_the_agreed_pick_is_not_a_split() {
    // Some ranks' own k picks a split schedule, so they speculate, but the
    // agreed (largest) k picks one outside the split family. The frames
    // they sent are drained before that schedule runs: the result is
    // exact, every frame a call sends is received within it, and a second
    // call on the same session costs what the first did. Such a k pair
    // takes a γ-heavy model, where a moderate k picks SSAR_Split_allgather
    // and a larger one the dense baseline — at P=16, where the split
    // schedules' (P − 1)·α split latency outgrows Rabenseifner's; the
    // selector finds it.
    let cost = CostModel {
        gamma: 1e-8,
        ..CostModel::aries()
    };
    let dim = 1 << 14;
    let found = [5usize, 8, 12, 16].into_iter().find_map(|p| {
        let pick = |k: usize| select_algorithm::<f32>(p, dim, k, &cost);
        let ks = (1..=64).map(|i| dim * i / 64);
        let small = ks.clone().find(|&k| is_split(pick(k)))?;
        let big = ks.filter(|&k| k > small).find(|&k| !is_split(pick(k)))?;
        Some((p, small, big))
    });
    let (p, small, big) = found.expect("no k pair where a split pick gives way to another");
    // Rank 0 holds the larger k; every other rank speculates.
    let ins: Vec<SparseStream<f32>> = (0..p)
        .map(|rank| integer_sparse(dim, if rank == 0 { big } else { small }, 7 + rank as u64))
        .collect();
    let expect = reference_sum(&ins);
    let calls = run_communicators(p, cost, |comm| {
        (0..2)
            .map(|_| {
                comm.reset_clock();
                let out = comm
                    .allreduce(&ins[comm.rank()])
                    .launch()
                    .and_then(|h| h.wait())
                    .unwrap();
                (out.to_dense_vec(), comm.clock(), comm.stats_snapshot())
            })
            .collect::<Vec<_>>()
    });
    for call in 0..2 {
        let sent: u64 = calls.iter().map(|c| c[call].2.msgs_sent).sum();
        let received: u64 = calls.iter().map(|c| c[call].2.msgs_recv).sum();
        assert_eq!(sent, received, "call {call}: frames outlived it");
    }
    for (rank, per_call) in calls.iter().enumerate() {
        let what = format!("P={p} k={small}/{big} rank {rank}");
        for (out, _, stats) in per_call {
            assert_eq!(out, &expect, "{what}");
            assert_eq!(stats.auto_fallback, 1, "{what}");
        }
        let cost_of = |c: &(Vec<f32>, f64, sparcml::net::CommStats)| (c.1, c.2.msgs_sent);
        assert_eq!(cost_of(&per_call[1]), cost_of(&per_call[0]), "{what}");
    }
}

#[test]
fn auto_pick_has_no_call_history() {
    // The schedule Auto runs is a function of the call alone: the 13th
    // identical allreduce of a session costs exactly the virtual time and
    // the messages of the first, at the latency-bound end (the pass is
    // the collective) and where the pick is the sparse split.
    let cost = CostModel::aries();
    let (p, dim) = (8usize, 1 << 20);
    for k in [100usize, 100_000] {
        let ins: Vec<SparseStream<f32>> = (0..p)
            .map(|r| random_sparse(dim, k, 71 + r as u64))
            .collect();
        let calls = run_communicators(p, cost, |comm| {
            (0..13)
                .map(|_| {
                    // Every call starts from a zeroed clock and counters.
                    comm.reset_clock();
                    comm.allreduce(&ins[comm.rank()])
                        .launch()
                        .and_then(|h| h.wait())
                        .unwrap();
                    (comm.clock(), comm.stats_snapshot().msgs_sent)
                })
                .collect::<Vec<_>>()
        });
        for (rank, per_call) in calls.iter().enumerate() {
            assert!(per_call[0].1 > 0, "k={k} rank {rank}");
            assert_eq!(per_call[12], per_call[0], "k={k} rank {rank}");
        }
    }
}

#[test]
fn selector_choice_is_never_far_from_best() {
    // For a few workloads, the adaptive choice must be within 2x of the
    // best measured algorithm (it is allowed to be approximate).
    let cost = CostModel::aries();
    for &(p, n, k) in &[
        (8usize, 1 << 16, 1 << 6),
        (8, 1 << 16, 1 << 12),
        (16, 1 << 14, 1 << 11),
    ] {
        let chosen = select_algorithm::<f32>(p, n, k, &cost);
        let measure = |algo: Algorithm| {
            max_communicator_time(p, cost, move |comm| {
                let input = random_sparse::<f32>(n, k, 5 + comm.rank() as u64);
                comm.allreduce(&input)
                    .algorithm(algo)
                    .launch()
                    .and_then(|handle| handle.wait())
                    .unwrap();
            })
        };
        let t_chosen = measure(chosen);
        let t_best = Algorithm::ALL
            .iter()
            .map(|a| measure(*a))
            .fold(f64::INFINITY, f64::min);
        assert!(
            t_chosen <= t_best * 2.0 + 1e-9,
            "P={p} N={n} k={k}: chose {chosen:?} at {t_chosen}, best {t_best}"
        );
    }
}

#[test]
fn selector_prices_pairs_as_the_wire_weighs_them() {
    // The picks at the benchmark's own shapes (Aries, N = 2^20), which the
    // price of a pair decides: the wire's figure for it, not a fixed
    // 4 + isize, keeps them on the schedules the virtual clock ranks best.
    use Algorithm::{SsarRecDbl, SsarSplitAllgather};
    let cost = CostModel::aries();
    let n = 1 << 20;
    for (p, k, best) in [
        (8usize, 100usize, &[SsarRecDbl][..]),
        (8, 1_000, &[SsarRecDbl]),
        (8, 10_000, &[SsarSplitAllgather]),
        // 1 107.6 against 1 206.5 virtual µs for recursive doubling,
        // which would save Auto its agreement: that is only 0.45 µs on
        // the split pick, whose split frames fly during the pass.
        (8, 100_000, &[SsarSplitAllgather]),
        (8, 300_000, &[SsarSplitAllgather]),
        (2, 256, &[SsarRecDbl]),
        (2, 100_000, &[SsarRecDbl]),
    ] {
        let pick = select_algorithm::<f32>(p, n, k, &cost);
        assert!(best.contains(&pick), "P={p} k={k}: picked {pick:?}");
    }
    // And that figure is the codec's: the expectation the selector prices
    // with against the exact frame size of a uniform support — an
    // Elias–Fano index at every k, and a bitmap (no low bits) in one of
    // P = 8 partition blocks of a 55 %-dense gathered sum, whose density
    // is its share of the block's N/8 slots.
    let block = n / 8;
    for (k, slots, offset) in [
        (100usize, n, 0u32),
        (10_000, n, 0),
        (100_000, n, 0),
        (300_000, n, 0),
        (72_000, block, 3 * block as u32),
    ] {
        let indices = uniform_indices(slots, k, &mut XorShift64::new(k as u64))
            .into_iter()
            .map(|i| i + offset)
            .collect();
        let stream = SparseStream::from_slabs(n, indices, vec![1.0f32; k]).unwrap();
        let exact = (stream.encoded_len() - 20) as f64;
        let expected = k as f64 * expected_entry_bytes(4, k as f64 / slots as f64);
        assert!(
            (exact / expected - 1.0).abs() < 0.03,
            "k={k} in {slots} slots: {exact} B on the wire, {expected} B expected"
        );
    }
}

#[test]
fn allgather_integration_round_trip() {
    let p = 6;
    let outs = run_communicators(p, CostModel::aries(), |comm| {
        let mine = random_sparse::<f32>(4096, 32, 31 + comm.rank() as u64);
        comm.allgather(&mine)
            .launch()
            .and_then(|handle| handle.wait())
            .unwrap()
    });
    for ranks in &outs {
        assert_eq!(ranks.len(), p);
        for (r, s) in ranks.iter().enumerate() {
            assert_eq!(s, &random_sparse::<f32>(4096, 32, 31 + r as u64));
        }
    }
}

#[test]
fn allgather_sum_on_overlapping_supports_is_the_reference_bit_for_bit() {
    // Overlapping supports miss the concatenation and fall back to a fold
    // in rank order, the reference's own order, so every bit agrees.
    fn program<T: Transport + Send + 'static>(
        comm: &mut Communicator<T>,
        ins: &[SparseStream<f32>],
    ) -> SparseStream<f32> {
        comm.allgather_sum(&ins[comm.rank()])
            .launch()
            .and_then(|handle| handle.wait())
            .unwrap()
    }
    let bits = |values: Vec<f32>| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    for p in [3, 4, 5, 8] {
        let ins: Vec<SparseStream<f32>> = (0..p)
            .map(|r| random_sparse(256, 60, 900 + r as u64))
            .collect();
        let expect = bits(reference_sum(&ins));
        let virtual_outs = run_communicators(p, CostModel::zero(), |comm| program(comm, &ins));
        let thread_outs = run_thread_communicators(p, |comm| program(comm, &ins));
        for (backend, outs) in [("Endpoint", virtual_outs), ("ThreadTransport", thread_outs)] {
            for (rank, out) in outs.into_iter().enumerate() {
                let got = bits(out.to_dense_vec());
                assert_eq!(got, expect, "P={p} on {backend} rank {rank}");
            }
        }
    }
}

#[test]
fn rooted_collectives_compose_on_both_transports() {
    let p = 6;
    let dim = 2048;
    fn program<T: Transport + Send + 'static>(
        comm: &mut Communicator<T>,
        ins: &[SparseStream<f32>],
    ) -> SparseStream<f32> {
        let reduced = comm
            .reduce(&ins[comm.rank()], 1)
            .launch()
            .and_then(|h| h.wait())
            .unwrap();
        comm.broadcast(&reduced, 1)
            .launch()
            .and_then(|h| h.wait())
            .unwrap()
    }
    let ins: Vec<SparseStream<f32>> = (0..p)
        .map(|r| random_sparse(dim, 48, 61 + r as u64))
        .collect();
    let expect = reference_sum(&ins);
    let virtual_outs = run_communicators(p, CostModel::zero(), |comm| program(comm, &ins));
    let thread_outs = run_thread_communicators(p, |comm| program(comm, &ins));
    for outs in [virtual_outs, thread_outs] {
        for out in outs {
            for (g, e) in out.to_dense_vec().iter().zip(expect.iter()) {
                assert!((g - e).abs() < 1e-4);
            }
        }
    }
}

#[test]
fn dense_result_is_identical_across_algorithms_for_integer_values() {
    // With integer-valued inputs every summation order gives the same
    // bits, so all algorithms must agree exactly.
    let p = 8;
    let dim = 2048;
    let mk = |rank: usize| {
        let pairs: Vec<(u32, f32)> = (0..64)
            .map(|i| (((rank * 31 + i * 7) % dim) as u32, 1.0f32))
            .collect();
        SparseStream::from_pairs(dim, &pairs).unwrap()
    };
    let mut reference: Option<Vec<f32>> = None;
    for algo in Algorithm::ALL {
        let outs = run_communicators(p, CostModel::zero(), |comm| {
            comm.allreduce(&mk(comm.rank()))
                .algorithm(algo)
                .launch()
                .and_then(|handle| handle.wait())
                .unwrap()
        });
        let dense = outs[0].to_dense_vec();
        match &reference {
            None => reference = Some(dense),
            Some(r) => assert_eq!(&dense, r, "{algo:?} disagrees"),
        }
    }
}

#[test]
fn rec_dbl_on_a_dense_input_is_the_dense_schedule() {
    // Dense recursive doubling has no schedule of its own: on dense-held
    // inputs the sparse one sends one dense stream per round and sums
    // exactly. On Aries each 64 KB round travels as segments: the
    // stream's values, a 12-byte dense header per frame, and the segment
    // and agreement words on the first.
    let dim = 1 << 14;
    for p in [4usize, 8] {
        let ins: Vec<SparseStream<f32>> = (0..p)
            .map(|r| SparseStream::from_dense((0..dim).map(|i| ((i + r) % 5) as f32).collect()))
            .collect();
        let expect = reference_sum(&ins);
        let outs = run_communicators(p, CostModel::aries(), |comm| {
            let out = comm
                .allreduce(&ins[comm.rank()])
                .algorithm(Algorithm::SsarRecDbl)
                .launch()
                .and_then(|handle| handle.wait())
                .unwrap();
            let stats = comm.stats_snapshot();
            (out.to_dense_vec(), stats.bytes_sent, stats.msgs_sent)
        });
        let rounds = p.ilog2() as u64;
        for (rank, (got, sent, msgs)) in outs.iter().enumerate() {
            assert_eq!(got, &expect, "P={p} rank {rank}");
            assert!(
                *msgs > rounds,
                "P={p} rank {rank}: {msgs} frames in {rounds} rounds"
            );
            let exact = rounds * (4 * dim as u64 + 16) + msgs * 12;
            assert_eq!(*sent, exact, "P={p} rank {rank}");
        }
    }
}

#[test]
fn segmented_rec_dbl_is_bitwise_the_one_frame_schedule_on_every_transport() {
    // How many segments a recursive-doubling round travels as follows the
    // transport's cost model: on Aries these frames go as several, on the
    // free model as one. Pinned and through `Auto`, on the virtual clock,
    // on threads (whose model is Aries) and on sockets under either
    // model, the result and the δ-switch counters must be the one-frame
    // run's (P=2 crosses δ). Inputs overlap heavily and carry non-integer
    // values, so a range summed out of order would show.
    use sparcml::core::{run_reactor_communicators_with, TransportConfig};

    fn program<T: Transport + Send + 'static>(
        comm: &mut Communicator<T>,
        ins: &[SparseStream<f32>],
        algo: Algorithm,
    ) -> (Vec<u32>, u64, [u64; 2]) {
        let k = ins.iter().map(SparseStream::stored_len).max().unwrap();
        let pick = select_algorithm::<f32>(comm.size(), ins[0].dim(), k, comm.cost());
        assert_eq!(pick, Algorithm::SsarRecDbl, "P={} k={k}", comm.size());
        let out = comm
            .allreduce(&ins[comm.rank()])
            .algorithm(algo)
            .launch()
            .and_then(|handle| handle.wait())
            .unwrap();
        let bits = out.to_dense_vec().iter().map(|v| v.to_bits()).collect();
        let stats = comm.stats_snapshot();
        let switches = [stats.adaptive_densified, stats.switch_rounds];
        (bits, stats.msgs_sent, switches)
    }
    for (p, k) in [(2usize, 20_000), (3, 1_200), (8, 2_000)] {
        let ins: Vec<SparseStream<f32>> = (0..p)
            .map(|r| random_sparse(1 << 16, k, 7700 + r as u64))
            .collect();
        for algo in [Algorithm::SsarRecDbl, Algorithm::Auto] {
            let run = |backend: &str| match backend {
                "Endpoint, one frame" => {
                    run_communicators(p, CostModel::zero(), |comm| program(comm, &ins, algo))
                }
                "Endpoint" => {
                    run_communicators(p, CostModel::aries(), |comm| program(comm, &ins, algo))
                }
                "ThreadTransport" => run_thread_communicators(p, |comm| program(comm, &ins, algo)),
                _ => {
                    let model = if backend.ends_with("one frame") {
                        CostModel::zero()
                    } else {
                        CostModel::aries()
                    };
                    run_reactor_communicators_with(p, model, TransportConfig::default(), |comm| {
                        program(comm, &ins, algo)
                    })
                }
            };
            let one_frame = run("Endpoint, one frame");
            let frames = |outs: &[(Vec<u32>, u64, [u64; 2])]| outs.iter().map(|o| o.1).sum::<u64>();
            for backend in [
                "Endpoint",
                "ThreadTransport",
                "ReactorTransport",
                "ReactorTransport, one frame",
            ] {
                let outs = run(backend);
                for (rank, (bits, _, switches)) in outs.iter().enumerate() {
                    assert_eq!(
                        bits, &one_frame[0].0,
                        "P={p} {algo:?} on {backend} rank {rank}"
                    );
                    assert_eq!(
                        switches, &one_frame[rank].2,
                        "P={p} {algo:?} on {backend} rank {rank}: δ-switch counters"
                    );
                }
                let segmented = !backend.ends_with("one frame");
                assert_eq!(
                    frames(&outs) > frames(&one_frame),
                    segmented,
                    "P={p} {algo:?} on {backend}: {} frames against {}",
                    frames(&outs),
                    frames(&one_frame)
                );
            }
        }
    }
}

#[test]
fn split_allgather_is_bitwise_identical_across_transports() {
    // The float contract — same algorithm + P ⇒ the same bits on every
    // transport — rests on the split phase summing its P sub-ranges in a
    // shape fixed by P alone, whatever order the frames arrive in.
    // Heavily overlapping non-integer inputs make any reordering visible.
    // `Auto` in the split regime — its split frames sent during its pass,
    // under the pass's op id — must give the pinned schedule's bits too.
    fn program<T: Transport + Send + 'static>(
        comm: &mut Communicator<T>,
        ins: &[SparseStream<f32>],
        algo: Algorithm,
    ) -> Vec<u32> {
        if algo.is_auto() {
            // The split regime on this transport's own planning model.
            let k = ins.iter().map(SparseStream::stored_len).max().unwrap();
            let pick = select_algorithm::<f32>(comm.size(), ins[0].dim(), k, comm.cost());
            assert_eq!(pick, Algorithm::SsarSplitAllgather, "k={k}");
        }
        let out = comm
            .allreduce(&ins[comm.rank()])
            .algorithm(algo)
            .launch()
            .and_then(|handle| handle.wait())
            .unwrap();
        out.to_dense_vec().iter().map(|v| v.to_bits()).collect()
    }
    let pinned = [Algorithm::SsarSplitAllgather];
    let with_auto = [Algorithm::SsarSplitAllgather, Algorithm::Auto];
    let overlapping = |p: usize| -> Vec<_> {
        (0..p)
            .map(|r| random_sparse(512, 200, 4200 + r as u64))
            .collect()
    };
    let split_regime = |p: usize, k: usize| -> Vec<_> {
        (0..p)
            .map(|r| bucketed_sparse(1 << 20, k, 4200 + r as u64))
            .collect()
    };
    for (p, ins, algos) in [
        (5usize, overlapping(5), &pinned[..]),
        (8, overlapping(8), &pinned[..]),
        (5, split_regime(5, 180_000), &with_auto[..]),
        (8, split_regime(8, 150_000), &with_auto[..]),
    ] {
        let mut expect = None;
        for &algo in algos {
            let virtual_outs =
                run_communicators(p, CostModel::aries(), |comm| program(comm, &ins, algo));
            let thread_outs = run_thread_communicators(p, |comm| program(comm, &ins, algo));
            let reactor_outs = run_reactor_communicators(p, |comm| program(comm, &ins, algo));
            let expect = expect.get_or_insert_with(|| virtual_outs[0].clone());
            for (backend, outs) in [
                ("Endpoint", &virtual_outs),
                ("ThreadTransport", &thread_outs),
                ("ReactorTransport", &reactor_outs),
            ] {
                for (rank, out) in outs.iter().enumerate() {
                    assert_eq!(out, expect, "P={p} {algo:?} on {backend} rank {rank}");
                }
            }
        }
    }
}
