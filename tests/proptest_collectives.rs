//! Property-based tests of the collectives: for randomized sparsity
//! patterns and rank counts, every algorithm must produce the reference
//! sum at every rank, and virtual times must respect basic monotonicity.
//!
//! The build environment has no registry access, so instead of the
//! `proptest` crate these properties run on a deterministic in-repo
//! case generator (seeded `XorShift64`, fixed case counts) — same
//! coverage intent, reproducible failures by construction.

use std::time::Duration;

use sparcml::core::reference::reference_sum;
use sparcml::core::{
    max_communicator_time, run_communicators, select_algorithm, Algorithm, CollError, Communicator,
};
use sparcml::net::{run_thread_cluster, CommError, CostModel, TagBlock, Transport};
use sparcml::stream::{random_sparse, DensityPolicy, SparseStream, XorShift64};

/// Generates one randomized cluster input: `(dim, per-rank pair lists)`
/// with 2..7 ranks, 32..256 dims, up to dim/2 (index, value) pairs each.
fn cluster_inputs(rng: &mut XorShift64) -> (usize, Vec<Vec<(u32, f32)>>) {
    let p = 2 + rng.next_below(5) as usize;
    let dim = 32 + rng.next_below(224) as usize;
    let per_rank = (0..p)
        .map(|_| {
            let nnz = rng.next_below((dim / 2) as u64) as usize;
            (0..nnz)
                .map(|_| {
                    let idx = rng.next_below(dim as u64) as u32;
                    let val = (rng.next_gaussian() * 5.0) as f32;
                    (idx, val)
                })
                .collect()
        })
        .collect();
    (dim, per_rank)
}

#[test]
fn every_algorithm_matches_reference() {
    let mut rng = XorShift64::new(0xC0FFEE);
    for case in 0..24 {
        let (dim, per_rank) = cluster_inputs(&mut rng);
        let p = per_rank.len();
        let ins: Vec<SparseStream<f32>> = per_rank
            .iter()
            .map(|pairs| SparseStream::from_pairs(dim, pairs).unwrap())
            .collect();
        let expect = reference_sum(&ins);
        for algo in Algorithm::ALL {
            let outs = run_communicators(p, CostModel::zero(), |comm| {
                comm.allreduce(&ins[comm.rank()])
                    .algorithm(algo)
                    .launch()
                    .and_then(|handle| handle.wait())
                    .unwrap()
            });
            for (rank, out) in outs.iter().enumerate() {
                let got = out.to_dense_vec();
                for (i, (g, e)) in got.iter().zip(&expect).enumerate() {
                    assert!(
                        (g - e).abs() <= 1e-2 * (1.0 + e.abs()),
                        "case {case}: {algo:?} rank {rank} coord {i}: {g} vs {e}"
                    );
                }
            }
        }
    }
}

#[test]
fn auto_matches_reference_on_random_workloads() {
    // The Auto default must hold the same property as the pinned
    // schedules, whatever the selector picks per workload.
    let mut rng = XorShift64::new(0xA117_0000);
    for case in 0..24 {
        let (dim, per_rank) = cluster_inputs(&mut rng);
        let p = per_rank.len();
        let ins: Vec<SparseStream<f32>> = per_rank
            .iter()
            .map(|pairs| SparseStream::from_pairs(dim, pairs).unwrap())
            .collect();
        let expect = reference_sum(&ins);
        let outs = run_communicators(p, CostModel::aries(), |comm| {
            comm.allreduce(&ins[comm.rank()])
                .launch()
                .and_then(|handle| handle.wait())
                .unwrap()
        });
        for (rank, out) in outs.iter().enumerate() {
            let got = out.to_dense_vec();
            for (i, (g, e)) in got.iter().zip(&expect).enumerate() {
                assert!(
                    (g - e).abs() <= 1e-2 * (1.0 + e.abs()),
                    "case {case}: Auto rank {rank} coord {i}: {g} vs {e}"
                );
            }
        }
    }
}

#[test]
fn ranks_agree_bitwise() {
    // Whatever fp ordering an algorithm uses, all ranks must hold the
    // *same* result bits.
    let mut rng = XorShift64::new(0xB17_B17);
    for _case in 0..24 {
        let (dim, per_rank) = cluster_inputs(&mut rng);
        let p = per_rank.len();
        let ins: Vec<SparseStream<f32>> = per_rank
            .iter()
            .map(|pairs| SparseStream::from_pairs(dim, pairs).unwrap())
            .collect();
        for algo in [
            Algorithm::SsarRecDbl,
            Algorithm::SsarSplitAllgather,
            Algorithm::DsarSplitAllgather,
        ] {
            let outs = run_communicators(p, CostModel::zero(), |comm| {
                comm.allreduce(&ins[comm.rank()])
                    .algorithm(algo)
                    .launch()
                    .and_then(|handle| handle.wait())
                    .unwrap()
                    .to_dense_vec()
            });
            for other in &outs[1..] {
                assert_eq!(other, &outs[0], "{algo:?}");
            }
        }
    }
}

/// The three density bands of the δ-switch properties, as the most
/// entries a rank may draw out of `len` indices: merges never reach δ,
/// the switch fires part-way, it fires at the first merges.
fn band_max_k(case: usize, len: usize) -> usize {
    match case % 3 {
        0 => len / 16,
        1 => len / 2,
        _ => len,
    }
    .max(1)
}

#[test]
fn ssar_rec_dbl_is_bitwise_exact_on_integer_inputs() {
    // Integer-valued f32 sums are exact under any association, so
    // whatever merge order the schedule takes — and whichever merge
    // densifies — its result must equal the reference sum *bitwise* at
    // every rank.
    let mut rng = XorShift64::new(0xAD_A971);
    for p in [3usize, 4, 5, 8] {
        for case in 0..8 {
            let dim = 64 + rng.next_below(448) as usize;
            let max_k = band_max_k(case, dim);
            let ins: Vec<SparseStream<f32>> = (0..p)
                .map(|_| {
                    let nnz = 1 + rng.next_below(max_k as u64) as usize;
                    let pairs: Vec<(u32, f32)> = (0..nnz)
                        .map(|_| {
                            let idx = rng.next_below(dim as u64) as u32;
                            let val = rng.next_below(16) as f32 - 8.0;
                            (idx, val)
                        })
                        .collect();
                    SparseStream::from_pairs(dim, &pairs).unwrap()
                })
                .collect();
            let expect = reference_sum(&ins);
            let outs = run_communicators(p, CostModel::zero(), |comm| {
                comm.allreduce(&ins[comm.rank()])
                    .algorithm(Algorithm::SsarRecDbl)
                    .launch()
                    .and_then(|handle| handle.wait())
                    .unwrap()
                    .to_dense_vec()
            });
            for (rank, out) in outs.iter().enumerate() {
                for (i, (g, e)) in out.iter().zip(&expect).enumerate() {
                    assert_eq!(
                        g.to_bits(),
                        e.to_bits(),
                        "p {p} case {case} rank {rank} coord {i}: {g} vs {e}"
                    );
                }
            }
        }
    }
}

#[test]
fn ssar_rec_dbl_engineered_switch_points_are_bitwise_exact() {
    // Four constructions pin *when* the δ-switch fires, read off the
    // counters: `adaptive_densified` says whether a merge flipped the
    // accumulator, `switch_rounds` how many round frames left dense
    // afterwards.
    let check = |p: usize, ins: Vec<SparseStream<f32>>, densified: u64, dense_rounds: u64| {
        let expect = reference_sum(&ins);
        let outs = run_communicators(p, CostModel::zero(), |comm| {
            let out = comm
                .allreduce(&ins[comm.rank()])
                .algorithm(Algorithm::SsarRecDbl)
                .launch()
                .and_then(|handle| handle.wait())
                .unwrap()
                .to_dense_vec();
            let stats = comm.stats_snapshot();
            (out, stats.adaptive_densified, stats.switch_rounds)
        });
        for (rank, (out, got_densified, got_rounds)) in outs.iter().enumerate() {
            assert_eq!(
                *got_densified, densified,
                "rank {rank}: merges that flipped"
            );
            assert_eq!(*got_rounds, dense_rounds, "rank {rank}: dense round frames");
            for (i, (g, e)) in out.iter().zip(&expect).enumerate() {
                assert_eq!(g.to_bits(), e.to_bits(), "rank {rank} coord {i}");
            }
        }
    };
    // Never: 2 nnz against δ = 2048.
    check(
        8,
        (0..8)
            .map(|_| SparseStream::from_pairs(4096, &[(7, 1.0f32), (9, 2.0)]).unwrap())
            .collect(),
        0,
        0,
    );
    // Dense from the start: no merge flips anything, and both round
    // frames of P=4 carry a dense accumulator.
    check(
        4,
        (0..4)
            .map(|r| SparseStream::from_dense(vec![(r + 1) as f32; 256]))
            .collect(),
        0,
        2,
    );
    // First merge: 150 nnz per rank against δ = 128 — 150+150 crosses it
    // in round 0, so the one remaining round of P=4 runs dense.
    check(
        4,
        (0..4)
            .map(|r| {
                let pairs: Vec<(u32, f32)> = (0..150).map(|i| (i, (r + 1) as f32)).collect();
                SparseStream::from_pairs(256, &pairs).unwrap()
            })
            .collect(),
        1,
        1,
    );
    // Last merge: rank pairs (2b, 2b+1) share a disjoint 129-index block.
    // Round 0 merges without growth (129+129 ≤ δ = 512), round 1 doubles
    // to 258, and round 2's 258+258 > 512 flips the accumulator after
    // the last frame left sparse.
    check(
        8,
        (0..8)
            .map(|r| {
                let block = r / 2;
                let pairs: Vec<(u32, f32)> = (block * 129..(block + 1) * 129)
                    .map(|i| (i as u32, 1.0))
                    .collect();
                SparseStream::from_pairs(1024, &pairs).unwrap()
            })
            .collect(),
        1,
        0,
    );
}

#[test]
fn delta_switch_costs_at_most_eight_fifths_of_never_switching_on_disjoint_supports() {
    // δ is the in-memory equality N·isize/(4 + isize); the wire's own
    // moved to ≈ 0.8·N with the gap-coded index slab and the switch did
    // not follow it, so between the two a round may go dense although its
    // sparse frame was the smaller one. What is true, and bounds the
    // trade: on disjoint supports |H1|+|H2| is the merged size, so a
    // dense frame of 12 + 4·N bytes only ever replaces a sparse one of at
    // least 20 + 5·nnz with nnz > N/2 — under 8/5 of it — and past the
    // wire's equality the dense frame is the smaller one again (the
    // guard at the end). (On overlapping supports the bound overshoots
    // and a dense frame can cost more — that is §5.1's trade, not a
    // defect.)
    let mut rng = XorShift64::new(0xDE17A);
    let mut saved = 0;
    for p in [2usize, 4, 8] {
        for case in 0..18 {
            // Rank r fills a prefix of its own block between random cuts.
            let dim = 64 + rng.next_below(448) as usize;
            let mut cuts: Vec<usize> = (1..p)
                .map(|_| rng.next_below(dim as u64) as usize)
                .collect();
            cuts.extend([0, dim]);
            cuts.sort_unstable();
            let ins: Vec<SparseStream<f32>> = cuts
                .windows(2)
                .map(|block| {
                    let len = block[1] - block[0];
                    // The top eighth of the band: the middle band then
                    // switches between the two equalities, where the
                    // dense frame is the larger one, and the widest
                    // unions of the full band pass the wire's own, where
                    // it is the smaller.
                    let hi = band_max_k(case, len);
                    let nnz = (hi - rng.next_below(hi as u64 / 8 + 1) as usize).min(len);
                    let pairs: Vec<(u32, f32)> = (block[0]..block[0] + nnz)
                        .map(|idx| (idx as u32, rng.next_below(16) as f32 - 8.0))
                        .collect();
                    SparseStream::from_pairs(dim, &pairs).unwrap()
                })
                .collect();
            let run = |policy: DensityPolicy| {
                run_communicators(p, CostModel::zero(), |comm| {
                    let out = comm
                        .allreduce(&ins[comm.rank()])
                        .algorithm(Algorithm::SsarRecDbl)
                        .policy(policy)
                        .launch()
                        .and_then(|handle| handle.wait())
                        .unwrap()
                        .to_dense_vec();
                    (out, comm.stats_snapshot().bytes_sent)
                })
            };
            let switching = run(DensityPolicy::default());
            let sparse_only = run(DensityPolicy::never_densify());
            for (rank, ((a, a_bytes), (b, b_bytes))) in
                switching.iter().zip(&sparse_only).enumerate()
            {
                assert!(
                    5 * a_bytes <= 8 * b_bytes,
                    "p {p} case {case} rank {rank}: {a_bytes} B switching vs {b_bytes} B sparse"
                );
                saved += b_bytes.saturating_sub(*a_bytes);
                let bitwise_equal = a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits());
                assert!(bitwise_equal, "p {p} case {case} rank {rank}");
            }
        }
    }
    assert!(
        saved > 0,
        "no rank saved a byte by switching: the property was checked on nothing"
    );
}

#[test]
fn virtual_time_monotone_in_message_size() {
    // More data on the same network must not be faster (rec-dbl).
    let n = 1 << 14;
    let mut rng = XorShift64::new(0x515E);
    for _case in 0..8 {
        let k_small = 8 + rng.next_below(56) as usize;
        let scale = 2 + rng.next_below(6) as usize;
        let k_large = k_small * scale;
        let time_for = |k: usize| {
            max_communicator_time(4, CostModel::gige(), move |comm| {
                let input = sparcml::stream::random_sparse::<f32>(n, k, comm.rank() as u64);
                comm.allreduce(&input)
                    .algorithm(Algorithm::SsarRecDbl)
                    .launch()
                    .and_then(|handle| handle.wait())
                    .unwrap();
            })
        };
        assert!(
            time_for(k_large) >= time_for(k_small),
            "k {k_small} vs {k_large}"
        );
    }
}

#[test]
fn slower_network_is_never_faster() {
    let n = 1 << 14;
    let mut rng = XorShift64::new(0x4E7);
    for _case in 0..8 {
        let k = 16 + rng.next_below(240) as usize;
        let time_on = |cost: CostModel| {
            max_communicator_time(4, cost, move |comm| {
                let input = sparcml::stream::random_sparse::<f32>(n, k, comm.rank() as u64);
                comm.allreduce(&input)
                    .algorithm(Algorithm::SsarSplitAllgather)
                    .launch()
                    .and_then(|handle| handle.wait())
                    .unwrap();
            })
        };
        assert!(
            time_on(CostModel::gige()) >= time_on(CostModel::aries()),
            "k = {k}"
        );
    }
}

// ---------------------------------------------------------------------
// Peer bytes on recursive doubling's agreement frames
// ---------------------------------------------------------------------

/// Top bit of the agreement word that ends every recursive-doubling
/// frame: "every rank of my subcube picked recursive doubling".
const EAGER_BIT: u64 = 1 << 63;
/// The schedule's sub-tags inside its op's tag block (`core::op::subtag`).
const SUBTAG_FOLD: u64 = 1;
const SUBTAG_UNFOLD: u64 = 2;
const SUBTAG_SPLIT: u64 = 3;
const SUBTAG_COUNT: u64 = 5;
const SUBTAG_ROUND: u64 = 16;

/// A frame as recursive doubling sends it: the stream (when attached)
/// followed by the 8-byte word.
fn agreement_frame(stream: Option<&SparseStream<f32>>, word: u64) -> Vec<u8> {
    let mut buf = Vec::new();
    if let Some(stream) = stream {
        stream.encode_into(&mut buf);
    }
    buf.extend_from_slice(&word.to_le_bytes());
    buf
}

/// One honest rank (the last) runs `algo` on `input` over the in-process
/// transport; rank 0 is a villain that answers with `frame` under
/// `subtag` of the collective's tag block; any rank between idles.
/// Returns what the honest rank's collective returned. The honest rank's
/// receives give up after 50 ms, so a frame that sends it down a path
/// the villain never joins ends in a typed transport error.
fn against_villain(
    p: usize,
    input: &SparseStream<f32>,
    algo: Algorithm,
    subtag: u64,
    frame: &[u8],
) -> Result<SparseStream<f32>, CollError> {
    // The villain stays up until the honest rank's first frame is in
    // (round 0 at P=2, its fold at P=3), so its send never meets a closed
    // peer.
    let first = if p == 2 { SUBTAG_ROUND } else { SUBTAG_FOLD };
    against_villain_frames(p, input, algo, &[(subtag, frame.to_vec())], &[first])
}

/// [`against_villain`] with several villain frames, each under its
/// sub-tag, and the sub-tags of the honest rank's frames the villain takes
/// before leaving. Where the honest rank's own k makes `Auto` speculate on
/// a split schedule, every other rank also takes its split frame, so none
/// of its sends meets a closed peer.
fn against_villain_frames(
    p: usize,
    input: &SparseStream<f32>,
    algo: Algorithm,
    frames: &[(u64, Vec<u8>)],
    owed: &[u64],
) -> Result<SparseStream<f32>, CollError> {
    let honest = p - 1;
    let mut outs = run_thread_cluster(p, |tp| {
        if tp.rank() == honest {
            tp.set_recv_deadline(Duration::from_millis(50));
            let mut comm = Communicator::new(tp.detach());
            let out = comm
                .allreduce(input)
                .algorithm(algo)
                .launch()
                .and_then(|h| h.wait());
            *tp = comm.into_transport();
            return Some(out);
        }
        // The op id the honest rank's collective draws.
        let block = TagBlock::for_op(tp.next_op_id());
        if tp.rank() == 0 {
            for (subtag, frame) in frames {
                let sent = tp.send(honest, block.tag(*subtag), frame.clone().into());
                allow_departure(sent, honest);
            }
            for subtag in owed {
                allow_departure(tp.recv(honest, block.tag(*subtag)), honest);
            }
        }
        let own_pick = select_algorithm::<f32>(p, input.dim(), input.stored_len(), tp.cost());
        let speculates = matches!(
            own_pick,
            Algorithm::SsarSplitAllgather | Algorithm::DsarSplitAllgather
        );
        if algo.is_auto() && speculates {
            allow_departure(tp.recv(honest, block.tag(SUBTAG_SPLIT)), honest);
        }
        None
    });
    outs.pop().flatten().expect("the honest rank reports")
}

/// Checks a villain's send to or receive from the honest rank. The honest
/// rank may have returned its typed error and left before the frame went
/// either way, so its disconnect is not a fault here; any other error is.
fn allow_departure<T>(result: Result<T, CommError>, honest: usize) {
    match result {
        Ok(_) => {}
        Err(CommError::PeerDisconnected { peer }) if peer == honest => {}
        Err(other) => panic!("villain and honest rank {honest}: {other:?}"),
    }
}

#[test]
fn malformed_agreement_frames_are_typed_errors_on_the_receiver() {
    let dim = 1 << 12;
    let input = random_sparse::<f32>(dim, 32, 11);
    let wrong_dim = random_sparse::<f32>(dim / 2, 32, 12);
    let eager = |k: u64| k | EAGER_BIT;
    // P=2: the villain is the honest rank's round-0 partner.
    for algo in [Algorithm::Auto, Algorithm::SsarRecDbl] {
        let valid = agreement_frame(Some(&input), eager(32));
        let out = against_villain(2, &input, algo, SUBTAG_ROUND, &valid).unwrap();
        assert_eq!(out.nnz(), 32, "input + input keeps the support");
        for (what, frame) in [
            ("shorter than its word", vec![0xff; 5]),
            ("bit set, no stream", agreement_frame(None, eager(32))),
            (
                "stream of the wrong dim",
                agreement_frame(Some(&wrong_dim), eager(32)),
            ),
            (
                "k above dim",
                agreement_frame(Some(&input), eager(dim as u64 + 1)),
            ),
        ] {
            match against_villain(2, &input, algo, SUBTAG_ROUND, &frame) {
                Err(CollError::Invalid(_)) => {}
                other => panic!("{algo:?}, {what}: {other:?}"),
            }
        }
    }
    // A pinned rank whose partner declines gets an error, not a hang.
    match against_villain(
        2,
        &input,
        Algorithm::SsarRecDbl,
        SUBTAG_ROUND,
        &agreement_frame(None, 32),
    ) {
        Err(CollError::Invalid(_)) => {}
        other => panic!("declined pinned schedule: {other:?}"),
    }
    // P=3: the honest rank parks with the villain. Its own k rules
    // recursive doubling out (it picks a split schedule and speculates),
    // so it folds in a cleared bit — an unfold frame that sets the bit
    // again contradicts it.
    let (big_dim, big_k) = (1 << 20, 10_000);
    let big = random_sparse::<f32>(big_dim, big_k, 13);
    let cost = run_thread_cluster(1, |tp| *tp.cost())[0];
    assert_ne!(
        select_algorithm::<f32>(3, big_dim, big_k, &cost),
        Algorithm::SsarRecDbl
    );
    let lie = agreement_frame(Some(&big), eager(big_k as u64));
    match against_villain(3, &big, Algorithm::Auto, SUBTAG_UNFOLD, &lie) {
        Err(CollError::Invalid(_)) => {}
        other => panic!("bit restored after the partner cleared it: {other:?}"),
    }
}

#[test]
fn mutated_agreement_frames_never_panic_or_hang_the_receiver() {
    let dim = 1 << 10;
    let input = random_sparse::<f32>(dim, 24, 21);
    let mut dense = input.clone();
    dense.densify();
    let valid = [
        agreement_frame(Some(&input), 24 | EAGER_BIT),
        agreement_frame(Some(&dense), dim as u64 | EAGER_BIT),
        agreement_frame(None, 300),
    ];
    let mut rng = XorShift64::new(0xa9ee);
    let (mut accepted, mut rejected) = (0, 0);
    for case in 0..96 {
        let mut frame = valid[case % valid.len()].clone();
        match rng.next_below(4) {
            0 => frame.truncate(rng.next_below(frame.len() as u64 + 1) as usize),
            1 => frame.extend((0..rng.next_below(9)).map(|_| rng.next_u64() as u8)),
            _ => {}
        }
        for _ in 0..rng.next_below(4) {
            if !frame.is_empty() {
                let at = rng.next_below(frame.len() as u64) as usize;
                frame[at] ^= 1 << rng.next_below(8);
            }
        }
        match against_villain(2, &input, Algorithm::Auto, SUBTAG_ROUND, &frame) {
            // A mutation can land on a value byte and still be a frame.
            // A cleared bit sends the honest rank into a fallback the
            // villain never joins, which ends in a typed transport error.
            Ok(_) | Err(CollError::Comm(_)) => accepted += 1,
            Err(CollError::Invalid(_)) | Err(CollError::Stream(_)) => rejected += 1,
            Err(other) => panic!("case {case}: {other:?}"),
        }
    }
    assert!(accepted > 0 && rejected > 0, "{accepted} / {rejected}");
}

/// `SSAR_Split_allgather` at P=2 against a villain (rank 0): the honest
/// rank's input, and the villain's three frames — its split frame, its
/// partition's count word and its allgather group — as an honest peer
/// holding `theirs` would send them. The count word and the group are
/// returned separately for the caller to corrupt.
struct Gather {
    mine: SparseStream<f32>,
    split: Vec<u8>,
    count: Vec<u8>,
    group: Vec<u8>,
    /// The villain's reduced partition: the block inside `group`.
    block: SparseStream<f32>,
}

impl Gather {
    fn new(dim: usize) -> Gather {
        let mine = integer_stream(dim, 300, 31);
        let theirs = integer_stream(dim, 300, 32);
        let half = (dim / 2) as u32;
        let split = theirs.restrict(half, dim as u32).encode().to_vec();
        let sum = SparseStream::sparse_from_slice(&reference_sum(&[mine.clone(), theirs]));
        let block = sum.restrict(0, half);
        let count = (block.nnz() as u64).to_le_bytes().to_vec();
        Gather {
            group: group_frame(0, &[&block.encode()]),
            mine,
            split,
            count,
            block,
        }
    }

    /// Runs the honest rank against these frames.
    fn run(&self, count: &[u8], group: &[u8]) -> Result<SparseStream<f32>, CollError> {
        self.run_split(&self.split, count, group)
    }

    /// Runs the honest rank against these frames, with `split` for the
    /// villain's split frame.
    fn run_split(
        &self,
        split: &[u8],
        count: &[u8],
        group: &[u8],
    ) -> Result<SparseStream<f32>, CollError> {
        let frames = [
            (SUBTAG_SPLIT, split.to_vec()),
            (SUBTAG_COUNT, count.to_vec()),
            (SUBTAG_ROUND, group.to_vec()),
        ];
        let owed = [SUBTAG_SPLIT, SUBTAG_COUNT, SUBTAG_ROUND];
        against_villain_frames(2, &self.mine, Algorithm::SsarSplitAllgather, &frames, &owed)
    }
}

/// `k` distinct indices of `dim` with small integer values.
fn integer_stream(dim: usize, k: usize, seed: u64) -> SparseStream<f32> {
    let mut rng = XorShift64::new(seed);
    let pairs: Vec<(u32, f32)> = (0..k)
        .map(|j| {
            let (lo, hi) = (j * dim / k, (j + 1) * dim / k);
            let at = lo + rng.next_below((hi - lo) as u64) as usize;
            (at as u32, (1 + rng.next_below(4)) as f32)
        })
        .collect();
    SparseStream::from_pairs(dim, &pairs).unwrap()
}

/// An allgather group frame: `[u32 base][u32 count]([u64 len][block])*`.
fn group_frame(base: u32, blocks: &[&[u8]]) -> Vec<u8> {
    let mut frame = base.to_le_bytes().to_vec();
    frame.extend_from_slice(&(blocks.len() as u32).to_le_bytes());
    for block in blocks {
        frame.extend_from_slice(&(block.len() as u64).to_le_bytes());
        frame.extend_from_slice(block);
    }
    frame
}

#[test]
fn malformed_gather_frames_are_typed_errors_on_the_receiver() {
    let dim = 1 << 12;
    let g = Gather::new(dim);
    let expect = reference_sum(&[g.mine.clone(), integer_stream(dim, 300, 32)]);
    let out = g.run(&g.count, &g.group).unwrap();
    assert_eq!(
        out.to_dense_vec(),
        expect,
        "the honest frames reduce exactly"
    );

    let n = g.block.nnz() as u64;
    let encoded = g.block.encode();
    // The same entries announced one short, and a block one entry longer
    // than announced.
    let longer = {
        let mut pairs: Vec<(u32, f32)> = g.block.iter_nonzero().collect();
        let free = (0..dim as u32 / 2)
            .find(|i| g.block.get(*i) == 0.0)
            .unwrap();
        pairs.push((free, 1.0));
        SparseStream::from_pairs(dim, &pairs).unwrap().encode()
    };
    // A block reaching into the honest rank's own partition.
    let outside = {
        let mut pairs: Vec<(u32, f32)> = g.block.iter_nonzero().skip(1).collect();
        pairs.push((dim as u32 / 2 + 3, 1.0));
        SparseStream::from_pairs(dim, &pairs).unwrap().encode()
    };
    let dense = SparseStream::from_dense(g.block.to_dense_vec()[..dim / 2].to_vec());
    let count = |c: u64| c.to_le_bytes().to_vec();
    for (what, count_word, group) in [
        (
            "count word of 7 bytes",
            g.count[..7].to_vec(),
            g.group.clone(),
        ),
        (
            "count word of 9 bytes",
            [&g.count[..], &[0]].concat(),
            g.group.clone(),
        ),
        (
            "count above the partition",
            count(dim as u64 / 2 + 1),
            g.group.clone(),
        ),
        ("count word of all ones", count(u64::MAX), g.group.clone()),
        (
            "block shorter than its count",
            count(n + 1),
            g.group.clone(),
        ),
        (
            "block longer than its count",
            g.count.clone(),
            group_frame(0, &[&longer]),
        ),
        (
            "index outside the partition",
            g.count.clone(),
            group_frame(0, &[&outside]),
        ),
        (
            "dense block of the whole partition",
            count(dim as u64 / 2),
            group_frame(0, &[&dense.encode()]),
        ),
        (
            "group of the own rank",
            g.count.clone(),
            group_frame(1, &[&encoded]),
        ),
        (
            "group of two",
            g.count.clone(),
            group_frame(0, &[&encoded, &encoded]),
        ),
        (
            "group with a trailing byte",
            g.count.clone(),
            [&g.group[..], &[0]].concat(),
        ),
    ] {
        match g.run(&count_word, &group) {
            Err(CollError::Invalid(_)) => {}
            other => panic!("{what}: {other:?}"),
        }
    }
}

#[test]
fn malformed_split_frames_are_typed_errors_on_the_owner() {
    // The honest rank owns [dim/2, dim). Its owner's window takes a split
    // frame only in its dimension and inside its partition, sparse or
    // dense; anything else is rejected before a single entry is scattered.
    let dim = 1 << 12;
    let g = Gather::new(dim);
    let theirs = integer_stream(dim, 300, 32);
    let half = dim as u32 / 2;
    let expect = reference_sum(&[g.mine.clone(), theirs.clone()]);
    let mut inside = theirs.restrict(half, dim as u32);
    inside.densify();
    let out = g.run_split(&inside.encode(), &g.count, &g.group).unwrap();
    assert_eq!(
        out.to_dense_vec(),
        expect,
        "a dense split frame inside the partition reduces exactly"
    );

    let pairs: Vec<(u32, f32)> = theirs.restrict(half, dim as u32).iter_nonzero().collect();
    let with = |extra: (u32, f32)| {
        let mut pairs = pairs.clone();
        pairs.push(extra);
        pairs
    };
    let mut stray_dense = SparseStream::from_pairs(dim, &with((3, 1.0))).unwrap();
    stray_dense.densify();
    for (what, frame) in [
        (
            "a frame of another dimension",
            SparseStream::from_pairs(2 * dim, &pairs).unwrap().encode(),
        ),
        (
            "an index below the partition",
            SparseStream::from_pairs(dim, &with((half - 1, 1.0)))
                .unwrap()
                .encode(),
        ),
        (
            "a dense frame with a non-zero outside the partition",
            stray_dense.encode(),
        ),
    ] {
        for algo in [Algorithm::SsarSplitAllgather, Algorithm::DsarSplitAllgather] {
            // The villain takes the honest rank's split frame and leaves.
            let frames = [(SUBTAG_SPLIT, frame.to_vec())];
            match against_villain_frames(2, &g.mine, algo, &frames, &[SUBTAG_SPLIT]) {
                Err(CollError::Invalid(_)) => {}
                other => panic!("{algo:?}, {what}: {other:?}"),
            }
        }
    }
}

#[test]
fn mutated_gather_frames_never_panic_or_hang_the_receiver() {
    let g = Gather::new(1 << 10);
    let mut rng = XorShift64::new(0x6a7e);
    let (mut accepted, mut rejected) = (0, 0);
    for case in 0..64 {
        let (mut count, mut group) = (g.count.clone(), g.group.clone());
        let frame = if case % 2 == 0 {
            &mut count
        } else {
            &mut group
        };
        match rng.next_below(4) {
            0 => frame.truncate(rng.next_below(frame.len() as u64 + 1) as usize),
            1 => frame.extend((0..rng.next_below(9)).map(|_| rng.next_u64() as u8)),
            _ => {}
        }
        for _ in 0..1 + rng.next_below(3) {
            if !frame.is_empty() {
                let at = rng.next_below(frame.len() as u64) as usize;
                frame[at] ^= 1 << rng.next_below(8);
            }
        }
        match g.run(&count, &group) {
            // A flip in a value byte still makes a frame.
            Ok(_) => accepted += 1,
            Err(CollError::Invalid(_)) | Err(CollError::Stream(_)) => rejected += 1,
            Err(other) => panic!("case {case}: {other:?}"),
        }
    }
    assert!(accepted > 0 && rejected > 0, "{accepted} / {rejected}");
}
