//! `SSAR_Recursive_double` — sparse recursive doubling allreduce (§5.3.1).
//!
//! "In the first round, nodes that are a distance 1 apart exchange their
//! data and perform a local sparse stream reduction. In the second round,
//! nodes that are a distance 2 apart exchange their reduced data. [...]
//! in the t-th round, nodes that are a distance 2^{t−1} apart exchange all
//! the previously reduced 2^{t−1}·k data items."
//!
//! Latency is the data-independent optimum `log2(P)·α`; the bandwidth term
//! varies between `log2(P)·k·βs` (fully overlapping supports) and
//! `(P−1)·k·βs` (disjoint supports).
//!
//! Every frame of the schedule ends in one 8-byte *agreement word* (see
//! [`rec_dbl_agree`]), which is what lets [`crate::Algorithm::Auto`]
//! run this schedule *as* its k-agreement instead of in front of it —
//! and, where `Auto` resolves to a split schedule, send that schedule's
//! split-phase frames between its rounds, so that agreement costs one
//! isend per round instead of a round trip.

use sparcml_net::Transport;
use sparcml_stream::{DensityPolicy, Scalar, SparseStream};

use crate::allreduce::ssar_split_ag::send_split_steps;
use crate::allreduce::AllreduceConfig;
use crate::error::CollError;
use crate::op::{
    add_charged, pow2_below, recv_stream_with_word, send_stream_with_word, subtag, tag, BufferPool,
};

/// Sparse recursive-doubling allreduce. Handles any `P ≥ 1` via the §A
/// fold-to-power-of-two pre/post steps. The pinned schedule is the
/// always-attach case of [`rec_dbl_agree`]: this rank is eager whatever
/// the selector would say, so when every rank pinned it the bit never
/// clears and the pass is the whole collective.
pub(crate) fn ssar_recursive_double<T: Transport, V: Scalar>(
    ep: &mut T,
    input: &SparseStream<V>,
    cfg: &AllreduceConfig,
    pool: &mut BufferPool,
) -> Result<SparseStream<V>, CollError> {
    rec_dbl_agree(ep, input, Stance::Eager, cfg, pool)?
        .result
        .ok_or_else(|| {
            CollError::Invalid(
                "a peer declined SSAR_Recursive_double mid-schedule \
                 (ranks must request the same algorithm)"
                    .into(),
            )
        })
}

/// Bits 0–39 of the agreement word: the largest per-rank `k`.
const K_MASK: u64 = (1 << 40) - 1;
/// Bits 40–61: how many ranks speculated (see [`Stance::Speculative`]).
const SPECULATORS_SHIFT: u32 = 40;
const SPECULATORS_MASK: u64 = (1 << 22) - 1;
/// Bit 62 is reserved and must be zero.
const RESERVED_BIT: u64 = 1 << 62;
/// Top bit: every rank of the sender's subcube was eager.
const EAGER_BIT: u64 = 1 << 63;

/// How a rank enters the pass, by the schedule the selector picks for its
/// own `k`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Stance {
    /// Its own pick is recursive doubling (the pinned schedule always
    /// is): its frames carry its stream, reducing as it agrees.
    Eager,
    /// Its own pick is `SSAR_Split_allgather` or `DSAR_Split_allgather`,
    /// whose split-phase frames are the same: it sends them between the
    /// pass's rounds, under the pass's op id, while the words fly.
    Speculative,
    /// Any other pick: its frames are the bare word.
    Bare,
}

/// The agreement word that ends every recursive-doubling frame, summed
/// over the sender's subcube: the largest per-rank non-zero count, how
/// many ranks speculated, and whether every rank was *eager*. A frame
/// carries the sender's merged stream exactly while the bit holds; once a
/// subcube has lost it the reduction is abandoned and its frames are the
/// bare 8-byte word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Agreement {
    k: u64,
    speculators: u64,
    eager: bool,
}

impl Agreement {
    fn word(self) -> u64 {
        self.k | self.speculators << SPECULATORS_SHIFT | if self.eager { EAGER_BIT } else { 0 }
    }

    /// Validates a received frame (peer-controlled bytes) against the
    /// collective's dimension and size: `1 ≤ k ≤ dim`, at most `p`
    /// speculators and none under the eager bit, the reserved bit clear,
    /// a stream attached exactly when the eager bit is set, and of the
    /// right dimension.
    fn parse<V: Scalar>(
        (stream, word): (Option<SparseStream<V>>, u64),
        dim: usize,
        p: usize,
    ) -> Result<(Agreement, Option<SparseStream<V>>), CollError> {
        let theirs = Agreement {
            k: word & K_MASK,
            speculators: (word >> SPECULATORS_SHIFT) & SPECULATORS_MASK,
            eager: word & EAGER_BIT != 0,
        };
        let invalid = |what: String| Err(CollError::Invalid(what));
        if word & RESERVED_BIT != 0 {
            return invalid(format!("agreement word {word:#x} has reserved bit 62 set"));
        }
        if theirs.k == 0 || theirs.k > dim.max(1) as u64 {
            return invalid(format!(
                "agreement word claims k = {} on a {dim}-dim collective",
                theirs.k
            ));
        }
        if theirs.speculators > p as u64 {
            return invalid(format!(
                "agreement word counts {} speculators on a {p}-rank collective",
                theirs.speculators
            ));
        }
        if theirs.eager && theirs.speculators > 0 {
            return invalid("agreement word has the eager bit set but counts speculators".into());
        }
        match &stream {
            None if theirs.eager => invalid(
                "agreement word has the eager bit set but the frame carries no stream".into(),
            ),
            Some(_) if !theirs.eager => invalid(
                "agreement word has the eager bit clear but the frame carries a stream".into(),
            ),
            Some(s) if s.dim() != dim => invalid(format!(
                "frame carries a {}-dim stream on a {dim}-dim collective",
                s.dim()
            )),
            _ => Ok((theirs, stream)),
        }
    }

    /// Folds a received frame into this rank's state: the words combine
    /// symmetrically (max k, summed speculators, AND of the bits), so
    /// exchange partners hold the same word afterwards; the streams merge
    /// while the combined bit holds, and the accumulator is dropped the
    /// moment it does not.
    fn absorb<T: Transport, V: Scalar>(
        &mut self,
        ep: &mut T,
        acc: &mut Option<SparseStream<V>>,
        frame: (Option<SparseStream<V>>, u64),
        dim: usize,
        policy: &DensityPolicy,
    ) -> Result<(), CollError> {
        let p = ep.size();
        let (theirs, stream) = Agreement::parse(frame, dim, p)?;
        self.k = self.k.max(theirs.k);
        self.speculators += theirs.speculators;
        self.eager &= theirs.eager;
        if self.speculators > p as u64 {
            return Err(CollError::Invalid(format!(
                "agreement words sum to {} speculators on a {p}-rank collective",
                self.speculators
            )));
        }
        match (acc.as_mut(), stream) {
            (Some(acc), Some(stream)) => add_charged(ep, acc, &stream, policy),
            _ => {
                *acc = None;
                Ok(())
            }
        }
    }
}

/// What one pass settled; the same on every rank.
pub(crate) struct Pass<V: Scalar> {
    /// The allreduce result, when every rank was eager.
    pub(crate) result: Option<SparseStream<V>>,
    /// The largest per-rank `k`.
    pub(crate) k: usize,
    /// How many ranks sent their split-phase frames during the pass.
    pub(crate) speculators: usize,
    /// The op id the pass drew, which also tags those frames; `None` at
    /// `P = 1`, where nothing is sent.
    pub(crate) op_id: Option<u64>,
}

/// One pass of recursive doubling — fold → `log2(p2)` rounds → unfold —
/// whose frames *are* the cluster's agreement on `k`: every frame ends in
/// the [`Agreement`] word `{max k, speculators, every rank eager}` of the
/// sender's subcube. An eager subcube's frames carry its merged stream
/// exactly as the plain schedule's would, a subcube that has lost the bit
/// sends the bare word — with `isend`, so a rank pays `α` only for the
/// frames that carry data.
///
/// A [`Stance::Speculative`] rank uses the pass's waits: at each of its
/// send points — after its word of each round, before the fold receive
/// (an active rank with a parked partner), between fold-send and
/// unfold-receive (a parked rank) — it sends its next even share of the
/// split-phase steps `1..P`, tagged `SPLIT` under the pass's op id, as
/// blocking as [`AllreduceConfig::blocking_split_sends`] says.
///
/// After the last round every rank holds the same word. Bit set: the
/// returned stream *is* the allreduce result — the max-k rank itself
/// picked recursive doubling, so the schedule the agreed `k` selects is
/// the one that just ran, at `log2(P)·α` and no agreement round at all.
/// Bit clear: no stream; the caller dispatches a concrete schedule on the
/// agreed `k` and owes every speculator's frames a receiver.
pub(crate) fn rec_dbl_agree<T: Transport, V: Scalar>(
    ep: &mut T,
    input: &SparseStream<V>,
    stance: Stance,
    cfg: &AllreduceConfig,
    pool: &mut BufferPool,
) -> Result<Pass<V>, CollError> {
    let p = ep.size();
    let dim = input.dim();
    let eager = stance == Stance::Eager;
    let speculative = stance == Stance::Speculative;
    let mut mine = Agreement {
        k: input.stored_len().max(1) as u64,
        // Nothing is sent at P = 1.
        speculators: u64::from(speculative && p > 1),
        eager,
    };
    let settled = |agreed: Agreement, result, op_id| Pass {
        result,
        k: agreed.k as usize,
        speculators: agreed.speculators as usize,
        op_id,
    };
    if p == 1 {
        return Ok(settled(mine, eager.then(|| input.clone()), None));
    }
    let op_id = ep.next_op_id();
    let p2 = pow2_below(p);
    let rank = ep.rank();
    let rounds = p2.trailing_zeros() as u64;
    // Send point `i` of `points` takes steps [1 + (P−1)·i/points,
    // 1 + (P−1)·(i+1)/points): later points take the remainder.
    let points = if rank >= p2 {
        1
    } else {
        rounds as usize + usize::from(rank + p2 < p)
    };
    let mut passed = 0;
    let mut speculate = |ep: &mut T, pool: &mut BufferPool| {
        if !speculative {
            return Ok(());
        }
        let from = 1 + (p - 1) * passed / points;
        passed += 1;
        let to = 1 + (p - 1) * passed / points;
        send_split_steps(ep, input, cfg, op_id, from..to, pool)
    };
    if rank >= p2 {
        // Parked (§A): hand the input to the fold partner, take the
        // outcome from its unfold frame.
        let partner = rank - p2;
        let attached = eager.then_some(input);
        send_stream_with_word(
            ep,
            partner,
            tag(op_id, subtag::FOLD),
            attached,
            mine.word(),
            pool,
        )?;
        speculate(ep, pool)?;
        let frame = recv_stream_with_word(ep, partner, tag(op_id, subtag::UNFOLD), pool)?;
        let (agreed, result) = Agreement::parse(frame, dim, p)?;
        // This rank sits inside its partner's subcube: the closing word
        // cannot undercut the k or the speculators, or restore the bit,
        // it folded in.
        if agreed.k < mine.k || agreed.speculators < mine.speculators || (agreed.eager && !eager) {
            return Err(CollError::Invalid(
                "unfold frame's agreement word contradicts the word this rank folded in".into(),
            ));
        }
        return Ok(settled(agreed, result, Some(op_id)));
    }
    let mut acc = eager.then(|| input.clone());
    if rank + p2 < p {
        speculate(ep, pool)?;
        let frame = recv_stream_with_word(ep, rank + p2, tag(op_id, subtag::FOLD), pool)?;
        mine.absorb(ep, &mut acc, frame, dim, &cfg.policy)?;
    }
    for t in 0..rounds {
        let peer = rank ^ (1 << t);
        let round = tag(op_id, subtag::ROUND + t);
        if acc.as_ref().is_some_and(SparseStream::is_dense) {
            ep.stats_mut().switch_rounds += 1;
        }
        send_stream_with_word(ep, peer, round, acc.as_ref(), mine.word(), pool)?;
        speculate(ep, pool)?;
        let frame = recv_stream_with_word(ep, peer, round, pool)?;
        mine.absorb(ep, &mut acc, frame, dim, &cfg.policy)?;
    }
    if rank + p2 < p {
        send_stream_with_word(
            ep,
            rank + p2,
            tag(op_id, subtag::UNFOLD),
            acc.as_ref(),
            mine.word(),
            pool,
        )?;
    }
    Ok(settled(mine, acc, Some(op_id)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::decode_stream_with_word;
    use crate::reference::reference_sum;
    use sparcml_net::{run_cluster, CostModel};
    use sparcml_stream::random_sparse;

    fn inputs(p: usize, dim: usize, nnz: usize) -> Vec<SparseStream<f32>> {
        (0..p)
            .map(|r| random_sparse(dim, nnz, 100 + r as u64))
            .collect()
    }

    fn check(p: usize, dim: usize, nnz: usize) {
        let cfg = AllreduceConfig::default();
        let ins = inputs(p, dim, nnz);
        let expect = reference_sum(&ins);
        let outs = run_cluster(p, CostModel::zero(), |ep| {
            ssar_recursive_double(ep, &ins[ep.rank()], &cfg, &mut BufferPool::new()).unwrap()
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
        check(6, 2048, 32);
        check(3, 512, 16);
    }

    #[test]
    fn correct_single_rank() {
        check(1, 128, 8);
    }

    #[test]
    fn densifies_on_fill_in() {
        let cfg = AllreduceConfig::default();
        // Disjoint supports: K = P·k = 8·128 = 1024 > δ = 512 for dim 1024.
        let p = 8;
        let dim = 1024;
        let outs = run_cluster(p, CostModel::zero(), |ep| {
            let lo = (ep.rank() * 128) as u32;
            let pairs: Vec<(u32, f32)> = (lo..lo + 128).map(|i| (i, 1.0f32)).collect();
            let input = SparseStream::from_pairs(dim, &pairs).unwrap();
            ssar_recursive_double(ep, &input, &cfg, &mut BufferPool::new()).unwrap()
        });
        for out in outs {
            assert!(out.is_dense(), "result should have switched to dense");
            assert!(out.to_dense_vec().iter().all(|&v| v == 1.0));
        }
    }

    /// A frame as the pass would send it: `stream` (when attached) then
    /// the word.
    fn frame(stream: Option<&SparseStream<f32>>, word: u64) -> Vec<u8> {
        let mut buf = Vec::new();
        if let Some(stream) = stream {
            stream.encode_into(&mut buf);
        }
        buf.extend_from_slice(&word.to_le_bytes());
        buf
    }

    /// The collective size the decoder tests parse against.
    const P: usize = 8;

    /// `count` speculators in the word's count field.
    fn counted(count: u64) -> u64 {
        count << SPECULATORS_SHIFT
    }

    fn parse_frame(bytes: &[u8], dim: usize) -> Result<Agreement, CollError> {
        let (theirs, stream) = Agreement::parse(decode_stream_with_word::<f32>(bytes)?, dim, P)?;
        // Whatever the decoder lets through upholds what `absorb` and the
        // drain rely on.
        assert!((1..=dim.max(1) as u64).contains(&theirs.k));
        assert!(theirs.speculators <= P as u64);
        assert!(!theirs.eager || theirs.speculators == 0);
        assert_eq!(stream.is_some(), theirs.eager);
        assert!(stream.iter().all(|s| s.dim() == dim));
        Ok(theirs)
    }

    #[test]
    fn malformed_agreement_frames_are_typed_invalid_errors() {
        let dim = 512;
        let stream = random_sparse::<f32>(dim, 16, 3);
        let eager = |k: u64| k | EAGER_BIT;
        let ok = parse_frame(&frame(Some(&stream), eager(16)), dim).unwrap();
        assert_eq!(
            ok,
            Agreement {
                k: 16,
                speculators: 0,
                eager: true
            }
        );
        let bare = parse_frame(&frame(None, 200 | counted(P as u64)), dim).unwrap();
        assert_eq!(
            bare,
            Agreement {
                k: 200,
                speculators: P as u64,
                eager: false
            }
        );

        let other_dim = random_sparse::<f32>(dim * 2, 16, 3);
        for (what, bytes) in [
            ("shorter than its word", vec![0u8; 7]),
            ("bit set, no stream", frame(None, eager(16))),
            ("bit clear, stream attached", frame(Some(&stream), 16)),
            (
                "stream of the wrong dim",
                frame(Some(&other_dim), eager(16)),
            ),
            ("k above dim", frame(Some(&stream), eager(dim as u64 + 1))),
            ("k of zero", frame(None, 0)),
            ("more speculators than ranks", frame(None, 16 | counted(9))),
            (
                "count field all ones",
                frame(None, 16 | SPECULATORS_MASK << SPECULATORS_SHIFT),
            ),
            (
                "speculators under the eager bit",
                frame(Some(&stream), eager(16) | counted(1)),
            ),
            ("reserved bit 62 set", frame(None, 16 | RESERVED_BIT)),
            (
                "reserved bit 62 on an eager frame",
                frame(Some(&stream), eager(16) | RESERVED_BIT),
            ),
        ] {
            match parse_frame(&bytes, dim) {
                Err(CollError::Invalid(_)) => {}
                other => panic!("{what}: {other:?}"),
            }
        }
    }

    #[test]
    fn mutated_agreement_frames_never_panic_the_decoder() {
        let dim = 512;
        let stream = random_sparse::<f32>(dim, 24, 5);
        let mut dense = stream.clone();
        dense.densify();
        let valid = [
            frame(Some(&stream), 24 | EAGER_BIT),
            frame(Some(&dense), dim as u64 | EAGER_BIT),
            frame(None, 77),
            frame(None, 77 | counted(5)),
        ];
        let mut rng = sparcml_stream::XorShift64::new(0x5eed);
        for i in 0..4000 {
            let mut bytes = valid[i % valid.len()].clone();
            match rng.next_u64() % 4 {
                0 => bytes.truncate(rng.next_u64() as usize % (bytes.len() + 1)),
                1 => bytes.extend((0..rng.next_u64() % 9).map(|_| rng.next_u64() as u8)),
                _ => {}
            }
            for _ in 0..rng.next_u64() % 4 {
                if !bytes.is_empty() {
                    let at = rng.next_u64() as usize % bytes.len();
                    bytes[at] ^= 1 << (rng.next_u64() % 8);
                }
            }
            // Ok or a typed error; the invariants are checked inside.
            let _ = parse_frame(&bytes, dim);
        }
    }

    #[test]
    fn parked_rank_rejects_an_unfold_word_that_restores_the_bit() {
        // P=3: rank 2 parks with rank 0. It folds in a cleared bit — and,
        // when it speculates, a count of one — so a closing word with the
        // bit set, a smaller k, or a count of zero is a lie.
        let dim = 256;
        let input = random_sparse::<f32>(dim, 32, 9);
        for (stance, word) in [
            (Stance::Bare, 32 | EAGER_BIT),
            (Stance::Bare, 31),
            (Stance::Speculative, 32),
        ] {
            let outs = run_cluster(3, CostModel::zero(), |ep| {
                if ep.rank() == 2 {
                    let cfg = AllreduceConfig::default();
                    let pass = rec_dbl_agree(ep, &input, stance, &cfg, &mut BufferPool::new());
                    return Some(pass.map(|pass| pass.k));
                }
                // The op id the pass draws on rank 2.
                let op_id = ep.next_op_id();
                if stance == Stance::Speculative {
                    // Taken before leaving, so sending it cannot fail.
                    ep.recv(2, tag(op_id, subtag::SPLIT)).unwrap();
                }
                if ep.rank() == 0 {
                    // The villain.
                    ep.recv(2, tag(op_id, subtag::FOLD)).unwrap();
                    let attached = (word & EAGER_BIT != 0).then_some(&input);
                    let reply = frame(attached, word);
                    ep.send(2, tag(op_id, subtag::UNFOLD), reply.into())
                        .unwrap();
                }
                None
            });
            match &outs[2] {
                Some(Err(CollError::Invalid(msg))) => assert!(msg.contains("contradicts")),
                other => panic!("{stance:?}, word {word:#x}: {other:?}"),
            }
        }
    }

    #[test]
    fn straddling_ranks_agree_on_max_k_without_a_result() {
        // Odd ranks opt out: every rank ends with the bit clear, no
        // stream, and the cluster-wide maximum k.
        for p in [2usize, 5, 8] {
            let outs = run_cluster(p, CostModel::zero(), |ep| {
                let input = random_sparse::<f32>(1024, 8 + ep.rank(), ep.rank() as u64);
                let stance = if ep.rank().is_multiple_of(2) {
                    Stance::Eager
                } else {
                    Stance::Bare
                };
                let cfg = AllreduceConfig::default();
                let pass = rec_dbl_agree(ep, &input, stance, &cfg, &mut BufferPool::new()).unwrap();
                (pass.result, pass.k, pass.speculators)
            });
            for (result, k, speculators) in outs {
                assert!(result.is_none(), "P={p}");
                assert_eq!(k, 8 + p - 1, "P={p}");
                assert_eq!(speculators, 0, "P={p}");
            }
        }
    }

    #[test]
    fn speculators_are_counted_and_their_frames_ride_the_pass_op_id() {
        // Ranks 1, 2 and 4 speculate: every rank agrees on a count of
        // three, and finds exactly the split frames owed to it — one per
        // other speculator — under the pass's op id, each its sub-range of
        // the sender's input.
        let (dim, speculating) = (1024, [1usize, 2, 4]);
        for p in [5usize, 8] {
            let ins = inputs(p, dim, 40);
            let outs = run_cluster(p, CostModel::zero(), |ep| {
                let rank = ep.rank();
                let stance = if speculating.contains(&rank) {
                    Stance::Speculative
                } else {
                    Stance::Bare
                };
                let cfg = AllreduceConfig::default();
                let mut pool = BufferPool::new();
                let pass = rec_dbl_agree(ep, &ins[rank], stance, &cfg, &mut pool).unwrap();
                let op_id = pass.op_id.expect("P > 1 draws an op id");
                let owed = pass.speculators - usize::from(stance == Stance::Speculative);
                let range = sparcml_stream::partition_range(dim, p, rank);
                let mut senders: Vec<usize> = (0..owed)
                    .map(|_| {
                        let (src, frame) = ep.recv_any(tag(op_id, subtag::SPLIT)).unwrap();
                        let part = SparseStream::<f32>::decode(&frame).unwrap();
                        assert_eq!(part, ins[src].restrict(range.lo, range.hi), "from {src}");
                        src
                    })
                    .collect();
                senders.sort();
                (pass.speculators, senders)
            });
            for (rank, (count, senders)) in outs.into_iter().enumerate() {
                let expect: Vec<usize> = speculating
                    .into_iter()
                    .filter(|&r| r != rank && r < p)
                    .collect();
                assert_eq!(count, 3, "P={p} rank {rank}");
                assert_eq!(senders, expect, "P={p} rank {rank}");
            }
        }
    }

    #[test]
    fn latency_matches_log2p_alpha() {
        let cfg = AllreduceConfig::default();
        // Zero-byte inputs isolate the latency term: log2(P)·α.
        let cost = CostModel {
            alpha: 1.0,
            beta: 0.0,
            gamma: 0.0,
            isend_alpha_fraction: 0.0,
        };
        let p = 8;
        let t = sparcml_net::max_virtual_time(p, cost, |ep| {
            let input = SparseStream::<f32>::zeros(1024);
            ssar_recursive_double(ep, &input, &cfg, &mut BufferPool::new()).unwrap();
        });
        // 3 rounds, each α (send) — recv arrival is also α-aligned, so the
        // total equals log2(8) · α = 3... plus the final round's arrival
        // offset. The exchange pattern gives exactly t rounds of (α) send
        // plus arrival at stamp+0: clock = 3α.
        assert!((t - 3.0).abs() < 1e-9, "t = {t}");
    }
}
