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
//! run this schedule *as* its k-agreement instead of in front of it.

use sparcml_net::Transport;
use sparcml_stream::{DensityPolicy, Scalar, SparseStream};

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
    rec_dbl_agree(ep, input, true, cfg, pool)?.0.ok_or_else(|| {
        CollError::Invalid(
            "a peer declined SSAR_Recursive_double mid-schedule \
             (ranks must request the same algorithm)"
                .into(),
        )
    })
}

/// Top bit of the agreement word: every rank of the sender's subcube was
/// eager.
const EAGER_BIT: u64 = 1 << 63;

/// The agreement word that ends every recursive-doubling frame: the
/// largest per-rank non-zero count seen in the sender's subcube, and
/// whether every rank of that subcube was *eager* — had itself picked
/// recursive doubling for its own `k`. A frame carries the sender's
/// merged stream exactly while the bit holds; once a subcube has lost it
/// the reduction is abandoned and its frames are the bare 8-byte word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Agreement {
    k: u64,
    eager: bool,
}

impl Agreement {
    fn word(self) -> u64 {
        self.k | if self.eager { EAGER_BIT } else { 0 }
    }

    /// Validates a received frame (peer-controlled bytes) against the
    /// collective's dimension: `1 ≤ k ≤ dim`, a stream attached exactly
    /// when the bit is set, and of the right dimension.
    fn parse<V: Scalar>(
        (stream, word): (Option<SparseStream<V>>, u64),
        dim: usize,
    ) -> Result<(Agreement, Option<SparseStream<V>>), CollError> {
        let theirs = Agreement {
            k: word & !EAGER_BIT,
            eager: word & EAGER_BIT != 0,
        };
        if theirs.k == 0 || theirs.k > dim.max(1) as u64 {
            return Err(CollError::Invalid(format!(
                "agreement word claims k = {} on a {dim}-dim collective",
                theirs.k
            )));
        }
        match &stream {
            None if theirs.eager => Err(CollError::Invalid(
                "agreement word has the eager bit set but the frame carries no stream".into(),
            )),
            Some(_) if !theirs.eager => Err(CollError::Invalid(
                "agreement word has the eager bit clear but the frame carries a stream".into(),
            )),
            Some(s) if s.dim() != dim => Err(CollError::Invalid(format!(
                "frame carries a {}-dim stream on a {dim}-dim collective",
                s.dim()
            ))),
            _ => Ok((theirs, stream)),
        }
    }

    /// Folds a received frame into this rank's state: the words combine
    /// symmetrically (max k, AND of the bits), so exchange partners hold
    /// the same word afterwards; the streams merge while the combined bit
    /// holds, and the accumulator is dropped the moment it does not.
    fn absorb<T: Transport, V: Scalar>(
        &mut self,
        ep: &mut T,
        acc: &mut Option<SparseStream<V>>,
        frame: (Option<SparseStream<V>>, u64),
        dim: usize,
        policy: &DensityPolicy,
    ) -> Result<(), CollError> {
        let (theirs, stream) = Agreement::parse(frame, dim)?;
        self.k = self.k.max(theirs.k);
        self.eager &= theirs.eager;
        match (acc.as_mut(), stream) {
            (Some(acc), Some(stream)) => add_charged(ep, acc, &stream, policy),
            _ => {
                *acc = None;
                Ok(())
            }
        }
    }
}

/// One pass of recursive doubling — fold → `log2(p2)` rounds → unfold —
/// whose frames *are* the cluster's agreement on `k`: every frame ends in
/// the [`Agreement`] word `{max k in my subcube, every rank in my subcube
/// was eager}`. A rank is `eager` when it would run
/// `SSAR_Recursive_double` on its own `k` (the pinned schedule always
/// is); an eager subcube's frames carry its merged stream exactly as the
/// plain schedule's would, a subcube that has lost the bit sends the bare
/// word.
///
/// After the last round every rank holds the same word. Bit set: the
/// returned stream *is* the allreduce result — the max-k rank itself
/// picked recursive doubling, so the schedule the agreed `k` selects is
/// the one that just ran, at `log2(P)·α` and no agreement round at all.
/// Bit clear: no stream, and the returned `k` is the agreed maximum the
/// caller dispatches a concrete schedule on — `⌊log2 P⌋` control rounds
/// (+2 off powers of two) of 8 bytes each.
pub(crate) fn rec_dbl_agree<T: Transport, V: Scalar>(
    ep: &mut T,
    input: &SparseStream<V>,
    eager: bool,
    cfg: &AllreduceConfig,
    pool: &mut BufferPool,
) -> Result<(Option<SparseStream<V>>, usize), CollError> {
    let p = ep.size();
    let dim = input.dim();
    let mut mine = Agreement {
        k: input.stored_len().max(1) as u64,
        eager,
    };
    if p == 1 {
        return Ok((eager.then(|| input.clone()), mine.k as usize));
    }
    let op_id = ep.next_op_id();
    let p2 = pow2_below(p);
    let rank = ep.rank();
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
        let frame = recv_stream_with_word(ep, partner, tag(op_id, subtag::UNFOLD), pool)?;
        let (agreed, result) = Agreement::parse(frame, dim)?;
        // This rank sits inside its partner's subcube: the closing word
        // cannot undercut the k, or restore the bit, it folded in.
        if agreed.k < mine.k || (agreed.eager && !eager) {
            return Err(CollError::Invalid(
                "unfold frame's agreement word contradicts the word this rank folded in".into(),
            ));
        }
        return Ok((result, agreed.k as usize));
    }
    let mut acc = eager.then(|| input.clone());
    if rank + p2 < p {
        let frame = recv_stream_with_word(ep, rank + p2, tag(op_id, subtag::FOLD), pool)?;
        mine.absorb(ep, &mut acc, frame, dim, &cfg.policy)?;
    }
    for t in 0..p2.trailing_zeros() as u64 {
        let peer = rank ^ (1 << t);
        let round = tag(op_id, subtag::ROUND + t);
        if acc.as_ref().is_some_and(SparseStream::is_dense) {
            ep.stats_mut().switch_rounds += 1;
        }
        send_stream_with_word(ep, peer, round, acc.as_ref(), mine.word(), pool)?;
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
    Ok((acc, mine.k as usize))
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

    fn parse_frame(bytes: &[u8], dim: usize) -> Result<Agreement, CollError> {
        let (theirs, stream) = Agreement::parse(decode_stream_with_word::<f32>(bytes)?, dim)?;
        // Whatever the decoder lets through upholds what `absorb` relies on.
        assert!((1..=dim.max(1) as u64).contains(&theirs.k));
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
        assert_eq!(ok, Agreement { k: 16, eager: true });
        let bare = parse_frame(&frame(None, 200), dim).unwrap();
        assert_eq!(
            bare,
            Agreement {
                k: 200,
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
        // P=3: rank 2 parks with rank 0. It folds in a cleared bit, so a
        // closing word with the bit set — or a smaller k — is a lie.
        let dim = 256;
        let input = random_sparse::<f32>(dim, 32, 9);
        for word in [32 | EAGER_BIT, 31] {
            let outs = run_cluster(3, CostModel::zero(), |ep| {
                if ep.rank() == 0 {
                    // The villain: the op id the pass draws on rank 2.
                    let op_id = ep.next_op_id();
                    ep.recv(2, tag(op_id, subtag::FOLD)).unwrap();
                    let attached = (word & EAGER_BIT != 0).then_some(&input);
                    let reply = frame(attached, word);
                    ep.send(2, tag(op_id, subtag::UNFOLD), reply.into())
                        .unwrap();
                }
                if ep.rank() != 2 {
                    return None;
                }
                let cfg = AllreduceConfig::default();
                Some(rec_dbl_agree(
                    ep,
                    &input,
                    false,
                    &cfg,
                    &mut BufferPool::new(),
                ))
            });
            match &outs[2] {
                Some(Err(CollError::Invalid(msg))) => assert!(msg.contains("contradicts")),
                other => panic!("word {word:#x}: {other:?}"),
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
                let eager = ep.rank().is_multiple_of(2);
                let cfg = AllreduceConfig::default();
                rec_dbl_agree(ep, &input, eager, &cfg, &mut BufferPool::new()).unwrap()
            });
            for (result, k) in outs {
                assert!(result.is_none(), "P={p}");
                assert_eq!(k, 8 + p - 1, "P={p}");
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
