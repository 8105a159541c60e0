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
//!
//! A fold or round frame that carries a large stream travels as several
//! *segments* under the round's one tag ([`crate::op::segments`] decides
//! how many from the cost model): segment `j` of `c` is the stream's
//! `partition_range(N, c, j)`, and the first one's trailer announces the
//! count and the sender's stored total next to the agreement word. The
//! receiver merges range `j` of its accumulator with segment `j` as it
//! lands, so on the virtual clock a round costs `α + β·L/c + merge`
//! instead of `α + β·L + merge` where the merge is the longer part, and
//! the result is the same to the bit as the one-frame round's.

use std::borrow::Cow;

use sparcml_net::Transport;
use sparcml_stream::{partition_range, DensityPolicy, Scalar, SparseStream};

use crate::allreduce::ssar_split_ag::send_split_steps;
use crate::allreduce::AllreduceConfig;
use crate::error::CollError;
use crate::op::{
    add_segments, pow2_below, recv_decoded, recv_stream_with_word, recv_tracked, segments,
    send_stream_segments, send_stream_with_word, subtag, tag, BufferPool, Segment, MAX_SEGMENTS,
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
/// Bit 62: the frame opens a segmented fold or round — its stream is
/// segment 0 of several, and a segment word sits in front of this word.
const SEGMENTED_BIT: u64 = 1 << 62;
/// Top bit: every rank of the sender's subcube was eager.
const EAGER_BIT: u64 = 1 << 63;

/// Bits 0–39 of the segment word: the sender's stored total — pairs when
/// sparse, `N` when dense — over all segments.
const TOTAL_MASK: u64 = (1 << 40) - 1;
/// Bits 40–47: the segment count, 2 to [`MAX_SEGMENTS`]. The rest is zero.
const COUNT_SHIFT: u32 = 40;
const COUNT_MASK: u64 = 0xff;

/// How a rank enters the pass, by the schedule the selector picks for its
/// own `k`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Stance {
    /// Its own pick is recursive doubling (the pinned schedule always
    /// is): its frames carry its stream, reducing as it agrees.
    Eager,
    /// Its own pick is `SSAR_Split_allgather`: it sends its split-phase
    /// frames between the pass's rounds, under the pass's op id, while the
    /// words fly.
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

/// What the first frame of a fold or round announces about the stream
/// attached to it: how many segments it travels as, the stored entries
/// they hold between them, and segment 0, decoded.
struct Opening<V> {
    segments: usize,
    total: usize,
    first: Segment<V>,
}

impl Agreement {
    fn word(self) -> u64 {
        self.k | self.speculators << SPECULATORS_SHIFT | if self.eager { EAGER_BIT } else { 0 }
    }

    /// Validates a received word (peer-controlled) against the
    /// collective's dimension and size: `1 ≤ k ≤ dim`, at most `p`
    /// speculators and none under the eager bit. Bit 62 is the caller's
    /// to check.
    fn from_word(word: u64, dim: usize, p: usize) -> Result<Agreement, CollError> {
        let theirs = Agreement {
            k: word & K_MASK,
            speculators: (word >> SPECULATORS_SHIFT) & SPECULATORS_MASK,
            eager: word & EAGER_BIT != 0,
        };
        let invalid = |what: String| Err(CollError::Invalid(what));
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
        Ok(theirs)
    }

    /// A stream must be attached exactly when the eager bit is set.
    fn check_attached(self, attached: bool) -> Result<(), CollError> {
        match (self.eager, attached) {
            (true, false) => Err(CollError::Invalid(
                "agreement word has the eager bit set but the frame carries no stream".into(),
            )),
            (false, true) => Err(CollError::Invalid(
                "agreement word has the eager bit clear but the frame carries a stream".into(),
            )),
            _ => Ok(()),
        }
    }

    /// Validates an unfold frame, which is always one frame: its word, bit
    /// 62 clear, a stream attached exactly when the eager bit is set, and
    /// of the right dimension.
    fn parse<V: Scalar>(
        (stream, word): (Option<SparseStream<V>>, u64),
        dim: usize,
        p: usize,
    ) -> Result<(Agreement, Option<SparseStream<V>>), CollError> {
        let theirs = Agreement::from_word(word, dim, p)?;
        if word & SEGMENTED_BIT != 0 {
            return Err(CollError::Invalid(format!(
                "unfold frame's agreement word {word:#x} has the segmented bit 62 set"
            )));
        }
        theirs.check_attached(stream.is_some())?;
        match stream {
            Some(s) if s.dim() != dim => Err(CollError::Invalid(format!(
                "frame carries a {}-dim stream on a {dim}-dim collective",
                s.dim()
            ))),
            stream => Ok((theirs, stream)),
        }
    }

    /// Validates the first frame of a fold or round (peer-controlled
    /// bytes): its word, then — bit 62 set — the segment word in front of
    /// it, which only an eager frame may carry: a count of 2 to
    /// [`MAX_SEGMENTS`], a stored total of at most `dim`, its reserved
    /// bits clear. A stream must be attached exactly when the eager bit is
    /// set; it is segment 0 of the announced count, decoded here. Without
    /// bit 62 the frame is the whole round: one segment, whose stored
    /// total is its own.
    fn open<V: Scalar>(
        frame: &[u8],
        dim: usize,
        p: usize,
    ) -> Result<(Agreement, Option<Opening<V>>), CollError> {
        let invalid = |what: String| Err(CollError::Invalid(what));
        let Some(split) = frame.len().checked_sub(8) else {
            return invalid(format!(
                "frame of {} bytes is too short for its 8-byte control word",
                frame.len()
            ));
        };
        let word = u64::from_le_bytes(frame[split..].try_into().expect("checked length"));
        let theirs = Agreement::from_word(word, dim, p)?;
        let (body, layout) = if word & SEGMENTED_BIT == 0 {
            (&frame[..split], None)
        } else {
            if !theirs.eager {
                return invalid(
                    "agreement word has the segmented bit set but not the eager bit".into(),
                );
            }
            let Some(at) = split.checked_sub(8) else {
                return invalid(format!(
                    "segmented frame of {} bytes is too short for its segment word",
                    frame.len()
                ));
            };
            let seg = u64::from_le_bytes(frame[at..split].try_into().expect("checked length"));
            let (count, total) = ((seg >> COUNT_SHIFT) & COUNT_MASK, seg & TOTAL_MASK);
            if seg >> (COUNT_SHIFT + 8) != 0 {
                return invalid(format!("segment word {seg:#x} has reserved bits set"));
            }
            if !(2..=MAX_SEGMENTS as u64).contains(&count) {
                return invalid(format!(
                    "segment word announces {count} segments (2 to {MAX_SEGMENTS} allowed)"
                ));
            }
            if total > dim as u64 {
                return invalid(format!(
                    "segment word announces {total} stored entries on a {dim}-dim collective"
                ));
            }
            (&frame[..at], Some((count as usize, total as usize)))
        };
        theirs.check_attached(!body.is_empty())?;
        if body.is_empty() {
            return Ok((theirs, None));
        }
        let segments = layout.map_or(1, |(count, _)| count);
        let mut first = Segment::default();
        first.read(body, dim, partition_range(dim, segments, 0))?;
        let total = layout.map_or(first.stored_len(), |(_, total)| total);
        Ok((
            theirs,
            Some(Opening {
                segments,
                total,
                first,
            }),
        ))
    }

    /// Receives `src`'s fold or round frames under `t` and folds them into
    /// this rank's state: the words combine symmetrically (max k, summed
    /// speculators, AND of the bits), so exchange partners hold the same
    /// word afterwards; the streams merge, segment by segment as they
    /// land, while the combined bit holds, and the accumulator is dropped
    /// the moment it does not — after taking every segment an eager
    /// partner sent, so none outlives the pass.
    #[allow(clippy::too_many_arguments)]
    fn absorb<T: Transport, V: Scalar>(
        &mut self,
        ep: &mut T,
        acc: &mut Option<Cow<'_, SparseStream<V>>>,
        src: usize,
        t: u64,
        dim: usize,
        policy: &DensityPolicy,
        pool: &mut BufferPool,
    ) -> Result<(), CollError> {
        let p = ep.size();
        let (theirs, opening) = recv_decoded(ep, src, t, pool, |frame| {
            Agreement::open::<V>(frame, dim, p)
        })?;
        self.k = self.k.max(theirs.k);
        self.speculators += theirs.speculators;
        self.eager &= theirs.eager;
        if self.speculators > p as u64 {
            return Err(CollError::Invalid(format!(
                "agreement words sum to {} speculators on a {p}-rank collective",
                self.speculators
            )));
        }
        match (acc.as_mut(), opening) {
            (Some(acc), Some(o)) => {
                add_segments(ep, src, t, acc, o.first, o.segments, o.total, policy, pool)
            }
            (_, opening) => {
                *acc = None;
                for _ in 1..opening.map_or(1, |o| o.segments) {
                    pool.recycle(recv_tracked(ep, src, t)?);
                }
                Ok(())
            }
        }
    }
}

/// Sends this rank's fold or round frames to `dst` under `t`, ending in
/// `word`. Once the bit is lost that is the bare word, with `isend`.
/// Otherwise the accumulator goes as [`segments`] of the one-frame
/// length (stream and word): one blocking frame byte for byte as ever, or
/// `c` isent segments whose first ends in the segment word — stored total
/// and `c` — then the word with bit 62 set.
fn send_frames<T: Transport, V: Scalar>(
    ep: &mut T,
    dst: usize,
    t: u64,
    acc: Option<&SparseStream<V>>,
    word: u64,
    pool: &mut BufferPool,
) -> Result<(), CollError> {
    let Some(stream) = acc else {
        return send_stream_with_word::<_, V>(ep, dst, t, None, word, pool);
    };
    let c = segments(ep.cost(), stream.encoded_len() + 8);
    let mut trailer = Vec::with_capacity(16);
    let mut word = word;
    if c > 1 {
        let seg = stream.stored_len() as u64 | (c as u64) << COUNT_SHIFT;
        trailer.extend_from_slice(&seg.to_le_bytes());
        word |= SEGMENTED_BIT;
    }
    trailer.extend_from_slice(&word.to_le_bytes());
    send_stream_segments(ep, dst, t, stream, c, &trailer, pool)
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
/// exactly as the plain schedule's would — a large fold or round stream
/// as segments merged as they land — and a subcube that has lost the bit
/// sends the bare word — with `isend`, so a rank pays `α` only for the
/// frames that carry data.
///
/// A [`Stance::Speculative`] rank uses the pass's waits: at each of its
/// send points — after its word of each round, before the fold receive
/// (an active rank with a parked partner), between fold-send and
/// unfold-receive (a parked rank) — it sends its next even share of the
/// split-phase steps `1..P`, tagged `SPLIT` under the pass's op id,
/// blocking like every split-phase send. A peer the
/// pass still owes a word — a later round's partner, the unfold partner —
/// gets its split frame in a share after that word: the virtual link
/// carries one frame at a time, and a word queued behind a split frame
/// would wait out its transfer.
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
    let folds = rank + p2 < p;
    // Send point `i` of `points` takes steps `order[(P−1)·i/points ..
    // (P−1)·(i+1)/points)`: later points take the remainder. `order` is
    // `1..P`, but for a step to a peer this rank still owes a word at that
    // point, which trades places with the first step of the point after
    // that word whose peer is owed none. (The rule is "no step to a peer
    // before the word owed it"; a stable sort of the steps by that point
    // also keeps it, but moves every step, and `Auto`'s worst regret on
    // the P=8 virtual sweep rises from 1.0042 to 1.0088.)
    let points = if rank >= p2 {
        1
    } else {
        rounds as usize + usize::from(folds)
    };
    // The send point that follows this rank's round word to `dst`, 0 for
    // a peer it owes none. (A parked partner's unfold frame follows every
    // point, so its step is best sent early, like any other.)
    let due = |dst: usize| {
        (0..rounds as usize)
            .find(|&t| rank < p2 && dst == rank ^ (1 << t))
            .map_or(0, |t| t + usize::from(folds))
    };
    let mut order: Vec<usize> = if speculative {
        (1..p).collect()
    } else {
        Vec::new()
    };
    let point_of = |i: usize| {
        (0..points)
            .rev()
            .find(|&q| (p - 1) * q / points <= i)
            .unwrap_or(0)
    };
    for i in 0..order.len() {
        let owed = due((rank + order[i]) % p);
        if owed > point_of(i) {
            let from = ((p - 1) * owed / points).max(i + 1);
            if let Some(j) = (from..order.len()).find(|&j| due((rank + order[j]) % p) == 0) {
                order.swap(i, j);
            }
        }
    }
    let mut passed = 0;
    let mut speculate = |ep: &mut T, pool: &mut BufferPool| {
        if !speculative {
            return Ok(());
        }
        let from = (p - 1) * passed / points;
        passed += 1;
        let to = (p - 1) * passed / points;
        send_split_steps(ep, input, op_id, order[from..to].iter().copied(), pool)
    };
    if rank >= p2 {
        // Parked (§A): hand the input to the fold partner, take the
        // outcome from its unfold frame.
        let partner = rank - p2;
        let attached = eager.then_some(input);
        send_frames(
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
    // The input is the accumulator until the first sum, which only reads
    // it: it is borrowed, not copied.
    let mut acc = eager.then_some(Cow::Borrowed(input));
    if folds {
        speculate(ep, pool)?;
        let fold = tag(op_id, subtag::FOLD);
        mine.absorb(ep, &mut acc, rank + p2, fold, dim, &cfg.policy, pool)?;
    }
    for t in 0..rounds {
        let peer = rank ^ (1 << t);
        let round = tag(op_id, subtag::ROUND + t);
        if acc.as_deref().is_some_and(SparseStream::is_dense) {
            ep.stats_mut().switch_rounds += 1;
        }
        send_frames(ep, peer, round, acc.as_deref(), mine.word(), pool)?;
        speculate(ep, pool)?;
        mine.absorb(ep, &mut acc, peer, round, dim, &cfg.policy, pool)?;
    }
    if folds {
        send_stream_with_word(
            ep,
            rank + p2,
            tag(op_id, subtag::UNFOLD),
            acc.as_deref(),
            mine.word(),
            pool,
        )?;
    }
    Ok(settled(mine, acc.map(Cow::into_owned), Some(op_id)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{encode_segment, SegmentSum};
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

    /// Segment `j` of `c` of `stream` as the pass would send it, the first
    /// with its trailer: the segment word (`total`, `count`) and `word`
    /// with bit 62 set.
    fn segment(
        stream: &SparseStream<f32>,
        c: usize,
        j: usize,
        seg_word: u64,
        word: u64,
    ) -> Vec<u8> {
        let mut buf = Vec::new();
        encode_segment(stream, partition_range(stream.dim(), c, j), &mut buf);
        if j == 0 {
            buf.extend_from_slice(&seg_word.to_le_bytes());
            buf.extend_from_slice(&(word | SEGMENTED_BIT).to_le_bytes());
        }
        buf
    }

    /// The segment word of `count` segments holding `total` entries.
    fn seg_word(count: u64, total: u64) -> u64 {
        total | count << COUNT_SHIFT
    }

    /// The collective size the decoder tests parse against.
    const P: usize = 8;

    /// `count` speculators in the word's count field.
    fn counted(count: u64) -> u64 {
        count << SPECULATORS_SHIFT
    }

    fn parse_frame(bytes: &[u8], dim: usize) -> Result<Agreement, CollError> {
        let (theirs, opening) = Agreement::open::<f32>(bytes, dim, P)?;
        // Whatever the decoder lets through upholds what `absorb` and the
        // drain rely on.
        assert!((1..=dim.max(1) as u64).contains(&theirs.k));
        assert!(theirs.speculators <= P as u64);
        assert!(!theirs.eager || theirs.speculators == 0);
        assert_eq!(opening.is_some(), theirs.eager);
        if let Some(o) = opening {
            assert!((1..=MAX_SEGMENTS).contains(&o.segments));
            assert!(o.total <= dim);
            let range = partition_range(dim, o.segments, 0);
            let mut sum = SegmentSum::new(
                Cow::Owned(SparseStream::zeros(dim)),
                o.segments,
                o.total,
                o.first.is_dense(),
                &DensityPolicy::default(),
            );
            assert_eq!(sum.range(), range);
            // The one frame of segment 0, then the agreement word and,
            // under bit 62, the segment word before it.
            let mut again = Vec::new();
            o.first.encode_into(dim, &mut again);
            let word = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().unwrap());
            let trailer = if word & SEGMENTED_BIT != 0 { 16 } else { 8 };
            assert_eq!(&bytes[..bytes.len() - trailer], &again[..]);
            sum.add(&o.first)?;
        }
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
        // The first of four segments, sparse and dense.
        let mut dense = stream.clone();
        dense.densify();
        let first = |s: &SparseStream<f32>, seg: u64| segment(s, 4, 0, seg, eager(16));
        for s in [&stream, &dense] {
            let opened = parse_frame(&first(s, seg_word(4, s.stored_len() as u64)), dim);
            assert_eq!(opened.unwrap(), ok);
        }

        let other_dim = random_sparse::<f32>(dim * 2, 16, 3);
        let total = stream.stored_len() as u64;
        // An index of segment 1 of 4 (range [128, 256)) in segment 0.
        let stray = SparseStream::from_pairs(dim, &[(3, 1.0f32), (200, 1.0)]).unwrap();
        let mut stray_frame = Vec::new();
        SparseStream::encode_sparse_slice_into(dim, stray.sparse_view().unwrap(), &mut stray_frame);
        stray_frame.extend_from_slice(&seg_word(4, 2).to_le_bytes());
        stray_frame.extend_from_slice(&(eager(16) | SEGMENTED_BIT).to_le_bytes());
        // All 512 values where segment 0 of 4 holds 128.
        let mut whole_dense = frame(Some(&dense), 0);
        whole_dense.truncate(whole_dense.len() - 8);
        whole_dense.extend_from_slice(&seg_word(4, dim as u64).to_le_bytes());
        whole_dense.extend_from_slice(&(eager(16) | SEGMENTED_BIT).to_le_bytes());
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
            (
                "segmented bit on a bare frame",
                frame(None, 16 | SEGMENTED_BIT),
            ),
            (
                "segmented bit with no room for the segment word",
                frame(None, eager(16) | SEGMENTED_BIT),
            ),
            ("a segment count of 0", first(&stream, seg_word(0, total))),
            ("a segment count of 1", first(&stream, seg_word(1, total))),
            (
                "a segment count above the cap",
                first(&stream, seg_word(MAX_SEGMENTS as u64 + 1, total)),
            ),
            (
                "reserved bits of the segment word",
                first(&stream, seg_word(4, total) | 1 << 60),
            ),
            (
                "a stored total above dim",
                first(&stream, seg_word(4, dim as u64 + 1)),
            ),
            ("an index outside segment 0's range", stray_frame),
            ("a dense segment 0 of the whole dim", whole_dense),
            (
                "a segment 0 holding more than the total",
                first(&stream, seg_word(4, 1)),
            ),
        ] {
            match parse_frame(&bytes, dim) {
                Err(CollError::Invalid(_)) => {}
                other => panic!("{what}: {other:?}"),
            }
        }
    }

    /// P=2 with rank 0 a villain: it sends `frames` as its round-0 frames
    /// of pinned recursive doubling, takes the honest rank's one frame
    /// (free links, so `c = 1`), and leaves. Returns what rank 1's
    /// collective returned, and how long it took.
    fn against_segments(
        input: &SparseStream<f32>,
        frames: &[Vec<u8>],
    ) -> (Result<SparseStream<f32>, CollError>, std::time::Duration) {
        let mut outs = run_cluster(2, CostModel::zero(), |ep| {
            if ep.rank() == 1 {
                ep.set_recv_deadline(std::time::Duration::from_secs(5));
                let started = std::time::Instant::now();
                let cfg = AllreduceConfig::default();
                let out = ssar_recursive_double(ep, input, &cfg, &mut BufferPool::new());
                return Some((out, started.elapsed()));
            }
            let round = tag(ep.next_op_id(), subtag::ROUND);
            for frame in frames {
                ep.send(1, round, frame.clone().into()).unwrap();
            }
            ep.recv(1, round).unwrap();
            None
        });
        outs.pop().flatten().expect("the honest rank reports")
    }

    #[test]
    fn malformed_segment_streams_are_typed_errors_on_the_receiver() {
        let dim = 1024;
        let input = random_sparse::<f32>(dim, 64, 31);
        let theirs = random_sparse::<f32>(dim, 64, 32);
        let word = 64 | EAGER_BIT;
        let total = theirs.stored_len() as u64;
        let honest = |seg: u64| -> Vec<Vec<u8>> {
            (0..4).map(|j| segment(&theirs, 4, j, seg, word)).collect()
        };
        // The honest stream, in four segments, sums to the reference.
        let (out, _) = against_segments(&input, &honest(seg_word(4, total)));
        assert_eq!(
            out.unwrap().to_dense_vec(),
            reference_sum(&[input.clone(), theirs.clone()])
        );
        let mut dense = theirs.clone();
        dense.densify();
        let dense_segment = segment(&dense, 4, 1, 0, word);
        let mut stray = honest(seg_word(4, total));
        // Segment 2 covers [512, 768): hand it segment 1's entries.
        stray[2] = stray[1].clone();
        let mut mixed = honest(seg_word(4, total));
        mixed[1] = dense_segment;
        for (what, frames) in [
            (
                "a total above what the segments hold",
                honest(seg_word(4, total + 1)),
            ),
            (
                "a total below what the segments hold",
                honest(seg_word(4, total - 1)),
            ),
            ("a segment with indices outside its range", stray),
            ("a dense segment after a sparse one", mixed),
        ] {
            match against_segments(&input, &frames).0 {
                Err(CollError::Invalid(_)) => {}
                other => panic!("{what}: {other:?}"),
            }
        }
        // An eager partner that leaves after two of its four segments.
        let (out, took) = against_segments(&input, &honest(seg_word(4, total))[..2]);
        assert_eq!(
            out.unwrap_err(),
            CollError::Comm(sparcml_net::CommError::PeerDisconnected { peer: 0 })
        );
        assert!(took < std::time::Duration::from_secs(5), "{took:?}");
    }

    #[test]
    fn mutated_agreement_frames_never_panic_the_decoder() {
        let dim = 512;
        let stream = random_sparse::<f32>(dim, 24, 5);
        let mut dense = stream.clone();
        dense.densify();
        // 39 % dense: its frames and segments carry an Elias–Fano index
        // of no low bits, a bitmap.
        let wide = random_sparse::<f32>(dim, 200, 6);
        let opening = |s: &SparseStream<f32>, k: u64| {
            segment(s, 3, 0, seg_word(3, s.stored_len() as u64), k | EAGER_BIT)
        };
        let valid = [
            frame(Some(&stream), 24 | EAGER_BIT),
            frame(Some(&dense), dim as u64 | EAGER_BIT),
            frame(None, 77),
            frame(None, 77 | counted(5)),
            opening(&stream, 24),
            opening(&dense, dim as u64),
            frame(Some(&wide), 200 | EAGER_BIT),
            opening(&wide, 200),
        ];
        assert_eq!((valid[6][3], valid[7][3]), (2, 2), "representation tags");
        // Later segments go through the same decode and add, behind an
        // honest segment 0.
        let later = [&stream, &dense, &wide].map(|s| {
            let mut first = Segment::default();
            let bytes = segment(s, 3, 0, 0, 0);
            first
                .read(&bytes[..bytes.len() - 16], dim, partition_range(dim, 3, 0))
                .unwrap();
            (first, segment(s, 3, 1, 0, 0))
        });
        let mut rng = sparcml_stream::XorShift64::new(0x5eed);
        let mut mutate = |bytes: &mut Vec<u8>| {
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
        };
        for i in 0..4000 {
            let mut bytes = valid[i % valid.len()].clone();
            mutate(&mut bytes);
            // Ok or a typed error; the invariants are checked inside.
            let _ = parse_frame(&bytes, dim);
            let (first, bytes) = &later[i % later.len()];
            let mut bytes = bytes.clone();
            mutate(&mut bytes);
            let mut sum = SegmentSum::new(
                Cow::Borrowed(&stream),
                3,
                dim,
                first.is_dense(),
                &DensityPolicy::default(),
            );
            sum.add(first).unwrap();
            let mut seg = Segment::default();
            if seg.read(&bytes, dim, sum.range()).is_ok() {
                let mut again = Vec::new();
                seg.encode_into(dim, &mut again);
                assert_eq!(again, bytes, "case {i}");
                let _ = sum.add(&seg);
            }
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
    fn segmented_rounds_overlap_the_merge_with_the_transfer() {
        // `ar-bandwidth`'s shape on Aries: P=2, N=2^20, k=1e5 per rank. As
        // one frame the round reads α + β·L + merge ≈ 1.5 + 50.0 + 190.5
        // µs; as 18 segments the first lands after α + β·L/18 and each
        // merge overlaps the transfer of the segments behind it.
        let cfg = AllreduceConfig::default();
        let ins: Vec<SparseStream<f32>> = (0..2)
            .map(|r| random_sparse(1 << 20, 100_000, 40 + r))
            .collect();
        let t = sparcml_net::max_virtual_time(2, CostModel::aries(), |ep| {
            ssar_recursive_double(ep, &ins[ep.rank()], &cfg, &mut BufferPool::new()).unwrap();
        });
        assert!(t <= 200e-6, "{} µs", t * 1e6);
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
        // Each of the 3 rounds sends one blocking frame (the clock moves
        // by α) that lands α after it left, at the moment the receiver's
        // own send is done: clock = 3α.
        assert!((t - 3.0).abs() < 1e-9, "t = {t}");
    }
}
