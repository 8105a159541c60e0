//! Shared plumbing for collective implementations: reusable buffer pools,
//! stream transfer over endpoints, tag derivation, the power-of-two fold
//! of §A, and the one byte-block allgather loop
//! ([`allgather_bytes_with`]), which places each gathered block while the
//! next round's frame is in flight.
//!
//! A large stream frame may travel as *segments* under one tag
//! ([`send_stream_segments`]): [`segments`] decides how many from the
//! transport's cost model, frame `j` of `c` carries the stream's
//! `partition_range(N, c, j)`, and the receiver adds each segment into
//! its accumulator as it lands ([`SegmentSum`]), so the merge of one
//! overlaps the transfer of the next.

use std::borrow::Cow;
use std::ops::Range;

use bytes::Bytes;
use sparcml_net::{CostModel, Transport};
use sparcml_obs as obs;
use sparcml_stream::{
    partition_range, DensityPolicy, PartRange, RangeSum, Repr, Scalar, SparseStream, SparseView,
    StreamError, SumStats, WireFrame,
};

use crate::error::CollError;

/// Sub-operation identifiers composed into message tags.
pub(crate) mod subtag {
    pub const FOLD: u64 = 1;
    pub const UNFOLD: u64 = 2;
    pub const SPLIT: u64 = 3;
    /// `SSAR_Split_allgather`'s partition entry counts, one 8-byte word
    /// to every peer ahead of the allgather.
    pub const COUNT: u64 = 5;
    /// Base for per-round tags; round `t` uses `ROUND + t`.
    pub const ROUND: u64 = 16;
}

/// Composes a unique message tag from a collective op id and a sub-op:
/// sub-tag `sub` of the op's [`sparcml_net::TagBlock`]. Each collective
/// owns the 2^16-tag block of its op id, so concurrent collectives (e.g.
/// jobs kept in flight by a progress engine) can never mis-match frames.
#[inline]
pub(crate) fn tag(op_id: u64, sub: u64) -> u64 {
    sparcml_net::TagBlock::for_op(op_id).tag(sub)
}

/// Upper bound on buffers a pool retains; beyond this, released buffers
/// are simply dropped. One collective round holds at most a handful of
/// frames in flight, so a small cap bounds memory without hurting reuse.
const MAX_POOLED: usize = 16;

/// A pool of reusable encode/receive byte buffers.
///
/// Every collective routes the O(P) message frames of its schedule
/// through the pool its caller hands it, and the only caller is the
/// [`crate::Communicator`], which passes its *persistent session pool*,
/// so the steady state of a training loop allocates nothing per message:
/// buffers survive from one collective call to the next
/// (`CommStats::reuse_rate` approaches 1).
///
///
/// 1. [`BufferPool::acquire`] hands out a cleared `Vec<u8>` (retaining the
///    capacity of whatever frame previously used it);
/// 2. the frame is encoded into it and converted to [`Bytes`] for the
///    transport **without copying** (`Bytes::from(Vec<u8>)`);
/// 3. received frames are decoded and their allocation reclaimed via
///    [`BufferPool::recycle`] — `Vec::<u8>::from(Bytes)` hands the
///    allocation back when the receiver is the sole owner (the common
///    case for point-to-point frames) and copies otherwise.
#[derive(Debug, Default)]
pub struct BufferPool {
    free: Vec<Vec<u8>>,
    acquires: u64,
    reuses: u64,
}

impl BufferPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        BufferPool::default()
    }

    /// Hands out a cleared buffer, reusing a pooled allocation when one is
    /// available.
    pub fn acquire(&mut self) -> Vec<u8> {
        self.acquires += 1;
        match self.free.pop() {
            Some(mut buf) => {
                self.reuses += 1;
                buf.clear();
                buf
            }
            None => Vec::new(),
        }
    }

    /// Returns a buffer's allocation to the pool.
    pub fn release(&mut self, buf: Vec<u8>) {
        if self.free.len() < MAX_POOLED && buf.capacity() > 0 {
            self.free.push(buf);
        }
    }

    /// Reclaims a received frame's allocation for reuse. Zero-copy when
    /// this handle is the frame's sole owner, a copy otherwise (either
    /// way, subsequent [`BufferPool::acquire`] calls stop allocating).
    pub fn recycle(&mut self, payload: Bytes) {
        self.release(Vec::from(payload));
    }

    /// Fraction of acquires served from the pool (observability/tests).
    pub fn reuse_rate(&self) -> f64 {
        if self.acquires == 0 {
            0.0
        } else {
            self.reuses as f64 / self.acquires as f64
        }
    }

    /// Total buffer acquisitions so far.
    pub fn acquires(&self) -> u64 {
        self.acquires
    }

    /// Acquisitions that reused a pooled allocation.
    pub fn reuses(&self) -> u64 {
        self.reuses
    }
}

/// Encodes one frame into a pooled buffer and sends it, blocking (full α
/// charge) or non-blocking — the `encode-send` span and flow arrow every
/// stream frame shares.
fn send_encoded<T: Transport>(
    ep: &mut T,
    dst: usize,
    t: u64,
    blocking: bool,
    pool: &mut BufferPool,
    encode: impl FnOnce(&mut Vec<u8>),
) -> Result<(), CollError> {
    let mut span = obs::span(obs::Category::Phase, "encode-send");
    if obs::enabled() {
        span.set_flow(
            obs::flow_id(t, ep.rank() as u64, dst as u64),
            obs::FlowDir::Out,
        );
    }
    let mut buf = pool.acquire();
    encode(&mut buf);
    let payload = Bytes::from(buf);
    span.set_arg(payload.len() as u64);
    if blocking {
        ep.send(dst, t, payload)?;
    } else {
        ep.isend(dst, t, payload)?;
    }
    Ok(())
}

/// Receives one frame from `src` and decodes it, recycling the frame
/// buffer — the `recv-decode` counterpart of [`send_encoded`].
pub(crate) fn recv_decoded<T: Transport, R>(
    ep: &mut T,
    src: usize,
    t: u64,
    pool: &mut BufferPool,
    decode: impl FnOnce(&[u8]) -> Result<R, CollError>,
) -> Result<R, CollError> {
    let mut span = obs::span(obs::Category::Phase, "recv-decode");
    if obs::enabled() {
        span.set_flow(
            obs::flow_id(t, src as u64, ep.rank() as u64),
            obs::FlowDir::In,
        );
    }
    let payload = recv_tracked(ep, src, t)?;
    span.set_arg(payload.len() as u64);
    let decoded = decode(&payload)?;
    pool.recycle(payload);
    Ok(decoded)
}

/// Encodes `stream` into a pooled buffer and sends it, blocking (full α
/// charge) or non-blocking.
pub(crate) fn send_stream<T: Transport, V: Scalar>(
    ep: &mut T,
    dst: usize,
    t: u64,
    stream: &SparseStream<V>,
    blocking: bool,
    pool: &mut BufferPool,
) -> Result<(), CollError> {
    send_encoded(ep, dst, t, blocking, pool, |buf| stream.encode_into(buf))
}

/// Encodes the index range of `stream` straight onto the wire — for
/// sparse streams this borrows the slab sub-range with no intermediate
/// stream — and sends it, blocking (full α charge). The workhorse of the
/// split phases.
pub(crate) fn send_stream_range<T: Transport, V: Scalar>(
    ep: &mut T,
    dst: usize,
    t: u64,
    stream: &SparseStream<V>,
    range: sparcml_stream::PartRange,
    pool: &mut BufferPool,
) -> Result<(), CollError> {
    send_encoded(ep, dst, t, true, pool, |buf| match stream.sparse_view() {
        Some(view) => SparseStream::encode_sparse_slice_into(
            stream.dim(),
            view.range(range.lo, range.hi),
            buf,
        ),
        None => stream.restrict(range.lo, range.hi).encode_into(buf),
    })
}

/// Receives and decodes a stream from `src`, recycling the frame buffer.
pub(crate) fn recv_stream<T: Transport, V: Scalar>(
    ep: &mut T,
    src: usize,
    t: u64,
    pool: &mut BufferPool,
) -> Result<SparseStream<V>, CollError> {
    recv_decoded(ep, src, t, pool, |bytes| Ok(SparseStream::decode(bytes)?))
}

/// `ep.recv` with blocked-on-peer wait attribution: when telemetry is
/// enabled, the wall time spent inside the receive is charged to `src`
/// in this thread's collector (the raw signal behind straggler blame).
pub(crate) fn recv_tracked<T: Transport>(
    ep: &mut T,
    src: usize,
    t: u64,
) -> Result<Bytes, CollError> {
    if obs::telemetry::enabled() {
        let t0 = std::time::Instant::now();
        let payload = ep.recv(src, t)?;
        obs::telemetry::record_peer_wait(src, t0.elapsed().as_nanos() as u64);
        Ok(payload)
    } else {
        Ok(ep.recv(src, t)?)
    }
}

/// Sends a frame ending in one 8-byte control word, with `stream`
/// encoded ahead of it when attached — the carrier of what the sparse
/// recursive-doubling schedule agrees on in-collective (the agreement
/// word of the `Auto` pass). The word rides free on a data frame, which
/// goes out blocking; a detached frame is the bare 8 bytes and goes out
/// with `isend`, so its `α` overlaps whatever the sender does next (the
/// split-phase sends of a speculating rank) instead of being paid in
/// series.
pub(crate) fn send_stream_with_word<T: Transport, V: Scalar>(
    ep: &mut T,
    dst: usize,
    t: u64,
    stream: Option<&SparseStream<V>>,
    word: u64,
    pool: &mut BufferPool,
) -> Result<(), CollError> {
    send_encoded(ep, dst, t, stream.is_some(), pool, |buf| {
        // The word rides as a trailer: `encode_into` clears the buffer, so
        // a prefix would be wiped (and prepending after the encode would
        // shift the whole frame).
        if let Some(stream) = stream {
            stream.encode_into(buf);
        }
        buf.extend_from_slice(&word.to_le_bytes());
    })
}

/// Receives a [`send_stream_with_word`] frame: the stream (when one was
/// attached) and the control word. Both are peer-controlled bytes; what
/// the word means, and whether a stream had to be there, is the caller's
/// check.
pub(crate) fn recv_stream_with_word<T: Transport, V: Scalar>(
    ep: &mut T,
    src: usize,
    t: u64,
    pool: &mut BufferPool,
) -> Result<(Option<SparseStream<V>>, u64), CollError> {
    recv_decoded(ep, src, t, pool, decode_stream_with_word)
}

/// Splits a [`send_stream_with_word`] frame into its optional stream and
/// its trailing word.
pub(crate) fn decode_stream_with_word<V: Scalar>(
    frame: &[u8],
) -> Result<(Option<SparseStream<V>>, u64), CollError> {
    let Some(split) = frame.len().checked_sub(8) else {
        return Err(CollError::Invalid(format!(
            "frame of {} bytes is too short for its 8-byte control word",
            frame.len()
        )));
    };
    let word = u64::from_le_bytes(frame[split..].try_into().expect("checked length"));
    let stream = if split == 0 {
        None
    } else {
        Some(SparseStream::decode(&frame[..split])?)
    };
    Ok((stream, word))
}

/// Most segments one stream frame is split into.
pub(crate) const MAX_SEGMENTS: usize = 64;

/// How many segments a stream frame of `len` bytes travels as on a link
/// priced by `cost`: `c = ⌊√(β·L / (isend_alpha_fraction·α))⌋`, clamped
/// to `[1, MAX_SEGMENTS]` — the count that minimizes `β·L/c + c·φα`
/// (`φ` the isend fraction), the wait for the first segment plus the
/// sender's charge for `c` isends. It still pays off if every received
/// segment cost what a sent one does: the receiver's `c·φα` only doubles
/// the second term. `c = 1` is one whole frame, sent blocking. The one
/// place the count is decided: the schedule and the selector both call it.
pub(crate) fn segments(cost: &CostModel, len: usize) -> usize {
    let transfer = cost.beta * len as f64;
    let per_frame = cost.isend_alpha_fraction * cost.alpha;
    if transfer <= 0.0 {
        return 1;
    }
    let c = if per_frame > 0.0 {
        (transfer / per_frame).sqrt().floor()
    } else {
        f64::INFINITY
    };
    c.clamp(1.0, MAX_SEGMENTS as f64) as usize
}

/// Sends `stream` to `dst` under tag `t` as `c` frames, frame `j`
/// encoding the stream's `partition_range(N, c, j)` — the sparse entries
/// of that range as an `N`-dim frame, or a dense stream's values there as
/// a dense frame of the range's length — with `trailer` after frame 0.
/// `c = 1` is the whole stream and the trailer in one blocking frame; more
/// segments go out with `isend`, so the sender pays `c` fractions of `α`
/// and the link carries them back to back.
pub(crate) fn send_stream_segments<T: Transport, V: Scalar>(
    ep: &mut T,
    dst: usize,
    t: u64,
    stream: &SparseStream<V>,
    c: usize,
    trailer: &[u8],
    pool: &mut BufferPool,
) -> Result<(), CollError> {
    for j in 0..c {
        let range = partition_range(stream.dim(), c, j);
        send_encoded(ep, dst, t, c == 1, pool, |buf| {
            encode_segment(stream, range, buf);
            if j == 0 {
                buf.extend_from_slice(trailer);
            }
        })?;
    }
    Ok(())
}

/// Encodes the segment of `stream` covering `range` into `buf`: the
/// sparse entries there as a frame of the stream's dimension, or a dense
/// stream's values there as a dense frame of the range's length.
pub(crate) fn encode_segment<V: Scalar>(
    stream: &SparseStream<V>,
    range: PartRange,
    buf: &mut Vec<u8>,
) {
    match stream.repr() {
        Repr::Sparse(sv) => SparseStream::encode_sparse_slice_into(
            stream.dim(),
            sv.as_view().range(range.lo, range.hi),
            buf,
        ),
        Repr::Dense(values) => SparseStream::encode_dense_slice_into(
            &values[range.lo as usize..range.hi as usize],
            buf,
        ),
    }
}

/// One received segment of a [`send_stream_segments`] stream, decoded
/// into slabs that are reused from one segment to the next.
#[derive(Debug, Default)]
pub(crate) struct Segment<V> {
    dense: bool,
    indices: Vec<u32>,
    values: Vec<V>,
}

impl<V: Scalar> Segment<V> {
    /// Decodes the frame of the segment covering `range` of a `dim`-dim
    /// stream (peer-controlled bytes): a sparse frame must be `dim`-dim
    /// with every index inside `range`, a dense one must hold exactly the
    /// range's values. Anything else is [`CollError::Invalid`].
    pub(crate) fn read(
        &mut self,
        bytes: &[u8],
        dim: usize,
        range: PartRange,
    ) -> Result<(), CollError> {
        let frame = WireFrame::<V>::parse(bytes)?;
        self.dense = frame.is_dense();
        let expected = if self.dense { range.len() } else { dim };
        if frame.dim() != expected {
            return Err(CollError::Invalid(format!(
                "frame carries a {}-dim {} stream where the {dim}-dim collective's \
                 segment [{}, {}) needs {expected}",
                frame.dim(),
                if self.dense { "dense" } else { "sparse" },
                range.lo,
                range.hi
            )));
        }
        self.values.resize(frame.stored_len(), V::zero());
        if self.dense {
            self.indices.clear();
            frame.read_dense_into(&mut self.values)?;
            return Ok(());
        }
        self.indices.resize(frame.stored_len(), 0);
        frame.read_sparse_into(&mut self.indices, &mut self.values)?;
        match (self.indices.first(), self.indices.last()) {
            (Some(&first), Some(&last)) if first < range.lo || last >= range.hi => {
                Err(CollError::Invalid(format!(
                    "segment [{}, {}) carries indices {first}..={last}",
                    range.lo, range.hi
                )))
            }
            _ => Ok(()),
        }
    }

    /// Whether the segment carries dense values.
    pub(crate) fn is_dense(&self) -> bool {
        self.dense
    }

    /// Stored entries: pairs when sparse, values when dense.
    pub(crate) fn stored_len(&self) -> usize {
        self.values.len()
    }

    fn view(&self) -> SparseView<'_, V> {
        SparseView::new(&self.indices, &self.values)
    }

    /// Encodes the segment as [`encode_segment`] does, for a `dim`-dim
    /// stream: a frame that [`Segment::read`] accepted comes out byte for
    /// byte.
    #[cfg(test)]
    pub(crate) fn encode_into(&self, dim: usize, buf: &mut Vec<u8>) {
        if self.dense {
            SparseStream::encode_dense_slice_into(&self.values, buf);
        } else {
            SparseStream::encode_sparse_slice_into(dim, self.view(), buf);
        }
    }
}

/// A partner's stream added into this rank's accumulator one segment at a
/// time, in segment order: the segment protocol's checks around a
/// [`RangeSum`], so the result is the same to the bit as one
/// `add_assign_with` of the whole stream, and every segment is charged
/// what that sum charges for its range.
pub(crate) struct SegmentSum<'a, V: Scalar> {
    dim: usize,
    segments: usize,
    /// The segment [`SegmentSum::add`] takes next.
    next: usize,
    /// The stored entries the partner announced, and those received.
    total: usize,
    received: usize,
    /// Whether the partner's stream is dense (segment 0 says).
    dense: bool,
    sum: RangeSum<'a, V>,
}

impl<'a, V: Scalar> SegmentSum<'a, V> {
    /// Starts adding a stream of `total` stored entries that arrives as
    /// `segments` segments, dense or sparse as `dense`, into `acc`.
    pub(crate) fn new(
        acc: Cow<'a, SparseStream<V>>,
        segments: usize,
        total: usize,
        dense: bool,
        policy: &DensityPolicy,
    ) -> Self {
        SegmentSum {
            dim: acc.dim(),
            segments,
            next: 0,
            total,
            received: 0,
            dense,
            sum: RangeSum::new(acc, total, dense, policy),
        }
    }

    /// The index range the next segment covers.
    pub(crate) fn range(&self) -> PartRange {
        partition_range(self.dim, self.segments, self.next)
    }

    /// Adds the next segment (decoded by [`Segment::read`] against
    /// [`SegmentSum::range`]) and reports the step's work.
    pub(crate) fn add(&mut self, seg: &Segment<V>) -> Result<SumStats, CollError> {
        let j = self.next;
        if j == self.segments {
            return Err(CollError::Invalid(format!(
                "a segment past the {} announced",
                self.segments
            )));
        }
        if seg.dense != self.dense {
            return Err(CollError::Invalid(format!(
                "segment {j} is {} but segment 0 was not",
                if seg.dense { "dense" } else { "sparse" }
            )));
        }
        self.received += seg.stored_len();
        if self.received > self.total {
            return Err(CollError::Invalid(format!(
                "segments 0..={j} hold {} entries, more than the {} announced",
                self.received, self.total
            )));
        }
        let range = self.range();
        self.next += 1;
        Ok(if seg.dense {
            self.sum.add_dense(range, &seg.values)
        } else {
            self.sum.add_sparse(range, seg.view())
        })
    }

    /// The sum, once every segment is in; the segments must have held
    /// exactly the total the partner announced.
    pub(crate) fn finish(self) -> Result<SparseStream<V>, CollError> {
        if self.next != self.segments || self.received != self.total {
            return Err(CollError::Invalid(format!(
                "segments hold {} entries, not the {} announced",
                self.received, self.total
            )));
        }
        Ok(self.sum.finish())
    }
}

/// Adds the stream `src` sends under `t` as `segments` segments into
/// `acc`: `first` is segment 0, already received with the frame that
/// announced the layout; each later one is received, decoded and added
/// before the next, so on the virtual clock its merge overlaps the
/// transfer of those behind it. A borrowed `acc` is read, not copied, and
/// comes back owned: the sum.
#[allow(clippy::too_many_arguments)]
pub(crate) fn add_segments<T: Transport, V: Scalar>(
    ep: &mut T,
    src: usize,
    t: u64,
    acc: &mut Cow<'_, SparseStream<V>>,
    mut seg: Segment<V>,
    segments: usize,
    total: usize,
    policy: &DensityPolicy,
    pool: &mut BufferPool,
) -> Result<(), CollError> {
    let dim = acc.dim();
    let taken = std::mem::replace(acc, Cow::Owned(SparseStream::zeros(dim)));
    let mut sum = SegmentSum::new(taken, segments, total, seg.is_dense(), policy);
    for j in 0..segments {
        if j > 0 {
            let range = sum.range();
            recv_decoded(ep, src, t, pool, |bytes| seg.read(bytes, dim, range))?;
        }
        sum_charged(ep, || sum.add(&seg).map(|stats| ((), stats)))?;
    }
    *acc = Cow::Owned(sum.finish()?);
    Ok(())
}

/// Runs one summation step and charges the endpoint for it: the `merge`
/// span, telemetry compute time, `γ` per element the step processed, and
/// the δ-switch count (`CommStats::adaptive_densified`) when the step is
/// the one that turned its accumulator dense.
pub(crate) fn sum_charged<T: Transport, R, E>(
    ep: &mut T,
    step: impl FnOnce() -> Result<(R, SumStats), E>,
) -> Result<R, CollError>
where
    CollError: From<E>,
{
    let mut span = obs::span(obs::Category::Phase, "merge");
    let t0 = obs::telemetry::enabled().then(std::time::Instant::now);
    let (out, stats) = step()?;
    if let Some(t0) = t0 {
        obs::telemetry::record_compute_ns(t0.elapsed().as_nanos() as u64);
    }
    span.set_arg(stats.elements_processed as u64);
    ep.compute(stats.elements_processed);
    if stats.switched_to_dense {
        ep.stats_mut().adaptive_densified += 1;
    }
    Ok(out)
}

/// Adds `other` into `acc` as one [`sum_charged`] step.
pub(crate) fn add_charged<T: Transport, V: Scalar>(
    ep: &mut T,
    acc: &mut SparseStream<V>,
    other: &SparseStream<V>,
    policy: &DensityPolicy,
) -> Result<(), CollError> {
    sum_charged(ep, || {
        Ok::<_, StreamError>(((), acc.add_assign_with(other, policy)?))
    })
}

/// Largest power of two `≤ p`.
#[inline]
pub(crate) fn pow2_below(p: usize) -> usize {
    assert!(p > 0);
    1usize << (usize::BITS - 1 - p.leading_zeros())
}

/// Outcome of the §A pre-step that reduces participation to a power of two.
pub(crate) enum FoldRole<V: Scalar> {
    /// This rank participates in the power-of-two core with the folded
    /// input.
    Active(SparseStream<V>),
    /// This rank parked its data with its fold partner and waits for the
    /// result.
    Parked,
}

/// Pre-step: ranks `>= p2` send their input to `rank - p2`; receivers fold
/// it into their own, which becomes their accumulator with no copy.
/// Returns each rank's role.
pub(crate) fn fold_to_pow2<T: Transport, V: Scalar>(
    ep: &mut T,
    op_id: u64,
    input: SparseStream<V>,
    policy: &DensityPolicy,
    pool: &mut BufferPool,
) -> Result<FoldRole<V>, CollError> {
    let p = ep.size();
    let p2 = pow2_below(p);
    let rank = ep.rank();
    if rank >= p2 {
        let partner = rank - p2;
        send_stream(ep, partner, tag(op_id, subtag::FOLD), &input, true, pool)?;
        return Ok(FoldRole::Parked);
    }
    let mut acc = input;
    if rank + p2 < p {
        let extra = recv_stream::<_, V>(ep, rank + p2, tag(op_id, subtag::FOLD), pool)?;
        add_charged(ep, &mut acc, &extra, policy)?;
    }
    Ok(FoldRole::Active(acc))
}

/// Post-step: active ranks with a parked partner forward the final result;
/// parked ranks receive it.
pub(crate) fn unfold_result<T: Transport, V: Scalar>(
    ep: &mut T,
    op_id: u64,
    role_result: Option<SparseStream<V>>,
    pool: &mut BufferPool,
) -> Result<SparseStream<V>, CollError> {
    let p = ep.size();
    let p2 = pow2_below(p);
    let rank = ep.rank();
    match role_result {
        Some(result) => {
            if rank + p2 < p {
                send_stream(
                    ep,
                    rank + p2,
                    tag(op_id, subtag::UNFOLD),
                    &result,
                    true,
                    pool,
                )?;
            }
            Ok(result)
        }
        None => recv_stream(ep, rank - p2, tag(op_id, subtag::UNFOLD), pool),
    }
}

/// Byte-block allgather that hands every block to `place` while the next
/// round's frame is in flight — the crate's one allgather loop. Recursive
/// doubling when `P` is a power of two (latency `log2(P)·α`), a ring
/// otherwise (`(P−1)` rounds).
///
/// Each block reaches `place(ep, source rank, block)` exactly once, one
/// round late: the own block after round 0's frame is sent, the blocks of
/// round `t` after round `t + 1`'s frame is sent, the last round's after
/// the final receive. Whatever `place` does and charges in between
/// therefore overlaps the transfer of the frame it is waiting for, so a
/// round costs `α + max(transfer, placement pending)` on the virtual clock
/// instead of their sum. Group frames are staged in pooled buffers;
/// incoming blocks are zero-copy slices of the received frame, and a frame
/// must carry exactly the group its sender owes this round.
pub(crate) fn allgather_bytes_with<T: Transport>(
    ep: &mut T,
    op_id: u64,
    mine: Bytes,
    pool: &mut BufferPool,
    mut place: impl FnMut(&mut T, usize, &Bytes) -> Result<(), CollError>,
) -> Result<(), CollError> {
    let (p, rank) = (ep.size(), ep.rank());
    let mut blocks: Vec<Option<Bytes>> = vec![None; p];
    blocks[rank] = Some(mine);
    let pow2 = p.is_power_of_two();
    let rounds = if pow2 {
        p.trailing_zeros() as usize
    } else {
        p - 1
    };
    // Ranks whose blocks this rank holds but has not placed yet.
    let mut pending = rank..rank + 1;
    for t in 0..rounds {
        // (to, from, group sent, group expected back) for this round.
        let (dst, src, sent, expected) = if pow2 {
            // Recursive doubling: after round t every rank holds the
            // blocks of the 2^(t+1)-rank group obtained by flipping its
            // low t+1 bits.
            let peer = rank ^ (1 << t);
            let (ours, theirs) = ((rank >> t) << t, (peer >> t) << t);
            (peer, peer, ours..ours + (1 << t), theirs..theirs + (1 << t))
        } else {
            // Ring: forward the block received in the previous round.
            let carry = (rank + p - t) % p;
            let theirs = (carry + p - 1) % p;
            (
                (rank + 1) % p,
                (rank + p - 1) % p,
                carry..carry + 1,
                theirs..theirs + 1,
            )
        };
        let round_tag = tag(op_id, subtag::ROUND + t as u64);
        let payload = encode_block_group(&blocks, sent, pool);
        {
            let mut span =
                obs::span_with(obs::Category::Agreement, "ag-send", payload.len() as u64);
            if obs::enabled() {
                span.set_flow(
                    obs::flow_id(round_tag, rank as u64, dst as u64),
                    obs::FlowDir::Out,
                );
            }
            ep.send(dst, round_tag, payload)?;
        }
        place_blocks(ep, &blocks, pending, &mut place)?;
        let mut span = obs::span(obs::Category::Agreement, "ag-recv");
        if obs::enabled() {
            span.set_flow(
                obs::flow_id(round_tag, src as u64, rank as u64),
                obs::FlowDir::In,
            );
        }
        let incoming = recv_tracked(ep, src, round_tag)?;
        span.set_arg(incoming.len() as u64);
        drop(span);
        decode_block_group(&incoming, expected.clone(), &mut blocks)?;
        pending = expected;
    }
    place_blocks(ep, &blocks, pending, &mut place)
}

/// Hands the held blocks of `ranks` to `place`.
fn place_blocks<T: Transport>(
    ep: &mut T,
    blocks: &[Option<Bytes>],
    ranks: Range<usize>,
    place: &mut impl FnMut(&mut T, usize, &Bytes) -> Result<(), CollError>,
) -> Result<(), CollError> {
    for r in ranks {
        place(ep, r, blocks[r].as_ref().expect("a pending block is held"))?;
    }
    Ok(())
}

/// [`allgather_bytes_with`] collecting the blocks: all `P` of them,
/// indexed by rank.
pub(crate) fn allgather_bytes<T: Transport>(
    ep: &mut T,
    op_id: u64,
    mine: Bytes,
    pool: &mut BufferPool,
) -> Result<Vec<Bytes>, CollError> {
    let mut blocks = vec![Bytes::new(); ep.size()];
    allgather_bytes_with(ep, op_id, mine, pool, |_, r, block| {
        blocks[r] = block.clone();
        Ok(())
    })?;
    Ok(blocks)
}

/// Encodes the blocks of the consecutive ranks `group` as
/// `[u32 base][u32 count]([u64 len][bytes])*` into a pooled buffer.
fn encode_block_group(
    blocks: &[Option<Bytes>],
    group: Range<usize>,
    pool: &mut BufferPool,
) -> Bytes {
    let (base, count) = (group.start, group.len());
    let group = &blocks[group];
    let mut size = 8;
    for b in group {
        size += 8 + b.as_ref().map_or(0, |b| b.len());
    }
    let mut buf = pool.acquire();
    buf.reserve(size);
    buf.extend_from_slice(&(base as u32).to_le_bytes());
    buf.extend_from_slice(&(count as u32).to_le_bytes());
    for b in group {
        let b = b.as_ref().expect("group block present");
        buf.extend_from_slice(&(b.len() as u64).to_le_bytes());
        buf.extend_from_slice(b);
    }
    Bytes::from(buf)
}

/// Inverse of [`encode_block_group`] for the group `expected` — the one
/// the sender owes this round, so a frame claiming any other base or count
/// (this rank's own blocks included) is rejected before a block is read.
/// Installs the blocks into `blocks` as zero-copy slices of the frame,
/// which must hold nothing else.
fn decode_block_group(
    payload: &Bytes,
    expected: Range<usize>,
    blocks: &mut [Option<Bytes>],
) -> Result<(), CollError> {
    use bytes::Buf;
    let mut buf: &[u8] = payload;
    if buf.remaining() < 8 {
        return Err(CollError::Invalid("block group header truncated".into()));
    }
    let base = buf.get_u32_le() as usize;
    let count = buf.get_u32_le() as usize;
    if (base, count) != (expected.start, expected.len()) {
        return Err(CollError::Invalid(format!(
            "block group of ranks {base}+{count}, expected {}+{}",
            expected.start,
            expected.len()
        )));
    }
    for r in expected {
        if buf.remaining() < 8 {
            return Err(CollError::Invalid("block group body truncated".into()));
        }
        let len = buf.get_u64_le();
        if (buf.remaining() as u64) < len {
            return Err(CollError::Invalid("block payload truncated".into()));
        }
        // Current position within the frame, derived from the one cursor.
        let offset = payload.len() - buf.remaining();
        let len = len as usize;
        blocks[r] = Some(payload.slice(offset..offset + len));
        buf.advance(len);
    }
    if buf.remaining() > 0 {
        return Err(CollError::Invalid(
            "trailing bytes after block group".into(),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparcml_net::{run_cluster, CostModel};

    #[test]
    fn pow2_below_values() {
        assert_eq!(pow2_below(1), 1);
        assert_eq!(pow2_below(2), 2);
        assert_eq!(pow2_below(3), 2);
        assert_eq!(pow2_below(12), 8);
        assert_eq!(pow2_below(16), 16);
    }

    #[test]
    fn buffer_pool_reuses_capacity() {
        let mut pool = BufferPool::new();
        let mut buf = pool.acquire();
        buf.extend_from_slice(&[0u8; 4096]);
        let ptr = buf.as_ptr();
        pool.release(buf);
        let buf = pool.acquire();
        assert!(buf.is_empty());
        assert_eq!(buf.as_ptr(), ptr, "same allocation handed back");
        assert!(pool.reuse_rate() > 0.0);
    }

    #[test]
    fn buffer_pool_recycles_unique_bytes_without_copy() {
        let mut pool = BufferPool::new();
        let mut buf = pool.acquire();
        buf.extend_from_slice(&[7u8; 1024]);
        let ptr = buf.as_ptr();
        let payload = Bytes::from(buf);
        // Receiver-side: sole owner of the frame.
        pool.recycle(payload);
        let back = pool.acquire();
        assert_eq!(back.as_ptr(), ptr, "frame allocation reclaimed");
    }

    #[test]
    fn buffer_pool_bounds_retained_buffers() {
        let mut pool = BufferPool::new();
        for _ in 0..100 {
            pool.release(vec![0u8; 16]);
        }
        assert!(pool.free.len() <= MAX_POOLED);
    }

    #[test]
    fn allgather_bytes_power_of_two() {
        let out = run_cluster(8, CostModel::zero(), |ep| {
            let op = ep.next_op_id();
            let mut pool = BufferPool::new();
            let mine = Bytes::from(vec![ep.rank() as u8; ep.rank() + 1]);
            allgather_bytes(ep, op, mine, &mut pool).unwrap()
        });
        for blocks in &out {
            for (r, b) in blocks.iter().enumerate() {
                assert_eq!(b.len(), r + 1);
                assert!(b.iter().all(|&x| x as usize == r));
            }
        }
    }

    #[test]
    fn allgather_bytes_ring_fallback() {
        let out = run_cluster(6, CostModel::zero(), |ep| {
            let op = ep.next_op_id();
            let mut pool = BufferPool::new();
            let mine = Bytes::from(vec![ep.rank() as u8; 3]);
            allgather_bytes(ep, op, mine, &mut pool).unwrap()
        });
        for blocks in &out {
            for (r, b) in blocks.iter().enumerate() {
                assert!(b.iter().all(|&x| x as usize == r));
            }
        }
    }

    #[test]
    fn placement_runs_one_round_behind_the_frames() {
        // α = 1, β = 1 per byte, γ = 1 per element; every block is 10
        // bytes and `place` charges 10 elements. Each block is placed
        // once, the own one first, and a round costs α + max(transfer,
        // pending placement) instead of their sum.
        let cost = CostModel {
            alpha: 1.0,
            beta: 1.0,
            gamma: 1.0,
            isend_alpha_fraction: 0.0,
        };
        for (p, expect) in [
            // Rounds of 1, 2 and 4 blocks (+ 8 + 8 header bytes each):
            // 1 + max(26, 10), 1 + max(44, 10), 1 + max(80, 20), then 40.
            (8usize, 27.0 + 45.0 + 81.0 + 40.0),
            // Five ring rounds of 1 + max(26, 10), then 10.
            (6, 5.0 * 27.0 + 10.0),
        ] {
            let out = run_cluster(p, cost, |ep| {
                let op = ep.next_op_id();
                let mine = Bytes::from(vec![ep.rank() as u8; 10]);
                let mut order = Vec::new();
                allgather_bytes_with(ep, op, mine, &mut BufferPool::new(), |ep, r, block| {
                    assert!(block.iter().all(|&x| x as usize == r));
                    ep.compute(block.len());
                    order.push(r);
                    Ok(())
                })
                .unwrap();
                (order, ep.clock())
            });
            for (rank, (order, clock)) in out.into_iter().enumerate() {
                assert_eq!(order[0], rank, "P={p}");
                let mut seen = order.clone();
                seen.sort();
                assert_eq!(seen, (0..p).collect::<Vec<_>>(), "P={p}");
                assert!((clock - expect).abs() < 1e-9, "P={p}: {clock} vs {expect}");
            }
        }
    }

    #[test]
    fn a_block_group_must_be_the_one_its_sender_owes() {
        let mut blocks: Vec<Option<Bytes>> = vec![None; 8];
        let group = |base: u32, count: u32, body: &[u8]| {
            let mut frame = base.to_le_bytes().to_vec();
            frame.extend_from_slice(&count.to_le_bytes());
            frame.extend_from_slice(body);
            Bytes::from(frame)
        };
        // Ranks 4..6, blocks [7] and [].
        let body = [1u64.to_le_bytes().as_slice(), &[7], &0u64.to_le_bytes()].concat();
        decode_block_group(&group(4, 2, &body), 4..6, &mut blocks).unwrap();
        assert_eq!(blocks[4].as_deref(), Some(&[7u8][..]));
        assert_eq!(blocks[5].as_deref(), Some(&[][..]));
        for (what, frame) in [
            ("another base", group(0, 2, &body)),
            ("the receiver's own group", group(6, 2, &body)),
            ("one block short", group(4, 1, &body[..9])),
            ("a base past the ranks", group(u32::MAX, 2, &body)),
            ("a trailing byte", group(4, 2, &[&body[..], &[0]].concat())),
            (
                "a block longer than the frame",
                group(4, 2, &body[..body.len() - 1]),
            ),
            ("a header cut short", Bytes::from(vec![4u8, 0, 0])),
        ] {
            match decode_block_group(&frame, 4..6, &mut blocks) {
                Err(CollError::Invalid(_)) => {}
                other => panic!("{what}: {other:?}"),
            }
        }
    }

    #[test]
    fn fold_unfold_round_trip() {
        // P = 6: ranks 4,5 park with ranks 0,1.
        let out = run_cluster(6, CostModel::zero(), |ep| {
            let op = ep.next_op_id();
            let input = SparseStream::from_pairs(64, &[(ep.rank() as u32, 1.0f32)]).unwrap();
            let policy = DensityPolicy::default();
            let mut pool = BufferPool::new();
            let role = fold_to_pow2(ep, op, input, &policy, &mut pool).unwrap();

            match role {
                FoldRole::Active(acc) => unfold_result(ep, op, Some(acc), &mut pool).unwrap(),
                FoldRole::Parked => unfold_result::<_, f32>(ep, op, None, &mut pool).unwrap(),
            }
        });
        // Rank 0 folded rank 4's entry, rank 1 folded rank 5's.
        assert_eq!(out[0].nnz(), 2);
        assert_eq!(out[1].nnz(), 2);
        assert_eq!(out[2].nnz(), 1);
        // Parked ranks receive their partner's fold result.
        assert_eq!(out[4], out[0]);
        assert_eq!(out[5], out[1]);
    }

    #[test]
    fn send_range_matches_restrict_for_both_reprs() {
        let out = run_cluster(2, CostModel::zero(), |ep| {
            let mut pool = BufferPool::new();
            let sparse =
                SparseStream::from_pairs(64, &[(2, 1.0f32), (10, 2.0), (40, 3.0)]).unwrap();
            let mut dense = sparse.clone();
            dense.densify();
            let window = sparcml_stream::PartRange { lo: 5, hi: 41 };
            if ep.rank() == 0 {
                send_stream_range(ep, 1, 1, &sparse, window, &mut pool).unwrap();
                send_stream_range(ep, 1, 2, &dense, window, &mut pool).unwrap();
                None
            } else {
                let a = recv_stream::<_, f32>(ep, 0, 1, &mut pool).unwrap();
                let b = recv_stream::<_, f32>(ep, 0, 2, &mut pool).unwrap();
                Some((a, b))
            }
        });
        let (a, b) = out[1].clone().unwrap();
        let expect = SparseStream::from_pairs(64, &[(10, 2.0f32), (40, 3.0)]).unwrap();
        assert_eq!(a, expect);
        assert_eq!(b, expect);
    }
}
