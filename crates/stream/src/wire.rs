//! Wire encoding of sparse streams — frame layout **v6** (Elias–Fano
//! index).
//!
//! Layout (all little-endian):
//!
//! ```text
//! [0]        magic 0xSC (0xC5)
//! [1]        format version (6)
//! [2]        value width in bytes (4 = f32, 8 = f64)
//! [3]        representation tag: 1 = dense, 2 = sparse
//! [4..12]    dim  (u64)
//! [12..20]   nnz  (u64, sparse only; dense payload length is dim)
//! payload    tag 1: dim × value slab
//!            tag 2: nnz × value slab, then L (u8) and base (u32), then
//!                   ⌈nnz·L / 8⌉ bytes of low bits, then the upper
//!                   bitvector to the end of the frame; nothing at all
//!                   when nnz = 0
//! ```
//!
//! A sparse frame's index is Elias–Fano (Elias, JACM 1974; Vigna,
//! "Quasi-succinct indices", WSDM 2013). It codes the `n` indices from
//! `base`, the first, as `x_i = index_i − base − i`, which never decreases;
//! an index is then `base + x_i + i`, strictly increasing by construction.
//! The low `L` bits of every `x_i` are packed little-endian, entry `i` at
//! bit `i·L`; the upper bitvector sets bit `(x_i >> L) + i` for each entry
//! and ends with the byte of the last one, so a trailer a schedule appends
//! after the frame still splits off as `frame[..len − trailer]`. An entry
//! costs `L + 1` bits and one per `2^L` its `x` grows: `⌊log2(U/n)⌋ + ≤ 2`
//! bits over `U` slots. `L` is the smaller-sized of `⌊log2((x_last + 1) /
//! n)⌋` and one more, ties to the lower. At `L = 0` the upper bitvector is
//! a bitmap of the slots from the first index to the last.
//!
//! The index's length follows from `(n, first, last)` alone, so
//! [`SparseStream::encoded_len`] is exact without a pass over the entries.
//! [`expected_entry_bytes`] is the price of an entry as a function of
//! density. The in-memory layout is untouched (`Vec<u32>` ∥ `Vec<V>`), and
//! so is δ — see [`crate::DensityPolicy`].
//!
//! The value slab stays one contiguous little-endian block (a `memcpy` on
//! little-endian targets). The representation tag is the paper's "extra
//! value at the beginning of each vector that indicates whether the vector
//! is dense or sparse" (§5.1).
//!
//! Decoding never trusts the peer. Every declared count is checked against
//! the bytes that remain before anything is allocated. An Elias–Fano index
//! must have `L ≤ 31`, zero padding after its low bits, exactly `n` ones in
//! its upper bitvector with the last in its final byte, a first entry at
//! its base, `x` that never decrease and a last index below `dim`; a frame
//! of no entries holds nothing past its header. Each support then has one
//! encoding: a frame with an `L` the encoder would not have picked is
//! rejected too. Every failure is a typed [`StreamError`]. Tag 0, v5's
//! gap-coded index, is an unknown tag; a frame of any other version — v5
//! and v4, whose tag 2 was a bitmap index, included — is a
//! [`StreamError::VersionMismatch`].

use std::marker::PhantomData;

use bytes::{Buf, Bytes};

use crate::error::StreamError;
use crate::scalar::Scalar;
use crate::soa::{SparseVec, SparseView};
use crate::stream::{Repr, SparseStream};

const MAGIC: u8 = 0xC5;
/// Current wire format version (Elias–Fano index).
pub const WIRE_VERSION: u8 = 6;
const TAG_DENSE: u8 = 1;
const TAG_ELIAS_FANO: u8 = 2;

const HEADER_LEN: usize = 12;
const SPARSE_HEADER_LEN: usize = 20;

/// Bytes of a frame's header: a dense frame's, or a sparse frame's with
/// its stored count — what a frame costs on top of its entries.
pub fn header_len(dense: bool) -> usize {
    if dense {
        HEADER_LEN
    } else {
        SPARSE_HEADER_LEN
    }
}

/// The sparsest density a `u32` index space holds: one entry in `2^32`.
const SPARSEST: f64 = 1.0 / 4_294_967_296.0;

/// Expected wire bytes of one sparse entry — its value plus its share of
/// an Elias–Fano index — in a stream whose support is uniform with the
/// given `density` (`nnz / dim`). An entry's `x` grows by `g = 1/d − 1` on
/// average, so it costs `L + 1 + g / 2^L` bits, `L` the smaller-sized of
/// `⌊log2 g⌋` and one more; at full density that is the one bit of a
/// bitmap. A density below `2^-32` prices as `2^-32`, so the price stays
/// finite at 0, where no entry pays it. This is what the cost model prices
/// a pair at; the exact size of a given stream is
/// [`SparseStream::encoded_len`].
pub fn expected_entry_bytes(value_bytes: usize, density: f64) -> f64 {
    let g = 1.0 / density.clamp(SPARSEST, 1.0) - 1.0;
    let l = g.max(1.0).log2().floor().min(30.0);
    let ef_bits = |l: f64| l + 1.0 + g / l.exp2();
    value_bytes as f64 + ef_bits(l).min(ef_bits(l + 1.0)) / 8.0
}

/// Bytes ahead of an Elias–Fano index's bits: `L`, then the base.
const EF_HEAD_LEN: usize = 5;
/// Most low bits an entry takes: past one entry `(x_last + 1) / n < 2^31`.
const MAX_LOW_BITS: u32 = 31;

/// `x_last` of `n` strictly increasing indices from `first` to `last`.
#[inline]
fn ef_top(n: usize, first: u32, last: u32) -> u64 {
    u64::from(last - first) + 1 - n as u64
}

/// Bytes of the low bits and of the upper bitvector of `n` entries of `l`
/// low bits whose last `x` is `top`.
#[inline]
fn ef_parts(n: usize, top: u64, l: u32) -> (usize, usize) {
    let upper = (top >> l) as usize + n;
    ((n * l as usize).div_ceil(8), upper.div_ceil(8))
}

/// The Elias–Fano index of `n ≥ 1` strictly increasing indices from
/// `first` to `last`: its canonical `L` and its length in bytes. The
/// encoder's choice, the decoder's check and [`SparseStream::encoded_len`].
pub(crate) fn pick_index(n: usize, first: u32, last: u32) -> (u32, usize) {
    let top = ef_top(n, first, last);
    let size = |l| {
        let (low, upper) = ef_parts(n, top, l);
        EF_HEAD_LEN + low + upper
    };
    let l = ((top + 1) / n as u64).checked_ilog2().unwrap_or(0);
    let l = l + u32::from(size(l + 1) < size(l));
    (l, size(l))
}

/// Appends to a sparse frame, header and values written, the Elias–Fano
/// index of `n` indices from `first` to `last`, `l` low bits each. `fill`
/// writes into zeroed low bits with 8 bytes to spare and whole
/// little-endian upper words (bit `p` is bit `p % 64` of word `p / 64`),
/// whose bytes up to the last one then move down.
pub(crate) fn put_ef_index(
    out: &mut Vec<u8>,
    (n, first, last): (usize, u32, u32),
    l: u32,
    fill: impl FnOnce((&mut [u8], &mut [u8])),
) {
    let (low, upper) = ef_parts(n, ef_top(n, first, last), l);
    // Exactly: a pooled buffer keeps what it grew to.
    out.reserve_exact(EF_HEAD_LEN + low + 8 + 8 * upper.div_ceil(8));
    out.push(l as u8);
    out.extend_from_slice(&first.to_le_bytes());
    let at = out.len();
    out.resize(at + low + 8 + 8 * upper.div_ceil(8), 0);
    fill(out[at..].split_at_mut(low + 8));
    out.copy_within(at + low + 8..at + low + 8 + upper, at + low);
    out.truncate(at + low + upper);
}

/// The low byte of each 16-bit lane of a word, and the low half of each
/// 32-bit lane.
const BYTES16: u64 = 0x00FF_00FF_00FF_00FF;
const HALVES32: u64 = 0x0000_FFFF_0000_FFFF;

/// The 8 entries of `l ≤ 8` bits in the byte lanes of `x`, packed into
/// the bottom of a word: pairs, then quads, then all eight.
#[inline]
fn pack8(x: u64, l: u32) -> u64 {
    let y = (x & BYTES16) | ((x >> 8) & BYTES16) << l;
    let z = (y & HALVES32) | ((y >> 16) & HALVES32) << (2 * l);
    (z & 0xFFFF_FFFF) | (z >> 32) << (4 * l)
}

/// [`pack8`] undone: halves, then quarters, then eighths.
#[inline]
fn unpack8(w: u64, l: u32) -> [u8; 8] {
    let ones = |bits: u32| (1u64 << bits) - 1;
    let z = (w & ones(4 * l)) | (w >> (4 * l) & ones(4 * l)) << 32;
    let (halves, eighths) = (ones(2 * l) * 0x1_0000_0001, ones(l) * 0x1_0001_0001_0001);
    let y = (z & halves) | ((z >> (2 * l)) & halves) << 16;
    ((y & eighths) | ((y >> l) & eighths) << 8).to_le_bytes()
}

/// Entries the Elias–Fano writer takes at a time.
pub(crate) const EF_BLOCK: usize = 256;

/// Fills [`put_ef_index`]'s regions with the bits of the strictly
/// increasing indices from `first` that `blocks` hands its sink, all but
/// the last [`EF_BLOCK`] long. Up to 8 low bits, 8 entries' are `L` bytes
/// built as one word the next 8 overwrite past their own; wider ones are
/// packed in a register. An upper word is built in a register, 4 at a time.
pub(crate) fn write_ef_bits(
    (low, upper): (&mut [u8], &mut [u8]),
    first: u32,
    l: u32,
    blocks: impl FnOnce(&mut dyn FnMut(&[u32])),
) {
    let mask = (1u64 << l) - 1;
    let store = |words: &mut [u8], at: usize, word: u64| {
        words[8 * at..8 * at + 8].copy_from_slice(&word.to_le_bytes());
    };
    let (mut done, mut at, mut word) = (0, 0, 0u64);
    let (mut low_at, mut pending, mut fill) = (0, 0u64, 0);
    blocks(&mut |block| {
        let mut x = [0u32; EF_BLOCK];
        let x = &mut x[..block.len()];
        for ((x, &idx), i) in x.iter_mut().zip(block).zip(done..) {
            *x = idx - first - i;
        }
        if l > 8 {
            for &x in x.iter() {
                let bits = u64::from(x) & mask;
                (pending, fill) = (pending | bits << fill, fill + l);
                if fill >= 64 {
                    store(low, low_at, pending);
                    (low_at, fill) = (low_at + 1, fill - 64);
                    pending = bits >> (l - fill);
                }
            }
        } else if l > 0 {
            let mut lanes = [0u8; EF_BLOCK];
            for (lane, &x) in lanes.iter_mut().zip(x.iter()) {
                *lane = x as u8 & mask as u8;
            }
            let bytes = (done as usize / 8 * l as usize..).step_by(l as usize);
            for (group, byte) in lanes[..x.len().next_multiple_of(8)].chunks(8).zip(bytes) {
                let eight = pack8(u64::from_le_bytes(group.try_into().expect("8 lanes")), l);
                low[byte..byte + 8].copy_from_slice(&eight.to_le_bytes());
            }
        }
        for (x, i) in x.iter_mut().zip(done..) {
            *x = (*x >> l) + i;
        }
        let bit = |pos: u32| 1u64 << (pos % 64);
        let mut j = 0;
        while let Some(&pos) = x.get(j) {
            let end = 64 * (at as u32 + 1);
            if pos >= end {
                store(upper, at, word);
                (at, word) = (pos as usize / 64, 0);
            }
            while let Some(&[a, b, c, d]) = x.get(j..j + 4).filter(|four| four[3] < end) {
                word |= bit(a) | bit(b) | bit(c) | bit(d);
                j += 4;
            }
            while let Some(&p) = x.get(j).filter(|&&p| p < end) {
                word |= bit(p);
                j += 1;
            }
        }
        store(upper, at, word);
        done += x.len() as u32;
    });
    if fill > 0 {
        store(low, low_at, pending);
    }
}

/// Appends the Elias–Fano index of a strictly increasing index slab to a
/// sparse frame, header and value slab written.
fn write_index(indices: &[u32], out: &mut Vec<u8>) {
    let (Some(&first), Some(&last)) = (indices.first(), indices.last()) else {
        return;
    };
    let n = indices.len();
    let (l, _) = pick_index(n, first, last);
    put_ef_index(out, (n, first, last), l, |bits| {
        write_ef_bits(bits, first, l, |put| indices.chunks(EF_BLOCK).for_each(put))
    });
}

/// A checked Elias–Fano index: `L`, the base, the low bits and the bytes
/// after them, and where the upper bits start.
type EfIndex<'a> = (u32, u32, &'a [u8], usize);

/// The little-endian word of up to 8 bytes, zero-padded.
#[inline]
fn le_word(bytes: &[u8]) -> u64 {
    match bytes.get(..8) {
        Some(word) => u64::from_le_bytes(word.try_into().expect("slice of 8")),
        None => {
            let mut word = [0u8; 8];
            word[..bytes.len()].copy_from_slice(bytes);
            u64::from_le_bytes(word)
        }
    }
}

/// The low bits of entry `i` of an Elias–Fano index with `l` low bits,
/// from `bits`, the index's low bits and the bytes after them.
#[inline]
fn low_bits_of(bits: &[u8], l: u32, i: usize) -> u32 {
    let at = i * l as usize;
    ((le_word(&bits[at / 8..]) >> (at % 8)) & ((1 << l) - 1)) as u32
}

/// Decodes the index [`check_ef`] passed (`l` low bits from `base`, upper
/// bits from byte `low_len` of `bits`) into `indices`, its exact length:
/// each upper word's set bits by `tzcnt`, the low bits 8 entries a word,
/// then a check that they rise, which the parse could not see.
fn read_ef_into(
    (l, base, bits, low_len): EfIndex<'_>,
    indices: &mut [u32],
) -> Result<(), StreamError> {
    let mut rest = &mut indices[..];
    for (w, word) in bits[low_len..].chunks(8).enumerate() {
        let mut word = le_word(word);
        let ones = (word.count_ones() as usize).min(rest.len());
        let (now, later) = std::mem::take(&mut rest).split_at_mut(ones);
        for slot in now {
            *slot = ((64 * w) as u32).wrapping_add(word.trailing_zeros());
            word &= word - 1;
        }
        rest = later;
    }
    if l == 0 {
        indices.iter_mut().for_each(|idx| *idx += base);
        return Ok(());
    }
    // Each position less its entry's rank, above its low bits: `x`, below
    // `2^32` as the parse bounded the last one's upper bits.
    for (b, block) in indices.chunks_mut(64).enumerate() {
        let at = 64 * b as u32;
        if l > 8 {
            for (x, i) in block.iter_mut().zip(at..) {
                *x = (*x - i) << l | low_bits_of(bits, l, i as usize);
            }
            continue;
        }
        let mut lows = [0u8; 64];
        let groups = lows.chunks_exact_mut(8).take(block.len().div_ceil(8));
        for (g, lows) in groups.enumerate() {
            lows.copy_from_slice(&unpack8(le_word(&bits[(8 * b + g) * l as usize..]), l));
        }
        for ((x, &low), i) in block.iter_mut().zip(&lows).zip(at..) {
            *x = (*x - i) << l | u32::from(low);
        }
    }
    if indices
        .windows(2)
        .fold(false, |falls, w| falls | (w[1] < w[0]))
    {
        return Err(StreamError::Corrupt("Elias–Fano index steps backwards"));
    }
    // Every `x` is now at most the last, so no index passes the last.
    for (idx, i) in indices.iter_mut().zip(0..) {
        *idx += base + i;
    }
    Ok(())
}

/// Checks the Elias–Fano index `index` (`L`, base and bits) of a frame of
/// `nnz ≥ 1` entries in dimension `dim` (see the module docs), all but
/// its order; returns what [`read_ef_into`] takes.
fn check_ef(
    nnz: usize,
    dim: usize,
    index: &[u8],
    frame_len: usize,
) -> Result<EfIndex<'_>, StreamError> {
    let corrupt = |what| Err(StreamError::Corrupt(what));
    let (l, bits) = (u32::from(index[0]), &index[EF_HEAD_LEN..]);
    let base = u32::from_le_bytes(index[1..EF_HEAD_LEN].try_into().expect("4 bytes"));
    if l > MAX_LOW_BITS {
        return corrupt("Elias–Fano index of more than 31 low bits");
    }
    let low_len = (nnz * l as usize).div_ceil(8);
    // The low bits, then a bit per entry at least: fewer ones is a cut.
    let (low, upper) = bits.split_at(low_len.min(bits.len()));
    let ones: usize = upper
        .chunks(8)
        .map(|w| le_word(w).count_ones() as usize)
        .sum();
    if low.len() < low_len || ones < nnz {
        let got = frame_len;
        return Err(StreamError::Truncated {
            needed: got + 1,
            got,
        });
    }
    let top_byte = upper[upper.len() - 1];
    if ones > nnz || top_byte == 0 {
        return corrupt("trailing bits after the Elias–Fano index");
    }
    if low
        .last()
        .is_some_and(|&b| u32::from(b) >> ((nnz * l as usize - 1) % 8 + 1) != 0)
    {
        return corrupt("Elias–Fano low bits padded with ones");
    }
    if upper[0] & 1 == 0 || low_bits_of(bits, l, 0) != 0 {
        return corrupt("Elias–Fano index does not start at its base");
    }
    let last_pos = 8 * upper.len() - 1 - top_byte.leading_zeros() as usize;
    let high = (last_pos - (nnz - 1)) as u64;
    let top = (high.min(1 << 32) << l) | u64::from(low_bits_of(bits, l, nnz - 1));
    let last = u64::from(base) + top + (nnz - 1) as u64;
    if last > u64::from(u32::MAX) {
        return corrupt("Elias–Fano index runs past the u32 index range");
    }
    if last >= dim as u64 {
        return Err(StreamError::IndexOutOfBounds {
            idx: last as u32,
            dim,
        });
    }
    if pick_index(nnz, base, last as u32).0 != l {
        return corrupt("Elias–Fano index with low bits the encoder would not pick");
    }
    Ok((l, base, bits, low_len))
}

fn put_header(out: &mut Vec<u8>, width: u8, tag: u8, dim: usize) {
    out.push(MAGIC);
    out.push(WIRE_VERSION);
    out.push(width);
    out.push(tag);
    out.extend_from_slice(&(dim as u64).to_le_bytes());
}

/// Appends the 20-byte header of a sparse frame of `nnz` entries to `out`;
/// the value slab and then the index follow.
pub(crate) fn begin_sparse_frame<V: Scalar>(dim: usize, nnz: usize, out: &mut Vec<u8>) {
    out.reserve(SPARSE_HEADER_LEN + nnz * (V::BYTES + 1));
    put_header(out, V::BYTES as u8, TAG_ELIAS_FANO, dim);
    out.extend_from_slice(&(nnz as u64).to_le_bytes());
}

/// Appends the sparse frame of `view` in a `dim`-dimensional space.
fn append_sparse<V: Scalar>(dim: usize, view: SparseView<'_, V>, out: &mut Vec<u8>) {
    begin_sparse_frame::<V>(dim, view.len(), out);
    V::write_slab_le(view.values(), out);
    write_index(view.indices(), out);
}

/// Appends the dense frame of `values`.
fn append_dense<V: Scalar>(values: &[V], out: &mut Vec<u8>) {
    out.reserve(HEADER_LEN + values.len() * V::BYTES);
    put_header(out, V::BYTES as u8, TAG_DENSE, values.len());
    V::write_slab_le(values, out);
}

impl<V: Scalar> SparseStream<V> {
    /// Serializes the stream into a fresh contiguous byte buffer.
    ///
    /// Allocation-conscious callers (the collectives' buffer pools) use
    /// [`SparseStream::encode_into`] to reuse a buffer instead.
    pub fn encode(&self) -> Bytes {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        Bytes::from(out)
    }

    /// Serializes the stream into `out` (cleared first, capacity reused).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.clear();
        self.encode_append(out);
    }

    /// Appends the stream's frame to whatever `out` holds, so a frame can
    /// follow a header of the caller's in one buffer. The frame is the
    /// bytes [`SparseStream::encode`] writes.
    pub fn encode_append(&self, out: &mut Vec<u8>) {
        match self.repr() {
            Repr::Sparse(sv) => append_sparse(self.dim(), sv.as_view(), out),
            Repr::Dense(values) => append_dense(values, out),
        }
    }

    /// Encodes a borrowed sparse slice as a full wire frame of logical
    /// dimension `dim` into `out` (cleared first, capacity reused) — the
    /// allocation-free path the split algorithms use to put one partition
    /// of a stream on the wire without materializing an intermediate
    /// stream. The view's indices must be strictly increasing (a stream
    /// invariant), or the frame will not decode to them.
    pub fn encode_sparse_slice_into(dim: usize, view: SparseView<'_, V>, out: &mut Vec<u8>) {
        out.clear();
        Self::encode_sparse_slice_append(dim, view, out);
    }

    /// [`SparseStream::encode_sparse_slice_into`] appended to whatever
    /// `out` holds, so the frame can follow a header of the caller's in
    /// one buffer.
    pub fn encode_sparse_slice_append(dim: usize, view: SparseView<'_, V>, out: &mut Vec<u8>) {
        append_sparse(dim, view, out);
    }

    /// Encodes a dense value block as a full wire frame with
    /// `dim == values.len()` into `out` (cleared first, capacity reused) —
    /// used for partition blocks in the dense collectives.
    pub fn encode_dense_slice_into(values: &[V], out: &mut Vec<u8>) {
        out.clear();
        append_dense(values, out);
    }

    /// Exact byte length [`SparseStream::encode`] will produce: from the
    /// entry count and the first and last index.
    pub fn encoded_len(&self) -> usize {
        match self.repr() {
            Repr::Sparse(sv) => {
                let indices = sv.indices();
                let index_bytes = match (indices.first(), indices.last()) {
                    (Some(&first), Some(&last)) => pick_index(indices.len(), first, last).1,
                    _ => 0,
                };
                SPARSE_HEADER_LEN + sv.len() * V::BYTES + index_bytes
            }
            Repr::Dense(_) => HEADER_LEN + self.dim() * V::BYTES,
        }
    }

    /// Decodes a stream previously produced by [`SparseStream::encode`]:
    /// [`WireFrame::parse`], then its payload into freshly allocated slabs.
    ///
    /// The frame is fully validated before a stream is built: header
    /// magic/version/width, payload length against the declared counts
    /// (before any allocation), and — for sparse frames — an index that
    /// decodes to exactly `nnz` in-bounds indices with nothing left over
    /// (strictly increasing by construction), with the `L` the encoder
    /// picks for them. Malformed frames yield typed
    /// [`StreamError`]s; a peer can never hand us a stream that violates
    /// the invariants.
    pub fn decode(bytes: &[u8]) -> Result<Self, StreamError> {
        let frame = WireFrame::<V>::parse(bytes)?;
        let mut values = vec![V::zero(); frame.stored_len()];
        let mut stream = SparseStream::zeros(frame.dim);
        if frame.is_dense() {
            frame.read_dense_into(&mut values)?;
            stream.set_repr(Repr::Dense(values));
        } else {
            let mut indices = vec![0u32; values.len()];
            frame.read_sparse_into(&mut indices, &mut values)?;
            stream.set_repr(Repr::Sparse(SparseVec::from_slabs(indices, values)));
        }
        Ok(stream)
    }
}

/// The payload of a [`WireFrame`], its lengths already checked — and an
/// Elias–Fano index all of it but its order.
#[derive(Debug, Clone, Copy)]
enum Body<'a> {
    EliasFano {
        nnz: usize,
        values: &'a [u8],
        index: EfIndex<'a>,
    },
    Dense {
        values: &'a [u8],
    },
}

/// One wire frame, validated but not yet decoded: the header is checked
/// and the payload length matched against the declared counts, so
/// [`WireFrame::dim`] and [`WireFrame::stored_len`] are safe to act on
/// before anything is allocated. The `read_*_into` methods then decode the
/// payload straight into caller-owned storage — how a collective places a
/// gathered block at its final offset in a result it sized beforehand,
/// with no intermediate stream. [`SparseStream::decode`] is this parse
/// followed by a read into fresh slabs.
#[derive(Debug, Clone, Copy)]
pub struct WireFrame<'a, V: Scalar> {
    dim: usize,
    body: Body<'a>,
    value: PhantomData<V>,
}

/// The body of an Elias–Fano-indexed frame of `nnz` entries in a
/// `dim`-dim space, from `buf`, the `frame_len`-byte frame's bytes after
/// its sparse header: the value slab, then the index [`check_ef`] checks.
/// A frame of no entries has neither.
fn ef_body<V: Scalar>(
    nnz: usize,
    dim: usize,
    buf: &[u8],
    frame_len: usize,
) -> Result<Body<'_>, StreamError> {
    if nnz == 0 {
        if !buf.is_empty() {
            return Err(StreamError::Corrupt("trailing bytes after an empty frame"));
        }
        let index = (0, 0, buf, 0);
        return Ok(Body::EliasFano {
            nnz,
            values: buf,
            index,
        });
    }
    let head = nnz
        .checked_mul(V::BYTES)
        .and_then(|values| values.checked_add(EF_HEAD_LEN))
        .ok_or(StreamError::Corrupt("payload length overflow"))?;
    if buf.len() < head {
        return Err(StreamError::Truncated {
            needed: SPARSE_HEADER_LEN.saturating_add(head),
            got: frame_len,
        });
    }
    let (values, index) = buf.split_at(head - EF_HEAD_LEN);
    let index = check_ef(nnz, dim, index, frame_len)?;
    Ok(Body::EliasFano { nnz, values, index })
}

impl<'a, V: Scalar> WireFrame<'a, V> {
    /// Checks `bytes` as one frame: magic, version, value width,
    /// representation tag, and payload length against the declared counts
    /// (a sparse entry is a value and its bits of an Elias–Fano index). The
    /// index is checked in full but for its order, which the read checks.
    pub fn parse(bytes: &'a [u8]) -> Result<Self, StreamError> {
        let mut buf = bytes;
        if buf.remaining() < HEADER_LEN {
            return Err(StreamError::Truncated {
                needed: HEADER_LEN,
                got: buf.remaining(),
            });
        }
        if buf.get_u8() != MAGIC {
            return Err(StreamError::Corrupt("bad magic"));
        }
        let version = buf.get_u8();
        if version != WIRE_VERSION {
            return Err(StreamError::VersionMismatch {
                expected: WIRE_VERSION,
                actual: version,
            });
        }
        let width = buf.get_u8() as usize;
        if width != V::BYTES {
            return Err(StreamError::ValueWidthMismatch {
                expected: V::BYTES,
                actual: width,
            });
        }
        let tag = buf.get_u8();
        let dim = buf.get_u64_le();
        let dim = usize::try_from(dim).map_err(|_| StreamError::Corrupt("dimension overflow"))?;
        let body = match tag {
            TAG_ELIAS_FANO => {
                if buf.remaining() < 8 {
                    return Err(StreamError::Truncated {
                        needed: SPARSE_HEADER_LEN,
                        got: bytes.len(),
                    });
                }
                let nnz = buf.get_u64_le();
                let nnz = usize::try_from(nnz)
                    .map_err(|_| StreamError::Corrupt("entry count overflow"))?;
                if nnz > dim {
                    return Err(StreamError::Corrupt("entry count exceeds dimension"));
                }
                ef_body::<V>(nnz, dim, buf, bytes.len())?
            }
            TAG_DENSE => {
                let payload = dim
                    .checked_mul(V::BYTES)
                    .ok_or(StreamError::Corrupt("payload length overflow"))?;
                if buf.remaining() < payload {
                    return Err(StreamError::Truncated {
                        needed: HEADER_LEN + payload,
                        got: bytes.len(),
                    });
                }
                if buf.remaining() > payload {
                    return Err(StreamError::Corrupt("trailing bytes after dense payload"));
                }
                Body::Dense { values: buf }
            }
            _ => return Err(StreamError::Corrupt("unknown representation tag")),
        };
        Ok(WireFrame {
            dim,
            body,
            value: PhantomData,
        })
    }

    /// The logical dimension the frame declares.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Whether the frame carries the dense representation.
    pub fn is_dense(&self) -> bool {
        matches!(self.body, Body::Dense { .. })
    }

    /// Entries the payload holds: the pair count when sparse, `dim` when
    /// dense — already covered by the frame's bytes.
    pub fn stored_len(&self) -> usize {
        match self.body {
            Body::EliasFano { nnz, .. } => nnz,
            Body::Dense { .. } => self.dim,
        }
    }

    /// Decodes a sparse frame's entries into `indices` and `values`, which
    /// must each be [`WireFrame::stored_len`] long. The indices come out
    /// strictly increasing and below [`WireFrame::dim`], or the frame is
    /// rejected (with the slabs partly written).
    pub fn read_sparse_into(
        &self,
        indices: &mut [u32],
        values: &mut [V],
    ) -> Result<(), StreamError> {
        let (value_slab, index) = self.sparse()?;
        if indices.len() != self.stored_len() || values.len() != self.stored_len() {
            return Err(StreamError::SlabLengthMismatch {
                indices: indices.len(),
                values: values.len(),
            });
        }
        read_ef_into(index, indices)?;
        V::read_slab_le_into(value_slab, values);
        Ok(())
    }

    /// Decodes a sparse frame's entries into `window`, the dense values of
    /// the `window.len()` indices from `lo`: each value overwrites the slot
    /// of its index less `lo`. `indices` is scratch for the decoded index,
    /// its capacity reused. An index outside the window is
    /// [`StreamError::OutsideWindow`] and leaves `window` untouched.
    /// Returns the entries read.
    pub fn read_sparse_scatter(
        &self,
        lo: u32,
        window: &mut [V],
        indices: &mut Vec<u32>,
    ) -> Result<usize, StreamError> {
        let (value_slab, index) = self.sparse()?;
        indices.clear();
        indices.resize(self.stored_len(), 0);
        read_ef_into(index, indices)?;
        let hi = u32::try_from(lo as usize + window.len()).unwrap_or(u32::MAX);
        // Indices strictly increase: the ends bound the rest.
        for &idx in [indices.first(), indices.last()].into_iter().flatten() {
            if idx < lo || idx >= hi {
                return Err(StreamError::OutsideWindow { idx, lo, hi });
            }
        }
        for (&idx, value) in indices.iter().zip(value_slab.chunks_exact(V::BYTES)) {
            window[(idx - lo) as usize] = V::read_le(value);
        }
        Ok(indices.len())
    }

    /// A sparse frame's value slab and its checked index.
    fn sparse(&self) -> Result<(&'a [u8], EfIndex<'a>), StreamError> {
        match self.body {
            Body::EliasFano { values, index, .. } => Ok((values, index)),
            Body::Dense { .. } => Err(StreamError::Corrupt("expected a sparse frame")),
        }
    }

    /// Adds a dense frame's values into `values`, which must be
    /// [`WireFrame::dim`] long: each slot becomes `slot + value`, read
    /// straight off the frame.
    pub fn add_dense_into(&self, values: &mut [V]) -> Result<(), StreamError> {
        let value_slab = self.dense_slab(values.len())?;
        for (slot, value) in values.iter_mut().zip(value_slab.chunks_exact(V::BYTES)) {
            *slot = slot.add(V::read_le(value));
        }
        Ok(())
    }

    /// A dense frame's value slab, checked against the `len` values it is
    /// read into.
    fn dense_slab(&self, len: usize) -> Result<&'a [u8], StreamError> {
        let Body::Dense { values } = self.body else {
            return Err(StreamError::Corrupt("expected a dense frame"));
        };
        if len != self.dim {
            return Err(StreamError::LengthMismatch {
                expected: self.dim,
                actual: len,
            });
        }
        Ok(values)
    }

    /// Decodes a dense frame's values into `values`, which must be
    /// [`WireFrame::dim`] long.
    pub fn read_dense_into(&self, values: &mut [V]) -> Result<(), StreamError> {
        V::read_slab_le_into(self.dense_slab(values.len())?, values);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{clustered_sparse, random_sparse, uniform_indices, XorShift64};

    /// A sparse f32 frame built by hand: header, value slab, raw index.
    fn raw_frame(dim: u64, nnz: u64, index: &[u8]) -> Vec<u8> {
        let mut out = vec![MAGIC, WIRE_VERSION, 4, TAG_ELIAS_FANO];
        out.extend_from_slice(&dim.to_le_bytes());
        out.extend_from_slice(&nnz.to_le_bytes());
        // As many values as the frame can honestly hold.
        for i in 0..nnz.min(1 << 16) {
            out.extend_from_slice(&(i as f32).to_le_bytes());
        }
        out.extend_from_slice(index);
        out
    }

    /// Encodes, checks the exact length, decodes, compares.
    fn round_trip<V: Scalar>(v: &SparseStream<V>) -> Bytes {
        let bytes = v.encode();
        assert_eq!(bytes.len(), v.encoded_len());
        assert_eq!(&SparseStream::<V>::decode(&bytes).unwrap(), v);
        bytes
    }

    #[test]
    fn sparse_round_trip_f32() {
        let v = SparseStream::from_pairs(1000, &[(3, 1.5f32), (999, -2.0)]).unwrap();
        // 20 header + 2 × 4 values + L and base, then x = 0 and 995 at
        // L = 8: two bytes of low bits and the upper bits 0 and 4.
        assert_eq!(round_trip(&v).len(), 20 + 8 + 5 + 2 + 1);
    }

    #[test]
    fn an_empty_sparse_frame_is_its_header() {
        // Tag 2 and nnz = 0, and no value or index byte.
        let empty = round_trip(&SparseStream::<f32>::zeros(1000));
        assert_eq!(empty.as_ref(), raw_frame(1000, 0, &[]));
        assert_eq!(empty.len(), 20);
        let frame = WireFrame::<f32>::parse(&empty).unwrap();
        assert_eq!((frame.is_dense(), frame.stored_len()), (false, 0));
        frame.read_sparse_into(&mut [], &mut []).unwrap();
        let mut window = [1.0f32; 4];
        let read = frame.read_sparse_scatter(0, &mut window, &mut Vec::new());
        assert_eq!((read, window), (Ok(0), [1.0; 4]));
        assert_eq!(round_trip(&SparseStream::<f64>::zeros(7)).len(), 20);
    }

    #[test]
    fn dense_round_trip_f64() {
        let v = SparseStream::from_dense(vec![1.0f64, -2.0, 0.0, 3.5]);
        round_trip(&v);
    }

    #[test]
    fn round_trips_at_every_distance_and_low_bit_width() {
        // Two entries `d + 1` apart for distances across the u32 range, the
        // top of it included: every L from 0 to 30, each index the oracle's.
        let mut widths = [0usize; 32];
        for d in (0..32)
            .flat_map(|b| [(1u32 << b) - 1, 1 << b])
            .chain([u32::MAX - 1])
        {
            let v = SparseStream::from_pairs(1 << 32, &[(0, 1.0f32), (d + 1, 2.0)]).unwrap();
            let bytes = round_trip(&v);
            let index = &bytes[SPARSE_HEADER_LEN + 8..];
            let l = u32::from(index[0]);
            widths[l as usize] += 1;
            assert_eq!(&index[5..], ef_oracle(&[0, d + 1], l), "d {d}");
            let w = SparseStream::from_pairs(1 << 32, &[(0, 1.0f64), (d + 1, 2.0)]).unwrap();
            assert_eq!(round_trip(&w).len(), bytes.len() + 8, "d {d}");
            // One entry anywhere: L = 0, the base and one upper byte.
            let one = SparseStream::from_pairs(1 << 32, &[(d, 1.0f32)]).unwrap();
            assert_eq!(round_trip(&one).len(), 20 + 4 + EF_HEAD_LEN + 1, "at {d}");
        }
        assert!(widths[..31].iter().all(|&n| n > 0), "{widths:?}");
    }

    #[test]
    fn round_trips_at_the_edges_of_the_index_space() {
        let dim = 1000;
        round_trip(&SparseStream::<f32>::zeros(dim));
        round_trip(&SparseStream::from_pairs(dim, &[(0, 1.0f32)]).unwrap());
        round_trip(&SparseStream::from_pairs(dim, &[(dim as u32 - 1, 1.0f64)]).unwrap());
        // The largest index a stream can hold, in the largest dimension.
        round_trip(&SparseStream::from_pairs(1 << 32, &[(u32::MAX, 1.0f32)]).unwrap());
        // Full density in sparse form: an Elias–Fano index of no low bits,
        // a bitmap of all ones, with L and the base ahead of it.
        let full: Vec<(u32, f32)> = (0..dim as u32).map(|i| (i, i as f32)).collect();
        let full = SparseStream::from_pairs(dim, &full).unwrap();
        assert!(full.is_sparse());
        assert_eq!(round_trip(&full).len(), 20 + dim * 4 + 5 + dim / 8);
        // Uniform supports of every low-bit width, and clustered runs:
        // stretches of adjacent entries broken by far jumps at every
        // alignment.
        for seed in 0..32 {
            let nnz = 37 + 11 * seed as usize;
            round_trip(&random_sparse::<f32>(1 << 12, nnz, seed));
            round_trip(&random_sparse::<f64>(1 << 20, 300 + seed as usize, seed));
            round_trip(&random_sparse::<f32>(
                1 << (seed % 32),
                1 << (seed % 8),
                seed,
            ));
            round_trip(&clustered_sparse::<f32>(
                1 << 20,
                nnz,
                1 + seed as usize,
                seed,
            ));
        }
    }

    #[test]
    fn encode_into_reuses_buffer() {
        let v = SparseStream::from_pairs(64, &[(5, 1.0f32)]).unwrap();
        let mut buf = Vec::with_capacity(256);
        v.encode_into(&mut buf);
        let cap = buf.capacity();
        let first = buf.clone();
        v.encode_into(&mut buf);
        assert_eq!(buf, first);
        assert_eq!(buf.capacity(), cap);
        // A buffer that grew for a wide index keeps what it grew to.
        let wide = random_sparse::<f32>(1 << 24, 500, 3);
        let mut buf = Vec::new();
        wide.encode_into(&mut buf);
        let cap = buf.capacity();
        wide.encode_into(&mut buf);
        assert_eq!(buf.capacity(), cap);
        assert_eq!(buf.len(), wide.encoded_len());
    }

    #[test]
    fn sparse_slice_frame_equals_restrict_encode() {
        let v = random_sparse::<f32>(1 << 16, 3000, 11);
        for (lo, hi) in [(0, 1 << 16), (10, 60), (1000, 40_000), (65_000, 1 << 16)] {
            let mut direct = Vec::new();
            SparseStream::encode_sparse_slice_into(
                v.dim(),
                v.sparse_view().unwrap().range(lo, hi),
                &mut direct,
            );
            let via_restrict = v.restrict(lo, hi).encode();
            assert_eq!(direct, via_restrict.as_ref(), "[{lo}, {hi})");
        }
    }

    #[test]
    fn dense_slice_frame_round_trips() {
        let block = vec![1.0f32, -2.5, 0.0];
        let mut out = Vec::new();
        SparseStream::encode_dense_slice_into(&block, &mut out);
        let back = SparseStream::<f32>::decode(&out).unwrap();
        assert!(back.is_dense());
        assert_eq!(back.into_dense_vec(), block);
    }

    #[test]
    fn frames_read_into_caller_slabs_match_decode() {
        let sparse = random_sparse::<f32>(1 << 16, 3000, 12);
        let bytes = sparse.encode();
        let frame = WireFrame::<f32>::parse(&bytes).unwrap();
        assert_eq!((frame.dim(), frame.stored_len()), (1 << 16, 3000));
        assert!(!frame.is_dense());
        // Into the middle of larger slabs, as a gathered block lands.
        let (mut indices, mut values) = (vec![0u32; 3010], vec![0.0f32; 3010]);
        frame
            .read_sparse_into(&mut indices[5..3005], &mut values[5..3005])
            .unwrap();
        let view = sparse.sparse_view().unwrap();
        assert_eq!(&indices[5..3005], view.indices());
        assert_eq!(&values[5..3005], view.values());
        assert_eq!(
            frame.read_dense_into(&mut values),
            Err(StreamError::Corrupt("expected a dense frame"))
        );
        assert!(matches!(
            frame.read_sparse_into(&mut indices[..2999], &mut values[..2999]),
            Err(StreamError::SlabLengthMismatch { .. })
        ));

        let block = [1.0f64, -2.5, 0.0, 4.0];
        let mut bytes = Vec::new();
        SparseStream::encode_dense_slice_into(&block, &mut bytes);
        let frame = WireFrame::<f64>::parse(&bytes).unwrap();
        assert!(frame.is_dense());
        assert_eq!(frame.stored_len(), 4);
        let mut out = [9.0f64; 6];
        frame.read_dense_into(&mut out[1..5]).unwrap();
        assert_eq!(out, [9.0, 1.0, -2.5, 0.0, 4.0, 9.0]);
        assert!(matches!(
            frame.read_dense_into(&mut out[..3]),
            Err(StreamError::LengthMismatch {
                expected: 4,
                actual: 3
            })
        ));
        assert!(frame.read_sparse_into(&mut [0; 4], &mut out[..4]).is_err());
    }

    #[test]
    fn an_index_costs_about_a_byte_per_entry_or_less_where_bandwidth_matters() {
        // Seeded uniform supports in 2^20, f32, header excluded; v2 paid 8,
        // the v4 gap slab 5.00, 5.35 and 6.05.
        let dim = 1 << 20;
        for (k, want) in [(100_000usize, 4.65), (10_000, 5.08), (256, 5.77)] {
            let indices = uniform_indices(dim, k, &mut XorShift64::new(1));
            let v = SparseStream::from_slabs(dim, indices, vec![1.0f32; k]).unwrap();
            let per_entry = (v.encoded_len() - SPARSE_HEADER_LEN) as f64 / k as f64;
            assert!((per_entry - want).abs() < 0.01, "k={k}: {per_entry}");
        }
    }

    #[test]
    fn expected_entry_bytes_is_the_elias_fano_price() {
        // A full support is a bitmap of one bit an entry, and so is any
        // support past 1/2: no low bits, `1 + g` upper bits.
        assert_eq!(expected_entry_bytes(4, 1.0), 4.125);
        assert!((expected_entry_bytes(4, 0.55) - (4.0 + 1.0 / 4.4)).abs() < 1e-12);
        // g = 3 and 7: L = 1 and 2, 3.5 and 4.75 bits.
        assert_eq!(expected_entry_bytes(4, 0.25), 4.4375);
        assert_eq!(expected_entry_bytes(4, 0.125), 4.59375);
        // Mean gap 100: L = 6, 6 + 1 + 99/64 bits.
        let e = expected_entry_bytes(4, 0.01);
        assert!((e - (4.0 + (7.0 + 99.0 / 64.0) / 8.0)).abs() < 1e-9, "{e}");
        // One entry in 2^32, the sparsest a u32 index holds: g = 2^32 − 1,
        // L = 31, 32 + g/2^31 bits. An empty stream prices the same, and
        // finitely, though no entry pays it.
        let sparsest = expected_entry_bytes(8, 0.5f64.powi(32));
        assert!((sparsest - (8.0 + 34.0 / 8.0)).abs() < 1e-9, "{sparsest}");
        assert_eq!(expected_entry_bytes(8, 0.0), sparsest);
        // Monotone: sparser streams never weigh less per entry.
        let mut last = 0.0;
        for exp in 0..12 {
            let e = expected_entry_bytes(4, 0.5f64.powi(3 * exp));
            assert!(e >= last, "{e} after {last}");
            last = e;
        }
        assert_eq!(last, sparsest - 4.0);
    }

    #[test]
    fn decode_rejects_wrong_width() {
        let v = SparseStream::from_pairs(10, &[(1, 1.0f32)]).unwrap();
        let bytes = v.encode();
        let err = SparseStream::<f64>::decode(&bytes).unwrap_err();
        assert!(matches!(err, StreamError::ValueWidthMismatch { .. }));
    }

    #[test]
    fn decode_rejects_truncation_and_garbage() {
        let v = SparseStream::from_pairs(1000, &[(1, 1.0f32), (500, 2.0)]).unwrap();
        let bytes = v.encode();
        // Every proper prefix, those that end inside the low bits or
        // before the last upper byte included.
        for cut in 0..bytes.len() {
            let err = SparseStream::<f32>::decode(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, StreamError::Truncated { .. }),
                "cut at {cut}: {err:?}"
            );
        }
        let mut garbage = bytes.to_vec();
        garbage[0] = 0x00;
        assert!(SparseStream::<f32>::decode(&garbage).is_err());
    }

    #[test]
    fn decode_rejects_other_versions() {
        let v = SparseStream::from_pairs(10, &[(1, 1.0f32)]).unwrap();
        for old in [1u8, 2, 3, 4, 5] {
            let mut bytes = v.encode().to_vec();
            bytes[1] = old;
            assert_eq!(
                SparseStream::<f32>::decode(&bytes).unwrap_err(),
                StreamError::VersionMismatch {
                    expected: 6,
                    actual: old
                }
            );
        }
    }

    #[test]
    fn decode_rejects_a_tag_0_frame_and_other_unknown_tags() {
        // Tag 0 was v5's gap-coded index; v6 has no such frame.
        let v = SparseStream::from_pairs(10, &[(1, 1.0f32), (2, 2.0)]).unwrap();
        for tag in [0u8, 3, 0xFF] {
            let mut bytes = v.encode().to_vec();
            bytes[3] = tag;
            assert_eq!(
                SparseStream::<f32>::decode(&bytes).unwrap_err(),
                StreamError::Corrupt("unknown representation tag"),
                "tag {tag}"
            );
        }
    }

    #[test]
    fn decode_rejects_nnz_exceeding_dim() {
        let v = SparseStream::from_pairs(4, &[(1, 1.0f32)]).unwrap();
        let mut bytes = v.encode().to_vec();
        bytes[12..20].copy_from_slice(&1000u64.to_le_bytes());
        let err = SparseStream::<f32>::decode(&bytes).unwrap_err();
        assert!(matches!(err, StreamError::Corrupt(_)), "{err:?}");
    }

    #[test]
    fn decode_rejects_huge_declared_counts_without_allocating() {
        // A frame declaring more entries than its bytes can hold must fail
        // on length math, before the index vector is allocated.
        let v = SparseStream::from_pairs(8, &[(1, 1.0f32)]).unwrap();
        let mut bytes = v.encode().to_vec();
        bytes[4..12].copy_from_slice(&u64::MAX.to_le_bytes()); // dim
        bytes[12..20].copy_from_slice(&u64::MAX.to_le_bytes()); // nnz
        assert!(SparseStream::<f32>::decode(&bytes).is_err());
        bytes[12..20].copy_from_slice(&(1u64 << 40).to_le_bytes());
        let err = SparseStream::<f32>::decode(&bytes).unwrap_err();
        assert!(matches!(err, StreamError::Truncated { .. }), "{err:?}");
        // Dense frame with an absurd dimension and no payload.
        let d = SparseStream::from_dense(vec![0.0f32; 2]);
        let mut bytes = d.encode().to_vec();
        bytes[4..12].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
        let err = SparseStream::<f32>::decode(&bytes).unwrap_err();
        assert!(
            matches!(err, StreamError::Truncated { .. } | StreamError::Corrupt(_)),
            "{err:?}"
        );
    }

    #[test]
    fn decode_rejects_trailing_bytes() {
        let v = SparseStream::from_pairs(10, &[(1, 1.0f32)]).unwrap();
        let mut bytes = v.encode().to_vec();
        // Stray bytes past the last upper byte: ones the count does not
        // allow.
        for extra in [1, 5] {
            bytes.extend(std::iter::repeat_n(0xFF, extra));
            let err = SparseStream::<f32>::decode(&bytes).unwrap_err();
            assert!(matches!(err, StreamError::Corrupt(_)), "{err:?}");
        }
    }

    /// A sparse f32 frame with an Elias–Fano index, built by hand.
    fn raw_ef_frame(dim: u64, nnz: u64, l: u8, base: u32, bits: &[u8]) -> Vec<u8> {
        raw_frame(dim, nnz, &[&[l], &base.to_le_bytes()[..], bits].concat())
    }

    /// The Elias–Fano bits of `indices` with `l` low bits, set one at a
    /// time.
    fn ef_oracle(indices: &[u32], l: u32) -> Vec<u8> {
        let n = indices.len();
        let top = u64::from(indices[n - 1] - indices[0]) + 1 - n as u64;
        let low_len = (n * l as usize).div_ceil(8);
        let mut bits = vec![0u8; low_len + ((top >> l) as usize + n).div_ceil(8)];
        for (i, &idx) in indices.iter().enumerate() {
            let x = u64::from(idx - indices[0]) - i as u64;
            for b in 0..l as usize {
                let at = i * l as usize + b;
                bits[at / 8] |= (((x >> b) & 1) as u8) << (at % 8);
            }
            let at = (x >> l) as usize + i;
            bits[low_len + at / 8] |= 1 << (at % 8);
        }
        bits
    }

    #[test]
    fn frame_layout_of_an_elias_fano_index() {
        // Every 4th slot from 200: x_i = 3i, 48 slots for 16 entries, so
        // L = 1 (7 bytes of bits; L = 2 takes 8). The low bits alternate;
        // the upper bits sit at (3i >> 1) + i = 0, 2, 5, 7, 10, …, 37.
        let pairs: Vec<(u32, f32)> = (0..16).map(|i| (200 + 4 * i, i as f32)).collect();
        let v = SparseStream::from_pairs(1000, &pairs).unwrap();
        let bytes = round_trip(&v);
        assert_eq!((bytes[1], WIRE_VERSION), (6, 6));
        let bits = [0xAA, 0xAA, 0xA5, 0x94, 0x52, 0x4A, 0x29];
        assert_eq!(bytes.as_ref(), raw_ef_frame(1000, 16, 1, 200, &bits));
        assert_eq!(bytes.len(), SPARSE_HEADER_LEN + 16 * 4 + 12);
        // Every other slot of [200, 259): no low bits, and the upper bits
        // are v4's bitmap of the span, bit j for index 200 + j.
        let pairs: Vec<(u32, f32)> = (0..30).map(|i| (200 + 2 * i, i as f32)).collect();
        let bytes = round_trip(&SparseStream::from_pairs(1000, &pairs).unwrap());
        let bitmap = [0x55, 0x55, 0x55, 0x55, 0x55, 0x55, 0x55, 0x05];
        assert_eq!(bytes.as_ref(), raw_ef_frame(1000, 30, 0, 200, &bitmap));
        // Every index is the oracle's bits, which at L = 0 set bit `idx −
        // first` for each entry: that bitmap. Uniform supports, and
        // clustered runs few and long to many and short.
        let mut widths = [0usize; 32];
        let uniform = (1..=4096)
            .step_by(37)
            .enumerate()
            .map(|(case, nnz)| random_sparse::<f32>(1 << (12 + case % 12), nnz, case as u64));
        let clustered = (0..64)
            .map(|seed| clustered_sparse::<f32>(1 << 20, 40 + 7 * seed, 1 + seed / 4, seed as u64));
        for v in uniform.chain(clustered) {
            let bytes = round_trip(&v);
            let indices = v.sparse_view().unwrap().indices();
            assert_eq!(bytes[3], TAG_ELIAS_FANO);
            let index = &bytes[SPARSE_HEADER_LEN + 4 * indices.len()..];
            let l = u32::from(index[0]);
            widths[l as usize] += 1;
            assert_eq!(&index[1..5], &indices[0].to_le_bytes());
            let oracle = ef_oracle(indices, l);
            assert_eq!(&index[5..], oracle, "nnz {}, L {l}", indices.len());
            let (n, first, last) = (indices.len(), indices[0], indices[indices.len() - 1]);
            assert_eq!(pick_index(n, first, last), (l, EF_HEAD_LEN + oracle.len()));
        }
        assert!(widths[..10].iter().all(|&n| n > 0), "{widths:?}");
    }

    #[test]
    fn hostile_elias_fano_frames_are_typed_errors() {
        // The frame of `frame_layout_of_an_elias_fano_index`, and frames
        // with its bits but for the last upper byte.
        let (low, upper) = ([0xAA, 0xAA], [0xA5, 0x94, 0x52, 0x4A, 0x29]);
        let ef = |l, base, low: &[u8], upper: &[u8]| {
            raw_ef_frame(1000, 16, l, base, &[low, upper].concat())
        };
        let ending = |last: &[u8]| ef(1, 200, &low, &[&upper[..4], last].concat());
        let honest = ef(1, 200, &low, &upper);
        let decoded = SparseStream::<f32>::decode(&honest).unwrap();
        assert_eq!(decoded.encode().as_ref(), honest);
        let bits = &honest[SPARSE_HEADER_LEN + 64 + EF_HEAD_LEN..];
        let err = |frame: &[u8]| SparseStream::<f32>::decode(frame).unwrap_err();
        // 15 entries: 15 low bits and one bit of padding, which must be 0.
        let support: Vec<u32> = (0..16).map(|i| 200 + 4 * i).collect();
        let fifteen = SparseStream::from_slabs(1000, support[..15].to_vec(), vec![1.0f32; 15]);
        let mut padded = fifteen.unwrap().encode().to_vec();
        padded[SPARSE_HEADER_LEN + 60 + 6] |= 0x80;
        for (what, frame) in [
            ("more than 31 low bits", ef(32, 200, &low, &upper)),
            (
                "L = 0",
                raw_ef_frame(1000, 16, 0, 200, &ef_oracle(&support, 0)),
            ),
            (
                "L = 2",
                raw_ef_frame(1000, 16, 2, 200, &ef_oracle(&support, 2)),
            ),
            ("x_0 = 1", ef(1, 200, &[0xAB, 0xAA], &upper)),
            (
                "no entry at the base",
                ef(1, 200, &low, &[0xA4, 0x94, 0x52, 0x4A, 0x29, 1]),
            ),
            (
                "an extra one",
                ef(1, 200, &low, &[0xA7, 0x94, 0x52, 0x4A, 0x29]),
            ),
            ("a one past the last", ending(&[0xA9])),
            ("a spare byte", ending(&[0x29, 0])),
            (
                "past u32",
                raw_ef_frame(1 << 40, 16, 1, u32::MAX - 50, bits),
            ),
            ("low bits padded with a one", padded),
            // x = 0, 9, 8: L = 1 is canonical for x_last = 8, but the last
            // two share their upper bits and their low bits fall by one,
            // so index 110 repeats.
            (
                "a repeated index",
                raw_ef_frame(1000, 3, 1, 100, &[0x02, 0x61]),
            ),
            // x = 0, 15, 12 at the canonical L = 2: indices 100, 116, 114.
            (
                "an index that steps back",
                raw_ef_frame(1000, 3, 2, 100, &[0x0C, 0x31]),
            ),
            ("no entries but an index", raw_ef_frame(1000, 0, 0, 0, &[])),
            ("no entries but a byte", raw_frame(1000, 0, &[0])),
        ] {
            assert!(
                matches!(err(&frame), StreamError::Corrupt(_)),
                "{what}: {:?}",
                err(&frame)
            );
        }
        // The last index at `dim`, and past it.
        for dim in [260, 250] {
            assert_eq!(
                err(&raw_ef_frame(dim, 16, 1, 200, bits)),
                StreamError::IndexOutOfBounds {
                    idx: 260,
                    dim: dim as usize
                }
            );
        }
        // A dropped one, and every proper prefix, read as an index cut
        // short.
        let cuts = (0..honest.len()).map(|cut| honest[..cut].to_vec());
        for frame in cuts.chain([ending(&[0x09])]) {
            assert!(
                matches!(err(&frame), StreamError::Truncated { .. }),
                "{frame:?}"
            );
        }
    }

    #[test]
    fn mutated_frames_never_panic_the_decoder() {
        let full = (u32::MAX - 39..=u32::MAX).collect();
        let valid = [
            // Clustered runs: stretches of adjacent entries broken by far
            // jumps.
            clustered_sparse::<f32>(1 << 20, 200, 4, 5),
            clustered_sparse(1 << 22, 40, 20, 6),
            // The top of the index space.
            SparseStream::from_pairs(1 << 32, &[(7, 1.0f32), (u32::MAX, 2.0)]).unwrap(),
            SparseStream::zeros(64),
            SparseStream::from_dense(vec![1.0f32; 16]),
            // Elias–Fano: 55 % (L = 0), 30 % (L = 1), 4 % (L = 4) and
            // 10^-5 (L = 16) dense, and full at the top of the index space.
            random_sparse(300, 165, 8),
            random_sparse(512, 154, 7),
            random_sparse(4096, 160, 9),
            random_sparse(1 << 22, 40, 6),
            SparseStream::from_slabs(1 << 32, full, vec![1.0f32; 40]).unwrap(),
        ]
        .map(|stream| stream.encode().to_vec());
        assert!(valid[5..].iter().all(|frame| frame[3] == TAG_ELIAS_FANO));
        let check = |bytes: &[u8]| {
            // Ok or a typed error — and an Ok upholds the invariants and
            // is the one encoding of what it decoded to.
            if let Ok(v) = SparseStream::<f32>::decode(bytes) {
                if let Some(view) = v.sparse_view() {
                    assert!(view.indices().windows(2).all(|w| w[0] < w[1]));
                    assert!(view
                        .indices()
                        .last()
                        .is_none_or(|&i| (i as usize) < v.dim()));
                }
                assert_eq!(v.encode().as_ref(), bytes);
            }
        };
        let mut cases = 0;
        for frame in &valid {
            // Truncation at every byte, and every single-bit flip.
            for cut in 0..frame.len() {
                check(&frame[..cut]);
                cases += 1;
            }
            for bit in 0..frame.len() * 8 {
                let mut bytes = frame.clone();
                bytes[bit / 8] ^= 1 << (bit % 8);
                check(&bytes);
                cases += 1;
            }
        }
        let mut rng = XorShift64::new(0x5eed);
        for i in 0..8000 {
            let mut bytes = valid[i % valid.len()].clone();
            // Where an Elias–Fano index starts: L, then the base.
            let index = SPARSE_HEADER_LEN
                + 4 * u64::from_le_bytes(bytes[12..20].try_into().unwrap_or([0; 8])) as usize;
            // The empty frame has no index to mutate.
            let ef = bytes[3] == TAG_ELIAS_FANO && bytes.len() > index + EF_HEAD_LEN;
            match rng.next_u64() % 8 {
                0 => bytes.truncate(rng.next_u64() as usize % (bytes.len() + 1)),
                1 => bytes.extend((0..rng.next_u64() % 9).map(|_| rng.next_u64() as u8)),
                // Lie about the entry count, L or the base.
                2 => {
                    bytes[12] = bytes[12]
                        .wrapping_add(rng.next_u64() as u8 % 5)
                        .wrapping_sub(2)
                }
                3 if ef => bytes[index] = (rng.next_u64() % 40) as u8,
                4 if ef => {
                    bytes[index + 1 + rng.next_u64() as usize % 4] ^= 1 << (rng.next_u64() % 8)
                }
                // Add or drop an upper one, or a byte.
                5 if ef => {
                    let at = index + 5 + rng.next_u64() as usize % (bytes.len() - index - 5);
                    bytes[at] ^= 1 << (rng.next_u64() % 8);
                }
                6 if ef => bytes.push(1 << (rng.next_u64() % 8)),
                _ => {}
            }
            for _ in 0..rng.next_u64() % 4 {
                if !bytes.is_empty() {
                    let at = rng.next_u64() as usize % bytes.len();
                    bytes[at] ^= 1 << (rng.next_u64() % 8);
                }
            }
            check(&bytes);
            cases += 1;
        }
        assert!(cases >= 8000, "{cases}");
    }
}
