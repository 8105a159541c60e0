//! Wire encoding of sparse streams — frame layout **v4** (gap-coded or
//! bitmap index).
//!
//! Layout (all little-endian):
//!
//! ```text
//! [0]        magic 0xSC (0xC5)
//! [1]        format version (4)
//! [2]        value width in bytes (4 = f32, 8 = f64)
//! [3]        representation tag: 0 = sparse with gap bytes, 1 = dense,
//!            2 = sparse with a bitmap index
//! [4..12]    dim  (u64)
//! [12..20]   nnz  (u64, sparse only; dense payload length is dim)
//! payload    tag 0: nnz × value slab, then the gap bytes to the end of
//!                   the frame
//!            tag 1: dim × value slab
//!            tag 2: nnz × value slab, then base (u64) and span (u64), then
//!                   ⌈span / 8⌉ bitmap bytes
//! ```
//!
//! The gap-coded index slab holds the first index, then
//! `index − previous − 1` for every later entry, each as an LEB128 varint
//! (7 payload bits per byte, low bits first, high bit set on every byte
//! but the last): one byte below 128, two below 16 384, at most five. The
//! gap bytes run to the end of the frame, so the frame needs no length
//! field for them and a trailer a schedule appends after the frame still
//! splits off as `frame[..len − trailer]`. Wherever the next index is less
//! than 128 away a sparse entry costs `isize + 1` bytes instead of the
//! `isize + 4` of a `u32` slab.
//!
//! Past a density of 1/8 one bit per slot is less than one byte per entry.
//! The bitmap index covers the slots `[base, base + span)` from the first
//! index to the last, bit `j` (bit `j % 8` of byte `j / 8`) standing for
//! index `base + j`; its length follows from the span, so a trailer still
//! splits off. The encoder takes the bitmap exactly when it is strictly
//! smaller than the gap slab. A gap costs at least a byte and at most one
//! more per 128 slots it skips, so lengths alone decide below a density of
//! about 0.117 and above about 1/8; only in between is the gap slab
//! measured. [`expected_entry_bytes`] is the price of an
//! entry as a function of density and [`SparseStream::encoded_len`] the
//! exact size of one stream. The in-memory layout is untouched
//! (`Vec<u32>` ∥ `Vec<V>`), and so is δ — see [`crate::DensityPolicy`].
//!
//! The value slab stays one contiguous little-endian block (a `memcpy` on
//! little-endian targets). The representation tag is the paper's "extra
//! value at the beginning of each vector that indicates whether the vector
//! is dense or sparse" (§5.1).
//!
//! Decoding never trusts the peer. The declared entry count is checked
//! against the bytes that remain before anything is allocated, and the
//! indices are valid by construction. A gap cannot step backwards, every
//! varint is as short as its value allows and ends within five bytes, the
//! running index stays below `dim`, and the gap bytes must be consumed
//! exactly. A bitmap must lie inside `dim`, fill the frame exactly, hold
//! `nnz` set bits with the first and last bit of its span set and none
//! past it. Each support then has one encoding: a frame in the coding the
//! encoder would not have picked is rejected too. Every failure is a typed
//! [`StreamError`]; a frame of any other version — v3, which had no bitmap
//! index, included — is a [`StreamError::VersionMismatch`].

use std::marker::PhantomData;

use bytes::{Buf, Bytes};

use crate::error::StreamError;
use crate::scalar::Scalar;
use crate::soa::{SparseVec, SparseView};
use crate::stream::{Repr, SparseStream};

const MAGIC: u8 = 0xC5;
/// Current wire format version (gap-coded or bitmap index).
pub const WIRE_VERSION: u8 = 4;
const TAG_SPARSE: u8 = 0;
const TAG_DENSE: u8 = 1;
const TAG_BITMAP: u8 = 2;

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

/// Longest varint a `u32` gap needs.
const MAX_GAP_BYTES: usize = 5;
/// The continuation bit of each byte of an 8-byte word.
const CONTINUATION_BITS: u64 = 0x8080_8080_8080_8080;

/// Expected wire bytes of one sparse entry — its value plus its index —
/// in a stream whose support is uniform with the given `density`
/// (`nnz / dim`): the smaller of its gap varint and its share of a bitmap,
/// `1 / (8·density)` bytes. Gaps are geometric, `P(gap ≥ g) = (1 − d)^g`,
/// and a varint grows by one byte at each of 2^7, 2^14, 2^21 and 2^28.
/// This is what the cost model prices a pair at; the exact size of a given
/// stream is [`SparseStream::encoded_len`].
pub fn expected_entry_bytes(value_bytes: usize, density: f64) -> f64 {
    let density = density.clamp(0.0, 1.0);
    let gap_bytes: f64 = 1.0
        + [7, 14, 21, 28]
            .map(|bits| (1.0 - density).powi(1 << bits))
            .iter()
            .sum::<f64>();
    value_bytes as f64 + gap_bytes.min(1.0 / (8.0 * density))
}

/// "Previous index" of the first entry: one before zero, so that the first
/// gap is the index itself.
pub(crate) const BEFORE_FIRST: u32 = u32::MAX;

/// The gap that codes `idx` after `prev`: `idx − prev − 1`.
#[inline]
fn gap_after(prev: u32, idx: u32) -> u32 {
    idx.wrapping_sub(prev).wrapping_sub(1)
}

/// Bytes of the varint encoding `gap`.
#[inline]
fn gap_len(gap: u32) -> usize {
    1 + gap_extra_bytes(gap) as usize
}

/// Bytes the varint of `gap` takes past its first: one per 7-bit group
/// above the lowest. Shifts and `!= 0`, not `>=`: baseline x86-64 (SSE2)
/// has no unsigned vector compare, and a loop of these vectorizes.
#[inline]
fn gap_extra_bytes(gap: u32) -> u32 {
    u32::from(gap >> 7 != 0)
        + u32::from(gap >> 14 != 0)
        + u32::from(gap >> 21 != 0)
        + u32::from(gap >> 28 != 0)
}

/// The varint of `gap` in the low bytes of a little-endian word, and its
/// length. Branch-free: where one- and two-byte gaps interleave (densities
/// around 1 %) a byte-at-a-time loop mispredicts on every other entry.
#[inline]
fn gap_varint(gap: u32) -> (u64, usize) {
    let len = gap_len(gap);
    let gap = gap as u64;
    // Spread the five 7-bit groups over five bytes…
    let groups = (gap & 0x7F)
        | (gap & 0x7F << 7) << 1
        | (gap & 0x7F << 14) << 2
        | (gap & 0x7F << 21) << 3
        | (gap & 0x7F << 28) << 4;
    // …and set the continuation bit on all but the last one used.
    let continued = CONTINUATION_BITS & ((1 << (8 * (len - 1))) - 1);
    (groups | continued, len)
}

/// Gaps the encoder takes at a time: a run of this many single-byte gaps
/// is narrowed and stored as one 16-byte block.
const GAP_RUN: usize = 16;

/// Appends the varints of up to [`GAP_RUN`] gaps.
fn put_varints(gaps: &[u32], out: &mut Vec<u8>) {
    // Each varint is stored as a whole word and the next one overwrites
    // what it did not use, hence the last store's 3 spare bytes.
    let mut bytes = [0u8; GAP_RUN * MAX_GAP_BYTES + 3];
    let mut len = 0;
    for &gap in gaps {
        let (word, word_len) = gap_varint(gap);
        bytes[len..len + 8].copy_from_slice(&word.to_le_bytes());
        len += word_len;
    }
    out.extend_from_slice(&bytes[..len]);
}

/// Appends the gap-coded form of a strictly increasing index slab whose
/// entries follow `prev` ([`BEFORE_FIRST`] for a frame's first entry), so
/// a slab may be written a piece at a time. Returns the last index written
/// (`prev` when there was none).
pub(crate) fn write_gap_slab(prev: u32, indices: &[u32], out: &mut Vec<u8>) -> u32 {
    debug_assert!(indices.windows(2).all(|w| w[0] < w[1]));
    // One byte per gap is the floor and, wherever bandwidth matters, the
    // whole slab; sparser slabs grow the buffer once and a pooled buffer
    // keeps what it grew to. Reserving the 5-byte worst case would charge
    // every frame's footprint for a shape that does not occur.
    out.reserve(indices.len());
    let mut prev = prev;
    let mut chunks = indices.chunks_exact(GAP_RUN);
    for chunk in &mut chunks {
        // Fixed-size and free of a carried `prev`, so the gaps, their OR
        // and the narrowing below all vectorize.
        let chunk: &[u32; GAP_RUN] = chunk.try_into().expect("chunk of GAP_RUN");
        let mut run = [gap_after(prev, chunk[0]); GAP_RUN];
        for j in 1..GAP_RUN {
            run[j] = gap_after(chunk[j - 1], chunk[j]);
        }
        prev = chunk[GAP_RUN - 1];
        if run.iter().fold(0, |all, &gap| all | gap) < 0x80 {
            out.extend_from_slice(&run.map(|gap| gap as u8));
        } else {
            put_varints(&run, out);
        }
    }
    let rest = chunks.remainder();
    let mut tail = [0u32; GAP_RUN];
    for (gap, &idx) in tail.iter_mut().zip(rest) {
        *gap = gap_after(prev, idx);
        prev = idx;
    }
    put_varints(&tail[..rest.len()], out);
    prev
}

/// Decodes exactly `indices.len()` gap-coded indices from `slab`, which
/// must hold nothing else, into `indices`, and checks that a bitmap index
/// would not have been smaller. `frame_len` only labels a truncation
/// error.
fn read_gap_slab_into(
    slab: &[u8],
    indices: &mut [u32],
    dim: usize,
    frame_len: usize,
) -> Result<(), StreamError> {
    let nnz = indices.len();
    // The index a zero gap lands on next; u64 so that neither a 5-byte
    // varint nor index `u32::MAX` + 1 can overflow it.
    let mut next: u64 = 0;
    let mut pos = 0usize;
    let mut filled = 0usize;
    while filled < nnz {
        // Eight single-byte gaps at a time: no continuation bit in the
        // next 8 bytes and at least 8 entries still to come.
        if let (Some(word), true) = (slab.get(pos..pos + 8), nnz - filled >= 8) {
            let word: [u8; 8] = word.try_into().expect("slice of 8");
            if u64::from_le_bytes(word) & CONTINUATION_BITS == 0 {
                let mut run = [0u32; 8];
                let mut after = next;
                for (idx, gap) in run.iter_mut().zip(word) {
                    *idx = (after + gap as u64) as u32;
                    after += gap as u64 + 1;
                }
                // Indices only grow, so the last one in bounds means all
                // eight are; otherwise the varint path below names the
                // first offender.
                if after <= dim as u64 && after <= 1 << 32 {
                    indices[filled..filled + 8].copy_from_slice(&run);
                    filled += 8;
                    next = after;
                    pos += 8;
                    continue;
                }
            }
        }
        let mut gap: u64 = 0;
        for byte_no in 0.. {
            let Some(&byte) = slab.get(pos) else {
                return Err(StreamError::Truncated {
                    needed: frame_len + 1,
                    got: frame_len,
                });
            };
            pos += 1;
            gap |= ((byte & 0x7F) as u64) << (7 * byte_no);
            if byte & 0x80 == 0 {
                if byte == 0 && byte_no > 0 {
                    return Err(StreamError::Corrupt(
                        "index gap varint longer than its value",
                    ));
                }
                break;
            }
            if byte_no + 1 == MAX_GAP_BYTES {
                return Err(StreamError::Corrupt("index gap varint longer than 5 bytes"));
            }
        }
        let idx = u32::try_from(next + gap)
            .map_err(|_| StreamError::Corrupt("index gap runs past the u32 index range"))?;
        if idx as usize >= dim {
            return Err(StreamError::IndexOutOfBounds { idx, dim });
        }
        indices[filled] = idx;
        filled += 1;
        next = idx as u64 + 1;
    }
    if pos != slab.len() {
        return Err(StreamError::Corrupt("trailing bytes after sparse payload"));
    }
    if let (Some(&first), Some(&last)) = (indices.first(), indices.last()) {
        if bitmap_wins(nnz, first, last, || slab.len()) {
            return Err(StreamError::Corrupt(
                "gap slab where a bitmap index is smaller",
            ));
        }
    }
    Ok(())
}

/// Pairs whose extra bytes are summed in one `u32` (at most 4 each, so no
/// chunk can overflow it).
const GAP_COUNT_CHUNK: usize = 1 << 16;

/// Exact length of the gap slab of a strictly increasing index slab: one
/// byte per entry plus [`gap_extra_bytes`] of each gap, summed over
/// adjacent pairs in `u32` chunks so the loop vectorizes. The same length
/// as [`gap_slab_len`], which takes the indices one at a time.
pub(crate) fn gap_slab_len_of(indices: &[u32]) -> usize {
    let Some(&first) = indices.first() else {
        return 0;
    };
    let mut len = indices.len() + gap_extra_bytes(first) as usize;
    for (prev, next) in indices
        .chunks(GAP_COUNT_CHUNK)
        .zip(indices[1..].chunks(GAP_COUNT_CHUNK))
    {
        let extra: u32 = prev
            .iter()
            .zip(next)
            .map(|(&prev, &idx)| gap_extra_bytes(gap_after(prev, idx)))
            .sum();
        len += extra as usize;
    }
    len
}

/// Exact length of the gap slab of a strictly increasing index slab,
/// taken one index at a time (for indices that are not in one slice).
pub(crate) fn gap_slab_len(indices: impl IntoIterator<Item = u32>) -> usize {
    let mut prev = BEFORE_FIRST;
    indices
        .into_iter()
        .map(|idx| gap_len(gap_after(std::mem::replace(&mut prev, idx), idx)))
        .sum()
}

/// Bytes ahead of a bitmap index's bits: its base and its span.
const BITMAP_HEADER_LEN: usize = 16;

/// Slots of the bitmap index of a support from `first` to `last`.
#[inline]
fn bitmap_span(first: u32, last: u32) -> usize {
    (last - first) as usize + 1
}

/// Bytes of the bitmap index of a support from `first` to `last`.
#[inline]
fn bitmap_len(first: u32, last: u32) -> usize {
    BITMAP_HEADER_LEN + bitmap_span(first, last).div_ceil(8)
}

/// Whether the `nnz` indices from `first` to `last` travel with a bitmap
/// index: exactly when it is strictly smaller than their gap slab, whose
/// length `gap_slab` measures — asked for only where the lengths cannot
/// decide on their own. The encoder's choice and the decoder's check.
pub(crate) fn bitmap_wins(
    nnz: usize,
    first: u32,
    last: u32,
    gap_slab: impl FnOnce() -> usize,
) -> bool {
    let bitmap = bitmap_len(first, last);
    // Every gap takes a byte, so a bitmap shorter than `nnz` wins…
    if bitmap < nnz {
        return true;
    }
    // …and the slab takes at most `nnz` bytes plus 4 more for the first
    // index and one more per 128 slots of the span for the rest (a gap of
    // g ≥ 128 takes at most `1 + (g + 1) / 128` bytes), so a bitmap that
    // long loses.
    if nnz + 4 + (bitmap_span(first, last) - 1) / 128 <= bitmap {
        return false;
    }
    bitmap < gap_slab()
}

/// Turns the sparse frame that starts at `out[frame]`, header and value
/// slab written, into one with a bitmap index over `[first, last]`: sets
/// its tag and appends base, span and the bitmap. `fill` sets its bits in
/// a zeroed run of whole little-endian 64-slot words — slot `j` is bit
/// `j % 64` of word `j / 64` — of which the bytes the span covers are
/// kept.
pub(crate) fn put_bitmap_index(
    out: &mut Vec<u8>,
    frame: usize,
    first: u32,
    last: u32,
    fill: impl FnOnce(&mut [u8]),
) {
    let span = bitmap_span(first, last);
    out[frame + 3] = TAG_BITMAP;
    out.extend_from_slice(&(first as u64).to_le_bytes());
    out.extend_from_slice(&(span as u64).to_le_bytes());
    let at = out.len();
    out.resize(at + 8 * span.div_ceil(64), 0);
    fill(&mut out[at..]);
    out.truncate(at + span.div_ceil(8));
}

/// Appends the index of a strictly increasing index slab to the sparse
/// frame that starts at `out[frame]`, header and value slab written: a
/// bitmap where it is strictly smaller, else the gap slab.
fn write_index(indices: &[u32], frame: usize, out: &mut Vec<u8>) {
    match (indices.first(), indices.last()) {
        (Some(&first), Some(&last))
            if bitmap_wins(indices.len(), first, last, || gap_slab_len_of(indices)) =>
        {
            put_bitmap_index(out, frame, first, last, |words| {
                // A word is built in a register and stored whole after
                // every entry: no branch on where a word ends, and no
                // store read back.
                let (mut word, mut bits) = (0, 0u64);
                for &idx in indices {
                    let slot = (idx - first) as usize;
                    bits = if slot / 64 == word { bits } else { 0 } | 1 << (slot % 64);
                    word = slot / 64;
                    words[8 * word..8 * word + 8].copy_from_slice(&bits.to_le_bytes());
                }
            });
        }
        _ => {
            write_gap_slab(BEFORE_FIRST, indices, out);
        }
    }
}

/// The positions of the set bits of every byte value, lowest first, the
/// rest of the eight zero.
const BYTE_BITS: [[u8; 8]; 256] = {
    let mut table = [[0u8; 8]; 256];
    let mut byte = 0;
    while byte < 256 {
        let (mut bit, mut found) = (0, 0);
        while bit < 8 {
            if byte & 1 << bit != 0 {
                table[byte][found] = bit as u8;
                found += 1;
            }
            bit += 1;
        }
        byte += 1;
    }
    table
};

/// Writes the index of every set bit of a bitmap index based at `base`
/// into `indices`, in increasing order: one per set bit, exactly as many
/// as `indices` holds.
fn read_bitmap_into(base: u32, bits: &[u8], indices: &mut [u32]) {
    let mut n = 0;
    for (byte, &set) in bits.iter().enumerate() {
        let at = base.wrapping_add(8 * byte as u32);
        let offsets = &BYTE_BITS[set as usize];
        let found = set.count_ones() as usize;
        // All eight go out, branch-free, wherever the slab has room for
        // them; the entries after this byte's then overwrite the extra.
        if n + 8 <= indices.len() {
            let slots: &mut [u32; 8] = (&mut indices[n..n + 8]).try_into().expect("eight slots");
            for (slot, &bit) in slots.iter_mut().zip(offsets) {
                *slot = at.wrapping_add(bit as u32);
            }
        } else {
            for (slot, &bit) in indices[n..n + found].iter_mut().zip(offsets) {
                *slot = at + bit as u32;
            }
        }
        n += found;
    }
}

/// Checks the bitmap index `bits`, of `span` slots from `base`, against a
/// frame of `nnz` entries in dimension `dim` (see the module docs).
fn check_bitmap(
    nnz: usize,
    dim: usize,
    base: u64,
    span: u64,
    bits: &[u8],
) -> Result<(), StreamError> {
    if span == 0 {
        return Err(StreamError::Corrupt("empty bitmap index"));
    }
    let end = base
        .checked_add(span)
        .ok_or(StreamError::Corrupt("bitmap index overflows"))?;
    if end > dim as u64 || end > 1 << 32 {
        return Err(StreamError::Corrupt("bitmap index runs past the dimension"));
    }
    let ones: usize = bits.iter().map(|byte| byte.count_ones() as usize).sum();
    if ones != nnz {
        return Err(StreamError::Corrupt(
            "bitmap index holds another entry count",
        ));
    }
    let last = span as usize - 1;
    let (lead, tail) = (bits[0], bits[last / 8]);
    if lead & 1 == 0 || tail & (1 << (last % 8)) == 0 {
        return Err(StreamError::Corrupt(
            "bitmap index does not start and end on an entry",
        ));
    }
    if tail >> (last % 8) > 1 {
        return Err(StreamError::Corrupt("bitmap index sets bits past its span"));
    }
    let (first, last) = (base as u32, (end - 1) as u32);
    let gap_slab = || {
        let (mut prev, mut len) = (BEFORE_FIRST, 0);
        for (byte, &set) in bits.iter().enumerate() {
            for &bit in &BYTE_BITS[set as usize][..set.count_ones() as usize] {
                let idx = first + 8 * byte as u32 + bit as u32;
                len += gap_len(gap_after(prev, idx));
                prev = idx;
            }
        }
        len
    };
    if !bitmap_wins(nnz, first, last, gap_slab) {
        return Err(StreamError::Corrupt(
            "bitmap index where the gap slab is no larger",
        ));
    }
    Ok(())
}

fn put_header(out: &mut Vec<u8>, width: u8, tag: u8, dim: usize) {
    out.push(MAGIC);
    out.push(WIRE_VERSION);
    out.push(width);
    out.push(tag);
    out.extend_from_slice(&(dim as u64).to_le_bytes());
}

/// Appends the 20-byte header of a sparse frame of `nnz` entries to `out`
/// and returns where the frame starts; the value slab and then the index
/// follow.
pub(crate) fn begin_sparse_frame<V: Scalar>(dim: usize, nnz: usize, out: &mut Vec<u8>) -> usize {
    let frame = out.len();
    out.reserve(SPARSE_HEADER_LEN + nnz * (V::BYTES + 1));
    put_header(out, V::BYTES as u8, TAG_SPARSE, dim);
    out.extend_from_slice(&(nnz as u64).to_le_bytes());
    frame
}

/// Appends the sparse frame of `view` in a `dim`-dimensional space.
fn append_sparse<V: Scalar>(dim: usize, view: SparseView<'_, V>, out: &mut Vec<u8>) {
    let frame = begin_sparse_frame::<V>(dim, view.len(), out);
    V::write_slab_le(view.values(), out);
    write_index(view.indices(), frame, out);
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
        append_sparse(dim, view, out);
    }

    /// Encodes a dense value block as a full wire frame with
    /// `dim == values.len()` into `out` (cleared first, capacity reused) —
    /// used for partition blocks in the dense collectives.
    pub fn encode_dense_slice_into(values: &[V], out: &mut Vec<u8>) {
        out.clear();
        append_dense(values, out);
    }

    /// Exact byte length [`SparseStream::encode`] will produce (one
    /// vectorized pass over the index slab when sparse).
    pub fn encoded_len(&self) -> usize {
        match self.repr() {
            Repr::Sparse(sv) => {
                let indices = sv.indices();
                let gap_bytes = gap_slab_len_of(indices);
                let index_bytes = match (indices.first(), indices.last()) {
                    (Some(&first), Some(&last)) => gap_bytes.min(bitmap_len(first, last)),
                    _ => gap_bytes,
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
    /// (strictly increasing by construction), in the coding the encoder
    /// picks for them. Malformed frames yield typed
    /// [`StreamError`]s; a peer can never hand us a stream that violates
    /// the invariants.
    pub fn decode(bytes: &[u8]) -> Result<Self, StreamError> {
        let frame = WireFrame::<V>::parse(bytes)?;
        let mut values = vec![V::zero(); frame.stored_len()];
        let mut stream = SparseStream::zeros(frame.dim);
        match frame.body {
            Body::Sparse { .. } | Body::Bitmap { .. } => {
                let mut indices = vec![0u32; values.len()];
                frame.read_sparse_into(&mut indices, &mut values)?;
                stream.set_repr(Repr::Sparse(SparseVec::from_slabs(indices, values)));
            }
            Body::Dense { .. } => {
                frame.read_dense_into(&mut values)?;
                stream.set_repr(Repr::Dense(values));
            }
        }
        Ok(stream)
    }
}

/// The payload of a [`WireFrame`], its lengths already checked — and a
/// bitmap index all of it.
#[derive(Debug, Clone, Copy)]
enum Body<'a> {
    Sparse {
        nnz: usize,
        values: &'a [u8],
        gaps: &'a [u8],
    },
    Bitmap {
        nnz: usize,
        values: &'a [u8],
        base: u32,
        bits: &'a [u8],
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
    frame_len: usize,
    value: PhantomData<V>,
}

/// The body of a bitmap-indexed frame of `nnz` entries in a `dim`-dim
/// space, from `buf`, the `frame_len`-byte frame's bytes after its sparse
/// header: the value slab, base and span, and exactly the bitmap bytes the
/// span needs, which [`check_bitmap`] then checks.
fn bitmap_body<V: Scalar>(
    nnz: usize,
    dim: usize,
    buf: &[u8],
    frame_len: usize,
) -> Result<Body<'_>, StreamError> {
    let head = nnz
        .checked_mul(V::BYTES)
        .and_then(|values| values.checked_add(BITMAP_HEADER_LEN))
        .ok_or(StreamError::Corrupt("payload length overflow"))?;
    if buf.len() < head {
        return Err(StreamError::Truncated {
            needed: SPARSE_HEADER_LEN.saturating_add(head),
            got: frame_len,
        });
    }
    let (values, mut rest) = buf.split_at(head - BITMAP_HEADER_LEN);
    let (base, span) = (rest.get_u64_le(), rest.get_u64_le());
    let bytes = span.div_ceil(8);
    if (rest.len() as u64) < bytes {
        return Err(StreamError::Truncated {
            needed: (frame_len - rest.len()).saturating_add(bytes as usize),
            got: frame_len,
        });
    }
    if rest.len() as u64 > bytes {
        return Err(StreamError::Corrupt("trailing bytes after sparse payload"));
    }
    check_bitmap(nnz, dim, base, span, rest)?;
    Ok(Body::Bitmap {
        nnz,
        values,
        base: base as u32,
        bits: rest,
    })
}

impl<'a, V: Scalar> WireFrame<'a, V> {
    /// Checks `bytes` as one frame: magic, version, value width,
    /// representation tag, and payload length against the declared counts
    /// (a sparse entry is a value and one to five gap bytes, or a value
    /// and its bit of a bitmap the span sizes). A bitmap index is checked
    /// in full.
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
            TAG_SPARSE | TAG_BITMAP => {
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
                if tag == TAG_BITMAP {
                    bitmap_body::<V>(nnz, dim, buf, bytes.len())?
                } else {
                    // Every entry is a value and at least one gap byte, at
                    // most five: both ends are checked on lengths alone.
                    let shortest = nnz
                        .checked_mul(V::BYTES + 1)
                        .ok_or(StreamError::Corrupt("payload length overflow"))?;
                    if buf.remaining() < shortest {
                        return Err(StreamError::Truncated {
                            needed: SPARSE_HEADER_LEN + shortest,
                            got: bytes.len(),
                        });
                    }
                    if buf.remaining() - shortest > nnz * (MAX_GAP_BYTES - 1) {
                        return Err(StreamError::Corrupt("trailing bytes after sparse payload"));
                    }
                    let (values, gaps) = buf.split_at(nnz * V::BYTES);
                    Body::Sparse { nnz, values, gaps }
                }
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
            frame_len: bytes.len(),
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
            Body::Sparse { nnz, .. } | Body::Bitmap { nnz, .. } => nnz,
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
        let (Body::Sparse {
            nnz,
            values: value_slab,
            ..
        }
        | Body::Bitmap {
            nnz,
            values: value_slab,
            ..
        }) = self.body
        else {
            return Err(StreamError::Corrupt("expected a sparse frame"));
        };
        if indices.len() != nnz || values.len() != nnz {
            return Err(StreamError::SlabLengthMismatch {
                indices: indices.len(),
                values: values.len(),
            });
        }
        match self.body {
            Body::Sparse { gaps, .. } => {
                read_gap_slab_into(gaps, indices, self.dim, self.frame_len)?;
            }
            // The parse checked the bitmap: `nnz` bits, all below `dim`.
            Body::Bitmap { base, bits, .. } => {
                read_bitmap_into(base, bits, indices);
            }
            Body::Dense { .. } => unreachable!("matched above"),
        }
        V::read_slab_le_into(value_slab, values);
        Ok(())
    }

    /// Decodes a dense frame's values into `values`, which must be
    /// [`WireFrame::dim`] long.
    pub fn read_dense_into(&self, values: &mut [V]) -> Result<(), StreamError> {
        let Body::Dense { values: value_slab } = self.body else {
            return Err(StreamError::Corrupt("expected a dense frame"));
        };
        if values.len() != self.dim {
            return Err(StreamError::LengthMismatch {
                expected: self.dim,
                actual: values.len(),
            });
        }
        V::read_slab_le_into(value_slab, values);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{random_sparse, uniform_indices, XorShift64};

    /// A sparse f32 frame built by hand: header, value slab, raw gap bytes.
    fn raw_frame(dim: u64, nnz: u64, gap_bytes: &[u8]) -> Vec<u8> {
        let mut out = vec![MAGIC, WIRE_VERSION, 4, TAG_SPARSE];
        out.extend_from_slice(&dim.to_le_bytes());
        out.extend_from_slice(&nnz.to_le_bytes());
        // As many values as the frame can honestly hold.
        for i in 0..nnz.min(1 << 16) {
            out.extend_from_slice(&(i as f32).to_le_bytes());
        }
        out.extend_from_slice(gap_bytes);
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
        // 20 header + 2 × 4 values + gaps 3 (one byte) and 995 (two).
        assert_eq!(round_trip(&v).len(), 20 + 8 + 1 + 2);
    }

    #[test]
    fn dense_round_trip_f64() {
        let v = SparseStream::from_dense(vec![1.0f64, -2.0, 0.0, 3.5]);
        round_trip(&v);
    }

    #[test]
    fn frame_layout_is_values_then_gap_bytes() {
        let v =
            SparseStream::from_pairs(1000, &[(1, 1.0f32), (2, 2.0), (7, 3.0), (300, 4.0)]).unwrap();
        let bytes = v.encode();
        assert_eq!(bytes[1], WIRE_VERSION);
        assert_eq!(WIRE_VERSION, 4);
        let val_slab = &bytes[SPARSE_HEADER_LEN..SPARSE_HEADER_LEN + 16];
        assert_eq!(f32::read_slab_le(val_slab), vec![1.0, 2.0, 3.0, 4.0]);
        // First index 1, then 2−1−1 = 0, 7−2−1 = 4, 300−7−1 = 292 = 0x124
        // as the two-byte varint [0x24 | 0x80, 0x02].
        assert_eq!(&bytes[SPARSE_HEADER_LEN + 16..], &[1, 0, 4, 0xA4, 0x02]);
    }

    #[test]
    fn round_trips_on_both_sides_of_every_varint_boundary() {
        // Entry 0 sits at index 0, so the gap of entry 1 is `second − 1`.
        for (gap, len) in [
            (0u32, 1usize),
            (127, 1),
            (128, 2),
            (16_383, 2),
            (16_384, 3),
            ((1 << 21) - 1, 3),
            (1 << 21, 4),
            ((1 << 28) - 1, 4),
            (1 << 28, 5),
            (u32::MAX - 1, 5),
        ] {
            let v = SparseStream::from_pairs(1 << 32, &[(0, 1.0f32), (gap + 1, 2.0)]).unwrap();
            assert_eq!(round_trip(&v).len(), 20 + 8 + 1 + len, "gap {gap}");
            let w = SparseStream::from_pairs(1 << 32, &[(0, 1.0f64), (gap + 1, 2.0)]).unwrap();
            assert_eq!(round_trip(&w).len(), 20 + 16 + 1 + len, "gap {gap}");
            // The same boundaries for the first index, which is its own gap.
            let first = SparseStream::from_pairs(1 << 32, &[(gap, 1.0f32)]).unwrap();
            assert_eq!(round_trip(&first).len(), 20 + 4 + len, "first {gap}");
        }
    }

    #[test]
    fn round_trips_at_the_edges_of_the_index_space() {
        let dim = 1000;
        round_trip(&SparseStream::<f32>::zeros(dim));
        round_trip(&SparseStream::from_pairs(dim, &[(0, 1.0f32)]).unwrap());
        round_trip(&SparseStream::from_pairs(dim, &[(dim as u32 - 1, 1.0f64)]).unwrap());
        // The largest index a stream can hold, in the largest dimension.
        round_trip(&SparseStream::from_pairs(1 << 32, &[(u32::MAX, 1.0f32)]).unwrap());
        // Full density in sparse form: a bitmap of all ones, base and span
        // ahead of it.
        let full: Vec<(u32, f32)> = (0..dim as u32).map(|i| (i, i as f32)).collect();
        let full = SparseStream::from_pairs(dim, &full).unwrap();
        assert!(full.is_sparse());
        assert_eq!(round_trip(&full).len(), 20 + dim * 4 + 16 + dim / 8);
        // Mixed runs: single-byte stretches (the 8-at-a-time path) broken
        // by multi-byte gaps at every alignment, f32 and f64.
        for seed in 0..32 {
            round_trip(&random_sparse::<f32>(
                1 << 12,
                37 + 11 * seed as usize,
                seed,
            ));
            round_trip(&random_sparse::<f64>(1 << 20, 300 + seed as usize, seed));
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
        // A buffer that grew for multi-byte gaps keeps what it grew to.
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
    fn gap_slab_costs_about_one_byte_per_entry_where_bandwidth_matters() {
        // Seeded uniform supports in 2^20, f32, header excluded; v2 paid 8.
        let dim = 1 << 20;
        for (k, max_bytes_per_entry) in [(100_000usize, 5.01), (10_000, 5.35), (256, 6.05)] {
            let indices = uniform_indices(dim, k, &mut XorShift64::new(1));
            let v = SparseStream::from_slabs(dim, indices, vec![1.0f32; k]).unwrap();
            let per_entry = (v.encoded_len() - SPARSE_HEADER_LEN) as f64 / k as f64;
            assert!(per_entry <= max_bytes_per_entry, "k={k}: {per_entry}");
            assert!(per_entry >= 5.0, "k={k}: {per_entry}");
        }
    }

    #[test]
    fn expected_entry_bytes_follows_the_varint_boundaries() {
        // A full support is a bitmap of one bit an entry.
        assert_eq!(expected_entry_bytes(4, 1.0), 4.125);
        assert_eq!(expected_entry_bytes(8, 0.0), 13.0);
        // Past 1/8 the bitmap's 1/(8d) undercuts the one gap byte.
        assert_eq!(expected_entry_bytes(4, 0.125), 5.0);
        assert_eq!(expected_entry_bytes(4, 0.25), 4.5);
        assert!((expected_entry_bytes(4, 0.55) - (4.0 + 1.0 / 4.4)).abs() < 1e-12);
        // Mean gap 100: mostly one byte, (0.99)^128 of the time two.
        let e = expected_entry_bytes(4, 0.01);
        assert!((e - (5.0 + 0.99f64.powi(128))).abs() < 1e-9, "{e}");
        // Monotone: sparser streams never weigh less per entry.
        let mut last = 0.0;
        for exp in 0..12 {
            let e = expected_entry_bytes(4, 0.5f64.powi(3 * exp));
            assert!(e >= last, "{e} after {last}");
            last = e;
        }
        assert!(last > 8.9, "{last}");
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
        // Every proper prefix, the one that ends inside the last varint
        // included.
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
        for old in [1u8, 2, 3] {
            let mut bytes = v.encode().to_vec();
            bytes[1] = old;
            assert_eq!(
                SparseStream::<f32>::decode(&bytes).unwrap_err(),
                StreamError::VersionMismatch {
                    expected: 4,
                    actual: old
                }
            );
        }
    }

    #[test]
    fn a_gap_cannot_step_backwards_or_repeat_an_index() {
        // Unsorted and duplicate indices have no encoding: the smallest
        // gap, 0, is the next index up. Whatever the gap bytes say, the
        // decoded indices are strictly increasing.
        let frame = raw_frame(10, 3, &[4, 0, 0]);
        let v = SparseStream::<f32>::decode(&frame).unwrap();
        assert_eq!(v.sparse_view().unwrap().indices(), &[4, 5, 6]);
        // A varint padded with a zero continuation group would decode to
        // the same gap, so it is a second encoding of one support: the
        // decoder takes only the shortest.
        let err = SparseStream::<f32>::decode(&raw_frame(10, 2, &[0x81, 0x00, 0x02]));
        assert!(matches!(err, Err(StreamError::Corrupt(_))), "{err:?}");
        let v = SparseStream::<f32>::decode(&raw_frame(10, 2, &[0x01, 0x02])).unwrap();
        assert_eq!(v.sparse_view().unwrap().indices(), &[1, 4]);
    }

    #[test]
    fn decode_rejects_a_gap_that_reaches_or_passes_dim() {
        // To `dim` exactly, on the varint path and on the 8-at-a-time path.
        let err = SparseStream::<f32>::decode(&raw_frame(10, 2, &[1, 8])).unwrap_err();
        assert_eq!(err, StreamError::IndexOutOfBounds { idx: 10, dim: 10 });
        let err = SparseStream::<f32>::decode(&raw_frame(15, 8, &[0, 0, 0, 0, 0, 0, 0, 8]));
        assert_eq!(
            err.unwrap_err(),
            StreamError::IndexOutOfBounds { idx: 15, dim: 15 }
        );
        let err = SparseStream::<f32>::decode(&raw_frame(16, 9, &[0, 0, 0, 0, 0, 0, 0, 8, 0]));
        assert_eq!(
            err.unwrap_err(),
            StreamError::IndexOutOfBounds { idx: 16, dim: 16 }
        );
        // Past `dim`.
        let err = SparseStream::<f32>::decode(&raw_frame(10, 2, &[1, 0xFF, 0x7F])).unwrap_err();
        assert!(
            matches!(err, StreamError::IndexOutOfBounds { dim: 10, .. }),
            "{err:?}"
        );
        // Past `u32::MAX`: a 5-byte varint holds 35 bits, and two gaps of
        // 2^31 sum past the index type even when each fits.
        let max = [0xFF, 0xFF, 0xFF, 0xFF, 0x7F];
        let err = SparseStream::<f32>::decode(&raw_frame(1 << 40, 1, &max)).unwrap_err();
        assert!(matches!(err, StreamError::Corrupt(_)), "{err:?}");
        let half = [0x80, 0x80, 0x80, 0x80, 0x08];
        let two = [half, half].concat();
        let err = SparseStream::<f32>::decode(&raw_frame(1 << 40, 2, &two)).unwrap_err();
        assert!(matches!(err, StreamError::Corrupt(_)), "{err:?}");
    }

    #[test]
    fn decode_rejects_overlong_varints() {
        // Six bytes.
        let six = [0x80, 0x80, 0x80, 0x80, 0x80, 0x00];
        let err = SparseStream::<f32>::decode(&raw_frame(1 << 32, 2, &six)).unwrap_err();
        assert!(matches!(err, StreamError::Corrupt(_)), "{err:?}");
        // A continuation bit on the frame's final byte.
        let err = SparseStream::<f32>::decode(&raw_frame(1 << 32, 2, &[1, 0x85])).unwrap_err();
        assert!(matches!(err, StreamError::Truncated { .. }), "{err:?}");
    }

    #[test]
    fn decode_rejects_leftover_gap_bytes() {
        // Within the 5-bytes-per-entry length bound, so only consuming the
        // slab finds them.
        let err = SparseStream::<f32>::decode(&raw_frame(100, 2, &[1, 2, 3])).unwrap_err();
        assert!(matches!(err, StreamError::Corrupt(_)), "{err:?}");
        // `nnz = 0` owns no bytes at all.
        let err = SparseStream::<f32>::decode(&raw_frame(100, 0, &[0])).unwrap_err();
        assert!(matches!(err, StreamError::Corrupt(_)), "{err:?}");
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
        // One stray byte passes the length bounds and is found by the gap
        // decoder; five cannot belong to one entry.
        for extra in [1, 5] {
            bytes.extend(std::iter::repeat_n(0xFF, extra));
            let err = SparseStream::<f32>::decode(&bytes).unwrap_err();
            assert!(matches!(err, StreamError::Corrupt(_)), "{err:?}");
        }
    }

    /// A sparse f32 frame with a bitmap index, built by hand.
    fn raw_bitmap_frame(dim: u64, nnz: u64, base: u64, span: u64, bits: &[u8]) -> Vec<u8> {
        let mut out = raw_frame(dim, nnz, &[]);
        out[3] = TAG_BITMAP;
        out.extend_from_slice(&base.to_le_bytes());
        out.extend_from_slice(&span.to_le_bytes());
        out.extend_from_slice(bits);
        out
    }

    #[test]
    fn frame_layout_of_a_bitmap_index() {
        // Every other slot of [200, 259): 30 entries in a 59-slot span.
        let pairs: Vec<(u32, f32)> = (0..30).map(|i| (200 + 2 * i, i as f32)).collect();
        let v = SparseStream::from_pairs(1000, &pairs).unwrap();
        let bytes = round_trip(&v);
        assert_eq!(bytes[3], TAG_BITMAP);
        let index = &bytes[SPARSE_HEADER_LEN + 30 * 4..];
        assert_eq!(&index[..8], &200u64.to_le_bytes());
        assert_eq!(&index[8..16], &59u64.to_le_bytes());
        // Bits 0, 2, …, 58, low bit first: seven bytes of 0b0101_0101
        // and bits 56 and 58 in the eighth.
        assert_eq!(
            &index[16..],
            &[0x55, 0x55, 0x55, 0x55, 0x55, 0x55, 0x55, 0x05]
        );
        // 24 index bytes against 30 gap bytes.
        assert_eq!(bytes.len(), SPARSE_HEADER_LEN + 30 * 4 + 24);
        assert_eq!(
            bytes.as_ref(),
            raw_bitmap_frame(1000, 30, 200, 59, &index[16..])
        );
    }

    #[test]
    fn the_slice_count_is_the_length_the_gap_slab_writes() {
        let mut rng = XorShift64::new(0x6a95);
        let mut slabs: Vec<Vec<u32>> = vec![
            vec![],
            vec![0],
            vec![u32::MAX - 1],
            vec![u32::MAX - 1, u32::MAX],
            vec![0, u32::MAX - 1],
            // Past the count's u32 chunks, every gap a byte but one.
            (0..2 * GAP_COUNT_CHUNK as u32 + 3)
                .map(|i| 3 * i + u32::from(i > GAP_COUNT_CHUNK as u32) * 200)
                .collect(),
        ];
        // Seeded supports whose gaps — and first indices — sit on both
        // sides of each varint boundary 2^7, 2^14, 2^21 and 2^28.
        let straddle = |rng: &mut XorShift64| {
            let bits = [7, 14, 21, 28][rng.next_u64() as usize % 4];
            match rng.next_u64() % 3 {
                0 => (1u32 << bits) - 1,
                1 => 1 << bits,
                _ => rng.next_u64() as u32 % 128,
            }
        };
        for case in 0..2_000 {
            let first = match case % 4 {
                0 => 0,
                1 => u32::MAX - 1,
                2 => straddle(&mut rng),
                _ => rng.next_u64() as u32,
            };
            let mut slab = Vec::new();
            let mut next = Some(first);
            for _ in 0..rng.next_u64() % 80 {
                let Some(idx) = next else { break };
                slab.push(idx);
                next = idx
                    .checked_add(straddle(&mut rng))
                    .and_then(|i| i.checked_add(1));
            }
            slabs.push(slab);
        }
        for slab in &slabs {
            let mut written = Vec::new();
            write_gap_slab(BEFORE_FIRST, slab, &mut written);
            let head = &slab[..slab.len().min(8)];
            assert_eq!(gap_slab_len_of(slab), written.len(), "{head:?}…");
            assert_eq!(
                gap_slab_len(slab.iter().copied()),
                written.len(),
                "{head:?}…"
            );
        }
    }

    #[test]
    fn the_index_is_the_smaller_coding_at_every_density() {
        // Exactly the shorter of the two, ties to the gap slab.
        let check = |v: &SparseStream<f32>| {
            let bytes = round_trip(v);
            let view = v.sparse_view().unwrap();
            let gaps = gap_slab_len(view.indices().iter().copied());
            let index = match (view.indices().first(), view.indices().last()) {
                (Some(&first), Some(&last)) => gaps.min(bitmap_len(first, last)),
                _ => gaps,
            };
            assert_eq!(bytes.len(), SPARSE_HEADER_LEN + 4 * v.nnz() + index);
            assert_eq!(bytes[3] == TAG_BITMAP, index < gaps);
        };
        for nnz in (0..=4096).step_by(97) {
            check(&random_sparse::<f32>(4096, nnz, nnz as u64));
        }
        // Where the lengths alone cannot decide: every gap 0 or 128, so
        // the gap slab is a byte an entry and one more per long gap.
        let support = |long: u32, short_per_long: u32| {
            let mut at = 0u32;
            let mut pairs = vec![(at, 1.0f32)];
            for _ in 0..long {
                for _ in 0..short_per_long {
                    at += 1;
                    pairs.push((at, 1.0));
                }
                at += 129;
                pairs.push((at, 1.0));
            }
            SparseStream::from_pairs(1 << 20, &pairs).unwrap()
        };
        // 100 long gaps and 1 700 short: 1 801 entries, a 1 901-byte gap
        // slab and a 1 842-byte bitmap index.
        let v = support(100, 17);
        assert_eq!((v.nnz(), bitmap_len(0, 14_600)), (1_801, 1_842));
        check(&v);
        assert_eq!(v.encode()[3], TAG_BITMAP);
        // 2 000 long gaps and 16 short ones to each: 34 001 entries, a
        // 36 001-byte gap slab and a 36 267-byte bitmap index.
        let v = support(2_000, 16);
        assert_eq!((v.nnz(), bitmap_len(0, 290_000)), (34_001, 36_267));
        check(&v);
        assert_eq!(v.encode()[3], TAG_SPARSE);
        // Its bitmap form is the longer coding, which only the measured
        // gap slab shows: the decoder rejects it.
        let mut bits = vec![0u8; 290_001usize.div_ceil(8)];
        for &idx in v.sparse_view().unwrap().indices() {
            bits[idx as usize / 8] |= 1 << (idx % 8);
        }
        let frame = raw_bitmap_frame(1 << 20, 34_001, 0, 290_001, &bits);
        assert_eq!(
            SparseStream::<f32>::decode(&frame),
            Err(StreamError::Corrupt(
                "bitmap index where the gap slab is no larger"
            ))
        );
    }

    #[test]
    fn hostile_bitmap_frames_are_typed_errors() {
        // 40 entries in the 40 slots from 100: the frame the encoder
        // writes for them is the first one here.
        let full = [0xFF; 5];
        let honest = raw_bitmap_frame(1000, 40, 100, 40, &full);
        let v = SparseStream::<f32>::decode(&honest).unwrap();
        assert_eq!(v.encode().as_ref(), &honest[..]);
        let corrupt = |what: &str, frame: Vec<u8>| {
            let err = SparseStream::<f32>::decode(&frame).unwrap_err();
            assert!(matches!(err, StreamError::Corrupt(_)), "{what}: {err:?}");
        };
        corrupt("an empty span", raw_bitmap_frame(1000, 40, 100, 0, &[]));
        corrupt("past dim", raw_bitmap_frame(130, 40, 100, 40, &full));
        let huge = raw_bitmap_frame(u64::MAX, 40, u64::MAX - 4, 40, &full);
        corrupt("base + span overflowing", huge);
        let wide = raw_bitmap_frame(1 << 40, 40, (1 << 32) - 8, 40, &full);
        corrupt("past the u32 index range", wide);
        let short = [0xFF, 0xFF, 0xFB, 0xFF, 0xFF];
        corrupt("one bit short", raw_bitmap_frame(1000, 40, 100, 40, &short));
        corrupt("one bit over", raw_bitmap_frame(1000, 39, 100, 40, &full));
        let first_clear = [0xFE, 0xFF, 0xFF, 0xFF, 0xFF];
        corrupt(
            "first bit clear",
            raw_bitmap_frame(1000, 39, 100, 40, &first_clear),
        );
        let last_clear = [0xFF, 0xFF, 0xFF, 0xFF, 0x7F];
        corrupt(
            "last bit clear",
            raw_bitmap_frame(1000, 39, 100, 40, &last_clear),
        );
        corrupt(
            "a bit past the span",
            raw_bitmap_frame(1000, 40, 100, 39, &full),
        );
        let mut trailing = honest.clone();
        trailing.push(0);
        corrupt("trailing bytes", trailing);
        // A bitmap no shorter than the gap slab: 12 bytes of gaps for 12
        // entries in 20 slots, 19 bytes of bitmap index.
        corrupt(
            "the longer coding",
            raw_bitmap_frame(1000, 12, 100, 20, &[0xFF, 0x07, 0x08]),
        );
        // And a gap slab the bitmap undercuts: 30 one-byte gaps against
        // 20 bytes of index.
        corrupt("a gap slab", raw_frame(1000, 30, &[0; 30]));
        // Every proper prefix is a truncation.
        for cut in 0..honest.len() {
            let err = SparseStream::<f32>::decode(&honest[..cut]).unwrap_err();
            assert!(
                matches!(err, StreamError::Truncated { .. }),
                "cut {cut}: {err:?}"
            );
        }
        // A span too wide for the frame truncates before anything is read.
        let err = SparseStream::<f32>::decode(&raw_bitmap_frame(1000, 12, 0, 1 << 40, &[1]));
        assert!(matches!(err, Err(StreamError::Truncated { .. })), "{err:?}");
    }

    #[test]
    fn mutated_frames_never_panic_the_decoder() {
        let valid = [
            // One-byte runs long enough for the 8-at-a-time path.
            random_sparse::<f32>(512, 200, 5).encode().to_vec(),
            // Two- and three-byte gaps.
            random_sparse::<f32>(1 << 22, 40, 6).encode().to_vec(),
            // The top of the index space.
            SparseStream::from_pairs(1 << 32, &[(7, 1.0f32), (u32::MAX, 2.0)])
                .unwrap()
                .encode()
                .to_vec(),
            SparseStream::<f32>::zeros(64).encode().to_vec(),
            SparseStream::from_dense(vec![1.0f32; 16]).encode().to_vec(),
            // Bitmap-coded: 30 % and 55 % dense, and full at the top of
            // the index space.
            random_sparse::<f32>(512, 154, 7).encode().to_vec(),
            random_sparse::<f32>(300, 165, 8).encode().to_vec(),
            SparseStream::from_slabs(
                1 << 32,
                (u32::MAX - 39..=u32::MAX).collect(),
                vec![1.0f32; 40],
            )
            .unwrap()
            .encode()
            .to_vec(),
        ];
        assert!(valid[5..].iter().all(|frame| frame[3] == TAG_BITMAP));
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
            check(&bytes);
            cases += 1;
        }
        assert!(cases >= 4000, "{cases}");
    }
}
