//! Wire encoding of sparse streams — frame layout **v5** (gap-coded or
//! Elias–Fano index).
//!
//! Layout (all little-endian):
//!
//! ```text
//! [0]        magic 0xSC (0xC5)
//! [1]        format version (5)
//! [2]        value width in bytes (4 = f32, 8 = f64)
//! [3]        representation tag: 0 = sparse with gap bytes, 1 = dense,
//!            2 = sparse with an Elias–Fano index
//! [4..12]    dim  (u64)
//! [12..20]   nnz  (u64, sparse only; dense payload length is dim)
//! payload    tag 0: nnz × value slab, then the gap bytes to the end of
//!                   the frame
//!            tag 1: dim × value slab
//!            tag 2: nnz × value slab, then L (u8) and base (u32), then
//!                   ⌈nnz·L / 8⌉ bytes of low bits, then the upper
//!                   bitvector to the end of the frame
//! ```
//!
//! The gap-coded index slab holds the first index, then
//! `index − previous − 1` for every later entry, each as an LEB128 varint
//! (7 payload bits per byte, low bits first, high bit set on every byte
//! but the last): one byte below 128, two below 16 384, at most five. The
//! gap bytes run to the end of the frame, so the frame needs no length
//! field for them and a trailer a schedule appends after the frame still
//! splits off as `frame[..len − trailer]`.
//!
//! The Elias–Fano index (Elias, JACM 1974; Vigna, "Quasi-succinct
//! indices", WSDM 2013) codes the `n` indices from `base`, the first, as
//! `x_i = index_i − base − i`, which never decreases; an index is then
//! `base + x_i + i`, strictly increasing by construction. The low `L` bits
//! of every `x_i` are packed little-endian, entry `i` at bit `i·L`; the
//! upper bitvector sets bit `(x_i >> L) + i` for each entry and ends with
//! the byte of the last one, so a trailer still splits off. An entry costs
//! `L + 1` bits and one per `2^L` its `x` grows: `⌊log2(U/n)⌋ + ≤ 2` bits
//! over `U` slots. `L` is the smaller-sized of `⌊log2((x_last + 1) / n)⌋`
//! and one more, ties to the lower. At `L = 0` the upper bitvector is a
//! bitmap of the slots from the first index to the last.
//!
//! The encoder takes the Elias–Fano index unless the gap slab is strictly
//! smaller, which only clustered runs make it. Both lengths follow from
//! `(n, first, last)` but for the gap slab's: it is measured only where
//! the index costs more than a byte an entry, the least a gap takes.
//! [`expected_entry_bytes`] is the price of an entry as a function of
//! density and [`SparseStream::encoded_len`] the exact size of one stream.
//! The in-memory layout is untouched (`Vec<u32>` ∥ `Vec<V>`), and so is δ —
//! see [`crate::DensityPolicy`].
//!
//! The value slab stays one contiguous little-endian block (a `memcpy` on
//! little-endian targets). The representation tag is the paper's "extra
//! value at the beginning of each vector that indicates whether the vector
//! is dense or sparse" (§5.1).
//!
//! Decoding never trusts the peer. Every declared count is checked against
//! the bytes that remain before anything is allocated. A gap cannot step
//! backwards, every varint is as short as its value allows and ends within
//! five bytes, the running index stays below `dim`, and the gap bytes must
//! be consumed exactly. An Elias–Fano index must have `L ≤ 31`, zero
//! padding after its low bits, exactly `n` ones in its upper bitvector with
//! the last in its final byte, a first entry at its base, `x` that never
//! decrease and a last index below `dim`. Each support then has one
//! encoding: a frame in a coding or with an `L` the encoder would not have
//! picked is rejected too. Every failure is a typed [`StreamError`]; a
//! frame of any other version — v4, whose tag 2 was a bitmap index,
//! included — is a [`StreamError::VersionMismatch`].

use std::marker::PhantomData;

use bytes::{Buf, Bytes};

use crate::error::StreamError;
use crate::scalar::Scalar;
use crate::soa::{SparseVec, SparseView};
use crate::stream::{Repr, SparseStream};

const MAGIC: u8 = 0xC5;
/// Current wire format version (gap-coded or Elias–Fano index).
pub const WIRE_VERSION: u8 = 5;
const TAG_SPARSE: u8 = 0;
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

/// Longest varint a `u32` gap needs.
const MAX_GAP_BYTES: usize = 5;
/// The continuation bit of each byte of an 8-byte word.
const CONTINUATION_BITS: u64 = 0x8080_8080_8080_8080;

/// Expected wire bytes of one sparse entry — its value plus its index —
/// in a stream whose support is uniform with the given `density`
/// (`nnz / dim`): the smaller of its gap varint and its share of an
/// Elias–Fano index. Gaps are geometric, `P(gap ≥ g) = (1 − d)^g`, and a
/// varint grows by one byte at each of 2^7, 2^14, 2^21 and 2^28. An
/// Elias–Fano entry's `x` grows by `g = 1/d − 1` on average, so it costs
/// `L + 1 + g / 2^L` bits, `L` the smaller-sized of `⌊log2 g⌋` and one
/// more; at full density that is the one bit of a bitmap. This is what the
/// cost model prices a pair at; the exact size of a given stream is
/// [`SparseStream::encoded_len`].
pub fn expected_entry_bytes(value_bytes: usize, density: f64) -> f64 {
    let density = density.clamp(0.0, 1.0);
    let gap_bytes: f64 = 1.0
        + [7, 14, 21, 28]
            .map(|bits| (1.0 - density).powi(1 << bits))
            .iter()
            .sum::<f64>();
    let g = 1.0 / density - 1.0;
    let l = g.max(1.0).log2().floor().min(30.0);
    let ef_bits = |l: f64| l + 1.0 + g / l.exp2();
    value_bytes as f64 + gap_bytes.min(ef_bits(l).min(ef_bits(l + 1.0)) / 8.0)
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
/// must hold nothing else, into `indices`, and checks that an Elias–Fano
/// index would have been larger. `frame_len` only labels a truncation
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
        if pick_index(nnz, first, last, || slab.len()).0.is_some() {
            return Err(StreamError::Corrupt("gap slab no smaller than Elias–Fano"));
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

/// Exact length of the gap slab of strictly increasing indices that
/// follow `prev` ([`BEFORE_FIRST`] for a frame's first entry), taken one
/// index at a time (for indices that are not in one slice).
pub(crate) fn gap_slab_len(prev: u32, indices: impl IntoIterator<Item = u32>) -> usize {
    let mut prev = prev;
    indices
        .into_iter()
        .map(|idx| gap_len(gap_after(std::mem::replace(&mut prev, idx), idx)))
        .sum()
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

/// The canonical `L` of `n` entries whose last `x` is `top`.
fn ef_low_bits(n: usize, top: u64) -> u32 {
    let l = ((top + 1) / n as u64).checked_ilog2().unwrap_or(0);
    let size = |l| {
        let (low, upper) = ef_parts(n, top, l);
        low + upper
    };
    l + u32::from(size(l + 1) < size(l))
}

/// The index coding of `n ≥ 1` strictly increasing indices from `first`
/// to `last`, and its length in bytes: `Some(L)` for the Elias–Fano index,
/// `None` for the gap slab, which `gap_slab` measures — asked for only
/// where the Elias–Fano index is longer than the first varint and a byte
/// per later entry, the least a gap slab takes. The encoder's choice and
/// the decoder's check.
pub(crate) fn pick_index(
    n: usize,
    first: u32,
    last: u32,
    gap_slab: impl FnOnce() -> usize,
) -> (Option<u32>, usize) {
    let top = ef_top(n, first, last);
    let l = ef_low_bits(n, top);
    let (low, upper) = ef_parts(n, top, l);
    let ef = EF_HEAD_LEN + low + upper;
    let gaps = (ef >= gap_len(first) + n).then(gap_slab).unwrap_or(ef);
    ((gaps >= ef).then_some(l), gaps.min(ef))
}

/// Turns the sparse frame at `out[frame]`, header and values written, into
/// one with the Elias–Fano index of `n` indices from `first` to `last`, `l`
/// low bits each. `fill` writes into zeroed low bits with 8 bytes to spare
/// and whole little-endian upper words (bit `p` is bit `p % 64` of word
/// `p / 64`), whose bytes up to the last one then move down.
pub(crate) fn put_ef_index(
    out: &mut Vec<u8>,
    frame: usize,
    (n, first, last): (usize, u32, u32),
    l: u32,
    fill: impl FnOnce((&mut [u8], &mut [u8])),
) {
    let (low, upper) = ef_parts(n, ef_top(n, first, last), l);
    // Exactly: a pooled buffer keeps what it grew to.
    out.reserve_exact(EF_HEAD_LEN + low + 8 + 8 * upper.div_ceil(8));
    out[frame + 3] = TAG_ELIAS_FANO;
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

/// Appends the index of a strictly increasing index slab to the sparse
/// frame that starts at `out[frame]`, header and value slab written: the
/// Elias–Fano index unless the gap slab is strictly smaller.
fn write_index(indices: &[u32], frame: usize, out: &mut Vec<u8>) {
    let (Some(&first), Some(&last)) = (indices.first(), indices.last()) else {
        return;
    };
    let n = indices.len();
    match pick_index(n, first, last, || gap_slab_len_of(indices)) {
        (Some(l), _) => put_ef_index(out, frame, (n, first, last), l, |bits| {
            write_ef_bits(bits, first, l, |put| indices.chunks(EF_BLOCK).for_each(put))
        }),
        (None, _) => {
            write_gap_slab(BEFORE_FIRST, indices, out);
        }
    }
}

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
    (l, base, bits, low_len): (u32, u32, &[u8], usize),
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
) -> Result<(u32, u32, &[u8], usize), StreamError> {
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
    if ef_low_bits(nnz, top) != l {
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
    /// entry count and the first and last index, and a vectorized pass
    /// over the index slab only where the gap slab may be the smaller.
    pub fn encoded_len(&self) -> usize {
        match self.repr() {
            Repr::Sparse(sv) => {
                let indices = sv.indices();
                let index_bytes = match (indices.first(), indices.last()) {
                    (Some(&first), Some(&last)) => {
                        pick_index(indices.len(), first, last, || gap_slab_len_of(indices)).1
                    }
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
    /// (strictly increasing by construction), in the coding the encoder
    /// picks for them. Malformed frames yield typed
    /// [`StreamError`]s; a peer can never hand us a stream that violates
    /// the invariants.
    pub fn decode(bytes: &[u8]) -> Result<Self, StreamError> {
        let frame = WireFrame::<V>::parse(bytes)?;
        let mut values = vec![V::zero(); frame.stored_len()];
        let mut stream = SparseStream::zeros(frame.dim);
        match frame.body {
            Body::Sparse { .. } | Body::EliasFano { .. } => {
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

/// The payload of a [`WireFrame`], its lengths already checked — and an
/// Elias–Fano index all of it but its order.
#[derive(Debug, Clone, Copy)]
enum Body<'a> {
    Sparse {
        nnz: usize,
        values: &'a [u8],
        gaps: &'a [u8],
    },
    EliasFano {
        nnz: usize,
        values: &'a [u8],
        index: (u32, u32, &'a [u8], usize),
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

/// The body of an Elias–Fano-indexed frame of `nnz` entries in a
/// `dim`-dim space, from `buf`, the `frame_len`-byte frame's bytes after
/// its sparse header: the value slab, then the index [`check_ef`] checks.
fn ef_body<V: Scalar>(
    nnz: usize,
    dim: usize,
    buf: &[u8],
    frame_len: usize,
) -> Result<Body<'_>, StreamError> {
    if nnz == 0 {
        return Err(StreamError::Corrupt("Elias–Fano index of no entries"));
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
    /// (a sparse entry is a value and one to five gap bytes, or a value
    /// and its bits of an Elias–Fano index). An Elias–Fano index is
    /// checked in full but for its order, which the read checks.
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
            TAG_SPARSE | TAG_ELIAS_FANO => {
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
                if tag == TAG_ELIAS_FANO {
                    ef_body::<V>(nnz, dim, buf, bytes.len())?
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
            Body::Sparse { nnz, .. } | Body::EliasFano { nnz, .. } => nnz,
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
        | Body::EliasFano {
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
            Body::EliasFano { index, .. } => {
                read_ef_into(index, indices)?;
                // `nnz ≥ 1`: the parse rejects an empty index.
                let (first, last) = (indices[0], indices[nnz - 1]);
                let (coding, _) = pick_index(nnz, first, last, || gap_slab_len_of(indices));
                if coding.is_none() {
                    return Err(StreamError::Corrupt(
                        "Elias–Fano where the gap slab is smaller",
                    ));
                }
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
    use crate::gen::{clustered_sparse, random_sparse, uniform_indices, XorShift64};

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
        assert_eq!(WIRE_VERSION, 5);
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
        // Full density in sparse form: an Elias–Fano index of no low bits,
        // a bitmap of all ones, with L and the base ahead of it.
        let full: Vec<(u32, f32)> = (0..dim as u32).map(|i| (i, i as f32)).collect();
        let full = SparseStream::from_pairs(dim, &full).unwrap();
        assert!(full.is_sparse());
        assert_eq!(round_trip(&full).len(), 20 + dim * 4 + 5 + dim / 8);
        // Uniform supports of every low-bit width, and clustered runs: one-byte
        // gap stretches broken by multi-byte gaps at every alignment.
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
    fn expected_entry_bytes_follows_the_varint_boundaries() {
        // A full support is a bitmap of one bit an entry, and so is any
        // support past 1/2: no low bits, `1 + g` upper bits.
        assert_eq!(expected_entry_bytes(4, 1.0), 4.125);
        assert!((expected_entry_bytes(4, 0.55) - (4.0 + 1.0 / 4.4)).abs() < 1e-12);
        // An empty one is the five-byte varint.
        assert_eq!(expected_entry_bytes(8, 0.0), 13.0);
        // g = 3 and 7: L = 1 and 2, 3.5 and 4.75 bits.
        assert_eq!(expected_entry_bytes(4, 0.25), 4.4375);
        assert_eq!(expected_entry_bytes(4, 0.125), 4.59375);
        // Mean gap 100: L = 6, 6 + 1 + 99/64 bits, under the gap's
        // 1 + (0.99)^128 bytes.
        let e = expected_entry_bytes(4, 0.01);
        assert!((e - (4.0 + (7.0 + 99.0 / 64.0) / 8.0)).abs() < 1e-9, "{e}");
        assert!(e < 5.0 + 0.99f64.powi(128));
        // Monotone: sparser streams never weigh less per entry, nor more
        // than a five-byte varint.
        let mut last = 0.0;
        for exp in 0..12 {
            let e = expected_entry_bytes(4, 0.5f64.powi(3 * exp));
            assert!(e >= last, "{e} after {last}");
            last = e;
        }
        assert!(last > 8.4 && last <= 9.0, "{last}");
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
        for old in [1u8, 2, 3, 4] {
            let mut bytes = v.encode().to_vec();
            bytes[1] = old;
            assert_eq!(
                SparseStream::<f32>::decode(&bytes).unwrap_err(),
                StreamError::VersionMismatch {
                    expected: 5,
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

    /// A sparse f32 frame with an Elias–Fano index, built by hand.
    fn raw_ef_frame(dim: u64, nnz: u64, l: u8, base: u32, bits: &[u8]) -> Vec<u8> {
        let mut out = raw_frame(dim, nnz, &[l]);
        out[3] = TAG_ELIAS_FANO;
        out.extend_from_slice(&base.to_le_bytes());
        out.extend_from_slice(bits);
        out
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
        let bits = [0xAA, 0xAA, 0xA5, 0x94, 0x52, 0x4A, 0x29];
        assert_eq!(bytes.as_ref(), raw_ef_frame(1000, 16, 1, 200, &bits));
        // 12 index bytes against 17 gap bytes.
        assert_eq!(bytes.len(), SPARSE_HEADER_LEN + 16 * 4 + 12);
        // Every other slot of [200, 259): no low bits, and the upper bits
        // are v4's bitmap of the span, bit j for index 200 + j.
        let pairs: Vec<(u32, f32)> = (0..30).map(|i| (200 + 2 * i, i as f32)).collect();
        let bytes = round_trip(&SparseStream::from_pairs(1000, &pairs).unwrap());
        let bitmap = [0x55, 0x55, 0x55, 0x55, 0x55, 0x55, 0x55, 0x05];
        assert_eq!(bytes.as_ref(), raw_ef_frame(1000, 30, 0, 200, &bitmap));
        // Every index is the oracle's bits, which at L = 0 set bit `idx −
        // first` for each entry: that bitmap.
        let mut widths = [0usize; 32];
        for (case, nnz) in (1..=4096).step_by(37).enumerate() {
            let v = random_sparse::<f32>(1 << (12 + case % 12), nnz, case as u64);
            let bytes = round_trip(&v);
            let indices = v.sparse_view().unwrap().indices();
            if bytes[3] != TAG_ELIAS_FANO {
                continue;
            }
            let index = &bytes[SPARSE_HEADER_LEN + 4 * nnz..];
            let l = u32::from(index[0]);
            widths[l as usize] += 1;
            assert_eq!(&index[1..5], &indices[0].to_le_bytes());
            assert_eq!(&index[5..], ef_oracle(indices, l), "nnz {nnz}, L {l}");
        }
        assert!(widths[..10].iter().all(|&n| n > 0), "{widths:?}");
    }

    #[test]
    fn the_index_is_the_smaller_coding_ties_to_elias_fano() {
        let check = |v: &SparseStream<f32>| {
            let bytes = round_trip(v);
            let indices = v.sparse_view().unwrap().indices();
            let (n, gaps) = (
                indices.len(),
                gap_slab_len(BEFORE_FIRST, indices.iter().copied()),
            );
            let top = ef_top(n, indices[0], indices[n - 1]);
            let (low, upper) = ef_parts(n, top, ef_low_bits(n, top));
            let ef = EF_HEAD_LEN + low + upper;
            assert_eq!(bytes.len(), SPARSE_HEADER_LEN + 4 * n + gaps.min(ef));
            assert_eq!(bytes[3] == TAG_SPARSE, gaps < ef);
            bytes[3]
        };
        for nnz in (1..=4096).step_by(97) {
            check(&random_sparse::<f32>(4096, nnz, nnz as u64));
        }
        // Clustered runs are where a gap slab wins: a byte per entry in
        // a run, against L ≈ log2 of the mean distance.
        let mut gap_coded = 0;
        for seed in 0..64 {
            let v = clustered_sparse::<f32>(1 << 20, 40 + 7 * seed, 1 + seed / 4, seed as u64);
            gap_coded += usize::from(check(&v) == TAG_SPARSE);
        }
        assert!(gap_coded > 16, "{gap_coded}");
        // Eight entries 166 apart: a 15-byte gap slab and a 15-byte
        // Elias–Fano index (L = 7) tie, and the tie goes to Elias–Fano.
        let pairs: Vec<(u32, f32)> = (0..8).map(|i| (166 * i, 1.0)).collect();
        let v = SparseStream::from_pairs(1 << 20, &pairs).unwrap();
        assert_eq!(v.encoded_len(), SPARSE_HEADER_LEN + 32 + 15);
        assert_eq!(check(&v), TAG_ELIAS_FANO);
        assert_eq!(v.encode()[SPARSE_HEADER_LEN + 32], 7);
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
        let mut gaps = vec![0xC8, 0x01];
        gaps.extend([3; 15]);
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
            // two share their upper bits and their low bits fall.
            (
                "x stepping back",
                raw_ef_frame(1000, 3, 1, 100, &[0x02, 0x61]),
            ),
            // The coding that is larger, or no smaller: two adjacent
            // entries take 2 gap bytes; the support above 17.
            ("the longer coding", raw_ef_frame(1000, 2, 0, 100, &[0x03])),
            ("a gap slab no smaller", raw_frame(1000, 16, &gaps)),
            ("no entries", raw_ef_frame(1000, 0, 0, 0, &[])),
        ] {
            assert!(
                matches!(err(&frame), StreamError::Corrupt(_)),
                "{what}: {:?}",
                err(&frame)
            );
        }
        let past_dim = raw_ef_frame(260, 16, 1, 200, bits);
        assert_eq!(
            err(&past_dim),
            StreamError::IndexOutOfBounds { idx: 260, dim: 260 }
        );
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
                gap_slab_len(BEFORE_FIRST, slab.iter().copied()),
                written.len(),
                "{head:?}…"
            );
        }
    }

    #[test]
    fn mutated_frames_never_panic_the_decoder() {
        let full = (u32::MAX - 39..=u32::MAX).collect();
        let valid = [
            // Gap-coded clustered runs: one-byte stretches long enough for
            // the 8-at-a-time path, broken by two- and three-byte gaps.
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
        assert!(valid[..3].iter().all(|frame| frame[3] == TAG_SPARSE));
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
            let ef = bytes[3] == TAG_ELIAS_FANO;
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
