//! Summing many sub-ranges of one partition in a dense window: the split
//! phase's sparse accumulator.
//!
//! An owner in the split phase (§5.3.2) sums the `P` sub-ranges of its
//! partition `[lo, hi)`, one from every rank. Merging them pairwise re-walks
//! the partial sums `⌈log2 P⌉` times; [`WindowSum`] instead scatters every
//! entry once into a zero-initialised value window over the partition and
//! marks its slot in an occupancy bitmap, one bit per slot, with one summary
//! bit per bitmap word — the sparse accumulator of Gilbert, Moler &
//! Schreiber ("Sparse matrices in MATLAB: design and implementation", SIAM
//! J. Matrix Anal. Appl. 13(1), 1992). `n` entries in cost `n` scatters
//! whatever `P` is, and the sum is never densified: the support comes back
//! out in index order by walking the summary bits to the touched bitmap
//! words and their set bits, so reading it costs the entries plus the words
//! visited, not the window's width.
//!
//! Every slot sums its entries in the order the sub-ranges were added, so
//! adding them in rank order gives the sequential sum, bit for bit. A slot
//! an entry lands in first takes its value as it is, as a merge copies an
//! entry only one side holds.
//!
//! A running sum that is added to many times, mostly on its own support,
//! keeps its values packed instead: see [`crate::RankedSum`], which shares
//! this module's bitmap, its checks and its index writer.

use crate::error::StreamError;
use crate::partition::PartRange;
use crate::scalar::Scalar;
use crate::soa::SparseVec;
use crate::stream::{Repr, SparseStream};
use crate::wire::{
    begin_sparse_frame, gap_slab_len, pick_index, put_ef_index, write_ef_bits, write_gap_slab,
    BEFORE_FIRST, EF_BLOCK,
};

/// Slots per occupancy word, and occupancy words per summary word.
pub(crate) const WORD_BITS: usize = u64::BITS as usize;

/// The sum of streams supported inside one index window `[lo, hi)` of a
/// `dim`-dimensional space, kept as a dense value window plus an occupancy
/// bitmap (see the module docs).
///
/// A slot is occupied once any added stream stores an entry there, even a
/// zero one, so the support is the union of the added supports — what a
/// sorted merge of the same streams keeps.
#[derive(Debug, Clone)]
pub struct WindowSum<V: Scalar> {
    dim: usize,
    range: PartRange,
    /// Slot `i` holds index `lo + i`; zero where unoccupied.
    values: Vec<V>,
    /// One bit per slot.
    occupied: Vec<u64>,
    /// One bit per occupancy word: set when the word has any bit set.
    summary: Vec<u64>,
    /// Occupied slots, counted during the scatter.
    len: usize,
}

impl<V: Scalar> WindowSum<V> {
    /// An empty sum over `range` of a `dim`-dimensional space. The window
    /// is allocated zeroed, so only the pages that entries land on are
    /// ever touched.
    ///
    /// # Panics
    /// If `range` does not lie inside `[0, dim)`.
    pub fn new(dim: usize, range: PartRange) -> Self {
        assert_inside(dim, range);
        let (occupied, summary) = empty_bitmap(range);
        WindowSum {
            dim,
            range,
            values: vec![V::zero(); range.len()],
            occupied,
            summary,
            len: 0,
        }
    }

    /// Entries in the sum: the occupied slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no entry has been added since the last drain.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Adds `part` into the window and returns the entries it scattered:
    /// its stored pairs when sparse, its non-zeros when dense.
    ///
    /// `part` is checked before anything is scattered: a stream of another
    /// dimension is [`StreamError::DimMismatch`], and one holding an entry
    /// outside the window — a sparse index, or a dense non-zero — is
    /// [`StreamError::OutsideWindow`]; either leaves the sum untouched.
    pub fn add(&mut self, part: &SparseStream<V>) -> Result<usize, StreamError> {
        let (dim, range) = (self.dim, self.range);
        let WindowSum {
            values,
            occupied,
            summary,
            len,
            ..
        } = self;
        scatter_checked(part, dim, range, |at, v| {
            let fresh = set_bit(occupied, summary, at);
            // A fresh slot takes `v` itself, as a merge copies an entry
            // only one side holds (`0 + -0` would be `+0`); an occupied
            // one sums in arrival order. Which one lands is an index, not
            // a branch.
            values[at] = [values[at].add(v), v][usize::from(fresh)];
            *len += usize::from(fresh);
        })
    }

    /// [`WindowSum::add`]'s scatter loop and checks without the bitmap, for
    /// a caller whose window is its result: adds `part` into `window`, the
    /// dense values of `range` in a `dim`-dimensional space, and returns
    /// the entries scattered.
    ///
    /// # Panics
    /// If `range` does not lie inside `[0, dim)`, or `window` is not
    /// `range.len()` long.
    pub fn add_to_slice(
        window: &mut [V],
        dim: usize,
        range: PartRange,
        part: &SparseStream<V>,
    ) -> Result<usize, StreamError> {
        assert_inside(dim, range);
        assert_eq!(window.len(), range.len(), "window length");
        scatter_checked(part, dim, range, |at, v| window[at] = window[at].add(v))
    }

    /// Writes the sum as one sparse wire frame into `out` (cleared first,
    /// capacity reused), straight from the bitmap: byte for byte what
    /// [`SparseStream::encode`] writes for the drained stream. Where an
    /// Elias–Fano index of no low bits wins, its bits are the occupancy
    /// words shifted to the first entry.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.clear();
        self.encode_append(out);
    }

    /// [`WindowSum::encode_into`] appended to whatever `out` holds, so the
    /// frame can follow a header of the caller's in one buffer.
    pub fn encode_append(&self, out: &mut Vec<u8>) {
        let frame = begin_sparse_frame::<V>(self.dim, self.len, out);
        let bitmap = self.bitmap();
        let mut values = [V::zero(); EF_BLOCK];
        bitmap.blocks(|block| {
            for (v, &idx) in values.iter_mut().zip(block) {
                *v = self.values[(idx - self.range.lo) as usize];
            }
            V::write_slab_le(&values[..block.len()], out);
        });
        bitmap.append_index(out, frame, self.len);
    }

    /// The sum as a sparse stream, the window left as it is: what
    /// [`WindowSum::drain_into`] would give, for a reader that keeps
    /// adding afterwards.
    pub fn to_stream(&self) -> SparseStream<V> {
        let indices = self.bitmap().indices(self.len);
        let values = indices
            .iter()
            .map(|&i| self.values[(i - self.range.lo) as usize])
            .collect();
        sparse_stream(self.dim, indices, values)
    }

    fn bitmap(&self) -> Bitmap<'_> {
        Bitmap {
            occupied: &self.occupied,
            summary: &self.summary,
            lo: self.range.lo,
        }
    }

    /// Moves the sum into `indices` and `values` in increasing index order
    /// and leaves the window empty, re-zeroing exactly what it read.
    /// Returns `(entries, words visited)`: the words are the occupancy
    /// words with an entry plus every summary word.
    ///
    /// # Panics
    /// If either slab is not [`WindowSum::len`] long.
    pub fn drain_into(&mut self, indices: &mut [u32], values: &mut [V]) -> (usize, usize) {
        assert!(
            indices.len() == self.len && values.len() == self.len,
            "drain of {} entries into slabs of {} and {}",
            self.len,
            indices.len(),
            values.len()
        );
        let (mut n, mut words) = (0, self.summary.len());
        for word in set_bits(&self.summary) {
            words += 1;
            for at in set_bits_of(word, std::mem::take(&mut self.occupied[word])) {
                indices[n] = self.range.lo + at as u32;
                values[n] = std::mem::replace(&mut self.values[at], V::zero());
                n += 1;
            }
        }
        self.summary.fill(0);
        self.len = 0;
        (n, words)
    }
}

/// Panics unless `range` lies inside `[0, dim)`.
pub(crate) fn assert_inside(dim: usize, range: PartRange) {
    assert!(
        range.lo <= range.hi && range.hi as usize <= dim,
        "window [{}, {}) outside a {dim}-dim space",
        range.lo,
        range.hi
    );
}

/// The zeroed occupancy words and summary words of a window over `range`.
pub(crate) fn empty_bitmap(range: PartRange) -> (Vec<u64>, Vec<u64>) {
    let words = range.len().div_ceil(WORD_BITS);
    (vec![0; words], vec![0; words.div_ceil(WORD_BITS)])
}

/// Marks slot `at` occupied and returns whether it was free.
#[inline]
pub(crate) fn set_bit(occupied: &mut [u64], summary: &mut [u64], at: usize) -> bool {
    let (word, bit) = (at / WORD_BITS, 1u64 << (at % WORD_BITS));
    let fresh = occupied[word] & bit == 0;
    occupied[word] |= bit;
    summary[word / WORD_BITS] |= 1 << (word % WORD_BITS);
    fresh
}

/// A stream of `dim` dimensions from slabs the bitmap walk produced: the
/// indices strictly increase inside the window.
pub(crate) fn sparse_stream<V: Scalar>(
    dim: usize,
    indices: Vec<u32>,
    values: Vec<V>,
) -> SparseStream<V> {
    let mut stream = SparseStream::zeros(dim);
    stream.set_repr(Repr::Sparse(SparseVec::from_slabs(indices, values)));
    debug_assert!(stream.check_invariants().is_ok());
    stream
}

/// The occupancy bitmap of a window whose first slot is index `lo`, and
/// its summary words: the support of [`WindowSum`] and of
/// [`crate::RankedSum`], and the one writer of their frames' index.
#[derive(Clone, Copy)]
pub(crate) struct Bitmap<'a> {
    pub(crate) occupied: &'a [u64],
    pub(crate) summary: &'a [u64],
    pub(crate) lo: u32,
}

impl Bitmap<'_> {
    /// Hands the occupied indices to `put` in increasing order, in blocks
    /// of [`EF_BLOCK`] but the last, which is shorter and not empty.
    pub(crate) fn blocks(self, mut put: impl FnMut(&[u32])) {
        // A word's bits are taken sixteen at a time, a fixed run of
        // extractions whose loop exit a stable density predicts, so a block
        // has room for a whole word past its end and fifteen spare slots.
        let (mut block, mut n) = ([0u32; EF_BLOCK + WORD_BITS + 15], 0);
        for (group, &touched) in self.summary.iter().enumerate() {
            let mut touched = touched;
            while touched != 0 {
                let word = group * WORD_BITS + touched.trailing_zeros() as usize;
                touched &= touched - 1;
                let (mut bits, base) = (self.occupied[word], self.lo + (word * WORD_BITS) as u32);
                let count = bits.count_ones() as usize;
                for run in block[n..n + count.next_multiple_of(16)].chunks_exact_mut(16) {
                    for slot in run {
                        *slot = base.wrapping_add(bits.trailing_zeros());
                        bits &= bits.wrapping_sub(1);
                    }
                }
                n += count;
                if n >= EF_BLOCK {
                    put(&block[..EF_BLOCK]);
                    block.copy_within(EF_BLOCK..n, 0);
                    n -= EF_BLOCK;
                }
            }
        }
        if n > 0 {
            put(&block[..n]);
        }
    }

    /// The `n` occupied indices, in increasing order.
    pub(crate) fn indices(self, n: usize) -> Vec<u32> {
        let mut indices = Vec::with_capacity(n);
        self.blocks(|block| indices.extend_from_slice(block));
        indices
    }

    /// The smallest and the largest occupied index, if any slot is.
    fn ends(self) -> Option<(u32, u32)> {
        let first = set_bits(self.summary).next()?;
        let first = set_bits_of(first, self.occupied[first]).next()?;
        let top = self.summary.iter().rposition(|&bits| bits != 0)?;
        let last = top_bit(top, self.summary[top]);
        let last = top_bit(last, self.occupied[last]);
        Some((self.lo + first as u32, self.lo + last as u32))
    }

    /// Appends the index of the `n` occupied slots to the sparse frame
    /// that starts at `out[frame]`, its header and its values written:
    /// byte for byte what [`SparseStream::encode`] writes. Where an
    /// Elias–Fano index of no low bits wins, its bits are the occupancy
    /// words shifted to the first entry.
    pub(crate) fn append_index(self, out: &mut Vec<u8>, frame: usize, n: usize) {
        let Some((first, last)) = self.ends() else {
            return;
        };
        let gap_slab = || {
            let (mut len, mut prev) = (0, BEFORE_FIRST);
            self.blocks(|block| {
                len += gap_slab_len(prev, block.iter().copied());
                prev = block[block.len() - 1];
            });
            len
        };
        match pick_index(n, first, last, gap_slab) {
            (Some(0), _) => {
                let start = (first - self.lo) as usize;
                let (word, shift) = (start / WORD_BITS, start % WORD_BITS);
                put_ef_index(out, frame, (n, first, last), 0, |(_, words)| {
                    for (bytes, at) in words.chunks_exact_mut(8).zip(word..) {
                        let next = self
                            .occupied
                            .get(at + 1)
                            .and_then(|w| w.checked_shl((WORD_BITS - shift) as u32));
                        let bits = self.occupied[at] >> shift | next.unwrap_or(0);
                        bytes.copy_from_slice(&bits.to_le_bytes());
                    }
                });
            }
            (Some(l), _) => put_ef_index(out, frame, (n, first, last), l, |bits| {
                write_ef_bits(bits, first, l, |put| self.blocks(put))
            }),
            (None, _) => {
                let mut prev = BEFORE_FIRST;
                self.blocks(|block| prev = write_gap_slab(prev, block, out));
            }
        }
    }
}

/// The one split-phase scatter loop: checks `part` against the window
/// `range` of a `dim`-dimensional space (see [`WindowSum::add`]), then
/// hands every entry inside it to `put` as (offset in the window, value).
/// Returns the entries handed over.
pub(crate) fn scatter_checked<V: Scalar>(
    part: &SparseStream<V>,
    dim: usize,
    range: PartRange,
    mut put: impl FnMut(usize, V),
) -> Result<usize, StreamError> {
    if part.dim() != dim {
        return Err(StreamError::DimMismatch {
            left: dim,
            right: part.dim(),
        });
    }
    let outside = |idx: u32| StreamError::OutsideWindow {
        idx,
        lo: range.lo,
        hi: range.hi,
    };
    match part.repr() {
        Repr::Sparse(sv) => {
            // Indices strictly increase: the ends bound the rest.
            for &end in [sv.indices().first(), sv.indices().last()]
                .into_iter()
                .flatten()
            {
                if !range.contains(end) {
                    return Err(outside(end));
                }
            }
            for (&idx, &v) in sv.indices().iter().zip(sv.values()) {
                put((idx - range.lo) as usize, v);
            }
            Ok(sv.len())
        }
        Repr::Dense(all) => {
            let (lo, hi) = (range.lo as usize, range.hi as usize);
            let stray = all[..lo].iter().position(|v| !v.is_zero()).or_else(|| {
                all[hi..]
                    .iter()
                    .position(|v| !v.is_zero())
                    .map(|at| hi + at)
            });
            if let Some(idx) = stray {
                return Err(outside(idx as u32));
            }
            let mut n = 0;
            for (at, &v) in all[lo..hi].iter().enumerate() {
                if !v.is_zero() {
                    put(at, v);
                    n += 1;
                }
            }
            Ok(n)
        }
    }
}

/// Positions of the set bits of a bitmap, in increasing order.
fn set_bits(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words
        .iter()
        .enumerate()
        .flat_map(|(word, &bits)| set_bits_of(word, bits))
}

/// Position of the highest set bit of `bits` (not zero), word `word` of a
/// bitmap.
fn top_bit(word: usize, bits: u64) -> usize {
    word * WORD_BITS + (WORD_BITS - 1) - bits.leading_zeros() as usize
}

/// Positions of the set bits of `bits`, word `word` of a bitmap.
pub(crate) fn set_bits_of(word: usize, mut bits: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (bits != 0).then(|| {
            let bit = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            word * WORD_BITS + bit
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::partition_range;
    use crate::threshold::DensityPolicy;

    fn s(dim: usize, pairs: &[(u32, f32)]) -> SparseStream<f32> {
        SparseStream::from_pairs(dim, pairs).unwrap()
    }

    /// Drains `sum` into a fresh stream.
    fn drained(sum: &mut WindowSum<f32>) -> (SparseStream<f32>, usize) {
        let (mut indices, mut values) = (vec![0; sum.len()], vec![0.0; sum.len()]);
        let (n, words) = sum.drain_into(&mut indices, &mut values);
        assert_eq!(n, indices.len());
        (
            SparseStream::from_slabs(sum.dim, indices, values).unwrap(),
            words,
        )
    }

    #[test]
    fn sums_overlapping_parts_and_counts_each_slot_once() {
        let range = PartRange { lo: 100, hi: 300 };
        let mut sum = WindowSum::new(1000, range);
        assert!(sum.is_empty());
        assert_eq!(sum.add(&s(1000, &[(100, 1.0), (170, 2.0)])).unwrap(), 2);
        assert_eq!(sum.add(&s(1000, &[(170, 3.0), (299, 4.0)])).unwrap(), 2);
        // An explicit zero occupies its slot, as a merge keeps it.
        let zero = SparseStream::from_slabs(1000, vec![200], vec![0.0f32]).unwrap();
        assert_eq!(sum.add(&zero).unwrap(), 1);
        assert_eq!(sum.len(), 4);
        let (got, words) = drained(&mut sum);
        let view = got.sparse_view().unwrap();
        assert_eq!(view.indices(), &[100, 170, 200, 299]);
        assert_eq!(view.values(), &[1.0, 5.0, 0.0, 4.0]);
        // Offsets 0, 70, 100 and 199: occupancy words 0, 1 and 3 of four,
        // and the one summary word.
        assert_eq!(words, 3 + 1);
        assert!(sum.is_empty());
    }

    #[test]
    fn a_drain_leaves_the_window_as_new() {
        let range = partition_range(1 << 14, 4, 2);
        let parts: Vec<SparseStream<f32>> = (0..5)
            .map(|r| crate::random_sparse::<f32>(1 << 14, 900, r).restrict(range.lo, range.hi))
            .collect();
        // Each slot sums in the order the parts came: a left fold.
        let mut expect = SparseStream::zeros(1 << 14);
        for part in &parts {
            expect
                .add_assign_with(part, &DensityPolicy::never_densify())
                .unwrap();
        }
        let mut sum = WindowSum::new(1 << 14, range);
        for round in 0..3 {
            for part in &parts {
                sum.add(part).unwrap();
            }
            let (got, _) = drained(&mut sum);
            assert_eq!(got, expect, "round {round}");
            assert!(sum.values.iter().all(|v| *v == 0.0));
            assert!(sum.occupied.iter().chain(&sum.summary).all(|w| *w == 0));
        }
    }

    #[test]
    fn parts_outside_the_window_are_rejected_before_any_scatter() {
        let (dim, range) = (1000, PartRange { lo: 250, hi: 500 });
        let mut sum = WindowSum::new(dim, range);
        sum.add(&s(dim, &[(250, 1.0), (499, 2.0)])).unwrap();
        let mut stray_dense = s(dim, &[(300, 1.0), (600, 1.0)]);
        stray_dense.densify();
        for (what, part, err) in [
            (
                "another dim",
                s(dim + 1, &[(300, 1.0)]),
                StreamError::DimMismatch {
                    left: dim,
                    right: dim + 1,
                },
            ),
            (
                "below the window",
                s(dim, &[(249, 1.0), (300, 1.0)]),
                StreamError::OutsideWindow {
                    idx: 249,
                    lo: 250,
                    hi: 500,
                },
            ),
            (
                "at its end",
                s(dim, &[(300, 1.0), (500, 1.0)]),
                StreamError::OutsideWindow {
                    idx: 500,
                    lo: 250,
                    hi: 500,
                },
            ),
            (
                "a dense non-zero outside it",
                stray_dense,
                StreamError::OutsideWindow {
                    idx: 600,
                    lo: 250,
                    hi: 500,
                },
            ),
        ] {
            assert_eq!(sum.add(&part), Err(err.clone()), "{what}");
            let mut slice = vec![0.0f32; range.len()];
            assert_eq!(
                WindowSum::add_to_slice(&mut slice, dim, range, &part),
                Err(err),
                "{what}"
            );
            assert!(slice.iter().all(|v| *v == 0.0), "{what}");
        }
        assert_eq!(sum.len(), 2);
        // A dense part whose non-zeros all lie inside scatters them.
        let mut inside = s(dim, &[(260, 3.0), (499, 1.0)]);
        inside.densify();
        assert_eq!(sum.add(&inside).unwrap(), 2);
        let (got, _) = drained(&mut sum);
        assert_eq!(got, s(dim, &[(250, 1.0), (260, 3.0), (499, 3.0)]));
    }

    #[test]
    fn a_window_of_far_runs_writes_their_gap_coded_frame() {
        // Two runs of 40: a byte a gap beats 11 low bits an entry.
        let (dim, range) = (1 << 20, partition_range(1 << 20, 2, 1));
        let runs: Vec<(u32, f32)> = (600_000..600_040)
            .chain(900_000..900_040)
            .map(|i| (i, 1.0))
            .collect();
        let part = SparseStream::from_pairs(dim, &runs).unwrap();
        let mut sum = WindowSum::new(dim, range);
        sum.add(&part).unwrap();
        let mut frame = Vec::new();
        sum.encode_into(&mut frame);
        assert_eq!(frame[3], 0, "gap-coded");
        assert_eq!(frame, part.encode().as_ref());
    }

    #[test]
    fn the_frame_is_the_drained_stream_encoded() {
        // (dim, P, owner, entries per rank, the window's fill in percent):
        // Elias–Fano indices of 6 low bits at 1 %, of none (a bitmap) from
        // 55 % up, of 11 over several writer blocks at 0 %, and windows
        // whose first entry sits anywhere in its occupancy word.
        for (dim, p, rank, k, fill) in [
            (1 << 16, 8, 5, 100, 1),
            (1 << 16, 8, 5, 3_400, 30),
            (1 << 16, 8, 6, 7_000, 55),
            (1 << 16, 8, 1, 20_500, 93),
            (1 << 16, 8, 7, 60_000, 100),
            (1000, 3, 2, 40, 6),
            (1000, 3, 1, 300, 52),
            (1 << 22, 2, 1, 50, 0),
            (1 << 22, 2, 1, 400, 0),
        ] {
            let range = partition_range(dim, p, rank);
            let mut sum = WindowSum::new(dim, range);
            for r in 0..p as u64 {
                let part = crate::random_sparse::<f32>(dim, k, r).restrict(range.lo, range.hi);
                sum.add(&part).unwrap();
            }
            let percent = (100.0 * sum.len() as f64 / range.len() as f64).round();
            assert_eq!(percent, fill as f64, "dim {dim} k {k}");
            let mut frame = Vec::new();
            sum.encode_into(&mut frame);
            // Appended behind a header of the caller's, the same bytes.
            let mut behind = vec![0xAB; 7];
            sum.encode_append(&mut behind);
            assert_eq!(behind[..7], [0xAB; 7]);
            assert_eq!(behind[7..], frame[..], "dim {dim} k {k}");
            let kept = sum.to_stream();
            let (got, _) = drained(&mut sum);
            assert_eq!(kept, got, "dim {dim} k {k}");
            assert_eq!(frame, got.encode().as_ref(), "dim {dim} k {k}");
            assert_eq!(SparseStream::<f32>::decode(&frame).unwrap(), got);
            // And the empty window is the empty stream's frame.
            sum.encode_into(&mut frame);
            assert_eq!(frame, SparseStream::<f32>::zeros(dim).encode().as_ref());
        }
    }

    #[test]
    fn a_fresh_slot_keeps_the_bits_a_merge_keeps() {
        // -0 alone in its slot stays -0, as the merge copies it; a second
        // entry in the slot sums in arrival order.
        let (dim, range) = (256, PartRange { lo: 0, hi: 256 });
        let mut sum = WindowSum::new(dim, range);
        let mut merged = SparseStream::zeros(dim);
        let policy = DensityPolicy::never_densify();
        for part in [
            SparseStream::from_slabs(dim, vec![3, 70], vec![-0.0f32, 1.5]).unwrap(),
            SparseStream::from_slabs(dim, vec![70, 71], vec![-0.0f32, -0.0]).unwrap(),
        ] {
            sum.add(&part).unwrap();
            merged.add_assign_with(&part, &policy).unwrap();
            let bits = |s: &SparseStream<f32>| -> Vec<u32> {
                s.sparse_view()
                    .unwrap()
                    .values()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect()
            };
            assert_eq!(bits(&sum.to_stream()), bits(&merged));
        }
        assert_eq!(sum.to_stream().get(3).to_bits(), (-0.0f32).to_bits());
    }

    #[test]
    fn empty_and_full_windows() {
        // A window narrower than one word, one of zero width, and one
        // whose every slot is occupied.
        let mut none = WindowSum::<f32>::new(8, PartRange { lo: 4, hi: 4 });
        assert_eq!(none.add(&SparseStream::zeros(8)).unwrap(), 0);
        assert_eq!(drained(&mut none).1, 0);
        let range = PartRange {
            lo: 64,
            hi: 64 + 4096 + 7,
        };
        let mut full = WindowSum::new(1 << 13, range);
        let all: Vec<(u32, f32)> = (range.lo..range.hi).map(|i| (i, 1.0)).collect();
        full.add(&s(1 << 13, &all)).unwrap();
        full.add(&s(1 << 13, &all)).unwrap();
        assert_eq!(full.len(), range.len());
        let (got, words) = drained(&mut full);
        assert!(got.iter_nonzero().all(|(_, v)| v == 2.0));
        assert_eq!(got.nnz(), range.len());
        // 65 occupancy words, all touched, and two summary words.
        assert_eq!(words, 65 + 2);
    }

    #[test]
    fn add_to_slice_is_the_same_sum() {
        let (dim, range) = (1 << 12, PartRange { lo: 1024, hi: 2048 });
        let parts: Vec<SparseStream<f32>> = (0..4)
            .map(|r| crate::random_sparse::<f32>(dim, 500, 40 + r).restrict(range.lo, range.hi))
            .collect();
        let mut sum = WindowSum::new(dim, range);
        let mut slice = vec![0.0f32; range.len()];
        for part in &parts {
            let n = sum.add(part).unwrap();
            assert_eq!(
                WindowSum::add_to_slice(&mut slice, dim, range, part).unwrap(),
                n
            );
        }
        let (got, _) = drained(&mut sum);
        for (i, v) in got.iter_nonzero() {
            assert_eq!(slice[(i - range.lo) as usize], v);
        }
        assert_eq!(
            slice.iter().filter(|v| **v != 0.0).count(),
            got.iter_nonzero().count()
        );
    }
}
