//! A running sum over one index window whose values are packed in index
//! order and found by rank: the serve daemon's sparse accumulator.
//!
//! A [`crate::WindowSum`] holds a value slot for every index of its window,
//! which suits a sum that is built once and drained (the split phase) but
//! not one that lives on: a shard whose sum holds every fourth index keeps
//! four slots per entry resident. [`RankedSum`] keeps the same occupancy
//! bitmap and summary words and only the occupied slots' values, packed in
//! index order as Roaring's array containers pack theirs (Chambi, Lemire,
//! Kaser & Godin, "Better bitmap performance with Roaring bitmaps",
//! Softw. Pract. Exper. 46(5), 2016). A rank directory, the set bits
//! before each occupancy word, finds a slot's value in O(1) without a
//! branch: the directory entry plus the population count of the word's
//! lower bits (Vigna, "Broadword implementation of rank/select queries",
//! WEA 2008).
//!
//! The values are kept in blocks of [`BLOCK_SLOTS`] slots, each in a
//! buffer of its own, and the directory counts from the block's start. A
//! part whose indices are all occupied adds in place at their ranks. A
//! part with new indices is merged into each block it brings one to, once,
//! from the back: the block's values grow once, its held runs move right
//! past the new entries, and its directory is refreshed from the first
//! word that changed. So a part costs its own entries plus the blocks it
//! grows, never a pass over the whole sum. A block past [`PACKED_MAX`]
//! entries keeps a value for each of its slots instead, as a window does,
//! and an entry new to it is one store. The sums are
//! [`crate::WindowSum`]'s to the bit, and so is the wire frame, whose
//! value slab is the blocks' entries, one block after the other.

use std::ops::Range;

use crate::error::StreamError;
use crate::partition::PartRange;
use crate::scalar::Scalar;
use crate::stream::SparseStream;
use crate::window::{
    assert_inside, empty_bitmap, scatter_checked, set_bit, set_bits_of, sparse_stream, Bitmap,
    WORD_BITS,
};
use crate::wire::begin_sparse_frame;

/// Slots per block: what an insert moves at most, in values, and
/// refreshes, in directory entries (one per occupancy word).
const BLOCK_SLOTS: usize = 1 << 12;
const BLOCK_WORDS: usize = BLOCK_SLOTS / WORD_BITS;

/// Entries a block packs at most. Past a quarter of its slots a packed
/// block saves less than three quarters of a slotted one's memory, while
/// each insert into it moves up to a quarter of a block of values; a
/// slotted block takes an insert as one store.
const PACKED_MAX: usize = BLOCK_SLOTS / 4;

/// The sum of streams supported inside one index window `[lo, hi)` of a
/// `dim`-dimensional space, kept as an occupancy bitmap plus the occupied
/// slots' values (see the module docs).
///
/// A slot is occupied once any added stream stores an entry there, even a
/// zero one, so the support is the union of the added supports — what a
/// sorted merge of the same streams keeps.
#[derive(Debug, Clone)]
pub struct RankedSum<V: Scalar> {
    dim: usize,
    range: PartRange,
    /// Each block's values: its occupied slots' values in index order
    /// while it holds at most [`PACKED_MAX`] entries, else one value per
    /// slot (zero where the slot is free).
    blocks: Vec<Vec<V>>,
    /// Occupied slots.
    len: usize,
    /// One bit per slot.
    occupied: Vec<u64>,
    /// One bit per occupancy word: set when the word has any bit set.
    summary: Vec<u64>,
    /// Occupied slots of a packed block in its occupancy words before
    /// each one.
    ranks: Vec<u16>,
}

impl<V: Scalar> RankedSum<V> {
    /// An empty sum over `range` of a `dim`-dimensional space.
    ///
    /// # Panics
    /// If `range` does not lie inside `[0, dim)`.
    pub fn new(dim: usize, range: PartRange) -> Self {
        assert_inside(dim, range);
        let (occupied, summary) = empty_bitmap(range);
        RankedSum {
            dim,
            range,
            blocks: vec![Vec::new(); range.len().div_ceil(BLOCK_SLOTS)],
            len: 0,
            ranks: vec![0; occupied.len()],
            occupied,
            summary,
        }
    }

    /// Entries in the sum: the occupied slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no entry has been added.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Adds `part` into the sum and returns its entries: its stored pairs
    /// when sparse, its non-zeros when dense. A slot the part is first to
    /// occupy takes its value as it is; an occupied one sums in arrival
    /// order, as [`crate::WindowSum::add`] does.
    ///
    /// `part` is checked before anything changes, with
    /// [`crate::WindowSum::add`]'s errors: a stream of another dimension
    /// is [`StreamError::DimMismatch`], and one holding an entry outside
    /// the window is [`StreamError::OutsideWindow`]; either leaves the sum
    /// untouched.
    pub fn add(&mut self, part: &SparseStream<V>) -> Result<usize, StreamError> {
        // The whole part is checked before anything changes.
        let n = scatter_checked(part, self.dim, self.range, |_, _| {})?;
        match part.sparse_view() {
            Some(view) => self.add_sorted(view.indices(), view.values()),
            None => {
                let (indices, values): (Vec<u32>, Vec<V>) = part.iter_nonzero().unzip();
                self.add_sorted(&indices, &values);
            }
        }
        Ok(n)
    }

    /// Adds `values[i]` at the strictly increasing in-window `indices[i]`.
    fn add_sorted(&mut self, indices: &[u32], values: &[V]) {
        let lo = self.range.lo;
        // A held slot adds where it stands; its run carries it if it moves.
        // The new slots wait for the held ones.
        let mut new = Vec::new();
        for (&idx, &v) in indices.iter().zip(values) {
            let at = (idx - lo) as usize;
            if held(&self.occupied, at) {
                let block = &mut self.blocks[at / BLOCK_SLOTS];
                let i = match block.len() > PACKED_MAX {
                    true => at % BLOCK_SLOTS,
                    false => rank(&self.occupied, &self.ranks, at),
                };
                block[i] = block[i].add(v);
            } else {
                new.push((at, v));
            }
        }
        for run in new.chunk_by(|a, b| a.0 / BLOCK_SLOTS == b.0 / BLOCK_SLOTS) {
            self.insert(run);
        }
    }

    /// Inserts `(slot, value)` pairs whose slots are free, in increasing
    /// slot order and all in one block.
    fn insert(&mut self, run: &[(usize, V)]) {
        let (first, block) = (run[0].0, run[0].0 / BLOCK_SLOTS);
        let (start, words) = (block * BLOCK_SLOTS, self.words(block));
        let sum = &mut self.blocks[block];
        let (old, new) = (sum.len(), run.len());
        self.len += new;
        if old <= PACKED_MAX && old + new > PACKED_MAX {
            // The block leaves its packed form: each held value goes to its
            // slot, in the bits' order.
            let mut slots = vec![V::zero(); (self.range.len() - start).min(BLOCK_SLOTS)];
            let taken = words.clone().flat_map(|w| set_bits_of(w, self.occupied[w]));
            for (at, &v) in taken.zip(sum.iter()) {
                slots[at - start] = v;
            }
            *sum = slots;
        }
        if sum.len() > PACKED_MAX {
            // A slotted block takes each pair where it lies, and needs no
            // ranks.
            for &(at, v) in run {
                sum[at - start] = v;
                set_bit(&mut self.occupied, &mut self.summary, at);
            }
            return;
        }
        // The block grows as a `Vec` does, by doubling, so one that keeps
        // growing is not copied every time.
        sum.resize(old + new, V::zero());
        // The pairs merge in from the back, against the bits and ranks as
        // they were: the held values from `r` up to `top` move past the new
        // ones at or below them, and the ones below `r` have not moved.
        let mut top = old;
        for (shift, &(at, v)) in run.iter().enumerate().rev() {
            let r = rank(&self.occupied, &self.ranks, at);
            sum.copy_within(r..top, r + shift + 1);
            sum[r + shift] = v;
            top = r;
        }
        // Then the bits, and the block's ranks past the first new slot's
        // word.
        for &(at, _) in run {
            set_bit(&mut self.occupied, &mut self.summary, at);
        }
        let words = first / WORD_BITS..words.end;
        let mut at = self.ranks[words.start];
        for (next, bits) in self.ranks[words.start + 1..words.end]
            .iter_mut()
            .zip(&self.occupied[words])
        {
            at += bits.count_ones() as u16;
            *next = at;
        }
    }

    /// Hands the sum's values to `put` in index order: a packed block's
    /// whole, a slotted one's an occupancy word at a time.
    fn slabs(&self, mut put: impl FnMut(&[V])) {
        let mut gathered = [V::zero(); WORD_BITS];
        for (block, values) in self.blocks.iter().enumerate() {
            if values.len() <= PACKED_MAX {
                put(values);
                continue;
            }
            let start = block * BLOCK_SLOTS;
            for w in self.words(block) {
                let mut n = 0;
                for at in set_bits_of(w, self.occupied[w]) {
                    (gathered[n], n) = (values[at - start], n + 1);
                }
                put(&gathered[..n]);
            }
        }
    }

    /// Appends the sum's sparse wire frame to `out`, so the frame can
    /// follow a header of the caller's in one buffer: the blocks' values,
    /// then the index written from the bitmap — byte for byte what
    /// [`SparseStream::encode`] writes for [`RankedSum::to_stream`].
    pub fn encode_append(&self, out: &mut Vec<u8>) {
        let frame = begin_sparse_frame::<V>(self.dim, self.len, out);
        self.slabs(|values| V::write_slab_le(values, out));
        self.bitmap().append_index(out, frame, self.len);
    }

    /// The sum as a sparse stream.
    pub fn to_stream(&self) -> SparseStream<V> {
        let indices = self.bitmap().indices(self.len);
        let mut values = Vec::with_capacity(self.len);
        self.slabs(|slab| values.extend_from_slice(slab));
        sparse_stream(self.dim, indices, values)
    }

    /// The occupancy words of block `block`.
    fn words(&self, block: usize) -> Range<usize> {
        block * BLOCK_WORDS..self.occupied.len().min((block + 1) * BLOCK_WORDS)
    }

    fn bitmap(&self) -> Bitmap<'_> {
        Bitmap {
            occupied: &self.occupied,
            summary: &self.summary,
            lo: self.range.lo,
        }
    }
}

/// Whether slot `at` is occupied.
#[inline]
fn held(occupied: &[u64], at: usize) -> bool {
    occupied[at / WORD_BITS] >> (at % WORD_BITS) & 1 == 1
}

/// Occupied slots of its packed block before slot `at`: where the slot's
/// value is in the block, or goes.
#[inline]
fn rank(occupied: &[u64], ranks: &[u16], at: usize) -> usize {
    let (word, bit) = (at / WORD_BITS, at % WORD_BITS);
    let below = occupied[word] & ((1u64 << bit) - 1);
    ranks[word] as usize + below.count_ones() as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::XorShift64;
    use crate::partition::partition_range;
    use crate::threshold::DensityPolicy;
    use crate::WindowSum;

    /// Value bits, but where an addition made a NaN its payload may be
    /// any: the slab merge and the scalar add may propagate another one.
    fn same(a: f32, b: f32) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    /// `got` holds `want`'s representation, support and values.
    fn assert_same(got: &SparseStream<f32>, want: &SparseStream<f32>, what: &str) {
        assert_eq!(got.is_dense(), want.is_dense(), "{what}");
        if let (Some(g), Some(w)) = (got.sparse_view(), want.sparse_view()) {
            assert_eq!(g.indices(), w.indices(), "{what}");
        }
        let (g, w) = (got.to_dense_vec(), want.to_dense_vec());
        let differ = g.iter().zip(&w).position(|(&g, &w)| !same(g, w));
        assert_eq!(differ, None, "{what}");
    }

    /// The sum's own state, for "left untouched" checks.
    fn snapshot(sum: &RankedSum<f32>) -> (Vec<u32>, Vec<u64>, Vec<u64>, Vec<u16>) {
        let values = sum.blocks.concat().iter().map(|v| v.to_bits()).collect();
        (
            values,
            sum.occupied.clone(),
            sum.summary.clone(),
            sum.ranks.clone(),
        )
    }

    /// A value a contribution carries: mostly ordinary, sometimes `0`,
    /// `-0` or a NaN with a payload of its own.
    fn value(rng: &mut XorShift64) -> f32 {
        match rng.next_below(60) {
            0 => 0.0,
            1 => -0.0,
            2 => f32::from_bits(0x7FC0_1234),
            3 => f32::from_bits(0xFFC0_0042),
            _ => (rng.next_below(2000) as f32 - 1000.0) / 8.0,
        }
    }

    /// The ranked sum against [`WindowSum`] (bit for bit) and the
    /// never-densifying slab sum, and, where it leaves for the dense form
    /// at δ as the serve daemon does, against the slab sum under the
    /// default policy. The contributions hold only indices the sum holds,
    /// only new ones, both, none or the whole window, with `0`, `-0` and
    /// NaN payloads; one in each run is dense. After every one the frames
    /// of both sums are the drained stream's, byte for byte.
    #[test]
    fn a_seeded_oracle_sums_as_the_window_and_the_slabs_do() {
        const WHOLE_STEP: usize = 40;
        const DENSE_STEP: usize = 45;
        // Several blocks, and shard windows that do not start at one.
        let dim = 3 * BLOCK_SLOTS + 700;
        let (never, policy) = (DensityPolicy::never_densify(), DensityPolicy::default());
        let delta = policy.delta::<f32>(dim);
        for (shards, shard) in [(1, 0), (2, 0), (2, 1)] {
            let range = partition_range(dim, shards, shard);
            let mut rng = XorShift64::new(0x5AC + shard as u64);
            let mut ranked = RankedSum::new(dim, range);
            let mut window = WindowSum::new(dim, range);
            let (mut slabs, mut served) = (SparseStream::zeros(dim), SparseStream::zeros(dim));
            // The serve daemon's form past δ, and the step it left at.
            let mut dense: Option<(SparseStream<f32>, usize)> = None;
            let (mut kinds, mut slotted_early) = ([0; 5], false);
            for step in 0..60 {
                let mut held = vec![false; dim];
                for &i in &ranked.bitmap().indices(ranked.len()) {
                    held[i as usize] = true;
                }
                // All held, all new, both or none; then once the whole
                // window, before the dense part.
                let kind = match step {
                    WHOLE_STEP => 4,
                    _ => rng.next_below(4) as usize,
                };
                // Per-mille odds of taking a held and a new index.
                let (p_held, p_new) = [(300, 0), (0, 40), (200, 20), (0, 0), (1000, 1000)][kind];
                let (mut indices, mut values) = (Vec::new(), Vec::new());
                for idx in range.lo..range.hi {
                    let p = if held[idx as usize] { p_held } else { p_new };
                    if rng.next_below(1000) < p {
                        indices.push(idx);
                        values.push(value(&mut rng));
                    }
                }
                let new = indices.iter().filter(|&&i| !held[i as usize]).count();
                kinds[match (indices.len(), new) {
                    (0, _) => 3,
                    (n, _) if n == range.len() => 4,
                    (_, 0) => 0,
                    (n, new) if n == new => 1,
                    _ => 2,
                }] += 1;
                let sparse = SparseStream::from_slabs(dim, indices, values).unwrap();
                let mut part = sparse.clone();
                if step == DENSE_STEP {
                    part.densify();
                }
                let what = format!("{shards} shards, shard {shard}, step {step}");
                if dense.is_none()
                    && (!part.is_sparse() || ranked.len() + part.stored_len() > delta)
                {
                    dense = Some((ranked.to_stream(), step));
                }
                let n = ranked.add(&part).unwrap();
                if step < WHOLE_STEP && ranked.blocks.iter().any(|b| b.len() > PACKED_MAX) {
                    slotted_early = true;
                }
                assert_eq!(window.add(&part).unwrap(), n, "{what}");
                // A dense part adds its non-zeros.
                let added = match part.is_sparse() {
                    true => sparse,
                    false => {
                        let pairs: Vec<(u32, f32)> = sparse.iter_nonzero().collect();
                        SparseStream::from_pairs(dim, &pairs).unwrap()
                    }
                };
                slabs
                    .add_assign_view(added.sparse_view().unwrap(), &never)
                    .unwrap();
                assert_eq!(ranked.len(), window.len(), "{what}");
                assert_eq!(ranked.len(), slabs.stored_len(), "{what}");

                // Bit for bit the window's, and the slab sum's.
                let got = ranked.to_stream();
                let bits = |s: &SparseStream<f32>| -> Vec<u32> {
                    let view = s.sparse_view().unwrap();
                    view.values().iter().map(|v| v.to_bits()).collect()
                };
                let want = window.to_stream();
                assert_eq!(
                    got.sparse_view().unwrap().indices(),
                    want.sparse_view().unwrap().indices()
                );
                assert_eq!(bits(&got), bits(&want), "{what}");
                assert_same(&got, &slabs, &what);
                let (mut frame, mut window_frame) = (Vec::new(), Vec::new());
                frame.clear();
                ranked.encode_append(&mut frame);
                window.encode_into(&mut window_frame);
                assert_eq!(frame, window_frame, "{what}");
                assert_eq!(frame, got.encode().as_ref(), "{what}");

                // The serve daemon's form, which left for the dense one
                // at δ, against the default policy's slab sum.
                served.add_assign_with(&part, &policy).unwrap();
                match &mut dense {
                    Some((sum, _)) => {
                        sum.add_assign_with(&part, &policy).unwrap();
                        assert_same(sum, &served, &what);
                    }
                    None => assert_same(&got, &served, &what),
                }
            }
            assert!(kinds.iter().all(|&k| k > 0), "{shards} shards: {kinds:?}");
            // Blocks left the packed form both as parts filled them and at
            // the whole window.
            assert!(slotted_early, "{shards} shards, shard {shard}");
            assert!(ranked.blocks.iter().any(|b| b.len() > PACKED_MAX));
            let left = dense.map(|(_, step)| step);
            assert!(
                left < Some(DENSE_STEP),
                "{shards} shards, shard {shard}: left at {left:?}"
            );
        }
    }

    #[test]
    fn hostile_parts_are_typed_errors_that_leave_the_sum_untouched() {
        let (dim, range) = (1000, PartRange { lo: 250, hi: 500 });
        let pairs = |pairs: &[(u32, f32)]| SparseStream::from_pairs(dim, pairs).unwrap();
        let mut sum = RankedSum::new(dim, range);
        let mut window = WindowSum::new(dim, range);
        for part in [
            pairs(&[(250, 1.0), (300, 2.0), (499, 3.0)]),
            pairs(&[(260, 4.0)]),
        ] {
            sum.add(&part).unwrap();
            window.add(&part).unwrap();
        }
        let before = snapshot(&sum);
        let mut stray_dense = pairs(&[(300, 1.0), (600, 1.0)]);
        stray_dense.densify();
        let outside = |idx| StreamError::OutsideWindow {
            idx,
            lo: 250,
            hi: 500,
        };
        for (what, part, err) in [
            (
                "another dim",
                SparseStream::from_pairs(dim + 1, &[(300, 1.0f32)]).unwrap(),
                StreamError::DimMismatch {
                    left: dim,
                    right: dim + 1,
                },
            ),
            // New and held indices ahead of the stray one: nothing of
            // them may land.
            (
                "below the window",
                pairs(&[(249, 1.0), (300, 1.0)]),
                outside(249),
            ),
            (
                "at its end",
                pairs(&[(270, 1.0), (300, 1.0), (500, 1.0)]),
                outside(500),
            ),
            (
                "far past it",
                pairs(&[(250, 1.0), (999, 1.0)]),
                outside(999),
            ),
            ("a dense non-zero outside it", stray_dense, outside(600)),
        ] {
            assert_eq!(sum.add(&part), Err(err.clone()), "{what}");
            assert_eq!(window.add(&part), Err(err), "{what}");
            assert!(snapshot(&sum) == before, "{what}");
        }
        let (mut frame, mut window_frame) = (Vec::new(), Vec::new());
        sum.encode_append(&mut frame);
        window.encode_into(&mut window_frame);
        assert_eq!(frame, window_frame);
        assert_eq!(
            sum.to_stream(),
            pairs(&[(250, 1.0), (260, 4.0), (300, 2.0), (499, 3.0)])
        );
    }

    #[test]
    fn empty_narrow_and_full_windows() {
        // A window of zero width, one narrower than a word, and one whose
        // every slot fills over several words, from the back first.
        let mut none = RankedSum::<f32>::new(8, PartRange { lo: 4, hi: 4 });
        assert_eq!(none.add(&SparseStream::zeros(8)).unwrap(), 0);
        assert!(none.is_empty());
        let mut frame = Vec::new();
        none.encode_append(&mut frame);
        assert_eq!(frame, SparseStream::<f32>::zeros(8).encode().as_ref());
        let range = PartRange {
            lo: 64,
            hi: 64 + 4096 + 7,
        };
        let dim = 1 << 13;
        let mut full = RankedSum::new(dim, range);
        for (lo, step) in [(range.hi - 100, 1), (range.lo + 1, 2), (range.lo, 1)] {
            let all: Vec<(u32, f32)> = (lo..range.hi).step_by(step).map(|i| (i, 1.0)).collect();
            full.add(&SparseStream::from_pairs(dim, &all).unwrap())
                .unwrap();
        }
        assert_eq!(full.len(), range.len());
        // The first block is slotted; the packed one past it has ranks.
        assert_eq!(full.blocks[0].len(), BLOCK_SLOTS);
        assert_eq!(full.ranks[BLOCK_WORDS..], [0]);
        let sum = full.to_stream();
        assert_eq!(sum.get(range.lo), 1.0);
        assert_eq!(sum.get(range.lo + 1), 2.0);
        assert_eq!(sum.get(range.hi - 2), 3.0);
        assert_eq!(sum.get(range.hi - 1), 2.0);
        frame.clear();
        full.encode_append(&mut frame);
        assert_eq!(frame, sum.encode().as_ref());
    }

    /// An entry new to the sum moves only its own block's values and
    /// rewrites only its own block's directory, however large the sum: a
    /// part costs its entries plus the blocks it grows.
    #[test]
    fn a_new_entry_moves_only_its_own_block() {
        let dim = 16 * BLOCK_SLOTS;
        let range = PartRange {
            lo: 0,
            hi: dim as u32,
        };
        let mut sum = RankedSum::new(dim, range);
        let mut window = WindowSum::new(dim, range);
        // An eighth of every block, packed.
        let base: Vec<(u32, f32)> = (1..dim as u32).step_by(8).map(|i| (i, 0.5)).collect();
        let base = SparseStream::from_pairs(dim, &base).unwrap();
        sum.add(&base).unwrap();
        window.add(&base).unwrap();
        let mut rng = XorShift64::new(0xB10C);
        for round in 0..64 {
            // A new index, unless an earlier round drew it, beside one that
            // is held.
            let idx = 8 * rng.next_below(dim as u64 / 8) as u32;
            let part = SparseStream::from_pairs(dim, &[(idx, 1.0), (idx + 1, 2.0)]).unwrap();
            let block = idx as usize / BLOCK_SLOTS;
            let before: Vec<(*const f32, Vec<f32>)> = sum
                .blocks
                .iter()
                .map(|values| (values.as_ptr(), values.clone()))
                .collect();
            let ranks = sum.ranks.clone();
            sum.add(&part).unwrap();
            window.add(&part).unwrap();
            for (b, (ptr, values)) in before.iter().enumerate() {
                if b != block {
                    assert_eq!(sum.blocks[b].as_ptr(), *ptr, "round {round}, block {b}");
                    assert_eq!(&sum.blocks[b], values, "round {round}, block {b}");
                }
            }
            let mine = block * BLOCK_WORDS..(block + 1) * BLOCK_WORDS;
            let untouched = |r: &[u16]| [&r[..mine.start], &r[mine.end..]].concat();
            assert_eq!(untouched(&sum.ranks), untouched(&ranks), "round {round}");
            assert_eq!(sum.to_stream(), window.to_stream(), "round {round}");
            assert!(sum.blocks[block].len() <= PACKED_MAX, "round {round}");
        }
    }

    /// A block packs up to [`PACKED_MAX`] entries, and the part that takes
    /// it past them leaves it slotted, one new entry or several, beside a
    /// held one.
    #[test]
    fn a_block_is_slotted_past_its_packed_bound() {
        let dim = 2 * BLOCK_SLOTS;
        let range = PartRange {
            lo: 0,
            hi: dim as u32,
        };
        for (held, new) in [(PACKED_MAX - 1, 1), (PACKED_MAX, 1), (PACKED_MAX - 1, 2)] {
            let mut sum = RankedSum::new(dim, range);
            let mut window = WindowSum::new(dim, range);
            let base: Vec<(u32, f32)> = (0..held as u32).map(|i| (3 * i, 1.0)).collect();
            let mut part = vec![(0, 2.0)];
            part.extend((0..new as u32).map(|i| (3 * i + 1, 4.0)));
            for pairs in [base, part] {
                let stream = SparseStream::from_pairs(dim, &pairs).unwrap();
                sum.add(&stream).unwrap();
                window.add(&stream).unwrap();
            }
            let slotted = held + new > PACKED_MAX;
            let want = if slotted { BLOCK_SLOTS } else { held + new };
            assert_eq!(sum.blocks[0].len(), want, "{held} + {new}");
            assert_eq!(sum.to_stream(), window.to_stream(), "{held} + {new}");
            let (mut frame, mut window_frame) = (Vec::new(), Vec::new());
            sum.encode_append(&mut frame);
            window.encode_into(&mut window_frame);
            assert_eq!(frame, window_frame, "{held} + {new}");
        }
    }
}
