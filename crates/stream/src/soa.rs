//! Structure-of-arrays sparse storage: separate index and value slabs.
//!
//! The sparse payload of a stream is stored as two parallel, contiguous
//! slabs — a `Vec<u32>` of sorted coordinates and a `Vec<V>` of values —
//! instead of an interleaved array of `(index, value)` structs. The split
//! layout is what makes the hot paths cheap:
//!
//! * the wire codec copies each slab as one contiguous little-endian
//!   block (no per-entry scratch, no interleaving pass);
//! * summation's linear merge and the split/`restrict` operations walk
//!   plain `&[u32]` / `&[V]` slices, which the compiler can vectorize;
//! * a borrowed [`SparseView`] can hand any index sub-range to a peer
//!   without materializing an intermediate stream.
//!
//! [`SparseVec`] guarantees only that the two slabs have equal length;
//! sortedness and bounds are the *stream's* invariants, enforced by
//! [`crate::SparseStream`] constructors and the wire decoder.

/// Owned structure-of-arrays sparse payload: parallel index and value
/// slabs of equal length.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SparseVec<V> {
    indices: Vec<u32>,
    values: Vec<V>,
}

impl<V: Copy> SparseVec<V> {
    /// Creates an empty payload.
    pub fn new() -> Self {
        SparseVec {
            indices: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Creates an empty payload with room for `cap` entries in each slab.
    pub fn with_capacity(cap: usize) -> Self {
        SparseVec {
            indices: Vec::with_capacity(cap),
            values: Vec::with_capacity(cap),
        }
    }

    /// Assembles a payload from its two slabs.
    ///
    /// # Panics
    ///
    /// Panics if the slabs differ in length. Fallible assembly (e.g. from
    /// untrusted input) goes through [`crate::SparseStream::from_slabs`],
    /// which reports the mismatch as a typed error instead.
    pub fn from_slabs(indices: Vec<u32>, values: Vec<V>) -> Self {
        assert_eq!(
            indices.len(),
            values.len(),
            "index/value slab length mismatch"
        );
        SparseVec { indices, values }
    }

    /// Number of stored entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// `true` when no entries are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// Appends one entry to the end of both slabs.
    #[inline]
    pub fn push(&mut self, idx: u32, val: V) {
        self.indices.push(idx);
        self.values.push(val);
    }

    /// Removes all entries, keeping both slabs' capacity.
    pub fn clear(&mut self) {
        self.indices.clear();
        self.values.clear();
    }

    /// Reserves room for `additional` more entries in each slab.
    pub fn reserve(&mut self, additional: usize) {
        self.indices.reserve(additional);
        self.values.reserve(additional);
    }

    /// The index slab.
    #[inline]
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// The value slab.
    #[inline]
    pub fn values(&self) -> &[V] {
        &self.values
    }

    /// Mutable access to the value slab (indices stay fixed, so the
    /// stream invariants cannot be broken through this).
    #[inline]
    pub fn values_mut(&mut self) -> &mut [V] {
        &mut self.values
    }

    /// Both slabs, for kernels that size them before writing (the merge).
    /// Callers must leave them of equal length.
    #[inline]
    pub(crate) fn slabs_mut(&mut self) -> (&mut Vec<u32>, &mut Vec<V>) {
        (&mut self.indices, &mut self.values)
    }

    /// Borrows the whole payload as a [`SparseView`].
    #[inline]
    pub fn as_view(&self) -> SparseView<'_, V> {
        SparseView {
            indices: &self.indices,
            values: &self.values,
        }
    }

    /// Consumes the payload, returning `(indices, values)`.
    pub fn into_slabs(self) -> (Vec<u32>, Vec<V>) {
        (self.indices, self.values)
    }

    /// Iterates over `(index, value)` entries in slab order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, V)> + '_ {
        self.indices
            .iter()
            .copied()
            .zip(self.values.iter().copied())
    }

    /// Keeps only the entries for which `keep` returns `true`, compacting
    /// both slabs in place (preserves order).
    pub fn retain(&mut self, mut keep: impl FnMut(u32, V) -> bool) {
        let mut w = 0usize;
        for r in 0..self.indices.len() {
            let (i, v) = (self.indices[r], self.values[r]);
            if keep(i, v) {
                self.indices[w] = i;
                self.values[w] = v;
                w += 1;
            }
        }
        self.indices.truncate(w);
        self.values.truncate(w);
    }

    /// Bulk-appends two parallel slices to the slabs.
    pub fn extend_from_slabs(&mut self, indices: &[u32], values: &[V]) {
        debug_assert_eq!(indices.len(), values.len());
        self.indices.extend_from_slice(indices);
        self.values.extend_from_slice(values);
    }

    /// Bulk-appends a borrowed view.
    pub fn extend_from_view(&mut self, view: SparseView<'_, V>) {
        self.extend_from_slabs(view.indices, view.values);
    }
}

impl<V: Copy> FromIterator<(u32, V)> for SparseVec<V> {
    fn from_iter<I: IntoIterator<Item = (u32, V)>>(iter: I) -> Self {
        let iter = iter.into_iter();
        let mut out = SparseVec::with_capacity(iter.size_hint().0);
        for (i, v) in iter {
            out.push(i, v);
        }
        out
    }
}

/// Borrowed slice of a structure-of-arrays sparse payload: two parallel
/// sub-slices of the index and value slabs.
///
/// Views are `Copy` and index-range extraction ([`SparseView::range`]) is
/// two binary searches plus two slice borrows — no allocation — which is
/// what the split phase of the `Split_allgather` algorithms encodes
/// directly onto the wire.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SparseView<'a, V> {
    indices: &'a [u32],
    values: &'a [V],
}

impl<'a, V: Copy> SparseView<'a, V> {
    /// Builds a view over two parallel slices.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub fn new(indices: &'a [u32], values: &'a [V]) -> Self {
        assert_eq!(
            indices.len(),
            values.len(),
            "index/value slab length mismatch"
        );
        SparseView { indices, values }
    }

    /// Number of entries in the view.
    #[inline]
    pub fn len(self) -> usize {
        self.indices.len()
    }

    /// `true` when the view holds no entries.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.indices.is_empty()
    }

    /// The viewed index slab.
    #[inline]
    pub fn indices(self) -> &'a [u32] {
        self.indices
    }

    /// The viewed value slab.
    #[inline]
    pub fn values(self) -> &'a [V] {
        self.values
    }

    /// Iterates over `(index, value)` entries in slab order.
    pub fn iter(self) -> impl Iterator<Item = (u32, V)> + 'a {
        self.indices
            .iter()
            .copied()
            .zip(self.values.iter().copied())
    }

    /// Sub-view of the entries whose index falls in `[lo, hi)`.
    ///
    /// Requires the view's indices to be sorted (a stream invariant);
    /// costs two binary searches and no allocation.
    pub fn range(self, lo: u32, hi: u32) -> SparseView<'a, V> {
        let start = self.indices.partition_point(|&i| i < lo);
        let end = self.indices.partition_point(|&i| i < hi);
        SparseView {
            indices: &self.indices[start..end],
            values: &self.values[start..end],
        }
    }

    /// Splits the view at entry position `mid`.
    pub fn split_at(self, mid: usize) -> (SparseView<'a, V>, SparseView<'a, V>) {
        let (il, ir) = self.indices.split_at(mid);
        let (vl, vr) = self.values.split_at(mid);
        (
            SparseView {
                indices: il,
                values: vl,
            },
            SparseView {
                indices: ir,
                values: vr,
            },
        )
    }

    /// The value stored at coordinate `idx`, if present (binary search;
    /// requires sorted indices).
    pub fn get(self, idx: u32) -> Option<V> {
        self.indices
            .binary_search(&idx)
            .ok()
            .map(|pos| self.values[pos])
    }

    /// Copies the view into an owned [`SparseVec`].
    pub fn to_owned(self) -> SparseVec<V> {
        SparseVec {
            indices: self.indices.to_vec(),
            values: self.values.to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SparseVec<f32> {
        SparseVec::from_slabs(vec![2, 5, 9, 40], vec![1.0, -2.0, 3.0, 4.0])
    }

    #[test]
    fn push_iter_round_trip() {
        let mut sv = SparseVec::new();
        sv.push(1, 10.0f32);
        sv.push(7, 20.0);
        assert_eq!(sv.len(), 2);
        let got: Vec<_> = sv.iter().collect();
        assert_eq!(got, vec![(1, 10.0), (7, 20.0)]);
        let (idx, vals) = sv.into_slabs();
        assert_eq!(idx, vec![1, 7]);
        assert_eq!(vals, vec![10.0, 20.0]);
    }

    #[test]
    #[should_panic(expected = "slab length mismatch")]
    fn from_slabs_rejects_mismatch() {
        let _ = SparseVec::from_slabs(vec![1, 2], vec![1.0f32]);
    }

    #[test]
    fn retain_compacts_both_slabs() {
        let mut sv = sample();
        sv.retain(|_, v| v > 0.0);
        assert_eq!(sv.indices(), &[2, 9, 40]);
        assert_eq!(sv.values(), &[1.0, 3.0, 4.0]);
    }

    #[test]
    fn view_range_selects_index_window() {
        let sv = sample();
        let r = sv.as_view().range(5, 40);
        assert_eq!(r.indices(), &[5, 9]);
        assert_eq!(r.values(), &[-2.0, 3.0]);
        assert!(sv.as_view().range(41, 100).is_empty());
        assert_eq!(sv.as_view().range(0, u32::MAX).len(), 4);
    }

    #[test]
    fn view_get_and_split() {
        let sv = sample();
        let v = sv.as_view();
        assert_eq!(v.get(9), Some(3.0));
        assert_eq!(v.get(10), None);
        let (l, r) = v.split_at(1);
        assert_eq!(l.len(), 1);
        assert_eq!(r.indices(), &[5, 9, 40]);
    }

    #[test]
    fn extend_from_view_appends() {
        let sv = sample();
        let mut out = SparseVec::with_capacity(8);
        out.extend_from_view(sv.as_view().range(0, 6));
        out.extend_from_view(sv.as_view().range(6, 50));
        assert_eq!(out, sv);
    }

    #[test]
    fn collect_from_pairs() {
        let sv: SparseVec<f32> = vec![(3u32, 1.0f32), (8, 2.0)].into_iter().collect();
        assert_eq!(sv.indices(), &[3, 8]);
    }
}
