//! The sparse stream: SparCML's adaptive sparse/dense vector representation.
//!
//! A stream logically represents a vector in `R^N`. It is stored either as
//! a structure-of-arrays sparse payload — a sorted `u32` index slab plus a
//! parallel value slab ([`SparseVec`]) — or as a contiguous array of `N`
//! values (dense). The representation switches automatically during
//! summation once the fill-in crosses the threshold δ (§5.1 of the paper,
//! "Switching to a Dense Format").
//!
//! Indices are `u32` because the paper fixes the index datatype to an
//! unsigned int ("Since our problems usually have dimension N > 65K, we fix
//! the datatype for storing an index to an unsigned int", §8).

use crate::error::StreamError;
use crate::scalar::Scalar;
use crate::soa::{SparseVec, SparseView};
use crate::threshold::DensityPolicy;

/// Physical representation of a stream.
#[derive(Debug, Clone, PartialEq)]
pub enum Repr<V> {
    /// Structure-of-arrays payload with strictly increasing indices.
    Sparse(SparseVec<V>),
    /// Contiguous array of `dim` values.
    Dense(Vec<V>),
}

/// Collects the non-zero entries of `values` with coordinates in
/// `[lo, hi)` into a sorted structure-of-arrays payload (indices are
/// absolute coordinates).
fn nonzeros_in_range<V: Scalar>(values: &[V], lo: u32, hi: u32) -> SparseVec<V> {
    debug_assert!((hi as usize) <= values.len());
    let mut sparse = SparseVec::new();
    for i in lo..hi {
        let v = values[i as usize];
        if !v.is_zero() {
            sparse.push(i, v);
        }
    }
    sparse
}

/// Checks that `indices` is strictly increasing and within `[0, dim)`.
pub(crate) fn validate_sorted_in_bounds(indices: &[u32], dim: usize) -> Result<(), StreamError> {
    let Some(&last) = indices.last() else {
        return Ok(());
    };
    // Fast path: one vectorizable monotonicity sweep; strictly increasing
    // means only the last index can be the bounds violator.
    if indices.windows(2).all(|w| w[0] < w[1]) {
        if (last as usize) < dim {
            return Ok(());
        }
        return Err(StreamError::IndexOutOfBounds { idx: last, dim });
    }
    // Slow path (frame is bad anyway): locate the first violation so the
    // error pinpoints it.
    for (position, w) in indices.windows(2).enumerate() {
        if (w[0] as usize) >= dim {
            return Err(StreamError::IndexOutOfBounds { idx: w[0], dim });
        }
        if w[1] <= w[0] {
            return Err(StreamError::UnsortedIndices {
                position: position + 1,
            });
        }
    }
    unreachable!("slow path only entered when a violation exists")
}

/// An adaptive sparse/dense vector of logical dimension `dim`.
///
/// Invariants:
/// * sparse indices are strictly increasing;
/// * every index is `< dim`;
/// * a dense payload has exactly `dim` values.
///
/// Explicit zero values are allowed in the sparse form (they can arise from
/// cancellation during summation); [`SparseStream::prune_zeros`] removes
/// them when desired. The paper likewise "ignores cancellation of indices
/// during the summation" for its analysis (§5.1).
#[derive(Debug, Clone, PartialEq)]
pub struct SparseStream<V: Scalar> {
    dim: usize,
    repr: Repr<V>,
}

impl<V: Scalar> SparseStream<V> {
    /// Creates an empty (all-zero) sparse stream of dimension `dim`.
    pub fn zeros(dim: usize) -> Self {
        SparseStream {
            dim,
            repr: Repr::Sparse(SparseVec::new()),
        }
    }

    /// Creates a sparse stream from an already-sorted payload.
    ///
    /// Returns an error if indices are not strictly increasing or out of
    /// bounds.
    pub fn from_sorted(dim: usize, sparse: SparseVec<V>) -> Result<Self, StreamError> {
        validate_sorted_in_bounds(sparse.indices(), dim)?;
        Ok(SparseStream {
            dim,
            repr: Repr::Sparse(sparse),
        })
    }

    /// Creates a sparse stream from separate index/value slabs, validating
    /// slab lengths, sortedness and bounds.
    pub fn from_slabs(dim: usize, indices: Vec<u32>, values: Vec<V>) -> Result<Self, StreamError> {
        if indices.len() != values.len() {
            return Err(StreamError::SlabLengthMismatch {
                indices: indices.len(),
                values: values.len(),
            });
        }
        Self::from_sorted(dim, SparseVec::from_slabs(indices, values))
    }

    /// Creates a sparse stream from arbitrary `(index, value)` pairs,
    /// sorting them and summing duplicates.
    pub fn from_pairs(dim: usize, pairs: &[(u32, V)]) -> Result<Self, StreamError> {
        for &(idx, _) in pairs {
            if idx as usize >= dim {
                return Err(StreamError::IndexOutOfBounds { idx, dim });
            }
        }
        let mut sorted: Vec<(u32, V)> = pairs.to_vec();
        sorted.sort_unstable_by_key(|&(i, _)| i);
        let mut sparse: SparseVec<V> = SparseVec::with_capacity(sorted.len());
        for (idx, val) in sorted {
            match sparse.indices().last() {
                Some(&last) if last == idx => {
                    let pos = sparse.len() - 1;
                    let v = sparse.values()[pos];
                    sparse.values_mut()[pos] = v.add(val);
                }
                _ => sparse.push(idx, val),
            }
        }
        Ok(SparseStream {
            dim,
            repr: Repr::Sparse(sparse),
        })
    }

    /// Creates a dense stream from a full payload of length `dim`.
    pub fn from_dense(values: Vec<V>) -> Self {
        SparseStream {
            dim: values.len(),
            repr: Repr::Dense(values),
        }
    }

    /// Builds the sparse form of a dense slice, keeping only non-zeros.
    pub fn sparse_from_slice(values: &[V]) -> Self {
        SparseStream {
            dim: values.len(),
            repr: Repr::Sparse(nonzeros_in_range(values, 0, values.len() as u32)),
        }
    }

    /// Logical dimension `N`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// `true` if the stream currently uses the dense representation.
    #[inline]
    pub fn is_dense(&self) -> bool {
        matches!(self.repr, Repr::Dense(_))
    }

    /// `true` if the stream currently uses the sparse representation.
    #[inline]
    pub fn is_sparse(&self) -> bool {
        !self.is_dense()
    }

    /// Access to the physical representation.
    #[inline]
    pub fn repr(&self) -> &Repr<V> {
        &self.repr
    }

    /// Mutable access to the representation; callers must preserve the
    /// sortedness/bounds invariants.
    #[inline]
    pub(crate) fn repr_mut(&mut self) -> &mut Repr<V> {
        &mut self.repr
    }

    /// Replaces the representation; callers must preserve the invariants.
    #[inline]
    pub(crate) fn set_repr(&mut self, repr: Repr<V>) {
        self.repr = repr;
    }

    /// Borrowed view of the sparse payload (`None` when dense).
    #[inline]
    pub fn sparse_view(&self) -> Option<SparseView<'_, V>> {
        match &self.repr {
            Repr::Sparse(sv) => Some(sv.as_view()),
            Repr::Dense(_) => None,
        }
    }

    /// Number of stored entries: pair count when sparse, the count of
    /// non-zero values when dense.
    pub fn nnz(&self) -> usize {
        match &self.repr {
            Repr::Sparse(sv) => sv.len(),
            Repr::Dense(values) => values.iter().filter(|v| !v.is_zero()).count(),
        }
    }

    /// Stored entry count without scanning: pair count when sparse, `dim`
    /// when dense. This is what determines communication volume.
    #[inline]
    pub fn stored_len(&self) -> usize {
        match &self.repr {
            Repr::Sparse(sv) => sv.len(),
            Repr::Dense(_) => self.dim,
        }
    }

    /// Density `nnz / dim` (the paper's `d`).
    pub fn density(&self) -> f64 {
        if self.dim == 0 {
            0.0
        } else {
            self.nnz() as f64 / self.dim as f64
        }
    }

    /// Value at coordinate `idx` (zero when absent).
    pub fn get(&self, idx: u32) -> V {
        debug_assert!((idx as usize) < self.dim);
        match &self.repr {
            Repr::Sparse(sv) => sv.as_view().get(idx).unwrap_or_else(V::zero),
            Repr::Dense(values) => values[idx as usize],
        }
    }

    /// Iterates over non-zero coordinates in increasing index order.
    pub fn iter_nonzero(&self) -> impl Iterator<Item = (u32, V)> + '_ {
        let (sparse, dense): (Option<SparseView<'_, V>>, Option<&[V]>) = match &self.repr {
            Repr::Sparse(sv) => (Some(sv.as_view()), None),
            Repr::Dense(values) => (None, Some(values.as_slice())),
        };
        sparse
            .into_iter()
            .flat_map(|v| v.iter())
            .filter(|(_, v)| !v.is_zero())
            .chain(
                dense
                    .into_iter()
                    .flatten()
                    .enumerate()
                    .filter(|(_, v)| !v.is_zero())
                    .map(|(i, &v)| (i as u32, v)),
            )
    }

    /// Materializes the full dense vector (allocates; the stream itself is
    /// unchanged).
    pub fn to_dense_vec(&self) -> Vec<V> {
        match &self.repr {
            Repr::Sparse(sv) => {
                let mut out = vec![V::zero(); self.dim];
                for (idx, val) in sv.iter() {
                    out[idx as usize] = val;
                }
                out
            }
            Repr::Dense(values) => values.clone(),
        }
    }

    /// Switches to the dense representation in place.
    pub fn densify(&mut self) {
        if self.is_dense() {
            return;
        }
        let dense = self.to_dense_vec();
        self.repr = Repr::Dense(dense);
    }

    /// Switches to the sparse representation in place (drops zeros).
    pub fn sparsify(&mut self) {
        if self.is_sparse() {
            self.prune_zeros();
            return;
        }
        let Repr::Dense(values) = &self.repr else {
            unreachable!()
        };
        self.repr = Repr::Sparse(nonzeros_in_range(values, 0, values.len() as u32));
    }

    /// Converts to whichever representation the policy prefers for the
    /// current fill level.
    pub fn normalize(&mut self, policy: &DensityPolicy) {
        let delta = policy.delta::<V>(self.dim);
        match &self.repr {
            Repr::Sparse(sv) => {
                if sv.len() > delta {
                    self.densify();
                }
            }
            Repr::Dense(_) => {
                if self.nnz() <= delta / 2 {
                    self.sparsify();
                }
            }
        }
    }

    /// Removes explicit zeros from the sparse representation (no-op when
    /// dense).
    pub fn prune_zeros(&mut self) {
        if let Repr::Sparse(sv) = &mut self.repr {
            sv.retain(|_, v| !v.is_zero());
        }
    }

    /// Multiplies every value by `factor`.
    pub fn scale(&mut self, factor: V) {
        let values: &mut [V] = match &mut self.repr {
            Repr::Sparse(sv) => sv.values_mut(),
            Repr::Dense(values) => values,
        };
        for v in values {
            *v = V::from_f64(v.to_f64() * factor.to_f64());
        }
    }

    /// Euclidean norm of the logical vector.
    pub fn l2_norm(&self) -> f64 {
        let values: &[V] = match &self.repr {
            Repr::Sparse(sv) => sv.values(),
            Repr::Dense(values) => values,
        };
        values
            .iter()
            .map(|v| v.to_f64().powi(2))
            .sum::<f64>()
            .sqrt()
    }

    /// Restricts the stream to coordinates in `[lo, hi)` producing a stream
    /// of the *same* logical dimension but supported only inside the range.
    /// This is the split operation of `SSAR_Split_allgather` (§5.3.2).
    ///
    /// For a borrowed, allocation-free version of the sparse case use
    /// [`SparseStream::sparse_view`] + [`SparseView::range`].
    pub fn restrict(&self, lo: u32, hi: u32) -> SparseStream<V> {
        debug_assert!(lo <= hi && (hi as usize) <= self.dim);
        match &self.repr {
            Repr::Sparse(sv) => SparseStream {
                dim: self.dim,
                repr: Repr::Sparse(sv.as_view().range(lo, hi).to_owned()),
            },
            Repr::Dense(values) => SparseStream {
                dim: self.dim,
                repr: Repr::Sparse(nonzeros_in_range(values, lo, hi)),
            },
        }
    }

    /// Concatenates streams whose supports live in disjoint, increasing
    /// index ranges — "we can implement the sum as simple concatenation"
    /// (§5.1, disjoint case). All inputs must share the same dimension and
    /// be sparse; supports must be ordered (checked). The slab layout makes
    /// this two bulk `extend_from_slice` calls per part.
    pub fn concat_disjoint(parts: &[SparseStream<V>]) -> Result<SparseStream<V>, StreamError> {
        let Some(first) = parts.first() else {
            return Ok(SparseStream::zeros(0));
        };
        let dim = first.dim;
        let total: usize = parts.iter().map(|p| p.stored_len()).sum();
        let mut out: SparseVec<V> = SparseVec::with_capacity(total);
        for (pos, part) in parts.iter().enumerate() {
            if part.dim != dim {
                return Err(StreamError::DimMismatch {
                    left: dim,
                    right: part.dim,
                });
            }
            let Some(view) = part.sparse_view() else {
                return Err(StreamError::Corrupt(
                    "concat_disjoint requires sparse parts",
                ));
            };
            if let (Some(&last), Some(&first_new)) = (out.indices().last(), view.indices().first())
            {
                if first_new <= last {
                    return Err(StreamError::UnsortedIndices { position: pos });
                }
            }
            out.extend_from_view(view);
        }
        Ok(SparseStream {
            dim,
            repr: Repr::Sparse(out),
        })
    }

    /// Consumes the stream returning its sparse payload when sparse.
    pub fn into_sparse(self) -> Option<SparseVec<V>> {
        match self.repr {
            Repr::Sparse(sv) => Some(sv),
            Repr::Dense(_) => None,
        }
    }

    /// Consumes the stream returning the dense payload (materializing it if
    /// needed).
    pub fn into_dense_vec(self) -> Vec<V> {
        match self.repr {
            Repr::Sparse(_) => self.to_dense_vec(),
            Repr::Dense(values) => values,
        }
    }

    /// Checks the sortedness/bounds invariants; used by tests and debug
    /// assertions throughout the workspace.
    pub fn check_invariants(&self) -> Result<(), StreamError> {
        match &self.repr {
            Repr::Sparse(sv) => validate_sorted_in_bounds(sv.indices(), self.dim),
            Repr::Dense(values) => {
                if values.len() != self.dim {
                    Err(StreamError::LengthMismatch {
                        expected: self.dim,
                        actual: values.len(),
                    })
                } else {
                    Ok(())
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(dim: usize, pairs: &[(u32, f32)]) -> SparseStream<f32> {
        SparseStream::from_pairs(dim, pairs).unwrap()
    }

    #[test]
    fn zeros_is_empty_sparse() {
        let v = SparseStream::<f32>::zeros(10);
        assert!(v.is_sparse());
        assert_eq!(v.nnz(), 0);
        assert_eq!(v.dim(), 10);
        assert_eq!(v.get(3), 0.0);
    }

    #[test]
    fn from_sorted_validates() {
        let ok = SparseStream::from_slabs(5, vec![1, 3], vec![1.0f32, 2.0]);
        assert!(ok.is_ok());
        let unsorted = SparseStream::from_slabs(5, vec![3, 1], vec![1.0f32, 2.0]);
        assert!(matches!(unsorted, Err(StreamError::UnsortedIndices { .. })));
        let dup = SparseStream::from_slabs(5, vec![3, 3], vec![1.0f32, 2.0]);
        assert!(matches!(dup, Err(StreamError::UnsortedIndices { .. })));
        let oob = SparseStream::from_slabs(5, vec![5], vec![1.0f32]);
        assert!(matches!(oob, Err(StreamError::IndexOutOfBounds { .. })));
        let mismatched = SparseStream::from_slabs(5, vec![1, 2], vec![1.0f32]);
        assert!(matches!(
            mismatched,
            Err(StreamError::SlabLengthMismatch { .. })
        ));
    }

    #[test]
    fn from_pairs_sorts_and_merges() {
        let v = s(10, &[(7, 1.0), (2, 2.0), (7, 3.0)]);
        assert_eq!(v.nnz(), 2);
        assert_eq!(v.get(7), 4.0);
        assert_eq!(v.get(2), 2.0);
        v.check_invariants().unwrap();
    }

    #[test]
    fn densify_sparsify_round_trip() {
        let mut v = s(8, &[(1, 1.0), (6, -2.0)]);
        let dense = v.to_dense_vec();
        assert_eq!(dense, vec![0.0, 1.0, 0.0, 0.0, 0.0, 0.0, -2.0, 0.0]);
        v.densify();
        assert!(v.is_dense());
        assert_eq!(v.get(6), -2.0);
        v.sparsify();
        assert!(v.is_sparse());
        assert_eq!(v.nnz(), 2);
        v.check_invariants().unwrap();
    }

    #[test]
    fn below_delta_the_sparse_frame_is_never_the_larger_one() {
        // At δ = N/2 entries exactly: 4 bytes a value plus an 18-byte
        // Elias–Fano index (L, base, 99 upper bits) against 4 bytes a word.
        let pairs: Vec<(u32, f32)> = (0..50).map(|i| (2 * i, 1.0)).collect();
        let v = s(100, &pairs);
        assert_eq!(v.stored_len(), crate::threshold::delta_raw::<f32>(100));
        let mut d = v.clone();
        d.densify();
        assert_eq!(v.encoded_len(), 20 + 50 * 4 + 5 + 13);
        assert_eq!(v.encode().len(), v.encoded_len());
        assert_eq!(d.encoded_len(), 12 + 100 * 4);
        assert!(v.encoded_len() <= d.encoded_len());
    }

    #[test]
    fn restrict_selects_range() {
        let v = s(100, &[(5, 1.0), (20, 2.0), (21, 3.0), (90, 4.0)]);
        let r = v.restrict(20, 90);
        assert_eq!(r.dim(), 100);
        assert_eq!(r.nnz(), 2);
        assert_eq!(r.get(20), 2.0);
        assert_eq!(r.get(21), 3.0);
        assert_eq!(r.get(90), 0.0);
    }

    #[test]
    fn restrict_on_dense() {
        let mut v = s(10, &[(2, 1.0), (8, 2.0)]);
        v.densify();
        let r = v.restrict(0, 5);
        assert!(r.is_sparse());
        assert_eq!(r.nnz(), 1);
        assert_eq!(r.get(2), 1.0);
    }

    #[test]
    fn sparse_view_matches_restrict() {
        let v = s(100, &[(5, 1.0), (20, 2.0), (21, 3.0), (90, 4.0)]);
        let view = v.sparse_view().unwrap().range(20, 90);
        let restricted = v.restrict(20, 90);
        let expect = restricted.sparse_view().unwrap();
        assert_eq!(view.indices(), expect.indices());
        assert_eq!(view.values(), expect.values());
    }

    #[test]
    fn concat_disjoint_joins_partitions() {
        let a = s(100, &[(1, 1.0), (5, 2.0)]);
        let b = s(100, &[(50, 3.0)]);
        let c = s(100, &[(80, 4.0), (99, 5.0)]);
        let joined = SparseStream::concat_disjoint(&[a, b, c]).unwrap();
        assert_eq!(joined.nnz(), 5);
        assert_eq!(joined.get(99), 5.0);
        joined.check_invariants().unwrap();
    }

    #[test]
    fn concat_disjoint_rejects_overlap() {
        let a = s(100, &[(1, 1.0), (50, 2.0)]);
        let b = s(100, &[(50, 3.0)]);
        assert!(SparseStream::concat_disjoint(&[a, b]).is_err());
    }

    #[test]
    fn scale_and_norm() {
        let mut v = s(10, &[(0, 3.0), (1, 4.0)]);
        assert!((v.l2_norm() - 5.0).abs() < 1e-9);
        v.scale(2.0);
        assert_eq!(v.get(0), 6.0);
        assert_eq!(v.get(1), 8.0);
    }

    #[test]
    fn prune_zeros_drops_cancellations() {
        let mut v = SparseStream::from_slabs(5, vec![0, 2], vec![0.0f32, 1.0]).unwrap();
        assert_eq!(v.stored_len(), 2);
        v.prune_zeros();
        assert_eq!(v.stored_len(), 1);
        assert_eq!(v.nnz(), 1);
    }

    #[test]
    fn iter_nonzero_skips_zeros_in_both_reprs() {
        let mut v = SparseStream::from_slabs(5, vec![0, 2], vec![0.0f32, 1.0]).unwrap();
        let got: Vec<_> = v.iter_nonzero().collect();
        assert_eq!(got, vec![(2, 1.0)]);
        v.densify();
        let got: Vec<_> = v.iter_nonzero().collect();
        assert_eq!(got, vec![(2, 1.0)]);
    }

    #[test]
    fn into_sparse_returns_slabs() {
        let v = s(10, &[(2, 1.0), (7, 2.0)]);
        let sv = v.into_sparse().unwrap();
        assert_eq!(sv.indices(), &[2, 7]);
        assert_eq!(sv.values(), &[1.0, 2.0]);
        let mut d = s(4, &[(0, 1.0)]);
        d.densify();
        assert!(d.into_sparse().is_none());
    }

    #[test]
    fn normalize_switches_by_policy() {
        let policy = DensityPolicy::default();
        // f32: delta = dim/2 = 4, so 5 entries forces dense.
        let mut v = s(8, &[(0, 1.0), (1, 1.0), (2, 1.0), (3, 1.0), (4, 1.0)]);
        v.normalize(&policy);
        assert!(v.is_dense());
        // A nearly-empty dense vector flips back to sparse.
        let mut d = SparseStream::from_dense(vec![0.0f32; 64]);
        d.normalize(&policy);
        assert!(d.is_sparse());
    }
}
