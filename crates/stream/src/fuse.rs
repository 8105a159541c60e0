//! Gradient fusion: packing many per-layer streams into one flat index
//! space and splitting results back out.
//!
//! A fused stream concatenates `K` logical vectors of dimensions
//! `d_0 … d_{K−1}` into one vector of dimension `Σ d_i`; layer `i`'s
//! coordinates are shifted by the running offset `o_i = Σ_{j<i} d_j`. One
//! collective over the fused stream then replaces `K` small collectives —
//! the bucketing trick that amortizes per-collective latency in the
//! progress engine (and in DDP-style trainers generally). The same
//! machinery, applied to *even* partitions of one dimension
//! ([`FusedLayout::even_chunks`]), yields the chunk split used to bound
//! peak frame sizes of an oversized job. The engine closes a bucket
//! before it reaches the chunk size, so a bucket of several jobs is never
//! chunked: its parts are copied once into the fused stream and once out
//! of the result.
//!
//! The SoA slab layout keeps both directions cheap: fusion is a bulk copy
//! of each part's slabs with an offset added to the index slab, and the
//! split is a [`SparseView::range`] (two binary searches) plus a rebasing
//! copy per part.
//!
//! [`SparseView::range`]: crate::SparseView::range

use crate::error::StreamError;
use crate::partition::PartRange;
use crate::scalar::Scalar;
use crate::soa::SparseVec;
use crate::stream::{Repr, SparseStream};

/// The offset table of a fused stream: which index range of the fused
/// space belongs to which part.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FusedLayout {
    /// `parts + 1` cumulative offsets; part `i` owns
    /// `[offsets[i], offsets[i+1])`.
    offsets: Vec<u32>,
}

impl FusedLayout {
    /// Builds the layout for parts of the given dimensions.
    ///
    /// Fails with [`StreamError::IndexOutOfBounds`] when the fused
    /// dimension would not fit the `u32` index space.
    pub fn from_dims(dims: &[usize]) -> Result<FusedLayout, StreamError> {
        let mut offsets = Vec::with_capacity(dims.len() + 1);
        let mut acc: usize = 0;
        offsets.push(0);
        for &d in dims {
            acc = acc.checked_add(d).ok_or(StreamError::IndexOutOfBounds {
                idx: u32::MAX,
                dim: usize::MAX,
            })?;
            if acc > u32::MAX as usize {
                return Err(StreamError::IndexOutOfBounds {
                    idx: u32::MAX,
                    dim: acc,
                });
            }
            offsets.push(acc as u32);
        }
        Ok(FusedLayout { offsets })
    }

    /// The layout that splits a `total`-dimensional space into chunks of
    /// at most `max_chunk` indices (the last chunk takes any remainder
    /// short of a full chunk).
    pub fn even_chunks(total: usize, max_chunk: usize) -> Result<FusedLayout, StreamError> {
        assert!(max_chunk > 0, "chunk size must be positive");
        if total == 0 {
            return FusedLayout::from_dims(&[0]);
        }
        let full = total / max_chunk;
        let rem = total - full * max_chunk;
        let mut dims = vec![max_chunk; full];
        if rem > 0 {
            dims.push(rem);
        }
        FusedLayout::from_dims(&dims)
    }

    /// Number of parts.
    pub fn parts(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total fused dimension.
    pub fn total_dim(&self) -> usize {
        *self.offsets.last().expect("offsets never empty") as usize
    }

    /// Fused index range owned by part `i`.
    pub fn range_of(&self, i: usize) -> PartRange {
        PartRange {
            lo: self.offsets[i],
            hi: self.offsets[i + 1],
        }
    }

    /// Logical dimension of part `i`.
    pub fn dim_of(&self, i: usize) -> usize {
        (self.offsets[i + 1] - self.offsets[i]) as usize
    }
}

/// Appends `indices` and `values` to `out` in bulk, with `shift` applied
/// to every index: one copy of the value slab and one mapped pass over the
/// index slab.
fn extend_mapped<V: Scalar>(
    out: &mut SparseVec<V>,
    indices: &[u32],
    values: &[V],
    shift: impl Fn(u32) -> u32,
) {
    let (out_indices, out_values) = out.slabs_mut();
    out_indices.extend(indices.iter().map(|&idx| shift(idx)));
    out_values.extend_from_slice(values);
}

/// Collects a part's entries into `out` with `offset` added to every
/// index.
fn append_shifted<V: Scalar>(out: &mut SparseVec<V>, part: &SparseStream<V>, offset: u32) {
    match part.repr() {
        Repr::Sparse(sv) => extend_mapped(out, sv.indices(), sv.values(), |idx| idx + offset),
        Repr::Dense(values) => {
            for (i, v) in values.iter().enumerate() {
                if !v.is_zero() {
                    out.push(offset + i as u32, *v);
                }
            }
        }
    }
}

/// Fuses `parts` into one stream over the concatenated index space,
/// returning the fused stream and its offset table.
///
/// Parts may mix sparse and dense representations; the fused stream is
/// sparse (dense parts contribute their non-zeros). Fails when the fused
/// dimension overflows the `u32` index space.
pub fn fuse_streams<V: Scalar>(
    parts: &[&SparseStream<V>],
) -> Result<(SparseStream<V>, FusedLayout), StreamError> {
    let dims: Vec<usize> = parts.iter().map(|p| p.dim()).collect();
    let layout = FusedLayout::from_dims(&dims)?;
    let total_entries: usize = parts.iter().map(|p| p.stored_len()).sum();
    let mut fused: SparseVec<V> = SparseVec::with_capacity(total_entries);
    for (i, part) in parts.iter().enumerate() {
        append_shifted(&mut fused, part, layout.range_of(i).lo);
    }
    // Sorted by construction: each part's indices are sorted and the
    // offsets strictly increase part to part; `from_sorted` re-validates
    // as defense in depth.
    let fused = SparseStream::from_sorted(layout.total_dim(), fused)?;
    Ok((fused, layout))
}

/// Splits a fused stream back into its parts, rebasing each part's
/// indices to its own `[0, d_i)` space — the inverse of
/// [`fuse_streams`].
///
/// Works on either representation of the fused stream (a collective may
/// have densified it); dense fused streams split into dense parts.
pub fn split_fused<V: Scalar>(
    fused: &SparseStream<V>,
    layout: &FusedLayout,
) -> Result<Vec<SparseStream<V>>, StreamError> {
    if fused.dim() != layout.total_dim() {
        return Err(StreamError::DimMismatch {
            left: fused.dim(),
            right: layout.total_dim(),
        });
    }
    let mut out = Vec::with_capacity(layout.parts());
    match fused.repr() {
        Repr::Sparse(sv) => {
            let view = sv.as_view();
            for i in 0..layout.parts() {
                let r = layout.range_of(i);
                let window = view.range(r.lo, r.hi);
                let mut part: SparseVec<V> = SparseVec::with_capacity(window.len());
                extend_mapped(&mut part, window.indices(), window.values(), |idx| {
                    idx - r.lo
                });
                out.push(SparseStream::from_sorted(layout.dim_of(i), part)?);
            }
        }
        Repr::Dense(values) => {
            for i in 0..layout.parts() {
                let r = layout.range_of(i);
                out.push(SparseStream::from_dense(
                    values[r.lo as usize..r.hi as usize].to_vec(),
                ));
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(dim: usize, pairs: &[(u32, f32)]) -> SparseStream<f32> {
        SparseStream::from_pairs(dim, pairs).unwrap()
    }

    #[test]
    fn fuse_shifts_and_split_rebases() {
        let a = s(10, &[(1, 1.0), (9, 2.0)]);
        let b = s(5, &[(0, 3.0)]);
        let c = s(8, &[(7, 4.0)]);
        let (fused, layout) = fuse_streams(&[&a, &b, &c]).unwrap();
        assert_eq!(fused.dim(), 23);
        assert_eq!(layout.parts(), 3);
        assert_eq!(fused.get(1), 1.0);
        assert_eq!(fused.get(10), 3.0); // b's index 0 at offset 10
        assert_eq!(fused.get(22), 4.0); // c's index 7 at offset 15
        fused.check_invariants().unwrap();

        let parts = split_fused(&fused, &layout).unwrap();
        assert_eq!(parts, vec![a, b, c]);
    }

    #[test]
    fn fuse_handles_dense_parts_and_dense_results() {
        let a = s(4, &[(2, 1.0)]);
        let mut b = s(3, &[(0, 5.0), (2, -1.0)]);
        b.densify();
        let (fused, layout) = fuse_streams(&[&a, &b]).unwrap();
        assert!(fused.is_sparse());
        assert_eq!(fused.get(4), 5.0);
        // A collective may densify the fused result; the split must still
        // recover every part (as dense slices).
        let mut dense_fused = fused.clone();
        dense_fused.densify();
        let parts = split_fused(&dense_fused, &layout).unwrap();
        assert_eq!(parts[0].to_dense_vec(), a.to_dense_vec());
        assert_eq!(parts[1].to_dense_vec(), b.to_dense_vec());
    }

    #[test]
    fn empty_and_zero_parts_round_trip() {
        let a = SparseStream::<f32>::zeros(6);
        let b = s(4, &[(3, 2.0)]);
        let (fused, layout) = fuse_streams(&[&a, &b]).unwrap();
        assert_eq!(fused.nnz(), 1);
        let parts = split_fused(&fused, &layout).unwrap();
        assert_eq!(parts[0].nnz(), 0);
        assert_eq!(parts[0].dim(), 6);
        assert_eq!(parts[1], b);
    }

    #[test]
    fn even_chunks_cover_exactly() {
        let layout = FusedLayout::even_chunks(10, 4).unwrap();
        assert_eq!(layout.parts(), 3);
        assert_eq!(
            (0..3).map(|i| layout.dim_of(i)).collect::<Vec<_>>(),
            vec![4, 4, 2]
        );
        assert_eq!(layout.total_dim(), 10);
        let exact = FusedLayout::even_chunks(8, 4).unwrap();
        assert_eq!(exact.parts(), 2);
    }

    #[test]
    fn chunk_split_and_refuse_round_trips() {
        // The chunking path of the engine: split a stream into even
        // chunks, then fuse the chunks back — identity.
        let v = s(100, &[(0, 1.0), (33, 2.0), (34, 3.0), (99, 4.0)]);
        let layout = FusedLayout::even_chunks(v.dim(), 34).unwrap();
        let chunks = split_fused(&v, &layout).unwrap();
        assert_eq!(chunks.len(), 3);
        let refs: Vec<&SparseStream<f32>> = chunks.iter().collect();
        let (back, layout2) = fuse_streams(&refs).unwrap();
        assert_eq!(back, v);
        assert_eq!(layout2, layout);
    }

    #[test]
    fn oversized_fusion_is_rejected() {
        let dims = [u32::MAX as usize, 2];
        assert!(matches!(
            FusedLayout::from_dims(&dims),
            Err(StreamError::IndexOutOfBounds { .. })
        ));
    }

    #[test]
    fn split_checks_dimension() {
        let v = s(10, &[(1, 1.0)]);
        let layout = FusedLayout::from_dims(&[4, 4]).unwrap();
        assert!(matches!(
            split_fused(&v, &layout),
            Err(StreamError::DimMismatch { .. })
        ));
    }
}
