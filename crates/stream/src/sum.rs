//! Efficient summation of sparse streams (§5.1, "Efficient Summation").
//!
//! The key operation of every sparse collective is summing two streams that
//! may each be sparse or dense:
//!
//! * **sparse + sparse** — if the fill-in upper bound `|H1| + |H2|` exceeds
//!   δ the result is produced dense (the paper deliberately uses this cheap
//!   upper bound instead of computing `|H1 ∪ H2|`); otherwise a linear
//!   merge of the two sorted index/value slab pairs;
//! * **sparse + dense** — scatter the sparse slabs into the dense buffer;
//! * **dense + dense** — element-wise (auto-vectorized) addition in place,
//!   allocating no new stream.
//!
//! A sparse addend — an owned stream or a borrowed [`SparseView`] — goes
//! through one kernel, so both entry points make the same δ decision on
//! the same operands. All kernels walk the structure-of-arrays slabs
//! directly (`&[u32]` next to `&[V]`), so the inner loops are branch-light
//! slice traversals.
//!
//! Summing *many* streams is a left fold of this rule in operand order,
//! which is the order the sequential reference sums in. Operands that all
//! lie in one index window — a split owner's sub-ranges — are summed with
//! one scatter per entry in a [`crate::WindowSum`] instead.

use crate::error::StreamError;
use crate::scalar::Scalar;
use crate::soa::{SparseVec, SparseView};
use crate::stream::{Repr, SparseStream};
use crate::threshold::DensityPolicy;

/// Outcome statistics of a summation, used by the collectives to charge
/// virtual compute time and by tests to verify representation switching.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SumStats {
    /// Number of element operations performed (merge length or dim).
    pub elements_processed: usize,
    /// Whether the result is stored densely.
    pub result_dense: bool,
    /// Whether this summation triggered a sparse→dense switch.
    pub switched_to_dense: bool,
}

impl<V: Scalar> SparseStream<V> {
    /// Adds `other` into `self` under the default density policy.
    pub fn add_assign(&mut self, other: &SparseStream<V>) -> Result<SumStats, StreamError> {
        self.add_assign_with(other, &DensityPolicy::default())
    }

    /// Adds `other` into `self`, switching to a dense representation when
    /// the policy's δ would be exceeded.
    pub fn add_assign_with(
        &mut self,
        other: &SparseStream<V>,
        policy: &DensityPolicy,
    ) -> Result<SumStats, StreamError> {
        if self.dim() != other.dim() {
            return Err(StreamError::DimMismatch {
                left: self.dim(),
                right: other.dim(),
            });
        }
        if let Some(view) = other.sparse_view() {
            return Ok(add_sparse(self, view, policy));
        }
        let Repr::Dense(b) = other.repr() else {
            unreachable!()
        };
        if let Repr::Dense(a) = self.repr_mut() {
            for (x, y) in a.iter_mut().zip(b.iter()) {
                *x = x.add(*y);
            }
            return Ok(SumStats {
                elements_processed: b.len(),
                result_dense: true,
                switched_to_dense: false,
            });
        }
        // Commute: the dense side becomes the accumulator.
        let mut result = other.clone();
        let stats = add_sparse(&mut result, self.sparse_view().expect("sparse"), policy);
        *self = result;
        Ok(SumStats {
            switched_to_dense: true,
            ..stats
        })
    }

    /// Adds a borrowed sparse slab pair into `self` without materializing
    /// an intermediate stream — the merge-into-state path a long-lived
    /// accumulator (e.g. an aggregation server's per-model state) uses to
    /// fold in a decoded contribution or a `SparseView::range` split.
    ///
    /// The view's indices must all lie below `self.dim()`; an
    /// out-of-bounds index is rejected with
    /// [`StreamError::IndexOutOfBounds`] before anything is mutated. The
    /// density policy applies exactly as in
    /// [`SparseStream::add_assign_with`]: a sparse accumulator switches to
    /// dense when the fill-in upper bound crosses δ.
    pub fn add_assign_view(
        &mut self,
        view: SparseView<'_, V>,
        policy: &DensityPolicy,
    ) -> Result<SumStats, StreamError> {
        let dim = self.dim();
        match view.indices().last() {
            Some(&last) if last as usize >= dim => {
                Err(StreamError::IndexOutOfBounds { idx: last, dim })
            }
            Some(_) => Ok(add_sparse(self, view, policy)),
            // Empty contribution: nothing to fold in.
            None => Ok(SumStats {
                elements_processed: 0,
                result_dense: self.is_dense(),
                switched_to_dense: false,
            }),
        }
    }
}

/// `acc += view` for a sparse addend whose indices lie below `acc.dim()`:
/// scatter into a dense accumulator; densify, then scatter, when the
/// fill-in bound `|H1| + |H2|` crosses δ; merge the two slab pairs
/// otherwise.
fn add_sparse<V: Scalar>(
    acc: &mut SparseStream<V>,
    view: SparseView<'_, V>,
    policy: &DensityPolicy,
) -> SumStats {
    let switched = !acc.is_dense() && acc.stored_len() + view.len() > policy.delta::<V>(acc.dim());
    if switched {
        acc.densify();
    }
    if let Repr::Dense(values) = acc.repr_mut() {
        for (i, v) in view.indices().iter().zip(view.values()) {
            let slot = &mut values[*i as usize];
            *slot = slot.add(*v);
        }
        return SumStats {
            elements_processed: view.len(),
            result_dense: true,
            switched_to_dense: switched,
        };
    }
    let merged = merge_sorted(acc.sparse_view().expect("sparse accumulator"), view);
    let processed = merged.len();
    // Merging two sorted slabs yields a sorted slab; skip the O(n)
    // revalidation scan.
    acc.set_repr(Repr::Sparse(merged));
    debug_assert!(acc.check_invariants().is_ok());
    SumStats {
        elements_processed: processed,
        result_dense: false,
        switched_to_dense: false,
    }
}

/// Linear merge of two sorted slab pairs, summing values on equal indices.
fn merge_sorted<V: Scalar>(a: SparseView<'_, V>, b: SparseView<'_, V>) -> SparseVec<V> {
    let (ai, av) = (a.indices(), a.values());
    let (bi, bv) = (b.indices(), b.values());
    let mut out = SparseVec::with_capacity(ai.len() + bi.len());
    let (mut i, mut j) = (0usize, 0usize);
    // Ordered-disjoint supports (one operand ends before the other
    // begins): bulk-copy the leading operand and skip the loop; the tail
    // copy below appends the other.
    let precedes =
        |x: &[u32], y: &[u32]| matches!((x.last(), y.first()), (Some(l), Some(f)) if l < f);
    if precedes(ai, bi) {
        out.extend_from_slabs(ai, av);
        i = ai.len();
    } else if precedes(bi, ai) {
        out.extend_from_slabs(bi, bv);
        j = bi.len();
    }
    while i < ai.len() && j < bi.len() {
        match ai[i].cmp(&bi[j]) {
            std::cmp::Ordering::Less => {
                out.push(ai[i], av[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(bi[j], bv[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(ai[i], av[i].add(bv[j]));
                i += 1;
                j += 1;
            }
        }
    }
    // Bulk-copy whichever tail remains (one memcpy per slab).
    out.extend_from_slabs(&ai[i..], &av[i..]);
    out.extend_from_slabs(&bi[j..], &bv[j..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(dim: usize, pairs: &[(u32, f32)]) -> SparseStream<f32> {
        SparseStream::from_pairs(dim, pairs).unwrap()
    }

    #[test]
    fn sparse_plus_sparse_merges() {
        let mut a = s(100, &[(1, 1.0), (5, 2.0)]);
        let b = s(100, &[(5, 3.0), (9, 4.0)]);
        let stats = a.add_assign(&b).unwrap();
        assert!(!stats.result_dense);
        assert_eq!(a.nnz(), 3);
        assert_eq!(a.get(5), 5.0);
        assert_eq!(a.get(9), 4.0);
        a.check_invariants().unwrap();
    }

    #[test]
    fn sparse_plus_sparse_switches_to_dense_past_delta() {
        // dim=8 → delta=4 for f32; 3+3 = 6 > 4 forces a dense result.
        let mut a = s(8, &[(0, 1.0), (1, 1.0), (2, 1.0)]);
        let b = s(8, &[(5, 1.0), (6, 1.0), (7, 1.0)]);
        let stats = a.add_assign(&b).unwrap();
        assert!(stats.result_dense);
        assert!(stats.switched_to_dense);
        assert!(a.is_dense());
        assert_eq!(a.get(0), 1.0);
        assert_eq!(a.get(7), 1.0);
    }

    #[test]
    fn never_densify_policy_keeps_sparse() {
        let mut a = s(8, &[(0, 1.0), (1, 1.0), (2, 1.0)]);
        let b = s(8, &[(5, 1.0), (6, 1.0), (7, 1.0)]);
        let stats = a
            .add_assign_with(&b, &DensityPolicy::never_densify())
            .unwrap();
        assert!(!stats.result_dense);
        assert!(a.is_sparse());
        assert_eq!(a.nnz(), 6);
    }

    #[test]
    fn dense_plus_sparse_scatters() {
        let mut a = SparseStream::from_dense(vec![1.0f32; 4]);
        let b = s(4, &[(2, 5.0)]);
        let stats = a.add_assign(&b).unwrap();
        assert!(stats.result_dense);
        assert_eq!(a.get(2), 6.0);
        assert_eq!(a.get(0), 1.0);
    }

    #[test]
    fn sparse_plus_dense_commutes_to_dense() {
        let mut a = s(4, &[(2, 5.0)]);
        let b = SparseStream::from_dense(vec![1.0f32; 4]);
        let stats = a.add_assign(&b).unwrap();
        assert!(stats.result_dense);
        assert!(a.is_dense());
        assert_eq!(a.get(2), 6.0);
        assert_eq!(a.get(3), 1.0);
    }

    #[test]
    fn dense_plus_dense_in_place() {
        let mut a = SparseStream::from_dense(vec![1.0f32, 2.0]);
        let b = SparseStream::from_dense(vec![10.0f32, 20.0]);
        let stats = a.add_assign(&b).unwrap();
        assert_eq!(stats.elements_processed, 2);
        assert_eq!(a.get(0), 11.0);
        assert_eq!(a.get(1), 22.0);
    }

    #[test]
    fn dim_mismatch_rejected() {
        let mut a = s(4, &[(0, 1.0)]);
        let b = s(5, &[(0, 1.0)]);
        assert!(matches!(
            a.add_assign(&b),
            Err(StreamError::DimMismatch { .. })
        ));
    }

    #[test]
    fn merge_handles_disjoint_tails() {
        // One input entirely precedes the other, in either order, or is
        // empty: the merge body never runs and the slabs are bulk-copied.
        let lo = s(100, &[(1, 1.0), (2, 2.0)]);
        let hi = s(100, &[(50, 3.0), (60, 4.0)]);
        let empty = SparseStream::<f32>::zeros(100);
        for (a, b) in [(&lo, &hi), (&hi, &lo)] {
            let mut acc = a.clone();
            let stats = acc.add_assign(b).unwrap();
            assert_eq!(stats.elements_processed, 4);
            let view = acc.sparse_view().unwrap();
            assert_eq!(view.indices(), &[1, 2, 50, 60]);
            assert_eq!(view.values(), &[1.0, 2.0, 3.0, 4.0]);
        }
        for (a, b) in [(&lo, &empty), (&empty, &lo)] {
            let mut acc = a.clone();
            let stats = acc.add_assign(b).unwrap();
            assert_eq!(stats.elements_processed, 2);
            assert_eq!(acc, lo);
        }
        // Touching ranges share an index: not disjoint, summed by the loop.
        let mut acc = lo.clone();
        acc.add_assign(&s(100, &[(2, 5.0), (9, 1.0)])).unwrap();
        assert_eq!(acc, s(100, &[(1, 1.0), (2, 7.0), (9, 1.0)]));
    }

    #[test]
    fn add_assign_view_merges_without_materializing() {
        let mut acc = s(100, &[(1, 1.0), (5, 2.0)]);
        let contrib = s(100, &[(5, 3.0), (9, 4.0)]);
        let stats = acc
            .add_assign_view(contrib.sparse_view().unwrap(), &DensityPolicy::default())
            .unwrap();
        assert!(!stats.result_dense);
        assert_eq!(acc.nnz(), 3);
        assert_eq!(acc.get(5), 5.0);
        assert_eq!(acc.get(9), 4.0);
        acc.check_invariants().unwrap();
    }

    #[test]
    fn add_assign_view_switches_to_dense_past_delta() {
        let mut acc = s(8, &[(0, 1.0), (1, 1.0), (2, 1.0)]);
        let contrib = s(8, &[(5, 1.0), (6, 1.0), (7, 1.0)]);
        let stats = acc
            .add_assign_view(contrib.sparse_view().unwrap(), &DensityPolicy::default())
            .unwrap();
        assert!(stats.switched_to_dense);
        assert!(acc.is_dense());
        assert_eq!(acc.get(7), 1.0);
    }

    #[test]
    fn add_assign_view_into_dense_scatters() {
        let mut acc = SparseStream::from_dense(vec![1.0f32; 4]);
        let contrib = s(4, &[(2, 5.0)]);
        let stats = acc
            .add_assign_view(contrib.sparse_view().unwrap(), &DensityPolicy::default())
            .unwrap();
        assert!(stats.result_dense);
        assert!(!stats.switched_to_dense);
        assert_eq!(acc.get(2), 6.0);
    }

    #[test]
    fn add_assign_view_rejects_out_of_bounds_before_mutating() {
        let mut acc = s(4, &[(0, 1.0)]);
        let contrib = s(100, &[(0, 1.0), (50, 2.0)]);
        let err = acc
            .add_assign_view(contrib.sparse_view().unwrap(), &DensityPolicy::default())
            .unwrap_err();
        assert!(matches!(err, StreamError::IndexOutOfBounds { idx: 50, .. }));
        // The accumulator is untouched by the rejected contribution.
        assert_eq!(acc.nnz(), 1);
        assert_eq!(acc.get(0), 1.0);
    }

    #[test]
    fn add_assign_view_empty_is_noop() {
        let mut acc = s(4, &[(0, 1.0)]);
        let contrib = SparseStream::<f32>::zeros(9999);
        let stats = acc
            .add_assign_view(contrib.sparse_view().unwrap(), &DensityPolicy::default())
            .unwrap();
        assert_eq!(stats.elements_processed, 0);
        assert_eq!(acc.nnz(), 1);
    }

    #[test]
    fn stream_and_view_addends_take_the_same_kernel() {
        // Below δ, past δ and into a dense accumulator (dim 8 → δ = 4): a
        // sparse stream and its view leave the same sum and the same stats.
        let small = s(8, &[(1, 1.0), (6, 2.0)]);
        let big = s(8, &[(0, 1.0), (1, 1.0), (2, 1.0)]);
        let dense = SparseStream::from_dense(vec![1.0f32; 8]);
        for (acc, addend) in [(&small, &small), (&big, &small), (&dense, &big)] {
            let (mut by_stream, mut by_view) = (acc.clone(), acc.clone());
            let stream_stats = by_stream.add_assign(addend).unwrap();
            let view = addend.sparse_view().unwrap();
            let view_stats = by_view
                .add_assign_view(view, &DensityPolicy::default())
                .unwrap();
            assert_eq!((by_stream, stream_stats), (by_view, view_stats));
        }
    }
}
