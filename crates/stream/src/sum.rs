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
//! All kernels walk the structure-of-arrays slabs directly (`&[u32]` next
//! to `&[V]`), so the inner loops are branch-light slice traversals.
//!
//! Summing *many* streams goes through [`TournamentSum`]: operands are
//! combined pairwise in a fixed binary-counter shape instead of folded
//! left to right into one growing accumulator, so `m` operands of `n`
//! entries in total cost at most `n·⌈log2 m⌉` element operations where
//! the left fold re-walks its accumulator `m − 1` times (`≈ n·m/2` on
//! balanced disjoint inputs). Every pairwise step is the two-operand sum
//! above, δ rule included. Operands that all lie in one index window — a
//! split owner's sub-ranges — are summed with one scatter per entry in a
//! [`crate::WindowSum`] instead.

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
        let dim = self.dim();
        let delta = policy.delta::<V>(dim);

        match (self.is_dense(), other.is_dense()) {
            (false, false) => {
                let (a_len, b_len) = (self.stored_len(), other.stored_len());
                if a_len + b_len > delta {
                    // Fill-in upper bound exceeded: produce dense result.
                    self.densify();
                    let stats = scatter_into_dense(self, other)?;
                    Ok(SumStats {
                        switched_to_dense: true,
                        ..stats
                    })
                } else {
                    let merged = {
                        let a = self.sparse_view().expect("sparse operand");
                        let b = other.sparse_view().expect("sparse operand");
                        merge_sorted(a, b)
                    };
                    let processed = merged.len();
                    // Merging two sorted slabs yields a sorted slab; skip
                    // the O(n) revalidation scan.
                    self.set_repr(Repr::Sparse(merged));
                    debug_assert!(self.check_invariants().is_ok());
                    Ok(SumStats {
                        elements_processed: processed,
                        result_dense: false,
                        switched_to_dense: false,
                    })
                }
            }
            (true, false) => scatter_into_dense(self, other),
            (false, true) => {
                // Commute: dense side becomes the accumulator.
                let mut result = other.clone();
                let mut stats = scatter_into_dense(&mut result, self)?;
                *self = result;
                stats.switched_to_dense = true;
                Ok(stats)
            }
            (true, true) => {
                let Repr::Dense(b) = other.repr() else {
                    unreachable!()
                };
                let Repr::Dense(a) = self.repr_mut() else {
                    unreachable!()
                };
                for (x, y) in a.iter_mut().zip(b.iter()) {
                    *x = x.add(*y);
                }
                Ok(SumStats {
                    elements_processed: dim,
                    result_dense: true,
                    switched_to_dense: false,
                })
            }
        }
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
        if let Some(&last) = view.indices().last() {
            if last as usize >= dim {
                return Err(StreamError::IndexOutOfBounds { idx: last, dim });
            }
        } else {
            // Empty contribution: nothing to fold in.
            return Ok(SumStats {
                elements_processed: 0,
                result_dense: self.is_dense(),
                switched_to_dense: false,
            });
        }
        if self.is_dense() {
            return Ok(scatter_view_into_dense(self, view));
        }
        let delta = policy.delta::<V>(dim);
        if self.stored_len() + view.len() > delta {
            self.densify();
            let stats = scatter_view_into_dense(self, view);
            return Ok(SumStats {
                switched_to_dense: true,
                ..stats
            });
        }
        let merged = merge_sorted(self.sparse_view().expect("sparse accumulator"), view);
        let processed = merged.len();
        self.set_repr(Repr::Sparse(merged));
        debug_assert!(self.check_invariants().is_ok());
        Ok(SumStats {
            elements_processed: processed,
            result_dense: false,
            switched_to_dense: false,
        })
    }
}

/// Adds the entries of a borrowed view into the dense accumulator
/// `dense`. Indices must already be validated against `dense.dim()`.
fn scatter_view_into_dense<V: Scalar>(
    dense: &mut SparseStream<V>,
    view: SparseView<'_, V>,
) -> SumStats {
    debug_assert!(dense.is_dense());
    let Repr::Dense(values) = dense.repr_mut() else {
        unreachable!()
    };
    for (i, v) in view.indices().iter().zip(view.values()) {
        let slot = &mut values[*i as usize];
        *slot = slot.add(*v);
    }
    SumStats {
        elements_processed: view.len(),
        result_dense: true,
        switched_to_dense: false,
    }
}

/// Adds the sparse entries of `sparse` into the dense accumulator `dense`.
fn scatter_into_dense<V: Scalar>(
    dense: &mut SparseStream<V>,
    sparse: &SparseStream<V>,
) -> Result<SumStats, StreamError> {
    debug_assert!(dense.is_dense());
    let Some(view) = sparse.sparse_view() else {
        return Err(StreamError::Corrupt(
            "scatter_into_dense expects a sparse addend",
        ));
    };
    let Repr::Dense(values) = dense.repr_mut() else {
        unreachable!()
    };
    let (indices, addends) = (view.indices(), view.values());
    for (i, v) in indices.iter().zip(addends) {
        let slot = &mut values[*i as usize];
        *slot = slot.add(*v);
    }
    Ok(SumStats {
        elements_processed: view.len(),
        result_dense: true,
        switched_to_dense: false,
    })
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

/// Streaming sum of many streams in a fixed tournament shape.
///
/// A binary counter over runs: [`push`](TournamentSum::push) puts the
/// operand on a stack at level 0 and merges the top two runs while their
/// levels are equal; [`finish`](TournamentSum::finish) folds what is
/// left from the top down. Operands are therefore combined in push order
/// in a shape that depends only on their count (a balanced tree for a
/// power of two), which keeps floating-point results reproducible, and at
/// most `⌊log2 m⌋ + 1` runs are alive after `m` pushes.
///
/// Every pairwise step is [`SparseStream::add_assign_with`] under the
/// accumulator's policy. At most one run is ever dense: the first merge
/// that crosses δ (or the first dense operand) yields a dense run, which
/// absorbs every other live run and every later operand by scatter — two
/// dense runs never meet in a `dim`-long add unless two operands arrive
/// dense.
#[derive(Debug)]
pub struct TournamentSum<V: Scalar> {
    policy: DensityPolicy,
    /// `(level, run)`, oldest first. Levels strictly decrease toward the
    /// top; a dense run is alone on the stack.
    runs: Vec<(u32, SparseStream<V>)>,
}

impl<V: Scalar> TournamentSum<V> {
    /// An empty sum whose merges apply `policy`'s δ rule.
    pub fn new(policy: DensityPolicy) -> Self {
        TournamentSum {
            policy,
            runs: Vec::new(),
        }
    }

    /// Adds one operand. The returned stats cover the merges this push
    /// triggered (`elements_processed` summed over them; none for the
    /// first operand). An operand of another dimension is rejected with
    /// [`StreamError::DimMismatch`] and leaves the sum untouched.
    pub fn push(&mut self, part: SparseStream<V>) -> Result<SumStats, StreamError> {
        if let Some((_, first)) = self.runs.first() {
            if first.dim() != part.dim() {
                return Err(StreamError::DimMismatch {
                    left: first.dim(),
                    right: part.dim(),
                });
            }
        }
        let mut total = SumStats::idle(part.is_dense());
        self.runs.push((0, part));
        // Carry while the top two runs are level with each other; a dense
        // run on either side absorbs its neighbour whatever the levels.
        while let [.., (below, older), (top, newer)] = self.runs.as_slice() {
            if below != top && !older.is_dense() && !newer.is_dense() {
                break;
            }
            let (_, newer) = self.runs.pop().expect("two runs matched");
            let (level, older) = self.runs.last_mut().expect("two runs matched");
            total.absorb(combine(older, newer, &self.policy)?);
            *level += 1;
        }
        debug_assert!(self.runs.len() == 1 || self.runs.iter().all(|(_, r)| !r.is_dense()));
        Ok(total)
    }

    /// Folds the remaining runs into the result, newest first. Fails with
    /// [`StreamError::Corrupt`] when nothing was pushed.
    pub fn finish(mut self) -> Result<(SparseStream<V>, SumStats), StreamError> {
        let Some((_, mut acc)) = self.runs.pop() else {
            return Err(StreamError::Corrupt(
                "a sum of streams needs at least one input",
            ));
        };
        let mut total = SumStats::idle(acc.is_dense());
        while let Some((_, mut older)) = self.runs.pop() {
            total.absorb(combine(&mut older, acc, &self.policy)?);
            acc = older;
        }
        Ok((acc, total))
    }
}

impl SumStats {
    /// No merge yet, on a result in the given representation.
    fn idle(result_dense: bool) -> Self {
        SumStats {
            elements_processed: 0,
            result_dense,
            switched_to_dense: false,
        }
    }

    /// Accumulates the next merge of the same reduction into `self`.
    fn absorb(&mut self, merge: SumStats) {
        self.elements_processed += merge.elements_processed;
        self.result_dense = merge.result_dense;
        self.switched_to_dense |= merge.switched_to_dense;
    }
}

/// `older += newer`, with the dense operand (if exactly one is) as the
/// accumulator so the other is scattered into it instead of cloning it.
fn combine<V: Scalar>(
    older: &mut SparseStream<V>,
    mut newer: SparseStream<V>,
    policy: &DensityPolicy,
) -> Result<SumStats, StreamError> {
    if newer.is_dense() && !older.is_dense() {
        std::mem::swap(older, &mut newer);
    }
    older.add_assign_with(&newer, policy)
}

/// Reduces a sequence of streams into one under `policy`, combining them
/// in order through a [`TournamentSum`]. Returns the result together with
/// the total elements processed (for virtual compute-time accounting):
/// zero for a single operand, at most `Σ|Hᵢ|·⌈log2 m⌉` for `m` sparse
/// ones. No operand is an error, and so is a dimension that differs from
/// the first operand's — checked before any merge.
pub fn reduce_streams<V: Scalar>(
    parts: Vec<SparseStream<V>>,
    policy: &DensityPolicy,
) -> Result<(SparseStream<V>, usize), StreamError> {
    if let Some((first, rest)) = parts.split_first() {
        if let Some(odd) = rest.iter().find(|part| part.dim() != first.dim()) {
            return Err(StreamError::DimMismatch {
                left: first.dim(),
                right: odd.dim(),
            });
        }
    }
    let mut sum = TournamentSum::new(*policy);
    let mut processed = 0usize;
    for part in parts {
        processed += sum.push(part)?.elements_processed;
    }
    let (out, stats) = sum.finish()?;
    Ok((out, processed + stats.elements_processed))
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
    fn reduce_streams_matches_sequential_dense_sum() {
        let parts = vec![
            s(16, &[(0, 1.0), (3, 1.0)]),
            s(16, &[(3, 2.0), (8, 1.0)]),
            s(16, &[(15, 7.0)]),
        ];
        let mut expect = vec![0.0f32; 16];
        for p in &parts {
            for (i, v) in p.iter_nonzero() {
                expect[i as usize] += v;
            }
        }
        let (got, processed) = reduce_streams(parts, &DensityPolicy::default()).unwrap();
        assert!(processed > 0);
        assert_eq!(got.to_dense_vec(), expect);
    }

    #[test]
    fn reduce_streams_of_nothing_is_an_error() {
        let err = reduce_streams::<f32>(vec![], &DensityPolicy::default()).unwrap_err();
        assert!(matches!(err, StreamError::Corrupt(_)));
    }

    #[test]
    fn reduce_streams_of_one_returns_it_unprocessed() {
        let only = s(16, &[(3, 2.0), (8, 1.0)]);
        let (got, processed) =
            reduce_streams(vec![only.clone()], &DensityPolicy::default()).unwrap();
        assert_eq!(got, only);
        assert_eq!(processed, 0);
    }

    #[test]
    fn reduce_streams_rejects_mixed_dimensions() {
        let parts = vec![s(16, &[(0, 1.0)]), s(16, &[(1, 1.0)]), s(17, &[(2, 1.0)])];
        let err = reduce_streams(parts, &DensityPolicy::default()).unwrap_err();
        assert!(matches!(
            err,
            StreamError::DimMismatch {
                left: 16,
                right: 17
            }
        ));
        // The streaming form rejects the odd operand and stays usable.
        let mut sum = TournamentSum::new(DensityPolicy::default());
        sum.push(s(16, &[(0, 1.0)])).unwrap();
        assert!(sum.push(s(17, &[(0, 1.0)])).is_err());
        sum.push(s(16, &[(0, 2.0)])).unwrap();
        assert_eq!(sum.finish().unwrap().0, s(16, &[(0, 3.0)]));
    }

    #[test]
    fn tournament_keeps_log_many_runs_and_one_dense() {
        // dim 64 → δ = 32 for f32. Operands 4 and 5 hold 17 entries each,
        // so their level-0 merge (34 > δ) goes dense while a level-2 run
        // of the first four sits below it: the dense run must absorb that
        // run at once and every later operand on arrival.
        let dim = 64;
        let size = |r: usize| match r {
            0..=3 => 3u32,
            4 | 5 => 17,
            _ => 1,
        };
        for m in 1..=17usize {
            let mut sum = TournamentSum::new(DensityPolicy::default());
            let (mut next, mut flips, mut processed) = (0u32, 0, 0);
            for r in 0..m {
                let pairs: Vec<(u32, f32)> = (next..next + size(r)).map(|i| (i, 1.0)).collect();
                next += size(r);
                let stats = sum.push(s(dim, &pairs)).unwrap();
                flips += usize::from(stats.switched_to_dense);
                processed += stats.elements_processed;
                let live = sum.runs.len();
                assert!(live <= (r + 1).ilog2() as usize + 1, "m={m}: {live} runs");
                let dense = sum.runs.iter().filter(|(_, run)| run.is_dense()).count();
                assert!(dense == 0 || live == 1, "m={m}: a dense run beside others");
            }
            let (got, stats) = sum.finish().unwrap();
            flips += usize::from(stats.switched_to_dense);
            processed += stats.elements_processed;
            assert_eq!(got.is_dense(), m >= 6, "m={m}");
            assert_eq!(flips, usize::from(m >= 6), "m={m}");
            assert_eq!(got.nnz(), next as usize, "m={m}");
            assert!(got.iter_nonzero().all(|(_, v)| v == 1.0), "m={m}");
            // No dim-long add: every step costs at most what it takes in.
            assert!(processed <= next as usize * m.ilog2() as usize + next as usize);
        }
    }

    #[test]
    fn tournament_charges_n_log_m_on_disjoint_operands() {
        // 8 operands of 10 entries on disjoint ranges: a balanced tree
        // emits 3·80 entries where the left fold emitted 20+30+…+80 = 350.
        let parts: Vec<SparseStream<f32>> = (0..8u32)
            .map(|r| {
                let pairs: Vec<(u32, f32)> = (0..10).map(|i| (r * 100 + i, 1.0)).collect();
                s(1 << 16, &pairs)
            })
            .collect();
        let (got, processed) = reduce_streams(parts, &DensityPolicy::default()).unwrap();
        assert_eq!(got.nnz(), 80);
        assert_eq!(processed, 240);
    }
}
