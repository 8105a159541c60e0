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
//! directly (`&[u32]` next to `&[V]`).
//!
//! The merge, [`SparseVec::extend_merged`], is two kernels picked by the
//! operands' lengths (Inoue & Taura, VLDB 2015; Bentley & Yao, IPL 1976):
//!
//! * **comparable lengths** — a loop with no data-dependent branch: each
//!   step stores the smaller index and three candidate values to computed
//!   slots, the last store winning, so which of `a`, `b` or `a + b` lands
//!   is an address. A compare-and-advance loop mispredicts about every
//!   other step on random supports, and a loop written with selects on
//!   float values is compiled back into branches;
//! * **lopsided lengths** — past a ratio of 8, every entry of the shorter
//!   side gallops (exponential search) through the longer one and the
//!   runs in between are bulk-copied, `O(s · log(l / s))` instead of
//!   `s + l`. This is the shape of a small contribution into a large
//!   accumulator.
//!
//! An addend that arrives in parts, one index range after the next, is
//! summed a range at a time by a [`RangeSum`], which runs these same
//! kernels with the δ decision taken once on the whole addend's size.
//!
//! Summing *many* streams is a left fold of this rule in operand order,
//! which is the order the sequential reference sums in. Operands that all
//! lie in one index window — a split owner's sub-ranges — are summed with
//! one scatter per entry in a [`crate::WindowSum`] instead.

use std::borrow::Cow;

use crate::error::StreamError;
use crate::partition::PartRange;
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
            add_values(a, b);
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
    let switched = crosses_delta(acc, view.len(), policy);
    if switched {
        acc.densify();
    }
    if let Repr::Dense(values) = acc.repr_mut() {
        scatter(values, view);
        return SumStats {
            elements_processed: view.len(),
            result_dense: true,
            switched_to_dense: switched,
        };
    }
    let mut merged = SparseVec::new();
    let processed = merged.extend_merged(acc.sparse_view().expect("sparse accumulator"), view);
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

/// The δ-switch every sum makes: a sparse accumulator goes dense when the
/// fill-in bound `|H1| + |H2|` crosses δ.
fn crosses_delta<V: Scalar>(acc: &SparseStream<V>, addend: usize, policy: &DensityPolicy) -> bool {
    !acc.is_dense() && acc.stored_len() + addend > policy.delta::<V>(acc.dim())
}

/// `values[i] += v` for every entry of `view`.
fn scatter<V: Scalar>(values: &mut [V], view: SparseView<'_, V>) {
    for (i, v) in view.indices().iter().zip(view.values()) {
        let slot = &mut values[*i as usize];
        *slot = slot.add(*v);
    }
}

/// `a[i] += b[i]`, element-wise.
fn add_values<V: Scalar>(a: &mut [V], b: &[V]) {
    for (x, y) in a.iter_mut().zip(b) {
        *x = x.add(*y);
    }
}

/// `acc + addend` built a range at a time, for an addend that arrives in
/// parts covering consecutive index ranges that tile `[0, dim)` in
/// increasing order. The result is the same to the bit as one
/// [`SparseStream::add_assign_with`] of the whole addend, and the parts'
/// stats add up to that sum's: the δ-switch is decided once, up front, on
/// `|acc|` and the addend's announced stored total, and each range runs
/// the kernel the whole sum runs there — a merge appended to one slab,
/// a scatter into dense values, or dense + dense.
///
/// The accumulator may be borrowed: a sparse one is only read, ranges of
/// it merged into a fresh output, so a caller whose first sum starts from
/// its own input need not copy it first.
#[derive(Debug)]
pub struct RangeSum<'a, V: Scalar> {
    dim: usize,
    out: RangeOut<'a, V>,
    /// Whether the sum switches to dense; reported with the first part.
    switched: bool,
}

#[derive(Debug)]
enum RangeOut<'a, V: Scalar> {
    /// Both sides sparse and under δ: each range of the accumulator's
    /// entries merged with its part, appended to `out`.
    Merge {
        acc: Cow<'a, SparseVec<V>>,
        out: SparseVec<V>,
    },
    /// A dense result. `acc` holds a sparse accumulator's entries when the
    /// addend is the dense side: the addend's values are appended a part
    /// at a time and the accumulator's entries scattered over them, as
    /// `add_assign_with` commutes that sum.
    Dense {
        values: Vec<V>,
        acc: Option<Cow<'a, SparseVec<V>>>,
    },
}

/// The entries of a sparse accumulator, borrowed where it is.
fn sparse_entries<V: Scalar>(acc: Cow<'_, SparseStream<V>>) -> Cow<'_, SparseVec<V>> {
    match acc {
        Cow::Borrowed(stream) => match stream.repr() {
            Repr::Sparse(sv) => Cow::Borrowed(sv),
            Repr::Dense(_) => unreachable!("a sparse accumulator"),
        },
        Cow::Owned(stream) => Cow::Owned(stream.into_sparse().expect("a sparse accumulator")),
    }
}

impl<'a, V: Scalar> RangeSum<'a, V> {
    /// Starts `acc + addend` for an addend that holds `total` stored
    /// entries, dense (`N` values) or sparse as `dense` says.
    pub fn new(
        acc: Cow<'a, SparseStream<V>>,
        total: usize,
        dense: bool,
        policy: &DensityPolicy,
    ) -> Self {
        let dim = acc.dim();
        let switched = !acc.is_dense() && (dense || crosses_delta(&acc, total, policy));
        let out = if dense && !acc.is_dense() {
            RangeOut::Dense {
                values: Vec::with_capacity(dim),
                acc: Some(sparse_entries(acc)),
            }
        } else if acc.is_dense() || switched {
            let values = match acc {
                Cow::Borrowed(stream) => stream.to_dense_vec(),
                Cow::Owned(stream) => stream.into_dense_vec(),
            };
            RangeOut::Dense { values, acc: None }
        } else {
            let acc = sparse_entries(acc);
            RangeOut::Merge {
                out: SparseVec::with_capacity(acc.len() + total),
                acc,
            }
        };
        RangeSum { dim, out, switched }
    }

    /// Adds the sparse addend's entries in `range` (every index of `part`
    /// inside it). Panics if the addend was announced dense.
    pub fn add_sparse(&mut self, range: PartRange, part: SparseView<'_, V>) -> SumStats {
        let processed = match &mut self.out {
            RangeOut::Merge { acc, out } => {
                out.extend_merged(acc.as_view().range(range.lo, range.hi), part)
            }
            RangeOut::Dense { values, acc: None } => {
                scatter(values, part);
                part.len()
            }
            RangeOut::Dense { acc: Some(_), .. } => {
                panic!("a sparse part of an addend announced dense")
            }
        };
        self.stats(processed)
    }

    /// Adds the dense addend's values in `range` (`part` holds exactly
    /// `range.len()` of them). Panics if the addend was announced sparse.
    pub fn add_dense(&mut self, range: PartRange, part: &[V]) -> SumStats {
        let (lo, hi) = (range.lo as usize, range.hi as usize);
        let processed = match &mut self.out {
            RangeOut::Dense {
                values,
                acc: Some(acc),
            } => {
                values.extend_from_slice(part);
                let mine = acc.as_view().range(range.lo, range.hi);
                scatter(values, mine);
                mine.len()
            }
            RangeOut::Dense { values, acc: None } => {
                add_values(&mut values[lo..hi], part);
                hi - lo
            }
            RangeOut::Merge { .. } => panic!("a dense part of an addend announced sparse"),
        };
        self.stats(processed)
    }

    fn stats(&mut self, processed: usize) -> SumStats {
        SumStats {
            elements_processed: processed,
            result_dense: matches!(self.out, RangeOut::Dense { .. }),
            switched_to_dense: std::mem::take(&mut self.switched),
        }
    }

    /// The sum, once every range has had its part.
    pub fn finish(self) -> SparseStream<V> {
        match self.out {
            RangeOut::Merge { out, .. } => {
                let mut sum = SparseStream::zeros(self.dim);
                // Ranges merged in increasing order leave a sorted slab;
                // skip the O(n) revalidation scan.
                sum.set_repr(Repr::Sparse(out));
                debug_assert!(sum.check_invariants().is_ok());
                sum
            }
            RangeOut::Dense { values, .. } => SparseStream::from_dense(values),
        }
    }
}

/// The length ratio past which a merge gallops: when the shorter operand
/// times `GALLOP_RATIO` is still below the longer one's length, each entry
/// of the shorter one finds its place in the longer one by exponential
/// search, and the runs in between are bulk-copied. At lower ratios the
/// branch-free loop, which visits every entry of both, is faster. The
/// `lopsided` group of `cargo bench -p sparcml-stream --bench stream_sum`
/// (N = 2^20, a 160 000-entry long side) puts the crossover at 8 on a
/// 2-vCPU x86-64 host. Run once with this constant at 0 (always gallop)
/// and once at `1 << 40` (never), both kernels read ≈ 1.0–1.1 ms
/// at ratio 8, the loop is twice as fast at 4 (1.1–1.25 against 2.1 ms)
/// and the gallop nearly so at 16 (0.54 against 0.93 ms).
const GALLOP_RATIO: usize = 8;

impl<V: Scalar> SparseVec<V> {
    /// Appends the linear merge of two sorted slab pairs, summing values
    /// on equal indices as `a + b`, and returns how many entries it
    /// appended — the kernel every sparse + sparse sum runs. Both views'
    /// indices must be strictly increasing and follow this payload's last
    /// index, so that a result can be built a sub-range at a time into one
    /// slab.
    ///
    /// The result equals a compare-and-advance merge to the bit, with one
    /// exception the language leaves open: the payload of a NaN that an
    /// addition produces is unspecified (Rust RFC 3514), and an optimized
    /// build may take it from either operand. Such a NaN is a NaN on both
    /// sides; an entry copied from one side keeps its bits.
    ///
    /// Operands whose supports are ordered and disjoint are bulk-copied.
    /// Otherwise the lengths pick the kernel: past `GALLOP_RATIO` the
    /// shorter side gallops through the longer one, and below it both are
    /// walked by a branch-free loop. Either way the slabs are reserved
    /// once, for `|a| + |b|` more entries.
    pub fn extend_merged(&mut self, a: SparseView<'_, V>, b: SparseView<'_, V>) -> usize {
        let before = self.len();
        self.reserve(a.len() + b.len());
        let precedes =
            |x: &[u32], y: &[u32]| matches!((x.last(), y.first()), (Some(l), Some(f)) if l < f);
        if precedes(a.indices(), b.indices()) {
            self.extend_from_view(a);
            self.extend_from_view(b);
        } else if precedes(b.indices(), a.indices()) {
            self.extend_from_view(b);
            self.extend_from_view(a);
        } else if a.len().min(b.len()) * GALLOP_RATIO < a.len().max(b.len()) {
            self.extend_galloped(a, b);
        } else {
            self.extend_branch_free(a, b);
        }
        self.len() - before
    }

    /// The merge as a loop whose data-dependent choices are store
    /// addresses, not branches. Each step writes `min(x, y)` to the index
    /// slab and three values to the value slab, the last write winning:
    /// `vb` at `o`, `va` at `o + (x > y)`, `va + vb` at `o + (x != y)`.
    /// So slot `o` ends up holding `va` when `x < y`, `vb` when `x > y` and
    /// `va + vb` when they are equal, and a write one slot ahead is
    /// overwritten by the next step. Written as selects (`if`, bit masks
    /// on the value bits), the same loop compiles back into a branch per
    /// step on floats, and on random supports that branch mispredicts
    /// about every other step.
    ///
    /// The slabs are sized to `|a| + |b|` up front and truncated after.
    /// A step writes at most one slot past `o`, and `o + 1 ≤ i + j + 1`
    /// stays below `|a| + |b|` while both cursors are inside their
    /// operands, so no spare slot is needed.
    fn extend_branch_free(&mut self, a: SparseView<'_, V>, b: SparseView<'_, V>) {
        let (ai, av) = (a.indices(), a.values());
        let (bi, bv) = (b.indices(), b.values());
        let base = self.len();
        let (indices, values) = self.slabs_mut();
        indices.resize(base + ai.len() + bi.len(), 0);
        values.resize(base + ai.len() + bi.len(), V::zero());
        let (oi, ov) = (&mut indices[base..], &mut values[base..]);
        let (mut i, mut j, mut o) = (0usize, 0usize, 0usize);
        while i < ai.len() && j < bi.len() {
            let (x, y, va, vb) = (ai[i], bi[j], av[i], bv[j]);
            oi[o] = x.min(y);
            ov[o] = vb;
            ov[o + usize::from(x > y)] = va;
            ov[o + usize::from(x != y)] = va.add(vb);
            i += usize::from(x <= y);
            j += usize::from(y <= x);
            o += 1;
        }
        indices.truncate(base + o);
        values.truncate(base + o);
        // Bulk-copy whichever tail remains (one memcpy per slab).
        self.extend_from_slabs(&ai[i..], &av[i..]);
        self.extend_from_slabs(&bi[j..], &bv[j..]);
    }

    /// The merge of a short operand into a long one: every entry of the
    /// shorter side finds its place in the longer side by exponential
    /// search from the cursor, the run below it is bulk-copied, and the
    /// entry is pushed, summed with an equal index in operand order.
    /// `O(s · log(l / s))` comparisons for lengths `s ≤ l`, against the
    /// loop's `s + l`.
    fn extend_galloped(&mut self, a: SparseView<'_, V>, b: SparseView<'_, V>) {
        let a_short = a.len() <= b.len();
        let (short, long) = if a_short { (a, b) } else { (b, a) };
        let (li, lv) = (long.indices(), long.values());
        let mut j = 0;
        for (x, v) in short.iter() {
            let run = j + gallop(&li[j..], x);
            self.extend_from_slabs(&li[j..run], &lv[j..run]);
            j = run;
            if li.get(j) == Some(&x) {
                self.push(x, if a_short { v.add(lv[j]) } else { lv[j].add(v) });
                j += 1;
            } else {
                self.push(x, v);
            }
        }
        self.extend_from_slabs(&li[j..], &lv[j..]);
    }
}

/// How many entries of the sorted `s` lie below `x`: a step that doubles
/// from the front until it passes `x`, then a bisection of the last step
/// (Bentley & Yao's unbounded search), `O(log d)` for an answer `d`.
fn gallop(s: &[u32], x: u32) -> usize {
    let mut bound = 1;
    while bound < s.len() && s[bound] < x {
        bound *= 2;
    }
    let lo = bound / 2;
    lo + s[lo..s.len().min(bound)].partition_point(|&y| y < x)
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

    /// `acc + addend` by a [`RangeSum`] over four ranges of `[0, dim)`,
    /// with each range's stats.
    fn sum_in_ranges(
        acc: Cow<'_, SparseStream<f32>>,
        addend: &SparseStream<f32>,
    ) -> (SparseStream<f32>, Vec<SumStats>) {
        use crate::partition_range;
        let dim = addend.dim();
        let policy = DensityPolicy::default();
        let mut sum = RangeSum::new(acc, addend.stored_len(), addend.is_dense(), &policy);
        let stats = (0..4)
            .map(|j| {
                let range = partition_range(dim, 4, j);
                match addend.sparse_view() {
                    Some(view) => sum.add_sparse(range, view.range(range.lo, range.hi)),
                    None => {
                        let values = addend.to_dense_vec();
                        sum.add_dense(range, &values[range.lo as usize..range.hi as usize])
                    }
                }
            })
            .collect();
        (sum.finish(), stats)
    }

    /// dim 64 → δ = 32: `(acc, addend)` pairs under δ, across it, into a
    /// dense accumulator, and a dense addend on either accumulator.
    fn range_sum_cases() -> Vec<(SparseStream<f32>, SparseStream<f32>)> {
        use crate::random_sparse;
        let dim = 64;
        let dense = |s: &SparseStream<f32>| {
            let mut d = s.clone();
            d.densify();
            d
        };
        let (a, b, big) = (
            random_sparse::<f32>(dim, 10, 1),
            random_sparse::<f32>(dim, 12, 2),
            random_sparse::<f32>(dim, 30, 3),
        );
        vec![
            (a.clone(), b.clone()),
            (a.clone(), big),
            (dense(&a), b.clone()),
            (a.clone(), dense(&b)),
            (dense(&a), dense(&b)),
        ]
    }

    #[test]
    fn a_range_sum_is_the_whole_sum() {
        for (acc, addend) in range_sum_cases() {
            let mut whole = acc.clone();
            let whole_stats = whole.add_assign(&addend).unwrap();
            let (sum, stats) = sum_in_ranges(Cow::Owned(acc), &addend);
            for step in &stats {
                assert_eq!(step.result_dense, whole_stats.result_dense);
            }
            let processed: usize = stats.iter().map(|s| s.elements_processed).sum();
            assert_eq!(processed, whole_stats.elements_processed);
            let switched = stats.iter().any(|s| s.switched_to_dense);
            assert_eq!(switched, whole_stats.switched_to_dense);
            assert_eq!(sum, whole);
        }
    }

    #[test]
    fn a_range_sum_over_a_borrowed_accumulator_is_the_owned_one() {
        // The merge form, the δ switch to dense, a dense accumulator and a
        // dense addend: the same index slab, value bits and stats.
        let bits = |s: &SparseStream<f32>| match s.repr() {
            Repr::Sparse(sv) => (
                sv.indices().to_vec(),
                sv.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            ),
            Repr::Dense(values) => (Vec::new(), values.iter().map(|v| v.to_bits()).collect()),
        };
        let cases = range_sum_cases();
        for (acc, addend) in &cases {
            let (borrowed, borrowed_stats) = sum_in_ranges(Cow::Borrowed(acc), addend);
            let (owned, owned_stats) = sum_in_ranges(Cow::Owned(acc.clone()), addend);
            assert_eq!(borrowed.is_dense(), owned.is_dense());
            assert_eq!(bits(&borrowed), bits(&owned));
            assert_eq!(borrowed_stats, owned_stats);
        }
        let forms: Vec<bool> = cases
            .iter()
            .map(|(acc, addend)| sum_in_ranges(Cow::Borrowed(acc), addend).0.is_dense())
            .collect();
        assert_eq!(forms, [false, true, true, true, true], "every form covered");
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

    /// The compare-advance loop the two kernels replaced, kept as their
    /// oracle.
    fn merged_by_oracle<V: Scalar>(
        out: &mut SparseVec<V>,
        a: SparseView<'_, V>,
        b: SparseView<'_, V>,
    ) -> usize {
        let (ai, av) = (a.indices(), a.values());
        let (bi, bv) = (b.indices(), b.values());
        let before = out.len();
        let (mut i, mut j) = (0, 0);
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
        out.extend_from_slabs(&ai[i..], &av[i..]);
        out.extend_from_slabs(&bi[j..], &bv[j..]);
        out.len() - before
    }

    /// A float's bits, so the sign of a zero is compared too.
    trait Bits: Scalar {
        fn bits(self) -> u64;
        fn is_nan(self) -> bool;
        fn from_raw(bits: u64) -> Self;
        /// The bit patterns of −0.0, +0.0, a quiet NaN, a signalling NaN,
        /// the largest subnormal and +∞.
        const SPECIAL: [u64; 6];
        const MANTISSA: u64;
    }

    impl Bits for f32 {
        fn bits(self) -> u64 {
            self.to_bits().into()
        }
        fn is_nan(self) -> bool {
            f32::is_nan(self)
        }
        fn from_raw(bits: u64) -> Self {
            f32::from_bits(bits as u32)
        }
        const SPECIAL: [u64; 6] = [
            0x8000_0000,
            0,
            0x7fc0_0000,
            0x7f80_0001,
            0x007f_ffff,
            0x7f80_0000,
        ];
        const MANTISSA: u64 = (1 << 23) - 1;
    }

    impl Bits for f64 {
        fn bits(self) -> u64 {
            self.to_bits()
        }
        fn is_nan(self) -> bool {
            f64::is_nan(self)
        }
        fn from_raw(bits: u64) -> Self {
            f64::from_bits(bits)
        }
        const SPECIAL: [u64; 6] = [
            0x8000_0000_0000_0000,
            0,
            0x7ff8_0000_0000_0000,
            0x7ff0_0000_0000_0001,
            0x000f_ffff_ffff_ffff,
            0x7ff0_0000_0000_0000,
        ];
        const MANTISSA: u64 = (1 << 52) - 1;
    }

    /// A value that is a signed zero, a NaN with a random payload, a
    /// random subnormal, one of the specials or a normal number, so equal
    /// indices sum +0.0 with −0.0, NaN with NaN and subnormals together.
    /// A NaN copied from one side keeps its payload; one that an addition
    /// produced is only known to be a NaN.
    fn value<V: Bits>(rng: &mut crate::XorShift64) -> V {
        let payload = rng.next_u64() & V::MANTISSA;
        match rng.next_below(6) {
            0 => V::from_raw(V::SPECIAL[rng.next_below(6) as usize]),
            1 => V::from_raw(V::SPECIAL[2] | payload),
            2 => V::from_raw(payload.max(1)),
            3 => V::from_raw(V::SPECIAL[rng.next_below(2) as usize]),
            _ => V::from_f64(rng.next_gaussian()),
        }
    }

    /// The support pairs of one case: `(long, short)` index sets of the
    /// given lengths in `[lo, lo + dim)`.
    fn supports(
        shape: usize,
        long: usize,
        short: usize,
        lo: u32,
        rng: &mut crate::XorShift64,
    ) -> (Vec<u32>, Vec<u32>) {
        use crate::uniform_indices;
        let dim = 4 * (long + short);
        let shift = |v: Vec<u32>, by: u32| v.into_iter().map(|i| i + by).collect::<Vec<u32>>();
        let pick = |from: &[u32], n: usize, rng: &mut crate::XorShift64| {
            let at = uniform_indices(from.len(), n, rng);
            at.iter().map(|&k| from[k as usize]).collect::<Vec<u32>>()
        };
        match shape {
            // Independent uniform supports: some indices shared.
            0 => (
                shift(uniform_indices(dim, long, rng), lo),
                shift(uniform_indices(dim, short, rng), lo),
            ),
            // The short side nested in the long one; identical at ratio 1.
            1 => {
                let l = shift(uniform_indices(dim, long, rng), lo);
                let s = pick(&l, short, rng);
                (l, s)
            }
            // Interleaved, disjoint supports.
            2 => {
                let union = shift(uniform_indices(dim, long + short, rng), lo);
                let s = pick(&union, short, rng);
                let l = union.into_iter().filter(|i| !s.contains(i)).collect();
                (l, s)
            }
            // Ordered-disjoint supports: the short side above the long one.
            3 => (
                shift(uniform_indices(dim, long, rng), lo),
                shift(uniform_indices(dim, short, rng), lo + dim as u32),
            ),
            // An empty short side.
            _ => (shift(uniform_indices(dim, long, rng), lo), Vec::new()),
        }
    }

    fn kernels_match_the_oracle<V: Bits>(seed: u64) {
        let mut rng = crate::XorShift64::new(seed);
        let mut cases = 0;
        for ratio in [1, 2, 4, 6, 8, 12, 16, 32, 64] {
            for shape in 0..5 {
                for (prefix, long_first) in [(0, true), (0, false), (3, true), (3, false)] {
                    let short = 1 + rng.next_below(9) as usize;
                    let long = short * ratio + rng.next_below(ratio as u64) as usize;
                    // A payload already holding entries below both operands,
                    // as a range sum appends to one.
                    let lo = 8;
                    let mut base = SparseVec::new();
                    for i in 0..prefix {
                        base.push(2 * i, value::<V>(&mut rng));
                    }
                    let (l, s) = supports(shape, long, short, lo, &mut rng);
                    let lv: Vec<V> = l.iter().map(|_| value(&mut rng)).collect();
                    let sv: Vec<V> = s.iter().map(|_| value(&mut rng)).collect();
                    let (l, s) = (SparseView::new(&l, &lv), SparseView::new(&s, &sv));
                    let (a, b) = if long_first { (l, s) } else { (s, l) };
                    let (mut got, mut want) = (base.clone(), base.clone());
                    let n = got.extend_merged(a, b);
                    assert_eq!(n, merged_by_oracle(&mut want, a, b));
                    assert_eq!(got.indices(), want.indices(), "ratio {ratio} shape {shape}");
                    // A NaN the addition produced may carry either operand's
                    // payload (Rust RFC 3514 leaves it unspecified, and an
                    // optimized build may commute the add), so at an index
                    // both operands hold any NaN equals any other. Every
                    // other value, a NaN copied from one side included, is
                    // compared to the bit.
                    let summed = |i: u32| {
                        a.indices().binary_search(&i).is_ok()
                            && b.indices().binary_search(&i).is_ok()
                    };
                    let bits = |v: &SparseVec<V>| {
                        v.iter()
                            .map(|(i, x)| {
                                if x.is_nan() && summed(i) {
                                    u64::MAX
                                } else {
                                    x.bits()
                                }
                            })
                            .collect()
                    };
                    let (got_bits, want_bits): (Vec<u64>, Vec<u64>) = (bits(&got), bits(&want));
                    assert_eq!(got_bits, want_bits, "ratio {ratio} shape {shape}");
                    if prefix == 0 {
                        // One allocation per slab: sized once, never grown.
                        let mut once = SparseVec::<V>::new();
                        once.reserve(a.len() + b.len());
                        let (indices, values) = got.slabs_mut();
                        let (once_indices, once_values) = once.slabs_mut();
                        assert_eq!(indices.capacity(), once_indices.capacity());
                        assert_eq!(values.capacity(), once_values.capacity());
                    }
                    cases += 1;
                }
            }
        }
        assert_eq!(cases, 9 * 5 * 4);
    }

    #[test]
    fn both_merge_kernels_equal_the_compare_advance_loop_to_the_bit() {
        for seed in 1..=8 {
            kernels_match_the_oracle::<f32>(seed);
            kernels_match_the_oracle::<f64>(seed);
        }
    }

    #[test]
    fn gallop_counts_the_entries_below() {
        let s = [1, 3, 5, 7, 9, 11, 13, 15, 17];
        for x in 0..20 {
            assert_eq!(gallop(&s, x), s.partition_point(|&y| y < x), "x = {x}");
        }
        assert_eq!(gallop(&[], 4), 0);
    }
}
