//! The sparsity-efficiency threshold δ (§5.1 of the paper).
//!
//! A sparse stream holds `nnz · (c + isize)` bytes, a dense one
//! `N · isize`, where `c` is the index width (4 bytes for `u32`). Sparse is
//! smaller iff `nnz ≤ δ = N · isize / (c + isize)`. Because summing sparse
//! vectors costs more compute than summing dense vectors, "in practice, δ
//! should be even smaller, to reflect this trade-off" —
//! [`DensityPolicy::factor`] scales δ down for that purpose.
//!
//! That is the paper's volume model and, here, the *in-memory* equality:
//! the SoA payload really is a `u32` next to every value, and it is also
//! about where a sparse merge stops being cheaper than a dense scatter.
//! It is no longer the wire's equality. Past a density of 1/2 the frame's
//! Elias–Fano index is a bitmap (see [`crate::SparseStream::encode`]),
//! so near δ an entry travels in `isize + 1/4` bytes and a sparse frame
//! whose entries spread over all `N` slots stays the smaller one up to
//! `nnz ≈ N · (1 − 1/(8·isize))` — `0.97·N` for `f32`. The switch
//! deliberately did not follow the wire: past δ every merge would be a
//! sparse merge charged where a dense scatter was, which costs more
//! compute than the bytes buy back (pinned `SSAR_Recursive_double` at
//! `P = 8`, `N = 2^20`, `k = 10^5` on the Aries model: 1 206 → 1 439
//! virtual µs with δ moved to `0.8·N`; `k = 3·10^5`: 3 390 → 2 908).
//! Where that trade pays is a question for a density sweep, and
//! [`DensityPolicy::factor`] is the lever it would turn.

use crate::scalar::Scalar;

/// Width in bytes of an index as stored in memory (`c` in the paper,
/// which fixes indices to unsigned int, §8). On the wire an index is
/// `⌊log2(1/d)⌋ + ≤ 2` bits of an Elias–Fano index at density `d`.
pub const INDEX_BYTES: usize = 4;

/// Policy controlling when summation switches a stream to the dense
/// representation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DensityPolicy {
    /// Multiplier in `(0, 1]` applied to the in-memory volume-equality
    /// threshold to account for the higher compute cost of sparse
    /// summation.
    pub factor: f64,
}

impl Default for DensityPolicy {
    fn default() -> Self {
        // In-memory volume equality: switch exactly when the sparse
        // payload stops being the smaller one to hold and to merge.
        DensityPolicy { factor: 1.0 }
    }
}

impl DensityPolicy {
    /// A policy that switches to dense earlier, reflecting sparse-summation
    /// compute overhead (the paper's practical recommendation).
    pub fn conservative() -> Self {
        DensityPolicy { factor: 0.5 }
    }

    /// A policy that never switches to dense (for static-sparse runs where
    /// the caller knows `K < δ`).
    pub fn never_densify() -> Self {
        DensityPolicy {
            factor: f64::INFINITY,
        }
    }

    /// The threshold δ in *entries* for a vector of dimension `dim` holding
    /// values of type `V`.
    pub fn delta<V: Scalar>(&self, dim: usize) -> usize {
        if self.factor.is_infinite() {
            return usize::MAX;
        }
        ((delta_raw::<V>(dim) as f64) * self.factor) as usize
    }
}

/// The paper's raw volume-equality threshold `δ = N·isize/(c+isize)` with
/// the in-memory index width `c = 4`.
pub fn delta_raw<V: Scalar>(dim: usize) -> usize {
    dim * V::BYTES / (INDEX_BYTES + V::BYTES)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_f32_is_half_dim() {
        // f32: N*4/(4+4) = N/2.
        assert_eq!(delta_raw::<f32>(1000), 500);
        assert_eq!(DensityPolicy::default().delta::<f32>(1000), 500);
    }

    #[test]
    fn delta_f64_is_two_thirds_dim() {
        // f64: N*8/(4+8) = 2N/3.
        assert_eq!(delta_raw::<f64>(900), 600);
    }

    #[test]
    fn conservative_halves_delta() {
        assert_eq!(DensityPolicy::conservative().delta::<f32>(1000), 250);
    }

    #[test]
    fn never_densify_is_unbounded() {
        assert_eq!(DensityPolicy::never_densify().delta::<f32>(8), usize::MAX);
    }
}
