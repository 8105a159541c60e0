//! The sparsity-efficiency threshold δ (§5.1 of the paper).
//!
//! The sparse format transmits `nnz · (c + isize)` bytes, the dense format
//! `N · isize` bytes, where `c` is the index width (4 bytes for `u32`).
//! Sparse is smaller iff `nnz ≤ δ = N · isize / (c + isize)`. Because
//! summing sparse vectors costs more compute than summing dense vectors,
//! "in practice, δ should be even smaller, to reflect this trade-off" —
//! [`DensityPolicy::factor`] scales δ down for that purpose.

use crate::scalar::Scalar;

/// Width in bytes of a stored index (`c` in the paper). The paper fixes
/// indices to unsigned int (§8).
pub const INDEX_BYTES: usize = 4;

/// Policy controlling when summation switches a stream to the dense
/// representation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DensityPolicy {
    /// Multiplier in `(0, 1]` applied to the volume-equality threshold to
    /// account for the higher compute cost of sparse summation.
    pub factor: f64,
}

impl Default for DensityPolicy {
    fn default() -> Self {
        // Volume-equality threshold: switch exactly when the sparse format
        // stops saving bytes.
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

/// The paper's raw volume-equality threshold `δ = N·isize/(c+isize)`.
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
