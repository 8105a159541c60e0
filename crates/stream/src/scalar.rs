//! Scalar value types storable in a sparse stream.
//!
//! The paper works with single- and double-precision floating point values
//! (§5.1, "Vector Representations"); the [`Scalar`] trait abstracts over the
//! two so every collective and summation kernel is generic over precision.

/// A value type that can be stored in a [`crate::SparseStream`].
///
/// Implementors must behave like an additive commutative monoid under
/// [`Scalar::add`] with [`Scalar::zero`] as the neutral element — the paper
/// requires a neutral element for every supported reduction (§5.2).
pub trait Scalar:
    Copy + PartialOrd + Default + Send + Sync + std::fmt::Debug + std::fmt::Display + 'static
{
    /// Number of bytes of the on-wire encoding (`isize` in the paper's
    /// volume model, §5.1 "Switching to a Dense Format").
    const BYTES: usize;

    /// The neutral element of the reduction (0 for sum).
    fn zero() -> Self;

    /// Component-wise sum, the default reduction of the paper.
    fn add(self, other: Self) -> Self;

    /// Magnitude, used by Top-k selection.
    fn abs(self) -> Self;

    /// Appends the little-endian encoding of `self` to `buf`.
    fn write_le(self, buf: &mut Vec<u8>);

    /// Decodes a value from exactly [`Scalar::BYTES`] little-endian bytes.
    fn read_le(bytes: &[u8]) -> Self;

    /// Appends the little-endian encoding of a whole value slab to `out`
    /// in one pass — the bulk primitive of the wire codec. On
    /// little-endian targets the f32/f64 implementations reduce to a
    /// single `memcpy`.
    fn write_slab_le(values: &[Self], out: &mut Vec<u8>) {
        out.reserve(values.len() * Self::BYTES);
        for v in values {
            v.write_le(out);
        }
    }

    /// Decodes a contiguous little-endian value slab. Any trailing bytes
    /// that do not form a whole value are ignored (wire framing checks
    /// payload lengths before calling this).
    fn read_slab_le(bytes: &[u8]) -> Vec<Self> {
        let mut out = vec![Self::zero(); bytes.len() / Self::BYTES];
        Self::read_slab_le_into(bytes, &mut out);
        out
    }

    /// Decodes the first `out.len()` values of a little-endian slab
    /// straight into `out` — the allocation-free form of
    /// [`Scalar::read_slab_le`]. `bytes` must hold at least that many
    /// values. On little-endian targets the f32/f64 implementations reduce
    /// to a single `memcpy`.
    fn read_slab_le_into(bytes: &[u8], out: &mut [Self]) {
        assert!(
            bytes.len() >= out.len() * Self::BYTES,
            "value slab too short"
        );
        for (slot, chunk) in out.iter_mut().zip(bytes.chunks_exact(Self::BYTES)) {
            *slot = Self::read_le(chunk);
        }
    }

    /// Lossless (f32) or identity (f64) widening, for analysis code.
    fn to_f64(self) -> f64;

    /// Narrowing conversion used by quantization and synthetic generators.
    fn from_f64(v: f64) -> Self;

    /// `true` if the value equals the neutral element.
    #[inline]
    fn is_zero(self) -> bool {
        self.to_f64() == 0.0
    }
}

/// Views a slab of fixed-width numeric values as its raw bytes — on a
/// little-endian target this *is* the wire encoding, so slab writes become
/// one `memcpy`.
///
/// Only instantiated for `f32`/`f64` (via the [`Scalar`] impls): types
/// with no padding and no invalid byte patterns, for which the raw-byte
/// view is sound.
#[cfg(target_endian = "little")]
pub(crate) fn slab_as_le_bytes<T: Copy>(values: &[T]) -> &[u8] {
    // SAFETY: T is a plain fixed-width numeric type (see above), every
    // byte of the slice is initialized, and u8 has alignment 1.
    unsafe {
        std::slice::from_raw_parts(values.as_ptr().cast::<u8>(), std::mem::size_of_val(values))
    }
}

/// Inverse of [`slab_as_le_bytes`]: bulk-decodes the first `out.len()`
/// values of a little-endian byte slab of a plain fixed-width numeric type
/// (`f32`/`f64`) into `out`. The one audited unsafe decode block shared by
/// every slab reader.
#[cfg(target_endian = "little")]
pub(crate) fn slab_from_le_bytes_into<T: Copy>(bytes: &[u8], out: &mut [T]) {
    let len = std::mem::size_of_val(out);
    assert!(bytes.len() >= len, "value slab too short");
    // SAFETY: `out` provides exactly `len` bytes of plain numeric storage,
    // `bytes` holds at least that many and exactly that many are copied;
    // on little-endian targets the wire bytes are the in-memory
    // representation.
    unsafe { std::ptr::copy_nonoverlapping(bytes.as_ptr(), out.as_mut_ptr().cast::<u8>(), len) };
}

impl Scalar for f32 {
    const BYTES: usize = 4;

    #[inline]
    fn zero() -> Self {
        0.0
    }

    #[inline]
    fn add(self, other: Self) -> Self {
        self + other
    }

    #[inline]
    fn abs(self) -> Self {
        f32::abs(self)
    }

    #[inline]
    fn write_le(self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_le_bytes());
    }

    #[inline]
    fn read_le(bytes: &[u8]) -> Self {
        f32::from_le_bytes(bytes[..4].try_into().expect("need 4 bytes for f32"))
    }

    #[cfg(target_endian = "little")]
    fn write_slab_le(values: &[Self], out: &mut Vec<u8>) {
        out.extend_from_slice(slab_as_le_bytes(values));
    }

    #[cfg(target_endian = "little")]
    fn read_slab_le_into(bytes: &[u8], out: &mut [Self]) {
        slab_from_le_bytes_into(bytes, out)
    }

    #[inline]
    fn to_f64(self) -> f64 {
        self as f64
    }

    #[inline]
    fn from_f64(v: f64) -> Self {
        v as f32
    }
}

impl Scalar for f64 {
    const BYTES: usize = 8;

    #[inline]
    fn zero() -> Self {
        0.0
    }

    #[inline]
    fn add(self, other: Self) -> Self {
        self + other
    }

    #[inline]
    fn abs(self) -> Self {
        f64::abs(self)
    }

    #[inline]
    fn write_le(self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_le_bytes());
    }

    #[inline]
    fn read_le(bytes: &[u8]) -> Self {
        f64::from_le_bytes(bytes[..8].try_into().expect("need 8 bytes for f64"))
    }

    #[cfg(target_endian = "little")]
    fn write_slab_le(values: &[Self], out: &mut Vec<u8>) {
        out.extend_from_slice(slab_as_le_bytes(values));
    }

    #[cfg(target_endian = "little")]
    fn read_slab_le_into(bytes: &[u8], out: &mut [Self]) {
        slab_from_le_bytes_into(bytes, out)
    }

    #[inline]
    fn to_f64(self) -> f64 {
        self
    }

    #[inline]
    fn from_f64(v: f64) -> Self {
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f32_round_trip() {
        let mut buf = Vec::new();
        1.5f32.write_le(&mut buf);
        assert_eq!(buf.len(), f32::BYTES);
        assert_eq!(f32::read_le(&buf), 1.5);
    }

    #[test]
    fn f64_round_trip() {
        let mut buf = Vec::new();
        (-2.25f64).write_le(&mut buf);
        assert_eq!(buf.len(), f64::BYTES);
        assert_eq!(f64::read_le(&buf), -2.25);
    }

    #[test]
    fn zero_is_neutral() {
        assert_eq!(f32::zero().add(3.0), 3.0);
        assert!(f64::zero().is_zero());
        assert!(!1.0f32.is_zero());
    }

    #[test]
    fn abs_magnitude() {
        assert_eq!((-3.0f32).abs(), 3.0);
        assert_eq!(4.0f64.abs(), 4.0);
    }

    #[test]
    fn slab_round_trip_matches_scalar_path() {
        let values: Vec<f32> = (0..37).map(|i| (i as f32 * 0.7).sin()).collect();
        let mut slab = Vec::new();
        f32::write_slab_le(&values, &mut slab);
        let mut scalar = Vec::new();
        for v in &values {
            v.write_le(&mut scalar);
        }
        assert_eq!(slab, scalar);
        assert_eq!(f32::read_slab_le(&slab), values);

        let values: Vec<f64> = (0..19).map(|i| (i as f64) * -1.25).collect();
        let mut slab = Vec::new();
        f64::write_slab_le(&values, &mut slab);
        assert_eq!(slab.len(), values.len() * 8);
        assert_eq!(f64::read_slab_le(&slab), values);
    }

    #[test]
    fn read_slab_ignores_trailing_partial_value() {
        // Non-multiple lengths must not over-read: the trailing partial
        // value is dropped, matching the chunks_exact default path.
        let mut slab = Vec::new();
        f32::write_slab_le(&[1.0, 2.0], &mut slab);
        slab.push(0xFF); // 9 bytes: 2 full values + 1 stray byte
        assert_eq!(f32::read_slab_le(&slab), vec![1.0, 2.0]);
        assert!(f64::read_slab_le(&slab[..7]).is_empty());
    }

    #[test]
    fn empty_slab() {
        let mut out = Vec::new();
        f32::write_slab_le(&[], &mut out);
        assert!(out.is_empty());
        assert!(f32::read_slab_le(&[]).is_empty());
    }
}
