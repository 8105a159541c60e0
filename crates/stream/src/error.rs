//! Error types for sparse stream construction and decoding.

use std::fmt;

/// Errors raised by stream construction, arithmetic, and (de)serialization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamError {
    /// An index is `>= dim`.
    IndexOutOfBounds {
        /// Offending index.
        idx: u32,
        /// Stream dimension.
        dim: usize,
    },
    /// Sparse entries are not strictly increasing by index.
    UnsortedIndices {
        /// Position of the first out-of-order entry.
        position: usize,
    },
    /// Two streams with different logical dimensions were combined.
    DimMismatch {
        /// Left operand dimension.
        left: usize,
        /// Right operand dimension.
        right: usize,
    },
    /// A dense payload length does not match the declared dimension.
    LengthMismatch {
        /// Declared dimension.
        expected: usize,
        /// Payload length found.
        actual: usize,
    },
    /// Parallel index/value slabs differ in length.
    SlabLengthMismatch {
        /// Index slab length.
        indices: usize,
        /// Value slab length.
        values: usize,
    },
    /// A wire frame ended before its declared payload.
    Truncated {
        /// Bytes the frame declared.
        needed: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// The wire encoding is self-inconsistent.
    Corrupt(&'static str),
    /// The wire frame uses an unsupported format version.
    VersionMismatch {
        /// Version this decoder speaks.
        expected: u8,
        /// Version found in the header.
        actual: u8,
    },
    /// The wire encoding was produced for a different value width.
    ValueWidthMismatch {
        /// Width this decoder expects (bytes).
        expected: usize,
        /// Width found in the header (bytes).
        actual: usize,
    },
    /// A stream added into a [`crate::WindowSum`] holds an entry outside
    /// the window's index range.
    OutsideWindow {
        /// The first offending index.
        idx: u32,
        /// First index of the window.
        lo: u32,
        /// One past the window's last index.
        hi: u32,
    },
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::IndexOutOfBounds { idx, dim } => {
                write!(f, "index {idx} out of bounds for dimension {dim}")
            }
            StreamError::UnsortedIndices { position } => {
                write!(
                    f,
                    "sparse indices not strictly increasing at entry {position}"
                )
            }
            StreamError::DimMismatch { left, right } => {
                write!(f, "dimension mismatch: {left} vs {right}")
            }
            StreamError::LengthMismatch { expected, actual } => {
                write!(
                    f,
                    "dense payload length {actual} does not match dimension {expected}"
                )
            }
            StreamError::SlabLengthMismatch { indices, values } => {
                write!(
                    f,
                    "slab length mismatch: {indices} indices vs {values} values"
                )
            }
            StreamError::Truncated { needed, got } => {
                write!(f, "truncated wire frame: needed {needed} bytes, got {got}")
            }
            StreamError::Corrupt(what) => write!(f, "corrupt stream encoding: {what}"),
            StreamError::VersionMismatch { expected, actual } => {
                write!(
                    f,
                    "wire format version mismatch: decoder speaks v{expected}, frame is v{actual}"
                )
            }
            StreamError::ValueWidthMismatch { expected, actual } => {
                write!(
                    f,
                    "value width mismatch: expected {expected} bytes, got {actual}"
                )
            }
            StreamError::OutsideWindow { idx, lo, hi } => {
                write!(f, "index {idx} lies outside the window [{lo}, {hi})")
            }
        }
    }
}

impl std::error::Error for StreamError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = StreamError::IndexOutOfBounds { idx: 9, dim: 4 };
        assert!(e.to_string().contains("9"));
        assert!(e.to_string().contains("4"));
        let e = StreamError::DimMismatch { left: 1, right: 2 };
        assert!(e.to_string().contains("mismatch"));
    }
}
