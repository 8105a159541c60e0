//! # sparcml-stream
//!
//! Sparse stream data representation from the SparCML paper (§5.1), in a
//! structure-of-arrays layout.
//!
//! A [`SparseStream`] stores a logical vector in `R^N` either sparsely —
//! as a sorted `u32` index slab next to a parallel value slab
//! ([`SparseVec`]) — or as a dense array, and switches automatically
//! during summation once fill-in crosses the sparsity-efficiency
//! threshold δ. The SoA split is deliberate: it is what lets summation,
//! splitting and serialization operate on contiguous slices.
//!
//! * **Summation** ([`SparseStream::add_assign_with`]) merges two sorted
//!   slab pairs linearly, bulk-copying tails, and scatters sparse slabs
//!   into dense accumulators — slice loops the compiler can vectorize.
//! * **Split-phase sums** ([`WindowSum`]) scatter the sub-ranges of one
//!   partition once into a dense window with an occupancy bitmap, and
//!   write the sum as a wire frame straight from the bitmap.
//! * **Running sums** ([`RankedSum`]) keep the same bitmap, a rank
//!   directory over it and only the occupied slots' values, packed in
//!   index order: a part on the sum's support adds in place at its ranks.
//!   The serve accumulator keeps its sum this way up to δ.
//! * **Splitting** ([`SparseView::range`]) is two binary searches plus
//!   two slice borrows; the split collectives encode a partition straight
//!   from a borrowed view ([`SparseStream::encode_sparse_slice_into`])
//!   without materializing an intermediate stream.
//! * **The wire codec** (frame layout v5, see [`SparseStream::encode`])
//!   writes one contiguous little-endian value block — a `memcpy` on
//!   little-endian targets — followed by the index: an Elias–Fano index of
//!   `⌊log2(N/nnz)⌋ + ≤ 2` bits per entry, or gap-coded as varints where
//!   that is smaller ([`expected_entry_bytes`]); `decode` validates every frame (lengths
//!   before allocation, in-bounds indices that are strictly increasing by
//!   construction) instead of trusting the peer, reporting malformed
//!   frames as typed [`StreamError`]s. [`WireFrame`] is that check on its
//!   own, for decoding a frame straight into storage the caller sized.
//!
//! This crate also provides the dimension partitioning of the split
//! algorithms and deterministic synthetic workload generators.
//!
//! ```
//! use sparcml_stream::{SparseStream, DensityPolicy};
//!
//! let mut a = SparseStream::from_pairs(1_000, &[(3, 1.0f32), (500, 2.0)]).unwrap();
//! let b = SparseStream::from_pairs(1_000, &[(3, 1.0f32), (900, -1.0)]).unwrap();
//! a.add_assign_with(&b, &DensityPolicy::default()).unwrap();
//! assert_eq!(a.get(3), 2.0);
//! assert_eq!(a.nnz(), 3);
//!
//! // The sparse payload is two parallel slabs, viewable without copying:
//! let view = a.sparse_view().unwrap();
//! assert_eq!(view.indices(), &[3, 500, 900]);
//! assert_eq!(view.values(), &[2.0, 2.0, -1.0]);
//! ```

#![warn(missing_docs)]

mod error;
mod fuse;
mod gen;
mod partition;
mod ranked;
mod scalar;
mod soa;
mod stream;
mod sum;
mod threshold;
mod window;
mod wire;

pub use error::StreamError;
pub use fuse::{fuse_streams, split_fused, FusedLayout};
pub use gen::{clustered_sparse, random_sparse, uniform_indices, XorShift64};
pub use partition::{owner_of, partition_range, PartRange};
pub use ranked::RankedSum;
pub use scalar::Scalar;
pub use soa::{SparseVec, SparseView};
pub use stream::{Repr, SparseStream};
pub use sum::{RangeSum, SumStats};
pub use threshold::{delta_raw, DensityPolicy, INDEX_BYTES};
pub use window::WindowSum;
pub use wire::{expected_entry_bytes, header_len, WireFrame, WIRE_VERSION};
