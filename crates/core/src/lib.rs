//! # sparcml-core
//!
//! The SparCML sparse collective communication library — the primary
//! contribution of "SparCML: High-Performance Sparse Communication for
//! Machine Learning" (Renggli et al., SC 2019).
//!
//! The entry point is the [`Communicator`]: a per-rank session over a
//! pluggable [`sparcml_net::Transport`] whose collectives are fluent
//! builders, with the §5.3 adaptive selector ([`Algorithm::Auto`]) as the
//! default schedule:
//!
//! * [`Communicator::allreduce`] with the paper's three sparse schedules
//!   (`SSAR_Recursive_double`, `SSAR_Split_allgather`,
//!   `DSAR_Split_allgather`) and Rabenseifner's dense baseline;
//! * optional QSGD low-precision allgather inside DSAR (§6) via
//!   `.quantized(..)`;
//! * §7's overlap on the session clock via the allreduce's
//!   `.nonblocking()`: the handle's compute merges with the collective
//!   as `max(communication, computation)` (background progress on the
//!   wall clock is `sparcml-engine`'s; this crate starts no thread);
//! * rooted and gather collectives ([`Communicator::reduce`],
//!   [`Communicator::broadcast`], [`Communicator::reduce_scatter`],
//!   [`Communicator::allgather`], …) behind the same
//!   [`CollectiveHandle`];
//! * the analytic cost bounds of §5.3 ([`bounds`]) and the stochastic
//!   density analysis of Appendix B ([`theory`]).
//!
//! ```
//! use sparcml_core::{run_communicators, Algorithm};
//! use sparcml_net::CostModel;
//! use sparcml_stream::SparseStream;
//!
//! // 4 ranks, each contributing one sparse gradient; the result is the
//! // element-wise sum, available at every rank. `Algorithm::Auto` (the
//! // default) lets the §5.3 selector pick the schedule per call.
//! let results = run_communicators(4, CostModel::aries(), |comm| {
//!     let grad = SparseStream::from_pairs(
//!         1_000_000,
//!         &[(comm.rank() as u32 * 10, 1.0f32), (999_999, 0.5)],
//!     )
//!     .unwrap();
//!     comm.allreduce(&grad)
//!         .algorithm(Algorithm::Auto) // the default, spelled out
//!         .launch()
//!         .and_then(|handle| handle.wait())
//!         .unwrap()
//! });
//! assert_eq!(results[0].get(999_999), 2.0);
//! ```
//!
//! The builders are the only way to run a collective: each schedule is
//! one crate-private function, and every launch routes its O(P) message
//! frames through the session's own [`BufferPool`], so encode and
//! receive buffers survive from one call to the next instead of being
//! allocated per message.

#![warn(missing_docs)]

mod allgather;
mod allreduce;
pub mod bounds;
mod communicator;
mod error;
mod op;
pub mod reference;
mod rooted;
mod selector;
mod telemetry;
pub mod theory;

pub use allreduce::{Algorithm, AllreduceConfig};
pub use communicator::{
    max_communicator_time, run_communicators, run_reactor_communicators,
    run_reactor_communicators_with, run_thread_communicators, Allgather, AllgatherSum, Allreduce,
    Broadcast, CollectiveHandle, Communicator, DenseAllgather, Reduce, ReduceScatter,
};
pub use error::CollError;
pub use op::BufferPool;
pub use rooted::my_partition;
pub use selector::{estimate_time, estimate_time_with_union, select_algorithm};
pub use telemetry::TELEMETRY_CONTROL_BASE;
// Re-exported so downstream code can name transports without depending
// on sparcml-net directly.
pub use sparcml_net::{
    Endpoint, GroupTransport, ReactorTransport, ThreadTransport, Transport, TransportConfig,
};
