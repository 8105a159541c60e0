//! # sparcml-engine
//!
//! A background *progress engine* for SparCML collectives: one persistent
//! thread per rank owns the transport, drains a submission queue of
//! collective jobs, and keeps any number of collectives in flight behind
//! [`Ticket`] handles — the layer that turns per-layer sparse gradient
//! exchanges into overlapped, fused, in-order traffic (the §8.3
//! execution style of the paper: "communication is done layer-wise using
//! non-blocking calls"). It is the one way to run a collective in the
//! background on the wall clock: `sparcml-core` starts no thread, and its
//! `.nonblocking()` only accounts overlap on the session clock.
//!
//! What the engine adds over [`sparcml_core::Communicator`] alone:
//!
//! * **Concurrent in-flight collectives.** `submit_*` never blocks; each
//!   job resolves through its [`Ticket`], and the engine queues
//!   arbitrarily many.
//! * **Bucketing & fusion.** Consecutive small allreduce jobs are fused —
//!   their streams packed into one concatenated index space via
//!   [`sparcml_stream::fuse_streams`] — and reduced as a *single*
//!   collective, then split back per ticket. `K` tiny layers pay one
//!   per-collective latency instead of `K` (the δ of
//!   [`FusionPolicy`]).
//! * **In-order execution.** Buckets execute in submission order, so a
//!   caller that waits its tickets in submission order consumes each
//!   result as it lands.
//! * **Chunked pipelining.** A bucket closes before its fused index
//!   space would pass [`FusionPolicy::max_chunk_elements`], so a bucket of
//!   several jobs never chunks. A single job larger than the cap is split
//!   into even index chunks reduced back to back, bounding peak frame
//!   sizes.
//! * **Cross-rank lockstep without global barriers.** Before executing,
//!   engines agree on the common submitted-job prefix — and on the
//!   density facts the planner needs, measured by the engine on its own
//!   buckets and never read from an observability switch — with one
//!   small control round on a reserved [`sparcml_net::TagBlock`], so
//!   ranks whose queues drained at different speeds still execute the
//!   identical batch schedule.
//!
//! ```
//! use sparcml_core::run_communicators;
//! use sparcml_engine::{CommunicatorEngineExt, EngineConfig};
//! use sparcml_net::CostModel;
//! use sparcml_stream::SparseStream;
//!
//! let sums = run_communicators(4, CostModel::zero(), |comm| {
//!     let mut engine = comm.engine(EngineConfig::default());
//!     // Two per-layer gradients, fused into one collective.
//!     let g0 = SparseStream::from_pairs(1_000, &[(7, 1.0f32)]).unwrap();
//!     let g1 = SparseStream::from_pairs(2_000, &[(9, 2.0f32)]).unwrap();
//!     let tickets = engine.submit_allreduce_group(&[&g0, &g1]);
//!     let outs: Vec<_> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();
//!     engine.finish_into(comm).unwrap();
//!     (outs[0].get(7), outs[1].get(9))
//! });
//! assert_eq!(sums[0], (4.0, 8.0));
//! ```

#![warn(missing_docs)]

mod agree;
mod engine;
mod fusion;
pub mod queue;
mod ticket;

pub use engine::{CommunicatorEngineExt, Engine, EngineConfig, EngineStats};
pub use fusion::FusionPolicy;
pub use queue::{QueueFull, SubmissionQueue};
pub use ticket::Ticket;
