//! sparcml-serve: a sharded gradient-aggregation service.
//!
//! SparCML's collectives assume a fixed, mutually trusting cluster: every
//! rank knows every other, and one dead peer fails the job. This crate
//! covers the other deployment shape the paper's parameter-server
//! comparison points at — a **long-running daemon** that many independent,
//! transient clients push sparse contributions into:
//!
//! - [`Server`] owns named per-model accumulators (sum or average with a
//!   generation counter) and applies contributions in batches behind a
//!   bounded [`sparcml_engine::SubmissionQueue`].
//! - [`ShardGroup`] splits every model's index space across N servers via
//!   `partition_range`; the shards exchange generation tables over a
//!   group-scoped communicator ([`sparcml_core::Communicator::split`]).
//! - [`ServeClient`] is the session API: `connect → contribute →
//!   fetch / subscribe`, with contributions split along shard boundaries.
//!
//! Membership churn is a feature, not a failure: sessions are named, and
//! a dead, slow, or malicious client affects only itself. Silent and
//! half-open connections are reaped by the idle watchdog; EOF is a
//! disconnect; both are resumable by reconnecting under the same name.
//! Overload surfaces as typed BUSY backpressure instead of unbounded
//! queues. A plaintext health endpoint (`GET /stats`, `GET /stats.json`)
//! reports session lifecycle counts, queue depth, per-model generations,
//! and the transport counters via `CommStats::render_text`.
//!
//! Wire format (serve-v1): `[len: u32 LE][kind: u8][payload]`, with
//! `len` counting the payload only and checked against
//! `TransportConfig::max_frame_len` *before* any allocation. Servers
//! default to the deliberately small
//! [`sparcml_net::SERVER_MAX_FRAME_LEN`] cap. CONTRIBUTE/STATE/UPDATE
//! payloads embed stream wire-v5 frames verbatim, with an Elias–Fano
//! index or gap-coded.

#![warn(missing_docs)]

pub mod client;
pub mod config;
pub mod error;
mod health;
pub mod launcher;
pub mod protocol;
mod server;
mod shard;
mod state;

pub use client::{FetchedState, ServeClient, ShardOutcome, UpdateEvent};
pub use config::{AggregationMode, ModelSpec, ServeConfig};
pub use error::ServeError;
pub use launcher::{run_serve_clients, ClientLaunchOptions, ClientOutcome};
pub use protocol::{ErrorCode, ModelInfo};
pub use server::{Server, ServerHandle};
pub use shard::ShardGroup;
