//! Facade crate re-exporting the SparCML workspace public API.
//!
//! The documented entry point is the [`Communicator`] session: one object
//! per rank whose collectives are fluent builders, running over any
//! [`Transport`] backend ([`Endpoint`] virtual-time, [`ThreadTransport`]
//! real threads, [`ReactorTransport`] real sockets across OS processes —
//! Linux only — via the `sparcml_net::launcher` or the `SPARCML_*` env
//! bootstrap), with `Algorithm::Auto` — the paper's §5.3 adaptive
//! selector — as the default schedule. Sparse payloads use a
//! structure-of-arrays layout (index slab + value slab) in memory, a wire
//! codec that copies the value slab in bulk and sends the index slab as
//! an Elias–Fano index, and pooled message buffers; see the README's architecture section for
//! the layout and the buffer-pool lifecycle.
//!
//! The [`serve`] module is the other deployment shape: a long-running
//! sharded aggregation daemon ([`Server`] / [`ShardGroup`]) that many
//! transient [`ServeClient`] sessions push sparse contributions into,
//! with typed backpressure and watchdog-reaped membership churn.

pub use sparcml_core as core;
pub use sparcml_engine as engine;
pub use sparcml_net as net;
pub use sparcml_obs as obs;
pub use sparcml_opt as opt;
pub use sparcml_quant as quant;
pub use sparcml_serve as serve;
pub use sparcml_stream as stream;

pub use sparcml_core::{
    max_communicator_time, run_communicators, run_reactor_communicators, run_thread_communicators,
    Algorithm, CollectiveHandle, Communicator, Endpoint, GroupTransport, ReactorTransport,
    ThreadTransport, Transport, TransportConfig,
};
pub use sparcml_engine::{CommunicatorEngineExt, Engine, EngineConfig, FusionPolicy, Ticket};
pub use sparcml_serve::{
    AggregationMode, ServeClient, ServeConfig, ServeError, Server, ServerHandle, ShardGroup,
};
