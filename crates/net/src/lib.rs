//! # sparcml-net
//!
//! Pluggable message-passing transports for the SparCML reproduction.
//!
//! The paper runs on MPI over Cray Aries / InfiniBand / Gigabit Ethernet.
//! This crate abstracts that stack behind the [`Transport`] trait — the
//! thin communication layer every collective is written against — with
//! three implementors (plus [`GroupTransport`], a subgroup view over any
//! of them):
//!
//! * [`Endpoint`]: one thread per rank, real point-to-point byte messages
//!   over channels, and a per-rank *virtual clock* advanced by the
//!   α–β(–γ) cost model of §5.2. Collectives execute their genuine
//!   communication schedules while completion times remain deterministic
//!   and network-parameterized.
//! * [`ThreadTransport`]: the same programs on real concurrent OS
//!   threads with wall-clock time.
//! * [`ReactorTransport`]: real sockets — a rendezvous bootstrap, a full
//!   mesh of persistent connections, length-prefixed frames carrying the
//!   wire-v4 stream frames, typed failures (timeouts, disconnects, handshake
//!   mismatches). A send writes on the caller's thread and a blocked
//!   receive reads its own sockets; one epoll event loop per rank only
//!   finishes parked writes, watches for hang-ups and drains sockets no
//!   caller is reading. Runs collectives
//!   across OS *processes*, launched either by
//!   [`launcher::run_socket_cluster`] or manually via the
//!   `SPARCML_RANK`/`SPARCML_WORLD`/`SPARCML_ROOT_ADDR` environment
//!   bootstrap. Linux only (epoll, poll); the other two are portable.
//!
//! The three differ in how bytes move and what the clock means, not in
//! how a message is received: `(source, tag)` matching, the out-of-order
//! buffer, the receive watchdog and the disconnect rule are one crate-
//! private mailbox under all of them, so a finished, dropped or panicked
//! peer is [`CommError::PeerDisconnected`] at once and a silent one is
//! [`CommError::Timeout`] after the watchdog, whichever transport it is.
//!
//! ```
//! use sparcml_net::{run_cluster, CostModel, Transport};
//! use bytes::Bytes;
//!
//! let results = run_cluster(4, CostModel::aries(), |ep| {
//!     let peer = ep.rank() ^ 1;
//!     let got = ep.exchange(peer, 0, Bytes::from(vec![ep.rank() as u8])).unwrap();
//!     got[0] as usize
//! });
//! assert_eq!(results, vec![1, 0, 3, 2]);
//! ```

#![warn(missing_docs)]

mod bootstrap;
mod clock;
mod cluster;
mod config;
mod cost;
mod endpoint;
mod error;
pub mod framing;
mod group;
pub mod launcher;
mod mailbox;
mod pool;
mod reactor;
mod stats;
mod tags;
mod thread_transport;
mod transport;

pub use bootstrap::TCP_PROTOCOL_VERSION;
pub use cluster::{max_virtual_time, run_cluster};
pub use config::{TransportConfig, DEFAULT_MAX_FRAME_LEN, SERVER_MAX_FRAME_LEN};
pub use cost::{CostModel, ENV_COST_MODEL};
pub use endpoint::{standalone_endpoint, Endpoint};
pub use error::CommError;
pub use group::GroupTransport;
pub use launcher::{run_socket_cluster, run_socket_cluster_outcomes, LaunchOptions, RankOutcome};
pub use reactor::{run_reactor_loopback_cluster, standalone_reactor_transport, ReactorTransport};
pub use stats::CommStats;
pub use tags::{
    is_group_op, GroupTagSpace, TagBlock, TagBlockAllocator, GROUP_REGION_BIT, MAX_GROUP_DEPTH,
    TAG_BLOCK_BITS,
};
pub use thread_transport::{run_thread_cluster, standalone_thread_transport, ThreadTransport};
pub use transport::Transport;
