//! The transport abstraction every SparCML collective is written against.
//!
//! SpComm3D-style thin communication layer: collectives see only this
//! trait — matched point-to-point byte messages, a clock, a work-charging
//! hook and an op-id source — so the schedule logic is fully decoupled
//! from *how* bytes move and *what* the clock means. Three implementors
//! ship in this crate, plus [`crate::GroupTransport`], a subgroup view
//! over any of them:
//!
//! * [`crate::Endpoint`] — the virtual-time transport: real messages over
//!   channels, deterministic completion times from the α–β(–γ) cost model;
//! * [`crate::ThreadTransport`] — a real in-process transport: one OS
//!   thread per rank, wall-clock time, no cost modelling;
//! * [`crate::ReactorTransport`] — the socket transport: a full TCP mesh
//!   across OS processes, one epoll event loop per rank (Linux only).
//!
//! Downstream backends (MPI, RDMA) only need to implement this trait to
//! run every collective, the adaptive selector, and the training
//! workloads unchanged. The contract below is checked once, on all three,
//! by `tests/transport_contract.rs` — its failure half included: the
//! three receive through one mailbox, so a peer whose session ended is
//! [`CommError::PeerDisconnected`] and a silent one
//! [`CommError::Timeout`] on each of them.

use bytes::Bytes;

use crate::cost::CostModel;
use crate::error::CommError;
use crate::stats::CommStats;

/// A per-rank communication session: point-to-point messaging matched on
/// `(source, tag)`, plus the time/work accounting collectives rely on.
///
/// # Contract
///
/// * Messages between a pair of ranks with the same tag are delivered in
///   send order; different tags may be consumed out of order.
/// * [`Transport::next_op_id`] must return the same sequence on every
///   rank (collectives are invoked in the same order cluster-wide), so
///   derived message tags agree without extra communication.
/// * [`Transport::clock`] is monotonically non-decreasing; implementations
///   where time is not modelled report elapsed wall time.
pub trait Transport {
    /// This rank's id in `[0, size)`.
    fn rank(&self) -> usize;

    /// Communicator size `P`.
    fn size(&self) -> usize;

    /// The network cost model used for *planning* (the §5.3 adaptive
    /// selector and analytic estimates). For virtual-time transports this
    /// also drives the clock; real transports return the static hint
    /// they were built with.
    fn cost(&self) -> &CostModel;

    /// Current time in seconds (virtual or wall, per implementation).
    fn clock(&self) -> f64;

    /// Advances the clock to `t` if `t` is later.
    fn advance_clock_to(&mut self, t: f64);

    /// Adds `seconds` of non-overlappable local work.
    fn charge_seconds(&mut self, seconds: f64);

    /// Charges local reduction work of `elements` element operations.
    fn compute(&mut self, elements: usize);

    /// Allocates a fresh collective operation id (identical sequence on
    /// every rank).
    fn next_op_id(&mut self) -> u64;

    /// Group-nesting depth of this view: `0` for a root transport, `d+1`
    /// for a [`crate::GroupTransport`] over a depth-`d` base. Feeds the
    /// depth field of group tag scopes (see [`crate::GroupTagSpace`]) so
    /// nested subgroups derive tags disjoint from their ancestors'.
    fn tag_depth(&self) -> u32 {
        0
    }

    /// Short static name of the transport backend (`"reactor"`,
    /// `"thread"`, `"endpoint"`), used to key latency histograms so
    /// measurements over different backends never mix. Group views
    /// report their base transport's backend.
    fn backend_name(&self) -> &'static str {
        "custom"
    }

    /// Communication statistics accumulated so far.
    fn stats(&self) -> &CommStats;

    /// Mutable access to the statistics — for transport implementations
    /// and wrappers (e.g. a subgroup view counting its collectives on the
    /// shared session counters), not for application code.
    fn stats_mut(&mut self) -> &mut CommStats;

    /// Resets the clock and statistics (between experiment trials).
    fn reset_clock(&mut self);

    /// Blocking send of `payload` to `dst` under `tag`.
    fn send(&mut self, dst: usize, tag: u64, payload: Bytes) -> Result<(), CommError>;

    /// Non-blocking send: the message is injected but the caller is not
    /// charged the full injection latency (§5.3.2 latency mitigation).
    fn isend(&mut self, dst: usize, tag: u64, payload: Bytes) -> Result<(), CommError>;

    /// Receives the next message from `src` with `tag`, blocking as needed.
    fn recv(&mut self, src: usize, tag: u64) -> Result<Bytes, CommError>;

    /// Receives one message carrying `tag` from *any* source.
    fn recv_any(&mut self, tag: u64) -> Result<(usize, Bytes), CommError>;

    /// Simultaneous exchange with a peer (send then receive) — the common
    /// primitive of recursive doubling/halving.
    fn exchange(&mut self, peer: usize, tag: u64, payload: Bytes) -> Result<Bytes, CommError> {
        self.send(peer, tag, payload)?;
        self.recv(peer, tag)
    }

    /// Replaces `self` with an inert single-rank placeholder and returns
    /// the real transport — the hand-off pattern of the progress engine,
    /// whose thread owns the transport while it runs.
    ///
    /// After detaching, `self.rank()`/`self.size()` report the placeholder
    /// (rank 0 of 1): read any rank-dependent state *before* calling this.
    fn detach(&mut self) -> Self
    where
        Self: Sized;
}
