//! A real in-process transport: channel-backed message passing between OS
//! threads with *wall-clock* time.
//!
//! [`ThreadTransport`] is a channel [`Mesh`] into its peers, the shared
//! [`Mailbox`] for everything on the receive side (matching, buffering,
//! watchdog, disconnects), a [`WallClock`] and the counters. The same
//! collectives, selector and training loops that run on the virtual-time
//! [`crate::Endpoint`] execute unchanged on it. Differences from
//! `Endpoint`:
//!
//! * `clock()` reports elapsed wall time since the transport was created
//!   (plus any explicitly charged seconds), not model time;
//! * `compute()` records statistics only — on a real transport the caller
//!   performs the reduction work for real, so charging model time on top
//!   would double-count it;
//! * `isend` equals `send` (channel injection never blocks);
//! * the [`CostModel`] is retained purely as a *planning hint* for the
//!   adaptive algorithm selector (`Algorithm::Auto`), the Aries-class
//!   model.

use std::time::Duration;

use bytes::Bytes;

use crate::clock::WallClock;
use crate::cluster::run_ranks;
use crate::config::TransportConfig;
use crate::cost::CostModel;
use crate::error::CommError;
use crate::mailbox::{Mailbox, Mesh};
use crate::stats::CommStats;
use crate::transport::Transport;

/// One rank's session in a real threaded communicator.
pub struct ThreadTransport {
    mesh: Mesh<Bytes>,
    mailbox: Mailbox<Bytes>,
    clock: WallClock,
    cost_hint: CostModel,
    op_counter: u64,
    stats: CommStats,
}

impl std::fmt::Debug for ThreadTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadTransport")
            .field("rank", &self.mesh.rank)
            .field("size", &self.mesh.size())
            .finish()
    }
}

impl ThreadTransport {
    /// Wires a fully connected `size`-rank communicator and returns one
    /// transport per rank (move each onto its own thread). The planning
    /// hint is the Aries-class cost model, the receive watchdog
    /// [`TransportConfig::default`]'s.
    pub fn connect(size: usize) -> Vec<ThreadTransport> {
        Mesh::connect(size, TransportConfig::default().recv_timeout)
            .into_iter()
            .map(|(mesh, mailbox)| ThreadTransport {
                mesh,
                mailbox,
                clock: WallClock::start(),
                cost_hint: CostModel::aries(),
                op_counter: 0,
                stats: CommStats::default(),
            })
            .collect()
    }

    /// Overrides the receive watchdog (default 30 s): how long `recv`
    /// waits for a matching message from a peer that is alive but silent
    /// before giving up with [`CommError::Timeout`].
    pub fn set_recv_deadline(&mut self, deadline: Duration) {
        self.mailbox.set_recv_timeout(deadline);
    }

    fn accept(&mut self, payload: Bytes) -> Bytes {
        self.stats.msgs_recv += 1;
        self.stats.bytes_recv += payload.len() as u64;
        payload
    }
}

impl Transport for ThreadTransport {
    fn rank(&self) -> usize {
        self.mesh.rank
    }

    fn backend_name(&self) -> &'static str {
        "thread"
    }

    fn size(&self) -> usize {
        self.mesh.size()
    }

    fn cost(&self) -> &CostModel {
        &self.cost_hint
    }

    fn clock(&self) -> f64 {
        self.clock.now()
    }

    fn advance_clock_to(&mut self, t: f64) {
        self.clock.advance_to(t);
    }

    fn charge_seconds(&mut self, seconds: f64) {
        self.clock.charge(seconds);
    }

    fn compute(&mut self, elements: usize) {
        // Work happens for real on this transport; only count it.
        self.stats.compute_elements += elements as u64;
    }

    fn next_op_id(&mut self) -> u64 {
        self.op_counter += 1;
        self.stats.collectives += 1;
        self.op_counter
    }

    fn stats(&self) -> &CommStats {
        &self.stats
    }

    fn stats_mut(&mut self) -> &mut CommStats {
        &mut self.stats
    }

    fn reset_clock(&mut self) {
        self.clock = WallClock::start();
        self.stats = CommStats::default();
    }

    fn send(&mut self, dst: usize, tag: u64, payload: Bytes) -> Result<(), CommError> {
        let len = payload.len() as u64;
        self.mesh.send(dst, tag, payload)?;
        self.stats.msgs_sent += 1;
        self.stats.bytes_sent += len;
        Ok(())
    }

    fn isend(&mut self, dst: usize, tag: u64, payload: Bytes) -> Result<(), CommError> {
        self.send(dst, tag, payload)
    }

    fn recv(&mut self, src: usize, tag: u64) -> Result<Bytes, CommError> {
        let payload = self.mailbox.recv(src, tag)?;
        Ok(self.accept(payload))
    }

    fn recv_any(&mut self, tag: u64) -> Result<(usize, Bytes), CommError> {
        let (src, payload) = self.mailbox.recv_any(tag)?;
        Ok((src, self.accept(payload)))
    }

    fn detach(&mut self) -> ThreadTransport {
        std::mem::replace(self, standalone_thread_transport())
    }
}

/// Creates a disconnected single-rank thread transport with a free cost
/// model — the placeholder counterpart of [`crate::standalone_endpoint`].
pub fn standalone_thread_transport() -> ThreadTransport {
    let mut tp = ThreadTransport::connect(1)
        .pop()
        .expect("single-rank communicator");
    tp.cost_hint = CostModel::zero();
    tp
}

/// Runs `f` once per rank on `size` real concurrent threads and returns
/// the per-rank results, indexed by rank — the [`ThreadTransport`]
/// counterpart of [`crate::run_cluster`].
pub fn run_thread_cluster<R, F>(size: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(&mut ThreadTransport) -> R + Sync,
{
    run_ranks(ThreadTransport::connect(size), |_, mut tp| f(&mut tp))
}
