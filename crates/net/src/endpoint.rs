//! Per-rank communication endpoint with a virtual clock.
//!
//! Each rank thread owns one [`Endpoint`]. Point-to-point messages are
//! matched MPI-style on `(source, tag)` and carry a virtual arrival time
//! computed from the sender's clock and the [`CostModel`]:
//!
//! * a blocking `send` advances the sender's clock by α (it models message
//!   injection), a non-blocking `isend` by `α · isend_alpha_fraction`;
//! * the link to each peer carries one frame at a time: a frame starts at
//!   `max(sender_clock_before_send, link free)`, is stamped to arrive
//!   `α + β·len` after it starts, and holds the link for `β·len`;
//! * `recv` advances the receiver's clock to `max(clock, arrival)`;
//! * local reduction work is charged explicitly via `compute`.
//!
//! A simultaneous pairwise exchange therefore costs `α + βL` per round and
//! a serial fan-out of P−1 blocking sends costs `(P−1)α` at the sender —
//! exactly the accounting the paper uses in §5.3. Splitting a frame into
//! `c` pieces to one peer buys overlap, never bandwidth: the last piece
//! still lands `α + βL` after the first one starts.
//!
//! Only *time* is modelled. Matching, buffering and failure are the shared
//! [`Mailbox`]'s, as on every root transport: a peer that finished, was
//! dropped or panicked is [`CommError::PeerDisconnected`] at once, one
//! that stays silent is [`CommError::Timeout`] after the receive watchdog
//! — measured in wall time, so neither ever moves the virtual clock.

use std::time::Duration;

use bytes::Bytes;

use crate::config::TransportConfig;
use crate::cost::CostModel;
use crate::error::CommError;
use crate::mailbox::{Mailbox, Mesh};
use crate::stats::CommStats;
use crate::transport::Transport;

/// A message body on the virtual link: the payload and the virtual time
/// at which it is fully received.
type Timed = (Bytes, f64);

/// One rank's endpoint into the communicator: a channel mesh into its
/// peers, the shared mailbox for everything on the receive side, the
/// virtual clock and the counters.
pub struct Endpoint {
    mesh: Mesh<Timed>,
    mailbox: Mailbox<Timed>,
    cost: CostModel,
    clock: f64,
    /// `link_free[dst]`: the virtual time at which the link to `dst` has
    /// finished putting its last frame on the wire.
    link_free: Vec<f64>,
    /// Monotonic per-endpoint counter used to derive collective op tags;
    /// collectives are invoked in the same order on every rank, so counters
    /// stay aligned without extra communication.
    op_counter: u64,
    stats: CommStats,
}

impl std::fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Endpoint")
            .field("rank", &self.mesh.rank)
            .field("size", &self.mesh.size())
            .field("clock", &self.clock)
            .finish()
    }
}

impl Endpoint {
    /// Wires a fully connected `size`-rank communicator whose clocks
    /// charge `cost`, one endpoint per rank.
    pub(crate) fn connect(size: usize, cost: CostModel) -> Vec<Endpoint> {
        Mesh::connect(size, TransportConfig::default().recv_timeout)
            .into_iter()
            .map(|(mesh, mailbox)| Endpoint {
                mesh,
                mailbox,
                link_free: vec![0.0; size],
                cost,
                clock: 0.0,
                op_counter: 0,
                stats: CommStats::default(),
            })
            .collect()
    }

    /// Overrides the receive watchdog (default 30 s, as on the other
    /// transports): how long `recv` waits, in *wall* time, for a peer that
    /// is alive but silent before giving up with [`CommError::Timeout`].
    /// The wait is never charged to the virtual clock.
    pub fn set_recv_deadline(&mut self, deadline: Duration) {
        self.mailbox.set_recv_timeout(deadline);
    }

    fn push_msg(
        &mut self,
        dst: usize,
        tag: u64,
        payload: Bytes,
        alpha_charge: f64,
    ) -> Result<(), CommError> {
        let len = payload.len();
        // An out-of-range `dst` is the mesh's to reject.
        let start = self
            .clock
            .max(self.link_free.get(dst).copied().unwrap_or(0.0));
        let arrival = start + self.cost.transfer_time(len);
        self.mesh.send(dst, tag, (payload, arrival))?;
        self.link_free[dst] = start + self.cost.beta * len as f64;
        self.clock += alpha_charge;
        self.stats.msgs_sent += 1;
        self.stats.bytes_sent += len as u64;
        Ok(())
    }

    fn accept(&mut self, (payload, arrival): Timed) -> Bytes {
        self.advance_clock_to(arrival);
        self.stats.msgs_recv += 1;
        self.stats.bytes_recv += payload.len() as u64;
        payload
    }
}

/// The virtual-time transport is the reference implementor: the clock
/// rules of the module docs are these method bodies.
impl Transport for Endpoint {
    fn rank(&self) -> usize {
        self.mesh.rank
    }

    fn backend_name(&self) -> &'static str {
        "endpoint"
    }

    fn size(&self) -> usize {
        self.mesh.size()
    }

    /// The cost model the virtual clock charges, which is also the one
    /// algorithm selection plans with.
    fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// Current virtual time in seconds.
    fn clock(&self) -> f64 {
        self.clock
    }

    fn advance_clock_to(&mut self, t: f64) {
        if t > self.clock {
            self.clock = t;
        }
    }

    fn charge_seconds(&mut self, seconds: f64) {
        self.clock += seconds;
    }

    /// Charges `γ · elements` of local reduction work to the clock.
    fn compute(&mut self, elements: usize) {
        self.clock += self.cost.compute_time(elements);
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

    /// Resets the virtual clock, every link's busy time and the statistics
    /// (between experiment trials).
    fn reset_clock(&mut self) {
        self.clock = 0.0;
        self.link_free.fill(0.0);
        self.stats = CommStats::default();
    }

    /// Blocking send: charges the full injection latency α to the sender;
    /// on a free link the message arrives at `clock_before_send + α +
    /// β·len`, behind the frame still on it otherwise.
    fn send(&mut self, dst: usize, tag: u64, payload: Bytes) -> Result<(), CommError> {
        let alpha = self.cost.alpha;
        self.push_msg(dst, tag, payload, alpha)
    }

    /// Non-blocking send: charges only `α · isend_alpha_fraction`, modelling
    /// injection offload (§5.3.2 latency mitigation); the wire latency is
    /// unchanged.
    fn isend(&mut self, dst: usize, tag: u64, payload: Bytes) -> Result<(), CommError> {
        let alpha = self.cost.alpha * self.cost.isend_alpha_fraction;
        self.push_msg(dst, tag, payload, alpha)
    }

    /// Advances the virtual clock to the message's arrival time. A receive
    /// that fails — the peer is gone, or silent for the wall-clock watchdog
    /// — leaves the clock where the last delivered message put it.
    fn recv(&mut self, src: usize, tag: u64) -> Result<Bytes, CommError> {
        let msg = self.mailbox.recv(src, tag)?;
        Ok(self.accept(msg))
    }

    fn recv_any(&mut self, tag: u64) -> Result<(usize, Bytes), CommError> {
        let (src, msg) = self.mailbox.recv_any(tag)?;
        Ok((src, self.accept(msg)))
    }

    fn detach(&mut self) -> Endpoint {
        std::mem::replace(self, standalone_endpoint())
    }
}

/// Creates a disconnected single-rank endpoint with a free cost model.
/// Useful as a placeholder during an engine hand-off and in unit tests.
pub fn standalone_endpoint() -> Endpoint {
    Endpoint::connect(1, CostModel::zero())
        .pop()
        .expect("single-rank communicator")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::run_cluster;

    // Only the cost model lives here: the `Transport` contract itself is
    // checked on this transport by the workspace's
    // `tests/transport_contract.rs`.

    #[test]
    fn pairwise_exchange_costs_alpha_plus_beta_l() {
        let cost = CostModel {
            alpha: 1.0,
            beta: 0.5,
            gamma: 0.0,
            isend_alpha_fraction: 0.0,
        };
        let clocks = run_cluster(2, cost, |ep| {
            let payload = Bytes::from(vec![0u8; 10]);
            let _ = ep.exchange(1 - ep.rank(), 7, payload).unwrap();
            ep.clock()
        });
        // Both ranks: send at t=0 (arrival = 0 + 1 + 5 = 6), clock after
        // send = 1, recv advances to 6.
        assert_eq!(clocks, vec![6.0, 6.0]);
    }

    #[test]
    fn serial_sends_accumulate_alpha() {
        let cost = CostModel {
            alpha: 2.0,
            beta: 0.0,
            gamma: 0.0,
            isend_alpha_fraction: 0.0,
        };
        let clocks = run_cluster(4, cost, |ep| {
            if ep.rank() == 0 {
                for dst in 1..4 {
                    ep.send(dst, 1, Bytes::new()).unwrap();
                }
            } else {
                let _ = ep.recv(0, 1).unwrap();
            }
            ep.clock()
        });
        // Rank 0 pays 3α = 6; message i arrives at (i-1)·α + α.
        assert_eq!(clocks[0], 6.0);
        assert_eq!(clocks[1], 2.0);
        assert_eq!(clocks[2], 4.0);
        assert_eq!(clocks[3], 6.0);
    }

    #[test]
    fn isend_charges_reduced_alpha() {
        let cost = CostModel {
            alpha: 2.0,
            beta: 0.0,
            gamma: 0.0,
            isend_alpha_fraction: 0.25,
        };
        let clocks = run_cluster(2, cost, |ep| {
            if ep.rank() == 0 {
                ep.isend(1, 1, Bytes::new()).unwrap();
            } else {
                let _ = ep.recv(0, 1).unwrap();
            }
            ep.clock()
        });
        assert_eq!(clocks[0], 0.5); // α/4 charged locally
        assert_eq!(clocks[1], 2.0); // wire latency unchanged
    }

    /// α = 1, β = 1 per byte, free isends: the link rule on its own.
    const LINK: CostModel = CostModel {
        alpha: 1.0,
        beta: 1.0,
        gamma: 0.0,
        isend_alpha_fraction: 0.0,
    };

    #[test]
    fn two_frames_to_one_peer_serialize_on_its_link() {
        let clocks = run_cluster(2, LINK, |ep| {
            if ep.rank() == 0 {
                ep.isend(1, 1, Bytes::from(vec![0u8; 10])).unwrap();
                ep.isend(1, 2, Bytes::from(vec![0u8; 10])).unwrap();
                return vec![ep.clock()];
            }
            let first = ep.recv(0, 1).map(|_| ep.clock()).unwrap();
            let second = ep.recv(0, 2).map(|_| ep.clock()).unwrap();
            vec![first, second]
        });
        // Both go out at t = 0; the second starts when the first has left
        // the link (t = 10) and lands α + β·10 after that.
        assert_eq!(clocks, vec![vec![0.0], vec![11.0, 21.0]]);
    }

    #[test]
    fn frames_to_two_peers_do_not_wait_for_each_other() {
        let clocks = run_cluster(3, LINK, |ep| {
            if ep.rank() == 0 {
                ep.isend(1, 1, Bytes::from(vec![0u8; 10])).unwrap();
                ep.isend(2, 1, Bytes::from(vec![0u8; 10])).unwrap();
            } else {
                let _ = ep.recv(0, 1).unwrap();
            }
            ep.clock()
        });
        assert_eq!(clocks, vec![0.0, 11.0, 11.0]);
    }

    #[test]
    fn reset_clock_frees_every_link() {
        let clocks = run_cluster(2, LINK, |ep| {
            if ep.rank() == 0 {
                // Holds the link until t = 100 on the old clock.
                ep.isend(1, 1, Bytes::from(vec![0u8; 100])).unwrap();
                ep.reset_clock();
                ep.isend(1, 2, Bytes::from(vec![0u8; 10])).unwrap();
                return 0.0;
            }
            let _ = ep.recv(0, 1).unwrap();
            ep.reset_clock();
            let _ = ep.recv(0, 2).unwrap();
            ep.clock()
        });
        // A busy link from before the reset would have put it at 111.
        assert_eq!(clocks[1], 11.0);
    }

    #[test]
    fn failed_receives_leave_the_virtual_clock_alone() {
        let cost = CostModel {
            alpha: 1.0,
            beta: 0.0,
            gamma: 0.0,
            isend_alpha_fraction: 0.0,
        };
        let clocks = run_cluster(2, cost, |ep| {
            if ep.rank() == 0 {
                ep.send(1, 1, Bytes::new()).unwrap();
                let _ = ep.recv(1, 2).unwrap(); // alive but silent until released
            } else {
                let _ = ep.recv(0, 1).unwrap();
                ep.set_recv_deadline(Duration::from_millis(20));
                let silent = ep.recv(0, 1).unwrap_err();
                assert!(matches!(silent, CommError::Timeout { peer: 0, .. }));
                ep.set_recv_deadline(Duration::from_secs(30));
                ep.isend(0, 2, Bytes::new()).unwrap(); // free at fraction 0
                let gone = ep.recv(0, 1).unwrap_err();
                assert_eq!(gone, CommError::PeerDisconnected { peer: 0 });
            }
            ep.clock()
        });
        // The one delivered message arrived at α; neither the 20 ms of wall
        // time spent waiting nor the disconnect is on rank 1's clock.
        assert_eq!(clocks[1], 1.0);
    }

    #[test]
    fn compute_charges_gamma() {
        let cost = CostModel {
            alpha: 0.0,
            beta: 0.0,
            gamma: 0.5,
            isend_alpha_fraction: 0.0,
        };
        let clocks = run_cluster(1, cost, |ep| {
            ep.compute(10);
            ep.clock()
        });
        assert_eq!(clocks[0], 5.0);
    }
}
