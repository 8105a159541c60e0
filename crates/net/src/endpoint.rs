//! Per-rank communication endpoint with a virtual clock.
//!
//! Each rank thread owns one [`Endpoint`]. Point-to-point messages are
//! matched MPI-style on `(source, tag)` and carry a virtual arrival time
//! computed from the sender's clock and the [`CostModel`]:
//!
//! * a blocking `send` advances the sender's clock by α (it models message
//!   injection), a non-blocking `isend` by `α · isend_alpha_fraction`;
//! * the message is stamped to arrive at `sender_clock_before_send + α +
//!   β·len`;
//! * `recv` advances the receiver's clock to `max(clock, arrival)`;
//! * local reduction work is charged explicitly via `compute`.
//!
//! A simultaneous pairwise exchange therefore costs `α + βL` per round and
//! a serial fan-out of P−1 blocking sends costs `(P−1)α` at the sender —
//! exactly the accounting the paper uses in §5.3.

use std::collections::{HashMap, VecDeque};

use bytes::Bytes;
use crossbeam::channel::{Receiver, Sender};

use crate::cost::CostModel;
use crate::error::CommError;
use crate::stats::CommStats;
use crate::transport::Transport;

/// A message in flight.
#[derive(Debug, Clone)]
pub struct WireMsg {
    /// Sending rank.
    pub src: usize,
    /// Matching tag.
    pub tag: u64,
    /// Payload bytes (cheaply clonable).
    pub payload: Bytes,
    /// Virtual time at which the message is fully received.
    pub arrival: f64,
}

/// One rank's endpoint into the communicator.
pub struct Endpoint {
    rank: usize,
    size: usize,
    senders: Vec<Sender<WireMsg>>,
    inbox: Receiver<WireMsg>,
    /// Out-of-order buffer for messages received before they were asked for.
    pending: HashMap<(usize, u64), VecDeque<WireMsg>>,
    cost: CostModel,
    clock: f64,
    /// Monotonic per-endpoint counter used to derive collective op tags;
    /// collectives are invoked in the same order on every rank, so counters
    /// stay aligned without extra communication.
    op_counter: u64,
    stats: CommStats,
}

impl std::fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Endpoint")
            .field("rank", &self.rank)
            .field("size", &self.size)
            .field("clock", &self.clock)
            .finish()
    }
}

impl Endpoint {
    pub(crate) fn new(
        rank: usize,
        size: usize,
        senders: Vec<Sender<WireMsg>>,
        inbox: Receiver<WireMsg>,
        cost: CostModel,
    ) -> Self {
        Endpoint {
            rank,
            size,
            senders,
            inbox,
            pending: HashMap::new(),
            cost,
            clock: 0.0,
            op_counter: 0,
            stats: CommStats::default(),
        }
    }

    /// This rank's id in `[0, size)`.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Communicator size `P`.
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// The cost model the virtual clock charges, which is also the one
    /// algorithm selection plans with.
    #[inline]
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// Current virtual time in seconds.
    #[inline]
    pub fn clock(&self) -> f64 {
        self.clock
    }

    /// Communication statistics accumulated so far.
    #[inline]
    pub fn stats(&self) -> &CommStats {
        &self.stats
    }

    /// Mutable statistics access (see [`Transport::stats_mut`]).
    #[inline]
    pub fn stats_mut(&mut self) -> &mut CommStats {
        &mut self.stats
    }

    /// Resets the virtual clock and statistics (between experiment trials).
    pub fn reset_clock(&mut self) {
        self.clock = 0.0;
        self.stats = CommStats::default();
    }

    /// Advances the clock to `t` if `t` is later.
    #[inline]
    pub fn advance_clock_to(&mut self, t: f64) {
        if t > self.clock {
            self.clock = t;
        }
    }

    /// Adds `seconds` of non-overlappable local work.
    #[inline]
    pub fn charge_seconds(&mut self, seconds: f64) {
        self.clock += seconds;
    }

    /// Charges local reduction work of `elements` element operations.
    #[inline]
    pub fn compute(&mut self, elements: usize) {
        self.clock += self.cost.compute_time(elements);
        self.stats.compute_elements += elements as u64;
    }

    /// Allocates a fresh collective operation id. All ranks call collectives
    /// in the same order, so ids agree across the communicator.
    pub fn next_op_id(&mut self) -> u64 {
        self.op_counter += 1;
        self.stats.collectives += 1;
        self.op_counter
    }

    fn push_msg(
        &mut self,
        dst: usize,
        tag: u64,
        payload: Bytes,
        alpha_charge: f64,
    ) -> Result<(), CommError> {
        if dst >= self.size {
            return Err(CommError::InvalidRank {
                rank: dst,
                size: self.size,
            });
        }
        let len = payload.len();
        let arrival = self.clock + self.cost.transfer_time(len);
        self.clock += alpha_charge;
        self.stats.msgs_sent += 1;
        self.stats.bytes_sent += len as u64;
        let msg = WireMsg {
            src: self.rank,
            tag,
            payload,
            arrival,
        };
        self.senders[dst]
            .send(msg)
            .map_err(|_| CommError::PeerDisconnected { peer: dst })
    }

    /// Blocking send: charges the full injection latency α to the sender.
    pub fn send(&mut self, dst: usize, tag: u64, payload: Bytes) -> Result<(), CommError> {
        let alpha = self.cost.alpha;
        self.push_msg(dst, tag, payload, alpha)
    }

    /// Non-blocking send: charges only `α · isend_alpha_fraction`, modelling
    /// injection offload (§5.3.2 latency mitigation).
    pub fn isend(&mut self, dst: usize, tag: u64, payload: Bytes) -> Result<(), CommError> {
        let alpha = self.cost.alpha * self.cost.isend_alpha_fraction;
        self.push_msg(dst, tag, payload, alpha)
    }

    /// Receives the next message from `src` with `tag`, blocking as needed.
    /// Advances the virtual clock to the message arrival time.
    pub fn recv(&mut self, src: usize, tag: u64) -> Result<Bytes, CommError> {
        if src >= self.size {
            return Err(CommError::InvalidRank {
                rank: src,
                size: self.size,
            });
        }
        // Serve from the out-of-order buffer first.
        if let Some(queue) = self.pending.get_mut(&(src, tag)) {
            if let Some(msg) = queue.pop_front() {
                return Ok(self.accept(msg));
            }
        }
        loop {
            let msg = self
                .inbox
                .recv()
                .map_err(|_| CommError::PeerDisconnected { peer: src })?;
            if msg.src == src && msg.tag == tag {
                return Ok(self.accept(msg));
            }
            self.pending
                .entry((msg.src, msg.tag))
                .or_default()
                .push_back(msg);
        }
    }

    /// Receives one message carrying `tag` from *any* source.
    pub fn recv_any(&mut self, tag: u64) -> Result<(usize, Bytes), CommError> {
        // Buffered messages first, in rank order for determinism.
        let mut buffered: Option<(usize, u64)> = None;
        for (&(src, t), queue) in self.pending.iter() {
            if t == tag && !queue.is_empty() {
                match buffered {
                    Some((best, _)) if best <= src => {}
                    _ => buffered = Some((src, t)),
                }
            }
        }
        if let Some(key) = buffered {
            let msg = self
                .pending
                .get_mut(&key)
                .and_then(|q| q.pop_front())
                .expect("non-empty");
            let src = msg.src;
            return Ok((src, self.accept(msg)));
        }
        loop {
            let msg = self
                .inbox
                .recv()
                .map_err(|_| CommError::PeerDisconnected { peer: self.rank })?;
            if msg.tag == tag {
                let src = msg.src;
                return Ok((src, self.accept(msg)));
            }
            self.pending
                .entry((msg.src, msg.tag))
                .or_default()
                .push_back(msg);
        }
    }

    fn accept(&mut self, msg: WireMsg) -> Bytes {
        self.advance_clock_to(msg.arrival);
        self.stats.msgs_recv += 1;
        self.stats.bytes_recv += msg.payload.len() as u64;
        msg.payload
    }

    /// Simultaneous exchange with a peer (send then receive); the common
    /// primitive of recursive doubling/halving.
    pub fn exchange(&mut self, peer: usize, tag: u64, payload: Bytes) -> Result<Bytes, CommError> {
        self.send(peer, tag, payload)?;
        self.recv(peer, tag)
    }

    /// Replaces `self` with an inert single-rank placeholder and returns
    /// the real endpoint — the hand-off pattern used by non-blocking
    /// collectives, which run on a helper thread owning the endpoint.
    ///
    /// After detaching, `self.rank()`/`self.size()` report the placeholder
    /// (rank 0 of 1): read any rank-dependent state *before* calling this.
    pub fn detach(&mut self) -> Endpoint {
        std::mem::replace(self, standalone_endpoint())
    }
}

/// [`Transport`] implementation: the virtual-time transport is the
/// reference implementor — every method delegates to the inherent
/// `Endpoint` API above.
impl Transport for Endpoint {
    fn rank(&self) -> usize {
        Endpoint::rank(self)
    }

    fn backend_name(&self) -> &'static str {
        "endpoint"
    }

    fn size(&self) -> usize {
        Endpoint::size(self)
    }

    fn cost(&self) -> &CostModel {
        Endpoint::cost(self)
    }

    fn clock(&self) -> f64 {
        Endpoint::clock(self)
    }

    fn advance_clock_to(&mut self, t: f64) {
        Endpoint::advance_clock_to(self, t)
    }

    fn charge_seconds(&mut self, seconds: f64) {
        Endpoint::charge_seconds(self, seconds)
    }

    fn compute(&mut self, elements: usize) {
        Endpoint::compute(self, elements)
    }

    fn next_op_id(&mut self) -> u64 {
        Endpoint::next_op_id(self)
    }

    fn stats(&self) -> &CommStats {
        Endpoint::stats(self)
    }

    fn stats_mut(&mut self) -> &mut CommStats {
        Endpoint::stats_mut(self)
    }

    fn reset_clock(&mut self) {
        Endpoint::reset_clock(self)
    }

    fn send(&mut self, dst: usize, tag: u64, payload: Bytes) -> Result<(), CommError> {
        Endpoint::send(self, dst, tag, payload)
    }

    fn isend(&mut self, dst: usize, tag: u64, payload: Bytes) -> Result<(), CommError> {
        Endpoint::isend(self, dst, tag, payload)
    }

    fn recv(&mut self, src: usize, tag: u64) -> Result<Bytes, CommError> {
        Endpoint::recv(self, src, tag)
    }

    fn recv_any(&mut self, tag: u64) -> Result<(usize, Bytes), CommError> {
        Endpoint::recv_any(self, tag)
    }

    fn exchange(&mut self, peer: usize, tag: u64, payload: Bytes) -> Result<Bytes, CommError> {
        Endpoint::exchange(self, peer, tag, payload)
    }

    fn detach(&mut self) -> Endpoint {
        Endpoint::detach(self)
    }
}

/// Creates a disconnected single-rank endpoint with a free cost model.
/// Useful as a placeholder during non-blocking hand-off and in unit tests.
pub fn standalone_endpoint() -> Endpoint {
    let (tx, rx) = crossbeam::channel::unbounded();
    Endpoint::new(0, 1, vec![tx], rx, CostModel::zero())
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
