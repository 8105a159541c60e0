//! A real in-process transport: channel-backed message passing between OS
//! threads with *wall-clock* time.
//!
//! [`ThreadTransport`] is the second [`Transport`] implementor and proves
//! the seam: the same collectives, selector and training loops that run on
//! the virtual-time [`crate::Endpoint`] execute unchanged on real
//! concurrent threads. Differences from `Endpoint`:
//!
//! * `clock()` reports elapsed wall time since the transport was created
//!   (plus any explicitly charged seconds), not model time;
//! * `compute()` records statistics only — on a real transport the caller
//!   performs the reduction work for real, so charging model time on top
//!   would double-count it;
//! * `isend` equals `send` (channel injection never blocks);
//! * the [`CostModel`] is retained purely as a *planning hint* for the
//!   adaptive algorithm selector (`Algorithm::Auto`), defaulting to the
//!   Aries-class model.

use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};

use crate::config::TransportConfig;
use crate::cost::CostModel;
use crate::error::CommError;
use crate::stats::CommStats;
use crate::transport::Transport;

/// A message in flight between rank threads.
#[derive(Debug, Clone)]
struct ThreadMsg {
    src: usize,
    tag: u64,
    payload: Bytes,
}

/// One rank's session in a real threaded communicator.
pub struct ThreadTransport {
    rank: usize,
    size: usize,
    senders: Vec<Sender<ThreadMsg>>,
    inbox: Receiver<ThreadMsg>,
    /// Out-of-order buffer for messages received before they were asked for.
    pending: HashMap<(usize, u64), VecDeque<ThreadMsg>>,
    epoch: Instant,
    /// Seconds added on top of elapsed wall time (charged work, clock floors).
    clock_offset: f64,
    /// Receive watchdog: every rank keeps a sender clone to every other
    /// rank, so a peer dying mid-collective can never disconnect our
    /// inbox — without a deadline a lost peer would hang `recv()` (and
    /// any CI run) forever instead of failing.
    recv_deadline: Duration,
    cost_hint: CostModel,
    op_counter: u64,
    stats: CommStats,
}

impl std::fmt::Debug for ThreadTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadTransport")
            .field("rank", &self.rank)
            .field("size", &self.size)
            .finish()
    }
}

impl ThreadTransport {
    /// Wires a fully connected `size`-rank communicator and returns one
    /// transport per rank (move each onto its own thread). Planning hint
    /// defaults to the Aries-class cost model, limits to
    /// [`TransportConfig::default`].
    pub fn connect(size: usize) -> Vec<ThreadTransport> {
        ThreadTransport::connect_with_hint(size, CostModel::aries())
    }

    /// [`ThreadTransport::connect`] with an explicit selector planning hint.
    pub fn connect_with_hint(size: usize, cost_hint: CostModel) -> Vec<ThreadTransport> {
        ThreadTransport::connect_with_config(size, cost_hint, TransportConfig::default())
    }

    /// [`ThreadTransport::connect`] with an explicit planning hint and
    /// watchdog configuration (the same [`TransportConfig`] the socket
    /// transport takes, so both real transports time out on one schedule).
    pub fn connect_with_config(
        size: usize,
        cost_hint: CostModel,
        config: TransportConfig,
    ) -> Vec<ThreadTransport> {
        assert!(size > 0, "communicator needs at least one rank");
        let mut txs = Vec::with_capacity(size);
        let mut rxs = Vec::with_capacity(size);
        for _ in 0..size {
            let (tx, rx) = unbounded::<ThreadMsg>();
            txs.push(tx);
            rxs.push(rx);
        }
        rxs.into_iter()
            .enumerate()
            .map(|(rank, inbox)| ThreadTransport {
                rank,
                size,
                senders: txs.clone(),
                inbox,
                pending: HashMap::new(),
                epoch: Instant::now(),
                clock_offset: 0.0,
                recv_deadline: config.recv_timeout,
                cost_hint,
                op_counter: 0,
                stats: CommStats::default(),
            })
            .collect()
    }

    /// Overrides the receive watchdog (default 30 s): how long `recv`
    /// waits for a matching message before concluding a peer is lost.
    pub fn set_recv_deadline(&mut self, deadline: Duration) {
        self.recv_deadline = deadline;
    }

    fn elapsed(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    fn next_inbox_msg(&self, waiting_on: usize) -> Result<ThreadMsg, CommError> {
        match self.inbox.recv_timeout(self.recv_deadline) {
            Ok(msg) => Ok(msg),
            Err(RecvTimeoutError::Timeout) => Err(CommError::Timeout {
                peer: waiting_on,
                waited: self.recv_deadline,
            }),
            Err(RecvTimeoutError::Disconnected) => {
                Err(CommError::PeerDisconnected { peer: waiting_on })
            }
        }
    }

    fn push_msg(&mut self, dst: usize, tag: u64, payload: Bytes) -> Result<(), CommError> {
        if dst >= self.size {
            return Err(CommError::InvalidRank {
                rank: dst,
                size: self.size,
            });
        }
        self.stats.msgs_sent += 1;
        self.stats.bytes_sent += payload.len() as u64;
        let msg = ThreadMsg {
            src: self.rank,
            tag,
            payload,
        };
        self.senders[dst]
            .send(msg)
            .map_err(|_| CommError::PeerDisconnected { peer: dst })
    }

    fn accept(&mut self, msg: ThreadMsg) -> Bytes {
        self.stats.msgs_recv += 1;
        self.stats.bytes_recv += msg.payload.len() as u64;
        msg.payload
    }
}

impl Transport for ThreadTransport {
    fn rank(&self) -> usize {
        self.rank
    }

    fn backend_name(&self) -> &'static str {
        "thread"
    }

    fn size(&self) -> usize {
        self.size
    }

    fn cost(&self) -> &CostModel {
        &self.cost_hint
    }

    fn clock(&self) -> f64 {
        self.elapsed() + self.clock_offset
    }

    fn advance_clock_to(&mut self, t: f64) {
        let now = self.clock();
        if t > now {
            self.clock_offset += t - now;
        }
    }

    fn charge_seconds(&mut self, seconds: f64) {
        self.clock_offset += seconds;
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
        self.epoch = Instant::now();
        self.clock_offset = 0.0;
        self.stats = CommStats::default();
    }

    fn send(&mut self, dst: usize, tag: u64, payload: Bytes) -> Result<(), CommError> {
        self.push_msg(dst, tag, payload)
    }

    fn isend(&mut self, dst: usize, tag: u64, payload: Bytes) -> Result<(), CommError> {
        self.push_msg(dst, tag, payload)
    }

    fn recv(&mut self, src: usize, tag: u64) -> Result<Bytes, CommError> {
        if src >= self.size {
            return Err(CommError::InvalidRank {
                rank: src,
                size: self.size,
            });
        }
        if let Some(queue) = self.pending.get_mut(&(src, tag)) {
            if let Some(msg) = queue.pop_front() {
                return Ok(self.accept(msg));
            }
        }
        loop {
            let msg = self.next_inbox_msg(src)?;
            if msg.src == src && msg.tag == tag {
                return Ok(self.accept(msg));
            }
            self.pending
                .entry((msg.src, msg.tag))
                .or_default()
                .push_back(msg);
        }
    }

    fn recv_any(&mut self, tag: u64) -> Result<(usize, Bytes), CommError> {
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
            let msg = self.next_inbox_msg(self.rank)?;
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

    fn detach(&mut self) -> ThreadTransport {
        std::mem::replace(self, standalone_thread_transport())
    }
}

/// Creates a disconnected single-rank thread transport — the placeholder
/// counterpart of [`crate::standalone_endpoint`].
pub fn standalone_thread_transport() -> ThreadTransport {
    ThreadTransport::connect_with_hint(1, CostModel::zero())
        .pop()
        .expect("single-rank communicator")
}

/// Runs `f` once per rank on `size` real concurrent threads and returns
/// the per-rank results, indexed by rank — the [`ThreadTransport`]
/// counterpart of [`crate::run_cluster`].
pub fn run_thread_cluster<R, F>(size: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(&mut ThreadTransport) -> R + Sync,
{
    let transports = ThreadTransport::connect(size);
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = transports
            .into_iter()
            .enumerate()
            .map(|(rank, mut tp)| {
                scope.spawn(move || {
                    let out = f(&mut tp);
                    (rank, out)
                })
            })
            .collect();
        let mut results: Vec<Option<R>> = (0..size).map(|_| None).collect();
        let mut panicked: Option<usize> = None;
        for (i, handle) in handles.into_iter().enumerate() {
            match handle.join() {
                Ok((rank, out)) => results[rank] = Some(out),
                Err(_) => panicked = panicked.or(Some(i)),
            }
        }
        if let Some(rank) = panicked {
            panic!("rank {rank} panicked inside run_thread_cluster");
        }
        results
            .into_iter()
            .map(|r| r.expect("all ranks returned"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    // The `Transport` contract itself is checked on this transport by the
    // workspace's `tests/transport_contract.rs`.

    #[test]
    fn connect_with_config_sets_watchdog() {
        let config = TransportConfig::default().with_recv_timeout(Duration::from_millis(20));
        let mut tps = ThreadTransport::connect_with_config(2, CostModel::zero(), config);
        let mut t0 = tps.remove(0);
        let start = Instant::now();
        let err = t0.recv(1, 0).unwrap_err();
        assert!(
            matches!(err, CommError::Timeout { peer: 1, .. }),
            "got {err:?}"
        );
        assert!(start.elapsed() < Duration::from_secs(5));
    }
}
