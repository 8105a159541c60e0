//! The tag-matched delivery front-end of the socket transport.
//!
//! [`crate::ReactorTransport`]'s event loop feeds completed frames and
//! close notices into a single channel, and the transport's owning thread
//! matches them against `(source, tag)` receive requests with
//! ThreadTransport-identical semantics. [`Mailbox`] is that front-end:
//! the matching, buffering, watchdog, and failure rules, kept apart from
//! the socket I/O.

use std::collections::{HashMap, VecDeque};
use std::time::Instant;

use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};

use crate::error::CommError;
use crate::stats::CommStats;

/// What transport I/O code feeds into the mailbox channel.
#[derive(Debug)]
pub(crate) enum Event {
    /// A complete data frame arrived from `src`.
    Msg {
        /// Source rank.
        src: usize,
        /// Message tag.
        tag: u64,
        /// Frame payload.
        payload: Bytes,
    },
    /// The connection to `src` is unusable (clean close, mid-frame close,
    /// oversized declaration, or an I/O error on either direction).
    Closed {
        /// Rank whose connection ended.
        src: usize,
        /// Human-readable close reason.
        detail: String,
    },
}

/// One rank's receive side: the inbox channel, the out-of-order buffer,
/// and the per-peer close registry.
pub(crate) struct Mailbox {
    rank: usize,
    size: usize,
    inbox: Receiver<Event>,
    /// Loopback sender: self-sends, and it keeps the inbox connected.
    loopback: Sender<Event>,
    /// Out-of-order buffer for messages received before they were asked
    /// for, keyed `(src, tag)` — identical matching semantics to
    /// [`crate::ThreadTransport`].
    pending: HashMap<(usize, u64), VecDeque<Bytes>>,
    /// Close reason per peer, once its connection ended.
    closed: Vec<Option<String>>,
}

impl Mailbox {
    pub(crate) fn new(rank: usize, size: usize) -> Mailbox {
        let (loopback, inbox) = unbounded::<Event>();
        Mailbox {
            rank,
            size,
            inbox,
            loopback,
            pending: HashMap::new(),
            closed: vec![None; size],
        }
    }

    /// A sender handle for the event loop.
    pub(crate) fn sender(&self) -> Sender<Event> {
        self.loopback.clone()
    }

    /// Queues a self-send directly into the inbox.
    pub(crate) fn push_self(&self, tag: u64, payload: Bytes) -> Result<(), CommError> {
        let src = self.rank;
        self.loopback
            .send(Event::Msg { src, tag, payload })
            .map_err(|_| CommError::PeerDisconnected { peer: src })
    }

    /// Why the connection to `peer` ended, once it has.
    pub(crate) fn close_reason(&self, peer: usize) -> Option<&str> {
        self.closed.get(peer).and_then(|c| c.as_deref())
    }

    fn accept(stats: &mut CommStats, payload: Bytes) -> Bytes {
        stats.msgs_recv += 1;
        stats.bytes_recv += payload.len() as u64;
        payload
    }

    /// Blocks for the next inbox event, bounded by the remaining watchdog
    /// budget (measured from `started`, when the receive began).
    fn next_event(
        &self,
        started: Instant,
        deadline: Instant,
        waiting_on: usize,
    ) -> Result<Event, CommError> {
        let budget = deadline.saturating_duration_since(Instant::now());
        match self.inbox.recv_timeout(budget) {
            Ok(event) => Ok(event),
            Err(RecvTimeoutError::Timeout) => Err(CommError::Timeout {
                peer: waiting_on,
                waited: started.elapsed(),
            }),
            // Unreachable in practice: we hold a loopback sender.
            Err(RecvTimeoutError::Disconnected) => {
                Err(CommError::PeerDisconnected { peer: waiting_on })
            }
        }
    }

    /// Records one inbox event: close notices update `closed`, messages
    /// carrying `tag` are returned, everything else is buffered into
    /// `pending` for later matching.
    fn note_event(
        &mut self,
        event: Event,
        tag: u64,
        stats: &mut CommStats,
    ) -> Option<(usize, Bytes)> {
        match event {
            Event::Msg {
                src,
                tag: t,
                payload,
            } => {
                if t == tag {
                    return Some((src, Mailbox::accept(stats, payload)));
                }
                self.pending.entry((src, t)).or_default().push_back(payload);
            }
            Event::Closed { src, detail } => {
                if self.closed[src].is_none() {
                    self.closed[src] = Some(detail);
                }
            }
        }
        None
    }

    /// Receives the next message from `src` with `tag`, waiting up to the
    /// watchdog `deadline` measured from now.
    pub(crate) fn recv(
        &mut self,
        src: usize,
        tag: u64,
        recv_timeout: std::time::Duration,
        stats: &mut CommStats,
    ) -> Result<Bytes, CommError> {
        if src >= self.size {
            return Err(CommError::InvalidRank {
                rank: src,
                size: self.size,
            });
        }
        if let Some(queue) = self.pending.get_mut(&(src, tag)) {
            if let Some(payload) = queue.pop_front() {
                return Ok(Mailbox::accept(stats, payload));
            }
        }
        if self.closed[src].is_some() {
            // Everything the peer ever sent was already drained into
            // `pending`; nothing matched, and nothing more can arrive.
            return Err(CommError::PeerDisconnected { peer: src });
        }
        let started = Instant::now();
        let deadline = started + recv_timeout;
        loop {
            match self.next_event(started, deadline, src)? {
                Event::Msg {
                    src: s,
                    tag: t,
                    payload,
                } => {
                    if s == src && t == tag {
                        return Ok(Mailbox::accept(stats, payload));
                    }
                    self.pending.entry((s, t)).or_default().push_back(payload);
                }
                Event::Closed { src: s, detail } => {
                    if self.closed[s].is_none() {
                        self.closed[s] = Some(detail);
                    }
                    if s == src {
                        return Err(CommError::PeerDisconnected { peer: src });
                    }
                }
            }
        }
    }

    /// Receives one message carrying `tag` from any source — buffered
    /// messages first, in rank order for determinism.
    pub(crate) fn recv_any(
        &mut self,
        tag: u64,
        recv_timeout: std::time::Duration,
        stats: &mut CommStats,
    ) -> Result<(usize, Bytes), CommError> {
        let mut buffered: Option<usize> = None;
        for (&(src, t), queue) in self.pending.iter() {
            if t == tag && !queue.is_empty() && buffered.is_none_or(|best| src < best) {
                buffered = Some(src);
            }
        }
        if let Some(src) = buffered {
            let payload = self
                .pending
                .get_mut(&(src, tag))
                .and_then(|q| q.pop_front())
                .expect("non-empty");
            return Ok((src, Mailbox::accept(stats, payload)));
        }
        let started = Instant::now();
        let deadline = started + recv_timeout;
        loop {
            // Drain everything already queued (including self-sends)
            // before concluding from `closed` that nothing can arrive.
            while let Some(event) = self.inbox.try_recv() {
                if let Some(found) = self.note_event(event, tag, stats) {
                    return Ok(found);
                }
            }
            if self.size > 1 && (0..self.size).all(|r| r == self.rank || self.closed[r].is_some()) {
                let peer = (0..self.size).find(|&r| r != self.rank).expect("size > 1");
                return Err(CommError::PeerDisconnected { peer });
            }
            let event = self.next_event(started, deadline, self.rank)?;
            if let Some(found) = self.note_event(event, tag, stats) {
                return Ok(found);
            }
        }
    }
}
