//! The one receive path: `(source, tag)` matching for every root transport.
//!
//! A link — the channel [`Mesh`] between rank threads, or a socket
//! transport's event loop — posts [`Event`]s into a rank's [`Mailbox`];
//! the transport's owning thread asks the mailbox for the message it
//! wants. Matching, the out-of-order buffer, rank-ordered `recv_any`, the
//! receive watchdog and the per-peer close registry live here and
//! nowhere else, so every
//! transport fails the same way: a peer whose link ended (it finished, was
//! dropped, or panicked) is [`CommError::PeerDisconnected`] once everything
//! it sent has been consumed; one that stays silent is
//! [`CommError::Timeout`] after `recv_timeout` of *wall* time, and the
//! session stays usable.
//!
//! A waiting receive takes events from the inbox channel first. Once it is
//! empty, the transport's [`Pull`] says where the next one comes from:
//! the in-process links block on the channel itself, while the socket
//! transport reads its peers' sockets on the receiving thread, so a frame
//! it reads that nobody asked for goes straight into the out-of-order
//! buffer without crossing the channel.
//!
//! The mailbox is generic over the message body `M` (the payload on the
//! wall-clock links, payload plus modelled arrival time on the virtual
//! one). It keeps no statistics and reads no clock but the watchdog's:
//! what a delivered message means for time and counters is the owning
//! transport's business.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::time::{Duration, Instant};

use crate::error::CommError;

/// What a link posts into a mailbox.
#[derive(Debug)]
pub(crate) enum Event<M> {
    /// A complete message arrived from `src`.
    Msg { src: usize, tag: u64, body: M },
    /// The link to `src` ended: its session finished or was dropped, or
    /// its socket closed or failed. Travels the same channel as the
    /// peer's data, so it is seen only after everything the link queued
    /// before it.
    Closed { src: usize, detail: String },
}

/// Where a waiting receive gets its next event once the inbox is empty.
pub(crate) trait Pull<M> {
    /// Waits at most `budget` for the next event and returns it, or `None`
    /// if none came; the receive then looks at the inbox, the close
    /// registry and the watchdog again before it pulls once more.
    fn pull(&mut self, inbox: &Receiver<Event<M>>, budget: Duration) -> Option<Event<M>>;
}

/// Every event travels the inbox channel: block on it.
pub(crate) struct Inbox;

impl<M> Pull<M> for Inbox {
    fn pull(&mut self, inbox: &Receiver<Event<M>>, budget: Duration) -> Option<Event<M>> {
        // Disconnection cannot happen: the mailbox holds a sender.
        inbox.recv_timeout(budget).ok()
    }
}

/// One rank's receive side: the inbox channel, the out-of-order buffer,
/// the watchdog and the per-peer close registry.
pub(crate) struct Mailbox<M> {
    rank: usize,
    size: usize,
    inbox: Receiver<Event<M>>,
    /// Hands out link senders; also keeps the inbox connected, so the
    /// close registry — not channel disconnection — is what ends a wait.
    loopback: Sender<Event<M>>,
    /// Messages received before they were asked for. Queues are removed
    /// when they empty, so the map holds only what is actually buffered.
    pending: HashMap<(usize, u64), VecDeque<M>>,
    /// Close reason per peer, once its link ended.
    closed: Vec<Option<String>>,
    /// Receive watchdog: how long one receive waits, in wall time.
    recv_timeout: Duration,
}

impl<M> Mailbox<M> {
    pub(crate) fn new(rank: usize, size: usize, recv_timeout: Duration) -> Mailbox<M> {
        let (loopback, inbox) = channel();
        Mailbox {
            rank,
            size,
            inbox,
            loopback,
            pending: HashMap::new(),
            closed: (0..size).map(|_| None).collect(),
            recv_timeout,
        }
    }

    /// A sender handle for a link to post into this mailbox.
    pub(crate) fn sender(&self) -> Sender<Event<M>> {
        self.loopback.clone()
    }

    /// Queues a message from this rank to itself.
    pub(crate) fn push_self(&self, tag: u64, body: M) {
        let src = self.rank;
        // Cannot fail: this mailbox holds the receiving end.
        let _ = self.loopback.send(Event::Msg { src, tag, body });
    }

    /// Overrides the receive watchdog.
    pub(crate) fn set_recv_timeout(&mut self, recv_timeout: Duration) {
        self.recv_timeout = recv_timeout;
    }

    /// Why the link to `peer` ended, once it has.
    pub(crate) fn close_reason(&self, peer: usize) -> Option<&str> {
        self.closed.get(peer).and_then(|c| c.as_deref())
    }

    /// Receives the next message from `src` with `tag`.
    pub(crate) fn recv(&mut self, src: usize, tag: u64) -> Result<M, CommError> {
        self.recv_with(src, tag, || Inbox)
    }

    /// [`Mailbox::recv`], pulling from the link `link()` returns once the
    /// buffer holds no match: the buffer is looked at before the link is
    /// opened.
    pub(crate) fn recv_with<L: Pull<M>>(
        &mut self,
        src: usize,
        tag: u64,
        link: impl FnOnce() -> L,
    ) -> Result<M, CommError> {
        if src >= self.size {
            return Err(CommError::InvalidRank {
                rank: src,
                size: self.size,
            });
        }
        match self.take_pending(src, tag) {
            Some(body) => Ok(body),
            None => self
                .wait_for(Some(src), tag, &mut link())
                .map(|(_, body)| body),
        }
    }

    /// Receives one message carrying `tag` from any source — buffered
    /// messages first, lowest rank first for determinism.
    pub(crate) fn recv_any(&mut self, tag: u64) -> Result<(usize, M), CommError> {
        self.recv_any_with(tag, || Inbox)
    }

    /// [`Mailbox::recv_any`] pulling from `link()` (see
    /// [`Mailbox::recv_with`]).
    pub(crate) fn recv_any_with<L: Pull<M>>(
        &mut self,
        tag: u64,
        link: impl FnOnce() -> L,
    ) -> Result<(usize, M), CommError> {
        let buffered = self
            .pending
            .keys()
            .filter(|&&(_, t)| t == tag)
            .map(|&(src, _)| src)
            .min();
        if let Some(src) = buffered {
            let body = self.take_pending(src, tag).expect("queues are non-empty");
            return Ok((src, body));
        }
        self.wait_for(None, tag, &mut link())
    }

    fn take_pending(&mut self, src: usize, tag: u64) -> Option<M> {
        let Entry::Occupied(mut queue) = self.pending.entry((src, tag)) else {
            return None;
        };
        let body = queue.get_mut().pop_front();
        if queue.get().is_empty() {
            queue.remove();
        }
        body
    }

    /// Takes events from the inbox, then from `link`, until a message with
    /// `tag` from `from` (any source if `None`) shows up, buffering
    /// everything else, for at most `recv_timeout`.
    fn wait_for(
        &mut self,
        from: Option<usize>,
        tag: u64,
        link: &mut impl Pull<M>,
    ) -> Result<(usize, M), CommError> {
        // The watchdog starts at the first wait: a message that is already
        // queued costs no clock read.
        let mut started = None;
        let waiting_on = from.unwrap_or(self.rank);
        loop {
            // Everything already queued (self-sends included) is looked at
            // before concluding from `closed` that nothing more can come.
            let event = match self.inbox.try_recv().ok() {
                Some(event) => event,
                None => {
                    if let Some(peer) = self.lost(from) {
                        return Err(CommError::PeerDisconnected { peer });
                    }
                    let started = *started.get_or_insert_with(Instant::now);
                    let waited = started.elapsed();
                    if waited >= self.recv_timeout {
                        return Err(CommError::Timeout {
                            peer: waiting_on,
                            waited,
                        });
                    }
                    match link.pull(&self.inbox, self.recv_timeout - waited) {
                        Some(event) => event,
                        None => continue,
                    }
                }
            };
            match event {
                Event::Msg { src, tag: t, body } => {
                    if t == tag && from.is_none_or(|want| want == src) {
                        return Ok((src, body));
                    }
                    self.pending.entry((src, t)).or_default().push_back(body);
                }
                Event::Closed { src, detail } => {
                    self.closed[src].get_or_insert(detail);
                }
            }
        }
    }

    /// The peer whose ended link means a wait on `from` can never be
    /// answered: `from` itself, or — waiting on anyone — the first other
    /// rank once every other rank is gone.
    fn lost(&self, from: Option<usize>) -> Option<usize> {
        let gone = |r: usize| self.closed[r].is_some();
        match from {
            Some(src) => gone(src).then_some(src),
            None => {
                let mut others = (0..self.size).filter(|&r| r != self.rank);
                let first = others.next()?;
                (gone(first) && others.all(gone)).then_some(first)
            }
        }
    }
}

/// The in-process link: a sender into every rank's mailbox (its own
/// included, for self-sends). Dropping it — the rank program returned,
/// the session was dropped, the thread unwound from a panic — posts
/// [`Event::Closed`] to every peer through the same channel as its data,
/// as a socket's FIN does.
pub(crate) struct Mesh<M> {
    pub(crate) rank: usize,
    peers: Vec<Sender<Event<M>>>,
}

impl<M> Mesh<M> {
    /// Wires `size` ranks all-to-all and returns each rank's link and
    /// mailbox, in rank order.
    pub(crate) fn connect(size: usize, recv_timeout: Duration) -> Vec<(Mesh<M>, Mailbox<M>)> {
        assert!(size > 0, "communicator needs at least one rank");
        let mailboxes: Vec<Mailbox<M>> = (0..size)
            .map(|rank| Mailbox::new(rank, size, recv_timeout))
            .collect();
        let peers: Vec<_> = mailboxes.iter().map(Mailbox::sender).collect();
        mailboxes
            .into_iter()
            .enumerate()
            .map(|(rank, mailbox)| {
                let peers = peers.clone();
                (Mesh { rank, peers }, mailbox)
            })
            .collect()
    }

    /// Communicator size `P`.
    pub(crate) fn size(&self) -> usize {
        self.peers.len()
    }

    /// Posts one message into `dst`'s mailbox.
    pub(crate) fn send(&self, dst: usize, tag: u64, body: M) -> Result<(), CommError> {
        let size = self.size();
        let peer = self
            .peers
            .get(dst)
            .ok_or(CommError::InvalidRank { rank: dst, size })?;
        let src = self.rank;
        peer.send(Event::Msg { src, tag, body })
            .map_err(|_| CommError::PeerDisconnected { peer: dst })
    }
}

impl<M> Drop for Mesh<M> {
    fn drop(&mut self) {
        for (peer, tx) in self.peers.iter().enumerate() {
            if peer != self.rank {
                // A peer that is already gone has nobody left to tell.
                let _ = tx.send(Event::Closed {
                    src: self.rank,
                    detail: "peer session ended".into(),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHORT: Duration = Duration::from_millis(20);

    #[test]
    fn buffered_messages_outlive_the_link_that_sent_them() {
        let mut ranks = Mesh::<u8>::connect(2, SHORT);
        let (mesh1, _mailbox1) = ranks.pop().unwrap();
        let (_mesh0, mut mailbox0) = ranks.pop().unwrap();
        mesh1.send(0, 7, 1).unwrap();
        mesh1.send(0, 8, 2).unwrap();
        drop(mesh1);
        // Asked for out of order, after the sender is gone: both arrive,
        // and only then does the close count.
        assert_eq!(mailbox0.recv(1, 8), Ok(2));
        assert_eq!(mailbox0.recv(1, 7), Ok(1));
        assert_eq!(
            mailbox0.recv(1, 7),
            Err(CommError::PeerDisconnected { peer: 1 })
        );
        assert_eq!(mailbox0.close_reason(1), Some("peer session ended"));
        assert!(mailbox0.pending.is_empty(), "drained queues are removed");
    }

    #[test]
    fn recv_any_fails_only_once_every_other_rank_is_gone() {
        let mut ranks = Mesh::<u8>::connect(3, SHORT);
        let (mesh2, _mailbox2) = ranks.pop().unwrap();
        let (mesh1, _mailbox1) = ranks.pop().unwrap();
        let (mesh0, mut mailbox0) = ranks.pop().unwrap();
        drop(mesh1);
        assert!(matches!(
            mailbox0.recv_any(5),
            Err(CommError::Timeout { peer: 0, .. })
        ));
        drop(mesh2);
        // A self-send still queued is delivered before the verdict.
        mesh0.send(0, 5, 9).unwrap();
        assert_eq!(mailbox0.recv_any(5), Ok((0, 9)));
        assert_eq!(
            mailbox0.recv_any(5),
            Err(CommError::PeerDisconnected { peer: 1 })
        );
    }
}
