//! The socket transport: rendezvous, framing, full-mesh point-to-point
//! messaging driven by the calling thread, with one event loop per rank
//! for background work.
//!
//! [`ReactorTransport`] is the [`Transport`] implementor whose messages
//! leave the process: every pair of ranks holds one persistent TCP
//! connection, and the wire-v4 stream frames produced by the collectives
//! travel over it without intermediate copies. The moving parts:
//!
//! * **Rendezvous** — rank 0 listens on a well-known address; every other
//!   rank dials it, announces `(rank, mesh_addr)` in a validated hello
//!   frame (protocol magic + version + cluster size), and receives the
//!   full `(rank → addr)` table back. The mesh is then built
//!   *deterministically*: each rank dials every lower rank and accepts
//!   one connection from every higher rank, with an ID frame resolving
//!   accept-order races (see `bootstrap.rs`).
//! * **Framing** — data messages are length-prefixed
//!   (`[len: u32][tag: u64][payload]`, see [`crate::framing`]).
//! * **Writes** — a send makes one nonblocking vectored write of the
//!   12-byte header next to the payload (no staging copy) on the caller's
//!   thread, whenever the peer has nothing queued or parked. What the
//!   socket does not take is parked at its offset under the per-peer
//!   outbox lock, which orders every write to that socket; later sends
//!   queue behind it, and the loop is woken once to finish them under
//!   `EPOLLOUT`. So `send`/`isend` never block the schedule and
//!   simultaneous multi-megabyte exchanges interleave instead of
//!   deadlocking.
//! * **Reads** — a receive looks at the [`Mailbox`] first. Then, holding
//!   the peer's read lock, it takes in what the loop already queued and
//!   reads the socket on its own thread: incremental header/payload
//!   reassembly (shared with the loop, so a partial frame carries over
//!   whoever reads next), payloads in buffers recycled through a frame
//!   pool, frames that do not match straight into the mailbox's buffer.
//!   With nothing to read it blocks in `poll(2)` on that socket for the
//!   rest of the watchdog; `recv_any` does the same over every peer.
//! * **The loop** — one epoll thread that wakes only for parked writes
//!   (`EPOLLOUT`), peer hang-ups, shutdown (FIN after a flush), and every
//!   100 ms on its own. That timed wake drains the sockets no caller is
//!   reading — so a rank busy computing still takes in its peers' frames
//!   and their writes keep moving — and runs the write-stall watchdog.
//! * **Failure model** — a peer closing its socket (cleanly or mid-frame)
//!   surfaces as [`CommError::PeerDisconnected`], whichever thread read
//!   the end; silence beyond the configured watchdog surfaces as
//!   [`CommError::Timeout`]; handshake inconsistencies surface as
//!   [`CommError::HandshakeMismatch`]; a peer that stops reading trips a
//!   write-stall watchdog on the `recv_timeout` schedule. A dead peer
//!   fails a collective loudly instead of hanging it.
//!
//! A P-rank single-host run needs 2 threads per rank (the rank's own and
//! the loop) whatever P is, which is what makes the P=64 loopback smoke
//! test feasible. The transport exports its counters (`wakeups` of the
//! loop, `partial_writes`, and `read_batch_frames` from callers and loop
//! alike) into [`CommStats`].
//!
//! Bootstrap is either programmatic ([`ReactorTransport::rendezvous`],
//! [`run_reactor_loopback_cluster`] for in-process loopback clusters) or
//! via environment variables ([`ReactorTransport::from_env`] reading
//! `SPARCML_RANK` / `SPARCML_WORLD` / `SPARCML_ROOT_ADDR`), which is what
//! the [`crate::launcher`] sets for spawned rank subprocesses and what a
//! manual multi-machine run exports by hand. Linux only: the loop is
//! epoll plus an eventfd, and a blocked receive uses `poll(2)`.

use std::collections::VecDeque;
use std::io::{self, IoSlice, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use epoll::{Events, Interest, PollFd, Poller, Waker};
use sparcml_obs as obs;

use crate::bootstrap::{self, RootRendezvous, ENV_RANK, ENV_ROOT_ADDR, ENV_WORLD};
use crate::clock::WallClock;
use crate::cluster::run_ranks;
use crate::config::TransportConfig;
use crate::cost::CostModel;
use crate::error::CommError;
use crate::framing::{self, DATA_HEADER_LEN};
use crate::mailbox::{Event, Mailbox, Pull};
use crate::pool::FramePool;
use crate::stats::CommStats;
use crate::transport::Transport;

/// Poller token reserved for the eventfd waker (peer tokens are ranks,
/// which never reach `u64::MAX`).
const WAKER_TOKEN: u64 = u64::MAX;

/// How often the loop wakes on its own: to drain the sockets no caller is
/// reading and to run the write-stall watchdog (a peer that stopped
/// reading generates no readiness).
const STALL_POLL: Duration = Duration::from_millis(100);

/// Readiness events one `epoll_wait` may return.
const MAX_EVENTS: usize = 64;

/// Frames drained from one peer's outbox per visit before the loop moves
/// on to the next peer, so one chatty peer cannot starve the rest.
const WRITE_BATCH_FRAMES: usize = 16;

/// A frame on its way to a peer, parked at `done` bytes whenever the
/// socket pushes back.
struct OutFrame {
    header: [u8; DATA_HEADER_LEN],
    payload: Bytes,
    done: usize,
}

impl OutFrame {
    fn new(tag: u64, payload: Bytes) -> OutFrame {
        OutFrame {
            header: framing::data_header(payload.len(), tag),
            payload,
            done: 0,
        }
    }

    /// What is still to be written: the header's tail and the payload's.
    fn rest(&self) -> (&[u8], &[u8]) {
        let header = &self.header[self.done.min(DATA_HEADER_LEN)..];
        let payload = &self.payload[self.done.saturating_sub(DATA_HEADER_LEN)..];
        (header, payload)
    }

    /// Writes on from `done` until the whole frame is out (`Ok(true)`) or
    /// the nonblocking socket pushes back (`Ok(false)`); header and
    /// payload go out in one vectored write, without a staging copy.
    fn write_to(&mut self, stream: &TcpStream, partial_writes: &AtomicU64) -> io::Result<bool> {
        let total = DATA_HEADER_LEN + self.payload.len();
        let mut stream = stream;
        while self.done < total {
            let (header, payload) = self.rest();
            match stream.write_vectored(&[IoSlice::new(header), IoSlice::new(payload)]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ))
                }
                Ok(n) => {
                    self.done += n;
                    if self.done < total {
                        partial_writes.fetch_add(1, Ordering::Relaxed);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }
}

/// What a peer has yet to be sent, in order: the parked partial frame,
/// then the queue. A sender writes straight to the socket only while
/// both are empty; otherwise its frame queues behind them for the loop.
#[derive(Default)]
struct Outbox {
    parked: Option<OutFrame>,
    queue: VecDeque<(u64, Bytes)>,
}

impl Outbox {
    fn is_empty(&self) -> bool {
        self.parked.is_none() && self.queue.is_empty()
    }
}

/// Incremental reassembly of one peer's incoming frames, carried across
/// reads by whichever thread reads that socket next: a receiving caller
/// or the loop's drain.
struct ReadState {
    header: [u8; DATA_HEADER_LEN],
    header_filled: usize,
    payload: Vec<u8>,
    payload_filled: usize,
    tag: u64,
    in_payload: bool,
}

impl ReadState {
    fn new() -> ReadState {
        ReadState {
            header: [0u8; DATA_HEADER_LEN],
            header_filled: 0,
            payload: Vec::new(),
            payload_filled: 0,
            tag: 0,
            in_payload: false,
        }
    }

    /// Reads on from where the last reader stopped: `Ok(Some((tag,
    /// payload)))` once a frame is complete, `Ok(None)` when the socket
    /// has nothing more for now, `Err(reason)` when the link ended (clean
    /// close, mid-frame close, oversized declaration, I/O error).
    fn next_frame(
        &mut self,
        stream: &TcpStream,
        pool: &FramePool,
        max_frame_len: usize,
    ) -> Result<Option<(u64, Bytes)>, String> {
        let mut stream = stream;
        if !self.in_payload {
            while self.header_filled < DATA_HEADER_LEN {
                match stream.read(&mut self.header[self.header_filled..]) {
                    Ok(0) => return Err("peer closed the connection".into()),
                    Ok(n) => self.header_filled += n,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(None),
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(format!("read failed: {e}")),
                }
            }
            let (len, tag) = framing::parse_data_header(&self.header, max_frame_len)
                .map_err(|e| e.to_string())?;
            self.tag = tag;
            self.payload = pool.acquire(len);
            self.payload_filled = 0;
            self.in_payload = true;
        }
        while self.payload_filled < self.payload.len() {
            match stream.read(&mut self.payload[self.payload_filled..]) {
                Ok(0) => {
                    return Err(format!(
                        "peer closed mid-frame (expected {} payload bytes)",
                        self.payload.len()
                    ))
                }
                Ok(n) => self.payload_filled += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(None),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("read failed mid-frame: {e}")),
            }
        }
        self.in_payload = false;
        self.header_filled = 0;
        self.payload_filled = 0;
        Ok(Some((
            self.tag,
            Bytes::from(std::mem::take(&mut self.payload)),
        )))
    }
}

/// One peer's connection, shared by the owning transport and the loop.
struct Peer {
    stream: TcpStream,
    /// Held across every write to the socket, so frames keep their order
    /// whichever thread writes them.
    out: Mutex<Outbox>,
    /// Held across every read from the socket; a caller blocked on this
    /// peer holds it for its whole wait.
    read: Mutex<ReadState>,
    /// Set once the link failed, so later sends fail fast and readers
    /// leave the socket alone.
    dead: AtomicBool,
}

/// State shared between the owning transport and the loop thread.
struct Shared {
    poller: Poller,
    waker: Waker,
    /// Per-peer connections; `None` at our own index.
    peers: Vec<Option<Peer>>,
    /// The mailbox's inbox: frames the loop drained, and close notices.
    inbox: Sender<Event<Bytes>>,
    pool: FramePool,
    max_frame_len: usize,
    /// Orderly-teardown request: flush outboxes, FIN, exit.
    shutdown: AtomicBool,
    /// Parked-write wakeup coalescing: set (with a wake) by the first
    /// sender to park a frame after the loop last looked, left alone by
    /// the rest.
    dirty: AtomicBool,
    /// Times the loop returned from `epoll_wait`.
    wakeups: AtomicU64,
    /// Write syscalls that moved fewer bytes than requested.
    partial_writes: AtomicU64,
    /// Complete frames read off the sockets, by callers and loop alike.
    read_batch_frames: AtomicU64,
}

impl Shared {
    fn peer(&self, rank: usize) -> &Peer {
        self.peers[rank].as_ref().expect("non-self peer")
    }

    /// Ends the link to `peer`, once, from whichever thread saw it fail:
    /// later sends fail fast, queued frames drop, the socket leaves the
    /// poller and is shut down, and the mailbox learns why — after every
    /// frame the loop already queued from that peer.
    fn fail_peer(&self, peer: usize, detail: String) {
        let Some(p) = self.peers[peer].as_ref() else {
            return;
        };
        if p.dead.swap(true, Ordering::AcqRel) {
            return;
        }
        *p.out.lock().expect("outbox lock") = Outbox::default();
        let _ = self.poller.remove(raw_fd(&p.stream));
        // Queued before the shutdown, so a reader it wakes finds the
        // reason waiting.
        let _ = self.inbox.send(Event::Closed { src: peer, detail });
        let _ = p.stream.shutdown(Shutdown::Both);
    }

    /// Asks the loop to take over the parked frames.
    fn wake_for_writes(&self) -> Result<(), CommError> {
        if self.dirty.swap(true, Ordering::AcqRel) {
            return Ok(());
        }
        self.waker
            .wake()
            .map_err(|e| CommError::Io(format!("reactor wake failed: {e}")))
    }

    /// Every peer's read lock, in rank order: a receive from any source
    /// reads all of them.
    fn lock_all_reads(&self) -> Vec<(usize, MutexGuard<'_, ReadState>)> {
        self.peers
            .iter()
            .enumerate()
            .filter_map(|(rank, p)| {
                p.as_ref()
                    .map(|p| (rank, p.read.lock().expect("read lock")))
            })
            .collect()
    }
}

/// The owning side's handle to the loop thread.
struct ReactorHandle {
    shared: Arc<Shared>,
    thread: Option<JoinHandle<()>>,
}

impl Drop for ReactorHandle {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        let _ = self.shared.waker.wake();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

fn raw_fd(stream: &TcpStream) -> epoll::RawFd {
    #[cfg(unix)]
    {
        use std::os::unix::io::AsRawFd;
        stream.as_raw_fd()
    }
    #[cfg(not(unix))]
    {
        let _ = stream;
        -1
    }
}

/// The peers a blocked receive reads itself, each held under its read
/// lock for the whole wait, so the loop's drain stays off them and what it
/// queued earlier is taken in before anything read here.
struct Readers<'a, G> {
    shared: &'a Shared,
    held: G,
}

impl<'a, G> Pull<Bytes> for Readers<'a, G>
where
    G: AsMut<[(usize, MutexGuard<'a, ReadState>)]>,
{
    fn pull(&mut self, _inbox: &Receiver<Event<Bytes>>, budget: Duration) -> Option<Event<Bytes>> {
        let shared = self.shared;
        let held = self.held.as_mut();
        let mut live = 0;
        for (src, state) in held.iter_mut() {
            let peer = shared.peer(*src);
            if peer.dead.load(Ordering::Acquire) {
                continue;
            }
            live += 1;
            match state.next_frame(&peer.stream, &shared.pool, shared.max_frame_len) {
                Ok(Some((tag, body))) => {
                    shared.read_batch_frames.fetch_add(1, Ordering::Relaxed);
                    return Some(Event::Msg {
                        src: *src,
                        tag,
                        body,
                    });
                }
                Ok(None) => {}
                Err(detail) => {
                    // The close notice goes through the inbox, which the
                    // receive looks at next.
                    shared.fail_peer(*src, detail);
                    return None;
                }
            }
        }
        if live == 0 {
            // Every peer here failed; its close notice is on its way.
            std::thread::yield_now();
            return None;
        }
        let _wait = obs::span(obs::Category::Reactor, "poll");
        let fd = |(src, _): &(usize, MutexGuard<'a, ReadState>)| {
            let peer = shared.peer(*src);
            // poll(2) skips negative descriptors.
            PollFd::readable(if peer.dead.load(Ordering::Acquire) {
                -1
            } else {
                raw_fd(&peer.stream)
            })
        };
        // Nothing readable, or a wakeup that was not: either way the
        // receive looks around again before it pulls once more.
        let _ = match held {
            [one] => epoll::poll(&mut [fd(one)], Some(budget)),
            many => epoll::poll(&mut many.iter().map(fd).collect::<Vec<_>>(), Some(budget)),
        };
        None
    }
}

/// What the loop thread owns besides the shared state: the write-interest
/// and write-stall bookkeeping.
struct LoopCtx {
    shared: Arc<Shared>,
    /// Whether `EPOLLOUT` interest is registered, per peer.
    want_write: Vec<bool>,
    /// Set while writes are pending with zero progress; feeds the
    /// write-stall watchdog.
    stalled_since: Vec<Option<Instant>>,
    /// How long pending writes may make no progress.
    stall_timeout: Duration,
}

impl LoopCtx {
    fn run(mut self) {
        let mut events = Events::with_capacity(MAX_EVENTS);
        let mut next_drain = Instant::now() + STALL_POLL;
        loop {
            let timeout = next_drain.saturating_duration_since(Instant::now());
            if let Err(e) = self.shared.poller.wait(&mut events, Some(timeout)) {
                let detail = format!("event loop poll failed: {e}");
                for peer in 0..self.shared.peers.len() {
                    self.shared.fail_peer(peer, detail.clone());
                }
                return;
            }
            let wakeups = self.shared.wakeups.fetch_add(1, Ordering::Relaxed) + 1;
            // Phase span per loop iteration, annotated with the running
            // wakeup count; compiles down to one flag check when no
            // recorder is installed.
            let _loop_span = obs::span_with(obs::Category::Reactor, "wakeup", wakeups);
            for ev in events.iter() {
                if ev.token == WAKER_TOKEN {
                    self.shared.waker.drain();
                    continue;
                }
                let peer = ev.token as usize;
                if ev.closed {
                    self.drain_reads(peer);
                }
                if ev.writable {
                    self.drain_writes(peer);
                }
            }
            if self.shared.shutdown.load(Ordering::Acquire) {
                self.flush_and_fin();
                return;
            }
            if self.shared.dirty.swap(false, Ordering::AcqRel) {
                // Senders parked frames since the last look; take over
                // every peer with work (this arms EPOLLOUT where the
                // socket still pushes back).
                for peer in 0..self.shared.peers.len() {
                    self.drain_writes(peer);
                }
            }
            if Instant::now() >= next_drain {
                // Background progress: frames for a rank that is busy
                // elsewhere leave the kernel buffers, so its peers'
                // writes keep moving.
                for peer in 0..self.shared.peers.len() {
                    self.drain_reads(peer);
                }
                self.check_stalls();
                next_drain = Instant::now() + STALL_POLL;
            }
        }
    }

    /// Moves every complete frame `peer`'s socket holds into the inbox,
    /// unless a caller is reading that socket itself.
    fn drain_reads(&self, peer: usize) {
        let shared = &*self.shared;
        let Some(p) = shared.peers[peer].as_ref() else {
            return;
        };
        if p.dead.load(Ordering::Acquire) {
            return;
        }
        let Ok(mut state) = p.read.try_lock() else {
            return;
        };
        let mut read_span = obs::span(obs::Category::Reactor, "drain-reads");
        let mut frames = 0u64;
        let failure = loop {
            match state.next_frame(&p.stream, &shared.pool, shared.max_frame_len) {
                Ok(Some((tag, body))) => {
                    frames += 1;
                    // Counted before delivery, so a receiver never sees
                    // the frame ahead of its count.
                    shared.read_batch_frames.fetch_add(1, Ordering::Relaxed);
                    let msg = Event::Msg {
                        src: peer,
                        tag,
                        body,
                    };
                    if shared.inbox.send(msg).is_err() {
                        // Transport gone; nothing left to deliver to.
                        break None;
                    }
                }
                Ok(None) => break None,
                Err(detail) => break Some(detail),
            }
        };
        read_span.set_arg(frames);
        if let Some(detail) = failure {
            // Still under the read lock: the close notice lands behind
            // every frame drained above.
            shared.fail_peer(peer, detail);
        }
    }

    /// Writes as much of `peer`'s outbox as the socket accepts: finishes
    /// the parked partial frame, then up to [`WRITE_BATCH_FRAMES`] queued
    /// ones. Arms or disarms `EPOLLOUT` interest to match whether anything
    /// remains.
    fn drain_writes(&mut self, peer: usize) {
        let shared = &*self.shared;
        let Some(p) = shared.peers[peer].as_ref() else {
            return;
        };
        if p.dead.load(Ordering::Acquire) {
            return;
        }
        let mut out = p.out.lock().expect("outbox lock");
        if out.is_empty() && !self.want_write[peer] {
            return;
        }
        let mut write_span = obs::span(obs::Category::Reactor, "drain-writes");
        let mut budget = WRITE_BATCH_FRAMES;
        let mut progressed = false;
        let mut blocked = false;
        let mut failure = None;
        loop {
            if out.parked.is_none() {
                if budget == 0 {
                    break;
                }
                let Some((tag, payload)) = out.queue.pop_front() else {
                    break;
                };
                out.parked = Some(OutFrame::new(tag, payload));
                budget -= 1;
            }
            let frame = out.parked.as_mut().expect("frame present");
            let before = frame.done;
            let result = frame.write_to(&p.stream, &shared.partial_writes);
            progressed |= frame.done > before;
            match result {
                Ok(true) => {
                    let frame = out.parked.take().expect("frame present");
                    shared.pool.reclaim(frame.payload);
                }
                Ok(false) => {
                    blocked = true;
                    break;
                }
                Err(e) => {
                    failure = Some(format!("send failed: {e}"));
                    break;
                }
            }
        }
        let pending = !out.is_empty();
        drop(out);
        write_span.set_arg(shared.partial_writes.load(Ordering::Relaxed));
        if let Some(detail) = failure {
            shared.fail_peer(peer, detail);
            return;
        }
        if progressed || !pending {
            self.stalled_since[peer] = None;
        } else if blocked && self.stalled_since[peer].is_none() {
            self.stalled_since[peer] = Some(Instant::now());
        }
        if pending != self.want_write[peer] {
            let interest = if pending {
                Interest::WRITABLE
            } else {
                Interest::HANGUP
            };
            match shared
                .poller
                .modify(raw_fd(&p.stream), peer as u64, interest)
            {
                Ok(()) => self.want_write[peer] = pending,
                Err(e) => shared.fail_peer(peer, format!("event loop registration failed: {e}")),
            }
        }
    }

    /// Fails peers whose pending writes made no progress for a full
    /// `recv_timeout` — the write-side analogue of the receive watchdog.
    fn check_stalls(&mut self) {
        for peer in 0..self.stalled_since.len() {
            let stalled =
                self.stalled_since[peer].is_some_and(|t| t.elapsed() > self.stall_timeout);
            if stalled {
                self.stalled_since[peer] = None;
                self.shared.fail_peer(
                    peer,
                    format!(
                        "send failed: no write progress for {:?} (peer wedged)",
                        self.stall_timeout
                    ),
                );
            }
        }
    }

    /// Orderly teardown: put each socket back in blocking mode, flush the
    /// parked frame and the whole outbox under a bounded write timeout,
    /// then send FIN so the peer's read side observes a definite
    /// end-of-stream.
    fn flush_and_fin(&mut self) {
        for p in self.shared.peers.iter().flatten() {
            if p.dead.load(Ordering::Acquire) {
                continue;
            }
            let mut stream = &p.stream;
            let _ = stream.set_nonblocking(false);
            let _ = stream.set_write_timeout(Some(self.stall_timeout));
            let mut out = p.out.lock().expect("outbox lock");
            let mut ok = true;
            if let Some(frame) = out.parked.take() {
                let (header, payload) = frame.rest();
                ok = stream.write_all(header).is_ok() && stream.write_all(payload).is_ok();
            }
            while ok {
                let Some((tag, payload)) = out.queue.pop_front() else {
                    break;
                };
                let header = framing::data_header(payload.len(), tag);
                ok = stream.write_all(&header).is_ok() && stream.write_all(&payload).is_ok();
            }
            let _ = stream.shutdown(Shutdown::Write);
        }
    }
}

/// One rank's session in a real socket communicator: a full mesh of
/// persistent connections carrying tagged, length-prefixed frames, read
/// and written by the calling thread with one event loop for background
/// work, with wall-clock time (see the module docs for the protocol).
pub struct ReactorTransport {
    rank: usize,
    size: usize,
    mailbox: Mailbox<Bytes>,
    /// Loop-thread handle and the sockets; `None` for single-rank and
    /// standalone transports.
    reactor: Option<ReactorHandle>,
    clock: WallClock,
    config: TransportConfig,
    cost_hint: CostModel,
    op_counter: u64,
    stats: CommStats,
    /// Shared I/O counter values at the last `reset_clock`, so stats report
    /// deltas per measurement window like every other counter.
    counters_base: [u64; 3],
}

impl std::fmt::Debug for ReactorTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReactorTransport")
            .field("rank", &self.rank)
            .field("size", &self.size)
            .finish()
    }
}

impl ReactorTransport {
    /// Joins (or, on rank 0, hosts) a `world`-rank cluster rendezvoused at
    /// `root_addr` and returns once the full connection mesh is
    /// established. Blocks up to the configured connect deadline; every
    /// validation failure is a typed [`CommError`].
    ///
    /// `cost_hint` seeds the planning model for the adaptive selector
    /// ([`CostModel::loopback_tcp`] is the right default for single-host
    /// runs; pick [`CostModel::gige`] for commodity Ethernet clusters).
    pub fn rendezvous(
        rank: usize,
        world: usize,
        root_addr: &str,
        cost_hint: CostModel,
        config: TransportConfig,
    ) -> Result<ReactorTransport, CommError> {
        let root = RootRendezvous::for_rank(rank, root_addr);
        ReactorTransport::rendezvous_inner(rank, world, root, cost_hint, config)
    }

    /// [`ReactorTransport::rendezvous`] bootstrapped from the environment
    /// — the contract between the [`crate::launcher`] (which exports these
    /// for each spawned rank) and manual multi-machine runs:
    ///
    /// * `SPARCML_RANK` — this process's rank in `[0, world)`;
    /// * `SPARCML_WORLD` — the cluster size;
    /// * `SPARCML_ROOT_ADDR` — rank 0's `host:port` rendezvous address;
    /// * plus the optional timeout overrides of
    ///   [`TransportConfig::from_env`] and the `SPARCML_COST_MODEL`
    ///   planning-hint override ([`CostModel::from_env`], defaulting to
    ///   [`CostModel::loopback_tcp`]) so multi-machine runs can feed the
    ///   selector real link parameters without recompiling.
    pub fn from_env() -> Result<ReactorTransport, CommError> {
        let cost_hint = CostModel::from_env_or(CostModel::loopback_tcp())?;
        ReactorTransport::from_env_with(cost_hint, TransportConfig::from_env()?)
    }

    /// [`ReactorTransport::from_env`] with an explicit planning hint and
    /// config (the env-var overrides are *not* re-applied).
    pub fn from_env_with(
        cost_hint: CostModel,
        config: TransportConfig,
    ) -> Result<ReactorTransport, CommError> {
        let rank = bootstrap::env_usize(ENV_RANK)?;
        let world = bootstrap::env_usize(ENV_WORLD)?;
        let root_addr = std::env::var(ENV_ROOT_ADDR).map_err(|_| {
            CommError::Protocol(format!("{ENV_ROOT_ADDR} is not set — no rendezvous point"))
        })?;
        ReactorTransport::rendezvous(rank, world, &root_addr, cost_hint, config)
    }

    /// A session with no sockets and no loop thread yet: all a
    /// single-rank world ever needs.
    fn unconnected(
        rank: usize,
        world: usize,
        cost_hint: CostModel,
        config: TransportConfig,
    ) -> ReactorTransport {
        ReactorTransport {
            rank,
            size: world,
            mailbox: Mailbox::new(rank, world, config.recv_timeout),
            reactor: None,
            clock: WallClock::start(),
            config,
            cost_hint,
            op_counter: 0,
            stats: CommStats::default(),
            counters_base: [0; 3],
        }
    }

    fn rendezvous_inner(
        rank: usize,
        world: usize,
        root: RootRendezvous,
        cost_hint: CostModel,
        config: TransportConfig,
    ) -> Result<ReactorTransport, CommError> {
        if world == 0 || rank >= world {
            return Err(CommError::InvalidRank { rank, size: world });
        }
        let mut transport = ReactorTransport::unconnected(rank, world, cost_hint, config);
        if world == 1 {
            return Ok(transport);
        }
        // The event loop's kernel objects come first: on a platform
        // without them this rank fails here, before it dials anyone,
        // instead of stranding its peers mid-handshake.
        let no_epoll = |e: io::Error| {
            CommError::Io(format!(
                "the socket transport needs Linux epoll and eventfd: {e}"
            ))
        };
        let poller = Poller::new().map_err(no_epoll)?;
        let waker = Waker::new().map_err(no_epoll)?;
        poller.add(waker.fd(), WAKER_TOKEN, Interest::READABLE)?;
        let streams = bootstrap::establish_mesh(rank, world, root, &transport.config)?;
        let mut peers = Vec::with_capacity(world);
        for (peer, stream) in streams.into_iter().enumerate() {
            let Some(stream) = stream else {
                peers.push(None);
                continue;
            };
            stream.set_nonblocking(true)?;
            // Reads belong to callers and the timed drain: the loop hears
            // of a socket only when it hangs up, or when it can take a
            // parked write.
            poller.add(raw_fd(&stream), peer as u64, Interest::HANGUP)?;
            peers.push(Some(Peer {
                stream,
                out: Mutex::new(Outbox::default()),
                read: Mutex::new(ReadState::new()),
                dead: AtomicBool::new(false),
            }));
        }
        let shared = Arc::new(Shared {
            poller,
            waker,
            peers,
            inbox: transport.mailbox.sender(),
            pool: FramePool::default(),
            max_frame_len: transport.config.max_frame_len,
            shutdown: AtomicBool::new(false),
            dirty: AtomicBool::new(false),
            wakeups: AtomicU64::new(0),
            partial_writes: AtomicU64::new(0),
            read_batch_frames: AtomicU64::new(0),
        });
        let ctx = LoopCtx {
            shared: shared.clone(),
            want_write: vec![false; world],
            stalled_since: vec![None; world],
            stall_timeout: transport.config.recv_timeout,
        };
        let thread = std::thread::Builder::new()
            .name(format!("sparcml-reactor-{rank}"))
            .spawn(move || {
                obs::register_thread();
                ctx.run()
            })
            .map_err(|e| CommError::Io(format!("failed to spawn reactor thread: {e}")))?;
        transport.reactor = Some(ReactorHandle {
            shared,
            thread: Some(thread),
        });
        Ok(transport)
    }

    /// The watchdog/limit configuration this transport was built with
    /// (what its event loop runs on; see
    /// [`ReactorTransport::set_recv_deadline`]).
    pub fn config(&self) -> &TransportConfig {
        &self.config
    }

    /// Why the connection to `peer` ended, once it has (observability for
    /// error handling and tests): clean close, mid-frame close, oversized
    /// frame declaration, or an I/O error.
    pub fn close_reason(&self, peer: usize) -> Option<&str> {
        self.mailbox.close_reason(peer)
    }

    /// Overrides the receive watchdog after construction (mirrors
    /// [`crate::ThreadTransport::set_recv_deadline`]). The event loop
    /// keeps its construction-time write-stall deadline.
    pub fn set_recv_deadline(&mut self, deadline: Duration) {
        self.mailbox.set_recv_timeout(deadline);
    }

    /// Fault-injection hook for protocol tests: writes `bytes` to the
    /// peer verbatim, bypassing framing and the outbox.
    ///
    /// Only meaningful while no regular `send` to the same peer is in
    /// flight (writes would interleave). Not part of the stable API.
    #[doc(hidden)]
    pub fn send_raw(&mut self, dst: usize, bytes: &[u8]) -> Result<(), CommError> {
        let peer = self
            .reactor
            .as_ref()
            .and_then(|handle| handle.shared.peers.get(dst))
            .and_then(Option::as_ref)
            .ok_or(CommError::InvalidRank {
                rank: dst,
                size: self.size,
            })?;
        // The socket is nonblocking, so a full buffer surfaces as
        // WouldBlock here instead of blocking.
        let mut stream = &peer.stream;
        let mut done = 0usize;
        while done < bytes.len() {
            match stream.write(&bytes[done..]) {
                Ok(0) => {
                    return Err(CommError::Io("socket accepted zero bytes".into()));
                }
                Ok(n) => done += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
        Ok(())
    }

    fn accept(&mut self, payload: Bytes) -> Bytes {
        self.stats.msgs_recv += 1;
        self.stats.bytes_recv += payload.len() as u64;
        payload
    }

    /// Copies the shared I/O counters into this window's stats.
    fn sync_counters(&mut self) {
        if let Some(handle) = &self.reactor {
            let s = &handle.shared;
            self.stats.wakeups = s
                .wakeups
                .load(Ordering::Relaxed)
                .saturating_sub(self.counters_base[0]);
            self.stats.partial_writes = s
                .partial_writes
                .load(Ordering::Relaxed)
                .saturating_sub(self.counters_base[1]);
            self.stats.read_batch_frames = s
                .read_batch_frames
                .load(Ordering::Relaxed)
                .saturating_sub(self.counters_base[2]);
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
        if dst == self.rank {
            self.mailbox.push_self(tag, payload);
            return Ok(());
        }
        let handle = self.reactor.as_ref().expect("reactor running for size > 1");
        let shared = &*handle.shared;
        let peer = shared.peer(dst);
        if peer.dead.load(Ordering::Acquire) {
            return Err(CommError::PeerDisconnected { peer: dst });
        }
        let mut out = peer.out.lock().expect("outbox lock");
        if !out.is_empty() {
            // The loop is finishing this peer's earlier frames; queue
            // behind them.
            out.queue.push_back((tag, payload));
            return Ok(());
        }
        let mut frame = OutFrame::new(tag, payload);
        match frame.write_to(&peer.stream, &shared.partial_writes) {
            Ok(true) => {
                drop(out);
                shared.pool.reclaim(frame.payload);
                Ok(())
            }
            Ok(false) => {
                out.parked = Some(frame);
                drop(out);
                shared.wake_for_writes()
            }
            Err(e) => {
                // As when the loop's write fails: the send itself returns,
                // and the close reaches every later call on this peer.
                drop(out);
                shared.fail_peer(dst, format!("send failed: {e}"));
                Ok(())
            }
        }
    }
}

impl Transport for ReactorTransport {
    fn rank(&self) -> usize {
        self.rank
    }

    fn backend_name(&self) -> &'static str {
        "reactor"
    }

    fn size(&self) -> usize {
        self.size
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
        self.sync_counters();
        &mut self.stats
    }

    fn reset_clock(&mut self) {
        self.clock = WallClock::start();
        self.stats = CommStats::default();
        if let Some(handle) = &self.reactor {
            let s = &handle.shared;
            self.counters_base = [
                s.wakeups.load(Ordering::Relaxed),
                s.partial_writes.load(Ordering::Relaxed),
                s.read_batch_frames.load(Ordering::Relaxed),
            ];
        }
    }

    fn send(&mut self, dst: usize, tag: u64, payload: Bytes) -> Result<(), CommError> {
        self.push_msg(dst, tag, payload)
    }

    fn isend(&mut self, dst: usize, tag: u64, payload: Bytes) -> Result<(), CommError> {
        // A send writes what the socket takes at once and parks the rest
        // for the loop; it never blocks on the socket, so send and isend
        // coincide (as on the channel transports).
        self.push_msg(dst, tag, payload)
    }

    fn recv(&mut self, src: usize, tag: u64) -> Result<Bytes, CommError> {
        let out = match &self.reactor {
            Some(handle) if src < self.size && src != self.rank => {
                let shared = &*handle.shared;
                self.mailbox.recv_with(src, tag, || Readers {
                    shared,
                    held: [(src, shared.peer(src).read.lock().expect("read lock"))],
                })
            }
            _ => self.mailbox.recv(src, tag),
        };
        self.sync_counters();
        Ok(self.accept(out?))
    }

    fn recv_any(&mut self, tag: u64) -> Result<(usize, Bytes), CommError> {
        let out = match &self.reactor {
            Some(handle) => {
                let shared = &*handle.shared;
                self.mailbox.recv_any_with(tag, || Readers {
                    shared,
                    held: shared.lock_all_reads(),
                })
            }
            None => self.mailbox.recv_any(tag),
        };
        self.sync_counters();
        let (src, payload) = out?;
        Ok((src, self.accept(payload)))
    }

    fn detach(&mut self) -> ReactorTransport {
        std::mem::replace(self, standalone_reactor_transport())
    }
}

/// Creates a disconnected single-rank reactor transport — the placeholder
/// counterpart of [`crate::standalone_thread_transport`]. No loop thread
/// is spawned.
pub fn standalone_reactor_transport() -> ReactorTransport {
    ReactorTransport::unconnected(0, 1, CostModel::zero(), TransportConfig::default())
}

/// Runs `f` once per rank of a real-socket loopback cluster: `size` OS
/// threads in this process, each with its own event loop, rendezvousing
/// over `127.0.0.1` and messaging through the full TCP stack. The
/// in-process counterpart of the multi-process
/// [`crate::launcher::run_socket_cluster`], used by the transport tests
/// and benches.
pub fn run_reactor_loopback_cluster<R, F>(
    size: usize,
    cost_hint: CostModel,
    config: TransportConfig,
    f: F,
) -> Vec<R>
where
    R: Send,
    F: Fn(&mut ReactorTransport) -> R + Sync,
{
    assert!(size > 0, "cluster needs at least one rank");
    // Rank 0's rendezvous listener is pre-bound: no bind/re-bind race on
    // the ephemeral port.
    let root_listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback rendezvous");
    let root_addr = root_listener
        .local_addr()
        .expect("rendezvous local addr")
        .to_string();
    let seats = std::iter::once(RootRendezvous::Listener(root_listener))
        .chain((1..size).map(|_| RootRendezvous::Dial(root_addr.clone())))
        .collect();
    run_ranks(seats, |rank, root| {
        let mut tp =
            ReactorTransport::rendezvous_inner(rank, size, root, cost_hint, config.clone())
                .unwrap_or_else(|e| panic!("rank {rank} rendezvous failed: {e}"));
        f(&mut tp)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    // The `Transport` contract (exchange, tag matching, self-sends,
    // recv_any, stats, detach, large simultaneous exchanges, watchdog,
    // finished peers) is checked on this transport by the workspace's
    // `tests/transport_contract.rs`; only what is specific to this
    // transport's I/O lives here.

    fn quick_config() -> TransportConfig {
        TransportConfig::default()
            .with_recv_timeout(Duration::from_secs(10))
            .with_connect_timeout(Duration::from_secs(10))
    }

    #[test]
    fn exchanges_wake_no_loop_and_every_frame_is_counted() {
        const EXCHANGES: u64 = 1000;
        let stats = run_reactor_loopback_cluster(2, CostModel::zero(), quick_config(), |tp| {
            let peer = 1 - tp.rank();
            tp.reset_clock();
            for _ in 0..EXCHANGES {
                let _ = tp.exchange(peer, 1, Bytes::from(vec![0u8; 64])).unwrap();
            }
            tp.stats_mut().clone()
        });
        for s in stats {
            assert_eq!(s.msgs_sent, EXCHANGES);
            assert_eq!(s.msgs_recv, EXCHANGES);
            // Callers write and read their own sockets: the loop wakes
            // only on its timer, about every 100 ms.
            assert!(
                s.wakeups <= 50,
                "{} loop wakeups over {EXCHANGES} exchanges",
                s.wakeups
            );
            assert_eq!(
                s.read_batch_frames, EXCHANGES,
                "every frame is counted, whichever thread read it"
            );
        }
    }

    #[test]
    fn single_rank_world_needs_no_loop() {
        let mut tp = standalone_reactor_transport();
        tp.send(0, 1, Bytes::from_static(b"self")).unwrap();
        assert_eq!(tp.recv(0, 1).unwrap().as_ref(), b"self");
        assert!(tp.reactor.is_none());
    }

    #[test]
    fn from_env_requires_variables() {
        // The bootstrap env vars are process-global: this test only
        // checks the *missing* case and does not set them (other tests
        // run in the same process).
        if std::env::var(ENV_RANK).is_ok() {
            return;
        }
        let err = ReactorTransport::from_env().unwrap_err();
        assert!(matches!(err, CommError::Protocol(_)), "got {err:?}");
    }
}
