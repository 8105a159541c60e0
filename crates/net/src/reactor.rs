//! The socket transport: rendezvous, framing, full-mesh point-to-point
//! messaging, one readiness-driven event loop per rank.
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
//! * **Reads** — every peer socket is nonblocking and registered
//!   level-triggered for readability with one epoll loop thread. A
//!   readable event drains the socket in a batch: incremental
//!   header/payload reassembly carries partial frames across wakeups,
//!   payloads land in buffers recycled through a frame pool, and each
//!   completed frame goes to the tag-matched [`Mailbox`].
//! * **Writes** — sends enqueue onto a per-peer outbox guarded by a
//!   mutex; an eventfd waker (with a dirty-flag so back-to-back sends
//!   coalesce into one wakeup) nudges the loop, which drains outboxes
//!   with vectored writes of the 12-byte header next to the pooled
//!   payload buffer (no staging copy). `WouldBlock` parks the frame at
//!   its partial-write offset and arms `EPOLLOUT` interest; write
//!   interest is dropped again the moment the outbox runs dry, so an idle
//!   mesh never spins. Because the loop never blocks on any single
//!   socket, `send`/`isend` never block the schedule and simultaneous
//!   multi-megabyte exchanges interleave instead of deadlocking.
//! * **Failure model** — a peer closing its socket (cleanly or mid-frame)
//!   surfaces as [`CommError::PeerDisconnected`]; silence beyond the
//!   configured watchdog surfaces as [`CommError::Timeout`]; handshake
//!   inconsistencies surface as [`CommError::HandshakeMismatch`]; a peer
//!   that stops reading trips a write-stall watchdog on the
//!   `recv_timeout` schedule. A dead peer fails a collective loudly
//!   instead of hanging it.
//!
//! A P-rank single-host run needs 2 threads per rank (main + loop)
//! whatever P is, which is what makes the P=64 loopback smoke test
//! feasible. The loop exports its own counters (`wakeups`,
//! `partial_writes`, `read_batch_frames`) into [`CommStats`].
//!
//! Bootstrap is either programmatic ([`ReactorTransport::rendezvous`],
//! [`run_reactor_loopback_cluster`] for in-process loopback clusters) or
//! via environment variables ([`ReactorTransport::from_env`] reading
//! `SPARCML_RANK` / `SPARCML_WORLD` / `SPARCML_ROOT_ADDR`), which is what
//! the [`crate::launcher`] sets for spawned rank subprocesses and what a
//! manual multi-machine run exports by hand. Linux only: the loop is
//! epoll plus an eventfd.

use std::collections::VecDeque;
use std::io::{self, IoSlice, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::Sender;
use epoll::{Events, Interest, Poller, Waker};
use sparcml_obs as obs;

use crate::bootstrap::{self, RootRendezvous, ENV_RANK, ENV_ROOT_ADDR, ENV_WORLD};
use crate::clock::WallClock;
use crate::cluster::run_ranks;
use crate::config::TransportConfig;
use crate::cost::CostModel;
use crate::error::CommError;
use crate::framing::{self, DATA_HEADER_LEN};
use crate::mailbox::{Event, Mailbox};
use crate::pool::FramePool;
use crate::stats::CommStats;
use crate::transport::Transport;

/// Poller token reserved for the eventfd waker (peer tokens are ranks,
/// which never reach `u64::MAX`).
const WAKER_TOKEN: u64 = u64::MAX;

/// Upper bound on one `epoll_wait` while writes are pending, so the
/// write-stall watchdog gets a chance to run even if no event ever fires
/// (a peer that stopped reading generates no readiness).
const STALL_POLL: Duration = Duration::from_millis(100);

/// Readiness events one `epoll_wait` may return.
const MAX_EVENTS: usize = 64;

/// Frames drained from one peer's outbox per visit before the loop moves
/// on to the next peer, so one chatty peer cannot starve the rest.
const WRITE_BATCH_FRAMES: usize = 16;

/// Per-peer state shared between sender threads and the loop.
struct PeerShared {
    /// Frames queued for this peer, drained by the loop.
    outbox: Mutex<VecDeque<(u64, Bytes)>>,
    /// Set by the loop on failure so later sends fail fast.
    dead: AtomicBool,
}

impl Default for PeerShared {
    fn default() -> Self {
        PeerShared {
            outbox: Mutex::new(VecDeque::new()),
            dead: AtomicBool::new(false),
        }
    }
}

/// State shared between the owning transport and the loop thread.
struct Shared {
    waker: Waker,
    /// Per-peer outboxes; `None` at our own index.
    peers: Vec<Option<PeerShared>>,
    /// Orderly-teardown request: flush outboxes, FIN, exit.
    shutdown: AtomicBool,
    /// Send-side wakeup coalescing: set (with a wake) by the first sender
    /// after the loop last drained, left alone by the rest.
    dirty: AtomicBool,
    /// Times the loop returned from `epoll_wait`.
    wakeups: AtomicU64,
    /// Write syscalls that moved fewer bytes than requested.
    partial_writes: AtomicU64,
    /// Complete frames delivered by readable-batch drains.
    read_batch_frames: AtomicU64,
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

/// A frame currently being written to a peer, parked at `done` bytes
/// whenever the socket pushes back.
struct OutFrame {
    header: [u8; DATA_HEADER_LEN],
    payload: Bytes,
    done: usize,
}

/// Loop-private per-peer I/O state: the socket plus incremental read
/// (header/payload reassembly) and write (partial frame) cursors.
struct PeerIo {
    stream: TcpStream,
    open: bool,
    header: [u8; DATA_HEADER_LEN],
    header_filled: usize,
    payload: Vec<u8>,
    payload_filled: usize,
    tag: u64,
    in_payload: bool,
    out_frame: Option<OutFrame>,
    /// Whether `EPOLLOUT` interest is currently registered.
    want_write: bool,
    /// Set while writes are pending with zero progress; feeds the
    /// write-stall watchdog.
    stalled_since: Option<Instant>,
}

impl PeerIo {
    fn new(stream: TcpStream) -> PeerIo {
        PeerIo {
            stream,
            open: true,
            header: [0u8; DATA_HEADER_LEN],
            header_filled: 0,
            payload: Vec::new(),
            payload_filled: 0,
            tag: 0,
            in_payload: false,
            out_frame: None,
            want_write: false,
            stalled_since: None,
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

/// Everything the loop thread owns.
struct LoopCtx {
    poller: Poller,
    ios: Vec<Option<PeerIo>>,
    shared: Arc<Shared>,
    inbox: Sender<Event<Bytes>>,
    pool: FramePool,
    config: TransportConfig,
}

impl LoopCtx {
    fn run(mut self) {
        let mut events = Events::with_capacity(MAX_EVENTS);
        loop {
            // Bound the wait only while writes are pending: that's the
            // one state where progress can silently stop (a peer that
            // quits reading produces no readiness event) and the stall
            // watchdog below is the only way out.
            let timeout = self.any_write_pending().then_some(STALL_POLL);
            if let Err(e) = self.poller.wait(&mut events, timeout) {
                self.fail_all(format!("event loop poll failed: {e}"));
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
                if ev.readable || ev.closed {
                    self.handle_readable(peer);
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
                // Senders queued new frames since the last drain; try
                // every peer with work (the common case is an empty
                // kernel buffer accepting the whole frame right here,
                // without ever arming EPOLLOUT).
                for peer in 0..self.ios.len() {
                    if self.peer_has_pending(peer) {
                        self.drain_writes(peer);
                    }
                }
            }
            self.check_stalls();
        }
    }

    fn any_write_pending(&self) -> bool {
        self.ios
            .iter()
            .flatten()
            .any(|io| io.open && (io.want_write || io.out_frame.is_some()))
    }

    fn peer_has_pending(&self, peer: usize) -> bool {
        let Some(io) = self.ios[peer].as_ref() else {
            return false;
        };
        if !io.open {
            return false;
        }
        io.out_frame.is_some()
            || self.shared.peers[peer]
                .as_ref()
                .is_some_and(|ps| !ps.outbox.lock().expect("outbox lock").is_empty())
    }

    /// Drains the readable socket: resumes any partial frame, then keeps
    /// assembling complete frames into the mailbox until `WouldBlock`.
    fn handle_readable(&mut self, peer: usize) {
        let mut read_span = obs::span(obs::Category::Reactor, "drain-reads");
        let mut failure: Option<String> = None;
        let mut frames = 0u64;
        {
            let io = match self.ios[peer].as_mut() {
                Some(io) if io.open => io,
                _ => return,
            };
            'drain: loop {
                if !io.in_payload {
                    while io.header_filled < DATA_HEADER_LEN {
                        match io.stream.read(&mut io.header[io.header_filled..]) {
                            Ok(0) => {
                                failure = Some("peer closed the connection".into());
                                break 'drain;
                            }
                            Ok(n) => io.header_filled += n,
                            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break 'drain,
                            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                            Err(e) => {
                                failure = Some(format!("read failed: {e}"));
                                break 'drain;
                            }
                        }
                    }
                    match framing::parse_data_header(&io.header, self.config.max_frame_len) {
                        Ok((len, tag)) => {
                            io.tag = tag;
                            io.payload = self.pool.acquire(len);
                            io.payload_filled = 0;
                            io.in_payload = true;
                        }
                        Err(e) => {
                            failure = Some(e.to_string());
                            break 'drain;
                        }
                    }
                }
                while io.payload_filled < io.payload.len() {
                    match io.stream.read(&mut io.payload[io.payload_filled..]) {
                        Ok(0) => {
                            failure = Some(format!(
                                "peer closed mid-frame (expected {} payload bytes)",
                                io.payload.len()
                            ));
                            break 'drain;
                        }
                        Ok(n) => io.payload_filled += n,
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break 'drain,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                        Err(e) => {
                            failure = Some(format!("read failed mid-frame: {e}"));
                            break 'drain;
                        }
                    }
                }
                let payload = std::mem::take(&mut io.payload);
                io.in_payload = false;
                io.header_filled = 0;
                io.payload_filled = 0;
                frames += 1;
                if self
                    .inbox
                    .send(Event::Msg {
                        src: peer,
                        tag: io.tag,
                        body: Bytes::from(payload),
                    })
                    .is_err()
                {
                    // Transport gone; nothing left to deliver to.
                    break 'drain;
                }
            }
        }
        read_span.set_arg(frames);
        if frames > 0 {
            self.shared
                .read_batch_frames
                .fetch_add(frames, Ordering::Relaxed);
        }
        if let Some(detail) = failure {
            self.fail_peer(peer, detail);
        }
    }

    /// Writes as much queued traffic to `peer` as the socket accepts:
    /// finishes any parked partial frame, then pulls up to
    /// [`WRITE_BATCH_FRAMES`] fresh frames from the outbox. Arms or disarms
    /// `EPOLLOUT` interest to match whether anything remains.
    fn drain_writes(&mut self, peer: usize) {
        let mut write_span = obs::span(obs::Category::Reactor, "drain-writes");
        let mut failure: Option<String> = None;
        {
            let Some(ps) = self.shared.peers[peer].as_ref() else {
                return;
            };
            let io = match self.ios[peer].as_mut() {
                Some(io) if io.open => io,
                _ => return,
            };
            let mut budget = WRITE_BATCH_FRAMES;
            let mut progressed = false;
            let mut blocked = false;
            'frames: loop {
                if io.out_frame.is_none() {
                    if budget == 0 {
                        break;
                    }
                    match ps.outbox.lock().expect("outbox lock").pop_front() {
                        Some((tag, payload)) => {
                            io.out_frame = Some(OutFrame {
                                header: framing::data_header(payload.len(), tag),
                                payload,
                                done: 0,
                            });
                            budget -= 1;
                        }
                        None => break,
                    }
                }
                let frame = io.out_frame.as_mut().expect("frame present");
                let total = DATA_HEADER_LEN + frame.payload.len();
                while frame.done < total {
                    let result = if frame.done < DATA_HEADER_LEN {
                        let bufs = [
                            IoSlice::new(&frame.header[frame.done..]),
                            IoSlice::new(&frame.payload),
                        ];
                        io.stream.write_vectored(&bufs)
                    } else {
                        io.stream
                            .write(&frame.payload[frame.done - DATA_HEADER_LEN..])
                    };
                    match result {
                        Ok(0) => {
                            failure = Some("send failed: socket accepted zero bytes".into());
                            break 'frames;
                        }
                        Ok(n) => {
                            frame.done += n;
                            progressed = true;
                            if frame.done < total {
                                self.shared.partial_writes.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                            blocked = true;
                            break 'frames;
                        }
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                        Err(e) => {
                            failure = Some(format!("send failed: {e}"));
                            break 'frames;
                        }
                    }
                }
                let frame = io.out_frame.take().expect("frame present");
                self.pool.reclaim(frame.payload);
            }
            if failure.is_none() {
                let pending =
                    io.out_frame.is_some() || !ps.outbox.lock().expect("outbox lock").is_empty();
                if progressed || !pending {
                    io.stalled_since = None;
                } else if blocked && io.stalled_since.is_none() {
                    io.stalled_since = Some(Instant::now());
                }
                if pending != io.want_write {
                    let interest = if pending {
                        Interest::BOTH
                    } else {
                        Interest::READABLE
                    };
                    match self
                        .poller
                        .modify(raw_fd(&io.stream), peer as u64, interest)
                    {
                        Ok(()) => io.want_write = pending,
                        Err(e) => failure = Some(format!("event loop registration failed: {e}")),
                    }
                }
            }
        }
        write_span.set_arg(self.shared.partial_writes.load(Ordering::Relaxed));
        if let Some(detail) = failure {
            self.fail_peer(peer, detail);
        }
    }

    /// Marks `peer` unusable: future sends fail fast, its socket leaves
    /// the poller, and the mailbox learns the close reason.
    fn fail_peer(&mut self, peer: usize, detail: String) {
        if let Some(ps) = self.shared.peers[peer].as_ref() {
            ps.dead.store(true, Ordering::Release);
            ps.outbox.lock().expect("outbox lock").clear();
        }
        if let Some(io) = self.ios[peer].as_mut() {
            if io.open {
                io.open = false;
                let _ = self.poller.remove(raw_fd(&io.stream));
                let _ = io.stream.shutdown(Shutdown::Both);
            }
            io.out_frame = None;
            io.want_write = false;
            io.stalled_since = None;
        }
        let _ = self.inbox.send(Event::Closed { src: peer, detail });
    }

    fn fail_all(&mut self, detail: String) {
        for peer in 0..self.ios.len() {
            if self.ios[peer].as_ref().is_some_and(|io| io.open) {
                self.fail_peer(peer, detail.clone());
            }
        }
    }

    /// Fails peers whose pending writes made no progress for a full
    /// `recv_timeout` — the write-side analogue of the receive watchdog.
    fn check_stalls(&mut self) {
        let timeout = self.config.recv_timeout;
        let stalled: Vec<usize> = self
            .ios
            .iter()
            .enumerate()
            .filter(|(_, io)| {
                io.as_ref().is_some_and(|io| {
                    io.open && io.stalled_since.is_some_and(|t| t.elapsed() > timeout)
                })
            })
            .map(|(peer, _)| peer)
            .collect();
        for peer in stalled {
            self.fail_peer(
                peer,
                format!("send failed: no write progress for {timeout:?} (peer wedged)"),
            );
        }
    }

    /// Orderly teardown: put each socket back in blocking mode, flush the
    /// parked frame and the whole outbox under a bounded write timeout,
    /// then send FIN so the peer's read side observes a definite
    /// end-of-stream.
    fn flush_and_fin(&mut self) {
        for peer in 0..self.ios.len() {
            let Some(ps) = self.shared.peers[peer].as_ref() else {
                continue;
            };
            let Some(io) = self.ios[peer].as_mut() else {
                continue;
            };
            if !io.open {
                continue;
            }
            let _ = io.stream.set_nonblocking(false);
            let _ = io.stream.set_write_timeout(Some(self.config.recv_timeout));
            let mut ok = true;
            if let Some(frame) = io.out_frame.take() {
                ok = if frame.done < DATA_HEADER_LEN {
                    io.stream.write_all(&frame.header[frame.done..]).is_ok()
                        && io.stream.write_all(&frame.payload).is_ok()
                } else {
                    io.stream
                        .write_all(&frame.payload[frame.done - DATA_HEADER_LEN..])
                        .is_ok()
                };
            }
            while ok {
                let next = ps.outbox.lock().expect("outbox lock").pop_front();
                let Some((tag, payload)) = next else { break };
                let header = framing::data_header(payload.len(), tag);
                ok = io.stream.write_all(&header).is_ok() && io.stream.write_all(&payload).is_ok();
            }
            let _ = io.stream.shutdown(Shutdown::Write);
        }
    }
}

/// One rank's session in a real socket communicator: a full mesh of
/// persistent connections carrying tagged, length-prefixed frames, served
/// by a single readiness-driven event loop, with wall-clock time (see the
/// module docs for the protocol).
pub struct ReactorTransport {
    rank: usize,
    size: usize,
    mailbox: Mailbox<Bytes>,
    /// Cloned stream handles for fault injection (`send_raw`); `None` at
    /// our own index.
    raw_streams: Vec<Option<TcpStream>>,
    /// Loop-thread handle; `None` for single-rank/standalone transports.
    reactor: Option<ReactorHandle>,
    clock: WallClock,
    config: TransportConfig,
    cost_hint: CostModel,
    op_counter: u64,
    stats: CommStats,
    /// Loop counter values at the last `reset_clock`, so stats report
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
            raw_streams: (0..world).map(|_| None).collect(),
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
        let mut ios: Vec<Option<PeerIo>> = (0..world).map(|_| None).collect();
        let mut peers: Vec<Option<PeerShared>> = (0..world).map(|_| None).collect();
        for (peer, stream) in streams.into_iter().enumerate() {
            let Some(stream) = stream else { continue };
            stream.set_nonblocking(true)?;
            transport.raw_streams[peer] = Some(stream.try_clone()?);
            poller.add(raw_fd(&stream), peer as u64, Interest::READABLE)?;
            ios[peer] = Some(PeerIo::new(stream));
            peers[peer] = Some(PeerShared::default());
        }
        let shared = Arc::new(Shared {
            waker,
            peers,
            shutdown: AtomicBool::new(false),
            dirty: AtomicBool::new(false),
            wakeups: AtomicU64::new(0),
            partial_writes: AtomicU64::new(0),
            read_batch_frames: AtomicU64::new(0),
        });
        let ctx = LoopCtx {
            poller,
            ios,
            shared: shared.clone(),
            inbox: transport.mailbox.sender(),
            pool: FramePool::default(),
            config: transport.config.clone(),
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
    /// peer verbatim, bypassing framing and the event loop.
    ///
    /// Only meaningful while no regular `send` to the same peer is in
    /// flight (writes would interleave). Not part of the stable API.
    #[doc(hidden)]
    pub fn send_raw(&mut self, dst: usize, bytes: &[u8]) -> Result<(), CommError> {
        let stream =
            self.raw_streams
                .get(dst)
                .and_then(|s| s.as_ref())
                .ok_or(CommError::InvalidRank {
                    rank: dst,
                    size: self.size,
                })?;
        // The clone shares the loop's O_NONBLOCK flag, so a full socket
        // buffer surfaces as WouldBlock here instead of blocking.
        let mut stream: &TcpStream = stream;
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

    /// Copies the loop's atomic counters into this window's stats.
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
        let ps = handle.shared.peers[dst].as_ref().expect("non-self peer");
        if ps.dead.load(Ordering::Acquire) {
            return Err(CommError::PeerDisconnected { peer: dst });
        }
        ps.outbox
            .lock()
            .expect("outbox lock")
            .push_back((tag, payload));
        // First sender since the last drain wakes the loop; everyone else
        // rides the same wakeup.
        if !handle.shared.dirty.swap(true, Ordering::AcqRel) {
            handle
                .shared
                .waker
                .wake()
                .map_err(|e| CommError::Io(format!("reactor wake failed: {e}")))?;
        }
        Ok(())
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
        // Injection is enqueueing onto the loop's outbox; it never blocks
        // on the socket, so send and isend coincide (as on the channel
        // transports).
        self.push_msg(dst, tag, payload)
    }

    fn recv(&mut self, src: usize, tag: u64) -> Result<Bytes, CommError> {
        let out = self.mailbox.recv(src, tag);
        self.sync_counters();
        Ok(self.accept(out?))
    }

    fn recv_any(&mut self, tag: u64) -> Result<(usize, Bytes), CommError> {
        let out = self.mailbox.recv_any(tag);
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
    // `tests/transport_contract.rs`; only what is specific to the event
    // loop lives here.

    fn quick_config() -> TransportConfig {
        TransportConfig::default()
            .with_recv_timeout(Duration::from_secs(10))
            .with_connect_timeout(Duration::from_secs(10))
    }

    #[test]
    fn reactor_counters_reach_stats() {
        let stats = run_reactor_loopback_cluster(2, CostModel::zero(), quick_config(), |tp| {
            let peer = 1 - tp.rank();
            let _ = tp.exchange(peer, 1, Bytes::from(vec![0u8; 64])).unwrap();
            // The loop bumps its frame counter just after delivery, so
            // the recv can beat the fetch_add; wait the race out.
            let deadline = Instant::now() + Duration::from_secs(5);
            while tp.stats_mut().read_batch_frames < 1 && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            tp.stats_mut().clone()
        });
        for s in stats {
            assert_eq!(s.msgs_sent, 1);
            assert_eq!(s.msgs_recv, 1);
            assert!(s.wakeups > 0, "loop must have woken at least once");
            assert!(
                s.read_batch_frames >= 1,
                "the received frame must be counted"
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
