//! The aggregation server: accept loop, per-session reader/writer
//! threads, and the batching aggregator.
//!
//! Threading model (one shard):
//!
//! ```text
//! accept loop ──spawns──▶ session reader ──try_push──▶ SubmissionQueue
//!                              │  ▲ BUSY                    │
//!                              ▼  │                    aggregator
//!                         session writer ◀──ACK/UPDATE──────┘
//! ```
//!
//! Every session gets its own reader thread (decodes and validates
//! contributions in parallel) and writer thread (so a slow consumer
//! blocks only its own socket). The aggregator is the sole mutator of
//! model state: it drains the bounded [`SubmissionQueue`] in batches and
//! folds each batch under one lock acquisition. A dead, slow, or
//! malicious session can therefore affect nothing but itself: its frames
//! fail validation locally, its queue quota fills locally, and its silent
//! socket is reaped by the idle watchdog.

use std::collections::{HashMap, HashSet};
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sparcml_core::BufferPool;
use sparcml_engine::SubmissionQueue;
use sparcml_net::{CommError, CommStats};
use sparcml_obs as obs;
use sparcml_stream::{partition_range, DensityPolicy, PartRange, SparseStream};

use crate::config::ServeConfig;
use crate::error::ServeError;
use crate::health;
use crate::protocol::{read_frame_counted, ErrorCode, Frame, FrameReadError, ModelInfo};
use crate::state::{Gauges, ModelState, Registry, SessionEntry, SessionPhase};

/// One queued contribution, decoded and validated by the session reader.
pub(crate) struct Job {
    pub session: String,
    pub model: u16,
    pub seq: u64,
    pub stream: SparseStream<f32>,
    /// The owning session's in-flight gauge; decremented on apply.
    pub queued_slot: Arc<AtomicUsize>,
    /// Direct line to the session's writer for the ACK.
    pub outbox: Sender<Vec<u8>>,
}

/// Everything the server's threads share.
pub(crate) struct Shared {
    pub cfg: ServeConfig,
    pub shard: u16,
    pub shards: u16,
    /// Per-model index range this shard owns.
    pub ranges: Vec<PartRange>,
    pub models: Mutex<Vec<ModelState>>,
    pub registry: Mutex<Registry>,
    pub queue: SubmissionQueue<Job>,
    /// Frame-encode buffer pool (reuse surfaces in the health stats).
    pub pool: Mutex<BufferPool>,
    pub gauges: Gauges,
    pub stop: AtomicBool,
    /// Latest inter-shard communicator snapshot (shard groups only).
    pub comm_stats: Mutex<CommStats>,
    /// Latest cluster generation view from a shard sync:
    /// `[shard][model] -> generation`.
    pub cluster_generations: Mutex<Option<Vec<Vec<u64>>>>,
    /// Latest cross-shard telemetry report (straggler ranking, skew
    /// stats) built by the shard sync loop, surfaced on `/metrics` and
    /// the text health page.
    pub cluster_telemetry: Mutex<Option<sparcml_obs::ClusterReport>>,
    pub started: Instant,
}

impl Shared {
    /// Acquires a pooled buffer and encodes `frame` into it.
    pub fn encode(&self, frame: &Frame) -> Vec<u8> {
        let mut buf = self.pool.lock().expect("pool lock").acquire();
        frame.encode_into(&mut buf);
        buf
    }

    /// Ships an encoded frame to a session's writer, counting it.
    pub fn ship(&self, outbox: &Sender<Vec<u8>>, buf: Vec<u8>) {
        Gauges::bump(&self.gauges.frames_sent, 1);
        Gauges::bump(&self.gauges.bytes_sent, buf.len() as u64);
        // A send to a dead writer just drops the frame — the session is
        // gone and its state transition is handled by its reader thread.
        let _ = outbox.send(buf);
    }

    /// The server's counters in transport form: frames/bytes as
    /// msgs/bytes, applied merge work as compute, shard syncs as
    /// collectives, plus the encode pool's reuse counters and (for shard
    /// groups) the inter-shard communicator's own stats merged in.
    pub fn stats_snapshot(&self) -> CommStats {
        let mut s = CommStats {
            msgs_sent: Gauges::get(&self.gauges.frames_sent),
            bytes_sent: Gauges::get(&self.gauges.bytes_sent),
            msgs_recv: Gauges::get(&self.gauges.frames_recv),
            bytes_recv: Gauges::get(&self.gauges.bytes_recv),
            compute_elements: Gauges::get(&self.gauges.applied_elements),
            collectives: Gauges::get(&self.gauges.shard_syncs),
            ..CommStats::default()
        };
        {
            let pool = self.pool.lock().expect("pool lock");
            s.pool_acquires = pool.acquires();
            s.pool_reuses = pool.reuses();
        }
        s.merge(&self.comm_stats.lock().expect("comm stats lock"));
        s
    }
}

/// The aggregation daemon. Construct via [`Server::start`] (single
/// shard) or [`crate::ShardGroup::start`] (sharded).
pub struct Server;

impl Server {
    /// Starts a single-shard server on loopback with an OS-assigned port
    /// (health endpoint likewise).
    pub fn start(cfg: ServeConfig) -> Result<ServerHandle, ServeError> {
        Server::start_on(cfg, "127.0.0.1:0", "127.0.0.1:0")
    }

    /// Starts a single-shard server on explicit bind addresses.
    pub fn start_on(
        cfg: ServeConfig,
        bind: &str,
        health_bind: &str,
    ) -> Result<ServerHandle, ServeError> {
        Server::start_shard(cfg, 0, 1, bind, health_bind)
    }

    /// Starts one shard of a group: the shard owns
    /// `partition_range(dim, shards, shard)` of every model's index
    /// space and rejects contributions outside it.
    pub(crate) fn start_shard(
        cfg: ServeConfig,
        shard: u16,
        shards: u16,
        bind: &str,
        health_bind: &str,
    ) -> Result<ServerHandle, ServeError> {
        if cfg.models.is_empty() {
            return Err(ServeError::Protocol(
                "a server needs at least one declared model".into(),
            ));
        }
        let ranges: Vec<PartRange> = cfg
            .models
            .iter()
            .map(|m| partition_range(m.dim, shards as usize, shard as usize))
            .collect();
        let models: Vec<ModelState> = cfg
            .models
            .iter()
            .zip(&ranges)
            .map(|(spec, range)| ModelState::new(spec.clone(), *range))
            .collect();
        let listener = TcpListener::bind(bind)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let health_listener = TcpListener::bind(health_bind)?;
        health_listener.set_nonblocking(true)?;
        let health_addr = health_listener.local_addr()?;

        let shared = Arc::new(Shared {
            queue: SubmissionQueue::bounded(cfg.global_queue),
            cfg,
            shard,
            shards,
            ranges,
            models: Mutex::new(models),
            registry: Mutex::new(Registry::new()),
            pool: Mutex::new(BufferPool::new()),
            gauges: Gauges::default(),
            stop: AtomicBool::new(false),
            comm_stats: Mutex::new(CommStats::default()),
            cluster_generations: Mutex::new(None),
            cluster_telemetry: Mutex::new(None),
            started: Instant::now(),
        });

        let session_threads: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let mut threads = Vec::new();
        threads.push({
            let shared = shared.clone();
            let session_threads = session_threads.clone();
            std::thread::spawn(move || accept_loop(listener, shared, session_threads))
        });
        threads.push({
            let shared = shared.clone();
            std::thread::spawn(move || aggregator_loop(&shared))
        });
        threads.push({
            let shared = shared.clone();
            std::thread::spawn(move || health::health_loop(health_listener, &shared))
        });

        Ok(ServerHandle {
            addr,
            health_addr,
            shared,
            threads,
            session_threads,
        })
    }
}

/// A running server: address accessors, in-process introspection for
/// tests, and orderly shutdown.
pub struct ServerHandle {
    addr: SocketAddr,
    health_addr: SocketAddr,
    pub(crate) shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
    session_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl ServerHandle {
    /// Address client sessions connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Address of the plaintext health/stats endpoint.
    pub fn health_addr(&self) -> SocketAddr {
        self.health_addr
    }

    /// The health endpoint's plaintext report, rendered in-process (what
    /// `GET /stats` serves).
    pub fn health_report(&self) -> String {
        health::render_text(&self.shared)
    }

    /// The health endpoint's JSON report (what `GET /stats.json` serves).
    pub fn health_json(&self) -> String {
        health::render_json(&self.shared)
    }

    /// This shard's generation counter for `model`.
    pub fn model_generation(&self, model: u16) -> Option<u64> {
        self.shared
            .models
            .lock()
            .expect("models lock")
            .get(model as usize)
            .map(|m| m.generation)
    }

    /// The served (mode-adjusted) state of `model` on this shard.
    pub fn model_state(&self, model: u16) -> Option<SparseStream<f32>> {
        self.shared
            .models
            .lock()
            .expect("models lock")
            .get(model as usize)
            .map(|m| m.render())
    }

    /// Lifecycle phase of the named session, if it ever connected.
    pub fn session_phase(&self, session: &str) -> Option<&'static str> {
        self.shared
            .registry
            .lock()
            .expect("registry lock")
            .get(session)
            .map(|e| e.phase.as_str())
    }

    /// Server counters in [`CommStats`] form: accepted frames/bytes map
    /// to the recv counters, shipped frames/bytes to the send counters,
    /// applied contribution elements to `compute_elements` (the entries
    /// a ranked sum added, the values touched once it is dense), plus the
    /// buffer-pool and inter-shard collective counters.
    pub fn stats_snapshot(&self) -> CommStats {
        self.shared.stats_snapshot()
    }

    /// Stops accepting, closes every session socket, drains the
    /// aggregator, and joins all threads.
    pub fn shutdown(mut self) {
        self.shared.stop.store(true, Ordering::Release);
        self.shared.queue.close();
        {
            let registry = self.shared.registry.lock().expect("registry lock");
            for entry in registry.values() {
                if let Some(socket) = &entry.socket {
                    let _ = socket.shutdown(Shutdown::Both);
                }
            }
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        let handles: Vec<_> = self
            .session_threads
            .lock()
            .expect("session threads lock")
            .drain(..)
            .collect();
        for t in handles {
            let _ = t.join();
        }
    }
}

fn accept_loop(
    listener: TcpListener,
    shared: Arc<Shared>,
    session_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    while !shared.stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let shared = shared.clone();
                let handle = std::thread::spawn(move || session_thread(stream, &shared));
                session_threads
                    .lock()
                    .expect("session threads lock")
                    .push(handle);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// Sends a frame straight down a socket, bypassing the writer thread —
/// for rejections before a session is registered.
fn send_direct(shared: &Shared, stream: &mut TcpStream, frame: &Frame) {
    let buf = shared.encode(frame);
    Gauges::bump(&shared.gauges.frames_sent, 1);
    Gauges::bump(&shared.gauges.bytes_sent, buf.len() as u64);
    let _ = stream.write_all(&buf);
    shared.pool.lock().expect("pool lock").release(buf);
}

fn session_thread(mut stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    let max_frame = shared.cfg.transport.max_frame_len;
    let handshake_span = obs::span(obs::Category::Serve, "handshake");

    // Handshake under the bootstrap deadline.
    let _ = stream.set_read_timeout(Some(shared.cfg.transport.connect_timeout));
    let hello = match read_frame_counted(&mut stream, max_frame) {
        Ok((frame, bytes)) => {
            Gauges::bump(&shared.gauges.frames_recv, 1);
            Gauges::bump(&shared.gauges.bytes_recv, bytes as u64);
            frame
        }
        Err(FrameReadError::TooLarge { declared, limit }) => {
            let detail = CommError::FrameTooLarge { declared, limit }.to_string();
            send_direct(
                shared,
                &mut stream,
                &Frame::Error {
                    code: ErrorCode::FrameTooLarge,
                    detail,
                },
            );
            return;
        }
        Err(_) => return,
    };
    let Frame::Hello { session } = hello else {
        send_direct(
            shared,
            &mut stream,
            &Frame::Error {
                code: ErrorCode::Handshake,
                detail: "expected HELLO as the first frame".into(),
            },
        );
        return;
    };

    // Admission + registration under one registry lock.
    let (outbox_tx, outbox_rx, queued_slot, resumed) = {
        let mut registry = shared.registry.lock().expect("registry lock");
        if shared.stop.load(Ordering::Acquire) {
            drop(registry);
            send_direct(
                shared,
                &mut stream,
                &Frame::Error {
                    code: ErrorCode::ShuttingDown,
                    detail: "server is shutting down".into(),
                },
            );
            return;
        }
        if let Some(entry) = registry.get(&session) {
            if entry.phase == SessionPhase::Active {
                drop(registry);
                send_direct(
                    shared,
                    &mut stream,
                    &Frame::Error {
                        code: ErrorCode::DuplicateSession,
                        detail: format!("session '{session}' is already active"),
                    },
                );
                return;
            }
        }
        let active = registry
            .values()
            .filter(|e| e.phase == SessionPhase::Active)
            .count();
        if active >= shared.cfg.max_sessions {
            drop(registry);
            send_direct(
                shared,
                &mut stream,
                &Frame::Error {
                    code: ErrorCode::SessionLimit,
                    detail: format!(
                        "admission refused: {active} active sessions at the {} cap",
                        shared.cfg.max_sessions
                    ),
                },
            );
            return;
        }
        let entry = registry
            .entry(session.clone())
            .or_insert_with(SessionEntry::new);
        let resumed = entry.connects > 0;
        entry.phase = SessionPhase::Active;
        entry.connects += 1;
        let (tx, rx) = channel::<Vec<u8>>();
        entry.outbox = Some(tx.clone());
        entry.socket = stream.try_clone().ok();
        (tx, rx, entry.queued.clone(), resumed)
    };

    // Writer thread: the only place this session's socket is written.
    let writer = {
        let stream = match stream.try_clone() {
            Ok(s) => s,
            Err(_) => {
                finish_session(shared, &session, SessionPhase::Disconnected);
                return;
            }
        };
        let shared = shared.clone();
        std::thread::spawn(move || writer_loop(stream, outbox_rx, &shared))
    };

    let models: Vec<ModelInfo> = shared
        .cfg
        .models
        .iter()
        .map(|m| ModelInfo {
            name: m.name.clone(),
            dim: m.dim,
            mode: m.mode,
        })
        .collect();
    shared.ship(
        &outbox_tx,
        shared.encode(&Frame::Welcome {
            shard: shared.shard,
            shards: shared.shards,
            resumed,
            models,
        }),
    );
    drop(handshake_span);
    let _session_span = obs::span(obs::Category::Serve, "session");

    // Main loop under the idle watchdog.
    let _ = stream.set_read_timeout(Some(shared.cfg.effective_idle_timeout()));
    let final_phase = loop {
        match read_frame_counted(&mut stream, max_frame) {
            Ok((frame, bytes)) => {
                Gauges::bump(&shared.gauges.frames_recv, 1);
                Gauges::bump(&shared.gauges.bytes_recv, bytes as u64);
                let _frame_span =
                    obs::span_with(obs::Category::Serve, frame_span_name(&frame), bytes as u64);
                match handle_frame(shared, &session, &outbox_tx, &queued_slot, frame) {
                    SessionFlow::Continue => {}
                    SessionFlow::End(phase) => break phase,
                }
            }
            Err(FrameReadError::Eof) | Err(FrameReadError::Closed(_)) => {
                break SessionPhase::Disconnected;
            }
            Err(FrameReadError::TimedOut) => break SessionPhase::Reaped,
            Err(FrameReadError::TooLarge { declared, limit }) => {
                let detail = CommError::FrameTooLarge { declared, limit }.to_string();
                shared.ship(
                    &outbox_tx,
                    shared.encode(&Frame::Error {
                        code: ErrorCode::FrameTooLarge,
                        detail,
                    }),
                );
                break SessionPhase::Disconnected;
            }
            Err(FrameReadError::Malformed(detail)) => {
                shared.ship(
                    &outbox_tx,
                    shared.encode(&Frame::Error {
                        code: ErrorCode::Malformed,
                        detail,
                    }),
                );
                break SessionPhase::Disconnected;
            }
        }
    };

    // Teardown, in dependency order: record the phase (which clears the
    // registry's outbox clone), drop our own sender, let the writer
    // drain — so a final ERROR frame actually reaches the peer — and
    // only then close the socket.
    finish_session(shared, &session, final_phase);
    drop(outbox_tx);
    let _ = writer.join();
    let _ = stream.shutdown(Shutdown::Both);
}

enum SessionFlow {
    Continue,
    End(SessionPhase),
}

/// Span name for one inbound frame on a session track — static strings
/// because the span recorder stores `&'static str` names.
fn frame_span_name(frame: &Frame) -> &'static str {
    match frame {
        Frame::Hello { .. } => "frame-hello",
        Frame::Contribute { .. } => "frame-contribute",
        Frame::Fetch { .. } => "frame-fetch",
        Frame::Subscribe { .. } => "frame-subscribe",
        Frame::Bye => "frame-bye",
        _ => "frame-other",
    }
}

fn handle_frame(
    shared: &Arc<Shared>,
    session: &str,
    outbox: &Sender<Vec<u8>>,
    queued_slot: &Arc<AtomicUsize>,
    frame: Frame,
) -> SessionFlow {
    match frame {
        Frame::Contribute {
            model,
            seq,
            payload,
        } => {
            let Some(spec) = shared.cfg.models.get(model as usize) else {
                shared.ship(
                    outbox,
                    shared.encode(&Frame::Error {
                        code: ErrorCode::UnknownModel,
                        detail: format!("model id {model} is not in the table"),
                    }),
                );
                return SessionFlow::Continue;
            };
            let stream = match SparseStream::<f32>::decode(&payload) {
                Ok(s) => s,
                Err(e) => {
                    shared.ship(
                        outbox,
                        shared.encode(&Frame::Error {
                            code: ErrorCode::Malformed,
                            detail: format!("contribution payload invalid: {e}"),
                        }),
                    );
                    return SessionFlow::Continue;
                }
            };
            if stream.dim() != spec.dim {
                shared.ship(
                    outbox,
                    shared.encode(&Frame::Error {
                        code: ErrorCode::Malformed,
                        detail: format!(
                            "contribution declares dim {} but model '{}' has dim {}",
                            stream.dim(),
                            spec.name,
                            spec.dim
                        ),
                    }),
                );
                return SessionFlow::Continue;
            }
            let range = shared.ranges[model as usize];
            let out_of_range = match stream.sparse_view() {
                Some(view) => match (view.indices().first(), view.indices().last()) {
                    (Some(&first), Some(&last)) => first < range.lo || last >= range.hi,
                    _ => false, // empty support is trivially in range
                },
                // A dense contribution covers the whole index space; only
                // an unsharded server owns it all.
                None => shared.shards > 1,
            };
            if out_of_range {
                shared.ship(
                    outbox,
                    shared.encode(&Frame::Error {
                        code: ErrorCode::OutOfRange,
                        detail: format!(
                            "contribution support leaves shard {}'s range [{}, {}) of model '{}'",
                            shared.shard, range.lo, range.hi, spec.name
                        ),
                    }),
                );
                return SessionFlow::Continue;
            }

            // Backpressure: per-session quota first, then the shared
            // queue. Either rejection is a typed BUSY the client retries.
            let session_queued = queued_slot.load(Ordering::Acquire);
            if session_queued >= shared.cfg.session_queue {
                reject_busy(
                    shared,
                    session,
                    outbox,
                    model,
                    seq,
                    session_queued as u32,
                    shared.cfg.session_queue as u32,
                );
                return SessionFlow::Continue;
            }
            let job = Job {
                session: session.to_string(),
                model,
                seq,
                stream,
                queued_slot: queued_slot.clone(),
                outbox: outbox.clone(),
            };
            match shared.queue.try_push(job) {
                Ok(()) => {
                    queued_slot.fetch_add(1, Ordering::AcqRel);
                }
                Err(full) => {
                    reject_busy(
                        shared,
                        session,
                        outbox,
                        model,
                        seq,
                        full.queued as u32,
                        full.capacity as u32,
                    );
                }
            }
            SessionFlow::Continue
        }
        Frame::Fetch { model } => {
            // The state's frame goes straight behind the STATE header, in
            // the one buffer that is shipped.
            let answer = {
                let models = shared.models.lock().expect("models lock");
                models.get(model as usize).map(|state| {
                    let mut buf = shared.pool.lock().expect("pool lock").acquire();
                    Frame::encode_state_into(
                        &mut buf,
                        model,
                        state.generation,
                        state.generation,
                        |out| state.encode_append(out),
                    );
                    buf
                })
            };
            match answer {
                Some(buf) => shared.ship(outbox, buf),
                None => shared.ship(
                    outbox,
                    shared.encode(&Frame::Error {
                        code: ErrorCode::UnknownModel,
                        detail: format!("model id {model} is not in the table"),
                    }),
                ),
            }
            SessionFlow::Continue
        }
        Frame::Subscribe { model } => {
            if (model as usize) < shared.cfg.models.len() {
                let mut registry = shared.registry.lock().expect("registry lock");
                if let Some(entry) = registry.get_mut(session) {
                    entry.subscriptions.insert(model);
                }
            } else {
                shared.ship(
                    outbox,
                    shared.encode(&Frame::Error {
                        code: ErrorCode::UnknownModel,
                        detail: format!("model id {model} is not in the table"),
                    }),
                );
            }
            SessionFlow::Continue
        }
        Frame::Bye => SessionFlow::End(SessionPhase::Departed),
        // Server-to-client kinds arriving at the server are protocol
        // violations; close the session (only hurts the violator).
        _ => {
            shared.ship(
                outbox,
                shared.encode(&Frame::Error {
                    code: ErrorCode::Malformed,
                    detail: "server-bound connection sent a server-role frame".into(),
                }),
            );
            SessionFlow::End(SessionPhase::Disconnected)
        }
    }
}

fn reject_busy(
    shared: &Shared,
    session: &str,
    outbox: &Sender<Vec<u8>>,
    model: u16,
    seq: u64,
    queued: u32,
    capacity: u32,
) {
    Gauges::bump(&shared.gauges.busy_rejections, 1);
    {
        let mut registry = shared.registry.lock().expect("registry lock");
        if let Some(entry) = registry.get_mut(session) {
            entry.busy_rejections += 1;
        }
    }
    shared.ship(
        outbox,
        shared.encode(&Frame::Busy {
            model,
            seq,
            queued,
            capacity,
        }),
    );
}

/// Records a session's final phase and clears its live handles. Called
/// by the reader thread on every exit path; during server shutdown the
/// close was server-initiated, so the session is marked departed rather
/// than counted as churn.
fn finish_session(shared: &Shared, session: &str, phase: SessionPhase) {
    let shutting_down = shared.stop.load(Ordering::Acquire);
    let phase = if shutting_down {
        SessionPhase::Departed
    } else {
        phase
    };
    match phase {
        SessionPhase::Reaped => Gauges::bump(&shared.gauges.sessions_reaped, 1),
        SessionPhase::Disconnected => Gauges::bump(&shared.gauges.sessions_disconnected, 1),
        _ => {}
    }
    let mut registry = shared.registry.lock().expect("registry lock");
    if let Some(entry) = registry.get_mut(session) {
        entry.phase = phase;
        entry.outbox = None;
        entry.socket = None;
    }
}

fn writer_loop(mut stream: TcpStream, rx: Receiver<Vec<u8>>, shared: &Shared) {
    while let Ok(buf) = rx.recv() {
        if stream.write_all(&buf).is_err() {
            // The socket died; drain remaining frames so producers never
            // block (channel is unbounded anyway) and recycle buffers.
            shared.pool.lock().expect("pool lock").release(buf);
            while let Ok(buf) = rx.recv() {
                shared.pool.lock().expect("pool lock").release(buf);
            }
            return;
        }
        shared.pool.lock().expect("pool lock").release(buf);
    }
}

fn aggregator_loop(shared: &Arc<Shared>) {
    let policy = DensityPolicy::default();
    loop {
        let batch = shared
            .queue
            .wait_batch(shared.cfg.batch_max_jobs, shared.cfg.batch_linger);
        if batch.is_empty() {
            if shared.queue.is_closed() || shared.stop.load(Ordering::Acquire) {
                return;
            }
            continue;
        }

        // Encoding a model's state walks its whole accumulator, so only
        // do it for models somebody is actually subscribed to. (A session
        // subscribing mid-batch catches the next batch's update.)
        let subscribed: HashSet<u16> = {
            let registry = shared.registry.lock().expect("registry lock");
            registry
                .values()
                .filter(|e| e.phase == SessionPhase::Active && e.outbox.is_some())
                .flat_map(|e| e.subscriptions.iter().copied())
                .collect()
        };

        let mut touched: HashSet<u16> = HashSet::new();
        let mut applied_per_session: HashMap<String, u64> = HashMap::new();
        let mut acks: Vec<(Sender<Vec<u8>>, Frame)> = Vec::with_capacity(batch.len());
        let mut updates: Vec<(u16, Vec<u8>)> = Vec::new();
        {
            // One state lock per batch: this is the "server-side batched
            // application" the engine queue exists for.
            let mut models = shared.models.lock().expect("models lock");
            for job in batch {
                let state = &mut models[job.model as usize];
                match state.apply(&job.stream, &policy) {
                    Ok(stats) => {
                        Gauges::bump(&shared.gauges.applied_contributions, 1);
                        Gauges::bump(
                            &shared.gauges.applied_elements,
                            stats.elements_processed as u64,
                        );
                        touched.insert(job.model);
                        *applied_per_session.entry(job.session).or_insert(0) += 1;
                        acks.push((
                            job.outbox,
                            Frame::Ack {
                                model: job.model,
                                seq: job.seq,
                                generation: state.generation,
                            },
                        ));
                    }
                    Err(e) => {
                        // Admission validated dim and range, so this is
                        // unreachable in practice — but a typed answer
                        // beats a panic that would stall every session.
                        acks.push((
                            job.outbox,
                            Frame::Error {
                                code: ErrorCode::Malformed,
                                detail: format!("contribution rejected at apply time: {e}"),
                            },
                        ));
                    }
                }
                job.queued_slot.fetch_sub(1, Ordering::AcqRel);
            }
            for &model in &touched {
                if !subscribed.contains(&model) {
                    continue;
                }
                let state = &models[model as usize];
                let mut encoded = shared.pool.lock().expect("pool lock").acquire();
                Frame::encode_update_into(&mut encoded, model, state.generation, |out| {
                    state.encode_append(out)
                });
                updates.push((model, encoded));
            }
        }

        for (outbox, frame) in acks {
            shared.ship(&outbox, shared.encode(&frame));
        }
        if !applied_per_session.is_empty() || !updates.is_empty() {
            let mut registry = shared.registry.lock().expect("registry lock");
            for (session, n) in applied_per_session {
                if let Some(entry) = registry.get_mut(&session) {
                    entry.contributions += n;
                }
            }
            // Fan each touched model's fresh state out to subscribers:
            // encode once, clone per receiver.
            for (model, encoded) in updates {
                for entry in registry.values() {
                    if entry.phase == SessionPhase::Active && entry.subscriptions.contains(&model) {
                        if let Some(outbox) = &entry.outbox {
                            shared.ship(outbox, encoded.clone());
                        }
                    }
                }
                shared.pool.lock().expect("pool lock").release(encoded);
            }
        }
    }
}
