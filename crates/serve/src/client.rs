//! The client library: `connect → contribute → fetch/subscribe`.
//!
//! A [`ServeClient`] holds one socket per shard. Contributions are
//! split along the server's `partition_range` boundaries and a slice
//! goes to *every* shard — including empty slices — so all shards'
//! generation counters advance in lock step. BUSY answers surface as
//! retryable backpressure: [`ServeClient::try_contribute`] reports them
//! per shard, [`ServeClient::contribute`] retries the busy shards with
//! backoff until a deadline. [`ServeClient::fetch`] asks every shard for
//! its slice and folds the slices in shard order.

use std::collections::VecDeque;
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use sparcml_net::DEFAULT_MAX_FRAME_LEN;
use sparcml_stream::{partition_range, DensityPolicy, SparseStream, StreamError};

use crate::error::ServeError;
use crate::protocol::{read_frame, ErrorCode, Frame, FrameReadError, ModelInfo};

/// Handshake deadline and default ACK wait.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(10);
const ACK_TIMEOUT: Duration = Duration::from_secs(30);

/// One shard's answer to a contribution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardOutcome {
    /// Applied; the shard's generation after the apply.
    Acked {
        /// Post-apply generation counter.
        generation: u64,
    },
    /// Backpressure: the shard's queue (or this session's quota) was
    /// full. Retry later.
    Busy {
        /// Jobs queued at rejection time.
        queued: u32,
        /// The refusing queue's capacity.
        capacity: u32,
    },
}

/// A pushed state update from one shard (after
/// [`ServeClient::subscribe`]).
#[derive(Debug, Clone)]
pub struct UpdateEvent {
    /// Shard that pushed the update.
    pub shard: u16,
    /// Model the update is for.
    pub model: u16,
    /// The shard's generation at render time.
    pub generation: u64,
    /// The shard's rendered state (support within its range).
    pub state: SparseStream<f32>,
}

/// A merged fetch result.
#[derive(Debug, Clone)]
pub struct FetchedState {
    /// All shards' slices merged into one full-dimension stream.
    pub state: SparseStream<f32>,
    /// Per-shard generation counters (index = shard id).
    pub generations: Vec<u64>,
    /// Total contributions across shards.
    pub contributions: u64,
}

struct ShardConn {
    stream: TcpStream,
    scratch: Vec<u8>,
}

impl std::fmt::Debug for ShardConn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardConn")
            .field("peer", &self.stream.peer_addr().ok())
            .finish()
    }
}

/// A named client session against a serve daemon or shard group.
#[derive(Debug)]
pub struct ServeClient {
    session: String,
    conns: Vec<ShardConn>,
    models: Vec<ModelInfo>,
    resumed: bool,
    next_seq: u64,
    pending_updates: VecDeque<UpdateEvent>,
}

impl ServeClient {
    /// Connects a named session to every shard of a server. `addrs` must
    /// list all shards (any order; they identify themselves in WELCOME).
    /// Reconnecting with a previously used name resumes that session.
    pub fn connect<A: ToSocketAddrs>(
        session: &str,
        addrs: &[A],
    ) -> Result<ServeClient, ServeError> {
        if addrs.is_empty() {
            return Err(ServeError::Handshake("no shard addresses given".into()));
        }
        let mut welcomed: Vec<(u16, ShardConn, Vec<ModelInfo>, bool)> = Vec::new();
        let mut declared_shards = None;
        for addr in addrs {
            let addr: SocketAddr = addr
                .to_socket_addrs()?
                .next()
                .ok_or_else(|| ServeError::Handshake("address resolved to nothing".into()))?;
            let mut stream = TcpStream::connect_timeout(&addr, HANDSHAKE_TIMEOUT)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT))?;
            let mut scratch = Vec::new();
            Frame::Hello {
                session: session.to_string(),
            }
            .encode_into(&mut scratch);
            stream.write_all(&scratch)?;
            match read_frame(&mut stream, DEFAULT_MAX_FRAME_LEN).map_err(map_read_err)? {
                Frame::Welcome {
                    shard,
                    shards,
                    resumed,
                    models,
                } => {
                    match declared_shards {
                        None => declared_shards = Some(shards),
                        Some(s) if s != shards => {
                            return Err(ServeError::Handshake(format!(
                                "shard count disagreement: {s} vs {shards}"
                            )))
                        }
                        Some(_) => {}
                    }
                    welcomed.push((shard, ShardConn { stream, scratch }, models, resumed));
                }
                Frame::Error { code, detail } => {
                    return Err(ServeError::Rejected { code, detail });
                }
                other => {
                    return Err(ServeError::Protocol(format!(
                        "expected WELCOME, got frame kind {:#04x}",
                        other.kind()
                    )))
                }
            }
        }
        let shards = declared_shards.unwrap_or(0) as usize;
        if shards != welcomed.len() {
            return Err(ServeError::Handshake(format!(
                "server declares {shards} shards but {} addresses were given",
                welcomed.len()
            )));
        }
        welcomed.sort_by_key(|(shard, ..)| *shard);
        for (i, (shard, ..)) in welcomed.iter().enumerate() {
            if *shard as usize != i {
                return Err(ServeError::Handshake(format!(
                    "shard ids are not a permutation of 0..{shards} (saw {shard} at slot {i})"
                )));
            }
        }
        let models = welcomed[0].2.clone();
        for (shard, _, m, _) in &welcomed {
            if *m != models {
                return Err(ServeError::Handshake(format!(
                    "shard {shard} declares a different model table"
                )));
            }
        }
        let resumed = welcomed.iter().any(|(.., r)| *r);
        Ok(ServeClient {
            session: session.to_string(),
            conns: welcomed.into_iter().map(|(_, conn, ..)| conn).collect(),
            models,
            resumed,
            next_seq: 0,
            pending_updates: VecDeque::new(),
        })
    }

    /// This session's name.
    pub fn session(&self) -> &str {
        &self.session
    }

    /// Whether the server resumed a previously known session name.
    pub fn resumed(&self) -> bool {
        self.resumed
    }

    /// Number of shards this client is connected to.
    pub fn shards(&self) -> usize {
        self.conns.len()
    }

    /// The server's model table (WELCOME copy).
    pub fn models(&self) -> &[ModelInfo] {
        &self.models
    }

    /// Looks a model id up by name.
    pub fn model_id(&self, name: &str) -> Option<u16> {
        self.models
            .iter()
            .position(|m| m.name == name)
            .map(|i| i as u16)
    }

    /// Sends one contribution, splitting it across shards, and waits for
    /// every shard's answer. No retry: BUSY shards are reported in the
    /// outcome vector (index = shard id). Shards that answered ACK have
    /// applied their slice even if a sibling was busy.
    pub fn try_contribute(
        &mut self,
        model: u16,
        contribution: &SparseStream<f32>,
    ) -> Result<Vec<ShardOutcome>, ServeError> {
        let shard_ids: Vec<usize> = (0..self.conns.len()).collect();
        self.contribute_to(model, contribution, &shard_ids)
    }

    /// Sends one contribution and retries BUSY shards with exponential
    /// backoff until `deadline` elapses; errors with
    /// [`ServeError::ServerBusy`] if any shard is still refusing then.
    /// Returns the highest post-apply generation seen.
    pub fn contribute(
        &mut self,
        model: u16,
        contribution: &SparseStream<f32>,
        deadline: Duration,
    ) -> Result<u64, ServeError> {
        let start = Instant::now();
        let mut backoff = Duration::from_millis(1);
        let mut targets: Vec<usize> = (0..self.conns.len()).collect();
        let mut best_generation = 0u64;
        loop {
            let outcomes = self.contribute_to(model, contribution, &targets)?;
            let mut still_busy = Vec::new();
            let mut last_busy = None;
            for (slot, outcome) in targets.iter().zip(&outcomes) {
                match outcome {
                    ShardOutcome::Acked { generation } => {
                        best_generation = best_generation.max(*generation);
                    }
                    ShardOutcome::Busy { queued, capacity } => {
                        still_busy.push(*slot);
                        last_busy = Some((*queued, *capacity));
                    }
                }
            }
            if still_busy.is_empty() {
                return Ok(best_generation);
            }
            if start.elapsed() >= deadline {
                let (queued, capacity) = last_busy.unwrap_or((0, 0));
                return Err(ServeError::ServerBusy {
                    model,
                    queued,
                    capacity,
                });
            }
            std::thread::sleep(backoff.min(deadline.saturating_sub(start.elapsed())));
            backoff = (backoff * 2).min(Duration::from_millis(50));
            targets = still_busy;
        }
    }

    /// Sends `contribution`'s slices to the listed shards and collects
    /// their answers (same order as `targets`).
    fn contribute_to(
        &mut self,
        model: u16,
        contribution: &SparseStream<f32>,
        targets: &[usize],
    ) -> Result<Vec<ShardOutcome>, ServeError> {
        let spec = self
            .models
            .get(model as usize)
            .ok_or(ServeError::UnknownModel { model })?;
        if contribution.dim() != spec.dim {
            return Err(ServeError::Protocol(format!(
                "contribution dim {} does not match model '{}' dim {}",
                contribution.dim(),
                spec.name,
                spec.dim
            )));
        }
        let dim = spec.dim;
        let shards = self.conns.len();
        self.next_seq += 1;
        let seq = self.next_seq;

        // A dense contribution against a sharded server must be sliced
        // sparsely; materialize its nonzeros once.
        let sparse_fallback: Option<SparseStream<f32>> =
            if contribution.sparse_view().is_none() && shards > 1 {
                let pairs: Vec<(u32, f32)> = (0..dim as u32)
                    .filter_map(|i| {
                        let v = contribution.get(i);
                        (v != 0.0).then_some((i, v))
                    })
                    .collect();
                Some(SparseStream::from_pairs(dim, &pairs)?)
            } else {
                None
            };
        let sliceable = sparse_fallback.as_ref().unwrap_or(contribution);

        for &slot in targets {
            let conn = &mut self.conns[slot];
            // The slice is encoded once, behind the frame's header.
            Frame::encode_contribute_into(&mut conn.scratch, model, seq, |out| {
                match sliceable.sparse_view() {
                    Some(view) => {
                        let range = partition_range(dim, shards, slot);
                        let slice = view.range(range.lo, range.hi);
                        SparseStream::<f32>::encode_sparse_slice_append(dim, slice, out);
                    }
                    // Dense and unsharded: ship as-is.
                    None => sliceable.encode_append(out),
                }
            });
            let buf = std::mem::take(&mut conn.scratch);
            conn.stream.write_all(&buf)?;
            conn.scratch = buf;
        }

        let mut outcomes = Vec::with_capacity(targets.len());
        for &slot in targets {
            outcomes.push(self.await_answer(slot, model, seq)?);
        }
        Ok(outcomes)
    }

    /// Reads frames from one shard until the ACK/BUSY for `seq` arrives,
    /// buffering any UPDATE pushes that interleave.
    fn await_answer(
        &mut self,
        slot: usize,
        model: u16,
        seq: u64,
    ) -> Result<ShardOutcome, ServeError> {
        let deadline = Instant::now() + ACK_TIMEOUT;
        loop {
            let frame = self.recv(slot, deadline.saturating_duration_since(Instant::now()))?;
            match frame {
                Frame::Ack {
                    model: m,
                    seq: s,
                    generation,
                } if m == model && s == seq => return Ok(ShardOutcome::Acked { generation }),
                Frame::Busy {
                    model: m,
                    seq: s,
                    queued,
                    capacity,
                } if m == model && s == seq => return Ok(ShardOutcome::Busy { queued, capacity }),
                Frame::Update {
                    model,
                    generation,
                    payload,
                } => {
                    self.pending_updates.push_back(UpdateEvent {
                        shard: slot as u16,
                        model,
                        generation,
                        state: SparseStream::decode(&payload)?,
                    });
                }
                Frame::Error { code, detail } => return Err(ServeError::Rejected { code, detail }),
                // Stale answers to an abandoned seq (e.g. a retried
                // contribution) are dropped.
                Frame::Ack { .. } | Frame::Busy { .. } => {}
                other => {
                    return Err(ServeError::Protocol(format!(
                        "unexpected frame kind {:#04x} while awaiting an ACK",
                        other.kind()
                    )))
                }
            }
        }
    }

    /// Fetches `model`'s state from every shard and merges the slices
    /// into one full-dimension stream.
    pub fn fetch(&mut self, model: u16) -> Result<FetchedState, ServeError> {
        if model as usize >= self.models.len() {
            return Err(ServeError::UnknownModel { model });
        }
        let dim = self.models[model as usize].dim;
        for slot in 0..self.conns.len() {
            self.send(slot, &Frame::Fetch { model })?;
        }
        let mut slices = Vec::with_capacity(self.conns.len());
        let mut generations = vec![0u64; self.conns.len()];
        let mut total_contributions = 0u64;
        // `recv` needs `&mut self`, so iterating `generations` directly
        // would alias the borrow.
        #[allow(clippy::needless_range_loop)]
        for slot in 0..self.conns.len() {
            let deadline = Instant::now() + ACK_TIMEOUT;
            loop {
                let frame = self.recv(slot, deadline.saturating_duration_since(Instant::now()))?;
                match frame {
                    Frame::State {
                        model: m,
                        generation,
                        contributions,
                        payload,
                    } if m == model => {
                        let slice = SparseStream::<f32>::decode(&payload)?;
                        if slice.dim() != dim {
                            return Err(StreamError::DimMismatch {
                                left: dim,
                                right: slice.dim(),
                            }
                            .into());
                        }
                        slices.push(slice);
                        generations[slot] = generation;
                        total_contributions += contributions;
                        break;
                    }
                    Frame::Update {
                        model,
                        generation,
                        payload,
                    } => {
                        self.pending_updates.push_back(UpdateEvent {
                            shard: slot as u16,
                            model,
                            generation,
                            state: SparseStream::decode(&payload)?,
                        });
                    }
                    Frame::Error { code, detail } => {
                        return Err(ServeError::Rejected { code, detail })
                    }
                    Frame::Ack { .. } | Frame::Busy { .. } => {}
                    other => {
                        return Err(ServeError::Protocol(format!(
                            "unexpected frame kind {:#04x} while awaiting STATE",
                            other.kind()
                        )))
                    }
                }
            }
        }
        // One slice per shard (there is always at least one), disjoint
        // unless a shard misbehaves: fold them in shard order, so a lone
        // shard's slice comes back as it arrived, dense or sparse.
        let policy = DensityPolicy::default();
        let mut slices = slices.into_iter();
        let mut state = slices.next().expect("one slice per shard");
        for slice in slices {
            state.add_assign_with(&slice, &policy)?;
        }
        Ok(FetchedState {
            state,
            generations,
            contributions: total_contributions,
        })
    }

    /// Asks every shard to push UPDATE frames for `model` after each
    /// batch that touches it. Collect them with
    /// [`ServeClient::next_update`].
    pub fn subscribe(&mut self, model: u16) -> Result<(), ServeError> {
        if model as usize >= self.models.len() {
            return Err(ServeError::UnknownModel { model });
        }
        for slot in 0..self.conns.len() {
            self.send(slot, &Frame::Subscribe { model })?;
        }
        Ok(())
    }

    /// Returns the next buffered or arriving UPDATE within `timeout`.
    /// Polls the shards round-robin; a quiet server yields
    /// [`ServeError::Timeout`].
    pub fn next_update(&mut self, timeout: Duration) -> Result<UpdateEvent, ServeError> {
        if let Some(event) = self.pending_updates.pop_front() {
            return Ok(event);
        }
        let deadline = Instant::now() + timeout;
        let poll = Duration::from_millis(10);
        loop {
            for slot in 0..self.conns.len() {
                match self.recv(slot, poll) {
                    Ok(Frame::Update {
                        model,
                        generation,
                        payload,
                    }) => {
                        return Ok(UpdateEvent {
                            shard: slot as u16,
                            model,
                            generation,
                            state: SparseStream::decode(&payload)?,
                        })
                    }
                    Ok(Frame::Error { code, detail }) => {
                        return Err(ServeError::Rejected { code, detail })
                    }
                    Ok(_) => {}
                    Err(ServeError::Timeout) => {}
                    Err(e) => return Err(e),
                }
            }
            if Instant::now() >= deadline {
                return Err(ServeError::Timeout);
            }
        }
    }

    /// Says BYE to every shard and closes the sockets. The session name
    /// stays resumable on the server.
    pub fn close(mut self) {
        for slot in 0..self.conns.len() {
            let _ = self.send(slot, &Frame::Bye);
        }
        for conn in &self.conns {
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
    }

    fn send(&mut self, slot: usize, frame: &Frame) -> Result<(), ServeError> {
        let conn = &mut self.conns[slot];
        frame.encode_into(&mut conn.scratch);
        let buf = std::mem::take(&mut conn.scratch);
        let sent = conn.stream.write_all(&buf);
        conn.scratch = buf;
        sent?;
        Ok(())
    }

    fn recv(&mut self, slot: usize, timeout: Duration) -> Result<Frame, ServeError> {
        let conn = &mut self.conns[slot];
        conn.stream
            .set_read_timeout(Some(timeout.max(Duration::from_millis(1))))?;
        read_frame(&mut conn.stream, DEFAULT_MAX_FRAME_LEN).map_err(map_read_err)
    }
}

fn map_read_err(e: FrameReadError) -> ServeError {
    match e {
        FrameReadError::Eof => ServeError::Disconnected {
            detail: "connection closed".into(),
        },
        FrameReadError::Closed(detail) => ServeError::Disconnected { detail },
        FrameReadError::TimedOut => ServeError::Timeout,
        FrameReadError::TooLarge { declared, limit } => {
            ServeError::FrameTooLarge { declared, limit }
        }
        FrameReadError::Malformed(detail) => ServeError::Protocol(detail),
    }
}

/// Lets handshake rejections pattern-match on the server's reason.
impl ServeError {
    /// True when the error is the server's typed `DuplicateSession`
    /// rejection.
    pub fn is_duplicate_session(&self) -> bool {
        matches!(
            self,
            ServeError::Rejected {
                code: ErrorCode::DuplicateSession,
                ..
            }
        )
    }
}
