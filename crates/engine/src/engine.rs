//! The progress engine: a persistent per-rank thread that owns the
//! transport and drains a submission queue of collective jobs.
//!
//! # Execution model
//!
//! `submit_*` enqueues a job and returns a [`Ticket`] immediately; the
//! engine thread (`sparcml-engine-{rank}`) pulls jobs off the queue and
//! executes them in *batches*:
//!
//! 1. **Agree** — engines across ranks agree on the common prefix of
//!    submitted jobs (one control round per batch, on a reserved
//!    [`sparcml_net::TagBlock`]). Submissions happen in program order on
//!    every rank, so the common prefix is exactly the set of jobs every
//!    rank can execute without deadlocking a peer. The same round
//!    (`agree_batch`) also carries the batch's *agreed* non-zero counts
//!    and the fill factor the engine has measured on its own buckets, so
//!    the density-aware planner costs no extra control latency — and
//!    what it plans depends on nothing but the jobs the engine was given
//!    (no observability switch is read).
//! 2. **Plan** — the batch is partitioned into fusion buckets
//!    ([`FusionPolicy`]); planning uses only rank-invariant facts: job
//!    kind, logical dimension, and the agreed nnz/fill from step 1. The
//!    density guard stops fusing once a bucket's projected union density
//!    passes 0.5 and turns bandwidth-bound, so every rank still derives
//!    the identical schedule. A bucket of several jobs never passes
//!    [`FusionPolicy::max_chunk_elements`].
//! 3. **Execute** — buckets run in submission order. A multi-job
//!    bucket fuses its streams into one concatenated index space,
//!    reduces them as a single collective, splits the result, and
//!    resolves each ticket. A single job larger than the chunk cap is
//!    reduced in even index chunks instead.
//!
//! # Contract
//!
//! Every rank must submit the same sequence of jobs (kind and dimension)
//! — the same program-order contract all SparCML collectives already
//! rely on. A collective failure poisons the engine: the failing
//! bucket's tickets (and all later ones) resolve to the error instead of
//! hanging, and [`Engine::join`] still returns the transport.

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use sparcml_core::{Algorithm, AllreduceConfig, CollError, Communicator};
use sparcml_net::{CommStats, TagBlockAllocator, Transport};
use sparcml_obs as obs;
use sparcml_stream::{fuse_streams, split_fused, FusedLayout, Scalar, SparseStream};

use crate::agree::agree_batch;
use crate::fusion::{plan_buckets, FusionPolicy, JobMeta};
use crate::ticket::{Ticket, TicketState};

/// Configuration of a progress engine.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Bucketing/fusion/chunking thresholds.
    pub fusion: FusionPolicy,
    /// Allreduce schedule for engine jobs ([`Algorithm::Auto`] = the
    /// adaptive selector, per fused bucket).
    pub algorithm: Algorithm,
    /// Collective options (δ policy, quantization, …) shared by all
    /// engine allreduces.
    pub allreduce: AllreduceConfig,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            fusion: FusionPolicy::default(),
            algorithm: Algorithm::Auto,
            allreduce: AllreduceConfig::default(),
        }
    }
}

/// Observability counters of one engine (cheap to clone; see
/// [`Engine::stats`]).
#[derive(Debug, Clone, Default)]
pub struct EngineStats {
    /// Jobs submitted so far.
    pub submitted: u64,
    /// Jobs executed (tickets resolved) so far.
    pub executed: u64,
    /// Agreement/batch rounds run.
    pub batches: u64,
    /// Buckets (collectives actually launched, counting a chunked bucket
    /// once).
    pub buckets: u64,
    /// Jobs that shared a bucket with at least one other job.
    pub fused_jobs: u64,
    /// Buckets split into chunks: singletons whose job is larger than
    /// [`FusionPolicy::max_chunk_elements`] (a fused bucket never is).
    pub chunked_buckets: u64,
    /// Total chunks executed across chunked buckets.
    pub chunks: u64,
    /// Submission indices of the latest batch's jobs in the order the
    /// engine executed them (bucket by bucket) — the schedule, observable.
    /// Each batch replaces the previous one's, so the list stays one
    /// batch long however long the engine runs; while a batch runs it
    /// holds the jobs of that batch executed so far.
    pub execution_order: Vec<u64>,
    /// Transport counters accumulated by the engine since it started
    /// (messages, bytes, collective ops — the fused-vs-unfused traffic
    /// evidence).
    pub comm: CommStats,
    /// Telemetry collected on the progress thread (peer waits, density
    /// samples, compute time). Collection is thread-local, so the engine
    /// publishes its snapshot here when it stops and
    /// [`Engine::finish_into`] adopts it into the calling rank's view —
    /// without this hand-off the engine's waits would vanish from
    /// `cluster_report()`.
    pub telemetry: sparcml_obs::telemetry::LocalTelemetry,
}

/// One queued collective job. Inputs are held behind an [`Arc`] so a
/// group submission of shared gradients crosses to the progress thread
/// without copying stream payloads (see
/// [`Engine::submit_allreduce_group_shared`]).
enum Job<V: Scalar> {
    /// Global sum, fusable with its neighbors.
    Allreduce {
        idx: u64,
        input: Arc<SparseStream<V>>,
        tx: Sender<Result<SparseStream<V>, CollError>>,
    },
    /// Gather of every rank's stream; never fused.
    Allgather {
        idx: u64,
        input: Arc<SparseStream<V>>,
        tx: Sender<Result<Vec<SparseStream<V>>, CollError>>,
    },
}

impl<V: Scalar> Job<V> {
    fn idx(&self) -> u64 {
        match self {
            Job::Allreduce { idx, .. } | Job::Allgather { idx, .. } => *idx,
        }
    }

    fn meta(&self) -> JobMeta {
        let (input, fusable) = match self {
            Job::Allreduce { input, .. } => (input, true),
            Job::Allgather { input, .. } => (input, false),
        };
        JobMeta {
            dim: input.dim(),
            nnz: input.stored_len(),
            fusable,
        }
    }

    /// Resolves the ticket with `err`.
    fn fail(self, err: CollError) {
        match self {
            Job::Allreduce { tx, .. } => {
                let _ = tx.send(Err(err));
            }
            Job::Allgather { tx, .. } => {
                let _ = tx.send(Err(err));
            }
        }
    }
}

/// What the submission side sends to the progress thread. A `Jobs` group
/// is delivered atomically, so a group submission can never be split
/// across two agreement rounds.
enum Msg<V: Scalar> {
    Jobs(Vec<Job<V>>),
    Stop,
}

/// A background progress engine over transport `T` carrying streams of
/// `V` (see the module docs for the execution model).
///
/// Obtain one from a communicator via
/// [`CommunicatorEngineExt::engine`], submit jobs, wait their
/// [`Ticket`]s, then call [`Engine::finish_into`] (or [`Engine::join`])
/// to get the transport back.
pub struct Engine<T: Transport + Send + 'static, V: Scalar> {
    tx: Sender<Msg<V>>,
    handle: Option<JoinHandle<T>>,
    next_idx: u64,
    rank: usize,
    size: usize,
    thread_name: String,
    stats: Arc<Mutex<EngineStats>>,
}

impl<T: Transport + Send + 'static, V: Scalar> Engine<T, V> {
    /// Starts a progress thread owning `transport`.
    pub fn start(transport: T, cfg: EngineConfig) -> Engine<T, V> {
        let rank = transport.rank();
        let size = transport.size();
        let thread_name = format!("sparcml-engine-{rank}");
        let (tx, rx) = channel::<Msg<V>>();
        let stats = Arc::new(Mutex::new(EngineStats::default()));
        let thread_stats = stats.clone();
        let handle = std::thread::Builder::new()
            .name(thread_name.clone())
            .spawn(move || progress_loop(transport, cfg, rx, thread_stats))
            .expect("spawn engine progress thread");
        Engine {
            tx,
            handle: Some(handle),
            next_idx: 0,
            rank,
            size,
            thread_name,
            stats,
        }
    }

    /// This rank's id in `[0, size)`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Communicator size `P`.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The progress thread's name (`sparcml-engine-{rank}`).
    pub fn thread_name(&self) -> &str {
        &self.thread_name
    }

    /// A snapshot of the engine's counters.
    pub fn stats(&self) -> EngineStats {
        self.stats.lock().expect("engine stats lock").clone()
    }

    fn note_submissions(&mut self, n: u64) {
        self.stats.lock().expect("engine stats lock").submitted += n;
    }

    fn enqueue<R>(&mut self, jobs: Vec<Job<V>>, tickets: Vec<Ticket<R>>) -> Vec<Ticket<R>> {
        if jobs.is_empty() {
            // Nothing to do (e.g. an empty group submission): never wake
            // the progress thread with a zero-job message — it would run
            // a spurious agreement round its peers are not entering.
            return tickets;
        }
        let _span = obs::span_with(obs::Category::Engine, "submit", jobs.len() as u64);
        self.note_submissions(jobs.len() as u64);
        if self.tx.send(Msg::Jobs(jobs)).is_err() {
            // The progress thread is gone; resolve every ticket with the
            // typed worker failure instead of hanging the caller.
            return tickets
                .into_iter()
                .map(|t| {
                    let err = CollError::WorkerPanicked {
                        thread: self.thread_name.clone(),
                        message: "engine thread died before accepting the job".into(),
                    };
                    Ticket::failed(t.idx, self.thread_name.clone(), err)
                })
                .collect();
        }
        tickets
    }

    fn allreduce_job(&mut self, input: Arc<SparseStream<V>>) -> (Job<V>, Ticket<SparseStream<V>>) {
        let idx = self.next_idx;
        self.next_idx += 1;
        let (tx, rx) = channel();
        let job = Job::Allreduce { idx, input, tx };
        let ticket = Ticket {
            idx,
            thread_name: self.thread_name.clone(),
            state: TicketState::Pending(rx),
        };
        (job, ticket)
    }

    /// Submits a fusable allreduce of `input`; the ticket resolves to the
    /// global element-wise sum.
    pub fn submit_allreduce(&mut self, input: &SparseStream<V>) -> Ticket<SparseStream<V>> {
        let (job, ticket) = self.allreduce_job(Arc::new(input.clone()));
        self.enqueue(vec![job], vec![ticket])
            .pop()
            .expect("one ticket")
    }

    /// Submits a group of allreduce jobs atomically: the group lands in
    /// one agreement batch on every rank, so its jobs are guaranteed to
    /// be considered for fusion together (subject to the
    /// [`FusionPolicy`] caps). The natural per-step call for per-layer
    /// gradients.
    pub fn submit_allreduce_group(
        &mut self,
        inputs: &[&SparseStream<V>],
    ) -> Vec<Ticket<SparseStream<V>>> {
        let mut jobs = Vec::with_capacity(inputs.len());
        let mut tickets = Vec::with_capacity(inputs.len());
        for input in inputs {
            let (job, ticket) = self.allreduce_job(Arc::new((*input).clone()));
            jobs.push(job);
            tickets.push(ticket);
        }
        self.enqueue(jobs, tickets)
    }

    /// [`Engine::submit_allreduce_group`] without the payload copy:
    /// callers that already hold their gradients behind [`Arc`]s hand
    /// them to the progress thread by reference count alone. For large
    /// per-layer batches the per-step clone is a measurable fraction of
    /// the exchange itself, so this is the preferred hot-loop entry
    /// point.
    pub fn submit_allreduce_group_shared(
        &mut self,
        inputs: &[Arc<SparseStream<V>>],
    ) -> Vec<Ticket<SparseStream<V>>> {
        let mut jobs = Vec::with_capacity(inputs.len());
        let mut tickets = Vec::with_capacity(inputs.len());
        for input in inputs {
            let (job, ticket) = self.allreduce_job(Arc::clone(input));
            jobs.push(job);
            tickets.push(ticket);
        }
        self.enqueue(jobs, tickets)
    }

    /// Submits a sparse allgather; the ticket resolves to every rank's
    /// stream in rank order.
    pub fn submit_allgather(&mut self, input: &SparseStream<V>) -> Ticket<Vec<SparseStream<V>>> {
        let idx = self.next_idx;
        self.next_idx += 1;
        let (tx, rx) = channel();
        let job = Job::Allgather {
            idx,
            input: Arc::new(input.clone()),
            tx,
        };
        let ticket = Ticket {
            idx,
            thread_name: self.thread_name.clone(),
            state: TicketState::Pending(rx),
        };
        self.enqueue(vec![job], vec![ticket])
            .pop()
            .expect("one ticket")
    }

    /// Stops the progress thread (after it finishes every already
    /// submitted job) and returns the transport. Callers should wait all
    /// tickets first; any left unresolved get their results discarded.
    pub fn join(mut self) -> Result<T, CollError> {
        let _ = self.tx.send(Msg::Stop);
        let handle = self.handle.take().expect("engine joined once");
        handle
            .join()
            .map_err(|payload| CollError::worker_panicked(&self.thread_name, payload.as_ref()))
    }

    /// [`Engine::join`], reinstalling the transport into `comm` — the
    /// inverse of [`CommunicatorEngineExt::engine`].
    pub fn finish_into(self, comm: &mut Communicator<T>) -> Result<(), CollError> {
        let stats = Arc::clone(&self.stats);
        *comm.transport_mut() = self.join()?;
        // The progress thread published its thread-local telemetry on
        // exit; fold it into this rank's collector.
        obs::telemetry::adopt(&stats.lock().expect("engine stats lock").telemetry);
        Ok(())
    }
}

impl<T: Transport + Send + 'static, V: Scalar> Drop for Engine<T, V> {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            let _ = self.tx.send(Msg::Stop);
            let _ = handle.join(); // transport (with its session) is dropped
        }
    }
}

impl<T: Transport + Send + 'static, V: Scalar> std::fmt::Debug for Engine<T, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("rank", &self.rank)
            .field("size", &self.size)
            .field("thread", &self.thread_name)
            .finish()
    }
}

/// Hands a communicator's transport session to a new progress engine.
pub trait CommunicatorEngineExt<T: Transport + Send + 'static> {
    /// Detaches the session's transport onto a new [`Engine`]'s progress
    /// thread. While the engine runs, this communicator holds only an
    /// inert placeholder —
    /// do not launch collectives on it until
    /// [`Engine::finish_into`] reinstalls the transport.
    fn engine<V: Scalar>(&mut self, cfg: EngineConfig) -> Engine<T, V>;
}

impl<T: Transport + Send + 'static> CommunicatorEngineExt<T> for Communicator<T> {
    fn engine<V: Scalar>(&mut self, cfg: EngineConfig) -> Engine<T, V> {
        Engine::start(self.transport_mut().detach(), cfg)
    }
}

// ---------------------------------------------------------------------------
// The progress thread
// ---------------------------------------------------------------------------

fn progress_loop<T: Transport + Send + 'static, V: Scalar>(
    transport: T,
    cfg: EngineConfig,
    rx: Receiver<Msg<V>>,
    stats: Arc<Mutex<EngineStats>>,
) -> T {
    obs::register_thread();
    let baseline = transport.stats().snapshot();
    let mut comm = Communicator::new(transport);
    let mut control = TagBlockAllocator::new();
    let mut pending: VecDeque<Job<V>> = VecDeque::new();
    let mut executed: u64 = 0;
    let mut stopping = false;
    // Set on the first collective failure: the transport may hold stale
    // in-flight frames, so every later job fails fast instead of risking
    // a mis-matched schedule.
    let mut poison: Option<CollError> = None;

    let sink = StatsSink {
        stats: &stats,
        baseline: &baseline,
        reduced: Cell::new((0, 0)),
    };
    loop {
        if pending.is_empty() {
            if stopping {
                break;
            }
            match rx.recv() {
                Ok(Msg::Jobs(jobs)) => pending.extend(jobs),
                // Stop, or every submission handle dropped: drain and exit.
                Ok(Msg::Stop) | Err(_) => {
                    stopping = true;
                    continue;
                }
            }
        }
        while let Ok(msg) = rx.try_recv() {
            match msg {
                Msg::Jobs(jobs) => pending.extend(jobs),
                Msg::Stop => stopping = true,
            }
        }
        if pending.is_empty() {
            // Only control traffic (a Stop, or a defensive empty group)
            // arrived: never run an agreement round with no work — peers
            // are not entering one.
            continue;
        }
        if let Some(err) = &poison {
            let err = err.clone();
            fail_all(pending.drain(..), err, &sink);
            continue;
        }
        // Batch boundary: the common submitted prefix across ranks. Every
        // engine enters only while holding ≥ 1 pending job, so the agreed
        // prefix always extends past `executed`. The same round carries
        // the planner's density facts — per-rank stored lengths drift
        // under error-feedback Top-k, so the density guard may only see
        // *agreed* nnz and an agreed fill factor, the latter from what
        // this engine's own buckets took in and gave back so far.
        let n_local = executed + pending.len() as u64;
        let agree_span = obs::span_with(obs::Category::Engine, "agree-batch", n_local);
        let nnz: Vec<u64> = pending.iter().map(|j| j.meta().nnz as u64).collect();
        let (reduced_in, reduced_out) = sink.reduced.get();
        let agreement = agree_batch(
            comm.transport_mut(),
            control.next_block(),
            executed,
            n_local,
            reduced_out,
            reduced_in,
            &nnz,
        );
        let (n_common, fill, agreed_nnz) = match agreement {
            Ok(agreed) => agreed,
            Err(e) => {
                let e: CollError = e.into();
                poison = Some(e.clone());
                fail_all(pending.drain(..), e, &sink);
                continue;
            }
        };
        debug_assert!(
            n_common > executed && n_common <= n_local,
            "agreement out of range"
        );
        drop(agree_span);
        let batch: Vec<Job<V>> = pending.drain(..(n_common - executed) as usize).collect();
        executed = n_common;
        {
            let mut s = sink.stats.lock().expect("engine stats lock");
            s.batches += 1;
            s.execution_order.clear();
        }
        let _batch_span = obs::span_with(obs::Category::Engine, "batch", batch.len() as u64);
        run_batch(&mut comm, &cfg, batch, fill, agreed_nnz, &sink, &mut poison);
    }
    stats.lock().expect("engine stats lock").telemetry = obs::telemetry::snapshot_local();
    comm.into_transport()
}

/// The progress thread's window into the shared counters: publishes
/// per-bucket completions *before* the bucket's tickets resolve, so a
/// caller that has observed `Ticket::wait` return always reads counters
/// covering its own job.
struct StatsSink<'a> {
    stats: &'a Arc<Mutex<EngineStats>>,
    /// Transport counters at engine start; `EngineStats::comm` is the
    /// delta from here.
    baseline: &'a CommStats,
    /// Stored lengths this engine's allreduce buckets took in and the
    /// nnz their results came back with: `(Σin, Σout)`, the fill factor's
    /// two terms. Nothing outside the progress thread feeds it, so the
    /// plan is a function of the jobs alone.
    reduced: Cell<(u64, u64)>,
}

impl StatsSink<'_> {
    /// Records `jobs` tickets about to resolve and refreshes the traffic
    /// delta. Must be called before the results are sent.
    fn note_resolving(&self, current: &CommStats, jobs: u64) {
        let mut s = self.stats.lock().expect("engine stats lock");
        s.executed += jobs;
        s.comm = current.since(self.baseline);
    }
}

/// Fails a set of jobs, counting their tickets as resolved first.
fn fail_all<V: Scalar>(
    jobs: impl ExactSizeIterator<Item = Job<V>>,
    err: CollError,
    sink: &StatsSink<'_>,
) {
    {
        let mut s = sink.stats.lock().expect("engine stats lock");
        s.executed += jobs.len() as u64;
    }
    for job in jobs {
        job.fail(err.clone());
    }
}

/// Plans and executes one agreed batch. `fill` and `agreed_nnz` come
/// from the batch-boundary [`agree_batch`] round (fill is P — the
/// conservative zero-overlap prior — until a bucket has been reduced).
fn run_batch<T: Transport + Send + 'static, V: Scalar>(
    comm: &mut Communicator<T>,
    cfg: &EngineConfig,
    batch: Vec<Job<V>>,
    fill: f64,
    agreed_nnz: Vec<u64>,
    sink: &StatsSink<'_>,
    poison: &mut Option<CollError>,
) {
    let mut metas: Vec<JobMeta> = batch.iter().map(Job::meta).collect();
    for (meta, nnz) in metas.iter_mut().zip(agreed_nnz) {
        meta.nnz = nnz as usize;
    }
    let plan_span = obs::span_with(obs::Category::Engine, "bucket-plan", metas.len() as u64);
    let buckets = plan_buckets(&metas, &cfg.fusion, fill);
    drop(plan_span);
    let mut slots: Vec<Option<Job<V>>> = batch.into_iter().map(Some).collect();
    for bucket in buckets {
        let jobs: Vec<Job<V>> = bucket
            .iter()
            .map(|&i| slots[i].take().expect("each job scheduled exactly once"))
            .collect();
        if let Some(err) = poison {
            fail_all(jobs.into_iter(), err.clone(), sink);
            continue;
        }
        if let Err(e) = run_bucket(comm, cfg, jobs, sink) {
            *poison = Some(e);
        }
    }
}

/// Executes one bucket and resolves its tickets. Returns the failure (if
/// any) after delivering it to every ticket in the bucket.
fn run_bucket<T: Transport + Send + 'static, V: Scalar>(
    comm: &mut Communicator<T>,
    cfg: &EngineConfig,
    jobs: Vec<Job<V>>,
    sink: &StatsSink<'_>,
) -> Result<(), CollError> {
    {
        let mut s = sink.stats.lock().expect("engine stats lock");
        s.buckets += 1;
        if jobs.len() > 1 {
            s.fused_jobs += jobs.len() as u64;
        }
        s.execution_order.extend(jobs.iter().map(Job::idx));
    }
    // Allgathers are always singleton buckets (the planner never fuses
    // them); everything else is a bucket of allreduces.
    if matches!(jobs[0], Job::Allgather { .. }) {
        debug_assert_eq!(jobs.len(), 1, "allgather buckets are singletons");
        let Some(Job::Allgather { input, tx, .. }) = jobs.into_iter().next() else {
            unreachable!("checked above")
        };
        let result = comm
            .allgather(input.as_ref())
            .launch()
            .and_then(|h| h.wait());
        let failure = result.as_ref().err().cloned();
        sink.note_resolving(comm.stats(), 1);
        let _ = tx.send(result);
        return failure.map_or(Ok(()), Err);
    }
    run_allreduce_bucket(comm, cfg, jobs, sink)
}

/// Executes a bucket of allreduce jobs: fuse → reduce → split → resolve
/// tickets (a singleton is reduced as it is, chunked when oversized).
fn run_allreduce_bucket<T: Transport + Send + 'static, V: Scalar>(
    comm: &mut Communicator<T>,
    cfg: &EngineConfig,
    jobs: Vec<Job<V>>,
    sink: &StatsSink<'_>,
) -> Result<(), CollError> {
    let mut inputs: Vec<Arc<SparseStream<V>>> = Vec::with_capacity(jobs.len());
    let mut txs: Vec<Sender<Result<SparseStream<V>, CollError>>> = Vec::with_capacity(jobs.len());
    for job in jobs {
        match job {
            Job::Allreduce { input, tx, .. } => {
                inputs.push(input);
                txs.push(tx);
            }
            Job::Allgather { .. } => unreachable!("planner never fuses allgathers"),
        }
    }
    let outcome = (|| -> Result<Vec<SparseStream<V>>, CollError> {
        if inputs.len() == 1 {
            let _exec = obs::span_with(obs::Category::Engine, "execute", inputs[0].dim() as u64);
            let result = run_chunked_allreduce(comm, cfg, inputs[0].as_ref(), sink)?;
            return Ok(vec![result]);
        }
        let fuse_span = obs::span_with(obs::Category::Engine, "fuse", inputs.len() as u64);
        let refs: Vec<&SparseStream<V>> = inputs.iter().map(|s| s.as_ref()).collect();
        let (fused, layout) = fuse_streams(&refs)?;
        drop(fuse_span);
        // The planner closes a bucket before it passes the chunk cap, so
        // a fused stream is reduced whole.
        debug_assert!(fused.dim() <= cfg.fusion.max_chunk_elements);
        let fused_result = {
            let _exec = obs::span_with(obs::Category::Engine, "execute", fused.dim() as u64);
            allreduce_once(comm, cfg, &fused)?
        };
        let _split_span = obs::span_with(obs::Category::Engine, "split", layout.parts() as u64);
        Ok(split_fused(&fused_result, &layout)?)
    })();
    // Counters first: a caller observing its ticket resolve must already
    // see this bucket's executed/traffic numbers.
    sink.note_resolving(comm.stats(), txs.len() as u64);
    match outcome {
        Ok(parts) => {
            debug_assert_eq!(parts.len(), txs.len());
            let (reduced_in, reduced_out) = sink.reduced.get();
            sink.reduced.set((
                reduced_in + inputs.iter().map(|s| s.stored_len() as u64).sum::<u64>(),
                reduced_out + parts.iter().map(|s| s.nnz() as u64).sum::<u64>(),
            ));
            for (part, tx) in parts.into_iter().zip(txs) {
                let _ = tx.send(Ok(part));
            }
            Ok(())
        }
        Err(e) => {
            for tx in txs {
                let _ = tx.send(Err(e.clone()));
            }
            Err(e)
        }
    }
}

/// Reduces one stream as one collective under the engine's schedule and
/// options.
fn allreduce_once<T: Transport + Send + 'static, V: Scalar>(
    comm: &mut Communicator<T>,
    cfg: &EngineConfig,
    stream: &SparseStream<V>,
) -> Result<SparseStream<V>, CollError> {
    comm.allreduce(stream)
        .algorithm(cfg.algorithm)
        .config(cfg.allreduce)
        .launch()
        .and_then(|h| h.wait())
}

/// Reduces a singleton bucket's stream, splitting it into even index
/// chunks when its dimension exceeds the chunking threshold (bounds peak
/// frame size of an oversized job).
fn run_chunked_allreduce<T: Transport + Send + 'static, V: Scalar>(
    comm: &mut Communicator<T>,
    cfg: &EngineConfig,
    input: &SparseStream<V>,
    sink: &StatsSink<'_>,
) -> Result<SparseStream<V>, CollError> {
    if input.dim() <= cfg.fusion.max_chunk_elements {
        return allreduce_once(comm, cfg, input);
    }
    let layout = FusedLayout::even_chunks(input.dim(), cfg.fusion.max_chunk_elements)?;
    let chunks = split_fused(input, &layout)?;
    let mut results = Vec::with_capacity(chunks.len());
    for chunk in &chunks {
        results.push(allreduce_once(comm, cfg, chunk)?);
    }
    {
        let mut s = sink.stats.lock().expect("engine stats lock");
        s.chunked_buckets += 1;
        s.chunks += layout.parts() as u64;
    }
    let refs: Vec<&SparseStream<V>> = results.iter().collect();
    let (reassembled, _) = fuse_streams(&refs)?;
    Ok(reassembled)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparcml_core::run_communicators;
    use sparcml_net::CostModel;
    use sparcml_stream::random_sparse;

    #[test]
    fn engine_allreduce_matches_direct_collective() {
        let p = 4;
        let ins: Vec<SparseStream<f32>> = (0..p)
            .map(|r| random_sparse(4096, 64, 40 + r as u64))
            .collect();
        let expect = sparcml_core::reference::reference_sum(&ins);
        let outs = run_communicators(p, CostModel::zero(), |comm| {
            // NB: read the rank *before* `.engine()` detaches the
            // transport (the communicator then reports the placeholder).
            let mut engine = comm.engine::<f32>(EngineConfig::default());
            let ticket = engine.submit_allreduce(&ins[engine.rank()]);
            let out = ticket.wait().unwrap();
            engine.finish_into(comm).unwrap();
            out
        });
        for out in outs {
            for (g, e) in out.to_dense_vec().iter().zip(expect.iter()) {
                assert!((g - e).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn group_submission_fuses_into_one_bucket() {
        let p = 2;
        let layers = 8;
        let outs = run_communicators(p, CostModel::zero(), |comm| {
            let mut engine = comm.engine::<f32>(EngineConfig::default());
            let grads: Vec<SparseStream<f32>> = (0..layers)
                .map(|l| random_sparse(512, 16, (engine.rank() * 100 + l) as u64))
                .collect();
            let refs: Vec<&SparseStream<f32>> = grads.iter().collect();
            let tickets = engine.submit_allreduce_group(&refs);
            for t in tickets {
                t.wait().unwrap();
            }
            let stats = engine.stats();
            engine.finish_into(comm).unwrap();
            stats
        });
        for s in outs {
            assert_eq!(s.submitted, layers as u64);
            assert_eq!(s.executed, layers as u64);
            assert_eq!(s.buckets, 1, "group must fuse into one bucket");
            assert_eq!(s.fused_jobs, layers as u64);
        }
    }

    #[test]
    fn engine_survives_and_reports_collective_failure() {
        // Mismatched dimensions across ranks make the fused collective
        // fail; the ticket must resolve to an error (not hang), later
        // jobs must fail fast, and join must still return the transport.
        let outs = run_communicators(2, CostModel::zero(), |comm| {
            let dim = if comm.rank() == 0 { 100 } else { 200 };
            let input = random_sparse::<f32>(dim, 4, 7);
            let mut engine = comm.engine::<f32>(EngineConfig::default());
            let first = engine.submit_allreduce(&input).wait();
            let second = engine.submit_allreduce(&input).wait();
            let joined = engine.finish_into(comm);
            (first.is_err(), second.is_err(), joined.is_ok())
        });
        for (first_err, second_err, joined_ok) in outs {
            assert!(first_err, "dimension mismatch must surface");
            assert!(second_err, "poisoned engine must fail later jobs");
            assert!(joined_ok, "transport must come back");
        }
    }

    #[test]
    fn empty_group_submission_is_a_no_op() {
        // An empty group must not wake the progress thread into a
        // spurious agreement round (which would desync or panic it) —
        // the engine stays fully usable afterwards.
        let outs = run_communicators(2, CostModel::zero(), |comm| {
            let mut engine = comm.engine::<f32>(EngineConfig::default());
            let none = engine.submit_allreduce_group(&[]);
            assert!(none.is_empty());
            let input = random_sparse::<f32>(256, 8, engine.rank() as u64);
            let out = engine.submit_allreduce(&input).wait().unwrap();
            let stats = engine.stats();
            engine.finish_into(comm).unwrap();
            (out.dim(), stats.submitted, stats.executed)
        });
        for (dim, submitted, executed) in outs {
            assert_eq!(dim, 256);
            assert_eq!(submitted, 1);
            assert_eq!(executed, 1);
        }
    }

    #[test]
    fn execution_order_keeps_only_the_latest_batch() {
        // One job per batch, waited on before the next: the order must not
        // grow with the engine's life.
        let outs = run_communicators(2, CostModel::zero(), |comm| {
            let mut engine = comm.engine::<f32>(EngineConfig::default());
            let input = random_sparse::<f32>(256, 8, engine.rank() as u64);
            for _ in 0..40 {
                engine.submit_allreduce(&input).wait().unwrap();
            }
            let s = engine.stats();
            engine.finish_into(comm).unwrap();
            s
        });
        for s in outs {
            assert_eq!(s.batches, 40);
            assert_eq!(s.execution_order, vec![39]);
        }
    }

    #[test]
    fn stats_cover_a_job_once_its_ticket_resolves() {
        // The counters must be published before a ticket resolves: a
        // caller that observed wait() return always sees its own job.
        let outs = run_communicators(2, CostModel::zero(), |comm| {
            let mut engine = comm.engine::<f32>(EngineConfig::default());
            let input = random_sparse::<f32>(512, 16, engine.rank() as u64);
            let mut seen = Vec::new();
            for i in 1..=20u64 {
                engine.submit_allreduce(&input).wait().unwrap();
                let s = engine.stats();
                seen.push(s.executed >= i && s.comm.msgs_sent > 0);
            }
            engine.finish_into(comm).unwrap();
            seen
        });
        for seen in outs {
            assert!(
                seen.iter().all(|&ok| ok),
                "stats lagged a resolved ticket: {seen:?}"
            );
        }
    }
}
