//! Communicator sessions: the unified entry point to every SparCML
//! collective.
//!
//! A [`Communicator`] owns one [`Transport`] session (rank, peers, clock)
//! and exposes each collective as a method returning a fluent builder —
//! the only way to run one; blocking, non-blocking and rooted calls are
//! the same chain:
//!
//! ```
//! use sparcml_core::{run_communicators, Algorithm};
//! use sparcml_net::CostModel;
//! use sparcml_stream::SparseStream;
//!
//! let results = run_communicators(4, CostModel::aries(), |comm| {
//!     let grad = SparseStream::from_pairs(
//!         1_000_000,
//!         &[(comm.rank() as u32 * 10, 1.0f32), (999_999, 0.5)],
//!     )
//!     .unwrap();
//!     // Algorithm::Auto (the §5.3 selector) is the default path.
//!     comm.allreduce(&grad).launch().and_then(|h| h.wait()).unwrap()
//! });
//! assert_eq!(results[0].get(999_999), 2.0);
//! ```
//!
//! Every `launch()` runs the collective on the caller's thread, over the
//! session's transport and buffer pool, and returns a resolved
//! [`CollectiveHandle`]. [`Allreduce::nonblocking`] is §7's overlap on
//! the session clock: the handle remembers the clock before the run,
//! `compute()` accounts overlapped work against it, and `wait()` merges
//! the two as `max(communication, computation)`. Running a collective in
//! the background on the wall clock is the progress engine's job
//! (`sparcml_engine`: `comm.engine()` → `submit_allreduce` →
//! `Ticket::wait`); `sparcml-core` starts no thread.

use sparcml_net::{
    run_cluster, run_reactor_loopback_cluster, run_thread_cluster, CommStats, CostModel, Endpoint,
    GroupTransport, ReactorTransport, ThreadTransport, Transport, TransportConfig,
};
use sparcml_obs as obs;
use sparcml_quant::QsgdConfig;
use sparcml_stream::{DensityPolicy, Scalar, SparseStream};

use crate::allgather::{dense_allgather, sparse_allgather, sparse_allgather_sum};
use crate::allreduce::{dispatch, Algorithm, AllreduceConfig};
use crate::error::CollError;
use crate::op::BufferPool;
use crate::rooted::{sparse_broadcast, sparse_reduce, sparse_reduce_scatter};
use crate::telemetry::TelemetryExchange;

/// A collective-communication session over one pluggable transport.
///
/// `Communicator<Endpoint>` (the default) runs on the deterministic
/// virtual-time cluster; `Communicator<ThreadTransport>` runs the same
/// collectives on real concurrent threads. Any future backend only needs
/// to implement [`Transport`].
pub struct Communicator<T: Transport = Endpoint> {
    transport: T,
    /// Persistent message-buffer pool shared by every collective this
    /// session launches, so encode/receive buffers survive from one call
    /// to the next instead of being re-allocated per collective. Reuse is
    /// observable via [`Communicator::stats_snapshot`].
    pool: BufferPool,
    /// Control-tag allocator + sequence state for
    /// [`Communicator::cluster_report`] telemetry exchanges. Fresh per
    /// session (and per subgroup after [`Communicator::split`]) so the
    /// lockstep block sequence is scoped to the ranks that actually
    /// exchange.
    telemetry: TelemetryExchange,
}

impl<T: Transport> Communicator<T> {
    /// Wraps a transport session in a communicator.
    pub fn new(transport: T) -> Self {
        Communicator {
            transport,
            pool: BufferPool::new(),
            telemetry: TelemetryExchange::new(),
        }
    }

    /// The one launch path behind every builder: runs `op` on `input`
    /// here, on the session's transport and persistent buffer pool, and
    /// hands back a resolved, blocking handle.
    fn launch<I: ?Sized, R>(
        &mut self,
        input: &I,
        op: impl FnOnce(&mut T, &I, &mut BufferPool) -> Result<R, CollError>,
    ) -> Result<CollectiveHandle<'_, T, R>, CollError> {
        let result = op(&mut self.transport, input, &mut self.pool)?;
        Ok(CollectiveHandle {
            comm: self,
            result,
            overlap: None,
        })
    }

    /// This rank's id in `[0, size)`.
    pub fn rank(&self) -> usize {
        self.transport.rank()
    }

    /// Communicator size `P`.
    pub fn size(&self) -> usize {
        self.transport.size()
    }

    /// Current session time in seconds (virtual or wall, per transport).
    pub fn clock(&self) -> f64 {
        self.transport.clock()
    }

    /// The transport's network cost model (planning hint for
    /// [`Algorithm::Auto`]).
    pub fn cost(&self) -> &CostModel {
        self.transport.cost()
    }

    /// Communication statistics accumulated so far.
    pub fn stats(&self) -> &CommStats {
        self.transport.stats()
    }

    /// A point-in-time copy of the statistics with the session pool's
    /// counters filled in: `CommStats::reuse_rate` reports the fraction
    /// of message buffers served from the persistent pool (approaching 1
    /// in a steady-state training loop).
    pub fn stats_snapshot(&self) -> CommStats {
        let mut s = self.transport.stats().snapshot();
        s.pool_acquires = self.pool.acquires();
        s.pool_reuses = self.pool.reuses();
        s
    }

    /// The session's counters (pool included, as in
    /// [`Communicator::stats_snapshot`]) in the stable plaintext layout of
    /// [`CommStats::render_text`] — what a health endpoint or example
    /// prints instead of hand-formatting fields. Followed by the
    /// process-wide per-algorithm latency histograms
    /// ([`sparcml_obs::LatencyRegistry::render_text`]) when any
    /// collective has run.
    pub fn stats_report(&self) -> String {
        let mut out = self.stats_snapshot().render_text();
        let latency = obs::metrics::global().render_text();
        if !latency.is_empty() {
            out.push('\n');
            out.push_str(&latency);
        }
        if obs::Recorder::is_installed() {
            out.push_str(&format!(
                "\nspan_drops {}\n",
                obs::Recorder::dropped_total()
            ));
        }
        out
    }

    /// Builds a cluster-consistent [`sparcml_obs::ClusterReport`]:
    /// snapshots this rank's telemetry (transport counters, per-peer wait
    /// attribution, density samples, latency digests, span drops) into a
    /// [`sparcml_obs::TelemetryFrame`] and allgathers it with every peer
    /// over the reserved control tag space, so all ranks return the same
    /// straggler ranking and skew diagnostics.
    ///
    /// Collective — every rank of the session must call it in the same
    /// order relative to other collectives. The first call turns
    /// collection on process-wide (frames before that carry only
    /// counters), so long-running jobs should call it once early and
    /// then at every reporting interval. Peer frames are untrusted
    /// input: a malformed or impossible frame fails with
    /// [`CollError::Invalid`] rather than producing a wrong report.
    pub fn cluster_report(&mut self) -> Result<obs::ClusterReport, CollError> {
        obs::telemetry::enable();
        obs::telemetry::set_counters(
            self.stats_snapshot()
                .fields()
                .iter()
                .map(|(name, value)| (name.to_string(), *value))
                .collect(),
        );
        let frame =
            obs::telemetry::local_frame(self.rank(), self.size(), self.telemetry.next_seq());
        let frames = self.telemetry.allgather(&mut self.transport, &frame)?;
        Ok(obs::ClusterReport::new(frames))
    }

    /// Splits the communicator MPI-style: every rank of this session
    /// calls `split` with a `color`; ranks sharing a color form one
    /// subgroup and each caller's session becomes a communicator over its
    /// subgroup (ranks renumbered `0..group_size` by ascending parent
    /// rank, message tags scoped so concurrent collectives on sibling
    /// groups never collide). All collectives — including engine
    /// submission — work unchanged on the subgroup;
    /// [`Communicator::into_parent`] dissolves the view and returns the
    /// original session.
    ///
    /// Errors consume the session. `split` is a collective call, so a
    /// failure (bad configuration, lost peer) is cluster-symmetric: every
    /// rank fails the same way and the job should rebuild its sessions
    /// rather than limp on with a half-split cluster.
    pub fn split(self, color: u64) -> Result<Communicator<GroupTransport<T>>, CollError> {
        let Communicator {
            transport, pool, ..
        } = self;
        let group = GroupTransport::split(transport, color)?;
        Ok(Communicator {
            transport: group,
            pool,
            telemetry: TelemetryExchange::new(),
        })
    }

    /// Charges local reduction work of `elements` element operations.
    pub fn compute(&mut self, elements: usize) {
        self.transport.compute(elements);
    }

    /// Adds `seconds` of non-overlappable local work.
    pub fn charge_seconds(&mut self, seconds: f64) {
        self.transport.charge_seconds(seconds);
    }

    /// Resets the clock and statistics (between experiment trials).
    pub fn reset_clock(&mut self) {
        self.transport.reset_clock();
    }

    /// Borrows the underlying transport (e.g. for raw point-to-point
    /// messaging alongside collectives).
    pub fn transport(&self) -> &T {
        &self.transport
    }

    /// Mutably borrows the underlying transport.
    pub fn transport_mut(&mut self) -> &mut T {
        &mut self.transport
    }

    /// Consumes the communicator, returning the transport session.
    pub fn into_transport(self) -> T {
        self.transport
    }

    /// Global element-wise sum of every rank's `input`, delivered to every
    /// rank. Defaults to [`Algorithm::Auto`]; see [`Allreduce`] for the
    /// available knobs.
    pub fn allreduce<'a, V: Scalar>(
        &'a mut self,
        input: &'a SparseStream<V>,
    ) -> Allreduce<'a, T, V> {
        Allreduce {
            comm: self,
            input,
            algorithm: Algorithm::Auto,
            cfg: AllreduceConfig::default(),
            nonblocking: false,
        }
    }

    /// Rooted reduction: the sum lands at `root`; other ranks receive an
    /// empty stream of the same dimension.
    pub fn reduce<'a, V: Scalar>(
        &'a mut self,
        input: &'a SparseStream<V>,
        root: usize,
    ) -> Reduce<'a, T, V> {
        Reduce {
            comm: self,
            input,
            root,
            cfg: AllreduceConfig::default(),
        }
    }

    /// Broadcast of `root`'s stream to every rank. Non-root ranks pass
    /// their (ignored) `input` only to convey the dimension.
    pub fn broadcast<'a, V: Scalar>(
        &'a mut self,
        input: &'a SparseStream<V>,
        root: usize,
    ) -> Broadcast<'a, T, V> {
        Broadcast {
            comm: self,
            input,
            root,
        }
    }

    /// Reduce-scatter: each rank receives the fully reduced sub-vector for
    /// its dimension partition.
    pub fn reduce_scatter<'a, V: Scalar>(
        &'a mut self,
        input: &'a SparseStream<V>,
    ) -> ReduceScatter<'a, T, V> {
        ReduceScatter { comm: self, input }
    }

    /// Gathers every rank's sparse stream to every rank (streams returned
    /// in rank order).
    pub fn allgather<'a, V: Scalar>(
        &'a mut self,
        input: &'a SparseStream<V>,
    ) -> Allgather<'a, T, V> {
        Allgather { comm: self, input }
    }

    /// Gathers and sums sparse streams (pure concatenation when supports
    /// are disjoint, a fold in rank order otherwise).
    pub fn allgather_sum<'a, V: Scalar>(
        &'a mut self,
        input: &'a SparseStream<V>,
    ) -> AllgatherSum<'a, T, V> {
        AllgatherSum { comm: self, input }
    }

    /// Dense allgather of raw value blocks, returned in rank order — the
    /// dense baseline of the SCD experiment (§8.2).
    pub fn allgather_dense<'a, V: Scalar>(
        &'a mut self,
        block: &'a [V],
    ) -> DenseAllgather<'a, T, V> {
        DenseAllgather { comm: self, block }
    }
}

impl<T: Transport> Communicator<GroupTransport<T>> {
    /// Dissolves a subgroup session created by [`Communicator::split`],
    /// returning the parent communicator (its persistent buffer pool
    /// carries over).
    pub fn into_parent(self) -> Communicator<T> {
        let Communicator {
            transport, pool, ..
        } = self;
        Communicator {
            transport: transport.into_parent(),
            pool,
            telemetry: TelemetryExchange::new(),
        }
    }
}

impl<T: Transport + std::fmt::Debug> std::fmt::Debug for Communicator<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Communicator")
            .field("transport", &self.transport)
            .finish()
    }
}

/// The completion handle every `launch()` returns. The collective has
/// already run; `wait()` hands its result over. After
/// [`Allreduce::nonblocking`] the handle is §7's overlap on the session
/// clock: work accounted through [`CollectiveHandle::compute`] counts
/// from the clock reading before the collective ran, and `wait()` merges
/// the two as `max(communication, computation)`.
#[must_use = "a collective handle must be waited on"]
pub struct CollectiveHandle<'a, T: Transport, R> {
    comm: &'a mut Communicator<T>,
    result: R,
    /// `(fork clock, overlapped seconds)` of a non-blocking launch;
    /// `None` when blocking, where handle work is serial.
    overlap: Option<(f64, f64)>,
}

impl<T: Transport, R> CollectiveHandle<'_, T, R> {
    /// Accounts local computation of `elements` element-ops: overlapped
    /// with the collective when non-blocking, serial when blocking.
    pub fn compute(&mut self, elements: usize) {
        match &mut self.overlap {
            Some((_, seconds)) => *seconds += self.comm.cost().gamma * elements as f64,
            None => self.comm.compute(elements),
        }
    }

    /// Accounts `seconds` of local wall work (overlapped when
    /// non-blocking).
    pub fn charge_seconds(&mut self, seconds: f64) {
        match &mut self.overlap {
            Some((_, overlapped)) => *overlapped += seconds,
            None => self.comm.charge_seconds(seconds),
        }
    }

    /// Returns the collective's result, first advancing a non-blocking
    /// launch's clock to `fork + overlapped` when that is later.
    pub fn wait(self) -> Result<R, CollError> {
        if let Some((fork, overlapped)) = self.overlap {
            self.comm.transport.advance_clock_to(fork + overlapped);
        }
        Ok(self.result)
    }
}

/// Fluent builder for allreduce. Created by [`Communicator::allreduce`];
/// defaults: [`Algorithm::Auto`], no quantization, default δ policy,
/// blocking.
#[must_use = "collective builders do nothing until `launch()`"]
pub struct Allreduce<'a, T: Transport, V: Scalar> {
    comm: &'a mut Communicator<T>,
    input: &'a SparseStream<V>,
    algorithm: Algorithm,
    cfg: AllreduceConfig,
    nonblocking: bool,
}

impl<'a, T: Transport, V: Scalar> Allreduce<'a, T, V> {
    /// Selects the collective schedule ([`Algorithm::Auto`] = adaptive).
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Replaces the full option set at once.
    pub fn config(mut self, cfg: AllreduceConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Quantizes the allgather stage with QSGD (§6; effective for
    /// [`Algorithm::SsarSplitAllgather`], pinned or `Auto`'s pick): each
    /// partition travels as its quantized dense values, and the result is
    /// dense at any fill-in.
    pub fn quantized(mut self, quant: QsgdConfig) -> Self {
        self.cfg.quant = Some(quant);
        self
    }

    /// Seed for stochastic quantization (each rank derives `seed + rank`).
    pub fn quant_seed(mut self, seed: u64) -> Self {
        self.cfg.quant_seed = seed;
        self
    }

    /// Sparse→dense switching policy (δ scaling, §5.1).
    pub fn policy(mut self, policy: DensityPolicy) -> Self {
        self.cfg.policy = policy;
        self
    }

    /// §7's overlap on the session clock. The collective still runs at
    /// `launch()`, on this thread; the handle's
    /// [`compute`](CollectiveHandle::compute) and
    /// [`charge_seconds`](CollectiveHandle::charge_seconds) then count
    /// from the clock before it ran instead of after, and `wait()` ends
    /// on `max(communication, computation)`. Overlap on the wall clock
    /// needs a background collective: submit it to the progress engine
    /// (`sparcml_engine`).
    pub fn nonblocking(mut self) -> Self {
        self.nonblocking = true;
        self
    }

    /// Launches the collective. A non-blocking launch first reads the
    /// clock: the fork point its handle's overlapped work counts from.
    pub fn launch(self) -> Result<CollectiveHandle<'a, T, SparseStream<V>>, CollError> {
        let fork = self.nonblocking.then(|| self.comm.clock());
        let mut handle = self.comm.launch(self.input, |tp, input, pool| {
            dispatch(tp, input, self.algorithm, &self.cfg, pool)
        })?;
        handle.overlap = fork.map(|clock| (clock, 0.0));
        Ok(handle)
    }
}

/// Fluent builder for the rooted reduce. Created by
/// [`Communicator::reduce`].
#[must_use = "collective builders do nothing until `launch()`"]
pub struct Reduce<'a, T: Transport, V: Scalar> {
    comm: &'a mut Communicator<T>,
    input: &'a SparseStream<V>,
    root: usize,
    cfg: AllreduceConfig,
}

impl<'a, T: Transport, V: Scalar> Reduce<'a, T, V> {
    /// Sparse→dense switching policy (δ scaling, §5.1).
    pub fn policy(mut self, policy: DensityPolicy) -> Self {
        self.cfg.policy = policy;
        self
    }

    /// Launches the collective.
    pub fn launch(self) -> Result<CollectiveHandle<'a, T, SparseStream<V>>, CollError> {
        self.comm.launch(self.input, |tp, input, pool| {
            sparse_reduce(tp, input, self.root, &self.cfg, pool)
        })
    }
}

/// Fluent builder for broadcast. Created by [`Communicator::broadcast`].
#[must_use = "collective builders do nothing until `launch()`"]
pub struct Broadcast<'a, T: Transport, V: Scalar> {
    comm: &'a mut Communicator<T>,
    input: &'a SparseStream<V>,
    root: usize,
}

impl<'a, T: Transport, V: Scalar> Broadcast<'a, T, V> {
    /// Launches the collective.
    pub fn launch(self) -> Result<CollectiveHandle<'a, T, SparseStream<V>>, CollError> {
        self.comm.launch(self.input, |tp, input, pool| {
            sparse_broadcast(tp, input, self.root, pool)
        })
    }
}

/// Fluent builder for reduce-scatter. Created by
/// [`Communicator::reduce_scatter`].
#[must_use = "collective builders do nothing until `launch()`"]
pub struct ReduceScatter<'a, T: Transport, V: Scalar> {
    comm: &'a mut Communicator<T>,
    input: &'a SparseStream<V>,
}

impl<'a, T: Transport, V: Scalar> ReduceScatter<'a, T, V> {
    /// Launches the collective.
    pub fn launch(self) -> Result<CollectiveHandle<'a, T, SparseStream<V>>, CollError> {
        self.comm.launch(self.input, sparse_reduce_scatter)
    }
}

/// Fluent builder for sparse allgather. Created by
/// [`Communicator::allgather`].
#[must_use = "collective builders do nothing until `launch()`"]
pub struct Allgather<'a, T: Transport, V: Scalar> {
    comm: &'a mut Communicator<T>,
    input: &'a SparseStream<V>,
}

impl<'a, T: Transport, V: Scalar> Allgather<'a, T, V> {
    /// Launches the collective.
    pub fn launch(self) -> Result<CollectiveHandle<'a, T, Vec<SparseStream<V>>>, CollError> {
        self.comm.launch(self.input, sparse_allgather)
    }
}

/// Fluent builder for the summing sparse allgather. Created by
/// [`Communicator::allgather_sum`].
#[must_use = "collective builders do nothing until `launch()`"]
pub struct AllgatherSum<'a, T: Transport, V: Scalar> {
    comm: &'a mut Communicator<T>,
    input: &'a SparseStream<V>,
}

impl<'a, T: Transport, V: Scalar> AllgatherSum<'a, T, V> {
    /// Launches the collective.
    pub fn launch(self) -> Result<CollectiveHandle<'a, T, SparseStream<V>>, CollError> {
        self.comm.launch(self.input, sparse_allgather_sum)
    }
}

/// Fluent builder for the dense block allgather. Created by
/// [`Communicator::allgather_dense`].
#[must_use = "collective builders do nothing until `launch()`"]
pub struct DenseAllgather<'a, T: Transport, V: Scalar> {
    comm: &'a mut Communicator<T>,
    block: &'a [V],
}

impl<'a, T: Transport, V: Scalar> DenseAllgather<'a, T, V> {
    /// Launches the collective.
    pub fn launch(self) -> Result<CollectiveHandle<'a, T, Vec<Vec<V>>>, CollError> {
        self.comm.launch(self.block, dense_allgather)
    }
}

/// Runs `f` once per rank over a `size`-rank virtual-time cluster, each
/// rank wrapped in a `Communicator<Endpoint>`; returns per-rank results
/// indexed by rank. The communicator-level counterpart of
/// [`sparcml_net::run_cluster`].
pub fn run_communicators<R, F>(size: usize, cost: CostModel, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(&mut Communicator<Endpoint>) -> R + Sync,
{
    run_cluster(size, cost, |ep| {
        let mut comm = Communicator::new(Transport::detach(ep));
        let out = f(&mut comm);
        *ep = comm.into_transport();
        out
    })
}

/// Runs `f` once per rank over `size` real OS threads, each rank wrapped
/// in a `Communicator<ThreadTransport>` — the same programs as
/// [`run_communicators`] on the real in-process backend.
pub fn run_thread_communicators<R, F>(size: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(&mut Communicator<ThreadTransport>) -> R + Sync,
{
    run_thread_cluster(size, |tp| {
        let mut comm = Communicator::new(tp.detach());
        let out = f(&mut comm);
        *tp = comm.into_transport();
        out
    })
}

/// Runs `f` once per rank over a `size`-rank loopback **socket** cluster
/// — real TCP connections, one OS thread plus one event loop per rank in
/// this process — each rank wrapped in a
/// `Communicator<ReactorTransport>`. The in-process sibling of the
/// multi-process path (`sparcml_net::launcher::run_socket_cluster` +
/// `Communicator::new(ReactorTransport::from_env()?)`), with the
/// [`CostModel::loopback_tcp`] planning hint so [`Algorithm::Auto`]'s
/// k-agreement and selection run over the real wire.
pub fn run_reactor_communicators<R, F>(size: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(&mut Communicator<ReactorTransport>) -> R + Sync,
{
    run_reactor_communicators_with(
        size,
        CostModel::loopback_tcp(),
        TransportConfig::default(),
        f,
    )
}

/// [`run_reactor_communicators`] with an explicit planning hint and
/// transport configuration (watchdog/connect deadlines, frame limit).
pub fn run_reactor_communicators_with<R, F>(
    size: usize,
    cost_hint: CostModel,
    config: TransportConfig,
    f: F,
) -> Vec<R>
where
    R: Send,
    F: Fn(&mut Communicator<ReactorTransport>) -> R + Sync,
{
    run_reactor_loopback_cluster(size, cost_hint, config, |tp| {
        let mut comm = Communicator::new(tp.detach());
        let out = f(&mut comm);
        *tp = comm.into_transport();
        out
    })
}

/// Runs a collective program on every rank of a virtual-time cluster and
/// returns the *virtual completion time*: the maximum final clock across
/// ranks. The communicator-level counterpart of
/// [`sparcml_net::max_virtual_time`].
pub fn max_communicator_time<F>(size: usize, cost: CostModel, f: F) -> f64
where
    F: Fn(&mut Communicator<Endpoint>) + Sync,
{
    run_communicators(size, cost, |comm| {
        f(comm);
        comm.clock()
    })
    .into_iter()
    .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::reference_sum;
    use sparcml_stream::random_sparse;

    #[test]
    fn builder_default_is_auto_and_matches_reference() {
        let p = 4;
        let ins: Vec<SparseStream<f32>> = (0..p)
            .map(|r| random_sparse(4096, 64, 60 + r as u64))
            .collect();
        let expect = reference_sum(&ins);
        let outs = run_communicators(p, CostModel::aries(), |comm| {
            comm.allreduce(&ins[comm.rank()])
                .launch()
                .and_then(|h| h.wait())
                .unwrap()
        });
        for out in outs {
            for (g, e) in out.to_dense_vec().iter().zip(expect.iter()) {
                assert!((g - e).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn same_program_runs_on_both_transports() {
        let p = 4;
        let ins: Vec<SparseStream<f32>> = (0..p)
            .map(|r| random_sparse(2048, 32, 70 + r as u64))
            .collect();
        let expect = reference_sum(&ins);
        let virtual_outs = run_communicators(p, CostModel::zero(), |comm| {
            comm.allreduce(&ins[comm.rank()])
                .launch()
                .and_then(|h| h.wait())
                .unwrap()
        });
        let thread_outs = run_thread_communicators(p, |comm| {
            comm.allreduce(&ins[comm.rank()])
                .launch()
                .and_then(|h| h.wait())
                .unwrap()
        });
        for outs in [virtual_outs, thread_outs] {
            for out in outs {
                for (g, e) in out.to_dense_vec().iter().zip(expect.iter()) {
                    assert!((g - e).abs() < 1e-4);
                }
            }
        }
    }

    #[test]
    fn rooted_collectives_through_builders() {
        let p = 5;
        let dim = 1024;
        let ins: Vec<SparseStream<f32>> = (0..p)
            .map(|r| random_sparse(dim, 32, 80 + r as u64))
            .collect();
        let expect = reference_sum(&ins);
        let outs = run_communicators(p, CostModel::zero(), |comm| {
            let reduced = comm
                .reduce(&ins[comm.rank()], 2)
                .launch()
                .and_then(|h| h.wait())
                .unwrap();
            comm.broadcast(&reduced, 2)
                .launch()
                .and_then(|h| h.wait())
                .unwrap()
        });
        for out in outs {
            for (g, e) in out.to_dense_vec().iter().zip(expect.iter()) {
                assert!((g - e).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn nonblocking_matches_blocking_result() {
        let p = 8;
        let ins: Vec<SparseStream<f32>> = (0..p)
            .map(|r| random_sparse(2048, 64, 500 + r as u64))
            .collect();
        let expect = reference_sum(&ins);
        let outs = run_communicators(p, CostModel::zero(), |comm| {
            comm.allreduce(&ins[comm.rank()])
                .algorithm(Algorithm::SsarRecDbl)
                .launch()
                .and_then(|h| h.wait())
                .unwrap()
        });
        for out in &outs {
            for (g, e) in out.to_dense_vec().iter().zip(expect.iter()) {
                assert!((g - e).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn nonblocking_result_agrees_with_reference() {
        let p = 4;
        let ins: Vec<SparseStream<f32>> = (0..p)
            .map(|r| random_sparse(1024, 32, 300 + r as u64))
            .collect();
        let expect = reference_sum(&ins);
        let outs = run_communicators(p, CostModel::zero(), |comm| {
            comm.allreduce(&ins[comm.rank()])
                .algorithm(Algorithm::SsarSplitAllgather)
                .nonblocking()
                .launch()
                .and_then(|h| h.wait())
                .unwrap()
        });
        for out in outs {
            for (g, e) in out.to_dense_vec().iter().zip(expect.iter()) {
                assert!((g - e).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn nonblocking_runs_on_thread_transport_too() {
        let outs = run_thread_communicators(2, |comm| {
            let input = random_sparse::<f32>(512, 16, comm.rank() as u64);
            comm.allreduce(&input)
                .algorithm(Algorithm::SsarRecDbl)
                .nonblocking()
                .launch()
                .and_then(|h| h.wait())
                .unwrap()
                .nnz()
        });
        assert_eq!(outs[0], outs[1]);
    }

    /// γ = 1 s/element and free messages: a collective costs only the
    /// γ its merges charge, and handle work is easy to read off.
    fn gamma_only() -> CostModel {
        CostModel {
            alpha: 0.0,
            beta: 0.0,
            gamma: 1.0,
            isend_alpha_fraction: 0.0,
        }
    }

    /// Runs one recursive-doubling allreduce on two ranks, accounting
    /// `elements` of handle work, and returns each rank's final clock.
    fn clocks_after(cost: CostModel, nonblocking: bool, elements: usize) -> Vec<f64> {
        run_communicators(2, cost, |comm| {
            let input = random_sparse::<f32>(256, 8, comm.rank() as u64);
            let mut call = comm.allreduce(&input).algorithm(Algorithm::SsarRecDbl);
            if nonblocking {
                call = call.nonblocking();
            }
            let mut handle = call.launch().unwrap();
            handle.compute(elements);
            handle.wait().unwrap();
            comm.clock()
        })
    }

    #[test]
    fn overlap_merges_clocks_as_max() {
        // 100 elements of overlapped compute dominate the few the merge
        // charges: the clock ends on fork (0) + overlapped time.
        assert_eq!(clocks_after(gamma_only(), true, 100), [100.0; 2]);
    }

    #[test]
    fn overlap_dominated_by_communication_ends_on_the_blocking_clock() {
        // On GigE the exchange takes far longer than 1 element of
        // compute: the overlapped work hides entirely, and the clock is
        // the blocking launch's without any handle work, to the bit.
        let cost = CostModel::gige();
        let bits = |clocks: Vec<f64>| clocks.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
        let blocking = clocks_after(cost, false, 0);
        assert!(blocking.iter().all(|&c| c > cost.gamma), "{blocking:?}");
        assert_eq!(bits(clocks_after(cost, true, 1)), bits(blocking));
    }

    #[test]
    fn handle_compute_charges_serial_time_when_blocking() {
        let clocks = run_communicators(1, gamma_only(), |comm| {
            let input = SparseStream::<f32>::zeros(16);
            let mut handle = comm.allreduce(&input).launch().unwrap();
            handle.compute(7); // blocking handle: serial work
            handle.wait().unwrap();
            comm.clock()
        });
        assert!((clocks[0] - 7.0).abs() < 1e-9, "clock {}", clocks[0]);
    }

    #[test]
    fn max_communicator_time_reports_slowest_rank() {
        let t = max_communicator_time(4, gamma_only(), |comm| {
            comm.compute(comm.rank());
        });
        assert_eq!(t, 3.0);
    }
}
