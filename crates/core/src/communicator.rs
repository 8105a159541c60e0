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
//! Every `launch()` returns a [`CollectiveHandle`]. Blocking launches
//! resolve eagerly and `wait()` just hands the value over; after
//! `.nonblocking()` the transport and the session's buffer pool move to
//! a helper thread, `compute()` accounts overlapped work, and `wait()`
//! reinstalls both into the communicator before returning the result
//! (ideal-overlap clock merge, §7).

use sparcml_net::{
    run_cluster, run_reactor_loopback_cluster, run_thread_cluster, CommStats, CostModel, Endpoint,
    GroupTransport, ReactorTransport, ThreadTransport, Transport, TransportConfig,
};
use sparcml_obs as obs;
use sparcml_quant::QsgdConfig;
use sparcml_stream::{DensityPolicy, Scalar, SparseStream};
use std::borrow::Borrow;

use crate::allgather::{dense_allgather, sparse_allgather, sparse_allgather_sum};
use crate::allreduce::{dispatch, Algorithm, AllreduceConfig};
use crate::error::CollError;
use crate::nonblocking::Request;
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
    /// Set when a non-blocking helper thread panicked and took the
    /// transport with it: the session then holds only the inert
    /// placeholder from `detach()`, and silently running collectives on
    /// it would return local-only results. Every later `launch()` fails
    /// loudly instead.
    transport_lost: bool,
    /// Persistent message-buffer pool shared by every collective this
    /// session launches, so encode/receive buffers survive from one call
    /// to the next instead of being re-allocated per collective. A
    /// non-blocking launch sends it to the helper thread with the
    /// transport and `wait()` brings both back. Reuse is observable via
    /// [`Communicator::stats_snapshot`].
    pool: BufferPool,
    /// Control-tag allocator + sequence state for
    /// [`Communicator::cluster_report`] telemetry exchanges. Fresh per
    /// session (and per subgroup after [`Communicator::split`]) so the
    /// lockstep block sequence is scoped to the ranks that actually
    /// exchange.
    telemetry: TelemetryExchange,
}

impl<T: Transport + Send + 'static> Communicator<T> {
    /// Wraps a transport session in a communicator.
    pub fn new(transport: T) -> Self {
        Communicator {
            transport,
            transport_lost: false,
            pool: BufferPool::new(),
            telemetry: TelemetryExchange::new(),
        }
    }

    fn ensure_attached(&self) -> Result<(), CollError> {
        if self.transport_lost {
            return Err(CollError::Invalid(
                "communicator lost its transport: a non-blocking collective panicked; \
                 rebuild the session with Communicator::new"
                    .into(),
            ));
        }
        Ok(())
    }

    /// The one launch path behind every builder: runs `op` on the
    /// session's transport and persistent buffer pool. Blocking, it runs
    /// here on the borrowed `input` and the handle is already resolved;
    /// non-blocking, transport and pool move to a helper thread with an
    /// owned copy of `input`, and the handle reinstalls both on `wait()`
    /// (or drop).
    fn launch<'a, I, R, F>(
        &'a mut self,
        nonblocking: bool,
        input: &I,
        op: F,
    ) -> Result<CollectiveHandle<'a, T, R>, CollError>
    where
        I: ToOwned + ?Sized,
        I::Owned: Send + 'static,
        R: Send + 'static,
        F: FnOnce(&mut T, &I, &mut BufferPool) -> Result<R, CollError> + Send + 'static,
    {
        self.ensure_attached()?;
        let state = if nonblocking {
            let input = input.to_owned();
            HandleState::InFlight(Some(Request::spawn(
                self.transport.detach(),
                std::mem::take(&mut self.pool),
                move |tp, pool| op(tp, input.borrow(), pool),
            )))
        } else {
            HandleState::Ready(Some(op(&mut self.transport, input, &mut self.pool)?))
        };
        Ok(CollectiveHandle { comm: self, state })
    }

    /// Takes back what a joined non-blocking helper returned. A helper
    /// that panicked took transport and pool with it: poison the session
    /// so later collectives fail loudly instead of running on the
    /// placeholder.
    fn reinstall<R>(
        &mut self,
        joined: Result<(T, BufferPool, Result<R, CollError>), CollError>,
    ) -> Result<R, CollError> {
        match joined {
            Ok((transport, pool, result)) => {
                self.transport = transport;
                self.pool = pool;
                result
            }
            Err(e) => {
                self.transport_lost = true;
                Err(e)
            }
        }
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
        self.ensure_attached()?;
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
    /// groups never collide). All collectives — including non-blocking
    /// launches and engine submission — work unchanged on the subgroup;
    /// [`Communicator::into_parent`] dissolves the view and returns the
    /// original session.
    ///
    /// Errors consume the session. `split` is a collective call, so a
    /// failure (bad configuration, lost peer) is cluster-symmetric: every
    /// rank fails the same way and the job should rebuild its sessions
    /// rather than limp on with a half-split cluster.
    pub fn split(self, color: u64) -> Result<Communicator<GroupTransport<T>>, CollError> {
        self.ensure_attached()?;
        let Communicator {
            transport, pool, ..
        } = self;
        let group = GroupTransport::split(transport, color)?;
        Ok(Communicator {
            transport: group,
            transport_lost: false,
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
            nonblocking: false,
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
            nonblocking: false,
        }
    }

    /// Reduce-scatter: each rank receives the fully reduced sub-vector for
    /// its dimension partition.
    pub fn reduce_scatter<'a, V: Scalar>(
        &'a mut self,
        input: &'a SparseStream<V>,
    ) -> ReduceScatter<'a, T, V> {
        ReduceScatter {
            comm: self,
            input,
            cfg: AllreduceConfig::default(),
            nonblocking: false,
        }
    }

    /// Gathers every rank's sparse stream to every rank (streams returned
    /// in rank order).
    pub fn allgather<'a, V: Scalar>(
        &'a mut self,
        input: &'a SparseStream<V>,
    ) -> Allgather<'a, T, V> {
        Allgather {
            comm: self,
            input,
            nonblocking: false,
        }
    }

    /// Gathers and sums sparse streams (pure concatenation when supports
    /// are disjoint, a fold in rank order otherwise).
    pub fn allgather_sum<'a, V: Scalar>(
        &'a mut self,
        input: &'a SparseStream<V>,
    ) -> AllgatherSum<'a, T, V> {
        AllgatherSum {
            comm: self,
            input,
            nonblocking: false,
        }
    }

    /// Dense allgather of raw value blocks, returned in rank order — the
    /// dense baseline of the SCD experiment (§8.2).
    pub fn allgather_dense<'a, V: Scalar>(
        &'a mut self,
        block: &'a [V],
    ) -> DenseAllgather<'a, T, V> {
        DenseAllgather {
            comm: self,
            block,
            nonblocking: false,
        }
    }
}

impl<T: Transport + Send + 'static> Communicator<GroupTransport<T>> {
    /// Dissolves a subgroup session created by [`Communicator::split`],
    /// returning the parent communicator (its persistent buffer pool —
    /// and any lost-transport poisoning — carry over).
    pub fn into_parent(self) -> Communicator<T> {
        let Communicator {
            transport,
            transport_lost,
            pool,
            ..
        } = self;
        Communicator {
            transport: transport.into_parent(),
            transport_lost,
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

enum HandleState<T, R> {
    /// Blocking launch: the result is already here.
    Ready(Option<R>),
    /// Non-blocking launch: the transport is on a helper thread.
    InFlight(Option<Request<T, R>>),
}

/// The single completion handle unifying blocking and non-blocking
/// collectives: blocking launches are already resolved and `wait()` just
/// returns the value; non-blocking launches are joined, their transport is
/// reinstalled into the communicator, and overlapped work accounted via
/// [`CollectiveHandle::compute`] merges into the clock as
/// `max(communication, computation)`.
///
/// Dropping an in-flight handle without waiting joins it (discarding the
/// result) so the communicator always gets its transport back.
#[must_use = "a collective handle must be waited on"]
pub struct CollectiveHandle<'a, T: Transport + Send + 'static, R: Send + 'static> {
    comm: &'a mut Communicator<T>,
    state: HandleState<T, R>,
}

impl<T: Transport + Send + 'static, R: Send + 'static> CollectiveHandle<'_, T, R> {
    /// Accounts local computation of `elements` element-ops: overlapped
    /// with the collective when non-blocking, serial when blocking.
    pub fn compute(&mut self, elements: usize) {
        match &mut self.state {
            HandleState::Ready(_) => self.comm.compute(elements),
            HandleState::InFlight(Some(req)) => req.compute(elements),
            HandleState::InFlight(None) => {}
        }
    }

    /// Accounts `seconds` of local wall work (overlapped when
    /// non-blocking).
    pub fn charge_seconds(&mut self, seconds: f64) {
        match &mut self.state {
            HandleState::Ready(_) => self.comm.charge_seconds(seconds),
            HandleState::InFlight(Some(req)) => req.charge_seconds(seconds),
            HandleState::InFlight(None) => {}
        }
    }

    /// Completes the collective and returns its result. For non-blocking
    /// launches this joins the helper thread and reinstalls the transport
    /// into the communicator (even if the collective failed).
    pub fn wait(mut self) -> Result<R, CollError> {
        match &mut self.state {
            HandleState::Ready(slot) => Ok(slot.take().expect("blocking handle waited on twice")),
            HandleState::InFlight(slot) => {
                let req = slot.take().expect("in-flight handle waited on twice");
                self.comm.reinstall(req.finish())
            }
        }
    }
}

impl<T: Transport + Send + 'static, R: Send + 'static> Drop for CollectiveHandle<'_, T, R> {
    fn drop(&mut self) {
        if let HandleState::InFlight(slot) = &mut self.state {
            if let Some(req) = slot.take() {
                let _discarded = self.comm.reinstall(req.finish());
            }
        }
    }
}

/// Fluent builder for allreduce. Created by [`Communicator::allreduce`];
/// defaults: [`Algorithm::Auto`], no quantization, default δ policy,
/// blocking.
#[must_use = "collective builders do nothing until `launch()`"]
pub struct Allreduce<'a, T: Transport + Send + 'static, V: Scalar> {
    comm: &'a mut Communicator<T>,
    input: &'a SparseStream<V>,
    algorithm: Algorithm,
    cfg: AllreduceConfig,
    nonblocking: bool,
}

impl<'a, T: Transport + Send + 'static, V: Scalar> Allreduce<'a, T, V> {
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

    /// Quantizes the dense stage with QSGD (§6; effective for
    /// [`Algorithm::DsarSplitAllgather`]).
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

    /// Whether the split phase uses blocking sends (full `(P−1)α`) or
    /// non-blocking isends (§5.3.2 latency mitigation).
    pub fn blocking_split_sends(mut self, blocking: bool) -> Self {
        self.cfg.blocking_split_sends = blocking;
        self
    }

    /// Runs the collective on a helper thread; the returned handle
    /// overlaps local compute and reinstalls the transport on `wait()`.
    pub fn nonblocking(mut self) -> Self {
        self.nonblocking = true;
        self
    }

    /// Launches the collective.
    pub fn launch(self) -> Result<CollectiveHandle<'a, T, SparseStream<V>>, CollError> {
        let (algorithm, cfg) = (self.algorithm, self.cfg);
        self.comm
            .launch(self.nonblocking, self.input, move |tp, input, pool| {
                dispatch(tp, input, algorithm, &cfg, pool)
            })
    }
}

/// Fluent builder for the rooted reduce. Created by
/// [`Communicator::reduce`].
#[must_use = "collective builders do nothing until `launch()`"]
pub struct Reduce<'a, T: Transport + Send + 'static, V: Scalar> {
    comm: &'a mut Communicator<T>,
    input: &'a SparseStream<V>,
    root: usize,
    cfg: AllreduceConfig,
    nonblocking: bool,
}

impl<'a, T: Transport + Send + 'static, V: Scalar> Reduce<'a, T, V> {
    /// Sparse→dense switching policy (δ scaling, §5.1).
    pub fn policy(mut self, policy: DensityPolicy) -> Self {
        self.cfg.policy = policy;
        self
    }

    /// Runs the collective on a helper thread (see
    /// [`Allreduce::nonblocking`]).
    pub fn nonblocking(mut self) -> Self {
        self.nonblocking = true;
        self
    }

    /// Launches the collective.
    pub fn launch(self) -> Result<CollectiveHandle<'a, T, SparseStream<V>>, CollError> {
        let (root, cfg) = (self.root, self.cfg);
        self.comm
            .launch(self.nonblocking, self.input, move |tp, input, pool| {
                sparse_reduce(tp, input, root, &cfg, pool)
            })
    }
}

/// Fluent builder for broadcast. Created by [`Communicator::broadcast`].
#[must_use = "collective builders do nothing until `launch()`"]
pub struct Broadcast<'a, T: Transport + Send + 'static, V: Scalar> {
    comm: &'a mut Communicator<T>,
    input: &'a SparseStream<V>,
    root: usize,
    nonblocking: bool,
}

impl<'a, T: Transport + Send + 'static, V: Scalar> Broadcast<'a, T, V> {
    /// Runs the collective on a helper thread (see
    /// [`Allreduce::nonblocking`]).
    pub fn nonblocking(mut self) -> Self {
        self.nonblocking = true;
        self
    }

    /// Launches the collective.
    pub fn launch(self) -> Result<CollectiveHandle<'a, T, SparseStream<V>>, CollError> {
        let root = self.root;
        self.comm
            .launch(self.nonblocking, self.input, move |tp, input, pool| {
                sparse_broadcast(tp, input, root, pool)
            })
    }
}

/// Fluent builder for reduce-scatter. Created by
/// [`Communicator::reduce_scatter`].
#[must_use = "collective builders do nothing until `launch()`"]
pub struct ReduceScatter<'a, T: Transport + Send + 'static, V: Scalar> {
    comm: &'a mut Communicator<T>,
    input: &'a SparseStream<V>,
    cfg: AllreduceConfig,
    nonblocking: bool,
}

impl<'a, T: Transport + Send + 'static, V: Scalar> ReduceScatter<'a, T, V> {
    /// Sparse→dense switching policy (δ scaling, §5.1).
    pub fn policy(mut self, policy: DensityPolicy) -> Self {
        self.cfg.policy = policy;
        self
    }

    /// Runs the collective on a helper thread (see
    /// [`Allreduce::nonblocking`]).
    pub fn nonblocking(mut self) -> Self {
        self.nonblocking = true;
        self
    }

    /// Launches the collective.
    pub fn launch(self) -> Result<CollectiveHandle<'a, T, SparseStream<V>>, CollError> {
        let cfg = self.cfg;
        self.comm
            .launch(self.nonblocking, self.input, move |tp, input, pool| {
                sparse_reduce_scatter(tp, input, &cfg, pool)
            })
    }
}

/// Fluent builder for sparse allgather. Created by
/// [`Communicator::allgather`].
#[must_use = "collective builders do nothing until `launch()`"]
pub struct Allgather<'a, T: Transport + Send + 'static, V: Scalar> {
    comm: &'a mut Communicator<T>,
    input: &'a SparseStream<V>,
    nonblocking: bool,
}

impl<'a, T: Transport + Send + 'static, V: Scalar> Allgather<'a, T, V> {
    /// Runs the collective on a helper thread (see
    /// [`Allreduce::nonblocking`]).
    pub fn nonblocking(mut self) -> Self {
        self.nonblocking = true;
        self
    }

    /// Launches the collective.
    pub fn launch(self) -> Result<CollectiveHandle<'a, T, Vec<SparseStream<V>>>, CollError> {
        self.comm
            .launch(self.nonblocking, self.input, sparse_allgather)
    }
}

/// Fluent builder for the summing sparse allgather. Created by
/// [`Communicator::allgather_sum`].
#[must_use = "collective builders do nothing until `launch()`"]
pub struct AllgatherSum<'a, T: Transport + Send + 'static, V: Scalar> {
    comm: &'a mut Communicator<T>,
    input: &'a SparseStream<V>,
    nonblocking: bool,
}

impl<'a, T: Transport + Send + 'static, V: Scalar> AllgatherSum<'a, T, V> {
    /// Runs the collective on a helper thread (see
    /// [`Allreduce::nonblocking`]).
    pub fn nonblocking(mut self) -> Self {
        self.nonblocking = true;
        self
    }

    /// Launches the collective.
    pub fn launch(self) -> Result<CollectiveHandle<'a, T, SparseStream<V>>, CollError> {
        self.comm
            .launch(self.nonblocking, self.input, sparse_allgather_sum)
    }
}

/// Fluent builder for the dense block allgather. Created by
/// [`Communicator::allgather_dense`].
#[must_use = "collective builders do nothing until `launch()`"]
pub struct DenseAllgather<'a, T: Transport + Send + 'static, V: Scalar> {
    comm: &'a mut Communicator<T>,
    block: &'a [V],
    nonblocking: bool,
}

impl<'a, T: Transport + Send + 'static, V: Scalar> DenseAllgather<'a, T, V> {
    /// Runs the collective on a helper thread (see
    /// [`Allreduce::nonblocking`]).
    pub fn nonblocking(mut self) -> Self {
        self.nonblocking = true;
        self
    }

    /// Launches the collective.
    pub fn launch(self) -> Result<CollectiveHandle<'a, T, Vec<Vec<V>>>, CollError> {
        self.comm
            .launch(self.nonblocking, self.block, dense_allgather)
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
    fn dropped_in_flight_handle_returns_the_transport() {
        let p = 2;
        let clocks = run_communicators(p, CostModel::zero(), |comm| {
            let input = random_sparse::<f32>(256, 8, comm.rank() as u64);
            let handle = comm.allreduce(&input).nonblocking().launch().unwrap();
            drop(handle); // joins + reinstalls, result discarded
                          // The communicator must still be usable for a second round.
            comm.allreduce(&input)
                .algorithm(Algorithm::SsarRecDbl)
                .launch()
                .and_then(|h| h.wait())
                .unwrap();
            comm.size()
        });
        assert_eq!(clocks, vec![2, 2]);
    }

    #[test]
    fn poisoned_session_fails_every_entry_point() {
        let mut comm = Communicator::new(sparcml_net::standalone_thread_transport());
        let err = comm
            .launch(true, &(), |_tp, _: &(), _pool| -> Result<(), CollError> {
                panic!("helper thread dies")
            })
            .and_then(|h| h.wait())
            .unwrap_err();
        assert!(matches!(err, CollError::WorkerPanicked { .. }), "{err}");

        // Transport and pool are gone with the helper thread: every entry
        // point must fail with the typed error, not run on the P=1
        // placeholder and report a local-only success.
        fn assert_lost(what: &str, err: Option<CollError>) {
            match err {
                Some(CollError::Invalid(msg)) => {
                    assert!(msg.contains("lost its transport"), "{what}: {msg}")
                }
                other => panic!("{what}: expected the lost-transport error, got {other:?}"),
            }
        }
        macro_rules! both_modes {
            ($what:literal, $builder:expr) => {
                assert_lost($what, $builder.launch().err());
                assert_lost(
                    concat!($what, " nonblocking"),
                    $builder.nonblocking().launch().err(),
                );
            };
        }
        let x = SparseStream::<f32>::zeros(8);
        let block = [1.0f32; 4];
        both_modes!("allreduce", comm.allreduce(&x));
        both_modes!("reduce", comm.reduce(&x, 0));
        both_modes!("broadcast", comm.broadcast(&x, 0));
        both_modes!("reduce_scatter", comm.reduce_scatter(&x));
        both_modes!("allgather", comm.allgather(&x));
        both_modes!("allgather_sum", comm.allgather_sum(&x));
        both_modes!("allgather_dense", comm.allgather_dense(&block));
        assert_lost("cluster_report", comm.cluster_report().err());
        assert_lost("split", comm.split(0).err());
    }

    #[test]
    fn max_communicator_time_reports_slowest_rank() {
        let cost = CostModel {
            alpha: 0.0,
            beta: 0.0,
            gamma: 1.0,
            isend_alpha_fraction: 0.0,
        };
        let t = max_communicator_time(4, cost, |comm| {
            comm.compute(comm.rank());
        });
        assert_eq!(t, 3.0);
    }
}
