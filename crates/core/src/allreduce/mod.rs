//! Sparse and dense allreduce algorithms (§5.3 of the paper).
//!
//! Every algorithm computes the element-wise sum of the `P` input vectors
//! and leaves a copy of the result at every rank. The variants differ in
//! their communication schedules and in how they exploit sparsity:
//!
//! | algorithm | schedule | intended regime |
//! |---|---|---|
//! | [`Algorithm::Auto`] | adaptive (§5.3 selector); agrees on `k` inside recursive doubling's own frames, with a split pick's split-phase frames sent between its rounds | the default: picks one of the below per call, at no extra round where the pick is recursive doubling and `⌊log2 P⌋·0.1α` where it is the split schedule (powers of two, Aries' isend fraction) |
//! | [`Algorithm::SsarRecDbl`] | recursive doubling on sparse streams, every frame ending in the 8-byte agreement word; on a dense input its frames are dense from the first round | small data, latency-bound (§5.3.1) |
//! | [`Algorithm::SsarSplitAllgather`] | dimension split + allgather of each block in its wire coding; the result stays dense past δ, and the gather is quantized under `.quantized()` | large sparse data (§5.3.2) and dense final results (§5.3.3, §6) |
//! | [`Algorithm::DenseRabenseifner`] | recursive halving + doubling on dense vectors | the dense baseline of §8 [44] |

mod dense;
mod ssar_rec_dbl;
mod ssar_split_ag;

pub(crate) use dense::dense_rabenseifner;
pub(crate) use ssar_rec_dbl::ssar_recursive_double;
// The split phase of SSAR_Split_allgather doubles as the crate's
// reduce-scatter (see `rooted::sparse_reduce_scatter`).
pub(crate) use ssar_split_ag::{reduce_partition, send_split_steps, ssar_split_allgather};

use ssar_rec_dbl::Stance;
use ssar_split_ag::ssar_receive_half;

use sparcml_net::Transport;
use sparcml_obs as obs;
use sparcml_quant::QsgdConfig;
use sparcml_stream::{DensityPolicy, Scalar, SparseStream};

use crate::error::CollError;
use crate::op::{self, BufferPool};

/// Which allreduce schedule to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Adaptive selection (the §5.3 selector): the communicator estimates
    /// the expected fill-in for the observed workload and picks the
    /// cheapest concrete schedule under its transport's cost model. This
    /// is the default of the [`crate::Communicator`] builder API. Ranks
    /// agree on the workload size inside recursive doubling's own frames,
    /// so a call that resolves to that schedule spends no round on
    /// agreement (`CommStats::auto_fused`); any other runs one pass of
    /// 8-byte frames first (`CommStats::auto_fallback`). A rank whose own
    /// `k` picks the split schedule sends its split-phase frames between
    /// that pass's rounds, so where the agreed pick is the split schedule
    /// the pass costs one isend per round (`⌊log2 P⌋·isend_alpha_fraction·α`
    /// at powers of two) instead of a round trip; where it is not, the
    /// speculated frames are drained before the pick runs.
    Auto,
    /// Sparse recursive doubling (`SSAR_Recursive_double`).
    SsarRecDbl,
    /// Sparse split + allgather (`SSAR_Split_allgather`): sparse blocks,
    /// and a result that stays dense past δ.
    SsarSplitAllgather,
    /// Dense Rabenseifner baseline (reduce-scatter + allgather).
    DenseRabenseifner,
}

impl Algorithm {
    /// All concrete algorithms, for sweeps ([`Algorithm::Auto`] resolves to
    /// one of these). The order only breaks ties in the selector's sweep:
    /// the earlier member wins.
    pub const ALL: [Algorithm; 3] = [
        Algorithm::SsarRecDbl,
        Algorithm::SsarSplitAllgather,
        Algorithm::DenseRabenseifner,
    ];

    /// Short human-readable name matching the paper's figure legends.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Auto => "Auto",
            Algorithm::SsarRecDbl => "SSAR_Recursive_double",
            Algorithm::SsarSplitAllgather => "SSAR_Split_allgather",
            Algorithm::DenseRabenseifner => "Dense_Rabenseifner",
        }
    }

    /// Whether this is the adaptive placeholder rather than a concrete
    /// schedule.
    pub fn is_auto(&self) -> bool {
        matches!(self, Algorithm::Auto)
    }
}

/// Options shared by all allreduce variants.
#[derive(Debug, Clone, Copy)]
pub struct AllreduceConfig {
    /// Sparse→dense switching policy (δ scaling, §5.1).
    pub policy: DensityPolicy,
    /// When set, `SSAR_Split_allgather` QSGD-quantizes each partition's
    /// dense values before the allgather stage (§6), and the result is
    /// dense at any fill-in.
    pub quant: Option<QsgdConfig>,
    /// Seed for stochastic quantization; each rank derives `seed + rank`.
    pub quant_seed: u64,
}

impl Default for AllreduceConfig {
    fn default() -> Self {
        AllreduceConfig {
            policy: DensityPolicy::default(),
            quant: None,
            quant_seed: 0x005b_ac31,
        }
    }
}

/// What [`resolve_auto`]'s pass settled.
enum AutoPass<V: Scalar> {
    /// Every rank was eager: the pass was `SSAR_Recursive_double` itself
    /// and this is the allreduce result — `Auto` cost no round of its own.
    Reduced(SparseStream<V>),
    /// Some rank was not: the pass agreed on `k` only, and `algo` is the
    /// schedule the selector picks for it, still to be run. `split_op` is
    /// set when `algo` is the split schedule, whose split-phase frames every
    /// rank has already sent under that op id (the pass's): only its
    /// receive half is left.
    Resolved {
        algo: Algorithm,
        split_op: Option<u64>,
    },
}

/// Resolves [`Algorithm::Auto`] for this call. Ranks must agree on the
/// maximum per-rank non-zero count before selecting — local Top-k streams
/// can have slightly different sizes under error feedback, and a per-rank
/// choice could diverge and deadlock the schedule — and the agreement
/// rides recursive doubling's own frames
/// ([`ssar_rec_dbl::rec_dbl_agree`]). A rank's own `k` sets how it enters
/// the pass: a rank whose own pick is
/// `SSAR_Recursive_double` is *eager*, reducing as it agrees; one whose
/// own pick is the split schedule *speculates*, sending its split-phase
/// frames between the rounds. If every rank was eager, the pass already
/// produced the result and no round was spent on agreement. Otherwise the
/// agreed `k` goes through the §5.3 selector, and:
/// - a split pick continues on the pass's op id: the ranks that did not
///   speculate send their split frames now, and the caller runs the
///   receive half;
/// - any other pick first drains the frames speculators sent this rank,
///   so none outlives the call, and the caller dispatches it.
///
/// Returns the outcome and the agreed `k`.
fn resolve_auto<T: Transport, V: Scalar>(
    ep: &mut T,
    input: &SparseStream<V>,
    cfg: &AllreduceConfig,
    pool: &mut BufferPool,
) -> Result<(AutoPass<V>, usize), CollError> {
    // Covers only passes that fall back: a pass that completes the
    // reduction shows up as its collective span instead.
    let mut span = obs::span(obs::Category::Agreement, "auto-resolve");
    let p = ep.size();
    let n = input.dim();
    // How this rank enters the pass: by its own pick.
    let own = crate::selector::select_algorithm::<V>(p, n, input.stored_len().max(1), ep.cost());
    let stance = match own {
        Algorithm::SsarRecDbl => Stance::Eager,
        Algorithm::SsarSplitAllgather => Stance::Speculative,
        _ => Stance::Bare,
    };
    let pass = ssar_rec_dbl::rec_dbl_agree(ep, input, stance, cfg, pool)?;
    if let Some(result) = pass.result {
        span.cancel();
        ep.stats_mut().auto_fused += 1;
        return Ok((AutoPass::Reduced(result), pass.k));
    }
    ep.stats_mut().auto_fallback += 1;
    let algo = crate::selector::select_algorithm::<V>(p, n, pass.k, ep.cost());
    let speculated = stance == Stance::Speculative;
    let split_op = match pass.op_id {
        Some(op_id) if algo == Algorithm::SsarSplitAllgather => {
            if !speculated {
                send_split_steps(ep, input, op_id, 1..p, pool)?;
            }
            Some(op_id)
        }
        Some(op_id) => {
            for _ in 0..pass.speculators - usize::from(speculated) {
                let (_, orphan) = ep.recv_any(op::tag(op_id, op::subtag::SPLIT))?;
                pool.recycle(orphan);
            }
            None
        }
        None => None,
    };
    Ok((AutoPass::Resolved { algo, split_op }, pass.k))
}

/// Internal dispatcher behind the [`crate::Communicator`] builders.
///
/// Besides routing, this is the stack's measurement point: the concrete
/// schedule's execution is wrapped in a `collective` span and timed via
/// the transport clock (virtual seconds on [`sparcml_net::Endpoint`],
/// wall seconds on the socket transports). Durations land in the global
/// [`sparcml_obs::metrics::global`] registry keyed by
/// `(algorithm, backend, size-class)` — surfacing through
/// [`crate::Communicator::stats_report`] and serve's `/metrics`. Nothing
/// measured here feeds back into selection: `Auto`'s pick is a function
/// of the call alone.
pub(crate) fn dispatch<T: Transport, V: Scalar>(
    ep: &mut T,
    input: &SparseStream<V>,
    algo: Algorithm,
    cfg: &AllreduceConfig,
    pool: &mut BufferPool,
) -> Result<SparseStream<V>, CollError> {
    let (algo, split_op, k) = if algo.is_auto() {
        // The pass may turn out to have been the collective: measure it
        // as one from its first frame, and drop the measurement if it
        // only agreed.
        let mut fused = Measurement::start(ep, Algorithm::SsarRecDbl, 0);
        match resolve_auto::<T, V>(ep, input, cfg, pool) {
            Ok((AutoPass::Reduced(out), k)) => {
                let result = Ok(out);
                fused.finish(ep, k, input, &result);
                return result;
            }
            Ok((AutoPass::Resolved { algo, split_op }, k)) => {
                fused.span.cancel();
                (algo, split_op, k)
            }
            Err(e) => {
                fused.span.cancel();
                return Err(e);
            }
        }
    } else {
        (algo, None, input.stored_len().max(1))
    };
    let run = Measurement::start(ep, algo, k);
    // With `split_op`, `algo` is `Auto`'s split pick whose split-phase
    // frames every rank already sent under that op id: only the receive
    // half runs, its allgather under a fresh op id.
    let result = match (algo, split_op) {
        (Algorithm::Auto, _) => unreachable!("Auto resolves to a concrete algorithm"),
        (Algorithm::SsarSplitAllgather, Some(split_op)) => {
            let gather_op = ep.next_op_id();
            ssar_receive_half(ep, input, cfg, split_op, gather_op, pool)
        }
        (Algorithm::SsarRecDbl, _) => ssar_recursive_double(ep, input, cfg, pool),
        (Algorithm::SsarSplitAllgather, None) => ssar_split_allgather(ep, input, cfg, pool),
        (Algorithm::DenseRabenseifner, _) => dense_rabenseifner(ep, input, cfg, pool),
    };
    run.finish(ep, k, input, &result);
    result
}

/// One collective's measurement, opened before its first frame: the
/// `collective` span, the transport-clock start, and the per-peer wait
/// marks whose deltas decide which peer arrived last (straggler blame).
struct Measurement {
    algo: Algorithm,
    span: obs::SpanGuard,
    marks: Vec<(u32, u64)>,
    start: f64,
}

impl Measurement {
    fn start<T: Transport>(ep: &T, algo: Algorithm, k: usize) -> Measurement {
        Measurement {
            algo,
            span: obs::span_with(obs::Category::Collective, algo.name(), k as u64),
            marks: obs::telemetry::peer_wait_marks(),
            start: ep.clock(),
        }
    }

    /// Closes the measurement over `result`: a success lands in the
    /// latency registry and the telemetry collector; a failure records
    /// nothing.
    fn finish<T: Transport, V: Scalar>(
        mut self,
        ep: &T,
        k: usize,
        input: &SparseStream<V>,
        result: &Result<SparseStream<V>, CollError>,
    ) {
        let Ok(out) = result else {
            self.span.cancel();
            return;
        };
        self.span.set_arg(k as u64);
        let elapsed = ep.clock() - self.start;
        obs::metrics::global().record(self.algo.name(), ep.backend_name(), k, elapsed);
        if obs::telemetry::enabled() {
            obs::telemetry::note_worst_peer(&self.marks);
            obs::telemetry::record_density(input.dim(), input.nnz(), out.nnz(), out.is_dense());
        }
    }
}
