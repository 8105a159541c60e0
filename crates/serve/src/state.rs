//! Server-side mutable state: per-model accumulators, the session
//! registry, and the gauge counters the health endpoint reports.
//!
//! A model's running sum is a [`RankedSum`] up to δ — its values packed
//! in index order and found by rank, so a sparsely filled range costs
//! 4 B per entry rather than per index — and dense past δ (see
//! [`ModelState`]). Either form writes the STATE and UPDATE frames the
//! sorted-slab sum would, byte for byte.

use std::collections::{HashMap, HashSet};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::Sender;
use std::sync::Arc;

use sparcml_stream::{DensityPolicy, PartRange, RankedSum, SparseStream, StreamError, SumStats};

use crate::config::{AggregationMode, ModelSpec};

/// One model's accumulator on one shard: the running sum over the
/// shard's index range plus the generation counter that advances once
/// per applied contribution.
///
/// The sum takes the form its STATE frame has on the wire. Up to δ it is
/// a [`RankedSum`] over the range: the occupancy bitmap the frame's index
/// is written from, a rank directory over it, and the values in blocks of
/// the range, packed in index order while a block is at most a quarter
/// full and one per slot past that. A contribution on the sum's support
/// adds in place, and one with new indices merges into each block it
/// grows — never into a copy of the whole sum. Past δ it is dense. Both
/// forms hold the values a sorted-slab sum would, to the bit, so every
/// frame is the one the slabs would encode.
pub(crate) struct ModelState {
    /// The declared spec (full logical dimension, not the shard slice).
    pub spec: ModelSpec,
    /// Index range this shard owns.
    pub range: PartRange,
    /// Running sum; dim is the full model dim, support stays within
    /// `range` (validated at admission).
    sum: Accumulator,
    /// Applied-contribution counter, which is also the number of
    /// contributions folded in.
    pub generation: u64,
}

/// The forms of a running sum (see [`ModelState`]).
enum Accumulator {
    /// The occupied slots of the range, found by rank, up to δ.
    Ranked(RankedSum<f32>),
    /// Dense values past δ.
    Dense(SparseStream<f32>),
}

impl ModelState {
    /// An empty accumulator.
    pub fn new(spec: ModelSpec, range: PartRange) -> Self {
        let dim = spec.dim;
        ModelState {
            spec,
            range,
            sum: Accumulator::Ranked(RankedSum::new(dim, range)),
            generation: 0,
        }
    }

    /// Folds a validated contribution into the accumulator and advances
    /// the generation.
    ///
    /// The ranked sum goes dense, once, when `stored + |contribution|`
    /// crosses δ — the test every sum makes — or a dense contribution
    /// arrives. The returned stats count what the call did: the entries a
    /// ranked sum added, a dense sum's touched values.
    pub fn apply(
        &mut self,
        contribution: &SparseStream<f32>,
        policy: &DensityPolicy,
    ) -> Result<SumStats, StreamError> {
        let stats = self.add(contribution, policy)?;
        self.generation += 1;
        Ok(stats)
    }

    fn add(
        &mut self,
        contribution: &SparseStream<f32>,
        policy: &DensityPolicy,
    ) -> Result<SumStats, StreamError> {
        if let Accumulator::Ranked(ranked) = &self.sum {
            let delta = policy.delta::<f32>(self.spec.dim);
            if !contribution.is_sparse() || ranked.len() + contribution.stored_len() > delta {
                // Leaving the ranked form through slabs: their δ-switch
                // below builds the dense sum a slab sum would have.
                self.sum = Accumulator::Dense(ranked.to_stream());
            }
        }
        match &mut self.sum {
            Accumulator::Ranked(ranked) => Ok(SumStats {
                elements_processed: ranked.add(contribution)?,
                result_dense: false,
                switched_to_dense: false,
            }),
            Accumulator::Dense(sum) => match contribution.sparse_view() {
                Some(view) => sum.add_assign_view(view, policy),
                None => sum.add_assign_with(contribution, policy),
            },
        }
    }

    /// The raw sum as a stream.
    fn total(&self) -> SparseStream<f32> {
        match &self.sum {
            Accumulator::Ranked(ranked) => ranked.to_stream(),
            Accumulator::Dense(sum) => sum.clone(),
        }
    }

    /// Entries in the raw sum: stored pairs (explicit zeros included)
    /// while sparse, non-zero values once dense.
    pub fn nnz(&self) -> usize {
        match &self.sum {
            Accumulator::Ranked(ranked) => ranked.len(),
            Accumulator::Dense(sum) => sum.nnz(),
        }
    }

    /// The state a client is served: the raw sum, or the average for
    /// [`AggregationMode::Average`] models.
    pub fn render(&self) -> SparseStream<f32> {
        let mut out = self.total();
        if self.spec.mode == AggregationMode::Average && self.generation > 0 {
            out.scale(1.0 / self.generation as f32);
        }
        out
    }

    /// Appends the served state's wire frame to `out`. A Sum model is
    /// encoded straight from its accumulator, without a copy.
    pub fn encode_append(&self, out: &mut Vec<u8>) {
        match (self.spec.mode, &self.sum) {
            (AggregationMode::Sum, Accumulator::Ranked(ranked)) => ranked.encode_append(out),
            (AggregationMode::Sum, Accumulator::Dense(sum)) => sum.encode_append(out),
            (AggregationMode::Average, _) => self.render().encode_append(out),
        }
    }
}

/// Lifecycle of a named session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SessionPhase {
    /// Connected and serviceable.
    Active,
    /// Connection closed (EOF/reset) — resumable by name.
    Disconnected,
    /// The idle watchdog killed a silent/half-open connection —
    /// resumable by name.
    Reaped,
    /// Said BYE; resumable by name.
    Departed,
}

impl SessionPhase {
    pub fn as_str(self) -> &'static str {
        match self {
            SessionPhase::Active => "active",
            SessionPhase::Disconnected => "disconnected",
            SessionPhase::Reaped => "reaped",
            SessionPhase::Departed => "departed",
        }
    }
}

/// Registry entry for one session name. Survives disconnects so a
/// reconnect resumes the same identity and counters.
pub(crate) struct SessionEntry {
    pub phase: SessionPhase,
    /// Contributions accepted (ACKed) over all incarnations.
    pub contributions: u64,
    /// BUSY rejections sent to this session.
    pub busy_rejections: u64,
    /// Connections made under this name (1 = never reconnected).
    pub connects: u64,
    /// Contributions currently inside the server (queued, not yet
    /// applied) — the per-session backpressure gauge.
    pub queued: Arc<AtomicUsize>,
    /// Encoded-frame channel into the current incarnation's writer
    /// thread; `None` while not connected.
    pub outbox: Option<Sender<Vec<u8>>>,
    /// Handle the server uses to force the current connection closed on
    /// shutdown.
    pub socket: Option<TcpStream>,
    /// Model ids this session wants UPDATE pushes for.
    pub subscriptions: HashSet<u16>,
}

impl SessionEntry {
    pub fn new() -> Self {
        SessionEntry {
            phase: SessionPhase::Active,
            contributions: 0,
            busy_rejections: 0,
            connects: 0,
            queued: Arc::new(AtomicUsize::new(0)),
            outbox: None,
            socket: None,
            subscriptions: HashSet::new(),
        }
    }
}

/// The session registry: name → entry.
pub(crate) type Registry = HashMap<String, SessionEntry>;

/// Monotonic counters the health endpoint and tests read without
/// touching any lock.
#[derive(Default)]
pub(crate) struct Gauges {
    pub frames_recv: AtomicU64,
    pub bytes_recv: AtomicU64,
    pub frames_sent: AtomicU64,
    pub bytes_sent: AtomicU64,
    pub busy_rejections: AtomicU64,
    pub sessions_reaped: AtomicU64,
    pub sessions_disconnected: AtomicU64,
    pub applied_contributions: AtomicU64,
    /// Element operations the applies did ([`ModelState::apply`]'s
    /// `elements_processed`): the entries a ranked sum added, a dense
    /// sum's touched values.
    pub applied_elements: AtomicU64,
    pub shard_syncs: AtomicU64,
}

impl Gauges {
    pub fn bump(counter: &AtomicU64, by: u64) {
        counter.fetch_add(by, Ordering::Relaxed);
    }

    pub fn get(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparcml_stream::partition_range;

    fn spec(mode: AggregationMode) -> ModelSpec {
        ModelSpec {
            name: "m".into(),
            dim: 100,
            mode,
        }
    }

    #[test]
    fn apply_advances_generation_and_merges() {
        let mut state = ModelState::new(spec(AggregationMode::Sum), partition_range(100, 1, 0));
        let c = SparseStream::from_pairs(100, &[(3, 1.0f32), (7, 2.0)]).unwrap();
        let policy = DensityPolicy::default();
        state.apply(&c, &policy).unwrap();
        state.apply(&c, &policy).unwrap();
        assert_eq!(state.generation, 2);
        assert_eq!(state.render().get(3), 2.0);
        assert_eq!(state.render().get(7), 4.0);
    }

    /// The accumulator against the slab sum it replaces, driven by the
    /// same contributions: after every one, the served frame, `render()`
    /// and the health endpoint's nnz must be the slab sum's, byte for
    /// byte. The sequence crosses δ and holds empty slices, explicit ±0
    /// and (unsharded only) a dense contribution.
    #[test]
    fn every_form_serves_the_slab_sums_frame() {
        use sparcml_stream::{random_sparse, XorShift64};
        let dim = 4096;
        let policy = DensityPolicy::default();
        // (shards, whether a dense contribution arrives once the sum has
        // been a window for three steps)
        for (shards, dense_part) in [(1, false), (1, true), (2, false)] {
            for mode in [AggregationMode::Sum, AggregationMode::Average] {
                for shard in 0..shards {
                    let range = partition_range(dim, shards, shard);
                    let spec = ModelSpec {
                        name: "m".into(),
                        dim,
                        mode,
                    };
                    let mut state = ModelState::new(spec, range);
                    let mut oracle = SparseStream::<f32>::zeros(dim);
                    let mut rng = XorShift64::new(7 + shard as u64);
                    let (mut window_steps, mut dense) = (0, false);
                    for step in 0..90 {
                        let k = [0, 40, 250, 600][rng.next_below(4) as usize];
                        let part = random_sparse::<f32>(dim, k, rng.next_u64());
                        let (indices, mut values) = part
                            .restrict(range.lo, range.hi)
                            .into_sparse()
                            .unwrap()
                            .into_slabs();
                        for (j, v) in values.iter_mut().enumerate() {
                            match (step + j) % 11 {
                                0 => *v = 0.0,
                                1 => *v = -0.0,
                                _ => {}
                            }
                        }
                        let mut part = SparseStream::from_slabs(dim, indices, values).unwrap();
                        if dense_part && window_steps == 3 && !oracle.is_dense() {
                            assert!(matches!(state.sum, Accumulator::Ranked(_)));
                            part.densify();
                        }
                        state.apply(&part, &policy).unwrap();
                        match part.sparse_view() {
                            Some(view) => oracle.add_assign_view(view, &policy),
                            None => oracle.add_assign_with(&part, &policy),
                        }
                        .unwrap();
                        if matches!(state.sum, Accumulator::Ranked(_)) {
                            window_steps += 1;
                        }
                        dense |= oracle.is_dense();

                        let mut served = oracle.clone();
                        if mode == AggregationMode::Average {
                            served.scale(1.0 / state.generation as f32);
                        }
                        let what = format!("{shards} shards, {mode:?}, shard {shard}, step {step}");
                        // Behind a header, as the STATE frame carries it.
                        let mut frame = vec![0xEE; 5];
                        state.encode_append(&mut frame);
                        assert_eq!(frame[..5], [0xEE; 5], "{what}");
                        assert_eq!(frame[5..], served.encode()[..], "{what}");
                        assert_eq!(state.render().encode(), served.encode(), "{what}");
                        assert_eq!(state.nnz(), oracle.nnz(), "{what}");
                    }
                    assert!(window_steps >= 3 && dense, "{shards} shards, shard {shard}");
                }
            }
        }
    }

    #[test]
    fn average_mode_scales_by_contributions() {
        let mut state = ModelState::new(spec(AggregationMode::Average), partition_range(100, 1, 0));
        let policy = DensityPolicy::default();
        for v in [1.0f32, 3.0] {
            let c = SparseStream::from_pairs(100, &[(5, v)]).unwrap();
            state.apply(&c, &policy).unwrap();
        }
        assert_eq!(state.render().get(5), 2.0); // (1 + 3) / 2
                                                // The raw sum is untouched by rendering.
        assert_eq!(state.total().get(5), 4.0);
    }
}
