//! Server-side mutable state: per-model accumulators, the session
//! registry, and the gauge counters the health endpoint reports.

use std::collections::{HashMap, HashSet};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::Sender;
use std::sync::Arc;

use sparcml_stream::{DensityPolicy, PartRange, SparseStream, StreamError, SumStats};

use crate::config::{AggregationMode, ModelSpec};

/// One model's accumulator on one shard: the running sum over the
/// shard's index range plus the generation counter that advances once
/// per applied contribution.
pub(crate) struct ModelState {
    /// The declared spec (full logical dimension, not the shard slice).
    pub spec: ModelSpec,
    /// Index range this shard owns.
    pub range: PartRange,
    /// Running sum; dim is the full model dim, support stays within
    /// `range` (validated at admission).
    pub sum: SparseStream<f32>,
    /// Applied-contribution counter, which is also the number of
    /// contributions folded in.
    pub generation: u64,
}

impl ModelState {
    pub fn new(spec: ModelSpec, range: PartRange) -> Self {
        let dim = spec.dim;
        ModelState {
            spec,
            range,
            sum: SparseStream::zeros(dim),
            generation: 0,
        }
    }

    /// Folds a validated contribution into the accumulator and advances
    /// the generation.
    pub fn apply(
        &mut self,
        contribution: &SparseStream<f32>,
        policy: &DensityPolicy,
    ) -> Result<SumStats, StreamError> {
        let stats = match contribution.sparse_view() {
            Some(view) => self.sum.add_assign_view(view, policy)?,
            None => self.sum.add_assign_with(contribution, policy)?,
        };
        self.generation += 1;
        Ok(stats)
    }

    /// The state a client is served: the raw sum, or the average for
    /// [`AggregationMode::Average`] models.
    pub fn render(&self) -> SparseStream<f32> {
        let mut out = self.sum.clone();
        if self.spec.mode == AggregationMode::Average && self.generation > 0 {
            out.scale(1.0 / self.generation as f32);
        }
        out
    }

    /// Serializes the served state into `out` (cleared first). A Sum model
    /// is encoded straight from its accumulator, without a copy.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self.spec.mode {
            AggregationMode::Sum => self.sum.encode_into(out),
            AggregationMode::Average => self.render().encode_into(out),
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
        assert_eq!(state.sum.get(5), 4.0);
    }
}
