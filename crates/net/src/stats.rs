//! Per-endpoint communication statistics.

/// Declares [`CommStats`] from one authoritative field list: the struct
/// itself, [`CommStats::merge`], [`CommStats::since`], and
/// [`CommStats::fields`] are all generated from the same invocation, so
/// adding a counter is a one-line change that cannot drift between the
/// accessors (they used to be three hand-maintained lists).
macro_rules! comm_stats_fields {
    ($( $(#[$doc:meta])* $field:ident, )+) => {
        /// Traffic and work counters accumulated by an endpoint.
        #[derive(Debug, Clone, Default, PartialEq, Eq)]
        pub struct CommStats {
            $( $(#[$doc])* pub $field: u64, )+
        }

        impl CommStats {
            /// Number of raw counters (excluding derived rates).
            pub const FIELD_COUNT: usize = 0 $( + { let _ = stringify!($field); 1 } )+;

            /// Merges another counter set into this one.
            pub fn merge(&mut self, other: &CommStats) {
                $( self.$field += other.$field; )+
            }

            /// Counter deltas accumulated since `baseline` was snapshotted.
            /// Saturates at zero, so a clock/stats reset between the snapshots
            /// yields the post-reset counts instead of wrapping.
            pub fn since(&self, baseline: &CommStats) -> CommStats {
                CommStats {
                    $( $field: self.$field.saturating_sub(baseline.$field), )+
                }
            }

            /// Counter names and values in declaration order — the single
            /// source of truth behind [`CommStats::render_text`],
            /// [`CommStats::render_json`], and the serve `/metrics`
            /// Prometheus exposition, so the renderings can never drift.
            pub fn fields(&self) -> [(&'static str, u64); Self::FIELD_COUNT] {
                [ $( (stringify!($field), self.$field), )+ ]
            }
        }
    };
}

comm_stats_fields! {
    /// Messages injected (send + isend).
    msgs_sent,
    /// Payload bytes injected.
    bytes_sent,
    /// Messages received.
    msgs_recv,
    /// Payload bytes received.
    bytes_recv,
    /// Element operations charged via `compute`.
    compute_elements,
    /// Collective sub-operations started on this session — one per tag
    /// block drawn from the op-id counter (`Transport::next_op_id`).
    /// An `Algorithm::Auto` call whose pass only agreed draws one for the
    /// pass and one for the schedule it then runs; a fused one draws one.
    collectives,
    /// Message-buffer acquisitions from the session's persistent
    /// `BufferPool` (filled in by `Communicator::stats_snapshot`; raw
    /// transports report zero).
    pool_acquires,
    /// How many of those acquisitions reused a pooled allocation instead
    /// of allocating fresh.
    pool_reuses,
    /// Event-loop wakeups (`epoll_wait` returns) on the reactor
    /// transport; thread-per-peer transports report zero.
    wakeups,
    /// Write syscalls that moved fewer bytes than requested (socket
    /// backpressure observed by the reactor's nonblocking writes).
    partial_writes,
    /// Complete frames delivered by the reactor's readable-batch drains —
    /// `read_batch_frames / wakeups` approximates frames amortized per
    /// wakeup.
    read_batch_frames,
    /// Sparse recursive-doubling rounds whose outgoing frame carried a
    /// dense accumulator: the rounds that ran after the δ-switch (or on
    /// an input that was dense to begin with).
    switch_rounds,
    /// Merges that turned their accumulator from sparse to dense — the
    /// §5.1 rule `|H1|+|H2| > δ` firing, counted on every schedule that
    /// reduces streams. An accumulator flips at most once, so for a
    /// schedule with one accumulator per rank this is the number of
    /// collectives whose δ-switch fired.
    adaptive_densified,
    /// `Algorithm::Auto` calls whose agreement pass was the collective:
    /// every rank picked recursive doubling, so no round went to agreement.
    auto_fused,
    /// `Algorithm::Auto` calls whose pass only agreed on `k` (8-byte
    /// frames) and then dispatched the selected schedule.
    auto_fallback,
}

impl CommStats {
    /// Fraction of buffer acquisitions served from the pool (`0.0` when
    /// nothing was acquired). The steady state of a long-lived session
    /// approaches `1.0`: every collective after the first reuses the
    /// session pool's allocations.
    pub fn reuse_rate(&self) -> f64 {
        if self.pool_acquires == 0 {
            0.0
        } else {
            self.pool_reuses as f64 / self.pool_acquires as f64
        }
    }

    /// A point-in-time copy of the counters, for before/after traffic
    /// accounting (e.g. a progress engine reporting fused-vs-unfused
    /// message counts).
    pub fn snapshot(&self) -> CommStats {
        self.clone()
    }

    /// Zeroes every counter.
    pub fn reset(&mut self) {
        *self = CommStats::default();
    }

    /// Stable plaintext rendering: one `name value` line per counter plus
    /// a derived `pool_reuse_rate`, in a fixed order. Health endpoints and
    /// examples print this instead of hand-formatting counters.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for (name, value) in self.fields() {
            out.push_str(name);
            out.push(' ');
            out.push_str(&value.to_string());
            out.push('\n');
        }
        out.push_str(&format!("pool_reuse_rate {:.4}\n", self.reuse_rate()));
        out
    }

    /// Stable JSON rendering (hand-written — no serialization deps): a
    /// flat object with the same keys and order as
    /// [`CommStats::render_text`].
    pub fn render_json(&self) -> String {
        let mut out = String::from("{");
        for (name, value) in self.fields() {
            out.push_str(&format!("\"{name}\":{value},"));
        }
        out.push_str(&format!("\"pool_reuse_rate\":{:.4}}}", self.reuse_rate()));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CommStats {
        CommStats {
            msgs_sent: 1,
            bytes_sent: 10,
            msgs_recv: 2,
            bytes_recv: 20,
            compute_elements: 5,
            collectives: 3,
            pool_acquires: 8,
            pool_reuses: 6,
            wakeups: 12,
            partial_writes: 4,
            read_batch_frames: 7,
            switch_rounds: 9,
            adaptive_densified: 5,
            auto_fused: 11,
            auto_fallback: 13,
        }
    }

    #[test]
    fn reuse_rate_is_reuses_over_acquires() {
        assert_eq!(sample().reuse_rate(), 0.75);
        assert_eq!(CommStats::default().reuse_rate(), 0.0);
    }

    #[test]
    fn merge_adds_fields() {
        let mut a = sample();
        let b = a.clone();
        a.merge(&b);
        assert_eq!(a.msgs_sent, 2);
        assert_eq!(a.bytes_sent, 20);
        assert_eq!(a.msgs_recv, 4);
        assert_eq!(a.bytes_recv, 40);
        assert_eq!(a.compute_elements, 10);
        assert_eq!(a.collectives, 6);
        assert_eq!(a.wakeups, 24);
        assert_eq!(a.partial_writes, 8);
        assert_eq!(a.read_batch_frames, 14);
        assert_eq!(a.switch_rounds, 18);
        assert_eq!(a.adaptive_densified, 10);
    }

    #[test]
    fn merge_covers_every_field() {
        // The macro derives merge from the field list; double the sample
        // and check *every* published field doubled, via fields() itself.
        let mut doubled = sample();
        doubled.merge(&sample());
        for ((name, one), (_, two)) in sample().fields().iter().zip(doubled.fields().iter()) {
            assert_eq!(one * 2, *two, "field {name} not merged");
        }
    }

    #[test]
    fn field_count_matches_fields_len() {
        assert_eq!(CommStats::FIELD_COUNT, sample().fields().len());
        assert_eq!(CommStats::FIELD_COUNT, 15);
    }

    #[test]
    fn snapshot_since_round_trips() {
        let baseline = sample();
        let mut later = baseline.snapshot();
        assert_eq!(later, baseline);
        later.merge(&sample());
        assert_eq!(later.since(&baseline), sample());
    }

    #[test]
    fn render_text_is_line_per_counter() {
        let text = sample().render_text();
        assert!(text.contains("msgs_sent 1\n"));
        assert!(text.contains("bytes_recv 20\n"));
        assert!(text.contains("wakeups 12\n"));
        assert!(text.contains("partial_writes 4\n"));
        assert!(text.contains("read_batch_frames 7\n"));
        assert!(text.contains("switch_rounds 9\n"));
        assert!(text.contains("adaptive_densified 5\n"));
        assert!(text.contains("auto_fused 11\n"));
        assert!(text.contains("auto_fallback 13\n"));
        assert!(text.contains("pool_reuse_rate 0.7500\n"));
        assert_eq!(text.lines().count(), 16);
    }

    #[test]
    fn render_json_is_flat_and_parsable_by_eye() {
        let json = sample().render_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"msgs_sent\":1"));
        assert!(json.contains("\"pool_acquires\":8"));
        assert!(json.contains("\"wakeups\":12"));
        assert!(json.contains("\"partial_writes\":4"));
        assert!(json.contains("\"read_batch_frames\":7"));
        assert!(json.contains("\"switch_rounds\":9"));
        assert!(json.contains("\"adaptive_densified\":5"));
        assert!(json.contains("\"pool_reuse_rate\":0.7500"));
        assert!(!json.contains(",}"), "no trailing comma: {json}");
    }

    #[test]
    fn since_saturates_after_reset() {
        let baseline = sample();
        let mut s = sample();
        s.reset();
        assert_eq!(s, CommStats::default());
        s.msgs_sent = 1;
        let delta = s.since(&baseline);
        assert_eq!(delta.msgs_sent, 0); // 1 < baseline's 1? saturated to 0
        assert_eq!(delta.bytes_sent, 0);
    }
}
