//! Log-bucketed latency histograms, dependency-free.

use std::collections::BTreeMap;
use std::sync::Mutex;

/// Number of power-of-two buckets in a [`LatencyHisto`]: bucket `i`
/// covers durations in `[2^i, 2^(i+1))` nanoseconds, with the last
/// bucket absorbing everything larger (≈ 9 minutes and up).
pub const HISTO_BUCKETS: usize = 40;

/// A log-bucketed latency histogram.
///
/// Durations are recorded in power-of-two nanosecond buckets, so
/// `record` is a couple of integer ops, `merge` is element-wise
/// addition, and quantiles are exact to within a factor of 2 (the
/// bucket's upper bound is reported). No floating-point state is kept
/// beyond the sum, making merge exactly commutative and associative.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHisto {
    buckets: [u64; HISTO_BUCKETS],
    count: u64,
    sum_ns: u64,
}

impl Default for LatencyHisto {
    fn default() -> LatencyHisto {
        LatencyHisto {
            buckets: [0; HISTO_BUCKETS],
            count: 0,
            sum_ns: 0,
        }
    }
}

fn bucket_index(ns: u64) -> usize {
    if ns <= 1 {
        return 0;
    }
    ((63 - ns.leading_zeros()) as usize).min(HISTO_BUCKETS - 1)
}

/// Upper bound (exclusive) of bucket `i`, in nanoseconds.
fn bucket_upper_ns(i: usize) -> u64 {
    if i >= HISTO_BUCKETS - 1 {
        u64::MAX
    } else {
        1u64 << (i + 1)
    }
}

impl LatencyHisto {
    /// An empty histogram.
    pub fn new() -> LatencyHisto {
        LatencyHisto::default()
    }

    /// Record one duration in seconds. Negative or non-finite values
    /// are clamped to zero.
    pub fn record(&mut self, seconds: f64) {
        let ns = if seconds.is_finite() && seconds > 0.0 {
            (seconds * 1e9).round().min(u64::MAX as f64) as u64
        } else {
            0
        };
        self.record_ns(ns);
    }

    /// Record one duration in nanoseconds.
    pub fn record_ns(&mut self, ns: u64) {
        self.buckets[bucket_index(ns)] += 1;
        self.count += 1;
        self.sum_ns = self.sum_ns.saturating_add(ns);
    }

    /// Fold another histogram into this one. Exactly commutative:
    /// `a.merge(b)` and `b.merge(a)` produce identical histograms.
    pub fn merge(&mut self, other: &LatencyHisto) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded durations in nanoseconds (saturating).
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns
    }

    /// Sum of recorded durations in seconds.
    pub fn sum_seconds(&self) -> f64 {
        self.sum_ns as f64 / 1e9
    }

    /// Mean recorded duration in seconds (0 if empty).
    pub fn mean_seconds(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64 / 1e9
        }
    }

    /// Quantile estimate in seconds: the upper bound of the first
    /// bucket whose cumulative count reaches `q * count`, i.e. an
    /// upper bound on the true quantile tight to within 2x. Returns
    /// `None` on an empty histogram; `q` is clamped to `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            cum += b;
            if cum >= target {
                let upper = bucket_upper_ns(i);
                return Some(if upper == u64::MAX {
                    self.sum_ns as f64 / 1e9 // degenerate top bucket: bound by the sum
                } else {
                    upper as f64 / 1e9
                });
            }
        }
        unreachable!("cumulative count covers all samples");
    }

    /// Raw bucket counts (index `i` covers `[2^i, 2^(i+1))` ns).
    pub fn buckets(&self) -> &[u64; HISTO_BUCKETS] {
        &self.buckets
    }

    /// Render the Prometheus text-format lines for this histogram under
    /// `name` with an optional `{label}` set (pass `""` for none).
    /// Emits cumulative `_bucket{le=...}` lines for every non-empty
    /// prefix boundary plus `le="+Inf"`, then `_sum` and `_count`.
    pub fn render_prometheus(&self, name: &str, labels: &str, out: &mut String) {
        use std::fmt::Write as _;
        let sep = if labels.is_empty() { "" } else { "," };
        let mut cum = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            cum += b;
            if b == 0 {
                continue;
            }
            let upper = bucket_upper_ns(i);
            if upper == u64::MAX {
                continue; // folded into +Inf below
            }
            let le = upper as f64 / 1e9;
            let _ = writeln!(out, "{name}_bucket{{{labels}{sep}le=\"{le}\"}} {cum}");
        }
        let _ = writeln!(
            out,
            "{name}_bucket{{{labels}{sep}le=\"+Inf\"}} {}",
            self.count
        );
        let _ = writeln!(out, "{name}_sum{{{labels}}} {}", self.sum_seconds());
        let _ = writeln!(out, "{name}_count{{{labels}}} {}", self.count);
    }
}

/// Key of one histogram in a [`LatencyRegistry`]: a static label (the
/// algorithm's paper-legend name), the transport backend the samples
/// ran over (`"reactor"`, `"thread"`, `"endpoint"`, ...), and a size class
/// (`floor(log2 k)`).
pub type HistoKey = (&'static str, &'static str, u8);

/// A registry of [`LatencyHisto`]s keyed by `(label, backend, size-class)`.
///
/// The size class is `floor(log2 k)` of the per-rank element count, so
/// measurements only ever mix with calls of comparable volume; the
/// backend dimension keeps thread and reactor latencies in separate
/// series.
#[derive(Debug, Default)]
pub struct LatencyRegistry {
    inner: Mutex<BTreeMap<HistoKey, LatencyHisto>>,
}

impl LatencyRegistry {
    /// An empty registry.
    pub fn new() -> LatencyRegistry {
        LatencyRegistry::default()
    }

    /// Size class for a per-rank element count: `floor(log2 k)`.
    pub fn size_class(k: usize) -> u8 {
        (usize::BITS - 1 - (k | 1).leading_zeros()) as u8
    }

    /// Record one duration (seconds) under `(label, backend, size_class(k))`.
    pub fn record(&self, label: &'static str, backend: &'static str, k: usize, seconds: f64) {
        let key = (label, backend, Self::size_class(k));
        self.inner
            .lock()
            .unwrap()
            .entry(key)
            .or_default()
            .record(seconds);
    }

    /// Snapshot of all histograms, sorted by key.
    pub fn snapshot(&self) -> Vec<(HistoKey, LatencyHisto)> {
        self.inner
            .lock()
            .unwrap()
            .iter()
            .map(|(k, v)| (*k, v.clone()))
            .collect()
    }

    /// Human-readable multi-line report: one line per key with count,
    /// mean and p50/p90/p99 upper bounds. Empty string if no samples.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for ((label, backend, class), h) in self.snapshot() {
            let _ = writeln!(
                out,
                "latency {label} [{backend}] 2^{class}: n={} mean={:.3}ms p50<={:.3}ms p90<={:.3}ms p99<={:.3}ms",
                h.count(),
                h.mean_seconds() * 1e3,
                h.quantile(0.5).unwrap_or(0.0) * 1e3,
                h.quantile(0.9).unwrap_or(0.0) * 1e3,
                h.quantile(0.99).unwrap_or(0.0) * 1e3,
            );
        }
        out
    }

    /// Render every histogram in Prometheus text format under
    /// `sparcml_collective_seconds` with `algorithm`/`size_class` labels.
    pub fn render_prometheus(&self, out: &mut String) {
        let snap = self.snapshot();
        if snap.is_empty() {
            return;
        }
        out.push_str("# TYPE sparcml_collective_seconds histogram\n");
        for ((label, backend, class), h) in snap {
            let labels =
                format!("algorithm=\"{label}\",transport=\"{backend}\",size_class=\"{class}\"");
            h.render_prometheus("sparcml_collective_seconds", &labels, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_bounds_single_value() {
        let mut h = LatencyHisto::new();
        h.record(0.001); // 1e6 ns
        let q = h.quantile(0.5).unwrap();
        assert!(q >= 0.001, "upper bound must cover the sample, got {q}");
        assert!(q <= 0.002 + 1e-12, "bound tight to 2x, got {q}");
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn merge_matches_bulk_record() {
        let mut a = LatencyHisto::new();
        let mut b = LatencyHisto::new();
        let mut all = LatencyHisto::new();
        for i in 1..100u64 {
            let ns = i * i * 37;
            if i % 2 == 0 {
                a.record_ns(ns);
            } else {
                b.record_ns(ns);
            }
            all.record_ns(ns);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab, all);
    }

    #[test]
    fn registry_size_class_and_report() {
        assert_eq!(LatencyRegistry::size_class(1), 0);
        assert_eq!(LatencyRegistry::size_class(1024), 10);
        assert_eq!(LatencyRegistry::size_class(1025), 10);
        assert_eq!(LatencyRegistry::size_class(100_000), 16);
        let reg = LatencyRegistry::new();
        reg.record("ssar_split", "tcp", 100_000, 0.002);
        reg.record("ssar_split", "tcp", 100_000, 0.004);
        reg.record("dense_rabenseifner", "reactor", 100_000, 0.008);
        let text = reg.render_text();
        assert!(text.contains("ssar_split [tcp] 2^16: n=2"));
        assert!(text.contains("dense_rabenseifner [reactor] 2^16: n=1"));
        let mut prom = String::new();
        reg.render_prometheus(&mut prom);
        assert!(prom.contains(
            "sparcml_collective_seconds_bucket{algorithm=\"dense_rabenseifner\",transport=\"reactor\""
        ));
        assert!(prom.contains("le=\"+Inf\""));
        assert!(prom.contains("sparcml_collective_seconds_count"));
    }

    #[test]
    fn registry_keeps_backends_in_separate_series() {
        let reg = LatencyRegistry::new();
        reg.record("ssar_split", "tcp", 1024, 0.002);
        reg.record("ssar_split", "reactor", 1024, 0.004);
        let snap = reg.snapshot();
        let keys: Vec<HistoKey> = snap.iter().map(|(key, _)| *key).collect();
        assert_eq!(
            keys,
            [("ssar_split", "reactor", 10), ("ssar_split", "tcp", 10)]
        );
        assert!(snap.iter().all(|(_, h)| h.count() == 1));
    }
}
