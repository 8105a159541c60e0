//! The benchmark's vocabulary: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics with the workload that
//! measures each and the metric it should move.
//! `BENCHMARK.json` states the same names, units, directions and bounds; a
//! unit test keeps the two in step.

use crate::json::{escape, number};

pub const AR_LATENCY: &str = "ar-latency";
pub const AR_BANDWIDTH: &str = "ar-bandwidth";
pub const ENGINE_STEP: &str = "engine-step";
pub const SERVE_MIXED: &str = "serve-mixed";
pub const AR_VIRTUAL_P8: &str = "ar-virtual-p8";

pub struct WorkloadDef {
    pub name: &'static str,
    pub params: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadDef; 5] = [
    WorkloadDef {
        name: AR_LATENCY,
        params: "P=2 reactor loopback, N=2^20 f32, k=256/rank, Algorithm::Auto, closed loop",
        why: "Latency-bound: net wake-ups, the agreement round and fixed per-collective cost do the work, stream merge/codec almost none",
    },
    WorkloadDef {
        name: AR_BANDWIDTH,
        params: "P=2 reactor loopback, N=2^20 f32, k=100000/rank (~10% density), Algorithm::Auto, closed loop",
        why: "Merge/codec/bytes-bound: stream merge and slab codec do the work, net latency almost none; the bypass for every latency optimisation",
    },
    WorkloadDef {
        name: ENGINE_STEP,
        params: "P=2 reactor, one op = one step: 44 layers (dim 2^14, k=32) + 4 layers (dim 2^20, k=10000) via submit_allreduce_group_shared, all tickets waited",
        why: "Engine queue/agree/fuse/split on many small layers beside a few big ones; the ar-* workloads bypass the engine entirely",
    },
    WorkloadDef {
        name: SERVE_MIXED,
        params: "1-shard ShardGroup, 2 closed-loop ServeClients; cycle = 15 contribute (k=8192 from every 4th index of 2^20) + 1 fetch",
        why: "Asymmetric merge of a small operand into a large sparse accumulator, with 1.3 MB reads running beside the writes",
    },
    WorkloadDef {
        name: AR_VIRTUAL_P8,
        params: "P=8 run_communicators on CostModel::aries(), N=2^20, k in {1e2,1e3,1e4,1e5,3e5}; every Algorithm::ALL member plus Auto; op time is virtual",
        why: "Multi-round schedules, the delta-switch and Auto regret at P above the core count, where only virtual time is exact",
    },
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end only: share of the parent's median it may worsen by.
    pub bound: Option<f64>,
    /// Per-layer only: the workload whose traced run measures it.
    pub owner: &'static str,
    /// Per-layer only: the metric it should move, and on which workload.
    pub moves: &'static str,
}

fn e2e(name: &str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name: name.to_string(),
        unit,
        better,
        bound: Some(bound),
        owner: "",
        moves: "",
    }
}

/// Every workload reports every one of these with tracing off, and each
/// is gated: a later change may not worsen its median by more than the
/// bound.
///
/// Only quantities that repeat on this host are here. Wall-clock op time,
/// throughput and CPU per op are not: ten runs of one commit spread 2-9 %
/// (inter-quartile, share of the median) in a quiet quarter of an hour and
/// 12-34 % in a noisy one, with the medians of the two up to 30 % apart,
/// so no bound at or below 10 % holds and a wider one gates nothing. They
/// are reported, unresolved, as the per-layer `wall.*` metrics, and a
/// claimed gain on them is judged by alternating pairs.
pub fn end_to_end() -> Vec<MetricDef> {
    use Better::Lower;
    vec![
        e2e("wire_bytes_per_op", "B", Lower, 0.01),
        e2e("peak_rss_mb", "MiB", Lower, 0.10),
        e2e("setup_s", "s", Lower, 0.25),
        e2e("auto_regret_max", "ratio", Lower, 0.01),
        // Its own unit: a virtual microsecond is computed, not measured,
        // and reads the same on every run.
        e2e("virt_us_geomean", "virt_us", Lower, 0.01),
    ]
}

/// `Algorithm::name()` of each `Algorithm::ALL` member when the benchmark
/// was defined. The metric list is fixed here so it cannot drift with the
/// library; a member that disappears reads 0, a new one is printed but
/// not gated on.
pub const ALGORITHM_NAMES: [&str; 8] = [
    "SSAR_Recursive_double",
    "SSAR_Split_allgather",
    "DSAR_Split_allgather",
    "Dense_Recursive_double",
    "Dense_Rabenseifner",
    "Dense_Ring",
    "Sparse_Ring",
    "Adaptive_switch",
];

/// The density sweep of `ar-virtual-p8`: metric tag and nnz per rank.
pub const VIRTUAL_SWEEP: [(&str, usize); 5] = [
    ("k1e2", 100),
    ("k1e3", 1_000),
    ("k1e4", 10_000),
    ("k1e5", 100_000),
    ("k3e5", 300_000),
];

fn layer(
    name: impl Into<String>,
    unit: &'static str,
    better: Better,
    owner: &'static str,
    moves: &'static str,
) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
        better,
        bound: None,
        owner,
        moves,
    }
}

/// Owner of the `wall.*` metrics: each of the four wall-clock workloads
/// reports its own.
pub const EVERY_WALL: &str = "every wall-clock workload";

impl MetricDef {
    /// Whether `workload`'s traced run measures this per-layer metric.
    pub fn owned_by(&self, workload: &str) -> bool {
        if self.owner == EVERY_WALL {
            workload != AR_VIRTUAL_P8
        } else {
            self.owner == workload
        }
    }
}

/// Measured by the owner workload's traced run; none is gated.
pub fn per_layer() -> Vec<MetricDef> {
    use Better::{Higher, Lower};
    let mut m = vec![
        layer(
            "wall.op_p50_us",
            "us",
            Lower,
            EVERY_WALL,
            "the op time a user sees; unresolved on this host, so not gated",
        ),
        layer(
            "wall.ops_per_s",
            "1/s",
            Higher,
            EVERY_WALL,
            "closed-loop throughput, a mean, so tail growth shows; unresolved, not gated",
        ),
        layer(
            "wall.cpu_us_per_op",
            "us",
            Lower,
            EVERY_WALL,
            "the CPU the library takes from training compute; unresolved, not gated",
        ),
        layer(
            "stream.encode_ns_per_nnz",
            "ns",
            Lower,
            AR_BANDWIDTH,
            "wall.op_p50_us, wall.cpu_us_per_op @ ar-bandwidth; not ar-latency",
        ),
        layer(
            "stream.decode_ns_per_nnz",
            "ns",
            Lower,
            AR_BANDWIDTH,
            "wall.op_p50_us, wall.cpu_us_per_op @ ar-bandwidth; not ar-latency",
        ),
        layer(
            "stream.merge_sym_ns_per_nnz",
            "ns",
            Lower,
            AR_BANDWIDTH,
            "wall.op_p50_us @ ar-bandwidth; not ar-latency, ar-virtual-p8",
        ),
        layer(
            "stream.allocs_per_merge",
            "count",
            Lower,
            AR_BANDWIDTH,
            "wall.op_p50_us @ ar-bandwidth",
        ),
        layer(
            "stream.merge_asym_ns_per_nnz",
            "ns",
            Lower,
            SERVE_MIXED,
            "wall.ops_per_s @ serve-mixed; ar-bandwidth must not get worse",
        ),
        layer(
            "stream.scatter_dense_ns_per_nnz",
            "ns",
            Lower,
            AR_BANDWIDTH,
            "none gated (guards the dense path)",
        ),
        layer(
            "stream.fuse_split_us_per_step",
            "us",
            Lower,
            ENGINE_STEP,
            "wall.op_p50_us @ engine-step; not ar-*",
        ),
        layer(
            "net.reactor_rtt_us",
            "us",
            Lower,
            AR_LATENCY,
            "wall.op_p50_us @ ar-latency, engine-step; not ar-bandwidth",
        ),
        layer(
            "net.thread_rtt_us",
            "us",
            Lower,
            AR_LATENCY,
            "the in-process floor under net.reactor_rtt_us",
        ),
        layer(
            "net.reactor_mib_per_s",
            "MiB/s",
            Higher,
            AR_BANDWIDTH,
            "wall.op_p50_us @ ar-bandwidth; not ar-latency",
        ),
        layer(
            "net.msgs_per_op",
            "count",
            Lower,
            AR_LATENCY,
            "wall.cpu_us_per_op @ ar-latency, engine-step",
        ),
        layer(
            "net.wakeups_per_op",
            "count",
            Lower,
            AR_LATENCY,
            "wall.cpu_us_per_op @ ar-latency, engine-step",
        ),
        layer(
            "net.frames_per_wakeup",
            "count",
            Higher,
            AR_LATENCY,
            "wall.cpu_us_per_op @ ar-latency, engine-step",
        ),
        layer(
            "net.partial_writes_per_op",
            "count",
            Lower,
            AR_LATENCY,
            "wall.cpu_us_per_op @ ar-latency, engine-step",
        ),
        layer("net.mesh_connect_ms", "ms", Lower, AR_LATENCY, "setup_s"),
    ];
    for (tag, owner, moves) in [
        (
            "lat",
            AR_LATENCY,
            "wall.op_p50_us @ ar-latency when Auto picks it; not ar-bandwidth",
        ),
        (
            "bw",
            AR_BANDWIDTH,
            "wall.op_p50_us @ ar-bandwidth when Auto picks it; not ar-latency",
        ),
    ] {
        for algo in ALGORITHM_NAMES {
            m.push(layer(
                format!("core.{tag}.{algo}.p50_us"),
                "us",
                Lower,
                owner,
                moves,
            ));
        }
    }
    m.extend([
        layer(
            "core.lat.auto_regret",
            "ratio",
            Lower,
            AR_LATENCY,
            "wall.op_p50_us @ ar-latency",
        ),
        layer(
            "core.bw.auto_regret",
            "ratio",
            Lower,
            AR_BANDWIDTH,
            "wall.op_p50_us @ ar-bandwidth",
        ),
        layer(
            "core.lat.agree_overhead_us",
            "us",
            Lower,
            AR_LATENCY,
            "wall.op_p50_us @ ar-latency; not ar-bandwidth",
        ),
        layer(
            "core.bw.residual_us",
            "us",
            Lower,
            AR_BANDWIDTH,
            "wall.op_p50_us @ ar-bandwidth",
        ),
        layer(
            "core.lat.op_p99_us",
            "us",
            Lower,
            AR_LATENCY,
            "wall.ops_per_s @ ar-latency (tail; reported, not gated)",
        ),
        layer(
            "core.bw.op_p99_us",
            "us",
            Lower,
            AR_BANDWIDTH,
            "wall.ops_per_s @ ar-bandwidth (tail; reported, not gated)",
        ),
        layer(
            "core.lat.allocs_per_op",
            "count",
            Lower,
            AR_LATENCY,
            "wall.cpu_us_per_op @ ar-latency",
        ),
        layer(
            "core.bw.allocs_per_op",
            "count",
            Lower,
            AR_BANDWIDTH,
            "wall.cpu_us_per_op @ ar-bandwidth",
        ),
        layer(
            "core.bw.alloc_bytes_per_op",
            "B",
            Lower,
            AR_BANDWIDTH,
            "wall.cpu_us_per_op, peak_rss_mb @ ar-bandwidth",
        ),
        layer(
            "core.pool_reuse_rate",
            "ratio",
            Higher,
            AR_LATENCY,
            "wall.cpu_us_per_op, peak_rss_mb",
        ),
    ]);
    for (tag, _) in VIRTUAL_SWEEP {
        m.push(layer(
            format!("core.virt.{tag}.auto_us"),
            "us",
            Lower,
            AR_VIRTUAL_P8,
            "virt_us_geomean @ ar-virtual-p8; not wall workloads",
        ));
        m.push(layer(
            format!("core.virt.{tag}.best_us"),
            "us",
            Lower,
            AR_VIRTUAL_P8,
            "auto_regret_max @ ar-virtual-p8",
        ));
        m.push(layer(
            format!("core.virt.{tag}.regret"),
            "ratio",
            Lower,
            AR_VIRTUAL_P8,
            "auto_regret_max @ ar-virtual-p8",
        ));
    }
    m.extend([
        layer(
            "core.virt.sparse_vs_dense_k1e2",
            "ratio",
            Higher,
            AR_VIRTUAL_P8,
            "paper claim: sparse wins when latency-bound",
        ),
        layer(
            "core.virt.switch_rounds",
            "count",
            Lower,
            AR_VIRTUAL_P8,
            "paper claim: the delta-switch crossover",
        ),
        layer(
            "core.virt.adaptive_densified",
            "count",
            Lower,
            AR_VIRTUAL_P8,
            "paper claim: the delta-switch crossover",
        ),
        layer(
            "engine.unfused_step_p50_us",
            "us",
            Lower,
            ENGINE_STEP,
            "the baseline under engine.fusion_speedup",
        ),
        layer(
            "engine.fusion_speedup",
            "ratio",
            Higher,
            ENGINE_STEP,
            "wall.op_p50_us @ engine-step; not ar-*",
        ),
        layer(
            "engine.submit_us",
            "us",
            Lower,
            ENGINE_STEP,
            "wall.op_p50_us, wall.cpu_us_per_op @ engine-step",
        ),
        layer(
            "engine.collectives_per_step",
            "count",
            Lower,
            ENGINE_STEP,
            "wall.op_p50_us, wire_bytes_per_op @ engine-step",
        ),
        layer(
            "engine.msgs_per_step",
            "count",
            Lower,
            ENGINE_STEP,
            "wall.cpu_us_per_op, wire_bytes_per_op @ engine-step",
        ),
        layer(
            "engine.allocs_per_step",
            "count",
            Lower,
            ENGINE_STEP,
            "wall.cpu_us_per_op @ engine-step",
        ),
        layer(
            "engine.step_p99_us",
            "us",
            Lower,
            ENGINE_STEP,
            "wall.ops_per_s @ engine-step (tail; reported, not gated)",
        ),
        layer(
            "serve.contribute_p50_us",
            "us",
            Lower,
            SERVE_MIXED,
            "wall.op_p50_us, wall.ops_per_s @ serve-mixed",
        ),
        layer(
            "serve.contribute_p99_us",
            "us",
            Lower,
            SERVE_MIXED,
            "wall.ops_per_s @ serve-mixed",
        ),
        layer(
            "serve.fetch_p50_us",
            "us",
            Lower,
            SERVE_MIXED,
            "wall.ops_per_s @ serve-mixed",
        ),
        layer(
            "serve.fetch_p99_us",
            "us",
            Lower,
            SERVE_MIXED,
            "wall.ops_per_s @ serve-mixed",
        ),
        layer(
            "serve.ops_per_s_1client",
            "1/s",
            Higher,
            SERVE_MIXED,
            "the baseline under serve.scale_2c",
        ),
        layer(
            "serve.scale_2c",
            "ratio",
            Higher,
            SERVE_MIXED,
            "wall.ops_per_s @ serve-mixed (non-decreasing in clients)",
        ),
        layer(
            "serve.connect_ms",
            "ms",
            Lower,
            SERVE_MIXED,
            "setup_s @ serve-mixed",
        ),
        layer(
            "quant.ar_q8_p50_us",
            "us",
            Lower,
            AR_BANDWIDTH,
            "none gated (guards the low-precision path)",
        ),
        layer(
            "quant.wire_bytes_ratio",
            "ratio",
            Lower,
            AR_BANDWIDTH,
            "none gated (guards the low-precision path)",
        ),
        layer(
            "obs.recorder_overhead_ratio",
            "ratio",
            Lower,
            AR_LATENCY,
            "none gated with tracing off; bounds what recorder numbers may be trusted for",
        ),
        layer(
            "obs.spans_per_op",
            "count",
            Lower,
            AR_LATENCY,
            "obs.recorder_overhead_ratio",
        ),
        layer(
            "obs.dropped_spans",
            "count",
            Lower,
            AR_LATENCY,
            "validity of obs.spans_per_op",
        ),
    ]);
    for w in &WORKLOADS {
        m.push(layer(
            format!("trace.overhead_ratio.{}", w.name),
            "ratio",
            Lower,
            w.name,
            "validity check of this table",
        ));
    }
    m
}

/// Measured values by metric name, in the order they were reported.
#[derive(Default)]
pub struct Measured(Vec<(String, f64)>);

impl Measured {
    pub fn put(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        debug_assert!(self.get(&name).is_none(), "metric {name} reported twice");
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    pub fn extend(&mut self, other: Measured) {
        for (name, value) in other.0 {
            self.put(name, value);
        }
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.0.iter().map(|(n, v)| (n.as_str(), *v))
    }
}

/// What one run of one workload produced.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Measured,
}

/// The contract's result line. With tracing off it carries every
/// end-to-end metric and a missing one is a bug; with tracing on it
/// carries every per-layer metric, and one this workload does not
/// measure reads 0.
pub fn result_line(outcome: &Outcome, traced: bool) -> Result<String, String> {
    let defs = if traced { per_layer() } else { end_to_end() };
    let mut fields = Vec::with_capacity(defs.len());
    for def in &defs {
        let value = match outcome.metrics.get(&def.name) {
            Some(v) => v,
            None if traced => 0.0,
            None => return Err(format!("end-to-end metric {} was not measured", def.name)),
        };
        if !value.is_finite() {
            return Err(format!("metric {} is {value}", def.name));
        }
        fields.push(format!(
            "{}:{{\"value\":{},\"unit\":{}}}",
            escape(&def.name),
            number(value),
            escape(def.unit)
        ));
    }
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        fields.join(",")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};

    fn name_ok(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_fit_the_charset_and_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name.to_string()));
        }
        let layers = per_layer();
        assert!(layers.len() <= 128, "{} per-layer metrics", layers.len());
        for def in end_to_end().iter().chain(&layers) {
            assert!(name_ok(&def.name), "{}", def.name);
            assert!(unit_ok(def.unit), "{} unit {}", def.name, def.unit);
            assert!(seen.insert(def.name.clone()), "{} is used twice", def.name);
        }
        assert!(!name_ok("µs") && !name_ok(".x") && !name_ok("a b") && !name_ok(""));
    }

    #[test]
    fn every_layer_metric_has_an_owner_workload_and_a_prediction() {
        for def in per_layer() {
            assert!(
                WORKLOADS.iter().any(|w| def.owned_by(w.name)),
                "{} owner {}",
                def.name,
                def.owner
            );
            assert!(!def.moves.is_empty(), "{}", def.name);
        }
        for def in end_to_end() {
            let bound = def.bound.unwrap();
            let most = if def.name == "setup_s" { 0.25 } else { 0.10 };
            assert!(bound > 0.0 && bound <= most, "{}", def.name);
        }
    }

    #[test]
    fn algorithm_names_cover_the_library_set() {
        for algo in sparcml::Algorithm::ALL {
            assert!(
                ALGORITHM_NAMES.contains(&algo.name()),
                "{} has no per-layer metric; it is printed but not in BENCHMARK.json",
                algo.name()
            );
        }
    }

    #[test]
    fn benchmark_json_states_the_same_contract() {
        let path = crate::sys::bench_dir().join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
        let doc = parse(&text).unwrap();
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Value::as_array)
                .unwrap()
                .iter()
                .map(|e| e.get("name").and_then(Value::as_str).unwrap().to_string())
                .collect()
        };
        let expect_workloads: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
        assert_eq!(names("workloads"), expect_workloads);
        for (entry, w) in doc
            .get("workloads")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .zip(&WORKLOADS)
        {
            assert_eq!(entry.get("why").and_then(Value::as_str), Some(w.why));
        }
        for (key, defs) in [("end_to_end", end_to_end()), ("per_layer", per_layer())] {
            let entries = doc.get(key).unwrap().as_array().unwrap();
            assert_eq!(entries.len(), defs.len(), "{key}");
            for (entry, def) in entries.iter().zip(&defs) {
                assert_eq!(
                    entry.get("name").and_then(Value::as_str),
                    Some(def.name.as_str())
                );
                assert_eq!(
                    entry.get("unit").and_then(Value::as_str),
                    Some(def.unit),
                    "{}",
                    def.name
                );
                assert_eq!(
                    entry.get("better").and_then(Value::as_str),
                    Some(def.better.as_str()),
                    "{}",
                    def.name
                );
                assert_eq!(
                    entry.get("bound").and_then(Value::as_f64),
                    def.bound,
                    "{}",
                    def.name
                );
            }
        }
        assert!(names("end_to_end").contains(&"setup_s".to_string()));
    }

    #[test]
    fn result_line_pads_layers_and_refuses_missing_end_to_end() {
        let mut metrics = Measured::default();
        metrics.put("net.reactor_rtt_us", 41.5);
        let outcome = Outcome {
            attempted: 10,
            failed: 0,
            metrics,
        };
        let line = parse(&result_line(&outcome, true).unwrap()).unwrap();
        let m = line.get("metrics").unwrap();
        assert_eq!(m.as_object().unwrap().len(), per_layer().len());
        assert_eq!(
            m.get("net.reactor_rtt_us")
                .and_then(|v| v.get("value"))
                .and_then(Value::as_f64),
            Some(41.5)
        );
        assert_eq!(
            m.get("serve.fetch_p50_us")
                .and_then(|v| v.get("value"))
                .and_then(Value::as_f64),
            Some(0.0)
        );
        assert_eq!(line.get("correct").and_then(Value::as_bool), Some(true));
        assert!(result_line(&outcome, false).is_err());
    }
}
