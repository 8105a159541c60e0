//! Property-based tests of the observability primitives: latency
//! histogram algebra (record/merge commutativity, quantile monotonicity,
//! bucket bounds) and the span recorder → Chrome-trace export pipeline
//! (interval nesting survives recording; the exported JSON is
//! structurally valid and complete).
//!
//! Runs on the deterministic in-repo case generator (seeded `XorShift64`)
//! instead of the `proptest` crate — the build environment has no
//! registry access; failures reproduce by construction.

use std::sync::Mutex;

use sparcml::obs::{self, Category, LatencyHisto, Recorder, RecorderConfig, TraceSink};
use sparcml::stream::XorShift64;

const CASES: usize = 48;

/// Latencies spanning sub-microsecond to multi-second, well inside the
/// 40-bucket range so the degenerate top bucket never engages.
fn sample_latencies(rng: &mut XorShift64, max_n: u64) -> Vec<f64> {
    let n = 1 + rng.next_below(max_n) as usize;
    (0..n)
        .map(|_| {
            let exp = rng.next_below(10) as i32 - 7; // 1e-7 .. 1e2 seconds
            let mantissa = 1.0 + rng.next_below(1000) as f64 / 1000.0;
            mantissa * 10f64.powi(exp)
        })
        .collect()
}

#[test]
fn histo_merge_is_commutative_and_matches_bulk_record() {
    let mut rng = XorShift64::new(0xb0b);
    for _ in 0..CASES {
        let samples = sample_latencies(&mut rng, 200);
        let split = rng.next_below(samples.len() as u64) as usize;

        let mut bulk = LatencyHisto::new();
        let mut left = LatencyHisto::new();
        let mut right = LatencyHisto::new();
        for (i, &s) in samples.iter().enumerate() {
            bulk.record(s);
            if i < split {
                left.record(s);
            } else {
                right.record(s);
            }
        }
        let mut lr = left.clone();
        lr.merge(&right);
        let mut rl = right.clone();
        rl.merge(&left);

        assert_eq!(lr.buckets(), rl.buckets(), "merge must be commutative");
        assert_eq!(lr.count(), rl.count());
        assert_eq!(lr.buckets(), bulk.buckets(), "merge must equal bulk record");
        assert_eq!(lr.count(), samples.len() as u64);
        assert!((lr.sum_seconds() - bulk.sum_seconds()).abs() < 1e-9);
    }
}

#[test]
fn histo_quantiles_are_monotone_and_bound_the_samples() {
    let mut rng = XorShift64::new(0xcafe);
    for _ in 0..CASES {
        let samples = sample_latencies(&mut rng, 100);
        let mut h = LatencyHisto::new();
        for &s in &samples {
            h.record(s);
        }
        let min = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = samples.iter().cloned().fold(0.0f64, f64::max);

        // Monotone in q.
        let mut prev = 0.0;
        for i in 0..=20 {
            let q = i as f64 / 20.0;
            let v = h.quantile(q).expect("non-empty histogram");
            assert!(v >= prev, "quantile({q}) = {v} < previous {prev}");
            prev = v;
        }
        // Each quantile is an upper bound tight to 2x: p100 covers the
        // max sample, p~0 stays within twice the min sample's bucket.
        let p100 = h.quantile(1.0).unwrap();
        assert!(p100 >= max * (1.0 - 1e-9), "p100 {p100} < max {max}");
        assert!(
            p100 <= max * 2.0 * (1.0 + 1e-6),
            "p100 {p100} > 2*max {max}"
        );
        let p0 = h.quantile(0.0).unwrap();
        assert!(p0 <= min * 2.0 * (1.0 + 1e-6), "p0 {p0} > 2*min {min}");
    }
}

#[test]
fn histo_bucket_totals_match_count_and_sum() {
    let mut rng = XorShift64::new(0xdead);
    for _ in 0..CASES {
        let samples = sample_latencies(&mut rng, 150);
        let mut h = LatencyHisto::new();
        let mut expect_sum = 0.0;
        for &s in &samples {
            h.record(s);
            expect_sum += s;
        }
        let bucket_total: u64 = h.buckets().iter().sum();
        assert_eq!(bucket_total, samples.len() as u64);
        assert_eq!(h.count(), samples.len() as u64);
        // Sums agree to nanosecond-truncation precision per sample.
        let slack = samples.len() as f64 * 1e-9;
        assert!(
            (h.sum_seconds() - expect_sum).abs() <= slack + expect_sum * 1e-9,
            "sum {} vs {expect_sum}",
            h.sum_seconds()
        );
    }
}

/// The span recorder and trace exporter are process-global; serialize
/// the tests that install one.
fn recorder_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

/// Emits a random tree of nested spans (depth ≤ 4, fanout ≤ 3) and
/// returns how many were opened.
fn emit_span_tree(rng: &mut XorShift64, depth: usize) -> usize {
    const NAMES: [&str; 4] = ["alpha", "beta", "gamma", "delta"];
    let name = NAMES[rng.next_below(NAMES.len() as u64) as usize];
    let _guard = obs::span_with(Category::Phase, name, depth as u64);
    let mut opened = 1;
    if depth < 4 {
        for _ in 0..rng.next_below(3) {
            opened += emit_span_tree(rng, depth + 1);
        }
    }
    opened
}

#[test]
fn recorded_span_intervals_nest_and_export_structurally_valid_json() {
    let _serial = recorder_lock();
    let mut rng = XorShift64::new(0xf00d);
    for _ in 0..8 {
        Recorder::install(RecorderConfig::default());
        let opened = emit_span_tree(&mut rng, 0);
        let threads = Recorder::drain();
        Recorder::uninstall();

        let spans: Vec<_> = threads.iter().flat_map(|t| t.spans.iter()).collect();
        assert_eq!(spans.len(), opened, "every opened span must be drained");

        // Guard drop order means any two spans either nest or are
        // disjoint — never partially overlap.
        for a in &spans {
            for b in &spans {
                let (a0, a1) = (a.start_ns, a.start_ns + a.dur_ns);
                let (b0, b1) = (b.start_ns, b.start_ns + b.dur_ns);
                let nested = (a0 >= b0 && a1 <= b1) || (b0 >= a0 && b1 <= a1);
                let disjoint = a1 <= b0 || b1 <= a0;
                assert!(
                    nested || disjoint,
                    "partially overlapping spans: [{a0},{a1}] vs [{b0},{b1}]"
                );
            }
        }

        // The Chrome export parses and carries one X event per span
        // plus process/thread metadata, all with the required keys.
        let mut out = Vec::new();
        TraceSink::write_chrome_trace(&mut out, 3, "proptest", &threads).unwrap();
        let doc = obs::json::parse(std::str::from_utf8(&out).unwrap()).unwrap();
        let events = doc
            .get("traceEvents")
            .and_then(|v| v.as_arr())
            .expect("traceEvents array");
        let xs: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(|v| v.as_str()) == Some("X"))
            .collect();
        assert_eq!(xs.len(), opened);
        for e in &xs {
            assert_eq!(e.get("pid").and_then(|v| v.as_f64()), Some(3.0));
            assert!(e.get("tid").and_then(|v| v.as_f64()).is_some());
            assert!(e.get("ts").and_then(|v| v.as_f64()).is_some());
            assert!(e.get("dur").and_then(|v| v.as_f64()).is_some());
            assert!(e.get("name").and_then(|v| v.as_str()).is_some());
            assert_eq!(e.get("cat").and_then(|v| v.as_str()), Some("phase"));
        }
        assert!(
            events
                .iter()
                .any(|e| e.get("ph").and_then(|v| v.as_str()) == Some("M")),
            "metadata events present"
        );
    }
}

#[test]
fn a_trace_says_whether_auto_cost_a_round() {
    // A pass that completes the reduction is the `SSAR_Recursive_double`
    // collective span, annotated with the agreed (maximum) k, and leaves
    // no agreement span; a pass that falls back is one `auto-resolve`
    // agreement span followed by the picked schedule's collective span.
    use sparcml::core::{run_communicators, select_algorithm, Algorithm};
    use sparcml::net::CostModel;
    use sparcml::stream::random_sparse;

    let _serial = recorder_lock();
    let (p, dim) = (8usize, 1 << 14);
    let cost = CostModel::aries();
    for (base_nnz, fused) in [(16usize, true), (6000, false)] {
        let agreed_k = base_nnz + p - 1;
        let pick = select_algorithm::<f32>(p, dim, agreed_k, &cost);
        assert_eq!(pick == Algorithm::SsarRecDbl, fused);
        Recorder::install(RecorderConfig::default());
        run_communicators(p, cost, |comm| {
            let rank = comm.rank();
            let input = random_sparse::<f32>(dim, base_nnz + rank, 70 + rank as u64);
            comm.allreduce(&input)
                .launch()
                .and_then(|h| h.wait())
                .unwrap();
        });
        let threads = Recorder::uninstall();
        let spans: Vec<_> = threads.iter().flat_map(|t| t.spans.iter()).collect();
        let named = |cat: Category, name: &str| {
            spans
                .iter()
                .filter(|s| s.cat == cat && s.name == name)
                .map(|s| s.arg)
                .collect::<Vec<u64>>()
        };
        assert_eq!(
            named(Category::Collective, pick.name()),
            vec![agreed_k as u64; p],
            "one collective span per rank, carrying the agreed k"
        );
        assert_eq!(
            named(Category::Agreement, "auto-resolve").len(),
            if fused { 0 } else { p },
            "auto-resolve spans cover exactly the passes that fall back"
        );
    }
}

// ---------------------------------------------------------------------
// Telemetry frame codec (cluster telemetry plane)
// ---------------------------------------------------------------------

use sparcml::obs::{TelemetryError, TelemetryFrame};

/// A random but valid telemetry frame: every field exercised, all
/// vector lengths inside the codec's caps.
fn sample_frame(rng: &mut XorShift64) -> TelemetryFrame {
    use sparcml::obs::telemetry::{DensityStats, HistoDigest, PeerWait};
    const NAMES: [&str; 4] = ["msgs_sent", "bytes_sent", "collectives", "pool_reuses"];
    const ALGOS: [&str; 3] = ["ssar_recdbl", "ring", "dsar"];
    const BACKENDS: [&str; 3] = ["tcp", "reactor", "thread"];
    TelemetryFrame {
        rank: rng.next_below(64) as u32,
        world: 64,
        seq: rng.next_below(1 << 20),
        wall_us: rng.next_below(1 << 50),
        compute_ns: rng.next_below(1 << 40),
        blocked_ns: rng.next_below(1 << 40),
        span_drops: rng.next_below(1 << 16),
        counters: (0..rng.next_below(4))
            .map(|i| (NAMES[i as usize].to_string(), rng.next_below(1 << 30)))
            .collect(),
        peer_waits: (0..rng.next_below(6))
            .map(|i| PeerWait {
                peer: i as u32,
                waits: rng.next_below(1 << 10),
                wait_ns: rng.next_below(1 << 36),
                max_wait_ns: rng.next_below(1 << 30),
                last_arrivals: rng.next_below(1 << 8),
            })
            .collect(),
        density: DensityStats {
            collectives: rng.next_below(1 << 12),
            dim_sum: rng.next_below(1 << 40),
            input_nnz_sum: rng.next_below(1 << 30),
            input_nnz_max: rng.next_below(1 << 20),
            output_nnz_sum: rng.next_below(1 << 32),
            output_nnz_max: rng.next_below(1 << 20),
            dense_results: rng.next_below(1 << 8),
        },
        histos: (0..rng.next_below(3))
            .map(|i| HistoDigest {
                label: ALGOS[i as usize].to_string(),
                backend: BACKENDS[i as usize].to_string(),
                class: rng.next_below(40) as u8,
                count: rng.next_below(1 << 20),
                sum_ns: rng.next_below(1 << 40),
                buckets: (0..rng.next_below(5))
                    .map(|b| (b as u8, 1 + rng.next_below(1 << 16)))
                    .collect(),
            })
            .collect(),
    }
}

#[test]
fn telemetry_frame_binary_codec_round_trips() {
    let mut rng = XorShift64::new(0x7e1e);
    for _ in 0..CASES {
        let frame = sample_frame(&mut rng);
        let wire = frame.encode();
        let back = TelemetryFrame::decode(&wire).expect("round trip");
        assert_eq!(back, frame);
        // JSON path (launcher files) round-trips too.
        let json = frame.to_json().render();
        let parsed = sparcml::obs::json::parse(&json).expect("frame JSON parses");
        assert_eq!(TelemetryFrame::from_json(&parsed), Some(frame));
    }
}

#[test]
fn truncated_frames_fail_typed_never_panic() {
    let mut rng = XorShift64::new(0x74c0de);
    let frame = sample_frame(&mut rng);
    let wire = frame.encode();
    for len in 0..wire.len() {
        match TelemetryFrame::decode(&wire[..len]) {
            Err(TelemetryError::Truncated { .. }) | Err(TelemetryError::BadMagic) => {}
            other => panic!("prefix of {len} bytes: unexpected {other:?}"),
        }
    }
    // Trailing garbage is rejected, not silently ignored.
    let mut long = wire.clone();
    long.extend_from_slice(b"junk");
    assert!(matches!(
        TelemetryFrame::decode(&long),
        Err(TelemetryError::Trailing { .. })
    ));
}

#[test]
fn corrupt_frames_error_or_decode_but_never_panic() {
    let mut rng = XorShift64::new(0xbadc0de);
    for _ in 0..CASES {
        let frame = sample_frame(&mut rng);
        let mut wire = frame.encode();
        // Flip a random byte (possibly in a length field: the caps and
        // bounds checks must catch runaway allocations).
        let at = rng.next_below(wire.len() as u64) as usize;
        wire[at] ^= 1 << rng.next_below(8);
        let _ = TelemetryFrame::decode(&wire); // must return, not panic
    }
}
