//! Observability cost + calibration-convergence benchmark
//! (BENCH_obs.json).
//!
//! Two questions, one harness:
//!
//! 1. **What does the instrumentation cost?** The span macros compile to
//!    one relaxed atomic load when no recorder is installed; this
//!    measures that path directly (ns per `span()` call, disabled vs
//!    enabled) and end-to-end on the point the acceptance bar names —
//!    socket transport, P = 8, k = 1e3, N = 2^20 — with the recorder
//!    uninstalled vs installed.
//!
//! 2. **Does calibration converge?** Replays the mis-pick scenario of
//!    `tests/calibrated_auto.rs` on the virtual-time cluster — the
//!    planning hint says α-bound, the clock charges β-bound — and logs
//!    the per-iteration pick of a calibrating `Auto` session until it
//!    locks onto the empirically fastest schedule.
//!
//! ```console
//! cargo run --release -p sparcml-bench --bin obs_overhead > BENCH_obs.json
//! ```

use std::time::{Duration, Instant};

use sparcml_core::{
    max_communicator_time, run_communicators, select_algorithm, Algorithm, Communicator, Transport,
};
use sparcml_net::{run_reactor_loopback_cluster, CostModel, TransportConfig};
use sparcml_obs as obs;
use sparcml_stream::{random_sparse, SparseStream};

const DIM: usize = 1 << 20;
const K: usize = 1_000;
const P: usize = 8;
const TRIALS: usize = 5;
const ALGO: Algorithm = Algorithm::SsarRecDbl;

// --- span-call microcost -------------------------------------------------

fn span_call_ns(iters: u64) -> f64 {
    let start = Instant::now();
    for i in 0..iters {
        let g = obs::span_with(obs::Category::Phase, "bench-span", i);
        std::hint::black_box(&g);
    }
    start.elapsed().as_secs_f64() * 1e9 / iters as f64
}

// --- end-to-end reactor overhead ----------------------------------------

/// Fastest trial (max across ranks within a trial, min across trials):
/// the noise-floor statistic — on a shared host, slower trials measure
/// the neighbors, not the code.
fn reactor_min_us() -> f64 {
    let config = TransportConfig::default()
        .with_recv_timeout(Duration::from_secs(300))
        .with_connect_timeout(Duration::from_secs(300));
    let per_rank = run_reactor_loopback_cluster(P, CostModel::loopback_tcp(), config, |tp| {
        let mut comm = Communicator::new(tp.detach());
        let input = random_sparse::<f32>(DIM, K, 4200 + comm.rank() as u64);
        let mut times = Vec::with_capacity(TRIALS);
        for trial in 0..=TRIALS {
            let start = Instant::now();
            let out = comm
                .allreduce(&input)
                .algorithm(ALGO)
                .launch()
                .and_then(|h| h.wait())
                .expect("allreduce over loopback sockets");
            assert_eq!(out.dim(), DIM);
            if trial > 0 {
                times.push(start.elapsed().as_secs_f64());
            }
        }
        *tp = comm.into_transport();
        times
    });
    (0..TRIALS)
        .map(|t| per_rank.iter().map(|r| r[t]).fold(0.0, f64::max))
        .fold(f64::INFINITY, f64::min)
        * 1e6
}

// --- calibration convergence ---------------------------------------------

const CAL_DIM: usize = 1 << 18;
const CAL_K: usize = 100_000;
const CAL_ITERS: usize = 14;

fn hinted_cost() -> CostModel {
    CostModel {
        alpha: 5e-3,
        beta: 1e-12,
        gamma: 0.0,
        isend_alpha_fraction: 0.0,
    }
}

fn actual_cost() -> CostModel {
    CostModel {
        alpha: 1e-7,
        beta: 5e-8,
        gamma: 0.0,
        isend_alpha_fraction: 0.0,
    }
}

const CANDIDATES: [Algorithm; 4] = [
    Algorithm::DsarSplitAllgather,
    Algorithm::DenseRabenseifner,
    Algorithm::DenseRing,
    Algorithm::DenseRecDbl,
];

struct Convergence {
    pinned_s: Vec<(Algorithm, f64)>,
    preset: Algorithm,
    best: Algorithm,
    /// (pick, virtual duration) per iteration, from rank 0.
    trajectory: Vec<(&'static str, f64)>,
    converged: Algorithm,
}

fn calibration_convergence() -> Convergence {
    let inputs: Vec<SparseStream<f32>> = (0..P)
        .map(|r| random_sparse(CAL_DIM, CAL_K, 7 + r as u64))
        .collect();
    let pinned_s: Vec<(Algorithm, f64)> = CANDIDATES
        .iter()
        .map(|&algo| {
            let ins = inputs.clone();
            let t = max_communicator_time(P, actual_cost(), |comm| {
                comm.allreduce(&ins[comm.rank()])
                    .algorithm(algo)
                    .launch()
                    .and_then(|h| h.wait())
                    .unwrap();
            });
            (algo, t)
        })
        .collect();
    let best = pinned_s
        .iter()
        .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
        .unwrap()
        .0;
    let preset = select_algorithm::<f32>(P, CAL_DIM, CAL_K, &hinted_cost());

    let ins = inputs.clone();
    let mut per_rank = run_communicators(P, actual_cost(), |comm| {
        comm.transport_mut().set_cost_hint(hinted_cost());
        let cal = comm.enable_calibration();
        let mut trajectory = Vec::with_capacity(CAL_ITERS);
        for _ in 0..CAL_ITERS {
            let pick = cal.select::<f32>(P, CAL_DIM, CAL_K);
            let before = comm.clock();
            comm.allreduce(&ins[comm.rank()])
                .launch()
                .and_then(|h| h.wait())
                .unwrap();
            trajectory.push((pick.name(), comm.clock() - before));
        }
        (trajectory, cal.select::<f32>(P, CAL_DIM, CAL_K))
    });
    let (trajectory, converged) = per_rank.remove(0);
    Convergence {
        pinned_s,
        preset,
        best,
        trajectory,
        converged,
    }
}

// --- report ---------------------------------------------------------------

fn main() {
    let span_iters = 20_000_000u64;
    assert!(!obs::enabled(), "benchmark must start with no recorder");
    let disabled_ns = span_call_ns(span_iters);
    obs::Recorder::install(obs::RecorderConfig::default());
    let enabled_ns = span_call_ns(span_iters);
    obs::Recorder::uninstall();

    eprintln!("span call: disabled {disabled_ns:.2} ns, enabled {enabled_ns:.2} ns");

    // Interleave the configurations across rounds so slow phases of a
    // shared host hit all equally; keep the per-config minimum.
    let mut uninstalled_us = f64::INFINITY;
    let mut installed_us = f64::INFINITY;
    let mut telemetry_us = f64::INFINITY;
    let mut spans_hit: u64 = 0;
    for round in 0..3 {
        let t = reactor_min_us();
        uninstalled_us = uninstalled_us.min(t);
        obs::Recorder::install(obs::RecorderConfig::default());
        let t = reactor_min_us();
        installed_us = installed_us.min(t);
        let drained = obs::Recorder::uninstall();
        spans_hit = spans_hit.max(
            drained
                .iter()
                .map(|t| t.spans.len() as u64 + t.dropped)
                .sum(),
        );
        // Telemetry collection (no recorder): peer-wait Instant pairs
        // around every tracked recv, density samples per collective —
        // the cluster-report acceptance bar is <5% over baseline.
        obs::telemetry::enable();
        let t = reactor_min_us();
        telemetry_us = telemetry_us.min(t);
        obs::telemetry::disable();
        eprintln!(
            "round {round}: uninstalled {uninstalled_us:.0} us, installed {installed_us:.0} us, telemetry {telemetry_us:.0} us"
        );
    }
    // The acceptance figure: with no recorder, each span site costs one
    // relaxed load. Project that onto the sites one cluster run actually
    // hits (counted from the installed run's rings, clipped low by ring
    // drops — so if anything an overestimate per trial).
    let spans_per_trial = spans_hit as f64 / (TRIALS + 1) as f64;
    let projected_disabled_pct = spans_per_trial * disabled_ns / (uninstalled_us * 1000.0) * 100.0;

    let conv = calibration_convergence();

    println!("{{");
    println!(
        "  \"description\": \"Observability cost and calibration convergence: (1) span-record cost per call with the recorder absent vs installed, and the end-to-end reactor-transport allreduce (P={P}, k={K}, N={DIM} f32, {ALGO:?}, fastest of {TRIALS} trials x 3 interleaved rounds, max across ranks within a trial) under no instrumentation, the span recorder, and telemetry collection (peer-wait/density sampling for cluster_report; acceptance bar <5%), plus the projected no-recorder overhead (span sites hit x measured disabled-call cost over the trial wall time); (2) the mis-pick scenario of tests/calibrated_auto.rs — a latency-bound planning hint over a bandwidth-bound virtual network — with the calibrating Auto session's per-iteration picks until convergence.\","
    );
    println!("  \"harness\": \"cargo run --release -p sparcml-bench --bin obs_overhead\",");
    println!("  \"span_call_ns\": {{");
    println!("    \"disabled\": {disabled_ns:.3},");
    println!("    \"enabled\": {enabled_ns:.3},");
    println!("    \"iterations\": {span_iters}");
    println!("  }},");
    println!("  \"reactor_p{P}_k{K}\": {{");
    println!("    \"no_recorder_wall_us\": {uninstalled_us:.0},");
    println!("    \"recorder_installed_wall_us\": {installed_us:.0},");
    println!(
        "    \"recorder_overhead_pct\": {:.2},",
        (installed_us - uninstalled_us) / uninstalled_us * 100.0
    );
    println!("    \"span_sites_hit_per_cluster_trial\": {spans_per_trial:.0},");
    println!("    \"projected_no_recorder_overhead_pct\": {projected_disabled_pct:.4},");
    println!("    \"telemetry_enabled_wall_us\": {telemetry_us:.0},");
    println!(
        "    \"telemetry_overhead_pct\": {:.2}",
        (telemetry_us - uninstalled_us) / uninstalled_us * 100.0
    );
    println!("  }},");
    println!("  \"calibration\": {{");
    println!(
        "    \"scenario\": \"P={P} N={CAL_DIM} k={CAL_K}: hint alpha=5e-3 beta=1e-12 (latency-bound), actual alpha=1e-7 beta=5e-8 (bandwidth-bound)\","
    );
    println!("    \"pinned_virtual_s\": {{");
    for (i, (algo, t)) in conv.pinned_s.iter().enumerate() {
        let comma = if i + 1 < conv.pinned_s.len() { "," } else { "" };
        println!("      \"{}\": {t:.6}{comma}", algo.name());
    }
    println!("    }},");
    println!("    \"preset_pick\": \"{}\",", conv.preset.name());
    println!("    \"empirical_best\": \"{}\",", conv.best.name());
    println!("    \"iterations\": [");
    for (i, (pick, dur)) in conv.trajectory.iter().enumerate() {
        let comma = if i + 1 < conv.trajectory.len() {
            ","
        } else {
            ""
        };
        println!("      {{\"iter\": {i}, \"pick\": \"{pick}\", \"virtual_s\": {dur:.6}}}{comma}");
    }
    println!("    ],");
    println!("    \"converged_pick\": \"{}\",", conv.converged.name());
    println!(
        "    \"converged_to_empirical_best\": {}",
        conv.converged == conv.best
    );
    println!("  }}");
    println!("}}");
}
