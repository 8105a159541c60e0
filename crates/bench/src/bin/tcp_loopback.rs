//! Loopback TCP allreduce micro-benchmark: real sockets, wall-clock time.
//!
//! Measures the dense baseline against the sparse (SSAR) schedules over
//! the `ReactorTransport` at the BENCH_tcp.json grid — k ∈ {1e3, 1e5},
//! P ∈ {4, 8}, N = 2^20 f32 — and prints a JSON document with the
//! per-configuration median wall times. Ranks are OS threads in this
//! process, but every message crosses the kernel TCP stack, so this is
//! the first perf trajectory for the collectives on a real wire.
//!
//! ```console
//! cargo run --release -p sparcml-bench --bin tcp_loopback
//! ```

use std::time::{Duration, Instant};

use sparcml_core::{Algorithm, Communicator, Transport};
use sparcml_net::{run_reactor_loopback_cluster, CostModel, TransportConfig};
use sparcml_stream::random_sparse;

const DIM: usize = 1 << 20;
const TRIALS: usize = 7;
const ALGOS: [Algorithm; 4] = [
    Algorithm::DenseRecDbl,
    Algorithm::DenseRing,
    Algorithm::SsarRecDbl,
    Algorithm::SsarSplitAllgather,
];

/// Median wall time of one allreduce across ranks (max over ranks per
/// trial — a collective is only done when its slowest rank is).
fn bench_config(algo: Algorithm, p: usize, k: usize) -> f64 {
    let config = TransportConfig::default().with_recv_timeout(Duration::from_secs(60));
    let per_rank: Vec<Vec<f64>> =
        run_reactor_loopback_cluster(p, CostModel::loopback_tcp(), config, |tp| {
            let mut comm = Communicator::new(tp.detach());
            let input = random_sparse::<f32>(DIM, k, 4200 + comm.rank() as u64);
            let mut times = Vec::with_capacity(TRIALS);
            for trial in 0..=TRIALS {
                let start = Instant::now();
                let out = comm
                    .allreduce(&input)
                    .algorithm(algo)
                    .launch()
                    .and_then(|h| h.wait())
                    .expect("allreduce over loopback TCP");
                assert_eq!(out.dim(), DIM);
                if trial > 0 {
                    // Trial 0 is warmup (connection + allocator ramp).
                    times.push(start.elapsed().as_secs_f64());
                }
            }
            *tp = comm.into_transport();
            times
        });
    let mut slowest: Vec<f64> = (0..TRIALS)
        .map(|t| per_rank.iter().map(|r| r[t]).fold(0.0, f64::max))
        .collect();
    slowest.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
    slowest[TRIALS / 2]
}

fn main() {
    println!("{{");
    println!(
        "  \"description\": \"Loopback TCP allreduce wall times (median of {TRIALS} trials, max across ranks per trial): dense baselines vs the sparse SSAR schedules on ReactorTransport. Ranks are threads in one process; every message crosses the kernel TCP stack. N = {DIM} f32.\","
    );
    println!("  \"harness\": \"cargo run --release -p sparcml-bench --bin tcp_loopback\",");
    println!("  \"allreduce_wall_us\": {{");
    let ps = [4usize, 8];
    let ks = [1_000usize, 100_000];
    for (pi, &p) in ps.iter().enumerate() {
        println!("    \"P={p}\": {{");
        for (ki, &k) in ks.iter().enumerate() {
            println!("      \"k={k}\": {{");
            for (ai, algo) in ALGOS.iter().enumerate() {
                let us = bench_config(*algo, p, k) * 1e6;
                let comma = if ai + 1 < ALGOS.len() { "," } else { "" };
                println!("        \"{}\": {:.0}{comma}", algo.name(), us);
                eprintln!("P={p} k={k} {}: {:.0} us", algo.name(), us);
            }
            let comma = if ki + 1 < ks.len() { "," } else { "" };
            println!("      }}{comma}");
        }
        let comma = if pi + 1 < ps.len() { "," } else { "" };
        println!("    }}{comma}");
    }
    println!("  }}");
    println!("}}");
}
