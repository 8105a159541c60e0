//! δ-switch micro-benchmark: pure-sparse vs pure-dense vs in-collective
//! adaptive switching over loopback TCP — the wall-clock evidence behind
//! BENCH_adaptive.json.
//!
//! For each configuration (k ∈ {1e2, 1e4, 1e5}, P ∈ {4, 8},
//! 2^20-dimensional f32 inputs) one allreduce is timed three ways on
//! real sockets:
//!
//! * **sparse** — `SSAR_Recursive_double`, sparse frames to the end even
//!   when the union fills in;
//! * **dense** — `Dense_recursive_double`, full vectors from round 0;
//! * **adaptive** — `Adaptive_switch`: starts sparse, projects the
//!   end-of-collective union density each merge round, and flips the
//!   *remaining* rounds dense once the projection crosses δ.
//!
//! Prints a JSON document with median wall times (max across ranks per
//! trial), the adaptive-vs-best ratio, and the δ-switch counters
//! (`adaptive_densified`, `switch_rounds`) proving when the switch
//! actually fired.
//!
//! ```console
//! cargo run --release -p sparcml-bench --bin adaptive_switch
//! ```

use std::time::{Duration, Instant};

use sparcml_core::{Algorithm, Communicator, Transport};
use sparcml_net::{run_reactor_loopback_cluster, CostModel, TransportConfig};
use sparcml_stream::random_sparse;

const DIM: usize = 1 << 20;
const TRIALS: usize = 15;

struct Measured {
    wall_s: f64,
    adaptive_densified: u64,
    switch_rounds: u64,
}

fn bench(p: usize, k: usize, algo: Algorithm) -> Measured {
    let config = TransportConfig::default().with_recv_timeout(Duration::from_secs(120));
    let per_rank = run_reactor_loopback_cluster(p, CostModel::loopback_tcp(), config, |tp| {
        let mut comm = Communicator::new(tp.detach());
        let input = random_sparse::<f32>(DIM, k, (9000 + comm.rank()) as u64);
        let mut walls = Vec::with_capacity(TRIALS);
        for trial in 0..=TRIALS {
            let start = Instant::now();
            comm.allreduce(&input)
                .algorithm(algo)
                .launch()
                .and_then(|h| h.wait())
                .expect("bench allreduce");
            if trial > 0 {
                walls.push(start.elapsed().as_secs_f64());
            }
        }
        let stats = comm.stats_snapshot();
        *tp = comm.into_transport();
        (walls, stats.adaptive_densified, stats.switch_rounds)
    });
    let mut slowest: Vec<f64> = (0..TRIALS)
        .map(|t| per_rank.iter().map(|r| r.0[t]).fold(0.0, f64::max))
        .collect();
    slowest.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
    Measured {
        wall_s: slowest[TRIALS / 2],
        adaptive_densified: per_rank[0].1,
        switch_rounds: per_rank[0].2,
    }
}

fn main() {
    println!("{{");
    println!(
        "  \"description\": \"Pure-sparse (SSAR_Recursive_double) vs pure-dense (Dense_recursive_double) vs Adaptive_switch allreduce of {DIM}-dim f32 inputs with k random non-zeros per rank over loopback TCP: median wall time (max across ranks per trial, {TRIALS} trials). adaptive_densified/switch_rounds are rank 0's δ-switch counters across all trials.\","
    );
    println!("  \"harness\": \"cargo run --release -p sparcml-bench --bin adaptive_switch\",");
    println!("  \"configs\": {{");
    let ps = [4usize, 8];
    let ks = [100usize, 10_000, 100_000];
    for (pi, &p) in ps.iter().enumerate() {
        println!("    \"P={p}\": {{");
        for (ki, &k) in ks.iter().enumerate() {
            let sparse = bench(p, k, Algorithm::SsarRecDbl);
            let dense = bench(p, k, Algorithm::DenseRecDbl);
            let adaptive = bench(p, k, Algorithm::AdaptiveSwitch);
            let best = sparse.wall_s.min(dense.wall_s);
            println!("      \"k={k}\": {{");
            println!("        \"sparse_wall_us\": {:.0},", sparse.wall_s * 1e6);
            println!("        \"dense_wall_us\": {:.0},", dense.wall_s * 1e6);
            println!(
                "        \"adaptive_wall_us\": {:.0},",
                adaptive.wall_s * 1e6
            );
            println!(
                "        \"adaptive_vs_best\": {:.2},",
                adaptive.wall_s / best
            );
            println!(
                "        \"adaptive_vs_sparse\": {:.2},",
                adaptive.wall_s / sparse.wall_s
            );
            println!(
                "        \"adaptive_densified\": {},",
                adaptive.adaptive_densified
            );
            println!("        \"switch_rounds\": {}", adaptive.switch_rounds);
            let comma = if ki + 1 < ks.len() { "," } else { "" };
            println!("      }}{comma}");
            eprintln!(
                "P={p} k={k}: sparse {:.0}us dense {:.0}us adaptive {:.0}us (vs best {:.2}x), switched {} rounds {}",
                sparse.wall_s * 1e6,
                dense.wall_s * 1e6,
                adaptive.wall_s * 1e6,
                adaptive.wall_s / best,
                adaptive.adaptive_densified,
                adaptive.switch_rounds
            );
        }
        let comma = if pi + 1 < ps.len() { "," } else { "" };
        println!("    }}{comma}");
    }
    println!("  }}");
    println!("}}");
}
