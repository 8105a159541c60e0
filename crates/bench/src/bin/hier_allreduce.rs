//! Flat vs hierarchical allreduce at P = 8 pinned to a 2×4 topology.
//!
//! Two complementary views, both printed as one JSON document
//! (→ BENCH_hier.json):
//!
//! * **measured** — wall times over loopback TCP (real sockets, ranks as
//!   threads in this process). Loopback has no intra/inter *bandwidth*
//!   gap, but its per-message socket cost is large, and the two-level
//!   schedule simply moves fewer (and smaller) frames through the stack:
//!   binomial trees on the node halves plus one two-leader exchange,
//!   instead of every rank exchanging its growing union in each of the
//!   3 flat rounds. Hierarchy wins both grid points here (~1.8× at
//!   k=1e2, ~2.5× at k=1e4 on the measured run).
//! * **modelled** — the §5.3 selector's analytic estimates under real
//!   multi-node cost splits. On slow inter links (GigE) hierarchy wins
//!   across the grid; on an Aries-class network at k=1e4 the
//!   bandwidth-optimal flat `SSAR_Split_allgather` stays ahead — the
//!   regime where the topology-aware selector correctly keeps flat.
//!
//! ```console
//! cargo run --release -p sparcml-bench --bin hier_allreduce
//! ```

use std::time::{Duration, Instant};

use sparcml_core::{
    estimate_hierarchical_time, estimate_time, select_algorithm, select_algorithm_with_topology,
    Algorithm, Communicator, Transport,
};
use sparcml_net::{
    run_reactor_loopback_cluster, CostModel, Topology, TopologyCostModel, TransportConfig,
};
use sparcml_stream::random_sparse;

const DIM: usize = 1 << 20;
const P: usize = 8;
const TRIALS: usize = 7;
const KS: [usize; 2] = [100, 10_000];

/// Median across trials of the slowest rank's wall time for one allreduce.
fn bench_config(hierarchical: bool, k: usize, topo: &Topology) -> f64 {
    let config = TransportConfig::default().with_recv_timeout(Duration::from_secs(60));
    let topo = topo.clone();
    let per_rank: Vec<Vec<f64>> =
        run_reactor_loopback_cluster(P, CostModel::loopback_tcp(), config, move |tp| {
            let mut comm = Communicator::new(tp.detach());
            let input = random_sparse::<f32>(DIM, k, 8800 + comm.rank() as u64);
            let mut times = Vec::with_capacity(TRIALS);
            for trial in 0..=TRIALS {
                let start = Instant::now();
                let builder = comm.allreduce(&input);
                let builder = if hierarchical {
                    builder
                        .algorithm(Algorithm::Hierarchical)
                        .topology(topo.clone())
                        .leader_algorithm(Algorithm::SsarRecDbl)
                } else {
                    builder.algorithm(Algorithm::SsarRecDbl)
                };
                let out = builder
                    .launch()
                    .and_then(|h| h.wait())
                    .expect("allreduce over loopback TCP");
                assert_eq!(out.dim(), DIM);
                if trial > 0 {
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
    let topo = Topology::uniform(2, 4).expect("2x4 topology");
    println!("{{");
    println!(
        "  \"description\": \"Flat SSAR_Recursive_double vs the two-level hierarchical schedule at P={P} pinned to a 2x4 topology, N = 2^20 f32. 'measured' = median wall time over loopback TCP (max across ranks per trial, {TRIALS} trials): the hierarchy moves fewer and smaller frames through the socket stack (binomial node trees + one two-leader exchange, 2 vs 8 boundary-crossing messages) and wins both k points. 'modelled' = Sec 5.3 estimates under real multi-node link splits: hierarchy wins on slow inter links (GigE) and in the latency-bound Aries regime, while flat SSAR_Split_allgather stays ahead on Aries at k=1e4 — the bandwidth-bound regime the topology-aware selector correctly keeps flat.\","
    );
    println!("  \"harness\": \"cargo run --release -p sparcml-bench --bin hier_allreduce\",");
    println!("  \"measured_loopback_wall_us\": {{");
    for (ki, &k) in KS.iter().enumerate() {
        let flat = bench_config(false, k, &topo) * 1e6;
        let hier = bench_config(true, k, &topo) * 1e6;
        let comma = if ki + 1 < KS.len() { "," } else { "" };
        println!(
            "    \"k={k}\": {{ \"flat_ssar_rec_dbl\": {flat:.0}, \"hierarchical\": {hier:.0} }}{comma}"
        );
        eprintln!("measured k={k}: flat {flat:.0} us, hier {hier:.0} us");
    }
    println!("  }},");
    println!("  \"modelled_multinode_us\": {{");
    let clusters = [
        ("gige_cluster", TopologyCostModel::gige_cluster()),
        ("aries_cluster", TopologyCostModel::aries_cluster()),
    ];
    for (ci, (name, tcm)) in clusters.iter().enumerate() {
        println!("    \"{name}\": {{");
        for (ki, &k) in KS.iter().enumerate() {
            let flat_best = select_algorithm::<f32>(P, DIM, k, &tcm.inter);
            let t_flat = estimate_time::<f32>(flat_best, P, DIM, k, &tcm.inter) * 1e6;
            let t_hier = estimate_hierarchical_time::<f32>(&topo, DIM, k, tcm) * 1e6;
            let pick = select_algorithm_with_topology::<f32>(&topo, DIM, k, tcm);
            let comma = if ki + 1 < KS.len() { "," } else { "" };
            println!(
                "      \"k={k}\": {{ \"flat_best\": \"{}\", \"flat_us\": {t_flat:.1}, \"hierarchical_us\": {t_hier:.1}, \"selector_picks\": \"{}\" }}{comma}",
                flat_best.name(),
                pick.name()
            );
            eprintln!(
                "modelled {name} k={k}: flat({}) {t_flat:.1} us, hier {t_hier:.1} us -> {}",
                flat_best.name(),
                pick.name()
            );
        }
        let comma = if ci + 1 < clusters.len() { "," } else { "" };
        println!("    }}{comma}");
    }
    println!("  }}");
    println!("}}");
}
