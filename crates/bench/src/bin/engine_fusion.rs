//! Engine fusion micro-benchmark: fused vs per-layer gradient exchange
//! over loopback TCP — the wall-clock evidence behind BENCH_engine.json.
//!
//! For each configuration (layers ∈ {8, 64}, k ∈ {1e2, 1e4}, P = 4,
//! 2^16-dimensional f32 layers) a step's per-layer Top-k-shaped gradients
//! are exchanged two ways on real sockets:
//!
//! * **per-layer** — one blocking allreduce per layer (the seed path);
//! * **engine-fused** — all layers submitted as one group to the
//!   progress engine, which fuses them into a single collective.
//!
//! Per-step wall time is noisy at this scale (a loopback cluster is
//! scheduler-bound), so each variant is measured over `REPS` independent
//! cluster spins, alternating variants so machine-load drift hits both
//! sides alike; the reported wall is the median across spins of the
//! per-spin median (itself the max-across-ranks per trial).
//!
//! Prints a JSON document with median wall times per step, the speedup,
//! and the transport message counts from the `CommStats` counters.
//!
//! ```console
//! cargo run --release -p sparcml-bench --bin engine_fusion
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use sparcml_core::{Algorithm, Communicator, Transport};
use sparcml_engine::{CommunicatorEngineExt, EngineConfig};
use sparcml_net::{run_reactor_loopback_cluster, CommStats, CostModel, TransportConfig};
use sparcml_stream::{random_sparse, SparseStream};

const P: usize = 4;
const LAYER_DIM: usize = 1 << 16;
const TRIALS: usize = 15;
/// Independent cluster spins per variant; the reported wall is the
/// median across spins.
const REPS: usize = 3;

struct Measured {
    wall_s: f64,
    msgs_sent: u64,
    collectives: u64,
}

fn grads(rank: usize, layers: usize, k: usize) -> Vec<SparseStream<f32>> {
    (0..layers)
        .map(|l| random_sparse::<f32>(LAYER_DIM, k, (7000 + rank * 100 + l) as u64))
        .collect()
}

/// Median across trials of the slowest rank's step time, plus one rank's
/// per-step traffic counters.
fn collect(per_rank: Vec<Vec<(f64, CommStats)>>) -> Measured {
    let mut slowest: Vec<f64> = (0..TRIALS)
        .map(|t| per_rank.iter().map(|r| r[t].0).fold(0.0, f64::max))
        .collect();
    slowest.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
    // Traffic is deterministic per configuration; report rank 1 (a
    // non-root rank, representative of the engine's control plane cost).
    let traffic = &per_rank[1.min(per_rank.len() - 1)][0].1;
    Measured {
        wall_s: slowest[TRIALS / 2],
        msgs_sent: traffic.msgs_sent,
        collectives: traffic.collectives,
    }
}

fn bench_per_layer(layers: usize, k: usize) -> Measured {
    let config = TransportConfig::default().with_recv_timeout(Duration::from_secs(60));
    let per_rank = run_reactor_loopback_cluster(P, CostModel::loopback_tcp(), config, |tp| {
        let mut comm = Communicator::new(tp.detach());
        let inputs = grads(comm.rank(), layers, k);
        let mut out = Vec::with_capacity(TRIALS);
        for trial in 0..=TRIALS {
            let baseline = comm.stats().snapshot();
            let start = Instant::now();
            for g in &inputs {
                comm.allreduce(g)
                    .algorithm(Algorithm::SsarRecDbl)
                    .launch()
                    .and_then(|h| h.wait())
                    .expect("per-layer allreduce");
            }
            if trial > 0 {
                out.push((start.elapsed().as_secs_f64(), comm.stats().since(&baseline)));
            }
        }
        *tp = comm.into_transport();
        out
    });
    collect(per_rank)
}

fn bench_engine(layers: usize, k: usize) -> Measured {
    let config = TransportConfig::default().with_recv_timeout(Duration::from_secs(60));
    let per_rank = run_reactor_loopback_cluster(P, CostModel::loopback_tcp(), config, |tp| {
        let mut comm = Communicator::new(tp.detach());
        let mut engine = comm.engine::<f32>(EngineConfig {
            algorithm: Algorithm::SsarRecDbl,
            ..EngineConfig::default()
        });
        let inputs: Vec<Arc<SparseStream<f32>>> = grads(engine.rank(), layers, k)
            .into_iter()
            .map(Arc::new)
            .collect();
        let mut out = Vec::with_capacity(TRIALS);
        for trial in 0..=TRIALS {
            let comm_before = engine.stats().comm;
            let start = Instant::now();
            let tickets = engine.submit_allreduce_group_shared(&inputs);
            for t in tickets {
                t.wait().expect("engine allreduce");
            }
            if trial > 0 {
                out.push((
                    start.elapsed().as_secs_f64(),
                    engine.stats().comm.since(&comm_before),
                ));
            }
        }
        engine.finish_into(&mut comm).expect("engine hands back");
        *tp = comm.into_transport();
        out
    });
    collect(per_rank)
}

/// The repetition with the median wall time (traffic counters are
/// deterministic, so any repetition's counters are representative).
fn median_rep(mut reps: Vec<Measured>) -> Measured {
    reps.sort_by(|a, b| a.wall_s.partial_cmp(&b.wall_s).expect("finite times"));
    reps.swap_remove(reps.len() / 2)
}

fn main() {
    println!("{{");
    println!(
        "  \"description\": \"Fused (progress engine) vs per-layer allreduce of per-layer sparse gradients over loopback TCP at P={P}: median wall time per step (max across ranks per trial, {TRIALS} trials, median of {REPS} cluster spins) and per-step transport counters of a non-root rank. Layers are {LAYER_DIM}-dim f32 with k non-zeros each.\","
    );
    println!("  \"harness\": \"cargo run --release -p sparcml-bench --bin engine_fusion\",");
    println!("  \"configs\": {{");
    let layer_counts = [8usize, 64];
    let ks = [100usize, 10_000];
    for (li, &layers) in layer_counts.iter().enumerate() {
        println!("    \"layers={layers}\": {{");
        for (ki, &k) in ks.iter().enumerate() {
            let mut seq_reps = Vec::with_capacity(REPS);
            let mut eng_reps = Vec::with_capacity(REPS);
            for _ in 0..REPS {
                seq_reps.push(bench_per_layer(layers, k));
                eng_reps.push(bench_engine(layers, k));
            }
            let seq = median_rep(seq_reps);
            let eng = median_rep(eng_reps);
            let speedup = seq.wall_s / eng.wall_s;
            println!("      \"k={k}\": {{");
            println!("        \"per_layer_wall_us\": {:.0},", seq.wall_s * 1e6);
            println!("        \"engine_fused_wall_us\": {:.0},", eng.wall_s * 1e6);
            println!("        \"speedup\": {speedup:.2},");
            println!("        \"per_layer_msgs\": {},", seq.msgs_sent);
            println!("        \"engine_msgs\": {},", eng.msgs_sent);
            println!("        \"per_layer_collectives\": {},", seq.collectives);
            println!("        \"engine_collectives\": {}", eng.collectives);
            let comma = if ki + 1 < ks.len() { "," } else { "" };
            println!("      }}{comma}");
            eprintln!(
                "layers={layers} k={k}: per-layer {:.0}us / engine {:.0}us ({speedup:.2}x), msgs {} -> {}",
                seq.wall_s * 1e6,
                eng.wall_s * 1e6,
                seq.msgs_sent,
                eng.msgs_sent
            );
        }
        let comma = if li + 1 < layer_counts.len() { "," } else { "" };
        println!("    }}{comma}");
    }
    println!("  }}");
    println!("}}");
}
