//! Progress engine over `Communicator<ReactorTransport>` across real OS
//! processes: the multi-process acceptance test for the engine subsystem
//! (fused per-layer gradients over 4 genuinely separate processes on
//! loopback, results element-exact and message counts below the
//! sequential path). Runs in the `socket-multiprocess` CI job under its
//! hard wall-clock cap.
//!
//! Pattern (see `tests/socket_multiprocess.rs`): the `job` string passed to
//! the launcher must equal the test function's name; worker processes
//! bail out through the `else { return }` arm.

use std::time::Duration;

use sparcml::core::reference::reference_sum;
use sparcml::core::{Algorithm, Communicator};
use sparcml::engine::{CommunicatorEngineExt, EngineConfig};
use sparcml::net::{run_socket_cluster, LaunchOptions, Transport};
use sparcml::stream::SparseStream;

const WORLD: usize = 4;
const LAYERS: usize = 16;
const DIM: usize = 2048;
const NNZ: usize = 64;

/// Deterministic integer-valued input for `(rank, layer)` — identical
/// bits under any summation order, so per-process results can be
/// fingerprint-compared across the stdout hop.
fn integer_stream(rank: usize, layer: usize) -> SparseStream<f32> {
    let pairs: Vec<(u32, f32)> = (0..NNZ)
        .map(|i| {
            (
                ((rank * 131 + layer * 37 + i * 17) % DIM) as u32,
                (1 + (rank + layer + i) % 5) as f32,
            )
        })
        .collect();
    SparseStream::from_pairs(DIM, &pairs).unwrap()
}

/// FNV-1a over the dense f32 bit patterns of all layers.
fn fingerprint(layers: &[Vec<f32>]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for dense in layers {
        for v in dense {
            for b in v.to_bits().to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    format!("{h:016x}")
}

#[test]
fn engine_fused_collectives_across_processes() {
    let opts = LaunchOptions::for_test().with_timeout(Duration::from_secs(120));
    let Some(results) = run_socket_cluster(
        "engine_fused_collectives_across_processes",
        WORLD,
        &opts,
        |tp| {
            let mut comm = Communicator::new(tp.detach());
            let mut engine = comm.engine::<f32>(EngineConfig {
                algorithm: Algorithm::SsarRecDbl,
                ..EngineConfig::default()
            });
            let grads: Vec<SparseStream<f32>> = (0..LAYERS)
                .map(|l| integer_stream(engine.rank(), l))
                .collect();
            let refs: Vec<&SparseStream<f32>> = grads.iter().collect();
            let tickets = engine.submit_allreduce_group(&refs);
            let dense: Vec<Vec<f32>> = tickets
                .into_iter()
                .map(|t| t.wait().unwrap().to_dense_vec())
                .collect();
            let stats = engine.stats();
            engine.finish_into(&mut comm).unwrap();
            *tp = comm.into_transport();
            format!(
                "{};buckets={};fused={};msgs={}",
                fingerprint(&dense),
                stats.buckets,
                stats.fused_jobs,
                stats.comm.msgs_sent
            )
        },
    ) else {
        return; // worker rank; the parent asserts
    };

    // Reference, computed in the parent: per-layer sums over all ranks.
    let expect: Vec<Vec<f32>> = (0..LAYERS)
        .map(|l| {
            let ins: Vec<SparseStream<f32>> = (0..WORLD).map(|r| integer_stream(r, l)).collect();
            reference_sum(&ins)
        })
        .collect();
    let expect_fp = fingerprint(&expect);

    // Sequential message-count bound for SSAR recursive doubling at a
    // power-of-two P: log2(P) exchange messages per collective per rank.
    let sequential_msgs = LAYERS as u64 * (WORLD as u64).trailing_zeros() as u64;

    for (rank, r) in results.iter().enumerate() {
        let mut parts = r.split(';');
        let fp = parts.next().unwrap();
        assert_eq!(fp, expect_fp, "rank {rank} fused results diverge: {r}");
        let field = |name: &str| -> u64 {
            r.split(';')
                .find_map(|p| p.strip_prefix(&format!("{name}=")))
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("missing {name} in {r}"))
        };
        assert_eq!(field("buckets"), 1, "rank {rank}: all layers must fuse");
        assert_eq!(field("fused"), LAYERS as u64);
        assert!(
            field("msgs") < sequential_msgs,
            "rank {rank}: fused path must send fewer messages than {sequential_msgs} ({r})"
        );
    }
}
