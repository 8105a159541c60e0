//! `Auto` against the oracle on the virtual clock: at each point of a
//! density sweep over P ∈ {3, 5, 8, 12, 16} on the Aries model
//! (N = 2^20), the schedule `Auto` runs must finish within 2 % of the
//! fastest of the three sparse schedules it chooses between there —
//! recursive doubling and the two split schedules. The points straddle
//! the boundaries where the pick changes, which is where a mispriced
//! schedule shows: both sides of rec-dbl → `SSAR_Split_allgather` at P=8,
//! the split regime off powers of two (a ring allgather, and a recursive
//! doubling that folds and unfolds) at P=3, 5 and 12, and SSAR against
//! DSAR from past δ (k = 1.5e5) to DSAR's side of the crossing (k = 3e5) at
//! P=8. Integer values keep every schedule's sum exact, so the runs are
//! checked against the reference as well.

use sparcml::core::reference::reference_sum;
use sparcml::core::{estimate_time, run_communicators, Algorithm};
use sparcml::net::CostModel;
use sparcml::stream::{SparseStream, XorShift64};

const DIM: usize = 1 << 20;

/// The sweep: (P, k per rank).
const POINTS: [(usize, usize); 15] = [
    (3, 10_000),
    (3, 100_000),
    (5, 10_000),
    (5, 100_000),
    (8, 2_000),
    (8, 3_000),
    (8, 10_000),
    (8, 150_000),
    (8, 200_000),
    (8, 250_000),
    (8, 300_000),
    (12, 10_000),
    (12, 100_000),
    (16, 10_000),
    (16, 100_000),
];

/// The schedules `Auto` picks among at these shapes.
const ORACLE: [Algorithm; 3] = [
    Algorithm::SsarRecDbl,
    Algorithm::SsarSplitAllgather,
    Algorithm::DsarSplitAllgather,
];

/// `k` indices of `DIM`, one drawn uniformly from each of `k` buckets
/// that tile `[0, DIM)` — every index is in with probability `k/N`, so
/// the expected fill-in is the uniform model's, without a hash set — with
/// small integer values.
fn input(k: usize, seed: u64) -> SparseStream<f32> {
    let mut rng = XorShift64::new(seed);
    let pairs: Vec<(u32, f32)> = (0..k)
        .map(|j| {
            let (lo, hi) = (j * DIM / k, (j + 1) * DIM / k);
            let at = lo + rng.next_below((hi - lo) as u64) as usize;
            (at as u32, (1 + rng.next_below(4)) as f32)
        })
        .collect();
    SparseStream::from_pairs(DIM, &pairs).unwrap()
}

/// The slowest rank's virtual completion time of `algo` on `ins`, after
/// checking every rank's result against `expect`.
fn virtual_us(ins: &[SparseStream<f32>], expect: &[f32], algo: Algorithm) -> f64 {
    let outs = run_communicators(ins.len(), CostModel::aries(), |comm| {
        let out = comm
            .allreduce(&ins[comm.rank()])
            .algorithm(algo)
            .launch()
            .and_then(|h| h.wait())
            .unwrap();
        (out.to_dense_vec() == expect, comm.clock())
    });
    for (rank, (exact, _)) in outs.iter().enumerate() {
        assert!(exact, "{algo:?} on rank {rank} differs from the reference");
    }
    outs.iter().map(|o| o.1).fold(0.0, f64::max) * 1e6
}

#[test]
fn auto_is_within_two_percent_of_the_oracle_across_the_sweep() {
    let cost = CostModel::aries();
    let mut misses = Vec::new();
    for (p, k) in POINTS {
        let ins: Vec<SparseStream<f32>> = (0..p)
            .map(|rank| input(k, 0x5eed + (p * 1000 + rank) as u64))
            .collect();
        let expect = reference_sum(&ins);
        let auto = virtual_us(&ins, &expect, Algorithm::Auto);
        let pinned: Vec<(Algorithm, f64)> = ORACLE
            .iter()
            .map(|&algo| (algo, virtual_us(&ins, &expect, algo)))
            .collect();
        let &(best, best_us) = pinned
            .iter()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("three schedules");
        let regret = auto / best_us;
        let estimates: Vec<String> = pinned
            .iter()
            .map(|(algo, us)| {
                let est = estimate_time::<f32>(*algo, p, DIM, k, &cost) * 1e6;
                format!("{} {us:.1} (est {est:.1})", algo.name())
            })
            .collect();
        println!(
            "P={p} k={k}: Auto {auto:.1} us, best {} -> regret {regret:.4}; {}",
            best.name(),
            estimates.join(", ")
        );
        if regret > 1.02 {
            misses.push(format!(
                "P={p} k={k}: Auto took {auto:.2} us against {best:?}'s {best_us:.2} (regret {regret:.4})"
            ));
        }
    }
    assert!(misses.is_empty(), "{}", misses.join("\n"));
}
