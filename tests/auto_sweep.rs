//! `Auto` against the oracle on the virtual clock: at each point of a
//! density sweep over P ∈ {3, 5, 8, 12, 16} on the Aries model, the
//! schedule `Auto` runs must finish within 2 % of the fastest member of
//! `Algorithm::ALL`, and every member must be that fastest somewhere. The
//! points straddle the boundaries where the pick changes, which is where a
//! mispriced schedule shows: both sides of rec-dbl → `SSAR_Split_allgather`
//! at P=8, the split regime off powers of two (a ring allgather, and a
//! recursive doubling that folds and unfolds) at P=3, 5 and 12, the
//! split schedule's sparse and dense results either side of δ (k = 1.5e5
//! to 3e5) at P=8 — all at N = 2^20 — and, at N = 2^14, Rabenseifner's
//! folded core at P=12, recursive doubling's segmented rounds edging it
//! out at P=16 and 10 % density, and its win at P=16 and 15 %. Integer
//! values keep every schedule's sum exact, so the runs are checked against
//! the reference as well.

use sparcml::core::reference::reference_sum;
use sparcml::core::{estimate_time, run_communicators, Algorithm};
use sparcml::net::CostModel;
use sparcml::stream::{SparseStream, XorShift64};

const N20: usize = 1 << 20;
const N14: usize = 1 << 14;

/// The sweep: (P, N, k per rank).
const POINTS: [(usize, usize, usize); 18] = [
    (3, N20, 10_000),
    (3, N20, 100_000),
    (5, N20, 10_000),
    (5, N20, 100_000),
    (8, N20, 2_000),
    (8, N20, 3_000),
    (8, N20, 10_000),
    (8, N20, 150_000),
    (8, N20, 200_000),
    (8, N20, 250_000),
    (8, N20, 300_000),
    (12, N20, 10_000),
    (12, N20, 100_000),
    (12, N14, 1_638),
    (16, N20, 10_000),
    (16, N20, 100_000),
    (16, N14, 1_638),
    (16, N14, 2_500),
];

/// The regret allowed everywhere but at [`BARE_PASS`].
const BOUND: f64 = 1.02;

/// The one exception and its bound. Rabenseifner is the oracle there
/// (≈ 42.2 µs), and its frames carry no agreement word, so `Auto` runs it
/// only after a bare pass of 8-byte words agrees on k: 4 rounds, ≈ 6.0 µs
/// on Aries. (At k = 1 638, where it won at 41.3 µs, recursive doubling's
/// segmented rounds now take 39.5.)
const BARE_PASS: ((usize, usize, usize), f64) = ((16, N14, 2_500), 1.15);

/// `k` indices of `n`, one drawn uniformly from each of `k` buckets that
/// tile `[0, n)` — every index is in with probability `k/n`, so the
/// expected fill-in is the uniform model's, without a hash set — with
/// small integer values.
fn input(n: usize, k: usize, seed: u64) -> SparseStream<f32> {
    let mut rng = XorShift64::new(seed);
    let pairs: Vec<(u32, f32)> = (0..k)
        .map(|j| {
            let (lo, hi) = (j * n / k, (j + 1) * n / k);
            let at = lo + rng.next_below((hi - lo) as u64) as usize;
            (at as u32, (1 + rng.next_below(4)) as f32)
        })
        .collect();
    SparseStream::from_pairs(n, &pairs).unwrap()
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
    let mut oracles = Vec::new();
    for (p, n, k) in POINTS {
        let ins: Vec<SparseStream<f32>> = (0..p)
            .map(|rank| input(n, k, 0x5eed + (p * 1000 + rank) as u64))
            .collect();
        let expect = reference_sum(&ins);
        let auto = virtual_us(&ins, &expect, Algorithm::Auto);
        let pinned: Vec<(Algorithm, f64)> = Algorithm::ALL
            .iter()
            .map(|&algo| (algo, virtual_us(&ins, &expect, algo)))
            .collect();
        let &(best, best_us) = pinned
            .iter()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("Algorithm::ALL is not empty");
        oracles.push(best);
        let regret = auto / best_us;
        let estimates: Vec<String> = pinned
            .iter()
            .map(|(algo, us)| {
                let est = estimate_time::<f32>(*algo, p, n, k, &cost) * 1e6;
                format!("{} {us:.1} (est {est:.1})", algo.name())
            })
            .collect();
        println!(
            "P={p} N={n} k={k}: Auto {auto:.1} us, best {} -> regret {regret:.4}; {}",
            best.name(),
            estimates.join(", ")
        );
        let bound = match BARE_PASS {
            (point, bound) if point == (p, n, k) => bound,
            _ => BOUND,
        };
        if regret > bound {
            misses.push(format!(
                "P={p} N={n} k={k}: Auto took {auto:.2} us against {best:?}'s {best_us:.2} (regret {regret:.4} > {bound})"
            ));
        }
    }
    for algo in Algorithm::ALL {
        if !oracles.contains(&algo) {
            misses.push(format!("{algo:?} is the oracle nowhere"));
        }
    }
    assert!(misses.is_empty(), "{}", misses.join("\n"));
}
