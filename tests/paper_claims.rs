//! The paper's collective claims, asserted on the virtual clock.
//!
//! - §5.3 envelopes: `SSAR_Recursive_double` and `SSAR_Split_allgather`
//!   finish inside their analytic bounds (Lemma 5.1 and the per-schedule
//!   forms of `core::bounds`) at both overlap extremes, with 10 % slack
//!   for wire headers and count words. Compute is priced at zero, as in
//!   the paper's bounds ("only valid for negligible computational cost").
//! - Lemma 5.2: the split schedule on a result past δ — the DSAR instance
//!   of §5.3.3 — pays at least the `δ·βd` floor.
//! - Fig. 3 (right), GigE at P = 8: at the latency-bound end the fastest
//!   sparse schedule beats the dense baseline by ≥ 50×; once the result
//!   fills in past δ, the split schedule still beats it, by no more than
//!   the §5.3.3 cap.

use sparcml::core::bounds::{self, Workload};
use sparcml::core::{max_communicator_time, Algorithm};
use sparcml::net::CostModel;
use sparcml::stream::{random_sparse, SparseStream};

/// Slack on both ends of an envelope and under the Lemma 5.2 floor.
const SLACK: f64 = 0.1;

fn time_with<F>(algo: Algorithm, p: usize, cost: CostModel, input: F) -> f64
where
    F: Fn(usize) -> SparseStream<f32> + Sync,
{
    max_communicator_time(p, cost, |comm| {
        let input = input(comm.rank());
        comm.allreduce(&input)
            .algorithm(algo)
            .launch()
            .and_then(|h| h.wait())
            .unwrap();
    })
}

/// Fully-overlapping supports (K = k): every rank holds the same indices.
fn time_full_overlap(algo: Algorithm, p: usize, n: usize, k: usize, cost: CostModel) -> f64 {
    let shared = random_sparse::<f32>(n, k, 777);
    time_with(algo, p, cost, |_| shared.clone())
}

/// Disjoint, partition-balanced supports (K = P·k spread evenly over the
/// index space): the paper's worst case assumes this balance, "every node
/// has exactly k items".
fn time_disjoint(algo: Algorithm, p: usize, n: usize, k: usize, cost: CostModel) -> f64 {
    let stride = (n / (p * k)).max(1);
    time_with(algo, p, cost, |r| {
        let pairs: Vec<(u32, f32)> = (0..k)
            .map(|i| (((i * p + r) * stride) as u32, 1.0))
            .collect();
        SparseStream::from_pairs(n, &pairs).unwrap()
    })
}

/// Uniform random supports, as in the paper's micro-benchmarks (§8.1).
fn time_uniform(algo: Algorithm, p: usize, n: usize, k: usize, cost: CostModel) -> f64 {
    time_with(algo, p, cost, |r| {
        random_sparse::<f32>(n, k, 1000 + r as u64)
    })
}

fn aries_without_compute() -> CostModel {
    CostModel {
        gamma: 0.0,
        ..CostModel::aries()
    }
}

#[test]
fn sparse_schedules_stay_inside_their_section_5_3_envelopes() {
    let cost = aries_without_compute();
    let mut outside = Vec::new();
    for (p, n, k) in [
        (8, 1 << 18, 1 << 10),
        (16, 1 << 18, 1 << 12),
        (4, 1 << 16, 1 << 8),
    ] {
        let w = Workload {
            p,
            n,
            k,
            value_bytes: 4,
        };
        for (algo, env) in [
            (Algorithm::SsarRecDbl, bounds::ssar_rec_dbl(&w, &cost)),
            (
                Algorithm::SsarSplitAllgather,
                bounds::ssar_split_ag(&w, &cost),
            ),
        ] {
            for (support, t) in [
                ("overlap", time_full_overlap(algo, p, n, k, cost)),
                ("disjoint", time_disjoint(algo, p, n, k, cost)),
            ] {
                let (lo, hi) = (env.lower * (1.0 - SLACK), env.upper * (1.0 + SLACK));
                println!(
                    "{:<22} {support:<8} P={p} N={n} k={k}: {:.1} ≤ {:.1} ≤ {:.1} µs",
                    algo.name(),
                    lo * 1e6,
                    t * 1e6,
                    hi * 1e6
                );
                if !(lo..=hi).contains(&t) {
                    outside.push(format!("{} {support} P={p}", algo.name()));
                }
            }
        }
    }
    assert!(outside.is_empty(), "outside the envelope: {outside:?}");
}

#[test]
fn dsar_pays_the_lemma_5_2_floor() {
    let cost = aries_without_compute();
    let (p, n) = (8, 1 << 18);
    let k = n / 8;
    let w = Workload {
        p,
        n,
        k,
        value_bytes: 4,
    };
    let t = time_disjoint(Algorithm::SsarSplitAllgather, p, n, k, cost);
    let floor = bounds::lemma_5_2(&w, &cost, n / 2);
    assert!(
        t >= floor * (1.0 - SLACK),
        "split {:.1} µs under the Lemma 5.2 floor {:.1} µs",
        t * 1e6,
        floor * 1e6
    );
}

#[test]
fn sparse_beats_dense_by_50x_when_latency_bound() {
    let (p, n) = (8, 1 << 18);
    let k = (n as f64 * 1e-4) as usize;
    let dense = time_uniform(Algorithm::DenseRabenseifner, p, n, k, CostModel::gige());
    let (best, sparse) = Algorithm::ALL
        .into_iter()
        .filter(|a| *a != Algorithm::DenseRabenseifner)
        .map(|a| (a, time_uniform(a, p, n, k, CostModel::gige())))
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .unwrap();
    let line = format!(
        "{} {:.1} µs, dense {:.1} µs: {:.1}x",
        best.name(),
        sparse * 1e6,
        dense * 1e6,
        dense / sparse
    );
    println!("{line}");
    assert!(dense >= 50.0 * sparse, "{line}");
}

#[test]
fn dsar_gain_over_dense_is_capped_at_high_fill() {
    // Densities whose union fills past δ = N/2 (57 %, 83 % and 98 % of N):
    // the cap bounds a dense result. Below δ the result stays sparse and
    // the gain is the latency-bound one above.
    let (p, n) = (8, 1 << 18);
    let cap = bounds::max_sparse_speedup(n / 2, n);
    for d in [1e-1, 2e-1, 4e-1] {
        let k = (n as f64 * d) as usize;
        let dense = time_uniform(Algorithm::DenseRabenseifner, p, n, k, CostModel::gige());
        let dsar = time_uniform(Algorithm::SsarSplitAllgather, p, n, k, CostModel::gige());
        let speedup = dense / dsar;
        let line = format!(
            "d={d}: split {:.1} µs, dense {:.1} µs, {speedup:.2}x (cap {cap}x)",
            dsar * 1e6,
            dense * 1e6
        );
        println!("{line}");
        assert!(speedup > 1.0 && speedup <= cap, "{line}");
    }
}
