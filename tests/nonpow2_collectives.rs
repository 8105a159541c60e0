//! Non-power-of-two rank counts: the §A fold/unfold pre/post steps and
//! the ring fallbacks across every algorithm, plus selector behaviour, at
//! P = 3, 5, 6, 7 and 12 — all checked against `reference::reference_sum` —
//! and `Auto`'s in-schedule agreement across P = 2..9, 12, 16.

use sparcml::core::reference::reference_sum;
use sparcml::core::{run_communicators, select_algorithm, Algorithm};
use sparcml::net::CostModel;
use sparcml::stream::{random_sparse, SparseStream};

const NON_POW2_RANKS: [usize; 5] = [3, 5, 6, 7, 12];

fn check_against_reference(algo: Algorithm, p: usize, dim: usize, nnz: usize) {
    let ins: Vec<SparseStream<f32>> = (0..p)
        .map(|r| random_sparse(dim, nnz, 7700 + r as u64))
        .collect();
    let expect = reference_sum(&ins);
    let outs = run_communicators(p, CostModel::zero(), |comm| {
        comm.allreduce(&ins[comm.rank()])
            .algorithm(algo)
            .launch()
            .and_then(|handle| handle.wait())
            .unwrap()
    });
    for (rank, out) in outs.iter().enumerate() {
        let got = out.to_dense_vec();
        for (i, (g, e)) in got.iter().zip(expect.iter()).enumerate() {
            assert!(
                (g - e).abs() < 1e-3,
                "{algo:?} P={p} rank {rank} coord {i}: {g} vs {e}"
            );
        }
    }
}

#[test]
fn every_algorithm_handles_non_power_of_two_ranks() {
    for algo in Algorithm::ALL {
        for p in NON_POW2_RANKS {
            check_against_reference(algo, p, 1024, 32);
        }
    }
}

#[test]
fn auto_handles_non_power_of_two_ranks() {
    for p in NON_POW2_RANKS {
        check_against_reference(Algorithm::Auto, p, 1024, 32);
        // A denser workload pushes the selector into the dynamic branch.
        check_against_reference(Algorithm::Auto, p, 512, 200);
    }
}

#[test]
fn auto_is_bitwise_the_pinned_pick_whether_or_not_its_pass_was_the_collective() {
    // Auto agrees on k inside recursive doubling's own frames. Where the
    // pick is recursive doubling the pass is the collective (`auto_fused`);
    // elsewhere it falls back to the pick (`auto_fallback`). Either way
    // the result is, bit for bit, what pinning the pick gives — blocking
    // or `.nonblocking()`.
    let cost = CostModel::aries();
    let dim = 1 << 14;
    let (mut fused_cells, mut fallback_cells) = (0, 0);
    for p in [2usize, 3, 4, 5, 6, 7, 8, 9, 12, 16] {
        // k = 0, 1, 64, 1e4 non-zeros per rank, a dense input, and the
        // empty dimension.
        for (dim, nnz) in [
            (dim, Some(0)),
            (dim, Some(1)),
            (dim, Some(64)),
            (dim, Some(10_000)),
            (dim, None),
            (0, Some(0)),
        ] {
            let ins: Vec<SparseStream<f32>> = (0..p)
                .map(|r| match nnz {
                    Some(nnz) => random_sparse(dim, nnz, 4400 + r as u64),
                    None => {
                        let mut dense = random_sparse(dim, dim / 2, 4400 + r as u64);
                        dense.densify();
                        dense
                    }
                })
                .collect();
            let pick = select_algorithm::<f32>(p, dim, ins[0].stored_len().max(1), &cost);
            let run = |algo: Algorithm, nonblocking: bool| {
                run_communicators(p, cost, |comm| {
                    let mut call = comm.allreduce(&ins[comm.rank()]).algorithm(algo);
                    if nonblocking {
                        call = call.nonblocking();
                    }
                    let out = call.launch().and_then(|handle| handle.wait()).unwrap();
                    let stats = comm.stats_snapshot();
                    (out, stats.auto_fused, stats.auto_fallback)
                })
            };
            let pinned = run(pick, false);
            let expect = reference_sum(&ins);
            for (out, fused, fallback) in &pinned {
                assert_eq!((*fused, *fallback), (0, 0), "a pinned call is not Auto");
                assert_eq!(out.dim(), dim);
                for (g, e) in out.to_dense_vec().iter().zip(expect.iter()) {
                    assert!((g - e).abs() < 1e-2, "{pick:?} P={p} N={dim} nnz={nnz:?}");
                }
            }
            let outcome = if pick == Algorithm::SsarRecDbl {
                fused_cells += 1;
                (1, 0)
            } else {
                fallback_cells += 1;
                (0, 1)
            };
            for nonblocking in [false, true] {
                let auto = run(Algorithm::Auto, nonblocking);
                for (rank, (a, b)) in auto.iter().zip(&pinned).enumerate() {
                    let what = format!("P={p} N={dim} nnz={nnz:?} rank {rank} pick {pick:?}");
                    assert_eq!(a.0, b.0, "{what}");
                    assert_eq!((a.1, a.2), outcome, "{what}");
                }
            }
        }
    }
    assert!(
        fused_cells >= 10 && fallback_cells >= 10,
        "the grid must exercise both outcomes: {fused_cells} fused, {fallback_cells} fallback"
    );
}

#[test]
fn fold_unfold_handles_dense_fill_in_at_odd_ranks() {
    // Disjoint per-rank supports covering the whole space force the
    // representation switch mid-collective: the fold/unfold pre/post
    // steps must carry dense streams correctly for every P.
    for p in NON_POW2_RANKS {
        let dim = 768;
        let per = dim / p;
        let ins: Vec<SparseStream<f32>> = (0..p)
            .map(|r| {
                let lo = (r * per) as u32;
                let pairs: Vec<(u32, f32)> =
                    (lo..lo + per as u32).map(|i| (i, 1.0 + r as f32)).collect();
                SparseStream::from_pairs(dim, &pairs).unwrap()
            })
            .collect();
        let expect = reference_sum(&ins);
        for algo in [Algorithm::SsarRecDbl, Algorithm::DenseRabenseifner] {
            let outs = run_communicators(p, CostModel::zero(), |comm| {
                comm.allreduce(&ins[comm.rank()])
                    .algorithm(algo)
                    .launch()
                    .and_then(|handle| handle.wait())
                    .unwrap()
            });
            for out in outs {
                for (g, e) in out.to_dense_vec().iter().zip(expect.iter()) {
                    assert!((g - e).abs() < 1e-3, "{algo:?} P={p}: {g} vs {e}");
                }
            }
        }
    }
}

#[test]
fn selector_returns_concrete_algorithms_at_non_power_of_two_ranks() {
    // The selector's analytic costs use ceil(log2 P); it must make a
    // well-defined concrete choice (never Auto) at every odd P across
    // sparsity regimes and networks.
    for p in NON_POW2_RANKS {
        for cost in [
            CostModel::aries(),
            CostModel::infiniband(),
            CostModel::gige(),
        ] {
            for (n, k) in [(1 << 20, 1 << 4), (1 << 20, 1 << 12), (1 << 12, 1 << 10)] {
                let algo = select_algorithm::<f32>(p, n, k, &cost);
                assert!(!algo.is_auto(), "P={p} n={n} k={k}");
                assert!(
                    Algorithm::ALL.contains(&algo),
                    "P={p} n={n} k={k} → {algo:?}"
                );
            }
        }
    }
}

#[test]
fn selector_resolution_is_rank_count_consistent() {
    // resolve_for must be a pure function of (P, N, k, cost): the Auto
    // path resolves identically on every rank once k is agreed, so the
    // cluster cannot diverge into different schedules at odd P.
    for p in NON_POW2_RANKS {
        let cost = CostModel::aries();
        let (n, k) = (1 << 16, 1 << 8);
        let choices: Vec<Algorithm> = (0..p)
            .map(|_| Algorithm::Auto.resolve_for::<f32>(p, n, k, &cost))
            .collect();
        assert!(
            choices.windows(2).all(|w| w[0] == w[1]),
            "P={p}: {choices:?}"
        );
    }
}
