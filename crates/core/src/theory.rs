//! Stochastic density analysis (Appendix B of the paper).
//!
//! With per-rank supports of `k` indices drawn uniformly from `[0, N)`,
//! the expected reduced support size is
//!
//! ```text
//! E[K] = N · Σ_{i=1..P} (−1)^{i−1} · C(P, i) · (k/N)^i
//!      = N · (1 − (1 − k/N)^P)
//! ```
//!
//! (the alternating inclusion–exclusion sum telescopes into the closed
//! form). The union bound `E[K] ≤ P·k` is tight when supports are
//! disjoint. These formulas regenerate Fig. 7 and drive the adaptive
//! algorithm selector.

/// Exact `E[K]` under uniform index sampling: `N·(1 − (1 − k/N)^P)`
/// (zero when `N = 0`).
pub fn expected_union_size(n: usize, p: usize, k: usize) -> f64 {
    assert!(k <= n, "k must not exceed N");
    let d = k as f64 / n.max(1) as f64;
    n as f64 * (1.0 - (1.0 - d).powi(p as i32))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparcml_stream::XorShift64;

    /// The paper's inclusion–exclusion form, computed term by term
    /// (numerically fragile for large `P`; kept for cross-validation
    /// against the closed form).
    fn expected_union_size_inclusion_exclusion(n: usize, p: usize, k: usize) -> f64 {
        let d = k as f64 / n as f64;
        let mut sum = 0.0f64;
        let mut binom = 1.0f64; // C(P, i), updated incrementally
        for i in 1..=p {
            binom *= (p - i + 1) as f64 / i as f64;
            let term = binom * d.powi(i as i32);
            if i % 2 == 1 {
                sum += term;
            } else {
                sum -= term;
            }
        }
        n as f64 * sum
    }

    /// Monte-Carlo estimate of `E[K]`: draws `trials` independent
    /// experiments of `P` uniform `k`-subsets of `[0, N)` and averages the
    /// union sizes.
    fn monte_carlo_union_size(n: usize, p: usize, k: usize, trials: usize, seed: u64) -> f64 {
        let mut rng = XorShift64::new(seed);
        let mut total = 0usize;
        let mut seen = vec![0u32; n];
        for trial in 0..trials {
            let stamp = trial as u32 + 1;
            let mut union = 0usize;
            for _ in 0..p {
                let idx = sparcml_stream::uniform_indices(n, k, &mut rng);
                for i in idx {
                    let slot = &mut seen[i as usize];
                    if *slot != stamp {
                        *slot = stamp;
                        union += 1;
                    }
                }
            }
            total += union;
        }
        total as f64 / trials as f64
    }

    #[test]
    fn closed_form_matches_inclusion_exclusion() {
        for &(n, p, k) in &[(512usize, 4usize, 16usize), (512, 16, 8), (1000, 7, 100)] {
            let a = expected_union_size(n, p, k);
            let b = expected_union_size_inclusion_exclusion(n, p, k);
            assert!((a - b).abs() < 1e-6 * n as f64, "({n},{p},{k}): {a} vs {b}");
        }
    }

    #[test]
    fn limits_are_sane() {
        // P = 1: E[K] = k exactly.
        assert!((expected_union_size(512, 1, 32) - 32.0).abs() < 1e-9);
        // k = N: always dense.
        assert!((expected_union_size(512, 5, 512) - 512.0).abs() < 1e-9);
        // k = 0: empty.
        assert_eq!(expected_union_size(512, 5, 0), 0.0);
        // Monotone in P, bounded by the union bound.
        let mut prev = 0.0;
        for p in 1..64 {
            let e = expected_union_size(512, p, 16);
            assert!(e >= prev);
            assert!(e <= (p * 16).min(512) as f64 + 1e-9);
            prev = e;
        }
    }

    #[test]
    fn monte_carlo_agrees_with_closed_form() {
        let (n, p, k) = (512, 8, 16);
        let exact = expected_union_size(n, p, k);
        let mc = monte_carlo_union_size(n, p, k, 400, 99);
        let rel = (mc - exact).abs() / exact;
        assert!(rel < 0.05, "MC {mc} vs exact {exact} (rel {rel})");
    }

    #[test]
    fn density_growth_saturates() {
        // Fig. 7 shape: E[K]/k ≈ P for small k, saturates at N/k for large P.
        let g_small_p = expected_union_size(512, 2, 8) / 8.0;
        assert!((g_small_p - 2.0).abs() < 0.1);
        let g_large_p = expected_union_size(512, 512, 8) / 8.0;
        assert!(g_large_p < 512.0 / 8.0 + 1e-9);
        assert!(g_large_p > 0.9 * 512.0 / 8.0 * (1.0 - (-8.0f64).exp()));
    }
}
