//! Measurement-calibrated algorithm selection.
//!
//! The §5.3 selector is only as good as its machine model: a static
//! preset (`CostModel::aries()` etc.) prices every candidate analytically
//! and can mis-pick whenever the preset's α/β don't match the actual
//! link. [`ObservedCostModel`] closes the loop: every `Auto` collective
//! that runs through a calibrated communicator reports its measured
//! duration back here, keyed by `(algorithm, size-class)`, and selection
//! switches from the preset's predictions to the measured medians once
//! each candidate has warmed up — with an EWMA-fitted effective α/β
//! standing in for regimes that have no measurements yet.
//!
//! Cross-rank determinism: measured durations differ across ranks, so a
//! locally-measured pick could diverge and deadlock the schedule. A
//! calibrating session therefore never enters `Auto`'s agreement pass
//! eager — its frames are the bare 8-byte k words, never a reduction
//! the measurements had no say in — and runs one extra 1-byte agreement
//! round on the calibrated pick (see `allreduce::resolve_auto`): every
//! rank proposes its pick, the minimum candidate index wins everywhere.
//!
//! Exploration stays inside the workload's regime
//! (`selector::flat_candidates`: the sparse schedules below δ, DSAR and
//! the dense baselines past it) because every explored candidate is run
//! for real; the preset selector prices all seven and is not so bound.

use std::collections::HashMap;
use std::sync::Mutex;

use sparcml_net::CostModel;
use sparcml_obs::{LatencyHisto, LatencyRegistry};
use sparcml_stream::Scalar;

use crate::allreduce::Algorithm;
use crate::bounds::Workload;
use crate::selector::{expected_cost, flat_candidates};
use crate::theory::expected_union_size;

/// Tunables for [`ObservedCostModel`].
#[derive(Debug, Clone, Copy)]
pub struct CalibrationConfig {
    /// EWMA weight of the newest sample in the per-key running mean and
    /// the α/β fit statistics (`0 < ewma <= 1`; higher adapts faster).
    pub ewma: f64,
    /// Measurements required per candidate per size class before
    /// selection trusts the measured means; until then candidates are
    /// explored round-robin.
    pub warmup_samples: u64,
}

impl Default for CalibrationConfig {
    fn default() -> CalibrationConfig {
        CalibrationConfig {
            ewma: 0.25,
            warmup_samples: 2,
        }
    }
}

/// Decayed sufficient statistics of the least-squares system
/// `t ≈ α·A(w) + β·B(w)` over all recorded calls, where `A`/`B` are the
/// candidate's analytic cost evaluated under unit-α and unit-β models.
#[derive(Debug, Clone, Copy, Default)]
struct FitStats {
    saa: f64,
    sab: f64,
    sbb: f64,
    sat: f64,
    sbt: f64,
    n: u64,
}

#[derive(Debug, Default)]
struct Inner {
    /// EWMA mean duration (seconds) per `(algorithm, size-class)`.
    means: HashMap<(Algorithm, u8), (f64, u64)>,
    fit: FitStats,
}

/// An EWMA-calibrated wrapper over [`CostModel`]: records measured
/// per-algorithm durations, fits effective α/β, and selects among the
/// §5.3 candidate set by measurement instead of preset once warm.
///
/// Thread-safe; shared between a [`crate::Communicator`] and its
/// collectives via `Arc` (see [`crate::AllreduceConfig::calibration`]).
pub struct ObservedCostModel {
    base: CostModel,
    cfg: CalibrationConfig,
    histos: LatencyRegistry,
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for ObservedCostModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObservedCostModel")
            .field("base", &self.base)
            .field("cfg", &self.cfg)
            .field("fitted", &self.fitted())
            .finish()
    }
}

impl ObservedCostModel {
    /// A fresh calibrator over `base` (the preset used until — and
    /// wherever — measurements exist).
    pub fn new(base: CostModel) -> ObservedCostModel {
        ObservedCostModel::with_config(base, CalibrationConfig::default())
    }

    /// [`ObservedCostModel::new`] with explicit tunables.
    pub fn with_config(base: CostModel, cfg: CalibrationConfig) -> ObservedCostModel {
        ObservedCostModel {
            base,
            cfg,
            histos: LatencyRegistry::new(),
            inner: Mutex::new(Inner::default()),
        }
    }

    /// The preset this calibrator started from.
    pub fn base(&self) -> &CostModel {
        &self.base
    }

    /// Record one measured collective: `algo` ran a `p`-rank reduction of
    /// `n`-dim vectors with `k` non-zeros per rank in `seconds`.
    pub fn record<V: Scalar>(&self, algo: Algorithm, p: usize, n: usize, k: usize, seconds: f64) {
        if !(seconds.is_finite() && seconds >= 0.0) || algo.is_auto() {
            return;
        }
        let k = k.max(1);
        self.histos.record(algo.name(), "cal", k, seconds);
        let class = LatencyRegistry::size_class(k);
        let lam = self.cfg.ewma.clamp(1e-3, 1.0);
        let mut inner = self.inner.lock().unwrap();
        let entry = inner.means.entry((algo, class)).or_insert((0.0, 0));
        if entry.1 == 0 {
            entry.0 = seconds;
        } else {
            entry.0 = (1.0 - lam) * entry.0 + lam * seconds;
        }
        entry.1 += 1;
        // Feed the α/β fit: subtract the γ (compute) share predicted by
        // the base model, then decay-accumulate the normal equations of
        // t' ≈ α·A + β·B.
        let w = Workload {
            p,
            n,
            k,
            value_bytes: V::BYTES,
        };
        let ek = expected_union_size(n, p, k.min(n));
        let a = expected_cost(algo, &w, &unit(self.base, 1.0, 0.0, 0.0), ek);
        let b = expected_cost(algo, &w, &unit(self.base, 0.0, 1.0, 0.0), ek);
        let g = expected_cost(algo, &w, &unit(self.base, 0.0, 0.0, 1.0), ek);
        let t = (seconds - self.base.gamma * g).max(0.0);
        if a.is_finite() && b.is_finite() {
            let f = &mut inner.fit;
            let d = 1.0 - lam;
            f.saa = d * f.saa + lam * a * a;
            f.sab = d * f.sab + lam * a * b;
            f.sbb = d * f.sbb + lam * b * b;
            f.sat = d * f.sat + lam * a * t;
            f.sbt = d * f.sbt + lam * b * t;
            f.n += 1;
        }
    }

    /// The effective machine model implied by the measurements: α/β from
    /// the decayed least-squares fit (γ and the isend fraction carried
    /// over from the base). Falls back to the base preset until at least
    /// two calls have been recorded or while the system is degenerate
    /// (e.g. all measurements from one algorithm at one size).
    pub fn fitted(&self) -> CostModel {
        let fit = self.inner.lock().unwrap().fit;
        if fit.n < 2 {
            return self.base;
        }
        let det = fit.saa * fit.sbb - fit.sab * fit.sab;
        // Relative threshold: det degenerates when A and B are collinear
        // across every recorded call.
        if det.abs() <= 1e-9 * (fit.saa * fit.sbb).max(f64::MIN_POSITIVE) {
            // Rank-1 fallback: scale the base α/β jointly so the model
            // matches the measured magnitudes.
            let scale = if fit.saa > 0.0 && self.base.alpha > 0.0 {
                let s = fit.sat / fit.saa / self.base.alpha;
                if s.is_finite() {
                    s.max(0.0)
                } else {
                    1.0
                }
            } else {
                1.0
            };
            return CostModel {
                alpha: self.base.alpha * scale.max(1e-6),
                beta: self.base.beta * scale.max(1e-6),
                ..self.base
            };
        }
        let alpha = (fit.sat * fit.sbb - fit.sbt * fit.sab) / det;
        let beta = (fit.sbt * fit.saa - fit.sat * fit.sab) / det;
        if !(alpha.is_finite() && beta.is_finite()) {
            return self.base;
        }
        CostModel {
            // Negative coefficients mean the model family can't explain
            // the data yet; clamp to a sliver of the base instead of
            // predicting negative times.
            alpha: if alpha > 0.0 {
                alpha
            } else {
                self.base.alpha * 1e-3
            },
            beta: if beta > 0.0 {
                beta
            } else {
                self.base.beta * 1e-3
            },
            ..self.base
        }
    }

    /// Measurements recorded for `algo` in `k`'s size class.
    pub fn samples(&self, algo: Algorithm, k: usize) -> u64 {
        self.histos
            .count(algo.name(), "cal", LatencyRegistry::size_class(k.max(1)))
    }

    /// The EWMA mean measured duration of `algo` in `k`'s size class.
    pub fn measured_mean(&self, algo: Algorithm, k: usize) -> Option<f64> {
        let class = LatencyRegistry::size_class(k.max(1));
        self.inner
            .lock()
            .unwrap()
            .means
            .get(&(algo, class))
            .filter(|(_, n)| *n > 0)
            .map(|(m, _)| *m)
    }

    /// Measurement-first §5.3 selection among the candidates of the
    /// workload's regime (`E[K]` against δ):
    ///
    /// 1. *warm-up*: while any candidate has fewer than
    ///    `warmup_samples` measurements in this size class, return the
    ///    least-measured candidate (ties by candidate order) — forced
    ///    exploration, so the empirically best algorithm is actually
    ///    tried instead of only ever exploiting the prior;
    /// 2. *exploit*: once warm, return the candidate with the smallest
    ///    measured EWMA mean;
    /// 3. candidates without measurements (unreachable after warm-up)
    ///    are priced by the [`ObservedCostModel::fitted`] model.
    ///
    /// Deterministic given identical measurement histories; across ranks
    /// the `Auto` path adds a 1-byte agreement so divergent histories
    /// can't split the cluster's pick.
    pub fn select<V: Scalar>(&self, p: usize, n: usize, k: usize) -> Algorithm {
        let k = k.max(1);
        let candidates = flat_candidates::<V>(p, n, k);
        let explore = candidates
            .iter()
            .map(|&a| (self.samples(a, k), a))
            .min_by_key(|(count, _)| *count)
            .expect("candidate list non-empty");
        if explore.0 < self.cfg.warmup_samples {
            return explore.1;
        }
        let fitted = self.fitted();
        let w = Workload {
            p,
            n,
            k,
            value_bytes: V::BYTES,
        };
        let ek = expected_union_size(n, p, k.min(n));
        *candidates
            .iter()
            .min_by(|&&a, &&b| {
                let ta = self
                    .measured_mean(a, k)
                    .unwrap_or_else(|| expected_cost(a, &w, &fitted, ek));
                let tb = self
                    .measured_mean(b, k)
                    .unwrap_or_else(|| expected_cost(b, &w, &fitted, ek));
                ta.partial_cmp(&tb).expect("durations are finite")
            })
            .expect("candidate list non-empty")
    }

    /// Per-`(algorithm, size-class)` latency histograms (the measurement
    /// store behind selection), e.g. for a health endpoint.
    pub fn histograms(&self) -> Vec<((&'static str, &'static str, u8), LatencyHisto)> {
        self.histos.snapshot()
    }

    /// Human-readable calibration report: fitted model plus the measured
    /// latency table.
    pub fn report(&self) -> String {
        let fitted = self.fitted();
        format!(
            "calibration base alpha={:.3e} beta={:.3e} | fitted alpha={:.3e} beta={:.3e}\n{}",
            self.base.alpha,
            self.base.beta,
            fitted.alpha,
            fitted.beta,
            self.histos.render_text()
        )
    }
}

/// `base` with α/β/γ replaced (keeping `isend_alpha_fraction`), for
/// evaluating the analytic cost's pure-α / pure-β / pure-γ components.
fn unit(base: CostModel, alpha: f64, beta: f64, gamma: f64) -> CostModel {
    CostModel {
        alpha,
        beta,
        gamma,
        ..base
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P: usize = 8;
    const N: usize = 1 << 20;
    const K: usize = 100_000;

    #[test]
    fn warmup_explores_every_candidate_round_robin() {
        let cal = ObservedCostModel::new(CostModel::aries());
        let candidates = flat_candidates::<f32>(P, N, K);
        let mut seen = Vec::new();
        for _ in 0..candidates.len() * 2 {
            let pick = cal.select::<f32>(P, N, K);
            cal.record::<f32>(pick, P, N, K, 0.001);
            seen.push(pick);
        }
        for c in candidates {
            assert_eq!(
                seen.iter().filter(|&&s| s == *c).count(),
                2,
                "warm-up must visit {c:?} exactly warmup_samples times"
            );
        }
    }

    #[test]
    fn converges_to_measured_fastest_after_warmup() {
        let cal = ObservedCostModel::new(CostModel::aries());
        let candidates = flat_candidates::<f32>(P, N, K);
        // Feed synthetic measurements: the *last* candidate is fastest
        // (so preset order can't accidentally produce the right answer).
        let fastest = *candidates.last().unwrap();
        for _ in 0..3 {
            for &c in candidates {
                let t = if c == fastest { 0.001 } else { 0.010 };
                cal.record::<f32>(c, P, N, K, t);
            }
        }
        assert_eq!(cal.select::<f32>(P, N, K), fastest);
        // ...and it keeps picking it while measurements stay consistent.
        for _ in 0..5 {
            let pick = cal.select::<f32>(P, N, K);
            assert_eq!(pick, fastest);
            cal.record::<f32>(pick, P, N, K, 0.001);
        }
    }

    #[test]
    fn ewma_tracks_a_regime_change() {
        let cal = ObservedCostModel::with_config(
            CostModel::aries(),
            CalibrationConfig {
                ewma: 0.5,
                warmup_samples: 1,
            },
        );
        let candidates = flat_candidates::<f32>(P, N, K);
        let (a, b) = (candidates[0], candidates[1]);
        for &c in candidates {
            cal.record::<f32>(c, P, N, K, if c == a { 0.001 } else { 0.010 });
        }
        assert_eq!(cal.select::<f32>(P, N, K), a);
        // The link degrades for `a`: with ewma=0.5 a few bad samples
        // overtake the history.
        for _ in 0..6 {
            cal.record::<f32>(a, P, N, K, 0.100);
            cal.record::<f32>(b, P, N, K, 0.002);
        }
        assert_eq!(cal.select::<f32>(P, N, K), b);
    }

    #[test]
    fn fitted_recovers_alpha_beta_from_synthetic_times() {
        // Generate durations from a known machine model and check the
        // fit lands near it (γ = 0 keeps the check exact-ish).
        let truth = CostModel {
            alpha: 3e-5,
            beta: 2e-9,
            gamma: 0.0,
            ..CostModel::aries()
        };
        let base = CostModel {
            alpha: 1e-6, // wrong preset on purpose
            beta: 1e-10,
            gamma: 0.0,
            ..CostModel::aries()
        };
        let cal = ObservedCostModel::new(base);
        for k in [1 << 6, 1 << 10, 1 << 14, 1 << 17] {
            for &algo in flat_candidates::<f32>(P, N, k) {
                let w = Workload {
                    p: P,
                    n: N,
                    k,
                    value_bytes: 4,
                };
                let ek = expected_union_size(N, P, k);
                let t = expected_cost(algo, &w, &truth, ek);
                cal.record::<f32>(algo, P, N, k, t);
            }
        }
        let fitted = cal.fitted();
        assert!(
            (fitted.alpha / truth.alpha).log2().abs() < 1.0,
            "alpha {} vs truth {}",
            fitted.alpha,
            truth.alpha
        );
        assert!(
            (fitted.beta / truth.beta).log2().abs() < 1.0,
            "beta {} vs truth {}",
            fitted.beta,
            truth.beta
        );
    }

    #[test]
    fn unwarmed_model_falls_back_to_base() {
        let cal = ObservedCostModel::new(CostModel::gige());
        assert_eq!(cal.fitted(), CostModel::gige());
        assert_eq!(cal.samples(Algorithm::DenseRing, 1024), 0);
        assert_eq!(cal.measured_mean(Algorithm::DenseRing, 1024), None);
    }
}
