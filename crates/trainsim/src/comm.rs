//! Per-layer collective time estimation.
//!
//! Two estimators share one interface: [`AnalyticEstimator`] uses the §5.3
//! bound formulas interpolated by the expected fill-in E[K] (Appendix B) —
//! instant, any scale; [`MeasuredEstimator`] *executes* the collective on
//! an in-process virtual-time cluster with synthetic supports and caches
//! the result — slower, but exercises the real implementation including
//! representation switching.

use std::collections::HashMap;

use parking_lot::Mutex;
use sparcml_core::{
    estimate_hierarchical_time, estimate_time, max_communicator_time, Algorithm, AllreduceConfig,
};
use sparcml_net::{CostModel, Topology, TopologyCostModel};
use sparcml_quant::{quantized_wire_bytes, QsgdConfig};
use sparcml_stream::random_sparse;

/// How a layer's gradient is exchanged.
#[derive(Debug, Clone, PartialEq)]
pub enum Exchange {
    /// Full-precision dense allreduce.
    Dense(Algorithm),
    /// Bucket-wise Top-k sparse allreduce.
    TopK {
        /// Values kept per bucket of 512.
        k_per_bucket: usize,
        /// Collective schedule.
        algorithm: Algorithm,
        /// Optional QSGD on the dense stage (DSAR).
        quant: Option<QsgdConfig>,
    },
}

impl Exchange {
    /// Paper-default Top-k exchange: k of every 512, recursive doubling.
    pub fn topk(k_per_bucket: usize) -> Exchange {
        Exchange::TopK {
            k_per_bucket,
            algorithm: Algorithm::SsarRecDbl,
            quant: None,
        }
    }

    /// Full-precision baseline (Rabenseifner, as MPI picks for large dense
    /// vectors).
    pub fn dense() -> Exchange {
        Exchange::Dense(Algorithm::DenseRabenseifner)
    }
}

/// Estimates the completion time of one layer's gradient exchange.
pub trait CommEstimator {
    /// Virtual seconds to allreduce a gradient of `params` entries across
    /// `p` ranks under `exchange`.
    fn layer_time(&self, params: usize, p: usize, exchange: &Exchange) -> f64;
}

/// Closed-form estimator from the §5.3 bounds + Appendix B fill-in.
#[derive(Debug, Clone)]
pub struct AnalyticEstimator {
    /// Network model.
    pub cost: CostModel,
    /// Cross-node Top-k support correlation in `[0, 1]`: 1.0 = independent
    /// uniform supports (worst-case fill-in, Appendix B); smaller values
    /// model the strong overlap of real Top-k gradients (the paper's
    /// Fig. 1 measures far less fill-in on real models than the uniform
    /// bound). The effective union is `k + f·(E_uniform[K] − k)`.
    pub support_overlap: f64,
    /// Node placement + per-link-class parameters: when set, exchanges
    /// pinned to [`Algorithm::Hierarchical`] are priced with the
    /// two-level estimate (intra reduce → leader allreduce → intra
    /// broadcast) instead of the flat bounds.
    pub topology: Option<(Topology, TopologyCostModel)>,
}

impl AnalyticEstimator {
    /// Estimator with worst-case (independent) supports.
    pub fn new(cost: CostModel) -> Self {
        AnalyticEstimator {
            cost,
            support_overlap: 1.0,
            topology: None,
        }
    }

    /// Estimator with correlated Top-k supports (`factor` < 1 shrinks
    /// fill-in towards the fully-overlapping extreme).
    pub fn with_support_overlap(cost: CostModel, factor: f64) -> Self {
        AnalyticEstimator {
            cost,
            support_overlap: factor.clamp(0.0, 1.0),
            topology: None,
        }
    }

    /// Builder-style node placement for hierarchical exchanges.
    pub fn with_topology(mut self, topology: Topology, tcm: TopologyCostModel) -> Self {
        self.topology = Some((topology, tcm));
        self
    }

    /// Flat estimate, or the two-level one for a hierarchical exchange
    /// with a matching configured topology (a hierarchical exchange
    /// without one degrades to the flat adaptive estimate, mirroring the
    /// collective's own fallback).
    fn algo_time(&self, algo: Algorithm, p: usize, n: usize, k: usize) -> f64 {
        if algo == Algorithm::Hierarchical {
            if let Some((topo, tcm)) = self.topology.as_ref().filter(|(t, _)| t.size() == p) {
                return estimate_hierarchical_time::<f32>(topo, n, k, tcm);
            }
            return estimate_time::<f32>(Algorithm::Auto, p, n, k, &self.cost);
        }
        estimate_time::<f32>(algo, p, n, k, &self.cost)
    }
}

impl CommEstimator for AnalyticEstimator {
    fn layer_time(&self, params: usize, p: usize, exchange: &Exchange) -> f64 {
        match exchange {
            Exchange::Dense(algo) => self.algo_time(*algo, p, params, params),
            Exchange::TopK {
                k_per_bucket,
                algorithm,
                quant,
            } => {
                let k = (params * k_per_bucket / 512).clamp(1, params);
                // Correlated-support union: interpolate between full
                // overlap (K = k) and the uniform-independent E[K].
                let ek_uniform = sparcml_core::theory::expected_union_size(params, p, k);
                let ek = k as f64 + self.support_overlap * (ek_uniform - k as f64);
                let mut t = if *algorithm == Algorithm::Hierarchical {
                    self.algo_time(*algorithm, p, params, k)
                } else {
                    sparcml_core::estimate_time_with_union::<f32>(
                        *algorithm, p, params, k, ek, &self.cost,
                    )
                };
                if let Some(q) = quant {
                    // Quantization shrinks the dense allgather stage of
                    // DSAR by (dense bytes) / (quantized bytes).
                    let dense_bytes = params * 4;
                    let q_bytes = quantized_wire_bytes(params, q);
                    let dense_stage =
                        (p as f64 - 1.0) / p as f64 * dense_bytes as f64 * self.cost.beta;
                    let saved = dense_stage * (1.0 - q_bytes as f64 / dense_bytes as f64);
                    t = (t - saved).max(0.0);
                }
                t
            }
        }
    }
}

/// Executes the collective once per distinct `(params, p, exchange)` and
/// caches the measured virtual time.
pub struct MeasuredEstimator {
    cost: CostModel,
    cache: Mutex<HashMap<(usize, usize, String), f64>>,
}

impl MeasuredEstimator {
    /// Creates an estimator for the given network.
    pub fn new(cost: CostModel) -> Self {
        MeasuredEstimator {
            cost,
            cache: Mutex::new(HashMap::new()),
        }
    }

    fn measure(&self, params: usize, p: usize, exchange: &Exchange) -> f64 {
        let cost = self.cost;
        match exchange {
            Exchange::Dense(algo) => {
                let algo = *algo;
                max_communicator_time(p, cost, move |comm| {
                    let input = sparcml_stream::SparseStream::from_dense(vec![1.0f32; params]);
                    comm.allreduce(&input)
                        .algorithm(algo)
                        .launch()
                        .and_then(|handle| handle.wait())
                        .unwrap();
                })
            }
            Exchange::TopK {
                k_per_bucket,
                algorithm,
                quant,
            } => {
                let k = (params * k_per_bucket / 512).max(1).min(params);
                let algo = *algorithm;
                let cfg = AllreduceConfig {
                    quant: *quant,
                    ..Default::default()
                };
                max_communicator_time(p, cost, move |comm| {
                    let input = random_sparse::<f32>(params, k, 0xFEED + comm.rank() as u64);
                    comm.allreduce(&input)
                        .algorithm(algo)
                        .config(cfg.clone())
                        .launch()
                        .and_then(|handle| handle.wait())
                        .unwrap();
                })
            }
        }
    }
}

impl CommEstimator for MeasuredEstimator {
    fn layer_time(&self, params: usize, p: usize, exchange: &Exchange) -> f64 {
        let key = (params, p, format!("{exchange:?}"));
        if let Some(&t) = self.cache.lock().get(&key) {
            return t;
        }
        let t = self.measure(params, p, exchange);
        self.cache.lock().insert(key, t);
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analytic_topk_cheaper_than_dense() {
        let est = AnalyticEstimator::new(CostModel::aries());
        let dense = est.layer_time(1 << 22, 16, &Exchange::Dense(Algorithm::DenseRabenseifner));
        let topk = est.layer_time(
            1 << 22,
            16,
            &Exchange::TopK {
                k_per_bucket: 4,
                algorithm: Algorithm::SsarRecDbl,
                quant: None,
            },
        );
        assert!(topk < dense, "topk {topk} vs dense {dense}");
    }

    #[test]
    fn quantization_reduces_analytic_dsar_time() {
        let est = AnalyticEstimator::new(CostModel::gige());
        let plain = est.layer_time(
            1 << 20,
            8,
            &Exchange::TopK {
                k_per_bucket: 16,
                algorithm: Algorithm::DsarSplitAllgather,
                quant: None,
            },
        );
        let quant = est.layer_time(
            1 << 20,
            8,
            &Exchange::TopK {
                k_per_bucket: 16,
                algorithm: Algorithm::DsarSplitAllgather,
                quant: Some(QsgdConfig::with_bits(4)),
            },
        );
        assert!(quant < plain, "quant {quant} vs plain {plain}");
    }

    #[test]
    fn measured_agrees_with_analytic_within_factor() {
        let cost = CostModel::aries();
        let measured = MeasuredEstimator::new(cost);
        let analytic = AnalyticEstimator::new(cost);
        let ex = Exchange::TopK {
            k_per_bucket: 8,
            algorithm: Algorithm::SsarRecDbl,
            quant: None,
        };
        let (params, p) = (1 << 18, 8);
        let tm = measured.layer_time(params, p, &ex);
        let ta = analytic.layer_time(params, p, &ex);
        let ratio = tm / ta;
        assert!(
            (0.2..5.0).contains(&ratio),
            "measured {tm} vs analytic {ta} (ratio {ratio})"
        );
    }

    #[test]
    fn measured_cache_hits() {
        let est = MeasuredEstimator::new(CostModel::zero());
        let ex = Exchange::Dense(Algorithm::DenseRabenseifner);
        let a = est.layer_time(1024, 4, &ex);
        let b = est.layer_time(1024, 4, &ex);
        assert_eq!(a, b);
        assert_eq!(est.cache.lock().len(), 1);
    }
}
