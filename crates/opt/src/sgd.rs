//! Distributed mini-batch SGD for sparse linear models — the MPI-OPT
//! workload of Table 2.
//!
//! "In these experiments, we do not sparsify or quantize the gradient
//! updates, but exploit the fact that data and hence gradients tend to be
//! sparse for these tasks" (§8.2): the minibatch gradient of a linear
//! model touches only the features present in the batch, so it is
//! *naturally* a sparse stream, and communication is lossless.

use sparcml_core::{run_communicators, Algorithm, AllreduceConfig, Communicator, Transport};
use sparcml_net::CostModel;
use sparcml_stream::{SparseStream, XorShift64};

use crate::data::{SparseDataset, SparseSample};
use crate::loss::{accuracy, dot_sparse, mean_loss, signed_label, LinearLoss};
use crate::schedule::LrSchedule;

/// Configuration of a distributed linear-model SGD run.
#[derive(Debug, Clone)]
pub struct SgdConfig {
    /// Loss function (LR or SVM).
    pub loss: LinearLoss,
    /// Learning-rate schedule.
    pub lr: LrSchedule,
    /// Mini-batch size *per node* (the paper uses 1000 per node).
    pub batch_per_node: usize,
    /// Number of passes over the global dataset.
    pub epochs: usize,
    /// Allreduce schedule; [`Algorithm::Auto`] (the default) lets the
    /// communicator's adaptive selector pick per step.
    pub algorithm: Algorithm,
    /// Collective options (δ policy, quantization, node topology for the
    /// hierarchical schedule, …).
    pub allreduce: AllreduceConfig,
    /// L2 regularization coefficient.
    pub l2: f32,
    /// Shuffling seed.
    pub seed: u64,
}

impl SgdConfig {
    /// Pins a node placement on the gradient allreduces: the adaptive
    /// selector then prices the two-level hierarchical schedule against
    /// the flat ones every step (and `Algorithm::Hierarchical` may be set
    /// explicitly via `algorithm`).
    pub fn with_topology(mut self, topology: sparcml_core::Topology) -> Self {
        self.allreduce.topology = Some(topology);
        self
    }
}

impl Default for SgdConfig {
    fn default() -> Self {
        SgdConfig {
            loss: LinearLoss::Logistic,
            lr: LrSchedule::Const(0.5),
            batch_per_node: 64,
            epochs: 3,
            algorithm: Algorithm::Auto,
            allreduce: AllreduceConfig::default(),
            l2: 0.0,
            seed: 1,
        }
    }
}

/// Per-epoch measurements of one rank.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochStats {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean training loss over this rank's shard at epoch end.
    pub loss: f64,
    /// Training accuracy over this rank's shard at epoch end.
    pub accuracy: f64,
    /// Virtual seconds spent in this epoch (compute + communication).
    pub total_time: f64,
    /// Virtual seconds of the epoch spent inside collectives.
    pub comm_time: f64,
    /// Payload bytes sent by this rank during the epoch.
    pub bytes_sent: u64,
}

/// Result of a distributed training run.
#[derive(Debug, Clone)]
pub struct TrainResult {
    /// Final model weights (identical on all ranks; rank 0's copy).
    pub weights: Vec<f32>,
    /// Per-epoch stats of the *slowest* rank (max total time, rank-0
    /// loss/accuracy), which is what end-to-end epoch time means.
    pub epochs: Vec<EpochStats>,
}

/// Computes the sparse mini-batch gradient of a linear model: for each
/// sample, `dloss(w·x, y) · x`, summed over the batch, plus L2 on touched
/// coordinates. Returns a sparse stream over the feature space together
/// with the number of feature operations performed (chargeable via
/// [`Communicator::compute`]).
fn sparse_batch_gradient(
    w: &[f32],
    batch: &[&SparseSample],
    loss: LinearLoss,
    l2: f32,
) -> (SparseStream<f32>, usize) {
    let mut pairs: Vec<(u32, f32)> = Vec::new();
    let mut feature_ops = 0usize;
    for s in batch {
        let score = dot_sparse(w, &s.features);
        let d = loss.dloss(score, signed_label(s.label));
        feature_ops += 2 * s.features.len();
        if d == 0.0 && l2 == 0.0 {
            continue;
        }
        for &(i, v) in &s.features {
            let mut g = d * v;
            if l2 > 0.0 {
                g += l2 * w[i as usize];
            }
            pairs.push((i, g));
        }
    }
    let grad = SparseStream::from_pairs(w.len(), &pairs).expect("in-range features");
    (grad, feature_ops)
}

/// The per-rank program: runs `cfg.epochs` passes of synchronous
/// data-parallel SGD over `shard`, reducing gradients with the configured
/// collective. Returns the final weights and per-epoch stats.
pub fn sgd_rank_program<T: Transport + Send + 'static>(
    comm: &mut Communicator<T>,
    dim: usize,
    shard: &[SparseSample],
    cfg: &SgdConfig,
) -> (Vec<f32>, Vec<EpochStats>) {
    let p = comm.size();
    let mut w = vec![0.0f32; dim];
    let mut rng = XorShift64::new(cfg.seed + comm.rank() as u64);
    let mut order: Vec<usize> = (0..shard.len()).collect();
    let mut stats = Vec::with_capacity(cfg.epochs);
    let mut step = 0usize;
    for epoch in 0..cfg.epochs {
        let t_epoch_start = comm.clock();
        let bytes_start = comm.stats().bytes_sent;
        let mut comm_time = 0.0f64;
        // Per-epoch reshuffle (deterministic per rank+epoch).
        for i in (1..order.len()).rev() {
            let j = rng.next_below((i + 1) as u64) as usize;
            order.swap(i, j);
        }
        let nbatches = (shard.len() / cfg.batch_per_node).max(1);
        for b in 0..nbatches {
            let lo = b * cfg.batch_per_node;
            let hi = (lo + cfg.batch_per_node).min(shard.len());
            let batch: Vec<&SparseSample> = order[lo..hi].iter().map(|&i| &shard[i]).collect();
            let (grad, feature_ops) = sparse_batch_gradient(&w, &batch, cfg.loss, cfg.l2);
            comm.compute(feature_ops);
            let t0 = comm.clock();
            let total = comm
                .allreduce(&grad)
                .algorithm(cfg.algorithm)
                .config(cfg.allreduce.clone())
                .launch()
                .and_then(|handle| handle.wait())
                .expect("allreduce failed");
            comm_time += comm.clock() - t0;
            // Apply: w ← w − η · mean gradient.
            let scale = cfg.lr.at(step) / (p as f64 * batch.len().max(1) as f64) as f32;
            let mut applied = 0usize;
            for (i, g) in total.iter_nonzero() {
                w[i as usize] -= scale * g;
                applied += 1;
            }
            comm.compute(applied);
            step += 1;
        }
        stats.push(EpochStats {
            epoch,
            loss: mean_loss(&w, shard, cfg.loss),
            accuracy: accuracy(&w, shard),
            total_time: comm.clock() - t_epoch_start,
            comm_time,
            bytes_sent: comm.stats().bytes_sent - bytes_start,
        });
    }
    (w, stats)
}

/// Runs distributed SGD over `p` ranks on an in-process cluster with the
/// given network cost model.
pub fn train_distributed(
    dataset: &SparseDataset,
    p: usize,
    cost: CostModel,
    cfg: &SgdConfig,
) -> TrainResult {
    let results = run_communicators(p, cost, |comm| {
        let shard = dataset.shard(p, comm.rank());
        sgd_rank_program(comm, dataset.dim, shard, cfg)
    });
    merge_rank_results(results)
}

/// Merges per-rank `(weights, stats)` into a [`TrainResult`]: rank-0
/// weights, per-epoch max total time / max comm time, mean loss/accuracy.
pub fn merge_rank_results(results: Vec<(Vec<f32>, Vec<EpochStats>)>) -> TrainResult {
    let p = results.len();
    let nepochs = results[0].1.len();
    let mut epochs = Vec::with_capacity(nepochs);
    for e in 0..nepochs {
        let total_time = results
            .iter()
            .map(|(_, s)| s[e].total_time)
            .fold(0.0f64, f64::max);
        let comm_time = results
            .iter()
            .map(|(_, s)| s[e].comm_time)
            .fold(0.0f64, f64::max);
        let loss = results.iter().map(|(_, s)| s[e].loss).sum::<f64>() / p as f64;
        let acc = results.iter().map(|(_, s)| s[e].accuracy).sum::<f64>() / p as f64;
        let bytes = results
            .iter()
            .map(|(_, s)| s[e].bytes_sent)
            .max()
            .unwrap_or(0);
        epochs.push(EpochStats {
            epoch: e,
            loss,
            accuracy: acc,
            total_time,
            comm_time,
            bytes_sent: bytes,
        });
    }
    TrainResult {
        weights: results.into_iter().next().expect("p >= 1").0,
        epochs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{generate_sparse, SparseGenConfig};

    fn small_dataset() -> SparseDataset {
        generate_sparse(&SparseGenConfig {
            dim: 5_000,
            samples: 512,
            nnz_per_sample: 40,
            popularity_exponent: 1.15,
            noise: 0.0,
            seed: 21,
        })
    }

    #[test]
    fn sgd_converges_on_separable_data() {
        let ds = small_dataset();
        let cfg = SgdConfig {
            epochs: 6,
            ..Default::default()
        };
        let result = train_distributed(&ds, 4, CostModel::zero(), &cfg);
        let last = result.epochs.last().unwrap();
        let first = &result.epochs[0];
        assert!(
            last.loss < first.loss,
            "loss should fall: {} -> {}",
            first.loss,
            last.loss
        );
        assert!(last.accuracy > 0.8, "accuracy {}", last.accuracy);
    }

    #[test]
    fn sparse_and_dense_allreduce_agree() {
        // Lossless sparsity: identical updates, identical final weights
        // (up to fp ordering).
        let ds = small_dataset();
        let mk = |algo| SgdConfig {
            epochs: 2,
            algorithm: algo,
            ..Default::default()
        };
        let sparse = train_distributed(&ds, 4, CostModel::zero(), &mk(Algorithm::SsarRecDbl));
        let dense = train_distributed(&ds, 4, CostModel::zero(), &mk(Algorithm::DenseRabenseifner));
        for (a, b) in sparse.weights.iter().zip(dense.weights.iter()) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn sparse_comm_is_cheaper_than_dense() {
        // A genuinely sparse regime: gradients touch ≤ 320 of 50k features.
        let ds = generate_sparse(&SparseGenConfig {
            dim: 50_000,
            samples: 256,
            nnz_per_sample: 20,
            popularity_exponent: 1.15,
            noise: 0.0,
            seed: 23,
        });
        let cost = CostModel::gige();
        let sparse = train_distributed(
            &ds,
            4,
            cost,
            &SgdConfig {
                epochs: 1,
                batch_per_node: 16,
                algorithm: Algorithm::Auto,
                ..Default::default()
            },
        );
        let dense = train_distributed(
            &ds,
            4,
            cost,
            &SgdConfig {
                epochs: 1,
                batch_per_node: 16,
                algorithm: Algorithm::DenseRabenseifner,
                ..Default::default()
            },
        );
        assert!(
            sparse.epochs[0].comm_time < dense.epochs[0].comm_time,
            "sparse {} vs dense {}",
            sparse.epochs[0].comm_time,
            dense.epochs[0].comm_time
        );
        assert!(sparse.epochs[0].bytes_sent < dense.epochs[0].bytes_sent);
    }

    #[test]
    fn adaptive_selection_runs() {
        let ds = small_dataset();
        let cfg = SgdConfig {
            epochs: 1,
            algorithm: Algorithm::Auto,
            ..Default::default()
        };
        let result = train_distributed(&ds, 4, CostModel::aries(), &cfg);
        assert_eq!(result.epochs.len(), 1);
        assert!(result.epochs[0].loss.is_finite());
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let ds = small_dataset();
        let mut w = vec![0.0f32; ds.dim];
        let mut rng = XorShift64::new(3);
        for v in w.iter_mut().take(2000) {
            *v = rng.next_gaussian() as f32 * 0.01;
        }
        let batch: Vec<&SparseSample> = ds.samples[..8].iter().collect();
        let (grad, _ops) = sparse_batch_gradient(&w, &batch, LinearLoss::Logistic, 0.0);
        // Check ∂L/∂w_j for a few touched coordinates against finite diff
        // of total batch loss.
        let batch_loss = |w: &[f32]| -> f64 {
            batch
                .iter()
                .map(|s| {
                    LinearLoss::Logistic.loss(dot_sparse(w, &s.features), signed_label(s.label))
                        as f64
                })
                .sum()
        };
        let mut checked = 0;
        for (j, g) in grad.iter_nonzero().take(5) {
            let eps = 1e-2f32;
            let mut wp = w.clone();
            wp[j as usize] += eps;
            let mut wm = w.clone();
            wm[j as usize] -= eps;
            let num = (batch_loss(&wp) - batch_loss(&wm)) / (2.0 * eps as f64);
            assert!((num - g as f64).abs() < 2e-2, "coord {j}: fd {num} vs {g}");
            checked += 1;
        }
        assert!(checked > 0);
    }
}
