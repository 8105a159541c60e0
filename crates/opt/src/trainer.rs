//! Distributed neural-network training: the SparCML Quantized Top-k SGD of
//! Algorithm 1, plus the full-precision dense baseline it is compared
//! against in Figs. 4, 5 and 6.
//!
//! Every rank keeps a model replica (identical initialization), computes a
//! local mini-batch gradient, compresses it (none / Top-k with error
//! feedback / Top-k + QSGD), allreduces the compressed streams with a
//! SparCML collective, and applies the identical global update — so
//! replicas stay bit-identical across ranks.

use sparcml_core::{run_communicators, Algorithm, AllreduceConfig, Communicator, Transport};
use sparcml_engine::{CommunicatorEngineExt, EngineConfig};
use sparcml_net::CostModel;
use sparcml_quant::QsgdConfig;
use sparcml_stream::{fuse_streams, split_fused, FusedLayout, SparseStream, XorShift64};

use crate::data::{DenseDataset, SequenceDataset};
use crate::nn::{FlatModel, LstmClassifier, Mlp};
use crate::schedule::LrSchedule;
use crate::topk::{ErrorFeedback, TopKConfig};

/// Gradient compression mode (the comparison axis of Fig. 4/5).
#[derive(Debug, Clone)]
pub enum Compression {
    /// Full-precision dense gradients (the 32-bit baseline).
    Dense,
    /// Bucket-wise Top-k with error feedback (Top-k SGD [2, 18]).
    TopK(TopKConfig),
    /// Top-k + stochastic quantization of the dense reduction stage
    /// (SparCML Algorithm 1, the paper's novel combination).
    TopKQuant(TopKConfig, QsgdConfig),
}

impl Compression {
    /// Default collective for the mode: dense → Rabenseifner; Top-k →
    /// sparse recursive doubling; quantized → the split schedule, whose
    /// gather `.quantized()` makes low-precision and dense (§6).
    pub fn default_algorithm(&self) -> Algorithm {
        match self {
            Compression::Dense => Algorithm::DenseRabenseifner,
            Compression::TopK(_) => Algorithm::SsarRecDbl,
            Compression::TopKQuant(..) => Algorithm::SsarSplitAllgather,
        }
    }
}

/// How each step's gradient reaches the collective layer.
#[derive(Debug, Clone, Default)]
pub enum CommMode {
    /// One flattened allreduce over the whole model per step.
    #[default]
    Flat,
    /// Per-layer submission through a background progress engine
    /// ([`sparcml_engine::Engine`]): the compressed gradient is split at
    /// the model's [`crate::nn::FlatModel::layer_ranges`] boundaries and
    /// the layers go out as one fused, priority-scheduled group.
    /// Boxed: the config dwarfs the data-less `Flat` variant.
    Engine(Box<EngineConfig>),
}

/// Distributed NN training configuration.
#[derive(Debug, Clone)]
pub struct NnTrainConfig {
    /// Learning-rate schedule.
    pub lr: LrSchedule,
    /// Number of epochs.
    pub epochs: usize,
    /// Mini-batch size per node.
    pub batch_per_node: usize,
    /// Gradient compression.
    pub compression: Compression,
    /// Collective override (`None` = mode default).
    pub algorithm: Option<Algorithm>,
    /// Gradient transport path (flattened allreduce vs progress engine).
    pub comm: CommMode,
    /// Initialization / shuffling seed (same on all ranks for replicas).
    pub seed: u64,
    /// Approximate flops per parameter per sample charged as virtual
    /// compute (forward + backward ≈ 6 in a dense net).
    pub flops_per_param_per_sample: f64,
}

impl Default for NnTrainConfig {
    fn default() -> Self {
        NnTrainConfig {
            lr: LrSchedule::Const(0.05),
            epochs: 3,
            batch_per_node: 16,
            compression: Compression::Dense,
            algorithm: None,
            comm: CommMode::default(),
            seed: 42,
            flops_per_param_per_sample: 6.0,
        }
    }
}

/// Per-epoch training statistics.
#[derive(Debug, Clone)]
pub struct NnEpochStats {
    /// Epoch index.
    pub epoch: usize,
    /// Mean training loss over the epoch (running, as frameworks report).
    pub loss: f64,
    /// Training top-1 accuracy over the epoch.
    pub accuracy: f64,
    /// Training top-5 accuracy over the epoch (1.0 for <5-class tasks).
    pub top5_accuracy: f64,
    /// Virtual seconds for the epoch.
    pub total_time: f64,
    /// Virtual seconds inside collectives.
    pub comm_time: f64,
    /// Bytes sent by the slowest rank.
    pub bytes_sent: u64,
}

/// Output of a batch-gradient evaluation, model-agnostic.
pub struct EvalOut {
    /// Summed loss.
    pub loss: f64,
    /// Top-1 correct count.
    pub correct: usize,
    /// Top-5 correct count.
    pub correct_top5: usize,
    /// Flat summed gradient.
    pub grad: Vec<f32>,
}

/// The generic per-rank training loop. `eval` computes the local batch
/// gradient for sample indices of this rank's shard.
#[allow(clippy::too_many_arguments)]
pub fn train_rank<T, M, F>(
    comm: &mut Communicator<T>,
    model: &mut M,
    shard_len: usize,
    cfg: &NnTrainConfig,
    mut eval: F,
) -> Vec<NnEpochStats>
where
    T: Transport + Send + 'static,
    M: FlatModel,
    F: FnMut(&M, &[usize]) -> EvalOut,
{
    let p = comm.size();
    let dim = model.param_count();
    // Per-layer dimensions for the engine path; ranges are consecutive
    // and cover the flat vector, so the dims double as a fusion layout.
    let layer_dims: Vec<usize> = model.layer_ranges().iter().map(|r| r.len()).collect();
    debug_assert_eq!(layer_dims.iter().sum::<usize>(), dim);
    let algo = cfg
        .algorithm
        .unwrap_or_else(|| cfg.compression.default_algorithm());
    let ar_cfg = match &cfg.compression {
        Compression::TopKQuant(_, q) => AllreduceConfig {
            quant: Some(*q),
            ..Default::default()
        },
        _ => AllreduceConfig::default(),
    };
    let mut ef = match &cfg.compression {
        Compression::TopK(t) | Compression::TopKQuant(t, _) => Some(ErrorFeedback::new(dim, *t)),
        Compression::Dense => None,
    };
    let mut rng = XorShift64::new(cfg.seed ^ (comm.rank() as u64).wrapping_mul(0x9E37));
    let mut order: Vec<usize> = (0..shard_len).collect();
    let mut stats = Vec::with_capacity(cfg.epochs);
    let mut step = 0usize;

    for epoch in 0..cfg.epochs {
        let t_start = comm.clock();
        let bytes_start = comm.stats().bytes_sent;
        let mut comm_time = 0.0f64;
        let (mut ep_loss, mut ep_correct, mut ep_top5, mut ep_samples) =
            (0.0f64, 0usize, 0usize, 0usize);
        for i in (1..order.len()).rev() {
            let j = rng.next_below((i + 1) as u64) as usize;
            order.swap(i, j);
        }
        let nbatches = (shard_len / cfg.batch_per_node).max(1);
        for b in 0..nbatches {
            let lo = b * cfg.batch_per_node;
            let hi = (lo + cfg.batch_per_node).min(shard_len);
            let batch = &order[lo..hi];
            let out = eval(model, batch);
            comm.charge_seconds(
                cfg.flops_per_param_per_sample
                    * dim as f64
                    * batch.len() as f64
                    * comm.cost().gamma,
            );
            ep_loss += out.loss;
            ep_correct += out.correct;
            ep_top5 += out.correct_top5;
            ep_samples += batch.len();

            // Compress.
            let to_send: SparseStream<f32> = match (&cfg.compression, ef.as_mut()) {
                (Compression::Dense, _) => SparseStream::from_dense(out.grad),
                (_, Some(ef)) => {
                    comm.compute(dim); // selection pass
                    ef.compress(&out.grad)
                }
                _ => unreachable!("error feedback initialized for sparse modes"),
            };

            // Reduce.
            let t0 = comm.clock();
            let total = match &cfg.comm {
                CommMode::Flat => comm
                    .allreduce(&to_send)
                    .algorithm(algo)
                    .config(ar_cfg)
                    .launch()
                    .and_then(|handle| handle.wait())
                    .expect("allreduce failed"),
                CommMode::Engine(engine_cfg) => {
                    engine_step(comm, &to_send, &layer_dims, engine_cfg, algo, ar_cfg)
                }
            };
            comm_time += comm.clock() - t0;

            // Apply the identical global update on every replica.
            let scale = -(cfg.lr.at(step)) / (p * cfg.batch_per_node) as f32;
            model.apply_sparse_update(&total, scale);
            comm.compute(total.stored_len());
            step += 1;
        }
        stats.push(NnEpochStats {
            epoch,
            loss: ep_loss / ep_samples.max(1) as f64,
            accuracy: ep_correct as f64 / ep_samples.max(1) as f64,
            top5_accuracy: ep_top5 as f64 / ep_samples.max(1) as f64,
            total_time: comm.clock() - t_start,
            comm_time,
            bytes_sent: comm.stats().bytes_sent - bytes_start,
        });
    }
    stats
}

/// One engine-backed gradient exchange: the step's compressed gradient is
/// split at the layer boundaries, the layers are submitted as one fused
/// group to a progress engine owning the transport, and the reduced
/// layers are fused back into the flat space for the update.
///
/// The engine is deliberately started and joined *per step* (not per
/// training run): the transport — with its advanced clock and traffic
/// counters — returns to the communicator before the epoch stats are
/// read, so `comm.clock()`/`comm.stats()` stay exact on every backend,
/// including the virtual-time one. The cost is one thread spawn and one
/// extra agreement round per step, which is noise next to the batch
/// gradient computation; a long-lived engine (amortizing both) is the
/// right shape once stats are read from `Engine::stats` instead.
fn engine_step<T: Transport + Send + 'static>(
    comm: &mut Communicator<T>,
    to_send: &SparseStream<f32>,
    layer_dims: &[usize],
    engine_cfg: &EngineConfig,
    algo: Algorithm,
    ar_cfg: AllreduceConfig,
) -> SparseStream<f32> {
    let layout = FusedLayout::from_dims(layer_dims).expect("layer dims fit the index space");
    let parts = split_fused(to_send, &layout).expect("gradient splits at layer boundaries");
    let mut engine_cfg = engine_cfg.clone();
    engine_cfg.algorithm = algo;
    engine_cfg.allreduce = ar_cfg;
    let mut engine = comm.engine::<f32>(engine_cfg);
    let refs: Vec<&SparseStream<f32>> = parts.iter().collect();
    let tickets = engine.submit_allreduce_group(&refs);
    let reduced: Vec<SparseStream<f32>> = tickets
        .into_iter()
        .map(|t| t.wait().expect("engine allreduce failed"))
        .collect();
    engine
        .finish_into(comm)
        .expect("engine returns the transport");
    let refs: Vec<&SparseStream<f32>> = reduced.iter().collect();
    fuse_streams(&refs)
        .expect("reduced layers refuse into the flat space")
        .0
}

fn merge_epoch_stats(per_rank: Vec<Vec<NnEpochStats>>) -> Vec<NnEpochStats> {
    let p = per_rank.len();
    let nepochs = per_rank[0].len();
    (0..nepochs)
        .map(|e| NnEpochStats {
            epoch: e,
            loss: per_rank.iter().map(|s| s[e].loss).sum::<f64>() / p as f64,
            accuracy: per_rank.iter().map(|s| s[e].accuracy).sum::<f64>() / p as f64,
            top5_accuracy: per_rank.iter().map(|s| s[e].top5_accuracy).sum::<f64>() / p as f64,
            total_time: per_rank.iter().map(|s| s[e].total_time).fold(0.0, f64::max),
            comm_time: per_rank.iter().map(|s| s[e].comm_time).fold(0.0, f64::max),
            bytes_sent: per_rank.iter().map(|s| s[e].bytes_sent).max().unwrap_or(0),
        })
        .collect()
}

/// Trains an MLP data-parallel over `p` ranks. Returns the final model
/// (rank 0's replica — identical on all ranks) and merged epoch stats.
pub fn train_mlp_distributed(
    dataset: &DenseDataset,
    dims: &[usize],
    p: usize,
    cost: CostModel,
    cfg: &NnTrainConfig,
) -> (Mlp, Vec<NnEpochStats>) {
    let results = run_communicators(p, cost, |comm| {
        let mut model = Mlp::new(dims, cfg.seed);
        let (lo, hi) = dataset.shard_range(p, comm.rank());
        let stats = train_rank(comm, &mut model, hi - lo, cfg, |m, batch| {
            let xs: Vec<&[f32]> = batch
                .iter()
                .map(|&i| dataset.samples[lo + i].as_slice())
                .collect();
            let ys: Vec<u32> = batch.iter().map(|&i| dataset.labels[lo + i]).collect();
            let bg = m.batch_gradient(&xs, &ys);
            EvalOut {
                loss: bg.loss,
                correct: bg.correct,
                correct_top5: bg.correct_top5,
                grad: bg.grad,
            }
        });
        (model, stats)
    });
    let mut it = results.into_iter();
    let (model, first) = it.next().expect("p >= 1");
    let mut all = vec![first];
    all.extend(it.map(|(_, s)| s));
    (model, merge_epoch_stats(all))
}

/// Trains an LSTM sequence classifier data-parallel over `p` ranks.
pub fn train_lstm_distributed(
    dataset: &SequenceDataset,
    embed: usize,
    hidden: usize,
    p: usize,
    cost: CostModel,
    cfg: &NnTrainConfig,
) -> (LstmClassifier, Vec<NnEpochStats>) {
    let results = run_communicators(p, cost, |comm| {
        let mut model =
            LstmClassifier::new(dataset.vocab, embed, hidden, dataset.classes, cfg.seed);
        let range = sparcml_stream::partition_range(dataset.sequences.len(), p, comm.rank());
        let (lo, hi) = (range.lo as usize, range.hi as usize);
        let stats = train_rank(comm, &mut model, hi - lo, cfg, |m, batch| {
            let xs: Vec<&[u32]> = batch
                .iter()
                .map(|&i| dataset.sequences[lo + i].as_slice())
                .collect();
            let ys: Vec<u32> = batch.iter().map(|&i| dataset.labels[lo + i]).collect();
            let bg = m.batch_gradient(&xs, &ys);
            EvalOut {
                loss: bg.loss,
                correct: bg.correct,
                correct_top5: bg.correct,
                grad: bg.grad,
            }
        });
        (model, stats)
    });
    let mut it = results.into_iter();
    let (model, first) = it.next().expect("p >= 1");
    let mut all = vec![first];
    all.extend(it.map(|(_, s)| s));
    (model, merge_epoch_stats(all))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::generate_sequences;

    fn image_data() -> DenseDataset {
        crate::data::generate_dense_images_noisy(32, 5, 200, 0.5, 3)
    }

    #[test]
    fn dense_training_converges() {
        let ds = image_data();
        let cfg = NnTrainConfig {
            epochs: 8,
            lr: LrSchedule::Const(0.2),
            ..Default::default()
        };
        let (_, stats) = train_mlp_distributed(&ds, &[32, 32, 5], 2, CostModel::zero(), &cfg);
        assert!(
            stats.last().unwrap().accuracy > 0.7,
            "acc {}",
            stats.last().unwrap().accuracy
        );
        assert!(stats.last().unwrap().loss < stats[0].loss);
    }

    #[test]
    fn topk_training_matches_dense_accuracy() {
        // The headline claim of Fig. 4a: Top-k + EF recovers dense-level
        // training accuracy.
        let ds = image_data();
        let dense_cfg = NnTrainConfig {
            epochs: 8,
            lr: LrSchedule::Const(0.2),
            ..Default::default()
        };
        let topk_cfg = NnTrainConfig {
            epochs: 8,
            lr: LrSchedule::Const(0.2),
            compression: Compression::TopK(TopKConfig {
                k_per_bucket: 16,
                bucket_size: 512,
            }),
            ..Default::default()
        };
        let (_, dense) = train_mlp_distributed(&ds, &[32, 32, 5], 2, CostModel::zero(), &dense_cfg);
        let (_, topk) = train_mlp_distributed(&ds, &[32, 32, 5], 2, CostModel::zero(), &topk_cfg);
        let da = dense.last().unwrap().accuracy;
        let ta = topk.last().unwrap().accuracy;
        assert!(ta > da - 0.12, "topk {ta} vs dense {da}");
    }

    #[test]
    fn quantized_topk_trains() {
        let ds = image_data();
        let cfg = NnTrainConfig {
            epochs: 3,
            compression: Compression::TopKQuant(
                TopKConfig {
                    k_per_bucket: 16,
                    bucket_size: 512,
                },
                QsgdConfig::with_bits(4),
            ),
            ..Default::default()
        };
        let (_, stats) = train_mlp_distributed(&ds, &[32, 32, 5], 2, CostModel::zero(), &cfg);
        assert!(
            stats.last().unwrap().loss < stats[0].loss,
            "loss should fall"
        );
    }

    #[test]
    fn replicas_stay_identical() {
        let ds = image_data();
        let cfg = NnTrainConfig {
            epochs: 1,
            compression: Compression::TopK(TopKConfig {
                k_per_bucket: 8,
                bucket_size: 64,
            }),
            ..Default::default()
        };
        let results = run_communicators(4, CostModel::zero(), |comm| {
            let mut model = Mlp::new(&[32, 16, 5], cfg.seed);
            let (lo, hi) = ds.shard_range(4, comm.rank());
            train_rank(comm, &mut model, hi - lo, &cfg, |m, batch| {
                let xs: Vec<&[f32]> = batch
                    .iter()
                    .map(|&i| ds.samples[lo + i].as_slice())
                    .collect();
                let ys: Vec<u32> = batch.iter().map(|&i| ds.labels[lo + i]).collect();
                let bg = m.batch_gradient(&xs, &ys);
                EvalOut {
                    loss: bg.loss,
                    correct: bg.correct,
                    correct_top5: bg.correct_top5,
                    grad: bg.grad,
                }
            });
            model.params()
        });
        for r in 1..4 {
            assert_eq!(results[r], results[0], "replica divergence at rank {r}");
        }
    }

    #[test]
    fn lstm_distributed_training_converges() {
        let ds = generate_sequences(200, 4, 96, 8, 7);
        let cfg = NnTrainConfig {
            epochs: 12,
            lr: LrSchedule::Const(1.0),
            batch_per_node: 8,
            compression: Compression::TopK(TopKConfig {
                k_per_bucket: 64,
                bucket_size: 512,
            }),
            ..Default::default()
        };
        let (_, stats) = train_lstm_distributed(&ds, 8, 16, 2, CostModel::zero(), &cfg);
        assert!(
            stats.last().unwrap().accuracy > 0.5,
            "acc {}",
            stats.last().unwrap().accuracy
        );
    }

    #[test]
    fn engine_mode_matches_flat_mode_weights() {
        // The engine path fuses the per-layer gradients back into the
        // identical flat index space, so with a fixed schedule the final
        // replicas must match the flat path bit for bit.
        let ds = image_data();
        let mk = |comm| NnTrainConfig {
            epochs: 2,
            compression: Compression::TopK(TopKConfig {
                k_per_bucket: 16,
                bucket_size: 512,
            }),
            algorithm: Some(Algorithm::SsarRecDbl),
            comm,
            ..Default::default()
        };
        let (flat, _) =
            train_mlp_distributed(&ds, &[32, 16, 5], 2, CostModel::zero(), &mk(CommMode::Flat));
        let (engine, _) = train_mlp_distributed(
            &ds,
            &[32, 16, 5],
            2,
            CostModel::zero(),
            &mk(CommMode::Engine(Box::default())),
        );
        assert_eq!(flat.params(), engine.params());
    }

    #[test]
    fn engine_mode_replicas_stay_identical() {
        let ds = image_data();
        let cfg = NnTrainConfig {
            epochs: 1,
            compression: Compression::TopK(TopKConfig {
                k_per_bucket: 8,
                bucket_size: 64,
            }),
            comm: CommMode::Engine(Box::default()),
            ..Default::default()
        };
        let results = run_communicators(4, CostModel::zero(), |comm| {
            let mut model = Mlp::new(&[32, 16, 5], cfg.seed);
            let (lo, hi) = ds.shard_range(4, comm.rank());
            train_rank(comm, &mut model, hi - lo, &cfg, |m, batch| {
                let xs: Vec<&[f32]> = batch
                    .iter()
                    .map(|&i| ds.samples[lo + i].as_slice())
                    .collect();
                let ys: Vec<u32> = batch.iter().map(|&i| ds.labels[lo + i]).collect();
                let bg = m.batch_gradient(&xs, &ys);
                EvalOut {
                    loss: bg.loss,
                    correct: bg.correct,
                    correct_top5: bg.correct_top5,
                    grad: bg.grad,
                }
            });
            model.params()
        });
        for r in 1..4 {
            assert_eq!(results[r], results[0], "replica divergence at rank {r}");
        }
    }

    #[test]
    fn topk_sends_fewer_bytes_than_dense() {
        let ds = image_data();
        let mk = |compression| NnTrainConfig {
            epochs: 1,
            compression,
            ..Default::default()
        };
        let (_, dense) = train_mlp_distributed(
            &ds,
            &[32, 64, 5],
            2,
            CostModel::aries(),
            &mk(Compression::Dense),
        );
        let (_, topk) = train_mlp_distributed(
            &ds,
            &[32, 64, 5],
            2,
            CostModel::aries(),
            &mk(Compression::TopK(TopKConfig {
                k_per_bucket: 8,
                bucket_size: 512,
            })),
        );
        assert!(
            topk[0].bytes_sent * 4 < dense[0].bytes_sent,
            "topk {} vs dense {}",
            topk[0].bytes_sent,
            dense[0].bytes_sent
        );
    }
}
