//! End-to-end training integration tests across crates: MPI-OPT linear
//! models, Top-k/quantized NN training and SCD.

use sparcml::core::Algorithm;
use sparcml::net::CostModel;
use sparcml::opt::data::{
    generate_dense_images_noisy, generate_sequences, generate_sparse, SparseGenConfig,
};
use sparcml::opt::scd::{train_scd, ScdConfig, ScdExchange};
use sparcml::opt::sgd::{train_distributed, SgdConfig};
use sparcml::opt::{
    train_lstm_distributed, train_mlp_distributed, Compression, LrSchedule, NnTrainConfig,
    TopKConfig,
};
use sparcml::quant::QsgdConfig;

fn url_like_small() -> sparcml::opt::data::SparseDataset {
    generate_sparse(&SparseGenConfig {
        dim: 20_000,
        samples: 512,
        nnz_per_sample: 30,
        popularity_exponent: 1.15,
        noise: 0.02,
        seed: 77,
    })
}

#[test]
fn linear_sgd_same_result_for_every_lossless_algorithm() {
    let ds = url_like_small();
    let mut finals: Vec<Vec<f32>> = Vec::new();
    for algo in Algorithm::ALL {
        let cfg = SgdConfig {
            epochs: 2,
            batch_per_node: 32,
            algorithm: algo,
            ..Default::default()
        };
        finals.push(train_distributed(&ds, 4, CostModel::zero(), &cfg).weights);
    }
    for other in &finals[1..] {
        for (a, b) in finals[0].iter().zip(other.iter()) {
            assert!((a - b).abs() < 2e-3, "{a} vs {b}");
        }
    }
}

#[test]
fn linear_sgd_scales_across_node_counts() {
    let ds = url_like_small();
    for p in [1usize, 2, 5, 8] {
        let cfg = SgdConfig {
            epochs: 2,
            batch_per_node: 16,
            ..Default::default()
        };
        let result = train_distributed(&ds, p, CostModel::aries(), &cfg);
        assert!(
            result.epochs.last().unwrap().accuracy > 0.75,
            "P={p}: acc {}",
            result.epochs.last().unwrap().accuracy
        );
    }
}

#[test]
fn nn_quantized_topk_reaches_dense_level_accuracy() {
    // The paper's central ML claim (Fig. 4): Top-k + QSGD recovers the
    // dense baseline's training accuracy.
    let ds = generate_dense_images_noisy(64, 8, 384, 0.6, 13);
    let base = NnTrainConfig {
        epochs: 8,
        lr: LrSchedule::Const(0.2),
        batch_per_node: 12,
        ..Default::default()
    };
    let (_, dense) = train_mlp_distributed(&ds, &[64, 48, 8], 4, CostModel::zero(), &base);
    let quant_cfg = NnTrainConfig {
        compression: Compression::TopKQuant(
            TopKConfig {
                k_per_bucket: 16,
                bucket_size: 512,
            },
            QsgdConfig::with_bits(4),
        ),
        ..base
    };
    let (_, quant) = train_mlp_distributed(&ds, &[64, 48, 8], 4, CostModel::zero(), &quant_cfg);
    let (da, qa) = (
        dense.last().unwrap().accuracy,
        quant.last().unwrap().accuracy,
    );
    assert!(qa > da - 0.1, "quantized {qa} vs dense {da}");
}

#[test]
fn lstm_topk_training_learns_sequences() {
    let ds = generate_sequences(300, 4, 128, 8, 5);
    let cfg = NnTrainConfig {
        epochs: 10,
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
    assert!(stats.last().unwrap().loss < stats[0].loss);
}

#[test]
fn scd_sparse_allgather_converges_and_saves_bytes() {
    let ds = url_like_small();
    let cfg = ScdConfig {
        epochs: 2,
        iters_per_epoch: 25,
        exchange: ScdExchange::SparseAllgather,
        ..Default::default()
    };
    let (_, sparse_stats) = train_scd(&ds, 4, CostModel::gige(), &cfg);
    let dense_cfg = ScdConfig {
        exchange: ScdExchange::DenseAllgather,
        ..cfg
    };
    let (_, dense_stats) = train_scd(&ds, 4, CostModel::gige(), &dense_cfg);
    assert!(sparse_stats.last().unwrap().loss < 0.7);
    assert!(sparse_stats[0].bytes_sent < dense_stats[0].bytes_sent / 4);
}

#[test]
fn gige_amplifies_sparse_speedup_over_aries() {
    // §8.2: "the speedups are more significant on less performant cloud
    // networks".
    let ds = url_like_small();
    let speedup_on = |cost: CostModel| {
        let mk = |algo| SgdConfig {
            epochs: 1,
            batch_per_node: 16,
            algorithm: algo,
            ..Default::default()
        };
        let dense = train_distributed(&ds, 4, cost, &mk(Algorithm::DenseRabenseifner));
        let sparse = train_distributed(&ds, 4, cost, &mk(Algorithm::SsarRecDbl));
        dense.epochs[0].comm_time / sparse.epochs[0].comm_time
    };
    let aries = speedup_on(CostModel::aries());
    let gige = speedup_on(CostModel::gige());
    assert!(
        gige > aries,
        "GigE comm speedup {gige} should exceed Aries {aries}"
    );
}

#[test]
fn training_time_includes_comm_and_compute() {
    let ds = url_like_small();
    let cfg = SgdConfig {
        epochs: 1,
        batch_per_node: 32,
        ..Default::default()
    };
    let result = train_distributed(&ds, 4, CostModel::gige(), &cfg);
    let e = &result.epochs[0];
    assert!(e.comm_time > 0.0);
    assert!(e.total_time >= e.comm_time);
    assert!(e.bytes_sent > 0);
}
