//! # sparcml-opt
//!
//! MPI-OPT: the distributed optimization framework of the SparCML paper
//! (§7), rebuilt in Rust on top of the SparCML collectives, plus the
//! machine-learning drivers of §8: distributed SGD and coordinate descent
//! for sparse linear models, Top-k gradient sparsification with error
//! feedback (Algorithm 1/2) and a small neural-network library (MLP +
//! LSTM, the CNTK stand-in).
//!
//! ```
//! use sparcml_opt::data::{generate_sparse, SparseGenConfig};
//! use sparcml_opt::sgd::{train_distributed, SgdConfig};
//! use sparcml_net::CostModel;
//!
//! let cfg = SparseGenConfig { dim: 2_000, samples: 128, nnz_per_sample: 20,
//!     popularity_exponent: 1.2, noise: 0.0, seed: 1 };
//! let dataset = generate_sparse(&cfg);
//! let result = train_distributed(&dataset, 2, CostModel::aries(),
//!     &SgdConfig { epochs: 2, ..Default::default() });
//! assert!(result.epochs[1].loss <= result.epochs[0].loss + 0.05);
//! ```

#![warn(missing_docs)]

pub mod data;
pub mod loss;
pub mod nn;
pub mod scd;
pub mod schedule;
pub mod sgd;
pub mod topk;
pub mod trainer;

pub use schedule::LrSchedule;
pub use topk::{topk_bucketwise, ErrorFeedback, TopKConfig};
pub use trainer::{
    train_lstm_distributed, train_mlp_distributed, CommMode, Compression, NnEpochStats,
    NnTrainConfig,
};
