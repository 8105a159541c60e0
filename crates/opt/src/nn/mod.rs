//! Minimal neural-network library (the CNTK stand-in): MLP and LSTM with
//! hand-written, gradient-check-tested backpropagation.

pub mod lstm;
pub mod mlp;

pub use lstm::{LstmBatchGrad, LstmClassifier};
pub use mlp::{argmax, in_top_k, softmax_ce, BatchGrad, DenseLayer, Mlp};

use sparcml_stream::SparseStream;

/// A model whose parameters can be flattened into one vector — the
/// interface the distributed trainers operate on ("tensor
/// fusion": the paper merges gradients of adjoining layers, §9).
pub trait FlatModel: Clone + Send {
    /// Total number of parameters.
    fn param_count(&self) -> usize;
    /// Flat parameter vector.
    fn params(&self) -> Vec<f32>;
    /// Overwrites parameters from a flat vector.
    fn set_params(&mut self, flat: &[f32]);
    /// Applies `params += scale · delta` for the non-zeros of `delta`.
    fn apply_sparse_update(&mut self, delta: &SparseStream<f32>, scale: f32);
    /// Consecutive per-layer ranges of the flat parameter vector, in
    /// order, covering `[0, param_count)` exactly. This is what lets a
    /// trainer exchange gradients layer by layer (e.g. submitting each
    /// layer to a progress engine) instead of as one flattened vector.
    /// Defaults to a single range (whole model = one "layer").
    fn layer_ranges(&self) -> Vec<std::ops::Range<usize>> {
        std::iter::once(0..self.param_count()).collect()
    }
}

/// Turns a list of segment lengths into cumulative flat-vector ranges.
fn ranges_from_lens(lens: impl IntoIterator<Item = usize>) -> Vec<std::ops::Range<usize>> {
    let mut out = Vec::new();
    let mut acc = 0usize;
    for len in lens {
        out.push(acc..acc + len);
        acc += len;
    }
    out
}

impl FlatModel for Mlp {
    fn param_count(&self) -> usize {
        Mlp::param_count(self)
    }
    fn params(&self) -> Vec<f32> {
        Mlp::params(self)
    }
    fn set_params(&mut self, flat: &[f32]) {
        Mlp::set_params(self, flat)
    }
    fn apply_sparse_update(&mut self, delta: &SparseStream<f32>, scale: f32) {
        Mlp::apply_sparse_update(self, delta, scale)
    }
    fn layer_ranges(&self) -> Vec<std::ops::Range<usize>> {
        ranges_from_lens(self.layers.iter().map(|l| l.param_count()))
    }
}

impl FlatModel for LstmClassifier {
    fn param_count(&self) -> usize {
        LstmClassifier::param_count(self)
    }
    fn params(&self) -> Vec<f32> {
        LstmClassifier::params(self)
    }
    fn set_params(&mut self, flat: &[f32]) {
        LstmClassifier::set_params(self, flat)
    }
    fn apply_sparse_update(&mut self, delta: &SparseStream<f32>, scale: f32) {
        LstmClassifier::apply_sparse_update(self, delta, scale)
    }
    fn layer_ranges(&self) -> Vec<std::ops::Range<usize>> {
        // Flat layout `[e, w, b, v, vb]`: embedding, recurrent cell
        // (weights + bias), classifier head (weights + bias).
        ranges_from_lens([
            self.e.len(),
            self.w.len() + self.b.len(),
            self.v.len() + self.vb.len(),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_model_contract_mlp() {
        let mut m = Mlp::new(&[3, 4, 2], 1);
        let p = FlatModel::params(&m);
        assert_eq!(p.len(), FlatModel::param_count(&m));
        FlatModel::set_params(&mut m, &p);
        assert_eq!(FlatModel::params(&m), p);
    }

    #[test]
    fn flat_model_contract_lstm() {
        let mut m = LstmClassifier::new(10, 3, 4, 2, 1);
        let p = FlatModel::params(&m);
        assert_eq!(p.len(), FlatModel::param_count(&m));
        FlatModel::set_params(&mut m, &p);
        assert_eq!(FlatModel::params(&m), p);
    }
}
