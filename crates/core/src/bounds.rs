//! Analytic runtime bounds from §5.3 and Lemmas 5.1 / 5.2.
//!
//! Every bound is expressed in the α–β model of [`CostModel`]: α per
//! message, β per *byte*, so the paper's `βd` per dense word becomes
//! `β·isize` and its `βs` per sparse pair becomes β times what a pair
//! weighs on the wire. The paper fixes that at `c + isize` with a 4-byte
//! index; the wire format gap-codes the index slab, so a pair weighs
//! `isize` plus a varint whose expected length falls with the density of
//! the stream it travels in ([`Workload::pair_bytes`], one byte at every
//! density where bandwidth matters). Each term is priced at the density
//! its pairs travel at: a rank's input at `k/N`, reduced data at `K/N`.
//! These formulas power the adaptive algorithm selector and the
//! `tests/paper_claims.rs` check that measured virtual times fall
//! inside their analytic envelopes.

use sparcml_net::CostModel;
use sparcml_stream::expected_entry_bytes;

/// Inclusive lower/upper envelope for an algorithm's runtime.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Envelope {
    /// Best-case time (full support overlap, `K = k`).
    pub lower: f64,
    /// Worst-case time (disjoint supports, `K = P·k`).
    pub upper: f64,
}

/// Workload parameters for the bound formulas.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Number of ranks `P`.
    pub p: usize,
    /// Problem dimension `N`.
    pub n: usize,
    /// Per-rank non-zero count `k`.
    pub k: usize,
    /// Bytes per value (`isize`): 4 for f32, 8 for f64.
    pub value_bytes: usize,
}

impl Workload {
    /// Expected wire bytes of one sparse index–value pair (the paper's
    /// `βs` unit) travelling in a stream of `entries` non-zeros: the value
    /// plus the gap varint at density `entries / N`
    /// ([`expected_entry_bytes`], the wire format's own figure). An empty
    /// dimension prices like a full one: no pair travels either way.
    #[inline]
    pub fn pair_bytes(&self, entries: f64) -> f64 {
        expected_entry_bytes(self.value_bytes, entries / self.n.max(1) as f64)
    }

    /// Bytes of one dense value (the paper's `βd` unit).
    #[inline]
    pub fn word_bytes(&self) -> f64 {
        self.value_bytes as f64
    }

    fn log2p(&self) -> f64 {
        (self.p as f64).log2().ceil().max(0.0)
    }
}

/// Latency term `L1(P) = log2(P)·α` of the recursive-doubling family.
pub fn l1(w: &Workload, c: &CostModel) -> f64 {
    w.log2p() * c.alpha
}

/// Latency term `L2(P) = (P−1)·α + L1(P)` of the split family.
pub fn l2(w: &Workload, c: &CostModel) -> f64 {
    (w.p as f64 - 1.0) * c.alpha + l1(w, c)
}

/// `SSAR_Recursive_double`:
/// `L1 + log2(P)·k·βs ≤ T ≤ L1 + (P−1)·k·βs` (§5.3.1). Every frame is a
/// partial sum at least as dense as an input, so the input density prices
/// both ends: exactly under full overlap, from above when supports are
/// disjoint and the later rounds travel denser.
pub fn ssar_rec_dbl(w: &Workload, c: &CostModel) -> Envelope {
    let k = w.k as f64;
    let bs = c.beta * w.pair_bytes(k);
    Envelope {
        lower: l1(w, c) + w.log2p() * k * bs,
        upper: l1(w, c) + (w.p as f64 - 1.0) * k * bs,
    }
}

/// `SSAR_Split_allgather`:
/// `L2 + 2·(P−1)/P·k·βs ≤ T ≤ L2 + P·k·βs` (§5.3.2). The split phase
/// moves input pairs, the allgather reduced ones: `K = k` of them per
/// rank-set under full overlap, `(P−1)·k` at density `P·k/N` when
/// supports are disjoint.
pub fn ssar_split_ag(w: &Workload, c: &CostModel) -> Envelope {
    let (p, k) = (w.p as f64, w.k as f64);
    let bs_input = c.beta * w.pair_bytes(k);
    let bs_union = c.beta * w.pair_bytes((p * k).min(w.n as f64));
    Envelope {
        lower: l2(w, c) + 2.0 * (p - 1.0) / p * k * bs_input,
        upper: l2(w, c) + k * bs_input + (p - 1.0) * k * bs_union,
    }
}

/// `DSAR_Split_allgather`:
/// `L2 + (P−1)/P·N·βd ≤ T ≤ L2 + k·βs + (P−1)/P·N·βd` (§5.3.3).
pub fn dsar_split_ag(w: &Workload, c: &CostModel) -> Envelope {
    let (p, n, k) = (w.p as f64, w.n as f64, w.k as f64);
    let bs = c.beta * w.pair_bytes(k);
    let bd = c.beta * w.word_bytes();
    Envelope {
        lower: l2(w, c) + (p - 1.0) / p * n * bd,
        upper: l2(w, c) + k * bs + (p - 1.0) / p * n * bd,
    }
}

/// Rabenseifner: `T = 2·log2(P)·α + 2·(P−1)/P·N·βd` (§5.3.2).
pub fn dense_rabenseifner(w: &Workload, c: &CostModel) -> Envelope {
    let (p, n) = (w.p as f64, w.n as f64);
    let t = 2.0 * w.log2p() * c.alpha + 2.0 * (p - 1.0) / p * n * c.beta * w.word_bytes();
    Envelope { lower: t, upper: t }
}

/// Lemma 5.1: lower bounds on *any* sparse allreduce —
/// `T ≥ log2(P)·α + (P−1)·k·βd` when `K = P·k` (no overlap) and
/// `T ≥ log2(P)·α + 2·(P−1)/P·k·βd` when `K = k` (full overlap).
pub fn lemma_5_1(w: &Workload, c: &CostModel) -> (f64, f64) {
    let bd = c.beta * w.word_bytes();
    let (p, k) = (w.p as f64, w.k as f64);
    let no_overlap = l1(w, c) + (p - 1.0) * k * bd;
    let full_overlap = l1(w, c) + 2.0 * (p - 1.0) / p * k * bd;
    (no_overlap, full_overlap)
}

/// Lemma 5.2: any algorithm solving DSAR needs at least
/// `log2(P)·α + δ·βd`, i.e. a `1/(2κ)` fraction of the bandwidth-optimal
/// dense allreduce, with `κ = δ/N`.
pub fn lemma_5_2(w: &Workload, c: &CostModel, delta: usize) -> f64 {
    l1(w, c) + delta as f64 * c.beta * w.word_bytes()
}

/// Maximum speedup achievable by sparsity alone when the result is dense
/// (§5.3.3 discussion): the DSAR bandwidth floor is `1/(2κ)` of the dense
/// optimum, so the speedup is capped at `2/κ` with `κ = δ/N` (the paper's
/// worked example: κ = 0.5 → max speedup 4×).
pub fn max_sparse_speedup(delta: usize, n: usize) -> f64 {
    2.0 * n as f64 / delta as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w() -> Workload {
        Workload {
            p: 16,
            n: 1 << 20,
            k: 1 << 10,
            value_bytes: 4,
        }
    }

    fn c() -> CostModel {
        CostModel {
            alpha: 1e-6,
            beta: 1e-9,
            gamma: 0.0,
            isend_alpha_fraction: 0.1,
        }
    }

    #[test]
    fn envelopes_are_ordered() {
        for env in [
            ssar_rec_dbl(&w(), &c()),
            ssar_split_ag(&w(), &c()),
            dsar_split_ag(&w(), &c()),
        ] {
            assert!(env.lower <= env.upper, "{env:?}");
            assert!(env.lower > 0.0);
        }
    }

    #[test]
    fn latency_terms() {
        assert!((l1(&w(), &c()) - 4e-6).abs() < 1e-12);
        assert!((l2(&w(), &c()) - 19e-6).abs() < 1e-12);
    }

    #[test]
    fn rec_dbl_wins_at_tiny_k() {
        let tiny = Workload { k: 8, ..w() };
        let rd = ssar_rec_dbl(&tiny, &c());
        let sp = ssar_split_ag(&tiny, &c());
        // With almost no data, the (P−1)α split latency dominates.
        assert!(rd.upper < sp.lower);
    }

    #[test]
    fn dsar_beats_dense_baselines_but_not_by_more_than_2_over_kappa() {
        let dense = dense_rabenseifner(&w(), &c()).lower;
        let sparse_floor = lemma_5_2(&w(), &c(), w().n / 2);
        let speedup = dense / sparse_floor;
        // κ = 1/2 → max speedup 4× over the bandwidth-optimal dense, but
        // at least some speedup must exist.
        assert!(
            speedup <= max_sparse_speedup(w().n / 2, w().n) + 1e-9,
            "speedup {speedup}"
        );
        assert!(speedup > 1.0);
    }

    #[test]
    fn lemma_5_1_ordering() {
        let (no_overlap, full_overlap) = lemma_5_1(&w(), &c());
        assert!(no_overlap > full_overlap);
    }
}
