//! Adaptive algorithm selection.
//!
//! "In practice, allreduce implementations switch between different
//! implementations depending on the message size and the number of
//! processes" (§5.3, citing Thakur & Gropp). SparCML adds the sparsity
//! dimension: the right choice depends on `P`, `N`, `k`, and the expected
//! reduced size `K`. The selector estimates `E[K]` under the uniform model
//! (Appendix B), prices every flat schedule by its analytic expected cost
//! — communication envelope plus the reduction work the virtual clock
//! charges; recursive doubling round by round along the clock's own
//! chains, each round's frames as the segments `op::segments` cuts them,
//! merged as they land, with its fold and unfold hops off powers of two;
//! Rabenseifner's with its fold and unfold; the two split schedules phase
//! by phase, their gather round by round with its assembly overlapping
//! the frames in flight — and takes the cheapest of the four. A sparse
//! pair is priced at what the wire format makes it weigh at the density
//! it travels at ([`Workload::pair_bytes`]: a rank's input at `k/N`,
//! reduced data at `E[K]/N`), not at a fixed `4 + isize`. The δ threshold
//! is not a gate in front of the sweep: just past it a sparse schedule can
//! still beat DSAR, and just before it DSAR can beat the dense baseline.

use sparcml_net::CostModel;
use sparcml_stream::{header_len, DensityPolicy, Scalar};

use crate::allreduce::Algorithm;
use crate::bounds::{self, Workload};
use crate::op::segments;
use crate::theory::expected_union_size;

/// Expected-cost estimate of one algorithm on one workload: the analytic
/// communication envelope interpolated by the expected fill-in, plus the
/// per-node local reduction work (γ) — which is what separates recursive
/// doubling (serialized merges of growing streams) from the split family
/// (reduction work distributed across ranks, each owner scattering its
/// share once into its window); the paper folds this trade-off into its
/// practical δ discussion (§5.1). The split family is priced as the clock
/// runs it: [`split_phase`], then [`pipelined_gather`], where every
/// assembled element still costs γ but overlaps the next frame's
/// transfer.
pub(crate) fn expected_cost<V: Scalar>(
    algo: Algorithm,
    w: &Workload,
    c: &CostModel,
    ek: f64,
) -> f64 {
    let k = w.k as f64;
    let (p, n) = (w.p as f64, w.n as f64);
    match algo {
        // Auto is a placeholder resolved before costing; pricing it at
        // infinity keeps it out of any candidate sweep by construction.
        Algorithm::Auto => f64::INFINITY,
        Algorithm::SsarRecDbl => rec_dbl::<V>(w, c, ek),
        Algorithm::SsarSplitAllgather => {
            // Each node scatters the ≈ k entries of its P incoming
            // sub-ranges into its window; its partition count goes to
            // every peer as an isent word; then E[K]/P-entry sparse blocks
            // are gathered, each placed for γ per entry. The own block's
            // placement is the window's drain, pending behind round 0: its
            // entries are counted there, once, and the bitmap words it
            // visits with the scatter.
            let entries = ek / p;
            let bytes = entries * w.pair_bytes(ek);
            split_phase(w, c, c.gamma * (k + window_words(w, ek)))
                + (p - 1.0) * c.isend_alpha_fraction * c.alpha
                + pipelined_gather(w.p, c, bytes, c.gamma * entries, c.gamma * entries)
        }
        Algorithm::DsarSplitAllgather => {
            // Scatter ≈ k pairs into the own window of the dense result,
            // then gather N/P-value dense blocks, each peer's placed for γ
            // per value; the own block is already in place.
            let values = n / p;
            let bytes = values * w.word_bytes();
            split_phase(w, c, c.gamma * k) + pipelined_gather(w.p, c, bytes, c.gamma * values, 0.0)
        }
        Algorithm::DenseRabenseifner => {
            // Densify the input (γ·k), then run the core on the largest
            // power of two p2 ≤ P, whose reduce-scatter adds (p2−1)/p2·N
            // elements. Off powers of two a parked rank's full vector folds
            // onto its partner (one hop, N additions) and the result
            // unfolds back (another hop).
            let p2 = 1usize << w.p.max(1).ilog2();
            let q = p2 as f64;
            let core = bounds::dense_rabenseifner(&Workload { p: p2, ..*w }, c).lower
                + c.gamma * (k + (q - 1.0) / q * n);
            if p2 == w.p {
                core
            } else {
                core + 2.0 * (c.alpha + c.beta * n * w.word_bytes()) + c.gamma * n
            }
        }
    }
}

/// `SSAR_Recursive_double` as the clock runs it, along the chain of rank
/// 0, whose side of every exchange covers the most ranks: off powers of
/// two the fold hop, then `⌊log2 P⌋` rounds, each ending for rank 0 and
/// for its partner as [`rec_dbl_round`] says from when each of them
/// started it (a partner whose subcube folded nothing starts its rounds
/// early); then, off powers of two, the unfold hop — one blocking frame
/// of the result — from each folding rank once its own last merge is
/// done. The estimate is the later of the two. A side covering `m` ranks
/// holds their expected union (Appendix B, scaled so that all `P` hold
/// `ek`), or `N` dense values once its last merge crossed δ under the
/// default policy; a merge costs what the sum kernel charges for the two
/// sides it meets.
fn rec_dbl<V: Scalar>(w: &Workload, c: &CostModel, ek: f64) -> f64 {
    if w.p <= 1 {
        return 0.0;
    }
    let (n, k) = (w.n as f64, w.k.min(w.n) as f64);
    let uniform = |m: usize| expected_union_size(w.n, m, w.k.min(w.n));
    let spread = uniform(w.p) - k;
    let union = |m: usize| {
        if spread > 0.0 {
            k + (uniform(m) - k) * (ek - k) / spread
        } else {
            k
        }
    };
    let delta = DensityPolicy::default().delta::<V>(w.n) as f64;
    // (ranks covered, entries held, dense) of a side.
    let side = |m: usize| {
        let dense = m > 1 && union(m.div_ceil(2)) + union(m / 2) > delta;
        (m, if dense { n } else { union(m) }, dense)
    };
    // A side's entries on the wire, and as a round frame: with a header
    // and the 8-byte agreement word.
    let body = |entries: f64, dense: bool| {
        if dense {
            n * w.word_bytes()
        } else {
            entries * w.pair_bytes(entries)
        }
    };
    let frame = |entries: f64, dense: bool| header_len(dense) as f64 + body(entries, dense) + 8.0;
    // What sending a side's frames costs its sender: one blocking send, or
    // one isend per segment.
    let sends = |(_, e, d): (usize, f64, bool)| match segments(c, frame(e, d) as usize) {
        1 => c.alpha,
        segs => segs as f64 * c.isend_alpha_fraction * c.alpha,
    };
    // When the receiver holding `to`, at `to_at` with its frames out,
    // finishes adding the frames of `from`, sent at `from_at`.
    let round = |to_at: f64,
                 (mt, et, dt): (usize, f64, bool),
                 from_at: f64,
                 (mf, ef, df): (usize, f64, bool)| {
        let elements = match (dt, df) {
            (false, false) if et + ef <= delta => union(mt + mf),
            (_, false) => ef,
            (false, true) => et,
            (true, true) => n,
        };
        rec_dbl_round(c, frame(ef, df), elements, to_at, from_at)
    };
    let p2 = 1usize << w.p.ilog2();
    let parked = w.p - p2;
    // Rank 0's clock, and the clock of a rank whose subcube has folded
    // nothing in (a plain power-of-two chain from t = 0).
    let (mut mine_at, mut plain_at) = (0.0, 0.0);
    let mut covered = 1;
    if parked > 0 {
        mine_at = round(0.0, side(1), 0.0, side(1));
        covered = 2;
    }
    let mut partner_done = 0.0;
    for t in 0..w.p.ilog2() {
        let half = 1usize << t;
        let partner = half + parked.saturating_sub(half).min(half);
        let (mine, theirs) = (side(covered), side(partner));
        let theirs_at = if partner > half { mine_at } else { plain_at };
        partner_done = round(theirs_at + sends(theirs), theirs, mine_at, mine);
        mine_at = round(mine_at + sends(mine), mine, theirs_at, theirs);
        let plain = side(half);
        plain_at = round(plain_at + sends(plain), plain, plain_at, plain);
        covered += partner;
    }
    if parked == 0 {
        return mine_at.max(partner_done);
    }
    // The unfold frame carries the result, and leaves each folding rank
    // when its own last merge is done: rank 0, and its last partner (rank
    // p2/2) only if that one folds too.
    let (_, entries, dense) = side(w.p);
    let unfold = c.alpha + c.beta * body(entries, dense);
    let partner_unfolds = if parked > p2 / 2 { unfold } else { 0.0 };
    (mine_at + unfold).max(partner_done + partner_unfolds)
}

/// When a fold hop or round of recursive doubling ends on the receiver's
/// virtual clock: the sender's `bytes`-byte stream leaves at `sent_at` as
/// [`segments`] frames back to back on the link, and the receiver — its
/// own frames out at `ready_at` — adds each segment as it lands,
/// `elements` additions in all. Merge-bound, that is `α + β·L/c` after
/// the send, then the whole merge; link-bound, `α + β·L` then the last
/// segment's share of it.
fn rec_dbl_round(c: &CostModel, bytes: f64, elements: f64, ready_at: f64, sent_at: f64) -> f64 {
    let segs = segments(c, bytes as usize) as f64;
    let merge = c.gamma * elements;
    let piece = c.beta * bytes / segs;
    let isend = c.isend_alpha_fraction * c.alpha;
    let last = (segs - 1.0) * piece.max(isend) + merge / segs;
    (ready_at + merge).max(sent_at + c.alpha + piece + last.max(merge))
}

/// The split phase both split schedules share, as the virtual clock
/// charges it: `P − 1` blocking sends of a `k/P`-pair sub-range, the last
/// of which is still in flight when the sends are done, then the owner's
/// reduction work `reduce` (seconds).
fn split_phase(w: &Workload, c: &CostModel, reduce: f64) -> f64 {
    let (p, k) = (w.p as f64, w.k as f64);
    (p - 1.0) * c.alpha + c.beta * k / p * w.pair_bytes(k) + reduce
}

/// Bitmap words an owner's window drain visits
/// (`sparcml_stream::WindowSum::drain_into`): every summary word, one per
/// 4 096 slots of its `N/P`-slot window, and each occupancy word that
/// holds an entry — all but those whose 64 slots the `E[K]/N`-dense
/// result misses.
fn window_words(w: &Workload, ek: f64) -> f64 {
    let slots = w.n as f64 / w.p as f64;
    let density = (ek / w.n.max(1) as f64).clamp(0.0, 1.0);
    let touched = slots / 64.0 * (1.0 - (1.0 - density).powi(64));
    touched + (slots / 4096.0).ceil()
}

/// The split schedules' gather (`crate::op::allgather_bytes_with`):
/// `P` blocks of `bytes` each, which take `place` seconds each to put in
/// place — `own` for this rank's — placed one round late. Round by round
/// that is `α` plus the larger of the frame's transfer and the placement
/// pending behind it, then the last round's placement: recursive doubling
/// at powers of two (round `t` carries `2^t` blocks), a ring of `P − 1`
/// one-block rounds otherwise.
fn pipelined_gather(p: usize, c: &CostModel, bytes: f64, place: f64, own: f64) -> f64 {
    let round = |blocks: f64, pending: f64| c.alpha + (c.beta * blocks * bytes).max(pending);
    if p.is_power_of_two() {
        let (mut time, mut pending) = (0.0, own);
        for t in 0..p.trailing_zeros() {
            let blocks = (1u64 << t) as f64;
            time += round(blocks, pending);
            pending = blocks * place;
        }
        time + pending
    } else {
        round(1.0, own) + (p - 2) as f64 * round(1.0, place) + place
    }
}

/// Picks an allreduce algorithm for a `P`-rank reduction of `N`-dim
/// vectors with `k` non-zeros per rank: estimates `E[K]`, prices every
/// member of [`Algorithm::ALL`] by its expected cost and returns the
/// cheapest (ties go to the earlier member).
pub fn select_algorithm<V: Scalar>(p: usize, n: usize, k: usize, cost: &CostModel) -> Algorithm {
    let w = Workload {
        p,
        n,
        k,
        value_bytes: V::BYTES,
    };
    let ek = expected_union_size(n, p, k.min(n));
    // Priced once each: this runs on every `Auto` call.
    Algorithm::ALL
        .map(|algo| (expected_cost::<V>(algo, &w, cost, ek), algo))
        .into_iter()
        .min_by(|a, b| a.0.total_cmp(&b.0))
        .expect("Algorithm::ALL is not empty")
        .1
}

impl Algorithm {
    /// Resolves [`Algorithm::Auto`] to the selector's concrete choice for
    /// a `P`-rank reduction of `N`-dim vectors with `k` non-zeros per
    /// rank; concrete algorithms pass through unchanged. This is exactly
    /// the mapping the communicator applies on the `Auto` path (after the
    /// ranks agree on `k`), exposed for inspection and testing.
    pub fn resolve_for<V: Scalar>(
        self,
        p: usize,
        n: usize,
        k: usize,
        cost: &CostModel,
    ) -> Algorithm {
        match self {
            Algorithm::Auto => select_algorithm::<V>(p, n, k, cost),
            concrete => concrete,
        }
    }
}

/// Virtual-time cost of the Auto path's k-agreement when it resolves to
/// `pick`. Recursive doubling's own frames carry the agreement, so that
/// pick costs no round. A split pick's split-phase frames fly between the
/// pass's rounds, each round's bare word going out with an isend: at a
/// power of two that is `⌊log2 P⌋` isend charges, and off one a parked
/// rank also waits out the latency of its partner's unfold word (the
/// virtual clock reads 1.80 µs at P=5 and 1.95 µs at P=12 on Aries for
/// `DSAR_Split_allgather`). Any other pick pays one pass of bare 8-byte
/// frames first — `⌊log2 P⌋` rounds, plus the fold and unfold hops off
/// powers of two — before the schedule starts.
fn auto_agreement_cost(pick: Algorithm, p: usize, c: &CostModel) -> f64 {
    if p <= 1 || pick == Algorithm::SsarRecDbl {
        return 0.0;
    }
    let rounds = p.ilog2() as f64;
    let word = c.alpha + 8.0 * c.beta;
    let folded = !p.is_power_of_two();
    if pick.is_split() {
        rounds * c.isend_alpha_fraction * c.alpha + if folded { word } else { 0.0 }
    } else {
        (rounds + if folded { 2.0 } else { 0.0 }) * word
    }
}

/// Estimated completion time of `algo` (exposed for reporting/EXPERIMENTS)
/// under the uniform-support fill-in model of Appendix B.
/// [`Algorithm::Auto`] is priced as its resolved concrete choice plus
/// what its k-agreement costs that choice: nothing when it resolves to
/// recursive doubling, one isend per round when it resolves to a split
/// schedule (whose split-phase frames the pass carries), one pass of
/// 8-byte frames otherwise.
pub fn estimate_time<V: Scalar>(
    algo: Algorithm,
    p: usize,
    n: usize,
    k: usize,
    cost: &CostModel,
) -> f64 {
    let ek = expected_union_size(n, p, k.min(n));
    estimate_at_union::<V>(algo, p, n, k, ek, cost)
}

/// `algo`'s expected cost at union size `ek`; [`Algorithm::Auto`] as its
/// resolved pick plus that pick's agreement cost.
fn estimate_at_union<V: Scalar>(
    algo: Algorithm,
    p: usize,
    n: usize,
    k: usize,
    ek: f64,
    cost: &CostModel,
) -> f64 {
    let pick = algo.resolve_for::<V>(p, n, k, cost);
    let agreement = if algo.is_auto() {
        auto_agreement_cost(pick, p, cost)
    } else {
        0.0
    };
    let w = Workload {
        p,
        n,
        k,
        value_bytes: V::BYTES,
    };
    agreement + expected_cost::<V>(pick, &w, cost, ek)
}

/// [`estimate_time`] with an explicit expected union size `ek` (callers
/// that know their supports are correlated — real Top-k gradients overlap
/// far more than the uniform model, cf. Fig. 1 — can pass a smaller `ek`).
pub fn estimate_time_with_union<V: Scalar>(
    algo: Algorithm,
    p: usize,
    n: usize,
    k: usize,
    ek: f64,
    cost: &CostModel,
) -> f64 {
    let ek = ek.clamp(k as f64, (p * k).min(n) as f64);
    estimate_at_union::<V>(algo, p, n, k, ek, cost)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_k_prefers_recursive_doubling() {
        // Latency-dominated: few non-zeros, many ranks.
        let algo = select_algorithm::<f32>(64, 1 << 24, 64, &CostModel::aries());
        assert_eq!(algo, Algorithm::SsarRecDbl);
    }

    #[test]
    fn moderate_sparsity_prefers_split_allgather() {
        // Large k but E[K] still < δ: bandwidth matters, stay sparse.
        let algo = select_algorithm::<f32>(8, 1 << 24, 1 << 17, &CostModel::aries());
        assert_eq!(algo, Algorithm::SsarSplitAllgather);
    }

    #[test]
    fn dense_fill_in_prefers_dsar_or_dense() {
        // k = N/4 at P = 64: E[K] ≈ N — dynamic instance.
        let algo = select_algorithm::<f32>(64, 1 << 16, 1 << 14, &CostModel::aries());
        assert!(
            matches!(
                algo,
                Algorithm::DsarSplitAllgather | Algorithm::DenseRabenseifner
            ),
            "got {algo:?}"
        );
    }

    #[test]
    fn auto_estimate_charges_agreement_only_off_recursive_doubling() {
        let cost = CostModel::gige();
        let word = cost.alpha + 8.0 * cost.beta;
        let isend = cost.isend_alpha_fraction * cost.alpha;
        let gap = |p: usize, n: usize, k: usize| {
            let resolved = Algorithm::Auto.resolve_for::<f32>(p, n, k, &cost);
            let t_auto = estimate_time::<f32>(Algorithm::Auto, p, n, k, &cost);
            (
                resolved,
                t_auto - estimate_time::<f32>(resolved, p, n, k, &cost),
            )
        };
        // Recursive doubling's frames carry the agreement: Auto is priced
        // exactly as the pinned schedule, at any P.
        for p in [2, 6, 8] {
            let (resolved, extra) = gap(p, 1 << 20, 1 << 6);
            assert_eq!(resolved, Algorithm::SsarRecDbl, "P={p}");
            assert_eq!(extra, 0.0, "P={p}");
        }
        // A split pick's frames fly while the words do: the pass costs
        // one isend per round — and off powers of two the unfold word a
        // parked rank waits for — not a round trip per round.
        for (p, extra_expected) in [
            (8, 3.0 * isend),
            (6, 2.0 * isend + word),
            (12, 3.0 * isend + word),
        ] {
            let (resolved, extra) = gap(p, 1 << 20, 1 << 18);
            assert!(resolved.is_split(), "P={p}: {resolved:?}");
            assert!(
                (extra - extra_expected).abs() < 1e-9 * word,
                "P={p}: {extra} vs {extra_expected}"
            );
        }
        // Any other pick pays one pass of 8-byte frames first: log2(P)
        // rounds, plus the fold and unfold hops off powers of two. On Aries
        // at N = 2^14 and 15 % density Rabenseifner wins at P=16 (as in
        // `tests/auto_sweep.rs`) and at P=20. (At P=12 no shape picks it
        // any more on any shipped model: segmented recursive doubling or a
        // split schedule is cheaper there.)
        let cost = CostModel::aries();
        let word = cost.alpha + 8.0 * cost.beta;
        for (p, rounds) in [(16usize, 4.0), (20, 6.0)] {
            let (n, k) = (1 << 14, 2_500);
            let resolved = Algorithm::Auto.resolve_for::<f32>(p, n, k, &cost);
            assert_eq!(resolved, Algorithm::DenseRabenseifner, "P={p}");
            let extra = estimate_time::<f32>(Algorithm::Auto, p, n, k, &cost)
                - estimate_time::<f32>(resolved, p, n, k, &cost);
            assert!(
                (extra - rounds * word).abs() < 1e-9 * word,
                "P={p}: {extra} vs {rounds} x {word}"
            );
        }
    }

    #[test]
    fn selection_does_not_gate_on_delta() {
        // P=8, N=2^20 on Aries, either side of E[K] = δ. Just past it the
        // sparse split still beats DSAR; further on DSAR beats the dense
        // baselines, which pay γ·k to densify their input.
        let cost = CostModel::aries();
        let pick = |k| select_algorithm::<f32>(8, 1 << 20, k, &cost);
        assert_eq!(pick(100_000), Algorithm::SsarSplitAllgather);
        assert_eq!(pick(300_000), Algorithm::DsarSplitAllgather);
    }

    #[test]
    fn dense_prices_track_the_virtual_clock() {
        // Measured on the virtual cluster at P=8, N=2^20, Aries:
        // Rabenseifner = 1660.5 µs + 1 ns·k.
        let cost = CostModel::aries();
        for k in [100usize, 300_000] {
            let t_us =
                estimate_time::<f32>(Algorithm::DenseRabenseifner, 8, 1 << 20, k, &cost) * 1e6;
            let clock_us = 1660.5 + k as f64 * 1e-3;
            assert!((t_us - clock_us).abs() < 0.1, "k={k}: {t_us}");
        }
    }

    #[test]
    fn rabenseifner_prices_its_fold_off_powers_of_two() {
        // Pinned Rabenseifner at N = 2^14, k = 1 638 on Aries, against the
        // virtual clock. Priced as a ⌈log2 P⌉-rank core without the two
        // full-vector hops, the estimate read 40.7 µs at P=12 against
        // 68.9 on the clock.
        use crate::allreduce::{dense_rabenseifner, AllreduceConfig};
        use crate::op::BufferPool;
        use sparcml_net::{max_virtual_time, Transport};
        use sparcml_stream::{random_sparse, SparseStream};

        let cost = CostModel::aries();
        let (n, k) = (1 << 14, 1_638);
        let cfg = AllreduceConfig::default();
        for p in [3usize, 5, 6, 12] {
            let ins: Vec<SparseStream<f32>> =
                (0..p).map(|r| random_sparse(n, k, 70 + r as u64)).collect();
            let clock = max_virtual_time(p, cost, |ep| {
                dense_rabenseifner(ep, &ins[ep.rank()], &cfg, &mut BufferPool::new()).unwrap();
            });
            let est = estimate_time::<f32>(Algorithm::DenseRabenseifner, p, n, k, &cost);
            assert!(
                (est / clock - 1.0).abs() < 0.01,
                "P={p}: {} µs against {} on the clock",
                est * 1e6,
                clock * 1e6
            );
        }
    }

    /// Pinned recursive doubling's virtual time at `p` ranks, `k` random
    /// entries each of `n`, on Aries.
    fn rec_dbl_clock(p: usize, n: usize, k: usize) -> f64 {
        use crate::allreduce::{ssar_recursive_double, AllreduceConfig};
        use crate::op::BufferPool;
        use sparcml_net::{max_virtual_time, Transport};
        use sparcml_stream::{random_sparse, SparseStream};

        let cfg = AllreduceConfig::default();
        let ins: Vec<SparseStream<f32>> =
            (0..p).map(|r| random_sparse(n, k, 90 + r as u64)).collect();
        max_virtual_time(p, CostModel::aries(), |ep| {
            ssar_recursive_double(ep, &ins[ep.rank()], &cfg, &mut BufferPool::new()).unwrap();
        })
    }

    #[test]
    fn rec_dbl_prices_its_unfold_hop_off_powers_of_two() {
        // Pinned recursive doubling at k = 1e4, N = 2^20 on Aries against
        // the virtual clock. Without the unfold hop the estimates read
        // 22–28 % low, a margin by which an overpriced split schedule
        // loses to it. The estimate follows the clock's chains (rank 0's
        // and its partner's, which starts early when its subcube folds
        // nothing) and reads 69.81, 129.82 and 320.09 µs against 69.82,
        // 129.79 and 319.79: it may sit over the clock by a rounding's
        // worth, never by a margin that moves a pick.
        let cost = CostModel::aries();
        for p in [3usize, 5, 12] {
            let clock = rec_dbl_clock(p, 1 << 20, 10_000);
            let est = estimate_time::<f32>(Algorithm::SsarRecDbl, p, 1 << 20, 10_000, &cost);
            assert!(
                est <= 1.002 * clock && est >= 0.99 * clock,
                "P={p}: {} µs against {} on the clock",
                est * 1e6,
                clock * 1e6
            );
        }
    }

    #[test]
    fn rec_dbl_prices_its_segmented_rounds() {
        // Pinned recursive doubling on the virtual clock at N = 2^20 on
        // Aries, against its estimate: each round is `α + β·L/c + merge`
        // where the merge is the longer part (all of these but P=8 at
        // k=1e3), with `c` from the one segment-count function, and a
        // round that crosses δ scatters the partner's stream.
        let cost = CostModel::aries();
        let n = 1 << 20;
        for p in [2usize, 8] {
            for k in [1_000usize, 10_000, 100_000] {
                let clock = rec_dbl_clock(p, n, k);
                let est = estimate_time::<f32>(Algorithm::SsarRecDbl, p, n, k, &cost);
                assert!(
                    (est / clock - 1.0).abs() < 0.01,
                    "P={p} k={k}: {} µs against {} on the clock",
                    est * 1e6,
                    clock * 1e6
                );
            }
        }
    }

    #[test]
    fn estimates_are_positive_and_finite() {
        for algo in Algorithm::ALL {
            let t = estimate_time::<f32>(algo, 16, 1 << 20, 1 << 10, &CostModel::gige());
            assert!(t.is_finite() && t > 0.0, "{algo:?}: {t}");
        }
        // The selector is total: any P, an empty or one-element dimension,
        // k from nothing to past N, a model that charges nothing.
        for cost in [
            CostModel::aries(),
            CostModel::gige(),
            CostModel::zero(),
            CostModel::loopback_tcp(),
        ] {
            for p in 1..=17 {
                for n in [0usize, 1, 2, 1 << 10, 1 << 24] {
                    for k in [0, 1, n / 2, n, n + 5] {
                        let what = format!("P={p} N={n} k={k} {cost:?}");
                        for algo in Algorithm::ALL {
                            let t = estimate_time::<f32>(algo, p, n, k, &cost);
                            assert!(t.is_finite() && t >= 0.0, "{algo:?} {what}: {t}");
                        }
                        let pick = select_algorithm::<f32>(p, n, k, &cost);
                        assert!(Algorithm::ALL.contains(&pick), "{pick:?} {what}");
                    }
                }
            }
        }
    }
}
