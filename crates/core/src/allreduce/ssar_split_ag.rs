//! `SSAR_Split_allgather` — split + allgather allreduce (§5.3.2), the one
//! split schedule: it also runs the dense-result instance of §5.3.3.
//!
//! Phase 1 (*split*): the index space `[0, N)` is partitioned uniformly
//! across ranks; every rank splits its sparse vector and sends each
//! subrange directly to its owner. Each owner sums the `P` sub-vectors of
//! its partition — its own and the `P − 1` it receives, in rank order —
//! by scattering every entry once into a [`WindowSum`]: the values of a
//! zeroed vector of the whole space, the result's own partition slot, with
//! an occupancy bitmap over the partition ([`scatter_split`], the one
//! split-phase scatter loop, which `reduce_scatter` shares). An owner
//! taking in `n` entries pays `n` element operations whatever `P` is (a
//! merge tournament pays up to `n·⌈log2 P⌉`), each frame is scattered as
//! it arrives while later ones are still in flight, and every slot sums in
//! rank order, so results are the sequential reference sum bit for bit, on
//! every transport.
//!
//! Phase 2 (*allgather*): partition results are gathered to all ranks with
//! a concatenating allgather (partitions are disjoint index ranges, so the
//! "sum" is concatenation, §5.1). Each owner first `isend`s its
//! partition's entry count to every peer as one 8-byte word, then encodes
//! its block straight from the window's bitmap, in the wire's own coding
//! for that support — an Elias–Fano index, a bitmap past half full — which
//! is smaller than the dense block up to ≈ 97 % fill. The count words give
//! every rank the result's size `K` before any block is placed, and so its
//! form:
//! - `K ≤ δ`: the slabs are sized exactly and each gathered block placed
//!   at its final offset as it lands, while the allgather's next frame is
//!   in flight ([`crate::op::allgather_bytes_with`]). The own block is
//!   placed by draining the window into its offset after round 0's frame
//!   has left: assembly costs `γ` per element, `γ·K` in all plus the
//!   bitmap words the drain visits, and overlaps the transfer.
//! - `K > δ`: the result stays dense, in the vector the window already
//!   writes: the own block is in place, with no drain and no charge, and
//!   each peer block is read straight from its frame into its partition
//!   for `γ` per entry — the dense-result instance DSAR (§5.3.3) had a
//!   schedule of its own for, without its dense blocks.
//!
//! With [`crate::AllreduceConfig::quant`] set, the gather is §6's
//! low-precision one instead: each owner QSGD-quantizes its partition's
//! dense values, and every rank, the owner too, keeps the dequantized
//! values of every block, so all ranks hold the same dense result
//! ("we employ the low-precision data representation only in the second
//! part of the DSAR Split allgather algorithm").
//!
//! Latency is `L2(P) = (P−1)α + log2(P)α` (the count words' isends cost
//! `(P−1)·isend_alpha_fraction·α` more); bandwidth lies between
//! `2·(P−1)/P·k·βs` and `P·k·βs`.

use bytes::Bytes;
use sparcml_net::Transport;
use sparcml_quant::{dequantize, quantize, QsgdConfig, QuantizedVec};
use sparcml_stream::{
    partition_range, Scalar, SparseStream, SparseVec, StreamError, SumStats, WindowSum, WireFrame,
    XorShift64,
};

use crate::allreduce::AllreduceConfig;
use crate::error::CollError;
use crate::op::{
    allgather_bytes_with, recv_stream, recv_tracked, send_stream_range, subtag, sum_charged, tag,
    BufferPool,
};
use crate::theory::expected_union_size;

/// Sends split-phase steps `steps` (a sub-range of `1..P`): step `s`
/// takes this rank's sub-range for rank `(rank + s) mod P` to its owner,
/// so senders walk destinations round-robin starting after their own
/// rank and do not all hammer rank 0 first. Each frame is encoded straight
/// from a borrowed slab view into a pooled buffer — no intermediate
/// stream, no per-message allocation. The one split-phase send loop of
/// both split schedules, and of `Auto`'s pass when it speculates on one.
pub(crate) fn send_split_steps<T: Transport, V: Scalar>(
    ep: &mut T,
    input: &SparseStream<V>,
    op_id: u64,
    steps: impl IntoIterator<Item = usize>,
    pool: &mut BufferPool,
) -> Result<(), CollError> {
    let (p, rank) = (ep.size(), ep.rank());
    for step in steps {
        let dst = (rank + step) % p;
        let range = partition_range(input.dim(), p, dst);
        send_stream_range(ep, dst, tag(op_id, subtag::SPLIT), input, range, pool)?;
    }
    Ok(())
}

/// The receive half of the split phase — the one split-phase scatter loop
/// of both split schedules and `reduce_scatter`: hands `add` the sub-range
/// of every rank in `sources` (each rank once), this rank's own from its
/// input and every other's as the frame it sent under `op_id`, and
/// charges `γ` per entry `add` scattered. `add` checks a frame before it
/// scatters any of it; a frame of another dimension, or with an entry
/// outside this rank's partition, is [`CollError::Invalid`].
pub(crate) fn scatter_split<T: Transport, V: Scalar>(
    ep: &mut T,
    input: &SparseStream<V>,
    op_id: u64,
    sources: impl IntoIterator<Item = usize>,
    pool: &mut BufferPool,
    mut add: impl FnMut(&SparseStream<V>) -> Result<usize, StreamError>,
) -> Result<(), CollError> {
    let rank = ep.rank();
    let my_range = partition_range(input.dim(), ep.size(), rank);
    for src in sources {
        let part = if src == rank {
            input.restrict(my_range.lo, my_range.hi)
        } else {
            recv_stream::<_, V>(ep, src, tag(op_id, subtag::SPLIT), pool)?
        };
        sum_charged(ep, || match add(&part) {
            Ok(scattered) => Ok((
                (),
                SumStats {
                    elements_processed: scattered,
                    result_dense: false,
                    switched_to_dense: false,
                },
            )),
            Err(e) => Err(CollError::Invalid(format!(
                "split frame from rank {src}: {e}"
            ))),
        })?;
    }
    Ok(())
}

/// Sums this rank's own sub-range with the `P − 1` frames tagged `op_id`
/// into its partition's [`WindowSum`] ([`scatter_split`]). In rank order,
/// unless `own_first`: every slot then sums its entries as the sequential
/// reference does, so the partition is that sum bit for bit. `own_first`
/// takes the own sub-range first, while the peers' frames fly, and the
/// peers' in rank order after it: the owner never waits on the first of
/// them, whose sender may have had six other frames to send first.
pub(crate) fn reduce_partition<T: Transport, V: Scalar>(
    ep: &mut T,
    input: &SparseStream<V>,
    op_id: u64,
    own_first: bool,
    pool: &mut BufferPool,
) -> Result<WindowSum<V>, CollError> {
    let (p, rank, dim) = (ep.size(), ep.rank(), input.dim());
    let mut window = WindowSum::new(dim, partition_range(dim, p, rank));
    let first = own_first.then_some(rank);
    let rest = (0..p).filter(|&src| Some(src) != first);
    scatter_split(
        ep,
        input,
        op_id,
        first.into_iter().chain(rest),
        pool,
        |part| window.add(part),
    )?;
    Ok(window)
}

/// Split + allgather allreduce. Works for any `P ≥ 1`.
pub(crate) fn ssar_split_allgather<T: Transport, V: Scalar>(
    ep: &mut T,
    input: &SparseStream<V>,
    cfg: &AllreduceConfig,
    pool: &mut BufferPool,
) -> Result<SparseStream<V>, CollError> {
    let p = ep.size();
    if p == 1 {
        let mut out = input.clone();
        if cfg.quant.is_some() {
            out.densify();
        }
        return Ok(out);
    }
    let op_id = ep.next_op_id();
    send_split_steps(ep, input, op_id, 1..p, pool)?;
    ssar_receive_half(ep, input, cfg, op_id, op_id, pool)
}

/// Everything of `SSAR_Split_allgather` after the split-phase sends: the
/// partition reduced from the frames tagged `split_op`, then the allgather
/// under `gather_op`. The pinned schedule passes its one op id twice;
/// `Auto`, whose pass sent the split frames, a fresh one for the
/// allgather.
pub(crate) fn ssar_receive_half<T: Transport, V: Scalar>(
    ep: &mut T,
    input: &SparseStream<V>,
    cfg: &AllreduceConfig,
    split_op: u64,
    gather_op: u64,
    pool: &mut BufferPool,
) -> Result<SparseStream<V>, CollError> {
    let (p, rank, dim) = (ep.size(), ep.rank(), input.dim());
    // A rank whose own k makes a dense result likely takes its own
    // sub-range first, as the dense result's owner always could: the
    // choice is its input's, so pinned and `Auto` calls make the same one.
    let delta = cfg.policy.delta::<V>(dim);
    let dense_ahead = expected_union_size(dim, p, input.stored_len().min(dim)) > delta as f64;
    let window = reduce_partition(ep, input, split_op, dense_ahead, pool)?;
    if let Some(quant) = &cfg.quant {
        let seed = cfg.quant_seed.wrapping_add(rank as u64);
        return quantized_gather(ep, window.into_dense(), quant, seed, gather_op, pool);
    }
    let own = window.len();
    // Every peer learns this partition's entry count before its block, so
    // it can size the result once and place each block as it lands. The
    // words go out with isend: their α overlaps the allgather's first
    // round.
    let count_tag = tag(gather_op, subtag::COUNT);
    for step in 1..p {
        let word = Bytes::copy_from_slice(&(own as u64).to_le_bytes());
        ep.isend((rank + step) % p, count_tag, word)?;
    }
    // The frame comes straight off the bitmap (uncharged, as every encode
    // is); placing the own block waits for the count words.
    let mut buf = pool.acquire();
    window.encode_into(&mut buf);
    let mut window = Some(window);
    let mut result: Option<Assembly<V>> = None;
    allgather_bytes_with(ep, gather_op, Bytes::from(buf), pool, |ep, src, block| {
        let placed = match &mut result {
            Some(out) => out.place(src, block, dim, p)?,
            // The first placement is the own block's, after round 0's
            // frame left: by then the peers' count words are in, and the
            // placement overlaps that frame's flight.
            None => {
                let window = window.take().expect("the own block is placed first");
                let (out, placed) = Assembly::of_own(ep, count_tag, window, dim, delta)?;
                result = Some(out);
                placed
            }
        };
        ep.compute(placed);
        Ok(())
    })?;
    result.expect("the own block is always placed").finish(dim)
}

/// The gathered result of `SSAR_Split_allgather` under construction, sized
/// from every partition's entry count. Partitions are increasing index
/// ranges in rank order, so placing every block at its rank's offset
/// leaves the slabs sorted.
struct Assembly<V: Scalar> {
    /// Partition `r` holds `offsets[r + 1] − offsets[r]` entries, at
    /// `offsets[r]..offsets[r + 1]` of sparse slabs.
    offsets: Vec<usize>,
    form: Form<V>,
}

/// The form of the result: exact slabs up to δ entries, past it the dense
/// vector the owner's window wrote its partition into.
enum Form<V> {
    Sparse {
        indices: Vec<u32>,
        values: Vec<V>,
    },
    /// `scratch` takes a peer block's index on its way into `values`.
    Dense {
        values: Vec<V>,
        scratch: Vec<u32>,
    },
}

impl<V: Scalar> Assembly<V> {
    /// Takes the `P − 1` peer count words tagged `count_tag`, sizes the
    /// result and places the own block, the reduced `window`. Returns the
    /// assembly and the work placing cost: the drain's entries and words
    /// up to `delta` entries in all, nothing past it, where the window's
    /// values are the result. A count is peer-controlled: each is checked
    /// against its sender's partition width before anything is sized from
    /// it, so the slabs never exceed `N` entries.
    fn of_own<T: Transport>(
        ep: &mut T,
        count_tag: u64,
        mut window: WindowSum<V>,
        dim: usize,
        delta: usize,
    ) -> Result<(Self, usize), CollError> {
        let (p, rank) = (ep.size(), ep.rank());
        let mut offsets = Vec::with_capacity(p + 1);
        offsets.push(0);
        for src in 0..p {
            let count = if src == rank {
                window.len()
            } else {
                parse_count(&recv_tracked(ep, src, count_tag)?, src, dim, p)?
            };
            offsets.push(offsets[src] + count);
        }
        let total = offsets[p];
        if total > delta {
            let values = window.into_dense();
            let scratch = Vec::new();
            return Ok((
                Assembly {
                    offsets,
                    form: Form::Dense { values, scratch },
                },
                0,
            ));
        }
        let (mut indices, mut values) = (vec![0; total], vec![V::zero(); total]);
        let at = offsets[rank]..offsets[rank + 1];
        let (entries, words) = window.drain_into(&mut indices[at.clone()], &mut values[at]);
        let form = Form::Sparse { indices, values };
        Ok((Assembly { offsets, form }, entries + words))
    }

    /// Reads partition `src`'s gathered block straight into its place in
    /// the result. The frame must be sparse and hold exactly the count
    /// `src` announced, in the logical dimension, every index inside
    /// `src`'s partition; anything else is [`CollError::Invalid`]. Returns
    /// the entries placed.
    fn place(
        &mut self,
        src: usize,
        block: &[u8],
        dim: usize,
        p: usize,
    ) -> Result<usize, CollError> {
        let invalid =
            |e: StreamError| CollError::Invalid(format!("partition block from rank {src}: {e}"));
        let frame = WireFrame::<V>::parse(block).map_err(invalid)?;
        let at = self.offsets[src]..self.offsets[src + 1];
        if frame.is_dense() || frame.dim() != dim || frame.stored_len() != at.len() {
            return Err(CollError::Invalid(format!(
                "partition block from rank {src} is not the {} sparse entries of dim {dim} it announced",
                at.len()
            )));
        }
        let range = partition_range(dim, p, src);
        match &mut self.form {
            Form::Sparse { indices, values } => {
                let indices = &mut indices[at.clone()];
                frame
                    .read_sparse_into(indices, &mut values[at])
                    .map_err(invalid)?;
                // Indices come out strictly increasing: the ends bound the
                // rest.
                if let (Some(&first), Some(&last)) = (indices.first(), indices.last()) {
                    if first < range.lo || last >= range.hi {
                        return Err(invalid(StreamError::OutsideWindow {
                            idx: if first < range.lo { first } else { last },
                            lo: range.lo,
                            hi: range.hi,
                        }));
                    }
                }
                Ok(indices.len())
            }
            Form::Dense { values, scratch } => {
                let window = &mut values[range.lo as usize..range.hi as usize];
                frame
                    .read_sparse_scatter(range.lo, window, scratch)
                    .map_err(invalid)
            }
        }
    }

    /// The assembled result.
    fn finish(self, dim: usize) -> Result<SparseStream<V>, CollError> {
        Ok(match self.form {
            Form::Sparse { indices, values } => {
                SparseStream::from_sorted(dim, SparseVec::from_slabs(indices, values))?
            }
            Form::Dense { values, .. } => SparseStream::from_dense(values),
        })
    }
}

/// §6's low-precision gather: this rank's partition of `out`, the dense
/// result its window wrote, QSGD-quantized with `seed` and gathered as one
/// block per rank. Every rank, the owner too, keeps the dequantized values
/// of every block, so all ranks hold the same dense result; assembly costs
/// `γ` per value, `γ·N`, overlapping the transfer.
fn quantized_gather<T: Transport, V: Scalar>(
    ep: &mut T,
    mut out: Vec<V>,
    quant: &QsgdConfig,
    seed: u64,
    gather_op: u64,
    pool: &mut BufferPool,
) -> Result<SparseStream<V>, CollError> {
    let (p, rank, dim) = (ep.size(), ep.rank(), out.len());
    let window = |r: usize| {
        let range = partition_range(dim, p, r);
        range.lo as usize..range.hi as usize
    };
    let values: Vec<f32> = out[window(rank)]
        .iter()
        .map(|v| v.to_f64() as f32)
        .collect();
    let q = quantize(&values, quant, &mut XorShift64::new(seed));
    ep.compute(values.len()); // quantization pass
    let mut buf = pool.acquire();
    q.encode_into(&mut buf);
    allgather_bytes_with(ep, gather_op, Bytes::from(buf), pool, |ep, src, block| {
        let slot = &mut out[window(src)];
        let q = QuantizedVec::decode(block)?;
        if q.dim != slot.len() {
            return Err(CollError::Invalid(format!(
                "quantized block from rank {src} has length {} != {}",
                q.dim,
                slot.len()
            )));
        }
        for (s, v) in slot.iter_mut().zip(dequantize(&q)) {
            *s = V::from_f64(v as f64);
        }
        ep.compute(slot.len()); // dequantization of one block
        Ok(())
    })?;
    Ok(SparseStream::from_dense(out))
}

/// Reads a peer's count word: exactly 8 bytes, at most the width of the
/// sender's partition.
fn parse_count(word: &[u8], src: usize, dim: usize, p: usize) -> Result<usize, CollError> {
    let width = partition_range(dim, p, src).len() as u64;
    match <[u8; 8]>::try_from(word).map(u64::from_le_bytes) {
        Ok(count) if count <= width => Ok(count as usize),
        Ok(count) => Err(CollError::Invalid(format!(
            "rank {src} announced {count} entries for a partition of {width}"
        ))),
        Err(_) => Err(CollError::Invalid(format!(
            "count word from rank {src} has {} bytes, not 8",
            word.len()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::reference_sum;
    use sparcml_net::{max_virtual_time, run_cluster, CostModel};
    use sparcml_quant::QsgdConfig;
    use sparcml_stream::random_sparse;

    fn check(p: usize, dim: usize, nnz: usize) {
        let ins: Vec<SparseStream<f32>> = (0..p)
            .map(|r| random_sparse(dim, nnz, 7 + r as u64))
            .collect();
        let expect = reference_sum(&ins);
        let outs = run_cluster(p, CostModel::zero(), |ep| {
            ssar_split_allgather(
                ep,
                &ins[ep.rank()],
                &Default::default(),
                &mut BufferPool::new(),
            )
            .unwrap()
        });
        // Every slot sums in rank order, as the reference does: the
        // results are its sums bit for bit.
        for out in outs {
            assert_eq!(out.to_dense_vec(), expect, "P={p}");
        }
    }

    #[test]
    fn correct_power_of_two() {
        check(8, 4096, 64);
    }

    #[test]
    fn correct_non_power_of_two() {
        check(5, 1000, 40);
        check(6, 2048, 32);
    }

    #[test]
    fn correct_overlapping_supports() {
        // All ranks share the same support: K = k.
        let p = 8;
        let dim = 1 << 14;
        let base = random_sparse::<f32>(dim, 100, 42);
        let expect = reference_sum(&vec![base.clone(); p]);
        let outs = run_cluster(p, CostModel::zero(), |ep| {
            ssar_split_allgather(ep, &base, &Default::default(), &mut BufferPool::new()).unwrap()
        });
        for out in outs {
            assert_eq!(out.nnz(), 100);
            let got = out.to_dense_vec();
            for (g, e) in got.iter().zip(expect.iter()) {
                assert!((g - e).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn fill_in_past_delta_stays_sparse_and_exact() {
        // Rank 0's partition fills in past δ during the reduce (300 + 300
        // stored > 512, where a merge goes dense); the window keeps it
        // sparse for the concatenating allgather, and nothing densifies.
        // Rank 1's partition is empty.
        let p = 2;
        let dim = 1024;
        let supports = [(0u32, 300u32), (200, 500)];
        let outs = run_cluster(p, CostModel::zero(), |ep| {
            let (lo, hi) = supports[ep.rank()];
            let pairs: Vec<(u32, f32)> = (lo..hi).map(|i| (i, 1.0f32)).collect();
            let input = SparseStream::from_pairs(dim, &pairs).unwrap();
            let out = ssar_split_allgather(ep, &input, &Default::default(), &mut BufferPool::new())
                .unwrap();
            (out, ep.stats().snapshot().adaptive_densified)
        });
        for (rank, (out, densified)) in outs.into_iter().enumerate() {
            assert!(out.is_sparse());
            assert_eq!(out.nnz(), 500);
            for (i, v) in out.to_dense_vec().iter().enumerate() {
                let expect = match i {
                    0..=199 => 1.0,
                    200..=299 => 2.0,
                    300..=499 => 1.0,
                    _ => 0.0,
                };
                assert_eq!(*v, expect, "index {i}");
            }
            assert_eq!(densified, 0, "rank {rank}");
        }
    }

    #[test]
    fn latency_matches_l2() {
        // Empty inputs isolate latency: (P−1)α for the split (blocking
        // sends) + log2(P)α for the allgather.
        let cost = CostModel {
            alpha: 1.0,
            beta: 0.0,
            gamma: 0.0,
            isend_alpha_fraction: 0.0,
        };
        let p = 8;
        let t = max_virtual_time(p, cost, |ep| {
            let input = SparseStream::<f32>::zeros(1 << 16);
            ssar_split_allgather(ep, &input, &Default::default(), &mut BufferPool::new()).unwrap();
        });
        let l2 = (p - 1) as f64 + (p as f64).log2();
        assert!((t - l2).abs() < 1e-9, "t = {t}, L2 = {l2}");
    }

    #[test]
    fn split_phase_at_p64_fits_the_window_budget() {
        // P=64, k=1e4, N=2^20 on Aries: with each owner scattering its 64
        // sub-ranges into its window once, and the gathered blocks placed
        // while the allgather flies, the schedule takes ≈ 605 virtual µs.
        // Summing them in a 6-level merge tournament read ≈ 651, a left
        // fold 1 096 before the gather overlapped its assembly.
        let (p, dim, k) = (64, 1 << 20, 10_000);
        let t = max_virtual_time(p, CostModel::aries(), |ep| {
            let input = random_sparse::<f32>(dim, k, 7 + ep.rank() as u64);
            ssar_split_allgather(ep, &input, &Default::default(), &mut BufferPool::new()).unwrap();
        });
        assert!(t <= 615e-6, "t = {t} s");
    }

    /// A sparse assembly of P = 4 partitions with room for `counts`, or a
    /// dense one of `dim` announcing them.
    fn assembly(counts: [usize; 4], dense: Option<usize>) -> Assembly<f32> {
        let mut offsets = vec![0];
        for c in counts {
            offsets.push(offsets.last().unwrap() + c);
        }
        let total = offsets[4];
        let form = match dense {
            Some(dim) => Form::Dense {
                values: vec![0.0; dim],
                scratch: Vec::new(),
            },
            None => Form::Sparse {
                indices: vec![0; total],
                values: vec![0.0; total],
            },
        };
        Assembly { offsets, form }
    }

    /// The sparse slabs of an assembly, or no indices and its dense
    /// values.
    fn slabs(out: &Assembly<f32>) -> (&[u32], &[f32]) {
        match &out.form {
            Form::Sparse { indices, values } => (indices, values),
            Form::Dense { values, .. } => (&[], values),
        }
    }

    #[test]
    fn peer_counts_and_blocks_are_checked_before_use() {
        let (dim, p) = (1024, 4);
        // Width of every partition: 256.
        for (word, ok) in [
            (256u64.to_le_bytes().to_vec(), true),
            (0u64.to_le_bytes().to_vec(), true),
            (257u64.to_le_bytes().to_vec(), false),
            (u64::MAX.to_le_bytes().to_vec(), false),
            (vec![1; 7], false),
            (vec![1; 9], false),
            (vec![], false),
        ] {
            match parse_count(&word, 1, dim, p) {
                Ok(_) if ok => {}
                Err(CollError::Invalid(_)) if !ok => {}
                other => panic!("{word:?}: {other:?}"),
            }
        }
        // Rank 1 owns [256, 512) and announced 3 entries; a result of
        // either form takes its block.
        let block = |pairs: &[(u32, f32)]| SparseStream::from_pairs(dim, pairs).unwrap().encode();
        let good = block(&[(256, 1.0), (300, 2.0), (511, 3.0)]);
        let mut out = assembly([2, 3, 0, 1], None);
        assert_eq!(out.place(1, &good, dim, p).unwrap(), 3);
        assert_eq!(&slabs(&out).0[2..5], &[256, 300, 511]);
        assert_eq!(&slabs(&out).1[2..5], &[1.0, 2.0, 3.0]);
        let mut out = assembly([2, 3, 0, 1], Some(dim));
        assert_eq!(out.place(1, &good, dim, p).unwrap(), 3);
        let placed = SparseStream::from_dense(slabs(&out).1.to_vec());
        assert_eq!(
            placed.to_dense_vec(),
            SparseStream::decode(&good).unwrap().to_dense_vec()
        );
        let mut dense = SparseStream::<f32>::zeros(3);
        dense.densify();
        for (what, frame) in [
            ("one entry short", block(&[(256, 1.0), (300, 2.0)])),
            (
                "one entry over",
                block(&[(256, 1.0), (300, 2.0), (301, 1.0), (511, 3.0)]),
            ),
            (
                "below the partition",
                block(&[(255, 1.0), (300, 2.0), (511, 3.0)]),
            ),
            (
                "past the partition",
                block(&[(256, 1.0), (300, 2.0), (512, 3.0)]),
            ),
            (
                "another dimension",
                SparseStream::from_pairs(2048, &[(256, 1.0f32), (300, 2.0), (511, 3.0)])
                    .unwrap()
                    .encode(),
            ),
            ("dense", dense.encode()),
            ("truncated", good.slice(0..good.len() - 1)),
        ] {
            for form in [None, Some(dim)] {
                match assembly([2, 3, 0, 1], form).place(1, &frame, dim, p) {
                    Err(CollError::Invalid(_)) => {}
                    other => panic!("{what}, dense {form:?}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn mutated_blocks_never_panic_the_placement() {
        let (dim, p) = (1024, 4);
        // A run and one far entry, and blocks at 20 % and 55 % density:
        // Elias–Fano indices of 6, 2 and 0 low bits.
        let run = [(300, 1.0f32), (301, -2.0), (302, 0.5), (500, 4.0)];
        let parts = [
            SparseStream::from_pairs(dim, &run).unwrap(),
            random_sparse::<f32>(dim, 200, 9).restrict(256, 512),
            random_sparse::<f32>(dim, 564, 10).restrict(256, 512),
        ];
        let valid = parts.each_ref().map(|part| part.encode().to_vec());
        let mut rng = sparcml_stream::XorShift64::new(0xb10c);
        for i in 0..4000 {
            let (part, mut bytes) = (&parts[i / 2 % 3], valid[i / 2 % 3].clone());
            match rng.next_u64() % 4 {
                0 => bytes.truncate(rng.next_u64() as usize % (bytes.len() + 1)),
                1 => bytes.extend((0..rng.next_u64() % 9).map(|_| rng.next_u64() as u8)),
                _ => {}
            }
            for _ in 0..rng.next_u64() % 4 {
                if !bytes.is_empty() {
                    let at = rng.next_u64() as usize % bytes.len();
                    bytes[at] ^= 1 << (rng.next_u64() % 8);
                }
            }
            // Half the cases announce a count the frame may not hold, and
            // every other pair of cases places into a dense result.
            let count = part.nnz() + usize::from(i % 2 == 1);
            let form = (i % 4 >= 2).then_some(dim);
            let mut out = assembly([0, count, 0, 0], form);
            // Ok or a typed error — and an Ok placed the announced count
            // of strictly increasing indices inside rank 1's partition,
            // from the one frame that encodes them.
            let Ok(n) = out.place(1, &bytes, dim, p) else {
                continue;
            };
            assert_eq!(n, count);
            let decoded = SparseStream::<f32>::decode(&bytes).unwrap();
            let (indices, values) = match form {
                Some(_) => (decoded.sparse_view().unwrap().indices(), slabs(&out).1),
                None => slabs(&out),
            };
            assert!(indices.windows(2).all(|w| w[0] < w[1]));
            assert!(indices.iter().all(|&i| (256..512).contains(&i)));
            let bits = |v: &[f32]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            if form.is_some() {
                assert_eq!(bits(values), bits(&decoded.to_dense_vec()), "case {i}");
            } else {
                let mut again = Vec::new();
                let view = sparcml_stream::SparseView::new(indices, values);
                SparseStream::encode_sparse_slice_into(dim, view, &mut again);
                assert_eq!(again, bytes, "case {i}");
            }
        }
    }

    #[test]
    fn mutated_split_frames_never_panic_or_hang_the_owner() {
        // P = 2: rank 0 sends its split frame to rank 1 mutated, then runs
        // the rest of the schedule honestly. Rank 1 owns [512, 1024): it
        // ends in Ok or a typed error, never a panic or a hang, and an Ok
        // is a valid stream. The valid frames are a sparse sub-range and a
        // dense one, non-zero only inside the window.
        let dim = 1024;
        let ins = [
            random_sparse::<f32>(dim, 200, 3),
            random_sparse::<f32>(dim, 200, 4),
        ];
        let part = ins[0].restrict(512, 1024);
        let mut dense = part.clone();
        dense.densify();
        let valid = [part.encode().to_vec(), dense.encode().to_vec()];
        let mut rng = sparcml_stream::XorShift64::new(0x5b17);
        let (mut accepted, mut rejected) = (0, 0);
        for case in 0..4000 {
            let mut frame = valid[case % valid.len()].clone();
            match rng.next_u64() % 4 {
                0 => frame.truncate(rng.next_u64() as usize % (frame.len() + 1)),
                1 => frame.extend((0..rng.next_u64() % 9).map(|_| rng.next_u64() as u8)),
                _ => {}
            }
            for _ in 0..rng.next_u64() % 4 {
                if !frame.is_empty() {
                    let at = rng.next_u64() as usize % frame.len();
                    frame[at] ^= 1 << (rng.next_u64() % 8);
                }
            }
            let mut outs = run_cluster(2, CostModel::zero(), |ep| {
                let pool = &mut BufferPool::new();
                if ep.rank() == 1 {
                    return Some(ssar_split_allgather(ep, &ins[1], &Default::default(), pool));
                }
                let op_id = ep.next_op_id();
                let split = tag(op_id, subtag::SPLIT);
                ep.send(1, split, Bytes::from(frame.clone())).unwrap();
                // The villain's own half fails once the owner has left.
                let _ = ssar_receive_half(ep, &ins[0], &Default::default(), op_id, op_id, pool);
                None
            });
            match outs.pop().flatten().expect("the owner reports") {
                Ok(out) => {
                    out.check_invariants().unwrap();
                    accepted += 1;
                }
                Err(CollError::Invalid(_) | CollError::Stream(_)) => rejected += 1,
                Err(other) => panic!("case {case}: {other:?}"),
            }
        }
        assert!(accepted > 0 && rejected > 0, "{accepted} / {rejected}");
    }

    fn quantized(bits: u8) -> AllreduceConfig {
        AllreduceConfig {
            quant: Some(QsgdConfig {
                bits,
                bucket_size: 256,
                ..QsgdConfig::paper_default()
            }),
            ..Default::default()
        }
    }

    #[test]
    fn quantized_gather_is_close_and_the_same_on_every_rank() {
        // Quantization is stochastic but happens once per partition owner,
        // so every rank holds the same dense result, each value within a
        // bucket's scale over the levels of the exact sum.
        let p = 4;
        let dim = 4096;
        let ins: Vec<SparseStream<f32>> = (0..p)
            .map(|r| random_sparse(dim, 400, 77 + r as u64))
            .collect();
        let expect = reference_sum(&ins);
        let cfg = quantized(8);
        let outs = run_cluster(p, CostModel::zero(), |ep| {
            ssar_split_allgather(ep, &ins[ep.rank()], &cfg, &mut BufferPool::new()).unwrap()
        });
        let max_abs = expect.iter().fold(0.0f32, |m, v| m.max(v.abs()));
        for out in &outs {
            assert!(out.is_dense());
            assert_eq!(out, &outs[0]);
            for (g, e) in out.to_dense_vec().iter().zip(expect.iter()) {
                assert!((g - e).abs() <= max_abs / 127.0 + 1e-3, "{g} vs {e}");
            }
        }
    }

    #[test]
    fn quantization_shrinks_the_gather() {
        // 68 % fill: the exact gather sends bitmap-indexed blocks of
        // ≈ 2.85 B a slot, the 4-bit one half a byte a slot and its scales;
        // the split stage is the same.
        let p = 4;
        let dim = 1 << 16;
        let ins: Vec<SparseStream<f32>> = (0..p)
            .map(|r| random_sparse(dim, dim / 4, r as u64))
            .collect();
        let bytes_for = |cfg: AllreduceConfig| {
            let stats = run_cluster(p, CostModel::zero(), |ep| {
                ssar_split_allgather(ep, &ins[ep.rank()], &cfg, &mut BufferPool::new()).unwrap();
                ep.stats().bytes_sent
            });
            stats.iter().sum::<u64>()
        };
        let exact = bytes_for(AllreduceConfig::default());
        let q4 = bytes_for(quantized(4));
        assert!(q4 * 2 < exact, "exact {exact} vs 4-bit {q4}");
    }

    /// `k` indices of `dim`, one uniform draw from each of `k` buckets
    /// that tile it — a uniform support's fill-in without a hash set.
    fn spread(dim: usize, k: usize, seed: u64) -> SparseStream<f32> {
        let mut rng = XorShift64::new(seed);
        let pairs: Vec<(u32, f32)> = (0..k)
            .map(|j| {
                let (lo, hi) = (j * dim / k, (j + 1) * dim / k);
                (lo as u32 + rng.next_below((hi - lo) as u64) as u32, 1.0)
            })
            .collect();
        SparseStream::from_pairs(dim, &pairs).unwrap()
    }

    #[test]
    fn assembly_overlaps_the_gather_in_either_form() {
        // Aries, N = 2^20, virtual µs. Each gathered block is placed while
        // the next allgather frame flies. Up to δ the owner drains its
        // window behind round 0's frame: at P = 8 and k = 1e4 it reads
        // 106.2 (124 summing in a merge tournament). Past δ (the other
        // rows but P = 12 at k = 1e4) the own block is in place and
        // nothing is drained: P = 8 reads 657.4 at k = 1e5 (701.5 with a
        // sparse result) and 1 232.6 at k = 3e5 (1 284.9 with dense
        // blocks). P = 5 and 12 take the ring allgather.
        let dim = 1 << 20;
        for (p, k, bound_us) in [
            (8usize, 100_000usize, 665.0),
            (8, 10_000, 108.0),
            (5, 100_000, 545.0),
            (12, 10_000, 165.0),
            (8, 300_000, 1_245.0),
            (5, 300_000, 1_100.0),
            (12, 100_000, 845.0),
        ] {
            let ins: Vec<SparseStream<f32>> =
                (0..p).map(|r| spread(dim, k, 77 + r as u64)).collect();
            let t = max_virtual_time(p, CostModel::aries(), |ep| {
                let (input, pool) = (&ins[ep.rank()], &mut BufferPool::new());
                ssar_split_allgather(ep, input, &Default::default(), pool).unwrap();
            }) * 1e6;
            assert!(t <= bound_us, "P={p} k={k}: {t} µs");
        }
    }
}
