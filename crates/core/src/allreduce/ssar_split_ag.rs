//! `SSAR_Split_allgather` — split + sparse allgather allreduce (§5.3.2).
//!
//! Phase 1 (*split*): the index space `[0, N)` is partitioned uniformly
//! across ranks; every rank splits its sparse vector and sends each
//! subrange directly to its owner. Each owner sums the `P` sub-vectors of
//! its partition — its own and the `P − 1` it receives, in rank order —
//! by scattering every entry once into a [`WindowSum`]: a dense window over
//! the partition with an occupancy bitmap ([`scatter_split`], the one
//! split-phase scatter loop, which `DSAR_Split_allgather` and
//! `reduce_scatter` share). An owner taking in `n` entries pays `n` element
//! operations whatever `P` is (a merge tournament pays up to
//! `n·⌈log2 P⌉`), each frame is scattered as it arrives while later ones
//! are still in flight, and every slot sums in rank order, so results are
//! the sequential reference sum bit for bit, on every transport. The window
//! never densifies: the partition stays sparse for the concatenating
//! allgather at any fill-in.
//!
//! Phase 2 (*sparse allgather*): partition results are gathered to all
//! ranks with a concatenating sparse allgather (partitions are disjoint
//! index ranges, so the "sum" is concatenation, §5.1). Each owner first
//! `isend`s its partition's entry count to every peer as one 8-byte word,
//! then encodes its frame straight from the window's bitmap, so the block
//! is on the wire before its entries are extracted. Every rank sizes the
//! result slabs exactly and places each gathered block at its final
//! offset as it lands — while the allgather's next frame is in flight
//! ([`crate::op::allgather_bytes_with`]). The own block is placed by
//! draining the window into its offset, after round 0's frame has left:
//! assembly costs `γ` per element, `γ·K` in all plus the bitmap words the
//! drain visits, and overlaps the transfer instead of following it.
//!
//! Latency is `L2(P) = (P−1)α + log2(P)α` (the count words' isends cost
//! `(P−1)·isend_alpha_fraction·α` more); bandwidth lies between
//! `2·(P−1)/P·k·βs` and `P·k·βs`.

use bytes::Bytes;
use sparcml_net::Transport;
use sparcml_stream::{
    partition_range, Scalar, SparseStream, SparseVec, StreamError, SumStats, WindowSum, WireFrame,
};

use crate::error::CollError;
use crate::op::{
    allgather_bytes_with, recv_stream, recv_tracked, send_stream_range, subtag, sum_charged, tag,
    BufferPool,
};

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
/// into its partition's [`WindowSum`] ([`scatter_split`]), in rank order:
/// every slot then sums its entries as the sequential reference does, so
/// the partition is that sum bit for bit.
pub(crate) fn reduce_partition<T: Transport, V: Scalar>(
    ep: &mut T,
    input: &SparseStream<V>,
    op_id: u64,
    pool: &mut BufferPool,
) -> Result<WindowSum<V>, CollError> {
    let (p, dim) = (ep.size(), input.dim());
    let mut window = WindowSum::new(dim, partition_range(dim, p, ep.rank()));
    scatter_split(ep, input, op_id, 0..p, pool, |part| window.add(part))?;
    Ok(window)
}

/// Sparse split + sparse allgather allreduce. Works for any `P ≥ 1`.
pub(crate) fn ssar_split_allgather<T: Transport, V: Scalar>(
    ep: &mut T,
    input: &SparseStream<V>,
    pool: &mut BufferPool,
) -> Result<SparseStream<V>, CollError> {
    let p = ep.size();
    if p == 1 {
        return Ok(input.clone());
    }
    let op_id = ep.next_op_id();
    send_split_steps(ep, input, op_id, 1..p, pool)?;
    ssar_receive_half(ep, input, op_id, op_id, pool)
}

/// Everything of `SSAR_Split_allgather` after the split-phase sends: the
/// partition reduced from the frames tagged `split_op`, then the sparse
/// allgather under `gather_op`. The pinned schedule passes its one op id
/// twice; `Auto`, whose pass sent the split frames, a fresh one for the
/// allgather.
pub(crate) fn ssar_receive_half<T: Transport, V: Scalar>(
    ep: &mut T,
    input: &SparseStream<V>,
    split_op: u64,
    gather_op: u64,
    pool: &mut BufferPool,
) -> Result<SparseStream<V>, CollError> {
    let (p, rank, dim) = (ep.size(), ep.rank(), input.dim());
    let mut window = reduce_partition(ep, input, split_op, pool)?;
    let own = window.len();
    // Every peer learns this partition's entry count before its block, so
    // it can size the result once and copy each block to its final offset
    // as it lands. The words go out with isend: their α overlaps the
    // allgather's first round.
    let count_tag = tag(gather_op, subtag::COUNT);
    for step in 1..p {
        let word = Bytes::copy_from_slice(&(own as u64).to_le_bytes());
        ep.isend((rank + step) % p, count_tag, word)?;
    }
    // The frame comes straight off the bitmap (uncharged, as every encode
    // is); extracting the entries waits for the own block's placement.
    let mut buf = pool.acquire();
    window.encode_into(&mut buf);
    let mut result: Option<Assembly<V>> = None;
    allgather_bytes_with(ep, gather_op, Bytes::from(buf), pool, |ep, src, block| {
        // The first placement is the own block's, after round 0's frame
        // left: by then the peers' count words are in, and the drain
        // overlaps that frame's flight.
        let out = match &mut result {
            Some(out) => out,
            None => result.insert(Assembly::sized(ep, count_tag, own, dim)?),
        };
        let placed = if src == rank {
            let (indices, values) = out.slabs(rank);
            let (entries, words) = window.drain_into(indices, values);
            entries + words
        } else {
            out.place(src, block, dim, p)?
        };
        ep.compute(placed);
        Ok(())
    })?;
    let Assembly {
        indices, values, ..
    } = result.expect("the own block is always placed");
    Ok(SparseStream::from_sorted(
        dim,
        SparseVec::from_slabs(indices, values),
    )?)
}

/// The gathered result of `SSAR_Split_allgather` under construction: the
/// two slabs, sized exactly from every partition's entry count, and where
/// each partition's entries start in them. Partitions are increasing index
/// ranges in rank order, so placing every block at its rank's offset
/// leaves the slabs sorted.
struct Assembly<V: Scalar> {
    indices: Vec<u32>,
    values: Vec<V>,
    /// Partition `r` fills `offsets[r]..offsets[r + 1]`.
    offsets: Vec<usize>,
}

impl<V: Scalar> Assembly<V> {
    /// Takes the `P − 1` peer count words tagged `count_tag` and sizes the
    /// slabs. A count is peer-controlled: each is checked against its
    /// sender's partition width before anything is sized from it, so the
    /// slabs never exceed `N` entries.
    fn sized<T: Transport>(
        ep: &mut T,
        count_tag: u64,
        own: usize,
        dim: usize,
    ) -> Result<Self, CollError> {
        let (p, rank) = (ep.size(), ep.rank());
        let mut offsets = Vec::with_capacity(p + 1);
        offsets.push(0);
        for src in 0..p {
            let count = if src == rank {
                own
            } else {
                parse_count(&recv_tracked(ep, src, count_tag)?, src, dim, p)?
            };
            offsets.push(offsets[src] + count);
        }
        let total = offsets[p];
        Ok(Assembly {
            indices: vec![0; total],
            values: vec![V::zero(); total],
            offsets,
        })
    }

    /// The two slab windows of partition `src`.
    fn slabs(&mut self, src: usize) -> (&mut [u32], &mut [V]) {
        let at = self.offsets[src]..self.offsets[src + 1];
        (&mut self.indices[at.clone()], &mut self.values[at])
    }

    /// Decodes partition `src`'s gathered block straight into its window.
    /// The frame must hold exactly the count `src` announced, in the
    /// logical dimension, every index inside `src`'s partition. Returns
    /// the entries placed.
    fn place(
        &mut self,
        src: usize,
        block: &[u8],
        dim: usize,
        p: usize,
    ) -> Result<usize, CollError> {
        let frame = WireFrame::<V>::parse(block)?;
        let (indices, values) = self.slabs(src);
        if frame.is_dense() || frame.dim() != dim || frame.stored_len() != indices.len() {
            return Err(CollError::Invalid(format!(
                "partition block from rank {src} is not the {} sparse entries of dim {dim} it announced",
                indices.len()
            )));
        }
        frame.read_sparse_into(indices, values)?;
        // Indices come out strictly increasing: the ends bound the rest.
        let range = partition_range(dim, p, src);
        if let (Some(&first), Some(&last)) = (indices.first(), indices.last()) {
            if first < range.lo || last >= range.hi {
                return Err(CollError::Invalid(format!(
                    "partition block from rank {src} holds indices {first}..={last} outside [{}, {})",
                    range.lo, range.hi
                )));
            }
        }
        Ok(indices.len())
    }
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
    use sparcml_stream::random_sparse;

    fn check(p: usize, dim: usize, nnz: usize) {
        let ins: Vec<SparseStream<f32>> = (0..p)
            .map(|r| random_sparse(dim, nnz, 7 + r as u64))
            .collect();
        let expect = reference_sum(&ins);
        let outs = run_cluster(p, CostModel::zero(), |ep| {
            ssar_split_allgather(ep, &ins[ep.rank()], &mut BufferPool::new()).unwrap()
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
            ssar_split_allgather(ep, &base, &mut BufferPool::new()).unwrap()
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
            let out = ssar_split_allgather(ep, &input, &mut BufferPool::new()).unwrap();
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
            ssar_split_allgather(ep, &input, &mut BufferPool::new()).unwrap();
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
            ssar_split_allgather(ep, &input, &mut BufferPool::new()).unwrap();
        });
        assert!(t <= 615e-6, "t = {t} s");
    }

    /// An assembly of P = 4 partitions of `dim` with room for `counts`.
    fn assembly(counts: [usize; 4]) -> Assembly<f32> {
        let mut offsets = vec![0];
        for c in counts {
            offsets.push(offsets.last().unwrap() + c);
        }
        let total = offsets[4];
        Assembly {
            indices: vec![0; total],
            values: vec![0.0; total],
            offsets,
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
        // Rank 1 owns [256, 512) and announced 3 entries.
        let block = |pairs: &[(u32, f32)]| SparseStream::from_pairs(dim, pairs).unwrap().encode();
        let mut out = assembly([2, 3, 0, 1]);
        let good = block(&[(256, 1.0), (300, 2.0), (511, 3.0)]);
        assert_eq!(out.place(1, &good, dim, p).unwrap(), 3);
        assert_eq!(&out.indices[2..5], &[256, 300, 511]);
        assert_eq!(&out.values[2..5], &[1.0, 2.0, 3.0]);
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
        ] {
            match assembly([2, 3, 0, 1]).place(1, &frame, dim, p) {
                Err(CollError::Invalid(_)) => {}
                other => panic!("{what}: {other:?}"),
            }
        }
    }

    #[test]
    fn mutated_blocks_never_panic_the_placement() {
        let (dim, p) = (1024, 4);
        // A run and one far entry, gap-coded, and blocks at 20 % and 55 %
        // density: Elias–Fano indices of 2 and 0 low bits.
        let run = [(300, 1.0f32), (301, -2.0), (302, 0.5), (500, 4.0)];
        let parts = [
            SparseStream::from_pairs(dim, &run).unwrap(),
            random_sparse::<f32>(dim, 200, 9).restrict(256, 512),
            random_sparse::<f32>(dim, 564, 10).restrict(256, 512),
        ];
        let valid = parts.each_ref().map(|part| part.encode().to_vec());
        let tags = valid.each_ref().map(|frame| frame[3]);
        assert_eq!(tags, [0, 2, 2], "representation tags");
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
            // Half the cases announce a count the frame may not hold.
            let count = part.nnz() + usize::from(i % 2 == 1);
            let mut out = assembly([0, count, 0, 0]);
            // Ok or a typed error — and an Ok placed the announced count
            // of strictly increasing indices inside rank 1's partition,
            // from the one frame that encodes them.
            if let Ok(n) = out.place(1, &bytes, dim, p) {
                assert_eq!(n, count);
                assert!(out.indices.windows(2).all(|w| w[0] < w[1]));
                assert!(out.indices.iter().all(|&i| (256..512).contains(&i)));
                let mut again = Vec::new();
                let view = sparcml_stream::SparseView::new(&out.indices, &out.values);
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
                    return Some(ssar_split_allgather(ep, &ins[1], pool));
                }
                let op_id = ep.next_op_id();
                let split = tag(op_id, subtag::SPLIT);
                ep.send(1, split, Bytes::from(frame.clone())).unwrap();
                // The villain's own half fails once the owner has left.
                let _ = ssar_receive_half(ep, &ins[0], op_id, op_id, pool);
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
}
