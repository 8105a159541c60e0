//! The engine's control plane: the batch-boundary agreement.
//!
//! Before executing anything, every rank's engine must agree on *which*
//! jobs form the next batch — queues drain at different speeds, and a
//! rank scheduling a job its peers have not submitted yet would deadlock
//! the collective. The agreement is a min-reduction of each rank's
//! submitted-job count: since submissions happen in program order, the
//! set of jobs a rank holds is always a prefix, and the common prefix
//! (the minimum count) is exactly the set every rank can execute.
//!
//! The same round ([`agree_batch`], the one agreement function) also
//! carries the density facts the bucket planner needs — the non-zero
//! sums the engine measured on its own buckets and per-job stored
//! lengths — so the density-aware [`crate::FusionPolicy`] costs no extra
//! control latency. With fusion off the planner ignores them and the
//! frames are merely 8 bytes per pending job longer than they need be.
//!
//! The round runs on a reserved *control* [`TagBlock`]
//! (`TagBlock::control`), so its frames can never be confused with any
//! collective's data traffic — this is the engine-side consumer of the
//! tag-block allocator. A fresh block per round (drawn from a
//! deterministic [`sparcml_net::TagBlockAllocator`]) keeps successive
//! agreements disjoint too.

use bytes::Bytes;
use sparcml_net::{CommError, TagBlock, Transport};

/// Sub-tag for rank→root batch frames (job count + reduced nnz sums +
/// per-job nnz).
const SUB_BATCH_GATHER: u64 = 2;
/// Sub-tag for the root→rank count/fill/nnz broadcast.
const SUB_BATCH_RESULT: u64 = 3;

fn encode_u64s(words: impl IntoIterator<Item = u64>) -> Bytes {
    let mut buf = Vec::new();
    for w in words {
        buf.extend_from_slice(&w.to_le_bytes());
    }
    Bytes::from(buf)
}

/// Decodes a frame of ≥ `min_words` little-endian u64 words; the exact
/// length is validated by the caller against the word the frame itself
/// carries (job counts differ per rank, so frames are variable-length).
fn decode_u64s(payload: &[u8], min_words: usize) -> Result<Vec<u64>, CommError> {
    if !payload.len().is_multiple_of(8) || payload.len() < min_words * 8 {
        return Err(CommError::Protocol(
            "malformed engine batch agreement frame".into(),
        ));
    }
    Ok(payload
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("chunk of 8")))
        .collect())
}

/// The batch-boundary control round: agrees on the common submitted-job
/// prefix *and* the density facts the planner needs, in a single star
/// over rank 0. Every rank must call this with the same `block`.
///
/// Each rank contributes its submitted-job count, the non-zero sums of
/// the buckets its engine has reduced so far (result nnz out, stored
/// lengths in), and its pending jobs' stored lengths (`nnz[i]` is job
/// `executed + i` on every rank — `executed` advances in lockstep, so
/// the vectors align). Rank 0 takes the minimum count, sums the
/// sums, elementwise-maxes the nnz over the agreed prefix, and
/// broadcasts the count, the measured *fill factor* —
/// `Σoutput_nnz / Σinput_nnz` clamped to `[1, P]`, defaulting to `P`
/// (zero assumed overlap, the conservative prior) while nothing has
/// been reduced yet — and the agreed per-job nnz of the batch.
pub(crate) fn agree_batch<T: Transport>(
    tp: &mut T,
    block: TagBlock,
    executed: u64,
    n_local: u64,
    out_nnz_sum: u64,
    in_nnz_sum: u64,
    nnz: &[u64],
) -> Result<(u64, f64, Vec<u64>), CommError> {
    debug_assert_eq!(
        nnz.len() as u64,
        n_local - executed,
        "one nnz per pending job"
    );
    let p = tp.size();
    let fill_of = |out: u64, inp: u64| {
        if inp == 0 {
            p as f64
        } else {
            (out as f64 / inp as f64).clamp(1.0, p as f64)
        }
    };
    if p == 1 {
        return Ok((n_local, fill_of(out_nnz_sum, in_nnz_sum), nnz.to_vec()));
    }
    let rank = tp.rank();
    if rank == 0 {
        let mut n_common = n_local;
        let mut out_sum = out_nnz_sum;
        let mut in_sum = in_nnz_sum;
        let mut agreed = nnz.to_vec();
        for src in 1..p {
            let payload = tp.recv(src, block.tag(SUB_BATCH_GATHER))?;
            let words = decode_u64s(&payload, 3)?;
            let peer_n = words[0];
            if peer_n < executed || words.len() as u64 != 3 + (peer_n - executed) {
                return Err(CommError::Protocol(
                    "malformed engine batch agreement frame".into(),
                ));
            }
            n_common = n_common.min(peer_n);
            out_sum = out_sum.saturating_add(words[1]);
            in_sum = in_sum.saturating_add(words[2]);
            for (a, &w) in agreed.iter_mut().zip(&words[3..]) {
                *a = (*a).max(w);
            }
        }
        agreed.truncate((n_common - executed) as usize);
        let fill = fill_of(out_sum, in_sum);
        let frame = encode_u64s(
            [n_common, fill.to_bits()]
                .into_iter()
                .chain(agreed.iter().copied()),
        );
        for dst in 1..p {
            tp.send(dst, block.tag(SUB_BATCH_RESULT), frame.clone())?;
        }
        Ok((n_common, fill, agreed))
    } else {
        let frame = encode_u64s(
            [n_local, out_nnz_sum, in_nnz_sum]
                .into_iter()
                .chain(nnz.iter().copied()),
        );
        tp.send(0, block.tag(SUB_BATCH_GATHER), frame)?;
        let payload = tp.recv(0, block.tag(SUB_BATCH_RESULT))?;
        let words = decode_u64s(&payload, 2)?;
        let n_common = words[0];
        if n_common < executed || words.len() as u64 != 2 + (n_common - executed) {
            return Err(CommError::Protocol(
                "malformed engine batch agreement frame".into(),
            ));
        }
        Ok((n_common, f64::from_bits(words[1]), words[2..].to_vec()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparcml_net::{run_cluster, run_thread_cluster, CostModel, TagBlockAllocator};

    /// Agrees on a job count alone: `n` pending jobs of nnz 0, nothing
    /// executed or reduced yet.
    fn agree_count<T: Transport>(tp: &mut T, block: TagBlock, n: u64) -> u64 {
        let nnz = vec![0; n as usize];
        agree_batch(tp, block, 0, n, 0, 0, &nnz).unwrap().0
    }

    #[test]
    fn agreement_finds_the_minimum() {
        let mins = run_cluster(5, CostModel::zero(), |ep| {
            let block = TagBlockAllocator::new().next_block();
            agree_count(ep, block, 10 + ep.rank() as u64)
        });
        assert_eq!(mins, vec![10; 5]);
    }

    #[test]
    fn successive_rounds_use_disjoint_blocks() {
        let outs = run_thread_cluster(3, |tp| {
            let mut alloc = TagBlockAllocator::new();
            let a = agree_count(tp, alloc.next_block(), tp.rank() as u64 + 1);
            let b = agree_count(tp, alloc.next_block(), 100 - tp.rank() as u64);
            (a, b)
        });
        assert!(outs.iter().all(|&o| o == (1, 98)));
    }

    #[test]
    fn single_rank_is_trivial() {
        let outs = run_cluster(1, CostModel::zero(), |ep| {
            agree_count(ep, TagBlock::control(0), 7)
        });
        assert_eq!(outs, vec![7]);
    }

    #[test]
    fn batch_agreement_sums_fill_and_maxes_nnz() {
        let outs = run_cluster(4, CostModel::zero(), |ep| {
            let r = ep.rank() as u64;
            let block = TagBlockAllocator::new().next_block();
            // Every rank saw 100 input nnz producing 300 output nnz:
            // fill = 1200/400 = 3, within [1, 4]. Per-job counts differ
            // per rank; the agreement takes the elementwise max.
            agree_batch(ep, block, 0, 2, 300, 100, &[r, 10 - r]).unwrap()
        });
        for (n, fill, nnz) in outs {
            assert_eq!(n, 2);
            assert_eq!(fill, 3.0);
            assert_eq!(nnz, vec![3, 10]);
        }
    }

    #[test]
    fn batch_agreement_truncates_to_the_common_prefix() {
        // Rank 0 has 3 pending jobs, rank 1 only 2: the agreed batch is
        // the 2-job prefix and the broadcast nnz vector matches it.
        let outs = run_thread_cluster(2, |tp| {
            let block = TagBlockAllocator::new().next_block();
            if tp.rank() == 0 {
                agree_batch(tp, block, 4, 7, 0, 0, &[10, 20, 30]).unwrap()
            } else {
                agree_batch(tp, block, 4, 6, 0, 0, &[11, 19]).unwrap()
            }
        });
        for (n, _, nnz) in outs {
            assert_eq!(n, 6);
            assert_eq!(nnz, vec![11, 20]);
        }
    }

    #[test]
    fn batch_agreement_defaults_to_p_without_samples() {
        // Nothing reduced yet (input sum 0 everywhere): the fill factor
        // falls back to P, the zero-overlap conservative prior.
        let outs = run_cluster(3, CostModel::zero(), |ep| {
            let block = TagBlockAllocator::new().next_block();
            agree_batch(ep, block, 0, 1, 0, 0, &[5]).unwrap()
        });
        for (n, fill, nnz) in outs {
            assert_eq!(n, 1);
            assert_eq!(fill, 3.0);
            assert_eq!(nnz, vec![5]);
        }
    }

    #[test]
    fn batch_agreement_clamps_fill_to_one_and_p() {
        // Heavy overlap (output < input) clamps up to 1; a growth ratio
        // past P (impossible for a union, but measurable across mixed
        // dims) clamps down to P.
        let outs = run_thread_cluster(2, |tp| {
            let mut alloc = TagBlockAllocator::new();
            let (_, low, _) = agree_batch(tp, alloc.next_block(), 0, 0, 10, 1000, &[]).unwrap();
            let (_, high, _) = agree_batch(tp, alloc.next_block(), 0, 0, 1000, 10, &[]).unwrap();
            (low, high)
        });
        for (low, high) in outs {
            assert_eq!(low, 1.0);
            assert_eq!(high, 2.0);
        }
    }
}
