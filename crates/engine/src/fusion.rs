//! Bucket planning: which jobs of a batch fuse into one collective, and
//! in what order buckets execute.
//!
//! Planning must be *rank-invariant*: every rank runs it over the same
//! agreed batch and must produce the identical schedule, so decisions may
//! only depend on quantities all ranks share. The fusion thresholds act
//! on each job's **logical dimension** (layer sizes are replicated across
//! data-parallel ranks) and on its **agreed non-zero count** — the raw
//! per-rank nnz drifts under error-feedback Top-k, so the engine's
//! batch-boundary control round (`crate::agree::agree_batch`) takes the
//! elementwise max over the batch's counts and feeds the planner only
//! the agreed values.

/// Knobs controlling how the engine buckets and splits collective jobs.
#[derive(Debug, Clone, PartialEq)]
pub struct FusionPolicy {
    /// Whether consecutive fusable allreduce jobs may share a bucket.
    pub enabled: bool,
    /// Cap on a bucket's cumulative logical dimension (the fused index
    /// space). Also implicitly capped at `u32::MAX`, the index width.
    pub max_fused_elements: usize,
    /// Cap on the number of jobs per bucket.
    pub max_fused_jobs: usize,
    /// Fused buckets whose index space exceeds this are reduced in even
    /// chunks of at most this many indices (bounds peak frame size).
    pub max_chunk_elements: usize,
}

/// Density bound on fused buckets: a job may only join a non-empty bucket
/// while the *projected fused union density* — the measured fill factor
/// times the bucket's summed agreed nnz over its summed dimension, clamped
/// to 1 — stays at or below this. Dense-ish jobs are bandwidth-bound, and
/// fusing them only serializes one huge transfer where unfused jobs could
/// pipeline; singleton buckets are always allowed.
const MAX_FUSED_DENSITY: f64 = 0.5;

impl Default for FusionPolicy {
    fn default() -> Self {
        FusionPolicy {
            enabled: true,
            max_fused_elements: 1 << 26,
            max_fused_jobs: 1024,
            max_chunk_elements: 1 << 22,
        }
    }
}

impl FusionPolicy {
    /// A policy that never fuses (every job is its own bucket).
    pub fn disabled() -> Self {
        FusionPolicy {
            enabled: false,
            ..FusionPolicy::default()
        }
    }
}

/// The rank-invariant facts the planner sees about one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct JobMeta {
    /// Logical dimension of the job's stream.
    pub dim: usize,
    /// Agreed non-zero count (elementwise max across ranks; the local
    /// stored length until the agreement round replaces it).
    pub nnz: usize,
    /// Whether this job may share a bucket: it is an allreduce
    /// (allgathers never fuse).
    pub fusable: bool,
}

/// Groups the batch (given in submission order) into buckets of job
/// positions, in submission order. Consecutive fusable jobs share a
/// bucket up to the policy's element/job/density caps; everything else
/// is a singleton. `fill` is the measured fill factor (expected union
/// nnz over a single rank's nnz, in `[1, P]`) scaling the density
/// projection. Identical on every rank for an identical batch and fill.
pub(crate) fn plan_buckets(batch: &[JobMeta], policy: &FusionPolicy, fill: f64) -> Vec<Vec<usize>> {
    let mut buckets: Vec<Vec<usize>> = Vec::new();
    let mut open: Vec<usize> = Vec::new();
    let mut open_dim: usize = 0;
    let mut open_nnz: usize = 0;
    let fused_cap = policy.max_fused_elements.min(u32::MAX as usize);
    for (pos, meta) in batch.iter().enumerate() {
        if !policy.enabled || !meta.fusable {
            if !open.is_empty() {
                buckets.push(std::mem::take(&mut open));
                open_dim = 0;
                open_nnz = 0;
            }
            buckets.push(vec![pos]);
            continue;
        }
        // Projected density of the bucket if this job joins: the agreed
        // union estimate `fill·Σnnz` over the fused index space, clamped
        // to 1 (a union can never exceed its dimension).
        let joined_dim = open_dim.saturating_add(meta.dim);
        let joined_nnz = open_nnz.saturating_add(meta.nnz);
        let density = if joined_dim == 0 {
            0.0
        } else {
            (fill * joined_nnz as f64 / joined_dim as f64).min(1.0)
        };
        let fits = open.len() < policy.max_fused_jobs
            && (open.is_empty() || (joined_dim <= fused_cap && density <= MAX_FUSED_DENSITY));
        if !fits {
            buckets.push(std::mem::take(&mut open));
            open_dim = 0;
            open_nnz = 0;
        }
        open.push(pos);
        open_dim += meta.dim;
        open_nnz = open_nnz.saturating_add(meta.nnz);
    }
    if !open.is_empty() {
        buckets.push(open);
    }
    buckets
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ar(dim: usize) -> JobMeta {
        JobMeta {
            dim,
            nnz: 0,
            fusable: true,
        }
    }

    fn ar_nnz(dim: usize, nnz: usize) -> JobMeta {
        JobMeta {
            dim,
            nnz,
            fusable: true,
        }
    }

    fn solo(dim: usize) -> JobMeta {
        JobMeta {
            dim,
            nnz: 0,
            fusable: false,
        }
    }

    #[test]
    fn consecutive_fusable_jobs_share_a_bucket() {
        let batch = vec![ar(10), ar(20), ar(30)];
        let buckets = plan_buckets(&batch, &FusionPolicy::default(), 1.0);
        assert_eq!(buckets, vec![vec![0, 1, 2]]);
    }

    #[test]
    fn unfusable_jobs_split_the_run() {
        let batch = vec![ar(10), solo(5), ar(20), ar(30)];
        let buckets = plan_buckets(&batch, &FusionPolicy::default(), 1.0);
        assert_eq!(buckets, vec![vec![0], vec![1], vec![2, 3]]);
    }

    #[test]
    fn element_cap_closes_buckets() {
        let policy = FusionPolicy {
            max_fused_elements: 25,
            ..FusionPolicy::default()
        };
        let batch = vec![ar(10), ar(10), ar(10), ar(10)];
        let buckets = plan_buckets(&batch, &policy, 1.0);
        assert_eq!(buckets, vec![vec![0, 1], vec![2, 3]]);
        // An oversized single job still gets its own bucket (chunking
        // handles it downstream).
        let big = plan_buckets(&[ar(100)], &policy, 1.0);
        assert_eq!(big, vec![vec![0]]);
    }

    #[test]
    fn job_cap_closes_buckets() {
        let policy = FusionPolicy {
            max_fused_jobs: 2,
            ..FusionPolicy::default()
        };
        let batch = vec![ar(1), ar(1), ar(1), ar(1), ar(1)];
        let buckets = plan_buckets(&batch, &policy, 1.0);
        assert_eq!(buckets, vec![vec![0, 1], vec![2, 3], vec![4]]);
    }

    #[test]
    fn disabled_policy_yields_singletons() {
        let batch = vec![ar(10), ar(20)];
        let buckets = plan_buckets(&batch, &FusionPolicy::disabled(), 1.0);
        assert_eq!(buckets, vec![vec![0], vec![1]]);
    }

    #[test]
    fn density_guard_stops_fusing_dense_jobs() {
        // At fill 4 (P = 4, disjoint-ish supports), two 10_000-nnz jobs
        // of dim 65_536 project 4·20_000/131_072 ≈ 0.61 > 0.5: they must
        // not share a bucket, while each alone stays a valid singleton.
        let batch = vec![ar_nnz(1 << 16, 10_000), ar_nnz(1 << 16, 10_000)];
        let buckets = plan_buckets(&batch, &FusionPolicy::default(), 4.0);
        assert_eq!(buckets, vec![vec![0], vec![1]]);
        // The same shapes with heavy measured overlap (fill ≈ 1) fuse.
        let buckets = plan_buckets(&batch, &FusionPolicy::default(), 1.0);
        assert_eq!(buckets, vec![vec![0, 1]]);
    }

    #[test]
    fn density_guard_splits_mixed_batches_not_sparse_runs() {
        // Sparse layers keep fusing; the dense pair in the middle is cut
        // out into singletons (4·30_100/196_608 ≈ 0.61 already blocks the
        // first dense join).
        let sparse = ar_nnz(1 << 16, 100);
        let dense = ar_nnz(1 << 16, 30_000);
        let batch = vec![sparse, sparse, dense, dense, sparse];
        let buckets = plan_buckets(&batch, &FusionPolicy::default(), 4.0);
        assert_eq!(buckets, vec![vec![0, 1], vec![2], vec![3], vec![4]]);
    }

    #[test]
    fn density_guard_allows_oversized_singletons() {
        // A single effectively-dense job still gets a bucket — the guard
        // only blocks joins.
        let batch = vec![ar_nnz(1 << 10, 1 << 10)];
        let buckets = plan_buckets(&batch, &FusionPolicy::default(), 8.0);
        assert_eq!(buckets, vec![vec![0]]);
    }
}
