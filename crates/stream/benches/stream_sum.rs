//! Criterion: sparse stream summation kernels (§5.1).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sparcml_stream::{
    random_sparse, uniform_indices, DensityPolicy, PartRange, SparseStream, SparseVec, WindowSum,
    XorShift64,
};

fn bench_sum(c: &mut Criterion) {
    let mut group = c.benchmark_group("stream_sum");
    let dim = 1 << 20;
    for nnz in [1 << 8, 1 << 12, 1 << 16] {
        group.bench_with_input(BenchmarkId::new("sparse+sparse", nnz), &nnz, |b, &nnz| {
            let x = random_sparse::<f32>(dim, nnz, 1);
            let y = random_sparse::<f32>(dim, nnz, 2);
            b.iter(|| {
                let mut acc = x.clone();
                acc.add_assign_with(&y, &DensityPolicy::never_densify())
                    .unwrap();
                acc.nnz()
            });
        });
    }
    group.bench_function("dense+sparse", |b| {
        let mut x = random_sparse::<f32>(dim, 1 << 12, 3);
        x.densify();
        let y = random_sparse::<f32>(dim, 1 << 12, 4);
        b.iter(|| {
            let mut acc = x.clone();
            acc.add_assign(&y).unwrap();
            acc.is_dense()
        });
    });
    group.bench_function("dense+dense", |b| {
        let x = SparseStream::from_dense(vec![1.0f32; dim]);
        let y = SparseStream::from_dense(vec![2.0f32; dim]);
        b.iter(|| {
            let mut acc = x.clone();
            acc.add_assign(&y).unwrap();
            acc.dim()
        });
    });
    group.finish();
}

/// The merge kernel alone on lopsided operands: a 160 000-entry side and
/// one `ratio` times shorter, with independent uniform supports in
/// N = 2^20, merged into fresh slabs as `add_sparse` merges them. Then
/// the serve shape: an 8 192-entry contribution into a 165 000-entry
/// accumulator that already holds every one of its indices.
fn bench_lopsided(c: &mut Criterion) {
    let mut group = c.benchmark_group("lopsided");
    let dim = 1 << 20;
    let long_len = 160_000;
    let long = random_sparse::<f32>(dim, long_len, 20);
    for ratio in [1, 4, 8, 16, 32] {
        let short = random_sparse::<f32>(dim, long_len / ratio, 21);
        group.bench_with_input(BenchmarkId::new("sparse+sparse", ratio), &ratio, |b, _| {
            let (l, s) = (long.sparse_view().unwrap(), short.sparse_view().unwrap());
            b.iter(|| {
                let mut out = SparseVec::new();
                out.extend_merged(l, s)
            });
        });
    }
    group.bench_function("serve/8192-into-165000", |b| {
        let acc = random_sparse::<f32>(dim, 165_000, 22);
        let mut rng = XorShift64::new(23);
        let held = acc.sparse_view().unwrap().indices();
        let contribution: Vec<(u32, f32)> = uniform_indices(held.len(), 8192, &mut rng)
            .into_iter()
            .map(|k| (held[k as usize], 1.0))
            .collect();
        let contribution = SparseStream::from_pairs(dim, &contribution).unwrap();
        let (a, s) = (
            acc.sparse_view().unwrap(),
            contribution.sparse_view().unwrap(),
        );
        b.iter(|| {
            let mut out = SparseVec::new();
            out.extend_merged(a, s)
        });
    });
    group.finish();
}

/// What one owner of a split phase sums: 8 operands holding 10 000
/// entries in total, each restricted to the same `N/8` partition, summed
/// as the split phase runs it: a fresh window per iteration, every
/// operand scattered into it, then drained into fresh slabs.
fn bench_fold_many(c: &mut Criterion) {
    let mut group = c.benchmark_group("fold-many");
    let dim = 1 << 20;
    group.bench_with_input(BenchmarkId::new("window_sum", 8), &8, |b, &m| {
        let range = PartRange {
            lo: 0,
            hi: (dim / m) as u32,
        };
        let parts: Vec<SparseStream<f32>> = (0..m)
            .map(|r| random_sparse::<f32>(dim, 10_000, 10 + r as u64).restrict(range.lo, range.hi))
            .collect();
        b.iter(|| {
            let mut sum = WindowSum::new(dim, range);
            for part in &parts {
                sum.add(part).unwrap();
            }
            let (mut indices, mut values) = (vec![0; sum.len()], vec![0.0f32; sum.len()]);
            sum.drain_into(&mut indices, &mut values).0
        });
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_sum, bench_lopsided, bench_fold_many
}
criterion_main!(benches);
