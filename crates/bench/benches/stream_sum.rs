//! Criterion: sparse stream summation kernels (§5.1).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sparcml_stream::{random_sparse, DensityPolicy, PartRange, SparseStream, WindowSum};

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
    targets = bench_sum, bench_fold_many
}
criterion_main!(benches);
