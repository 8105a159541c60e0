//! Criterion: sparse stream summation kernels (§5.1).

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use sparcml_stream::{
    random_sparse, uniform_indices, DensityPolicy, PartRange, RankedSum, SparseStream, SparseVec,
    WindowSum, XorShift64,
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
/// operand scattered into it, then drained into fresh slabs. Then the
/// owner's frame of that sum, written from the bitmap (≈ 7.6 % of the
/// window, an Elias–Fano index of 3 low bits), per entry.
fn bench_fold_many(c: &mut Criterion) {
    let mut group = c.benchmark_group("fold-many");
    let (dim, m) = (1 << 20, 8);
    let range = PartRange {
        lo: 0,
        hi: (dim / m) as u32,
    };
    let parts: Vec<SparseStream<f32>> = (0..m)
        .map(|r| random_sparse::<f32>(dim, 10_000, 10 + r as u64).restrict(range.lo, range.hi))
        .collect();
    group.bench_with_input(BenchmarkId::new("window_sum", m), &m, |b, _| {
        b.iter(|| {
            let mut sum = WindowSum::new(dim, range);
            for part in &parts {
                sum.add(part).unwrap();
            }
            let (mut indices, mut values) = (vec![0; sum.len()], vec![0.0f32; sum.len()]);
            sum.drain_into(&mut indices, &mut values).0
        });
    });
    let mut sum = WindowSum::new(dim, range);
    for part in &parts {
        sum.add(part).unwrap();
    }
    group.throughput(Throughput::Elements(sum.len() as u64));
    let mut frame = Vec::new();
    group.bench_with_input(BenchmarkId::new("window_encode", m), &m, |b, _| {
        b.iter(|| {
            sum.encode_into(&mut frame);
            frame.len()
        });
    });
    group.finish();
}

/// The serve daemon's sparse accumulator in the `serve-mixed` shape, a
/// one-shard sum of 167 432 entries on every 4th index of 2^20, as a
/// [`RankedSum`] and as a [`WindowSum`]. All present: 8 192-entry
/// contributions whose indices the sum holds, 16 of them in turn as the
/// workload's pooled inputs come round, added to one sum. Then one such
/// contribution into a fresh copy of the sum that lacks all its indices,
/// every 128th of them (0.8 % new), and a one-entry contribution at the
/// sum's lowest index into a copy that lacks it: a ranked sum pays for the
/// blocks it grows, never for the whole sum. Then the sum's STATE frame.
/// Per entry: of the contribution, then of the sum.
fn bench_serve_sum(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve_sum");
    let (dim, k, pool) = (1 << 20, 8192, 16);
    let range = PartRange {
        lo: 0,
        hi: dim as u32,
    };
    let mut rng = XorShift64::new(24);
    let held: Vec<u32> = uniform_indices(dim / 4, 167_432, &mut rng)
        .into_iter()
        .map(|i| 4 * i)
        .collect();
    let stream = |keep: &dyn Fn(usize) -> bool| {
        let pairs: Vec<(u32, f32)> = (0..held.len())
            .filter(|&at| keep(at))
            .map(|at| (held[at], 1.0 + at as f32))
            .collect();
        SparseStream::from_pairs(dim, &pairs).unwrap()
    };
    let parts: Vec<SparseStream<f32>> = (0..pool)
        .map(|_| {
            let mut picked = vec![false; held.len()];
            for at in uniform_indices(held.len(), k, &mut rng) {
                picked[at as usize] = true;
            }
            stream(&|at| picked[at])
        })
        .collect();
    let (all, part) = (stream(&|_| true), &parts[0]);
    let picked = part.sparse_view().unwrap().indices();
    let lacking = |step: usize| {
        let gone: Vec<u32> = picked.iter().step_by(step).copied().collect();
        stream(&|at| gone.binary_search(&held[at]).is_err())
    };
    let first = SparseStream::from_pairs(dim, &[(held[0], 1.0)]).unwrap();
    let bases = [all.clone(), lacking(1), lacking(128), stream(&|at| at > 0)];
    let windows = bases.each_ref().map(|base| {
        let mut sum = WindowSum::new(dim, range);
        sum.add(base).unwrap();
        sum
    });
    let ranked = bases.each_ref().map(|base| {
        let mut sum = RankedSum::new(dim, range);
        sum.add(base).unwrap();
        sum
    });
    group.throughput(Throughput::Elements(k as u64));
    let (mut window, mut turn) = (windows[0].clone(), parts.iter().cycle());
    group.bench_function("window/all-present", |b| {
        b.iter(|| window.add(turn.next().unwrap()).unwrap())
    });
    let mut sum = ranked[0].clone();
    group.bench_function("ranked/all-present", |b| {
        b.iter(|| sum.add(turn.next().unwrap()).unwrap())
    });
    for (name, base, added) in [
        ("all-new", 1, part),
        ("0.8%-new", 2, part),
        ("one-new", 3, &first),
    ] {
        group.throughput(Throughput::Elements(added.nnz() as u64));
        group.bench_function(format!("window/{name}"), |b| {
            b.iter_batched(
                || windows[base].clone(),
                |mut sum| {
                    sum.add(added).unwrap();
                    sum
                },
                BatchSize::LargeInput,
            )
        });
        group.bench_function(format!("ranked/{name}"), |b| {
            b.iter_batched(
                || ranked[base].clone(),
                |mut sum| {
                    sum.add(added).unwrap();
                    sum
                },
                BatchSize::LargeInput,
            )
        });
    }
    group.throughput(Throughput::Elements(all.nnz() as u64));
    let mut frame = Vec::new();
    group.bench_function("window/state-encode", |b| {
        b.iter(|| {
            windows[0].encode_into(&mut frame);
            frame.len()
        })
    });
    group.bench_function("ranked/state-encode", |b| {
        b.iter(|| {
            frame.clear();
            ranked[0].encode_append(&mut frame);
            frame.len()
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_sum, bench_lopsided, bench_fold_many, bench_serve_sum
}
criterion_main!(benches);
