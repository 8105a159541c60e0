//! Criterion: wire codec throughput of the v5 frame (value slab + gap-coded
//! or Elias–Fano index), in ns per entry for encode, decode and
//! `encoded_len`.
//!
//! The three sparse sizes in dim 2^24 are Elias–Fano indices of L = 14
//! (k = 10³), 7 (k = 10⁵) and 3 (k = 2^20); the two densities in dim 2^20,
//! 30 % and 55 %, of L = 1 and 0 — the density of a split schedule's
//! frames at P = 8, and a bitmap. Then the three shapes the benchmark's
//! workloads send most: the fused `engine-step` bucket (31 408 of
//! 3 866 624, L = 6), a serve contribution (every 4th of 2^20, 8 192
//! entries, L = 4) and an `ar-bandwidth` segment (12 500 of 2^17, L = 3).
//! Clustered runs, where the gap slab wins, are the last case. The dense
//! frame is the bulk value-slab path all of them share.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sparcml_stream::{clustered_sparse, random_sparse, uniform_indices, SparseStream, XorShift64};

fn bench_wire_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire_codec");
    let uniform = |dim: usize, k: usize| {
        (
            format!("{k}_of_2^{}", dim.ilog2()),
            random_sparse(dim, k, 7),
        )
    };
    let serve = {
        let indices = uniform_indices(1 << 18, 8_192, &mut XorShift64::new(7));
        let indices = indices.into_iter().map(|i| 4 * i).collect();
        SparseStream::from_slabs(1 << 20, indices, vec![1.0f32; 8_192]).expect("sorted")
    };
    let cases = [
        uniform(1 << 24, 1_000),
        uniform(1 << 24, 100_000),
        uniform(1 << 24, 1 << 20),
        uniform(1 << 20, 314_573),
        uniform(1 << 20, 576_716),
        ("engine_bucket".into(), random_sparse(3_866_624, 31_408, 7)),
        ("serve_contribution".into(), serve),
        (
            "ar_bandwidth_segment".into(),
            random_sparse(1 << 17, 12_500, 7),
        ),
        (
            "clustered_64_runs".into(),
            clustered_sparse(1 << 24, 100_000, 64, 7),
        ),
    ];
    for (case, stream) in cases {
        let stream: SparseStream<f32> = stream;
        group.throughput(Throughput::Elements(stream.nnz() as u64));
        group.bench_with_input(BenchmarkId::new("encode", &case), &stream, |b, stream| {
            let mut buf = Vec::new();
            b.iter(|| {
                stream.encode_into(&mut buf);
                buf.len()
            })
        });
        let frame = stream.encode();
        group.bench_with_input(BenchmarkId::new("decode", &case), &frame, |b, frame| {
            b.iter(|| SparseStream::<f32>::decode(frame).unwrap().stored_len())
        });
        group.bench_with_input(
            BenchmarkId::new("encoded_len", &case),
            &stream,
            |b, stream| b.iter(|| stream.encoded_len()),
        );
    }

    let dense = SparseStream::from_dense(vec![1.0f32; 1 << 20]);
    group.throughput(Throughput::Elements(1 << 20));
    group.bench_function("encode_dense/1048576", |b| {
        let mut buf = Vec::new();
        b.iter(|| {
            dense.encode_into(&mut buf);
            buf.len()
        })
    });
    let dense_frame = dense.encode();
    group.bench_function("decode_dense/1048576", |b| {
        b.iter(|| SparseStream::<f32>::decode(&dense_frame).unwrap().dim())
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_wire_codec
}
criterion_main!(benches);
