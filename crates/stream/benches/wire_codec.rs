//! Criterion: wire codec throughput of the v4 frame (value slab + gap-coded
//! or bitmap index).
//!
//! The three sparse sizes in dim 2^24 are the three gap classes of the
//! codec: k = 10³ (mean gap 16 777 — three-byte varints, with two-byte
//! ones mixed in), k = 10⁵ (mean gap 168 — one- and two-byte varints
//! interleaved, the varint path's worst mix) and k = 2^20 (mean gap 16 —
//! single-byte gaps, the run-at-a-time paths). The two densities in dim
//! 2^20, 30 % and 55 %, are past 1/8 and travel with a bitmap index: the
//! density of a split schedule's frames at P = 8. The dense frame is the
//! bulk value-slab path all of them share. Divide a time by the case's
//! entry count for ns per entry.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sparcml_stream::{random_sparse, SparseStream};

fn bench_wire_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire_codec");
    let cases = [
        (1 << 24, 1_000usize),
        (1 << 24, 100_000),
        (1 << 24, 1 << 20),
        (1 << 20, 314_573),
        (1 << 20, 576_716),
    ];
    for (dim, k) in cases {
        let stream = random_sparse::<f32>(dim, k, 7);
        let case = format!("{k}_of_2^{}", dim.ilog2());
        group.bench_with_input(BenchmarkId::new("encode", &case), &k, |b, _| {
            let mut buf = Vec::new();
            b.iter(|| {
                stream.encode_into(&mut buf);
                buf.len()
            })
        });
        let frame = stream.encode();
        group.bench_with_input(BenchmarkId::new("decode", &case), &k, |b, _| {
            b.iter(|| SparseStream::<f32>::decode(&frame).unwrap().stored_len())
        });
    }

    let dense = SparseStream::from_dense(vec![1.0f32; 1 << 20]);
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
