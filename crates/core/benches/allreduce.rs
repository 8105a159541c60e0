//! Criterion: wall-clock time of the actual collectives on an in-process
//! cluster (complements the virtual-time figures).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sparcml_core::{run_communicators, Algorithm};
use sparcml_net::CostModel;
use sparcml_stream::random_sparse;

fn bench_allreduce(c: &mut Criterion) {
    let mut group = c.benchmark_group("allreduce_wall");
    let n = 1 << 18;
    let k = 1 << 10;
    let p = 8;
    for algo in Algorithm::ALL {
        group.bench_with_input(BenchmarkId::new(algo.name(), p), &algo, |b, &algo| {
            b.iter(|| {
                run_communicators(p, CostModel::zero(), |comm| {
                    let input = random_sparse::<f32>(n, k, comm.rank() as u64);
                    comm.allreduce(&input)
                        .algorithm(algo)
                        .launch()
                        .and_then(|handle| handle.wait())
                        .unwrap()
                        .nnz()
                })
            });
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_allreduce
}
criterion_main!(benches);
