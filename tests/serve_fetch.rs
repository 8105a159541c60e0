//! `ServeClient::fetch` folds the shards' slices in shard order. This
//! suite covers the fold's dense-slice arm: a shard whose accumulator
//! crossed δ answers with a dense slice, and the fetched state must still
//! be the exact sum.

use std::time::Duration;

use sparcml::serve::{AggregationMode, ServeClient, ServeConfig, ShardGroup};
use sparcml::stream::SparseStream;

#[test]
fn fetch_folds_a_dense_shard_slice_into_the_exact_sum() {
    // Two shards of dim 64 (δ = 32 for f32): 20 + 20 entries inside shard
    // 0's [0, 32) push its accumulator dense; shard 1 stays empty.
    let dim = 64;
    let cfg = ServeConfig::default().with_model("w", dim, AggregationMode::Sum);
    let group = ShardGroup::start(cfg, 2).unwrap();
    let mut client = ServeClient::connect("dense-slice", &group.addrs()).unwrap();
    let first: Vec<(u32, f32)> = (0..20).map(|i| (i, 1.0 + i as f32)).collect();
    let second: Vec<(u32, f32)> = (10..30).map(|i| (i, 0.5)).collect();
    let mut expect = vec![0.0f32; dim];
    for pairs in [&first, &second] {
        let contribution = SparseStream::from_pairs(dim, pairs).unwrap();
        client
            .contribute(0, &contribution, Duration::from_secs(5))
            .unwrap();
        for &(i, v) in pairs.iter() {
            expect[i as usize] += v;
        }
    }
    let fetched = client.fetch(0).unwrap();
    assert_eq!(fetched.generations, vec![2, 2]);
    assert!(fetched.state.is_dense(), "shard 0's slice crossed δ");
    assert_eq!(fetched.state.to_dense_vec(), expect);
    client.close();
    group.shutdown();
}
