//! Groups quickstart: `Communicator::split` and subgroup collectives.
//!
//! ```console
//! cargo run --example groups
//! ```
//!
//! Eight ranks on real threads, split into two groups of four (ranks
//! 0–3 and 4–7, as if on two nodes). Each rank:
//!   1. splits the world communicator by its group id and allreduces
//!      within the group only,
//!   2. dissolves back to the world and runs a flat allreduce over all
//!      eight ranks.

use sparcml::net::run_thread_cluster;
use sparcml::{Communicator, Transport};
use sparcml_stream::SparseStream;

fn main() {
    let results = run_thread_cluster(8, |tp| {
        let comm = Communicator::new(tp.detach());
        let world_rank = comm.rank();
        let grad = SparseStream::from_pairs(
            1_000_000,
            &[(world_rank as u32 * 10, 1.0f32), (999_999, 0.5)],
        )
        .unwrap();

        // (1) Group collective: only the 4 ranks sharing this group id
        // contribute. Tags are group-scoped, so both groups run their
        // collectives concurrently without interfering.
        let mut group = comm.split((world_rank / 4) as u64).unwrap();
        let group_sum = group
            .allreduce(&grad)
            .launch()
            .and_then(|h| h.wait())
            .unwrap();

        // (2) Back to the world for a flat allreduce over every rank.
        let mut comm = group.into_parent();
        let world_sum = comm
            .allreduce(&grad)
            .launch()
            .and_then(|h| h.wait())
            .unwrap();
        *tp = comm.into_transport();
        (group_sum.get(999_999), world_sum.get(999_999))
    });

    for (rank, (group_sum, world_sum)) in results.iter().enumerate() {
        println!(
            "rank {rank} (group {}): group sum = {group_sum}, world sum = {world_sum}",
            rank / 4
        );
        assert_eq!(*group_sum, 2.0); // 4 ranks x 0.5
        assert_eq!(*world_sum, 4.0); // 8 ranks x 0.5
    }
}
