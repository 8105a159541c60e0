//! Multi-process sparse allreduce over real TCP sockets.
//!
//! Run the self-launching demo (the parent re-executes this example once
//! per rank over loopback):
//!
//! ```console
//! cargo run --release --example tcp_cluster          # 4 ranks
//! cargo run --release --example tcp_cluster -- 6     # 6 ranks
//! ```
//!
//! Or launch ranks by hand (e.g. across machines; Linux only, the
//! transport's event loop is epoll) with the environment
//! bootstrap — rank 0's address is the rendezvous point:
//!
//! ```console
//! # machine A (rank 0, also the rendezvous root):
//! SPARCML_RANK=0 SPARCML_WORLD=2 SPARCML_ROOT_ADDR=10.0.0.1:7077 \
//!     cargo run --release --example tcp_cluster
//! # machine B:
//! SPARCML_RANK=1 SPARCML_WORLD=2 SPARCML_ROOT_ADDR=10.0.0.1:7077 \
//!     cargo run --release --example tcp_cluster
//! ```

use sparcml::net::{run_socket_cluster, LaunchOptions};
use sparcml::stream::random_sparse;
use sparcml::{Communicator, ReactorTransport, Transport};

/// The per-rank program: one adaptive sparse allreduce.
fn rank_program(tp: &mut ReactorTransport) -> String {
    let mut comm = Communicator::new(tp.detach());
    let (rank, size) = (comm.rank(), comm.size());
    let grad = random_sparse::<f32>(1 << 20, 4096, 1234 + rank as u64);
    let sum = comm
        .allreduce(&grad) // Algorithm::Auto — the §5.3 selector
        .launch()
        .and_then(|h| h.wait())
        .expect("allreduce over TCP");
    let mut line = format!(
        "rank {rank}/{size}: |union| = {} nnz, {:.1} ms wall",
        sum.nnz(),
        comm.clock() * 1e3,
    );
    if rank == 0 {
        // One rank prints the full counter block in the stable
        // `CommStats::render_text` format (same shape the serve health
        // endpoint emits).
        line.push_str("\n  rank 0 transport counters:");
        for counter in comm.stats_report().lines() {
            line.push_str("\n    ");
            line.push_str(counter);
        }
    }
    *tp = comm.into_transport();
    line
}

fn main() {
    // Manual launch: the bootstrap env is set but no launcher job marker —
    // this process *is* one rank of a hand-assembled cluster.
    if std::env::var("SPARCML_RANK").is_ok() && std::env::var("SPARCML_JOB").is_err() {
        let mut tp = ReactorTransport::from_env().expect("join cluster from SPARCML_* env");
        println!("{}", rank_program(&mut tp));
        return;
    }

    // Self-launching demo: spawn `world` rank subprocesses of this very
    // binary over loopback and gather their reports.
    let world: usize = std::env::args()
        .nth(1)
        .map(|a| a.parse().expect("world size must be an integer"))
        .unwrap_or(4);
    let Some(reports) = run_socket_cluster(
        "tcp_cluster_example",
        world,
        &LaunchOptions::default(),
        rank_program,
    ) else {
        return; // worker rank: the parent prints the summary
    };
    println!("sparse allreduce across {world} OS processes over loopback TCP:");
    for line in reports {
        println!("  {line}");
    }
}
