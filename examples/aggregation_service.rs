//! Self-launching aggregation-service demo.
//!
//! The parent process starts a two-shard aggregation server, then
//! re-executes this example once per client over loopback: three honest
//! clients stream sparse contributions, while a fourth goes dark halfway
//! through a frame — the half-open shape the idle watchdog exists for.
//! When every client process is done, the parent scrapes the health
//! endpoint and prints the lifecycle counters: the dead session is
//! *reaped*, the survivors *departed*, and the generation counter counts
//! every accepted contribution on both shards.
//!
//! ```console
//! cargo run --release --example aggregation_service
//! ```

use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

use sparcml::serve::launcher::{in_client_role, run_serve_clients, ClientLaunchOptions};
use sparcml::serve::protocol::{read_frame, Frame};
use sparcml::serve::{AggregationMode, ServeClient, ServeConfig, ShardGroup};
use sparcml::stream::random_sparse;

const DIM: usize = 1 << 16;
const ROUNDS: usize = 20;
const CLIENTS: usize = 4;

fn main() {
    // Client children re-enter main; only the parent runs the server.
    let group = if in_client_role() {
        None
    } else {
        let cfg = ServeConfig::default()
            .with_model("grad", DIM, AggregationMode::Sum)
            .with_idle_timeout(Duration::from_millis(400));
        Some(ShardGroup::start(cfg, 2).expect("start shard group"))
    };
    let addrs = group.as_ref().map(|g| g.addrs()).unwrap_or_default();

    let Some(outcomes) = run_serve_clients(
        "aggregation_service_example",
        CLIENTS,
        &addrs,
        &ClientLaunchOptions::default(),
        |client, addrs| {
            if client == CLIENTS - 1 {
                // The villain: handshake, half a frame, then silence.
                let mut socket = TcpStream::connect(addrs[0]).expect("connect shard 0");
                let mut buf = Vec::new();
                Frame::Hello {
                    session: format!("client-{client}"),
                }
                .encode_into(&mut buf);
                socket.write_all(&buf).expect("hello");
                read_frame(&mut socket, usize::MAX).expect("welcome");
                socket
                    .write_all(&[64, 0, 0, 0, 0x02, 1, 2])
                    .expect("half a frame");
                std::thread::sleep(Duration::from_secs(2));
                "went dark mid-frame".to_string()
            } else {
                let mut session =
                    ServeClient::connect(&format!("client-{client}"), addrs).expect("connect");
                let grad = random_sparse::<f32>(DIM, 256, 7700 + client as u64);
                let mut generation = 0;
                for _ in 0..ROUNDS {
                    generation = session
                        .contribute(0, &grad, Duration::from_secs(30))
                        .expect("contribute");
                }
                session.close();
                format!("contributed {ROUNDS} rounds, final generation {generation}")
            }
        },
    ) else {
        return; // client child: the parent prints the summary
    };
    let group = group.expect("parent holds the shard group");

    println!("aggregation service demo: {CLIENTS} client processes, 2 shards");
    for o in &outcomes {
        println!(
            "  client-{}: {}",
            o.rank,
            o.result.as_deref().unwrap_or("<no result>")
        );
    }
    // Give the watchdog a beat to notice the villain, then report.
    let villain = format!("client-{}", CLIENTS - 1);
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while group.handles()[0].session_phase(&villain) != Some("reaped")
        && std::time::Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(20));
    }
    group.sync_now().expect("generation sync");
    println!("\nshard 0 health report:");
    for line in group.handles()[0].health_report().lines() {
        println!("  {line}");
    }
    group.shutdown();
}
