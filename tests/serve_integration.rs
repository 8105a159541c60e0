//! Multi-process aggregation-service suite: the server (a two-shard
//! group) lives in the parent test process — so its health endpoint and
//! registry stay inspectable — while every client is a real OS process
//! spawned by `sparcml_serve::launcher::run_serve_clients`.
//!
//! The centerpiece is the churn test the service was built around:
//! sixteen concurrent clients against two shards, two of them dying
//! mid-contribution (a half-written frame followed by silence). The
//! fourteen survivors must keep progressing to completion, the watchdog
//! must reap the two corpses, and the health endpoint must say so.

use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

use sparcml::serve::launcher::{in_client_role, run_serve_clients, ClientLaunchOptions};
use sparcml::serve::protocol::{read_frame, Frame};
use sparcml::serve::{AggregationMode, ServeClient, ServeConfig, ShardGroup};
use sparcml::stream::SparseStream;

const DIM: usize = 1000;
const SURVIVOR_ROUNDS: u64 = 50;
const KILLERS: usize = 2;
const CLIENTS: usize = 16;

fn churn_config() -> ServeConfig {
    ServeConfig::default()
        .with_model("grad", DIM, AggregationMode::Sum)
        .with_idle_timeout(Duration::from_millis(500))
}

/// Polls a session's phase until it reaches `want` — phase transitions
/// (BYE processing, watchdog reaps) are asynchronous to client exits.
fn wait_for_phase(handle: &sparcml::serve::ServerHandle, name: &str, want: &str) {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while handle.session_phase(name) != Some(want) {
        assert!(
            std::time::Instant::now() < deadline,
            "session {name} never reached phase {want}; stuck at {:?}",
            handle.session_phase(name)
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// A contribution whose support spans both halves of the index space,
/// varied per client and round so slices are never empty.
fn contribution(client: usize, round: u64) -> SparseStream<f32> {
    let lo = (client as u32 * 7 + round as u32) % (DIM as u32 / 2);
    let hi = DIM as u32 / 2 + (client as u32 * 11 + round as u32) % (DIM as u32 / 2);
    SparseStream::from_pairs(DIM, &[(lo, 1.0), (hi, 2.0)]).unwrap()
}

/// The killer's script: contribute once per shard like a good citizen,
/// then write a *partial* CONTRIBUTE frame to every shard and go silent
/// while still alive — the half-open shape only the idle watchdog can
/// clean up.
fn run_killer(client: usize, addrs: &[std::net::SocketAddr]) -> String {
    let name = format!("client-{client}");
    let mut sockets = Vec::new();
    for addr in addrs {
        let mut socket = TcpStream::connect(addr).unwrap();
        socket.set_nodelay(true).unwrap();
        socket
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut buf = Vec::new();
        Frame::Hello {
            session: name.clone(),
        }
        .encode_into(&mut buf);
        socket.write_all(&buf).unwrap();
        let Frame::Welcome { shard, shards, .. } = read_frame(&mut socket, usize::MAX).unwrap()
        else {
            panic!("killer {client}: expected WELCOME");
        };
        sockets.push((shard, shards, socket));
    }
    // One honest, empty-support contribution per shard (in range
    // everywhere), so the killer dies *mid-stream*, not pre-stream.
    let empty = SparseStream::<f32>::zeros(DIM);
    let mut payload = Vec::new();
    empty.encode_into(&mut payload);
    for (_, _, socket) in &mut sockets {
        let mut buf = Vec::new();
        Frame::Contribute {
            model: 0,
            seq: 1,
            payload: payload.clone(),
        }
        .encode_into(&mut buf);
        socket.write_all(&buf).unwrap();
        loop {
            match read_frame(socket, usize::MAX).unwrap() {
                Frame::Ack { seq: 1, .. } => break,
                Frame::Busy { .. } => panic!("killer {client}: unexpected BUSY"),
                _ => {}
            }
        }
    }
    // Mid-contribution death: a header promising 100 bytes, then 3 of
    // them, then silence with the socket held open.
    for (_, _, socket) in &mut sockets {
        socket.write_all(&[100, 0, 0, 0, 0x02, 1, 2, 3]).unwrap();
    }
    // Outlive the 500 ms watchdog by a wide margin so the reap (timeout)
    // always beats the process-exit EOF.
    std::thread::sleep(Duration::from_secs(3));
    format!("killer-{client} contributed then went dark")
}

fn run_survivor(client: usize, addrs: &[std::net::SocketAddr]) -> String {
    let name = format!("client-{client}");
    let mut session = ServeClient::connect(&name, addrs).unwrap();
    let mut last_generation = 0;
    for round in 0..SURVIVOR_ROUNDS {
        last_generation = session
            .contribute(0, &contribution(client, round), Duration::from_secs(30))
            .unwrap();
    }
    let fetched = session.fetch(0).unwrap();
    session.close();
    format!(
        "survivor-{client} gen={last_generation} fetched_contributions={}",
        fetched.contributions
    )
}

#[test]
fn churn_sixteen_clients_two_shards_two_deaths() {
    // Children re-enter this test; only the parent runs the server.
    let group = if in_client_role() {
        None
    } else {
        Some(ShardGroup::start(churn_config(), 2).unwrap())
    };
    let addrs = group.as_ref().map(|g| g.addrs()).unwrap_or_default();

    let opts = ClientLaunchOptions::for_test().with_timeout(Duration::from_secs(120));
    let Some(outcomes) = run_serve_clients(
        "churn_sixteen_clients_two_shards_two_deaths",
        CLIENTS,
        &addrs,
        &opts,
        |client, addrs| {
            if client < KILLERS {
                run_killer(client, addrs)
            } else {
                run_survivor(client, addrs)
            }
        },
    ) else {
        return;
    };
    let group = group.expect("parent holds the shard group");

    // Every process — killers included — must have finished cleanly: the
    // deaths are server-side events, not client crashes.
    for o in &outcomes {
        assert!(
            o.ok(),
            "client {} failed (exit {:?}, timed_out {}):\nstdout:\n{}\nstderr:\n{}",
            o.rank,
            o.exit_code,
            o.timed_out,
            o.stdout,
            o.stderr
        );
    }

    // All sixteen contributed on both shards: 14 survivors × rounds + 2
    // killer singles, in whatever order the batches landed.
    let expect = (CLIENTS - KILLERS) as u64 * SURVIVOR_ROUNDS + KILLERS as u64;
    for (shard, handle) in group.handles().iter().enumerate() {
        assert_eq!(
            handle.model_generation(0),
            Some(expect),
            "shard {shard} generation"
        );
    }

    // The two corpses were reaped (not merely disconnected) on every
    // shard, and the health endpoint names them.
    for handle in group.handles() {
        for killer in 0..KILLERS {
            wait_for_phase(handle, &format!("client-{killer}"), "reaped");
        }
        for survivor in KILLERS..CLIENTS {
            wait_for_phase(handle, &format!("client-{survivor}"), "departed");
        }
        let report = handle.health_report();
        assert!(
            report.contains("reaped_sessions client-0,client-1"),
            "health report must name the reaped sessions:\n{report}"
        );
        assert!(report.contains("sessions_reaped 2"), "{report}");
    }

    // The cluster generation table agrees after a sync.
    group.sync_now().unwrap();
    let report = group.handles()[1].health_report();
    assert!(
        report.contains(&format!("cluster_generations shard=0 [{expect}]")),
        "{report}"
    );
    group.shutdown();
}

#[test]
fn reconnect_resumes_identity_across_processes() {
    let group = if in_client_role() {
        None
    } else {
        Some(ShardGroup::start(churn_config(), 2).unwrap())
    };
    let addrs = group.as_ref().map(|g| g.addrs()).unwrap_or_default();

    let opts = ClientLaunchOptions::for_test().with_timeout(Duration::from_secs(120));
    let Some(outcomes) = run_serve_clients(
        "reconnect_resumes_identity_across_processes",
        1,
        &addrs,
        &opts,
        |_client, addrs| {
            // First incarnation: contribute, then vanish without BYE.
            let mut first = ServeClient::connect("phoenix", addrs).unwrap();
            assert!(!first.resumed());
            let g1 = first
                .contribute(0, &contribution(0, 0), Duration::from_secs(30))
                .unwrap();
            drop(first); // EOF, no BYE

            // Second incarnation, same process, same name: resumed, and
            // the generation carries on from the first life. The server
            // processes the EOF asynchronously, so a too-quick reconnect
            // can race the still-active first life — retry through the
            // typed duplicate-session rejection.
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            let mut second = loop {
                match ServeClient::connect("phoenix", addrs) {
                    Ok(c) => break c,
                    Err(e) if e.is_duplicate_session() && std::time::Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(20));
                    }
                    Err(e) => panic!("reconnect failed: {e}"),
                }
            };
            assert!(second.resumed(), "server should resume the session name");
            let g2 = second
                .contribute(0, &contribution(0, 1), Duration::from_secs(30))
                .unwrap();
            assert_eq!(g2, g1 + 1);
            second.close();
            format!("g1={g1} g2={g2}")
        },
    ) else {
        return;
    };
    let group = group.expect("parent holds the shard group");
    assert!(outcomes[0].ok(), "{:?}", outcomes[0]);
    assert_eq!(outcomes[0].result.as_deref(), Some("g1=1 g2=2"));
    for handle in group.handles() {
        assert_eq!(handle.model_generation(0), Some(2));
        // The second life left via BYE.
        wait_for_phase(handle, "phoenix", "departed");
    }
    group.shutdown();
}
