//! Cluster telemetry plane, end to end: an injected straggler must be
//! named by `Communicator::cluster_report()` on every rank — in-process
//! over threads and across real OS processes over sockets — and the
//! launcher-side telemetry directory must reconstruct the same
//! verdict for the orchestrator (what `sparcml-doctor` ingests).
//!
//! Multi-process pattern as in `socket_multiprocess.rs`: the `job` string
//! must equal the test function's name, worker processes exit through
//! the `else { return }` arm, and the parent asserts.

use std::time::Duration;

use sparcml::core::{Algorithm, Communicator};
use sparcml::net::{run_socket_cluster, LaunchOptions, Transport};
use sparcml::obs;
use sparcml::stream::SparseStream;

/// Which rank drags its feet, and by how much per round.
const STRAGGLER: usize = 1;
const DELAY: Duration = Duration::from_millis(25);
const ROUNDS: usize = 4;

fn input_for(rank: usize, dim: usize) -> SparseStream<f32> {
    let pairs: Vec<(u32, f32)> = (0..48)
        .map(|i| (((rank * 131 + i * 17) % dim) as u32, 1.0f32))
        .collect();
    SparseStream::from_pairs(dim, &pairs).unwrap()
}

/// The straggling rank program: `ROUNDS` recursive-doubling allreduces
/// (a fixed algorithm keeps the schedule identical on every transport),
/// with `STRAGGLER` sleeping before each one, then a cluster report.
fn straggle_and_report<T: Transport + Send + 'static>(
    comm: &mut Communicator<T>,
) -> obs::ClusterReport {
    // Enable collection before the measured rounds (the first report
    // would otherwise see only itself).
    let _ = comm.cluster_report().expect("warm-up cluster report");
    let input = input_for(comm.rank(), 4096);
    for _ in 0..ROUNDS {
        if comm.rank() == STRAGGLER {
            std::thread::sleep(DELAY);
        }
        comm.allreduce(&input)
            .algorithm(Algorithm::SsarRecDbl)
            .launch()
            .and_then(|h| h.wait())
            .expect("allreduce");
    }
    comm.cluster_report().expect("cluster report")
}

fn assert_names_straggler(report: &obs::ClusterReport, where_: &str) {
    let top = report
        .top_straggler()
        .unwrap_or_else(|| panic!("{where_}: no straggler named:\n{}", report.render_text()));
    assert_eq!(
        top.rank as usize,
        STRAGGLER,
        "{where_}: wrong straggler:\n{}",
        report.render_text()
    );
    // The delay was injected every round; the blame must reflect a
    // majority of it, not a single unlucky wait.
    assert!(
        top.blamed_ns >= DELAY.as_nanos() as u64,
        "{where_}: blame too small ({} ns):\n{}",
        top.blamed_ns,
        report.render_text()
    );
}

#[test]
fn injected_straggler_named_on_thread_cluster() {
    let reports = sparcml::core::run_thread_communicators(4, straggle_and_report);
    for (rank, report) in reports.iter().enumerate() {
        assert_eq!(report.ranks(), vec![0, 1, 2, 3], "rank {rank}");
        assert_names_straggler(report, &format!("rank {rank}"));
    }
}

#[test]
fn telemetry_straggler_named_across_processes() {
    let job = "telemetry_straggler_named_across_processes";
    let world = 4;
    let dir = std::env::temp_dir().join(format!("sparcml-{job}"));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = LaunchOptions::for_test()
        .with_timeout(Duration::from_secs(120))
        .with_telemetry_dir(&dir);
    let Some(results) = run_socket_cluster(job, world, &opts, |tp| {
        let mut comm = Communicator::new(tp.detach());
        let report = straggle_and_report(&mut comm);
        // Every surviving rank must name the straggler itself — the
        // fingerprint carries its verdict to the parent.
        let top = report.top_straggler().expect("straggler named");
        *tp = comm.into_transport();
        format!("top={}", top.rank)
    }) else {
        return; // worker process
    };
    for (rank, r) in results.iter().enumerate() {
        assert_eq!(r, &format!("top={STRAGGLER}"), "rank {rank} verdict");
    }
    // The launcher exported SPARCML_TELEMETRY; every rank flushed its
    // frame on teardown, so the orchestrator can rebuild the report.
    let report = obs::load_telemetry_dir(&dir, world).expect("load telemetry dir");
    assert_eq!(report.ranks(), vec![0, 1, 2, 3]);
    assert_names_straggler(&report, "orchestrator");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cluster_report_carries_counters_and_density() {
    let reports = sparcml::core::run_thread_communicators(2, |comm| {
        let _ = comm.cluster_report().expect("warm-up");
        let input = input_for(comm.rank(), 2048);
        for _ in 0..3 {
            comm.allreduce(&input)
                .algorithm(Algorithm::SsarRecDbl)
                .launch()
                .and_then(|h| h.wait())
                .expect("allreduce");
        }
        comm.cluster_report().expect("report")
    });
    for report in &reports {
        // Both ranks' transport counters made it into the frames.
        for frame in &report.frames {
            let msgs = frame
                .counters
                .iter()
                .find(|(n, _)| n == "msgs_sent")
                .map(|(_, v)| *v)
                .expect("msgs_sent counter present");
            assert!(msgs > 0, "rank {} sent no messages?", frame.rank);
        }
        // Density was sampled on the measured rounds.
        let density = report.union_density().expect("density sampled");
        assert!(density > 0.0 && density <= 1.0, "density {density}");
        let imb = report.nnz_imbalance().expect("imbalance sampled");
        assert!(imb >= 1.0, "imbalance {imb}");
    }
}
