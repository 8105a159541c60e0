//! End-to-end observability demo (and the CI acceptance check for it):
//! a 4-process socket cluster runs instrumented collectives — blocking,
//! non-blocking, and an engine batch — under `SPARCML_TRACE` +
//! `SPARCML_TELEMETRY`. Each rank flushes
//! `trace-rank{r}.json` and `telemetry-rank{r}.json` on orderly
//! shutdown, the launcher merges the traces into one Chrome trace — and
//! this binary then re-opens the merged file and asserts it is valid
//! JSON carrying spans from *every* rank, flow-event arrows between
//! ranks, named lanes for the engine and reactor threads, and the
//! non-blocking allreduce on the rank's own lane.
//!
//! Run it:
//!
//! ```text
//! cargo run --release --example trace_observability
//! ```
//!
//! then load `target/trace-demo/trace-merged.json` at <https://ui.perfetto.dev>
//! (or `chrome://tracing`). One process track per rank; engine and
//! reactor threads appear as labeled rows beside the rank's own, and
//! enabling "Flow events" draws the send→recv arrows. `sparcml-doctor
//! target/trace-demo` turns the same directory into a cluster report.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::time::Duration;

use sparcml::core::{Algorithm, Communicator};
use sparcml::engine::{CommunicatorEngineExt, EngineConfig};
use sparcml::net::{run_socket_cluster, LaunchOptions, Transport, ENV_COST_MODEL};
use sparcml::obs;
use sparcml::stream::random_sparse;

const WORLD: usize = 4;
const DIM: usize = 1 << 14;
const NNZ: usize = 512;

fn trace_dir() -> PathBuf {
    // Honor an explicit SPARCML_TRACE (the workers see it either way);
    // default somewhere disposable.
    obs::trace_env_dir().unwrap_or_else(|| PathBuf::from("target/trace-demo"))
}

fn main() {
    let dir = trace_dir();
    // The four ranks share one host, so they plan with the intra-node
    // link model. Under the loopback TCP default, segmented recursive
    // doubling wins at every fill here and no `Auto` call would fall back.
    let mut opts = LaunchOptions::default()
        .with_timeout(Duration::from_secs(120))
        .with_trace_dir(&dir)
        .with_telemetry_dir(&dir);
    opts.env
        .push((ENV_COST_MODEL.to_string(), "intra_node".to_string()));

    let Some(results) = run_socket_cluster("trace_observability", WORLD, &opts, |tp| {
        let mut comm = Communicator::new(tp.detach());
        let rank = comm.rank();

        // Direct collectives. Auto at this sparsity resolves to recursive
        // doubling, so its agreement rides the schedule's own frames and
        // the trace shows one `SSAR_Recursive_double` collective span per
        // call with per-round phase spans, and no agreement span.
        let input = random_sparse::<f32>(DIM, NNZ, 42 + rank as u64);
        for _ in 0..3 {
            comm.allreduce(&input)
                .launch()
                .and_then(|h| h.wait())
                .expect("allreduce");
        }
        // A full input: where its pick is not recursive doubling, the pass
        // only agrees on k, and shows up as an `auto-resolve` agreement
        // span ahead of the picked schedule's collective span.
        comm.allreduce(&random_sparse::<f32>(DIM, DIM, 77 + rank as u64))
            .launch()
            .and_then(|h| h.wait())
            .expect("dense-ish allreduce");

        // One non-blocking collective: it runs on this thread (the
        // handle only accounts overlap on the session clock), so its
        // spans land on the rank's own lane.
        comm.allreduce(&input)
            .algorithm(Algorithm::SsarRecDbl)
            .nonblocking()
            .launch()
            .and_then(|h| h.wait())
            .expect("non-blocking allreduce");

        // One engine batch: submit → agreement → bucket-plan → fuse →
        // execute → split, recorded on the progress thread's track.
        let mut engine = comm.engine::<f32>(EngineConfig::default());
        let tickets: Vec<_> = (0..4)
            .map(|i| engine.submit_allreduce(&random_sparse::<f32>(DIM, NNZ, 7 * i + rank as u64)))
            .collect();
        for t in tickets {
            t.wait().expect("engine allreduce");
        }
        engine.finish_into(&mut comm).expect("engine shutdown");

        // Telemetry: collection is on (SPARCML_TELEMETRY), so the
        // cluster report must agree on the membership.
        let report = comm.cluster_report().expect("cluster report");
        assert_eq!(report.ranks().len(), WORLD, "all ranks reporting");

        *tp = comm.into_transport();
        "ok".to_string()
    }) else {
        return; // worker rank: the parent does the asserting
    };
    assert_eq!(results.len(), WORLD);

    // --- Parent: validate the merged trace. ---
    let merged = dir.join(obs::MERGED_TRACE_FILE);
    let raw = std::fs::read_to_string(&merged)
        .unwrap_or_else(|e| panic!("merged trace {} unreadable: {e}", merged.display()));
    let doc = obs::json::parse(&raw).expect("merged trace must be valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .expect("traceEvents array");

    let mut pids = BTreeSet::new();
    let mut names = BTreeSet::new();
    let mut threads = BTreeSet::new();
    // Lane names by (pid, tid), and rank 0's spans as (start, lane, name).
    let mut lanes = BTreeMap::new();
    let mut rank0_spans = Vec::new();
    let (mut flow_starts, mut flow_finishes) = (0usize, 0usize);
    for e in events {
        match e.get("ph").and_then(|v| v.as_str()) {
            Some("X") => {
                let pid = e.get("pid").and_then(|v| v.as_f64()).expect("X event pid") as usize;
                pids.insert(pid);
                if let Some(name) = e.get("name").and_then(|v| v.as_str()) {
                    if pid == 0 {
                        let ts = e.get("ts").and_then(|v| v.as_f64()).expect("X event ts");
                        let tid = e.get("tid").and_then(|v| v.as_f64()).map(|t| t as u64);
                        rank0_spans.push((ts, tid, name.to_string()));
                    }
                    names.insert(name.to_string());
                }
            }
            Some("M") if e.get("name").and_then(|v| v.as_str()) == Some("thread_name") => {
                if let Some(n) = e
                    .get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(|v| v.as_str())
                {
                    let lane =
                        ["pid", "tid"].map(|k| e.get(k).and_then(|v| v.as_f64()).map(|v| v as u64));
                    lanes.insert(lane, n.to_string());
                    threads.insert(n.to_string());
                }
            }
            Some("s") => flow_starts += 1,
            Some("f") => flow_finishes += 1,
            _ => {}
        }
    }
    let expect_pids: BTreeSet<usize> = (0..WORLD).collect();
    assert_eq!(pids, expect_pids, "spans from every rank");
    for required in [
        "SSAR_Recursive_double", // Auto passes that were the collective
        "auto-resolve",          // ...and the one that fell back
        "encode-send",           // per-round collective phases
        "recv-decode",
        "merge",
        "agree-batch", // engine lifecycle
        "batch",
        "bucket-plan",
        "fuse",
        "execute",
        "split",
        "submit",
    ] {
        assert!(
            names.contains(required),
            "merged trace is missing '{required}' spans; have {names:?}"
        );
    }
    // Worker-thread lanes are labeled: engine progress threads and
    // reactor event loops registered their names even where they
    // recorded few spans of their own.
    for lane in ["sparcml-engine-0", "sparcml-reactor-0"] {
        assert!(
            threads.contains(lane),
            "merged trace is missing the '{lane}' thread lane; have {threads:?}"
        );
    }
    // The non-blocking allreduce ran on the caller's thread. Rank 0's
    // own lane is the one its first span (the first direct call) sits
    // on; the non-blocking allreduce is its last recursive-doubling
    // collective to start before the first engine `submit`.
    rank0_spans.sort_by(|a, b| a.0.total_cmp(&b.0));
    let own = rank0_spans.first().expect("rank 0 spans").1;
    let first_submit = rank0_spans
        .iter()
        .find(|(_, _, name)| name == "submit")
        .expect("rank 0 submit span")
        .0;
    let nonblocking = rank0_spans
        .iter()
        .rev()
        .find(|(ts, _, name)| *ts < first_submit && name == "SSAR_Recursive_double")
        .expect("rank 0 non-blocking allreduce span")
        .1;
    let lane = |tid| lanes.get(&[Some(0), tid]).map(String::as_str);
    assert!(
        nonblocking == own && !lane(own).is_some_and(|n| n.starts_with("sparcml-")),
        "rank 0's non-blocking allreduce ran on lane {:?}, not its own {:?}",
        lane(nonblocking),
        lane(own)
    );
    // Cross-rank correlation: send spans opened flow arrows and recv
    // spans terminated them.
    assert!(flow_starts > 0, "no flow-start events in the merged trace");
    assert!(
        flow_finishes > 0,
        "no flow-finish events in the merged trace"
    );
    // The span-drop footer survived the merge.
    let dropped = doc
        .get("sparcml")
        .and_then(|s| s.get("droppedSpans"))
        .and_then(|v| v.as_f64())
        .expect("sparcml.droppedSpans footer");
    assert!(dropped >= 0.0);

    // --- Parent: the telemetry files reconstruct the cluster view. ---
    let report = obs::load_telemetry_dir(&dir, WORLD).expect("load telemetry dir");
    assert_eq!(
        report.ranks(),
        (0..WORLD as u32).collect::<Vec<_>>(),
        "telemetry frame from every rank"
    );

    println!(
        "trace OK: {} events from ranks {:?} ({} flow arrows, {} thread lanes) -> {}",
        events.len(),
        pids,
        flow_starts,
        threads.len(),
        merged.display()
    );
    println!(
        "telemetry OK: {} ranks reporting -> {}",
        report.frames.len(),
        dir.display()
    );
    println!("open the trace at https://ui.perfetto.dev");
}
