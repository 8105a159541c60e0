//! `sparcml-doctor`: offline cluster diagnosis from a run's artifacts.
//!
//! Ingests a directory holding the launcher's merged Chrome trace
//! (`trace-merged.json`) and/or per-rank telemetry frames
//! (`telemetry-rank{r}.json`) and prints one report answering the
//! questions a cluster run raises: who is the straggler and by how
//! much, how the result-union density compares to the δ-switch
//! threshold, whether fused messages look bandwidth-bound, and the
//! per-algorithm latency percentiles — per transport backend.
//!
//! ```text
//! sparcml-doctor <dir> [--json] [--expect-ranks N] [--delta D]
//! ```
//!
//! Exit status: 0 on a clean report, 2 when `--expect-ranks N` is given
//! and some rank's telemetry or trace data is missing, 1 on unreadable
//! or malformed inputs.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use sparcml_obs::json::{self, Value};
use sparcml_obs::telemetry::{ClusterReport, TelemetryFrame};
use sparcml_obs::MERGED_TRACE_FILE;

/// Default δ-switch density threshold reported against: the f32 default
/// `delta_raw = N / (1 + sizeof(index)/sizeof(value)) = N/2`, i.e. a
/// result-union density of 0.5.
const DEFAULT_DELTA_DENSITY: f64 = 0.5;

/// Average fused-message size above which a run is flagged as
/// bandwidth-bound (fusion is no longer hiding latency, it is queueing
/// bytes).
const BANDWIDTH_BOUND_BYTES_PER_MSG: f64 = (1 << 20) as f64;

struct Args {
    dir: PathBuf,
    json: bool,
    expect_ranks: Option<usize>,
    delta: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut dir = None;
    let mut json = false;
    let mut expect_ranks = None;
    let mut delta = DEFAULT_DELTA_DENSITY;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json = true,
            "--expect-ranks" => {
                let v = it.next().ok_or("--expect-ranks needs a value")?;
                expect_ranks = Some(
                    v.parse::<usize>()
                        .map_err(|e| format!("--expect-ranks: {e}"))?,
                );
            }
            "--delta" => {
                let v = it.next().ok_or("--delta needs a value")?;
                delta = v.parse::<f64>().map_err(|e| format!("--delta: {e}"))?;
            }
            "--help" | "-h" => {
                return Err(
                    "usage: sparcml-doctor <dir> [--json] [--expect-ranks N] [--delta D]"
                        .to_string(),
                )
            }
            other if dir.is_none() && !other.starts_with('-') => dir = Some(PathBuf::from(other)),
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(Args {
        dir: dir.ok_or("usage: sparcml-doctor <dir> [--json] [--expect-ranks N] [--delta D]")?,
        json,
        expect_ranks,
        delta,
    })
}

/// What the merged Chrome trace tells us, independent of telemetry.
#[derive(Default)]
struct TraceSummary {
    present: bool,
    events: usize,
    ranks: BTreeSet<u64>,
    /// (algorithm span name → sorted durations in microseconds).
    collectives: BTreeMap<String, Vec<f64>>,
    flow_starts: usize,
    flow_finishes: usize,
    dropped_spans: u64,
}

fn load_trace(dir: &Path) -> Result<TraceSummary, String> {
    let path = dir.join(MERGED_TRACE_FILE);
    let Ok(text) = std::fs::read_to_string(&path) else {
        return Ok(TraceSummary::default());
    };
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("{}: missing traceEvents", path.display()))?;
    let mut s = TraceSummary {
        present: true,
        events: events.len(),
        dropped_spans: doc
            .get("sparcml")
            .and_then(|v| v.get("droppedSpans"))
            .and_then(Value::as_f64)
            .unwrap_or(0.0) as u64,
        ..TraceSummary::default()
    };
    for e in events {
        let ph = e.get("ph").and_then(Value::as_str).unwrap_or("");
        let cat = e.get("cat").and_then(Value::as_str).unwrap_or("");
        match (ph, cat) {
            ("s", "flow") => s.flow_starts += 1,
            ("f", "flow") => s.flow_finishes += 1,
            ("X", _) => {
                if let Some(pid) = e.get("pid").and_then(Value::as_f64) {
                    s.ranks.insert(pid as u64);
                }
                if cat == "collective" {
                    if let (Some(name), Some(dur)) = (
                        e.get("name").and_then(Value::as_str),
                        e.get("dur").and_then(Value::as_f64),
                    ) {
                        s.collectives.entry(name.to_string()).or_default().push(dur);
                    }
                }
            }
            _ => {}
        }
    }
    for durs in s.collectives.values_mut() {
        durs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    }
    Ok(s)
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

/// Discover ranks by probing `telemetry-rank{r}.json` filenames present
/// in `dir` (the launcher may have skipped crashed ranks).
fn discover_world(dir: &Path) -> usize {
    let mut max_rank = None;
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(rest) = name
                .strip_prefix("telemetry-rank")
                .and_then(|r| r.strip_suffix(".json"))
            {
                if let Ok(r) = rest.parse::<usize>() {
                    max_rank = Some(max_rank.map_or(r, |m: usize| m.max(r)));
                }
            }
        }
    }
    max_rank.map_or(0, |m| m + 1)
}

fn avg_msg_bytes(frame: &TelemetryFrame) -> Option<f64> {
    let get = |name: &str| {
        frame
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    };
    let bytes = get("bytes_sent")?;
    let msgs = get("msgs_sent")?;
    if msgs == 0 {
        None
    } else {
        Some(bytes as f64 / msgs as f64)
    }
}

fn render_report(report: &ClusterReport, trace: &TraceSummary, delta: f64) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "sparcml-doctor report");
    let _ = writeln!(out, "=====================");
    if report.frames.is_empty() && !trace.present {
        let _ = writeln!(out, "no telemetry frames and no merged trace found");
        return out;
    }

    if !report.frames.is_empty() {
        let _ = writeln!(
            out,
            "\n## cluster ({} of {} ranks reporting)",
            report.frames.len(),
            report.world()
        );
        let ranking = report.straggler_ranking();
        if let Some(top) = report.top_straggler() {
            let _ = writeln!(
                out,
                "top straggler: rank {} ({:.3} ms blamed, last-arriving in {} collectives)",
                top.rank,
                top.blamed_ns as f64 / 1e6,
                top.last_arrivals
            );
        } else {
            let _ = writeln!(
                out,
                "top straggler: none (no blocked-on-peer time recorded)"
            );
        }
        for e in &ranking {
            let _ = writeln!(
                out,
                "  rank {:>3}: blamed {:>10.3} ms, last arrivals {:>4}",
                e.rank,
                e.blamed_ns as f64 / 1e6,
                e.last_arrivals
            );
        }
        if let Some(imb) = report.nnz_imbalance() {
            let _ = writeln!(
                out,
                "nnz imbalance: {imb:.3}x (max rank mean input nnz over cluster mean)"
            );
        }
        if let Some(d) = report.union_density() {
            let verdict = if d >= delta {
                "ABOVE the δ-switch threshold — dense representation is correct here"
            } else {
                "below the δ-switch threshold — sparse representation pays off"
            };
            let _ = writeln!(out, "union density: {d:.6} vs δ={delta:.3} ({verdict})");
        }
        let dense: u64 = report.frames.iter().map(|f| f.density.dense_results).sum();
        let total: u64 = report.frames.iter().map(|f| f.density.collectives).sum();
        if total > 0 {
            let _ = writeln!(out, "dense results: {dense} of {total} sampled collectives");
        }
        for f in &report.frames {
            let _ = writeln!(
                out,
                "  rank {:>3}: compute {:>9.3} ms, blocked {:>9.3} ms, span drops {}",
                f.rank,
                f.compute_ns as f64 / 1e6,
                f.blocked_ns as f64 / 1e6,
                f.span_drops
            );
            if let Some(avg) = avg_msg_bytes(f) {
                if avg > BANDWIDTH_BOUND_BYTES_PER_MSG {
                    let _ = writeln!(
                        out,
                        "  WARNING rank {}: avg message {:.0} KiB — fused collectives look \
                         bandwidth-bound; shrink FusionPolicy::max_chunk_elements, \
                         or run these layers with FusionPolicy::disabled()",
                        f.rank,
                        avg / 1024.0
                    );
                }
            }
        }
        // Per-(algorithm, backend, class) digests aggregated across ranks.
        let mut merged: BTreeMap<(String, String, u8), (u64, u64)> = BTreeMap::new();
        for f in &report.frames {
            for h in &f.histos {
                let e = merged
                    .entry((h.label.clone(), h.backend.clone(), h.class))
                    .or_insert((0, 0));
                e.0 += h.count;
                e.1 += h.sum_ns;
            }
        }
        if !merged.is_empty() {
            let _ = writeln!(out, "\n## latency digests (all ranks)");
            for ((label, backend, class), (count, sum_ns)) in merged {
                let mean_ms = if count == 0 {
                    0.0
                } else {
                    sum_ns as f64 / count as f64 / 1e6
                };
                let _ = writeln!(
                    out,
                    "  {label} [{backend}] 2^{class}: n={count} mean={mean_ms:.3}ms"
                );
            }
        }
    }

    if trace.present {
        let _ = writeln!(
            out,
            "\n## merged trace ({} events, ranks {:?})",
            trace.events,
            trace.ranks.iter().collect::<Vec<_>>()
        );
        let _ = writeln!(
            out,
            "flow arrows: {} send halves, {} recv halves",
            trace.flow_starts, trace.flow_finishes
        );
        if trace.dropped_spans > 0 {
            let _ = writeln!(
                out,
                "WARNING: {} spans were evicted from bounded rings — raise the ring capacity \
                 for complete traces",
                trace.dropped_spans
            );
        }
        if !trace.collectives.is_empty() {
            let _ = writeln!(out, "per-algorithm collective percentiles (trace spans):");
            for (name, durs) in &trace.collectives {
                let _ = writeln!(
                    out,
                    "  {name}: n={} p50={:.3}ms p90={:.3}ms p99={:.3}ms",
                    durs.len(),
                    percentile(durs, 0.50) / 1e3,
                    percentile(durs, 0.90) / 1e3,
                    percentile(durs, 0.99) / 1e3,
                );
            }
        }
    }
    out
}

fn render_report_json(report: &ClusterReport, trace: &TraceSummary, delta: f64) -> String {
    let mut fields = vec![
        ("telemetry".to_string(), report.to_json()),
        ("delta".to_string(), Value::Num(delta)),
    ];
    if trace.present {
        let collectives = trace
            .collectives
            .iter()
            .map(|(name, durs)| {
                Value::Obj(vec![
                    ("name".into(), Value::Str(name.clone())),
                    ("n".into(), Value::Num(durs.len() as f64)),
                    ("p50_us".into(), Value::Num(percentile(durs, 0.50))),
                    ("p90_us".into(), Value::Num(percentile(durs, 0.90))),
                    ("p99_us".into(), Value::Num(percentile(durs, 0.99))),
                ])
            })
            .collect();
        fields.push((
            "trace".to_string(),
            Value::Obj(vec![
                ("events".into(), Value::Num(trace.events as f64)),
                (
                    "ranks".into(),
                    Value::Arr(trace.ranks.iter().map(|r| Value::Num(*r as f64)).collect()),
                ),
                ("flow_starts".into(), Value::Num(trace.flow_starts as f64)),
                (
                    "flow_finishes".into(),
                    Value::Num(trace.flow_finishes as f64),
                ),
                (
                    "dropped_spans".into(),
                    Value::Num(trace.dropped_spans as f64),
                ),
                ("collectives".into(), Value::Arr(collectives)),
            ]),
        ));
    }
    Value::Obj(fields).render()
}

/// Exit status for a rendered report. Warnings (bandwidth-bound fusion,
/// span drops) never affect it: 0 unless there was nothing to report (1)
/// or `--expect-ranks` found ranks missing (2).
fn exit_code_for(report: &ClusterReport, trace: &TraceSummary, expect_ranks: Option<usize>) -> u8 {
    if report.frames.is_empty() && !trace.present {
        return 1;
    }
    if let Some(expect) = expect_ranks {
        let telemetry_ok =
            report.frames.is_empty() || report.ranks() == (0..expect as u32).collect::<Vec<_>>();
        let trace_ok = !trace.present || trace.ranks.len() == expect;
        if !telemetry_ok || !trace_ok {
            return 2;
        }
    }
    0
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(1);
        }
    };
    let world = discover_world(&args.dir);
    let report = match sparcml_obs::load_telemetry_dir(&args.dir, world) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("sparcml-doctor: {e}");
            return ExitCode::from(1);
        }
    };
    let trace = match load_trace(&args.dir) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("sparcml-doctor: {e}");
            return ExitCode::from(1);
        }
    };
    if args.json {
        println!("{}", render_report_json(&report, &trace, args.delta));
    } else {
        print!("{}", render_report(&report, &trace, args.delta));
    }
    match exit_code_for(&report, &trace, args.expect_ranks) {
        0 => ExitCode::SUCCESS,
        1 => {
            eprintln!(
                "sparcml-doctor: no telemetry frames or merged trace under {}",
                args.dir.display()
            );
            ExitCode::from(1)
        }
        code => {
            eprintln!(
                "sparcml-doctor: expected {:?} ranks, telemetry has {:?}, trace has {:?}",
                args.expect_ranks,
                report.ranks(),
                trace.ranks
            );
            ExitCode::from(code)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparcml_obs::telemetry::DensityStats;

    /// A cluster report shaped like a fused k = 1e4 run at P = 4: huge
    /// average messages (the bandwidth-bound symptom) but a result-union
    /// density still below the default δ of 0.5.
    fn fused_k1e4_report() -> ClusterReport {
        let frames = (0..4u32)
            .map(|rank| TelemetryFrame {
                rank,
                world: 4,
                counters: vec![("bytes_sent".into(), 8 << 20), ("msgs_sent".into(), 4)],
                density: DensityStats {
                    collectives: 4,
                    dim_sum: 4 << 16,
                    input_nnz_sum: 40_000,
                    input_nnz_max: 10_000,
                    output_nnz_sum: 100_000,
                    output_nnz_max: 25_000,
                    dense_results: 0,
                },
                ..TelemetryFrame::default()
            })
            .collect();
        ClusterReport { frames }
    }

    #[test]
    fn bandwidth_warning_names_the_fusion_knobs() {
        let text = render_report(
            &fused_k1e4_report(),
            &TraceSummary::default(),
            DEFAULT_DELTA_DENSITY,
        );
        assert!(text.contains("WARNING"), "{text}");
        assert!(text.contains("FusionPolicy::max_chunk_elements"), "{text}");
        assert!(text.contains("FusionPolicy::disabled()"), "{text}");
    }

    #[test]
    fn bandwidth_warning_does_not_affect_the_exit_code() {
        // Density-aware fusion active, no bucket past δ: a clean run even
        // with the warning printed — exit 0 with all ranks present.
        let report = fused_k1e4_report();
        let trace = TraceSummary::default();
        assert_eq!(exit_code_for(&report, &trace, Some(4)), 0);
        assert_eq!(exit_code_for(&report, &trace, None), 0);
        // The structural failures still map to their codes.
        assert_eq!(exit_code_for(&ClusterReport::default(), &trace, None), 1);
        assert_eq!(exit_code_for(&report, &trace, Some(8)), 2);
    }
}
