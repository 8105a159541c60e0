//! `--all` and `--repeat`: every workload in a fresh child process, with
//! the machine fingerprint and a disturbance probe around each, written
//! to `out/results-<set>.json`.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use crate::compare;
use crate::harness::RunCfg;
use crate::json::{self, escape, number, Value};
use crate::metrics::{self, WORKLOADS};
use crate::sys::{calibrate, out_dir, Fingerprint};

/// The probe runs this long before and after each workload.
const CALIBRATION: Duration = Duration::from_millis(500);

/// Probe readings further apart than this mark the workload disturbed.
const MAX_DRIFT: f64 = 0.10;

/// Runs of each workload per set under `--repeat`. The two sets' runs
/// alternate (a b, b a, a b), so a spell of host noise falls on both, and
/// each set reports the median of its runs.
const REPEAT_RUNS: usize = 3;

/// One workload's numbers in a result set.
#[derive(Default, Clone)]
pub struct WorkloadResult {
    pub attempted: u64,
    pub failed: u64,
    pub disturbed: bool,
    pub calibration_drift: f64,
    pub end_to_end: BTreeMap<String, f64>,
    pub per_layer: BTreeMap<String, f64>,
}

pub struct ResultSet {
    pub fingerprint_json: String,
    pub seed: u64,
    pub seconds: f64,
    pub workloads: BTreeMap<String, WorkloadResult>,
}

impl WorkloadResult {
    /// One set's view of several runs of a workload: counts add up, each
    /// metric is the median of the runs that reported it.
    fn median_of(runs: &[WorkloadResult]) -> WorkloadResult {
        let medians = |of: fn(&WorkloadResult) -> &BTreeMap<String, f64>| {
            let mut by_name: BTreeMap<String, Vec<f64>> = BTreeMap::new();
            for (name, value) in runs.iter().flat_map(|r| of(r).iter()) {
                by_name.entry(name.clone()).or_default().push(*value);
            }
            by_name
                .into_iter()
                .map(|(name, values)| (name, crate::estimate::median(&values)))
                .collect()
        };
        WorkloadResult {
            attempted: runs.iter().map(|r| r.attempted).sum(),
            failed: runs.iter().map(|r| r.failed).sum(),
            disturbed: runs.iter().any(|r| r.disturbed),
            calibration_drift: runs.iter().map(|r| r.calibration_drift).fold(0.0, f64::max),
            end_to_end: medians(|r| &r.end_to_end),
            per_layer: medians(|r| &r.per_layer),
        }
    }
}

impl ResultSet {
    pub fn any_failed(&self) -> bool {
        self.workloads.values().any(|w| w.failed > 0)
    }

    fn to_json(&self) -> String {
        let map = |m: &BTreeMap<String, f64>| {
            let fields: Vec<String> = m
                .iter()
                .map(|(k, v)| format!("{}:{}", escape(k), number(*v)))
                .collect();
            format!("{{{}}}", fields.join(","))
        };
        let workloads: Vec<String> = self
            .workloads
            .iter()
            .map(|(name, w)| {
                format!(
                    "{}:{{\"attempted\":{},\"failed\":{},\"disturbed\":{},\"calibration_drift\":{},\"end_to_end\":{},\"per_layer\":{}}}",
                    escape(name),
                    w.attempted,
                    w.failed,
                    w.disturbed,
                    number(w.calibration_drift),
                    map(&w.end_to_end),
                    map(&w.per_layer)
                )
            })
            .collect();
        format!(
            "{{\"fingerprint\":{},\"seed\":{},\"seconds\":{},\"workloads\":{{\n{}\n}}}}\n",
            self.fingerprint_json,
            self.seed,
            number(self.seconds),
            workloads.join(",\n")
        )
    }

    pub fn from_json(text: &str) -> Result<ResultSet, String> {
        let doc = json::parse(text)?;
        let nums = |v: Option<&Value>| -> BTreeMap<String, f64> {
            v.and_then(Value::as_object)
                .map(|m| {
                    m.iter()
                        .filter_map(|(k, v)| v.as_f64().map(|v| (k.clone(), v)))
                        .collect()
                })
                .unwrap_or_default()
        };
        let mut workloads = BTreeMap::new();
        let listed = doc
            .get("workloads")
            .and_then(Value::as_object)
            .ok_or("result set has no \"workloads\" object")?;
        for (name, w) in listed {
            let count = |key: &str| w.get(key).and_then(Value::as_f64).unwrap_or(0.0);
            workloads.insert(
                name.clone(),
                WorkloadResult {
                    attempted: count("attempted") as u64,
                    failed: count("failed") as u64,
                    disturbed: w.get("disturbed").and_then(Value::as_bool).unwrap_or(false),
                    calibration_drift: count("calibration_drift"),
                    end_to_end: nums(w.get("end_to_end")),
                    per_layer: nums(w.get("per_layer")),
                },
            );
        }
        Ok(ResultSet {
            fingerprint_json: String::new(),
            seed: doc.get("seed").and_then(Value::as_f64).unwrap_or(0.0) as u64,
            seconds: doc.get("seconds").and_then(Value::as_f64).unwrap_or(0.0),
            workloads,
        })
    }
}

/// Runs one workload in a child of this executable and parses the result
/// line it ends with.
fn run_child(
    name: &str,
    cfg: &RunCfg,
    traced: bool,
) -> Result<(u64, u64, BTreeMap<String, f64>), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", name])
        .args(["--seed", &cfg.seed.to_string()])
        .args(["--seconds", &cfg.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{name} printed nothing (exit {})", output.status))?;
    let doc = json::parse(line).map_err(|e| format!("{name}: last line is not a result: {e}"))?;
    let count = |key: &str| {
        doc.get(key)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("{name}: result has no {key}"))
    };
    let metrics = doc
        .get("metrics")
        .and_then(Value::as_object)
        .ok_or_else(|| format!("{name}: result has no metrics"))?
        .iter()
        .filter_map(|(k, v)| {
            v.get("value")
                .and_then(Value::as_f64)
                .map(|v| (k.clone(), v))
        })
        .collect();
    Ok((count("attempted")? as u64, count("failed")? as u64, metrics))
}

/// One workload: probe, run, probe; a drifted probe earns one re-run.
fn run_workload(name: &str, cfg: &RunCfg) -> Result<WorkloadResult, String> {
    let mut result = WorkloadResult::default();
    for attempt in 0..2 {
        let before = calibrate(CALIBRATION);
        let (attempted, failed, end_to_end) = run_child(name, cfg, false)?;
        let after = calibrate(CALIBRATION);
        result = WorkloadResult {
            attempted,
            failed,
            calibration_drift: (after - before).abs() / before,
            end_to_end,
            ..WorkloadResult::default()
        };
        result.disturbed = result.calibration_drift > MAX_DRIFT;
        if !result.disturbed {
            break;
        }
        eprintln!(
            "note: {name}: calibration moved {:.1}% across the run ({before:.1} -> {after:.1} Miter/s){}",
            result.calibration_drift * 100.0,
            if attempt == 0 { "; running it once more" } else { "; marked disturbed" }
        );
    }
    if cfg.trace {
        let (attempted, failed, all_layers) = run_child(name, cfg, true)?;
        result.attempted += attempted;
        result.failed += failed;
        // A traced child pads the metrics it does not measure with 0 for
        // the driver; here each metric is kept once, under its owner.
        result.per_layer = metrics::per_layer()
            .into_iter()
            .filter(|d| d.owned_by(name))
            .filter_map(|d| all_layers.get(&d.name).map(|v| (d.name, *v)))
            .collect();
    }
    Ok(result)
}

fn print_set(set: &ResultSet) {
    let e2e = metrics::end_to_end();
    let layers = metrics::per_layer();
    for w in &WORKLOADS {
        let Some(r) = set.workloads.get(w.name) else {
            continue;
        };
        println!(
            "\n== {} ==  attempted {} failed {} fail_ratio {}{}",
            w.name,
            r.attempted,
            r.failed,
            r.failed as f64 / r.attempted.max(1) as f64,
            if r.disturbed { "  DISTURBED" } else { "" }
        );
        for d in &e2e {
            if let Some(v) = r.end_to_end.get(&d.name) {
                println!("  {:<44} {:>16.4} {}", d.name, v, d.unit);
            }
        }
        for d in layers.iter().filter(|d| d.owned_by(w.name)) {
            if let Some(v) = r.per_layer.get(&d.name) {
                println!("  {:<44} {:>16.4} {}", d.name, v, d.unit);
            }
        }
    }
}

fn write_set(set: &ResultSet, name: &str) -> Result<PathBuf, String> {
    let path = out_dir()
        .map_err(|e| format!("creating the output directory: {e}"))?
        .join(format!("results-{name}.json"));
    std::fs::write(&path, set.to_json()).map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(path)
}

/// Measures one result set per name in `sets`, `runs` runs of every
/// workload each, the sets taking turns workload by workload.
fn run_sets(cfg: &RunCfg, sets: &[&str], runs: usize) -> Result<Vec<ResultSet>, String> {
    let fingerprint = Fingerprint::collect();
    println!(
        "machine: {} x {}, kernel {}, {}, commit {}, load {}",
        fingerprint.nproc,
        fingerprint.cpu_model,
        fingerprint.kernel,
        fingerprint.rustc,
        fingerprint.git_commit,
        fingerprint.load_average
    );
    let mut done: Vec<ResultSet> = sets
        .iter()
        .map(|_| ResultSet {
            fingerprint_json: fingerprint.to_json(),
            seed: cfg.seed,
            seconds: cfg.seconds,
            workloads: BTreeMap::new(),
        })
        .collect();
    for w in &WORKLOADS {
        let mut results: Vec<Vec<WorkloadResult>> = vec![Vec::new(); sets.len()];
        for round in 0..runs {
            let mut order: Vec<usize> = (0..sets.len()).collect();
            if round % 2 == 1 {
                order.reverse();
            }
            for set in order {
                eprintln!(
                    "running {} (set {}, run {}) ...",
                    w.name,
                    sets[set],
                    round + 1
                );
                results[set].push(run_workload(w.name, cfg)?);
            }
        }
        for (set, of_set) in done.iter_mut().zip(&results) {
            set.workloads
                .insert(w.name.to_string(), WorkloadResult::median_of(of_set));
        }
    }
    for (set, name) in done.iter().zip(sets) {
        print_set(set);
        let path = write_set(set, name)?;
        println!("\nresults written to {}", path.display());
    }
    Ok(done)
}

pub fn run_all(cfg: &RunCfg) -> Result<ResultSet, String> {
    let mut sets = run_sets(cfg, &["latest"], 1)?;
    Ok(sets.pop().expect("one set was asked for"))
}

pub fn run_repeat(cfg: &RunCfg) -> Result<ExitCode, String> {
    let sets = run_sets(cfg, &["a", "b"], REPEAT_RUNS)?;
    let failed = sets.iter().any(ResultSet::any_failed);
    let agree = compare::check_sets(&sets[0], &sets[1]);
    Ok(if agree && !failed {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_set_round_trips_through_its_file_format() {
        let mut w = WorkloadResult {
            attempted: 100,
            failed: 0,
            disturbed: true,
            calibration_drift: 0.125,
            ..WorkloadResult::default()
        };
        w.end_to_end.insert("peak_rss_mb".into(), 112.75);
        w.per_layer.insert("net.reactor_rtt_us".into(), 41.5);
        let mut set = ResultSet {
            fingerprint_json: "{\"nproc\":2}".into(),
            seed: 9,
            seconds: 10.0,
            workloads: BTreeMap::new(),
        };
        set.workloads.insert("ar-latency".into(), w);
        let back = ResultSet::from_json(&set.to_json()).unwrap();
        assert_eq!((back.seed, back.seconds), (9, 10.0));
        let w = &back.workloads["ar-latency"];
        assert_eq!((w.attempted, w.failed, w.disturbed), (100, 0, true));
        assert_eq!(w.calibration_drift, 0.125);
        assert_eq!(w.end_to_end["peak_rss_mb"], 112.75);
        assert_eq!(w.per_layer["net.reactor_rtt_us"], 41.5);
        assert!(ResultSet::from_json("{}").is_err());
    }

    #[test]
    fn a_set_reports_the_median_of_its_runs_and_the_sum_of_their_counts() {
        let run = |rss: f64, failed: u64| {
            let mut w = WorkloadResult {
                attempted: 100,
                failed,
                ..WorkloadResult::default()
            };
            w.end_to_end.insert("peak_rss_mb".into(), rss);
            w
        };
        let mut odd_one = run(99.0, 1);
        odd_one.per_layer.insert("wall.op_p50_us".into(), 125.0);
        let set = WorkloadResult::median_of(&[run(24.0, 0), odd_one, run(23.0, 0)]);
        assert_eq!((set.attempted, set.failed), (300, 1));
        assert_eq!(set.end_to_end["peak_rss_mb"], 24.0);
        assert_eq!(set.per_layer["wall.op_p50_us"], 125.0);
    }
}
