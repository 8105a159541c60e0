//! `--repeat-check`: do two result sets of one commit agree within the
//! benchmark's own bounds? If they do not, a later change cannot be told
//! from noise with this benchmark and the benchmark is what needs fixing.

use std::process::ExitCode;

use crate::metrics::{self, WORKLOADS};
use crate::suite::ResultSet;

/// How far apart two readings are, as a share of the better-looking one
/// for a bounded metric (the strict direction for a regression gate).
fn gap(a: f64, b: f64) -> f64 {
    let base = a.abs().min(b.abs());
    if base == 0.0 {
        if a == b {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (a - b).abs() / base
    }
}

/// Prints the metric-by-metric table; returns whether every end-to-end
/// metric of every workload agrees within its bound.
pub fn check_sets(a: &ResultSet, b: &ResultSet) -> bool {
    let mut agree = true;
    println!(
        "\n{:<16} {:<44} {:>14} {:>14} {:>8} {:>7}  verdict",
        "workload", "metric", "a", "b", "gap", "bound"
    );
    for w in &WORKLOADS {
        let (Some(ra), Some(rb)) = (a.workloads.get(w.name), b.workloads.get(w.name)) else {
            println!("{:<16} missing from one of the sets  DISAGREE", w.name);
            agree = false;
            continue;
        };
        if ra.failed != rb.failed {
            println!(
                "{:<16} {:<44} {:>14} {:>14}  DISAGREE",
                w.name, "failed", ra.failed, rb.failed
            );
            agree = false;
        }
        for d in metrics::end_to_end() {
            let bound = d.bound.expect("end-to-end metrics carry a bound");
            match (ra.end_to_end.get(&d.name), rb.end_to_end.get(&d.name)) {
                (Some(&va), Some(&vb)) => {
                    let g = gap(va, vb);
                    let ok = g <= bound;
                    agree &= ok;
                    println!(
                        "{:<16} {:<44} {:>14.4} {:>14.4} {:>7.2}% {:>6.0}%  {}",
                        w.name,
                        d.name,
                        va,
                        vb,
                        g * 100.0,
                        bound * 100.0,
                        if ok { "ok" } else { "DISAGREE" }
                    );
                }
                _ => {
                    println!("{:<16} {:<44} missing  DISAGREE", w.name, d.name);
                    agree = false;
                }
            }
        }
        for d in metrics::per_layer().iter().filter(|d| d.owned_by(w.name)) {
            if let (Some(&va), Some(&vb)) = (ra.per_layer.get(&d.name), rb.per_layer.get(&d.name)) {
                println!(
                    "{:<16} {:<44} {:>14.4} {:>14.4} {:>7.2}%       -  not gated",
                    w.name,
                    d.name,
                    va,
                    vb,
                    gap(va, vb) * 100.0
                );
            }
        }
    }
    println!(
        "\n{}",
        if agree {
            "the two sets agree within every end-to-end bound"
        } else {
            "the two sets DISAGREE: fix the workload size or the estimator, not the bound"
        }
    );
    agree
}

pub fn check_files(a: &str, b: &str) -> Result<ExitCode, String> {
    let load = |path: &str| -> Result<ResultSet, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        ResultSet::from_json(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (a, b) = (load(a)?, load(b)?);
    Ok(if check_sets(&a, &b) {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::WorkloadResult;
    use std::collections::BTreeMap;

    fn set(rss: f64, wire: f64) -> ResultSet {
        let mut workloads = BTreeMap::new();
        for w in &WORKLOADS {
            let mut r = WorkloadResult {
                attempted: 10,
                ..WorkloadResult::default()
            };
            for d in metrics::end_to_end() {
                r.end_to_end.insert(d.name, 1.0);
            }
            r.end_to_end.insert("peak_rss_mb".into(), rss);
            r.end_to_end.insert("wire_bytes_per_op".into(), wire);
            r.per_layer.insert("wall.op_p50_us".into(), rss * 5.0);
            workloads.insert(w.name.to_string(), r);
        }
        ResultSet {
            fingerprint_json: String::new(),
            seed: 1,
            seconds: 10.0,
            workloads,
        }
    }

    #[test]
    fn sets_within_bounds_agree_and_layers_never_gate() {
        // 8 % apart on the 10 % bound and 0.5 % apart on the 1 % wire
        // bound; the per-layer metric is 30 % apart and gates nothing.
        let mut b = set(108.0, 2010.0);
        for r in b.workloads.values_mut() {
            r.per_layer.insert("wall.op_p50_us".into(), 650.0);
        }
        assert!(check_sets(&set(100.0, 2000.0), &b));
    }

    #[test]
    fn a_gap_past_the_bound_disagrees() {
        assert!(!check_sets(&set(100.0, 2000.0), &set(112.0, 2000.0)));
        assert!(!check_sets(&set(100.0, 2000.0), &set(100.0, 2030.0)));
    }

    #[test]
    fn a_missing_workload_or_a_failure_count_disagrees() {
        let mut b = set(100.0, 2000.0);
        b.workloads.remove("serve-mixed");
        assert!(!check_sets(&set(100.0, 2000.0), &b));
        let mut c = set(100.0, 2000.0);
        c.workloads.get_mut("ar-latency").unwrap().failed = 1;
        assert!(!check_sets(&set(100.0, 2000.0), &c));
    }

    #[test]
    fn gap_is_symmetric_and_handles_zero() {
        assert_eq!(gap(100.0, 110.0), gap(110.0, 100.0));
        assert_eq!(gap(0.0, 0.0), 0.0);
        assert_eq!(gap(0.0, 1.0), f64::INFINITY);
    }
}
