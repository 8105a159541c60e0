//! What the benchmark reads from the machine: process CPU time and peak
//! RSS from `/proc`, the fingerprint, and the disturbance probe.

use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

/// CPU time of this process in microseconds: the on-CPU nanoseconds of
/// every live thread, from `/proc/self/task/<tid>/schedstat`. Finer than
/// the 10 ms ticks of `/proc/self/stat`, so a 0.1 s block resolves. A
/// thread that exits takes its time with it, so read this only across
/// windows in which no thread ends.
pub fn process_cpu_us() -> f64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0.0;
    };
    let ns: u64 = tasks
        .flatten()
        .map(|task| parse_schedstat_ns(&read(&task.path().join("schedstat").to_string_lossy())))
        .sum();
    ns as f64 / 1e3
}

/// First field of a `schedstat` line: nanoseconds spent on a CPU.
fn parse_schedstat_ns(line: &str) -> u64 {
    line.split_whitespace()
        .next()
        .and_then(|f| f.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    parse_status_kib(&read("/proc/self/status"), "VmHWM:") / 1024.0
}

fn parse_status_kib(status: &str, key: &str) -> f64 {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse().ok())
        .unwrap_or(0.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where the numbers came from. Recorded with every result set.
pub struct Fingerprint {
    pub nproc: usize,
    pub cpu_model: String,
    pub kernel: String,
    pub rustc: String,
    pub git_commit: String,
    pub load_average: String,
}

impl Fingerprint {
    pub fn collect() -> Fingerprint {
        let cpu_model = read("/proc/cpuinfo")
            .lines()
            .find(|l| l.starts_with("model name"))
            .and_then(|l| l.split(':').nth(1))
            .map_or_else(|| "unknown".to_string(), |m| m.trim().to_string());
        Fingerprint {
            nproc: nproc(),
            cpu_model,
            kernel: read("/proc/sys/kernel/osrelease").trim().to_string(),
            rustc: command_line("rustc", &["-V"]),
            git_commit: command_line("git", &["rev-parse", "HEAD"]),
            load_average: read("/proc/loadavg").trim().to_string(),
        }
    }

    pub fn to_json(&self) -> String {
        use crate::json::escape;
        format!(
            "{{\"nproc\":{},\"cpu_model\":{},\"kernel\":{},\"rustc\":{},\"git_commit\":{},\"load_average\":{}}}",
            self.nproc,
            escape(&self.cpu_model),
            escape(&self.kernel),
            escape(&self.rustc),
            escape(&self.git_commit),
            escape(&self.load_average),
        )
    }
}

/// Disturbance probe: a fixed single-thread integer loop run for `budget`,
/// reported as iterations per microsecond. Run before and after a
/// workload; if the two disagree, something else had the cores.
pub fn calibrate(budget: Duration) -> f64 {
    let start = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut iters: u64 = 0;
    while start.elapsed() < budget {
        for _ in 0..4096 {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
        }
        iters += 4096;
    }
    std::hint::black_box(x);
    iters as f64 / start.elapsed().as_secs_f64() / 1e6
}

/// The benchmark's own directory: `CARGO_MANIFEST_DIR` under `cargo run`,
/// else `benchmark/` below the working directory. Outputs go to `out/`
/// inside it, so every write stays under the benchmark's `paths`.
pub fn bench_dir() -> PathBuf {
    match std::env::var_os("CARGO_MANIFEST_DIR") {
        Some(dir) => PathBuf::from(dir),
        None => PathBuf::from("benchmark"),
    }
}

pub fn out_dir() -> std::io::Result<PathBuf> {
    let dir = bench_dir().join("out");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedstat_first_field_is_on_cpu_nanoseconds() {
        assert_eq!(parse_schedstat_ns("48157 46179 2\n"), 48157);
        assert_eq!(parse_schedstat_ns(""), 0);
        assert_eq!(parse_schedstat_ns("garbage 1 2"), 0);
    }

    #[test]
    fn process_cpu_grows_with_work() {
        let before = process_cpu_us();
        calibrate(Duration::from_millis(30));
        assert!(process_cpu_us() - before > 1_000.0);
    }

    #[test]
    fn status_peak_rss_parses_kib() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t  20480 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_status_kib(status, "VmHWM:"), 20480.0);
        assert_eq!(parse_status_kib(status, "VmSwap:"), 0.0);
    }

    #[test]
    fn live_readings_are_positive() {
        assert!(peak_rss_mib() > 0.0);
        assert!(calibrate(Duration::from_millis(20)) > 0.0);
        assert!(nproc() >= 1);
    }
}
