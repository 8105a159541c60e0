//! Multi-process cluster launcher: the stand-in for `mpirun`.
//!
//! [`run_socket_cluster`] turns one test (or example `main`) into a real
//! multi-process job: the parent re-executes the current binary once per
//! rank with the `SPARCML_RANK` / `SPARCML_WORLD` / `SPARCML_ROOT_ADDR`
//! bootstrap variables set, each child rendezvouses into a
//! [`ReactorTransport`] over loopback ([`ReactorTransport::from_env`]),
//! runs the caller's rank program, and reports its result back over
//! stdout. The parent enforces a hard wall-clock deadline — a deadlocked
//! cluster fails the build instead of stalling it.
//!
//! The same function is both the orchestrator and the worker: it checks
//! the environment to see which role this process plays, so the call
//! site is a single block (the `let Some(..) = .. else { return }`
//! pattern):
//!
//! ```no_run
//! use sparcml_net::launcher::{run_socket_cluster, LaunchOptions};
//! use sparcml_net::Transport;
//!
//! // Inside a test named `my_socket_test` in an integration-test binary:
//! let opts = LaunchOptions::for_test();
//! let Some(results) = run_socket_cluster("my_socket_test", 4, &opts, |tp| {
//!     format!("rank {} of {}", tp.rank(), tp.size())
//! }) else {
//!     return; // this process was a worker rank; the parent asserts
//! };
//! assert_eq!(results.len(), 4);
//! ```
//!
//! For manual multi-machine runs skip the launcher entirely: export the
//! three `SPARCML_*` variables on each machine by hand and call
//! [`ReactorTransport::from_env`] directly.

use std::io::Read;
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use sparcml_obs as obs;

use crate::bootstrap::{ENV_RANK, ENV_ROOT_ADDR, ENV_WORLD};
use crate::reactor::ReactorTransport;

/// Job-name guard: a child only runs the closure of the job it was
/// spawned for (defense in depth next to the `--exact` test filter).
const ENV_JOB: &str = "SPARCML_JOB";

/// Marker prefixing a child's result line on stdout.
const RESULT_MARKER: &str = "SPARCML_RESULT:";

/// How the parent launches and supervises rank subprocesses.
#[derive(Debug, Clone)]
pub struct LaunchOptions {
    /// Hard wall-clock deadline for the whole job; stragglers are killed
    /// and reported once it passes. Default 120 s.
    pub timeout: Duration,
    /// Forwarded to every rank as `SPARCML_RECV_TIMEOUT_MS` (the receive
    /// watchdog [`crate::TransportConfig::recv_timeout`]).
    pub recv_timeout: Option<Duration>,
    /// Forwarded to every rank as `SPARCML_CONNECT_TIMEOUT_MS`.
    pub connect_timeout: Option<Duration>,
    /// When launching from inside a `#[test]`, pass the libtest filter
    /// flags (`<job> --exact --nocapture`) so each child process runs
    /// exactly the calling test and nothing else. Leave `false` when the
    /// caller is a plain binary/example whose `main` re-enters the
    /// launcher on its own.
    pub test_harness: bool,
    /// Extra environment variables for every rank.
    pub env: Vec<(String, String)>,
    /// Span-trace output directory, exported to every rank as
    /// `SPARCML_TRACE`: each rank installs a recorder at startup, writes
    /// `trace-rank{r}.json` on orderly shutdown, and the parent merges
    /// the per-rank files into a single Chrome trace
    /// (`trace-merged.json`, one `pid` per rank) once the job finishes.
    /// `None` still honors a `SPARCML_TRACE` inherited from the parent's
    /// own environment.
    pub trace_dir: Option<PathBuf>,
    /// Cluster-telemetry output directory, exported to every rank as
    /// `SPARCML_TELEMETRY`: each rank collects telemetry (per-peer wait
    /// attribution, density samples, counter/histogram digests) and
    /// writes `telemetry-rank{r}.json` on orderly shutdown; after the
    /// job the parent loads the per-rank frames into a
    /// [`sparcml_obs::ClusterReport`] — the launcher's consistent
    /// cluster view — and prints its straggler summary. `None` still
    /// honors a `SPARCML_TELEMETRY` inherited from the environment.
    pub telemetry_dir: Option<PathBuf>,
}

impl Default for LaunchOptions {
    fn default() -> Self {
        LaunchOptions {
            timeout: Duration::from_secs(120),
            recv_timeout: None,
            connect_timeout: None,
            test_harness: false,
            env: Vec::new(),
            trace_dir: None,
            telemetry_dir: None,
        }
    }
}

impl LaunchOptions {
    /// Defaults for launching from inside a `#[test]` function: the job
    /// name must be the test's full path so the `--exact` filter
    /// re-enters exactly that test in each rank process.
    pub fn for_test() -> Self {
        LaunchOptions {
            test_harness: true,
            ..LaunchOptions::default()
        }
    }

    /// Builder-style override of the job deadline.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Builder-style override of the ranks' receive watchdog.
    pub fn with_recv_timeout(mut self, recv_timeout: Duration) -> Self {
        self.recv_timeout = Some(recv_timeout);
        self
    }

    /// Builder-style span-trace directory (see
    /// [`LaunchOptions::trace_dir`]).
    pub fn with_trace_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.trace_dir = Some(dir.into());
        self
    }

    /// Builder-style cluster-telemetry directory (see
    /// [`LaunchOptions::telemetry_dir`]).
    pub fn with_telemetry_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.telemetry_dir = Some(dir.into());
        self
    }
}

/// What became of one rank subprocess.
#[derive(Debug, Clone)]
pub struct RankOutcome {
    /// The rank this child ran as.
    pub rank: usize,
    /// Process exit code (`None` when killed by a signal — including the
    /// parent's deadline kill).
    pub exit_code: Option<i32>,
    /// The rank program's return value, if the worker got far enough to
    /// report one.
    pub result: Option<String>,
    /// Everything the child wrote to stdout (harness chatter plus the
    /// result marker line).
    pub stdout: String,
    /// Everything the child wrote to stderr (panic messages live here).
    pub stderr: String,
    /// Whether the parent killed this child at the deadline.
    pub timed_out: bool,
}

impl RankOutcome {
    /// A rank succeeded iff it exited 0 in time and reported a result.
    pub fn ok(&self) -> bool {
        self.exit_code == Some(0) && self.result.is_some() && !self.timed_out
    }
}

/// Runs `f` once per rank across `world` real OS processes over loopback
/// sockets and returns the per-rank results, indexed by rank.
///
/// Returns `None` in worker processes (the parent does the asserting) and
/// panics in the parent if any rank failed, timed out, or reported no
/// result — with the failing ranks' stderr in the message.
pub fn run_socket_cluster<F>(
    job: &str,
    world: usize,
    opts: &LaunchOptions,
    f: F,
) -> Option<Vec<String>>
where
    F: FnOnce(&mut ReactorTransport) -> String,
{
    let outcomes = run_socket_cluster_outcomes(job, world, opts, f)?;
    Some(require_success(job, &outcomes))
}

/// [`run_socket_cluster`] without the success policy: returns every
/// rank's [`RankOutcome`] so callers can assert on deliberate failures
/// (e.g. a killed peer making the survivors error out).
pub fn run_socket_cluster_outcomes<F>(
    job: &str,
    world: usize,
    opts: &LaunchOptions,
    f: F,
) -> Option<Vec<RankOutcome>>
where
    F: FnOnce(&mut ReactorTransport) -> String,
{
    assert!(world > 0, "cluster needs at least one rank");
    // Reserved by the parent on the first child's environment; a worker
    // never asks.
    let mut root_addr = None;
    let outcomes = run_child_processes(
        job,
        world,
        ENV_RANK,
        |_rank| {
            let root_addr = root_addr.get_or_insert_with(reserve_loopback_addr);
            let mut env = vec![
                (ENV_WORLD.to_string(), world.to_string()),
                (ENV_ROOT_ADDR.to_string(), root_addr.clone()),
            ];
            let mut set = |k: &str, v: String| env.push((k.to_string(), v));
            if let Some(t) = opts.recv_timeout {
                set("SPARCML_RECV_TIMEOUT_MS", t.as_millis().to_string());
            }
            if let Some(t) = opts.connect_timeout {
                set("SPARCML_CONNECT_TIMEOUT_MS", t.as_millis().to_string());
            }
            if let Some(dir) = &opts.trace_dir {
                set(obs::ENV_TRACE, dir.display().to_string());
            }
            if let Some(dir) = &opts.telemetry_dir {
                set(obs::ENV_TELEMETRY, dir.display().to_string());
            }
            env.extend(opts.env.iter().cloned());
            env
        },
        opts.timeout,
        opts.test_harness,
        |rank| {
            // Tracing: if the parent exported SPARCML_TRACE (or it was
            // already in the environment), record spans for this rank's
            // whole lifetime and flush them after orderly teardown.
            obs::install_from_env();
            let mut tp = ReactorTransport::from_env()
                .unwrap_or_else(|e| panic!("rank {rank} failed to join the cluster: {e}"));
            let out = f(&mut tp);
            drop(tp); // orderly teardown: drain queued frames, FIN, join I/O
            if let Err(e) = obs::flush_trace_for_rank(rank) {
                eprintln!("rank {rank}: failed to write span trace: {e}");
            }
            if let Err(e) = obs::flush_telemetry_for_rank(rank, world) {
                eprintln!("rank {rank}: failed to write telemetry frame: {e}");
            }
            out
        },
    )?;
    report_observability(opts, world);
    Some(outcomes)
}

/// Parent-side success policy: unwraps every rank's result or panics
/// with the failing ranks' output.
fn require_success(job: &str, outcomes: &[RankOutcome]) -> Vec<String> {
    let mut results = Vec::with_capacity(outcomes.len());
    let mut failures = String::new();
    for o in outcomes {
        if o.ok() {
            results.push(o.result.clone().expect("ok implies result"));
        } else {
            failures.push_str(&format!(
                "\n--- rank {} (exit {:?}{}) ---\nstdout:\n{}\nstderr:\n{}",
                o.rank,
                o.exit_code,
                if o.timed_out {
                    ", killed at deadline"
                } else {
                    ""
                },
                o.stdout.trim_end(),
                o.stderr.trim_end()
            ));
        }
    }
    if !failures.is_empty() {
        panic!("socket cluster job '{job}' failed:{failures}");
    }
    results
}

/// The multi-process chassis under [`run_socket_cluster_outcomes`] and
/// `sparcml-serve`'s client launcher. One call is the parent or a child,
/// told apart by whether `index_var` is set in the environment.
///
/// The parent re-executes the current binary `children` times — child `i`
/// gets `SPARCML_JOB = job`, `index_var = i` and the pairs `env(i)`, plus
/// the libtest filter flags (`<job> --exact --nocapture`) under
/// `test_harness` — drains both pipes of each, kills whatever is still
/// running at `timeout`, and returns every child's outcome indexed by
/// child (`RankOutcome::rank` is the child index).
///
/// A child runs `f(i)` when it was spawned for this `job` (a child of
/// another job skips it), reports the returned string to the parent over
/// stdout, and gets `None`.
pub fn run_child_processes<E, F>(
    job: &str,
    children: usize,
    index_var: &str,
    mut env: E,
    timeout: Duration,
    test_harness: bool,
    f: F,
) -> Option<Vec<RankOutcome>>
where
    E: FnMut(usize) -> Vec<(String, String)>,
    F: FnOnce(usize) -> String,
{
    if let Ok(index) = std::env::var(index_var) {
        match std::env::var(ENV_JOB) {
            Ok(j) if j == job => {}
            // Spawned for a different job — not ours to run.
            _ => return None,
        }
        let index: usize = index
            .parse()
            .unwrap_or_else(|_| panic!("{index_var} must hold a child index, got {index:?}"));
        let out = f(index);
        println!("{RESULT_MARKER}{index}:{}", to_hex(&out));
        return None;
    }

    let exe = std::env::current_exe().expect("current executable path");
    let deadline = Instant::now() + timeout;

    struct Running {
        child: Child,
        stdout: std::thread::JoinHandle<String>,
        stderr: std::thread::JoinHandle<String>,
        timed_out: bool,
    }

    let mut running: Vec<Running> = (0..children)
        .map(|index| {
            let mut cmd = Command::new(&exe);
            if test_harness {
                cmd.arg(job).arg("--exact").arg("--nocapture");
            }
            cmd.env(ENV_JOB, job)
                .env(index_var, index.to_string())
                .envs(env(index))
                .stdout(Stdio::piped())
                .stderr(Stdio::piped());
            let mut child = cmd
                .spawn()
                .unwrap_or_else(|e| panic!("spawning child {index}: {e}"));
            // Drain both pipes concurrently so a chatty child can never
            // block on a full pipe while the parent is polling.
            let stdout = drain(child.stdout.take().expect("piped stdout"));
            let stderr = drain(child.stderr.take().expect("piped stderr"));
            Running {
                child,
                stdout,
                stderr,
                timed_out: false,
            }
        })
        .collect();

    // Supervise: poll until every child exited or the deadline passed.
    loop {
        let mut alive = 0;
        for r in running.iter_mut() {
            if r.child.try_wait().expect("try_wait").is_none() {
                alive += 1;
            }
        }
        if alive == 0 {
            break;
        }
        if Instant::now() >= deadline {
            for r in running.iter_mut() {
                if r.child.try_wait().expect("try_wait").is_none() {
                    r.timed_out = true;
                    let _ = r.child.kill();
                }
            }
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }

    let outcomes = running
        .into_iter()
        .enumerate()
        .map(|(rank, mut r)| {
            let status = r.child.wait().expect("wait after exit/kill");
            let stdout = r.stdout.join().unwrap_or_default();
            let stderr = r.stderr.join().unwrap_or_default();
            RankOutcome {
                rank,
                exit_code: status.code(),
                result: parse_result(&stdout, rank),
                stdout,
                stderr,
                timed_out: r.timed_out,
            }
        })
        .collect();
    Some(outcomes)
}

/// Parent side, after the job: merges the per-rank span traces and prints
/// the cluster-telemetry summary. Best-effort — never fails the job.
fn report_observability(opts: &LaunchOptions, world: usize) {
    // An explicit directory wins; otherwise honor the SPARCML_TRACE /
    // SPARCML_TELEMETRY the children inherited from this process's
    // environment anyway.
    if let Some(dir) = opts.trace_dir.clone().or_else(obs::trace_env_dir) {
        // Crashed ranks simply have no file.
        match obs::merge_traces(&dir, world) {
            Ok((path, included)) => {
                eprintln!(
                    "merged span trace for ranks {included:?} -> {}",
                    path.display()
                );
            }
            Err(e) => eprintln!("failed to merge span traces in {}: {e}", dir.display()),
        }
    }
    if let Some(dir) = opts.telemetry_dir.clone().or_else(obs::telemetry_env_dir) {
        // The launcher's cluster view, from the per-rank telemetry frames.
        match obs::load_telemetry_dir(&dir, world) {
            Ok(report) if !report.frames.is_empty() => {
                eprintln!(
                    "cluster telemetry ({} ranks in {}):\n{}",
                    report.frames.len(),
                    dir.display(),
                    report.render_text().trim_end()
                );
            }
            Ok(_) => {}
            Err(e) => eprintln!("failed to load cluster telemetry in {}: {e}", dir.display()),
        }
    }
}

fn drain<R: Read + Send + 'static>(mut pipe: R) -> std::thread::JoinHandle<String> {
    std::thread::spawn(move || {
        let mut out = String::new();
        let _ = pipe.read_to_string(&mut out);
        out
    })
}

/// Picks a free loopback port by binding and immediately releasing it.
/// (Rank 0 re-binds it moments later; the window is tiny and the launcher
/// is a test/dev harness, not a production scheduler.)
fn reserve_loopback_addr() -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("reserve loopback port");
    listener
        .local_addr()
        .expect("reserved local addr")
        .to_string()
}

fn parse_result(stdout: &str, rank: usize) -> Option<String> {
    // The marker may share its line with libtest chatter (`test foo ...`
    // is printed without a newline before the test body runs), so look
    // for it anywhere in a line and take the hex run that follows.
    let prefix = format!("{RESULT_MARKER}{rank}:");
    stdout
        .lines()
        .find_map(|line| {
            let idx = line.find(&prefix)?;
            let rest = &line[idx + prefix.len()..];
            let end = rest
                .find(|c: char| !c.is_ascii_hexdigit())
                .unwrap_or(rest.len());
            Some(&rest[..end])
        })
        .and_then(from_hex)
}

fn to_hex(s: &str) -> String {
    let mut out = String::with_capacity(s.len() * 2);
    for b in s.as_bytes() {
        out.push_str(&format!("{b:02x}"));
    }
    out
}

fn from_hex(h: &str) -> Option<String> {
    let h = h.trim();
    if !h.len().is_multiple_of(2) {
        return None;
    }
    let mut bytes = Vec::with_capacity(h.len() / 2);
    for i in (0..h.len()).step_by(2) {
        bytes.push(u8::from_str_radix(h.get(i..i + 2)?, 16).ok()?);
    }
    String::from_utf8(bytes).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::Transport;

    #[test]
    fn hex_round_trips() {
        for s in ["", "ok", "rank 3: sum=1.25e-3\nsecond line", "πδ"] {
            assert_eq!(from_hex(&to_hex(s)).as_deref(), Some(s));
        }
        assert_eq!(from_hex("zz"), None);
        assert_eq!(from_hex("abc"), None);
    }

    #[test]
    fn result_marker_parses_among_harness_chatter() {
        let stdout = format!(
            "running 1 test\n{RESULT_MARKER}2:{}\ntest foo ... ok\n",
            to_hex("payload")
        );
        assert_eq!(parse_result(&stdout, 2).as_deref(), Some("payload"));
        assert_eq!(parse_result(&stdout, 1), None);
    }

    #[test]
    fn launcher_round_trip_across_processes() {
        // This test re-executes the sparcml-net test binary once per rank
        // (filtered to exactly this test), so it exercises the real
        // subprocess bootstrap path.
        let opts = LaunchOptions::for_test().with_timeout(Duration::from_secs(60));
        let Some(results) = run_socket_cluster(
            "launcher::tests::launcher_round_trip_across_processes",
            3,
            &opts,
            |tp| {
                let next = (tp.rank() + 1) % tp.size();
                let prev = (tp.rank() + tp.size() - 1) % tp.size();
                tp.send(next, 5, bytes::Bytes::from(vec![tp.rank() as u8]))
                    .unwrap();
                let got = tp.recv(prev, 5).unwrap();
                format!("rank{}got{}", tp.rank(), got[0])
            },
        ) else {
            return;
        };
        assert_eq!(results, vec!["rank0got2", "rank1got0", "rank2got1"]);
    }
}
