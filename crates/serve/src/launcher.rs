//! Multi-process client launcher.
//!
//! [`run_serve_clients`] turns one test (or example `main`) into a real
//! many-client job against an aggregation server: the *parent* keeps the
//! server (usually an in-process [`crate::ShardGroup`], so the test can
//! inspect its health endpoint afterwards) and re-executes the current
//! binary once per client with the shard addresses in the environment.
//! Each child runs the caller's client program and reports its result
//! over stdout; the parent enforces a hard wall-clock deadline.
//!
//! Like the net-layer cluster launcher, the same function is both
//! orchestrator and worker — the call site is a single block:
//!
//! ```no_run
//! use sparcml_serve::launcher::{run_serve_clients, ClientLaunchOptions};
//!
//! // addrs: the running server's shard addresses, parent-side only.
//! # let addrs: Vec<std::net::SocketAddr> = Vec::new();
//! let opts = ClientLaunchOptions::for_test();
//! let Some(outcomes) = run_serve_clients("my_serve_test", 4, &addrs, &opts, |client, addrs| {
//!     format!("client {client} sees {} shards", addrs.len())
//! }) else {
//!     return; // this process was a client; the parent asserts
//! };
//! ```

use std::net::SocketAddr;
use std::time::Duration;

use sparcml_net::launcher::run_child_processes;

/// The child's client index (presence selects the worker role).
const ENV_CLIENT: &str = "SPARCML_SERVE_CLIENT";
/// Comma-separated shard addresses.
const ENV_ADDRS: &str = "SPARCML_SERVE_ADDRS";

/// How the parent launches and supervises client subprocesses.
#[derive(Debug, Clone)]
pub struct ClientLaunchOptions {
    /// Hard wall-clock deadline for the whole job. Default 120 s.
    pub timeout: Duration,
    /// Pass libtest filter flags (`<job> --exact --nocapture`) so each
    /// child runs exactly the calling test. Leave `false` for plain
    /// binaries/examples.
    pub test_harness: bool,
    /// Extra environment variables for every client.
    pub env: Vec<(String, String)>,
}

impl Default for ClientLaunchOptions {
    fn default() -> Self {
        ClientLaunchOptions {
            timeout: Duration::from_secs(120),
            test_harness: false,
            env: Vec::new(),
        }
    }
}

impl ClientLaunchOptions {
    /// Defaults for launching from inside a `#[test]` (the job name must
    /// be the test's full path for the `--exact` filter).
    pub fn for_test() -> Self {
        ClientLaunchOptions {
            test_harness: true,
            ..ClientLaunchOptions::default()
        }
    }

    /// Builder-style override of the job deadline.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }
}

/// What became of one client subprocess: the net-layer launcher's
/// outcome record, whose `rank` field is the client index here.
pub use sparcml_net::launcher::RankOutcome as ClientOutcome;

/// True when this process is a client child of [`run_serve_clients`].
/// Parent-side setup (starting the server, reserving ports) should be
/// skipped in that case — the child re-enters the calling test and must
/// not start a server of its own.
pub fn in_client_role() -> bool {
    std::env::var(ENV_CLIENT).is_ok()
}

/// Runs `f` once per client across `clients` real OS processes against
/// the server at `addrs` (which stays in the parent) and returns the
/// per-client outcomes, indexed by client.
///
/// Returns `None` in child processes; the parent gets every outcome —
/// including deliberate failures, so kill/churn tests can assert on
/// them. `f` receives the client index and the shard address list.
pub fn run_serve_clients<F>(
    job: &str,
    clients: usize,
    addrs: &[SocketAddr],
    opts: &ClientLaunchOptions,
    f: F,
) -> Option<Vec<ClientOutcome>>
where
    F: FnOnce(usize, &[SocketAddr]) -> String,
{
    assert!(clients > 0, "a client job needs at least one client");
    let addr_list: Vec<String> = addrs.iter().map(|a| a.to_string()).collect();
    let addr_list = addr_list.join(",");
    run_child_processes(
        job,
        clients,
        ENV_CLIENT,
        |_client| {
            assert!(!addrs.is_empty(), "parent must pass the server's addresses");
            let mut env = vec![(ENV_ADDRS.to_string(), addr_list.clone())];
            env.extend(opts.env.iter().cloned());
            env
        },
        opts.timeout,
        opts.test_harness,
        |client| {
            let addrs: Vec<SocketAddr> = std::env::var(ENV_ADDRS)
                .expect("shard address list")
                .split(',')
                .map(|a| a.parse().expect("shard address"))
                .collect();
            f(client, &addrs)
        },
    )
}
