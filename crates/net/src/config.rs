//! Timeout and resource limits of the transports.
//!
//! Every root transport must decide how long to wait for a peer that is
//! alive but silent before giving up on it. [`TransportConfig`] holds
//! that receive watchdog — its default is what [`crate::Endpoint`],
//! [`crate::ThreadTransport`] and [`crate::ReactorTransport`] all start
//! with, always counted in wall time, the virtual-time endpoint included
//! — next to the socket transport's connect deadline and frame cap, so a
//! lost peer turns into a typed error instead of hanging a collective
//! (and any CI run) forever.

use std::time::Duration;

use crate::error::CommError;

/// Default `max_frame_len` for peer-to-peer collectives (1 GiB): ranks in
/// a launch-together job trust each other, so the limit only guards
/// against frame corruption.
pub const DEFAULT_MAX_FRAME_LEN: usize = 1 << 30;

/// Default `max_frame_len` when accepting traffic from *untrusted*
/// clients (64 MiB): a service must not let one session's declared length
/// drive a giant allocation. See [`TransportConfig::for_server`].
pub const SERVER_MAX_FRAME_LEN: usize = 1 << 26;

/// Tunable limits: the receive watchdog every transport starts with, and
/// the socket transport's bootstrap and framing bounds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransportConfig {
    /// Receive watchdog: how long a `recv` waits for a matching message
    /// before concluding the peer is lost. Default 30 s.
    pub recv_timeout: Duration,
    /// How long bootstrap steps (rendezvous dial, mesh accept/dial,
    /// handshake frames) may take before the whole connection attempt is
    /// abandoned. Default 10 s.
    pub connect_timeout: Duration,
    /// Upper bound on a single data frame's declared payload length;
    /// larger declarations are treated as protocol corruption rather than
    /// honored with a giant allocation. Default 1 GiB.
    pub max_frame_len: usize,
}

impl Default for TransportConfig {
    fn default() -> Self {
        TransportConfig {
            recv_timeout: Duration::from_secs(30),
            connect_timeout: Duration::from_secs(10),
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
        }
    }
}

impl TransportConfig {
    /// Builder-style override of the receive watchdog.
    pub fn with_recv_timeout(mut self, recv_timeout: Duration) -> Self {
        self.recv_timeout = recv_timeout;
        self
    }

    /// Builder-style override of the bootstrap/connect deadline.
    pub fn with_connect_timeout(mut self, connect_timeout: Duration) -> Self {
        self.connect_timeout = connect_timeout;
        self
    }

    /// Builder-style override of the per-frame payload cap.
    pub fn with_max_frame_len(mut self, max_frame_len: usize) -> Self {
        self.max_frame_len = max_frame_len;
        self
    }

    /// Config for a daemon accepting sessions from untrusted clients.
    ///
    /// Identical to [`TransportConfig::default`] except `max_frame_len`
    /// drops from 1 GiB to [`SERVER_MAX_FRAME_LEN`] (64 MiB): a client
    /// declaring a larger frame gets a typed
    /// [`crate::CommError::FrameTooLarge`] rejection and its connection
    /// closed, instead of the server attempting the allocation. A
    /// deployment that really does ship bigger models raises the cap with
    /// [`TransportConfig::with_max_frame_len`].
    pub fn for_server() -> Self {
        TransportConfig::default().with_max_frame_len(SERVER_MAX_FRAME_LEN)
    }

    /// Default config with environment overrides applied — the knobs a
    /// manually launched multi-machine run can set next to the
    /// `SPARCML_RANK`/`SPARCML_WORLD`/`SPARCML_ROOT_ADDR` bootstrap:
    ///
    /// * `SPARCML_RECV_TIMEOUT_MS` — receive watchdog in milliseconds;
    /// * `SPARCML_CONNECT_TIMEOUT_MS` — bootstrap deadline in milliseconds;
    /// * `SPARCML_MAX_FRAME_LEN` — per-frame payload cap in bytes.
    ///
    /// Unset variables keep their defaults; a variable that is set but
    /// not a valid non-negative integer is a **loud** typed
    /// [`CommError::Protocol`] error — a typo'd override fails the launch
    /// instead of silently running with defaults.
    pub fn from_env() -> Result<Self, CommError> {
        let mut cfg = TransportConfig::default();
        if let Some(ms) = env_millis("SPARCML_RECV_TIMEOUT_MS")? {
            cfg.recv_timeout = ms;
        }
        if let Some(ms) = env_millis("SPARCML_CONNECT_TIMEOUT_MS")? {
            cfg.connect_timeout = ms;
        }
        if let Some(bytes) = env_u64("SPARCML_MAX_FRAME_LEN")? {
            cfg.max_frame_len = bytes as usize;
        }
        Ok(cfg)
    }
}

fn env_millis(var: &str) -> Result<Option<Duration>, CommError> {
    Ok(env_u64(var)?.map(Duration::from_millis))
}

fn env_u64(var: &str) -> Result<Option<u64>, CommError> {
    match std::env::var(var) {
        Err(_) => Ok(None),
        Ok(raw) => raw.trim().parse::<u64>().map(Some).map_err(|_| {
            CommError::Protocol(format!("{var}={raw:?} is not a non-negative integer"))
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let cfg = TransportConfig::default();
        assert_eq!(cfg.recv_timeout, Duration::from_secs(30));
        assert!(cfg.connect_timeout < cfg.recv_timeout);
        assert_eq!(cfg.max_frame_len, 1 << 30);
    }

    #[test]
    fn builders_override_fields() {
        let cfg = TransportConfig::default()
            .with_recv_timeout(Duration::from_millis(50))
            .with_connect_timeout(Duration::from_millis(75))
            .with_max_frame_len(4096);
        assert_eq!(cfg.recv_timeout, Duration::from_millis(50));
        assert_eq!(cfg.connect_timeout, Duration::from_millis(75));
        assert_eq!(cfg.max_frame_len, 4096);
    }

    #[test]
    fn server_config_shrinks_frame_cap() {
        let cfg = TransportConfig::for_server();
        assert_eq!(cfg.max_frame_len, SERVER_MAX_FRAME_LEN);
        assert!(cfg.max_frame_len < DEFAULT_MAX_FRAME_LEN);
        // Timeouts are unchanged: only the trust boundary moved.
        assert_eq!(cfg.recv_timeout, TransportConfig::default().recv_timeout);
    }

    #[test]
    fn malformed_env_override_is_loud() {
        // Env vars are process-global; pick one no other test sets and
        // restore it afterwards.
        let var = "SPARCML_MAX_FRAME_LEN";
        std::env::set_var(var, "a gigabyte");
        let err = TransportConfig::from_env().unwrap_err();
        std::env::remove_var(var);
        assert!(
            matches!(err, CommError::Protocol(ref d) if d.contains(var)),
            "got {err:?}"
        );
        assert!(TransportConfig::from_env().is_ok());
    }
}
