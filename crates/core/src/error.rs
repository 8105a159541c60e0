//! Error type unifying transport and data-representation failures.

use std::fmt;

use sparcml_net::CommError;
use sparcml_stream::StreamError;

/// Errors surfaced by collective operations.
#[derive(Debug, Clone, PartialEq)]
pub enum CollError {
    /// Transport-level failure.
    Comm(CommError),
    /// Stream validation / decoding failure.
    Stream(StreamError),
    /// A progress-engine thread panicked and took its transport with it.
    WorkerPanicked {
        /// Name of the dead thread (e.g. `sparcml-engine-3`).
        thread: String,
        /// The panic payload, when it was a string.
        message: String,
    },
    /// The operation was invoked with inconsistent arguments.
    Invalid(String),
}

impl CollError {
    /// Builds a [`CollError::WorkerPanicked`] from a thread name and the
    /// payload a panicking thread left behind (`std::thread::JoinHandle`'s
    /// `Err` value), extracting the message when it is a string.
    pub fn worker_panicked(thread: &str, payload: &(dyn std::any::Any + Send)) -> CollError {
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".into());
        CollError::WorkerPanicked {
            thread: thread.to_string(),
            message,
        }
    }
}

impl fmt::Display for CollError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CollError::Comm(e) => write!(f, "communication error: {e}"),
            CollError::Stream(e) => write!(f, "stream error: {e}"),
            CollError::WorkerPanicked { thread, message } => {
                write!(f, "worker thread '{thread}' panicked: {message}")
            }
            CollError::Invalid(msg) => write!(f, "invalid collective call: {msg}"),
        }
    }
}

impl std::error::Error for CollError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CollError::Comm(e) => Some(e),
            CollError::Stream(e) => Some(e),
            CollError::WorkerPanicked { .. } => None,
            CollError::Invalid(_) => None,
        }
    }
}

impl From<CommError> for CollError {
    fn from(e: CommError) -> Self {
        CollError::Comm(e)
    }
}

impl From<StreamError> for CollError {
    fn from(e: StreamError) -> Self {
        CollError::Stream(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: CollError = CommError::PeerDisconnected { peer: 2 }.into();
        assert!(e.to_string().contains("communication"));
        let e: CollError = StreamError::Corrupt("x").into();
        assert!(e.to_string().contains("stream"));
        let e = CollError::Invalid("bad".into());
        assert!(e.to_string().contains("bad"));
    }

    #[test]
    fn worker_panicked_extracts_string_payloads() {
        let e = CollError::worker_panicked("sparcml-engine-2", &"boom");
        assert_eq!(
            e,
            CollError::WorkerPanicked {
                thread: "sparcml-engine-2".into(),
                message: "boom".into(),
            }
        );
        assert!(e.to_string().contains("panicked"));
        assert!(e.to_string().contains("sparcml-engine-2"));
        let e = CollError::worker_panicked("t", &String::from("owned"));
        assert!(e.to_string().contains("owned"));
        let e = CollError::worker_panicked("t", &42usize);
        assert!(e.to_string().contains("non-string"));
    }
}
