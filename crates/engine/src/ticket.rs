//! In-flight collective handles resolved by the progress engine.

use std::sync::mpsc::Receiver;

use sparcml_core::CollError;

/// Handle to one submitted collective job, resolving to `R` once the
/// engine executes its bucket.
///
/// Any number of tickets can be outstanding at once; waiting order is
/// unconstrained (the engine delivers each result through its own
/// channel). If the engine thread dies before the job completes,
/// [`Ticket::wait`] surfaces [`CollError::WorkerPanicked`].
#[must_use = "a ticket must be waited on (its result is delivered nowhere else)"]
pub struct Ticket<R> {
    pub(crate) idx: u64,
    pub(crate) thread_name: String,
    pub(crate) state: TicketState<R>,
}

impl<R> std::fmt::Debug for Ticket<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket")
            .field("idx", &self.idx)
            .field("engine", &self.thread_name)
            .field("resolved", &matches!(self.state, TicketState::Done(_)))
            .finish()
    }
}

pub(crate) enum TicketState<R> {
    /// Waiting on the engine.
    Pending(Receiver<Result<R, CollError>>),
    /// Resolved locally (polled early, or the submission itself failed).
    Done(Result<R, CollError>),
}

impl<R> Ticket<R> {
    pub(crate) fn failed(idx: u64, thread_name: String, err: CollError) -> Ticket<R> {
        Ticket {
            idx,
            thread_name,
            state: TicketState::Done(Err(err)),
        }
    }

    fn dead_engine_error(&self) -> CollError {
        CollError::WorkerPanicked {
            thread: self.thread_name.clone(),
            message: "engine thread died before completing the job".into(),
        }
    }

    /// Submission index of this job (program order; also its priority
    /// key).
    pub fn index(&self) -> u64 {
        self.idx
    }

    /// Non-blocking completion check; `true` once the result is in and
    /// [`Ticket::wait`] will return without blocking.
    pub fn poll(&mut self) -> bool {
        if let TicketState::Pending(rx) = &self.state {
            if let Ok(result) = rx.try_recv() {
                self.state = TicketState::Done(result);
            }
        }
        matches!(self.state, TicketState::Done(_))
    }

    /// Blocks until the engine resolves the job and returns its result.
    pub fn wait(self) -> Result<R, CollError> {
        let dead = self.dead_engine_error();
        match self.state {
            TicketState::Done(result) => result,
            TicketState::Pending(rx) => match rx.recv() {
                Ok(result) => result,
                Err(_) => Err(dead),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;

    #[test]
    fn failed_tickets_resolve_immediately() {
        let t: Ticket<u32> =
            Ticket::failed(3, "sparcml-engine-0".into(), CollError::Invalid("x".into()));
        assert_eq!(t.index(), 3);
        assert!(matches!(t.wait(), Err(CollError::Invalid(_))));
    }

    #[test]
    fn poll_then_wait_round_trips() {
        let (tx, rx) = channel::<Result<u32, CollError>>();
        let mut t = Ticket {
            idx: 0,
            thread_name: "t".into(),
            state: TicketState::Pending(rx),
        };
        assert!(!t.poll());
        tx.send(Ok(9)).unwrap();
        assert!(t.poll());
        assert_eq!(t.wait().unwrap(), 9);
    }

    #[test]
    fn dropped_engine_surfaces_as_worker_panicked() {
        let (tx, rx) = channel::<Result<u32, CollError>>();
        let t = Ticket {
            idx: 0,
            thread_name: "sparcml-engine-1".into(),
            state: TicketState::Pending(rx),
        };
        drop(tx);
        assert!(matches!(
            t.wait(),
            Err(CollError::WorkerPanicked { thread, .. }) if thread == "sparcml-engine-1"
        ));
    }
}
