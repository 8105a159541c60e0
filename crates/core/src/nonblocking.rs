//! Non-blocking collective operations (§7, "Non-Blocking Operations").
//!
//! "We allow a thread to trigger a collective operation, such as
//! allreduce, in a nonblocking way. This enables the thread to proceed
//! with local computations while the operation is performed in the
//! background." Modelled here with a helper thread per request (the
//! progress-thread design of the cited MPI non-blocking collectives work):
//! the caller hands over its [`Transport`], keeps accounting local compute
//! against a fork-point clock, and when the request completes the clocks
//! merge as `max(communication, computation)` — ideal overlap.
//!
//! [`Request`] is the crate-private machinery behind the
//! [`crate::Communicator`] builders' `.nonblocking().launch()`; the
//! session's buffer pool rides to the helper thread with the transport
//! and comes back with it.

use std::thread::JoinHandle;

use sparcml_net::Transport;
use sparcml_obs as obs;

use crate::error::CollError;
use crate::op::BufferPool;

/// Handle to an in-flight non-blocking collective on transport `T`
/// resolving to a value of type `R`.
pub(crate) struct Request<T, R> {
    handle: JoinHandle<(
        T,
        BufferPool,
        Result<R, CollError>,
        obs::telemetry::LocalTelemetry,
    )>,
    /// Helper-thread name (`sparcml-nb-{rank}`), reported by
    /// [`CollError::WorkerPanicked`] if the thread dies.
    thread_name: String,
    fork_clock: f64,
    gamma: f64,
    overlapped_seconds: f64,
}

impl<T: Transport + Send + 'static, R: Send + 'static> Request<T, R> {
    /// Launches `op` on a named helper thread (`sparcml-nb-{rank}`)
    /// owning the session: the transport and its buffer pool.
    pub(crate) fn spawn<F>(mut transport: T, mut pool: BufferPool, op: F) -> Self
    where
        F: FnOnce(&mut T, &mut BufferPool) -> Result<R, CollError> + Send + 'static,
    {
        let thread_name = format!("sparcml-nb-{}", transport.rank());
        let fork_clock = transport.clock();
        let gamma = transport.cost().gamma;
        let handle = std::thread::Builder::new()
            .name(thread_name.clone())
            .spawn(move || {
                obs::register_thread();
                let out = op(&mut transport, &mut pool);
                // Telemetry collection is thread-local; hand this
                // thread's samples back so the caller can adopt them
                // into the launching rank's view.
                (transport, pool, out, obs::telemetry::snapshot_local())
            })
            .expect("spawn non-blocking collective helper thread");
        Request {
            handle,
            thread_name,
            fork_clock,
            gamma,
            overlapped_seconds: 0.0,
        }
    }

    /// Accounts local computation of `elements` element-ops performed
    /// *while the collective is in flight* (overlapped).
    pub(crate) fn compute(&mut self, elements: usize) {
        self.overlapped_seconds += self.gamma * elements as f64;
    }

    /// Accounts `seconds` of overlapped local wall work.
    pub(crate) fn charge_seconds(&mut self, seconds: f64) {
        self.overlapped_seconds += seconds;
    }

    /// Blocks until the collective finishes and returns the transport
    /// (with its clock advanced to `max(comm_done, fork +
    /// overlapped_compute)`) and the pool together with the collective's
    /// outcome — both survive even when the collective itself failed. A
    /// panicked helper thread surfaces as the typed
    /// [`CollError::WorkerPanicked`] (transport and pool are lost with
    /// it).
    pub(crate) fn finish(self) -> Result<(T, BufferPool, Result<R, CollError>), CollError> {
        let (mut transport, pool, result, telemetry) = self
            .handle
            .join()
            .map_err(|payload| CollError::worker_panicked(&self.thread_name, payload.as_ref()))?;
        obs::telemetry::adopt(&telemetry);
        transport.advance_clock_to(self.fork_clock + self.overlapped_seconds);
        Ok((transport, pool, result))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allreduce::Algorithm;
    use crate::communicator::{run_communicators, Communicator};
    use crate::reference::reference_sum;
    use sparcml_net::{CostModel, Endpoint};
    use sparcml_stream::{random_sparse, SparseStream};

    #[test]
    fn nonblocking_matches_blocking_result() {
        let p = 8;
        let ins: Vec<SparseStream<f32>> = (0..p)
            .map(|r| random_sparse(2048, 64, 500 + r as u64))
            .collect();
        let expect = reference_sum(&ins);
        let outs = run_communicators(p, CostModel::zero(), |comm| {
            comm.allreduce(&ins[comm.rank()])
                .algorithm(Algorithm::SsarRecDbl)
                .launch()
                .and_then(|h| h.wait())
                .unwrap()
        });
        for out in &outs {
            for (g, e) in out.to_dense_vec().iter().zip(expect.iter()) {
                assert!((g - e).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn overlap_merges_clocks_as_max() {
        // gamma = 1 s/element; communication is free. 100 elements of
        // overlapped compute must dominate the final clock.
        let cost = CostModel {
            alpha: 0.0,
            beta: 0.0,
            gamma: 1.0,
            isend_alpha_fraction: 0.0,
        };
        let clocks = run_communicators(2, cost, |comm| {
            let input = random_sparse::<f32>(256, 8, comm.rank() as u64);
            let mut handle = comm
                .allreduce(&input)
                .algorithm(Algorithm::SsarRecDbl)
                .nonblocking()
                .launch()
                .unwrap();
            handle.compute(100); // overlapped work
            let _result = handle.wait().unwrap();
            comm.clock()
        });
        for c in clocks {
            assert!((c - 100.0).abs() < 1.0, "clock {c}");
        }
    }

    #[test]
    fn nonblocking_result_agrees_with_reference() {
        let p = 4;
        let ins: Vec<SparseStream<f32>> = (0..p)
            .map(|r| random_sparse(1024, 32, 300 + r as u64))
            .collect();
        let expect = reference_sum(&ins);
        let outs = run_communicators(p, CostModel::zero(), |comm| {
            comm.allreduce(&ins[comm.rank()])
                .algorithm(Algorithm::SsarSplitAllgather)
                .nonblocking()
                .launch()
                .and_then(|h| h.wait())
                .unwrap()
        });
        for out in outs {
            for (g, e) in out.to_dense_vec().iter().zip(expect.iter()) {
                assert!((g - e).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn nonblocking_runs_on_thread_transport_too() {
        let outs = crate::communicator::run_thread_communicators(2, |comm| {
            let input = random_sparse::<f32>(512, 16, comm.rank() as u64);
            comm.allreduce(&input)
                .algorithm(Algorithm::SsarRecDbl)
                .nonblocking()
                .launch()
                .and_then(|h| h.wait())
                .unwrap()
                .nnz()
        });
        assert_eq!(outs[0], outs[1]);
    }

    #[test]
    fn helper_threads_are_named_and_panics_are_typed() {
        use sparcml_net::standalone_thread_transport;
        let tp = standalone_thread_transport();
        let req = Request::spawn(
            tp,
            BufferPool::new(),
            |t: &mut sparcml_net::ThreadTransport, _pool: &mut BufferPool| -> Result<(), _> {
                // Both checks fold into the panic payload: a wrong thread name
                // changes the message and fails the equality below.
                assert_eq!(
                    std::thread::current().name(),
                    Some(format!("sparcml-nb-{}", t.rank()).as_str()),
                    "helper thread must be named after its rank"
                );
                panic!("worker dies on purpose");
            },
        );
        let err = req.finish().unwrap_err();
        assert_eq!(
            err,
            CollError::WorkerPanicked {
                thread: "sparcml-nb-0".into(),
                message: "worker dies on purpose".into(),
            }
        );
    }

    #[test]
    fn handle_compute_charges_serial_time_when_blocking() {
        let cost = CostModel {
            alpha: 0.0,
            beta: 0.0,
            gamma: 1.0,
            isend_alpha_fraction: 0.0,
        };
        let clocks = run_communicators(1, cost, |comm: &mut Communicator<Endpoint>| {
            let input = SparseStream::<f32>::zeros(16);
            let mut handle = comm.allreduce(&input).launch().unwrap();
            handle.compute(7); // blocking handle: serial work
            handle.wait().unwrap();
            comm.clock()
        });
        assert!((clocks[0] - 7.0).abs() < 1e-9, "clock {}", clocks[0]);
    }
}
