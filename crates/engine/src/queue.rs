//! A bounded multi-producer submission queue with typed backpressure.
//!
//! The in-process [`crate::Engine`] uses an unbounded channel because its
//! producers are the rank's own training loop — trusted code that paces
//! itself. A *service* accepting jobs from many independent clients needs
//! the opposite: admission is bounded, a full queue is a first-class
//! [`QueueFull`] answer the producer can relay (SparCML-serve turns it
//! into a `ServerBusy` wire frame), and the consumer drains jobs in
//! batches so one lock round-trip applies many contributions.
//!
//! Built on `Mutex` + `Condvar` only: `std::sync::mpsc`'s bounded
//! channel can refuse a job, but it cannot report the queue's depth with
//! the refusal or hand the consumer a batch under one lock.

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Typed rejection returned by [`SubmissionQueue::try_push`] when the
/// queue is at capacity. Carries the gauge pair a producer needs to
/// report backpressure upstream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueFull {
    /// Jobs queued at the moment of rejection (== `capacity`).
    pub queued: usize,
    /// The queue's fixed capacity.
    pub capacity: usize,
}

impl fmt::Display for QueueFull {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "submission queue full: {} of {} slots occupied",
            self.queued, self.capacity
        )
    }
}

impl std::error::Error for QueueFull {}

struct Inner<T> {
    jobs: VecDeque<T>,
    closed: bool,
}

/// A bounded MPSC job queue: cloneable producers call
/// [`SubmissionQueue::try_push`] (never blocks; full → [`QueueFull`]),
/// one consumer calls [`SubmissionQueue::wait_batch`] to drain up to a
/// batch of jobs per wakeup.
pub struct SubmissionQueue<T> {
    inner: Arc<(Mutex<Inner<T>>, Condvar)>,
    capacity: usize,
}

impl<T> Clone for SubmissionQueue<T> {
    fn clone(&self) -> Self {
        SubmissionQueue {
            inner: self.inner.clone(),
            capacity: self.capacity,
        }
    }
}

impl<T> SubmissionQueue<T> {
    /// Creates a queue holding at most `capacity` jobs (minimum 1).
    pub fn bounded(capacity: usize) -> Self {
        SubmissionQueue {
            inner: Arc::new((
                Mutex::new(Inner {
                    jobs: VecDeque::new(),
                    closed: false,
                }),
                Condvar::new(),
            )),
            capacity: capacity.max(1),
        }
    }

    /// The fixed capacity this queue admits.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Jobs currently queued.
    pub fn len(&self) -> usize {
        self.inner.0.lock().expect("queue lock").jobs.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enqueues a job without blocking. A full (or closed) queue rejects
    /// with [`QueueFull`] — the producer's signal to push backpressure to
    /// whoever is generating the work.
    pub fn try_push(&self, job: T) -> Result<(), QueueFull> {
        let (lock, cvar) = &*self.inner;
        let mut inner = lock.lock().expect("queue lock");
        if inner.closed || inner.jobs.len() >= self.capacity {
            return Err(QueueFull {
                queued: inner.jobs.len(),
                capacity: self.capacity,
            });
        }
        inner.jobs.push_back(job);
        drop(inner);
        cvar.notify_one();
        Ok(())
    }

    /// Blocks until at least one job is available (or `timeout` passes, or
    /// the queue closes empty), then drains up to `max_jobs` in FIFO
    /// order. Returns an empty vec on timeout or close — the consumer's
    /// cue to run periodic upkeep or shut down (check
    /// [`SubmissionQueue::is_closed`] to tell the two apart).
    pub fn wait_batch(&self, max_jobs: usize, timeout: Duration) -> Vec<T> {
        let deadline = Instant::now() + timeout;
        let (lock, cvar) = &*self.inner;
        let mut inner = lock.lock().expect("queue lock");
        while inner.jobs.is_empty() && !inner.closed {
            let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                return Vec::new();
            };
            let (guard, wait) = cvar
                .wait_timeout(inner, left)
                .expect("queue lock poisoned while waiting");
            inner = guard;
            if wait.timed_out() && inner.jobs.is_empty() {
                return Vec::new();
            }
        }
        let take = inner.jobs.len().min(max_jobs.max(1));
        inner.jobs.drain(..take).collect()
    }

    /// Closes the queue: producers get [`QueueFull`] from now on and a
    /// blocked consumer wakes immediately. Already-queued jobs stay
    /// drainable via [`SubmissionQueue::wait_batch`].
    pub fn close(&self) {
        let (lock, cvar) = &*self.inner;
        lock.lock().expect("queue lock").closed = true;
        cvar.notify_all();
    }

    /// Whether [`SubmissionQueue::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.inner.0.lock().expect("queue lock").closed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_then_batch_drains_fifo() {
        let q = SubmissionQueue::bounded(8);
        for i in 0..5 {
            q.try_push(i).unwrap();
        }
        let batch = q.wait_batch(3, Duration::from_millis(10));
        assert_eq!(batch, vec![0, 1, 2]);
        let batch = q.wait_batch(10, Duration::from_millis(10));
        assert_eq!(batch, vec![3, 4]);
        assert!(q.is_empty());
    }

    #[test]
    fn full_queue_rejects_with_gauges() {
        let q = SubmissionQueue::bounded(2);
        q.try_push(0).unwrap();
        q.try_push(1).unwrap();
        let err = q.try_push(2).unwrap_err();
        assert_eq!(
            err,
            QueueFull {
                queued: 2,
                capacity: 2
            }
        );
        assert!(err.to_string().contains("full"));
        // Draining frees slots again.
        assert_eq!(q.wait_batch(1, Duration::from_millis(10)), vec![0]);
        q.try_push(2).unwrap();
    }

    #[test]
    fn wait_batch_times_out_empty() {
        let q: SubmissionQueue<u8> = SubmissionQueue::bounded(4);
        let start = Instant::now();
        assert!(q.wait_batch(4, Duration::from_millis(30)).is_empty());
        assert!(start.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn producer_wakes_blocked_consumer() {
        let q = SubmissionQueue::bounded(4);
        let producer = {
            let q = q.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                q.try_push(42u32).unwrap();
            })
        };
        let batch = q.wait_batch(4, Duration::from_secs(5));
        assert_eq!(batch, vec![42]);
        producer.join().unwrap();
    }

    #[test]
    fn close_rejects_producers_but_drains_backlog() {
        let q = SubmissionQueue::bounded(4);
        q.try_push(7).unwrap();
        q.close();
        assert!(q.is_closed());
        assert!(q.try_push(8).is_err());
        assert_eq!(q.wait_batch(4, Duration::from_millis(10)), vec![7]);
        // Closed and empty: wait returns immediately instead of blocking.
        let start = Instant::now();
        assert!(q.wait_batch(4, Duration::from_secs(5)).is_empty());
        assert!(start.elapsed() < Duration::from_secs(1));
    }
}
