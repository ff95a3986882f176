//! The bounded admission queue between connection handlers and the
//! micro-batcher: reject-on-full (load shedding) on the producer side,
//! batch-draining without waiting on the consumer side.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Why a submission was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The admission queue is at capacity. The request was *not* enqueued;
    /// the caller should tell its client to back off (the wire layer
    /// answers `Busy`). Shedding at the door keeps queueing delay bounded
    /// at roughly `capacity / drain-rate` instead of growing without limit.
    Overloaded,
    /// The queue has been closed for shutdown; no new work is admitted
    /// (work already queued is still drained).
    ShutDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Overloaded => write!(f, "admission queue full (overloaded)"),
            SubmitError::ShutDown => write!(f, "serving pipeline is shut down"),
        }
    }
}

impl std::error::Error for SubmitError {}

#[derive(Debug)]
struct QueueInner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A fixed-capacity MPSC queue: any thread may [`BoundedQueue::push`]
/// (failing fast when full), one consumer drains via
/// [`BoundedQueue::pop_batch`].
#[derive(Debug)]
pub struct BoundedQueue<T> {
    capacity: usize,
    inner: Mutex<QueueInner<T>>,
    /// Signalled on push and on close.
    not_empty: Condvar,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue admitting at most `capacity` pending items (clamped
    /// to at least 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            capacity,
            inner: Mutex::new(QueueInner {
                items: VecDeque::with_capacity(capacity.min(4096)),
                closed: false,
            }),
            not_empty: Condvar::new(),
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current queue depth (pending, not yet popped).
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// `true` when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` once [`BoundedQueue::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.lock().closed
    }

    /// Enqueues `item`, or refuses it when the queue is full or closed.
    /// Never blocks.
    ///
    /// # Errors
    /// [`SubmitError::Overloaded`] at capacity, [`SubmitError::ShutDown`]
    /// after close. The item is dropped in both cases.
    pub fn push(&self, item: T) -> Result<(), SubmitError> {
        let mut inner = self.lock();
        if inner.closed {
            return Err(SubmitError::ShutDown);
        }
        if inner.items.len() >= self.capacity {
            return Err(SubmitError::Overloaded);
        }
        inner.items.push_back(item);
        drop(inner);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Blocks until at least one item is available (or the queue is closed),
    /// then drains up to `max` items into `out` and returns at once. It
    /// never waits for more items: a batch is whatever queued up while the
    /// consumer was busy, so batches grow with load and a lone request on
    /// an idle queue goes straight through.
    ///
    /// Returns `false` only when the queue is closed *and* fully drained
    /// (`out` is left empty in that case); a close with items still queued
    /// keeps returning batches until empty, which is what makes shutdown
    /// drain in-flight work.
    pub fn pop_batch(&self, max: usize, out: &mut Vec<T>) -> bool {
        let mut inner = self.lock();
        while inner.items.is_empty() {
            if inner.closed {
                return false;
            }
            inner = self
                .not_empty
                .wait(inner)
                .expect("admission queue lock poisoned");
        }
        let take = max.max(1).min(inner.items.len());
        out.extend(inner.items.drain(..take));
        true
    }

    /// Closes the queue: subsequent pushes fail with
    /// [`SubmitError::ShutDown`], and the consumer keeps draining what is
    /// already queued before [`BoundedQueue::pop_batch`] reports exhaustion.
    pub fn close(&self) {
        self.lock().closed = true;
        self.not_empty.notify_all();
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, QueueInner<T>> {
        self.inner.lock().expect("admission queue lock poisoned")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    #[test]
    fn push_fills_to_capacity_then_sheds() {
        let queue = BoundedQueue::new(3);
        assert_eq!(queue.capacity(), 3);
        for i in 0..3 {
            queue.push(i).unwrap();
        }
        assert_eq!(queue.push(99), Err(SubmitError::Overloaded));
        assert_eq!(queue.len(), 3);
        // Draining makes room again.
        let mut out = Vec::new();
        assert!(queue.pop_batch(2, &mut out));
        assert_eq!(out, vec![0, 1]);
        queue.push(3).unwrap();
        assert_eq!(queue.len(), 2);
    }

    #[test]
    fn pop_batch_preserves_fifo_order() {
        let queue = BoundedQueue::new(16);
        for i in 0..10 {
            queue.push(i).unwrap();
        }
        let mut out = Vec::new();
        assert!(queue.pop_batch(4, &mut out));
        assert_eq!(out, vec![0, 1, 2, 3]);
        out.clear();
        assert!(queue.pop_batch(100, &mut out));
        assert_eq!(out, (4..10).collect::<Vec<_>>());
    }

    #[test]
    fn items_pushed_while_the_consumer_is_busy_come_out_as_one_batch() {
        let queue = Arc::new(BoundedQueue::new(16));
        let (busy_tx, busy_rx) = std::sync::mpsc::channel();
        let (pushed_tx, pushed_rx) = std::sync::mpsc::channel();
        let producer = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || {
                queue.push(0).unwrap();
                // The consumer is now busy with item 0; everything pushed
                // until it returns must wait for the next batch.
                busy_rx.recv().unwrap();
                for i in 1..4 {
                    queue.push(i).unwrap();
                }
                pushed_tx.send(()).unwrap();
            })
        };
        let mut out = Vec::new();
        assert!(queue.pop_batch(8, &mut out));
        assert_eq!(out, vec![0]);
        busy_tx.send(()).unwrap();
        pushed_rx.recv().unwrap();
        out.clear();
        assert!(queue.pop_batch(8, &mut out));
        assert_eq!(out, vec![1, 2, 3]);
        producer.join().unwrap();
    }

    #[test]
    fn lone_item_on_an_idle_queue_returns_without_waiting() {
        let queue = BoundedQueue::new(16);
        queue.push(7).unwrap();
        let mut out = Vec::new();
        let started = Instant::now();
        assert!(queue.pop_batch(64, &mut out));
        assert_eq!(out, vec![7]);
        assert!(queue.is_empty());
        // No producer exists and the batch is far from full, so a linger
        // would wait out its whole length here.
        assert!(
            started.elapsed() < Duration::from_millis(50),
            "pop_batch waited {:?} on an idle queue",
            started.elapsed()
        );
    }

    #[test]
    fn close_drains_then_reports_exhaustion() {
        let queue = BoundedQueue::new(8);
        queue.push('a').unwrap();
        queue.push('b').unwrap();
        queue.close();
        assert_eq!(queue.push('c'), Err(SubmitError::ShutDown));
        let mut out = Vec::new();
        assert!(queue.pop_batch(1, &mut out));
        assert_eq!(out, vec!['a']);
        out.clear();
        assert!(queue.pop_batch(1, &mut out));
        assert_eq!(out, vec!['b']);
        out.clear();
        assert!(!queue.pop_batch(1, &mut out));
        assert!(out.is_empty());
        assert!(queue.is_closed());
    }

    #[test]
    fn pop_batch_wakes_on_close_while_waiting() {
        let queue = Arc::new(BoundedQueue::<u8>::new(4));
        let closer = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(5));
                queue.close();
            })
        };
        let mut out = Vec::new();
        // Blocks empty, then the close wakes it with `false`.
        assert!(!queue.pop_batch(4, &mut out));
        closer.join().unwrap();
    }
}
