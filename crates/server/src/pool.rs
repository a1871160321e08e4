//! A bounded MPMC job queue between the event loop and the worker pool.
//!
//! This is the server's **only** buffer between parse and service, and it
//! is capped: when `capacity` jobs are already waiting, `try_push` hands
//! the job back so the event loop can shed the request with
//! `503 Retry-After` instead of buffering without bound. Backpressure is
//! therefore visible to clients immediately, and memory use is bounded by
//! `workers + capacity` in-flight requests no matter the offered load.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Bounded FIFO handoff between the accept loop and the worker pool.
#[derive(Debug)]
pub struct BoundedQueue<T> {
    items: Mutex<VecDeque<T>>,
    available: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// A queue admitting at most `capacity` waiting items (0 = every push
    /// fails, i.e. shed everything — a deliberate test/benchmark mode).
    pub fn new(capacity: usize) -> BoundedQueue<T> {
        BoundedQueue {
            items: Mutex::new(VecDeque::with_capacity(capacity.min(1024))),
            available: Condvar::new(),
            capacity,
        }
    }

    /// The waiting items. A poisoned lock is taken over: the queue is valid
    /// after every push and pop, and a panicking worker must not stop the
    /// others from being fed.
    fn items(&self) -> MutexGuard<'_, VecDeque<T>> {
        self.items.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Enqueues unless full; a full queue returns the item to the caller
    /// (to be shed), never blocks, never buffers past `capacity`.
    pub fn try_push(&self, item: T) -> Result<(), T> {
        let mut items = self.items();
        if items.len() >= self.capacity {
            return Err(item);
        }
        items.push_back(item);
        drop(items);
        self.available.notify_one();
        Ok(())
    }

    /// Dequeues, waiting up to `timeout` for an item.
    pub fn pop(&self, timeout: Duration) -> Option<T> {
        let mut items = self.items();
        if let Some(item) = items.pop_front() {
            return Some(item);
        }
        let (mut items, _) =
            self.available.wait_timeout(items, timeout).unwrap_or_else(PoisonError::into_inner);
        items.pop_front()
    }

    /// Items currently waiting.
    pub fn len(&self) -> usize {
        self.items().len()
    }

    /// Whether nothing is waiting.
    pub fn is_empty(&self) -> bool {
        self.items().is_empty()
    }

    /// Removes and returns everything still queued (shutdown accounting).
    pub fn drain(&self) -> Vec<T> {
        self.items().drain(..).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pop_fifo() {
        let q = BoundedQueue::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.try_push(3), Err(3), "third item is shed");
        assert_eq!(q.pop(Duration::from_millis(1)), Some(1));
        assert_eq!(q.pop(Duration::from_millis(1)), Some(2));
        assert_eq!(q.pop(Duration::from_millis(1)), None);
    }

    #[test]
    fn zero_capacity_sheds_everything() {
        let q = BoundedQueue::new(0);
        assert_eq!(q.try_push(7), Err(7));
        assert!(q.is_empty());
    }

    #[test]
    fn pop_wakes_on_push() {
        use std::sync::Arc;
        let q = Arc::new(BoundedQueue::new(4));
        let q2 = q.clone();
        let t = std::thread::spawn(move || q2.pop(Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(20));
        q.try_push(42usize).unwrap();
        assert_eq!(t.join().unwrap(), Some(42));
    }

    #[test]
    fn drain_empties() {
        let q = BoundedQueue::new(8);
        q.try_push("a").unwrap();
        q.try_push("b").unwrap();
        assert_eq!(q.drain(), vec!["a", "b"]);
        assert!(q.is_empty());
    }
}
