//! Reference model of the event queue — the implementation the indexed
//! queue replaced, preserved verbatim as the differential-test oracle.
//!
//! [`ReferenceQueue`] is the `BinaryHeap` + tombstone-set queue the
//! simulator shipped with before the indexed rewrite: cancellation is
//! *lazy* (the entry stays in the heap, a `cancelled` set is consulted
//! when it surfaces), so every `pop` and `peek_time` pays a hash probe
//! and a cancelled key that already fired silently corrupts the `len`
//! accounting. The indexed [`EventQueue`](crate::EventQueue) fixes both;
//! this model pins the semantics it must preserve.
//!
//! **Do not optimize this code.** Its value is that it is small, obviously
//! correct for valid inputs, and byte-for-byte the behaviour the golden
//! metrics were recorded against. The differential suite in
//! `tests/queue_differential.rs` replays random schedule / pop / cancel
//! interleavings through both implementations and asserts identical
//! observables after every operation.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};

use crate::time::SimTime;

/// Handle to a pending event in a [`ReferenceQueue`].
///
/// Keys are intentionally not `Copy`: a key must be cancelled at most
/// once, and only while its event is still pending (cancelling a key
/// whose event has already fired is a logic error this queue cannot
/// detect — the indexed queue can, and panics in debug builds).
#[derive(Debug, PartialEq, Eq)]
pub struct ReferenceEventKey(u64);

/// The scan-era event queue: `BinaryHeap` ordered by `(time, seq)` with
/// lazy tombstone cancellation. See the module docs.
#[derive(Debug, Clone)]
pub struct ReferenceQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
    now: SimTime,
    cancelled: HashSet<u64>,
}

#[derive(Debug, Clone)]
struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse so the earliest event is popped
        // first, with the sequence number as a FIFO tie-breaker.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<E> ReferenceQueue<E> {
    /// Creates an empty queue with the clock at the simulation epoch.
    #[must_use]
    pub fn new() -> Self {
        ReferenceQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
            cancelled: HashSet::new(),
        }
    }

    /// Current simulated time: the firing time of the most recently popped
    /// event (or the epoch before any event has fired).
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` to fire at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current simulated time, which would
    /// violate causality.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let _ = self.schedule_keyed(at, event);
    }

    /// Schedules `event` at `at` and returns a [`ReferenceEventKey`] that
    /// can later be passed to [`ReferenceQueue::cancel`].
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current simulated time.
    pub fn schedule_keyed(&mut self, at: SimTime, event: E) -> ReferenceEventKey {
        assert!(
            at >= self.now,
            "cannot schedule event in the past: at={at} now={now}",
            now = self.now
        );
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry { at, seq, event });
        ReferenceEventKey(seq)
    }

    /// Cancels a pending event lazily; it will never be returned by
    /// [`ReferenceQueue::pop`]. The key must belong to an event that has
    /// not fired yet (unverifiable here — the documented cancellation
    /// hole the indexed queue closes).
    pub fn cancel(&mut self, key: ReferenceEventKey) {
        let inserted = self.cancelled.insert(key.0);
        debug_assert!(inserted, "event {key:?} cancelled twice");
    }

    /// Drops cancelled entries sitting at the head of the heap so `peek`
    /// and `pop` only ever see live events.
    fn purge_cancelled_head(&mut self) {
        while let Some(head) = self.heap.peek() {
            if self.cancelled.remove(&head.seq) {
                self.heap.pop();
            } else {
                break;
            }
        }
    }

    /// Removes and returns the next event, advancing the clock to its firing
    /// time. Returns `None` when the queue is empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.purge_cancelled_head();
        let entry = self.heap.pop()?;
        self.now = entry.at;
        Some((entry.at, entry.event))
    }

    /// Returns the firing time of the next event without removing it.
    #[must_use]
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.purge_cancelled_head();
        self.heap.peek().map(|e| e.at)
    }

    /// Number of pending (non-cancelled) events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len() - self.cancelled.len()
    }

    /// Returns `true` if no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<E> Default for ReferenceQueue<E> {
    fn default() -> Self {
        ReferenceQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order_with_fifo_ties() {
        let mut q = ReferenceQueue::new();
        q.schedule(SimTime::from_secs(2.0), "b1");
        q.schedule(SimTime::from_secs(1.0), "a");
        q.schedule(SimTime::from_secs(2.0), "b2");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "b1", "b2"]);
    }

    #[test]
    fn lazy_cancellation_skips_entries() {
        let mut q = ReferenceQueue::new();
        let key = q.schedule_keyed(SimTime::from_secs(1.0), "dropped");
        q.schedule(SimTime::from_secs(2.0), "kept");
        q.cancel(key);
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(2.0)));
        assert_eq!(q.pop(), Some((SimTime::from_secs(2.0), "kept")));
        assert!(q.is_empty());
    }
}
