//! Deterministic event queue for discrete-event simulation.
//!
//! This is the indexed implementation: a hand-rolled four-ary
//! min-heap over a slab of event nodes, replacing the original
//! `BinaryHeap` + tombstone-set queue (preserved as
//! [`ReferenceQueue`](crate::model::ReferenceQueue), the oracle for the
//! differential suite in `tests/queue_differential.rs`).
//!
//! Three properties drive the design:
//!
//! 1. **True cancellation.** Every pending event's node records its heap
//!    position, so [`EventQueue::cancel`] removes the entry in O(log n)
//!    instead of tombstoning it — `pop` and `peek_time` never consult a
//!    hash set, and a cancelled key whose event already fired is
//!    *detected* (panic in debug builds) rather than silently corrupting
//!    the queue's accounting.
//! 2. **Small heap elements.** The heap orders 24-byte `(time, seq,
//!    node)` triples; the event payloads — which for the simulator are
//!    large enum values — sit still in the slab while sifting moves only
//!    the triples.
//! 3. **Four-ary layout.** Halving the tree depth trades cheap in-cache
//!    child comparisons for expensive cross-level moves, the right trade
//!    for pop-heavy workloads.
//!
//! FIFO tie-breaking is exact: events are ordered by `(time, seq)` with
//! `seq` a monotone schedule counter, a total order, so the pop sequence
//! is bit-identical to the reference queue's.

use crate::time::SimTime;

/// Handle to a pending event, returned by [`EventQueue::schedule_keyed`]
/// and consumed by [`EventQueue::cancel`].
///
/// Keys are intentionally neither `Copy` nor `Clone`: a key must be
/// cancelled at most once, and only while its event is still pending.
/// Cancelling a key whose event has already fired panics in debug builds
/// (the queue tracks occupancy, so stale keys are detected exactly) and
/// is a documented no-op in release builds. Use
/// [`EventQueue::try_cancel`] for the checked error path.
#[derive(Debug, PartialEq, Eq)]
pub struct EventKey {
    /// Slab index of the event's node.
    node: u32,
    /// Schedule sequence number; doubles as the node's generation, since
    /// a reused node always carries a fresh (strictly larger) `seq`.
    seq: u64,
}

/// Error returned by [`EventQueue::try_cancel`] for a key whose event
/// already fired or was already cancelled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StaleKeyError {
    /// Slab index the stale key pointed at.
    pub node: u32,
    /// Schedule sequence number of the stale key.
    pub seq: u64,
}

impl std::fmt::Display for StaleKeyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cancelled key (node {}, seq {}) whose event already fired: keys are only \
             valid while their event is pending",
            self.node, self.seq
        )
    }
}

impl std::error::Error for StaleKeyError {}

/// A heap element: the ordering key plus the slab index of its payload.
#[derive(Debug, Clone, Copy)]
struct HeapEntry {
    at: SimTime,
    seq: u64,
    node: u32,
}

impl HeapEntry {
    /// Strict `(time, seq)` lexicographic order; `seq` is unique, so this
    /// is total and exactly reproduces FIFO tie-breaking.
    #[inline]
    fn precedes(&self, other: &HeapEntry) -> bool {
        (self.at, self.seq) < (other.at, other.seq)
    }
}

/// A slab node: the pending event and its current heap position.
#[derive(Debug, Clone)]
struct Node<E> {
    /// Sequence number of the occupying event (stale-key detection).
    seq: u64,
    /// Index of this node's entry in `heap` (valid while occupied).
    pos: u32,
    /// The payload; `None` once fired, cancelled, or on the free list.
    event: Option<E>,
}

/// A pending event queue ordered by firing time.
///
/// Events scheduled for the same instant fire in the order they were
/// scheduled (FIFO), which keeps simulations deterministic regardless of
/// the underlying heap's tie-breaking.
///
/// Events scheduled with [`EventQueue::schedule_keyed`] can be revoked
/// with [`EventQueue::cancel`] — used by the fault-injection layer to
/// discard work (CPU completions, pending I/O) lost to a crash.
/// Cancellation is *eager*: the entry is removed from the heap in
/// O(log n), and the sequence numbering — hence the FIFO order of all
/// other events — is exactly as if the cancelled event had never been
/// scheduled to begin with (it consumed its `seq` at schedule time).
///
/// # Examples
///
/// ```
/// use hls_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_secs(2.0), "b");
/// q.schedule(SimTime::from_secs(1.0), "a");
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1.0), "a")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(2.0), "b")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    /// Four-ary min-heap of `(time, seq, node)` triples.
    heap: Vec<HeapEntry>,
    /// Event payload slab, indexed by `HeapEntry::node`.
    nodes: Vec<Node<E>>,
    /// Free slab slots awaiting reuse.
    free: Vec<u32>,
    seq: u64,
    now: SimTime,
}

/// Children of heap position `i` start at `4 * i + 1`.
const ARITY: usize = 4;

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at the simulation epoch.
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            heap: Vec::new(),
            nodes: Vec::new(),
            free: Vec::new(),
            seq: 0,
            now: SimTime::ZERO,
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

    /// Schedules `event` at `at` and returns an [`EventKey`] that can later
    /// be passed to [`EventQueue::cancel`]. Behaves exactly like
    /// [`EventQueue::schedule`] otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current simulated time.
    pub fn schedule_keyed(&mut self, at: SimTime, event: E) -> EventKey {
        assert!(
            at >= self.now,
            "cannot schedule event in the past: at={at} now={now}",
            now = self.now
        );
        let seq = self.seq;
        self.seq += 1;
        let pos = self.heap.len() as u32;
        let node = match self.free.pop() {
            Some(slot) => {
                let n = &mut self.nodes[slot as usize];
                debug_assert!(n.event.is_none(), "free-list node still occupied");
                n.seq = seq;
                n.pos = pos;
                n.event = Some(event);
                slot
            }
            None => {
                let slot = self.nodes.len() as u32;
                self.nodes.push(Node {
                    seq,
                    pos,
                    event: Some(event),
                });
                slot
            }
        };
        self.heap.push(HeapEntry { at, seq, node });
        self.sift_up(pos as usize);
        EventKey { node, seq }
    }

    /// Cancels a pending event in O(log n); it will never be returned by
    /// [`EventQueue::pop`]. The key must belong to an event that has not
    /// fired yet (keys are consumed, so double-cancel is impossible).
    ///
    /// # Panics
    ///
    /// In debug builds, panics if the key's event has already fired —
    /// the queue knows node occupancy, so the stale key is detected
    /// instead of silently corrupting the pending-event accounting (the
    /// documented hole in the pre-rewrite queue). Release builds treat a
    /// stale key as a no-op; use [`EventQueue::try_cancel`] when the
    /// caller wants the checked error path regardless of build flavour.
    pub fn cancel(&mut self, key: EventKey) {
        if let Err(stale) = self.try_cancel(key) {
            #[cfg(debug_assertions)]
            panic!("{stale}");
            #[cfg(not(debug_assertions))]
            let _ = stale;
        }
    }

    /// Cancels a pending event in O(log n), or reports a
    /// [`StaleKeyError`] if the key's event already fired or was already
    /// cancelled — never panics.
    ///
    /// # Errors
    ///
    /// Returns [`StaleKeyError`] when the key no longer names a pending
    /// event; the queue is unchanged.
    pub fn try_cancel(&mut self, key: EventKey) -> Result<(), StaleKeyError> {
        let alive = (key.node as usize) < self.nodes.len()
            && self.nodes[key.node as usize].seq == key.seq
            && self.nodes[key.node as usize].event.is_some();
        if !alive {
            return Err(StaleKeyError {
                node: key.node,
                seq: key.seq,
            });
        }
        let pos = self.nodes[key.node as usize].pos as usize;
        debug_assert_eq!(self.heap[pos].node, key.node, "heap position index drifted");
        self.remove_at(pos);
        let n = &mut self.nodes[key.node as usize];
        n.event = None;
        self.free.push(key.node);
        Ok(())
    }

    /// Removes and returns the next event, advancing the clock to its firing
    /// time. Returns `None` when the queue is empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let head = *self.heap.first()?;
        self.remove_at(0);
        self.now = head.at;
        let n = &mut self.nodes[head.node as usize];
        let event = n.event.take().expect("heap entry points at empty node");
        self.free.push(head.node);
        Some((head.at, event))
    }

    /// Returns the firing time of the next event without removing it.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.first().map(|e| e.at)
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` if no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Removes the heap entry at `pos`, refilling the hole with the last
    /// element and restoring heap order around it.
    fn remove_at(&mut self, pos: usize) {
        let last = self.heap.pop().expect("remove_at on empty heap");
        if pos == self.heap.len() {
            return; // removed the tail entry; nothing to restore
        }
        self.heap[pos] = last;
        self.nodes[last.node as usize].pos = pos as u32;
        // The transplanted tail may violate heap order in either
        // direction relative to its new neighbourhood.
        if pos > 0 && self.heap[pos].precedes(&self.heap[(pos - 1) / ARITY]) {
            self.sift_up(pos);
        } else {
            self.sift_down(pos);
        }
    }

    /// Moves the entry at `pos` toward the root until its parent is not
    /// later than it (hole-based: entries shift down, one final write).
    fn sift_up(&mut self, mut pos: usize) {
        let entry = self.heap[pos];
        while pos > 0 {
            let parent = (pos - 1) / ARITY;
            if !entry.precedes(&self.heap[parent]) {
                break;
            }
            self.heap[pos] = self.heap[parent];
            self.nodes[self.heap[pos].node as usize].pos = pos as u32;
            pos = parent;
        }
        self.heap[pos] = entry;
        self.nodes[entry.node as usize].pos = pos as u32;
    }

    /// Moves the entry at `pos` away from the root until no child
    /// precedes it.
    fn sift_down(&mut self, mut pos: usize) {
        let entry = self.heap[pos];
        let n = self.heap.len();
        loop {
            let first = ARITY * pos + 1;
            if first >= n {
                break;
            }
            let mut min = first;
            for child in (first + 1)..(first + ARITY).min(n) {
                if self.heap[child].precedes(&self.heap[min]) {
                    min = child;
                }
            }
            if !self.heap[min].precedes(&entry) {
                break;
            }
            self.heap[pos] = self.heap[min];
            self.nodes[self.heap[pos].node as usize].pos = pos as u32;
            pos = min;
        }
        self.heap[pos] = entry;
        self.nodes[entry.node as usize].pos = pos as u32;
    }

    /// Asserts the internal invariants: heap order, position index
    /// consistency, and slab/free-list accounting. Test-only helper for
    /// the differential suite; O(n).
    ///
    /// # Panics
    ///
    /// Panics if any invariant is violated.
    pub fn check_invariants(&self) {
        for (i, e) in self.heap.iter().enumerate() {
            if i > 0 {
                let parent = &self.heap[(i - 1) / ARITY];
                assert!(
                    !e.precedes(parent),
                    "heap order violated at {i}: child ({:?}, {}) precedes parent",
                    e.at,
                    e.seq
                );
            }
            let n = &self.nodes[e.node as usize];
            assert_eq!(n.pos as usize, i, "node {} position index drifted", e.node);
            assert_eq!(n.seq, e.seq, "node {} seq disagrees with heap", e.node);
            assert!(n.event.is_some(), "heap entry {i} points at empty node");
        }
        let occupied = self.nodes.iter().filter(|n| n.event.is_some()).count();
        assert_eq!(occupied, self.heap.len(), "occupied nodes != heap entries");
        assert_eq!(
            self.free.len() + occupied,
            self.nodes.len(),
            "free list does not account for every vacant node"
        );
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3.0), 3);
        q.schedule(SimTime::from_secs(1.0), 1);
        q.schedule(SimTime::from_secs(2.0), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn simultaneous_events_fire_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1.0);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5.0), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(5.0));
    }

    #[test]
    #[should_panic(expected = "cannot schedule event in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5.0), ());
        q.pop();
        q.schedule(SimTime::from_secs(1.0), ());
    }

    #[test]
    fn peek_does_not_advance() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(2.0), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(2.0)));
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn cancelled_events_never_fire() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1.0), "keep1");
        let key = q.schedule_keyed(SimTime::from_secs(2.0), "dropped");
        q.schedule(SimTime::from_secs(3.0), "keep2");
        assert_eq!(q.len(), 3);
        q.cancel(key);
        assert_eq!(q.len(), 2);
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["keep1", "keep2"]);
    }

    #[test]
    fn cancellation_preserves_fifo_of_survivors() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1.0);
        let mut keys = Vec::new();
        for i in 0..10 {
            keys.push(q.schedule_keyed(t, i));
        }
        // Cancel the odd ones; the evens must still fire in FIFO order.
        for (i, key) in keys.into_iter().enumerate() {
            if i % 2 == 1 {
                q.cancel(key);
            }
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![0, 2, 4, 6, 8]);
    }

    #[test]
    fn peek_skips_cancelled_head() {
        let mut q = EventQueue::new();
        let key = q.schedule_keyed(SimTime::from_secs(1.0), "dropped");
        q.schedule(SimTime::from_secs(5.0), "live");
        q.cancel(key);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(5.0)));
        assert_eq!(q.pop(), Some((SimTime::from_secs(5.0), "live")));
        assert!(q.is_empty());
    }

    #[test]
    fn cancelling_everything_empties_the_queue() {
        let mut q = EventQueue::new();
        let a = q.schedule_keyed(SimTime::from_secs(1.0), ());
        let b = q.schedule_keyed(SimTime::from_secs(2.0), ());
        q.cancel(a);
        q.cancel(b);
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn scheduling_at_now_is_allowed() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1.0), "first");
        q.pop();
        q.schedule(q.now() + SimDuration::ZERO, "second");
        assert_eq!(q.pop().map(|(_, e)| e), Some("second"));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "whose event already fired")]
    fn cancelling_a_fired_key_is_detected() {
        let mut q = EventQueue::new();
        let key = q.schedule_keyed(SimTime::from_secs(1.0), ());
        q.pop();
        q.cancel(key);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "whose event already fired")]
    fn stale_key_is_detected_even_after_node_reuse() {
        let mut q = EventQueue::new();
        let key = q.schedule_keyed(SimTime::from_secs(1.0), 1);
        q.pop();
        // The freed node is reused by a fresh event with a larger seq, so
        // the stale key no longer matches the occupant.
        q.schedule(SimTime::from_secs(2.0), 2);
        q.cancel(key);
    }

    #[test]
    fn slots_are_reused_after_pop_and_cancel() {
        let mut q = EventQueue::new();
        for round in 0..50 {
            let t = SimTime::from_secs(f64::from(round) + 1.0);
            let keep = q.schedule_keyed(t, "keep");
            let drop_ = q.schedule_keyed(t, "drop");
            q.cancel(drop_);
            assert_eq!(q.pop(), Some((t, "keep")));
            let _ = keep; // fired above: key intentionally not cancelled
            q.check_invariants();
        }
        // Two nodes suffice for the whole churn.
        assert!(q.nodes.len() <= 2, "slab grew: {} nodes", q.nodes.len());
    }

    #[test]
    fn cancel_at_head_promotes_next_event() {
        let mut q = EventQueue::new();
        let head = q.schedule_keyed(SimTime::from_secs(1.0), "head");
        q.schedule(SimTime::from_secs(2.0), "next");
        q.schedule(SimTime::from_secs(3.0), "tail");
        q.cancel(head);
        q.check_invariants();
        assert_eq!(q.pop(), Some((SimTime::from_secs(2.0), "next")));
    }

    #[test]
    fn try_cancel_reports_stale_keys_without_panicking() {
        let mut q = EventQueue::new();
        let live = q.schedule_keyed(SimTime::from_secs(2.0), "live");
        let fired = q.schedule_keyed(SimTime::from_secs(1.0), "fired");
        q.pop();
        let err = q.try_cancel(fired).unwrap_err();
        assert_eq!(err.seq, 1);
        assert!(err.to_string().contains("already fired"));
        assert!(q.try_cancel(live).is_ok());
        assert!(q.is_empty());
        q.check_invariants();
    }

    #[test]
    fn heap_entries_are_24_byte_triples() {
        // The module docs promise `(time, seq, node)` triples of 24 bytes:
        // sifting moves only these, so their size is the heap's cost.
        assert_eq!(std::mem::size_of::<HeapEntry>(), 24);
    }

    #[test]
    fn interleaved_churn_keeps_invariants() {
        let mut q = EventQueue::new();
        let mut keys = Vec::new();
        for i in 0..200u32 {
            // Fodder events in [10, 210) are always earlier than keyed
            // events in [1000, 1100), so pops consume fodder only and the
            // held keys stay valid for cancellation.
            q.schedule(SimTime::from_secs(f64::from(i) + 10.0), i);
            let t = SimTime::from_secs(f64::from((i * 37) % 100) + 1000.0);
            keys.push(Some(q.schedule_keyed(t, i)));
            if i % 3 == 0 {
                if let Some(k) = keys[(i as usize) / 2].take() {
                    q.cancel(k);
                }
            }
            if i % 5 == 0 {
                let _ = q.pop();
            }
            q.check_invariants();
        }
        let mut last = SimTime::ZERO;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last);
            last = t;
            q.check_invariants();
        }
    }
}
