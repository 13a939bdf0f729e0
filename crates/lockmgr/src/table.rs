//! The lock table: concurrency field, coherence field, FIFO wait queues.
//!
//! This is the indexed implementation. Every transaction that holds or
//! waits for a lock is interned into a dense per-table **owner slot**,
//! every lock in use into a dense **entry slot**, and the structures the
//! simulator's hot operations touch are addressed by slot or by arena
//! handle, so they never scan the whole table:
//!
//! 1. **Owner slots.** One map takes an [`OwnerId`] to its slot; the slot
//!    holds the owner's wait (its arena handle and the entry slot it
//!    queues on), its held locks in acquisition order (backing
//!    [`LockTable::release_all`], [`LockTable::held_locks`] and victim
//!    selection), a count of holder edges into it, and the deadlock
//!    probe's mark. A slot is recycled, with its held-list allocation,
//!    once its owner neither holds nor waits.
//! 2. **Entry slots.** One map takes a [`LockId`] to its entry: the
//!    holders, the ends and length of the FIFO wait queue, and the
//!    coherence count. An entry is recycled, with its holder-list
//!    allocation, once it has no holder, no waiter and a zero coherence
//!    count.
//! 3. **Arena-backed waiter queues.** Wait-queue nodes live in one shared
//!    `Vec` arena addressed by stable `u32` handles with free-list reuse.
//!
//! Both slot arrays are sized by what is live at once, not by the range
//! of owner or lock ids.
//!
//! The **wait-for graph is implicit.** A waiter's blockers are the
//! holders of the entry it queues on, then the waiters ahead of it in
//! that entry's FIFO; a probe reads them there when it needs them, and
//! nothing stores an edge. The one derived count kept current is each
//! owner's incoming holder edges, without walking a queue: a waiter
//! joining or leaving a queue moves the count of each other holder of
//! that entry by one, and a holder joining or leaving an entry moves its
//! own count by the number of other waiters queued there.
//!
//! The simulator probes for a deadlock after every blocked request, and
//! the probe comes in two depths:
//!
//! - [`LockTable::in_deadlock`] is the exact yes/no verdict. It returns
//!   at once when no wait-for edge enters the probed owner, which the
//!   slot answers without a search: nobody queues behind the owner and
//!   no waiter has a holder edge to it. Otherwise it walks **holder edges
//!   only**. A queue edge from X to a waiter W ahead of it adds nothing,
//!   since every blocker of W blocks X too or is X itself; the two
//!   exceptions, the owner's own queued upgrade and the last edge back
//!   from a waiter queued behind it, are settled before and during the
//!   walk.
//! - [`LockTable::deadlock_cycle`] reports the cycle's members for the
//!   victim rules that choose among them. It takes the same early exit,
//!   then searches the whole graph depth-first, queue edges included, in
//!   the reference model's order.
//!
//! Both mark slots with per-probe stamps, and a hop goes from an owner
//! slot to an entry slot to its holders, so it reads arrays and hashes
//! nothing.
//!
//! The two maps (lock → entry, owner → slot) use a Fibonacci-style
//! multiplicative hasher ([`hls_sim::FxHasher`]) instead of SipHash — the
//! keys are trusted in-simulator integers, not attacker-controlled input.
//!
//! Outcome semantics are locked to the scan-based reference
//! implementation in [`crate::model`] by the differential suite in
//! `tests/differential.rs`; every observable — [`RequestOutcome`]s, grant
//! order, the reported cycle and its order, counters — is bit-compatible.

use std::cell::{Cell, RefCell};

use hls_obs::{OpStats, Timer};
use hls_sim::{FxHashMap as FxMap, FxHashSet as FxSet};

use crate::types::{LockId, LockMode, OwnerId};

/// Per-operation profiling counters for one [`LockTable`].
///
/// Invocation counts are always maintained (a handful of integer
/// increments per operation, with no effect on simulated outcomes);
/// wall-clock nanoseconds accumulate only while profiling is enabled
/// via [`LockTable::set_profiling`].
#[derive(Debug, Clone, Default)]
pub struct LockStats {
    /// [`LockTable::request`] calls.
    pub request: OpStats,
    /// [`LockTable::release_all`] calls.
    pub release_all: OpStats,
    /// [`LockTable::release_one`] calls.
    pub release_one: OpStats,
    /// [`LockTable::cancel_wait`] calls (abort-path queue surgery).
    pub cancel_wait: OpStats,
    /// [`LockTable::force_acquire`] calls — the authentication-phase
    /// hot path flagged in the ROADMAP.
    pub force_acquire: OpStats,
}

/// Outcome of a lock request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestOutcome {
    /// The lock was granted immediately.
    Granted,
    /// The requester already holds the lock in a covering mode.
    AlreadyHeld,
    /// The request conflicts with a current holder (or an earlier waiter)
    /// and was queued FIFO.
    Queued,
}

/// Result of a forcible acquisition during the authentication phase.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ForceOutcome {
    /// Holders displaced by the forced grant; the caller marks these for
    /// abort, per the paper's authentication rule.
    pub displaced: Vec<OwnerId>,
    /// Waiters that became grantable once displaced holders were removed.
    pub grants: Vec<Grant>,
}

/// A lock grant produced by a release: `owner` now holds `lock` in `mode`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// The lock that was granted.
    pub lock: LockId,
    /// The transaction the lock was granted to.
    pub owner: OwnerId,
    /// The granted mode.
    pub mode: LockMode,
}

/// Sentinel handle: "no node" / "no wait".
const NIL: u32 = u32::MAX;

/// One interned owner: everything the table tracks per transaction.
#[derive(Debug, Clone)]
struct OwnerSlot {
    owner: OwnerId,
    /// Arena handle of the owner's single queued wait, or [`NIL`].
    wait: u32,
    /// Entry slot that wait queues on, or [`NIL`] with `wait`. A probe
    /// hop reads it here, next to `wait`, rather than in the arena.
    wait_entry: u32,
    /// Locks held, in acquisition order.
    held: Vec<LockId>,
    /// Holder edges into this owner: one per (waiter, lock) pair where
    /// the waiter queues on a lock this owner holds. Together with "is
    /// anyone queued behind my wait" this decides whether any wait-for
    /// edge enters the owner.
    holder_in: u32,
    /// The mark a deadlock probe last left here: one of that probe's
    /// stamps.
    visit: Cell<u32>,
}

impl OwnerSlot {
    fn is_idle(&self) -> bool {
        self.held.is_empty() && self.wait == NIL
    }
}

/// One queued lock request, living in the table-wide arena. Nodes form a
/// doubly-linked FIFO per lock entry; the waiting owner's slot records
/// which entry.
#[derive(Debug, Clone, Copy)]
struct WaiterNode {
    /// Slot of the waiting owner.
    slot: u32,
    mode: LockMode,
    prev: u32,
    next: u32,
}

/// One lock in use, living in the table-wide entry array.
#[derive(Debug, Clone)]
struct LockEntry {
    lock: LockId,
    /// Current holders (owner slots) with their modes. Multiple holders
    /// only in share mode.
    holders: Vec<(u32, LockMode)>,
    /// Head of this entry's FIFO wait queue (arena handle), or [`NIL`].
    q_head: u32,
    /// Tail of the wait queue, or [`NIL`].
    q_tail: u32,
    /// Number of queued waiters.
    q_len: u32,
    /// The paper's coherence-control field: the number of asynchronous
    /// updates to this element that are in flight to the central site.
    coherence: u32,
}

impl LockEntry {
    fn is_empty(&self) -> bool {
        self.holders.is_empty() && self.q_len == 0 && self.coherence == 0
    }

    fn compatible(&self, mode: LockMode) -> bool {
        self.holders.iter().all(|&(_, m)| mode.compatible_with(m))
    }

    /// The holder edges that holding this entry, slot `e`, gives owner
    /// `slot`: one from each waiter queued here but the owner itself.
    fn waiters_besides(&self, e: u32, slot: &OwnerSlot) -> u32 {
        self.q_len - u32::from(slot.wait_entry == e)
    }
}

/// A waiter in owner slot `w` joins (`joined`) or leaves the queue of
/// `entry`, gaining or losing a holder edge to each of its holders but
/// itself.
fn count_waiter_edges(entry: &LockEntry, slots: &mut [OwnerSlot], w: u32, joined: bool) {
    for &(h, _) in &entry.holders {
        if h != w {
            let count = &mut slots[h as usize].holder_in;
            if joined {
                *count += 1;
            } else {
                *count -= 1;
            }
        }
    }
}

/// Unlinks node `h` from `entry`'s queue (does not free it).
fn unlink(entry: &mut LockEntry, arena: &mut [WaiterNode], h: u32) {
    let WaiterNode { prev, next, .. } = arena[h as usize];
    if prev == NIL {
        entry.q_head = next;
    } else {
        arena[prev as usize].next = next;
    }
    if next == NIL {
        entry.q_tail = prev;
    } else {
        arena[next as usize].prev = prev;
    }
    entry.q_len -= 1;
}

/// One step of a deadlock probe's depth-first walk: a waiter and the
/// blockers of it not yet tried.
#[derive(Debug, Clone, Copy)]
struct Frame {
    /// Owner slot of the waiter.
    waiter: u32,
    /// Entry slot it queues on.
    entry: u32,
    /// The next waiter ahead of it to try (arena handle, walking `prev`
    /// links toward the head), or [`NIL`] once none is left. The verdict
    /// starts at [`NIL`], since it follows holder edges only.
    ahead: u32,
    /// Holders of the entry not yet tried, tried last-first after the
    /// waiters ahead.
    left: u32,
}

/// A site's lock table, implementing the two-field locks of Section 2 of the
/// paper: the *concurrency* field (share/exclusive holders plus a FIFO wait
/// queue) and the *coherence* field (count of in-flight asynchronous updates
/// to the central site).
///
/// The table additionally supports the forcible acquisition used in the
/// authentication phase, where a central/shipped transaction seizes locks
/// from incompatible local holders (which are then marked for abort by the
/// caller).
///
/// Internally each owner that holds or waits is interned into a dense
/// slot holding its wait, held locks, incoming holder-edge count and
/// probe stamp, and each lock in use into a dense entry slot. Entry
/// holders store owner slots, a wait stores its entry slot, and waiter
/// queues live in an arena addressed by stable `u32` handles, so a
/// deadlock probe hashes only the probed owner's id. Slots and entries
/// return to free lists once unused. The scan-based semantics these
/// indexes replace live on as [`crate::model::ReferenceLockTable`], the
/// differential-testing oracle.
///
/// # Examples
///
/// ```
/// use hls_lockmgr::{LockId, LockMode, LockTable, OwnerId, RequestOutcome};
///
/// let mut table = LockTable::new();
/// let (a, b, l) = (OwnerId(1), OwnerId(2), LockId(7));
/// assert_eq!(table.request(a, l, LockMode::Exclusive), RequestOutcome::Granted);
/// assert_eq!(table.request(b, l, LockMode::Shared), RequestOutcome::Queued);
/// let grants = table.release_all(a);
/// assert_eq!(grants.len(), 1);
/// assert_eq!(grants[0].owner, b);
/// ```
#[derive(Debug, Clone, Default)]
pub struct LockTable {
    /// Lock → entry slot, for every lock with a holder, a waiter or a
    /// nonzero coherence count.
    entry_of: FxMap<LockId, u32>,
    /// Lock entries; empty ones are recycled via `free_entries`.
    entries: Vec<LockEntry>,
    /// Free list of entry slots.
    free_entries: Vec<u32>,
    /// The waiter-node arena; freed nodes are recycled via `free`.
    arena: Vec<WaiterNode>,
    /// Free list of arena handles.
    free: Vec<u32>,
    /// Owner → slot, for every owner that holds or waits.
    slot_of: FxMap<OwnerId, u32>,
    /// Owner slots; idle ones are recycled via `free_slots`.
    slots: Vec<OwnerSlot>,
    /// Free list of slot indexes.
    free_slots: Vec<u32>,
    /// Total number of (owner, lock) grants — the `n_lock` observable used
    /// by the dynamic routing strategies.
    grants: usize,
    /// Per-operation counters; wall-clock timing gated by `profiling`.
    stats: LockStats,
    /// Whether operations also accumulate wall-clock time into `stats`.
    profiling: bool,
    /// The latest probe stamp; a slot marked with a stamp of the running
    /// probe was reached by it.
    stamp: Cell<u32>,
    /// Reusable depth-first frames for [`LockTable::in_deadlock`] and
    /// [`LockTable::deadlock_cycle`]. Interior mutability keeps the probe
    /// `&self` and allocation-free; nothing survives across calls.
    frames: RefCell<Vec<Frame>>,
}

impl LockTable {
    /// Creates an empty lock table.
    #[must_use]
    pub fn new() -> Self {
        LockTable::default()
    }

    /// Enables or disables wall-clock timing of lock operations.
    /// Invocation counts in [`LockTable::stats`] are maintained either
    /// way; timing only ever reads the host clock, so it cannot affect
    /// simulated outcomes.
    pub fn set_profiling(&mut self, on: bool) {
        self.profiling = on;
    }

    /// Whether wall-clock timing is enabled.
    #[must_use]
    pub fn profiling(&self) -> bool {
        self.profiling
    }

    /// The per-operation counters accumulated so far.
    #[must_use]
    pub fn stats(&self) -> &LockStats {
        &self.stats
    }

    /// The slot of `owner`, interning it into a recycled or new slot if it
    /// neither holds nor waits yet. Callers must leave it holding or
    /// waiting, or release the slot again.
    fn intern(&mut self, owner: OwnerId) -> u32 {
        let LockTable {
            slot_of,
            slots,
            free_slots,
            ..
        } = self;
        *slot_of.entry(owner).or_insert_with(|| {
            if let Some(s) = free_slots.pop() {
                slots[s as usize].owner = owner;
                s
            } else {
                assert!(slots.len() < NIL as usize, "owner slots exhausted");
                slots.push(OwnerSlot {
                    owner,
                    wait: NIL,
                    wait_entry: NIL,
                    held: Vec::new(),
                    holder_in: 0,
                    visit: Cell::new(0),
                });
                (slots.len() - 1) as u32
            }
        })
    }

    /// Returns slot `s` to the free list if its owner neither holds nor
    /// waits. An idle owner has no wait-for edge into it, so nothing
    /// refers to the slot any more.
    fn release_if_idle(&mut self, s: u32) {
        let slot = &self.slots[s as usize];
        if slot.is_idle() {
            debug_assert_eq!(slot.holder_in, 0, "idle owner still has holder edges");
            self.slot_of.remove(&slot.owner);
            self.free_slots.push(s);
        }
    }

    /// The slot of `owner`, if it holds or waits.
    fn slot(&self, owner: OwnerId) -> Option<&OwnerSlot> {
        self.slot_of.get(&owner).map(|&s| &self.slots[s as usize])
    }

    /// The entry slot of `lock`, taking a recycled or new one if the lock
    /// is not in use yet. Callers must leave the entry non-empty, or drop
    /// it again with [`LockTable::drop_if_empty`].
    fn intern_entry(&mut self, lock: LockId) -> u32 {
        let LockTable {
            entry_of,
            entries,
            free_entries,
            ..
        } = self;
        *entry_of.entry(lock).or_insert_with(|| {
            if let Some(e) = free_entries.pop() {
                entries[e as usize].lock = lock;
                e
            } else {
                assert!(entries.len() < NIL as usize, "lock entries exhausted");
                entries.push(LockEntry {
                    lock,
                    holders: Vec::new(),
                    q_head: NIL,
                    q_tail: NIL,
                    q_len: 0,
                    coherence: 0,
                });
                (entries.len() - 1) as u32
            }
        })
    }

    /// The entry of `lock`, if it is in use.
    fn entry(&self, lock: LockId) -> Option<&LockEntry> {
        self.entry_of.get(&lock).map(|&e| &self.entries[e as usize])
    }

    /// Requests `lock` in `mode` on behalf of `owner`.
    ///
    /// Incompatible requests are queued FIFO; a queued owner must not issue
    /// further requests until granted or cancelled.
    ///
    /// A shared holder upgrading to exclusive is granted immediately when it
    /// is the sole holder, and queued otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `owner` is already waiting for some lock.
    pub fn request(&mut self, owner: OwnerId, lock: LockId, mode: LockMode) -> RequestOutcome {
        let timer = Timer::start_if(self.profiling);
        let out = self.request_impl(owner, lock, mode);
        timer.stop_into(&mut self.stats.request);
        out
    }

    fn request_impl(&mut self, owner: OwnerId, lock: LockId, mode: LockMode) -> RequestOutcome {
        let s = self.intern(owner);
        assert!(
            self.slots[s as usize].wait == NIL,
            "{owner} already waits for a lock and cannot issue another request"
        );
        let e = self.intern_entry(lock);
        let LockTable {
            entries,
            slots,
            arena,
            free,
            grants,
            ..
        } = self;
        let entry = &mut entries[e as usize];

        if let Some(pos) = entry.holders.iter().position(|&(o, _)| o == s) {
            let held_mode = entry.holders[pos].1;
            if held_mode.covers(mode) {
                return RequestOutcome::AlreadyHeld;
            }
            // Upgrade shared -> exclusive.
            if entry.holders.len() == 1 {
                entry.holders[pos].1 = LockMode::Exclusive;
                return RequestOutcome::Granted;
            }
            enqueue(entry, e, arena, free, slots, s, LockMode::Exclusive);
            return RequestOutcome::Queued;
        }

        // FIFO fairness: a new request queues behind existing waiters even
        // if it would be compatible with the current holders. A grant
        // therefore finds the queue empty and gains no holder edge.
        if entry.q_len == 0 && entry.compatible(mode) {
            entry.holders.push((s, mode));
            slots[s as usize].held.push(lock);
            *grants += 1;
            RequestOutcome::Granted
        } else {
            enqueue(entry, e, arena, free, slots, s, mode);
            RequestOutcome::Queued
        }
    }

    /// Releases every lock held by `owner` (and cancels any pending wait),
    /// returning the grants handed to unblocked waiters, in grant order.
    pub fn release_all(&mut self, owner: OwnerId) -> Vec<Grant> {
        let timer = Timer::start_if(self.profiling);
        let mut grants = Vec::new();
        if let Some(&s) = self.slot_of.get(&owner) {
            self.cancel_slot_wait(s, &mut grants);
            let mut locks = std::mem::take(&mut self.slots[s as usize].held);
            for &lock in &locks {
                self.remove_holder(lock, s, &mut grants);
            }
            // Hand the emptied list back so the slot's next owner reuses it.
            locks.clear();
            self.slots[s as usize].held = locks;
            self.release_if_idle(s);
        }
        timer.stop_into(&mut self.stats.release_all);
        grants
    }

    /// Releases a single lock held by `owner`, returning resulting grants.
    ///
    /// Returns an empty vector if `owner` does not hold `lock`.
    pub fn release_one(&mut self, owner: OwnerId, lock: LockId) -> Vec<Grant> {
        let timer = Timer::start_if(self.profiling);
        let out = self.release_one_impl(owner, lock);
        timer.stop_into(&mut self.stats.release_one);
        out
    }

    fn release_one_impl(&mut self, owner: OwnerId, lock: LockId) -> Vec<Grant> {
        let Some(&s) = self.slot_of.get(&owner) else {
            return Vec::new();
        };
        let held = &mut self.slots[s as usize].held;
        let Some(pos) = held.iter().position(|&l| l == lock) else {
            return Vec::new();
        };
        held.remove(pos);
        let mut grants = Vec::new();
        self.remove_holder(lock, s, &mut grants);
        self.release_if_idle(s);
        grants
    }

    /// Removes `owner` from the wait queue it sits in, if any.
    /// Returns grants that become possible if `owner` was blocking others
    /// at the head of a queue.
    pub fn cancel_wait(&mut self, owner: OwnerId) -> Vec<Grant> {
        let timer = Timer::start_if(self.profiling);
        let mut grants = Vec::new();
        if let Some(&s) = self.slot_of.get(&owner) {
            self.cancel_slot_wait(s, &mut grants);
            self.release_if_idle(s);
        }
        timer.stop_into(&mut self.stats.cancel_wait);
        grants
    }

    /// Dequeues slot `s`'s wait, if any, and promotes the waiters it was
    /// blocking. Leaves the slot itself in place.
    fn cancel_slot_wait(&mut self, s: u32, grants: &mut Vec<Grant>) {
        let LockTable {
            entries,
            slots,
            arena,
            free,
            ..
        } = self;
        let slot = &mut slots[s as usize];
        let h = std::mem::replace(&mut slot.wait, NIL);
        if h == NIL {
            return;
        }
        let e = std::mem::replace(&mut slot.wait_entry, NIL);
        let entry = &mut entries[e as usize];
        count_waiter_edges(entry, slots, s, false);
        unlink(entry, arena, h);
        free.push(h);
        self.promote_waiters(e, grants);
        self.drop_if_empty(e);
    }

    /// Forcibly grants `lock` to `owner` in `mode`, removing every
    /// incompatible holder. Used by the authentication phase: "the local
    /// transactions holding these locks are marked for abort, the
    /// central/shipped transaction is granted the locks and the locks held
    /// by the conflicting local transactions are released".
    ///
    /// Returns the displaced holders (which the caller must mark for abort)
    /// plus any waiters that became grantable once the displaced holders
    /// were removed — e.g. queued share requests after a forced share
    /// acquisition displaces an exclusive holder.
    pub fn force_acquire(&mut self, lock: LockId, owner: OwnerId, mode: LockMode) -> ForceOutcome {
        let timer = Timer::start_if(self.profiling);
        let out = self.force_acquire_impl(lock, owner, mode);
        timer.stop_into(&mut self.stats.force_acquire);
        out
    }

    fn force_acquire_impl(&mut self, lock: LockId, owner: OwnerId, mode: LockMode) -> ForceOutcome {
        let s = self.intern(owner);
        let e = self.intern_entry(lock);
        let displaced = {
            let LockTable {
                entries,
                slots,
                grants,
                ..
            } = self;
            let entry = &mut entries[e as usize];
            let prior_mode = entry
                .holders
                .iter()
                .find(|&&(o, _)| o == s)
                .map(|&(_, m)| m);
            // Re-acquisition keeps the strongest of the old and new modes.
            let mode = match prior_mode {
                Some(LockMode::Exclusive) => LockMode::Exclusive,
                _ => mode,
            };
            // Incompatible holders are displaced: they lose the lock and
            // the holder edges it gave them.
            let mut displaced = Vec::new();
            for &(d, m) in &entry.holders {
                if d != s && !mode.compatible_with(m) {
                    let slot = &mut slots[d as usize];
                    slot.holder_in -= entry.waiters_besides(e, slot);
                    let pos = slot
                        .held
                        .iter()
                        .position(|&l| l == lock)
                        .expect("held set desync");
                    slot.held.remove(pos);
                    *grants -= 1;
                    displaced.push(slot.owner);
                }
            }
            // `owner` is re-appended in the strongest mode; a new holder
            // gains the holder edges of the waiters already queued.
            entry
                .holders
                .retain(|&(o, m)| o != s && mode.compatible_with(m));
            entry.holders.push((s, mode));
            if prior_mode.is_none() {
                let slot = &mut slots[s as usize];
                slot.holder_in += entry.waiters_besides(e, slot);
                slot.held.push(lock);
                *grants += 1;
            }
            displaced
        };
        let mut grants = Vec::new();
        self.promote_waiters(e, &mut grants);
        // A displaced owner that neither holds nor waits any more (a
        // queued upgrade on this lock may just have been granted) gives
        // up its slot.
        for owner in &displaced {
            let d = *self
                .slot_of
                .get(owner)
                .expect("displaced owner lost its slot");
            self.release_if_idle(d);
        }
        ForceOutcome { displaced, grants }
    }

    /// Increments the coherence count of `lock` (an asynchronous update to
    /// the central site is now in flight).
    pub fn incr_coherence(&mut self, lock: LockId) {
        let e = self.intern_entry(lock);
        self.entries[e as usize].coherence += 1;
    }

    /// Decrements the coherence count of `lock` (the central site
    /// acknowledged one asynchronous update).
    ///
    /// # Panics
    ///
    /// Panics if the count is already zero — an acknowledgement without a
    /// matching update indicates a protocol bug.
    pub fn decr_coherence(&mut self, lock: LockId) {
        let &e = self
            .entry_of
            .get(&lock)
            .expect("coherence ack for unknown lock");
        let entry = &mut self.entries[e as usize];
        assert!(entry.coherence > 0, "coherence underflow on {lock}");
        entry.coherence -= 1;
        self.drop_if_empty(e);
    }

    /// Current coherence count of `lock`.
    #[must_use]
    pub fn coherence(&self, lock: LockId) -> u32 {
        self.entry(lock).map_or(0, |e| e.coherence)
    }

    /// Current holders of `lock` with their modes.
    #[must_use]
    pub fn holders(&self, lock: LockId) -> Vec<(OwnerId, LockMode)> {
        self.entry(lock).map_or_else(Vec::new, |e| {
            e.holders
                .iter()
                .map(|&(s, m)| (self.slots[s as usize].owner, m))
                .collect()
        })
    }

    /// Returns `true` if `owner` holds `lock` in a mode covering `mode`.
    #[must_use]
    pub fn holds(&self, owner: OwnerId, lock: LockId, mode: LockMode) -> bool {
        let (Some(&s), Some(e)) = (self.slot_of.get(&owner), self.entry(lock)) else {
            return false;
        };
        e.holders.iter().any(|&(o, m)| o == s && m.covers(mode))
    }

    /// Locks held by `owner`, in acquisition order.
    #[must_use]
    pub fn held_locks(&self, owner: OwnerId) -> Vec<LockId> {
        self.slot(owner).map_or_else(Vec::new, |s| s.held.clone())
    }

    /// Number of locks held by `owner` — O(1) via its slot, for victim
    /// selection (no list clone).
    #[must_use]
    pub fn held_count(&self, owner: OwnerId) -> usize {
        self.slot(owner).map_or(0, |s| s.held.len())
    }

    /// The lock `owner` currently waits for, if any.
    #[must_use]
    pub fn waiting_for(&self, owner: OwnerId) -> Option<LockId> {
        self.slot(owner)
            .filter(|s| s.wait != NIL)
            .map(|s| self.entries[s.wait_entry as usize].lock)
    }

    /// Total number of (owner, lock) grants in the table — the `n_lock`
    /// quantity observed by the dynamic routing strategies.
    #[must_use]
    pub fn grants_count(&self) -> usize {
        self.grants
    }

    /// Number of transactions blocked in wait queues.
    #[must_use]
    pub fn waiter_count(&self) -> usize {
        // Every live arena node is exactly one queued wait.
        self.arena.len() - self.free.len()
    }

    /// Detects whether granting the wait of `owner` is impossible because of
    /// a wait-for cycle through `owner` — i.e. a deadlock involving `owner`.
    ///
    /// Edges run from a waiting transaction to every holder of the lock it
    /// waits for (holder edges), and to earlier waiters in the same queue,
    /// which will hold the lock before it (queue edges).
    ///
    /// The verdict is exact but follows holder edges only. If X queues
    /// behind W, every blocker of W blocks X too, or is X itself, so a
    /// shortest cycle through `owner` can skip every queue edge but two:
    /// `owner`'s own first edge, needed only when it queues an upgrade of
    /// a lock it holds behind another waiter (that waiter's holder edge
    /// closes the cycle at once), and the last edge, from a waiter queued
    /// behind `owner`. So the test returns at once when no wait-for edge
    /// enters `owner` (nobody queues behind it and no waiter has a holder
    /// edge to it), answers the upgrade case directly, and otherwise
    /// walks holder edges from `owner`'s holders until it meets `owner`
    /// or a waiter queued behind it. Slots are marked with per-probe
    /// stamps, so a hop reads arrays and hashes nothing.
    #[must_use]
    pub fn in_deadlock(&self, owner: OwnerId) -> bool {
        let Some(root) = self.probe_root(owner) else {
            return false;
        };
        let r = &self.slots[root as usize];
        let behind_another = self.arena[r.wait as usize].prev != NIL;
        let holders = &self.entries[r.wait_entry as usize].holders;
        if behind_another && holders.iter().any(|&(o, _)| o == root) {
            return true;
        }
        let (back, seen) = self.mark_back(r);
        // The frame being walked stays in `f`; the path above it waits in
        // `frames`.
        let mut frames = self.frames.borrow_mut();
        frames.clear();
        let mut f = self.frame(root, r, NIL);
        loop {
            if f.left == 0 {
                match frames.pop() {
                    Some(up) => f = up,
                    None => return false,
                }
                continue;
            }
            f.left -= 1;
            let (b, _) = self.entries[f.entry as usize].holders[f.left as usize];
            // A waiter that holds its own lock queues an upgrade; it
            // has no edge to itself.
            if b == f.waiter {
                continue;
            }
            let bs = &self.slots[b as usize];
            let mark = bs.visit.get();
            if mark == back {
                return true;
            }
            // A blocker that holds but does not wait has no edges.
            if mark != seen && bs.wait != NIL {
                bs.visit.set(seen);
                frames.push(f);
                f = self.frame(b, bs, NIL);
            }
        }
    }

    /// Returns the members of a wait-for cycle through `owner` (the victim
    /// candidates), or an empty vector if `owner` is not deadlocked.
    ///
    /// Takes the same early exit as [`LockTable::in_deadlock`] when no
    /// wait-for edge enters `owner`. Otherwise the cycle is found by
    /// depth-first search from `owner` along the wait-for edges, queue
    /// edges included, read off each entry and its queue; the search is
    /// exact, so it returns empty when there is no cycle. Every returned
    /// member is currently waiting (or is `owner` itself, which is about
    /// to wait). The search visits the blockers of each owner last-first,
    /// as the reference model's stack does: the waiters ahead of it from
    /// the nearest back to the queue's head, then the holders from the
    /// last to the first. So the reported cycle — members and order,
    /// which victim selection depends on — is identical to the reference
    /// model's.
    #[must_use]
    pub fn deadlock_cycle(&self, owner: OwnerId) -> Vec<OwnerId> {
        let Some(root) = self.probe_root(owner) else {
            return Vec::new();
        };
        let r = &self.slots[root as usize];
        let (back, seen) = self.mark_back(r);
        // The frame being searched stays in `f`; the path from `owner` to
        // it waits in `frames`, table-owned scratch: the probe runs after
        // every blocked request on the simulator's hot path and must not
        // allocate.
        let mut frames = self.frames.borrow_mut();
        frames.clear();
        let mut f = self.frame(root, r, self.arena[r.wait as usize].prev);
        loop {
            // The next blocker of `f.waiter` to try, backtracking out of
            // exhausted frames.
            let b = if f.ahead != NIL {
                let node = &self.arena[f.ahead as usize];
                f.ahead = node.prev;
                node.slot
            } else if f.left > 0 {
                f.left -= 1;
                let (h, _) = self.entries[f.entry as usize].holders[f.left as usize];
                if h == f.waiter {
                    continue;
                }
                h
            } else {
                match frames.pop() {
                    Some(up) => f = up,
                    None => return Vec::new(),
                }
                continue;
            };
            // Blockers that hold but do not wait have no edges to follow.
            let bs = &self.slots[b as usize];
            let mark = bs.visit.get();
            if bs.wait == NIL || mark == seen {
                continue;
            }
            bs.visit.set(seen);
            // `owner` blocks `b` when `b` queues behind it or when
            // `owner` holds the lock `b` waits for.
            let entry = &self.entries[bs.wait_entry as usize];
            if mark == back || entry.holders.iter().any(|&(o, _)| o == root) {
                return frames
                    .iter()
                    .map(|up| up.waiter)
                    .chain([f.waiter, b])
                    .map(|s| self.slots[s as usize].owner)
                    .collect();
            }
            frames.push(f);
            f = self.frame(b, bs, self.arena[bs.wait as usize].prev);
        }
    }

    /// The exact early exit shared by both deadlock probes: `owner`'s
    /// slot if it waits and some wait-for edge enters it (a waiter holds
    /// a holder edge to it, or someone queues behind it), `None` when no
    /// cycle can pass through it.
    fn probe_root(&self, owner: OwnerId) -> Option<u32> {
        let &root = self.slot_of.get(&owner)?;
        let r = &self.slots[root as usize];
        if r.wait == NIL {
            return None;
        }
        let entered = r.holder_in > 0 || self.arena[r.wait as usize].next != NIL;
        entered.then_some(root)
    }

    /// Starts a probe from the root slot `r`: takes two fresh stamps,
    /// `back` and `seen`, and marks with `back` the owners whose edge
    /// leads straight back into the root, which are the root itself and
    /// the waiters queued behind it. `seen` marks what the walk enters.
    fn mark_back(&self, r: &OwnerSlot) -> (u32, u32) {
        let back = self.next_stamp();
        let seen = self.next_stamp();
        r.visit.set(back);
        let mut cur = self.arena[r.wait as usize].next;
        while cur != NIL {
            let behind = &self.arena[cur as usize];
            self.slots[behind.slot as usize].visit.set(back);
            cur = behind.next;
        }
        (back, seen)
    }

    /// A probe frame for the waiter in slot `s`, whose blockers ahead
    /// start at arena handle `ahead` and whose entry's holders are all
    /// still to try.
    fn frame(&self, s: u32, slot: &OwnerSlot, ahead: u32) -> Frame {
        Frame {
            waiter: s,
            entry: slot.wait_entry,
            ahead,
            left: self.entries[slot.wait_entry as usize].holders.len() as u32,
        }
    }

    /// Advances the probe stamp. Slots carry a stamp of the last probe
    /// that marked them, so a fresh stamp unmarks every slot at once;
    /// only when the counter wraps are the marks cleared by hand.
    fn next_stamp(&self) -> u32 {
        let mut stamp = self.stamp.get().wrapping_add(1);
        if stamp == 0 {
            for slot in &self.slots {
                slot.visit.set(0);
            }
            stamp = 1;
        }
        self.stamp.set(stamp);
        stamp
    }

    fn remove_holder(&mut self, lock: LockId, s: u32, grants: &mut Vec<Grant>) {
        let Some(&e) = self.entry_of.get(&lock) else {
            return;
        };
        let entry = &mut self.entries[e as usize];
        let Some(pos) = entry.holders.iter().position(|&(o, _)| o == s) else {
            return;
        };
        entry.holders.remove(pos);
        self.grants -= 1;
        let slot = &mut self.slots[s as usize];
        slot.holder_in -= entry.waiters_besides(e, slot);
        self.promote_waiters(e, grants);
        self.drop_if_empty(e);
    }

    /// Grants entry `e`'s queued waiters FIFO while the head of the queue
    /// is compatible with the current holders (no overtaking, to avoid
    /// starvation).
    fn promote_waiters(&mut self, e: u32, grants: &mut Vec<Grant>) {
        let LockTable {
            entries,
            slots,
            arena,
            free,
            grants: grant_count,
            ..
        } = self;
        let entry = &mut entries[e as usize];
        loop {
            let head = entry.q_head;
            if head == NIL {
                break;
            }
            let WaiterNode { slot: s, mode, .. } = arena[head as usize];
            // An upgrade waiter already holds the lock in shared mode; it is
            // grantable when it is the sole remaining holder.
            let is_upgrade = entry.holders.iter().any(|&(o, _)| o == s);
            let ok = if is_upgrade {
                entry.holders.len() == 1
            } else {
                entry.compatible(mode)
            };
            if !ok {
                break;
            }
            unlink(entry, arena, head);
            free.push(head);
            count_waiter_edges(entry, slots, s, false);
            let slot = &mut slots[s as usize];
            slot.wait = NIL;
            slot.wait_entry = NIL;
            if is_upgrade {
                let h = entry
                    .holders
                    .iter_mut()
                    .find(|(o, _)| *o == s)
                    .expect("upgrade holder vanished");
                h.1 = LockMode::Exclusive;
            } else {
                entry.holders.push((s, mode));
                slot.held.push(entry.lock);
                *grant_count += 1;
                // Every waiter still queued gains a holder edge to it.
                slot.holder_in += entry.q_len;
            }
            grants.push(Grant {
                lock: entry.lock,
                owner: slot.owner,
                mode,
            });
        }
    }

    /// Returns entry `e` to the free list, holder-list allocation
    /// included, once it has no holder, no waiter and no coherence count.
    fn drop_if_empty(&mut self, e: u32) {
        let entry = &self.entries[e as usize];
        if entry.is_empty() {
            self.entry_of.remove(&entry.lock);
            self.free_entries.push(e);
        }
    }

    /// Checks internal invariants, including the cross-consistency of
    /// every index: slot records ↔ entry holders and queues, the
    /// holder-edge counts ↔ the queues, the owner and lock maps ↔ live
    /// slots and entries, and arena, slot and entry accounting; used by
    /// tests.
    ///
    /// # Panics
    ///
    /// Panics if any invariant is violated.
    pub fn check_invariants(&self) {
        let mut total = 0;
        let mut queue_total = 0usize;
        // Holder edges into each slot, rebuilt from the queues.
        let mut holder_in = vec![0u32; self.slots.len()];
        for (lock, &e) in &self.entry_of {
            let entry = &self.entries[e as usize];
            assert_eq!(entry.lock, *lock, "entry {e} registered for {lock}");
            // No incompatible co-holders.
            for (i, &(_, m1)) in entry.holders.iter().enumerate() {
                for &(_, m2) in &entry.holders[i + 1..] {
                    assert!(
                        m1.compatible_with(m2),
                        "incompatible co-holders on {lock}: {m1} vs {m2}"
                    );
                }
            }
            // Walk the arena-backed queue: link integrity, registration,
            // and each waiter's holder edges counted from scratch.
            let mut cur = entry.q_head;
            let mut prev = NIL;
            let mut seen = 0u32;
            while cur != NIL {
                let node = &self.arena[cur as usize];
                let slot = &self.slots[node.slot as usize];
                assert_eq!(node.prev, prev, "queue prev link broken on {lock}");
                assert!(
                    slot.wait == cur && slot.wait_entry == e,
                    "waiter {} not registered in its slot",
                    slot.owner
                );
                for &(h, _) in &entry.holders {
                    if h != node.slot {
                        holder_in[h as usize] += 1;
                    }
                }
                seen += 1;
                prev = cur;
                cur = node.next;
            }
            assert_eq!(entry.q_tail, prev, "queue tail link broken on {lock}");
            assert_eq!(entry.q_len, seen, "queue length desync on {lock}");
            queue_total += seen as usize;
            // Head waiter (if not an upgrade) must actually be blocked.
            if entry.q_head != NIL {
                let node = &self.arena[entry.q_head as usize];
                let is_upgrade = entry.holders.iter().any(|&(o, _)| o == node.slot);
                if is_upgrade {
                    assert!(
                        entry.holders.len() > 1,
                        "grantable upgrade left queued on {lock}"
                    );
                } else {
                    assert!(
                        !entry.compatible(node.mode),
                        "grantable waiter left queued on {lock}"
                    );
                }
            }
            total += entry.holders.len();
            // Every entry holder lists the lock in its slot.
            for &(h, _) in &entry.holders {
                let slot = &self.slots[h as usize];
                assert!(
                    self.slot_of.get(&slot.owner) == Some(&h) && slot.held.contains(lock),
                    "holder {} of {lock} missing from its slot",
                    slot.owner
                );
            }
            assert!(!entry.is_empty(), "empty entry for {lock} not dropped");
        }
        assert_eq!(queue_total, self.waiter_count(), "waiter count desync");
        assert_eq!(total, self.grants, "grants counter desync");
        // Free entries: empty, unregistered, and accounted for exactly
        // once.
        let free_entries: FxSet<u32> = self.free_entries.iter().copied().collect();
        assert_eq!(
            free_entries.len(),
            self.free_entries.len(),
            "duplicate entry on free list"
        );
        for &e in &self.free_entries {
            let entry = &self.entries[e as usize];
            assert!(
                entry.is_empty() && entry.q_head == NIL && entry.q_tail == NIL,
                "free entry {e} still in use"
            );
            assert_ne!(
                self.entry_of.get(&entry.lock),
                Some(&e),
                "free entry {e} still registered"
            );
        }
        assert_eq!(
            self.entry_of.len() + self.free_entries.len(),
            self.entries.len(),
            "entry leak: {} live + {} free != {} entries",
            self.entry_of.len(),
            self.free_entries.len(),
            self.entries.len()
        );
        // Live slots: registered under their owner, neither idle nor
        // free, every held lock really held, the wait handle pointing at
        // a node of their own, and the holder-edge count exact.
        let free_slots: FxSet<u32> = self.free_slots.iter().copied().collect();
        assert_eq!(
            free_slots.len(),
            self.free_slots.len(),
            "duplicate slot on free list"
        );
        let mut held_total = 0;
        for (&owner, &s) in &self.slot_of {
            let slot = &self.slots[s as usize];
            assert_eq!(slot.owner, owner, "slot {s} registered for {owner}");
            assert!(
                !free_slots.contains(&s),
                "{owner}'s slot is on the free list"
            );
            assert!(!slot.is_idle(), "idle slot of {owner} not recycled");
            for l in &slot.held {
                assert!(
                    self.entry(*l)
                        .is_some_and(|e| e.holders.iter().any(|&(o, _)| o == s)),
                    "slot of {owner} lists {l}, which it does not hold"
                );
            }
            held_total += slot.held.len();
            if slot.wait == NIL {
                assert_eq!(
                    slot.wait_entry, NIL,
                    "{owner} waits on an entry but in no queue"
                );
            } else {
                assert_eq!(
                    self.arena[slot.wait as usize].slot, s,
                    "{owner}'s wait handle points at another waiter's node"
                );
            }
            assert_eq!(
                slot.holder_in, holder_in[s as usize],
                "holder-edge count desync for {owner}"
            );
        }
        assert_eq!(held_total, self.grants, "held lists desync");
        // Queued nodes register in distinct slots (checked above), so equal
        // counts leave no live slot pointing at a freed node.
        let waiting = self
            .slot_of
            .values()
            .filter(|&&s| self.slots[s as usize].wait != NIL);
        assert_eq!(waiting.count(), queue_total, "slot wait handles desync");
        // Free slots: idle, edge-free, and accounted for exactly once.
        for &s in &self.free_slots {
            let slot = &self.slots[s as usize];
            assert!(
                slot.is_idle() && slot.holder_in == 0,
                "free slot {s} still in use"
            );
        }
        assert_eq!(
            self.slot_of.len() + self.free_slots.len(),
            self.slots.len(),
            "slot leak: {} live + {} free != {} slots",
            self.slot_of.len(),
            self.free_slots.len(),
            self.slots.len()
        );
        // Arena accounting: every node is queued exactly once or free.
        let mut free_seen: FxSet<u32> = FxSet::default();
        for &f in &self.free {
            assert!((f as usize) < self.arena.len(), "free handle out of range");
            assert!(free_seen.insert(f), "duplicate handle on free list");
        }
        assert_eq!(
            queue_total + self.free.len(),
            self.arena.len(),
            "arena leak: {queue_total} queued + {} free != {} nodes",
            self.free.len(),
            self.arena.len()
        );
    }
}

/// Links a fresh waiter node for slot `s` at the tail of the queue of
/// `entry`, slot `e`.
fn enqueue(
    entry: &mut LockEntry,
    e: u32,
    arena: &mut Vec<WaiterNode>,
    free: &mut Vec<u32>,
    slots: &mut [OwnerSlot],
    s: u32,
    mode: LockMode,
) {
    let node = WaiterNode {
        slot: s,
        mode,
        prev: entry.q_tail,
        next: NIL,
    };
    let h = if let Some(h) = free.pop() {
        arena[h as usize] = node;
        h
    } else {
        assert!(arena.len() < NIL as usize, "waiter arena exhausted");
        arena.push(node);
        (arena.len() - 1) as u32
    };
    if entry.q_tail == NIL {
        entry.q_head = h;
    } else {
        arena[entry.q_tail as usize].next = h;
    }
    entry.q_tail = h;
    entry.q_len += 1;
    count_waiter_edges(entry, slots, s, true);
    let slot = &mut slots[s as usize];
    slot.wait = h;
    slot.wait_entry = e;
}
#[cfg(test)]
mod tests {
    use super::*;
    use LockMode::{Exclusive, Shared};

    fn o(n: u64) -> OwnerId {
        OwnerId(n)
    }
    fn l(n: u32) -> LockId {
        LockId(n)
    }

    #[test]
    fn exclusive_blocks_everyone() {
        let mut t = LockTable::new();
        assert_eq!(t.request(o(1), l(1), Exclusive), RequestOutcome::Granted);
        assert_eq!(t.request(o(2), l(1), Shared), RequestOutcome::Queued);
        assert_eq!(t.request(o(3), l(1), Exclusive), RequestOutcome::Queued);
        assert_eq!(t.grants_count(), 1);
        assert_eq!(t.waiter_count(), 2);
        t.check_invariants();
    }

    #[test]
    fn shared_holders_coexist() {
        let mut t = LockTable::new();
        assert_eq!(t.request(o(1), l(1), Shared), RequestOutcome::Granted);
        assert_eq!(t.request(o(2), l(1), Shared), RequestOutcome::Granted);
        assert_eq!(t.grants_count(), 2);
        t.check_invariants();
    }

    #[test]
    fn fifo_no_overtaking() {
        let mut t = LockTable::new();
        t.request(o(1), l(1), Shared);
        t.request(o(2), l(1), Exclusive); // queued
                                          // Compatible with holders, but must queue behind the exclusive waiter.
        assert_eq!(t.request(o(3), l(1), Shared), RequestOutcome::Queued);
        let grants = t.release_all(o(1));
        assert_eq!(grants.len(), 1);
        assert_eq!(grants[0].owner, o(2));
        let grants = t.release_all(o(2));
        assert_eq!(grants.len(), 1);
        assert_eq!(grants[0].owner, o(3));
        t.check_invariants();
    }

    #[test]
    fn release_grants_batch_of_shared() {
        let mut t = LockTable::new();
        t.request(o(1), l(1), Exclusive);
        t.request(o(2), l(1), Shared);
        t.request(o(3), l(1), Shared);
        let grants = t.release_all(o(1));
        assert_eq!(grants.len(), 2);
        assert!(grants.iter().all(|g| g.mode == Shared));
        t.check_invariants();
    }

    #[test]
    fn already_held_is_idempotent() {
        let mut t = LockTable::new();
        t.request(o(1), l(1), Exclusive);
        assert_eq!(t.request(o(1), l(1), Shared), RequestOutcome::AlreadyHeld);
        assert_eq!(
            t.request(o(1), l(1), Exclusive),
            RequestOutcome::AlreadyHeld
        );
        assert_eq!(t.grants_count(), 1);
    }

    #[test]
    fn sole_holder_upgrade_is_immediate() {
        let mut t = LockTable::new();
        t.request(o(1), l(1), Shared);
        assert_eq!(t.request(o(1), l(1), Exclusive), RequestOutcome::Granted);
        assert!(t.holds(o(1), l(1), Exclusive));
        t.check_invariants();
    }

    #[test]
    fn contended_upgrade_waits_for_other_readers() {
        let mut t = LockTable::new();
        t.request(o(1), l(1), Shared);
        t.request(o(2), l(1), Shared);
        assert_eq!(t.request(o(1), l(1), Exclusive), RequestOutcome::Queued);
        let grants = t.release_all(o(2));
        assert_eq!(grants.len(), 1);
        assert_eq!(grants[0].owner, o(1));
        assert!(t.holds(o(1), l(1), Exclusive));
        t.check_invariants();
    }

    #[test]
    fn release_one_keeps_other_locks() {
        let mut t = LockTable::new();
        t.request(o(1), l(1), Exclusive);
        t.request(o(1), l(2), Exclusive);
        t.release_one(o(1), l(1));
        assert_eq!(t.held_locks(o(1)), vec![l(2)]);
        assert_eq!(t.grants_count(), 1);
        assert!(t.release_one(o(1), l(9)).is_empty());
        t.check_invariants();
    }

    #[test]
    fn cancel_wait_unblocks_queue() {
        let mut t = LockTable::new();
        t.request(o(1), l(1), Shared);
        t.request(o(2), l(1), Exclusive); // queued
        t.request(o(3), l(1), Shared); // queued behind 2
        let grants = t.cancel_wait(o(2));
        assert_eq!(grants.len(), 1);
        assert_eq!(grants[0].owner, o(3));
        assert_eq!(t.waiting_for(o(2)), None);
        t.check_invariants();
    }

    #[test]
    fn force_acquire_displaces_incompatible_holders() {
        let mut t = LockTable::new();
        t.request(o(1), l(1), Shared);
        t.request(o(2), l(1), Shared);
        let out = t.force_acquire(l(1), o(9), Exclusive);
        assert_eq!(out.displaced.len(), 2);
        assert!(t.holds(o(9), l(1), Exclusive));
        assert_eq!(t.held_locks(o(1)), Vec::<LockId>::new());
        assert_eq!(t.grants_count(), 1);
        t.check_invariants();
    }

    #[test]
    fn force_acquire_shared_keeps_shared_holders() {
        let mut t = LockTable::new();
        t.request(o(1), l(1), Shared);
        let out = t.force_acquire(l(1), o(9), Shared);
        assert!(out.displaced.is_empty());
        assert!(out.grants.is_empty());
        assert!(t.holds(o(1), l(1), Shared));
        assert!(t.holds(o(9), l(1), Shared));
        t.check_invariants();
    }

    #[test]
    fn force_acquire_on_free_lock() {
        let mut t = LockTable::new();
        let out = t.force_acquire(l(5), o(9), Exclusive);
        assert!(out.displaced.is_empty());
        assert!(t.holds(o(9), l(5), Exclusive));
        t.check_invariants();
    }

    #[test]
    fn waiters_stay_queued_behind_forced_holder() {
        let mut t = LockTable::new();
        t.request(o(1), l(1), Exclusive);
        t.request(o(2), l(1), Exclusive);
        let out = t.force_acquire(l(1), o(9), Exclusive);
        assert_eq!(out.displaced, vec![o(1)]);
        assert!(out.grants.is_empty());
        assert_eq!(t.waiting_for(o(2)), Some(l(1)));
        let grants = t.release_all(o(9));
        assert_eq!(grants.len(), 1);
        assert_eq!(grants[0].owner, o(2));
        t.check_invariants();
    }

    #[test]
    fn coherence_counts() {
        let mut t = LockTable::new();
        assert_eq!(t.coherence(l(1)), 0);
        t.incr_coherence(l(1));
        t.incr_coherence(l(1));
        assert_eq!(t.coherence(l(1)), 2);
        t.decr_coherence(l(1));
        assert_eq!(t.coherence(l(1)), 1);
        t.decr_coherence(l(1));
        assert_eq!(t.coherence(l(1)), 0);
    }

    #[test]
    #[should_panic(expected = "coherence")]
    fn coherence_underflow_panics() {
        let mut t = LockTable::new();
        t.incr_coherence(l(1));
        t.decr_coherence(l(1));
        t.decr_coherence(l(1));
    }

    #[test]
    fn two_party_deadlock_detected() {
        let mut t = LockTable::new();
        t.request(o(1), l(1), Exclusive);
        t.request(o(2), l(2), Exclusive);
        t.request(o(1), l(2), Exclusive); // 1 waits on 2
        assert!(!t.in_deadlock(o(1)));
        assert!(t.deadlock_cycle(o(1)).is_empty());
        t.request(o(2), l(1), Exclusive); // 2 waits on 1 -> cycle
        assert!(t.in_deadlock(o(2)));
        assert!(t.in_deadlock(o(1)));
        let cycle = t.deadlock_cycle(o(2));
        assert!(
            cycle.contains(&o(1)) && cycle.contains(&o(2)),
            "cycle = {cycle:?}"
        );
    }

    #[test]
    fn cycle_members_are_the_deadlock_participants() {
        // Three-party cycle plus a bystander waiting outside the cycle.
        let mut t = LockTable::new();
        t.request(o(1), l(1), Exclusive);
        t.request(o(2), l(2), Exclusive);
        t.request(o(3), l(3), Exclusive);
        t.request(o(9), l(9), Exclusive); // bystander holds l9
        t.request(o(1), l(2), Exclusive);
        t.request(o(2), l(3), Exclusive);
        t.request(o(3), l(1), Exclusive);
        let cycle = t.deadlock_cycle(o(3));
        let mut members: Vec<u64> = cycle.iter().map(|m| m.0).collect();
        members.sort_unstable();
        assert_eq!(members, vec![1, 2, 3]);
    }

    #[test]
    fn three_party_deadlock_detected() {
        let mut t = LockTable::new();
        t.request(o(1), l(1), Exclusive);
        t.request(o(2), l(2), Exclusive);
        t.request(o(3), l(3), Exclusive);
        t.request(o(1), l(2), Exclusive);
        t.request(o(2), l(3), Exclusive);
        assert!(!t.in_deadlock(o(2)));
        t.request(o(3), l(1), Exclusive);
        assert!(t.in_deadlock(o(3)));
    }

    #[test]
    fn waiter_on_waiter_edge_counts() {
        // o2 waits behind o3's earlier wait; o3 waits on o1's lock... build a
        // cycle through the waiter edge: o1 holds l1; o3 waits l1; o2 waits l1
        // behind o3; o3 waits only l1 (no cycle); o1 then waits on a lock o2
        // holds -> cycle o1 -> o2 -> (ahead waiter) o3? No: o2 -> o3 via queue
        // order, o3 -> o1 via holder, o1 -> o2 via holder. Cycle.
        let mut t = LockTable::new();
        t.request(o(1), l(1), Exclusive);
        t.request(o(2), l(9), Exclusive);
        t.request(o(3), l(1), Exclusive); // waits on o1
        t.request(o(2), l(1), Exclusive); // waits behind o3
        t.request(o(1), l(9), Exclusive); // o1 waits on o2
        assert!(t.in_deadlock(o(1)));
        assert!(t.in_deadlock(o(2)));
    }

    #[test]
    fn no_deadlock_for_simple_chain() {
        let mut t = LockTable::new();
        t.request(o(1), l(1), Exclusive);
        t.request(o(2), l(1), Exclusive);
        t.request(o(3), l(1), Exclusive);
        assert!(!t.in_deadlock(o(2)));
        assert!(!t.in_deadlock(o(3)));
    }

    #[test]
    #[should_panic(expected = "already waits")]
    fn double_wait_panics() {
        let mut t = LockTable::new();
        t.request(o(1), l(1), Exclusive);
        t.request(o(2), l(1), Exclusive);
        t.request(o(2), l(2), Exclusive);
    }

    #[test]
    fn owner_slots_are_recycled() {
        // A stream of short-lived owners with ever-growing ids reuses two
        // slots: the table is sized by the owners live at once, not by
        // the range of owner ids.
        let mut t = LockTable::new();
        for i in 0..1000u64 {
            t.request(o(i), l(1), Exclusive);
            t.request(o(i + 1_000_000), l(1), Exclusive); // queued
            t.check_invariants();
            t.release_all(o(i));
            t.release_all(o(i + 1_000_000));
        }
        assert_eq!(t.slots.len(), 2);
        assert!(t.slot_of.is_empty());
        t.check_invariants();
    }

    #[test]
    fn entry_slots_are_recycled() {
        // A stream of short-lived locks with ever-growing ids. Each one is
        // granted, queued on and released, and its coherence count is
        // acked during the next lock's turn, so two entries are live at
        // once: the entry array is sized by that, not by the lock ids.
        let mut t = LockTable::new();
        let lock = |i: u32| l(i * 4_096);
        for i in 0..1000u32 {
            t.request(o(1), lock(i), Exclusive);
            t.request(o(2), lock(i), Exclusive); // queued
            t.check_invariants();
            t.release_all(o(1));
            t.incr_coherence(lock(i));
            t.release_all(o(2));
            if i > 0 {
                t.decr_coherence(lock(i - 1));
            }
            t.check_invariants();
        }
        t.decr_coherence(lock(999));
        assert_eq!(t.entries.len(), 2);
        assert!(t.entry_of.is_empty());
        t.check_invariants();
    }

    #[test]
    fn probe_stamp_wraps_cleanly() {
        let mut t = LockTable::new();
        t.request(o(1), l(1), Exclusive);
        t.request(o(2), l(2), Exclusive);
        t.request(o(1), l(2), Exclusive);
        t.request(o(2), l(1), Exclusive);
        t.stamp.set(u32::MAX - 1);
        for _ in 0..4 {
            assert_eq!(t.deadlock_cycle(o(2)), vec![o(2), o(1)]);
        }
        // Each call takes two stamps: u32::MAX and 1, then 2 to 7.
        assert_eq!(t.stamp.get(), 7, "the stamp skips 0 when it wraps");
    }

    #[test]
    fn release_all_cancels_pending_wait() {
        let mut t = LockTable::new();
        t.request(o(1), l(1), Exclusive);
        t.request(o(2), l(2), Exclusive);
        t.request(o(2), l(1), Exclusive); // o2 waits
        let grants = t.release_all(o(2)); // abort o2: releases l2, cancels wait
        assert!(grants.is_empty());
        assert_eq!(t.waiting_for(o(2)), None);
        assert_eq!(t.held_locks(o(2)), Vec::<LockId>::new());
        t.check_invariants();
    }
}
