//! The lock table: concurrency field, coherence field, FIFO wait queues.
//!
//! This is the indexed implementation. Every transaction that holds or
//! waits for a lock is interned into a dense per-table **owner slot**, and
//! the structures the simulator's hot operations touch are addressed by
//! slot or by arena handle, so they never scan the whole table:
//!
//! 1. **Owner slots.** One map takes an [`OwnerId`] to its slot; the slot
//!    holds the owner's wait handle, its held locks in acquisition order
//!    (backing [`LockTable::release_all`], [`LockTable::held_locks`] and
//!    victim selection), a count of holder edges into it, and the
//!    deadlock probe's mark. A slot is recycled, with its held-list
//!    allocation, once its owner neither holds nor waits, so the slot
//!    array is sized by the owners live at once, not by the range of
//!    owner ids.
//! 2. **An explicit wait-for graph.** Every queued waiter carries its
//!    ordered list of blocking owners' slots (the holders of the lock it
//!    waits for, then the waiters ahead of it), updated on grant,
//!    enqueue, release, displacement and cancellation.
//! 3. **Arena-backed waiter queues.** Wait-queue nodes live in one shared
//!    `Vec` arena addressed by stable `u32` handles with free-list reuse,
//!    and a waiter's node (hence its wait-for edges) is one array read
//!    from its slot.
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
//!   victim rules that choose among them. It asks for the verdict first
//!   and only on a yes searches the full graph depth-first, queue edges
//!   included, in the reference model's order.
//!
//! Both mark slots with per-probe stamps, so a hop reads arrays and
//! hashes nothing.
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
/// doubly-linked FIFO per lock entry and carry the waiter's outgoing
/// wait-for edges.
#[derive(Debug, Clone)]
struct WaiterNode {
    /// Slot of the waiting owner.
    slot: u32,
    mode: LockMode,
    lock: LockId,
    prev: u32,
    next: u32,
    /// Outgoing wait-for edges as owner slots, ordered exactly as the
    /// reference model derives them: current holders of `lock` (minus
    /// the waiter) in holder order, then the waiters ahead of this node
    /// in queue order. An owner that both holds the lock and waits ahead
    /// (a queued upgrade) appears once per role.
    blockers: Vec<u32>,
    /// Length of the holders-section prefix of `blockers`.
    n_holder: u32,
}

#[derive(Debug, Clone)]
struct LockEntry {
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

impl Default for LockEntry {
    fn default() -> Self {
        LockEntry {
            holders: Vec::new(),
            q_head: NIL,
            q_tail: NIL,
            q_len: 0,
            coherence: 0,
        }
    }
}

impl LockEntry {
    fn is_empty(&self) -> bool {
        self.holders.is_empty() && self.q_len == 0 && self.coherence == 0
    }

    fn compatible(&self, mode: LockMode) -> bool {
        self.holders.iter().all(|&(_, m)| mode.compatible_with(m))
    }
}

/// Takes a node from the free list (recycling its edge-list allocation)
/// or grows the arena.
fn alloc_node(
    arena: &mut Vec<WaiterNode>,
    free: &mut Vec<u32>,
    slot: u32,
    lock: LockId,
    mode: LockMode,
) -> u32 {
    if let Some(h) = free.pop() {
        let node = &mut arena[h as usize];
        node.slot = slot;
        node.lock = lock;
        node.mode = mode;
        node.prev = NIL;
        node.next = NIL;
        node.blockers.clear();
        node.n_holder = 0;
        h
    } else {
        assert!(arena.len() < NIL as usize, "waiter arena exhausted");
        arena.push(WaiterNode {
            slot,
            mode,
            lock,
            prev: NIL,
            next: NIL,
            blockers: Vec::new(),
            n_holder: 0,
        });
        (arena.len() - 1) as u32
    }
}

/// Unlinks node `h` from `entry`'s queue (does not free it).
fn unlink(entry: &mut LockEntry, arena: &mut [WaiterNode], h: u32) {
    let (prev, next) = {
        let node = &arena[h as usize];
        (node.prev, node.next)
    };
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

/// Removes the holder edge to `removed` from every waiter of `entry`
/// (except `removed` itself, which never lists itself as a blocker).
fn remove_holder_edges(
    entry: &LockEntry,
    arena: &mut [WaiterNode],
    slots: &mut [OwnerSlot],
    removed: u32,
) {
    let mut cur = entry.q_head;
    while cur != NIL {
        let node = &mut arena[cur as usize];
        if node.slot != removed {
            let nh = node.n_holder as usize;
            let pos = node.blockers[..nh]
                .iter()
                .position(|&b| b == removed)
                .expect("wait-for graph desync: missing holder edge");
            node.blockers.remove(pos);
            node.n_holder -= 1;
            slots[removed as usize].holder_in -= 1;
        }
        cur = node.next;
    }
}

/// Adds a holder edge to `added` (appended to the holders section, which
/// mirrors `added` being pushed onto `entry.holders`) for every waiter
/// except `added` itself.
fn insert_holder_edges(
    entry: &LockEntry,
    arena: &mut [WaiterNode],
    slots: &mut [OwnerSlot],
    added: u32,
) {
    let mut cur = entry.q_head;
    while cur != NIL {
        let node = &mut arena[cur as usize];
        if node.slot != added {
            let nh = node.n_holder as usize;
            node.blockers.insert(nh, added);
            node.n_holder += 1;
            slots[added as usize].holder_in += 1;
        }
        cur = node.next;
    }
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
/// slot holding its wait handle, held locks, incoming holder-edge count
/// and probe stamp. Wait-for edges and entry holders store slots, and
/// waiter queues live in an arena addressed by stable `u32` handles, so
/// a deadlock probe hashes only the probed owner's id. A slot returns to
/// a free list once its owner neither holds nor waits. The scan-based
/// semantics these indexes replace live on as
/// [`crate::model::ReferenceLockTable`], the differential-testing oracle.
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
    entries: FxMap<LockId, LockEntry>,
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
    /// [`LockTable::deadlock_cycle`]: (arena handle of a visited waiter,
    /// edges still to try). Interior mutability keeps the probe `&self`
    /// and allocation-free; nothing survives across calls.
    frames: RefCell<Vec<(u32, u32)>>,
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
        let LockTable {
            entries,
            slots,
            arena,
            free,
            grants,
            ..
        } = self;
        let entry = entries.entry(lock).or_default();

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
            enqueue(entry, arena, free, slots, s, lock, LockMode::Exclusive);
            return RequestOutcome::Queued;
        }

        // FIFO fairness: a new request queues behind existing waiters even
        // if it would be compatible with the current holders.
        if entry.q_len == 0 && entry.compatible(mode) {
            entry.holders.push((s, mode));
            slots[s as usize].held.push(lock);
            *grants += 1;
            RequestOutcome::Granted
        } else {
            enqueue(entry, arena, free, slots, s, lock, mode);
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
        let lock = {
            let LockTable {
                entries,
                slots,
                arena,
                free,
                ..
            } = self;
            let h = std::mem::replace(&mut slots[s as usize].wait, NIL);
            if h == NIL {
                return;
            }
            let lock = arena[h as usize].lock;
            let entry = entries.get_mut(&lock).expect("waiting on unknown lock");
            // The cancelled node's holder edges go with it.
            let node = &arena[h as usize];
            for &b in &node.blockers[..node.n_holder as usize] {
                slots[b as usize].holder_in -= 1;
            }
            // Waiters behind the cancelled node lose their queue edge to
            // `s` (a holder edge, if any, survives).
            let mut cur = node.next;
            while cur != NIL {
                let node = &mut arena[cur as usize];
                let nh = node.n_holder as usize;
                let pos = node.blockers[nh..]
                    .iter()
                    .position(|&b| b == s)
                    .expect("wait-for graph desync: missing queue edge")
                    + nh;
                node.blockers.remove(pos);
                cur = node.next;
            }
            unlink(entry, arena, h);
            free.push(h);
            lock
        };
        self.promote_waiters(lock, grants);
        self.drop_if_empty(lock);
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
        let displaced = {
            let LockTable {
                entries,
                slots,
                arena,
                grants,
                ..
            } = self;
            let entry = entries.entry(lock).or_default();
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
            // Incompatible holders are displaced: they lose their holder
            // edges and the lock.
            let mut displaced = Vec::new();
            for &(d, m) in &entry.holders {
                if d != s && !mode.compatible_with(m) {
                    remove_holder_edges(entry, arena, slots, d);
                    let held = &mut slots[d as usize].held;
                    let pos = held
                        .iter()
                        .position(|&l| l == lock)
                        .expect("held set desync");
                    held.remove(pos);
                    *grants -= 1;
                    displaced.push(slots[d as usize].owner);
                }
            }
            // `owner` is re-appended in the strongest mode, so its holder
            // edge moves (or is added) to the end of each waiter's
            // holders section.
            entry
                .holders
                .retain(|&(o, m)| o != s && mode.compatible_with(m));
            entry.holders.push((s, mode));
            if prior_mode.is_some() {
                remove_holder_edges(entry, arena, slots, s);
            }
            insert_holder_edges(entry, arena, slots, s);
            if prior_mode.is_none() {
                slots[s as usize].held.push(lock);
                *grants += 1;
            }
            displaced
        };
        let mut grants = Vec::new();
        self.promote_waiters(lock, &mut grants);
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
        self.entries.entry(lock).or_default().coherence += 1;
    }

    /// Decrements the coherence count of `lock` (the central site
    /// acknowledged one asynchronous update).
    ///
    /// # Panics
    ///
    /// Panics if the count is already zero — an acknowledgement without a
    /// matching update indicates a protocol bug.
    pub fn decr_coherence(&mut self, lock: LockId) {
        let entry = self
            .entries
            .get_mut(&lock)
            .expect("coherence ack for unknown lock");
        assert!(entry.coherence > 0, "coherence underflow on {lock}");
        entry.coherence -= 1;
        self.drop_if_empty(lock);
    }

    /// Current coherence count of `lock`.
    #[must_use]
    pub fn coherence(&self, lock: LockId) -> u32 {
        self.entries.get(&lock).map_or(0, |e| e.coherence)
    }

    /// Current holders of `lock` with their modes.
    #[must_use]
    pub fn holders(&self, lock: LockId) -> Vec<(OwnerId, LockMode)> {
        self.entries.get(&lock).map_or_else(Vec::new, |e| {
            e.holders
                .iter()
                .map(|&(s, m)| (self.slots[s as usize].owner, m))
                .collect()
        })
    }

    /// Returns `true` if `owner` holds `lock` in a mode covering `mode`.
    #[must_use]
    pub fn holds(&self, owner: OwnerId, lock: LockId, mode: LockMode) -> bool {
        let (Some(&s), Some(e)) = (self.slot_of.get(&owner), self.entries.get(&lock)) else {
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
            .map(|s| self.arena[s.wait as usize].lock)
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
        let node = &self.arena[r.wait as usize];
        if node.prev != NIL && r.held.contains(&node.lock) {
            return true;
        }
        // Two fresh stamps: `back` marks the owners whose edge leads back
        // into `owner` (itself and the waiters queued behind it), `seen`
        // the waiters the walk has entered.
        let back = self.next_stamp();
        let seen = self.next_stamp();
        r.visit.set(back);
        let mut cur = node.next;
        while cur != NIL {
            let behind = &self.arena[cur as usize];
            self.slots[behind.slot as usize].visit.set(back);
            cur = behind.next;
        }
        // Frames as in `deadlock_cycle`, counting holder edges only.
        let mut frames = self.frames.borrow_mut();
        frames.clear();
        frames.push((r.wait, node.n_holder));
        while let Some((h, left)) = frames.last_mut() {
            if *left == 0 {
                frames.pop();
                continue;
            }
            *left -= 1;
            let b = &self.slots[self.arena[*h as usize].blockers[*left as usize] as usize];
            let mark = b.visit.get();
            if mark == back {
                return true;
            }
            // A blocker that holds but does not wait has no edges.
            if mark != seen && b.wait != NIL {
                b.visit.set(seen);
                frames.push((b.wait, self.arena[b.wait as usize].n_holder));
            }
        }
        false
    }

    /// Returns the members of a wait-for cycle through `owner` (the victim
    /// candidates), or an empty vector if `owner` is not deadlocked.
    ///
    /// Takes the same early exit as [`LockTable::in_deadlock`] when no
    /// wait-for edge enters `owner`. Otherwise the cycle is found by
    /// depth-first search from `owner` along the pre-built wait-for
    /// edges, queue edges included; the search is exact, so it returns
    /// empty when there is no cycle. Every returned member is currently
    /// waiting (or is `owner` itself, which is about to wait). The search
    /// visits the blockers of each owner last-first, as the reference
    /// model's stack does, so the reported cycle — members and order,
    /// which victim selection depends on — is identical to the reference
    /// model's.
    #[must_use]
    pub fn deadlock_cycle(&self, owner: OwnerId) -> Vec<OwnerId> {
        let Some(root) = self.probe_root(owner) else {
            return Vec::new();
        };
        let r = &self.slots[root as usize];
        let stamp = self.next_stamp();
        // The frames hold the path from `owner` to the current waiter,
        // each with the number of its blockers not yet tried. The buffer
        // is table-owned scratch: the probe runs after every blocked
        // request on the simulator's hot path and must not allocate.
        let mut frames = self.frames.borrow_mut();
        frames.clear();
        let mut h = r.wait;
        r.visit.set(stamp);
        loop {
            let blockers = &self.arena[h as usize].blockers;
            if blockers.contains(&root) {
                return frames
                    .iter()
                    .map(|&(f, _)| f)
                    .chain(std::iter::once(h))
                    .map(|f| self.slots[self.arena[f as usize].slot as usize].owner)
                    .collect();
            }
            frames.push((h, blockers.len() as u32));
            // Descend into the next blocker that waits and is not yet
            // visited, backtracking out of exhausted frames. Blockers
            // that hold but do not wait have no edges to follow.
            h = loop {
                let Some((f, left)) = frames.last_mut() else {
                    return Vec::new();
                };
                if *left == 0 {
                    frames.pop();
                    continue;
                }
                *left -= 1;
                let b = &self.slots[self.arena[*f as usize].blockers[*left as usize] as usize];
                if b.wait != NIL && b.visit.get() != stamp {
                    b.visit.set(stamp);
                    break b.wait;
                }
            };
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
        {
            let LockTable {
                entries,
                slots,
                arena,
                ..
            } = self;
            let Some(entry) = entries.get_mut(&lock) else {
                return;
            };
            let Some(pos) = entry.holders.iter().position(|&(o, _)| o == s) else {
                return;
            };
            entry.holders.remove(pos);
            self.grants -= 1;
            remove_holder_edges(entry, arena, slots, s);
        }
        self.promote_waiters(lock, grants);
        self.drop_if_empty(lock);
    }

    /// Grants queued waiters FIFO while the head of the queue is compatible
    /// with the current holders (no overtaking, to avoid starvation).
    fn promote_waiters(&mut self, lock: LockId, grants: &mut Vec<Grant>) {
        let LockTable {
            entries,
            slots,
            arena,
            free,
            grants: grant_count,
            ..
        } = self;
        let entry = entries.get_mut(&lock).expect("promote on unknown lock");
        loop {
            let head = entry.q_head;
            if head == NIL {
                break;
            }
            let (s, mode) = {
                let node = &arena[head as usize];
                (node.slot, node.mode)
            };
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
            // At the head of the queue every edge is a holder edge; they
            // go with the node.
            for &b in &arena[head as usize].blockers {
                slots[b as usize].holder_in -= 1;
            }
            if is_upgrade {
                let h = entry
                    .holders
                    .iter_mut()
                    .find(|(o, _)| *o == s)
                    .expect("upgrade holder vanished");
                h.1 = LockMode::Exclusive;
                // Remaining waiters drop their queue edge to `s` (it was
                // first in their queue section); the holder edge stays.
                let mut cur = entry.q_head;
                while cur != NIL {
                    let node = &mut arena[cur as usize];
                    let nh = node.n_holder as usize;
                    debug_assert_eq!(node.blockers[nh], s, "queue-edge order desync");
                    node.blockers.remove(nh);
                    cur = node.next;
                }
            } else {
                entry.holders.push((s, mode));
                slots[s as usize].held.push(lock);
                *grant_count += 1;
                // For every remaining waiter, `s` was the first entry of
                // its queue section and is now the last holder — the same
                // position, so only the section boundary moves, and the
                // queue edge becomes a holder edge.
                let mut cur = entry.q_head;
                while cur != NIL {
                    let node = &mut arena[cur as usize];
                    debug_assert_eq!(
                        node.blockers[node.n_holder as usize], s,
                        "queue-edge order desync"
                    );
                    node.n_holder += 1;
                    slots[s as usize].holder_in += 1;
                    cur = node.next;
                }
            }
            let slot = &mut slots[s as usize];
            slot.wait = NIL;
            free.push(head);
            grants.push(Grant {
                lock,
                owner: slot.owner,
                mode,
            });
        }
    }

    fn drop_if_empty(&mut self, lock: LockId) {
        if self.entries.get(&lock).is_some_and(LockEntry::is_empty) {
            self.entries.remove(&lock);
        }
    }

    /// Checks internal invariants, including the cross-consistency of
    /// every index: wait-for edges ↔ waiter queues, slot records ↔ entry
    /// holders and queues, the owner map ↔ live slots, and arena and slot
    /// accounting; used by tests.
    ///
    /// # Panics
    ///
    /// Panics if any invariant is violated.
    pub fn check_invariants(&self) {
        let mut total = 0;
        let mut queue_total = 0usize;
        // Holder edges into each slot, rebuilt from the queues.
        let mut holder_in = vec![0u32; self.slots.len()];
        for (lock, entry) in &self.entries {
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
            // and each waiter's wait-for edges rebuilt from scratch.
            let mut cur = entry.q_head;
            let mut prev = NIL;
            let mut seen = 0u32;
            let mut ahead: Vec<u32> = Vec::new();
            while cur != NIL {
                let node = &self.arena[cur as usize];
                let owner = self.slots[node.slot as usize].owner;
                assert_eq!(node.lock, *lock, "queued node points at wrong lock");
                assert_eq!(node.prev, prev, "queue prev link broken on {lock}");
                assert_eq!(
                    self.slots[node.slot as usize].wait, cur,
                    "waiter {owner} not registered in its slot"
                );
                let mut expect: Vec<u32> = entry
                    .holders
                    .iter()
                    .map(|&(h, _)| h)
                    .filter(|&h| h != node.slot)
                    .collect();
                for &h in &expect {
                    holder_in[h as usize] += 1;
                }
                let expect_holders = expect.len();
                expect.extend(ahead.iter().copied());
                assert_eq!(
                    node.n_holder as usize, expect_holders,
                    "holders-section length desync for {owner} on {lock}"
                );
                assert_eq!(
                    node.blockers, expect,
                    "wait-for edges desync for {owner} on {lock}"
                );
                ahead.push(node.slot);
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
                    self.entries
                        .get(l)
                        .is_some_and(|e| e.holders.iter().any(|&(o, _)| o == s)),
                    "slot of {owner} lists {l}, which it does not hold"
                );
            }
            held_total += slot.held.len();
            if slot.wait != NIL {
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

/// Links a fresh waiter node for slot `s` at the tail of `entry`'s queue,
/// building its wait-for edges (holders first, then the waiters ahead of
/// it).
fn enqueue(
    entry: &mut LockEntry,
    arena: &mut Vec<WaiterNode>,
    free: &mut Vec<u32>,
    slots: &mut [OwnerSlot],
    s: u32,
    lock: LockId,
    mode: LockMode,
) {
    let h = alloc_node(arena, free, s, lock, mode);
    // Build the edge list in a detached buffer (reusing the recycled
    // node's allocation) so the arena can be read while filling it.
    let mut blockers = std::mem::take(&mut arena[h as usize].blockers);
    for &(holder, _) in &entry.holders {
        if holder != s {
            blockers.push(holder);
            slots[holder as usize].holder_in += 1;
        }
    }
    let n_holder = blockers.len() as u32;
    let mut cur = entry.q_head;
    while cur != NIL {
        let node = &arena[cur as usize];
        blockers.push(node.slot);
        cur = node.next;
    }
    {
        let node = &mut arena[h as usize];
        node.blockers = blockers;
        node.n_holder = n_holder;
        node.prev = entry.q_tail;
        node.next = NIL;
    }
    if entry.q_tail == NIL {
        entry.q_head = h;
    } else {
        arena[entry.q_tail as usize].next = h;
    }
    entry.q_tail = h;
    entry.q_len += 1;
    slots[s as usize].wait = h;
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
        // Each call takes one stamp, for the search: u32::MAX, then 1
        // to 3.
        assert_eq!(t.stamp.get(), 3, "the stamp skips 0 when it wraps");
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
