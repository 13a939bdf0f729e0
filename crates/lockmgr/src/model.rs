//! The naive reference lock table: the differential-testing oracle.
//!
//! [`ReferenceLockTable`] preserves, **verbatim**, the scan-based
//! semantics the production [`LockTable`](crate::LockTable) had before the
//! indexed rewrite (ISSUE 4): per-entry holder vectors, `VecDeque` wait
//! queues, and a depth-first deadlock search that rebuilds each node's
//! blocker list on the fly. It is deliberately simple — every operation
//! re-derives state instead of maintaining indexes — so it serves as an
//! executable specification: the differential suite in
//! `tests/differential.rs` replays random operation sequences through
//! both tables and requires identical outcomes after every step.
//! EXPERIMENTS.md records the production table's speedups against it.
//!
//! Do **not** optimize this module. Its value is that it is too simple
//! to be wrong in the same way the indexed table could be.

use std::collections::{HashMap, VecDeque};

use crate::table::{ForceOutcome, Grant, RequestOutcome};
use crate::types::{LockId, LockMode, OwnerId};

#[derive(Debug, Clone, Default)]
struct LockEntry {
    /// Current holders with their modes. Multiple holders only in share mode.
    holders: Vec<(OwnerId, LockMode)>,
    /// FIFO queue of conflicting requests.
    waiters: VecDeque<(OwnerId, LockMode)>,
    /// The paper's coherence-control field.
    coherence: u32,
}

impl LockEntry {
    fn is_empty(&self) -> bool {
        self.holders.is_empty() && self.waiters.is_empty() && self.coherence == 0
    }

    fn compatible(&self, mode: LockMode) -> bool {
        self.holders.iter().all(|&(_, m)| mode.compatible_with(m))
    }
}

/// The scan-based reference implementation of the lock-table contract.
///
/// Same public surface as [`LockTable`](crate::LockTable) (minus the
/// profiling hooks), same semantics, none of the indexes.
///
/// # Examples
///
/// ```
/// use hls_lockmgr::model::ReferenceLockTable;
/// use hls_lockmgr::{LockId, LockMode, OwnerId, RequestOutcome};
///
/// let mut table = ReferenceLockTable::new();
/// assert_eq!(
///     table.request(OwnerId(1), LockId(7), LockMode::Exclusive),
///     RequestOutcome::Granted
/// );
/// ```
#[derive(Debug, Clone, Default)]
pub struct ReferenceLockTable {
    entries: HashMap<LockId, LockEntry>,
    /// Locks held per owner, in acquisition order.
    held: HashMap<OwnerId, Vec<LockId>>,
    /// The single lock each blocked owner is waiting for.
    waiting: HashMap<OwnerId, LockId>,
    /// Total number of (owner, lock) grants.
    grants: usize,
}

impl ReferenceLockTable {
    /// Creates an empty reference table.
    #[must_use]
    pub fn new() -> Self {
        ReferenceLockTable::default()
    }

    /// Requests `lock` in `mode` on behalf of `owner`.
    ///
    /// # Panics
    ///
    /// Panics if `owner` is already waiting for some lock.
    pub fn request(&mut self, owner: OwnerId, lock: LockId, mode: LockMode) -> RequestOutcome {
        assert!(
            !self.waiting.contains_key(&owner),
            "{owner} already waits for a lock and cannot issue another request"
        );
        let entry = self.entries.entry(lock).or_default();

        if let Some(pos) = entry.holders.iter().position(|&(o, _)| o == owner) {
            let held_mode = entry.holders[pos].1;
            if held_mode.covers(mode) {
                return RequestOutcome::AlreadyHeld;
            }
            // Upgrade shared -> exclusive.
            if entry.holders.len() == 1 {
                entry.holders[pos].1 = LockMode::Exclusive;
                return RequestOutcome::Granted;
            }
            entry.waiters.push_back((owner, LockMode::Exclusive));
            self.waiting.insert(owner, lock);
            return RequestOutcome::Queued;
        }

        // FIFO fairness: a new request queues behind existing waiters even
        // if it would be compatible with the current holders.
        if entry.waiters.is_empty() && entry.compatible(mode) {
            entry.holders.push((owner, mode));
            self.held.entry(owner).or_default().push(lock);
            self.grants += 1;
            RequestOutcome::Granted
        } else {
            entry.waiters.push_back((owner, mode));
            self.waiting.insert(owner, lock);
            RequestOutcome::Queued
        }
    }

    /// Releases every lock held by `owner` (and cancels any pending wait),
    /// returning the grants handed to unblocked waiters, in grant order.
    pub fn release_all(&mut self, owner: OwnerId) -> Vec<Grant> {
        let mut grants = self.cancel_wait(owner);
        let locks = self.held.remove(&owner).unwrap_or_default();
        for lock in locks {
            self.remove_holder(lock, owner, &mut grants);
        }
        grants
    }

    /// Releases a single lock held by `owner`, returning resulting grants.
    pub fn release_one(&mut self, owner: OwnerId, lock: LockId) -> Vec<Grant> {
        let Some(locks) = self.held.get_mut(&owner) else {
            return Vec::new();
        };
        let Some(pos) = locks.iter().position(|&l| l == lock) else {
            return Vec::new();
        };
        locks.remove(pos);
        if locks.is_empty() {
            self.held.remove(&owner);
        }
        let mut grants = Vec::new();
        self.remove_holder(lock, owner, &mut grants);
        grants
    }

    /// Removes `owner` from the wait queue it sits in, if any.
    pub fn cancel_wait(&mut self, owner: OwnerId) -> Vec<Grant> {
        let Some(lock) = self.waiting.remove(&owner) else {
            return Vec::new();
        };
        let entry = self
            .entries
            .get_mut(&lock)
            .expect("waiting on unknown lock");
        if let Some(pos) = entry.waiters.iter().position(|&(o, _)| o == owner) {
            entry.waiters.remove(pos);
        }
        let mut grants = Vec::new();
        self.promote_waiters(lock, &mut grants);
        self.drop_if_empty(lock);
        grants
    }

    /// Forcibly grants `lock` to `owner` in `mode`, removing every
    /// incompatible holder (the authentication-phase rule).
    pub fn force_acquire(&mut self, lock: LockId, owner: OwnerId, mode: LockMode) -> ForceOutcome {
        let entry = self.entries.entry(lock).or_default();
        let prior_mode = entry
            .holders
            .iter()
            .find(|&&(o, _)| o == owner)
            .map(|&(_, m)| m);
        // Re-acquisition keeps the strongest of the old and new modes.
        let mode = match prior_mode {
            Some(LockMode::Exclusive) => LockMode::Exclusive,
            _ => mode,
        };
        let mut displaced = Vec::new();
        let mut keep = Vec::new();
        for &(o, m) in &entry.holders {
            if o != owner && !mode.compatible_with(m) {
                displaced.push(o);
            } else if o != owner {
                keep.push((o, m));
            }
        }
        entry.holders = keep;
        entry.holders.push((owner, mode));
        for &o in &displaced {
            let locks = self.held.get_mut(&o).expect("holder has no held set");
            let pos = locks
                .iter()
                .position(|&l| l == lock)
                .expect("held set desync");
            locks.remove(pos);
            if locks.is_empty() {
                self.held.remove(&o);
            }
            self.grants -= 1;
        }
        if prior_mode.is_none() {
            self.held.entry(owner).or_default().push(lock);
            self.grants += 1;
        }
        let mut grants = Vec::new();
        self.promote_waiters(lock, &mut grants);
        ForceOutcome { displaced, grants }
    }

    /// Increments the coherence count of `lock`.
    pub fn incr_coherence(&mut self, lock: LockId) {
        self.entries.entry(lock).or_default().coherence += 1;
    }

    /// Decrements the coherence count of `lock`.
    ///
    /// # Panics
    ///
    /// Panics if the count is already zero.
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
        self.entries
            .get(&lock)
            .map_or_else(Vec::new, |e| e.holders.clone())
    }

    /// Returns `true` if `owner` holds `lock` in a mode covering `mode`.
    #[must_use]
    pub fn holds(&self, owner: OwnerId, lock: LockId, mode: LockMode) -> bool {
        self.entries
            .get(&lock)
            .is_some_and(|e| e.holders.iter().any(|&(o, m)| o == owner && m.covers(mode)))
    }

    /// Locks held by `owner`, in acquisition order.
    #[must_use]
    pub fn held_locks(&self, owner: OwnerId) -> Vec<LockId> {
        self.held.get(&owner).cloned().unwrap_or_default()
    }

    /// The lock `owner` currently waits for, if any.
    #[must_use]
    pub fn waiting_for(&self, owner: OwnerId) -> Option<LockId> {
        self.waiting.get(&owner).copied()
    }

    /// Total number of (owner, lock) grants in the table.
    #[must_use]
    pub fn grants_count(&self) -> usize {
        self.grants
    }

    /// Number of transactions blocked in wait queues.
    #[must_use]
    pub fn waiter_count(&self) -> usize {
        self.waiting.len()
    }

    /// Whether a wait-for cycle runs through `owner`.
    #[must_use]
    pub fn in_deadlock(&self, owner: OwnerId) -> bool {
        !self.deadlock_cycle(owner).is_empty()
    }

    /// Returns the members of a wait-for cycle through `owner`, or an
    /// empty vector if `owner` is not deadlocked — found by depth-first
    /// search along blocked-by edges, rebuilding each node's blockers from
    /// the raw entry on every visit.
    #[must_use]
    pub fn deadlock_cycle(&self, owner: OwnerId) -> Vec<OwnerId> {
        // Iterative DFS with an explicit path, so the cycle can be
        // reconstructed when we reach `owner` again.
        let mut visited = std::collections::HashSet::new();
        let mut path: Vec<OwnerId> = Vec::new();
        // Stack entries: (node, depth in path when pushed).
        let mut stack: Vec<(OwnerId, usize)> = vec![(owner, 0)];
        while let Some((o, depth)) = stack.pop() {
            path.truncate(depth);
            if o == owner && depth > 0 {
                return path;
            }
            if !visited.insert(o) {
                continue;
            }
            path.push(o);
            for blocker in self.blockers_of(o) {
                if blocker == owner && depth + 1 > 0 {
                    return path;
                }
                stack.push((blocker, depth + 1));
            }
        }
        Vec::new()
    }

    /// Transactions that directly block `o`: the holders of the lock it
    /// waits for plus earlier waiters in the same queue.
    fn blockers_of(&self, o: OwnerId) -> Vec<OwnerId> {
        let Some(&lock) = self.waiting.get(&o) else {
            return Vec::new();
        };
        let Some(entry) = self.entries.get(&lock) else {
            return Vec::new();
        };
        let mut out: Vec<OwnerId> = entry
            .holders
            .iter()
            .map(|&(h, _)| h)
            .filter(|&h| h != o)
            .collect();
        for &(w, _) in &entry.waiters {
            if w == o {
                break; // only waiters ahead of o block it
            }
            out.push(w);
        }
        out
    }

    fn remove_holder(&mut self, lock: LockId, owner: OwnerId, grants: &mut Vec<Grant>) {
        let Some(entry) = self.entries.get_mut(&lock) else {
            return;
        };
        let Some(pos) = entry.holders.iter().position(|&(o, _)| o == owner) else {
            return;
        };
        entry.holders.remove(pos);
        self.grants -= 1;
        self.promote_waiters(lock, grants);
        self.drop_if_empty(lock);
    }

    /// Grants queued waiters FIFO while the head of the queue is compatible
    /// with the current holders (no overtaking, to avoid starvation).
    fn promote_waiters(&mut self, lock: LockId, grants: &mut Vec<Grant>) {
        let entry = self
            .entries
            .get_mut(&lock)
            .expect("promote on unknown lock");
        while let Some(&(owner, mode)) = entry.waiters.front() {
            // An upgrade waiter already holds the lock in shared mode; it is
            // grantable when it is the sole remaining holder.
            let is_upgrade = entry.holders.iter().any(|&(o, _)| o == owner);
            let ok = if is_upgrade {
                entry.holders.len() == 1
            } else {
                entry.compatible(mode)
            };
            if !ok {
                break;
            }
            entry.waiters.pop_front();
            if is_upgrade {
                let h = entry
                    .holders
                    .iter_mut()
                    .find(|(o, _)| *o == owner)
                    .expect("upgrade holder vanished");
                h.1 = LockMode::Exclusive;
            } else {
                entry.holders.push((owner, mode));
                self.held.entry(owner).or_default().push(lock);
                self.grants += 1;
            }
            self.waiting.remove(&owner);
            grants.push(Grant { lock, owner, mode });
        }
    }

    fn drop_if_empty(&mut self, lock: LockId) {
        if self.entries.get(&lock).is_some_and(LockEntry::is_empty) {
            self.entries.remove(&lock);
        }
    }

    /// Checks internal invariants; used by tests.
    ///
    /// # Panics
    ///
    /// Panics if any invariant is violated.
    pub fn check_invariants(&self) {
        let mut total = 0;
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
            // Head waiter (if not an upgrade) must actually be blocked.
            if let Some(&(w, m)) = entry.waiters.front() {
                let is_upgrade = entry.holders.iter().any(|&(o, _)| o == w);
                if is_upgrade {
                    assert!(
                        entry.holders.len() > 1,
                        "grantable upgrade left queued on {lock}"
                    );
                } else {
                    assert!(
                        !entry.compatible(m),
                        "grantable waiter left queued on {lock}"
                    );
                }
            }
            total += entry.holders.len();
            for &(w, _) in &entry.waiters {
                assert_eq!(
                    self.waiting.get(&w),
                    Some(lock),
                    "waiter {w} not registered in waiting map"
                );
            }
        }
        assert_eq!(total, self.grants, "grants counter desync");
        let held_total: usize = self.held.values().map(Vec::len).sum();
        assert_eq!(held_total, self.grants, "held map desync");
    }
}
