//! Known-value deadlock topologies, checked against **both** the indexed
//! [`LockTable`] and the scan-based [`model::ReferenceLockTable`].
//!
//! The differential suite proves the two implementations agree; these
//! tests pin what that agreed answer *is* for the canonical shapes —
//! a two-cycle, a three-cycle, two disjoint cycles, and a wait chain
//! with no cycle — so a future bug cannot slip through by breaking both
//! tables identically.
//!
//! A probe can only find a cycle by following a wait-for edge back into
//! the probed owner, so an owner with no incoming edge is never
//! deadlocked. Three tests sit on the boundaries of that rule: an owner
//! nobody waits on, and owners whose only incoming edge is a queue edge
//! from behind or a holder edge from ahead on the same lock.
//!
//! The last three tests pin the shapes a walk over holder edges alone
//! must get right: a cycle that returns through the second of two shared
//! holders while the first heads a long acyclic chain, a holder chain
//! that runs into a cycle among other owners, and a way back that meets
//! a waiter queued ahead of the probed owner on its own lock, which
//! closes a cycle only when that owner shares the lock.

use hls_lockmgr::model::ReferenceLockTable;
use hls_lockmgr::{LockId, LockMode, LockTable, OwnerId, RequestOutcome};

const X: LockMode = LockMode::Exclusive;

/// Drives the same exclusive request script through both tables,
/// asserting each request produces the same outcome, then hands both to
/// `verify`.
fn both(script: &[(u64, u32)], verify: impl Fn(&dyn Deadlocks)) {
    let script: Vec<(u64, u32, LockMode)> = script.iter().map(|&(o, l)| (o, l, X)).collect();
    both_moded(&script, verify);
}

/// [`both`] with an explicit mode per request.
fn both_moded(script: &[(u64, u32, LockMode)], verify: impl Fn(&dyn Deadlocks)) {
    let mut dut = LockTable::new();
    let mut oracle = ReferenceLockTable::new();
    for &(owner, lock, mode) in script {
        let a = dut.request(OwnerId(owner), LockId(lock), mode);
        let b = oracle.request(OwnerId(owner), LockId(lock), mode);
        assert_eq!(a, b, "request(T{owner}, L{lock}, {mode}) outcomes diverged");
        assert_ne!(
            a,
            RequestOutcome::AlreadyHeld,
            "script bug: duplicate request"
        );
    }
    dut.check_invariants();
    oracle.check_invariants();
    verify(&dut);
    verify(&oracle);
}

/// The observations these tests need, implemented by both tables.
trait Deadlocks {
    fn in_deadlock(&self, owner: OwnerId) -> bool;
    /// The reported cycle in search order, starting at `owner`.
    fn path(&self, owner: OwnerId) -> Vec<u64>;
    /// The reported cycle's members, sorted.
    fn cycle(&self, owner: OwnerId) -> Vec<u64> {
        let mut c = self.path(owner);
        c.sort_unstable();
        c
    }
}

impl Deadlocks for LockTable {
    fn in_deadlock(&self, owner: OwnerId) -> bool {
        LockTable::in_deadlock(self, owner)
    }
    fn path(&self, owner: OwnerId) -> Vec<u64> {
        self.deadlock_cycle(owner).iter().map(|o| o.0).collect()
    }
}

impl Deadlocks for ReferenceLockTable {
    fn in_deadlock(&self, owner: OwnerId) -> bool {
        ReferenceLockTable::in_deadlock(self, owner)
    }
    fn path(&self, owner: OwnerId) -> Vec<u64> {
        self.deadlock_cycle(owner).iter().map(|o| o.0).collect()
    }
}

#[test]
fn two_cycle_exact_membership() {
    // T1 holds L1 and waits for L2; T2 holds L2 and waits for L1.
    both(&[(1, 1), (2, 2), (1, 2), (2, 1)], |t| {
        assert!(t.in_deadlock(OwnerId(1)));
        assert!(t.in_deadlock(OwnerId(2)));
        assert_eq!(t.cycle(OwnerId(1)), vec![1, 2]);
        assert_eq!(t.cycle(OwnerId(2)), vec![1, 2]);
    });
}

#[test]
fn three_cycle_exact_membership() {
    // T1→T2→T3→T1 via locks L1, L2, L3.
    both(&[(1, 1), (2, 2), (3, 3), (1, 2), (2, 3), (3, 1)], |t| {
        for owner in 1..=3 {
            assert!(t.in_deadlock(OwnerId(owner)), "T{owner} should deadlock");
            assert_eq!(t.cycle(OwnerId(owner)), vec![1, 2, 3]);
        }
    });
}

#[test]
fn two_disjoint_cycles_do_not_bleed() {
    // Cycle A: T1↔T2 on L1/L2. Cycle B: T3↔T4 on L3/L4. Each owner's
    // reported cycle must contain only its own cycle's members.
    both(
        &[
            (1, 1),
            (2, 2),
            (3, 3),
            (4, 4),
            (1, 2),
            (2, 1),
            (3, 4),
            (4, 3),
        ],
        |t| {
            assert_eq!(t.cycle(OwnerId(1)), vec![1, 2]);
            assert_eq!(t.cycle(OwnerId(2)), vec![1, 2]);
            assert_eq!(t.cycle(OwnerId(3)), vec![3, 4]);
            assert_eq!(t.cycle(OwnerId(4)), vec![3, 4]);
        },
    );
}

#[test]
fn wait_chain_without_cycle_is_clean() {
    // T1 holds L1; T2 holds L2, waits for L1; T3 holds L3, waits for L2;
    // T4 waits for L3. A pure chain — nobody is deadlocked.
    both(&[(1, 1), (2, 2), (3, 3), (2, 1), (3, 2), (4, 3)], |t| {
        for owner in 1..=4 {
            assert!(
                !t.in_deadlock(OwnerId(owner)),
                "T{owner} falsely deadlocked"
            );
            assert_eq!(t.cycle(OwnerId(owner)), Vec::<u64>::new());
        }
    });
}

#[test]
fn cycle_through_shared_holders_found() {
    // T1 and T2 share L1. T1 requests L2 exclusively (held by T3);
    // T3 requests L1 exclusively — blocked by both shared holders.
    // T1→T3→{T1,T2}: cycle through the shared grant.
    let mut dut = LockTable::new();
    let mut oracle = ReferenceLockTable::new();
    for t in [&mut dut as &mut dyn Driver, &mut oracle as &mut dyn Driver] {
        assert_eq!(t.req(1, 1, LockMode::Shared), RequestOutcome::Granted);
        assert_eq!(t.req(2, 1, LockMode::Shared), RequestOutcome::Granted);
        assert_eq!(t.req(3, 2, X), RequestOutcome::Granted);
        assert_eq!(t.req(1, 2, X), RequestOutcome::Queued);
        assert_eq!(t.req(3, 1, X), RequestOutcome::Queued);
    }
    dut.check_invariants();
    oracle.check_invariants();
    let a: Vec<u64> = {
        let mut c: Vec<u64> = dut.deadlock_cycle(OwnerId(1)).iter().map(|o| o.0).collect();
        c.sort_unstable();
        c
    };
    let b: Vec<u64> = {
        let mut c: Vec<u64> = oracle
            .deadlock_cycle(OwnerId(1))
            .iter()
            .map(|o| o.0)
            .collect();
        c.sort_unstable();
        c
    };
    assert_eq!(a, vec![1, 3]);
    assert_eq!(b, vec![1, 3]);
    assert!(!dut.in_deadlock(OwnerId(2)));
    assert!(!oracle.in_deadlock(OwnerId(2)));
}

#[test]
fn owner_nobody_waits_on_is_clean_beside_a_cycle() {
    // T1↔T2 deadlock on L1/L2. T3 holds L3 and queues for L1 behind T2,
    // so its probe reaches the cycle, but no edge leads back to T3: it
    // is last in L1's queue and nobody waits for L3.
    both(&[(1, 1), (2, 2), (3, 3), (1, 2), (2, 1), (3, 1)], |t| {
        assert!(!t.in_deadlock(OwnerId(3)), "T3 falsely deadlocked");
        assert_eq!(t.path(OwnerId(3)), Vec::<u64>::new());
        assert_eq!(t.path(OwnerId(1)), vec![1, 2]);
        assert_eq!(t.path(OwnerId(2)), vec![2, 1]);
    });
}

#[test]
fn cycle_closed_only_by_a_waiter_behind_the_requester() {
    // T1 holds L1, T3 holds L2. T2 queues for L1 (held by T1), T3 queues
    // behind T2, then T1 queues for L2 (held by T3). T2 holds nothing,
    // so its one incoming edge is T3's queue edge from behind it:
    // T2 → T1 → T3 → T2.
    both(&[(1, 1), (3, 2), (2, 1), (3, 1), (1, 2)], |t| {
        assert!(t.in_deadlock(OwnerId(2)), "T2 should deadlock");
        assert_eq!(t.path(OwnerId(2)), vec![2, 1, 3]);
        assert_eq!(t.path(OwnerId(1)), vec![1, 3]);
        // The search takes the last blocker first: T2, queued ahead of T3.
        assert_eq!(t.path(OwnerId(3)), vec![3, 2, 1]);
    });
}

#[test]
fn queued_upgrade_closed_by_a_holder_edge_from_ahead() {
    // T1 and T2 share L1. T3 queues for L1 exclusively, then T1 queues
    // its upgrade behind T3. Nobody waits behind T1; its only incoming
    // edge is T3's holder edge, from ahead of it on the same lock.
    let s = LockMode::Shared;
    both_moded(&[(1, 1, s), (2, 1, s), (3, 1, X), (1, 1, X)], |t| {
        assert!(t.in_deadlock(OwnerId(1)), "T1 should deadlock");
        assert_eq!(t.path(OwnerId(1)), vec![1, 3]);
        assert_eq!(t.path(OwnerId(3)), vec![3, 1]);
        assert!(!t.in_deadlock(OwnerId(2)), "T2 holds and waits for nothing");
    });
}

#[test]
fn cycle_through_the_second_of_two_shared_holders() {
    // T2 and T3 share L1; T1 holds L2 and queues for L1 exclusively.
    // T2 heads an acyclic chain T2 → T10 → … → T15 (T15 only holds).
    // T3 waits for L2, held by T1, so the cycle is T1 → T3 → T1.
    let s = LockMode::Shared;
    let mut script = vec![(2, 1, s), (3, 1, s), (1, 2, X)];
    script.extend((10..=15).map(|o| (o, o as u32, X)));
    script.push((2, 10, X));
    script.extend((10..15).map(|o| (o, o as u32 + 1, X)));
    script.extend([(3, 2, X), (1, 1, X)]);
    both_moded(&script, |t| {
        assert!(t.in_deadlock(OwnerId(1)), "T1 should deadlock");
        assert_eq!(t.path(OwnerId(1)), vec![1, 3]);
        assert!(t.in_deadlock(OwnerId(3)), "T3 should deadlock");
        assert_eq!(t.path(OwnerId(3)), vec![3, 1]);
        for owner in [2, 10, 11, 12, 13, 14, 15] {
            assert!(
                !t.in_deadlock(OwnerId(owner)),
                "T{owner} falsely deadlocked"
            );
            assert_eq!(t.path(OwnerId(owner)), Vec::<u64>::new());
        }
    });
}

#[test]
fn holder_chain_into_a_foreign_cycle_is_clean() {
    // T3 and T4 deadlock on L3/L4. T2 holds L1 and queues for L3 behind
    // T4, T1 queues for L1 and T5 queues behind T1. T1's holders lead
    // into the T3↔T4 cycle, which never returns to T1: the walk must
    // stop at the owners it has seen instead of circling.
    both(
        &[
            (2, 1),
            (3, 3),
            (4, 4),
            (3, 4),
            (4, 3),
            (2, 3),
            (1, 1),
            (5, 1),
        ],
        |t| {
            for owner in [1, 2, 5] {
                assert!(
                    !t.in_deadlock(OwnerId(owner)),
                    "T{owner} falsely deadlocked"
                );
                assert_eq!(t.path(OwnerId(owner)), Vec::<u64>::new());
            }
            assert_eq!(t.path(OwnerId(3)), vec![3, 4]);
            assert_eq!(t.path(OwnerId(4)), vec![4, 3]);
        },
    );
}

#[test]
fn waiter_ahead_on_the_same_lock_closes_a_cycle_only_for_a_sharer() {
    // T2 holds L1 and T3 holds L2. T3 queues for L1, T1 queues behind
    // it, then T2 waits for L2: T2↔T3 deadlock. T4 queues behind T1 so
    // that an edge enters T1. T1's way back reaches T3, but T3 is ahead
    // of T1 in L1's queue and has no edge to T1.
    both(&[(2, 1), (3, 2), (3, 1), (1, 1), (2, 2), (4, 1)], |t| {
        assert!(!t.in_deadlock(OwnerId(1)), "T1 falsely deadlocked");
        assert_eq!(t.path(OwnerId(1)), Vec::<u64>::new());
        assert!(!t.in_deadlock(OwnerId(4)), "T4 falsely deadlocked");
        assert_eq!(t.path(OwnerId(2)), vec![2, 3]);
        assert_eq!(t.path(OwnerId(3)), vec![3, 2]);
    });
    // The same topology with T1 sharing L1 with T2: T3 now also waits
    // for T1, and T1's queued upgrade waits behind T3.
    let s = LockMode::Shared;
    let script = [
        (2, 1, s),
        (1, 1, s),
        (3, 2, X),
        (3, 1, X),
        (1, 1, X),
        (2, 2, X),
        (4, 1, X),
    ];
    both_moded(&script, |t| {
        assert!(t.in_deadlock(OwnerId(1)), "T1 should deadlock");
        assert_eq!(t.path(OwnerId(1)), vec![1, 3]);
        assert!(!t.in_deadlock(OwnerId(4)), "T4 falsely deadlocked");
        assert_eq!(t.path(OwnerId(2)), vec![2, 3]);
    });
}

/// Minimal request shim so the shared-holder test can script both tables.
trait Driver {
    fn req(&mut self, owner: u64, lock: u32, mode: LockMode) -> RequestOutcome;
}

impl Driver for LockTable {
    fn req(&mut self, owner: u64, lock: u32, mode: LockMode) -> RequestOutcome {
        self.request(OwnerId(owner), LockId(lock), mode)
    }
}

impl Driver for ReferenceLockTable {
    fn req(&mut self, owner: u64, lock: u32, mode: LockMode) -> RequestOutcome {
        self.request(OwnerId(owner), LockId(lock), mode)
    }
}
