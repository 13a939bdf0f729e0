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
//! deadlocked. The last three tests sit on the boundaries of that rule:
//! an owner nobody waits on, and owners whose only incoming edge is a
//! queue edge from behind or a holder edge from ahead on the same lock.

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
