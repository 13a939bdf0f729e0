//! Randomized (seeded, deterministic) tests for the lock table invariants.

use std::collections::HashSet;

use hls_lockmgr::{LockId, LockMode, LockTable, OwnerId, RequestOutcome};
use hls_sim::SimRng;

/// A random operation on the lock table.
#[derive(Debug, Clone)]
enum Op {
    Request {
        owner: u64,
        lock: u32,
        exclusive: bool,
    },
    ReleaseAll {
        owner: u64,
    },
    CancelWait {
        owner: u64,
    },
    ForceAcquire {
        owner: u64,
        lock: u32,
        exclusive: bool,
    },
    IncrCoherence {
        lock: u32,
    },
    DecrCoherence {
        lock: u32,
    },
}

fn random_op(rng: &mut SimRng) -> Op {
    match rng.random_range(0..6) {
        0 => Op::Request {
            owner: u64::from(rng.random_range(0..8)),
            lock: rng.random_range(0..16),
            exclusive: rng.random_range(0..2) == 0,
        },
        1 => Op::ReleaseAll {
            owner: u64::from(rng.random_range(0..8)),
        },
        2 => Op::CancelWait {
            owner: u64::from(rng.random_range(0..8)),
        },
        3 => Op::ForceAcquire {
            owner: u64::from(rng.random_range(8..12)),
            lock: rng.random_range(0..16),
            exclusive: rng.random_range(0..2) == 0,
        },
        4 => Op::IncrCoherence {
            lock: rng.random_range(0..16),
        },
        _ => Op::DecrCoherence {
            lock: rng.random_range(0..16),
        },
    }
}

fn mode(exclusive: bool) -> LockMode {
    if exclusive {
        LockMode::Exclusive
    } else {
        LockMode::Shared
    }
}

/// After any sequence of operations the table's internal invariants hold:
/// no incompatible co-holders, no grantable waiter stuck in a queue, and
/// the grant counters agree with the entry lists.
#[test]
fn invariants_hold_under_random_ops() {
    let mut rng = SimRng::seed_from_u64(0x10C0);
    for _ in 0..64 {
        let n_ops = rng.random_range(1..200) as usize;
        let ops: Vec<Op> = (0..n_ops).map(|_| random_op(&mut rng)).collect();
        let mut table = LockTable::new();
        let mut waiting: HashSet<u64> = HashSet::new();
        let mut coherence: Vec<i64> = vec![0; 16];
        for op in ops {
            match op {
                Op::Request {
                    owner,
                    lock,
                    exclusive,
                } => {
                    if waiting.contains(&owner) {
                        continue; // a blocked txn cannot issue requests
                    }
                    let out = table.request(OwnerId(owner), LockId(lock), mode(exclusive));
                    if out == RequestOutcome::Queued {
                        waiting.insert(owner);
                    }
                }
                Op::ReleaseAll { owner } => {
                    for g in table.release_all(OwnerId(owner)) {
                        waiting.remove(&g.owner.0);
                    }
                    waiting.remove(&owner);
                }
                Op::CancelWait { owner } => {
                    for g in table.cancel_wait(OwnerId(owner)) {
                        waiting.remove(&g.owner.0);
                    }
                    waiting.remove(&owner);
                }
                Op::ForceAcquire {
                    owner,
                    lock,
                    exclusive,
                } => {
                    let out = table.force_acquire(LockId(lock), OwnerId(owner), mode(exclusive));
                    for g in out.grants {
                        waiting.remove(&g.owner.0);
                    }
                }
                Op::IncrCoherence { lock } => {
                    table.incr_coherence(LockId(lock));
                    coherence[lock as usize] += 1;
                }
                Op::DecrCoherence { lock } => {
                    if coherence[lock as usize] > 0 {
                        table.decr_coherence(LockId(lock));
                        coherence[lock as usize] -= 1;
                    }
                }
            }
            table.check_invariants();
        }
        for (i, &c) in coherence.iter().enumerate() {
            assert_eq!(i64::from(table.coherence(LockId(i as u32))), c);
        }
    }
}

/// Releasing everything always empties the table of grants.
#[test]
fn full_release_drains_grants() {
    let mut rng = SimRng::seed_from_u64(0x10C1);
    for _ in 0..64 {
        let n = rng.random_range(1..50) as usize;
        let requests: Vec<(u64, u32, bool)> = (0..n)
            .map(|_| {
                (
                    u64::from(rng.random_range(0..6)),
                    rng.random_range(0..8),
                    rng.random_range(0..2) == 0,
                )
            })
            .collect();
        let mut table = LockTable::new();
        let mut blocked = HashSet::new();
        for (owner, lock, exclusive) in requests {
            if blocked.contains(&owner) {
                continue;
            }
            if table.request(OwnerId(owner), LockId(lock), mode(exclusive))
                == RequestOutcome::Queued
            {
                blocked.insert(owner);
            }
        }
        for owner in 0..6u64 {
            table.release_all(OwnerId(owner));
        }
        assert_eq!(table.grants_count(), 0);
        assert_eq!(table.waiter_count(), 0);
        table.check_invariants();
    }
}

/// A deadlock reported by `in_deadlock` always involves an actual cycle:
/// releasing every lock of any one participant clears it.
#[test]
fn deadlock_clears_after_victim_release() {
    let mut rng = SimRng::seed_from_u64(0x10C2);
    for _ in 0..64 {
        let n = rng.random_range(2..40) as usize;
        let requests: Vec<(u64, u32)> = (0..n)
            .map(|_| (u64::from(rng.random_range(0..5)), rng.random_range(0..5)))
            .collect();
        let mut table = LockTable::new();
        let mut blocked: HashSet<u64> = HashSet::new();
        for (owner, lock) in requests {
            if blocked.contains(&owner) {
                continue;
            }
            let out = table.request(OwnerId(owner), LockId(lock), LockMode::Exclusive);
            if out == RequestOutcome::Queued {
                blocked.insert(owner);
                if table.in_deadlock(OwnerId(owner)) {
                    // Abort the requester: release all its locks and wait.
                    for g in table.release_all(OwnerId(owner)) {
                        blocked.remove(&g.owner.0);
                    }
                    blocked.remove(&owner);
                    assert!(!table.in_deadlock(OwnerId(owner)));
                }
            }
            table.check_invariants();
        }
    }
}
