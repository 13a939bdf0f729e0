//! Microbenchmarks of the lock manager.

use hls_bench::microbench::{bench, bench_with};
use hls_lockmgr::{LockId, LockMode, LockTable, OwnerId, RequestOutcome};
use std::hint::black_box;

fn bench_uncontended() {
    bench_with(
        "locks/request_release_100x10",
        LockTable::new,
        |mut table| {
            for owner in 0..100u64 {
                for k in 0..10u32 {
                    table.request(
                        OwnerId(owner),
                        LockId(owner as u32 * 10 + k),
                        LockMode::Exclusive,
                    );
                }
            }
            for owner in 0..100u64 {
                black_box(table.release_all(OwnerId(owner)));
            }
            table.grants_count()
        },
    );
}

fn bench_contended() {
    bench_with(
        "locks/contended_queue_churn",
        LockTable::new,
        |mut table| {
            // 50 owners all competing for 5 hot locks.
            for owner in 0..50u64 {
                table.request(
                    OwnerId(owner),
                    LockId(owner as u32 % 5),
                    LockMode::Exclusive,
                );
            }
            for owner in 0..50u64 {
                black_box(table.release_all(OwnerId(owner)));
            }
            table.waiter_count()
        },
    );
}

/// Request, probe and release as the event loop drives them: 64 owners
/// churn over 8 hot locks on a long-lived table. A waiting owner, or one
/// holding three locks, releases everything when next scheduled (the
/// abort/commit pattern), so queues keep building and draining. As in
/// `HybridSystem::break_deadlocks` under the default victim rule, every
/// queued request is followed by `in_deadlock`, and a deadlocked
/// requester runs `release_all`.
fn bench_hot_churn_probed() {
    const OWNERS: usize = 64;
    const LOCKS: u32 = 8;
    const STEPS: u32 = 40_000;
    let mut table = LockTable::new();
    bench("locks/hot_churn_64x8_probed", || {
        let mut waiting = [false; OWNERS];
        let mut held = [0u32; OWNERS];
        for i in 0..STEPS {
            let idx = (i as usize * 31) % OWNERS;
            let owner = OwnerId(idx as u64);
            if waiting[idx] || held[idx] >= 3 {
                black_box(table.release_all(owner));
                waiting[idx] = false;
                held[idx] = 0;
                continue;
            }
            let lock = LockId((i.wrapping_mul(0x9E37) >> 7) & (LOCKS - 1));
            let mode = if i % 4 == 0 {
                LockMode::Shared
            } else {
                LockMode::Exclusive
            };
            match table.request(owner, lock, mode) {
                RequestOutcome::Queued if table.in_deadlock(owner) => {
                    black_box(table.release_all(owner));
                    held[idx] = 0;
                }
                RequestOutcome::Queued => waiting[idx] = true,
                RequestOutcome::Granted => held[idx] += 1,
                RequestOutcome::AlreadyHeld => {}
            }
        }
        // Drain so every iteration starts from an empty table.
        for owner in 0..OWNERS as u64 {
            table.release_all(OwnerId(owner));
        }
        table.waiter_count()
    });
}

/// Mean wait-for cycle length on perfbench's `contended` workload.
const CYCLE: u64 = 85;

/// A table where owner `i` holds lock `i` and waits for lock `i - 1`,
/// for `i` in `1..n`: a wait chain ending at owner 0, which only holds.
fn wait_chain(n: u64) -> LockTable {
    let mut table = LockTable::new();
    for i in 0..n {
        table.request(OwnerId(i), LockId(i as u32), LockMode::Exclusive);
    }
    for i in 1..n {
        table.request(OwnerId(i), LockId(i as u32 - 1), LockMode::Exclusive);
    }
    table
}

fn bench_deadlock_check() {
    // Probes the tail of a 30-owner wait chain. Nobody waits on the tail
    // owner, so no wait-for edge enters it and the probe returns without
    // walking the chain: this times only that early exit.
    let chain = wait_chain(30);
    bench("locks/deadlock_check_chain", || {
        chain.in_deadlock(OwnerId(29))
    });

    // Walks the exit cannot skip. A closed cycle: owner 0 also waits, for
    // the last owner's lock, so the probe walks all 85 owners back to
    // the start.
    let mut cycle = wait_chain(CYCLE);
    cycle.request(OwnerId(0), LockId(CYCLE as u32 - 1), LockMode::Exclusive);
    bench("locks/deadlock_walk_closed_cycle_85", || {
        cycle.deadlock_cycle(OwnerId(0))
    });

    // An open chain probed from an owner with a waiter queued behind it:
    // the edge into the probed tail sends the probe down all 85 owners,
    // and it finds no way back. `in_deadlock` walks holder edges only, so
    // this times that walk, not the cycle search.
    let mut open = wait_chain(CYCLE);
    open.request(
        OwnerId(CYCLE),
        LockId(CYCLE as u32 - 2),
        LockMode::Exclusive,
    );
    bench("locks/deadlock_walk_open_chain_85", || {
        open.in_deadlock(OwnerId(CYCLE - 1))
    });

    // The shape measured on `contended`: a closed cycle of 30 holders
    // in which every lock also queues two extra waiters ahead of the
    // chain's own. The verdict walks the 30 holder edges; the search
    // also descends into the extra waiters of 29 locks and reports an
    // 88-member cycle.
    let queued = queued_cycle(30);
    let root = OwnerId(0);
    assert!(queued.in_deadlock(root), "the queued cycle must deadlock");
    assert_eq!(queued.deadlock_cycle(root).len(), 88);
    bench("locks/deadlock_verdict_queued_cycle_30", || {
        queued.in_deadlock(root)
    });
    bench("locks/deadlock_cycle_queued_cycle_30", || {
        queued.deadlock_cycle(root)
    });
}

/// A closed wait cycle over `n` locks, owner `i` holding lock `i` and
/// waiting for lock `i - 1` (owner 0 for lock `n - 1`), where each lock
/// first queues two extra waiters that hold nothing.
fn queued_cycle(n: u64) -> LockTable {
    let mut table = LockTable::new();
    for i in 0..n {
        table.request(OwnerId(i), LockId(i as u32), LockMode::Exclusive);
    }
    for i in 0..n {
        let lock = LockId(((i + n - 1) % n) as u32);
        for extra in [n + 2 * i, n + 2 * i + 1] {
            table.request(OwnerId(extra), lock, LockMode::Exclusive);
        }
        table.request(OwnerId(i), lock, LockMode::Exclusive);
    }
    table
}

fn bench_force_acquire() {
    bench_with(
        "locks/force_acquire_displace",
        || {
            let mut table = LockTable::new();
            for i in 0..10u64 {
                table.request(OwnerId(i), LockId(i as u32), LockMode::Exclusive);
            }
            table
        },
        |mut table| {
            for i in 0..10u32 {
                black_box(table.force_acquire(LockId(i), OwnerId(1000), LockMode::Exclusive));
            }
            table
        },
    );
}

fn main() {
    bench_uncontended();
    bench_contended();
    bench_hot_churn_probed();
    bench_deadlock_check();
    bench_force_acquire();
}
