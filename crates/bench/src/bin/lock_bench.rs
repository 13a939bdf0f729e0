//! CLI: lock-table throughput, indexed implementation vs reference model.
//!
//! ```text
//! lock_bench [--smoke] [--out PATH]
//! ```
//!
//! Replays identical deterministic operation schedules through the
//! production [`LockTable`] (indexed wait-for graph, owner index,
//! arena-backed queues) and the scan-based
//! [`ReferenceLockTable`] — the
//! pre-rewrite semantics preserved verbatim as the differential-test
//! oracle — and reports ops/sec for each scenario:
//!
//! * `low/request_release_all` — uncontended: every owner cycles
//!   through private locks; no queues ever form.
//! * `high/request_release_all` — 64 owners churning over 8 hot locks,
//!   issuing requests and `release_all` exactly as the simulator does:
//!   every blocked request is followed by the deadlock verdict
//!   (`in_deadlock`) that `HybridSystem::break_deadlocks` asks for under
//!   the default victim rule, with the requester aborted when it is
//!   deadlocked. In the simulator a
//!   queued request *never* occurs without this probe, so this is the
//!   request/release throughput the event loop actually sees.
//! * `high/request_release_raw` — the same churn with the probes
//!   removed. This isolates the cost of eager wait-for edge
//!   maintenance: enqueueing behind a deep queue is O(queue) for the
//!   indexed table versus O(1) for the reference, the price paid to
//!   make every probe allocation-free. The speedup here is accordingly
//!   modest; it is the probe-inclusive number that reflects simulator
//!   throughput.
//! * `deadlock_scan_chain` — cycle detection over a standing 48-owner
//!   wait chain.
//!
//! `--smoke` runs each scenario briefly (CI wiring check, no JSON
//! output). The full run writes `BENCH_lock.json` (or `--out PATH`)
//! with ops/sec and speedups per scenario.

use std::fmt::Write as _;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use hls_lockmgr::model::ReferenceLockTable;
use hls_lockmgr::{LockId, LockMode, LockTable, OwnerId, RequestOutcome};

/// The common surface both implementations expose to the schedules.
trait Table: Default {
    fn request(&mut self, owner: OwnerId, lock: LockId, mode: LockMode) -> RequestOutcome;
    fn release_all(&mut self, owner: OwnerId) -> usize;
    fn in_deadlock(&self, owner: OwnerId) -> bool;
    fn deadlock_cycle(&self, owner: OwnerId) -> Vec<OwnerId>;
    fn waiter_count(&self) -> usize;
}

impl Table for LockTable {
    fn request(&mut self, owner: OwnerId, lock: LockId, mode: LockMode) -> RequestOutcome {
        LockTable::request(self, owner, lock, mode)
    }
    fn release_all(&mut self, owner: OwnerId) -> usize {
        LockTable::release_all(self, owner).len()
    }
    fn in_deadlock(&self, owner: OwnerId) -> bool {
        LockTable::in_deadlock(self, owner)
    }
    fn deadlock_cycle(&self, owner: OwnerId) -> Vec<OwnerId> {
        LockTable::deadlock_cycle(self, owner)
    }
    fn waiter_count(&self) -> usize {
        LockTable::waiter_count(self)
    }
}

impl Table for ReferenceLockTable {
    fn request(&mut self, owner: OwnerId, lock: LockId, mode: LockMode) -> RequestOutcome {
        ReferenceLockTable::request(self, owner, lock, mode)
    }
    fn release_all(&mut self, owner: OwnerId) -> usize {
        ReferenceLockTable::release_all(self, owner).len()
    }
    fn in_deadlock(&self, owner: OwnerId) -> bool {
        ReferenceLockTable::in_deadlock(self, owner)
    }
    fn deadlock_cycle(&self, owner: OwnerId) -> Vec<OwnerId> {
        ReferenceLockTable::deadlock_cycle(self, owner)
    }
    fn waiter_count(&self) -> usize {
        ReferenceLockTable::waiter_count(self)
    }
}

/// Uncontended churn: `n_owners` owners, each repeatedly taking 4
/// private locks and releasing them. Returns ops performed.
fn low_contention<T: Table>(table: &mut T, rounds: usize) -> u64 {
    const N_OWNERS: u64 = 64;
    let mut ops = 0u64;
    for r in 0..rounds {
        for owner in 0..N_OWNERS {
            let base = owner as u32 * 8;
            for k in 0..4u32 {
                let mode = if (r as u32 + k).is_multiple_of(3) {
                    LockMode::Shared
                } else {
                    LockMode::Exclusive
                };
                black_box(table.request(OwnerId(owner), LockId(base + k), mode));
                ops += 1;
            }
            black_box(table.release_all(OwnerId(owner)));
            ops += 1;
        }
    }
    ops
}

/// Contended churn over a long-lived table: 64 owners, 8 hot locks.
/// A waiting (or lock-saturated) owner releases everything when next
/// scheduled — the abort/commit pattern — so queues continuously build
/// and drain. `probe_deadlocks` adds the simulator's post-block
/// deadlock verdict. Deterministic: both implementations see the same schedule and
/// (by the differential suite) make the same decisions.
fn high_contention<T: Table>(table: &mut T, steps: usize, probe_deadlocks: bool) -> u64 {
    const N_OWNERS: u64 = 64;
    const N_LOCKS: u32 = 8;
    let mut waiting = [false; N_OWNERS as usize];
    let mut held = [0u32; N_OWNERS as usize];
    let mut ops = 0u64;
    for i in 0..steps {
        let owner = (i as u64).wrapping_mul(31) % N_OWNERS;
        let idx = owner as usize;
        if waiting[idx] || held[idx] >= 3 {
            black_box(table.release_all(OwnerId(owner)));
            waiting[idx] = false;
            held[idx] = 0;
        } else {
            let lock = ((i as u32).wrapping_mul(0x9E37) >> 7) & (N_LOCKS - 1);
            let mode = if i % 4 == 0 {
                LockMode::Shared
            } else {
                LockMode::Exclusive
            };
            match table.request(OwnerId(owner), LockId(lock), mode) {
                RequestOutcome::Queued => {
                    waiting[idx] = true;
                    if probe_deadlocks {
                        // Mirror `HybridSystem::break_deadlocks`: probe after
                        // every blocked request; on a cycle, abort the
                        // requester (the default victim policy).
                        if black_box(table.in_deadlock(OwnerId(owner))) {
                            black_box(table.release_all(OwnerId(owner)));
                            waiting[idx] = false;
                            held[idx] = 0;
                        }
                    }
                }
                RequestOutcome::Granted => held[idx] += 1,
                RequestOutcome::AlreadyHeld => {}
            }
        }
        ops += 1;
    }
    // Drain so repeated invocations start from the same state.
    for owner in 0..N_OWNERS {
        table.release_all(OwnerId(owner));
    }
    assert_eq!(table.waiter_count(), 0);
    ops
}

/// Cycle detection over a standing 48-owner exclusive wait chain whose
/// last owner closes the loop back to the first lock.
fn deadlock_scan<T: Table>(table: &mut T, rounds: usize) -> u64 {
    const N: u64 = 48;
    for i in 0..N {
        assert_eq!(
            table.request(OwnerId(i), LockId(i as u32), LockMode::Exclusive),
            RequestOutcome::Granted
        );
    }
    for i in 0..N - 1 {
        assert_eq!(
            table.request(OwnerId(i), LockId(i as u32 + 1), LockMode::Exclusive),
            RequestOutcome::Queued
        );
    }
    assert_eq!(
        table.request(OwnerId(N - 1), LockId(0), LockMode::Exclusive),
        RequestOutcome::Queued
    );
    let mut ops = 0u64;
    for _ in 0..rounds {
        for i in 0..N {
            black_box(table.deadlock_cycle(OwnerId(i)));
            ops += 1;
        }
    }
    for i in 0..N {
        table.release_all(OwnerId(i));
    }
    ops
}

/// Runs `f` on a fresh table until `target` wall-clock time accumulates;
/// returns ops/sec. The table is rebuilt per timed call so allocator
/// state carries over exactly as it does in a long simulation run.
fn measure<T: Table>(target: Duration, mut f: impl FnMut(&mut T) -> u64) -> f64 {
    let mut table = T::default();
    black_box(f(&mut table)); // warm-up
    let mut ops = 0u64;
    let mut elapsed = Duration::ZERO;
    while elapsed < target {
        let start = Instant::now();
        ops += black_box(f(&mut table));
        elapsed += start.elapsed();
    }
    ops as f64 / elapsed.as_secs_f64()
}

struct Scenario {
    name: &'static str,
    reference_ops_per_sec: f64,
    indexed_ops_per_sec: f64,
}

impl Scenario {
    fn speedup(&self) -> f64 {
        self.indexed_ops_per_sec / self.reference_ops_per_sec
    }
}

fn run_all(smoke: bool) -> Vec<Scenario> {
    let target = if smoke {
        Duration::from_millis(20)
    } else {
        Duration::from_millis(1500)
    };
    let (low_rounds, high_steps, scan_rounds) = if smoke {
        (4, 2_000, 4)
    } else {
        (16, 40_000, 40)
    };
    let run = |name: &'static str, reference: f64, indexed: f64| {
        println!(
            "{name:<32} reference {reference:>12.0} ops/s   indexed {indexed:>12.0} ops/s   {:>5.2}x",
            indexed / reference
        );
        Scenario {
            name,
            reference_ops_per_sec: reference,
            indexed_ops_per_sec: indexed,
        }
    };
    vec![
        run(
            "low/request_release_all",
            measure::<ReferenceLockTable>(target, |t| low_contention(t, low_rounds)),
            measure::<LockTable>(target, |t| low_contention(t, low_rounds)),
        ),
        run(
            "high/request_release_all",
            measure::<ReferenceLockTable>(target, |t| high_contention(t, high_steps, true)),
            measure::<LockTable>(target, |t| high_contention(t, high_steps, true)),
        ),
        run(
            "high/request_release_raw",
            measure::<ReferenceLockTable>(target, |t| high_contention(t, high_steps, false)),
            measure::<LockTable>(target, |t| high_contention(t, high_steps, false)),
        ),
        run(
            "deadlock_scan_chain",
            measure::<ReferenceLockTable>(target, |t| deadlock_scan(t, scan_rounds)),
            measure::<LockTable>(target, |t| deadlock_scan(t, scan_rounds)),
        ),
    ]
}

fn to_json(scenarios: &[Scenario], smoke: bool) -> String {
    let mut s = String::new();
    s.push_str("{\n  \"schema\": \"hls-bench/lock\",\n  \"version\": 1,\n");
    let _ = writeln!(
        s,
        "  \"mode\": \"{}\",",
        if smoke { "smoke" } else { "full" }
    );
    s.push_str("  \"scenarios\": [\n");
    for (i, sc) in scenarios.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"name\": \"{}\", \"reference_ops_per_sec\": {:.0}, \"indexed_ops_per_sec\": {:.0}, \"speedup\": {:.2}}}",
            sc.name, sc.reference_ops_per_sec, sc.indexed_ops_per_sec, sc.speedup()
        );
        s.push_str(if i + 1 < scenarios.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut out = String::from("BENCH_lock.json");
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => smoke = true,
            "--out" => {
                i += 1;
                match args.get(i) {
                    Some(path) => out = path.clone(),
                    None => {
                        eprintln!("--out requires a path");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--help" | "-h" => {
                println!("lock_bench [--smoke] [--out PATH]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unexpected argument: {other}");
                return ExitCode::FAILURE;
            }
        }
        i += 1;
    }
    let scenarios = run_all(smoke);
    if smoke {
        println!("smoke run complete ({} scenarios)", scenarios.len());
        return ExitCode::SUCCESS;
    }
    match std::fs::write(&out, to_json(&scenarios, smoke)) {
        Ok(()) => {
            println!("wrote {out}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("failed to write {out}: {e}");
            ExitCode::FAILURE
        }
    }
}
