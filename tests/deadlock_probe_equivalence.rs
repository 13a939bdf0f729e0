//! Pinned whole-run digests of a deep-deadlock cell under every
//! [`DeadlockVictim`] rule.
//!
//! The simulator probes for a wait-for cycle after every blocked lock
//! request, and the Youngest and FewestLocks rules pick their victim from
//! the members of the cycle the probe returns. The golden grid's contended
//! cells (lockspace 100, 40 s) deadlock in short cycles; the cell here is
//! the benchmark's `contended` workload cut to 120 s, where the central
//! deadlock cascade builds cycles of dozens of transactions. Any change to
//! which cycle the probe reports, or in what order, moves a victim and
//! shows up as a different digest.

use hls_core::{run_simulation, DeadlockVictim, RouterSpec, RunMetrics, SystemConfig};

/// FNV-1a over the bytes of `m`'s `{:#?}` rendering.
fn digest(m: &RunMetrics) -> u64 {
    format!("{m:#?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// Lockspace 1,024 at 20 tps with queue-length routing, seed 1988.
fn contended(victim: DeadlockVictim) -> SystemConfig {
    let mut cfg = SystemConfig::paper_default()
        .with_total_rate(20.0)
        .with_horizon(120.0, 20.0)
        .with_seed(1988);
    cfg.params.lockspace = 1024.0;
    cfg.deadlock_victim = victim;
    cfg
}

#[test]
fn deep_cycle_victims_reproduce_pinned_digests() {
    let pinned = [
        (DeadlockVictim::Requester, 0x9b90_cb1e_329b_0cba),
        (DeadlockVictim::Youngest, 0x4766_b972_1c73_66c1),
        (DeadlockVictim::FewestLocks, 0x9e54_46fe_aea4_5f14),
    ];
    for (victim, want) in pinned {
        let m = run_simulation(contended(victim), RouterSpec::QueueLength)
            .expect("contended config is valid");
        let deadlocks = m.aborts.deadlock_local + m.aborts.deadlock_central;
        assert!(
            deadlocks > m.completions,
            "{victim:?}: {deadlocks} deadlock aborts for {} completions; \
             the cell no longer deadlocks heavily",
            m.completions
        );
        let got = digest(&m);
        assert_eq!(
            got, want,
            "{victim:?}: RunMetrics digest {got:#018x} diverged from the pinned run"
        );
    }
}
