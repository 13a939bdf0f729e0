//! Equivalence and scaling locks for the sharded central complex.
//!
//! The `hls-shard` subsystem splits the central complex into `K` nodes,
//! each replicating the partitions of a contiguous range of sites, with
//! explicit cross-shard lock/authentication coordination. Three
//! contracts are pinned here:
//!
//! 1. **K = 1 is the old system, bit for bit.** An explicit one-shard
//!    spec (`Even { k: 1 }`, *not* the `Single` fast path) resolves to
//!    the same run as `Single`, here at N = 10, 100 and 1,000; over the
//!    full golden grid it is the one-shard row of `golden_metrics.rs`.
//! 2. **K > 1 is deterministic and correct.** Same config, same seed →
//!    same metrics; drained runs converge (every shard's replica holds
//!    the master copy of every item it homes); per-event lock-table
//!    invariants hold under cross-shard traffic.
//! 3. **The topology actually scales.** Every cell of
//!    N ∈ {10, 100, 1,000} × K ∈ {1, 2, 4, 8} runs to completion with a
//!    populated [`ScaleReport`] and, when K > 1, real cross-shard
//!    traffic; N = 100, K = 2 and N = 1,000, K = 8 also run on longer
//!    horizons.
//!
//! [`ScaleReport`]: hls_core::ScaleReport

use hls_core::{run_simulation, HybridSystem, RouterSpec, ShardSpec, SystemConfig};

/// A sharded large-`N` configuration: per-site rate held at the paper's
/// operating point, per-shard central capacity scaled so the complex as
/// a whole keeps up with the shipped load.
fn scaled(n_sites: usize, shards: usize, horizon: f64, warmup: f64) -> SystemConfig {
    let mut cfg = SystemConfig::paper_default()
        .with_horizon(horizon, warmup)
        .with_seed(1988)
        .with_shards(shards);
    cfg.params.n_sites = n_sites;
    cfg.params.lockspace = 32.0 * 1024.0 * (n_sites as f64 / 10.0);
    // Total complex capacity tracks the site count; each shard gets an
    // equal split.
    cfg.params.central_mips = 15.0e6 * (n_sites as f64 / 10.0) / shards as f64;
    cfg.scale_metrics = true;
    cfg.with_total_rate(1.5 * n_sites as f64)
}

#[test]
fn sharded_runs_are_deterministic() {
    for k in [2, 4] {
        let run = || {
            let cfg = scaled(12, k, 30.0, 5.0);
            let m = run_simulation(cfg, RouterSpec::Static { p_ship: 0.5 }).expect("valid");
            format!("{m:#?}")
        };
        assert_eq!(run(), run(), "K = {k} run is not reproducible");
    }
}

#[test]
fn sharded_drained_runs_converge() {
    for (k, p_ship) in [(2, 0.5), (4, 0.7)] {
        let cfg = scaled(12, k, 40.0, 5.0);
        let (metrics, report) = HybridSystem::new(cfg, RouterSpec::Static { p_ship })
            .expect("valid config")
            .run_drained();
        assert!(metrics.completions > 0, "K = {k}: nothing ran");
        assert_eq!(
            report.in_flight_txns, 0,
            "K = {k}: drain left transactions behind"
        );
        assert!(
            report.divergent.is_empty(),
            "K = {k}: replicas diverged on {} of {} items: {:?}",
            report.divergent.len(),
            report.items_checked,
            &report.divergent[..report.divergent.len().min(10)]
        );
        assert!(report.items_checked > 0, "K = {k}: no writes happened");
    }
}

#[test]
fn sharded_lock_tables_hold_invariants() {
    // Per-event invariant validation over every site and shard table,
    // with enough shipping that cross-shard requests actually happen.
    let cfg = scaled(8, 2, 12.0, 2.0);
    let m = HybridSystem::new(cfg, RouterSpec::Static { p_ship: 0.6 })
        .expect("valid config")
        .run_validated();
    assert!(m.completions > 0, "nothing ran");
}

/// [`scaled`] on a short horizon: larger topologies process more events
/// per simulated second, so the horizon shrinks as N grows while every
/// cell still commits transactions.
fn scaled_short(n_sites: usize, shards: usize) -> SystemConfig {
    let (horizon, warmup) = match n_sites {
        10 => (10.0, 2.0),
        100 => (4.0, 1.0),
        _ => (1.5, 0.3),
    };
    scaled(n_sites, shards, horizon, warmup)
}

/// Runs one N × K cell under static shipping and checks its
/// [`ScaleReport`](hls_core::ScaleReport): the cell commits
/// transactions, reports its topology, state and per-transaction
/// traffic, and, when K > 1, ships work across shards.
fn assert_scale_cell(cfg: SystemConfig, p_ship: f64, n: usize, k: usize) {
    let m = run_simulation(cfg, RouterSpec::Static { p_ship }).expect("valid");
    assert!(m.completions > 0, "N = {n}, K = {k}: nothing ran");
    let scale = m.scale.expect("scale_metrics was enabled");
    assert_eq!((scale.n_sites, scale.n_shards), (n, k));
    assert!(scale.peak_in_flight > 0, "N = {n}, K = {k}");
    assert!(scale.state_bytes > 0, "N = {n}, K = {k}");
    assert!(scale.bytes_per_txn > 0.0, "N = {n}, K = {k}");
    if k > 1 {
        assert!(
            scale.cross_shard_messages > 0,
            "N = {n}, K = {k}: shipping {p_ship} over {k} shards must cross"
        );
    }
}

#[test]
fn scale_smoke_n100_k2() {
    assert_scale_cell(scaled(100, 2, 12.0, 2.0), 0.3, 100, 2);
}

#[test]
fn scale_smoke_n1000_k8() {
    // The N = 1,000 frontier point, shortened: perfbench's `scale`
    // workload times it; here we only prove the topology holds up.
    assert_scale_cell(scaled(1000, 8, 3.0, 0.5), 0.2, 1000, 8);
}

#[test]
fn scale_grid_cells_complete_with_cross_shard_traffic() {
    for n in [10, 100, 1000] {
        for k in [1, 2, 4, 8] {
            assert_scale_cell(scaled_short(n, k), 0.3, n, k);
        }
    }
}

#[test]
fn single_and_even_one_resolve_identically() {
    // `with_shards(1)` normalizes to `Single`; an explicit `Even { k: 1 }`
    // must still be accepted and produce the same metrics.
    let paper = SystemConfig::paper_default()
        .with_total_rate(14.0)
        .with_horizon(20.0, 4.0)
        .with_seed(3);
    for (single, spec) in [
        (paper, RouterSpec::QueueLength),
        (scaled_short(100, 1), RouterSpec::Static { p_ship: 0.3 }),
        (scaled_short(1000, 1), RouterSpec::Static { p_ship: 0.3 }),
    ] {
        let n = single.params.n_sites;
        let mut even = single.clone();
        even.shards = ShardSpec::Even { k: 1 };
        let single = run_simulation(single, spec).expect("valid");
        let even = run_simulation(even, spec).expect("valid");
        assert_eq!(
            format!("{single:#?}"),
            format!("{even:#?}"),
            "N = {n}: one-shard complex diverged from the unsharded path"
        );
    }
}
