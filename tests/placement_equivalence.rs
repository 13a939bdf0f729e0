//! Adaptation locks for adaptive data placement.
//!
//! The `hls-placement` subsystem moves partition homes between sites at
//! runtime and reclassifies transactions A↔B against the live map. That
//! the machinery is invisible without drift — an explicit static map,
//! and a threshold or epoch controller watching the stationary paper
//! workload, each reproduce the golden file byte for byte — is pinned
//! by the placement rows of `golden_metrics.rs`. Four contracts are
//! pinned here:
//!
//! 1. **Adaptation under drift is deterministic and correct.** Same
//!    config, same seed → same metrics, for both controllers and at any
//!    worker count; drained runs converge with zero in-flight
//!    transactions after real migrations committed.
//! 2. **Adaptation pays off.** Under hot-partition drift the live
//!    class-B admission rate lands below the frozen epoch-0
//!    counterfactual measured on the same transaction stream, and at the
//!    paper's high operating point both controllers beat the static map
//!    on class B and on mean response.
//! 3. **Crashes compose.** Site and central outages abort in-flight
//!    migrations and kill transactions, and the run still drains clean.
//! 4. **The controller's item counts stay exact.** Under validation, the
//!    per-partition counts the runtime keeps as master copies are
//!    written equal a full rescan of the site stores, through
//!    switchovers and site and central crashes.

use hls_core::{
    replicate_jobs, run_simulation, DriftSpec, FaultSchedule, HybridSystem, PlacementConfig,
    RouterSpec, SystemConfig,
};

/// A drifting adaptive configuration at the paper's operating point.
fn drifting(drift: &str, horizon: f64, warmup: f64) -> SystemConfig {
    SystemConfig::paper_default()
        .with_total_rate(18.0)
        .with_horizon(horizon, warmup)
        .with_seed(1988)
        .with_placement(PlacementConfig::threshold_default())
        .with_drift(DriftSpec::parse(drift).expect("valid drift spec"))
}

#[test]
fn adaptive_runs_are_deterministic() {
    for placement in [
        PlacementConfig::threshold_default(),
        PlacementConfig::epoch_default(),
    ] {
        for drift in ["hot:12:0.9", "diurnal:40:0.3", "zipf:1.0"] {
            let run = || {
                let cfg = drifting(drift, 50.0, 5.0).with_placement(placement);
                let m = run_simulation(cfg, RouterSpec::QueueLength).expect("valid");
                format!("{m:#?}")
            };
            assert_eq!(
                run(),
                run(),
                "{drift} under {:?}: run is not reproducible",
                placement.policy
            );
        }
    }
}

#[test]
fn adaptive_drained_runs_converge_after_real_migrations() {
    let cfg = drifting("hot:12:0.9", 60.0, 5.0);
    let (metrics, report) = HybridSystem::new(cfg, RouterSpec::QueueLength)
        .expect("valid config")
        .run_drained();
    assert!(metrics.completions > 0, "nothing ran");
    let p = metrics
        .placement
        .as_ref()
        .expect("adaptive policy must report");
    assert!(
        p.migrations_completed > 0,
        "hot drift must trigger committed migrations, got {p:#?}"
    );
    assert!(p.epoch >= p.migrations_completed, "epoch lags switchovers");
    assert_eq!(
        report.in_flight_txns, 0,
        "drain left transactions behind (parked admissions leaked?)"
    );
    assert!(
        report.divergent.is_empty(),
        "replicas diverged on {} of {} items: {:?}",
        report.divergent.len(),
        report.items_checked,
        &report.divergent[..report.divergent.len().min(10)]
    );
    assert!(report.items_checked > 0, "no writes happened");
}

#[test]
fn adaptive_replications_agree_across_worker_counts() {
    let cfg = drifting("hot:10:0.9", 30.0, 4.0);
    let serial = replicate_jobs(&cfg, RouterSpec::Static { p_ship: 0.5 }, 4, 1).expect("valid");
    let parallel = replicate_jobs(&cfg, RouterSpec::Static { p_ship: 0.5 }, 4, 8).expect("valid");
    assert_eq!(serial.len(), parallel.len());
    for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
        assert_eq!(
            format!("{s:#?}"),
            format!("{p:#?}"),
            "replication {i} depends on the worker count"
        );
    }
}

#[test]
fn adaptation_beats_the_frozen_static_map_on_class_b() {
    let cfg = drifting("hot:20:0.9", 120.0, 10.0);
    let m = run_simulation(cfg, RouterSpec::QueueLength).expect("valid");
    let p = m.placement.as_ref().expect("adaptive policy must report");
    assert!(
        p.migrations_completed > 0,
        "no migrations committed: {p:#?}"
    );
    assert!(
        p.class_b_rate < p.class_b_rate_static,
        "live map must beat the epoch-0 counterfactual: live {} vs static {}",
        p.class_b_rate,
        p.class_b_rate_static
    );
    assert!(
        p.class_a_admitted + p.class_b_admitted > 0,
        "nothing admitted post-warmup"
    );
}

/// A wholesale working-set rotation (`hot_frac = 1.0`) at 24 tps, the
/// paper's high operating point: under the frozen map the rotation turns
/// most of the workload class B and saturates the central complex.
fn hot_rotation(dwell: f64, placement: PlacementConfig) -> SystemConfig {
    SystemConfig::paper_default()
        .with_total_rate(24.0)
        .with_horizon(160.0, 20.0)
        .with_seed(1988)
        .with_placement(placement)
        .with_drift(DriftSpec::HotMigration {
            dwell,
            hot_frac: 1.0,
        })
}

#[test]
fn adaptive_policies_beat_the_static_map_under_hot_rotation() {
    // At the 60 s dwell: static 2.978 s mean response at class-B rate
    // 0.789, threshold 1.881 s at 0.431, epoch 1.829 s at 0.419. The 20 s
    // dwell is near the controllers' pace limit, so response time need
    // only improve in one of the two cells.
    let run = |dwell: f64, placement: PlacementConfig| {
        let m =
            run_simulation(hot_rotation(dwell, placement), RouterSpec::QueueLength).expect("valid");
        assert!(m.completions > 0, "dwell {dwell}: nothing ran");
        let p = m.placement.expect("drifting runs report placement");
        (m.mean_response, p)
    };
    let dwells = [20.0, 60.0];
    let frozen = dwells.map(|dwell| run(dwell, PlacementConfig::default()));
    for placement in [
        PlacementConfig::threshold_default(),
        PlacementConfig::epoch_default(),
    ] {
        let mut faster = false;
        for (dwell, (static_rt, static_p)) in dwells.iter().zip(&frozen) {
            let (rt, p) = run(*dwell, placement);
            let policy = &p.policy;
            assert!(
                p.migrations_completed > 0,
                "{policy} at dwell {dwell}: no migration completed: {p:#?}"
            );
            assert!(
                p.class_b_rate < static_p.class_b_rate,
                "{policy} at dwell {dwell}: class-B rate {} not below the static map's {}",
                p.class_b_rate,
                static_p.class_b_rate
            );
            faster |= rt < *static_rt;
        }
        assert!(
            faster,
            "{:?} beat the static map's mean response at neither dwell",
            placement.policy
        );
    }
}

#[test]
fn adaptive_runs_survive_crashes() {
    // Site and central outages abort in-flight migrations and release
    // parked admissions; the run must still complete and drain clean.
    // With a 25 s dwell the working sets have not rotated yet when site 2
    // goes down at 12 s, so its local-intent transactions are still
    // class A, run at the site, and the crash kills them.
    let mut cfg = drifting("hot:25:0.9", 60.0, 5.0);
    cfg.fault_schedule = FaultSchedule::empty()
        .site_outage(2, 12.0, 20.0)
        .central_outage(25.0, 31.0)
        .link_outage(5, 14.0, 22.0);
    cfg.failure_aware = true;
    let (metrics, report) = HybridSystem::new(cfg, RouterSpec::Static { p_ship: 0.5 })
        .expect("valid config")
        .run_drained();
    assert!(metrics.completions > 0, "nothing ran");
    assert!(
        metrics.availability.crash_aborts_site > 0,
        "no site crash took effect: {:#?}",
        metrics.availability
    );
    assert!(
        metrics.availability.crash_aborts_central > 0,
        "the central crash took no effect: {:#?}",
        metrics.availability
    );
    assert_eq!(report.in_flight_txns, 0, "drain left transactions behind");
    assert!(
        report.divergent.is_empty(),
        "replicas diverged on {} items",
        report.divergent.len()
    );
}

#[test]
fn validated_adaptive_run_keeps_item_counts_through_crashes() {
    // `run_validated` compares the placement runtime's maintained
    // per-partition item counts with a full rescan of the site stores at
    // every controller tick and at the end of the run. This config drives
    // every path that changes those counts: local commits, commit
    // applications, switchovers, and the redo-logged commit applications
    // a site crash finds queued on the site's CPU. At this seed the
    // site 0 crash evicts six queued commit applications.
    let mut cfg = drifting("hot:25:0.9", 60.0, 5.0);
    cfg.fault_schedule = FaultSchedule::empty()
        .site_outage(2, 12.0, 20.0)
        .central_outage(30.0, 36.0)
        .site_outage(0, 45.0, 51.0);
    cfg.failure_aware = true;
    let m = HybridSystem::new(cfg, RouterSpec::Static { p_ship: 0.5 })
        .expect("valid config")
        .run_validated();
    let p = m.placement.as_ref().expect("adaptive policy must report");
    assert!(
        p.migrations_completed > 0,
        "no switchover ran under validation: {p:#?}"
    );
    assert!(
        m.availability.crash_aborts_site > 0,
        "no site crash took effect: {:#?}",
        m.availability
    );
    assert!(
        m.availability.crash_aborts_central > 0,
        "the central crash took no effect: {:#?}",
        m.availability
    );
}
