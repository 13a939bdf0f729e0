//! Equivalence and adaptation locks for adaptive data placement
//! (ISSUE 8).
//!
//! The `hls-placement` subsystem moves partition homes between sites at
//! runtime and reclassifies transactions A↔B against the live map. Five
//! contracts are pinned here:
//!
//! 1. **Static placement with no drift is the paper's system, bit for
//!    bit.** An explicit default [`PlacementConfig`] over the full
//!    golden-metrics grid reproduces `tests/golden/run_metrics.txt`
//!    byte-identically, with no [`PlacementReport`] attached.
//! 2. **The adaptive machinery is inert without drift.** A `Threshold`
//!    controller over the same grid plans zero migrations (the paper's
//!    workload is stationary and locality-aligned) and every non-report
//!    metric stays byte-identical to the golden file — the controller's
//!    ticks, statistics, and reclassification must not perturb the
//!    simulation they observe.
//! 3. **Adaptation under drift is deterministic and correct.** Same
//!    config, same seed → same metrics, at any worker count; drained
//!    runs converge with zero in-flight transactions after real
//!    migrations committed.
//! 4. **Adaptation pays off.** Under hot-partition drift the live
//!    class-B admission rate lands below the frozen epoch-0
//!    counterfactual measured on the same transaction stream.
//! 5. **The controller's item counts stay exact.** Under validation, the
//!    per-partition counts the runtime keeps as master copies are
//!    written equal a full rescan of the site stores, through
//!    switchovers and site and central crashes.

use hls_core::{
    replicate_jobs, run_simulation, DeadlockVictim, DriftSpec, FaultSchedule, HybridSystem,
    PlacementConfig, RouterSpec, RunMetrics, SystemConfig, UtilizationEstimator,
};

const GOLDEN_PATH: &str = "tests/golden/run_metrics.txt";

/// The same pinned grid as `golden_metrics.rs`.
fn golden_grid() -> Vec<(String, SystemConfig, RouterSpec)> {
    let base = || {
        SystemConfig::paper_default()
            .with_total_rate(18.0)
            .with_horizon(40.0, 8.0)
            .with_seed(42)
    };
    let contended = |victim: DeadlockVictim| {
        let mut cfg = SystemConfig::paper_default()
            .with_total_rate(26.0)
            .with_horizon(40.0, 5.0)
            .with_seed(7);
        cfg.params.lockspace = 100.0;
        cfg.deadlock_victim = victim;
        cfg
    };
    let policies = [
        ("no-sharing", RouterSpec::NoSharing),
        ("queue-length", RouterSpec::QueueLength),
        (
            "min-average-n",
            RouterSpec::MinAverage {
                estimator: UtilizationEstimator::NumInSystem,
            },
        ),
        ("static-0.5", RouterSpec::Static { p_ship: 0.5 }),
    ];
    let mut grid = Vec::new();
    for (name, spec) in &policies {
        grid.push((format!("light/{name}"), base(), *spec));
        grid.push((
            format!("light-r10/{name}"),
            base().with_total_rate(10.0),
            *spec,
        ));
    }
    for victim in [
        DeadlockVictim::Requester,
        DeadlockVictim::Youngest,
        DeadlockVictim::FewestLocks,
    ] {
        for (name, spec) in &policies[..2] {
            grid.push((
                format!("contended-{victim:?}/{name}"),
                contended(victim),
                *spec,
            ));
        }
    }
    let mut faulted = contended(DeadlockVictim::Requester).with_horizon(60.0, 10.0);
    faulted.fault_schedule = FaultSchedule::empty()
        .site_outage(0, 15.0, 30.0)
        .central_outage(35.0, 42.0)
        .link_outage(3, 20.0, 28.0)
        .latency_spike(5, 12.0, 50.0, 4.0);
    faulted.failure_aware = true;
    grid.push((
        "faulted/static-0.5".to_string(),
        faulted,
        RouterSpec::Static { p_ship: 0.5 },
    ));
    grid
}

fn render(label: &str, m: &RunMetrics) -> String {
    format!("=== {label}\n{m:#?}\n")
}

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
fn static_grid_is_bit_identical_to_golden() {
    let expected = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden file missing; regenerate with GOLDEN_REGEN=1");
    let mut actual = String::new();
    for (label, cfg, spec) in golden_grid() {
        let cfg = cfg.with_placement(PlacementConfig::default());
        let m = run_simulation(cfg, spec).expect("golden grid config must be valid");
        assert!(
            m.placement.is_none(),
            "{label}: static placement without drift must not build a report"
        );
        actual.push_str(&render(&label, &m));
    }
    assert_eq!(
        expected, actual,
        "static placement diverged from the recorded paper system"
    );
}

#[test]
fn threshold_grid_without_drift_is_inert_and_bit_identical() {
    let expected = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden file missing; regenerate with GOLDEN_REGEN=1");
    let mut actual = String::new();
    for (label, cfg, spec) in golden_grid() {
        let cfg = cfg.with_placement(PlacementConfig::threshold_default());
        let mut m = run_simulation(cfg, spec).expect("golden grid config must be valid");
        let report = m.placement.take().expect("adaptive policy must report");
        assert_eq!(report.policy, "threshold", "{label}");
        assert_eq!(
            (
                report.epoch,
                report.migrations_planned,
                report.parked_admissions
            ),
            (0, 0, 0),
            "{label}: the stationary locality-aligned workload must not migrate"
        );
        actual.push_str(&render(&label, &m));
    }
    for (exp, act) in expected.split("=== ").zip(actual.split("=== ")) {
        assert_eq!(
            exp, act,
            "an inert threshold controller perturbed the simulation"
        );
    }
    assert_eq!(expected, actual, "golden run count changed");
}

#[test]
fn adaptive_runs_are_deterministic() {
    for drift in ["hot:12:0.9", "diurnal:40:0.3", "zipf:1.0"] {
        let run = || {
            let m =
                run_simulation(drifting(drift, 50.0, 5.0), RouterSpec::QueueLength).expect("valid");
            format!("{m:#?}")
        };
        assert_eq!(run(), run(), "{drift}: run is not reproducible");
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

#[test]
fn adaptive_runs_survive_crashes() {
    // Site and central outages abort in-flight migrations and release
    // parked admissions; the run must still complete and drain clean.
    let mut cfg = drifting("hot:10:0.9", 60.0, 5.0);
    cfg.fault_schedule = FaultSchedule::empty()
        .site_outage(2, 12.0, 20.0)
        .central_outage(25.0, 31.0)
        .link_outage(5, 14.0, 22.0);
    cfg.failure_aware = true;
    let (metrics, report) = HybridSystem::new(cfg, RouterSpec::Static { p_ship: 0.5 })
        .expect("valid config")
        .run_drained();
    assert!(metrics.completions > 0, "nothing ran");
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
