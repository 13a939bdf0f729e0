//! Golden-metrics regression suite: the simulator's end-to-end contract.
//!
//! For a representative grid of figure-set configurations — light and
//! contention-heavy workloads, every victim-selection policy, and a fault
//! schedule — [`RunMetrics`] must stay **bit-identical** to the values
//! recorded in `tests/golden/run_metrics.txt`.
//!
//! The golden file stores the full `Debug` rendering of each run
//! (Rust prints shortest-round-trip floats, so the text is exact). To
//! regenerate after an *intentional* behaviour change:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test --release --test golden_metrics
//! ```
//!
//! The grid is written once, here. Every feature that must be invisible
//! at its default gets one row: the row restates each configuration with
//! the feature spelled out explicitly (one central shard, a static map, a
//! watching placement controller, a homogeneous island topology, full
//! observability), checks each run, and compares the result with the
//! **unmodified** golden file. Each row is its own test, so the harness
//! runs the rows in parallel.

use std::fmt::Write as _;

use hls_core::{
    run_simulation, DeadlockVictim, FaultSchedule, IslandSpec, ObsConfig, PlacementConfig,
    RouterSpec, RunMetrics, ShardSpec, SystemConfig, UtilizationEstimator,
};

const GOLDEN_PATH: &str = "tests/golden/run_metrics.txt";

/// The pinned grid: label plus a fully-specified run.
fn grid() -> Vec<(String, SystemConfig, RouterSpec)> {
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
        // Tightest lockspace the validator allows: near-certain lock
        // conflicts, so the deadlock machinery actually runs.
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
    // Contention under a fault schedule: crashes clear lock tables and
    // kill residents, exercising release paths the light grid never hits.
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

/// Runs the grid with each configuration restated by `restate`, applies
/// `check` to each run (which may take reports the plain run lacks), and
/// renders the runs in the golden file's format.
fn render_grid(
    restate: impl Fn(SystemConfig) -> SystemConfig,
    check: impl Fn(&str, &mut RunMetrics),
) -> String {
    let mut out = String::new();
    for (label, cfg, spec) in grid() {
        let mut m = run_simulation(restate(cfg), spec).expect("golden grid config must be valid");
        check(&label, &mut m);
        let _ = write!(out, "=== {label}\n{m:#?}\n");
    }
    out
}

/// Runs one row: the grid restated by `restate` and checked by `check`,
/// compared with the unmodified golden file. A mismatch reports the
/// first diverging label and then the bytes of that run.
fn assert_row(
    restate: impl Fn(SystemConfig) -> SystemConfig,
    check: impl Fn(&str, &mut RunMetrics),
) {
    let actual = render_grid(restate, check);
    let expected = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden file missing; regenerate with GOLDEN_REGEN=1");
    if expected == actual {
        return;
    }
    for (exp, act) in expected.split("=== ").zip(actual.split("=== ")) {
        let label = exp.lines().next();
        assert_eq!(label, act.lines().next(), "golden grid labels drifted");
        assert_eq!(
            exp, act,
            "{label:?}: RunMetrics diverged from the golden file"
        );
    }
    panic!("golden run count changed");
}

/// The check for a placement controller watching the stationary,
/// locality-aligned grid: it reports, and it never acts.
fn inert(policy: &'static str) -> impl Fn(&str, &mut RunMetrics) {
    move |label, m| {
        let report = m.placement.take().expect("adaptive policy must report");
        assert_eq!(report.policy, policy, "{label}");
        assert_eq!(
            (
                report.epoch,
                report.migrations_planned,
                report.parked_admissions
            ),
            (0, 0, 0),
            "{label}: the stationary locality-aligned workload must not migrate"
        );
    }
}

#[test]
fn run_metrics_are_bit_identical_to_recorded_main() {
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::create_dir_all("tests/golden").expect("create golden dir");
        let actual = render_grid(|cfg| cfg, |_, _| {});
        std::fs::write(GOLDEN_PATH, actual).expect("write golden file");
        return;
    }
    assert_row(|cfg| cfg, |_, _| {});
}

/// An explicit one-shard complex (`Even { k: 1 }`, not the `Single` fast
/// path): the sharded code paths collapse to the unsharded protocol when
/// there is nothing to cross.
#[test]
fn one_shard_grid_is_bit_identical_to_golden() {
    assert_row(
        |mut cfg| {
            cfg.shards = ShardSpec::Even { k: 1 };
            cfg
        },
        |_, _| {},
    );
}

/// An explicit static map with no drift is the paper's system and
/// builds no placement report.
#[test]
fn static_grid_is_bit_identical_to_golden() {
    assert_row(
        |cfg| cfg.with_placement(PlacementConfig::default()),
        |label, m| {
            assert!(
                m.placement.is_none(),
                "{label}: static placement without drift must not build a report"
            );
        },
    );
}

/// A threshold controller's ticks, statistics and reclassification must
/// not perturb the simulation they observe.
#[test]
fn threshold_grid_without_drift_is_inert_and_bit_identical() {
    assert_row(
        |cfg| cfg.with_placement(PlacementConfig::threshold_default()),
        inert("threshold"),
    );
}

/// The same contract for the epoch controller.
#[test]
fn epoch_grid_without_drift_is_inert_and_bit_identical() {
    assert_row(
        |cfg| cfg.with_placement(PlacementConfig::epoch_default()),
        inert("epoch"),
    );
}

/// Each configuration's implicit homogeneous topology spelled out: one
/// island covering every site, both island delays at the nominal
/// `comm_delay`, every site at the nominal local MIPS and every central
/// shard at the nominal central MIPS.
#[test]
fn explicit_homogeneous_islands_match_golden_file_byte_for_byte() {
    assert_row(
        |cfg| {
            let n = cfg.params.n_sites;
            let comm = cfg.params.comm_delay;
            let local = cfg.params.local_mips;
            let central = cfg.params.central_mips;
            let shards = cfg.shards.n_shards();
            cfg.with_islands(IslandSpec::contiguous(n, 1, 0, comm, comm))
                .with_site_mips(vec![local; n])
                .with_central_shard_mips(vec![central; shards])
        },
        |_, _| {},
    );
}

/// Histograms, phase timing and the self-profiler never touch simulated
/// time, random streams or event order; their histograms describe
/// exactly the measured completions.
#[test]
fn full_obs_grid_is_bit_identical_to_golden() {
    assert_row(
        |cfg| cfg.with_obs(ObsConfig::full()),
        |label, m| {
            let report = m.obs.take().expect("obs-on run must carry a report");
            let histogram_count: u64 = report.response.iter().map(|(_, h)| h.count()).sum();
            assert_eq!(histogram_count, m.completions, "{label}");
        },
    );
}
