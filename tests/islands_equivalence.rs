//! Homogeneity-equivalence and asymmetry battery for the hardware-islands
//! topology generalization (ISSUE 9).
//!
//! The heterogeneous-topology machinery (per-site MIPS, per-link delay
//! matrices, island groupings, speed-normalized estimators) touches the
//! simulator's hottest paths, so the lock on it is the same one the lock
//! table, sharding, and placement rewrites carry: a **homogeneous**
//! configuration — every site at the nominal MIPS, every link at the
//! nominal delay, one island — must be *bit-identical* to the plain path,
//! asserted byte-for-byte against the UNMODIFIED golden file of
//! `golden_metrics.rs`. On top of that the suite pins what genuinely
//! asymmetric topologies must still guarantee: determinism, replication
//! fan-out equality, and drained coherency convergence.

use hls_core::{
    replicate_jobs, run_simulation, DeadlockVictim, FaultSchedule, IslandSpec, RouterSpec,
    RunMetrics, SystemConfig, UtilizationEstimator,
};

/// The golden file recorded by `golden_metrics.rs` — this suite reads it,
/// never writes it.
const GOLDEN_PATH: &str = "tests/golden/run_metrics.txt";

/// The same pinned grid as `golden_metrics.rs`.
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

/// Restates a configuration's implicit homogeneous topology as an
/// *explicit* one: one island covering every site, both island delays at
/// the nominal `comm_delay`, every site at the nominal local MIPS, every
/// central shard at the nominal central MIPS.
fn make_explicitly_homogeneous(cfg: SystemConfig) -> SystemConfig {
    let n = cfg.params.n_sites;
    let comm = cfg.params.comm_delay;
    let local = cfg.params.local_mips;
    let central = cfg.params.central_mips;
    let shards = cfg.shards.n_shards();
    cfg.with_islands(IslandSpec::contiguous(n, 1, 0, comm, comm))
        .with_site_mips(vec![local; n])
        .with_central_shard_mips(vec![central; shards])
}

fn render(label: &str, m: &RunMetrics) -> String {
    format!("=== {label}\n{m:#?}\n")
}

/// The tentpole contract: the full golden grid, re-run with every
/// configuration's homogeneous topology spelled out explicitly, must
/// reproduce the recorded golden file byte for byte.
#[test]
fn explicit_homogeneous_islands_match_golden_file_byte_for_byte() {
    let mut actual = String::new();
    for (label, cfg, spec) in grid() {
        let cfg = make_explicitly_homogeneous(cfg);
        let m = run_simulation(cfg, spec).expect("homogeneous island grid config must be valid");
        actual.push_str(&render(&label, &m));
    }
    let expected = std::fs::read_to_string(GOLDEN_PATH).expect(
        "golden file missing; regenerate with GOLDEN_REGEN=1 cargo test --test golden_metrics",
    );
    if expected != actual {
        for (exp, act) in expected.split("=== ").zip(actual.split("=== ")) {
            assert_eq!(
                exp.lines().next(),
                act.lines().next(),
                "golden grid labels drifted"
            );
            assert_eq!(
                exp, act,
                "an explicit homogeneous island spec diverged from the plain path"
            );
        }
        panic!("golden run count changed");
    }
}

/// A genuinely asymmetric topology: two islands (central complex in
/// island 0 with cheap links), a slow hop to island 1, and a 2:1 fast /
/// nominal split of site speeds.
fn asymmetric_cfg(seed: u64) -> SystemConfig {
    let cfg = SystemConfig::paper_default()
        .with_total_rate(18.0)
        .with_horizon(40.0, 8.0)
        .with_seed(seed);
    let n = cfg.params.n_sites;
    let islands = IslandSpec::contiguous(n, 2, 0, 0.05, 0.8);
    let mips: Vec<f64> = (0..n)
        .map(|i| {
            if islands.island_of(i) == 0 {
                cfg.params.local_mips
            } else {
                2.0 * cfg.params.local_mips
            }
        })
        .collect();
    cfg.with_islands(islands).with_site_mips(mips)
}

fn island_aware() -> RouterSpec {
    RouterSpec::IslandAware {
        estimator: UtilizationEstimator::NumInSystem,
    }
}

/// FNV-1a over the bytes of `s`.
fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Asymmetric topologies stay deterministic: the same seed reproduces
/// every metric bit for bit, and the island-aware run reproduces its
/// pinned digest.
#[test]
fn asymmetric_runs_are_deterministic() {
    let a = run_simulation(asymmetric_cfg(42), island_aware()).expect("valid");
    let b = run_simulation(asymmetric_cfg(42), island_aware()).expect("valid");
    assert_eq!(
        format!("{a:#?}"),
        format!("{b:#?}"),
        "same seed, different metrics under an asymmetric topology"
    );
    let got = fnv1a(&format!("{a:#?}"));
    assert_eq!(
        got, 0xf9ba_2519_f5ca_b4ed,
        "island-aware RunMetrics digest {got:#018x} diverged from the pinned run"
    );
}

/// Replication fan-out stays order-independent under asymmetry: 1 worker
/// and 8 workers produce identical per-replication metrics.
#[test]
fn replication_is_worker_count_invariant_under_asymmetry() {
    let cfg = asymmetric_cfg(42);
    let serial = replicate_jobs(&cfg, island_aware(), 6, 1).expect("valid");
    let fanned = replicate_jobs(&cfg, island_aware(), 6, 8).expect("valid");
    assert_eq!(serial.len(), fanned.len());
    for (i, (s, f)) in serial.iter().zip(&fanned).enumerate() {
        assert_eq!(
            format!("{s:#?}"),
            format!("{f:#?}"),
            "replication {i} diverged between 1 and 8 workers"
        );
    }
}

/// The coherency protocol still drains to a consistent state when links
/// are asymmetric: slow inter-island update propagation must delay, not
/// lose, central-replica convergence.
#[test]
fn asymmetric_topology_drains_to_convergence() {
    for spec in [
        island_aware(),
        RouterSpec::QueueLength,
        RouterSpec::Static { p_ship: 0.5 },
    ] {
        let sys = hls_core::HybridSystem::new(asymmetric_cfg(7), spec).expect("valid");
        let (m, report) = sys.run_drained();
        assert!(m.completions > 0, "{spec:?}: nothing completed");
        assert!(
            report.converged(),
            "{spec:?}: {} items divergent, {} txns in flight after drain",
            report.divergent.len(),
            report.in_flight_txns
        );
    }
}
