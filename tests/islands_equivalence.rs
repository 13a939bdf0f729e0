//! Asymmetry battery for the hardware-islands topology generalization.
//!
//! The heterogeneous-topology machinery (per-site MIPS, per-link delay
//! matrices, island groupings, speed-normalized estimators) touches the
//! simulator's hottest paths. That a **homogeneous** configuration —
//! every site at the nominal MIPS, every link at the nominal delay, one
//! island — is bit-identical to the plain path is pinned by the islands
//! row of `golden_metrics.rs`. This suite pins what genuinely asymmetric
//! topologies must still guarantee: determinism, replication fan-out
//! equality, drained coherency convergence, and that pricing the real
//! link delay pays off.

use hls_core::{
    replicate_jobs, run_simulation, IslandSpec, RouterSpec, SystemConfig, UtilizationEstimator,
};

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

/// The hardware-islands premise at 20 tps: island 0 holds the central
/// complex and sites at the paper's 1 MIPS, every other island sits
/// behind a 1 s hop with 4-MIPS sites, and intra-island links cost
/// 0.05 s. The nominal `comm_delay` stays at 0.2 s, so a uniform router
/// prices remote-island ships at a fifth of their real delay.
fn slow_hop_cfg(islands: usize, central_mips: f64) -> SystemConfig {
    let cfg = SystemConfig::paper_default()
        .with_total_rate(20.0)
        .with_horizon(120.0, 20.0)
        .with_seed(1988)
        .with_central_shard_mips(vec![central_mips]);
    let n = cfg.params.n_sites;
    let nominal = cfg.params.local_mips;
    let spec = IslandSpec::contiguous(n, islands, 0, 0.05, 1.0);
    let mips: Vec<f64> = (0..n)
        .map(|i| {
            if spec.island_of(i) == spec.central_island() {
                nominal
            } else {
                4.0e6
            }
        })
        .collect();
    cfg.with_islands(spec).with_site_mips(mips)
}

/// Island-aware routing beats uniform min-average routing over a slow
/// inter-island hop, on mean response averaged over two and four
/// islands at a 15 and a 30 MIPS central complex (1.472 s against
/// 2.095 s). Single cells may tie when both routers make the same calls,
/// so the guard is on the average.
#[test]
fn island_aware_beats_uniform_over_a_slow_hop() {
    let mean_response = |spec: RouterSpec| {
        let cells = [(2, 15.0e6), (2, 30.0e6), (4, 15.0e6), (4, 30.0e6)];
        let total: f64 = cells
            .iter()
            .map(|&(islands, central_mips)| {
                let m = run_simulation(slow_hop_cfg(islands, central_mips), spec).expect("valid");
                assert!(m.completions > 0, "{islands} islands/{spec:?}: nothing ran");
                m.mean_response
            })
            .sum();
        total / cells.len() as f64
    };
    let uniform = mean_response(RouterSpec::MinAverage {
        estimator: UtilizationEstimator::NumInSystem,
    });
    let aware = mean_response(island_aware());
    assert!(
        aware < uniform,
        "island-aware ({aware:.3} s) did not beat uniform ({uniform:.3} s) over a 1 s hop"
    );
}
