//! Serial-vs-parallel equivalence suite for the experiment engine.
//!
//! The engine's contract is that results depend only on the experiment
//! grid — (base seed, rate index, strategy, replication) — never on the
//! worker-thread count or completion order. These tests pin that contract
//! by comparing bit-identical [`RunMetrics`] (via `PartialEq`) across
//! `--jobs` values and against an explicit serial loop, for every routing
//! policy the paper studies.

use std::num::NonZeroUsize;

use hls_core::{
    derive_seed, replicate_jobs, run_simulation, strategy_tag, sweep_rates_jobs,
    sweep_rates_static_jobs, RouterSpec, SystemConfig, UtilizationEstimator, NO_RATE_INDEX,
};
use hls_sim::SimRng;

/// Every routing policy, including both estimators where they differ.
fn all_specs() -> Vec<RouterSpec> {
    vec![
        RouterSpec::NoSharing,
        RouterSpec::Static { p_ship: 0.3 },
        RouterSpec::MeasuredResponse,
        RouterSpec::QueueLength,
        RouterSpec::UtilizationThreshold { threshold: -0.2 },
        RouterSpec::MinIncoming {
            estimator: UtilizationEstimator::QueueLength,
        },
        RouterSpec::MinIncoming {
            estimator: UtilizationEstimator::NumInSystem,
        },
        RouterSpec::MinAverage {
            estimator: UtilizationEstimator::QueueLength,
        },
        RouterSpec::MinAverage {
            estimator: UtilizationEstimator::NumInSystem,
        },
        RouterSpec::SmoothedMinAverage {
            estimator: UtilizationEstimator::NumInSystem,
            scale: 0.2,
        },
    ]
}

/// A short horizon keeps the full policy × jobs matrix fast; equivalence
/// is about scheduling, not statistical quality.
fn quick_config() -> SystemConfig {
    SystemConfig::paper_default()
        .with_total_rate(18.0)
        .with_horizon(30.0, 6.0)
        .with_seed(42)
}

#[test]
fn replicate_is_bit_identical_across_job_counts() {
    let cfg = quick_config();
    for spec in all_specs() {
        let serial = replicate_jobs(&cfg, spec, 4, 1).expect("valid");
        for jobs in [2, 8] {
            let parallel = replicate_jobs(&cfg, spec, 4, jobs).expect("valid");
            assert_eq!(serial, parallel, "{} with jobs={jobs}", spec.label());
        }
    }
}

#[test]
fn sweep_is_bit_identical_across_job_counts() {
    let cfg = quick_config();
    let rates = [10.0, 16.0, 22.0];
    for spec in all_specs() {
        let serial = sweep_rates_jobs(&cfg, spec, &rates, 1).expect("valid");
        for jobs in [2, 8] {
            let parallel = sweep_rates_jobs(&cfg, spec, &rates, jobs).expect("valid");
            assert_eq!(serial, parallel, "{} with jobs={jobs}", spec.label());
        }
    }
}

#[test]
fn static_sweep_is_bit_identical_across_job_counts() {
    let cfg = quick_config();
    let rates = [10.0, 16.0, 22.0];
    let serial = sweep_rates_static_jobs(&cfg, &rates, 1).expect("valid");
    for jobs in [2, 8] {
        let parallel = sweep_rates_static_jobs(&cfg, &rates, jobs).expect("valid");
        assert_eq!(serial, parallel, "static sweep with jobs={jobs}");
    }
}

/// The engine's replication results match a hand-written serial loop
/// using only the public seed-derivation contract — the pool adds
/// nothing but scheduling.
#[test]
fn replicate_matches_explicit_serial_loop() {
    let cfg = quick_config();
    let spec = RouterSpec::MinAverage {
        estimator: UtilizationEstimator::NumInSystem,
    };
    let engine = replicate_jobs(&cfg, spec, 3, 8).expect("valid");
    let by_hand: Vec<_> = (0..3u64)
        .map(|k| {
            let seed = derive_seed(cfg.seed, NO_RATE_INDEX, strategy_tag(&spec), k);
            run_simulation(cfg.clone().with_seed(seed), spec).expect("valid")
        })
        .collect();
    assert_eq!(engine, by_hand);
}

/// The sweep results match per-rate serial calls with grid-derived seeds.
#[test]
fn sweep_matches_explicit_serial_loop() {
    let cfg = quick_config();
    let spec = RouterSpec::QueueLength;
    let rates = [12.0, 20.0];
    let engine = sweep_rates_jobs(&cfg, spec, &rates, 4).expect("valid");
    for (i, point) in engine.iter().enumerate() {
        let seed = derive_seed(cfg.seed, i as u64, strategy_tag(&spec), 0);
        let by_hand = run_simulation(cfg.clone().with_total_rate(rates[i]).with_seed(seed), spec)
            .expect("valid");
        assert_eq!(point.total_rate, rates[i]);
        assert_eq!(point.metrics, by_hand, "rate {}", rates[i]);
    }
}

/// A grid with one invalid cell fails cleanly (no panic, no partial
/// results) with the same error under every job count. The companion
/// lowest-index-wins property is pinned with distinguishable errors in
/// the `try_parallel_map` unit tests.
#[test]
fn error_propagation_is_deterministic_across_job_counts() {
    let cfg = quick_config();
    let rates = [12.0, -1.0, 16.0, 20.0];
    let serial = sweep_rates_jobs(&cfg, RouterSpec::NoSharing, &rates, 1)
        .expect_err("negative rate must fail");
    for jobs in [2, 8] {
        let parallel = sweep_rates_jobs(&cfg, RouterSpec::NoSharing, &rates, jobs)
            .expect_err("negative rate must fail");
        assert_eq!(
            format!("{serial}"),
            format!("{parallel}"),
            "jobs={jobs} surfaced a different error"
        );
    }
}

/// On a machine with ≥ 4 cores, fanning a replication panel across all
/// cores must cut wall-clock time at least in half versus one worker.
/// Skipped (trivially passing) on smaller machines, where the speedup
/// target is unachievable by construction.
#[test]
fn parallel_speedup_on_multicore() {
    let cores = std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1);
    if cores < 4 {
        eprintln!("skipping speedup check: only {cores} core(s) available");
        return;
    }
    let cfg = SystemConfig::paper_default()
        .with_total_rate(20.0)
        .with_horizon(60.0, 10.0)
        .with_seed(7);
    let spec = RouterSpec::MinAverage {
        estimator: UtilizationEstimator::NumInSystem,
    };
    let reps = 2 * cores as u64;
    // Warm-up run so first-touch effects don't favour either side.
    replicate_jobs(&cfg, spec, cores as u64, 0).expect("valid");
    let t1 = std::time::Instant::now();
    let serial = replicate_jobs(&cfg, spec, reps, 1).expect("valid");
    let serial_elapsed = t1.elapsed();
    let t2 = std::time::Instant::now();
    let parallel = replicate_jobs(&cfg, spec, reps, 0).expect("valid");
    let parallel_elapsed = t2.elapsed();
    assert_eq!(serial, parallel);
    assert!(
        parallel_elapsed.as_secs_f64() <= serial_elapsed.as_secs_f64() / 2.0,
        "expected ≥2x speedup on {cores} cores: serial {serial_elapsed:?}, \
         parallel {parallel_elapsed:?}"
    );
}

/// Distinct grid coordinates never collide on a derived seed — the
/// property that makes "replication k" and "rate i" statistically
/// independent streams. Seeded randomized sweep over many bases plus an
/// exhaustive pass over a full coordinate grid for a handful of bases.
#[test]
fn derived_seeds_are_collision_free() {
    let mut rng = SimRng::seed_from_u64(0xC011_1DE5);
    for _ in 0..64 {
        let base = rng.random::<u64>();
        let mut seen = std::collections::HashMap::new();
        for rate in 0..16u64 {
            for strat in 0..8u64 {
                for rep in 0..16u64 {
                    let seed = derive_seed(base, rate, strat, rep);
                    if let Some(prev) = seen.insert(seed, (rate, strat, rep)) {
                        panic!(
                            "seed collision under base {base:#x}: \
                             {prev:?} and {:?} both map to {seed:#x}",
                            (rate, strat, rep)
                        );
                    }
                }
            }
        }
    }
}

/// Strategy tags separate every policy the sweep grid can hold,
/// including parameterized variants that differ only in their floats.
#[test]
fn strategy_tags_distinguish_parameterized_specs() {
    let mut rng = SimRng::seed_from_u64(0x7A65);
    for _ in 0..256 {
        let p1 = rng.random::<f64>();
        let p2 = rng.random::<f64>();
        if p1 == p2 {
            continue;
        }
        assert_ne!(
            strategy_tag(&RouterSpec::Static { p_ship: p1 }),
            strategy_tag(&RouterSpec::Static { p_ship: p2 }),
            "Static tags collided for p_ship {p1} vs {p2}"
        );
        assert_ne!(
            strategy_tag(&RouterSpec::UtilizationThreshold { threshold: p1 }),
            strategy_tag(&RouterSpec::UtilizationThreshold { threshold: p2 }),
            "UtilizationThreshold tags collided for {p1} vs {p2}"
        );
    }
}
