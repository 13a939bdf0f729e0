//! The experiment engine: parallel rate sweeps, seed replication, and
//! confidence-interval-driven output analysis.
//!
//! Every run in a sweep × strategy × replication grid is an independent
//! simulation, so the engine fans them out across a scoped-thread worker
//! pool ([`parallel_map`]) with **deterministic per-run seeds** derived
//! from the grid coordinates ([`derive_seed`]). Results are bit-identical
//! for any `jobs` value (thread count) and any completion order;
//! `jobs = 0` means "all cores".
//!
//! On top of the runner sits a statistics layer ([`MetricSummary`],
//! [`replicate_ci`], [`sweep_rates_ci`]) reporting mean, variance, and
//! Student-t 95% confidence half-widths across replications, including an
//! auto-replicate mode that adds replications until the relative
//! half-width of the mean response falls below a target.

mod parallel;
mod seed;
mod stats;

pub use parallel::{default_jobs, parallel_map, resolve_jobs, try_parallel_map};
pub use seed::{derive_seed, splitmix64, strategy_tag, NO_RATE_INDEX};
pub use stats::MetricSummary;

use hls_analytic::optimal_static_ship;

use crate::config::SystemConfig;
use crate::error::ConfigError;
use crate::metrics::RunMetrics;
use crate::router::RouterSpec;
use crate::system::run_simulation;

/// One point of a throughput sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Total offered arrival rate (transactions/second, summed over sites).
    pub total_rate: f64,
    /// Measured metrics at that rate.
    pub metrics: RunMetrics,
}

/// The static policy the paper compares against: the shipping probability
/// chosen by the Section 3.1 analytic model for this configuration's rate.
///
/// # Panics
///
/// Panics if the configuration is invalid.
#[must_use]
pub fn optimal_static_spec(cfg: &SystemConfig) -> RouterSpec {
    cfg.validate().expect("invalid configuration");
    let opt = optimal_static_ship(&cfg.params, cfg.mean_site_rate(), 50);
    RouterSpec::Static { p_ship: opt.p_ship }
}

/// Runs one grid cell: the simulation at `rate_index` / `replication` with
/// its deterministically derived seed.
fn run_cell(
    base: &SystemConfig,
    spec: RouterSpec,
    rate: Option<f64>,
    rate_index: u64,
    replication: u64,
) -> Result<RunMetrics, ConfigError> {
    let mut cfg = base.clone();
    if let Some(rate) = rate {
        cfg = cfg.with_total_rate(rate);
    }
    let seed = derive_seed(base.seed, rate_index, strategy_tag(&spec), replication);
    run_simulation(cfg.with_seed(seed), spec)
}

/// Runs `router` across `total_rates` on `jobs` worker threads (`0` = all
/// cores), returning one sweep point per rate in rate order. Results are
/// bit-identical for every `jobs` value.
///
/// For [`RouterSpec::Static`] policies pass the result of
/// [`optimal_static_spec`] per rate instead (the optimum depends on the
/// rate); use [`sweep_rates_static_jobs`] for that.
///
/// # Errors
///
/// Returns the configuration validation error of the lowest-index rate
/// that fails.
pub fn sweep_rates_jobs(
    base: &SystemConfig,
    router: RouterSpec,
    total_rates: &[f64],
    jobs: usize,
) -> Result<Vec<SweepPoint>, ConfigError> {
    try_parallel_map(jobs, total_rates, |i, &rate| {
        Ok(SweepPoint {
            total_rate: rate,
            metrics: run_cell(base, router, Some(rate), i as u64, 0)?,
        })
    })
}

/// [`sweep_rates_jobs`] on all cores.
///
/// # Errors
///
/// Returns the configuration validation error of the lowest-index rate
/// that fails.
pub fn sweep_rates(
    base: &SystemConfig,
    router: RouterSpec,
    total_rates: &[f64],
) -> Result<Vec<SweepPoint>, ConfigError> {
    sweep_rates_jobs(base, router, total_rates, 0)
}

/// Runs the *optimal static* policy across `total_rates` on `jobs` worker
/// threads, re-optimizing the shipping probability at each rate as the
/// paper does.
///
/// # Errors
///
/// Returns the configuration validation error of the lowest-index rate
/// that fails.
pub fn sweep_rates_static_jobs(
    base: &SystemConfig,
    total_rates: &[f64],
    jobs: usize,
) -> Result<Vec<SweepPoint>, ConfigError> {
    try_parallel_map(jobs, total_rates, |i, &rate| {
        let cfg = base.clone().with_total_rate(rate);
        cfg.validate()?;
        let spec = optimal_static_spec(&cfg);
        Ok(SweepPoint {
            total_rate: rate,
            metrics: run_cell(base, spec, Some(rate), i as u64, 0)?,
        })
    })
}

/// [`sweep_rates_static_jobs`] on all cores.
///
/// # Errors
///
/// Returns the configuration validation error of the lowest-index rate
/// that fails.
pub fn sweep_rates_static(
    base: &SystemConfig,
    total_rates: &[f64],
) -> Result<Vec<SweepPoint>, ConfigError> {
    sweep_rates_static_jobs(base, total_rates, 0)
}

/// Runs the same experiment under `n_seeds` replication seeds (derived
/// from the base seed via [`derive_seed`]) on `jobs` worker threads,
/// returning all results in replication order, for confidence estimation.
/// Results are bit-identical for every `jobs` value.
///
/// # Errors
///
/// Returns the configuration validation error of the lowest-index
/// replication that fails.
pub fn replicate_jobs(
    base: &SystemConfig,
    router: RouterSpec,
    n_seeds: u64,
    jobs: usize,
) -> Result<Vec<RunMetrics>, ConfigError> {
    let reps: Vec<u64> = (0..n_seeds).collect();
    try_parallel_map(jobs, &reps, |_, &k| {
        run_cell(base, router, None, NO_RATE_INDEX, k)
    })
}

/// [`replicate_jobs`] on all cores.
///
/// # Errors
///
/// Returns the configuration validation error of the lowest-index
/// replication that fails.
pub fn replicate(
    base: &SystemConfig,
    router: RouterSpec,
    n_seeds: u64,
) -> Result<Vec<RunMetrics>, ConfigError> {
    replicate_jobs(base, router, n_seeds, 0)
}

/// Mean of a metric across replications.
#[must_use]
pub fn mean_over(runs: &[RunMetrics], f: impl Fn(&RunMetrics) -> f64) -> f64 {
    if runs.is_empty() {
        return 0.0;
    }
    runs.iter().map(f).sum::<f64>() / runs.len() as f64
}

/// Summary of a metric across replications (mean, variance, 95% CI).
#[must_use]
pub fn summarize(runs: &[RunMetrics], f: impl Fn(&RunMetrics) -> f64) -> MetricSummary {
    MetricSummary::from_samples(runs.iter().map(f))
}

/// Options for confidence-targeted replication.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CiOptions {
    /// Worker threads; `0` = all cores.
    pub jobs: usize,
    /// Stop once the 95% CI half-width of the mean response is at or
    /// below this fraction of the mean (e.g. `0.05` = ±5%).
    pub rel_target: f64,
    /// Replications to run before the first convergence check (≥ 2).
    pub min_replications: u64,
    /// Hard cap on replications (the target may stay unmet).
    pub max_replications: u64,
    /// Replications added per round while the target is unmet. `0` means
    /// "one per worker thread", keeping every core busy each round.
    pub batch: u64,
}

impl Default for CiOptions {
    fn default() -> Self {
        CiOptions {
            jobs: 0,
            rel_target: 0.05,
            min_replications: 3,
            max_replications: 64,
            batch: 0,
        }
    }
}

/// Result of [`replicate_ci`]: the replications that were run plus the
/// across-replication summary of the mean response.
#[derive(Debug, Clone, PartialEq)]
pub struct CiRun {
    /// All replication results, in replication order.
    pub runs: Vec<RunMetrics>,
    /// Across-replication summary of `mean_response`.
    pub mean_response: MetricSummary,
    /// Whether `rel_target` was met within `max_replications`.
    pub target_met: bool,
}

/// Replicates until the 95% CI half-width of the mean response falls at
/// or below `opts.rel_target` of the mean, or `opts.max_replications` is
/// reached ("auto-replicate" mode).
///
/// Replication `k` always uses the same derived seed no matter how many
/// rounds it took to get there, so the result depends only on the number
/// of replications ultimately run — not on `jobs`, batch sizing, or
/// completion order.
///
/// # Errors
///
/// Returns the configuration validation error of the lowest-index
/// replication that fails.
pub fn replicate_ci(
    base: &SystemConfig,
    router: RouterSpec,
    opts: &CiOptions,
) -> Result<CiRun, ConfigError> {
    let min = opts.min_replications.clamp(2, opts.max_replications.max(2));
    let batch = if opts.batch == 0 {
        resolve_jobs(opts.jobs) as u64
    } else {
        opts.batch
    };
    let mut runs = replicate_jobs(base, router, min, opts.jobs)?;
    loop {
        let summary = summarize(&runs, |m| m.mean_response);
        if summary.meets_relative_target(opts.rel_target) {
            return Ok(CiRun {
                runs,
                mean_response: summary,
                target_met: true,
            });
        }
        let have = runs.len() as u64;
        if have >= opts.max_replications {
            return Ok(CiRun {
                runs,
                mean_response: summary,
                target_met: false,
            });
        }
        let next = (have + batch).min(opts.max_replications);
        let reps: Vec<u64> = (have..next).collect();
        runs.extend(try_parallel_map(opts.jobs, &reps, |_, &k| {
            run_cell(base, router, None, NO_RATE_INDEX, k)
        })?);
    }
}

/// One point of a confidence-reported sweep: every metric of interest
/// summarized across replications.
#[derive(Debug, Clone, PartialEq)]
pub struct CiSweepPoint {
    /// Total offered arrival rate.
    pub total_rate: f64,
    /// All replication results at this rate, in replication order.
    pub runs: Vec<RunMetrics>,
    /// Mean response time across replications.
    pub mean_response: MetricSummary,
    /// Throughput across replications.
    pub throughput: MetricSummary,
    /// Shipped fraction across replications.
    pub shipped_fraction: MetricSummary,
}

/// Sweeps `router` across `total_rates` with `replications` seeds per
/// rate, all (rate × replication) cells fanned out over the worker pool
/// together, and summarizes each rate across its replications.
///
/// # Errors
///
/// Returns the configuration validation error of the lowest-index cell
/// that fails.
pub fn sweep_rates_ci(
    base: &SystemConfig,
    router: RouterSpec,
    total_rates: &[f64],
    replications: u64,
    jobs: usize,
) -> Result<Vec<CiSweepPoint>, ConfigError> {
    let replications = replications.max(1);
    let cells: Vec<(u64, u64, f64)> = total_rates
        .iter()
        .enumerate()
        .flat_map(|(i, &rate)| (0..replications).map(move |k| (i as u64, k, rate)))
        .collect();
    let metrics = try_parallel_map(jobs, &cells, |_, &(rate_index, k, rate)| {
        run_cell(base, router, Some(rate), rate_index, k)
    })?;
    Ok(total_rates
        .iter()
        .enumerate()
        .map(|(i, &rate)| {
            let runs: Vec<RunMetrics> = cells
                .iter()
                .zip(&metrics)
                .filter(|(&(ri, _, _), _)| ri == i as u64)
                .map(|(_, m)| m.clone())
                .collect();
            CiSweepPoint {
                total_rate: rate,
                mean_response: summarize(&runs, |m| m.mean_response),
                throughput: summarize(&runs, |m| m.throughput),
                shipped_fraction: summarize(&runs, |m| m.shipped_fraction),
                runs,
            }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> SystemConfig {
        SystemConfig::paper_default()
            .with_total_rate(8.0)
            .with_horizon(60.0, 10.0)
    }

    #[test]
    fn optimal_static_depends_on_rate() {
        let low = optimal_static_spec(&SystemConfig::paper_default().with_total_rate(1.0));
        let high = optimal_static_spec(&SystemConfig::paper_default().with_total_rate(20.0));
        let RouterSpec::Static { p_ship: p_low } = low else {
            panic!("expected static spec")
        };
        let RouterSpec::Static { p_ship: p_high } = high else {
            panic!("expected static spec")
        };
        assert!(p_low < p_high, "{p_low} vs {p_high}");
    }

    #[test]
    fn sweep_produces_one_point_per_rate() {
        let pts = sweep_rates(&quick_cfg(), RouterSpec::QueueLength, &[5.0, 10.0]).unwrap();
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0].total_rate, 5.0);
        assert!(pts[0].metrics.completions > 0);
        assert!(pts[1].metrics.throughput > pts[0].metrics.throughput);
    }

    #[test]
    fn static_sweep_runs() {
        let pts = sweep_rates_static(&quick_cfg(), &[6.0]).unwrap();
        assert_eq!(pts.len(), 1);
        assert!(pts[0].metrics.completions > 0);
    }

    #[test]
    fn replications_differ_but_agree_roughly() {
        let runs = replicate(&quick_cfg(), RouterSpec::NoSharing, 3).unwrap();
        assert_eq!(runs.len(), 3);
        let mean = mean_over(&runs, |m| m.mean_response);
        for r in &runs {
            assert!((r.mean_response - mean).abs() / mean < 0.5);
        }
        // Different seeds give different samples.
        assert!(runs[0].mean_response != runs[1].mean_response);
    }

    #[test]
    fn mean_over_empty_is_zero() {
        assert_eq!(mean_over(&[], |m| m.mean_response), 0.0);
    }

    #[test]
    fn replicate_ci_meets_loose_target() {
        let ci = replicate_ci(
            &quick_cfg(),
            RouterSpec::NoSharing,
            &CiOptions {
                jobs: 2,
                rel_target: 0.5, // loose: a light-load run converges fast
                min_replications: 3,
                max_replications: 8,
                batch: 2,
            },
        )
        .unwrap();
        assert!(ci.runs.len() >= 3);
        assert!(ci.runs.len() <= 8);
        assert_eq!(ci.mean_response.n as usize, ci.runs.len());
        if ci.target_met {
            assert!(ci.mean_response.relative_half_width().unwrap() <= 0.5);
        } else {
            assert_eq!(ci.runs.len(), 8);
        }
    }

    #[test]
    fn replicate_ci_respects_max_cap() {
        let ci = replicate_ci(
            &quick_cfg(),
            RouterSpec::QueueLength,
            &CiOptions {
                jobs: 1,
                rel_target: 1e-12, // unreachable
                min_replications: 2,
                max_replications: 4,
                batch: 1,
            },
        )
        .unwrap();
        assert_eq!(ci.runs.len(), 4);
        assert!(!ci.target_met);
    }

    #[test]
    fn replicate_ci_prefix_matches_replicate() {
        // Auto-replication must reuse the same per-replication seeds as a
        // fixed-count run: the first k runs agree bit for bit.
        let ci = replicate_ci(
            &quick_cfg(),
            RouterSpec::NoSharing,
            &CiOptions {
                jobs: 2,
                rel_target: 1e-12,
                min_replications: 2,
                max_replications: 5,
                batch: 2,
            },
        )
        .unwrap();
        let fixed = replicate(&quick_cfg(), RouterSpec::NoSharing, ci.runs.len() as u64).unwrap();
        assert_eq!(ci.runs, fixed);
    }

    #[test]
    fn sweep_ci_summarizes_per_rate() {
        let pts = sweep_rates_ci(&quick_cfg(), RouterSpec::NoSharing, &[5.0, 8.0], 3, 2).unwrap();
        assert_eq!(pts.len(), 2);
        for p in &pts {
            assert_eq!(p.runs.len(), 3);
            assert_eq!(p.mean_response.n, 3);
            assert!(p.mean_response.half_width_95.is_some());
            assert!(p.throughput.mean > 0.0);
        }
        assert!(pts[1].throughput.mean > pts[0].throughput.mean);
    }
}
