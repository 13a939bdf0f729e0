//! The four benchmark workloads: configuration, router, replication
//! seeds, pinned digests and the simulated regime each must stay in.

use hls_core::{
    derive_seed, DriftSpec, FaultSchedule, PlacementConfig, RouterSpec, RunMetrics, SystemConfig,
    UtilizationEstimator,
};

/// Seed whose simulated output is pinned by [`Workload::pinned_digests`].
pub const DEFAULT_SEED: u64 = 1988;

/// One benchmark workload. Inside each simulation, arrivals are an
/// open-loop Poisson process in simulated time at the stated rate, so a
/// slow simulator never sees less offered load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Figure 4.1's best-dynamic cell: 10 sites, 20 tps, min-average
    /// routing with the population estimator. The per-arrival analytic
    /// estimate is about half the host time; locks stay uncontended.
    Paper,
    /// `ablation_lockspace` at lockspace 1,024, 20 tps, queue-length
    /// routing. The central deadlock cascade makes deadlock probes most
    /// of the host time, and the router costs nothing.
    Contended,
    /// N = 1,000 sites over K = 8 central shards, 1.5 tps per site,
    /// static shipping at 0.3, central capacity scaled with N: thousands
    /// of transactions in flight and cross-shard lock, auth and commit
    /// traffic.
    Scale,
    /// Hot-slow drift (dwell 60 s, hot_frac 1.0) under the threshold
    /// placement controller at 24 tps, queue-length and failure-aware
    /// routing, and a fixed outage schedule: the only workload that runs
    /// placement, drift generation and faults.
    Churn,
}

/// Simulated extent of one timing run of a workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shape {
    /// Simulated horizon, seconds.
    pub sim_time: f64,
    /// Warm-up excluded from the simulated metrics, seconds.
    pub warmup: f64,
    /// Independent simulations (seeds) per timing run. Where the work a
    /// run does depends strongly on its seed, several seeds per run keep
    /// the per-run figure from following the seed.
    pub replications: usize,
}

/// Site and shard counts of the `scale` workload.
const SCALE_SITES: usize = 1000;
const SCALE_SHARDS: usize = 8;

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::Paper,
        Workload::Contended,
        Workload::Scale,
        Workload::Churn,
    ];

    /// Name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper => "paper",
            Workload::Contended => "contended",
            Workload::Scale => "scale",
            Workload::Churn => "churn",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Total offered load, transactions per simulated second.
    pub fn offered_tps(self) -> f64 {
        match self {
            Workload::Paper | Workload::Contended => 20.0,
            Workload::Scale => 1.5 * SCALE_SITES as f64,
            Workload::Churn => 24.0,
        }
    }

    /// Simulated extent of one timing run.
    pub fn shape(self) -> Shape {
        let (sim_time, warmup, replications) = match self {
            Workload::Paper => (400.0, 20.0, 3),
            Workload::Contended => (400.0, 20.0, 4),
            Workload::Scale => (20.0, 4.0, 1),
            // 2,400 s with a 20 s warm-up is the run the placement-stall
            // finding in the notes was measured on.
            Workload::Churn => (2400.0, 20.0, 16),
        };
        Shape {
            sim_time,
            warmup,
            replications,
        }
    }

    /// Seed of replication `rep` under benchmark seed `seed`. Replication
    /// 0 runs the benchmark seed itself; the others derive independent
    /// streams from it.
    fn replication_seed(seed: u64, rep: usize) -> u64 {
        if rep == 0 {
            seed
        } else {
            derive_seed(seed, 0, 0, rep as u64)
        }
    }

    /// The simulator configuration of replication `rep`, with simulated
    /// time multiplied by `time_scale` (1.0 when measuring; tests shorten
    /// it). The outage schedule sits at fixed fractions of the horizon,
    /// so a shortened run still crosses every transition.
    pub fn config(self, seed: u64, rep: usize, time_scale: f64) -> SystemConfig {
        let shape = self.shape();
        let h = shape.sim_time * time_scale;
        let base = SystemConfig::paper_default()
            .with_horizon(h, shape.warmup * time_scale)
            .with_seed(Workload::replication_seed(seed, rep));
        let mut cfg = match self {
            Workload::Paper => base,
            Workload::Contended => {
                let mut cfg = base;
                cfg.params.lockspace = 1024.0;
                cfg
            }
            Workload::Scale => {
                let n = SCALE_SITES as f64;
                let mut cfg = base.with_shards(SCALE_SHARDS);
                cfg.params.n_sites = SCALE_SITES;
                cfg.params.lockspace = 32.0 * 1024.0 * (n / 10.0);
                cfg.params.central_mips = 15.0e6 * (n / 10.0) / SCALE_SHARDS as f64;
                cfg
            }
            Workload::Churn => {
                let mut cfg = base
                    .with_placement(PlacementConfig::threshold_default())
                    .with_drift(DriftSpec::HotMigration {
                        dwell: 60.0,
                        hot_frac: 1.0,
                    })
                    .with_faults(
                        FaultSchedule::empty()
                            .site_outage(0, 0.20 * h, 0.25 * h)
                            .link_outage(3, 0.30 * h, 0.35 * h)
                            .latency_spike(5, 0.15 * h, 0.65 * h, 4.0)
                            .central_outage(0.45 * h, 0.455 * h)
                            .site_outage(2, 0.70 * h, 0.75 * h),
                    );
                cfg.failure_aware = true;
                cfg
            }
        };
        cfg.scale_metrics = true;
        // The per-site rate depends on the site count, so it is set once
        // the topology is final.
        cfg.with_total_rate(self.offered_tps())
    }

    /// Routing policy.
    pub fn router(self) -> RouterSpec {
        match self {
            Workload::Paper => RouterSpec::MinAverage {
                estimator: UtilizationEstimator::NumInSystem,
            },
            Workload::Contended | Workload::Churn => RouterSpec::QueueLength,
            Workload::Scale => RouterSpec::Static { p_ship: 0.3 },
        }
    }

    /// Digests of each replication's simulated output at
    /// [`DEFAULT_SEED`], unscaled. A change to the simulator's behaviour
    /// must re-pin these on purpose.
    pub fn pinned_digests(self) -> &'static [u64] {
        match self {
            Workload::Paper => &[
                0xd640_6c2e_26e2_887f,
                0xd093_c36d_4055_0556,
                0xcc2f_5020_ae48_677e,
            ],
            Workload::Contended => &[
                0xe26d_6d26_512d_2d5b,
                0x8a19_f16a_38dc_2779,
                0x702d_7a85_de7c_6d91,
                0x9bfa_9705_fbc1_f72b,
            ],
            Workload::Scale => &[0x2845_ff2b_101f_50e1],
            Workload::Churn => &[
                0x0862_f57e_0a2c_b512,
                0x6036_0a0e_1cd0_8a2e,
                0xee7f_c328_3fe5_b8f7,
                0xf3aa_3f4e_720f_f0f4,
                0x8691_64e6_7bcd_a404,
                0xa3f2_d609_8412_18da,
                0x3679_ac2e_dd68_8420,
                0x6a3a_9362_55f2_00c9,
                0x3eaf_845c_c93b_2730,
                0xd516_0825_99ff_34e4,
                0xa6fd_ab51_8320_e7a4,
                0x214c_8f6a_0884_ae46,
                0x05e6_b891_f937_92fd,
                0x35f8_0982_0510_2b9e,
                0x6fc3_863c_6bd2_98ac,
                0xc1e4_4fce_9383_edb5,
            ],
        }
    }

    /// Checks that a measurement-length run stayed in the regime this
    /// workload exists to measure, so that no cell silently measures
    /// something else.
    pub fn check_regime(self, m: &RunMetrics) -> Result<(), String> {
        let keeps_up = || {
            let share = m.throughput / self.offered_tps();
            if share >= 0.9 {
                Ok(())
            } else {
                Err(format!(
                    "completes only {:.1}% of the offered {} tps",
                    100.0 * share,
                    self.offered_tps()
                ))
            }
        };
        match self {
            Workload::Paper => keeps_up(),
            Workload::Contended => {
                let deadlocks = m.aborts.deadlock_local + m.aborts.deadlock_central;
                if deadlocks > m.completions {
                    Ok(())
                } else {
                    Err(format!(
                        "{deadlocks} deadlock aborts do not exceed {} completions",
                        m.completions
                    ))
                }
            }
            Workload::Scale => {
                keeps_up()?;
                match &m.scale {
                    Some(s) if s.cross_shard_messages > 0 => Ok(()),
                    _ => Err("no cross-shard traffic".into()),
                }
            }
            Workload::Churn => {
                let migrated = m
                    .placement
                    .as_ref()
                    .is_some_and(|p| p.migrations_completed > 0);
                let a = &m.availability;
                let faulted =
                    a.crash_aborts_site + a.crash_aborts_central + a.deferred_messages > 0;
                match (migrated, faulted) {
                    (true, true) => Ok(()),
                    (false, _) => Err("no migration completed".into()),
                    (_, false) => Err("no fault transition took effect".into()),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_core::HybridSystem;

    fn short_run(w: Workload) -> RunMetrics {
        HybridSystem::new(w.config(5, 0, 0.05), w.router())
            .expect("workload configurations are valid")
            .run()
    }

    #[test]
    fn regime_checks_reject_a_cell_that_left_its_regime() {
        let mut paper = short_run(Workload::Paper);
        paper.throughput = 0.5 * Workload::Paper.offered_tps();
        let err = Workload::Paper.check_regime(&paper).unwrap_err();
        assert!(err.contains("offered"), "{err}");

        let mut contended = short_run(Workload::Contended);
        contended.completions = contended.aborts.deadlock_local + contended.aborts.deadlock_central;
        let err = Workload::Contended.check_regime(&contended).unwrap_err();
        assert!(err.contains("deadlock"), "{err}");

        let mut scale = short_run(Workload::Scale);
        scale.throughput = Workload::Scale.offered_tps();
        if let Some(s) = scale.scale.as_mut() {
            s.cross_shard_messages = 0;
        }
        let err = Workload::Scale.check_regime(&scale).unwrap_err();
        assert!(err.contains("cross-shard"), "{err}");

        let mut churn = short_run(Workload::Churn);
        churn.placement = None;
        let err = Workload::Churn.check_regime(&churn).unwrap_err();
        assert!(err.contains("migration"), "{err}");
    }
}
