//! Simulation configuration.

use hls_analytic::SystemParams;
use hls_faults::FaultSchedule;
use hls_net::{DelayMatrix, IslandSpec};
use hls_obs::ObsConfig;
use hls_placement::{PartitionGeometry, PlacementConfig};
use hls_shard::ShardSpec;
use hls_workload::{DriftSpec, RateProfile, WorkloadSpec};

/// How class B (non-local data) transactions are executed.
///
/// The paper ships them whole to the central complex, noting:
/// "potentially, these transactions could be run at a local site, making
/// remote function calls to the central site to obtain required data;
/// however, we do not analyze this possibility here." [`ClassBMode::RemoteCalls`]
/// implements that unanalyzed alternative: the transaction stays at its
/// origin and performs one central round trip per database call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClassBMode {
    /// Ship the whole transaction to the central complex (the paper).
    #[default]
    ShipWhole,
    /// Run at the origin with one remote function call per database call.
    RemoteCalls,
}

/// Which transaction is aborted to break a deadlock cycle.
///
/// The paper aborts the transaction whose lock request closed the cycle
/// ("in the case of a contention that leads into a deadlock the
/// transaction is aborted"); the alternatives are classic DBMS victim
/// policies provided as extensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeadlockVictim {
    /// Abort the requester that closed the cycle (the paper's rule).
    #[default]
    Requester,
    /// Abort the youngest (most recently arrived) cycle member.
    Youngest,
    /// Abort the cycle member holding the fewest locks (least work lost).
    FewestLocks,
}

/// Full configuration of a hybrid-system simulation run.
///
/// Combines the physical parameters shared with the analytic model
/// ([`SystemParams`]), the workload description, and simulation controls.
///
/// # Examples
///
/// ```
/// use hls_core::SystemConfig;
///
/// let cfg = SystemConfig::paper_default()
///     .with_total_rate(20.0)
///     .with_seed(7);
/// assert_eq!(cfg.params.n_sites, 10);
/// cfg.validate().unwrap();
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Physical parameters (sites, MIPS, delays, pathlengths, I/O times).
    pub params: SystemParams,
    /// Fraction of lock requests made in exclusive mode (see
    /// [`WorkloadSpec::write_fraction`]).
    pub write_fraction: f64,
    /// Per-site arrival-rate profile. All sites share the profile unless
    /// [`SystemConfig::site_profiles`] is set.
    pub arrival_profile: RateProfile,
    /// Optional per-site profiles (length must equal `params.n_sites`);
    /// overrides `arrival_profile` for heterogeneous-load scenarios.
    pub site_profiles: Option<Vec<RateProfile>>,
    /// Simulated duration, seconds.
    pub sim_time: f64,
    /// Warm-up period discarded from statistics, seconds.
    pub warmup: f64,
    /// Master random seed.
    pub seed: u64,
    /// When `true`, routers observe the central state instantaneously
    /// instead of via snapshots piggybacked on protocol messages (the
    /// paper's "ideal case" ablation).
    pub instantaneous_state: bool,
    /// When set, asynchronous updates are buffered per site and flushed
    /// every `window` seconds in one batched message ("these asynchronous
    /// messages may also be batched to reduce the overheads involved").
    pub async_batch_window: Option<f64>,
    /// Deadlock victim-selection policy.
    pub deadlock_victim: DeadlockVictim,
    /// Execution mode for class B transactions.
    pub class_b_mode: ClassBMode,
    /// Deterministic fault-injection schedule. The default (empty) schedule
    /// leaves the simulation bit-identical to a fault-free build.
    pub fault_schedule: FaultSchedule,
    /// When `true`, routing is failure-aware: class A fails over to the
    /// central complex while its site is down (and runs locally while the
    /// central complex is unreachable), and class B retries with backoff
    /// instead of being rejected outright.
    pub failure_aware: bool,
    /// Delay before a class B transaction blocked by an unreachable central
    /// complex is retried, seconds (failure-aware mode only).
    pub fault_retry_backoff: f64,
    /// Retries granted to such a transaction before it is rejected.
    pub fault_max_retries: u32,
    /// Maximum restart backoff delay for a deadlock victim, seconds.
    /// The victim re-runs after a seed-derived fraction of this window.
    /// `None` (the default) keeps the historical behaviour of one
    /// database-call service time at the victim's locale.
    pub deadlock_backoff_window: Option<f64>,
    /// Which observability facilities to enable (histograms, profiling).
    /// The default (everything off) is the zero-overhead configuration;
    /// enabling them never changes simulated outcomes.
    pub obs: ObsConfig,
    /// How the central complex is sharded. The default
    /// ([`ShardSpec::Single`]) is one central node, bit-identical to the
    /// unsharded system; `Even { k }` splits the sites' partitions across
    /// `k` central nodes. The spec is resolved against `params.n_sites` at
    /// system construction, so editing the site count never leaves a stale
    /// map behind.
    pub shards: ShardSpec,
    /// When `true`, [`RunMetrics`](crate::RunMetrics) carries a
    /// [`ScaleReport`](crate::ScaleReport) (peak in-flight transactions,
    /// state-bytes and bytes/txn estimates, cross-shard traffic). Off by
    /// default so existing goldens and equivalence harnesses see an
    /// unchanged metrics rendering.
    pub scale_metrics: bool,
    /// Data-placement controller configuration. The default
    /// ([`PlacementPolicy::Static`](hls_placement::PlacementPolicy::Static)
    /// with no drift) keeps the paper's
    /// frozen partition-to-site assignment and is bit-identical to a
    /// build without the placement subsystem; `Threshold`/`Epoch`
    /// policies re-home partitions online, reclassifying transactions
    /// A↔B at admission.
    pub placement: PlacementConfig,
    /// Optional workload locality drift (see [`DriftSpec`]). `None`
    /// keeps the paper's stationary workload. Any drift activates the
    /// placement runtime (admission-time classification and
    /// [`PlacementReport`](crate::PlacementReport) accounting) even
    /// under the `Static` policy, so static-vs-adaptive comparisons
    /// share one code path.
    pub drift: Option<DriftSpec>,
    /// Per-site CPU speeds in instructions/second (length must equal
    /// `params.n_sites`). `None` keeps every site at the nominal
    /// `params.local_mips`; a vector of all-`local_mips` values is
    /// bit-identical to `None` (the homogeneity contract).
    pub site_mips: Option<Vec<f64>>,
    /// Per-central-shard CPU speeds in instructions/second (length must
    /// equal the resolved shard count). `None` keeps every shard at the
    /// nominal `params.central_mips`.
    pub central_shard_mips: Option<Vec<f64>>,
    /// Hardware-island topology: groups sites into islands with a cheap
    /// intra-island delay and an expensive inter-island delay, and
    /// places the central complex in one island (see [`IslandSpec`]).
    /// Lowers to per-site link delays at system construction. `None`
    /// keeps the uniform `params.comm_delay` star; a one-island spec
    /// whose delay equals `comm_delay` is bit-identical to `None`.
    pub islands: Option<IslandSpec>,
    /// Explicit per-link delay matrix over `n_sites + 1` nodes (see
    /// [`DelayMatrix`]) for shapes no island grouping expresses.
    /// Mutually exclusive with [`SystemConfig::islands`].
    pub link_delays: Option<DelayMatrix>,
}

impl SystemConfig {
    /// The paper's Section 4.1 configuration at a placeholder rate of
    /// 1 transaction/second/site; set the rate with
    /// [`SystemConfig::with_total_rate`] or
    /// [`SystemConfig::with_site_rate`].
    #[must_use]
    pub fn paper_default() -> Self {
        SystemConfig {
            params: SystemParams::paper_default(),
            write_fraction: 1.0,
            arrival_profile: RateProfile::Constant(1.0),
            site_profiles: None,
            sim_time: 400.0,
            warmup: 80.0,
            seed: 42,
            instantaneous_state: false,
            async_batch_window: None,
            deadlock_victim: DeadlockVictim::default(),
            class_b_mode: ClassBMode::default(),
            fault_schedule: FaultSchedule::empty(),
            failure_aware: false,
            fault_retry_backoff: 1.0,
            fault_max_retries: 3,
            deadlock_backoff_window: None,
            obs: ObsConfig::default(),
            shards: ShardSpec::Single,
            scale_metrics: false,
            placement: PlacementConfig::default(),
            drift: None,
            site_mips: None,
            central_shard_mips: None,
            islands: None,
            link_delays: None,
        }
    }

    /// Sets the hardware-island topology.
    #[must_use]
    pub fn with_islands(mut self, islands: IslandSpec) -> Self {
        self.islands = Some(islands);
        self
    }

    /// Sets an explicit per-link delay matrix.
    #[must_use]
    pub fn with_link_delays(mut self, matrix: DelayMatrix) -> Self {
        self.link_delays = Some(matrix);
        self
    }

    /// Sets per-site CPU speeds (instructions/second, one per site).
    #[must_use]
    pub fn with_site_mips(mut self, mips: Vec<f64>) -> Self {
        self.site_mips = Some(mips);
        self
    }

    /// Sets per-central-shard CPU speeds (instructions/second, one per
    /// shard).
    #[must_use]
    pub fn with_central_shard_mips(mut self, mips: Vec<f64>) -> Self {
        self.central_shard_mips = Some(mips);
        self
    }

    /// CPU speed of `site` in instructions/second: its `site_mips`
    /// entry, or the nominal `params.local_mips`.
    ///
    /// # Panics
    ///
    /// Panics if a configured `site_mips` vector is shorter than
    /// `site + 1` (rejected by [`SystemConfig::validate`]).
    #[must_use]
    pub fn site_mips_of(&self, site: usize) -> f64 {
        match &self.site_mips {
            Some(v) => v[site],
            None => self.params.local_mips,
        }
    }

    /// CPU speed of central shard `k` in instructions/second: its
    /// `central_shard_mips` entry, or the nominal `params.central_mips`.
    ///
    /// # Panics
    ///
    /// Panics if a configured `central_shard_mips` vector is shorter
    /// than `k + 1` (rejected by [`SystemConfig::validate`]).
    #[must_use]
    pub fn central_mips_of(&self, k: usize) -> f64 {
        match &self.central_shard_mips {
            Some(v) => v[k],
            None => self.params.central_mips,
        }
    }

    /// The per-site one-way site↔central link delays implied by the
    /// topology, or `None` for the legacy uniform star (every link at
    /// `params.comm_delay`).
    #[must_use]
    pub fn site_link_delays(&self) -> Option<Vec<f64>> {
        if let Some(spec) = &self.islands {
            return Some(spec.site_central_delays());
        }
        self.link_delays
            .as_ref()
            .map(DelayMatrix::site_central_delays)
    }

    /// The largest one-way site↔central link delay in the topology
    /// (`params.comm_delay` for the uniform star).
    #[must_use]
    pub fn max_link_delay(&self) -> f64 {
        match self.site_link_delays() {
            None => self.params.comm_delay,
            Some(d) => d.iter().copied().fold(0.0, f64::max),
        }
    }

    /// Sets the placement-controller configuration.
    #[must_use]
    pub fn with_placement(mut self, placement: PlacementConfig) -> Self {
        self.placement = placement;
        self
    }

    /// Sets the workload locality drift model.
    #[must_use]
    pub fn with_drift(mut self, drift: DriftSpec) -> Self {
        self.drift = Some(drift);
        self
    }

    /// Whether this configuration activates the placement runtime:
    /// either the placement policy can migrate partitions, or workload
    /// drift forces admission-time classification.
    #[must_use]
    pub fn placement_active(&self) -> bool {
        self.placement.is_adaptive() || self.drift.is_some()
    }

    /// Shards the central complex into `k` even contiguous shards
    /// (`k = 1` restores the single-central default).
    #[must_use]
    pub fn with_shards(mut self, k: usize) -> Self {
        self.shards = if k == 1 {
            ShardSpec::Single
        } else {
            ShardSpec::Even { k }
        };
        self
    }

    /// Sets the maximum deadlock-victim restart backoff window, seconds.
    #[must_use]
    pub fn with_deadlock_backoff_window(mut self, window: f64) -> Self {
        self.deadlock_backoff_window = Some(window);
        self
    }

    /// Sets the observability configuration.
    #[must_use]
    pub fn with_obs(mut self, obs: ObsConfig) -> Self {
        self.obs = obs;
        self
    }

    /// Sets the fault-injection schedule and enables failure-aware routing.
    #[must_use]
    pub fn with_faults(mut self, schedule: FaultSchedule) -> Self {
        self.fault_schedule = schedule;
        self.failure_aware = true;
        self
    }

    /// Sets the per-site arrival rate (transactions/second).
    #[must_use]
    pub fn with_site_rate(mut self, rate: f64) -> Self {
        self.arrival_profile = RateProfile::Constant(rate);
        self
    }

    /// Sets the total arrival rate summed over all sites.
    #[must_use]
    pub fn with_total_rate(self, total: f64) -> Self {
        let n = self.params.n_sites as f64;
        self.with_site_rate(total / n)
    }

    /// Sets the master random seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the simulated duration and warm-up.
    #[must_use]
    pub fn with_horizon(mut self, sim_time: f64, warmup: f64) -> Self {
        self.sim_time = sim_time;
        self.warmup = warmup;
        self
    }

    /// Sets the one-way communications delay.
    #[must_use]
    pub fn with_comm_delay(mut self, delay: f64) -> Self {
        self.params.comm_delay = delay;
        self
    }

    /// The workload specification implied by this configuration.
    #[must_use]
    pub fn workload_spec(&self) -> WorkloadSpec {
        WorkloadSpec {
            n_sites: self.params.n_sites,
            lockspace: self.params.lockspace as u32,
            locks_per_txn: self.params.locks_per_txn as usize,
            p_local: self.params.p_local,
            write_fraction: self.write_fraction,
        }
    }

    /// Mean per-site arrival rate (over the profile period).
    #[must_use]
    pub fn mean_site_rate(&self) -> f64 {
        match &self.site_profiles {
            Some(profiles) => {
                profiles.iter().map(RateProfile::mean_rate).sum::<f64>()
                    / profiles.len().max(1) as f64
            }
            None => self.arrival_profile.mean_rate(),
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        self.params.validate()?;
        self.workload_spec().validate()?;
        if self.sim_time <= 0.0 {
            return Err("sim_time must be positive".into());
        }
        if self.warmup < 0.0 || self.warmup >= self.sim_time {
            return Err("warmup must be in [0, sim_time)".into());
        }
        if let Some(profiles) = &self.site_profiles {
            if profiles.len() != self.params.n_sites {
                return Err(format!(
                    "site_profiles has {} entries for {} sites",
                    profiles.len(),
                    self.params.n_sites
                ));
            }
            for p in profiles {
                if p.max_rate() <= 0.0 {
                    return Err("every site profile needs a positive peak rate".into());
                }
            }
        } else if self.arrival_profile.max_rate() <= 0.0 {
            return Err("arrival profile needs a positive peak rate".into());
        }
        if let Some(w) = self.async_batch_window {
            if w <= 0.0 || !w.is_finite() {
                return Err("async_batch_window must be positive and finite".into());
            }
        }
        self.fault_schedule
            .validate(self.params.n_sites)
            .map_err(|e| format!("fault schedule: {e}"))?;
        if !(self.fault_retry_backoff > 0.0 && self.fault_retry_backoff.is_finite()) {
            return Err("fault_retry_backoff must be positive and finite".into());
        }
        if let Some(w) = self.deadlock_backoff_window {
            if !(w >= 0.0 && w.is_finite()) {
                return Err("deadlock_backoff_window must be non-negative and finite".into());
            }
        }
        // The shard spec must partition the site set exactly — overlaps,
        // gaps, empty shards, and shard counts exceeding the site count are
        // all rejected here with the hls-shard error text.
        let n_shards = self
            .shards
            .resolve(self.params.n_sites)
            .map_err(|e| format!("shard map: {e}"))?
            .n_shards();
        self.placement
            .validate()
            .map_err(|e| format!("placement: {e}"))?;
        if let Some(d) = &self.drift {
            d.validate().map_err(|e| format!("drift: {e}"))?;
        }
        // Partition geometry must be constructible for the configured
        // site count and lock space even when the policy is Static,
        // so that flipping the policy never changes validity.
        PartitionGeometry::new(
            self.params.n_sites,
            self.params.lockspace as u32,
            self.placement.parts_per_site,
        )
        .map_err(|e| format!("placement: {e}"))?;
        // The placement runtime is single-complex machinery: migrations
        // move store entries through one central complex, and the
        // sharded router has no epoch protocol. Reject the combination
        // rather than silently mis-routing.
        if self.placement_active() && n_shards > 1 {
            return Err(format!(
                "adaptive placement and workload drift require a single central \
                 complex (shard map resolves to {n_shards} shards)"
            ));
        }
        if let Some(mips) = &self.site_mips {
            if mips.len() != self.params.n_sites {
                return Err(format!(
                    "site_mips has {} entries for {} sites",
                    mips.len(),
                    self.params.n_sites
                ));
            }
            if let Some(bad) = mips.iter().find(|m| !(m.is_finite() && **m > 0.0)) {
                return Err(format!(
                    "site_mips entries must be positive and finite, got {bad}"
                ));
            }
        }
        if let Some(mips) = &self.central_shard_mips {
            if mips.len() != n_shards {
                return Err(format!(
                    "central_shard_mips has {} entries for {n_shards} shards",
                    mips.len()
                ));
            }
            if let Some(bad) = mips.iter().find(|m| !(m.is_finite() && **m > 0.0)) {
                return Err(format!(
                    "central_shard_mips entries must be positive and finite, got {bad}"
                ));
            }
        }
        if self.islands.is_some() && self.link_delays.is_some() {
            return Err("islands and link_delays are mutually exclusive; pick one topology".into());
        }
        if let Some(spec) = &self.islands {
            spec.validate().map_err(|e| format!("islands: {e}"))?;
            if spec.n_sites() != self.params.n_sites {
                return Err(format!(
                    "islands: spec covers {} sites, config has {}",
                    spec.n_sites(),
                    self.params.n_sites
                ));
            }
        }
        if let Some(m) = &self.link_delays {
            m.validate().map_err(|e| format!("link_delays: {e}"))?;
            if m.n_sites() != self.params.n_sites {
                return Err(format!(
                    "link_delays: matrix covers {} sites, config has {}",
                    m.n_sites(),
                    self.params.n_sites
                ));
            }
        }
        Ok(())
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_placement::PlacementPolicy;

    #[test]
    fn paper_default_validates() {
        assert!(SystemConfig::paper_default().validate().is_ok());
        assert_eq!(SystemConfig::default(), SystemConfig::paper_default());
    }

    #[test]
    fn total_rate_divides_across_sites() {
        let cfg = SystemConfig::paper_default().with_total_rate(25.0);
        assert!((cfg.mean_site_rate() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn builders_set_fields() {
        let cfg = SystemConfig::paper_default()
            .with_seed(9)
            .with_horizon(100.0, 10.0)
            .with_comm_delay(0.5);
        assert_eq!(cfg.seed, 9);
        assert_eq!(cfg.sim_time, 100.0);
        assert_eq!(cfg.warmup, 10.0);
        assert_eq!(cfg.params.comm_delay, 0.5);
    }

    #[test]
    fn workload_spec_mirrors_params() {
        let spec = SystemConfig::paper_default().workload_spec();
        assert_eq!(spec.n_sites, 10);
        assert_eq!(spec.lockspace, 32 * 1024);
        assert_eq!(spec.locks_per_txn, 10);
        assert_eq!(spec.p_local, 0.75);
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let base = SystemConfig::paper_default();
        let mut c = base.clone();
        c.sim_time = 0.0;
        assert!(c.validate().is_err());
        let mut c = base.clone();
        c.warmup = c.sim_time;
        assert!(c.validate().is_err());
        let mut c = base.clone();
        c.site_profiles = Some(vec![RateProfile::Constant(1.0); 3]);
        assert!(c.validate().is_err());
        let mut c = base.clone();
        c.async_batch_window = Some(0.0);
        assert!(c.validate().is_err());
        let mut c = base.clone();
        c.arrival_profile = RateProfile::Constant(0.0);
        assert!(c.validate().is_err());
        let mut c = base.clone();
        c.fault_schedule = FaultSchedule::empty().site_outage(99, 1.0, 2.0);
        assert!(c.validate().unwrap_err().contains("fault schedule"));
        let mut c = base.clone();
        c.fault_retry_backoff = 0.0;
        assert!(c.validate().is_err());
        let mut c = base;
        c.deadlock_backoff_window = Some(f64::NAN);
        assert!(c.validate().is_err());
    }

    #[test]
    fn obs_and_backoff_builders() {
        let cfg = SystemConfig::paper_default()
            .with_deadlock_backoff_window(0.25)
            .with_obs(ObsConfig::full());
        assert_eq!(cfg.deadlock_backoff_window, Some(0.25));
        assert!(cfg.obs.histograms && cfg.obs.profile);
        assert!(cfg.validate().is_ok());
        // Zero window (immediate restart) is a valid setting.
        let cfg = SystemConfig::paper_default().with_deadlock_backoff_window(0.0);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn with_faults_sets_schedule_and_enables_failover() {
        let cfg = SystemConfig::paper_default()
            .with_faults(FaultSchedule::empty().site_outage(0, 10.0, 20.0));
        assert!(cfg.failure_aware);
        assert_eq!(cfg.fault_schedule.len(), 2);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn default_class_b_mode_ships_whole() {
        assert_eq!(ClassBMode::default(), ClassBMode::ShipWhole);
    }

    #[test]
    fn default_victim_is_requester() {
        assert_eq!(DeadlockVictim::default(), DeadlockVictim::Requester);
        assert_eq!(
            SystemConfig::paper_default().deadlock_victim,
            DeadlockVictim::Requester
        );
    }

    #[test]
    fn shard_builder_and_default() {
        let base = SystemConfig::paper_default();
        assert_eq!(base.shards, ShardSpec::Single);
        assert!(!base.scale_metrics);
        assert_eq!(base.clone().with_shards(1).shards, ShardSpec::Single);
        let cfg = base.with_shards(4);
        assert_eq!(cfg.shards, ShardSpec::Even { k: 4 });
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn validation_rejects_non_partitioning_shard_maps() {
        let base = SystemConfig::paper_default(); // 10 sites

        // Overlap: site 4 claimed by shards 0 and 1.
        let mut c = base.clone();
        c.shards = ShardSpec::Explicit(vec![(0, 5), (4, 10)]);
        let err = c.validate().unwrap_err();
        assert!(err.starts_with("shard map:"), "{err}");
        assert!(err.contains("overlap"), "{err}");

        // Gap: site 4 belongs to no shard.
        let mut c = base.clone();
        c.shards = ShardSpec::Explicit(vec![(0, 4), (5, 10)]);
        let err = c.validate().unwrap_err();
        assert!(err.contains("gap"), "{err}");
        assert!(err.contains("[4, 5)"), "{err}");

        // Truncated coverage: sites 8 and 9 unhomed.
        let mut c = base.clone();
        c.shards = ShardSpec::Explicit(vec![(0, 8)]);
        let err = c.validate().unwrap_err();
        assert!(err.contains("gap") && err.contains("[8, 10)"), "{err}");

        // More shards than sites.
        let mut c = base.clone();
        c.shards = ShardSpec::Even { k: 11 };
        let err = c.validate().unwrap_err();
        assert!(
            err.contains("every shard must home at least one site"),
            "{err}"
        );

        // The spec is resolved against the *current* site count: shrinking
        // the topology after choosing K invalidates the config rather than
        // silently carrying a stale map.
        let mut c = base.with_shards(8);
        assert!(c.validate().is_ok());
        c.params.n_sites = 4;
        assert!(c.validate().is_err());
    }

    #[test]
    fn placement_builders_and_default() {
        let base = SystemConfig::paper_default();
        assert_eq!(base.placement, PlacementConfig::default());
        assert_eq!(base.placement.policy, PlacementPolicy::Static);
        assert!(base.drift.is_none());
        assert!(!base.placement_active());

        let adaptive = base
            .clone()
            .with_placement(PlacementConfig::threshold_default());
        assert!(adaptive.placement.is_adaptive());
        assert!(adaptive.placement_active());
        assert!(adaptive.validate().is_ok());

        // Drift alone also activates the placement runtime, even with a
        // Static policy (classification must follow the drifted stream).
        let drifted = base.with_drift(DriftSpec::Zipf { theta: 0.9 });
        assert_eq!(drifted.placement.policy, PlacementPolicy::Static);
        assert!(drifted.placement_active());
        assert!(drifted.validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_placement_configs() {
        let base = SystemConfig::paper_default();

        let mut c = base.clone();
        c.placement.interval = 0.0;
        let err = c.validate().unwrap_err();
        assert!(err.starts_with("placement:"), "{err}");

        let mut c = base.clone();
        c.placement.policy = PlacementPolicy::Threshold { remote_frac: 1.5 };
        assert!(c.validate().is_err());

        let mut c = base.clone();
        c.drift = Some(DriftSpec::HotMigration {
            dwell: -1.0,
            hot_frac: 0.9,
        });
        let err = c.validate().unwrap_err();
        assert!(err.starts_with("drift:"), "{err}");

        // Geometry must be constructible even under the Static policy:
        // more sub-partitions than the per-site lock slice can hold.
        let mut c = base.clone();
        c.placement.parts_per_site = 40_000;
        let err = c.validate().unwrap_err();
        assert!(err.starts_with("placement:"), "{err}");

        // Adaptive placement (or drift) is single-complex machinery.
        let c = base
            .clone()
            .with_shards(2)
            .with_placement(PlacementConfig::threshold_default());
        let err = c.validate().unwrap_err();
        assert!(err.contains("single central complex"), "{err}");
        let c = base.with_shards(2).with_drift(DriftSpec::Diurnal {
            period: 120.0,
            amplitude: 0.2,
        });
        let err = c.validate().unwrap_err();
        assert!(err.contains("single central complex"), "{err}");
    }

    #[test]
    fn topology_builders_and_helpers() {
        let base = SystemConfig::paper_default(); // 10 sites, comm 0.2
        assert!(base.site_link_delays().is_none());
        assert_eq!(base.max_link_delay(), 0.2);
        assert_eq!(base.site_mips_of(3), base.params.local_mips);
        assert_eq!(base.central_mips_of(0), base.params.central_mips);

        let cfg = base
            .clone()
            .with_islands(IslandSpec::contiguous(10, 2, 0, 0.05, 0.5))
            .with_site_mips(vec![2.0e6; 10]);
        assert!(cfg.validate().is_ok());
        assert_eq!(cfg.max_link_delay(), 0.5);
        let d = cfg.site_link_delays().expect("islands imply delays");
        assert_eq!(d[0], 0.05); // island 0 hosts the central complex
        assert_eq!(d[9], 0.5);
        assert_eq!(cfg.site_mips_of(0), 2.0e6);

        // A homogeneous island spec resolves to uniform delays.
        let cfg = base
            .clone()
            .with_islands(IslandSpec::contiguous(10, 1, 0, 0.2, 0.2));
        assert!(cfg.validate().is_ok());
        assert_eq!(cfg.site_link_delays(), Some(vec![0.2; 10]));

        // Explicit matrices feed the same helpers.
        let cfg = base.with_link_delays(DelayMatrix::uniform(10, 0.3));
        assert!(cfg.validate().is_ok());
        assert_eq!(cfg.site_link_delays(), Some(vec![0.3; 10]));
        assert_eq!(cfg.max_link_delay(), 0.3);
    }

    #[test]
    fn validation_rejects_bad_topologies() {
        let base = SystemConfig::paper_default(); // 10 sites

        let mut c = base.clone();
        c.site_mips = Some(vec![1.0e6; 3]);
        assert!(c.validate().unwrap_err().contains("site_mips"));
        let mut c = base.clone();
        c.site_mips = Some(vec![0.0; 10]);
        assert!(c.validate().unwrap_err().contains("positive"));
        let mut c = base.clone();
        c.central_shard_mips = Some(vec![15.0e6, 15.0e6]);
        assert!(c.validate().unwrap_err().contains("central_shard_mips"));
        let c = base
            .clone()
            .with_shards(2)
            .with_central_shard_mips(vec![15.0e6, 30.0e6]);
        assert!(c.validate().is_ok());

        // Island spec site count must match the config.
        let c = base
            .clone()
            .with_islands(IslandSpec::contiguous(4, 2, 0, 0.05, 0.5));
        assert!(c.validate().unwrap_err().contains("covers 4 sites"));
        // Invalid specs carry the islands: prefix.
        let c = base
            .clone()
            .with_islands(IslandSpec::contiguous(10, 2, 0, 0.5, 0.05));
        assert!(c.validate().unwrap_err().starts_with("islands:"));
        // Matrix and islands are mutually exclusive.
        let c = base
            .clone()
            .with_islands(IslandSpec::contiguous(10, 2, 0, 0.05, 0.5))
            .with_link_delays(DelayMatrix::uniform(10, 0.2));
        assert!(c.validate().unwrap_err().contains("mutually exclusive"));
        // Matrix shape must match the site count.
        let c = base.with_link_delays(DelayMatrix::uniform(4, 0.2));
        assert!(c.validate().unwrap_err().contains("link_delays"));
    }

    #[test]
    fn per_site_profiles_mean() {
        let mut cfg = SystemConfig::paper_default();
        cfg.site_profiles = Some(
            (0..10)
                .map(|i| RateProfile::Constant(f64::from(i % 2) + 1.0))
                .collect(),
        );
        assert!((cfg.mean_site_rate() - 1.5).abs() < 1e-12);
        assert!(cfg.validate().is_ok());
    }
}
