//! Measurement collection and run-level results.

use std::fmt;

use hls_obs::{LogHistogram, ProfileReport};
use hls_sim::{Accumulator, BatchMeans, Histogram, SimDuration, SimTime};
use hls_workload::TxnClass;

use crate::txn::{PhaseBreakdown, Route};

/// Abort counters, by victim and cause.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AbortCounts {
    /// Local class A transactions aborted by a committed shipped/central
    /// transaction's authentication phase.
    pub local_invalidated: u64,
    /// Central transactions aborted because an asynchronous update
    /// invalidated a lock they held.
    pub central_invalidated: u64,
    /// Central transactions re-executed after a coherence-count negative
    /// acknowledgement in the authentication phase.
    pub central_neg_ack: u64,
    /// Local transactions aborted to break a deadlock.
    pub deadlock_local: u64,
    /// Central transactions aborted to break a deadlock.
    pub deadlock_central: u64,
}

impl AbortCounts {
    /// Total aborts of all kinds.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.local_invalidated
            + self.central_invalidated
            + self.central_neg_ack
            + self.deadlock_local
            + self.deadlock_central
    }
}

/// Availability counters produced by the fault-injection layer.
///
/// Every field is exactly zero (and the outage mean absent) when the fault
/// schedule is empty, so fault-free runs are unchanged by this machinery.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AvailabilityMetrics {
    /// Class A arrivals turned away because the components they needed
    /// were down.
    pub rejected_class_a: u64,
    /// Class B arrivals turned away (after exhausting retries, if
    /// failure-aware).
    pub rejected_class_b: u64,
    /// Transactions killed by a local-site crash.
    pub crash_aborts_site: u64,
    /// Transactions killed by a central-complex crash.
    pub crash_aborts_central: u64,
    /// Class A arrivals shipped centrally because their site was down.
    pub failover_shipped: u64,
    /// Class A arrivals forced local because the central complex was
    /// unreachable.
    pub failover_local: u64,
    /// Class B retry attempts scheduled while the central complex was
    /// unreachable.
    pub retries: u64,
    /// Messages held in store-and-forward buffers by link/endpoint
    /// failures (each message counted once per deferral).
    pub deferred_messages: u64,
    /// Summed component downtime (site + central outages) overlapping the
    /// measurement window, seconds.
    pub downtime_secs: f64,
    /// Mean response time of transactions whose lifetime overlapped a
    /// fault window — the downtime-weighted counterpart of
    /// [`RunMetrics::mean_response`].
    pub mean_response_during_outage: Option<f64>,
}

/// Identifies one response-time histogram: which class the transaction
/// belonged to, where it ran, and which site it originated at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResponseKey {
    /// Transaction class.
    pub class: TxnClass,
    /// Where the transaction executed.
    pub route: Route,
    /// Originating local site index.
    pub site: usize,
}

/// Names of the transaction phases tracked by the per-phase histograms,
/// in report order. `authentication` is only recorded for
/// centrally-executed transactions; `restart_backoff` records each
/// deadlock-victim backoff delay individually (not per completion).
pub const PHASE_NAMES: [&str; 5] = [
    "queueing",
    "execution",
    "commit",
    "authentication",
    "restart_backoff",
];

/// Response classes per site: local A, shipped A, class B.
const KINDS_PER_SITE: usize = 3;

fn kind_of(class: TxnClass, route: Route) -> usize {
    match (class, route) {
        (TxnClass::A, Route::Local) => 0,
        (TxnClass::A, Route::Central) => 1,
        (TxnClass::B, _) => 2,
    }
}

fn key_of(kind: usize, site: usize) -> ResponseKey {
    match kind {
        0 => ResponseKey {
            class: TxnClass::A,
            route: Route::Local,
            site,
        },
        1 => ResponseKey {
            class: TxnClass::A,
            route: Route::Central,
            site,
        },
        _ => ResponseKey {
            class: TxnClass::B,
            route: Route::Central,
            site,
        },
    }
}

/// Optional streaming histograms keyed by `(class, route, site)` and by
/// transaction phase. Allocated once at enable time; recording never
/// allocates.
#[derive(Debug, Clone)]
struct ObsHists {
    n_sites: usize,
    /// Indexed `site * KINDS_PER_SITE + kind`.
    response: Vec<LogHistogram>,
    /// Indexed by [`PHASE_NAMES`] position.
    phases: Vec<LogHistogram>,
}

impl ObsHists {
    fn new(n_sites: usize) -> Self {
        ObsHists {
            n_sites,
            response: (0..n_sites * KINDS_PER_SITE)
                .map(|_| LogHistogram::new())
                .collect(),
            phases: (0..PHASE_NAMES.len())
                .map(|_| LogHistogram::new())
                .collect(),
        }
    }

    fn record(&mut self, site: usize, kind: usize, rt: SimDuration, phases: &PhaseBreakdown) {
        self.response[site * KINDS_PER_SITE + kind].record(rt.as_secs());
        self.phases[0].record(phases.queueing);
        self.phases[1].record(phases.execution);
        self.phases[2].record(phases.commit);
        if kind != 0 {
            self.phases[3].record(phases.authentication);
        }
    }
}

/// Observability report attached to [`RunMetrics`] when histograms or
/// profiling are enabled via `ObsConfig`.
///
/// Histograms from independent replications merge exactly (see
/// [`LogHistogram::merge`]), so replicated experiments can report tail
/// quantiles over the union of their samples.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ObsReport {
    /// Non-empty response-time histograms, ordered by site then by
    /// (local A, shipped A, class B).
    pub response: Vec<(ResponseKey, LogHistogram)>,
    /// Non-empty per-phase histograms, in [`PHASE_NAMES`] order.
    pub phases: Vec<(&'static str, LogHistogram)>,
    /// Profile table (empty unless profiling was enabled).
    pub profile: ProfileReport,
}

impl ObsReport {
    /// Merges another report into this one: histograms with matching
    /// keys add elementwise, unmatched keys are appended, and profile
    /// tables add by row name.
    pub fn merge(&mut self, other: &ObsReport) {
        for (key, hist) in &other.response {
            match self.response.iter_mut().find(|(k, _)| k == key) {
                Some((_, h)) => h.merge(hist),
                None => self.response.push((*key, hist.clone())),
            }
        }
        for (name, hist) in &other.phases {
            match self.phases.iter_mut().find(|(n, _)| n == name) {
                Some((_, h)) => h.merge(hist),
                None => self.phases.push((name, hist.clone())),
            }
        }
        self.profile.merge(&other.profile);
    }

    /// Merges the reports of many runs (skipping runs without one),
    /// or `None` when no run carried a report.
    #[must_use]
    pub fn merged_from_runs<'a>(
        runs: impl IntoIterator<Item = &'a RunMetrics>,
    ) -> Option<ObsReport> {
        let mut out: Option<ObsReport> = None;
        for r in runs {
            if let Some(obs) = &r.obs {
                match &mut out {
                    Some(acc) => acc.merge(obs),
                    None => out = Some(obs.clone()),
                }
            }
        }
        out
    }

    /// Response histograms aggregated over sites, one per `(class,
    /// route)` pair present, in (local A, shipped A, class B) order.
    #[must_use]
    pub fn response_by_class_route(&self) -> Vec<((TxnClass, Route), LogHistogram)> {
        let mut out: Vec<((TxnClass, Route), LogHistogram)> = Vec::new();
        for kind in 0..KINDS_PER_SITE {
            let key = key_of(kind, 0);
            let mut merged: Option<LogHistogram> = None;
            for (k, h) in &self.response {
                if k.class == key.class && k.route == key.route {
                    match &mut merged {
                        Some(m) => m.merge(h),
                        None => merged = Some(h.clone()),
                    }
                }
            }
            if let Some(m) = merged {
                out.push(((key.class, key.route), m));
            }
        }
        out
    }
}

/// In-run metrics collector. Observations before the warm-up boundary are
/// discarded.
#[derive(Debug, Clone)]
pub struct MetricsCollector {
    warmup: SimTime,
    rt_all: BatchMeans,
    rt_hist: Histogram,
    rt_local_a: Accumulator,
    rt_shipped_a: Accumulator,
    rt_class_b: Accumulator,
    rt_outage: Accumulator,
    reruns: Accumulator,
    lock_wait: Accumulator,
    arrivals: u64,
    routed_local_a: u64,
    routed_shipped_a: u64,
    pub(crate) aborts: AbortCounts,
    avail: AvailabilityMetrics,
    obs: Option<ObsHists>,
}

impl MetricsCollector {
    /// Creates a collector that starts measuring at `warmup`.
    #[must_use]
    pub fn new(warmup: SimTime) -> Self {
        MetricsCollector {
            warmup,
            rt_all: BatchMeans::new(200),
            rt_hist: Histogram::new(0.05, 2000), // 0..100 s in 50 ms bins
            rt_local_a: Accumulator::new(),
            rt_shipped_a: Accumulator::new(),
            rt_class_b: Accumulator::new(),
            rt_outage: Accumulator::new(),
            reruns: Accumulator::new(),
            lock_wait: Accumulator::new(),
            arrivals: 0,
            routed_local_a: 0,
            routed_shipped_a: 0,
            aborts: AbortCounts::default(),
            avail: AvailabilityMetrics::default(),
            obs: None,
        }
    }

    /// Enables per-`(class, route, site)` and per-phase response-time
    /// histograms for a system with `n_sites` local sites. All buckets
    /// are allocated here; recording never allocates.
    pub fn enable_histograms(&mut self, n_sites: usize) {
        self.obs = Some(ObsHists::new(n_sites));
    }

    fn measuring(&self, now: SimTime) -> bool {
        now >= self.warmup
    }

    /// Records a transaction arrival.
    pub fn on_arrival(&mut self, now: SimTime) {
        if self.measuring(now) {
            self.arrivals += 1;
        }
    }

    /// Records the routing decision for a class A transaction.
    pub fn on_route_class_a(&mut self, now: SimTime, shipped: bool) {
        if self.measuring(now) {
            if shipped {
                self.routed_shipped_a += 1;
            } else {
                self.routed_local_a += 1;
            }
        }
    }

    fn record_common(
        &mut self,
        site: usize,
        kind: usize,
        rt: SimDuration,
        attempts: u32,
        phases: &PhaseBreakdown,
    ) {
        self.rt_all.record(rt.as_secs());
        self.rt_hist.record(rt.as_secs().min(99.9));
        self.reruns.record(f64::from(attempts));
        self.lock_wait.record(phases.queueing);
        if let Some(obs) = &mut self.obs {
            obs.record(site, kind, rt, phases);
        }
    }

    /// Records completion of a locally run class A transaction
    /// originating at `site`.
    pub fn on_local_a_done(
        &mut self,
        now: SimTime,
        site: usize,
        rt: SimDuration,
        attempts: u32,
        phases: &PhaseBreakdown,
    ) {
        if self.measuring(now) {
            self.record_common(
                site,
                kind_of(TxnClass::A, Route::Local),
                rt,
                attempts,
                phases,
            );
            self.rt_local_a.record(rt.as_secs());
        }
    }

    /// Records completion of a shipped class A transaction originating
    /// at `site`.
    pub fn on_shipped_a_done(
        &mut self,
        now: SimTime,
        site: usize,
        rt: SimDuration,
        attempts: u32,
        phases: &PhaseBreakdown,
    ) {
        if self.measuring(now) {
            self.record_common(
                site,
                kind_of(TxnClass::A, Route::Central),
                rt,
                attempts,
                phases,
            );
            self.rt_shipped_a.record(rt.as_secs());
        }
    }

    /// Records completion of a class B transaction originating at
    /// `site`.
    pub fn on_class_b_done(
        &mut self,
        now: SimTime,
        site: usize,
        rt: SimDuration,
        attempts: u32,
        phases: &PhaseBreakdown,
    ) {
        if self.measuring(now) {
            self.record_common(
                site,
                kind_of(TxnClass::B, Route::Central),
                rt,
                attempts,
                phases,
            );
            self.rt_class_b.record(rt.as_secs());
        }
    }

    /// Records one deadlock-victim restart backoff delay into the
    /// restart-backoff phase histogram (when histograms are enabled).
    pub fn on_backoff(&mut self, now: SimTime, delay: SimDuration) {
        if self.measuring(now) {
            if let Some(obs) = &mut self.obs {
                obs.phases[4].record(delay.as_secs());
            }
        }
    }

    /// Records an abort, counted only after warm-up.
    pub fn on_abort(&mut self, now: SimTime, f: impl FnOnce(&mut AbortCounts)) {
        if self.measuring(now) {
            f(&mut self.aborts);
        }
    }

    /// Records an availability event (rejection, crash kill, failover,
    /// retry, deferral), counted only after warm-up.
    pub fn on_availability(&mut self, now: SimTime, f: impl FnOnce(&mut AvailabilityMetrics)) {
        if self.measuring(now) {
            f(&mut self.avail);
        }
    }

    /// Records the response time of a completion whose lifetime overlapped
    /// a fault window (in addition to its normal per-class recording).
    pub fn on_outage_response(&mut self, now: SimTime, rt: SimDuration) {
        if self.measuring(now) {
            self.rt_outage.record(rt.as_secs());
        }
    }

    /// Finalizes into run-level metrics over `[warmup, end]`.
    ///
    /// # Panics
    ///
    /// Panics if `end` precedes the warm-up boundary.
    #[must_use]
    pub fn finalize(
        &self,
        end: SimTime,
        rho_local: f64,
        rho_central: f64,
        messages: u64,
        downtime_secs: f64,
        profile: Option<ProfileReport>,
    ) -> RunMetrics {
        let window = (end - self.warmup).as_secs();
        assert!(window > 0.0, "measurement window is empty");
        let completions = self.rt_all.count();
        let routed_a = self.routed_local_a + self.routed_shipped_a;
        let availability = AvailabilityMetrics {
            downtime_secs,
            mean_response_during_outage: mean_of(&self.rt_outage),
            ..self.avail
        };
        let obs = if self.obs.is_some() || profile.is_some() {
            let mut report = ObsReport {
                profile: profile.unwrap_or_default(),
                ..ObsReport::default()
            };
            if let Some(hists) = &self.obs {
                for site in 0..hists.n_sites {
                    for kind in 0..KINDS_PER_SITE {
                        let h = &hists.response[site * KINDS_PER_SITE + kind];
                        if !h.is_empty() {
                            report.response.push((key_of(kind, site), h.clone()));
                        }
                    }
                }
                for (name, h) in PHASE_NAMES.iter().zip(&hists.phases) {
                    if !h.is_empty() {
                        report.phases.push((name, h.clone()));
                    }
                }
            }
            Some(report)
        } else {
            None
        };
        RunMetrics {
            window_secs: window,
            arrivals: self.arrivals,
            completions,
            throughput: completions as f64 / window,
            mean_response: self.rt_all.mean(),
            response_ci95: self.rt_all.confidence_interval_95(),
            p95_response: self.rt_hist.quantile(0.95),
            mean_response_local_a: mean_of(&self.rt_local_a),
            mean_response_shipped_a: mean_of(&self.rt_shipped_a),
            mean_response_class_b: mean_of(&self.rt_class_b),
            shipped_fraction: if routed_a == 0 {
                0.0
            } else {
                self.routed_shipped_a as f64 / routed_a as f64
            },
            mean_reruns: self.reruns.mean(),
            mean_lock_wait: self.lock_wait.mean(),
            aborts: self.aborts,
            rho_local,
            rho_central,
            messages,
            messages_by_kind: Vec::new(),
            availability,
            obs,
            scale: None,
            placement: None,
        }
    }
}

fn mean_of(acc: &Accumulator) -> Option<f64> {
    (acc.count() > 0).then(|| acc.mean())
}

/// Topology-scaling measurements attached to [`RunMetrics`] when
/// `SystemConfig::scale_metrics` is enabled.
///
/// The bytes figures are estimates computed from the dense hot-structure
/// capacities (transaction slab, job slab, per-replica stores and lock
/// tables) at run end — the resident simulator state, not the process
/// RSS.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleReport {
    /// Number of distributed sites simulated.
    pub n_sites: usize,
    /// Number of central shards (1 = the classic single complex).
    pub n_shards: usize,
    /// Peak simultaneous in-flight transactions over the whole run.
    pub peak_in_flight: u64,
    /// Estimated resident simulator state at run end, bytes.
    pub state_bytes: u64,
    /// `state_bytes` divided by the peak in-flight population — the
    /// marginal memory cost of one more concurrent transaction.
    pub bytes_per_txn: f64,
    /// Messages carried by the shard interconnect (0 when `n_shards` = 1).
    pub cross_shard_messages: u64,
    /// Cross-shard lock requests denied under the no-wait rule (each
    /// denial aborts and reruns the requester).
    pub cross_shard_denials: u64,
    /// Cross-shard lock requests granted by a foreign shard.
    pub remote_lock_grants: u64,
}

/// Adaptive-placement measurements attached to [`RunMetrics`] when the
/// placement runtime is active (an adaptive `PlacementPolicy`, or any
/// workload drift).
///
/// The class-B rates compare admission-time classification under the
/// **live** placement map against the counterfactual epoch-0 (static)
/// map over the same post-warmup admission stream, so
/// `class_b_rate_static − class_b_rate` is exactly the class-B traffic
/// the migrations recovered.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementReport {
    /// Placement policy label (`"static"`, `"threshold"`, `"epoch"`).
    pub policy: String,
    /// Final placement-map epoch (0 = the map never moved).
    pub epoch: u64,
    /// Migrations started by the planner.
    pub migrations_planned: u64,
    /// Migrations that reached atomic switchover.
    pub migrations_completed: u64,
    /// Migrations aborted by site or central failures.
    pub migrations_aborted: u64,
    /// Bulk-copy bytes moved by completed and in-flight migrations.
    pub bytes_moved: u64,
    /// Transactions parked while their partition was draining.
    pub parked_admissions: u64,
    /// Post-warmup admissions classified class A under the live map.
    pub class_a_admitted: u64,
    /// Post-warmup admissions classified class B under the live map.
    pub class_b_admitted: u64,
    /// Fraction of post-warmup admissions that were class B under the
    /// live placement map.
    pub class_b_rate: f64,
    /// Fraction of the same admissions that would have been class B
    /// under the frozen epoch-0 map.
    pub class_b_rate_static: f64,
}

/// Results of one simulation run, measured after warm-up.
#[derive(Clone, PartialEq)]
pub struct RunMetrics {
    /// Measurement window length, seconds.
    pub window_secs: f64,
    /// Arrivals during the window.
    pub arrivals: u64,
    /// Completions during the window.
    pub completions: u64,
    /// Completions per second.
    pub throughput: f64,
    /// Mean response time over all transactions (class A and B), seconds.
    pub mean_response: f64,
    /// 95% confidence interval for the mean response (batch means).
    pub response_ci95: Option<(f64, f64)>,
    /// 95th-percentile response time.
    pub p95_response: Option<f64>,
    /// Mean response of locally run class A transactions.
    pub mean_response_local_a: Option<f64>,
    /// Mean response of shipped class A transactions.
    pub mean_response_shipped_a: Option<f64>,
    /// Mean response of class B transactions.
    pub mean_response_class_b: Option<f64>,
    /// Fraction of class A transactions shipped to the central site.
    pub shipped_fraction: f64,
    /// Mean number of re-runs per completed transaction.
    pub mean_reruns: f64,
    /// Mean time a transaction spent blocked on locks, seconds — the
    /// "wait time for locks" term of the paper's response decomposition.
    pub mean_lock_wait: f64,
    /// Abort counters.
    pub aborts: AbortCounts,
    /// Mean local-site CPU utilization over the window.
    pub rho_local: f64,
    /// Central CPU utilization over the window.
    pub rho_central: f64,
    /// Network messages sent during the whole run.
    pub messages: u64,
    /// Message counts by protocol-message kind (sorted by kind name).
    pub messages_by_kind: Vec<(String, u64)>,
    /// Fault-injection availability counters (all zero without faults).
    pub availability: AvailabilityMetrics,
    /// Observability report: response-time and phase histograms plus the
    /// profile table. `None` unless enabled via `ObsConfig` — and
    /// excluded by construction from the simulated outcome, so two runs
    /// differing only in observability agree on every other field.
    pub obs: Option<ObsReport>,
    /// Topology-scaling report. `None` unless
    /// `SystemConfig::scale_metrics` is set; like `obs`, it is excluded by
    /// construction from the simulated outcome.
    pub scale: Option<ScaleReport>,
    /// Adaptive-placement report. `None` unless the placement runtime
    /// was active (adaptive policy or workload drift) — the default
    /// static configuration renders without it, keeping the golden
    /// text stable.
    pub placement: Option<PlacementReport>,
}

// Hand-written so the rendering with `scale: None` is byte-identical to
// the pre-sharding derived output: the golden-metrics harness pins the
// full `{:#?}` text of RunMetrics, and the `scale` field only appears in
// it when a run opted into scale_metrics.
impl fmt::Debug for RunMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = f.debug_struct("RunMetrics");
        s.field("window_secs", &self.window_secs)
            .field("arrivals", &self.arrivals)
            .field("completions", &self.completions)
            .field("throughput", &self.throughput)
            .field("mean_response", &self.mean_response)
            .field("response_ci95", &self.response_ci95)
            .field("p95_response", &self.p95_response)
            .field("mean_response_local_a", &self.mean_response_local_a)
            .field("mean_response_shipped_a", &self.mean_response_shipped_a)
            .field("mean_response_class_b", &self.mean_response_class_b)
            .field("shipped_fraction", &self.shipped_fraction)
            .field("mean_reruns", &self.mean_reruns)
            .field("mean_lock_wait", &self.mean_lock_wait)
            .field("aborts", &self.aborts)
            .field("rho_local", &self.rho_local)
            .field("rho_central", &self.rho_central)
            .field("messages", &self.messages)
            .field("messages_by_kind", &self.messages_by_kind)
            .field("availability", &self.availability)
            .field("obs", &self.obs);
        if self.scale.is_some() {
            s.field("scale", &self.scale);
        }
        if self.placement.is_some() {
            s.field("placement", &self.placement);
        }
        s.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs(secs)
    }
    fn d(secs: f64) -> SimDuration {
        SimDuration::from_secs(secs)
    }

    fn wait(queueing: f64) -> PhaseBreakdown {
        PhaseBreakdown {
            queueing,
            ..PhaseBreakdown::default()
        }
    }

    #[test]
    fn warmup_observations_are_discarded() {
        let mut m = MetricsCollector::new(t(10.0));
        m.on_arrival(t(5.0));
        m.on_local_a_done(t(5.0), 0, d(1.0), 0, &wait(0.0));
        m.on_route_class_a(t(5.0), true);
        m.on_abort(t(5.0), |a| a.deadlock_local += 1);
        m.on_availability(t(5.0), |a| a.rejected_class_b += 1);
        m.on_outage_response(t(5.0), d(1.0));
        let r = m.finalize(t(20.0), 0.5, 0.2, 7, 0.0, None);
        assert_eq!(r.arrivals, 0);
        assert_eq!(r.completions, 0);
        assert_eq!(r.shipped_fraction, 0.0);
        assert_eq!(r.aborts.total(), 0);
        assert_eq!(r.availability, AvailabilityMetrics::default());
        assert_eq!(r.obs, None);
    }

    #[test]
    fn post_warmup_observations_are_counted() {
        let mut m = MetricsCollector::new(t(10.0));
        m.on_arrival(t(11.0));
        m.on_arrival(t(12.0));
        m.on_route_class_a(t(11.0), false);
        m.on_route_class_a(t(12.0), true);
        m.on_local_a_done(t(13.0), 0, d(2.0), 0, &wait(0.25));
        m.on_shipped_a_done(t(14.0), 1, d(4.0), 1, &wait(0.75));
        let r = m.finalize(t(20.0), 0.5, 0.2, 7, 0.0, None);
        assert_eq!(r.arrivals, 2);
        assert_eq!(r.completions, 2);
        assert_eq!(r.mean_response, 3.0);
        assert_eq!(r.shipped_fraction, 0.5);
        assert_eq!(r.mean_response_local_a, Some(2.0));
        assert_eq!(r.mean_response_shipped_a, Some(4.0));
        assert_eq!(r.mean_response_class_b, None);
        assert_eq!(r.throughput, 0.2);
        assert_eq!(r.mean_reruns, 0.5);
        assert_eq!(r.mean_lock_wait, 0.5);
        assert_eq!(r.messages, 7);
    }

    #[test]
    fn abort_totals_add_up() {
        let a = AbortCounts {
            local_invalidated: 1,
            central_invalidated: 2,
            central_neg_ack: 3,
            deadlock_local: 4,
            deadlock_central: 5,
        };
        assert_eq!(a.total(), 15);
    }

    #[test]
    fn availability_counters_survive_finalize() {
        let mut m = MetricsCollector::new(t(10.0));
        m.on_availability(t(11.0), |a| {
            a.rejected_class_a += 2;
            a.crash_aborts_site += 1;
            a.failover_shipped += 3;
        });
        m.on_outage_response(t(12.0), d(4.0));
        m.on_outage_response(t(13.0), d(6.0));
        let r = m.finalize(t(20.0), 0.5, 0.2, 7, 2.5, None);
        assert_eq!(r.availability.rejected_class_a, 2);
        assert_eq!(r.availability.crash_aborts_site, 1);
        assert_eq!(r.availability.failover_shipped, 3);
        assert_eq!(r.availability.downtime_secs, 2.5);
        assert_eq!(r.availability.mean_response_during_outage, Some(5.0));
    }

    #[test]
    #[should_panic(expected = "window")]
    fn empty_window_panics() {
        let m = MetricsCollector::new(t(10.0));
        let _ = m.finalize(t(10.0), 0.0, 0.0, 0, 0.0, None);
    }

    #[test]
    fn histograms_key_by_class_route_site_and_phase() {
        let mut m = MetricsCollector::new(t(10.0));
        m.enable_histograms(2);
        let b = PhaseBreakdown {
            queueing: 0.5,
            execution: 1.0,
            commit: 0.25,
            authentication: 0.25,
            restart_backoff: 0.0,
        };
        m.on_local_a_done(t(11.0), 0, d(2.0), 0, &wait(0.5));
        m.on_shipped_a_done(t(12.0), 1, d(2.0), 1, &b);
        m.on_class_b_done(t(13.0), 1, d(3.0), 0, &b);
        m.on_backoff(t(14.0), d(0.125));
        let r = m.finalize(t(20.0), 0.5, 0.2, 0, 0.0, None);
        let obs = r.obs.expect("histograms enabled");
        // Three non-empty keys: (A, Local, 0), (A, Central, 1), (B, Central, 1).
        assert_eq!(obs.response.len(), 3);
        assert_eq!(
            obs.response[0].0,
            ResponseKey {
                class: TxnClass::A,
                route: Route::Local,
                site: 0
            }
        );
        assert!(obs.response.iter().all(|(_, h)| h.count() == 1));
        // All five phases present: auth recorded for the two central
        // completions, backoff recorded once from on_backoff.
        assert_eq!(obs.phases.len(), PHASE_NAMES.len());
        let phase = |name: &str| {
            obs.phases
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, h)| h)
                .unwrap()
        };
        assert_eq!(phase("queueing").count(), 3);
        assert_eq!(phase("authentication").count(), 2);
        assert_eq!(phase("restart_backoff").count(), 1);
        assert_eq!(phase("restart_backoff").sum(), 0.125);
        // Aggregation over sites preserves per-(class, route) counts.
        let by_cr = obs.response_by_class_route();
        assert_eq!(by_cr.len(), 3);
        assert!(by_cr.iter().all(|(_, h)| h.count() == 1));
    }

    #[test]
    fn scale_report_is_invisible_until_populated() {
        // The golden harness pins the full Debug text, so `scale: None`
        // must leave the rendering exactly as it was before sharding.
        let mut m = MetricsCollector::new(t(0.0));
        m.on_arrival(t(1.0));
        let mut r = m.finalize(t(10.0), 0.1, 0.1, 0, 0.0, None);
        assert_eq!(r.scale, None);
        let before = format!("{r:#?}");
        assert!(!before.contains("scale"), "{before}");
        assert!(before.trim_end().ends_with('}'));
        r.scale = Some(ScaleReport {
            n_sites: 100,
            n_shards: 4,
            peak_in_flight: 250,
            state_bytes: 1 << 20,
            bytes_per_txn: 4194.3,
            cross_shard_messages: 12,
            cross_shard_denials: 1,
            remote_lock_grants: 9,
        });
        let after = format!("{r:#?}");
        assert!(after.contains("scale: Some("), "{after}");
        assert!(after.contains("n_shards: 4"), "{after}");
        // Everything before the scale field is unchanged.
        assert!(after.starts_with(before.trim_end_matches(['}', '\n', ' '])));
    }

    #[test]
    fn placement_report_is_invisible_until_populated() {
        // Same contract as `scale`: the golden harness pins the full
        // Debug text, so `placement: None` must not render at all.
        let mut m = MetricsCollector::new(t(0.0));
        m.on_arrival(t(1.0));
        let mut r = m.finalize(t(10.0), 0.1, 0.1, 0, 0.0, None);
        assert_eq!(r.placement, None);
        let before = format!("{r:#?}");
        assert!(!before.contains("placement"), "{before}");
        r.placement = Some(PlacementReport {
            policy: "threshold".into(),
            epoch: 3,
            migrations_planned: 4,
            migrations_completed: 3,
            migrations_aborted: 1,
            bytes_moved: 1 << 18,
            parked_admissions: 7,
            class_a_admitted: 900,
            class_b_admitted: 100,
            class_b_rate: 0.1,
            class_b_rate_static: 0.25,
        });
        let after = format!("{r:#?}");
        assert!(after.contains("placement: Some("), "{after}");
        assert!(after.contains("migrations_completed: 3"), "{after}");
        assert!(after.starts_with(before.trim_end_matches(['}', '\n', ' '])));
    }

    #[test]
    fn obs_reports_merge_across_runs() {
        let run = |site: usize| {
            let mut m = MetricsCollector::new(t(0.0));
            m.enable_histograms(2);
            m.on_local_a_done(t(1.0), site, d(1.0 + site as f64), 0, &wait(0.0));
            m.finalize(t(10.0), 0.0, 0.0, 0, 0.0, None)
        };
        let runs = [run(0), run(1), run(0)];
        let merged = ObsReport::merged_from_runs(runs.iter()).unwrap();
        assert_eq!(merged.response.len(), 2);
        let total: u64 = merged.response.iter().map(|(_, h)| h.count()).sum();
        assert_eq!(total, 3);
        let by_cr = merged.response_by_class_route();
        assert_eq!(by_cr.len(), 1);
        assert_eq!(by_cr[0].1.count(), 3);
        assert_eq!(by_cr[0].1.min(), Some(1.0));
        assert_eq!(by_cr[0].1.max(), Some(2.0));
    }
}
