//! Load-sharing routing strategies (Section 3.2 plus baselines).
//!
//! Every incoming **class A** transaction is offered to the router, which
//! decides whether to run it at its local site or ship it to the central
//! complex. Class B transactions always go central and never reach the
//! router.

use std::fmt;

use hls_analytic::{
    heuristic_utilizations, Observed, RouteModel, SystemParams, UtilizationEstimator,
};
use hls_sim::{SimDuration, SimRng, SimTime};

use crate::txn::Route;

/// Everything a router may consult when deciding a route.
#[derive(Debug)]
pub struct RouteCtx<'a> {
    /// Decision time.
    pub now: SimTime,
    /// The arriving site.
    pub site: usize,
    /// Observed state: exact local quantities plus the latest (possibly
    /// stale) central snapshot.
    pub obs: Observed,
    /// Physical system parameters.
    pub params: &'a SystemParams,
    /// Dedicated routing RNG stream (used by probabilistic policies).
    pub rng: &'a mut SimRng,
}

/// A load-sharing routing policy.
///
/// Routers are driven by the simulator: [`Router::decide`] on each class A
/// arrival, and the completion hooks whenever a class A transaction
/// finishes (used by the measured-response-time heuristic).
pub trait Router: fmt::Debug {
    /// Chooses where the incoming class A transaction runs.
    fn decide(&mut self, ctx: &mut RouteCtx<'_>) -> Route;

    /// Observes the response time of a class A transaction that ran
    /// locally at `site`.
    fn on_local_completion(&mut self, site: usize, response: SimDuration) {
        let _ = (site, response);
    }

    /// Observes the response time of a class A transaction shipped from
    /// `site`.
    fn on_shipped_completion(&mut self, site: usize, response: SimDuration) {
        let _ = (site, response);
    }
}

/// Serializable router configuration; build the live router with
/// [`RouterSpec::build`].
///
/// # Examples
///
/// ```
/// use hls_core::{RouterSpec, UtilizationEstimator};
///
/// let spec = RouterSpec::MinAverage {
///     estimator: UtilizationEstimator::NumInSystem,
/// };
/// assert_eq!(spec.label(), "min-average(n)");
/// let _router = spec.build(10);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RouterSpec {
    /// Run every class A transaction locally (the no-load-sharing
    /// baseline of Figure 4.1).
    NoSharing,
    /// Ship with fixed probability `p_ship` (static probabilistic load
    /// sharing; the optimum probability comes from the analytic model).
    Static {
        /// Shipping probability in `[0, 1]`.
        p_ship: f64,
    },
    /// Heuristic of Section 3.2.3: ship iff the last shipped class A
    /// transaction's measured response beat the last locally-run one
    /// (curve A of Figure 4.2).
    MeasuredResponse,
    /// Heuristic of Section 3.2.4, basic form: ship iff the central CPU
    /// queue is shorter than the local queue (curve B of Figure 4.2).
    QueueLength,
    /// Tuned heuristic of Figure 4.4: ship iff
    /// `ρ_local − ρ_central > threshold` with utilizations estimated from
    /// queue lengths.
    UtilizationThreshold {
        /// The threshold θ (negative values ship even when the local site
        /// is *less* utilized, exploiting the faster central CPU).
        threshold: f64,
    },
    /// Section 3.2.1: minimize the incoming transaction's estimated
    /// response time (curves C/D of Figure 4.2).
    MinIncoming {
        /// Utilization estimator variant (a) or (b).
        estimator: UtilizationEstimator,
    },
    /// Section 3.2.2: minimize the estimated average response time of all
    /// transactions in the system (curves E/F of Figure 4.2 — the paper's
    /// best strategy).
    MinAverage {
        /// Utilization estimator variant (a) or (b).
        estimator: UtilizationEstimator,
    },
    /// Extension (not in the paper): the min-average criterion with a
    /// *probabilistic* decision — the shipping probability follows a
    /// logistic curve in the estimated advantage, so decisions near the
    /// indifference point are randomized. This breaks the synchronized
    /// "herding" that deterministic routers exhibit on stale central-state
    /// snapshots at large communications delays (see EXPERIMENTS.md,
    /// Figure 4.5 note).
    SmoothedMinAverage {
        /// Utilization estimator variant (a) or (b).
        estimator: UtilizationEstimator,
        /// Advantage (seconds of estimated average response) at which the
        /// shipping probability reaches ~73%; smaller = more decisive.
        scale: f64,
    },
    /// Extension for hardware-islands topologies: the min-average
    /// criterion priced with the arriving site's *actual* link delay
    /// instead of the nominal uniform `comm_delay`. Sites sharing the
    /// central complex's island see the cheap intra-island delay and
    /// ship readily; sites in remote islands see the inter-island
    /// premium on all four message legs and prefer to run locally —
    /// intra-island capacity is used before the premium is paid. On a
    /// uniform topology this is exactly [`RouterSpec::MinAverage`].
    IslandAware {
        /// Utilization estimator variant (a) or (b).
        estimator: UtilizationEstimator,
    },
}

impl RouterSpec {
    /// Instantiates the live router for `n_sites` local sites on a
    /// uniform topology (every link at the nominal `comm_delay`).
    #[must_use]
    pub fn build(&self, n_sites: usize) -> Box<dyn Router> {
        self.build_topo(n_sites, &[])
    }

    /// Instantiates the live router for `n_sites` local sites with the
    /// topology's per-site one-way link delays (seconds). An empty
    /// slice means the uniform topology. Only topology-aware policies
    /// consult the delays; every other policy builds identically to
    /// [`RouterSpec::build`].
    #[must_use]
    pub fn build_topo(&self, n_sites: usize, site_delays: &[f64]) -> Box<dyn Router> {
        match *self {
            RouterSpec::NoSharing => Box::new(NoSharing),
            RouterSpec::Static { p_ship } => Box::new(StaticShip::new(p_ship)),
            RouterSpec::MeasuredResponse => Box::new(MeasuredResponse::new(n_sites)),
            RouterSpec::QueueLength => Box::new(QueueLengthHeuristic),
            RouterSpec::UtilizationThreshold { threshold } => {
                Box::new(UtilizationThreshold { threshold })
            }
            RouterSpec::MinIncoming { estimator } => Box::new(MinIncoming {
                estimator,
                model: None,
            }),
            RouterSpec::MinAverage { estimator } => Box::new(MinAverage {
                estimator,
                model: None,
            }),
            RouterSpec::SmoothedMinAverage { estimator, scale } => {
                Box::new(SmoothedMinAverage::new(estimator, scale))
            }
            RouterSpec::IslandAware { estimator } => {
                Box::new(IslandAwareRouter::new(estimator, site_delays.to_vec()))
            }
        }
    }

    /// Short label for reports and figures.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            RouterSpec::NoSharing => "no-sharing".into(),
            RouterSpec::Static { p_ship } => format!("static(p={p_ship:.2})"),
            RouterSpec::MeasuredResponse => "measured-rt".into(),
            RouterSpec::QueueLength => "queue-length".into(),
            RouterSpec::UtilizationThreshold { threshold } => {
                format!("threshold({threshold:+.2})")
            }
            RouterSpec::MinIncoming { estimator } => match estimator {
                UtilizationEstimator::QueueLength => "min-incoming(q)".into(),
                UtilizationEstimator::NumInSystem => "min-incoming(n)".into(),
            },
            RouterSpec::MinAverage { estimator } => match estimator {
                UtilizationEstimator::QueueLength => "min-average(q)".into(),
                UtilizationEstimator::NumInSystem => "min-average(n)".into(),
            },
            RouterSpec::SmoothedMinAverage { estimator, scale } => match estimator {
                UtilizationEstimator::QueueLength => format!("smoothed(q,{scale})"),
                UtilizationEstimator::NumInSystem => format!("smoothed(n,{scale})"),
            },
            RouterSpec::IslandAware { estimator } => match estimator {
                UtilizationEstimator::QueueLength => "island-aware(q)".into(),
                UtilizationEstimator::NumInSystem => "island-aware(n)".into(),
            },
        }
    }
}

/// No load sharing: class A transactions always run locally.
#[derive(Debug, Clone, Copy)]
struct NoSharing;

impl Router for NoSharing {
    fn decide(&mut self, _ctx: &mut RouteCtx<'_>) -> Route {
        Route::Local
    }
}

/// Static probabilistic load sharing.
#[derive(Debug, Clone, Copy)]
struct StaticShip {
    p_ship: f64,
}

impl StaticShip {
    fn new(p_ship: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p_ship),
            "p_ship must be in [0, 1], got {p_ship}"
        );
        StaticShip { p_ship }
    }
}

impl Router for StaticShip {
    fn decide(&mut self, ctx: &mut RouteCtx<'_>) -> Route {
        if ctx.rng.random::<f64>() < self.p_ship {
            Route::Central
        } else {
            Route::Local
        }
    }
}

/// Measured-response-time heuristic (Section 3.2.3).
///
/// Optimistic zero initialization: a site with no shipped sample yet treats
/// shipping as instantaneous, so both options get sampled early.
#[derive(Debug, Clone)]
struct MeasuredResponse {
    last_local: Vec<f64>,
    last_shipped: Vec<f64>,
}

impl MeasuredResponse {
    fn new(n_sites: usize) -> Self {
        MeasuredResponse {
            last_local: vec![0.0; n_sites],
            last_shipped: vec![0.0; n_sites],
        }
    }
}

impl Router for MeasuredResponse {
    fn decide(&mut self, ctx: &mut RouteCtx<'_>) -> Route {
        if self.last_shipped[ctx.site] <= self.last_local[ctx.site] {
            Route::Central
        } else {
            Route::Local
        }
    }

    fn on_local_completion(&mut self, site: usize, response: SimDuration) {
        self.last_local[site] = response.as_secs();
    }

    fn on_shipped_completion(&mut self, site: usize, response: SimDuration) {
        self.last_shipped[site] = response.as_secs();
    }
}

/// Basic queue-length heuristic (Section 3.2.4): ship iff the central
/// queue is shorter.
#[derive(Debug, Clone, Copy)]
struct QueueLengthHeuristic;

impl Router for QueueLengthHeuristic {
    fn decide(&mut self, ctx: &mut RouteCtx<'_>) -> Route {
        if ctx.obs.q_central < ctx.obs.q_local {
            Route::Central
        } else {
            Route::Local
        }
    }
}

/// Tuned utilization-threshold heuristic (Figure 4.4 / 4.7).
#[derive(Debug, Clone, Copy)]
struct UtilizationThreshold {
    threshold: f64,
}

impl Router for UtilizationThreshold {
    fn decide(&mut self, ctx: &mut RouteCtx<'_>) -> Route {
        let (rho_l, rho_c) = heuristic_utilizations(&ctx.obs);
        if rho_l - rho_c > self.threshold {
            Route::Central
        } else {
            Route::Local
        }
    }
}

/// The model in `slot` when it was built for `params`, otherwise a new one
/// stored there. Routers build their model on the first decision rather
/// than at construction, so a run's set-up pays nothing for it.
fn route_model<'a>(slot: &'a mut Option<RouteModel>, params: &SystemParams) -> &'a RouteModel {
    if slot.as_ref().is_some_and(|m| m.params() != params) {
        *slot = None;
    }
    slot.get_or_insert_with(|| RouteModel::new(params))
}

/// Section 3.2.1: minimize the incoming transaction's estimated response.
#[derive(Debug, Clone)]
struct MinIncoming {
    estimator: UtilizationEstimator,
    model: Option<RouteModel>,
}

impl Router for MinIncoming {
    fn decide(&mut self, ctx: &mut RouteCtx<'_>) -> Route {
        let cases = route_model(&mut self.model, ctx.params).estimate(&ctx.obs, self.estimator);
        if cases.prefer_ship_incoming() {
            Route::Central
        } else {
            Route::Local
        }
    }
}

/// Section 3.2.2: minimize the estimated average response of all
/// transactions.
#[derive(Debug, Clone)]
struct MinAverage {
    estimator: UtilizationEstimator,
    model: Option<RouteModel>,
}

impl Router for MinAverage {
    fn decide(&mut self, ctx: &mut RouteCtx<'_>) -> Route {
        let cases = route_model(&mut self.model, ctx.params).estimate(&ctx.obs, self.estimator);
        if cases.prefer_ship_average(&ctx.obs) {
            Route::Central
        } else {
            Route::Local
        }
    }
}

/// Island-aware routing (see [`RouterSpec::IslandAware`]): min-average
/// with the ship/run-local trade priced at the arriving site's actual
/// link delay.
///
/// The four per-transaction message legs (ship, result, plus the commit
/// round trip) all traverse the arriving site's link, so substituting
/// its true delay into [`SystemParams::comm_delay`] before estimation
/// prices the inter-island premium exactly where it is paid. With no
/// delays registered (or a uniform vector) the substitution is the
/// nominal value and the router reduces to plain min-average.
#[derive(Debug, Clone)]
pub struct IslandAwareRouter {
    estimator: UtilizationEstimator,
    /// Per-site one-way link delay, seconds; empty = uniform topology.
    site_delays: Vec<f64>,
    /// Per-site index into `models`: sites with equal delays share one.
    model_of_site: Vec<usize>,
    /// One model per distinct site delay, plus a last one for sites
    /// without a registered delay (the nominal `comm_delay`).
    models: Vec<Option<RouteModel>>,
}

impl IslandAwareRouter {
    /// Builds the router from the estimator variant and the topology's
    /// per-site one-way link delays (empty for a uniform topology).
    ///
    /// # Panics
    ///
    /// Panics if any delay is negative or non-finite.
    #[must_use]
    pub fn new(estimator: UtilizationEstimator, site_delays: Vec<f64>) -> Self {
        assert!(
            site_delays.iter().all(|d| d.is_finite() && *d >= 0.0),
            "site delays must be finite and >= 0"
        );
        let mut distinct = site_delays.clone();
        distinct.sort_by(f64::total_cmp);
        distinct.dedup();
        let model_of_site = site_delays
            .iter()
            .map(|d| distinct.partition_point(|x| x < d))
            .collect();
        IslandAwareRouter {
            estimator,
            site_delays,
            model_of_site,
            models: vec![None; distinct.len() + 1],
        }
    }
}

impl Router for IslandAwareRouter {
    fn decide(&mut self, ctx: &mut RouteCtx<'_>) -> Route {
        let (slot, params) = match self.site_delays.get(ctx.site) {
            Some(&comm_delay) => (
                self.model_of_site[ctx.site],
                SystemParams {
                    comm_delay,
                    ..*ctx.params
                },
            ),
            None => (self.models.len() - 1, *ctx.params),
        };
        let cases = route_model(&mut self.models[slot], &params).estimate(&ctx.obs, self.estimator);
        if cases.prefer_ship_average(&ctx.obs) {
            Route::Central
        } else {
            Route::Local
        }
    }
}

/// Extension: probabilistic min-average routing (see
/// [`RouterSpec::SmoothedMinAverage`]).
#[derive(Debug, Clone)]
struct SmoothedMinAverage {
    estimator: UtilizationEstimator,
    scale: f64,
    model: Option<RouteModel>,
}

impl SmoothedMinAverage {
    fn new(estimator: UtilizationEstimator, scale: f64) -> Self {
        assert!(
            scale > 0.0 && scale.is_finite(),
            "smoothing scale must be positive and finite, got {scale}"
        );
        SmoothedMinAverage {
            estimator,
            scale,
            model: None,
        }
    }
}

impl Router for SmoothedMinAverage {
    fn decide(&mut self, ctx: &mut RouteCtx<'_>) -> Route {
        let cases = route_model(&mut self.model, ctx.params).estimate(&ctx.obs, self.estimator);
        let advantage = cases.average_advantage_of_shipping(&ctx.obs);
        let p_ship = 1.0 / (1.0 + (-advantage / self.scale).exp());
        if ctx.rng.random::<f64>() < p_ship {
            Route::Central
        } else {
            Route::Local
        }
    }
}

/// What the failure-aware layer decided for an arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAwareDecision {
    /// Execute now on the given route.
    Run(Route),
    /// The central complex is unreachable; try again after a backoff
    /// (class B under failure-aware routing).
    Retry,
    /// Every component the transaction needs is down — turn it away.
    Reject,
}

/// Wraps the configured routing strategy with component-availability
/// awareness.
///
/// With both the local site and the central complex reachable, the wrapper
/// is transparent: it delegates to the inner strategy, drawing from the
/// same RNG stream, so fault-free runs are bit-identical with or without
/// it. During an outage it overrides the strategy:
///
/// * class A with its **site down** fails over to the central complex
///   (when `failover` is enabled; rejected otherwise);
/// * class A with the **central complex unreachable** runs locally
///   (without failover the inner strategy still decides, and a `Central`
///   choice is rejected — modelling a router that is oblivious to
///   failures);
/// * class B with the central complex unreachable retries with backoff
///   (with failover) or is rejected;
/// * with **both down**, arrivals are rejected.
#[derive(Debug)]
pub struct FailureAwareRouter {
    inner: Box<dyn Router>,
    failover: bool,
}

impl FailureAwareRouter {
    /// Wraps `inner`; `failover` enables the availability overrides.
    #[must_use]
    pub fn new(inner: Box<dyn Router>, failover: bool) -> Self {
        FailureAwareRouter { inner, failover }
    }

    /// Routes a class A arrival given which components are reachable.
    pub fn decide_class_a(
        &mut self,
        ctx: &mut RouteCtx<'_>,
        local_ok: bool,
        central_ok: bool,
    ) -> FaultAwareDecision {
        match (local_ok, central_ok) {
            (true, true) => FaultAwareDecision::Run(self.inner.decide(ctx)),
            (false, true) => {
                if self.failover {
                    FaultAwareDecision::Run(Route::Central)
                } else {
                    FaultAwareDecision::Reject
                }
            }
            (true, false) => {
                if self.failover {
                    FaultAwareDecision::Run(Route::Local)
                } else {
                    // A failure-oblivious strategy still decides (same RNG
                    // draws as ever); shipping into the outage fails.
                    match self.inner.decide(ctx) {
                        Route::Local => FaultAwareDecision::Run(Route::Local),
                        Route::Central => FaultAwareDecision::Reject,
                    }
                }
            }
            (false, false) => FaultAwareDecision::Reject,
        }
    }

    /// Routes a class B arrival. `ok` is whether every component it needs
    /// is reachable (the central complex; plus the origin site in
    /// remote-calls mode); `retries_left` is whether its retry budget
    /// allows another backoff.
    pub fn decide_class_b(&mut self, ok: bool, retries_left: bool) -> FaultAwareDecision {
        if ok {
            FaultAwareDecision::Run(Route::Central)
        } else if self.failover && retries_left {
            FaultAwareDecision::Retry
        } else {
            FaultAwareDecision::Reject
        }
    }

    /// Forwards a local class A completion to the inner strategy.
    pub fn on_local_completion(&mut self, site: usize, response: SimDuration) {
        self.inner.on_local_completion(site, response);
    }

    /// Forwards a shipped class A completion to the inner strategy.
    pub fn on_shipped_completion(&mut self, site: usize, response: SimDuration) {
        self.inner.on_shipped_completion(site, response);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_sim::RngStreams;

    fn ctx<'a>(params: &'a SystemParams, rng: &'a mut SimRng, obs: Observed) -> RouteCtx<'a> {
        RouteCtx {
            now: SimTime::ZERO,
            site: 0,
            obs,
            params,
            rng,
        }
    }

    fn ctx_at<'a>(
        params: &'a SystemParams,
        rng: &'a mut SimRng,
        site: usize,
        obs: Observed,
    ) -> RouteCtx<'a> {
        RouteCtx {
            now: SimTime::ZERO,
            site,
            obs,
            params,
            rng,
        }
    }

    #[test]
    fn island_aware_reduces_to_min_average_on_uniform_topology() {
        let params = SystemParams::paper_default();
        let est = UtilizationEstimator::NumInSystem;
        let mut rng = RngStreams::new(4).stream(0);
        let mut plain = RouterSpec::MinAverage { estimator: est }.build(10);
        // Both the no-delays build and a uniform vector at the nominal
        // delay must agree with min-average everywhere.
        let mut bare = RouterSpec::IslandAware { estimator: est }.build(10);
        let mut uniform =
            RouterSpec::IslandAware { estimator: est }.build_topo(10, &[params.comm_delay; 10]);
        for q in 0..30 {
            let obs = Observed {
                q_local: f64::from(q),
                n_local: f64::from(q) + 1.0,
                q_central: 3.0,
                n_central: 8.0,
                ..Observed::default()
            };
            let want = plain.decide(&mut ctx(&params, &mut rng, obs));
            assert_eq!(bare.decide(&mut ctx(&params, &mut rng, obs)), want);
            assert_eq!(uniform.decide(&mut ctx(&params, &mut rng, obs)), want);
        }
    }

    #[test]
    fn island_aware_pays_the_premium_only_intra_island() {
        // Two sites, same observed load: site 0 shares the central
        // island (cheap 0.05 s link), site 1 is across the island
        // boundary (2 s link). The documented choice: the intra-island
        // site ships its overload, the remote site eats it locally
        // rather than paying four 2-second legs.
        let params = SystemParams::paper_default();
        let est = UtilizationEstimator::QueueLength;
        let mut rng = RngStreams::new(5).stream(0);
        let mut r = RouterSpec::IslandAware { estimator: est }.build_topo(2, &[0.05, 2.0]);
        let obs = Observed {
            q_local: 6.0,
            n_local: 7.0,
            ..Observed::default()
        };
        assert_eq!(
            r.decide(&mut ctx_at(&params, &mut rng, 0, obs)),
            Route::Central,
            "intra-island site should use the cheap link"
        );
        assert_eq!(
            r.decide(&mut ctx_at(&params, &mut rng, 1, obs)),
            Route::Local,
            "remote site should not pay the inter-island premium"
        );
    }

    #[test]
    fn threshold_router_keeps_the_fast_site_local() {
        // Known value: q_local = 4 (rho 0.8), q_central = 2 (rho 2/3).
        // On nominal hardware the local site looks busier and the
        // transaction ships; at double speed its normalized utilization
        // halves to 0.4 and the same queue stays local.
        let params = SystemParams::paper_default();
        let mut rng = RngStreams::new(6).stream(0);
        let mut r = RouterSpec::UtilizationThreshold { threshold: 0.0 }.build(10);
        let nominal = Observed {
            q_local: 4.0,
            q_central: 2.0,
            ..Observed::default()
        };
        assert_eq!(
            r.decide(&mut ctx(&params, &mut rng, nominal)),
            Route::Central
        );
        let fast = Observed {
            local_speed: 2.0,
            ..nominal
        };
        assert_eq!(r.decide(&mut ctx(&params, &mut rng, fast)), Route::Local);
    }

    #[test]
    fn min_average_routers_respect_site_speed() {
        // A queue that ships on nominal hardware is kept local once the
        // site is fast enough to drain it, for both min-criteria.
        let params = SystemParams::paper_default();
        let mut rng = RngStreams::new(7).stream(0);
        let nominal = Observed {
            q_local: 9.0,
            n_local: 10.0,
            ..Observed::default()
        };
        let fast = Observed {
            local_speed: 8.0,
            ..nominal
        };
        for spec in [
            RouterSpec::MinAverage {
                estimator: UtilizationEstimator::QueueLength,
            },
            RouterSpec::MinIncoming {
                estimator: UtilizationEstimator::QueueLength,
            },
        ] {
            let mut r = spec.build(10);
            assert_eq!(
                r.decide(&mut ctx(&params, &mut rng, nominal)),
                Route::Central,
                "{} kept an overloaded nominal site local",
                spec.label()
            );
            assert_eq!(
                r.decide(&mut ctx(&params, &mut rng, fast)),
                Route::Local,
                "{} shipped from a fast site",
                spec.label()
            );
        }
    }

    #[test]
    fn no_sharing_never_ships() {
        let params = SystemParams::paper_default();
        let mut rng = RngStreams::new(1).stream(0);
        let mut r = RouterSpec::NoSharing.build(10);
        for _ in 0..50 {
            let obs = Observed {
                q_local: 100.0,
                ..Observed::default()
            };
            assert_eq!(r.decide(&mut ctx(&params, &mut rng, obs)), Route::Local);
        }
    }

    #[test]
    fn static_matches_probability() {
        let params = SystemParams::paper_default();
        let mut rng = RngStreams::new(2).stream(0);
        let mut r = RouterSpec::Static { p_ship: 0.3 }.build(10);
        let n = 20_000;
        let shipped = (0..n)
            .filter(|_| {
                r.decide(&mut ctx(&params, &mut rng, Observed::default())) == Route::Central
            })
            .count();
        let frac = shipped as f64 / f64::from(n);
        assert!((frac - 0.3).abs() < 0.02, "frac = {frac}");
    }

    #[test]
    #[should_panic(expected = "p_ship")]
    fn static_rejects_bad_probability() {
        let _ = RouterSpec::Static { p_ship: 1.5 }.build(10);
    }

    #[test]
    fn queue_length_compares_queues() {
        let params = SystemParams::paper_default();
        let mut rng = RngStreams::new(3).stream(0);
        let mut r = RouterSpec::QueueLength.build(10);
        let obs = Observed {
            q_local: 5.0,
            q_central: 2.0,
            ..Observed::default()
        };
        assert_eq!(r.decide(&mut ctx(&params, &mut rng, obs)), Route::Central);
        let obs = Observed {
            q_local: 2.0,
            q_central: 2.0,
            ..Observed::default()
        };
        assert_eq!(r.decide(&mut ctx(&params, &mut rng, obs)), Route::Local);
    }

    #[test]
    fn threshold_shifts_the_decision() {
        let params = SystemParams::paper_default();
        let mut rng = RngStreams::new(4).stream(0);
        // rho_l = 0.5, rho_c = 0.5 -> difference 0.
        let obs = Observed {
            q_local: 1.0,
            q_central: 1.0,
            ..Observed::default()
        };
        let mut strict = RouterSpec::UtilizationThreshold { threshold: 0.0 }.build(10);
        assert_eq!(
            strict.decide(&mut ctx(&params, &mut rng, obs)),
            Route::Local
        );
        let mut eager = RouterSpec::UtilizationThreshold { threshold: -0.2 }.build(10);
        assert_eq!(
            eager.decide(&mut ctx(&params, &mut rng, obs)),
            Route::Central
        );
    }

    #[test]
    fn measured_response_follows_samples() {
        let params = SystemParams::paper_default();
        let mut rng = RngStreams::new(5).stream(0);
        let mut r = RouterSpec::MeasuredResponse.build(2);
        // Optimistic start: ships first.
        assert_eq!(
            r.decide(&mut ctx(&params, &mut rng, Observed::default())),
            Route::Central
        );
        r.on_shipped_completion(0, SimDuration::from_secs(3.0));
        r.on_local_completion(0, SimDuration::from_secs(1.0));
        assert_eq!(
            r.decide(&mut ctx(&params, &mut rng, Observed::default())),
            Route::Local
        );
        r.on_local_completion(0, SimDuration::from_secs(5.0));
        assert_eq!(
            r.decide(&mut ctx(&params, &mut rng, Observed::default())),
            Route::Central
        );
    }

    #[test]
    fn measured_response_is_per_site() {
        let params = SystemParams::paper_default();
        let mut rng = RngStreams::new(6).stream(0);
        let mut r = RouterSpec::MeasuredResponse.build(2);
        r.on_local_completion(0, SimDuration::from_secs(1.0));
        r.on_shipped_completion(0, SimDuration::from_secs(9.0));
        // Site 1 is untouched: still optimistic about shipping.
        let mut c = ctx(&params, &mut rng, Observed::default());
        c.site = 1;
        assert_eq!(r.decide(&mut c), Route::Central);
    }

    #[test]
    fn min_incoming_ships_under_local_overload() {
        let params = SystemParams::paper_default();
        let mut rng = RngStreams::new(7).stream(0);
        for est in [
            UtilizationEstimator::QueueLength,
            UtilizationEstimator::NumInSystem,
        ] {
            let mut r = RouterSpec::MinIncoming { estimator: est }.build(10);
            let overloaded = Observed {
                q_local: 15.0,
                n_local: 18.0,
                ..Observed::default()
            };
            assert_eq!(
                r.decide(&mut ctx(&params, &mut rng, overloaded)),
                Route::Central
            );
            assert_eq!(
                r.decide(&mut ctx(&params, &mut rng, Observed::default())),
                Route::Local
            );
        }
    }

    #[test]
    fn min_average_runs_and_is_deterministic() {
        let params = SystemParams::paper_default();
        let mut rng = RngStreams::new(8).stream(0);
        let mut r = RouterSpec::MinAverage {
            estimator: UtilizationEstimator::NumInSystem,
        }
        .build(10);
        let obs = Observed {
            q_local: 6.0,
            n_local: 8.0,
            q_central: 1.0,
            n_central: 5.0,
            ..Observed::default()
        };
        let a = r.decide(&mut ctx(&params, &mut rng, obs));
        let b = r.decide(&mut ctx(&params, &mut rng, obs));
        assert_eq!(a, b);
    }

    #[test]
    fn smoothed_router_is_probabilistic_near_indifference() {
        let params = SystemParams::paper_default();
        let mut rng = RngStreams::new(9).stream(0);
        let mut r = RouterSpec::SmoothedMinAverage {
            estimator: UtilizationEstimator::QueueLength,
            scale: 0.2,
        }
        .build(10);
        // A state where local overload clearly favours shipping: nearly
        // always ships, but not deterministically at modest advantage.
        let overloaded = Observed {
            q_local: 12.0,
            n_local: 14.0,
            ..Observed::default()
        };
        let ships = (0..500)
            .filter(|_| r.decide(&mut ctx(&params, &mut rng, overloaded)) == Route::Central)
            .count();
        assert!(ships > 450, "ships = {ships}");
        // Zero load favours local (advantage ~ -0.2 s, scale 0.2 =>
        // p_ship ~ 0.25), but the decision stays probabilistic.
        let keeps = (0..500)
            .filter(|_| r.decide(&mut ctx(&params, &mut rng, Observed::default())) == Route::Local)
            .count();
        assert!((300..500).contains(&keeps), "keeps = {keeps}");
    }

    #[test]
    #[should_panic(expected = "smoothing scale")]
    fn smoothed_router_rejects_bad_scale() {
        let _ = RouterSpec::SmoothedMinAverage {
            estimator: UtilizationEstimator::QueueLength,
            scale: 0.0,
        }
        .build(10);
    }

    #[test]
    fn failure_aware_is_transparent_when_everything_is_up() {
        let params = SystemParams::paper_default();
        let mut rng_a = RngStreams::new(11).stream(0);
        let mut rng_b = RngStreams::new(11).stream(0);
        let spec = RouterSpec::Static { p_ship: 0.5 };
        let mut plain = spec.build(10);
        let mut wrapped = FailureAwareRouter::new(spec.build(10), true);
        for _ in 0..200 {
            let direct = plain.decide(&mut ctx(&params, &mut rng_a, Observed::default()));
            let via = wrapped.decide_class_a(
                &mut ctx(&params, &mut rng_b, Observed::default()),
                true,
                true,
            );
            assert_eq!(via, FaultAwareDecision::Run(direct));
        }
    }

    #[test]
    fn failure_aware_overrides_during_outages() {
        let params = SystemParams::paper_default();
        let mut rng = RngStreams::new(12).stream(0);
        let mut r = FailureAwareRouter::new(RouterSpec::NoSharing.build(10), true);
        // Site down: class A fails over to the central complex.
        assert_eq!(
            r.decide_class_a(
                &mut ctx(&params, &mut rng, Observed::default()),
                false,
                true
            ),
            FaultAwareDecision::Run(Route::Central)
        );
        // Central down: class A runs locally, class B backs off.
        assert_eq!(
            r.decide_class_a(
                &mut ctx(&params, &mut rng, Observed::default()),
                true,
                false
            ),
            FaultAwareDecision::Run(Route::Local)
        );
        assert_eq!(r.decide_class_b(false, true), FaultAwareDecision::Retry);
        assert_eq!(r.decide_class_b(false, false), FaultAwareDecision::Reject);
        assert_eq!(
            r.decide_class_b(true, true),
            FaultAwareDecision::Run(Route::Central)
        );
        // Both down: nothing can run.
        assert_eq!(
            r.decide_class_a(
                &mut ctx(&params, &mut rng, Observed::default()),
                false,
                false
            ),
            FaultAwareDecision::Reject
        );
    }

    #[test]
    fn failure_oblivious_wrapper_rejects_instead_of_rerouting() {
        let params = SystemParams::paper_default();
        let mut rng = RngStreams::new(13).stream(0);
        let mut r = FailureAwareRouter::new(RouterSpec::Static { p_ship: 1.0 }.build(10), false);
        // Site down, no failover: rejected outright.
        assert_eq!(
            r.decide_class_a(
                &mut ctx(&params, &mut rng, Observed::default()),
                false,
                true
            ),
            FaultAwareDecision::Reject
        );
        // Central down and the oblivious strategy insists on shipping.
        assert_eq!(
            r.decide_class_a(
                &mut ctx(&params, &mut rng, Observed::default()),
                true,
                false
            ),
            FaultAwareDecision::Reject
        );
        assert_eq!(r.decide_class_b(false, true), FaultAwareDecision::Reject);
        // A local-preferring strategy still runs locally.
        let mut local = FailureAwareRouter::new(RouterSpec::NoSharing.build(10), false);
        assert_eq!(
            local.decide_class_a(
                &mut ctx(&params, &mut rng, Observed::default()),
                true,
                false
            ),
            FaultAwareDecision::Run(Route::Local)
        );
    }

    #[test]
    fn labels_are_unique() {
        let specs = [
            RouterSpec::NoSharing,
            RouterSpec::Static { p_ship: 0.5 },
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
        ];
        let mut labels: Vec<String> = specs.iter().map(RouterSpec::label).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), specs.len());
    }
}
