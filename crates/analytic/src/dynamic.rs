//! Dynamic routing estimators (Section 3.2).
//!
//! On each class A arrival, a router compares two hypothetical cases —
//! (1) run the transaction locally, (2) ship it to the central complex —
//! using response times estimated from easily observable state: CPU queue
//! lengths or transaction populations, plus lock counts for the contention
//! terms. The same Section 3.1 response-time equations are reused with
//! utilizations estimated from observations instead of a steady-state
//! fixed point.
//!
//! Two utilizations appear per case: the one *seen by the incoming
//! transaction* (excluding itself — a job never queues behind itself) and
//! the one *seen by everyone else* once the newcomer is added (the paper's
//! correction terms "to take into account the increase in utilization due
//! to the routing of the new transaction").

use crate::params::SystemParams;
use crate::response::{response_times_with, AbortOrder, ContentionInputs, HoldTimes};

/// State observed by a router at decision time.
///
/// Local quantities are exact (the router runs at the arriving site); the
/// central quantities come from the most recent snapshot piggybacked on a
/// message from the central complex, and may be stale.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Observed {
    /// CPU queue length at the arriving local site, including the job in
    /// service.
    pub q_local: f64,
    /// CPU queue length at the central complex.
    pub q_central: f64,
    /// Transactions present at the arriving site (running, in I/O, in lock
    /// wait, or in commit processing).
    pub n_local: f64,
    /// Transactions present at the central complex.
    pub n_central: f64,
    /// Lock grants at the arriving site's lock table.
    pub locks_local: f64,
    /// Lock grants at the central lock table.
    pub locks_central: f64,
    /// CPU speed of the arriving site relative to the nominal
    /// `local_mips` (1.0 on a homogeneous topology). A 2-MIPS site in a
    /// 1-MIPS system observes `local_speed = 2.0` and the same queue
    /// implies half the utilization.
    pub local_speed: f64,
    /// CPU speed of the site's central shard relative to the nominal
    /// `central_mips` (1.0 on a homogeneous topology).
    pub central_speed: f64,
}

impl Default for Observed {
    /// An empty system on nominal hardware: all counts zero, both
    /// speeds 1.0 (a zero default speed would mean an infinitely slow
    /// machine and break every `..Observed::default()` call site).
    fn default() -> Self {
        Observed {
            q_local: 0.0,
            q_central: 0.0,
            n_local: 0.0,
            n_central: 0.0,
            locks_local: 0.0,
            locks_central: 0.0,
            local_speed: 1.0,
            central_speed: 1.0,
        }
    }
}

/// Which observable drives the utilization estimate — the two variants of
/// Sections 3.2.1(a) and 3.2.1(b).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UtilizationEstimator {
    /// From the CPU queue length: `ρ = q / (q + 1)` for the state as
    /// observed, with the newcomer added to `q` for the with-routing case.
    QueueLength,
    /// From the number of transactions in the system: `n` is inverted
    /// through the M/M/1-style relation `n = ρ · R(ρ) / S` so that
    /// transactions in I/O and lock wait are accounted for.
    NumInSystem,
}

/// Response-time estimates for one routing case.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CaseEstimate {
    /// Estimated response time of the incoming transaction under this case
    /// (local response for case 1, shipped response for case 2), at the
    /// utilization excluding the newcomer itself.
    pub r_incoming: f64,
    /// Estimated response of a class A transaction running locally once
    /// the newcomer is routed per this case.
    pub r_local: f64,
    /// Estimated response of a central transaction once the newcomer is
    /// routed per this case.
    pub r_central: f64,
    /// Local utilization including the newcomer (if routed locally).
    pub rho_local: f64,
    /// Central utilization including the newcomer (if shipped).
    pub rho_central: f64,
}

/// The pair of case estimates a router compares.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouteEstimates {
    /// Case (1): the incoming transaction is run locally.
    pub run_local: CaseEstimate,
    /// Case (2): the incoming transaction is shipped to the central site.
    pub ship: CaseEstimate,
}

impl RouteEstimates {
    /// Section 3.2.1 decision: ship when the incoming transaction's own
    /// estimated response time is lower at the central site.
    #[must_use]
    pub fn prefer_ship_incoming(&self) -> bool {
        self.ship.r_incoming < self.run_local.r_incoming
    }

    /// Section 3.2.2 decision: ship when the estimated **average** response
    /// time of all current transactions (plus the newcomer) is lower for
    /// case (2) than case (1).
    #[must_use]
    pub fn prefer_ship_average(&self, obs: &Observed) -> bool {
        self.average_advantage_of_shipping(obs) > 0.0
    }

    /// How much the estimated average response time (over all current
    /// transactions plus the newcomer) improves by shipping: positive
    /// values favour case (2). Used by smoothed/probabilistic routing
    /// policies that randomize decisions near the indifference point to
    /// avoid herding on stale state.
    #[must_use]
    pub fn average_advantage_of_shipping(&self, obs: &Observed) -> f64 {
        let total = obs.n_local + obs.n_central + 1.0;
        let avg_run_local = (self.run_local.r_incoming
            + obs.n_local * self.run_local.r_local
            + obs.n_central * self.run_local.r_central)
            / total;
        let avg_ship = (self.ship.r_incoming
            + obs.n_local * self.ship.r_local
            + obs.n_central * self.ship.r_central)
            / total;
        avg_run_local - avg_ship
    }
}

/// `ρ = q / (q + 1)` — the utilization implied by a queue of length `q`
/// in an M/M/1 system.
fn rho_from_queue(q: f64) -> f64 {
    if q <= 0.0 {
        0.0
    } else {
        q / (q + 1.0)
    }
}

/// Normalizes a queue-implied utilization by the observing node's CPU
/// speed: a server `s`× faster drains the same queue `s`× sooner, so
/// the pressure it signals is `ρ / s`.
///
/// `speed == 1.0` is an exact pass-through (`x / 1.0 == x` in IEEE 754),
/// preserving bit-identity on homogeneous topologies; heterogeneous
/// speeds clamp into `[0, 0.999)` so a slow node cannot push the
/// response-time equations past saturation.
fn normalize_rho(rho: f64, speed: f64) -> f64 {
    if speed == 1.0 {
        rho
    } else {
        (rho / speed).clamp(0.0, 0.999)
    }
}

/// Inverts `n = ρ · R(ρ) / S` with `R(ρ) = A + S / (1 − ρ)` (non-CPU time
/// `A`, CPU demand `S`) for `ρ`, so that a population count that includes
/// transactions in I/O and lock wait maps to a CPU utilization.
///
/// The quadratic `−Aρ² + (A + S + nS)ρ − nS = 0` has exactly one root in
/// `[0, 1)` for `n ≥ 0`.
fn rho_from_population(n: f64, cpu: f64, non_cpu: f64) -> f64 {
    if n <= 0.0 {
        return 0.0;
    }
    if non_cpu <= 1e-12 {
        // Pure CPU residence: n = ρ/(1−ρ).
        return n / (n + 1.0);
    }
    let b = non_cpu + cpu + n * cpu;
    let disc = (b * b - 4.0 * non_cpu * n * cpu).max(0.0);
    ((b - disc.sqrt()) / (2.0 * non_cpu)).clamp(0.0, 0.999)
}

/// Time a shipped transaction resides at the central complex (its response
/// minus the two in-transit legs).
fn central_residence(params: &SystemParams) -> f64 {
    params.nominal_central_response() - 2.0 * params.comm_delay
}

/// Utilization pair (local, central) for the observed state, optionally
/// with the incoming transaction added at one site.
fn utilizations(
    params: &SystemParams,
    obs: &Observed,
    estimator: UtilizationEstimator,
    extra_local: f64,
    extra_central: f64,
) -> (f64, f64) {
    match estimator {
        UtilizationEstimator::QueueLength => (
            normalize_rho(rho_from_queue(obs.q_local + extra_local), obs.local_speed),
            normalize_rho(
                rho_from_queue(obs.q_central + extra_central),
                obs.central_speed,
            ),
        ),
        UtilizationEstimator::NumInSystem => {
            // The observing node's true service rate: nominal MIPS
            // scaled by its relative speed (exact at speed 1.0, since
            // `x * 1.0 == x`).
            let cpu_l = params.exec_instr() / (params.local_mips * obs.local_speed);
            let cpu_c = params.central_exec_instr() / (params.central_mips * obs.central_speed);
            let non_cpu_l = params.total_io();
            let non_cpu_c = central_residence(params) - cpu_c;
            (
                rho_from_population(obs.n_local + extra_local, cpu_l, non_cpu_l),
                rho_from_population(obs.n_central + extra_central, cpu_c, non_cpu_c),
            )
        }
    }
}

/// Contention inputs from observed lock counts, following Section 3.2.1:
/// "the probabilities of contention are estimated from the number of locks
/// held", e.g. `P = n_lock / lockspace`.
fn contention_from_observation(
    params: &SystemParams,
    holds: &HoldTimes,
    obs: &Observed,
) -> ContentionInputs {
    let s = params.slice();
    let l = params.lockspace;
    let d = params.comm_delay;
    let nl = params.locks_per_txn;

    let p_ll = (obs.locks_local / s).min(1.0);
    // Central locks are uniform over the whole space; the share in any one
    // slice is locks_central / lockspace of the slice.
    let p_central = (obs.locks_central / l).min(1.0);
    // Authentication holds last ~2d out of a beta_c lock span.
    let p_lauth = (p_central * (2.0 * d / holds.beta_c).min(1.0)).min(1.0);
    // Little's-law request-rate estimates for the as-holder abort terms.
    let local_commit_rate = obs.n_local / params.nominal_local_response();
    let central_req_rate_db =
        obs.n_central * nl / central_residence(params) / params.n_sites as f64;
    let local_req_rate_site = obs.n_local * nl / params.nominal_local_response();
    let p_coh = (local_commit_rate * nl * 2.0 * d / s).min(1.0);

    ContentionInputs {
        p_ll,
        p_lc_new: p_central,
        p_lc_rerun: 0.0,
        p_lauth,
        p_cc: p_central,
        p_cl_new: p_ll,
        p_cl_rerun: 0.0,
        p_coh,
        central_req_rate_db,
        local_req_rate_site,
    }
}

/// The part of the dynamic routing estimate that depends only on the
/// system parameters: the validated parameters, the nominal lock spans and
/// their collision-order probabilities. Build it once per parameter set
/// and call [`RouteModel::estimate`] per decision; only the arithmetic
/// that depends on the observation runs there.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteModel {
    params: SystemParams,
    holds: HoldTimes,
    order: AbortOrder,
}

impl RouteModel {
    /// Validates `params` and evaluates their collision-order
    /// probabilities.
    ///
    /// # Panics
    ///
    /// Panics if `params` fail validation.
    #[must_use]
    pub fn new(params: &SystemParams) -> Self {
        params.validate().expect("invalid system parameters");
        let holds = HoldTimes::nominal(params);
        RouteModel {
            params: *params,
            holds,
            order: AbortOrder::new(&holds, params.comm_delay),
        }
    }

    /// The parameters the model was built for.
    #[must_use]
    pub fn params(&self) -> &SystemParams {
        &self.params
    }

    /// Produces the case-(1)/case-(2) estimates a dynamic router compares.
    #[must_use]
    pub fn estimate(&self, obs: &Observed, estimator: UtilizationEstimator) -> RouteEstimates {
        let params = &self.params;
        let holds = &self.holds;
        let c = contention_from_observation(params, holds, obs);
        let response =
            |rho_l, rho_c| response_times_with(params, rho_l, rho_c, &c, holds, &self.order);

        // Utilizations seen by the newcomer (state as observed, self excluded).
        let (rho_l_base, rho_c_base) = utilizations(params, obs, estimator, 0.0, 0.0);
        let base = response(rho_l_base, rho_c_base);

        // Case 1: newcomer routed locally — others see a busier local site.
        let (rho_l_plus, _) = utilizations(params, obs, estimator, 1.0, 0.0);
        let case1 = response(rho_l_plus, rho_c_base);

        // Case 2: newcomer shipped — others see a busier central complex.
        let (_, rho_c_plus) = utilizations(params, obs, estimator, 0.0, 1.0);
        let case2 = response(rho_l_base, rho_c_plus);

        RouteEstimates {
            run_local: CaseEstimate {
                r_incoming: base.r_local,
                r_local: case1.r_local,
                // Routing the newcomer locally leaves the central complex (and
                // the other sites' origin processing) unchanged for the
                // transactions already in the system.
                r_central: base.r_central,
                rho_local: rho_l_plus,
                rho_central: rho_c_base,
            },
            ship: CaseEstimate {
                r_incoming: base.r_central,
                r_local: case2.r_local,
                r_central: case2.r_central,
                rho_local: rho_l_base,
                rho_central: rho_c_plus,
            },
        }
    }
}

/// Produces the case-(1)/case-(2) estimates a dynamic router compares,
/// building a [`RouteModel`] for this one call.
///
/// # Panics
///
/// Panics if `params` fail validation.
#[must_use]
pub fn estimate_route_cases(
    params: &SystemParams,
    obs: &Observed,
    estimator: UtilizationEstimator,
) -> RouteEstimates {
    RouteModel::new(params).estimate(obs, estimator)
}

/// The utilization estimate used by the tuned queue-length heuristic of
/// Section 3.2.4 / Figure 4.4: current utilizations **excluding** the new
/// transaction, normalized by each node's CPU speed; ship when
/// `ρ_local − ρ_central > threshold`.
#[must_use]
pub fn heuristic_utilizations(obs: &Observed) -> (f64, f64) {
    (
        normalize_rho(rho_from_queue(obs.q_local), obs.local_speed),
        normalize_rho(rho_from_queue(obs.q_central), obs.central_speed),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> SystemParams {
        SystemParams::paper_default()
    }

    #[test]
    fn empty_system_prefers_local() {
        // Zero load: shipping costs four communication delays for nothing.
        let obs = Observed::default();
        for est in [
            UtilizationEstimator::QueueLength,
            UtilizationEstimator::NumInSystem,
        ] {
            let cases = estimate_route_cases(&params(), &obs, est);
            assert!(
                !cases.prefer_ship_incoming(),
                "{est:?} shipped at zero load"
            );
            assert!(
                !cases.prefer_ship_average(&obs),
                "{est:?} shipped at zero load"
            );
        }
    }

    #[test]
    fn long_local_queue_prefers_shipping() {
        let obs = Observed {
            q_local: 12.0,
            n_local: 14.0,
            ..Observed::default()
        };
        for est in [
            UtilizationEstimator::QueueLength,
            UtilizationEstimator::NumInSystem,
        ] {
            let cases = estimate_route_cases(&params(), &obs, est);
            assert!(
                cases.prefer_ship_incoming(),
                "{est:?} kept local under overload"
            );
            assert!(
                cases.prefer_ship_average(&obs),
                "{est:?} kept local under overload"
            );
        }
    }

    #[test]
    fn busy_central_discourages_shipping() {
        let obs = Observed {
            q_local: 2.0,
            n_local: 3.0,
            q_central: 30.0,
            n_central: 40.0,
            ..Observed::default()
        };
        let cases = estimate_route_cases(&params(), &obs, UtilizationEstimator::QueueLength);
        assert!(!cases.prefer_ship_incoming());
    }

    #[test]
    fn routing_correction_raises_target_utilization() {
        let obs = Observed {
            q_local: 3.0,
            q_central: 3.0,
            ..Observed::default()
        };
        let cases = estimate_route_cases(&params(), &obs, UtilizationEstimator::QueueLength);
        assert!(cases.run_local.rho_local > cases.ship.rho_local);
        assert!(cases.ship.rho_central > cases.run_local.rho_central);
        // Others at the local site are slower when the newcomer joins them.
        assert!(cases.run_local.r_local > cases.ship.r_local);
        assert!(cases.ship.r_central >= cases.run_local.r_central);
    }

    #[test]
    fn average_criterion_is_more_reluctant_with_big_central_population() {
        // With many residents at the central complex, the average criterion
        // weighs the harm shipping does to them; across local queue depths
        // it ships no more often than the incoming-only criterion.
        let p = params();
        let (mut ship_avg, mut ship_inc) = (0, 0);
        for q_local in 0..12 {
            let obs = Observed {
                q_local: f64::from(q_local),
                n_local: f64::from(q_local) + 1.0,
                q_central: 4.0,
                n_central: 60.0,
                ..Observed::default()
            };
            let cases = estimate_route_cases(&p, &obs, UtilizationEstimator::QueueLength);
            ship_avg += i32::from(cases.prefer_ship_average(&obs));
            ship_inc += i32::from(cases.prefer_ship_incoming());
        }
        assert!(
            ship_avg <= ship_inc,
            "avg shipped {ship_avg}, incoming {ship_inc}"
        );
        assert!(
            ship_inc > 0,
            "incoming criterion never shipped in the sweep"
        );
    }

    #[test]
    fn lock_counts_feed_contention() {
        let p = params();
        let quiet = estimate_route_cases(
            &p,
            &Observed {
                q_local: 2.0,
                ..Observed::default()
            },
            UtilizationEstimator::QueueLength,
        );
        let contended = estimate_route_cases(
            &p,
            &Observed {
                q_local: 2.0,
                locks_local: 400.0,
                locks_central: 3000.0,
                n_local: 4.0,
                n_central: 10.0,
                ..Observed::default()
            },
            UtilizationEstimator::QueueLength,
        );
        assert!(contended.run_local.r_incoming > quiet.run_local.r_incoming);
        assert!(contended.ship.r_incoming > quiet.ship.r_incoming);
    }

    #[test]
    fn heuristic_utilizations_exclude_newcomer() {
        let (rl, rc) = heuristic_utilizations(&Observed {
            q_local: 3.0,
            q_central: 1.0,
            ..Observed::default()
        });
        assert!((rl - 0.75).abs() < 1e-12);
        assert!((rc - 0.5).abs() < 1e-12);
        let (zl, zc) = heuristic_utilizations(&Observed::default());
        assert_eq!((zl, zc), (0.0, 0.0));
    }

    #[test]
    fn num_in_system_tracks_population() {
        let p = params();
        let few = estimate_route_cases(
            &p,
            &Observed {
                n_local: 1.0,
                ..Observed::default()
            },
            UtilizationEstimator::NumInSystem,
        );
        let many = estimate_route_cases(
            &p,
            &Observed {
                n_local: 10.0,
                ..Observed::default()
            },
            UtilizationEstimator::NumInSystem,
        );
        assert!(many.run_local.rho_local > few.run_local.rho_local);
        assert!(many.run_local.r_incoming > few.run_local.r_incoming);
    }

    #[test]
    fn population_inversion_is_consistent() {
        // n -> rho -> n round trip: n = rho * R(rho) / S.
        let cpu = 0.67;
        let non_cpu = 0.3;
        for n in [0.5, 1.0, 3.0, 9.0, 30.0] {
            let rho = rho_from_population(n, cpu, non_cpu);
            assert!((0.0..1.0).contains(&rho), "rho = {rho}");
            let r = non_cpu + cpu / (1.0 - rho);
            let n_back = rho * r / cpu;
            assert!(
                (n_back - n).abs() < 1e-6 * n.max(1.0),
                "n = {n}, back = {n_back}"
            );
        }
        assert_eq!(rho_from_population(0.0, cpu, non_cpu), 0.0);
        // Degenerate: no non-CPU time.
        assert!((rho_from_population(1.0, cpu, 0.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn double_speed_site_reports_half_the_utilization() {
        // The issue's known value: a 2-MIPS site at the same queue
        // length reports exactly half the utilization of a 1-MIPS site.
        let slow = Observed {
            q_local: 3.0,
            q_central: 3.0,
            ..Observed::default()
        };
        let fast = Observed {
            local_speed: 2.0,
            ..slow
        };
        let (rho_slow, rc_slow) = heuristic_utilizations(&slow);
        let (rho_fast, rc_fast) = heuristic_utilizations(&fast);
        assert!((rho_slow - 0.75).abs() < 1e-12);
        assert_eq!(rho_fast, rho_slow / 2.0);
        // Central speed untouched: the central estimate is unchanged.
        assert_eq!(rc_slow, rc_fast);
        // Fast central shard halves the central estimate symmetrically.
        let fast_central = Observed {
            central_speed: 2.0,
            ..slow
        };
        let (_, rc) = heuristic_utilizations(&fast_central);
        assert_eq!(rc, rc_slow / 2.0);
    }

    #[test]
    fn unit_speed_is_an_exact_passthrough() {
        // Bit-identity contract: a homogeneous Observed (speeds 1.0)
        // must produce exactly the same estimates as before the speed
        // fields existed, for both estimators.
        let obs = Observed {
            q_local: 5.0,
            q_central: 2.0,
            n_local: 7.0,
            n_central: 3.0,
            ..Observed::default()
        };
        assert_eq!(obs.local_speed, 1.0);
        assert_eq!(obs.central_speed, 1.0);
        let p = params();
        for est in [
            UtilizationEstimator::QueueLength,
            UtilizationEstimator::NumInSystem,
        ] {
            let (rl, rc) = utilizations(&p, &obs, est, 0.0, 0.0);
            // Recompute the pre-speed formulas by hand.
            let (el, ec) = match est {
                UtilizationEstimator::QueueLength => {
                    (rho_from_queue(obs.q_local), rho_from_queue(obs.q_central))
                }
                UtilizationEstimator::NumInSystem => {
                    let cpu_l = p.exec_instr() / p.local_mips;
                    let cpu_c = p.central_exec_instr() / p.central_mips;
                    (
                        rho_from_population(obs.n_local, cpu_l, p.total_io()),
                        rho_from_population(obs.n_central, cpu_c, central_residence(&p) - cpu_c),
                    )
                }
            };
            assert_eq!((rl, rc), (el, ec), "{est:?} drifted at unit speed");
        }
    }

    #[test]
    fn fast_site_discourages_shipping_in_population_estimator() {
        // Same population, faster local CPU: the local case gets
        // cheaper, so a fast site should be at least as reluctant to
        // ship as a nominal one.
        let p = params();
        let nominal = Observed {
            n_local: 8.0,
            q_local: 6.0,
            ..Observed::default()
        };
        let fast = Observed {
            local_speed: 4.0,
            ..nominal
        };
        let base = estimate_route_cases(&p, &nominal, UtilizationEstimator::NumInSystem);
        let quick = estimate_route_cases(&p, &fast, UtilizationEstimator::NumInSystem);
        assert!(quick.run_local.rho_local < base.run_local.rho_local);
        assert!(quick.run_local.r_incoming < base.run_local.r_incoming);
    }

    #[test]
    fn slow_site_saturates_but_stays_finite() {
        // A half-speed site under a deep queue clamps at 0.999 rather
        // than blowing past saturation.
        let obs = Observed {
            q_local: 500.0,
            local_speed: 0.5,
            ..Observed::default()
        };
        let (rl, _) = heuristic_utilizations(&obs);
        assert_eq!(rl, 0.999);
        let cases = estimate_route_cases(&params(), &obs, UtilizationEstimator::QueueLength);
        assert!(cases.run_local.r_incoming.is_finite());
        assert!(cases.prefer_ship_incoming());
    }

    #[test]
    fn queue_inversion_matches_mm1() {
        assert_eq!(rho_from_queue(0.0), 0.0);
        assert!((rho_from_queue(1.0) - 0.5).abs() < 1e-12);
        assert!((rho_from_queue(9.0) - 0.9).abs() < 1e-12);
    }
}
