//! Shared response-time evaluation (Section 3.1's equations).
//!
//! Both the static model and the dynamic routing estimators reduce to the
//! same computation: given CPU utilizations and per-lock-request contention
//! probabilities, produce expected response times for locally-run and
//! centrally-run (shipped / class B) transactions, including the rerun
//! expansion caused by local↔central collision aborts.

use crate::params::SystemParams;
use crate::residual::{p_local_loses_as_holder, p_local_loses_as_requester};

/// Cap on utilizations fed into the queueing expansion so estimates stay
/// finite; feasibility (ρ < 1) is tracked separately by the callers.
pub const RHO_CAP: f64 = 0.995;

/// Cap on per-run abort probabilities so the geometric rerun expansion
/// stays finite.
pub const ABORT_CAP: f64 = 0.95;

/// Steady-state transaction flow rates, per second.
///
/// "Per database" quantities are per slice of the lock space, following the
/// paper's assumption that transactions at the central site access the
/// databases uniformly.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FlowRates {
    /// New class A transactions running at one local site.
    pub local_new_site: f64,
    /// Re-run class A transactions at one local site.
    pub local_rerun_site: f64,
    /// New central transactions (class B + shipped class A) per database.
    pub central_new_db: f64,
    /// Re-run central transactions per database.
    pub central_rerun_db: f64,
    /// Local commits per site (each sends one asynchronous update).
    pub local_commit_site: f64,
}

/// Average lock-holding spans of the four transaction kinds, in seconds.
///
/// `beta_*` is the first-run lock-holding phase; `gamma_*` the re-run span
/// (a re-run retains its locks for its entire duration, since "locks ...
/// are not released after an abort").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HoldTimes {
    /// First-run local lock-holding span.
    pub beta_l: f64,
    /// Re-run local span.
    pub gamma_l: f64,
    /// First-run central lock-holding span (execution plus authentication).
    pub beta_c: f64,
    /// Re-run central span.
    pub gamma_c: f64,
}

impl HoldTimes {
    /// Zero-contention spans derived from the raw service demands.
    #[must_use]
    pub fn nominal(params: &SystemParams) -> Self {
        let exec_l = (params.exec_instr() - params.init_instr) / params.local_mips
            + params.locks_per_txn * params.io_per_call;
        let exec_c = params.central_exec_instr() / params.central_mips
            + params.locks_per_txn * params.io_per_call;
        let auth = 2.0 * params.comm_delay + params.auth_instr / params.local_mips;
        HoldTimes {
            beta_l: exec_l,
            gamma_l: params.rerun_instr() / params.local_mips,
            beta_c: exec_c + auth,
            gamma_c: params.rerun_instr() / params.central_mips + auth,
        }
    }
}

/// Per-lock-request contention probabilities plus the request rates needed
/// to account for collisions suffered *as a holder*.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ContentionInputs {
    /// Local request hits a lock held by another local transaction (wait).
    pub p_ll: f64,
    /// Local request hits a lock held by a new central transaction
    /// (collision → abort of one side).
    pub p_lc_new: f64,
    /// Local request hits a lock held by a re-run central transaction.
    pub p_lc_rerun: f64,
    /// Local request hits a lock held by a central transaction in its
    /// authentication phase (wait until the commit message arrives).
    pub p_lauth: f64,
    /// Central request hits a lock held by another central transaction
    /// (wait).
    pub p_cc: f64,
    /// Central request collides with a new local holder.
    pub p_cl_new: f64,
    /// Central request collides with a re-run local holder.
    pub p_cl_rerun: f64,
    /// Probability that a lock named in an authentication request has a
    /// non-zero coherence count (in-flight asynchronous update → negative
    /// acknowledgement → central re-execution).
    pub p_coh: f64,
    /// Lock requests per second by central transactions, per database.
    pub central_req_rate_db: f64,
    /// Lock requests per second by local transactions at one site.
    pub local_req_rate_site: f64,
}

impl ContentionInputs {
    /// Builds contention inputs from steady-state flow rates, projecting
    /// collision probability as proportional to (transaction rate per
    /// database) × (locks per transaction) × (lock holding time), exactly
    /// as in Section 3.1.
    #[must_use]
    pub fn from_rates(params: &SystemParams, rates: &FlowRates, holds: &HoldTimes) -> Self {
        let s = params.slice();
        let nl = params.locks_per_txn;
        let d = params.comm_delay;
        // Average locks held per slice by each population: a first-run
        // transaction holds each lock for half its lock phase on average; a
        // re-run retains all locks for its whole span.
        let local_new_ls = rates.local_new_site * nl * holds.beta_l / 2.0;
        let local_rr_ls = rates.local_rerun_site * nl * holds.gamma_l;
        let central_new_ls = rates.central_new_db * nl * holds.beta_c / 2.0;
        let central_rr_ls = rates.central_rerun_db * nl * holds.gamma_c;
        let auth_ls = (rates.central_new_db + rates.central_rerun_db) * nl * 2.0 * d;
        let coh_ls = rates.local_commit_site * nl * 2.0 * d;
        ContentionInputs {
            p_ll: ((local_new_ls + local_rr_ls) / s).min(1.0),
            p_lc_new: (central_new_ls / s).min(1.0),
            p_lc_rerun: (central_rr_ls / s).min(1.0),
            p_lauth: (auth_ls / s).min(1.0),
            p_cc: ((central_new_ls + central_rr_ls) / s).min(1.0),
            p_cl_new: (local_new_ls / s).min(1.0),
            p_cl_rerun: (local_rr_ls / s).min(1.0),
            p_coh: (coh_ls / s).min(1.0),
            central_req_rate_db: (rates.central_new_db + rates.central_rerun_db) * nl,
            local_req_rate_site: (rates.local_new_site + rates.local_rerun_site) * nl,
        }
    }
}

/// Response-time estimates (and the abort structure behind them) for the
/// six transaction kinds of Section 3.1, collapsed to local/central ×
/// first-run/re-run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResponseEstimate {
    /// First-run response of a class A transaction run locally.
    pub r_local_first: f64,
    /// Response of one local re-run.
    pub r_local_rerun: f64,
    /// Expected total local response including reruns.
    pub r_local: f64,
    /// First-run response of a shipped / class B transaction (including all
    /// communications and the authentication phase).
    pub r_central_first: f64,
    /// Response of one central re-execution.
    pub r_central_rerun: f64,
    /// Expected total central response including re-executions.
    pub r_central: f64,
    /// Abort probability of a local first run.
    pub p_abort_local_first: f64,
    /// Abort probability of a local re-run.
    pub p_abort_local_rerun: f64,
    /// Abort probability of a central first run.
    pub p_abort_central_first: f64,
    /// Abort probability of a central re-execution.
    pub p_abort_central_rerun: f64,
    /// Updated lock-holding spans implied by these response times; feed
    /// back for fixed-point iteration.
    pub holds: HoldTimes,
}

impl ResponseEstimate {
    /// Expected number of local reruns per transaction.
    #[must_use]
    pub fn expected_local_reruns(&self) -> f64 {
        self.p_abort_local_first / (1.0 - self.p_abort_local_rerun)
    }

    /// Expected number of central re-executions per transaction.
    #[must_use]
    pub fn expected_central_reruns(&self) -> f64 {
        self.p_abort_central_first / (1.0 - self.p_abort_central_rerun)
    }
}

/// Who-finishes-first probabilities for one set of lock spans and one
/// communications delay: for each pairing of a local first run (`bl`,
/// span `beta_l`) or re-run (`gl`, `gamma_l`) with a central first run
/// (`bc`, `beta_c`) or re-execution (`gc`, `gamma_c`), the probability that
/// the local side of a collision is the victim, as requester (`req_*`,
/// [`p_local_loses_as_requester`]) and as holder (`hold_*`,
/// [`p_local_loses_as_holder`]).
///
/// Each is a numerical integral that depends on nothing but the spans and
/// the delay, so a caller whose spans stay fixed builds this once.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct AbortOrder {
    req_bl_bc: f64,
    req_bl_gc: f64,
    req_gl_bc: f64,
    req_gl_gc: f64,
    hold_bl_bc: f64,
    hold_bl_gc: f64,
    hold_gl_bc: f64,
    hold_gl_gc: f64,
}

impl AbortOrder {
    /// Evaluates the eight integrals for spans `holds` and one-way delay
    /// `d`.
    pub(crate) fn new(holds: &HoldTimes, d: f64) -> Self {
        let HoldTimes {
            beta_l,
            gamma_l,
            beta_c,
            gamma_c,
        } = *holds;
        AbortOrder {
            req_bl_bc: p_local_loses_as_requester(beta_l, beta_c, d),
            req_bl_gc: p_local_loses_as_requester(beta_l, gamma_c, d),
            req_gl_bc: p_local_loses_as_requester(gamma_l, beta_c, d),
            req_gl_gc: p_local_loses_as_requester(gamma_l, gamma_c, d),
            hold_bl_bc: p_local_loses_as_holder(beta_l, beta_c, d),
            hold_bl_gc: p_local_loses_as_holder(beta_l, gamma_c, d),
            hold_gl_bc: p_local_loses_as_holder(gamma_l, beta_c, d),
            hold_gl_gc: p_local_loses_as_holder(gamma_l, gamma_c, d),
        }
    }
}

/// Evaluates the Section 3.1 response-time equations once.
///
/// `rho_local` / `rho_central` are CPU utilizations (capped at [`RHO_CAP`]
/// for the queueing expansion); `c` carries the contention probabilities
/// and `holds` the current lock-span estimates. The returned estimate
/// contains updated spans for fixed-point iteration.
#[must_use]
pub fn response_times(
    params: &SystemParams,
    rho_local: f64,
    rho_central: f64,
    c: &ContentionInputs,
    holds: &HoldTimes,
) -> ResponseEstimate {
    let order = AbortOrder::new(holds, params.comm_delay);
    response_times_with(params, rho_local, rho_central, c, holds, &order)
}

/// [`response_times`] with the collision-order probabilities supplied;
/// `order` must be `AbortOrder::new(holds, params.comm_delay)`.
pub(crate) fn response_times_with(
    params: &SystemParams,
    rho_local: f64,
    rho_central: f64,
    c: &ContentionInputs,
    holds: &HoldTimes,
    order: &AbortOrder,
) -> ResponseEstimate {
    let nl = params.locks_per_txn;
    let d = params.comm_delay;
    let s = params.slice();
    let el = 1.0 / (1.0 - rho_local.clamp(0.0, RHO_CAP));
    let ec = 1.0 / (1.0 - rho_central.clamp(0.0, RHO_CAP));

    // Mean residual hold of a (b − x)-distributed holder is b/3; an
    // authentication hold of 2d has mean residual d.
    let w_ll = holds.beta_l / 3.0;
    let w_cc = holds.beta_c / 3.0;
    let w_auth = d;

    // --- Local class A transaction ---
    let cpu_init_l = params.init_instr / params.local_mips * el;
    let cpu_exec_l = (params.exec_instr() - params.init_instr) / params.local_mips * el;
    let lock_wait_l = nl * (c.p_ll * w_ll + c.p_lauth * w_auth);
    let lock_phase_l = cpu_exec_l + nl * params.io_per_call + lock_wait_l;
    let r_local_first = params.setup_io + cpu_init_l + lock_phase_l;
    let r_local_rerun = params.rerun_instr() / params.local_mips * el + lock_wait_l;

    // --- Central (shipped class A / class B) transaction ---
    // Terminal message handling happens at the ORIGIN site (user terminals
    // connect to the distributed systems), subject to the local CPU queue;
    // the rest of the transaction runs at the central complex.
    let cpu_init_origin = params.ship_origin_instr / params.local_mips * el;
    let cpu_exec_c = params.central_exec_instr() / params.central_mips * ec;
    let lock_wait_c = nl * c.p_cc * w_cc;
    let exec_phase_c = cpu_exec_c + nl * params.io_per_call + lock_wait_c;
    let auth_round = 2.0 * d + params.auth_instr / params.local_mips;
    // origin processing + ship in + setup + execute + authenticate +
    // commit/reply out.
    let r_central_first = cpu_init_origin + d + params.setup_io + exec_phase_c + auth_round + d;
    let r_central_rerun =
        params.rerun_instr() / params.central_mips * ec + lock_wait_c + auth_round;

    // --- Abort probabilities from collision × who-finishes-first ---
    let AbortOrder {
        req_bl_bc,
        req_bl_gc,
        req_gl_bc,
        req_gl_gc,
        hold_bl_bc,
        hold_bl_gc,
        hold_gl_bc,
        hold_gl_gc,
    } = *order;

    // Local first run: collisions from its own requests plus central
    // requests landing on its held locks.
    let own_l1 = nl * (c.p_lc_new * req_bl_bc + c.p_lc_rerun * req_bl_gc);
    let as_holder_l1 = c.central_req_rate_db * (nl * holds.beta_l / 2.0) / s * hold_bl_bc;
    let p_abort_local_first = (own_l1 + as_holder_l1).clamp(0.0, ABORT_CAP);

    let own_l2 = nl * (c.p_lc_new * req_gl_bc + c.p_lc_rerun * req_gl_gc);
    let as_holder_l2 = c.central_req_rate_db * (nl * holds.gamma_l) / s * hold_gl_bc;
    let p_abort_local_rerun = (own_l2 + as_holder_l2).clamp(0.0, ABORT_CAP);

    // Central first run: its own requests colliding with local holders
    // (central loses when the local holder outlives its authentication),
    // local requests landing on its locks (central loses when the local
    // requester finishes first), plus coherence-count negative acks.
    let own_c1 = nl * (c.p_cl_new * (1.0 - hold_bl_bc) + c.p_cl_rerun * (1.0 - hold_gl_bc));
    let as_holder_c1 = c.local_req_rate_site * (nl * holds.beta_c / 2.0) / s * (1.0 - req_bl_bc);
    let p_coh_txn = 1.0 - (1.0 - c.p_coh).powf(nl);
    let p_abort_central_first = (own_c1 + as_holder_c1 + p_coh_txn).clamp(0.0, ABORT_CAP);

    let own_c2 = nl * (c.p_cl_new * (1.0 - hold_bl_gc) + c.p_cl_rerun * (1.0 - hold_gl_gc));
    let as_holder_c2 = c.local_req_rate_site * (nl * holds.gamma_c) / s * (1.0 - req_bl_bc);
    let p_abort_central_rerun = (own_c2 + as_holder_c2 + p_coh_txn).clamp(0.0, ABORT_CAP);

    // Geometric rerun expansion (the paper's fourth response-time term).
    let e_rr_l = p_abort_local_first / (1.0 - p_abort_local_rerun);
    let e_rr_c = p_abort_central_first / (1.0 - p_abort_central_rerun);
    let r_local = r_local_first + e_rr_l * r_local_rerun;
    let r_central = r_central_first + e_rr_c * r_central_rerun;

    let new_holds = HoldTimes {
        beta_l: lock_phase_l,
        gamma_l: r_local_rerun,
        beta_c: exec_phase_c + auth_round,
        gamma_c: r_central_rerun,
    };

    ResponseEstimate {
        r_local_first,
        r_local_rerun,
        r_local,
        r_central_first,
        r_central_rerun,
        r_central,
        p_abort_local_first,
        p_abort_local_rerun,
        p_abort_central_first,
        p_abort_central_rerun,
        holds: new_holds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn zero_contention() -> ContentionInputs {
        ContentionInputs::default()
    }

    #[test]
    fn zero_load_matches_nominal() {
        let p = SystemParams::paper_default();
        let est = response_times(&p, 0.0, 0.0, &zero_contention(), &HoldTimes::nominal(&p));
        assert!((est.r_local_first - p.nominal_local_response()).abs() < 1e-9);
        // Central adds the small auth processing at the local site.
        let expected = p.nominal_central_response() + p.auth_instr / p.local_mips;
        assert!((est.r_central_first - expected).abs() < 1e-9);
        assert_eq!(est.p_abort_local_first, 0.0);
        assert_eq!(est.p_abort_central_first, 0.0);
        assert_eq!(est.r_local, est.r_local_first);
    }

    #[test]
    fn response_is_monotone_in_utilization() {
        let p = SystemParams::paper_default();
        let h = HoldTimes::nominal(&p);
        let c = zero_contention();
        let mut last = 0.0;
        for i in 0..10 {
            let rho = f64::from(i) * 0.1;
            let est = response_times(&p, rho, rho, &c, &h);
            assert!(est.r_local_first > last);
            last = est.r_local_first;
        }
    }

    #[test]
    fn contention_waits_extend_local_response() {
        let p = SystemParams::paper_default();
        let h = HoldTimes::nominal(&p);
        let base = response_times(&p, 0.3, 0.3, &zero_contention(), &h);
        let contended = ContentionInputs {
            p_ll: 0.05,
            ..zero_contention()
        };
        let est = response_times(&p, 0.3, 0.3, &contended, &h);
        assert!(est.r_local_first > base.r_local_first);
        assert_eq!(est.r_central_first, base.r_central_first);
    }

    #[test]
    fn collisions_create_aborts_and_reruns() {
        let p = SystemParams::paper_default();
        let h = HoldTimes::nominal(&p);
        let c = ContentionInputs {
            p_lc_new: 0.01,
            p_cl_new: 0.01,
            central_req_rate_db: 10.0,
            local_req_rate_site: 10.0,
            ..zero_contention()
        };
        let est = response_times(&p, 0.2, 0.2, &c, &h);
        assert!(est.p_abort_local_first > 0.0);
        assert!(est.p_abort_central_first > 0.0);
        assert!(est.r_local > est.r_local_first);
        assert!(est.r_central > est.r_central_first);
        assert!(est.expected_local_reruns() > 0.0);
        assert!(est.expected_central_reruns() > 0.0);
    }

    #[test]
    fn coherence_probability_aborts_only_central() {
        let p = SystemParams::paper_default();
        let h = HoldTimes::nominal(&p);
        let c = ContentionInputs {
            p_coh: 0.01,
            ..zero_contention()
        };
        let est = response_times(&p, 0.0, 0.0, &c, &h);
        assert_eq!(est.p_abort_local_first, 0.0);
        assert!(est.p_abort_central_first > 0.05);
    }

    #[test]
    fn abort_probabilities_are_capped() {
        let p = SystemParams::paper_default();
        let h = HoldTimes::nominal(&p);
        let c = ContentionInputs {
            p_lc_new: 0.9,
            p_cl_new: 0.9,
            p_coh: 0.9,
            central_req_rate_db: 1e6,
            local_req_rate_site: 1e6,
            ..zero_contention()
        };
        let est = response_times(&p, 0.5, 0.5, &c, &h);
        assert!(est.p_abort_local_first <= ABORT_CAP);
        assert!(est.p_abort_central_first <= ABORT_CAP);
        assert!(est.r_local.is_finite());
        assert!(est.r_central.is_finite());
    }

    #[test]
    fn from_rates_scales_linearly_in_rate() {
        let p = SystemParams::paper_default();
        let h = HoldTimes::nominal(&p);
        let r1 = FlowRates {
            local_new_site: 1.0,
            central_new_db: 1.0,
            local_commit_site: 1.0,
            ..FlowRates::default()
        };
        let r2 = FlowRates {
            local_new_site: 2.0,
            central_new_db: 2.0,
            local_commit_site: 2.0,
            ..FlowRates::default()
        };
        let c1 = ContentionInputs::from_rates(&p, &r1, &h);
        let c2 = ContentionInputs::from_rates(&p, &r2, &h);
        assert!((c2.p_ll - 2.0 * c1.p_ll).abs() < 1e-12);
        assert!((c2.p_lc_new - 2.0 * c1.p_lc_new).abs() < 1e-12);
        assert!((c2.p_coh - 2.0 * c1.p_coh).abs() < 1e-12);
        assert!(c1.p_ll > 0.0 && c1.p_lauth > 0.0);
    }

    #[test]
    fn larger_holds_mean_more_contention() {
        let p = SystemParams::paper_default();
        let rates = FlowRates {
            local_new_site: 1.0,
            central_new_db: 1.0,
            ..FlowRates::default()
        };
        let h1 = HoldTimes::nominal(&p);
        let h2 = HoldTimes {
            beta_l: h1.beta_l * 2.0,
            gamma_l: h1.gamma_l * 2.0,
            beta_c: h1.beta_c * 2.0,
            gamma_c: h1.gamma_c * 2.0,
        };
        let c1 = ContentionInputs::from_rates(&p, &rates, &h1);
        let c2 = ContentionInputs::from_rates(&p, &rates, &h2);
        assert!(c2.p_ll > c1.p_ll);
        assert!(c2.p_cc > c1.p_cc);
    }

    #[test]
    fn updated_holds_are_positive_and_consistent() {
        let p = SystemParams::paper_default();
        let est = response_times(&p, 0.4, 0.4, &zero_contention(), &HoldTimes::nominal(&p));
        assert!(est.holds.beta_l > 0.0);
        assert!(est.holds.gamma_l > 0.0);
        assert!(
            est.holds.beta_c > 2.0 * p.comm_delay,
            "central span includes auth"
        );
        assert!(est.holds.beta_l < est.r_local_first);
    }
}
