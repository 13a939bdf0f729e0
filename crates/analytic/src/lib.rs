//! # hls-analytic — the Section 3 analytical model
//!
//! Analytical response-time model of the hybrid distributed–centralized
//! database system from Ciciani, Dias & Yu (ICDCS 1988), used three ways:
//!
//! 1. **Static load sharing** ([`solve_static`], [`optimal_static_ship`]):
//!    given arrival rates, find the probability `p_ship` of shipping an
//!    incoming class A transaction that minimizes mean response time.
//! 2. **Dynamic routing estimation** ([`RouteModel`],
//!    [`estimate_route_cases`]): at each arrival, estimate the
//!    response-time consequences of running locally vs. shipping, from
//!    observed queue lengths / populations / lock counts (Sections
//!    3.2.1–3.2.2).
//! 3. **Model validation**: the `analytic_check` experiment compares these
//!    predictions against the discrete-event simulator.
//!
//! The model captures CPU queueing at local and central sites (with their
//! different MIPS), communications delay, lock contention waits, and —
//! specific to the hybrid protocol — the **local↔central collision aborts**
//! resolved by asynchronous-update invalidation and the authentication
//! phase, including who-finishes-first residual-time analysis.
//!
//! # Examples
//!
//! ```
//! use hls_analytic::{optimal_static_ship, SystemParams};
//!
//! let params = SystemParams::paper_default();
//! // At 2.2 tps/site the local sites are past their knee: ship some work.
//! let opt = optimal_static_ship(&params, 2.2, 50);
//! assert!(opt.p_ship > 0.0);
//! assert!(opt.solution.feasible);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dynamic;
mod model;
mod params;
mod residual;
mod response;
mod static_opt;

pub use dynamic::{
    estimate_route_cases, heuristic_utilizations, CaseEstimate, Observed, RouteEstimates,
    RouteModel, UtilizationEstimator,
};
pub use model::{solve_static, StaticSolution};
pub use params::SystemParams;
pub use residual::{p_local_loses_as_holder, p_local_loses_as_requester};
pub use response::{
    response_times, ContentionInputs, FlowRates, HoldTimes, ResponseEstimate, ABORT_CAP, RHO_CAP,
};
pub use static_opt::{optimal_static_ship, StaticOptimum};
