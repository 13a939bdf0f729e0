//! # hls-core — the hybrid DBMS simulator and load-sharing strategies
//!
//! Reproduction of Ciciani, Dias & Yu, *Load Sharing in Hybrid
//! Distributed-Centralized Database Systems* (ICDCS 1988).
//!
//! The hybrid architecture connects `N` geographically distributed database
//! sites to one central computing complex holding a replica of every
//! partition. Class A transactions (purely local data) may run either at
//! their local site or at the central complex; class B transactions
//! (non-local data) always run centrally. This crate provides:
//!
//! * [`HybridSystem`] — a deterministic discrete-event simulation of the
//!   full Section 2 concurrency/coherency protocol (local + central
//!   locking, asynchronous update propagation with coherence counts,
//!   invalidation, the authentication phase, deadlock handling),
//! * [`RouterSpec`] / [`Router`] — all the paper's load-sharing strategies:
//!   no sharing, optimal static, the measured-response and queue-length
//!   heuristics, the tuned utilization-threshold heuristic, and the four
//!   analytic dynamic schemes (minimize incoming / average response, from
//!   queue lengths / populations),
//! * [`SystemConfig`] — the paper's Section 4.1 configuration with every
//!   parameter adjustable,
//! * [`RunMetrics`] — response times, throughput, shipped fraction, abort
//!   and utilization measurements,
//! * the **experiment engine** ([`sweep_rates`], [`replicate`],
//!   [`replicate_ci`], [`parallel_map`]) — sweeps and seed replications
//!   fanned across a scoped-thread worker pool with deterministic per-run
//!   seed derivation ([`derive_seed`]), so results are bit-identical for
//!   any thread count, plus Student-t confidence summaries
//!   ([`MetricSummary`]) and CI-targeted auto-replication.
//!
//! # Examples
//!
//! Compare no sharing against the paper's best dynamic strategy:
//!
//! ```
//! use hls_analytic::UtilizationEstimator;
//! use hls_core::{run_simulation, RouterSpec, SystemConfig};
//!
//! let cfg = SystemConfig::paper_default()
//!     .with_total_rate(18.0)
//!     .with_horizon(80.0, 20.0);
//! let none = run_simulation(cfg.clone(), RouterSpec::NoSharing)?;
//! let best = run_simulation(
//!     cfg,
//!     RouterSpec::MinAverage { estimator: UtilizationEstimator::NumInSystem },
//! )?;
//! assert!(best.completions > 0 && none.completions > 0);
//! # Ok::<(), hls_core::ConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod dense;
mod error;
mod experiment;
mod metrics;
mod msg;
mod router;
mod system;
mod trace;
mod txn;

pub use config::{ClassBMode, DeadlockVictim, SystemConfig};
pub use error::ConfigError;
pub use experiment::{
    default_jobs, derive_seed, mean_over, optimal_static_spec, parallel_map, replicate,
    replicate_ci, replicate_jobs, resolve_jobs, splitmix64, strategy_tag, summarize, sweep_rates,
    sweep_rates_ci, sweep_rates_jobs, sweep_rates_static, sweep_rates_static_jobs,
    try_parallel_map, CiOptions, CiRun, CiSweepPoint, MetricSummary, SweepPoint, NO_RATE_INDEX,
};
pub use metrics::{
    AbortCounts, AvailabilityMetrics, MetricsCollector, ObsReport, PlacementReport, ResponseKey,
    RunMetrics, ScaleReport, PHASE_NAMES,
};
pub use msg::{CentralSnapshot, Msg};
pub use router::{
    FailureAwareRouter, FaultAwareDecision, IslandAwareRouter, RouteCtx, Router, RouterSpec,
};
pub use system::{run_simulation, ConvergenceReport, HybridSystem, SamplePoint};
pub use trace::{Trace, TraceEvent};
pub use txn::{Phase, PhaseBreakdown, Route, Txn};

// Re-export the pieces users need alongside the simulator.
pub use hls_analytic::{Observed, SystemParams, UtilizationEstimator};
pub use hls_faults::{FaultEvent, FaultKind, FaultProfile, FaultSchedule};
pub use hls_net::{DelayMatrix, IslandSpec};
pub use hls_obs::{
    HistogramSummary, JsonlSink, LogHistogram, MemorySink, NullSink, ObsConfig, ProfileEntry,
    ProfileReport, Profiler, TraceSink, TRACE_SCHEMA, TRACE_SCHEMA_VERSION,
};
pub use hls_placement::{
    Migration, PartitionGeometry, PlacementConfig, PlacementMap, PlacementPolicy,
};
pub use hls_shard::{ShardMap, ShardSpec};
pub use hls_workload::{
    DriftModel, DriftSpec, RateProfile, TxnClass, WorkloadSpec, ZipfDistribution,
};
