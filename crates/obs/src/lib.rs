//! Streaming observability kernel for the hybrid load-sharing simulator.
//!
//! This crate has no dependencies and sits below every other workspace
//! crate, providing three orthogonal facilities:
//!
//! - [`LogHistogram`]: a zero-allocation-on-record, log-bucket (HDR
//!   style) streaming histogram with a fixed ~2% relative error and a
//!   layout shared by every instance, so histograms from independent
//!   replications merge by elementwise addition.
//! - [`TraceSink`]: a pluggable destination for simulator trace events
//!   ([`NullSink`], [`MemorySink`], and a [`JsonlSink`] that streams a
//!   versioned JSON Lines schema to disk).
//! - [`Profiler`]: per-subsystem wall-clock and invocation counters
//!   behind a cheap enable gate, reported as a deterministic
//!   [`ProfileReport`] table.
//!
//! Everything here observes the simulation without perturbing it: no
//! facility touches simulated time, random number streams, or event
//! ordering, which is what lets the simulator guarantee bit-identical
//! metrics with observability on or off.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod histogram;
pub mod json;
mod profiler;
mod sink;

pub use histogram::{HistogramSummary, LogHistogram, GROWTH, MAX_TRACKABLE, MIN_TRACKABLE};
pub use json::{parse_json, JsonObject, JsonValue};
pub use profiler::{ProfileEntry, ProfileReport, Profiler, Timer, TOTAL_KEY};
pub use sink::{
    jsonl_header, JsonlEvent, JsonlSink, MemorySink, NullSink, TraceSink, TRACE_SCHEMA,
    TRACE_SCHEMA_VERSION,
};

/// Which observability facilities a simulation run should enable.
///
/// The default (everything off) is the zero-overhead configuration;
/// enabling any field never changes simulated outcomes, only what is
/// collected alongside them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ObsConfig {
    /// Collect per-`(class, route, site)` and per-phase response-time
    /// histograms into the run's metrics.
    pub histograms: bool,
    /// Collect per-subsystem wall-clock and invocation counters and
    /// report them as a profile table.
    pub profile: bool,
}

impl ObsConfig {
    /// Everything enabled.
    #[must_use]
    pub fn full() -> Self {
        ObsConfig {
            histograms: true,
            profile: true,
        }
    }

    /// Whether any facility is enabled.
    #[must_use]
    pub fn any(&self) -> bool {
        self.histograms || self.profile
    }
}
