//! Observability-equivalence suite: enabling histograms, profiling, or
//! streaming trace sinks must never change simulated results.
//!
//! The contract mirrors `parallel_equivalence.rs`: metrics depend only
//! on the experiment grid, never on what is being observed. Full
//! observability over the golden grid is the obs row of the root
//! `golden_metrics.rs`. These tests pin bit-identical [`RunMetrics`]
//! (via `PartialEq`, with the `obs` report stripped) between obs-on and
//! obs-off replications for every worker count, identical event streams
//! between the in-memory trace and a pluggable sink, and an exact JSONL
//! round trip.

use std::io::Write;
use std::sync::{Arc, Mutex};

use hls_core::{
    replicate_jobs, run_simulation, FaultSchedule, HybridSystem, JsonlSink, ObsConfig, RouterSpec,
    RunMetrics, SystemConfig, TraceEvent, TraceSink, TRACE_SCHEMA, TRACE_SCHEMA_VERSION,
};
use hls_obs::{parse_json, JsonValue};

/// Short-horizon base config; equivalence is about accounting, not
/// statistical quality.
fn quick_config() -> SystemConfig {
    SystemConfig::paper_default()
        .with_total_rate(18.0)
        .with_horizon(30.0, 6.0)
        .with_seed(42)
}

/// A contention-heavy variant that exercises deadlock aborts and their
/// restart backoff.
fn contended_config() -> SystemConfig {
    let mut cfg = SystemConfig::paper_default()
        .with_total_rate(26.0)
        .with_horizon(40.0, 5.0)
        .with_seed(7);
    // Tightest lockspace the validator allows (10 sites x 10 locks/txn):
    // near-certain lock conflicts, so deadlocks actually occur.
    cfg.params.lockspace = 100.0;
    cfg
}

fn strip_obs(mut m: RunMetrics) -> RunMetrics {
    m.obs = None;
    m
}

#[test]
fn obs_on_replications_are_bit_identical_across_job_counts() {
    let plain_cfg = quick_config();
    let obs_cfg = plain_cfg.clone().with_obs(ObsConfig::full());
    let spec = RouterSpec::QueueLength;
    let baseline = replicate_jobs(&plain_cfg, spec, 4, 1).expect("valid");
    for jobs in [1, 2, 8] {
        let observed = replicate_jobs(&obs_cfg, spec, 4, jobs).expect("valid");
        let stripped: Vec<RunMetrics> = observed.into_iter().map(strip_obs).collect();
        assert_eq!(baseline, stripped, "jobs={jobs} diverged under observation");
    }
}

#[test]
fn contended_run_records_restart_backoff_histogram() {
    let cfg = contended_config()
        .with_obs(ObsConfig::full())
        .with_deadlock_backoff_window(0.05);
    let m = run_simulation(cfg, RouterSpec::NoSharing).expect("valid");
    let deadlocks = m.aborts.deadlock_local + m.aborts.deadlock_central;
    assert!(deadlocks > 0, "config failed to provoke deadlocks");
    let obs = m.obs.expect("report");
    let backoff = obs
        .phases
        .iter()
        .find(|(name, _)| *name == "restart_backoff")
        .map(|(_, h)| h)
        .expect("restart_backoff histogram missing despite deadlocks");
    assert_eq!(backoff.count(), deadlocks);
    // Every backoff is drawn from [0, window).
    assert!(backoff.max().unwrap() < 0.05);
}

/// The configured window rescales the backoff delays deterministically.
#[test]
fn backoff_window_knob_bounds_the_recorded_delays() {
    let run = |window: f64| {
        let cfg = contended_config()
            .with_obs(ObsConfig::full())
            .with_deadlock_backoff_window(window);
        run_simulation(cfg, RouterSpec::NoSharing).expect("valid")
    };
    let narrow = run(0.01);
    let wide = run(0.5);
    let max_of = |m: &RunMetrics| {
        m.obs
            .as_ref()
            .unwrap()
            .phases
            .iter()
            .find(|(name, _)| *name == "restart_backoff")
            .map(|(_, h)| h.max().unwrap())
            .expect("restart_backoff histogram")
    };
    assert!(max_of(&narrow) < 0.01);
    assert!(max_of(&wide) < 0.5);
    assert!(
        max_of(&wide) > 0.01,
        "wide window never exceeded the narrow one"
    );
}

/// Fault run under full lock-table validation: a contended workload with
/// site, central, and link outages hammers every release path (crashes
/// clear whole tables, victims cancel waits, authentication force-
/// acquires), while [`HybridSystem::run_validated`] re-checks the
/// holder-edge counts, owner and entry slots, and arena queues of every
/// table after **each** event. Validation itself must be metrics-neutral.
#[test]
fn faulted_contended_run_preserves_lock_invariants() {
    let mut cfg = contended_config().with_horizon(60.0, 10.0);
    cfg.fault_schedule = FaultSchedule::empty()
        .site_outage(0, 15.0, 30.0)
        .central_outage(35.0, 42.0)
        .link_outage(3, 20.0, 28.0);
    cfg.failure_aware = true;
    let spec = RouterSpec::QueueLength;
    let plain = run_simulation(cfg.clone(), spec).expect("valid");
    let deadlocks = plain.aborts.deadlock_local + plain.aborts.deadlock_central;
    assert!(deadlocks > 0, "config failed to provoke deadlocks");
    let validated = HybridSystem::new(cfg, spec).expect("valid").run_validated();
    assert_eq!(plain, validated, "invariant checking changed the metrics");
}

/// A sink that shares its buffer with the test, since `run_with_sink`
/// returns an opaque `Box<dyn TraceSink>`.
#[derive(Debug)]
struct SharedSink(Arc<Mutex<Vec<(f64, TraceEvent)>>>);

impl TraceSink<TraceEvent> for SharedSink {
    fn record(&mut self, at_secs: f64, event: &TraceEvent) {
        self.0
            .lock()
            .expect("sink mutex")
            .push((at_secs, event.clone()));
    }
}

#[test]
fn sink_stream_matches_in_memory_trace() {
    let cfg = quick_config().with_total_rate(12.0);
    let spec = RouterSpec::QueueLength;
    let (m_traced, trace) = HybridSystem::new(cfg.clone(), spec)
        .expect("valid")
        .run_traced();
    let buffer = Arc::new(Mutex::new(Vec::new()));
    let (m_sink, _sink) = HybridSystem::new(cfg, spec)
        .expect("valid")
        .run_with_sink(Box::new(SharedSink(buffer.clone())));
    assert_eq!(m_traced, m_sink, "sink choice changed the metrics");
    let streamed = buffer.lock().expect("sink mutex");
    assert!(!streamed.is_empty());
    assert_eq!(streamed.len(), trace.len());
    for ((t_mem, ev_mem), (t_sink, ev_sink)) in trace.events().iter().zip(streamed.iter()) {
        assert_eq!(t_mem.as_secs(), *t_sink);
        assert_eq!(ev_mem, ev_sink);
    }
}

/// A writer that shares its bytes with the test, for the same reason.
#[derive(Debug, Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().expect("buf mutex").extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn jsonl_trace_round_trips_with_versioned_schema() {
    let cfg = quick_config().with_total_rate(12.0);
    let spec = RouterSpec::QueueLength;
    let (_, trace) = HybridSystem::new(cfg.clone(), spec)
        .expect("valid")
        .run_traced();
    let buf = SharedBuf::default();
    let sink = JsonlSink::new(buf.clone()).expect("header write");
    let (_, mut sink) = HybridSystem::new(cfg, spec)
        .expect("valid")
        .run_with_sink(Box::new(sink));
    sink.flush().expect("flush");
    let bytes = buf.0.lock().expect("buf mutex").clone();
    let text = String::from_utf8(bytes).expect("utf8");
    let mut lines = text.lines();

    let header = parse_json(lines.next().expect("header line")).expect("header json");
    assert_eq!(
        header.get("schema").and_then(JsonValue::as_str),
        Some(TRACE_SCHEMA)
    );
    assert_eq!(
        header.get("version").and_then(JsonValue::as_u64),
        Some(TRACE_SCHEMA_VERSION)
    );

    let events: Vec<JsonValue> = lines.map(|l| parse_json(l).expect("event json")).collect();
    assert_eq!(events.len(), trace.len(), "event count mismatch");
    for (obj, (at, ev)) in events.iter().zip(trace.events()) {
        // f64 round-trips exactly: Rust prints shortest-round-trip floats.
        assert_eq!(obj.get("t").and_then(JsonValue::as_f64), Some(at.as_secs()));
        assert_eq!(
            obj.get("kind").and_then(JsonValue::as_str),
            Some(ev.kind()),
            "kind mismatch at t={at:?}"
        );
        if ev.kind() == "completion" {
            let f = |k: &str| obj.get(k).and_then(JsonValue::as_f64).expect("phase field");
            let sum = f("queueing")
                + f("execution")
                + f("commit")
                + f("authentication")
                + f("restart_backoff");
            let response = f("response");
            assert!(
                (sum - response).abs() < 1e-9 * response.max(1.0),
                "phases must decompose the response: {sum} vs {response}"
            );
        }
    }
}
