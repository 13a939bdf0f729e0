//! Physical conservation and consistency invariants of the simulator.
//!
//! Every run — fault-free or faulted, under any routing policy — must
//! conserve transactions: each completion, rejection, and crash abort
//! accounts for exactly one admitted arrival, nothing completes twice,
//! and what is left over at the horizon is a non-negative in-flight
//! population. The reported [`RunMetrics`] counters must agree with the
//! event trace, and the per-site observability histograms must
//! partition the completion count exactly.

use std::collections::HashMap;

use hls_core::{
    FaultSchedule, HybridSystem, RateProfile, RouterSpec, RunMetrics, SystemConfig, TraceEvent,
    UtilizationEstimator,
};

/// Every routing policy the paper studies.
fn all_specs() -> Vec<RouterSpec> {
    vec![
        RouterSpec::NoSharing,
        RouterSpec::Static { p_ship: 0.3 },
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
    ]
}

fn light_config() -> SystemConfig {
    SystemConfig::paper_default()
        .with_total_rate(18.0)
        .with_horizon(30.0, 6.0)
        .with_seed(42)
}

fn faulted_config() -> SystemConfig {
    let mut cfg = light_config();
    cfg.fault_schedule = FaultSchedule::empty()
        .site_outage(0, 8.0, 12.0)
        .central_outage(14.0, 16.0)
        .link_outage(3, 18.0, 20.0);
    cfg.failure_aware = true;
    cfg
}

/// Tallies of the traced run used by the conservation checks.
#[derive(Default)]
struct Ledger {
    arrivals: u64,
    completions: u64,
    rejected: u64,
    crashed: u64,
    arrivals_measured: u64,
    completions_measured: u64,
}

/// Replays a trace into a ledger, asserting id-level conservation along
/// the way: completions and crash aborts consume admitted ids exactly
/// once, and nothing completes after it was crash-killed.
fn audit(cfg: &SystemConfig, spec: RouterSpec) -> (RunMetrics, Ledger) {
    let mut sys = HybridSystem::new(cfg.clone(), spec).expect("valid config");
    sys.enable_trace();
    let (metrics, trace) = sys.run_traced();
    let warmup = cfg.warmup;
    let mut led = Ledger::default();
    // txn id -> still alive (admitted, neither completed nor crashed).
    let mut alive: HashMap<u64, ()> = HashMap::new();
    for (at, ev) in trace.events() {
        match ev {
            TraceEvent::Arrival { txn, .. } => {
                assert!(alive.insert(*txn, ()).is_none(), "txn {txn} admitted twice");
                led.arrivals += 1;
                if at.as_secs() > warmup {
                    led.arrivals_measured += 1;
                }
            }
            TraceEvent::Completion { txn, .. } => {
                assert!(
                    alive.remove(txn).is_some(),
                    "txn {txn} completed without being admitted (or completed twice)"
                );
                led.completions += 1;
                if at.as_secs() > warmup {
                    led.completions_measured += 1;
                }
            }
            TraceEvent::CrashAbort { txn, .. } => {
                assert!(
                    alive.remove(txn).is_some(),
                    "txn {txn} crash-killed without being admitted (or already gone)"
                );
                led.crashed += 1;
            }
            TraceEvent::Rejected { .. } => led.rejected += 1,
            _ => {}
        }
    }
    // Whatever was admitted and never left is the in-flight population
    // at the horizon — the trace-level conservation law.
    assert_eq!(
        led.arrivals,
        led.completions + led.crashed + alive.len() as u64,
        "arrivals must split into completions + crash aborts + in-flight"
    );
    (metrics, led)
}

/// Conservation at drain under every routing policy, fault-free: the
/// trace's ledger closes, and the reported metrics window counters
/// equal the trace's post-warmup tallies.
#[test]
fn conservation_under_every_policy() {
    let cfg = light_config();
    for spec in all_specs() {
        let (m, led) = audit(&cfg, spec);
        assert_eq!(
            led.rejected,
            0,
            "{}: rejections without faults",
            spec.label()
        );
        assert_eq!(
            led.crashed,
            0,
            "{}: crash aborts without faults",
            spec.label()
        );
        assert_eq!(
            m.arrivals,
            led.arrivals_measured,
            "{}: metrics arrivals disagree with trace",
            spec.label()
        );
        assert_eq!(
            m.completions,
            led.completions_measured,
            "{}: metrics completions disagree with trace",
            spec.label()
        );
        assert!(m.completions > 0, "{}: nothing completed", spec.label());
    }
}

/// The same ledger closes under a fault schedule that kills and rejects
/// transactions: crash aborts and rejections are part of the balance,
/// and the availability counters agree with the trace totals. (Counters
/// accumulate over the whole run, warmup included, like the trace.)
#[test]
fn conservation_under_faults() {
    let cfg = faulted_config();
    for spec in [
        RouterSpec::QueueLength,
        RouterSpec::Static { p_ship: 0.3 },
        RouterSpec::MinAverage {
            estimator: UtilizationEstimator::NumInSystem,
        },
    ] {
        let (m, led) = audit(&cfg, spec);
        assert!(led.crashed > 0, "{}: schedule killed nothing", spec.label());
        let a = &m.availability;
        assert_eq!(
            a.crash_aborts_site + a.crash_aborts_central,
            led.crashed,
            "{}: crash-abort counters disagree with trace",
            spec.label()
        );
        assert_eq!(
            a.rejected_class_a + a.rejected_class_b,
            led.rejected,
            "{}: rejection counters disagree with trace",
            spec.label()
        );
    }
}

/// Per-site metric invariants: the per-`(class, route, site)` response
/// histograms partition the completion count exactly — no completion is
/// dropped or double-counted — site indices stay in range, and the
/// message-kind breakdown sums to the message total. Heterogeneous
/// per-site rates make the per-site counts distinct, so a recording bug
/// that swaps or duplicates a site's completions cannot cancel out.
#[test]
fn per_site_histograms_partition_completions() {
    let mut cfg = light_config();
    cfg.obs.histograms = true;
    cfg.site_profiles = Some(
        (0..cfg.params.n_sites)
            .map(|i| RateProfile::Constant(0.9 + 0.2 * i as f64))
            .collect(),
    );
    let m = HybridSystem::new(cfg.clone(), RouterSpec::QueueLength)
        .expect("valid")
        .run();
    let obs = m.obs.as_ref().expect("histograms enabled");
    let total: u64 = obs.response.iter().map(|(_, h)| h.count()).sum();
    assert_eq!(
        total, m.completions,
        "histogram counts must partition completions"
    );
    for (key, h) in &obs.response {
        assert!(key.site < cfg.params.n_sites, "site index out of range");
        assert!(h.count() > 0, "empty histograms must be omitted");
    }
    let by_kind: u64 = m.messages_by_kind.iter().map(|(_, c)| c).sum();
    assert_eq!(
        by_kind, m.messages,
        "message-kind breakdown must sum to the total"
    );
    assert!((0.0..=1.0).contains(&m.rho_central));
    assert!((0.0..=1.0).contains(&m.rho_local));
}
