//! Per-layer metrics: work counts read from `RunMetrics`, host times read
//! from the simulator's self-profile, and the span tree whose self times
//! account for every profiled second.

use hls_core::{ProfileReport, RunMetrics};

use crate::bench::{Sim, TracedRound};
use crate::report::Metric;
use crate::workload::Workload;

/// The profile row timing the whole event loop.
const TOTAL: &str = "sim.run";

/// Prefix of the per-event-kind handler rows.
const HANDLER: &str = "ev.";

/// Timed profile rows that run inside an event handler: the router, the
/// lock manager and the network. Any other timed row outside `sim.run`
/// and `ev.*` is treated the same way; a row that is not in fact nested
/// in a handler shows as a negative handler self time.
const NESTED: [&str; 9] = [
    "router.decide_a",
    "router.decide_b",
    "lock.request",
    "lock.release_all",
    "lock.release_one",
    "lock.cancel_wait",
    "lock.force_acquire",
    "lock.deadlock_scan",
    "net.send",
];

/// Slack for float rounding when checking self times, seconds.
const EPS: f64 = 1e-9;

fn calls(p: &ProfileReport, name: &str) -> u64 {
    p.get(name).map_or(0, |e| e.calls)
}

fn secs(p: &ProfileReport, name: &str) -> f64 {
    p.get(name).map_or(0.0, |e| e.secs)
}

/// Per-call cost in `unit_scale` units (e.g. 1e6 for µs); 0 without calls.
fn per_call(p: &ProfileReport, name: &str, unit_scale: f64) -> f64 {
    match calls(p, name) {
        0 => 0.0,
        n => secs(p, name) / n as f64 * unit_scale,
    }
}

/// Calls and seconds of all `ev.*` handler rows together.
fn handlers(p: &ProfileReport) -> (u64, f64) {
    p.entries
        .iter()
        .filter(|e| e.name.starts_with(HANDLER))
        .fold((0, 0.0), |(c, s), e| (c + e.calls, s + e.secs))
}

/// Whether a row is timed inside a handler: anything but `sim.run` and
/// `ev.*` that takes time or is one of the [`NESTED`] rows.
fn nested(name: &str, secs: f64) -> bool {
    name != TOTAL && !name.starts_with(HANDLER) && (secs > 0.0 || NESTED.contains(&name))
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// One span: a layer boundary crossed during a traced run. Spans timed by
/// the benchmark carry a start; spans built from the profiler's
/// aggregated rows do not.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// 1-based identifier.
    pub id: usize,
    /// Parent identifier, 0 for a root.
    pub parent: usize,
    /// Layer or operation name.
    pub name: String,
    /// Host seconds since the benchmark started, when timed directly.
    pub start_s: Option<f64>,
    /// Host seconds covered.
    pub dur_s: f64,
    /// Invocations aggregated into the span.
    pub calls: u64,
}

/// Spans kept in memory until the benchmark ends.
#[derive(Debug, Default)]
pub struct Spans {
    /// Every span, parents before children.
    pub spans: Vec<Span>,
}

impl Spans {
    /// Records a span and returns its identifier.
    pub fn push(
        &mut self,
        parent: usize,
        name: &str,
        start_s: Option<f64>,
        dur_s: f64,
        calls: u64,
    ) -> usize {
        let id = self.spans.len() + 1;
        self.spans.push(Span {
            id,
            parent,
            name: name.to_string(),
            start_s,
            dur_s,
            calls,
        });
        id
    }

    /// Hangs one profile under `parent`: `sim.run`, then the event
    /// handlers (`ev`, all `ev.*` rows together), then the rows nested in
    /// handlers. Returns the `sim.run` span.
    pub fn push_profile(&mut self, parent: usize, p: &ProfileReport) -> usize {
        let total = self.push(parent, TOTAL, None, secs(p, TOTAL), calls(p, TOTAL));
        let (handler_calls, handler_s) = handlers(p);
        let ev = self.push(total, "ev", None, handler_s, handler_calls);
        for e in p.entries.iter().filter(|e| nested(&e.name, e.secs)) {
            self.push(ev, &e.name, None, e.secs, e.calls);
        }
        total
    }

    /// Self time of each span: its duration minus its children's.
    pub fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(|s| s.dur_s).collect();
        for s in &self.spans {
            if s.parent > 0 {
                own[s.parent - 1] -= s.dur_s;
            }
        }
        own
    }

    /// Checks that no self time is negative and that the self times of
    /// the subtree under `root` sum to its duration.
    pub fn check(&self, root: usize) -> Result<(), String> {
        let own = self.self_times();
        if let Some((s, t)) = self.spans.iter().zip(&own).find(|(_, t)| **t < -EPS) {
            return Err(format!("span {} has negative self time {t:e} s", s.name));
        }
        let mut inside = vec![false; self.spans.len()];
        let mut sum = 0.0;
        for (i, s) in self.spans.iter().enumerate() {
            inside[i] = s.id == root || (s.parent > 0 && inside[s.parent - 1]);
            if inside[i] {
                sum += own[i];
            }
        }
        let want = self.spans[root - 1].dur_s;
        if (sum - want).abs() > EPS * want.max(1.0) {
            return Err(format!("self times sum to {sum} s, not {want} s"));
        }
        Ok(())
    }
}

/// Records the spans of one traced round (the workload, then each
/// replication's set-up and run, with its profile under the run) and
/// checks their accounting. Times are relative to `origin`.
pub fn trace_round(
    spans: &mut Spans,
    workload: Workload,
    round: &TracedRound,
    origin: std::time::Instant,
) -> Result<(), String> {
    let (first, last) = match (round.traced.first(), round.traced.last()) {
        (Some(f), Some(l)) => (f, l),
        _ => return Err("traced round has no runs".into()),
    };
    let begin = (first.started - origin).as_secs_f64();
    let end = (last.started - origin).as_secs_f64() + last.setup_s + last.run_s;
    let root = spans.push(0, workload.name(), Some(begin), end - begin, 1);
    for sim in &round.traced {
        let at = (sim.started - origin).as_secs_f64();
        spans.push(root, "setup", Some(at), sim.setup_s, 1);
        let run = spans.push(root, "run", Some(at + sim.setup_s), sim.run_s, 1);
        let profile = profile_of(sim)?;
        let total = spans.push_profile(run, profile);
        spans.check(total)?;
    }
    spans.check(root)
}

fn profile_of(sim: &Sim) -> Result<&ProfileReport, String> {
    match &sim.metrics.obs {
        Some(obs) if obs.profile.get(TOTAL).is_some() => Ok(&obs.profile),
        _ => Err("traced run carries no profile".into()),
    }
}

/// The merged profile of a traced round's replications.
pub fn merged_profile(round: &TracedRound) -> ProfileReport {
    let mut merged = ProfileReport::default();
    for sim in &round.traced {
        if let Some(obs) = &sim.metrics.obs {
            merged.merge(&obs.profile);
        }
    }
    merged
}

/// Host-side figures measured around the traced runs.
#[derive(Debug, Clone, Copy)]
pub struct HostFigures {
    /// Median host nanoseconds per event over the untraced runs.
    pub ns_per_event: f64,
    /// Median traced ÷ untraced run time − 1.
    pub trace_overhead: f64,
    /// Median microseconds per analytic estimate.
    pub estimate_us: f64,
}

/// Every per-layer metric of `w`: counts summed over one traced round's
/// replications, times from their merged profile `p`.
pub fn per_layer(w: Workload, sims: &[Sim], p: &ProfileReport, host: HostFigures) -> Vec<Metric> {
    let runs: Vec<&RunMetrics> = sims.iter().map(|s| &s.metrics).collect();
    let events = sims.iter().map(|s| s.events as f64).sum::<f64>();
    let sum = |f: &dyn Fn(&RunMetrics) -> f64| runs.iter().map(|m| f(m)).sum::<f64>();
    let mean = |f: &dyn Fn(&RunMetrics) -> f64| sum(f) / runs.len().max(1) as f64;
    let max = |f: &dyn Fn(&RunMetrics) -> f64| runs.iter().map(|m| f(m)).fold(0.0, f64::max);
    let c = |name: &str| calls(p, name) as f64;
    let s = |name: &str| secs(p, name);

    let completions = sum(&|m| m.completions as f64);
    let aborts = sum(&|m| m.aborts.total() as f64);
    let (_, handler_s) = handlers(p);
    let nested_s: f64 = p
        .entries
        .iter()
        .filter(|e| nested(&e.name, e.secs))
        .map(|e| e.secs)
        .sum();
    // Folded from +0.0: an empty `f64` sum is -0.0.
    let scale = |f: &dyn Fn(&hls_core::ScaleReport) -> f64| {
        runs.iter()
            .filter_map(|m| m.scale.as_ref())
            .map(f)
            .fold(0.0, |a, b| a + b)
    };
    let place = |f: &dyn Fn(&hls_core::PlacementReport) -> f64| {
        runs.iter()
            .filter_map(|m| m.placement.as_ref())
            .map(f)
            .fold(0.0, |a, b| a + b)
    };
    let grants = scale(&|r| r.remote_lock_grants as f64);
    let denials = scale(&|r| r.cross_shard_denials as f64);
    let planned = place(&|r| r.migrations_planned as f64);
    let migrated = place(&|r| r.migrations_completed as f64);
    let admitted = place(&|r| (r.class_a_admitted + r.class_b_admitted) as f64);
    let avail =
        |f: &dyn Fn(&hls_core::AvailabilityMetrics) -> u64| sum(&|m| f(&m.availability) as f64);

    let metric = |name: &'static str, unit: &'static str, value: f64| Metric { name, unit, value };
    vec![
        // router + analytic
        metric("router.decide_a_calls", "count", c("router.decide_a")),
        metric("router.decide_a_s", "s", s("router.decide_a")),
        metric(
            "router.decide_a_us",
            "us",
            per_call(p, "router.decide_a", 1e6),
        ),
        metric("router.decide_b_calls", "count", c("router.decide_b")),
        metric("router.decide_b_s", "s", s("router.decide_b")),
        metric("analytic.estimate_us", "us", host.estimate_us),
        // lockmgr
        metric("lockmgr.request_calls", "count", c("lock.request")),
        metric("lockmgr.request_s", "s", s("lock.request")),
        metric("lockmgr.release_all_calls", "count", c("lock.release_all")),
        metric("lockmgr.release_all_s", "s", s("lock.release_all")),
        metric(
            "lockmgr.release_all_us",
            "us",
            per_call(p, "lock.release_all", 1e6),
        ),
        metric(
            "lockmgr.force_acquire_calls",
            "count",
            c("lock.force_acquire"),
        ),
        metric("lockmgr.force_acquire_s", "s", s("lock.force_acquire")),
        metric("lockmgr.cancel_wait_calls", "count", c("lock.cancel_wait")),
        metric(
            "lockmgr.deadlock_scan_calls",
            "count",
            c("lock.deadlock_scan"),
        ),
        metric("lockmgr.deadlock_scan_s", "s", s("lock.deadlock_scan")),
        metric(
            "lockmgr.deadlock_scan_us",
            "us",
            per_call(p, "lock.deadlock_scan", 1e6),
        ),
        metric(
            "lockmgr.deadlocks_local",
            "count",
            sum(&|m| m.aborts.deadlock_local as f64),
        ),
        metric(
            "lockmgr.deadlocks_central",
            "count",
            sum(&|m| m.aborts.deadlock_central as f64),
        ),
        metric(
            "lockmgr.invalidations",
            "count",
            sum(&|m| {
                (m.aborts.local_invalidated
                    + m.aborts.central_invalidated
                    + m.aborts.central_neg_ack) as f64
            }),
        ),
        metric(
            "lockmgr.useful_ratio",
            "ratio",
            ratio(completions, completions + aborts),
        ),
        // sim
        metric("sim.events", "count", events),
        metric("sim.ns_per_event", "ns", host.ns_per_event),
        metric("sim.loop_s", "s", s(TOTAL) - handler_s),
        // system handlers
        metric("system.events.cpu_done", "count", c("ev.cpu_done")),
        metric("system.events.io_done", "count", c("ev.io_done")),
        metric("system.events.msg_arrive", "count", c("ev.msg_arrive")),
        metric("system.events.arrival", "count", c("ev.arrival")),
        metric("system.events.rerun", "count", c("ev.rerun")),
        metric("system.cpu_done_ns", "ns", per_call(p, "ev.cpu_done", 1e9)),
        metric(
            "system.msg_arrive_ns",
            "ns",
            per_call(p, "ev.msg_arrive", 1e9),
        ),
        metric("system.handler_self_s", "s", handler_s - nested_s),
        // net + shard
        metric("net.messages", "count", sum(&|m| m.messages as f64)),
        metric(
            "net.messages_per_txn",
            "msg/txn",
            ratio(sum(&|m| m.messages as f64), completions),
        ),
        metric("net.send_calls", "count", c("net.send")),
        metric("net.send_s", "s", s("net.send")),
        metric(
            "shard.cross_messages",
            "count",
            scale(&|r| r.cross_shard_messages as f64),
        ),
        metric("shard.remote_grants", "count", grants),
        metric("shard.denials", "count", denials),
        metric(
            "shard.grant_ratio",
            "ratio",
            ratio(grants, grants + denials),
        ),
        // core state
        metric(
            "core.peak_in_flight",
            "count",
            max(&|m| m.scale.as_ref().map_or(0.0, |r| r.peak_in_flight as f64)),
        ),
        metric(
            "core.state_bytes",
            "B",
            max(&|m| m.scale.as_ref().map_or(0.0, |r| r.state_bytes as f64)),
        ),
        metric(
            "core.bytes_per_txn",
            "B/txn",
            mean(&|m| m.scale.as_ref().map_or(0.0, |r| r.bytes_per_txn)),
        ),
        // placement
        metric("placement.ticks", "count", c("ev.placement_tick")),
        metric(
            "placement.tick_us",
            "us",
            per_call(p, "ev.placement_tick", 1e6),
        ),
        metric("placement.migrations_planned", "count", planned),
        metric("placement.migrations_completed", "count", migrated),
        metric(
            "placement.completed_ratio",
            "ratio",
            ratio(migrated, planned),
        ),
        metric(
            "placement.parked",
            "count",
            place(&|r| r.parked_admissions as f64),
        ),
        metric(
            "placement.bytes_moved",
            "B",
            place(&|r| r.bytes_moved as f64),
        ),
        metric(
            "placement.class_b_rate",
            "ratio",
            ratio(place(&|r| r.class_b_admitted as f64), admitted),
        ),
        metric(
            "placement.class_b_rate_static",
            "ratio",
            ratio(
                place(&|r| {
                    r.class_b_rate_static * (r.class_a_admitted + r.class_b_admitted) as f64
                }),
                admitted,
            ),
        ),
        // faults
        metric("faults.transitions", "count", c("ev.fault")),
        metric("faults.retries", "count", avail(&|a| a.retries)),
        metric(
            "faults.rejected",
            "count",
            avail(&|a| a.rejected_class_a + a.rejected_class_b),
        ),
        metric(
            "faults.crash_aborts",
            "count",
            avail(&|a| a.crash_aborts_site + a.crash_aborts_central),
        ),
        metric(
            "faults.failovers",
            "count",
            avail(&|a| a.failover_shipped + a.failover_local),
        ),
        // obs
        metric("obs.trace_overhead", "ratio", host.trace_overhead),
        // simulated regime
        metric("model.offered_tps", "tps", w.offered_tps()),
        metric("model.throughput_tps", "tps", mean(&|m| m.throughput)),
        metric(
            "model.completed_share",
            "ratio",
            mean(&|m| m.throughput) / w.offered_tps(),
        ),
        metric("model.mean_response_s", "sim_s", mean(&|m| m.mean_response)),
        metric("model.rho_local", "ratio", mean(&|m| m.rho_local)),
        metric("model.rho_central", "ratio", mean(&|m| m.rho_central)),
        metric("model.lock_wait_s", "sim_s", mean(&|m| m.mean_lock_wait)),
        metric("model.reruns_per_txn", "runs/txn", mean(&|m| m.mean_reruns)),
        metric(
            "model.shipped_fraction",
            "ratio",
            mean(&|m| m.shipped_fraction),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_core::ProfileEntry;

    fn profile(rows: &[(&str, u64, f64)]) -> ProfileReport {
        let mut p = ProfileReport::default();
        for &(name, calls, secs) in rows {
            p.merge(&ProfileReport {
                entries: vec![ProfileEntry {
                    name: name.into(),
                    calls,
                    secs,
                }],
            });
        }
        p
    }

    #[test]
    fn self_times_account_for_the_profiled_run() {
        let p = profile(&[
            ("sim.run", 1, 1.0),
            ("ev.arrival", 10, 0.5),
            ("ev.cpu_done", 20, 0.25),
            ("router.decide_a", 8, 0.125),
            ("lock.request", 30, 0.0625),
            ("net.send", 5, 0.03125),
            ("event.arrival", 10, 0.0),
        ]);
        let mut spans = Spans::default();
        let run = spans.push(0, "run", Some(0.0), 1.5, 1);
        let total = spans.push_profile(run, &p);
        spans.check(total).expect("consistent profile");
        spans.check(run).expect("run covers sim.run");
        let own = spans.self_times();
        let names: Vec<&str> = spans.spans.iter().map(|s| s.name.as_str()).collect();
        let at = |n: &str| own[names.iter().position(|x| *x == n).unwrap()];
        assert_eq!(at("run"), 0.5);
        assert_eq!(at("sim.run"), 0.25);
        assert_eq!(at("ev"), 0.75 - 0.21875);
        assert_eq!(at("lock.request"), 0.0625);
        // Rows the simulator only counts are not spans.
        assert!(!names.contains(&"event.arrival"));
        let sum: f64 = own[1..].iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn handlers_longer_than_the_run_are_rejected() {
        let p = profile(&[("sim.run", 1, 1.0), ("ev.arrival", 10, 1.5)]);
        let mut spans = Spans::default();
        let total = spans.push_profile(0, &p);
        let err = spans.check(total).unwrap_err();
        assert!(err.contains("sim.run"), "{err}");
    }

    #[test]
    fn nested_rows_longer_than_the_handlers_are_rejected() {
        let p = profile(&[
            ("sim.run", 1, 1.0),
            ("ev.arrival", 10, 0.5),
            ("lock.deadlock_scan", 4, 0.75),
        ]);
        let mut spans = Spans::default();
        let total = spans.push_profile(0, &p);
        assert!(spans.check(total).unwrap_err().contains("ev"));
    }
}
