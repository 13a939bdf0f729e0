//! Gated self-profiler: per-key wall-clock and invocation counters.
//!
//! The profiler answers "where does the simulator spend host CPU time"
//! without perturbing the simulation itself: timing reads the host
//! clock, never the simulated clock, and every hook is a no-op when the
//! profiler is disabled. Keys are `&'static str` subsystem labels
//! (`"ev.msg"`, `"lock.request"`, `"net.send"`, ...) kept in a
//! `BTreeMap` so reports are deterministically ordered. A layer is timed
//! by its caller, around the call, and the lock tables, the routers and
//! the network carry no timers of their own, so one profiler holds every
//! row.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Invocation count plus accumulated wall-clock nanoseconds for one
/// profiled operation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct OpStats {
    calls: u64,
    nanos: u128,
}

/// An in-flight timing started by [`Profiler::start`] and ended by
/// [`Profiler::stop`]; `None` inside means timing is disabled and
/// stopping is free.
#[derive(Debug)]
pub struct Timer(Option<Instant>);

/// Per-key wall-clock and invocation profiler behind an enable gate.
///
/// # Examples
///
/// ```
/// use hls_obs::Profiler;
///
/// let mut p = Profiler::new(true);
/// let t = p.start();
/// let _work: u64 = (0..1000).sum();
/// p.stop("demo.sum", t);
/// p.count("demo.event");
/// let report = p.report();
/// assert_eq!(report.entries.len(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Profiler {
    enabled: bool,
    ops: BTreeMap<&'static str, OpStats>,
}

impl Profiler {
    /// Creates a profiler; when `enabled` is false every hook is a
    /// cheap no-op and [`Profiler::report`] is empty.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Profiler {
            enabled,
            ops: BTreeMap::new(),
        }
    }

    /// Whether profiling hooks are live.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Starts a wall-clock timing (no-op timer when disabled).
    #[must_use]
    pub fn start(&self) -> Timer {
        Timer(self.enabled.then(Instant::now))
    }

    /// Stops `timer`, charging one call and its elapsed time to `key`.
    /// The clock is read before the row is looked up, so no row is
    /// charged for the profiler's own bookkeeping.
    pub fn stop(&mut self, key: &'static str, timer: Timer) {
        if self.enabled {
            let nanos = timer.0.map_or(0, |t0| t0.elapsed().as_nanos());
            let row = self.ops.entry(key).or_default();
            row.calls += 1;
            row.nanos += nanos;
        }
    }

    /// Counts one untimed invocation of `key`.
    pub fn count(&mut self, key: &'static str) {
        if self.enabled {
            self.ops.entry(key).or_default().calls += 1;
        }
    }

    /// Snapshot of all per-key counters, sorted by key.
    #[must_use]
    pub fn report(&self) -> ProfileReport {
        ProfileReport {
            entries: self
                .ops
                .iter()
                .map(|(k, s)| ProfileEntry {
                    name: (*k).to_string(),
                    calls: s.calls,
                    secs: s.nanos as f64 * 1e-9,
                })
                .collect(),
        }
    }
}

/// One row of a [`ProfileReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileEntry {
    /// Subsystem / operation key, e.g. `"lock.force_acquire"`.
    pub name: String,
    /// Number of invocations.
    pub calls: u64,
    /// Accumulated wall-clock seconds (0 for count-only entries).
    pub secs: f64,
}

/// Reserved key timing the whole simulation loop; used as the
/// denominator for wall-clock shares when present.
pub const TOTAL_KEY: &str = "sim.run";

/// Deterministically ordered profile table, mergeable across runs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileReport {
    /// Rows sorted by name.
    pub entries: Vec<ProfileEntry>,
}

impl ProfileReport {
    /// Whether the report has no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up a row by name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&ProfileEntry> {
        self.entries.iter().find(|e| e.name == name)
    }

    /// Wall-clock denominator for shares: the [`TOTAL_KEY`] row when
    /// present, otherwise the sum over all rows.
    #[must_use]
    pub fn total_secs(&self) -> f64 {
        match self.get(TOTAL_KEY) {
            Some(e) => e.secs,
            None => self.entries.iter().map(|e| e.secs).sum(),
        }
    }

    /// Merges `other` into `self` by row name, keeping name order.
    pub fn merge(&mut self, other: &ProfileReport) {
        for row in &other.entries {
            match self.entries.iter_mut().find(|e| e.name == row.name) {
                Some(e) => {
                    e.calls += row.calls;
                    e.secs += row.secs;
                }
                None => {
                    let at = self
                        .entries
                        .partition_point(|e| e.name.as_str() < row.name.as_str());
                    self.entries.insert(at, row.clone());
                }
            }
        }
    }

    /// Renders the profile as an aligned text table, timed rows first
    /// (descending by wall-clock share of [`ProfileReport::total_secs`]),
    /// count-only rows after (descending by calls).
    #[must_use]
    pub fn render_table(&self) -> String {
        let total = self.total_secs();
        let mut rows: Vec<&ProfileEntry> = self.entries.iter().collect();
        rows.sort_by(|a, b| {
            b.secs
                .partial_cmp(&a.secs)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(b.calls.cmp(&a.calls))
                .then(a.name.cmp(&b.name))
        });
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<24} {:>12} {:>12} {:>8}",
            "subsystem", "calls", "seconds", "share"
        );
        for e in rows {
            let share = if total > 0.0 && e.secs > 0.0 {
                format!("{:>7.1}%", 100.0 * e.secs / total)
            } else {
                format!("{:>8}", "-")
            };
            let _ = writeln!(
                out,
                "{:<24} {:>12} {:>12.6} {}",
                e.name, e.calls, e.secs, share
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_records_nothing() {
        let mut p = Profiler::new(false);
        let t = p.start();
        p.stop("a", t);
        p.count("b");
        assert!(p.report().is_empty());
    }

    #[test]
    fn enabled_profiler_counts_and_times() {
        let mut p = Profiler::new(true);
        let t = p.start();
        p.stop("op", t);
        p.count("op");
        let r = p.report();
        let e = r.get("op").unwrap();
        assert_eq!(e.calls, 2);
        assert!(e.secs >= 0.0);
    }

    #[test]
    fn report_merge_adds_by_name() {
        let mut a = ProfileReport {
            entries: vec![ProfileEntry {
                name: "x".into(),
                calls: 1,
                secs: 0.5,
            }],
        };
        let b = ProfileReport {
            entries: vec![
                ProfileEntry {
                    name: "w".into(),
                    calls: 2,
                    secs: 0.25,
                },
                ProfileEntry {
                    name: "x".into(),
                    calls: 3,
                    secs: 1.5,
                },
            ],
        };
        a.merge(&b);
        assert_eq!(a.entries.len(), 2);
        assert_eq!(a.entries[0].name, "w");
        let x = a.get("x").unwrap();
        assert_eq!(x.calls, 4);
        assert!((x.secs - 2.0).abs() < 1e-12);
    }

    #[test]
    fn total_prefers_sim_run_row() {
        let mut r = ProfileReport::default();
        r.merge(&ProfileReport {
            entries: vec![
                ProfileEntry {
                    name: "lock.request".into(),
                    calls: 10,
                    secs: 0.2,
                },
                ProfileEntry {
                    name: TOTAL_KEY.into(),
                    calls: 1,
                    secs: 2.0,
                },
            ],
        });
        assert_eq!(r.total_secs(), 2.0);
        let table = r.render_table();
        assert!(table.contains("lock.request"));
        assert!(table.contains("10.0%"), "{table}");
    }
}
