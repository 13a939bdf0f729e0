//! Measurement: set-up timing, timing runs, traced runs, the digest gate,
//! and the tally of runs attempted and failed.

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use hls_analytic::{estimate_route_cases, Observed};
use hls_core::{splitmix64, HybridSystem, RunMetrics, UtilizationEstimator};

use crate::workload::{Workload, DEFAULT_SEED};

/// Fewest rounds a timing pass takes, however long they last: the median
/// needs more than one.
pub const MIN_ROUNDS: usize = 2;

/// Set-ups timed before each timed run; `setup_s` is the median of all
/// of them. Spreading them over the whole pass keeps a brief stall of the
/// host from moving the median.
pub const SETUPS_PER_RUN: usize = 8;

/// Runs attempted and failed, with the first few failure messages.
#[derive(Debug, Default)]
pub struct Tally {
    /// Simulations started.
    pub attempted: u64,
    /// Simulations that panicked, were rejected, mismatched their digest
    /// or left their workload's regime.
    pub failed: u64,
    /// Failure messages, capped.
    pub errors: Vec<String>,
}

impl Tally {
    /// Counts one failed run.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < 16 {
            self.errors.push(msg);
        }
    }
}

/// FNV-1a digest of the `RunMetrics` rendering with `obs` stripped: the
/// simulated output, which profiling must not change.
pub fn digest(m: &RunMetrics) -> u64 {
    let mut m = m.clone();
    m.obs = None;
    format!("{m:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// Expected digest per replication: pinned at the default seed,
/// otherwise the first output seen, which every later run must repeat.
#[derive(Debug)]
pub struct Gate {
    expected: Vec<Option<u64>>,
}

impl Gate {
    /// The gate for `workload` at `seed`, with simulated time scaled by
    /// `time_scale` (pins apply only to unscaled runs).
    pub fn new(workload: Workload, seed: u64, time_scale: f64) -> Gate {
        let expected = if seed == DEFAULT_SEED && time_scale == 1.0 {
            workload.pinned_digests().iter().map(|&d| Some(d)).collect()
        } else {
            vec![None; workload.shape().replications]
        };
        Gate { expected }
    }

    /// A gate expecting exactly `expected`, one entry per replication.
    #[cfg(test)]
    pub fn pinned(expected: Vec<u64>) -> Gate {
        Gate {
            expected: expected.into_iter().map(Some).collect(),
        }
    }

    /// Checks replication `rep`'s digest.
    ///
    /// # Panics
    ///
    /// Panics if `rep` is not a replication of the gate's workload.
    pub fn check(&mut self, rep: usize, got: u64) -> Result<(), String> {
        match self.expected[rep] {
            None => {
                self.expected[rep] = Some(got);
                Ok(())
            }
            Some(want) if want == got => Ok(()),
            Some(want) => Err(format!("digest {got:016x}, expected {want:016x}")),
        }
    }
}

/// CPU seconds the calling thread has used, from
/// `clock_gettime(CLOCK_THREAD_CPUTIME_ID)`. Unlike wall-clock time it
/// leaves out time the thread was descheduled, including time a shared
/// virtual machine gave to other tenants.
pub fn thread_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux, which the crate-level `cfg` check
    // enforces), and the clock id is one the kernel defines.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// One simulation: host times of its set-up and run, and its output.
#[derive(Debug)]
pub struct Sim {
    /// When set-up started.
    pub started: Instant,
    /// Host seconds from the workload definition to a runnable simulator.
    pub setup_s: f64,
    /// Wall-clock seconds of the `run_counted` call.
    pub run_s: f64,
    /// CPU seconds of the `run_counted` call.
    pub run_cpu_s: f64,
    /// Events the simulator processed.
    pub events: u64,
    /// Simulated output (with the profile when profiling was on).
    pub metrics: RunMetrics,
}

fn simulate(
    w: Workload,
    seed: u64,
    rep: usize,
    time_scale: f64,
    profile: bool,
) -> Result<Sim, String> {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let started = Instant::now();
        let mut cfg = w.config(seed, rep, time_scale);
        cfg.obs.profile = profile;
        let sys = HybridSystem::new(cfg, w.router()).map_err(|e| e.to_string())?;
        let ready = Instant::now();
        let cpu = thread_cpu_s();
        let (metrics, events) = black_box(sys.run_counted());
        let run_cpu_s = thread_cpu_s() - cpu;
        Ok(Sim {
            started,
            setup_s: (ready - started).as_secs_f64(),
            run_s: ready.elapsed().as_secs_f64(),
            run_cpu_s,
            events,
            metrics,
        })
    }));
    outcome.unwrap_or_else(|panic| {
        let msg = panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_default();
        Err(format!("panicked: {msg}"))
    })
}

/// Totals of one timing round: every replication once.
#[derive(Debug, Clone, Copy, Default)]
pub struct Round {
    /// Simulated completions in the measurement windows.
    pub completions: u64,
    /// Events processed.
    pub events: u64,
    /// Wall-clock seconds of the run calls.
    pub run_s: f64,
    /// CPU seconds of the run calls.
    pub cpu_s: f64,
}

impl Round {
    fn add(&mut self, sim: &Sim) {
        self.completions += sim.metrics.completions;
        self.events += sim.events;
        self.run_s += sim.run_s;
        self.cpu_s += sim.run_cpu_s;
    }

    /// Simulated transactions completed per CPU second of the run calls.
    pub fn txn_per_s(&self) -> f64 {
        self.completions as f64 / self.cpu_s
    }

    /// Simulated transactions completed per wall-clock second.
    pub fn txn_per_wall_s(&self) -> f64 {
        self.completions as f64 / self.run_s
    }
}

/// One traced round: every replication untraced, then traced.
#[derive(Debug)]
pub struct TracedRound {
    /// Totals of the untraced runs.
    pub untraced: Round,
    /// The traced runs, one per replication, with their profiles.
    pub traced: Vec<Sim>,
}

impl TracedRound {
    /// CPU seconds of the traced run calls.
    pub fn traced_cpu_s(&self) -> f64 {
        self.traced.iter().map(|s| s.run_cpu_s).sum()
    }

    /// Traced over untraced CPU time of the run calls, minus one.
    pub fn overhead(&self) -> f64 {
        self.traced_cpu_s() / self.untraced.cpu_s - 1.0
    }
}

/// Runs one workload at one seed and checks every output.
#[derive(Debug)]
pub struct Bench {
    /// The workload.
    pub workload: Workload,
    /// The benchmark seed.
    pub seed: u64,
    /// Simulated-time multiplier (1.0 when measuring).
    pub time_scale: f64,
    /// Expected digests.
    pub gate: Gate,
    /// Runs attempted and failed.
    pub tally: Tally,
}

impl Bench {
    /// A bench for `workload` at `seed`, simulated time scaled by
    /// `time_scale`.
    pub fn new(workload: Workload, seed: u64, time_scale: f64) -> Bench {
        Bench {
            workload,
            seed,
            time_scale,
            gate: Gate::new(workload, seed, time_scale),
            tally: Tally::default(),
        }
    }

    fn replications(&self) -> usize {
        self.workload.shape().replications
    }

    /// Runs replication `rep` once, checking its digest and, at full
    /// length, its regime. A failure is tallied and yields `None`.
    pub fn run(&mut self, rep: usize, profile: bool) -> Option<Sim> {
        self.tally.attempted += 1;
        let w = self.workload;
        let checked = simulate(w, self.seed, rep, self.time_scale, profile).and_then(|sim| {
            self.gate.check(rep, digest(&sim.metrics))?;
            if self.time_scale == 1.0 {
                w.check_regime(&sim.metrics)?;
            }
            Ok(sim)
        });
        match checked {
            Ok(sim) => Some(sim),
            Err(e) => {
                let trace = if profile { "traced" } else { "untraced" };
                self.tally.fail(format!(
                    "{} seed {} replication {rep} ({trace}): {e}",
                    w.name(),
                    self.seed
                ));
                None
            }
        }
    }

    /// Appends to `times` the host seconds of [`SETUPS_PER_RUN`] set-ups
    /// of replication `rep` (configuration with its fault schedule,
    /// validation and `HybridSystem::new`). Rejected configurations are
    /// left to the runs to report.
    pub fn setups(&self, rep: usize, times: &mut Vec<f64>) {
        let w = self.workload;
        for _ in 0..SETUPS_PER_RUN {
            let started = Instant::now();
            let cfg = w.config(self.seed, rep, self.time_scale);
            let sys = HybridSystem::new(cfg, w.router());
            times.push(started.elapsed().as_secs_f64());
            drop(black_box(sys));
        }
    }

    /// Runs rounds of every replication, each run after its set-ups are
    /// timed, until `budget` has passed and at least [`MIN_ROUNDS`]
    /// succeeded (or a run failed), after one untimed warm-up run.
    /// Returns the successful rounds and the set-up times.
    pub fn timing(&mut self, budget: Duration) -> (Vec<Round>, Vec<f64>) {
        let _ = self.run(0, false);
        let start = Instant::now();
        let mut rounds = Vec::new();
        let mut setups = Vec::new();
        while !self.done(start, budget, rounds.len(), MIN_ROUNDS) {
            let mut round = Round::default();
            let mut ok = true;
            for rep in 0..self.replications() {
                self.setups(rep, &mut setups);
                match self.run(rep, false) {
                    Some(sim) => round.add(&sim),
                    None => ok = false,
                }
            }
            if ok {
                rounds.push(round);
            }
        }
        (rounds, setups)
    }

    /// Runs rounds of every replication untraced and then traced (the
    /// simulator's self-profiler on) until `budget` has passed and one
    /// round succeeded (or a run failed). Traced output must equal
    /// untraced output.
    pub fn traced(&mut self, budget: Duration) -> Vec<TracedRound> {
        let start = Instant::now();
        let mut rounds = Vec::new();
        while !self.done(start, budget, rounds.len(), 1) {
            let mut untraced = Round::default();
            let mut traced = Vec::new();
            let mut ok = true;
            for rep in 0..self.replications() {
                match self.run(rep, false) {
                    Some(sim) => untraced.add(&sim),
                    None => ok = false,
                }
            }
            for rep in 0..self.replications() {
                match self.run(rep, true) {
                    Some(sim) => traced.push(sim),
                    None => ok = false,
                }
            }
            if ok {
                rounds.push(TracedRound { untraced, traced });
            }
        }
        rounds
    }

    fn done(&self, start: Instant, budget: Duration, rounds: usize, min_rounds: usize) -> bool {
        // A failing workload stops at the budget, short of `min_rounds`.
        start.elapsed() >= budget && (rounds >= min_rounds || self.tally.failed > 0)
    }
}

/// Median host microseconds of one `hls_analytic::estimate_route_cases`
/// call with the workload's parameters and the paper's population
/// estimator, over observed states drawn from `seed`.
pub fn estimate_us(w: Workload, seed: u64) -> f64 {
    const STATES: usize = 64;
    const CALLS: usize = 256;
    const BATCHES: usize = 9;
    let params = w.config(seed, 0, 1.0).params;
    let mut state = seed;
    let mut draw = |hi: f64| {
        state = splitmix64(state);
        (state >> 11) as f64 / (1u64 << 53) as f64 * hi
    };
    let observed: Vec<Observed> = (0..STATES)
        .map(|_| Observed {
            q_local: draw(6.0).floor(),
            q_central: draw(12.0).floor(),
            n_local: draw(10.0).floor(),
            n_central: draw(60.0).floor(),
            locks_local: draw(80.0).floor(),
            locks_central: draw(400.0).floor(),
            ..Observed::default()
        })
        .collect();
    let mut per_call: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let started = Instant::now();
            for i in 0..CALLS {
                black_box(estimate_route_cases(
                    black_box(&params),
                    black_box(&observed[i % STATES]),
                    UtilizationEstimator::NumInSystem,
                ));
            }
            started.elapsed().as_secs_f64() / CALLS as f64
        })
        .collect();
    median(&mut per_call) * 1e6
}

/// Median of `xs` (mean of the middle two for an even count); 0 when
/// empty.
pub fn median(xs: &mut [f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Simulated-time multiplier for these tests' short runs.
    const SHORT: f64 = 0.05;

    #[test]
    fn every_replication_has_a_pinned_digest() {
        for w in Workload::ALL {
            assert_eq!(
                w.pinned_digests().len(),
                w.shape().replications,
                "{}",
                w.name()
            );
        }
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn a_digest_mismatch_counts_as_a_failed_run() {
        let w = Workload::Paper;
        let mut bench = Bench::new(w, 3, SHORT);
        let good = bench.run(0, false).expect("first run sets the reference");
        assert_eq!(bench.tally.failed, 0);
        bench.gate = Gate::pinned(vec![digest(&good.metrics) ^ 1; w.shape().replications]);
        assert!(bench.run(0, false).is_none());
        assert_eq!((bench.tally.attempted, bench.tally.failed), (2, 1));
        assert!(
            bench.tally.errors[0].contains("digest"),
            "{:?}",
            bench.tally.errors
        );
    }

    #[test]
    fn profiling_does_not_change_the_digest() {
        let mut bench = Bench::new(Workload::Contended, 11, SHORT);
        let plain = bench.run(0, false).expect("untraced");
        let traced = bench.run(0, true).expect("traced run repeats the digest");
        assert!(plain.metrics.obs.is_none());
        assert!(traced.metrics.obs.is_some());
        assert_eq!(bench.tally.failed, 0);
    }

    #[test]
    fn thread_cpu_time_advances_with_work() {
        let before = thread_cpu_s();
        let spin: u64 = (0..2_000_000u64).map(|i| black_box(i) ^ 7).sum();
        black_box(spin);
        assert!(thread_cpu_s() > before);
    }

    #[test]
    fn estimate_is_timed() {
        assert!(estimate_us(Workload::Paper, 5) > 0.0);
    }
}
