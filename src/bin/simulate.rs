//! Run one hybrid-system simulation from the command line.
//!
//! ```text
//! simulate [--rate TPS] [--delay SECS] [--policy NAME] [--sites N]
//!          [--p-local F] [--lockspace N] [--sim-time SECS] [--warmup SECS]
//!          [--seed N] [--threshold F] [--p-ship F] [--ideal-state]
//!          [--reps N] [--jobs N] [--ci-target F] [--max-reps N]
//!          [--fault-schedule FILE] [--failure-aware]
//!          [--obs] [--profile] [--trace-out FILE] [--backoff-window SECS]
//!          [--placement POLICY] [--drift SPEC]
//!          [--islands SPEC] [--site-mips LIST] [--link-matrix ROWS]
//! ```
//!
//! Policies: `none`, `static`, `measured`, `queue`, `threshold`,
//! `min-incoming-q`, `min-incoming-n`, `min-average-q`, `min-average-n`,
//! `smoothed`, `island-aware`, `island-aware-q`.
//!
//! With `--reps N` (or `--ci-target F`) the run is replicated over
//! deterministically derived seeds — fanned across `--jobs` worker threads
//! (omit for all cores) — and mean ± 95% confidence half-widths are
//! reported. `--ci-target 0.05` keeps adding replications (up to
//! `--max-reps`) until the relative half-width of mean response drops
//! below 5%. Results are bit-identical for any `--jobs` value.
//!
//! `--fault-schedule FILE` injects a deterministic fault schedule (see
//! [`FaultSchedule::parse`] for the line format); `--failure-aware` wraps
//! the policy so class A traffic fails over to the central complex when
//! its site is down. With a non-empty schedule the availability metrics
//! (downtime, rejections, crash aborts, failovers) are printed too.
//!
//! Observability: `--obs` enables streaming response/phase histograms and
//! prints p50/p95/p99 per (class, route) and per protocol phase (merged
//! across replications with `--reps`); `--profile` times the simulator's
//! own hot paths (event loop, lock table, router, messaging) and prints a
//! wall-clock profile table; `--trace-out FILE` streams every protocol
//! event as JSON Lines to FILE (single runs only — analyze with
//! `trace-analyze`). None of these change simulated results: metrics are
//! bit-identical with and without them. `--backoff-window SECS` caps the
//! deadlock-victim restart backoff jitter window (default: one database-
//! call service time).
//!
//! Adaptive placement: `--placement static|threshold[:FRAC]|epoch` turns
//! on the online placement controller (partitions migrate to the site
//! that dominates their accesses; transactions are reclassified A↔B
//! against the live map); `--drift hot[:DWELL[:FRAC]]`,
//! `--drift diurnal[:PERIOD[:AMP]]`, or `--drift zipf[:THETA]` makes the
//! workload's locality shift over simulated time so there is something
//! to adapt to. Both compose with `--jobs` replication.
//!
//! Heterogeneous topologies: `--islands K[:INTRA:INTER[:CENTRAL]]`
//! splits the sites into `K` contiguous hardware islands with cheap
//! intra-island links and an `INTER` delay to the central complex
//! (placed in island `CENTRAL`, default 0); a bare `K` reuses `--delay`
//! for both, which is a homogeneity check rather than a real topology.
//! `--site-mips LIST` sets per-site CPU speeds in MIPS (a single value
//! broadcasts to every site). `--link-matrix R0;R1;...` gives fully
//! explicit symmetric per-link delays over `--sites + 1` nodes (last
//! node the central complex) for shapes islands cannot express; it is
//! mutually exclusive with `--islands`. The `island-aware` policies
//! price shipping with the arriving site's actual link delay instead of
//! the nominal `--delay`.

use std::process::ExitCode;

use hybrid_load_sharing::core::{
    optimal_static_spec, replicate_ci, replicate_jobs, run_simulation, summarize, CiOptions,
    DelayMatrix, DriftSpec, FaultSchedule, HybridSystem, IslandSpec, JsonlSink, LogHistogram,
    MetricSummary, ObsConfig, ObsReport, PlacementConfig, PlacementPolicy, Route, RouterSpec,
    RunMetrics, SystemConfig, TxnClass, UtilizationEstimator,
};

#[derive(Debug)]
struct Args {
    rate: f64,
    delay: f64,
    policy: String,
    sites: usize,
    p_local: f64,
    lockspace: f64,
    sim_time: f64,
    warmup: f64,
    seed: u64,
    threshold: f64,
    p_ship: Option<f64>,
    ideal_state: bool,
    reps: u64,
    jobs: Option<usize>,
    ci_target: Option<f64>,
    max_reps: Option<u64>,
    fault_schedule: Option<String>,
    failure_aware: bool,
    obs: bool,
    profile: bool,
    trace_out: Option<String>,
    backoff_window: Option<f64>,
    placement: Option<String>,
    drift: Option<String>,
    islands: Option<String>,
    site_mips: Option<String>,
    link_matrix: Option<String>,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        Args::parse_from(&argv)
    }

    fn parse_from(argv: &[String]) -> Result<Args, String> {
        let mut a = Args {
            rate: 20.0,
            delay: 0.2,
            policy: "min-average-n".into(),
            sites: 10,
            p_local: 0.75,
            lockspace: 32.0 * 1024.0,
            sim_time: 300.0,
            warmup: 60.0,
            seed: 42,
            threshold: -0.2,
            p_ship: None,
            ideal_state: false,
            reps: 1,
            jobs: None,
            ci_target: None,
            max_reps: None,
            fault_schedule: None,
            failure_aware: false,
            obs: false,
            profile: false,
            trace_out: None,
            backoff_window: None,
            placement: None,
            drift: None,
            islands: None,
            site_mips: None,
            link_matrix: None,
        };
        let mut i = 0;
        while i < argv.len() {
            let key = argv[i].as_str();
            let mut value = || -> Result<&str, String> {
                i += 1;
                argv.get(i)
                    .map(String::as_str)
                    .ok_or_else(|| format!("{key} requires a value"))
            };
            match key {
                "--rate" => a.rate = parse(value()?)?,
                "--delay" => a.delay = parse(value()?)?,
                "--policy" => a.policy = value()?.to_string(),
                "--sites" => a.sites = parse(value()?)?,
                "--p-local" => a.p_local = parse(value()?)?,
                "--lockspace" => a.lockspace = parse(value()?)?,
                "--sim-time" => a.sim_time = parse(value()?)?,
                "--warmup" => a.warmup = parse(value()?)?,
                "--seed" => a.seed = parse(value()?)?,
                "--threshold" => a.threshold = parse(value()?)?,
                "--p-ship" => a.p_ship = Some(parse(value()?)?),
                "--ideal-state" => a.ideal_state = true,
                "--reps" => a.reps = parse(value()?)?,
                "--jobs" => a.jobs = Some(parse(value()?)?),
                "--ci-target" => a.ci_target = Some(parse(value()?)?),
                "--max-reps" => a.max_reps = Some(parse(value()?)?),
                "--fault-schedule" => a.fault_schedule = Some(value()?.to_string()),
                "--failure-aware" => a.failure_aware = true,
                "--obs" => a.obs = true,
                "--profile" => a.profile = true,
                "--trace-out" => a.trace_out = Some(value()?.to_string()),
                "--backoff-window" => a.backoff_window = Some(parse(value()?)?),
                "--placement" => a.placement = Some(value()?.to_string()),
                "--drift" => a.drift = Some(value()?.to_string()),
                "--islands" => a.islands = Some(value()?.to_string()),
                "--site-mips" => a.site_mips = Some(value()?.to_string()),
                "--link-matrix" => a.link_matrix = Some(value()?.to_string()),
                "--help" | "-h" => return Err(String::new()),
                other => return Err(format!("unknown argument: {other}")),
            }
            i += 1;
        }
        a.validate()?;
        Ok(a)
    }

    /// Rejects inconsistent flag combinations with errors that say what to
    /// change, instead of silently falling back to defaults.
    fn validate(&self) -> Result<(), String> {
        if self.rate <= 0.0 || self.rate.is_nan() {
            return Err(format!(
                "--rate must be a positive offered load in tps (got {})",
                self.rate
            ));
        }
        if self.delay < 0.0 {
            return Err(format!(
                "--delay must be a non-negative communication delay in seconds (got {})",
                self.delay
            ));
        }
        if self.sim_time <= 0.0 || self.sim_time.is_nan() {
            return Err(format!(
                "--sim-time must be a positive measurement window in seconds (got {})",
                self.sim_time
            ));
        }
        if self.warmup < 0.0 {
            return Err(format!(
                "--warmup must be non-negative (got {}); use 0 to measure from the start",
                self.warmup
            ));
        }
        if self.warmup >= self.sim_time {
            return Err(format!(
                "--warmup ({} s) must be shorter than --sim-time ({} s); --warmup defaults \
                 to 60 s, so pass a smaller --warmup with a short --sim-time",
                self.warmup, self.sim_time
            ));
        }
        if !(0.0..=1.0).contains(&self.p_local) {
            return Err(format!(
                "--p-local is a probability and must lie in [0, 1] (got {})",
                self.p_local
            ));
        }
        if let Some(p) = self.p_ship {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!(
                    "--p-ship is a probability and must lie in [0, 1] (got {p})"
                ));
            }
        }
        if self.sites == 0 {
            return Err("--sites must be at least 1".into());
        }
        if self.reps == 0 {
            return Err("--reps must be at least 1; omit it for a single run".into());
        }
        if self.trace_out.is_some() && (self.reps > 1 || self.ci_target.is_some()) {
            return Err(
                "--trace-out records one run's event stream; drop --reps/--ci-target, \
                 or trace the replications one seed at a time"
                    .into(),
            );
        }
        if let Some(w) = self.backoff_window {
            if !(w >= 0.0 && w.is_finite()) {
                return Err(format!(
                    "--backoff-window must be a non-negative number of seconds (got {w})"
                ));
            }
        }
        if self.jobs == Some(0) {
            return Err(
                "--jobs 0 is ambiguous: pass --jobs N with N >= 1 worker threads, \
                 or omit --jobs to use all cores"
                    .into(),
            );
        }
        // Parse errors surface here so a bad spec fails before any run.
        self.placement_config()?;
        if let Some(d) = &self.drift {
            DriftSpec::parse(d)?;
        }
        if self.islands.is_some() && self.link_matrix.is_some() {
            return Err(
                "--islands and --link-matrix both describe the topology; pick one \
                 (use --link-matrix for shapes island groupings cannot express)"
                    .into(),
            );
        }
        self.island_spec()?;
        self.link_matrix_spec()?;
        self.site_mips_vec()?;
        match (self.ci_target, self.max_reps) {
            (Some(t), _) if !(t > 0.0 && t < 1.0) => Err(format!(
                "--ci-target is a relative half-width and must lie in (0, 1) (got {t})"
            )),
            (Some(_), None) => Err("--ci-target needs --max-reps N to bound auto-replication \
                 (e.g. --max-reps 64)"
                .into()),
            (None, Some(_)) => Err(
                "--max-reps only bounds --ci-target auto-replication; add --ci-target R \
                 or use --reps N for a fixed replication count"
                    .into(),
            ),
            (Some(_), Some(max)) if max < self.reps.max(3) => Err(format!(
                "--max-reps {max} is below the minimum replication count {} \
                 (max(3, --reps))",
                self.reps.max(3)
            )),
            _ => Ok(()),
        }
    }
}

fn parse<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("cannot parse value: {s}"))
}

impl Args {
    /// Resolves `--placement static | threshold[:FRAC] | epoch` into a
    /// [`PlacementConfig`].
    fn placement_config(&self) -> Result<Option<PlacementConfig>, String> {
        let Some(s) = &self.placement else {
            return Ok(None);
        };
        let (kind, field) = match s.split_once(':') {
            Some((k, f)) => (k, Some(f)),
            None => (s.as_str(), None),
        };
        let cfg = match kind {
            "static" => PlacementConfig::default(),
            "threshold" => {
                let mut cfg = PlacementConfig::threshold_default();
                if let Some(f) = field {
                    let frac: f64 = f.parse().map_err(|_| {
                        format!("--placement threshold: cannot parse fraction: {f}")
                    })?;
                    cfg.policy = PlacementPolicy::Threshold { remote_frac: frac };
                }
                cfg
            }
            "epoch" => PlacementConfig::epoch_default(),
            other => {
                return Err(format!(
                    "unknown placement policy: {other:?} \
                     (expected static, threshold[:FRAC], or epoch)"
                ))
            }
        };
        if kind != "threshold" {
            if let Some(extra) = field {
                return Err(format!("--placement {kind}: unexpected field: {extra}"));
            }
        }
        cfg.validate().map_err(|e| format!("--placement: {e}"))?;
        Ok(Some(cfg))
    }

    /// Resolves `--islands K[:INTRA:INTER[:CENTRAL]]` into an
    /// [`IslandSpec`] over `--sites` contiguous blocks. A bare `K`
    /// defaults both delays to `--delay` (a homogeneity check, not a
    /// topology); `CENTRAL` defaults to island 0.
    fn island_spec(&self) -> Result<Option<IslandSpec>, String> {
        let Some(s) = &self.islands else {
            return Ok(None);
        };
        let parts: Vec<&str> = s.split(':').collect();
        let k: usize = parts[0]
            .parse()
            .map_err(|_| format!("--islands: cannot parse island count: {}", parts[0]))?;
        if k == 0 || k > self.sites {
            return Err(format!(
                "--islands: island count must be in 1..={} (got {k}); every island \
                 needs at least one of the {} sites",
                self.sites, self.sites
            ));
        }
        let (intra, inter, central): (f64, f64, u32) = match parts.len() {
            1 => (self.delay, self.delay, 0),
            3 | 4 => {
                let intra = parse(parts[1])
                    .map_err(|_| format!("--islands: cannot parse intra delay: {}", parts[1]))?;
                let inter = parse(parts[2])
                    .map_err(|_| format!("--islands: cannot parse inter delay: {}", parts[2]))?;
                let central = if parts.len() == 4 {
                    parse(parts[3]).map_err(|_| {
                        format!("--islands: cannot parse central island: {}", parts[3])
                    })?
                } else {
                    0
                };
                (intra, inter, central)
            }
            _ => {
                return Err(
                    "--islands expects K, K:INTRA:INTER, or K:INTRA:INTER:CENTRAL \
                     (e.g. 4:0.05:0.5:0)"
                        .into(),
                )
            }
        };
        if (central as usize) >= k {
            return Err(format!(
                "--islands: central island {central} out of range (K = {k})"
            ));
        }
        let spec = IslandSpec::contiguous(self.sites, k, central, intra, inter);
        spec.validate().map_err(|e| format!("--islands: {e}"))?;
        Ok(Some(spec))
    }

    /// Resolves `--link-matrix R0;R1;...` (rows of comma-separated
    /// one-way delays in seconds, `--sites + 1` nodes, last row/column
    /// the central complex) into a [`DelayMatrix`].
    fn link_matrix_spec(&self) -> Result<Option<DelayMatrix>, String> {
        let Some(s) = &self.link_matrix else {
            return Ok(None);
        };
        let n = self.sites + 1;
        let mut rows: Vec<Vec<f64>> = Vec::with_capacity(n);
        for (i, row) in s.split(';').enumerate() {
            let entries: Result<Vec<f64>, String> = row
                .split(',')
                .map(|e| {
                    e.trim()
                        .parse()
                        .map_err(|_| format!("--link-matrix: cannot parse entry {e:?} in row {i}"))
                })
                .collect();
            rows.push(entries?);
        }
        if rows.len() != n || rows.iter().any(|r| r.len() != n) {
            return Err(format!(
                "--link-matrix must be {n}x{n} for {} sites plus the central node \
                 (rows separated by ';', entries by ',')",
                self.sites
            ));
        }
        let m = DelayMatrix::from_rows(&rows);
        m.validate().map_err(|e| format!("--link-matrix: {e}"))?;
        Ok(Some(m))
    }

    /// Resolves `--site-mips LIST` (comma-separated MIPS; one value
    /// broadcasts to every site) into per-site instructions/second.
    fn site_mips_vec(&self) -> Result<Option<Vec<f64>>, String> {
        let Some(s) = &self.site_mips else {
            return Ok(None);
        };
        let vals: Result<Vec<f64>, String> = s
            .split(',')
            .map(|e| {
                e.trim()
                    .parse()
                    .map_err(|_| format!("--site-mips: cannot parse MIPS value: {e}"))
            })
            .collect();
        let vals = vals?;
        if let Some(bad) = vals.iter().find(|v| !(v.is_finite() && **v > 0.0)) {
            return Err(format!(
                "--site-mips values must be positive and finite (got {bad})"
            ));
        }
        let mips: Vec<f64> = vals.iter().map(|v| v * 1.0e6).collect();
        match mips.len() {
            1 => Ok(Some(vec![mips[0]; self.sites])),
            l if l == self.sites => Ok(Some(mips)),
            l => Err(format!(
                "--site-mips needs 1 value (broadcast) or exactly {} (one per site), got {l}",
                self.sites
            )),
        }
    }
}

fn usage() {
    eprintln!(
        "usage: simulate [--rate TPS] [--delay SECS] [--policy NAME] [--sites N]\n\
         \x20               [--p-local F] [--lockspace N] [--sim-time SECS] [--warmup SECS]\n\
         \x20               [--seed N] [--threshold F] [--p-ship F] [--ideal-state]\n\
         \x20               [--reps N] [--jobs N] [--ci-target F] [--max-reps N]\n\
         \x20               [--fault-schedule FILE] [--failure-aware]\n\
         \x20               [--obs] [--profile] [--trace-out FILE] [--backoff-window SECS]\n\
         \x20               [--placement POLICY] [--drift SPEC]\n\
         \x20               [--islands SPEC] [--site-mips LIST] [--link-matrix ROWS]\n\
         policies: none static measured queue threshold min-incoming-q\n\
         \x20         min-incoming-n min-average-q min-average-n smoothed\n\
         \x20         island-aware island-aware-q\n\
         replication: --reps runs N seed replications in parallel (--jobs\n\
         \x20         worker threads, omit for all cores) and reports mean +/- 95% CI;\n\
         \x20         --ci-target R auto-replicates until the relative CI\n\
         \x20         half-width of mean response is <= R (cap: --max-reps)\n\
         faults: --fault-schedule FILE injects `site I down FROM TO`,\n\
         \x20         `central down FROM TO`, `link I down FROM TO`,\n\
         \x20         `link I slow FROM TO xF`, `partition I,J FROM TO` lines;\n\
         \x20         --failure-aware ships class A around site outages\n\
         observability: --obs prints response/phase histograms (p50/p95/p99);\n\
         \x20         --profile prints a simulator self-profile table;\n\
         \x20         --trace-out FILE streams protocol events as JSON Lines\n\
         \x20         (single runs only; inspect with trace-analyze);\n\
         \x20         --backoff-window SECS caps the deadlock restart jitter\n\
         placement: --placement static|threshold[:FRAC]|epoch runs the online\n\
         \x20         placement controller; --drift hot[:DWELL[:FRAC]] |\n\
         \x20         diurnal[:PERIOD[:AMP]] | zipf[:THETA] shifts workload\n\
         \x20         locality over time\n\
         topology: --islands K[:INTRA:INTER[:CENTRAL]] groups sites into K\n\
         \x20         hardware islands (cheap intra-island links, INTER to the\n\
         \x20         central complex placed in island CENTRAL; bare K uses\n\
         \x20         --delay for both); --site-mips LIST sets per-site speeds\n\
         \x20         in MIPS (one value broadcasts); --link-matrix R0;R1;...\n\
         \x20         gives explicit per-link delays ((sites+1)^2 entries, last\n\
         \x20         node central; mutually exclusive with --islands)"
    );
}

fn class_route_label(class: TxnClass, route: Route) -> &'static str {
    match (class, route) {
        (TxnClass::A, Route::Local) => "class A local",
        (TxnClass::A, Route::Central) => "class A shipped",
        (TxnClass::B, _) => "class B",
    }
}

fn quantile_line(h: &LogHistogram) -> String {
    let q = |p: f64| h.quantile(p).unwrap_or(f64::NAN);
    format!(
        "p50 {:.3}  p95 {:.3}  p99 {:.3} s  (n={})",
        q(0.50),
        q(0.95),
        q(0.99),
        h.count()
    )
}

/// Prints the histogram summaries (and, when present, the self-profile
/// table) of an [`ObsReport`] — single-run or merged across replications.
fn print_obs(obs: &ObsReport) {
    let by_cr = obs.response_by_class_route();
    if !by_cr.is_empty() {
        println!("response quantiles");
        for ((class, route), h) in &by_cr {
            println!(
                "  {:<17} {}",
                class_route_label(*class, *route),
                quantile_line(h)
            );
        }
    }
    if !obs.phases.is_empty() {
        println!("phase histograms");
        for (name, h) in &obs.phases {
            println!("  {name:<17} {}  mean {:.4} s", quantile_line(h), h.mean());
        }
    }
    if !obs.profile.is_empty() {
        println!("self-profile (host wall-clock)");
        for line in obs.profile.render_table().lines() {
            println!("  {line}");
        }
    }
}

fn print_summary(name: &str, s: &MetricSummary, unit: &str) {
    match s.half_width_95 {
        Some(half) => println!("{name} {:.3} +/- {half:.3} {unit}", s.mean),
        None => println!("{name} {:.3} {unit}", s.mean),
    }
}

fn run_replicated(args: &Args, cfg: &SystemConfig, spec: RouterSpec) -> ExitCode {
    let jobs = args.jobs.unwrap_or(0);
    let outcome = match args.ci_target {
        Some(rel_target) => replicate_ci(
            cfg,
            spec,
            &CiOptions {
                jobs,
                rel_target,
                min_replications: args.reps.max(3),
                max_replications: args.max_reps.expect("validated").max(args.reps),
                batch: 0,
            },
        )
        .map(|ci| (ci.runs, Some(ci.target_met))),
        None => replicate_jobs(cfg, spec, args.reps, jobs).map(|runs| (runs, None)),
    };
    let (runs, target_met) = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };

    let response = summarize(&runs, |m: &RunMetrics| m.mean_response);
    println!("policy              {}", spec.label());
    println!("offered rate        {:.2} tps", args.rate);
    println!("replications        {}", runs.len());
    if let Some(met) = target_met {
        let rel = response
            .relative_half_width()
            .map_or_else(|| "n/a".to_string(), |r| format!("{:.1} %", r * 100.0));
        println!(
            "ci target           {} ({rel} achieved)",
            if met { "met" } else { "NOT met" }
        );
    }
    print_summary("mean response      ", &response, "s");
    print_summary(
        "throughput         ",
        &summarize(&runs, |m: &RunMetrics| m.throughput),
        "tps",
    );
    print_summary(
        "shipped fraction   ",
        &summarize(&runs, |m: &RunMetrics| m.shipped_fraction * 100.0),
        "%",
    );
    print_summary(
        "utilization central",
        &summarize(&runs, |m: &RunMetrics| m.rho_central),
        "",
    );
    if let Some(obs) = ObsReport::merged_from_runs(&runs) {
        print_obs(&obs);
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("error: {e}");
            }
            usage();
            return ExitCode::FAILURE;
        }
    };

    let mut cfg = SystemConfig::paper_default()
        .with_total_rate(args.rate)
        .with_comm_delay(args.delay)
        .with_horizon(args.sim_time, args.warmup)
        .with_seed(args.seed);
    cfg.params.n_sites = args.sites;
    cfg.params.p_local = args.p_local;
    cfg.params.lockspace = args.lockspace;
    cfg.instantaneous_state = args.ideal_state;
    cfg.failure_aware = args.failure_aware;
    cfg.obs = ObsConfig {
        histograms: args.obs,
        profile: args.profile,
    };
    cfg.deadlock_backoff_window = args.backoff_window;
    if let Some(p) = args.placement_config().expect("validated at parse") {
        cfg = cfg.with_placement(p);
    }
    if let Some(d) = &args.drift {
        cfg = cfg.with_drift(DriftSpec::parse(d).expect("validated at parse"));
    }
    if let Some(spec) = args.island_spec().expect("validated at parse") {
        cfg = cfg.with_islands(spec);
    }
    if let Some(m) = args.link_matrix_spec().expect("validated at parse") {
        cfg = cfg.with_link_delays(m);
    }
    if let Some(mips) = args.site_mips_vec().expect("validated at parse") {
        cfg = cfg.with_site_mips(mips);
    }
    if let Some(path) = &args.fault_schedule {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read fault schedule {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let schedule = match FaultSchedule::parse(&text) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("invalid fault schedule {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        if let Err(e) = schedule.validate(args.sites) {
            eprintln!("invalid fault schedule {path}: {e}");
            return ExitCode::FAILURE;
        }
        cfg.fault_schedule = schedule;
    }

    let spec = match args.policy.as_str() {
        "none" => RouterSpec::NoSharing,
        "static" => match args.p_ship {
            Some(p_ship) => RouterSpec::Static { p_ship },
            None => optimal_static_spec(&cfg),
        },
        "measured" => RouterSpec::MeasuredResponse,
        "queue" => RouterSpec::QueueLength,
        "threshold" => RouterSpec::UtilizationThreshold {
            threshold: args.threshold,
        },
        "min-incoming-q" => RouterSpec::MinIncoming {
            estimator: UtilizationEstimator::QueueLength,
        },
        "min-incoming-n" => RouterSpec::MinIncoming {
            estimator: UtilizationEstimator::NumInSystem,
        },
        "min-average-q" => RouterSpec::MinAverage {
            estimator: UtilizationEstimator::QueueLength,
        },
        "min-average-n" => RouterSpec::MinAverage {
            estimator: UtilizationEstimator::NumInSystem,
        },
        "smoothed" => RouterSpec::SmoothedMinAverage {
            estimator: UtilizationEstimator::NumInSystem,
            scale: 0.2,
        },
        "island-aware" => RouterSpec::IslandAware {
            estimator: UtilizationEstimator::NumInSystem,
        },
        "island-aware-q" => RouterSpec::IslandAware {
            estimator: UtilizationEstimator::QueueLength,
        },
        other => {
            eprintln!("unknown policy: {other}");
            usage();
            return ExitCode::FAILURE;
        }
    };

    if args.reps > 1 || args.ci_target.is_some() {
        return run_replicated(&args, &cfg, spec);
    }

    let fault_free = cfg.fault_schedule.is_empty();
    let m = if let Some(path) = &args.trace_out {
        let sink = match JsonlSink::create(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cannot create trace file {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let system = match HybridSystem::new(cfg, spec) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        };
        let (m, mut sink) = system.run_with_sink(Box::new(sink));
        if let Err(e) = sink.flush() {
            eprintln!("cannot write trace file {path}: {e}");
            return ExitCode::FAILURE;
        }
        m
    } else {
        match run_simulation(cfg, spec) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
    };

    println!("policy              {}", spec.label());
    println!("offered rate        {:.2} tps", args.rate);
    println!("throughput          {:.2} tps", m.throughput);
    println!("mean response       {:.3} s", m.mean_response);
    if let Some((lo, hi)) = m.response_ci95 {
        println!("  95% CI            [{lo:.3}, {hi:.3}] s");
    }
    if let Some(p95) = m.p95_response {
        println!("p95 response        {p95:.3} s");
    }
    if let Some(rt) = m.mean_response_local_a {
        println!("  class A local     {rt:.3} s");
    }
    if let Some(rt) = m.mean_response_shipped_a {
        println!("  class A shipped   {rt:.3} s");
    }
    if let Some(rt) = m.mean_response_class_b {
        println!("  class B           {rt:.3} s");
    }
    println!("shipped fraction    {:.1} %", m.shipped_fraction * 100.0);
    println!("utilization local   {:.3}", m.rho_local);
    println!("utilization central {:.3}", m.rho_central);
    println!("mean re-runs        {:.4}", m.mean_reruns);
    println!("mean lock wait      {:.4} s", m.mean_lock_wait);
    println!(
        "aborts              {} (local inval {}, central inval {}, neg-ack {}, deadlock {}/{})",
        m.aborts.total(),
        m.aborts.local_invalidated,
        m.aborts.central_invalidated,
        m.aborts.central_neg_ack,
        m.aborts.deadlock_local,
        m.aborts.deadlock_central,
    );
    println!("messages            {}", m.messages);
    for (kind, count) in &m.messages_by_kind {
        println!("  {kind:<17} {count}");
    }
    if !fault_free {
        let a = &m.availability;
        println!("downtime            {:.1} s", a.downtime_secs);
        println!(
            "rejected            {} class A, {} class B",
            a.rejected_class_a, a.rejected_class_b
        );
        println!(
            "crash aborts        {} site, {} central",
            a.crash_aborts_site, a.crash_aborts_central
        );
        println!(
            "failover            {} shipped, {} kept local, {} retries",
            a.failover_shipped, a.failover_local, a.retries
        );
        println!("deferred messages   {}", a.deferred_messages);
        match a.mean_response_during_outage {
            Some(rt) => println!("response in outage  {rt:.3} s"),
            None => println!("response in outage  n/a (no overlapping completions)"),
        }
    }
    if let Some(p) = &m.placement {
        println!("placement           {} (epoch {})", p.policy, p.epoch);
        println!(
            "migrations          {} completed / {} planned / {} aborted ({} bytes moved)",
            p.migrations_completed, p.migrations_planned, p.migrations_aborted, p.bytes_moved
        );
        println!(
            "class B rate        {:.1} % (static map would see {:.1} %), {} parked",
            p.class_b_rate * 100.0,
            p.class_b_rate_static * 100.0,
            p.parked_admissions
        );
    }
    if let Some(obs) = &m.obs {
        print_obs(obs);
    }
    if let Some(path) = &args.trace_out {
        println!("trace written       {path}");
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_args(args: &[&str]) -> Result<Args, String> {
        let argv: Vec<String> = args.iter().map(|s| (*s).to_string()).collect();
        Args::parse_from(&argv)
    }

    #[test]
    fn placement_specs_parse() {
        let a = parse_args(&["--placement", "threshold"]).expect("valid");
        let p = a.placement_config().expect("valid").expect("present");
        assert!(p.is_adaptive());
        let a = parse_args(&["--placement", "threshold:0.7"]).expect("valid");
        let p = a.placement_config().expect("valid").expect("present");
        assert_eq!(p.policy, PlacementPolicy::Threshold { remote_frac: 0.7 });
        let a = parse_args(&["--placement", "epoch"]).expect("valid");
        assert!(a
            .placement_config()
            .expect("valid")
            .expect("present")
            .is_adaptive());
        let a = parse_args(&["--placement", "static"]).expect("valid");
        assert!(!a
            .placement_config()
            .expect("valid")
            .expect("present")
            .is_adaptive());
        assert!(parse_args(&["--drift", "hot:15:0.8"]).is_ok());
    }

    #[test]
    fn bad_placement_specs_are_rejected_at_parse() {
        for argv in [
            &["--placement", "magnetic"][..],
            &["--placement", "threshold:nope"],
            &["--placement", "threshold:1.5"],
            &["--placement", "epoch:3"],
            &["--placement"],
            &["--drift", "melt"],
            &["--drift", "hot:-2"],
            &["--drift"],
        ] {
            assert!(parse_args(argv).is_err(), "accepted {argv:?}");
        }
    }

    #[test]
    fn within_run_threading_flag_is_refused() {
        // Scripts that still pass the flag must fail loudly rather than
        // run serially without notice.
        let e = parse_args(&["--sim-threads", "4"]).expect_err("must reject");
        assert_eq!(e, "unknown argument: --sim-threads");
    }

    #[test]
    fn warmup_longer_than_the_run_names_both_flags() {
        // The 60 s default warmup leaves a 60 s run no measurement window.
        let e = parse_args(&["--sim-time", "60"]).expect_err("must reject");
        assert!(
            e.contains("--warmup (60 s)")
                && e.contains("--sim-time (60 s)")
                && e.contains("defaults to 60 s"),
            "{e}"
        );
        let a = parse_args(&["--sim-time", "60", "--warmup", "10"]).expect("valid");
        assert_eq!((a.sim_time, a.warmup), (60.0, 10.0));
    }

    #[test]
    fn island_specs_parse() {
        // Bare K: both delays default to --delay.
        let a = parse_args(&["--islands", "2", "--delay", "0.3"]).expect("valid");
        let s = a.island_spec().expect("valid").expect("present");
        assert_eq!(s.n_islands(), 2);
        assert_eq!(s.intra_delay(), 0.3);
        assert_eq!(s.inter_delay(), 0.3);
        assert_eq!(s.central_island(), 0);

        let a = parse_args(&["--islands", "4:0.05:0.5", "--sites", "8"]).expect("valid");
        let s = a.island_spec().expect("valid").expect("present");
        assert_eq!((s.n_islands(), s.n_sites()), (4, 8));
        assert_eq!((s.intra_delay(), s.inter_delay()), (0.05, 0.5));

        let a = parse_args(&["--islands", "3:0.1:0.9:2", "--sites", "9"]).expect("valid");
        assert_eq!(
            a.island_spec()
                .expect("valid")
                .expect("present")
                .central_island(),
            2
        );
    }

    #[test]
    fn site_mips_parse_and_broadcast() {
        // One value broadcasts to every site (in MIPS -> instr/s).
        let a = parse_args(&["--site-mips", "2.5", "--sites", "4"]).expect("valid");
        let v = a.site_mips_vec().expect("valid").expect("present");
        assert_eq!(v, vec![2.5e6; 4]);
        let a = parse_args(&["--site-mips", "1,2,3,4", "--sites", "4"]).expect("valid");
        let v = a.site_mips_vec().expect("valid").expect("present");
        assert_eq!(v, vec![1.0e6, 2.0e6, 3.0e6, 4.0e6]);
    }

    #[test]
    fn link_matrix_parses_explicit_rows() {
        // 2 sites + central = 3x3 symmetric matrix, zero diagonal.
        let a = parse_args(&[
            "--sites",
            "2",
            "--link-matrix",
            "0,0.1,0.4;0.1,0,0.4;0.4,0.4,0",
        ])
        .expect("valid");
        let m = a.link_matrix_spec().expect("valid").expect("present");
        assert_eq!(m.site_central_delays(), vec![0.4, 0.4]);
        assert_eq!(m.get(0, 1), 0.1);
    }

    #[test]
    fn bad_topology_specs_are_rejected_at_parse() {
        for argv in [
            &["--islands", "0"][..],                       // no empty partition
            &["--islands", "11"],                          // more islands than sites
            &["--islands", "2:0.5"],                       // wrong arity
            &["--islands", "2:0.5:0.1"],                   // intra > inter
            &["--islands", "2:0.1:0.5:7"],                 // central island out of range
            &["--islands", "two"],                         // not a number
            &["--site-mips", "0"],                         // non-positive speed
            &["--site-mips", "1,2,3"],                     // wrong count for 10 sites
            &["--site-mips", "fast"],                      // not a number
            &["--sites", "2", "--link-matrix", "0,1;1,0"], // wrong shape
            &[
                "--sites",
                "2",
                "--link-matrix",
                "0,0.1,0.4;0.2,0,0.4;0.4,0.4,0", // asymmetric
            ],
            &["--islands", "2", "--sites", "2", "--link-matrix", "0,1;1,0"], // exclusive
        ] {
            assert!(parse_args(argv).is_err(), "accepted {argv:?}");
        }
    }
}
