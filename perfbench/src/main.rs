//! Benchmark of the hybrid load-sharing simulator.
//!
//! ```text
//! hls-perfbench [--workload paper|contended|scale|churn|all] [--seed N]
//!               [--seconds N] [--trace 0|1]
//! ```
//!
//! One workload runs in this process, one simulation at a time on one
//! thread. `--trace 0` times untraced runs and reports the end-to-end
//! metrics; `--trace 1` alternates untraced and profiled runs and reports
//! the per-layer metrics. `all` runs each workload in a child process of
//! its own, so each peak-memory figure covers one workload. Every run's
//! simulated output is checked; the last line of standard output is the
//! JSON result, and the exit code is 1 when any run failed. See
//! `README.md` beside this crate for the workloads and metrics.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads /proc and the thread CPU clock of 64-bit Linux");

mod bench;
mod layers;
mod report;
mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use bench::{median, Bench};
use layers::{merged_profile, per_layer, trace_round, HostFigures, Spans};
use report::{metrics_json, peak_rss_mb, result_line, run_record, Json, Metric};
use workload::{Workload, DEFAULT_SEED};

const USAGE: &str = "usage: hls-perfbench [--workload paper|contended|scale|churn|all] \
                     [--seed N] [--seconds N] [--trace 0|1]";

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    /// `None` runs every workload.
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

/// Parses a seed: a decimal integer in `0..=u64::MAX`.
fn parse_seed(s: &str) -> Result<u64, String> {
    if s.is_empty() || !s.bytes().all(|b| b.is_ascii_digit()) {
        return Err(format!(
            "--seed takes a non-negative decimal integer, got {s:?}"
        ));
    }
    s.parse()
        .map_err(|_| format!("--seed {s} does not fit in 64 bits"))
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = match name {
                    "all" => None,
                    _ => Some(
                        Workload::parse(name)
                            .ok_or_else(|| format!("unknown workload {name:?}"))?,
                    ),
                };
            }
            "--seed" => args.seed = parse_seed(value()?)?,
            "--seconds" => {
                let v = value()?;
                args.seconds = match v.parse::<u64>() {
                    Ok(n) if (1..=3600).contains(&n) => n,
                    _ => {
                        return Err(format!(
                            "--seconds takes a whole number from 1 to 3600, got {v:?}"
                        ))
                    }
                };
            }
            "--trace" => {
                args.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v:?}")),
                };
            }
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("hls-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = match args.workload {
        Some(w) => run_one(w, &args),
        None => run_all(&args),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The checkout the benchmark was built in.
fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark crate sits inside the repository")
}

/// Quartiles of `xs` as `statistics.quantiles(xs, n=4)` computes them
/// (exclusive method), for the human-readable summary.
fn quartiles(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let at = |p: f64| {
        let pos = p * (n + 1) as f64;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta.clamp(0.0, 1.0)
    };
    (at(0.25), at(0.75))
}

/// Times untraced runs; returns the end-to-end metrics and raw samples.
fn timed(bench: &mut Bench, budget: Duration) -> (Vec<Metric>, Json) {
    let (rounds, mut setups) = bench.timing(budget);
    let mut tps: Vec<f64> = rounds.iter().map(bench::Round::txn_per_s).collect();
    let (q1, q3) = quartiles(&tps);
    let (s1, s3) = quartiles(&setups);
    let samples = Json::obj([
        (
            "txn_per_s",
            Json::Arr(tps.iter().map(|&x| Json::Num(x)).collect()),
        ),
        (
            "txn_per_wall_s",
            Json::Arr(
                rounds
                    .iter()
                    .map(|r| Json::Num(r.txn_per_wall_s()))
                    .collect(),
            ),
        ),
        (
            "setup_s_quartiles",
            Json::Arr(vec![Json::Num(s1), Json::Num(s3)]),
        ),
    ]);
    let txn_per_s = median(&mut tps);
    println!(
        "{}: txn_per_s median of {} rounds (quartiles {q1:.1} .. {q3:.1}); \
         setup_s median of {} set-ups (quartiles {s1:.3e} .. {s3:.3e})",
        bench.workload.name(),
        rounds.len(),
        setups.len()
    );
    let rss = peak_rss_mb().unwrap_or_else(|| {
        bench
            .tally
            .fail("peak resident memory is unavailable".into());
        0.0
    });
    let metrics = vec![
        Metric {
            name: "txn_per_s",
            unit: "txn/s",
            value: txn_per_s,
        },
        Metric {
            name: "setup_s",
            unit: "s",
            value: median(&mut setups),
        },
        Metric {
            name: "peak_rss_mb",
            unit: "MB",
            value: rss,
        },
    ];
    (metrics, samples)
}

/// Alternates untraced and traced runs; returns the per-layer metrics and
/// the spans of every traced round.
fn traced(bench: &mut Bench, budget: Duration, origin: Instant) -> (Vec<Metric>, Json) {
    let w = bench.workload;
    let rounds = bench.traced(budget);
    let mut spans = Spans::default();
    for round in &rounds {
        if let Err(e) = trace_round(&mut spans, w, round, origin) {
            bench.tally.fail(format!(
                "{} seed {}: span accounting: {e}",
                w.name(),
                bench.seed
            ));
        }
    }
    let mut by_time: Vec<&bench::TracedRound> = rounds.iter().collect();
    by_time.sort_by(|a, b| a.traced_cpu_s().total_cmp(&b.traced_cpu_s()));
    let metrics = match by_time.get(by_time.len() / 2) {
        Some(chosen) => {
            let mut ns: Vec<f64> = rounds
                .iter()
                .map(|r| r.untraced.cpu_s / r.untraced.events as f64 * 1e9)
                .collect();
            let mut overhead: Vec<f64> = rounds.iter().map(bench::TracedRound::overhead).collect();
            let host = HostFigures {
                ns_per_event: median(&mut ns),
                trace_overhead: median(&mut overhead),
                estimate_us: bench::estimate_us(w, bench.seed),
            };
            println!(
                "{}: per-layer times from the median of {} traced rounds",
                w.name(),
                rounds.len()
            );
            per_layer(w, &chosen.traced, &merged_profile(chosen), host)
        }
        None => Vec::new(),
    };
    let spans_json = Json::Arr(
        spans
            .spans
            .iter()
            .zip(spans.self_times())
            .map(|(s, own)| {
                Json::obj([
                    ("id", Json::Num(s.id as f64)),
                    ("parent", Json::Num(s.parent as f64)),
                    ("name", Json::str(s.name.clone())),
                    ("start_s", s.start_s.map_or(Json::Null, Json::Num)),
                    ("dur_s", Json::Num(s.dur_s)),
                    ("self_s", Json::Num(own)),
                    ("calls", Json::Num(s.calls as f64)),
                ])
            })
            .collect(),
    );
    (metrics, spans_json)
}

/// Runs one workload in this process and prints its result.
fn run_one(w: Workload, args: &Args) -> bool {
    let origin = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let mut bench = Bench::new(w, args.seed, 1.0);
    let (metrics, detail) = if args.trace {
        traced(&mut bench, budget, origin)
    } else {
        timed(&mut bench, budget)
    };
    for m in &metrics {
        println!("{:<10} {:<34} {:>22} {}", w.name(), m.name, m.value, m.unit);
    }
    let tally = &bench.tally;
    for e in &tally.errors {
        println!("FAILED {e}");
        eprintln!("hls-perfbench: FAILED {e}");
    }
    let record = run_record(
        repo_root(),
        w.name(),
        args.seed,
        args.seconds,
        args.trace,
        tally.attempted,
    );
    println!("record {}", record.render());
    let correct = tally.failed == 0 && !metrics.is_empty();
    let file = Json::obj([
        ("record", record),
        ("correct", Json::Bool(correct)),
        ("failed", Json::Num(tally.failed as f64)),
        (
            "errors",
            Json::Arr(tally.errors.iter().map(|e| Json::str(e.clone())).collect()),
        ),
        ("metrics", metrics_json(&metrics)),
        (if args.trace { "spans" } else { "samples" }, detail),
    ]);
    let path = out_path(w, args);
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, file.render() + "\n"));
    match written {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("hls-perfbench: cannot write {}: {e}", path.display()),
    }
    println!(
        "{}",
        result_line(
            correct,
            tally.attempted,
            tally.failed,
            metrics_json(&metrics)
        )
    );
    correct
}

/// Where a result and its spans or samples are written.
fn out_path(w: Workload, args: &Args) -> PathBuf {
    repo_root().join("perfbench").join("out").join(format!(
        "{}-seed{}-trace{}.json",
        w.name(),
        args.seed,
        u8::from(args.trace)
    ))
}

/// Runs every workload, each in a child process, and prints one combined
/// result with metrics named `<workload>.<metric>`.
fn run_all(args: &Args) -> bool {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("hls-perfbench: cannot locate the benchmark executable: {e}");
            return false;
        }
    };
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics = Vec::new();
    for w in Workload::ALL {
        let child = Command::new(&exe)
            .args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output();
        let result = child.ok().and_then(|out| {
            let text = String::from_utf8_lossy(&out.stdout).into_owned();
            let mut lines: Vec<&str> = text.lines().collect();
            let last = lines.pop()?;
            for line in lines {
                println!("{line}");
            }
            hls_obs::parse_json(last).ok()
        });
        let Some(result) = result else {
            eprintln!("hls-perfbench: {} produced no result", w.name());
            correct = false;
            attempted += 1;
            failed += 1;
            continue;
        };
        correct &= result.get("correct").and_then(|v| v.as_bool()) == Some(true);
        attempted += result
            .get("attempted")
            .and_then(|v| v.as_u64())
            .unwrap_or(0);
        failed += result.get("failed").and_then(|v| v.as_u64()).unwrap_or(1);
        if let Some(hls_obs::JsonValue::Obj(pairs)) = result.get("metrics") {
            for (name, m) in pairs {
                let value = m
                    .get("value")
                    .and_then(|v| v.as_f64())
                    .map_or(Json::Null, Json::Num);
                let unit = m.get("unit").and_then(|v| v.as_str()).unwrap_or_default();
                metrics.push((
                    format!("{}.{name}", w.name()),
                    Json::obj([("value", value), ("unit", Json::str(unit))]),
                ));
            }
        }
    }
    println!(
        "{}",
        result_line(correct, attempted.max(1), failed, Json::obj(metrics))
    );
    correct
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn seeds_parse_as_decimal_u64() {
        assert_eq!(parse_seed("1988"), Ok(1988));
        assert_eq!(parse_seed("0"), Ok(0));
        assert_eq!(parse_seed("18446744073709551615"), Ok(u64::MAX));
        for bad in [
            "",
            "-1",
            "+1",
            "1e3",
            "0x10",
            " 7",
            "seven",
            "18446744073709551616",
        ] {
            assert!(parse_seed(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn command_line_arguments_parse() {
        let a = parse_args(&argv("--workload churn --seed 42 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            a,
            Args {
                workload: Some(Workload::Churn),
                seed: 42,
                seconds: 10,
                trace: true,
            }
        );
        let d = parse_args(&[]).unwrap();
        assert_eq!((d.workload, d.seed, d.trace), (None, DEFAULT_SEED, false));
        for bad in [
            "--workload bogus",
            "--seed",
            "--seed -3",
            "--seconds 0",
            "--trace 2",
            "--frobnicate",
        ] {
            assert!(
                parse_args(&argv(bad)).is_err(),
                "{bad:?} should be rejected"
            );
        }
    }

    /// Simulated-time multiplier for the smoke pass: enough for every
    /// workload to complete transactions inside its measurement window
    /// (`scale` needs longer; its responses take seconds).
    fn smoke(w: Workload) -> f64 {
        if w == Workload::Scale {
            0.1
        } else {
            0.01
        }
    }

    /// `(name, unit)` of every metric `BENCHMARK.json` lists under `key`.
    fn declared(key: &str) -> Vec<(String, String)> {
        let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
        let doc = hls_obs::parse_json(&text).expect("BENCHMARK.json parses");
        let Some(hls_obs::JsonValue::Arr(items)) = doc.get(key) else {
            panic!("BENCHMARK.json has no {key} list");
        };
        items
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(|v| v.as_str())
                        .unwrap_or_default()
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn produced(metrics: &[Metric]) -> Vec<(String, String)> {
        metrics
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect()
    }

    #[test]
    fn every_workload_passes_a_short_timed_and_traced_run() {
        let end_to_end = declared("end_to_end");
        let per_layer = declared("per_layer");
        for w in Workload::ALL {
            let mut bench = Bench::new(w, 9, smoke(w));
            let (timed_metrics, _) = timed(&mut bench, Duration::ZERO);
            let (layer_metrics, spans) = traced(&mut bench, Duration::ZERO, Instant::now());
            assert_eq!(
                bench.tally.failed,
                0,
                "{}: {:?}",
                w.name(),
                bench.tally.errors
            );
            // Warm-up, two timing rounds, one untraced and one traced round.
            let reps = w.shape().replications as u64;
            assert_eq!(bench.tally.attempted, 1 + 4 * reps, "{}", w.name());
            assert_eq!(produced(&timed_metrics), end_to_end, "{}", w.name());
            assert_eq!(produced(&layer_metrics), per_layer, "{}", w.name());
            for m in timed_metrics.iter().chain(&layer_metrics) {
                assert!(m.value.is_finite(), "{} {} = {}", w.name(), m.name, m.value);
            }
            for m in &timed_metrics {
                assert!(m.value > 0.0, "{} {} = {}", w.name(), m.name, m.value);
            }
            let Json::Arr(spans) = spans else {
                panic!("spans are a list");
            };
            let named = |n: &str| {
                spans
                    .iter()
                    .filter(|s| matches!(s, Json::Obj(kv) if kv.contains(&("name".into(), Json::str(n)))))
                    .count() as u64
            };
            assert_eq!(
                (named(w.name()), named("run"), named("sim.run")),
                (1, reps, reps)
            );
        }
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
    }
}
