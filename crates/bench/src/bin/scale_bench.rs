//! CLI: topology-scaling frontier of the sharded central complex.
//!
//! ```text
//! scale_bench [--smoke] [--out PATH]
//! ```
//!
//! Where perfbench's `paper` workload measures the event loop at the
//! paper's scale, this benchmark measures how the simulator — and the protocol it models —
//! holds up as the topology grows: every combination of
//! N ∈ {10, 100, 1000} sites and K ∈ {1, 2, 4, 8} central shards is run
//! with the per-site arrival rate held at the paper's operating point and
//! the complex's *total* capacity scaled with N (so K only changes how
//! the capacity is partitioned, not how much there is).
//!
//! Per cell the JSON records simulator throughput (events per wall-clock
//! second) and the `ScaleReport` footprint counters: peak transactions
//! in flight, estimated resident state bytes, bytes per in-flight
//! transaction, and the cross-shard message/denial/grant counts that
//! price the coordination a partitioned complex pays.
//!
//! Two guards run before the grid:
//!
//! * **K = 1 equivalence** — for each N, a run with the explicit
//!   one-shard spec must produce metrics bit-identical to the unsharded
//!   `Single` path (the golden-equivalence contract, re-asserted at
//!   bench scale).
//! * at N = 1,000 the run must complete within the horizon without the
//!   event queue or state tables growing past the footprint estimate's
//!   assumptions (asserted via a populated report).
//!
//! `--smoke` shortens every horizon (CI wiring check, no JSON output).
//! The full run writes `BENCH_scale.json` (or `--out PATH`).

use std::fmt::Write as _;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

use hls_core::{run_simulation, HybridSystem, RouterSpec, ShardSpec, SystemConfig};

const SITES: [usize; 3] = [10, 100, 1000];
const SHARDS: [usize; 4] = [1, 2, 4, 8];
/// Shipping fraction: enough central traffic to exercise cross-shard
/// coordination without collapsing the complex at N = 1,000.
const P_SHIP: f64 = 0.3;

/// Simulated horizon per site count: larger topologies process more
/// events per simulated second, so the horizon shrinks to keep wall
/// clock bounded while every cell still commits thousands of
/// transactions.
fn horizon(n_sites: usize, smoke: bool) -> (f64, f64) {
    match (n_sites, smoke) {
        (10, false) => (60.0, 10.0),
        (100, false) => (20.0, 4.0),
        (_, false) => (6.0, 1.0),
        (10, true) => (10.0, 2.0),
        (100, true) => (4.0, 1.0),
        (_, true) => (1.5, 0.3),
    }
}

/// One grid cell's configuration: per-site rate at the paper's operating
/// point, lock space and total central capacity scaled with N, capacity
/// split evenly across the K shards.
fn cell(n_sites: usize, shards: usize, smoke: bool) -> SystemConfig {
    let (sim_time, warmup) = horizon(n_sites, smoke);
    let mut cfg = SystemConfig::paper_default()
        .with_horizon(sim_time, warmup)
        .with_seed(1988)
        .with_shards(shards);
    cfg.params.n_sites = n_sites;
    cfg.params.lockspace = 32.0 * 1024.0 * (n_sites as f64 / 10.0);
    cfg.params.central_mips = 15.0e6 * (n_sites as f64 / 10.0) / shards as f64;
    cfg.scale_metrics = true;
    cfg.with_total_rate(1.5 * n_sites as f64)
}

struct Cell {
    n_sites: usize,
    n_shards: usize,
    events_per_sec: f64,
    completions: u64,
    mean_response: f64,
    peak_in_flight: u64,
    state_bytes: u64,
    bytes_per_txn: f64,
    cross_shard_messages: u64,
    cross_shard_denials: u64,
    remote_lock_grants: u64,
}

fn run_cell(n_sites: usize, shards: usize, smoke: bool) -> Cell {
    let cfg = cell(n_sites, shards, smoke);
    let sys = HybridSystem::new(cfg, RouterSpec::Static { p_ship: P_SHIP })
        .expect("scale grid config must be valid");
    let start = Instant::now();
    let (metrics, events) = black_box(sys.run_counted());
    let events_per_sec = events as f64 / start.elapsed().as_secs_f64();
    let scale = metrics.scale.expect("scale_metrics was enabled");
    assert!(
        metrics.completions > 0,
        "N={n_sites} K={shards}: nothing ran"
    );
    if shards > 1 {
        assert!(
            scale.cross_shard_messages > 0,
            "N={n_sites} K={shards}: no cross-shard traffic"
        );
    }
    Cell {
        n_sites,
        n_shards: shards,
        events_per_sec,
        completions: metrics.completions,
        mean_response: metrics.mean_response,
        peak_in_flight: scale.peak_in_flight,
        state_bytes: scale.state_bytes,
        bytes_per_txn: scale.bytes_per_txn,
        cross_shard_messages: scale.cross_shard_messages,
        cross_shard_denials: scale.cross_shard_denials,
        remote_lock_grants: scale.remote_lock_grants,
    }
}

/// The golden-equivalence contract at bench scale: an explicit one-shard
/// complex must be bit-identical to the unsharded path for every N.
fn assert_one_shard_equivalence(smoke: bool) {
    for &n in &SITES {
        let single = cell(n, 1, smoke);
        let mut even = single.clone();
        even.shards = ShardSpec::Even { k: 1 };
        let router = RouterSpec::Static { p_ship: P_SHIP };
        let a = run_simulation(single, router).expect("valid");
        let b = run_simulation(even, router).expect("valid");
        assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "N={n}: one-shard complex diverged from the unsharded path"
        );
        println!("equivalence N={n:<5} ok ({} completions)", a.completions);
    }
}

fn run_grid(smoke: bool) -> Vec<Cell> {
    let mut cells = Vec::new();
    for &n in &SITES {
        for &k in &SHARDS {
            let c = run_cell(n, k, smoke);
            println!(
                "N={:<5} K={:<2} {:>11.0} ev/s   {:>7} done   rt {:>6.3}s   {:>6.0} B/txn   cross {:>8} msgs {:>6} denials",
                c.n_sites,
                c.n_shards,
                c.events_per_sec,
                c.completions,
                c.mean_response,
                c.bytes_per_txn,
                c.cross_shard_messages,
                c.cross_shard_denials,
            );
            cells.push(c);
        }
    }
    cells
}

fn to_json(cells: &[Cell], smoke: bool) -> String {
    let mut s = String::new();
    s.push_str("{\n  \"schema\": \"hls-bench/scale\",\n  \"version\": 1,\n");
    let _ = writeln!(
        s,
        "  \"mode\": \"{}\",",
        if smoke { "smoke" } else { "full" }
    );
    let _ = writeln!(s, "  \"p_ship\": {P_SHIP},");
    s.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"n_sites\": {}, \"n_shards\": {}, \"events_per_sec\": {:.0}, \"completions\": {}, \"mean_response\": {:.6}, \"peak_in_flight\": {}, \"state_bytes\": {}, \"bytes_per_txn\": {:.1}, \"cross_shard_messages\": {}, \"cross_shard_denials\": {}, \"remote_lock_grants\": {}}}",
            c.n_sites,
            c.n_shards,
            c.events_per_sec,
            c.completions,
            c.mean_response,
            c.peak_in_flight,
            c.state_bytes,
            c.bytes_per_txn,
            c.cross_shard_messages,
            c.cross_shard_denials,
            c.remote_lock_grants,
        );
        s.push_str(if i + 1 < cells.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut out = String::from("BENCH_scale.json");
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => smoke = true,
            "--out" => {
                i += 1;
                match args.get(i) {
                    Some(path) => out = path.clone(),
                    None => {
                        eprintln!("--out requires a path");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--help" | "-h" => {
                println!("scale_bench [--smoke] [--out PATH]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unexpected argument: {other}");
                return ExitCode::FAILURE;
            }
        }
        i += 1;
    }
    assert_one_shard_equivalence(smoke);
    let cells = run_grid(smoke);
    if smoke {
        println!("smoke run complete ({} cells)", cells.len());
        return ExitCode::SUCCESS;
    }
    match std::fs::write(&out, to_json(&cells, smoke)) {
        Ok(()) => {
            println!("wrote {out}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("failed to write {out}: {e}");
            ExitCode::FAILURE
        }
    }
}
