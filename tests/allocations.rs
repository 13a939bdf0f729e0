//! Heap allocations per simulated event, counted exactly.
//!
//! A counting global allocator tallies every call that obtains memory
//! (`alloc`, `alloc_zeroed` and `realloc`) while a run executes, and the
//! test bounds that count per event. For a given configuration the count
//! is deterministic, so unlike a timing it cannot drift with the host:
//! a change that makes the event loop allocate more fails here.
//!
//! The binary holds a single `#[test]`, so no other test thread allocates
//! while a run is counted. Its two configurations restate the benchmark's
//! `paper` and `contended` workloads (`perfbench/src/workload.rs`), which
//! root tests cannot import, at a 60 s horizon: 20 tps over the paper's
//! ten sites with scale metrics on, min-average routing for `paper`, and
//! for `contended` a 1,024-element lockspace routed by queue length.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use hls_core::{HybridSystem, RouterSpec, SystemConfig, UtilizationEstimator};

/// The system allocator, counting the calls that obtain memory.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a statistic
// that publishes no other data, so `Relaxed` suffices.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `layout` carry over.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `layout` carry over.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator, hence from `System`,
        // with `layout`; the caller's guarantees for `new_size` carry over.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, hence from `System`,
        // with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// A benchmark workload at a 60 s horizon with a 20 s warm-up.
fn config(lockspace: Option<f64>) -> SystemConfig {
    let mut cfg = SystemConfig::paper_default()
        .with_horizon(60.0, 20.0)
        .with_seed(1988);
    if let Some(l) = lockspace {
        cfg.params.lockspace = l;
    }
    cfg.scale_metrics = true;
    cfg.with_total_rate(20.0)
}

#[test]
fn allocations_per_event_stay_below_their_bounds() {
    // Each bound sits between the count before lock entries were recycled
    // (0.510 on `paper`, 0.502 on `contended`) and the count after (0.070
    // and 0.221).
    let cells = [
        (
            "paper",
            config(None),
            RouterSpec::MinAverage {
                estimator: UtilizationEstimator::NumInSystem,
            },
            0.2,
        ),
        (
            "contended",
            config(Some(1024.0)),
            RouterSpec::QueueLength,
            0.3,
        ),
    ];
    for (name, cfg, router, bound) in cells {
        let sys = HybridSystem::new(cfg, router).expect("valid configuration");
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let (metrics, events) = sys.run_counted();
        let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert!(metrics.completions > 0, "{name} completed nothing");
        let per_event = allocations as f64 / events as f64;
        println!("{name}: {allocations} allocations over {events} events = {per_event:.3}");
        assert!(
            per_event < bound,
            "{name}: {per_event:.3} allocations per event ({allocations} over {events} \
             events), bound {bound}"
        );
    }
}
