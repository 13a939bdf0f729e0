//! The hybrid distributed–centralized DBMS simulator.
//!
//! A single-threaded discrete-event simulation of `N` local sites plus the
//! central complex, implementing the full Section 2 protocol:
//!
//! * local locking at each site, central locking at the central complex,
//! * commit-time mark-for-abort checks,
//! * coherence counts and asynchronous update propagation (with optional
//!   batching) and acknowledgements,
//! * invalidation of central lock holders by incoming asynchronous updates,
//! * the authentication phase of central/shipped transactions: coherence
//!   negative-acks, forcible lock seizure from local holders (marking them
//!   for abort), commit fan-out, and re-execution on failure,
//! * deadlock detection with abort-and-rerun,
//! * CPU scheduling (FCFS, released on I/O, lock waits and communication),
//!   fixed-delay FIFO links, and delayed central-state snapshots for the
//!   routing strategies,
//! * deterministic fault injection ([`hls_faults`]): site and central
//!   crashes (volatile lock tables lost, resident transactions killed,
//!   durable queues replayed on recovery), link outages with store-and-
//!   forward deferral, and failure-aware routing overrides.

use std::collections::hash_map::Entry;
use std::collections::VecDeque;

use hls_analytic::Observed;
use hls_faults::FaultKind;
use hls_lockmgr::{Grant, LockId, LockMode, LockStats, LockTable, OwnerId, RequestOutcome};
use hls_net::{Envelope, NodeId, StarNetwork};
use hls_obs::{Profiler, Timer, TraceSink, TOTAL_KEY};
use hls_sim::{
    EventKey, EventQueue, FxHashMap, Job, MultiServer, RngStreams, SimDuration, SimRng, SimTime,
};
use hls_workload::{ArrivalProcess, DriftModel, TxnClass, TxnGenerator, TxnSpec};

use hls_placement::{
    plan, Migration, PartitionGeometry, PlacementMap, PlacementPolicy, PlacementStats,
};
use hls_shard::ShardMap;

use crate::config::{ClassBMode, DeadlockVictim, SystemConfig};
use crate::dense::{JobSlab, MsgCounts, TxnTable, VecPool};
use crate::error::ConfigError;
use crate::metrics::{MetricsCollector, PlacementReport, RunMetrics, ScaleReport};
use crate::msg::{CentralSnapshot, Msg};
use crate::router::{FailureAwareRouter, FaultAwareDecision, RouteCtx, RouterSpec};
use crate::trace::{Trace, TraceEvent};
use crate::txn::{Phase, Route, Txn};

/// Where a CPU or lock-table operation takes place.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Locale {
    Site(usize),
    /// Central shard `k` (`0` is the whole complex when unsharded).
    Central(usize),
}

/// Work items executed on a CPU.
#[derive(Debug)]
enum JobKind {
    /// A burst belonging to the transaction's own lifecycle.
    TxnPhase(u64),
    /// Processing an authentication request at a local site.
    AuthProcess {
        txn: u64,
        site: usize,
        locks: Vec<(LockId, LockMode)>,
    },
    /// Applying an asynchronous update message at the central complex.
    ApplyAsync {
        from: usize,
        writes: Vec<(LockId, u64)>,
    },
    /// Applying a commit message at a local site.
    ApplyCommit {
        txn: u64,
        site: usize,
        writes: Vec<(LockId, u64)>,
    },
    /// Sharded central complex: processing a cross-shard lock request at
    /// the shard owning the lock (`home` is the requester's resident
    /// shard, where the response goes).
    ShardLock {
        txn: u64,
        lock: LockId,
        mode: LockMode,
        home: u32,
    },
    /// Sharded central complex: a foreign shard fanning a delegated
    /// authentication request out to the master sites it homes.
    ShardAuthFanout {
        txn: u64,
        home: u32,
        locks: Vec<(LockId, LockMode)>,
    },
    /// Sharded central complex: a foreign shard applying a delegated
    /// commit — writes to its replica, lock releases, and the commit
    /// fan-out to its own sites.
    ShardCommitApply {
        txn: u64,
        locks: Vec<(LockId, LockMode)>,
        writes: Vec<(LockId, u64)>,
    },
}

/// Simulation events.
#[derive(Debug)]
enum Ev {
    Arrival {
        site: usize,
    },
    CpuDone {
        loc: Locale,
        job: u64,
    },
    IoDone {
        txn: u64,
    },
    MsgArrive {
        to: NodeId,
        msg: Msg,
        snap: Option<CentralSnapshot>,
    },
    FlushAsync {
        site: usize,
    },
    /// A scheduled fault transition (site/central/link state change).
    Fault(FaultKind),
    /// A class B arrival retrying after the central complex was found
    /// unreachable (failure-aware mode).
    RetryShip {
        spec: TxnSpec,
        site: usize,
        arrival: SimTime,
        attempt: u32,
    },
    /// A deadlock victim restarting after its jittered backoff.
    Rerun {
        txn: u64,
    },
    /// Periodic placement-controller activation: decay the access
    /// statistics, plan migrations, start their bulk copies. Scheduled
    /// only under an adaptive placement policy.
    PlacementTick,
    /// A migration's bulk copy finished; the partition enters the
    /// draining phase. `mig` guards against events from an aborted
    /// predecessor migration of the same partition.
    PlacementCopyDone {
        partition: u32,
        mig: u64,
    },
    Sample,
    EndWarmup,
}

/// A message buffered store-and-forward by a link outage, with its
/// original endpoints and piggybacked central-state snapshot.
type DeferredSend = (NodeId, NodeId, Msg, Option<CentralSnapshot>);

/// Where recorded protocol events go: the legacy in-memory [`Trace`]
/// (`run_traced`) or a pluggable streaming [`TraceSink`]
/// (`run_with_sink`, e.g. JSONL to a file).
#[derive(Debug)]
enum TraceTarget {
    Memory(Trace),
    Sink(Box<dyn TraceSink<TraceEvent> + Send>),
}

/// Profiler key for a simulation-event kind.
fn ev_key(ev: &Ev) -> &'static str {
    match ev {
        Ev::Arrival { .. } => "ev.arrival",
        Ev::CpuDone { .. } => "ev.cpu_done",
        Ev::IoDone { .. } => "ev.io_done",
        Ev::MsgArrive { .. } => "ev.msg_arrive",
        Ev::FlushAsync { .. } => "ev.flush_async",
        Ev::Fault(_) => "ev.fault",
        Ev::RetryShip { .. } => "ev.retry_ship",
        Ev::Rerun { .. } => "ev.rerun",
        Ev::PlacementTick => "ev.placement_tick",
        Ev::PlacementCopyDone { .. } => "ev.placement_copy_done",
        Ev::Sample => "ev.sample",
        Ev::EndWarmup => "ev.end_warmup",
    }
}

/// Profiler key for a protocol-trace event kind.
fn event_key(ev: &TraceEvent) -> &'static str {
    match ev {
        TraceEvent::Arrival { .. } => "event.arrival",
        TraceEvent::DeadlockAbort { .. } => "event.deadlock_abort",
        TraceEvent::InvalidationAbort { .. } => "event.invalidation_abort",
        TraceEvent::LocalCommit { .. } => "event.local_commit",
        TraceEvent::AsyncSent { .. } => "event.async_sent",
        TraceEvent::AsyncApplied { .. } => "event.async_applied",
        TraceEvent::AuthStarted { .. } => "event.auth_started",
        TraceEvent::AuthProcessed { .. } => "event.auth_processed",
        TraceEvent::AuthResolved { .. } => "event.auth_resolved",
        TraceEvent::Fault { .. } => "event.fault",
        TraceEvent::CrashAbort { .. } => "event.crash_abort",
        TraceEvent::Rejected { .. } => "event.rejected",
        TraceEvent::Failover { .. } => "event.failover",
        TraceEvent::RetryScheduled { .. } => "event.retry_scheduled",
        TraceEvent::Completion { .. } => "event.completion",
    }
}

#[derive(Debug)]
struct SiteState {
    cpu: MultiServer,
    locks: LockTable,
    /// Class A transactions currently running locally at this site.
    n_txns: usize,
    latest_central: CentralSnapshot,
    async_buffer: Vec<(LockId, u64)>,
    busy_at_warmup: f64,
    /// Master copy of this site's data: last write stamp per item.
    store: FxHashMap<LockId, u64>,
}

/// A delegated authentication in progress at a foreign shard: the shard
/// polls the master sites it homes on behalf of a transaction resident
/// elsewhere, aggregates their replies, and reports one verdict back.
#[derive(Debug)]
struct ForeignAuth {
    /// Site replies still outstanding.
    pending: usize,
    /// A negative reply was received this round.
    negative: bool,
    /// The transaction's resident shard (verdict destination).
    home: u32,
    /// The distinct master sites polled, in first-reference order —
    /// drives the eventual `AuthRelease` / `CommitMsg` fan-out.
    sites: Vec<usize>,
}

/// One shard of the central complex. The classic single-complex system
/// is the `K = 1` special case: one shard replicating every site's
/// partitions, with no cross-shard traffic ever generated.
#[derive(Debug)]
struct CentralState {
    cpu: MultiServer,
    locks: LockTable,
    /// Transactions resident at this shard.
    n_txns: usize,
    busy_at_warmup: f64,
    /// Replica of the data mastered by the sites this shard homes: last
    /// write stamp per item.
    store: FxHashMap<LockId, u64>,
    /// Delegated authentications this shard is running for transactions
    /// resident at other shards (always empty when `K = 1`). Keyed
    /// access only — never iterated, so determinism is unaffected.
    foreign_auth: FxHashMap<u64, ForeignAuth>,
}

/// One point of a sampled state time series (see
/// [`HybridSystem::run_sampled`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplePoint {
    /// Sample time, seconds.
    pub at: f64,
    /// Central CPU queue length (including jobs in service).
    pub q_central: usize,
    /// Transactions resident at the central complex.
    pub n_central: usize,
    /// Mean local CPU queue length across sites.
    pub q_local_mean: f64,
    /// Transactions running locally, summed over sites.
    pub n_local_total: usize,
}

/// Result of the post-drain replica comparison (see
/// [`HybridSystem::run_drained`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConvergenceReport {
    /// Items with at least one committed write at a master site.
    pub items_checked: usize,
    /// Transactions still in flight after the drain (should be 0).
    pub in_flight_txns: usize,
    /// Items whose central-replica stamp differs from the master copy
    /// (should be empty).
    pub divergent: Vec<LockId>,
}

impl ConvergenceReport {
    /// `true` when the drain completed every transaction and the central
    /// replica matches every master copy.
    #[must_use]
    pub fn converged(&self) -> bool {
        self.divergent.is_empty() && self.in_flight_txns == 0
    }
}

/// Phase of an in-flight partition migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MigrationPhase {
    /// Bulk copy on the wire; the source stays master and keeps
    /// absorbing writes (the delta is subsumed at switchover).
    Copying,
    /// Copy landed; new arrivals touching the partition park while the
    /// in-flight population drains, then the home switches atomically.
    Draining,
}

/// One in-flight partition migration.
#[derive(Debug)]
struct ActiveMigration {
    /// Monotonic migration id; stale `PlacementCopyDone` events from an
    /// aborted predecessor carry an older id and are ignored.
    id: u64,
    from: usize,
    to: usize,
    phase: MigrationPhase,
    /// Admissions parked during the drain, re-admitted (with their
    /// original arrival stamps) at switchover or abort:
    /// `(site, spec, arrival, attempt)`.
    parked: Vec<(usize, TxnSpec, SimTime, u32)>,
}

/// Runtime state of the adaptive-placement subsystem. Boxed behind an
/// `Option` on [`HybridSystem`]: `None` (the static policy with no
/// workload drift) leaves every legacy code path untouched, keeping
/// such runs bit-identical to a build without placement at all.
#[derive(Debug)]
struct PlacementRt {
    /// The live partition→home-site map (epoch-versioned).
    map: PlacementMap,
    /// The frozen epoch-0 map, for the counterfactual static class-B
    /// rate in [`PlacementReport`].
    initial: PlacementMap,
    /// Per-partition remote-access counters feeding the planner.
    stats: PlacementStats,
    /// Workload locality drift, when configured.
    drift: Option<DriftModel>,
    /// In-flight migrations by partition.
    active: FxHashMap<u32, ActiveMigration>,
    /// Monotonic migration-id source.
    mig_seq: u64,
    /// Per-partition count of in-flight transactions touching it.
    live_parts: Vec<u32>,
    /// Per-partition count of commit-message write applications still
    /// in flight from the central complex to the partition's home.
    pending_parts: Vec<u32>,
    /// Per-partition count of master-copy keys summed over every site's
    /// store — each migration's bulk size. Kept by
    /// [`HybridSystem::write_master`] and the switchover, so a tick
    /// never rescans the stores.
    items: Vec<u64>,
    /// Scratch list of distinct partitions (reused per admission).
    scratch: Vec<u32>,
    migrations_planned: u64,
    migrations_completed: u64,
    migrations_aborted: u64,
    bytes_moved: u64,
    parked_admissions: u64,
    class_a_admitted: u64,
    class_b_admitted: u64,
    class_b_static: u64,
}

impl PlacementRt {
    /// Collects the distinct partitions of a lock set into the scratch
    /// list (first-touch order; lock sets are ~10 entries, so the
    /// linear dedup beats hashing).
    fn scratch_partitions(&mut self, locks: &[(LockId, LockMode)]) {
        self.scratch.clear();
        let geo = *self.map.geometry();
        for &(l, _) in locks {
            let p = geo.partition_of(l);
            if !self.scratch.contains(&p) {
                self.scratch.push(p);
            }
        }
    }

    /// Same as [`PlacementRt::scratch_partitions`] for a write set.
    fn scratch_writes(&mut self, writes: &[(LockId, u64)]) {
        self.scratch.clear();
        let geo = *self.map.geometry();
        for &(l, _) in writes {
            let p = geo.partition_of(l);
            if !self.scratch.contains(&p) {
                self.scratch.push(p);
            }
        }
    }
}

/// The simulator. Construct with [`HybridSystem::new`], execute with
/// [`HybridSystem::run`].
///
/// # Examples
///
/// ```
/// use hls_core::{HybridSystem, RouterSpec, SystemConfig};
///
/// let cfg = SystemConfig::paper_default()
///     .with_total_rate(10.0)
///     .with_horizon(60.0, 10.0);
/// let metrics = HybridSystem::new(cfg, RouterSpec::QueueLength)
///     .expect("valid config")
///     .run();
/// assert!(metrics.completions > 0);
/// ```
#[derive(Debug)]
pub struct HybridSystem {
    cfg: SystemConfig,
    queue: EventQueue<Ev>,
    net: StarNetwork,
    sites: Vec<SiteState>,
    /// The central complex, as `K >= 1` shards. Index 0 is the whole
    /// complex in the classic unsharded configuration.
    centrals: Vec<CentralState>,
    /// Site → home-shard map (the hierarchical router's first hop).
    shard_map: ShardMap,
    /// Number of central shards (`shard_map.n_shards()`, cached).
    n_shards: usize,
    /// In-flight transactions, stored in a generational slab (dense
    /// slots; ids resolve through one Fx-hashed index map).
    txns: TxnTable,
    /// In-flight CPU jobs: work item plus the pending `CpuDone`
    /// cancellation key, keyed by self-describing slot-encoded ids.
    jobs: JobSlab<JobKind, EventKey>,
    router: FailureAwareRouter,
    generator: TxnGenerator,
    arrivals: Vec<ArrivalProcess>,
    site_rngs: Vec<SimRng>,
    route_rng: SimRng,
    next_txn: u64,
    next_write: u64,
    /// Per-kind message counters, indexed by [`Msg::kind_index`].
    msg_counts: MsgCounts,
    metrics: MetricsCollector,
    end: SimTime,
    trace: Option<TraceTarget>,
    /// Gated self-profiler (host wall-clock only; never reads or
    /// perturbs simulated time).
    profiler: Profiler,
    samples: Option<(f64, Vec<SamplePoint>)>,
    /// Per-site DBMS availability (faults only; all `true` otherwise).
    site_up: Vec<bool>,
    /// Central-complex availability.
    central_up: bool,
    /// Number of currently open fault windows (marks `during_outage`).
    active_faults: usize,
    /// Simulation events processed so far (see
    /// [`HybridSystem::run_counted`]).
    events_processed: u64,
    /// Free lists recycling the per-event vector payloads (auth lock
    /// lists, write sets, lock-id lists, site lists, victim lists) so
    /// the steady-state event loop stays off the allocator.
    pool_locks: VecPool<(LockId, LockMode)>,
    pool_writes: VecPool<(LockId, u64)>,
    pool_lockids: VecPool<LockId>,
    pool_sites: VecPool<usize>,
    pool_txnids: VecPool<u64>,
    /// Store-and-forward buffers, one per site link, for messages sent
    /// while the link is down; flushed in order on link recovery.
    deferred_links: Vec<VecDeque<DeferredSend>>,
    /// Messages that arrived at a crashed site; replayed in arrival order
    /// on recovery.
    deferred_site: Vec<VecDeque<(Msg, Option<CentralSnapshot>)>>,
    /// Messages that arrived at the crashed central complex (a central
    /// crash takes down every shard), with their destination shard.
    deferred_central: VecDeque<(NodeId, Msg, Option<CentralSnapshot>)>,
    /// Asynchronous-update and delegated-commit applications interrupted
    /// by a central crash; resubmitted at their shard on recovery (their
    /// messages were already consumed).
    central_replay: Vec<(usize, JobKind)>,
    /// Cross-shard lock requests denied under the no-wait rule.
    cross_denials: u64,
    /// Cross-shard lock requests granted by a foreign shard.
    remote_grant_count: u64,
    /// Peak simultaneous in-flight transactions (scaling report).
    peak_txns: usize,
    /// When set, every lock table's `check_invariants` runs after each
    /// event and the placement item counts are checked against a rescan
    /// (see [`HybridSystem::run_validated`]). Test-only; off in
    /// measurement runs.
    validate: bool,
    /// Per-site CPU speed relative to `params.local_mips` (all 1.0 on
    /// homogeneous hardware); reported to routers via [`Observed`].
    site_speed: Vec<f64>,
    /// Per-central-shard CPU speed relative to `params.central_mips`.
    central_speed: Vec<f64>,
    /// Adaptive-placement runtime; `None` under the static policy with
    /// no workload drift (the legacy configuration).
    placement: Option<Box<PlacementRt>>,
}

impl HybridSystem {
    /// Builds a simulator from a configuration and a routing policy.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the violated constraint for an
    /// inconsistent configuration.
    pub fn new(cfg: SystemConfig, router: RouterSpec) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let n = cfg.params.n_sites;
        let streams = RngStreams::new(cfg.seed);
        let generator = TxnGenerator::new(cfg.workload_spec())?;
        let arrivals: Vec<ArrivalProcess> = match &cfg.site_profiles {
            Some(profiles) => profiles.iter().cloned().map(ArrivalProcess::new).collect(),
            None => (0..n)
                .map(|_| ArrivalProcess::new(cfg.arrival_profile.clone()))
                .collect(),
        };
        let mut sites: Vec<SiteState> = (0..n)
            .map(|i| SiteState {
                cpu: MultiServer::new(1, cfg.site_mips_of(i)),
                locks: LockTable::new(),
                n_txns: 0,
                latest_central: CentralSnapshot::default(),
                async_buffer: Vec::new(),
                busy_at_warmup: 0.0,
                store: FxHashMap::default(),
            })
            .collect();
        let shard_map = cfg
            .shards
            .resolve(n)
            .expect("shard spec validated with the config");
        let n_shards = shard_map.n_shards();
        let mut centrals: Vec<CentralState> = (0..n_shards)
            .map(|k| CentralState {
                cpu: MultiServer::new(cfg.params.central_servers, cfg.central_mips_of(k)),
                locks: LockTable::new(),
                n_txns: 0,
                busy_at_warmup: 0.0,
                store: FxHashMap::default(),
                foreign_auth: FxHashMap::default(),
            })
            .collect();
        if cfg.obs.profile {
            for s in &mut sites {
                s.locks.set_profiling(true);
            }
            for c in &mut centrals {
                c.locks.set_profiling(true);
            }
        }
        let warmup = SimTime::from_secs(cfg.warmup);
        let mut metrics = MetricsCollector::new(warmup);
        if cfg.obs.histograms {
            metrics.enable_histograms(n);
        }
        let placement = if cfg.placement_active() {
            let geo = PartitionGeometry::new(
                n,
                cfg.params.lockspace as u32,
                cfg.placement.parts_per_site,
            )?;
            let map = PlacementMap::new_static(geo);
            let drift = match cfg.drift {
                Some(spec) => Some(DriftModel::new(spec, cfg.workload_spec())?),
                None => None,
            };
            Some(Box::new(PlacementRt {
                initial: map.clone(),
                stats: PlacementStats::new(&geo),
                map,
                drift,
                active: FxHashMap::default(),
                mig_seq: 0,
                live_parts: vec![0; geo.n_partitions()],
                pending_parts: vec![0; geo.n_partitions()],
                items: vec![0; geo.n_partitions()],
                scratch: Vec::new(),
                migrations_planned: 0,
                migrations_completed: 0,
                migrations_aborted: 0,
                bytes_moved: 0,
                parked_admissions: 0,
                class_a_admitted: 0,
                class_b_admitted: 0,
                class_b_static: 0,
            }))
        } else {
            None
        };
        let end = SimTime::from_secs(cfg.sim_time);
        let mut net =
            StarNetwork::new_sharded(n, n_shards, SimDuration::from_secs(cfg.params.comm_delay));
        if n_shards > 1 {
            net.set_home_shards((0..n).map(|i| shard_map.home_of(i)).collect());
        }
        // Heterogeneous topologies override each site's link delay; the
        // uniform star skips the call entirely, so its delivery-time
        // arithmetic is untouched (the homogeneity contract).
        let site_delays = cfg
            .site_link_delays()
            .unwrap_or_else(|| vec![cfg.params.comm_delay; n]);
        if cfg.islands.is_some() || cfg.link_delays.is_some() {
            net.set_site_delays(&site_delays);
        }
        // Relative CPU speeds fed to the routers' utilization
        // estimators; exactly 1.0 on nominal hardware.
        let site_speed: Vec<f64> = (0..n)
            .map(|i| cfg.site_mips_of(i) / cfg.params.local_mips)
            .collect();
        let central_speed: Vec<f64> = (0..n_shards)
            .map(|k| cfg.central_mips_of(k) / cfg.params.central_mips)
            .collect();
        Ok(HybridSystem {
            router: FailureAwareRouter::new(router.build_topo(n, &site_delays), cfg.failure_aware),
            site_speed,
            central_speed,
            generator,
            arrivals,
            site_rngs: (0..n).map(|i| streams.stream(i as u64)).collect(),
            route_rng: streams.stream(1_000_003),
            queue: EventQueue::new(),
            net,
            sites,
            centrals,
            shard_map,
            n_shards,
            txns: TxnTable::new(),
            jobs: JobSlab::new(),
            next_txn: 1,
            next_write: 1,
            msg_counts: MsgCounts::new(),
            metrics,
            end,
            trace: None,
            profiler: Profiler::new(cfg.obs.profile),
            samples: None,
            site_up: vec![true; n],
            central_up: true,
            active_faults: 0,
            events_processed: 0,
            pool_locks: VecPool::new(),
            pool_writes: VecPool::new(),
            pool_lockids: VecPool::new(),
            pool_sites: VecPool::new(),
            pool_txnids: VecPool::new(),
            deferred_links: (0..n).map(|_| VecDeque::new()).collect(),
            deferred_site: (0..n).map(|_| VecDeque::new()).collect(),
            deferred_central: VecDeque::new(),
            central_replay: Vec::new(),
            cross_denials: 0,
            remote_grant_count: 0,
            peak_txns: 0,
            validate: false,
            placement,
            cfg,
        })
    }

    /// Enables protocol-event tracing (see [`Trace`]); use
    /// [`HybridSystem::run_traced`] to retrieve the trace.
    pub fn enable_trace(&mut self) {
        self.trace = Some(TraceTarget::Memory(Trace::new()));
    }

    /// Runs with tracing enabled, returning metrics and the protocol trace.
    #[must_use]
    pub fn run_traced(mut self) -> (RunMetrics, Trace) {
        self.enable_trace();
        let metrics = self.run_internal();
        let trace = match self.trace.take() {
            Some(TraceTarget::Memory(t)) => t,
            _ => Trace::new(),
        };
        (metrics, trace)
    }

    /// Runs with protocol events streamed to `sink` instead of being
    /// buffered in memory (e.g. a [`hls_obs::JsonlSink`] writing to a
    /// file). Returns the metrics and the sink; call the sink's
    /// [`TraceSink::flush`] to surface any deferred I/O error.
    ///
    /// Event content and order are identical to [`HybridSystem::run_traced`],
    /// and the metrics are bit-identical to an untraced [`HybridSystem::run`].
    #[must_use]
    pub fn run_with_sink(
        mut self,
        sink: Box<dyn TraceSink<TraceEvent> + Send>,
    ) -> (RunMetrics, Box<dyn TraceSink<TraceEvent> + Send>) {
        self.trace = Some(TraceTarget::Sink(sink));
        let metrics = self.run_internal();
        let sink = match self.trace.take() {
            Some(TraceTarget::Sink(s)) => s,
            _ => unreachable!("sink target replaced during run"),
        };
        (metrics, sink)
    }

    fn trace(&mut self, at: SimTime, f: impl FnOnce() -> TraceEvent) {
        if self.trace.is_none() && !self.profiler.enabled() {
            return;
        }
        let ev = f();
        self.profiler.count(event_key(&ev));
        match self.trace.as_mut() {
            Some(TraceTarget::Memory(t)) => t.record(at, ev),
            Some(TraceTarget::Sink(s)) => s.record(at.as_secs(), &ev),
            None => {}
        }
    }

    /// Runs the simulation to the configured horizon and returns the
    /// metrics measured after warm-up.
    #[must_use]
    pub fn run(mut self) -> RunMetrics {
        self.run_internal()
    }

    /// Like [`HybridSystem::run`], but also returns the number of events
    /// the main loop processed — the denominator of perfbench's
    /// `sim.ns_per_event`. The metrics are identical to
    /// [`HybridSystem::run`].
    #[must_use]
    pub fn run_counted(mut self) -> (RunMetrics, u64) {
        let metrics = self.run_internal();
        (metrics, self.events_processed)
    }

    /// Runs while sampling system state every `interval` seconds,
    /// returning the metrics and the time series — used to visualize
    /// transient behaviour such as routing oscillations on stale state.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is not positive and finite.
    #[must_use]
    pub fn run_sampled(mut self, interval: f64) -> (RunMetrics, Vec<SamplePoint>) {
        assert!(
            interval > 0.0 && interval.is_finite(),
            "sample interval must be positive and finite, got {interval}"
        );
        self.samples = Some((interval, Vec::new()));
        self.queue
            .schedule(SimTime::from_secs(interval), Ev::Sample);
        let metrics = self.run_internal();
        let samples = self.samples.take().map(|(_, v)| v).unwrap_or_default();
        (metrics, samples)
    }

    /// Runs to the horizon with **validation**: after every simulation
    /// event, each site's and the central complex's
    /// [`hls_lockmgr::LockTable::check_invariants`] is executed, so any
    /// corruption of the holder-edge counts, the owner and entry slots,
    /// or the arena queues panics at the event that introduced it rather than
    /// surfacing as skewed metrics. Under adaptive placement, the
    /// maintained per-partition item counts are also compared with a
    /// full rescan of the site stores at every controller tick and at
    /// the end of the run. Orders of magnitude slower than
    /// [`HybridSystem::run`]; meant for tests (notably the fault-schedule
    /// equivalence run), not measurement.
    ///
    /// # Panics
    ///
    /// Panics at the first lock-table invariant or item count that
    /// fails its check.
    #[must_use]
    pub fn run_validated(mut self) -> RunMetrics {
        self.validate = true;
        self.run_internal()
    }

    /// Asserts the internal invariants of every lock table in the
    /// system — all sites plus the central complex.
    ///
    /// # Panics
    ///
    /// Panics if any table's indexes disagree with its entries.
    pub fn check_lock_invariants(&self) {
        for site in &self.sites {
            site.locks.check_invariants();
        }
        for central in &self.centrals {
            central.locks.check_invariants();
        }
    }

    /// Runs to the horizon, then **drains**: arrivals stop but every
    /// in-flight transaction and protocol message is processed to
    /// completion, after which the replica stores are compared.
    ///
    /// Returns the metrics and a [`ConvergenceReport`] asserting that the
    /// central replica converged to the master copies — the end-to-end
    /// correctness property of the asynchronous coherency protocol. Note
    /// that drained metrics include post-horizon completions; use
    /// [`HybridSystem::run`] for measurement runs.
    #[must_use]
    pub fn run_drained(mut self) -> (RunMetrics, ConvergenceReport) {
        let metrics = self.run_internal();
        // Process everything left in the pipeline.
        while let Some((now, ev)) = self.queue.pop() {
            self.events_processed += 1;
            self.handle(now, ev);
        }
        let report = self.convergence_report();
        (metrics, report)
    }

    /// Compares the central replica against the master copies item by
    /// item. Only meaningful once the system is fully drained.
    fn convergence_report(&self) -> ConvergenceReport {
        let mut items_checked = 0;
        let mut divergent = Vec::new();
        for (site, state) in self.sites.iter().enumerate() {
            let replica = &self.centrals[self.shard_map.home_of(site) as usize].store;
            for (&item, &stamp) in &state.store {
                debug_assert_eq!(self.master_site(item), site);
                items_checked += 1;
                if replica.get(&item) != Some(&stamp) {
                    divergent.push(item);
                }
            }
        }
        // Items written only centrally must exist at their master too.
        for central in &self.centrals {
            for (&item, &stamp) in &central.store {
                let site = self.master_site(item);
                if self.sites[site].store.get(&item) != Some(&stamp) && !divergent.contains(&item) {
                    divergent.push(item);
                }
            }
        }
        divergent.sort_unstable();
        divergent.dedup();
        ConvergenceReport {
            items_checked,
            in_flight_txns: self.txns.len(),
            divergent,
        }
    }

    fn run_internal(&mut self) -> RunMetrics {
        let total = Timer::start_if(self.profiler.enabled());
        for site in 0..self.cfg.params.n_sites {
            let first = {
                let rng = &mut self.site_rngs[site];
                self.arrivals[site].next_after(rng, SimTime::ZERO)
            };
            self.queue.schedule(first, Ev::Arrival { site });
        }
        self.queue
            .schedule(SimTime::from_secs(self.cfg.warmup), Ev::EndWarmup);
        // The controller only wakes under an adaptive policy; a
        // drift-only runtime (static policy) never migrates, it just
        // classifies and counts.
        if self.placement.is_some() && self.cfg.placement.is_adaptive() {
            self.queue.schedule(
                SimTime::from_secs(self.cfg.placement.interval),
                Ev::PlacementTick,
            );
        }
        // Fault transitions are ordinary simulation events. An empty
        // schedule adds nothing to the queue, keeping the run bit-identical
        // to a fault-free build. (Indexed, not iterated: `FaultEvent` is
        // `Copy`, so this schedules without cloning the whole schedule
        // per replication.)
        for i in 0..self.cfg.fault_schedule.events().len() {
            let fault = self.cfg.fault_schedule.events()[i];
            self.queue
                .schedule(SimTime::from_secs(fault.at), Ev::Fault(fault.kind));
        }

        while let Some(t) = self.queue.peek_time() {
            if t >= self.end {
                break;
            }
            let (now, ev) = self.queue.pop().expect("peeked event");
            self.events_processed += 1;
            self.handle(now, ev);
            if self.validate {
                self.check_lock_invariants();
            }
        }
        if self.validate {
            self.check_placement_items();
        }
        self.profiler.stop(TOTAL_KEY, total);
        self.finalize()
    }

    // ------------------------------------------------------------------
    // Event dispatch
    // ------------------------------------------------------------------

    fn handle(&mut self, now: SimTime, ev: Ev) {
        let timer = Timer::start_if(self.profiler.enabled());
        let key = ev_key(&ev);
        self.dispatch(now, ev);
        self.profiler.stop(key, timer);
    }

    fn dispatch(&mut self, now: SimTime, ev: Ev) {
        match ev {
            Ev::Arrival { site } => self.on_arrival(now, site),
            Ev::CpuDone { loc, job } => self.on_cpu_done(now, loc, job),
            Ev::IoDone { txn } => self.on_io_done(now, txn),
            Ev::MsgArrive { to, msg, snap } => self.on_msg(now, to, msg, snap),
            Ev::FlushAsync { site } => self.flush_async(now, site),
            Ev::Fault(kind) => self.on_fault(now, kind),
            Ev::RetryShip {
                spec,
                site,
                arrival,
                attempt,
            } => self.admit(now, site, spec, arrival, attempt),
            Ev::Rerun { txn } => {
                // The victim may have been killed by a crash while backing
                // off.
                if self.txns.contains(txn) {
                    self.start_call_cpu(now, txn);
                }
            }
            Ev::PlacementTick => self.on_placement_tick(now),
            Ev::PlacementCopyDone { partition, mig } => {
                self.on_placement_copy_done(now, partition, mig);
            }
            Ev::Sample => self.on_sample(now),
            Ev::EndWarmup => self.on_end_warmup(now),
        }
    }

    fn on_sample(&mut self, now: SimTime) {
        let Some((interval, samples)) = self.samples.as_mut() else {
            return;
        };
        let q_local_sum: usize = self.sites.iter().map(|s| s.cpu.queue_len()).sum();
        let n_local_total: usize = self.sites.iter().map(|s| s.n_txns).sum();
        samples.push(SamplePoint {
            at: now.as_secs(),
            q_central: self.centrals.iter().map(|c| c.cpu.queue_len()).sum(),
            n_central: self.centrals.iter().map(|c| c.n_txns).sum(),
            q_local_mean: q_local_sum as f64 / self.sites.len() as f64,
            n_local_total,
        });
        let next = now + SimDuration::from_secs(*interval);
        if next < self.end {
            self.queue.schedule(next, Ev::Sample);
        }
    }

    fn on_end_warmup(&mut self, now: SimTime) {
        for s in &mut self.sites {
            s.busy_at_warmup = s.cpu.busy_server_seconds(now);
        }
        for c in &mut self.centrals {
            c.busy_at_warmup = c.cpu.busy_server_seconds(now);
        }
    }

    fn on_arrival(&mut self, now: SimTime, site: usize) {
        // Schedule the next arrival at this site.
        let next = {
            let rng = &mut self.site_rngs[site];
            self.arrivals[site].next_after(rng, now)
        };
        if next < self.end {
            self.queue.schedule(next, Ev::Arrival { site });
        }

        // Under workload drift the placement runtime's model draws the
        // transaction instead of the stationary generator.
        let spec = {
            let rng = &mut self.site_rngs[site];
            match self.placement.as_ref().and_then(|p| p.drift.as_ref()) {
                Some(model) => model.generate(rng, site, now.as_secs()),
                None => self.generator.generate(rng, site),
            }
        };
        self.metrics.on_arrival(now);
        self.admit(now, site, spec, now, 0);
    }

    /// Admits a (possibly retried) arrival: decides route / retry / reject
    /// under the current component availability and dispatches it. With
    /// everything up this reduces exactly to the fault-free path.
    fn admit(
        &mut self,
        now: SimTime,
        site: usize,
        mut spec: TxnSpec,
        arrival: SimTime,
        attempt: u32,
    ) {
        if let Some(p) = self.placement.as_mut() {
            // Park admissions touching a draining partition: the
            // switchover needs the in-flight population on the partition
            // to reach zero, and these would keep it alive. They are
            // re-admitted (original arrival stamp, so the parked delay
            // shows up in their response time) when the migration
            // switches or aborts.
            let geo = *p.map.geometry();
            let draining = spec
                .locks
                .iter()
                .map(|&(l, _)| geo.partition_of(l))
                .find(|part| {
                    matches!(
                        p.active.get(part),
                        Some(m) if m.phase == MigrationPhase::Draining
                    )
                });
            if let Some(part) = draining {
                p.parked_admissions += 1;
                p.active
                    .get_mut(&part)
                    .expect("draining partition has a migration")
                    .parked
                    .push((site, spec, arrival, attempt));
                return;
            }
            // Online A↔B reclassification: the class follows the *live*
            // placement map, so a migrated hot partition turns its
            // followers' remote transactions back into class A.
            spec.class = if spec.locks.iter().all(|&(l, _)| p.map.master_of(l) == site) {
                TxnClass::A
            } else {
                TxnClass::B
            };
        }
        let local_ok = self.site_up[site];
        let central_ok = self.central_up && self.net.link_is_up(site);
        let remote_mode = self.cfg.class_b_mode == ClassBMode::RemoteCalls;

        let route = if spec.class == TxnClass::B {
            let ok = central_ok && (!remote_mode || local_ok);
            let timer = Timer::start_if(self.profiler.enabled());
            let decision = self
                .router
                .decide_class_b(ok, attempt < self.cfg.fault_max_retries);
            self.profiler.stop("router.decide_b", timer);
            match decision {
                FaultAwareDecision::Run(route) => route,
                FaultAwareDecision::Retry => {
                    let next_attempt = attempt + 1;
                    self.metrics.on_availability(now, |a| a.retries += 1);
                    self.trace(now, || TraceEvent::RetryScheduled {
                        site,
                        attempt: next_attempt,
                    });
                    let at = now + SimDuration::from_secs(self.cfg.fault_retry_backoff);
                    self.queue.schedule(
                        at,
                        Ev::RetryShip {
                            spec,
                            site,
                            arrival,
                            attempt: next_attempt,
                        },
                    );
                    return;
                }
                FaultAwareDecision::Reject => {
                    self.metrics
                        .on_availability(now, |a| a.rejected_class_b += 1);
                    self.trace(now, || TraceEvent::Rejected {
                        site,
                        class: TxnClass::B,
                    });
                    return;
                }
            }
        } else {
            let timer = Timer::start_if(self.profiler.enabled());
            let decision = {
                let obs = self.observe(site);
                let mut ctx = RouteCtx {
                    now,
                    site,
                    obs,
                    params: &self.cfg.params,
                    rng: &mut self.route_rng,
                };
                self.router.decide_class_a(&mut ctx, local_ok, central_ok)
            };
            self.profiler.stop("router.decide_a", timer);
            match decision {
                FaultAwareDecision::Run(route) => {
                    self.metrics.on_route_class_a(now, route == Route::Central);
                    route
                }
                FaultAwareDecision::Retry => unreachable!("class A never retries"),
                FaultAwareDecision::Reject => {
                    self.metrics
                        .on_availability(now, |a| a.rejected_class_a += 1);
                    self.trace(now, || TraceEvent::Rejected {
                        site,
                        class: TxnClass::A,
                    });
                    return;
                }
            }
        };

        // Failure-aware overrides of the configured strategy.
        let failover = self.cfg.failure_aware && (!local_ok || !central_ok);
        if failover {
            self.metrics.on_availability(now, |a| {
                if local_ok {
                    a.failover_local += 1;
                } else {
                    a.failover_shipped += 1;
                }
            });
        }

        let id = self.next_txn;
        self.next_txn += 1;
        let class = spec.class;
        if let Some(p) = self.placement.as_mut() {
            let measuring = now >= SimTime::from_secs(self.cfg.warmup);
            // Remote-access statistics for the planner and the live
            // in-flight counters gating switchover.
            p.scratch_partitions(&spec.locks);
            let geo = *p.map.geometry();
            for i in 0..p.scratch.len() {
                let part = p.scratch[i];
                p.live_parts[part as usize] += 1;
            }
            for &(l, _) in &spec.locks {
                p.stats.record(geo.partition_of(l), site);
            }
            if measuring {
                match class {
                    TxnClass::A => p.class_a_admitted += 1,
                    TxnClass::B => p.class_b_admitted += 1,
                }
                // Counterfactual class under the frozen epoch-0 map.
                if !spec
                    .locks
                    .iter()
                    .all(|&(l, _)| p.initial.master_of(l) == site)
                {
                    p.class_b_static += 1;
                }
            }
        }
        let mut txn = Txn::new(id, spec, route, arrival);
        txn.during_outage = self.active_faults > 0;
        if class == TxnClass::B && remote_mode {
            // The transaction stays at the origin: it starts with its setup
            // I/O rather than terminal-message forwarding.
            txn.remote_calls = true;
            txn.phase = Phase::SetupIo;
        }
        self.txns.insert(id, txn);
        if self.txns.len() > self.peak_txns {
            self.peak_txns = self.txns.len();
        }
        self.trace(now, || TraceEvent::Arrival {
            txn: id,
            site,
            class,
            route,
        });
        if failover {
            self.trace(now, || TraceEvent::Failover { txn: id, route });
        }

        match route {
            Route::Local => {
                self.sites[site].n_txns += 1;
                self.schedule_io(now, id, self.cfg.params.setup_io);
            }
            Route::Central if self.txns[id].remote_calls => {
                self.schedule_io(now, id, self.cfg.params.setup_io);
            }
            Route::Central if !local_ok => {
                // The site's DBMS is down but its terminal front-end still
                // forwards: ship without the origin CPU burst.
                self.txns.get_mut(id).expect("txn").phase = Phase::InTransit;
                let dest = self.shard_node(site);
                self.send(
                    now,
                    NodeId::local(site as u32),
                    dest,
                    Msg::ShipTxn { txn: id },
                );
            }
            Route::Central => {
                let instr = self.cfg.params.ship_origin_instr + self.cfg.params.ship_msg_instr;
                self.submit_cpu(now, Locale::Site(site), JobKind::TxnPhase(id), instr);
            }
        }
    }

    /// What a router at `site` can observe right now.
    fn observe(&self, site: usize) -> Observed {
        let s = &self.sites[site];
        let snap = if self.cfg.instantaneous_state {
            self.central_snapshot(self.shard_map.home_of(site) as usize)
        } else {
            s.latest_central
        };
        Observed {
            q_local: s.cpu.queue_len() as f64,
            q_central: snap.q_cpu as f64,
            n_local: s.n_txns as f64,
            n_central: snap.n_txns as f64,
            locks_local: s.locks.grants_count() as f64,
            locks_central: snap.n_locks as f64,
            local_speed: self.site_speed[site],
            central_speed: self.central_speed[self.shard_map.home_of(site) as usize],
        }
    }

    /// State snapshot of central shard `k`, piggybacked on its messages
    /// to the sites it homes.
    fn central_snapshot(&self, k: usize) -> CentralSnapshot {
        CentralSnapshot {
            q_cpu: self.centrals[k].cpu.queue_len(),
            n_txns: self.centrals[k].n_txns,
            n_locks: self.centrals[k].locks.grants_count(),
        }
    }

    /// The central shard homing `site` — the only central node its link
    /// reaches. Shard 0 (== [`NodeId::CENTRAL`]) for every site when the
    /// complex is unsharded, so `K = 1` traffic is byte-identical to the
    /// classic system.
    fn shard_node(&self, site: usize) -> NodeId {
        NodeId::shard(self.shard_map.home_of(site))
    }

    /// The shard a central transaction resides at: its origin's home.
    fn home_shard_of(&self, id: u64) -> usize {
        self.shard_map.home_of(self.txns[id].spec.origin) as usize
    }

    // ------------------------------------------------------------------
    // CPU plumbing
    // ------------------------------------------------------------------

    fn cpu_of(&mut self, loc: Locale) -> &mut MultiServer {
        match loc {
            Locale::Site(i) => &mut self.sites[i].cpu,
            Locale::Central(k) => &mut self.centrals[k].cpu,
        }
    }

    fn submit_cpu(&mut self, now: SimTime, loc: Locale, kind: JobKind, instr: f64) {
        let job_id = self.jobs.insert(kind);
        if let Some(start) = self.cpu_of(loc).submit(now, Job::new(job_id, instr)) {
            let key = self.queue.schedule_keyed(
                start.done_at,
                Ev::CpuDone {
                    loc,
                    job: start.job_id,
                },
            );
            self.jobs.set_key(start.job_id, key);
        }
    }

    fn on_cpu_done(&mut self, now: SimTime, loc: Locale, job_id: u64) {
        // The firing consumed this completion's cancellation key.
        let _ = self.jobs.take_key(job_id);
        let (job, next) = self.cpu_of(loc).complete(now, job_id);
        if let Some(start) = next {
            let key = self.queue.schedule_keyed(
                start.done_at,
                Ev::CpuDone {
                    loc,
                    job: start.job_id,
                },
            );
            self.jobs.set_key(start.job_id, key);
        }
        let kind = self.jobs.remove(job.id).expect("unknown CPU job");
        match kind {
            JobKind::TxnPhase(txn) => self.txn_cpu_done(now, txn, loc),
            JobKind::AuthProcess { txn, site, locks } => {
                self.finish_auth_process(now, txn, site, &locks);
                self.pool_locks.put(locks);
            }
            JobKind::ApplyAsync { from, writes } => {
                let Locale::Central(j) = loc else {
                    unreachable!("ApplyAsync at a local site")
                };
                self.finish_apply_async(now, j, from, &writes);
                self.pool_writes.put(writes);
            }
            JobKind::ApplyCommit { txn, site, writes } => {
                self.finish_apply_commit(now, txn, site, &writes);
                self.pool_writes.put(writes);
            }
            JobKind::ShardLock {
                txn,
                lock,
                mode,
                home,
            } => {
                let Locale::Central(j) = loc else {
                    unreachable!("ShardLock at a local site")
                };
                self.finish_shard_lock(now, j, txn, lock, mode, home);
            }
            JobKind::ShardAuthFanout { txn, home, locks } => {
                let Locale::Central(j) = loc else {
                    unreachable!("ShardAuthFanout at a local site")
                };
                self.finish_shard_auth_fanout(now, j, txn, home, &locks);
                self.pool_locks.put(locks);
            }
            JobKind::ShardCommitApply { txn, locks, writes } => {
                let Locale::Central(j) = loc else {
                    unreachable!("ShardCommitApply at a local site")
                };
                self.finish_shard_commit_apply(now, j, txn, &locks, &writes);
                self.pool_locks.put(locks);
                self.pool_writes.put(writes);
            }
        }
    }

    fn schedule_io(&mut self, now: SimTime, txn: u64, secs: f64) {
        self.queue
            .schedule(now + SimDuration::from_secs(secs), Ev::IoDone { txn });
    }

    // ------------------------------------------------------------------
    // Transaction lifecycle
    // ------------------------------------------------------------------

    fn locale_of(&self, txn: &Txn) -> Locale {
        match txn.route {
            Route::Local => Locale::Site(txn.spec.origin),
            Route::Central => Locale::Central(self.shard_map.home_of(txn.spec.origin) as usize),
        }
    }

    fn txn_cpu_done(&mut self, now: SimTime, id: u64, loc: Locale) {
        // A crash may have killed the transaction while this burst was on a
        // surviving CPU; the work is wasted.
        if !self.txns.contains(id) {
            return;
        }
        let phase = self.txns[id].phase;
        match phase {
            Phase::OriginMsgCpu => {
                let origin = self.txns[id].spec.origin;
                debug_assert_eq!(loc, Locale::Site(origin));
                let remote = self.txns[id].remote_calls;
                self.txns.get_mut(id).expect("txn").phase = Phase::InTransit;
                let msg = if remote {
                    Msg::RemoteCallReq { txn: id }
                } else {
                    Msg::ShipTxn { txn: id }
                };
                let dest = self.shard_node(origin);
                self.send(now, NodeId::local(origin as u32), dest, msg);
            }
            Phase::InitCpu => {
                if self.txns[id].remote_calls && !self.txns[id].is_rerun() {
                    self.origin_issue_call(now, id);
                } else {
                    self.start_call_cpu(now, id);
                }
            }
            Phase::CallCpu => self.request_current_lock(now, id),
            Phase::CommitCpu => match self.txns[id].route {
                Route::Local => self.finish_local_commit(now, id),
                Route::Central => self.send_auth_requests(now, id),
            },
            other => unreachable!("CPU completion in non-CPU phase {other:?}"),
        }
    }

    fn on_io_done(&mut self, now: SimTime, id: u64) {
        // Crash victims' pending I/O completions fire harmlessly.
        let Some(txn) = self.txns.get_mut(id) else {
            return;
        };
        match txn.phase {
            Phase::SetupIo => {
                txn.phase = Phase::InitCpu;
                let p = &self.cfg.params;
                let (loc, instr) = match txn.route {
                    Route::Local => (
                        Locale::Site(txn.spec.origin),
                        p.init_instr + p.io_overhead_instr,
                    ),
                    // Remote-call transactions initialize at their origin.
                    Route::Central if txn.remote_calls => (
                        Locale::Site(txn.spec.origin),
                        p.init_instr + p.io_overhead_instr,
                    ),
                    Route::Central => (
                        Locale::Central(self.shard_map.home_of(txn.spec.origin) as usize),
                        (p.init_instr - p.ship_origin_instr) + p.io_overhead_instr,
                    ),
                };
                self.submit_cpu(now, loc, JobKind::TxnPhase(id), instr);
            }
            Phase::CallIo => self.advance_call(now, id),
            other => unreachable!("I/O completion in non-I/O phase {other:?}"),
        }
    }

    /// Remote-call mode: the origin spends per-call message handling, then
    /// sends the next remote function call to the central complex.
    fn origin_issue_call(&mut self, now: SimTime, id: u64) {
        let origin = self.txns[id].spec.origin;
        self.txns.get_mut(id).expect("txn").phase = Phase::OriginMsgCpu;
        self.submit_cpu(
            now,
            Locale::Site(origin),
            JobKind::TxnPhase(id),
            self.cfg.params.ship_msg_instr,
        );
    }

    /// Submits the CPU burst of the current database call.
    fn start_call_cpu(&mut self, now: SimTime, id: u64) {
        let (is_rerun, loc) = {
            let txn = &self.txns[id];
            (txn.is_rerun(), self.locale_of(txn))
        };
        self.txns.get_mut(id).expect("txn").phase = Phase::CallCpu;
        let p = &self.cfg.params;
        let instr = if is_rerun {
            p.db_call_instr
        } else {
            p.db_call_instr + p.io_overhead_instr
        };
        self.submit_cpu(now, loc, JobKind::TxnPhase(id), instr);
    }

    fn request_current_lock(&mut self, now: SimTime, id: u64) {
        let (lock, mode, loc) = {
            let txn = &self.txns[id];
            let (lock, mode) = txn.spec.locks[txn.call_idx];
            (lock, mode, self.locale_of(txn))
        };
        if let Locale::Central(k) = loc {
            let j = self.shard_map.home_of_lock(self.generator.spec(), lock) as usize;
            if j != k {
                // The lock is owned by a foreign shard: phase one of the
                // cross-shard exchange. The requester blocks for the round
                // trip; the owner answers grant-or-deny (no-wait), so no
                // deadlock cycle can span shards.
                let txn = self.txns.get_mut(id).expect("txn");
                txn.phase = Phase::LockWait;
                txn.wait_since = now;
                self.send(
                    now,
                    NodeId::shard(k as u32),
                    NodeId::shard(j as u32),
                    Msg::ShardLockReq {
                        txn: id,
                        lock,
                        mode,
                        home: k as u32,
                    },
                );
                return;
            }
        }
        let owner = OwnerId(id);
        let table = match loc {
            Locale::Site(i) => &mut self.sites[i].locks,
            Locale::Central(k) => &mut self.centrals[k].locks,
        };
        match table.request(owner, lock, mode) {
            RequestOutcome::Granted | RequestOutcome::AlreadyHeld => {
                self.after_lock_granted(now, id);
            }
            RequestOutcome::Queued => {
                // Mark the requester as waiting first: breaking a cycle may
                // immediately grant its lock via the victim's releases.
                let txn = self.txns.get_mut(id).expect("txn");
                txn.phase = Phase::LockWait;
                txn.wait_since = now;
                self.break_deadlocks(now, id, loc);
            }
        }
    }

    /// Detects and breaks deadlock cycles created by `requester`'s wait,
    /// aborting victims per the configured policy until no cycle remains
    /// or the requester itself is the victim.
    ///
    /// "In the case of a contention that leads into a deadlock the
    /// transaction is aborted and all locks held are released."
    fn break_deadlocks(&mut self, now: SimTime, requester: u64, loc: Locale) {
        loop {
            let victim = {
                let table = match loc {
                    Locale::Site(i) => &self.sites[i].locks,
                    Locale::Central(k) => &self.centrals[k].locks,
                };
                if table.waiting_for(OwnerId(requester)).is_none() {
                    return; // granted while breaking a previous cycle
                }
                let timer = Timer::start_if(self.profiler.enabled());
                if self.cfg.deadlock_victim == DeadlockVictim::Requester {
                    // This rule reads only the verdict, never the cycle.
                    let deadlocked = table.in_deadlock(OwnerId(requester));
                    self.profiler.stop("lock.deadlock_scan", timer);
                    deadlocked.then_some(requester)
                } else {
                    let cycle = table.deadlock_cycle(OwnerId(requester));
                    self.profiler.stop("lock.deadlock_scan", timer);
                    (!cycle.is_empty()).then(|| self.cycle_victim(&cycle, table))
                }
            };
            let Some(victim) = victim else {
                return;
            };
            let grants = match loc {
                Locale::Site(i) => self.sites[i].locks.release_all(OwnerId(victim)),
                Locale::Central(k) => self.centrals[k].locks.release_all(OwnerId(victim)),
            };
            let route = match loc {
                Locale::Site(_) => {
                    self.metrics.on_abort(now, |a| a.deadlock_local += 1);
                    Route::Local
                }
                Locale::Central(_) => {
                    self.metrics.on_abort(now, |a| a.deadlock_central += 1);
                    Route::Central
                }
            };
            self.trace(now, || TraceEvent::DeadlockAbort { txn: victim, route });
            debug_assert_eq!(
                self.txns[victim].phase,
                Phase::LockWait,
                "deadlock victim must be blocked"
            );
            self.txns.get_mut(victim).expect("victim").begin_rerun(true);
            if let Locale::Central(k) = loc {
                self.release_remote_grants(now, victim, k);
            }
            self.resume_grants(now, &grants, loc);
            // Restart after a short jittered backoff rather than
            // immediately: with deterministic service times an immediate
            // restart can trap a fixed set of conflicting transactions in
            // a periodic abort/rerun orbit that never commits anything.
            // The jitter is derived purely from the run seed, the victim
            // and its attempt count, so runs stay bit-identical for any
            // thread count.
            let backoff = self.deadlock_backoff(victim, loc);
            self.txns.get_mut(victim).expect("victim").backoff_total += backoff.as_secs();
            self.metrics.on_backoff(now, backoff);
            self.queue
                .schedule(now + backoff, Ev::Rerun { txn: victim });
            if victim == requester {
                return;
            }
        }
    }

    /// Releases every cross-shard grant a rerunning central transaction
    /// holds: one `ShardRelease` from its resident shard `k` to each
    /// foreign shard recorded in `remote_shards`. No-op (no sends) when
    /// the complex is a single shard.
    fn release_remote_grants(&mut self, now: SimTime, id: u64, k: usize) {
        let shards = std::mem::take(&mut self.txns.get_mut(id).expect("txn").remote_shards);
        for j in shards {
            self.send(
                now,
                NodeId::shard(k as u32),
                NodeId::shard(j),
                Msg::ShardRelease { txn: id },
            );
        }
    }

    /// Picks the victim among the members of `cycle`, a non-empty
    /// wait-for cycle in `table`, under the Youngest or FewestLocks rule.
    fn cycle_victim(&self, cycle: &[OwnerId], table: &LockTable) -> u64 {
        let members = cycle.iter().map(|o| o.0);
        let victim = if self.cfg.deadlock_victim == DeadlockVictim::Youngest {
            members.max()
        } else {
            members.min_by_key(|&o| (table.held_count(OwnerId(o)), u64::MAX - o))
        };
        victim.expect("non-empty cycle")
    }

    /// Deterministic restart delay for a deadlock victim: up to
    /// [`SystemConfig::deadlock_backoff_window`] seconds (default: one
    /// database-call service time at the victim's locale), jittered by a
    /// hash of `(seed, victim, attempts)` so consecutive reruns of the
    /// same transaction desynchronize from their conflict partners.
    fn deadlock_backoff(&self, victim: u64, loc: Locale) -> SimDuration {
        let window = self.cfg.deadlock_backoff_window.unwrap_or_else(|| {
            let p = &self.cfg.params;
            // The victim's actual locale speed (== the nominal MIPS on
            // homogeneous hardware, keeping the legacy arithmetic).
            let mips = match loc {
                Locale::Site(s) => self.cfg.site_mips_of(s),
                Locale::Central(k) => self.cfg.central_mips_of(k),
            };
            p.db_call_instr / mips
        });
        let attempts = u64::from(self.txns[victim].attempts);
        let h = crate::experiment::splitmix64(
            self.cfg.seed ^ victim.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (attempts << 32),
        );
        let frac = (h % 1024) as f64 / 1024.0;
        SimDuration::from_secs(window * frac)
    }

    fn after_lock_granted(&mut self, now: SimTime, id: u64) {
        let txn = self.txns.get_mut(id).expect("txn");
        if txn.phase == Phase::LockWait {
            txn.lock_wait_total += (now - txn.wait_since).as_secs();
        }
        if txn.is_rerun() {
            // Re-runs find all data in memory: no I/O.
            self.advance_call(now, id);
        } else {
            txn.phase = Phase::CallIo;
            self.schedule_io(now, id, self.cfg.params.io_per_call);
        }
    }

    fn advance_call(&mut self, now: SimTime, id: u64) {
        let (done, pause_remote, origin) = {
            let txn = self.txns.get_mut(id).expect("txn");
            txn.call_idx += 1;
            (
                txn.call_idx >= txn.spec.locks.len(),
                txn.remote_calls && !txn.is_rerun(),
                txn.spec.origin,
            )
        };
        if done {
            self.begin_commit(now, id);
        } else if pause_remote {
            // Return the function-call result; the origin issues the next
            // call after another round trip.
            self.txns.get_mut(id).expect("txn").phase = Phase::InTransit;
            let from = self.shard_node(origin);
            self.send(
                now,
                from,
                NodeId::local(origin as u32),
                Msg::RemoteCallResp { txn: id },
            );
        } else {
            self.start_call_cpu(now, id);
        }
    }

    fn begin_commit(&mut self, now: SimTime, id: u64) {
        let marked = self.txns[id].marked_abort;
        if marked {
            self.abort_and_rerun(now, id);
            return;
        }
        let route = {
            let txn = self.txns.get_mut(id).expect("txn");
            txn.phase = Phase::CommitCpu;
            txn.commit_since = now;
            txn.route
        };
        let loc = self.locale_of(&self.txns[id]);
        let instr = match route {
            // Commit processing: send the asynchronous update message.
            Route::Local => self.cfg.params.async_update_instr,
            // Commit processing: send one authentication message per
            // involved master site.
            Route::Central => {
                let sites = self.auth_sites_of(id);
                let n = sites.len();
                let old =
                    std::mem::replace(&mut self.txns.get_mut(id).expect("txn").auth_sites, sites);
                self.pool_sites.put(old);
                self.cfg.params.auth_instr * n as f64
            }
        };
        self.submit_cpu(now, loc, JobKind::TxnPhase(id), instr);
    }

    /// The master (home) site of a lock: the live placement map when the
    /// placement runtime is active, the paper's frozen slice partition
    /// otherwise.
    #[inline]
    fn master_site(&self, l: LockId) -> usize {
        match &self.placement {
            Some(p) => p.map.master_of(l),
            None => self.generator.spec().master_of(l),
        }
    }

    /// Distinct master sites of the transaction's locks, in first-reference
    /// order (deterministic).
    fn auth_sites_of(&mut self, id: u64) -> Vec<usize> {
        let mut sites = self.pool_sites.take();
        let txn = &self.txns[id];
        for &(lock, _) in &txn.spec.locks {
            let m = self.master_site(lock);
            if !sites.contains(&m) {
                sites.push(m);
            }
        }
        sites
    }

    /// A transaction found marked for abort (invalidation / authentication
    /// seizure / failed authentication): re-run, keeping its current locks
    /// ("locks ... are not released after an abort").
    fn abort_and_rerun(&mut self, now: SimTime, id: u64) {
        let route = self.txns[id].route;
        match route {
            Route::Local => self.metrics.on_abort(now, |a| a.local_invalidated += 1),
            Route::Central => self.metrics.on_abort(now, |a| a.central_invalidated += 1),
        }
        self.trace(now, || TraceEvent::InvalidationAbort { txn: id, route });
        self.txns.get_mut(id).expect("txn").begin_rerun(false);
        self.start_call_cpu(now, id);
    }

    // ------------------------------------------------------------------
    // Local commit and asynchronous propagation
    // ------------------------------------------------------------------

    fn finish_local_commit(&mut self, now: SimTime, id: u64) {
        {
            let txn = self.txns.get_mut(id).expect("txn");
            txn.commit_total += (now - txn.commit_since).as_secs();
        }
        // The mark may have been set while the commit burst was queued.
        if self.txns[id].marked_abort {
            self.abort_and_rerun(now, id);
            return;
        }
        let site = self.txns[id].spec.origin;
        let owner = OwnerId(id);

        let grants = self.sites[site].locks.release_all(owner);
        self.resume_grants(now, &grants, Locale::Site(site));

        let mut updated = self.pool_lockids.take();
        updated.extend(self.txns[id].spec.updated_locks());
        self.trace(now, || TraceEvent::LocalCommit {
            txn: id,
            site,
            updated: updated.clone(),
        });
        if !updated.is_empty() {
            // Apply the writes to the master copy and stamp them for
            // propagation to the central replica.
            let mut writes = self.pool_writes.take();
            for &l in &updated {
                let stamp = self.next_write;
                self.next_write += 1;
                self.write_master(site, l, stamp);
                self.sites[site].locks.incr_coherence(l);
                writes.push((l, stamp));
            }
            match self.cfg.async_batch_window {
                None => {
                    self.trace(now, || TraceEvent::AsyncSent {
                        site,
                        locks: writes.iter().map(|&(l, _)| l).collect(),
                    });
                    let dest = self.shard_node(site);
                    self.send(
                        now,
                        NodeId::local(site as u32),
                        dest,
                        Msg::AsyncUpdate { from: site, writes },
                    );
                }
                Some(window) => {
                    let buffer_was_empty = self.sites[site].async_buffer.is_empty();
                    self.sites[site].async_buffer.extend(writes.iter().copied());
                    self.pool_writes.put(writes);
                    if buffer_was_empty {
                        self.queue.schedule(
                            now + SimDuration::from_secs(window),
                            Ev::FlushAsync { site },
                        );
                    }
                }
            }
        }
        self.pool_lockids.put(updated);

        self.sites[site].n_txns -= 1;
        let txn = self.txns.remove(id).expect("txn");
        let rt = now - txn.arrival;
        let attempts = txn.attempts;
        let breakdown = txn.phase_breakdown(rt.as_secs());
        self.trace(now, || TraceEvent::Completion {
            txn: id,
            class: TxnClass::A,
            route: Route::Local,
            response: rt,
            attempts,
            breakdown,
        });
        self.metrics
            .on_local_a_done(now, site, rt, attempts, &breakdown);
        if txn.during_outage {
            self.metrics.on_outage_response(now, rt);
        }
        self.router.on_local_completion(site, rt);
        self.placement_release_txn(now, &txn.spec.locks);
    }

    fn flush_async(&mut self, now: SimTime, site: usize) {
        // A crashed site keeps its durable update queue for the catch-up
        // replay on recovery.
        if !self.site_up[site] {
            return;
        }
        let writes = std::mem::take(&mut self.sites[site].async_buffer);
        if !writes.is_empty() {
            self.trace(now, || TraceEvent::AsyncSent {
                site,
                locks: writes.iter().map(|&(l, _)| l).collect(),
            });
            let dest = self.shard_node(site);
            self.send(
                now,
                NodeId::local(site as u32),
                dest,
                Msg::AsyncUpdate { from: site, writes },
            );
        }
    }

    fn finish_apply_async(
        &mut self,
        now: SimTime,
        j: usize,
        from: usize,
        writes: &[(LockId, u64)],
    ) {
        // Invalidate central holders of the updated elements and apply the
        // writes to the site's home-shard replica.
        let mut invalidated = self.pool_txnids.take();
        for &(lock, stamp) in writes {
            for (holder, _) in self.centrals[j].locks.holders(lock) {
                if let Some(t) = self.txns.get_mut(holder.0) {
                    if !t.marked_abort {
                        invalidated.push(holder.0);
                    }
                    t.marked_abort = true;
                }
            }
            if self.placement.is_some() {
                // After a switchover the coherence count protecting this
                // update lives at the *old* home, so a pre-migration
                // update can race a newer post-migration central write —
                // stamp-wins keeps the replica from regressing.
                let e = self.centrals[j].store.entry(lock).or_insert(stamp);
                *e = (*e).max(stamp);
            } else {
                self.centrals[j].store.insert(lock, stamp);
            }
        }
        self.trace(now, || TraceEvent::AsyncApplied {
            site: from,
            locks: writes.iter().map(|&(l, _)| l).collect(),
            invalidated: invalidated.clone(),
        });
        self.pool_txnids.put(invalidated);
        let mut acks = self.pool_lockids.take();
        acks.extend(writes.iter().map(|&(l, _)| l));
        self.send(
            now,
            NodeId::shard(j as u32),
            NodeId::local(from as u32),
            Msg::AsyncAck { locks: acks },
        );
    }

    // ------------------------------------------------------------------
    // Authentication phase
    // ------------------------------------------------------------------

    fn send_auth_requests(&mut self, now: SimTime, id: u64) {
        {
            let txn = self.txns.get_mut(id).expect("txn");
            txn.commit_total += (now - txn.commit_since).as_secs();
        }
        let marked = self.txns[id].marked_abort;
        if marked {
            self.abort_and_rerun(now, id);
            return;
        }
        let spec = *self.generator.spec();
        let k = self.home_shard_of(id);
        // Partition the authentication fan-out: sites homed by the
        // resident shard are polled directly; each foreign shard is asked
        // once, via a delegated `ShardAuthReq` covering every site it
        // homes. One reply is expected per direct site and per foreign
        // shard. With a single shard the partition is trivial (all
        // direct) and the fan-out matches the unsharded protocol exactly.
        let (n_sites, foreign) = {
            let mut own = 0usize;
            let mut foreign: Vec<u32> = Vec::new();
            for &site in &self.txns[id].auth_sites {
                let h = self.shard_map.home_of(site);
                if h as usize == k {
                    own += 1;
                } else if !foreign.contains(&h) {
                    foreign.push(h);
                }
            }
            let txn = self.txns.get_mut(id).expect("txn");
            txn.phase = Phase::AuthWait;
            txn.auth_since = now;
            txn.auth_pending = own + foreign.len();
            txn.auth_negative = false;
            (txn.auth_sites.len(), foreign)
        };
        // Clone the site list only when someone is listening (mirrors
        // `trace`'s own gate).
        if self.trace.is_some() || self.profiler.enabled() {
            let sites = self.txns[id].auth_sites.clone();
            self.trace(now, || TraceEvent::AuthStarted { txn: id, sites });
        }
        for i in 0..n_sites {
            let site = self.txns[id].auth_sites[i];
            if self.shard_map.home_of(site) as usize != k {
                continue;
            }
            let mut locks = self.pool_locks.take();
            locks.extend(
                self.txns[id]
                    .spec
                    .locks
                    .iter()
                    .copied()
                    .filter(|&(l, _)| self.master_site(l) == site),
            );
            self.send(
                now,
                NodeId::shard(k as u32),
                NodeId::local(site as u32),
                Msg::AuthRequest { txn: id, locks },
            );
        }
        for j in foreign {
            let mut locks = self.pool_locks.take();
            locks.extend(
                self.txns[id]
                    .spec
                    .locks
                    .iter()
                    .copied()
                    .filter(|&(l, _)| self.shard_map.home_of(spec.master_of(l)) == j),
            );
            self.send(
                now,
                NodeId::shard(k as u32),
                NodeId::shard(j),
                Msg::ShardAuthReq {
                    txn: id,
                    home: k as u32,
                    locks,
                },
            );
        }
    }

    fn finish_auth_process(
        &mut self,
        now: SimTime,
        id: u64,
        site: usize,
        locks: &[(LockId, LockMode)],
    ) {
        // A crash may have killed the requester while this burst was
        // queued; don't seize locks for the dead.
        if !self.txns.contains(id) {
            return;
        }
        // Coherence check: any in-flight asynchronous update on the
        // requested elements forces a negative acknowledgement.
        let positive = {
            let table = &self.sites[site].locks;
            locks.iter().all(|&(l, _)| table.coherence(l) == 0)
        };
        let mut displaced_all = self.pool_txnids.take();
        if positive {
            let owner = OwnerId(id);
            for &(lock, mode) in locks {
                let out = self.sites[site].locks.force_acquire(lock, owner, mode);
                for victim in out.displaced {
                    if let Some(t) = self.txns.get_mut(victim.0) {
                        if !t.marked_abort {
                            displaced_all.push(victim.0);
                        }
                        t.marked_abort = true;
                    }
                }
                self.resume_grants(now, &out.grants, Locale::Site(site));
            }
        }
        self.trace(now, || TraceEvent::AuthProcessed {
            txn: id,
            site,
            positive,
            displaced: displaced_all.clone(),
        });
        let dest = self.shard_node(site);
        self.send(
            now,
            NodeId::local(site as u32),
            dest,
            Msg::AuthReply { txn: id, positive },
        );
        self.pool_txnids.put(displaced_all);
    }

    fn on_auth_reply(&mut self, now: SimTime, id: u64, positive: bool) {
        let resolved = {
            // The transaction may have been killed by a crash while the
            // reply was in flight.
            let Some(txn) = self.txns.get_mut(id) else {
                return;
            };
            debug_assert_eq!(txn.phase, Phase::AuthWait);
            txn.auth_pending -= 1;
            if !positive {
                txn.auth_negative = true;
            }
            txn.auth_pending == 0
        };
        if resolved {
            self.resolve_auth(now, id);
        }
    }

    fn resolve_auth(&mut self, now: SimTime, id: u64) {
        let (negative, invalidated, n_sites) = {
            let txn = self.txns.get_mut(id).expect("txn");
            txn.auth_wait_total += (now - txn.auth_since).as_secs();
            (txn.auth_negative, txn.marked_abort, txn.auth_sites.len())
        };
        if negative || invalidated {
            // Failed authentication: release any locks seized at the master
            // sites, then re-execute and repeat the process. Sites homed by
            // a foreign shard are released through that shard's delegation
            // record (one `ShardAuthAbort` per foreign shard).
            let k = self.home_shard_of(id);
            let from = NodeId::shard(k as u32);
            let mut foreign: Vec<u32> = Vec::new();
            for i in 0..n_sites {
                let site = self.txns[id].auth_sites[i];
                let h = self.shard_map.home_of(site);
                if h as usize == k {
                    self.send(
                        now,
                        from,
                        NodeId::local(site as u32),
                        Msg::AuthRelease { txn: id },
                    );
                } else if !foreign.contains(&h) {
                    foreign.push(h);
                }
            }
            for j in foreign {
                self.send(now, from, NodeId::shard(j), Msg::ShardAuthAbort { txn: id });
            }
            if negative && !invalidated {
                self.metrics.on_abort(now, |a| a.central_neg_ack += 1);
            } else {
                self.metrics.on_abort(now, |a| a.central_invalidated += 1);
            }
            self.trace(now, || TraceEvent::AuthResolved {
                txn: id,
                committed: false,
            });
            self.txns.get_mut(id).expect("txn").begin_rerun(false);
            self.start_call_cpu(now, id);
        } else {
            // Commit: release central locks, fan out commit messages, and
            // notify the origin.
            self.trace(now, || TraceEvent::AuthResolved {
                txn: id,
                committed: true,
            });
            // Apply the transaction's writes to the replica partitions the
            // resident shard homes and stamp them for the commit fan-out to
            // the master sites; foreign-shard partitions are applied by
            // their home shard on `ShardCommit`.
            let spec = *self.generator.spec();
            let k = self.home_shard_of(id);
            let from = NodeId::shard(k as u32);
            let mut updated = self.pool_lockids.take();
            updated.extend(self.txns[id].spec.updated_locks());
            let mut writes = self.pool_writes.take();
            for &l in &updated {
                let stamp = self.next_write;
                self.next_write += 1;
                if self.shard_map.home_of_lock(&spec, l) as usize == k {
                    self.centrals[k].store.insert(l, stamp);
                }
                writes.push((l, stamp));
            }
            self.pool_lockids.put(updated);
            let owner = OwnerId(id);
            let grants = self.centrals[k].locks.release_all(owner);
            self.resume_grants(now, &grants, Locale::Central(k));
            self.centrals[k].n_txns -= 1;
            {
                let txn = self.txns.get_mut(id).expect("txn");
                txn.in_central_count = false;
                // The `ShardCommit` fan-out below releases the grants held
                // at foreign shards.
                txn.remote_shards.clear();
            }
            let mut foreign: Vec<u32> = Vec::new();
            for i in 0..n_sites {
                let site = self.txns[id].auth_sites[i];
                let h = self.shard_map.home_of(site);
                if h as usize != k {
                    if !foreign.contains(&h) {
                        foreign.push(h);
                    }
                    continue;
                }
                let mut site_writes = self.pool_writes.take();
                site_writes.extend(
                    writes
                        .iter()
                        .copied()
                        .filter(|&(l, _)| self.master_site(l) == site),
                );
                self.placement_commit_pending(&site_writes);
                self.send(
                    now,
                    from,
                    NodeId::local(site as u32),
                    Msg::CommitMsg {
                        txn: id,
                        writes: site_writes,
                    },
                );
            }
            for j in foreign {
                let mut locks = self.pool_locks.take();
                locks.extend(
                    self.txns[id]
                        .spec
                        .locks
                        .iter()
                        .copied()
                        .filter(|&(l, _)| self.shard_map.home_of(spec.master_of(l)) == j),
                );
                let mut shard_writes = self.pool_writes.take();
                shard_writes.extend(
                    writes
                        .iter()
                        .copied()
                        .filter(|&(l, _)| self.shard_map.home_of(spec.master_of(l)) == j),
                );
                self.send(
                    now,
                    from,
                    NodeId::shard(j),
                    Msg::ShardCommit {
                        txn: id,
                        locks,
                        writes: shard_writes,
                    },
                );
            }
            self.pool_writes.put(writes);
            let origin = self.txns[id].spec.origin;
            self.send(
                now,
                from,
                NodeId::local(origin as u32),
                Msg::Reply { txn: id },
            );
        }
    }

    fn finish_apply_commit(
        &mut self,
        now: SimTime,
        id: u64,
        site: usize,
        writes: &[(LockId, u64)],
    ) {
        for &(l, stamp) in writes {
            self.write_master(site, l, stamp);
        }
        let grants = self.sites[site].locks.release_all(OwnerId(id));
        self.resume_grants(now, &grants, Locale::Site(site));
        self.placement_commit_applied(now, writes);
    }

    /// Writes `item`'s master copy at `site`. Every site-store write
    /// except the switchover's move goes through here, so the placement
    /// runtime's per-partition item counts stay exact.
    fn write_master(&mut self, site: usize, item: LockId, stamp: u64) {
        let created = self.sites[site].store.insert(item, stamp).is_none();
        if created {
            if let Some(p) = self.placement.as_mut() {
                let part = p.map.geometry().partition_of(item);
                p.items[part as usize] += 1;
            }
        }
    }

    // ------------------------------------------------------------------
    // Adaptive data placement (no-ops when `self.placement` is `None`)
    // ------------------------------------------------------------------

    /// Placement bookkeeping for a transaction leaving the system:
    /// decrement the live counters of the partitions it touched and try
    /// the switchover of any draining migration those counters gated.
    fn placement_release_txn(&mut self, now: SimTime, locks: &[(LockId, LockMode)]) {
        let Some(p) = self.placement.as_mut() else {
            return;
        };
        p.scratch_partitions(locks);
        for i in 0..p.scratch.len() {
            let part = p.scratch[i] as usize;
            p.live_parts[part] -= 1;
        }
        if p.active.is_empty() {
            return;
        }
        let parts = p.scratch.clone();
        for part in parts {
            self.try_switchover(now, part);
        }
    }

    /// A commit message carrying writes was sent towards a master site:
    /// its partitions gain an in-flight application, blocking their
    /// switchover until [`HybridSystem::placement_commit_applied`].
    fn placement_commit_pending(&mut self, writes: &[(LockId, u64)]) {
        if writes.is_empty() {
            return;
        }
        let Some(p) = self.placement.as_mut() else {
            return;
        };
        p.scratch_writes(writes);
        for i in 0..p.scratch.len() {
            let part = p.scratch[i] as usize;
            p.pending_parts[part] += 1;
        }
    }

    /// The write set of a commit message reached the master store (the
    /// normal application burst, or the redo-logged crash path).
    fn placement_commit_applied(&mut self, now: SimTime, writes: &[(LockId, u64)]) {
        if writes.is_empty() {
            return;
        }
        let Some(p) = self.placement.as_mut() else {
            return;
        };
        p.scratch_writes(writes);
        for i in 0..p.scratch.len() {
            let part = p.scratch[i] as usize;
            p.pending_parts[part] -= 1;
        }
        if p.active.is_empty() {
            return;
        }
        let parts = p.scratch.clone();
        for part in parts {
            self.try_switchover(now, part);
        }
    }

    /// Controller activation: decay the remote-access statistics, plan
    /// migrations under the cost model, and start their bulk copies.
    fn on_placement_tick(&mut self, now: SimTime) {
        if self.placement.is_none() {
            return;
        }
        if self.validate {
            self.check_placement_items();
        }
        let next = now + SimDuration::from_secs(self.cfg.placement.interval);
        if next < self.end {
            self.queue.schedule(next, Ev::PlacementTick);
        }
        // The controller runs at the central complex; while it is down,
        // skip the round (statistics keep accumulating).
        if !self.central_up {
            return;
        }
        let plans = {
            let p = self.placement.as_mut().expect("checked");
            let mut migrating = vec![false; p.map.geometry().n_partitions()];
            for &part in p.active.keys() {
                migrating[part as usize] = true;
            }
            let plans = plan(&self.cfg.placement, &p.map, &p.stats, &p.items, &migrating);
            p.stats.decay();
            plans
        };
        for m in plans {
            // Never start a copy into or out of a crashed site.
            if !self.site_up[m.from as usize] || !self.site_up[m.to as usize] {
                continue;
            }
            let (mig, secs) = {
                let p = self.placement.as_mut().expect("checked");
                let bytes = p.items[m.partition as usize] * self.cfg.placement.item_bytes;
                let id = p.mig_seq;
                p.mig_seq += 1;
                p.migrations_planned += 1;
                p.bytes_moved += bytes;
                p.active.insert(
                    m.partition,
                    ActiveMigration {
                        id,
                        from: m.from as usize,
                        to: m.to as usize,
                        phase: MigrationPhase::Copying,
                        parked: Vec::new(),
                    },
                );
                (id, bytes as f64 / self.cfg.placement.bandwidth)
            };
            self.queue.schedule(
                now + SimDuration::from_secs(secs),
                Ev::PlacementCopyDone {
                    partition: m.partition,
                    mig,
                },
            );
        }
    }

    /// Compares the maintained per-partition item counts with a full
    /// rescan of every site's store (no-op without placement).
    ///
    /// # Panics
    ///
    /// Panics naming the first partition whose count differs.
    fn check_placement_items(&self) {
        let Some(p) = self.placement.as_ref() else {
            return;
        };
        let geo = p.map.geometry();
        let mut items = vec![0u64; geo.n_partitions()];
        for site in &self.sites {
            for &item in site.store.keys() {
                items[geo.partition_of(item) as usize] += 1;
            }
        }
        if let Some(part) = (0..items.len()).find(|&i| items[i] != p.items[i]) {
            panic!(
                "partition {part}: maintained item count {} but the site stores hold {}",
                p.items[part], items[part]
            );
        }
    }

    /// A migration's bulk copy landed: enter the draining phase and
    /// switch over immediately if the partition is already quiescent.
    fn on_placement_copy_done(&mut self, now: SimTime, partition: u32, mig: u64) {
        {
            let Some(p) = self.placement.as_mut() else {
                return;
            };
            let Some(m) = p.active.get_mut(&partition) else {
                return; // aborted by a crash while the copy was in flight
            };
            if m.id != mig {
                return; // stale completion of an aborted predecessor
            }
            m.phase = MigrationPhase::Draining;
        }
        self.try_switchover(now, partition);
    }

    /// Atomic switchover: once a draining partition has no live
    /// transactions and no in-flight commit applications, move its
    /// master copies to the new home, bump the map epoch, and re-admit
    /// the parked arrivals (now classified under the new map).
    fn try_switchover(&mut self, now: SimTime, partition: u32) {
        let ready = {
            let Some(p) = self.placement.as_ref() else {
                return;
            };
            matches!(
                p.active.get(&partition),
                Some(m) if m.phase == MigrationPhase::Draining
            ) && p.live_parts[partition as usize] == 0
                && p.pending_parts[partition as usize] == 0
        };
        if !ready {
            return;
        }
        let (from, to, parked, geo) = {
            let p = self.placement.as_mut().expect("checked");
            let m = p.active.remove(&partition).expect("checked");
            (m.from, m.to, m.parked, *p.map.geometry())
        };
        // Move the master copies. Entry order is map-iteration order, but
        // the moved set is a set — the resulting stores are identical
        // regardless; stamp-wins guards the (unreachable in practice)
        // case of a leftover entry at the target.
        let moved: Vec<(LockId, u64)> = self.sites[from]
            .store
            .iter()
            .filter(|&(&item, _)| geo.partition_of(item) == partition)
            .map(|(&item, &stamp)| (item, stamp))
            .collect();
        let mut already_held = 0;
        for (item, stamp) in moved {
            self.sites[from].store.remove(&item);
            match self.sites[to].store.entry(item) {
                Entry::Occupied(mut e) => {
                    *e.get_mut() = (*e.get()).max(stamp);
                    already_held += 1;
                }
                Entry::Vacant(e) => {
                    e.insert(stamp);
                }
            }
        }
        {
            let p = self.placement.as_mut().expect("checked");
            // An item the target already held was counted at both sites.
            p.items[partition as usize] -= already_held;
            p.map.apply(&Migration {
                partition,
                from: from as u32,
                to: to as u32,
            });
            p.stats.clear_partition(partition);
            p.migrations_completed += 1;
        }
        for (site, spec, arrival, attempt) in parked {
            self.admit(now, site, spec, arrival, attempt);
        }
    }

    /// Aborts in-flight migrations selected by `pred` — a site crash
    /// kills those copying from or to the site; a central crash kills
    /// all of them (the copy and the switchover are coordinated
    /// centrally). The copy is discarded, the map keeps its epoch, and
    /// parked admissions are released under the unchanged map.
    fn abort_migrations(&mut self, now: SimTime, mut pred: impl FnMut(&ActiveMigration) -> bool) {
        if self.placement.is_none() {
            return;
        }
        let aborted: Vec<ActiveMigration> = {
            let p = self.placement.as_mut().expect("checked");
            let mut parts: Vec<u32> = p
                .active
                .iter()
                .filter(|&(_, m)| pred(m))
                .map(|(&part, _)| part)
                .collect();
            // Map iteration order must not leak into admission order.
            parts.sort_unstable();
            parts
                .into_iter()
                .map(|part| {
                    p.migrations_aborted += 1;
                    p.active.remove(&part).expect("selected above")
                })
                .collect()
        };
        for m in aborted {
            for (site, spec, arrival, attempt) in m.parked {
                self.admit(now, site, spec, arrival, attempt);
            }
        }
    }

    // ------------------------------------------------------------------
    // Cross-shard coordination (sharded central complex)
    // ------------------------------------------------------------------

    /// CPU burst done at foreign shard `j`: answer a cross-shard lock
    /// request grant-or-deny. Cross-shard requests never park in a
    /// foreign wait queue (the no-wait rule) — a parked foreign waiter
    /// could close a deadlock cycle invisible to the per-shard detector.
    fn finish_shard_lock(
        &mut self,
        now: SimTime,
        j: usize,
        id: u64,
        lock: LockId,
        mode: LockMode,
        home: u32,
    ) {
        // The requester may have been killed by a crash while this burst
        // was queued; its cleanup already released any grants it held here.
        if !self.txns.contains(id) {
            return;
        }
        let owner = OwnerId(id);
        let granted = match self.centrals[j].locks.request(owner, lock, mode) {
            RequestOutcome::Granted | RequestOutcome::AlreadyHeld => true,
            RequestOutcome::Queued => {
                let grants = self.centrals[j].locks.cancel_wait(owner);
                self.resume_grants(now, &grants, Locale::Central(j));
                false
            }
        };
        self.send(
            now,
            NodeId::shard(j as u32),
            NodeId::shard(home),
            Msg::ShardLockResp {
                txn: id,
                lock,
                granted,
            },
        );
    }

    /// Cross-shard lock response arriving back at the requester's resident
    /// shard `k`. A denial aborts and reruns the requester exactly like a
    /// deadlock victim (the no-wait rule turns would-be cross-shard waits
    /// into restarts).
    fn on_shard_lock_resp(&mut self, now: SimTime, k: usize, id: u64, lock: LockId, granted: bool) {
        let Some(txn) = self.txns.get_mut(id) else {
            return; // killed by a crash while the response was in flight
        };
        if granted {
            self.remote_grant_count += 1;
            let j = self.shard_map.home_of_lock(self.generator.spec(), lock);
            if !txn.remote_shards.contains(&j) {
                txn.remote_shards.push(j);
            }
            self.after_lock_granted(now, id);
            return;
        }
        debug_assert_eq!(txn.phase, Phase::LockWait, "denied txn must be blocked");
        self.cross_denials += 1;
        let grants = self.centrals[k].locks.release_all(OwnerId(id));
        self.metrics.on_abort(now, |a| a.deadlock_central += 1);
        self.trace(now, || TraceEvent::DeadlockAbort {
            txn: id,
            route: Route::Central,
        });
        self.txns.get_mut(id).expect("txn").begin_rerun(true);
        self.release_remote_grants(now, id, k);
        self.resume_grants(now, &grants, Locale::Central(k));
        let backoff = self.deadlock_backoff(id, Locale::Central(k));
        self.txns.get_mut(id).expect("txn").backoff_total += backoff.as_secs();
        self.metrics.on_backoff(now, backoff);
        self.queue.schedule(now + backoff, Ev::Rerun { txn: id });
    }

    /// An `AuthReply` landing at shard `s`: either the aggregation step of
    /// a delegation this shard runs for a foreign resident, or a direct
    /// reply to one of this shard's own residents.
    fn shard_auth_reply(&mut self, now: SimTime, s: usize, id: u64, positive: bool) {
        if let Some(entry) = self.centrals[s].foreign_auth.get_mut(&id) {
            entry.pending -= 1;
            if !positive {
                entry.negative = true;
            }
            if entry.pending == 0 {
                let (home, verdict) = (entry.home, !entry.negative);
                // Keep the entry: its site list drives the later
                // `ShardCommit` / `ShardAuthAbort` fan-out.
                self.send(
                    now,
                    NodeId::shard(s as u32),
                    NodeId::shard(home),
                    Msg::ShardAuthReply {
                        txn: id,
                        positive: verdict,
                    },
                );
            }
            return;
        }
        self.on_auth_reply(now, id, positive);
    }

    /// CPU burst done at foreign shard `j`: run the delegated
    /// authentication exchange with the master sites this shard homes,
    /// recording a [`ForeignAuth`] entry to aggregate their replies.
    fn finish_shard_auth_fanout(
        &mut self,
        now: SimTime,
        j: usize,
        id: u64,
        home: u32,
        locks: &[(LockId, LockMode)],
    ) {
        // A crash may have killed the requester while this burst was
        // queued; its cleanup also removed any delegation entry — don't
        // recreate one for the dead.
        if !self.txns.contains(id) {
            return;
        }
        let spec = *self.generator.spec();
        let mut sites = self.pool_sites.take();
        for &(l, _) in locks {
            let m = spec.master_of(l);
            if !sites.contains(&m) {
                sites.push(m);
            }
        }
        let n_sites = sites.len();
        let prev = self.centrals[j].foreign_auth.insert(
            id,
            ForeignAuth {
                pending: n_sites,
                negative: false,
                home,
                sites,
            },
        );
        debug_assert!(prev.is_none(), "duplicate delegation for txn {id}");
        if let Some(p) = prev {
            self.pool_sites.put(p.sites);
        }
        for i in 0..n_sites {
            let site = self.centrals[j].foreign_auth[&id].sites[i];
            let mut site_locks = self.pool_locks.take();
            site_locks.extend(
                locks
                    .iter()
                    .copied()
                    .filter(|&(l, _)| spec.master_of(l) == site),
            );
            self.send(
                now,
                NodeId::shard(j as u32),
                NodeId::local(site as u32),
                Msg::AuthRequest {
                    txn: id,
                    locks: site_locks,
                },
            );
        }
    }

    /// CPU burst done at foreign shard `j`: apply a delegated commit —
    /// write the replica partitions this shard homes, release the
    /// committer's grants, and fan the commit out to the master sites.
    fn finish_shard_commit_apply(
        &mut self,
        now: SimTime,
        j: usize,
        id: u64,
        locks: &[(LockId, LockMode)],
        writes: &[(LockId, u64)],
    ) {
        let spec = *self.generator.spec();
        for &(l, stamp) in writes {
            self.centrals[j].store.insert(l, stamp);
        }
        let grants = self.centrals[j].locks.release_all(OwnerId(id));
        self.resume_grants(now, &grants, Locale::Central(j));
        if let Some(entry) = self.centrals[j].foreign_auth.remove(&id) {
            self.pool_sites.put(entry.sites);
        }
        // Recompute the site fan-out from the lock list rather than the
        // delegation entry — a central crash clears the entries, but the
        // locks travel with the message.
        let mut sites = self.pool_sites.take();
        for &(l, _) in locks {
            let m = spec.master_of(l);
            if !sites.contains(&m) {
                sites.push(m);
            }
        }
        for &site in &sites {
            let mut site_writes = self.pool_writes.take();
            site_writes.extend(
                writes
                    .iter()
                    .copied()
                    .filter(|&(l, _)| spec.master_of(l) == site),
            );
            self.send(
                now,
                NodeId::shard(j as u32),
                NodeId::local(site as u32),
                Msg::CommitMsg {
                    txn: id,
                    writes: site_writes,
                },
            );
        }
        self.pool_sites.put(sites);
    }

    // ------------------------------------------------------------------
    // Lock grant resumption
    // ------------------------------------------------------------------

    fn resume_grants(&mut self, now: SimTime, grants: &[Grant], loc: Locale) {
        for g in grants {
            let id = g.owner.0;
            // A grant can surface for a transaction a crash just killed
            // (the cascade of its fellow victims' releases); skip it — its
            // own release follows in the same crash handler.
            if !self.txns.contains(id) {
                continue;
            }
            debug_assert_eq!(
                self.txns[id].phase,
                Phase::LockWait,
                "grant to non-waiting txn"
            );
            debug_assert_eq!(self.locale_of(&self.txns[id]), loc);
            self.after_lock_granted(now, id);
        }
    }

    // ------------------------------------------------------------------
    // Messaging
    // ------------------------------------------------------------------

    fn send(&mut self, now: SimTime, from: NodeId, to: NodeId, msg: Msg) {
        let timer = Timer::start_if(self.profiler.enabled());
        self.msg_counts.record(&msg);
        // Every message from the central complex to a local site carries a
        // state snapshot (of the sending shard) for the routing strategies.
        let snap = (from.is_central() && !to.is_central())
            .then(|| self.central_snapshot(from.shard_index()));
        self.deliver(now, from, to, msg, snap);
        self.profiler.stop("net.send", timer);
    }

    /// Puts a message on its link, or into the link's store-and-forward
    /// buffer while the link is down (flushed in order on recovery).
    fn deliver(
        &mut self,
        now: SimTime,
        from: NodeId,
        to: NodeId,
        msg: Msg,
        snap: Option<CentralSnapshot>,
    ) {
        match self.net.try_send(now, from, to, ()) {
            Ok(Envelope { deliver_at, .. }) => {
                self.queue
                    .schedule(deliver_at, Ev::MsgArrive { to, msg, snap });
            }
            Err(()) => {
                let site = if from.is_central() {
                    to.local_index()
                } else {
                    from.local_index()
                };
                self.metrics
                    .on_availability(now, |a| a.deferred_messages += 1);
                self.deferred_links[site].push_back((from, to, msg, snap));
            }
        }
    }

    fn on_msg(&mut self, now: SimTime, to: NodeId, msg: Msg, snap: Option<CentralSnapshot>) {
        // Messages reaching a crashed node wait, in arrival order, for its
        // recovery.
        let destination_up = if to.is_central() {
            self.central_up
        } else {
            self.site_up[to.local_index()]
        };
        if !destination_up {
            self.metrics
                .on_availability(now, |a| a.deferred_messages += 1);
            if to.is_central() {
                self.deferred_central.push_back((to, msg, snap));
            } else {
                self.deferred_site[to.local_index()].push_back((msg, snap));
            }
            return;
        }
        if let (false, Some(s)) = (to.is_central(), snap) {
            self.sites[to.local_index()].latest_central = s;
        }
        match msg {
            Msg::ShipTxn { txn } => {
                debug_assert!(to.is_central());
                let Some(t) = self.txns.get_mut(txn) else {
                    return;
                };
                t.phase = Phase::SetupIo;
                t.in_central_count = true;
                self.centrals[to.shard_index()].n_txns += 1;
                self.schedule_io(now, txn, self.cfg.params.setup_io);
            }
            Msg::AsyncUpdate { from, writes } => {
                debug_assert!(to.is_central());
                self.submit_cpu(
                    now,
                    Locale::Central(to.shard_index()),
                    JobKind::ApplyAsync { from, writes },
                    self.cfg.params.async_update_instr,
                );
            }
            Msg::AsyncAck { locks } => {
                let site = to.local_index();
                for &l in &locks {
                    // A crash clears the volatile lock table (and its
                    // coherence counts); ignore acknowledgements of
                    // pre-crash updates.
                    if self.sites[site].locks.coherence(l) > 0 {
                        self.sites[site].locks.decr_coherence(l);
                    }
                }
                self.pool_lockids.put(locks);
            }
            Msg::AuthRequest { txn, locks } => {
                let site = to.local_index();
                self.submit_cpu(
                    now,
                    Locale::Site(site),
                    JobKind::AuthProcess { txn, site, locks },
                    self.cfg.params.auth_instr,
                );
            }
            Msg::AuthReply { txn, positive } => {
                debug_assert!(to.is_central());
                self.shard_auth_reply(now, to.shard_index(), txn, positive);
            }
            Msg::AuthRelease { txn } => {
                let site = to.local_index();
                let grants = self.sites[site].locks.release_all(OwnerId(txn));
                self.resume_grants(now, &grants, Locale::Site(site));
            }
            Msg::CommitMsg { txn, writes } => {
                let site = to.local_index();
                self.submit_cpu(
                    now,
                    Locale::Site(site),
                    JobKind::ApplyCommit { txn, site, writes },
                    self.cfg.params.async_update_instr,
                );
            }
            Msg::RemoteCallReq { txn } => {
                debug_assert!(to.is_central());
                {
                    let Some(t) = self.txns.get_mut(txn) else {
                        return;
                    };
                    if t.call_idx == 0 && !t.is_rerun() {
                        t.in_central_count = true;
                        self.centrals[to.shard_index()].n_txns += 1;
                    }
                }
                self.start_call_cpu(now, txn);
            }
            Msg::RemoteCallResp { txn } => {
                debug_assert!(!to.is_central());
                if self.txns.contains(txn) {
                    self.origin_issue_call(now, txn);
                }
            }
            Msg::Reply { txn } => {
                let site = to.local_index();
                // The origin's transaction record is gone if a crash killed
                // it while the reply was in flight.
                let Some(mut t) = self.txns.remove(txn) else {
                    return;
                };
                self.pool_sites.put(std::mem::take(&mut t.auth_sites));
                let rt = now - t.arrival;
                let (class, attempts) = (t.class(), t.attempts);
                let breakdown = t.phase_breakdown(rt.as_secs());
                self.trace(now, || TraceEvent::Completion {
                    txn,
                    class,
                    route: Route::Central,
                    response: rt,
                    attempts,
                    breakdown,
                });
                match class {
                    TxnClass::A => {
                        self.metrics
                            .on_shipped_a_done(now, site, rt, attempts, &breakdown);
                        self.router.on_shipped_completion(site, rt);
                    }
                    TxnClass::B => {
                        self.metrics
                            .on_class_b_done(now, site, rt, attempts, &breakdown);
                    }
                }
                if t.during_outage {
                    self.metrics.on_outage_response(now, rt);
                }
                self.placement_release_txn(now, &t.spec.locks);
            }
            Msg::ShardLockReq {
                txn,
                lock,
                mode,
                home,
            } => {
                debug_assert!(to.is_central());
                self.submit_cpu(
                    now,
                    Locale::Central(to.shard_index()),
                    JobKind::ShardLock {
                        txn,
                        lock,
                        mode,
                        home,
                    },
                    self.cfg.params.shard_op_instr,
                );
            }
            Msg::ShardLockResp { txn, lock, granted } => {
                debug_assert!(to.is_central());
                self.on_shard_lock_resp(now, to.shard_index(), txn, lock, granted);
            }
            Msg::ShardAuthReq { txn, home, locks } => {
                debug_assert!(to.is_central());
                self.submit_cpu(
                    now,
                    Locale::Central(to.shard_index()),
                    JobKind::ShardAuthFanout { txn, home, locks },
                    self.cfg.params.shard_op_instr,
                );
            }
            Msg::ShardAuthReply { txn, positive } => {
                debug_assert!(to.is_central());
                self.on_auth_reply(now, txn, positive);
            }
            Msg::ShardCommit { txn, locks, writes } => {
                debug_assert!(to.is_central());
                self.submit_cpu(
                    now,
                    Locale::Central(to.shard_index()),
                    JobKind::ShardCommitApply { txn, locks, writes },
                    self.cfg.params.shard_op_instr,
                );
            }
            Msg::ShardAuthAbort { txn } => {
                debug_assert!(to.is_central());
                let s = to.shard_index();
                if let Some(entry) = self.centrals[s].foreign_auth.remove(&txn) {
                    for i in 0..entry.sites.len() {
                        let site = entry.sites[i];
                        self.send(
                            now,
                            NodeId::shard(s as u32),
                            NodeId::local(site as u32),
                            Msg::AuthRelease { txn },
                        );
                    }
                    self.pool_sites.put(entry.sites);
                }
            }
            Msg::ShardRelease { txn } => {
                debug_assert!(to.is_central());
                let s = to.shard_index();
                let grants = self.centrals[s].locks.release_all(OwnerId(txn));
                self.resume_grants(now, &grants, Locale::Central(s));
            }
        }
    }

    // ------------------------------------------------------------------
    // Fault injection
    // ------------------------------------------------------------------

    fn on_fault(&mut self, now: SimTime, kind: FaultKind) {
        self.trace(now, || TraceEvent::Fault {
            what: kind.to_string(),
        });
        match kind {
            FaultKind::SiteDown { site } => {
                self.fault_began();
                self.site_up[site] = false;
                self.crash_site(now, site);
            }
            FaultKind::SiteUp { site } => {
                self.fault_ended();
                self.site_up[site] = true;
                self.recover_site(now, site);
            }
            FaultKind::CentralDown => {
                self.fault_began();
                self.central_up = false;
                self.crash_central(now);
            }
            FaultKind::CentralUp => {
                self.fault_ended();
                self.central_up = true;
                self.recover_central(now);
            }
            FaultKind::LinkDown { site } => {
                self.fault_began();
                self.net.set_link_up(site, false);
            }
            FaultKind::LinkUp { site } => {
                self.fault_ended();
                self.net.set_link_up(site, true);
                let queued = std::mem::take(&mut self.deferred_links[site]);
                for (from, to, msg, snap) in queued {
                    self.deliver(now, from, to, msg, snap);
                }
            }
            FaultKind::LinkDegraded { site, factor } => {
                self.fault_began();
                self.net.set_slow_factor(site, factor);
            }
            FaultKind::LinkRestored { site } => {
                self.fault_ended();
                self.net.set_slow_factor(site, 1.0);
            }
        }
    }

    /// A fault window opened: everything currently in flight overlaps it.
    fn fault_began(&mut self) {
        self.active_faults += 1;
        for t in self.txns.values_mut() {
            t.during_outage = true;
        }
    }

    fn fault_ended(&mut self) {
        self.active_faults = self.active_faults.saturating_sub(1);
    }

    /// A local site's DBMS crashes: the CPU loses its work, the volatile
    /// lock table (and its coherence counts) is cleared, and every
    /// transaction anchored at the site is killed. Durable state — the
    /// master store and the queued asynchronous updates — survives for
    /// recovery.
    fn crash_site(&mut self, now: SimTime, s: usize) {
        // Abort migrations touching the site *before* the kills below
        // drain its partitions' live counters — a half-copied partition
        // must never switch over off the back of a crash.
        self.abort_migrations(now, |m| m.from == s || m.to == s);
        // Dispose of the work on the CPU and cancel the completions that
        // will never happen.
        let evicted = self.sites[s].cpu.drain(now);
        let mut failed_auths = Vec::new();
        for job in evicted {
            if let Some(key) = self.jobs.take_key(job.id) {
                self.queue.cancel(key);
            }
            match self.jobs.remove(job.id).expect("drained unknown job") {
                // Its transaction is killed below.
                JobKind::TxnPhase(_) => {}
                // The central complex detects the lost request as a
                // negative acknowledgement (synthesized after the kills).
                JobKind::AuthProcess { txn, locks, .. } => {
                    failed_auths.push(txn);
                    self.pool_locks.put(locks);
                }
                // The commit is already durable centrally; treat the write
                // application as redo-logged.
                JobKind::ApplyCommit { writes, .. } => {
                    for &(l, stamp) in &writes {
                        self.write_master(s, l, stamp);
                    }
                    self.placement_commit_applied(now, &writes);
                    self.pool_writes.put(writes);
                }
                JobKind::ApplyAsync { .. }
                | JobKind::ShardLock { .. }
                | JobKind::ShardAuthFanout { .. }
                | JobKind::ShardCommitApply { .. } => {
                    unreachable!("central-side job at a local site")
                }
            }
        }
        // Kill every transaction anchored at the site: locals, remote-call
        // transactions from it, and shipped ones still in origin
        // processing. (Sorted: map iteration order must not leak into
        // results.)
        let mut victims: Vec<u64> = self
            .txns
            .values()
            .filter(|t| {
                t.spec.origin == s
                    && (t.route == Route::Local || t.remote_calls || t.phase == Phase::OriginMsgCpu)
            })
            .map(|t| t.id)
            .collect();
        victims.sort_unstable();
        for id in victims {
            self.crash_kill(now, id, false);
        }
        // The volatile lock table is lost. Its operation counters are
        // absorbed into the profiler first so the profile survives the
        // table replacement.
        let lost = std::mem::replace(&mut self.sites[s].locks, LockTable::new());
        self.absorb_lock_stats(lost.stats());
        self.sites[s].locks.set_profiling(self.profiler.enabled());
        self.sites[s].n_txns = 0;
        let h = self.shard_map.home_of(s) as usize;
        for txn in failed_auths {
            if self.txns.contains(txn) || self.centrals[h].foreign_auth.contains_key(&txn) {
                self.shard_auth_reply(now, h, txn, false);
            }
        }
    }

    /// A recovered site first replays its durable asynchronous-update
    /// queue (resynchronizing the central replica), then processes the
    /// traffic that arrived while it was down, in arrival order.
    fn recover_site(&mut self, now: SimTime, s: usize) {
        self.flush_async(now, s);
        let queued = std::mem::take(&mut self.deferred_site[s]);
        for (msg, snap) in queued {
            self.on_msg(now, NodeId::local(s as u32), msg, snap);
        }
    }

    /// The central complex crashes: resident transactions are killed (the
    /// seizures they hold at master sites are released), the central lock
    /// table is cleared, and interrupted asynchronous-update applications
    /// are queued durably for replay. Shipped transactions still on the
    /// wire or at their origin survive — their messages wait for recovery.
    fn crash_central(&mut self, now: SimTime) {
        // The controller coordinates every copy and switchover through
        // the central complex: all in-flight migrations die with it.
        self.abort_migrations(now, |_| true);
        for k in 0..self.n_shards {
            let evicted = self.centrals[k].cpu.drain(now);
            for job in evicted {
                if let Some(key) = self.jobs.take_key(job.id) {
                    self.queue.cancel(key);
                }
                match self.jobs.remove(job.id).expect("drained unknown job") {
                    JobKind::TxnPhase(_) => {}
                    // Update applications are redo-logged durably; replayed
                    // on recovery.
                    kind @ (JobKind::ApplyAsync { .. } | JobKind::ShardCommitApply { .. }) => {
                        self.central_replay.push((k, kind));
                    }
                    // In-flight cross-shard coordination dies with the
                    // complex; the requesters are killed below.
                    JobKind::ShardLock { .. } => {}
                    JobKind::ShardAuthFanout { locks, .. } => self.pool_locks.put(locks),
                    JobKind::AuthProcess { .. } | JobKind::ApplyCommit { .. } => {
                        unreachable!("site-side job at the central complex")
                    }
                }
            }
        }
        let mut victims: Vec<u64> = self
            .txns
            .values()
            .filter(|t| t.in_central_count)
            .map(|t| t.id)
            .collect();
        victims.sort_unstable();
        for id in victims {
            self.crash_kill(now, id, true);
        }
        for k in 0..self.n_shards {
            let lost = std::mem::replace(&mut self.centrals[k].locks, LockTable::new());
            self.absorb_lock_stats(lost.stats());
            self.centrals[k]
                .locks
                .set_profiling(self.profiler.enabled());
            self.centrals[k].foreign_auth.clear();
            debug_assert_eq!(self.centrals[k].n_txns, 0, "central crash left residents");
        }
    }

    /// Recovery: interrupted update applications restart first (their
    /// messages were consumed before the crash), then deferred traffic in
    /// arrival order — preserving per-site FIFO application.
    fn recover_central(&mut self, now: SimTime) {
        let replay = std::mem::take(&mut self.central_replay);
        for (k, kind) in replay {
            let instr = match &kind {
                JobKind::ApplyAsync { .. } => self.cfg.params.async_update_instr,
                JobKind::ShardCommitApply { .. } => self.cfg.params.shard_op_instr,
                _ => unreachable!("non-replayable job in the replay log"),
            };
            self.submit_cpu(now, Locale::Central(k), kind, instr);
        }
        let queued = std::mem::take(&mut self.deferred_central);
        for (to, msg, snap) in queued {
            self.on_msg(now, to, msg, snap);
        }
    }

    /// Removes a crash victim, releasing whatever it holds in the
    /// surviving lock tables (crashed tables are cleared wholesale).
    fn crash_kill(&mut self, now: SimTime, id: u64, central_cause: bool) {
        let mut txn = self.txns.remove(id).expect("crash victim");
        let owner = OwnerId(id);
        // Locks seized at master sites during authentication.
        let auth_sites = std::mem::take(&mut txn.auth_sites);
        for &a in &auth_sites {
            if self.site_up[a] {
                let grants = self.sites[a].locks.release_all(owner);
                self.resume_grants(now, &grants, Locale::Site(a));
            }
        }
        self.pool_sites.put(auth_sites);
        // Locks held or awaited at the central complex (if it survives),
        // including cross-shard grants at foreign shards.
        if self.central_up && txn.route == Route::Central {
            let k = self.shard_map.home_of(txn.spec.origin) as usize;
            let grants = self.centrals[k].locks.release_all(owner);
            self.resume_grants(now, &grants, Locale::Central(k));
            for j in std::mem::take(&mut txn.remote_shards) {
                let grants = self.centrals[j as usize].locks.release_all(owner);
                self.resume_grants(now, &grants, Locale::Central(j as usize));
            }
        }
        if txn.in_central_count {
            self.centrals[self.shard_map.home_of(txn.spec.origin) as usize].n_txns -= 1;
        }
        // Drop any delegation records still tracking this transaction.
        if self.n_shards > 1 {
            for k in 0..self.n_shards {
                if let Some(entry) = self.centrals[k].foreign_auth.remove(&id) {
                    self.pool_sites.put(entry.sites);
                }
            }
        }
        let route = txn.route;
        self.metrics.on_availability(now, |a| {
            if central_cause {
                a.crash_aborts_central += 1;
            } else {
                a.crash_aborts_site += 1;
            }
        });
        self.trace(now, || TraceEvent::CrashAbort { txn: id, route });
        self.placement_release_txn(now, &txn.spec.locks);
    }

    // ------------------------------------------------------------------
    // Finalization
    // ------------------------------------------------------------------

    /// Merges a lock table's operation counters into the profiler under
    /// the `lock.*` keys (no-op when profiling is off).
    fn absorb_lock_stats(&mut self, stats: &LockStats) {
        self.profiler.absorb("lock.request", &stats.request);
        self.profiler.absorb("lock.release_all", &stats.release_all);
        self.profiler.absorb("lock.release_one", &stats.release_one);
        self.profiler.absorb("lock.cancel_wait", &stats.cancel_wait);
        self.profiler
            .absorb("lock.force_acquire", &stats.force_acquire);
    }

    fn finalize(&mut self) -> RunMetrics {
        let rho_local = self
            .sites
            .iter()
            .map(|s| {
                s.cpu.utilization(
                    self.end,
                    SimTime::from_secs(self.cfg.warmup),
                    s.busy_at_warmup,
                )
            })
            .sum::<f64>()
            / self.sites.len() as f64;
        let rho_central = self
            .centrals
            .iter()
            .map(|c| {
                c.cpu.utilization(
                    self.end,
                    SimTime::from_secs(self.cfg.warmup),
                    c.busy_at_warmup,
                )
            })
            .sum::<f64>()
            / self.centrals.len() as f64;
        let by_kind = self.msg_counts.sorted();
        let downtime = self
            .cfg
            .fault_schedule
            .downtime_within(self.cfg.warmup, self.cfg.sim_time);
        let profile = if self.profiler.enabled() {
            let mut tables: Vec<LockStats> =
                self.sites.iter().map(|s| s.locks.stats().clone()).collect();
            tables.extend(self.centrals.iter().map(|c| c.locks.stats().clone()));
            for stats in &tables {
                self.absorb_lock_stats(stats);
            }
            Some(self.profiler.report())
        } else {
            None
        };
        let mut m = self.metrics.finalize(
            self.end,
            rho_local,
            rho_central,
            self.net.messages_sent(),
            downtime,
            profile,
        );
        m.messages_by_kind = by_kind;
        if self.cfg.scale_metrics {
            let state_bytes = self.state_bytes();
            let peak = self.peak_txns as u64;
            m.scale = Some(ScaleReport {
                n_sites: self.cfg.params.n_sites,
                n_shards: self.n_shards,
                peak_in_flight: peak,
                state_bytes,
                bytes_per_txn: state_bytes as f64 / peak.max(1) as f64,
                cross_shard_messages: self.net.messages_cross_shard(),
                cross_shard_denials: self.cross_denials,
                remote_lock_grants: self.remote_grant_count,
            });
        }
        if let Some(p) = self.placement.as_ref() {
            let total = p.class_a_admitted + p.class_b_admitted;
            let rate = |n: u64| {
                if total > 0 {
                    n as f64 / total as f64
                } else {
                    0.0
                }
            };
            m.placement = Some(PlacementReport {
                policy: match self.cfg.placement.policy {
                    PlacementPolicy::Static => "static",
                    PlacementPolicy::Threshold { .. } => "threshold",
                    PlacementPolicy::Epoch => "epoch",
                }
                .to_string(),
                epoch: p.map.epoch(),
                migrations_planned: p.migrations_planned,
                migrations_completed: p.migrations_completed,
                migrations_aborted: p.migrations_aborted,
                bytes_moved: p.bytes_moved,
                parked_admissions: p.parked_admissions,
                class_a_admitted: p.class_a_admitted,
                class_b_admitted: p.class_b_admitted,
                class_b_rate: rate(p.class_b_admitted),
                class_b_rate_static: rate(p.class_b_static),
            });
        }
        m
    }

    /// Estimated resident state footprint: transaction records, CPU job
    /// slots, and per-node replica stores, update buffers, and lock
    /// grants. Entry sizes are fixed estimates (a map entry's key, value,
    /// and bucket overhead), so the figure is comparable across backends
    /// and shard counts rather than allocator-exact.
    ///
    /// The transaction and job terms are slab capacities times
    /// `size_of::<Option<Txn>>()` and the job-slot size, and perfbench's
    /// digests hash the result: changing either size, or the slabs'
    /// growth, changes every perfbench digest. The sizes are pinned by
    /// `tests::state_bytes_layout_is_pinned`.
    fn state_bytes(&self) -> u64 {
        const STORE_ENTRY: usize = 24;
        const GRANT_ENTRY: usize = 48;
        let mut total = self.txns.approx_bytes() + self.jobs.approx_bytes();
        for s in &self.sites {
            total += s.store.len() * STORE_ENTRY
                + s.async_buffer.capacity() * std::mem::size_of::<(LockId, u64)>()
                + s.locks.grants_count() * GRANT_ENTRY;
        }
        for c in &self.centrals {
            total += c.store.len() * STORE_ENTRY + c.locks.grants_count() * GRANT_ENTRY;
        }
        total as u64
    }
}

/// Convenience wrapper: build and run in one call.
///
/// # Errors
///
/// Returns a [`ConfigError`] naming the violated constraint for an
/// inconsistent configuration.
pub fn run_simulation(cfg: SystemConfig, router: RouterSpec) -> Result<RunMetrics, ConfigError> {
    Ok(HybridSystem::new(cfg, router)?.run())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `state_bytes` multiplies these two sizes by the transaction and
    /// job slab capacities, and perfbench's digests hash
    /// `ScaleReport.state_bytes`: changing either size, or the slabs'
    /// growth, changes every perfbench digest. Measured on x86_64 with
    /// rustc 1.95.0. A layout change has to re-pin the digests on
    /// purpose, and this test says so before the benchmark does.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn state_bytes_layout_is_pinned() {
        assert_eq!(
            std::mem::size_of::<Option<Txn>>(),
            192,
            "Option<Txn> changed size: every perfbench digest moves with it"
        );
        assert_eq!(
            JobSlab::<JobKind, EventKey>::SLOT_BYTES,
            88,
            "the job slot changed size: every perfbench digest moves with it"
        );
    }
}
