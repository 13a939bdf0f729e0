//! # hls-lockmgr — lock manager for the hybrid DBMS
//!
//! Implements the lock machinery described in Section 2 of Ciciani, Dias &
//! Yu (ICDCS 1988): each lock carries a **concurrency control field**
//! (share/exclusive holders with a FIFO wait queue) and a **coherence
//! control field** (a count of asynchronous updates in flight to the central
//! site). The table also supports the **forcible acquisition** used by the
//! authentication phase, in which a central or shipped transaction seizes
//! locks from incompatible local holders, and **deadlock detection**.
//!
//! The production [`LockTable`] is the *indexed* implementation: each
//! owner that holds or waits is interned into a dense per-table slot
//! (its wait, held locks, incoming holder-edge count and probe stamp),
//! each lock in use into a dense entry slot (holders, FIFO queue ends,
//! coherence count), and waiter queues live in an arena addressed by
//! stable `u32` handles. All three recycle freed places through free
//! lists, so the release paths never scan the table and a steady state
//! reuses its memory. The wait-for graph is implicit: a waiter's blockers
//! are read off its entry's holders and the waiters ahead of it in the
//! FIFO when a probe needs them, and no edge is stored. Both deadlock
//! probes return at once when no edge enters the probed owner. Past that
//! exit a verdict walks holder edges alone, without hashing, and a caller
//! that asks for the cycle's members gets one depth-first search. The
//! earlier scan-based semantics are preserved verbatim as
//! [`model::ReferenceLockTable`], the oracle for the model-based
//! differential suite in `tests/differential.rs`. The indexed table's
//! speedups over it are recorded in EXPERIMENTS.md.
//!
//! The table keeps no timing or call counts of its own: the simulator
//! times each operation where it calls it, under the `lock.*` rows of its
//! one `hls_obs::Profiler`.
//!
//! # Examples
//!
//! ```
//! use hls_lockmgr::{LockId, LockMode, LockTable, OwnerId, RequestOutcome};
//!
//! let mut table = LockTable::new();
//! let local_txn = OwnerId(1);
//! assert_eq!(
//!     table.request(local_txn, LockId(42), LockMode::Exclusive),
//!     RequestOutcome::Granted
//! );
//! // Commit: release, then mark the update as in flight to the central site.
//! table.release_all(local_txn);
//! table.incr_coherence(LockId(42));
//! assert_eq!(table.coherence(LockId(42)), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod model;
mod table;
mod types;

pub use table::{ForceOutcome, Grant, LockTable, RequestOutcome};
pub use types::{LockId, LockMode, OwnerId};
