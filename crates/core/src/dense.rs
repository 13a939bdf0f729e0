//! Dense storage for the simulator's per-event hot state.
//!
//! The event loop used to route every lookup through SipHash
//! `HashMap<u64, _>` maps: `txns` (large `Txn` values moved around by
//! rehashes, probed several times per event), `jobs` and `cpu_keys`
//! (two parallel maps touched on every CPU submit/complete). This
//! module replaces them:
//!
//! * [`TxnTable`] — a generational slab of transactions. `Txn` payloads
//!   live in dense slots recycled through a free list; the public
//!   transaction ids (which must stay sequential `u64`s — victim
//!   selection and the trace schema depend on them) resolve to slots
//!   through one [`FxHashMap`] of small `u64 → u32` entries, the "map
//!   that must remain a map".
//! * [`JobSlab`] — CPU jobs keyed by self-describing ids: the slot index
//!   lives in the id's low 32 bits, so lookup is map-free array access,
//!   and the high bits carry a monotone sequence so (a) a stale id can
//!   never alias a recycled slot and (b) sorting job ids still sorts by
//!   submission order, which the crash-drain path relies on. Each slot
//!   holds the job's work item *and* its pending `CpuDone` cancellation
//!   key, fusing the old `jobs` + `cpu_keys` pair.
//! * [`VecPool`] — a free list of cleared `Vec`s so the per-event lock
//!   lists, write sets and auth-site lists recycle their allocations
//!   instead of hitting the allocator in steady state.
//! * [`MsgCounts`] — per-kind message counters as a fixed array indexed
//!   by [`Msg::kind_index`], replacing a `HashMap<&'static str, u64>`
//!   probed on every send.

use hls_sim::FxHashMap;

use crate::msg::Msg;
use crate::txn::Txn;

/// In-flight transactions, indexed by transaction id: a generational
/// slab whose only hashed structure is the id → slot index with 12-byte
/// entries, not whole `Txn`s.
#[derive(Debug)]
pub(crate) struct TxnTable {
    slots: Vec<Option<Txn>>,
    free: Vec<u32>,
    by_id: FxHashMap<u64, u32>,
}

impl TxnTable {
    pub(crate) fn new() -> Self {
        TxnTable {
            slots: Vec::new(),
            free: Vec::new(),
            by_id: FxHashMap::default(),
        }
    }

    /// Number of in-flight transactions.
    pub(crate) fn len(&self) -> usize {
        self.by_id.len()
    }

    pub(crate) fn insert(&mut self, id: u64, txn: Txn) {
        debug_assert_eq!(txn.id, id, "txn stored under a foreign id");
        let slot = match self.free.pop() {
            Some(s) => {
                debug_assert!(self.slots[s as usize].is_none());
                self.slots[s as usize] = Some(txn);
                s
            }
            None => {
                let s = self.slots.len() as u32;
                self.slots.push(Some(txn));
                s
            }
        };
        let prev = self.by_id.insert(id, slot);
        debug_assert!(prev.is_none(), "transaction {id} inserted twice");
    }

    pub(crate) fn remove(&mut self, id: u64) -> Option<Txn> {
        let slot = self.by_id.remove(&id)?;
        self.free.push(slot);
        let txn = self.slots[slot as usize].take();
        debug_assert!(txn.is_some(), "index pointed at an empty slot");
        txn
    }

    pub(crate) fn contains(&self, id: u64) -> bool {
        self.by_id.contains_key(&id)
    }

    pub(crate) fn get(&self, id: u64) -> Option<&Txn> {
        let &slot = self.by_id.get(&id)?;
        self.slots[slot as usize].as_ref()
    }

    pub(crate) fn get_mut(&mut self, id: u64) -> Option<&mut Txn> {
        let &slot = self.by_id.get(&id)?;
        self.slots[slot as usize].as_mut()
    }

    /// Estimated resident bytes of the table's backing storage (slot
    /// arrays at capacity plus the id index), for the topology-scaling
    /// memory report. An estimate — hash-map overhead is approximated at
    /// 1.5× the entry payload.
    pub(crate) fn approx_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<Option<Txn>>()
            + self.free.capacity() * std::mem::size_of::<u32>()
            + self.by_id.len() * 18
    }

    /// Iterates over in-flight transactions in slot order. Deterministic
    /// for a given event history, but *not* id order — callers that let
    /// iteration order reach simulation state must sort (the crash
    /// handlers collect victim ids and sort before killing).
    pub(crate) fn values(&self) -> impl Iterator<Item = &Txn> + '_ {
        self.slots.iter().filter_map(Option::as_ref)
    }

    /// See [`TxnTable::values`] for ordering caveats.
    pub(crate) fn values_mut(&mut self) -> impl Iterator<Item = &mut Txn> + '_ {
        self.slots.iter_mut().filter_map(Option::as_mut)
    }
}

impl std::ops::Index<u64> for TxnTable {
    type Output = Txn;

    fn index(&self, id: u64) -> &Txn {
        self.get(id).expect("unknown transaction")
    }
}

/// In-flight CPU jobs with their pending completion-event keys.
///
/// A job id is `(seq << 32) | slot` — the low half locates the slot
/// without a map, the high half is a monotone submission sequence, so
/// ids are unique across slot reuse and sort in submission order (which
/// is what the crash-drain sort relies on). `K` is the work-item
/// payload, `Y` the pending completion-event key.
#[derive(Debug)]
pub(crate) struct JobSlab<K, Y> {
    slots: Vec<JobSlot<K, Y>>,
    free: Vec<u32>,
    next_seq: u32,
}

#[derive(Debug)]
struct JobSlot<K, Y> {
    /// Full composite id of the occupant (stale-id detection).
    id: u64,
    kind: Option<K>,
    /// Cancellation key for the job's in-service completion event, if
    /// one is scheduled.
    key: Option<Y>,
}

impl<K, Y> JobSlab<K, Y> {
    /// Bytes of one slot, the unit of [`JobSlab::approx_bytes`].
    pub(crate) const SLOT_BYTES: usize = std::mem::size_of::<JobSlot<K, Y>>();

    pub(crate) fn new() -> Self {
        JobSlab {
            slots: Vec::new(),
            free: Vec::new(),
            next_seq: 1,
        }
    }

    /// Registers a job and returns its id.
    pub(crate) fn insert(&mut self, kind: K) -> u64 {
        let seq = self.next_seq;
        self.next_seq = seq.checked_add(1).expect("job sequence exhausted");
        match self.free.pop() {
            Some(slot) => {
                let id = (u64::from(seq) << 32) | u64::from(slot);
                let s = &mut self.slots[slot as usize];
                debug_assert!(s.kind.is_none() && s.key.is_none());
                s.id = id;
                s.kind = Some(kind);
                id
            }
            None => {
                let slot = self.slots.len() as u32;
                let id = (u64::from(seq) << 32) | u64::from(slot);
                self.slots.push(JobSlot {
                    id,
                    kind: Some(kind),
                    key: None,
                });
                id
            }
        }
    }

    /// Attaches the completion-event cancellation key of a job entering
    /// service.
    pub(crate) fn set_key(&mut self, id: u64, key: Y) {
        let idx = self.index_of(id).expect("key for unknown job");
        debug_assert!(self.slots[idx].key.is_none(), "job already has a key");
        self.slots[idx].key = Some(key);
    }

    /// Detaches a job's pending completion key, if any — used both when
    /// the completion fires (key consumed) and when a crash needs to
    /// cancel it.
    pub(crate) fn take_key(&mut self, id: u64) -> Option<Y> {
        let idx = self.index_of(id)?;
        self.slots[idx].key.take()
    }

    /// Estimated resident bytes of the slab's backing storage, for the
    /// topology-scaling memory report.
    pub(crate) fn approx_bytes(&self) -> usize {
        self.slots.capacity() * Self::SLOT_BYTES + self.free.capacity() * std::mem::size_of::<u32>()
    }

    /// Removes a job, returning its work item. `None` for unknown ids.
    pub(crate) fn remove(&mut self, id: u64) -> Option<K> {
        let idx = self.index_of(id)?;
        debug_assert!(
            self.slots[idx].key.is_none(),
            "job removed with a live completion key"
        );
        self.free.push(idx as u32);
        self.slots[idx].kind.take()
    }

    fn index_of(&self, id: u64) -> Option<usize> {
        let idx = (id & 0xFFFF_FFFF) as usize;
        let slot = self.slots.get(idx)?;
        (slot.id == id && slot.kind.is_some()).then_some(idx)
    }
}

/// Bounded free list of cleared `Vec<T>`s. `take` hands out a recycled
/// vector (empty, with its old capacity) or a fresh one; `put` clears
/// and shelves it for reuse.
#[derive(Debug)]
pub(crate) struct VecPool<T> {
    spare: Vec<Vec<T>>,
}

/// Per-pool retention cap: enough for every in-flight message of one
/// kind in practice, while bounding worst-case retained memory.
const POOL_CAP: usize = 64;

impl<T> VecPool<T> {
    pub(crate) fn new() -> Self {
        VecPool { spare: Vec::new() }
    }

    pub(crate) fn take(&mut self) -> Vec<T> {
        self.spare.pop().unwrap_or_default()
    }

    pub(crate) fn put(&mut self, mut v: Vec<T>) {
        if self.spare.len() < POOL_CAP && v.capacity() > 0 {
            v.clear();
            self.spare.push(v);
        }
    }
}

/// Per-kind message counters, bumped on every `send`: a fixed array
/// indexed by [`Msg::kind_index`] — no hashing.
#[derive(Debug)]
pub(crate) struct MsgCounts([u64; Msg::KIND_COUNT]);

impl MsgCounts {
    pub(crate) fn new() -> Self {
        MsgCounts([0; Msg::KIND_COUNT])
    }

    pub(crate) fn record(&mut self, msg: &Msg) {
        self.0[msg.kind_index()] += 1;
    }

    /// Kinds actually seen, sorted by name — exactly the shape the
    /// metrics have always reported.
    pub(crate) fn sorted(&self) -> Vec<(String, u64)> {
        let mut by_kind: Vec<(String, u64)> = Msg::KIND_NAMES
            .iter()
            .zip(self.0.iter())
            .filter(|&(_, &v)| v > 0)
            .map(|(&k, &v)| (k.to_string(), v))
            .collect();
        by_kind.sort();
        by_kind
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_ids_sort_in_submission_order_across_reuse() {
        let mut slab = JobSlab::<&str, ()>::new();
        let a = slab.insert("a");
        let b = slab.insert("b");
        assert_eq!(slab.remove(a), Some("a"));
        let c = slab.insert("c"); // reuses a's slot
        let d = slab.insert("d");
        assert!(a < b && b < c && c < d, "ids must sort by submission");
        assert_eq!(slab.remove(b), Some("b"));
        assert_eq!(slab.remove(c), Some("c"));
        assert_eq!(slab.remove(d), Some("d"));
    }

    #[test]
    fn stale_job_ids_do_not_alias_reused_slots() {
        let mut slab: JobSlab<u32, ()> = JobSlab::new();
        let a = slab.insert(1);
        assert_eq!(slab.remove(a), Some(1));
        let b = slab.insert(2); // same slot, new seq
        assert_eq!(slab.remove(a), None, "stale id must miss");
        assert_eq!(slab.take_key(a), None);
        assert_eq!(slab.remove(b), Some(2));
    }

    #[test]
    fn job_keys_attach_and_detach() {
        let mut slab = JobSlab::<&str, u64>::new();
        let a = slab.insert("svc");
        slab.set_key(a, 99);
        assert_eq!(slab.take_key(a), Some(99));
        assert_eq!(slab.take_key(a), None);
        assert_eq!(slab.remove(a), Some("svc"));
    }

    #[test]
    fn vec_pool_recycles_capacity() {
        let mut pool: VecPool<u64> = VecPool::new();
        let mut v = pool.take();
        v.extend(0..100);
        let cap = v.capacity();
        pool.put(v);
        let v2 = pool.take();
        assert!(v2.is_empty());
        assert_eq!(v2.capacity(), cap);
    }

    #[test]
    fn vec_pool_drops_zero_capacity_vecs() {
        let mut pool: VecPool<u64> = VecPool::new();
        pool.put(Vec::new());
        assert_eq!(pool.take().capacity(), 0);
    }

    #[test]
    fn msg_counts_report_seen_kinds_by_name() {
        let mut counts = MsgCounts::new();
        for m in [
            Msg::Reply { txn: 1 },
            Msg::ShipTxn { txn: 2 },
            Msg::Reply { txn: 3 },
        ] {
            counts.record(&m);
        }
        assert_eq!(
            counts.sorted(),
            vec![("reply".to_string(), 2), ("ship".to_string(), 1)]
        );
    }
}
