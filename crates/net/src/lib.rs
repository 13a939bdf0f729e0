//! # hls-net — communications model for the hybrid architecture
//!
//! The hybrid system of Ciciani, Dias & Yu (ICDCS 1988) connects `N`
//! geographically distributed sites to one central computing complex through
//! long-haul links modelled as **fixed propagation delays with in-order
//! (FIFO) delivery**. In-order delivery matters: the protocol requires that
//! asynchronous update messages from a local site are processed at the
//! central site in the order they were originated.
//!
//! This crate provides:
//!
//! * [`NodeId`] — endpoints (local sites and the central complex),
//! * [`StarNetwork`] — per-direction links with configurable delay, FIFO
//!   enforcement, per-link up/down state, latency-degradation factors, and
//!   traffic counters,
//! * [`Envelope`] — a delivery record handed back to the caller's event loop.
//!
//! The network does not own the event queue: [`StarNetwork::send`] computes
//! the delivery time and the caller schedules the arrival event, which keeps
//! the simulator single-threaded and deterministic.
//!
//! # Link failures and degradation
//!
//! Each site's link can be taken down ([`StarNetwork::set_link_up`]) or
//! slowed by a multiplicative latency factor
//! ([`StarNetwork::set_slow_factor`]) — the hooks used by the `hls-faults`
//! fault-injection subsystem. [`StarNetwork::try_send`] refuses delivery on
//! a downed link and hands the payload back so the caller can buffer it
//! (store-and-forward); [`StarNetwork::send`] panics instead, so callers
//! that have already checked [`StarNetwork::link_is_up`] keep the
//! infallible API.
//!
//! # Counter semantics
//!
//! The counters partition every send *attempt*:
//!
//! * [`StarNetwork::messages_sent`] — messages **accepted for delivery**
//!   (the link was up at send time). Equals
//!   [`StarNetwork::messages_to_central`] + [`StarNetwork::messages_from_central`]
//!   + [`StarNetwork::messages_cross_shard`].
//! * [`StarNetwork::messages_dropped`] — attempts refused by
//!   [`StarNetwork::try_send`] because the link was down. Dropped messages
//!   are *not* counted in `messages_sent`; a later re-send after recovery
//!   counts as a fresh attempt.
//! * [`StarNetwork::messages_delayed`] — the subset of `messages_sent` that
//!   was transmitted while the link's slow factor exceeded 1 (latency-spike
//!   windows).
//!
//! Total attempts = `messages_sent() + messages_dropped()`. With no fault
//! schedule all links stay up at factor 1, so `messages_dropped` and
//! `messages_delayed` are zero and `messages_sent` matches the pre-fault
//! behaviour exactly.
//!
//! # Examples
//!
//! ```
//! use hls_net::{NodeId, StarNetwork};
//! use hls_sim::{SimDuration, SimTime};
//!
//! let mut net = StarNetwork::new(3, SimDuration::from_secs(0.2));
//! let e = net.send(SimTime::ZERO, NodeId::local(1), NodeId::CENTRAL, "hello");
//! assert_eq!(e.deliver_at, SimTime::from_secs(0.2));
//! assert_eq!(net.messages_sent(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod islands;

use std::fmt;

pub use islands::{DelayMatrix, IslandSpec};

use hls_sim::{SimDuration, SimTime};

/// Maximum number of central shards a network can address. Shard ids are
/// carved out of the top of the `u32` space, so site indices must stay
/// below `u32::MAX - MAX_SHARDS`.
pub const MAX_SHARDS: u32 = 4096;

/// First `u32` value reserved for shard endpoints.
const SHARD_BASE: u32 = u32::MAX - (MAX_SHARDS - 1);

/// A network endpoint: one of the distributed sites, or a node of the
/// central complex.
///
/// The central complex may be *sharded* into up to [`MAX_SHARDS`] nodes;
/// shard 0 is the classic single central complex ([`NodeId::CENTRAL`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u32);

impl NodeId {
    /// The central computing complex (shard 0 of a sharded complex).
    pub const CENTRAL: NodeId = NodeId(u32::MAX);

    /// The `index`-th distributed (local) site.
    #[must_use]
    pub fn local(index: u32) -> NodeId {
        assert!(
            index < SHARD_BASE,
            "local site index reserved for central shards"
        );
        NodeId(index)
    }

    /// The `k`-th central shard. `shard(0)` is [`NodeId::CENTRAL`].
    ///
    /// # Panics
    ///
    /// Panics if `k >= MAX_SHARDS`.
    #[must_use]
    pub fn shard(k: u32) -> NodeId {
        assert!(k < MAX_SHARDS, "shard index {k} >= MAX_SHARDS");
        NodeId(u32::MAX - k)
    }

    /// Returns `true` for any node of the central complex (any shard).
    #[must_use]
    pub fn is_central(self) -> bool {
        self.0 >= SHARD_BASE
    }

    /// The site index for a local node.
    ///
    /// # Panics
    ///
    /// Panics when called on a central shard.
    #[must_use]
    pub fn local_index(self) -> usize {
        assert!(!self.is_central(), "CENTRAL has no local index");
        self.0 as usize
    }

    /// The shard index for a central node (0 for [`NodeId::CENTRAL`]).
    ///
    /// # Panics
    ///
    /// Panics when called on a local site.
    #[must_use]
    pub fn shard_index(self) -> usize {
        assert!(self.is_central(), "local sites have no shard index");
        (u32::MAX - self.0) as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self == &NodeId::CENTRAL {
            write!(f, "central")
        } else if self.is_central() {
            write!(f, "shard{}", self.shard_index())
        } else {
            write!(f, "site{}", self.0)
        }
    }
}

/// A message delivery computed by the network: the caller schedules an
/// arrival event at `deliver_at`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Envelope<P> {
    /// Sender endpoint.
    pub from: NodeId,
    /// Receiver endpoint.
    pub to: NodeId,
    /// Absolute delivery time (send time + link delay, adjusted to keep
    /// per-link FIFO order).
    pub deliver_at: SimTime,
    /// The message payload.
    pub payload: P,
}

/// Star topology: every local site has a full-duplex link to the central
/// complex. Local sites do not talk to each other directly (matching the
/// paper's architecture, Figure 2.1).
///
/// Each direction of each link delivers in FIFO order. With a constant
/// delay this holds automatically; the network still enforces it so that
/// future variable-delay extensions cannot silently reorder protocol
/// messages.
#[derive(Debug, Clone)]
pub struct StarNetwork {
    n_sites: usize,
    n_shards: usize,
    delay: SimDuration,
    /// Per-site one-way link delay. Initialized to `delay` everywhere; a
    /// heterogeneous topology overrides it via
    /// [`StarNetwork::set_site_delays`]. The uniform default makes the
    /// legacy path's arithmetic bit-identical: `site_delays[s]` *is*
    /// `delay` for every site.
    site_delays: Vec<SimDuration>,
    /// Last scheduled delivery per directed link: `[site][0]` = site->central,
    /// `[site][1]` = central->site.
    last_delivery: Vec<[SimTime; 2]>,
    /// FIFO floors of the shard interconnect, flattened `[from * n_shards +
    /// to]`. Empty while `n_shards == 1` (no interconnect exists).
    cross_last_delivery: Vec<SimTime>,
    /// Home shard per site, when the caller registered a shard map: each
    /// site's one link terminates at its home shard, and sends are checked
    /// against it.
    home_shards: Vec<u32>,
    links: Vec<LinkState>,
    messages: u64,
    messages_up: u64,
    messages_down: u64,
    cross: u64,
    dropped: u64,
    delayed: u64,
}

/// Failure state of one site's full-duplex link.
#[derive(Debug, Clone, Copy, PartialEq)]
struct LinkState {
    up: bool,
    slow_factor: f64,
}

impl Default for LinkState {
    fn default() -> Self {
        LinkState {
            up: true,
            slow_factor: 1.0,
        }
    }
}

impl StarNetwork {
    /// Creates a star network of `n_sites` local sites with the given
    /// one-way link delay.
    ///
    /// # Panics
    ///
    /// Panics if `n_sites` is zero.
    #[must_use]
    pub fn new(n_sites: usize, delay: SimDuration) -> Self {
        StarNetwork::new_sharded(n_sites, 1, delay)
    }

    /// Creates a star-of-stars network: `n_sites` local sites, each linked
    /// to its home shard of a `n_shards`-node central complex, plus a
    /// full-mesh shard interconnect with the same one-way delay. With
    /// `n_shards == 1` this is exactly [`StarNetwork::new`].
    ///
    /// # Panics
    ///
    /// Panics if `n_sites` or `n_shards` is zero, or `n_shards` exceeds
    /// [`MAX_SHARDS`].
    #[must_use]
    pub fn new_sharded(n_sites: usize, n_shards: usize, delay: SimDuration) -> Self {
        assert!(n_sites > 0, "a hybrid system needs at least one local site");
        assert!(
            n_shards > 0 && n_shards <= MAX_SHARDS as usize,
            "n_shards must be in 1..={MAX_SHARDS}, got {n_shards}"
        );
        StarNetwork {
            n_sites,
            n_shards,
            delay,
            site_delays: vec![delay; n_sites],
            last_delivery: vec![[SimTime::ZERO; 2]; n_sites],
            cross_last_delivery: if n_shards > 1 {
                vec![SimTime::ZERO; n_shards * n_shards]
            } else {
                Vec::new()
            },
            home_shards: Vec::new(),
            links: vec![LinkState::default(); n_sites],
            messages: 0,
            messages_up: 0,
            messages_down: 0,
            cross: 0,
            dropped: 0,
            delayed: 0,
        }
    }

    /// Registers each site's home shard. Once set, every site-link send is
    /// checked against the map: a site only ever exchanges messages with
    /// its home shard (the hierarchical-routing invariant).
    ///
    /// # Panics
    ///
    /// Panics if the map's length differs from `n_sites` or any entry is
    /// not a valid shard index.
    pub fn set_home_shards(&mut self, homes: Vec<u32>) {
        assert_eq!(homes.len(), self.n_sites, "one home shard per site");
        assert!(
            homes.iter().all(|&h| (h as usize) < self.n_shards),
            "home shard out of range"
        );
        self.home_shards = homes;
    }

    /// Number of local sites.
    #[must_use]
    pub fn n_sites(&self) -> usize {
        self.n_sites
    }

    /// Number of central shards (1 = the classic single complex).
    #[must_use]
    pub fn n_shards(&self) -> usize {
        self.n_shards
    }

    /// One-way link delay (the nominal/uniform value; see
    /// [`StarNetwork::site_delay`] for a specific site's link).
    #[must_use]
    pub fn delay(&self) -> SimDuration {
        self.delay
    }

    /// One-way link delay of `site`'s link to its home shard.
    ///
    /// # Panics
    ///
    /// Panics if `site` is out of range.
    #[must_use]
    pub fn site_delay(&self, site: usize) -> SimDuration {
        self.site_delays[site]
    }

    /// Overrides each site's one-way link delay (seconds), turning the
    /// uniform star into a heterogeneous topology. Cross-shard
    /// interconnect delays are unaffected (the complex shares a machine
    /// room regardless of where the sites live).
    ///
    /// # Panics
    ///
    /// Panics if the slice length differs from `n_sites` or any delay
    /// is negative or non-finite.
    pub fn set_site_delays(&mut self, delays: &[f64]) {
        assert_eq!(delays.len(), self.n_sites, "one delay per site");
        assert!(
            delays.iter().all(|d| d.is_finite() && *d >= 0.0),
            "site delays must be finite and >= 0"
        );
        self.site_delays = delays.iter().map(|&d| SimDuration::from_secs(d)).collect();
    }

    /// Whether every site link has the same one-way delay.
    #[must_use]
    pub fn uniform_delays(&self) -> bool {
        self.site_delays.iter().all(|&d| d == self.site_delays[0])
    }

    /// Resolves a site/direction pair for a site-link transmission,
    /// panicking on topology violations.
    fn link_of(&self, from: NodeId, to: NodeId) -> (usize, usize) {
        let (site, dir, shard) = match (from.is_central(), to.is_central()) {
            (false, true) => (from.local_index(), 0, to.shard_index()),
            (true, false) => (to.local_index(), 1, from.shard_index()),
            _ => panic!("star topology: exactly one endpoint must be central ({from} -> {to})"),
        };
        assert!(site < self.n_sites, "site index {site} out of range");
        assert!(shard < self.n_shards, "shard index {shard} out of range");
        if !self.home_shards.is_empty() {
            assert!(
                self.home_shards[site] as usize == shard,
                "site {site} may only talk to its home shard {} (got shard {shard})",
                self.home_shards[site],
            );
        }
        (site, dir)
    }

    /// Sends `payload` from `from` to `to` at time `now`, returning the
    /// delivery envelope. Exactly one endpoint must be the central complex.
    ///
    /// # Panics
    ///
    /// Panics if both or neither endpoint is central (local sites have no
    /// direct links), if a site index is out of range, or if the link is
    /// down (use [`StarNetwork::try_send`] to handle failures).
    pub fn send<P>(&mut self, now: SimTime, from: NodeId, to: NodeId, payload: P) -> Envelope<P> {
        match self.try_send(now, from, to, payload) {
            Ok(envelope) => envelope,
            Err(_) => panic!("send on a downed link ({from} -> {to}); use try_send"),
        }
    }

    /// Sends `payload` if the link is up; otherwise counts a drop and hands
    /// the payload back so the caller can buffer it for store-and-forward
    /// delivery after recovery.
    ///
    /// While the link's slow factor exceeds 1 the one-way latency is
    /// multiplied by it and the message is counted as delayed.
    ///
    /// # Errors
    ///
    /// Returns `Err(payload)` when the site's link is down.
    ///
    /// # Panics
    ///
    /// Panics on the same topology violations as [`StarNetwork::send`].
    pub fn try_send<P>(
        &mut self,
        now: SimTime,
        from: NodeId,
        to: NodeId,
        payload: P,
    ) -> Result<Envelope<P>, P> {
        if from.is_central() && to.is_central() {
            return Ok(self.send_cross_shard(now, from, to, payload));
        }
        let (site, dir) = self.link_of(from, to);
        let link = self.links[site];
        if !link.up {
            self.dropped += 1;
            return Err(payload);
        }
        let nominal = now + self.site_delays[site] * link.slow_factor;
        let deliver_at = nominal.max(self.last_delivery[site][dir]);
        self.last_delivery[site][dir] = deliver_at;
        self.messages += 1;
        if dir == 0 {
            self.messages_up += 1;
        } else {
            self.messages_down += 1;
        }
        if link.slow_factor > 1.0 {
            self.delayed += 1;
        }
        Ok(Envelope {
            from,
            to,
            deliver_at,
            payload,
        })
    }

    /// Sends over the shard interconnect: both endpoints are central
    /// shards. Interconnect links are always up (the complex shares a
    /// machine room; availability is modelled at the complex level by the
    /// fault layer) and are not subject to site-link slow factors, but each
    /// directed shard pair keeps its own FIFO floor.
    ///
    /// # Panics
    ///
    /// Panics if either shard index is out of range, or on a self-send.
    fn send_cross_shard<P>(
        &mut self,
        now: SimTime,
        from: NodeId,
        to: NodeId,
        payload: P,
    ) -> Envelope<P> {
        let (f, t) = (from.shard_index(), to.shard_index());
        assert!(
            f < self.n_shards && t < self.n_shards,
            "shard index out of range ({from} -> {to}, n_shards = {})",
            self.n_shards
        );
        assert!(f != t, "cross-shard send requires distinct shards ({from})");
        let slot = f * self.n_shards + t;
        let deliver_at = (now + self.delay).max(self.cross_last_delivery[slot]);
        self.cross_last_delivery[slot] = deliver_at;
        self.messages += 1;
        self.cross += 1;
        Envelope {
            from,
            to,
            deliver_at,
            payload,
        }
    }

    /// Takes the `site`'s link up or down.
    ///
    /// # Panics
    ///
    /// Panics if `site` is out of range.
    pub fn set_link_up(&mut self, site: usize, up: bool) {
        assert!(site < self.n_sites, "site index {site} out of range");
        self.links[site].up = up;
    }

    /// `true` while the `site`'s link is up.
    ///
    /// # Panics
    ///
    /// Panics if `site` is out of range.
    #[must_use]
    pub fn link_is_up(&self, site: usize) -> bool {
        assert!(site < self.n_sites, "site index {site} out of range");
        self.links[site].up
    }

    /// Sets the `site`'s latency multiplier (1.0 = nominal). Used for
    /// latency-spike / jitter fault windows.
    ///
    /// # Panics
    ///
    /// Panics if `site` is out of range or `factor` is not finite and >= 1.
    pub fn set_slow_factor(&mut self, site: usize, factor: f64) {
        assert!(site < self.n_sites, "site index {site} out of range");
        assert!(
            factor.is_finite() && factor >= 1.0,
            "slow factor must be finite and >= 1, got {factor}"
        );
        self.links[site].slow_factor = factor;
    }

    /// The `site`'s current latency multiplier.
    ///
    /// # Panics
    ///
    /// Panics if `site` is out of range.
    #[must_use]
    pub fn slow_factor(&self, site: usize) -> f64 {
        assert!(site < self.n_sites, "site index {site} out of range");
        self.links[site].slow_factor
    }

    /// Messages accepted for delivery in both directions (see the
    /// crate-level *Counter semantics* section).
    #[must_use]
    pub fn messages_sent(&self) -> u64 {
        self.messages
    }

    /// Delivered messages sent from local sites to the central complex.
    #[must_use]
    pub fn messages_to_central(&self) -> u64 {
        self.messages_up
    }

    /// Delivered messages sent from the central complex to local sites.
    #[must_use]
    pub fn messages_from_central(&self) -> u64 {
        self.messages_down
    }

    /// Delivered messages between central shards (always zero for an
    /// unsharded complex).
    #[must_use]
    pub fn messages_cross_shard(&self) -> u64 {
        self.cross
    }

    /// Send attempts refused because the link was down (not included in
    /// [`StarNetwork::messages_sent`]).
    #[must_use]
    pub fn messages_dropped(&self) -> u64 {
        self.dropped
    }

    /// Delivered messages transmitted while the link's slow factor exceeded
    /// 1 (a subset of [`StarNetwork::messages_sent`]).
    #[must_use]
    pub fn messages_delayed(&self) -> u64 {
        self.delayed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs(secs)
    }
    fn d(secs: f64) -> SimDuration {
        SimDuration::from_secs(secs)
    }

    #[test]
    fn delivery_adds_delay() {
        let mut net = StarNetwork::new(2, d(0.2));
        let e = net.send(t(1.0), NodeId::local(0), NodeId::CENTRAL, 42);
        assert_eq!(e.deliver_at, t(1.2));
        assert_eq!(e.payload, 42);
        assert_eq!(e.from, NodeId::local(0));
        assert_eq!(e.to, NodeId::CENTRAL);
    }

    #[test]
    fn fifo_order_per_direction() {
        let mut net = StarNetwork::new(1, d(0.5));
        let a = net.send(t(0.0), NodeId::local(0), NodeId::CENTRAL, 'a');
        let b = net.send(t(0.1), NodeId::local(0), NodeId::CENTRAL, 'b');
        assert!(a.deliver_at <= b.deliver_at);
    }

    #[test]
    fn directions_are_independent() {
        let mut net = StarNetwork::new(1, d(0.5));
        net.send(t(0.0), NodeId::local(0), NodeId::CENTRAL, ());
        let down = net.send(t(0.0), NodeId::CENTRAL, NodeId::local(0), ());
        assert_eq!(down.deliver_at, t(0.5));
        assert_eq!(net.messages_to_central(), 1);
        assert_eq!(net.messages_from_central(), 1);
        assert_eq!(net.messages_sent(), 2);
    }

    #[test]
    fn sites_are_independent() {
        let mut net = StarNetwork::new(3, d(0.2));
        net.send(t(0.0), NodeId::local(0), NodeId::CENTRAL, ());
        let e = net.send(t(0.0), NodeId::local(2), NodeId::CENTRAL, ());
        assert_eq!(e.deliver_at, t(0.2));
    }

    #[test]
    #[should_panic(expected = "exactly one endpoint")]
    fn local_to_local_is_rejected() {
        let mut net = StarNetwork::new(2, d(0.1));
        net.send(t(0.0), NodeId::local(0), NodeId::local(1), ());
    }

    #[test]
    #[should_panic(expected = "distinct shards")]
    fn central_self_send_is_rejected() {
        let mut net = StarNetwork::new(2, d(0.1));
        net.send(t(0.0), NodeId::CENTRAL, NodeId::CENTRAL, ());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn cross_shard_send_requires_enough_shards() {
        // An unsharded network has no interconnect.
        let mut net = StarNetwork::new(2, d(0.1));
        net.send(t(0.0), NodeId::shard(1), NodeId::CENTRAL, ());
    }

    #[test]
    fn shard_node_ids() {
        assert_eq!(NodeId::shard(0), NodeId::CENTRAL);
        assert!(NodeId::shard(3).is_central());
        assert_eq!(NodeId::shard(3).shard_index(), 3);
        assert_eq!(NodeId::CENTRAL.shard_index(), 0);
        assert_eq!(NodeId::shard(3).to_string(), "shard3");
        assert_eq!(NodeId::shard(0).to_string(), "central");
        assert!(!NodeId::local(7).is_central());
    }

    #[test]
    #[should_panic(expected = "no shard index")]
    fn sites_have_no_shard_index() {
        let _ = NodeId::local(2).shard_index();
    }

    #[test]
    fn cross_shard_links_are_fifo_per_directed_pair() {
        let mut net = StarNetwork::new_sharded(2, 4, d(0.2));
        assert_eq!(net.n_shards(), 4);
        let a = net.send(t(0.0), NodeId::shard(1), NodeId::shard(2), 'a');
        let b = net.send(t(0.1), NodeId::shard(1), NodeId::shard(2), 'b');
        assert_eq!(a.deliver_at, t(0.2));
        assert!(a.deliver_at <= b.deliver_at);
        // The opposite direction and other pairs keep their own floors.
        let c = net.send(t(0.0), NodeId::shard(2), NodeId::shard(1), 'c');
        assert_eq!(c.deliver_at, t(0.2));
        assert_eq!(net.messages_cross_shard(), 3);
        assert_eq!(net.messages_sent(), 3);
        assert_eq!(net.messages_to_central(), 0);
    }

    #[test]
    fn site_links_terminate_at_the_home_shard() {
        let mut net = StarNetwork::new_sharded(4, 2, d(0.2));
        net.set_home_shards(vec![0, 0, 1, 1]);
        let e = net.send(t(0.0), NodeId::local(2), NodeId::shard(1), ());
        assert_eq!(e.deliver_at, t(0.2));
        assert_eq!(net.messages_to_central(), 1);
    }

    #[test]
    #[should_panic(expected = "home shard")]
    fn send_to_a_foreign_shard_is_rejected() {
        let mut net = StarNetwork::new_sharded(4, 2, d(0.2));
        net.set_home_shards(vec![0, 0, 1, 1]);
        net.send(t(0.0), NodeId::local(2), NodeId::CENTRAL, ());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_site_is_rejected() {
        let mut net = StarNetwork::new(2, d(0.1));
        net.send(t(0.0), NodeId::local(7), NodeId::CENTRAL, ());
    }

    #[test]
    fn node_id_helpers() {
        assert!(NodeId::CENTRAL.is_central());
        assert!(!NodeId::local(0).is_central());
        assert_eq!(NodeId::local(3).local_index(), 3);
        assert_eq!(NodeId::local(3).to_string(), "site3");
        assert_eq!(NodeId::CENTRAL.to_string(), "central");
    }

    #[test]
    #[should_panic(expected = "no local index")]
    fn central_has_no_local_index() {
        let _ = NodeId::CENTRAL.local_index();
    }

    #[test]
    fn zero_delay_network() {
        let mut net = StarNetwork::new(1, SimDuration::ZERO);
        let e = net.send(t(3.0), NodeId::local(0), NodeId::CENTRAL, ());
        assert_eq!(e.deliver_at, t(3.0));
    }

    #[test]
    fn downed_link_returns_payload_and_counts_drop() {
        let mut net = StarNetwork::new(2, d(0.2));
        net.set_link_up(0, false);
        assert!(!net.link_is_up(0));
        assert!(net.link_is_up(1));
        let back = net.try_send(t(0.0), NodeId::local(0), NodeId::CENTRAL, 42);
        assert_eq!(back, Err(42));
        assert_eq!(net.messages_dropped(), 1);
        assert_eq!(net.messages_sent(), 0);
        // The other site's link is unaffected.
        assert!(net
            .try_send(t(0.0), NodeId::local(1), NodeId::CENTRAL, 43)
            .is_ok());
        assert_eq!(net.messages_sent(), 1);
        // Recovery restores infallible delivery.
        net.set_link_up(0, true);
        let e = net.send(t(1.0), NodeId::CENTRAL, NodeId::local(0), 44);
        assert_eq!(e.deliver_at, t(1.2));
        assert_eq!(net.messages_dropped(), 1);
    }

    #[test]
    #[should_panic(expected = "downed link")]
    fn send_on_downed_link_panics() {
        let mut net = StarNetwork::new(1, d(0.1));
        net.set_link_up(0, false);
        net.send(t(0.0), NodeId::local(0), NodeId::CENTRAL, ());
    }

    #[test]
    fn slow_factor_inflates_latency_and_counts_delayed() {
        let mut net = StarNetwork::new(1, d(0.2));
        net.set_slow_factor(0, 4.0);
        assert_eq!(net.slow_factor(0), 4.0);
        let e = net.send(t(1.0), NodeId::local(0), NodeId::CENTRAL, ());
        assert_eq!(e.deliver_at, t(1.8));
        assert_eq!(net.messages_delayed(), 1);
        // Back to nominal: FIFO still holds against the inflated delivery.
        net.set_slow_factor(0, 1.0);
        let e2 = net.send(t(1.0), NodeId::local(0), NodeId::CENTRAL, ());
        assert_eq!(e2.deliver_at, t(1.8), "FIFO floor from the slow message");
        assert_eq!(net.messages_delayed(), 1);
        assert_eq!(net.messages_sent(), 2);
    }

    #[test]
    #[should_panic(expected = "slow factor")]
    fn slow_factor_below_one_is_rejected() {
        let mut net = StarNetwork::new(1, d(0.1));
        net.set_slow_factor(0, 0.5);
    }
}
