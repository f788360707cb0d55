//! The network: listeners, interceptors, its link and the event loop.
//!
//! The network has one link, and every connection uses it: a fixed 20 ms
//! one-way latency and the typed faults of one [`FaultProfile`].
//!
//! A [`Network`] is built to be **long-lived**: one instance can drive
//! many thousands of client sessions back to back (the sharded study
//! keeps one per worker thread for its whole shard). Three mechanisms
//! make that safe and deterministic:
//!
//! * **Slot recycling** — connection sides live in a slab with a free
//!   list; finished connections return their slots, so memory tracks the
//!   *concurrent* working set, not the total session count. Tokens are
//!   generation-stamped ([`ConnToken`]) so stale handles never touch a
//!   recycled slot.
//! * **Per-connection fault streams** — fault sampling draws from DRBGs
//!   derived from `(network seed, client, session salt, per-session dial
//!   ordinal)` instead of one shared sequential stream, so outcomes are
//!   bit-identical no matter how many unrelated sessions interleave in
//!   the same event loop (see [`Network::begin_session`] and
//!   [`crate::fault`]).
//! * **Deterministic teardown** — a side that closes itself is finalized
//!   (conduit dropped, slot freed) by an explicit event rather than
//!   lingering until the peer's Close round-trips.
//!
//! Events pop in virtual-time order, and events due at the same
//! microsecond pop in the order they were queued. Conduits and timers
//! reach each other only through queued events (a timer's callback
//! rides in its event), so this order fixes the whole run. The queue
//! maps each due time to a FIFO bucket: a batch's events fall due at a
//! few multiples of the one link latency, so only a handful of due times
//! are in flight at once, and in a fault-free study nearly every push
//! lands in a bucket that already exists.
//!
//! **Frame recycling.** Every send becomes one frame, a `Vec<u8>` that
//! rides its `Data` event to the peer. Once the peer's `on_data` has
//! returned, the frame's buffer goes on a spare list, and the next send
//! reuses it instead of allocating. The list never holds more buffers
//! than the most frames ever in flight at once (the same bound as the
//! event queue's spare buckets), so a long-lived shard network stops
//! allocating for frames once its first batch has run.
//! [`IoCtx::send_with`] lets a conduit encode straight into a recycled
//! frame; [`IoCtx::send`] is one copy into one. The sender's fault plan
//! then decides the built frame's fate from its length, and corruption
//! and truncation apply to it in place.
//!
//! **Map hashing.** Every dial looks up the per-client tables
//! (listeners, interceptors, dial scopes). Their keys are addresses the
//! program makes itself, so they hash with `tlsfoe_crypto`'s fixed
//! word-at-a-time [`WordState`] instead of std's randomly keyed SipHash.
//! No table is iterated, so the hasher decides no order.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashMap, VecDeque};

use tlsfoe_crypto::drbg::{Drbg, RngCore64, SplitMix64};
use tlsfoe_crypto::memo::WordState;

use crate::addr::Ipv4;
use crate::conduit::{Conduit, ConnToken, IoCtx};
use crate::fault::{FaultAction, FaultState};

pub use crate::conduit::DialError;
pub use crate::fault::FaultProfile;

/// Information about an incoming connection, handed to listener factories
/// and interceptors.
#[derive(Debug, Clone, Copy)]
pub struct DialInfo {
    /// The originating client address (as seen by the acceptor).
    pub client: Ipv4,
    /// Destination address dialed.
    pub dst: Ipv4,
    /// Destination port dialed.
    pub port: u16,
}

/// Factory producing an accepting conduit for each inbound connection.
pub type ListenerFactory = Box<dyn FnMut(DialInfo) -> Box<dyn Conduit>>;

/// A middlebox installed on a client's path.
///
/// This is the simulator-level hook that every TLS proxy in the study
/// plugs into. `claims` is consulted when the *client* dials out;
/// returning `true` terminates the client's connection at the interceptor
/// instead of the destination (Figure 3). The interceptor's conduit can
/// then dial the real destination itself via [`IoCtx::dial`].
pub trait Interceptor {
    /// Whether to claim a client connection to `(dst, port)`.
    fn claims(&self, dst: Ipv4, port: u16) -> bool;

    /// Produce the client-facing conduit for a claimed connection.
    fn accept(&mut self, info: DialInfo) -> Box<dyn Conduit>;
}

/// The one-way latency of the network's link, which every connection
/// shares: 20 ms.
const LATENCY_US: u64 = 20_000;

/// Global simulator configuration.
#[derive(Debug, Clone)]
pub struct NetworkConfig {
    /// The typed faults of the link every connection uses (resets,
    /// blackholes, truncation, corruption, stalls). Defaults to
    /// fault-free; see [`FaultProfile`] for the per-connection
    /// determinism contract.
    pub faults: FaultProfile,
    /// Hard cap on events processed by a single [`Network::run`] call
    /// (guards against accidental livelock; generous — a full probe
    /// session is a few dozen events, a batched drive a few thousand).
    pub max_events: u64,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig { faults: FaultProfile::none(), max_events: 50_000_000 }
    }
}

/// The event loop exceeded its per-run cap — almost always a conduit
/// livelock (two endpoints ping-ponging forever). Returned by
/// [`Network::run`] instead of panicking so a sharded study can fail the
/// whole run gracefully with context rather than aborting a worker
/// thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetRunError {
    /// The cap that was exceeded ([`NetworkConfig::max_events`]).
    pub max_events: u64,
    /// Events processed by this `run` call before giving up.
    pub events_this_run: u64,
    /// Virtual time when the cap was hit.
    pub now_us: u64,
}

impl core::fmt::Display for NetRunError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "netsim exceeded max_events={} in one run (processed {}, t={}µs) — livelocked conduit?",
            self.max_events, self.events_this_run, self.now_us
        )
    }
}

impl std::error::Error for NetRunError {}

enum EventKind {
    Open(ConnToken),
    Data(ConnToken, Vec<u8>),
    Close(ConnToken),
    /// Deterministic teardown of a side that closed itself: drop its
    /// conduit and recycle the slot without waiting for the peer.
    Finalize(ConnToken),
    /// A scheduled callback (see [`Network::after`]).
    Timer(TimerFn),
}

/// Pending events by due time, FIFO within one due time (the order
/// contract in the module docs).
struct EventQueue<T> {
    buckets: BTreeMap<u64, VecDeque<T>>,
    /// Emptied buckets, reused by the next new due time so a long run
    /// does not allocate one deque per distinct timestamp.
    spare: Vec<VecDeque<T>>,
}

impl<T> EventQueue<T> {
    fn new() -> Self {
        EventQueue { buckets: BTreeMap::new(), spare: Vec::new() }
    }

    fn push(&mut self, time_us: u64, item: T) {
        match self.buckets.entry(time_us) {
            Entry::Occupied(mut bucket) => bucket.get_mut().push_back(item),
            Entry::Vacant(slot) => {
                let mut bucket = self.spare.pop().unwrap_or_default();
                bucket.push_back(item);
                slot.insert(bucket);
            }
        }
    }

    /// The earliest-due, earliest-queued item and its due time. No bucket
    /// in the map is ever empty: the one that pops its last item goes
    /// back on the spare list.
    fn pop(&mut self) -> Option<(u64, T)> {
        let mut first = self.buckets.first_entry()?;
        let time_us = *first.key();
        let item = first.get_mut().pop_front();
        if first.get().is_empty() {
            self.spare.push(first.remove());
        }
        Some((time_us, item?))
    }
}

struct Side {
    /// Generation of the current occupant; bumped on every release so
    /// stale tokens (and in-flight events) referencing a previous
    /// occupant are ignored.
    gen: u64,
    conduit: Option<Box<dyn Conduit>>,
    peer: ConnToken,
    /// Sampled fault plan for this side (present iff the link's
    /// [`FaultProfile::any`] is true).
    fault: Option<FaultState>,
    /// The dial scope this connection was opened under; further dials
    /// made *by* this side's conduit (a proxy's upstream leg, a probe's
    /// report upload) inherit it, so their fault streams stay a pure
    /// function of the owning session.
    scope: Ipv4,
    open: bool,
}

/// Per-client dial scope: the session salt plus how many connections the
/// client has opened under it (the ordinal that keeps concurrent probes
/// from one client on distinct fault streams).
struct DialScope {
    salt: u64,
    conns: u64,
}

/// Both endpoints' fault plans for one connection, derived as a pure
/// function of `(faults, stream_seed)` — the single site where
/// per-connection DRBG forks happen.
struct ConnHalves {
    initiator: Option<FaultState>,
    acceptor: Option<FaultState>,
    blackholed: bool,
}

impl ConnHalves {
    // Kept out of line, like `Network::conn_stream_seed`: with
    // `connect_pair` as their only caller, inlining both into it
    // measured about 6% more CPU time on faulted study drives.
    #[inline(never)]
    fn derive(faults: &FaultProfile, stream_seed: u64) -> ConnHalves {
        // A fault-free profile samples nothing.
        if !faults.any() {
            return ConnHalves { initiator: None, acceptor: None, blackholed: false };
        }
        let root = Drbg::new(stream_seed).fork("faults");
        ConnHalves {
            blackholed: root.fork("dial").gen_bool(faults.blackhole),
            initiator: Some(FaultState::sample(faults, root.fork("initiator"))),
            acceptor: Some(FaultState::sample(faults, root.fork("acceptor"))),
        }
    }
}

/// The deterministic event-driven network.
pub struct Network {
    config: NetworkConfig,
    now_us: u64,
    events: EventQueue<EventKind>,
    sides: Vec<Side>,
    /// Recycled side slots, ready for reuse by `connect_pair`.
    free: Vec<usize>,
    listeners: HashMap<(Ipv4, u16), ListenerFactory, WordState>,
    interceptors: HashMap<Ipv4, Box<dyn Interceptor>, WordState>,
    /// Root seed for per-connection fault-stream derivation.
    seed: u64,
    scopes: HashMap<Ipv4, DialScope, WordState>,
    processed: u64,
    /// Emptied buffers of delivered or dropped frames, reused by the
    /// next send (see "Frame recycling" in the module docs).
    spare_frames: Vec<Vec<u8>>,
}

/// A scheduled callback. Timers run with full access to the network —
/// the retry layer uses them to inspect probe outcomes, close stalled
/// connections and re-dial.
pub type TimerFn = Box<dyn FnOnce(&mut Network)>;

impl Network {
    /// Create a network with the given configuration and RNG seed (the
    /// seed drives fault sampling only; topology is explicit).
    pub fn new(config: NetworkConfig, seed: u64) -> Self {
        Network {
            config,
            now_us: 0,
            events: EventQueue::new(),
            sides: Vec::new(),
            free: Vec::new(),
            listeners: HashMap::default(),
            interceptors: HashMap::default(),
            seed,
            scopes: HashMap::default(),
            processed: 0,
            spare_frames: Vec::new(),
        }
    }

    /// Current virtual time in microseconds.
    pub fn now_us(&self) -> u64 {
        self.now_us
    }

    /// Total events processed so far (cumulative over the network's
    /// lifetime — a long-lived shard network keeps counting across
    /// batches, which is how tests assert one network is being reused).
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// High-water mark of the side slab: the largest number of
    /// *simultaneously live* connection sides ever needed. Stays bounded
    /// by the concurrent working set (not total connections) thanks to
    /// the free list.
    pub fn sides_high_water(&self) -> usize {
        self.sides.len()
    }

    /// Connection sides currently holding a conduit.
    pub fn active_sides(&self) -> usize {
        self.sides.iter().filter(|s| s.conduit.is_some()).count()
    }

    /// Release every side still occupied. Only meaningful at quiescence
    /// (after [`Network::run`] drained the event queue): with no events
    /// pending, a side that is still open or still holds its conduit is
    /// a *stalled* connection — a blackholed dial or a stalled sender
    /// left both endpoints waiting forever — and nothing can ever wake
    /// it. A long-lived shard network calls this between session
    /// batches so stalls don't accumulate slots and conduit state for
    /// its whole lifetime.
    ///
    /// Returns the number of sides reclaimed.
    pub fn reap_stalled(&mut self) -> usize {
        let stalled: Vec<ConnToken> = self
            .sides
            .iter()
            .enumerate()
            .filter(|(_, side)| side.conduit.is_some() || side.open)
            .map(|(slot, side)| ConnToken { slot, gen: side.gen })
            .collect();
        let reaped = stalled.len();
        for tok in stalled {
            self.release(tok);
        }
        reaped
    }

    /// Register a listener at `(addr, port)`.
    pub fn listen(&mut self, addr: Ipv4, port: u16, factory: ListenerFactory) {
        self.listeners.insert((addr, port), factory);
    }

    /// Install an interceptor on `client`'s path (at most one per client;
    /// the corpus never shows stacked proxies from one vantage point).
    pub fn install_interceptor(&mut self, client: Ipv4, interceptor: Box<dyn Interceptor>) {
        self.interceptors.insert(client, interceptor);
    }

    /// Remove the interceptor from `client`'s path.
    pub fn remove_interceptor(&mut self, client: Ipv4) {
        self.interceptors.remove(&client);
    }

    /// Replace the link's faults for every connection dialed from now
    /// on — how a study applies one fault model to every client at once.
    pub fn set_faults(&mut self, faults: FaultProfile) {
        self.config.faults = faults;
    }

    /// Override the per-run event cap (see [`NetworkConfig::max_events`]).
    pub fn set_max_events(&mut self, max_events: u64) {
        self.config.max_events = max_events;
    }

    /// Open a dial scope for `client`: subsequent connections from this
    /// client derive their fault streams from `(network seed, client,
    /// salt, per-scope dial ordinal)` — a pure function of the session's
    /// identity, not of how many other sessions share the event loop.
    /// Call [`Network::end_session`] when the client's session completes
    /// so a later session can reuse the address with a fresh salt.
    pub fn begin_session(&mut self, client: Ipv4, salt: u64) {
        self.scopes.insert(client, DialScope { salt, conns: 0 });
    }

    /// Close a client's dial scope (see [`Network::begin_session`]).
    pub fn end_session(&mut self, client: Ipv4) {
        self.scopes.remove(&client);
    }

    /// Schedule `f` to run after `delay_us` of virtual time, as a
    /// first-class timestamped event. This is the primitive dial
    /// timeouts, probe deadlines and retry backoff are built on: the
    /// callback runs inside the event loop with full mutable access, so
    /// it can inspect outcomes, close stalled connections and dial
    /// replacements. A timer always fires; one that finds its work done
    /// returns without acting.
    pub fn after(&mut self, delay_us: u64, f: impl FnOnce(&mut Network) + 'static) {
        self.push_event(delay_us, EventKind::Timer(Box::new(f)));
    }

    /// Close a connection side from outside its conduit (the timer-driven
    /// retry path uses this to kill a stalled dial before re-dialing).
    /// No-op if the token is stale or the side already closed.
    pub fn close_conn(&mut self, tok: ConnToken) {
        self.queue_close(tok);
    }

    /// Dial from a *client host* — the entry point the measurement tool
    /// uses. The client's interceptor chain applies. Returns the
    /// client-side token.
    pub fn dial_from(
        &mut self,
        client: Ipv4,
        dst: Ipv4,
        port: u16,
        conduit: Box<dyn Conduit>,
    ) -> Result<ConnToken, DialError> {
        let info = DialInfo { client, dst, port };
        // The client's interceptor chain may claim the connection.
        let acceptor = match self.interceptors.get_mut(&client) {
            Some(interceptor) if interceptor.claims(dst, port) => interceptor.accept(info),
            _ => self.accept_from_listener(info)?,
        };
        self.connect_pair(client, conduit, acceptor)
    }

    /// Conduit-originated dial (a proxy's upstream leg, a probe's report
    /// upload): bypasses interceptor chains and inherits the originating
    /// connection's dial scope, so its fault streams stay a pure function
    /// of the owning session rather than of cross-session interleaving.
    /// The acceptor sees that scope, the client the session belongs to,
    /// as the dial's source.
    pub(crate) fn dial_from_conduit(
        &mut self,
        from: ConnToken,
        dst: Ipv4,
        port: u16,
        conduit: Box<dyn Conduit>,
    ) -> Result<ConnToken, DialError> {
        let scope =
            self.sides.get(from.slot).filter(|s| s.gen == from.gen).map(|s| s.scope).unwrap_or(dst);
        let info = DialInfo { client: scope, dst, port };
        let acceptor = self.accept_from_listener(info)?;
        self.connect_pair(scope, conduit, acceptor)
    }

    /// Seed for the next connection's fault streams under `scope`'s dial
    /// scope: a SplitMix64 chain over (network seed, address, session
    /// salt, dial ordinal). Always consumes the ordinal, faulty link or
    /// not.
    #[inline(never)] // see `ConnHalves::derive`
    fn conn_stream_seed(&mut self, scope: Ipv4) -> u64 {
        let (salt, ordinal) = {
            let entry = self.scopes.entry(scope).or_insert(DialScope { salt: 0, conns: 0 });
            let out = (entry.salt, entry.conns);
            entry.conns += 1;
            out
        };
        let mut h = self.seed;
        for v in [u64::from(scope.as_u32()), salt, ordinal] {
            h = SplitMix64::new(h ^ v).next_u64();
        }
        h
    }

    fn alloc_slot(&mut self) -> usize {
        if let Some(slot) = self.free.pop() {
            slot
        } else {
            self.sides.push(Side {
                gen: 0,
                conduit: None,
                peer: ConnToken { slot: 0, gen: u64::MAX },
                fault: None,
                scope: Ipv4([0, 0, 0, 0]),
                open: false,
            });
            self.sides.len() - 1
        }
    }

    /// Install `conduit` into a freshly allocated slot and return its
    /// token. The slot is wired with its fault plan but no peer yet.
    fn install_side(
        &mut self,
        conduit: Box<dyn Conduit>,
        fault: Option<FaultState>,
        scope: Ipv4,
    ) -> ConnToken {
        let slot = self.alloc_slot();
        let gen = self.sides.get(slot).map_or(0, |s| s.gen);
        let tok = ConnToken { slot, gen };
        if let Some(side) = self.sides.get_mut(slot) {
            *side = Side {
                gen,
                conduit: Some(conduit),
                peer: ConnToken { slot: 0, gen: u64::MAX },
                fault,
                scope,
                open: true,
            };
        }
        tok
    }

    fn connect_pair(
        &mut self,
        scope: Ipv4,
        initiator: Box<dyn Conduit>,
        acceptor: Box<dyn Conduit>,
    ) -> Result<ConnToken, DialError> {
        let stream_seed = self.conn_stream_seed(scope);
        let halves = ConnHalves::derive(&self.config.faults, stream_seed);
        let a = self.install_side(initiator, halves.initiator, scope);
        let b = self.install_side(acceptor, halves.acceptor, scope);
        if let Some(side) = self.side_mut(a) {
            side.peer = b;
        }
        if let Some(side) = self.side_mut(b) {
            side.peer = a;
        }
        if !halves.blackholed {
            // Acceptor learns of the connection after one RTT/2; the
            // initiator after a full RTT (SYN → SYN/ACK).
            self.push_event(LATENCY_US, EventKind::Open(b));
            self.push_event(2 * LATENCY_US, EventKind::Open(a));
        }
        // A blackholed dial's SYN vanishes: neither endpoint ever sees
        // on_open, the pair just sits until a timeout closes it or
        // `reap_stalled` reclaims it at quiescence.
        Ok(a)
    }

    fn accept_from_listener(&mut self, info: DialInfo) -> Result<Box<dyn Conduit>, DialError> {
        match self.listeners.get_mut(&(info.dst, info.port)) {
            Some(factory) => Ok(factory(info)),
            None => Err(DialError::Refused),
        }
    }

    fn push_event(&mut self, delay_us: u64, kind: EventKind) {
        self.events.push(self.now_us + delay_us, kind);
    }

    /// The side `tok` refers to, iff the token's generation is current.
    fn side_mut(&mut self, tok: ConnToken) -> Option<&mut Side> {
        self.sides.get_mut(tok.slot).filter(|s| s.gen == tok.gen)
    }

    /// Return a side's slot to the free list, dropping its conduit and
    /// bumping the generation so stale tokens/events can't touch the
    /// next occupant. Idempotent through the generation check.
    fn release(&mut self, tok: ConnToken) {
        let Some(side) = self.sides.get_mut(tok.slot) else { return };
        if side.gen != tok.gen {
            return;
        }
        side.gen = side.gen.wrapping_add(1);
        side.conduit = None;
        side.fault = None;
        side.open = false;
        self.free.push(tok.slot);
    }

    /// Send one frame from `from` to its peer: `fill` writes the frame
    /// into a recycled buffer, and the fault plan decides its fate from
    /// its length.
    pub(crate) fn queue_send_with(&mut self, from: ConnToken, fill: impl FnOnce(&mut Vec<u8>)) {
        let Some(side) = self.side_mut(from) else { return };
        if !side.open {
            return;
        }
        let peer = side.peer;
        let mut frame = self.spare_frames.pop().unwrap_or_default();
        fill(&mut frame);
        let action = match self.side_mut(from).and_then(|side| side.fault.as_mut()) {
            Some(fault) => fault.on_frame(frame.len()),
            None => FaultAction::Deliver,
        };
        match action {
            FaultAction::Deliver => self.push_event(LATENCY_US, EventKind::Data(peer, frame)),
            FaultAction::CorruptByte { offset, mask } => {
                // One flipped byte; the frame still arrives, so the peer's
                // parser must surface the damage as a typed error.
                if let Some(byte) = frame.get_mut(offset) {
                    *byte ^= mask;
                }
                self.push_event(LATENCY_US, EventKind::Data(peer, frame));
            }
            FaultAction::TruncateClose { keep } => {
                // The wire cuts the frame short and the connection dies:
                // the truncated bytes land first (same timestamp, queued
                // before it), then the close. queue_close tears down this
                // side and notifies the peer.
                if keep > 0 {
                    frame.truncate(keep);
                    self.push_event(LATENCY_US, EventKind::Data(peer, frame));
                } else {
                    self.recycle(frame);
                }
                self.queue_close(from);
            }
            FaultAction::Reset => {
                // RST: the frame is lost and both endpoints observe an
                // abrupt close.
                self.recycle(frame);
                self.queue_close(from);
            }
            // Stalled sender; the peer waits forever.
            FaultAction::Drop => self.recycle(frame),
        }
    }

    /// Put a finished frame's buffer on the spare list.
    fn recycle(&mut self, mut frame: Vec<u8>) {
        frame.clear();
        self.spare_frames.push(frame);
    }

    pub(crate) fn queue_close(&mut self, from: ConnToken) {
        let Some(side) = self.side_mut(from) else { return };
        if !side.open {
            return;
        }
        side.open = false;
        let peer = side.peer;
        self.push_event(LATENCY_US, EventKind::Close(peer));
        // The closing side is done sending and receiving: tear it down
        // deterministically (drop the conduit, recycle the slot) instead
        // of retaining the Box until the peer's Close round-trips.
        self.push_event(0, EventKind::Finalize(from));
    }

    /// Run until quiescence (no pending events) or the per-run event cap.
    ///
    /// Returns the number of events processed in this call, or a
    /// [`NetRunError`] if the cap was exceeded (remaining events stay
    /// queued; the network should be considered wedged).
    pub fn run(&mut self) -> Result<u64, NetRunError> {
        let mut n = 0;
        while let Some((time_us, kind)) = self.events.pop() {
            self.now_us = time_us;
            self.processed += 1;
            n += 1;
            if n > self.config.max_events {
                return Err(NetRunError {
                    max_events: self.config.max_events,
                    events_this_run: n,
                    now_us: self.now_us,
                });
            }
            match kind {
                EventKind::Open(tok) => self.deliver_open(tok),
                EventKind::Data(tok, frame) => {
                    self.deliver_data(tok, &frame);
                    self.recycle(frame);
                }
                EventKind::Close(tok) => self.deliver_close(tok),
                EventKind::Finalize(tok) => self.release(tok),
                EventKind::Timer(f) => f(self),
            }
        }
        Ok(n)
    }

    fn with_conduit(&mut self, tok: ConnToken, f: impl FnOnce(&mut dyn Conduit, &mut IoCtx<'_>)) {
        // Temporarily take the conduit out so callbacks can borrow the
        // network mutably; events queued by the callback cannot touch the
        // slot because all effects are deferred through the event queue.
        let Some(mut conduit) = self.side_mut(tok).and_then(|s| s.conduit.take()) else {
            return;
        };
        {
            let mut io = IoCtx { net: self, current: tok };
            f(conduit.as_mut(), &mut io);
        }
        // The slot may have been marked closed meanwhile; keep the conduit
        // anyway until its Close/Finalize event is delivered.
        if let Some(side) = self.side_mut(tok) {
            side.conduit = Some(conduit);
        }
    }

    fn deliver_open(&mut self, tok: ConnToken) {
        match self.side_mut(tok) {
            Some(side) if side.open => {}
            _ => return,
        }
        self.with_conduit(tok, |c, io| c.on_open(io));
    }

    fn deliver_data(&mut self, tok: ConnToken, bytes: &[u8]) {
        match self.side_mut(tok) {
            Some(side) if side.open => {}
            _ => return,
        }
        self.with_conduit(tok, |c, io| c.on_data(bytes, io));
    }

    fn deliver_close(&mut self, tok: ConnToken) {
        let Some(side) = self.side_mut(tok) else { return };
        if !side.open {
            // Already closed from this side; its Finalize event (or this)
            // completes the teardown.
            self.release(tok);
            return;
        }
        side.open = false;
        self.with_conduit(tok, |c, io| c.on_close(io));
        self.release(tok);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::conduit::Shared;

    /// Echo server: sends back whatever it receives, uppercased.
    struct EchoAcceptor;
    impl Conduit for EchoAcceptor {
        fn on_open(&mut self, _io: &mut IoCtx<'_>) {}
        fn on_data(&mut self, data: &[u8], io: &mut IoCtx<'_>) {
            let up: Vec<u8> = data.iter().map(|b| b.to_ascii_uppercase()).collect();
            io.send(&up);
        }
    }

    /// Client: sends a greeting on open, records the reply, closes.
    struct Client {
        log: Shared<Vec<String>>,
    }
    impl Conduit for Client {
        fn on_open(&mut self, io: &mut IoCtx<'_>) {
            io.send(b"hello");
        }
        fn on_data(&mut self, data: &[u8], io: &mut IoCtx<'_>) {
            self.log.lock().push(String::from_utf8_lossy(data).into_owned());
            io.close();
        }
        fn on_close(&mut self, _io: &mut IoCtx<'_>) {
            self.log.lock().push("closed".into());
        }
    }

    fn server_ip() -> Ipv4 {
        Ipv4([203, 0, 113, 1])
    }
    fn client_ip() -> Ipv4 {
        Ipv4([198, 51, 100, 7])
    }

    /// A network whose one link carries `faults`.
    fn faulty_net(seed: u64, faults: FaultProfile) -> Network {
        Network::new(NetworkConfig { faults, ..NetworkConfig::default() }, seed)
    }

    #[test]
    fn request_response_roundtrip() {
        let mut net = Network::new(NetworkConfig::default(), 1);
        net.listen(server_ip(), 80, Box::new(|_| Box::new(EchoAcceptor)));
        let log = Shared::new(Vec::new());
        net.dial_from(client_ip(), server_ip(), 80, Box::new(Client { log: log.clone() })).unwrap();
        net.run().unwrap();
        assert_eq!(log.lock().as_slice(), ["HELLO".to_string()]);
    }

    #[test]
    fn refused_when_no_listener() {
        let mut net = Network::new(NetworkConfig::default(), 1);
        let log = Shared::new(Vec::new());
        let err =
            net.dial_from(client_ip(), server_ip(), 443, Box::new(Client { log })).unwrap_err();
        assert_eq!(err, DialError::Refused);
    }

    #[test]
    fn virtual_time_advances_by_latency() {
        let mut net = Network::new(NetworkConfig::default(), 1);
        net.listen(server_ip(), 80, Box::new(|_| Box::new(EchoAcceptor)));
        let log = Shared::new(Vec::new());
        net.dial_from(client_ip(), server_ip(), 80, Box::new(Client { log })).unwrap();
        net.run().unwrap();
        // open(2L) + send(L) + reply(L) = 4 × 20ms = 80 ms min.
        assert!(net.now_us() >= 4 * LATENCY_US, "now = {}", net.now_us());
    }

    #[test]
    fn conduit_dial_fault_streams_inherit_session_scope() {
        // A conduit-originated dial (a proxy's upstream leg) on a faulty
        // link must sample its faults from the owning session's dial
        // scope — a concurrent bystander session relaying through the
        // same destination must not perturb it.
        struct Relay {
            log: Shared<Vec<String>>,
        }
        impl Conduit for Relay {
            fn on_open(&mut self, io: &mut IoCtx<'_>) {
                let log = self.log.clone();
                io.dial(server_ip(), 80, Box::new(Client { log })).unwrap();
            }
            fn on_data(&mut self, _d: &[u8], _io: &mut IoCtx<'_>) {}
        }
        struct Kick;
        impl Conduit for Kick {
            fn on_open(&mut self, _io: &mut IoCtx<'_>) {}
            fn on_data(&mut self, _d: &[u8], _io: &mut IoCtx<'_>) {}
        }
        fn relayed_exchanges(with_bystander: bool) -> Vec<String> {
            let mut net = faulty_net(78, FaultProfile::uniform(0.25));
            net.listen(server_ip(), 80, Box::new(|_| Box::new(EchoAcceptor)));
            let log = Shared::new(Vec::new());
            net.listen(server_ip(), 9999, {
                let log = log.clone();
                Box::new(move |_| Box::new(Relay { log: log.clone() }))
            });
            let bystander = Ipv4([198, 51, 100, 99]);
            net.begin_session(client_ip(), 0x11);
            net.begin_session(bystander, 0x22);
            if with_bystander {
                let log = Shared::new(Vec::new());
                net.listen(server_ip(), 9998, {
                    let log = log.clone();
                    Box::new(move |_| Box::new(Relay { log: log.clone() }))
                });
                net.dial_from(bystander, server_ip(), 9998, Box::new(Kick)).unwrap();
            }
            for _ in 0..16 {
                net.dial_from(client_ip(), server_ip(), 9999, Box::new(Kick)).unwrap();
            }
            net.run().unwrap();
            let out = log.lock().clone();
            out
        }
        let alone = relayed_exchanges(false);
        let crowded = relayed_exchanges(true);
        assert_eq!(alone, crowded, "bystander must not shift upstream-leg fault sampling");
        let completed = alone.iter().filter(|s| *s == "HELLO").count();
        assert!(
            completed > 0 && completed < 16,
            "25% faults must fail some but not all relayed exchanges, got {completed}/16"
        );
    }

    /// An interceptor that claims port-80 connections and answers itself
    /// (a degenerate "proxy" — enough to test path interposition).
    struct FakeProxy;
    impl Interceptor for FakeProxy {
        fn claims(&self, _dst: Ipv4, port: u16) -> bool {
            port == 80
        }
        fn accept(&mut self, _info: DialInfo) -> Box<dyn Conduit> {
            struct ProxySide;
            impl Conduit for ProxySide {
                fn on_open(&mut self, _io: &mut IoCtx<'_>) {}
                fn on_data(&mut self, _data: &[u8], io: &mut IoCtx<'_>) {
                    io.send(b"intercepted");
                }
            }
            Box::new(ProxySide)
        }
    }

    #[test]
    fn interceptor_claims_client_dials() {
        let mut net = Network::new(NetworkConfig::default(), 3);
        net.listen(server_ip(), 80, Box::new(|_| Box::new(EchoAcceptor)));
        net.install_interceptor(client_ip(), Box::new(FakeProxy));
        let log = Shared::new(Vec::new());
        net.dial_from(client_ip(), server_ip(), 80, Box::new(Client { log: log.clone() })).unwrap();
        net.run().unwrap();
        assert_eq!(log.lock()[0], "intercepted");
    }

    #[test]
    fn other_clients_not_intercepted() {
        let mut net = Network::new(NetworkConfig::default(), 3);
        net.listen(server_ip(), 80, Box::new(|_| Box::new(EchoAcceptor)));
        net.install_interceptor(client_ip(), Box::new(FakeProxy));
        let other = Ipv4([198, 51, 100, 99]);
        let log = Shared::new(Vec::new());
        net.dial_from(other, server_ip(), 80, Box::new(Client { log: log.clone() })).unwrap();
        net.run().unwrap();
        assert_eq!(log.lock()[0], "HELLO");
    }

    #[test]
    fn conduit_dials_bypass_interceptor() {
        // A conduit-originated dial (modeling the proxy's upstream leg)
        // must not be re-intercepted, or proxies would loop forever, and
        // it announces the client whose connection it serves.
        struct Relay {
            log: Shared<Vec<String>>,
        }
        impl Conduit for Relay {
            fn on_open(&mut self, io: &mut IoCtx<'_>) {
                // Dial upstream from inside a conduit.
                let log = self.log.clone();
                io.dial(server_ip(), 80, Box::new(Client { log })).unwrap();
            }
            fn on_data(&mut self, _data: &[u8], _io: &mut IoCtx<'_>) {}
        }

        let mut net = Network::new(NetworkConfig::default(), 4);
        let source = Shared::new(None);
        net.listen(server_ip(), 80, {
            let source = source.clone();
            Box::new(move |info: DialInfo| {
                *source.lock() = Some(info.client);
                Box::new(EchoAcceptor)
            })
        });
        net.install_interceptor(client_ip(), Box::new(FakeProxy));
        let log = Shared::new(Vec::new());
        // The Relay is dialed directly (not via dial_from), then dials out.
        net.listen(server_ip(), 9999, {
            let log = log.clone();
            Box::new(move |_| Box::new(Relay { log: log.clone() }))
        });
        struct Kick;
        impl Conduit for Kick {
            fn on_open(&mut self, _io: &mut IoCtx<'_>) {}
            fn on_data(&mut self, _d: &[u8], _io: &mut IoCtx<'_>) {}
        }
        net.dial_from(client_ip(), server_ip(), 9999, Box::new(Kick)).unwrap();
        net.run().unwrap();
        assert_eq!(log.lock()[0], "HELLO", "upstream leg must reach the real server");
        assert_eq!(*source.lock(), Some(client_ip()), "upstream leg must announce its client");
    }

    #[test]
    fn close_notifies_peer() {
        struct Closer;
        impl Conduit for Closer {
            fn on_open(&mut self, io: &mut IoCtx<'_>) {
                io.close();
            }
            fn on_data(&mut self, _d: &[u8], _io: &mut IoCtx<'_>) {}
        }
        struct Watcher {
            closed: Shared<bool>,
        }
        impl Conduit for Watcher {
            fn on_open(&mut self, _io: &mut IoCtx<'_>) {}
            fn on_data(&mut self, _d: &[u8], _io: &mut IoCtx<'_>) {}
            fn on_close(&mut self, _io: &mut IoCtx<'_>) {
                *self.closed.lock() = true;
            }
        }
        let closed = Shared::new(false);
        let mut net = Network::new(NetworkConfig::default(), 5);
        net.listen(server_ip(), 80, {
            let closed = closed.clone();
            Box::new(move |_| Box::new(Watcher { closed: closed.clone() }))
        });
        net.dial_from(client_ip(), server_ip(), 80, Box::new(Closer)).unwrap();
        net.run().unwrap();
        assert!(*closed.lock());
    }

    #[test]
    fn sends_after_close_are_dropped() {
        struct SendAfterClose;
        impl Conduit for SendAfterClose {
            fn on_open(&mut self, io: &mut IoCtx<'_>) {
                io.close();
                io.send(b"too late");
            }
            fn on_data(&mut self, _d: &[u8], _io: &mut IoCtx<'_>) {}
        }
        let got = Shared::new(Vec::<u8>::new());
        struct Sink {
            got: Shared<Vec<u8>>,
        }
        impl Conduit for Sink {
            fn on_open(&mut self, _io: &mut IoCtx<'_>) {}
            fn on_data(&mut self, d: &[u8], _io: &mut IoCtx<'_>) {
                self.got.lock().extend_from_slice(d);
            }
        }
        let mut net = Network::new(NetworkConfig::default(), 6);
        net.listen(server_ip(), 80, {
            let got = got.clone();
            Box::new(move |_| Box::new(Sink { got: got.clone() }))
        });
        net.dial_from(client_ip(), server_ip(), 80, Box::new(SendAfterClose)).unwrap();
        net.run().unwrap();
        assert!(got.lock().is_empty());
    }

    #[test]
    fn finished_connections_recycle_their_slots() {
        // Run many sequential request/response sessions on ONE network:
        // the side slab must stay at the size of a single session's
        // working set, and every conduit must be dropped at quiescence.
        let mut net = Network::new(NetworkConfig::default(), 7);
        net.listen(server_ip(), 80, Box::new(|_| Box::new(EchoAcceptor)));
        let log = Shared::new(Vec::new());
        for _ in 0..100 {
            net.dial_from(client_ip(), server_ip(), 80, Box::new(Client { log: log.clone() }))
                .unwrap();
            net.run().unwrap();
            assert_eq!(net.active_sides(), 0, "all conduits must be torn down");
        }
        assert_eq!(log.lock().iter().filter(|s| *s == "HELLO").count(), 100);
        assert_eq!(
            net.sides_high_water(),
            2,
            "100 sequential connections must reuse one pair of slots"
        );
    }

    #[test]
    fn self_closed_side_is_finalized_without_peer_roundtrip() {
        // A conduit that closes its own side must be dropped (and its
        // slot freed) deterministically — not retained until the peer's
        // Close round-trips, and certainly not forever.
        struct DropCanary {
            dropped: Shared<bool>,
        }
        impl Conduit for DropCanary {
            fn on_open(&mut self, io: &mut IoCtx<'_>) {
                io.close();
            }
            fn on_data(&mut self, _d: &[u8], _io: &mut IoCtx<'_>) {}
        }
        impl Drop for DropCanary {
            fn drop(&mut self) {
                *self.dropped.lock() = true;
            }
        }
        struct Mute;
        impl Conduit for Mute {
            fn on_open(&mut self, _io: &mut IoCtx<'_>) {}
            fn on_data(&mut self, _d: &[u8], _io: &mut IoCtx<'_>) {}
        }
        let dropped = Shared::new(false);
        let mut net = Network::new(NetworkConfig::default(), 8);
        net.listen(server_ip(), 80, Box::new(|_| Box::new(Mute)));
        net.dial_from(
            client_ip(),
            server_ip(),
            80,
            Box::new(DropCanary { dropped: dropped.clone() }),
        )
        .unwrap();
        net.run().unwrap();
        assert!(*dropped.lock(), "self-closing conduit must be dropped at quiescence");
        assert_eq!(net.active_sides(), 0);
    }

    #[test]
    fn stale_tokens_cannot_touch_recycled_slots() {
        // An actor that remembers its token and fires sends/closes after
        // the connection died must not corrupt whatever connection now
        // occupies the recycled slot.
        struct TokenKeeper {
            token: Shared<Option<ConnToken>>,
        }
        impl Conduit for TokenKeeper {
            fn on_open(&mut self, io: &mut IoCtx<'_>) {
                *self.token.lock() = Some(io.token());
                io.close();
            }
            fn on_data(&mut self, _d: &[u8], _io: &mut IoCtx<'_>) {}
        }
        struct LateSender {
            stale: Shared<Option<ConnToken>>,
            log: Shared<Vec<String>>,
        }
        impl Conduit for LateSender {
            fn on_open(&mut self, io: &mut IoCtx<'_>) {
                // Fire at the dead connection's token — its slot has been
                // recycled for THIS connection by now.
                let stale = self.stale.lock().expect("first connection ran");
                io.send_on(stale, b"ghost");
                io.close_on(stale);
                io.send(b"hello");
            }
            fn on_data(&mut self, data: &[u8], io: &mut IoCtx<'_>) {
                self.log.lock().push(String::from_utf8_lossy(data).into_owned());
                io.close();
            }
        }
        let token = Shared::new(None);
        let mut net = Network::new(NetworkConfig::default(), 9);
        net.listen(server_ip(), 80, Box::new(|_| Box::new(EchoAcceptor)));
        net.dial_from(client_ip(), server_ip(), 80, Box::new(TokenKeeper { token: token.clone() }))
            .unwrap();
        net.run().unwrap();
        let log = Shared::new(Vec::new());
        net.dial_from(
            client_ip(),
            server_ip(),
            80,
            Box::new(LateSender { stale: token, log: log.clone() }),
        )
        .unwrap();
        net.run().unwrap();
        // The recycled connection must have completed untouched by the
        // stale send/close.
        assert_eq!(log.lock().as_slice(), ["HELLO".to_string()]);
    }

    #[test]
    fn livelock_returns_error_instead_of_panicking() {
        // Two conduits ping-ponging forever: run() must surface a typed
        // error (so a sharded study can fail gracefully), not panic.
        struct PingPong;
        impl Conduit for PingPong {
            fn on_open(&mut self, io: &mut IoCtx<'_>) {
                io.send(b"ping");
            }
            fn on_data(&mut self, _d: &[u8], io: &mut IoCtx<'_>) {
                io.send(b"pong");
            }
        }
        let mut net =
            Network::new(NetworkConfig { max_events: 500, ..NetworkConfig::default() }, 10);
        net.listen(server_ip(), 80, Box::new(|_| Box::new(PingPong)));
        net.dial_from(client_ip(), server_ip(), 80, Box::new(PingPong)).unwrap();
        let err = net.run().unwrap_err();
        assert_eq!(err.max_events, 500);
        assert!(err.events_this_run > 500);
        assert!(err.to_string().contains("livelocked"));
    }

    #[test]
    fn reap_stalled_reclaims_faulted_stalls() {
        // A blackholed dial never opens, and a sender that stalls before
        // its third frame never finishes a three-round exchange: either
        // way both sides sit open forever. After quiescence, reaping must
        // reclaim them so a long-lived network doesn't accumulate one
        // dead pair per stalled session.
        struct Rounds {
            replies: u32,
            log: Shared<Vec<String>>,
        }
        impl Conduit for Rounds {
            fn on_open(&mut self, io: &mut IoCtx<'_>) {
                io.send(b"ping");
            }
            fn on_data(&mut self, _d: &[u8], io: &mut IoCtx<'_>) {
                self.replies += 1;
                if self.replies < 3 {
                    io.send(b"ping");
                } else {
                    self.log.lock().push("done".into());
                    io.close();
                }
            }
        }
        for faults in [
            FaultProfile { stall: 1.0, ..FaultProfile::none() },
            FaultProfile { blackhole: 1.0, ..FaultProfile::none() },
        ] {
            let mut net = faulty_net(12, faults);
            net.listen(server_ip(), 80, Box::new(|_| Box::new(EchoAcceptor)));
            let log = Shared::new(Vec::new());
            for _ in 0..20 {
                let rounds = Rounds { replies: 0, log: log.clone() };
                net.dial_from(client_ip(), server_ip(), 80, Box::new(rounds)).unwrap();
                net.run().unwrap();
                assert_eq!(net.active_sides(), 2, "the stalled pair lingers at quiescence");
                assert_eq!(net.reap_stalled(), 2);
                assert_eq!(net.active_sides(), 0);
            }
            assert!(log.lock().is_empty(), "no exchange may finish");
            assert_eq!(net.sides_high_water(), 2, "reaped slots must be reused across stalls");
        }
    }

    #[test]
    fn blackholed_dial_never_opens() {
        // blackhole = 1.0: the SYN vanishes — neither conduit sees
        // on_open, and the stalled pair is reclaimable at quiescence.
        struct OpenCanary {
            opened: Shared<bool>,
        }
        impl Conduit for OpenCanary {
            fn on_open(&mut self, _io: &mut IoCtx<'_>) {
                *self.opened.lock() = true;
            }
            fn on_data(&mut self, _d: &[u8], _io: &mut IoCtx<'_>) {}
        }
        let mut net = faulty_net(20, FaultProfile { blackhole: 1.0, ..FaultProfile::none() });
        let opened = Shared::new(false);
        net.listen(server_ip(), 80, {
            let opened = opened.clone();
            Box::new(move |_| Box::new(OpenCanary { opened: opened.clone() }))
        });
        let log = Shared::new(Vec::new());
        net.dial_from(client_ip(), server_ip(), 80, Box::new(Client { log: log.clone() })).unwrap();
        net.run().unwrap();
        assert!(!*opened.lock(), "blackholed dial must never reach the acceptor");
        assert!(log.lock().is_empty());
        assert_eq!(net.reap_stalled(), 2, "the dead pair must be reclaimable");
    }

    #[test]
    fn reset_closes_both_endpoints() {
        // reset = 1.0 schedules a reset on EVERY connection, but the
        // sampled ordinal may lie beyond this one-frame exchange — so
        // some of the 16 complete and some die. What must hold: resets
        // actually kill exchanges, a reset peer observes on_close (the
        // Client logs "closed"), and nothing leaks.
        let mut net = faulty_net(21, FaultProfile { reset: 1.0, ..FaultProfile::none() });
        net.listen(server_ip(), 80, Box::new(|_| Box::new(EchoAcceptor)));
        let log = Shared::new(Vec::new());
        for _ in 0..16 {
            net.dial_from(client_ip(), server_ip(), 80, Box::new(Client { log: log.clone() }))
                .unwrap();
        }
        net.run().unwrap();
        let completed = log.lock().iter().filter(|s| *s == "HELLO").count();
        assert!(completed < 16, "resets must kill some exchanges");
        assert!(
            log.lock().iter().any(|s| s == "closed"),
            "a reset must surface as on_close at the peer"
        );
        net.reap_stalled();
        assert_eq!(net.active_sides(), 0);
    }

    #[test]
    fn corruption_delivers_a_damaged_frame() {
        // corrupt = 1.0 (and nothing else): frames still arrive, but at
        // least one delivered frame differs from what was sent.
        struct Recorder {
            got: Shared<Vec<Vec<u8>>>,
        }
        impl Conduit for Recorder {
            fn on_open(&mut self, _io: &mut IoCtx<'_>) {}
            fn on_data(&mut self, d: &[u8], _io: &mut IoCtx<'_>) {
                self.got.lock().push(d.to_vec());
            }
        }
        struct Chatter;
        impl Conduit for Chatter {
            fn on_open(&mut self, io: &mut IoCtx<'_>) {
                for _ in 0..4 {
                    io.send(b"payload-payload-payload");
                }
                io.close();
            }
            fn on_data(&mut self, _d: &[u8], _io: &mut IoCtx<'_>) {}
        }
        let got = Shared::new(Vec::new());
        let mut net = faulty_net(22, FaultProfile { corrupt: 1.0, ..FaultProfile::none() });
        net.listen(server_ip(), 80, {
            let got = got.clone();
            Box::new(move |_| Box::new(Recorder { got: got.clone() }))
        });
        net.dial_from(client_ip(), server_ip(), 80, Box::new(Chatter)).unwrap();
        net.run().unwrap();
        let got = got.lock();
        assert_eq!(got.len(), 4, "corruption must not drop frames");
        let damaged = got.iter().filter(|f| f.as_slice() != b"payload-payload-payload").count();
        assert_eq!(damaged, 1, "exactly one frame carries the flipped byte");
        // Same length, exactly one differing byte.
        let bad = got.iter().find(|f| f.as_slice() != b"payload-payload-payload").unwrap();
        assert_eq!(bad.len(), b"payload-payload-payload".len());
        let diffs =
            bad.iter().zip(b"payload-payload-payload".iter()).filter(|(a, b)| a != b).count();
        assert_eq!(diffs, 1);
    }

    #[test]
    fn fault_outcomes_are_bystander_invariant() {
        // Fault sampling must be a pure function of (seed, client, salt,
        // dial ordinal). An unrelated faulty session sharing the event
        // loop must not shift outcomes.
        fn faulty_exchanges(with_bystander: bool) -> Vec<String> {
            let mut net = faulty_net(79, FaultProfile::uniform(0.25));
            net.listen(server_ip(), 80, Box::new(|_| Box::new(EchoAcceptor)));
            let bystander = Ipv4([198, 51, 100, 99]);
            net.begin_session(client_ip(), 0xAB);
            net.begin_session(bystander, 0xCD);
            if with_bystander {
                let log = Shared::new(Vec::new());
                net.dial_from(bystander, server_ip(), 80, Box::new(Client { log })).unwrap();
            }
            let log = Shared::new(Vec::new());
            for _ in 0..16 {
                net.dial_from(client_ip(), server_ip(), 80, Box::new(Client { log: log.clone() }))
                    .unwrap();
            }
            net.run().unwrap();
            let out = log.lock().clone();
            out
        }
        let alone = faulty_exchanges(false);
        let crowded = faulty_exchanges(true);
        assert_eq!(alone, crowded, "bystander session must not shift fault sampling");
        let completed = alone.iter().filter(|s| *s == "HELLO").count();
        assert!(
            completed > 0 && completed < 16,
            "25% faults must fail some but not all of 16 exchanges, got {completed}/16"
        );
    }

    #[test]
    fn timers_fire_in_order_and_advance_virtual_time() {
        let fired = Shared::new(Vec::new());
        let mut net = Network::new(NetworkConfig::default(), 30);
        for (delay, tag) in [(5_000u64, "b"), (1_000, "a"), (9_000, "c")] {
            let fired = fired.clone();
            net.after(delay, move |net| {
                fired.lock().push((tag, net.now_us()));
            });
        }
        net.run().unwrap();
        assert_eq!(
            fired.lock().as_slice(),
            [("a", 1_000), ("b", 5_000), ("c", 9_000)],
            "timers must fire in timestamp order at their scheduled times"
        );
    }

    #[test]
    fn timer_can_close_a_stalled_connection() {
        // The retry layer's core move: a deadline that kills a dial whose
        // SYN was blackholed. The conduit must be reclaimed by the close,
        // with no reap needed.
        let mut net = faulty_net(32, FaultProfile { blackhole: 1.0, ..FaultProfile::none() });
        net.listen(server_ip(), 80, Box::new(|_| Box::new(EchoAcceptor)));
        let log = Shared::new(Vec::new());
        let tok = net
            .dial_from(client_ip(), server_ip(), 80, Box::new(Client { log: log.clone() }))
            .unwrap();
        net.after(500_000, move |net| net.close_conn(tok));
        net.run().unwrap();
        // close_conn finalizes the dialer and its Close event tears down
        // the acceptor — nothing lingers, no reap needed.
        assert_eq!(net.active_sides(), 0);
        assert_eq!(net.reap_stalled(), 0);
        assert!(net.now_us() >= 500_000);
    }

    #[test]
    fn event_queue_pops_in_time_then_push_order() {
        // Reference: a min-heap on (due time, push ordinal), the order a
        // binary heap with a sequence tie-break gives. DRBG-chosen
        // interleavings push between pops at the delays a study queues:
        // same-instant follow-ups, 20/40 ms link latencies, 2 s dial
        // checks, 5–15 s probe deadlines and jittered microseconds, plus
        // batch-sized bursts.
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut rng = Drbg::new(0x0E0E_0E0E);
        let mut queue = EventQueue::new();
        let mut reference = BinaryHeap::new();
        let (mut now, mut pushed, mut popped) = (0u64, 0u64, 0u64);
        let delay = |rng: &mut Drbg| match rng.gen_range(6) {
            0 => 0,
            1 => 20_000,
            2 => 40_000,
            3 => 2_000_000,
            4 => 5_000_000 + rng.gen_range(10_000_001),
            _ => rng.gen_range(1_000),
        };
        for step in 0..40_000 {
            let burst = if rng.gen_range(500) == 0 { 64 } else { rng.gen_range(3) };
            for _ in 0..burst {
                let due = now + delay(&mut rng);
                queue.push(due, pushed);
                reference.push(Reverse((due, pushed)));
                pushed += 1;
            }
            // Drain completely now and then, as a batch drive does.
            let pops = if step % 5_000 == 4_999 { usize::MAX } else { 1 };
            for _ in 0..pops {
                let got = queue.pop();
                assert_eq!(got, reference.pop().map(|Reverse(e)| e), "pop {popped}");
                let Some((due, _)) = got else { break };
                assert!(due >= now, "virtual time must not run backwards");
                now = due;
                popped += 1;
            }
        }
        while let Some(got) = queue.pop() {
            assert_eq!(Some(got), reference.pop().map(|Reverse(e)| e), "pop {popped}");
            popped += 1;
        }
        assert!(reference.is_empty());
        assert_eq!(popped, pushed);
        assert!(pushed > 40_000, "the interleaving must exercise the queue, pushed {pushed}");
    }

    #[test]
    fn events_processed_accumulates_across_runs() {
        let mut net = Network::new(NetworkConfig::default(), 11);
        net.listen(server_ip(), 80, Box::new(|_| Box::new(EchoAcceptor)));
        let log = Shared::new(Vec::new());
        net.dial_from(client_ip(), server_ip(), 80, Box::new(Client { log: log.clone() })).unwrap();
        let first = net.run().unwrap();
        assert_eq!(net.events_processed(), first);
        net.dial_from(client_ip(), server_ip(), 80, Box::new(Client { log: log.clone() })).unwrap();
        let second = net.run().unwrap();
        assert_eq!(net.events_processed(), first + second);
    }
}
