//! # tlsfoe-netsim
//!
//! A deterministic, event-driven network simulator in the spirit of
//! smoltcp: no threads, no wall clock, no hidden state. It provides what
//! the measurement study needs from "the Internet":
//!
//! * [`addr`] — IPv4 addresses and address blocks,
//! * [`conduit`] — the [`conduit::Conduit`] trait: an endpoint state
//!   machine driven by `on_open` / `on_data` / `on_close` callbacks,
//! * [`net`] — the [`net::Network`]: listeners, dialing (a client's
//!   dials pass its interceptor chain — TLS proxies! — and a conduit's
//!   own dials do not), one link with a fixed latency and typed faults,
//!   all advanced by one deterministic event loop that recycles
//!   the buffers of delivered frames for the next sends and keys its
//!   per-client tables with a fixed word-at-a-time hasher,
//! * [`fault`] — the typed fault model: resets, blackholes, truncation,
//!   corruption and stalls, sampled per connection,
//! * [`policy`] — the Flash socket-policy-file service the paper's tool
//!   depends on (§3.1), plus the client-side policy fetch logic.
//!
//! One [`net::Network`] is one single-threaded event loop, and it and
//! its conduits never leave the thread that built them: conduits share
//! state through `Rc`-based [`conduit::Shared`] cells. A parallel study
//! runs several independent networks, one per OS thread, each driving
//! its own slice of the sessions (see `tlsfoe_core::study`).
//!
//! The key design decision: **interception is a property of the client's
//! path**, mirroring reality. When a client dials out, the network walks
//! the client's interceptor chain; an interceptor may claim the
//! connection, at which point it owns the client-facing endpoint and may
//! dial upstream itself (exactly Figure 3 of the paper). Interceptors
//! that decide — after peeking at the ClientHello — not to intercept can
//! splice the two sides together transparently, which is how whitelists
//! (§6.3) behave on the wire.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

pub mod addr;
pub mod conduit;
pub mod fault;
pub mod net;
pub mod policy;

pub use addr::Ipv4;
pub use conduit::{Conduit, ConnToken, IoCtx, Shared};
pub use fault::FaultProfile;
pub use net::{DialError, NetRunError, Network, NetworkConfig};
pub use policy::{fetch_policy, PolicyFetchResult, PolicyServer, SOCKET_POLICY_BODY};
