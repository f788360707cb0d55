//! Endpoint state machines and their I/O context.
//!
//! A [`Conduit`] is one endpoint of one connection — the simulator's
//! equivalent of a socket owner. All I/O is callback-driven, mirroring
//! the event-driven style of embedded TCP/IP stacks: the network calls
//! `on_open` / `on_data` / `on_close`, and the conduit reacts through the
//! [`IoCtx`] it is handed (send bytes, dial further connections, close).
//! Each send is one frame; [`IoCtx::send_with`] writes it in place into
//! a buffer the network recycles from delivered frames.
//!
//! Multi-connection actors — a TLS proxy holds a client-side and an
//! upstream connection; a measurement probe runs a policy fetch, many TLS
//! probes and a report upload — are built from several conduits sharing
//! state through [`Shared`] cells. A [`Network`] and everything it drives
//! live on one thread (a sharded study builds one network per shard, on
//! the shard's thread), and one event loop never re-enters a conduit, so
//! a cell is never borrowed twice at once.

use std::cell::{RefCell, RefMut};
use std::rc::Rc;

use crate::addr::Ipv4;
use crate::net::Network;

/// Shared mutable state between the conduits of one actor (and the code
/// that launched them): a cheap clone-able `Rc<RefCell<T>>`.
///
/// Within one event loop access is strictly sequential (callbacks never
/// re-enter), so no `lock` overlaps another on the same cell.
#[derive(Debug, Default)]
pub struct Shared<T>(Rc<RefCell<T>>);

impl<T> Shared<T> {
    /// Wrap a value.
    pub fn new(value: T) -> Shared<T> {
        Shared(Rc::new(RefCell::new(value)))
    }

    /// Borrow the value mutably until the returned guard drops.
    pub fn lock(&self) -> RefMut<'_, T> {
        self.0.borrow_mut()
    }

    /// Take the value out if this is the last handle, else hand the
    /// shared handle back.
    pub fn into_inner(self) -> Result<T, Shared<T>> {
        Rc::try_unwrap(self.0).map(RefCell::into_inner).map_err(Shared)
    }
}

impl<T> Clone for Shared<T> {
    fn clone(&self) -> Self {
        Shared(self.0.clone())
    }
}

/// Identifies one side of one connection.
///
/// Tokens are generation-stamped: when a connection finishes, its slot
/// returns to the network's free list and is reused by later dials, but
/// the generation counter is bumped so a stale token held by a conduit
/// (e.g. a proxy remembering a long-gone upstream leg) can never act on
/// the slot's new occupant — sends and closes through a stale token are
/// silently dropped, exactly like packets to a closed socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConnToken {
    pub(crate) slot: usize,
    pub(crate) gen: u64,
}

/// Why a dial attempt failed synchronously.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DialError {
    /// Nothing listens at the destination address/port.
    Refused,
}

impl core::fmt::Display for DialError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DialError::Refused => write!(f, "connection refused"),
        }
    }
}

impl std::error::Error for DialError {}

/// An endpoint state machine.
pub trait Conduit {
    /// The connection is established (three-way handshake done).
    fn on_open(&mut self, io: &mut IoCtx<'_>);

    /// Bytes arrived from the peer.
    fn on_data(&mut self, data: &[u8], io: &mut IoCtx<'_>);

    /// The peer closed (or the network tore the connection down).
    fn on_close(&mut self, _io: &mut IoCtx<'_>) {}
}

/// The capabilities a conduit has while handling an event.
///
/// Borrowed mutably from the [`Network`]; all operations are queued as
/// future events, so no callback ever re-enters another conduit.
pub struct IoCtx<'a> {
    pub(crate) net: &'a mut Network,
    pub(crate) current: ConnToken,
}

impl IoCtx<'_> {
    /// Virtual time, in microseconds since simulation start.
    pub fn now_us(&self) -> u64 {
        self.net.now_us()
    }

    /// The token of the connection side this event belongs to.
    pub fn token(&self) -> ConnToken {
        self.current
    }

    /// Send bytes to the peer of the current connection, as one frame.
    pub fn send(&mut self, bytes: &[u8]) {
        self.send_with(|frame| frame.extend_from_slice(bytes));
    }

    /// Send one frame to the peer of the current connection, written by
    /// `fill` into an empty recycled buffer — a conduit encodes its
    /// message straight into the frame instead of into a buffer of its
    /// own that [`IoCtx::send`] would copy.
    pub fn send_with(&mut self, fill: impl FnOnce(&mut Vec<u8>)) {
        let tok = self.current;
        self.net.queue_send_with(tok, fill);
    }

    /// Send bytes on another connection this actor owns (e.g. a proxy
    /// relaying from its client side to its upstream side).
    pub fn send_on(&mut self, token: ConnToken, bytes: &[u8]) {
        self.net.queue_send_with(token, |frame| frame.extend_from_slice(bytes));
    }

    /// Close the current connection.
    pub fn close(&mut self) {
        let tok = self.current;
        self.net.queue_close(tok);
    }

    /// Close another owned connection.
    pub fn close_on(&mut self, token: ConnToken) {
        self.net.queue_close(token);
    }

    /// Dial a new connection from this actor to `(dst, port)`.
    ///
    /// Dials made from within a conduit bypass the client's interceptor
    /// chain — they model the middlebox's own upstream traffic (a TLS
    /// proxy does not intercept itself) and the client process's
    /// follow-up connections (the measurement tool's report upload).
    /// They inherit the current connection's dial scope, so fault
    /// sampling on the new leg stays a pure function of the owning
    /// session, and the acceptor sees the scope's client as the source.
    pub fn dial(
        &mut self,
        dst: Ipv4,
        port: u16,
        conduit: Box<dyn Conduit>,
    ) -> Result<ConnToken, DialError> {
        let from = self.current;
        self.net.dial_from_conduit(from, dst, port, conduit)
    }
}
