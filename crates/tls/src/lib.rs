//! # tlsfoe-tls
//!
//! The TLS machinery the measurement tool needs, implemented from scratch
//! at the byte level:
//!
//! * [`wire`] — big-endian primitive codec (u8/u16/u24, length-prefixed
//!   vectors) shared by all message types,
//! * [`record`] — the TLS record layer (type, version, length framing,
//!   fragmentation and reassembly),
//! * [`handshake`] — ClientHello / ServerHello / Certificate /
//!   ServerHelloDone / Alert messages,
//! * [`cipher`] — the 2014-era cipher-suite registry (ids and names),
//! * [`server`] — a serving conduit that answers ClientHello with
//!   ServerHello + Certificate (what every probed host runs),
//! * [`probe`] — the measurement client (§3.2): sends a ClientHello,
//!   records ServerHello and the full Certificate chain, then **aborts
//!   the handshake** — never performing key exchange, exactly like the
//!   paper's Flash tool.
//!
//! Nothing here encrypts: the study's probe terminates before
//! `ChangeCipherSpec`, so the cleartext handshake subset is the complete
//! requirement — implementing it fully (rather than mocking) is what lets
//! simulated middleboxes interpose on real bytes.
//!
//! **Parsing in place.** A session's messages almost always arrive one
//! per frame, so the streaming parsers read them where they landed.
//! [`RecordParser::parse`] yields records whose payloads borrow the
//! delivered frame, and [`handshake::HandshakeParser::parse`] yields
//! [`handshake::HandshakeMsg`]s whose session ids, cipher suites, SNI
//! names and certificates borrow the record payload. Only a message cut
//! off at the end of a frame is copied, into the parser's carried tail,
//! and the next frame is appended to it. A caller that keeps a field
//! past the delivery copies it out of the borrowed message (the probe's
//! captured chain, a proxy's SNI host). Every parser here reads
//! untrusted bytes, so none of them indexes: `panic-free` is a hard lint
//! rule in this crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

pub mod cipher;
pub mod handshake;
pub mod probe;
pub mod record;
pub mod server;
pub mod wire;

pub use probe::{ProbeClient, ProbeError, ProbeOutcome, ProbeState};
pub use record::{ContentType, ProtocolVersion, RecordParser};
pub use server::{ServerConfig, TlsCertServer};

/// Errors from TLS message parsing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TlsError {
    /// Ran out of bytes mid-structure.
    Truncated,
    /// A structural invariant failed.
    Malformed(&'static str),
    /// Unknown/unsupported protocol version on the wire.
    BadVersion(u8, u8),
    /// Record payload exceeded the 2^14 limit.
    RecordOverflow,
}

impl core::fmt::Display for TlsError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TlsError::Truncated => write!(f, "TLS message truncated"),
            TlsError::Malformed(what) => write!(f, "malformed TLS message: {what}"),
            TlsError::BadVersion(maj, min) => write!(f, "bad TLS version {maj}.{min}"),
            TlsError::RecordOverflow => write!(f, "TLS record exceeds 2^14 bytes"),
        }
    }
}

impl std::error::Error for TlsError {}
