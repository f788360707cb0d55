//! The measurement probe (§3.2 of the paper).
//!
//! [`ProbeClient`] reproduces the Flash tool's behaviour byte for byte:
//!
//! 1. send a ClientHello (with SNI) to the target,
//! 2. collect ServerHello and the **complete Certificate message** —
//!    including multi-certificate chains,
//! 3. abort: send a close_notify alert and close the connection — no key
//!    exchange, no ChangeCipherSpec,
//! 4. leave the captured chain in a shared [`ProbeOutcome`] cell for the
//!    reporting stage.

use std::borrow::Cow;

use tlsfoe_netsim::{Conduit, IoCtx, Shared};

use crate::cipher::{CipherSuite, CipherSuites};
use crate::handshake::{Alert, ClientHello, HandshakeMsg, HandshakeParser};
use crate::record::{encode_single_record_with, ContentType, ProtocolVersion, RecordParser};
use crate::TlsError;

/// Why a probe failed — the typed taxonomy replacing silent drops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeError {
    /// The server answered with a TLS alert before the certificate.
    Alert,
    /// Received bytes failed record/handshake parsing (wire corruption
    /// or a non-TLS endpoint).
    Parse(TlsError),
    /// The connection closed before a certificate was captured
    /// (reset, truncation, or a server that hung up).
    ClosedEarly,
}

impl core::fmt::Display for ProbeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ProbeError::Alert => write!(f, "server sent a fatal alert"),
            ProbeError::Parse(e) => write!(f, "TLS parse failed: {e:?}"),
            ProbeError::ClosedEarly => write!(f, "connection closed before certificate"),
        }
    }
}

/// Probe lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeState {
    /// Dialed, nothing received yet.
    Started,
    /// ServerHello received.
    GotServerHello,
    /// Certificate captured; handshake aborted. Terminal success.
    Done,
    /// Connection closed / errored before a certificate was captured.
    Failed,
}

/// Shared result cell, filled in by the probe conduit.
#[derive(Debug)]
pub struct ProbeOutcome {
    /// Lifecycle state.
    pub state: ProbeState,
    /// Negotiated version from ServerHello.
    pub server_version: Option<ProtocolVersion>,
    /// Selected cipher suite from ServerHello.
    pub cipher_suite: Option<CipherSuite>,
    /// Captured DER chain, leaf first.
    pub chain_der: Vec<Vec<u8>>,
    /// Virtual time (µs) when the certificate was captured.
    pub completed_at_us: Option<u64>,
    /// Why the probe failed (set iff `state` is [`ProbeState::Failed`];
    /// the first failure observed wins).
    pub error: Option<ProbeError>,
}

impl ProbeOutcome {
    /// Fresh pending outcome.
    pub fn new() -> Shared<ProbeOutcome> {
        Shared::new(ProbeOutcome {
            state: ProbeState::Started,
            server_version: None,
            cipher_suite: None,
            chain_der: Vec::new(),
            completed_at_us: None,
            error: None,
        })
    }

    /// Reset to a fresh pending outcome (in place, preserving sharing) —
    /// the retry layer reuses one cell across attempts.
    pub fn reset(&mut self) {
        self.state = ProbeState::Started;
        self.server_version = None;
        self.cipher_suite = None;
        self.chain_der.clear();
        self.completed_at_us = None;
        self.error = None;
    }

    /// Record a failure, unless the certificate was already captured;
    /// the first failure observed wins.
    fn fail(&mut self, error: ProbeError) {
        if self.state != ProbeState::Done {
            self.state = ProbeState::Failed;
            if self.error.is_none() {
                self.error = Some(error);
            }
        }
    }
}

/// The probing conduit.
pub struct ProbeClient {
    /// SNI host: borrowed for a catalog name or literal, owned when the
    /// caller hands over a `String`, never copied per probe.
    host: Cow<'static, str>,
    version: ProtocolVersion,
    random: [u8; 32],
    outcome: Shared<ProbeOutcome>,
    records: RecordParser,
    handshakes: HandshakeParser,
}

impl ProbeClient {
    /// Create a probe for `host` (used as SNI), writing into `outcome`.
    ///
    /// `random` seeds the ClientHello randomness — callers derive it from
    /// the experiment DRBG for reproducibility.
    pub fn new(
        host: impl Into<Cow<'static, str>>,
        random: [u8; 32],
        outcome: Shared<ProbeOutcome>,
    ) -> Self {
        ProbeClient {
            host: host.into(),
            version: ProtocolVersion::Tls10,
            random,
            outcome,
            records: RecordParser::new(),
            handshakes: HandshakeParser::new(),
        }
    }

    /// Override the offered protocol version.
    pub fn with_version(mut self, version: ProtocolVersion) -> Self {
        self.version = version;
        self
    }
}

impl Conduit for ProbeClient {
    fn on_open(&mut self, io: &mut IoCtx<'_>) {
        // A ClientHello is far below one record, so the whole dial flight
        // — record header, handshake header, hello body — encodes straight
        // into the frame, with backpatched lengths, from borrowed fields.
        let hello = HandshakeMsg::ClientHello(ClientHello {
            version: self.version,
            random: self.random,
            session_id: &[],
            cipher_suites: CipherSuites::CLIENT_OFFER,
            server_name: Some(Cow::Borrowed(&self.host)),
        });
        io.send_with(|frame| {
            encode_single_record_with(frame, ContentType::Handshake, self.version, |w| {
                hello.encode_into(w)
            })
        });
    }

    fn on_data(&mut self, data: &[u8], io: &mut IoCtx<'_>) {
        let mut records = self.records.parse(data);
        loop {
            let rec = match records.next_record() {
                Ok(Some(rec)) => rec,
                Ok(None) => return,
                Err(e) => {
                    self.outcome.lock().fail(ProbeError::Parse(e));
                    io.close();
                    return;
                }
            };
            match rec.content_type {
                ContentType::Handshake => {
                    let mut msgs = self.handshakes.parse(rec.payload);
                    loop {
                        match msgs.next_message() {
                            Ok(Some(HandshakeMsg::ServerHello(sh))) => {
                                let mut o = self.outcome.lock();
                                o.state = ProbeState::GotServerHello;
                                o.server_version = Some(sh.version);
                                o.cipher_suite = Some(sh.cipher_suite);
                            }
                            Ok(Some(HandshakeMsg::Certificate(cm))) => {
                                {
                                    let mut o = self.outcome.lock();
                                    o.chain_der = cm.to_chain();
                                    o.state = ProbeState::Done;
                                    o.completed_at_us = Some(io.now_us());
                                }
                                // §3.2: abort the handshake and close.
                                io.send(&Alert::close_notify().encode_record(self.version));
                                io.close();
                                return;
                            }
                            Ok(Some(_)) => {}
                            Ok(None) => break,
                            Err(e) => {
                                self.outcome.lock().fail(ProbeError::Parse(e));
                                io.close();
                                return;
                            }
                        }
                    }
                }
                ContentType::Alert => {
                    self.outcome.lock().fail(ProbeError::Alert);
                    io.close();
                    return;
                }
                _ => {}
            }
        }
    }

    fn on_close(&mut self, _io: &mut IoCtx<'_>) {
        self.outcome.lock().fail(ProbeError::ClosedEarly);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::server::{ServerConfig, TlsCertServer};
    use tlsfoe_crypto::drbg::Drbg;
    use tlsfoe_crypto::RsaKeyPair;
    use tlsfoe_netsim::{Ipv4, Network, NetworkConfig};
    use tlsfoe_x509::{Certificate, CertificateBuilder, NameBuilder};

    fn server_chain(host: &str, seed: u64) -> Vec<Certificate> {
        let ca = RsaKeyPair::generate(512, &mut Drbg::new(seed)).unwrap();
        let leaf_key = RsaKeyPair::generate(512, &mut Drbg::new(seed + 1)).unwrap();
        let ca_name = NameBuilder::new().organization("DigiCert Inc").build();
        let ca_cert =
            CertificateBuilder::new().subject(ca_name.clone()).ca(None).self_sign(&ca).unwrap();
        let leaf = CertificateBuilder::new()
            .issuer(ca_name)
            .subject(NameBuilder::new().common_name(host).build())
            .san_dns(&[host])
            .sign(&leaf_key.public, &ca)
            .unwrap();
        vec![leaf, ca_cert]
    }

    #[test]
    fn end_to_end_probe_captures_chain() {
        let mut net = Network::new(NetworkConfig::default(), 1);
        let srv = Ipv4([203, 0, 113, 1]);
        let chain = server_chain("tlsresearch.byu.edu", 300);
        let expected: Vec<Vec<u8>> = chain.iter().map(|c| c.to_der().to_vec()).collect();
        let cfg = ServerConfig::new(chain);
        net.listen(srv, 443, Box::new(move |_| Box::new(TlsCertServer::new(cfg.clone()))));

        let outcome = ProbeOutcome::new();
        net.dial_from(
            Ipv4([198, 51, 100, 1]),
            srv,
            443,
            Box::new(ProbeClient::new("tlsresearch.byu.edu", [3u8; 32], outcome.clone())),
        )
        .unwrap();
        net.run().unwrap();

        let o = outcome.lock();
        assert_eq!(o.state, ProbeState::Done);
        assert_eq!(o.server_version, Some(ProtocolVersion::Tls10));
        assert_eq!(o.chain_der, expected);
        assert!(o.completed_at_us.is_some());
        // The captured leaf parses and names the right host.
        let leaf = Certificate::from_der(&o.chain_der[0]).unwrap();
        assert!(leaf.matches_host("tlsresearch.byu.edu"));
    }

    #[test]
    fn probe_fails_when_nothing_listens_is_a_dial_error() {
        let mut net = Network::new(NetworkConfig::default(), 1);
        let outcome = ProbeOutcome::new();
        let err = net.dial_from(
            Ipv4([198, 51, 100, 1]),
            Ipv4([203, 0, 113, 9]),
            443,
            Box::new(ProbeClient::new("x", [0u8; 32], outcome.clone())),
        );
        assert!(err.is_err());
        assert_eq!(outcome.lock().state, ProbeState::Started);
    }

    #[test]
    fn probe_fails_on_server_that_closes() {
        struct SlamDoor;
        impl Conduit for SlamDoor {
            fn on_open(&mut self, _io: &mut IoCtx<'_>) {}
            fn on_data(&mut self, _d: &[u8], io: &mut IoCtx<'_>) {
                io.close();
            }
        }
        let mut net = Network::new(NetworkConfig::default(), 1);
        let srv = Ipv4([203, 0, 113, 1]);
        net.listen(srv, 443, Box::new(|_| Box::new(SlamDoor)));
        let outcome = ProbeOutcome::new();
        net.dial_from(
            Ipv4([198, 51, 100, 1]),
            srv,
            443,
            Box::new(ProbeClient::new("x", [0u8; 32], outcome.clone())),
        )
        .unwrap();
        net.run().unwrap();
        assert_eq!(outcome.lock().state, ProbeState::Failed);
    }

    #[test]
    fn probe_aborts_before_key_exchange() {
        // The server session must observe an Alert (close_notify) right
        // after serving its flight — i.e. the probe never continues.
        struct RecordingServer {
            inner: TlsCertServer,
            saw_alert: Shared<bool>,
        }
        impl Conduit for RecordingServer {
            fn on_open(&mut self, io: &mut IoCtx<'_>) {
                self.inner.on_open(io);
            }
            fn on_data(&mut self, data: &[u8], io: &mut IoCtx<'_>) {
                if data.first() == Some(&(ContentType::Alert as u8)) {
                    *self.saw_alert.lock() = true;
                }
                self.inner.on_data(data, io);
            }
        }

        let mut net = Network::new(NetworkConfig::default(), 1);
        let srv = Ipv4([203, 0, 113, 1]);
        let cfg = ServerConfig::new(server_chain("h.example", 310));
        let saw_alert = Shared::new(false);
        net.listen(srv, 443, {
            let saw_alert = saw_alert.clone();
            Box::new(move |_| {
                Box::new(RecordingServer {
                    inner: TlsCertServer::new(cfg.clone()),
                    saw_alert: saw_alert.clone(),
                })
            })
        });
        let outcome = ProbeOutcome::new();
        net.dial_from(
            Ipv4([198, 51, 100, 1]),
            srv,
            443,
            Box::new(ProbeClient::new("h.example", [1u8; 32], outcome.clone())),
        )
        .unwrap();
        net.run().unwrap();
        assert_eq!(outcome.lock().state, ProbeState::Done);
        assert!(*saw_alert.lock(), "probe must abort with an alert");
    }

    #[test]
    fn tls12_probe_negotiates_tls12() {
        let mut net = Network::new(NetworkConfig::default(), 1);
        let srv = Ipv4([203, 0, 113, 1]);
        let cfg = ServerConfig::new(server_chain("h.example", 320));
        net.listen(srv, 443, Box::new(move |_| Box::new(TlsCertServer::new(cfg.clone()))));
        let outcome = ProbeOutcome::new();
        net.dial_from(
            Ipv4([198, 51, 100, 1]),
            srv,
            443,
            Box::new(
                ProbeClient::new("h.example", [1u8; 32], outcome.clone())
                    .with_version(ProtocolVersion::Tls12),
            ),
        )
        .unwrap();
        net.run().unwrap();
        assert_eq!(outcome.lock().server_version, Some(ProtocolVersion::Tls12));
    }
}
