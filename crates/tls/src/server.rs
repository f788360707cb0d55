//! The serving side: answer a ClientHello with ServerHello +
//! Certificate + ServerHelloDone.
//!
//! Every probed host in the study (the authors' server and the 17
//! Table-1 sites) runs a [`TlsCertServer`]; interception products embed
//! the same responder for their client-facing leg, just with a substitute
//! chain.

use std::sync::Arc;

use tlsfoe_netsim::{Conduit, IoCtx};
use tlsfoe_x509::Certificate;

use crate::cipher::CipherSuite;
use crate::handshake::{Alert, CertificateMsg, HandshakeMsg, HandshakeParser, ServerHello};
use crate::record::{encode_records, ContentType, ProtocolVersion, RecordParser};
use crate::wire::WireWriter;

/// Immutable per-host serving configuration, shared by all sessions.
#[derive(Debug)]
pub struct ServerConfig {
    /// Chain to present, leaf first. `Arc`'d so proxies serving chains
    /// straight out of the shared substitute cache pay a refcount bump,
    /// not a deep DER copy, per intercepted connection.
    pub chain: Arc<Vec<Certificate>>,
    /// Cipher suite to select.
    pub cipher_suite: CipherSuite,
    /// Server random (fixed per config; the probe never checks freshness
    /// and determinism keeps experiments reproducible).
    pub server_random: [u8; 32],
    /// Lazily-encoded hello flight per negotiated version. A config is
    /// immutable and lives as long as its listener (a whole shard on the
    /// long-lived network), while the flight bytes are identical for
    /// every accepted connection — encode once, serve forever.
    flights: [std::sync::OnceLock<Vec<u8>>; 4],
}

/// Process-wide count of [`ServerConfig`]s ever constructed.
///
/// Regression hook for the caching layers that are supposed to make
/// configs long-lived (listener configs per shard, the substitute
/// cache's per-chain config): tests snapshot this around a workload and
/// assert the delta, catching any path that quietly goes back to
/// building a config per connection.
pub fn configs_built() -> u64 {
    CONFIGS_BUILT.load(std::sync::atomic::Ordering::Relaxed)
}

static CONFIGS_BUILT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

impl ServerConfig {
    /// Config serving `chain` with the era's default RSA suite (accepts
    /// a plain `Vec` or an already-shared `Arc<Vec<_>>`). Returned
    /// `Arc`'d so one config can back listener factories on every
    /// worker's shard-lifetime network, not just a single thread.
    pub fn new(chain: impl Into<Arc<Vec<Certificate>>>) -> Arc<ServerConfig> {
        CONFIGS_BUILT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Arc::new(ServerConfig {
            chain: chain.into(),
            cipher_suite: CipherSuite::RSA_AES_128_CBC_SHA,
            server_random: [0x42; 32],
            flights: [const { std::sync::OnceLock::new() }; 4],
        })
    }

    /// Encode the ServerHello → Certificate → ServerHelloDone flight for
    /// the given negotiated version (cached per config+version; every
    /// session serving this chain shares one encoding).
    pub fn hello_flight(&self, version: ProtocolVersion) -> &[u8] {
        let [ssl30, tls10, tls11, tls12] = &self.flights;
        let flight = match version {
            ProtocolVersion::Ssl30 => ssl30,
            ProtocolVersion::Tls10 => tls10,
            ProtocolVersion::Tls11 => tls11,
            ProtocolVersion::Tls12 => tls12,
        };
        flight.get_or_init(|| {
            let mut w = WireWriter::new();
            HandshakeMsg::ServerHello(ServerHello {
                version,
                random: self.server_random,
                session_id: &[0xab; 8],
                cipher_suite: self.cipher_suite,
            })
            .encode_into(&mut w);
            CertificateMsg::encode_chain(&mut w, self.chain.iter().map(Certificate::to_der));
            HandshakeMsg::ServerHelloDone.encode_into(&mut w);
            encode_records(ContentType::Handshake, version, &w.finish())
        })
    }
}

/// One server-side handshake session.
pub struct TlsCertServer {
    config: Arc<ServerConfig>,
    records: RecordParser,
    handshakes: HandshakeParser,
    answered: bool,
}

impl TlsCertServer {
    /// New session over the shared config.
    pub fn new(config: Arc<ServerConfig>) -> Self {
        TlsCertServer {
            config,
            records: RecordParser::new(),
            handshakes: HandshakeParser::new(),
            answered: false,
        }
    }
}

impl Conduit for TlsCertServer {
    fn on_open(&mut self, _io: &mut IoCtx<'_>) {}

    fn on_data(&mut self, data: &[u8], io: &mut IoCtx<'_>) {
        let mut records = self.records.parse(data);
        loop {
            let rec = match records.next_record() {
                Ok(Some(rec)) => rec,
                Ok(None) => return,
                Err(_) => {
                    io.close();
                    return;
                }
            };
            match rec.content_type {
                ContentType::Handshake => {
                    let mut msgs = self.handshakes.parse(rec.payload);
                    loop {
                        match msgs.next_message() {
                            Ok(Some(HandshakeMsg::ClientHello(ch))) if !self.answered => {
                                self.answered = true;
                                // Negotiate: accept the client's version
                                // (all era versions serve identically
                                // for a certificate probe).
                                io.send(self.config.hello_flight(ch.version));
                            }
                            Ok(Some(_)) => {} // ignore everything else
                            Ok(None) => break,
                            Err(_) => {
                                io.send(
                                    &Alert {
                                        level: crate::handshake::AlertLevel::Fatal,
                                        description: 50, // decode_error
                                    }
                                    .encode_record(ProtocolVersion::Tls10),
                                );
                                io.close();
                                return;
                            }
                        }
                    }
                }
                ContentType::Alert => {
                    // close_notify or abort from the probe.
                    io.close();
                    return;
                }
                _ => {}
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use tlsfoe_crypto::drbg::Drbg;
    use tlsfoe_crypto::RsaKeyPair;
    use tlsfoe_x509::{CertificateBuilder, NameBuilder};

    fn chain() -> Vec<Certificate> {
        let key = RsaKeyPair::generate(512, &mut Drbg::new(77)).unwrap();
        vec![CertificateBuilder::new()
            .subject(NameBuilder::new().common_name("h.example").build())
            .self_sign(&key)
            .unwrap()]
    }

    #[test]
    fn hello_flight_parses_back() {
        let cfg = ServerConfig::new(chain());
        let flight = cfg.hello_flight(ProtocolVersion::Tls10);
        let mut rp = RecordParser::new();
        let mut records = rp.parse(flight);
        let rec = records.next_record().unwrap().unwrap();
        assert_eq!(rec.content_type, ContentType::Handshake);
        let mut hp = HandshakeParser::new();
        let mut msgs = hp.parse(rec.payload);
        assert!(matches!(msgs.next_message().unwrap(), Some(HandshakeMsg::ServerHello(_))));
        match msgs.next_message().unwrap() {
            Some(HandshakeMsg::Certificate(c)) => {
                assert_eq!(c.certs().count(), 1);
                let cert = Certificate::from_der(c.certs().next().unwrap()).unwrap();
                assert_eq!(cert.tbs.subject.common_name(), Some("h.example"));
            }
            other => panic!("expected Certificate, got {other:?}"),
        }
        assert_eq!(msgs.next_message().unwrap(), Some(HandshakeMsg::ServerHelloDone));
        assert_eq!(msgs.next_message().unwrap(), None);
        drop(msgs);
        assert!(records.next_record().unwrap().is_none(), "a small flight is one record");
    }

    #[test]
    fn flight_respects_client_version() {
        let cfg = ServerConfig::new(chain());
        for v in [ProtocolVersion::Tls10, ProtocolVersion::Tls12] {
            let flight = cfg.hello_flight(v);
            let mut rp = RecordParser::new();
            let rec = rp.parse(flight).next_record().unwrap().unwrap().version;
            assert_eq!(rec, v);
        }
    }
}
