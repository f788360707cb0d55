//! TLS handshake messages (cleartext subset).
//!
//! Everything the probe and every middlebox in the simulation exchanges:
//! ClientHello (with SNI — middleboxes use it for whitelist decisions,
//! §6.3), ServerHello, Certificate (the payload the whole study is
//! about), ServerHelloDone and Alert.
//!
//! Messages borrow: [`HandshakeParser`] decodes each one straight out of
//! the record payload that completes it (see [`crate::record`]), and the
//! session id, cipher suites, SNI name and certificates of a decoded
//! [`HandshakeMsg`] point into those bytes. Each message has one
//! decoder; where a caller keeps a field past the delivery (a probe's
//! captured chain, a proxy's SNI host), it copies it out of the
//! borrowed message. The same borrowed types encode: the probe writes
//! its ClientHello from borrowed fields straight into its frame.

use std::borrow::Cow;

use crate::cipher::{CipherSuite, CipherSuites};
use crate::record::ProtocolVersion;
use crate::wire::{Carry, Pending, WireReader, WireWriter};
use crate::TlsError;

/// Handshake message type bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum HandshakeType {
    /// ClientHello (1).
    ClientHello = 1,
    /// ServerHello (2).
    ServerHello = 2,
    /// Certificate (11).
    Certificate = 11,
    /// ServerHelloDone (14).
    ServerHelloDone = 14,
}

impl HandshakeType {
    fn from_u8(v: u8) -> Result<Self, TlsError> {
        match v {
            1 => Ok(HandshakeType::ClientHello),
            2 => Ok(HandshakeType::ServerHello),
            11 => Ok(HandshakeType::Certificate),
            14 => Ok(HandshakeType::ServerHelloDone),
            _ => Err(TlsError::Malformed("unknown handshake type")),
        }
    }
}

/// The SNI extension id.
pub const EXT_SERVER_NAME: u16 = 0x0000;

/// ClientHello.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientHello<'a> {
    /// Offered protocol version.
    pub version: ProtocolVersion,
    /// 32 bytes of client randomness.
    pub random: [u8; 32],
    /// Session id (empty for fresh handshakes).
    pub session_id: &'a [u8],
    /// Offered cipher suites, preference order.
    pub cipher_suites: CipherSuites<'a>,
    /// Server name indication, if offered (decoded as lossy UTF-8, so
    /// it borrows unless the name is invalid UTF-8).
    pub server_name: Option<Cow<'a, str>>,
}

impl<'a> ClientHello<'a> {
    /// Encode the handshake body (without the 4-byte handshake header)
    /// into `w`.
    fn encode_body(&self, w: &mut WireWriter) {
        let (maj, min) = self.version.bytes();
        w.u8(maj);
        w.u8(min);
        w.bytes(&self.random);
        w.vec8(self.session_id);
        w.vec16(self.cipher_suites.wire());
        w.vec8(&[0]); // compression: null only
        if let Some(name) = &self.server_name {
            w.with_len16(|w| {
                // Extension: server_name.
                w.u16(EXT_SERVER_NAME);
                w.with_len16(|w| {
                    // ServerNameList.
                    w.with_len16(|w| {
                        w.u8(0); // name_type: host_name
                        w.vec16(name.as_bytes());
                    });
                });
            });
        }
    }

    fn decode_body(body: &'a [u8]) -> Result<Self, TlsError> {
        let mut r = WireReader::new(body);
        let version = ProtocolVersion::from_bytes(r.u8()?, r.u8()?)?;
        let mut random = [0u8; 32];
        random.copy_from_slice(r.take(32)?);
        let session_id = r.vec8()?;
        let cipher_suites = CipherSuites::from_wire(r.vec16()?)?;
        let _compression = r.vec8()?;
        let mut server_name = None;
        if !r.is_done() {
            let exts = r.vec16()?;
            let mut er = WireReader::new(exts);
            while !er.is_done() {
                let ext_type = er.u16()?;
                let ext_body = er.vec16()?;
                if ext_type == EXT_SERVER_NAME {
                    let mut sr = WireReader::new(ext_body);
                    let list = sr.vec16()?;
                    let mut lr = WireReader::new(list);
                    let name_type = lr.u8()?;
                    let name = lr.vec16()?;
                    if name_type == 0 {
                        server_name = Some(String::from_utf8_lossy(name));
                    }
                }
            }
        }
        Ok(ClientHello { version, random, session_id, cipher_suites, server_name })
    }
}

/// ServerHello.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerHello<'a> {
    /// Selected protocol version.
    pub version: ProtocolVersion,
    /// 32 bytes of server randomness.
    pub random: [u8; 32],
    /// Session id assigned by the server.
    pub session_id: &'a [u8],
    /// Selected cipher suite.
    pub cipher_suite: CipherSuite,
}

impl<'a> ServerHello<'a> {
    fn encode_body(&self, w: &mut WireWriter) {
        let (maj, min) = self.version.bytes();
        w.u8(maj);
        w.u8(min);
        w.bytes(&self.random);
        w.vec8(self.session_id);
        w.u16(self.cipher_suite.0);
        w.u8(0); // compression: null
    }

    fn decode_body(body: &'a [u8]) -> Result<Self, TlsError> {
        let mut r = WireReader::new(body);
        let version = ProtocolVersion::from_bytes(r.u8()?, r.u8()?)?;
        let mut random = [0u8; 32];
        random.copy_from_slice(r.take(32)?);
        let session_id = r.vec8()?;
        let cipher_suite = CipherSuite(r.u16()?);
        let _compression = r.u8()?;
        // Extensions, if any, are ignored by the probe.
        Ok(ServerHello { version, random, session_id, cipher_suite })
    }
}

/// Certificate message: the DER chain, leaf first, borrowed in its wire
/// form (every certificate behind its u24 length, checked on decode).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CertificateMsg<'a> {
    list: &'a [u8],
}

impl<'a> CertificateMsg<'a> {
    /// The DER certificates, leaf first.
    pub fn certs(&self) -> impl Iterator<Item = &'a [u8]> + 'a {
        let mut r = WireReader::new(self.list);
        std::iter::from_fn(move || if r.is_done() { None } else { r.vec24().ok() })
    }

    /// An owned copy of the chain (what a probe's outcome keeps).
    pub fn to_chain(&self) -> Vec<Vec<u8>> {
        let mut chain = Vec::with_capacity(self.certs().count());
        chain.extend(self.certs().map(<[u8]>::to_vec));
        chain
    }

    /// Encode a complete Certificate message (header included) carrying
    /// `chain`, leaf first.
    pub fn encode_chain<'c>(w: &mut WireWriter, chain: impl IntoIterator<Item = &'c [u8]>) {
        w.u8(HandshakeType::Certificate as u8);
        w.with_len24(|w| {
            w.with_len24(|w| {
                for cert in chain {
                    w.vec24(cert);
                }
            })
        });
    }

    fn decode_body(body: &'a [u8]) -> Result<Self, TlsError> {
        let mut r = WireReader::new(body);
        let list = r.vec24()?;
        let mut lr = WireReader::new(list);
        while !lr.is_done() {
            lr.vec24()?;
        }
        Ok(CertificateMsg { list })
    }
}

/// A complete handshake message, borrowing the bytes it was decoded from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HandshakeMsg<'a> {
    /// ClientHello.
    ClientHello(ClientHello<'a>),
    /// ServerHello.
    ServerHello(ServerHello<'a>),
    /// Certificate.
    Certificate(CertificateMsg<'a>),
    /// ServerHelloDone.
    ServerHelloDone,
}

impl HandshakeMsg<'_> {
    /// Encode with the 4-byte handshake header (type + u24 length).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        self.encode_into(&mut w);
        w.finish()
    }

    /// Encode into an existing writer: header plus body land in one
    /// buffer (the u24 length is backpatched), so multi-message flights
    /// and record-framed sends need no per-message scratch `Vec`.
    pub fn encode_into(&self, w: &mut WireWriter) {
        let ty = match self {
            HandshakeMsg::ClientHello(_) => HandshakeType::ClientHello,
            HandshakeMsg::ServerHello(_) => HandshakeType::ServerHello,
            HandshakeMsg::Certificate(m) => return CertificateMsg::encode_chain(w, m.certs()),
            HandshakeMsg::ServerHelloDone => HandshakeType::ServerHelloDone,
        };
        w.u8(ty as u8);
        w.with_len24(|w| match self {
            HandshakeMsg::ClientHello(m) => m.encode_body(w),
            HandshakeMsg::ServerHello(m) => m.encode_body(w),
            HandshakeMsg::Certificate(_) | HandshakeMsg::ServerHelloDone => {}
        });
    }

    fn decode(ty: HandshakeType, body: &[u8]) -> Result<HandshakeMsg<'_>, TlsError> {
        Ok(match ty {
            HandshakeType::ClientHello => {
                HandshakeMsg::ClientHello(ClientHello::decode_body(body)?)
            }
            HandshakeType::ServerHello => {
                HandshakeMsg::ServerHello(ServerHello::decode_body(body)?)
            }
            HandshakeType::Certificate => {
                HandshakeMsg::Certificate(CertificateMsg::decode_body(body)?)
            }
            HandshakeType::ServerHelloDone => {
                if !body.is_empty() {
                    return Err(TlsError::Malformed("non-empty ServerHelloDone"));
                }
                HandshakeMsg::ServerHelloDone
            }
        })
    }
}

/// Streaming handshake-message reassembler: hand it the payload of each
/// Handshake record (messages may span record boundaries) and pop the
/// complete messages.
///
/// Like [`crate::record::RecordParser`], it keeps only an incomplete
/// message between payloads, and decodes the messages a payload holds
/// whole straight out of it.
#[derive(Debug, Default)]
pub struct HandshakeParser {
    carry: Carry,
}

impl HandshakeParser {
    /// New empty parser.
    pub fn new() -> Self {
        Self::default()
    }

    /// Parse `payload`, the next Handshake record payload, after whatever
    /// incomplete message earlier payloads left. Pop the messages with
    /// [`Handshakes::next_message`]; what is left unconsumed when the
    /// returned value drops is carried to the next call.
    pub fn parse<'a>(&'a mut self, payload: &'a [u8]) -> Handshakes<'a> {
        Handshakes(self.carry.begin(payload))
    }
}

/// The handshake messages one record payload completes (see
/// [`HandshakeParser::parse`]).
pub struct Handshakes<'a>(Pending<'a>);

impl Handshakes<'_> {
    /// Pop the next complete handshake message, `Ok(None)` once the rest
    /// is incomplete. The message borrows the payload (or the parser's
    /// carried tail) until the next call.
    pub fn next_message(&mut self) -> Result<Option<HandshakeMsg<'_>>, TlsError> {
        let rest = self.0.rest();
        if rest.len() < 4 {
            return Ok(None);
        }
        let mut r = WireReader::new(rest);
        let ty = HandshakeType::from_u8(r.u8()?)?;
        let len = r.u24()? as usize;
        if r.remaining() < len {
            return Ok(None);
        }
        let body = self.0.take(4 + len).get(4..).unwrap_or_default();
        HandshakeMsg::decode(ty, body).map(Some)
    }
}

/// Alert levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum AlertLevel {
    /// warning(1)
    Warning = 1,
    /// fatal(2)
    Fatal = 2,
}

/// The alerts the probe and servers use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Alert {
    /// Severity.
    pub level: AlertLevel,
    /// Description code (0 = close_notify, 90 = user_canceled, …).
    pub description: u8,
}

impl Alert {
    /// close_notify — what the probe sends when aborting after
    /// Certificate (§3.2: "the handshake is aborted and the connection
    /// is closed").
    pub fn close_notify() -> Alert {
        Alert { level: AlertLevel::Warning, description: 0 }
    }

    /// user_canceled.
    pub fn user_canceled() -> Alert {
        Alert { level: AlertLevel::Warning, description: 90 }
    }

    /// Encode as a 2-byte alert payload.
    pub fn encode(&self) -> Vec<u8> {
        vec![self.level as u8, self.description]
    }

    /// Encode as a complete TLS record — the 7 bytes
    /// `encode_records(Alert, version, &self.encode())` would produce,
    /// without any allocation. Alerts are the one message every session
    /// sends (the probe aborts with close_notify per §3.2), so the hot
    /// paths use this constant-size form.
    pub fn encode_record(&self, version: ProtocolVersion) -> [u8; 7] {
        let (maj, min) = version.bytes();
        [
            crate::record::ContentType::Alert as u8,
            maj,
            min,
            0,
            2,
            self.level as u8,
            self.description,
        ]
    }

    /// Decode from an Alert record payload.
    pub fn decode(data: &[u8]) -> Result<Alert, TlsError> {
        let (raw_level, description) = match data {
            [l, d] => (*l, *d),
            _ => return Err(TlsError::Malformed("alert payload length")),
        };
        let level = match raw_level {
            1 => AlertLevel::Warning,
            2 => AlertLevel::Fatal,
            _ => return Err(TlsError::Malformed("alert level")),
        };
        Ok(Alert { level, description })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn sample_client_hello() -> ClientHello<'static> {
        ClientHello {
            version: ProtocolVersion::Tls10,
            random: [7u8; 32],
            session_id: &[],
            cipher_suites: CipherSuites::CLIENT_OFFER,
            server_name: Some("tlsresearch.byu.edu".into()),
        }
    }

    /// Decode the single message `enc` holds, checking nothing follows.
    fn roundtrip(enc: &[u8], check: impl FnOnce(HandshakeMsg<'_>)) {
        let mut p = HandshakeParser::new();
        let mut msgs = p.parse(enc);
        check(msgs.next_message().unwrap().unwrap());
        assert!(msgs.next_message().unwrap().is_none());
    }

    #[test]
    fn client_hello_roundtrip() {
        let ch = sample_client_hello();
        let enc = HandshakeMsg::ClientHello(ch.clone()).encode();
        roundtrip(&enc, |msg| {
            // The decoded name borrows the encoded bytes.
            let HandshakeMsg::ClientHello(got) = &msg else { panic!("{msg:?}") };
            assert!(matches!(got.server_name, Some(Cow::Borrowed(_))));
            assert_eq!(msg, HandshakeMsg::ClientHello(ch));
        });
    }

    #[test]
    fn client_hello_without_sni() {
        let mut ch = sample_client_hello();
        ch.server_name = None;
        let enc = HandshakeMsg::ClientHello(ch.clone()).encode();
        roundtrip(&enc, |msg| assert_eq!(msg, HandshakeMsg::ClientHello(ch)));
    }

    #[test]
    fn invalid_utf8_sni_decodes_lossily() {
        let mut enc = HandshakeMsg::ClientHello(sample_client_hello()).encode();
        let at = enc.windows(3).position(|w| w == b"tls").unwrap();
        enc[at] = 0xff;
        roundtrip(&enc, |msg| {
            let HandshakeMsg::ClientHello(ch) = msg else { panic!("{msg:?}") };
            assert_eq!(ch.server_name.as_deref(), Some("\u{fffd}lsresearch.byu.edu"));
        });
    }

    #[test]
    fn server_hello_roundtrip() {
        let sh = ServerHello {
            version: ProtocolVersion::Tls10,
            random: [9u8; 32],
            session_id: &[1, 2, 3, 4],
            cipher_suite: CipherSuite::RSA_AES_128_CBC_SHA,
        };
        let enc = HandshakeMsg::ServerHello(sh.clone()).encode();
        roundtrip(&enc, |msg| assert_eq!(msg, HandshakeMsg::ServerHello(sh)));
    }

    #[test]
    fn certificate_chain_roundtrip() {
        let chain: [&[u8]; 2] = [&[0x30, 0x01, 0xaa], &[0x30, 0x02, 0xbb, 0xcc]];
        let mut w = WireWriter::new();
        CertificateMsg::encode_chain(&mut w, chain);
        let enc = w.finish();
        roundtrip(&enc, |msg| {
            let HandshakeMsg::Certificate(cm) = &msg else { panic!("{msg:?}") };
            assert_eq!(cm.certs().collect::<Vec<_>>(), chain);
            assert_eq!(cm.to_chain(), chain);
            // Re-encoding the decoded message gives the same bytes.
            assert_eq!(msg.encode(), enc);
        });
    }

    #[test]
    fn empty_certificate_chain() {
        let mut w = WireWriter::new();
        CertificateMsg::encode_chain(&mut w, []);
        roundtrip(&w.finish(), |msg| {
            let HandshakeMsg::Certificate(cm) = msg else { panic!("{msg:?}") };
            assert_eq!(cm.certs().count(), 0);
        });
    }

    #[test]
    fn bad_certificate_framing_rejected() {
        // The list claims 4 bytes; the one certificate inside claims 9.
        let mut p = HandshakeParser::new();
        assert!(p.parse(&[11, 0, 0, 7, 0, 0, 4, 0, 0, 9, 0xaa]).next_message().is_err());
    }

    #[test]
    fn messages_span_feeds() {
        let enc = HandshakeMsg::ClientHello(sample_client_hello()).encode();
        let mut p = HandshakeParser::new();
        let (a, b) = enc.split_at(enc.len() / 2);
        assert!(p.parse(a).next_message().unwrap().is_none());
        assert!(p.parse(b).next_message().unwrap().is_some());
        // Nothing is carried past a complete message.
        assert!(p.parse(&[]).next_message().unwrap().is_none());
    }

    #[test]
    fn multiple_messages_in_one_feed() {
        let mut bytes = HandshakeMsg::ServerHello(ServerHello {
            version: ProtocolVersion::Tls10,
            random: [0u8; 32],
            session_id: &[],
            cipher_suite: CipherSuite::RSA_AES_256_CBC_SHA,
        })
        .encode();
        let mut w = WireWriter::appending(bytes);
        CertificateMsg::encode_chain(&mut w, [&[1u8][..]]);
        bytes = w.finish();
        bytes.extend(HandshakeMsg::ServerHelloDone.encode());
        let mut p = HandshakeParser::new();
        let mut msgs = p.parse(&bytes);
        assert!(matches!(msgs.next_message().unwrap(), Some(HandshakeMsg::ServerHello(_))));
        assert!(matches!(msgs.next_message().unwrap(), Some(HandshakeMsg::Certificate(_))));
        assert_eq!(msgs.next_message().unwrap(), Some(HandshakeMsg::ServerHelloDone));
        assert_eq!(msgs.next_message().unwrap(), None);
    }

    #[test]
    fn unknown_type_rejected() {
        let mut p = HandshakeParser::new();
        assert!(p.parse(&[99, 0, 0, 0]).next_message().is_err());
    }

    #[test]
    fn nonempty_hello_done_rejected() {
        let mut p = HandshakeParser::new();
        assert!(p.parse(&[14, 0, 0, 1, 0xff]).next_message().is_err());
    }

    #[test]
    fn alert_roundtrip() {
        for alert in [Alert::close_notify(), Alert::user_canceled()] {
            assert_eq!(Alert::decode(&alert.encode()).unwrap(), alert);
        }
        assert!(Alert::decode(&[1]).is_err());
        assert!(Alert::decode(&[3, 0]).is_err());
    }

    #[test]
    fn alert_record_matches_generic_framing() {
        use crate::record::{encode_records, ContentType};
        for alert in [
            Alert::close_notify(),
            Alert::user_canceled(),
            Alert { level: AlertLevel::Fatal, description: 48 },
        ] {
            for version in [ProtocolVersion::Ssl30, ProtocolVersion::Tls10, ProtocolVersion::Tls12]
            {
                assert_eq!(
                    alert.encode_record(version).as_slice(),
                    encode_records(ContentType::Alert, version, &alert.encode()).as_slice(),
                );
            }
        }
    }

    #[test]
    fn encode_into_matches_encode() {
        let mut w = WireWriter::new();
        CertificateMsg::encode_chain(&mut w, [&[0x30u8, 0x01, 0xaa][..]]);
        let cert = w.finish();
        let mut p = HandshakeParser::new();
        let mut parsed = p.parse(&cert);
        let Some(cert_msg) = parsed.next_message().unwrap() else { panic!("no message") };
        let msgs = [
            HandshakeMsg::ClientHello(sample_client_hello()),
            cert_msg,
            HandshakeMsg::ServerHelloDone,
        ];
        let mut w = WireWriter::new();
        let mut concat = Vec::new();
        for m in &msgs {
            m.encode_into(&mut w);
            concat.extend(m.encode());
        }
        assert_eq!(w.finish(), concat);
    }
}
