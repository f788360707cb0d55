//! The TLS record layer (RFC 5246 §6.2): framing, fragmentation and
//! streaming reassembly.
//!
//! [`RecordParser`] parses in place: while it carries no incomplete
//! record over, the records in a delivered frame are read straight out
//! of that frame, and each [`Record`] borrows its payload from it. Only
//! an incomplete tail is copied, to be completed by the next frame.

use crate::wire::{Carry, Pending, WireReader, WireWriter};
use crate::TlsError;

/// Maximum record payload (2^14).
pub const MAX_RECORD_PAYLOAD: usize = 1 << 14;

/// TLS record content types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum ContentType {
    /// ChangeCipherSpec (20) — never reached by the aborting probe.
    ChangeCipherSpec = 20,
    /// Alert (21).
    Alert = 21,
    /// Handshake (22).
    Handshake = 22,
    /// ApplicationData (23).
    ApplicationData = 23,
}

impl ContentType {
    /// Parse from the wire byte.
    pub fn from_u8(v: u8) -> Result<Self, TlsError> {
        match v {
            20 => Ok(ContentType::ChangeCipherSpec),
            21 => Ok(ContentType::Alert),
            22 => Ok(ContentType::Handshake),
            23 => Ok(ContentType::ApplicationData),
            _ => Err(TlsError::Malformed("unknown record content type")),
        }
    }
}

/// Protocol versions of the measurement era.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ProtocolVersion {
    /// SSL 3.0 (3,0) — obsolete but still seen in 2014.
    Ssl30,
    /// TLS 1.0 (3,1) — what Flash 9's Socket-based handshake spoke.
    Tls10,
    /// TLS 1.1 (3,2).
    Tls11,
    /// TLS 1.2 (3,3).
    Tls12,
}

impl ProtocolVersion {
    /// (major, minor) wire bytes.
    pub fn bytes(self) -> (u8, u8) {
        match self {
            ProtocolVersion::Ssl30 => (3, 0),
            ProtocolVersion::Tls10 => (3, 1),
            ProtocolVersion::Tls11 => (3, 2),
            ProtocolVersion::Tls12 => (3, 3),
        }
    }

    /// Parse from wire bytes.
    pub fn from_bytes(major: u8, minor: u8) -> Result<Self, TlsError> {
        match (major, minor) {
            (3, 0) => Ok(ProtocolVersion::Ssl30),
            (3, 1) => Ok(ProtocolVersion::Tls10),
            (3, 2) => Ok(ProtocolVersion::Tls11),
            (3, 3) => Ok(ProtocolVersion::Tls12),
            _ => Err(TlsError::BadVersion(major, minor)),
        }
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            ProtocolVersion::Ssl30 => "SSLv3",
            ProtocolVersion::Tls10 => "TLSv1.0",
            ProtocolVersion::Tls11 => "TLSv1.1",
            ProtocolVersion::Tls12 => "TLSv1.2",
        }
    }
}

/// One complete record, borrowing its payload from the bytes it was
/// parsed out of (see [`RecordParser`]).
#[derive(Debug, PartialEq, Eq)]
pub struct Record<'a> {
    /// Content type.
    pub content_type: ContentType,
    /// Record-layer version.
    pub version: ProtocolVersion,
    /// Payload bytes.
    pub payload: &'a [u8],
}

/// Frame `payload` as one or more records (fragmenting at 2^14).
pub fn encode_records(
    content_type: ContentType,
    version: ProtocolVersion,
    payload: &[u8],
) -> Vec<u8> {
    let records = payload.len().div_ceil(MAX_RECORD_PAYLOAD).max(1);
    let mut out = Vec::with_capacity(payload.len() + 5 * records);
    encode_records_into(&mut out, content_type, version, payload);
    out
}

/// [`encode_records`] into a caller-supplied buffer (appended), so
/// per-session senders can frame without a fresh allocation per flight.
pub fn encode_records_into(
    out: &mut Vec<u8>,
    content_type: ContentType,
    version: ProtocolVersion,
    payload: &[u8],
) {
    let (major, minor) = version.bytes();
    let mut rest = payload;
    loop {
        let take = rest.len().min(MAX_RECORD_PAYLOAD);
        let (chunk, tail) = rest.split_at(take);
        out.push(content_type as u8);
        out.push(major);
        out.push(minor);
        out.extend_from_slice(&(take as u16).to_be_bytes());
        out.extend_from_slice(chunk);
        rest = tail;
        if rest.is_empty() {
            break;
        }
    }
}

/// Append a single record whose payload is produced by a closure
/// writing into a [`WireWriter`] to `out` — header and payload land in
/// one buffer (an outgoing frame), with the length backpatched. The
/// payload must stay under [`MAX_RECORD_PAYLOAD`] (asserted); use
/// [`encode_records`] when it might fragment.
pub fn encode_single_record_with(
    out: &mut Vec<u8>,
    content_type: ContentType,
    version: ProtocolVersion,
    f: impl FnOnce(&mut WireWriter),
) {
    let start = out.len();
    let (major, minor) = version.bytes();
    let mut w = WireWriter::appending(std::mem::take(out));
    w.u8(content_type as u8);
    w.u8(major);
    w.u8(minor);
    w.with_len16(f);
    *out = w.finish();
    assert!(out.len() - start <= 5 + MAX_RECORD_PAYLOAD, "single-record payload overflow");
}

/// Streaming record reassembler: hand it each piece of the stream as it
/// arrives and pop the complete records.
///
/// The parser keeps only an incomplete record between pieces (see the
/// module docs); a piece that holds whole records allocates nothing.
#[derive(Debug, Default)]
pub struct RecordParser {
    carry: Carry,
}

impl RecordParser {
    /// New empty parser.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes carried over: an incomplete record waiting for its rest.
    pub fn buffered(&self) -> usize {
        self.carry.len()
    }

    /// Parse `data`, the next bytes received, after whatever incomplete
    /// record earlier pieces left. Pop the records with
    /// [`Records::next_record`]; what is left unconsumed when the
    /// returned value drops is carried to the next call.
    pub fn parse<'a>(&'a mut self, data: &'a [u8]) -> Records<'a> {
        Records(self.carry.begin(data))
    }
}

/// The records one piece of the stream completes (see
/// [`RecordParser::parse`]).
pub struct Records<'a>(Pending<'a>);

impl Records<'_> {
    /// Pop the next complete record, `Ok(None)` once the rest is
    /// incomplete. The record borrows the delivered bytes (or the
    /// parser's carried tail) until the next call.
    pub fn next_record(&mut self) -> Result<Option<Record<'_>>, TlsError> {
        let rest = self.0.rest();
        if rest.len() < 5 {
            return Ok(None);
        }
        let mut r = WireReader::new(rest);
        let content_type = ContentType::from_u8(r.u8()?)?;
        let major = r.u8()?;
        let minor = r.u8()?;
        let version = ProtocolVersion::from_bytes(major, minor)?;
        let len = r.u16()? as usize;
        if len > MAX_RECORD_PAYLOAD + 2048 {
            return Err(TlsError::RecordOverflow);
        }
        if r.remaining() < len {
            return Ok(None);
        }
        let payload = self.0.take(5 + len).get(5..).unwrap_or_default();
        Ok(Some(Record { content_type, version, payload }))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    /// Every record `pieces` complete, as `(type, version, payload)`.
    fn parse_all(
        p: &mut RecordParser,
        pieces: &[&[u8]],
    ) -> Vec<(ContentType, ProtocolVersion, Vec<u8>)> {
        let mut out = Vec::new();
        for piece in pieces {
            let mut records = p.parse(piece);
            while let Some(rec) = records.next_record().unwrap() {
                out.push((rec.content_type, rec.version, rec.payload.to_vec()));
            }
        }
        out
    }

    #[test]
    fn single_record_roundtrip() {
        let enc = encode_records(ContentType::Handshake, ProtocolVersion::Tls10, b"hello");
        assert_eq!(&enc[..5], &[22, 3, 1, 0, 5]);
        let mut p = RecordParser::new();
        let mut records = p.parse(&enc);
        let rec = records.next_record().unwrap().unwrap();
        assert_eq!(rec.content_type, ContentType::Handshake);
        assert_eq!(rec.version, ProtocolVersion::Tls10);
        assert_eq!(rec.payload, b"hello");
        assert!(records.next_record().unwrap().is_none());
        drop(records);
        assert_eq!(p.buffered(), 0);
    }

    #[test]
    fn whole_records_are_read_in_place() {
        let enc = encode_records(ContentType::Handshake, ProtocolVersion::Tls12, &[7u8; 20_000]);
        let mut p = RecordParser::new();
        let mut records = p.parse(&enc);
        let first = records.next_record().unwrap().unwrap();
        // The payload points into the delivered bytes: nothing was copied.
        assert!(enc.as_ptr_range().contains(&first.payload.as_ptr()));
        assert!(records.next_record().unwrap().is_some());
        assert!(records.next_record().unwrap().is_none());
    }

    #[test]
    fn fragmentation_and_reassembly() {
        // 40000 bytes → 3 records (16384 + 16384 + 7232).
        let payload = vec![0x5au8; 40_000];
        let enc = encode_records(ContentType::Handshake, ProtocolVersion::Tls12, &payload);
        let mut p = RecordParser::new();
        // Feed in awkward chunk sizes.
        let pieces: Vec<&[u8]> = enc.chunks(1000).collect();
        let got = parse_all(&mut p, &pieces);
        assert_eq!(got.len(), 3);
        let total: Vec<u8> = got.into_iter().flat_map(|(_, _, payload)| payload).collect();
        assert_eq!(total, payload);
        assert_eq!(p.buffered(), 0);
    }

    #[test]
    fn partial_header_is_carried() {
        let mut p = RecordParser::new();
        assert!(parse_all(&mut p, &[&[22, 3, 1]]).is_empty());
        assert_eq!(p.buffered(), 3);
        assert!(parse_all(&mut p, &[&[0, 1]]).is_empty()); // body missing
        assert_eq!(p.buffered(), 5);
        let got = parse_all(&mut p, &[&[0xff, 21, 3]]);
        assert_eq!(got, [(ContentType::Handshake, ProtocolVersion::Tls10, vec![0xff])]);
        // Only the next record's incomplete header stays behind.
        assert_eq!(p.buffered(), 2);
    }

    #[test]
    fn parser_buffer_reclaimed_between_flights() {
        let mut p = RecordParser::new();
        for _ in 0..3 {
            let enc = encode_records(ContentType::Handshake, ProtocolVersion::Tls10, b"abc");
            assert_eq!(parse_all(&mut p, &[&enc]).len(), 1);
            assert_eq!(p.buffered(), 0);
        }
    }

    #[test]
    fn encode_into_appends_identically() {
        let payload = vec![0x33u8; 40_000];
        let direct = encode_records(ContentType::Handshake, ProtocolVersion::Tls12, &payload);
        let mut appended = vec![0xee, 0xff]; // pre-existing bytes survive
        encode_records_into(
            &mut appended,
            ContentType::Handshake,
            ProtocolVersion::Tls12,
            &payload,
        );
        assert_eq!(&appended[..2], &[0xee, 0xff]);
        assert_eq!(&appended[2..], direct.as_slice());
    }

    #[test]
    fn single_record_with_matches_encode_records() {
        let body = b"\x01\x02\x03handshake-ish";
        let direct = encode_records(ContentType::Handshake, ProtocolVersion::Tls12, body);
        let mut frame = vec![0xee]; // pre-existing bytes survive
        encode_single_record_with(
            &mut frame,
            ContentType::Handshake,
            ProtocolVersion::Tls12,
            |w| w.bytes(body),
        );
        assert_eq!(frame[0], 0xee);
        assert_eq!(&frame[1..], direct.as_slice());
    }

    #[test]
    fn empty_payload_produces_one_record() {
        let enc = encode_records(ContentType::Alert, ProtocolVersion::Tls10, &[]);
        let mut p = RecordParser::new();
        let got = parse_all(&mut p, &[&enc]);
        assert_eq!(got, [(ContentType::Alert, ProtocolVersion::Tls10, vec![])]);
    }

    #[test]
    fn unknown_content_type_rejected() {
        let mut p = RecordParser::new();
        assert!(p.parse(&[99, 3, 1, 0, 0]).next_record().is_err());
    }

    #[test]
    fn bad_version_rejected() {
        let mut p = RecordParser::new();
        assert_eq!(p.parse(&[22, 9, 9, 0, 0]).next_record(), Err(TlsError::BadVersion(9, 9)));
    }

    #[test]
    fn version_codec() {
        for v in [
            ProtocolVersion::Ssl30,
            ProtocolVersion::Tls10,
            ProtocolVersion::Tls11,
            ProtocolVersion::Tls12,
        ] {
            let (maj, min) = v.bytes();
            assert_eq!(ProtocolVersion::from_bytes(maj, min).unwrap(), v);
        }
        assert!(ProtocolVersion::from_bytes(2, 0).is_err());
    }

    #[test]
    fn version_ordering() {
        assert!(ProtocolVersion::Ssl30 < ProtocolVersion::Tls12);
    }
}
