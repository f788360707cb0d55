//! Big-endian primitive codec shared by every TLS message type.
//!
//! TLS vectors are length-prefixed with 1-, 2- or 3-byte lengths; this
//! module provides an append-only writer and a borrowing reader with
//! exact truncation semantics, plus the in-place reassembly core that
//! both streaming parsers ([`crate::record::RecordParser`] and
//! [`crate::handshake::HandshakeParser`]) share.

use crate::TlsError;

/// Append-only writer for TLS structures.
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// New empty writer.
    pub fn new() -> Self {
        WireWriter { buf: Vec::new() }
    }

    /// A writer appending to `buf` (an outgoing frame, say); what it
    /// held stays in front, and [`WireWriter::finish`] hands it back.
    pub fn appending(buf: Vec<u8>) -> Self {
        WireWriter { buf }
    }

    /// Finish, returning the raw bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Current length.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Write one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Write a big-endian u16.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Write a big-endian 24-bit value (panics if it doesn't fit).
    pub fn u24(&mut self, v: u32) {
        assert!(v < (1 << 24), "u24 overflow");
        self.buf.push((v >> 16) as u8);
        self.buf.extend_from_slice(&(v as u16).to_be_bytes());
    }

    /// Write raw bytes.
    pub fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Write a vector with a 1-byte length prefix.
    pub fn vec8(&mut self, v: &[u8]) {
        assert!(v.len() <= u8::MAX as usize, "vec8 overflow");
        self.u8(v.len() as u8);
        self.bytes(v);
    }

    /// Write a vector with a 2-byte length prefix.
    pub fn vec16(&mut self, v: &[u8]) {
        assert!(v.len() <= u16::MAX as usize, "vec16 overflow");
        self.u16(v.len() as u16);
        self.bytes(v);
    }

    /// Write a vector with a 3-byte length prefix.
    pub fn vec24(&mut self, v: &[u8]) {
        self.u24(v.len() as u32);
        self.bytes(v);
    }

    /// Write a length-prefixed body produced by a closure (2-byte length).
    ///
    /// The length bytes are reserved up front and backpatched after the
    /// closure runs, so the body is written straight into this writer's
    /// buffer — no per-nesting-level scratch allocation. Nested TLS
    /// vectors (SNI is three deep) encode in one contiguous grow.
    pub fn with_len16(&mut self, f: impl FnOnce(&mut WireWriter)) {
        let at = self.buf.len();
        self.u16(0);
        f(self);
        let body_len = self.buf.len() - at - 2;
        assert!(body_len <= u16::MAX as usize, "vec16 overflow");
        self.patch(at, &(body_len as u16).to_be_bytes());
    }

    /// Write a length-prefixed body produced by a closure (3-byte length,
    /// same reserve-and-backpatch scheme as [`WireWriter::with_len16`]).
    pub fn with_len24(&mut self, f: impl FnOnce(&mut WireWriter)) {
        let at = self.buf.len();
        self.u24(0);
        f(self);
        let body_len = self.buf.len() - at - 3;
        assert!(body_len < (1 << 24), "u24 overflow");
        self.patch(at, &[(body_len >> 16) as u8, (body_len >> 8) as u8, body_len as u8]);
    }

    /// Overwrite already-written bytes starting at `at` (the backpatch
    /// primitive; `at + bytes.len()` must be within what was written).
    fn patch(&mut self, at: usize, bytes: &[u8]) {
        for (slot, b) in self.buf.iter_mut().skip(at).zip(bytes) {
            *slot = *b;
        }
    }
}

/// Borrowing reader with exact truncation semantics.
#[derive(Debug, Clone)]
pub struct WireReader<'a> {
    input: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Create a reader over `input`.
    pub fn new(input: &'a [u8]) -> Self {
        WireReader { input, pos: 0 }
    }

    /// Bytes left.
    pub fn remaining(&self) -> usize {
        self.input.len() - self.pos
    }

    /// True when fully consumed.
    pub fn is_done(&self) -> bool {
        self.remaining() == 0
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, TlsError> {
        let v = *self.input.get(self.pos).ok_or(TlsError::Truncated)?;
        self.pos += 1;
        Ok(v)
    }

    /// Read a big-endian u16.
    pub fn u16(&mut self) -> Result<u16, TlsError> {
        Ok(((self.u8()? as u16) << 8) | self.u8()? as u16)
    }

    /// Read a big-endian 24-bit value.
    pub fn u24(&mut self) -> Result<u32, TlsError> {
        Ok(((self.u8()? as u32) << 16) | self.u16()? as u32)
    }

    /// Read exactly `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], TlsError> {
        let rest = self.input.get(self.pos..).unwrap_or_default();
        if rest.len() < n {
            return Err(TlsError::Truncated);
        }
        let (out, _) = rest.split_at(n);
        self.pos += n;
        Ok(out)
    }

    /// Read a 1-byte-length-prefixed vector.
    pub fn vec8(&mut self) -> Result<&'a [u8], TlsError> {
        let n = self.u8()? as usize;
        self.take(n)
    }

    /// Read a 2-byte-length-prefixed vector.
    pub fn vec16(&mut self) -> Result<&'a [u8], TlsError> {
        let n = self.u16()? as usize;
        self.take(n)
    }

    /// Read a 3-byte-length-prefixed vector.
    pub fn vec24(&mut self) -> Result<&'a [u8], TlsError> {
        let n = self.u24()? as usize;
        self.take(n)
    }

    /// Require all bytes consumed.
    pub fn expect_done(&self) -> Result<(), TlsError> {
        if self.is_done() {
            Ok(())
        } else {
            Err(TlsError::Malformed("trailing bytes"))
        }
    }
}

/// The incomplete tail of a byte stream that arrives in pieces: the
/// state a streaming parser keeps between deliveries.
///
/// [`Carry::begin`] reads a delivered piece in place when nothing is
/// carried over, so complete messages are parsed straight out of the
/// frame and borrow it. Only when a tail is carried is the piece
/// appended to it, and only the piece's own incomplete tail is copied
/// when parsing stops.
#[derive(Debug, Default)]
pub(crate) struct Carry {
    buf: Vec<u8>,
}

impl Carry {
    /// Bytes carried over from earlier pieces.
    pub(crate) fn len(&self) -> usize {
        self.buf.len()
    }

    /// Start reading `data`, the next piece of the stream.
    pub(crate) fn begin<'a>(&'a mut self, data: &'a [u8]) -> Pending<'a> {
        let in_place = self.buf.is_empty();
        if !in_place {
            self.buf.extend_from_slice(data);
        }
        Pending { carry: &mut self.buf, data, in_place, pos: 0 }
    }
}

/// The unparsed bytes of one delivery: the piece itself, or the carried
/// tail with the piece appended. Whatever is left unconsumed when this
/// drops is carried to the next piece.
pub(crate) struct Pending<'a> {
    carry: &'a mut Vec<u8>,
    data: &'a [u8],
    /// Whether the bytes are read from `data` (nothing was carried).
    in_place: bool,
    /// Bytes consumed so far.
    pos: usize,
}

impl Pending<'_> {
    fn bytes(&self) -> &[u8] {
        if self.in_place {
            self.data
        } else {
            self.carry
        }
    }

    /// The bytes not yet consumed.
    pub(crate) fn rest(&self) -> &[u8] {
        self.bytes().get(self.pos..).unwrap_or_default()
    }

    /// Consume the next `n` bytes (at most [`Pending::rest`]'s length)
    /// and return them.
    pub(crate) fn take(&mut self, n: usize) -> &[u8] {
        let start = self.pos;
        self.pos += n.min(self.rest().len());
        self.bytes().get(start..self.pos).unwrap_or_default()
    }
}

impl Drop for Pending<'_> {
    fn drop(&mut self) {
        if self.in_place {
            self.carry.extend_from_slice(self.data.get(self.pos..).unwrap_or_default());
        } else {
            self.carry.drain(..self.pos.min(self.carry.len()));
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        let mut w = WireWriter::new();
        w.u8(0xab);
        w.u16(0x1234);
        w.u24(0x00de_adbe);
        w.bytes(&[1, 2, 3]);
        let out = w.finish();
        let mut r = WireReader::new(&out);
        assert_eq!(r.u8().unwrap(), 0xab);
        assert_eq!(r.u16().unwrap(), 0x1234);
        assert_eq!(r.u24().unwrap(), 0x00de_adbe);
        assert_eq!(r.take(3).unwrap(), &[1, 2, 3]);
        r.expect_done().unwrap();
    }

    #[test]
    fn vectors_roundtrip() {
        let mut w = WireWriter::new();
        w.vec8(b"ab");
        w.vec16(b"cdef");
        w.vec24(b"ghi");
        let out = w.finish();
        let mut r = WireReader::new(&out);
        assert_eq!(r.vec8().unwrap(), b"ab");
        assert_eq!(r.vec16().unwrap(), b"cdef");
        assert_eq!(r.vec24().unwrap(), b"ghi");
    }

    #[test]
    fn truncation_detected() {
        let mut r = WireReader::new(&[0x05, 1, 2]);
        assert_eq!(r.vec8(), Err(TlsError::Truncated));
        let mut r = WireReader::new(&[]);
        assert_eq!(r.u8(), Err(TlsError::Truncated));
        let mut r = WireReader::new(&[0x01]);
        assert_eq!(r.u16(), Err(TlsError::Truncated));
    }

    #[test]
    fn closure_length_framing() {
        let mut w = WireWriter::new();
        w.with_len24(|w| {
            w.u16(0xbeef);
        });
        assert_eq!(w.finish(), vec![0, 0, 2, 0xbe, 0xef]);
    }

    #[test]
    fn nested_closure_framing_backpatches_each_level() {
        // Three levels deep (the SNI extension shape): every length
        // prefix must cover exactly its own body.
        let mut w = WireWriter::new();
        w.u8(0xaa);
        w.with_len16(|w| {
            w.u16(0x0000);
            w.with_len16(|w| {
                w.with_len16(|w| {
                    w.u8(0);
                    w.vec16(b"host");
                });
            });
        });
        assert_eq!(
            w.finish(),
            vec![0xaa, 0, 13, 0, 0, 0, 9, 0, 7, 0, 0, 4, b'h', b'o', b's', b't'],
        );
    }

    #[test]
    fn trailing_bytes_flagged() {
        let mut r = WireReader::new(&[1, 2]);
        r.u8().unwrap();
        assert!(r.expect_done().is_err());
    }

    #[test]
    #[should_panic(expected = "u24 overflow")]
    fn u24_overflow_panics() {
        WireWriter::new().u24(1 << 24);
    }
}
