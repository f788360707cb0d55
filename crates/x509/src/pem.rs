//! PEM armor and base64, from scratch.
//!
//! The original Flash measurement tool concatenated every captured
//! certificate in PEM format and POSTed the result to the reporting
//! server (§3.2); [`encode_certificates`] / [`decode_certificates`]
//! implement that exact wire format for our probe reports.

use crate::cert::Certificate;
use crate::X509Error;

/// The character of one 6-bit value (standard alphabet); the inverse of
/// [`b64_value`].
const fn b64_char(v: usize) -> u8 {
    match v {
        0..=25 => b'A' + v as u8,
        26..=51 => b'a' + (v - 26) as u8,
        52..=61 => b'0' + (v - 52) as u8,
        62 => b'+',
        _ => b'/',
    }
}

/// Both characters of every 12-bit value `v`: `[char(v >> 6), char(v & 63)]`.
/// A 3-byte group is two such halves, so it encodes in two lookups.
const B64_PAIRS: [[u8; 2]; 4096] = {
    let mut table = [[0; 2]; 4096];
    let mut v = 0;
    while v < 4096 {
        table[v] = [b64_char(v >> 6), b64_char(v & 63)];
        v += 1;
    }
    table
};

/// The four characters of one 3-byte group.
fn encode_group(&[b0, b1, b2]: &[u8; 3]) -> [u8; 4] {
    let triple = usize::from(b0) << 16 | usize::from(b1) << 8 | usize::from(b2);
    let pair = |v: usize| B64_PAIRS.get(v).copied().unwrap_or_default();
    let [c0, c1] = pair(triple >> 12);
    let [c2, c3] = pair(triple & 0xfff);
    [c0, c1, c2, c3]
}

/// Append the base64 of `data` (padded, unwrapped) to `out`.
fn push_base64(data: &[u8], out: &mut Vec<u8>) {
    let (groups, rest) = data.as_chunks::<3>();
    for group in groups {
        out.extend_from_slice(&encode_group(group));
    }
    // A short last group encodes as if zero-padded, then `=` replaces
    // the characters that carry no input bits.
    match *rest {
        [b0] => {
            let [c0, c1, ..] = encode_group(&[b0, 0, 0]);
            out.extend_from_slice(&[c0, c1, b'=', b'=']);
        }
        [b0, b1] => {
            let [c0, c1, c2, _] = encode_group(&[b0, b1, 0]);
            out.extend_from_slice(&[c0, c1, c2, b'=']);
        }
        _ => {}
    }
}

/// `bytes` as a `String`. Base64 and PEM armor are ASCII, so this takes
/// the buffer over without copying.
fn ascii_string(bytes: Vec<u8>) -> String {
    String::from_utf8(bytes).unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
}

/// Base64-encode (standard alphabet, with padding).
pub fn base64_encode(data: &[u8]) -> String {
    let mut out = Vec::with_capacity(data.len().div_ceil(3) * 4);
    push_base64(data, &mut out);
    ascii_string(out)
}

fn b64_value(c: u8) -> Option<u32> {
    match c {
        b'A'..=b'Z' => Some((c - b'A') as u32),
        b'a'..=b'z' => Some((c - b'a' + 26) as u32),
        b'0'..=b'9' => Some((c - b'0' + 52) as u32),
        b'+' => Some(62),
        b'/' => Some(63),
        _ => None,
    }
}

/// Base64-decode, ignoring ASCII whitespace.
pub fn base64_decode(text: &str) -> Result<Vec<u8>, X509Error> {
    let mut out = Vec::with_capacity(text.len() / 4 * 3);
    let mut acc = 0u32;
    let mut bits = 0u32;
    let mut padding = 0usize;
    for &c in text.as_bytes() {
        if c.is_ascii_whitespace() {
            continue;
        }
        if c == b'=' {
            padding += 1;
            continue;
        }
        if padding > 0 {
            return Err(X509Error::Pem("data after base64 padding"));
        }
        let v = b64_value(c).ok_or(X509Error::Pem("invalid base64 character"))?;
        acc = (acc << 6) | v;
        bits += 6;
        if bits >= 8 {
            bits -= 8;
            out.push((acc >> bits) as u8);
        }
    }
    if padding > 2 {
        return Err(X509Error::Pem("too much base64 padding"));
    }
    Ok(out)
}

const BEGIN: &str = "-----BEGIN CERTIFICATE-----";
const END: &str = "-----END CERTIFICATE-----";
/// Input bytes per full 64-column body line.
const LINE_BYTES: usize = 48;

/// Length of [`pem_encode`]'s output for `der_len` bytes of DER: the
/// armor lines, the base64 and one newline per body line. Callers size
/// a multi-certificate body with it before [`pem_encode_into`].
pub fn pem_len(der_len: usize) -> usize {
    BEGIN.len() + 1 + der_len.div_ceil(3) * 4 + der_len.div_ceil(LINE_BYTES) + END.len() + 1
}

/// Append `der` in `-----BEGIN CERTIFICATE-----` armor, with 64-column
/// body lines, to `out`: the bytes of [`pem_encode`], without building
/// a `String`.
pub fn pem_encode_into(der: &[u8], out: &mut Vec<u8>) {
    out.reserve(pem_len(der.len()));
    out.extend_from_slice(BEGIN.as_bytes());
    out.push(b'\n');
    let (lines, last) = der.as_chunks::<LINE_BYTES>();
    for line in lines {
        // 16 groups overwrite the first 64 bytes; the newline stays.
        let mut text = [b'\n'; LINE_BYTES / 3 * 4 + 1];
        for (quad, group) in text.as_chunks_mut::<4>().0.iter_mut().zip(line.as_chunks::<3>().0) {
            *quad = encode_group(group);
        }
        out.extend_from_slice(&text);
    }
    if !last.is_empty() {
        push_base64(last, out);
        out.push(b'\n');
    }
    out.extend_from_slice(END.as_bytes());
    out.push(b'\n');
}

/// Wrap DER bytes in `-----BEGIN CERTIFICATE-----` armor with 64-column
/// body lines.
pub fn pem_encode(der: &[u8]) -> String {
    let mut out = Vec::new();
    pem_encode_into(der, &mut out);
    ascii_string(out)
}

/// Extract every PEM certificate block from `text`, returning DER blobs.
pub fn pem_decode_all(text: &str) -> Result<Vec<Vec<u8>>, X509Error> {
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(start) = rest.find(BEGIN) {
        let after_begin = &rest[start + BEGIN.len()..];
        let end = after_begin.find(END).ok_or(X509Error::Pem("BEGIN without matching END"))?;
        out.push(base64_decode(&after_begin[..end])?);
        rest = &after_begin[end + END.len()..];
    }
    Ok(out)
}

/// Encode a chain as concatenated PEM — the probe's report body format.
pub fn encode_certificates(chain: &[Certificate]) -> String {
    let mut out = Vec::new();
    for cert in chain {
        pem_encode_into(cert.to_der(), &mut out);
    }
    ascii_string(out)
}

/// Decode a concatenated-PEM report body back into certificates.
pub fn decode_certificates(text: &str) -> Result<Vec<Certificate>, X509Error> {
    pem_decode_all(text)?.into_iter().map(|der| Certificate::from_der(&der)).collect()
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::builder::CertificateBuilder;
    use crate::name::NameBuilder;
    use tlsfoe_crypto::drbg::Drbg;
    use tlsfoe_crypto::RsaKeyPair;

    #[test]
    fn base64_rfc4648_vectors() {
        assert_eq!(base64_encode(b""), "");
        assert_eq!(base64_encode(b"f"), "Zg==");
        assert_eq!(base64_encode(b"fo"), "Zm8=");
        assert_eq!(base64_encode(b"foo"), "Zm9v");
        assert_eq!(base64_encode(b"foob"), "Zm9vYg==");
        assert_eq!(base64_encode(b"fooba"), "Zm9vYmE=");
        assert_eq!(base64_encode(b"foobar"), "Zm9vYmFy");
    }

    #[test]
    fn base64_decode_vectors() {
        assert_eq!(base64_decode("").unwrap(), b"");
        assert_eq!(base64_decode("Zg==").unwrap(), b"f");
        assert_eq!(base64_decode("Zm9vYmFy").unwrap(), b"foobar");
        assert_eq!(base64_decode("Zm9v\nYmFy").unwrap(), b"foobar");
        assert!(base64_decode("Z!==").is_err());
        assert!(base64_decode("Zg==Zg").is_err());
    }

    #[test]
    fn base64_roundtrip_binary() {
        let data: Vec<u8> = (0..=255).collect();
        assert_eq!(base64_decode(&base64_encode(&data)).unwrap(), data);
        for len in 0..20 {
            let d = vec![0xabu8; len];
            assert_eq!(base64_decode(&base64_encode(&d)).unwrap(), d);
        }
    }

    #[test]
    fn pem_armor_roundtrip() {
        let der = vec![0x30, 0x03, 0x02, 0x01, 0x05];
        let pem = pem_encode(&der);
        assert!(pem.starts_with("-----BEGIN CERTIFICATE-----\n"));
        assert!(pem.ends_with("-----END CERTIFICATE-----\n"));
        let blocks = pem_decode_all(&pem).unwrap();
        assert_eq!(blocks, vec![der]);
    }

    #[test]
    fn pem_len_is_the_exact_output_length() {
        for len in 0..200 {
            let der: Vec<u8> = (0..len).map(|i| i as u8).collect();
            assert_eq!(pem_encode(&der).len(), pem_len(len), "len {len}");
        }
    }

    #[test]
    fn long_body_wraps_at_64_columns() {
        let der = vec![0x5a; 200];
        let pem = pem_encode(&der);
        for line in pem.lines() {
            assert!(line.len() <= 64 || line.starts_with("-----"));
        }
        assert_eq!(pem_decode_all(&pem).unwrap()[0], der);
    }

    #[test]
    fn certificate_chain_roundtrip() {
        let key = RsaKeyPair::generate(512, &mut Drbg::new(200)).unwrap();
        let a = CertificateBuilder::new()
            .subject(NameBuilder::new().common_name("a").build())
            .self_sign(&key)
            .unwrap();
        let b = CertificateBuilder::new()
            .serial_u64(2)
            .subject(NameBuilder::new().common_name("b").build())
            .self_sign(&key)
            .unwrap();
        let report = encode_certificates(&[a.clone(), b.clone()]);
        let parsed = decode_certificates(&report).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0], a);
        assert_eq!(parsed[1], b);
    }

    #[test]
    fn unterminated_block_rejected() {
        assert!(pem_decode_all("-----BEGIN CERTIFICATE-----\nZm9v\n").is_err());
    }

    #[test]
    fn empty_input_yields_no_blocks() {
        assert!(pem_decode_all("no pem here").unwrap().is_empty());
    }
}
