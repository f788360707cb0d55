//! Cipher-suite registry.
//!
//! The probe never negotiates keys, but it must offer a realistic suite
//! list (middleboxes have been observed fingerprinting ClientHellos) and
//! the analyzers want names for what servers/proxies select. The list is
//! the common 2014 browser/Flash offering.

use crate::TlsError;

/// A cipher suite identifier as it appears on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CipherSuite(pub u16);

impl CipherSuite {
    /// TLS_RSA_WITH_RC4_128_MD5
    pub const RSA_RC4_128_MD5: CipherSuite = CipherSuite(0x0004);
    /// TLS_RSA_WITH_RC4_128_SHA
    pub const RSA_RC4_128_SHA: CipherSuite = CipherSuite(0x0005);
    /// TLS_RSA_WITH_3DES_EDE_CBC_SHA
    pub const RSA_3DES_EDE_CBC_SHA: CipherSuite = CipherSuite(0x000a);
    /// TLS_RSA_WITH_AES_128_CBC_SHA
    pub const RSA_AES_128_CBC_SHA: CipherSuite = CipherSuite(0x002f);
    /// TLS_RSA_WITH_AES_256_CBC_SHA
    pub const RSA_AES_256_CBC_SHA: CipherSuite = CipherSuite(0x0035);
    /// TLS_RSA_WITH_AES_128_CBC_SHA256
    pub const RSA_AES_128_CBC_SHA256: CipherSuite = CipherSuite(0x003c);
    /// TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA
    pub const ECDHE_RSA_AES_128_CBC_SHA: CipherSuite = CipherSuite(0xc013);
    /// TLS_ECDHE_RSA_WITH_AES_256_CBC_SHA
    pub const ECDHE_RSA_AES_256_CBC_SHA: CipherSuite = CipherSuite(0xc014);

    /// IANA-style name, if known.
    pub fn name(self) -> &'static str {
        match self.0 {
            0x0004 => "TLS_RSA_WITH_RC4_128_MD5",
            0x0005 => "TLS_RSA_WITH_RC4_128_SHA",
            0x000a => "TLS_RSA_WITH_3DES_EDE_CBC_SHA",
            0x002f => "TLS_RSA_WITH_AES_128_CBC_SHA",
            0x0035 => "TLS_RSA_WITH_AES_256_CBC_SHA",
            0x003c => "TLS_RSA_WITH_AES_128_CBC_SHA256",
            0xc013 => "TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA",
            0xc014 => "TLS_ECDHE_RSA_WITH_AES_256_CBC_SHA",
            _ => "UNKNOWN",
        }
    }
}

/// A cipher-suite vector in wire form — big-endian `u16` ids, as a
/// ClientHello carries them — borrowed from the message it was decoded
/// from, or from a constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CipherSuites<'a>(&'a [u8]);

impl<'a> CipherSuites<'a> {
    /// The suite list a 2014 Flash-era client offers, preference order:
    /// ECDHE-RSA AES-256 and AES-128, RSA AES-256, AES-128 and
    /// AES-128-SHA256, 3DES, RC4-SHA, RC4-MD5.
    pub const CLIENT_OFFER: CipherSuites<'static> = CipherSuites(&[
        0xc0, 0x14, 0xc0, 0x13, 0x00, 0x35, 0x00, 0x2f, 0x00, 0x3c, 0x00, 0x0a, 0x00, 0x05, 0x00,
        0x04,
    ]);

    /// Wrap a wire vector; an odd length is malformed.
    pub fn from_wire(wire: &'a [u8]) -> Result<CipherSuites<'a>, TlsError> {
        if !wire.len().is_multiple_of(2) {
            return Err(TlsError::Malformed("odd cipher-suite vector"));
        }
        Ok(CipherSuites(wire))
    }

    /// The wire bytes.
    pub fn wire(&self) -> &'a [u8] {
        self.0
    }

    /// The suites, in order.
    pub fn iter(&self) -> impl Iterator<Item = CipherSuite> + 'a {
        self.0
            .chunks_exact(2)
            .map(|c| CipherSuite(u16::from_be_bytes(c.try_into().unwrap_or([0, 0]))))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn client_offer_lists_the_era_suites_in_preference_order() {
        let offer: Vec<CipherSuite> = CipherSuites::CLIENT_OFFER.iter().collect();
        assert_eq!(
            offer,
            [
                CipherSuite::ECDHE_RSA_AES_256_CBC_SHA,
                CipherSuite::ECDHE_RSA_AES_128_CBC_SHA,
                CipherSuite::RSA_AES_256_CBC_SHA,
                CipherSuite::RSA_AES_128_CBC_SHA,
                CipherSuite::RSA_AES_128_CBC_SHA256,
                CipherSuite::RSA_3DES_EDE_CBC_SHA,
                CipherSuite::RSA_RC4_128_SHA,
                CipherSuite::RSA_RC4_128_MD5,
            ]
        );
    }

    #[test]
    fn names_resolve() {
        for suite in CipherSuites::CLIENT_OFFER.iter() {
            assert_ne!(suite.name(), "UNKNOWN");
        }
        assert_eq!(CipherSuite(0xffff).name(), "UNKNOWN");
    }

    #[test]
    fn odd_wire_vector_rejected() {
        assert!(CipherSuites::from_wire(&[0, 1, 2]).is_err());
        assert_eq!(
            CipherSuites::from_wire(&[0, 0x2f]).unwrap().iter().collect::<Vec<_>>(),
            [CipherSuite::RSA_AES_128_CBC_SHA]
        );
    }
}
