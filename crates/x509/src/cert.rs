//! `Certificate` and `TBSCertificate` (RFC 5280 §4.1).
//!
//! Serialization is byte-exact: a parsed certificate retains its original
//! DER, so the mismatch detector can compare what the probe captured
//! against the authoritative chain byte-for-byte (the same comparison the
//! paper's reporting server performed on PEM uploads), and signature
//! verification operates on the original TBS bytes rather than a
//! re-serialization.

use crate::ext::Extension;
use crate::name::DistinguishedName;
use crate::time::Time;
use crate::X509Error;
use tlsfoe_asn1::{oid::known, DerReader, DerWriter, Oid, Tag};
use tlsfoe_crypto::bigint::Ubig;
use tlsfoe_crypto::{HashAlg, RsaPublicKey};

/// Signature algorithms present in the paper's corpus (all RSA-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SignatureAlgorithm {
    /// md5WithRSAEncryption — the negligence signal of §5.2.
    Md5WithRsa,
    /// sha1WithRSAEncryption — the 2014 default.
    Sha1WithRsa,
    /// sha256WithRSAEncryption.
    Sha256WithRsa,
}

impl SignatureAlgorithm {
    /// The algorithm's OID.
    pub fn oid(self) -> Oid {
        match self {
            SignatureAlgorithm::Md5WithRsa => known::md5_with_rsa(),
            SignatureAlgorithm::Sha1WithRsa => known::sha1_with_rsa(),
            SignatureAlgorithm::Sha256WithRsa => known::sha256_with_rsa(),
        }
    }

    /// The digest used underneath.
    pub fn hash_alg(self) -> HashAlg {
        match self {
            SignatureAlgorithm::Md5WithRsa => HashAlg::Md5,
            SignatureAlgorithm::Sha1WithRsa => HashAlg::Sha1,
            SignatureAlgorithm::Sha256WithRsa => HashAlg::Sha256,
        }
    }

    /// OpenSSL-style name.
    pub fn name(self) -> &'static str {
        match self {
            SignatureAlgorithm::Md5WithRsa => "md5WithRSAEncryption",
            SignatureAlgorithm::Sha1WithRsa => "sha1WithRSAEncryption",
            SignatureAlgorithm::Sha256WithRsa => "sha256WithRSAEncryption",
        }
    }

    /// Write as `AlgorithmIdentifier` (OID + NULL parameters).
    pub fn write_der(self, w: &mut DerWriter) {
        w.sequence(|w| {
            w.oid(&self.oid());
            w.null();
        });
    }

    /// Parse an `AlgorithmIdentifier`.
    pub fn read_der(r: &mut DerReader<'_>) -> Result<Self, X509Error> {
        let mut seq = r.read_sequence()?;
        let oid = seq.read_oid()?;
        // NULL parameters are customary but optional in the wild.
        if seq.peek_tag() == Some(Tag::Null.byte()) {
            seq.read_null()?;
        }
        if oid == known::md5_with_rsa() {
            Ok(SignatureAlgorithm::Md5WithRsa)
        } else if oid == known::sha1_with_rsa() {
            Ok(SignatureAlgorithm::Sha1WithRsa)
        } else if oid == known::sha256_with_rsa() {
            Ok(SignatureAlgorithm::Sha256WithRsa)
        } else {
            Err(X509Error::UnsupportedAlgorithm(oid.dotted()))
        }
    }
}

/// SubjectPublicKeyInfo restricted to RSA — the only key type in the
/// corpus (the paper reports key *sizes*: 512/1024/2048/2432 bits).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubjectPublicKeyInfo {
    /// The RSA public key.
    pub key: RsaPublicKey,
}

impl SubjectPublicKeyInfo {
    /// Modulus size in bits — what the paper calls "public key size".
    pub fn key_bits(&self) -> usize {
        self.key.n.bit_len()
    }

    /// Write as the SPKI SEQUENCE.
    pub fn write_der(&self, w: &mut DerWriter) {
        w.sequence(|w| {
            w.sequence(|w| {
                w.oid(&known::rsa_encryption());
                w.null();
            });
            let mut inner = DerWriter::new();
            inner.sequence(|w| {
                w.integer_unsigned(&self.key.n.to_bytes_be());
                w.integer_unsigned(&self.key.e.to_bytes_be());
            });
            w.bit_string(&inner.finish());
        });
    }

    /// Parse the SPKI SEQUENCE.
    pub fn read_der(r: &mut DerReader<'_>) -> Result<Self, X509Error> {
        let mut seq = r.read_sequence()?;
        let mut alg = seq.read_sequence()?;
        let oid = alg.read_oid()?;
        if oid != known::rsa_encryption() {
            return Err(X509Error::UnsupportedAlgorithm(oid.dotted()));
        }
        if alg.peek_tag() == Some(Tag::Null.byte()) {
            alg.read_null()?;
        }
        let (unused, data) = seq.read_bit_string()?;
        if unused != 0 {
            return Err(X509Error::Malformed("SPKI BIT STRING has unused bits"));
        }
        let mut key_reader = DerReader::new(data);
        let mut key_seq = key_reader.read_sequence()?;
        let n = Ubig::from_bytes_be(key_seq.read_integer_unsigned()?);
        let e = Ubig::from_bytes_be(key_seq.read_integer_unsigned()?);
        Ok(SubjectPublicKeyInfo { key: RsaPublicKey { n, e } })
    }
}

/// The to-be-signed portion of a certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TbsCertificate {
    /// X.509 version (2 = v3; everything we mint is v3).
    pub version: u64,
    /// Serial number, big-endian unsigned magnitude.
    pub serial: Vec<u8>,
    /// Signature algorithm (must match the outer certificate's).
    pub signature_alg: SignatureAlgorithm,
    /// Issuer distinguished name — the paper's primary analysis field.
    pub issuer: DistinguishedName,
    /// Start of validity.
    pub not_before: Time,
    /// End of validity.
    pub not_after: Time,
    /// Subject distinguished name.
    pub subject: DistinguishedName,
    /// Public key.
    pub spki: SubjectPublicKeyInfo,
    /// v3 extensions (empty for v1-style certs).
    pub extensions: Vec<Extension>,
}

impl TbsCertificate {
    /// Serialize to DER.
    pub fn to_der(&self) -> Vec<u8> {
        let mut w = DerWriter::new();
        self.write_der(&mut w);
        w.finish()
    }

    fn write_der(&self, w: &mut DerWriter) {
        w.sequence(|w| {
            // [0] EXPLICIT version (omitted for v1).
            if self.version > 0 {
                w.context(0, |w| w.integer_u64(self.version));
            }
            w.integer_unsigned(&self.serial);
            self.signature_alg.write_der(w);
            self.issuer.write_der(w);
            w.sequence(|w| {
                self.not_before.write_der(w);
                self.not_after.write_der(w);
            });
            self.subject.write_der(w);
            self.spki.write_der(w);
            if !self.extensions.is_empty() {
                w.context(3, |w| {
                    w.sequence(|w| {
                        for ext in &self.extensions {
                            ext.write_der(w);
                        }
                    });
                });
            }
        });
    }

    fn read_der(r: &mut DerReader<'_>) -> Result<Self, X509Error> {
        let mut seq = r.read_sequence()?;
        let version = match seq.read_optional_context(0)? {
            Some(mut v) => v.read_integer_u64()?,
            None => 0,
        };
        let serial = seq.read_integer_unsigned()?.to_vec();
        let signature_alg = SignatureAlgorithm::read_der(&mut seq)?;
        let issuer = DistinguishedName::read_der(&mut seq)?;
        let mut validity = seq.read_sequence()?;
        let not_before = Time::read_der(&mut validity)?;
        let not_after = Time::read_der(&mut validity)?;
        let subject = DistinguishedName::read_der(&mut seq)?;
        let spki = SubjectPublicKeyInfo::read_der(&mut seq)?;
        let mut extensions = Vec::new();
        if let Some(mut ctx) = seq.read_optional_context(3)? {
            let mut exts = ctx.read_sequence()?;
            while !exts.is_done() {
                extensions.push(Extension::read_der(&mut exts)?);
            }
        }
        Ok(TbsCertificate {
            version,
            serial,
            signature_alg,
            issuer,
            not_before,
            not_after,
            subject,
            spki,
            extensions,
        })
    }

    /// The BasicConstraints `cA` flag, defaulting to `false` when absent.
    pub fn is_ca(&self) -> bool {
        self.extensions.iter().any(|e| matches!(e, Extension::BasicConstraints { ca: true, .. }))
    }

    /// SubjectAltName dNSName entries (empty when no SAN present).
    pub fn san_dns(&self) -> Vec<&str> {
        for e in &self.extensions {
            if let Extension::SubjectAltName { dns, .. } = e {
                return dns.iter().map(|s| s.as_str()).collect();
            }
        }
        Vec::new()
    }
}

/// A complete signed certificate plus its original DER encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Certificate {
    /// The to-be-signed body.
    pub tbs: TbsCertificate,
    /// Outer signature algorithm.
    pub signature_alg: SignatureAlgorithm,
    /// The signature bytes.
    pub signature: Vec<u8>,
    raw: Vec<u8>,
    raw_tbs: Vec<u8>,
}

impl Certificate {
    /// Assemble from a TBS body plus signature, producing canonical DER.
    pub fn assemble(
        tbs: TbsCertificate,
        signature_alg: SignatureAlgorithm,
        signature: Vec<u8>,
    ) -> Certificate {
        let raw_tbs = tbs.to_der();
        let mut w = DerWriter::new();
        w.sequence(|w| {
            w.raw(&raw_tbs);
            signature_alg.write_der(w);
            w.bit_string(&signature);
        });
        Certificate { tbs, signature_alg, signature, raw: w.finish(), raw_tbs }
    }

    /// Parse from DER, retaining the exact input bytes.
    pub fn from_der(der: &[u8]) -> Result<Certificate, X509Error> {
        let mut outer = DerReader::new(der);
        let raw_cert = outer.read_raw_tlv()?;
        outer.expect_done()?;

        let mut r = DerReader::new(raw_cert);
        let mut seq = r.read_sequence()?;
        let raw_tbs = seq.read_raw_tlv()?.to_vec();
        let mut tbs_reader = DerReader::new(&raw_tbs);
        let tbs = TbsCertificate::read_der(&mut tbs_reader)?;
        let signature_alg = SignatureAlgorithm::read_der(&mut seq)?;
        let (unused, sig) = seq.read_bit_string()?;
        if unused != 0 {
            return Err(X509Error::Malformed("signature BIT STRING unused bits"));
        }
        seq.expect_done()?;
        Ok(Certificate {
            tbs,
            signature_alg,
            signature: sig.to_vec(),
            raw: raw_cert.to_vec(),
            raw_tbs,
        })
    }

    /// The certificate's canonical DER bytes.
    pub fn to_der(&self) -> &[u8] {
        &self.raw
    }

    /// SHA-256 fingerprint of the DER encoding.
    pub fn fingerprint(&self) -> [u8; 32] {
        tlsfoe_crypto::sha256::sha256(&self.raw)
    }

    /// Hex SHA-256 fingerprint (for report records).
    pub fn fingerprint_hex(&self) -> String {
        self.fingerprint().iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Public key size in bits.
    pub fn key_bits(&self) -> usize {
        self.tbs.spki.key_bits()
    }

    /// Whether issuer == subject (self-signed *form*; does not verify).
    pub fn is_self_issued(&self) -> bool {
        self.tbs.issuer == self.tbs.subject
    }

    /// Verify this certificate's signature with the given issuer key.
    pub fn verify_signature_with(&self, issuer_key: &RsaPublicKey) -> Result<(), X509Error> {
        issuer_key
            .verify(self.signature_alg.hash_alg(), &self.raw_tbs, &self.signature)
            .map_err(X509Error::Crypto)
    }

    /// Does this certificate's subject cover `host`?
    ///
    /// Checks SAN dNSNames first (with single-label `*.` wildcards), then
    /// falls back to the subject CN, per pre-2017 browser behaviour.
    pub fn matches_host(&self, host: &str) -> bool {
        let sans = self.tbs.san_dns();
        if !sans.is_empty() {
            return sans.iter().any(|p| host_matches_pattern(p, host));
        }
        self.tbs.subject.common_name().is_some_and(|cn| host_matches_pattern(cn, host))
    }
}

/// Single-label wildcard matching (`*.example.com` covers `a.example.com`
/// but not `a.b.example.com` or `example.com`).
pub fn host_matches_pattern(pattern: &str, host: &str) -> bool {
    let pattern = pattern.to_ascii_lowercase();
    let host = host.to_ascii_lowercase();
    if let Some(suffix) = pattern.strip_prefix("*.") {
        match host.split_once('.') {
            Some((label, rest)) => !label.is_empty() && rest == suffix,
            None => false,
        }
    } else {
        pattern == host
    }
}

impl core::fmt::Display for Certificate {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "Certificate[subject={}, issuer={}, {} bits, {}]",
            self.tbs.subject,
            self.tbs.issuer,
            self.key_bits(),
            self.signature_alg.name()
        )
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::name::NameBuilder;
    use tlsfoe_crypto::drbg::Drbg;
    use tlsfoe_crypto::RsaKeyPair;

    fn test_key() -> RsaKeyPair {
        RsaKeyPair::generate(512, &mut Drbg::new(100)).unwrap()
    }

    fn sample_tbs(key: &RsaKeyPair) -> TbsCertificate {
        TbsCertificate {
            version: 2,
            serial: vec![0x01, 0x02, 0x03],
            signature_alg: SignatureAlgorithm::Sha1WithRsa,
            issuer: NameBuilder::new()
                .country("US")
                .organization("DigiCert Inc")
                .common_name("DigiCert High Assurance CA-3")
                .build(),
            not_before: Time::from_ymd(2013, 1, 1),
            not_after: Time::from_ymd(2016, 1, 1),
            subject: NameBuilder::new()
                .country("US")
                .organization("Brigham Young University")
                .common_name("tlsresearch.byu.edu")
                .build(),
            spki: SubjectPublicKeyInfo { key: key.public.clone() },
            extensions: vec![
                Extension::BasicConstraints { ca: false, path_len: None },
                Extension::SubjectAltName { dns: vec!["tlsresearch.byu.edu".into()], ips: vec![] },
            ],
        }
    }

    #[test]
    fn certificate_der_roundtrip() {
        let key = test_key();
        let tbs = sample_tbs(&key);
        let sig = key.sign(HashAlg::Sha1, &tbs.to_der()).unwrap();
        let cert = Certificate::assemble(tbs, SignatureAlgorithm::Sha1WithRsa, sig);
        let parsed = Certificate::from_der(cert.to_der()).unwrap();
        assert_eq!(parsed, cert);
        assert_eq!(parsed.tbs.subject.common_name(), Some("tlsresearch.byu.edu"));
        assert_eq!(parsed.key_bits(), 512);
    }

    #[test]
    fn signature_verifies_after_roundtrip() {
        let key = test_key();
        let tbs = sample_tbs(&key);
        let sig = key.sign(HashAlg::Sha1, &tbs.to_der()).unwrap();
        let cert = Certificate::assemble(tbs, SignatureAlgorithm::Sha1WithRsa, sig);
        let parsed = Certificate::from_der(cert.to_der()).unwrap();
        parsed.verify_signature_with(&key.public).unwrap();
        // A different key fails.
        let other = RsaKeyPair::generate(512, &mut Drbg::new(101)).unwrap();
        assert!(parsed.verify_signature_with(&other.public).is_err());
    }

    #[test]
    fn tampered_der_breaks_signature() {
        let key = test_key();
        let tbs = sample_tbs(&key);
        let sig = key.sign(HashAlg::Sha1, &tbs.to_der()).unwrap();
        let cert = Certificate::assemble(tbs, SignatureAlgorithm::Sha1WithRsa, sig);
        let mut der = cert.to_der().to_vec();
        // Flip a byte inside the subject name region.
        let idx = der.len() / 2;
        der[idx] ^= 0x01;
        if let Ok(parsed) = Certificate::from_der(&der) {
            // structural break is fine too
            assert!(parsed.verify_signature_with(&key.public).is_err());
        }
    }

    #[test]
    fn fingerprint_stable_and_distinct() {
        let key = test_key();
        let tbs = sample_tbs(&key);
        let sig = key.sign(HashAlg::Sha1, &tbs.to_der()).unwrap();
        let cert = Certificate::assemble(tbs.clone(), SignatureAlgorithm::Sha1WithRsa, sig);
        assert_eq!(cert.fingerprint(), cert.fingerprint());
        assert_eq!(cert.fingerprint_hex().len(), 64);

        let mut tbs2 = tbs;
        tbs2.serial = vec![0x09];
        let sig2 = key.sign(HashAlg::Sha1, &tbs2.to_der()).unwrap();
        let cert2 = Certificate::assemble(tbs2, SignatureAlgorithm::Sha1WithRsa, sig2);
        assert_ne!(cert.fingerprint(), cert2.fingerprint());
    }

    #[test]
    fn algorithm_identifier_roundtrip() {
        for alg in [
            SignatureAlgorithm::Md5WithRsa,
            SignatureAlgorithm::Sha1WithRsa,
            SignatureAlgorithm::Sha256WithRsa,
        ] {
            let mut w = DerWriter::new();
            alg.write_der(&mut w);
            let der = w.finish();
            let mut r = DerReader::new(&der);
            assert_eq!(SignatureAlgorithm::read_der(&mut r).unwrap(), alg);
        }
    }

    #[test]
    fn unsupported_algorithm_rejected() {
        let mut w = DerWriter::new();
        w.sequence(|w| {
            w.oid(&Oid::new(&[1, 2, 840, 10045, 4, 3, 2])); // ecdsa-with-SHA256
            w.null();
        });
        let der = w.finish();
        let mut r = DerReader::new(&der);
        assert!(matches!(
            SignatureAlgorithm::read_der(&mut r),
            Err(X509Error::UnsupportedAlgorithm(_))
        ));
    }

    #[test]
    fn host_matching() {
        assert!(host_matches_pattern("example.com", "EXAMPLE.com"));
        assert!(host_matches_pattern("*.example.com", "www.example.com"));
        assert!(!host_matches_pattern("*.example.com", "example.com"));
        assert!(!host_matches_pattern("*.example.com", "a.b.example.com"));
        assert!(!host_matches_pattern("*.example.com", ".example.com"));
        assert!(!host_matches_pattern("other.com", "example.com"));
    }

    #[test]
    fn matches_host_prefers_san() {
        let key = test_key();
        let mut tbs = sample_tbs(&key);
        // CN says one thing, SAN says another → SAN wins.
        tbs.extensions =
            vec![Extension::SubjectAltName { dns: vec!["mail.google.com".into()], ips: vec![] }];
        let sig = key.sign(HashAlg::Sha1, &tbs.to_der()).unwrap();
        let cert = Certificate::assemble(tbs, SignatureAlgorithm::Sha1WithRsa, sig);
        assert!(cert.matches_host("mail.google.com"));
        assert!(!cert.matches_host("tlsresearch.byu.edu"));
    }

    #[test]
    fn v1_certificate_without_extensions() {
        let key = test_key();
        let mut tbs = sample_tbs(&key);
        tbs.version = 0;
        tbs.extensions.clear();
        let sig = key.sign(HashAlg::Sha1, &tbs.to_der()).unwrap();
        let cert = Certificate::assemble(tbs, SignatureAlgorithm::Sha1WithRsa, sig);
        let parsed = Certificate::from_der(cert.to_der()).unwrap();
        assert_eq!(parsed.tbs.version, 0);
        assert!(parsed.tbs.extensions.is_empty());
        assert!(!parsed.tbs.is_ca());
    }

    #[test]
    fn is_ca_flag() {
        let key = test_key();
        let mut tbs = sample_tbs(&key);
        assert!(!tbs.is_ca());
        tbs.extensions = vec![Extension::BasicConstraints { ca: true, path_len: Some(1) }];
        assert!(tbs.is_ca());
    }

    #[test]
    fn trailing_garbage_rejected() {
        let key = test_key();
        let tbs = sample_tbs(&key);
        let sig = key.sign(HashAlg::Sha1, &tbs.to_der()).unwrap();
        let cert = Certificate::assemble(tbs, SignatureAlgorithm::Sha1WithRsa, sig);
        let mut der = cert.to_der().to_vec();
        der.push(0x00);
        assert!(Certificate::from_der(&der).is_err());
    }
}
