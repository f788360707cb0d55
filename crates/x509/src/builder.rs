//! Certificate minting.
//!
//! [`CertificateBuilder`] is used by every certificate-producing actor in
//! the simulation: the legitimate CA hierarchy (root → intermediate →
//! leaf, as in Figure 2a), and every interception product minting
//! substitute certificates (Figure 2c) — including the deliberately
//! negligent behaviours the paper observed: key-size downgrades, MD5
//! signatures, copied issuer strings ("DigiCert" forgeries), mutated
//! subjects and null issuers.

use crate::cert::{Certificate, SignatureAlgorithm, SubjectPublicKeyInfo, TbsCertificate};
use crate::ext::Extension;
use crate::name::DistinguishedName;
use crate::time::Time;
use crate::X509Error;
use tlsfoe_crypto::{RsaKeyPair, RsaPublicKey};

/// Fluent builder for signed certificates.
#[derive(Debug, Clone)]
pub struct CertificateBuilder {
    serial: Vec<u8>,
    signature_alg: SignatureAlgorithm,
    issuer: DistinguishedName,
    subject: DistinguishedName,
    not_before: Time,
    not_after: Time,
    extensions: Vec<Extension>,
}

impl Default for CertificateBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl CertificateBuilder {
    /// A builder with sane defaults (SHA-1, serial 1, 2013–2016 validity —
    /// the measurement era).
    pub fn new() -> Self {
        CertificateBuilder {
            serial: vec![1],
            signature_alg: SignatureAlgorithm::Sha1WithRsa,
            issuer: DistinguishedName::empty(),
            subject: DistinguishedName::empty(),
            not_before: Time::from_ymd(2013, 1, 1),
            not_after: Time::from_ymd(2016, 1, 1),
            extensions: Vec::new(),
        }
    }

    /// Set the serial number from big-endian magnitude bytes (leading
    /// zeros are stripped so the stored form matches the DER round-trip).
    pub fn serial(mut self, serial: &[u8]) -> Self {
        let stripped: Vec<u8> = {
            let mut s = serial;
            while s.len() > 1 && s[0] == 0 {
                s = &s[1..];
            }
            s.to_vec()
        };
        self.serial = if stripped.is_empty() { vec![0] } else { stripped };
        self
    }

    /// Set the serial number from a `u64`.
    pub fn serial_u64(self, serial: u64) -> Self {
        self.serial(&serial.to_be_bytes())
    }

    /// Choose the signature algorithm.
    pub fn signature_alg(mut self, alg: SignatureAlgorithm) -> Self {
        self.signature_alg = alg;
        self
    }

    /// Set the issuer name.
    pub fn issuer(mut self, issuer: DistinguishedName) -> Self {
        self.issuer = issuer;
        self
    }

    /// Set the subject name.
    pub fn subject(mut self, subject: DistinguishedName) -> Self {
        self.subject = subject;
        self
    }

    /// Set the validity window.
    pub fn validity(mut self, not_before: Time, not_after: Time) -> Self {
        self.not_before = not_before;
        self.not_after = not_after;
        self
    }

    /// Append an extension.
    pub fn extension(mut self, ext: Extension) -> Self {
        self.extensions.push(ext);
        self
    }

    /// Mark as a CA certificate (BasicConstraints cA=TRUE + keyCertSign).
    pub fn ca(self, path_len: Option<u64>) -> Self {
        self.extension(Extension::BasicConstraints { ca: true, path_len }).extension(
            Extension::KeyUsage { bits: Extension::KU_KEY_CERT_SIGN | Extension::KU_CRL_SIGN },
        )
    }

    /// Add a SubjectAltName with the given DNS names.
    pub fn san_dns(self, names: &[&str]) -> Self {
        self.extension(Extension::SubjectAltName {
            dns: names.iter().map(|s| s.to_string()).collect(),
            ips: Vec::new(),
        })
    }

    /// Sign with `issuer_key`, binding `subject_key` as the certified key.
    ///
    /// The RSA signature takes the issuer key's CRT/Montgomery fast path
    /// when its precomputed material is present (all generated keys), so
    /// bulk minting — every substitute certificate in a study run — pays
    /// two half-size division-free exponentiations per certificate.
    pub fn sign(
        self,
        subject_key: &RsaPublicKey,
        issuer_key: &RsaKeyPair,
    ) -> Result<Certificate, X509Error> {
        let tbs = TbsCertificate {
            version: 2,
            serial: self.serial,
            signature_alg: self.signature_alg,
            issuer: self.issuer,
            not_before: self.not_before,
            not_after: self.not_after,
            subject: self.subject,
            spki: SubjectPublicKeyInfo { key: subject_key.clone() },
            extensions: self.extensions,
        };
        let sig = issuer_key.sign(self.signature_alg.hash_alg(), &tbs.to_der())?;
        Ok(Certificate::assemble(tbs, self.signature_alg, sig))
    }

    /// Self-sign: subject == certified key == signing key. The issuer
    /// name defaults to the subject name if none was set.
    pub fn self_sign(mut self, key: &RsaKeyPair) -> Result<Certificate, X509Error> {
        if self.issuer.is_empty() {
            self.issuer = self.subject.clone();
        }
        let public = key.public.clone();
        self.sign(&public, key)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::name::NameBuilder;
    use tlsfoe_crypto::drbg::Drbg;

    fn key(seed: u64) -> RsaKeyPair {
        RsaKeyPair::generate(512, &mut Drbg::new(seed)).unwrap()
    }

    #[test]
    fn self_signed_root_verifies_itself() {
        let root_key = key(1);
        let root = CertificateBuilder::new()
            .subject(NameBuilder::new().organization("GeoTrust Global CA").build())
            .ca(None)
            .self_sign(&root_key)
            .unwrap();
        assert!(root.is_self_issued());
        assert!(root.tbs.is_ca());
        root.verify_signature_with(&root_key.public).unwrap();
    }

    #[test]
    fn issued_leaf_verifies_with_issuer_key() {
        let ca_key = key(2);
        let leaf_key = key(3);
        let ca_name = NameBuilder::new().organization("DigiCert Inc").build();
        let leaf = CertificateBuilder::new()
            .issuer(ca_name.clone())
            .subject(NameBuilder::new().common_name("tlsresearch.byu.edu").build())
            .san_dns(&["tlsresearch.byu.edu"])
            .sign(&leaf_key.public, &ca_key)
            .unwrap();
        assert_eq!(leaf.tbs.issuer, ca_name);
        leaf.verify_signature_with(&ca_key.public).unwrap();
        assert!(leaf.verify_signature_with(&leaf_key.public).is_err());
        assert!(leaf.matches_host("tlsresearch.byu.edu"));
    }

    #[test]
    fn md5_and_sha256_signatures() {
        let ca_key = key(4);
        let leaf_key = key(5);
        for alg in [SignatureAlgorithm::Md5WithRsa, SignatureAlgorithm::Sha256WithRsa] {
            let cert = CertificateBuilder::new()
                .signature_alg(alg)
                .issuer(NameBuilder::new().organization("Proxy").build())
                .subject(NameBuilder::new().common_name("x").build())
                .sign(&leaf_key.public, &ca_key)
                .unwrap();
            assert_eq!(cert.signature_alg, alg);
            cert.verify_signature_with(&ca_key.public).unwrap();
            // And parses back identically.
            let parsed = Certificate::from_der(cert.to_der()).unwrap();
            assert_eq!(parsed.signature_alg, alg);
        }
    }

    #[test]
    fn serial_and_validity_propagate() {
        let k = key(6);
        let cert = CertificateBuilder::new()
            .serial_u64(0xdeadbeef)
            .validity(Time::from_ymd(2014, 1, 6), Time::from_ymd(2014, 1, 30))
            .subject(NameBuilder::new().common_name("s").build())
            .self_sign(&k)
            .unwrap();
        assert_eq!(cert.tbs.not_before, Time::from_ymd(2014, 1, 6));
        assert_eq!(cert.tbs.not_after, Time::from_ymd(2014, 1, 30));
        assert!(cert.tbs.serial.ends_with(&[0xde, 0xad, 0xbe, 0xef]));
    }

    #[test]
    fn null_issuer_certificate() {
        // 7% of study-1 substitute certs had a null issuer organization;
        // builder must support fully empty issuers.
        let k = key(7);
        let cert = CertificateBuilder::new()
            .issuer(DistinguishedName::empty())
            .subject(NameBuilder::new().common_name("victim.example").build())
            .sign(&k.public, &k)
            .unwrap();
        assert!(cert.tbs.issuer.is_empty());
        assert_eq!(cert.tbs.issuer.organization(), None);
        let parsed = Certificate::from_der(cert.to_der()).unwrap();
        assert!(parsed.tbs.issuer.is_empty());
    }
}
