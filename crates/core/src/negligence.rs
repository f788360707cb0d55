//! The §5.2 negligence analysis.
//!
//! From the substitute-certificate corpus, quantify:
//! * public-key size distribution (downgrades from the 2048-bit
//!   originals: 50.59% at 1024 bits, 21 at 512 bits, 7 "better" at 2432),
//! * signature hashes (23 MD5, 5 SHA-256),
//! * forged CA issuers: substitutes *claiming* a real CA (e.g. "DigiCert
//!   Inc") whose signature provably is not the CA's — verified
//!   cryptographically against the CA's actual public key,
//! * subject mutations: substitutes whose subject does not cover the
//!   probed host (wildcarded IP subnets, wrong domains) and auxiliary
//!   subject tweaks.

use std::collections::BTreeMap;

use tlsfoe_crypto::RsaPublicKey;
use tlsfoe_x509::cert::SignatureAlgorithm;
use tlsfoe_x509::Certificate;

use crate::report::Database;

/// The §5.2 negligence summary.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NegligenceReport {
    /// Substitute count (denominator).
    pub substitutes: u64,
    /// key-bits → count.
    pub key_sizes: BTreeMap<usize, u64>,
    /// MD5-signed substitutes.
    pub md5_signed: u64,
    /// MD5-signed substitutes that were *also* 512-bit.
    pub md5_and_512: u64,
    /// SHA-256-signed substitutes.
    pub sha256_signed: u64,
    /// Substitutes claiming a real CA issuer whose signature fails
    /// verification with that CA's key (the 49 forged "DigiCert Inc").
    pub forged_ca_issuer: u64,
    /// Substitutes whose subject does not cover the probed host.
    pub subject_mismatch: u64,
    /// …of which wildcarded-IP-subnet subjects.
    pub wildcard_ip_subjects: u64,
    /// …of which issued for an entirely different domain.
    pub wrong_domain_subjects: u64,
    /// Substitutes with auxiliary subject modifications (host still
    /// covered, extra attributes added).
    pub tweaked_subjects: u64,
}

impl NegligenceReport {
    /// Fraction of substitutes at `bits`.
    pub fn key_share(&self, bits: usize) -> f64 {
        if self.substitutes == 0 {
            return 0.0;
        }
        *self.key_sizes.get(&bits).unwrap_or(&0) as f64 / self.substitutes as f64
    }

    /// Total subject modifications (the paper's 110).
    pub fn subject_modifications(&self) -> u64 {
        self.subject_mismatch + self.tweaked_subjects
    }
}

/// Run the analysis.
///
/// `real_cas` maps a CA organization name to its genuine public key, so
/// forged-issuer claims can be disproven cryptographically rather than
/// by string comparison alone.
pub fn analyze(db: &Database, real_cas: &[(&str, &RsaPublicKey)]) -> NegligenceReport {
    let mut report = NegligenceReport::default();
    for r in db.iter() {
        let Some(sub) = r.substitute else { continue };
        report.substitutes += 1;
        *report.key_sizes.entry(sub.key_bits).or_default() += 1;
        match sub.sig_alg {
            SignatureAlgorithm::Md5WithRsa => {
                report.md5_signed += 1;
                if sub.key_bits == 512 {
                    report.md5_and_512 += 1;
                }
            }
            SignatureAlgorithm::Sha256WithRsa => report.sha256_signed += 1,
            SignatureAlgorithm::Sha1WithRsa => {}
        }

        // Forged CA issuer: claims a real CA's name but the chain's
        // actual signature does not verify with the CA's key.
        if let Some(org) = &sub.issuer_org {
            if let Some((_, ca_key)) = real_cas.iter().find(|(name, _)| name == org) {
                let really_signed_by_ca = sub
                    .chain_der
                    .first()
                    .and_then(|der| Certificate::from_der(der).ok())
                    .is_some_and(|leaf| leaf.verify_signature_with(ca_key).is_ok());
                if !really_signed_by_ca {
                    report.forged_ca_issuer += 1;
                }
            }
        }

        // Subject analysis.
        if !sub.covers_host {
            report.subject_mismatch += 1;
            if let Some(cn) = &sub.subject_cn {
                if cn.starts_with("*.") && looks_like_ip_prefix(&cn[2..]) {
                    report.wildcard_ip_subjects += 1;
                } else if cn.contains('.') {
                    report.wrong_domain_subjects += 1;
                }
            }
        } else if sub.chain_der.first().and_then(|der| Certificate::from_der(der).ok()).is_some_and(
            |leaf| {
                leaf.tbs.subject.organizational_unit().is_some()
                    || leaf.tbs.subject.organization().is_some()
            },
        ) {
            // Host covered but the subject carries extra attributes the
            // original never had.
            report.tweaked_subjects += 1;
        }
    }
    report
}

fn looks_like_ip_prefix(s: &str) -> bool {
    let parts: Vec<&str> = s.split('.').collect();
    parts.len() >= 2 && parts.iter().all(|p| p.parse::<u8>().is_ok())
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::hosts::HostCategory;
    use crate::report::{MeasurementRecord, SubstituteInfo};
    use std::sync::Arc;
    use tlsfoe_geo::countries::by_code;
    use tlsfoe_netsim::Ipv4;
    use tlsfoe_population::keys;
    use tlsfoe_x509::name::NameBuilder;
    use tlsfoe_x509::CertificateBuilder;

    fn sub_record(
        key_bits: usize,
        sig: SignatureAlgorithm,
        subject_cn: &str,
        covers: bool,
    ) -> MeasurementRecord {
        MeasurementRecord {
            impression: 0,
            attempts: 1,
            client_ip: Ipv4([11, 0, 0, 1]),
            country: by_code("US"),
            host: "tlsresearch.byu.edu",
            category: HostCategory::Authors,
            proxied: true,
            substitute: Some(Arc::new(SubstituteInfo {
                issuer_org: Some("SomeProxy".into()),
                issuer_cn: None,
                key_bits,
                sig_alg: sig,
                subject_cn: Some(subject_cn.into()),
                covers_host: covers,
                leaf_key_fp: [0; 32],
                chain_der: vec![],
            })),
        }
    }

    #[test]
    fn key_size_and_hash_histograms() {
        let db = Database::from_records(vec![
            sub_record(1024, SignatureAlgorithm::Sha1WithRsa, "h", true),
            sub_record(1024, SignatureAlgorithm::Sha1WithRsa, "h", true),
            sub_record(512, SignatureAlgorithm::Md5WithRsa, "h", true),
            sub_record(2048, SignatureAlgorithm::Sha256WithRsa, "h", true),
            sub_record(2432, SignatureAlgorithm::Sha1WithRsa, "h", true),
        ]);
        let rep = analyze(&db, &[]);
        assert_eq!(rep.substitutes, 5);
        assert_eq!(rep.key_sizes[&1024], 2);
        assert_eq!(rep.key_sizes[&512], 1);
        assert_eq!(rep.key_sizes[&2432], 1);
        assert_eq!(rep.md5_signed, 1);
        assert_eq!(rep.md5_and_512, 1);
        assert_eq!(rep.sha256_signed, 1);
        assert!((rep.key_share(1024) - 0.4).abs() < 1e-9);
    }

    #[test]
    fn subject_mismatch_taxonomy() {
        let db = Database::from_records(vec![
            sub_record(1024, SignatureAlgorithm::Sha1WithRsa, "*.203.0.113", false),
            sub_record(1024, SignatureAlgorithm::Sha1WithRsa, "mail.google.com", false),
            sub_record(1024, SignatureAlgorithm::Sha1WithRsa, "h", true),
        ]);
        let rep = analyze(&db, &[]);
        assert_eq!(rep.subject_mismatch, 2);
        assert_eq!(rep.wildcard_ip_subjects, 1);
        assert_eq!(rep.wrong_domain_subjects, 1);
    }

    #[test]
    fn forged_ca_issuer_detected_cryptographically() {
        // Build a substitute CLAIMING DigiCert but signed by someone else.
        let real_ca = keys::keypair(990_001, 512);
        let impostor = keys::keypair(990_002, 512);
        let leaf_key = keys::keypair(990_003, 512);
        let claimed_issuer = NameBuilder::new().organization("DigiCert Inc").build();
        let forged = CertificateBuilder::new()
            .issuer(claimed_issuer.clone())
            .subject(NameBuilder::new().common_name("h").build())
            .san_dns(&["tlsresearch.byu.edu"])
            .sign(&leaf_key.public, &impostor)
            .unwrap();
        // And a legitimate one actually signed by the real CA.
        let legit = CertificateBuilder::new()
            .issuer(claimed_issuer)
            .subject(NameBuilder::new().common_name("h").build())
            .san_dns(&["tlsresearch.byu.edu"])
            .sign(&leaf_key.public, &real_ca)
            .unwrap();

        let mk = |cert: &tlsfoe_x509::Certificate| MeasurementRecord {
            impression: 0,
            attempts: 1,
            client_ip: Ipv4([11, 0, 0, 1]),
            country: by_code("US"),
            host: "tlsresearch.byu.edu",
            category: HostCategory::Authors,
            proxied: true,
            substitute: Some(Arc::new(SubstituteInfo {
                issuer_org: Some("DigiCert Inc".into()),
                issuer_cn: None,
                key_bits: cert.key_bits(),
                sig_alg: cert.signature_alg,
                subject_cn: Some("h".into()),
                covers_host: true,
                leaf_key_fp: [0; 32],
                chain_der: vec![cert.to_der().to_vec()],
            })),
        };
        let db = Database::from_records(vec![mk(&forged), mk(&legit)]);
        let rep = analyze(&db, &[("DigiCert Inc", &real_ca.public)]);
        assert_eq!(rep.forged_ca_issuer, 1, "only the impostor counts");
    }

    #[test]
    fn empty_database_empty_report() {
        let rep = analyze(&Database::new(), &[]);
        assert_eq!(rep, NegligenceReport::default());
        assert_eq!(rep.key_share(1024), 0.0);
    }
}
