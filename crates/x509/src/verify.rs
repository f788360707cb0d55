//! Chain validation and root stores.
//!
//! [`RootStore`] models the trust anchor set of a simulated client
//! machine. The paper's Figure 2 describes the three outcomes this module
//! reproduces:
//!
//! * (a) a legitimate chain validates to a bundled root,
//! * (b) a substitute chain with no path to a root is rejected,
//! * (c) a substitute chain validates because the interception product
//!   *injected its own root* into the client's store (or a rogue CA
//!   signed it) — validation succeeds and the browser shows the lock.
//!
//! Root injection is therefore a first-class operation
//! ([`RootStore::inject_root`]), recorded so analyzers can distinguish
//! factory roots from injected ones.

use tlsfoe_crypto::memo::Memo;

use crate::cert::Certificate;
use crate::time::Time;
use crate::X509Error;

/// Why a chain failed validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationError {
    /// The chain was empty.
    EmptyChain,
    /// No trusted root matched the top of the chain.
    UnknownAuthority,
    /// A signature in the chain did not verify.
    BadSignature {
        /// Index (0 = leaf) of the certificate whose signature failed.
        index: usize,
    },
    /// A certificate was outside its validity window.
    Expired {
        /// Index of the offending certificate.
        index: usize,
    },
    /// Issuer/subject names did not chain.
    NameChaining {
        /// Index of the certificate whose issuer did not match.
        index: usize,
    },
    /// An intermediate lacked the CA bit.
    NotACa {
        /// Index of the offending certificate.
        index: usize,
    },
    /// The leaf did not cover the requested hostname.
    HostnameMismatch,
    /// Structural problem re-parsing a certificate.
    Malformed(String),
}

impl core::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ValidationError::EmptyChain => write!(f, "empty certificate chain"),
            ValidationError::UnknownAuthority => write!(f, "unknown certificate authority"),
            ValidationError::BadSignature { index } => {
                write!(f, "bad signature at chain index {index}")
            }
            ValidationError::Expired { index } => {
                write!(f, "certificate expired at chain index {index}")
            }
            ValidationError::NameChaining { index } => {
                write!(f, "issuer/subject mismatch at chain index {index}")
            }
            ValidationError::NotACa { index } => {
                write!(f, "non-CA certificate used as issuer at index {index}")
            }
            ValidationError::HostnameMismatch => write!(f, "hostname mismatch"),
            ValidationError::Malformed(what) => write!(f, "malformed chain: {what}"),
        }
    }
}

impl std::error::Error for ValidationError {}

/// Provenance of a trust anchor — lets the analyzer tell a factory root
/// from one injected by an interception product or malware installer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RootOrigin {
    /// Shipped with the OS/browser image ("root store" in Figure 2).
    Factory,
    /// Added post-install (enterprise policy, firewall software, malware).
    Injected,
}

/// A client machine's set of trust anchors.
#[derive(Debug, Clone, Default)]
pub struct RootStore {
    roots: Vec<(Certificate, RootOrigin)>,
}

impl RootStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a factory (pre-installed) root.
    pub fn add_factory_root(&mut self, cert: Certificate) {
        self.roots.push((cert, RootOrigin::Factory));
    }

    /// Inject a root post-install — the mechanism of Figure 2c that every
    /// TLS proxy in the study relies on.
    pub fn inject_root(&mut self, cert: Certificate) {
        self.roots.push((cert, RootOrigin::Injected));
    }

    /// Number of anchors.
    pub fn len(&self) -> usize {
        self.roots.len()
    }

    /// True when the store holds no anchors.
    pub fn is_empty(&self) -> bool {
        self.roots.is_empty()
    }

    /// Iterate anchors with provenance.
    pub fn iter(&self) -> impl Iterator<Item = (&Certificate, RootOrigin)> {
        self.roots.iter().map(|(c, o)| (c, *o))
    }

    /// True if any *injected* root is present (a visible symptom the
    /// Netalyzer study looked for).
    pub fn has_injected_roots(&self) -> bool {
        self.roots.iter().any(|(_, o)| *o == RootOrigin::Injected)
    }

    /// Pre-build the verification [`tlsfoe_crypto::MontgomeryCtx`] for
    /// every anchor key in this store.
    ///
    /// [`RootStore::validate`]'s signature checks ride the process-wide
    /// context memo ([`tlsfoe_crypto::ctx_for`]) via
    /// `RsaPublicKey::verify`, so warming is an optional latency
    /// optimization: it moves each anchor's one-time `R² mod n` division
    /// out of the first validation. An even-modulus anchor key (none
    /// exists in a sane store) gets an error, which the memo never
    /// stores.
    pub fn warm_verify_ctxs(&self) {
        for (cert, _) in &self.roots {
            let _ = tlsfoe_crypto::ctx_for(&cert.tbs.spki.key.n);
        }
    }

    /// Find a trusted anchor whose subject matches `issuer_name` and
    /// whose key verifies `cert`'s signature.
    fn find_anchor(&self, cert: &Certificate) -> Option<&Certificate> {
        self.roots.iter().map(|(c, _)| c).find(|root| {
            root.tbs.subject == cert.tbs.issuer
                && cert.verify_signature_with(&root.tbs.spki.key).is_ok()
        })
    }

    /// Validate `chain` (leaf first) for `host` at time `now`.
    ///
    /// Checks performed, mirroring 2014-era browser behaviour:
    /// 1. every certificate is within its validity window,
    /// 2. each certificate is signed by the next one in the chain
    ///    (with issuer/subject name chaining and CA-bit enforcement),
    /// 3. the last chain element is signed by a trusted anchor (or *is*
    ///    a trusted anchor, matched by exact DER equality),
    /// 4. the leaf covers `host` (SAN, falling back to CN).
    ///
    /// Signature checks (steps 2–3) are the hot path of every simulated
    /// impression; with `e = 65537` everywhere in the corpus they ride
    /// the crypto crate's short-exponent Montgomery verify *and* the
    /// process-wide per-modulus context memo
    /// ([`tlsfoe_crypto::ctx_for`]), so a full chain validation
    /// costs tens of microseconds with no repeated `R² mod n`
    /// derivation. See [`RootStore::warm_verify_ctxs`] to pre-pay even
    /// the first-use cost.
    pub fn validate(
        &self,
        chain: &[Certificate],
        host: &str,
        now: Time,
    ) -> Result<(), ValidationError> {
        let leaf = chain.first().ok_or(ValidationError::EmptyChain)?;

        // 1. Validity windows.
        for (i, cert) in chain.iter().enumerate() {
            if now < cert.tbs.not_before || now > cert.tbs.not_after {
                return Err(ValidationError::Expired { index: i });
            }
        }

        // 2. Internal chaining.
        for i in 0..chain.len() - 1 {
            let child = &chain[i];
            let parent = &chain[i + 1];
            if child.tbs.issuer != parent.tbs.subject {
                return Err(ValidationError::NameChaining { index: i });
            }
            if !parent.tbs.is_ca() {
                return Err(ValidationError::NotACa { index: i + 1 });
            }
            if child.verify_signature_with(&parent.tbs.spki.key).is_err() {
                return Err(ValidationError::BadSignature { index: i });
            }
        }

        // 3. Anchor the top of the chain.
        let top = chain.last().expect("non-empty");
        let anchored = self.roots.iter().any(|(root, _)| root.to_der() == top.to_der())
            || self.find_anchor(top).is_some();
        if !anchored {
            return Err(ValidationError::UnknownAuthority);
        }

        // 4. Hostname.
        if !leaf.matches_host(host) {
            return Err(ValidationError::HostnameMismatch);
        }
        Ok(())
    }
}

/// Distinct `(host, now, chain)` verdicts a [`VerifyMemo`] stores. A
/// study observes tens of distinct chains, so thousands means something
/// is off; past the cap a verdict is computed and not stored, rather
/// than let a pathological workload hoard memory.
const VERIFY_MEMO_MAX: usize = 4096;

/// What a [`VerifyMemo`] verdict is a pure function of (for one store):
/// the host, the validation time and the chain's DER, leaf first.
type VerifyKey = (String, Time, Vec<Vec<u8>>);

/// Chain-bytes → validation-result memo.
///
/// The probe side of a study validates the upstream chain once per
/// intercepted session, yet distinct chains number in the tens per run
/// while sessions number in the millions. The memo is a [`Memo`] keyed
/// by `(host, now, chain DER)`, compared by **full** equality on a hash
/// hit, never hash-only. The cached value is the complete
/// [`ValidationError`] outcome, which is a pure function of the key for
/// a fixed trust store.
///
/// A memo is dedicated to one [`RootStore`]: the store is *not* part of
/// the key, so sharing a memo across stores would conflate their
/// verdicts. Hold it next to the store it serves.
///
/// Chains with any element that fails to re-parse are **never**
/// memoized: a malformed blob has no classification, only an error
/// message, and caching it would let a later byte-identical upload skip
/// the parser whose behaviour (e.g. error detail) the caller may rely
/// on. A regression test pins this down.
pub struct VerifyMemo {
    memo: Memo<VerifyKey, Result<(), ValidationError>>,
}

impl Default for VerifyMemo {
    /// An empty memo.
    fn default() -> VerifyMemo {
        VerifyMemo { memo: Memo::new(VERIFY_MEMO_MAX) }
    }
}

impl VerifyMemo {
    /// Validate `chain_der` (leaf first, raw DER) against `store` for
    /// `host` at `now`, consulting and filling the memo.
    ///
    /// Equivalent to parsing every element and calling
    /// [`RootStore::validate`], except that a chain whose every byte was
    /// seen before returns the cached verdict without touching the
    /// parser or the big-integer stack. Any element that fails to parse
    /// yields [`ValidationError::Malformed`] and is not memoized.
    pub fn validate_der(
        &self,
        store: &RootStore,
        chain_der: &[Vec<u8>],
        host: &str,
        now: Time,
    ) -> Result<(), ValidationError> {
        let key: VerifyKey = (host.to_string(), now, chain_der.to_vec());
        self.memo.get_or_try_insert_with(&key, || {
            let parsed = chain_der
                .iter()
                .map(|der| Certificate::from_der(der))
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| ValidationError::Malformed(e.to_string()))?;
            Ok(store.validate(&parsed, host, now))
        })?
    }
}

/// Convenience: build the three-tier CA hierarchy used throughout the
/// workspace tests and simulations (root → intermediate → leaf), returning
/// `(root_cert, intermediate_cert, leaf_cert)`.
///
/// Mirrors the paper's Figure 2a example: GeoTrust Global CA → Google
/// Internet Authority G2 → www.google.com.
pub fn demo_hierarchy(
    root_key: &tlsfoe_crypto::RsaKeyPair,
    intermediate_key: &tlsfoe_crypto::RsaKeyPair,
    leaf_key: &tlsfoe_crypto::RsaKeyPair,
    host: &str,
) -> Result<(Certificate, Certificate, Certificate), X509Error> {
    use crate::builder::CertificateBuilder;
    use crate::name::NameBuilder;

    let root_name = NameBuilder::new().organization("GeoTrust Global CA").build();
    let int_name = NameBuilder::new().organization("Google Internet Authority G2").build();
    let root = CertificateBuilder::new()
        .serial_u64(1)
        .subject(root_name.clone())
        .ca(None)
        .self_sign(root_key)?;
    let intermediate = CertificateBuilder::new()
        .serial_u64(2)
        .issuer(root_name)
        .subject(int_name.clone())
        .ca(Some(0))
        .sign(&intermediate_key.public, root_key)?;
    let leaf = CertificateBuilder::new()
        .serial_u64(3)
        .issuer(int_name)
        .subject(NameBuilder::new().common_name(host).build())
        .san_dns(&[host])
        .sign(&leaf_key.public, intermediate_key)?;
    Ok((root, intermediate, leaf))
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::builder::CertificateBuilder;
    use crate::name::NameBuilder;
    use tlsfoe_crypto::drbg::Drbg;
    use tlsfoe_crypto::RsaKeyPair;

    fn key(seed: u64) -> RsaKeyPair {
        RsaKeyPair::generate(512, &mut Drbg::new(seed)).unwrap()
    }

    fn now() -> Time {
        Time::from_ymd(2014, 6, 1)
    }

    #[test]
    fn figure_2a_legitimate_chain_validates() {
        let (rk, ik, lk) = (key(10), key(11), key(12));
        let (root, intermediate, leaf) = demo_hierarchy(&rk, &ik, &lk, "www.google.com").unwrap();
        let mut store = RootStore::new();
        store.add_factory_root(root);
        store.validate(&[leaf, intermediate], "www.google.com", now()).unwrap();
    }

    #[test]
    fn figure_2b_unanchored_substitute_rejected() {
        let (rk, ik, lk) = (key(13), key(14), key(15));
        let (_root, intermediate, leaf) = demo_hierarchy(&rk, &ik, &lk, "www.google.com").unwrap();
        let store = RootStore::new(); // victim trusts nothing relevant
        assert_eq!(
            store.validate(&[leaf, intermediate], "www.google.com", now()),
            Err(ValidationError::UnknownAuthority)
        );
    }

    #[test]
    fn figure_2c_injected_root_makes_substitute_validate() {
        // A proxy mints its own root, injects it, then signs a substitute
        // leaf for www.google.com with it. Validation now SUCCEEDS —
        // exactly the danger the paper documents.
        let proxy_key = key(16);
        let leaf_key = key(17);
        let proxy_name = NameBuilder::new().organization("Bitdefender").build();
        let proxy_root = CertificateBuilder::new()
            .subject(proxy_name.clone())
            .ca(None)
            .self_sign(&proxy_key)
            .unwrap();
        let substitute = CertificateBuilder::new()
            .issuer(proxy_name)
            .subject(NameBuilder::new().common_name("www.google.com").build())
            .san_dns(&["www.google.com"])
            .sign(&leaf_key.public, &proxy_key)
            .unwrap();

        let mut store = RootStore::new();
        assert_eq!(
            store.validate(std::slice::from_ref(&substitute), "www.google.com", now()),
            Err(ValidationError::UnknownAuthority)
        );
        store.inject_root(proxy_root);
        assert!(store.has_injected_roots());
        store.validate(&[substitute], "www.google.com", now()).unwrap();
    }

    #[test]
    fn expired_certificate_rejected() {
        let (rk, ik, lk) = (key(18), key(19), key(20));
        let (root, intermediate, leaf) = demo_hierarchy(&rk, &ik, &lk, "h.example").unwrap();
        let mut store = RootStore::new();
        store.add_factory_root(root);
        let after_expiry = Time::from_ymd(2017, 1, 1);
        assert_eq!(
            store.validate(&[leaf, intermediate], "h.example", after_expiry),
            Err(ValidationError::Expired { index: 0 })
        );
    }

    #[test]
    fn hostname_mismatch_rejected() {
        let (rk, ik, lk) = (key(21), key(22), key(23));
        let (root, intermediate, leaf) = demo_hierarchy(&rk, &ik, &lk, "a.example").unwrap();
        let mut store = RootStore::new();
        store.add_factory_root(root);
        assert_eq!(
            store.validate(&[leaf, intermediate], "b.example", now()),
            Err(ValidationError::HostnameMismatch)
        );
    }

    #[test]
    fn name_chaining_enforced() {
        let (rk, ik, lk) = (key(24), key(25), key(26));
        let (root, _intermediate, leaf) = demo_hierarchy(&rk, &ik, &lk, "h.example").unwrap();
        // Splice in an unrelated "intermediate" whose subject doesn't match.
        let rogue_key = key(27);
        let rogue = CertificateBuilder::new()
            .subject(NameBuilder::new().organization("Rogue").build())
            .ca(None)
            .self_sign(&rogue_key)
            .unwrap();
        let mut store = RootStore::new();
        store.add_factory_root(root);
        assert_eq!(
            store.validate(&[leaf, rogue], "h.example", now()),
            Err(ValidationError::NameChaining { index: 0 })
        );
    }

    #[test]
    fn non_ca_intermediate_rejected() {
        let (rk, ik, lk) = (key(28), key(29), key(30));
        let root_name = NameBuilder::new().organization("Root").build();
        let mid_name = NameBuilder::new().organization("NotACa").build();
        let root =
            CertificateBuilder::new().subject(root_name.clone()).ca(None).self_sign(&rk).unwrap();
        // Intermediate WITHOUT the CA bit.
        let intermediate = CertificateBuilder::new()
            .issuer(root_name)
            .subject(mid_name.clone())
            .sign(&ik.public, &rk)
            .unwrap();
        let leaf = CertificateBuilder::new()
            .issuer(mid_name)
            .subject(NameBuilder::new().common_name("h.example").build())
            .san_dns(&["h.example"])
            .sign(&lk.public, &ik)
            .unwrap();
        let mut store = RootStore::new();
        store.add_factory_root(root);
        assert_eq!(
            store.validate(&[leaf, intermediate], "h.example", now()),
            Err(ValidationError::NotACa { index: 1 })
        );
    }

    #[test]
    fn bad_signature_detected() {
        let (rk, ik, lk) = (key(31), key(32), key(33));
        let (root, _intermediate, _leaf) = demo_hierarchy(&rk, &ik, &lk, "h.example").unwrap();
        // Leaf claims the root as issuer but is signed by someone else.
        let forged = CertificateBuilder::new()
            .issuer(root.tbs.subject.clone())
            .subject(NameBuilder::new().common_name("h.example").build())
            .san_dns(&["h.example"])
            .sign(&lk.public, &ik) // wrong key!
            .unwrap();
        let mut store = RootStore::new();
        store.add_factory_root(root);
        assert_eq!(
            store.validate(&[forged], "h.example", now()),
            Err(ValidationError::UnknownAuthority),
            "forged signature must not anchor"
        );
    }

    #[test]
    fn warming_caches_every_anchor_modulus() {
        let (rk, ik, lk) = (key(40), key(41), key(42));
        let (root, intermediate, leaf) = demo_hierarchy(&rk, &ik, &lk, "h.example").unwrap();
        let mut store = RootStore::new();
        store.add_factory_root(root);
        store.warm_verify_ctxs();
        assert!(tlsfoe_crypto::shared_ctx_cache().contains(rk.public.n.limbs()));
        // Validation (which verifies against the cached anchor context)
        // still succeeds.
        store.validate(&[leaf, intermediate], "h.example", now()).unwrap();
    }

    #[test]
    fn verify_memo_caches_both_verdicts() {
        let (rk, ik, lk) = (key(50), key(51), key(52));
        let (root, intermediate, leaf) = demo_hierarchy(&rk, &ik, &lk, "h.example").unwrap();
        let mut store = RootStore::new();
        store.add_factory_root(root);
        let chain: Vec<Vec<u8>> =
            [&leaf, &intermediate].iter().map(|c| c.to_der().to_vec()).collect();

        let memo = VerifyMemo::default();
        assert!(memo.memo.is_empty());
        memo.validate_der(&store, &chain, "h.example", now()).unwrap();
        assert_eq!(memo.memo.len(), 1);
        // Second identical call hits the memo (entry count is unchanged)
        // and returns the same verdict.
        memo.validate_der(&store, &chain, "h.example", now()).unwrap();
        assert_eq!(memo.memo.len(), 1);

        // A failing verdict is memoized too, with the full error.
        let wrong = memo.validate_der(&store, &chain, "x.example", now());
        assert_eq!(wrong, Err(ValidationError::HostnameMismatch));
        assert_eq!(memo.memo.len(), 2);
        assert_eq!(
            memo.validate_der(&store, &chain, "x.example", now()),
            Err(ValidationError::HostnameMismatch)
        );
        assert_eq!(memo.memo.len(), 2);
        // The memo's verdicts match the direct path exactly.
        let parsed: Vec<Certificate> =
            chain.iter().map(|d| Certificate::from_der(d).unwrap()).collect();
        assert_eq!(store.validate(&parsed, "h.example", now()), Ok(()));
        assert_eq!(
            store.validate(&parsed, "x.example", now()),
            Err(ValidationError::HostnameMismatch)
        );
    }

    #[test]
    fn verify_memo_never_caches_malformed_chains() {
        let (rk, ik, lk) = (key(53), key(54), key(55));
        let (root, intermediate, leaf) = demo_hierarchy(&rk, &ik, &lk, "h.example").unwrap();
        let mut store = RootStore::new();
        store.add_factory_root(root);

        let memo = VerifyMemo::default();
        // A chain with one unparseable element is rejected as Malformed
        // and leaves the memo untouched — byte-identical retries must
        // re-enter the parser, not replay a cached blob.
        let mut broken: Vec<Vec<u8>> = vec![leaf.to_der().to_vec(), intermediate.to_der().to_vec()];
        broken[1] = vec![0xde, 0xad, 0xbe, 0xef];
        for _ in 0..2 {
            match memo.validate_der(&store, &broken, "h.example", now()) {
                Err(ValidationError::Malformed(_)) => {}
                other => panic!("expected Malformed, got {other:?}"),
            }
            assert!(memo.memo.is_empty(), "malformed chain must never be memoized");
        }
    }

    #[test]
    fn empty_chain_rejected() {
        let store = RootStore::new();
        assert_eq!(store.validate(&[], "h.example", now()), Err(ValidationError::EmptyChain));
    }

    #[test]
    fn root_included_in_chain_accepted() {
        // Some servers send the full chain including the root; validation
        // should anchor by DER equality.
        let (rk, ik, lk) = (key(34), key(35), key(36));
        let (root, intermediate, leaf) = demo_hierarchy(&rk, &ik, &lk, "h.example").unwrap();
        let mut store = RootStore::new();
        store.add_factory_root(root.clone());
        store.validate(&[leaf, intermediate, root], "h.example", now()).unwrap();
    }
}
