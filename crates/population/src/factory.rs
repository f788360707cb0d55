//! Substitute-certificate minting.
//!
//! A [`SubstituteFactory`] is one product's certificate machinery: its
//! injected root CA and the leaf substitutes it mints per probed host —
//! with all the behaviours the paper catalogued (issuer forgery, key-size
//! downgrades, MD5 signatures, subject mutations, shared leaf keys).
//!
//! Each catalog product has one factory per process, built on first use
//! into its slot of a process-wide table (the mint-path sibling of the
//! [`keys`] cache its root key comes from) and reached through
//! [`crate::PopulationModel::factory`]. Its root certificate is a pure
//! function of the product, so every model of every era shares it and
//! each root is self-signed once per process. Substitutes are cached per
//! host, as real proxies cache them per site, in the process-wide
//! [`crate::cache::process_cache`] under `(product, host, variant)` keys.
//!
//! Minting is a pure function of the cache key (see [`crate::cache`]'s
//! determinism contract): serial numbers come from a DRBG seeded by
//! `(product, host, variant)`, leaf keys from the stable [`keys`] seeds —
//! so a chain's bytes never depend on mint order, thread scheduling or
//! the study era.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use tlsfoe_crypto::drbg::{Drbg, RngCore64};
use tlsfoe_crypto::RsaKeyPair;
use tlsfoe_netsim::Ipv4;
use tlsfoe_tls::server::ServerConfig;
use tlsfoe_x509::ext::Extension;
use tlsfoe_x509::name::{DistinguishedName, NameBuilder};
use tlsfoe_x509::time::Time;
use tlsfoe_x509::{Certificate, CertificateBuilder};

use crate::cache::{process_cache, SubstituteCache, SubstituteEntry, SubstituteKey};
use crate::keys;
use crate::products::{catalog, ProductId, ProductSpec, SubjectStyle};

/// Number of leaf keys in a non-shared product's pool. Real products
/// reuse a few keys across installs; the IopFail malware's pool size is
/// forced to 1 (its defining fingerprint).
const LEAF_POOL: u16 = 3;

/// The slot of `spec`'s leaf-key pool ([`keys::leaf_seed`]) that its
/// substitute for `host` carries: the host's hash modulo the pool size
/// (a stable choice), or the single shared key. The one rule both
/// minting and [`keys::leaf_key_specs`] read, so a study warms exactly
/// the leaf keys its catalog's hosts select.
pub(crate) fn leaf_slot(spec: &ProductSpec, host: &str) -> u16 {
    let pool = if spec.shared_leaf_key { 1 } else { LEAF_POOL };
    (fnv(host) % pool as u64) as u16
}

/// One catalog product's slot in the process-wide factory table.
pub(crate) struct FactorySlot {
    product: ProductId,
    spec: ProductSpec,
    factory: OnceLock<Arc<SubstituteFactory>>,
}

impl FactorySlot {
    /// The product's process-wide factory, built (and its root
    /// self-signed) on first use. `OnceLock` makes racing threads wait
    /// for the one build.
    pub(crate) fn factory(&self) -> Arc<SubstituteFactory> {
        self.factory
            .get_or_init(|| {
                Arc::new(SubstituteFactory::new(self.product, self.spec.clone(), process_cache()))
            })
            .clone()
    }
}

/// The process-wide factory table: one slot per catalog product, in
/// catalog order ([`ProductId`] is the position).
pub(crate) fn slots() -> &'static [FactorySlot] {
    static SLOTS: OnceLock<Vec<FactorySlot>> = OnceLock::new();
    SLOTS.get_or_init(|| {
        catalog()
            .into_iter()
            .enumerate()
            .map(|(i, spec)| FactorySlot {
                product: ProductId(i as u16),
                spec,
                factory: OnceLock::new(),
            })
            .collect()
    })
}

/// One product's certificate mint.
///
/// Minting cost is dominated by the root key's RSA signature over each
/// substitute's TBS bytes; the cached [`keys::keypair`] root carries
/// precomputed CRT/Montgomery material, so a cache-miss mint is two
/// half-size exponentiations rather than the schoolbook full-size one
/// the seed implementation paid.
pub struct SubstituteFactory {
    /// The product this factory belongs to.
    pub product: ProductId,
    spec: ProductSpec,
    root_key: Arc<RsaKeyPair>,
    root_cert: Certificate,
    /// Minted chains: the process-wide cache, or a unit test's own.
    cache: Arc<SubstituteCache>,
    /// Chains actually minted (cache misses) through this factory.
    minted: AtomicUsize,
}

impl SubstituteFactory {
    /// Build the factory (loads the product's root key and self-signs its
    /// root certificate), minting into `cache`. Only the process-wide
    /// table ([`FactorySlot::factory`]) and this module's tests build one.
    fn new(
        product: ProductId,
        spec: ProductSpec,
        cache: Arc<SubstituteCache>,
    ) -> SubstituteFactory {
        let root_key = keys::keypair(keys::root_seed(product.0), 2048);
        let root_name = issuer_name(&spec, None);
        let root_cert = CertificateBuilder::new()
            .serial_u64(product.0 as u64 + 1)
            .subject(root_name)
            .validity(Time::from_ymd(2012, 1, 1), Time::from_ymd(2022, 1, 1))
            .ca(None)
            .self_sign(&root_key)
            .expect("root self-sign");
        SubstituteFactory { product, spec, root_key, root_cert, cache, minted: AtomicUsize::new(0) }
    }

    /// The product's behaviour spec.
    pub fn spec(&self) -> &ProductSpec {
        &self.spec
    }

    /// The root certificate this product injects into victim root stores
    /// (Figure 2c's "New Injected Root").
    pub fn root_cert(&self) -> &Certificate {
        &self.root_cert
    }

    /// The root's public key (the key that actually signs substitutes —
    /// even for issuer-forging products).
    pub fn root_public(&self) -> &tlsfoe_crypto::RsaPublicKey {
        &self.root_key.public
    }

    /// Mint (or fetch from cache) the substitute chain for `host`.
    ///
    /// `upstream_leaf` — the genuine certificate the proxy fetched from
    /// the real server; used by issuer-copying products (the forged
    /// "DigiCert Inc" issuers copied our original's issuer, §5.2).
    /// `dst` — destination IP, used by wildcard-IP-subject products.
    pub fn substitute_chain(
        &self,
        host: &str,
        dst: Ipv4,
        upstream_leaf: Option<&Certificate>,
    ) -> Arc<Vec<Certificate>> {
        self.substitute_entry(host, dst, upstream_leaf).chain
    }

    /// Like [`SubstituteFactory::substitute_chain`], but returns the full
    /// cache entry — chain plus the shared `ServerConfig` whose encoded
    /// hello flight the proxy serves to every intercepted connection.
    pub fn substitute_entry(
        &self,
        host: &str,
        dst: Ipv4,
        upstream_leaf: Option<&Certificate>,
    ) -> SubstituteEntry {
        let variant = self.mint_variant(dst, upstream_leaf);
        let key = SubstituteKey { product: self.product, host: host.to_string(), variant };
        self.cache.get_or_insert_with(key, || {
            self.minted.fetch_add(1, Ordering::Relaxed);
            let chain = Arc::new(self.mint(host, dst, upstream_leaf, variant));
            SubstituteEntry { config: ServerConfig::new(chain.clone()), chain }
        })
    }

    /// Number of distinct substitute chains minted (not merely served)
    /// through this factory.
    pub fn minted(&self) -> usize {
        self.minted.load(Ordering::Relaxed)
    }

    /// Hash of the mint inputs beyond the hostname, for the cache key.
    ///
    /// Most products mint from the host alone (variant 0). Wildcard-IP
    /// subjects depend on the destination /24; issuer-copying products
    /// depend on the upstream issuer DN. Folding those into the key keeps
    /// the cached chain a pure function of its key — the determinism
    /// contract of [`crate::cache`].
    fn mint_variant(&self, dst: Ipv4, upstream_leaf: Option<&Certificate>) -> u64 {
        let mut v = 0u64;
        if self.spec.subject_style == SubjectStyle::WildcardIpSubnet {
            v ^= fnv(&format!("{}.{}.{}", dst.0[0], dst.0[1], dst.0[2]));
        }
        if self.spec.copy_issuer {
            if let Some(up) = upstream_leaf {
                v ^= fnv(&up.tbs.issuer.to_string()).rotate_left(1);
            }
        }
        v
    }

    fn mint(
        &self,
        host: &str,
        dst: Ipv4,
        upstream_leaf: Option<&Certificate>,
        variant: u64,
    ) -> Vec<Certificate> {
        let issuer = issuer_name(&self.spec, upstream_leaf);
        let (subject, san): (DistinguishedName, Vec<String>) = match self.spec.subject_style {
            SubjectStyle::Exact => {
                (NameBuilder::new().common_name(host).build(), vec![host.to_string()])
            }
            SubjectStyle::WildcardIpSubnet => {
                // Wildcard over the destination's /24 — covers the subnet
                // only, not the hostname (the §5.2 mismatch).
                let pattern = format!("*.{}.{}.{}", dst.0[0], dst.0[1], dst.0[2]);
                (NameBuilder::new().common_name(&pattern).build(), vec![pattern])
            }
            SubjectStyle::WrongDomain(domain) => {
                (NameBuilder::new().common_name(domain).build(), vec![domain.to_string()])
            }
            SubjectStyle::Tweaked => (
                NameBuilder::new()
                    .organizational_unit("content-filtered")
                    .common_name(host)
                    .build(),
                vec![host.to_string()],
            ),
        };

        // Leaf key: the host's pool slot, normally warmed before the
        // study drives (`keys::leaf_key_specs`).
        let slot = leaf_slot(&self.spec, host);
        let leaf_key = keys::keypair(keys::leaf_seed(self.product.0, slot), self.spec.key_bits);

        // Serial derived from a DRBG over (product, host, variant) —
        // independent of mint order, so shared-cache minting is
        // thread-schedule-proof, and distinct mint variants of one host
        // (different destination /24, different upstream issuer) get
        // distinct serials under the shared root, as RFC 5280 requires.
        let serial =
            Drbg::new(keys::root_seed(self.product.0) ^ fnv(host) ^ variant.rotate_left(17))
                .fork("substitute-serial")
                .next_u64()
                | 1; // keep it nonzero
        let mut builder = CertificateBuilder::new()
            .serial_u64(serial)
            .signature_alg(self.spec.sig_alg)
            .issuer(issuer)
            .subject(subject)
            .validity(Time::from_ymd(2013, 6, 1), Time::from_ymd(2016, 6, 1))
            .extension(Extension::BasicConstraints { ca: false, path_len: None });
        let san_refs: Vec<&str> = san.iter().map(|s| s.as_str()).collect();
        builder = builder.san_dns(&san_refs);
        let leaf = builder.sign(&leaf_key.public, &self.root_key).expect("substitute sign");
        vec![leaf, self.root_cert.clone()]
    }
}

/// The issuer DN a product writes into substitutes (and its root subject).
fn issuer_name(spec: &ProductSpec, upstream_leaf: Option<&Certificate>) -> DistinguishedName {
    if spec.copy_issuer {
        if let Some(up) = upstream_leaf {
            return up.tbs.issuer.clone();
        }
    }
    let mut b = NameBuilder::new();
    if let Some(org) = spec.issuer_org {
        b = b.organization(org);
    }
    if let Some(cn) = spec.issuer_cn {
        b = b.common_name(cn);
    }
    b.build()
}

fn fnv(s: &str) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in s.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::model::StudyEra;
    use tlsfoe_x509::cert::SignatureAlgorithm;
    use tlsfoe_x509::RootStore;

    /// A fresh factory minting into a cache of its own, so its counts
    /// are exact whatever else the test binary mints.
    fn factory_for(name: &str) -> SubstituteFactory {
        let specs = catalog();
        let (i, spec) = specs
            .iter()
            .enumerate()
            .find(|(_, s)| s.display_name() == name)
            .unwrap_or_else(|| panic!("{name} not in catalog"));
        SubstituteFactory::new(
            ProductId(i as u16),
            spec.clone(),
            Arc::new(SubstituteCache::unbounded()),
        )
    }

    /// An upstream leaf for tlsresearch.byu.edu whose issuer is
    /// "DigiCert Inc" / `issuer_cn`, signed by the stand-in CA key
    /// `keys::keypair(999_001, 512)`.
    fn upstream_leaf(issuer_cn: &str) -> Certificate {
        let upstream_ca = keys::keypair(999_001, 512);
        let upstream_leaf_key = keys::keypair(999_002, 512);
        let issuer = NameBuilder::new()
            .country("US")
            .organization("DigiCert Inc")
            .common_name(issuer_cn)
            .build();
        CertificateBuilder::new()
            .issuer(issuer)
            .subject(NameBuilder::new().common_name("tlsresearch.byu.edu").build())
            .san_dns(&["tlsresearch.byu.edu"])
            .sign(&upstream_leaf_key.public, &upstream_ca)
            .unwrap()
    }

    fn dst() -> Ipv4 {
        Ipv4([203, 0, 113, 7])
    }

    #[test]
    fn substitute_validates_against_injected_root() {
        let f = factory_for("Bitdefender");
        let chain = f.substitute_chain("tlsresearch.byu.edu", dst(), None);
        assert_eq!(chain.len(), 2);
        let mut store = RootStore::new();
        store.inject_root(f.root_cert().clone());
        store.validate(&chain, "tlsresearch.byu.edu", Time::from_ymd(2014, 6, 1)).unwrap();
    }

    #[test]
    fn substitute_rejected_without_injected_root() {
        let f = factory_for("Bitdefender");
        let chain = f.substitute_chain("tlsresearch.byu.edu", dst(), None);
        let store = RootStore::new();
        assert!(store.validate(&chain, "tlsresearch.byu.edu", Time::from_ymd(2014, 6, 1)).is_err());
    }

    #[test]
    fn caching_returns_identical_chain() {
        let f = factory_for("Bitdefender");
        let a = f.substitute_chain("h.example", dst(), None);
        let b = f.substitute_chain("h.example", dst(), None);
        assert_eq!(a[0].to_der(), b[0].to_der());
        assert_eq!(f.minted(), 1);
        f.substitute_chain("other.example", dst(), None);
        assert_eq!(f.minted(), 2);
    }

    #[test]
    fn minted_counts_distinct_chains_exactly_under_concurrent_misses() {
        // The mint counter's exactness contract: stampeding threads
        // racing on overlapping hosts must produce exactly one mint per
        // distinct chain — no double-mints (the memo mints each key
        // once, in its own cell), no undercounting.
        let f = std::sync::Arc::new(factory_for("Bitdefender"));
        let distinct_hosts = 12;
        std::thread::scope(|s| {
            for t in 0..8 {
                let f = f.clone();
                s.spawn(move || {
                    for i in 0..distinct_hosts * 4 {
                        // Every thread walks the same host set, offset so
                        // misses collide from different starting points.
                        let h = format!("c{}.example", (i + t) % distinct_hosts);
                        f.substitute_chain(&h, dst(), None);
                    }
                });
            }
        });
        assert_eq!(f.minted(), distinct_hosts, "one mint per distinct chain");
    }

    #[test]
    fn cached_entries_match_uncached_mints() {
        // The reference the process-wide cache is held to, now that every
        // study of either era reads whichever chain was minted first:
        // every lookup returns byte for byte what an uncached mint of its
        // own inputs returns, and a repeated key (another destination for
        // a host-only product, or a later era) reads the entry minted
        // first. Covers every product of both eras on a host of each
        // era's catalog, a wildcard-IP product toward two destination
        // /24s and an issuer-copying product behind two upstream issuers.
        let cache = Arc::new(SubstituteCache::unbounded());
        let factories: Vec<SubstituteFactory> = catalog()
            .into_iter()
            .enumerate()
            .filter(|(_, spec)| spec.w1 > 0.0 || spec.w2 > 0.0)
            .map(|(i, spec)| SubstituteFactory::new(ProductId(i as u16), spec, cache.clone()))
            .collect();
        let dsts = [Ipv4([203, 0, 113, 9]), Ipv4([198, 51, 100, 7])];
        let upstream =
            [upstream_leaf("DigiCert High Assurance CA-3"), upstream_leaf("DigiCert Global CA")];
        let ders = |chain: &[Certificate]| -> Vec<Vec<u8>> {
            chain.iter().map(|c| c.to_der().to_vec()).collect()
        };
        let mut minted: std::collections::HashMap<SubstituteKey, Arc<Vec<Certificate>>> =
            std::collections::HashMap::new();
        let (mut wildcard_keys, mut copied_keys) = (0, 0);
        for (era, host) in [
            (StudyEra::Study1, "tlsresearch.byu.edu"),
            (StudyEra::Study2, "tlsresearch.byu.edu"),
            (StudyEra::Study2, "qq.com"),
        ] {
            for f in factories.iter().filter(|f| f.spec.era_weight(era) > 0.0) {
                let inputs: Vec<(Ipv4, Option<&Certificate>)> = if f.spec.copy_issuer {
                    upstream.iter().map(|up| (dsts[0], Some(up))).collect()
                } else {
                    dsts.iter().map(|&dst| (dst, None)).collect()
                };
                for (dst, up) in inputs {
                    let entry = f.substitute_entry(host, dst, up);
                    let variant = f.mint_variant(dst, up);
                    let key = SubstituteKey { product: f.product, host: host.to_string(), variant };
                    assert_eq!(
                        ders(&entry.chain),
                        ders(&f.mint(host, dst, up, variant)),
                        "{key:?} toward {dst:?}"
                    );
                    if let Some(first) = minted.get(&key) {
                        assert!(Arc::ptr_eq(first, &entry.chain), "{key:?} was minted twice");
                        continue;
                    }
                    wildcard_keys += usize::from(variant != 0 && !f.spec.copy_issuer);
                    copied_keys += usize::from(variant != 0 && f.spec.copy_issuer);
                    minted.insert(key, entry.chain);
                }
            }
        }
        assert!(wildcard_keys >= 2 && copied_keys >= 2, "{wildcard_keys} and {copied_keys}");
        assert_eq!(cache.len(), minted.len(), "one entry per distinct key");
        assert_eq!(cache.stats().1 as usize, minted.len(), "one mint per distinct key");
    }

    #[test]
    fn only_issuer_copying_products_read_the_upstream_leaf() {
        // The proxy parses the upstream leaf only for issuer-copying
        // products. That is exact because every other product serves
        // the same cached entry with or without the leaf.
        let cache = Arc::new(SubstituteCache::unbounded());
        let leaf = upstream_leaf("DigiCert High Assurance CA-3");
        let mut products = 0;
        for (i, spec) in catalog().into_iter().enumerate().filter(|(_, s)| !s.copy_issuer) {
            let f = SubstituteFactory::new(ProductId(i as u16), spec, cache.clone());
            let blind = f.substitute_entry("tlsresearch.byu.edu", dst(), None);
            let shown = f.substitute_entry("tlsresearch.byu.edu", dst(), Some(&leaf));
            let name = f.spec.display_name();
            assert!(Arc::ptr_eq(&blind.chain, &shown.chain), "{name}: the leaf moved the chain");
            assert!(Arc::ptr_eq(&blind.config, &shown.config), "{name}: the leaf moved the config");
            products += 1;
        }
        assert!(products > 20, "only {products} products checked");
    }

    #[test]
    fn issuer_org_matches_spec() {
        let f = factory_for("Bitdefender");
        let chain = f.substitute_chain("h.example", dst(), None);
        assert_eq!(chain[0].tbs.issuer.organization(), Some("Bitdefender"));
        assert_eq!(chain[0].key_bits(), 1024); // the §5.2 downgrade
    }

    #[test]
    fn null_issuer_product_mints_empty_issuer() {
        let f = factory_for("Null");
        let chain = f.substitute_chain("h.example", dst(), None);
        assert!(chain[0].tbs.issuer.is_empty());
    }

    #[test]
    fn iopfail_shares_one_512bit_md5_key() {
        let f = factory_for("IopFailZeroAccessCreate");
        let a = f.substitute_chain("a.example", dst(), None);
        let b = f.substitute_chain("b.example", dst(), None);
        assert_eq!(a[0].key_bits(), 512);
        assert_eq!(a[0].signature_alg, SignatureAlgorithm::Md5WithRsa);
        // Same public key on every substitute — the paper's fingerprint.
        assert_eq!(a[0].tbs.spki.key, b[0].tbs.spki.key);
        assert_eq!(a[0].tbs.issuer.common_name(), Some("IopFailZeroAccessCreate"));
        assert_eq!(a[0].tbs.issuer.organization(), None);
    }

    #[test]
    fn non_shared_products_use_multiple_leaf_keys() {
        let f = factory_for("Bitdefender");
        let hosts = [
            "a.example",
            "b.example",
            "c.example",
            "d.example",
            "e.example",
            "f.example",
            "g.example",
            "h.example",
        ];
        let mut keys = std::collections::HashSet::new();
        for h in hosts {
            keys.insert(format!("{:?}", f.substitute_chain(h, dst(), None)[0].tbs.spki.key));
        }
        assert!(keys.len() > 1, "expected key pool > 1, got {}", keys.len());
    }

    #[test]
    fn digicert_forger_copies_upstream_issuer() {
        // A fake upstream cert issued by "DigiCert High Assurance CA-3":
        // the forger must copy that issuer verbatim.
        let upstream = upstream_leaf("DigiCert High Assurance CA-3");
        let f = factory_for("DigiCert Inc");
        let chain = f.substitute_chain("tlsresearch.byu.edu", dst(), Some(&upstream));
        assert_eq!(chain[0].tbs.issuer, upstream.tbs.issuer, "issuer must be copied verbatim");
        // But the signature is NOT DigiCert's — it's the proxy's root.
        let upstream_ca = keys::keypair(999_001, 512);
        assert!(chain[0].verify_signature_with(&upstream_ca.public).is_err());
        assert!(chain[0].verify_signature_with(&f.root_public().clone()).is_ok());
    }

    #[test]
    fn distinct_mint_variants_get_distinct_serials() {
        // A wildcard-IP product minting the same host toward two
        // destinations produces two different certificates; they must
        // not share a serial under the one issuing root (RFC 5280).
        let f = factory_for("PerimeterWatch");
        let a = f.substitute_chain("h.example", Ipv4([203, 0, 113, 9]), None);
        let b = f.substitute_chain("h.example", Ipv4([198, 51, 100, 7]), None);
        assert_eq!(f.minted(), 2, "different /24s must be distinct cache slots");
        assert_ne!(a[0].tbs.subject, b[0].tbs.subject);
        assert_ne!(a[0].tbs.serial, b[0].tbs.serial);
    }

    #[test]
    fn wildcard_ip_subject_covers_subnet_not_host() {
        let f = factory_for("PerimeterWatch");
        assert_eq!(f.spec().subject_style, SubjectStyle::WildcardIpSubnet);
        let chain = f.substitute_chain("h.example", Ipv4([203, 0, 113, 9]), None);
        let leaf = &chain[0];
        assert!(!leaf.matches_host("h.example"), "wildcard-IP subject must mismatch");
        assert!(leaf.tbs.subject.common_name().unwrap().starts_with("*.203.0.113"));
    }

    #[test]
    fn wrong_domain_products_issue_for_other_domains() {
        let f = factory_for("Misissued Relay A");
        let chain = f.substitute_chain("tlsresearch.byu.edu", dst(), None);
        assert!(chain[0].matches_host("mail.google.com"));
        assert!(!chain[0].matches_host("tlsresearch.byu.edu"));
    }

    #[test]
    fn tweaked_subject_still_matches_host() {
        let f = factory_for("Annotating Middlebox");
        let chain = f.substitute_chain("h.example", dst(), None);
        assert!(chain[0].matches_host("h.example"));
        assert_eq!(chain[0].tbs.subject.organizational_unit(), Some("content-filtered"));
    }

    #[test]
    fn overachiever_has_2432_bit_key() {
        let f = factory_for("Overachiever Security");
        let chain = f.substitute_chain("h.example", dst(), None);
        assert_eq!(chain[0].key_bits(), 2432);
    }

    #[test]
    fn sha256_product_signs_sha256() {
        let f = factory_for("ModernTLS Gateway");
        let chain = f.substitute_chain("h.example", dst(), None);
        assert_eq!(chain[0].signature_alg, SignatureAlgorithm::Sha256WithRsa);
    }
}
