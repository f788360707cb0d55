//! The population model: who runs what, where.
//!
//! Encodes the paper's measured marginals as generative parameters:
//! per-country interception rates (the "Percent" columns of Tables 3
//! and 7) and the product mix (Table 4 weights with geographic biases).
//! The measurement pipeline must *recover* these numbers end-to-end.
//!
//! A model holds no certificate machinery of its own:
//! [`PopulationModel::factory`] hands out the one process-wide factory
//! per catalog product ([`crate::factory`]), whose chains are cached
//! under `(product, host, variant)` keys ([`crate::cache`]), so models
//! of either era share every root and chain.

use std::collections::HashSet;
use std::sync::Arc;

use tlsfoe_crypto::drbg::RngCore64;
use tlsfoe_geo::countries::{self, CountryCode};
use tlsfoe_netsim::Ipv4;
use tlsfoe_x509::time::Time;
use tlsfoe_x509::{RootStore, VerifyMemo};

use crate::factory::SubstituteFactory;
use crate::products::{self, CountryBias, ProductId, ProductSpec};
use crate::proxy::TlsProxy;

/// Which study's population parameters to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StudyEra {
    /// January 2014: one probed host, global exposure.
    Study1,
    /// October 2014: 18 hosts, global + five targeted countries.
    Study2,
}

/// The five targeted countries of study 2.
pub const TARGETED: [&str; 5] = ["CN", "UA", "RU", "EG", "PK"];

/// One sampled client.
#[derive(Debug, Clone)]
pub struct ClientProfile {
    /// The client's country.
    pub country: CountryCode,
    /// The client's IP (from its country's geo block).
    pub ip: Ipv4,
    /// Interception product on this client's path, if any.
    pub product: Option<ProductId>,
}

/// The generative population model.
///
/// `Send + Sync`: one model is built per study run and shared across all
/// worker threads. The product factories it hands out
/// ([`PopulationModel::factory`]) are process-wide, so every model of
/// either era shares their roots and every chain they mint.
pub struct PopulationModel {
    era: StudyEra,
    specs: Vec<ProductSpec>,
    /// Mega-popular hosts that whitelist-capable products skip.
    popular_whitelist: Arc<HashSet<String>>,
    /// Trust store interception products use to validate upstream.
    public_roots: Arc<RootStore>,
    /// Memoized upstream-chain verdicts for `public_roots` — every proxy
    /// of this model shares it, so each distinct chain is fully
    /// validated once per study instead of once per session.
    verify_memo: Arc<VerifyMemo>,
    /// Validation time for proxies.
    now: Time,
}

impl PopulationModel {
    /// Build the model for an era.
    ///
    /// `public_roots` is the simulated web-PKI root set (products like
    /// Bitdefender validate upstream chains against it). Its anchor
    /// verification contexts are pre-warmed into the process-wide
    /// Montgomery cache here, since every proxy upstream validation will
    /// use them.
    ///
    /// Substitute chains mint into the process-wide
    /// [`crate::cache::process_cache`] through the process-wide factories:
    /// a later model of either era (another study in the same run,
    /// `exp_all`'s boosted re-runs) reuses every root and chain an
    /// earlier one built instead of re-signing it.
    pub fn new(era: StudyEra, public_roots: Arc<RootStore>) -> PopulationModel {
        public_roots.warm_verify_ctxs();
        let specs = products::catalog();
        let mut popular = HashSet::new();
        // The Facebook-class hosts of the era (none of the paper's 18
        // probe targets are in this class — §6.3's key point).
        for host in [
            "facebook.com",
            "www.facebook.com",
            "google.com",
            "www.google.com",
            "youtube.com",
            "twitter.com",
        ] {
            popular.insert(host.to_string());
        }
        PopulationModel {
            era,
            specs,
            popular_whitelist: Arc::new(popular),
            public_roots,
            verify_memo: Arc::new(VerifyMemo::default()),
            now: match era {
                StudyEra::Study1 => Time::from_ymd(2014, 1, 15),
                StudyEra::Study2 => Time::from_ymd(2014, 10, 10),
            },
        }
    }

    /// The product catalog in use.
    pub fn specs(&self) -> &[ProductSpec] {
        &self.specs
    }

    /// The era's validation timestamp.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Per-country interception probability — the ground truth the study
    /// estimates. Values are the Percent columns of Table 3 / Table 7.
    pub fn proxy_rate(&self, country: CountryCode) -> f64 {
        let code = countries::info(country).code;
        let named: &[(&str, f64)] = match self.era {
            StudyEra::Study1 => &[
                ("US", 0.0079),
                ("BR", 0.0068),
                ("FR", 0.0109),
                ("GB", 0.0029),
                ("RO", 0.0074),
                ("DE", 0.0027),
                ("CA", 0.0087),
                ("TR", 0.0046),
                ("IN", 0.0059),
                ("ES", 0.0036),
                ("RU", 0.0038),
                ("IT", 0.0015),
                ("KR", 0.0042),
                ("PT", 0.0062),
                ("PL", 0.0016),
                ("UA", 0.0026),
                ("BE", 0.0081),
                ("JP", 0.0035),
                ("NL", 0.0033),
                ("TW", 0.0017),
            ],
            StudyEra::Study2 => &[
                ("CN", 0.0002),
                ("UA", 0.0027),
                ("RU", 0.0040),
                ("KR", 0.0021),
                ("EG", 0.0056),
                ("PK", 0.0041),
                ("TR", 0.0048),
                ("US", 0.0086),
                ("JP", 0.0074),
                ("GB", 0.0077),
                ("BR", 0.0081),
                ("TW", 0.0028),
                ("RO", 0.0119),
                ("ID", 0.0044),
                ("DE", 0.0061),
                ("IT", 0.0050),
                ("GR", 0.0040),
                ("PL", 0.0036),
                ("CZ", 0.0031),
                ("IN", 0.0070),
            ],
        };
        for &(c, r) in named {
            if c == code {
                return r;
            }
        }
        // "Other" rows: 0.23% (study 1) / 0.70% (study 2).
        match self.era {
            StudyEra::Study1 => 0.0023,
            StudyEra::Study2 => 0.0070,
        }
    }

    /// Product weight for this era, adjusted by geographic bias.
    fn weight(&self, spec: &ProductSpec, country: CountryCode) -> f64 {
        let base = spec.era_weight(self.era);
        if base == 0.0 {
            return 0.0;
        }
        let code = countries::info(country).code;
        match spec.bias {
            CountryBias::Global => base,
            CountryBias::Boost(c, mult) => {
                if c == "targeted" {
                    if TARGETED.contains(&code) {
                        base * mult
                    } else {
                        base
                    }
                } else if c == code {
                    base * mult
                } else {
                    base
                }
            }
            CountryBias::Only(c) => {
                if c == code {
                    base * 1000.0
                } else {
                    0.0
                }
            }
        }
    }

    /// Sample which product intercepts a client in `country` (given that
    /// interception occurs).
    pub fn sample_product(&self, country: CountryCode, rng: &mut dyn RngCore64) -> ProductId {
        let weights: Vec<f64> = self.specs.iter().map(|s| self.weight(s, country)).collect();
        let total: f64 = weights.iter().sum();
        debug_assert!(total > 0.0, "no products available for era");
        let mut x = rng.gen_f64() * total;
        for (i, w) in weights.iter().enumerate() {
            x -= w;
            if x <= 0.0 {
                return ProductId(i as u16);
            }
        }
        ProductId((self.specs.len() - 1) as u16)
    }

    /// Sample a full client profile.
    pub fn sample_client(
        &self,
        country: CountryCode,
        ip: Ipv4,
        rng: &mut dyn RngCore64,
    ) -> ClientProfile {
        let product = if rng.gen_bool(self.proxy_rate(country)) {
            Some(self.sample_product(country, rng))
        } else {
            None
        };
        ClientProfile { country, ip, product }
    }

    /// True when the product operates from a single egress address (a
    /// corporate NAT — the "DSP" pattern: 204 connections, one Irish
    /// IP). Country-locked *telecoms* (LG UPLUS) intercept their own
    /// subscribers and therefore appear from many addresses.
    pub fn is_single_origin(&self, product: ProductId) -> bool {
        let spec = &self.specs[product.0 as usize];
        matches!(spec.bias, CountryBias::Only(_))
            && spec.category == crate::products::ProxyCategory::Organization
    }

    /// Build the factory of every product active in this era and
    /// pre-mint every deterministic variant-0 substitute chain for
    /// `hosts`, across up to `threads` OS threads — the mint-path sibling
    /// of `tlsfoe_population::keys::warm_keys`.
    ///
    /// Every era-active factory is built first, each self-signing its
    /// root, so no drive builds one. That includes the products whose
    /// chains cannot be enumerated: wildcard-IP and issuer-copying
    /// products fold per-connection inputs into the cache variant
    /// ([`ProductSpec::mints_from_host_alone`]), so a drive still mints
    /// their chains, but never their roots.
    ///
    /// Then it enumerates the `(product, host)` chains a study run can
    /// request lazily: every era-active product that mints from the
    /// hostname alone, paired with every host it would not whitelist
    /// (those splice and never mint). Each chain is minted exactly once
    /// into the process-wide [`crate::cache::process_cache`] under its
    /// real key, so the session hot path turns misses (one root-key RSA
    /// signature each, which every racing lookup of that chain waits on)
    /// into hits.
    ///
    /// Determinism: factories and chains are pure functions of their
    /// product and cache key (the [`crate::cache`] contract), so warming
    /// changes *when* signatures are paid — never a byte of study output,
    /// at any thread count.
    pub fn warm_substitutes(&self, hosts: &[&str], threads: usize) {
        let products: Vec<ProductId> = self.active_products().map(|(product, _)| product).collect();
        crate::par_for_each(&products, threads, |&product| drop(self.factory(product)));
        // The destination address is irrelevant for host-only mints (only
        // wildcard-IP subjects read it, and the enumeration excludes them).
        let dst = Ipv4([0, 0, 0, 0]);
        crate::par_for_each(&self.warmable_chains(hosts), threads, |&(product, host)| {
            self.factory(product).substitute_entry(host, dst, None);
        });
    }

    /// Every product active in this era: the ones its studies can
    /// sample, and so build factories for.
    fn active_products(&self) -> impl Iterator<Item = (ProductId, &ProductSpec)> {
        self.specs
            .iter()
            .enumerate()
            .filter(|(_, spec)| spec.era_weight(self.era) > 0.0)
            .map(|(i, spec)| (ProductId(i as u16), spec))
    }

    /// The chains [`warm_substitutes`](Self::warm_substitutes) mints:
    /// every era-active, host-only-minting product paired with every
    /// host it would not whitelist.
    fn warmable_chains<'a>(&self, hosts: &[&'a str]) -> Vec<(ProductId, &'a str)> {
        self.active_products()
            .filter(|(_, spec)| spec.mints_from_host_alone())
            .flat_map(|(product, spec)| {
                hosts
                    .iter()
                    .filter(|host| {
                        !(spec.whitelists_popular && self.popular_whitelist.contains(**host))
                    })
                    .map(move |&host| (product, host))
            })
            .collect()
    }

    /// The substitute factory for a product: the one process-wide
    /// factory of that catalog product, built on first use (`OnceLock`
    /// blocks racing threads), so every model and worker thread shares
    /// its root and every chain it mints.
    pub fn factory(&self, product: ProductId) -> Arc<SubstituteFactory> {
        crate::factory::slots()[product.0 as usize].factory()
    }

    /// Build the interceptor to install for a client running `product`.
    pub fn make_proxy(&self, product: ProductId) -> TlsProxy {
        let spec = &self.specs[product.0 as usize];
        let whitelist = spec.whitelists_popular.then(|| self.popular_whitelist.clone());
        TlsProxy::new(
            self.factory(product),
            self.public_roots.clone(),
            self.verify_memo.clone(),
            whitelist,
            self.now,
        )
    }

    /// The root store for a client: factory roots plus, if intercepted,
    /// the product's injected root (Figure 2c).
    pub fn client_root_store(&self, profile: &ClientProfile) -> RootStore {
        let mut store = RootStore::new();
        for (cert, _) in self.public_roots.iter().map(|(c, o)| (c.clone(), o)) {
            store.add_factory_root(cert);
        }
        if let Some(pid) = profile.product {
            store.inject_root(self.factory(pid).root_cert().clone());
        }
        store
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::cache::{process_cache, SubstituteKey};
    use tlsfoe_crypto::drbg::Drbg;
    use tlsfoe_geo::countries::by_code;
    use tlsfoe_x509::Certificate;

    fn model(era: StudyEra) -> PopulationModel {
        PopulationModel::new(era, Arc::new(RootStore::new()))
    }

    // The factories and the substitute cache are process-wide, and the
    // test harness runs this binary's tests in parallel, so mint counts
    // are not exact here. Each test below mints host names no other test
    // mints and asserts cache presence or `Arc::ptr_eq`; exact counts
    // live in `factory`'s tests, on fresh factories.

    fn key(product: ProductId, host: &str) -> SubstituteKey {
        SubstituteKey { product, host: host.to_string(), variant: 0 }
    }

    /// The process-wide cache's chain for `(product, host, 0)`, which
    /// must already be minted.
    fn cached(product: ProductId, host: &str) -> Arc<Vec<Certificate>> {
        process_cache()
            .get_or_insert_with(key(product, host), || panic!("{product:?} {host} is not cached"))
            .chain
    }

    #[test]
    fn rates_match_paper_tables() {
        let m1 = model(StudyEra::Study1);
        assert_eq!(m1.proxy_rate(by_code("US").unwrap()), 0.0079);
        assert_eq!(m1.proxy_rate(by_code("FR").unwrap()), 0.0109);
        assert_eq!(m1.proxy_rate(CountryCode(200)), 0.0023); // tail

        let m2 = model(StudyEra::Study2);
        assert_eq!(m2.proxy_rate(by_code("CN").unwrap()), 0.0002);
        assert_eq!(m2.proxy_rate(by_code("RO").unwrap()), 0.0119);
        assert_eq!(m2.proxy_rate(CountryCode(200)), 0.0070);
    }

    #[test]
    fn china_has_exceptionally_low_rate() {
        let m2 = model(StudyEra::Study2);
        let cn = m2.proxy_rate(by_code("CN").unwrap());
        let us = m2.proxy_rate(by_code("US").unwrap());
        assert!(us / cn > 40.0, "US {us} vs CN {cn}");
    }

    #[test]
    fn sampling_recovers_rate() {
        let m = model(StudyEra::Study1);
        let us = by_code("US").unwrap();
        let mut rng = Drbg::new(1);
        let n = 200_000;
        let proxied = (0..n)
            .filter(|_| m.sample_client(us, Ipv4([11, 0, 0, 1]), &mut rng).product.is_some())
            .count();
        let rate = proxied as f64 / n as f64;
        assert!((0.006..0.010).contains(&rate), "rate {rate}");
    }

    #[test]
    fn study1_never_samples_study2_only_products() {
        let m = model(StudyEra::Study1);
        let us = by_code("US").unwrap();
        let mut rng = Drbg::new(2);
        for _ in 0..2000 {
            let pid = m.sample_product(us, &mut rng);
            let spec = &m.specs()[pid.0 as usize];
            assert!(spec.w1 > 0.0, "{} sampled in study 1", spec.display_name());
        }
    }

    #[test]
    fn psafe_is_brazil_heavy() {
        let m = model(StudyEra::Study1);
        let br = by_code("BR").unwrap();
        let gb = by_code("GB").unwrap();
        let mut rng = Drbg::new(3);
        let count = |country, rng: &mut Drbg| {
            (0..3000)
                .filter(|_| {
                    let pid = m.sample_product(country, rng);
                    m.specs()[pid.0 as usize].display_name() == "PSafe Tecnologia S.A."
                })
                .count()
        };
        let in_br = count(br, &mut rng);
        let in_gb = count(gb, &mut rng);
        assert!(in_br > 3 * in_gb.max(1), "PSafe: BR {in_br} vs GB {in_gb}");
    }

    #[test]
    fn dsp_only_in_ireland() {
        let m = model(StudyEra::Study2);
        let ie = by_code("IE").unwrap();
        let us = by_code("US").unwrap();
        let mut rng = Drbg::new(4);
        let mut seen_in_ie = false;
        for _ in 0..5000 {
            let pid = m.sample_product(ie, &mut rng);
            if m.specs()[pid.0 as usize].issuer_cn == Some("DSP") {
                seen_in_ie = true;
                break;
            }
        }
        assert!(seen_in_ie, "DSP should dominate Irish interceptions");
        for _ in 0..5000 {
            let pid = m.sample_product(us, &mut rng);
            assert_ne!(
                m.specs()[pid.0 as usize].issuer_cn,
                Some("DSP"),
                "DSP must not appear outside IE"
            );
        }
    }

    #[test]
    fn client_store_gains_injected_root_when_proxied() {
        let m = model(StudyEra::Study1);
        let profile = ClientProfile {
            country: by_code("US").unwrap(),
            ip: Ipv4([11, 0, 0, 1]),
            product: Some(ProductId(0)),
        };
        let store = m.client_root_store(&profile);
        assert!(store.has_injected_roots());

        let clean = ClientProfile { product: None, ..profile };
        assert!(!m.client_root_store(&clean).has_injected_roots());
    }

    #[test]
    fn factories_are_shared() {
        // One factory per product per process: every model of either era
        // hands out the same one, so its root is self-signed once.
        let a = model(StudyEra::Study1).factory(ProductId(0));
        let b = model(StudyEra::Study1).factory(ProductId(0));
        let c = model(StudyEra::Study2).factory(ProductId(0));
        assert!(Arc::ptr_eq(&a, &b));
        assert!(Arc::ptr_eq(&a, &c), "the eras must share the factory");
    }

    #[test]
    fn model_is_shareable_across_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PopulationModel>();
    }

    #[test]
    fn factories_mint_into_the_process_cache() {
        let m = model(StudyEra::Study1);
        let host = "factories-share.example";
        for product in [ProductId(0), ProductId(1)] {
            m.factory(product).substitute_chain(host, Ipv4([203, 0, 113, 2]), None);
            // Each mint landed in the one process-wide cache, under its
            // own per-product key.
            assert!(process_cache().contains(&key(product, host)), "{product:?}");
        }
    }

    #[test]
    fn warm_substitutes_fills_the_chains_sessions_read() {
        let m = model(StudyEra::Study1);
        let hosts = ["warm-a.example", "warm-b.example"];
        let chains = m.warmable_chains(&hosts);
        assert!(!chains.is_empty(), "study 1 must have host-only minting products");
        m.warm_substitutes(&hosts, 4);
        let warmed: Vec<_> = chains.iter().map(|&(product, host)| cached(product, host)).collect();
        // Idempotent: a second warm re-mints nothing, and a session-path
        // lookup toward a real destination reads the very chain the warm
        // minted at its placeholder address (host-only chains do not
        // depend on it).
        m.warm_substitutes(&hosts, 4);
        for (&(product, host), chain) in chains.iter().zip(&warmed) {
            let session = m.factory(product).substitute_chain(host, Ipv4([203, 0, 113, 77]), None);
            assert!(Arc::ptr_eq(chain, &session), "{product:?} {host}");
        }
    }

    #[test]
    fn whitelisted_pairs_are_not_prewarmed() {
        let m = model(StudyEra::Study1);
        let whitelisting: Vec<ProductId> = m
            .specs()
            .iter()
            .enumerate()
            .filter(|(_, s)| s.w1 > 0.0 && s.whitelists_popular && s.mints_from_host_alone())
            .map(|(i, _)| ProductId(i as u16))
            .collect();
        assert!(!whitelisting.is_empty(), "catalog has whitelisting products");
        // A popular host is spliced (never minted) by whitelisting
        // products; prewarming it for them would mint chains no session
        // can request. No other test mints this host.
        let popular = "youtube.com";
        let diff =
            m.warmable_chains(&["not-popular.example"]).len() - m.warmable_chains(&[popular]).len();
        assert_eq!(diff, whitelisting.len());
        m.warm_substitutes(&[popular], 2);
        for (product, host) in m.warmable_chains(&[popular]) {
            assert!(process_cache().contains(&key(product, host)), "{product:?} not warmed");
        }
        for &product in &whitelisting {
            assert!(!process_cache().contains(&key(product, popular)), "{product:?} warmed");
        }
    }

    #[test]
    fn same_era_models_share_process_wide_chains() {
        // Two models (think: two studies of one exp_all run) must share
        // minted chains through the process-wide cache, and so must a
        // model of the other era: no mint input depends on the era.
        let host = "process-share.example";
        let dst = Ipv4([203, 0, 113, 11]);
        let chain = |era| model(era).factory(ProductId(0)).substitute_chain(host, dst, None);
        let first = chain(StudyEra::Study1);
        assert!(Arc::ptr_eq(&first, &chain(StudyEra::Study1)), "same-era models must share");
        assert!(Arc::ptr_eq(&first, &chain(StudyEra::Study2)), "the eras must share the chain");
    }

    #[test]
    fn threads_minting_same_host_share_one_chain() {
        let m = model(StudyEra::Study2);
        let chains: Vec<Arc<Vec<Certificate>>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        m.factory(ProductId(0)).substitute_chain(
                            "race.example",
                            Ipv4([203, 0, 113, 3]),
                            None,
                        )
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("minter panicked")).collect()
        });
        assert!(
            chains.windows(2).all(|w| Arc::ptr_eq(&w[0], &w[1])),
            "all threads must receive the one minted chain"
        );
    }
}
