//! The population model: who runs what, where.
//!
//! Encodes the paper's measured marginals as generative parameters:
//! per-country interception rates (the "Percent" columns of Tables 3
//! and 7) and the product mix (Table 4 weights with geographic biases).
//! The measurement pipeline must *recover* these numbers end-to-end.

use std::collections::HashSet;
use std::sync::{Arc, OnceLock};

use tlsfoe_crypto::drbg::RngCore64;
use tlsfoe_geo::countries::{self, CountryCode};
use tlsfoe_netsim::Ipv4;
use tlsfoe_x509::time::Time;
use tlsfoe_x509::{RootStore, VerifyMemo};

use crate::cache::SubstituteCache;
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
/// worker threads via `Arc` — the factories (and through them the
/// [`SubstituteCache`]) are the shared state that stops every thread
/// re-minting identical per-host substitutes.
pub struct PopulationModel {
    era: StudyEra,
    specs: Vec<ProductSpec>,
    factories: Vec<OnceLock<Arc<SubstituteFactory>>>,
    /// Minted substitute chains, shared by every factory of this model —
    /// by default the process-wide [`crate::cache::process_cache`], so
    /// chains are also shared *across* models/studies of one process
    /// (keyed by `(product, era, host, variant)` — see [`crate::cache`]).
    substitutes: Arc<SubstituteCache>,
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
    /// [`crate::cache::process_cache`]: a second model of the same era
    /// (another study in the same run, `exp_all`'s boosted re-runs)
    /// reuses every chain the first one minted instead of re-signing it.
    /// Tests and benches that assert exact cache accounting should use
    /// [`PopulationModel::with_private_cache`].
    pub fn new(era: StudyEra, public_roots: Arc<RootStore>) -> PopulationModel {
        Self::with_cache(era, public_roots, crate::cache::process_cache())
    }

    /// Like [`PopulationModel::new`], but minting into a fresh cache
    /// private to this model — for tests/benches that count mints or
    /// measure cold-mint cost, and for the per-study ablation knob
    /// (`StudyConfig::private_substitute_cache` in `tlsfoe_core`).
    pub fn with_private_cache(era: StudyEra, public_roots: Arc<RootStore>) -> PopulationModel {
        Self::with_cache(era, public_roots, Arc::new(SubstituteCache::unbounded()))
    }

    fn with_cache(
        era: StudyEra,
        public_roots: Arc<RootStore>,
        substitutes: Arc<SubstituteCache>,
    ) -> PopulationModel {
        public_roots.warm_verify_ctxs();
        let specs = products::catalog();
        let factories = specs.iter().map(|_| OnceLock::new()).collect();
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
            factories,
            substitutes,
            popular_whitelist: Arc::new(popular),
            public_roots,
            verify_memo: Arc::new(VerifyMemo::default()),
            now: match era {
                StudyEra::Study1 => Time::from_ymd(2014, 1, 15),
                StudyEra::Study2 => Time::from_ymd(2014, 10, 10),
            },
        }
    }

    /// The shared substitute-chain cache (for stats and tests).
    pub fn substitute_cache(&self) -> &SubstituteCache {
        &self.substitutes
    }

    /// The product catalog in use.
    pub fn specs(&self) -> &[ProductSpec] {
        &self.specs
    }

    /// The era's validation timestamp.
    pub fn now(&self) -> Time {
        self.now
    }

    /// The mega-popular host set (for baseline experiments).
    pub fn popular_hosts(&self) -> Arc<HashSet<String>> {
        self.popular_whitelist.clone()
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

    /// Pre-mint every deterministic variant-0 substitute chain for
    /// `hosts` across up to `threads` OS threads — the mint-path sibling
    /// of `tlsfoe_population::keys::warm_keys`.
    ///
    /// Enumerates the `(product, era, host)` chains a study run can
    /// request lazily: every product active in this era whose mint is a
    /// function of the hostname alone
    /// ([`ProductSpec::mints_from_host_alone`] — wildcard-IP and
    /// issuer-copying products also fold per-connection inputs into the
    /// cache variant, so their chains cannot be enumerated up front),
    /// skipping `(product, host)` pairs the product whitelists (those
    /// splice and never mint). Each chain is minted exactly once into the
    /// model-wide [`SubstituteCache`] under its real key, so the session
    /// hot path turns misses (one root-key RSA signature each, which every
    /// racing lookup of that chain waits on) into hits.
    ///
    /// Determinism: chains are pure functions of their cache key (the
    /// [`crate::cache`] contract), so warming changes *when* signatures
    /// are paid — never a byte of study output, at any thread count.
    /// Mint accounting stays exact: prewarmed chains count toward their
    /// factory's [`crate::SubstituteFactory::minted`] exactly once, and
    /// later sessions hit the cache instead of re-minting.
    pub fn warm_substitutes(&self, hosts: &[&str], threads: usize) {
        // The destination address is irrelevant for host-only mints (only
        // wildcard-IP subjects read it, and they are excluded above).
        let dst = Ipv4([0, 0, 0, 0]);
        crate::par_for_each(&self.warmable_chains(hosts), threads, |&(product, host)| {
            self.factory(product).substitute_entry(host, dst, None);
        });
    }

    /// Number of `(product, host)` chains
    /// [`warm_substitutes`](Self::warm_substitutes) would mint for
    /// `hosts` — the exact-accounting denominator for tests and
    /// `exp_perf`. Shares the private `warmable_chains` enumeration with
    /// the warm itself, so the two can never disagree about what counts.
    pub fn warm_substitute_count(&self, hosts: &[&str]) -> usize {
        self.warmable_chains(hosts).len()
    }

    /// The one enumeration both [`warm_substitutes`]
    /// (`PopulationModel::warm_substitutes`) and
    /// [`warm_substitute_count`](Self::warm_substitute_count) consume:
    /// every era-active, host-only-minting product paired with every
    /// host it would not whitelist.
    fn warmable_chains<'a>(&self, hosts: &[&'a str]) -> Vec<(ProductId, &'a str)> {
        self.specs
            .iter()
            .enumerate()
            .filter(|(_, spec)| spec.era_weight(self.era) > 0.0 && spec.mints_from_host_alone())
            .flat_map(|(i, spec)| {
                hosts
                    .iter()
                    .filter(|host| {
                        !(spec.whitelists_popular && self.popular_whitelist.contains(**host))
                    })
                    .map(move |&host| (ProductId(i as u16), host))
            })
            .collect()
    }

    /// The (lazily built, shared) substitute factory for a product.
    ///
    /// Built at most once per model — `OnceLock` blocks racing threads —
    /// and wired to the model-wide substitute cache, so concurrent
    /// worker threads share both the factory's key material and every
    /// chain it mints.
    pub fn factory(&self, product: ProductId) -> Arc<SubstituteFactory> {
        self.factories[product.0 as usize]
            .get_or_init(|| {
                Arc::new(SubstituteFactory::with_cache(
                    product,
                    self.specs[product.0 as usize].clone(),
                    self.era,
                    self.substitutes.clone(),
                ))
            })
            .clone()
    }

    /// Build the interceptor to install for a client running `product`.
    pub fn make_proxy(&self, product: ProductId) -> TlsProxy {
        let spec = &self.specs[product.0 as usize];
        let whitelist = if spec.whitelists_popular {
            self.popular_whitelist.clone()
        } else {
            Arc::new(HashSet::new())
        };
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
    use tlsfoe_crypto::drbg::Drbg;
    use tlsfoe_geo::countries::by_code;

    fn model(era: StudyEra) -> PopulationModel {
        PopulationModel::new(era, Arc::new(RootStore::new()))
    }

    /// A model with a cache private to the test — exact `len()`/`stats()`
    /// assertions would race with every other test minting into the
    /// process-wide cache.
    fn private_model(era: StudyEra) -> PopulationModel {
        PopulationModel::with_private_cache(era, Arc::new(RootStore::new()))
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
        let m = model(StudyEra::Study1);
        let a = m.factory(ProductId(0));
        let b = m.factory(ProductId(0));
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn model_is_shareable_across_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PopulationModel>();
    }

    #[test]
    fn factories_share_the_model_cache() {
        use tlsfoe_netsim::Ipv4;
        let m = private_model(StudyEra::Study1);
        let f0 = m.factory(ProductId(0));
        let f1 = m.factory(ProductId(1));
        f0.substitute_chain("shared.example", Ipv4([203, 0, 113, 2]), None);
        f1.substitute_chain("shared.example", Ipv4([203, 0, 113, 2]), None);
        // Both mints landed in the one model-wide cache, under distinct
        // per-product keys.
        assert_eq!(m.substitute_cache().len(), 2);
    }

    #[test]
    fn warm_substitutes_mints_each_chain_exactly_once() {
        use tlsfoe_netsim::Ipv4;
        let m = private_model(StudyEra::Study1);
        let hosts = ["warm-a.example", "warm-b.example"];
        let expected = m.warm_substitute_count(&hosts);
        assert!(expected > 0, "study 1 must have host-only minting products");
        m.warm_substitutes(&hosts, 4);
        assert_eq!(m.substitute_cache().len(), expected, "one cache slot per enumerated chain");
        let (_, misses) = m.substitute_cache().stats();
        assert_eq!(misses as usize, expected, "no double-mints during parallel warm");
        // Per-factory mint accounting covers exactly the warmed chains.
        let minted: usize = m
            .specs()
            .iter()
            .enumerate()
            .map(|(i, _)| m.factory(ProductId(i as u16)).minted())
            .sum();
        assert_eq!(minted, expected);
        // Idempotent: a second warm (and a session-path lookup) re-mints
        // nothing.
        m.warm_substitutes(&hosts, 4);
        let f = m.factory(ProductId(0));
        if m.specs()[0].mints_from_host_alone() {
            f.substitute_chain("warm-a.example", Ipv4([203, 0, 113, 5]), None);
        }
        let (_, misses_after) = m.substitute_cache().stats();
        assert_eq!(misses_after, misses, "re-warm or session hit must not re-mint");
    }

    #[test]
    fn warmed_chains_identical_to_lazy_mints() {
        use tlsfoe_netsim::Ipv4;
        // Prewarm must be observationally invisible: a warmed model and a
        // lazily-minting model produce byte-identical chains (chains are
        // pure functions of their cache key).
        let warm = private_model(StudyEra::Study1);
        let lazy = private_model(StudyEra::Study1);
        let host = "tlsresearch.byu.edu";
        warm.warm_substitutes(&[host], 2);
        for (i, spec) in warm.specs().iter().enumerate() {
            if spec.w1 == 0.0 || !spec.mints_from_host_alone() {
                continue;
            }
            let pid = ProductId(i as u16);
            // Session-path dst differs from the warm placeholder — chains
            // must not depend on it for host-only products.
            let dst = Ipv4([203, 0, 113, 77]);
            let warmed = warm.factory(pid).substitute_chain(host, dst, None);
            let fresh = lazy.factory(pid).substitute_chain(host, dst, None);
            assert_eq!(
                warmed.iter().map(|c| c.to_der().to_vec()).collect::<Vec<_>>(),
                fresh.iter().map(|c| c.to_der().to_vec()).collect::<Vec<_>>(),
                "{}",
                spec.display_name()
            );
        }
        // The session-path lookups above were all cache hits on the
        // warmed model: no new mints.
        assert_eq!(
            warm.substitute_cache().len(),
            warm.warm_substitute_count(&[host]),
            "session lookups after warm must hit, not re-mint"
        );
    }

    #[test]
    fn whitelisted_pairs_are_not_prewarmed() {
        let m = private_model(StudyEra::Study1);
        let whitelisting: Vec<usize> = m
            .specs()
            .iter()
            .enumerate()
            .filter(|(_, s)| s.w1 > 0.0 && s.whitelists_popular && s.mints_from_host_alone())
            .map(|(i, _)| i)
            .collect();
        assert!(!whitelisting.is_empty(), "catalog has whitelisting products");
        // A popular host is spliced (never minted) by whitelisting
        // products; prewarming it for them would inflate minted() with
        // chains no session can request.
        let popular = ["www.facebook.com"];
        let plain = ["not-popular.example"];
        let diff = m.warm_substitute_count(&plain) - m.warm_substitute_count(&popular);
        assert_eq!(diff, whitelisting.len());
        m.warm_substitutes(&popular, 2);
        assert_eq!(m.substitute_cache().len(), m.warm_substitute_count(&popular));
    }

    #[test]
    fn same_era_models_share_process_wide_chains() {
        use tlsfoe_netsim::Ipv4;
        // Two default-built models (think: two studies of one exp_all
        // run) must share minted chains through the process-wide cache:
        // the second model's factory never mints, it only reads. The
        // assertions ride the per-factory minted() counters — exact and
        // test-local even though the cache itself is shared process-wide.
        let host = "process-share.example";
        let dst = Ipv4([203, 0, 113, 11]);
        let first = model(StudyEra::Study1);
        let second = model(StudyEra::Study1);
        let a = first.factory(ProductId(0)).substitute_chain(host, dst, None);
        assert_eq!(first.factory(ProductId(0)).minted(), 1);
        let b = second.factory(ProductId(0)).substitute_chain(host, dst, None);
        assert_eq!(
            second.factory(ProductId(0)).minted(),
            0,
            "second model must reuse the first model's mint, not re-mint"
        );
        assert!(Arc::ptr_eq(&a, &b), "both models must serve the one cached chain");
        // A different era is a different key: the same host mints again.
        let other_era = model(StudyEra::Study2);
        other_era.factory(ProductId(0)).substitute_chain(host, dst, None);
        assert_eq!(other_era.factory(ProductId(0)).minted(), 1, "eras must not alias");
    }

    #[test]
    fn threads_minting_same_host_share_one_chain() {
        use tlsfoe_netsim::Ipv4;
        let m = Arc::new(private_model(StudyEra::Study2));
        let chains: Vec<Vec<u8>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let m = m.clone();
                    s.spawn(move || {
                        let f = m.factory(ProductId(0));
                        f.substitute_chain("race.example", Ipv4([203, 0, 113, 3]), None)[0]
                            .to_der()
                            .to_vec()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("minter panicked")).collect()
        });
        assert!(chains.windows(2).all(|w| w[0] == w[1]), "all threads must see one chain");
        let (_, misses) = m.substitute_cache().stats();
        assert_eq!(misses, 1, "chain must be minted exactly once");
    }
}
