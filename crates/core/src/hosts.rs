//! The probed-host catalog (Table 1).
//!
//! Study 1 probed only the authors' server; study 2 added 17 hosts from
//! the Alexa top million that served permissive Flash socket-policy
//! files, split into Popular / Business / Pornographic categories. Each
//! host gets a fixed simulator address, a legitimate certificate chain
//! issued by the simulated web PKI, the PEM upload body of that chain,
//! and a per-category completion rate (derived from Table 8: clients
//! with slow connections completed only a subset of the parallel probes
//! — §4.2).
//!
//! Hosts, chains and the PKI are constants, so each of the three
//! catalogs (study 1, study 2, baseline) is built once per process, on
//! first use, and every [`HostCatalog`] is a cheap handle on it. One CA
//! certificate signs every host of every catalog, and one public
//! [`RootStore`] holds it.

use std::sync::{Arc, OnceLock};

use tlsfoe_netsim::Ipv4;
use tlsfoe_population::keys;
use tlsfoe_population::model::StudyEra;
use tlsfoe_x509::name::NameBuilder;
use tlsfoe_x509::time::Time;
use tlsfoe_x509::{pem, Certificate, CertificateBuilder, RootStore};

/// Host categories as the paper names them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum HostCategory {
    /// Alexa top-25,000 sites.
    Popular,
    /// Commercial sites unlikely to be blocked at work.
    Business,
    /// Pornographic sites (expected to be filtered).
    Pornographic,
    /// The authors' measurement server.
    Authors,
    /// Facebook-class mega-site (baseline methodology only; NOT part of
    /// the paper's 18 probe targets).
    MegaPopular,
}

impl HostCategory {
    /// Label as Table 8 prints it.
    pub fn label(self) -> &'static str {
        match self {
            HostCategory::Popular => "Popular",
            HostCategory::Business => "Business",
            HostCategory::Pornographic => "Pornographic",
            HostCategory::Authors => "Authors'",
            HostCategory::MegaPopular => "MegaPopular",
        }
    }

    /// Per-host probe completion probability, calibrated from Table 8
    /// (measurements per host ÷ impressions).
    pub fn completion_rate(self) -> f64 {
        match self {
            HostCategory::Authors => 0.463,
            HostCategory::Popular => 0.168,
            HostCategory::Business => 0.070,
            HostCategory::Pornographic => 0.118,
            HostCategory::MegaPopular => 0.463,
        }
    }
}

/// One probed host.
#[derive(Debug, Clone)]
pub struct ProbeHost {
    /// Hostname.
    pub name: &'static str,
    /// Category.
    pub category: HostCategory,
    /// Simulator address.
    pub ip: Ipv4,
    /// The genuine chain this host serves (leaf first, incl. root).
    pub chain: Vec<Certificate>,
    /// The concatenated PEM encoding of `chain`: the §3.2 upload body of
    /// every probe that captures the genuine chain. Such an upload
    /// borrows it, and the report server compares an upload with it to
    /// recognise the unproxied case without its memo.
    pub body: Vec<u8>,
}

/// A probed-host catalog plus the simulated web PKI's root store: a
/// cheap handle on a catalog built once per process.
#[derive(Clone)]
pub struct HostCatalog {
    /// All hosts, authors' server first (probe order, §4.2).
    pub hosts: &'static [ProbeHost],
    /// Public CA roots (what clean clients and validating proxies trust).
    pub public_roots: Arc<RootStore>,
    /// The reporting server's address (same machine as the authors' host).
    pub report_server: Ipv4,
}

/// Table 1's host names by category (plus the authors' server).
pub const TABLE1: &[(&str, HostCategory)] = &[
    ("tlsresearch.byu.edu", HostCategory::Authors),
    // Popular (Alexa top 25,000) — six sites.
    ("qq.com", HostCategory::Popular),
    ("promodj.com", HostCategory::Popular),
    ("idwebgame.com", HostCategory::Popular),
    ("parsnews.com", HostCategory::Popular),
    ("idgameland.com", HostCategory::Popular),
    ("vcp.ir", HostCategory::Popular),
    // Business — five sites.
    ("airdroid.com", HostCategory::Business),
    ("webhost1.ru", HostCategory::Business),
    ("restaurantesecia.com.br", HostCategory::Business),
    ("speedtest.net.in", HostCategory::Business),
    ("iprank.ir", HostCategory::Business),
    // Pornographic — five sites.
    ("pornclipstv.com", HostCategory::Pornographic),
    ("porno-be.com", HostCategory::Pornographic),
    ("pornbasetube.com", HostCategory::Pornographic),
    ("pornozip.net", HostCategory::Pornographic),
    ("pornorasskazov.net", HostCategory::Pornographic),
];

/// The baseline methodology's single target (§8 / Huang et al.).
pub const BASELINE_HOST: (&str, HostCategory) = ("www.facebook.com", HostCategory::MegaPopular);

/// The simulated commercial CA's key spec — one source shared by
/// [`web_pki`] and [`prewarm_key_specs`], so the prewarm can never drift
/// from what the build actually generates.
const CA_KEY_SPEC: (u64, usize) = (keys::server_seed(9_999), 1024);

/// Key spec for the `i`-th host of a catalog whose seeds start at
/// `base` (same sharing rationale as [`CA_KEY_SPEC`]).
fn host_key_spec(base: u16, i: usize) -> (u64, usize) {
    (keys::server_seed(base + i as u16), 2048)
}

/// Host-seed namespace offset: the baseline catalog must not alias the
/// paper catalogs' server keys.
fn catalog_seed_base(baseline: bool) -> u16 {
    if baseline {
        150
    } else {
        1
    }
}

/// The catalog entries a `(baseline, era)` study probes — the selection
/// [`HostCatalog::study1`]/[`study2`](HostCatalog::study2)/
/// [`baseline`](HostCatalog::baseline) build from.
fn catalog_entries(baseline: bool, era: StudyEra) -> &'static [(&'static str, HostCategory)] {
    static BASELINE_ENTRIES: [(&str, HostCategory); 1] = [BASELINE_HOST];
    if baseline {
        &BASELINE_ENTRIES
    } else if era == StudyEra::Study1 {
        &TABLE1[..1]
    } else {
        TABLE1
    }
}

/// The `(seed, bits)` key specs a `(baseline, era)` study touches
/// beyond its products' roots: the catalog build's CA key and one
/// 2048-bit server key per probed host, plus the product leaf keys those
/// hosts select (`tlsfoe_population::keys::leaf_key_specs` — one pool
/// slot per era-active product and host, never a slot no host selects).
/// `run_study` warms these together with the era's roots
/// (`tlsfoe_population::keys::product_key_specs`) in one parallel
/// `tlsfoe_population::keys::warm_keys` pass, so neither the process's
/// first catalog build nor an interception inside a drive generates a
/// key serially. Derived from the same private constants the build
/// consumes (`CA_KEY_SPEC`, `host_key_spec`, `catalog_entries`).
pub fn prewarm_key_specs(baseline: bool, era: StudyEra) -> Vec<(u64, usize)> {
    let base = catalog_seed_base(baseline);
    let entries = catalog_entries(baseline, era);
    let mut specs = vec![CA_KEY_SPEC];
    specs.extend((0..entries.len()).map(|i| host_key_spec(base, i)));
    let hosts: Vec<&str> = entries.iter().map(|&(name, _)| name).collect();
    specs.extend(keys::leaf_key_specs(era, &hosts));
    specs
}

/// The simulated web PKI: one commercial CA, which signs every catalog
/// host's certificate, and the public root store that holds it.
struct WebPki {
    ca_cert: Certificate,
    roots: Arc<RootStore>,
}

/// The process's one web PKI, built on first use.
fn web_pki() -> &'static WebPki {
    static PKI: OnceLock<WebPki> = OnceLock::new();
    PKI.get_or_init(|| {
        // "DigiCert High Assurance CA-3" signed the authors' real cert.
        let ca_key = keys::keypair(CA_KEY_SPEC.0, CA_KEY_SPEC.1);
        let ca_name = NameBuilder::new()
            .country("US")
            .organization("DigiCert Inc")
            .common_name("DigiCert High Assurance CA-3")
            .build();
        let ca_cert = CertificateBuilder::new()
            .serial_u64(1)
            .subject(ca_name)
            .validity(Time::from_ymd(2010, 1, 1), Time::from_ymd(2025, 1, 1))
            .ca(None)
            .self_sign(&ca_key)
            .expect("CA self-sign");
        let mut roots = RootStore::new();
        roots.add_factory_root(ca_cert.clone());
        WebPki { ca_cert, roots: Arc::new(roots) }
    })
}

impl WebPki {
    /// Issue every host a `(baseline, era)` study probes its chain.
    fn issue(&self, baseline: bool, era: StudyEra) -> Vec<ProbeHost> {
        let ca_key = keys::keypair(CA_KEY_SPEC.0, CA_KEY_SPEC.1);
        let base = catalog_seed_base(baseline);
        catalog_entries(baseline, era)
            .iter()
            .enumerate()
            .map(|(i, &(name, category))| {
                let (leaf_seed, leaf_bits) = host_key_spec(base, i);
                let leaf_key = keys::keypair(leaf_seed, leaf_bits);
                let leaf = CertificateBuilder::new()
                    .serial_u64(1000 + base as u64 + i as u64)
                    .issuer(self.ca_cert.tbs.subject.clone())
                    .subject(
                        NameBuilder::new()
                            .country("US")
                            .organization(name)
                            .common_name(name)
                            .build(),
                    )
                    .validity(Time::from_ymd(2013, 1, 1), Time::from_ymd(2016, 1, 1))
                    .san_dns(&[name])
                    .sign(&leaf_key.public, &ca_key)
                    .expect("host leaf sign");
                let chain = vec![leaf, self.ca_cert.clone()];
                let body = pem::encode_certificates(&chain).into_bytes();
                ProbeHost { name, category, ip: Ipv4([203, 0, 113, 10 + i as u8]), chain, body }
            })
            .collect()
    }
}

impl HostCatalog {
    /// The study-1 catalog (authors' host only).
    pub fn study1() -> HostCatalog {
        Self::for_study(false, StudyEra::Study1)
    }

    /// The study-2 catalog (all 18 hosts).
    pub fn study2() -> HostCatalog {
        Self::for_study(false, StudyEra::Study2)
    }

    /// The baseline catalog (facebook only, Huang methodology).
    pub fn baseline() -> HostCatalog {
        Self::for_study(true, StudyEra::Study1)
    }

    /// The catalog a `(baseline, era)` study probes: its hosts are issued
    /// on the process's first call and shared by every later handle.
    pub(crate) fn for_study(baseline: bool, era: StudyEra) -> HostCatalog {
        static STUDY1: OnceLock<Vec<ProbeHost>> = OnceLock::new();
        static STUDY2: OnceLock<Vec<ProbeHost>> = OnceLock::new();
        static BASELINE: OnceLock<Vec<ProbeHost>> = OnceLock::new();
        let hosts = match (baseline, era) {
            (true, _) => &BASELINE,
            (false, StudyEra::Study1) => &STUDY1,
            (false, StudyEra::Study2) => &STUDY2,
        };
        let pki = web_pki();
        let hosts = hosts.get_or_init(|| pki.issue(baseline, era));
        let report_server = Ipv4([203, 0, 113, 9]);
        HostCatalog { hosts, public_roots: pki.roots.clone(), report_server }
    }

    /// Find a host by name.
    pub fn host(&self, name: &str) -> Option<&ProbeHost> {
        self.hosts.iter().find(|h| h.name == name)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn table1_shape() {
        // 1 authors + 6 popular + 5 business + 5 porn = 17 probed hosts
        // (the 16 Table-1 sites + the authors' server; §4.2 notes "at
        // most 17 of these sites were queried by a single served
        // instance").
        assert_eq!(TABLE1.len(), 17);
        let count = |cat| TABLE1.iter().filter(|(_, c)| *c == cat).count();
        assert_eq!(count(HostCategory::Authors), 1);
        assert_eq!(count(HostCategory::Popular), 6);
        assert_eq!(count(HostCategory::Business), 5);
        assert_eq!(count(HostCategory::Pornographic), 5);
    }

    #[test]
    fn study1_has_single_host() {
        let c = HostCatalog::study1();
        assert_eq!(c.hosts.len(), 1);
        assert_eq!(c.hosts[0].name, "tlsresearch.byu.edu");
        assert_eq!(c.hosts[0].category, HostCategory::Authors);
    }

    #[test]
    fn study2_hosts_have_distinct_ips() {
        let c = HostCatalog::study2();
        let mut ips: Vec<_> = c.hosts.iter().map(|h| h.ip).collect();
        ips.sort();
        ips.dedup();
        assert_eq!(ips.len(), c.hosts.len());
        assert!(!ips.contains(&c.report_server));
    }

    #[test]
    fn legitimate_chains_validate_against_public_roots() {
        let c = HostCatalog::study2();
        for h in c.hosts {
            c.public_roots
                .validate(&h.chain, h.name, Time::from_ymd(2014, 10, 10))
                .unwrap_or_else(|e| panic!("{}: {e}", h.name));
        }
    }

    #[test]
    fn authors_host_probed_first() {
        let c = HostCatalog::study2();
        assert_eq!(c.hosts[0].category, HostCategory::Authors);
    }

    #[test]
    fn completion_rates_are_probabilities() {
        for cat in [
            HostCategory::Popular,
            HostCategory::Business,
            HostCategory::Pornographic,
            HostCategory::Authors,
            HostCategory::MegaPopular,
        ] {
            let r = cat.completion_rate();
            assert!((0.0..=1.0).contains(&r));
        }
        // The authors' host (probed first, alone) completes most often.
        assert!(HostCategory::Authors.completion_rate() > HostCategory::Business.completion_rate());
    }

    #[test]
    fn baseline_catalog_is_facebook_only() {
        let c = HostCatalog::baseline();
        assert_eq!(c.hosts.len(), 1);
        assert_eq!(c.hosts[0].name, "www.facebook.com");
        assert_eq!(c.hosts[0].category, HostCategory::MegaPopular);
    }

    #[test]
    fn catalogs_are_built_once_per_process() {
        // Every handle on a catalog reads the one host table the process
        // built, and the three catalogs trust the one public root store.
        let (a, b) = (HostCatalog::study2(), HostCatalog::study2());
        assert!(std::ptr::eq(a.hosts, b.hosts), "study-2 handles must share one host table");
        for other in [HostCatalog::study1(), HostCatalog::baseline()] {
            assert!(Arc::ptr_eq(&a.public_roots, &other.public_roots));
        }
    }

    #[test]
    fn host_lookup() {
        let c = HostCatalog::study2();
        assert!(c.host("qq.com").is_some());
        assert!(c.host("not-probed.example").is_none());
    }
}
