//! Regression tests for the cached substitute `ServerConfig`.
//!
//! `answer_with_substitute` used to build a fresh `ServerConfig` (and
//! re-encode the hello flight) for every intercepted connection; the
//! config now rides the substitute cache next to its chain. These tests
//! assert, end to end through real proxied handshakes, that at most one
//! config is built per `(product, host, variant)` and that the cached
//! config serves byte-identical handshakes.
//!
//! This lives in its own integration-test binary on purpose: the config
//! counter (`tlsfoe::tls::server::configs_built`), the substitute cache's
//! stats and each product's mint count are process-wide, and a shared
//! test binary's concurrently running tests would race them.

use std::sync::Arc;

use tlsfoe::netsim::{Ipv4, Network, NetworkConfig};
use tlsfoe::population::model::{PopulationModel, StudyEra};
use tlsfoe::population::{cache, keys, ProductId};
use tlsfoe::tls::probe::{ProbeOutcome, ProbeState};
use tlsfoe::tls::server::{configs_built, ServerConfig, TlsCertServer};
use tlsfoe::tls::ProbeClient;
use tlsfoe::x509::{CertificateBuilder, NameBuilder, RootStore};

const SRV: Ipv4 = Ipv4([203, 0, 113, 1]);
const CLIENT: Ipv4 = Ipv4([11, 0, 0, 1]);

fn world(host: &str) -> (Network, PopulationModel) {
    let key = keys::keypair(0xC0F_F33, 1024);
    let leaf = CertificateBuilder::new()
        .subject(NameBuilder::new().common_name(host).build())
        .san_dns(&[host])
        .self_sign(&key)
        .unwrap();
    let model = PopulationModel::new(StudyEra::Study1, Arc::new(RootStore::new()));
    let mut net = Network::new(NetworkConfig::default(), 7);
    let cfg = ServerConfig::new(vec![leaf]);
    net.listen(SRV, 443, Box::new(move |_| Box::new(TlsCertServer::new(cfg.clone()))));
    (net, model)
}

fn product_named(model: &PopulationModel, name: &str) -> ProductId {
    ProductId(
        model.specs().iter().position(|s| s.display_name() == name).expect("product in catalog")
            as u16,
    )
}

fn probe(net: &mut Network, host: &str) -> Vec<Vec<u8>> {
    let outcome = ProbeOutcome::new();
    net.dial_from(
        CLIENT,
        SRV,
        443,
        Box::new(ProbeClient::new(host.to_owned(), [9u8; 32], outcome.clone())),
    )
    .unwrap();
    net.run().unwrap();
    let o = outcome.lock();
    assert_eq!(o.state, ProbeState::Done, "probe through the proxy must complete");
    o.chain_der.clone()
}

// One #[test] driving both properties: the default harness runs a
// binary's tests on parallel threads, and two tests snapshotting the
// process-wide counter would race each other's `ServerConfig::new`
// calls.
#[test]
fn at_most_one_server_config_per_substitute_key() {
    let (mut net, model) = world("cache.example");
    let pid = product_named(&model, "Sendori, Inc"); // Blind: no upstream validation
    net.install_interceptor(CLIENT, Box::new(model.make_proxy(pid)));

    let first = probe(&mut net, "cache.example");
    let configs_after_first_mint = configs_built();
    let minted_after_first = model.factory(pid).minted();
    assert_eq!(minted_after_first, 1, "first interception mints the chain");

    // Five more intercepted connections to the same host: every one must
    // be served from the cached entry — no new mint, no new config, and
    // byte-identical captured handshake chains.
    for _ in 0..5 {
        assert_eq!(probe(&mut net, "cache.example"), first, "handshake bytes must not drift");
    }
    assert_eq!(
        configs_built(),
        configs_after_first_mint,
        "answer_with_substitute rebuilt a ServerConfig for a cached chain"
    );
    assert_eq!(model.factory(pid).minted(), 1);
    let (hits, misses) = cache::process_cache().stats();
    assert_eq!(misses, 1);
    assert_eq!(hits, 5);

    // A different SNI host is a different cache key: exactly one more
    // mint and one more config.
    let other = probe(&mut net, "other.example");
    assert_ne!(other, first);
    assert_eq!(model.factory(pid).minted(), 2);
    assert_eq!(configs_built(), configs_after_first_mint + 1);

    // And the cache must be a pure transport optimization: the flight
    // the cached config encodes is byte-identical to one built from
    // scratch over the same chain.
    let factory = model.factory(pid);
    let entry = factory.substitute_entry("cache.example", SRV, None);
    let fresh = ServerConfig::new(entry.chain.as_ref().clone());
    for version in
        [tlsfoe::tls::record::ProtocolVersion::Tls10, tlsfoe::tls::record::ProtocolVersion::Tls12]
    {
        assert_eq!(entry.config.hello_flight(version), fresh.hello_flight(version));
    }
}
