//! One root self-signature per product and one host catalog per
//! process, end to end: once a process has built both eras' catalogs
//! and warmed their population models the way the benchmark's setup does
//! (keys, the catalogs, then `PopulationModel::warm_substitutes` over
//! each era's catalog hosts), a study drive signs only the substitute
//! chains it mints on a cache miss. Every catalog certificate and every
//! product root it touches was already signed, whichever era or study
//! built it first.
//!
//! This lives in its own integration-test binary on purpose: the
//! signature counter (`tlsfoe::crypto::rsa::signature_count`) and the
//! substitute cache's stats (`tlsfoe::population::cache::process_cache`)
//! are process-wide, and a sibling test signing concurrently would race
//! them.

use tlsfoe::core::hosts::prewarm_key_specs;
use tlsfoe::core::study::{run_study, StudyConfig};
use tlsfoe::core::HostCatalog;
use tlsfoe::crypto::rsa::signature_count;
use tlsfoe::population::cache::process_cache;
use tlsfoe::population::keys;
use tlsfoe::population::model::{PopulationModel, StudyEra};

#[test]
fn drives_sign_only_their_new_chains() {
    let catalogs =
        [(StudyEra::Study1, HostCatalog::study1()), (StudyEra::Study2, HostCatalog::study2())];
    let mut specs = Vec::new();
    for (era, _) in &catalogs {
        specs.extend(prewarm_key_specs(false, *era));
        specs.extend(keys::product_key_specs(*era));
    }
    keys::warm_keys(&specs, 2);
    for (era, catalog) in &catalogs {
        let model = PopulationModel::new(*era, catalog.public_roots.clone());
        let hosts: Vec<&str> = catalog.hosts.iter().map(|h| h.name).collect();
        model.warm_substitutes(&hosts, 2);
    }

    // Boosted, so most sessions are intercepted: every era-active product
    // serves substitutes, and the wildcard-IP and issuer-copying ones,
    // whose chains no warm can enumerate, mint inside the drive.
    for study in [StudyConfig::study1(6_000, 17), StudyConfig::study2(12_000, 17)] {
        for threads in [1, 2] {
            let cfg = StudyConfig { threads, proxy_boost: 80.0, ..study.clone() };
            let signatures = signature_count();
            let (_, misses) = process_cache().stats();
            let outcome = run_study(&cfg).expect("study");
            let minted = process_cache().stats().1 - misses;
            assert!(
                outcome.impressions() >= 256 && outcome.db.proxied() > 100,
                "{:?}, threads {threads}: need a sharded, intercepted run ({} impressions, {} \
                 proxied)",
                cfg.era,
                outcome.impressions(),
                outcome.db.proxied()
            );
            assert_eq!(
                signature_count() - signatures,
                minted,
                "{:?}, threads {threads}: a drive signed more than its {minted} new chains",
                cfg.era
            );
        }
    }
}
