//! The warm-set contract, end to end: the keys a study warms before its
//! drives — `hosts::prewarm_key_specs` (catalog keys plus the product
//! leaves the catalog's hosts select) together with
//! `keys::product_key_specs` (the era's product roots) — are every key
//! the study touches, so no drive ever generates one.
//!
//! This lives in its own integration-test binary on purpose: the key
//! cache's miss counter (`tlsfoe::population::keys::stats`) is
//! process-wide, and a sibling test generating keys concurrently would
//! race it.

use tlsfoe::core::hosts::prewarm_key_specs;
use tlsfoe::core::study::{run_study, StudyConfig};
use tlsfoe::population::keys;
use tlsfoe::population::model::StudyEra;

/// Small enough for a debug build, large enough (≥256 impressions) that
/// a 2-thread run really shards.
const SCALE: u32 = 2_000;

#[test]
fn warmed_keys_cover_every_study_drive() {
    for baseline in [false, true] {
        let mut specs = prewarm_key_specs(baseline, StudyEra::Study1);
        specs.extend(keys::product_key_specs(StudyEra::Study1));
        keys::warm_keys(&specs, 2);
        for threads in [1, 2] {
            // A high boost intercepts most sessions, so nearly every
            // study-1 product mints with the leaf its host selects.
            let cfg = StudyConfig {
                baseline,
                threads,
                proxy_boost: 80.0,
                ..StudyConfig::study1(SCALE, 13)
            };
            let (_, misses_before) = keys::stats();
            let outcome = run_study(&cfg).expect("study");
            let (_, misses_after) = keys::stats();
            assert!(
                outcome.impressions() >= 256 && outcome.db.proxied() > 100,
                "baseline {baseline}, threads {threads}: need a sharded, intercepted run \
                 ({} impressions, {} proxied)",
                outcome.impressions(),
                outcome.db.proxied()
            );
            assert_eq!(
                misses_after - misses_before,
                0,
                "baseline {baseline}, threads {threads}: the study generated keys its warm set \
                 does not list"
            );
        }
    }
}
