//! Integration tests for the columnar measurement store: interning
//! round-trips, shard-merge semantics, and a DRBG-driven property test
//! asserting columnar `Database` equality behaves exactly like the old
//! row-wise `Vec<MeasurementRecord>` equality.

use std::sync::Arc;

use tlsfoe::core::store::{Database, MeasurementRecord, SubstituteInfo};
use tlsfoe::core::HostCategory;
use tlsfoe::crypto::drbg::{Drbg, RngCore64};
use tlsfoe::geo::countries;
use tlsfoe::netsim::Ipv4;
use tlsfoe::x509::cert::SignatureAlgorithm;

/// Deterministically generate one record from a DRBG: a small substitute
/// pool (ids 0..6) makes duplicate evidence common — the regime the
/// interner exists for — while still exercising every field.
fn gen_record(rng: &mut Drbg, impression: u64) -> MeasurementRecord {
    let proxied = rng.gen_range(8) == 0;
    let substitute = proxied.then(|| Arc::new(gen_substitute(rng.gen_range(6) as u8)));
    let country_pick = rng.gen_range(4);
    MeasurementRecord {
        impression,
        client_ip: Ipv4([11, 0, rng.gen_range(256) as u8, rng.gen_range(256) as u8]),
        country: ["US", "BR", "DE"].get(country_pick as usize).and_then(|c| countries::by_code(c)),
        host: if rng.gen_range(2) == 0 { "tlsresearch.byu.edu" } else { "qq.com" },
        category: if rng.gen_range(2) == 0 { HostCategory::Authors } else { HostCategory::Popular },
        proxied,
        substitute,
        attempts: 1 + rng.gen_range(3) as u32,
    }
}

/// The substitute for pool id `tag` — same tag, same full evidence.
fn gen_substitute(tag: u8) -> SubstituteInfo {
    SubstituteInfo {
        issuer_org: (!tag.is_multiple_of(3)).then(|| format!("Vendor {tag}")),
        issuer_cn: Some(format!("proxy-{tag}")),
        key_bits: [512, 1024, 2048][tag as usize % 3],
        sig_alg: if tag.is_multiple_of(2) {
            SignatureAlgorithm::Sha1WithRsa
        } else {
            SignatureAlgorithm::Md5WithRsa
        },
        subject_cn: Some("tlsresearch.byu.edu".into()),
        covers_host: tag.is_multiple_of(2),
        leaf_key_fp: [tag; 32],
        // Distinct multi-KB chains so dedup is observable in byte counts.
        chain_der: vec![vec![tag; 700 + tag as usize], vec![0xA0 | tag; 1100]],
    }
}

fn gen_records(seed: u64, n: u64) -> Vec<MeasurementRecord> {
    let mut rng = Drbg::new(seed);
    (0..n).map(|i| gen_record(&mut rng, i)).collect()
}

#[test]
fn interning_round_trips_full_substitute_info() {
    let records = gen_records(0xC01, 2_000);
    let db = Database::from_records(records.clone());
    assert_eq!(db.len(), records.len());
    // Every view reconstructs its row exactly — including the full
    // chain_der bytes — even though duplicates share one interned entry.
    for (i, original) in records.iter().enumerate() {
        assert_eq!(&db.get(i).to_record(), original, "record {i}");
    }
    // The interner actually engaged: at most 6 distinct chains despite
    // hundreds of proxied records, and stored bytes reflect that.
    let proxied = records.iter().filter(|r| r.proxied).count();
    assert!(proxied > 100, "generator must produce a healthy proxied corpus, got {proxied}");
    assert!(db.distinct_substitutes() <= 6);
    assert!(db.interned_chain_bytes() < db.logical_chain_bytes() / 10);
}

#[test]
fn shard_merge_preserves_order_and_equality() {
    // One database built whole vs the same records split across three
    // shards and merged: identical iteration order and logical equality,
    // with cross-shard duplicate evidence stored once.
    let records = gen_records(0xC02, 1_500);
    let whole = Database::from_records(records.clone());
    let mut merged = Database::new();
    for shard_records in records.chunks(500) {
        merged.merge(Database::from_records(shard_records.to_vec()));
    }
    assert_eq!(merged, whole);
    assert!(
        merged.iter().zip(whole.iter()).all(|(a, b)| a == b),
        "merge must concatenate in shard order"
    );
    assert_eq!(
        merged.distinct_substitutes(),
        whole.distinct_substitutes(),
        "evidence seen by several shards must still be stored once"
    );
    assert_eq!(merged.interned_chain_bytes(), whole.interned_chain_bytes());
}

#[test]
fn columnar_equality_matches_row_wise_equality() {
    // Property: for DRBG-generated record vectors a and b,
    //   Database::from_records(a) == Database::from_records(b)  ⟺  a == b.
    // The right side is exactly what the old row-vec Database's derived
    // PartialEq compared, so this pins the redesign to the equality
    // semantics every bit-identity assertion in the test suite relies on.
    let mut rng = Drbg::new(0xC03);
    for case in 0..40 {
        let seed = 0xD000 + rng.gen_range(8);
        let n = 50 + rng.gen_range(150);
        let a = gen_records(seed, n);
        let mut b = gen_records(seed, n);
        // Half the cases stay identical; the other half get one random
        // single-field perturbation.
        let perturbed = case % 2 == 1;
        if perturbed {
            let i = rng.gen_range(b.len() as u64) as usize;
            match rng.gen_range(4) {
                0 => b[i].impression ^= 1,
                1 => b[i].attempts += 1,
                2 => b[i].host = "mail.ru",
                _ => {
                    // Deep perturbation: flip one chain byte if there is
                    // evidence, else toggle the country.
                    match &mut b[i].substitute {
                        Some(sub) => Arc::make_mut(sub).chain_der[0][0] ^= 0xFF,
                        None => b[i].country = countries::by_code("JP"),
                    }
                }
            }
        }
        let rows_equal = a == b;
        assert_eq!(rows_equal, !perturbed, "perturbation must be visible row-wise (case {case})");
        let columnar_equal = Database::from_records(a) == Database::from_records(b);
        assert_eq!(
            columnar_equal, rows_equal,
            "columnar equality diverged from row-wise equality (case {case})"
        );
    }
}

#[test]
fn fold_streams_the_same_aggregate_as_materialized_iteration() {
    let records = gen_records(0xC04, 1_000);
    let db = Database::from_records(records.clone());
    let (proxied, attempts) =
        db.fold((0u64, 0u64), |(p, a), r| (p + u64::from(r.proxied), a + u64::from(r.attempts)));
    assert_eq!(proxied, records.iter().filter(|r| r.proxied).count() as u64);
    assert_eq!(attempts, records.iter().map(|r| u64::from(r.attempts)).sum::<u64>());
    assert_eq!(db.proxied(), proxied, "running proxied count must agree with a full scan");
}
