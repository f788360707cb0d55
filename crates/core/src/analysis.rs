//! Aggregation: the data series behind Tables 3, 4, 5/6, 7, 8 and
//! Figure 7.

use std::collections::HashMap;

use tlsfoe_geo::countries::{self, CountryCode};
use tlsfoe_population::products::ProxyCategory;

use crate::classify;
use crate::hosts::HostCategory;
use crate::report::Database;

/// A per-country row of Table 3 / Table 7.
#[derive(Debug, Clone, PartialEq)]
pub struct CountryRow {
    /// The country (None = aggregate "Other" row).
    pub country: Option<CountryCode>,
    /// Proxied connections.
    pub proxied: u64,
    /// Total connections.
    pub total: u64,
}

impl CountryRow {
    /// Percent proxied.
    pub fn percent(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.proxied as f64 / self.total as f64
        }
    }
}

/// Per-country proxied/total, top `top_n` by total connections plus an
/// "Other" aggregate and a grand-total row — exactly the layout of
/// Tables 3 and 7.
pub fn by_country(db: &Database, top_n: usize) -> (Vec<CountryRow>, CountryRow, CountryRow) {
    let mut per: HashMap<CountryCode, (u64, u64)> = HashMap::new();
    for r in db.iter() {
        if let Some(c) = r.country {
            let e = per.entry(c).or_default();
            e.1 += 1;
            e.0 += r.proxied as u64;
        }
    }
    let mut rows: Vec<CountryRow> = per
        .into_iter()
        .map(|(c, (proxied, total))| CountryRow { country: Some(c), proxied, total })
        .collect();
    // Table 3 ranks by proxied count; Table 7 by total. Rank by proxied
    // then total, which reproduces both orderings' top sets closely; the
    // country breaks remaining ties, so the order (and the top-`top_n`
    // cut) never depends on the map's iteration order.
    rows.sort_by_key(|r| (std::cmp::Reverse(r.proxied), std::cmp::Reverse(r.total), r.country));

    let tail = rows.split_off(rows.len().min(top_n));
    let other = CountryRow {
        country: None,
        proxied: tail.iter().map(|r| r.proxied).sum(),
        total: tail.iter().map(|r| r.total).sum(),
    };
    let total = CountryRow {
        country: None,
        proxied: rows.iter().map(|r| r.proxied).sum::<u64>() + other.proxied,
        total: rows.iter().map(|r| r.total).sum::<u64>() + other.total,
    };
    (rows, other, total)
}

/// Issuer-Organization counts (Table 4): top `top_n` plus other.
pub fn issuer_orgs(db: &Database, top_n: usize) -> (Vec<(String, u64)>, u64) {
    let mut counts: HashMap<String, u64> = HashMap::new();
    for r in db.iter() {
        if let Some(sub) = r.substitute {
            let key = match &sub.issuer_org {
                Some(org) if !org.trim().is_empty() => org.clone(),
                _ => "Null".to_string(),
            };
            *counts.entry(key).or_default() += 1;
        }
    }
    let mut rows: Vec<(String, u64)> = counts.into_iter().collect();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let tail = rows.split_off(rows.len().min(top_n));
    let other: u64 = tail.iter().map(|(_, n)| n).sum();
    (rows, other)
}

/// Claimed-issuer classification (Tables 5 and 6): counts per category.
pub fn classification(db: &Database) -> Vec<(ProxyCategory, u64)> {
    let mut counts: HashMap<ProxyCategory, u64> = HashMap::new();
    for r in db.iter() {
        if let Some(sub) = r.substitute {
            let cat = classify::classify(sub.issuer_org.as_deref(), sub.issuer_cn.as_deref());
            *counts.entry(cat).or_default() += 1;
        }
    }
    ProxyCategory::all().into_iter().map(|c| (c, counts.get(&c).copied().unwrap_or(0))).collect()
}

/// Per-host-type interception (Table 8).
pub fn by_host_type(db: &Database) -> Vec<(HostCategory, u64, u64)> {
    let mut per: HashMap<HostCategory, (u64, u64)> = HashMap::new();
    for r in db.iter() {
        let e = per.entry(r.category).or_default();
        e.1 += 1;
        e.0 += r.proxied as u64;
    }
    let order = [
        HostCategory::Popular,
        HostCategory::Business,
        HostCategory::Pornographic,
        HostCategory::Authors,
        HostCategory::MegaPopular,
    ];
    order.into_iter().filter_map(|c| per.get(&c).map(|&(p, t)| (c, p, t))).collect()
}

/// The Figure-7 series: per-country proxied rate (countries with enough
/// samples to be meaningful).
pub fn fig7_series(db: &Database, min_total: u64) -> Vec<(CountryCode, f64)> {
    let (mut rows, _, _) = by_country(db, usize::MAX);
    rows.retain(|r| r.total >= min_total);
    rows.into_iter().map(|r| (r.country.expect("per-country row"), r.percent())).collect()
}

/// Number of distinct countries with at least one proxied connection
/// (the paper: 142 in study 1, 147 in study 2).
pub fn proxied_country_count(db: &Database) -> usize {
    let mut set = std::collections::HashSet::new();
    for r in db.iter() {
        if r.proxied {
            if let Some(c) = r.country {
                set.insert(c);
            }
        }
    }
    set.len()
}

/// Number of distinct proxied client IPs (8,589 in study 1).
pub fn proxied_ip_count(db: &Database) -> usize {
    let mut set = std::collections::HashSet::new();
    for r in db.iter() {
        if r.proxied {
            set.insert(r.client_ip);
        }
    }
    set.len()
}

/// Helper for tests and tables: pretty country name.
pub fn country_name(code: CountryCode) -> &'static str {
    countries::info(code).name
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
    use tlsfoe_x509::cert::SignatureAlgorithm;

    fn record(country: &str, proxied: bool, issuer: Option<&str>) -> MeasurementRecord {
        MeasurementRecord {
            impression: 0,
            attempts: 1,
            client_ip: Ipv4([11, 0, 0, 1]),
            country: by_code(country),
            host: "tlsresearch.byu.edu",
            category: HostCategory::Authors,
            proxied,
            substitute: proxied.then(|| {
                Arc::new(SubstituteInfo {
                    issuer_org: issuer.map(str::to_string),
                    issuer_cn: issuer.map(str::to_string),
                    key_bits: 1024,
                    sig_alg: SignatureAlgorithm::Sha1WithRsa,
                    subject_cn: Some("tlsresearch.byu.edu".into()),
                    covers_host: true,
                    leaf_key_fp: [0; 32],
                    chain_der: vec![],
                })
            }),
        }
    }

    fn db(records: Vec<MeasurementRecord>) -> Database {
        Database::from_records(records)
    }

    #[test]
    fn by_country_rows_and_totals() {
        let mut records = Vec::new();
        for _ in 0..100 {
            records.push(record("US", false, None));
        }
        records.push(record("US", true, Some("Bitdefender")));
        for _ in 0..50 {
            records.push(record("BR", false, None));
        }
        let (rows, other, total) = by_country(&db(records), 20);
        assert_eq!(rows[0].country, by_code("US"));
        assert_eq!(rows[0].proxied, 1);
        assert_eq!(rows[0].total, 101);
        assert!((rows[0].percent() - 1.0 / 101.0).abs() < 1e-9);
        assert_eq!(other.total, 0);
        assert_eq!(total.total, 151);
        assert_eq!(total.proxied, 1);
    }

    #[test]
    fn by_country_breaks_ties_by_country_code() {
        // Countries tied on both proxied and total counts come out in
        // ascending `CountryCode` order, whatever order the map drained
        // them in — and the top-n cut takes the lowest codes.
        let codes = ["US", "BR", "FR", "GB", "RO", "DE", "CA", "TR"];
        let database = db(codes
            .iter()
            .flat_map(|code| [record(code, true, Some("Bitdefender")), record(code, false, None)])
            .collect());
        let mut expected: Vec<CountryCode> = codes.iter().map(|c| by_code(c).unwrap()).collect();
        expected.sort();
        let (rows, _, _) = by_country(&database, usize::MAX);
        let order: Vec<CountryCode> = rows.iter().map(|r| r.country.unwrap()).collect();
        assert_eq!(order, expected);
        let (top, other, _) = by_country(&database, 5);
        let top: Vec<CountryCode> = top.iter().map(|r| r.country.unwrap()).collect();
        assert_eq!(top, expected[..5]);
        assert_eq!((other.proxied, other.total), (3, 6));
    }

    #[test]
    fn issuer_orgs_counts_null() {
        let records = vec![
            record("US", true, Some("Bitdefender")),
            record("US", true, Some("Bitdefender")),
            record("US", true, None),
            record("US", false, None),
        ];
        let (rows, other) = issuer_orgs(&db(records), 10);
        assert_eq!(rows[0], ("Bitdefender".to_string(), 2));
        assert!(rows.contains(&("Null".to_string(), 1)));
        assert_eq!(other, 0);
    }

    #[test]
    fn classification_buckets() {
        let records = vec![
            record("US", true, Some("Bitdefender")),
            record("US", true, Some("Sendori, Inc")),
            record("US", true, None),
        ];
        let rows = classification(&db(records));
        let get = |cat: ProxyCategory| rows.iter().find(|(c, _)| *c == cat).unwrap().1;
        assert_eq!(get(ProxyCategory::BusinessPersonalFirewall), 1);
        assert_eq!(get(ProxyCategory::Malware), 1);
        assert_eq!(get(ProxyCategory::Unknown), 1);
        assert_eq!(get(ProxyCategory::Telecom), 0);
    }

    #[test]
    fn host_type_rates() {
        let mut records = Vec::new();
        let mut porn = record("US", true, Some("Qustodio"));
        porn.category = HostCategory::Pornographic;
        records.push(porn);
        for _ in 0..9 {
            let mut r = record("US", false, None);
            r.category = HostCategory::Pornographic;
            records.push(r);
        }
        let rows = by_host_type(&db(records));
        assert_eq!(rows, vec![(HostCategory::Pornographic, 1, 10)]);
    }

    #[test]
    fn fig7_filters_small_countries() {
        let mut records = Vec::new();
        for _ in 0..100 {
            records.push(record("US", false, None));
        }
        records.push(record("BR", true, Some("PSafe Tecnologia S.A.")));
        let series = fig7_series(&db(records), 50);
        assert_eq!(series.len(), 1);
        assert_eq!(series[0].0, by_code("US").unwrap());
    }

    #[test]
    fn distinct_counts() {
        let mut a = record("US", true, Some("X"));
        a.client_ip = Ipv4([11, 0, 0, 1]);
        let mut b = record("BR", true, Some("X"));
        b.client_ip = Ipv4([11, 0, 0, 2]);
        let mut c = record("BR", true, Some("X"));
        c.client_ip = Ipv4([11, 0, 0, 2]); // same IP as b
        let d = record("DE", false, None);
        let database = db(vec![a, b, c, d]);
        assert_eq!(proxied_country_count(&database), 2);
        assert_eq!(proxied_ip_count(&database), 2);
    }
}
