//! The reporting server.
//!
//! This is the server half of §3: it receives each client's concatenated
//! PEM upload, parses it, compares the captured leaf byte-for-byte with
//! the authoritative certificate for the probed host, geolocates the
//! reporting IP, and appends a [`MeasurementRecord`] to the columnar
//! [`Database`] (see [`crate::store`] for the storage design).
//!
//! Records keep a slim summary for matched (un-proxied) probes and the
//! full substitute evidence — including the raw DER chain — for
//! mismatches, which is what every downstream analyzer consumes. Each
//! distinct substitute's evidence is built once, as an `Arc` that the
//! ingest memo and the [`Database`] share.

use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

use tlsfoe_crypto::memo::{Memo, WordState};
use tlsfoe_netsim::net::DialInfo;
use tlsfoe_netsim::{Ipv4, Shared};
use tlsfoe_x509::{pem, Certificate};

use crate::hosts::{HostCatalog, ProbeHost};
use crate::http::{HttpPostServer, PostRequest};
use tlsfoe_geo::GeoDb;

pub use crate::store::{
    Database, MeasurementRecord, ProbeFailureRecord, RecordView, SubstituteInfo,
};

/// Distinct upload bodies each host's ingest memo stores. Healthy runs
/// sit far below it (`exp_million` measured 39 distinct chains across
/// 10⁶ impressions); a chaos run spraying corrupted-but-parseable bodies
/// stops *inserting* past the cap and simply re-parses, so memory stays
/// bounded and semantics unchanged.
const INGEST_MEMO_MAX: usize = 4096;

/// One probed host as the server sees it.
struct Authority {
    /// The catalog host, whose genuine leaf uploads are compared to.
    host: &'static ProbeHost,
    /// Upload body → `(proxied, substitute evidence)` against this host,
    /// for every body but the host's own genuine one.
    ///
    /// Probes upload the PEM encoding of whatever chain they captured.
    /// Nearly every upload is the host's stored body, which
    /// [`ReportServer::ingest`] recognises by one comparison before the
    /// memo, so that body is never hashed, locked or stored here. The
    /// other distinct chains are rare (tens to a few thousand per run)
    /// while their uploads can number in the tens of thousands, so the
    /// PEM decode + X.509 parse + leaf comparison is still mostly
    /// repeated work. The memo is looked up by the body bytes (full
    /// equality on a hash hit, never hash-only) and stores exactly the
    /// fields that are pure functions of `(host, body)`, the evidence as
    /// the `Arc` the database interns; per-upload fields (impression
    /// ordinal, client IP, geolocation, attempts) are never memoized.
    ///
    /// Malformed bodies are **not** stored: they produce no
    /// classification, only a `malformed_uploads` bump, and memoizing
    /// them could turn a later byte-identical-but-reparsed upload into a
    /// silent drop. The regression tests below pin this down.
    memo: Memo<Vec<u8>, Classification>,
}

/// An upload's `(proxied, substitute evidence)` against its host.
type Classification = (bool, Option<Arc<SubstituteInfo>>);

/// The reporting server: authoritative chains + geolocation + database.
pub struct ReportServer {
    /// Catalog host name → its authority. Every upload looks its host up
    /// here; the names are the catalog's own, so the map uses the fixed
    /// [`WordState`] hasher.
    authoritative: HashMap<&'static str, Authority, WordState>,
    geo: GeoDb,
    db: Shared<Database>,
}

impl ReportServer {
    /// Create for a host catalog.
    pub fn new(catalog: &HostCatalog, geo: GeoDb, db: Shared<Database>) -> ReportServer {
        let authoritative = catalog
            .hosts
            .iter()
            .map(|host| (host.name, Authority { host, memo: Memo::new(INGEST_MEMO_MAX) }))
            .collect();
        ReportServer { authoritative, geo, db }
    }

    /// The shared database handle.
    pub fn db(&self) -> Shared<Database> {
        self.db.clone()
    }

    /// Process one upload: `path` is `/report?host=NAME[&imp=N][&att=N]`,
    /// `body` is the concatenated PEM chain the probe captured.
    ///
    /// An unparsable `imp=` or `att=` value marks the whole upload
    /// malformed: a client that cannot transmit its impression ordinal
    /// intact cannot be trusted to have transmitted the chain intact
    /// either, and silently coercing to a default would fabricate a
    /// record at ordinal 0 / attempt 1 that never happened.
    pub fn ingest(&self, client_ip: Ipv4, path: &str, body: &[u8]) {
        let mut host_name = None;
        let mut impression = 0u64;
        let mut attempts = 1u32;
        for pair in path.split('?').nth(1).unwrap_or("").split('&') {
            match pair.split_once('=') {
                Some(("host", v)) => host_name = Some(v),
                Some(("imp", v)) => match v.parse() {
                    Ok(imp) => impression = imp,
                    Err(_) => {
                        self.db.lock().note_malformed();
                        return;
                    }
                },
                Some(("att", v)) => match v.parse() {
                    Ok(att) => attempts = att,
                    Err(_) => {
                        self.db.lock().note_malformed();
                        return;
                    }
                },
                _ => {}
            }
        }
        let Some(host_name) = host_name else {
            self.db.lock().note_malformed();
            return;
        };
        let Some(auth) = self.authoritative.get(host_name) else {
            self.db.lock().note_malformed();
            return;
        };
        // The host's own genuine body classifies as unproxied (what
        // `classify` returns for it), so it skips the memo. Any other
        // body's 2nd..Nth sighting skips PEM decode, X.509 parse and
        // leaf comparison entirely — the classification is a pure
        // function of `(host, body)` (see [`Authority::memo`]); only the
        // per-upload fields are computed fresh. Unparsable bodies are
        // counted and dropped, never memoized.
        let classified = if body == auth.host.body.as_slice() {
            Ok((false, None))
        } else {
            auth.memo.get_or_try_insert_with(body, || classify(body, auth.host).ok_or(()))
        };
        let Ok((proxied, substitute)) = classified else {
            self.db.lock().note_malformed();
            return;
        };
        self.db.lock().push(MeasurementRecord {
            impression,
            client_ip,
            country: self.geo.lookup(client_ip),
            host: auth.host.name,
            category: auth.host.category,
            proxied,
            substitute,
            attempts,
        });
    }

    /// Build a netsim listener factory serving this report server over
    /// HTTP POST. The server is shared by `Rc` so every accepted
    /// connection shares the same database.
    pub fn listener(self: Rc<Self>) -> tlsfoe_netsim::net::ListenerFactory {
        Box::new(move |info: DialInfo| {
            let server = self.clone();
            Box::new(HttpPostServer::new(move |req: PostRequest<'_>| {
                server.ingest(info.client, &req.path, req.body);
            }))
        })
    }
}

/// Classify an upload body against `host`'s genuine leaf as
/// `(proxied, substitute evidence)`; `None` when the body is not a
/// non-empty PEM chain.
fn classify(body: &[u8], host: &ProbeHost) -> Option<Classification> {
    let chain = pem::decode_certificates(&String::from_utf8_lossy(body)).ok()?;
    let (leaf, intermediates) = chain.split_first()?;
    let leaf_der = leaf.to_der();
    let proxied = host.chain.first().map(Certificate::to_der) != Some(leaf_der);
    let evidence = || Arc::new(extract_substitute(leaf, leaf_der, intermediates, host.name));
    Some((proxied, proxied.then(evidence)))
}

/// Pull the analyzer-relevant fields out of a substitute chain.
///
/// `leaf_der` is the leaf's DER as already borrowed for the
/// authoritative comparison in `classify` — passed in so the evidence copy
/// reuses it instead of re-borrowing `to_der()` per certificate walk.
fn extract_substitute(
    leaf: &Certificate,
    leaf_der: &[u8],
    intermediates: &[Certificate],
    host: &str,
) -> SubstituteInfo {
    let spki_bytes = leaf.tbs.spki.key.n.to_bytes_be();
    let mut chain_der = Vec::with_capacity(1 + intermediates.len());
    chain_der.push(leaf_der.to_vec());
    chain_der.extend(intermediates.iter().map(|c| c.to_der().to_vec()));
    SubstituteInfo {
        issuer_org: leaf.tbs.issuer.organization().map(str::to_string),
        issuer_cn: leaf.tbs.issuer.common_name().map(str::to_string),
        key_bits: leaf.key_bits(),
        sig_alg: leaf.signature_alg,
        subject_cn: leaf.tbs.subject.common_name().map(str::to_string),
        covers_host: leaf.matches_host(host),
        leaf_key_fp: tlsfoe_crypto::sha256::sha256(&spki_bytes),
        chain_der,
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn setup() -> (Rc<ReportServer>, Shared<Database>, HostCatalog) {
        let catalog = HostCatalog::study2();
        let db = Shared::new(Database::new());
        let server = Rc::new(ReportServer::new(&catalog, GeoDb::allocate(1000), db.clone()));
        (server, db, catalog)
    }

    fn client() -> Ipv4 {
        // First address of the first country block.
        Ipv4([11, 0, 0, 0])
    }

    #[test]
    fn ingest_memo_key_hash_of_a_study1_upload_is_pinned() {
        // The memo's hash pinned on a study-1 chain's 1,811-byte body,
        // the input `exp_perf`'s ingest series times (the fixed-length
        // pins sit beside the hasher in `tlsfoe_crypto::memo`).
        let catalog = HostCatalog::study1();
        let body = pem::encode_certificates(&catalog.hosts[0].chain).into_bytes();
        assert_eq!(body.len(), 1811);
        assert_eq!(tlsfoe_crypto::memo::key_hash(&body), 0x7FCA_088C_7230_1072);
    }

    #[test]
    fn every_hosts_genuine_body_classifies_unproxied() {
        // What lets `ingest` skip the memo for a host's own body.
        for catalog in [HostCatalog::study1(), HostCatalog::study2(), HostCatalog::baseline()] {
            for host in catalog.hosts {
                assert_eq!(classify(&host.body, host), Some((false, None)), "{}", host.name);
            }
        }
    }

    #[test]
    fn genuine_uploads_skip_the_memo_and_match_a_cold_parse() {
        let (server, db, catalog) = setup();
        let geo = GeoDb::allocate(1000);
        for (imp, host) in (0u64..).zip(catalog.hosts) {
            let path = format!("/report?host={}&imp={imp}", host.name);
            server.ingest(client(), &path, &host.body);
            let (proxied, substitute) = classify(&host.body, host).unwrap();
            let cold = MeasurementRecord {
                impression: imp,
                client_ip: client(),
                country: geo.lookup(client()),
                host: host.name,
                category: host.category,
                proxied,
                substitute,
                attempts: 1,
            };
            assert_eq!(db.lock().iter().last().map(|r| r.to_record()), Some(cold), "{path}");
        }
        for (name, auth) in &server.authoritative {
            assert!(auth.memo.is_empty(), "{name}: a genuine body entered the memo");
        }
        // Any other body still goes through the host's memo.
        let other = &catalog.host("qq.com").unwrap().body;
        server.ingest(client(), "/report?host=tlsresearch.byu.edu", other);
        assert_eq!(server.authoritative.get("tlsresearch.byu.edu").unwrap().memo.len(), 1);
    }

    #[test]
    fn matching_upload_recorded_unproxied() {
        let (server, db, catalog) = setup();
        let body = pem::encode_certificates(&catalog.hosts[0].chain).into_bytes();
        server.ingest(client(), "/report?host=tlsresearch.byu.edu", &body);
        let db = db.lock();
        assert_eq!(db.total(), 1);
        assert_eq!(db.proxied(), 0);
        let r = db.get(0);
        assert_eq!(r.host, "tlsresearch.byu.edu");
        assert!(r.country.is_some());
        assert!(r.substitute.is_none());
    }

    #[test]
    fn mismatching_upload_recorded_proxied_with_evidence() {
        let (server, db, catalog) = setup();
        // Upload qq.com's cert claiming it came from the authors' host.
        let body = pem::encode_certificates(&catalog.host("qq.com").unwrap().chain).into_bytes();
        server.ingest(client(), "/report?host=tlsresearch.byu.edu", &body);
        let db = db.lock();
        assert_eq!(db.proxied(), 1);
        let r = db.get(0);
        let sub = r.substitute.unwrap();
        assert_eq!(sub.issuer_org.as_deref(), Some("DigiCert Inc"));
        assert_eq!(sub.key_bits, 2048);
        assert!(!sub.covers_host, "qq.com cert must not cover byu host");
        assert_eq!(sub.chain_der.len(), 2);
    }

    #[test]
    fn garbage_uploads_counted_malformed() {
        let (server, db, _) = setup();
        server.ingest(client(), "/report?host=tlsresearch.byu.edu", b"not pem");
        server.ingest(client(), "/report?host=unknown.example", b"");
        server.ingest(client(), "/nonsense", b"");
        let db = db.lock();
        assert_eq!(db.total(), 0);
        assert_eq!(db.malformed_uploads(), 3);
    }

    #[test]
    fn truncated_pem_counted_malformed_every_time_and_never_memoized() {
        // Satellite regression: a truncated/garbled PEM body must bump
        // malformed_uploads on EVERY sighting — if a bad body ever
        // entered the ingest memo as a classification, the second upload
        // would fabricate a record (or silently drop) instead.
        let (server, db, catalog) = setup();
        let good = pem::encode_certificates(&catalog.hosts[0].chain);
        // Truncate mid-base64: BEGIN without END → decode error.
        let truncated = good.as_bytes()[..good.len() / 2].to_vec();
        // Garble the base64 body but keep the armor → invalid character.
        let garbled = good.replace(|c: char| c.is_ascii_digit(), "!").into_bytes();
        for round in 1..=3u64 {
            server.ingest(client(), "/report?host=tlsresearch.byu.edu", &truncated);
            server.ingest(client(), "/report?host=tlsresearch.byu.edu", &garbled);
            assert_eq!(
                db.lock().malformed_uploads(),
                2 * round,
                "every sighting of a bad body must count malformed"
            );
            assert_eq!(db.lock().total(), 0, "bad bodies must never yield records");
        }
        // A PEM-free body (no BEGIN block at all) decodes to an empty
        // chain: also malformed, also never memoized.
        server.ingest(client(), "/report?host=tlsresearch.byu.edu", b"no pem here");
        server.ingest(client(), "/report?host=tlsresearch.byu.edu", b"no pem here");
        assert_eq!(db.lock().malformed_uploads(), 8);
        let memo = &server.authoritative.get("tlsresearch.byu.edu").unwrap().memo;
        assert!(memo.is_empty(), "no malformed body may enter the host's ingest memo");
        // The good body still classifies fine afterwards.
        server.ingest(client(), "/report?host=tlsresearch.byu.edu", good.as_bytes());
        assert_eq!(db.lock().total(), 1);
        assert!(!db.lock().get(0).proxied);
    }

    #[test]
    fn memoized_ingest_identical_to_cold_parse() {
        // The memo's correctness contract: the 2nd..Nth sighting of a
        // body (the memo hit) must produce a record identical to what a
        // cold parse produces — including full substitute evidence — and
        // per-upload fields (impression, attempts, client IP) must stay
        // per-upload, never memoized.
        let (server, db, catalog) = setup();
        let sub = pem::encode_certificates(&catalog.host("qq.com").unwrap().chain).into_bytes();
        server.ingest(client(), "/report?host=tlsresearch.byu.edu&imp=1", &sub);
        server.ingest(client(), "/report?host=tlsresearch.byu.edu&imp=2&att=3", &sub);
        // A cold server (fresh memo) parsing the same second upload.
        let cold_db = Shared::new(Database::new());
        let cold = ReportServer::new(&catalog, GeoDb::allocate(1000), cold_db.clone());
        cold.ingest(client(), "/report?host=tlsresearch.byu.edu&imp=2&att=3", &sub);
        // Same body under a DIFFERENT host is a different classification
        // (the authoritative leaf differs), so it must not hit the first
        // host's memo slot: qq.com's own chain is unproxied there.
        server.ingest(client(), "/report?host=qq.com&imp=9", &sub);
        let db = db.lock();
        let warm = db.get(1);
        assert_eq!(warm, cold_db.lock().get(0), "memo hit must equal cold parse");
        assert_eq!(warm.impression, 2);
        assert_eq!(warm.attempts, 3);
        assert_eq!(db.get(0).impression, 1, "per-upload fields must not leak across hits");
        assert_eq!(db.get(0).substitute, db.get(1).substitute);
        assert!(!db.get(2).proxied, "host must be part of the memo key");
    }

    #[test]
    fn impression_ordinal_parsed_from_upload_path() {
        let (server, db, catalog) = setup();
        let body = pem::encode_certificates(&catalog.hosts[0].chain).into_bytes();
        server.ingest(client(), "/report?host=tlsresearch.byu.edu&imp=42", &body);
        server.ingest(client(), "/report?imp=7&host=tlsresearch.byu.edu", &body);
        server.ingest(client(), "/report?host=tlsresearch.byu.edu", &body);
        let db = db.lock();
        assert_eq!(db.malformed_uploads(), 0);
        let imps: Vec<u64> = db.iter().map(|r| r.impression).collect();
        assert_eq!(imps, [42, 7, 0], "imp= must parse in any position, defaulting to 0");
    }

    #[test]
    fn unparsable_ordinals_counted_malformed_not_coerced() {
        let (server, db, catalog) = setup();
        let body = pem::encode_certificates(&catalog.hosts[0].chain).into_bytes();
        // An upload whose imp=/att= cannot parse must be dropped as
        // malformed, not recorded at a fabricated ordinal-0/attempt-1.
        server.ingest(client(), "/report?host=tlsresearch.byu.edu&imp=banana", &body);
        server.ingest(client(), "/report?host=tlsresearch.byu.edu&imp=-3", &body);
        server.ingest(client(), "/report?host=tlsresearch.byu.edu&att=", &body);
        server.ingest(
            client(),
            "/report?host=tlsresearch.byu.edu&imp=5&att=18446744073709551616",
            &body,
        );
        {
            let db = db.lock();
            assert_eq!(db.total(), 0, "no record may be fabricated from a garbled ordinal");
            assert_eq!(db.malformed_uploads(), 4);
        }
        // A parsable upload after the garbage still lands normally.
        server.ingest(client(), "/report?host=tlsresearch.byu.edu&imp=5&att=2", &body);
        let db = db.lock();
        assert_eq!(db.total(), 1);
        assert_eq!(db.get(0).impression, 5);
        assert_eq!(db.get(0).attempts, 2);
    }

    #[test]
    fn geolocation_resolves_client_country() {
        let (server, db, catalog) = setup();
        let geo = GeoDb::allocate(1000);
        let us = tlsfoe_geo::countries::by_code("US").unwrap();
        let us_ip = geo.client_addr(us, 7);
        let body = pem::encode_certificates(&catalog.hosts[0].chain).into_bytes();
        server.ingest(us_ip, "/report?host=tlsresearch.byu.edu", &body);
        assert_eq!(db.lock().get(0).country, Some(us));
    }

    #[test]
    fn database_merge_and_rate() {
        let (server, db, catalog) = setup();
        let good = pem::encode_certificates(&catalog.hosts[0].chain).into_bytes();
        let bad = pem::encode_certificates(&catalog.host("qq.com").unwrap().chain).into_bytes();
        for _ in 0..99 {
            server.ingest(client(), "/report?host=tlsresearch.byu.edu", &good);
        }
        server.ingest(client(), "/report?host=tlsresearch.byu.edu", &bad);
        let mut merged = Database::new();
        merged.merge(std::mem::replace(&mut *db.lock(), Database::new()));
        assert_eq!(merged.total(), 100);
        assert_eq!(merged.proxied(), 1);
        assert!((merged.proxied_rate() - 0.01).abs() < 1e-9);
    }

    #[test]
    fn jsonl_export_roundtrips_through_parser() {
        let (server, db, catalog) = setup();
        let bad = pem::encode_certificates(&catalog.host("qq.com").unwrap().chain).into_bytes();
        server.ingest(client(), "/report?host=tlsresearch.byu.edu", &bad);
        let jsonl = db.lock().to_jsonl();
        let v = crate::json::Json::parse(jsonl.lines().next().unwrap()).unwrap();
        assert_eq!(v.get("proxied").unwrap().as_bool(), Some(true));
        let sub = v.get("substitute").unwrap();
        assert_eq!(sub.get("issuer_org").unwrap().as_str(), Some("DigiCert Inc"));
        assert_eq!(v.get("host").unwrap().as_str(), Some("tlsresearch.byu.edu"));
    }

    #[test]
    fn write_jsonl_streams_identically_to_string_export() {
        let (server, db, catalog) = setup();
        let good = pem::encode_certificates(&catalog.hosts[0].chain).into_bytes();
        let bad = pem::encode_certificates(&catalog.host("qq.com").unwrap().chain).into_bytes();
        server.ingest(client(), "/report?host=tlsresearch.byu.edu&imp=1", &good);
        server.ingest(client(), "/report?host=tlsresearch.byu.edu&imp=2", &bad);
        let db = db.lock();
        let mut streamed = Vec::new();
        db.write_jsonl(&mut streamed).unwrap();
        assert_eq!(String::from_utf8(streamed).unwrap(), db.to_jsonl());
        assert_eq!(db.to_jsonl().lines().count(), 2);
    }
}
