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

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

use tlsfoe_crypto::memo::{key_hash, Memo, WordState};
use tlsfoe_netsim::net::DialInfo;
use tlsfoe_netsim::{Ipv4, Shared};
use tlsfoe_x509::{pem, Certificate};

use crate::hosts::{HostCatalog, ProbeHost};
use crate::http::{HttpPostServer, PostRequest};
use tlsfoe_geo::GeoDb;

pub use crate::store::{
    Database, MeasurementRecord, ProbeFailureRecord, RecordView, SubstituteInfo,
};

/// Distinct upload bodies each host's ingest memo stores, and first
/// sightings each host remembers. A body is stored only on its second
/// sighting (see [`Authority::memo`]), so wire-damaged bodies, nearly
/// all unique, never fill the memo. Healthy runs sit far below the cap
/// (`exp_million` measured 39 distinct chains across 10⁶ impressions).
/// Past it the memo stops *inserting* and simply re-parses, and the
/// first-sighting map starts over empty, so memory stays bounded and
/// semantics unchanged.
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
    /// A body is stored on its **second** sighting, never its first:
    /// under wire faults most non-genuine bodies are damaged copies that
    /// never repeat (`chaos_retry`, seed 2014: 3,958 stored bodies, about
    /// 7.2 MB, for 1,104 hits), while substitute chains repeat by the
    /// thousand. A first sighting is classified and remembered in
    /// `seen_once`; the second is classified again, and the memo stores
    /// the remembered classification when the two are content-equal
    /// (else the fresh one, so a key-hash collision can never alias two
    /// bodies). The remembered evidence is the `Arc` the database kept
    /// for the first sighting's record, so memo and store share one
    /// `Arc` per piece of evidence.
    ///
    /// Malformed bodies are **not** stored: they produce no
    /// classification, only a `malformed_uploads` bump, and memoizing
    /// them could turn a later byte-identical-but-reparsed upload into a
    /// silent drop. The regression tests below pin this down.
    memo: Memo<Vec<u8>, Classification>,
    /// Key hash of each body seen once → its classification, evidence
    /// as the `Arc` the database kept. Cleared when it reaches
    /// [`INGEST_MEMO_MAX`].
    seen_once: RefCell<HashMap<u64, Classification, WordState>>,
}

impl Authority {
    /// Classify a body other than the host's genuine one: `Ok` with a
    /// memo hit or a second sighting (now stored), `Err(Some(_))` with a
    /// first sighting (not stored; pass its record's kept evidence to
    /// [`Authority::remember`]) and `Err(None)` for a malformed body.
    fn lookup(&self, body: &[u8]) -> Result<Classification, Option<Classification>> {
        self.memo.get_or_try_insert_with(body, || {
            let fresh = classify(body, self.host).ok_or(None)?;
            match self.seen_once.borrow_mut().remove(&key_hash(body)) {
                Some(seen) if seen == fresh => Ok(seen),
                Some(_) => Ok(fresh),
                None => Err(Some(fresh)),
            }
        })
    }

    /// Remember a body's first sighting.
    fn remember(&self, body: &[u8], classified: Classification) {
        let mut seen = self.seen_once.borrow_mut();
        if seen.len() >= INGEST_MEMO_MAX {
            seen.clear();
        }
        seen.insert(key_hash(body), classified);
    }
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
            .map(|host| {
                let memo = Memo::new(INGEST_MEMO_MAX);
                (host.name, Authority { host, memo, seen_once: RefCell::default() })
            })
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
        // body's 3rd..Nth sighting skips PEM decode, X.509 parse and
        // leaf comparison entirely — the classification is a pure
        // function of `(host, body)` (see [`Authority::memo`]); only the
        // per-upload fields are computed fresh. Unparsable bodies are
        // counted and dropped, never memoized.
        let classified =
            if body == auth.host.body.as_slice() { Ok((false, None)) } else { auth.lookup(body) };
        let (first_sighting, (proxied, substitute)) = match classified {
            Ok(stored) => (false, stored),
            Err(Some(fresh)) => (true, fresh),
            Err(None) => {
                self.db.lock().note_malformed();
                return;
            }
        };
        let kept = self.db.lock().push(MeasurementRecord {
            impression,
            client_ip,
            country: self.geo.lookup(client_ip),
            host: auth.host.name,
            category: auth.host.category,
            proxied,
            substitute,
            attempts,
        });
        if first_sighting {
            auth.remember(body, (proxied, kept));
        }
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
            assert!(auth.seen_once.borrow().is_empty(), "{name}: a genuine body was remembered");
        }
        // Any other body still goes through the host's memo, which
        // stores it on its second sighting.
        let other = &catalog.host("qq.com").unwrap().body;
        let byu = server.authoritative.get("tlsresearch.byu.edu").unwrap();
        server.ingest(client(), "/report?host=tlsresearch.byu.edu", other);
        assert_eq!((byu.memo.len(), byu.seen_once.borrow().len()), (0, 1));
        server.ingest(client(), "/report?host=tlsresearch.byu.edu", other);
        assert_eq!((byu.memo.len(), byu.seen_once.borrow().len()), (1, 0));
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
        // The memo's correctness contract: the 3rd..Nth sighting of a
        // body (the memo hit; the second stores it) must produce a
        // record identical to what a cold parse produces — including
        // full substitute evidence — and per-upload fields (impression,
        // attempts, client IP) must stay per-upload, never memoized.
        let (server, db, catalog) = setup();
        let sub = pem::encode_certificates(&catalog.host("qq.com").unwrap().chain).into_bytes();
        server.ingest(client(), "/report?host=tlsresearch.byu.edu&imp=1", &sub);
        server.ingest(client(), "/report?host=tlsresearch.byu.edu&imp=4", &sub);
        server.ingest(client(), "/report?host=tlsresearch.byu.edu&imp=2&att=3", &sub);
        // A cold server (fresh memo) parsing the same third upload.
        let cold_db = Shared::new(Database::new());
        let cold = ReportServer::new(&catalog, GeoDb::allocate(1000), cold_db.clone());
        cold.ingest(client(), "/report?host=tlsresearch.byu.edu&imp=2&att=3", &sub);
        // Same body under a DIFFERENT host is a different classification
        // (the authoritative leaf differs), so it must not hit the first
        // host's memo slot: qq.com's own chain is unproxied there.
        server.ingest(client(), "/report?host=qq.com&imp=9", &sub);
        let db = db.lock();
        let warm = db.get(2);
        assert_eq!(warm, cold_db.lock().get(0), "memo hit must equal cold parse");
        assert_eq!(warm.impression, 2);
        assert_eq!(warm.attempts, 3);
        assert_eq!(db.get(0).impression, 1, "per-upload fields must not leak across hits");
        assert_eq!(db.get(0).substitute, db.get(2).substitute);
        assert!(!db.get(3).proxied, "host must be part of the memo key");
    }

    #[test]
    fn second_sighting_memo_matches_cold_parses_and_shares_the_stores_arcs() {
        // DRBG-drawn uploads under the authors' host from four kinds of
        // body: repeated (every catalog host's genuine body, so 17
        // substitutes and the host's own), whitespace variants of those
        // (CRLF line ends or blank lines around the armor: other memo
        // keys, the same chain), unique (a variant never sent again)
        // and malformed (truncated or garbled). Every upload must
        // classify as a cold `classify` does, a body must be stored
        // exactly when it was seen twice, and each stored evidence `Arc`
        // must be the one the database keeps for that content. A memo
        // that stored first sightings, or remembered the fresh `Arc` of
        // a content the store already held, fails here.
        use tlsfoe_crypto::drbg::{Drbg, RngCore64};
        let (server, db, catalog) = setup();
        let host = catalog.host("tlsresearch.byu.edu").unwrap();
        let auth = server.authoritative.get(host.name).unwrap();
        let variant = |body: &[u8], kind: u64| -> Vec<u8> {
            let text = String::from_utf8(body.to_vec()).unwrap();
            match kind {
                0 => text.replace('\n', "\r\n"),
                1 => format!("\n{text}\n\n"),
                _ => format!(" \t{text}"),
            }
            .into_bytes()
        };
        let mut repeated: Vec<Vec<u8>> = catalog.hosts.iter().map(|h| h.body.clone()).collect();
        let variants: Vec<Vec<u8>> =
            repeated.iter().enumerate().map(|(i, b)| variant(b, i as u64 % 3)).collect();
        repeated.extend(variants);
        let malformed: Vec<Vec<u8>> = catalog.hosts[..4]
            .iter()
            .flat_map(|h| {
                let text = String::from_utf8(h.body.clone()).unwrap();
                [h.body[..h.body.len() / 2].to_vec(), text.replace('A', "!").into_bytes()]
            })
            .collect();
        let mut rng = Drbg::new(0x5EC0_0004);
        // Body → (sightings, its first record), and every distinct
        // evidence content a cold parse found.
        let mut sightings: HashMap<Vec<u8>, (usize, Option<usize>)> = HashMap::new();
        let mut contents: Vec<Arc<SubstituteInfo>> = Vec::new();
        for imp in 0..600u64 {
            let body = match rng.gen_range(4) {
                0 | 1 => repeated[rng.gen_range(repeated.len() as u64) as usize].clone(),
                2 => {
                    let base = &catalog.hosts[rng.gen_range(catalog.hosts.len() as u64) as usize];
                    let mut body = format!("unique {imp}\n").into_bytes();
                    body.extend_from_slice(&variant(&base.body, rng.gen_range(3)));
                    body
                }
                _ => malformed[rng.gen_range(malformed.len() as u64) as usize].clone(),
            };
            let before = {
                let db = db.lock();
                (db.len(), db.malformed_uploads())
            };
            server.ingest(client(), &format!("/report?host={}&imp={imp}", host.name), &body);
            let seen = sightings.entry(body.clone()).or_insert((0, None));
            seen.0 += 1;
            let db = db.lock();
            let Some((proxied, substitute)) = classify(&body, host) else {
                assert_eq!((db.len(), db.malformed_uploads()), (before.0, before.1 + 1), "{imp}");
                continue;
            };
            let got = db.get(before.0).to_record();
            if let Some(info) = substitute.as_ref().filter(|info| !contents.contains(info)) {
                contents.push(info.clone());
            }
            assert_eq!((got.impression, got.proxied, got.substitute), (imp, proxied, substitute));
            seen.1.get_or_insert(before.0);
        }
        let db = db.lock();
        let mut stored = 0;
        for (body, &(count, record)) in &sightings {
            let memoized = auth.memo.get_or_try_insert_with(body, || Err(())).ok();
            let Some(record) = record else {
                assert!(memoized.is_none(), "a malformed body was stored");
                continue;
            };
            let genuine = body == &host.body;
            assert_eq!(memoized.is_some(), count >= 2 && !genuine, "{count} sightings");
            let Some((_, evidence)) = memoized else { continue };
            stored += 1;
            let kept = db.get(record).substitute.map(std::ptr::from_ref);
            assert_eq!(evidence.as_ref().map(Arc::as_ptr), kept, "memo and store share the Arc");
        }
        assert!(stored > 20, "only {stored} bodies were stored");
        assert_eq!(db.distinct_substitutes(), contents.len());
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
