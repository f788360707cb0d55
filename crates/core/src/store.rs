//! The columnar measurement store.
//!
//! The paper's dataset is one flat measurement database that every
//! analysis scans. Up to PR 6 that was literally a `Vec<MeasurementRecord>`
//! with public fields — fine at thousands of impressions, fatal at the
//! million-client scale ROADMAP item 2 targets: every proxied row dragged
//! its own owned copy of the full substitute DER chain (a few KB each),
//! and every consumer was free to depend on the row-vec representation.
//!
//! This module replaces it with a sealed, append-only, struct-of-arrays
//! [`Database`]:
//!
//! * **Columnar rows** — impression / client / country / host / proxied
//!   / attempts / evidence each live in their own dense column, so a
//!   record costs 27 bytes instead of a padded 112-byte row plus a heap
//!   `Option<SubstituteInfo>`: impression 8, client address 4, country
//!   4 (`Option<CountryCode>`), host 2, proxied 1, attempts 4 and
//!   evidence id 4. The host column holds a `u16` id into a
//!   per-database dictionary of the `(host, category)` pairs its rows
//!   name (one for study 1, 18 for study 2); a `&'static str` host
//!   column plus a category column cost 17 of a former 42 bytes.
//! * **Interned substitute evidence** — the full [`SubstituteInfo`]
//!   (including the captured DER chain) is deduplicated through an
//!   interning table: records store a `u32` id, and the ~40 study-1 /
//!   ~918 study-2 distinct substitute chains are stored **once** instead
//!   of once per proxied record. Peak RSS becomes sublinear in proxied
//!   traffic (`exp_million` measures the ratio).
//! * **Sealed API** — rows enter through [`Database::push`] /
//!   [`Database::push_failure`] and leave through the zero-copy
//!   [`RecordView`] cursor ([`Database::iter`], [`Database::fold`]) or
//!   the streaming [`Database::write_jsonl`]. No caller can observe or
//!   depend on the physical representation, which is what frees later
//!   PRs to shard the store across processes.
//!
//! Determinism contract (unchanged from the row-vec era): records are
//! append-ordered; [`Database::finish_batch`] stable-sorts each batch's
//! tail by impression ordinal; [`Database::merge`] appends shards in
//! shard order and re-interns evidence and hosts — so a study's
//! `Database` compares equal (full logical contents, every DER byte)
//! across thread counts, batch sizes, warm-vs-lazy caches and fault
//! schedules. `PartialEq` compares *logical* records, never intern or
//! host ids, so equality is independent of which shard first minted a
//! chain or saw a host.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::io::{self, Write};

use tlsfoe_geo::countries::CountryCode;
use tlsfoe_netsim::Ipv4;
use tlsfoe_x509::cert::SignatureAlgorithm;

use crate::hosts::HostCategory;
use crate::session::SessionError;

/// Evidence extracted from a substitute (mismatching) chain.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SubstituteInfo {
    /// Issuer Organization field (None = null/absent — itself a finding).
    pub issuer_org: Option<String>,
    /// Issuer Common Name field.
    pub issuer_cn: Option<String>,
    /// Leaf public-key size in bits.
    pub key_bits: usize,
    /// Signature algorithm of the leaf.
    pub sig_alg: SignatureAlgorithm,
    /// Leaf subject CN.
    pub subject_cn: Option<String>,
    /// Whether the leaf's subject/SAN covers the probed host.
    pub covers_host: bool,
    /// SHA-256 over the leaf's public-key bytes (shared-key clustering).
    pub leaf_key_fp: [u8; 32],
    /// The full captured DER chain, leaf first.
    pub chain_der: Vec<Vec<u8>>,
}

impl SubstituteInfo {
    /// Total captured DER bytes across the chain.
    pub fn chain_bytes(&self) -> u64 {
        self.chain_der.iter().map(|c| c.len() as u64).sum()
    }
}

/// One completed measurement, as an owned row.
///
/// This is the *ingestion and construction* type: the report server
/// builds one per upload and hands it to [`Database::push`], which
/// shreds it into columns and interns the evidence. Reading the store
/// back yields borrowed [`RecordView`]s instead.
#[derive(Debug, Clone, PartialEq)]
pub struct MeasurementRecord {
    /// Shard-local impression ordinal (`imp=` on the upload path). When
    /// a worker batches many concurrent sessions into one event-loop
    /// drive, uploads interleave by virtual completion time; the runner
    /// stable-sorts each batch's records by this ordinal so the database
    /// is bit-identical for any batch size and thread count.
    pub impression: u64,
    /// Reporting client address.
    pub client_ip: Ipv4,
    /// Geolocated country (None if the IP is outside the database).
    pub country: Option<CountryCode>,
    /// Probed hostname.
    pub host: &'static str,
    /// Probed host category.
    pub category: HostCategory,
    /// True when the captured leaf differed from the authoritative one.
    pub proxied: bool,
    /// Substitute evidence (present iff `proxied`).
    pub substitute: Option<SubstituteInfo>,
    /// Which dial attempt produced this upload (`att=` param, default 1).
    /// Anything above 1 means the session's retry layer recovered the
    /// probe after an injected fault.
    pub attempts: u32,
}

/// A probe that exhausted its retry budget — the typed record the session
/// layer appends instead of silently dropping the measurement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeFailureRecord {
    /// Global impression ordinal of the owning session.
    pub impression: u64,
    /// Client address that dialed the probe.
    pub client_ip: Ipv4,
    /// Probed hostname.
    pub host: &'static str,
    /// Why the final attempt was abandoned.
    pub error: SessionError,
    /// How many attempts were made before giving up.
    pub attempts: u32,
}

/// A zero-copy cursor over one stored record.
///
/// Scalar columns are copied out (they are all `Copy` and word-sized);
/// the substitute evidence — the only heavy part — is borrowed straight
/// from the interning table. Equality compares full logical contents,
/// including every captured DER byte.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecordView<'a> {
    /// Shard-local impression ordinal (the batch sort key).
    pub impression: u64,
    /// Reporting client address.
    pub client_ip: Ipv4,
    /// Geolocated country.
    pub country: Option<CountryCode>,
    /// Probed hostname.
    pub host: &'static str,
    /// Probed host category.
    pub category: HostCategory,
    /// True when the captured leaf differed from the authoritative one.
    pub proxied: bool,
    /// Interned substitute evidence (present iff `proxied`).
    pub substitute: Option<&'a SubstituteInfo>,
    /// Dial attempt that produced this upload (1 = first try).
    pub attempts: u32,
}

impl RecordView<'_> {
    /// Clone the view back into an owned row (tests and tooling; the
    /// analyzers never need it).
    pub fn to_record(&self) -> MeasurementRecord {
        MeasurementRecord {
            impression: self.impression,
            client_ip: self.client_ip,
            country: self.country,
            host: self.host,
            category: self.category,
            proxied: self.proxied,
            substitute: self.substitute.cloned(),
            attempts: self.attempts,
        }
    }
}

/// Sentinel id for "no substitute evidence" (un-proxied records).
const SUB_NONE: u32 = u32::MAX;

/// Deduplicating table of substitute evidence.
///
/// Keyed by the full [`SubstituteInfo`] identity — leaf-key fingerprint,
/// chain bytes and the derived fields — via a hash index with exact
/// equality confirmation, so two chains that collide in the hash can
/// never alias. Ids are assigned in first-appearance order, which is
/// deterministic per push order; cross-shard id divergence is absorbed
/// by [`Database::merge`]'s remap and by logical (not id) equality.
#[derive(Debug, Default)]
struct SubstituteInterner {
    entries: Vec<SubstituteInfo>,
    index: HashMap<u64, Vec<u32>>,
}

fn fingerprint(info: &SubstituteInfo) -> u64 {
    // SipHash with fixed keys: deterministic within a process, and only
    // used as a bucket index — equality always confirms.
    let mut h = std::collections::hash_map::DefaultHasher::new();
    info.hash(&mut h);
    h.finish()
}

impl SubstituteInterner {
    fn intern(&mut self, info: SubstituteInfo) -> u32 {
        let bucket = self.index.entry(fingerprint(&info)).or_default();
        for &id in bucket.iter() {
            if self.entries[id as usize] == info {
                return id;
            }
        }
        let id = u32::try_from(self.entries.len()).expect("interner capacity");
        assert!(id != SUB_NONE, "interner full");
        self.entries.push(info);
        bucket.push(id);
        id
    }

    fn get(&self, id: u32) -> Option<&SubstituteInfo> {
        if id == SUB_NONE {
            None
        } else {
            Some(&self.entries[id as usize])
        }
    }
}

/// Dictionary of the `(host, category)` pairs a database's rows name.
///
/// Rows store a `u16` id into it. Ids are assigned in first-push order,
/// so two shards may number the same host differently;
/// [`Database::merge`] remaps them, and equality compares the pairs,
/// never the ids. A catalog probes at most 18 hosts, so [`HostDict::id`]
/// scans the entries instead of hashing.
#[derive(Debug, Default)]
struct HostDict {
    entries: Vec<(&'static str, HostCategory)>,
}

impl HostDict {
    fn id(&mut self, host: &'static str, category: HostCategory) -> u16 {
        let pair = (host, category);
        if let Some(id) = self.entries.iter().position(|e| *e == pair) {
            return id as u16;
        }
        let id = self.entries.len();
        assert!(id <= usize::from(u16::MAX), "host dictionary full");
        self.entries.push(pair);
        id as u16
    }

    fn get(&self, id: u16) -> (&'static str, HostCategory) {
        self.entries[usize::from(id)]
    }
}

/// Start-of-batch bookmark handed out by [`Database::mark`] and consumed
/// by [`Database::finish_batch`].
#[derive(Debug, Clone, Copy)]
pub struct BatchMark {
    records: usize,
    failures: usize,
}

/// The measurement database: a sealed, append-only columnar store.
///
/// See the [module docs](crate::store) for the representation. All
/// ingestion goes through [`Database::push`] / [`Database::push_failure`];
/// all reads go through the [`RecordView`] cursor, the fold-style
/// aggregation entry points, or the streaming JSONL export.
///
/// `PartialEq` compares full logical record contents — including every
/// captured DER chain byte — which is what the study's
/// bit-identical-across-thread-counts guarantee is asserted against. It
/// deliberately does *not* compare intern ids or column layout.
#[derive(Debug, Default)]
pub struct Database {
    // Row columns (struct of arrays), all `len()` long.
    impressions: Vec<u64>,
    client_ips: Vec<Ipv4>,
    countries: Vec<Option<CountryCode>>,
    /// Host id per record, into `host_dict`.
    host_ids: Vec<u16>,
    proxied_col: Vec<bool>,
    attempts_col: Vec<u32>,
    /// Intern id per record (`SUB_NONE` = no evidence).
    substitute_ids: Vec<u32>,
    intern: SubstituteInterner,
    host_dict: HostDict,
    proxied_count: u64,
    malformed: u64,
    failures: Vec<ProbeFailureRecord>,
}

impl Database {
    /// New empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// Build a store from owned rows (tests and tooling; the pipeline
    /// always pushes incrementally).
    pub fn from_records(records: impl IntoIterator<Item = MeasurementRecord>) -> Database {
        let mut db = Database::new();
        for r in records {
            db.push(r);
        }
        db
    }

    /// Append one measurement: shred the row into columns, look its host
    /// up in the host dictionary and intern its substitute evidence (a
    /// duplicate chain costs one hash probe and a `u32`, not a deep
    /// clone).
    pub fn push(&mut self, r: MeasurementRecord) {
        self.impressions.push(r.impression);
        self.client_ips.push(r.client_ip);
        self.countries.push(r.country);
        self.host_ids.push(self.host_dict.id(r.host, r.category));
        self.proxied_col.push(r.proxied);
        self.attempts_col.push(r.attempts);
        self.proxied_count += u64::from(r.proxied);
        let id = match r.substitute {
            Some(info) => self.intern.intern(info),
            None => SUB_NONE,
        };
        self.substitute_ids.push(id);
    }

    /// Append a typed probe failure (the chaos path's sealed entry).
    pub fn push_failure(&mut self, f: ProbeFailureRecord) {
        self.failures.push(f);
    }

    /// Count one unparsable upload (malformed PEM/DER or query params).
    pub fn note_malformed(&mut self) {
        self.malformed += 1;
    }

    /// Number of stored records.
    pub fn len(&self) -> usize {
        self.impressions.len()
    }

    /// Whether the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.impressions.is_empty()
    }

    /// Total successful measurements.
    pub fn total(&self) -> u64 {
        self.len() as u64
    }

    /// Proxied measurements (maintained as a running count — O(1)).
    pub fn proxied(&self) -> u64 {
        self.proxied_count
    }

    /// Overall proxied fraction (the paper's headline 0.41%).
    pub fn proxied_rate(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.proxied() as f64 / self.total() as f64
        }
    }

    /// Probes recorded as failed (retry budget exhausted).
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    /// Uploads that failed to parse — counted, kept out of the analysis
    /// like the paper's unsuccessful measurements.
    pub fn malformed_uploads(&self) -> u64 {
        self.malformed
    }

    /// The typed probe-failure records, append order. Empty on a
    /// fault-free run; the chaos sweeps read completion rates off
    /// `total() / (total() + failed())`.
    pub fn failures(&self) -> &[ProbeFailureRecord] {
        &self.failures
    }

    /// Zero-copy view of record `i`.
    pub fn get(&self, i: usize) -> RecordView<'_> {
        let (host, category) = self.host_dict.get(self.host_ids[i]);
        RecordView {
            impression: self.impressions[i],
            client_ip: self.client_ips[i],
            country: self.countries[i],
            host,
            category,
            proxied: self.proxied_col[i],
            substitute: self.intern.get(self.substitute_ids[i]),
            attempts: self.attempts_col[i],
        }
    }

    /// Streaming cursor over all records, append order.
    pub fn iter(&self) -> Records<'_> {
        Records { db: self, next: 0 }
    }

    /// Fold-style aggregation entry point: every analyzer and table can
    /// stream the store through an accumulator without ever
    /// materializing rows.
    pub fn fold<A>(&self, init: A, mut f: impl FnMut(A, RecordView<'_>) -> A) -> A {
        let mut acc = init;
        for r in self.iter() {
            acc = f(acc, r);
        }
        acc
    }

    /// Streaming visitor (fold without an accumulator).
    pub fn for_each(&self, mut f: impl FnMut(RecordView<'_>)) {
        for r in self.iter() {
            f(r);
        }
    }

    /// Number of distinct interned substitute evidence entries (the ~40
    /// study-1 / ~918 study-2 distinct chains).
    pub fn distinct_substitutes(&self) -> usize {
        self.intern.entries.len()
    }

    /// Captured DER bytes actually stored (each distinct chain once).
    pub fn interned_chain_bytes(&self) -> u64 {
        self.intern.entries.iter().map(SubstituteInfo::chain_bytes).sum()
    }

    /// Captured DER bytes a row-wise store would hold (each proxied
    /// record dragging its own chain copy). The ratio against
    /// [`Database::interned_chain_bytes`] is the dedup factor
    /// `exp_million` reports.
    pub fn logical_chain_bytes(&self) -> u64 {
        self.substitute_ids
            .iter()
            .filter_map(|&id| self.intern.get(id))
            .map(SubstituteInfo::chain_bytes)
            .sum()
    }

    /// Bookmark the current append positions; pair with
    /// [`Database::finish_batch`] around one event-loop drive.
    pub fn mark(&self) -> BatchMark {
        BatchMark { records: self.len(), failures: self.failures.len() }
    }

    /// Restore deterministic order for everything appended since `mark`:
    /// concurrent sessions' uploads interleave by virtual completion
    /// time, and a stable sort by impression ordinal collapses that back
    /// to injection order (per-session relative order is already
    /// deterministic), making the store independent of batch size and
    /// thread count. Failure records sort by `(impression, host)` —
    /// hosts are probed in catalog order and unique within it.
    pub fn finish_batch(&mut self, mark: BatchMark) {
        let start = mark.records;
        let tail = self.len() - start;
        if tail > 1 {
            let imps = &self.impressions[start..];
            let mut order: Vec<u32> = (0..tail as u32).collect();
            order.sort_by_key(|&i| imps[i as usize]);
            if !order.windows(2).all(|w| w[0] < w[1]) {
                permute_tail(&mut self.impressions[start..], &order);
                permute_tail(&mut self.client_ips[start..], &order);
                permute_tail(&mut self.countries[start..], &order);
                permute_tail(&mut self.host_ids[start..], &order);
                permute_tail(&mut self.proxied_col[start..], &order);
                permute_tail(&mut self.attempts_col[start..], &order);
                permute_tail(&mut self.substitute_ids[start..], &order);
            }
        }
        self.failures[mark.failures..].sort_by_key(|f| (f.impression, f.host));
    }

    /// Merge another database (for sharded studies): columns are
    /// concatenated in shard order, and the other shard's evidence is
    /// re-interned and its hosts looked up in this store's dictionary,
    /// so chains minted by several shards end up stored once and id
    /// divergence between shards cannot leak into the merged store.
    pub fn merge(&mut self, other: Database) {
        let host_remap: Vec<u16> =
            other.host_dict.entries.into_iter().map(|(h, c)| self.host_dict.id(h, c)).collect();
        self.host_ids.extend(other.host_ids.into_iter().map(|id| host_remap[usize::from(id)]));
        let remap: Vec<u32> =
            other.intern.entries.into_iter().map(|info| self.intern.intern(info)).collect();
        self.substitute_ids.extend(other.substitute_ids.into_iter().map(|id| {
            if id == SUB_NONE {
                SUB_NONE
            } else {
                remap[id as usize]
            }
        }));
        self.impressions.extend(other.impressions);
        self.client_ips.extend(other.client_ips);
        self.countries.extend(other.countries);
        self.proxied_col.extend(other.proxied_col);
        self.attempts_col.extend(other.attempts_col);
        self.proxied_count += other.proxied_count;
        self.malformed += other.malformed;
        self.failures.extend(other.failures);
    }

    /// Stream all records as JSON lines (the persisted dataset the paper
    /// promised on its website) — one record encoded and written at a
    /// time, never a full-dataset `String`.
    pub fn write_jsonl(&self, w: &mut impl Write) -> io::Result<()> {
        use crate::json::Json;
        for r in self.iter() {
            let sub = Json::opt(r.substitute, |s| {
                Json::obj(vec![
                    ("issuer_org", Json::opt(s.issuer_org.as_deref(), Json::str)),
                    ("issuer_cn", Json::opt(s.issuer_cn.as_deref(), Json::str)),
                    ("key_bits", Json::Int(s.key_bits as i64)),
                    ("sig_alg", Json::str(s.sig_alg.name())),
                    ("subject_cn", Json::opt(s.subject_cn.as_deref(), Json::str)),
                    ("covers_host", Json::Bool(s.covers_host)),
                    ("leaf_key_fp", Json::str(hex(&s.leaf_key_fp))),
                ])
            });
            let v = Json::obj(vec![
                ("impression", Json::Int(r.impression as i64)),
                ("client_ip", Json::str(r.client_ip.to_string())),
                (
                    "country",
                    Json::opt(r.country, |c| Json::str(tlsfoe_geo::countries::info(c).code)),
                ),
                ("host", Json::str(r.host)),
                ("category", Json::str(r.category.label())),
                ("proxied", Json::Bool(r.proxied)),
                ("substitute", sub),
                ("attempts", Json::Int(i64::from(r.attempts))),
            ]);
            writeln!(w, "{v}")?;
        }
        Ok(())
    }

    /// JSONL export as one in-memory string — a thin test convenience
    /// over [`Database::write_jsonl`]; production callers should stream.
    pub fn to_jsonl(&self) -> String {
        let mut out = Vec::new();
        self.write_jsonl(&mut out).expect("Vec<u8> write cannot fail");
        String::from_utf8(out).expect("JSONL is UTF-8")
    }
}

impl PartialEq for Database {
    fn eq(&self, other: &Database) -> bool {
        self.len() == other.len()
            && self.malformed == other.malformed
            && self.failures == other.failures
            && self.iter().zip(other.iter()).all(|(a, b)| a == b)
    }
}

impl<'a> IntoIterator for &'a Database {
    type Item = RecordView<'a>;
    type IntoIter = Records<'a>;

    fn into_iter(self) -> Records<'a> {
        self.iter()
    }
}

/// Iterator of [`RecordView`]s over a [`Database`], append order.
#[derive(Debug, Clone)]
pub struct Records<'a> {
    db: &'a Database,
    next: usize,
}

impl<'a> Iterator for Records<'a> {
    type Item = RecordView<'a>;

    fn next(&mut self) -> Option<RecordView<'a>> {
        if self.next >= self.db.len() {
            return None;
        }
        let v = self.db.get(self.next);
        self.next += 1;
        Some(v)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.db.len() - self.next;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for Records<'_> {}

/// Apply the permutation `order` (indices into `tail`) in place.
fn permute_tail<T: Copy>(tail: &mut [T], order: &[u32]) {
    let sorted: Vec<T> = order.iter().map(|&i| tail[i as usize]).collect();
    tail.copy_from_slice(&sorted);
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn sub(tag: u8) -> SubstituteInfo {
        SubstituteInfo {
            issuer_org: Some(format!("Org{tag}")),
            issuer_cn: None,
            key_bits: 1024,
            sig_alg: SignatureAlgorithm::Sha1WithRsa,
            subject_cn: Some("h".into()),
            covers_host: true,
            leaf_key_fp: [tag; 32],
            chain_der: vec![vec![tag; 600], vec![tag ^ 0xFF; 900]],
        }
    }

    fn rec(imp: u64, substitute: Option<SubstituteInfo>) -> MeasurementRecord {
        MeasurementRecord {
            impression: imp,
            client_ip: Ipv4([11, 0, 0, 1]),
            country: None,
            host: "tlsresearch.byu.edu",
            category: HostCategory::Authors,
            proxied: substitute.is_some(),
            substitute,
            attempts: 1,
        }
    }

    /// A record probing `(host, category)`.
    fn rec_at(imp: u64, (host, category): (&'static str, HostCategory)) -> MeasurementRecord {
        MeasurementRecord { host, category, ..rec(imp, None) }
    }

    const QQ: (&str, HostCategory) = ("qq.com", HostCategory::Popular);
    const BYU: (&str, HostCategory) = ("tlsresearch.byu.edu", HostCategory::Authors);

    #[test]
    fn interning_stores_duplicate_evidence_once() {
        let mut db = Database::new();
        for i in 0..100 {
            db.push(rec(i, Some(sub(7))));
        }
        db.push(rec(100, Some(sub(9))));
        db.push(rec(101, None));
        assert_eq!(db.len(), 102);
        assert_eq!(db.proxied(), 101);
        assert_eq!(db.distinct_substitutes(), 2);
        assert_eq!(db.interned_chain_bytes(), 2 * 1500);
        assert_eq!(db.logical_chain_bytes(), 101 * 1500);
        // Round-trip: every view still serves the FULL evidence.
        for (i, r) in db.iter().enumerate().take(100) {
            assert_eq!(r.substitute, Some(&sub(7)), "record {i}");
        }
        assert_eq!(db.get(100).substitute.unwrap().chain_der, sub(9).chain_der);
        assert!(db.get(101).substitute.is_none());
    }

    #[test]
    fn finish_batch_stable_sorts_by_impression() {
        let mut db = Database::new();
        db.push(rec(0, None));
        let mark = db.mark();
        for imp in [5u64, 3, 9, 3, 1] {
            let pair = if imp == 9 || imp == 1 { QQ } else { BYU };
            db.push(MeasurementRecord {
                substitute: (imp == 3).then(|| sub(imp as u8)),
                proxied: imp == 3,
                ..rec_at(imp, pair)
            });
        }
        db.push_failure(ProbeFailureRecord {
            impression: 7,
            client_ip: Ipv4([11, 0, 0, 1]),
            host: "b",
            error: SessionError::TimedOut,
            attempts: 3,
        });
        db.push_failure(ProbeFailureRecord {
            impression: 2,
            client_ip: Ipv4([11, 0, 0, 1]),
            host: "a",
            error: SessionError::TimedOut,
            attempts: 3,
        });
        db.finish_batch(mark);
        let imps: Vec<u64> = db.iter().map(|r| r.impression).collect();
        assert_eq!(imps, [0, 1, 3, 3, 5, 9], "tail sorted, head untouched");
        // The substitute and host columns moved with their rows.
        assert_eq!(db.get(2).substitute, Some(&sub(3)));
        assert_eq!(db.get(3).substitute, Some(&sub(3)));
        assert!(db.get(4).substitute.is_none());
        let hosts: Vec<_> = db.iter().map(|r| (r.host, r.category)).collect();
        assert_eq!(hosts, [BYU, QQ, BYU, BYU, BYU, QQ]);
        let fail_imps: Vec<u64> = db.failures().iter().map(|f| f.impression).collect();
        assert_eq!(fail_imps, [2, 7]);
    }

    #[test]
    fn merge_remaps_intern_ids_across_shards() {
        // Shard A interns X then Y; shard B interns Y then X — ids
        // disagree, logical contents must not.
        let mut a = Database::new();
        a.push(rec(0, Some(sub(1))));
        a.push(rec(1, Some(sub(2))));
        let mut b = Database::new();
        b.push(rec(2, Some(sub(2))));
        b.push(rec(3, Some(sub(1))));
        a.merge(b);
        assert_eq!(a.len(), 4);
        assert_eq!(a.distinct_substitutes(), 2, "shared chains stored once after merge");
        assert_eq!(a.get(0).substitute, Some(&sub(1)));
        assert_eq!(a.get(2).substitute, Some(&sub(2)));
        assert_eq!(a.get(3).substitute, Some(&sub(1)));
    }

    #[test]
    fn merge_remaps_host_ids_across_shards() {
        // Shard A sees BYU then QQ; shard B sees QQ then BYU, so each
        // numbers the pairs the other way round.
        let rows = [(0, BYU), (1, QQ), (2, QQ), (3, BYU), (4, QQ)];
        let mut a = Database::new();
        let mut b = Database::new();
        for &(imp, pair) in &rows {
            let shard = if imp < 2 { &mut a } else { &mut b };
            shard.push(rec_at(imp, pair));
        }
        a.merge(b);
        let in_order = Database::from_records(rows.iter().map(|&(imp, pair)| rec_at(imp, pair)));
        assert_eq!(a, in_order);
        for (i, &(imp, pair)) in rows.iter().enumerate() {
            let r = a.get(i);
            assert_eq!((r.impression, r.host, r.category), (imp, pair.0, pair.1), "row {i}");
        }
    }

    #[test]
    fn equality_is_logical_not_physical() {
        // Same records, different intern-id orders (push order differs
        // only in which evidence appears first among equal-impression
        // pushes): databases must still compare equal record-wise.
        let mut a = Database::new();
        a.push(rec(0, Some(sub(1))));
        a.push(rec(1, Some(sub(2))));
        let mut c = Database::new();
        let mut shard = Database::new();
        shard.push(rec(0, Some(sub(1))));
        c.merge(shard);
        c.push(rec(1, Some(sub(2))));
        assert_eq!(a, c);

        let mut d = Database::new();
        d.push(rec(0, Some(sub(1))));
        d.push(rec(1, Some(sub(3))));
        assert_ne!(a, d, "different evidence must break equality");
    }
}
