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
//!   (including the captured DER chain) arrives as an `Arc` and is
//!   deduplicated through an interning table: records store a `u32` id,
//!   and the ~40 study-1 / ~918 study-2 distinct substitute chains are
//!   stored **once** instead of once per proxied record. The table keeps
//!   the `Arc` it was first handed, which the report server's ingest
//!   memo also holds, so memo and store share one copy, and a repeated
//!   upload of that evidence is found by pointer before any content is
//!   hashed. Peak RSS becomes sublinear in proxied traffic
//!   (`exp_million` measures the ratio).
//! * **Chunked growth** — each column keeps its rows in fixed chunks of
//!   4,096 rows, each allocated at full size when its first row arrives
//!   and never moved, so a push never reallocates or copies a row. A
//!   doubling `Vec` ends a drive with up to twice the capacity its rows
//!   need (study 1 at scale 8: 309,086 rows in a 524,288-row capacity,
//!   14.2 MB where the rows need 8.3 MB), and the copy of each doubling
//!   needs old and new buffer at once. Chunked, a store holds its rows
//!   plus less than one chunk per column (27 bytes × 4,096 rows,
//!   108 KiB) and a chunk table per column. The widest chunk (`u64`
//!   impressions) is 32 KiB, under glibc's 128 KiB `mmap` threshold, so
//!   chunks come from the main heap. [`Database::merge`] frees each of
//!   the other shard's chunks as soon as its rows are appended, so a
//!   merge never holds a second copy of a shard.
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
use std::iter::{Copied, Flatten};
use std::sync::Arc;

use tlsfoe_crypto::memo::WordState;
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
/// back yields borrowed [`RecordView`]s instead. Equality compares the
/// evidence by content, never by pointer.
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
    /// Substitute evidence (present iff `proxied`), shared with the
    /// ingest memo that built it.
    pub substitute: Option<Arc<SubstituteInfo>>,
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
            substitute: self.substitute.cloned().map(Arc::new),
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
///
/// Before any content is hashed, an incoming `Arc` is looked up by
/// address among the `Arc`s the table keeps: the ingest memo hands out
/// clones of the one `Arc` it built, so every repeat of stored evidence
/// is one map probe. Only the addresses of kept `Arc`s are recorded. A
/// kept `Arc` cannot be freed while the table holds it, so its address
/// names its content; the address of an `Arc` the table drops could be
/// reused by other content.
#[derive(Debug, Default)]
struct SubstituteInterner {
    entries: Vec<Arc<SubstituteInfo>>,
    index: HashMap<u64, Vec<u32>>,
    /// Address of each kept `Arc` → its id.
    by_addr: HashMap<usize, u32, WordState>,
}

fn fingerprint(info: &SubstituteInfo) -> u64 {
    // SipHash with fixed keys: deterministic within a process, and only
    // used as a bucket index — equality always confirms.
    let mut h = std::collections::hash_map::DefaultHasher::new();
    info.hash(&mut h);
    h.finish()
}

impl SubstituteInterner {
    fn intern(&mut self, info: Arc<SubstituteInfo>) -> u32 {
        let addr = Arc::as_ptr(&info) as usize;
        if let Some(&id) = self.by_addr.get(&addr) {
            return id;
        }
        let bucket = self.index.entry(fingerprint(&info)).or_default();
        let entries = &self.entries;
        let stored = |&id: &u32| entries.get(id as usize).is_some_and(|e| **e == *info);
        if let Some(id) = bucket.iter().copied().find(stored) {
            return id;
        }
        let id = u32::try_from(self.entries.len()).expect("interner capacity");
        assert!(id != SUB_NONE, "interner full");
        self.entries.push(info);
        bucket.push(id);
        self.by_addr.insert(addr, id);
        id
    }

    fn get(&self, id: u32) -> Option<&SubstituteInfo> {
        self.entries.get(id as usize).map(|info| &**info)
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

/// Rows per column chunk: 32 KiB of the widest column (`u64`).
const CHUNK: usize = 4096;

/// A column's rows in order, chunk by chunk.
type ColumnIter<'a, T> = Copied<Flatten<std::slice::Iter<'a, Vec<T>>>>;

/// One column of a [`Database`]: its rows in chunks of [`CHUNK`] rows,
/// each allocated at full capacity by the push of its first row and
/// never grown or moved. Every chunk but the last is full.
#[derive(Debug)]
struct Column<T> {
    chunks: Vec<Vec<T>>,
}

impl<T> Default for Column<T> {
    fn default() -> Column<T> {
        Column { chunks: Vec::new() }
    }
}

impl<T: Copy> Column<T> {
    fn len(&self) -> usize {
        self.chunks.last().map_or(0, |last| (self.chunks.len() - 1) * CHUNK + last.len())
    }

    fn push(&mut self, value: T) {
        match self.chunks.last_mut() {
            Some(last) if last.len() < CHUNK => last.push(value),
            _ => {
                let mut chunk = Vec::with_capacity(CHUNK);
                chunk.push(value);
                self.chunks.push(chunk);
            }
        }
    }

    fn get(&self, i: usize) -> T {
        self.chunks[i / CHUNK][i % CHUNK]
    }

    fn set(&mut self, i: usize, value: T) {
        self.chunks[i / CHUNK][i % CHUNK] = value;
    }

    fn iter(&self) -> ColumnIter<'_, T> {
        self.chunks.iter().flatten().copied()
    }

    /// Apply the permutation `order` (offsets from `start`) to the rows
    /// from `start` on: row `start + k` takes row `start + order[k]`.
    /// The rows may span a chunk boundary.
    fn permute_tail(&mut self, start: usize, order: &[u32]) {
        let sorted: Vec<T> = order.iter().map(|&i| self.get(start + i as usize)).collect();
        for (k, value) in sorted.into_iter().enumerate() {
            self.set(start + k, value);
        }
    }

    /// Append `other`'s rows mapped through `f`, freeing each of its
    /// chunks once its rows are appended.
    fn append<U>(&mut self, other: Column<U>, mut f: impl FnMut(U) -> T) {
        for chunk in other.chunks {
            for value in chunk {
                self.push(f(value));
            }
        }
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
    impressions: Column<u64>,
    client_ips: Column<Ipv4>,
    countries: Column<Option<CountryCode>>,
    /// Host id per record, into `host_dict`.
    host_ids: Column<u16>,
    proxied_col: Column<bool>,
    attempts_col: Column<u32>,
    /// Intern id per record (`SUB_NONE` = no evidence).
    substitute_ids: Column<u32>,
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
    /// repeat of the stored `Arc` costs one address probe and a `u32`; a
    /// content-equal copy, one hash probe and a comparison).
    ///
    /// Returns the evidence `Arc` the store keeps for the record: the
    /// one pushed, or an earlier content-equal one. A caller that hands
    /// the same evidence out again should hand out this one, which the
    /// next push finds by address.
    pub fn push(&mut self, r: MeasurementRecord) -> Option<Arc<SubstituteInfo>> {
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
        self.intern.entries.get(id as usize).cloned()
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
        self.len() == 0
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
        let (host, category) = self.host_dict.get(self.host_ids.get(i));
        RecordView {
            impression: self.impressions.get(i),
            client_ip: self.client_ips.get(i),
            country: self.countries.get(i),
            host,
            category,
            proxied: self.proxied_col.get(i),
            substitute: self.intern.get(self.substitute_ids.get(i)),
            attempts: self.attempts_col.get(i),
        }
    }

    /// Streaming cursor over all records, append order.
    pub fn iter(&self) -> Records<'_> {
        Records {
            db: self,
            left: self.len(),
            impressions: self.impressions.iter(),
            client_ips: self.client_ips.iter(),
            countries: self.countries.iter(),
            host_ids: self.host_ids.iter(),
            proxied: self.proxied_col.iter(),
            attempts: self.attempts_col.iter(),
            substitute_ids: self.substitute_ids.iter(),
        }
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
        self.intern.entries.iter().map(|info| info.chain_bytes()).sum()
    }

    /// Captured DER bytes a row-wise store would hold (each proxied
    /// record dragging its own chain copy). The ratio against
    /// [`Database::interned_chain_bytes`] is the dedup factor
    /// `exp_million` reports.
    pub fn logical_chain_bytes(&self) -> u64 {
        self.substitute_ids
            .iter()
            .filter_map(|id| self.intern.get(id))
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
            let imps: Vec<u64> = (start..self.len()).map(|i| self.impressions.get(i)).collect();
            let mut order: Vec<u32> = (0..tail as u32).collect();
            order.sort_by_key(|&i| imps[i as usize]);
            if !order.windows(2).all(|w| w[0] < w[1]) {
                self.impressions.permute_tail(start, &order);
                self.client_ips.permute_tail(start, &order);
                self.countries.permute_tail(start, &order);
                self.host_ids.permute_tail(start, &order);
                self.proxied_col.permute_tail(start, &order);
                self.attempts_col.permute_tail(start, &order);
                self.substitute_ids.permute_tail(start, &order);
            }
        }
        self.failures[mark.failures..].sort_by_key(|f| (f.impression, f.host));
    }

    /// Merge another database (for sharded studies): columns are
    /// concatenated in shard order, and the other shard's evidence is
    /// re-interned and its hosts looked up in this store's dictionary,
    /// so chains minted by several shards end up stored once and id
    /// divergence between shards cannot leak into the merged store.
    /// Each of the other shard's column chunks is freed as soon as its
    /// rows are appended, so the merge holds at most about one chunk
    /// per column beyond the two shards' rows.
    pub fn merge(&mut self, other: Database) {
        let host_remap: Vec<u16> =
            other.host_dict.entries.into_iter().map(|(h, c)| self.host_dict.id(h, c)).collect();
        self.host_ids.append(other.host_ids, |id| host_remap[usize::from(id)]);
        let remap: Vec<u32> =
            other.intern.entries.into_iter().map(|info| self.intern.intern(info)).collect();
        self.substitute_ids.append(other.substitute_ids, |id| {
            if id == SUB_NONE {
                SUB_NONE
            } else {
                remap[id as usize]
            }
        });
        self.impressions.append(other.impressions, |v| v);
        self.client_ips.append(other.client_ips, |v| v);
        self.countries.append(other.countries, |v| v);
        self.proxied_col.append(other.proxied_col, |v| v);
        self.attempts_col.append(other.attempts_col, |v| v);
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

/// Iterator of [`RecordView`]s over a [`Database`], append order. It
/// walks each column chunk by chunk, so a row costs one step per column
/// where [`Database::get`] looks its chunk up in every column.
#[derive(Debug, Clone)]
pub struct Records<'a> {
    db: &'a Database,
    /// Records not yet yielded.
    left: usize,
    impressions: ColumnIter<'a, u64>,
    client_ips: ColumnIter<'a, Ipv4>,
    countries: ColumnIter<'a, Option<CountryCode>>,
    host_ids: ColumnIter<'a, u16>,
    proxied: ColumnIter<'a, bool>,
    attempts: ColumnIter<'a, u32>,
    substitute_ids: ColumnIter<'a, u32>,
}

impl<'a> Iterator for Records<'a> {
    type Item = RecordView<'a>;

    fn next(&mut self) -> Option<RecordView<'a>> {
        let (host, category) = self.db.host_dict.get(self.host_ids.next()?);
        self.left -= 1;
        Some(RecordView {
            impression: self.impressions.next()?,
            client_ip: self.client_ips.next()?,
            country: self.countries.next()?,
            host,
            category,
            proxied: self.proxied.next()?,
            substitute: self.db.intern.get(self.substitute_ids.next()?),
            attempts: self.attempts.next()?,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Records<'_> {}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use tlsfoe_crypto::drbg::{Drbg, RngCore64};

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
            substitute: substitute.map(Arc::new),
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
    fn interning_by_address_agrees_with_a_content_only_reference() {
        // DRBG-drawn pushes of evidence from a pool of six contents: a
        // clone of the `Arc` the store keeps for its content (found by
        // address), a fresh content-equal `Arc` (found by content, then
        // dropped), or an `Arc` the store drops followed at once by one
        // with other content, which the allocator places at the freed
        // address. The store must read back what a content-only
        // reference holds and keep one entry per distinct content. An
        // interner that recorded the address of an `Arc` it dropped
        // would find the reallocation by address and return the wrong
        // evidence.
        /// The pushes so far: the store, each record's content, and the
        /// first `Arc` of each content, which the store keeps.
        struct Pushes {
            db: Database,
            reference: Vec<Option<SubstituteInfo>>,
            kept: [Option<Arc<SubstituteInfo>>; 6],
        }
        impl Pushes {
            fn push(&mut self, info: Option<Arc<SubstituteInfo>>) {
                let imp = self.reference.len() as u64;
                self.reference.push(info.as_deref().cloned());
                if let Some(info) = &info {
                    let tag = usize::from(info.leaf_key_fp[0]);
                    self.kept[tag].get_or_insert_with(|| info.clone());
                }
                let record = MeasurementRecord {
                    proxied: info.is_some(),
                    substitute: info,
                    ..rec(imp, None)
                };
                self.db.push(record);
            }
        }
        let mut rng = Drbg::new(0x4172_6300);
        let mut p = Pushes { db: Database::new(), reference: Vec::new(), kept: Default::default() };
        let mut reused = 0;
        for _ in 0..3_000 {
            let tag = rng.gen_range(6) as u8;
            match rng.gen_range(4) {
                0 => {
                    let stored = p.kept[usize::from(tag)].clone();
                    p.push(stored.or_else(|| Some(Arc::new(sub(tag)))));
                }
                1 => p.push(Some(Arc::new(sub(tag)))),
                2 => {
                    let dropped = Arc::new(sub(tag));
                    let addr = Arc::as_ptr(&dropped);
                    p.push(Some(dropped));
                    let other = Arc::new(sub((tag + 1 + rng.gen_range(5) as u8) % 6));
                    reused += usize::from(Arc::as_ptr(&other) == addr);
                    p.push(Some(other));
                }
                _ => p.push(None),
            }
        }
        let Pushes { db, reference, .. } = p;
        assert_eq!(db.len(), reference.len());
        for (i, want) in reference.iter().enumerate() {
            assert_eq!(db.get(i).substitute, want.as_ref(), "record {i}");
        }
        assert_eq!(db.distinct_substitutes(), 6);
        // Without reused addresses the address rule would go untested.
        assert!(reused > 100, "only {reused} reallocations reused a freed address");
    }

    #[test]
    fn column_chunks_are_allocated_whole_and_never_move() {
        // A chunk allocated below full capacity grows, and may move, as
        // its rows arrive; a chunk table holding rows inline moves them
        // whenever it grows. Either mutation fails here.
        let mut col = Column::default();
        col.push(0u64);
        assert_eq!(col.chunks[0].capacity(), CHUNK);
        let first = col.chunks[0].as_ptr();
        for v in 1..3 * CHUNK as u64 {
            col.push(v);
        }
        assert_eq!((col.chunks.len(), col.len()), (3, 3 * CHUNK));
        assert_eq!(col.chunks[0].as_ptr(), first, "the first chunk moved");
        assert!(col.iter().eq(0..3 * CHUNK as u64));
    }

    #[test]
    fn chunked_store_matches_a_row_vec_reference() {
        // DRBG-drawn pushes, with and without evidence (clones of kept
        // `Arc`s and fresh content-equal ones), into three stores whose
        // lengths are not multiples of `CHUNK`, in batches of up to 300
        // rows whose `finish_batch` tails straddle chunk boundaries; the
        // stores are then merged. A `Vec<MeasurementRecord>` reference
        // gets the same stable sorts and concatenation, and the store
        // must read back exactly that, by `to_record` and as JSONL. In a
        // scratch copy this fails for a tail permutation that stops at
        // the end of a chunk, a `len` that counts the last chunk as full,
        // and a merge that skips the other shard's partial last chunk.
        let mut rng = Drbg::new(0x00C4_0017);
        let pool: Vec<Arc<SubstituteInfo>> = (0..6).map(|t| Arc::new(sub(t))).collect();
        let countries = ["US", "BR", "DE"].map(tlsfoe_geo::countries::by_code);
        let mut shards = Vec::new();
        let mut reference: Vec<MeasurementRecord> = Vec::new();
        let mut straddles = 0;
        for len in [CHUNK + 1_234, 2 * CHUNK + 7, 3 * CHUNK - 100] {
            let mut db = Database::new();
            let mut rows: Vec<MeasurementRecord> = Vec::new();
            while rows.len() < len {
                let (mark, start) = (db.mark(), rows.len());
                let n = (1 + rng.gen_range(300) as usize).min(len - start);
                straddles += usize::from(start / CHUNK != (start + n - 1) / CHUNK);
                for _ in 0..n {
                    let tag = rng.gen_range(6) as usize;
                    let substitute = match rng.gen_range(6) {
                        0 => Some(pool[tag].clone()),
                        1 => Some(Arc::new(sub(tag as u8))),
                        _ => None,
                    };
                    let pair = if rng.gen_range(2) == 0 { QQ } else { BYU };
                    let r = MeasurementRecord {
                        client_ip: Ipv4([11, 0, rng.gen_range(256) as u8, 1]),
                        country: countries[rng.gen_range(3) as usize],
                        proxied: substitute.is_some(),
                        substitute,
                        attempts: 1 + rng.gen_range(3) as u32,
                        ..rec_at(start as u64 + rng.gen_range(n as u64), pair)
                    };
                    rows.push(r.clone());
                    db.push(r);
                }
                db.finish_batch(mark);
                rows[start..].sort_by_key(|r| r.impression);
            }
            assert_eq!(db.iter().map(|r| r.to_record()).collect::<Vec<_>>(), rows);
            shards.push(db);
            reference.extend(rows);
        }
        assert!(straddles >= 5, "only {straddles} batch tails straddled a chunk boundary");
        let mut shards = shards.into_iter();
        let mut db = shards.next().unwrap();
        shards.for_each(|shard| db.merge(shard));
        assert_eq!(db.len(), reference.len());
        for (i, want) in reference.iter().enumerate() {
            assert_eq!(&db.get(i).to_record(), want, "record {i}");
        }
        let one_row_jsonl: String =
            reference.iter().map(|r| Database::from_records([r.clone()]).to_jsonl()).collect();
        assert_eq!(db.to_jsonl(), one_row_jsonl);
        let proxied: Vec<&SubstituteInfo> =
            reference.iter().filter_map(|r| r.substitute.as_deref()).collect();
        assert_eq!(db.proxied(), proxied.len() as u64);
        let chain_bytes: u64 = proxied.iter().map(|s| s.chain_bytes()).sum();
        assert_eq!(db.logical_chain_bytes(), chain_bytes);
        assert_eq!(db.distinct_substitutes(), 6);
        assert_eq!(db, Database::from_records(reference));
    }

    #[test]
    fn finish_batch_stable_sorts_by_impression() {
        let mut db = Database::new();
        db.push(rec(0, None));
        let mark = db.mark();
        for imp in [5u64, 3, 9, 3, 1] {
            let pair = if imp == 9 || imp == 1 { QQ } else { BYU };
            db.push(MeasurementRecord {
                substitute: (imp == 3).then(|| Arc::new(sub(imp as u8))),
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
