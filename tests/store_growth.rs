//! The measurement store grows in fixed chunks, never by copying.
//!
//! Each `Database` column keeps its rows in fixed chunks of 4,096 rows,
//! each allocated whole and never moved, so a store holds its rows plus
//! less than one chunk per column, plus one chunk table per column. A
//! merge frees each of the other shard's chunks as soon as its rows are
//! appended, so it holds no second copy of a shard. Columns that grow by
//! doubling end with up to twice the bytes their rows need (300,000 rows
//! in a 524,288-row capacity), and a merge into them doubles a capacity
//! while the other shard is still alive.
//!
//! This binary has its own counting global allocator, which also tracks
//! the peak of live bytes, and a single test, so no sibling test
//! allocates while the store is measured.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

use tlsfoe::core::store::{Database, MeasurementRecord, SubstituteInfo};
use tlsfoe::core::HostCategory;
use tlsfoe::geo::countries;
use tlsfoe::netsim::Ipv4;
use tlsfoe::x509::cert::SignatureAlgorithm;

/// Bytes currently allocated through [`Counting`]: allocated − freed,
/// with each `realloc` adding its size delta.
static LIVE: AtomicI64 = AtomicI64::new(0);
/// The highest value [`LIVE`] reached since the last [`start_peak`].
static PEAK: AtomicI64 = AtomicI64::new(0);

struct Counting;

fn add(delta: i64) {
    let live = LIVE.fetch_add(delta, Ordering::SeqCst) + delta;
    PEAK.fetch_max(live, Ordering::SeqCst);
}

fn bytes(n: usize) -> i64 {
    i64::try_from(n).unwrap_or(i64::MAX)
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and only updates counters on the side.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            add(bytes(layout.size()));
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            add(bytes(layout.size()));
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        add(-bytes(layout.size()));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            add(bytes(new_size) - bytes(layout.size()));
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Records pushed, about the 309,086 of `bulk_sessions`' study.
const ROWS: u64 = 300_000;
/// Bytes per row over the seven columns: impression 8, client address
/// 4, country 4, host id 2, proxied 1, attempts 4 and evidence id 4.
const ROW_BYTES: i64 = 27;
/// Rows per column chunk.
const CHUNK_ROWS: i64 = 4_096;
const COLUMNS: i64 = 7;

/// Restart the peak from the current live bytes, and return them.
fn start_peak() -> i64 {
    let live = LIVE.load(Ordering::SeqCst);
    PEAK.store(live, Ordering::SeqCst);
    live
}

/// Bytes of the seven chunk tables of a `rows`-row store: a table of
/// `n` chunks holds at most `2n` chunk handles, 24 bytes each.
fn chunk_tables(rows: u64) -> i64 {
    let chunks = i64::try_from(rows).unwrap_or(i64::MAX) / CHUNK_ROWS + 1;
    COLUMNS * 2 * chunks * std::mem::size_of::<Vec<u64>>() as i64
}

#[test]
fn store_holds_its_rows_plus_a_chunk_per_column_and_merges_without_a_copy() {
    let evidence = Arc::new(SubstituteInfo {
        issuer_org: Some("Bitdefender".into()),
        issuer_cn: None,
        key_bits: 1024,
        sig_alg: SignatureAlgorithm::Sha256WithRsa,
        subject_cn: Some("tlsresearch.byu.edu".into()),
        covers_host: true,
        leaf_key_fp: [7; 32],
        chain_der: vec![vec![7; 900], vec![8; 1100]],
    });
    let us = countries::by_code("US");
    // One row in 400 is proxied, each with a clone of the same `Arc`,
    // so only the columns grow with the row count.
    let record = |i: u64| MeasurementRecord {
        impression: i,
        client_ip: Ipv4([11, 0, (i >> 8) as u8, i as u8]),
        country: us,
        host: "tlsresearch.byu.edu",
        category: HostCategory::Authors,
        proxied: i.is_multiple_of(400),
        substitute: i.is_multiple_of(400).then(|| evidence.clone()),
        attempts: 1,
    };

    let before = start_peak();
    let db = Database::from_records((0..ROWS).map(record));
    let held = LIVE.load(Ordering::SeqCst) - before;
    let peak = PEAK.load(Ordering::SeqCst) - before;
    let rows = i64::try_from(ROWS).unwrap_or(i64::MAX) * ROW_BYTES;
    let budget = rows + CHUNK_ROWS * ROW_BYTES + chunk_tables(ROWS);
    eprintln!(
        "{ROWS} rows: {held} bytes held, peak {peak} ({:.3}x the {rows} row bytes), budget {budget}",
        peak as f64 / rows as f64
    );
    assert_eq!(db.len() as u64, ROWS);
    assert!(peak <= budget, "building the store peaked at {peak} live bytes, budget {budget}");
    drop(db);

    // Two shards of half the rows each, merged: the shards' own chunks
    // are counted before the merge, which may add only the chunk its
    // appends are filling in each column and the grown chunk tables.
    let mut first = Database::from_records((0..ROWS / 2).map(record));
    let second = Database::from_records((ROWS / 2..ROWS).map(record));
    let before = start_peak();
    first.merge(second);
    let peak = PEAK.load(Ordering::SeqCst) - before;
    let budget = CHUNK_ROWS * ROW_BYTES + chunk_tables(ROWS);
    eprintln!("merging two {}-row shards: peak {peak} bytes above both, budget {budget}", ROWS / 2);
    assert_eq!(first.len() as u64, ROWS);
    assert_eq!(first.get(ROWS as usize - 1).impression, ROWS - 1);
    assert!(peak <= budget, "the merge peaked {peak} bytes above both shards, budget {budget}");
}
