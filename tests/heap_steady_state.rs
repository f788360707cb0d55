//! A repeated study leaves no heap behind.
//!
//! A process's first study legitimately fills process-wide caches: the
//! key cache, the host catalogs, the shared substitute-chain cache, the
//! Montgomery-context memo and the country registry's tail names. A second identical study
//! finds them full, so every byte it allocates must be freed by the time
//! its outcome is dropped. A lookup that allocates a fresh `'static`
//! copy on every call shows up here as a non-zero live-byte delta across
//! the second run.
//!
//! The same allocator counts allocation calls, and a repeated 1-thread
//! study must stay inside an allocation budget per impression: the
//! session path (policy fetch, TLS probe, PEM upload and ingest) runs
//! once per impression, so a per-session copy that creeps back in shows
//! up as calls per impression.
//!
//! This binary has its own counting global allocator and a single test,
//! so no sibling test allocates while a run is measured.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

use tlsfoe::core::session::RetryPolicy;
use tlsfoe::core::study::{run_study, StudyConfig};
use tlsfoe::netsim::FaultProfile;

/// Bytes currently allocated through [`Counting`]: allocated − freed,
/// with each `realloc` adding its size delta.
static LIVE: AtomicI64 = AtomicI64::new(0);
/// Calls to `alloc` and `alloc_zeroed`.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Calls to `realloc`.
static REALLOCS: AtomicU64 = AtomicU64::new(0);

struct Counting;

fn add(delta: i64) {
    LIVE.fetch_add(delta, Ordering::SeqCst);
}

fn bytes(n: usize) -> i64 {
    i64::try_from(n).unwrap_or(i64::MAX)
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and only updates counters on the side.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        let p = System.alloc(layout);
        if !p.is_null() {
            add(bytes(layout.size()));
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
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
        REALLOCS.fetch_add(1, Ordering::SeqCst);
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            add(bytes(new_size) - bytes(layout.size()));
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Small enough for a debug build, large enough (≥256 impressions) that
/// a 2-thread run really shards.
const SCALE: u32 = 4_000;

/// Allocator calls (allocations plus reallocations) per impression
/// that the 1-thread drives may make: fault-free, under faults and
/// retries, and fault-free with interception boosted (proxies, minting
/// and substitute uploads on about a quarter of the probes). Measured
/// 10.03 + 0.61, 13.66 + 0.72 and 14.53 + 0.90 per impression (debug
/// and release count the same), with 12–14% headroom.
const CALLS_PER_IMPRESSION: f64 = 12.0;
const CHAOS_CALLS_PER_IMPRESSION: f64 = 16.2;
const BOOSTED_CALLS_PER_IMPRESSION: f64 = 17.5;

/// What the second of two runs of `cfg` did to the heap; the first run
/// fills the process-wide caches.
struct SecondRun {
    /// Live bytes left once its outcome is dropped.
    residue: i64,
    allocs: u64,
    reallocs: u64,
    impressions: u64,
}

fn second_run(cfg: &StudyConfig) -> SecondRun {
    drop(run_study(cfg).expect("first run"));
    let live = LIVE.load(Ordering::SeqCst);
    let allocs = ALLOCS.load(Ordering::SeqCst);
    let reallocs = REALLOCS.load(Ordering::SeqCst);
    let outcome = run_study(cfg).expect("second run");
    let impressions = outcome.impressions();
    drop(outcome);
    SecondRun {
        residue: LIVE.load(Ordering::SeqCst) - live,
        allocs: ALLOCS.load(Ordering::SeqCst) - allocs,
        reallocs: REALLOCS.load(Ordering::SeqCst) - reallocs,
        impressions,
    }
}

#[test]
fn repeated_study_leaves_no_live_heap() {
    // Proxies, minting, the substitute cache and two shards.
    let boosted = StudyConfig { proxy_boost: 60.0, threads: 2, ..StudyConfig::study1(SCALE, 2014) };
    // The same impressions under chaos_retry's faults: timers, retries
    // and the failure-record path.
    let chaos = |cfg: StudyConfig| StudyConfig {
        faults: FaultProfile::uniform(0.05),
        retry: RetryPolicy::standard(),
        shard_fault_budget: u64::MAX,
        ..cfg
    };
    for (name, cfg) in [("boosted study 1", boosted.clone()), ("chaos study 1", chaos(boosted))] {
        let residue = second_run(&cfg).residue;
        assert_eq!(residue, 0, "{name}: the second run left {residue} live heap bytes");
    }
    // The allocation budget. One thread, because at two the shards race
    // to fill the memos and the counts vary from run to run.
    let plain = StudyConfig { threads: 1, ..StudyConfig::study1(SCALE, 2014) };
    for (name, cfg, budget) in [
        ("study 1", plain.clone(), CALLS_PER_IMPRESSION),
        (
            "boosted study 1",
            StudyConfig { proxy_boost: 60.0, ..plain.clone() },
            BOOSTED_CALLS_PER_IMPRESSION,
        ),
        ("chaos study 1", chaos(plain), CHAOS_CALLS_PER_IMPRESSION),
    ] {
        let run = second_run(&cfg);
        assert!(run.impressions > 0, "{name}: no impressions");
        let per = |n: u64| n as f64 / run.impressions as f64;
        let calls = per(run.allocs + run.reallocs);
        eprintln!(
            "{name}: {} impressions, {:.2} allocations + {:.2} reallocations per impression",
            run.impressions,
            per(run.allocs),
            per(run.reallocs)
        );
        assert!(
            calls <= budget,
            "{name}: {calls:.2} allocator calls per impression, budget {budget}"
        );
        assert_eq!(run.residue, 0, "{name}: the second run left {} live heap bytes", run.residue);
    }
}
