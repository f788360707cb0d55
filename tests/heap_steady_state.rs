//! A repeated study leaves no heap behind.
//!
//! A process's first study legitimately fills process-wide caches: the
//! key cache, the shared substitute-chain cache, the Montgomery-context
//! memo and the country registry's tail names. A second identical study
//! finds them full, so every byte it allocates must be freed by the time
//! its outcome is dropped. A lookup that allocates a fresh `'static`
//! copy on every call shows up here as a non-zero live-byte delta across
//! the second run.
//!
//! This binary has its own counting global allocator and a single test,
//! so no sibling test allocates while a run is measured.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

use tlsfoe::core::session::RetryPolicy;
use tlsfoe::core::study::{run_study, StudyConfig};
use tlsfoe::netsim::FaultProfile;

/// Bytes currently allocated through [`Counting`]: allocated − freed,
/// with each `realloc` adding its size delta.
static LIVE: AtomicI64 = AtomicI64::new(0);

struct Counting;

fn add(delta: i64) {
    LIVE.fetch_add(delta, Ordering::SeqCst);
}

fn bytes(n: usize) -> i64 {
    i64::try_from(n).unwrap_or(i64::MAX)
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and only updates a counter on the side.
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

/// Small enough for a debug build, large enough (≥256 impressions) that
/// a 2-thread run really shards.
const SCALE: u32 = 4_000;

/// Live bytes a second run of `cfg` leaves behind once its outcome is
/// dropped; the first run fills the process-wide caches.
fn second_run_residue(cfg: &StudyConfig) -> i64 {
    drop(run_study(cfg).expect("first run"));
    let before = LIVE.load(Ordering::SeqCst);
    drop(run_study(cfg).expect("second run"));
    LIVE.load(Ordering::SeqCst) - before
}

#[test]
fn repeated_study_leaves_no_live_heap() {
    // Proxies, minting, the substitute cache and two shards.
    let boosted = StudyConfig { proxy_boost: 60.0, threads: 2, ..StudyConfig::study1(SCALE, 2014) };
    // The same impressions under chaos_retry's faults: timers, retries
    // and the failure-record path.
    let chaos = StudyConfig {
        faults: FaultProfile::uniform(0.05),
        retry: RetryPolicy::standard(),
        shard_fault_budget: u64::MAX,
        ..boosted.clone()
    };
    for (name, cfg) in [("boosted study 1", boosted), ("chaos study 1", chaos)] {
        let residue = second_run_residue(&cfg);
        assert_eq!(residue, 0, "{name}: the second run left {residue} live heap bytes");
    }
}
