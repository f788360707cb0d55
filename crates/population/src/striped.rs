//! A lock-striped concurrent map with exactly-once insertion.
//!
//! The shared machinery behind the two process-level caches whose
//! values are pure functions of their keys: the substitute-chain cache
//! ([`crate::cache::SubstituteCache`]) and the RSA key cache
//! ([`crate::keys`]). Keys hash to one of [`SHARDS`] independent
//! `Mutex<HashMap>` stripes, each mapping a key to its own
//! `Arc<OnceLock<V>>` cell. A lookup holds the stripe lock only to find
//! or insert the cell and computes the value **outside** it, inside the
//! cell's `OnceLock`: racing misses on one key still build its value
//! exactly once (the property that keeps mint/generation counters
//! exact), while misses on *different* keys compute in parallel even
//! when they share a stripe.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Number of lock stripes. Plenty for the catalog's ~40 products × 18
/// hosts (or the study's few hundred keys) spread across typical core
/// counts.
pub const SHARDS: usize = 16;

/// One key's value, built at most once by whichever lookup gets there
/// first.
type KeyCell<V> = Arc<OnceLock<V>>;

/// The striped map. `V` is expected to be cheap to clone (an `Arc` or a
/// small struct of `Arc`s) — lookups hand out clones.
#[derive(Debug)]
pub struct Striped<K, V> {
    shards: [Mutex<HashMap<K, KeyCell<V>>>; SHARDS],
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<K: Eq + Hash, V: Clone> Striped<K, V> {
    /// An empty map.
    pub fn new() -> Striped<K, V> {
        Striped {
            shards: std::array::from_fn(|_| Mutex::new(HashMap::new())),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &K) -> &Mutex<HashMap<K, KeyCell<V>>> {
        use std::hash::Hasher;
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % SHARDS]
    }

    /// Fetch the value for `key`, computing it with `make` on a miss.
    ///
    /// The stripe lock is held only to find or insert `key`'s cell;
    /// `make` runs outside it, so it blocks nothing but concurrent
    /// lookups of the *same* key, which wait for its value instead of
    /// building a second one. Exactly one lookup per key runs `make` and
    /// counts a miss; every other lookup counts a hit.
    pub fn get_or_insert_with(&self, key: K, make: impl FnOnce() -> V) -> V {
        let cell = {
            let mut shard = self.shard(&key).lock().expect("striped map poisoned");
            shard.entry(key).or_default().clone()
        };
        let mut made = false;
        let value = cell
            .get_or_init(|| {
                made = true;
                make()
            })
            .clone();
        let counter = if made { &self.misses } else { &self.hits };
        counter.fetch_add(1, Ordering::Relaxed);
        value
    }

    /// Number of distinct keys cached.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().expect("striped map poisoned").len()).sum()
    }

    /// True when nothing has been inserted yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `(hits, misses)` counters (for warm/cold assertions in
    /// tests/benches). Counters accumulate across [`Striped::clear`].
    pub fn stats(&self) -> (u64, u64) {
        (self.hits.load(Ordering::Relaxed), self.misses.load(Ordering::Relaxed))
    }

    /// Drop every cached value (counters keep accumulating). For
    /// cold-cache benchmarks and tests; correctness never needs it when
    /// values are pure functions of their keys.
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().expect("striped map poisoned").clear();
        }
    }
}

impl<K: Eq + Hash, V: Clone> Default for Striped<K, V> {
    fn default() -> Striped<K, V> {
        Striped::new()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn computes_each_key_once() {
        let map: Striped<u32, u32> = Striped::new();
        let mut computed = 0;
        for _ in 0..3 {
            map.get_or_insert_with(7, || {
                computed += 1;
                42
            });
        }
        assert_eq!(computed, 1);
        assert_eq!(map.len(), 1);
        assert_eq!(map.stats(), (2, 1));
    }

    #[test]
    fn concurrent_misses_collapse_to_one_compute() {
        let map: Striped<u32, u32> = Striped::new();
        let computes = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for key in 0..16 {
                        map.get_or_insert_with(key % 4, || {
                            computes.fetch_add(1, Ordering::Relaxed);
                            key
                        });
                    }
                });
            }
        });
        assert_eq!(computes.load(Ordering::Relaxed), 4, "each key computed exactly once");
        assert_eq!(map.len(), 4);
    }

    #[test]
    fn misses_on_same_stripe_keys_compute_concurrently() {
        // Two different keys in one stripe: A's `make` stays in flight
        // until B's `make` has started. A map that computed under the
        // stripe lock would hold B at the lock until A gave up waiting,
        // so A would report the timeout (and the test fail) rather than
        // hang.
        let map: Striped<u32, bool> = Striped::new();
        let a = 0u32;
        let b = (1..).find(|k| std::ptr::eq(map.shard(k), map.shard(&a))).unwrap();
        let (a_started, a_started_rx) = mpsc::channel();
        let (b_started, b_started_rx) = mpsc::channel();
        let wait = Duration::from_secs(5);
        let map = &map;
        std::thread::scope(|s| {
            let first = s.spawn(move || {
                map.get_or_insert_with(a, || {
                    a_started.send(()).unwrap();
                    b_started_rx.recv_timeout(wait).is_ok()
                })
            });
            a_started_rx.recv_timeout(wait).expect("A's make must start");
            map.get_or_insert_with(b, || {
                // A's receiver is gone once it has timed out.
                let _ = b_started.send(());
                true
            });
            assert!(
                first.join().expect("A's lookup panicked"),
                "B's make must run while A's is in flight"
            );
        });
        assert_eq!(map.stats(), (0, 2), "one miss per key, no hits");
    }

    #[test]
    fn clear_keeps_counters() {
        let map: Striped<u32, u32> = Striped::new();
        map.get_or_insert_with(1, || 1);
        map.get_or_insert_with(1, || 1);
        map.clear();
        assert!(map.is_empty());
        assert_eq!(map.stats(), (1, 1), "clear must not reset statistics");
        map.get_or_insert_with(1, || 1);
        assert_eq!(map.stats(), (1, 2), "cleared key recomputes");
    }
}
