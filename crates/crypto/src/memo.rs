//! A bounded, lock-striped memo: the one cache type behind every
//! memoized pure function in the workspace — RSA keygen per
//! `(seed, bits)` (`tlsfoe_population::keys`), substitute minting per
//! site (`tlsfoe_population::cache`), Montgomery contexts per modulus
//! ([`crate::ctxcache`]), upstream-chain validation
//! (`tlsfoe_x509::VerifyMemo`) and upload classification
//! (`tlsfoe_core::report`). Every cached value is a pure function of its
//! key, so a memo changes when work is paid, never what a caller sees.
//!
//! A key is hashed once with [`key_hash`], the fixed word-at-a-time
//! [`WordHasher`] defined here. The hash picks one of 16
//! `Mutex<HashMap<u64, Vec<(K, cell)>>>` stripes by its low bits; the
//! stripe map hashes it again with the same hasher, whose final
//! avalanche spreads every bucket bit, so the keys of one stripe do not
//! all share the bucket bits that chose the stripe. A hit is confirmed
//! by full key equality, never by the hash alone. Lookups borrow
//! (`K: Borrow<Q>`), so a `Memo<Vec<u8>, V>` is probed with a `&[u8]`
//! and a hit allocates nothing.
//!
//! Why this hash. The ingest memo's key is a whole upload body (a
//! study-1 chain is 1,811 bytes of PEM), so its key hash runs over
//! every byte of every substitute or damaged upload; the report server
//! recognises a host's own genuine body, nearly every upload, without
//! the memo. Every lookup in the other memos hashes its key too
//! (moduli, key specs, substitute keys, upstream chains). std's
//! [`DefaultHasher`](std::collections::hash_map::DefaultHasher)
//! (SipHash-1-3) runs a SipRound per 8-byte word, each waiting on the
//! last; [`WordHasher`] runs four independent 8-byte multiply-rotate
//! lanes, so the four multiplies of a 32-byte block overlap, and ends
//! with MurmurHash3's 64-bit avalanche.
//! `exp_perf` gates the ratio on a 1,811-byte study-1 chain body
//! (`series.ingest.siphash_over_key_hash`). The hash is fixed: it has
//! no per-process key, so a key hashes the same in every process and
//! every run. That gives up SipHash's resistance to keys crafted to
//! collide, which the memo does not need: full key equality confirms
//! every hit, and the cap bounds a crafted collision chain (below).
//!
//! The one eviction rule is to stop inserting at the cap: past `cap`
//! keys a miss computes its value and returns it unstored, so memory
//! stays bounded under a flood of distinct inputs (a chaos run spraying
//! corrupted bodies), and keys crafted to collide under the fixed hash
//! cost at most a `cap`-long scan. Two fills share the structure:
//! [`Memo::get_or_insert_with`] (exactly once per key, for keygen and
//! minting, whose counters must stay exact) and
//! [`Memo::get_or_try_insert_with`] (fallible; errors are never stored).

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// Number of lock stripes per memo.
const STRIPES: usize = 16;

/// One key's value, built at most once by whichever fill gets there
/// first.
type Cell<V> = Arc<OnceLock<V>>;

/// Hash → the keys sharing that hash, each with its cell.
type Stripe<K, V> = HashMap<u64, Vec<(K, Cell<V>)>, WordState>;

/// Lane multipliers: odd 64-bit constants with well-spread bits (the
/// golden ratio's and xxHash's primes).
const K_A: u64 = 0x9E37_79B9_7F4A_7C15;
const K_B: u64 = 0xC2B2_AE3D_27D4_EB4F;
const K_C: u64 = 0x1656_67B1_9E37_79F9;
const K_D: u64 = 0x85EB_CA77_C2B2_AE63;

/// A fixed, word-at-a-time [`Hasher`]: the hash of every [`Memo`] key
/// and of the maps on the session path (netsim's per-client tables,
/// the report server's hosts, a session runner's batch sets).
///
/// [`Hasher::write`] feeds 32-byte blocks to four independent lanes, 8
/// bytes each, as `lane = ((lane ^ word) * K).rotate_left(29)`; leftover
/// whole words go to the first lane and the last 1–7 bytes, zero-padded,
/// to the second. Integers are one word into the first lane.
/// [`Hasher::finish`] adds the rotated lanes, folds in the byte count
/// and applies MurmurHash3's 64-bit finalizer, so every output bit
/// depends on every lane. There is no random key: every process hashes
/// a value the same way, so use it only where keys are the program's
/// own or a collision costs a bounded scan (see the module docs).
#[derive(Debug, Clone, Copy)]
pub struct WordHasher {
    a: u64,
    b: u64,
    c: u64,
    d: u64,
    /// Bytes passed to [`Hasher::write`] so far.
    len: u64,
}

impl Default for WordHasher {
    #[inline]
    fn default() -> WordHasher {
        WordHasher { a: K_A, b: K_B, c: K_C, d: K_D, len: 0 }
    }
}

/// One lane step. The multiply spreads each word bit upward only; the
/// rotation brings the product's mixed high bits down to the low bits
/// the next multiply spreads.
#[inline]
fn step(lane: u64, word: u64, k: u64) -> u64 {
    (lane ^ word).wrapping_mul(k).rotate_left(29)
}

impl Hasher for WordHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let (words, tail) = bytes.as_chunks::<8>();
        let (blocks, words) = words.as_chunks::<4>();
        for &[w0, w1, w2, w3] in blocks {
            self.a = step(self.a, u64::from_le_bytes(w0), K_A);
            self.b = step(self.b, u64::from_le_bytes(w1), K_B);
            self.c = step(self.c, u64::from_le_bytes(w2), K_C);
            self.d = step(self.d, u64::from_le_bytes(w3), K_D);
        }
        for &w in words {
            self.a = step(self.a, u64::from_le_bytes(w), K_A);
        }
        if !tail.is_empty() {
            let mut last = [0u8; 8];
            last.iter_mut().zip(tail).for_each(|(to, &from)| *to = from);
            self.b = step(self.b, u64::from_le_bytes(last), K_B);
        }
        self.len = self.len.wrapping_add(bytes.len() as u64);
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.write_u64(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.write_u64(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.a = step(self.a, n, K_A);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        let h = self
            .a
            .rotate_left(1)
            .wrapping_add(self.b.rotate_left(7))
            .wrapping_add(self.c.rotate_left(12))
            .wrapping_add(self.d.rotate_left(18))
            ^ self.len;
        let h = (h ^ (h >> 33)).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        let h = (h ^ (h >> 33)).wrapping_mul(0xC4CE_B9FE_1A85_EC53);
        h ^ (h >> 33)
    }
}

/// The [`BuildHasher`] of [`WordHasher`], for `HashMap<K, V, WordState>`.
pub type WordState = BuildHasherDefault<WordHasher>;

/// The hash a [`Memo`] files `key` under: its [`WordHasher`] hash.
#[inline]
pub fn key_hash<Q: Hash + ?Sized>(key: &Q) -> u64 {
    WordState::default().hash_one(key)
}

/// A bounded, lock-striped map from keys to values computed once. `V`
/// should be cheap to clone (an `Arc`, or a small value): lookups hand
/// out clones.
#[derive(Debug)]
pub struct Memo<K, V> {
    stripes: [Mutex<Stripe<K, V>>; STRIPES],
    cap: usize,
    len: AtomicUsize,
    hits: AtomicU64,
    misses: AtomicU64,
}

fn find<'s, K: Borrow<Q>, Q: Eq + ?Sized, V>(
    stripe: &'s Stripe<K, V>,
    hash: u64,
    key: &Q,
) -> Option<&'s Cell<V>> {
    stripe.get(&hash)?.iter().find(|(k, _)| k.borrow() == key).map(|(_, cell)| cell)
}

impl<K: Hash + Eq, V: Clone> Memo<K, V> {
    /// An empty memo that stores at most `cap` keys.
    pub fn new(cap: usize) -> Memo<K, V> {
        Memo {
            stripes: std::array::from_fn(|_| Mutex::default()),
            cap,
            len: AtomicUsize::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// An empty memo with no cap, for key sets that are small by
    /// construction (the catalog's keys and substitute chains).
    pub fn unbounded() -> Memo<K, V> {
        Memo::new(usize::MAX)
    }

    fn stripe(&self, hash: u64) -> MutexGuard<'_, Stripe<K, V>> {
        // Every update under a stripe lock is one push or one drain, so
        // a stripe poisoned by a panicking key comparison still holds
        // only whole entries.
        self.stripes[(hash % STRIPES as u64) as usize]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Claims room for one more key; false once the memo holds `cap`.
    /// `len` publishes no other data, and read-modify-writes of one
    /// atomic are totally ordered, so `Relaxed` keeps the cap exact.
    fn reserve(&self) -> bool {
        self.len
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| (n < self.cap).then_some(n + 1))
            .is_ok()
    }

    fn count(&self, hit: bool) {
        let counter = if hit { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// The value for `key`, computing it with `make` on a miss.
    ///
    /// Exactly one lookup per stored key runs `make` and counts a miss;
    /// every other lookup counts a hit. `make` runs outside the stripe
    /// lock, so it blocks only concurrent lookups of the same key, which
    /// wait for its value instead of computing a second one. Once the
    /// memo is full, a miss on a new key runs `make` and stores nothing.
    pub fn get_or_insert_with(&self, key: K, make: impl FnOnce() -> V) -> V {
        let Some(cell) = self.cell(key_hash(&key), key) else {
            self.count(false);
            return make();
        };
        let mut made = false;
        let value = cell
            .get_or_init(|| {
                made = true;
                make()
            })
            .clone();
        self.count(!made);
        value
    }

    /// The value for `key`, computing it with the fallible `make` on a
    /// miss.
    ///
    /// An error is returned to the caller and never stored, so the next
    /// lookup of the key computes again. `make` runs with no lock held;
    /// misses racing on one key may each run it, and the first to finish
    /// stores its value (every `make` of one key returns the same value).
    /// Every run of `make` counts a miss. Exactly-once would need per-key
    /// mutex cells removed on error, since a `OnceLock` cannot drop a
    /// failed initialisation; no fallible memo here needs it.
    pub fn get_or_try_insert_with<Q, E>(
        &self,
        key: &Q,
        make: impl FnOnce() -> Result<V, E>,
    ) -> Result<V, E>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ToOwned<Owned = K> + ?Sized,
    {
        let hash = key_hash(key);
        let hit = find(&self.stripe(hash), hash, key).and_then(|cell| cell.get().cloned());
        self.count(hit.is_some());
        if let Some(value) = hit {
            return Ok(value);
        }
        let value = make()?;
        if let Some(cell) = self.cell(hash, key.to_owned()) {
            let _ = cell.set(value.clone());
        }
        Ok(value)
    }

    /// `key`'s cell, inserted empty if the key is new and the memo has
    /// room.
    fn cell(&self, hash: u64, key: K) -> Option<Cell<V>> {
        let mut stripe = self.stripe(hash);
        if let Some(cell) = find(&stripe, hash, &key) {
            return Some(cell.clone());
        }
        self.reserve().then(|| {
            let cell = Cell::default();
            stripe.entry(hash).or_default().push((key, cell.clone()));
            cell
        })
    }

    /// True when a value for `key` is stored.
    pub fn contains<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let hash = key_hash(key);
        find(&self.stripe(hash), hash, key).is_some_and(|cell| cell.get().is_some())
    }

    /// Number of keys stored (including values still being computed).
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `(hits, misses)` since the memo was built. Counters accumulate
    /// across [`Memo::clear`].
    pub fn stats(&self) -> (u64, u64) {
        (self.hits.load(Ordering::Relaxed), self.misses.load(Ordering::Relaxed))
    }

    /// Drop every stored value; the counters keep accumulating. For
    /// cold-cache benchmarks and tests: correctness never needs it,
    /// because values are pure functions of their keys.
    pub fn clear(&self) {
        for stripe in &self.stripes {
            let mut stripe = stripe.lock().unwrap_or_else(PoisonError::into_inner);
            let dropped: usize = stripe.drain().map(|(_, bucket)| bucket.len()).sum();
            self.len.fetch_sub(dropped, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    fn stripe_of<Q: Hash + ?Sized>(key: &Q) -> u64 {
        key_hash(key) % STRIPES as u64
    }

    /// `n` bytes counting up from 0.
    fn counting(n: usize) -> Vec<u8> {
        (0..n).map(|i| i as u8).collect()
    }

    #[test]
    fn key_hash_is_pinned() {
        // Outputs for fixed inputs, so a change to the hash, which moves
        // every memo's stripe and bucket choices, is a visible decision.
        // Covers no bytes, a lone tail, a full word, tails beside whole
        // words, and one 32-byte block with and without a tail.
        let pinned: [(usize, u64); 7] = [
            (0, 0x7C73_D304_C34A_8D5A),
            (1, 0x84DF_60C9_0848_9ECD),
            (7, 0xCD01_7962_B407_FACF),
            (8, 0x2D87_85E2_2B77_E643),
            (31, 0x6871_8DCA_ADD4_4D6A),
            (32, 0xB2AF_0D4A_59A8_FE71),
            (33, 0xE3DA_A9CC_C2C4_9EFF),
        ];
        for (n, want) in pinned {
            assert_eq!(key_hash(counting(n).as_slice()), want, "{n} bytes");
        }
    }

    #[test]
    fn vec_and_slice_keys_hash_equal() {
        // A `Memo<Vec<u8>, _>` is probed with `&[u8]`: both must feed
        // the hasher the same length prefix and bytes.
        for n in [0, 1, 9, 40, 1811] {
            let owned = counting(n);
            assert_eq!(key_hash(&owned), key_hash(owned.as_slice()), "{n} bytes");
        }
    }

    #[test]
    fn single_byte_edits_spread_over_every_stripe() {
        // Upload bodies that differ in one byte (a corrupted PEM
        // character) must not crowd into a few stripes.
        use crate::drbg::{Drbg, RngCore64};
        let mut rng = Drbg::new(1811);
        let mut base = vec![0u8; 1811];
        rng.fill_bytes(&mut base);
        let mut per_stripe = [0usize; STRIPES];
        for _ in 0..4096 {
            let mut body = base.clone();
            let at = rng.gen_range(body.len() as u64) as usize;
            body[at] ^= 1 + rng.gen_range(255) as u8;
            per_stripe[stripe_of(&body) as usize] += 1;
        }
        let share = 4096 / STRIPES;
        assert!(per_stripe.iter().all(|&n| n > 0), "every stripe used: {per_stripe:?}");
        assert!(
            per_stripe.iter().all(|&n| n <= 2 * share),
            "none past twice its share: {per_stripe:?}"
        );
    }

    #[test]
    fn stripe_maps_rehash_instead_of_reusing_the_stripe_bits() {
        // The stripe comes from a key hash's low bits, so every hash in
        // one stripe shares them. The stripe map must hash that `u64`
        // again: with an identity hasher its buckets would be chosen by
        // those same shared low bits, and 15 of every 16 would stay
        // empty.
        let in_stripe_0: Vec<u64> =
            (0u32..).map(|k| key_hash(&k)).filter(|h| h % STRIPES as u64 == 0).take(256).collect();
        let mut bucket_bits = [0usize; 16];
        for h in in_stripe_0 {
            bucket_bits[(WordState::default().hash_one(h) % 16) as usize] += 1;
        }
        assert!(bucket_bits.iter().all(|&n| n > 0), "low bucket bits all used: {bucket_bits:?}");
    }

    #[test]
    fn computes_each_key_once() {
        let memo: Memo<u32, u32> = Memo::unbounded();
        let mut computed = 0;
        for _ in 0..3 {
            memo.get_or_insert_with(7, || {
                computed += 1;
                42
            });
        }
        assert_eq!(computed, 1);
        assert_eq!(memo.len(), 1);
        assert_eq!(memo.stats(), (2, 1));
    }

    #[test]
    fn concurrent_misses_collapse_to_one_compute() {
        let memo: Memo<u32, u32> = Memo::unbounded();
        let computes = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for key in 0..16 {
                        memo.get_or_insert_with(key % 4, || {
                            computes.fetch_add(1, Ordering::Relaxed);
                            key
                        });
                    }
                });
            }
        });
        assert_eq!(computes.load(Ordering::Relaxed), 4, "each key computed exactly once");
        assert_eq!(memo.len(), 4);
    }

    #[test]
    fn misses_on_same_stripe_keys_compute_concurrently() {
        // Two different keys in one stripe: A's `make` stays in flight
        // until B's `make` has started. A memo that computed under the
        // stripe lock would hold B at the lock until A gave up waiting,
        // so A would report the timeout (and the test fail) rather than
        // hang.
        let memo: Memo<u32, bool> = Memo::unbounded();
        let a = 0u32;
        let b = (1..).find(|k| stripe_of(k) == stripe_of(&a)).unwrap();
        let (a_started, a_started_rx) = mpsc::channel();
        let (b_started, b_started_rx) = mpsc::channel();
        let wait = Duration::from_secs(5);
        let memo = &memo;
        std::thread::scope(|s| {
            let first = s.spawn(move || {
                memo.get_or_insert_with(a, || {
                    a_started.send(()).unwrap();
                    b_started_rx.recv_timeout(wait).is_ok()
                })
            });
            a_started_rx.recv_timeout(wait).expect("A's make must start");
            memo.get_or_insert_with(b, || {
                // A's receiver is gone once it has timed out.
                let _ = b_started.send(());
                true
            });
            assert!(
                first.join().expect("A's lookup panicked"),
                "B's make must run while A's is in flight"
            );
        });
        assert_eq!(memo.stats(), (0, 2), "one miss per key, no hits");
    }

    #[test]
    fn clear_keeps_counters() {
        let memo: Memo<u32, u32> = Memo::unbounded();
        memo.get_or_insert_with(1, || 1);
        memo.get_or_insert_with(1, || 1);
        memo.clear();
        assert!(memo.is_empty());
        assert_eq!(memo.stats(), (1, 1), "clear must not reset statistics");
        memo.get_or_insert_with(1, || 1);
        assert_eq!(memo.stats(), (1, 2), "cleared key recomputes");
        assert_eq!(memo.len(), 1);
    }

    #[test]
    fn errors_are_returned_and_never_stored() {
        let memo: Memo<u32, u32> = Memo::unbounded();
        let mut attempts = 0;
        for _ in 0..2 {
            let got = memo.get_or_try_insert_with(&5, || {
                attempts += 1;
                Err::<u32, &str>("bad input")
            });
            assert_eq!(got, Err("bad input"));
            assert!(memo.is_empty(), "an error must never be stored");
            assert!(!memo.contains(&5));
        }
        assert_eq!(attempts, 2, "a failed key computes again on the next lookup");
        assert_eq!(memo.get_or_try_insert_with(&5, || Ok::<u32, &str>(50)), Ok(50));
        assert_eq!(memo.get_or_try_insert_with(&5, || Err("not called")), Ok(50));
        assert_eq!(memo.stats(), (1, 3));
    }

    #[test]
    fn full_memo_computes_without_storing() {
        let memo: Memo<u32, u32> = Memo::new(2);
        memo.get_or_insert_with(1, || 10);
        memo.get_or_try_insert_with(&2, || Ok::<u32, ()>(20)).unwrap();
        let mut computed = 0;
        for _ in 0..2 {
            let v = memo.get_or_insert_with(3, || {
                computed += 1;
                30
            });
            assert_eq!(v, 30);
            assert_eq!(memo.get_or_try_insert_with(&4, || Ok::<u32, ()>(40)), Ok(40));
        }
        assert_eq!(computed, 2, "a key past the cap is computed on every lookup");
        assert_eq!(memo.len(), 2);
        assert!(!memo.contains(&3) && !memo.contains(&4));
        // Stored keys still hit.
        assert_eq!(memo.get_or_insert_with(1, || 0), 10);
        assert_eq!(memo.get_or_try_insert_with(&2, || Err(())), Ok(20));
        assert_eq!(memo.stats(), (2, 6));
    }

    #[test]
    fn borrowed_key_lookup() {
        let memo: Memo<Vec<u8>, usize> = Memo::new(8);
        let body: &[u8] = b"-----BEGIN CERTIFICATE-----";
        assert_eq!(memo.get_or_try_insert_with(body, || Ok::<usize, ()>(body.len())), Ok(27));
        assert!(memo.contains(body));
        // Another buffer with the same bytes finds the stored `Vec`.
        let copy = body.to_vec();
        assert_eq!(memo.get_or_try_insert_with(copy.as_slice(), || Err(())), Ok(27));
        assert!(!memo.contains(&body[1..]));
        assert_eq!(memo.stats(), (1, 1));
    }
}
