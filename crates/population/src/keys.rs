//! Deterministic, process-cached key material.
//!
//! Every product's root key and leaf-key pool is derived from a stable
//! seed, so the same catalog always mints byte-identical certificates.
//! Generation is cached process-wide because RSA keygen is the only
//! expensive operation in the simulator and tests/benches share products.
//!
//! Cached pairs carry their precomputed CRT material (`d mod p−1`,
//! `d mod q−1`, `q⁻¹ mod p` and the per-prime Montgomery contexts), so
//! every signature minted from the cache takes the division-free CRT
//! fast path — the keygen cost *and* the per-modulus precomputation are
//! both paid exactly once per `(seed, bits)`.
//!
//! ## What a study warms
//!
//! A study's product keys come in two kinds, listed by two functions:
//!
//! * **Roots** ([`product_key_specs`]): one 2048-bit root per product
//!   active in the era. Every factory signs with its root, whatever the
//!   host.
//! * **Host-selected leaves** ([`leaf_key_specs`]): a product's leaf
//!   pool has up to three slots, but its substitute for a host always
//!   carries the one slot `factory::leaf_slot` picks for that host.
//!   Only the slots the study's probed hosts select are listed, so
//!   study 1, which probes one host, warms one leaf per product.
//!
//! `tlsfoe_core::hosts::prewarm_key_specs` appends a catalog's leaves to
//! its CA and server keys, and a study warms the union of that list and
//! the roots in one parallel [`warm_keys`] pass before its drives, which
//! then never generate a key.
//!
//! ## Structure
//!
//! The cache is an unbounded [`Memo`] filled with
//! [`Memo::get_or_insert_with`], so each key is generated exactly once
//! even when threads race on it, and misses on different keys generate
//! in parallel. Values are handed out as `Arc<RsaKeyPair>`: a hit is a
//! refcount bump, not a deep clone of the CRT limbs.
//!
//! `(seed, bits) → key` is a pure function (the generation DRBG is
//! seeded from nothing else), which is what makes both the sharing and
//! the [`warm_keys`] parallel prewarm safe: study output can never
//! depend on which thread generated a key first.
//!
//! ## Generation from hints
//!
//! Every key a study warms comes from a constant `(seed, bits)` spec,
//! so that key set is fixed. [`KEY_HINTS`] is a sorted const table,
//! generated by the `tlsfoe-bench` bin `key_hints`, that holds each such
//! key's two prime offsets (`RsaKeyPair::generate_with_hint`). A cache
//! miss looks `(seed, bits)` up there and replays the hint with
//! `RsaKeyPair::from_hint`: the same window starts, one Miller–Rabin
//! run per prime and the same DRBG draws, so it yields the searched key
//! without the search. A spec without an entry (tests' arbitrary seeds,
//! `exp_perf`'s keygen series) or with a rejected hint falls back to
//! the full search with a fresh DRBG; `tlsfoe_crypto::rsa::keygen_stats`
//! counts hinted primes and rejected hints.
//!
//! `key_hints --check` (run in CI) fails when the table differs from a
//! fresh search. Whoever changes a key spec, the product catalog or the
//! prime search reruns
//! `cargo run --release -p tlsfoe-bench --bin key_hints -- --write`.

use std::sync::{Arc, OnceLock};

use tlsfoe_crypto::drbg::Drbg;
use tlsfoe_crypto::memo::Memo;
use tlsfoe_crypto::RsaKeyPair;

pub use crate::key_hints::KEY_HINTS;

use crate::factory::leaf_slot;
use crate::model::StudyEra;
use crate::products::ProductSpec;

fn cache() -> &'static Memo<(u64, usize), Arc<RsaKeyPair>> {
    static CACHE: OnceLock<Memo<(u64, usize), Arc<RsaKeyPair>>> = OnceLock::new();
    CACHE.get_or_init(Memo::unbounded)
}

/// Get (or generate, exactly once process-wide) the deterministic key
/// for `(seed, bits)`, with CRT signing material precomputed. Hands out
/// a shared `Arc`. Generation runs once per key inside the key's cell
/// ([`Memo::get_or_insert_with`]), so two racing threads never both pay
/// a keygen.
pub fn keypair(seed: u64, bits: usize) -> Arc<RsaKeyPair> {
    cache().get_or_insert_with((seed, bits), || {
        let generated = Arc::new(generate(seed, bits, hint(seed, bits)));
        debug_assert!(generated.crt.is_some(), "generate precomputes CRT");
        generated
    })
}

/// The DRBG key `(seed, bits)` is generated from, for any `bits`.
pub fn key_drbg(seed: u64) -> Drbg {
    Drbg::new(seed.wrapping_mul(0x9e37_79b9))
}

/// The [`KEY_HINTS`] entry for `(seed, bits)`, if the table has one.
fn hint(seed: u64, bits: usize) -> Option<[u16; 2]> {
    let i = KEY_HINTS.binary_search_by_key(&(seed, bits), |&(s, b, _)| (s, b)).ok()?;
    KEY_HINTS.get(i).map(|&(_, _, hint)| hint)
}

/// Key `(seed, bits)`, replayed from `hint` when that holds and searched
/// with a fresh DRBG otherwise.
fn generate(seed: u64, bits: usize, hint: Option<[u16; 2]>) -> RsaKeyPair {
    hint.and_then(|hint| RsaKeyPair::from_hint(bits, hint, &mut key_drbg(seed)).ok())
        .unwrap_or_else(|| {
            RsaKeyPair::generate(bits, &mut key_drbg(seed)).expect("RSA keygen failed")
        })
}

/// `(hits, misses)` counters (for warm/cold assertions in tests/benches).
pub fn stats() -> (u64, u64) {
    cache().stats()
}

/// Drop every cached key (and zero nothing else — counters keep
/// accumulating). For cold-cache benchmarks (`exp_perf`'s keygen series)
/// and tests; studies never need it because cached keys are pure
/// functions of their key.
pub fn clear() {
    cache().clear();
}

/// Generate every `(seed, bits)` in `specs` across up to `threads` OS
/// threads, so process-cold keygen is amortized over cores instead of
/// serializing first-touch on the session hot path.
///
/// Safe at any point and with any concurrent traffic: keys are pure
/// functions of `(seed, bits)` and the memo generates each exactly
/// once, so warming changes *when* keygen cost is paid, never what any
/// caller observes. Duplicate specs are collapsed; already-cached keys
/// cost a map probe.
pub fn warm_keys(specs: &[(u64, usize)], threads: usize) {
    let mut work: Vec<(u64, usize)> = specs.to_vec();
    work.sort_unstable();
    work.dedup();
    crate::par_for_each(&work, threads, |&(seed, bits)| {
        keypair(seed, bits);
    });
}

/// The root keys a study era's products sign with: one 2048-bit root
/// per era-active product. A product's leaf keys are not listed here,
/// because which one it uses depends on the probed host — see
/// [`leaf_key_specs`]. Feed both lists to [`warm_keys`] so factories
/// never generate on the hot path.
pub fn product_key_specs(era: StudyEra) -> Vec<(u64, usize)> {
    active_products(era).map(|(product, _)| (root_seed(product), 2048)).collect()
}

/// The leaf keys a study era's products sign substitutes over for
/// `hosts`: for every era-active product, the one pool slot each host
/// selects (`factory::leaf_slot`, the rule minting uses), at the
/// product's key size.
///
/// Lists every leaf key a mint for one of `hosts` can touch and no slot
/// that none of them selects. It may include a whitelisting product's
/// slot for a host that product splices instead of minting (a harmless
/// superset), and it repeats a spec that several hosts share
/// ([`warm_keys`] collapses duplicates).
pub fn leaf_key_specs(era: StudyEra, hosts: &[&str]) -> Vec<(u64, usize)> {
    active_products(era)
        .flat_map(|(product, spec)| {
            hosts
                .iter()
                .map(move |host| (leaf_seed(product, leaf_slot(&spec, host)), spec.key_bits))
        })
        .collect()
}

/// `(catalog index, spec)` of every product active in `era` — the ones
/// a study of that era can sample and mint with.
fn active_products(era: StudyEra) -> impl Iterator<Item = (u16, ProductSpec)> {
    crate::products::catalog()
        .into_iter()
        .enumerate()
        .filter(move |(_, spec)| spec.era_weight(era) > 0.0)
        .map(|(i, spec)| (i as u16, spec))
}

/// Seed namespace for a product's root (CA) key.
pub const fn root_seed(product_index: u16) -> u64 {
    0x524f_4f54_0000_0000 | product_index as u64
}

/// Seed namespace for a product's `i`-th leaf key.
pub const fn leaf_seed(product_index: u16, i: u16) -> u64 {
    0x4c45_4146_0000_0000 | ((product_index as u64) << 16) | i as u64
}

/// Seed namespace for legitimate web-server keys (per host index).
pub const fn server_seed(host_index: u16) -> u64 {
    0x5345_5256_0000_0000 | host_index as u64
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn cached_and_deterministic() {
        let a = keypair(42, 512);
        let b = keypair(42, 512);
        assert_eq!(a.public, b.public);
        assert!(Arc::ptr_eq(&a, &b), "hits must share one allocation");
        let c = keypair(43, 512);
        assert_ne!(a.public, c.public);
    }

    #[test]
    fn cached_keys_carry_crt_material() {
        // Every signature minted by a SubstituteFactory must hit the CRT
        // fast path; a cache returning stripped keys would silently cost
        // ~4x per mint.
        let k = keypair(77, 512);
        assert!(k.crt.is_some());
    }

    #[test]
    fn different_sizes_different_keys() {
        let a = keypair(7, 512);
        let b = keypair(7, 768);
        assert_eq!(a.bits(), 512);
        assert_eq!(b.bits(), 768);
    }

    #[test]
    fn racing_threads_generate_exactly_once() {
        // The old implementation released the lock around generate(), so
        // two threads missing together both paid a keygen and the loser's
        // allocation won the map. Every racer receiving the *same* `Arc`
        // proves a single generation happened — and unlike the process-
        // wide miss counter, pointer identity can't be perturbed by
        // sibling tests generating unrelated keys concurrently.
        let arcs: Vec<Arc<RsaKeyPair>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8).map(|_| s.spawn(|| keypair(0xAAC3_7E57, 512))).collect();
            handles.into_iter().map(|h| h.join().expect("keygen thread panicked")).collect()
        });
        assert!(
            arcs.windows(2).all(|w| Arc::ptr_eq(&w[0], &w[1])),
            "racing threads must all receive the one generated allocation"
        );
    }

    #[test]
    fn warm_keys_prefills_cache() {
        let specs = [(0xF1A7_0001u64, 512usize), (0xF1A7_0002, 512), (0xF1A7_0001, 512)];
        warm_keys(&specs, 4);
        let (hits_before, _) = stats();
        keypair(0xF1A7_0001, 512);
        keypair(0xF1A7_0002, 512);
        let (hits_after, _) = stats();
        // ≥, not ==: the counters are process-wide and sibling tests may
        // hit the cache concurrently; our two lookups are guaranteed
        // hits only if warm_keys actually generated them.
        assert!(hits_after - hits_before >= 2, "both warmed keys must be cache hits");
    }

    #[test]
    fn warm_keys_matches_lazy_generation() {
        // Warming must be observationally invisible: same key bytes as a
        // lazy first touch (pure function of (seed, bits)).
        warm_keys(&[(0xF1A7_0003, 512)], 2);
        let warmed = keypair(0xF1A7_0003, 512);
        let reference = RsaKeyPair::generate(512, &mut key_drbg(0xF1A7_0003)).unwrap();
        assert_eq!(warmed.public, reference.public);
    }

    #[test]
    fn rejected_hint_falls_back_to_the_search() {
        // A wrong hint (here offset + 1 for p, the step after p) must
        // cost only the rejected replay: the miss still returns the
        // searched key, and the rejection is counted.
        use tlsfoe_crypto::rsa::keygen_stats;
        let seed = 0xF1A7_0004;
        let (searched, reported) =
            RsaKeyPair::generate_with_hint(512, &mut key_drbg(seed)).unwrap();
        let [p, q] = reported.unwrap();
        let before = keygen_stats().hint_rejects;
        let key = generate(seed, 512, Some([p + 1, q]));
        assert!(keygen_stats().hint_rejects > before, "the rejected hint must be counted");
        assert_eq!((key.public, key.p, key.q), (searched.public, searched.p, searched.q));
        // An arbitrary seed has no table entry, so `keypair` searches.
        assert_eq!(hint(seed, 512), None);
    }

    #[test]
    fn hint_table_is_sorted_and_unique() {
        // `hint` binary-searches the table by `(seed, bits)`.
        assert!(KEY_HINTS.windows(2).all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)));
        for &(seed, bits, entry) in KEY_HINTS {
            assert_eq!(hint(seed, bits), Some(entry));
        }
    }

    #[test]
    fn product_specs_are_the_era_active_roots_only() {
        let catalog = crate::products::catalog();
        let roots: Vec<(u64, usize)> =
            (0..catalog.len() as u16).map(|i| (root_seed(i), 2048)).collect();
        for era in [StudyEra::Study1, StudyEra::Study2] {
            let specs = product_key_specs(era);
            // Leaves are host-selected (`leaf_key_specs`), never listed here.
            assert!(specs.iter().all(|s| roots.contains(s)), "{era:?}: roots only");
            // Products absent from the era must not be warmed for it.
            for (i, spec) in catalog.iter().enumerate() {
                let weight = if era == StudyEra::Study1 { spec.w1 } else { spec.w2 };
                let warmed = specs.contains(&(root_seed(i as u16), 2048));
                assert_eq!(warmed, weight > 0.0, "{era:?} {}", spec.display_name());
            }
        }
    }

    #[test]
    fn leaf_specs_list_the_key_each_host_mints_with() {
        // The warm-set contract: the chain a factory mints for a host
        // carries the public key of the one spec `leaf_key_specs` lists
        // for that host and product. Compared by key, so sibling tests
        // sharing the process-wide cache cannot perturb it. Bitdefender
        // has a three-slot pool, IopFail one shared key.
        use tlsfoe_netsim::Ipv4;
        let catalog = crate::products::catalog();
        for name in ["Bitdefender", "IopFailZeroAccessCreate"] {
            let i = catalog.iter().position(|s| s.display_name() == name).unwrap();
            let product = i as u16;
            let factory = crate::factory::slots()[i].factory();
            let namespace = leaf_seed(product, 0) >> 16;
            for host in ["tlsresearch.byu.edu", "www.facebook.com", "a.example", "b.example"] {
                let all = leaf_key_specs(StudyEra::Study1, &[host]);
                assert_eq!(all.len(), product_key_specs(StudyEra::Study1).len(), "{host}");
                let listed: Vec<(u64, usize)> =
                    all.into_iter().filter(|&(seed, _)| seed >> 16 == namespace).collect();
                assert_eq!(listed.len(), 1, "{name} {host}: one leaf per product and host");
                let (seed, bits) = listed[0];
                let chain = factory.substitute_chain(host, Ipv4([203, 0, 113, 7]), None);
                assert_eq!(chain[0].tbs.spki.key, keypair(seed, bits).public, "{name} {host}");
            }
        }
    }

    #[test]
    fn seed_namespaces_disjoint() {
        assert_ne!(root_seed(1), leaf_seed(1, 0));
        assert_ne!(leaf_seed(1, 0), leaf_seed(1, 1));
        assert_ne!(leaf_seed(1, 0), leaf_seed(2, 0));
        assert_ne!(root_seed(3), server_seed(3));
    }
}
