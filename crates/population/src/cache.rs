//! The process-wide substitute-chain cache.
//!
//! Real interception products cache the substitute certificate they mint
//! per site; the simulator does the same. Every product has one
//! [`crate::SubstituteFactory`] per process, and all of them mint into
//! the one [`process_cache`], shared by every worker thread of every
//! study in the process, so each `(product, host, variant)` chain is
//! minted exactly once per process.
//!
//! ## Determinism contract
//!
//! The cache must not make study output depend on thread scheduling or
//! on which study ran first. That holds because a cached chain is a
//! **pure function of its key**, never of which impression, study or
//! era happened to mint it first:
//!
//! * all key material (root key, leaf-key pool) is derived from stable
//!   per-product seeds ([`crate::keys`]);
//! * serial numbers are derived from a [`tlsfoe_crypto::Drbg`] seeded by
//!   `(product, host, variant)` — **not** from a first-writer-wins mint
//!   counter (the pre-cache implementation numbered chains in per-thread
//!   mint order, which was already order-dependent);
//! * mint inputs beyond the hostname — the destination /24 for
//!   wildcard-IP subjects, the upstream issuer for issuer-copying
//!   products — are folded into [`SubstituteKey::variant`], so two
//!   impressions with different mint inputs can never collide on one
//!   cache slot;
//! * nothing about the study era enters a mint, so the two eras share
//!   every chain they both request.
//!
//! Under that contract a lost race is harmless (both minters produce
//! byte-identical chains), but the cache still mints each key exactly
//! once — racing lookups of one key wait for its single mint — so the
//! work is never duplicated and [`crate::SubstituteFactory::minted`]
//! stays an exact count.
//!
//! ## Structure
//!
//! The cache is an unbounded [`Memo`] filled with
//! [`Memo::get_or_insert_with`], so concurrent misses on *different*
//! hosts mint in parallel. Its keys are the catalog's products × the
//! probed hosts, tens to a few thousand per process.

use std::sync::{Arc, OnceLock};

use tlsfoe_crypto::memo::Memo;
use tlsfoe_tls::server::ServerConfig;
use tlsfoe_x509::Certificate;

use crate::products::ProductId;

/// Cache key: which chain, for whom.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SubstituteKey {
    /// The minting product.
    pub product: ProductId,
    /// Probed hostname (SNI) the substitute covers.
    pub host: String,
    /// Hash of mint inputs beyond the hostname (destination /24 for
    /// wildcard-IP subjects, upstream issuer for issuer-copying
    /// products); 0 for products whose chains depend on the host alone.
    pub variant: u64,
}

/// One cached mint: the substitute chain plus the serving configuration
/// built from it.
///
/// The config rides the cache because `answer_with_substitute` used to
/// rebuild a fresh `ServerConfig` — and re-encode the hello flight —
/// per intercepted connection; a config is a pure function of its chain
/// (fixed cipher suite, fixed server random), so caching it next to the
/// chain keeps the determinism contract while making the per-connection
/// cost an `Arc` bump plus a `OnceLock` read of the encoded flight.
/// Cloning the entry clones two `Arc`s.
#[derive(Debug, Clone)]
pub struct SubstituteEntry {
    /// The minted chain, leaf first.
    pub chain: Arc<Vec<Certificate>>,
    /// TLS serving config over `chain` (shared hello-flight encoding).
    pub config: Arc<ServerConfig>,
}

/// Minted substitute chains (plus their serving configs); filled by
/// [`crate::SubstituteFactory::substitute_entry`], which builds each
/// entry's `ServerConfig` in its mint.
pub type SubstituteCache = Memo<SubstituteKey, SubstituteEntry>;

/// The process-wide substitute cache every product's factory mints into
/// (the mint-path sibling of [`crate::keys`]' key cache).
///
/// `exp_all` runs seven studies in one process; before this cache went
/// process-wide each study re-minted — at RSA-signature cost — the same
/// chains its six siblings had already built. Sharing is sound because
/// every entry is a pure function of its `(product, host, variant)` key
/// (the determinism contract above): whichever study or era mints a
/// chain first, every later one reads the same bytes it would have
/// minted itself.
pub fn process_cache() -> Arc<SubstituteCache> {
    static CACHE: OnceLock<Arc<SubstituteCache>> = OnceLock::new();
    CACHE.get_or_init(|| Arc::new(SubstituteCache::unbounded())).clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(host: &str, variant: u64) -> SubstituteKey {
        SubstituteKey { product: ProductId(3), host: host.to_string(), variant }
    }

    fn entry() -> SubstituteEntry {
        let chain = Arc::new(Vec::new());
        SubstituteEntry { config: ServerConfig::new(chain.clone()), chain }
    }

    #[test]
    fn distinct_keys_get_distinct_slots() {
        let cache = SubstituteCache::unbounded();
        cache.get_or_insert_with(key("a.example", 0), entry);
        cache.get_or_insert_with(key("b.example", 0), entry);
        cache.get_or_insert_with(key("a.example", 1), entry); // variant differs
        let other_product = SubstituteKey { product: ProductId(4), ..key("a.example", 0) };
        cache.get_or_insert_with(other_product, entry);
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.stats(), (0, 4));
    }
}
