//! Process-wide [`MontgomeryCtx`]s, one per modulus.
//!
//! Chain validation verifies many signatures against a small, stable set
//! of public keys (root-store anchors, a handful of proxy roots, the
//! per-host server keys), and non-CRT signing exponentiates repeatedly
//! against the same public modulus. Without a shared context every
//! [`crate::RsaPublicKey::verify`] and [`crate::Ubig::modpow`] call
//! would re-derive the per-modulus Montgomery constants (one
//! `R² mod n` division, the last division on the verify hot path).
//! [`ctx_for`] makes that a once-per-modulus cost.
//!
//! The contexts live in one [`Memo`] keyed by the modulus limbs, so
//! equal moduli share a context whichever `RsaPublicKey` clone they
//! arrive through. It stores at most 256 moduli; a full study run
//! verifies against far fewer (18 host keys, ~40 product roots, a few
//! CA keys), so its hit rate stays ~100%.

use std::sync::{Arc, OnceLock};

use crate::bigint::Ubig;
use crate::memo::Memo;
use crate::montgomery::MontgomeryCtx;
use crate::CryptoError;

/// Distinct moduli the shared memo stores.
const CAPACITY: usize = 256;

/// The process-wide context memo behind [`ctx_for`], exposed for its
/// `stats()` and `contains()`.
pub fn shared_ctx_cache() -> &'static Memo<Vec<u64>, Arc<MontgomeryCtx>> {
    static CACHE: OnceLock<Memo<Vec<u64>, Arc<MontgomeryCtx>>> = OnceLock::new();
    CACHE.get_or_init(|| Memo::new(CAPACITY))
}

/// The Montgomery context for an odd `modulus`, built on first use and
/// shared from then on. [`crate::RsaPublicKey::verify`], non-CRT
/// signing and every odd-modulus [`crate::Ubig::modpow`] ride it.
///
/// Errors exactly as [`MontgomeryCtx::new`] does (even or zero
/// modulus); errors are never stored.
pub fn ctx_for(modulus: &Ubig) -> Result<Arc<MontgomeryCtx>, CryptoError> {
    shared_ctx_cache()
        .get_or_try_insert_with(modulus.limbs(), || MontgomeryCtx::new(modulus).map(Arc::new))
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn odd(v: u64) -> Ubig {
        Ubig::from_u64(v | 1)
    }

    #[test]
    fn same_modulus_shares_one_context() {
        let m = odd(1_000_033);
        let a = ctx_for(&m).unwrap();
        let b = ctx_for(&m).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert!(shared_ctx_cache().contains(m.limbs()));
    }

    #[test]
    fn even_and_zero_moduli_error_and_are_not_cached() {
        let (even, zero) = (Ubig::from_u64(10), Ubig::zero());
        assert_eq!(ctx_for(&even).unwrap_err(), CryptoError::EvenModulus);
        assert_eq!(ctx_for(&zero).unwrap_err(), CryptoError::DivisionByZero);
        assert!(!shared_ctx_cache().contains(even.limbs()));
        assert!(!shared_ctx_cache().contains(zero.limbs()));
    }

    #[test]
    fn concurrent_access_is_consistent() {
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for i in 0..64u64 {
                        let m = odd(1_000_003 + 2 * (i % 8));
                        let ctx = ctx_for(&m).unwrap();
                        assert_eq!(
                            ctx.modpow(&Ubig::from_u64(2), &Ubig::from_u64(10)).unwrap(),
                            Ubig::from_u64(1024)
                        );
                    }
                });
            }
        });
        for i in 0..8u64 {
            assert!(shared_ctx_cache().contains(odd(1_000_003 + 2 * i).limbs()));
        }
    }
}
