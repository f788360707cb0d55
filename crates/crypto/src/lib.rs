//! # tlsfoe-crypto
//!
//! From-scratch cryptographic substrate for the `tlsfoe` workspace.
//!
//! The paper's measurement pipeline observes real X.509 certificates with
//! real RSA signatures (2048-bit DigiCert-issued originals, 512/1024-bit
//! substitutes minted by interception products, MD5- and SHA-signed).
//! To exercise the same code paths this crate implements, with no external
//! dependencies:
//!
//! * [`bigint`] — arbitrary-precision unsigned integers (u64 limbs) with
//!   Knuth Algorithm-D division and modular exponentiation,
//! * [`montgomery`] — division-free Montgomery-form arithmetic
//!   ([`MontgomeryCtx`]: fused-CIOS multiplication, fixed 4-bit-window
//!   exponentiation, short-exponent fast path) that [`Ubig::modpow`]
//!   rides for every odd modulus,
//! * [`md5`], [`sha1`], [`sha256`] — the three digest algorithms that appear
//!   in the paper's certificate corpus,
//! * [`hmac`] — HMAC over any of the digests (used by the DRBG),
//! * [`rsa`] — RSA key generation (Miller–Rabin with batched small-prime
//!   trial division), PKCS#1 v1.5 signing and verification with proper
//!   DigestInfo encoding; private keys carry precomputed [`RsaCrt`]
//!   material so signing uses half-size CRT exponentiations,
//! * [`drbg`] — a deterministic random bit generator so that every
//!   simulation in the workspace is reproducible from a single seed,
//! * [`memo`] — the bounded, lock-striped [`Memo`] every cache in the
//!   workspace is built on, and [`ctxcache`], the process-wide
//!   per-modulus [`MontgomeryCtx`] memo ([`ctx_for`]).
//!
//! ## Hot-path performance
//!
//! The Montgomery + CRT rework of this crate sped up every experiment
//! binary end to end. Measured medians (release, one core; see
//! `exp_perf`, which regenerates `BENCH_crypto.json`):
//!
//! | operation (1024-bit) | seed (schoolbook) | now | speedup |
//! |----------------------|-------------------|-----|---------|
//! | private-exponent modpow | 1.63 ms | 513 µs (Montgomery) | 3.2× |
//! | RSA sign | 1.63 ms | 152 µs (Montgomery + CRT) | ~10.7× |
//! | RSA verify (e = 65537) | ~30 µs | 10 µs | ~3× |
//!
//! At 512/2048 bits the sign speedups are ~13× and ~11× respectively.
//! End to end, `exp_all` (every experiment binary at default
//! `TLSFOE_SCALE`) dropped from 124 s to 63 s when every
//! exponentiation (keygen, Miller–Rabin, sign, verify) left the
//! schoolbook path.
//!
//! Typical usage: one-shot callers just use [`Ubig::modpow`] (it builds a
//! context transparently); repeated exponentiation against one modulus
//! builds a [`MontgomeryCtx`] once:
//!
//! ```
//! use tlsfoe_crypto::{MontgomeryCtx, Ubig};
//! let m = Ubig::from_u64(1_000_003); // odd modulus
//! let ctx = MontgomeryCtx::new(&m).unwrap();
//! let r = ctx.modpow(&Ubig::from_u64(4), &Ubig::from_u64(13)).unwrap();
//! assert_eq!(r, Ubig::from_u64(4).modpow_schoolbook(&Ubig::from_u64(13), &m).unwrap());
//! ```
//!
//! Nothing here is intended for production cryptographic use; it is a
//! faithful, testable substrate for a measurement-study reproduction.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

pub mod bigint;
pub mod ctxcache;
pub mod drbg;
pub mod hmac;
pub mod md5;
pub mod memo;
pub mod montgomery;
pub mod rsa;
pub mod sha1;
pub mod sha256;

pub use bigint::Ubig;
pub use ctxcache::{ctx_for, shared_ctx_cache};
pub use drbg::{Drbg, RngCore64};
pub use memo::Memo;
pub use montgomery::MontgomeryCtx;
pub use rsa::{RsaCrt, RsaKeyPair, RsaPublicKey};

/// Digest algorithms supported by the workspace.
///
/// These are exactly the algorithms observed in the paper's corpus of
/// substitute certificates (§5.2): MD5 (23 negligent proxies), SHA-1
/// (the era's default) and SHA-256 (5 "better than original" proxies).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum HashAlg {
    /// MD5 (128-bit digest) — broken, flagged as negligent by the analyzer.
    Md5,
    /// SHA-1 (160-bit digest) — the default signature hash in 2014.
    Sha1,
    /// SHA-256 (256-bit digest).
    Sha256,
}

impl HashAlg {
    /// Digest length in bytes.
    pub fn digest_len(self) -> usize {
        match self {
            HashAlg::Md5 => 16,
            HashAlg::Sha1 => 20,
            HashAlg::Sha256 => 32,
        }
    }

    /// Hash `data` with this algorithm, returning the digest bytes.
    pub fn digest(self, data: &[u8]) -> Vec<u8> {
        match self {
            HashAlg::Md5 => md5::md5(data).to_vec(),
            HashAlg::Sha1 => sha1::sha1(data).to_vec(),
            HashAlg::Sha256 => sha256::sha256(data).to_vec(),
        }
    }

    /// Human-readable name, matching OpenSSL's conventions.
    pub fn name(self) -> &'static str {
        match self {
            HashAlg::Md5 => "md5",
            HashAlg::Sha1 => "sha1",
            HashAlg::Sha256 => "sha256",
        }
    }
}

/// Errors produced by this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CryptoError {
    /// Division by zero in bignum arithmetic.
    DivisionByZero,
    /// An even modulus was given to Montgomery arithmetic (which requires
    /// `gcd(n, 2⁶⁴) = 1`); use the schoolbook path instead.
    EvenModulus,
    /// No modular inverse exists (operands not coprime).
    NoInverse,
    /// RSA message/representative is out of range for the modulus.
    MessageTooLong,
    /// A PKCS#1 v1.5 signature failed to verify.
    BadSignature,
    /// Key generation could not find a prime within the attempt budget.
    PrimeGenFailed,
    /// A key-generation hint did not replay to a key: its candidate was
    /// not prime or its primes did not assemble (a stale or wrong hint).
    HintRejected,
    /// A key parameter was invalid (e.g. modulus too small for padding).
    InvalidKey(&'static str),
}

impl core::fmt::Display for CryptoError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CryptoError::DivisionByZero => write!(f, "division by zero"),
            CryptoError::EvenModulus => write!(f, "even modulus in Montgomery arithmetic"),
            CryptoError::NoInverse => write!(f, "no modular inverse exists"),
            CryptoError::MessageTooLong => write!(f, "message too long for RSA modulus"),
            CryptoError::BadSignature => write!(f, "signature verification failed"),
            CryptoError::PrimeGenFailed => write!(f, "prime generation failed"),
            CryptoError::HintRejected => write!(f, "key-generation hint rejected"),
            CryptoError::InvalidKey(why) => write!(f, "invalid key: {why}"),
        }
    }
}

impl std::error::Error for CryptoError {}
