//! RSA key generation and PKCS#1 v1.5 signatures.
//!
//! The paper's certificate corpus contains RSA keys of 512, 1024, 2048 and
//! even 2432 bits (§5.2). Key generation here supports any size ≥ 256 bits
//! so the negligence analyzer can be exercised against real signatures at
//! every size the paper observed — including the single shared 512-bit key
//! of the `IopFailZeroAccessCreate` malware.
//!
//! Signatures are RSASSA-PKCS1-v1_5 (RFC 8017 §8.2) with proper DER
//! `DigestInfo` prefixes for MD5, SHA-1 and SHA-256.

use crate::bigint::Ubig;
use crate::drbg::RngCore64;
use crate::montgomery::MontgomeryCtx;
use crate::{CryptoError, HashAlg};

/// Public RSA key: modulus and exponent.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RsaPublicKey {
    /// Modulus `n`.
    pub n: Ubig,
    /// Public exponent `e` (65537 for all generated keys).
    pub e: Ubig,
}

/// RSA key pair (public part plus private exponent and factors).
#[derive(Debug, Clone)]
pub struct RsaKeyPair {
    /// The public half.
    pub public: RsaPublicKey,
    /// Private exponent `d`.
    pub d: Ubig,
    /// Prime factor `p`.
    pub p: Ubig,
    /// Prime factor `q`.
    pub q: Ubig,
    /// Precomputed CRT material (populated by [`RsaKeyPair::generate`]).
    /// `None` only for keys assembled by hand; signing then falls back to
    /// a full-size exponentiation mod `n`.
    pub crt: Option<RsaCrt>,
}

/// Precomputed Chinese-Remainder-Theorem private-key material.
///
/// Signing with CRT performs two half-size Montgomery exponentiations
/// (`m^dp mod p`, `m^dq mod q`) plus a Garner recombination instead of
/// one full-size exponentiation mod `n` — ~4× less work, since
/// exponentiation cost grows roughly cubically with operand size. The
/// Montgomery contexts for both primes are built once here and reused by
/// every signature; both half-exponentiations run the general
/// [`MontgomeryCtx::modpow`] ladder.
#[derive(Debug, Clone)]
pub struct RsaCrt {
    /// `d mod (p-1)`.
    dp: Ubig,
    /// `d mod (q-1)`.
    dq: Ubig,
    /// `q⁻¹ mod p` (Garner's coefficient).
    qinv: Ubig,
    /// Prime factor `p` (cached to keep the per-signature recombination
    /// free of `modulus()` re-materialization).
    p: Ubig,
    /// Prime factor `q`.
    q: Ubig,
    /// Montgomery context for arithmetic mod `p`.
    p_ctx: MontgomeryCtx,
    /// Montgomery context for arithmetic mod `q`.
    q_ctx: MontgomeryCtx,
}

impl RsaCrt {
    /// Precompute CRT parameters from the factors and private exponent.
    pub fn new(p: &Ubig, q: &Ubig, d: &Ubig) -> Result<RsaCrt, CryptoError> {
        let one = Ubig::one();
        Ok(RsaCrt {
            dp: d.rem(&p.sub(&one))?,
            dq: d.rem(&q.sub(&one))?,
            qinv: q.modinv(p)?,
            p: p.clone(),
            q: q.clone(),
            p_ctx: MontgomeryCtx::new(p)?,
            q_ctx: MontgomeryCtx::new(q)?,
        })
    }

    /// `m^d mod pq` via Garner's recombination.
    ///
    /// Produces exactly the value a direct `m.modpow(d, n)` would, so CRT
    /// and non-CRT signatures are byte-identical.
    pub fn private_exp(&self, m: &Ubig) -> Result<Ubig, CryptoError> {
        let m1 = self.p_ctx.modpow(m, &self.dp)?;
        let m2 = self.q_ctx.modpow(m, &self.dq)?;
        // h = qinv · (m1 − m2) mod p. For generated keys p and q share a
        // bit length, so m2 < q < 2p and reducing m2 mod p is one
        // comparison and at most one subtraction; hand-assembled keys
        // with lopsided factors fall back to the real division.
        let m2_mod_p = if m2 < self.p {
            m2.clone()
        } else {
            let once = m2.sub(&self.p);
            if once < self.p {
                once
            } else {
                m2.rem(&self.p)?
            }
        };
        let diff = match m1.checked_sub(&m2_mod_p) {
            Some(d) => d,
            None => m1.add(&self.p).sub(&m2_mod_p),
        };
        let h = self.p_ctx.mulmod(&self.qinv, &diff)?;
        // s = m2 + q·h  (already < pq)
        Ok(m2.add(&self.q.mul(&h)))
    }
}

/// DER DigestInfo prefixes per RFC 8017 §9.2 note 1.
fn digest_info_prefix(alg: HashAlg) -> &'static [u8] {
    match alg {
        HashAlg::Md5 => &[
            0x30, 0x20, 0x30, 0x0c, 0x06, 0x08, 0x2a, 0x86, 0x48, 0x86, 0xf7, 0x0d, 0x02, 0x05,
            0x05, 0x00, 0x04, 0x10,
        ],
        HashAlg::Sha1 => &[
            0x30, 0x21, 0x30, 0x09, 0x06, 0x05, 0x2b, 0x0e, 0x03, 0x02, 0x1a, 0x05, 0x00, 0x04,
            0x14,
        ],
        HashAlg::Sha256 => &[
            0x30, 0x31, 0x30, 0x0d, 0x06, 0x09, 0x60, 0x86, 0x48, 0x01, 0x65, 0x03, 0x04, 0x02,
            0x01, 0x05, 0x00, 0x04, 0x20,
        ],
    }
}

const FIRST_PRIMES: [u64; 60] = [
    3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
    101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193,
    197, 199, 211, 223, 227, 229, 233, 239, 241, 251, 257, 263, 269, 271, 277, 281, 283,
];

/// Products of consecutive `FIRST_PRIMES` packed greedily into `u64`s.
///
/// Trial division then needs one multi-limb-by-`u64` remainder per product
/// (5 of them) instead of one full `div_rem` per prime (60 of them): a
/// small prime `p` divides `n` iff `gcd(n mod P, P) > 1` for the product
/// `P` containing `p`.
fn prime_products() -> &'static [u64] {
    static PRODUCTS: std::sync::OnceLock<Vec<u64>> = std::sync::OnceLock::new();
    PRODUCTS.get_or_init(|| {
        let mut products = Vec::new();
        let mut acc: u64 = 1;
        for &p in &FIRST_PRIMES {
            match acc.checked_mul(p) {
                Some(next) => acc = next,
                None => {
                    products.push(acc);
                    acc = p;
                }
            }
        }
        products.push(acc);
        products
    })
}

fn gcd_u64(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// True iff some prime in `FIRST_PRIMES` divides `n` — without any
/// multi-limb division beyond one short remainder per prime product.
fn has_small_factor(n: &Ubig) -> bool {
    prime_products().iter().any(|&prod| gcd_u64(n.rem_u64(prod), prod) > 1)
}

/// Decompose `n - 1 = d · 2^r` with `d` odd.
fn mr_decompose(n_minus_1: &Ubig) -> (Ubig, usize) {
    let mut d = n_minus_1.clone();
    let mut r = 0usize;
    while !d.is_odd() {
        d = d.shr(1);
        r += 1;
    }
    (d, r)
}

/// One Miller–Rabin round: true iff base `a` *witnesses* that `n` is
/// composite (so `false` means "n is probably prime as far as `a` can
/// tell"). `ctx` is `n`'s Montgomery context.
fn mr_composite_witness(
    a: &Ubig,
    d: &Ubig,
    r: usize,
    n_minus_1: &Ubig,
    ctx: &MontgomeryCtx,
) -> bool {
    // Base 2 rides the square-and-double ladder: the multiply step
    // degenerates to an O(k) modular doubling, ~20% off the ladder that
    // kills almost every sieved-but-composite candidate.
    let mut x = if a == &Ubig::from_u64(2) { ctx.pow2mod(d) } else { ctx.modpow(a, d) }
        .expect("nonzero modulus");
    if x.is_one() || &x == n_minus_1 {
        return false;
    }
    for _ in 0..r.saturating_sub(1) {
        x = ctx.sqrmod(&x).expect("nonzero modulus");
        if &x == n_minus_1 {
            return false;
        }
    }
    true
}

/// Miller–Rabin core for an odd `n > 283` already known to have no small
/// factor: one fixed base-2 round, then `rounds` random witnesses.
///
/// The base-2 round costs one ladder like any witness but draws nothing
/// from `rng` and skips the random base's `rem(n-1)` bigint division —
/// and almost every composite that survives the small-prime sieve dies
/// there (base-2 strong pseudoprimes are vanishingly rare: the first is
/// 2047, and their density keeps falling), so the random-witness loop
/// with its per-base setup runs almost exclusively on actual primes.
/// Returns `(probably_prime, rejected_by_base2)`.
fn mr_probable_prime(n: &Ubig, rounds: usize, rng: &mut dyn RngCore64) -> (bool, bool) {
    let n_minus_1 = n.sub(&Ubig::one());
    let (d, r) = mr_decompose(&n_minus_1);
    // One Montgomery context serves every witness (n is odd here).
    let ctx = MontgomeryCtx::new(n).expect("odd modulus");
    if mr_composite_witness(&Ubig::from_u64(2), &d, r, &n_minus_1, &ctx) {
        return (false, true);
    }
    let byte_len = n.bit_len().div_ceil(8);
    for _ in 0..rounds {
        // Random base a in [2, n-2].
        let a = loop {
            let mut bytes = vec![0u8; byte_len];
            rng.fill_bytes(&mut bytes);
            let a = Ubig::from_bytes_be(&bytes).rem(&n_minus_1).expect("nonzero divisor");
            if a > Ubig::one() {
                break a;
            }
        };
        if mr_composite_witness(&a, &d, r, &n_minus_1, &ctx) {
            return (false, false);
        }
    }
    (true, false)
}

/// Miller–Rabin probabilistic primality test: batched small-prime trial
/// division, a fixed base-2 round, then `rounds` random bases.
pub fn is_probable_prime(n: &Ubig, rounds: usize, rng: &mut dyn RngCore64) -> bool {
    if n.is_zero() || n.is_one() {
        return false;
    }
    let two = Ubig::from_u64(2);
    if n == &two {
        return true;
    }
    if !n.is_odd() {
        return false;
    }
    // Trial division by small primes via batched prime products. For n
    // itself within the small-prime range the factor found is n, which is
    // prime — hence the membership check instead.
    if n <= &Ubig::from_u64(*FIRST_PRIMES.last().expect("FIRST_PRIMES is a nonempty const")) {
        return FIRST_PRIMES.contains(&n.limbs()[0]); // single-limb by the guard
    }
    if has_small_factor(n) {
        return false;
    }
    mr_probable_prime(n, rounds, rng).0
}

/// Cumulative [`gen_prime`] search statistics for this process.
///
/// The sieve's whole point is the ratio between these counters: most odd
/// candidates must die in the `u64` residue walk (`candidates` vs
/// `mr_runs`), and most sieve survivors that are composite must die in
/// the fixed base-2 round (`base2_rejects`) without touching the
/// random-witness machinery. `exp_perf` reports them and ROADMAP records
/// them per PR.
#[derive(Debug, Clone, Copy, Default)]
pub struct KeygenStats {
    /// Odd candidates examined by the incremental sieve.
    pub candidates: u64,
    /// Candidates that survived the small-prime sieve (each costs one
    /// Miller–Rabin run, starting with the fixed base-2 round).
    pub mr_runs: u64,
    /// Sieve survivors rejected by the base-2 round alone.
    pub base2_rejects: u64,
    /// Primes returned.
    pub primes: u64,
}

/// Process-wide count of RSA signatures produced (every
/// [`RsaKeyPair::sign`] call). `exp_perf`'s mint series divides the
/// delta across a minting run by the chains minted to report
/// signatures-per-mint — the unit cost the substitute prewarm amortizes.
static SIGNATURES: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Snapshot of the process-wide signature counter.
pub fn signature_count() -> u64 {
    SIGNATURES.load(std::sync::atomic::Ordering::Relaxed)
}

static KG_CANDIDATES: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
static KG_MR_RUNS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
static KG_BASE2_REJECTS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
static KG_PRIMES: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Snapshot of the process-wide [`gen_prime`] counters.
pub fn keygen_stats() -> KeygenStats {
    use std::sync::atomic::Ordering::Relaxed;
    KeygenStats {
        candidates: KG_CANDIDATES.load(Relaxed),
        mr_runs: KG_MR_RUNS.load(Relaxed),
        base2_rejects: KG_BASE2_REJECTS.load(Relaxed),
        primes: KG_PRIMES.load(Relaxed),
    }
}

/// Odd steps examined per random start before redrawing. The expected
/// prime gap among odd `bits`-bit numbers is ~`bits·ln2/2` (≈ 710/2 at
/// 1024 bits), so 2¹⁴ steps make a windowless redraw vanishingly rare
/// while keeping each interval short enough that the search still lands
/// near its uniformly drawn start.
const SIEVE_ODD_STEPS: usize = 1 << 14;

/// Exclusive bound on the sieving primes. Much larger than the 60-entry
/// trial-division table: each extra prime `p` removes a `1/p` slice of
/// candidates *before* they cost a Miller–Rabin ladder, and with the
/// window sieve a prime's per-start cost is `O(window/p)` bit marks —
/// so big tables are nearly free here, while they would be useless in
/// the old per-candidate trial division. Sieving to 2¹⁶ (6542 primes)
/// passes ~15% of odd candidates to Miller–Rabin (measured:
/// `sieve_mr_runs_per_prime / sieve_candidates_per_prime` in
/// `BENCH_crypto.json`; the Mertens-theorem steady-state is ~10%, but a
/// search stops at its prime, which skews the observed mix) vs ~20% at
/// the old bound of 283.
const SIEVE_PRIME_BOUND: usize = 1 << 16;

/// The sieving primes (odd primes below [`SIEVE_PRIME_BOUND`]) together
/// with consecutive runs packed greedily into `u64` products: residues
/// of a bigint start are taken once per *product* (one multi-limb by
/// `u64` remainder) and expanded to per-prime residues with `u64`
/// arithmetic, cutting the bigint divisions per start ~3×.
struct SieveTable {
    primes: Vec<u32>,
    /// `(product, range into primes)` — every prime in `range` divides
    /// `product`, and `product` fits a `u64`.
    products: Vec<(u64, core::ops::Range<usize>)>,
}

fn sieve_table() -> &'static SieveTable {
    static TABLE: std::sync::OnceLock<SieveTable> = std::sync::OnceLock::new();
    TABLE.get_or_init(|| {
        // Sieve of Eratosthenes over the odd numbers below the bound.
        let mut is_composite = vec![false; SIEVE_PRIME_BOUND];
        let mut primes = Vec::new();
        for n in (3..SIEVE_PRIME_BOUND).step_by(2) {
            if is_composite[n] {
                continue;
            }
            primes.push(n as u32);
            for multiple in (n * n..SIEVE_PRIME_BOUND).step_by(2 * n) {
                is_composite[multiple] = true;
            }
        }
        let mut products = Vec::new();
        let mut acc: u64 = 1;
        let mut run_start = 0usize;
        for (i, &p) in primes.iter().enumerate() {
            match acc.checked_mul(p as u64) {
                Some(next) => acc = next,
                None => {
                    products.push((acc, run_start..i));
                    acc = p as u64;
                    run_start = i;
                }
            }
        }
        products.push((acc, run_start..primes.len()));
        SieveTable { primes, products }
    })
}

/// Generate a random prime with exactly `bits` bits.
///
/// Incremental sieved search: draw one random odd start per attempt
/// (top two bits forced, as before, so `p·q` has full size), then sieve
/// the window of [`SIEVE_ODD_STEPS`] odd candidates `start + 2j` in one
/// pass — the residue of `start` modulo each packed prime product is
/// taken once, expanded to per-prime residues, and each prime marks its
/// multiples through the window with cheap `u64` strides. Only unmarked
/// candidates pay for bigint work: one add to materialize the
/// candidate, then a Miller–Rabin run opened by the fixed base-2
/// doubling ladder. The draw-test-discard loop this replaces paid
/// trial division plus, for survivors, a random-witness setup per
/// candidate, and re-randomized every draw so no residue work could be
/// shared.
///
/// Deterministic per RNG state, like every generation routine here: the
/// population key cache relies on `(seed, bits) → key` being pure.
pub fn gen_prime(bits: usize, rng: &mut dyn RngCore64) -> Result<Ubig, CryptoError> {
    assert!(bits >= 16, "prime sizes below 16 bits are not supported");
    let byte_len = bits.div_ceil(8);
    // MR round counts sized for *random* candidates (which these are):
    // by the Damgård–Landrock–Pomerance average-case bounds, 8 rounds on
    // random 512-bit candidates leave error far below 2⁻¹⁰⁰ (worst-case
    // adversarial 4⁻ᵗ analysis does not apply to sieve output), matching
    // FIPS 186-4 Table C.2's regime for RSA prime generation. Below 512
    // bits — toy sizes reachable only from tests — stay generous.
    let rounds = if bits >= 1024 {
        5
    } else if bits >= 512 {
        8
    } else {
        16
    };
    let table = sieve_table();
    // Sieving primes must stay below the candidates (which are ≥
    // 2^(bits-1)); only bits = 16 can collide with the 2¹⁶ table bound.
    let max_sieve_prime = if bits > 16 { u64::MAX } else { 1u64 << (bits - 1) };
    let mut stats = KeygenStats::default();
    let mut found = None;
    let mut composite = vec![false; SIEVE_ODD_STEPS];
    'attempt: for _ in 0..1024 {
        let mut bytes = vec![0u8; byte_len];
        rng.fill_bytes(&mut bytes);
        let mut start = Ubig::from_bytes_be(&bytes);
        // Force exact bit length: clear any excess high bits, set the top
        // two bits (so p*q has full size) and the low bit (odd).
        start = start.rem(&Ubig::one().shl(bits)).expect("nonzero");
        start.set_bit(bits - 1);
        start.set_bit(bits - 2);
        start.set_bit(0);
        // Mark every window slot a sieving prime divides: slot j holds
        // start + 2j, so p strikes j ≡ -start·2⁻¹ ≡ (p - r)·(p+1)/2
        // (mod p), where r = start mod p comes from the packed-product
        // residue at u64 cost.
        composite.fill(false);
        for (product, range) in &table.products {
            let product_residue = start.rem_u64(*product);
            for &p in &table.primes[range.clone()] {
                let p = p as u64;
                if p >= max_sieve_prime {
                    break; // primes are sorted; nothing further applies
                }
                let r = product_residue % p;
                let inv2 = p.div_ceil(2); // 2⁻¹ mod p for odd p
                let mut j = (((p - r) % p) * inv2 % p) as usize;
                while j < SIEVE_ODD_STEPS {
                    composite[j] = true;
                    j += p as usize;
                }
            }
        }
        for (j, &is_composite) in composite.iter().enumerate() {
            stats.candidates += 1;
            if is_composite {
                continue; // a sieving prime divides this candidate
            }
            let candidate = start.add(&Ubig::from_u64(j as u64 * 2));
            if candidate.bit_len() != bits {
                continue 'attempt; // walked off the top of the interval
            }
            stats.mr_runs += 1;
            let (probably_prime, base2_reject) = mr_probable_prime(&candidate, rounds, rng);
            stats.base2_rejects += base2_reject as u64;
            if probably_prime {
                stats.primes += 1;
                found = Some(candidate);
                break 'attempt;
            }
        }
    }
    use std::sync::atomic::Ordering::Relaxed;
    KG_CANDIDATES.fetch_add(stats.candidates, Relaxed);
    KG_MR_RUNS.fetch_add(stats.mr_runs, Relaxed);
    KG_BASE2_REJECTS.fetch_add(stats.base2_rejects, Relaxed);
    KG_PRIMES.fetch_add(stats.primes, Relaxed);
    found.ok_or(CryptoError::PrimeGenFailed)
}

impl RsaKeyPair {
    /// Generate an RSA key pair with a `bits`-bit modulus and `e = 65537`.
    ///
    /// Deterministic given the RNG state — the population simulator relies
    /// on this to give each interception product a stable root key.
    pub fn generate(bits: usize, rng: &mut dyn RngCore64) -> Result<Self, CryptoError> {
        assert!(bits >= 256, "modulus sizes below 256 bits are not supported");
        let e = Ubig::from_u64(65537);
        loop {
            let p = gen_prime(bits / 2, rng)?;
            let q = gen_prime(bits - bits / 2, rng)?;
            if p == q {
                continue;
            }
            let n = p.mul(&q);
            if n.bit_len() != bits {
                continue;
            }
            let phi = p.sub(&Ubig::one()).mul(&q.sub(&Ubig::one()));
            let d = match e.modinv(&phi) {
                Ok(d) => d,
                Err(_) => continue, // e not coprime with phi; rare — retry
            };
            let crt = Some(RsaCrt::new(&p, &q, &d)?);
            return Ok(RsaKeyPair { public: RsaPublicKey { n, e }, d, p, q, crt });
        }
    }

    /// Modulus size in bits (the paper's "public key size").
    pub fn bits(&self) -> usize {
        self.public.n.bit_len()
    }

    /// Sign `message` with RSASSA-PKCS1-v1_5 using `alg` as digest.
    ///
    /// Returns the signature as a big-endian byte string exactly as long
    /// as the modulus. Keys with precomputed [`RsaCrt`] material (all
    /// generated keys) take the CRT fast path; the result is byte-
    /// identical either way.
    pub fn sign(&self, alg: HashAlg, message: &[u8]) -> Result<Vec<u8>, CryptoError> {
        SIGNATURES.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let k = self.public.n.bit_len().div_ceil(8);
        let em = pkcs1v15_encode(alg, message, k)?;
        let m = Ubig::from_bytes_be(&em);
        if m >= self.public.n {
            return Err(CryptoError::MessageTooLong);
        }
        let s = match &self.crt {
            Some(crt) => crt.private_exp(&m)?,
            None => m.modpow(&self.d, &self.public.n)?,
        };
        s.to_bytes_be_padded(k).ok_or(CryptoError::MessageTooLong)
    }

    /// Recompute and attach the CRT acceleration material (for keys
    /// assembled from raw parts rather than [`RsaKeyPair::generate`]).
    pub fn precompute_crt(&mut self) -> Result<(), CryptoError> {
        self.crt = Some(RsaCrt::new(&self.p, &self.q, &self.d)?);
        Ok(())
    }
}

impl RsaPublicKey {
    /// Modulus size in bits.
    pub fn bits(&self) -> usize {
        self.n.bit_len()
    }

    /// Verify an RSASSA-PKCS1-v1_5 signature over `message`.
    ///
    /// The exponentiation is [`Ubig::modpow`], which rides the
    /// process-wide [`crate::ctxcache::ctx_for`] for odd moduli, so
    /// verifying many signatures against the same key (chain
    /// validation, root-store anchor search) derives the per-modulus
    /// Montgomery constants once rather than per call.
    pub fn verify(
        &self,
        alg: HashAlg,
        message: &[u8],
        signature: &[u8],
    ) -> Result<(), CryptoError> {
        let k = self.n.bit_len().div_ceil(8);
        if signature.len() != k {
            return Err(CryptoError::BadSignature);
        }
        let s = Ubig::from_bytes_be(signature);
        if s >= self.n {
            return Err(CryptoError::BadSignature);
        }
        let m = s.modpow(&self.e, &self.n)?;
        let em = m.to_bytes_be_padded(k).ok_or(CryptoError::BadSignature)?;
        let expected = pkcs1v15_encode(alg, message, k)?;
        if em == expected {
            Ok(())
        } else {
            Err(CryptoError::BadSignature)
        }
    }
}

/// EMSA-PKCS1-v1_5 encoding: `0x00 0x01 FF..FF 0x00 DigestInfo || digest`.
fn pkcs1v15_encode(alg: HashAlg, message: &[u8], k: usize) -> Result<Vec<u8>, CryptoError> {
    let digest = alg.digest(message);
    let prefix = digest_info_prefix(alg);
    let t_len = prefix.len() + digest.len();
    if k < t_len + 11 {
        return Err(CryptoError::InvalidKey("modulus too small for digest"));
    }
    let mut em = Vec::with_capacity(k);
    em.push(0x00);
    em.push(0x01);
    em.resize(k - t_len - 1, 0xff);
    em.push(0x00);
    em.extend_from_slice(prefix);
    em.extend_from_slice(&digest);
    Ok(em)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::drbg::Drbg;

    #[test]
    fn small_primes_recognized() {
        let mut rng = Drbg::new(1);
        for p in [2u64, 3, 5, 7, 11, 13, 257, 65537, 1_000_000_007] {
            assert!(is_probable_prime(&Ubig::from_u64(p), 16, &mut rng), "{p} should be prime");
        }
        for c in [0u64, 1, 4, 9, 15, 21, 255, 65535, 1_000_000_008] {
            assert!(
                !is_probable_prime(&Ubig::from_u64(c), 16, &mut rng),
                "{c} should be composite"
            );
        }
    }

    #[test]
    fn carmichael_numbers_rejected() {
        // 561, 1105, 1729 are Carmichael numbers (fool Fermat, not MR).
        let mut rng = Drbg::new(2);
        for c in [561u64, 1105, 1729, 2465, 2821, 6601] {
            assert!(
                !is_probable_prime(&Ubig::from_u64(c), 16, &mut rng),
                "Carmichael {c} must be rejected"
            );
        }
    }

    #[test]
    fn gen_prime_exact_bits() {
        // 16 and 17 bits straddle the sieve-table bound of 2¹⁶: at 16
        // bits the candidates overlap the sieving-prime range, so the
        // prime cap (`max_sieve_prime`) is what keeps the sieve from
        // striking a candidate equal to a table prime.
        let mut rng = Drbg::new(3);
        for bits in [16usize, 17, 64, 128, 256] {
            let p = gen_prime(bits, &mut rng).unwrap();
            assert_eq!(p.bit_len(), bits);
            assert!(p.is_odd());
            assert!(is_probable_prime(&p, 16, &mut rng), "{p:?} must be prime");
        }
    }

    #[test]
    fn base2_strong_pseudoprimes_still_rejected() {
        // These pass the fixed base-2 opening round (they are strong
        // pseudoprimes base 2) — the random witnesses behind it must
        // still reject them.
        let mut rng = Drbg::new(27);
        for c in [2047u64, 3277, 4033, 4681, 8321, 15841, 29341, 42799, 49141] {
            assert!(!is_probable_prime(&Ubig::from_u64(c), 16, &mut rng), "{c} is composite");
        }
    }

    #[test]
    fn sieve_stats_accumulate_sensibly() {
        let before = keygen_stats();
        gen_prime(128, &mut Drbg::new(0x57A7)).unwrap();
        gen_prime(192, &mut Drbg::new(0x57A8)).unwrap();
        let after = keygen_stats();
        let candidates = after.candidates - before.candidates;
        let mr_runs = after.mr_runs - before.mr_runs;
        let primes = after.primes - before.primes;
        // ≥, not ==: the counters are process-wide and sibling tests
        // generate keys concurrently; every invariant below also holds
        // for sums of per-call stats.
        assert!(primes >= 2);
        assert!(mr_runs >= primes, "each prime costs at least one MR run");
        assert!(candidates >= mr_runs, "the sieve can only shrink the MR load");
        // The sieve's reason to exist: most candidates never reach MR.
        // With 60 sieving primes ~1−∏(1−1/p) ≈ 82% of odd numbers are
        // filtered; require a conservative majority to catch a sieve
        // that silently stops filtering.
        assert!(
            mr_runs * 3 <= candidates,
            "sieve passed {mr_runs} of {candidates} candidates to Miller–Rabin"
        );
    }

    #[test]
    fn keygen_sign_verify_roundtrip() {
        let mut rng = Drbg::new(4);
        let key = RsaKeyPair::generate(512, &mut rng).unwrap();
        assert_eq!(key.bits(), 512);
        for alg in [HashAlg::Md5, HashAlg::Sha1, HashAlg::Sha256] {
            let sig = key.sign(alg, b"hello certificate").unwrap();
            assert_eq!(sig.len(), 64);
            key.public.verify(alg, b"hello certificate", &sig).unwrap();
            // Tampered message fails.
            assert_eq!(
                key.public.verify(alg, b"hello certificatf", &sig),
                Err(CryptoError::BadSignature)
            );
        }
    }

    #[test]
    fn tampered_signature_fails() {
        let mut rng = Drbg::new(5);
        let key = RsaKeyPair::generate(512, &mut rng).unwrap();
        let mut sig = key.sign(HashAlg::Sha256, b"msg").unwrap();
        sig[10] ^= 0x01;
        assert_eq!(
            key.public.verify(HashAlg::Sha256, b"msg", &sig),
            Err(CryptoError::BadSignature)
        );
    }

    #[test]
    fn wrong_key_fails() {
        let mut rng = Drbg::new(6);
        let key1 = RsaKeyPair::generate(512, &mut rng).unwrap();
        let key2 = RsaKeyPair::generate(512, &mut rng).unwrap();
        let sig = key1.sign(HashAlg::Sha1, b"msg").unwrap();
        assert!(key2.public.verify(HashAlg::Sha1, b"msg", &sig).is_err());
    }

    #[test]
    fn wrong_hash_alg_fails() {
        let mut rng = Drbg::new(7);
        let key = RsaKeyPair::generate(512, &mut rng).unwrap();
        let sig = key.sign(HashAlg::Sha1, b"msg").unwrap();
        assert!(key.public.verify(HashAlg::Sha256, b"msg", &sig).is_err());
    }

    #[test]
    fn wrong_length_signature_rejected() {
        let mut rng = Drbg::new(8);
        let key = RsaKeyPair::generate(512, &mut rng).unwrap();
        assert!(key.public.verify(HashAlg::Sha1, b"msg", &[0u8; 63]).is_err());
        assert!(key.public.verify(HashAlg::Sha1, b"msg", &[]).is_err());
    }

    #[test]
    fn crt_and_direct_signatures_byte_identical() {
        let mut rng = Drbg::new(20);
        for bits in [512usize, 768] {
            let key = RsaKeyPair::generate(bits, &mut rng).unwrap();
            assert!(key.crt.is_some(), "generate must precompute CRT");
            let mut slow = key.clone();
            slow.crt = None;
            for alg in [HashAlg::Md5, HashAlg::Sha1, HashAlg::Sha256] {
                let fast_sig = key.sign(alg, b"garner recombination").unwrap();
                let slow_sig = slow.sign(alg, b"garner recombination").unwrap();
                assert_eq!(fast_sig, slow_sig, "bits={bits} alg={alg:?}");
                key.public.verify(alg, b"garner recombination", &fast_sig).unwrap();
            }
        }
    }

    #[test]
    fn crt_matches_direct_for_lopsided_factors() {
        // Generated keys draw both primes at half the modulus width with
        // the top two bits set, so q < 2p and Garner's `m2 mod p` never
        // needs a real division. Hand-assembled keys whose factors differ
        // in size take that branch (p smaller) or skip it (p larger).
        let mut rng = Drbg::new(25);
        for (p_bits, q_bits) in [(256usize, 512usize), (512, 256)] {
            let e = Ubig::from_u64(65537);
            let (p, q, d) = loop {
                let p = gen_prime(p_bits, &mut rng).unwrap();
                let q = gen_prime(q_bits, &mut rng).unwrap();
                let phi = p.sub(&Ubig::one()).mul(&q.sub(&Ubig::one()));
                if let Ok(d) = e.modinv(&phi) {
                    break (p, q, d);
                }
            };
            let public = RsaPublicKey { n: p.mul(&q), e };
            let direct = RsaKeyPair { public, d, p, q, crt: None };
            let mut key = direct.clone();
            key.precompute_crt().unwrap();
            let msg = b"lopsided factors";
            for alg in [HashAlg::Sha1, HashAlg::Sha256] {
                let sig = key.sign(alg, msg).unwrap();
                assert_eq!(sig, direct.sign(alg, msg).unwrap(), "p={p_bits} q={q_bits}");
                key.public.verify(alg, msg, &sig).unwrap();
            }
        }
    }

    #[test]
    fn signature_counter_counts_signs() {
        let mut rng = Drbg::new(24);
        let key = RsaKeyPair::generate(512, &mut rng).unwrap();
        let before = signature_count();
        key.sign(HashAlg::Sha1, b"one").unwrap();
        key.sign(HashAlg::Sha1, b"two").unwrap();
        let after = signature_count();
        // ≥, not ==: the counter is process-wide and sibling tests sign
        // concurrently.
        assert!(after - before >= 2, "counter moved {} for 2 signs", after - before);
    }

    #[test]
    fn precompute_crt_restores_fast_path() {
        let mut rng = Drbg::new(21);
        let key = RsaKeyPair::generate(512, &mut rng).unwrap();
        let mut stripped = key.clone();
        stripped.crt = None;
        stripped.precompute_crt().unwrap();
        assert_eq!(
            stripped.sign(HashAlg::Sha1, b"m").unwrap(),
            key.sign(HashAlg::Sha1, b"m").unwrap()
        );
    }

    #[test]
    fn small_factor_batching_matches_direct_division() {
        // The batched gcd trial division must agree with dividing by each
        // prime individually on a mix of smooth and rough numbers.
        let mut rng = Drbg::new(22);
        for _ in 0..200 {
            let mut bytes = [0u8; 24];
            rng.fill_bytes(&mut bytes);
            let mut n = Ubig::from_bytes_be(&bytes);
            n.set_bit(0); // odd, as on the is_probable_prime path
            let direct = FIRST_PRIMES.iter().any(|&p| n.rem_u64(p) == 0);
            assert_eq!(has_small_factor(&n), direct, "n={n:?}");
        }
    }

    #[test]
    fn rsa_identity_on_raw_values() {
        // m^(e*d) ≡ m (mod n) for a handful of raw representatives.
        let mut rng = Drbg::new(9);
        let key = RsaKeyPair::generate(256, &mut rng).unwrap();
        for v in [2u64, 3, 12345, 0xdead_beef] {
            let m = Ubig::from_u64(v);
            let c = m.modpow(&key.public.e, &key.public.n).unwrap();
            let back = c.modpow(&key.d, &key.public.n).unwrap();
            assert_eq!(back, m);
        }
    }

    #[test]
    fn deterministic_keygen() {
        let k1 = RsaKeyPair::generate(256, &mut Drbg::new(42)).unwrap();
        let k2 = RsaKeyPair::generate(256, &mut Drbg::new(42)).unwrap();
        assert_eq!(k1.public, k2.public);
    }

    #[test]
    fn modulus_too_small_for_digest() {
        let mut rng = Drbg::new(10);
        let key = RsaKeyPair::generate(256, &mut rng).unwrap();
        // SHA-256 DigestInfo (51 bytes) + 11 > 32-byte modulus.
        assert!(key.sign(HashAlg::Sha256, b"x").is_err());
        // MD5 (34 bytes + 11 = 45 > 32) also too big; SHA-1 too.
        assert!(key.sign(HashAlg::Sha1, b"x").is_err());
    }
}
