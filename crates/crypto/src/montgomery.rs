//! Montgomery-form modular arithmetic — the workspace's hot path.
//!
//! Every RSA operation in the simulator (keygen trial exponentiations,
//! Miller–Rabin witnesses, certificate signing, chain verification)
//! bottoms out in `a^e mod n`. The schoolbook path in [`crate::bigint`]
//! pays a full Knuth Algorithm-D division per square-and-multiply step —
//! ~3000 divisions per 1024-bit signature. This module removes every one
//! of them:
//!
//! * [`MontgomeryCtx`] precomputes, once per modulus, the Montgomery
//!   constants `n′ = -n⁻¹ mod 2⁶⁴` and `R² mod n` (with `R = 2^(64·k)`
//!   for a `k`-limb modulus);
//! * one kernel multiplies and squares: CIOS (Coarsely Integrated Operand
//!   Scanning, Koç–Acar–Kaliski 1996) over the existing little-endian
//!   `u64` limb representation — one fused multiply/reduce pass, no
//!   division;
//! * one ladder exponentiates ([`MontgomeryCtx::modpow`]): plain
//!   left-to-right binary for exponents of at most 64 bits, which makes
//!   `e = 65537` verification cheap, and fixed 4-bit windows above;
//!   base 2 alone gets a square-and-double ladder
//!   ([`MontgomeryCtx::pow2mod`]) for Miller–Rabin's opening round;
//! * results leave Montgomery form through a reduction-only pass
//!   (`mont_redc`, `k²` limb multiplies) instead of a full multiply by
//!   plain 1 (`2k²`);
//! * operands already `< n` are copied, not re-divided.
//!
//! Each call allocates its own few `k`-limb buffers. A fused squaring
//! kernel, 5-bit and per-key recoded windows, and a caller-owned ladder
//! workspace were each built and measured no faster on this substrate
//! (ROADMAP, "Standing negative results"), so none of them is here.
//!
//! Callers that verify or exponentiate repeatedly against the *same*
//! modulus should fetch their context from [`crate::ctxcache::ctx_for`]
//! instead of rebuilding it — the `R² mod n` division in
//! [`MontgomeryCtx::new`] is the only division left on the hot path.
//!
//! Montgomery reduction requires an odd modulus; [`crate::Ubig::modpow`]
//! transparently falls back to the schoolbook path for even moduli.

use crate::bigint::Ubig;
use crate::CryptoError;

/// Exponent bit-length at or below which plain binary square-and-multiply
/// beats building the 4-bit window table (the table costs 14 multiplies;
/// binary saves ~bits/4 of them). 65537 (17 bits) lands well below this.
const WINDOW_THRESHOLD_BITS: usize = 64;

/// Precomputed per-modulus state for Montgomery arithmetic.
///
/// Build once per modulus with [`MontgomeryCtx::new`] (the only step that
/// still performs a division, for `R² mod n`), then run any number of
/// division-free [`modpow`](MontgomeryCtx::modpow) /
/// [`mulmod`](MontgomeryCtx::mulmod) calls against it. RSA keys cache one
/// context per prime factor (see `rsa::RsaCrt`), so signing performs no
/// divisions at all.
#[derive(Debug, Clone)]
pub struct MontgomeryCtx {
    /// Modulus limbs, little-endian, length `k` (top limb non-zero).
    n: Vec<u64>,
    /// `-n⁻¹ mod 2⁶⁴`.
    n0_inv: u64,
    /// `R² mod n`, used to convert operands into Montgomery form.
    r2: Vec<u64>,
    /// `R mod n` — the Montgomery representation of 1.
    one: Vec<u64>,
}

impl MontgomeryCtx {
    /// Precompute Montgomery constants for an odd modulus `n > 1`.
    ///
    /// Returns [`CryptoError::EvenModulus`] when `n` is even (Montgomery
    /// reduction needs `gcd(n, 2⁶⁴) = 1`) and
    /// [`CryptoError::DivisionByZero`] when `n` is zero.
    pub fn new(modulus: &Ubig) -> Result<MontgomeryCtx, CryptoError> {
        if modulus.is_zero() {
            return Err(CryptoError::DivisionByZero);
        }
        if !modulus.is_odd() {
            return Err(CryptoError::EvenModulus);
        }
        let n = modulus.limbs().to_vec();
        let k = n.len();
        // Hensel-lift the inverse of n[0] mod 2⁶⁴: five Newton steps,
        // each doubling the number of correct low bits from the seed's 3
        // (x·x ≡ 1 mod 8 for odd x), giving 3·2⁵ = 96 ≥ 64.
        let mut inv: u64 = n[0]; // correct mod 2³ for odd n[0]
        for _ in 0..5 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(n[0].wrapping_mul(inv)));
        }
        debug_assert_eq!(n[0].wrapping_mul(inv), 1);
        let n0_inv = inv.wrapping_neg();

        // R mod n and R² mod n via the (one-time) schoolbook machinery.
        let r_mod_n = Ubig::one().shl(64 * k).rem(modulus)?;
        let r2_big = r_mod_n.mulmod(&r_mod_n, modulus)?;
        Ok(MontgomeryCtx { one: fixed_limbs(&r_mod_n, k), r2: fixed_limbs(&r2_big, k), n, n0_inv })
    }

    /// The modulus this context reduces by.
    pub fn modulus(&self) -> Ubig {
        Ubig::from_limbs(self.n.clone())
    }

    /// CIOS Montgomery multiplication: `out ← a·b·R⁻¹ mod n`.
    ///
    /// Fully fused form of Koç–Acar–Kaliski's Coarsely Integrated Operand
    /// Scanning: for each limb of `a`, one inner pass both accumulates
    /// `aᵢ·b` and folds in the `m·n` reduction term, writing results one
    /// limb down — so the divide-by-2⁶⁴ shift costs nothing and `t` is
    /// touched exactly once per pass. `a`, `b` and `out` are `k`-limb
    /// residues `< n`; `t` is a `k+1`-limb scratch buffer reused across
    /// calls. `out` must not alias `t`; aliasing `a`/`b` with `out` is
    /// fine (the product accumulates in `t` and is copied out at the end).
    fn mont_mul(&self, a: &[u64], b: &[u64], t: &mut [u64], out: &mut [u64]) {
        let k = self.n.len();
        debug_assert!(a.len() == k && b.len() == k && out.len() == k && t.len() > k);
        let n = &self.n[..k];
        let b = &b[..k];
        let t = &mut t[..k + 1];
        t.fill(0);
        for &ai in a {
            // Limb 0: accumulate aᵢ·b₀, derive m = t₀·n′ mod 2⁶⁴, and
            // cancel the low limb with m·n₀ (the sum's low 64 bits are 0
            // by construction of n′).
            let sum = t[0] as u128 + ai as u128 * b[0] as u128;
            let mut carry_a = sum >> 64;
            let m = (sum as u64).wrapping_mul(self.n0_inv);
            let red = (sum as u64) as u128 + m as u128 * n[0] as u128;
            debug_assert_eq!(red as u64, 0);
            let mut carry_m = red >> 64;
            // Limbs 1..k: one fused pass, storing shifted one limb down.
            for j in 1..k {
                let sum = t[j] as u128 + ai as u128 * b[j] as u128 + carry_a;
                carry_a = sum >> 64;
                let red = (sum as u64) as u128 + m as u128 * n[j] as u128 + carry_m;
                carry_m = red >> 64;
                t[j - 1] = red as u64;
            }
            // Top limb: t[k] ≤ 1 throughout (t stays < 2n).
            let top = t[k] as u128 + carry_a + carry_m;
            t[k - 1] = top as u64;
            t[k] = (top >> 64) as u64;
        }
        // t < 2n here; one conditional subtraction normalizes to [0, n).
        cond_sub(&t[..k], t[k] != 0, n, out);
    }

    /// Dedicated Montgomery reduction: `out ← a·R⁻¹ mod n` for a `k`-limb
    /// residue `a < n`.
    ///
    /// This is how results leave Montgomery form. A `mont_mul` by plain 1
    /// computes the same value with `2k²` limb multiplies, half of them
    /// against a buffer of zeros; the reduction-only pass pays `k²`. `t`
    /// needs `k + 1` limbs; `out` may alias `a` but not `t`.
    fn mont_redc(&self, a: &[u64], t: &mut [u64], out: &mut [u64]) {
        let k = self.n.len();
        debug_assert!(a.len() == k && out.len() == k && t.len() > k);
        let n = &self.n[..k];
        let t = &mut t[..k + 1];
        t[..k].copy_from_slice(a);
        t[k] = 0;
        for _ in 0..k {
            // Cancel the low limb with m·n (its low 64 bits vanish by
            // construction of n′), then shift the whole value down one
            // limb — the same row structure as mont_mul with aᵢ = 0.
            let m = t[0].wrapping_mul(self.n0_inv);
            let red = t[0] as u128 + m as u128 * n[0] as u128;
            debug_assert_eq!(red as u64, 0);
            let mut carry = red >> 64;
            for j in 1..k {
                let sum = t[j] as u128 + m as u128 * n[j] as u128 + carry;
                carry = sum >> 64;
                t[j - 1] = sum as u64;
            }
            let top = t[k] as u128 + carry;
            t[k - 1] = top as u64;
            t[k] = (top >> 64) as u64;
        }
        // a < n ≤ R keeps (a + M·n)/R < n + 1, so at most one subtraction.
        let (lo, hi) = t.split_at(k);
        cond_sub(lo, hi[0] != 0, n, out);
    }

    /// `v mod n` as exactly `k` limbs — without touching the division
    /// machinery when `v < n` already.
    fn residue(&self, v: &Ubig) -> Result<Vec<u64>, CryptoError> {
        let k = self.n.len();
        let src = v.limbs();
        let already_reduced = src.len() < k
            || (src.len() == k && cmp_limbs(src, &self.n) == core::cmp::Ordering::Less);
        if already_reduced {
            Ok(fixed_limbs(v, k))
        } else {
            Ok(fixed_limbs(&v.rem(&self.modulus())?, k))
        }
    }

    /// `v·R mod n`: `v` reduced and carried into Montgomery form.
    fn to_mont(&self, v: &Ubig, t: &mut [u64]) -> Result<Vec<u64>, CryptoError> {
        let plain = self.residue(v)?;
        let mut out = vec![0u64; self.n.len()];
        self.mont_mul(&plain, &self.r2, t, &mut out);
        Ok(out)
    }

    /// `(a · b) mod n` through Montgomery form (one-off products: Garner
    /// recombination, tests; modpow batches its conversions).
    pub fn mulmod(&self, a: &Ubig, b: &Ubig) -> Result<Ubig, CryptoError> {
        let k = self.n.len();
        let mut t = vec![0u64; k + 1];
        let a_mont = self.to_mont(a, &mut t)?;
        let b_plain = self.residue(b)?;
        let mut out = vec![0u64; k];
        // a·R times plain b: the stray R cancels, leaving a·b mod n.
        self.mont_mul(&a_mont, &b_plain, &mut t, &mut out);
        Ok(Ubig::from_limbs(out))
    }

    /// `a² mod n` — Miller–Rabin's repeated-squaring step.
    pub fn sqrmod(&self, a: &Ubig) -> Result<Ubig, CryptoError> {
        self.mulmod(a, a)
    }

    /// `base^exp mod n`, division-free.
    ///
    /// Long exponents use a fixed 4-bit window (16-entry table); exponents
    /// of at most `WINDOW_THRESHOLD_BITS` (64) bits use plain left-to-right
    /// binary, which is cheaper than amortizing the table — that is the
    /// fast path RSA verification with `e = 65537` takes.
    pub fn modpow(&self, base: &Ubig, exp: &Ubig) -> Result<Ubig, CryptoError> {
        let k = self.n.len();
        if k == 1 && self.n[0] == 1 {
            return Ok(Ubig::zero());
        }
        if exp.is_zero() {
            return Ok(Ubig::one());
        }
        let bits = exp.bit_len();
        let mut t = vec![0u64; k + 1];
        let base_m = self.to_mont(base, &mut t)?;
        let mut tmp = vec![0u64; k];
        let mut acc;
        if bits <= WINDOW_THRESHOLD_BITS {
            // Short-exponent path: binary ladder, no table.
            acc = base_m.clone();
            for i in (0..bits - 1).rev() {
                self.mont_mul(&acc, &acc, &mut t, &mut tmp);
                if exp.bit(i) {
                    self.mont_mul(&tmp, &base_m, &mut t, &mut acc);
                } else {
                    core::mem::swap(&mut acc, &mut tmp);
                }
            }
        } else {
            // Fixed 4-bit windows, most-significant first, extracted from
            // the exponent limbs as the ladder walks.
            let table = self.window_table(&base_m, &mut t);
            let entry = |w: u8| &table[w as usize * k..(w as usize + 1) * k];
            let windows = bits.div_ceil(4);
            acc = entry(nibble(exp, windows - 1)).to_vec();
            for w in (0..windows - 1).rev() {
                for _ in 0..4 {
                    self.mont_mul(&acc, &acc, &mut t, &mut tmp);
                    core::mem::swap(&mut acc, &mut tmp);
                }
                let nib = nibble(exp, w);
                if nib != 0 {
                    self.mont_mul(&acc, entry(nib), &mut t, &mut tmp);
                    core::mem::swap(&mut acc, &mut tmp);
                }
            }
        }
        self.mont_redc(&acc, &mut t, &mut tmp);
        Ok(Ubig::from_limbs(tmp))
    }

    /// The 16-entry window table of Montgomery powers of `base_m`: entry
    /// `w` (limbs `w·k..(w+1)·k`) holds `base^w · R mod n`.
    fn window_table(&self, base_m: &[u64], t: &mut [u64]) -> Vec<u64> {
        let k = self.n.len();
        let mut table = vec![0u64; 16 * k];
        table[..k].copy_from_slice(&self.one);
        table[k..2 * k].copy_from_slice(base_m);
        for w in 2..16 {
            let (lo, hi) = table.split_at_mut(w * k);
            self.mont_mul(&lo[(w - 1) * k..], base_m, t, &mut hi[..k]);
        }
        table
    }

    /// `2^exp mod n` via a square-and-*double* ladder.
    ///
    /// In Montgomery form, multiplying the represented value by 2 is just
    /// doubling the representation (`(2x)·R = 2·(xR) mod n`) — an `O(k)`
    /// shift-and-conditional-subtract instead of a `k²` Montgomery
    /// multiply. A base-2 exponentiation therefore costs only the
    /// squarings: ~20% less than the general window ladder, with no
    /// window table to build. This is the fast path for the fixed base-2
    /// Miller–Rabin round that opens every primality test in
    /// [`crate::rsa::gen_prime`], where almost every sieved-but-composite
    /// candidate dies.
    pub fn pow2mod(&self, exp: &Ubig) -> Result<Ubig, CryptoError> {
        let k = self.n.len();
        if k == 1 && self.n[0] == 1 {
            return Ok(Ubig::zero());
        }
        if exp.is_zero() {
            return Ok(Ubig::one());
        }
        let mut t = vec![0u64; k + 1];
        let mut tmp = vec![0u64; k];
        // Top exponent bit is always set: acc = 2̃ = double(1̃).
        let mut acc = self.one.clone();
        mod_double(&mut acc, &self.n);
        for i in (0..exp.bit_len() - 1).rev() {
            self.mont_mul(&acc, &acc, &mut t, &mut tmp);
            core::mem::swap(&mut acc, &mut tmp);
            if exp.bit(i) {
                mod_double(&mut acc, &self.n);
            }
        }
        self.mont_redc(&acc, &mut t, &mut tmp);
        Ok(Ubig::from_limbs(tmp))
    }
}

/// In-place modular doubling of a `k`-limb residue `v < n`:
/// `v ← 2v mod n` (the doubled value is `< 2n`, so one conditional
/// subtraction suffices).
fn mod_double(v: &mut [u64], n: &[u64]) {
    let mut carry = 0u64;
    for limb in v.iter_mut() {
        let shifted = (*limb << 1) | carry;
        carry = *limb >> 63;
        *limb = shifted;
    }
    if carry != 0 || cmp_limbs(v, n) != core::cmp::Ordering::Less {
        let mut borrow = 0u64;
        for (limb, &nj) in v.iter_mut().zip(n.iter()) {
            let (d1, b1) = limb.overflowing_sub(nj);
            let (d2, b2) = d1.overflowing_sub(borrow);
            *limb = d2;
            borrow = (b1 as u64) + (b2 as u64);
        }
    }
}

/// The `i`-th 4-bit window of `exp`, LSB window 0.
fn nibble(exp: &Ubig, i: usize) -> u8 {
    let mut v = 0u8;
    for b in 0..4 {
        if exp.bit(i * 4 + b) {
            v |= 1 << b;
        }
    }
    v
}

/// Limbs of `v` zero-extended to exactly `k` limbs (`v` must fit).
fn fixed_limbs(v: &Ubig, k: usize) -> Vec<u64> {
    let src = v.limbs();
    debug_assert!(src.len() <= k);
    let mut out = vec![0u64; k];
    out[..src.len()].copy_from_slice(src);
    out
}

/// Normalize a `< 2n` Montgomery-reduction result to `[0, n)`:
/// `out ← v - n` when `overflow` (a carry limb was set) or `v ≥ n`,
/// otherwise `out ← v`.
fn cond_sub(v: &[u64], overflow: bool, n: &[u64], out: &mut [u64]) {
    let k = n.len();
    debug_assert!(v.len() == k && out.len() == k);
    if overflow || cmp_limbs(v, n) != core::cmp::Ordering::Less {
        let mut borrow = 0u64;
        for j in 0..k {
            let (d1, b1) = v[j].overflowing_sub(n[j]);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out[j] = d2;
            borrow = (b1 as u64) + (b2 as u64);
        }
    } else {
        out.copy_from_slice(v);
    }
}

fn cmp_limbs(a: &[u64], b: &[u64]) -> core::cmp::Ordering {
    debug_assert_eq!(a.len(), b.len());
    for i in (0..a.len()).rev() {
        match a[i].cmp(&b[i]) {
            core::cmp::Ordering::Equal => continue,
            ord => return ord,
        }
    }
    core::cmp::Ordering::Equal
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::drbg::{Drbg, RngCore64};

    fn random_ubig(rng: &mut Drbg, limbs: usize) -> Ubig {
        let mut bytes = vec![0u8; limbs * 8];
        rng.fill_bytes(&mut bytes);
        Ubig::from_bytes_be(&bytes)
    }

    fn random_odd(rng: &mut Drbg, limbs: usize) -> Ubig {
        let mut m = random_ubig(rng, limbs);
        m.set_bit(0);
        m.set_bit(limbs * 64 - 1); // full limb count
        m
    }

    #[test]
    fn rejects_even_and_zero_modulus() {
        assert_eq!(MontgomeryCtx::new(&Ubig::from_u64(10)).unwrap_err(), CryptoError::EvenModulus);
        assert_eq!(MontgomeryCtx::new(&Ubig::zero()).unwrap_err(), CryptoError::DivisionByZero);
    }

    #[test]
    fn known_small_values() {
        let ctx = MontgomeryCtx::new(&Ubig::from_u64(497)).unwrap();
        assert_eq!(
            ctx.modpow(&Ubig::from_u64(4), &Ubig::from_u64(13)).unwrap(),
            Ubig::from_u64(445)
        );
        assert_eq!(
            ctx.mulmod(&Ubig::from_u64(123), &Ubig::from_u64(456)).unwrap(),
            Ubig::from_u64(123 * 456 % 497)
        );
    }

    #[test]
    fn modulus_one_yields_zero() {
        let ctx = MontgomeryCtx::new(&Ubig::one()).unwrap();
        assert_eq!(ctx.modpow(&Ubig::from_u64(5), &Ubig::from_u64(3)).unwrap(), Ubig::zero());
    }

    #[test]
    fn zero_base_and_zero_exponent() {
        let ctx = MontgomeryCtx::new(&Ubig::from_u64(1_000_003)).unwrap();
        assert_eq!(ctx.modpow(&Ubig::zero(), &Ubig::from_u64(100)).unwrap(), Ubig::zero());
        assert_eq!(ctx.modpow(&Ubig::from_u64(7), &Ubig::zero()).unwrap(), Ubig::one());
        assert_eq!(ctx.modpow(&Ubig::zero(), &Ubig::zero()).unwrap(), Ubig::one());
    }

    #[test]
    fn matches_schoolbook_across_limb_sizes() {
        let mut rng = Drbg::new(0x4d4f4e54);
        for limbs in 1..=9 {
            for _ in 0..8 {
                let m = random_odd(&mut rng, limbs);
                let a = random_ubig(&mut rng, limbs + 1);
                let e = random_ubig(&mut rng, 2);
                let ctx = MontgomeryCtx::new(&m).unwrap();
                assert_eq!(
                    ctx.modpow(&a, &e).unwrap(),
                    a.modpow_schoolbook(&e, &m).unwrap(),
                    "limbs={limbs} m={m:?} a={a:?} e={e:?}"
                );
            }
        }
    }

    #[test]
    fn short_and_long_exponent_paths_agree() {
        let mut rng = Drbg::new(0x57494e44);
        let m = random_odd(&mut rng, 4);
        let a = random_ubig(&mut rng, 4);
        let ctx = MontgomeryCtx::new(&m).unwrap();
        // 64 bits takes the binary path, 65 the window path; check the
        // boundary against schoolbook on both sides.
        for bits in [63usize, 64, 65, 68] {
            let mut e = Ubig::zero();
            e.set_bit(bits - 1);
            e.set_bit(bits / 2);
            e.set_bit(0);
            assert_eq!(
                ctx.modpow(&a, &e).unwrap(),
                a.modpow_schoolbook(&e, &m).unwrap(),
                "bits={bits}"
            );
        }
    }

    #[test]
    fn fermat_on_a_large_prime() {
        // 2^127 - 1 is prime (Mersenne); a^(p-1) ≡ 1 (mod p).
        let p = Ubig::one().shl(127).sub(&Ubig::one());
        let ctx = MontgomeryCtx::new(&p).unwrap();
        let e = p.sub(&Ubig::one());
        for a in [2u64, 3, 0xdead_beef] {
            assert_eq!(ctx.modpow(&Ubig::from_u64(a), &e).unwrap(), Ubig::one());
        }
    }

    #[test]
    fn sqrmod_matches_mulmod_self_product() {
        // Squares of operands wider than the modulus must match the
        // schoolbook product at every width.
        let mut rng = Drbg::new(0x5351_5541_5245);
        for limbs in 1..=9 {
            for _ in 0..8 {
                let m = random_odd(&mut rng, limbs);
                let x = random_ubig(&mut rng, limbs + 1);
                let ctx = MontgomeryCtx::new(&m).unwrap();
                assert_eq!(
                    ctx.sqrmod(&x).unwrap(),
                    ctx.mulmod(&x, &x).unwrap(),
                    "limbs={limbs} m={m:?} x={x:?}"
                );
                assert_eq!(ctx.sqrmod(&x).unwrap(), x.mulmod(&x, &m).unwrap());
            }
        }
    }

    #[test]
    fn sqrmod_edge_values() {
        let m = Ubig::from_u64(1_000_003);
        let ctx = MontgomeryCtx::new(&m).unwrap();
        for v in [0u64, 1, 2, 1_000_002] {
            let x = Ubig::from_u64(v);
            assert_eq!(ctx.sqrmod(&x).unwrap(), Ubig::from_u64(v * v % 1_000_003), "v={v}");
        }
    }

    #[test]
    fn pow2mod_matches_general_ladder() {
        // The doubling ladder must be indistinguishable from modpow with
        // base 2, across widths and exponent lengths (short exponents
        // exercise the binary modpow path, long ones the window path).
        let mut rng = Drbg::new(0x504f_5732);
        let two = Ubig::from_u64(2);
        for limbs in 1..=9 {
            for case in 0..6 {
                let m = random_odd(&mut rng, limbs);
                let ctx = MontgomeryCtx::new(&m).unwrap();
                let e = if case % 2 == 0 {
                    Ubig::from_u64(rng.next_u64())
                } else {
                    random_ubig(&mut rng, limbs)
                };
                assert_eq!(
                    ctx.pow2mod(&e).unwrap(),
                    ctx.modpow(&two, &e).unwrap(),
                    "limbs={limbs} e={e:?} m={m:?}"
                );
            }
        }
    }

    #[test]
    fn pow2mod_edge_cases() {
        let ctx = MontgomeryCtx::new(&Ubig::from_u64(1_000_003)).unwrap();
        assert_eq!(ctx.pow2mod(&Ubig::zero()).unwrap(), Ubig::one());
        assert_eq!(ctx.pow2mod(&Ubig::one()).unwrap(), Ubig::from_u64(2));
        assert_eq!(ctx.pow2mod(&Ubig::from_u64(20)).unwrap(), Ubig::from_u64(48_573)); // 2^20 mod 1000003
        let one = MontgomeryCtx::new(&Ubig::one()).unwrap();
        assert_eq!(one.pow2mod(&Ubig::from_u64(5)).unwrap(), Ubig::zero());
        // Modulus 3: doubling wraps on every step (2 ≡ −1).
        let three = MontgomeryCtx::new(&Ubig::from_u64(3)).unwrap();
        assert_eq!(three.pow2mod(&Ubig::from_u64(5)).unwrap(), Ubig::from_u64(2));
        assert_eq!(three.pow2mod(&Ubig::from_u64(6)).unwrap(), Ubig::one());
    }

    #[test]
    fn base_larger_than_modulus_reduced() {
        let mut rng = Drbg::new(0x42415345);
        let m = random_odd(&mut rng, 2);
        let a = random_ubig(&mut rng, 5);
        let e = Ubig::from_u64(65537);
        let ctx = MontgomeryCtx::new(&m).unwrap();
        assert_eq!(ctx.modpow(&a, &e).unwrap(), a.modpow_schoolbook(&e, &m).unwrap());
    }
}
