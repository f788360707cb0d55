//! Arbitrary-precision unsigned integers.
//!
//! [`Ubig`] stores magnitude as little-endian `u64` limbs with no leading
//! zero limbs (canonical form; zero is the empty limb vector). The
//! operations implemented are exactly those RSA needs: comparison,
//! add/sub/mul, Knuth Algorithm-D division, shifts, modular
//! exponentiation, gcd and modular inverse (extended binary Euclid on
//! signed intermediates).
//!
//! Design note (mirroring the smoltcp philosophy the workspace follows):
//! simplicity and robustness over cleverness — schoolbook multiplication
//! and textbook division, heavily tested, no unsafe. The one performance
//! concession lives in [`crate::montgomery`]: [`Ubig::modpow`] dispatches
//! odd moduli to the division-free Montgomery path and keeps the
//! schoolbook ladder ([`Ubig::modpow_schoolbook`]) as the reference
//! implementation and even-modulus fallback.

use crate::CryptoError;

/// An arbitrary-precision unsigned integer (little-endian `u64` limbs).
#[derive(Clone, PartialEq, Eq, Default, Hash)]
pub struct Ubig {
    limbs: Vec<u64>,
}

impl Ubig {
    /// The value 0.
    pub fn zero() -> Self {
        Ubig { limbs: Vec::new() }
    }

    /// The value 1.
    pub fn one() -> Self {
        Ubig { limbs: vec![1] }
    }

    /// Construct from a single `u64`.
    pub fn from_u64(v: u64) -> Self {
        if v == 0 {
            Ubig::zero()
        } else {
            Ubig { limbs: vec![v] }
        }
    }

    /// Construct from big-endian bytes (leading zeros allowed).
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len() / 8 + 1);
        let mut iter = bytes.rchunks(8);
        for chunk in &mut iter {
            let mut limb = 0u64;
            for &b in chunk {
                limb = (limb << 8) | b as u64;
            }
            limbs.push(limb);
        }
        let mut n = Ubig { limbs };
        n.normalize();
        n
    }

    /// Serialize to big-endian bytes with no leading zeros (empty for 0).
    pub fn to_bytes_be(&self) -> Vec<u8> {
        if self.is_zero() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        for (i, &limb) in self.limbs.iter().enumerate().rev() {
            let bytes = limb.to_be_bytes();
            if i == self.limbs.len() - 1 {
                // Skip leading zero bytes of the most significant limb.
                let skip = (limb.leading_zeros() / 8) as usize;
                out.extend_from_slice(&bytes[skip.min(7)..]);
            } else {
                out.extend_from_slice(&bytes);
            }
        }
        out
    }

    /// Serialize to exactly `len` big-endian bytes, left-padded with zeros.
    ///
    /// Returns `None` if the value does not fit.
    pub fn to_bytes_be_padded(&self, len: usize) -> Option<Vec<u8>> {
        let raw = self.to_bytes_be();
        if raw.len() > len {
            return None;
        }
        let mut out = vec![0u8; len - raw.len()];
        out.extend_from_slice(&raw);
        Some(out)
    }

    /// True iff the value is 0.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// True iff the value is 1.
    pub fn is_one(&self) -> bool {
        self.limbs.len() == 1 && self.limbs[0] == 1
    }

    /// True iff the low bit is set.
    pub fn is_odd(&self) -> bool {
        self.limbs.first().is_some_and(|l| l & 1 == 1)
    }

    /// Number of significant bits (0 for the value 0).
    pub fn bit_len(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(&top) => self.limbs.len() * 64 - top.leading_zeros() as usize,
        }
    }

    /// Value of bit `i` (LSB is bit 0).
    pub fn bit(&self, i: usize) -> bool {
        let (limb, off) = (i / 64, i % 64);
        self.limbs.get(limb).is_some_and(|l| (l >> off) & 1 == 1)
    }

    /// Set bit `i`, growing the limb vector if needed.
    pub fn set_bit(&mut self, i: usize) {
        let (limb, off) = (i / 64, i % 64);
        if self.limbs.len() <= limb {
            self.limbs.resize(limb + 1, 0);
        }
        self.limbs[limb] |= 1u64 << off;
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// The little-endian `u64` limbs (no trailing zeros; empty for 0).
    ///
    /// The Montgomery subsystem works on fixed-width limb slices of the
    /// modulus's length, and the limbs key the shared context memo
    /// ([`crate::ctxcache::shared_ctx_cache`]).
    pub fn limbs(&self) -> &[u64] {
        &self.limbs
    }

    /// Construct from little-endian limbs (trailing zeros allowed).
    pub(crate) fn from_limbs(limbs: Vec<u64>) -> Ubig {
        let mut n = Ubig { limbs };
        n.normalize();
        n
    }

    /// `self + other`.
    pub fn add(&self, other: &Ubig) -> Ubig {
        let (longer, shorter) = if self.limbs.len() >= other.limbs.len() {
            (&self.limbs, &other.limbs)
        } else {
            (&other.limbs, &self.limbs)
        };
        let mut out = Vec::with_capacity(longer.len() + 1);
        let mut carry = 0u64;
        for (i, &l) in longer.iter().enumerate() {
            let b = shorter.get(i).copied().unwrap_or(0);
            let (s1, c1) = l.overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            out.push(s2);
            carry = (c1 as u64) + (c2 as u64);
        }
        if carry != 0 {
            out.push(carry);
        }
        let mut n = Ubig { limbs: out };
        n.normalize();
        n
    }

    /// `self - other`; panics in debug if `other > self` (checked variant
    /// below for fallible use).
    pub fn sub(&self, other: &Ubig) -> Ubig {
        self.checked_sub(other).expect("Ubig::sub underflow (other > self)")
    }

    /// `self - other`, or `None` on underflow.
    pub fn checked_sub(&self, other: &Ubig) -> Option<Ubig> {
        if self.cmp_mag(other) == core::cmp::Ordering::Less {
            return None;
        }
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (d1, b1) = self.limbs[i].overflowing_sub(b);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out.push(d2);
            borrow = (b1 as u64) + (b2 as u64);
        }
        debug_assert_eq!(borrow, 0);
        let mut n = Ubig { limbs: out };
        n.normalize();
        Some(n)
    }

    fn cmp_mag(&self, other: &Ubig) -> core::cmp::Ordering {
        if self.limbs.len() != other.limbs.len() {
            return self.limbs.len().cmp(&other.limbs.len());
        }
        for i in (0..self.limbs.len()).rev() {
            match self.limbs[i].cmp(&other.limbs[i]) {
                core::cmp::Ordering::Equal => continue,
                ord => return ord,
            }
        }
        core::cmp::Ordering::Equal
    }

    /// Schoolbook multiplication.
    pub fn mul(&self, other: &Ubig) -> Ubig {
        if self.is_zero() || other.is_zero() {
            return Ubig::zero();
        }
        let mut out = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &b) in other.limbs.iter().enumerate() {
                let t = out[i + j] as u128 + (a as u128) * (b as u128) + carry;
                out[i + j] = t as u64;
                carry = t >> 64;
            }
            let mut k = i + other.limbs.len();
            while carry != 0 {
                let t = out[k] as u128 + carry;
                out[k] = t as u64;
                carry = t >> 64;
                k += 1;
            }
        }
        let mut n = Ubig { limbs: out };
        n.normalize();
        n
    }

    /// Multiply by a single `u64`.
    pub fn mul_u64(&self, m: u64) -> Ubig {
        if m == 0 || self.is_zero() {
            return Ubig::zero();
        }
        let mut out = Vec::with_capacity(self.limbs.len() + 1);
        let mut carry = 0u128;
        for &l in &self.limbs {
            let t = (l as u128) * (m as u128) + carry;
            out.push(t as u64);
            carry = t >> 64;
        }
        if carry != 0 {
            out.push(carry as u64);
        }
        let mut n = Ubig { limbs: out };
        n.normalize();
        n
    }

    /// Logical left shift by `bits`.
    pub fn shl(&self, bits: usize) -> Ubig {
        if self.is_zero() || bits == 0 {
            return self.clone();
        }
        let (limb_shift, bit_shift) = (bits / 64, bits % 64);
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                out.push((l << bit_shift) | carry);
                carry = l >> (64 - bit_shift);
            }
            if carry != 0 {
                out.push(carry);
            }
        }
        let mut n = Ubig { limbs: out };
        n.normalize();
        n
    }

    /// Logical right shift by `bits`.
    pub fn shr(&self, bits: usize) -> Ubig {
        let (limb_shift, bit_shift) = (bits / 64, bits % 64);
        if limb_shift >= self.limbs.len() {
            return Ubig::zero();
        }
        let mut out: Vec<u64> = self.limbs[limb_shift..].to_vec();
        if bit_shift != 0 {
            let mut carry = 0u64;
            for l in out.iter_mut().rev() {
                let new = (*l >> bit_shift) | carry;
                carry = *l << (64 - bit_shift);
                *l = new;
            }
        }
        let mut n = Ubig { limbs: out };
        n.normalize();
        n
    }

    /// Quotient and remainder: `(self / div, self % div)`.
    ///
    /// Implements Knuth TAOCP vol. 2, Algorithm 4.3.1 D, with `u64` limbs
    /// and `u128` intermediates.
    pub fn div_rem(&self, div: &Ubig) -> Result<(Ubig, Ubig), CryptoError> {
        if div.is_zero() {
            return Err(CryptoError::DivisionByZero);
        }
        if self.cmp_mag(div) == core::cmp::Ordering::Less {
            return Ok((Ubig::zero(), self.clone()));
        }
        // Single-limb divisor: simple short division.
        if div.limbs.len() == 1 {
            let d = div.limbs[0];
            let mut q = Vec::with_capacity(self.limbs.len());
            let mut rem = 0u128;
            for &l in self.limbs.iter().rev() {
                let cur = (rem << 64) | l as u128;
                q.push((cur / d as u128) as u64);
                rem = cur % d as u128;
            }
            q.reverse();
            let mut quo = Ubig { limbs: q };
            quo.normalize();
            return Ok((quo, Ubig::from_u64(rem as u64)));
        }

        // D1: normalize so the divisor's top limb has its MSB set.
        let shift =
            div.limbs.last().expect("invariant: divisor is nonzero").leading_zeros() as usize;
        let v = div.shl(shift).limbs;
        let mut u = self.shl(shift).limbs;
        let n = v.len();
        let m = u.len() - n;
        u.push(0); // u now has m + n + 1 limbs.

        let v_top = v[n - 1];
        let v_second = v[n - 2];
        let mut q = vec![0u64; m + 1];

        // D2..D7: main loop.
        for j in (0..=m).rev() {
            // D3: estimate qhat from the top two dividend limbs.
            let numer = ((u[j + n] as u128) << 64) | u[j + n - 1] as u128;
            let mut qhat = numer / v_top as u128;
            let mut rhat = numer % v_top as u128;
            // Refine: qhat is at most 2 too large.
            while qhat >> 64 != 0 || qhat * v_second as u128 > ((rhat << 64) | u[j + n - 2] as u128)
            {
                qhat -= 1;
                rhat += v_top as u128;
                if rhat >> 64 != 0 {
                    break;
                }
            }
            // D4: multiply and subtract u[j..j+n+1] -= qhat * v.
            let mut borrow = 0i128;
            let mut carry = 0u128;
            for i in 0..n {
                let p = qhat * v[i] as u128 + carry;
                carry = p >> 64;
                let t = u[j + i] as i128 - (p as u64) as i128 + borrow;
                u[j + i] = t as u64;
                borrow = t >> 64; // arithmetic shift: 0 or -1
            }
            let t = u[j + n] as i128 - carry as i128 + borrow;
            u[j + n] = t as u64;
            borrow = t >> 64;

            q[j] = qhat as u64;
            // D6: if we subtracted too much, add back one divisor.
            if borrow != 0 {
                q[j] -= 1;
                let mut carry = 0u128;
                for i in 0..n {
                    let t = u[j + i] as u128 + v[i] as u128 + carry;
                    u[j + i] = t as u64;
                    carry = t >> 64;
                }
                u[j + n] = u[j + n].wrapping_add(carry as u64);
            }
        }

        let mut quo = Ubig { limbs: q };
        quo.normalize();
        let mut rem = Ubig { limbs: u[..n].to_vec() };
        rem.normalize();
        Ok((quo, rem.shr(shift)))
    }

    /// `self mod m`.
    pub fn rem(&self, m: &Ubig) -> Result<Ubig, CryptoError> {
        Ok(self.div_rem(m)?.1)
    }

    /// `self mod d` for a single-limb divisor, without allocating.
    ///
    /// One `u128` division per limb — the cheap primitive behind the
    /// batched small-prime trial division in [`crate::rsa`].
    ///
    /// # Panics
    ///
    /// Panics if `d == 0`.
    pub fn rem_u64(&self, d: u64) -> u64 {
        assert!(d != 0, "rem_u64 divisor must be non-zero");
        let mut rem = 0u128;
        for &l in self.limbs.iter().rev() {
            rem = ((rem << 64) | l as u128) % d as u128;
        }
        rem as u64
    }

    /// `(self * other) mod m`.
    pub fn mulmod(&self, other: &Ubig, m: &Ubig) -> Result<Ubig, CryptoError> {
        self.mul(other).rem(m)
    }

    /// `self^exp mod m`.
    ///
    /// Odd moduli (every RSA modulus, prime and Miller–Rabin candidate)
    /// take the division-free Montgomery path
    /// ([`crate::montgomery::MontgomeryCtx`]) through the process-wide
    /// [`crate::ctxcache::ctx_for`], so repeated convenience calls
    /// against one modulus — non-CRT signatures, ad-hoc lab
    /// exponentiations — derive the per-modulus constants (`R² mod n`,
    /// the one remaining division) once, not per call. Even moduli fall
    /// back to [`Ubig::modpow_schoolbook`]. Call sites that hold a
    /// context anyway should call
    /// [`crate::montgomery::MontgomeryCtx::modpow`] directly and skip
    /// the memo probe.
    pub fn modpow(&self, exp: &Ubig, m: &Ubig) -> Result<Ubig, CryptoError> {
        if m.is_zero() {
            return Err(CryptoError::DivisionByZero);
        }
        if m.is_one() {
            return Ok(Ubig::zero());
        }
        if m.is_odd() {
            crate::ctxcache::ctx_for(m)?.modpow(self, exp)
        } else {
            self.modpow_schoolbook(exp, m)
        }
    }

    /// `self^exp mod m` by left-to-right square-and-multiply with a full
    /// division per step.
    ///
    /// Works for any modulus (including even ones, which Montgomery
    /// reduction cannot handle) and serves as the reference
    /// implementation the property tests compare the fast path against.
    pub fn modpow_schoolbook(&self, exp: &Ubig, m: &Ubig) -> Result<Ubig, CryptoError> {
        if m.is_zero() {
            return Err(CryptoError::DivisionByZero);
        }
        if m.is_one() {
            return Ok(Ubig::zero());
        }
        let mut result = Ubig::one();
        let base = self.rem(m)?;
        let bits = exp.bit_len();
        for i in (0..bits).rev() {
            result = result.mulmod(&result, m)?;
            if exp.bit(i) {
                result = result.mulmod(&base, m)?;
            }
        }
        Ok(result)
    }

    /// Greatest common divisor (binary GCD).
    pub fn gcd(&self, other: &Ubig) -> Ubig {
        let mut a = self.clone();
        let mut b = other.clone();
        if a.is_zero() {
            return b;
        }
        if b.is_zero() {
            return a;
        }
        let mut shift = 0usize;
        while !a.is_odd() && !b.is_odd() {
            a = a.shr(1);
            b = b.shr(1);
            shift += 1;
        }
        while !a.is_odd() {
            a = a.shr(1);
        }
        loop {
            while !b.is_odd() {
                b = b.shr(1);
            }
            if a.cmp_mag(&b) == core::cmp::Ordering::Greater {
                core::mem::swap(&mut a, &mut b);
            }
            b = b.sub(&a);
            if b.is_zero() {
                return a.shl(shift);
            }
        }
    }

    /// Modular inverse: `self^-1 mod m`, or an error if not coprime.
    ///
    /// Extended Euclid with signed bookkeeping carried as (sign, magnitude).
    pub fn modinv(&self, m: &Ubig) -> Result<Ubig, CryptoError> {
        if m.is_zero() {
            return Err(CryptoError::DivisionByZero);
        }
        // Invariants: r0 = t0*self (mod m), r1 = t1*self (mod m).
        let mut r0 = m.clone();
        let mut r1 = self.rem(m)?;
        // t values as (negative?, magnitude).
        let mut t0 = (false, Ubig::zero());
        let mut t1 = (false, Ubig::one());
        while !r1.is_zero() {
            let (q, r2) = r0.div_rem(&r1)?;
            // t2 = t0 - q * t1  (signed arithmetic on magnitudes)
            let q_t1 = q.mul(&t1.1);
            let t2 = signed_sub(&t0, &(t1.0, q_t1));
            r0 = r1;
            r1 = r2;
            t0 = t1;
            t1 = t2;
        }
        if !r0.is_one() {
            return Err(CryptoError::NoInverse);
        }
        // Reduce t0 into [0, m).
        let mag = t0.1.rem(m)?;
        if t0.0 && !mag.is_zero() {
            Ok(m.sub(&mag))
        } else {
            Ok(mag)
        }
    }
}

/// `a - b` on signed (negative?, magnitude) pairs.
fn signed_sub(a: &(bool, Ubig), b: &(bool, Ubig)) -> (bool, Ubig) {
    match (a.0, b.0) {
        // a - b with both non-negative.
        (false, false) => match a.1.checked_sub(&b.1) {
            Some(m) => (false, m),
            None => (true, b.1.sub(&a.1)),
        },
        // a - (-b) = a + b.
        (false, true) => (false, a.1.add(&b.1)),
        // -a - b = -(a + b).
        (true, false) => (true, a.1.add(&b.1)),
        // -a - (-b) = b - a.
        (true, true) => match b.1.checked_sub(&a.1) {
            Some(m) => (false, m),
            None => (true, a.1.sub(&b.1)),
        },
    }
}

impl PartialOrd for Ubig {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ubig {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        self.cmp_mag(other)
    }
}

impl core::fmt::Debug for Ubig {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if self.is_zero() {
            return write!(f, "Ubig(0x0)");
        }
        write!(f, "Ubig(0x")?;
        for (i, limb) in self.limbs.iter().enumerate().rev() {
            if i == self.limbs.len() - 1 {
                write!(f, "{limb:x}")?;
            } else {
                write!(f, "{limb:016x}")?;
            }
        }
        write!(f, ")")
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn ub(v: u128) -> Ubig {
        Ubig::from_bytes_be(&v.to_be_bytes())
    }

    #[test]
    fn roundtrip_bytes() {
        for v in [0u128, 1, 255, 256, u64::MAX as u128, u128::MAX, 1 << 64] {
            let n = ub(v);
            let back = Ubig::from_bytes_be(&n.to_bytes_be());
            assert_eq!(n, back, "roundtrip failed for {v}");
        }
    }

    #[test]
    fn leading_zeros_ignored() {
        let a = Ubig::from_bytes_be(&[0, 0, 0, 1, 2]);
        let b = Ubig::from_bytes_be(&[1, 2]);
        assert_eq!(a, b);
    }

    #[test]
    fn padded_serialization() {
        let n = ub(0x1234);
        assert_eq!(n.to_bytes_be_padded(4).unwrap(), vec![0, 0, 0x12, 0x34]);
        assert!(n.to_bytes_be_padded(1).is_none());
        assert_eq!(Ubig::zero().to_bytes_be_padded(2).unwrap(), vec![0, 0]);
    }

    #[test]
    fn add_sub_small() {
        let a = ub(u64::MAX as u128);
        let b = ub(1);
        assert_eq!(a.add(&b), ub(u64::MAX as u128 + 1));
        assert_eq!(a.add(&b).sub(&b), a);
        assert!(b.checked_sub(&a).is_none());
    }

    #[test]
    fn mul_known() {
        let a = ub(u64::MAX as u128);
        assert_eq!(a.mul(&a), ub((u64::MAX as u128) * (u64::MAX as u128)));
        assert_eq!(a.mul(&Ubig::zero()), Ubig::zero());
        assert_eq!(a.mul_u64(2), ub(2 * u64::MAX as u128));
    }

    #[test]
    fn shifts() {
        let a = ub(0x1234_5678_9abc_def0);
        assert_eq!(a.shl(4).shr(4), a);
        assert_eq!(a.shl(64).shr(64), a);
        assert_eq!(a.shl(67).shr(67), a);
        assert_eq!(a.shr(200), Ubig::zero());
    }

    #[test]
    fn bit_len_and_bits() {
        assert_eq!(Ubig::zero().bit_len(), 0);
        assert_eq!(ub(1).bit_len(), 1);
        assert_eq!(ub(0x8000_0000_0000_0000).bit_len(), 64);
        assert_eq!(ub(1 << 64).bit_len(), 65);
        let mut n = Ubig::zero();
        n.set_bit(130);
        assert!(n.bit(130));
        assert!(!n.bit(129));
        assert_eq!(n.bit_len(), 131);
    }

    #[test]
    fn div_rem_small() {
        let a = ub(1000);
        let (q, r) = a.div_rem(&ub(7)).unwrap();
        assert_eq!(q, ub(142));
        assert_eq!(r, ub(6));
        assert!(a.div_rem(&Ubig::zero()).is_err());
        let (q, r) = ub(5).div_rem(&ub(10)).unwrap();
        assert_eq!(q, Ubig::zero());
        assert_eq!(r, ub(5));
    }

    #[test]
    fn div_rem_multi_limb() {
        // (2^128 - 1) / (2^64 + 1) = 2^64 - 1, remainder 0
        let a = ub(u128::MAX);
        let d = ub((1u128 << 64) + 1);
        let (q, r) = a.div_rem(&d).unwrap();
        assert_eq!(q, ub(u64::MAX as u128));
        assert_eq!(r, Ubig::zero());
    }

    #[test]
    fn div_rem_reconstructs() {
        // q*d + r == a with r < d on structured multi-limb cases.
        let cases: Vec<(Vec<u8>, Vec<u8>)> = vec![
            (vec![0xff; 40], vec![0x01, 0x00, 0x00, 0x00, 0x01]),
            (vec![0xab; 33], vec![0xcd; 17]),
            (vec![0x80; 64], vec![0x80; 32]),
            (vec![0x01; 24], vec![0xff; 8]),
        ];
        for (ab, db) in cases {
            let a = Ubig::from_bytes_be(&ab);
            let d = Ubig::from_bytes_be(&db);
            let (q, r) = a.div_rem(&d).unwrap();
            assert!(r < d);
            assert_eq!(q.mul(&d).add(&r), a);
        }
    }

    #[test]
    fn modpow_small() {
        // 4^13 mod 497 = 445
        assert_eq!(ub(4).modpow(&ub(13), &ub(497)).unwrap(), ub(445));
        // Fermat: a^(p-1) mod p == 1 for prime p
        let p = ub(1_000_000_007);
        assert_eq!(ub(12345).modpow(&p.sub(&Ubig::one()), &p).unwrap(), ub(1));
        assert_eq!(ub(5).modpow(&ub(0), &ub(7)).unwrap(), ub(1));
        assert_eq!(ub(5).modpow(&ub(100), &Ubig::one()).unwrap(), Ubig::zero());
    }

    #[test]
    fn gcd_known() {
        assert_eq!(ub(48).gcd(&ub(18)), ub(6));
        assert_eq!(ub(0).gcd(&ub(5)), ub(5));
        assert_eq!(ub(7).gcd(&ub(0)), ub(7));
        assert_eq!(ub(17).gcd(&ub(13)), ub(1));
        assert_eq!(ub(1 << 20).gcd(&ub(1 << 12)), ub(1 << 12));
    }

    #[test]
    fn modinv_known() {
        // 3 * 4 = 12 ≡ 1 (mod 11)
        assert_eq!(ub(3).modinv(&ub(11)).unwrap(), ub(4));
        // 65537^-1 mod a larger modulus, verified by multiplication.
        let m = ub(0xffff_ffff_ffff_ffc5); // large prime-ish modulus
        let e = ub(65537);
        if let Ok(inv) = e.modinv(&m) {
            assert_eq!(e.mulmod(&inv, &m).unwrap(), Ubig::one());
        }
        // No inverse when not coprime.
        assert!(ub(6).modinv(&ub(9)).is_err());
    }

    #[test]
    fn ordering() {
        assert!(ub(5) < ub(6));
        assert!(ub(1 << 64) > ub(u64::MAX as u128));
        assert_eq!(ub(42).cmp(&ub(42)), core::cmp::Ordering::Equal);
    }

    #[test]
    fn debug_format() {
        assert_eq!(format!("{:?}", Ubig::zero()), "Ubig(0x0)");
        assert_eq!(format!("{:?}", ub(0x1f)), "Ubig(0x1f)");
    }
}
