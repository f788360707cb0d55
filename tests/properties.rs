//! Property-based tests over the workspace's core data structures and
//! codecs: bignum arithmetic (including the Montgomery fast path vs the
//! schoolbook reference), base64/PEM, DER framing, TLS record reassembly,
//! time conversion and hostname matching.
//!
//! Inputs are drawn from the workspace's own deterministic [`Drbg`]
//! rather than an external property-testing crate, so every failure
//! reproduces bit-for-bit from the seed embedded in each test.

use tlsfoe::crypto::bigint::Ubig;
use tlsfoe::crypto::drbg::{Drbg, RngCore64};
use tlsfoe::crypto::{HashAlg, MontgomeryCtx};
use tlsfoe::tls::record::{encode_records, ContentType, ProtocolVersion, RecordParser};
use tlsfoe::x509::cert::host_matches_pattern;
use tlsfoe::x509::pem;
use tlsfoe::x509::Time;
use tlsfoe_asn1::{DerReader, DerWriter};

const CASES: usize = 200;

fn rng(label: &str) -> Drbg {
    Drbg::new(0x50524f50).fork(label)
}

fn random_bytes(rng: &mut Drbg, max_len: usize) -> Vec<u8> {
    let len = rng.gen_range(max_len as u64 + 1) as usize;
    random_bytes_of(rng, len)
}

fn random_bytes_of(rng: &mut Drbg, len: usize) -> Vec<u8> {
    let mut out = vec![0u8; len];
    rng.fill_bytes(&mut out);
    out
}

fn ub128(v: u128) -> Ubig {
    Ubig::from_bytes_be(&v.to_be_bytes())
}

// ---- bignum vs u128 reference semantics -------------------------------

#[test]
fn ubig_add_matches_u128() {
    let mut rng = rng("add");
    for _ in 0..CASES {
        let a = ((rng.next_u64() as u128) << 63) | rng.next_u64() as u128; // < 2^127
        let b = ((rng.next_u64() as u128) << 63) | rng.next_u64() as u128;
        assert_eq!(ub128(a).add(&ub128(b)), ub128(a + b));
    }
}

#[test]
fn ubig_mul_matches_u128() {
    let mut rng = rng("mul");
    for _ in 0..CASES {
        let (a, b) = (rng.next_u64(), rng.next_u64());
        assert_eq!(Ubig::from_u64(a).mul(&Ubig::from_u64(b)), ub128(a as u128 * b as u128));
    }
}

#[test]
fn ubig_div_rem_reconstructs_multilimb() {
    let mut rng = rng("divrem");
    for _ in 0..CASES {
        let a = Ubig::from_bytes_be(&random_bytes(&mut rng, 64));
        let b = Ubig::from_bytes_be(&random_bytes(&mut rng, 32));
        if b.is_zero() {
            continue;
        }
        let (q, r) = a.div_rem(&b).unwrap();
        assert!(r < b);
        assert_eq!(q.mul(&b).add(&r), a, "a={a:?} b={b:?}");
    }
}

#[test]
fn ubig_rem_u64_matches_div_rem() {
    let mut rng = rng("remu64");
    for _ in 0..CASES {
        let a = Ubig::from_bytes_be(&random_bytes(&mut rng, 48));
        let d = rng.next_u64().max(1);
        let expected = a.rem(&Ubig::from_u64(d)).unwrap();
        assert_eq!(Ubig::from_u64(a.rem_u64(d)), expected);
    }
}

#[test]
fn ubig_bytes_roundtrip() {
    let mut rng = rng("bytes");
    for _ in 0..CASES {
        let bytes = random_bytes(&mut rng, 100);
        let n = Ubig::from_bytes_be(&bytes);
        assert_eq!(Ubig::from_bytes_be(&n.to_bytes_be()), n);
    }
}

#[test]
fn ubig_shift_roundtrip() {
    let mut rng = rng("shift");
    for _ in 0..CASES {
        let v = ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128;
        let shift = rng.gen_range(200) as usize;
        let n = ub128(v);
        assert_eq!(n.shl(shift).shr(shift), n);
    }
}

// ---- Montgomery fast path ≡ schoolbook reference ----------------------

#[test]
fn montgomery_modpow_matches_schoolbook() {
    // Random operands across limb sizes 1..=8 (64- to 512-bit moduli),
    // with both short (≤64-bit) and long exponents to cover the binary
    // and 4-bit-window paths.
    let mut rng = rng("montgomery");
    for limbs in 1usize..=8 {
        for case in 0..12 {
            let mut m = Ubig::from_bytes_be(&{
                let mut b = vec![0u8; limbs * 8];
                rng.fill_bytes(&mut b);
                b
            });
            m.set_bit(0); // odd
            m.set_bit(limbs * 64 - 1); // full width
            let a = Ubig::from_bytes_be(&random_bytes(&mut rng, limbs * 8 + 8));
            let e = if case % 2 == 0 {
                Ubig::from_u64(rng.next_u64())
            } else {
                Ubig::from_bytes_be(&random_bytes(&mut rng, limbs * 8))
            };
            let fast = a.modpow(&e, &m).unwrap();
            let slow = a.modpow_schoolbook(&e, &m).unwrap();
            assert_eq!(fast, slow, "limbs={limbs} a={a:?} e={e:?} m={m:?}");
        }
    }
}

#[test]
fn montgomery_mulmod_matches_schoolbook() {
    let mut rng = rng("mulmod");
    for _ in 0..CASES / 4 {
        let mut m = Ubig::from_bytes_be(&random_bytes(&mut rng, 40));
        m.set_bit(0);
        if m.is_one() {
            continue;
        }
        let ctx = MontgomeryCtx::new(&m).unwrap();
        let a = Ubig::from_bytes_be(&random_bytes(&mut rng, 48));
        let b = Ubig::from_bytes_be(&random_bytes(&mut rng, 48));
        assert_eq!(ctx.mulmod(&a, &b).unwrap(), a.mulmod(&b, &m).unwrap());
    }
}

#[test]
fn montgomery_sqr_matches_mul_by_self() {
    // The squaring specialization must be indistinguishable from a
    // general multiply of x by itself, over DRBG-driven widths/values.
    let mut rng = rng("sqr");
    for _ in 0..CASES / 2 {
        let mut m = Ubig::from_bytes_be(&random_bytes(&mut rng, 40));
        m.set_bit(0);
        if m.is_one() {
            continue;
        }
        let ctx = MontgomeryCtx::new(&m).unwrap();
        let x = Ubig::from_bytes_be(&random_bytes(&mut rng, 48));
        let sqr = ctx.sqrmod(&x).unwrap();
        assert_eq!(sqr, ctx.mulmod(&x, &x).unwrap(), "x={x:?} m={m:?}");
        assert_eq!(sqr, x.mulmod(&x, &m).unwrap(), "x={x:?} m={m:?}");
    }
}

#[test]
fn even_modulus_falls_back_to_schoolbook() {
    let mut rng = rng("even");
    for _ in 0..CASES / 8 {
        let mut m = Ubig::from_bytes_be(&random_bytes(&mut rng, 24));
        if m.is_zero() || m.is_one() {
            continue;
        }
        if m.is_odd() {
            m = m.add(&Ubig::one());
        }
        let a = Ubig::from_bytes_be(&random_bytes(&mut rng, 24));
        let e = Ubig::from_u64(rng.next_u64() >> 40);
        assert_eq!(a.modpow(&e, &m).unwrap(), a.modpow_schoolbook(&e, &m).unwrap());
    }
}

#[test]
fn crt_signatures_byte_identical_across_key_sizes() {
    // The paper's corpus spans 512/1024/2048-bit keys; the CRT fast path
    // must be invisible at every size. Keys come from the process-wide
    // population cache, so repeated uses share the keygen cost.
    for bits in [512usize, 1024, 2048] {
        let key = tlsfoe::population::keys::keypair(0xC47, bits);
        assert!(key.crt.is_some());
        let mut slow = (*key).clone();
        slow.crt = None;
        let msg = b"every impression funnels through this sign";
        for alg in [HashAlg::Md5, HashAlg::Sha1, HashAlg::Sha256] {
            let fast = key.sign(alg, msg).unwrap();
            assert_eq!(fast, slow.sign(alg, msg).unwrap(), "bits={bits} alg={alg:?}");
            key.public.verify(alg, msg, &fast).unwrap();
        }
    }
}

// ---- sieved prime generation ------------------------------------------

#[test]
fn gen_prime_always_exact_bits_odd_and_deterministic() {
    // The incremental sieve walks upward from a random start; it must
    // still deliver exactly-`bits` odd primes (top two bits forced so
    // p·q has full width) and remain a pure function of the RNG seed.
    use tlsfoe::crypto::rsa::{gen_prime, is_probable_prime};
    let mut seeds = rng("genprime");
    for bits in [64usize, 96, 128, 192, 256] {
        for _ in 0..4 {
            let seed = seeds.next_u64();
            let p = gen_prime(bits, &mut Drbg::new(seed)).unwrap();
            assert_eq!(p, gen_prime(bits, &mut Drbg::new(seed)).unwrap(), "seed {seed}");
            assert_eq!(p.bit_len(), bits, "seed {seed}");
            assert!(p.is_odd());
            assert!(p.bit(bits - 2), "second-top bit forced for full-width products");
            // Independent witness run (different seed) must agree it's prime.
            assert!(is_probable_prime(&p, 16, &mut Drbg::new(seed ^ 0x5EED)), "seed {seed}");
        }
    }
}

/// Reference Miller–Rabin over `u64` with *random witnesses only* (no
/// fixed base-2 round) — the verdict the production path must agree
/// with.
fn mr_u64_random_witnesses(n: u64, rounds: usize, rng: &mut Drbg) -> bool {
    if n < 2 {
        return false;
    }
    if n.is_multiple_of(2) {
        return n == 2;
    }
    if n == 3 {
        return true;
    }
    let mulmod = |a: u64, b: u64| ((a as u128 * b as u128) % n as u128) as u64;
    let powmod = |mut base: u64, mut e: u64| {
        let mut acc = 1u64;
        base %= n;
        while e > 0 {
            if e & 1 == 1 {
                acc = mulmod(acc, base);
            }
            base = mulmod(base, base);
            e >>= 1;
        }
        acc
    };
    let (mut d, mut r) = (n - 1, 0u32);
    while d % 2 == 0 {
        d /= 2;
        r += 1;
    }
    'witness: for _ in 0..rounds {
        let a = 2 + rng.gen_range(n - 3); // uniform in [2, n-2]
        let mut x = powmod(a, d);
        if x == 1 || x == n - 1 {
            continue;
        }
        for _ in 0..r.saturating_sub(1) {
            x = mulmod(x, x);
            if x == n - 1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

#[test]
fn base2_opened_mr_agrees_with_random_witness_verdict() {
    // The production test opens with a fixed base-2 round (so most
    // composites die without the random-base `rem(n-1)` division). Its
    // verdict must agree with a pure random-witness reference on:
    // Carmichael numbers (Fermat liars to every coprime base — base 2
    // kills them), base-2 strong pseudoprimes (the adversarial corpus:
    // base 2 passes them, so the random witnesses must still catch
    // them), and a DRBG-driven corpus of odd u64s.
    use tlsfoe::crypto::rsa::is_probable_prime;
    let carmichael = [561u64, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 62745, 825265];
    let base2_pseudoprimes =
        [2047u64, 3277, 4033, 4681, 8321, 15841, 29341, 42799, 49141, 52633, 65281, 74665, 90751];
    let primes = [65537u64, 1_000_000_007, 2_147_483_647, 67_280_421_310_721];
    let mut corpus: Vec<u64> =
        carmichael.iter().chain(&base2_pseudoprimes).chain(&primes).copied().collect();
    let mut draw = rng("mr-corpus");
    corpus.extend((0..CASES).map(|_| (draw.next_u64() >> 16) | 1).filter(|&n| n > 5));
    for n in corpus {
        let production = is_probable_prime(&Ubig::from_u64(n), 16, &mut rng("mr-prod"));
        let reference = mr_u64_random_witnesses(n, 24, &mut rng("mr-ref"));
        assert_eq!(production, reference, "verdicts diverge on {n}");
    }
}

// ---- base64 / PEM ------------------------------------------------------

#[test]
fn base64_roundtrip() {
    let mut rng = rng("base64");
    for _ in 0..CASES {
        let data = random_bytes(&mut rng, 500);
        let enc = pem::base64_encode(&data);
        assert_eq!(pem::base64_decode(&enc).unwrap(), data);
    }
}

/// The per-character base64 encoder the table-driven one replaced: one
/// `char` pushed per output character.
fn reference_base64(data: &[u8]) -> String {
    const ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
    let mut out = String::with_capacity(data.len().div_ceil(3) * 4);
    for chunk in data.chunks(3) {
        let b0 = chunk[0] as u32;
        let b1 = chunk.get(1).copied().unwrap_or(0) as u32;
        let b2 = chunk.get(2).copied().unwrap_or(0) as u32;
        let triple = (b0 << 16) | (b1 << 8) | b2;
        out.push(ALPHABET[(triple >> 18) as usize & 0x3f] as char);
        out.push(ALPHABET[(triple >> 12) as usize & 0x3f] as char);
        out.push(if chunk.len() > 1 {
            ALPHABET[(triple >> 6) as usize & 0x3f] as char
        } else {
            '='
        });
        out.push(if chunk.len() > 2 { ALPHABET[triple as usize & 0x3f] as char } else { '=' });
    }
    out
}

/// The PEM armor the one-pass encoder replaced: base64 first, then cut
/// into 64-character lines.
fn reference_pem(der: &[u8]) -> String {
    let b64 = reference_base64(der);
    let mut out = String::from("-----BEGIN CERTIFICATE-----\n");
    for chunk in b64.as_bytes().chunks(64) {
        out.push_str(std::str::from_utf8(chunk).unwrap());
        out.push('\n');
    }
    out.push_str("-----END CERTIFICATE-----\n");
    out
}

#[test]
fn base64_and_pem_match_the_per_char_reference() {
    // Every length up to 200 covers each residue mod 3 (padding) and
    // mod 48 (a partial last PEM line); random bodies up to 3 KB cover
    // certificate-sized inputs.
    let mut rng = rng("pem-reference");
    let mut inputs: Vec<Vec<u8>> = (0..=200).map(|len| random_bytes_of(&mut rng, len)).collect();
    inputs.extend((0..CASES).map(|_| random_bytes(&mut rng, 3 * 1024)));
    for data in &inputs {
        let len = data.len();
        assert_eq!(pem::base64_encode(data), reference_base64(data), "base64, len {len}");
        let want = reference_pem(data);
        assert_eq!(pem::pem_encode(data), want, "pem_encode, len {len}");
        // `pem_encode_into` appends: what was already there stays.
        let prefix = b"prefix\n".to_vec();
        let mut out = prefix.clone();
        pem::pem_encode_into(data, &mut out);
        assert_eq!(out, [prefix, want.into_bytes()].concat(), "pem_encode_into, len {len}");
    }
}

#[test]
fn pem_roundtrip() {
    let mut rng = rng("pem");
    for _ in 0..CASES {
        let mut data = random_bytes(&mut rng, 300);
        if data.is_empty() {
            data.push(0x42);
        }
        let armored = pem::pem_encode(&data);
        assert_eq!(pem::pem_decode_all(&armored).unwrap(), vec![data]);
    }
}

// ---- DER framing --------------------------------------------------------

#[test]
fn der_octet_string_roundtrip() {
    let mut rng = rng("octet");
    for _ in 0..CASES {
        let data = random_bytes(&mut rng, 1000);
        let mut w = DerWriter::new();
        w.octet_string(&data);
        let der = w.finish();
        let mut r = DerReader::new(&der);
        assert_eq!(r.read_octet_string().unwrap(), data.as_slice());
        r.expect_done().unwrap();
    }
}

#[test]
fn der_integer_roundtrip() {
    let mut rng = rng("integer");
    for _ in 0..CASES {
        let v = rng.next_u64();
        let mut w = DerWriter::new();
        w.integer_u64(v);
        let der = w.finish();
        let mut r = DerReader::new(&der);
        assert_eq!(r.read_integer_u64().unwrap(), v);
    }
}

#[test]
fn der_reader_never_panics_on_garbage() {
    // Fuzz the decoder: any byte soup must produce Ok or Err, never a
    // panic or an infinite loop.
    let mut rng = rng("garbage");
    for _ in 0..CASES * 2 {
        let data = random_bytes(&mut rng, 200);
        let mut r = DerReader::new(&data);
        for _ in 0..50 {
            if r.read_any().is_err() || r.is_done() {
                break;
            }
        }
    }
}

#[test]
fn der_string_roundtrip() {
    let mut rng = rng("derstring");
    for _ in 0..CASES {
        let len = rng.gen_range(100) as usize;
        let s: String = (0..len)
            .map(|_| (b' ' + rng.gen_range(95) as u8) as char) // printable ASCII
            .collect();
        let mut w = DerWriter::new();
        w.utf8_string(&s);
        let der = w.finish();
        let mut r = DerReader::new(&der);
        assert_eq!(r.read_any_string().unwrap(), s);
    }
}

// ---- TLS record layer ----------------------------------------------------

#[test]
fn record_reassembly_any_chunking() {
    let mut rng = rng("records");
    for _ in 0..CASES / 4 {
        let payload = random_bytes(&mut rng, 5000);
        let chunk = 1 + rng.gen_range(600) as usize;
        let enc = encode_records(ContentType::Handshake, ProtocolVersion::Tls10, &payload);
        let mut p = RecordParser::new();
        let mut got = Vec::new();
        for piece in enc.chunks(chunk) {
            let mut records = p.parse(piece);
            while let Some(rec) = records.next_record().unwrap() {
                got.extend_from_slice(rec.payload);
            }
        }
        assert_eq!(got, payload);
        assert_eq!(p.buffered(), 0);
    }
}

#[test]
fn record_parser_never_panics() {
    let mut rng = rng("recgarbage");
    for _ in 0..CASES {
        let data = random_bytes(&mut rng, 300);
        // Whole, then in two pieces, so the carried-tail path sees
        // garbage too.
        let cut = rng.gen_range(data.len() as u64 + 1) as usize;
        for pieces in [[&data[..], &[]], [&data[..cut], &data[cut..]]] {
            let mut p = RecordParser::new();
            'pieces: for piece in pieces {
                let mut records = p.parse(piece);
                for _ in 0..20 {
                    match records.next_record() {
                        Ok(Some(_)) => continue,
                        Ok(None) => continue 'pieces,
                        Err(_) => break 'pieces,
                    }
                }
            }
        }
    }
}

// ---- Time -------------------------------------------------------------------

#[test]
fn time_civil_roundtrip() {
    let mut rng = rng("time");
    for _ in 0..CASES * 2 {
        let secs = rng.gen_range(6_000_000_000) as i64 - 2_000_000_000;
        let t = Time(secs);
        let c = t.civil();
        assert_eq!(Time::from_ymd_hms(c.year, c.month, c.day, c.hour, c.minute, c.second), t);
    }
}

#[test]
fn time_der_roundtrip() {
    let mut rng = rng("timeder");
    for _ in 0..CASES {
        let t = Time(rng.gen_range(2_500_000_000) as i64);
        let mut w = DerWriter::new();
        t.write_der(&mut w);
        let der = w.finish();
        let mut r = DerReader::new(&der);
        assert_eq!(Time::read_der(&mut r).unwrap(), t);
    }
}

// ---- hostname matching ---------------------------------------------------------

fn random_label(rng: &mut Drbg) -> String {
    let len = 1 + rng.gen_range(10) as usize;
    (0..len).map(|_| (b'a' + rng.gen_range(26) as u8) as char).collect()
}

#[test]
fn exact_host_always_matches_itself() {
    let mut rng = rng("host");
    for _ in 0..CASES {
        let labels = 1 + rng.gen_range(4) as usize;
        let host = (0..labels).map(|_| random_label(&mut rng)).collect::<Vec<_>>().join(".");
        assert!(host_matches_pattern(&host, &host));
    }
}

#[test]
fn wildcard_matches_single_label() {
    let mut rng = rng("wildcard");
    for _ in 0..CASES {
        let label = random_label(&mut rng);
        let suffix = format!("{}.{}", random_label(&mut rng), random_label(&mut rng));
        let pattern = format!("*.{suffix}");
        assert!(host_matches_pattern(&pattern, &format!("{label}.{suffix}")));
        // …but not the bare suffix, and not two labels deep.
        assert!(!host_matches_pattern(&pattern, &suffix));
        assert!(!host_matches_pattern(&pattern, &format!("a.{label}.{suffix}")));
    }
}
