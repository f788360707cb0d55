//! Crypto hot-path perf snapshot and its gate → `BENCH_crypto.json`.
//!
//! Times the primitives every simulated impression funnels through —
//! full-width modular exponentiation (schoolbook vs [`Ubig::modpow`]),
//! one Montgomery modular multiply, RSA sign (CRT vs direct) and verify
//! (e = 65537) — at the paper's three key sizes, plus four named
//! series (`keygen`, `mint`, `million`, `ingest`). It writes the per-op
//! times (min across sample blocks) to `BENCH_crypto.json`, then checks
//! the document with [`tlsfoe_bench::perf_gate`] and exits non-zero,
//! naming each failed check, if any fails.
//!
//! The gate reads counts and paired ratios only. Absolute nanoseconds
//! stay in the document for the perf trajectory, ungated: they measure
//! the host as much as the code. End-to-end speed claims come from the
//! `benchmark/` package's alternating pairs.
//!
//! `--quick` halves the sample counts (CI); there is no other flag.
//!
//! Each ratio is the median over interleaved pairs of sample blocks
//! ([`best_ns_paired`]), so slow drift of the machine's clock (turbo
//! decay, thermal throttling, a neighbour's load) biases both sides
//! equally instead of penalizing whichever ran second.

use std::time::Instant;

use tlsfoe_bench::harness::{best_ns, best_ns_paired};
use tlsfoe_bench::perf_gate;
use tlsfoe_core::json::Json;
use tlsfoe_core::study::StudyConfig;
use tlsfoe_crypto::bigint::Ubig;
use tlsfoe_crypto::drbg::{Drbg, RngCore64};
use tlsfoe_crypto::{HashAlg, MontgomeryCtx, RsaKeyPair};

/// `x` rounded to two decimals.
fn round2(x: f64) -> Json {
    Json::Num((x * 100.0).round() / 100.0)
}

/// Keygen series: the sieved prime search and the population key
/// cache. The cold keypair clears the process-wide key cache each
/// iteration, so every call pays generation; its seed has no entry in
/// the key-hint table, so it searches. The sieve counts come from one
/// fixed, untimed search, so they are exact.
fn measure_keygen(quick: bool) -> Json {
    use tlsfoe_crypto::rsa::{gen_prime, keygen_stats};
    use tlsfoe_population::keys;

    let samples = if quick { 3 } else { 7 };
    eprintln!("[exp_perf] measuring keygen (sieved prime search, key cache)…");
    let before = keygen_stats();
    gen_prime(512, &mut Drbg::new(0x9187_AA01)).expect("gen_prime 512");
    keys::keypair(0xBEEF, 1024);
    let after = keygen_stats();
    let primes = after.primes - before.primes;
    let candidates = after.candidates - before.candidates;
    let mr_runs = after.mr_runs - before.mr_runs;
    let base2_rejects = after.base2_rejects - before.base2_rejects;

    let gen_prime_512 =
        best_ns(samples, || drop(gen_prime(512, &mut Drbg::new(0x9187_AA01)).unwrap()));
    let keypair = best_ns_paired(
        samples,
        || {
            keys::clear();
            drop(keys::keypair(0xBEEF, 1024));
        },
        || drop(keys::keypair(0xBEEF, 1024)),
    );
    println!(
        "keygen | gen_prime 512 {gen_prime_512:>10} ns | keypair 1024 cold {:>10} ns | warm {:>6} \
         ns | sieve: {primes} primes, {candidates} candidates, {mr_runs} MR runs ({base2_rejects} \
         stopped by base 2)",
        keypair.f_ns, keypair.g_ns,
    );
    let per_prime = |count: u64| round2(count as f64 / primes as f64);
    Json::obj(vec![
        ("gen_prime_512_ns", Json::Int(gen_prime_512 as i64)),
        ("keypair_1024_cold_ns", Json::Int(keypair.f_ns as i64)),
        ("keypair_1024_warm_ns", Json::Int(keypair.g_ns as i64)),
        ("keypair_cold_over_warm", round2(keypair.ratio)),
        ("sieve_primes", Json::Int(primes as i64)),
        ("sieve_candidates", Json::Int(candidates as i64)),
        ("sieve_mr_runs", Json::Int(mr_runs as i64)),
        ("sieve_candidates_per_prime", per_prime(candidates)),
        ("sieve_mr_runs_per_prime", per_prime(mr_runs)),
        ("sieve_base2_rejects_per_prime", per_prime(base2_rejects)),
    ])
}

/// Mint-path series: substitute-chain minting cold (a fresh mint, one
/// root-key signature) against warm (a cache hit), signatures per mint
/// over a fixed set of untimed mints, and the shared Montgomery-context
/// memo's misses so far in the process.
fn measure_mint(quick: bool) -> Json {
    use std::sync::Arc;
    use tlsfoe_crypto::rsa;
    use tlsfoe_netsim::Ipv4;
    use tlsfoe_population::model::{PopulationModel, StudyEra};
    use tlsfoe_population::products::{catalog, ProductId};
    use tlsfoe_x509::RootStore;

    let samples = if quick { 3 } else { 7 };
    eprintln!("[exp_perf] measuring mint path (substitute minting)…");
    let idx = catalog()
        .iter()
        .position(|s| s.display_name() == "Bitdefender")
        .expect("Bitdefender in catalog");
    // The product's process-wide factory; building it self-signs its
    // root before the signature count below starts.
    let model = PopulationModel::new(StudyEra::Study1, Arc::new(RootStore::new()));
    let factory = model.factory(ProductId(idx as u16));
    let dst = Ipv4([203, 0, 113, 1]);

    let signs_before = rsa::signature_count();
    let minted_before = factory.minted();
    for i in 0..8 {
        factory.substitute_chain(&format!("count{i}.example"), dst, None);
    }
    let signatures = rsa::signature_count() - signs_before;
    let mints = (factory.minted() - minted_before) as u64;

    // A distinct host per cold iteration forces a fresh mint; the
    // counter survives across sample blocks so no host repeats.
    factory.substitute_chain("warm.example", dst, None);
    let mut host_no = 0u64;
    let mint = best_ns_paired(
        samples,
        || {
            host_no += 1;
            factory.substitute_chain(&format!("mint{host_no}.example"), dst, None);
        },
        || drop(factory.substitute_chain("warm.example", dst, None)),
    );
    let (_, ctx_misses) = tlsfoe_crypto::shared_ctx_cache().stats();
    println!(
        "mint | chain cold {:>9} ns | warm {:>5} ns | {signatures} signatures / {mints} mints | \
         ctx cache {ctx_misses} misses",
        mint.f_ns, mint.g_ns,
    );
    Json::obj(vec![
        ("mint_chain_cold_ns", Json::Int(mint.f_ns as i64)),
        ("mint_chain_warm_ns", Json::Int(mint.g_ns as i64)),
        ("mint_cold_over_warm", round2(mint.ratio)),
        ("signatures_per_mint", round2(signatures as f64 / mints as f64)),
        ("ctx_cache_misses", Json::Int(ctx_misses as i64)),
    ])
}

/// Columnar-store series: one single-threaded study-1 run at ~10⁵
/// impressions (scale 40). The interning counts are exact; the
/// per-session time and peak RSS are reported only. The full sweep up
/// to 10⁶ lives in `exp_million`.
fn measure_million(quick: bool) -> Json {
    let scale = 40;
    let mut cfg = StudyConfig::study1(scale, 2014);
    cfg.threads = 1;
    let samples = if quick { 1 } else { 2 };
    let mut session_ns = u64::MAX;
    let mut impressions = 0u64;
    let mut stats = (0u64, 0u64, 0usize, 0u64);
    eprintln!(
        "[exp_perf] measuring columnar store at ~1e5 impressions (study 1, scale 1/{scale})…"
    );
    for _ in 0..samples {
        let start = Instant::now();
        let out = tlsfoe_core::study::run_study(&cfg).expect("million-series study");
        let elapsed = start.elapsed();
        impressions = out.impressions();
        session_ns = session_ns.min((elapsed.as_nanos() / u128::from(impressions.max(1))) as u64);
        stats = (
            out.db.total(),
            out.db.logical_chain_bytes(),
            out.db.distinct_substitutes(),
            out.db.interned_chain_bytes(),
        );
    }
    let (records, logical, distinct, interned) = stats;
    let dedup = logical as f64 / interned.max(1) as f64;
    let peak_kb = tlsfoe_bench::peak_rss_kb();
    println!(
        "million | {impressions} impressions | {session_ns:>9} ns/session | {records} records | \
         {distinct} distinct chains, dedup {dedup:>5.0}x | peak RSS {} MB",
        peak_kb.map_or_else(|| "n/a".to_string(), |kb| format!("{:.0}", kb as f64 / 1024.0)),
    );
    Json::obj(vec![
        ("million_session_ns", Json::Int(session_ns as i64)),
        ("impressions", Json::Int(impressions as i64)),
        ("records", Json::Int(records as i64)),
        ("distinct_substitute_chains", Json::Int(distinct as i64)),
        ("rowwise_chain_kb", Json::Int((logical / 1024) as i64)),
        ("interned_chain_kb", Json::Int((interned / 1024) as i64)),
        ("chain_dedup_factor", Json::Num(dedup.round())),
        ("peak_rss_kb", Json::Int(peak_kb.map_or(-1, |kb| kb as i64))),
    ])
}

/// Ingest series: the hash the report server's memo pays to look an
/// upload body up, std's SipHash-1-3 (`DefaultHasher`) against the
/// memo's own [`key_hash`](tlsfoe_crypto::memo::key_hash), over the
/// 1,811-byte body of the study-1 authors' host chain. Uploads of a
/// host's own genuine body skip the memo, so this guards the hasher
/// that substitute and damaged bodies, and every other memo, pay.
fn measure_ingest(quick: bool) -> Json {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};
    use std::hint::black_box;
    use tlsfoe_core::HostCatalog;
    use tlsfoe_crypto::memo::key_hash;
    use tlsfoe_x509::pem;

    let samples = if quick { 5 } else { 11 };
    eprintln!("[exp_perf] measuring the ingest memo's key hash…");
    let catalog = HostCatalog::study1();
    let host = catalog.hosts.first().expect("study-1 catalog has a host");
    let body = pem::encode_certificates(&host.chain).into_bytes();
    let hash = best_ns_paired(
        samples,
        || {
            let mut h = DefaultHasher::new();
            black_box(body.as_slice()).hash(&mut h);
            black_box(h.finish());
        },
        || {
            black_box(key_hash(black_box(body.as_slice())));
        },
    );
    println!(
        "ingest | {}-byte upload body | siphash {:>5} ns | memo key hash {:>5} ns ({:>3.1}x)",
        body.len(),
        hash.f_ns,
        hash.g_ns,
        hash.ratio,
    );
    Json::obj(vec![
        ("body_bytes", Json::Int(body.len() as i64)),
        ("siphash_ns", Json::Int(hash.f_ns as i64)),
        ("key_hash_ns", Json::Int(hash.g_ns as i64)),
        ("siphash_over_key_hash", round2(hash.ratio)),
    ])
}

fn measure(quick: bool) -> Json {
    let samples = if quick { 5 } else { 11 };
    let msg = b"tbs certificate bytes stand-in";

    let mut sizes = Vec::new();
    for bits in [512usize, 1024, 2048] {
        eprintln!("[exp_perf] measuring {bits}-bit primitives…");
        let key = RsaKeyPair::generate(bits, &mut Drbg::new(bits as u64)).unwrap();
        let n = &key.public.n;
        let mut rng = Drbg::new(13 * bits as u64);
        let mut base_bytes = vec![0u8; bits / 8];
        rng.fill_bytes(&mut base_bytes);
        let base = Ubig::from_bytes_be(&base_bytes).rem(n).unwrap();
        let ctx = MontgomeryCtx::new(n).unwrap();
        let mut no_crt = key.clone();
        no_crt.crt = None;
        let sig = key.sign(HashAlg::Sha1, msg).unwrap();

        let modpow = best_ns_paired(
            samples,
            || drop(base.modpow_schoolbook(&key.d, n).unwrap()),
            || drop(base.modpow(&key.d, n).unwrap()),
        );
        let sign = best_ns_paired(
            samples,
            || drop(no_crt.sign(HashAlg::Sha1, msg).unwrap()),
            || drop(key.sign(HashAlg::Sha1, msg).unwrap()),
        );
        let mont_mul = best_ns(samples, || drop(ctx.mulmod(&base, &base).unwrap()));
        let verify = best_ns(samples, || key.public.verify(HashAlg::Sha1, msg, &sig).unwrap());

        println!(
            "{bits:>5} bits | modpow schoolbook {:>12} ns | modpow {:>10} ns ({:>4.1}x) | mul \
             {mont_mul:>6} ns | sign no-crt {:>9} ns | crt {:>9} ns ({:>3.1}x) | verify {verify:>6} ns",
            modpow.f_ns, modpow.g_ns, modpow.ratio, sign.f_ns, sign.g_ns, sign.ratio,
        );

        sizes.push((
            bits,
            Json::obj(vec![
                ("modpow_schoolbook_ns", Json::Int(modpow.f_ns as i64)),
                ("modpow_ns", Json::Int(modpow.g_ns as i64)),
                ("modpow_schoolbook_over_modpow", round2(modpow.ratio)),
                ("mont_mul_ns", Json::Int(mont_mul as i64)),
                ("rsa_sign_no_crt_ns", Json::Int(sign.f_ns as i64)),
                ("rsa_sign_crt_ns", Json::Int(sign.g_ns as i64)),
                ("sign_no_crt_over_crt", round2(sign.ratio)),
                ("rsa_verify_e65537_ns", Json::Int(verify as i64)),
            ]),
        ));
    }

    Json::obj(vec![
        ("experiment", Json::str("exp_perf")),
        ("unit", Json::str("nanoseconds_per_operation_min_of_blocks")),
        ("samples", Json::Int(samples as i64)),
        ("sizes", Json::Obj(sizes.into_iter().map(|(bits, v)| (bits.to_string(), v)).collect())),
        (
            "series",
            Json::obj(vec![
                ("keygen", measure_keygen(quick)),
                ("mint", measure_mint(quick)),
                ("million", measure_million(quick)),
                ("ingest", measure_ingest(quick)),
            ]),
        ),
    ])
}

fn main() {
    let mut quick = false;
    for arg in std::env::args().skip(1) {
        if arg != "--quick" {
            eprintln!("exp_perf: unknown argument {arg:?}; usage: exp_perf [--quick]");
            std::process::exit(2);
        }
        quick = true;
    }

    println!("{}", tlsfoe_bench::banner("exp_perf: crypto hot-path timings"));
    let doc = measure(quick);
    std::fs::write("BENCH_crypto.json", format!("{doc}\n")).expect("write BENCH_crypto.json");
    println!("\nwrote BENCH_crypto.json");

    let outcomes = perf_gate::evaluate(&doc);
    println!("\n{}", perf_gate::render(&outcomes));
    if !outcomes.iter().all(perf_gate::Outcome::passed) {
        std::process::exit(1);
    }
}
