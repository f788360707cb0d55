//! Crypto hot-path performance snapshot → `BENCH_crypto.json`.
//!
//! Times the primitives every simulated impression funnels through —
//! full-width modular exponentiation (schoolbook vs Montgomery, fresh vs
//! cached context), one Montgomery modular multiply, RSA sign (CRT vs
//! direct) and verify (e = 65537) — at the paper's three key sizes, plus
//! named end-to-end series (`keygen`, `mint`, `session_phase`,
//! `session_throughput`, `million`), and writes machine-readable per-op
//! times (min across sample blocks) so future PRs can diff perf
//! trajectories in CI.
//!
//! Flags:
//!
//! * `--quick` — halve sample counts (smoke jobs);
//! * `--check <baseline.json>` — after measuring, diff against the
//!   committed baseline with `tlsfoe_bench::perf_gate` and exit non-zero
//!   if any metric regressed beyond tolerance;
//! * `--tol <pct>` — override the gate tolerance (default 25).
//!
//! Pairs whose *ratio* matters (fresh-vs-cached context) are measured
//! with interleaved sample blocks, so slow drift of the machine's clock
//! (turbo decay, thermal throttling) biases both sides equally instead
//! of penalizing whichever ran second — exactly the artifact that once
//! made the cached context look slower than the uncached one.

use std::time::Instant;

use tlsfoe_bench::harness::{self, best_ns, best_ns_paired};
use tlsfoe_bench::perf_gate;
use tlsfoe_core::json::Json;
use tlsfoe_core::study::StudyConfig;
use tlsfoe_crypto::bigint::Ubig;
use tlsfoe_crypto::drbg::{Drbg, RngCore64};
use tlsfoe_crypto::{HashAlg, MontgomeryCtx, RsaKeyPair};

/// End-to-end sessions/sec through the shard-lifetime batched network:
/// time a small single-threaded study 1 (per-core and stable across
/// runner core counts) and divide by its impression count. Guarded by
/// the same `--check` gate as the crypto numbers, so the batching win
/// can't silently regress.
fn measure_session_throughput(quick: bool) -> Json {
    // The scale must match between quick (CI) and full (baseline) runs:
    // run_study includes per-run fixed costs (model build, ad sim), so
    // ns/session is only comparable at equal session counts. Quick mode
    // trims samples instead.
    let scale = 600;
    let mut cfg = StudyConfig::study1(scale, 2014);
    cfg.threads = 1;
    let samples = if quick { 2 } else { 3 };
    let mut session_ns = u64::MAX;
    let mut sessions = 0u64;
    eprintln!("[exp_perf] measuring session throughput (study 1, scale 1/{scale})…");
    for _ in 0..samples {
        let start = Instant::now();
        let out = tlsfoe_core::study::run_study(&cfg).expect("throughput study");
        let elapsed = start.elapsed();
        sessions = out.impressions();
        session_ns = session_ns.min((elapsed.as_nanos() / u128::from(sessions.max(1))) as u64);
    }
    let per_sec = 1e9 / session_ns as f64;
    println!(
        "sessions | {sessions} impressions | {session_ns:>9} ns/session | {per_sec:>8.0} sessions/sec (1 thread)"
    );
    Json::obj(vec![
        ("session_ns", Json::Int(session_ns as i64)),
        ("sessions_per_sec", Json::Num(per_sec.round())),
        ("sessions_measured", Json::Int(sessions as i64)),
    ])
}

/// Keygen subsystem series: the sieved prime search and the population
/// key cache, cold and warm — the startup-dominated costs `exp_all`
/// spends most of its wall-clock on. Cold keypair timings clear the
/// process-wide key cache each iteration so every call pays generation;
/// fixed seeds keep the prime-finding work (and therefore the metric)
/// reproducible across runs instead of at the mercy of prime-gap luck.
fn measure_keygen(quick: bool) -> Json {
    use tlsfoe_crypto::rsa::{gen_prime, keygen_stats};
    use tlsfoe_population::keys;

    let samples = if quick { 3 } else { 7 };
    eprintln!("[exp_perf] measuring keygen (sieved prime search, key cache)…");
    let gen_prime_512 =
        best_ns(samples, || drop(gen_prime(512, &mut Drbg::new(0x9187_AA01)).unwrap()));
    let keypair_cold = best_ns(samples, || {
        keys::clear();
        drop(keys::keypair(0xBEEF, 1024));
    });
    keys::keypair(0xBEEF, 1024); // ensure cached
    let keypair_warm = best_ns(samples, || drop(keys::keypair(0xBEEF, 1024)));

    let st = keygen_stats();
    let per_prime = |v: u64| (v as f64 / st.primes.max(1) as f64 * 100.0).round() / 100.0;
    println!(
        "keygen | gen_prime 512 {gen_prime_512:>10} ns | keypair 1024 cold {keypair_cold:>10} ns \
         | warm {keypair_warm:>6} ns | sieve: {:.1} candidates, {:.1} MR runs per prime \
         ({:.0}% of composite MR runs stopped by base 2)",
        per_prime(st.candidates),
        per_prime(st.mr_runs),
        st.base2_rejects as f64 / (st.mr_runs - st.primes).max(1) as f64 * 100.0,
    );
    Json::obj(vec![
        ("gen_prime_512_ns", Json::Int(gen_prime_512 as i64)),
        ("keypair_1024_ns", Json::Int(keypair_cold as i64)),
        // Deliberately NOT `_ns`-suffixed (so the gate skips it): a warm
        // hit is ~54 ns of mutex + hash probe + Arc bump, and a 25%
        // tolerance on that is ~13 ns of absolute slack — pure flake on
        // shared runners. The regression that matters (a hit silently
        // becoming a multi-ms regeneration) is visible here informationally
        // and would also crater the gated session/cold series.
        ("keypair_1024_warm_hit", Json::Int(keypair_warm as i64)),
        // Sieve effectiveness ratios — informational (not *_ns, so the
        // gate ignores them) but recorded for the perf trajectory.
        ("sieve_candidates_per_prime", Json::Num(per_prime(st.candidates))),
        ("sieve_mr_runs_per_prime", Json::Num(per_prime(st.mr_runs))),
        ("sieve_base2_rejects_per_prime", Json::Num(per_prime(st.base2_rejects))),
    ])
}

/// Mint-path series: substitute-chain minting cold (fresh mint, one
/// root-key RSA signature) and warm (cache hit), one 1024-bit signature
/// through [`RsaKeyPair::sign`], signatures-per-mint accounting, and the
/// shared Montgomery-context cache's hit/miss counters (previously
/// invisible). `mint_chain_ns` and `rsa_sign_1024_ns` are gated by
/// `--check`; the warm hit and the counters are informational (the warm
/// hit is ~100 ns of striped-map probe — 25% of that is pure flake on
/// shared runners, same rationale as `keypair_1024_warm_hit`).
fn measure_mint(quick: bool) -> Json {
    use tlsfoe_crypto::rsa;
    use tlsfoe_netsim::Ipv4;
    use tlsfoe_population::factory::SubstituteFactory;
    use tlsfoe_population::products::{catalog, ProductId};

    let samples = if quick { 3 } else { 7 };
    eprintln!("[exp_perf] measuring mint path (substitute minting, signing)…");
    let specs = catalog();
    let idx = specs
        .iter()
        .position(|s| s.display_name() == "Bitdefender")
        .expect("Bitdefender in catalog");
    let factory = SubstituteFactory::new(ProductId(idx as u16), specs[idx].clone());
    let dst = Ipv4([203, 0, 113, 1]);

    // Cold mints: a distinct host per iteration forces a fresh mint (and
    // its root-key signature) every time; the counter survives across
    // sample blocks so no host repeats. Track the signature counter
    // around the whole run for signatures-per-mint.
    let signs_before = rsa::signature_count();
    let minted_before = factory.minted();
    let mut host_no = 0u64;
    let mint_cold = best_ns(samples, || {
        host_no += 1;
        factory.substitute_chain(&format!("mint{host_no}.example"), dst, None);
    });
    let signs_per_mint = (rsa::signature_count() - signs_before) as f64
        / (factory.minted() - minted_before).max(1) as f64;
    factory.substitute_chain("warm.example", dst, None);
    let mint_warm = best_ns(samples, || {
        factory.substitute_chain("warm.example", dst, None);
    });

    let key = RsaKeyPair::generate(1024, &mut Drbg::new(0x4d494e54)).unwrap();
    let msg = b"tbs certificate bytes stand-in";
    let sign = best_ns(samples, || drop(key.sign(HashAlg::Sha1, msg).unwrap()));

    let (ctx_hits, ctx_misses) = tlsfoe_crypto::shared_ctx_cache().stats();
    println!(
        "mint | chain cold {mint_cold:>9} ns | warm {mint_warm:>5} ns | sign 1024 {sign:>7} ns \
         | {signs_per_mint:.2} signatures/mint | ctx cache {ctx_hits} hits / {ctx_misses} misses",
    );
    Json::obj(vec![
        ("mint_chain_ns", Json::Int(mint_cold as i64)),
        // NOT `_ns`-suffixed: informational, skipped by the gate.
        ("mint_chain_warm_hit", Json::Int(mint_warm as i64)),
        ("rsa_sign_1024_ns", Json::Int(sign as i64)),
        ("signatures_per_mint", Json::Num((signs_per_mint * 100.0).round() / 100.0)),
        ("ctx_cache_hits", Json::Int(ctx_hits as i64)),
        ("ctx_cache_misses", Json::Int(ctx_misses as i64)),
    ])
}

/// Columnar-store scale series: one study-1 run at ~10⁵ impressions
/// (scale 40), single-threaded. `million_session_ns` is the gated
/// metric — per-session cost at 15× the throughput series' session
/// count, where store append/intern overhead would surface if the
/// columnar redesign ever regressed. The interning stats and peak RSS
/// ride along informationally (RSS depends on runner memory layout and
/// sample order, too coarse for a hard gate); the full sweep up to 10⁶
/// lives in `exp_million`.
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
        // Informational (not `_ns`): interning effectiveness and memory.
        ("distinct_substitute_chains", Json::Int(distinct as i64)),
        ("rowwise_chain_kb", Json::Int((logical / 1024) as i64)),
        ("interned_chain_kb", Json::Int((interned / 1024) as i64)),
        ("chain_dedup_factor", Json::Num(dedup.round())),
        ("peak_rss_kb", Json::Int(peak_kb.map_or(-1, |kb| kb as i64))),
    ])
}

/// Session-phase series: one measured impression cut into dial /
/// handshake / upload / ingest (see
/// [`tlsfoe_bench::harness::measure_session_phases`]). All four metrics
/// are `_ns`-suffixed and therefore gated by `--check`: the TLS framing
/// fast path answers to `dial_ns`/`handshake_ns`, the upload leg to
/// `upload_ns`, and the report-ingestion memo to `ingest_ns` — a
/// regression in any one layer is attributed to its phase instead of
/// drowning in the end-to-end session number.
fn measure_session_phase(quick: bool) -> Json {
    // Each phase block times only ~100 µs of work (64 sessions), so a
    // single scheduler preemption inflates a whole block; min-of-many
    // cheap blocks is what keeps this series gate-stable.
    let samples = if quick { 9 } else { 15 };
    eprintln!("[exp_perf] measuring session phases (dial/handshake/upload/ingest)…");
    let p = harness::measure_session_phases(samples);
    println!(
        "phases | dial {:>7} ns | handshake {:>7} ns | upload {:>7} ns | ingest {:>7} ns",
        p.dial_ns, p.handshake_ns, p.upload_ns, p.ingest_ns,
    );
    Json::obj(vec![
        ("dial_ns", Json::Int(p.dial_ns as i64)),
        ("handshake_ns", Json::Int(p.handshake_ns as i64)),
        ("upload_ns", Json::Int(p.upload_ns as i64)),
        ("ingest_ns", Json::Int(p.ingest_ns as i64)),
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

        let modpow_schoolbook =
            best_ns(samples, || drop(base.modpow_schoolbook(&key.d, n).unwrap()));
        // Fresh-context vs cached-context: same inner ladder, the fresh
        // path additionally pays MontgomeryCtx::new (the R² division).
        // The context is built explicitly here because `Ubig::modpow`
        // now rides the shared ctx cache — measuring through it would
        // time the cached path twice and let a `MontgomeryCtx::new`
        // regression slip past the gate.
        let (modpow_montgomery, modpow_cached_ctx) = best_ns_paired(
            samples,
            || drop(MontgomeryCtx::new(n).unwrap().modpow(&base, &key.d).unwrap()),
            || drop(ctx.modpow(&base, &key.d).unwrap()),
        );
        let mont_mul = best_ns(samples, || drop(ctx.mulmod(&base, &base).unwrap()));
        let sign_crt = best_ns(samples, || drop(key.sign(HashAlg::Sha1, msg).unwrap()));
        let sign_no_crt = best_ns(samples, || drop(no_crt.sign(HashAlg::Sha1, msg).unwrap()));
        let verify = best_ns(samples, || key.public.verify(HashAlg::Sha1, msg, &sig).unwrap());

        println!(
            "{bits:>5} bits | modpow schoolbook {:>12} ns | montgomery {:>10} ns ({:>5.1}x) | \
             cached ctx {:>10} ns | mul {:>7} ns | sign crt {:>9} ns | verify {:>7} ns",
            modpow_schoolbook,
            modpow_montgomery,
            modpow_schoolbook as f64 / modpow_montgomery as f64,
            modpow_cached_ctx,
            mont_mul,
            sign_crt,
            verify,
        );

        sizes.push((
            bits,
            Json::obj(vec![
                ("modpow_schoolbook_ns", Json::Int(modpow_schoolbook as i64)),
                ("modpow_montgomery_ns", Json::Int(modpow_montgomery as i64)),
                ("modpow_montgomery_cached_ctx_ns", Json::Int(modpow_cached_ctx as i64)),
                ("mont_mul_ns", Json::Int(mont_mul as i64)),
                ("rsa_sign_crt_ns", Json::Int(sign_crt as i64)),
                ("rsa_sign_no_crt_ns", Json::Int(sign_no_crt as i64)),
                ("rsa_verify_e65537_ns", Json::Int(verify as i64)),
                (
                    "speedup_sign_vs_schoolbook_modpow",
                    Json::Num((modpow_schoolbook as f64 / sign_crt as f64 * 100.0).round() / 100.0),
                ),
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
                ("session_phase", measure_session_phase(quick)),
                ("session_throughput", measure_session_throughput(quick)),
                ("million", measure_million(quick)),
            ]),
        ),
    ])
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let check_path = args
        .iter()
        .position(|a| a == "--check")
        .map(|i| args.get(i + 1).cloned().expect("--check requires a baseline path"));
    let tolerance: f64 = args
        .iter()
        .position(|a| a == "--tol")
        .map(|i| {
            args.get(i + 1)
                .and_then(|v| v.parse().ok())
                .expect("--tol requires a percentage, e.g. --tol 25")
        })
        .unwrap_or(perf_gate::DEFAULT_TOLERANCE_PCT);

    println!("{}", tlsfoe_bench::banner("exp_perf: crypto hot-path timings"));
    let doc = measure(quick);
    std::fs::write("BENCH_crypto.json", format!("{doc}\n")).expect("write BENCH_crypto.json");
    println!("\nwrote BENCH_crypto.json");

    if let Some(path) = check_path {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        let baseline = Json::parse(text.trim())
            .unwrap_or_else(|e| panic!("cannot parse baseline {path}: {e}"));
        let cmp = perf_gate::compare(&baseline, &doc, tolerance)
            .unwrap_or_else(|e| panic!("perf gate comparison failed: {e}"));
        println!("\n{}", perf_gate::render_table(&cmp));
        if !cmp.regressions().is_empty() {
            std::process::exit(1);
        }
    }
}
