//! Design-choice ablations called out in DESIGN.md §5:
//! * probe abort-after-Certificate vs byte-equality comparison strategy,
//! * substitute-cert caching in proxies (cache hit vs fresh mint),
//! * RSA sign/verify cost by key size (512/1024/2048 — the §5.2 sizes).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tlsfoe_crypto::drbg::Drbg;
use tlsfoe_crypto::{HashAlg, RsaKeyPair};
use tlsfoe_netsim::Ipv4;
use tlsfoe_population::factory::SubstituteFactory;
use tlsfoe_population::products::{catalog, ProductId};
use tlsfoe_x509::Certificate;

fn bench_mismatch_strategies(c: &mut Criterion) {
    // Byte-equality (the paper's server-side comparison) vs full
    // semantic parse+field compare.
    let specs = catalog();
    let idx = specs.iter().position(|s| s.display_name() == "Bitdefender").unwrap();
    let f = SubstituteFactory::new(ProductId(idx as u16), specs[idx].clone());
    let substitute = f.substitute_chain("h.example", Ipv4([203, 0, 113, 1]), None);
    let auth_der = substitute[0].to_der().to_vec();
    let other = f.substitute_chain("other.example", Ipv4([203, 0, 113, 1]), None);
    let captured = other[0].to_der().to_vec();

    c.bench_function("mismatch_byte_equality", |b| {
        b.iter(|| captured.as_slice() != auth_der.as_slice())
    });
    c.bench_function("mismatch_semantic_parse", |b| {
        b.iter(|| {
            let a = Certificate::from_der(&captured).unwrap();
            let b2 = Certificate::from_der(&auth_der).unwrap();
            a.tbs.serial != b2.tbs.serial || a.tbs.spki != b2.tbs.spki
        })
    });
}

fn bench_proxy_cert_cache(c: &mut Criterion) {
    let specs = catalog();
    let idx = specs.iter().position(|s| s.display_name() == "Bitdefender").unwrap();
    let f = SubstituteFactory::new(ProductId(idx as u16), specs[idx].clone());
    f.substitute_chain("h.example", Ipv4([203, 0, 113, 1]), None); // warm

    c.bench_function("substitute_cache_hit", |b| {
        b.iter(|| f.substitute_chain("h.example", Ipv4([203, 0, 113, 1]), None))
    });
    // The counter must survive across Criterion's warmup and measurement
    // passes (the routine closure is re-invoked per pass), or the
    // measurement pass would re-use warmed hosts and hit the cache.
    let counter = std::cell::Cell::new(0u64);
    let mut g = c.benchmark_group("substitute_fresh_mint_1024");
    g.sample_size(10);
    g.bench_function("mint", |b| {
        b.iter(|| {
            let i = counter.get() + 1;
            counter.set(i);
            // Distinct host per iteration forces a fresh mint + sign.
            f.substitute_chain(&format!("h{i}.example"), Ipv4([203, 0, 113, 1]), None)
        })
    });
    g.finish();
}

fn bench_rsa_keysize(c: &mut Criterion) {
    let mut g = c.benchmark_group("rsa_keysize");
    for bits in [512usize, 1024, 2048] {
        let key = RsaKeyPair::generate(bits, &mut Drbg::new(bits as u64)).unwrap();
        let msg = b"tbs certificate bytes stand-in";
        let sig = key.sign(HashAlg::Sha1, msg).unwrap();
        g.bench_with_input(BenchmarkId::new("sign", bits), &bits, |b, _| {
            b.iter(|| key.sign(HashAlg::Sha1, msg).unwrap())
        });
        g.bench_with_input(BenchmarkId::new("verify", bits), &bits, |b, _| {
            b.iter(|| key.public.verify(HashAlg::Sha1, msg, &sig).unwrap())
        });
    }
    g.finish();
}

criterion_group!(benches, bench_mismatch_strategies, bench_proxy_cert_cache, bench_rsa_keysize);
criterion_main!(benches);
