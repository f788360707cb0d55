//! The per-session phase probe: one impression's pipeline cut into
//! **dial** (connection setup + ClientHello), **handshake** (serve and
//! parse the certificate flight), **upload** (HTTP POST of the PEM
//! chain) and **ingest** (report-server classification + columnar
//! append), each driven through the netsim/tls/core public APIs a study
//! session uses. Subtracting the four phases from the measured 1-worker
//! cost per impression gives the time no phase accounts for.

use std::time::Instant;

use tlsfoe_core::http::{HttpPostClient, HttpPostServer};
use tlsfoe_core::report::ReportServer;
use tlsfoe_core::store::Database;
use tlsfoe_core::HostCatalog;
use tlsfoe_crypto::drbg::Drbg;
use tlsfoe_crypto::RsaKeyPair;
use tlsfoe_geo::GeoDb;
use tlsfoe_netsim::{Ipv4, Network, NetworkConfig, Shared};
use tlsfoe_tls::probe::{ProbeClient, ProbeOutcome, ProbeState};
use tlsfoe_tls::server::{ServerConfig, TlsCertServer};
use tlsfoe_x509::{pem, Certificate, CertificateBuilder, NameBuilder};

/// Nanoseconds per session for each phase (minimum over sample blocks:
/// interference from other processes only ever adds time).
#[derive(Debug, Clone, Copy)]
pub struct Phases {
    pub dial_ns: f64,
    pub handshake_ns: f64,
    pub upload_ns: f64,
    pub ingest_ns: f64,
}

impl Phases {
    pub fn total_ns(&self) -> f64 {
        self.dial_ns + self.handshake_ns + self.upload_ns + self.ingest_ns
    }
}

/// Sessions driven per timed block.
const BATCH: usize = 64;

/// The served chain: 512-bit throwaway keys. Framing cost, which the
/// phases time, does not depend on key size.
fn phase_chain() -> Result<Vec<Certificate>, String> {
    let err = |e| format!("phase chain: {e:?}");
    let ca = RsaKeyPair::generate(512, &mut Drbg::new(0x7068_6173)).map_err(err)?;
    let leaf_key = RsaKeyPair::generate(512, &mut Drbg::new(0x7068_6174)).map_err(err)?;
    let ca_name = NameBuilder::new().organization("Phase CA").build();
    let ca_cert = CertificateBuilder::new()
        .subject(ca_name.clone())
        .ca(None)
        .self_sign(&ca)
        .map_err(|e| format!("phase CA: {e:?}"))?;
    let leaf = CertificateBuilder::new()
        .issuer(ca_name)
        .subject(NameBuilder::new().common_name("phase.example").build())
        .san_dns(&["phase.example"])
        .sign(&leaf_key.public, &ca)
        .map_err(|e| format!("phase leaf: {e:?}"))?;
    Ok(vec![leaf, ca_cert])
}

fn client(i: usize) -> Ipv4 {
    Ipv4([198, 51, 100, (i % 200 + 1) as u8])
}

fn per_session_ns(start: Instant) -> f64 {
    start.elapsed().as_nanos() as f64 / BATCH as f64
}

fn min(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Measure the four phases over `blocks` blocks each.
pub fn measure(blocks: usize) -> Result<Phases, String> {
    let config = ServerConfig::new(phase_chain()?);
    let srv = Ipv4([203, 0, 113, 77]);
    let (mut dial, mut handshake, mut upload, mut ingest) = (vec![], vec![], vec![], vec![]);

    for block in 0..blocks {
        let mut net = Network::new(NetworkConfig::default(), 7 + block as u64);
        let cfg = config.clone();
        net.listen(srv, 443, Box::new(move |_| Box::new(TlsCertServer::new(cfg.clone()))));
        let outcomes: Vec<_> = (0..BATCH).map(|_| ProbeOutcome::new()).collect();
        let start = Instant::now();
        for (i, outcome) in outcomes.iter().enumerate() {
            let probe = ProbeClient::new("phase.example", [0x11; 32], outcome.clone());
            net.dial_from(client(i), srv, 443, Box::new(probe)).map_err(|e| format!("{e:?}"))?;
        }
        dial.push(per_session_ns(start));
        let start = Instant::now();
        net.run().map_err(|e| format!("{e:?}"))?;
        handshake.push(per_session_ns(start));
        if outcomes.iter().any(|o| o.lock().state != ProbeState::Done) {
            return Err("phase probe did not capture a certificate".into());
        }
    }

    // A real session builds its own body per upload, hence the clone
    // inside the timed loop.
    let body = pem::encode_certificates(&config.chain).into_bytes();
    for block in 0..blocks {
        let mut net = Network::new(NetworkConfig::default(), 70 + block as u64);
        net.listen(srv, 80, Box::new(move |_| Box::new(HttpPostServer::new(|_req| {}))));
        let oks: Vec<_> = (0..BATCH).map(|_| Shared::new(false)).collect();
        let start = Instant::now();
        for (i, ok) in oks.iter().enumerate() {
            let post = HttpPostClient::new("/report?host=phase.example", body.clone(), ok.clone());
            net.dial_from(client(i), srv, 80, Box::new(post)).map_err(|e| format!("{e:?}"))?;
        }
        net.run().map_err(|e| format!("{e:?}"))?;
        upload.push(per_session_ns(start));
        if oks.iter().any(|ok| !*ok.lock()) {
            return Err("phase upload did not get a 200".into());
        }
    }

    // Steady state: the first call warms the ingest memo, so each timed
    // call is a memo lookup plus a columnar append.
    let catalog = HostCatalog::study1();
    let server = ReportServer::new(&catalog, GeoDb::allocate(1000), Shared::new(Database::new()));
    let host = catalog.hosts.first().ok_or("study-1 catalog has no host")?;
    let ingest_body = pem::encode_certificates(&host.chain).into_bytes();
    let path = format!("/report?host={}", host.name);
    let from = Ipv4([11, 0, 0, 0]);
    server.ingest(from, &path, &ingest_body);
    for _ in 0..blocks {
        let start = Instant::now();
        for _ in 0..BATCH {
            server.ingest(from, &path, &ingest_body);
        }
        ingest.push(per_session_ns(start));
    }

    Ok(Phases {
        dial_ns: min(&dial),
        handshake_ns: min(&handshake),
        upload_ns: min(&upload),
        ingest_ns: min(&ingest),
    })
}
