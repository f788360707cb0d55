//! The TLS proxy: a netsim interceptor that MitMs client TLS connections.
//!
//! Reproduces Figure 3 end to end on real bytes:
//!
//! 1. the client's ClientHello terminates at the proxy,
//! 2. the proxy dials the real server itself and fetches the genuine
//!    certificate chain (its "upstream leg"),
//! 3. depending on the product's behaviour it either
//!    * answers the client with a **substitute chain** signed by its
//!      injected root (the MitM path),
//!    * transparently **splices** client and server when the SNI host is
//!      whitelisted (§6.3 — why Facebook-only measurements undercount),
//!    * **blocks** the connection when the upstream chain doesn't
//!      validate (Bitdefender), or
//!    * **masks** the invalid upstream behind a trusted substitute
//!      (Kurupira — the §5.2 vulnerability).

use std::borrow::Cow;
use std::collections::HashSet;
use std::sync::Arc;

use tlsfoe_netsim::net::{DialInfo, Interceptor};
use tlsfoe_netsim::{Conduit, ConnToken, IoCtx, Ipv4, Shared};
use tlsfoe_tls::handshake::{Alert, AlertLevel, HandshakeMsg, HandshakeParser};
use tlsfoe_tls::probe::{ProbeOutcome, ProbeState};
use tlsfoe_tls::record::{ContentType, ProtocolVersion, RecordParser};
use tlsfoe_tls::ProbeClient;
use tlsfoe_x509::time::Time;
use tlsfoe_x509::{Certificate, RootStore, VerifyMemo};

use crate::factory::SubstituteFactory;
use crate::products::UpstreamPolicy;

/// The interceptor installed on a victim client's path.
pub struct TlsProxy {
    factory: Arc<SubstituteFactory>,
    /// The public-CA trust store the *product* uses to validate upstream
    /// certificates (only consulted by Block/Mask policies).
    public_roots: Arc<RootStore>,
    /// Memoized verdicts for `public_roots` — shared across every proxy
    /// of a population model so one distinct upstream chain costs one
    /// full validation per study, not one per session.
    verify_memo: Arc<VerifyMemo>,
    /// Hosts the product treats as too popular to intercept; `None` for
    /// a product that splices nothing.
    whitelist: Option<Arc<HashSet<String>>>,
    /// Wall-clock used for upstream validation.
    now: Time,
}

impl TlsProxy {
    /// Create the proxy for one client installation. With no
    /// `whitelist` it intercepts every host.
    pub fn new(
        factory: Arc<SubstituteFactory>,
        public_roots: Arc<RootStore>,
        verify_memo: Arc<VerifyMemo>,
        whitelist: Option<Arc<HashSet<String>>>,
        now: Time,
    ) -> TlsProxy {
        TlsProxy { factory, public_roots, verify_memo, whitelist, now }
    }
}

impl Interceptor for TlsProxy {
    fn claims(&self, _dst: Ipv4, port: u16) -> bool {
        // SSL-scanning products grab all TLS; whitelist decisions happen
        // after the ClientHello reveals the SNI host.
        port == 443
    }

    fn accept(&mut self, info: DialInfo) -> Box<dyn Conduit> {
        let shared = Shared::new(Session {
            factory: self.factory.clone(),
            public_roots: self.public_roots.clone(),
            verify_memo: self.verify_memo.clone(),
            whitelist: self.whitelist.clone(),
            now: self.now,
            dst: info.dst,
            client_token: None,
            upstream_token: None,
            client_version: ProtocolVersion::Tls10,
            raw_from_client: Vec::new(),
            sni: None,
            mode: Mode::AwaitingHello,
        });
        Box::new(ClientSide {
            shared,
            records: RecordParser::new(),
            handshakes: HandshakeParser::new(),
        })
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    AwaitingHello,
    /// Transparent relay (whitelisted host).
    Splicing,
    /// Waiting for the upstream probe before answering the client.
    FetchingUpstream,
    /// Substitute flight sent; just waiting for the client to finish.
    Answered,
    Dead,
}

struct Session {
    factory: Arc<SubstituteFactory>,
    public_roots: Arc<RootStore>,
    verify_memo: Arc<VerifyMemo>,
    whitelist: Option<Arc<HashSet<String>>>,
    now: Time,
    dst: Ipv4,
    client_token: Option<ConnToken>,
    upstream_token: Option<ConnToken>,
    client_version: ProtocolVersion,
    /// Raw bytes received from the client before a splice is established.
    raw_from_client: Vec<u8>,
    /// SNI host from the ClientHello, once seen.
    sni: Option<String>,
    mode: Mode,
}

impl Session {
    /// Answer the client with the substitute flight (MitM path).
    fn answer_with_substitute(&mut self, io: &mut IoCtx<'_>, upstream_leaf: Option<&Certificate>) {
        let host = self.sni_host();
        // The serving config rides the substitute cache next to the
        // chain, so repeated interceptions of one (product, host, variant)
        // share a single ServerConfig — and its once-per-version encoded
        // hello flight — instead of rebuilding and re-encoding per
        // connection.
        let entry = self.factory.substitute_entry(&host, self.dst, upstream_leaf);
        let flight = entry.config.hello_flight(self.client_version);
        if let Some(tok) = self.client_token {
            io.send_on(tok, flight);
        }
        self.mode = Mode::Answered;
    }

    fn block_client(&mut self, io: &mut IoCtx<'_>) {
        if let Some(tok) = self.client_token {
            io.send_on(
                tok,
                &Alert {
                    level: AlertLevel::Fatal,
                    description: 48, // unknown_ca — what AV blocks show
                }
                .encode_record(self.client_version),
            );
            io.close_on(tok);
        }
        self.mode = Mode::Dead;
    }

    fn sni_host(&self) -> String {
        // Set when the ClientHello was parsed; falls back to the IP.
        self.sni.clone().unwrap_or_else(|| self.dst.to_string())
    }

    fn upstream_done(&mut self, io: &mut IoCtx<'_>, outcome: &ProbeOutcome) {
        if self.mode != Mode::FetchingUpstream {
            return;
        }
        // Only an issuer-copying product's mint reads the upstream leaf
        // (its variant and issuer name); every other product's entry is
        // the same with or without it, so only those pay the parse.
        let upstream_leaf = if self.factory.spec().copy_issuer {
            outcome.chain_der.first().and_then(|der| Certificate::from_der(der).ok())
        } else {
            None
        };

        let policy = self.factory.spec().upstream_policy;
        if policy != UpstreamPolicy::Blind {
            // Validate the upstream chain with the PRODUCT's trust
            // store, through the model-wide memo: each distinct chain is
            // parsed and signature-checked once per study.
            let host = self.sni_host();
            let valid = self
                .verify_memo
                .validate_der(&self.public_roots, &outcome.chain_der, &host, self.now)
                .is_ok();
            if !valid {
                match policy {
                    UpstreamPolicy::BlockInvalid => {
                        // Bitdefender: refuse to let the client proceed.
                        self.block_client(io);
                        return;
                    }
                    UpstreamPolicy::MaskInvalid => {
                        // Kurupira: mint a trusted substitute anyway,
                        // hiding the attack from the user.
                    }
                    UpstreamPolicy::Blind => unreachable!(),
                }
            }
        }
        self.answer_with_substitute(io, upstream_leaf.as_ref());
    }
}

/// Client-facing conduit.
struct ClientSide {
    shared: Shared<Session>,
    records: RecordParser,
    handshakes: HandshakeParser,
}

impl Conduit for ClientSide {
    fn on_open(&mut self, io: &mut IoCtx<'_>) {
        self.shared.lock().client_token = Some(io.token());
    }

    fn on_data(&mut self, data: &[u8], io: &mut IoCtx<'_>) {
        let mode = self.shared.lock().mode;
        match mode {
            Mode::Splicing => {
                let mut s = self.shared.lock();
                match s.upstream_token {
                    Some(up) => io.send_on(up, data),
                    // Upstream not open yet: keep buffering; the relay
                    // flushes the buffer on open.
                    None => s.raw_from_client.extend_from_slice(data),
                }
                return;
            }
            Mode::Dead => return,
            _ => {}
        }
        // Buffer raw bytes in case we end up splicing.
        self.shared.lock().raw_from_client.extend_from_slice(data);

        let mut records = self.records.parse(data);
        loop {
            let rec = match records.next_record() {
                Ok(Some(rec)) => rec,
                Ok(None) => return,
                Err(_) => {
                    io.close();
                    return;
                }
            };
            match rec.content_type {
                ContentType::Handshake => {
                    let mut msgs = self.handshakes.parse(rec.payload);
                    while let Ok(Some(msg)) = msgs.next_message() {
                        if let HandshakeMsg::ClientHello(ch) = msg {
                            let mut s = self.shared.lock();
                            if s.mode != Mode::AwaitingHello {
                                continue;
                            }
                            s.client_version = ch.version;
                            s.sni = ch.server_name.map(Cow::into_owned);
                            let host = s.sni_host();
                            let whitelisted =
                                s.whitelist.as_ref().is_some_and(|w| w.contains(&host));
                            let dst = s.dst;
                            if whitelisted {
                                s.mode = Mode::Splicing;
                                let shared = self.shared.clone();
                                drop(s);
                                let up = io.dial(
                                    dst,
                                    443,
                                    Box::new(UpstreamRelay { shared: shared.clone() }),
                                );
                                match up {
                                    Ok(tok) => shared.lock().upstream_token = Some(tok),
                                    Err(_) => {
                                        shared.lock().mode = Mode::Dead;
                                        io.close();
                                    }
                                }
                            } else {
                                s.mode = Mode::FetchingUpstream;
                                let shared = self.shared.clone();
                                drop(s);
                                let outcome = ProbeOutcome::new();
                                let probe = ProbeClient::new(host, [0xA5; 32], outcome.clone());
                                let up = io.dial(
                                    dst,
                                    443,
                                    Box::new(UpstreamFetch {
                                        probe,
                                        outcome,
                                        shared: shared.clone(),
                                        reported: false,
                                    }),
                                );
                                if up.is_err() {
                                    // Upstream unreachable: mint from
                                    // the hostname alone.
                                    let mut s = shared.lock();
                                    s.mode = Mode::FetchingUpstream;
                                    s.answer_with_substitute(io, None);
                                }
                            }
                        }
                    }
                }
                ContentType::Alert => {
                    // Client aborting (the probe's §3.2 behaviour).
                    let s = self.shared.lock();
                    if let Some(up) = s.upstream_token {
                        io.close_on(up);
                    }
                    io.close();
                    return;
                }
                _ => {}
            }
        }
    }

    fn on_close(&mut self, io: &mut IoCtx<'_>) {
        let mut s = self.shared.lock();
        s.mode = Mode::Dead;
        if let Some(up) = s.upstream_token {
            io.close_on(up);
        }
    }
}

/// Upstream leg in MitM mode: fetch the genuine chain, then hand control
/// back to the session.
struct UpstreamFetch {
    probe: ProbeClient,
    outcome: Shared<ProbeOutcome>,
    shared: Shared<Session>,
    reported: bool,
}

impl UpstreamFetch {
    fn maybe_report(&mut self, io: &mut IoCtx<'_>) {
        if self.reported {
            return;
        }
        let state = self.outcome.lock().state;
        if state == ProbeState::Done || state == ProbeState::Failed {
            self.reported = true;
            let outcome = self.outcome.lock();
            self.shared.lock().upstream_done(io, &outcome);
        }
    }
}

impl Conduit for UpstreamFetch {
    fn on_open(&mut self, io: &mut IoCtx<'_>) {
        self.shared.lock().upstream_token = Some(io.token());
        self.probe.on_open(io);
        self.maybe_report(io);
    }

    fn on_data(&mut self, data: &[u8], io: &mut IoCtx<'_>) {
        self.probe.on_data(data, io);
        self.maybe_report(io);
    }

    fn on_close(&mut self, io: &mut IoCtx<'_>) {
        self.probe.on_close(io);
        self.maybe_report(io);
    }
}

/// Upstream leg in splice mode: transparent byte relay.
struct UpstreamRelay {
    shared: Shared<Session>,
}

impl Conduit for UpstreamRelay {
    fn on_open(&mut self, io: &mut IoCtx<'_>) {
        let mut s = self.shared.lock();
        s.upstream_token = Some(io.token());
        // Flush everything the client already sent (its ClientHello).
        let buffered = std::mem::take(&mut s.raw_from_client);
        drop(s);
        if !buffered.is_empty() {
            io.send(&buffered);
        }
    }

    fn on_data(&mut self, data: &[u8], io: &mut IoCtx<'_>) {
        let s = self.shared.lock();
        if let Some(client) = s.client_token {
            io.send_on(client, data);
        }
    }

    fn on_close(&mut self, io: &mut IoCtx<'_>) {
        let mut s = self.shared.lock();
        s.mode = Mode::Dead;
        if let Some(client) = s.client_token {
            io.close_on(client);
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::keys;
    use crate::model::{PopulationModel, StudyEra};
    use crate::products::ProductId;
    use tlsfoe_netsim::{Network, NetworkConfig};
    use tlsfoe_tls::server::{ServerConfig, TlsCertServer};
    use tlsfoe_x509::{CertificateBuilder, NameBuilder};

    fn srv_ip() -> Ipv4 {
        Ipv4([203, 0, 113, 1])
    }
    fn client_ip() -> Ipv4 {
        Ipv4([11, 0, 0, 1])
    }

    /// Build a legitimate 2-cert chain for `host`, returning
    /// (chain, root_cert) — the root goes into the public trust store.
    fn legit_chain(host: &str, seed: u64) -> (Vec<Certificate>, Certificate) {
        let ca = keys::keypair(seed, 1024);
        let leaf_key = keys::keypair(seed + 1, 1024);
        let ca_name = NameBuilder::new()
            .country("US")
            .organization("DigiCert Inc")
            .common_name("DigiCert High Assurance CA-3")
            .build();
        let root =
            CertificateBuilder::new().subject(ca_name.clone()).ca(None).self_sign(&ca).unwrap();
        let leaf = CertificateBuilder::new()
            .issuer(ca_name)
            .subject(NameBuilder::new().common_name(host).build())
            .san_dns(&[host])
            .sign(&leaf_key.public, &ca)
            .unwrap();
        (vec![leaf, root.clone()], root)
    }

    struct World {
        net: Network,
        model: PopulationModel,
        real_chain: Vec<Certificate>,
    }

    /// A network with one legit server and a model whose public roots
    /// trust that server's CA.
    fn world(host: &str) -> World {
        let (chain, root) = legit_chain(host, 860_000);
        let mut roots = RootStore::new();
        roots.add_factory_root(root);
        let model = PopulationModel::new(StudyEra::Study1, Arc::new(roots));
        let mut net = Network::new(NetworkConfig::default(), 99);
        let cfg = ServerConfig::new(chain.clone());
        net.listen(srv_ip(), 443, Box::new(move |_| Box::new(TlsCertServer::new(cfg.clone()))));
        World { net, model, real_chain: chain }
    }

    fn product_named(model: &PopulationModel, name: &str) -> ProductId {
        ProductId(
            model
                .specs()
                .iter()
                .position(|s| s.display_name() == name)
                .unwrap_or_else(|| panic!("{name} missing")) as u16,
        )
    }

    fn run_probe(world: &mut World, host: &str) -> Shared<ProbeOutcome> {
        let outcome = ProbeOutcome::new();
        world
            .net
            .dial_from(
                client_ip(),
                srv_ip(),
                443,
                Box::new(ProbeClient::new(host.to_owned(), [9u8; 32], outcome.clone())),
            )
            .unwrap();
        world.net.run().unwrap();
        outcome
    }

    #[test]
    fn mitm_substitutes_certificate() {
        let mut w = world("tlsresearch.byu.edu");
        let pid = product_named(&w.model, "Bitdefender");
        let proxy = w.model.make_proxy(pid);
        w.net.install_interceptor(client_ip(), Box::new(proxy));

        let outcome = run_probe(&mut w, "tlsresearch.byu.edu");
        let o = outcome.lock();
        assert_eq!(o.state, ProbeState::Done);
        let leaf = Certificate::from_der(&o.chain_der[0]).unwrap();
        // The captured cert differs from the real one and names the proxy.
        assert_ne!(leaf.to_der(), w.real_chain[0].to_der());
        assert_eq!(leaf.tbs.issuer.organization(), Some("Bitdefender"));
        assert_eq!(leaf.key_bits(), 1024);
        // It still covers the host, so the victim browser sees a lock.
        assert!(leaf.matches_host("tlsresearch.byu.edu"));
    }

    #[test]
    fn no_interceptor_returns_real_chain() {
        let mut w = world("tlsresearch.byu.edu");
        let outcome = run_probe(&mut w, "tlsresearch.byu.edu");
        let o = outcome.lock();
        assert_eq!(o.state, ProbeState::Done);
        assert_eq!(o.chain_der[0], w.real_chain[0].to_der().to_vec());
    }

    #[test]
    fn whitelisted_host_is_spliced_through() {
        // Bitdefender whitelists facebook.com → the probe must see the
        // REAL certificate even though the proxy is on-path.
        let mut w = world("www.facebook.com");
        let pid = product_named(&w.model, "Bitdefender");
        assert!(w.model.specs()[pid.0 as usize].whitelists_popular);
        let proxy = w.model.make_proxy(pid);
        w.net.install_interceptor(client_ip(), Box::new(proxy));

        let outcome = run_probe(&mut w, "www.facebook.com");
        let o = outcome.lock();
        assert_eq!(o.state, ProbeState::Done, "spliced probe must complete");
        assert_eq!(
            o.chain_der[0],
            w.real_chain[0].to_der().to_vec(),
            "whitelisted host must show the genuine certificate"
        );
    }

    #[test]
    fn non_whitelisting_product_intercepts_popular_hosts_too() {
        let mut w = world("www.facebook.com");
        let pid = product_named(&w.model, "Sendori, Inc");
        let proxy = w.model.make_proxy(pid);
        w.net.install_interceptor(client_ip(), Box::new(proxy));
        let outcome = run_probe(&mut w, "www.facebook.com");
        let o = outcome.lock();
        assert_eq!(o.state, ProbeState::Done);
        let leaf = Certificate::from_der(&o.chain_der[0]).unwrap();
        assert_eq!(leaf.tbs.issuer.organization(), Some("Sendori, Inc"));
    }

    #[test]
    fn substitute_validates_on_victim_but_not_clean_machine() {
        let mut w = world("tlsresearch.byu.edu");
        let pid = product_named(&w.model, "Bitdefender");
        let proxy = w.model.make_proxy(pid);
        w.net.install_interceptor(client_ip(), Box::new(proxy));
        let outcome = run_probe(&mut w, "tlsresearch.byu.edu");
        let chain: Vec<Certificate> =
            outcome.lock().chain_der.iter().map(|d| Certificate::from_der(d).unwrap()).collect();

        let victim_profile = crate::model::ClientProfile {
            country: tlsfoe_geo::countries::by_code("US").unwrap(),
            ip: client_ip(),
            product: Some(pid),
        };
        let victim_store = w.model.client_root_store(&victim_profile);
        victim_store.validate(&chain, "tlsresearch.byu.edu", w.model.now()).unwrap();

        let clean_profile = crate::model::ClientProfile { product: None, ..victim_profile };
        let clean_store = w.model.client_root_store(&clean_profile);
        assert!(clean_store.validate(&chain, "tlsresearch.byu.edu", w.model.now()).is_err());
    }

    /// Attacker scenario for the §5.2 firewall audit: the "server" is a
    /// MitM attacker presenting a self-signed (untrusted) certificate.
    fn attacker_world() -> World {
        let mut w = world("victim.example");
        // Replace the listener with an attacker serving an untrusted cert.
        let atk_key = keys::keypair(870_000, 1024);
        let forged = CertificateBuilder::new()
            .subject(NameBuilder::new().common_name("victim.example").build())
            .san_dns(&["victim.example"])
            .self_sign(&atk_key)
            .unwrap();
        let cfg = ServerConfig::new(vec![forged]);
        w.net.listen(srv_ip(), 443, Box::new(move |_| Box::new(TlsCertServer::new(cfg.clone()))));
        w
    }

    #[test]
    fn bitdefender_blocks_forged_upstream() {
        let mut w = attacker_world();
        let pid = product_named(&w.model, "Bitdefender");
        let proxy = w.model.make_proxy(pid);
        w.net.install_interceptor(client_ip(), Box::new(proxy));
        let outcome = run_probe(&mut w, "victim.example");
        assert_eq!(
            outcome.lock().state,
            ProbeState::Failed,
            "Bitdefender must block the forged upstream"
        );
    }

    #[test]
    fn kurupira_masks_forged_upstream() {
        // THE §5.2 finding: behind Kurupira, an attacker's forged cert is
        // replaced by a cert the victim trusts — the attack disappears.
        let mut w = attacker_world();
        let pid = product_named(&w.model, "Kurupira.NET");
        let proxy = w.model.make_proxy(pid);
        w.net.install_interceptor(client_ip(), Box::new(proxy));
        let outcome = run_probe(&mut w, "victim.example");
        let o = outcome.lock();
        assert_eq!(o.state, ProbeState::Done, "Kurupira must let it through");
        let chain: Vec<Certificate> =
            o.chain_der.iter().map(|d| Certificate::from_der(d).unwrap()).collect();
        assert_eq!(chain[0].tbs.issuer.organization(), Some("Kurupira.NET"));
        // Victim (with Kurupira's root) validates it fine — the MitM is
        // fully masked.
        let profile = crate::model::ClientProfile {
            country: tlsfoe_geo::countries::by_code("US").unwrap(),
            ip: client_ip(),
            product: Some(pid),
        };
        let store = w.model.client_root_store(&profile);
        store.validate(&chain, "victim.example", w.model.now()).unwrap();
    }

    #[test]
    fn blind_products_pass_forged_upstream_through_their_mitm() {
        let mut w = attacker_world();
        let pid = product_named(&w.model, "Sendori, Inc");
        let proxy = w.model.make_proxy(pid);
        w.net.install_interceptor(client_ip(), Box::new(proxy));
        let outcome = run_probe(&mut w, "victim.example");
        assert_eq!(outcome.lock().state, ProbeState::Done);
    }

    #[test]
    fn digicert_forger_copies_live_upstream_issuer() {
        let mut w = world("tlsresearch.byu.edu");
        let pid = product_named(&w.model, "DigiCert Inc");
        let proxy = w.model.make_proxy(pid);
        w.net.install_interceptor(client_ip(), Box::new(proxy));
        let outcome = run_probe(&mut w, "tlsresearch.byu.edu");
        let leaf = Certificate::from_der(&outcome.lock().chain_der[0]).unwrap();
        // Issuer string copied from the real upstream chain.
        assert_eq!(leaf.tbs.issuer.organization(), Some("DigiCert Inc"));
        assert_eq!(leaf.tbs.issuer.common_name(), Some("DigiCert High Assurance CA-3"));
        // But the signature is the proxy's, not the real CA's.
        let real_ca_key = keys::keypair(860_000, 1024);
        assert!(leaf.verify_signature_with(&real_ca_key.public).is_err());
    }
}
