//! Multi-path probing (§7: Perspectives, Convergence, DoubleCheck).
//!
//! A [`Notary`] is a set of vantage points that probe the target host
//! from *outside* the client's path. Because the study's proxies sit on
//! the client side (personal firewalls, malware, corporate gateways),
//! the notaries see the genuine certificate; disagreement with what the
//! client saw flags interception. The §7 caveat is also modelled:
//! benign certificate changes (rotations, multi-CDN certs) cause false
//! alarms, which the quorum threshold trades off.

use tlsfoe_netsim::{Ipv4, Network};
use tlsfoe_tls::probe::{ProbeOutcome, ProbeState};
use tlsfoe_tls::ProbeClient;
use tlsfoe_x509::Certificate;

/// A multi-path probing notary.
pub struct Notary {
    /// Vantage-point client addresses (assumed clean paths).
    pub vantage_points: Vec<Ipv4>,
    /// Minimum fraction of agreeing vantage points required to render a
    /// verdict (Perspectives' quorum).
    pub quorum: f64,
}

/// The notary's verdict on a client observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NotaryVerdict {
    /// Vantage points agree with the client: no MitM on client path.
    Consistent,
    /// Vantage points agree with each other but NOT with the client —
    /// a client-side MitM (the study's proxies).
    ClientPathMitm,
    /// Vantage points disagree among themselves (benign multi-cert
    /// deployments or a server-side anomaly): no confident verdict.
    Inconclusive,
}

impl Notary {
    /// A notary with `n` vantage points and the given quorum.
    pub fn new(n: usize, quorum: f64) -> Notary {
        Notary {
            vantage_points: (0..n)
                .map(|i| Ipv4([198, 18, (i / 256) as u8, (i % 256) as u8]))
                .collect(),
            quorum,
        }
    }

    /// Probe `host` at `dst` from every vantage point over `net`,
    /// returning each captured leaf (DER).
    pub fn observe(&self, net: &mut Network, dst: Ipv4, host: &str) -> Vec<Vec<u8>> {
        let outcomes: Vec<_> = self
            .vantage_points
            .iter()
            .filter_map(|&vp| {
                let outcome = ProbeOutcome::new();
                net.dial_from(
                    vp,
                    dst,
                    443,
                    Box::new(ProbeClient::new(host.to_owned(), [0x33; 32], outcome.clone())),
                )
                .ok()?;
                Some(outcome)
            })
            .collect();
        net.run().expect("bounded notary probe scenario cannot livelock");
        outcomes
            .into_iter()
            .filter_map(|o| {
                let o = o.lock();
                (o.state == ProbeState::Done).then(|| o.chain_der.first().cloned())?
            })
            .collect()
    }

    /// Compare the client's observed leaf with vantage observations.
    pub fn verdict(&self, client_leaf: &Certificate, observations: &[Vec<u8>]) -> NotaryVerdict {
        if observations.is_empty() {
            return NotaryVerdict::Inconclusive;
        }
        // Majority observation among vantage points.
        let mut counts: std::collections::HashMap<&[u8], usize> = std::collections::HashMap::new();
        for obs in observations {
            *counts.entry(obs.as_slice()).or_default() += 1;
        }
        let (majority, count) = counts
            .iter()
            .max_by_key(|(_, &c)| c)
            .map(|(k, &c)| (*k, c))
            .expect("non-empty observations");
        if (count as f64) < self.quorum * observations.len() as f64 {
            return NotaryVerdict::Inconclusive;
        }
        if majority == client_leaf.to_der() {
            NotaryVerdict::Consistent
        } else {
            NotaryVerdict::ClientPathMitm
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use tlsfoe_netsim::NetworkConfig;
    use tlsfoe_population::keys;
    use tlsfoe_tls::server::{ServerConfig, TlsCertServer};
    use tlsfoe_x509::{CertificateBuilder, NameBuilder};

    fn server_cert(host: &str, seed: u64) -> Certificate {
        let k = keys::keypair(seed, 512);
        CertificateBuilder::new()
            .subject(NameBuilder::new().common_name(host).build())
            .san_dns(&[host])
            .self_sign(&k)
            .unwrap()
    }

    fn serve(net: &mut Network, ip: Ipv4, cert: Certificate) {
        let cfg = ServerConfig::new(vec![cert]);
        net.listen(ip, 443, Box::new(move |_| Box::new(TlsCertServer::new(cfg.clone()))));
    }

    #[test]
    fn consistent_when_client_sees_genuine() {
        let mut net = Network::new(NetworkConfig::default(), 1);
        let dst = Ipv4([203, 0, 113, 40]);
        let genuine = server_cert("h.example", 700_001);
        serve(&mut net, dst, genuine.clone());
        let notary = Notary::new(5, 0.6);
        let obs = notary.observe(&mut net, dst, "h.example");
        assert_eq!(obs.len(), 5);
        assert_eq!(notary.verdict(&genuine, &obs), NotaryVerdict::Consistent);
    }

    #[test]
    fn client_path_mitm_detected() {
        let mut net = Network::new(NetworkConfig::default(), 2);
        let dst = Ipv4([203, 0, 113, 41]);
        let genuine = server_cert("h.example", 700_002);
        serve(&mut net, dst, genuine);
        let notary = Notary::new(5, 0.6);
        let obs = notary.observe(&mut net, dst, "h.example");
        // The client saw a proxy's substitute instead.
        let substitute = server_cert("h.example", 700_003);
        assert_eq!(notary.verdict(&substitute, &obs), NotaryVerdict::ClientPathMitm);
    }

    #[test]
    fn inconclusive_without_quorum() {
        let genuine = server_cert("h.example", 700_004);
        let other = server_cert("h.example", 700_005);
        let notary = Notary::new(4, 0.75);
        // Two distinct observations, 50/50 — below the 75% quorum.
        let obs = vec![
            genuine.to_der().to_vec(),
            genuine.to_der().to_vec(),
            other.to_der().to_vec(),
            other.to_der().to_vec(),
        ];
        assert_eq!(notary.verdict(&genuine, &obs), NotaryVerdict::Inconclusive);
    }

    #[test]
    fn inconclusive_with_no_observations() {
        let genuine = server_cert("h.example", 700_006);
        let notary = Notary::new(3, 0.6);
        assert_eq!(notary.verdict(&genuine, &[]), NotaryVerdict::Inconclusive);
    }

    #[test]
    fn benign_rotation_false_alarm() {
        // §7's caveat: the server rotated its certificate between the
        // client's connection and the notary probes — false alarm.
        let mut net = Network::new(NetworkConfig::default(), 3);
        let dst = Ipv4([203, 0, 113, 42]);
        let new_cert = server_cert("h.example", 700_008);
        serve(&mut net, dst, new_cert);
        let notary = Notary::new(5, 0.6);
        let obs = notary.observe(&mut net, dst, "h.example");
        let old_cert = server_cert("h.example", 700_007);
        // Client legitimately saw the OLD cert: flagged as MitM anyway.
        assert_eq!(notary.verdict(&old_cert, &obs), NotaryVerdict::ClientPathMitm);
    }
}
