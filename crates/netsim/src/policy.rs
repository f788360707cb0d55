//! Flash socket-policy service (§3.1 of the paper).
//!
//! The Flash runtime refuses raw TCP connections unless the target host
//! serves a permissive "socket policy file". The paper (a) hosts its own
//! policy file on port 80 so captive portals don't break measurements,
//! and (b) selects its 17 third-party probe targets by scanning the Alexa
//! top million for hosts with permissive policies (Table 1).
//!
//! This module implements both halves: [`PolicyServer`] (the serving
//! conduit) and [`PolicyClient`] (the probing conduit), speaking the real
//! Flash policy protocol: the client sends `<policy-file-request/>\0`,
//! the server answers with an XML policy document, NUL-terminated.
//!
//! Both ends read a message that arrives whole, in one frame, where it
//! landed; only a message split across frames is buffered until its NUL
//! arrives. The server writes its reply straight into the outgoing frame.

use crate::addr::Ipv4;
use crate::conduit::{Conduit, DialError, IoCtx, Shared};
use crate::net::Network;

/// The permissive policy body the study's servers publish: any domain may
/// connect to port 443 (and 80, where the policy itself is served).
pub const SOCKET_POLICY_BODY: &str = r#"<?xml version="1.0"?>
<cross-domain-policy>
  <allow-access-from domain="*" to-ports="80,443"/>
</cross-domain-policy>"#;

/// The exact request bytes the Flash runtime emits.
pub const POLICY_REQUEST: &[u8] = b"<policy-file-request/>\0";

/// Outcome of a policy probe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolicyFetchResult {
    /// Not yet resolved.
    Pending,
    /// Host served a permissive policy covering port 443.
    Permissive,
    /// Host served a policy that does not cover port 443.
    Restrictive,
    /// Host closed without answering (or garbage).
    NoPolicy,
    /// The deadline passed with no response — a blackholed or stalled
    /// policy server. Only produced by [`fetch_policy`] with a deadline;
    /// without one the fetch would hang at `Pending` forever.
    Timeout,
}

/// Server-side conduit answering policy requests.
pub struct PolicyServer {
    /// The policy body to serve.
    body: &'static str,
    buf: Vec<u8>,
}

impl PolicyServer {
    /// A server with the study's permissive policy.
    pub fn permissive() -> Self {
        PolicyServer { body: SOCKET_POLICY_BODY, buf: Vec::new() }
    }

    /// A server with a restrictive policy (no port 443) — used to model
    /// Alexa hosts that had policies but not permissive ones.
    pub fn restrictive() -> Self {
        PolicyServer {
            body: r#"<?xml version="1.0"?>
<cross-domain-policy>
  <allow-access-from domain="self.example" to-ports="8080"/>
</cross-domain-policy>"#,
            buf: Vec::new(),
        }
    }
}

impl Conduit for PolicyServer {
    fn on_open(&mut self, _io: &mut IoCtx<'_>) {}

    fn on_data(&mut self, data: &[u8], io: &mut IoCtx<'_>) {
        let Some(request) = whole_message(&mut self.buf, data) else { return };
        if request == POLICY_REQUEST {
            let body = self.body;
            io.send_with(|frame| {
                frame.extend_from_slice(body.as_bytes());
                frame.push(0);
            });
        }
        io.close();
    }
}

/// The NUL-terminated message that `data` completes, if any. A frame
/// that arrives with nothing buffered and ends in NUL is the message
/// itself, read in place; anything else is buffered until the buffer
/// ends in NUL.
fn whole_message<'a>(buf: &'a mut Vec<u8>, data: &'a [u8]) -> Option<&'a [u8]> {
    if buf.is_empty() && data.ends_with(b"\0") {
        return Some(data);
    }
    buf.extend_from_slice(data);
    buf.ends_with(b"\0").then_some(buf.as_slice())
}

/// Client-side conduit: sends the policy request, classifies the answer
/// into the shared [`PolicyFetchResult`] slot.
pub struct PolicyClient {
    result: Shared<PolicyFetchResult>,
    /// A partial answer, kept until its NUL arrives or the server closes.
    buf: Vec<u8>,
}

impl PolicyClient {
    /// Create a client writing its outcome into `result`.
    pub fn new(result: Shared<PolicyFetchResult>) -> Self {
        PolicyClient { result, buf: Vec::new() }
    }

    /// Classify a policy document (without its NUL terminator): no
    /// `<cross-domain-policy>` element is [`PolicyFetchResult::NoPolicy`];
    /// a wildcard domain whose first `to-ports` list names 443 is
    /// [`PolicyFetchResult::Permissive`]; anything else is
    /// [`PolicyFetchResult::Restrictive`].
    ///
    /// Works on the raw bytes and gives the verdict the document's lossy
    /// UTF-8 decoding would: the markup searched for is ASCII, which
    /// that decoding keeps byte for byte, and a port entry counts as 443
    /// only if it is valid UTF-8 that trims (Unicode whitespace) to
    /// `443`, because an invalid sequence decodes to U+FFFD, which no
    /// trim removes.
    pub fn classify(doc: &[u8]) -> PolicyFetchResult {
        if find(doc, b"<cross-domain-policy>").is_none() {
            return PolicyFetchResult::NoPolicy;
        }
        // The ports list: what follows the first `to-ports="`, up to the
        // next `"` or the next `to-ports="`, whichever comes first.
        let ports = find(doc, TO_PORTS).and_then(|at| doc.get(at + TO_PORTS.len()..)).map(|rest| {
            let segment = find(rest, TO_PORTS).and_then(|end| rest.get(..end)).unwrap_or(rest);
            segment.split(|&b| b == b'"').next().unwrap_or(segment)
        });
        let permissive = find(doc, br#"domain="*""#).is_some()
            && ports.is_some_and(|ports| {
                ports
                    .split(|&b| b == b',')
                    .any(|p| std::str::from_utf8(p).is_ok_and(|p| p.trim() == "443"))
            });
        if permissive {
            PolicyFetchResult::Permissive
        } else {
            PolicyFetchResult::Restrictive
        }
    }
}

/// The attribute that opens a policy's port list.
const TO_PORTS: &[u8] = b"to-ports=\"";

/// Offset of the first occurrence of `needle` in `haystack` (0 for an
/// empty needle). Skips to each occurrence of the needle's first byte
/// and compares the rest only there, instead of comparing a whole
/// window at every offset.
fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    let Some((&first, rest)) = needle.split_first() else { return Some(0) };
    let mut from = 0;
    loop {
        let tail = haystack.get(from..)?;
        if tail.len() < needle.len() {
            return None;
        }
        let at = from + tail.iter().position(|&b| b == first)?;
        if haystack.get(at + 1..).is_some_and(|after| after.starts_with(rest)) {
            return Some(at);
        }
        from = at + 1;
    }
}

impl Conduit for PolicyClient {
    fn on_open(&mut self, io: &mut IoCtx<'_>) {
        io.send(POLICY_REQUEST);
    }

    fn on_data(&mut self, data: &[u8], io: &mut IoCtx<'_>) {
        let Some(answer) = whole_message(&mut self.buf, data) else { return };
        let doc = answer.strip_suffix(b"\0").unwrap_or(answer);
        *self.result.lock() = PolicyClient::classify(doc);
        io.close();
    }

    fn on_close(&mut self, _io: &mut IoCtx<'_>) {
        let mut r = self.result.lock();
        if *r == PolicyFetchResult::Pending {
            *r = PolicyClient::classify(&self.buf);
        }
    }
}

/// Dial a policy fetch from `client` to `server:port`, optionally with a
/// deadline. If the response has not classified by `deadline_us` of
/// virtual time, the shared result resolves to
/// [`PolicyFetchResult::Timeout`] and the stalled connection is closed —
/// without a deadline a stalled or blackholed server would leave the
/// fetch `Pending` forever.
pub fn fetch_policy(
    net: &mut Network,
    client: Ipv4,
    server: Ipv4,
    port: u16,
    deadline_us: Option<u64>,
) -> Result<Shared<PolicyFetchResult>, DialError> {
    let result = Shared::new(PolicyFetchResult::Pending);
    let tok = net.dial_from(client, server, port, Box::new(PolicyClient::new(result.clone())))?;
    if let Some(deadline) = deadline_us {
        let result = result.clone();
        net.after(deadline, move |net| {
            let mut r = result.lock();
            if *r == PolicyFetchResult::Pending {
                *r = PolicyFetchResult::Timeout;
                drop(r);
                net.close_conn(tok);
            }
        });
    }
    Ok(result)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::addr::Ipv4;
    use crate::net::{Network, NetworkConfig};

    fn fetch(server: fn() -> PolicyServer) -> PolicyFetchResult {
        let mut net = Network::new(NetworkConfig::default(), 1);
        let srv = Ipv4([203, 0, 113, 1]);
        net.listen(srv, 80, Box::new(move |_| Box::new(server())));
        let result = Shared::new(PolicyFetchResult::Pending);
        net.dial_from(
            Ipv4([198, 51, 100, 1]),
            srv,
            80,
            Box::new(PolicyClient::new(result.clone())),
        )
        .unwrap();
        net.run().unwrap();
        result.into_inner().map_err(|_| "handles outstanding").unwrap()
    }

    #[test]
    fn permissive_policy_detected() {
        assert_eq!(fetch(PolicyServer::permissive), PolicyFetchResult::Permissive);
    }

    #[test]
    fn restrictive_policy_detected() {
        assert_eq!(fetch(PolicyServer::restrictive), PolicyFetchResult::Restrictive);
    }

    #[test]
    fn no_policy_when_server_closes_silently() {
        struct Mute;
        impl Conduit for Mute {
            fn on_open(&mut self, _io: &mut IoCtx<'_>) {}
            fn on_data(&mut self, _d: &[u8], io: &mut IoCtx<'_>) {
                io.close();
            }
        }
        let mut net = Network::new(NetworkConfig::default(), 1);
        let srv = Ipv4([203, 0, 113, 1]);
        net.listen(srv, 80, Box::new(|_| Box::new(Mute)));
        let result = Shared::new(PolicyFetchResult::Pending);
        net.dial_from(
            Ipv4([198, 51, 100, 1]),
            srv,
            80,
            Box::new(PolicyClient::new(result.clone())),
        )
        .unwrap();
        net.run().unwrap();
        assert_eq!(*result.lock(), PolicyFetchResult::NoPolicy);
    }

    /// A server that accepts and then never answers (and never closes).
    struct Stonewall;
    impl Conduit for Stonewall {
        fn on_open(&mut self, _io: &mut IoCtx<'_>) {}
        fn on_data(&mut self, _d: &[u8], _io: &mut IoCtx<'_>) {}
    }

    #[test]
    fn stalled_fetch_times_out_instead_of_hanging() {
        let mut net = Network::new(NetworkConfig::default(), 1);
        let srv = Ipv4([203, 0, 113, 1]);
        net.listen(srv, 80, Box::new(|_| Box::new(Stonewall)));
        let result =
            fetch_policy(&mut net, Ipv4([198, 51, 100, 1]), srv, 80, Some(3_000_000)).unwrap();
        net.run().unwrap();
        assert_eq!(*result.lock(), PolicyFetchResult::Timeout);
        assert!(net.now_us() >= 3_000_000);
        // The stalled connection was closed by the deadline, not leaked.
        net.reap_stalled();
        assert_eq!(net.active_sides(), 0);
    }

    #[test]
    fn deadline_does_not_disturb_a_fast_answer() {
        let mut net = Network::new(NetworkConfig::default(), 1);
        let srv = Ipv4([203, 0, 113, 1]);
        net.listen(srv, 80, Box::new(|_| Box::new(PolicyServer::permissive())));
        let result =
            fetch_policy(&mut net, Ipv4([198, 51, 100, 1]), srv, 80, Some(3_000_000)).unwrap();
        net.run().unwrap();
        assert_eq!(*result.lock(), PolicyFetchResult::Permissive);
    }

    #[test]
    fn fetch_without_deadline_matches_direct_dial() {
        let mut net = Network::new(NetworkConfig::default(), 1);
        let srv = Ipv4([203, 0, 113, 1]);
        net.listen(srv, 80, Box::new(|_| Box::new(PolicyServer::restrictive())));
        let result = fetch_policy(&mut net, Ipv4([198, 51, 100, 1]), srv, 80, None).unwrap();
        net.run().unwrap();
        assert_eq!(*result.lock(), PolicyFetchResult::Restrictive);
    }

    #[test]
    fn find_agrees_with_a_window_scan() {
        use tlsfoe_crypto::drbg::{Drbg, RngCore64};
        fn reference(haystack: &[u8], needle: &[u8]) -> Option<usize> {
            haystack.windows(needle.len()).position(|w| w == needle)
        }
        /// `max_len` or fewer bytes from `alphabet`, at least `min_len`.
        fn draw(rng: &mut Drbg, alphabet: &[u8], min_len: u64, max_len: u64) -> Vec<u8> {
            let n = min_len + rng.gen_range(max_len - min_len + 1);
            (0..n).map(|_| alphabet[rng.gen_range(alphabet.len() as u64) as usize]).collect()
        }
        let mut rng = Drbg::new(0x706F_6C69);
        for round in 0..2_000 {
            // A small alphabet repeats the needle's first byte all over
            // the haystack, with near misses at every length.
            let alphabet: &[u8] = if round % 2 == 0 { b"ab" } else { b"<=\"" };
            let haystack = draw(&mut rng, alphabet, 0, 40);
            let needle = draw(&mut rng, alphabet, 1, 6);
            let cases = [
                needle.clone(),
                // At the start, at the end, and longer than the haystack.
                haystack[..needle.len().min(haystack.len())].to_vec(),
                haystack[haystack.len().saturating_sub(needle.len())..].to_vec(),
                [haystack.as_slice(), b"a"].concat(),
                // Absent: a byte the haystack never holds.
                [needle.as_slice(), b"z"].concat(),
            ];
            for needle in cases.iter().filter(|n| !n.is_empty()) {
                assert_eq!(
                    find(&haystack, needle),
                    reference(&haystack, needle),
                    "{haystack:?} / {needle:?}"
                );
            }
        }
        assert_eq!(find(b"", b"a"), None);
        assert_eq!(find(b"abc", b""), Some(0));
        assert_eq!(find(b"aab", b"ab"), Some(1));
    }

    #[test]
    fn policy_body_is_valid_for_443() {
        assert!(SOCKET_POLICY_BODY.contains("443"));
        assert!(SOCKET_POLICY_BODY.contains(r#"domain="*""#));
    }

    #[test]
    fn request_constant_is_nul_terminated() {
        assert_eq!(POLICY_REQUEST.last(), Some(&0u8));
    }
}
