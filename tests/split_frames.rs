//! A message split across frames behaves like the same message in one
//! frame.
//!
//! A study delivers every protocol message as one frame, and the policy,
//! TLS and HTTP conduits parse such a frame in place; the buffered paths
//! they keep for a message that arrives in pieces see little traffic.
//! Here a test-only sender conduit delivers each message in DRBG-chosen
//! pieces, one frame per piece, and every observable result must equal
//! the whole-frame run: the policy verdict, the POST handler's path and
//! body, the TLS server's reply, and the probe's state, captured chain
//! and typed error, for truncated and corrupted input too.

use tlsfoe::core::http::{HttpPostClient, HttpPostServer};
use tlsfoe::crypto::drbg::{Drbg, RngCore64};
use tlsfoe::crypto::RsaKeyPair;
use tlsfoe::netsim::net::ListenerFactory;
use tlsfoe::netsim::policy::{PolicyClient, PolicyFetchResult, POLICY_REQUEST};
use tlsfoe::netsim::SOCKET_POLICY_BODY;
use tlsfoe::netsim::{Conduit, IoCtx, Ipv4, Network, NetworkConfig, PolicyServer, Shared};
use tlsfoe::tls::cipher::CipherSuite;
use tlsfoe::tls::probe::{ProbeClient, ProbeError, ProbeOutcome, ProbeState};
use tlsfoe::tls::record::{encode_records, ContentType, ProtocolVersion, RecordParser};
use tlsfoe::tls::server::{ServerConfig, TlsCertServer};
use tlsfoe::x509::{Certificate, CertificateBuilder, NameBuilder};

const CLIENT: Ipv4 = Ipv4([198, 51, 100, 1]);
const SERVER: Ipv4 = Ipv4([203, 0, 113, 1]);
const PORT: u16 = 8080;

/// Cases per message kind; each runs once whole and once split.
const CASES: u64 = 48;

/// The restrictive document `PolicyServer::restrictive` serves.
const RESTRICTIVE_BODY: &str = r#"<?xml version="1.0"?>
<cross-domain-policy>
  <allow-access-from domain="self.example" to-ports="8080"/>
</cross-domain-policy>"#;

/// The pieces `message` is sent in: one frame when `cut` is `None`,
/// else DRBG-chosen pieces, an empty one now and then.
fn pieces(message: &[u8], cut: Option<u64>) -> Vec<&[u8]> {
    let Some(seed) = cut else { return vec![message] };
    let mut rng = Drbg::new(seed);
    let longest = 1 + rng.gen_range(message.len().max(1) as u64) as usize;
    let mut out = Vec::new();
    let mut rest = message;
    while !rest.is_empty() {
        let len =
            if rng.gen_range(16) == 0 { 0 } else { 1 + rng.gen_range(longest as u64) as usize };
        let (piece, tail) = rest.split_at(len.min(rest.len()));
        out.push(piece);
        rest = tail;
    }
    out
}

/// The test-only sender: delivers `message` in [`pieces`], as the dialer
/// on open or as the acceptor once the first bytes arrive, optionally
/// closes right after, and records every byte it receives.
struct Sender {
    message: Vec<u8>,
    cut: Option<u64>,
    dialer: bool,
    close_after: bool,
    sent: bool,
    got: Shared<Vec<u8>>,
}

impl Sender {
    fn new(message: Vec<u8>, cut: Option<u64>, dialer: bool, close_after: bool) -> Sender {
        Sender { message, cut, dialer, close_after, sent: false, got: Shared::new(Vec::new()) }
    }

    fn deliver(&mut self, io: &mut IoCtx<'_>) {
        if std::mem::replace(&mut self.sent, true) {
            return;
        }
        for piece in pieces(&self.message, self.cut) {
            io.send(piece);
        }
        if self.close_after {
            io.close();
        }
    }
}

impl Conduit for Sender {
    fn on_open(&mut self, io: &mut IoCtx<'_>) {
        if self.dialer {
            self.deliver(io);
        }
    }

    fn on_data(&mut self, data: &[u8], io: &mut IoCtx<'_>) {
        self.got.lock().extend_from_slice(data);
        if !self.dialer {
            self.deliver(io);
        }
    }
}

/// A listener that answers every connection with a [`Sender`] of
/// `message` in the acceptor role.
fn sender_listener(message: Vec<u8>, cut: Option<u64>, close_after: bool) -> ListenerFactory {
    Box::new(move |_| Box::new(Sender::new(message.clone(), cut, false, close_after)))
}

/// Dial `client` at a server built by `listener`, run to quiescence.
fn exchange(listener: ListenerFactory, client: Box<dyn Conduit>) {
    let mut net = Network::new(NetworkConfig::default(), 1);
    net.listen(SERVER, PORT, listener);
    net.dial_from(CLIENT, SERVER, PORT, client).expect("listener registered");
    net.run().expect("a two-party exchange cannot livelock");
}

/// What a dialing [`Sender`] receives for `message` from `listener`.
fn reply(message: &[u8], cut: Option<u64>, listener: ListenerFactory) -> Vec<u8> {
    let sender = Sender::new(message.to_vec(), cut, true, false);
    let got = sender.got.clone();
    exchange(listener, Box::new(sender));
    let reply = got.lock().clone();
    reply
}

/// `message` with one DRBG-chosen byte flipped, or cut short, or intact.
fn damage(message: &[u8], rng: &mut Drbg) -> (Vec<u8>, &'static str) {
    let mut out = message.to_vec();
    match rng.gen_range(3) {
        0 => (out, "intact"),
        1 => {
            out.truncate(rng.gen_range(message.len() as u64) as usize);
            (out, "truncated")
        }
        _ => {
            let at = rng.gen_range(message.len() as u64) as usize;
            out[at] ^= 1 + rng.gen_range(255) as u8;
            (out, "corrupted")
        }
    }
}

// ---- Policy ---------------------------------------------------------------

/// The reference policy classifier, on text: decode the document as
/// lossy UTF-8, then search the string. `PolicyClient::classify` reads
/// the bytes and must reach the same verdict on every document.
fn reference_classify(doc: &[u8]) -> PolicyFetchResult {
    let text = String::from_utf8_lossy(doc);
    if !text.contains("<cross-domain-policy>") {
        return PolicyFetchResult::NoPolicy;
    }
    // Permissive = wildcard domain AND port 443 allowed.
    let permissive = text.contains(r#"domain="*""#)
        && text
            .split("to-ports=\"")
            .nth(1)
            .and_then(|rest| rest.split('"').next())
            .is_some_and(|ports| ports.split(',').any(|p| p.trim() == "443"));
    if permissive {
        PolicyFetchResult::Permissive
    } else {
        PolicyFetchResult::Restrictive
    }
}

/// Snippets the mutator splices in: invalid UTF-8, Unicode whitespace
/// (which `str::trim` removes), a zero-width no-break space (which it
/// keeps), and the markup the classifier looks for.
const SNIPPETS: &[&[u8]] = &[
    b" ",
    b"\t",
    "\u{a0}".as_bytes(),
    "\u{2003}".as_bytes(),
    "\u{3000}".as_bytes(),
    "\u{feff}".as_bytes(),
    b"\xff",
    b"\xc3",
    b"\xe2\x80",
    b",",
    b"\"",
    b"443",
    b"to-ports=\"",
    b"domain=\"*\"",
];

/// A DRBG-mutated policy document: a permissive or restrictive seed
/// document, with 1–3 edits that flip bytes, delete ranges or splice in
/// [`SNIPPETS`], mostly right next to a `443`.
fn mutated_doc(rng: &mut Drbg) -> Vec<u8> {
    let seeds: [&[u8]; 4] = [
        SOCKET_POLICY_BODY.as_bytes(),
        RESTRICTIVE_BODY.as_bytes(),
        br#"<cross-domain-policy><allow-access-from domain="*" to-ports="80, 443 "/>"#,
        br#"<cross-domain-policy><allow-access-from domain="*" to-ports="443"/>"#,
    ];
    let mut doc = seeds[rng.gen_range(seeds.len() as u64) as usize].to_vec();
    for _ in 0..1 + rng.gen_range(3) {
        let near_443 = doc.windows(3).position(|w| w == b"443");
        let at = match near_443 {
            Some(p) if rng.gen_bool(0.6) => p + 3 * rng.gen_range(2) as usize,
            _ => rng.gen_range(doc.len() as u64 + 1) as usize,
        };
        match rng.gen_range(3) {
            0 if at < doc.len() => doc[at] = rng.next_u64() as u8,
            1 => {
                let end = (at + rng.gen_range(4) as usize).min(doc.len());
                doc.drain(at..end);
            }
            _ => {
                let snippet = SNIPPETS[rng.gen_range(SNIPPETS.len() as u64) as usize];
                doc.splice(at..at, snippet.iter().copied());
            }
        }
    }
    doc
}

#[test]
fn byte_classifier_agrees_with_the_str_reference() {
    let fixed: [(&[u8], PolicyFetchResult); 6] = [
        ("<cross-domain-policy> domain=\"*\" to-ports=\"\u{a0}443\"".as_bytes(), Permissive),
        (
            "<cross-domain-policy> domain=\"*\" to-ports=\"80,\u{3000}443\u{2003}\"".as_bytes(),
            Permissive,
        ),
        ("<cross-domain-policy> domain=\"*\" to-ports=\"\u{feff}443\"".as_bytes(), Restrictive),
        (b"<cross-domain-policy> domain=\"*\" to-ports=\"443\xff\"", Restrictive),
        (b"<cross-domain-policy> domain=\"*\" to-ports=\"443to-ports=\"80\"", Permissive),
        (b"<cross-domain\xff-policy> domain=\"*\" to-ports=\"443\"", NoPolicy),
    ];
    use PolicyFetchResult::{NoPolicy, Permissive, Restrictive};
    for (doc, want) in fixed {
        assert_eq!(reference_classify(doc), want, "{}", String::from_utf8_lossy(doc));
        assert_eq!(PolicyClient::classify(doc), want, "{}", String::from_utf8_lossy(doc));
    }
    let mut rng = Drbg::new(0x706f_6c69).fork("classify");
    let mut seen = Vec::new();
    for case in 0..4_000 {
        let doc = mutated_doc(&mut rng);
        let want = reference_classify(&doc);
        assert_eq!(
            PolicyClient::classify(&doc),
            want,
            "case {case}: {:?}",
            String::from_utf8_lossy(&doc)
        );
        let invalid = std::str::from_utf8(&doc).is_err();
        if !seen.contains(&(want.clone(), invalid)) {
            seen.push((want, invalid));
        }
    }
    // Every verdict shows up, on valid and on invalid UTF-8 alike.
    assert_eq!(seen.len(), 6, "verdicts seen: {seen:?}");
}

/// The verdict a [`PolicyClient`] reaches when the server sends `answer`
/// (then closes, if `close`) in one frame or in pieces.
fn policy_verdict(answer: &[u8], close: bool, cut: Option<u64>) -> PolicyFetchResult {
    let result = Shared::new(PolicyFetchResult::Pending);
    let listener = sender_listener(answer.to_vec(), cut, close);
    exchange(listener, Box::new(PolicyClient::new(result.clone())));
    let verdict = result.lock().clone();
    verdict
}

#[test]
fn split_policy_request_and_reply_match_whole_frames() {
    let mut rng = Drbg::new(0x706f_6c69).fork("frames");
    // The request, split on its way to the server, and a request the
    // server must not answer.
    let permissive = || -> ListenerFactory { Box::new(|_| Box::new(PolicyServer::permissive())) };
    let mut want = SOCKET_POLICY_BODY.as_bytes().to_vec();
    want.push(0);
    for case in 0..CASES {
        let cut = Some(rng.next_u64());
        assert_eq!(reply(POLICY_REQUEST, cut, permissive()), want, "case {case}");
        let bogus = b"<policy-file-request/ >\0";
        assert!(reply(bogus, cut, permissive()).is_empty(), "case {case}");
    }
    // The reply, split on its way to the client: a NUL-terminated
    // document, or one without its NUL that the server cuts off by
    // closing. A NUL inside a document would end it wherever a piece
    // happens to end, so the mutated documents carry none.
    for case in 0..CASES * 4 {
        let mut doc = mutated_doc(&mut rng);
        doc.retain(|&b| b != 0);
        let close = rng.gen_bool(0.3);
        let mut answer = doc.clone();
        if !close {
            answer.push(0);
        }
        let whole = policy_verdict(&answer, close, None);
        assert_eq!(whole, PolicyClient::classify(&doc), "case {case}");
        let split = policy_verdict(&answer, close, Some(rng.next_u64()));
        assert_eq!(split, whole, "case {case}: {:?}", String::from_utf8_lossy(&doc));
    }
}

// ---- TLS ------------------------------------------------------------------

fn chain() -> Vec<Certificate> {
    let ca = RsaKeyPair::generate(512, &mut Drbg::new(0x5350_4c49)).expect("CA key");
    let leaf_key = RsaKeyPair::generate(512, &mut Drbg::new(0x5350_4c4a)).expect("leaf key");
    let ca_name = NameBuilder::new().organization("Split CA").build();
    let ca_cert =
        CertificateBuilder::new().subject(ca_name.clone()).ca(None).self_sign(&ca).expect("CA");
    let leaf = CertificateBuilder::new()
        .issuer(ca_name)
        .subject(NameBuilder::new().common_name("split.example").build())
        .san_dns(&["split.example"])
        .sign(&leaf_key.public, &ca)
        .expect("leaf");
    vec![leaf, ca_cert]
}

/// `flight`'s handshake messages re-framed into DRBG-sized records, so
/// that messages span records as well as frames.
fn reframed(flight: &[u8], rng: &mut Drbg) -> Vec<u8> {
    let mut records = RecordParser::new();
    let mut parsed = records.parse(flight);
    let mut handshake = Vec::new();
    let mut version = ProtocolVersion::Tls10;
    while let Some(rec) = parsed.next_record().expect("served flight parses") {
        version = rec.version;
        handshake.extend_from_slice(rec.payload);
    }
    let mut out = Vec::new();
    for payload in pieces(&handshake, Some(rng.next_u64())) {
        if !payload.is_empty() {
            out.extend(encode_records(ContentType::Handshake, version, payload));
        }
    }
    out
}

/// What a probe ends with: state, version, suite, chain, capture time
/// and typed error.
type Seen = (
    ProbeState,
    Option<ProtocolVersion>,
    Option<CipherSuite>,
    Vec<Vec<u8>>,
    Option<u64>,
    Option<ProbeError>,
);

fn probe_against(flight: &[u8], close: bool, cut: Option<u64>) -> Seen {
    let outcome = ProbeOutcome::new();
    let listener = sender_listener(flight.to_vec(), cut, close);
    exchange(listener, Box::new(ProbeClient::new("split.example", [5; 32], outcome.clone())));
    let o = outcome.lock();
    (o.state, o.server_version, o.cipher_suite, o.chain_der.clone(), o.completed_at_us, o.error)
}

#[test]
fn split_hello_flight_matches_whole_frames() {
    let config = ServerConfig::new(chain());
    let served = config.hello_flight(ProtocolVersion::Tls10).to_vec();
    let ders: Vec<Vec<u8>> = config.chain.iter().map(|c| c.to_der().to_vec()).collect();
    let mut rng = Drbg::new(0x5350_4c49).fork("flight");
    let mut kinds = Vec::new();
    for case in 0..CASES * 2 {
        let flight = if rng.gen_bool(0.5) { served.clone() } else { reframed(&served, &mut rng) };
        let (flight, kind) = damage(&flight, &mut rng);
        // A damaged flight is followed by the server hanging up, so the
        // probe cannot wait forever.
        let close = kind != "intact";
        let whole = probe_against(&flight, close, None);
        if kind == "intact" {
            assert_eq!(whole.0, ProbeState::Done, "case {case}");
            assert_eq!(whole.3, ders, "case {case}");
        } else {
            assert_ne!(whole.0, ProbeState::Started, "case {case}: {kind} flight left no trace");
        }
        let split = probe_against(&flight, close, Some(rng.next_u64()));
        assert_eq!(split, whole, "case {case}: {kind} flight");
        kinds.push((kind, whole.0, whole.5));
    }
    // The damage reaches every outcome: captures, parse errors, early
    // closes.
    assert!(kinds.iter().any(|k| k.1 == ProbeState::Done && k.0 != "intact"));
    assert!(kinds.iter().any(|k| matches!(k.2, Some(ProbeError::Parse(_)))));
    assert!(kinds.iter().any(|k| k.2 == Some(ProbeError::ClosedEarly)));
}

#[test]
fn split_client_hello_matches_whole_frames() {
    let config = ServerConfig::new(chain());
    let server = || -> ListenerFactory {
        let config = config.clone();
        Box::new(move |_| Box::new(TlsCertServer::new(config.clone())))
    };
    // The probe's ClientHello, as a silent server receives it.
    let hello = Shared::new(Vec::new());
    let recorder: ListenerFactory = {
        let got = hello.clone();
        Box::new(move |_| {
            Box::new(Sender { got: got.clone(), ..Sender::new(vec![], None, false, false) })
        })
    };
    let probe = ProbeClient::new("split.example", [5; 32], ProbeOutcome::new());
    exchange(recorder, Box::new(probe));
    let hello = hello.lock().clone();
    assert_eq!(hello.first(), Some(&(ContentType::Handshake as u8)));
    let served = config.hello_flight(ProtocolVersion::Tls10).to_vec();
    let mut rng = Drbg::new(0x5350_4c49).fork("hello");
    let mut replies = Vec::new();
    for case in 0..CASES {
        let (hello, kind) = damage(&hello, &mut rng);
        let whole = reply(&hello, None, server());
        if kind == "intact" {
            assert_eq!(whole, served, "case {case}");
        }
        let split = reply(&hello, Some(rng.next_u64()), server());
        assert_eq!(split, whole, "case {case}: {kind} ClientHello");
        replies.push(whole.len());
    }
    // Flights, decode_error alerts and silence all occur.
    assert!(replies.contains(&served.len()));
    assert!(replies.contains(&7));
    assert!(replies.contains(&0));
}

// ---- HTTP -----------------------------------------------------------------

/// The handler's view of every request a POST server accepted, and the
/// bytes its client received back.
fn post(request: &[u8], cut: Option<u64>) -> (Vec<(String, Vec<u8>)>, Vec<u8>) {
    let seen = Shared::new(Vec::new());
    let listener: ListenerFactory = {
        let seen = seen.clone();
        Box::new(move |_| {
            let seen = seen.clone();
            Box::new(HttpPostServer::new(move |req| {
                seen.lock().push((req.path.into_owned(), req.body.to_vec()))
            }))
        })
    };
    let response = reply(request, cut, listener);
    let seen = seen.lock().clone();
    (seen, response)
}

#[test]
fn split_http_request_and_response_match_whole_frames() {
    let mut rng = Drbg::new(0x6874_7470).fork("post");
    let body = tlsfoe::x509::pem::encode_certificates(&chain()).into_bytes();
    let mut accepted = 0;
    for case in 0..CASES * 2 {
        // A lossy-UTF-8 path now and then, and an upload body.
        let host: &[u8] = if rng.gen_bool(0.2) { b"\xffsplit.example" } else { b"split.example" };
        let path = [b"/report?host=", host, format!("&imp={case}").as_bytes()].concat();
        let len = rng.gen_range(body.len() as u64 + 1) as usize;
        let head = format!(" HTTP/1.0\r\nContent-Length: {len}\r\n\r\n");
        let request = [b"POST ", &path[..], head.as_bytes(), &body[..len]].concat();
        let (request, kind) = damage(&request, &mut rng);
        let whole = post(&request, None);
        if kind == "intact" {
            let want = (String::from_utf8_lossy(&path).into_owned(), body[..len].to_vec());
            assert_eq!(whole.0, [want], "case {case}");
        }
        let split = post(&request, Some(rng.next_u64()));
        assert_eq!(split, whole, "case {case}: {kind} request");
        accepted += whole.0.len();
    }
    assert!(accepted > 0);
    // The response, split on its way to the client.
    for case in 0..CASES {
        let ok_line = rng.gen_bool(0.5);
        let response: &[u8] = if ok_line {
            b"HTTP/1.0 200 OK\r\nContent-Length: 0\r\n\r\n"
        } else {
            b"HTTP/1.0 500 Internal Server Error\r\nContent-Length: 0\r\n\r\n"
        };
        let mut flags = Vec::new();
        for cut in [None, Some(rng.next_u64())] {
            let ok = Shared::new(false);
            let client =
                HttpPostClient::new("/report?host=split.example", body.clone(), ok.clone());
            exchange(sender_listener(response.to_vec(), cut, false), Box::new(client));
            let ok = *ok.lock();
            flags.push(ok);
        }
        assert_eq!(flags, [ok_line, ok_line], "case {case}");
    }
}
