//! Minimal HTTP/1.0 POST — the report-upload channel (§3, step 3).
//!
//! The Flash tool reported results "back to the server using an HTTP
//! POST request"; these conduits speak exactly enough HTTP/1.0 for that:
//! a request line, `Content-Length`, a blank line and the body.

use tlsfoe_netsim::{Conduit, IoCtx, Shared};

/// Client conduit: POSTs `body` to `path` on open, records whether a
/// `200` came back, closes.
pub struct HttpPostClient {
    path: String,
    body: Vec<u8>,
    ok: Shared<bool>,
    response: Vec<u8>,
}

impl HttpPostClient {
    /// Create a POST client; `ok` is set to true on a 200 response.
    pub fn new(path: &str, body: Vec<u8>, ok: Shared<bool>) -> Self {
        HttpPostClient { path: path.to_string(), body, ok, response: Vec::new() }
    }
}

impl Conduit for HttpPostClient {
    fn on_open(&mut self, io: &mut IoCtx<'_>) {
        let mut req =
            format!("POST {} HTTP/1.0\r\nContent-Length: {}\r\n\r\n", self.path, self.body.len())
                .into_bytes();
        req.extend_from_slice(&self.body);
        io.send(&req);
    }

    fn on_data(&mut self, data: &[u8], io: &mut IoCtx<'_>) {
        self.response.extend_from_slice(data);
        if self.response.windows(4).any(|w| w == b"\r\n\r\n") {
            let line = String::from_utf8_lossy(&self.response);
            if line.starts_with("HTTP/1.0 200") || line.starts_with("HTTP/1.1 200") {
                *self.ok.lock() = true;
            }
            io.close();
        }
    }
}

/// A parsed POST request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PostRequest {
    /// Request path (with query string).
    pub path: String,
    /// Request body.
    pub body: Vec<u8>,
}

/// Server conduit: accumulates one POST, hands it to the handler,
/// responds `200 OK`.
pub struct HttpPostServer<F: FnMut(PostRequest) + Send> {
    handler: F,
    buf: Vec<u8>,
}

impl<F: FnMut(PostRequest) + Send> HttpPostServer<F> {
    /// Create with a request handler.
    pub fn new(handler: F) -> Self {
        HttpPostServer { handler, buf: Vec::new() }
    }

    fn try_parse(&mut self) -> Option<PostRequest> {
        let header_end = self.buf.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
        let header = String::from_utf8_lossy(self.buf.get(..header_end)?).into_owned();
        let mut lines = header.lines();
        let request_line = lines.next()?;
        let mut parts = request_line.split_whitespace();
        if parts.next()? != "POST" {
            return None;
        }
        let path = parts.next()?.to_string();
        let content_length: usize = lines
            .filter_map(|l| l.split_once(':'))
            .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
            .and_then(|(_, v)| v.trim().parse().ok())?;
        // A length past `usize::MAX` is malformed: no body can end there.
        let body_end = header_end.checked_add(content_length)?;
        // `None` while the body is incomplete.
        let body = self.buf.get(header_end..body_end)?.to_vec();
        Some(PostRequest { path, body })
    }
}

impl<F: FnMut(PostRequest) + Send> Conduit for HttpPostServer<F> {
    fn on_open(&mut self, _io: &mut IoCtx<'_>) {}

    fn on_data(&mut self, data: &[u8], io: &mut IoCtx<'_>) {
        self.buf.extend_from_slice(data);
        if let Some(req) = self.try_parse() {
            (self.handler)(req);
            io.send(b"HTTP/1.0 200 OK\r\nContent-Length: 0\r\n\r\n");
            io.close();
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use tlsfoe_netsim::{Ipv4, Network, NetworkConfig};

    #[test]
    fn post_roundtrip() {
        let mut net = Network::new(NetworkConfig::default(), 1);
        let srv = Ipv4([203, 0, 113, 9]);
        let received: Shared<Vec<PostRequest>> = Shared::new(Vec::new());
        net.listen(srv, 80, {
            let received = received.clone();
            Box::new(move |_| {
                let received = received.clone();
                Box::new(HttpPostServer::new(move |req| {
                    received.lock().push(req);
                }))
            })
        });
        let ok = Shared::new(false);
        net.dial_from(
            Ipv4([11, 0, 0, 1]),
            srv,
            80,
            Box::new(HttpPostClient::new(
                "/report?host=qq.com",
                b"PEM DATA HERE".to_vec(),
                ok.clone(),
            )),
        )
        .unwrap();
        net.run().unwrap();
        assert!(*ok.lock());
        let reqs = received.lock();
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].path, "/report?host=qq.com");
        assert_eq!(reqs[0].body, b"PEM DATA HERE");
    }

    #[test]
    fn large_body_spans_records() {
        let mut net = Network::new(NetworkConfig::default(), 1);
        let srv = Ipv4([203, 0, 113, 9]);
        let got_len = Shared::new(0usize);
        net.listen(srv, 80, {
            let got_len = got_len.clone();
            Box::new(move |_| {
                let got_len = got_len.clone();
                Box::new(HttpPostServer::new(move |req| {
                    *got_len.lock() = req.body.len();
                }))
            })
        });
        let ok = Shared::new(false);
        let body = vec![0x41u8; 100_000];
        net.dial_from(
            Ipv4([11, 0, 0, 1]),
            srv,
            80,
            Box::new(HttpPostClient::new("/r", body, ok.clone())),
        )
        .unwrap();
        net.run().unwrap();
        assert!(*ok.lock());
        assert_eq!(*got_len.lock(), 100_000);
    }

    #[test]
    fn non_post_ignored() {
        let mut server = HttpPostServer::new(|_| panic!("handler must not fire"));
        server.buf.extend_from_slice(b"GET / HTTP/1.0\r\n\r\n");
        assert!(server.try_parse().is_none());
    }

    #[test]
    fn missing_content_length_ignored() {
        let mut server = HttpPostServer::new(|_| ());
        server.buf.extend_from_slice(b"POST /r HTTP/1.0\r\n\r\nbody");
        assert!(server.try_parse().is_none());
    }

    #[test]
    fn overflowing_content_length_ignored() {
        // The header end plus this length does not fit in a usize.
        for len in [usize::MAX, usize::MAX - 3] {
            let mut server = HttpPostServer::new(|_| panic!("handler must not fire"));
            let req = format!("POST /r HTTP/1.0\r\nContent-Length: {len}\r\n\r\nbody");
            server.buf.extend_from_slice(req.as_bytes());
            assert!(server.try_parse().is_none(), "Content-Length: {len}");
        }
    }
}
