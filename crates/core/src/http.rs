//! Minimal HTTP/1.0 POST — the report-upload channel (§3, step 3).
//!
//! The Flash tool reported results "back to the server using an HTTP
//! POST request"; these conduits speak exactly enough HTTP/1.0 for that:
//! a request line, `Content-Length`, a blank line and the body.
//!
//! Requests are borrowed: [`HttpPostClient`] holds its body as a
//! [`Cow`], so an upload of bytes the process already keeps (a host's
//! stored PEM body) borrows them instead of copying, and writes its
//! request line, header and body straight into one outgoing frame;
//! [`HttpPostServer`] parses a request that arrives whole in place,
//! handing its handler a [`PostRequest`] that borrows the delivered
//! frame. Only a request split across frames is buffered.

use std::borrow::Cow;
use std::io::Write;

use tlsfoe_netsim::{Conduit, IoCtx, Shared};

/// Client conduit: POSTs `body` to `path` on open, records whether a
/// `200` came back, closes.
pub struct HttpPostClient {
    path: String,
    body: Cow<'static, [u8]>,
    ok: Shared<bool>,
    /// A partial response head, kept until its blank line arrives.
    response: Vec<u8>,
}

impl HttpPostClient {
    /// Create a POST client; `ok` is set to true on a 200 response. A
    /// `String` path and a `Vec<u8>` body are taken over, and a
    /// `&'static [u8]` body is borrowed: neither is copied until it is
    /// written into the request frame.
    pub fn new(
        path: impl Into<String>,
        body: impl Into<Cow<'static, [u8]>>,
        ok: Shared<bool>,
    ) -> Self {
        HttpPostClient { path: path.into(), body: body.into(), ok, response: Vec::new() }
    }
}

impl Conduit for HttpPostClient {
    fn on_open(&mut self, io: &mut IoCtx<'_>) {
        let (path, body) = (&self.path, &self.body);
        io.send_with(|frame| {
            // Writing to a `Vec` cannot fail.
            let _ = write!(frame, "POST {path} HTTP/1.0\r\nContent-Length: {}\r\n\r\n", body.len());
            frame.extend_from_slice(body);
        });
    }

    fn on_data(&mut self, data: &[u8], io: &mut IoCtx<'_>) {
        let head = if self.response.is_empty() && head_end(data).is_some() {
            data
        } else {
            self.response.extend_from_slice(data);
            if head_end(&self.response).is_none() {
                return;
            }
            &self.response
        };
        if head.starts_with(b"HTTP/1.0 200") || head.starts_with(b"HTTP/1.1 200") {
            *self.ok.lock() = true;
        }
        io.close();
    }
}

/// Offset just past the first blank line (`\r\n\r\n`) in `bytes`.
fn head_end(bytes: &[u8]) -> Option<usize> {
    bytes.windows(4).position(|w| w == b"\r\n\r\n").map(|at| at + 4)
}

/// A parsed POST request, borrowing the bytes it arrived in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PostRequest<'a> {
    /// Request path (with query string). The request head is read as
    /// lossy UTF-8, so this borrows unless the head is invalid UTF-8.
    pub path: Cow<'a, str>,
    /// Request body.
    pub body: &'a [u8],
}

/// Parse one complete POST request from the front of `bytes`: `None`
/// while it is incomplete, and for anything that is not a POST with a
/// `Content-Length`.
fn parse_post(bytes: &[u8]) -> Option<PostRequest<'_>> {
    let head_end = head_end(bytes)?;
    let head = bytes.get(..head_end)?;
    // Valid UTF-8 (every request this program sends) is checked once by
    // the fast validator and borrowed; only an invalid head pays the
    // lossy decode and an owned path.
    let (path, content_length) = match std::str::from_utf8(head) {
        Ok(head) => parse_head(head).map(|(path, n)| (Cow::Borrowed(path), n))?,
        Err(_) => {
            let head = String::from_utf8_lossy(head);
            parse_head(&head).map(|(path, n)| (Cow::Owned(path.to_owned()), n))?
        }
    };
    // A length past `usize::MAX` is malformed: no body can end there.
    let body_end = head_end.checked_add(content_length)?;
    // `None` while the body is incomplete.
    let body = bytes.get(head_end..body_end)?;
    Some(PostRequest { path, body })
}

/// The path and `Content-Length` of a POST request head.
fn parse_head(head: &str) -> Option<(&str, usize)> {
    let mut lines = head.lines();
    let request_line = lines.next()?;
    let mut parts = request_line.split_whitespace();
    if parts.next()? != "POST" {
        return None;
    }
    let path = parts.next()?;
    let content_length = lines
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse().ok())?;
    Some((path, content_length))
}

/// Server conduit: accumulates one POST, hands it to the handler,
/// responds `200 OK`.
pub struct HttpPostServer<F: FnMut(PostRequest<'_>)> {
    handler: F,
    /// A request split across frames, kept until it is complete.
    buf: Vec<u8>,
}

impl<F: FnMut(PostRequest<'_>)> HttpPostServer<F> {
    /// Create with a request handler.
    pub fn new(handler: F) -> Self {
        HttpPostServer { handler, buf: Vec::new() }
    }
}

impl<F: FnMut(PostRequest<'_>)> Conduit for HttpPostServer<F> {
    fn on_open(&mut self, _io: &mut IoCtx<'_>) {}

    fn on_data(&mut self, data: &[u8], io: &mut IoCtx<'_>) {
        let in_place = if self.buf.is_empty() { parse_post(data) } else { None };
        let request = match in_place {
            Some(request) => request,
            None => {
                self.buf.extend_from_slice(data);
                let Some(request) = parse_post(&self.buf) else { return };
                request
            }
        };
        (self.handler)(request);
        io.send(b"HTTP/1.0 200 OK\r\nContent-Length: 0\r\n\r\n");
        io.close();
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
        let received: Shared<Vec<(String, Vec<u8>)>> = Shared::new(Vec::new());
        net.listen(srv, 80, {
            let received = received.clone();
            Box::new(move |_| {
                let received = received.clone();
                Box::new(HttpPostServer::new(move |req| {
                    received.lock().push((req.path.into_owned(), req.body.to_vec()));
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
        assert_eq!(reqs[0].0, "/report?host=qq.com");
        assert_eq!(reqs[0].1, b"PEM DATA HERE");
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
        assert!(parse_post(b"GET / HTTP/1.0\r\n\r\n").is_none());
    }

    #[test]
    fn missing_content_length_ignored() {
        assert!(parse_post(b"POST /r HTTP/1.0\r\n\r\nbody").is_none());
    }

    #[test]
    fn incomplete_body_waits() {
        let req = b"POST /r HTTP/1.0\r\nContent-Length: 4\r\n\r\nbod";
        assert!(parse_post(req).is_none());
        let req = b"POST /r HTTP/1.0\r\nContent-Length: 4\r\n\r\nbodyextra";
        assert_eq!(parse_post(req), Some(PostRequest { path: "/r".into(), body: b"body" }));
    }

    #[test]
    fn path_borrows_unless_head_is_invalid_utf8() {
        let req = b"POST /r?host=a HTTP/1.0\r\nContent-Length: 0\r\n\r\n";
        assert!(matches!(parse_post(req).unwrap().path, Cow::Borrowed("/r?host=a")));
        let req = b"POST /r?host=\xff HTTP/1.0\r\nContent-Length: 0\r\n\r\n";
        let path = parse_post(req).unwrap().path;
        assert!(matches!(path, Cow::Owned(_)));
        assert_eq!(path, "/r?host=\u{fffd}");
    }

    #[test]
    fn overflowing_content_length_ignored() {
        // The header end plus this length does not fit in a usize.
        for len in [usize::MAX, usize::MAX - 3] {
            let req = format!("POST /r HTTP/1.0\r\nContent-Length: {len}\r\n\r\nbody");
            assert!(parse_post(req.as_bytes()).is_none(), "Content-Length: {len}");
        }
    }
}
