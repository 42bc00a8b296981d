//! Minimal HTTP/1.1 plumbing: buffered keep-alive connections with
//! nonblocking head reads and response writes for the shard readiness
//! loop, and deadline-bounded blocking body reads and writes for
//! workers, over a raw `TcpStream`.
//!
//! Only the sliver of HTTP the daemon needs is implemented — `GET`/`POST`
//! with a path, the handful of headers the serve and write planes
//! consume, `Connection: keep-alive` with request pipelining — but the
//! *failure* surface is handled in full: a peer that drips one header
//! byte per second, floods megabytes of header lines, half-closes its
//! send direction, or posts a body slower than the deadline allows must
//! never pin a thread past the configured budget. The loris budget is
//! re-armed *per request*: it is anchored at the moment the current
//! request's first byte arrives (or at accept, for the first request),
//! so a kept-alive connection gets a fresh header window for every
//! request but can never stretch a single head beyond one window.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Hard cap on request-head bytes; beyond this the peer gets a 431.
pub const MAX_HEAD_BYTES: usize = 8 * 1024;

/// The parsed request line plus the handful of headers the serve and
/// write planes consume (all other headers are read, enforced against
/// the byte budget, and discarded).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestHead {
    /// HTTP method, verbatim (`GET`, `POST`, ...).
    pub method: String,
    /// Request target with any `?query` suffix stripped.
    pub path: String,
    /// `Content-Length`, when present and numeric.
    pub content_length: Option<u64>,
    /// `Content-Type`, lower-cased.
    pub content_type: Option<String>,
    /// `Authorization`, verbatim.
    pub authorization: Option<String>,
    /// `Idempotency-Key`, verbatim.
    pub idempotency_key: Option<String>,
    /// The peer asked for the connection to be closed after this
    /// response (`Connection: close`, or HTTP/1.0 without an explicit
    /// `keep-alive`).
    pub wants_close: bool,
    /// `Accept-Encoding` listed `gzip` — the response may be served from
    /// the precompressed cache variant.
    pub accept_gzip: bool,
}

impl RequestHead {
    /// A bare head with no headers — router tests and synthetic requests.
    pub fn new(method: &str, path: &str) -> RequestHead {
        RequestHead {
            method: method.to_string(),
            path: path.to_string(),
            content_length: None,
            content_type: None,
            authorization: None,
            idempotency_key: None,
            wants_close: false,
            accept_gzip: false,
        }
    }
}

/// Why a request head could not be read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeadError {
    /// Header deadline expired before the blank line arrived
    /// (slow-loris or a stalled peer).
    TimedOut,
    /// More than [`MAX_HEAD_BYTES`] of head without a blank line
    /// (header flood).
    TooLarge,
    /// Not parseable as an HTTP/1.x request line.
    Malformed,
    /// The peer vanished before completing the head.
    ConnectionLost,
    /// A kept-alive peer closed cleanly between requests — not an error,
    /// just the end of the connection (no access line, no counter).
    Closed,
}

impl HeadError {
    /// Reason token for the access log (mirrors the supervisor's
    /// `FailureKind::as_str` naming style).
    pub fn as_str(self) -> &'static str {
        match self {
            HeadError::TimedOut => "header-timeout",
            HeadError::TooLarge => "header-flood",
            HeadError::Malformed => "malformed",
            HeadError::ConnectionLost => "connection-lost",
            HeadError::Closed => "closed",
        }
    }

    /// The status to answer with, or `None` when nobody is listening
    /// for one (the peer vanished or hung up).
    pub fn status(self) -> Option<u16> {
        match self {
            HeadError::TimedOut => Some(408),
            HeadError::TooLarge => Some(431),
            HeadError::Malformed => Some(400),
            HeadError::ConnectionLost | HeadError::Closed => None,
        }
    }
}

/// Where a nonblocking [`Conn::send`] or [`Conn::flush`] left the
/// response bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flush {
    /// Everything is on the wire and the connection stays open.
    Done,
    /// The socket is full; the rest waits for writability.
    Pending,
    /// Everything is on the wire and the response asked for the
    /// connection to close — or the write failed. Drop the `Conn`.
    Close,
}

/// One accepted connection: the socket, whatever request bytes have been
/// read but not yet consumed, and whatever response bytes have not yet
/// reached the socket. Keep-alive lives here — after a head (and body)
/// is consumed, leftover bytes are the start of the next pipelined
/// request.
///
/// A connection is nonblocking while its shard's readiness loop owns it
/// ([`Conn::read_ready`], [`Conn::next_head`], [`Conn::send`],
/// [`Conn::flush`]) and blocking while a worker owns it
/// ([`Conn::read_body`], [`Conn::write_response`]).
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    out: Vec<u8>,
    /// Bytes of `out` already written.
    written: usize,
    /// The response in `out` closes the connection once written.
    close_after: bool,
    /// When the connection was accepted.
    pub accepted: Instant,
    /// Requests fully answered on this connection so far.
    pub served: u64,
    /// When the connection's current window opened. Reading a head: the
    /// header deadline is `anchor + header_timeout`, opened at accept for
    /// the first request, then whenever a new request starts arriving
    /// (first byte into an empty buffer, or a pipelined head already
    /// waiting when the previous one was parsed). Idle between requests:
    /// the keep-alive clock. Writing: the write clock.
    anchor: Instant,
}

impl Conn {
    /// Wrap a freshly accepted stream.
    pub fn new(stream: TcpStream) -> Conn {
        let now = Instant::now();
        Conn {
            stream,
            buf: Vec::new(),
            out: Vec::new(),
            written: 0,
            close_after: false,
            accepted: now,
            served: 0,
            anchor: now,
        }
    }

    /// The underlying socket (peer address, raw fd for the poll set).
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// Switch the socket between the loop's nonblocking I/O and a
    /// worker's blocking, timeout-bounded I/O.
    pub fn set_blocking(&self, blocking: bool) -> io::Result<()> {
        self.stream.set_nonblocking(!blocking)
    }

    /// Between requests: nothing buffered either way, and at least one
    /// request answered. Such a connection is parked on the keep-alive
    /// clock rather than the header clock.
    pub fn is_idle(&self) -> bool {
        self.served > 0 && self.buf.is_empty() && !self.has_pending_output()
    }

    /// Response bytes are still waiting for the socket.
    pub fn has_pending_output(&self) -> bool {
        self.written < self.out.len()
    }

    /// Re-open the connection's window from now (after a response went
    /// out, or when a worker hands the connection back).
    pub fn rearm(&mut self) {
        self.anchor = Instant::now();
    }

    /// When the current request's budget opened: accept time for the
    /// first request, the start of the request window after that.
    pub fn request_started(&self) -> Instant {
        if self.served == 0 {
            self.accepted
        } else {
            self.anchor
        }
    }

    /// When the connection's current window runs out: the write window
    /// while output is pending, the keep-alive window while idle, the
    /// header window otherwise.
    pub fn deadline(&self, header: Duration, keepalive: Duration, write: Duration) -> Instant {
        let window = if self.has_pending_output() {
            write
        } else if self.is_idle() {
            keepalive
        } else {
            header
        };
        self.anchor + window
    }

    /// Append freshly read bytes, re-arming the anchor when they open a
    /// new request window (first bytes after an empty buffer).
    fn fill(&mut self, bytes: &[u8]) {
        if self.buf.is_empty() {
            self.anchor = Instant::now();
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Read whatever the nonblocking socket holds, stopping once a
    /// complete head (or the 431 cap) is buffered. Returns `false` once
    /// the peer has closed its send side or the read failed; bytes read
    /// before that stay buffered for [`Conn::next_head`].
    pub fn read_ready(&mut self) -> bool {
        let mut chunk = [0u8; 4096];
        while find_head_end(&self.buf).is_none() && self.buf.len() < MAX_HEAD_BYTES {
            match self.stream.read(&mut chunk) {
                Ok(0) => return false,
                Ok(n) => self.fill(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        true
    }

    /// Take the next buffered request head without touching the socket:
    /// `None` while no complete head is buffered, the head once it is,
    /// or the verdict on one that can never parse. Consumed bytes are
    /// drained; anything past the blank line (a body, or the next
    /// pipelined request) stays buffered.
    pub fn next_head(&mut self) -> Option<Result<RequestHead, HeadError>> {
        let Some(head_end) = find_head_end(&self.buf) else {
            return (self.buf.len() >= MAX_HEAD_BYTES).then_some(Err(HeadError::TooLarge));
        };
        let head = parse_head(&self.buf[..head_end]);
        self.buf.drain(..head_end);
        if !self.buf.is_empty() {
            // The next pipelined request is already here; its window
            // opens when this parse completes, not when its bytes
            // happened to arrive behind a busy server.
            self.anchor = Instant::now();
        }
        Some(head)
    }

    /// Serialise `resp` and write as much of it as the nonblocking
    /// socket takes now; the rest waits for [`Conn::flush`]. `close`
    /// selects the `Connection:` header and what [`Flush`] reports once
    /// the bytes are out.
    pub fn send(&mut self, resp: &Response, close: bool) -> Flush {
        self.encode(resp, close);
        let flushed = self.flush();
        if flushed == Flush::Pending {
            self.anchor = Instant::now();
        }
        flushed
    }

    /// Write pending response bytes until done or the socket is full.
    pub fn flush(&mut self) -> Flush {
        while self.has_pending_output() {
            match self.stream.write(&self.out[self.written..]) {
                Ok(0) => return Flush::Close,
                Ok(n) => self.written += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Flush::Pending,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return Flush::Close,
            }
        }
        if self.close_after {
            Flush::Close
        } else {
            Flush::Done
        }
    }

    /// Read exactly `Content-Length` body bytes, starting from whatever
    /// is already buffered, giving up at `deadline`. The socket read
    /// timeout is re-armed to the *remaining* budget before every read,
    /// so a client dripping body bytes cannot hold the thread past the
    /// deadline.
    pub fn read_body(
        &mut self,
        head: &RequestHead,
        max_bytes: u64,
        deadline: Instant,
    ) -> Result<Vec<u8>, BodyError> {
        let len = head.content_length.ok_or(BodyError::LengthRequired)?;
        if len > max_bytes {
            return Err(BodyError::TooLarge);
        }
        let len = len as usize;
        let take = self.buf.len().min(len);
        let mut body: Vec<u8> = self.buf.drain(..take).collect();
        body.reserve(len.saturating_sub(body.len()));
        if !self.buf.is_empty() {
            // Pipelined bytes beyond this body: the next request's
            // window opens once this body is complete.
            self.anchor = Instant::now();
        }
        let mut chunk = [0u8; 4096];
        while body.len() < len {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(BodyError::TimedOut);
            }
            if self
                .stream
                .set_read_timeout(Some(remaining.max(Duration::from_millis(1))))
                .is_err()
            {
                return Err(BodyError::ConnectionLost);
            }
            let want = (len - body.len()).min(chunk.len());
            match self.stream.read(&mut chunk[..want]) {
                Ok(0) => return Err(BodyError::ConnectionLost),
                Ok(n) => body.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Err(BodyError::TimedOut),
                Err(e) if e.kind() == io::ErrorKind::TimedOut => return Err(BodyError::TimedOut),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return Err(BodyError::ConnectionLost),
            }
        }
        Ok(body)
    }

    /// Serialise `resp` onto the blocking socket with a write timeout.
    /// `close` selects the `Connection:` header; the caller drops the
    /// `Conn` to actually close. Write errors are returned but callers
    /// generally ignore them beyond closing: a peer that hung up before
    /// its response is its own problem.
    pub fn write_response(
        &mut self,
        resp: &Response,
        timeout: Duration,
        close: bool,
    ) -> io::Result<()> {
        self.stream.set_write_timeout(Some(timeout))?;
        self.encode(resp, close);
        let result = self.stream.write_all(&self.out[self.written..]);
        self.written = self.out.len();
        result
    }

    /// Append `resp` to the output buffer. Every response carries an
    /// explicit `Content-Length` and a `Connection:` verdict, so a
    /// keep-alive peer can frame the next response without sniffing.
    fn encode(&mut self, resp: &Response, close: bool) {
        if !self.has_pending_output() {
            self.out.clear();
            self.written = 0;
        }
        self.close_after = close;
        let _ = write!(
            self.out,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
            resp.status,
            reason_phrase(resp.status),
            resp.content_type,
            resp.body.len(),
            if close { "close" } else { "keep-alive" },
        );
        if let Some(encoding) = resp.content_encoding {
            let _ = write!(self.out, "Content-Encoding: {encoding}\r\n");
        }
        if let Some(secs) = resp.retry_after {
            let _ = write!(self.out, "Retry-After: {secs}\r\n");
        }
        self.out.extend_from_slice(b"\r\n");
        self.out.extend_from_slice(resp.body.as_slice());
    }
}

/// Byte offset just past the request line's terminating CRLF once the
/// full head (`\r\n\r\n`) has arrived.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4)
}

fn parse_head(head: &[u8]) -> Result<RequestHead, HeadError> {
    let text = std::str::from_utf8(head).map_err(|_| HeadError::Malformed)?;
    let mut lines = text.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let method = parts.next().filter(|m| !m.is_empty());
    let target = parts.next();
    let version = parts.next();
    let (mut out, http10) = match (method, target, version) {
        (Some(method), Some(target), Some(version)) if version.starts_with("HTTP/1") => {
            let path = target.split('?').next().unwrap_or(target);
            (RequestHead::new(method, path), version == "HTTP/1.0")
        }
        _ => return Err(HeadError::Malformed),
    };
    let mut keep_alive_token = false;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            out.content_length = value.parse().ok();
        } else if name.eq_ignore_ascii_case("content-type") {
            out.content_type = Some(value.to_ascii_lowercase());
        } else if name.eq_ignore_ascii_case("authorization") {
            out.authorization = Some(value.to_string());
        } else if name.eq_ignore_ascii_case("idempotency-key") {
            out.idempotency_key = Some(value.to_string());
        } else if name.eq_ignore_ascii_case("connection") {
            for token in value.split(',') {
                let token = token.trim();
                if token.eq_ignore_ascii_case("close") {
                    out.wants_close = true;
                } else if token.eq_ignore_ascii_case("keep-alive") {
                    keep_alive_token = true;
                }
            }
        } else if name.eq_ignore_ascii_case("accept-encoding") {
            out.accept_gzip |= value
                .split(',')
                .map(|t| t.trim())
                .map(|t| t.split(';').next().unwrap_or(t).trim())
                .any(|t| t.eq_ignore_ascii_case("gzip"));
        }
    }
    // HTTP/1.0 defaults to close unless the peer opts in.
    if http10 && !keep_alive_token {
        out.wants_close = true;
    }
    Ok(out)
}

/// Why a request body could not be read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BodyError {
    /// No (or unparseable) `Content-Length` — the daemon does not accept
    /// chunked bodies.
    LengthRequired,
    /// Declared length exceeds the configured cap.
    TooLarge,
    /// The deadline expired with body bytes still outstanding.
    TimedOut,
    /// The peer vanished mid-body.
    ConnectionLost,
}

impl BodyError {
    /// Reason token for the access log.
    pub fn as_str(self) -> &'static str {
        match self {
            BodyError::LengthRequired => "length-required",
            BodyError::TooLarge => "body-too-large",
            BodyError::TimedOut => "body-timeout",
            BodyError::ConnectionLost => "connection-lost",
        }
    }
}

/// A response body: owned bytes for one-off answers, or a shared slice
/// out of the hot-day response cache (pre-rendered CSV and its
/// precompressed gzip twin are `Arc`s cloned per response — zero copies
/// on the cache hit path).
#[derive(Debug, Clone)]
pub enum Body {
    /// Freshly rendered for this request.
    Owned(Vec<u8>),
    /// Served out of the response cache.
    Shared(Arc<Vec<u8>>),
}

impl Body {
    /// The bytes to put on the wire.
    pub fn as_slice(&self) -> &[u8] {
        match self {
            Body::Owned(v) => v,
            Body::Shared(v) => v,
        }
    }

    /// Body length in bytes.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// True when the body is empty.
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// Owned copy (clones only for `Shared`).
    pub fn into_vec(self) -> Vec<u8> {
        match self {
            Body::Owned(v) => v,
            Body::Shared(v) => Arc::try_unwrap(v).unwrap_or_else(|v| (*v).clone()),
        }
    }
}

impl From<Vec<u8>> for Body {
    fn from(v: Vec<u8>) -> Body {
        Body::Owned(v)
    }
}

/// A response ready to serialise.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: Body,
    /// Optional `Retry-After` (seconds) — set on load-shed 503s so
    /// well-behaved clients back off instead of hammering.
    pub retry_after: Option<u32>,
    /// `Content-Encoding` header, when the body is precompressed
    /// (`Some("gzip")` for cache hits negotiated via `Accept-Encoding`).
    pub content_encoding: Option<&'static str>,
}

impl Response {
    /// Plain-text response.
    pub fn text(status: u16, body: &str) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: Body::Owned(body.as_bytes().to_vec()),
            retry_after: None,
            content_encoding: None,
        }
    }

    /// CSV response.
    pub fn csv(body: String) -> Response {
        Response {
            status: 200,
            content_type: "text/csv; charset=utf-8",
            body: Body::Owned(body.into_bytes()),
            retry_after: None,
            content_encoding: None,
        }
    }

    /// Single-line JSON response.
    pub fn json(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "application/json",
            body: Body::Owned(body.into_bytes()),
            retry_after: None,
            content_encoding: None,
        }
    }

    /// A 200 straight out of the response cache: a shared pre-rendered
    /// body, optionally the precompressed gzip variant.
    pub fn cached(content_type: &'static str, body: Arc<Vec<u8>>, gzip: bool) -> Response {
        Response {
            status: 200,
            content_type,
            body: Body::Shared(body),
            retry_after: None,
            content_encoding: gzip.then_some("gzip"),
        }
    }

    /// Load-shed 503 with a `Retry-After` hint.
    pub fn shed(reason: &str) -> Response {
        Response {
            status: 503,
            content_type: "text/plain; charset=utf-8",
            body: Body::Owned(format!("overloaded: {reason}\n").into_bytes()),
            retry_after: Some(1),
            content_encoding: None,
        }
    }
}

fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        401 => "Unauthorized",
        403 => "Forbidden",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        411 => "Length Required",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Pre-serialised 503 for the accept path: when a shard already holds
/// `accept_backlog` connections without a complete head, the readiness
/// loop writes this to the newcomer without reading a single byte.
pub const RAW_SHED_503: &[u8] = b"HTTP/1.1 503 Service Unavailable\r\n\
Content-Type: text/plain; charset=utf-8\r\nContent-Length: 19\r\n\
Retry-After: 1\r\nConnection: close\r\n\r\noverloaded: accept\n";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_request_line_and_strips_query() {
        let head = parse_head(b"GET /v1/metrics/12?x=1 HTTP/1.1\r\nHost: a\r\n").unwrap();
        assert_eq!(head.method, "GET");
        assert_eq!(head.path, "/v1/metrics/12");
        assert!(parse_head(b"garbage").is_err());
        assert!(parse_head(b"GET /x SPDY/3\r\n").is_err());
        assert!(parse_head(b"GET\r\n").is_err());
    }

    #[test]
    fn parses_write_plane_headers_case_insensitively() {
        let head = parse_head(
            b"POST /v1/events HTTP/1.1\r\n\
              content-length: 42\r\n\
              CONTENT-TYPE: Application/JSON\r\n\
              Authorization: Bearer s3cret\r\n\
              idempotency-KEY: batch-9\r\n",
        )
        .unwrap();
        assert_eq!(head.method, "POST");
        assert_eq!(head.content_length, Some(42));
        assert_eq!(head.content_type.as_deref(), Some("application/json"));
        assert_eq!(head.authorization.as_deref(), Some("Bearer s3cret"));
        assert_eq!(head.idempotency_key.as_deref(), Some("batch-9"));
        // Absent headers stay None.
        let bare = parse_head(b"GET / HTTP/1.1\r\nHost: x\r\n").unwrap();
        assert_eq!(bare.content_length, None);
        assert_eq!(bare.authorization, None);
    }

    #[test]
    fn connection_and_encoding_negotiation() {
        // HTTP/1.1 defaults to keep-alive.
        let h = parse_head(b"GET / HTTP/1.1\r\nHost: x\r\n").unwrap();
        assert!(!h.wants_close);
        assert!(!h.accept_gzip);
        let h = parse_head(b"GET / HTTP/1.1\r\nConnection: Close\r\n").unwrap();
        assert!(h.wants_close);
        let h = parse_head(b"GET / HTTP/1.1\r\nConnection: upgrade, close\r\n").unwrap();
        assert!(h.wants_close);
        // HTTP/1.0 defaults to close unless the peer opts in.
        let h = parse_head(b"GET / HTTP/1.0\r\nHost: x\r\n").unwrap();
        assert!(h.wants_close);
        let h = parse_head(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n").unwrap();
        assert!(!h.wants_close);
        // Accept-Encoding token parsing, with q-values and noise.
        let h = parse_head(b"GET / HTTP/1.1\r\nAccept-Encoding: GZIP\r\n").unwrap();
        assert!(h.accept_gzip);
        let h = parse_head(b"GET / HTTP/1.1\r\nAccept-Encoding: br, gzip;q=0.8\r\n").unwrap();
        assert!(h.accept_gzip);
        let h = parse_head(b"GET / HTTP/1.1\r\nAccept-Encoding: gzipped\r\n").unwrap();
        assert!(!h.accept_gzip);
    }

    #[test]
    fn body_error_reasons_are_stable() {
        assert_eq!(BodyError::LengthRequired.as_str(), "length-required");
        assert_eq!(BodyError::TooLarge.as_str(), "body-too-large");
        assert_eq!(BodyError::TimedOut.as_str(), "body-timeout");
        assert_eq!(BodyError::ConnectionLost.as_str(), "connection-lost");
    }

    #[test]
    fn raw_shed_content_length_matches_body() {
        let text = std::str::from_utf8(RAW_SHED_503).unwrap();
        let body = text.split("\r\n\r\n").nth(1).unwrap();
        let len: usize = text
            .split("Content-Length: ")
            .nth(1)
            .unwrap()
            .split("\r\n")
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert_eq!(body.len(), len);
    }

    #[test]
    fn head_error_reasons_are_stable() {
        assert_eq!(HeadError::TimedOut.as_str(), "header-timeout");
        assert_eq!(HeadError::TooLarge.as_str(), "header-flood");
        assert_eq!(HeadError::Malformed.as_str(), "malformed");
        assert_eq!(HeadError::ConnectionLost.as_str(), "connection-lost");
        assert_eq!(HeadError::Closed.as_str(), "closed");
    }

    /// A loop-side connection and the client talking to it.
    fn conn_pair() -> (Conn, TcpStream) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let conn = Conn::new(listener.accept().unwrap().0);
        conn.set_blocking(false).unwrap();
        (conn, client)
    }

    /// Read until `want` heads are parsed, one is refused, or the peer
    /// closes.
    fn heads(conn: &mut Conn, want: usize) -> (Vec<Result<RequestHead, HeadError>>, bool) {
        let (mut out, mut open) = (Vec::new(), true);
        let deadline = Instant::now() + Duration::from_secs(5);
        while out.len() < want && open && Instant::now() < deadline {
            open = conn.read_ready();
            while let Some(head) = conn.next_head() {
                let refused = head.is_err();
                out.push(head);
                if refused {
                    return (out, open);
                }
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        (out, open)
    }

    #[test]
    fn nonblocking_reads_split_pipelined_heads_and_keep_the_rest() {
        let (mut conn, mut client) = conn_pair();
        assert!(conn.read_ready(), "nothing sent yet: still open");
        assert!(conn.next_head().is_none());
        client
            .write_all(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\nGET /c HTT")
            .unwrap();
        let (got, open) = heads(&mut conn, 2);
        assert!(open);
        let paths: Vec<String> = got.into_iter().map(|h| h.unwrap().path).collect();
        assert_eq!(paths, ["/a", "/b"]);
        // The partial third head stays buffered on the header clock.
        assert!(conn.next_head().is_none());
        assert!(!conn.is_idle());
        let window = Duration::from_secs(2);
        let deadline = conn.deadline(window, Duration::from_secs(60), Duration::from_secs(60));
        assert!(deadline <= Instant::now() + window);

        // The peer hangs up mid-head: the tail is reported, then EOF.
        client.write_all(b"P/1.1\r\n\r\n").unwrap();
        drop(client);
        let (got, _) = heads(&mut conn, 1);
        assert_eq!(got[0].as_ref().unwrap().path, "/c");
        let (_, open) = heads(&mut conn, 1);
        assert!(!open, "EOF must be reported");
    }

    #[test]
    fn an_endless_head_is_refused_at_the_cap() {
        let (mut conn, mut client) = conn_pair();
        client.write_all(&vec![b'a'; MAX_HEAD_BYTES + 10]).unwrap();
        let (got, _) = heads(&mut conn, 1);
        assert_eq!(got, [Err(HeadError::TooLarge)]);
    }

    #[test]
    fn nonblocking_send_frames_the_response_and_honours_close() {
        let (mut conn, mut client) = conn_pair();
        conn.served = 1;
        assert!(conn.is_idle());
        assert_eq!(conn.send(&Response::text(200, "ok\n"), false), Flush::Done);
        assert!(!conn.has_pending_output());
        assert_eq!(conn.send(&Response::shed("queue-full"), true), Flush::Close);
        drop(conn);
        let mut wire = String::new();
        client.read_to_string(&mut wire).unwrap();
        assert!(wire.starts_with("HTTP/1.1 200 OK\r\n"), "{wire}");
        assert!(wire.contains("Connection: keep-alive\r\n"));
        let second = &wire[wire.find("HTTP/1.1 503").expect("second response")..];
        assert!(second.contains("Connection: close\r\n"));
        assert!(second.contains("Retry-After: 1\r\n"));
        assert!(second.ends_with("overloaded: queue-full\n"));
    }

    #[test]
    fn shared_bodies_expose_the_same_bytes() {
        let shared = Arc::new(b"day,value\n1,2\n".to_vec());
        let resp = Response::cached("text/csv; charset=utf-8", Arc::clone(&shared), true);
        assert_eq!(resp.body.as_slice(), shared.as_slice());
        assert_eq!(resp.content_encoding, Some("gzip"));
        assert_eq!(resp.body.clone().into_vec(), *shared);
        let owned: Body = b"x".to_vec().into();
        assert_eq!(owned.len(), 1);
        assert!(!owned.is_empty());
    }
}
