//! HTTP/1.1 load generation: one thread per keep-alive connection, each
//! an open loop that writes every request at its due time (pipelining
//! behind unanswered ones) and reads responses as they arrive, waiting in
//! `ppoll(2)` in between so an idle generator leaves the cores to the
//! server.
//!
//! Each completion carries four client-side timestamps, all offsets from
//! the phase start: due, sent (last request byte written), first
//! response byte read, and last response byte read.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// Responses longer in flight than this count as timed out.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(5);

/// A finished request.
#[derive(Debug)]
pub struct Completed {
    pub tag: u64,
    pub status: u16,
    pub body: Vec<u8>,
    pub due: Duration,
    /// When the generator queued the request (due + lateness).
    pub queued: Duration,
    pub sent: Duration,
    pub first_byte: Duration,
    pub done: Duration,
}

impl Completed {
    /// Latency from the due time, in microseconds.
    pub fn latency_us(&self) -> f64 {
        self.done.saturating_sub(self.due).as_secs_f64() * 1e6
    }
}

/// Why a request got no response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Failure {
    Timeout,
    Transport,
}

/// The schedule and the sink of one connection.
pub trait Session {
    /// Due offset of the next request, or `None` when the schedule is
    /// done. Called again only after [`Session::build`] consumed it.
    fn next_due(&mut self) -> Option<Duration>;
    /// The request bytes for the due request, built at send time, and a
    /// tag echoed back on completion.
    fn build(&mut self) -> (Vec<u8>, u64);
    fn done(&mut self, c: Completed);
    fn failed(&mut self, tag: u64, due: Duration, kind: Failure);
}

struct InFlight {
    tag: u64,
    due: Duration,
    queued: Duration,
    end_offset: u64,
    sent: Option<Duration>,
    first_byte: Option<Duration>,
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
}

const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;

/// Block until `stream` is readable (or writable, if `want_write`) or
/// `timeout` passes.
fn wait(stream: &TcpStream, want_write: bool, timeout: Duration) {
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: POLLIN | if want_write { POLLOUT } else { 0 },
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: timeout.subsec_nanos() as i64,
    };
    // SAFETY: one valid pollfd, a valid timespec, and no signal mask.
    unsafe {
        ppoll(&mut fd, 1, &ts, std::ptr::null());
    }
}

pub fn resolve(addr: &str) -> io::Result<SocketAddr> {
    addr.to_socket_addrs()?
        .next()
        .ok_or_else(|| io::Error::other(format!("cannot resolve {addr}")))
}

/// Connect with a timeout, returning the stream and the time it took.
pub fn connect(addr: &SocketAddr) -> io::Result<(TcpStream, Duration)> {
    let t = Instant::now();
    let s = TcpStream::connect_timeout(addr, Duration::from_secs(2))?;
    let took = t.elapsed();
    s.set_nodelay(true)?;
    Ok((s, took))
}

/// A parsed response head: status, body length, and whether the server
/// closes the connection after it.
struct Head {
    len: usize,
    status: u16,
    body_len: usize,
    close: bool,
}

fn parse_head(buf: &[u8]) -> io::Result<Option<Head>> {
    let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let text = std::str::from_utf8(&buf[..end]).map_err(|_| io::Error::other("non-utf8 head"))?;
    let mut lines = text.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::other("bad status line"))?;
    let mut body_len = 0;
    let mut close = false;
    for line in lines {
        if let Some((k, v)) = line.split_once(':') {
            if k.eq_ignore_ascii_case("content-length") {
                body_len = v
                    .trim()
                    .parse()
                    .map_err(|_| io::Error::other("bad length"))?;
            } else if k.eq_ignore_ascii_case("connection") {
                close = v.trim().eq_ignore_ascii_case("close");
            }
        }
    }
    Ok(Some(Head {
        len: end + 4,
        status,
        body_len,
        close,
    }))
}

/// A `GET` request for `path`.
pub fn get_request(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").into_bytes()
}

/// A `POST` request with extra headers and a body.
pub fn post_request(path: &str, headers: &[(&str, &str)], body: &[u8]) -> Vec<u8> {
    let mut req = format!("POST {path} HTTP/1.1\r\nHost: bench\r\n");
    for (k, v) in headers {
        req.push_str(&format!("{k}: {v}\r\n"));
    }
    req.push_str(&format!(
        "Content-Type: text/plain\r\nContent-Length: {}\r\n\r\n",
        body.len()
    ));
    let mut bytes = req.into_bytes();
    bytes.extend_from_slice(body);
    bytes
}

/// Run one open-loop connection until the session's schedule is done and
/// every request is answered or failed. `max_in_flight` caps pipelining;
/// requests due while the cap is reached wait, and that wait shows as
/// lateness and latency.
pub fn run_open_loop(
    addr: &SocketAddr,
    start: Instant,
    session: &mut dyn Session,
    max_in_flight: usize,
) {
    let mut stream: Option<TcpStream> = None;
    let mut in_flight: std::collections::VecDeque<InFlight> = Default::default();
    let mut out: Vec<u8> = Vec::new();
    let mut written: u64 = 0;
    let mut queued_bytes: u64 = 0;
    let mut inbuf: Vec<u8> = Vec::with_capacity(1 << 16);
    let mut chunk = vec![0u8; 1 << 16];
    let mut next_due = session.next_due();

    // Fail everything in flight and drop the connection.
    let fail_all = |in_flight: &mut std::collections::VecDeque<InFlight>,
                    session: &mut dyn Session,
                    kind: Failure| {
        for f in in_flight.drain(..) {
            session.failed(f.tag, f.due, kind);
        }
    };

    loop {
        if next_due.is_none() && in_flight.is_empty() {
            break;
        }
        if stream.is_none() {
            match connect(addr) {
                Ok((s, _)) => {
                    s.set_nonblocking(true).expect("nonblocking socket");
                    stream = Some(s);
                }
                Err(_) => {
                    // Nothing can be sent: fail what is due now.
                    if let Some(due) = next_due {
                        if start.elapsed() >= due {
                            let (_, tag) = session.build();
                            session.failed(tag, due, Failure::Transport);
                            next_due = session.next_due();
                        }
                    }
                    std::thread::sleep(Duration::from_millis(10));
                    continue;
                }
            }
        }
        let s = stream.as_mut().expect("connected");
        let mut now = start.elapsed();

        // Queue every request that is due.
        while let Some(due) = next_due {
            if due > now || in_flight.len() >= max_in_flight {
                break;
            }
            let (bytes, tag) = session.build();
            out.extend_from_slice(&bytes);
            queued_bytes += bytes.len() as u64;
            in_flight.push_back(InFlight {
                tag,
                due,
                queued: now,
                end_offset: queued_bytes,
                sent: None,
                first_byte: None,
            });
            next_due = session.next_due();
        }

        // Write what the socket takes.
        let mut broken = false;
        while !out.is_empty() {
            match s.write(&out) {
                Ok(0) => {
                    broken = true;
                    break;
                }
                Ok(n) => {
                    out.drain(..n);
                    written += n as u64;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    broken = true;
                    break;
                }
            }
        }
        now = start.elapsed();
        for f in in_flight.iter_mut().filter(|f| f.sent.is_none()) {
            if f.end_offset > written {
                break;
            }
            f.sent = Some(now);
        }

        // Read what has arrived and complete whole responses.
        let mut close_after = false;
        if !broken {
            loop {
                match s.read(&mut chunk) {
                    Ok(0) => {
                        broken = true;
                        break;
                    }
                    Ok(n) => {
                        now = start.elapsed();
                        if let Some(front) = in_flight.front_mut() {
                            if front.first_byte.is_none() {
                                front.first_byte = Some(now);
                            }
                        }
                        inbuf.extend_from_slice(&chunk[..n]);
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        broken = true;
                        break;
                    }
                }
            }
            loop {
                let head = match parse_head(&inbuf) {
                    Ok(Some(h)) => h,
                    Ok(None) => break,
                    Err(_) => {
                        broken = true;
                        break;
                    }
                };
                if inbuf.len() < head.len + head.body_len {
                    break;
                }
                let body = inbuf[head.len..head.len + head.body_len].to_vec();
                inbuf.drain(..head.len + head.body_len);
                let Some(f) = in_flight.pop_front() else {
                    broken = true;
                    break;
                };
                let sent = f.sent.unwrap_or(now);
                session.done(Completed {
                    tag: f.tag,
                    status: head.status,
                    body,
                    due: f.due,
                    queued: f.queued,
                    sent,
                    first_byte: f.first_byte.unwrap_or(now),
                    done: now,
                });
                if let Some(next) = in_flight.front_mut() {
                    if !inbuf.is_empty() {
                        next.first_byte = Some(now);
                    }
                }
                if head.close {
                    close_after = true;
                    break;
                }
            }
        }

        let timed_out = in_flight
            .front()
            .is_some_and(|f| now.saturating_sub(f.queued) > REQUEST_TIMEOUT);
        if broken || close_after || timed_out {
            let kind = if timed_out {
                Failure::Timeout
            } else {
                Failure::Transport
            };
            fail_all(&mut in_flight, session, kind);
            out.clear();
            inbuf.clear();
            written = 0;
            queued_bytes = 0;
            stream = None;
            continue;
        }

        // Sleep until the next due time or socket activity.
        let wait_for = match next_due {
            Some(due) if in_flight.len() < max_in_flight => due.saturating_sub(start.elapsed()),
            _ => Duration::from_millis(50),
        };
        if !wait_for.is_zero() {
            wait(s, !out.is_empty(), wait_for);
        }
    }
}

/// A blocking keep-alive connection for control-plane requests
/// (readiness probes, scrapes, final checks).
pub struct SimpleConn {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
}

impl SimpleConn {
    pub fn new(addr: SocketAddr) -> SimpleConn {
        SimpleConn {
            addr,
            stream: None,
            buf: Vec::new(),
        }
    }

    /// Send `request` and read its response: `(status, body)`.
    pub fn send(&mut self, request: &[u8]) -> io::Result<(u16, Vec<u8>)> {
        let result = self.try_send(request);
        if result.is_err() {
            self.stream = None;
        }
        result
    }

    fn try_send(&mut self, request: &[u8]) -> io::Result<(u16, Vec<u8>)> {
        if self.stream.is_none() {
            let (s, _) = connect(&self.addr)?;
            s.set_read_timeout(Some(REQUEST_TIMEOUT))?;
            self.stream = Some(s);
            self.buf.clear();
        }
        let s = self.stream.as_mut().expect("connected");
        s.write_all(request)?;
        let mut chunk = [0u8; 1 << 14];
        loop {
            if let Some(head) = parse_head(&self.buf)? {
                if self.buf.len() >= head.len + head.body_len {
                    let body = self.buf[head.len..head.len + head.body_len].to_vec();
                    self.buf.drain(..head.len + head.body_len);
                    if head.close {
                        self.stream = None;
                    }
                    return Ok((head.status, body));
                }
            }
            let n = s.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::other("connection closed mid-response"));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }

    pub fn get(&mut self, path: &str) -> io::Result<(u16, Vec<u8>)> {
        self.send(&get_request(path))
    }
}
