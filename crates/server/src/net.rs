//! Raw-libc socket plumbing for the serve plane: `SO_REUSEPORT`
//! listener binding for the per-shard listeners, and the `poll(2)` wait
//! each shard's readiness loop blocks in.
//!
//! Declared by hand in the same style as the CLI's signal FFI — the
//! workspace takes no libc crate dependency, and the daemon only needs
//! two calls beyond what `std::net` offers: a socket option `std` does
//! not expose, and a multi-fd readiness wait. Linux is the only
//! supported target (the constants below are Linux values): with more
//! than one shard, a failed `SO_REUSEPORT` bind is a startup error.

use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::os::fd::{FromRawFd, RawFd};
use std::time::Duration;

const AF_INET: i32 = 2;
const AF_INET6: i32 = 10;
const SOCK_STREAM: i32 = 1;
const SOCK_CLOEXEC: i32 = 0x80000;
const SOL_SOCKET: i32 = 1;
const SO_REUSEADDR: i32 = 2;
const SO_REUSEPORT: i32 = 15;
const SOMAXCONN: i32 = 128;

/// Readable (or, on a listener, a connection is waiting).
pub const POLLIN: i16 = 0x001;
/// Writable without blocking.
pub const POLLOUT: i16 = 0x004;

/// One `struct pollfd`. A negative `fd` is skipped by the kernel, which
/// is how a slot is kept in place while switched off. Errors and
/// hang-ups are reported whatever `events` asked for; the caller finds
/// out which by attempting the I/O.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

impl PollFd {
    /// Ask for `events` on `fd`.
    pub fn new(fd: RawFd, events: i16) -> PollFd {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }

    /// What the last [`poll`] reported for this fd.
    pub fn revents(&self) -> i16 {
        self.revents
    }
}

#[repr(C)]
struct SockAddrIn {
    sin_family: u16,
    sin_port: u16,
    sin_addr: u32,
    sin_zero: [u8; 8],
}

#[repr(C)]
struct SockAddrIn6 {
    sin6_family: u16,
    sin6_port: u16,
    sin6_flowinfo: u32,
    sin6_addr: [u8; 16],
    sin6_scope_id: u32,
}

extern "C" {
    fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
    fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
    fn bind(fd: i32, addr: *const u8, len: u32) -> i32;
    fn listen(fd: i32, backlog: i32) -> i32;
    fn close(fd: i32) -> i32;
    #[link_name = "poll"]
    fn sys_poll(fds: *mut PollFd, nfds: u64, timeout_ms: i32) -> i32;
}

/// Bind one nonblocking listener per shard on `addr`. A single shard
/// binds plainly; more shards bind `SO_REUSEPORT` siblings so the
/// kernel spreads connections across them, and any failure there fails
/// startup. Returns the listeners and the resolved local address (port 0
/// is resolved by the first bind and reused by the rest).
pub fn bind_shard_listeners(
    addr: &str,
    shards: usize,
) -> io::Result<(Vec<TcpListener>, SocketAddr)> {
    if shards <= 1 {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        return Ok((vec![listener], local));
    }
    let requested = addr.to_socket_addrs()?.next().ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidInput, format!("{addr}: no address"))
    })?;
    let reuseport = |a: &SocketAddr| {
        bind_reuseport(a)
            .map_err(|e| io::Error::new(e.kind(), format!("SO_REUSEPORT bind {a}: {e}")))
    };
    let first = reuseport(&requested)?;
    first.set_nonblocking(true)?;
    let local = first.local_addr()?;
    let mut listeners = vec![first];
    for _ in 1..shards {
        let l = reuseport(&local)?;
        l.set_nonblocking(true)?;
        listeners.push(l);
    }
    Ok((listeners, local))
}

fn last_error(fd: i32) -> io::Error {
    let err = io::Error::last_os_error();
    if fd >= 0 {
        // SAFETY: `fd` is a socket this module opened and still owns;
        // nothing else holds or closes it.
        unsafe { close(fd) };
    }
    err
}

/// Bind a `SOCK_STREAM` listener with `SO_REUSEADDR | SO_REUSEPORT`
/// set before `bind`, so sibling shards can share the port.
pub fn bind_reuseport(addr: &SocketAddr) -> io::Result<TcpListener> {
    let domain = match addr {
        SocketAddr::V4(_) => AF_INET,
        SocketAddr::V6(_) => AF_INET6,
    };
    // SAFETY: plain integer arguments; the result is checked below.
    let fd = unsafe { socket(domain, SOCK_STREAM | SOCK_CLOEXEC, 0) };
    if fd < 0 {
        return Err(io::Error::last_os_error());
    }
    let one: i32 = 1;
    for opt in [SO_REUSEADDR, SO_REUSEPORT] {
        // SAFETY: `one` is a live `i32` and the length passed is its size.
        let rc =
            unsafe { setsockopt(fd, SOL_SOCKET, opt, &one, std::mem::size_of::<i32>() as u32) };
        if rc != 0 {
            return Err(last_error(fd));
        }
    }
    let rc = match addr {
        SocketAddr::V4(v4) => {
            let sa = SockAddrIn {
                sin_family: AF_INET as u16,
                sin_port: v4.port().to_be(),
                sin_addr: u32::from_ne_bytes(v4.ip().octets()),
                sin_zero: [0; 8],
            };
            // SAFETY: `sa` is a live `sockaddr_in` and the length passed
            // is its size.
            unsafe {
                bind(
                    fd,
                    (&sa as *const SockAddrIn).cast(),
                    std::mem::size_of::<SockAddrIn>() as u32,
                )
            }
        }
        SocketAddr::V6(v6) => {
            let sa = SockAddrIn6 {
                sin6_family: AF_INET6 as u16,
                sin6_port: v6.port().to_be(),
                sin6_flowinfo: v6.flowinfo(),
                sin6_addr: v6.ip().octets(),
                sin6_scope_id: v6.scope_id(),
            };
            // SAFETY: `sa` is a live `sockaddr_in6` and the length passed
            // is its size.
            unsafe {
                bind(
                    fd,
                    (&sa as *const SockAddrIn6).cast(),
                    std::mem::size_of::<SockAddrIn6>() as u32,
                )
            }
        }
    };
    if rc != 0 {
        return Err(last_error(fd));
    }
    // SAFETY: `fd` is the bound socket opened above.
    if unsafe { listen(fd, SOMAXCONN) } != 0 {
        return Err(last_error(fd));
    }
    // SAFETY: `fd` is an open, listening socket owned by nothing else;
    // the `TcpListener` takes over closing it.
    Ok(unsafe { TcpListener::from_raw_fd(fd) })
}

/// One `poll(2)` wait over `fds`, up to `timeout` (`None` = until
/// something is ready). The wait is rounded *up* to whole milliseconds,
/// so a caller waking for a deadline never wakes just short of it and
/// spins. Returns the number of fds with events; an interrupted wait
/// reports zero.
pub fn poll(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
    let timeout_ms = match timeout {
        None => -1,
        Some(t) => t.as_micros().div_ceil(1000).min(i32::MAX as u128) as i32,
    };
    // SAFETY: `PollFd` is `#[repr(C)]` with `struct pollfd`'s layout,
    // and the pointer and count describe the live, exclusively borrowed
    // slice.
    let rc = unsafe { sys_poll(fds.as_mut_ptr(), fds.len() as u64, timeout_ms) };
    if rc < 0 {
        let err = io::Error::last_os_error();
        if err.kind() == io::ErrorKind::Interrupted {
            return Ok(0);
        }
        return Err(err);
    }
    Ok(rc as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::os::fd::AsRawFd;

    #[test]
    fn reuseport_siblings_share_one_port_and_both_accept() {
        let (listeners, local) = bind_shard_listeners("127.0.0.1:0", 2).unwrap();
        assert_eq!(listeners.len(), 2);
        assert_ne!(local.port(), 0);
        for l in &listeners {
            assert_eq!(l.local_addr().unwrap().port(), local.port());
        }
        // The kernel picks the accepting listener per connection; drive
        // enough connections that the test holds whichever way it hashes.
        let stop = std::sync::atomic::AtomicBool::new(false);
        let served = std::thread::scope(|s| {
            let mut handles = Vec::new();
            for l in &listeners {
                let stop = &stop;
                handles.push(s.spawn(move || {
                    let mut served = 0;
                    while !stop.load(std::sync::atomic::Ordering::Acquire) {
                        match l.accept() {
                            Ok((mut stream, _)) => {
                                stream.set_nonblocking(false).unwrap();
                                let mut b = [0u8; 4];
                                let _ = stream.read(&mut b);
                                let _ = stream.write_all(b"pong");
                                served += 1;
                            }
                            Err(_) => std::thread::sleep(Duration::from_millis(1)),
                        }
                    }
                    served
                }));
            }
            let mut answered = 0;
            for _ in 0..16 {
                let mut c = TcpStream::connect(local).unwrap();
                c.write_all(b"ping").unwrap();
                let mut buf = [0u8; 4];
                if c.read_exact(&mut buf).is_ok() {
                    answered += 1;
                }
            }
            stop.store(true, std::sync::atomic::Ordering::Release);
            assert_eq!(answered, 16);
            handles.into_iter().map(|h| h.join().unwrap()).sum::<u32>()
        });
        assert_eq!(served, 16);
    }

    #[test]
    fn a_second_shard_on_a_taken_port_fails_startup() {
        // A plain (non-reuseport) listener owns the port: the sharded
        // bind must refuse rather than quietly serve with fewer shards.
        let plain = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = plain.local_addr().unwrap().to_string();
        let err = bind_shard_listeners(&addr, 2).unwrap_err();
        assert!(err.to_string().contains("SO_REUSEPORT"), "{err}");
    }

    #[test]
    fn poll_reports_readable_and_quiet_sockets() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        let quiet = TcpStream::connect(addr).unwrap();
        let (quiet_side, _) = listener.accept().unwrap();

        // Nothing written yet: a zero-timeout wait sees nothing.
        let mut fds = [
            PollFd::new(server_side.as_raw_fd(), POLLIN),
            PollFd::new(quiet_side.as_raw_fd(), POLLIN),
        ];
        assert_eq!(poll(&mut fds, Some(Duration::ZERO)).unwrap(), 0);

        client.write_all(b"x").unwrap();
        assert_eq!(poll(&mut fds, Some(Duration::from_secs(1))).unwrap(), 1);
        assert_eq!(fds[0].revents() & POLLIN, POLLIN);
        assert_eq!(fds[1].revents(), 0);

        // An empty send buffer is writable; a negative fd is skipped.
        let mut fds = [
            PollFd::new(quiet_side.as_raw_fd(), POLLOUT),
            PollFd::new(-1, POLLIN),
        ];
        assert_eq!(poll(&mut fds, Some(Duration::from_secs(1))).unwrap(), 1);
        assert_eq!(fds[0].revents() & POLLOUT, POLLOUT);

        // A hangup wakes the wait too.
        drop(client);
        let mut fds = [PollFd::new(server_side.as_raw_fd(), POLLIN)];
        assert_eq!(poll(&mut fds, Some(Duration::from_secs(1))).unwrap(), 1);
        drop(quiet);
    }
}
