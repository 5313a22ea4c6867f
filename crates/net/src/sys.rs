//! Minimal Linux epoll + nonblocking-connect shim.
//!
//! The reactor transport needs exactly four things the standard
//! library does not expose: `epoll_create1`, `epoll_ctl`,
//! `epoll_wait`, and a TCP `connect(2)` that returns immediately with
//! `EINPROGRESS` instead of blocking. Rather than pulling in an
//! external crate, this module declares the handful of libc symbols
//! directly (libc is always linked on Linux) — the same from-scratch
//! ethos as the rest of the repo. This is the **only** unsafe code in
//! `curb-net`; everything above it works with safe `TcpStream`s and
//! raw-fd integers.
//!
//! Linux only: the crate root refuses to compile for any other
//! `target_os`, since every socket transport sits on this module.

use std::io::{self, IoSlice};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::{FromRawFd, RawFd};

/// Readable (also: inbound connection has data or EOF).
pub const EPOLLIN: u32 = 0x001;
/// Writable (also: nonblocking connect completed or failed).
pub const EPOLLOUT: u32 = 0x004;
/// Error condition — always reported, never needs registering.
pub const EPOLLERR: u32 = 0x008;
/// Hangup — always reported, never needs registering.
pub const EPOLLHUP: u32 = 0x010;
/// Peer closed its write half.
pub const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CLOEXEC: i32 = 0o2000000;
const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;

const AF_INET: u16 = 2;
const AF_INET6: u16 = 10;
const SOCK_STREAM: i32 = 1;
const SOCK_NONBLOCK: i32 = 0o4000;
const SOCK_CLOEXEC: i32 = 0o2000000;
const EINPROGRESS: i32 = 115;

/// One readiness event out of `epoll_wait`. The kernel ABI packs this
/// struct on x86-64 (no padding between `events` and `data`); other
/// architectures use natural alignment.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy, Default)]
pub struct EpollEvent {
    /// Bitmask of `EPOLL*` readiness flags.
    pub events: u32,
    /// Caller-chosen token identifying the registered fd.
    pub data: u64,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    fn close(fd: i32) -> i32;
    fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
    fn connect(fd: i32, addr: *const u8, addrlen: u32) -> i32;
    fn writev(fd: i32, iov: *const IoSlice<'_>, iovcnt: i32) -> isize;
}

/// Largest iovec count passed to a single `writev(2)`. The kernel cap
/// (`IOV_MAX`) is 1024; a burst larger than this simply takes another
/// flush pass, so a conservative slice keeps the stack array small.
pub const MAX_IOVECS: usize = 128;

/// Writes as many of `bufs` as the socket accepts in one
/// `writev(2)` call and returns the byte count. `IoSlice` is
/// guaranteed ABI-compatible with `struct iovec`, so the slice is
/// passed to the kernel directly — no per-flush iovec array is built.
/// At most [`MAX_IOVECS`] entries are submitted; callers loop.
///
/// # Errors
///
/// Propagates the OS error (including `WouldBlock`) from `writev`.
pub fn writev_fd(fd: RawFd, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
    let cnt = bufs.len().min(MAX_IOVECS);
    // SAFETY: `bufs` is a valid slice for the whole call and IoSlice
    // is layout-compatible with iovec per std's documented guarantee;
    // `cnt` never exceeds the slice length.
    let rc = unsafe { writev(fd, bufs.as_ptr(), cnt as i32) };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(rc as usize)
}

/// Owned epoll instance; the fd is closed on drop.
pub struct Epoll {
    fd: RawFd,
}

impl Epoll {
    /// Creates a close-on-exec epoll instance.
    ///
    /// # Errors
    ///
    /// Propagates the OS error from `epoll_create1`.
    pub fn new() -> io::Result<Epoll> {
        // SAFETY: epoll_create1 takes a flags integer and returns a
        // new fd or -1; no pointers involved.
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: i32, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent {
            events,
            data: token,
        };
        // SAFETY: `ev` outlives the call; the kernel copies it.
        let rc = unsafe { epoll_ctl(self.fd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Registers `fd` for `events`, tagging readiness with `token`.
    ///
    /// # Errors
    ///
    /// Propagates the OS error from `epoll_ctl`.
    pub fn add(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, events, token)
    }

    /// Changes the interest set of an already-registered `fd`.
    ///
    /// # Errors
    ///
    /// Propagates the OS error from `epoll_ctl`.
    pub fn modify(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, events, token)
    }

    /// Deregisters `fd`. A failure is ignored by callers (the fd is
    /// usually about to be closed, which deregisters implicitly).
    ///
    /// # Errors
    ///
    /// Propagates the OS error from `epoll_ctl`.
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Blocks up to `timeout_ms` (`-1` = forever) for readiness and
    /// fills `events`; returns how many entries are valid. `EINTR`
    /// surfaces as `Ok(0)` so callers simply loop.
    ///
    /// # Errors
    ///
    /// Propagates any non-`EINTR` OS error from `epoll_wait`.
    pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        // SAFETY: `events` is a valid, writable slice for the whole
        // call and its length bounds maxevents.
        let rc = unsafe {
            epoll_wait(
                self.fd,
                events.as_mut_ptr(),
                events.len() as i32,
                timeout_ms,
            )
        };
        if rc < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(err);
        }
        Ok(rc as usize)
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: fd is owned by this instance and not closed elsewhere.
        unsafe { close(self.fd) };
    }
}

/// IPv4 `sockaddr_in`, network byte order for port and address.
#[repr(C)]
struct SockAddrIn {
    family: u16,
    port: [u8; 2],
    addr: [u8; 4],
    zero: [u8; 8],
}

/// IPv6 `sockaddr_in6`.
#[repr(C)]
struct SockAddrIn6 {
    family: u16,
    port: [u8; 2],
    flowinfo: u32,
    addr: [u8; 16],
    scope_id: u32,
}

/// Starts a nonblocking TCP connect to `addr`. Returns the stream
/// (already in nonblocking mode) plus whether the connection is
/// already established — loopback connects often complete
/// synchronously; otherwise the caller must wait for `EPOLLOUT` and
/// check [`TcpStream::take_error`].
///
/// # Errors
///
/// Returns any immediate failure from `socket(2)`/`connect(2)` other
/// than `EINPROGRESS`.
pub fn connect_nonblocking(addr: &SocketAddr) -> io::Result<(TcpStream, bool)> {
    let domain = match addr {
        SocketAddr::V4(_) => AF_INET as i32,
        SocketAddr::V6(_) => AF_INET6 as i32,
    };
    // SAFETY: plain integer arguments; returns an owned fd or -1.
    let fd = unsafe { socket(domain, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0) };
    if fd < 0 {
        return Err(io::Error::last_os_error());
    }
    // SAFETY: the fd was just created by socket(2) and is owned by
    // nothing else; TcpStream takes ownership (and closes it on drop,
    // including on every early-return path below).
    let stream = unsafe { TcpStream::from_raw_fd(fd) };
    let rc = match addr {
        SocketAddr::V4(v4) => {
            let sa = SockAddrIn {
                family: AF_INET,
                port: v4.port().to_be_bytes(),
                addr: v4.ip().octets(),
                zero: [0; 8],
            };
            // SAFETY: `sa` is a properly laid out sockaddr_in that
            // lives across the call; length matches the struct.
            unsafe {
                connect(
                    fd,
                    (&sa as *const SockAddrIn).cast(),
                    std::mem::size_of::<SockAddrIn>() as u32,
                )
            }
        }
        SocketAddr::V6(v6) => {
            let sa = SockAddrIn6 {
                family: AF_INET6,
                port: v6.port().to_be_bytes(),
                flowinfo: v6.flowinfo(),
                addr: v6.ip().octets(),
                scope_id: v6.scope_id(),
            };
            // SAFETY: as above, for sockaddr_in6.
            unsafe {
                connect(
                    fd,
                    (&sa as *const SockAddrIn6).cast(),
                    std::mem::size_of::<SockAddrIn6>() as u32,
                )
            }
        }
    };
    if rc == 0 {
        return Ok((stream, true));
    }
    let err = io::Error::last_os_error();
    if err.raw_os_error() == Some(EINPROGRESS) {
        return Ok((stream, false));
    }
    Err(err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::os::unix::io::AsRawFd;

    #[test]
    fn epoll_reports_listener_readability() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.set_nonblocking(true).expect("nonblocking");
        let epoll = Epoll::new().expect("epoll");
        epoll
            .add(listener.as_raw_fd(), EPOLLIN, 42)
            .expect("register");

        // Nothing pending: a zero-timeout wait returns no events.
        let mut events = [EpollEvent::default(); 8];
        assert_eq!(epoll.wait(&mut events, 0).expect("wait"), 0);

        // An inbound connection makes the listener readable.
        let addr = listener.local_addr().expect("addr");
        let (stream, done) = connect_nonblocking(&addr).expect("connect");
        let _ = done; // loopback usually completes immediately
        let n = epoll.wait(&mut events, 2000).expect("wait");
        assert!(n >= 1, "listener must become readable");
        let ev = events[0];
        assert_eq!({ ev.data }, 42);
        assert!(ev.events & EPOLLIN != 0);

        // Interest can be modified and removed.
        epoll
            .modify(listener.as_raw_fd(), EPOLLIN, 7)
            .expect("modify");
        epoll.delete(listener.as_raw_fd()).expect("delete");
        drop(stream);
    }

    #[test]
    fn writev_scatters_multiple_buffers_in_one_call() {
        use std::io::Read;

        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let tx = TcpStream::connect(addr).expect("connect");
        let (mut rx, _) = listener.accept().expect("accept");

        let parts: [&[u8]; 3] = [b"vectored ", b"writes ", b"work"];
        let slices: Vec<IoSlice<'_>> = parts.iter().map(|p| IoSlice::new(p)).collect();
        let total: usize = parts.iter().map(|p| p.len()).sum();
        let mut sent = 0;
        while sent < total {
            // Re-slice from the cursor; tiny payload so partial writes
            // only happen under pathological kernel buffering.
            let mut remaining = Vec::new();
            let mut skip = sent;
            for p in &parts {
                if skip >= p.len() {
                    skip -= p.len();
                } else {
                    remaining.push(IoSlice::new(&p[skip..]));
                    skip = 0;
                }
            }
            let bufs = if sent == 0 { &slices } else { &remaining };
            sent += writev_fd(tx.as_raw_fd(), bufs).expect("writev");
        }

        let mut got = vec![0u8; total];
        rx.read_exact(&mut got).expect("read back");
        assert_eq!(&got, b"vectored writes work");
    }

    #[test]
    fn nonblocking_connect_to_dead_port_fails_via_epoll() {
        // Reserve then release a port so nothing listens on it.
        let placeholder = TcpListener::bind("127.0.0.1:0").expect("bind");
        let dead = placeholder.local_addr().expect("addr");
        drop(placeholder);

        let (stream, immediate) = connect_nonblocking(&dead).expect("start connect");
        if immediate {
            // Kernel raced us: treat as inconclusive rather than flaky.
            return;
        }
        let epoll = Epoll::new().expect("epoll");
        epoll
            .add(stream.as_raw_fd(), EPOLLOUT, 1)
            .expect("register");
        let mut events = [EpollEvent::default(); 4];
        let n = epoll.wait(&mut events, 5000).expect("wait");
        assert!(n >= 1, "failed connect must produce an event");
        // The failure is retrievable as SO_ERROR via the std API.
        let err = stream.take_error().expect("getsockopt");
        assert!(err.is_some(), "refused connect must set SO_ERROR");
    }
}
