//! Thin wrappers over the raw Linux `epoll` and `eventfd` syscalls.
//!
//! No external crates: `std` already links libc, so the symbols the
//! event loop needs (`epoll_create1`, `epoll_ctl`, `epoll_wait`,
//! `eventfd`, and `socket` + `connect` for upstream connects that must
//! not block) are declared here directly. Both wrappers own their file
//! descriptor and close it on drop. Linux-only by construction — the
//! serve tier targets the same x86_64 Linux hosts the benchmarks and
//! CI run on.

use std::io;
use std::net::{SocketAddr, TcpStream};
use std::os::fd::{FromRawFd, RawFd};

/// `EPOLLIN`: the fd is readable.
pub(crate) const EPOLLIN: u32 = 0x001;
/// `EPOLLOUT`: the fd is writable.
pub(crate) const EPOLLOUT: u32 = 0x004;
/// `EPOLLERR`: error condition (always reported, never registered).
pub(crate) const EPOLLERR: u32 = 0x008;
/// `EPOLLHUP`: hangup (always reported, never registered).
pub(crate) const EPOLLHUP: u32 = 0x010;
/// `EPOLLRDHUP`: peer shut down its write half.
pub(crate) const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;
const EPOLL_CLOEXEC: i32 = 0o2000000;
const EFD_CLOEXEC: i32 = 0o2000000;
const EFD_NONBLOCK: i32 = 0o4000;
const AF_INET: u16 = 2;
const AF_INET6: u16 = 10;
const SOCK_STREAM: i32 = 1;
const SOCK_NONBLOCK: i32 = 0o4000;
const SOCK_CLOEXEC: i32 = 0o2000000;
const EINPROGRESS: i32 = 115;

/// One readiness event: a bitmask of `EPOLL*` flags plus the opaque
/// token registered with the fd. Layout matches the kernel's
/// `struct epoll_event` (packed on x86_64).
#[cfg(target_arch = "x86_64")]
#[repr(C, packed)]
#[derive(Clone, Copy)]
pub(crate) struct Event {
    /// Ready-state bitmask (`EPOLLIN` | `EPOLLOUT` | ...).
    pub events: u32,
    /// The token passed at registration time.
    pub token: u64,
}

/// One readiness event (non-x86_64 layout: naturally aligned).
#[cfg(not(target_arch = "x86_64"))]
#[repr(C)]
#[derive(Clone, Copy)]
pub(crate) struct Event {
    /// Ready-state bitmask (`EPOLLIN` | `EPOLLOUT` | ...).
    pub events: u32,
    /// The token passed at registration time.
    pub token: u64,
}

// Manual, because `derive(Debug)` would take references into a packed
// struct on x86_64.
impl std::fmt::Debug for Event {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (events, token) = ({ self.events }, { self.token });
        f.debug_struct("Event")
            .field("events", &events)
            .field("token", &token)
            .finish()
    }
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut Event) -> i32;
    fn epoll_wait(epfd: i32, events: *mut Event, maxevents: i32, timeout: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
    fn close(fd: i32) -> i32;
    fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
    fn connect(fd: i32, addr: *const u8, len: u32) -> i32;
}

/// Starts a TCP connect to `addr` without blocking. Returns the socket
/// (non-blocking, close-on-exec) and whether it is already connected;
/// otherwise the connect completes when the socket turns writable, and
/// [`TcpStream::take_error`] then tells how it ended. `std` only offers
/// connects that block the caller, which the event loop must never do.
pub(crate) fn connect_nonblocking(addr: &SocketAddr) -> io::Result<(TcpStream, bool)> {
    // `struct sockaddr_in` / `sockaddr_in6`: family (host order), port
    // (network order), then the address.
    let mut raw = [0u8; 28];
    raw[2..4].copy_from_slice(&addr.port().to_be_bytes());
    let (family, len) = match addr {
        SocketAddr::V4(a) => {
            raw[4..8].copy_from_slice(&a.ip().octets());
            (AF_INET, 16)
        }
        SocketAddr::V6(a) => {
            raw[4..8].copy_from_slice(&a.flowinfo().to_be_bytes());
            raw[8..24].copy_from_slice(&a.ip().octets());
            raw[24..28].copy_from_slice(&a.scope_id().to_ne_bytes());
            (AF_INET6, 28)
        }
    };
    raw[0..2].copy_from_slice(&family.to_ne_bytes());
    // SAFETY: `socket` takes plain integers and returns a new fd or -1.
    let fd = unsafe {
        socket(
            i32::from(family),
            SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
            0,
        )
    };
    if fd < 0 {
        return Err(io::Error::last_os_error());
    }
    // SAFETY: `fd` is a stream socket this call just opened and nothing
    // else owns, so the stream may own (and finally close) it.
    let stream = unsafe { TcpStream::from_raw_fd(fd) };
    // SAFETY: `raw` holds a `sockaddr_in` (16 bytes) or `sockaddr_in6`
    // (28 bytes) laid out as above, `len` is that size, and the kernel
    // only reads it during the call.
    if unsafe { connect(fd, raw.as_ptr(), len) } == 0 {
        return Ok((stream, true));
    }
    let error = io::Error::last_os_error();
    if error.raw_os_error() == Some(EINPROGRESS) {
        Ok((stream, false))
    } else {
        Err(error)
    }
}

/// An epoll instance (level-triggered readiness queries).
#[derive(Debug)]
pub(crate) struct Epoll {
    fd: RawFd,
}

impl Epoll {
    /// A fresh epoll instance (`EPOLL_CLOEXEC`).
    pub(crate) fn new() -> io::Result<Epoll> {
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Epoll { fd })
    }

    /// Registers `fd` for `events`, delivering `token` on readiness.
    pub(crate) fn add(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, events, token)
    }

    /// Changes the registered interest set for `fd`.
    pub(crate) fn modify(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, events, token)
    }

    /// Removes `fd` from the interest set (closing an fd does this
    /// implicitly, but detaching a live connection must be explicit).
    pub(crate) fn del(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    fn ctl(&self, op: i32, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut ev = Event { events, token };
        let rc = unsafe { epoll_ctl(self.fd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Blocks up to `timeout_ms` for readiness; fills `events` and
    /// returns how many are valid. `EINTR` reads as zero events.
    pub(crate) fn wait(&self, events: &mut [Event], timeout_ms: i32) -> io::Result<usize> {
        let n = unsafe {
            epoll_wait(
                self.fd,
                events.as_mut_ptr(),
                events.len().min(i32::MAX as usize) as i32,
                timeout_ms,
            )
        };
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(err);
        }
        Ok(n as usize)
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        unsafe { close(self.fd) };
    }
}

/// An `eventfd`-backed waker: any thread calls [`Waker::wake`] to make
/// the owning loop's `epoll_wait` return.
#[derive(Debug)]
pub(crate) struct Waker {
    fd: RawFd,
}

impl Waker {
    /// A fresh nonblocking eventfd.
    pub(crate) fn new() -> io::Result<Waker> {
        let fd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Waker { fd })
    }

    /// The fd to register with the loop's [`Epoll`] (`EPOLLIN`).
    pub(crate) fn fd(&self) -> RawFd {
        self.fd
    }

    /// Wakes the loop. Never blocks: the eventfd counter saturating
    /// (`EAGAIN`) still leaves it readable, which is all a wake needs.
    pub(crate) fn wake(&self) {
        let one: u64 = 1;
        unsafe { write(self.fd, (&one as *const u64).cast(), 8) };
    }

    /// Drains pending wakes so level-triggered polling quiesces.
    pub(crate) fn drain(&self) {
        let mut count = [0u8; 8];
        unsafe { read(self.fd, count.as_mut_ptr(), 8) };
    }
}

impl Drop for Waker {
    fn drop(&mut self) {
        unsafe { close(self.fd) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    #[test]
    fn readiness_round_trip() {
        let ep = Epoll::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        ep.add(listener.as_raw_fd(), EPOLLIN, 7).unwrap();

        let mut events = [Event {
            events: 0,
            token: 0,
        }; 8];
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0, "nothing ready yet");

        let mut client = TcpStream::connect(addr).unwrap();
        let n = ep.wait(&mut events, 2_000).unwrap();
        assert_eq!(n, 1);
        assert_eq!({ events[0].token }, 7);
        assert_ne!({ events[0].events } & EPOLLIN, 0);

        // Accept, register the conn, and see its readable edge too.
        let (conn, _) = listener.accept().unwrap();
        ep.add(conn.as_raw_fd(), EPOLLIN | EPOLLRDHUP, 9).unwrap();
        client.write_all(b"ping").unwrap();
        let n = ep.wait(&mut events, 2_000).unwrap();
        let seen: Vec<u64> = events[..n].iter().map(|e| e.token).collect();
        assert!(seen.contains(&9), "conn readable: {seen:?}");
        ep.del(conn.as_raw_fd()).unwrap();
        drop(conn);
        let mut buf = [0u8; 4];
        client.read_exact(&mut buf).ok();
    }

    #[test]
    fn nonblocking_connect_completes_on_writable_or_fails_named() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let (stream, connected) = connect_nonblocking(&listener.local_addr().unwrap()).unwrap();
        if !connected {
            let ep = Epoll::new().unwrap();
            ep.add(stream.as_raw_fd(), EPOLLOUT, 3).unwrap();
            let mut events = [Event {
                events: 0,
                token: 0,
            }; 2];
            assert_eq!(ep.wait(&mut events, 2_000).unwrap(), 1);
        }
        assert!(stream.take_error().unwrap().is_none());
        let (mut accepted, _) = listener.accept().unwrap();
        (&stream).write_all(b"hi").unwrap();
        let mut buf = [0u8; 2];
        accepted.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"hi");

        // A refused port fails at once or once the socket turns writable.
        let dead = listener.local_addr().unwrap();
        drop((listener, accepted, stream));
        match connect_nonblocking(&dead) {
            Err(e) => assert_eq!(e.kind(), io::ErrorKind::ConnectionRefused),
            Ok((stream, _)) => {
                std::thread::sleep(std::time::Duration::from_millis(50));
                let error = stream.take_error().unwrap().expect("refused");
                assert_eq!(error.kind(), io::ErrorKind::ConnectionRefused);
            }
        }
    }

    #[test]
    fn waker_wakes_and_drains() {
        let ep = Epoll::new().unwrap();
        let waker = Waker::new().unwrap();
        ep.add(waker.fd(), EPOLLIN, 1).unwrap();
        let mut events = [Event {
            events: 0,
            token: 0,
        }; 4];
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);
        waker.wake();
        waker.wake();
        assert_eq!(ep.wait(&mut events, 2_000).unwrap(), 1);
        waker.drain();
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0, "drained");
    }
}
