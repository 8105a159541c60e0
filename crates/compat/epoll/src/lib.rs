//! Offline readiness shim: `epoll(7)` + `eventfd(2)` behind a minimal
//! safe API.
//!
//! The build environment has no access to crates.io, so instead of `mio`
//! (or the `libc` crate) this vendors the few syscalls a single-threaded
//! readiness-driven event loop needs, declared directly against the C
//! library every Rust binary already links. Same policy as the other
//! `crates/compat` members: a purpose-built subset, not a fork.
//!
//! The API is deliberately tiny:
//!
//! * [`Poller`] — an epoll instance: `add`/`modify`/`remove` file
//!   descriptors with a `u64` token and an [`Interest`], then [`Poller::wait`]
//!   for readiness.
//! * [`Events`] — a reusable readiness buffer yielding [`Event`]s.
//! * [`Waker`] — an `eventfd` registered with the poller so another
//!   thread can interrupt a blocking `wait`.
//! * [`poll`] over [`PollFd`]s — a one-shot `poll(2)` for a thread that
//!   waits on a few sockets itself, without an epoll instance.
//!
//! Everything is **level-triggered**: an fd stays ready until drained,
//! so a loop that reads/writes less than the kernel offers is re-notified
//! on the next `wait` instead of hanging.
//!
//! On non-Linux targets the constructors return
//! [`std::io::ErrorKind::Unsupported`]; callers gate their backend choice
//! on that instead of failing to compile.

#![warn(missing_docs)]

use std::io;
use std::time::Duration;

/// Raw file descriptor, as `std::os::fd::RawFd` spells it on unix.
pub type RawFd = i32;

/// Which readiness directions an fd is registered for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Notify when the fd is readable.
    pub readable: bool,
    /// Notify when the fd is writable.
    pub writable: bool,
}

impl Interest {
    /// Read readiness only.
    pub const READABLE: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Write readiness only.
    pub const WRITABLE: Interest = Interest {
        readable: false,
        writable: true,
    };
    /// Both directions.
    pub const BOTH: Interest = Interest {
        readable: true,
        writable: true,
    };
    /// Neither direction: only the hang-up and error conditions, which
    /// are always reported.
    pub const HANGUP: Interest = Interest {
        readable: false,
        writable: false,
    };
}

/// One descriptor of a [`poll`] call: watched for readability (which
/// includes end-of-stream, hang-up and error), laid out as the kernel's
/// `struct pollfd`.
#[derive(Debug, Clone, Copy)]
#[repr(C)]
pub struct PollFd {
    fd: RawFd,
    events: i16,
    revents: i16,
}

/// `POLLIN`.
const POLLIN: i16 = 0x001;

impl PollFd {
    /// Watches `fd` for readability.
    pub fn readable(fd: RawFd) -> PollFd {
        PollFd {
            fd,
            events: POLLIN,
            revents: 0,
        }
    }
}

/// Blocks until one of `fds` is ready or `timeout` passes (`None` waits
/// indefinitely; a sub-millisecond timeout rounds up to 1 ms) and returns
/// how many are ready. An interrupted wait returns `Ok(0)`: the caller
/// re-checks its own deadline instead of this call restarting the clock.
pub fn poll(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
    sys::poll(fds, timeout)
}

/// One readiness notification out of [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered with.
    pub token: u64,
    /// The fd has bytes to read (or a pending close to observe).
    pub readable: bool,
    /// The fd can accept bytes.
    pub writable: bool,
    /// Error or hang-up condition (`EPOLLERR`/`EPOLLHUP`/`EPOLLRDHUP`).
    /// The fd should be drained (reads will surface the error/EOF).
    pub closed: bool,
}

#[cfg(target_os = "linux")]
mod sys {
    use super::{Event, Interest, RawFd};
    use std::io;
    use std::time::Duration;

    // The kernel ABI packs `epoll_event` on x86-64 only.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        events: u32,
        data: u64,
    }

    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;

    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;

    const EPOLL_CLOEXEC: i32 = 0o2000000;
    const EFD_CLOEXEC: i32 = 0o2000000;
    const EFD_NONBLOCK: i32 = 0o4000;

    const EINTR: i32 = 4;

    extern "C" {
        #[link_name = "poll"]
        fn poll_fds(fds: *mut super::PollFd, nfds: std::os::raw::c_ulong, timeout: i32) -> i32;
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn eventfd(initval: u32, flags: i32) -> i32;
        fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
        fn close(fd: i32) -> i32;
    }

    fn cvt(ret: i32) -> io::Result<i32> {
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }

    fn mask(interest: Interest) -> u32 {
        let mut m = EPOLLRDHUP;
        if interest.readable {
            m |= EPOLLIN;
        }
        if interest.writable {
            m |= EPOLLOUT;
        }
        m
    }

    pub struct Poller {
        epfd: RawFd,
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            let epfd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
            Ok(Poller { epfd })
        }

        fn ctl(&self, op: i32, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let mut ev = EpollEvent {
                events: mask(interest),
                data: token,
            };
            cvt(unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) }).map(|_| ())
        }

        pub fn add(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, interest)
        }

        pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, interest)
        }

        pub fn remove(&self, fd: RawFd) -> io::Result<()> {
            let mut ev = EpollEvent { events: 0, data: 0 };
            cvt(unsafe { epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, &mut ev) }).map(|_| ())
        }

        pub fn wait(
            &self,
            buf: &mut Vec<EpollEvent>,
            capacity: usize,
            timeout: Option<Duration>,
        ) -> io::Result<usize> {
            buf.clear();
            buf.resize(capacity.max(1), EpollEvent { events: 0, data: 0 });
            let ms = timeout_ms(timeout);
            loop {
                let n = unsafe { epoll_wait(self.epfd, buf.as_mut_ptr(), buf.len() as i32, ms) };
                if n >= 0 {
                    buf.truncate(n as usize);
                    return Ok(n as usize);
                }
                let err = io::Error::last_os_error();
                if err.raw_os_error() != Some(EINTR) {
                    return Err(err);
                }
            }
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            unsafe { close(self.epfd) };
        }
    }

    /// Milliseconds for a kernel timeout: `-1` for none, sub-millisecond
    /// waits rounded up so a short bounded wait never spins.
    fn timeout_ms(timeout: Option<Duration>) -> i32 {
        match timeout {
            None => -1,
            Some(t) => t
                .as_millis()
                .max(u128::from(u32::from(!t.is_zero())))
                .min(i32::MAX as u128) as i32,
        }
    }

    pub fn poll(fds: &mut [super::PollFd], timeout: Option<Duration>) -> io::Result<usize> {
        // SAFETY: `PollFd` has the layout of `struct pollfd`, and the
        // pointer and length describe `fds`, which is borrowed mutably for
        // the whole call; the kernel writes only their `revents` fields.
        let n = unsafe {
            poll_fds(
                fds.as_mut_ptr(),
                fds.len() as std::os::raw::c_ulong,
                timeout_ms(timeout),
            )
        };
        if n >= 0 {
            return Ok(n as usize);
        }
        let err = io::Error::last_os_error();
        if err.raw_os_error() == Some(EINTR) {
            Ok(0)
        } else {
            Err(err)
        }
    }

    pub fn decode(ev: &EpollEvent) -> Event {
        let bits = ev.events;
        Event {
            token: ev.data,
            readable: bits & (EPOLLIN | EPOLLHUP | EPOLLRDHUP | EPOLLERR) != 0,
            writable: bits & EPOLLOUT != 0,
            closed: bits & (EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0,
        }
    }

    pub struct Waker {
        fd: RawFd,
    }

    impl Waker {
        pub fn new() -> io::Result<Waker> {
            let fd = cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
            Ok(Waker { fd })
        }

        pub fn fd(&self) -> RawFd {
            self.fd
        }

        pub fn wake(&self) -> io::Result<()> {
            let one = 1u64.to_ne_bytes();
            let n = unsafe { write(self.fd, one.as_ptr(), one.len()) };
            // EAGAIN means the counter is already non-zero: a wake-up is
            // pending, which is all the caller wanted.
            if n >= 0 || io::Error::last_os_error().kind() == io::ErrorKind::WouldBlock {
                Ok(())
            } else {
                Err(io::Error::last_os_error())
            }
        }

        pub fn drain(&self) {
            let mut buf = [0u8; 8];
            unsafe { read(self.fd, buf.as_mut_ptr(), buf.len()) };
        }
    }

    impl Drop for Waker {
        fn drop(&mut self) {
            unsafe { close(self.fd) };
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    use super::{Event, Interest, RawFd};
    use std::io;
    use std::time::Duration;

    fn unsupported<T>() -> io::Result<T> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "epoll readiness shim is Linux-only",
        ))
    }

    #[derive(Clone, Copy)]
    pub struct EpollEvent;

    pub struct Poller;

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            unsupported()
        }
        pub fn add(&self, _fd: RawFd, _token: u64, _interest: Interest) -> io::Result<()> {
            unsupported()
        }
        pub fn modify(&self, _fd: RawFd, _token: u64, _interest: Interest) -> io::Result<()> {
            unsupported()
        }
        pub fn remove(&self, _fd: RawFd) -> io::Result<()> {
            unsupported()
        }
        pub fn wait(
            &self,
            _buf: &mut Vec<EpollEvent>,
            _capacity: usize,
            _timeout: Option<Duration>,
        ) -> io::Result<usize> {
            unsupported()
        }
    }

    pub fn poll(_fds: &mut [super::PollFd], _timeout: Option<Duration>) -> io::Result<usize> {
        unsupported()
    }

    pub fn decode(_ev: &EpollEvent) -> Event {
        unreachable!("no events on an unsupported platform")
    }

    pub struct Waker;

    impl Waker {
        pub fn new() -> io::Result<Waker> {
            unsupported()
        }
        pub fn fd(&self) -> RawFd {
            -1
        }
        pub fn wake(&self) -> io::Result<()> {
            unsupported()
        }
        pub fn drain(&self) {}
    }
}

/// An epoll instance: register fds under `u64` tokens, then block for
/// readiness with [`Poller::wait`].
pub struct Poller {
    inner: sys::Poller,
}

impl std::fmt::Debug for Poller {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Poller").finish()
    }
}

impl Poller {
    /// Creates the epoll instance (`Unsupported` off Linux).
    pub fn new() -> io::Result<Poller> {
        Ok(Poller {
            inner: sys::Poller::new()?,
        })
    }

    /// Registers `fd` under `token` for `interest` (level-triggered).
    pub fn add(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.inner.add(fd, token, interest)
    }

    /// Re-arms an already-registered `fd` with a new interest set — the
    /// write-interest toggle of an outbox-draining event loop.
    pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.inner.modify(fd, token, interest)
    }

    /// Deregisters `fd`.
    pub fn remove(&self, fd: RawFd) -> io::Result<()> {
        self.inner.remove(fd)
    }

    /// Blocks until at least one registered fd is ready (or `timeout`
    /// passes — `None` waits indefinitely), filling `events`. Returns the
    /// number of notifications. Retries transparently on `EINTR`.
    pub fn wait(&self, events: &mut Events, timeout: Option<Duration>) -> io::Result<usize> {
        self.inner.wait(&mut events.buf, events.capacity, timeout)
    }
}

/// Reusable readiness buffer for [`Poller::wait`].
pub struct Events {
    buf: Vec<sys::EpollEvent>,
    capacity: usize,
}

impl Events {
    /// A buffer receiving at most `capacity` notifications per wait.
    pub fn with_capacity(capacity: usize) -> Events {
        Events {
            buf: Vec::new(),
            capacity: capacity.max(1),
        }
    }

    /// The notifications from the most recent [`Poller::wait`].
    pub fn iter(&self) -> impl Iterator<Item = Event> + '_ {
        self.buf.iter().map(sys::decode)
    }
}

impl std::fmt::Debug for Events {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Events")
            .field("capacity", &self.capacity)
            .field("ready", &self.buf.len())
            .finish()
    }
}

/// An `eventfd`-backed wake-up handle: another thread calls
/// [`Waker::wake`] to interrupt a [`Poller::wait`] blocked on this fd.
pub struct Waker {
    inner: sys::Waker,
}

impl std::fmt::Debug for Waker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Waker").field("fd", &self.fd()).finish()
    }
}

impl Waker {
    /// Creates the eventfd (`Unsupported` off Linux).
    pub fn new() -> io::Result<Waker> {
        Ok(Waker {
            inner: sys::Waker::new()?,
        })
    }

    /// The fd to register with a [`Poller`] (readable interest).
    pub fn fd(&self) -> RawFd {
        self.inner.fd()
    }

    /// Makes the fd readable, interrupting a blocked `wait`. Safe to call
    /// from any thread, any number of times (wake-ups coalesce).
    pub fn wake(&self) -> io::Result<()> {
        self.inner.wake()
    }

    /// Consumes pending wake-ups so the fd stops reading ready. Called by
    /// the event-loop thread after observing the waker's token.
    pub fn drain(&self) {
        self.inner.drain()
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;
    use std::time::Duration;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let (b, _) = listener.accept().unwrap();
        (a, b)
    }

    #[test]
    fn readable_after_peer_writes() {
        let (mut a, b) = pair();
        let poller = Poller::new().unwrap();
        poller.add(b.as_raw_fd(), 7, Interest::READABLE).unwrap();
        let mut events = Events::with_capacity(8);

        // Nothing yet: a bounded wait times out empty.
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert_eq!(n, 0);

        a.write_all(b"ping").unwrap();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(n, 1);
        let ev = events.iter().next().unwrap();
        assert_eq!(ev.token, 7);
        assert!(ev.readable && !ev.closed);
        let mut buf = [0u8; 4];
        (&b).read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");
    }

    #[test]
    fn write_interest_toggles() {
        let (_a, b) = pair();
        let poller = Poller::new().unwrap();
        // An idle socket is immediately writable once we ask for it.
        poller.add(b.as_raw_fd(), 1, Interest::READABLE).unwrap();
        let mut events = Events::with_capacity(8);
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert_eq!(n, 0, "no write interest registered yet");
        poller.modify(b.as_raw_fd(), 1, Interest::BOTH).unwrap();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(n, 1);
        assert!(events.iter().next().unwrap().writable);
    }

    #[test]
    fn hangup_reports_closed() {
        let (a, b) = pair();
        let poller = Poller::new().unwrap();
        poller.add(b.as_raw_fd(), 3, Interest::READABLE).unwrap();
        drop(a);
        let mut events = Events::with_capacity(8);
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(n, 1);
        let ev = events.iter().next().unwrap();
        assert!(ev.readable, "EOF must be observable via read");
        assert!(ev.closed);
    }

    #[test]
    fn waker_interrupts_wait_and_coalesces() {
        let poller = std::sync::Arc::new(Poller::new().unwrap());
        let waker = std::sync::Arc::new(Waker::new().unwrap());
        poller
            .add(waker.fd(), u64::MAX, Interest::READABLE)
            .unwrap();
        let w = waker.clone();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            w.wake().unwrap();
            w.wake().unwrap(); // coalesces, no error
        });
        let mut events = Events::with_capacity(8);
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(n, 1);
        assert_eq!(events.iter().next().unwrap().token, u64::MAX);
        // Both wakes are in before the drain: the helper's second one
        // cannot land after it and leave the waker readable again.
        handle.join().unwrap();
        waker.drain();
        // Drained: the next bounded wait is empty again.
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert_eq!(n, 0);
    }

    #[test]
    fn poll_reports_readable_and_hung_up_sockets() {
        let (mut a, b) = pair();
        let (c, d) = pair();
        let mut fds = [
            PollFd::readable(b.as_raw_fd()),
            PollFd::readable(d.as_raw_fd()),
        ];
        let n = poll(&mut fds, Some(Duration::from_millis(10))).unwrap();
        assert_eq!(n, 0);

        a.write_all(b"x").unwrap();
        assert_eq!(poll(&mut fds, Some(Duration::from_secs(5))).unwrap(), 1);
        drop(c);
        // Level-triggered: the unread byte still counts, and the
        // end-of-stream joins it.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while poll(&mut fds, Some(Duration::from_millis(10))).unwrap() < 2 {
            assert!(
                std::time::Instant::now() < deadline,
                "hang-up never read ready"
            );
        }
    }

    #[test]
    fn remove_stops_notifications() {
        let (mut a, b) = pair();
        let poller = Poller::new().unwrap();
        poller.add(b.as_raw_fd(), 9, Interest::READABLE).unwrap();
        poller.remove(b.as_raw_fd()).unwrap();
        a.write_all(b"x").unwrap();
        let mut events = Events::with_capacity(8);
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert_eq!(n, 0);
    }
}
