//! Readiness polling over raw OS primitives — the heart of the
//! nonblocking serve loop.
//!
//! One [`Poller`] owns an OS readiness queue (epoll on Linux via the same
//! kind of tiny FFI shim `shutdown.rs` uses for signals; `poll(2)` on
//! other unixes) and a [`Waker`] lets worker threads nudge the event
//! thread out of its wait when a completed response is ready to write.
//! No async runtime, no new dependencies: the whole shim is a handful of
//! `extern "C"` declarations against symbols libstd already links.
//!
//! Tokens are caller-chosen `u64`s carried through the kernel untouched;
//! the server uses monotonically increasing connection tokens so a stale
//! event for a closed connection can never alias a live one.

/// What the caller wants to hear about for one file descriptor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Interest {
    /// Wake when the fd is readable (or the peer hung up).
    pub read: bool,
    /// Wake when the fd is writable.
    pub write: bool,
}

impl Interest {
    /// Readability only.
    pub(crate) const READ: Interest = Interest { read: true, write: false };
    /// Writability only.
    pub(crate) const WRITE: Interest = Interest { read: false, write: true };
    /// Neither — the fd stays registered but silent (backpressure while a
    /// request is being processed).
    pub(crate) const NONE: Interest = Interest { read: false, write: false };
}

/// One readiness notification.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Event {
    /// The token the fd was registered with.
    pub token: u64,
    /// Readable (data or EOF pending).
    pub readable: bool,
    /// Writable.
    pub writable: bool,
    /// Error or hangup — the owner should drive the fd and observe the
    /// failure through the normal read/write path.
    pub hangup: bool,
}

pub(crate) use sys::{Poller, Waker};

#[cfg(target_os = "linux")]
mod sys {
    //! epoll + eventfd backend.

    use super::{Event, Interest};
    use std::io;
    use std::os::fd::RawFd;
    use std::time::Duration;

    const EPOLL_CLOEXEC: i32 = 0o2000000;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;
    const EFD_CLOEXEC: i32 = 0o2000000;
    const EFD_NONBLOCK: i32 = 0o4000;
    /// Max events drained per `epoll_wait` call; more just wait a tick.
    const WAIT_BATCH: usize = 128;

    // The kernel packs epoll_event on x86-64 (i386 ABI compatibility);
    // every other architecture uses the natural C layout.
    #[cfg(target_arch = "x86_64")]
    #[repr(C, packed)]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }
    #[cfg(not(target_arch = "x86_64"))]
    #[repr(C)]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn eventfd(initval: u32, flags: i32) -> i32;
        fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
        fn close(fd: i32) -> i32;
    }

    fn mask(interest: Interest) -> u32 {
        let mut m = EPOLLRDHUP; // always hear about half-closes
        if interest.read {
            m |= EPOLLIN;
        }
        if interest.write {
            m |= EPOLLOUT;
        }
        m
    }

    /// An epoll instance.
    pub(crate) struct Poller {
        epfd: RawFd,
    }

    impl Poller {
        pub(crate) fn new() -> io::Result<Poller> {
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Poller { epfd })
        }

        fn ctl(&self, op: i32, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let mut ev = EpollEvent { events: mask(interest), data: token };
            let rc = unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        pub(crate) fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, interest)
        }

        pub(crate) fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, interest)
        }

        pub(crate) fn deregister(&self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, 0, Interest::NONE)
        }

        /// Blocks up to `timeout` (forever when `None`), filling `out`
        /// with ready events. `EINTR` returns an empty batch.
        pub(crate) fn wait(
            &self,
            out: &mut Vec<Event>,
            timeout: Option<Duration>,
        ) -> io::Result<()> {
            out.clear();
            let timeout_ms =
                timeout.map(|d| d.as_millis().min(i32::MAX as u128) as i32).unwrap_or(-1);
            let mut buf = [EpollEvent { events: 0, data: 0 }; WAIT_BATCH];
            let n =
                unsafe { epoll_wait(self.epfd, buf.as_mut_ptr(), WAIT_BATCH as i32, timeout_ms) };
            if n < 0 {
                let e = io::Error::last_os_error();
                if e.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(e);
            }
            for ev in buf.iter().take(n as usize) {
                // copy fields by value: the struct may be packed on x86-64
                let bits = ev.events;
                let token = ev.data;
                out.push(Event {
                    token,
                    readable: bits & EPOLLIN != 0,
                    writable: bits & EPOLLOUT != 0,
                    hangup: bits & (EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0,
                });
            }
            Ok(())
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            unsafe { close(self.epfd) };
        }
    }

    /// An eventfd the workers write to wake the event thread.
    pub(crate) struct Waker {
        fd: RawFd,
    }

    impl Waker {
        pub(crate) fn new() -> io::Result<Waker> {
            let fd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Waker { fd })
        }

        /// The fd to register with the poller (read interest).
        pub(crate) fn fd(&self) -> RawFd {
            self.fd
        }

        /// Nudges the event thread. Never blocks; a saturated counter is
        /// still readable, which is all that matters.
        pub(crate) fn wake(&self) {
            let one: u64 = 1;
            unsafe { write(self.fd, &one as *const u64 as *const u8, 8) };
        }

        /// Clears pending wakeups so the next `wake` is level-visible.
        pub(crate) fn drain(&self) {
            let mut buf = [0u8; 8];
            while unsafe { read(self.fd, buf.as_mut_ptr(), 8) } > 0 {}
        }
    }

    impl Drop for Waker {
        fn drop(&mut self) {
            unsafe { close(self.fd) };
        }
    }
}

#[cfg(all(unix, not(target_os = "linux")))]
mod sys {
    //! Portable `poll(2)` + self-pipe fallback for non-Linux unixes. Same
    //! contract as the epoll backend, O(n) per wait — fine at this
    //! server's bounded connection counts.

    use super::{Event, Interest};
    use std::collections::HashMap;
    use std::io;
    use std::os::fd::RawFd;
    use std::sync::Mutex;
    use std::time::Duration;

    const POLLIN: i16 = 0x001;
    const POLLOUT: i16 = 0x004;
    const POLLERR: i16 = 0x008;
    const POLLHUP: i16 = 0x010;
    const F_SETFL: i32 = 4;
    #[cfg(target_os = "macos")]
    const O_NONBLOCK: i32 = 0x0004;
    #[cfg(not(target_os = "macos"))]
    const O_NONBLOCK: i32 = 0o4000;

    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
        fn pipe(fds: *mut i32) -> i32;
        fn fcntl(fd: i32, cmd: i32, arg: i32) -> i32;
        fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
        fn close(fd: i32) -> i32;
    }

    pub(crate) struct Poller {
        fds: Mutex<HashMap<RawFd, (u64, Interest)>>,
    }

    impl Poller {
        pub(crate) fn new() -> io::Result<Poller> {
            Ok(Poller { fds: Mutex::new(HashMap::new()) })
        }

        pub(crate) fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.fds.lock().unwrap().insert(fd, (token, interest));
            Ok(())
        }

        pub(crate) fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.fds.lock().unwrap().insert(fd, (token, interest));
            Ok(())
        }

        pub(crate) fn deregister(&self, fd: RawFd) -> io::Result<()> {
            self.fds.lock().unwrap().remove(&fd);
            Ok(())
        }

        pub(crate) fn wait(
            &self,
            out: &mut Vec<Event>,
            timeout: Option<Duration>,
        ) -> io::Result<()> {
            out.clear();
            let mut pollfds: Vec<PollFd> = Vec::new();
            let mut tokens: Vec<u64> = Vec::new();
            {
                let fds = self.fds.lock().unwrap();
                for (&fd, &(token, interest)) in fds.iter() {
                    let mut events = 0i16;
                    if interest.read {
                        events |= POLLIN;
                    }
                    if interest.write {
                        events |= POLLOUT;
                    }
                    pollfds.push(PollFd { fd, events, revents: 0 });
                    tokens.push(token);
                }
            }
            let timeout_ms =
                timeout.map(|d| d.as_millis().min(i32::MAX as u128) as i32).unwrap_or(-1);
            let n = unsafe { poll(pollfds.as_mut_ptr(), pollfds.len() as u64, timeout_ms) };
            if n < 0 {
                let e = io::Error::last_os_error();
                if e.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(e);
            }
            for (pfd, &token) in pollfds.iter().zip(&tokens) {
                if pfd.revents == 0 {
                    continue;
                }
                out.push(Event {
                    token,
                    readable: pfd.revents & POLLIN != 0,
                    writable: pfd.revents & POLLOUT != 0,
                    hangup: pfd.revents & (POLLERR | POLLHUP) != 0,
                });
            }
            Ok(())
        }
    }

    pub(crate) struct Waker {
        read_fd: RawFd,
        write_fd: RawFd,
    }

    impl Waker {
        pub(crate) fn new() -> io::Result<Waker> {
            let mut fds = [0i32; 2];
            if unsafe { pipe(fds.as_mut_ptr()) } < 0 {
                return Err(io::Error::last_os_error());
            }
            for fd in fds {
                if unsafe { fcntl(fd, F_SETFL, O_NONBLOCK) } < 0 {
                    return Err(io::Error::last_os_error());
                }
            }
            Ok(Waker { read_fd: fds[0], write_fd: fds[1] })
        }

        pub(crate) fn fd(&self) -> RawFd {
            self.read_fd
        }

        pub(crate) fn wake(&self) {
            let byte = 1u8;
            unsafe { write(self.write_fd, &byte, 1) };
        }

        pub(crate) fn drain(&self) {
            let mut buf = [0u8; 64];
            while unsafe { read(self.read_fd, buf.as_mut_ptr(), buf.len()) } > 0 {}
        }
    }

    impl Drop for Waker {
        fn drop(&mut self) {
            unsafe {
                close(self.read_fd);
                close(self.write_fd);
            }
        }
    }
}

#[cfg(not(unix))]
mod sys {
    //! Stub: serving needs a unix readiness primitive. Construction fails
    //! with a clear error instead of the crate failing to compile.

    use super::{Event, Interest};
    use std::io;
    use std::time::Duration;

    fn unsupported() -> io::Error {
        io::Error::new(io::ErrorKind::Unsupported, "metamess serve requires a unix platform")
    }

    pub(crate) struct Poller;

    impl Poller {
        pub(crate) fn new() -> io::Result<Poller> {
            Err(unsupported())
        }
        pub(crate) fn register(&self, _fd: i32, _t: u64, _i: Interest) -> io::Result<()> {
            Err(unsupported())
        }
        pub(crate) fn modify(&self, _fd: i32, _t: u64, _i: Interest) -> io::Result<()> {
            Err(unsupported())
        }
        pub(crate) fn deregister(&self, _fd: i32) -> io::Result<()> {
            Err(unsupported())
        }
        pub(crate) fn wait(&self, _out: &mut Vec<Event>, _t: Option<Duration>) -> io::Result<()> {
            Err(unsupported())
        }
    }

    pub(crate) struct Waker;

    impl Waker {
        pub(crate) fn new() -> io::Result<Waker> {
            Err(unsupported())
        }
        pub(crate) fn fd(&self) -> i32 {
            -1
        }
        pub(crate) fn wake(&self) {}
        pub(crate) fn drain(&self) {}
    }
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;
    use std::time::Duration;

    #[test]
    fn waker_wakes_and_drains() {
        let poller = Poller::new().unwrap();
        let waker = Waker::new().unwrap();
        poller.register(waker.fd(), 7, Interest::READ).unwrap();
        let mut events = Vec::new();

        // no wake → timeout with no events
        poller.wait(&mut events, Some(Duration::from_millis(10))).unwrap();
        assert!(events.is_empty());

        waker.wake();
        poller.wait(&mut events, Some(Duration::from_millis(500))).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);

        // drained → quiet again
        waker.drain();
        poller.wait(&mut events, Some(Duration::from_millis(10))).unwrap();
        assert!(events.is_empty());
    }

    #[test]
    fn socket_readability_is_reported_with_its_token() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server_side, _) = listener.accept().unwrap();

        let poller = Poller::new().unwrap();
        poller.register(server_side.as_raw_fd(), 42, Interest::READ).unwrap();
        let mut events = Vec::new();

        poller.wait(&mut events, Some(Duration::from_millis(10))).unwrap();
        assert!(events.is_empty(), "nothing sent yet");

        client.write_all(b"x").unwrap();
        poller.wait(&mut events, Some(Duration::from_millis(500))).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 42);
        assert!(events[0].readable);

        // interest off → silent even though data is pending
        poller.modify(server_side.as_raw_fd(), 42, Interest::NONE).unwrap();
        poller.wait(&mut events, Some(Duration::from_millis(10))).unwrap();
        assert!(events.iter().all(|e| !e.readable), "read interest was dropped");

        poller.deregister(server_side.as_raw_fd()).unwrap();
    }
}
