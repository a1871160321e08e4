//! Readiness polling with `poll(2)` — the heart of the nonblocking serve
//! loop.
//!
//! One [`Poller`] keeps the registered fds as a `pollfd` array and asks
//! the kernel about all of them in one `poll(2)` call per wait; a
//! [`Waker`] lets worker threads nudge the event thread out of its wait
//! when a completed response is ready to write. No async runtime, no new
//! dependencies: the only foreign declaration is `poll` itself, a symbol
//! libstd already links. A wait costs O(registered fds), which the
//! admission cap (`workers + queue_depth`) bounds.
//!
//! Tokens are caller-chosen `u64`s handed back with each event; the
//! server uses monotonically increasing connection tokens so a stale
//! event for a closed connection can never alias a live one.

use std::io::{self, Read as _, Write as _};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::time::Duration;

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

    fn events(self) -> i16 {
        let mut events = 0;
        if self.read {
            events |= sys::POLLIN;
        }
        if self.write {
            events |= sys::POLLOUT;
        }
        events
    }
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

/// The registered fds. Owned by the event thread alone, so it needs no
/// lock; its buffers keep their capacity, so a steady-state wait
/// allocates nothing.
pub(crate) struct Poller {
    fds: Vec<sys::PollFd>,
    /// `tokens[i]` is the token `fds[i]` was registered with.
    tokens: Vec<u64>,
}

impl Poller {
    pub(crate) fn new() -> Poller {
        Poller { fds: Vec::new(), tokens: Vec::new() }
    }

    pub(crate) fn register(&mut self, fd: RawFd, token: u64, interest: Interest) {
        self.fds.push(sys::PollFd { fd, events: interest.events(), revents: 0 });
        self.tokens.push(token);
    }

    /// Changes the interest of a registered fd; an unknown fd is ignored.
    pub(crate) fn modify(&mut self, fd: RawFd, interest: Interest) {
        if let Some(p) = self.fds.iter_mut().find(|p| p.fd == fd) {
            p.events = interest.events();
        }
    }

    pub(crate) fn deregister(&mut self, fd: RawFd) {
        if let Some(i) = self.fds.iter().position(|p| p.fd == fd) {
            self.fds.swap_remove(i);
            self.tokens.swap_remove(i);
        }
    }

    /// Blocks up to `timeout` (forever when `None`), filling `out` with
    /// ready events. `EINTR` returns an empty batch.
    pub(crate) fn wait(
        &mut self,
        out: &mut Vec<Event>,
        timeout: Option<Duration>,
    ) -> io::Result<()> {
        out.clear();
        let timeout_ms = timeout.map(|d| d.as_millis().min(i32::MAX as u128) as i32).unwrap_or(-1);
        if let Err(e) = sys::poll_fds(&mut self.fds, timeout_ms) {
            return if e.kind() == io::ErrorKind::Interrupted { Ok(()) } else { Err(e) };
        }
        for (p, &token) in self.fds.iter().zip(&self.tokens) {
            if p.revents != 0 {
                out.push(Event {
                    token,
                    readable: p.revents & sys::POLLIN != 0,
                    writable: p.revents & sys::POLLOUT != 0,
                    hangup: p.revents & (sys::POLLERR | sys::POLLHUP | sys::POLLNVAL) != 0,
                });
            }
        }
        Ok(())
    }
}

/// A nonblocking socket pair the workers write to wake the event thread.
pub(crate) struct Waker {
    rx: UnixStream,
    tx: UnixStream,
}

impl Waker {
    pub(crate) fn new() -> io::Result<Waker> {
        let (rx, tx) = UnixStream::pair()?;
        rx.set_nonblocking(true)?;
        tx.set_nonblocking(true)?;
        Ok(Waker { rx, tx })
    }

    /// The fd to register with the poller (read interest).
    pub(crate) fn fd(&self) -> RawFd {
        self.rx.as_raw_fd()
    }

    /// Nudges the event thread. Never blocks; a full socket buffer is
    /// still readable, which is all that matters.
    pub(crate) fn wake(&self) {
        let _ = (&self.tx).write(&[1]);
    }

    /// Clears pending wakeups so the next `wake` is level-visible.
    pub(crate) fn drain(&self) {
        let mut buf = [0u8; 64];
        while matches!((&self.rx).read(&mut buf), Ok(n) if n > 0) {}
    }
}

#[allow(unsafe_code)]
mod sys {
    //! The `poll(2)` shim: the `pollfd` layout, its flag bits (the same
    //! values on every unix) and one checked call.

    use std::ffi::{c_int, c_short};
    use std::io;

    pub(super) const POLLIN: c_short = 0x001;
    pub(super) const POLLOUT: c_short = 0x004;
    pub(super) const POLLERR: c_short = 0x008;
    pub(super) const POLLHUP: c_short = 0x010;
    pub(super) const POLLNVAL: c_short = 0x020;

    /// `nfds_t`: `unsigned long` in glibc and musl, `unsigned int` in the
    /// BSDs, macOS and bionic.
    #[cfg(target_os = "linux")]
    type NfdsT = std::ffi::c_ulong;
    #[cfg(not(target_os = "linux"))]
    type NfdsT = std::ffi::c_uint;

    /// `struct pollfd`.
    #[repr(C)]
    pub(super) struct PollFd {
        pub(super) fd: c_int,
        pub(super) events: c_short,
        pub(super) revents: c_short,
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: c_int) -> c_int;
    }

    /// Waits on every entry of `fds`, filling in their `revents`.
    pub(super) fn poll_fds(fds: &mut [PollFd], timeout_ms: c_int) -> io::Result<()> {
        let nfds = NfdsT::try_from(fds.len())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "too many fds to poll"))?;
        // SAFETY: `fds` is an exclusively borrowed slice of `#[repr(C)]`
        // `struct pollfd`s and `nfds` is its length, so the kernel reads
        // and writes (only `revents`) inside it; `poll` keeps no pointer
        // past its return.
        if unsafe { poll(fds.as_mut_ptr(), nfds, timeout_ms) } < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn waker_wakes_and_drains() {
        let mut poller = Poller::new();
        let waker = Waker::new().unwrap();
        poller.register(waker.fd(), 7, Interest::READ);
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

        let mut poller = Poller::new();
        poller.register(server_side.as_raw_fd(), 42, Interest::READ);
        let mut events = Vec::new();

        poller.wait(&mut events, Some(Duration::from_millis(10))).unwrap();
        assert!(events.is_empty(), "nothing sent yet");

        client.write_all(b"x").unwrap();
        poller.wait(&mut events, Some(Duration::from_millis(500))).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 42);
        assert!(events[0].readable);

        // interest off → silent even though data is pending
        poller.modify(server_side.as_raw_fd(), Interest::NONE);
        poller.wait(&mut events, Some(Duration::from_millis(10))).unwrap();
        assert!(events.iter().all(|e| !e.readable), "read interest was dropped");

        poller.deregister(server_side.as_raw_fd());
    }
}
