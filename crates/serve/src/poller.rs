//! Readiness primitives for the serving plane's event loop: a thin,
//! std-only binding to `poll(2)` plus a cross-thread waker.
//!
//! The workspace builds offline with no external crates, so instead of
//! `mio`/`epoll` wrappers this module declares the one libc symbol it
//! needs (`poll` — POSIX, linked into every Rust binary already) behind a
//! safe interface. This is the only `unsafe` in the crate, confined to
//! `sys`: a single FFI call whose argument is a `&mut [PollFd]` slice
//! whose pointer/length pair is valid by construction.
//!
//! The [`Waker`] is a self-connected loopback TCP pair: the poller holds
//! the read end in its `poll` set; workers write one byte to the write end
//! to interrupt a sleeping `poll`. Wakes coalesce — the poller drains the read end each
//! iteration, so N wakes cost at most one syscall storm, never N.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::time::Duration;

/// Readable readiness (or a peer hangup folded in by the caller).
pub const INTEREST_READ: i16 = sys::POLLIN;
/// Writable readiness.
pub const INTEREST_WRITE: i16 = sys::POLLOUT;

/// One registered descriptor + interest set, mirrored from `struct pollfd`.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

impl PollFd {
    /// Registers `source` with the given interest bits.
    pub fn new<F: AsRawFd>(source: &F, interest: i16) -> Self {
        Self {
            fd: source.as_raw_fd(),
            events: interest,
            revents: 0,
        }
    }

    /// Whether the descriptor is readable (or the peer hung up / errored —
    /// both surface through a read attempt, which is where the caller
    /// learns the close reason).
    pub fn readable(&self) -> bool {
        self.revents & (sys::POLLIN | sys::POLLHUP | sys::POLLERR) != 0
    }

    /// Whether the descriptor is writable (write errors also fold in, so a
    /// broken pipe is discovered by the write attempt).
    pub fn writable(&self) -> bool {
        self.revents & (sys::POLLOUT | sys::POLLHUP | sys::POLLERR) != 0
    }

    /// Whether any readiness bit fired.
    pub fn ready(&self) -> bool {
        self.revents != 0
    }
}

/// Blocks until at least one descriptor is ready or `timeout` elapses.
/// Returns the number of ready descriptors (0 on timeout). `EINTR` is
/// retried internally; other errors are returned (the event loop treats
/// them as a brief sleep, never a crash).
///
/// # Errors
///
/// Propagates the OS error from `poll(2)` (already `EINTR`-filtered).
pub fn poll(fds: &mut [PollFd], timeout: Duration) -> std::io::Result<usize> {
    let timeout_ms = i32::try_from(timeout.as_millis()).unwrap_or(i32::MAX);
    loop {
        match sys::poll(fds, timeout_ms) {
            Ok(n) => return Ok(n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
}

/// Cross-thread wakeup for a poller blocked in [`poll`]. Cloneable-by-Arc;
/// see the module docs for the transport.
#[derive(Debug)]
pub struct Waker {
    tx: TcpStream,
}

impl Waker {
    /// Interrupts the poller. Best-effort: a full socket buffer means
    /// wakeups are already pending, which is just as good.
    pub fn wake(&self) {
        let _ = (&self.tx).write(&[1u8]);
    }
}

/// The poller-side read end of a [`Waker`] pair.
#[derive(Debug)]
pub struct WakeReceiver {
    rx: TcpStream,
}

impl WakeReceiver {
    /// Drains every pending wake byte (call once per loop iteration).
    pub fn drain(&mut self) {
        let mut sink = [0u8; 64];
        while matches!(self.rx.read(&mut sink), Ok(n) if n > 0) {}
    }
}

impl AsRawFd for WakeReceiver {
    fn as_raw_fd(&self) -> std::os::fd::RawFd {
        self.rx.as_raw_fd()
    }
}

/// Builds a connected (waker, receiver) pair over an ephemeral loopback
/// socket. Both ends are non-blocking.
///
/// # Errors
///
/// Propagates bind/connect/accept failures.
pub fn wake_pair() -> std::io::Result<(Waker, WakeReceiver)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let tx = TcpStream::connect(listener.local_addr()?)?;
    let (rx, _) = listener.accept()?;
    tx.set_nonblocking(true)?;
    rx.set_nonblocking(true)?;
    tx.set_nodelay(true)?;
    Ok((Waker { tx }, WakeReceiver { rx }))
}

/// The one FFI seam. `poll(2)` is POSIX and present in the libc every Rust
/// program on a unix target already links; no crate dependency needed.
#[allow(unsafe_code)]
mod sys {
    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;

    extern "C" {
        // int poll(struct pollfd *fds, nfds_t nfds, int timeout);
        // nfds_t is unsigned long on every supported unix target.
        #[link_name = "poll"]
        fn libc_poll(fds: *mut super::PollFd, nfds: core::ffi::c_ulong, timeout: i32) -> i32;
    }

    pub fn poll(fds: &mut [super::PollFd], timeout_ms: i32) -> std::io::Result<usize> {
        // SAFETY: `fds` is a live, exclusively-borrowed slice; the pointer
        // and length describe exactly its elements, whose layout matches
        // `struct pollfd` via `#[repr(C)]`. The kernel writes only the
        // `revents` fields within those bounds.
        let rc = unsafe {
            libc_poll(
                fds.as_mut_ptr(),
                fds.len() as core::ffi::c_ulong,
                timeout_ms,
            )
        };
        if rc < 0 {
            Err(std::io::Error::last_os_error())
        } else {
            Ok(rc as usize)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn poll_times_out_on_silence() {
        let (_waker, rx) = wake_pair().unwrap();
        let mut fds = [PollFd::new(&rx, INTEREST_READ)];
        let started = Instant::now();
        let n = poll(&mut fds, Duration::from_millis(40)).unwrap();
        assert_eq!(n, 0, "nothing was ready");
        assert!(started.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn wake_interrupts_a_sleeping_poll() {
        let (waker, rx) = wake_pair().unwrap();
        let handle = std::thread::spawn(move || {
            let mut fds = [PollFd::new(&rx, INTEREST_READ)];
            let started = Instant::now();
            let n = poll(&mut fds, Duration::from_secs(5)).unwrap();
            (n, fds[0].readable(), started.elapsed(), rx)
        });
        std::thread::sleep(Duration::from_millis(30));
        waker.wake();
        let (n, readable, waited, mut rx) = handle.join().unwrap();
        assert_eq!(n, 1);
        assert!(readable);
        assert!(
            waited < Duration::from_secs(2),
            "woke early, not by timeout"
        );
        rx.drain();
    }

    #[test]
    fn wakes_coalesce_through_drain() {
        let (waker, mut rx) = wake_pair().unwrap();
        for _ in 0..100 {
            waker.wake();
        }
        std::thread::sleep(Duration::from_millis(20));
        rx.drain();
        let mut fds = [PollFd::new(&rx, INTEREST_READ)];
        let n = poll(&mut fds, Duration::from_millis(20)).unwrap();
        assert_eq!(n, 0, "drain consumed every pending wake byte");
    }

    #[test]
    fn listener_accept_readiness_is_visible() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap();
        let mut fds = [PollFd::new(&listener, INTEREST_READ)];
        assert_eq!(poll(&mut fds, Duration::from_millis(10)).unwrap(), 0);
        let _client = TcpStream::connect(addr).unwrap();
        let n = poll(&mut fds, Duration::from_secs(2)).unwrap();
        assert_eq!(n, 1);
        assert!(fds[0].readable());
        listener.accept().unwrap();
    }
}
