//! The open-loop client for `adapt-open`.
//!
//! One thread writes each request at its due time over two pipelined
//! keep-alive connections and reads replies as they arrive. Each request is
//! timed from its due time, so a stall charges its wait to every request
//! scheduled behind it. (`qos_serve::LoadRunner` is not used: its open mode
//! times from the actual send and blocks on each reply, which hides
//! queueing — coordinated omission.) How late the generator itself sent
//! each request is kept as its lag.

use crate::record::Tally;
use servebench::stats::median;
use servebench::wire::{parse_response, write_request, Response};
use servebench::{Req, RequestStream};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// Latency limit a request must meet to count as on time. It sits above
/// the scheduling stalls of the 2-vCPU virtual machines the benchmark was
/// sized on (a busy loop there sees 10–35 ms pauses every few seconds), so
/// that a rung fails on server queueing, not on host noise.
pub const LIMIT_US: f64 = 50_000.0;

/// How long a phase waits for its last answers after its last due time.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(3);

/// Requests a connection carries before the client retires it. Below
/// serve's `max_requests_per_conn` (1024), so the server never closes a
/// connection that still holds unread pipelined requests (which would
/// reset it and lose answers in flight).
const ROTATE_AFTER: u64 = 900;

/// Equal slices of a phase, by due time, whose over-limit shares are
/// combined by their median: one host stall then spoils one slice, not the
/// phase.
const SLICES: usize = 5;

struct Pending {
    index: u64,
    due: Instant,
    sent: Instant,
    req: Req,
    bytes: Vec<u8>,
}

/// A request's outcome and when its answer arrived.
type Done = (Pending, Result<Response, String>, Instant);

/// One pipelined keep-alive connection.
struct Pipe {
    addr: SocketAddr,
    stream: TcpStream,
    out: Vec<u8>,
    written: usize,
    inbuf: Vec<u8>,
    pending: VecDeque<Pending>,
    /// Requests sent on the current connection.
    carried: u64,
    connects: u64,
}

fn open_stream(addr: SocketAddr) -> Result<TcpStream, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_nodelay(true)
        .map_err(|e| format!("nodelay: {e}"))?;
    stream
        .set_nonblocking(true)
        .map_err(|e| format!("nonblocking: {e}"))?;
    Ok(stream)
}

impl Pipe {
    fn new(addr: SocketAddr, carried: u64) -> Result<Self, String> {
        Ok(Self {
            addr,
            stream: open_stream(addr)?,
            out: Vec::new(),
            written: 0,
            inbuf: Vec::new(),
            pending: VecDeque::new(),
            carried,
            connects: 1,
        })
    }

    /// Whether the connection has carried its share and takes no more.
    fn retiring(&self) -> bool {
        self.carried >= ROTATE_AFTER
    }

    /// Replaces the connection and re-sends every pending request on the
    /// new one. Only called when nothing is pending, or when the server
    /// ended the connection with a `Connection: close` answer, after which
    /// it parses nothing more.
    fn reconnect(&mut self) -> Result<(), String> {
        self.stream = open_stream(self.addr)?;
        self.connects += 1;
        self.inbuf.clear();
        self.out.clear();
        self.written = 0;
        self.carried = self.pending.len() as u64;
        for p in &self.pending {
            self.out.extend_from_slice(&p.bytes);
        }
        Ok(())
    }

    /// Fails every pending request and starts over on a new connection.
    fn fail_pending(&mut self, why: &str, done: &mut Vec<Done>) -> Result<(), String> {
        let now = Instant::now();
        for p in self.pending.drain(..) {
            done.push((p, Err(why.to_string()), now));
        }
        self.reconnect()
    }

    fn push(&mut self, p: Pending) {
        self.out.extend_from_slice(&p.bytes);
        self.pending.push_back(p);
        self.carried += 1;
    }

    fn flush(&mut self, done: &mut Vec<Done>) -> Result<(), String> {
        while self.written < self.out.len() {
            match self.stream.write(&self.out[self.written..]) {
                Ok(0) => return self.fail_pending("write returned 0", done),
                Ok(n) => self.written += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return self.fail_pending(&format!("write: {e}"), done),
            }
        }
        if self.written == self.out.len() {
            self.out.clear();
            self.written = 0;
        }
        Ok(())
    }

    fn read(&mut self, done: &mut Vec<Done>) -> Result<(), String> {
        let mut chunk = [0u8; 64 * 1024];
        let mut ended = None;
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    ended = Some("server closed the connection".to_string());
                    break;
                }
                Ok(n) => self.inbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => {
                    ended = Some(format!("read: {e}"));
                    break;
                }
            }
        }
        let now = Instant::now();
        loop {
            match parse_response(&self.inbuf) {
                Ok(Some((resp, used))) => {
                    self.inbuf.drain(..used);
                    let Some(p) = self.pending.pop_front() else {
                        return Err("answer to a request never sent".into());
                    };
                    let close = resp.close;
                    done.push((p, Ok(resp), now));
                    if close {
                        return self.reconnect();
                    }
                }
                Ok(None) => break,
                Err(e) => return self.fail_pending(&e, done),
            }
        }
        match ended {
            Some(why) if !self.pending.is_empty() => self.fail_pending(&why, done),
            Some(_) => self.reconnect(),
            None if self.retiring() && self.pending.is_empty() => self.reconnect(),
            None => Ok(()),
        }
    }
}

/// What one open-loop phase measured beyond its [`Tally`].
#[derive(Debug, Default)]
pub struct PhaseStats {
    /// Requests scheduled.
    pub sent: u64,
    /// Requests over the limit: answered late, refused, failed, wrong or
    /// never answered.
    pub over: u64,
    /// Over-limit share of each slice.
    pub slice_over: Vec<f64>,
    /// How late the generator sent each request, µs, in the order sent.
    pub lag_us: Vec<f64>,
    /// 2xx answers per second that arrived within the phase's window.
    pub achieved_per_s: f64,
    /// Requests in flight at the last due time.
    pub backlog_end: usize,
    /// Requests in flight at the phase's midpoint.
    pub backlog_mid: usize,
}

impl PhaseStats {
    /// The phase's over-limit share: the median of its slices'.
    pub fn over_share(&self) -> f64 {
        median(&self.slice_over)
    }
}

/// The open-loop client: two pipelined connections, one thread.
pub struct OpenLoop {
    pipes: [Pipe; 2],
    origin: Instant,
}

impl OpenLoop {
    /// Connects both pipes. Their rotations are staggered so that one is
    /// always open for new requests.
    ///
    /// # Errors
    ///
    /// A connect failure.
    pub fn new(addr: SocketAddr, origin: Instant) -> Result<Self, String> {
        Ok(Self {
            pipes: [Pipe::new(addr, 0)?, Pipe::new(addr, ROTATE_AFTER / 2)?],
            origin,
        })
    }

    /// TCP connects made so far.
    pub fn connects(&self) -> u64 {
        self.pipes.iter().map(|p| p.connects).sum()
    }

    fn outstanding(&self) -> usize {
        self.pipes.iter().map(|p| p.pending.len()).sum()
    }

    /// Offers `rate` requests per second from `stream` for `duration`,
    /// alternating the pipes, then waits for the answers. Outcomes go to
    /// `tally`, latency measured from each request's due time.
    ///
    /// # Errors
    ///
    /// A connection that cannot be re-established, or an answer with no
    /// request behind it.
    pub fn run(
        &mut self,
        stream: &mut RequestStream<'_>,
        rate: f64,
        duration: Duration,
        tally: &mut Tally,
    ) -> Result<PhaseStats, String> {
        let n = (rate * duration.as_secs_f64()).round().max(1.0) as u64;
        let start = Instant::now() + Duration::from_millis(1);
        let due = |i: u64| start + Duration::from_secs_f64(i as f64 / rate);
        let slice_of = |i: u64| (i as usize * SLICES / n as usize).min(SLICES - 1);
        let window_end = due(n);
        let mut stats = PhaseStats {
            sent: n,
            lag_us: Vec::with_capacity(n as usize),
            ..PhaseStats::default()
        };
        let mut slice_sent = [0u64; SLICES];
        let mut slice_over = [0u64; SLICES];
        let mut in_window = 0u64;
        let mut next = 0u64;
        let mut done: Vec<Done> = Vec::new();
        loop {
            let now = Instant::now();
            while next < n && due(next) <= now {
                let req = stream.next_req();
                let mut bytes = Vec::with_capacity(768);
                write_request(&req, &mut bytes);
                let sent = Instant::now();
                stats
                    .lag_us
                    .push(sent.duration_since(due(next)).as_secs_f64() * 1e6);
                let preferred = (next % 2) as usize;
                let pick = if self.pipes[preferred].retiring() {
                    1 - preferred
                } else {
                    preferred
                };
                let pipe = &mut self.pipes[pick];
                pipe.push(Pending {
                    index: next,
                    due: due(next),
                    sent,
                    req,
                    bytes,
                });
                pipe.flush(&mut done)?;
                slice_sent[slice_of(next)] += 1;
                next += 1;
                if next == n / 2 {
                    stats.backlog_mid = self.outstanding();
                }
                if next == n {
                    stats.backlog_end = self.outstanding();
                }
            }
            for pipe in &mut self.pipes {
                pipe.flush(&mut done)?;
                pipe.read(&mut done)?;
            }
            for (p, outcome, received) in done.drain(..) {
                let latency_us = received.duration_since(p.due).as_secs_f64() * 1e6;
                let ok_before = tally.ok;
                tally.record(
                    &p.req,
                    &p.bytes,
                    outcome,
                    latency_us,
                    (p.sent, received, self.origin),
                );
                let answered_ok = tally.ok > ok_before;
                if answered_ok && received <= window_end {
                    in_window += 1;
                }
                if !answered_ok || latency_us > LIMIT_US {
                    stats.over += 1;
                    slice_over[slice_of(p.index)] += 1;
                }
            }
            let now = Instant::now();
            if next == n && self.outstanding() == 0 {
                break;
            }
            if next == n && now > window_end + DRAIN_TIMEOUT {
                for pipe in &mut self.pipes {
                    pipe.fail_pending("never answered", &mut done)?;
                }
                continue;
            }
            let wait = if next < n {
                due(next).saturating_duration_since(now)
            } else {
                Duration::from_millis(5)
            };
            let mut fds: Vec<sys::PollFd> = self
                .pipes
                .iter()
                .map(|p| sys::PollFd::new(p.stream.as_raw_fd(), p.written < p.out.len()))
                .collect();
            sys::wait(&mut fds, wait).map_err(|e| format!("ppoll: {e}"))?;
        }
        stats.achieved_per_s = in_window as f64 / (window_end - start).as_secs_f64();
        stats.slice_over = slice_sent
            .iter()
            .zip(slice_over)
            .filter(|(sent, _)| **sent > 0)
            .map(|(sent, over)| over as f64 / *sent as f64)
            .collect();
        Ok(stats)
    }
}

/// `ppoll(2)`: `poll` with a nanosecond timeout, so the generator wakes on
/// time for due times well under a millisecond apart.
mod sys {
    use std::time::Duration;

    const POLLIN: i16 = 0x001;
    const POLLOUT: i16 = 0x004;

    #[repr(C)]
    pub struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    impl PollFd {
        pub fn new(fd: i32, want_write: bool) -> Self {
            Self {
                fd,
                events: if want_write { POLLIN | POLLOUT } else { POLLIN },
                revents: 0,
            }
        }
    }

    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: u64,
            timeout: *const Timespec,
            sigmask: *const std::ffi::c_void,
        ) -> i32;
    }

    /// Blocks until a descriptor is ready or `timeout` passes.
    pub fn wait(fds: &mut [PollFd], timeout: Duration) -> std::io::Result<()> {
        let ts = Timespec {
            tv_sec: i64::try_from(timeout.as_secs()).unwrap_or(i64::MAX),
            tv_nsec: i64::from(timeout.subsec_nanos()),
        };
        // SAFETY: `fds` is a live, exclusively borrowed slice of `#[repr(C)]`
        // structs laid out like `struct pollfd`, and `nfds` is its length;
        // `ts` lives across the call and is laid out like the 64-bit
        // `struct timespec`; a null signal mask is allowed and leaves the
        // mask unchanged.
        let rc = unsafe { ppoll(fds.as_mut_ptr(), fds.len() as u64, &ts, std::ptr::null()) };
        if rc < 0 {
            let err = std::io::Error::last_os_error();
            if err.kind() != std::io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
        Ok(())
    }
}
