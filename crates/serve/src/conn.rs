//! Per-connection state machine for the readiness-loop serving plane.
//!
//! One [`ConnState`] tracks everything the poller knows about a client
//! socket: the accumulated read buffer, how many requests have been parsed
//! off it (each gets a per-connection **sequence number**), the responses
//! completed so far, and the write queue. The invariants that make
//! HTTP/1.1 keep-alive + pipelining correct live here:
//!
//! * **In-order responses.** Requests may complete on different workers in
//!   any order; responses are buffered in [`ConnState::complete`] and only
//!   flushed to the socket in sequence-number order.
//! * **Late binding of `Connection:`.** Response bytes are rendered at
//!   flush time, not completion time, so the keep-alive/close decision
//!   sees the *current* drain flag, the per-connection served count vs
//!   `max_requests_per_conn`, and any read-side failure — an in-flight
//!   response during a drain always goes out `Connection: close`.
//! * **Sticky errors.** A malformed request poisons only the framing of
//!   its own connection: the error response is sequenced after the good
//!   responses before it, reads stop, and the connection closes after the
//!   flush — the worker pool never sees the bad bytes.
//! * **Bounded buffering.** Reads pause (TCP backpressure, not rejects)
//!   while a connection has its in-flight quota of requests outstanding
//!   or its read buffer is at the high-water mark, so one greedy pipelined
//!   peer cannot monopolize queue slots or memory.

use crate::http::{self, HttpError, Parsed, Request};
use qos_obs::{StageClock, TraceRecord};
use std::collections::{BTreeMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

/// Pause reads once this much unparsed input is buffered on one
/// connection (≈ 8 pipelined max-size heads; bodies count too).
pub const READ_HIGH_WATER: usize = 256 * 1024;

/// Saturating `later - earlier` in nanoseconds (0 when out of order).
fn duration_ns(earlier: Instant, later: Instant) -> u64 {
    u64::try_from(later.saturating_duration_since(earlier).as_nanos()).unwrap_or(u64::MAX)
}

/// What a finished response should be counted as by the plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RespKind {
    /// 200 family.
    Ok,
    /// Clean 4xx protocol error.
    ClientError,
    /// 503 fast-reject: pending queue full.
    RejOverload,
    /// 503 deadline reject (on arrival or mid-batch).
    RejDeadline,
    /// 503 rejected because the plane is draining.
    RejDraining,
    /// 500 from a caught worker panic.
    Panic,
}

impl RespKind {
    /// Classifies a routed status (worker side; the inline paths pick
    /// their kind explicitly).
    pub fn from_status(status: u16) -> Self {
        match status {
            200..=299 => RespKind::Ok,
            503 => RespKind::RejDeadline,
            500 => RespKind::Panic,
            _ => RespKind::ClientError,
        }
    }
}

/// A finished response waiting for its in-order flush slot.
#[derive(Debug)]
pub struct CompletedResponse {
    /// HTTP status.
    pub status: u16,
    /// Content-Type header value.
    pub content_type: String,
    /// Response body.
    pub body: String,
    /// Whether the *request* asked for keep-alive (the flush decision may
    /// still override to close).
    pub keep_alive_wanted: bool,
    /// Counting bucket.
    pub kind: RespKind,
    /// Trace context, when the request got far enough to be stamped. The
    /// flush stage and final status are filled in at render time.
    pub trace: Option<TraceRecord>,
    /// When the response was parked via [`ConnState::complete`] (start of
    /// the flush stage).
    parked_at: Option<Instant>,
}

impl CompletedResponse {
    /// An untraced response (inline protocol errors, tests).
    pub fn new(
        status: u16,
        content_type: impl Into<String>,
        body: impl Into<String>,
        keep_alive_wanted: bool,
        kind: RespKind,
    ) -> Self {
        Self {
            status,
            content_type: content_type.into(),
            body: body.into(),
            keep_alive_wanted,
            kind,
            trace: None,
            parked_at: None,
        }
    }

    /// Attaches the request's trace context; the response will carry
    /// `x-amf-trace-id` / `x-amf-stage-us` headers when flushed.
    pub fn with_trace(mut self, trace: TraceRecord) -> Self {
        self.trace = Some(trace);
        self
    }
}

/// Read-side timing of one parsed request, measured by the connection
/// state machine and carried into the request's [`StageClock`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ReqTiming {
    /// Connection accept → first byte of this request (non-zero only for a
    /// connection's first request; later requests ride an open socket).
    pub accept_ns: u64,
    /// First buffered byte of this request → parse completion (spans a
    /// slow-trickled arrival).
    pub parse_ns: u64,
}

/// Events produced by feeding freshly-read bytes through the parser.
#[derive(Debug)]
pub enum ReadEvent {
    /// A complete request, with its per-connection sequence number and
    /// read-side stage timing.
    Request(Box<Request>, u64, ReqTiming),
    /// A framing/protocol error; a response slot `seq` was reserved for
    /// the error answer and the connection is now closing.
    Error(HttpError, u64),
}

/// Transport-level outcome of a read pass.
#[derive(Debug, PartialEq, Eq)]
pub enum ReadOutcome {
    /// Connection remains usable (events may still have been produced).
    Continue,
    /// Hard transport error: the plane should drop the connection now.
    HardClose,
}

/// Why one parse pass stopped (drives the EOF disposition).
enum ParseHalt {
    /// Buffer fully consumed.
    Drained,
    /// A request is mid-arrival (head or body incomplete).
    Partial,
    /// In-flight quota or request budget paused parsing with complete
    /// requests still buffered.
    Quota,
    /// A framing error stopped the connection.
    Errored,
}

/// Per-connection state owned by the poller thread (see module docs).
#[derive(Debug)]
pub struct ConnState {
    /// The non-blocking client socket.
    pub stream: TcpStream,
    /// Generation tag carried by jobs/completions so a recycled slot never
    /// receives a stale response (ABA guard).
    pub gen: u64,
    /// Peer address (quota key and trace label).
    pub peer: SocketAddr,
    /// When the connection was accepted.
    pub opened: Instant,
    /// Last moment bytes moved in either direction.
    pub last_activity: Instant,
    /// Responses fully flushed on this connection.
    pub served: u64,
    /// No further reads (EOF, error, drain, or close header decided).
    pub reads_stopped: bool,
    /// Close the socket once every pending response has been written.
    pub close_after_flush: bool,
    read_buf: Vec<u8>,
    write_bufs: VecDeque<Vec<u8>>,
    write_offset: usize,
    completed: BTreeMap<u64, CompletedResponse>,
    next_seq: u64,
    next_flush: u64,
    /// Set while an incomplete request head/body sits in `read_buf`
    /// (slowloris guard: the plane 408s it past the io timeout).
    pub partial_since: Option<Instant>,
    eof_seen: bool,
    /// When the first byte of the request currently at the front of
    /// `read_buf` arrived (drives the parse-stage timing).
    read_started: Option<Instant>,
}

impl ConnState {
    /// Wraps an accepted, non-blocking socket.
    pub fn new(stream: TcpStream, peer: SocketAddr, gen: u64, now: Instant) -> Self {
        Self {
            stream,
            gen,
            peer,
            opened: now,
            last_activity: now,
            served: 0,
            reads_stopped: false,
            close_after_flush: false,
            read_buf: Vec::new(),
            write_bufs: VecDeque::new(),
            write_offset: 0,
            completed: BTreeMap::new(),
            next_seq: 0,
            next_flush: 0,
            partial_since: None,
            eof_seen: false,
            read_started: None,
        }
    }

    /// Requests parsed whose responses have not yet been flushed.
    pub fn outstanding(&self) -> u64 {
        self.next_seq - self.next_flush
    }

    /// Whether the poller should keep POLLIN armed. After EOF the socket
    /// stays permanently "readable", so interest is dropped and any
    /// remaining buffered pipeline is drained via
    /// [`ConnState::has_buffered`] passes instead. A pending partial
    /// request overrides the high-water mark: its remaining bytes must be
    /// allowed in or it could never complete (the parser's 431/413 caps
    /// bound how much that admits).
    pub fn wants_read(&self, max_inflight: u64, budget_left: u64) -> bool {
        !self.reads_stopped
            && !self.eof_seen
            && self.outstanding() < max_inflight
            && budget_left > 0
            && (self.read_buf.len() < READ_HIGH_WATER || self.partial_since.is_some())
    }

    /// Whether buffered bytes are worth another parse pass right now.
    pub fn wants_parse(&self, max_inflight: u64, budget_left: u64) -> bool {
        !self.reads_stopped
            && self.has_buffered()
            && self.outstanding() < max_inflight
            && budget_left > 0
    }

    /// Whether the poller should keep POLLOUT armed.
    pub fn wants_write(&self) -> bool {
        !self.write_bufs.is_empty()
    }

    /// Whether the connection has said everything it ever will and can be
    /// dropped.
    pub fn done(&self) -> bool {
        self.close_after_flush
            && self.outstanding() == 0
            && self.write_bufs.is_empty()
            && self.completed.is_empty()
    }

    /// Reads whatever the socket has, parses up to `budget_left` further
    /// requests (the caller computes it from the per-conn quota and
    /// `max_requests_per_conn`), and reports parsed requests / framing
    /// errors plus whether the transport survived.
    pub fn read_and_parse(
        &mut self,
        max_body_bytes: usize,
        max_inflight: u64,
        budget_left: u64,
        now: Instant,
    ) -> (Vec<ReadEvent>, ReadOutcome) {
        let mut events = Vec::new();
        if self.reads_stopped {
            return (events, ReadOutcome::Continue);
        }
        if !self.fill_read_buf(READ_HIGH_WATER, now) {
            return (events, ReadOutcome::HardClose);
        }
        let mut remaining = budget_left;
        let parse = |conn: &mut Self, remaining: &mut u64, events: &mut Vec<ReadEvent>| {
            let seq_before = conn.next_seq;
            let halt = conn.parse_available(max_body_bytes, max_inflight, *remaining, now, events);
            *remaining = remaining.saturating_sub(conn.next_seq - seq_before);
            halt
        };
        let mut halt = parse(self, &mut remaining, &mut events);
        // One request may legally outgrow the pipeline high-water (bodies
        // run up to max_body_bytes): keep reading for the partial request,
        // bounded by the single-request ceiling the parser itself enforces
        // (431 past the head cap, 413 past the body cap).
        let single_request_cap = (http::MAX_HEAD_BYTES + max_body_bytes).max(READ_HIGH_WATER);
        while matches!(halt, ParseHalt::Partial)
            && !self.eof_seen
            && self.read_buf.len() >= READ_HIGH_WATER
            && self.read_buf.len() < single_request_cap
        {
            let before = self.read_buf.len();
            if !self.fill_read_buf(single_request_cap, now) {
                return (events, ReadOutcome::HardClose);
            }
            if self.read_buf.len() == before {
                break; // would-block: `wants_read`'s partial override re-arms POLLIN
            }
            halt = parse(self, &mut remaining, &mut events);
        }

        if self.eof_seen && !self.reads_stopped {
            match halt {
                // Complete pipelined requests are still buffered behind the
                // in-flight quota: keep parsing them on later passes; the
                // EOF only means no further bytes will arrive.
                ParseHalt::Quota => {}
                ParseHalt::Drained => {
                    self.reads_stopped = true;
                    self.close_after_flush = true;
                }
                ParseHalt::Partial => {
                    // The peer closed mid-request: the leftover bytes can
                    // never frame, so answer 400 like the blocking plane
                    // did.
                    self.reads_stopped = true;
                    self.close_after_flush = true;
                    let seq = self.alloc_seq();
                    events.push(ReadEvent::Error(
                        HttpError::BadRequest("truncated request (early close)"),
                        seq,
                    ));
                    self.read_buf.clear();
                    self.partial_since = None;
                }
                ParseHalt::Errored => {}
            }
        }
        (events, ReadOutcome::Continue)
    }

    /// Reads until would-block, EOF, or `cap` buffered bytes. Returns
    /// `false` on a hard transport error.
    fn fill_read_buf(&mut self, cap: usize, now: Instant) -> bool {
        let mut chunk = [0u8; 16 * 1024];
        while self.read_buf.len() < cap {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.eof_seen = true;
                    return true;
                }
                Ok(n) => {
                    if self.read_buf.is_empty() {
                        self.read_started = Some(now);
                    }
                    self.read_buf.extend_from_slice(&chunk[..n]);
                    self.last_activity = now;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        true
    }

    fn parse_available(
        &mut self,
        max_body_bytes: usize,
        max_inflight: u64,
        mut budget_left: u64,
        now: Instant,
        events: &mut Vec<ReadEvent>,
    ) -> ParseHalt {
        loop {
            if self.reads_stopped {
                return ParseHalt::Errored;
            }
            if self.read_buf.is_empty() {
                return ParseHalt::Drained;
            }
            if self.outstanding() >= max_inflight || budget_left == 0 {
                return ParseHalt::Quota;
            }
            match http::parse_request(&self.read_buf, max_body_bytes) {
                Ok(Parsed::Complete { request, consumed }) => {
                    let started = self.read_started.unwrap_or(now);
                    let timing = ReqTiming {
                        accept_ns: if self.next_seq == 0 {
                            duration_ns(self.opened, started)
                        } else {
                            0
                        },
                        parse_ns: duration_ns(started, now),
                    };
                    self.read_buf.drain(..consumed);
                    self.partial_since = None;
                    // A pipelined successor already buffered starts its
                    // parse clock now; otherwise wait for the next byte.
                    self.read_started = if self.read_buf.is_empty() {
                        None
                    } else {
                        Some(now)
                    };
                    let seq = self.alloc_seq();
                    budget_left -= 1;
                    events.push(ReadEvent::Request(Box::new(request), seq, timing));
                }
                Ok(Parsed::Incomplete) => {
                    if self.partial_since.is_none() {
                        self.partial_since = Some(now);
                    }
                    return ParseHalt::Partial;
                }
                Err(e) => {
                    // Framing is unrecoverable: reserve a response slot for
                    // the error, drop the poisoned bytes, stop reading.
                    let seq = self.alloc_seq();
                    self.reads_stopped = true;
                    self.close_after_flush = true;
                    self.read_buf.clear();
                    self.partial_since = None;
                    events.push(ReadEvent::Error(e, seq));
                    return ParseHalt::Errored;
                }
            }
        }
    }

    fn alloc_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Whether unparsed bytes are sitting in the read buffer (a paused
    /// pipeline or a partial request) — the poller re-runs the parser on
    /// these when quota frees, without waiting for socket readability.
    pub fn has_buffered(&self) -> bool {
        !self.read_buf.is_empty()
    }

    /// Gives up on a partial request that outlived the read window
    /// (slowloris guard): reserves a response slot for the `408`, drops
    /// the stale bytes, and stops reads. Returns the reserved slot.
    pub fn fail_partial(&mut self) -> u64 {
        let seq = self.alloc_seq();
        self.reads_stopped = true;
        self.close_after_flush = true;
        self.read_buf.clear();
        self.partial_since = None;
        seq
    }

    /// Parks a finished response until its in-order flush slot comes up
    /// (starts the flush-stage clock).
    pub fn complete(&mut self, seq: u64, mut response: CompletedResponse) {
        response.parked_at = Some(Instant::now());
        self.completed.insert(seq, response);
    }

    /// Moves every response whose turn has come into the write queue,
    /// rendering headers with the keep-alive decision made *now* (drain
    /// state, request budget, read health). Traced responses pick up their
    /// flush-stage time and final status here and carry the
    /// `x-amf-trace-id` / `x-amf-stage-us` headers. Returns the
    /// (status, kind, trace) of each rendered response for the plane's
    /// counters and flight recorder.
    pub fn flush_ready(
        &mut self,
        draining: bool,
        max_requests_per_conn: u64,
    ) -> Vec<(u16, RespKind, Option<TraceRecord>)> {
        let mut rendered = Vec::new();
        while let Some(response) = self.completed.remove(&self.next_flush) {
            self.next_flush += 1;
            self.served += 1;
            let keep_alive = response.keep_alive_wanted
                && !draining
                && !self.close_after_flush
                && !self.reads_stopped
                && self.served < max_requests_per_conn;
            if !keep_alive {
                self.close_after_flush = true;
                self.reads_stopped = true;
            }
            let mut trace = response.trace;
            if let Some(record) = trace.as_mut() {
                if let Some(parked) = response.parked_at {
                    let flush_ns = u64::try_from(parked.elapsed().as_nanos()).unwrap_or(u64::MAX);
                    record.stages.set(StageClock::FLUSH, flush_ns);
                }
                record.status = response.status;
            }
            let bytes = match trace.as_ref().filter(|t| !t.trace_id.is_empty()) {
                Some(record) => http::render_response_with(
                    response.status,
                    &response.content_type,
                    &response.body,
                    keep_alive,
                    &[
                        ("x-amf-trace-id", record.trace_id.as_str()),
                        ("x-amf-stage-us", record.stages.header_us().as_str()),
                    ],
                ),
                None => http::render_response(
                    response.status,
                    &response.content_type,
                    &response.body,
                    keep_alive,
                ),
            };
            self.write_bufs.push_back(bytes);
            rendered.push((response.status, response.kind, trace));
        }
        rendered
    }

    /// Writes as much of the queued responses as the socket accepts.
    ///
    /// # Errors
    ///
    /// Returns the transport failure (the plane drops the connection).
    pub fn write_some(&mut self, now: Instant) -> std::io::Result<()> {
        while let Some(front) = self.write_bufs.front() {
            match self.stream.write(&front[self.write_offset..]) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::WriteZero,
                        "peer stopped accepting bytes",
                    ))
                }
                Ok(n) => {
                    self.write_offset += n;
                    self.last_activity = now;
                    if self.write_offset >= front.len() {
                        self.write_bufs.pop_front();
                        self.write_offset = 0;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::time::Duration;

    /// Builds a connected (client, server-side ConnState) pair.
    fn pair() -> (TcpStream, ConnState) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, peer) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        (client, ConnState::new(server, peer, 1, Instant::now()))
    }

    fn send(client: &mut TcpStream, bytes: &[u8]) {
        client.write_all(bytes).unwrap();
        client.flush().unwrap();
        // Give loopback a moment to deliver before the nonblocking read.
        std::thread::sleep(Duration::from_millis(20));
    }

    #[test]
    fn pipelined_requests_get_sequential_seqs() {
        let (mut client, mut conn) = pair();
        send(
            &mut client,
            b"GET /healthz HTTP/1.1\r\n\r\nGET /metrics HTTP/1.1\r\n\r\n",
        );
        let (events, outcome) = conn.read_and_parse(1024, 32, 1024, Instant::now());
        assert_eq!(outcome, ReadOutcome::Continue);
        let seqs: Vec<u64> = events
            .iter()
            .map(|e| match e {
                ReadEvent::Request(_, seq, _) => *seq,
                ReadEvent::Error(e, _) => panic!("unexpected error {e:?}"),
            })
            .collect();
        assert_eq!(seqs, vec![0, 1]);
        assert_eq!(conn.outstanding(), 2);
    }

    #[test]
    fn out_of_order_completions_flush_in_order() {
        let (mut client, mut conn) = pair();
        send(
            &mut client,
            b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n",
        );
        let (events, _) = conn.read_and_parse(1024, 32, 1024, Instant::now());
        assert_eq!(events.len(), 2);

        let make = |body: &str| CompletedResponse::new(200, "text/plain", body, true, RespKind::Ok);
        // Second request finishes first; nothing may flush yet.
        conn.complete(1, make("second"));
        assert!(conn.flush_ready(false, 1024).is_empty());
        conn.complete(0, make("first"));
        let rendered = conn.flush_ready(false, 1024);
        assert_eq!(rendered.len(), 2);
        conn.write_some(Instant::now()).unwrap();

        client
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        let mut out = Vec::new();
        let mut chunk = [0u8; 4096];
        while out.len() < 40 {
            let n = client.read(&mut chunk).unwrap();
            if n == 0 {
                break;
            }
            out.extend_from_slice(&chunk[..n]);
        }
        let text = String::from_utf8(out).unwrap();
        let first_at = text.find("first").expect("first response present");
        let second_at = text.find("second").expect("second response present");
        assert!(first_at < second_at, "responses flushed in request order");
    }

    #[test]
    fn max_requests_budget_forces_close_header() {
        let (mut client, mut conn) = pair();
        send(&mut client, b"GET / HTTP/1.1\r\n\r\n");
        let (events, _) = conn.read_and_parse(1024, 32, 1024, Instant::now());
        assert_eq!(events.len(), 1);
        conn.complete(
            0,
            CompletedResponse::new(200, "text/plain", "x", true, RespKind::Ok),
        );
        // Budget of 1 request per connection: response must close.
        conn.flush_ready(false, 1);
        assert!(conn.close_after_flush);
        conn.write_some(Instant::now()).unwrap();
        assert!(conn.done());
    }

    #[test]
    fn traced_response_carries_trace_headers_at_flush() {
        let (mut client, mut conn) = pair();
        send(&mut client, b"GET /healthz HTTP/1.1\r\n\r\n");
        let (events, _) = conn.read_and_parse(1024, 32, 1024, Instant::now());
        assert_eq!(events.len(), 1);
        let mut stages = StageClock::new();
        stages.set(StageClock::EXECUTE, 5_000);
        let trace = TraceRecord {
            trace_id: "req-7".into(),
            endpoint: "/healthz",
            status: 0,
            stages,
            deadline_slack_us: 100,
        };
        conn.complete(
            0,
            CompletedResponse::new(200, "text/plain", "ok", true, RespKind::Ok).with_trace(trace),
        );
        let rendered = conn.flush_ready(false, 1024);
        assert_eq!(rendered.len(), 1);
        let record = rendered[0].2.as_ref().expect("trace record returned");
        assert_eq!(record.status, 200, "status bound at flush");
        conn.write_some(Instant::now()).unwrap();

        client
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        let mut out = Vec::new();
        let mut chunk = [0u8; 4096];
        while !out.windows(4).any(|w| w == b"\r\n\r\n") {
            let n = client.read(&mut chunk).unwrap();
            if n == 0 {
                break;
            }
            out.extend_from_slice(&chunk[..n]);
        }
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("x-amf-trace-id: req-7\r\n"), "{text}");
        assert!(text.contains("x-amf-stage-us: "), "{text}");
        assert!(text.contains("execute=5"), "{text}");
    }

    #[test]
    fn malformed_bytes_reserve_an_error_slot_and_stop_reads() {
        let (mut client, mut conn) = pair();
        send(&mut client, b"NOT HTTP AT ALL\r\n\r\n");
        let (events, outcome) = conn.read_and_parse(1024, 32, 1024, Instant::now());
        assert_eq!(outcome, ReadOutcome::Continue);
        assert!(matches!(events[0], ReadEvent::Error(_, 0)));
        assert!(conn.reads_stopped);
        assert!(conn.close_after_flush);
        // Further bytes are ignored entirely.
        send(&mut client, b"GET / HTTP/1.1\r\n\r\n");
        let (events, _) = conn.read_and_parse(1024, 32, 1024, Instant::now());
        assert!(events.is_empty());
    }

    #[test]
    fn eof_with_partial_request_is_a_truncation_error() {
        let (mut client, mut conn) = pair();
        send(&mut client, b"POST /v1/predict HTTP/1.1\r\nContent-Le");
        client.shutdown(std::net::Shutdown::Write).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        let (events, _) = conn.read_and_parse(1024, 32, 1024, Instant::now());
        assert!(
            matches!(
                events.last(),
                Some(ReadEvent::Error(HttpError::BadRequest(_), _))
            ),
            "{events:?}"
        );
    }

    #[test]
    fn body_larger_than_high_water_still_completes() {
        let (client, mut conn) = pair();
        let body = vec![b'x'; READ_HIGH_WATER + 64 * 1024];
        let mut raw = format!(
            "POST /v1/observe HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        raw.extend_from_slice(&body);
        // Write from a thread: loopback buffers are smaller than the body,
        // so the writer blocks until the server side keeps reading.
        let writer = std::thread::spawn(move || {
            let mut client = client;
            client.write_all(&raw).unwrap();
            client.flush().unwrap();
        });
        let cap = 2 * 1024 * 1024;
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut parsed = Vec::new();
        while parsed.is_empty() && Instant::now() < deadline {
            let (events, outcome) = conn.read_and_parse(cap, 32, 1024, Instant::now());
            assert_eq!(outcome, ReadOutcome::Continue);
            parsed = events;
            std::thread::sleep(Duration::from_millis(5));
        }
        writer.join().unwrap();
        match parsed.first() {
            Some(ReadEvent::Request(request, 0, _)) => {
                assert_eq!(request.body.len(), body.len());
            }
            other => panic!("expected the oversized request to parse: {other:?}"),
        }
    }

    #[test]
    fn quota_pauses_parsing_without_dropping_bytes() {
        let (mut client, mut conn) = pair();
        let mut raw = Vec::new();
        for _ in 0..4 {
            raw.extend_from_slice(b"GET /healthz HTTP/1.1\r\n\r\n");
        }
        send(&mut client, &raw);
        // Quota 2: only two requests parse; the rest stay buffered.
        let (events, _) = conn.read_and_parse(1024, 2, 1024, Instant::now());
        assert_eq!(events.len(), 2);
        assert_eq!(conn.outstanding(), 2);
        assert!(!conn.wants_read(2, 1024), "reads paused at quota");
        // Flushing responses frees quota; parsing resumes on the buffer.
        for seq in 0..2 {
            conn.complete(
                seq,
                CompletedResponse::new(200, "text/plain", "", true, RespKind::Ok),
            );
        }
        conn.flush_ready(false, 1024);
        let (events, _) = conn.read_and_parse(1024, 2, 1024, Instant::now());
        assert_eq!(events.len(), 2, "buffered pipeline resumes");
    }
}
