//! Hardened HTTP client for the load harness: per-request timeouts,
//! bounded retry with exponential backoff + jitter, and client-side
//! network-fault injection.
//!
//! One type, [`ServeClient`], serves both transports. A keep-alive client
//! holds one socket across requests; a per-conn client sends
//! `Connection: close` on every request, so the server closes after each
//! answer and the next request dials again. Either way responses are
//! framed by `Content-Length`, and every dial is counted
//! ([`ServeClient::connects`] / [`ServeClient::reuses`]).
//!
//! Fault injection happens *here*, on the client, because the point of the
//! harness is to measure how the **server** behaves when the network
//! misbehaves — std-only sockets cannot force an RST (`SO_LINGER` is
//! unavailable), so each [`NetFault`] verb is approximated by what the
//! server actually observes on the wire:
//!
//! * [`NetFault::ConnReset`] — write part of the request head, then close
//!   abruptly: the server reads an early FIN mid-request.
//! * [`NetFault::SlowRead`] — trickle the request a few bytes at a time
//!   with sleeps (a classic slowloris-shaped client); the request
//!   eventually completes and must still be answered correctly.
//! * [`NetFault::Blackhole`] — send nothing and hold the socket open until
//!   the client's own timeout; the server's read deadline must reap the
//!   connection.
//!
//! Retries obey the retry-safety table in DESIGN.md §14: only idempotent
//! requests (`predict`, `rank`, `GET`s) may be retried; `observe` mutates
//! the model, so a retried observe would double-count a sample — the
//! harness never retries it, per the `idempotent` flag on
//! [`ServeClient::request`]. Injected faults apply to the *first* attempt
//! only, modelling a transient network fault that a retry rides out.

use amf_core::NetFault;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// TCP connect timeout.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(1);

/// Base backoff: retry `n` sleeps `BACKOFF_BASE * 2^(n-1)` plus jitter.
const BACKOFF_BASE: Duration = Duration::from_millis(25);

/// Client-side configuration for the load harness.
#[derive(Debug, Clone, Copy)]
pub struct ClientConfig {
    /// Socket read/write timeout per request.
    pub request_timeout: Duration,
    /// Retry attempts *beyond* the first, for idempotent requests only.
    pub max_retries: u32,
    /// Optional deadline propagated as `x-amf-deadline-ms`.
    pub deadline_ms: Option<u64>,
}

impl Default for ClientConfig {
    fn default() -> Self {
        Self {
            request_timeout: Duration::from_secs(2),
            max_retries: 2,
            deadline_ms: None,
        }
    }
}

/// A parsed HTTP response (non-2xx statuses are data, not errors — the
/// harness classifies them).
#[derive(Debug, Clone)]
pub struct HttpResponse {
    /// Status code.
    pub status: u16,
    /// Response body.
    pub body: String,
    /// Attempts spent beyond the first (0 = first try succeeded).
    pub retries: u32,
    /// `x-amf-trace-id` echoed by the server (empty when absent).
    pub trace_id: String,
    /// Raw `x-amf-stage-us` breakdown from the server (empty when absent).
    pub stage_us: String,
}

/// Transport-level failure after all permitted attempts.
#[derive(Debug)]
pub enum ClientError {
    /// Could not connect.
    Connect(std::io::Error),
    /// Connection established but the exchange failed.
    Io(std::io::Error),
    /// The socket timed out (includes a black-holed request reaped by the
    /// client's own deadline).
    Timeout,
    /// The response could not be parsed as HTTP.
    Protocol(&'static str),
    /// The request was sacrificed to an injected fault and (being
    /// non-idempotent) could not be retried.
    Faulted(NetFault),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Connect(e) => write!(f, "connect failed: {e}"),
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Timeout => write!(f, "request timed out"),
            ClientError::Protocol(msg) => write!(f, "malformed response: {msg}"),
            ClientError::Faulted(fault) => write!(f, "injected fault: {}", fault.label()),
        }
    }
}

impl std::error::Error for ClientError {}

/// HTTP/1.1 client with fault injection and idempotent-only retry. Each
/// load-generator thread owns one (the jitter RNG state and the open
/// socket make it `&mut self`).
///
/// A keep-alive client reuses its socket until the server closes it
/// (`Connection: close`, max-requests budget, idle reap) and then dials
/// again transparently; bytes read past one response stay buffered for the
/// next. A per-conn client asks the server to close after every response.
/// A failed exchange always drops the connection — a half-read socket
/// cannot be trusted for framing.
#[derive(Debug)]
pub struct ServeClient {
    addr: SocketAddr,
    config: ClientConfig,
    keep_alive: bool,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
    connects: u64,
    requests_sent: u64,
    rng: u64,
}

impl ServeClient {
    /// Creates a client for `addr`: `keep_alive` reuses one connection,
    /// otherwise every request sends `Connection: close`. `seed` derives
    /// backoff jitter (two clients with the same seed behave identically).
    pub fn new(addr: SocketAddr, config: ClientConfig, keep_alive: bool, seed: u64) -> Self {
        Self {
            addr,
            config,
            keep_alive,
            stream: None,
            buf: Vec::new(),
            connects: 0,
            requests_sent: 0,
            rng: seed | 1,
        }
    }

    /// TCP connections opened so far, reconnects and retries included.
    pub fn connects(&self) -> u64 {
        self.connects
    }

    /// Requests sent on an already-open connection (always 0 per-conn).
    pub fn reuses(&self) -> u64 {
        self.requests_sent.saturating_sub(self.connects)
    }

    /// Issues `method path` with `body`, injecting `fault` on the first
    /// attempt. `idempotent` gates retry: non-idempotent requests get
    /// exactly one attempt, whatever happens.
    ///
    /// # Errors
    ///
    /// Returns the last transport failure once attempts are exhausted.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
        fault: Option<NetFault>,
        idempotent: bool,
    ) -> Result<HttpResponse, ClientError> {
        let attempts = if idempotent {
            1 + self.config.max_retries
        } else {
            1
        };
        let mut last_err = None;
        for attempt in 0..attempts {
            if attempt > 0 {
                self.backoff(attempt);
            }
            // A fault models a transient network event: it hits the first
            // attempt only, so a permitted retry goes out clean.
            let injected = if attempt == 0 { fault } else { None };
            match self.attempt(method, path, body, injected) {
                Ok(mut response) => {
                    // 503 is the server shedding load (fast-reject, deadline,
                    // draining): retryable for idempotent requests, final
                    // otherwise.
                    if response.status == 503 && attempt + 1 < attempts {
                        last_err = None;
                        continue;
                    }
                    response.retries = attempt;
                    return Ok(response);
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.unwrap_or(ClientError::Faulted(fault.unwrap_or(NetFault::ConnReset))))
    }

    /// Writes `requests` back-to-back (HTTP pipelining) and reads the
    /// responses in order. Clean path only — no fault injection or retry;
    /// any transport failure drops the connection and surfaces as the
    /// error for the whole batch. Only a keep-alive client can pipeline:
    /// a per-conn server closes after the first response.
    ///
    /// # Errors
    ///
    /// Returns the first transport/protocol failure.
    pub fn pipeline(
        &mut self,
        requests: &[(&str, &str, &str)],
    ) -> Result<Vec<HttpResponse>, ClientError> {
        if requests.is_empty() {
            return Ok(Vec::new());
        }
        let mut stream = self.open_stream()?;
        let mut raw = Vec::new();
        for (method, path, body) in requests {
            raw.extend_from_slice(self.render_request(method, path, body).as_bytes());
        }
        self.requests_sent += requests.len() as u64;
        stream.write_all(&raw).map_err(map_io)?;
        let mut responses = Vec::with_capacity(requests.len());
        let mut closed = false;
        for _ in requests {
            if closed {
                return Err(ClientError::Protocol("connection closed mid-pipeline"));
            }
            let (response, close) = read_response(&mut stream, &mut self.buf)?;
            closed = close;
            responses.push(response);
        }
        self.keep(stream, closed);
        Ok(responses)
    }

    /// The open keep-alive socket, or a freshly dialled one.
    fn open_stream(&mut self) -> Result<TcpStream, ClientError> {
        if let Some(stream) = self.stream.take() {
            return Ok(stream);
        }
        let stream = TcpStream::connect_timeout(&self.addr, CONNECT_TIMEOUT)
            .map_err(ClientError::Connect)?;
        stream
            .set_read_timeout(Some(self.config.request_timeout))
            .map_err(ClientError::Io)?;
        stream
            .set_write_timeout(Some(self.config.request_timeout))
            .map_err(ClientError::Io)?;
        let _ = stream.set_nodelay(true);
        self.connects += 1;
        self.buf.clear();
        Ok(stream)
    }

    /// Keeps `stream` for the next request unless either side closes it.
    fn keep(&mut self, stream: TcpStream, server_closed: bool) {
        if self.keep_alive && !server_closed {
            self.stream = Some(stream);
        }
    }

    fn render_request(&self, method: &str, path: &str, body: &str) -> String {
        let deadline_header = match self.config.deadline_ms {
            Some(ms) => format!("x-amf-deadline-ms: {ms}\r\n"),
            None => String::new(),
        };
        let connection = if self.keep_alive {
            ""
        } else {
            "Connection: close\r\n"
        };
        format!(
            "{method} {path} HTTP/1.1\r\nHost: amf\r\nContent-Length: {}\r\n\
             {deadline_header}{connection}\r\n{body}",
            body.len()
        )
    }

    /// One exchange. Every early return drops `stream`, closing the socket.
    fn attempt(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
        fault: Option<NetFault>,
    ) -> Result<HttpResponse, ClientError> {
        let mut stream = self.open_stream()?;
        self.requests_sent += 1;
        let raw = self.render_request(method, path, body);
        let raw = raw.as_bytes();

        match fault {
            Some(NetFault::ConnReset) => {
                // Early FIN mid-request, possibly on a reused connection:
                // send roughly half the head, then close without shutdown
                // ceremony. The server must 400-and-close without poisoning
                // other connections.
                let cut = (raw.len() / 2).max(1).min(raw.len().saturating_sub(1));
                let _ = stream.write_all(&raw[..cut]);
                return Err(ClientError::Faulted(NetFault::ConnReset));
            }
            Some(NetFault::Blackhole) => {
                // Hold the connection silent until our own deadline; the
                // server's read timeout must reap it on its side.
                let mut sink = [0u8; 16];
                let _ = stream.read(&mut sink);
                return Err(ClientError::Faulted(NetFault::Blackhole));
            }
            Some(NetFault::SlowRead) => {
                // Byte-trickle: the request arrives, eventually. Chunks are
                // sized so the total added delay stays ~tens of ms.
                for chunk in raw.chunks(8.max(raw.len() / 64)) {
                    stream.write_all(chunk).map_err(map_io)?;
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            None => stream.write_all(raw).map_err(map_io)?,
        }

        let (response, close) = read_response(&mut stream, &mut self.buf)?;
        self.keep(stream, close);
        Ok(response)
    }

    /// Exponential backoff with deterministic jitter: `base * 2^(n-1)` plus
    /// up to 50% extra, so synchronized clients de-correlate their retries.
    fn backoff(&mut self, attempt: u32) {
        let base = BACKOFF_BASE.as_micros() as u64;
        let exp = base.saturating_mul(1u64 << (attempt - 1).min(16));
        // xorshift64* step for the jitter roll.
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        let jitter = self.rng % (exp / 2).max(1);
        std::thread::sleep(Duration::from_micros(exp + jitter));
    }
}

/// Reads exactly one `Content-Length`-framed response (a missing header
/// means an empty body); bytes beyond it stay in `buf` for the next
/// response. Returns the response and whether the server announced
/// `Connection: close`.
fn read_response(
    stream: &mut TcpStream,
    buf: &mut Vec<u8>,
) -> Result<(HttpResponse, bool), ClientError> {
    let mut chunk = [0u8; 8 * 1024];
    let (head_end, status, content_length, close, trace_id, stage_us) = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            let head = std::str::from_utf8(&buf[..pos])
                .map_err(|_| ClientError::Protocol("response head is not UTF-8"))?;
            let mut lines = head.split("\r\n");
            let status_line = lines.next().unwrap_or("");
            if !status_line.starts_with("HTTP/") {
                return Err(ClientError::Protocol("missing HTTP version"));
            }
            let status = status_line
                .split_whitespace()
                .nth(1)
                .and_then(|s| s.parse::<u16>().ok())
                .ok_or(ClientError::Protocol("unparsable status code"))?;
            let mut content_length = 0usize;
            let mut close = false;
            let mut trace_id = String::new();
            let mut stage_us = String::new();
            for line in lines {
                let Some((name, value)) = line.split_once(':') else {
                    continue;
                };
                let name = name.trim().to_ascii_lowercase();
                let value = value.trim();
                if name == "content-length" {
                    content_length = value
                        .parse()
                        .map_err(|_| ClientError::Protocol("bad content-length"))?;
                } else if name == "connection" && value.eq_ignore_ascii_case("close") {
                    close = true;
                } else if name == "x-amf-trace-id" {
                    trace_id = value.to_string();
                } else if name == "x-amf-stage-us" {
                    stage_us = value.to_string();
                }
            }
            break (pos + 4, status, content_length, close, trace_id, stage_us);
        }
        let n = stream.read(&mut chunk).map_err(map_io)?;
        if n == 0 {
            return Err(ClientError::Protocol("connection closed before response"));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    while buf.len() < head_end + content_length {
        let n = stream.read(&mut chunk).map_err(map_io)?;
        if n == 0 {
            return Err(ClientError::Protocol("connection closed mid-body"));
        }
        buf.extend_from_slice(&chunk[..n]);
    }
    let body = String::from_utf8_lossy(&buf[head_end..head_end + content_length]).to_string();
    buf.drain(..head_end + content_length);
    Ok((
        HttpResponse {
            status,
            body,
            retries: 0,
            trace_id,
            stage_us,
        },
        close,
    ))
}

fn map_io(e: std::io::Error) -> ClientError {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => ClientError::Timeout,
        _ => ClientError::Io(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// One-shot server returning a canned response.
    fn canned_server(response: &'static [u8], accept_count: usize) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            for _ in 0..accept_count {
                let Ok((mut stream, _)) = listener.accept() else {
                    return;
                };
                let mut sink = [0u8; 4096];
                while let Ok(n) = stream.read(&mut sink) {
                    if n == 0 || sink[..n].windows(4).any(|w| w == b"\r\n\r\n") {
                        break;
                    }
                }
                let _ = stream.write_all(response);
            }
        });
        addr
    }

    /// A per-conn client, the transport the canned server speaks.
    fn per_conn(addr: SocketAddr, config: ClientConfig) -> ServeClient {
        ServeClient::new(addr, config, false, 7)
    }

    #[test]
    fn parses_a_plain_response() {
        let addr = canned_server(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nhi", 1);
        let mut client = per_conn(addr, ClientConfig::default());
        let response = client.request("GET", "/healthz", "", None, true).unwrap();
        assert_eq!(response.status, 200);
        assert_eq!(response.body, "hi");
        assert_eq!(response.retries, 0);
    }

    #[test]
    fn conn_reset_fault_fails_non_idempotent_without_retry() {
        let addr = canned_server(b"HTTP/1.1 200 OK\r\n\r\n", 4);
        let mut client = per_conn(addr, ClientConfig::default());
        let err = client
            .request(
                "POST",
                "/v1/observe",
                "{}",
                Some(NetFault::ConnReset),
                false,
            )
            .unwrap_err();
        assert!(matches!(err, ClientError::Faulted(NetFault::ConnReset)));
    }

    #[test]
    fn idempotent_request_retries_through_a_fault() {
        let addr = canned_server(b"HTTP/1.1 200 OK\r\n\r\nok", 4);
        let mut client = per_conn(addr, ClientConfig::default());
        let response = client
            .request("POST", "/v1/predict", "{}", Some(NetFault::ConnReset), true)
            .unwrap();
        assert_eq!(response.status, 200);
        assert!(response.retries >= 1, "fault consumed the first attempt");
    }

    #[test]
    fn blackhole_is_reaped_by_client_timeout() {
        let addr = canned_server(b"HTTP/1.1 200 OK\r\n\r\n", 1);
        let mut client = per_conn(
            addr,
            ClientConfig {
                request_timeout: Duration::from_millis(100),
                max_retries: 0,
                ..ClientConfig::default()
            },
        );
        let started = std::time::Instant::now();
        let err = client
            .request("POST", "/v1/predict", "{}", Some(NetFault::Blackhole), true)
            .unwrap_err();
        assert!(matches!(err, ClientError::Faulted(NetFault::Blackhole)));
        assert!(started.elapsed() < Duration::from_secs(2), "bounded hold");
    }

    fn live_plane() -> crate::plane::ServePlane {
        let service = std::sync::Arc::new(qos_service::QosPredictionService::new(
            qos_service::ServiceConfig::default(),
        ));
        crate::plane::ServePlane::start(
            "127.0.0.1:0",
            service,
            crate::plane::ServeConfig::default(),
        )
        .expect("bind")
    }

    #[test]
    fn keep_alive_client_reuses_the_connection() {
        let plane = live_plane();
        let mut client = ServeClient::new(plane.local_addr(), ClientConfig::default(), true, 7);
        for round in 0..5 {
            let response = client.request("GET", "/healthz", "", None, true).unwrap();
            assert_eq!(response.status, 200, "round {round}");
        }
        assert_eq!(client.connects(), 1, "one socket for the whole run");
        assert_eq!(client.reuses(), 4);
        let stats = plane.stop();
        assert_eq!(stats.accepted, 1);
        assert_eq!(stats.ok, 5);
    }

    #[test]
    fn per_conn_client_dials_once_per_request() {
        const N: u64 = 5;
        let plane = live_plane();
        let mut client = per_conn(plane.local_addr(), ClientConfig::default());
        for round in 0..N {
            let response = client.request("GET", "/healthz", "", None, true).unwrap();
            assert_eq!(response.status, 200, "round {round}");
        }
        assert_eq!(client.connects(), N, "one dial per request");
        assert_eq!(client.reuses(), 0);
        let stats = plane.stop();
        assert_eq!(stats.accepted, N, "the plane closed after every answer");
        assert_eq!(stats.ok, N);
    }

    #[test]
    fn only_per_conn_requests_carry_connection_close() {
        for keep_alive in [false, true] {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let server = std::thread::spawn(move || {
                let (mut stream, _) = listener.accept().unwrap();
                let mut head = Vec::new();
                let mut byte = [0u8; 1];
                while !head.ends_with(b"\r\n\r\n") && stream.read(&mut byte).unwrap() == 1 {
                    head.push(byte[0]);
                }
                stream
                    .write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n")
                    .unwrap();
                String::from_utf8(head).unwrap()
            });
            let mut client = ServeClient::new(addr, ClientConfig::default(), keep_alive, 7);
            let response = client.request("GET", "/healthz", "", None, true).unwrap();
            assert_eq!(response.status, 200);
            let head = server.join().unwrap();
            assert_eq!(
                head.contains("\r\nConnection: close\r\n"),
                !keep_alive,
                "keep_alive={keep_alive}: {head}"
            );
        }
    }

    #[test]
    fn keep_alive_pipeline_answers_in_order() {
        let plane = live_plane();
        let mut client = ServeClient::new(plane.local_addr(), ClientConfig::default(), true, 7);
        let responses = client
            .pipeline(&[
                ("GET", "/healthz", ""),
                ("GET", "/snapshot.json", ""),
                ("GET", "/healthz", ""),
            ])
            .unwrap();
        assert_eq!(responses.len(), 3);
        assert!(responses.iter().all(|r| r.status == 200));
        assert!(responses[1].body.contains("schema"), "snapshot in slot 1");
        assert_eq!(client.connects(), 1);
        plane.stop();
    }

    #[test]
    fn keep_alive_client_reconnects_after_server_close() {
        let plane = live_plane();
        let mut client = ServeClient::new(plane.local_addr(), ClientConfig::default(), true, 7);
        assert_eq!(
            client
                .request("GET", "/healthz", "", None, true)
                .unwrap()
                .status,
            200
        );
        // A conn-reset fault kills the persistent socket; the next request
        // must transparently open a fresh one.
        let err = client
            .request(
                "POST",
                "/v1/observe",
                "{}",
                Some(NetFault::ConnReset),
                false,
            )
            .unwrap_err();
        assert!(matches!(err, ClientError::Faulted(NetFault::ConnReset)));
        assert_eq!(
            client
                .request("GET", "/healthz", "", None, true)
                .unwrap()
                .status,
            200
        );
        assert!(client.connects() >= 2, "reconnected after the fault");
        let stats = plane.stop();
        assert_eq!(stats.worker_panics, 0);
    }

    #[test]
    fn connect_refused_is_a_connect_error() {
        // Bind-then-drop leaves a port nothing listens on.
        let addr = TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap();
        let mut client = per_conn(
            addr,
            ClientConfig {
                max_retries: 1,
                ..ClientConfig::default()
            },
        );
        let err = client
            .request("GET", "/healthz", "", None, true)
            .unwrap_err();
        assert!(matches!(err, ClientError::Connect(_)), "{err}");
    }
}
