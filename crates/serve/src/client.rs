//! Hardened HTTP client for the load harness: per-request timeouts,
//! bounded retry with exponential backoff + jitter, and client-side
//! network-fault injection.
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
//! * [`NetFault::Blackhole`] — connect, send nothing, and hold the socket
//!   open until the client's own timeout; the server's read deadline must
//!   reap the connection.
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

/// Client-side configuration for the load harness.
#[derive(Debug, Clone, Copy)]
pub struct ClientConfig {
    /// TCP connect timeout.
    pub connect_timeout: Duration,
    /// Socket read/write timeout per request.
    pub request_timeout: Duration,
    /// Retry attempts *beyond* the first, for idempotent requests only.
    pub max_retries: u32,
    /// Base backoff; attempt `n` sleeps `base * 2^n` plus jitter.
    pub backoff_base: Duration,
    /// Optional deadline propagated as `x-amf-deadline-ms`.
    pub deadline_ms: Option<u64>,
}

impl Default for ClientConfig {
    fn default() -> Self {
        Self {
            connect_timeout: Duration::from_secs(1),
            request_timeout: Duration::from_secs(2),
            max_retries: 2,
            backoff_base: Duration::from_millis(25),
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

impl HttpResponse {
    /// Whether the status is 2xx.
    pub fn is_ok(&self) -> bool {
        (200..300).contains(&self.status)
    }

    /// Sum of the server-reported stage breakdown in µs (`None` when the
    /// response carried no parsable `x-amf-stage-us` header).
    pub fn stage_total_us(&self) -> Option<u64> {
        qos_obs::StageClock::parse_header_us(&self.stage_us).map(|us| us.iter().sum())
    }
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

/// One connection-per-request HTTP/1.1 client with fault injection and
/// idempotent-only retry. Each load-generator thread owns one (the jitter
/// RNG state makes it `&mut self`).
#[derive(Debug)]
pub struct ServeClient {
    addr: SocketAddr,
    config: ClientConfig,
    rng: u64,
}

impl ServeClient {
    /// Creates a client for `addr`; `seed` derives backoff jitter (two
    /// clients with the same seed behave identically).
    pub fn new(addr: SocketAddr, config: ClientConfig, seed: u64) -> Self {
        Self {
            addr,
            config,
            rng: seed | 1,
        }
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

    fn attempt(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
        fault: Option<NetFault>,
    ) -> Result<HttpResponse, ClientError> {
        let mut stream = TcpStream::connect_timeout(&self.addr, self.config.connect_timeout)
            .map_err(ClientError::Connect)?;
        stream
            .set_read_timeout(Some(self.config.request_timeout))
            .map_err(ClientError::Io)?;
        stream
            .set_write_timeout(Some(self.config.request_timeout))
            .map_err(ClientError::Io)?;

        let deadline_header = match self.config.deadline_ms {
            Some(ms) => format!("x-amf-deadline-ms: {ms}\r\n"),
            None => String::new(),
        };
        let raw = format!(
            "{method} {path} HTTP/1.1\r\nHost: amf\r\nContent-Length: {}\r\n\
             {deadline_header}Connection: close\r\n\r\n{body}",
            body.len()
        );
        let raw = raw.as_bytes();

        match fault {
            Some(NetFault::ConnReset) => {
                // Early FIN mid-request: send roughly half the head, then
                // close without shutdown ceremony.
                let cut = (raw.len() / 2).max(1).min(raw.len().saturating_sub(1));
                let _ = stream.write_all(&raw[..cut]);
                drop(stream);
                return Err(ClientError::Faulted(NetFault::ConnReset));
            }
            Some(NetFault::Blackhole) => {
                // Hold the connection silent until our own deadline; the
                // server's read timeout must reap it on its side.
                let mut sink = [0u8; 16];
                let _ = stream.read(&mut sink);
                drop(stream);
                return Err(ClientError::Faulted(NetFault::Blackhole));
            }
            Some(NetFault::SlowRead) => {
                // Byte-trickle: the request arrives, eventually. Chunks are
                // sized so the total added delay stays ~tens of ms.
                for chunk in raw.chunks(8.max(raw.len() / 64)) {
                    stream.write_all(chunk).map_err(map_io)?;
                    stream.flush().map_err(map_io)?;
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            None => {
                stream.write_all(raw).map_err(map_io)?;
            }
        }
        stream.flush().map_err(map_io)?;
        let _ = stream.shutdown(std::net::Shutdown::Write);

        let mut response = Vec::new();
        stream.read_to_end(&mut response).map_err(map_io)?;
        parse_response(&response)
    }

    fn backoff(&mut self, attempt: u32) {
        backoff_sleep(&mut self.rng, self.config.backoff_base, attempt);
    }
}

/// Exponential backoff with deterministic jitter: `base * 2^(n-1)` plus
/// up to 50% extra, so synchronized clients de-correlate their retries.
fn backoff_sleep(rng: &mut u64, base: Duration, attempt: u32) {
    let base = base.as_micros() as u64;
    let exp = base.saturating_mul(1u64 << (attempt - 1).min(16));
    // xorshift64* step for the jitter roll.
    *rng ^= *rng << 13;
    *rng ^= *rng >> 7;
    *rng ^= *rng << 17;
    let jitter = *rng % (exp / 2).max(1);
    std::thread::sleep(Duration::from_micros(exp + jitter));
}

/// Persistent-connection HTTP/1.1 client (PR 8): requests ride one
/// keep-alive socket, responses are framed by `Content-Length` (leftover
/// bytes stay buffered for the next response), and the connection is
/// re-established transparently when the server closes it (`Connection:
/// close`, max-requests budget, idle reap). Connection-reuse accounting
/// ([`KeepAliveClient::connects`] / [`KeepAliveClient::reuses`]) feeds the
/// loadtest report's `connects` and `conn_reuses` fields.
///
/// Retry semantics match [`ServeClient`]: idempotent requests only, faults
/// hit the first attempt, 503 is retryable. A failed exchange always drops
/// the connection — a half-read socket cannot be trusted for framing.
#[derive(Debug)]
pub struct KeepAliveClient {
    addr: SocketAddr,
    config: ClientConfig,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
    connects: u64,
    requests_sent: u64,
    rng: u64,
}

impl KeepAliveClient {
    /// Creates a client for `addr`; `seed` derives backoff jitter.
    pub fn new(addr: SocketAddr, config: ClientConfig, seed: u64) -> Self {
        Self {
            addr,
            config,
            stream: None,
            buf: Vec::new(),
            connects: 0,
            requests_sent: 0,
            rng: seed | 1,
        }
    }

    /// TCP connections opened so far.
    pub fn connects(&self) -> u64 {
        self.connects
    }

    /// Requests that reused an already-open connection.
    pub fn reuses(&self) -> u64 {
        self.requests_sent.saturating_sub(self.connects)
    }

    /// Issues `method path` with `body` over the persistent connection.
    /// Same contract as [`ServeClient::request`].
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
                backoff_sleep(&mut self.rng, self.config.backoff_base, attempt);
            }
            let injected = if attempt == 0 { fault } else { None };
            match self.attempt(method, path, body, injected) {
                Ok(mut response) => {
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
    /// error for the whole batch.
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
        self.ensure_connected()?;
        let Some(mut stream) = self.stream.take() else {
            return Err(ClientError::Protocol("no connection"));
        };
        let mut raw = Vec::new();
        for (method, path, body) in requests {
            raw.extend_from_slice(self.render_request(method, path, body).as_bytes());
        }
        self.requests_sent += requests.len() as u64;
        if let Err(e) = stream.write_all(&raw).and_then(|()| stream.flush()) {
            self.buf.clear();
            return Err(map_io(e));
        }
        let mut responses = Vec::with_capacity(requests.len());
        let mut closed = false;
        for _ in requests {
            if closed {
                self.buf.clear();
                return Err(ClientError::Protocol("connection closed mid-pipeline"));
            }
            match read_framed_response(&mut stream, &mut self.buf) {
                Ok((response, close)) => {
                    closed = close;
                    responses.push(response);
                }
                Err(e) => {
                    self.buf.clear();
                    return Err(e);
                }
            }
        }
        if !closed {
            self.stream = Some(stream);
        } else {
            self.buf.clear();
        }
        Ok(responses)
    }

    fn ensure_connected(&mut self) -> Result<(), ClientError> {
        if self.stream.is_some() {
            return Ok(());
        }
        let stream = TcpStream::connect_timeout(&self.addr, self.config.connect_timeout)
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
        self.stream = Some(stream);
        Ok(())
    }

    fn render_request(&self, method: &str, path: &str, body: &str) -> String {
        let deadline_header = match self.config.deadline_ms {
            Some(ms) => format!("x-amf-deadline-ms: {ms}\r\n"),
            None => String::new(),
        };
        format!(
            "{method} {path} HTTP/1.1\r\nHost: amf\r\nContent-Length: {}\r\n\
             {deadline_header}\r\n{body}",
            body.len()
        )
    }

    fn attempt(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
        fault: Option<NetFault>,
    ) -> Result<HttpResponse, ClientError> {
        self.ensure_connected()?;
        let Some(mut stream) = self.stream.take() else {
            return Err(ClientError::Protocol("no connection"));
        };
        self.requests_sent += 1;
        let raw = self.render_request(method, path, body);
        let raw = raw.as_bytes();

        match fault {
            Some(NetFault::ConnReset) => {
                // Early FIN mid-request on a (possibly reused) keep-alive
                // connection — the server must 400-and-close without
                // poisoning other connections.
                let cut = (raw.len() / 2).max(1).min(raw.len().saturating_sub(1));
                let _ = stream.write_all(&raw[..cut]);
                drop(stream);
                self.buf.clear();
                return Err(ClientError::Faulted(NetFault::ConnReset));
            }
            Some(NetFault::Blackhole) => {
                let mut sink = [0u8; 16];
                let _ = stream.read(&mut sink);
                drop(stream);
                self.buf.clear();
                return Err(ClientError::Faulted(NetFault::Blackhole));
            }
            Some(NetFault::SlowRead) => {
                for chunk in raw.chunks(8.max(raw.len() / 64)) {
                    if let Err(e) = stream.write_all(chunk).and_then(|()| stream.flush()) {
                        self.buf.clear();
                        return Err(map_io(e));
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            None => {
                if let Err(e) = stream.write_all(raw).and_then(|()| stream.flush()) {
                    self.buf.clear();
                    return Err(map_io(e));
                }
            }
        }

        match read_framed_response(&mut stream, &mut self.buf) {
            Ok((response, close)) => {
                if !close {
                    self.stream = Some(stream);
                } else {
                    self.buf.clear();
                }
                Ok(response)
            }
            Err(e) => {
                self.buf.clear();
                Err(e)
            }
        }
    }
}

/// Reads exactly one `Content-Length`-framed response; bytes beyond it
/// stay in `buf` for the next response. Returns the response and whether
/// the server announced `Connection: close`.
fn read_framed_response(
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

fn parse_response(raw: &[u8]) -> Result<HttpResponse, ClientError> {
    if raw.is_empty() {
        return Err(ClientError::Protocol("empty response"));
    }
    let text = String::from_utf8_lossy(raw);
    let Some((head, body)) = text.split_once("\r\n\r\n") else {
        return Err(ClientError::Protocol("no header/body separator"));
    };
    let mut parts = head.split_whitespace();
    let version = parts.next().unwrap_or("");
    if !version.starts_with("HTTP/") {
        return Err(ClientError::Protocol("missing HTTP version"));
    }
    let status = parts
        .next()
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or(ClientError::Protocol("unparsable status code"))?;
    let header_value = |name: &str| {
        head.split("\r\n").skip(1).find_map(|line| {
            let (n, v) = line.split_once(':')?;
            n.trim()
                .eq_ignore_ascii_case(name)
                .then(|| v.trim().to_string())
        })
    };
    Ok(HttpResponse {
        status,
        body: body.to_string(),
        retries: 0,
        trace_id: header_value("x-amf-trace-id").unwrap_or_default(),
        stage_us: header_value("x-amf-stage-us").unwrap_or_default(),
    })
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

    #[test]
    fn parses_a_plain_response() {
        let addr = canned_server(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nhi", 1);
        let mut client = ServeClient::new(addr, ClientConfig::default(), 7);
        let response = client.request("GET", "/healthz", "", None, true).unwrap();
        assert_eq!(response.status, 200);
        assert_eq!(response.body, "hi");
        assert_eq!(response.retries, 0);
    }

    #[test]
    fn conn_reset_fault_fails_non_idempotent_without_retry() {
        let addr = canned_server(b"HTTP/1.1 200 OK\r\n\r\n", 4);
        let mut client = ServeClient::new(addr, ClientConfig::default(), 7);
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
        let mut client = ServeClient::new(addr, ClientConfig::default(), 7);
        let response = client
            .request("POST", "/v1/predict", "{}", Some(NetFault::ConnReset), true)
            .unwrap();
        assert_eq!(response.status, 200);
        assert!(response.retries >= 1, "fault consumed the first attempt");
    }

    #[test]
    fn blackhole_is_reaped_by_client_timeout() {
        let addr = canned_server(b"HTTP/1.1 200 OK\r\n\r\n", 1);
        let mut client = ServeClient::new(
            addr,
            ClientConfig {
                request_timeout: Duration::from_millis(100),
                max_retries: 0,
                ..ClientConfig::default()
            },
            7,
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
        let mut client = KeepAliveClient::new(plane.local_addr(), ClientConfig::default(), 7);
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
    fn keep_alive_pipeline_answers_in_order() {
        let plane = live_plane();
        let mut client = KeepAliveClient::new(plane.local_addr(), ClientConfig::default(), 7);
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
        let mut client = KeepAliveClient::new(plane.local_addr(), ClientConfig::default(), 7);
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
        let mut client = ServeClient::new(
            addr,
            ClientConfig {
                max_retries: 1,
                backoff_base: Duration::from_millis(1),
                ..ClientConfig::default()
            },
            7,
        );
        let err = client
            .request("GET", "/healthz", "", None, true)
            .unwrap_err();
        assert!(matches!(err, ClientError::Connect(_)), "{err}");
    }
}
