//! Minimal, hardened HTTP/1.1 parser/renderer for the serving plane.
//!
//! Rewritten for the readiness-loop I/O model (DESIGN.md §15): parsing is
//! **incremental and buffer-based** instead of stream-based. The poller
//! accumulates whatever bytes `read(2)` produced into a per-connection
//! buffer and calls [`parse_request`] — which either yields a complete
//! request plus the number of bytes it consumed (leftover bytes are the
//! *next* pipelined request), reports that more bytes are needed, or fails
//! with a typed [`HttpError`]. Keep-alive and pipelining fall out of this
//! shape for free; what stays from the original design is the hostility
//! budget — truncated heads, bad `Content-Length`, oversized heads/bodies,
//! and header floods all map to a clean `4xx`, never a panic and never an
//! unbounded allocation.

/// Hard cap on the request head (request line + headers).
pub const MAX_HEAD_BYTES: usize = 8 * 1024;

/// A parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Uppercase method token as sent (`GET`, `POST`, ...).
    pub method: String,
    /// Request path with any query string still attached.
    pub path: String,
    /// HTTP minor version (`1` for `HTTP/1.1`, `0` for `HTTP/1.0`).
    pub minor_version: u8,
    /// Headers with lowercased names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// Raw body bytes (exactly `Content-Length` of them).
    pub body: Vec<u8>,
}

impl Request {
    /// First header value by (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Path without a query string.
    pub fn route(&self) -> &str {
        self.path.split('?').next().unwrap_or(&self.path)
    }

    /// Body as UTF-8.
    ///
    /// # Errors
    ///
    /// Returns [`HttpError::BadRequest`] on invalid UTF-8.
    pub fn body_str(&self) -> Result<&str, HttpError> {
        std::str::from_utf8(&self.body).map_err(|_| HttpError::BadRequest("body is not UTF-8"))
    }

    /// Whether the client asked to keep the connection open after this
    /// request: explicit `Connection: close` wins, explicit
    /// `Connection: keep-alive` wins, else the HTTP/1.1 default is
    /// keep-alive and the HTTP/1.0 default is close.
    pub fn wants_keep_alive(&self) -> bool {
        match self.header("connection") {
            Some(v) if v.eq_ignore_ascii_case("close") => false,
            Some(v) if v.eq_ignore_ascii_case("keep-alive") => true,
            _ => self.minor_version >= 1,
        }
    }
}

/// A request-reading failure, each variant mapping to one response status.
#[derive(Debug)]
pub enum HttpError {
    /// Malformed request (`400`): the static message names the defect.
    BadRequest(&'static str),
    /// Request head exceeded [`MAX_HEAD_BYTES`] (`431`).
    HeadTooLarge,
    /// Declared body exceeds the configured cap (`413`).
    BodyTooLarge,
    /// The request stayed incomplete past the configured read window
    /// (`408`).
    Timeout,
    /// The peer closed before sending anything (no response owed).
    CleanClose,
    /// Transport failure mid-read (no response possible).
    Io(std::io::Error),
}

impl HttpError {
    /// The response status for this error, when one can still be written.
    pub fn status(&self) -> Option<u16> {
        match self {
            HttpError::BadRequest(_) => Some(400),
            HttpError::HeadTooLarge => Some(431),
            HttpError::BodyTooLarge => Some(413),
            HttpError::Timeout => Some(408),
            HttpError::CleanClose | HttpError::Io(_) => None,
        }
    }

    /// Human-readable description for the error body.
    pub fn message(&self) -> &'static str {
        match self {
            HttpError::BadRequest(msg) => msg,
            HttpError::HeadTooLarge => "request head too large",
            HttpError::BodyTooLarge => "request body too large",
            HttpError::Timeout => "request read timed out",
            HttpError::CleanClose => "connection closed",
            HttpError::Io(_) => "i/o error",
        }
    }
}

impl From<std::io::Error> for HttpError {
    fn from(e: std::io::Error) -> Self {
        match e.kind() {
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => HttpError::Timeout,
            _ => HttpError::Io(e),
        }
    }
}

/// Outcome of one [`parse_request`] attempt over a byte buffer.
#[derive(Debug)]
pub enum Parsed {
    /// Not enough bytes yet for one full request; read more and retry.
    Incomplete,
    /// One complete request, plus how many buffer bytes it consumed
    /// (anything after `consumed` is the next pipelined request).
    Complete {
        /// The parsed request.
        request: Request,
        /// Bytes of the buffer belonging to this request.
        consumed: usize,
    },
}

/// Tries to parse one request from the front of `buf`.
///
/// Incremental: returns [`Parsed::Incomplete`] until the head terminator
/// and the declared body have both arrived. Never consumes bytes on its
/// own — the caller drains `consumed` bytes on [`Parsed::Complete`].
///
/// # Errors
///
/// Every malformed or hostile shape returns a typed [`HttpError`]; see the
/// module docs. Errors are sticky for a connection: the buffer is in an
/// unrecoverable framing state and the connection must close after the
/// error response.
pub fn parse_request(buf: &[u8], max_body_bytes: usize) -> Result<Parsed, HttpError> {
    let Some(head_end) = find_head_end(buf) else {
        if buf.len() > MAX_HEAD_BYTES {
            return Err(HttpError::HeadTooLarge);
        }
        return Ok(Parsed::Incomplete);
    };
    if head_end.start > MAX_HEAD_BYTES {
        return Err(HttpError::HeadTooLarge);
    }

    let head = std::str::from_utf8(&buf[..head_end.start])
        .map_err(|_| HttpError::BadRequest("request head is not UTF-8"))?;
    let mut lines = head.split("\r\n").flat_map(|l| l.split('\n'));
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v)) => (m, p, v),
        _ => return Err(HttpError::BadRequest("malformed request line")),
    };
    let minor_version = match version {
        "HTTP/1.1" => 1,
        "HTTP/1.0" => 0,
        v if v.starts_with("HTTP/") => 1,
        _ => return Err(HttpError::BadRequest("malformed HTTP version")),
    };

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or(HttpError::BadRequest("malformed header"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let mut request = Request {
        method: method.to_string(),
        path: path.to_string(),
        minor_version,
        headers,
        body: Vec::new(),
    };

    if request
        .header("transfer-encoding")
        .is_some_and(|v| !v.eq_ignore_ascii_case("identity"))
    {
        return Err(HttpError::BadRequest("transfer-encoding not supported"));
    }

    let content_length = match request.header("content-length") {
        None => 0usize,
        Some(raw) => raw
            .parse::<usize>()
            .map_err(|_| HttpError::BadRequest("bad content-length"))?,
    };
    // Rejected from the declared length, before the body arrives, so an
    // attacker cannot make the plane buffer it first.
    if content_length > max_body_bytes {
        return Err(HttpError::BodyTooLarge);
    }

    let body_start = head_end.end;
    if buf.len() < body_start + content_length {
        return Ok(Parsed::Incomplete);
    }
    request.body = buf[body_start..body_start + content_length].to_vec();
    Ok(Parsed::Complete {
        request,
        consumed: body_start + content_length,
    })
}

struct HeadEnd {
    /// Offset of the first terminator byte (end of the head text).
    start: usize,
    /// Offset of the first body byte.
    end: usize,
}

fn find_head_end(buf: &[u8]) -> Option<HeadEnd> {
    // Scan for whichever terminator comes FIRST — a bare-LF head followed
    // by a pipelined CRLF request must not be framed by the later CRLFCRLF.
    let crlf = buf.windows(4).position(|w| w == b"\r\n\r\n");
    let lf = buf.windows(2).position(|w| w == b"\n\n");
    match (crlf, lf) {
        (Some(c), Some(l)) if l + 1 < c => Some(HeadEnd {
            start: l,
            end: l + 2,
        }),
        (Some(c), _) => Some(HeadEnd {
            start: c,
            end: c + 4,
        }),
        (None, Some(l)) => Some(HeadEnd {
            start: l,
            end: l + 2,
        }),
        (None, None) => None,
    }
}

/// Renders a full response. `keep_alive` selects the `Connection` header;
/// 503s always carry `Retry-After: 1` (the promise the load harness's
/// retry policy relies on).
pub fn render_response(status: u16, content_type: &str, body: &str, keep_alive: bool) -> Vec<u8> {
    render_response_with(status, content_type, body, keep_alive, &[])
}

/// [`render_response`] with extra response headers (trace id, stage
/// breakdown, ...) inserted before the `Connection` header. Header names
/// must be well-formed tokens; values must not contain CR/LF.
pub fn render_response_with(
    status: u16,
    content_type: &str,
    body: &str,
    keep_alive: bool,
    extra_headers: &[(&str, &str)],
) -> Vec<u8> {
    let reason = reason_phrase(status);
    let retry = if status == 503 {
        "Retry-After: 1\r\n"
    } else {
        ""
    };
    let connection = if keep_alive { "keep-alive" } else { "close" };
    // Formatted straight into the output buffer: response rendering is
    // per-request work, so no intermediate head/extras Strings.
    use std::io::Write as _;
    let mut out = Vec::with_capacity(192 + body.len());
    let _ = write!(
        out,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\n{retry}",
        body.len()
    );
    for (name, value) in extra_headers {
        let _ = write!(out, "{name}: {value}\r\n");
    }
    let _ = write!(out, "Connection: {connection}\r\n\r\n");
    out.extend_from_slice(body.as_bytes());
    out
}

/// Standard reason phrase for the statuses the plane emits.
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Error",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_one(raw: &[u8], max_body: usize) -> Result<Request, HttpError> {
        match parse_request(raw, max_body)? {
            Parsed::Complete { request, .. } => Ok(request),
            Parsed::Incomplete => Err(HttpError::BadRequest("incomplete in test")),
        }
    }

    #[test]
    fn parses_a_post_with_body() {
        let raw = b"POST /v1/predict HTTP/1.1\r\nHost: x\r\nContent-Length: 11\r\n\
                    X-Amf-Deadline-Ms: 250\r\n\r\nhello world";
        let req = parse_one(raw, 1024).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.route(), "/v1/predict");
        assert_eq!(req.header("x-amf-deadline-ms"), Some("250"));
        assert_eq!(req.body_str().unwrap(), "hello world");
        assert!(req.wants_keep_alive(), "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn connection_header_controls_keep_alive() {
        let close = parse_one(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n", 1024).unwrap();
        assert!(!close.wants_keep_alive());
        let ka10 = parse_one(b"GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n", 1024).unwrap();
        assert!(ka10.wants_keep_alive());
        let plain10 = parse_one(b"GET / HTTP/1.0\r\n\r\n", 1024).unwrap();
        assert!(!plain10.wants_keep_alive(), "HTTP/1.0 defaults to close");
    }

    #[test]
    fn incremental_parse_reports_incomplete_until_whole() {
        let raw = b"POST /v1/observe HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
        for cut in 0..raw.len() {
            match parse_request(&raw[..cut], 1024) {
                Ok(Parsed::Incomplete) => {}
                other => panic!("prefix {cut} should be incomplete, got {other:?}"),
            }
        }
        let Parsed::Complete { request, consumed } = parse_request(raw, 1024).unwrap() else {
            panic!("full buffer parses");
        };
        assert_eq!(consumed, raw.len());
        assert_eq!(request.body_str().unwrap(), "hello");
    }

    #[test]
    fn pipelined_requests_parse_in_sequence() {
        let raw = b"POST /v1/observe HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi\
                    GET /healthz HTTP/1.1\r\n\r\n";
        let Parsed::Complete { request, consumed } = parse_request(raw, 1024).unwrap() else {
            panic!("first request parses");
        };
        assert_eq!(request.route(), "/v1/observe");
        assert_eq!(request.body_str().unwrap(), "hi");
        let Parsed::Complete {
            request: second,
            consumed: second_len,
        } = parse_request(&raw[consumed..], 1024).unwrap()
        else {
            panic!("second pipelined request parses");
        };
        assert_eq!(second.route(), "/healthz");
        assert_eq!(consumed + second_len, raw.len());
    }

    #[test]
    fn bad_content_length_is_bad_request() {
        for bad in ["abc", "-5", "1e3", ""] {
            let raw = format!("POST / HTTP/1.1\r\nContent-Length: {bad}\r\n\r\n");
            let err = parse_request(raw.as_bytes(), 1024).unwrap_err();
            assert_eq!(err.status(), Some(400), "content-length {bad:?}");
        }
    }

    #[test]
    fn oversized_body_is_payload_too_large_before_body_arrives() {
        let raw = b"POST / HTTP/1.1\r\nContent-Length: 4096\r\n\r\n";
        let err = parse_request(raw, 64).unwrap_err();
        assert_eq!(err.status(), Some(413));
    }

    #[test]
    fn oversized_head_is_431() {
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        raw.extend_from_slice("X-Junk: ".as_bytes());
        raw.extend(std::iter::repeat_n(b'a', MAX_HEAD_BYTES + 1024));
        let err = parse_request(&raw, 1024).unwrap_err();
        assert_eq!(err.status(), Some(431));
    }

    #[test]
    fn garbage_request_line_is_bad_request() {
        for bad in &[
            "\r\n\r\n",
            "GET\r\n\r\n",
            "GET /\r\n\r\n",
            "GET / TELNET\r\n\r\n",
        ] {
            let err = parse_request(bad.as_bytes(), 1024).unwrap_err();
            assert_eq!(err.status(), Some(400), "line {bad:?}");
        }
    }

    #[test]
    fn chunked_encoding_rejected() {
        let raw = b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n";
        let err = parse_request(raw, 1024).unwrap_err();
        assert_eq!(err.status(), Some(400));
    }

    #[test]
    fn render_sets_connection_and_retry_after() {
        let ka = String::from_utf8(render_response(200, "application/json", "{}", true)).unwrap();
        assert!(ka.contains("Connection: keep-alive\r\n"), "{ka}");
        assert!(!ka.contains("Retry-After"), "{ka}");
        let closed =
            String::from_utf8(render_response(503, "application/json", "{}", false)).unwrap();
        assert!(closed.contains("Connection: close\r\n"), "{closed}");
        assert!(closed.contains("Retry-After: 1\r\n"), "{closed}");
        assert!(closed.contains("Content-Length: 2\r\n"), "{closed}");
    }

    #[test]
    fn render_with_extra_headers_places_them_before_connection() {
        let extras = [
            ("x-amf-trace-id", "amf-0000000000000001"),
            ("x-amf-stage-us", "accept=0;parse=3"),
        ];
        let raw = String::from_utf8(render_response_with(
            200,
            "application/json",
            "{}",
            true,
            &extras,
        ))
        .unwrap();
        assert!(
            raw.contains("x-amf-trace-id: amf-0000000000000001\r\n"),
            "{raw}"
        );
        assert!(
            raw.contains("x-amf-stage-us: accept=0;parse=3\r\n"),
            "{raw}"
        );
        let head_end = raw.find("\r\n\r\n").unwrap();
        assert!(raw.find("x-amf-trace-id").unwrap() < head_end);
        assert!(raw.find("x-amf-trace-id").unwrap() < raw.find("Connection:").unwrap());
        // The parameterless variant stays byte-identical to the old output.
        assert_eq!(
            render_response(200, "application/json", "{}", true),
            render_response_with(200, "application/json", "{}", true, &[])
        );
    }
}
