//! Request encoding: the NDJSON bodies and HTTP/1.1 framing the benchmark
//! sends. Ids use serve's own naming (`user-N`, `svc-N`), the names its
//! `--data` warm-up registers.

use crate::inputs::{Req, RANK_K};
use std::io::Write as _;

/// Appends the request's NDJSON body to `out`.
pub fn write_body(req: &Req, out: &mut Vec<u8>) {
    match req {
        Req::Observe(records) => {
            for r in records {
                let _ = writeln!(
                    out,
                    "{{\"user\":\"user-{}\",\"service\":\"svc-{}\",\"timestamp\":{},\"value\":{:.6}}}",
                    r.user, r.service, r.timestamp, r.value
                );
            }
        }
        Req::Predict(pairs) => {
            for (u, s) in pairs {
                let _ = writeln!(out, "{{\"user\":\"user-{u}\",\"service\":\"svc-{s}\"}}");
            }
        }
        Req::Rank(user) => {
            let _ = writeln!(out, "{{\"user\":\"user-{user}\",\"k\":{RANK_K}}}");
        }
    }
}

/// Appends the full HTTP/1.1 request (keep-alive) to `out`.
pub fn write_request(req: &Req, out: &mut Vec<u8>) {
    let mut body = Vec::with_capacity(512);
    write_body(req, &mut body);
    let _ = write!(
        out,
        "POST {} HTTP/1.1\r\nHost: servebench\r\nContent-Type: application/x-ndjson\r\n\
         Content-Length: {}\r\n\r\n",
        req.kind().path(),
        body.len()
    );
    out.extend_from_slice(&body);
}

/// A bodiless `GET`.
pub fn get(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: servebench\r\n\r\n").into_bytes()
}

/// A parsed HTTP response.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Whether the server ends the connection after this response.
    pub close: bool,
    /// The `x-amf-stage-us` header, when present.
    pub stage_us: Option<String>,
    /// Body bytes.
    pub body: Vec<u8>,
}

/// Tries to parse one response off the front of `buf`: `Ok(None)` until
/// it is complete, else the response and the bytes it used.
///
/// # Errors
///
/// A malformed head or a response without `Content-Length`.
pub fn parse_response(buf: &[u8]) -> Result<Option<(Response, usize)>, String> {
    let Some(head_len) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_len]).map_err(|_| "response head is not UTF-8")?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or_default();
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line {status_line:?}"))?;
    let mut length = None;
    let mut close = false;
    let mut stage_us = None;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            return Err(format!("bad header line {line:?}"));
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            length = Some(value.parse::<usize>().map_err(|_| "bad content-length")?);
        } else if name.eq_ignore_ascii_case("connection") {
            close = value.eq_ignore_ascii_case("close");
        } else if name.eq_ignore_ascii_case("x-amf-stage-us") {
            stage_us = Some(value.to_string());
        }
    }
    let length = length.ok_or("response has no content-length")?;
    let start = head_len + 4;
    if buf.len() < start + length {
        return Ok(None);
    }
    Ok(Some((
        Response {
            status,
            close,
            stage_us,
            body: buf[start..start + length].to_vec(),
        },
        start + length,
    )))
}

/// Per-stage microseconds from an `x-amf-stage-us` header, in the order
/// accept, parse, admission, queue, execute, flush.
pub fn parse_stage_us(header: &str) -> Option<[u64; 6]> {
    const STAGES: [&str; 6] = ["accept", "parse", "admission", "queue", "execute", "flush"];
    let mut out = [0u64; 6];
    let mut seen = 0;
    for part in header.split(';') {
        let (name, value) = part.split_once('=')?;
        let idx = STAGES.iter().position(|s| *s == name.trim())?;
        out[idx] = value.trim().parse().ok()?;
        seen += 1;
    }
    (seen == STAGES.len()).then_some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_split_and_pipelined_responses() {
        let one = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 2\r\n\
x-amf-stage-us: accept=0;parse=1;admission=0;queue=4;execute=30;flush=0\r\nConnection: keep-alive\r\n\r\n{}";
        let mut two = one.to_vec();
        two.extend_from_slice(
            b"HTTP/1.1 503 Service Unavailable\r\nContent-Length: 0\r\nConnection: close\r\n\r\n",
        );
        for cut in 0..one.len() {
            assert!(parse_response(&two[..cut]).unwrap().is_none(), "cut {cut}");
        }
        let (first, used) = parse_response(&two).unwrap().unwrap();
        assert_eq!((first.status, first.close, used), (200, false, one.len()));
        assert_eq!(
            parse_stage_us(first.stage_us.as_deref().unwrap()),
            Some([0, 1, 0, 4, 30, 0])
        );
        let (second, _) = parse_response(&two[used..]).unwrap().unwrap();
        assert_eq!((second.status, second.close), (503, true));
        assert!(parse_response(b"HTTP/1.1 200 OK\r\n\r\n").is_err());
    }

    #[test]
    fn request_framing_counts_body_bytes() {
        let mut out = Vec::new();
        write_request(&Req::Rank(3), &mut out);
        let text = String::from_utf8(out).unwrap();
        let (head, body) = text.split_once("\r\n\r\n").unwrap();
        assert!(head.starts_with("POST /v1/rank HTTP/1.1"));
        assert!(head.contains(&format!("Content-Length: {}", body.len())));
        assert_eq!(body, "{\"user\":\"user-3\",\"k\":5}\n");
    }
}
