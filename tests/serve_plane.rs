//! Integration suite for the hardened serving plane (DESIGN.md §14–15):
//! exact accept/shed accounting under concurrent producers, observe
//! answers that count only their own records, a
//! malformed-HTTP corpus that must never panic a worker, admission-control
//! fast-rejects under overload, earliest-deadline-first queue ordering,
//! the keep-alive connection lifecycle (pipelining, idle timeout,
//! per-connection request caps, drain), and the load harness driven
//! end-to-end against a live plane with the acceptance fault plan
//! (`conn-reset@0.05,slow-read@0.02`).

use amf_core::FaultPlan;
use qos_serve::{ClientConfig, LoadConfig, LoadRunner, ServeConfig, ServePlane};
use qos_service::{QosPredictionService, QosRecord, ServiceConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn service() -> Arc<QosPredictionService> {
    Arc::new(QosPredictionService::new(ServiceConfig::default()))
}

fn plane(config: ServeConfig) -> ServePlane {
    ServePlane::start("127.0.0.1:0", service(), config).expect("bind plane")
}

/// Sends raw bytes and reads whatever comes back (empty when the server
/// just closes). Half-closes the write side so the keep-alive server
/// answers with `Connection: close` and `read_to_string` terminates.
fn raw_exchange(addr: SocketAddr, raw: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream.write_all(raw).expect("write");
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut response = String::new();
    let _ = stream.read_to_string(&mut response);
    response
}

/// Renders a POST with optional extra header lines (e.g. the deadline).
fn post_raw(path: &str, body: &str, extra_headers: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: t\r\n{extra_headers}Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4)
}

/// Reads exactly one `Content-Length`-framed response off a live
/// keep-alive connection; `buf` carries leftover pipelined bytes between
/// calls. Returns `(head, body)` or `None` on EOF / timeout.
fn read_framed_response(stream: &mut TcpStream, buf: &mut Vec<u8>) -> Option<(String, String)> {
    loop {
        if let Some(head_end) = find_head_end(buf) {
            let head = String::from_utf8_lossy(&buf[..head_end]).to_string();
            let content_length = head
                .lines()
                .find_map(|line| {
                    let (name, value) = line.split_once(':')?;
                    if name.trim().eq_ignore_ascii_case("content-length") {
                        value.trim().parse::<usize>().ok()
                    } else {
                        None
                    }
                })
                .unwrap_or(0);
            while buf.len() < head_end + content_length {
                let mut chunk = [0u8; 4096];
                let n = stream.read(&mut chunk).ok()?;
                if n == 0 {
                    return None;
                }
                buf.extend_from_slice(&chunk[..n]);
            }
            let body =
                String::from_utf8_lossy(&buf[head_end..head_end + content_length]).to_string();
            buf.drain(..head_end + content_length);
            return Some((head, body));
        }
        let mut chunk = [0u8; 4096];
        let n = stream.read(&mut chunk).ok()?;
        if n == 0 {
            return None;
        }
        buf.extend_from_slice(&chunk[..n]);
    }
}

/// A predict body big enough to occupy a worker for a while (the lines are
/// parsed and predicted one by one).
fn slow_predict_body(lines: usize) -> String {
    let mut body = String::with_capacity(lines * 40);
    for i in 0..lines {
        body.push_str(&format!(
            "{{\"user\":\"user-{}\",\"service\":\"svc-{}\"}}\n",
            i % 24,
            i % 32
        ));
    }
    body
}

/// Every sample offered by N concurrent producers to the input queue is
/// accepted, and a concurrent drain applies each one exactly once —
/// nothing lost, nothing double-counted.
#[test]
fn offer_accounting_is_exact_under_concurrent_producers() {
    const PRODUCERS: usize = 8;
    const PER_PRODUCER: u64 = 400;
    let svc = QosPredictionService::new(ServiceConfig::default());

    let accepted = AtomicU64::new(0);
    let shed = AtomicU64::new(0);
    let drained = AtomicU64::new(0);
    let (svc, accepted_ref, shed_ref, drained_ref) = (&svc, &accepted, &shed, &drained);
    std::thread::scope(|scope| {
        for p in 0..PRODUCERS {
            scope.spawn(move || {
                for i in 0..PER_PRODUCER {
                    let record = QosRecord {
                        user: format!("user-{}", p % 5),
                        service: format!("svc-{}", i % 7),
                        timestamp: i,
                        value: 0.25 + (i % 13) as f64 * 0.1,
                    };
                    if svc.offer(record) {
                        accepted_ref.fetch_add(1, Ordering::Relaxed);
                    } else {
                        shed_ref.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
        // A concurrent consumer drains while the producers offer.
        scope.spawn(move || loop {
            let n = svc.drain_inputs() as u64;
            drained_ref.fetch_add(n, Ordering::Relaxed);
            if n == 0
                && accepted_ref.load(Ordering::Relaxed) + shed_ref.load(Ordering::Relaxed)
                    == (PRODUCERS as u64) * PER_PRODUCER
            {
                break;
            }
            std::thread::sleep(Duration::from_micros(200));
        });
    });
    // Producers are done; whatever is still queued drains now.
    drained.fetch_add(svc.drain_inputs() as u64, Ordering::Relaxed);

    let accepted = accepted.load(Ordering::Relaxed);
    let shed = shed.load(Ordering::Relaxed);
    let drained = drained.load(Ordering::Relaxed);
    assert_eq!(
        accepted + shed,
        (PRODUCERS as u64) * PER_PRODUCER,
        "every sample got exactly one verdict"
    );
    assert_eq!(
        drained, accepted,
        "every accepted sample was applied exactly once (no loss, no dup)"
    );
    assert_eq!(shed, 0, "the unbounded queue sheds nothing");
    assert_eq!(drained, 3200);
}

/// Malformed requests get clean 4xx answers — never a worker panic, on any
/// corpus entry. (CI runs this in both the default and single-threaded
/// test lanes.)
#[test]
fn malformed_http_corpus_gets_4xx_never_panics() {
    let plane = plane(ServeConfig {
        max_body_bytes: 1024,
        io_timeout: Duration::from_millis(500),
        ..ServeConfig::default()
    });
    let addr = plane.local_addr();

    // (raw request bytes, expected status-line prefix or "" for
    // connection-closed-without-response)
    let corpus: Vec<(Vec<u8>, &str)> = vec![
        // not HTTP at all
        (b"GARBAGE\r\n\r\n".to_vec(), "HTTP/1.1 400"),
        // request line with too few tokens
        (b"POST /v1/predict\r\n\r\n".to_vec(), "HTTP/1.1 400"),
        // truncated mid-headers (early FIN before the blank line)
        (
            b"POST /v1/predict HTTP/1.1\r\nContent-Le".to_vec(),
            "HTTP/1.1 400",
        ),
        // header without a colon
        (
            b"POST /v1/predict HTTP/1.1\r\nNoColonHere\r\n\r\n".to_vec(),
            "HTTP/1.1 400",
        ),
        // unparsable content-length
        (
            b"POST /v1/predict HTTP/1.1\r\nContent-Length: banana\r\n\r\n".to_vec(),
            "HTTP/1.1 400",
        ),
        // declared body larger than the configured cap -> 413
        (
            b"POST /v1/observe HTTP/1.1\r\nContent-Length: 999999\r\n\r\n".to_vec(),
            "HTTP/1.1 413",
        ),
        // body shorter than content-length, then FIN
        (
            b"POST /v1/predict HTTP/1.1\r\nContent-Length: 50\r\n\r\n{\"user\"".to_vec(),
            "HTTP/1.1 400",
        ),
        // unsupported transfer-encoding
        (
            b"POST /v1/observe HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec(),
            "HTTP/1.1 400",
        ),
        // unknown method
        (b"BREW /v1/rank HTTP/1.1\r\n\r\n".to_vec(), "HTTP/1.1 405"),
        // oversized head -> 431
        (
            {
                let mut raw = b"GET /metrics HTTP/1.1\r\n".to_vec();
                raw.extend(vec![b'a'; 10 * 1024]);
                raw
            },
            "HTTP/1.1 431",
        ),
        // immediate FIN: a clean close, no response owed
        (Vec::new(), ""),
    ];

    for (raw, expected) in &corpus {
        let response = raw_exchange(addr, raw);
        if expected.is_empty() {
            assert!(
                response.is_empty(),
                "clean close should get no response, got: {response}"
            );
        } else {
            assert!(
                response.starts_with(expected),
                "corpus entry {:?}... expected {expected}, got: {}",
                String::from_utf8_lossy(&raw[..raw.len().min(40)]),
                &response[..response.len().min(80)]
            );
        }
    }

    // A well-formed request still works after the hostile parade.
    let body = "{\"user\":\"u\",\"service\":\"s\"}\n";
    let ok = raw_exchange(
        addr,
        format!(
            "POST /v1/predict HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    );
    assert!(ok.starts_with("HTTP/1.1 200"), "{ok}");

    let stats = plane.stop();
    assert_eq!(stats.worker_panics, 0, "no corpus entry may panic a worker");
    assert!(stats.client_errors >= 9, "4xx path exercised: {stats:?}");
}

/// One worker and a one-slot queue, the plane both overload tests use.
fn one_slot_plane() -> ServePlane {
    plane(ServeConfig {
        workers: 1,
        max_pending: 1,
        max_body_bytes: 8 * 1024 * 1024,
        io_timeout: Duration::from_secs(10),
        default_deadline: Duration::from_secs(30),
        max_deadline: Duration::from_secs(30),
        ..ServeConfig::default()
    })
}

/// Occupies the single worker with a batch that takes real time to churn
/// through (each line is parsed and predicted individually), and returns
/// once the worker has popped it: until then the holder occupies the
/// single queue slot. The returned thread yields the holder's response.
fn pin_the_worker(plane: &ServePlane) -> std::thread::JoinHandle<String> {
    let addr = plane.local_addr();
    let holder_body = slow_predict_body(100_000);
    let holder =
        std::thread::spawn(move || raw_exchange(addr, &post_raw("/v1/predict", &holder_body, "")));
    let waited = std::time::Instant::now();
    while plane.stats().dequeued == 0 {
        assert!(
            waited.elapsed() < Duration::from_secs(30),
            "the worker never dequeued the holder"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    holder
}

/// With one worker and a one-slot queue, a long-running batch saturates
/// the plane and later queued arrivals are fast-rejected 503 by the
/// acceptor.
#[test]
fn overload_fast_rejects_from_the_acceptor() {
    let plane = one_slot_plane();
    let addr = plane.local_addr();
    let holder = pin_the_worker(&plane);

    // Four CONCURRENT probes: the first to reach the acceptor takes the
    // single queue slot (and waits for the worker); the rest find the
    // queue full and must be answered 503 inline by the acceptor. The
    // probes are `/metrics` scrapes because short reads never queue.
    let probes: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(move || {
                raw_exchange(addr, b"GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n")
            })
        })
        .collect();
    let responses: Vec<String> = probes.into_iter().map(|p| p.join().unwrap()).collect();
    let rejected = responses
        .iter()
        .filter(|r| r.starts_with("HTTP/1.1 503"))
        .count();
    let served = responses
        .iter()
        .filter(|r| r.starts_with("HTTP/1.1 200"))
        .count();
    for response in responses.iter().filter(|r| r.starts_with("HTTP/1.1 503")) {
        assert!(response.contains("Retry-After"), "{response}");
    }
    let holder_response = holder.join().unwrap();
    assert!(holder_response.starts_with("HTTP/1.1 200"), "holder: {}", {
        &holder_response[..holder_response.len().min(80)]
    });
    let stats = plane.stop();
    assert!(
        rejected >= 1,
        "expected at least one overload fast-reject: {responses:?}"
    );
    assert!(
        served >= 1,
        "the queued probe is flushed, not dropped: {responses:?}"
    );
    assert!(stats.rejected_overload >= 1, "{stats:?}");
    assert_eq!(stats.worker_panics, 0);
}

/// Short reads never take a queue slot, so a full queue cannot shed them:
/// while the single worker is pinned and a queued scrape fills the one
/// slot, a short predict and `/healthz` are answered 200 from the poller
/// and `rejected_overload` does not move. A second scrape then shows the
/// queue was full all along.
#[test]
fn short_reads_are_answered_while_the_queue_is_full() {
    let plane = one_slot_plane();
    let addr = plane.local_addr();
    let holder = pin_the_worker(&plane);
    let queued =
        std::thread::spawn(move || raw_exchange(addr, b"GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n"));
    let waited = std::time::Instant::now();
    while plane.stats().requests < 2 {
        assert!(
            waited.elapsed() < Duration::from_secs(30),
            "the queued scrape was never admitted"
        );
        std::thread::sleep(Duration::from_millis(1));
    }

    let predict = raw_exchange(
        addr,
        &post_raw("/v1/predict", "{\"user\":\"u\",\"service\":\"s\"}\n", ""),
    );
    assert!(predict.starts_with("HTTP/1.1 200"), "{predict}");
    let health = raw_exchange(addr, b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
    assert!(health.starts_with("HTTP/1.1 200"), "{health}");
    assert_eq!(plane.stats().rejected_overload, 0);

    let shed = raw_exchange(addr, b"GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
    assert!(shed.starts_with("HTTP/1.1 503"), "{shed}");
    assert!(queued.join().unwrap().starts_with("HTTP/1.1 200"));
    assert!(holder.join().unwrap().starts_with("HTTP/1.1 200"));
    let stats = plane.stop();
    assert_eq!(stats.rejected_overload, 1, "{stats:?}");
    assert_eq!(stats.worker_panics, 0);
}

/// EDF ordering end-to-end: while the single worker is pinned, a
/// later-arriving tight-deadline request overtakes an earlier
/// slack-deadline request in the queue and is answered first. The probes
/// carry multi-thousand-line bodies so that worker processing order (the
/// thing EDF controls) dominates response-delivery jitter through the
/// shared poller thread — with one-line probes the two completions land
/// ~100 us apart and the client-side clocks cannot resolve queue order.
#[test]
fn tight_deadline_overtakes_slack_in_the_edf_queue() {
    let plane = plane(ServeConfig {
        workers: 1,
        max_pending: 8,
        max_body_bytes: 8 * 1024 * 1024,
        io_timeout: Duration::from_secs(10),
        default_deadline: Duration::from_secs(30),
        max_deadline: Duration::from_secs(60),
        ..ServeConfig::default()
    });
    let addr = plane.local_addr();

    // Pin the worker long enough for both probes to be queued.
    let holder_body = slow_predict_body(100_000);
    let holder =
        std::thread::spawn(move || raw_exchange(addr, &post_raw("/v1/predict", &holder_body, "")));
    // Wait until the holder's multi-MiB body is fully parsed and admitted
    // (the free worker pops it immediately after). A fixed sleep is not
    // enough: on a loaded host the upload alone can outlast it, and a
    // probe that beats the holder to the worker voids the scenario.
    let begun = std::time::Instant::now();
    while plane.stats().requests < 1 {
        assert!(
            begun.elapsed() < Duration::from_secs(30),
            "holder request never parsed"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    std::thread::sleep(Duration::from_millis(50));

    let probe_body = slow_predict_body(20_000);
    // Slack (30 s budget) enqueues FIRST...
    let slack = {
        let body = probe_body.clone();
        std::thread::spawn(move || {
            let response = raw_exchange(
                addr,
                &post_raw("/v1/predict", &body, "x-amf-deadline-ms: 30000\r\n"),
            );
            (std::time::Instant::now(), response)
        })
    };
    // Same admission handshake for the slack probe before tight is sent.
    let begun = std::time::Instant::now();
    while plane.stats().requests < 2 {
        assert!(
            begun.elapsed() < Duration::from_secs(30),
            "slack request never parsed"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    // ...then tight (8 s budget) arrives second but must pop first.
    let tight = {
        let body = probe_body;
        std::thread::spawn(move || {
            let response = raw_exchange(
                addr,
                &post_raw("/v1/predict", &body, "x-amf-deadline-ms: 8000\r\n"),
            );
            (std::time::Instant::now(), response)
        })
    };

    let (tight_done, tight_response) = tight.join().unwrap();
    let (slack_done, slack_response) = slack.join().unwrap();
    let _ = holder.join();
    let stats = plane.stop();

    assert!(
        tight_response.starts_with("HTTP/1.1 200"),
        "{tight_response}"
    );
    assert!(
        slack_response.starts_with("HTTP/1.1 200"),
        "{slack_response}"
    );
    assert!(
        tight_done < slack_done,
        "tight deadline must be served before slack despite arriving later"
    );
    assert_eq!(stats.worker_panics, 0);
}

#[test]
fn zero_deadline_is_fast_rejected_on_arrival() {
    let plane = plane(ServeConfig::default());
    let addr = plane.local_addr();
    let body = "{\"user\":\"u\",\"service\":\"s\"}\n";
    let response = raw_exchange(
        addr,
        &post_raw("/v1/predict", body, "x-amf-deadline-ms: 0\r\n"),
    );
    assert!(response.starts_with("HTTP/1.1 503"), "{response}");
    assert!(response.contains("deadline exceeded"), "{response}");
    let stats = plane.stop();
    assert_eq!(stats.rejected_deadline, 1, "{stats:?}");
    assert_eq!(stats.predictions, 0, "no model work for a dead request");
}

/// Keep-alive lifecycle: three requests pipelined in one write come back
/// in order on the same connection, each framed by Content-Length.
#[test]
fn pipelined_requests_are_answered_in_order_on_one_connection() {
    let plane = plane(ServeConfig::default());
    let addr = plane.local_addr();

    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut batch = Vec::new();
    for user in ["alpha", "beta", "gamma"] {
        let body = format!("{{\"user\":\"{user}\",\"service\":\"s\"}}\n");
        batch.extend_from_slice(&post_raw("/v1/predict", &body, ""));
    }
    stream.write_all(&batch).unwrap();

    let mut buf = Vec::new();
    for user in ["alpha", "beta", "gamma"] {
        let (head, body) = read_framed_response(&mut stream, &mut buf)
            .unwrap_or_else(|| panic!("missing response for {user}"));
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(body.contains(user), "out of order: wanted {user} in {body}");
    }

    let stats = plane.stop();
    assert_eq!(stats.accepted, 1, "one connection served all three");
    assert_eq!(stats.ok, 3, "{stats:?}");
    assert_eq!(stats.worker_panics, 0);
}

/// The `queue` stage of a response head's `x-amf-stage-us`, in µs.
fn queue_stage_us(head: &str) -> u64 {
    head.lines()
        .find_map(|line| line.strip_prefix("x-amf-stage-us: "))
        .and_then(|stages| stages.split(';').find_map(|s| s.strip_prefix("queue=")))
        .and_then(|us| us.trim().parse().ok())
        .unwrap_or_else(|| panic!("no queue stage: {head}"))
}

/// Short reads answered on the poller and queued requests answered by a
/// worker share one connection's response order. Pipelined in one write: a
/// predict batch over the inline bound (queued behind nothing, but slow on
/// the single worker), a short predict and `/healthz` (both inline, so
/// ready long before the batch), and `/metrics` (queued behind the batch).
/// The answers come back in request order, the inline ones read `queue=0`,
/// and only the two queued requests count as dequeued.
#[test]
fn inline_and_queued_answers_keep_request_order_on_one_connection() {
    let plane = plane(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let mut stream = TcpStream::connect(plane.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut batch = post_raw("/v1/predict", &slow_predict_body(2_000), "");
    batch.extend_from_slice(&post_raw(
        "/v1/predict",
        "{\"user\":\"short\",\"service\":\"s\"}\n",
        "",
    ));
    batch.extend_from_slice(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
    batch.extend_from_slice(b"GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
    stream.write_all(&batch).unwrap();

    let mut buf = Vec::new();
    let mut heads = Vec::new();
    let needles = [
        "\"user\":\"user-23\"",
        "\"user\":\"short\"",
        "\"status\":\"ok\"",
        "amf_serve_requests",
    ];
    for needle in needles {
        let (head, body) = read_framed_response(&mut stream, &mut buf)
            .unwrap_or_else(|| panic!("no answer carrying {needle}"));
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(
            body.contains(needle),
            "out of order: wanted {needle} in {body}"
        );
        heads.push(head);
    }
    assert_eq!(queue_stage_us(&heads[1]), 0, "{}", heads[1]);
    assert_eq!(queue_stage_us(&heads[2]), 0, "{}", heads[2]);
    assert!(queue_stage_us(&heads[3]) > 0, "{}", heads[3]);

    let stats = plane.stop();
    assert_eq!(stats.dequeued, 2, "{stats:?}");
    assert_eq!(stats.ok, 4, "{stats:?}");
    assert_eq!(stats.worker_panics, 0);
}

/// An idle persistent connection is closed by the server once
/// `idle_timeout` elapses, and counted as such.
#[test]
fn idle_keep_alive_connection_is_reaped() {
    let plane = plane(ServeConfig {
        idle_timeout: Duration::from_millis(200),
        ..ServeConfig::default()
    });
    let addr = plane.local_addr();

    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    let mut buf = Vec::new();
    let (head, _) = read_framed_response(&mut stream, &mut buf).expect("first response");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");

    // Now go quiet: the server must close the connection, observed as EOF.
    let mut probe = [0u8; 64];
    let n = stream.read(&mut probe).expect("EOF, not a read error");
    assert_eq!(n, 0, "server should close the idle connection");

    let stats = plane.stop();
    assert!(stats.idle_closed >= 1, "{stats:?}");
    assert_eq!(stats.worker_panics, 0);
}

/// `max_requests_per_conn` bounds one connection's lifetime: the last
/// budgeted response carries `Connection: close` and the socket closes,
/// requests beyond the budget on that connection are never served.
#[test]
fn max_requests_per_conn_is_enforced() {
    let plane = plane(ServeConfig {
        max_requests_per_conn: 2,
        ..ServeConfig::default()
    });
    let addr = plane.local_addr();

    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut batch = Vec::new();
    for _ in 0..3 {
        batch.extend_from_slice(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
    }
    stream.write_all(&batch).unwrap();

    let mut buf = Vec::new();
    let (first, _) = read_framed_response(&mut stream, &mut buf).expect("first");
    assert!(first.starts_with("HTTP/1.1 200"), "{first}");
    let (second, _) = read_framed_response(&mut stream, &mut buf).expect("second");
    assert!(second.starts_with("HTTP/1.1 200"), "{second}");
    assert!(
        second.to_ascii_lowercase().contains("connection: close"),
        "budget-exhausting response must announce the close: {second}"
    );
    assert!(
        read_framed_response(&mut stream, &mut buf).is_none(),
        "third request is beyond the per-connection budget"
    );

    let stats = plane.stop();
    assert_eq!(stats.ok, 2, "{stats:?}");
    assert_eq!(stats.worker_panics, 0);
}

/// A malformed second request on a reused connection gets a clean 400 and
/// closes that connection — without poisoning a worker: the next
/// connection is served normally.
#[test]
fn malformed_second_request_on_reused_connection_is_contained() {
    let plane = plane(ServeConfig::default());
    let addr = plane.local_addr();

    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    let mut buf = Vec::new();
    let (first, _) = read_framed_response(&mut stream, &mut buf).expect("first response");
    assert!(first.starts_with("HTTP/1.1 200"), "{first}");

    stream.write_all(b"GARBAGE SECOND REQUEST\r\n\r\n").unwrap();
    let (second, _) = read_framed_response(&mut stream, &mut buf).expect("error response");
    assert!(second.starts_with("HTTP/1.1 400"), "{second}");
    assert!(
        read_framed_response(&mut stream, &mut buf).is_none(),
        "framing is sticky: the connection closes after the 400"
    );

    // The plane is still healthy for fresh connections.
    let after = raw_exchange(addr, b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
    assert!(after.starts_with("HTTP/1.1 200"), "{after}");

    let stats = plane.stop();
    assert_eq!(stats.ok, 2, "{stats:?}");
    assert_eq!(stats.client_errors, 1, "{stats:?}");
    assert_eq!(stats.worker_panics, 0);
}

/// The acceptance gate: a mixed workload under
/// `conn-reset@0.05,slow-read@0.02` completes with zero server panics and
/// every logical request accounted for — a valid tagged prediction or a
/// clean protocol error.
#[test]
fn loadtest_under_acceptance_fault_plan_is_clean() {
    let plane = plane(ServeConfig::default());
    let addr = plane.local_addr();

    let plan = FaultPlan::parse("conn-reset@0.05,slow-read@0.02").expect("acceptance spec parses");
    let config = LoadConfig {
        concurrency: 4,
        requests: 160,
        seed: 7,
        fault_plan: Some(plan),
        client: ClientConfig {
            request_timeout: Duration::from_millis(800),
            max_retries: 2,
            ..ClientConfig::default()
        },
        ..LoadConfig::default()
    };
    let report = LoadRunner::new(config).run(addr, "acceptance");

    // Exact outcome accounting: every request is ok, a clean HTTP error,
    // or a transport failure (which includes the sacrificed fault
    // injections) — nothing vanishes.
    let accounted = report.ok
        + report.http_4xx
        + report.http_503
        + report.http_5xx_other
        + report.transport_errors;
    assert_eq!(accounted, report.requests, "{report:?}");
    assert!(report.ok > 0, "the plane answered under faults: {report:?}");
    assert_eq!(report.server_worker_panics, 0, "{report:?}");
    assert!(
        report.faults_conn_reset + report.faults_slow_read > 0,
        "the plan actually injected faults: {report:?}"
    );
    // Predictions that did come back were all tagged + finite (the runner
    // only counts entries carrying a source label and value).
    assert!(report.predictions > 0, "{report:?}");
    // Per-conn: every attempt, retries included, dials its own connection.
    assert_eq!(report.transport, "per-conn");
    assert_eq!(report.conn_reuses, 0, "{report:?}");
    assert!(
        report.connects >= report.requests + report.retries,
        "{report:?}"
    );

    let stats = plane.stop();
    assert_eq!(stats.worker_panics, 0);
}

/// The acceptance fault plan over the keep-alive transport: resets force
/// reconnects, pipelined batches survive around the faulted requests, and
/// the server stays panic-free with every request accounted for.
#[test]
fn keep_alive_loadtest_under_fault_plan_is_clean() {
    let plane = plane(ServeConfig::default());
    let addr = plane.local_addr();

    let plan = FaultPlan::parse("conn-reset@0.05,slow-read@0.02").expect("acceptance spec parses");
    let config = LoadConfig {
        concurrency: 4,
        requests: 160,
        seed: 7,
        fault_plan: Some(plan),
        keep_alive: true,
        pipeline: 4,
        client: ClientConfig {
            request_timeout: Duration::from_millis(800),
            max_retries: 2,
            ..ClientConfig::default()
        },
        ..LoadConfig::default()
    };
    let report = LoadRunner::new(config).run(addr, "acceptance-keepalive");

    let accounted = report.ok
        + report.http_4xx
        + report.http_503
        + report.http_5xx_other
        + report.transport_errors;
    assert_eq!(accounted, report.requests, "{report:?}");
    assert!(report.ok > 0, "{report:?}");
    assert_eq!(report.server_worker_panics, 0, "{report:?}");
    assert_eq!(report.transport, "keep-alive");
    assert!(
        report.conn_reuses > 0,
        "persistent connections were actually reused: {report:?}"
    );
    // Faults force reconnects, so connects > workers but far fewer than
    // one per request.
    assert!(report.connects < report.requests, "{report:?}");

    let stats = plane.stop();
    assert_eq!(stats.worker_panics, 0);
}

/// Graceful drain under live fire: stop() returns promptly while clients
/// are mid-flight, flushing rather than dropping accepted work.
#[test]
fn drain_under_load_terminates_promptly() {
    let plane = plane(ServeConfig::default());
    let addr = plane.local_addr();

    let stop_flag = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let shooters: Vec<_> = (0..3)
        .map(|_| {
            let flag = Arc::clone(&stop_flag);
            std::thread::spawn(move || {
                let body = "{\"user\":\"u\",\"service\":\"s\"}\n";
                let raw = format!(
                    "POST /v1/predict HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
                    body.len()
                );
                while !flag.load(Ordering::Relaxed) {
                    // Responses may be 200 or 503 (draining); both are
                    // clean. Connection errors once the listener closes are
                    // expected too.
                    if TcpStream::connect(addr)
                        .map(|mut s| {
                            let _ = s.write_all(raw.as_bytes());
                            let mut out = String::new();
                            let _ = s.read_to_string(&mut out);
                        })
                        .is_err()
                    {
                        break;
                    }
                }
            })
        })
        .collect();

    std::thread::sleep(Duration::from_millis(150));
    let started = std::time::Instant::now();
    let stats = plane.stop();
    let drain_time = started.elapsed();
    stop_flag.store(true, Ordering::Relaxed);
    for shooter in shooters {
        let _ = shooter.join();
    }

    assert!(
        drain_time < Duration::from_secs(10),
        "drain took {drain_time:?}"
    );
    assert_eq!(stats.worker_panics, 0);
    assert!(
        stats.ok > 0,
        "served real traffic before draining: {stats:?}"
    );
}

/// The count under `key` in a compact JSON response body.
fn json_count(response: &str, key: &str) -> u64 {
    let needle = format!("\"{key}\":");
    let at = response
        .find(&needle)
        .unwrap_or_else(|| panic!("no {key}: {response}"))
        + needle.len();
    let digits: String = response[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits
        .parse()
        .unwrap_or_else(|_| panic!("{key} is not a count: {response}"))
}

/// An observe body of `clean` admissible records for `user`, followed by
/// `garbage` lines: unparsable ones, and parsable ones the guard
/// quarantines (a `null` value, a negative value).
fn observe_body(user: &str, clean: usize, garbage: usize) -> String {
    let mut body = String::new();
    for i in 0..clean {
        body.push_str(&format!(
            "{{\"user\":\"{user}\",\"service\":\"svc-{}\",\"timestamp\":{i},\"value\":{}}}\n",
            i % 7,
            0.5 + i as f64 / 10.0
        ));
    }
    for i in 0..garbage {
        body.push_str(match i % 3 {
            0 => "not json at all\n",
            1 => "{\"user\":\"u\",\"service\":\"s\",\"value\":null}\n",
            _ => "{\"user\":\"u\",\"service\":\"s\",\"value\":-1.0}\n",
        });
    }
    body
}

/// Records already waiting on the service's input queue are not this
/// request's: an observe applies its own records and reports those alone.
#[test]
fn observe_applies_and_reports_only_its_own_records() {
    let svc = service();
    for t in 0..5 {
        assert!(svc.offer(QosRecord {
            user: "queued-user".into(),
            service: "queued-svc".into(),
            timestamp: t,
            value: 1.0,
        }));
    }
    let plane = ServePlane::start("127.0.0.1:0", Arc::clone(&svc), ServeConfig::default())
        .expect("bind plane");
    let response = raw_exchange(
        plane.local_addr(),
        &post_raw("/v1/observe", &observe_body("user-0", 3, 0), ""),
    );
    assert!(response.starts_with("HTTP/1.1 200"), "{response}");
    assert_eq!(json_count(&response, "applied"), 3, "{response}");
    assert_eq!(json_count(&response, "queued"), 3, "{response}");
    assert_eq!(
        svc.stats().updates,
        3,
        "the channel's records were not applied"
    );
    assert_eq!(svc.drain_inputs(), 5, "they are still queued");
    plane.stop();
}

/// Two clients post observes with different mixes of clean and garbage
/// lines at the same time: every answer reports its own applied count, and
/// the model took exactly the clean records. A barrier releases both
/// clients' posts of each round together.
#[test]
fn concurrent_observes_each_report_their_own_applied() {
    const ROUNDS: usize = 25;
    let svc = service();
    let plane = ServePlane::start("127.0.0.1:0", Arc::clone(&svc), ServeConfig::default())
        .expect("bind plane");
    let addr = plane.local_addr();
    let round = Arc::new(std::sync::Barrier::new(2));
    let mixes = [("user-a", 40, 7), ("user-b", 13, 11)];
    let clients: Vec<_> = mixes
        .map(|(user, clean, garbage)| {
            let round = Arc::clone(&round);
            std::thread::spawn(move || {
                let body = observe_body(user, clean, garbage);
                for _ in 0..ROUNDS {
                    round.wait();
                    let response = raw_exchange(addr, &post_raw("/v1/observe", &body, ""));
                    assert!(response.starts_with("HTTP/1.1 200"), "{response}");
                    assert_eq!(json_count(&response, "applied"), clean as u64, "{response}");
                    assert_eq!(
                        json_count(&response, "queued")
                            + json_count(&response, "shed")
                            + json_count(&response, "invalid"),
                        (clean + garbage) as u64,
                        "{response}"
                    );
                }
            })
        })
        .into_iter()
        .collect();
    for client in clients {
        client.join().expect("client saw a wrong count");
    }
    let expected: usize = mixes.iter().map(|(_, clean, _)| clean * ROUNDS).sum();
    assert_eq!(svc.stats().updates, expected as u64);
    assert_eq!(plane.stop().worker_panics, 0);
}
