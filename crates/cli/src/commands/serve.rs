//! `amf-qos serve` — run the hardened serving plane over the prediction
//! service.
//!
//! Boots a [`qos_serve::ServePlane`]: `POST /v1/observe`, `/v1/predict`,
//! `/v1/rank` (newline-delimited JSON bodies, per-request deadlines via
//! `x-amf-deadline-ms`, two-level admission control) next to
//! `GET /metrics`, `/healthz`, and `/snapshot.json` — one listener, one
//! graceful drain path. An optional seeded (or file-fed) workload warms
//! the model before the port is published, and a
//! [`qos_obs::SnapshotRecorder`] can append `amf-obs-ts/v1` interval
//! snapshots for `amf-qos report`.

use super::CliError;
use crate::args::Args;
use qos_dataset::io;
use qos_obs::{LogConfig, SnapshotRecorder, DEFAULT_MAX_LOG_BYTES};
use qos_serve::{ServeConfig, ServePlane};
use qos_service::{QosPredictionService, ServiceConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Usage text for the subcommand.
pub const USAGE: &str = "amf-qos serve [--listen HOST:PORT] \
[--addr-file PATH] [--workers N] [--max-pending N] [--deadline-ms MS] \
[--io-timeout-ms MS] [--max-body-bytes N] [--max-conns N] \
[--max-requests-per-conn N] [--idle-timeout-ms MS] [--samples N] [--seed S] \
[--data TRIPLET_FILE] [--telemetry-log PATH] [--interval-ms MS] \
[--max-log-bytes N] [--flight-log PATH] [--run-ms MS]";

/// Runs the subcommand.
///
/// # Errors
///
/// Returns [`CliError`] for bind failures, unreadable workload files, or
/// invalid flags.
pub fn run(args: &Args) -> Result<String, CliError> {
    let samples: u64 = args.parse_or("samples", 20_000)?;
    let seed: u64 = args.parse_or("seed", 42)?;
    let run_ms: u64 = args.parse_or("run-ms", 0)?;
    let interval_ms: u64 = args.parse_or("interval-ms", 200)?;
    let max_log_bytes: u64 = args.parse_or("max-log-bytes", DEFAULT_MAX_LOG_BYTES)?;
    let config = plane_config(args)?;
    let listen = args.get("listen").unwrap_or("127.0.0.1:0");

    let service = Arc::new(
        QosPredictionService::try_new(ServiceConfig::default())
            .map_err(|e| CliError(format!("service: {e}")))?,
    );

    // Warm the model BEFORE publishing the port, so a supervisor that
    // waits on --addr-file sees a plane that already answers above the
    // bottom of the fallback ladder.
    let fed = feed_workload(&service, args, samples, seed)?;

    // Black-box flight recorder: panic / drift / SLO-burst / manual dumps
    // land in this JSONL file (readable with `amf-qos trace`).
    let flight = args.get("flight-log").map(|path| LogConfig {
        path: path.into(),
        max_bytes: max_log_bytes,
    });
    let plane = ServePlane::start_with_flight(listen, Arc::clone(&service), config, flight)
        .map_err(|e| CliError(format!("--listen {listen}: {e}")))?;
    let addr = plane.local_addr();
    if let Some(path) = args.get("addr-file") {
        // Written post-bind so a supervisor (or the CI smoke job) can poll
        // this file to discover the ephemeral port.
        std::fs::write(path, format!("{addr}\n"))?;
    }

    let recorder = match args.get("telemetry-log") {
        Some(path) => {
            let recorder_service = Arc::clone(&service);
            Some(
                SnapshotRecorder::start(
                    Duration::from_millis(interval_ms.max(1)),
                    LogConfig {
                        path: path.into(),
                        max_bytes: max_log_bytes,
                    },
                    move || recorder_service.stats_snapshot(),
                )
                .map_err(|e| CliError(format!("--telemetry-log {path}: {e}")))?,
            )
        }
        None => None,
    };

    // Hold the endpoint open for traffic; the warm-up workload has been
    // absorbed, so this is pure serving time.
    let deadline = Instant::now() + Duration::from_millis(run_ms);
    while Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }

    let (lines, rotations) = match recorder {
        Some(recorder) => {
            let rotations = recorder.log().rotations();
            (recorder.stop(), rotations)
        }
        None => (0, 0),
    };
    let stats = service.stats();
    let accuracy = {
        // One final gauge publish so the printed MRE matches a last scrape.
        let snapshot = service.stats_snapshot();
        snapshot
            .get("gauges")
            .and_then(|g| g.get("model.mre_w"))
            .and_then(qos_obs::Json::as_f64)
    };
    let serve = plane.stop();
    Ok(format!(
        "serve: endpoint {addr} ({} requests, {} ok, {} rejected, {} panics)\n\
         admission       {} overload, {} deadline, {} draining\n\
         workload        {fed} samples fed, {} accepted, {} rejected\n\
         served          {} predictions ({} degraded), {} ranks, {} observed\n\
         model           {} users, {} services, {} updates\n\
         windowed MRE    {}\n\
         telemetry log   {lines} lines, {rotations} rotations",
        serve.requests,
        serve.ok,
        serve.rejected_overload + serve.rejected_deadline + serve.rejected_draining,
        serve.worker_panics,
        serve.rejected_overload,
        serve.rejected_deadline,
        serve.rejected_draining,
        stats.accepted,
        stats.rejected,
        serve.predictions,
        serve.degraded_answers,
        serve.ranks,
        serve.observe_queued,
        stats.users,
        stats.services,
        stats.updates,
        accuracy.map_or_else(|| "n/a".to_string(), |v| format!("{v:.4}")),
    ))
}

/// The plane's settings: each flag overrides its [`ServeConfig::default`]
/// value.
fn plane_config(args: &Args) -> Result<ServeConfig, CliError> {
    let defaults = ServeConfig::default();
    let ms = |flag: &str, default: Duration| -> Result<Duration, CliError> {
        let default = u64::try_from(default.as_millis()).unwrap_or(u64::MAX);
        Ok(Duration::from_millis(args.parse_or(flag, default)?.max(1)))
    };
    let config = ServeConfig {
        workers: args.parse_or("workers", defaults.workers)?,
        max_pending: args.parse_or("max-pending", defaults.max_pending)?,
        max_body_bytes: args.parse_or("max-body-bytes", defaults.max_body_bytes)?,
        io_timeout: ms("io-timeout-ms", defaults.io_timeout)?,
        default_deadline: ms("deadline-ms", defaults.default_deadline)?,
        max_connections: args.parse_or("max-conns", defaults.max_connections)?,
        max_requests_per_conn: args
            .parse_or("max-requests-per-conn", defaults.max_requests_per_conn)?,
        idle_timeout: ms("idle-timeout-ms", defaults.idle_timeout)?,
        ..defaults
    };
    for (flag, value) in [
        ("workers", config.workers as u64),
        ("max-conns", config.max_connections as u64),
        ("max-requests-per-conn", config.max_requests_per_conn),
    ] {
        if value == 0 {
            return Err(CliError(format!("--{flag} must be at least 1")));
        }
    }
    Ok(config)
}

/// Streams the workload into the service: `--data` replays a triplet file,
/// otherwise the CLI's seeded warm-up stream (the same one
/// `amf-qos stats --obs` feeds).
fn feed_workload(
    service: &QosPredictionService,
    args: &Args,
    samples: u64,
    seed: u64,
) -> Result<u64, CliError> {
    let Some(path) = args.get("data") else {
        super::feed_numbered(service, super::seeded_stream(samples, seed));
        return Ok(samples);
    };
    // The file is read as it is fed, never held whole, and re-opened to
    // cycle until `--samples` records have been fed, so a small fixture can
    // still drive a long-running serve.
    let open = || -> Result<_, CliError> { Ok(io::triplets(std::fs::File::open(path)?)) };
    let mut pass = open()?;
    let mut fresh = true;
    let mut failure = None;
    let records = std::iter::from_fn(|| loop {
        match pass.next() {
            Some(Ok(sample)) => {
                fresh = false;
                return Some(sample);
            }
            Some(Err(e)) => {
                failure = Some(CliError(format!("{path}: {e}")));
                return None;
            }
            None if fresh => {
                failure = Some(CliError(format!("{path}: no samples")));
                return None;
            }
            None => match open() {
                Ok(next) => {
                    pass = next;
                    fresh = true;
                }
                Err(e) => {
                    failure = Some(e);
                    return None;
                }
            },
        }
    });
    super::feed_numbered(
        service,
        records.take(samples.try_into().unwrap_or(usize::MAX)),
    );
    failure.map_or(Ok(samples), Err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    fn args(tokens: &[&str]) -> Args {
        Args::parse(tokens.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn plane_flags_override_the_plane_defaults() {
        assert_eq!(
            plane_config(&args(&["serve"])).unwrap(),
            ServeConfig::default()
        );
        let flags = "serve --workers 2 --max-pending 3 --max-body-bytes 4 --io-timeout-ms 5 \
                     --deadline-ms 6 --max-conns 7 --max-requests-per-conn 8 --idle-timeout-ms 9";
        let set = plane_config(&args(&flags.split_whitespace().collect::<Vec<_>>())).unwrap();
        assert_eq!(
            set,
            ServeConfig {
                workers: 2,
                max_pending: 3,
                max_body_bytes: 4,
                io_timeout: Duration::from_millis(5),
                default_deadline: Duration::from_millis(6),
                max_connections: 7,
                max_requests_per_conn: 8,
                idle_timeout: Duration::from_millis(9),
                ..ServeConfig::default()
            }
        );
        let zero = plane_config(&args(&["serve", "--max-conns", "0"]));
        assert_eq!(zero.unwrap_err().0, "--max-conns must be at least 1");
    }

    #[test]
    fn serve_feeds_writes_addr_and_telemetry() {
        let dir = crate::test_dir("serve_feeds_writes_addr_and_telemetry");
        let addr_file = dir.join("addr.txt");
        let log = dir.join("telemetry.jsonl");

        let out = run(&args(&[
            "serve",
            "--samples",
            "3000",
            "--addr-file",
            &addr_file.to_string_lossy(),
            "--telemetry-log",
            &log.to_string_lossy(),
            "--interval-ms",
            "20",
            "--run-ms",
            "80",
        ]))
        .unwrap();
        assert!(out.contains("serve: endpoint"), "summary header: {out}");
        assert!(out.contains("samples fed"));

        let addr = std::fs::read_to_string(&addr_file).unwrap();
        assert!(addr.trim().parse::<std::net::SocketAddr>().is_ok());

        let telemetry = std::fs::read_to_string(&log).unwrap();
        let first = telemetry.lines().next().expect("at least one line");
        let parsed = qos_obs::Json::parse(first).unwrap();
        assert_eq!(
            parsed.get("schema").and_then(qos_obs::Json::as_str),
            Some(qos_obs::TS_SCHEMA)
        );
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn serve_endpoint_answers_while_running() {
        // Drive /metrics and /v1/predict from a second thread while serve
        // holds the port.
        let dir = crate::test_dir("serve_endpoint_answers_while_running");
        let addr_file = dir.join("live-addr.txt");
        let addr_path = addr_file.to_string_lossy().into_owned();

        let probe_path = addr_path.clone();
        let probe = std::thread::spawn(move || {
            // Poll for the addr file, then exercise both route families.
            for _ in 0..200 {
                if let Ok(text) = std::fs::read_to_string(&probe_path) {
                    if let Ok(addr) = text.trim().parse::<std::net::SocketAddr>() {
                        let mut stream = std::net::TcpStream::connect(addr).unwrap();
                        stream
                            .write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
                            .unwrap();
                        // Half-close so the keep-alive server answers with
                        // Connection: close and read_to_string terminates.
                        stream.shutdown(std::net::Shutdown::Write).unwrap();
                        let mut metrics = String::new();
                        stream.read_to_string(&mut metrics).unwrap();

                        let body = "{\"user\":\"user-0\",\"service\":\"svc-0\"}\n";
                        let mut stream = std::net::TcpStream::connect(addr).unwrap();
                        stream
                            .write_all(
                                format!(
                                    "POST /v1/predict HTTP/1.1\r\nHost: x\r\n\
                                     Content-Length: {}\r\n\r\n{body}",
                                    body.len()
                                )
                                .as_bytes(),
                            )
                            .unwrap();
                        stream.shutdown(std::net::Shutdown::Write).unwrap();
                        let mut predict = String::new();
                        stream.read_to_string(&mut predict).unwrap();
                        return (metrics, predict);
                    }
                }
                std::thread::sleep(Duration::from_millis(10));
            }
            panic!("serve never published its address");
        });

        let out = run(&args(&[
            "serve",
            "--samples",
            "500",
            "--addr-file",
            &addr_path,
            "--run-ms",
            "600",
        ]))
        .unwrap();
        let (metrics, predict) = probe.join().unwrap();
        assert!(metrics.starts_with("HTTP/1.1 200"));
        assert!(metrics.contains("amf_service_accepted_total"));
        assert!(metrics.contains("amf_serve_requests_total"));
        assert!(predict.starts_with("HTTP/1.1 200"), "{predict}");
        assert!(predict.contains("\"source\""), "{predict}");
        assert!(out.contains("requests"));
        assert!(out.contains("0 panics"), "{out}");
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn zero_workers_rejected() {
        assert!(run(&args(&["serve", "--workers", "0", "--samples", "10"])).is_err());
    }

    #[test]
    fn file_fed_workload_cycles() {
        let dir = crate::test_dir("file_fed_workload_cycles");
        let data = dir.join("w.txt");
        std::fs::write(&data, "0 0 0 1.5\n0 1 0 0.7\n1 0 1 2.2\n").unwrap();
        let out = run(&args(&[
            "serve",
            "--data",
            &data.to_string_lossy(),
            "--samples",
            "10",
        ]))
        .unwrap();
        assert!(out.contains("10 samples fed"), "{out}");
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn file_fed_workload_rejects_empty_and_malformed_files() {
        let dir = crate::test_dir("file_fed_workload_rejects_empty_and_malformed_files");
        let serve_file = |name: &str, text: &str| {
            let data = dir.join(name);
            std::fs::write(&data, text).unwrap();
            run(&args(&["serve", "--data", &data.to_string_lossy()]))
                .unwrap_err()
                .0
        };
        let empty = serve_file("empty.txt", "\n  \n");
        assert!(empty.ends_with("no samples"), "{empty}");
        let malformed = serve_file("malformed.txt", "0 0 0 1.5\n\n0 1 0\n1 0 1 2.2\n");
        assert!(malformed.contains("line 3"), "{malformed}");
        std::fs::remove_dir_all(dir).unwrap();
    }
}
