//! `amf-qos loadtest` — fault-injecting load harness for a live
//! `amf-qos serve` endpoint.
//!
//! Drives a mixed `observe`/`predict`/`rank` workload through
//! [`qos_serve::LoadRunner`]: closed-loop arrivals, per-request timeouts,
//! bounded retry (idempotent requests only — `observe` is never retried),
//! and client-side network faults from a [`FaultPlan`]'s
//! `conn-reset`/`slow-read`/`blackhole` verbs. Serving latency and capacity
//! are benchmarked by `servebench/`, which times open-loop requests from
//! their due time; this command checks the plane under faults.
//!
//! Transports: every pass runs `--concurrency` workers, each with one
//! client. The baseline pass sends `Connection: close` on every request;
//! with `--keep-alive` a second clean pass reuses one connection per worker
//! (optional `--pipeline D` requests per write) and the report gains a
//! `comparison` block quantifying the reuse win.
//!
//! Without `--fault-plan` the clean pass(es) run; with it, a faulted pass
//! runs back-to-back (over the keep-alive transport when enabled, so the
//! reconnect path is exercised too) and a manual flight dump
//! (`POST /debug/dump`) is requested afterwards so the incident lands in
//! the server's `--flight-log`. Every run reconciles the server's
//! `x-amf-stage-us` breakdowns and tail exemplars against the client's
//! own clock (the `reconciliation` block). `--out` writes the
//! `amf-bench-serve/v4` document; a degraded server
//! health is reported but non-fatal, while server-side worker panics fail
//! the command.

use super::CliError;
use crate::args::Args;
use amf_core::FaultPlan;
use qos_obs::Json;
use qos_serve::{
    ClientConfig, LoadConfig, LoadReport, LoadRunner, ServeClient, BENCH_SERVE_SCHEMA,
};
use std::net::SocketAddr;
use std::time::Duration;

/// Usage text for the subcommand.
pub const USAGE: &str = "amf-qos loadtest (--addr HOST:PORT | --addr-file PATH) \
[--requests N] [--concurrency N] [--keep-alive] [--pipeline D] \
[--fault-plan SPEC] [--seed S] [--timeout-ms MS] [--retries N] [--deadline-ms MS] \
[--batch N] [--out PATH] [--quick]";

/// Runs the subcommand.
///
/// # Errors
///
/// Returns [`CliError`] for an unreachable endpoint, an invalid fault
/// plan, server-side worker panics, or unwritable `--out`.
pub fn run(args: &Args) -> Result<String, CliError> {
    let addr = resolve_addr(args)?;
    let quick = args.switch("quick");
    let requests: u64 = args.parse_or("requests", if quick { 120 } else { 400 })?;
    let concurrency: usize = args.parse_or("concurrency", 4)?;
    let seed: u64 = args.parse_or("seed", 42)?;
    let timeout_ms: u64 = args.parse_or("timeout-ms", if quick { 500 } else { 2000 })?;
    let retries: u32 = args.parse_or("retries", 2)?;
    let batch: usize = args.parse_or("batch", 8)?;
    let keep_alive = args.switch("keep-alive");
    let pipeline: usize = args.parse_or("pipeline", 1)?;
    let deadline_ms: Option<u64> = match args.get("deadline-ms") {
        Some(raw) => Some(
            raw.parse()
                .map_err(|_| CliError(format!("--deadline-ms: '{raw}' is not a number")))?,
        ),
        None => None,
    };
    let fault_plan = match args.get("fault-plan") {
        Some(spec) => {
            let plan =
                FaultPlan::parse(spec).map_err(|e| CliError(format!("--fault-plan: {e}")))?;
            if !plan.mutates_network() {
                return Err(CliError(format!(
                    "--fault-plan '{spec}' has no network verbs \
                     (conn-reset/slow-read/blackhole)"
                )));
            }
            Some(plan)
        }
        None => None,
    };

    let base = LoadConfig {
        concurrency,
        requests,
        seed,
        fault_plan: None,
        client: ClientConfig {
            request_timeout: Duration::from_millis(timeout_ms.max(1)),
            max_retries: retries,
            deadline_ms,
        },
        batch,
        keep_alive: false,
        pipeline,
    };

    let probe_client = base.client;
    let mut runs: Vec<LoadReport> = Vec::new();
    runs.push(LoadRunner::new(base.clone()).run(addr, "clean"));
    if keep_alive {
        let reused = LoadConfig {
            keep_alive: true,
            ..base.clone()
        };
        runs.push(LoadRunner::new(reused).run(addr, "clean-keepalive"));
    }
    if let Some(plan) = fault_plan {
        // Fault the richer transport when enabled: reconnect-after-reset is
        // exactly the keep-alive path worth measuring under faults.
        let faulted = LoadConfig {
            fault_plan: Some(plan),
            keep_alive,
            ..base
        };
        runs.push(LoadRunner::new(faulted).run(addr, "faulted"));
    }
    // After a faulted pass, ask the server to flight-record the incident:
    // a manual dump is forced (no cooldown), so a `--flight-log` server
    // persists the window this harness just disturbed.
    let flight_dumped = runs.iter().any(|r| r.label == "faulted") && {
        let mut probe = ServeClient::new(addr, probe_client, false, seed ^ 0x51EF);
        probe
            .request("POST", "/debug/dump", "", None, false)
            .map(|r| r.status == 200)
            .unwrap_or(false)
    };

    for report in &runs {
        if report.server_worker_panics > 0 {
            return Err(CliError(format!(
                "run '{}': server reported {} worker panics",
                report.label, report.server_worker_panics
            )));
        }
    }
    for report in runs.iter().filter(|r| r.label.starts_with("clean")) {
        if report.ok == 0 {
            return Err(CliError(format!(
                "run '{}' got no successful response from {addr} \
                 ({} transport errors)",
                report.label, report.transport_errors
            )));
        }
    }

    if let Some(path) = args.get("out") {
        let mut doc = Json::obj();
        doc.set("schema", Json::Str(BENCH_SERVE_SCHEMA.into()))
            .set("generated_by", Json::Str("amf-qos loadtest".into()))
            .set(
                "runs",
                Json::Arr(runs.iter().map(LoadReport::to_json).collect()),
            );
        if let Some(comparison) = comparison_block(&runs) {
            doc.set("comparison", comparison);
        }
        std::fs::write(path, doc.to_string_pretty() + "\n")
            .map_err(|e| CliError(format!("--out {path}: {e}")))?;
    }

    let mut out = String::new();
    for report in &runs {
        out.push_str(&format!(
            "loadtest[{}]: {} requests -> {} ok, {} 4xx, {} 503, {} transport \
             (error rate {:.1}%)\n\
             latency         p50 {}us  p95 {}us  p99 {}us (n={})\n\
             throughput      {:.1} ok/s sustained over {} ms\n\
             transport       {} (pipeline {}, {} connects, {} reuses, {:.1} req/conn)\n\
             faults          {} conn-reset, {} slow-read, {} blackhole; {} retries\n\
             predictions     {} served, {} degraded ({:.1}%)\n\
             server          health={} worker_panics={}\n",
            report.label,
            report.requests,
            report.ok,
            report.http_4xx,
            report.http_503,
            report.transport_errors,
            report.error_rate() * 100.0,
            report.percentile_us(50.0),
            report.percentile_us(95.0),
            report.percentile_us(99.0),
            report.latencies_us.len(),
            report.achieved_qps,
            report.wall.as_millis(),
            report.transport,
            report.pipeline_depth,
            report.connects,
            report.conn_reuses,
            report.requests_per_conn(),
            report.faults_conn_reset,
            report.faults_slow_read,
            report.faults_blackhole,
            report.retries,
            report.predictions,
            report.degraded_answers,
            report.degraded_rate() * 100.0,
            report.server_health,
            report.server_worker_panics,
        ));
        if let Some(recon) = &report.reconciliation {
            out.push_str(&format!(
                "tracing         {} stage samples; exemplars {} ({} matched), \
                 median server/client {:.2} (within 10%: {})\n",
                report.stage_samples,
                recon.exemplars,
                recon.matched,
                recon.median_ratio,
                if recon.within(0.10) { "yes" } else { "no" },
            ));
        }
    }
    if flight_dumped {
        out.push_str("flight          manual dump recorded (POST /debug/dump)\n");
    }
    if let Some(comparison) = comparison_block(&runs) {
        out.push_str(&format!(
            "comparison      keep-alive vs per-conn: p50 {:.2}x, ok/s {:.2}x\n",
            comparison
                .get("p50_ratio")
                .and_then(Json::as_f64)
                .unwrap_or(0.0),
            comparison
                .get("ok_per_s_ratio")
                .and_then(Json::as_f64)
                .unwrap_or(0.0),
        ));
    }
    Ok(out.trim_end().to_string())
}

/// Pairs the clean per-conn and clean keep-alive runs into the `comparison`
/// object of the v2 document (`None` unless both ran). Ratios are
/// keep-alive over per-conn: `p50_ratio < 1` and `ok_per_s_ratio > 1` mean
/// connection reuse won.
fn comparison_block(runs: &[LoadReport]) -> Option<Json> {
    let per_conn = runs.iter().find(|r| r.label == "clean")?;
    let keep_alive = runs.iter().find(|r| r.label == "clean-keepalive")?;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let mut out = Json::obj();
    out.set("per_conn_p50_us", Json::UInt(per_conn.percentile_us(50.0)))
        .set(
            "keep_alive_p50_us",
            Json::UInt(keep_alive.percentile_us(50.0)),
        )
        .set(
            "p50_ratio",
            Json::Num(ratio(
                keep_alive.percentile_us(50.0) as f64,
                per_conn.percentile_us(50.0) as f64,
            )),
        )
        .set("per_conn_ok_per_s", Json::Num(per_conn.achieved_qps))
        .set("keep_alive_ok_per_s", Json::Num(keep_alive.achieved_qps))
        .set(
            "ok_per_s_ratio",
            Json::Num(ratio(keep_alive.achieved_qps, per_conn.achieved_qps)),
        )
        .set(
            "keep_alive_requests_per_conn",
            Json::Num(keep_alive.requests_per_conn()),
        );
    Some(out)
}

/// `--addr` directly, or poll `--addr-file` (written by `serve` post-bind)
/// for up to ~5 s.
fn resolve_addr(args: &Args) -> Result<SocketAddr, CliError> {
    if let Some(raw) = args.get("addr") {
        return raw
            .parse()
            .map_err(|_| CliError(format!("--addr: '{raw}' is not HOST:PORT")));
    }
    let path = args
        .get("addr-file")
        .ok_or_else(|| CliError("need --addr or --addr-file".into()))?;
    for _ in 0..250 {
        if let Ok(text) = std::fs::read_to_string(path) {
            if let Ok(addr) = text.trim().parse() {
                return Ok(addr);
            }
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    Err(CliError(format!(
        "--addr-file {path}: no parsable address after 5s"
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qos_serve::{ServeConfig, ServePlane};
    use qos_service::{QosPredictionService, ServiceConfig};
    use std::sync::Arc;

    fn args(tokens: &[&str]) -> Args {
        Args::parse(tokens.iter().map(|s| s.to_string())).unwrap()
    }

    fn live_plane() -> ServePlane {
        let service = Arc::new(QosPredictionService::new(ServiceConfig::default()));
        ServePlane::start("127.0.0.1:0", service, ServeConfig::default()).expect("bind")
    }

    #[test]
    fn loadtest_against_live_plane_writes_report() {
        let plane = live_plane();
        let addr = plane.local_addr().to_string();
        let dir = crate::test_dir("loadtest_against_live_plane_writes_report");
        let out_path = dir.join("bench_serve.json");

        let out = run(&args(&[
            "loadtest",
            "--addr",
            &addr,
            "--quick",
            "--requests",
            "60",
            "--concurrency",
            "3",
            "--timeout-ms",
            "400",
            "--fault-plan",
            "conn-reset@0.1,slow-read@0.05",
            "--out",
            &out_path.to_string_lossy(),
        ]))
        .unwrap();
        assert!(out.contains("loadtest[clean]"), "{out}");
        assert!(out.contains("loadtest[faulted]"), "{out}");
        assert!(out.contains("worker_panics=0"), "{out}");
        assert!(out.contains("tracing"), "{out}");
        assert!(
            out.contains("flight          manual dump recorded"),
            "{out}"
        );

        let doc = Json::parse(&std::fs::read_to_string(&out_path).unwrap()).unwrap();
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some(BENCH_SERVE_SCHEMA)
        );
        let runs = doc.get("runs").and_then(Json::as_arr).unwrap();
        assert_eq!(runs.len(), 2);
        for run in runs {
            assert!(run.get("error_rate").and_then(Json::as_f64).unwrap() < 1.0);
            assert_eq!(
                run.get("server_worker_panics").and_then(Json::as_u64),
                Some(0)
            );
            // v3: every answered request carried a parseable stage header,
            // and the exemplar fetch produced a reconciliation verdict.
            assert!(run.get("stage_samples").and_then(Json::as_u64).unwrap() > 0);
            let recon = run.get("reconciliation").expect("reconciliation block");
            assert!(recon.get("exemplars").and_then(Json::as_u64).unwrap() > 0);
        }
        let stats = plane.stop();
        assert_eq!(stats.worker_panics, 0);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn keep_alive_loadtest_pairs_runs_and_emits_comparison() {
        let plane = live_plane();
        let addr = plane.local_addr().to_string();
        let dir = crate::test_dir("keep_alive_loadtest_pairs_runs_and_emits_comparison");
        let out_path = dir.join("bench_serve_keepalive.json");

        let out = run(&args(&[
            "loadtest",
            "--addr",
            &addr,
            "--quick",
            "--requests",
            "60",
            "--concurrency",
            "3",
            "--keep-alive",
            "--pipeline",
            "4",
            "--timeout-ms",
            "400",
            "--out",
            &out_path.to_string_lossy(),
        ]))
        .unwrap();
        assert!(out.contains("loadtest[clean]"), "{out}");
        assert!(out.contains("loadtest[clean-keepalive]"), "{out}");
        assert!(
            out.contains("comparison      keep-alive vs per-conn"),
            "{out}"
        );

        let doc = Json::parse(&std::fs::read_to_string(&out_path).unwrap()).unwrap();
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some(BENCH_SERVE_SCHEMA)
        );
        let runs = doc.get("runs").and_then(Json::as_arr).unwrap();
        assert_eq!(runs.len(), 2);
        let reused = runs
            .iter()
            .find(|r| r.get("label").and_then(Json::as_str) == Some("clean-keepalive"))
            .unwrap();
        assert_eq!(
            reused.get("transport").and_then(Json::as_str),
            Some("keep-alive")
        );
        // 60 requests over 3 persistent connections: far more than one
        // request per connect.
        assert!(
            reused
                .get("requests_per_conn")
                .and_then(Json::as_f64)
                .unwrap()
                > 2.0,
            "{reused:?}"
        );
        let comparison = doc.get("comparison").unwrap();
        assert!(
            comparison
                .get("keep_alive_requests_per_conn")
                .and_then(Json::as_f64)
                .unwrap()
                > 2.0
        );
        let stats = plane.stop();
        assert_eq!(stats.worker_panics, 0);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn fault_plan_without_network_verbs_rejected() {
        let err = run(&args(&[
            "loadtest",
            "--addr",
            "127.0.0.1:1",
            "--fault-plan",
            "seed=3;drop=0.5",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("no network verbs"), "{err}");
    }

    #[test]
    fn missing_addr_rejected() {
        let err = run(&args(&["loadtest"])).unwrap_err();
        assert!(err.to_string().contains("--addr"));
    }

    #[test]
    fn unreachable_endpoint_fails_cleanly() {
        // Bind-then-drop: nothing listens there.
        let addr = std::net::TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap()
            .to_string();
        let err = run(&args(&[
            "loadtest",
            "--addr",
            &addr,
            "--requests",
            "4",
            "--retries",
            "0",
            "--timeout-ms",
            "100",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("no successful response"), "{err}");
    }
}
