//! Closed-loop load generator with deterministic fault injection.
//!
//! The harness measures the serving plane the way the paper's runtime
//! adaptation loop would experience it: a mixed `observe`/`predict`/`rank`
//! workload, per-request timeouts, and a seeded [`FaultPlan`] deciding —
//! per logical request — whether the network misbehaves
//! (conn-reset / slow-read / black-hole, see [`crate::client`]).
//!
//! Arrivals are a **closed loop**: each of `concurrency` workers issues its
//! next request as soon as the previous one finishes. Driven at enough
//! concurrency this saturates the plane, so the measured throughput of
//! *successful* answers is the max-sustainable-QPS estimate reported in
//! `achieved_qps`. Open-loop capacity, timed from each request's due time,
//! is `servebench`'s `adapt-open` workload.
//!
//! Each worker owns one [`ServeClient`]; [`LoadConfig::keep_alive`] picks
//! its transport:
//!
//! * **per-conn** — every request carries `Connection: close`, so each one
//!   pays a TCP handshake: the baseline that prices the handshake tax.
//! * **keep-alive** — each worker holds one persistent connection and may
//!   **pipeline** up to `pipeline` requests per write. Pipelined batches
//!   record the batch's end-to-end latency for each member (the wait of
//!   the last response — conservative).
//!
//! Both report counted dials: `connects` (retries and reconnects
//! included), `conn_reuses` and `requests_per_conn`.
//!
//! Every run ends with a `/healthz` probe and a `/snapshot.json` scrape so
//! the report carries the server's own verdict (`server_health`,
//! `server_worker_panics`) next to the client-side measurements, plus a
//! `/debug/exemplars` fetch that reconciles the server's tail exemplars
//! against the client's own clock by trace id. Reports serialize to the
//! `amf-bench-serve/v4` schema (v2 added the transport/reuse fields and the
//! paired per-conn vs keep-alive run layout; v3 added the per-stage
//! breakdown and the client/server reconciliation block; v4 dropped the
//! open mode's `mode` and `offered_qps` keys).

use crate::client::{ClientConfig, HttpResponse, ServeClient};
use amf_core::{FaultPlan, NetFault};
use qos_obs::Json;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Schema tag of a serialized [`LoadReport`].
pub const BENCH_SERVE_SCHEMA: &str = "amf-bench-serve/v4";

/// Fraction of requests that are `observe` batches.
const OBSERVE_FRACTION: f64 = 0.4;
/// Fraction of requests that are `rank` queries.
const RANK_FRACTION: f64 = 0.1;
/// Distinct synthetic users (`user-{n}`).
const USERS: usize = 24;
/// Distinct synthetic services (`svc-{n}`).
const SERVICES: usize = 32;

/// Load-harness configuration.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Closed-loop workers, each issuing back-to-back requests (at least 1).
    pub concurrency: usize,
    /// Total logical requests to issue.
    pub requests: u64,
    /// Seed for workload mix and fault decisions.
    pub seed: u64,
    /// Optional fault plan; only its network verbs matter here.
    pub fault_plan: Option<FaultPlan>,
    /// Per-request client behaviour (timeouts, retry budget, deadline).
    pub client: ClientConfig,
    /// Records (lines) per observe/predict body.
    pub batch: usize,
    /// Keep one persistent connection per worker instead of sending
    /// `Connection: close` on every request.
    pub keep_alive: bool,
    /// Pipeline depth for keep-alive workers (requests written back to
    /// back before reading responses). `<= 1` disables pipelining, and a
    /// per-conn pass ignores it; only consecutive un-faulted requests are
    /// batched, so fault injection still lands on the exact seeded
    /// request ids.
    pub pipeline: usize,
}

impl LoadConfig {
    /// Requests written per exchange: a per-conn server closes after the
    /// first response, so only keep-alive pipelines.
    fn depth(&self) -> usize {
        if self.keep_alive {
            self.pipeline.max(1)
        } else {
            1
        }
    }
}

impl Default for LoadConfig {
    fn default() -> Self {
        Self {
            concurrency: 4,
            requests: 200,
            seed: 42,
            fault_plan: None,
            client: ClientConfig::default(),
            batch: 8,
            keep_alive: false,
            pipeline: 1,
        }
    }
}

/// Outcome counters and latency digest of one load run.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// Run label (`"clean"`, `"faulted"`, ...).
    pub label: String,
    /// Canonical fault-plan spec, if any.
    pub fault_plan: Option<String>,
    /// `"per-conn"` or `"keep-alive"`.
    pub transport: &'static str,
    /// Pipeline depth the workers ran with (1 = no pipelining).
    pub pipeline_depth: u64,
    /// TCP connections the workers dialled, retries and reconnects
    /// included.
    pub connects: u64,
    /// Requests sent on an already-open connection (0 on a per-conn pass).
    pub conn_reuses: u64,
    /// Worker count.
    pub concurrency: usize,
    /// Logical requests issued.
    pub requests: u64,
    /// 2xx responses.
    pub ok: u64,
    /// 4xx responses (protocol errors the server answered cleanly).
    pub http_4xx: u64,
    /// 503 responses surviving retry (load shed / deadline / draining).
    pub http_503: u64,
    /// Other 5xx responses.
    pub http_5xx_other: u64,
    /// Requests lost to transport failures (after retry, if permitted).
    pub transport_errors: u64,
    /// Injected conn-reset faults.
    pub faults_conn_reset: u64,
    /// Injected slow-read faults.
    pub faults_slow_read: u64,
    /// Injected black-hole faults.
    pub faults_blackhole: u64,
    /// Retry attempts consumed across all requests.
    pub retries: u64,
    /// Individual predictions returned.
    pub predictions: u64,
    /// Predictions answered below the `model` rung.
    pub degraded_answers: u64,
    /// Sorted end-to-end latencies (µs) of answered requests.
    pub latencies_us: Vec<u64>,
    /// Wall-clock duration of the run.
    pub wall: Duration,
    /// Successful answers per second over the wall clock.
    pub achieved_qps: f64,
    /// Server `/healthz` status after the run (`ok|draining`).
    pub server_health: String,
    /// Server-side `serve.worker_panics` counter after the run (must be 0).
    pub server_worker_panics: u64,
    /// Per-request (trace id, client-measured µs) for individually-timed
    /// answered requests (pipelined batch members are excluded — their
    /// client clock measures the batch, not the request).
    pub traced: Vec<(String, u64)>,
    /// Sum of server-reported stage µs across answered requests, indexed
    /// like [`qos_obs::STAGES`].
    pub stage_us_sum: [u64; 6],
    /// Responses whose `x-amf-stage-us` header parsed.
    pub stage_samples: u64,
    /// Client/server tail reconciliation (`None` when the exemplar fetch
    /// failed or the server predates tracing).
    pub reconciliation: Option<StageReconciliation>,
}

/// How the server's tail exemplars line up with the client's own clock.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageReconciliation {
    /// Exemplars the server exposed.
    pub exemplars: u64,
    /// Exemplars matched (by trace id) to a client-timed request.
    pub matched: u64,
    /// Median of per-request `server stage sum / client latency` over the
    /// matches (0 when nothing matched).
    pub median_ratio: f64,
}

impl StageReconciliation {
    /// Whether the median ratio is within `tolerance` of 1.0 (and at
    /// least one exemplar matched).
    pub fn within(&self, tolerance: f64) -> bool {
        self.matched > 0 && (self.median_ratio - 1.0).abs() <= tolerance
    }
}

impl LoadReport {
    /// Latency percentile in µs (`p` in `[0, 100]`); 0 when no samples.
    pub fn percentile_us(&self, p: f64) -> u64 {
        if self.latencies_us.is_empty() {
            return 0;
        }
        // Nearest-rank: ceil(p% · n) - 1, clamped.
        let n = self.latencies_us.len();
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        self.latencies_us[rank.saturating_sub(1).min(n - 1)]
    }

    /// Fraction of requests that got no valid answer (transport failures
    /// plus 5xx), in `[0, 1]`.
    pub fn error_rate(&self) -> f64 {
        if self.requests == 0 {
            return 0.0;
        }
        let failed = self.transport_errors + self.http_503 + self.http_5xx_other;
        failed as f64 / self.requests as f64
    }

    /// Fraction of predictions answered below the `model` rung.
    pub fn degraded_rate(&self) -> f64 {
        if self.predictions == 0 {
            return 0.0;
        }
        self.degraded_answers as f64 / self.predictions as f64
    }

    /// Logical requests per opened connection (at most 1.0 per-conn,
    /// where every retry dials again).
    pub fn requests_per_conn(&self) -> f64 {
        if self.connects == 0 {
            return 0.0;
        }
        self.requests as f64 / self.connects as f64
    }

    /// Serializes to the `amf-bench-serve/v4` report object.
    pub fn to_json(&self) -> Json {
        let mean_us = if self.latencies_us.is_empty() {
            0.0
        } else {
            self.latencies_us.iter().sum::<u64>() as f64 / self.latencies_us.len() as f64
        };
        let mut latency = Json::obj();
        latency
            .set("p50", Json::UInt(self.percentile_us(50.0)))
            .set("p95", Json::UInt(self.percentile_us(95.0)))
            .set("p99", Json::UInt(self.percentile_us(99.0)))
            .set(
                "max",
                Json::UInt(self.latencies_us.last().copied().unwrap_or(0)),
            )
            .set("mean", Json::Num(mean_us))
            .set("samples", Json::UInt(self.latencies_us.len() as u64));
        let mut faults = Json::obj();
        faults
            .set("conn-reset", Json::UInt(self.faults_conn_reset))
            .set("slow-read", Json::UInt(self.faults_slow_read))
            .set("blackhole", Json::UInt(self.faults_blackhole));
        let mut out = Json::obj();
        out.set("schema", Json::Str(BENCH_SERVE_SCHEMA.into()))
            .set("label", Json::Str(self.label.clone()))
            .set(
                "fault_plan",
                match &self.fault_plan {
                    Some(spec) => Json::Str(spec.clone()),
                    None => Json::Null,
                },
            )
            .set("transport", Json::Str(self.transport.into()))
            .set("pipeline_depth", Json::UInt(self.pipeline_depth))
            .set("connects", Json::UInt(self.connects))
            .set("conn_reuses", Json::UInt(self.conn_reuses))
            .set("requests_per_conn", Json::Num(self.requests_per_conn()))
            .set("concurrency", Json::UInt(self.concurrency as u64))
            .set("requests", Json::UInt(self.requests))
            .set("ok", Json::UInt(self.ok))
            .set("http_4xx", Json::UInt(self.http_4xx))
            .set("http_503", Json::UInt(self.http_503))
            .set("http_5xx_other", Json::UInt(self.http_5xx_other))
            .set("transport_errors", Json::UInt(self.transport_errors))
            .set("faults_injected", faults)
            .set("retries", Json::UInt(self.retries))
            .set("predictions", Json::UInt(self.predictions))
            .set("degraded_answers", Json::UInt(self.degraded_answers))
            .set("degraded_rate", Json::Num(self.degraded_rate()))
            .set("error_rate", Json::Num(self.error_rate()))
            .set("latency_us", latency)
            .set("wall_ms", Json::UInt(self.wall.as_millis() as u64))
            .set("achieved_qps", Json::Num(self.achieved_qps))
            .set("server_health", Json::Str(self.server_health.clone()))
            .set(
                "server_worker_panics",
                Json::UInt(self.server_worker_panics),
            );
        let mut stage_mean = Json::obj();
        if self.stage_samples > 0 {
            for (name, sum) in qos_obs::STAGES.iter().zip(self.stage_us_sum) {
                stage_mean.set(name, Json::Num(sum as f64 / self.stage_samples as f64));
            }
        }
        out.set("stage_samples", Json::UInt(self.stage_samples))
            .set("stage_mean_us", stage_mean)
            .set(
                "reconciliation",
                match &self.reconciliation {
                    Some(r) => {
                        let mut obj = Json::obj();
                        obj.set("exemplars", Json::UInt(r.exemplars))
                            .set("matched", Json::UInt(r.matched))
                            .set("median_ratio", Json::Num(r.median_ratio))
                            .set("within_10pct", Json::Bool(r.within(0.10)));
                        obj
                    }
                    None => Json::Null,
                },
            );
        out
    }
}

/// Runs a configured load against a serving plane.
#[derive(Debug, Clone)]
pub struct LoadRunner {
    config: LoadConfig,
}

/// Per-thread tallies merged after the join.
#[derive(Default)]
struct ThreadTally {
    ok: u64,
    http_4xx: u64,
    http_503: u64,
    http_5xx_other: u64,
    transport_errors: u64,
    conn_reset: u64,
    slow_read: u64,
    blackhole: u64,
    retries: u64,
    predictions: u64,
    degraded: u64,
    connects: u64,
    reuses: u64,
    latencies_us: Vec<u64>,
    traced: Vec<(String, u64)>,
    stage_us_sum: [u64; 6],
    stage_samples: u64,
}

/// Folds a response's `x-amf-stage-us` breakdown into the tally and
/// returns the server-reported stage sum when the header parsed.
fn note_stages(tally: &mut ThreadTally, response: &HttpResponse) -> Option<u64> {
    let us = qos_obs::StageClock::parse_header_us(&response.stage_us)?;
    tally.stage_samples += 1;
    for (slot, v) in tally.stage_us_sum.iter_mut().zip(us) {
        *slot += v;
    }
    Some(us.iter().sum())
}

impl LoadRunner {
    /// Creates a runner for `config`.
    pub fn new(config: LoadConfig) -> Self {
        Self { config }
    }

    /// Issues the configured load against `addr` and returns the merged
    /// report labelled `label`.
    pub fn run(&self, addr: SocketAddr, label: &str) -> LoadReport {
        let config = &self.config;
        let threads = config.concurrency.max(1);
        let per_thread = config.requests.div_ceil(threads as u64);

        let started = Instant::now();
        let tallies: Vec<ThreadTally> = std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(threads);
            for thread_id in 0..threads {
                let first = thread_id as u64 * per_thread;
                let count = per_thread.min(config.requests.saturating_sub(first));
                handles.push(
                    scope.spawn(move || run_thread(addr, config, thread_id as u64, first, count)),
                );
            }
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_default())
                .collect()
        });
        let wall = started.elapsed();

        let mut report = LoadReport {
            label: label.to_string(),
            fault_plan: config
                .fault_plan
                .as_ref()
                .filter(|plan| plan.mutates_network())
                .map(ToString::to_string),
            transport: if config.keep_alive {
                "keep-alive"
            } else {
                "per-conn"
            },
            pipeline_depth: config.depth() as u64,
            concurrency: threads,
            requests: config.requests,
            wall,
            ..LoadReport::default()
        };
        for tally in tallies {
            report.ok += tally.ok;
            report.http_4xx += tally.http_4xx;
            report.http_503 += tally.http_503;
            report.http_5xx_other += tally.http_5xx_other;
            report.transport_errors += tally.transport_errors;
            report.faults_conn_reset += tally.conn_reset;
            report.faults_slow_read += tally.slow_read;
            report.faults_blackhole += tally.blackhole;
            report.retries += tally.retries;
            report.predictions += tally.predictions;
            report.degraded_answers += tally.degraded;
            report.connects += tally.connects;
            report.conn_reuses += tally.reuses;
            report.latencies_us.extend(tally.latencies_us);
            report.traced.extend(tally.traced);
            report.stage_samples += tally.stage_samples;
            for (slot, v) in report.stage_us_sum.iter_mut().zip(tally.stage_us_sum) {
                *slot += v;
            }
        }
        report.latencies_us.sort_unstable();
        report.achieved_qps = if wall.as_secs_f64() > 0.0 {
            report.ok as f64 / wall.as_secs_f64()
        } else {
            0.0
        };

        // The server's own verdict: health status and the panic counter.
        let mut probe = ServeClient::new(addr, config.client, false, config.seed ^ 0x9d0b);
        report.server_health = probe
            .request("GET", "/healthz", "", None, true)
            .ok()
            .and_then(|r| Json::parse(&r.body).ok())
            .and_then(|h| h.get("status").and_then(Json::as_str).map(String::from))
            .unwrap_or_else(|| "unreachable".to_string());
        report.server_worker_panics = probe
            .request("GET", "/snapshot.json", "", None, true)
            .ok()
            .and_then(|r| Json::parse(&r.body).ok())
            .and_then(|snapshot| {
                snapshot
                    .get("counters")?
                    .get("serve.worker_panics")?
                    .as_u64()
            })
            .unwrap_or(0);

        // Reconcile the server's tail exemplars against this run's client
        // clocks: exemplars carry the trace id the client saw echoed back,
        // so a by-id join compares the server's stage sum with the
        // client-measured end-to-end latency of the same request.
        let by_id: HashMap<&str, u64> = report
            .traced
            .iter()
            .map(|(id, us)| (id.as_str(), *us))
            .collect();
        report.reconciliation = probe
            .request("GET", "/debug/exemplars", "", None, true)
            .ok()
            .and_then(|r| Json::parse(&r.body).ok())
            .map(|doc| {
                let exemplars = doc
                    .get("exemplars")
                    .and_then(Json::as_arr)
                    .map(<[Json]>::to_vec)
                    .unwrap_or_default();
                let mut ratios: Vec<f64> = exemplars
                    .iter()
                    .filter_map(|ex| {
                        let id = ex.get("trace_id").and_then(Json::as_str)?;
                        let server_us = ex.get("total_us").and_then(Json::as_u64)?;
                        let client_us = *by_id.get(id)?;
                        (client_us > 0).then(|| server_us as f64 / client_us as f64)
                    })
                    .collect();
                ratios.sort_by(f64::total_cmp);
                StageReconciliation {
                    exemplars: exemplars.len() as u64,
                    matched: ratios.len() as u64,
                    median_ratio: ratios.get(ratios.len() / 2).copied().unwrap_or(0.0),
                }
            });
        report
    }
}

fn run_thread(
    addr: SocketAddr,
    config: &LoadConfig,
    thread_id: u64,
    first: u64,
    count: u64,
) -> ThreadTally {
    let mut tally = ThreadTally::default();
    let client_seed = config.seed ^ (thread_id << 32);
    let mut client = ServeClient::new(addr, config.client, config.keep_alive, client_seed);
    let depth = config.depth();
    let mut rng = Xorshift::new(config.seed ^ 0xC0FFEE ^ thread_id.wrapping_mul(0x9E37_79B9));
    // Consecutive un-faulted requests waiting to go out in one pipelined
    // write (depth > 1 only).
    let mut pending: Vec<(&'static str, String)> = Vec::new();
    for i in 0..count {
        let request_id = first + i;
        let fault = config
            .fault_plan
            .as_ref()
            .and_then(|plan| plan.net_fault(request_id));
        match fault {
            Some(NetFault::ConnReset) => tally.conn_reset += 1,
            Some(NetFault::SlowRead) => tally.slow_read += 1,
            Some(NetFault::Blackhole) => tally.blackhole += 1,
            None => {}
        }
        let (path, body, idempotent) = build_request(config.batch, &mut rng);
        if depth > 1 && fault.is_none() {
            pending.push((path, body));
            if pending.len() >= depth {
                flush_pipeline(&mut client, &mut pending, &mut tally);
            }
            continue;
        }
        // A faulted request breaks the batch: flush what is queued so the
        // fault hits the seeded request id, on its own exchange.
        flush_pipeline(&mut client, &mut pending, &mut tally);
        let begun = Instant::now();
        match client.request("POST", path, &body, fault, idempotent) {
            Ok(response) => {
                tally.retries += u64::from(response.retries);
                let client_us = elapsed_us(begun);
                tally.latencies_us.push(client_us);
                // Individually-timed exchange: eligible for client/server
                // reconciliation by trace id.
                if note_stages(&mut tally, &response).is_some() && !response.trace_id.is_empty() {
                    tally.traced.push((response.trace_id.clone(), client_us));
                }
                classify_response(&mut tally, path, &response);
            }
            Err(_faulted_or_transport) => tally.transport_errors += 1,
        }
    }
    flush_pipeline(&mut client, &mut pending, &mut tally);
    tally.connects = client.connects();
    tally.reuses = client.reuses();
    tally
}

/// Writes the queued batch in one pipelined exchange and tallies every
/// response. Each member records the batch's end-to-end latency (the wait
/// of the last response); a transport failure loses the whole batch.
fn flush_pipeline(
    client: &mut ServeClient,
    pending: &mut Vec<(&'static str, String)>,
    tally: &mut ThreadTally,
) {
    if pending.is_empty() {
        return;
    }
    let requests: Vec<(&str, &str, &str)> = pending
        .iter()
        .map(|(path, body)| ("POST", *path, body.as_str()))
        .collect();
    let begun = Instant::now();
    match client.pipeline(&requests) {
        Ok(responses) => {
            let batch_us = elapsed_us(begun);
            for (response, (path, _)) in responses.iter().zip(pending.iter()) {
                tally.latencies_us.push(batch_us);
                // Server-side stage breakdowns stay valid per request, but
                // the client clock measured the batch — so no `traced`
                // entry (it would skew reconciliation).
                note_stages(tally, response);
                classify_response(tally, path, response);
            }
        }
        Err(_) => tally.transport_errors += pending.len() as u64,
    }
    pending.clear();
}

/// Buckets one answered response into the tally, extracting prediction
/// counts from `predict` bodies.
fn classify_response(tally: &mut ThreadTally, path: &str, response: &HttpResponse) {
    match response.status {
        200..=299 => {
            tally.ok += 1;
            if path == "/v1/predict" {
                if let Ok(parsed) = Json::parse(&response.body) {
                    let results = parsed
                        .get("results")
                        .and_then(Json::as_arr)
                        .map_or(0, <[Json]>::len);
                    tally.predictions += results as u64;
                    tally.degraded += parsed.get("degraded").and_then(Json::as_u64).unwrap_or(0);
                }
            }
        }
        400..=499 => tally.http_4xx += 1,
        503 => tally.http_503 += 1,
        _ => tally.http_5xx_other += 1,
    }
}

fn elapsed_us(begun: Instant) -> u64 {
    begun.elapsed().as_micros().min(u64::MAX as u128) as u64
}

/// Picks the next operation from the fixed mix and renders its body with
/// `batch` lines.
fn build_request(batch: usize, rng: &mut Xorshift) -> (&'static str, String, bool) {
    let roll = rng.next_f64();
    let user = rng.next_u64() as usize % USERS;
    if roll < OBSERVE_FRACTION {
        let mut body = String::with_capacity(batch * 64);
        for _ in 0..batch.max(1) {
            let service = rng.next_u64() as usize % SERVICES;
            let value = synthetic_value(user, service, rng);
            body.push_str(&format!(
                "{{\"user\":\"user-{user}\",\"service\":\"svc-{service}\",\
                 \"timestamp\":{},\"value\":{value:.4}}}\n",
                rng.next_u64() % 100_000
            ));
        }
        // observe mutates the model: never retried (DESIGN.md §14).
        ("/v1/observe", body, false)
    } else if roll < OBSERVE_FRACTION + RANK_FRACTION {
        (
            "/v1/rank",
            format!("{{\"user\":\"user-{user}\",\"k\":5}}"),
            true,
        )
    } else {
        let mut body = String::with_capacity(batch * 40);
        for _ in 0..batch.max(1) {
            let service = rng.next_u64() as usize % SERVICES;
            body.push_str(&format!(
                "{{\"user\":\"user-{user}\",\"service\":\"svc-{service}\"}}\n"
            ));
        }
        ("/v1/predict", body, true)
    }
}

/// Stable per-pair baseline plus noise, spanning ~two orders of magnitude
/// like response times do.
fn synthetic_value(user: usize, service: usize, rng: &mut Xorshift) -> f64 {
    let base = 0.05 + ((user * 31 + service * 17) % 97) as f64 * 0.02;
    base * (0.8 + 0.4 * rng.next_f64())
}

/// xorshift64* — deterministic, dependency-free.
struct Xorshift(u64);

impl Xorshift {
    fn new(seed: u64) -> Self {
        Self(seed | 1)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_and_rates() {
        let report = LoadReport {
            requests: 10,
            ok: 8,
            http_503: 1,
            transport_errors: 1,
            predictions: 4,
            degraded_answers: 1,
            latencies_us: vec![10, 20, 30, 40, 50, 60, 70, 80, 90, 100],
            ..LoadReport::default()
        };
        assert_eq!(report.percentile_us(50.0), 50);
        assert_eq!(report.percentile_us(99.0), 100);
        assert_eq!(report.percentile_us(0.0), 10);
        assert!((report.error_rate() - 0.2).abs() < 1e-12);
        assert!((report.degraded_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn empty_report_serializes_finite() {
        let report = LoadReport {
            label: "empty".into(),
            ..LoadReport::default()
        };
        let json = report.to_json();
        assert_eq!(
            json.get("schema").and_then(Json::as_str),
            Some(BENCH_SERVE_SCHEMA)
        );
        assert_eq!(
            json.get("latency_us")
                .and_then(|l| l.get("p99"))
                .and_then(Json::as_u64),
            Some(0)
        );
        // Round-trips through the strict parser (no NaN/Inf leakage).
        assert!(Json::parse(&json.to_string_compact()).is_ok());
    }

    #[test]
    fn reconciliation_serializes_and_gates_on_tolerance() {
        let mut report = LoadReport {
            label: "traced".into(),
            stage_samples: 2,
            stage_us_sum: [2, 4, 6, 8, 10, 12],
            ..LoadReport::default()
        };
        report.reconciliation = Some(StageReconciliation {
            exemplars: 4,
            matched: 3,
            median_ratio: 0.97,
        });
        let json = report.to_json();
        let recon = json.get("reconciliation").expect("reconciliation block");
        assert_eq!(recon.get("matched").and_then(Json::as_u64), Some(3));
        assert_eq!(recon.get("within_10pct"), Some(&Json::Bool(true)));
        assert_eq!(
            json.get("stage_mean_us")
                .and_then(|s| s.get("execute"))
                .and_then(Json::as_f64),
            Some(5.0)
        );
        assert!(StageReconciliation {
            exemplars: 1,
            matched: 1,
            median_ratio: 1.09,
        }
        .within(0.10));
        // No matches means no verdict, however good the ratio looks.
        assert!(!StageReconciliation::default().within(0.10));
        // An unreconciled report serializes the block as null.
        report.reconciliation = None;
        assert_eq!(report.to_json().get("reconciliation"), Some(&Json::Null));
    }

    #[test]
    fn workload_mix_is_deterministic_and_respects_fractions() {
        let mut rng_a = Xorshift::new(9);
        let mut rng_b = Xorshift::new(9);
        let mut counts = [0u32; 3];
        for _ in 0..2000 {
            let (path_a, body_a, idem_a) = build_request(8, &mut rng_a);
            let (path_b, body_b, idem_b) = build_request(8, &mut rng_b);
            assert_eq!((path_a, &body_a, idem_a), (path_b, &body_b, idem_b));
            match path_a {
                "/v1/observe" => {
                    assert!(!idem_a, "observe must never be marked idempotent");
                    counts[0] += 1;
                }
                "/v1/rank" => counts[1] += 1,
                _ => counts[2] += 1,
            }
        }
        let observed = counts[0] as f64 / 2000.0;
        let ranked = counts[1] as f64 / 2000.0;
        assert!(
            (observed - OBSERVE_FRACTION).abs() < 0.05,
            "observe fraction {observed}"
        );
        assert!(
            (ranked - RANK_FRACTION).abs() < 0.05,
            "rank fraction {ranked}"
        );
    }
}
