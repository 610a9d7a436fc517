//! Hardened serving plane for the QoS prediction service.
//!
//! Everything before this crate assumed callers hold a
//! [`qos_service::QosPredictionService`] in-process; a runtime-adaptation
//! loop talks to the predictor over a socket, under real traffic, while
//! parts of the system are unhealthy. This crate is that edge, std-only:
//!
//! * [`ServePlane`] — an HTTP/1.1 endpoint for `observe` / `predict` /
//!   `rank` batches (newline-delimited JSON bodies, reusing [`qos_obs::Json`])
//!   plus the observability routes (`/metrics`, `/healthz`,
//!   `/snapshot.json`). The poller answers short reads (small predict and
//!   rank bodies, `/healthz`) itself; a fixed worker pool takes the rest
//!   through a bounded queue, which gives **two-level admission control**
//!   (fast-reject `503` when the queue is full, degraded-but-answered
//!   predictions via the fallback ladder while the engine is unhealthy);
//!   **per-request deadlines** (`x-amf-deadline-ms`) propagate as a
//!   budget — a request whose queue wait already exceeds its budget is
//!   rejected on arrival without touching the model, and batch handlers
//!   re-check the budget between items. Connections are hardened:
//!   read/write timeouts, a head cap, a body cap, and malformed-request
//!   `400`s that never panic. Shutdown is a **graceful drain**: stop
//!   accepting, flush in-flight requests, publish a final snapshot.
//! * [`http`] — the incremental, buffer-based request parser / response
//!   renderer behind it, written for hostile input (truncated heads, bad
//!   `Content-Length`, oversized bodies, early FIN) and for pipelining
//!   (leftover bytes after one request are the next request).
//! * [`poller`] + [`conn`] + [`edf`] — the readiness-loop machinery: a
//!   std-only `poll(2)` binding with a cross-thread waker, the
//!   per-connection state machine (keep-alive, in-order pipelined
//!   responses, read backpressure), and the earliest-deadline-first
//!   pending queue.
//! * [`client`] + [`loadgen`] — the load harness: a closed-loop
//!   generator over one client, [`ServeClient`], that either keeps its
//!   connection alive (optionally pipelining) or sends `Connection: close`
//!   on every request, and counts every dial either way; per-request
//!   timeouts, bounded retry (idempotent `predict`/`rank` only —
//!   `observe` is never retried) with exponential backoff + jitter, and
//!   deterministic network-fault injection ([`amf_core::NetFault`]:
//!   conn-reset, slow-read, black-hole) so the hardening claims are
//!   measured, not asserted (`amf-qos loadtest --out`, schema
//!   `amf-bench-serve/v4`). Serving speed is benchmarked by `servebench/`.
//!
//! Every request carries a trace id (client-supplied `x-amf-trace-id` or
//! minted) and a per-stage [`qos_obs::StageClock`] breakdown echoed as
//! `x-amf-stage-us`; the slowest requests per interval surface as tail
//! exemplars (`/debug/exemplars`), and a black-box flight recorder dumps
//! recent traces + metrics as `amf-flight/v1` JSONL on worker panic, drift
//! alarm, SLO bursts, or `POST /debug/dump` (DESIGN.md §17).
//!
//! The protocol and its retry-safety rules are specified in DESIGN.md §14;
//! the connection state machine and EDF semantics in §15; the trace model
//! in §17.

// The only unsafe in the crate is the single `poll(2)` FFI call in
// `poller::sys` (std offers no readiness API); everything else stays
// forbidden by the deny + the module-scoped allow.
#![deny(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod client;
pub mod conn;
pub mod edf;
pub mod http;
pub mod loadgen;
pub mod plane;
pub mod poller;

pub use client::{ClientConfig, ClientError, HttpResponse, ServeClient};
pub use edf::{EdfQueue, PushError};
pub use loadgen::{LoadConfig, LoadReport, LoadRunner, StageReconciliation, BENCH_SERVE_SCHEMA};
pub use plane::{ServeConfig, ServePlane, ServeStats, SERVE_SCHEMA};
