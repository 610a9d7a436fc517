//! Observability layer for the AMF QoS-prediction system.
//!
//! The paper's runtime-adaptation loop (Section III: per-time-slice
//! re-prediction, Algorithm 1 per-sample updates) gives the serving stack a
//! wall-clock budget; this crate makes where that budget goes visible
//! without perturbing the paths being measured:
//!
//! - [`Counter`] / [`Gauge`] / [`Histogram`] — plain-atomic primitives;
//!   recording is wait-free and allocation-free. Histograms are log-bucketed
//!   (powers of two in nanoseconds) with all storage pre-allocated at
//!   registration, which is what keeps the zero-alloc hot-path guarantee
//!   intact with instrumentation enabled.
//! - [`MetricsRegistry`] — named registration returning `Arc` handles;
//!   locks are touched only at registration and snapshot time. A process
//!   [`global`] registry backs amf-core's static instrumentation; subsystems
//!   needing isolated counts (per-service-instance stats) own their own.
//! - [`Ring`] — the one bounded ring: a pre-allocated FIFO that evicts its
//!   oldest entry and counts drops. [`TraceRing`] stamps coarse lifecycle
//!   events into one; the serving plane keeps its last-N trace records in
//!   another.
//! - [`Json`] + [`MetricsRegistry::snapshot_json`] — a versioned
//!   (`amf-obs/v1`) snapshot with a writer *and* a strict parser, so the
//!   serialize → parse → equal round trip is testable offline.
//! - [`prom`] — Prometheus text-exposition (0.0.4) rendering of snapshots,
//!   for a `GET /metrics` scrape endpoint.
//! - [`RotatingLog`] — the one size-rotated JSONL sink (`<path>.1`,
//!   `<path>.2`) with its write counters; both recorders below write
//!   through it.
//! - [`SnapshotRecorder`] — a background interval scraper appending
//!   `amf-obs-ts/v1` JSONL telemetry lines to a [`RotatingLog`].
//! - [`flight`] — request-scoped tracing ([`StageClock`], [`TraceRecord`],
//!   [`TailExemplars`]) and the incident-triggered [`FlightRecorder`]
//!   dumping versioned `amf-flight/v1` JSONL.
//!
//! Deliberately dependency-free (std only).

#![deny(missing_docs)]
#![deny(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod flight;
pub mod json;
pub mod metrics;
pub mod prom;
pub mod recorder;
pub mod registry;
pub mod ring;
pub mod sink;
pub mod trace;

pub use flight::{
    mint_trace_id, valid_trace_id, FlightRecorder, StageClock, TailExemplars, TraceRecord,
    FLIGHT_SCHEMA, MAX_TRACE_ID_LEN, STAGES,
};
pub use json::{Json, ParseError, MAX_PARSE_DEPTH};
pub use metrics::{bucket_index, bucket_upper_bound, Counter, Gauge, Histogram, BUCKETS};
pub use prom::{is_valid_metric_name, parse_exposition, render_prometheus, CONTENT_TYPE};
pub use recorder::{SnapshotRecorder, TS_SCHEMA};
pub use registry::{global, MetricsRegistry, DEFAULT_TRACE_CAPACITY, SCHEMA};
pub use ring::Ring;
pub use sink::{LogConfig, RotatingLog, DEFAULT_MAX_LOG_BYTES};
pub use trace::{TraceEvent, TraceRing};
