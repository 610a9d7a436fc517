//! Shared pieces of the serving benchmark: the seeded input generator, the
//! wire encoding of requests, a small JSON reader for responses, and the
//! statistics the metrics are computed with.
//!
//! The `servebench` binary drives `amf-qos serve` over HTTP with these
//! inputs; the `servebench-layers` package reuses them to time each layer's
//! public functions in-process on exactly the same inputs.

#![forbid(unsafe_code)]

pub mod inputs;
pub mod json;
pub mod stats;
pub mod trace;
pub mod wire;

pub use inputs::{Fleet, FleetInputs, Kind, Mix, Req, RequestStream, Workload};
