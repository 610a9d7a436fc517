//! Per-request bookkeeping shared by the closed and open loops: outcome
//! counts, latencies, answer checks, and — on a traced run — the server's
//! stage clocks, client spans and samples of the bytes exchanged.

use crate::check::check;
use servebench::inputs::Kind;
use servebench::trace::SpanLog;
use servebench::wire::{parse_stage_us, Response};
use servebench::Req;
use std::time::Instant;

/// Requests and responses kept for the in-process layer timings.
const SAMPLE_LIMIT: usize = 2000;

/// What a traced run collects besides the counts.
pub struct TraceLog {
    /// A span per request, under the span open when it was sent.
    pub spans: SpanLog,
    /// Server stage clocks per endpoint, in [`Kind::ALL`] order.
    pub stages: [Vec<[u64; 6]>; 3],
    /// Client latency minus the server's stage total, µs.
    pub outside_us: Vec<f64>,
    /// Raw requests sent (first [`SAMPLE_LIMIT`]).
    pub requests: Vec<Vec<u8>>,
    /// 2xx response bodies received (first [`SAMPLE_LIMIT`]).
    pub responses: Vec<Vec<u8>>,
}

/// Outcome counts and latencies of a stretch of traffic.
#[derive(Default)]
pub struct Tally {
    /// Requests attempted.
    pub attempted: u64,
    /// 2xx answers.
    pub ok: u64,
    /// `503` answers: refused by admission or deadline.
    pub refused: u64,
    /// Other non-2xx answers.
    pub other_status: u64,
    /// Requests lost to a transport error.
    pub transport: u64,
    /// 2xx answers that failed a check.
    pub incorrect: u64,
    /// First few check failures.
    pub errors: Vec<String>,
    /// Latency of each 2xx answer, µs, in arrival order.
    pub lat_us: Vec<f64>,
    /// Arrival of each 2xx answer, seconds since the run's origin.
    pub done_s: Vec<f64>,
    /// Predictions answered.
    pub predictions: u64,
    /// Of those, below the `model` rung.
    pub degraded: u64,
    /// Predicted values of each 2xx predict answer, in request order.
    pub values: Vec<f64>,
    /// Set on traced stretches.
    pub trace: Option<TraceLog>,
}

impl Tally {
    /// A tally that also traces, its spans timed from `origin`.
    pub fn traced(origin: Instant) -> Self {
        Self {
            trace: Some(TraceLog {
                spans: SpanLog::new(origin),
                stages: Default::default(),
                outside_us: Vec::new(),
                requests: Vec::new(),
                responses: Vec::new(),
            }),
            ..Self::default()
        }
    }

    /// Non-2xx answers plus transport errors.
    pub fn failed(&self) -> u64 {
        self.refused + self.other_status + self.transport
    }

    fn error(&mut self, message: String) {
        if self.errors.len() < 5 {
            self.errors.push(message);
        }
    }

    /// Records one request. `latency_us` is what the metrics use (from
    /// the send on closed loops, from the due time on the open loop);
    /// `sent` and `received` bound the client span.
    pub fn record(
        &mut self,
        req: &Req,
        bytes: &[u8],
        outcome: Result<Response, String>,
        latency_us: f64,
        (sent, received, origin): (Instant, Instant, Instant),
    ) {
        self.attempted += 1;
        let resp = match outcome {
            Ok(resp) => resp,
            Err(e) => {
                self.transport += 1;
                self.error(format!("{}: {e}", req.kind().path()));
                return;
            }
        };
        if !(200..300).contains(&resp.status) {
            if resp.status == 503 {
                self.refused += 1;
            } else {
                self.other_status += 1;
                self.error(format!("{}: status {}", req.kind().path(), resp.status));
            }
            return;
        }
        match check(req, &resp.body) {
            Ok(answer) => {
                self.ok += 1;
                self.lat_us.push(latency_us);
                self.done_s
                    .push(received.duration_since(origin).as_secs_f64());
                self.predictions += answer.predictions;
                self.degraded += answer.degraded;
                self.values.extend(answer.values);
            }
            Err(e) => {
                self.incorrect += 1;
                self.error(format!("{}: {e}", req.kind().path()));
                return;
            }
        }
        if let Some(trace) = &mut self.trace {
            let client_us = received.duration_since(sent).as_secs_f64() * 1e6;
            let stages = resp.stage_us.as_deref().and_then(parse_stage_us);
            if let Some(stages) = stages {
                trace.stages[req.kind().index()].push(stages);
                trace
                    .outside_us
                    .push(client_us - stages.iter().sum::<u64>() as f64);
            }
            trace
                .spans
                .record(kind_span(req.kind()), sent, received, stages);
            if trace.requests.len() < SAMPLE_LIMIT {
                trace.requests.push(bytes.to_vec());
                trace.responses.push(resp.body);
            }
            if stages.is_none() {
                self.incorrect += 1;
                self.error(format!("{}: no x-amf-stage-us header", req.kind().path()));
            }
        }
    }

    /// Folds `other` into `self` (counts and samples; not the trace).
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.ok += other.ok;
        self.refused += other.refused;
        self.other_status += other.other_status;
        self.transport += other.transport;
        self.incorrect += other.incorrect;
        for e in other.errors {
            self.error(e);
        }
        self.lat_us.extend(other.lat_us);
        self.done_s.extend(other.done_s);
        self.predictions += other.predictions;
        self.degraded += other.degraded;
    }
}

fn kind_span(kind: Kind) -> &'static str {
    match kind {
        Kind::Observe => "http.observe",
        Kind::Predict => "http.predict",
        Kind::Rank => "http.rank",
    }
}
