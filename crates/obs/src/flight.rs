//! Request-scoped tracing primitives and the black-box flight recorder.
//!
//! The serving plane stamps every request with a **trace id** (client-supplied
//! via `x-amf-trace-id` or minted from a seeded counter) and a [`StageClock`]
//! recording where the latency budget went
//! (accept/parse/admission/queue/execute/flush). Completed requests become
//! [`TraceRecord`]s, which feed two bounded stores:
//!
//! * a [`crate::Ring`] of the last-N records, whatever their latency, the
//!   "moments before the incident" context window;
//! * [`TailExemplars`] — the slowest-N records per interval, the tail the
//!   aggregate histograms cannot attribute.
//!
//! [`FlightRecorder`] dumps both (plus the trace-event ring and a metrics
//! snapshot) as versioned `amf-flight/v1` JSONL when something goes wrong —
//! a worker panic, a drift alarm, an SLO-violation burst, or a manual
//! `POST /debug/dump`. Dumps go through the same size-rotated
//! [`RotatingLog`] as the telemetry recorder's lines, so a recorder left
//! attached for days stays bounded.
//!
//! Cost argument: recording is one `Mutex` push per completed request into
//! pre-bounded storage (no per-request file I/O); dumping walks bounded
//! rings. Nothing here touches the model's zero-alloc observe path.

use crate::json::Json;
use crate::registry::lock;
use crate::sink::{LogConfig, RotatingLog};
use crate::trace::TraceEvent;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Schema tag of every line in a flight dump (and of the inline dump doc).
pub const FLIGHT_SCHEMA: &str = "amf-flight/v1";

/// Stage names, in request-lifecycle order. Indices match
/// [`StageClock`]'s accessors.
pub const STAGES: [&str; 6] = ["accept", "parse", "admission", "queue", "execute", "flush"];

/// Maximum accepted length of a client-supplied trace id.
pub const MAX_TRACE_ID_LEN: usize = 64;

/// Whether a client-supplied trace id is acceptable as-is (1–64 chars of
/// `[A-Za-z0-9._-]`). Anything else is *replaced* with a minted id, never
/// rejected — tracing must not turn a good request into a 400.
pub fn valid_trace_id(id: &str) -> bool {
    !id.is_empty()
        && id.len() <= MAX_TRACE_ID_LEN
        && id
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'.' || b == b'_' || b == b'-')
}

/// Mints a trace id from a seeded counter: `amf-<16 hex digits>`.
/// Hand-rolled hex: this runs once per untagged request on the serving
/// hot path, so it skips the `format!` machinery.
pub fn mint_trace_id(seq: &AtomicU64) -> String {
    let n = seq.fetch_add(1, Ordering::Relaxed);
    let mut id = String::with_capacity(20);
    id.push_str("amf-");
    for shift in (0..16).rev() {
        let nibble = ((n >> (shift * 4)) & 0xf) as u8;
        id.push(char::from(if nibble < 10 {
            b'0' + nibble
        } else {
            b'a' + (nibble - 10)
        }));
    }
    id
}

/// Per-request stage timings in nanoseconds. Plain value type: it rides in
/// jobs and completions by copy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageClock {
    ns: [u64; 6],
}

impl StageClock {
    /// Stage index: time from connection accept to the first byte of this
    /// request (non-zero only for a connection's first request).
    pub const ACCEPT: usize = 0;
    /// Stage index: first buffered byte to parse completion (spans a
    /// slow-trickled arrival).
    pub const PARSE: usize = 1;
    /// Stage index: admission-control decision (deadline parse + EDF push).
    pub const ADMISSION: usize = 2;
    /// Stage index: EDF queue wait until a worker popped the job (0 for a
    /// short read the poller answers itself).
    pub const QUEUE: usize = 3;
    /// Stage index: handler execution, on a worker or on the poller.
    pub const EXECUTE: usize = 4;
    /// Stage index: completion parked until rendered into the write queue.
    pub const FLUSH: usize = 5;

    /// An all-zero clock.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets one stage's duration (ns).
    pub fn set(&mut self, stage: usize, ns: u64) {
        if stage < self.ns.len() {
            self.ns[stage] = ns;
        }
    }

    /// One stage's duration (ns); 0 for out-of-range indices.
    pub fn get(&self, stage: usize) -> u64 {
        self.ns.get(stage).copied().unwrap_or(0)
    }

    /// Sum of every stage (ns).
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// Renders the `x-amf-stage-us` header value:
    /// `accept=0;parse=12;admission=1;queue=40;execute=180;flush=3` (µs,
    /// integer-truncated).
    pub fn header_us(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(80);
        for (i, name) in STAGES.iter().enumerate() {
            if i > 0 {
                out.push(';');
            }
            out.push_str(name);
            out.push('=');
            // write! appends digits in place — no per-stage String alloc
            // (this renders once per response on the serving hot path).
            let _ = write!(out, "{}", self.ns[i] / 1_000);
        }
        out
    }

    /// Parses a header produced by [`StageClock::header_us`] back into
    /// per-stage µs values (client-side reconciliation). Unknown keys are
    /// ignored; `None` if nothing parsed.
    pub fn parse_header_us(header: &str) -> Option<[u64; 6]> {
        let mut us = [0u64; 6];
        let mut any = false;
        for part in header.split(';') {
            let (name, value) = part.split_once('=')?;
            if let Some(idx) = STAGES.iter().position(|s| *s == name.trim()) {
                us[idx] = value.trim().parse().ok()?;
                any = true;
            }
        }
        any.then_some(us)
    }

    /// JSON object of per-stage µs values keyed by stage name.
    pub fn to_json_us(&self) -> Json {
        let mut obj = Json::obj();
        for (i, name) in STAGES.iter().enumerate() {
            obj.set(name, Json::UInt(self.ns[i] / 1_000));
        }
        obj
    }
}

/// One completed request, as retained by the flight ring and the tail
/// exemplars.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// The request's trace id (client-supplied or minted).
    pub trace_id: String,
    /// Routed endpoint label. Static so the serving hot path never
    /// allocates for it and dump cardinality stays bounded: unrouted
    /// paths share one label instead of echoing arbitrary client paths.
    pub endpoint: &'static str,
    /// Response status.
    pub status: u16,
    /// Per-stage timings.
    pub stages: StageClock,
    /// Deadline slack at completion, µs (negative = budget already burned).
    pub deadline_slack_us: i64,
}

impl TraceRecord {
    /// End-to-end time attributed across stages (ns).
    pub fn total_ns(&self) -> u64 {
        self.stages.total_ns()
    }

    /// Serializes for dumps and the `/debug/exemplars` endpoint.
    pub fn to_json(&self) -> Json {
        let mut obj = Json::obj();
        obj.set("trace_id", Json::Str(self.trace_id.clone()))
            .set("endpoint", Json::Str(self.endpoint.to_string()))
            .set("status", Json::UInt(u64::from(self.status)))
            .set("total_us", Json::UInt(self.total_ns() / 1_000))
            .set("stages_us", self.stages.to_json_us())
            .set(
                "deadline_slack_us",
                Json::Num(self.deadline_slack_us as f64),
            );
        obj
    }
}

#[derive(Debug, Default)]
struct ExemplarWindows {
    current: Vec<TraceRecord>,
    previous: Vec<TraceRecord>,
}

/// Slowest-N requests per interval. [`TailExemplars::offer`] keeps the
/// current interval's worst offenders; the owner calls
/// [`TailExemplars::rotate`] on its snapshot cadence, and
/// [`TailExemplars::snapshot`] merges the current and previous windows so a
/// scrape right after a rotation still sees the tail.
#[derive(Debug)]
pub struct TailExemplars {
    windows: Mutex<ExemplarWindows>,
    capacity: usize,
}

impl TailExemplars {
    /// Keeps the `capacity` slowest records per window.
    pub fn new(capacity: usize) -> Self {
        Self {
            windows: Mutex::new(ExemplarWindows::default()),
            capacity: capacity.max(1),
        }
    }

    /// Offers one completed request; retained only if it is among the
    /// current window's slowest. Borrowed so the serving hot path pays the
    /// clone only for the handful of records that actually qualify.
    pub fn offer(&self, record: &TraceRecord) {
        let mut windows = lock(&self.windows);
        if windows.current.len() < self.capacity {
            windows.current.push(record.clone());
            return;
        }
        // Replace the fastest retained record if the newcomer is slower.
        if let Some((idx, fastest)) = windows
            .current
            .iter()
            .enumerate()
            .min_by_key(|(_, r)| r.total_ns())
            .map(|(i, r)| (i, r.total_ns()))
        {
            if record.total_ns() > fastest {
                windows.current[idx] = record.clone();
            }
        }
    }

    /// Starts a new interval window (previous = just-finished window).
    pub fn rotate(&self) {
        let mut windows = lock(&self.windows);
        windows.previous = std::mem::take(&mut windows.current);
    }

    /// The slowest records across the current and previous windows, slowest
    /// first, capped at the window capacity.
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        let windows = lock(&self.windows);
        let mut merged: Vec<TraceRecord> = windows
            .previous
            .iter()
            .chain(windows.current.iter())
            .cloned()
            .collect();
        merged.sort_by_key(|r| std::cmp::Reverse(r.total_ns()));
        merged.truncate(self.capacity);
        merged
    }
}

/// The black-box dump sink: renders one `amf-flight/v1` dump document per
/// trigger and, when it has a log, appends the same content as JSONL
/// through a [`RotatingLog`].
#[derive(Debug)]
pub struct FlightRecorder {
    log: Option<RotatingLog>,
    dumps: AtomicU64,
}

impl FlightRecorder {
    /// Creates a recorder that also appends its dumps to `log`, if given;
    /// nothing is written until the first dump.
    pub fn new(log: Option<LogConfig>) -> Self {
        Self {
            log: log.map(RotatingLog::new),
            dumps: AtomicU64::new(0),
        }
    }

    /// Dumps triggered so far.
    pub fn dumps(&self) -> u64 {
        self.dumps.load(Ordering::Relaxed)
    }

    /// JSONL lines appended so far (0 without a log).
    pub fn lines_written(&self) -> u64 {
        self.log.as_ref().map_or(0, RotatingLog::lines_written)
    }

    /// Log rotations performed so far (0 without a log).
    pub fn rotations(&self) -> u64 {
        self.log.as_ref().map_or(0, RotatingLog::rotations)
    }

    /// Failed log writes (dumping is best-effort; the inline document is
    /// always produced).
    pub fn write_errors(&self) -> u64 {
        self.log.as_ref().map_or(0, RotatingLog::write_errors)
    }

    /// Records one incident: builds the inline dump document and, when the
    /// recorder has a log, appends the same content as schema-tagged
    /// JSONL lines (`kind` ∈ `header|exemplar|trace|event`). The whole dump
    /// is buffered and appended in one write, so concurrent dumps never
    /// interleave lines.
    pub fn dump(
        &self,
        reason: &str,
        records: &[TraceRecord],
        exemplars: &[TraceRecord],
        events: &[TraceEvent],
        metrics: &Json,
    ) -> Json {
        let at_ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);

        let event_json = |e: &TraceEvent| {
            let mut obj = Json::obj();
            obj.set("name", Json::Str(e.name.to_string()))
                .set("detail", Json::Str(e.detail.clone()))
                .set("at_ns", Json::UInt(e.at_ns))
                .set("elapsed_ns", Json::UInt(e.elapsed_ns));
            obj
        };

        let mut doc = Json::obj();
        doc.set("schema", Json::Str(FLIGHT_SCHEMA.into()))
            .set("reason", Json::Str(reason.to_string()))
            .set("at_ms", Json::UInt(at_ms))
            .set(
                "exemplars",
                Json::Arr(exemplars.iter().map(TraceRecord::to_json).collect()),
            )
            .set(
                "records",
                Json::Arr(records.iter().map(TraceRecord::to_json).collect()),
            )
            .set("events", Json::Arr(events.iter().map(event_json).collect()))
            .set("metrics", metrics.clone());

        if let Some(log) = &self.log {
            let tagged = |kind: &str, mut body: Json| {
                body.set("schema", Json::Str(FLIGHT_SCHEMA.into()))
                    .set("kind", Json::Str(kind.to_string()))
                    .set("reason", Json::Str(reason.to_string()))
                    .set("at_ms", Json::UInt(at_ms));
                body
            };
            let mut header = Json::obj();
            header
                .set("metrics", metrics.clone())
                .set("n_records", Json::UInt(records.len() as u64))
                .set("n_exemplars", Json::UInt(exemplars.len() as u64))
                .set("n_events", Json::UInt(events.len() as u64));
            let mut lines = vec![tagged("header", header)];
            lines.extend(exemplars.iter().map(|r| tagged("exemplar", r.to_json())));
            lines.extend(records.iter().map(|r| tagged("trace", r.to_json())));
            lines.extend(events.iter().map(|e| tagged("event", event_json(e))));
            log.append(&lines);
        }

        self.dumps.fetch_add(1, Ordering::Relaxed);
        doc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: &str, total_us: u64) -> TraceRecord {
        let mut stages = StageClock::new();
        stages.set(StageClock::EXECUTE, total_us * 1_000);
        TraceRecord {
            trace_id: id.to_string(),
            endpoint: "/v1/predict",
            status: 200,
            stages,
            deadline_slack_us: 500,
        }
    }

    #[test]
    fn trace_id_validation_and_minting() {
        assert!(valid_trace_id("abc-123.X_z"));
        assert!(!valid_trace_id(""));
        assert!(!valid_trace_id("has space"));
        assert!(!valid_trace_id("emoji\u{1F600}"));
        assert!(!valid_trace_id(&"x".repeat(MAX_TRACE_ID_LEN + 1)));
        let seq = AtomicU64::new(7);
        assert_eq!(mint_trace_id(&seq), "amf-0000000000000007");
        assert_eq!(mint_trace_id(&seq), "amf-0000000000000008");
        assert!(valid_trace_id(&mint_trace_id(&seq)));
    }

    #[test]
    fn stage_clock_header_round_trips() {
        let mut clock = StageClock::new();
        clock.set(StageClock::ACCEPT, 1_000);
        clock.set(StageClock::PARSE, 12_000);
        clock.set(StageClock::ADMISSION, 2_000);
        clock.set(StageClock::QUEUE, 40_000);
        clock.set(StageClock::EXECUTE, 180_000);
        clock.set(StageClock::FLUSH, 3_000);
        assert_eq!(clock.total_ns(), 238_000);
        let header = clock.header_us();
        assert_eq!(
            header,
            "accept=1;parse=12;admission=2;queue=40;execute=180;flush=3"
        );
        let parsed = StageClock::parse_header_us(&header).unwrap();
        assert_eq!(parsed, [1, 12, 2, 40, 180, 3]);
        assert!(StageClock::parse_header_us("garbage").is_none());
    }

    #[test]
    fn exemplars_keep_the_slowest() {
        let ex = TailExemplars::new(2);
        ex.offer(&record("fast", 10));
        ex.offer(&record("slow", 500));
        ex.offer(&record("mid", 100));
        ex.offer(&record("slower", 900));
        let snap = ex.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].trace_id, "slower");
        assert_eq!(snap[1].trace_id, "slow");
        // Rotation keeps the previous window visible until the next one.
        ex.rotate();
        assert_eq!(ex.snapshot().len(), 2, "previous window still visible");
        ex.offer(&record("new", 50));
        let snap = ex.snapshot();
        assert_eq!(snap[0].trace_id, "slower");
        ex.rotate();
        ex.rotate();
        assert!(ex.snapshot().is_empty(), "two rotations age everything out");
    }

    #[test]
    fn dump_writes_schema_tagged_jsonl_and_rotates() {
        let dir = std::env::temp_dir().join(format!(
            "amf_flight_test_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("flight.jsonl");
        let _ = std::fs::remove_file(&path);
        let recorder = FlightRecorder::new(Some(LogConfig {
            path: path.clone(),
            max_bytes: 700,
        }));
        let events = vec![TraceEvent {
            name: "drift_alarm",
            detail: "user side".into(),
            at_ns: 1,
            elapsed_ns: 0,
        }];
        let metrics = Json::obj();
        let doc = recorder.dump(
            "manual",
            &[record("r1", 5)],
            &[record("e1", 9)],
            &events,
            &metrics,
        );
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some(FLIGHT_SCHEMA)
        );
        assert_eq!(doc.get("reason").and_then(Json::as_str), Some("manual"));
        assert_eq!(
            doc.get("exemplars")
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(1)
        );
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4, "header + exemplar + trace + event");
        for line in &lines {
            let parsed = Json::parse(line).expect("every line parses");
            assert_eq!(
                parsed.get("schema").and_then(Json::as_str),
                Some(FLIGHT_SCHEMA)
            );
            assert!(parsed.get("kind").and_then(Json::as_str).is_some());
        }
        assert_eq!(recorder.dumps(), 1);
        assert_eq!(recorder.lines_written(), 4);

        // A second dump overflows max_bytes: the live file rotates to .1.
        recorder.dump("manual", &[record("r2", 6)], &[], &events, &metrics);
        assert_eq!(recorder.rotations(), 1);
        assert!(path.with_extension("jsonl.1").exists());
        assert_eq!(recorder.write_errors(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dump_without_sink_still_builds_the_document() {
        let recorder = FlightRecorder::new(None);
        let doc = recorder.dump("worker_panic", &[], &[], &[], &Json::obj());
        assert_eq!(
            doc.get("reason").and_then(Json::as_str),
            Some("worker_panic")
        );
        assert!(Json::parse(&doc.to_string_compact()).is_ok());
        assert_eq!(recorder.dumps(), 1);
        assert_eq!(recorder.lines_written(), 0);
    }
}
