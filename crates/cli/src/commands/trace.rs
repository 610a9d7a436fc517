//! `amf-qos trace` — offline summarizer for `amf-flight/v1` dumps.
//!
//! Reads the JSONL flight file a serving plane (`serve --flight-log`),
//! scenario engine (`scenario run --flight-dir`), or manual
//! `POST /debug/dump` produced, and answers the first incident questions
//! without a live process:
//!
//! * per-stage latency distribution (p50/p95/p99 over every trace and
//!   exemplar line, per stage and for the stage-sum total);
//! * critical-path ranking — which stage contributes the most time in
//!   aggregate, i.e. where an optimization (or an outage) actually lives;
//! * the slowest exemplars, pretty-printed with their stage vectors and
//!   deadline slack;
//! * the dump headers (trigger reasons) and recorded trace-ring events.

use super::CliError;
use crate::args::Args;
use qos_obs::{Json, STAGES};

/// Usage text for the subcommand.
pub const USAGE: &str = "amf-qos trace <flight.jsonl> [--top N]";

/// Per-stage µs samples plus derived aggregates.
#[derive(Default)]
struct StageDigest {
    /// One samples vector per stage, indexed like [`STAGES`].
    samples: [Vec<u64>; 6],
    /// Stage-sum totals, one per record.
    totals: Vec<u64>,
}

impl StageDigest {
    fn absorb(&mut self, stages_us: &Json) {
        let mut total = 0u64;
        for (i, name) in STAGES.iter().enumerate() {
            let us = stages_us.get(name).and_then(Json::as_u64).unwrap_or(0);
            self.samples[i].push(us);
            total += us;
        }
        self.totals.push(total);
    }
}

/// Nearest-rank percentile over a sorted slice; 0 when empty.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

/// Runs the subcommand.
///
/// # Errors
///
/// Returns [`CliError`] for a missing path, unreadable file, or a file
/// with no parseable `amf-flight/v1` lines.
pub fn run(args: &Args) -> Result<String, CliError> {
    let path = args
        .positional(1)
        .ok_or_else(|| CliError("missing flight file path".into()))?;
    let top: usize = args.parse_or("top", 5)?;
    let text = std::fs::read_to_string(path).map_err(|e| CliError(format!("{path}: {e}")))?;

    let mut digest = StageDigest::default();
    let mut headers: Vec<(String, u64)> = Vec::new();
    let mut exemplars: Vec<Json> = Vec::new();
    let mut events: Vec<Json> = Vec::new();
    let mut lines_seen = 0u64;
    let mut lines_flight = 0u64;
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        lines_seen += 1;
        let Ok(parsed) = Json::parse(line) else {
            continue;
        };
        if parsed.get("schema").and_then(Json::as_str) != Some("amf-flight/v1") {
            continue;
        }
        lines_flight += 1;
        match parsed.get("kind").and_then(Json::as_str) {
            Some("header") => {
                let reason = parsed
                    .get("reason")
                    .and_then(Json::as_str)
                    .unwrap_or("?")
                    .to_string();
                let at_ms = parsed.get("at_ms").and_then(Json::as_u64).unwrap_or(0);
                headers.push((reason, at_ms));
            }
            Some("exemplar") => {
                if let Some(stages) = parsed.get("stages_us") {
                    digest.absorb(stages);
                }
                exemplars.push(parsed);
            }
            Some("trace") => {
                if let Some(stages) = parsed.get("stages_us") {
                    digest.absorb(stages);
                }
            }
            Some("event") => events.push(parsed),
            _ => {}
        }
    }
    if lines_flight == 0 {
        return Err(CliError(format!(
            "{path}: no amf-flight/v1 lines in {lines_seen} line(s)"
        )));
    }

    let mut out = format!(
        "flight: {path} — {} dump(s), {} stage-timed record(s), {} event(s)\n",
        headers.len(),
        digest.totals.len(),
        events.len()
    );
    for (reason, at_ms) in &headers {
        out.push_str(&format!("  dump: reason={reason} at_ms={at_ms}\n"));
    }

    if !digest.totals.is_empty() {
        // Per-stage distribution and the critical path (share of the total
        // time each stage accounts for, across every record).
        out.push_str("\nstage latency (us):\n");
        out.push_str(&format!(
            "  {:<10} {:>8} {:>8} {:>8} {:>10} {:>7}\n",
            "stage", "p50", "p95", "p99", "sum", "share"
        ));
        let grand_total: u64 = digest.totals.iter().sum();
        let mut ranked: Vec<(usize, u64)> = (0..STAGES.len())
            .map(|i| (i, digest.samples[i].iter().sum::<u64>()))
            .collect();
        for samples in digest.samples.iter_mut() {
            samples.sort_unstable();
        }
        for (i, name) in STAGES.iter().enumerate() {
            let s = &digest.samples[i];
            let sum: u64 = s.iter().sum();
            let share = if grand_total == 0 {
                0.0
            } else {
                sum as f64 / grand_total as f64 * 100.0
            };
            out.push_str(&format!(
                "  {:<10} {:>8} {:>8} {:>8} {:>10} {:>6.1}%\n",
                name,
                percentile(s, 50.0),
                percentile(s, 95.0),
                percentile(s, 99.0),
                sum,
                share
            ));
        }
        digest.totals.sort_unstable();
        out.push_str(&format!(
            "  {:<10} {:>8} {:>8} {:>8} {:>10} {:>6.1}%\n",
            "total",
            percentile(&digest.totals, 50.0),
            percentile(&digest.totals, 95.0),
            percentile(&digest.totals, 99.0),
            grand_total,
            100.0
        ));
        ranked.sort_by_key(|&(_, sum)| std::cmp::Reverse(sum));
        let path_names: Vec<&str> = ranked
            .iter()
            .filter(|&&(_, sum)| sum > 0)
            .map(|&(i, _)| STAGES[i])
            .collect();
        if !path_names.is_empty() {
            out.push_str(&format!("critical path: {}\n", path_names.join(" > ")));
        }
    }

    if !exemplars.is_empty() {
        exemplars.sort_by(|a, b| {
            let t = |j: &Json| j.get("total_us").and_then(Json::as_u64).unwrap_or(0);
            t(b).cmp(&t(a))
        });
        out.push_str(&format!("\nslowest exemplars (top {top}):\n"));
        for ex in exemplars.iter().take(top.max(1)) {
            let stages = ex.get("stages_us");
            let stage_str = STAGES
                .iter()
                .map(|name| {
                    let us = stages
                        .and_then(|s| s.get(name))
                        .and_then(Json::as_u64)
                        .unwrap_or(0);
                    format!("{name}={us}")
                })
                .collect::<Vec<_>>()
                .join(" ");
            out.push_str(&format!(
                "  {} {} status={} total={}us slack={}us\n    {}\n",
                ex.get("trace_id").and_then(Json::as_str).unwrap_or("?"),
                ex.get("endpoint").and_then(Json::as_str).unwrap_or("?"),
                ex.get("status").and_then(Json::as_u64).unwrap_or(0),
                ex.get("total_us").and_then(Json::as_u64).unwrap_or(0),
                ex.get("deadline_slack_us")
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0),
                stage_str
            ));
        }
    }

    if !events.is_empty() {
        out.push_str(&format!("\nevents (last {}):\n", events.len().min(10)));
        let skip = events.len().saturating_sub(10);
        for ev in &events[skip..] {
            out.push_str(&format!(
                "  {} {}\n",
                ev.get("name").and_then(Json::as_str).unwrap_or("?"),
                ev.get("detail").and_then(Json::as_str).unwrap_or("")
            ));
        }
    }

    Ok(out.trim_end().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use qos_obs::{FlightRecorder, LogConfig, StageClock, TraceRecord, DEFAULT_MAX_LOG_BYTES};

    fn args(tokens: &[&str]) -> Args {
        Args::parse(tokens.iter().map(|s| s.to_string())).unwrap()
    }

    fn record(id: &str, execute_us: u64, queue_us: u64) -> TraceRecord {
        let mut stages = StageClock::new();
        stages.set(StageClock::QUEUE, queue_us * 1_000);
        stages.set(StageClock::EXECUTE, execute_us * 1_000);
        TraceRecord {
            trace_id: id.to_string(),
            endpoint: "/v1/predict",
            status: 200,
            stages,
            deadline_slack_us: 500,
        }
    }

    #[test]
    fn summarizes_a_real_dump() {
        let dir = crate::test_dir("summarizes_a_real_dump");
        let path = dir.join("dump.flight.jsonl");

        let recorder = FlightRecorder::new(Some(LogConfig {
            path: path.clone(),
            max_bytes: DEFAULT_MAX_LOG_BYTES,
        }));
        let records = vec![record("amf-1", 100, 10), record("amf-2", 50, 40)];
        let exemplars = vec![record("amf-1", 100, 10)];
        recorder.dump("manual", &records, &exemplars, &[], &Json::obj());

        let out = run(&args(&["trace", &path.to_string_lossy()])).unwrap();
        assert!(out.contains("reason=manual"), "{out}");
        assert!(out.contains("execute"), "{out}");
        // Execute dominates (150us vs 50us queue): it leads the critical path.
        assert!(out.contains("critical path: execute > queue"), "{out}");
        assert!(out.contains("amf-1"), "{out}");
        assert!(out.contains("slowest exemplars"), "{out}");
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn missing_and_empty_files_are_errors() {
        assert!(run(&args(&["trace"])).is_err());
        assert!(run(&args(&["trace", "/nonexistent/flight.jsonl"])).is_err());
        let dir = crate::test_dir("missing_and_empty_files_are_errors");
        let path = dir.join("not-flight.jsonl");
        std::fs::write(&path, "{\"schema\":\"other/v1\"}\n").unwrap();
        let err = run(&args(&["trace", &path.to_string_lossy()])).unwrap_err();
        assert!(err.to_string().contains("no amf-flight/v1 lines"), "{err}");
        std::fs::remove_dir_all(dir).unwrap();
    }
}
