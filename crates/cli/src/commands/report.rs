//! `amf-qos report` — summarize an `amf-obs-ts/v1` JSONL telemetry log.
//!
//! Consumes the file a [`qos_obs::SnapshotRecorder`] produced (e.g. via
//! `amf-qos serve --telemetry-log`) and prints accuracy/throughput/health
//! trends across the recorded interval snapshots: windowed MRE and NMAE at
//! the first and last snapshot plus their extremes, ingest and drift-alarm
//! deltas. Pure text; the raw log stays `jq`-friendly.

use super::CliError;
use crate::args::Args;
use qos_obs::Json;
use std::io::BufRead;

/// Usage text for the subcommand.
pub const USAGE: &str = "amf-qos report TELEMETRY_JSONL [--last N]";

/// One parsed telemetry line's fields of interest.
struct Point {
    seq: u64,
    at_ms: u64,
    mre: Option<f64>,
    nmae: Option<f64>,
    drift_healthy: Option<f64>,
    accepted: u64,
    updates: u64,
    alarms: u64,
}

impl Point {
    fn parse(line: &str, line_no: usize) -> Result<Self, CliError> {
        let doc = Json::parse(line)
            .map_err(|e| CliError(format!("line {line_no}: not valid telemetry JSON ({e})")))?;
        let schema = doc.get("schema").and_then(Json::as_str);
        if schema != Some(qos_obs::TS_SCHEMA) {
            return Err(CliError(format!(
                "line {line_no}: schema {schema:?}, expected {:?}",
                qos_obs::TS_SCHEMA
            )));
        }
        let snapshot = doc
            .get("snapshot")
            .ok_or_else(|| CliError(format!("line {line_no}: missing snapshot")))?;
        let gauge = |name: &str| snapshot.get("gauges").and_then(|g| g.get(name))?.as_f64();
        let counter = |name: &str| snapshot.get("counters")?.get(name).and_then(Json::as_u64);
        Ok(Self {
            seq: doc.get("seq").and_then(Json::as_u64).unwrap_or(0),
            at_ms: doc.get("at_ms").and_then(Json::as_u64).unwrap_or(0),
            mre: gauge("model.mre_w"),
            nmae: gauge("model.nmae_w"),
            drift_healthy: gauge("model.drift_healthy"),
            accepted: counter("service.accepted").unwrap_or(0),
            updates: counter("service.updates").unwrap_or(0),
            alarms: counter("model.drift_alarms.user").unwrap_or(0)
                + counter("model.drift_alarms.service").unwrap_or(0),
        })
    }
}

/// Min/max/first/last over an optional-valued series.
fn trend(points: &[Point], pick: impl Fn(&Point) -> Option<f64>) -> Option<String> {
    let values: Vec<f64> = points.iter().filter_map(&pick).collect();
    let (first, last) = (values.first()?, values.last()?);
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let direction = if last < first {
        "improving"
    } else if last > first {
        "worsening"
    } else {
        "flat"
    };
    Some(format!(
        "first {first:.4}  last {last:.4}  min {min:.4}  max {max:.4}  ({direction})"
    ))
}

/// Runs the subcommand.
///
/// # Errors
///
/// Returns [`CliError`] for unreadable files or malformed telemetry lines.
pub fn run(args: &Args) -> Result<String, CliError> {
    let path = args
        .positional(1)
        .ok_or_else(|| CliError(format!("missing telemetry file\nusage: {USAGE}")))?;
    let last: usize = args.parse_or("last", usize::MAX)?;
    let file =
        std::fs::File::open(path).map_err(|e| CliError(format!("{path}: {e}\nusage: {USAGE}")))?;

    let mut points = Vec::new();
    for (line_no, line) in std::io::BufReader::new(file).lines().enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        points.push(Point::parse(&line, line_no + 1)?);
    }
    if points.is_empty() {
        return Err(CliError(format!("{path}: no telemetry lines")));
    }
    if points.len() > last {
        points.drain(..points.len() - last);
    }

    let (first, final_point) = (&points[0], &points[points.len() - 1]);
    let span_ms = final_point.at_ms.saturating_sub(first.at_ms);
    let health = match final_point.drift_healthy {
        Some(0.0) => "DRIFTING (recent alarm)",
        Some(_) => "healthy",
        None => "unknown (no sentinel gauge yet)",
    };
    let na = || "n/a (no samples in window yet)".to_string();
    Ok(format!(
        "telemetry report  {path}\n\
         snapshots         {} (seq {}..{}), spanning {:.1}s\n\
         accepted          {} -> {} (+{})\n\
         model updates     {} -> {} (+{})\n\
         windowed MRE      {}\n\
         windowed NMAE     {}\n\
         drift alarms      +{} over the span; end state {health}",
        points.len(),
        first.seq,
        final_point.seq,
        span_ms as f64 / 1_000.0,
        first.accepted,
        final_point.accepted,
        final_point.accepted.saturating_sub(first.accepted),
        first.updates,
        final_point.updates,
        final_point.updates.saturating_sub(first.updates),
        trend(&points, |p| p.mre).unwrap_or_else(na),
        trend(&points, |p| p.nmae).unwrap_or_else(na),
        final_point.alarms.saturating_sub(first.alarms),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(tokens: &[&str]) -> Args {
        Args::parse(tokens.iter().map(|s| s.to_string())).unwrap()
    }

    fn line(seq: u64, at_ms: u64, mre: f64, accepted: u64, alarms: u64) -> String {
        format!(
            "{{\"schema\":\"{}\",\"seq\":{seq},\"at_ms\":{at_ms},\"unix_ms\":0,\
             \"snapshot\":{{\"schema\":\"{}\",\
             \"counters\":{{\"service.accepted\":{accepted},\"service.updates\":{accepted},\
             \"model.drift_alarms.user\":{alarms}}},\
             \"gauges\":{{\"model.mre_w\":{mre:.4},\"model.nmae_w\":{:.4},\
             \"model.drift_healthy\":1.0}},\
             \"histograms\":{{}}}}}}",
            qos_obs::TS_SCHEMA,
            qos_obs::SCHEMA,
            mre * 0.8,
        )
    }

    fn write_log(name: &str, lines: &[String]) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("amf_cli_report_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();
        path
    }

    #[test]
    fn report_summarizes_trends() {
        let path = write_log(
            "ok.jsonl",
            &[
                line(0, 1_000, 0.50, 100, 0),
                line(1, 2_000, 0.40, 900, 0),
                line(2, 3_000, 0.30, 2_000, 1),
            ],
        );
        let out = run(&args(&["report", &path.to_string_lossy()])).unwrap();
        assert!(out.contains("snapshots         3 (seq 0..2), spanning 2.0s"));
        assert!(out.contains("accepted          100 -> 2000 (+1900)"));
        assert!(
            out.contains("first 0.5000  last 0.3000") && out.contains("(improving)"),
            "{out}"
        );
        assert!(out.contains("drift alarms      +1"));
        assert!(out.contains("healthy"));
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn last_flag_trims_the_window() {
        let path = write_log(
            "tail.jsonl",
            &[
                line(0, 0, 0.90, 0, 0),
                line(1, 1_000, 0.20, 500, 0),
                line(2, 2_000, 0.25, 700, 0),
            ],
        );
        let out = run(&args(&["report", &path.to_string_lossy(), "--last", "2"])).unwrap();
        assert!(out.contains("snapshots         2 (seq 1..2)"));
        assert!(out.contains("(worsening)"), "{out}");
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn wrong_schema_is_rejected() {
        let path = write_log(
            "bad.jsonl",
            &["{\"schema\":\"nope/v9\",\"seq\":0,\"snapshot\":{}}".to_string()],
        );
        let err = run(&args(&["report", &path.to_string_lossy()])).unwrap_err();
        assert!(err.to_string().contains("schema"));
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn missing_file_and_missing_arg_error() {
        assert!(run(&args(&["report"])).is_err());
        assert!(run(&args(&["report", "/nonexistent/telemetry.jsonl"])).is_err());
    }
}
