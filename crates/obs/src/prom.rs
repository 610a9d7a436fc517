//! Prometheus text-exposition (format 0.0.4) rendering of `amf-obs/v1`
//! snapshots.
//!
//! The registry keys metrics as `family` or `family.label` (dot-joined, see
//! [`crate::MetricsRegistry::counter_labeled`]); a known-family table maps
//! the labeled ones back to proper `{label="value"}` pairs, everything else
//! becomes a plain (sanitized) metric name. Rendering works on the JSON
//! snapshot rather than the live registry so the same code serves both a
//! process-local registry and the merged service document.
//!
//! Exposition rules implemented here:
//!
//! * names are sanitized to `[a-zA-Z_][a-zA-Z0-9_]*` and prefixed `amf_`;
//!   counters additionally get the conventional `_total` suffix;
//! * label values are escaped (`\\`, `\"`, `\n`);
//! * histograms emit *cumulative* `_bucket{le="..."}` samples ending in
//!   `le="+Inf"`, plus `_sum` and `_count` — and do so even with zero
//!   observations (an empty histogram is still a valid exposition);
//! * every family gets one `# HELP` line (carrying the original dotted
//!   registry key) and one `# TYPE` line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::Json;
use crate::metrics::{bucket_upper_bound, BUCKETS};

/// The `Content-Type` a scrape endpoint must declare for this format.
pub const CONTENT_TYPE: &str = "text/plain; version=0.0.4";

/// Registry families whose snapshot keys are `family.label`: the suffix
/// after `family.` is re-exposed as this label.
const LABELED_FAMILIES: &[(&str, &str)] = &[
    ("engine.chunk_apply_ns", "shard"),
    ("guard.rejected", "reason"),
    ("model.drift_alarms", "side"),
    ("service.predict_source", "source"),
];

/// Splits a snapshot key into `(family, Some((label_name, label_value)))`
/// for known labeled families, or `(key, None)` otherwise.
fn split_key(key: &str) -> (&str, Option<(&'static str, &str)>) {
    for &(family, label) in LABELED_FAMILIES {
        if let Some(value) = key.strip_prefix(family).and_then(|r| r.strip_prefix('.')) {
            if !value.is_empty() {
                return (family, Some((label, value)));
            }
        }
    }
    (key, None)
}

/// Sanitizes a dotted registry family into a Prometheus metric name:
/// `amf_` prefix, every byte outside `[a-zA-Z0-9_]` replaced by `_`. The
/// fixed prefix guarantees the leading character is legal.
pub fn sanitize_metric_name(family: &str) -> String {
    let mut out = String::with_capacity(family.len() + 4);
    out.push_str("amf_");
    for c in family.chars() {
        if c.is_ascii_alphanumeric() || c == '_' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

fn escape_label_value(out: &mut String, value: &str) {
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

fn escape_help(out: &mut String, text: &str) {
    for c in text.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

/// Writes a sample value the Prometheus text parser accepts: `NaN`,
/// `+Inf`/`-Inf`, or the shortest exact decimal form of the float.
fn write_value(out: &mut String, v: f64) {
    if v.is_nan() {
        out.push_str("NaN");
    } else if v == f64::INFINITY {
        out.push_str("+Inf");
    } else if v == f64::NEG_INFINITY {
        out.push_str("-Inf");
    } else {
        let _ = write!(out, "{v:?}");
    }
}

/// One family's samples, grouped: `(label_value, metric json)` in snapshot
/// (sorted) order. `label_name` is `None` for plain families.
struct Family<'a> {
    raw: &'a str,
    label_name: Option<&'static str>,
    samples: Vec<(Option<&'a str>, &'a Json)>,
}

/// Groups one snapshot section's keys into families, preserving the
/// BTreeMap's sorted key order.
fn group_section<'a>(section: Option<&'a Json>) -> Vec<Family<'a>> {
    let Some(Json::Obj(map)) = section else {
        return Vec::new();
    };
    let mut families: Vec<Family<'a>> = Vec::new();
    for (key, value) in map {
        let (family, label) = split_key(key);
        let (label_name, label_value) = match label {
            Some((name, value)) => (Some(name), Some(value)),
            None => (None, None),
        };
        match families.last_mut() {
            Some(last) if last.raw == family && last.label_name == label_name => {
                last.samples.push((label_value, value));
            }
            _ => families.push(Family {
                raw: family,
                label_name,
                samples: vec![(label_value, value)],
            }),
        }
    }
    families
}

/// Assigns each family a unique sanitized exposition name. Distinct dotted
/// families can sanitize to the same string (`a.b` and `a_b`); later ones
/// (snapshot key order) get a deterministic `_2`, `_3`, ... suffix so the
/// exposition never emits two families under one name.
fn assign_names(families: &[Family<'_>], used: &mut BTreeMap<String, u32>) -> Vec<String> {
    families
        .iter()
        .map(|family| {
            let base = sanitize_metric_name(family.raw);
            let n = used.entry(base.clone()).or_insert(0);
            *n += 1;
            if *n == 1 {
                base
            } else {
                format!("{base}_{n}")
            }
        })
        .collect()
}

fn write_header(out: &mut String, name: &str, raw: &str, kind: &str) {
    out.push_str("# HELP ");
    out.push_str(name);
    out.push(' ');
    escape_help(out, raw);
    out.push('\n');
    out.push_str("# TYPE ");
    out.push_str(name);
    out.push(' ');
    out.push_str(kind);
    out.push('\n');
}

/// Writes `{label="value"}` (or nothing), with an optional extra `le` pair
/// for histogram buckets.
fn write_labels(out: &mut String, label: Option<(&str, &str)>, le: Option<&str>) {
    if label.is_none() && le.is_none() {
        return;
    }
    out.push('{');
    let mut first = true;
    if let Some((name, value)) = label {
        out.push_str(name);
        out.push_str("=\"");
        escape_label_value(out, value);
        out.push('"');
        first = false;
    }
    if let Some(le) = le {
        if !first {
            out.push(',');
        }
        out.push_str("le=\"");
        escape_label_value(out, le);
        out.push('"');
    }
    out.push('}');
}

/// Renders an `amf-obs/v1` snapshot (see [`crate::MetricsRegistry::snapshot_json`])
/// as Prometheus text-exposition format 0.0.4. The trace section is not
/// exposed — traces are events, not time series.
pub fn render_prometheus(snapshot: &Json) -> String {
    let mut out = String::new();
    let mut used = BTreeMap::new();

    let counters = group_section(snapshot.get("counters"));
    for (family, name) in counters.iter().zip(assign_names(&counters, &mut used)) {
        let name = format!("{name}_total");
        write_header(&mut out, &name, family.raw, "counter");
        for &(label_value, value) in &family.samples {
            out.push_str(&name);
            write_labels(&mut out, family.label_name.zip(label_value), None);
            out.push(' ');
            let _ = write!(out, "{}", value.as_u64().unwrap_or(0));
            out.push('\n');
        }
    }

    let gauges = group_section(snapshot.get("gauges"));
    for (family, name) in gauges.iter().zip(assign_names(&gauges, &mut used)) {
        write_header(&mut out, &name, family.raw, "gauge");
        for &(label_value, value) in &family.samples {
            out.push_str(&name);
            write_labels(&mut out, family.label_name.zip(label_value), None);
            out.push(' ');
            // The JSON writer emits non-finite gauges as `null`; the text
            // format can say NaN explicitly.
            write_value(&mut out, value.as_f64().unwrap_or(f64::NAN));
            out.push('\n');
        }
    }

    let histograms = group_section(snapshot.get("histograms"));
    for (family, name) in histograms.iter().zip(assign_names(&histograms, &mut used)) {
        write_header(&mut out, &name, family.raw, "histogram");
        for &(label_value, value) in &family.samples {
            let label = family.label_name.zip(label_value);
            let counts: Vec<u64> = value
                .get("buckets")
                .and_then(Json::as_arr)
                .map(|buckets| buckets.iter().map(|b| b.as_u64().unwrap_or(0)).collect())
                .unwrap_or_default();
            let mut cumulative = 0u64;
            let mut le = String::new();
            for i in 0..BUCKETS {
                cumulative = cumulative.saturating_add(counts.get(i).copied().unwrap_or(0));
                // The last bucket is the overflow bucket (everything at or
                // above its lower bound), so its exposition bound is +Inf.
                le.clear();
                if i + 1 < BUCKETS {
                    let _ = write!(le, "{}", bucket_upper_bound(i));
                } else {
                    le.push_str("+Inf");
                }
                out.push_str(&name);
                out.push_str("_bucket");
                write_labels(&mut out, label, Some(&le));
                let _ = writeln!(out, " {cumulative}");
            }
            out.push_str(&name);
            out.push_str("_sum");
            write_labels(&mut out, label, None);
            let _ = writeln!(
                out,
                " {}",
                value.get("sum_ns").and_then(Json::as_u64).unwrap_or(0)
            );
            out.push_str(&name);
            out.push_str("_count");
            write_labels(&mut out, label, None);
            let _ = writeln!(
                out,
                " {}",
                value.get("count").and_then(Json::as_u64).unwrap_or(0)
            );
        }
    }

    out
}

/// Strict line parser for the subset of the exposition format this module
/// emits — used by the round-trip tests and the CLI smoke tooling, not by
/// any hot path. Returns `(sample_key, value)` pairs in document order,
/// where `sample_key` is the metric name plus its verbatim `{...}` label
/// block (if any). Comment (`#`) and blank lines are skipped after
/// validation.
///
/// # Errors
///
/// Returns a description of the first malformed line.
pub fn parse_exposition(text: &str) -> Result<Vec<(String, f64)>, String> {
    let mut samples = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let rest = comment.trim_start();
            if !(rest.starts_with("HELP ") || rest.starts_with("TYPE ")) {
                return Err(format!("line {}: unknown comment form", lineno + 1));
            }
            continue;
        }
        let (key, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: no value separator", lineno + 1))?;
        let name_end = key.find('{').unwrap_or(key.len());
        let name = &key[..name_end];
        if !is_valid_metric_name(name) {
            return Err(format!("line {}: invalid metric name {name:?}", lineno + 1));
        }
        if name_end < key.len() && !key.ends_with('}') {
            return Err(format!("line {}: unterminated label block", lineno + 1));
        }
        let value: f64 = value
            .parse()
            .map_err(|_| format!("line {}: bad sample value {value:?}", lineno + 1))?;
        samples.push((key.to_string(), value));
    }
    Ok(samples)
}

/// Whether `name` matches the Prometheus metric-name grammar
/// `[a-zA-Z_][a-zA-Z0-9_]*` (colons excluded on purpose: they are reserved
/// for recording rules, and this exposition never emits them).
pub fn is_valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MetricsRegistry;

    fn sample(samples: &[(String, f64)], key: &str) -> Option<f64> {
        samples
            .iter()
            .find(|(k, _)| k == key)
            .map(|&(_, value)| value)
    }

    #[test]
    fn counters_and_gauges_render_with_sanitized_names() {
        let reg = MetricsRegistry::new();
        reg.counter("engine.jobs_dispatched").add(7);
        reg.gauge("model.mre_w").set(0.25);
        let text = render_prometheus(&reg.snapshot_json(false));
        let samples = parse_exposition(&text).expect("output parses");
        assert_eq!(
            sample(&samples, "amf_engine_jobs_dispatched_total"),
            Some(7.0)
        );
        assert_eq!(sample(&samples, "amf_model_mre_w"), Some(0.25));
    }

    #[test]
    fn labeled_families_expose_label_pairs() {
        let reg = MetricsRegistry::new();
        reg.counter_labeled("guard.rejected", "not_finite").add(3);
        reg.counter_labeled("guard.rejected", "outlier").add(1);
        reg.counter_labeled("service.predict_source", "model")
            .add(2);
        let text = render_prometheus(&reg.snapshot_json(false));
        let samples = parse_exposition(&text).expect("output parses");
        assert_eq!(
            sample(&samples, "amf_guard_rejected_total{reason=\"not_finite\"}"),
            Some(3.0)
        );
        assert_eq!(
            sample(&samples, "amf_guard_rejected_total{reason=\"outlier\"}"),
            Some(1.0)
        );
        assert_eq!(
            sample(
                &samples,
                "amf_service_predict_source_total{source=\"model\"}"
            ),
            Some(2.0)
        );
        // One HELP/TYPE pair per family, not per label.
        assert_eq!(
            text.matches("# TYPE amf_guard_rejected_total counter")
                .count(),
            1
        );
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_end_in_inf() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("model.observe_ns");
        h.record(1); // bucket 1
        h.record(1); // bucket 1
        h.record(100); // bucket 7
        let text = render_prometheus(&reg.snapshot_json(false));
        let samples = parse_exposition(&text).expect("output parses");

        let buckets: Vec<f64> = samples
            .iter()
            .filter(|(k, _)| k.starts_with("amf_model_observe_ns_bucket{"))
            .map(|&(_, value)| value)
            .collect();
        assert_eq!(buckets.len(), BUCKETS);
        assert!(
            buckets.windows(2).all(|w| w[0] <= w[1]),
            "buckets must be cumulative: {buckets:?}"
        );
        assert_eq!(
            sample(&samples, "amf_model_observe_ns_bucket{le=\"+Inf\"}"),
            Some(3.0)
        );
        assert_eq!(
            sample(&samples, "amf_model_observe_ns_bucket{le=\"1\"}"),
            Some(2.0)
        );
        assert_eq!(sample(&samples, "amf_model_observe_ns_count"), Some(3.0));
        assert_eq!(sample(&samples, "amf_model_observe_ns_sum"), Some(102.0));
    }

    #[test]
    fn empty_histogram_is_still_valid_exposition() {
        // The zero-observation edge case: sum/count/every bucket must render
        // (all zero) with the +Inf bucket present, or a scraper that joins
        // `_count` against `_bucket` breaks on a freshly-started process.
        let reg = MetricsRegistry::new();
        let _ = reg.histogram("model.observe_ns");
        let text = render_prometheus(&reg.snapshot_json(false));
        let samples = parse_exposition(&text).expect("output parses");
        assert_eq!(
            sample(&samples, "amf_model_observe_ns_bucket{le=\"+Inf\"}"),
            Some(0.0)
        );
        assert_eq!(sample(&samples, "amf_model_observe_ns_sum"), Some(0.0));
        assert_eq!(sample(&samples, "amf_model_observe_ns_count"), Some(0.0));
        let bucket_lines = samples
            .iter()
            .filter(|(k, _)| k.starts_with("amf_model_observe_ns_bucket{"))
            .count();
        assert_eq!(bucket_lines, BUCKETS);
        assert!(text.contains("# TYPE amf_model_observe_ns histogram"));
    }

    #[test]
    fn deadline_slack_histogram_round_trips_through_exposition() {
        // The serving plane records every well-formed request's deadline
        // slack at admission (`serve.deadline_slack_us`, PR 10); a scraper
        // must get the family back as a parseable histogram.
        let reg = MetricsRegistry::new();
        let h = reg.histogram("serve.deadline_slack_us");
        h.record(250);
        h.record(1_000);
        h.record(24_000);
        let text = render_prometheus(&reg.snapshot_json(false));
        let samples = parse_exposition(&text).expect("output parses");
        assert!(text.contains("# TYPE amf_serve_deadline_slack_us histogram"));
        assert_eq!(
            sample(&samples, "amf_serve_deadline_slack_us_count"),
            Some(3.0)
        );
        assert_eq!(
            sample(&samples, "amf_serve_deadline_slack_us_sum"),
            Some(25_250.0)
        );
        assert_eq!(
            sample(&samples, "amf_serve_deadline_slack_us_bucket{le=\"+Inf\"}"),
            Some(3.0)
        );
        let buckets: Vec<f64> = samples
            .iter()
            .filter(|(k, _)| k.starts_with("amf_serve_deadline_slack_us_bucket{"))
            .map(|&(_, value)| value)
            .collect();
        assert_eq!(buckets.len(), BUCKETS);
        assert!(buckets.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn names_collide_deterministically_instead_of_duplicating() {
        let reg = MetricsRegistry::new();
        reg.counter("model.hits").add(1);
        reg.counter("model:hits").add(2);
        let text = render_prometheus(&reg.snapshot_json(false));
        let samples = parse_exposition(&text).expect("output parses");
        // Snapshot key order is lexicographic: `model.hits` < `model:hits`.
        assert_eq!(sample(&samples, "amf_model_hits_total"), Some(1.0));
        assert_eq!(sample(&samples, "amf_model_hits_2_total"), Some(2.0));
    }

    #[test]
    fn label_values_are_escaped() {
        let reg = MetricsRegistry::new();
        reg.counter_labeled("guard.rejected", "a\"b\\c\nd").add(9);
        let text = render_prometheus(&reg.snapshot_json(false));
        assert!(
            text.contains("amf_guard_rejected_total{reason=\"a\\\"b\\\\c\\nd\"} 9"),
            "{text}"
        );
        parse_exposition(&text).expect("escaped output still parses");
    }

    #[test]
    fn non_finite_gauges_render_as_prometheus_keywords() {
        let reg = MetricsRegistry::new();
        reg.gauge("g.nan").set(f64::NAN);
        reg.gauge("g.inf").set(f64::INFINITY);
        let text = render_prometheus(&reg.snapshot_json(false));
        assert!(text.contains("amf_g_nan NaN"));
        assert!(text.contains("amf_g_inf +Inf"));
        let samples = parse_exposition(&text).expect("parses");
        assert!(sample(&samples, "amf_g_nan").expect("present").is_nan());
        assert_eq!(sample(&samples, "amf_g_inf"), Some(f64::INFINITY));
    }

    #[test]
    fn metric_name_grammar() {
        assert!(is_valid_metric_name("amf_predict_ns"));
        assert!(is_valid_metric_name("_x9"));
        assert!(!is_valid_metric_name(""));
        assert!(!is_valid_metric_name("9x"));
        assert!(!is_valid_metric_name("a-b"));
        assert!(!is_valid_metric_name("a.b"));
    }
}
