//! Metric registry: named counters/gauges/histograms plus a trace ring,
//! with a versioned JSON snapshot (`amf-obs/v1`).
//!
//! Registration hands back `Arc` handles; callers cache them (in a struct
//! field or a `OnceLock`) and record through plain atomics afterwards — the
//! registry lock is only touched at registration and snapshot time, never on
//! the per-sample path.

use std::sync::{Arc, Mutex, OnceLock};

use crate::json::Json;
use crate::metrics::{Counter, Gauge, Histogram};
use crate::trace::TraceRing;

/// Snapshot schema identifier, bumped on breaking layout changes.
pub const SCHEMA: &str = "amf-obs/v1";

/// Trace-ring capacity of every registry.
pub const DEFAULT_TRACE_CAPACITY: usize = 256;

fn metric_key(name: &'static str, label: Option<&str>) -> String {
    match label {
        Some(label) => format!("{name}.{label}"),
        None => name.to_string(),
    }
}

struct Slots<T> {
    entries: Vec<(String, Arc<T>)>,
}

impl<T: Default> Slots<T> {
    fn new() -> Self {
        Self {
            entries: Vec::new(),
        }
    }

    fn get_or_register(&mut self, key: String) -> Arc<T> {
        if let Some((_, slot)) = self.entries.iter().find(|(k, _)| *k == key) {
            return Arc::clone(slot);
        }
        let slot = Arc::new(T::default());
        self.entries.push((key, Arc::clone(&slot)));
        slot
    }
}

/// A registry of named metrics and a bounded trace ring.
///
/// The process-wide instance lives behind [`crate::global`]; subsystems that
/// need isolated counts (e.g. per-service-instance stats) own their own.
pub struct MetricsRegistry {
    counters: Mutex<Slots<Counter>>,
    gauges: Mutex<Slots<Gauge>>,
    histograms: Mutex<Slots<Histogram>>,
    trace: TraceRing,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry").finish_non_exhaustive()
    }
}

/// Locks `mutex`, recovering the guard if a holder panicked: every value
/// this crate keeps behind a mutex stays valid after each single update.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match mutex.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

impl MetricsRegistry {
    /// An empty registry whose trace ring holds the last
    /// [`DEFAULT_TRACE_CAPACITY`] events.
    pub fn new() -> Self {
        Self {
            counters: Mutex::new(Slots::new()),
            gauges: Mutex::new(Slots::new()),
            histograms: Mutex::new(Slots::new()),
            trace: TraceRing::new(DEFAULT_TRACE_CAPACITY),
        }
    }

    /// Gets or registers the counter `name`.
    pub fn counter(&self, name: &'static str) -> Arc<Counter> {
        lock(&self.counters).get_or_register(metric_key(name, None))
    }

    /// Gets or registers the counter `name` with a dynamic `label`
    /// (snapshot key `name.label`).
    pub fn counter_labeled(&self, name: &'static str, label: &str) -> Arc<Counter> {
        lock(&self.counters).get_or_register(metric_key(name, Some(label)))
    }

    /// Gets or registers the gauge `name`.
    pub fn gauge(&self, name: &'static str) -> Arc<Gauge> {
        lock(&self.gauges).get_or_register(metric_key(name, None))
    }

    /// Gets or registers the gauge `name` with a dynamic `label`.
    pub fn gauge_labeled(&self, name: &'static str, label: &str) -> Arc<Gauge> {
        lock(&self.gauges).get_or_register(metric_key(name, Some(label)))
    }

    /// Gets or registers the histogram `name`.
    pub fn histogram(&self, name: &'static str) -> Arc<Histogram> {
        lock(&self.histograms).get_or_register(metric_key(name, None))
    }

    /// Gets or registers the histogram `name` with a dynamic `label`.
    pub fn histogram_labeled(&self, name: &'static str, label: &str) -> Arc<Histogram> {
        lock(&self.histograms).get_or_register(metric_key(name, Some(label)))
    }

    /// The registry's trace ring.
    pub fn trace(&self) -> &TraceRing {
        &self.trace
    }

    /// Current value of a registered counter (0 if never registered) —
    /// read-only, does not create the slot.
    pub fn counter_value(&self, name: &str) -> u64 {
        lock(&self.counters)
            .entries
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, c)| c.get())
            .unwrap_or(0)
    }

    /// Snapshot of all registered metrics as an `amf-obs/v1` JSON object.
    ///
    /// `include_trace` controls whether the trace-ring events are embedded
    /// (they carry dynamic detail strings and are the only non-deterministic
    /// part of the snapshot besides timing values).
    pub fn snapshot_json(&self, include_trace: bool) -> Json {
        let mut root = Json::obj();
        root.set("schema", Json::Str(SCHEMA.to_string()));

        let mut counters = Json::obj();
        for (key, counter) in &lock(&self.counters).entries {
            counters.set(key, Json::UInt(counter.get()));
        }
        root.set("counters", counters);

        let mut gauges = Json::obj();
        for (key, gauge) in &lock(&self.gauges).entries {
            gauges.set(key, Json::Num(gauge.get()));
        }
        root.set("gauges", gauges);

        let mut histograms = Json::obj();
        for (key, histogram) in &lock(&self.histograms).entries {
            let mut h = Json::obj();
            let count = histogram.count();
            h.set("count", Json::UInt(count));
            h.set("sum_ns", Json::UInt(histogram.sum()));
            h.set("max_ns", Json::UInt(histogram.max()));
            h.set("p50_ns", Json::UInt(histogram.quantile(0.50)));
            h.set("p95_ns", Json::UInt(histogram.quantile(0.95)));
            h.set("p99_ns", Json::UInt(histogram.quantile(0.99)));
            let mean = if count == 0 {
                0.0
            } else {
                histogram.sum() as f64 / count as f64
            };
            h.set("mean_ns", Json::Num(mean));
            h.set(
                "buckets",
                Json::Arr(
                    histogram
                        .bucket_counts()
                        .iter()
                        .map(|&c| Json::UInt(c))
                        .collect(),
                ),
            );
            histograms.set(key, h);
        }
        root.set("histograms", histograms);

        if include_trace {
            let mut trace = Json::obj();
            trace.set("dropped", Json::UInt(self.trace.dropped()));
            trace.set(
                "events",
                Json::Arr(
                    self.trace
                        .events()
                        .into_iter()
                        .map(|e| {
                            let mut event = Json::obj();
                            event.set("name", Json::Str(e.name.to_string()));
                            event.set("detail", Json::Str(e.detail));
                            event.set("at_ns", Json::UInt(e.at_ns));
                            event.set("elapsed_ns", Json::UInt(e.elapsed_ns));
                            event
                        })
                        .collect(),
                ),
            );
            root.set("trace", trace);
        }
        root
    }
}

static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();

/// The process-wide registry used by amf-core's static instrumentation
/// (engine, guard, model). Created on first touch; histograms pre-allocate
/// their bucket storage at that point, so hot-path recording afterwards is
/// allocation-free.
pub fn global() -> &'static MetricsRegistry {
    GLOBAL.get_or_init(MetricsRegistry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("hits");
        let b = reg.counter("hits");
        a.inc();
        b.inc();
        assert_eq!(reg.counter_value("hits"), 2);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn labels_get_distinct_slots() {
        let reg = MetricsRegistry::new();
        reg.counter_labeled("source", "model").add(3);
        reg.counter_labeled("source", "default").add(1);
        assert_eq!(reg.counter_value("source.model"), 3);
        assert_eq!(reg.counter_value("source.default"), 1);
        assert_eq!(reg.counter_value("source"), 0);
    }

    #[test]
    fn snapshot_contains_all_sections() {
        let reg = MetricsRegistry::new();
        reg.counter("c").inc();
        reg.gauge("g").set(1.5);
        reg.histogram("h").record(100);
        reg.trace().event("boot", "");
        let snap = reg.snapshot_json(true);
        assert_eq!(snap.get("schema").and_then(Json::as_str), Some(SCHEMA));
        assert_eq!(
            snap.get("counters")
                .and_then(|c| c.get("c"))
                .and_then(Json::as_u64),
            Some(1)
        );
        assert_eq!(
            snap.get("gauges")
                .and_then(|g| g.get("g"))
                .and_then(Json::as_f64),
            Some(1.5)
        );
        let hist = snap.get("histograms").and_then(|h| h.get("h")).unwrap();
        assert_eq!(hist.get("count").and_then(Json::as_u64), Some(1));
        assert_eq!(
            snap.get("trace")
                .and_then(|t| t.get("events"))
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(1)
        );
    }

    #[test]
    fn snapshot_round_trips_through_parser() {
        let reg = MetricsRegistry::new();
        reg.counter("c").set(u64::MAX);
        reg.histogram("h").record(12345);
        let snap = reg.snapshot_json(false);
        let reparsed = Json::parse(&snap.to_string_compact()).unwrap();
        assert_eq!(reparsed, snap);
        let reparsed_pretty = Json::parse(&snap.to_string_pretty()).unwrap();
        assert_eq!(reparsed_pretty, snap);
    }
}
