//! Bounded event-trace ring buffer with explicit span timing.
//!
//! Tracing here is for *coarse* events — engine lifecycle, replay, snapshot,
//! CLI stages — not per-sample work. Recording takes a mutex, so callers on
//! the per-sample hot path must either skip tracing or sample it. The ring is
//! bounded: once `capacity` events are held the oldest is dropped and a
//! counter remembers how many were lost, so the trace can never grow without
//! bound under sustained load.

use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::Instant;

use crate::metrics::Histogram;

/// One recorded trace event. `elapsed_ns` is zero for instant events and the
/// span duration for span-close events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Static event name (e.g. `"drift_alarm"`).
    pub name: &'static str,
    /// Optional dynamic detail (side, address, sample count, ...).
    pub detail: String,
    /// Nanoseconds since the ring was created.
    pub at_ns: u64,
    /// Span duration in nanoseconds (0 for instant events).
    pub elapsed_ns: u64,
}

struct RingInner {
    events: VecDeque<TraceEvent>,
    dropped: u64,
}

/// A bounded ring of [`TraceEvent`]s. All timestamps are relative to the
/// ring's creation instant, which keeps snapshots serializable without any
/// wall-clock dependence.
pub struct TraceRing {
    epoch: Instant,
    capacity: usize,
    inner: Mutex<RingInner>,
}

impl std::fmt::Debug for TraceRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceRing")
            .field("capacity", &self.capacity)
            .finish_non_exhaustive()
    }
}

impl TraceRing {
    /// A ring holding at most `capacity` events (at least 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            epoch: Instant::now(),
            capacity,
            inner: Mutex::new(RingInner {
                events: VecDeque::with_capacity(capacity),
                dropped: 0,
            }),
        }
    }

    /// Maximum number of retained events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn push(&self, event: TraceEvent) {
        let mut inner = match self.inner.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        if inner.events.len() == self.capacity {
            inner.events.pop_front();
            inner.dropped = inner.dropped.saturating_add(1);
        }
        inner.events.push_back(event);
    }

    /// Records an instant event.
    pub fn event(&self, name: &'static str, detail: impl Into<String>) {
        self.push(TraceEvent {
            name,
            detail: detail.into(),
            at_ns: self.now_ns(),
            elapsed_ns: 0,
        });
    }

    /// Opens a timed span; the event is recorded when the guard drops, with
    /// `elapsed_ns` set to the span duration. If `histogram` is provided the
    /// duration is also recorded there, giving percentile aggregation on top
    /// of the raw trace.
    pub fn span(&self, name: &'static str) -> Span<'_> {
        Span {
            ring: Some(self),
            name,
            detail: String::new(),
            started: Instant::now(),
            histogram: None,
        }
    }

    /// Copies out the retained events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        let inner = match self.inner.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        inner.events.iter().cloned().collect()
    }

    /// Number of events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        let inner = match self.inner.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        inner.dropped
    }

    /// Clears the ring (keeps the eviction count).
    pub fn clear(&self) {
        let mut inner = match self.inner.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        inner.events.clear();
    }
}

/// Drop-guard returned by [`TraceRing::span`]: records a trace event with the
/// elapsed time when it goes out of scope.
pub struct Span<'a> {
    ring: Option<&'a TraceRing>,
    name: &'static str,
    detail: String,
    started: Instant,
    histogram: Option<&'a Histogram>,
}

impl<'a> Span<'a> {
    /// Attaches a detail string reported on close.
    pub fn with_detail(mut self, detail: impl Into<String>) -> Self {
        self.detail = detail.into();
        self
    }

    /// Also records the span duration into `histogram` on close.
    pub fn with_histogram(mut self, histogram: &'a Histogram) -> Self {
        self.histogram = Some(histogram);
        self
    }

    /// Closes the span without recording anything (e.g. the traced operation
    /// was a no-op and would only add noise).
    pub fn cancel(mut self) {
        self.ring = None;
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let Some(ring) = self.ring else { return };
        let elapsed_ns = u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        if let Some(h) = self.histogram {
            h.record(elapsed_ns);
        }
        ring.push(TraceEvent {
            name: self.name,
            detail: std::mem::take(&mut self.detail),
            at_ns: ring.now_ns(),
            elapsed_ns,
        });
    }
}

/// Opens a timed span on the global trace ring; the event records on scope
/// exit. `span!("sgd_step")` or `span!("replay", "shard {i}")`.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::global().trace().span($name)
    };
    ($name:expr, $($detail:tt)+) => {
        $crate::global().trace().span($name).with_detail(format!($($detail)+))
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_bounds_and_counts_drops() {
        let ring = TraceRing::new(3);
        for i in 0..5 {
            ring.event("tick", format!("{i}"));
        }
        let events = ring.events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].detail, "2");
        assert_eq!(events[2].detail, "4");
        assert_eq!(ring.dropped(), 2);
    }

    #[test]
    fn span_records_on_drop_with_duration() {
        let ring = TraceRing::new(8);
        {
            let _guard = ring.span("work").with_detail("unit");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let events = ring.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "work");
        assert_eq!(events[0].detail, "unit");
        assert!(events[0].elapsed_ns >= 1_000_000);
    }

    #[test]
    fn span_feeds_histogram() {
        let ring = TraceRing::new(8);
        let hist = Histogram::new();
        drop(ring.span("timed").with_histogram(&hist));
        assert_eq!(hist.count(), 1);
    }

    #[test]
    fn cancelled_span_records_nothing() {
        let ring = TraceRing::new(8);
        ring.span("skipped").cancel();
        assert!(ring.events().is_empty());
    }

    #[test]
    fn timestamps_are_monotone() {
        let ring = TraceRing::new(8);
        ring.event("a", "");
        ring.event("b", "");
        let events = ring.events();
        assert!(events[0].at_ns <= events[1].at_ns);
    }
}
