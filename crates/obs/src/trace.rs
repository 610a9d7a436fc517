//! Bounded event-trace ring.
//!
//! Tracing here is for *coarse* events — drift alarms, quarantine verdicts,
//! serving-plane lifecycle — not per-sample work. Recording takes a mutex,
//! so callers on the per-sample hot path must either skip tracing or sample
//! it. Events live in a [`Ring`], so the trace is bounded and counts what
//! it dropped.

use std::time::Instant;

use crate::ring::Ring;

/// One recorded trace event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Static event name (e.g. `"drift_alarm"`).
    pub name: &'static str,
    /// Optional dynamic detail (side, address, sample count, ...).
    pub detail: String,
    /// Nanoseconds since the ring was created.
    pub at_ns: u64,
    /// Always 0: every event is an instant. Kept so the `amf-obs/v1` and
    /// `amf-flight/v1` event layouts stay unchanged.
    pub elapsed_ns: u64,
}

/// A bounded ring of [`TraceEvent`]s. All timestamps are relative to the
/// ring's creation instant, which keeps snapshots serializable without any
/// wall-clock dependence.
#[derive(Debug)]
pub struct TraceRing {
    epoch: Instant,
    events: Ring<TraceEvent>,
}

impl TraceRing {
    /// A ring holding at most `capacity` events (at least 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            epoch: Instant::now(),
            events: Ring::new(capacity),
        }
    }

    /// Records an instant event.
    pub fn event(&self, name: &'static str, detail: impl Into<String>) {
        self.events.push(TraceEvent {
            name,
            detail: detail.into(),
            at_ns: u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX),
            elapsed_ns: 0,
        });
    }

    /// Copies out the retained events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.snapshot()
    }

    /// Number of events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.events.dropped()
    }
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
    fn timestamps_are_monotone() {
        let ring = TraceRing::new(8);
        ring.event("a", "");
        ring.event("b", "");
        let events = ring.events();
        assert!(events[0].at_ns <= events[1].at_ns);
    }
}
