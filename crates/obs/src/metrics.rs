//! Lock-free metric primitives: saturating counters, f64 gauges, and
//! log-bucketed latency histograms with pre-allocated bucket storage.
//!
//! All three primitives are plain atomics after registration — recording is
//! wait-free and allocation-free, which is what lets them sit under the
//! per-sample ingestion hot path without breaking the zero-alloc guarantee
//! pinned by `tests/alloc_free_hot_path.rs`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of histogram buckets: bucket `i` (for `i >= 1`) covers values in
/// `[2^(i-1), 2^i)` nanoseconds; bucket 0 holds zero. The top bucket
/// (`2^(BUCKETS-2)` ns ≈ 2.3 minutes) absorbs everything larger, so no
/// recorded value is ever dropped.
pub const BUCKETS: usize = 39;

/// A monotonic counter that **saturates** at `u64::MAX` instead of wrapping.
///
/// Overflowing a counter after ~1.8e19 events is not a realistic operational
/// concern, but wrapping silently back to small values would corrupt every
/// rate computed from a snapshot pair — saturation keeps the damage visible
/// and bounded.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter at zero.
    pub const fn new() -> Self {
        Self {
            value: AtomicU64::new(0),
        }
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`, saturating at `u64::MAX`.
    #[inline]
    pub fn add(&self, n: u64) {
        // Fast path: plain fetch_add, then repair if it wrapped. The repair
        // branch is statically never taken until the counter is within `n`
        // of the ceiling, so the hot path stays one uncontended RMW.
        let before = self.value.fetch_add(n, Ordering::Relaxed);
        if before.checked_add(n).is_none() {
            self.value.store(u64::MAX, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Test/restore hook: force a value (used to exercise saturation).
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
    }
}

/// A last-value-wins gauge holding an `f64` (stored as its bit pattern).
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Default for Gauge {
    fn default() -> Self {
        Self::new()
    }
}

impl Gauge {
    /// A gauge at 0.0.
    pub const fn new() -> Self {
        Self {
            bits: AtomicU64::new(0),
        }
    }

    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Bucket index of a value: 0 for 0, otherwise `1 + floor(log2 v)`, clamped
/// to the top bucket. Monotone in `v` by construction (pinned by a property
/// test): the cumulative-distribution reading of the histogram is only valid
/// because larger values can never land in smaller buckets.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        ((64 - v.leading_zeros()) as usize).min(BUCKETS - 1)
    }
}

/// Inclusive upper bound of bucket `i` in nanoseconds (the value reported
/// for percentiles falling in that bucket — a conservative, ≤ one-octave
/// overestimate). The top bucket is unbounded; its recorded maximum is
/// reported instead.
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        (1u64 << i).saturating_sub(1).max(1)
    }
}

/// A log-bucketed histogram of non-negative integer samples (latency in
/// nanoseconds by convention).
///
/// Storage is a fixed `[AtomicU64; BUCKETS]` allocated **once at
/// registration** — `record` touches no allocator, takes no lock, and is
/// safe to call from any thread (shard workers included). Percentiles are
/// derived from the cumulative bucket counts, so they carry up to one octave
/// of overestimate; `max` is tracked exactly.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram (all storage pre-allocated inline).
    pub const fn new() -> Self {
        // `[const { ... }; N]` inline-const array init keeps this `const fn`.
        Self {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample (nanoseconds by convention).
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Records a duration at nanosecond resolution (saturating at ~584
    /// years; the top bucket absorbs it regardless).
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded samples (wrapping beyond u64 — used for means only).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest recorded sample (exact).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// The quantile `q` in `[0, 1]`, estimated as the upper bound of the
    /// first bucket whose cumulative count reaches `ceil(q * count)`.
    /// Returns 0 for an empty histogram. For any `q`, the estimate never
    /// exceeds [`Histogram::max`].
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            cumulative = cumulative.saturating_add(bucket.load(Ordering::Relaxed));
            if cumulative >= rank {
                return bucket_upper_bound(i).min(self.max());
            }
        }
        self.max()
    }

    /// Raw bucket counts, index `i` covering `[2^(i-1), 2^i)` ns.
    pub fn bucket_counts(&self) -> [u64; BUCKETS] {
        let mut out = [0u64; BUCKETS];
        for (slot, bucket) in out.iter_mut().zip(&self.buckets) {
            *slot = bucket.load(Ordering::Relaxed);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn counter_saturates_instead_of_wrapping() {
        let c = Counter::new();
        c.set(u64::MAX - 3);
        c.add(10);
        assert_eq!(c.get(), u64::MAX);
        c.inc();
        assert_eq!(c.get(), u64::MAX);
    }

    #[test]
    fn gauge_roundtrips() {
        let g = Gauge::new();
        assert_eq!(g.get(), 0.0);
        g.set(-1.25);
        assert_eq!(g.get(), -1.25);
        g.set(f64::NAN);
        assert!(g.get().is_nan());
    }

    #[test]
    fn bucket_index_shape() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn histogram_quantiles_are_bounded_by_max() {
        let h = Histogram::new();
        for v in [5, 10, 100, 1_000, 50_000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.max(), 50_000);
        assert!(h.quantile(0.5) <= h.quantile(0.95));
        assert!(h.quantile(0.95) <= h.quantile(0.99));
        assert!(h.quantile(0.99) <= h.max());
        // The p50 estimate lands in the bucket of the true median (100):
        // [64, 128) has upper bound 127.
        assert_eq!(h.quantile(0.5), 127);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.99), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn duration_recording() {
        let h = Histogram::new();
        h.record_duration(Duration::from_micros(3));
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum(), 3_000);
    }
}
