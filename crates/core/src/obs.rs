//! Cached handles into the process-global `qos-obs` registry for amf-core's
//! static instrumentation (model, guard, batch ingestion).
//!
//! Each subsystem registers its metrics exactly once (first touch, behind a
//! `OnceLock`) and records through the cached `Arc` handles afterwards —
//! plain relaxed atomics, no locks, no allocation. The per-sample `observe`
//! path additionally *samples* its timing (one in [`OBSERVE_SAMPLE_MASK`]+1
//! calls) because two `Instant::now` reads per sample would cost more than
//! the ~70 ns update they'd be measuring; see DESIGN.md §11 for the overhead
//! accounting.

use qos_obs::{Counter, Gauge, Histogram};
use std::sync::{Arc, OnceLock};

use crate::guard::RejectReason;

/// `observe` timing fires when `updates & MASK == 0`: every 256th sample.
/// Must stay ≤ the warm-up budget of `tests/alloc_free_hot_path.rs` (1000
/// samples) so the one-time registration allocation lands in warm-up.
pub(crate) const OBSERVE_SAMPLE_MASK: u64 = 0xFF;

/// Windowed-accuracy gauges refresh when `updates & MASK == 0`: every
/// 4096th sample. The refresh runs a median select over the 512-sample
/// window (~1.5 µs), so it must be rarer than the timing sample above to
/// stay inside the hot path's 5% overhead budget; serving-layer snapshots
/// refresh the gauges directly so scrapes never see stale values.
pub(crate) const ACCURACY_GAUGE_MASK: u64 = 0xFFF;

/// Model-side metrics (sequential `observe` path).
pub(crate) struct ModelMetrics {
    /// Latency of one sampled `observe` call, ns.
    pub observe_ns: Arc<Histogram>,
    /// How many observes were timing-sampled (total observes ≈ this × 256).
    pub observes_sampled: Arc<Counter>,
    /// EMA error tracker of the last sampled user (paper's `e_u`, Eq. 12).
    pub e_u: Arc<Gauge>,
    /// EMA error tracker of the last sampled service (`e_s`, Eq. 13).
    pub e_s: Arc<Gauge>,
    /// Windowed median relative error over the model's accuracy window
    /// (refreshed every [`ACCURACY_GAUGE_MASK`]+1 updates and at snapshot).
    pub mre_w: Arc<Gauge>,
    /// Windowed NMAE over the same window, same refresh cadence.
    pub nmae_w: Arc<Gauge>,
    /// 1.0 while the drift sentinel considers the error distribution
    /// stable, 0.0 after a recent alarm.
    pub drift_healthy: Arc<Gauge>,
    /// User-side Page–Hinkley alarms.
    pub drift_alarms_user: Arc<Counter>,
    /// Service-side Page–Hinkley alarms.
    pub drift_alarms_service: Arc<Counter>,
}

pub(crate) fn model_metrics() -> &'static ModelMetrics {
    static METRICS: OnceLock<ModelMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = qos_obs::global();
        ModelMetrics {
            observe_ns: reg.histogram("model.observe_ns"),
            observes_sampled: reg.counter("model.observes_sampled"),
            e_u: reg.gauge("model.e_u"),
            e_s: reg.gauge("model.e_s"),
            mre_w: reg.gauge("model.mre_w"),
            nmae_w: reg.gauge("model.nmae_w"),
            drift_healthy: reg.gauge("model.drift_healthy"),
            drift_alarms_user: reg.counter_labeled("model.drift_alarms", "user"),
            drift_alarms_service: reg.counter_labeled("model.drift_alarms", "service"),
        }
    })
}

/// Guard-side admission verdict counters (one per [`RejectReason`] plus
/// accepted), mirroring `GuardStats` onto the global registry so a process
/// snapshot sees admission health without reaching into a service instance.
pub(crate) struct GuardMetrics {
    pub admitted: Arc<Counter>,
    not_finite: Arc<Counter>,
    non_positive: Arc<Counter>,
    out_of_range: Arc<Counter>,
    outlier: Arc<Counter>,
}

impl GuardMetrics {
    /// The counter for one reject verdict.
    pub fn rejected(&self, reason: RejectReason) -> &Counter {
        match reason {
            RejectReason::NotFinite => &self.not_finite,
            RejectReason::NonPositive => &self.non_positive,
            RejectReason::OutOfRange => &self.out_of_range,
            RejectReason::Outlier => &self.outlier,
        }
    }
}

pub(crate) fn guard_metrics() -> &'static GuardMetrics {
    static METRICS: OnceLock<GuardMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = qos_obs::global();
        GuardMetrics {
            admitted: reg.counter("guard.admitted"),
            not_finite: reg.counter_labeled("guard.rejected", RejectReason::NotFinite.label()),
            non_positive: reg.counter_labeled("guard.rejected", RejectReason::NonPositive.label()),
            out_of_range: reg.counter_labeled("guard.rejected", RejectReason::OutOfRange.label()),
            outlier: reg.counter_labeled("guard.rejected", RejectReason::Outlier.label()),
        }
    })
}

/// Batch-ingestion counters: one chunk of `n` jobs per non-empty
/// [`crate::AmfTrainer::feed_batch`] call.
pub(crate) struct EngineMetrics {
    pub chunks_dispatched: Arc<Counter>,
    pub jobs_dispatched: Arc<Counter>,
    /// `engine.chunk_apply_ns.shard-0`: one record per `feed_batch` call.
    pub chunk_apply_ns: Arc<Histogram>,
}

pub(crate) fn engine_metrics() -> &'static EngineMetrics {
    static METRICS: OnceLock<EngineMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = qos_obs::global();
        EngineMetrics {
            chunks_dispatched: reg.counter("engine.chunks_dispatched"),
            jobs_dispatched: reg.counter("engine.jobs_dispatched"),
            chunk_apply_ns: reg.histogram_labeled("engine.chunk_apply_ns", "shard-0"),
        }
    })
}
