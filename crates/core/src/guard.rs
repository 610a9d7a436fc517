//! Input screening for the QoS stream (`SampleGuard`).
//!
//! The prediction service trains online on whatever the network delivers;
//! "Outlier-Resilient Web Service QoS Prediction" (Ye et al.) shows that
//! unfiltered garbage directly corrupts MF factors. Every sample passes one
//! rule before it reaches the observation store or the model, wherever it
//! enters: it is rejected if it is NaN/∞, non-positive, or outside the
//! model's own QoS range `[AmfConfig::r_min, AmfConfig::r_max]` (a response
//! time of `-3 s` is a measurement bug, not information). The rule has no
//! settings; the range is the model's.
//!
//! Rejected samples never reach the model. Every verdict is counted
//! ([`GuardStats`], and the process-global `guard.admitted` /
//! `guard.rejected.<reason>` counters), and each reject is recorded on the
//! global trace ring as a `guard_quarantine` event naming its user,
//! service, value and reason. Per-service reject rates for a finished
//! stream are [`crate::diagnostics::QuarantineDiagnostics`].
//!
//! # Examples
//!
//! ```
//! use amf_core::{AmfConfig, RejectReason, SampleGuard};
//!
//! let mut guard = SampleGuard::new(&AmfConfig::response_time());
//! assert!(guard.admit(0, 0, 1.4).is_ok());
//! assert_eq!(guard.admit(0, 0, f64::NAN), Err(RejectReason::NotFinite));
//! assert_eq!(guard.admit(0, 0, -2.0), Err(RejectReason::NonPositive));
//! assert_eq!(guard.admit(0, 0, 25.0), Err(RejectReason::OutOfRange));
//! let stats = guard.stats();
//! assert_eq!(stats.accepted, 1);
//! assert_eq!(stats.rejected(), 3);
//! ```

use serde::{Deserialize, Serialize};

/// Why a sample was quarantined.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RejectReason {
    /// NaN or infinite.
    NotFinite,
    /// Zero or negative (QoS measurements are strictly positive).
    NonPositive,
    /// Outside the model's `[r_min, r_max]` range.
    OutOfRange,
}

impl RejectReason {
    /// Short human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            RejectReason::NotFinite => "not-finite",
            RejectReason::NonPositive => "non-positive",
            RejectReason::OutOfRange => "out-of-range",
        }
    }
}

/// Monotonic admission counters. Every sample offered to the guard lands in
/// exactly one bucket, so `accepted + rejected() == seen`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct GuardStats {
    /// Samples admitted to training.
    pub accepted: u64,
    /// Rejected: NaN or infinite.
    pub not_finite: u64,
    /// Rejected: zero or negative.
    pub non_positive: u64,
    /// Rejected: outside the model's range.
    pub out_of_range: u64,
}

impl GuardStats {
    /// Total rejects across all reasons.
    pub fn rejected(&self) -> u64 {
        self.not_finite + self.non_positive + self.out_of_range
    }

    /// Total samples offered.
    pub fn seen(&self) -> u64 {
        self.accepted + self.rejected()
    }

    /// Fraction of offered samples that were rejected (0 when none seen).
    pub fn reject_rate(&self) -> f64 {
        let seen = self.seen();
        if seen == 0 {
            0.0
        } else {
            self.rejected() as f64 / seen as f64
        }
    }

    fn bump(&mut self, reason: RejectReason) {
        match reason {
            RejectReason::NotFinite => self.not_finite += 1,
            RejectReason::NonPositive => self.non_positive += 1,
            RejectReason::OutOfRange => self.out_of_range += 1,
        }
    }
}

/// The admission gate: screens a QoS stream against a model's range,
/// counting every verdict.
///
/// Not internally synchronized — wrap in a lock to share across threads
/// (the prediction service keeps it next to its ingestion path).
#[derive(Debug, Clone)]
pub struct SampleGuard {
    r_min: f64,
    r_max: f64,
    stats: GuardStats,
}

impl SampleGuard {
    /// A guard screening against `config`'s QoS range.
    pub fn new(config: &crate::AmfConfig) -> Self {
        Self {
            r_min: config.r_min,
            r_max: config.r_max,
            stats: GuardStats::default(),
        }
    }

    /// Screens one observation. `Ok(())` admits it to training; `Err` names
    /// the reject reason, and the sample has been counted and traced.
    pub fn admit(&mut self, user: usize, service: usize, raw: f64) -> Result<(), RejectReason> {
        if let Err(reason) = self.screen(raw) {
            self.stats.bump(reason);
            crate::obs::guard_metrics().rejected(reason).inc();
            // Quarantine verdicts feed the global trace ring so a flight
            // dump taken after an alarm shows *which* samples the guard
            // was rejecting in the moments before (rejects only — the
            // admit path stays off the ring).
            qos_obs::global().trace().event(
                "guard_quarantine",
                format!(
                    "user={user} service={service} value={raw} reason={}",
                    reason.label()
                ),
            );
            return Err(reason);
        }
        self.stats.accepted += 1;
        crate::obs::guard_metrics().admitted.inc();
        Ok(())
    }

    fn screen(&self, raw: f64) -> Result<(), RejectReason> {
        if !raw.is_finite() {
            return Err(RejectReason::NotFinite);
        }
        if raw <= 0.0 {
            return Err(RejectReason::NonPositive);
        }
        if raw < self.r_min || raw > self.r_max {
            return Err(RejectReason::OutOfRange);
        }
        Ok(())
    }

    /// The admission counters.
    pub fn stats(&self) -> GuardStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn guard() -> SampleGuard {
        SampleGuard::new(&crate::AmfConfig::response_time())
    }

    #[test]
    fn accepts_clean_values() {
        let mut g = guard();
        for k in 0..50 {
            assert!(g.admit(0, 0, 1.0 + 0.01 * (k % 5) as f64).is_ok());
        }
        assert_eq!(g.stats().accepted, 50);
        assert_eq!(g.stats().rejected(), 0);
    }

    #[test]
    fn hard_rules_fire_in_order() {
        let mut g = guard();
        assert_eq!(g.admit(0, 0, f64::NAN), Err(RejectReason::NotFinite));
        assert_eq!(g.admit(0, 0, f64::INFINITY), Err(RejectReason::NotFinite));
        assert_eq!(g.admit(0, 0, 0.0), Err(RejectReason::NonPositive));
        assert_eq!(g.admit(0, 0, -1.5), Err(RejectReason::NonPositive));
        assert_eq!(g.admit(0, 0, 25.0), Err(RejectReason::OutOfRange));
        let s = g.stats();
        assert_eq!(s.not_finite, 2);
        assert_eq!(s.non_positive, 2);
        assert_eq!(s.out_of_range, 1);
        assert_eq!(s.seen(), 5);
        assert!((s.reject_rate() - 1.0).abs() < 1e-12);
    }

    fn traced(detail: &str) -> bool {
        qos_obs::global()
            .trace()
            .events()
            .iter()
            .any(|e| e.name == "guard_quarantine" && e.detail == detail)
    }

    #[test]
    fn quarantine_verdicts_land_in_the_trace_ring() {
        let mut g = guard();
        g.admit(41, 17, f64::INFINITY).unwrap_err();
        assert!(
            traced("user=41 service=17 value=inf reason=not-finite"),
            "quarantine verdict traced: {:?}",
            qos_obs::global().trace().events()
        );
    }

    #[test]
    fn nan_survives_quarantine_for_inspection() {
        let mut g = guard();
        assert_eq!(g.admit(2, 5, f64::NAN), Err(RejectReason::NotFinite));
        assert_eq!(g.stats().not_finite, 1);
        // A NaN keeps its value on the ring for inspection.
        assert!(
            traced("user=2 service=5 value=NaN reason=not-finite"),
            "NaN verdict traced: {:?}",
            qos_obs::global().trace().events()
        );
    }

    #[test]
    fn for_amf_matches_model_range() {
        let config = crate::AmfConfig::throughput();
        assert_eq!(config.r_max, 7000.0);
        let mut g = SampleGuard::new(&config);
        assert!(g.admit(0, 0, config.r_max).is_ok());
        assert!(
            g.admit(0, 0, 25.0).is_ok(),
            "throughput admits past the RT range"
        );
        assert_eq!(g.admit(0, 0, 7000.5), Err(RejectReason::OutOfRange));
    }

    #[test]
    fn five_percent_garbage_is_fully_accounted() {
        let mut g = guard();
        let mut accepted = 0u64;
        for k in 0..2_000u64 {
            let (service, value) = match k % 20 {
                7 => (3, f64::NAN),
                13 => (4, -0.5),
                _ => ((k % 5) as usize, 0.8 + (k % 7) as f64 * 0.1),
            };
            if g.admit((k % 11) as usize, service, value).is_ok() {
                accepted += 1;
            }
        }
        let s = g.stats();
        assert_eq!(s.seen(), 2_000);
        assert_eq!(s.accepted, accepted);
        assert_eq!(s.rejected(), 200);
        assert_eq!(s.not_finite, 100);
        assert_eq!(s.non_positive, 100);
    }
}
