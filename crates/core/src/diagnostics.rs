//! Operational diagnostics for a live AMF model.
//!
//! The paper's prediction service runs unattended; an operator needs to see
//! whether the model is healthy without ground truth to evaluate against.
//! [`ModelDiagnostics`] summarizes the observable internals: the error
//! trackers (how converged the population is — high EMA errors mean cold or
//! churned entities), and factor-vector norms (runaway norms indicate
//! divergence, near-zero norms indicate dead entities).

use crate::model::AmfModel;
use qos_linalg::stats;
use serde::{Deserialize, Serialize};

/// Summary of one entity population (users, or services).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PopulationDiagnostics {
    /// Number of registered entities.
    pub count: usize,
    /// Mean EMA error across the population.
    pub mean_error: f64,
    /// Median EMA error.
    pub median_error: f64,
    /// Worst EMA error.
    pub max_error: f64,
    /// Fraction with EMA error below `converged_threshold`.
    pub converged_fraction: f64,
    /// Mean L2 norm of the factor vectors.
    pub mean_norm: f64,
    /// Largest L2 norm (divergence indicator).
    pub max_norm: f64,
}

/// Full model health snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ModelDiagnostics {
    /// User-side summary.
    pub users: PopulationDiagnostics,
    /// Service-side summary.
    pub services: PopulationDiagnostics,
    /// Total online updates applied.
    pub updates: u64,
    /// The threshold used for `converged_fraction`.
    pub converged_threshold: f64,
}

/// Default EMA-error threshold under which an entity counts as converged.
pub const DEFAULT_CONVERGED_THRESHOLD: f64 = 0.3;

fn summarize(errors: &[f64], norms: &[f64], converged_threshold: f64) -> PopulationDiagnostics {
    let count = errors.len();
    if count == 0 {
        return PopulationDiagnostics {
            count: 0,
            mean_error: f64::NAN,
            median_error: f64::NAN,
            max_error: f64::NAN,
            converged_fraction: f64::NAN,
            mean_norm: f64::NAN,
            max_norm: f64::NAN,
        };
    }
    let converged = errors.iter().filter(|&&e| e < converged_threshold).count();
    PopulationDiagnostics {
        count,
        mean_error: stats::mean(errors).expect("non-empty"),
        median_error: stats::median(errors).expect("non-empty"),
        max_error: stats::max(errors).expect("non-empty"),
        converged_fraction: converged as f64 / count as f64,
        mean_norm: stats::mean(norms).expect("non-empty"),
        max_norm: stats::max(norms).expect("non-empty"),
    }
}

impl ModelDiagnostics {
    /// Computes a snapshot with the default convergence threshold.
    pub fn of(model: &AmfModel) -> Self {
        Self::with_threshold(model, DEFAULT_CONVERGED_THRESHOLD)
    }

    /// Computes a snapshot counting entities with EMA error below
    /// `converged_threshold` as converged.
    pub fn with_threshold(model: &AmfModel, converged_threshold: f64) -> Self {
        let user_errors: Vec<f64> = (0..model.num_users())
            .filter_map(|u| model.user_error(u))
            .collect();
        let user_norms: Vec<f64> = (0..model.num_users())
            .filter_map(|u| model.user_factors(u))
            .map(qos_linalg::vector::norm2)
            .collect();
        let service_errors: Vec<f64> = (0..model.num_services())
            .filter_map(|s| model.service_error(s))
            .collect();
        let service_norms: Vec<f64> = (0..model.num_services())
            .filter_map(|s| model.service_factors(s))
            .map(qos_linalg::vector::norm2)
            .collect();
        Self {
            users: summarize(&user_errors, &user_norms, converged_threshold),
            services: summarize(&service_errors, &service_norms, converged_threshold),
            updates: model.update_count(),
            converged_threshold,
        }
    }

    /// A quick health verdict: `true` when no factor norm has run away and
    /// at least one entity exists.
    pub fn looks_healthy(&self, norm_limit: f64) -> bool {
        self.users.count > 0
            && self.services.count > 0
            && self.users.max_norm < norm_limit
            && self.services.max_norm < norm_limit
    }
}

impl std::fmt::Display for ModelDiagnostics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "updates: {}", self.updates)?;
        for (name, p) in [("users", &self.users), ("services", &self.services)] {
            writeln!(
                f,
                "{name}: {} registered, error mean/median/max {:.3}/{:.3}/{:.3}, \
                 {:.0}% converged (<{:.2}), norm mean/max {:.3}/{:.3}",
                p.count,
                p.mean_error,
                p.median_error,
                p.max_error,
                p.converged_fraction * 100.0,
                self.converged_threshold,
                p.mean_norm,
                p.max_norm,
            )?;
        }
        Ok(())
    }
}

/// Number of bins in the per-service reject-rate histogram.
pub const QUARANTINE_HISTOGRAM_BINS: usize = 10;

/// Screening report for a finished stream: the guard's verdicts, tallied
/// per service.
///
/// The reject-rate histogram answers the operator question the raw counters
/// cannot: *is garbage spread thinly across the fleet, or concentrated on a
/// few misbehaving services?* A healthy stream puts every service in the
/// first bin; a spike in the last bins names services whose QoS feed is
/// broken (and whose predictions should be treated with suspicion).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuarantineDiagnostics {
    /// The guard's aggregate admission counters.
    pub stats: crate::guard::GuardStats,
    /// Services that had at least one sample screened.
    pub services_seen: usize,
    /// Services with at least one reject.
    pub services_with_rejects: usize,
    /// Histogram of per-service reject rates over `[0, 1]`, in
    /// [`QUARANTINE_HISTOGRAM_BINS`] equal bins (bin 0 = cleanest). One
    /// count per service seen.
    pub reject_rate_histogram: Vec<u64>,
    /// The worst offenders: `(service, rejects, seen)` sorted by reject
    /// count descending, capped at ten entries.
    pub worst_services: Vec<(usize, u64, u64)>,
}

impl QuarantineDiagnostics {
    /// Screens `samples` (`(user, service, timestamp, value)`) through a
    /// [`SampleGuard`](crate::guard::SampleGuard) on `config`'s range, keeps
    /// the admitted ones in stream order, and reports the verdicts.
    pub fn screen(config: &crate::AmfConfig, samples: &mut Vec<(usize, usize, u64, f64)>) -> Self {
        let mut guard = crate::guard::SampleGuard::new(config);
        // Per service: (seen, rejected).
        let mut tallies: std::collections::HashMap<usize, (u64, u64)> = Default::default();
        samples.retain(|&(user, service, _, value)| {
            let admitted = guard.admit(user, service, value).is_ok();
            let tally = tallies.entry(service).or_default();
            tally.0 += 1;
            tally.1 += u64::from(!admitted);
            admitted
        });
        let mut histogram = qos_linalg::histogram::Histogram::new(
            0.0,
            1.0 + f64::EPSILON, // keep rate 1.0 inside the last bin
            QUARANTINE_HISTOGRAM_BINS,
        );
        let mut worst: Vec<(usize, u64, u64)> = Vec::new();
        for (&service, &(seen, rejected)) in &tallies {
            if let Some(h) = histogram.as_mut() {
                h.add(rejected as f64 / seen as f64);
            }
            if rejected > 0 {
                worst.push((service, rejected, seen));
            }
        }
        let services_with_rejects = worst.len();
        worst.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        worst.truncate(10);
        Self {
            stats: guard.stats(),
            services_seen: tallies.len(),
            services_with_rejects,
            reject_rate_histogram: histogram
                .map(|h| h.counts().to_vec())
                .unwrap_or_else(|| vec![0; QUARANTINE_HISTOGRAM_BINS]),
            worst_services: worst,
        }
    }
}

impl std::fmt::Display for QuarantineDiagnostics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "screened: {} accepted, {} rejected ({:.2}% — {} not-finite, {} non-positive, \
             {} out-of-range)",
            self.stats.accepted,
            self.stats.rejected(),
            self.stats.reject_rate() * 100.0,
            self.stats.not_finite,
            self.stats.non_positive,
            self.stats.out_of_range,
        )?;
        writeln!(
            f,
            "services: {} seen, {} with rejects",
            self.services_seen, self.services_with_rejects
        )?;
        write!(f, "reject-rate histogram [0..1]:")?;
        for count in &self.reject_rate_histogram {
            write!(f, " {count}")?;
        }
        writeln!(f)?;
        for &(service, rejected, seen) in &self.worst_services {
            writeln!(f, "  service {service}: {rejected}/{seen} rejected")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AmfConfig;

    fn trained_model(updates: usize) -> AmfModel {
        let mut m = AmfModel::new(AmfConfig::response_time()).unwrap();
        for k in 0..updates {
            m.observe(k % 4, k % 6, 0.5 + (k % 3) as f64);
        }
        m
    }

    #[test]
    fn empty_model_is_all_nan_counts_zero() {
        let m = AmfModel::new(AmfConfig::response_time()).unwrap();
        let d = ModelDiagnostics::of(&m);
        assert_eq!(d.users.count, 0);
        assert!(d.users.mean_error.is_nan());
        assert!(!d.looks_healthy(10.0));
    }

    #[test]
    fn trained_model_reports_population() {
        let m = trained_model(600);
        let d = ModelDiagnostics::of(&m);
        assert_eq!(d.users.count, 4);
        assert_eq!(d.services.count, 6);
        assert_eq!(d.updates, 600);
        assert!(d.users.mean_error.is_finite());
        assert!(d.users.max_error >= d.users.median_error);
        assert!(d.users.mean_norm > 0.0);
    }

    #[test]
    fn convergence_fraction_grows_with_training() {
        let early = ModelDiagnostics::of(&trained_model(20));
        let late = ModelDiagnostics::of(&trained_model(2000));
        assert!(
            late.users.converged_fraction >= early.users.converged_fraction,
            "training should converge entities: {} -> {}",
            early.users.converged_fraction,
            late.users.converged_fraction
        );
        assert!(late.users.converged_fraction > 0.5);
    }

    #[test]
    fn health_check_flags_runaway_norms() {
        let m = trained_model(200);
        let d = ModelDiagnostics::of(&m);
        assert!(d.looks_healthy(10.0));
        assert!(!d.looks_healthy(1e-6));
    }

    #[test]
    fn threshold_changes_converged_fraction() {
        let m = trained_model(500);
        let strict = ModelDiagnostics::with_threshold(&m, 1e-9);
        let lax = ModelDiagnostics::with_threshold(&m, 10.0);
        assert_eq!(strict.users.converged_fraction, 0.0);
        assert_eq!(lax.users.converged_fraction, 1.0);
    }

    #[test]
    fn display_mentions_both_populations() {
        let text = ModelDiagnostics::of(&trained_model(100)).to_string();
        assert!(text.contains("users:"));
        assert!(text.contains("services:"));
        assert!(text.contains("converged"));
    }

    #[test]
    fn quarantine_histogram_separates_clean_and_dirty_services() {
        // Service 0: all clean. Service 1: half garbage.
        let mut samples: Vec<(usize, usize, u64, f64)> = (0..20).map(|k| (0, 0, k, 1.0)).collect();
        samples.extend((0..20).map(|k| (0, 1, k, if k % 2 == 0 { 1.0 } else { f64::NAN })));
        let d = QuarantineDiagnostics::screen(&AmfConfig::response_time(), &mut samples);
        assert_eq!(samples.len(), 30, "only the admitted samples remain");
        assert!(samples.iter().all(|s| s.3 == 1.0));
        assert_eq!(d.services_seen, 2);
        assert_eq!(d.services_with_rejects, 1);
        assert_eq!(d.stats.accepted, 30);
        assert_eq!(d.stats.not_finite, 10);
        assert_eq!(d.reject_rate_histogram.iter().sum::<u64>(), 2);
        // Clean service lands in bin 0; the 50%-garbage one in the middle
        // (the epsilon-widened range puts rate 0.5 just under the 5th edge).
        assert_eq!(d.reject_rate_histogram[0], 1);
        assert_eq!(d.reject_rate_histogram[4], 1);
        assert_eq!(d.worst_services, vec![(1, 10, 20)]);
        let text = d.to_string();
        assert!(text.contains("histogram"));
        assert!(text.contains("service 1: 10/20"));
    }

    #[test]
    fn per_service_rejects_are_counted_exactly() {
        // Every reject is tallied against its service, however many there
        // are: ten NaNs on service 0, plus one reject each on 12 others.
        let mut samples: Vec<(usize, usize, u64, f64)> =
            (0..10).map(|k| (k, 0, k as u64, f64::NAN)).collect();
        samples.extend((1..13).map(|s| (0, s, 0, -1.0)));
        let d = QuarantineDiagnostics::screen(&AmfConfig::response_time(), &mut samples);
        assert!(samples.is_empty());
        assert_eq!(d.stats.not_finite, 10);
        assert_eq!(d.stats.non_positive, 12);
        assert_eq!((d.services_seen, d.services_with_rejects), (13, 13));
        assert_eq!(d.reject_rate_histogram[QUARANTINE_HISTOGRAM_BINS - 1], 13);
        assert_eq!(d.worst_services.len(), 10, "the offender list is capped");
        assert_eq!(d.worst_services[0], (0, 10, 10));
        assert_eq!(d.worst_services[1], (1, 1, 1));
    }

    #[test]
    fn quarantine_diagnostics_of_untouched_guard_is_empty() {
        let d = QuarantineDiagnostics::screen(&AmfConfig::response_time(), &mut Vec::new());
        assert_eq!(d.services_seen, 0);
        assert_eq!(d.stats.seen(), 0);
        assert_eq!(d.reject_rate_histogram.iter().sum::<u64>(), 0);
        assert!(d.worst_services.is_empty());
    }
}
