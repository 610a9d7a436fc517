//! The continuous training loop of Algorithm 1.
//!
//! [`AmfTrainer`] owns an [`AmfModel`] plus the [`ObservationStore`] of live
//! samples and drives the paper's `repeat ... until forever` loop:
//!
//! * when new QoS data arrives ([`AmfTrainer::feed`]) the sample is stored
//!   and immediately applied to the model (lines 3–9);
//! * otherwise random live samples are *replayed* (lines 11–15), discarding
//!   expired ones, until the model converges ([`AmfTrainer::replay_until_converged`],
//!   lines 16–17).

use crate::config::AmfConfig;
use crate::expiry::ObservationStore;
use crate::model::AmfModel;
use crate::AmfError;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// Stopping parameters for a replay phase.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReplayOptions {
    /// Hard cap on replayed samples.
    pub max_iterations: usize,
    /// Floor on replayed samples before convergence may fire (early windows
    /// are noisy; a single flat window is not convergence).
    pub min_iterations: usize,
    /// Window length (in samples) over which mean error is compared.
    pub window: usize,
    /// A window counts as flat when its relative improvement over the
    /// previous window falls below this.
    pub tolerance: f64,
    /// Number of *consecutive* flat windows required to declare convergence.
    pub patience: usize,
}

impl Default for ReplayOptions {
    fn default() -> Self {
        Self {
            max_iterations: 2_000_000,
            min_iterations: 10_000,
            window: 2_000,
            tolerance: 1e-3,
            patience: 3,
        }
    }
}

/// Outcome of a replay phase (feeds the Fig. 13 efficiency comparison).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainReport {
    /// Number of replayed samples.
    pub iterations: usize,
    /// Wall-clock time spent.
    pub elapsed: Duration,
    /// Mean per-sample relative error over the final window.
    pub final_error: f64,
    /// Whether the tolerance criterion fired before `max_iterations`.
    pub converged: bool,
}

/// Online AMF training driver (Algorithm 1).
///
/// # Examples
///
/// ```
/// use amf_core::{AmfConfig, AmfTrainer};
///
/// let mut trainer = AmfTrainer::new(AmfConfig::response_time())?;
/// // New observations arrive as a stream:
/// trainer.feed(0, 0, 0, 1.4);
/// trainer.feed(0, 1, 10, 0.9);
/// trainer.feed(1, 0, 20, 1.5);
/// // Idle time: keep refining on live samples until converged.
/// let report = trainer.replay_until_converged(Default::default());
/// assert!(report.iterations > 0);
/// let prediction = trainer.model().predict(1, 1);
/// assert!(prediction.is_some());
/// # Ok::<(), amf_core::AmfError>(())
/// ```
#[derive(Debug, Clone)]
pub struct AmfTrainer {
    model: AmfModel,
    store: ObservationStore,
    rng: StdRng,
    now: u64,
}

impl AmfTrainer {
    /// Creates a trainer with an empty model and store.
    ///
    /// # Errors
    ///
    /// Propagates [`AmfModel::new`] errors.
    pub fn new(config: AmfConfig) -> Result<Self, AmfError> {
        Ok(Self {
            model: AmfModel::new(config)?,
            store: ObservationStore::new(),
            rng: StdRng::seed_from_u64(config.seed ^ 0x7261_7964), // decorrelate from init
            now: 0,
        })
    }

    /// The trained model.
    pub fn model(&self) -> &AmfModel {
        &self.model
    }

    /// Mutable access to the model (e.g. to pre-register churn entities).
    pub fn model_mut(&mut self) -> &mut AmfModel {
        &mut self.model
    }

    /// The live-observation store.
    pub fn store(&self) -> &ObservationStore {
        &self.store
    }

    /// Current simulated wall-clock (max timestamp seen, or manually
    /// advanced).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Advances the simulated clock (time passing without new observations —
    /// this is what makes stored samples expire).
    pub fn advance_clock(&mut self, now: u64) {
        self.now = self.now.max(now);
    }

    /// Ingests a newly observed sample (Algorithm 1 lines 3–9): stores it
    /// (refreshing `t_ij`, `R_ij`), registers new ids, and applies one online
    /// update.
    pub fn feed(&mut self, user: usize, service: usize, timestamp: u64, value: f64) {
        self.advance_clock(timestamp);
        self.store.upsert(user, service, timestamp, value);
        self.model.observe(user, service, value);
    }

    /// Ingests a batch of newly observed samples: [`AmfTrainer::feed`] for
    /// each, on the calling thread and in stream order, so the result is
    /// exactly that of feeding them one by one. The batch is never collected.
    /// Returns the number of samples fed.
    ///
    /// Each non-empty call counts one chunk of `n` jobs
    /// (`engine.chunks_dispatched`, `engine.jobs_dispatched`) and records its
    /// wall time in `engine.chunk_apply_ns.shard-0`.
    pub fn feed_batch<I>(&mut self, samples: I) -> usize
    where
        I: IntoIterator<Item = (usize, usize, u64, f64)>,
    {
        let started = Instant::now();
        let mut fed = 0u64;
        for (user, service, timestamp, value) in samples {
            self.feed(user, service, timestamp, value);
            fed += 1;
        }
        if fed > 0 {
            let metrics = crate::obs::engine_metrics();
            metrics.chunks_dispatched.inc();
            metrics.jobs_dispatched.add(fed);
            metrics.chunk_apply_ns.record_duration(started.elapsed());
        }
        fed as usize
    }

    /// Replays one random live sample (Algorithm 1 lines 11–15). Returns the
    /// sample's relative error, or `None` when no live sample remains.
    pub fn replay_one(&mut self) -> Option<f64> {
        let expiry = self.model.config().expiry;
        let obs = self.store.sample_live(&mut self.rng, self.now, expiry)?;
        Some(
            self.model
                .observe(obs.user, obs.service, obs.value)
                .sample_error,
        )
    }

    /// Replays live samples until the windowed mean error stops improving
    /// (Algorithm 1 line 16: "if converged: wait until observing new QoS
    /// data").
    pub fn replay_until_converged(&mut self, options: ReplayOptions) -> TrainReport {
        let start = Instant::now();
        let window = options.window.max(1);
        let patience = options.patience.max(1);
        let mut iterations = 0;
        let mut window_sum = 0.0;
        let mut window_count = 0usize;
        let mut prev_mean = f64::INFINITY;
        let mut flat_streak = 0usize;
        let mut final_error = f64::NAN;
        let mut converged = false;

        while iterations < options.max_iterations {
            match self.replay_one() {
                Some(err) => {
                    iterations += 1;
                    window_sum += err;
                    window_count += 1;
                    if window_count == window {
                        let mean = window_sum / window as f64;
                        final_error = mean;
                        if prev_mean.is_finite() {
                            let improvement = (prev_mean - mean) / prev_mean.max(f64::MIN_POSITIVE);
                            if improvement < options.tolerance {
                                flat_streak += 1;
                            } else {
                                flat_streak = 0;
                            }
                            if flat_streak >= patience && iterations >= options.min_iterations {
                                converged = true;
                                break;
                            }
                        }
                        prev_mean = mean;
                        window_sum = 0.0;
                        window_count = 0;
                    }
                }
                None => break, // nothing live to replay
            }
        }
        if final_error.is_nan() && window_count > 0 {
            final_error = window_sum / window_count as f64;
        }
        TrainReport {
            iterations,
            elapsed: start.elapsed(),
            final_error,
            converged,
        }
    }

    /// Convenience for the slice-oriented experiments: feeds a whole slice of
    /// samples (in the given stream order), then replays to convergence.
    /// Returns the replay report.
    pub fn train_slice<I>(&mut self, samples: I, options: ReplayOptions) -> TrainReport
    where
        I: IntoIterator<Item = (usize, usize, u64, f64)>,
    {
        for (user, service, timestamp, value) in samples {
            self.feed(user, service, timestamp, value);
        }
        self.replay_until_converged(options)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_options() -> ReplayOptions {
        ReplayOptions {
            max_iterations: 50_000,
            min_iterations: 1_000,
            window: 200,
            tolerance: 1e-3,
            patience: 3,
        }
    }

    #[test]
    fn feed_advances_clock_and_stores() {
        let mut t = AmfTrainer::new(AmfConfig::response_time()).unwrap();
        t.feed(0, 0, 500, 1.0);
        assert_eq!(t.now(), 500);
        assert_eq!(t.store().len(), 1);
        t.feed(0, 1, 300, 2.0); // older timestamp must not rewind the clock
        assert_eq!(t.now(), 500);
        assert_eq!(t.store().len(), 2);
    }

    #[test]
    fn replay_improves_fit() {
        let mut t = AmfTrainer::new(AmfConfig::response_time()).unwrap();
        // A small rank-friendly set of samples.
        let values = [
            (0, 0, 1.0),
            (0, 1, 2.0),
            (1, 0, 2.0),
            (1, 1, 4.0),
            (2, 0, 0.5),
            (2, 1, 1.0),
        ];
        for (k, &(u, s, v)) in values.iter().enumerate() {
            t.feed(u, s, k as u64, v);
        }
        let report = t.replay_until_converged(quick_options());
        assert!(report.iterations > 0);
        assert!(
            report.final_error < 0.25,
            "final error {}",
            report.final_error
        );
        for &(u, s, v) in &values {
            let p = t.model().predict(u, s).unwrap();
            assert!(
                (p - v).abs() / v < 0.5,
                "({u},{s}): predicted {p}, actual {v}"
            );
        }
    }

    #[test]
    fn replay_stops_when_everything_expired() {
        let mut t = AmfTrainer::new(AmfConfig::response_time()).unwrap();
        t.feed(0, 0, 0, 1.0);
        t.advance_clock(10_000); // sample now far older than 15 min
        let report = t.replay_until_converged(quick_options());
        assert_eq!(report.iterations, 0);
        assert!(!report.converged);
        assert!(t.store().is_empty());
    }

    #[test]
    fn replay_one_on_empty_store() {
        let mut t = AmfTrainer::new(AmfConfig::response_time()).unwrap();
        assert!(t.replay_one().is_none());
    }

    #[test]
    fn max_iterations_caps_work() {
        let mut t = AmfTrainer::new(AmfConfig::response_time()).unwrap();
        for k in 0..20 {
            t.feed(k % 4, k % 5, k as u64, 1.0 + (k % 3) as f64);
        }
        let report = t.replay_until_converged(ReplayOptions {
            max_iterations: 100,
            min_iterations: 0,
            window: 1_000_000, // window never fills -> no convergence check
            tolerance: 0.0,
            patience: 1,
        });
        assert_eq!(report.iterations, 100);
        assert!(!report.converged);
        assert!(report.final_error.is_finite());
    }

    #[test]
    fn train_slice_roundtrip() {
        let mut t = AmfTrainer::new(AmfConfig::response_time()).unwrap();
        let samples: Vec<(usize, usize, u64, f64)> = (0..30)
            .map(|k| (k % 5, k % 6, k as u64, 0.5 + (k % 4) as f64))
            .collect();
        let report = t.train_slice(samples, quick_options());
        assert!(report.iterations > 0);
        assert_eq!(t.store().len(), 30);
        assert_eq!(t.model().num_users(), 5);
        assert_eq!(t.model().num_services(), 6);
    }

    #[test]
    fn second_slice_converges_faster_than_first() {
        // The heart of Fig. 13: warm-started incremental updating needs far
        // fewer iterations than the cold start.
        let mut t = AmfTrainer::new(AmfConfig::response_time()).unwrap();
        let slice = |offset: u64| -> Vec<(usize, usize, u64, f64)> {
            (0..60)
                .map(|k| {
                    (
                        (k % 6) as usize,
                        (k % 10) as usize,
                        offset + k as u64,
                        1.0 + ((k * 7) % 5) as f64 * 0.5,
                    )
                })
                .collect()
        };
        let first = t.train_slice(slice(0), quick_options());
        let second = t.train_slice(slice(900), quick_options());
        assert!(
            second.iterations <= first.iterations,
            "warm start {} should not exceed cold start {}",
            second.iterations,
            first.iterations
        );
    }

    #[test]
    fn feed_batch_matches_feed_one_by_one() {
        let samples: Vec<(usize, usize, u64, f64)> = (0..400u64)
            .map(|k| {
                (
                    (k % 7) as usize,
                    (k % 9) as usize,
                    k,
                    0.5 + (k % 5) as f64 * 0.3,
                )
            })
            .collect();
        let mut seq = AmfTrainer::new(AmfConfig::response_time()).unwrap();
        for &(u, s, t, v) in &samples {
            seq.feed(u, s, t, v);
        }
        let mut batched = AmfTrainer::new(AmfConfig::response_time()).unwrap();
        let mut n = 0;
        for chunk in samples.chunks(64) {
            n += batched.feed_batch(chunk.iter().copied());
        }
        assert_eq!(n, samples.len());
        assert_eq!(batched.feed_batch(std::iter::empty()), 0);
        assert_eq!(seq.now(), batched.now());
        assert_eq!(seq.store().len(), batched.store().len());
        assert_eq!(seq.model().update_count(), batched.model().update_count());
        for u in 0..7 {
            for s in 0..9 {
                assert_eq!(seq.model().predict(u, s), batched.model().predict(u, s));
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut t = AmfTrainer::new(AmfConfig::response_time()).unwrap();
            for k in 0..20 {
                t.feed(k % 3, k % 4, k as u64, 1.0 + (k % 2) as f64);
            }
            t.replay_until_converged(quick_options());
            t.model().predict(0, 0).unwrap()
        };
        assert_eq!(run(), run());
    }
}
