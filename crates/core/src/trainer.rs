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

    /// Batch variant of [`AmfTrainer::feed`] that applies the online updates
    /// through a [`crate::engine::ShardedEngine`]. Under the default
    /// [`Consistency::Parity`](crate::engine::Consistency) the engine applies
    /// the samples on the calling thread in stream order, so results are
    /// identical to feeding them one by one. Under
    /// [`Consistency::Relaxed`](crate::engine::Consistency) `options.shards`
    /// worker threads apply them instead, statistically equivalent rather
    /// than bitwise (windowed accuracy within the ε pinned by
    /// `tests/relaxed_parity.rs`). Returns the number of samples applied.
    ///
    /// # Errors
    ///
    /// Returns [`AmfError::InvalidConfig`] when `options` are invalid; the
    /// trainer is untouched in that case.
    pub fn feed_batch_sharded<I>(
        &mut self,
        samples: I,
        options: crate::engine::EngineOptions,
    ) -> Result<usize, AmfError>
    where
        I: IntoIterator<Item = (usize, usize, u64, f64)>,
    {
        self.feed_batch_sharded_with(samples, options, None)
            .map(|(n, _)| n)
    }

    /// Like [`AmfTrainer::feed_batch_sharded`], with an optional
    /// [`FaultPlan`](crate::fault::FaultPlan) attached to the engine so a
    /// relaxed batch exercises worker kills, stalls, and recovery
    /// deterministically. Also returns the engine's
    /// [`FaultStats`](crate::engine::FaultStats) so callers can report what
    /// the run survived.
    ///
    /// # Errors
    ///
    /// Returns [`AmfError::InvalidConfig`] when `options` is invalid or a
    /// kill/stall plan meets parity
    /// ([`EngineOptions::validate`](crate::engine::EngineOptions::validate));
    /// the trainer is untouched in that case.
    pub fn feed_batch_sharded_with<I>(
        &mut self,
        samples: I,
        options: crate::engine::EngineOptions,
        plan: Option<std::sync::Arc<crate::fault::FaultPlan>>,
    ) -> Result<(usize, crate::engine::FaultStats), AmfError>
    where
        I: IntoIterator<Item = (usize, usize, u64, f64)>,
    {
        options.validate(plan.as_deref())?;
        let samples: Vec<(usize, usize, u64, f64)> = samples.into_iter().collect();
        for &(user, service, timestamp, value) in &samples {
            self.advance_clock(timestamp);
            self.store.upsert(user, service, timestamp, value);
        }
        // The placeholder is cheap (empty entity vectors) and is dropped as
        // soon as the engine hands the trained model back.
        let placeholder = AmfModel::new(*self.model.config())?;
        let model = std::mem::replace(&mut self.model, placeholder);
        let mut engine = crate::engine::ShardedEngine::from_model_with_plan(model, options, plan)?;
        engine.feed_batch(samples.iter().map(|&(u, s, _, v)| (u, s, v)));
        engine.drain();
        let stats = engine.fault_stats();
        self.model = engine.into_model();
        Ok((samples.len(), stats))
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
    fn sharded_batch_feed_matches_sequential() {
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
        let mut sharded = AmfTrainer::new(AmfConfig::response_time()).unwrap();
        let n = sharded
            .feed_batch_sharded(
                samples.iter().copied(),
                crate::engine::EngineOptions::with_shards(3),
            )
            .unwrap();
        assert_eq!(n, samples.len());
        assert_eq!(seq.now(), sharded.now());
        assert_eq!(seq.store().len(), sharded.store().len());
        assert_eq!(seq.model().update_count(), sharded.model().update_count());
        for u in 0..7 {
            for s in 0..9 {
                assert_eq!(seq.model().predict(u, s), sharded.model().predict(u, s));
            }
        }
    }

    #[test]
    fn sharded_batch_feed_rejects_bad_options_without_damage() {
        let mut t = AmfTrainer::new(AmfConfig::response_time()).unwrap();
        t.feed(0, 0, 0, 1.0);
        let before = t.model().predict(0, 0);
        let err = t.feed_batch_sharded(
            vec![(1, 1, 1, 2.0)],
            crate::engine::EngineOptions::with_shards(0),
        );
        assert!(err.is_err());
        assert_eq!(t.model().predict(0, 0), before);
        assert_eq!(t.store().len(), 1);
        // A kill plan has no worker to target under parity: rejected before
        // the model or the store is touched.
        let kill =
            crate::fault::FaultPlan::new(0).kill_worker(0, 0, crate::fault::KillPhase::Before);
        let err = t.feed_batch_sharded_with(
            vec![(1, 1, 1, 2.0)],
            crate::engine::EngineOptions::with_shards(2),
            Some(std::sync::Arc::new(kill)),
        );
        assert!(err.is_err());
        assert_eq!(t.model().predict(0, 0), before);
        assert_eq!(t.model().update_count(), 1);
        assert_eq!(t.store().len(), 1);
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
