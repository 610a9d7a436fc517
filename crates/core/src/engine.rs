//! Sharded online-update engine: one front door, two lanes.
//!
//! [`crate::AmfTrainer::feed`] applies the QoS stream one sample at a time —
//! the paper's online update (Algorithm 1, Eq. 16–17), through
//! `model::apply_observation`. [`ShardedEngine`] ingests the same
//! stream under a selectable [`Consistency`] contract:
//!
//! * [`Consistency::Parity`] applies every sample on the calling thread
//!   through [`AmfModel::observe`], in stream order. That *is* the
//!   sequential model, so the result is bitwise-equal to it by
//!   construction — factors, EMA trackers, windowed accuracy and drift
//!   alarms alike — whatever [`EngineOptions::shards`] says.
//! * [`Consistency::Relaxed`] fans micro-batches out to `shards` worker
//!   threads over a lock-free entity slab (the `relaxed` module). Results are
//!   statistically equivalent to the sequential model, not bitwise; this is
//!   the engine's parallel-throughput lane and its only worker lane.
//!
//! # Worker faults
//!
//! Worker crashes — genuine panics, or kills and stalls scripted by a
//! [`FaultPlan`] attached via [`ShardedEngine::from_model_with_plan`] — can
//! only happen in the relaxed lane. It contains each panic, resumes the dead
//! worker's partition at-least-once, and past
//! [`EngineOptions::max_respawns`] abandons the rest as
//! [`FaultStats::samples_lost`] instead of looping forever. Parity has no
//! worker to kill, so a plan with kill or stall verbs is rejected there
//! ([`EngineOptions::validate`]).
//!
//! # Examples
//!
//! ```
//! use amf_core::engine::{EngineOptions, ShardedEngine};
//! use amf_core::AmfConfig;
//!
//! let mut engine = ShardedEngine::new(
//!     AmfConfig::response_time(),
//!     EngineOptions { shards: 4, ..EngineOptions::default() },
//! )?;
//! engine.feed_batch([(0, 0, 1.4), (1, 0, 0.9), (0, 1, 2.3)]);
//! engine.drain();
//! let model = engine.snapshot();
//! assert_eq!(model.update_count(), 3);
//! assert!(model.predict(1, 1).is_some());
//! # Ok::<(), amf_core::AmfError>(())
//! ```

use crate::config::AmfConfig;
use crate::fault::FaultPlan;
use crate::model::AmfModel;
use crate::relaxed::RelaxedLane;
use crate::AmfError;
use std::sync::Arc;

/// The engine's consistency contract: what the ingested result is promised
/// to equal (see DESIGN.md §13 for the full spectrum and the test harness
/// that enforces each point on it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Consistency {
    /// Bitwise sequential equivalence: samples apply on the calling thread
    /// in stream order, so the model is bit-for-bit the one feeding the
    /// stream to [`AmfModel`] one sample at a time produces. The
    /// conformance oracle — and the default.
    #[default]
    Parity,
    /// Hogwild-style statistically-bounded equivalence: workers claim
    /// entities with atomic epoch flags and apply samples in whatever order
    /// they arrive, so per-entity *ordering* (not per-entity atomicity) is
    /// relaxed. Every accepted sample is still applied — the update count is
    /// exact — but windowed accuracy is only guaranteed within the ε bound
    /// that `tests/relaxed_parity.rs` enforces against the sequential model.
    /// Crash recovery re-applies the in-flight sample (at-least-once).
    Relaxed,
}

impl std::str::FromStr for Consistency {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "parity" => Ok(Self::Parity),
            "relaxed" => Ok(Self::Relaxed),
            other => Err(format!(
                "unknown consistency '{other}' (expected 'parity' or 'relaxed')"
            )),
        }
    }
}

impl std::fmt::Display for Consistency {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Self::Parity => "parity",
            Self::Relaxed => "relaxed",
        })
    }
}

/// Tuning knobs for [`ShardedEngine`]. Parity ingests on the calling thread,
/// so every knob but `consistency` sizes the relaxed lane only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineOptions {
    /// Relaxed-lane worker threads, `K ≥ 1`.
    pub shards: usize,
    /// Relaxed-lane resume rounds per micro-batch after worker deaths.
    /// Workers still unfinished when the budget runs out are abandoned and
    /// their unapplied samples counted as lost instead of retried forever.
    pub max_respawns: u32,
    /// Which equivalence contract the engine runs under; see [`Consistency`].
    pub consistency: Consistency,
    /// Relaxed-mode micro-batch: samples buffered before one scoped
    /// fan-out/fan-in pass over the worker threads. Larger batches amortize
    /// thread startup; smaller ones bound snapshot staleness.
    pub relaxed_batch: usize,
}

impl Default for EngineOptions {
    fn default() -> Self {
        Self {
            shards: 4,
            max_respawns: 8,
            consistency: Consistency::Parity,
            relaxed_batch: 8_192,
        }
    }
}

impl EngineOptions {
    /// Options for `K` shards, other knobs at their defaults.
    pub fn with_shards(shards: usize) -> Self {
        Self {
            shards,
            ..Self::default()
        }
    }

    /// Options for `K` shards under `consistency`, other knobs at defaults.
    pub fn with_consistency(shards: usize, consistency: Consistency) -> Self {
        Self {
            shards,
            consistency,
            ..Self::default()
        }
    }

    /// Checks the options are usable with `plan` attached: no zero knob,
    /// and no kill or stall verbs under [`Consistency::Parity`]. Those
    /// verbs target worker threads, which only the relaxed lane has. Plans
    /// that only mutate the stream pass, since the caller applies those to
    /// the input before feeding it.
    ///
    /// # Errors
    ///
    /// Returns [`AmfError::InvalidConfig`] when `shards` or `relaxed_batch`
    /// is zero, or for a kill/stall plan under parity.
    pub fn validate(&self, plan: Option<&FaultPlan>) -> Result<(), AmfError> {
        if self.shards == 0 {
            return Err(AmfError::InvalidConfig("shards must be >= 1".into()));
        }
        if self.relaxed_batch == 0 {
            return Err(AmfError::InvalidConfig("relaxed_batch must be >= 1".into()));
        }
        if self.consistency == Consistency::Parity && plan.is_some_and(FaultPlan::targets_workers) {
            return Err(AmfError::InvalidConfig(
                "fault plan kills and stalls target worker threads, and parity ingests on \
                 the calling thread: run them under relaxed consistency \
                 (`--consistency relaxed`)"
                    .into(),
            ));
        }
        Ok(())
    }
}

/// One recorded worker death.
#[derive(Debug, Clone)]
pub struct FaultEvent {
    /// Which worker died.
    pub worker: usize,
    /// The worker's progress through its partition at death.
    pub at_job: u64,
    /// Whether the panic was a scripted [`FaultPlan`] kill.
    pub injected: bool,
    /// The panic message (or a description of the injected fault).
    pub message: String,
}

/// Aggregate fault counters for the engine's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Worker panics caught (injected and genuine).
    pub worker_panics: u64,
    /// Of those, scripted [`FaultPlan`] kills.
    pub injected_panics: u64,
    /// Worker restarts after a death.
    pub respawns: u64,
    /// Samples retried after a worker death: the one in flight at each
    /// death, applied twice when the death came mid-update (at-least-once).
    pub jobs_replayed: u64,
    /// Accepted samples abandoned because a worker exhausted its respawn
    /// budget (0 in any healthy run).
    pub samples_lost: u64,
    /// Workers given up on with their partition unfinished.
    pub abandoned_workers: u64,
}

/// The parity lane: [`AmfModel::observe`] on the calling thread, which is
/// the sequential reference itself.
struct InThreadLane {
    model: AmfModel,
    /// Samples applied by this engine (excludes the wrapped model's
    /// pre-existing updates).
    applied: u64,
    options: EngineOptions,
}

impl InThreadLane {
    fn feed_batch<I>(&mut self, samples: I)
    where
        I: IntoIterator<Item = (usize, usize, f64)>,
    {
        let started = std::time::Instant::now();
        let mut n = 0u64;
        for (user, service, raw) in samples {
            self.model.observe(user, service, raw);
            n += 1;
        }
        self.applied += n;
        if n > 0 {
            // One "chunk" per feed call, timed as shard 0's apply, so
            // `engine.jobs_dispatched` counts every ingested sample in both
            // lanes and in-thread ingestion has a latency histogram.
            let metrics = crate::obs::engine_metrics();
            metrics.chunks_dispatched.inc();
            metrics.jobs_dispatched.add(n);
            metrics.chunk_apply_ns.record_duration(started.elapsed());
        }
    }
}

/// The lane a [`ShardedEngine`] routed to at construction. One per engine,
/// never stored in bulk, so the variants' size gap costs nothing.
#[allow(clippy::large_enum_variant)]
enum Lane {
    /// [`Consistency::Parity`]: in-thread, bitwise-sequential.
    InThread(InThreadLane),
    /// [`Consistency::Relaxed`]: the Hogwild-style epoch-claim workers.
    Relaxed(RelaxedLane),
}

/// Online-update engine around the AMF model state: ingests a QoS stream
/// under a selectable [`Consistency`] contract (see the module docs).
///
/// Reads go through [`ShardedEngine::snapshot`] (drains first), or
/// [`ShardedEngine::into_model`] to finish ingestion and take the model out
/// without cloning.
pub struct ShardedEngine {
    lane: Lane,
}

impl ShardedEngine {
    /// Creates an empty engine.
    ///
    /// # Errors
    ///
    /// Returns [`AmfError::InvalidConfig`] for invalid hyperparameters or
    /// invalid options (see [`EngineOptions::validate`]).
    pub fn new(config: AmfConfig, options: EngineOptions) -> Result<Self, AmfError> {
        Self::from_model(AmfModel::new(config)?, options)
    }

    /// Wraps an existing (possibly trained) model, taking ownership of its
    /// entity state.
    ///
    /// # Errors
    ///
    /// Returns [`AmfError::InvalidConfig`] for invalid options.
    pub fn from_model(model: AmfModel, options: EngineOptions) -> Result<Self, AmfError> {
        Self::from_model_with_plan(model, options, None)
    }

    /// Like [`ShardedEngine::from_model`], with a deterministic fault script
    /// attached: relaxed workers consult `plan` at every apply and crash or
    /// stall where scripted, and recovery re-applies the in-flight sample
    /// (at-least-once — see [`Consistency::Relaxed`]).
    ///
    /// # Errors
    ///
    /// Returns [`AmfError::InvalidConfig`] for invalid options, and for a
    /// plan with kill or stall verbs under [`Consistency::Parity`] (see
    /// [`EngineOptions::validate`]).
    pub fn from_model_with_plan(
        model: AmfModel,
        options: EngineOptions,
        plan: Option<Arc<FaultPlan>>,
    ) -> Result<Self, AmfError> {
        options.validate(plan.as_deref())?;
        let lane = match options.consistency {
            Consistency::Parity => Lane::InThread(InThreadLane {
                model,
                applied: 0,
                options,
            }),
            Consistency::Relaxed => Lane::Relaxed(RelaxedLane::from_model(model, options, plan)),
        };
        Ok(Self { lane })
    }

    /// The engine's tuning options.
    pub fn options(&self) -> &EngineOptions {
        match &self.lane {
            Lane::InThread(lane) => &lane.options,
            Lane::Relaxed(lane) => lane.options(),
        }
    }

    /// The model hyperparameters.
    pub fn config(&self) -> &AmfConfig {
        match &self.lane {
            Lane::InThread(lane) => lane.model.config(),
            Lane::Relaxed(lane) => lane.config(),
        }
    }

    /// The consistency contract this engine runs under.
    pub fn consistency(&self) -> Consistency {
        self.options().consistency
    }

    /// Number of samples accepted by [`ShardedEngine::feed_batch`] so far.
    pub fn submitted(&self) -> u64 {
        match &self.lane {
            Lane::InThread(lane) => lane.applied,
            Lane::Relaxed(lane) => lane.submitted(),
        }
    }

    /// Number of samples fully applied so far.
    pub fn processed(&self) -> u64 {
        match &self.lane {
            Lane::InThread(lane) => lane.applied,
            Lane::Relaxed(lane) => lane.processed(),
        }
    }

    /// Aggregate fault counters (all zero in a fault-free run).
    pub fn fault_stats(&self) -> FaultStats {
        match &self.lane {
            Lane::InThread(_) => FaultStats::default(),
            Lane::Relaxed(lane) => lane.fault_stats(),
        }
    }

    /// The recorded worker deaths, oldest first.
    pub fn fault_events(&self) -> Vec<FaultEvent> {
        match &self.lane {
            Lane::InThread(_) => Vec::new(),
            Lane::Relaxed(lane) => lane.fault_events(),
        }
    }

    /// Whether a relaxed worker was abandoned with samples unapplied —
    /// predictions served meanwhile should be treated as degraded.
    pub fn is_degraded(&self) -> bool {
        match &self.lane {
            Lane::InThread(_) => false,
            Lane::Relaxed(lane) => lane.is_degraded(),
        }
    }

    /// Ingests one observation. Prefer [`ShardedEngine::feed_batch`] for
    /// streams.
    pub fn feed(&mut self, user: usize, service: usize, raw: f64) {
        self.feed_batch([(user, service, raw)]);
    }

    /// Ingests a batch of `(user, service, raw QoS)` observations. Parity
    /// returns once every sample is applied; the relaxed lane returns once
    /// every micro-batch it filled has been applied and buffers the rest.
    /// Use [`ShardedEngine::drain`] to wait for full application.
    pub fn feed_batch<I>(&mut self, samples: I)
    where
        I: IntoIterator<Item = (usize, usize, f64)>,
    {
        match &mut self.lane {
            Lane::InThread(lane) => lane.feed_batch(samples),
            Lane::Relaxed(lane) => lane.feed_batch(samples),
        }
    }

    /// Registers a user eagerly (id and factors exist before any sample).
    pub fn ensure_user(&mut self, user: usize) {
        match &mut self.lane {
            Lane::InThread(lane) => lane.model.ensure_user(user),
            Lane::Relaxed(lane) => lane.ensure_user(user),
        }
    }

    /// Registers a service eagerly; see [`ShardedEngine::ensure_user`].
    pub fn ensure_service(&mut self, service: usize) {
        match &mut self.lane {
            Lane::InThread(lane) => lane.model.ensure_service(service),
            Lane::Relaxed(lane) => lane.ensure_service(service),
        }
    }

    /// Blocks until every accepted sample has been applied, recovering any
    /// relaxed workers that die along the way. Returns early only if a
    /// worker exhausts its respawn budget (see [`FaultStats::samples_lost`]).
    pub fn drain(&mut self) {
        if let Lane::Relaxed(lane) = &mut self.lane {
            lane.drain();
        }
    }

    /// Drains, then assembles the current state into a standalone
    /// [`AmfModel`] (cloning entity state; the engine keeps running).
    pub fn snapshot(&mut self) -> AmfModel {
        match &mut self.lane {
            Lane::InThread(lane) => lane.model.clone(),
            Lane::Relaxed(lane) => lane.snapshot(),
        }
    }

    /// Drains and returns the final model.
    pub fn into_model(self) -> AmfModel {
        match self.lane {
            Lane::InThread(lane) => lane.model,
            Lane::Relaxed(lane) => lane.into_model(),
        }
    }
}

impl std::fmt::Debug for ShardedEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedEngine")
            .field("consistency", &self.consistency())
            .field("shards", &self.options().shards)
            .field("submitted", &self.submitted())
            .field("degraded", &self.is_degraded())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::KillPhase;
    use std::time::Duration;

    fn stream(n: usize, users: usize, services: usize) -> Vec<(usize, usize, f64)> {
        // Small deterministic LCG stream; values in (0.1, 10.1).
        let mut state = 0x1234_5678_u64;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let u = (state >> 33) as usize % users;
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let s = (state >> 33) as usize % services;
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let v = 0.1 + ((state >> 11) as f64 / (1u64 << 53) as f64) * 10.0;
                (u, s, v)
            })
            .collect()
    }

    fn sequential(samples: &[(usize, usize, f64)]) -> AmfModel {
        let mut model = AmfModel::new(AmfConfig::response_time()).unwrap();
        for &(u, s, v) in samples {
            model.observe(u, s, v);
        }
        model
    }

    fn factors_equal(a: &AmfModel, b: &AmfModel) -> bool {
        a.num_users() == b.num_users()
            && a.num_services() == b.num_services()
            && (0..a.num_users()).all(|u| a.user_factors(u) == b.user_factors(u))
            && (0..a.num_services()).all(|s| a.service_factors(s) == b.service_factors(s))
    }

    fn relaxed_with_plan(shards: usize, batch: usize, plan: FaultPlan) -> ShardedEngine {
        ShardedEngine::from_model_with_plan(
            AmfModel::new(AmfConfig::response_time()).unwrap(),
            EngineOptions {
                relaxed_batch: batch,
                ..EngineOptions::with_consistency(shards, Consistency::Relaxed)
            },
            Some(Arc::new(plan)),
        )
        .unwrap()
    }

    #[test]
    fn single_shard_matches_sequential_bitwise() {
        let samples = stream(2_000, 12, 30);
        let expected = sequential(&samples);
        let mut engine = ShardedEngine::new(
            AmfConfig::response_time(),
            EngineOptions {
                shards: 1,
                ..EngineOptions::default()
            },
        )
        .unwrap();
        engine.feed_batch(samples.iter().copied());
        let got = engine.into_model();
        assert!(factors_equal(&expected, &got));
        assert_eq!(got.update_count(), 2_000);
    }

    #[test]
    fn multi_shard_matches_sequential_bitwise() {
        let samples = stream(5_000, 17, 41);
        let expected = sequential(&samples);
        for shards in [2, 3, 4] {
            let mut engine = ShardedEngine::new(
                AmfConfig::response_time(),
                EngineOptions::with_shards(shards),
            )
            .unwrap();
            engine.feed_batch(samples.iter().copied());
            let got = engine.into_model();
            assert!(
                factors_equal(&expected, &got),
                "parity broke at {shards} shards"
            );
        }
    }

    #[test]
    fn snapshot_is_reusable_mid_stream() {
        let samples = stream(1_000, 8, 20);
        let mut engine =
            ShardedEngine::new(AmfConfig::response_time(), EngineOptions::default()).unwrap();
        engine.feed_batch(samples[..500].iter().copied());
        let mid = engine.snapshot();
        assert_eq!(mid.update_count(), 500);
        engine.feed_batch(samples[500..].iter().copied());
        let done = engine.into_model();
        assert_eq!(done.update_count(), 1_000);
        // The mid-stream snapshot equals a sequential run of the prefix.
        assert!(factors_equal(&mid, &sequential(&samples[..500])));
    }

    #[test]
    fn from_model_continues_training() {
        let samples = stream(800, 6, 12);
        let warm = sequential(&samples[..400]);
        let mut engine = ShardedEngine::from_model(
            warm,
            EngineOptions {
                shards: 2,
                ..EngineOptions::default()
            },
        )
        .unwrap();
        engine.feed_batch(samples[400..].iter().copied());
        let got = engine.into_model();
        assert!(factors_equal(&got, &sequential(&samples)));
        assert_eq!(got.update_count(), 800);
    }

    #[test]
    fn zero_shards_rejected() {
        assert!(matches!(
            ShardedEngine::new(
                AmfConfig::response_time(),
                EngineOptions {
                    shards: 0,
                    ..EngineOptions::default()
                }
            ),
            Err(AmfError::InvalidConfig(_))
        ));
    }

    #[test]
    fn drain_on_empty_engine_is_immediate() {
        let mut engine =
            ShardedEngine::new(AmfConfig::response_time(), EngineOptions::default()).unwrap();
        engine.drain();
        assert_eq!(engine.processed(), 0);
        assert_eq!(engine.fault_stats(), FaultStats::default());
        let model = engine.into_model();
        assert_eq!(model.num_users(), 0);
    }

    #[test]
    fn parity_rejects_worker_fault_plans_but_not_stream_plans() {
        let model = || AmfModel::new(AmfConfig::response_time()).unwrap();
        let kill = FaultPlan::new(0).kill_worker(0, 0, KillPhase::Before);
        let stall = FaultPlan::new(0).stall_worker(0, 0, Duration::from_millis(1));
        for (shards, plan) in [(1, kill.clone()), (4, kill), (2, stall)] {
            let err = ShardedEngine::from_model_with_plan(
                model(),
                EngineOptions::with_shards(shards),
                Some(Arc::new(plan)),
            )
            .unwrap_err();
            assert!(
                err.to_string().contains("--consistency relaxed"),
                "K={shards}: {err}"
            );
        }
        let stream_only = FaultPlan::new(0).drop_rate(0.1).reorder_window(4);
        let mut engine = ShardedEngine::from_model_with_plan(
            model(),
            EngineOptions::with_shards(4),
            Some(Arc::new(stream_only)),
        )
        .expect("stream-only plans need no worker");
        engine.feed_batch(stream(100, 3, 5));
        assert_eq!(engine.into_model().update_count(), 100);
    }

    #[test]
    fn consistency_parses_and_displays() {
        assert_eq!(
            "parity".parse::<Consistency>().unwrap(),
            Consistency::Parity
        );
        assert_eq!(
            "relaxed".parse::<Consistency>().unwrap(),
            Consistency::Relaxed
        );
        assert_eq!(Consistency::Parity.to_string(), "parity");
        assert_eq!(Consistency::Relaxed.to_string(), "relaxed");
        let err = "eventual".parse::<Consistency>().unwrap_err();
        assert!(err.contains("eventual"), "{err}");
        assert_eq!(Consistency::default(), Consistency::Parity);
    }

    #[test]
    fn relaxed_options_reject_zero_batch() {
        let zero_batch = EngineOptions {
            relaxed_batch: 0,
            ..EngineOptions::with_consistency(2, Consistency::Relaxed)
        };
        assert!(matches!(
            ShardedEngine::new(AmfConfig::response_time(), zero_batch),
            Err(AmfError::InvalidConfig(_))
        ));
    }

    #[test]
    fn relaxed_single_worker_matches_sequential_bitwise() {
        // With one worker the relaxed lane applies the stream in order
        // through the same kernel, so even the *bitwise* contract holds —
        // the relaxation only starts to bite at K >= 2.
        let samples = stream(2_000, 12, 30);
        let expected = sequential(&samples);
        let mut engine = ShardedEngine::new(
            AmfConfig::response_time(),
            EngineOptions {
                relaxed_batch: 256, // exercise several micro-batch flushes
                ..EngineOptions::with_consistency(1, Consistency::Relaxed)
            },
        )
        .unwrap();
        engine.feed_batch(samples.iter().copied());
        let got = engine.into_model();
        assert!(factors_equal(&expected, &got));
        assert_eq!(got.update_count(), 2_000);
    }

    #[test]
    fn relaxed_multi_shard_loses_nothing_and_stays_finite() {
        let samples = stream(4_000, 16, 33);
        let mut engine = ShardedEngine::new(
            AmfConfig::response_time(),
            EngineOptions {
                relaxed_batch: 512,
                ..EngineOptions::with_consistency(4, Consistency::Relaxed)
            },
        )
        .unwrap();
        engine.feed_batch(samples[..2_500].iter().copied());
        let mid = engine.snapshot();
        assert_eq!(mid.update_count(), 2_500, "snapshot must flush and count");
        engine.feed_batch(samples[2_500..].iter().copied());
        let got = engine.into_model();
        // No lost updates: every accepted sample is counted exactly once.
        assert_eq!(got.update_count(), 4_000);
        assert!(engine_stats_finite(&got));
        // And the model actually learned: predictions exist for seen pairs.
        assert!(got.predict(0, 0).is_some());
    }

    fn engine_stats_finite(model: &AmfModel) -> bool {
        (0..model.num_users()).all(|u| {
            model
                .user_factors(u)
                .is_some_and(|f| f.iter().all(|x| x.is_finite()))
        }) && (0..model.num_services()).all(|s| {
            model
                .service_factors(s)
                .is_some_and(|f| f.iter().all(|x| x.is_finite()))
        })
    }

    #[test]
    fn injected_kill_recovers_without_loss() {
        // A clean death before the sample touches any state: the worker
        // resumes at its progress watermark and nothing is lost.
        let samples = stream(2_000, 9, 15);
        let plan = FaultPlan::new(0).kill_worker(1, 40, KillPhase::Before);
        let mut engine = relaxed_with_plan(3, 512, plan);
        engine.feed_batch(samples.iter().copied());
        engine.drain();
        let stats = engine.fault_stats();
        assert_eq!(stats.worker_panics, 1);
        assert_eq!(stats.injected_panics, 1);
        assert_eq!(stats.respawns, 1);
        assert_eq!(stats.samples_lost, 0);
        assert_eq!(stats.abandoned_workers, 0);
        assert!(!engine.is_degraded());
        let got = engine.into_model();
        assert_eq!(got.update_count(), samples.len() as u64);
        assert!(engine_stats_finite(&got));
    }

    #[test]
    fn relaxed_injected_kill_reapplies_and_counts_once() {
        // A death mid-update, with the user side committed and the service
        // side not: recovery re-applies the whole sample.
        let samples = stream(2_000, 9, 15);
        let plan = FaultPlan::new(0).kill_worker(1, 40, KillPhase::Mid);
        let mut engine = relaxed_with_plan(3, 512, plan);
        engine.feed_batch(samples.iter().copied());
        engine.drain();
        let stats = engine.fault_stats();
        assert_eq!(stats.worker_panics, 1);
        assert_eq!(stats.injected_panics, 1);
        assert_eq!(stats.respawns, 1);
        assert_eq!(stats.jobs_replayed, 1);
        assert_eq!(stats.samples_lost, 0);
        assert!(!engine.is_degraded());
        let events = engine.fault_events();
        assert_eq!(events.len(), 1);
        assert!(events[0].injected);
        let got = engine.into_model();
        // At-least-once application, exactly-once *counting*.
        assert_eq!(got.update_count(), samples.len() as u64);
        assert!(engine_stats_finite(&got));
    }

    #[test]
    fn respawn_budget_abandons_instead_of_hanging() {
        let mut plan = FaultPlan::new(0);
        // All kills share (worker, job, phase); each fires once, so each
        // resumed incarnation dies again at job 10 until the budget runs
        // out.
        for _ in 0..50 {
            plan = plan.kill_worker(0, 10, KillPhase::Before);
        }
        let samples = stream(400, 4, 6);
        let mut engine = ShardedEngine::from_model_with_plan(
            AmfModel::new(AmfConfig::response_time()).unwrap(),
            EngineOptions {
                relaxed_batch: 128,
                max_respawns: 3,
                ..EngineOptions::with_consistency(2, Consistency::Relaxed)
            },
            Some(Arc::new(plan)),
        )
        .unwrap();
        engine.feed_batch(samples.iter().copied());
        engine.drain(); // must terminate
        let stats = engine.fault_stats();
        assert_eq!(stats.abandoned_workers, 1);
        assert_eq!(stats.worker_panics, 4);
        assert_eq!(stats.respawns, 3);
        assert!(stats.samples_lost > 0);
        assert!(engine.is_degraded());
        // The give-up reaches the process-wide counter and the trace ring
        // (other tests share both, so only lower bounds hold).
        assert!(crate::obs::engine_metrics().workers_abandoned.get() >= 1);
        let events = qos_obs::global().trace().events();
        assert!(events
            .iter()
            .any(|e| e.name == "engine_abandon" && e.detail.starts_with("worker 0 lost")));
        assert!(events.iter().filter(|e| e.name == "engine_respawn").count() >= 3);
        // The surviving worker's work is intact and the model is usable.
        let model = engine.into_model();
        assert_eq!(
            model.update_count() + stats.samples_lost,
            samples.len() as u64
        );
        assert!(model.update_count() > 0);
        assert!(engine_stats_finite(&model));
    }

    #[test]
    fn relaxed_respawn_budget_degrades_instead_of_hanging() {
        // A zero budget gives up on the first death. The kill lands
        // mid-update, so the sample in flight is half applied; it counts
        // as lost, not applied.
        let plan = FaultPlan::new(0).kill_worker(0, 10, KillPhase::Mid);
        let samples = stream(400, 4, 6);
        let mut engine = ShardedEngine::from_model_with_plan(
            AmfModel::new(AmfConfig::response_time()).unwrap(),
            EngineOptions {
                relaxed_batch: 128,
                max_respawns: 0,
                ..EngineOptions::with_consistency(2, Consistency::Relaxed)
            },
            Some(Arc::new(plan)),
        )
        .unwrap();
        engine.feed_batch(samples[..200].iter().copied());
        engine.drain(); // must terminate
        let stats = engine.fault_stats();
        assert_eq!(stats.worker_panics, 1);
        assert_eq!(stats.respawns, 0);
        assert_eq!(stats.abandoned_workers, 1);
        assert!(stats.samples_lost > 0);
        assert!(engine.is_degraded());
        // A degraded engine keeps ingesting: later batches apply in full,
        // and the degraded flag stays set.
        engine.feed_batch(samples[200..].iter().copied());
        engine.drain();
        assert_eq!(engine.fault_stats().samples_lost, stats.samples_lost);
        assert!(engine.is_degraded());
        let model = engine.into_model();
        assert_eq!(
            model.update_count() + stats.samples_lost,
            samples.len() as u64
        );
        assert!(model.update_count() > 0);
        assert!(model.update_count() < samples.len() as u64);
        assert!(engine_stats_finite(&model));
    }
}
