//! The QoS prediction service (paper Fig. 3, right panel).
//!
//! Ties together the three stages the paper names:
//!
//! 1. **Input handling** — observed QoS records arrive as a stream (here as
//!    batches, single records, or an unbounded input queue), are screened by a
//!    [`SampleGuard`] (NaN/∞, non-positive, out-of-range, and statistical
//!    outliers are quarantined, never trained on), resolved to dense ids by
//!    the user/service managers, logged in the [`QosDatabase`], and fed to
//!    the model;
//! 2. **Online updating** — the embedded [`amf_core::AmfTrainer`] applies
//!    each sample immediately and replays live samples during idle time;
//! 3. **QoS prediction** — [`QosPredictionService::predict`] serves estimates
//!    for *candidate* services the user never invoked.
//!
//! # Fault tolerance
//!
//! A runtime-adaptation loop keeps calling this service while parts of it
//! are unhealthy, so every stage degrades instead of failing:
//!
//! * **Ingestion** — garbage records are quarantined with exact counters
//!   ([`QosPredictionService::guard_stats`]). Batches train on the calling
//!   thread through [`amf_core::AmfTrainer::feed_batch`].
//! * **Prediction** — [`QosPredictionService::predict_degraded`] never
//!   returns an error or a non-finite value: when the model cannot price a
//!   pair (unknown or cold entities, mid-recovery), it walks a fallback
//!   ladder — user mean → service mean → global mean → configured default —
//!   and tags the answer with its [`PredictionSource`] so callers can weigh
//!   it accordingly.

use crate::database::QosDatabase;
use crate::managers::Registry;
use crate::ServiceError;
use amf_core::guard::{GuardConfig, GuardStats, SampleGuard};
use amf_core::{AmfConfig, AmfTrainer, QuarantineDiagnostics};
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use qos_obs::{Counter, Histogram, Json, MetricsRegistry};
use std::sync::Arc;
use std::time::Instant;

/// One observed QoS record as submitted by a user's QoS manager.
#[derive(Debug, Clone, PartialEq)]
pub struct QosRecord {
    /// External user identity.
    pub user: String,
    /// External service identity.
    pub service: String,
    /// Observation timestamp (seconds since simulation epoch).
    pub timestamp: u64,
    /// Observed raw QoS value.
    pub value: f64,
}

/// Observations retained per pair in the QoS database.
pub const HISTORY_CAP: usize = 16;

/// EMA-error level at or above which an entity counts as *cold* for
/// [`QosPredictionService::predict_degraded`] (freshly registered entities
/// start at exactly `1.0`).
const COLD_ERROR_THRESHOLD: f64 = 1.0;

/// Prediction-service configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceConfig {
    /// Hyperparameters of the embedded AMF model.
    pub amf: AmfConfig,
    /// Replay stopping criteria used by [`QosPredictionService::idle`].
    pub replay: amf_core::trainer::ReplayOptions,
    /// Read by nothing; `servebench/layers` still sets it. It goes with that
    /// call site in the next change to the benchmark.
    #[doc(hidden)]
    pub shards: usize,
    /// Input screening. `Some` quarantines invalid samples before they reach
    /// the database or the model; `None` disables screening entirely. The
    /// default matches the model's QoS range with the statistical outlier
    /// gate off (hard validation only) — enable
    /// [`GuardConfig::outlier_gate`] for lossy transports.
    pub guard: Option<GuardConfig>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        let amf = AmfConfig::response_time();
        Self {
            amf,
            replay: amf_core::trainer::ReplayOptions::default(),
            shards: 1,
            guard: Some(GuardConfig {
                outlier_gate: false,
                ..GuardConfig::for_amf(&amf)
            }),
        }
    }
}

/// Where a degraded-mode prediction's value came from — ordered from most to
/// least informed. Anything other than [`PredictionSource::Model`] means the
/// AMF model could not price the pair and a coarser estimate was served.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PredictionSource {
    /// The AMF model, both entities known and warm.
    Model,
    /// Mean of the user's retained observations across services.
    UserMean,
    /// Mean of the service's retained observations across users.
    ServiceMean,
    /// Mean of every retained observation.
    GlobalMean,
    /// No data at all: the configured default (midpoint of the QoS range).
    Default,
}

impl PredictionSource {
    /// Short human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            PredictionSource::Model => "model",
            PredictionSource::UserMean => "user-mean",
            PredictionSource::ServiceMean => "service-mean",
            PredictionSource::GlobalMean => "global-mean",
            PredictionSource::Default => "default",
        }
    }

    /// Whether the value came from the AMF model itself.
    pub fn is_model(self) -> bool {
        self == PredictionSource::Model
    }

    /// Every source, in ladder order (the order of [`SourceCounts`] fields).
    pub const ALL: [PredictionSource; 5] = [
        PredictionSource::Model,
        PredictionSource::UserMean,
        PredictionSource::ServiceMean,
        PredictionSource::GlobalMean,
        PredictionSource::Default,
    ];

    fn index(self) -> usize {
        match self {
            PredictionSource::Model => 0,
            PredictionSource::UserMean => 1,
            PredictionSource::ServiceMean => 2,
            PredictionSource::GlobalMean => 3,
            PredictionSource::Default => 4,
        }
    }
}

/// Per-rung tally of [`QosPredictionService::predict_degraded`] answers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SourceCounts {
    /// Served by the AMF model.
    pub model: u64,
    /// Served from the user's observation mean.
    pub user_mean: u64,
    /// Served from the service's observation mean.
    pub service_mean: u64,
    /// Served from the global observation mean.
    pub global_mean: u64,
    /// Served as the configured default (no data at all).
    pub default: u64,
}

impl SourceCounts {
    fn from_counters(counters: &[Arc<Counter>; 5]) -> Self {
        Self {
            model: counters[0].get(),
            user_mean: counters[1].get(),
            service_mean: counters[2].get(),
            global_mean: counters[3].get(),
            default: counters[4].get(),
        }
    }

    /// Sum over every rung.
    pub fn total(&self) -> u64 {
        self.model + self.user_mean + self.service_mean + self.global_mean + self.default
    }
}

/// A degraded-mode prediction: always a finite value, tagged with how far
/// down the fallback ladder it came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prediction {
    /// The predicted QoS value (always finite).
    pub value: f64,
    /// Which rung of the fallback ladder produced it.
    pub source: PredictionSource,
}

/// Operational counters of a [`QosPredictionService`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Registered users.
    pub users: usize,
    /// Registered services.
    pub services: usize,
    /// Online model updates applied.
    pub updates: u64,
    /// Records admitted to training (screened in, or screening disabled).
    pub accepted: u64,
    /// Records quarantined by the input guard.
    pub rejected: u64,
    /// Cumulative `predict_degraded` fallback-ladder tallies (never reset).
    pub sources_total: SourceCounts,
}

/// The QoS prediction service.
///
/// Thread-safe: records can be submitted from any thread, directly or
/// through the input queue ([`QosPredictionService::offer`]); the model is
/// guarded by a mutex.
///
/// # Examples
///
/// ```
/// use qos_service::{QosPredictionService, QosRecord, ServiceConfig};
///
/// let service = QosPredictionService::new(ServiceConfig::default());
/// service.submit(QosRecord {
///     user: "u-pittsburgh".into(),
///     service: "ws-weather-1".into(),
///     timestamp: 0,
///     value: 1.4,
/// });
/// service.submit(QosRecord {
///     user: "u-hongkong".into(),
///     service: "ws-weather-1".into(),
///     timestamp: 1,
///     value: 0.6,
/// });
/// // Candidate prediction for a pair never invoked:
/// let estimate = service.predict("u-pittsburgh", "ws-weather-1").unwrap();
/// assert!(estimate > 0.0);
/// // Garbage is quarantined, not trained on:
/// service.submit(QosRecord {
///     user: "u-hongkong".into(),
///     service: "ws-weather-1".into(),
///     timestamp: 2,
///     value: f64::NAN,
/// });
/// assert_eq!(service.stats().rejected, 1);
/// ```
pub struct QosPredictionService {
    trainer: Mutex<AmfTrainer>,
    users: Mutex<Registry>,
    services: Mutex<Registry>,
    guard: Option<Mutex<SampleGuard>>,
    database: QosDatabase,
    config: ServiceConfig,
    input_tx: Sender<QosRecord>,
    input_rx: Receiver<QosRecord>,
    /// Per-instance metric registry: counters here are scoped to THIS
    /// service (tests assert exact per-instance counts), unlike amf-core's
    /// process-global instrumentation.
    metrics: MetricsRegistry,
    accepted: Arc<Counter>,
    predictions: Arc<Counter>,
    predict_ns: Arc<Histogram>,
    source_total: [Arc<Counter>; 5],
}

impl QosPredictionService {
    /// Creates the service.
    ///
    /// # Panics
    ///
    /// Panics if the AMF configuration is invalid; use
    /// [`QosPredictionService::try_new`] for a checked variant.
    pub fn new(config: ServiceConfig) -> Self {
        Self::try_new(config).expect("invalid service config")
    }

    /// Creates the service, validating the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Model`] when the AMF configuration is invalid.
    pub fn try_new(config: ServiceConfig) -> Result<Self, ServiceError> {
        let (input_tx, input_rx) = unbounded();
        let metrics = MetricsRegistry::new();
        let accepted = metrics.counter("service.accepted");
        let predictions = metrics.counter("service.predictions");
        let predict_ns = metrics.histogram("service.predict_ns");
        let source_total = PredictionSource::ALL
            .map(|s| metrics.counter_labeled("service.predict_source", s.label()));
        Ok(Self {
            trainer: Mutex::new(AmfTrainer::new(config.amf)?),
            users: Mutex::new(Registry::new()),
            services: Mutex::new(Registry::new()),
            guard: config.guard.map(|g| Mutex::new(SampleGuard::new(g))),
            database: QosDatabase::new(HISTORY_CAP),
            config,
            input_tx,
            input_rx,
            metrics,
            accepted,
            predictions,
            predict_ns,
            source_total,
        })
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// The QoS database (read-side access for monitoring).
    pub fn database(&self) -> &QosDatabase {
        &self.database
    }

    /// Queues a record for the next [`QosPredictionService::drain_inputs`];
    /// callable from any thread. The queue is unbounded and the service
    /// holds its receiving end, so this never blocks and returns `true`.
    pub fn offer(&self, record: QosRecord) -> bool {
        self.input_tx.send(record).is_ok()
    }

    /// Applies all queued records as one
    /// [`QosPredictionService::submit_batch`]. Returns how many were
    /// accepted for training.
    pub fn drain_inputs(&self) -> usize {
        let mut batch = Vec::new();
        while let Ok(record) = self.input_rx.try_recv() {
            batch.push(record);
        }
        self.submit_batch(batch)
    }

    /// Names → ids: registers every record's user under one `users` lock,
    /// then every service under one `services` lock. Each registry issues
    /// new ids in first-appearance order, as registering the records one by
    /// one would.
    fn register_all(&self, records: &[QosRecord]) -> Vec<(usize, usize, u64, f64)> {
        let mut samples: Vec<_> = {
            let mut users = self.users.lock();
            records
                .iter()
                .map(|r| (users.join(&r.user), 0, r.timestamp, r.value))
                .collect()
        };
        let mut services = self.services.lock();
        for (sample, record) in samples.iter_mut().zip(records) {
            sample.1 = services.join(&record.service);
        }
        samples
    }

    /// Input handling + online updating for a whole batch of records: the
    /// names → ids stage, then [`QosPredictionService::submit_batch_ids`].
    ///
    /// The result is identical to one-by-one submission, and the cost is
    /// one SGD step per sample whatever the model's size. Returns the
    /// number of records accepted for training (quarantined records are
    /// counted in [`ServiceStats::rejected`], not here).
    pub fn submit_batch(&self, records: Vec<QosRecord>) -> usize {
        self.submit_batch_ids(&self.register_all(&records))
    }

    /// Ids → state: input handling + online updating for
    /// `(user, service, timestamp, value)` samples whose ids the registries
    /// already issued (as [`QosPredictionService::join_user`] and
    /// [`QosPredictionService::join_service`] return them).
    ///
    /// Each step takes its lock once per batch: the guard screens every
    /// sample, the database logs the admitted ones, and
    /// [`amf_core::AmfTrainer::feed_batch`] trains on them on the calling
    /// thread and in stream order. Returns the number of samples accepted
    /// for training.
    ///
    /// A sample naming an id at or above its registry's [`Registry::len`]
    /// is refused: it is not screened, logged, trained on or counted, so no
    /// caller can make the model or the database grow rows for an entity
    /// nobody registered.
    pub fn submit_batch_ids(&self, samples: &[(usize, usize, u64, f64)]) -> usize {
        let users = self.users.lock().len();
        let services = self.services.lock().len();
        let issued = samples
            .iter()
            .filter(|&&(user, service, _, _)| user < users && service < services);
        let mut admitted = Vec::with_capacity(samples.len());
        match &self.guard {
            Some(guard) => {
                let mut guard = guard.lock();
                admitted.extend(issued.filter(|&&(u, s, _, v)| guard.admit(u, s, v).is_ok()));
            }
            None => admitted.extend(issued),
        }
        if admitted.is_empty() {
            return 0;
        }
        self.database.record_batch(&admitted);
        self.accepted.add(admitted.len() as u64);
        self.trainer.lock().feed_batch(admitted)
    }

    /// Input handling + online updating for one record: both stages of
    /// [`QosPredictionService::submit_batch`] with one record. Returns the
    /// `(user, service)` dense ids (assigned even for quarantined records —
    /// identity and data quality are independent).
    pub fn submit(&self, record: QosRecord) -> (usize, usize) {
        let sample = self.register_all(std::slice::from_ref(&record));
        self.submit_batch_ids(&sample);
        (sample[0].0, sample[0].1)
    }

    /// Idle-time refinement: replays live samples until convergence
    /// (Algorithm 1's "randomly pick an existing data sample" branch).
    pub fn idle(&self) -> amf_core::TrainReport {
        self.trainer
            .lock()
            .replay_until_converged(self.config.replay)
    }

    /// Advances the service's notion of time (drives sample expiry when no
    /// new data arrives).
    pub fn advance_clock(&self, now: u64) {
        self.trainer.lock().advance_clock(now);
    }

    /// Windowed accuracy (MRE/NMAE over the sliding observation window) —
    /// the planner's *Analyze* input.
    pub fn windowed_accuracy(&self) -> amf_core::WindowedAccuracy {
        self.trainer.lock().model().windowed_accuracy()
    }

    /// Cumulative `(user, service)` drift-alarm counts from the model's
    /// Page–Hinkley sentinel.
    pub fn drift_alarms(&self) -> (u64, u64) {
        self.trainer.lock().model().drift_sentinel().alarms()
    }

    /// Whether the drift sentinel currently considers both error streams
    /// stationary.
    pub fn drift_healthy(&self) -> bool {
        self.trainer.lock().model().drift_sentinel().healthy()
    }

    /// Clears drift-detector state *and* alarm counters so back-to-back
    /// scenario runs never inherit alarms from a previous regime.
    pub fn reset_drift_sentinel(&self) {
        self.trainer.lock().model_mut().reset_drift_sentinel();
    }

    /// Predicts the QoS between a user and a (candidate) service.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::UnknownEntity`] naming the side the model
    /// cannot price: one never registered, or one whose every record was
    /// quarantined, so it has no model row. For an infallible variant that
    /// degrades instead, see [`QosPredictionService::predict_degraded`].
    pub fn predict(&self, user: &str, service: &str) -> Result<f64, ServiceError> {
        let unknown = |kind, id: &str| ServiceError::UnknownEntity {
            kind,
            id: id.to_string(),
        };
        let user_id = self.users.lock().resolve(user);
        let user_id = user_id.ok_or_else(|| unknown("user", user))?;
        let service_id = self.services.lock().resolve(service);
        let service_id = service_id.ok_or_else(|| unknown("service", service))?;
        self.predict_ids(user_id, service_id).ok_or_else(|| {
            if self.trainer.lock().model().has_user(user_id) {
                unknown("service", service)
            } else {
                unknown("user", user)
            }
        })
    }

    /// Prediction by dense ids (the hot path for the middleware).
    pub fn predict_ids(&self, user: usize, service: usize) -> Option<f64> {
        let started = Instant::now();
        let out = self.trainer.lock().model().predict(user, service);
        self.predict_ns.record_duration(started.elapsed());
        self.predictions.inc();
        out
    }

    /// Infallible prediction: never errors, never returns NaN. Serves the
    /// model's estimate when both entities are known and *warm* (EMA error
    /// below `1.0`, the level fresh entities start at); otherwise walks the
    /// fallback ladder — user mean, service mean, global mean, configured
    /// default — and tags the result with its [`PredictionSource`]. This is
    /// the adaptation loop's view of the service during recovery: degraded
    /// answers beat no answers.
    pub fn predict_degraded(&self, user: &str, service: &str) -> Prediction {
        let user_id = self.users.lock().resolve(user);
        let service_id = self.services.lock().resolve(service);
        self.predict_degraded_ids(user_id, service_id)
    }

    /// [`QosPredictionService::predict_degraded`] by (optional) dense ids.
    pub fn predict_degraded_ids(&self, user: Option<usize>, service: Option<usize>) -> Prediction {
        let started = Instant::now();
        let prediction = self.degraded_lookup(user, service);
        self.predict_ns.record_duration(started.elapsed());
        self.predictions.inc();
        self.source_total[prediction.source.index()].inc();
        prediction
    }

    /// The fallback-ladder walk itself (counter-free).
    fn degraded_lookup(&self, user: Option<usize>, service: Option<usize>) -> Prediction {
        if let (Some(u), Some(s)) = (user, service) {
            let trainer = self.trainer.lock();
            let model = trainer.model();
            let warm = |error: Option<f64>| error.is_some_and(|e| e < COLD_ERROR_THRESHOLD);
            if warm(model.user_error(u)) && warm(model.service_error(s)) {
                if let Some(value) = model.predict(u, s) {
                    if value.is_finite() {
                        return Prediction {
                            value,
                            source: PredictionSource::Model,
                        };
                    }
                }
            }
        }
        if let Some(value) = user.and_then(|u| self.database.user_mean(u)) {
            if value.is_finite() {
                return Prediction {
                    value,
                    source: PredictionSource::UserMean,
                };
            }
        }
        if let Some(value) = service.and_then(|s| self.database.service_mean(s)) {
            if value.is_finite() {
                return Prediction {
                    value,
                    source: PredictionSource::ServiceMean,
                };
            }
        }
        if let Some(value) = self.database.global_mean() {
            if value.is_finite() {
                return Prediction {
                    value,
                    source: PredictionSource::GlobalMean,
                };
            }
        }
        Prediction {
            value: 0.5 * (self.config.amf.r_min + self.config.amf.r_max),
            source: PredictionSource::Default,
        }
    }

    /// Ranks every registered service for `user` by predicted QoS and
    /// returns the best `k` as `(service name, predicted value)` pairs,
    /// ascending (for response time, lower is better).
    ///
    /// This is the runtime-adaptation query from the paper: when a component
    /// fails, pick the replacement with the best *predicted* QoS for this
    /// specific user. It runs on the model's batch ranking kernel — one
    /// streaming pass over the contiguous service slab with a bounded top-k
    /// heap — rather than `k` separate `predict` calls, so it stays cheap
    /// even against thousands of candidates.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::UnknownEntity`] when the user was never
    /// registered.
    pub fn rank_candidates(
        &self,
        user: &str,
        k: usize,
    ) -> Result<Vec<(String, f64)>, ServiceError> {
        let user_id =
            self.users
                .lock()
                .resolve(user)
                .ok_or_else(|| ServiceError::UnknownEntity {
                    kind: "user",
                    id: user.to_string(),
                })?;
        let ranked = self.rank_candidates_ids(user_id, k);
        let services = self.services.lock();
        Ok(ranked
            .into_iter()
            .map(|(id, value)| {
                let name = services
                    .name(id)
                    .map_or_else(|| format!("service-{id}"), str::to_string);
                (name, value)
            })
            .collect())
    }

    /// [`QosPredictionService::rank_candidates`] by dense user id, returning
    /// dense service ids (the hot path for the middleware's adaptation loop).
    pub fn rank_candidates_ids(&self, user: usize, k: usize) -> Vec<(usize, f64)> {
        self.trainer.lock().model().rank_candidates(user, k)
    }

    /// Registers a user id without an observation (explicit join).
    pub fn join_user(&self, name: &str) -> usize {
        let id = self.users.lock().join(name);
        self.trainer.lock().model_mut().ensure_user(id);
        id
    }

    /// Registers a service id without an observation (service discovery).
    pub fn join_service(&self, name: &str) -> usize {
        let id = self.services.lock().join(name);
        self.trainer.lock().model_mut().ensure_service(id);
        id
    }

    /// Marks a user inactive.
    pub fn leave_user(&self, name: &str) -> Option<usize> {
        self.users.lock().leave(name)
    }

    /// Marks a service inactive (e.g. discontinued by its provider).
    pub fn leave_service(&self, name: &str) -> Option<usize> {
        self.services.lock().leave(name)
    }

    /// The input guard's admission counters (`None` when screening is
    /// disabled).
    pub fn guard_stats(&self) -> Option<GuardStats> {
        self.guard.as_ref().map(|g| g.lock().stats())
    }

    /// A quarantine health report: per-service reject rates, histogram, and
    /// worst offenders (`None` when screening is disabled).
    pub fn quarantine_diagnostics(&self) -> Option<QuarantineDiagnostics> {
        self.guard
            .as_ref()
            .map(|g| QuarantineDiagnostics::of(&g.lock()))
    }

    /// Operational counters snapshot; every count is cumulative.
    pub fn stats(&self) -> ServiceStats {
        let updates = self.trainer.lock().model().update_count();
        ServiceStats {
            users: self.users.lock().len(),
            services: self.services.lock().len(),
            updates,
            accepted: self.accepted.get(),
            rejected: self
                .guard
                .as_ref()
                .map(|g| g.lock().stats().rejected())
                .unwrap_or(0),
            sources_total: SourceCounts::from_counters(&self.source_total),
        }
    }

    /// A versioned (`amf-obs/v1`) JSON snapshot of every metric this process
    /// holds: this instance's registry (`service.*` counters, prediction
    /// latency, fallback-ladder tallies) merged with the process-global
    /// registry's amf-core instrumentation (`engine.*`, `guard.*`,
    /// `model.*`) plus the global trace ring. Reading a snapshot never
    /// resets anything.
    pub fn stats_snapshot(&self) -> Json {
        // Service-level state that lives outside the registry is mirrored
        // into it at snapshot time, so the JSON is self-contained. The
        // model's windowed-accuracy gauges refresh on a sampled cadence in
        // the hot path; republishing here means a scrape always reads
        // current values.
        self.trainer.lock().model_mut().publish_accuracy_gauges();
        self.metrics
            .counter("service.users")
            .set(self.users.lock().len() as u64);
        self.metrics
            .counter("service.services")
            .set(self.services.lock().len() as u64);
        self.metrics
            .counter("service.updates")
            .set(self.trainer.lock().model().update_count());
        self.metrics
            .counter("service.rejected")
            .set(self.stats_rejected());
        let mut snapshot = qos_obs::global().snapshot_json(true);
        let own = self.metrics.snapshot_json(false);
        for section in ["counters", "gauges", "histograms"] {
            let (Some(Json::Obj(own_map)), Some(Json::Obj(dest))) = (
                match &own {
                    Json::Obj(map) => map.get(section).cloned(),
                    _ => None,
                },
                match &mut snapshot {
                    Json::Obj(map) => map.get_mut(section),
                    _ => None,
                },
            ) else {
                continue;
            };
            dest.extend(own_map);
        }
        snapshot
    }

    fn stats_rejected(&self) -> u64 {
        self.guard
            .as_ref()
            .map(|g| g.lock().stats().rejected())
            .unwrap_or(0)
    }
}

impl std::fmt::Debug for QosPredictionService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("QosPredictionService")
            .field("users", &stats.users)
            .field("services", &stats.services)
            .field("updates", &stats.updates)
            .field("rejected", &stats.rejected)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(user: &str, service: &str, t: u64, v: f64) -> QosRecord {
        QosRecord {
            user: user.into(),
            service: service.into(),
            timestamp: t,
            value: v,
        }
    }

    #[test]
    fn submit_registers_and_updates() {
        let svc = QosPredictionService::new(ServiceConfig::default());
        let (u, s) = svc.submit(record("alice", "ws-1", 0, 1.2));
        assert_eq!((u, s), (0, 0));
        let (u2, s2) = svc.submit(record("bob", "ws-1", 1, 0.8));
        assert_eq!((u2, s2), (1, 0));
        let stats = svc.stats();
        assert_eq!(stats.users, 2);
        assert_eq!(stats.services, 1);
        assert_eq!(stats.updates, 2);
        assert_eq!(stats.accepted, 2);
        assert_eq!(stats.rejected, 0);
        assert_eq!(svc.database().observation_count(), 2);
    }

    #[test]
    fn predict_by_name_and_id() {
        let svc = QosPredictionService::new(ServiceConfig::default());
        for k in 0..50 {
            svc.submit(record("alice", "ws-1", k, 1.5));
        }
        let by_name = svc.predict("alice", "ws-1").unwrap();
        let by_id = svc.predict_ids(0, 0).unwrap();
        assert_eq!(by_name, by_id);
        assert!(by_name > 0.0);
    }

    #[test]
    fn predict_unknown_entities() {
        let svc = QosPredictionService::new(ServiceConfig::default());
        svc.submit(record("alice", "ws-1", 0, 1.0));
        assert!(matches!(
            svc.predict("ghost", "ws-1"),
            Err(ServiceError::UnknownEntity { kind: "user", .. })
        ));
        assert!(matches!(
            svc.predict("alice", "ghost"),
            Err(ServiceError::UnknownEntity {
                kind: "service",
                ..
            })
        ));
    }

    #[test]
    fn predict_blames_the_side_without_a_model_row() {
        let svc = QosPredictionService::new(ServiceConfig::default());
        svc.submit(record("alice", "ws-1", 0, 1.0));
        // Both get ids, but every record naming them is quarantined.
        svc.submit(record("ghost", "ws-1", 1, f64::NAN));
        svc.submit(record("alice", "ws-ghost", 2, f64::NAN));
        let blamed = |user, service| match svc.predict(user, service) {
            Err(ServiceError::UnknownEntity { kind, id }) => (kind, id),
            other => panic!("{user}/{service}: {other:?}"),
        };
        assert_eq!(blamed("ghost", "ws-1"), ("user", "ghost".to_string()));
        assert_eq!(
            blamed("alice", "ws-ghost"),
            ("service", "ws-ghost".to_string())
        );
        assert!(svc.predict("alice", "ws-1").is_ok());
    }

    #[test]
    fn rank_candidates_orders_by_prediction() {
        let svc = QosPredictionService::new(ServiceConfig::default());
        // Train three services to clearly separated response-time levels.
        for k in 0..400u64 {
            svc.submit(record("alice", "ws-fast", k, 0.3));
            svc.submit(record("alice", "ws-mid", k, 2.0));
            svc.submit(record("alice", "ws-slow", k, 9.0));
        }
        let ranked = svc.rank_candidates("alice", 2).unwrap();
        assert_eq!(ranked.len(), 2);
        assert_eq!(ranked[0].0, "ws-fast");
        assert_eq!(ranked[1].0, "ws-mid");
        assert!(ranked[0].1 < ranked[1].1);
        // Names round-trip through the registry and values match predict.
        let direct = svc.predict("alice", "ws-fast").unwrap();
        assert!((ranked[0].1 - direct).abs() < 1e-12);
        // Ids variant agrees.
        let by_id = svc.rank_candidates_ids(0, 2);
        assert_eq!(by_id.len(), 2);
        assert_eq!(ranked[0].1.to_bits(), by_id[0].1.to_bits());
        // Unknown user errors.
        assert!(matches!(
            svc.rank_candidates("ghost", 2),
            Err(ServiceError::UnknownEntity { kind: "user", .. })
        ));
    }

    #[test]
    fn channel_ingestion() {
        let svc = QosPredictionService::new(ServiceConfig::default());
        assert!(svc.offer(record("u1", "s1", 0, 1.0)));
        assert!(svc.offer(record("u2", "s1", 1, 2.0)));
        assert_eq!(svc.drain_inputs(), 2);
        assert_eq!(svc.stats().updates, 2);
        assert_eq!(svc.drain_inputs(), 0);
    }

    #[test]
    fn channel_works_across_threads() {
        let svc = Arc::new(QosPredictionService::new(ServiceConfig::default()));
        let producer_svc = Arc::clone(&svc);
        let producer = std::thread::spawn(move || {
            for k in 0..20 {
                assert!(producer_svc.offer(record(&format!("u{}", k % 3), "s", k, 1.0)));
            }
        });
        producer.join().unwrap();
        assert_eq!(svc.drain_inputs(), 20);
    }

    #[test]
    fn sharded_batch_ingestion_matches_sequential() {
        // A dirty stream: NaN, negative and out-of-range records among the
        // valid ones. Users u6.. are first named in a rejected record and
        // admitted later; services s8.. are only ever named in rejected ones.
        let records: Vec<QosRecord> = (0..160u64)
            .map(|k| {
                let user = match k % 10 {
                    3 | 9 => format!("u{}", 6 + k / 20),
                    _ => format!("u{}", k % 6),
                };
                let service = match k % 10 {
                    5 => format!("s{}", 8 + k / 50),
                    _ => format!("s{}", k % 8),
                };
                let value = match k % 10 {
                    3 => f64::NAN,
                    5 => -1.5,
                    7 => 1.0e9,
                    _ => 0.4 + (k % 5) as f64 * 0.7,
                };
                record(&user, &service, k, value)
            })
            .collect();
        let seq = QosPredictionService::new(ServiceConfig::default());
        let ids: Vec<(usize, usize)> = records.iter().map(|r| seq.submit(r.clone())).collect();
        let batched = QosPredictionService::new(ServiceConfig::default());
        assert_eq!(batched.submit_batch(records.clone()), 112);
        for (r, &(user, service)) in records.iter().zip(&ids) {
            assert_eq!(batched.users.lock().resolve(&r.user), Some(user));
            assert_eq!(batched.services.lock().resolve(&r.service), Some(service));
        }
        let stats = seq.stats();
        assert_eq!((stats.users, stats.services, stats.rejected), (14, 12, 48));
        assert_eq!(stats, batched.stats());
        assert_eq!(seq.guard_stats(), batched.guard_stats());
        for u in 0..stats.users {
            for s in 0..stats.services {
                assert_eq!(
                    seq.database().history(u, s),
                    batched.database().history(u, s)
                );
                assert_eq!(
                    seq.predict_ids(u, s).map(f64::to_bits),
                    batched.predict_ids(u, s).map(f64::to_bits)
                );
            }
        }
    }

    #[test]
    fn unissued_ids_are_refused() {
        let svc = QosPredictionService::new(ServiceConfig::default());
        svc.submit(record("alice", "ws-1", 0, 1.0));
        let rows = |svc: &QosPredictionService| {
            let trainer = svc.trainer.lock();
            (trainer.model().num_users(), trainer.model().num_services())
        };
        let (stats, pairs, model_rows) = (svc.stats(), svc.database().pair_count(), rows(&svc));
        let unissued = [
            (1, 0, 1, 1.0),
            (0, 1, 2, 1.0),
            (usize::MAX, usize::MAX, 3, 1.0),
        ];
        assert_eq!(svc.submit_batch_ids(&unissued), 0);
        assert_eq!(svc.stats(), stats);
        assert_eq!(svc.database().pair_count(), pairs);
        assert_eq!(rows(&svc), model_rows);
        assert_eq!(
            svc.guard_stats().unwrap().seen(),
            1,
            "refused, not screened"
        );
        // Issued ids in the same batch still go through.
        assert_eq!(svc.submit_batch_ids(&[(0, 0, 4, 1.1), (1, 0, 5, 1.0)]), 1);
        assert_eq!(svc.stats().accepted, 2);
        assert_eq!(rows(&svc), model_rows);
    }

    #[test]
    fn sharded_channel_drain() {
        let svc = QosPredictionService::new(ServiceConfig::default());
        for k in 0..40u64 {
            assert!(svc.offer(record(&format!("u{}", k % 4), "s", k, 1.0)));
        }
        assert_eq!(svc.drain_inputs(), 40);
        assert_eq!(svc.stats().updates, 40);
        assert_eq!(svc.database().observation_count(), 40);
    }

    #[test]
    fn idle_replays_and_improves() {
        let svc = QosPredictionService::new(ServiceConfig {
            replay: amf_core::trainer::ReplayOptions {
                max_iterations: 20_000,
                min_iterations: 2_000,
                window: 200,
                tolerance: 1e-3,
                patience: 3,
            },
            ..Default::default()
        });
        for (u, s, v) in [
            ("a", "x", 1.0),
            ("a", "y", 2.0),
            ("b", "x", 2.0),
            ("b", "y", 4.0),
        ] {
            svc.submit(record(u, s, 0, v));
        }
        let report = svc.idle();
        assert!(report.iterations > 0);
        let p = svc.predict("a", "x").unwrap();
        assert!((p - 1.0).abs() < 1.0, "prediction {p}");
    }

    #[test]
    fn join_and_leave() {
        let svc = QosPredictionService::new(ServiceConfig::default());
        let u = svc.join_user("newcomer");
        assert_eq!(u, 0);
        let s = svc.join_service("new-service");
        assert_eq!(s, 0);
        // Joined entities are predictable immediately (random factors).
        assert!(svc.predict("newcomer", "new-service").is_ok());
        assert_eq!(svc.leave_user("newcomer"), Some(0));
        assert_eq!(svc.leave_service("ghost"), None);
    }

    #[test]
    fn debug_format_mentions_counts() {
        let svc = QosPredictionService::new(ServiceConfig::default());
        svc.submit(record("a", "b", 0, 1.0));
        let text = format!("{svc:?}");
        assert!(text.contains("users"));
        assert!(text.contains("rejected"));
    }

    #[test]
    fn garbage_is_quarantined_not_trained() {
        let svc = QosPredictionService::new(ServiceConfig::default());
        svc.submit(record("a", "s", 0, 1.0));
        svc.submit(record("a", "s", 1, f64::NAN));
        svc.submit(record("a", "s", 2, -3.0));
        svc.submit(record("a", "s", 3, f64::INFINITY));
        svc.submit(record("a", "s", 4, 1.2));
        let stats = svc.stats();
        assert_eq!(stats.accepted, 2);
        assert_eq!(stats.rejected, 3);
        assert_eq!(stats.updates, 2, "rejects must not train");
        assert_eq!(
            svc.database().observation_count(),
            2,
            "rejects stay out of the db"
        );
        let g = svc.guard_stats().unwrap();
        assert_eq!(g.not_finite, 2);
        assert_eq!(g.non_positive, 1);
        assert_eq!(g.seen(), 5);
        let diag = svc.quarantine_diagnostics().unwrap();
        assert_eq!(diag.services_with_rejects, 1);
    }

    #[test]
    fn batch_return_counts_only_admitted() {
        let svc = QosPredictionService::new(ServiceConfig::default());
        let batch = vec![
            record("u1", "s1", 0, 1.0),
            record("u2", "s1", 1, f64::NAN),
            record("u1", "s2", 2, 2.0),
            record("u2", "s2", 3, -1.0),
        ];
        assert_eq!(svc.submit_batch(batch), 2);
        let stats = svc.stats();
        assert_eq!(stats.accepted, 2);
        assert_eq!(stats.rejected, 2);
        assert_eq!(stats.updates, 2);
        // Identity registration is independent of data quality.
        assert_eq!(stats.users, 2);
        assert_eq!(stats.services, 2);
    }

    #[test]
    fn guard_disabled_accepts_everything() {
        let svc = QosPredictionService::new(ServiceConfig {
            guard: None,
            ..Default::default()
        });
        // Non-finite values would poison the transform; the point here is
        // only that the *gate* is off, so use an odd-but-finite value.
        svc.submit(record("a", "s", 0, 1e9));
        assert_eq!(svc.stats().accepted, 1);
        assert_eq!(svc.stats().rejected, 0);
        assert!(svc.guard_stats().is_none());
    }

    #[test]
    fn predict_degraded_walks_the_fallback_ladder() {
        let svc = QosPredictionService::new(ServiceConfig::default());
        // Rung 5: nothing known at all — finite default.
        let p = svc.predict_degraded("ghost-user", "ghost-service");
        assert_eq!(p.source, PredictionSource::Default);
        assert!(p.value.is_finite());

        // One observation: known user, unknown service -> user mean.
        svc.submit(record("alice", "ws-1", 0, 2.0));
        let p = svc.predict_degraded("alice", "ghost-service");
        assert_eq!(p.source, PredictionSource::UserMean);
        assert_eq!(p.value, 2.0);

        // Unknown user, known service -> service mean.
        let p = svc.predict_degraded("ghost-user", "ws-1");
        assert_eq!(p.source, PredictionSource::ServiceMean);
        assert_eq!(p.value, 2.0);

        // Both known: whatever the rung (warmth depends on the first
        // sample's error), the value is finite.
        let p = svc.predict_degraded("alice", "ws-1");
        assert!(p.value.is_finite());

        // Joined-but-never-observed entities start with EMA error 1.0 —
        // cold by definition, so the model is skipped in favour of data.
        svc.join_user("cold-user");
        svc.join_service("cold-service");
        let p = svc.predict_degraded("cold-user", "cold-service");
        assert_eq!(p.source, PredictionSource::GlobalMean);
        assert_eq!(p.value, 2.0);

        // Warm the pair up; the model takes over.
        for k in 1..200 {
            svc.submit(record("alice", "ws-1", k, 2.0));
        }
        let p = svc.predict_degraded("alice", "ws-1");
        assert_eq!(p.source, PredictionSource::Model);
        assert!(p.value.is_finite());
        assert!((p.value - 2.0).abs() < 1.0, "warm prediction {}", p.value);
    }

    #[test]
    fn predict_degraded_never_nan_under_garbage_stream() {
        let svc = QosPredictionService::new(ServiceConfig::default());
        for k in 0..100u64 {
            let v = match k % 4 {
                0 => 1.0 + (k % 7) as f64 * 0.3,
                1 => f64::NAN,
                2 => -5.0,
                _ => 2.0,
            };
            svc.submit(record(&format!("u{}", k % 5), &format!("s{}", k % 3), k, v));
        }
        for u in 0..5 {
            for s in 0..3 {
                let p = svc.predict_degraded(&format!("u{u}"), &format!("s{s}"));
                assert!(p.value.is_finite(), "u{u}/s{s} -> {:?}", p);
            }
        }
    }

    #[test]
    fn fallback_source_counters_are_cumulative() {
        let svc = QosPredictionService::new(ServiceConfig::default());
        // Three ladder walks with no data at all: all land on Default.
        for _ in 0..3 {
            let p = svc.predict_degraded("ghost", "ghost");
            assert_eq!(p.source, PredictionSource::Default);
        }
        let first = svc.stats();
        assert_eq!(first.sources_total.default, 3);
        assert_eq!(first.sources_total.total(), 3);

        // A second snapshot with no predictions in between: unchanged.
        let second = svc.stats();
        assert_eq!(second.sources_total.default, 3, "total view is cumulative");

        svc.submit(record("alice", "ws-1", 0, 2.0));
        let p = svc.predict_degraded("alice", "ghost");
        assert_eq!(p.source, PredictionSource::UserMean);
        let third = svc.stats();
        assert_eq!(third.sources_total.default, 3);
        assert_eq!(third.sources_total.user_mean, 1);
    }

    #[test]
    fn stats_snapshot_emits_schema_valid_self_contained_json() {
        let svc = QosPredictionService::new(ServiceConfig::default());
        for k in 0..50u64 {
            svc.submit(record(
                &format!("u{}", k % 4),
                &format!("s{}", k % 3),
                k,
                1.0,
            ));
        }
        svc.submit(record("u0", "s0", 50, f64::NAN));
        let _ = svc.predict_ids(0, 0);
        let _ = svc.predict_degraded("u1", "s2");

        let snapshot = svc.stats_snapshot();
        // The document round-trips through the strict parser in both forms.
        let compact = Json::parse(&snapshot.to_string_compact()).expect("compact parses");
        assert_eq!(compact, snapshot);
        assert_eq!(
            snapshot.get("schema").and_then(Json::as_str),
            Some(qos_obs::SCHEMA)
        );
        let counters = snapshot.get("counters").expect("counters section");
        let counter = |name: &str| counters.get(name).and_then(Json::as_u64).unwrap_or(0);
        assert_eq!(counter("service.accepted"), 50);
        assert_eq!(counter("service.rejected"), 1);
        assert_eq!(counter("service.updates"), 50);
        assert!(counter("service.predictions") >= 2);
        assert_eq!(
            counter("service.predict_source.model")
                + counter("service.predict_source.user-mean")
                + counter("service.predict_source.service-mean")
                + counter("service.predict_source.global-mean")
                + counter("service.predict_source.default"),
            1
        );
        // Global amf-core instrumentation rides along (sampled observe fires
        // on the very first update).
        assert!(counter("guard.admitted") >= 50);
        assert!(counter("model.observes_sampled") >= 1);
        let histograms = snapshot.get("histograms").expect("histograms section");
        let predict = histograms.get("service.predict_ns").expect("predict hist");
        assert!(predict.get("count").and_then(Json::as_u64).unwrap_or(0) >= 2);
        assert!(predict.get("p95_ns").and_then(Json::as_u64).is_some());
        // Snapshots are read-only: a second one reports the same counts.
        let again = svc.stats_snapshot();
        assert_eq!(
            again
                .get("counters")
                .and_then(|c| c.get("service.accepted"))
                .and_then(Json::as_u64),
            Some(50)
        );
    }
}
