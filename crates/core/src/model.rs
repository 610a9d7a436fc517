//! The AMF model state: feature vectors, error trackers, and the data
//! transform.

use crate::config::AmfConfig;
use crate::online::{sgd_step, UpdateOutcome};
use crate::stream::{AccuracyWindow, DriftSentinel, WindowedAccuracy};
use crate::weights::ErrorTracker;
use crate::AmfError;
use qos_linalg::random::normal_vec;
use qos_transform::QosTransform;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One user's or service's state: its latent feature vector and its EMA
/// error tracker.
///
/// This is the *interchange* representation (persistence load, entity
/// initialization). Live storage is the contiguous [`FactorSlab`]; an
/// `EntityState` is only materialized at the edges.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct EntityState {
    pub(crate) factors: Vec<f64>,
    pub(crate) tracker: ErrorTracker,
}

/// Contiguous arena for one side's entity state: entity `i`'s feature vector
/// occupies `factors[i*dim..(i+1)*dim]` and its EMA tracker `trackers[i]`.
///
/// Replaces the former `Vec<EntityState>` (one heap `Vec<f64>` per entity):
/// the per-sample hot path loses a dependent pointer chase per entity, and
/// the batch ranking kernel can stream one user vector against the whole
/// service side as a single flat slice. `dim` is fixed at construction —
/// the model's dimension never changes after [`AmfModel::new`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct FactorSlab {
    dim: usize,
    factors: Vec<f64>,
    trackers: Vec<ErrorTracker>,
}

impl FactorSlab {
    pub(crate) fn new(dim: usize) -> Self {
        Self {
            dim,
            factors: Vec::new(),
            trackers: Vec::new(),
        }
    }

    pub(crate) fn with_capacity(dim: usize, entities: usize) -> Self {
        Self {
            dim,
            factors: Vec::with_capacity(dim * entities),
            trackers: Vec::with_capacity(entities),
        }
    }

    /// Number of entities (not floats) stored.
    pub(crate) fn len(&self) -> usize {
        self.trackers.len()
    }

    /// The whole arena as one flat slice — the ranking kernel's input.
    pub(crate) fn flat(&self) -> &[f64] {
        &self.factors
    }

    pub(crate) fn factors(&self, i: usize) -> &[f64] {
        &self.factors[i * self.dim..(i + 1) * self.dim]
    }

    /// `factors(i)` for a possibly-unregistered id.
    pub(crate) fn try_factors(&self, i: usize) -> Option<&[f64]> {
        if i < self.len() {
            Some(self.factors(i))
        } else {
            None
        }
    }

    pub(crate) fn tracker(&self, i: usize) -> &ErrorTracker {
        &self.trackers[i]
    }

    /// Simultaneous mutable access to one entity's factors and tracker
    /// (distinct backing vectors, so the split borrow is free).
    pub(crate) fn entity_mut(&mut self, i: usize) -> (&mut [f64], &mut ErrorTracker) {
        (
            &mut self.factors[i * self.dim..(i + 1) * self.dim],
            &mut self.trackers[i],
        )
    }

    /// Appends an entity by copying a `dim`-length factor slice.
    pub(crate) fn push_copied(&mut self, factors: &[f64], tracker: ErrorTracker) {
        debug_assert_eq!(factors.len(), self.dim);
        self.factors.extend_from_slice(factors);
        self.trackers.push(tracker);
    }

    pub(crate) fn push_state(&mut self, state: EntityState) {
        self.push_copied(&state.factors, state.tracker);
    }

    /// Appends the deterministic fresh state for `(kind, id)`.
    pub(crate) fn push_fresh(&mut self, config: &AmfConfig, kind: EntityKind, id: usize) {
        self.push_state(EntityState::fresh(config, kind, id));
    }

    pub(crate) fn from_states(dim: usize, states: Vec<EntityState>) -> Self {
        let mut slab = Self::with_capacity(dim, states.len());
        for state in states {
            slab.push_state(state);
        }
        slab
    }
}

/// Which side of the factorization an entity belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EntityKind {
    /// A user (row of the QoS matrix).
    User,
    /// A service (column of the QoS matrix).
    Service,
}

/// Seed for one entity's feature-vector initialization.
///
/// Derived from the model seed and the entity's `(kind, id)` alone — *not*
/// from registration order — so that any two components that materialize the
/// same entity (a model fed in stream order, one that registered the id
/// eagerly, a restored checkpoint registering fresh ids) produce
/// bit-identical factors.
pub(crate) fn entity_seed(model_seed: u64, kind: EntityKind, id: usize) -> u64 {
    let tag: u64 = match kind {
        EntityKind::User => 0x75,    // 'u'
        EntityKind::Service => 0x73, // 's'
    };
    // SplitMix64-style finalizer over the packed inputs.
    let mut z = model_seed
        .wrapping_add(tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add((id as u64).wrapping_mul(0xD134_2543_DE82_EF95));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl EntityState {
    /// Deterministic fresh state for `(kind, id)` under `config`.
    pub(crate) fn fresh(config: &AmfConfig, kind: EntityKind, id: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(entity_seed(config.seed, kind, id));
        Self {
            factors: normal_vec(&mut rng, config.dimension, 0.0, config.init_sigma),
            tracker: ErrorTracker::new(),
        }
    }
}

/// The online AMF model (paper Section IV-C).
///
/// Users and services are identified by dense indices and registered lazily:
/// the first observation mentioning an id initializes its feature vector
/// randomly and its error tracker at the maximum (Algorithm 1 lines 5–7) —
/// this is how the model "scales to new users and services without
/// retraining the whole model".
///
/// # Examples
///
/// ```
/// use amf_core::{AmfConfig, AmfModel};
///
/// let mut model = AmfModel::new(AmfConfig::response_time())?;
/// model.observe(0, 0, 1.4);
/// model.observe(1, 0, 1.6);
/// assert_eq!(model.num_users(), 2);
/// assert_eq!(model.num_services(), 1);
/// assert!(model.predict(0, 0).is_some());
/// assert!(model.predict(5, 0).is_none()); // unknown user
/// # Ok::<(), amf_core::AmfError>(())
/// ```
#[derive(Debug, Clone)]
pub struct AmfModel {
    config: AmfConfig,
    transform: QosTransform,
    users: FactorSlab,
    services: FactorSlab,
    updates: u64,
    /// Sliding window over recent per-sample errors (windowed MRE/NMAE).
    accuracy: AccuracyWindow,
    /// Page–Hinkley drift detector over the EMA error trackers.
    sentinel: DriftSentinel,
}

impl AmfModel {
    /// Creates an empty model.
    ///
    /// # Errors
    ///
    /// Returns [`AmfError::InvalidConfig`] for invalid hyperparameters or
    /// [`AmfError::Transform`] when the transform cannot be built.
    pub fn new(config: AmfConfig) -> Result<Self, AmfError> {
        config.validate()?;
        let transform = QosTransform::new(config.alpha, config.r_min, config.r_max)?;
        Ok(Self {
            transform,
            users: FactorSlab::new(config.dimension),
            services: FactorSlab::new(config.dimension),
            updates: 0,
            accuracy: AccuracyWindow::default(),
            sentinel: DriftSentinel::default(),
            config,
        })
    }

    /// The model's hyperparameters.
    pub fn config(&self) -> &AmfConfig {
        &self.config
    }

    /// The data transform (forward/backward maps between raw QoS and the
    /// normalized training domain).
    pub fn transform(&self) -> &QosTransform {
        &self.transform
    }

    /// Number of registered users.
    pub fn num_users(&self) -> usize {
        self.users.len()
    }

    /// Number of registered services.
    pub fn num_services(&self) -> usize {
        self.services.len()
    }

    /// Total number of online updates applied.
    pub fn update_count(&self) -> u64 {
        self.updates
    }

    /// Registers users up to and including `user` (no-op when present).
    pub fn ensure_user(&mut self, user: usize) {
        while self.users.len() <= user {
            self.users
                .push_fresh(&self.config, EntityKind::User, self.users.len());
        }
    }

    /// Registers services up to and including `service` (no-op when present).
    pub fn ensure_service(&mut self, service: usize) {
        while self.services.len() <= service {
            self.services
                .push_fresh(&self.config, EntityKind::Service, self.services.len());
        }
    }

    /// Registers a brand-new user and returns its id.
    pub fn add_user(&mut self) -> usize {
        let id = self.users.len();
        self.ensure_user(id);
        id
    }

    /// Registers a brand-new service and returns its id.
    pub fn add_service(&mut self) -> usize {
        let id = self.services.len();
        self.ensure_service(id);
        id
    }

    /// Whether `user` is registered.
    pub fn has_user(&self, user: usize) -> bool {
        user < self.users.len()
    }

    /// Whether `service` is registered.
    pub fn has_service(&self, service: usize) -> bool {
        service < self.services.len()
    }

    /// Applies one online update for the observed raw QoS value `raw` between
    /// `user` and `service` (the `OnlineUpdate` function of Algorithm 1).
    /// Unknown ids are registered first.
    pub fn observe(&mut self, user: usize, service: usize, raw: f64) -> UpdateOutcome {
        // Sampled instrumentation: timing every call would cost two clock
        // reads per ~70 ns update, so only one in 256 observes is measured
        // (and the error-tracker gauges refreshed). The sampled branch's
        // metric handles live behind a OnceLock whose one-time registration
        // fires on the very first observe — inside the warm-up window of the
        // zero-alloc hot-path test.
        let timed = self.updates & crate::obs::OBSERVE_SAMPLE_MASK == 0;
        let started = timed.then(std::time::Instant::now);
        self.ensure_user(user);
        self.ensure_service(service);
        let (user_factors, user_tracker) = self.users.entity_mut(user);
        let (service_factors, service_tracker) = self.services.entity_mut(service);
        let outcome = apply_observation(
            &self.config,
            &self.transform,
            user_factors,
            user_tracker,
            service_factors,
            service_tracker,
            raw,
        );
        self.updates += 1;
        // Streaming telemetry: three ring stores plus a strided sentinel
        // tick, all into pre-allocated state — the zero-alloc observe
        // guarantee (tests/alloc_free_hot_path.rs) covers this code.
        self.accuracy
            .push(outcome.r, outcome.g, outcome.sample_error);
        let verdict = self.sentinel.observe(
            self.users.tracker(user).error(),
            self.services.tracker(service).error(),
        );
        if verdict.any() {
            let metrics = crate::obs::model_metrics();
            if verdict.user_alarm {
                metrics.drift_alarms_user.inc();
            }
            if verdict.service_alarm {
                metrics.drift_alarms_service.inc();
            }
            metrics.drift_healthy.set(0.0);
            qos_obs::global().trace().event("drift_alarm", "");
        }
        if self.updates & crate::obs::ACCURACY_GAUGE_MASK == 0 {
            self.publish_accuracy_gauges();
        }
        if let Some(started) = started {
            let metrics = crate::obs::model_metrics();
            metrics.observe_ns.record_duration(started.elapsed());
            metrics.observes_sampled.inc();
            metrics.e_u.set(self.users.tracker(user).error());
            metrics.e_s.set(self.services.tracker(service).error());
        }
        outcome
    }

    /// Predicts the raw QoS value for `(user, service)`, or `None` when
    /// either id has never been observed (the model has no feature vector
    /// for it).
    pub fn predict(&self, user: usize, service: usize) -> Option<f64> {
        let u = self.users.try_factors(user)?;
        let s = self.services.try_factors(service)?;
        let x = qos_linalg::vector::dot(u, s);
        Some(self.transform.prediction_to_raw(x))
    }

    /// Batch prediction: the raw QoS values for one user against a list of
    /// services, or `None` when the user or any listed service is
    /// unregistered.
    ///
    /// Read-only fast path: uses the unrolled slab dot, which reassociates
    /// additions relative to [`AmfModel::predict`]'s sequential dot — results
    /// can differ in the last ulps (never feeds training state).
    pub fn predict_row(&self, user: usize, services: &[usize]) -> Option<Vec<f64>> {
        let query = self.users.try_factors(user)?;
        let mut out = Vec::with_capacity(services.len());
        for &service in services {
            let row = self.services.try_factors(service)?;
            let x = qos_linalg::slab::dot_unrolled4(query, row);
            out.push(self.transform.prediction_to_raw(x));
        }
        Some(out)
    }

    /// The adaptation framework's candidate-selection query: the `k`
    /// best-QoS services for `user`, as `(service id, predicted raw value)`
    /// ascending — for lower-is-better metrics like response time the first
    /// entry is the best candidate.
    ///
    /// Streams the user's vector against the contiguous service slab
    /// (unrolled dot, one flat pass) and selects top-k with a bounded heap
    /// on the *raw scores*: the transform chain `sigmoid` → inverse Box–Cox
    /// is monotone increasing, so score order is prediction order, and the
    /// expensive inverse transform (`powf`) runs only on the `k` winners.
    /// Ties are broken by service id. Returns an empty vector for an
    /// unregistered user or `k == 0`.
    pub fn rank_candidates(&self, user: usize, k: usize) -> Vec<(usize, f64)> {
        let Some(query) = self.users.try_factors(user) else {
            return Vec::new();
        };
        if k == 0 || self.services.len() == 0 {
            return Vec::new();
        }
        let mut scores = Vec::new();
        qos_linalg::slab::scores_into(
            query,
            self.services.flat(),
            self.config.dimension,
            &mut scores,
        );
        qos_linalg::slab::top_k_ascending(&scores, k)
            .into_iter()
            .map(|(service, x)| (service, self.transform.prediction_to_raw(x)))
            .collect()
    }

    /// Like [`AmfModel::predict`] but substituting `fallback` for unknown ids.
    pub fn predict_or(&self, user: usize, service: usize, fallback: f64) -> f64 {
        self.predict(user, service).unwrap_or(fallback)
    }

    /// Current relative error the model would incur on `(user, service,
    /// raw)`, *without* updating anything — used for convergence monitoring.
    pub fn evaluate_sample(&self, user: usize, service: usize, raw: f64) -> Option<f64> {
        let u = self.users.try_factors(user)?;
        let s = self.services.try_factors(service)?;
        let r = self.transform.to_normalized(raw);
        let g = qos_transform::sigmoid(qos_linalg::vector::dot(u, s));
        Some(crate::weights::sample_relative_error(r, g))
    }

    /// Point-in-time windowed accuracy: MRE and NMAE over the sliding
    /// window of recent samples (the live analogue of the paper's Fig. 7
    /// accuracy-over-time curves).
    pub fn windowed_accuracy(&self) -> WindowedAccuracy {
        WindowedAccuracy {
            mre: self.accuracy.mre(),
            nmae: self.accuracy.nmae(),
            window_len: self.accuracy.len(),
            samples: self.accuracy.total(),
        }
    }

    /// The model's drift sentinel (alarm counts, health).
    pub fn drift_sentinel(&self) -> &DriftSentinel {
        &self.sentinel
    }

    /// Resets the drift sentinel — detector state and alarm counters — so a
    /// new scenario or regime run starts with a clean drift baseline instead
    /// of inheriting alarms from a previous run. See
    /// [`DriftSentinel::reset`].
    pub fn reset_drift_sentinel(&mut self) {
        self.sentinel.reset();
    }

    /// Refreshes the windowed-accuracy and drift-health gauges on the
    /// global registry from current state. Runs automatically every
    /// `ACCURACY_GAUGE_MASK + 1` updates; serving-layer snapshot paths call
    /// it directly so scrapes never read stale gauges. Allocation-free
    /// (median select over the pre-allocated scratch).
    pub fn publish_accuracy_gauges(&mut self) {
        let metrics = crate::obs::model_metrics();
        if let Some(mre) = self.accuracy.mre_refresh() {
            metrics.mre_w.set(mre);
        }
        if let Some(nmae) = self.accuracy.nmae() {
            metrics.nmae_w.set(nmae);
        }
        metrics
            .drift_healthy
            .set(if self.sentinel.healthy() { 1.0 } else { 0.0 });
    }

    /// EMA error of a user, or `None` when unregistered.
    pub fn user_error(&self, user: usize) -> Option<f64> {
        (user < self.users.len()).then(|| self.users.tracker(user).error())
    }

    /// EMA error of a service, or `None` when unregistered.
    pub fn service_error(&self, service: usize) -> Option<f64> {
        (service < self.services.len()).then(|| self.services.tracker(service).error())
    }

    /// A user's feature vector, or `None` when unregistered.
    pub fn user_factors(&self, user: usize) -> Option<&[f64]> {
        self.users.try_factors(user)
    }

    /// A service's feature vector, or `None` when unregistered.
    pub fn service_factors(&self, service: usize) -> Option<&[f64]> {
        self.services.try_factors(service)
    }

    /// Restores entity state from persisted data (see [`crate::persistence`]).
    pub(crate) fn restore(
        config: AmfConfig,
        users: Vec<EntityState>,
        services: Vec<EntityState>,
        updates: u64,
    ) -> Result<Self, AmfError> {
        let mut model = Self::new(config)?;
        model.users = FactorSlab::from_states(config.dimension, users);
        model.services = FactorSlab::from_states(config.dimension, services);
        model.updates = updates;
        Ok(model)
    }
}

/// Applies one full online update — transform, SGD step (Eq. 16–17), and the
/// two tracker EMA updates (Algorithm 1 lines 21–23) — to a user/service
/// state pair, given as disjoint slab borrows.
///
/// This is the *only* per-sample mutation in the crate: [`AmfModel::observe`]
/// funnels every sample through it.
/// No allocation happens here — the factors are in-place slab slices and the
/// trackers are plain `Copy` cells.
#[allow(clippy::too_many_arguments)]
pub(crate) fn apply_observation(
    config: &AmfConfig,
    transform: &QosTransform,
    user_factors: &mut [f64],
    user_tracker: &mut ErrorTracker,
    service_factors: &mut [f64],
    service_tracker: &mut ErrorTracker,
    raw: f64,
) -> UpdateOutcome {
    let r = transform.to_normalized(raw);
    let e_user = user_tracker.error();
    let e_service = service_tracker.error();
    let outcome = sgd_step(config, user_factors, service_factors, r, e_user, e_service);
    // Algorithm 1 lines 22–23: update the trackers with this sample's error,
    // weighted by each side's adaptive weight.
    user_tracker.update(outcome.sample_error, config.beta, outcome.w_user);
    service_tracker.update(outcome.sample_error, config.beta, outcome.w_service);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> AmfModel {
        AmfModel::new(AmfConfig::response_time()).unwrap()
    }

    #[test]
    fn starts_empty() {
        let m = model();
        assert_eq!(m.num_users(), 0);
        assert_eq!(m.num_services(), 0);
        assert_eq!(m.update_count(), 0);
        assert_eq!(m.predict(0, 0), None);
    }

    #[test]
    fn observe_registers_lazily() {
        let mut m = model();
        m.observe(3, 7, 1.5);
        assert_eq!(m.num_users(), 4);
        assert_eq!(m.num_services(), 8);
        assert!(m.has_user(3));
        assert!(!m.has_user(4));
        assert_eq!(m.update_count(), 1);
    }

    #[test]
    fn new_entities_start_maximally_uncertain() {
        let mut m = model();
        m.ensure_user(0);
        assert_eq!(m.user_error(0), Some(1.0));
        m.ensure_service(2);
        assert_eq!(m.service_error(2), Some(1.0));
        assert_eq!(m.user_error(99), None);
    }

    #[test]
    fn repeated_observation_converges_to_value() {
        let mut m = model();
        for _ in 0..300 {
            m.observe(0, 0, 2.5);
        }
        let pred = m.predict(0, 0).unwrap();
        assert!(
            (pred - 2.5).abs() / 2.5 < 0.1,
            "predicted {pred}, expected ~2.5"
        );
        // Error tracker should have dropped far below its initial 1.0.
        assert!(m.user_error(0).unwrap() < 0.1);
    }

    #[test]
    fn learns_low_rank_structure_across_pairs() {
        // Ground truth: rank-1 in the transformed domain. After training on
        // most pairs, a held-out pair should be predicted reasonably.
        let mut m = model();
        let user_base = [0.5, 1.0, 2.0, 4.0];
        let service_mult = [1.0, 1.5, 0.7, 2.0];
        let truth = |u: usize, s: usize| user_base[u] * service_mult[s];
        let mut rng_order: Vec<(usize, usize)> = (0..4)
            .flat_map(|u| (0..4).map(move |s| (u, s)))
            .filter(|&(u, s)| !(u == 3 && s == 3))
            .collect();
        for pass in 0..400 {
            // cheap deterministic shuffle
            rng_order.rotate_left(pass % 15);
            for &(u, s) in &rng_order {
                m.observe(u, s, truth(u, s));
            }
        }
        let pred = m.predict(3, 3).unwrap();
        let actual = truth(3, 3);
        let rel = (pred - actual).abs() / actual;
        assert!(rel < 0.5, "held-out prediction {pred} vs {actual}");
    }

    #[test]
    fn predict_or_fallback() {
        let m = model();
        assert_eq!(m.predict_or(0, 0, 9.9), 9.9);
    }

    /// Trains a model over `users × services` with a deterministic stream.
    fn trained(users: usize, services: usize, samples: usize) -> AmfModel {
        let mut m = model();
        let mut state = 0xDEAD_BEEF_u64;
        for _ in 0..samples {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = (state >> 33) as usize % users;
            let s = (state >> 17) as usize % services;
            let v = 0.2 + ((state >> 11) as f64 / (1u64 << 53) as f64) * 8.0;
            m.observe(u, s, v);
        }
        m
    }

    #[test]
    fn rank_candidates_agrees_with_naive_argsort_of_predict() {
        let m = trained(12, 120, 6_000);
        for user in 0..12 {
            for k in [1usize, 3, 10, 120, 500] {
                // The oracle: argsort every per-pair prediction, ties by id.
                let mut naive: Vec<(usize, f64)> = (0..m.num_services())
                    .map(|s| (s, m.predict(user, s).unwrap()))
                    .collect();
                naive.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
                naive.truncate(k);

                let ranked = m.rank_candidates(user, k);
                assert_eq!(
                    ranked.iter().map(|&(s, _)| s).collect::<Vec<_>>(),
                    naive.iter().map(|&(s, _)| s).collect::<Vec<_>>(),
                    "user {user}, k {k}"
                );
                // Values go through the unrolled dot, so allow ulp-level
                // drift relative to the sequential per-pair path.
                for (&(_, got), &(_, want)) in ranked.iter().zip(&naive) {
                    assert!(
                        (got - want).abs() <= 1e-9 * want.abs().max(1.0),
                        "user {user}, k {k}: {got} vs {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn rank_candidates_degenerate_inputs() {
        let m = trained(3, 8, 200);
        assert_eq!(m.rank_candidates(99, 5), vec![]);
        assert_eq!(m.rank_candidates(0, 0), vec![]);
        assert_eq!(m.rank_candidates(0, 8).len(), 8);
        assert_eq!(m.rank_candidates(0, 999).len(), 8);
        let empty = model();
        assert_eq!(empty.rank_candidates(0, 3), vec![]);
    }

    #[test]
    fn rank_candidates_returns_ascending_predictions() {
        let m = trained(5, 40, 2_000);
        let ranked = m.rank_candidates(2, 10);
        assert_eq!(ranked.len(), 10);
        for pair in ranked.windows(2) {
            assert!(pair[0].1 <= pair[1].1, "not ascending: {pair:?}");
        }
    }

    #[test]
    fn rank_candidates_nan_free_under_degraded_entries() {
        // A degraded slab: a handful of trained services driven to the
        // extremes of the admissible range, plus a long tail of cold
        // services that were registered but never observed (their factors
        // are the fresh random init, their trackers at maximum error).
        let mut m = model();
        for i in 0..200 {
            m.observe(0, i % 4, if i % 2 == 0 { 0.011 } else { 19.9 });
        }
        m.ensure_service(63);
        m.ensure_user(2);

        for user in 0..m.num_users() {
            for k in [1usize, 5, 64, 1000] {
                let ranked = m.rank_candidates(user, k);
                assert_eq!(ranked.len(), k.min(64));
                for &(service, value) in &ranked {
                    assert!(
                        value.is_finite(),
                        "user {user}, k {k}, service {service}: {value}"
                    );
                    assert!(
                        (0.0..=20.0).contains(&value),
                        "user {user}, k {k}, service {service}: {value} escaped range"
                    );
                }
            }
        }
    }

    #[test]
    fn predict_row_matches_predict() {
        let m = trained(4, 30, 1_500);
        let ids: Vec<usize> = (0..30).rev().collect();
        let row = m.predict_row(1, &ids).unwrap();
        for (&s, &got) in ids.iter().zip(&row) {
            let want = m.predict(1, s).unwrap();
            assert!((got - want).abs() <= 1e-9 * want.abs().max(1.0));
        }
        assert_eq!(m.predict_row(99, &[0]), None);
        assert_eq!(m.predict_row(1, &[999]), None);
        assert_eq!(m.predict_row(1, &[]), Some(vec![]));
    }

    #[test]
    fn evaluate_sample_does_not_mutate() {
        let mut m = model();
        m.observe(0, 0, 1.0);
        let before = m.user_factors(0).unwrap().to_vec();
        let err = m.evaluate_sample(0, 0, 1.0).unwrap();
        assert!(err.is_finite());
        assert_eq!(m.user_factors(0).unwrap(), before.as_slice());
        assert_eq!(m.evaluate_sample(9, 0, 1.0), None);
    }

    #[test]
    fn add_user_and_service_return_sequential_ids() {
        let mut m = model();
        assert_eq!(m.add_user(), 0);
        assert_eq!(m.add_user(), 1);
        assert_eq!(m.add_service(), 0);
        assert_eq!(m.user_factors(1).unwrap().len(), 10);
    }

    #[test]
    fn initializations_are_random_but_seeded() {
        let mut a = model();
        let mut b = model();
        a.ensure_user(1);
        b.ensure_user(1);
        assert_eq!(a.user_factors(0), b.user_factors(0));
        assert_ne!(a.user_factors(0), a.user_factors(1));

        let mut c = AmfModel::new(AmfConfig::response_time().with_seed(7)).unwrap();
        c.ensure_user(0);
        assert_ne!(a.user_factors(0), c.user_factors(0));
    }

    #[test]
    fn predictions_stay_in_configured_range() {
        let mut m = model();
        for i in 0..50 {
            m.observe(i % 3, i % 5, 0.1 + (i % 7) as f64);
        }
        for u in 0..3 {
            for s in 0..5 {
                let p = m.predict(u, s).unwrap();
                assert!((0.0..=20.0).contains(&p), "prediction {p} out of range");
            }
        }
    }

    #[test]
    fn invalid_config_rejected() {
        let mut bad = AmfConfig::response_time();
        bad.dimension = 0;
        assert!(matches!(
            AmfModel::new(bad),
            Err(AmfError::InvalidConfig(_))
        ));
    }

    #[test]
    fn throughput_config_works() {
        let mut m = AmfModel::new(AmfConfig::throughput()).unwrap();
        for _ in 0..200 {
            m.observe(0, 0, 150.0);
        }
        let pred = m.predict(0, 0).unwrap();
        assert!(
            (pred - 150.0).abs() / 150.0 < 0.2,
            "predicted {pred}, expected ~150"
        );
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// No observation sequence — whatever its values, including ones
            /// outside the configured range — can drive predictions outside
            /// [R_min floor, R_max], produce non-finite factors, or push an
            /// error tracker out of [0, ∞).
            #[test]
            fn model_invariants_hold_under_arbitrary_streams(
                samples in proptest::collection::vec(
                    (0usize..6, 0usize..8, -5.0..50.0f64),
                    1..120
                )
            ) {
                let mut m = AmfModel::new(AmfConfig::response_time()).unwrap();
                for (u, s, v) in samples {
                    let outcome = m.observe(u, s, v);
                    prop_assert!(outcome.sample_error.is_finite());
                    prop_assert!(outcome.sample_error >= 0.0);
                    prop_assert!((0.0..=1.0).contains(&outcome.w_user));
                    prop_assert!((outcome.w_user + outcome.w_service - 1.0).abs() < 1e-9);
                }
                for u in 0..m.num_users() {
                    prop_assert!(m.user_error(u).unwrap() >= 0.0);
                    prop_assert!(m.user_factors(u).unwrap().iter().all(|f| f.is_finite()));
                    for s in 0..m.num_services() {
                        let p = m.predict(u, s).unwrap();
                        prop_assert!(
                            (0.0..=20.0).contains(&p),
                            "prediction {p} escaped the configured range"
                        );
                    }
                }
            }

            /// Update count equals the number of observations, and entity
            /// counts equal the largest ids seen plus one.
            #[test]
            fn bookkeeping_is_exact(
                samples in proptest::collection::vec(
                    (0usize..10, 0usize..10, 0.1..10.0f64),
                    1..60
                )
            ) {
                let mut m = AmfModel::new(AmfConfig::response_time()).unwrap();
                let max_u = samples.iter().map(|s| s.0).max().unwrap();
                let max_s = samples.iter().map(|s| s.1).max().unwrap();
                let n = samples.len() as u64;
                for (u, s, v) in samples {
                    m.observe(u, s, v);
                }
                prop_assert_eq!(m.update_count(), n);
                prop_assert_eq!(m.num_users(), max_u + 1);
                prop_assert_eq!(m.num_services(), max_s + 1);
            }

            /// Persistence round-trips arbitrary trained models exactly.
            #[test]
            fn persistence_roundtrip_exact(
                samples in proptest::collection::vec(
                    (0usize..5, 0usize..5, 0.1..19.0f64),
                    1..40
                ),
                seed in 0u64..1000
            ) {
                let mut m = AmfModel::new(AmfConfig::response_time().with_seed(seed)).unwrap();
                for (u, s, v) in samples {
                    m.observe(u, s, v);
                }
                let mut buffer = Vec::new();
                crate::persistence::save(&m, &mut buffer).unwrap();
                let restored = crate::persistence::load(&buffer[..]).unwrap();
                for u in 0..m.num_users() {
                    for s in 0..m.num_services() {
                        let a = m.predict(u, s).unwrap();
                        let b = restored.predict(u, s).unwrap();
                        prop_assert!((a - b).abs() < 1e-9);
                    }
                }
            }

            /// The batch ranking kernel selects the same services as a naive
            /// argsort of per-pair `predict`, on arbitrary random slabs: any
            /// training stream (including streams that leave most services
            /// cold) and any `k` relative to the service count.
            #[test]
            fn rank_candidates_agrees_with_naive_on_random_slabs(
                samples in proptest::collection::vec(
                    (0usize..6, 0usize..40, 0.1..18.0f64),
                    1..120
                ),
                seed in 0u64..1000,
                k in 0usize..50
            ) {
                let mut m = AmfModel::new(
                    AmfConfig::response_time().with_seed(seed)
                ).unwrap();
                for &(u, s, v) in &samples {
                    m.observe(u, s, v);
                }
                // Cold tail: registered but never observed, so the slab
                // mixes trained and fresh factor vectors.
                m.ensure_service(m.num_services() + 3);
                for user in 0..m.num_users() {
                    let mut naive: Vec<(usize, f64)> = (0..m.num_services())
                        .map(|s| (s, m.predict(user, s).unwrap()))
                        .collect();
                    naive.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
                    naive.truncate(k);

                    let ranked = m.rank_candidates(user, k);
                    prop_assert_eq!(
                        ranked.iter().map(|&(s, _)| s).collect::<Vec<_>>(),
                        naive.iter().map(|&(s, _)| s).collect::<Vec<_>>(),
                        "user {}, k {}", user, k
                    );
                    for &(_, value) in &ranked {
                        prop_assert!(value.is_finite());
                    }
                }
            }
        }
    }
}
