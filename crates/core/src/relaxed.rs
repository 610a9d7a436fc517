//! The relaxed-consistency (Hogwild-style) parallel lane — the engine's only
//! worker lane.
//!
//! The parity lane ([`crate::engine`]) applies samples on the calling thread,
//! which caps ingestion at one core. This module trades *bitwise* for
//! *statistically bounded* equivalence, the property incremental SGD
//! actually needs: small reorderings of commuting updates perturb the final
//! factors, but windowed MRE/NMAE stays within an ε of the sequential model
//! (enforced by `tests/relaxed_parity.rs` against the golden stream).
//!
//! # Design
//!
//! * Entity state lives in an [`AtomicSlab`]: the same contiguous layout as
//!   the model's `FactorSlab`, but every `f64` (factors and EMA tracker) is
//!   stored as the bit pattern in an `AtomicU64`. Word-level atomicity means
//!   *no torn reads by construction* — any load observes a value some store
//!   actually wrote.
//! * Writers serialize per entity with an **epoch claim**: one `AtomicU64`
//!   per entity, even = free, odd = claimed. A worker CASes the epoch odd,
//!   copies the entity into a thread-local buffer, runs the ordinary
//!   [`apply_observation`] kernel, writes the result back, and releases the
//!   epoch (+1, even again). Claiming both touched entities makes each
//!   sample's read-modify-write atomic *per entity pair* — so no update is
//!   ever lost; only the global *order* of updates is left to the scheduler.
//!   Claim order is fixed (user side, then service side) and the two sides
//!   are distinct slabs, so claim cycles — and thus deadlock — are
//!   impossible. The epoch doubles as a seqlock for concurrent readers
//!   ([`AtomicSlab::read_consistent`]).
//! * Ingestion micro-batches: samples buffer in the lane until
//!   [`crate::engine::EngineOptions::relaxed_batch`] is reached, then one
//!   scoped fan-out applies the batch with `K` workers partitioned by
//!   `user % K`. Per-user order within a batch is therefore preserved;
//!   per-service order is not — that is the relaxation.
//!
//! # Fault tolerance: at-least-once, no journal
//!
//! A panicking worker releases its epoch claims via the [`EpochClaim`] drop
//! guard (no other worker wedges) and the fan-in records a
//! [`FaultEvent`]. Recovery restarts the dead worker's partition from its
//! progress watermark, *re-applying the in-flight sample* — at-least-once,
//! not exactly-once. The weaker guarantee is deliberate: a duplicated SGD
//! micro-step is statistically invisible (the ε harness runs under fault
//! injection to prove it), and keeping no journal is part of what makes
//! this lane fast. The *update count* still counts each accepted sample
//! exactly once, so the no-lost-update invariant remains exact. When the
//! dead workers are still dying after
//! [`crate::engine::EngineOptions::max_respawns`] resume rounds, each one
//! is abandoned: the rest of its partition is counted as `samples_lost`
//! and the engine reports degraded, instead of looping forever.

use crate::config::AmfConfig;
use crate::engine::{Consistency, EngineOptions, FaultEvent, FaultStats};
use crate::fault::{FaultPlan, InjectedCrash, KillPhase};
use crate::model::{apply_observation, AmfModel, EntityKind, EntityState, FactorSlab};
use crate::online::UpdateOutcome;
use crate::stream::{AccuracyWindow, DriftSentinel};
use crate::weights::ErrorTracker;
use qos_transform::QosTransform;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Contiguous entity arena shared lock-free between workers: entity `i`'s
/// factors occupy words `i*dim..(i+1)*dim`, its EMA tracker word `i`, and
/// its epoch word `i`. All `f64` state is stored as bit patterns in
/// `AtomicU64`s, so every load/store is word-atomic — a reader can observe a
/// *stale* or *mixed-age* vector, never a torn word.
///
/// Growth is owner-only (`&mut self`, between fan-outs); workers share
/// `&AtomicSlab` and only load/store existing words.
pub(crate) struct AtomicSlab {
    dim: usize,
    factors: Vec<AtomicU64>,
    trackers: Vec<AtomicU64>,
    /// Per-entity claim/version word: even = free, odd = claimed. Bumped
    /// once on claim and once on release, so it also versions the entity
    /// for seqlock readers.
    epochs: Vec<AtomicU64>,
}

/// RAII epoch claim on one entity: holding it gives exclusive write access;
/// dropping it — including during a panic unwind — releases the entity, so
/// a crashed worker can never wedge the others.
pub(crate) struct EpochClaim<'a> {
    epoch: &'a AtomicU64,
    odd: u64,
}

impl Drop for EpochClaim<'_> {
    fn drop(&mut self) {
        self.epoch
            .store(self.odd.wrapping_add(1), Ordering::Release);
    }
}

impl AtomicSlab {
    pub(crate) fn new(dim: usize) -> Self {
        Self {
            dim,
            factors: Vec::new(),
            trackers: Vec::new(),
            epochs: Vec::new(),
        }
    }

    /// Number of entities stored.
    pub(crate) fn len(&self) -> usize {
        self.epochs.len()
    }

    /// Appends an entity (owner-only; never races workers).
    pub(crate) fn push_state(&mut self, state: &EntityState) {
        debug_assert_eq!(state.factors.len(), self.dim);
        self.factors
            .extend(state.factors.iter().map(|f| AtomicU64::new(f.to_bits())));
        self.trackers
            .push(AtomicU64::new(state.tracker.error().to_bits()));
        self.epochs.push(AtomicU64::new(0));
    }

    /// Claims entity `i` for exclusive writing, spinning until the current
    /// holder releases. The returned guard releases on drop (panic-safe).
    pub(crate) fn claim(&self, i: usize) -> EpochClaim<'_> {
        let epoch = &self.epochs[i];
        let mut spins = 0u32;
        loop {
            let e = epoch.load(Ordering::Relaxed);
            if e & 1 == 0
                && epoch
                    .compare_exchange_weak(e, e + 1, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
            {
                return EpochClaim { epoch, odd: e + 1 };
            }
            spins = spins.wrapping_add(1);
            if spins.is_multiple_of(64) {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }

    /// Copies entity `i`'s factors into `buf` and returns its tracker.
    /// Caller must hold the entity's claim for a stable snapshot.
    pub(crate) fn load_entity(&self, i: usize, buf: &mut [f64]) -> ErrorTracker {
        let words = &self.factors[i * self.dim..(i + 1) * self.dim];
        for (dst, word) in buf.iter_mut().zip(words) {
            *dst = f64::from_bits(word.load(Ordering::Acquire));
        }
        ErrorTracker::from_error(f64::from_bits(self.trackers[i].load(Ordering::Acquire)))
    }

    /// Writes entity `i`'s factors and tracker back. Caller must hold the
    /// entity's claim.
    pub(crate) fn store_entity(&self, i: usize, buf: &[f64], tracker: ErrorTracker) {
        let words = &self.factors[i * self.dim..(i + 1) * self.dim];
        for (src, word) in buf.iter().zip(words) {
            word.store(src.to_bits(), Ordering::Release);
        }
        self.trackers[i].store(tracker.error().to_bits(), Ordering::Release);
    }

    /// Seqlock read of entity `i` *without* claiming it: retries until a
    /// whole-vector snapshot is observed with no writer in between (epoch
    /// unchanged and even across the reads). This is what concurrent
    /// readers (snapshot paths, the no-torn-read property test) use while
    /// workers are writing.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn read_consistent(&self, i: usize, buf: &mut [f64]) -> ErrorTracker {
        let epoch = &self.epochs[i];
        loop {
            let before = epoch.load(Ordering::Acquire);
            if before & 1 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let tracker = self.load_entity(i, buf);
            if epoch.load(Ordering::Acquire) == before {
                return tracker;
            }
        }
    }

    /// Drains the slab into a plain `FactorSlab` (owner-only, quiescent).
    fn to_factor_slab(&self) -> FactorSlab {
        let mut slab = FactorSlab::with_capacity(self.dim, self.len());
        let mut buf = vec![0.0; self.dim];
        for i in 0..self.len() {
            let tracker = self.load_entity(i, &mut buf);
            slab.push_copied(&buf, tracker);
        }
        slab
    }
}

/// Per-worker streaming telemetry, folded into the base at snapshot time in
/// worker order. Re-applied samples after a crash push twice — telemetry is
/// best-effort in relaxed mode, matching the at-least-once application
/// contract.
struct WorkerTelemetry {
    window: AccuracyWindow,
    sentinel: DriftSentinel,
}

impl WorkerTelemetry {
    fn push(&mut self, outcome: &UpdateOutcome, e_user: f64, e_service: f64) {
        self.window.push(outcome.r, outcome.g, outcome.sample_error);
        let verdict = self.sentinel.observe(e_user, e_service);
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
    }
}

/// Applies one sample under epoch claims. The claims make the pair update
/// atomic (no lost updates); the buffers keep the SGD kernel itself running
/// on plain `&mut [f64]` — the *same* fused/SIMD kernel every other lane
/// uses. Returns the outcome plus post-update tracker errors for telemetry.
#[allow(clippy::too_many_arguments)]
fn apply_relaxed(
    config: &AmfConfig,
    transform: &QosTransform,
    users: &AtomicSlab,
    services: &AtomicSlab,
    user: usize,
    service: usize,
    raw: f64,
    plan: Option<&FaultPlan>,
    w: usize,
    seq: u64,
    ubuf: &mut [f64],
    sbuf: &mut [f64],
) -> (UpdateOutcome, f64, f64) {
    let _user_claim = users.claim(user);
    let _service_claim = services.claim(service);
    let mut user_tracker = users.load_entity(user, ubuf);
    let mut service_tracker = services.load_entity(service, sbuf);
    let outcome = apply_observation(
        config,
        transform,
        ubuf,
        &mut user_tracker,
        sbuf,
        &mut service_tracker,
        raw,
    );
    users.store_entity(user, ubuf, user_tracker);
    if let Some(plan) = plan {
        // Scripted mid-update death: the user side is committed, the
        // service side is not — a genuinely partial sample. Recovery
        // re-applies the whole sample (at-least-once).
        plan.crash_point(w, seq, KillPhase::Mid);
    }
    services.store_entity(service, sbuf, service_tracker);
    (outcome, user_tracker.error(), service_tracker.error())
}

/// The relaxed-consistency engine lane; see the module docs. Constructed by
/// [`crate::engine::ShardedEngine`] when
/// [`EngineOptions::consistency`] is [`Consistency::Relaxed`].
pub(crate) struct RelaxedLane {
    config: AmfConfig,
    transform: QosTransform,
    users: AtomicSlab,
    services: AtomicSlab,
    /// Samples buffered until the next micro-batch flush.
    pending: Vec<(usize, usize, f64)>,
    /// Dense entity-count watermarks (ids below these exist after a flush).
    num_users: usize,
    num_services: usize,
    submitted: u64,
    /// Samples applied at least once (each counted exactly once).
    applied: u64,
    /// Samples forfeited after a worker exhausted the respawn budget.
    lost: u64,
    /// Samples re-applied after a crash (the at-least-once duplicates).
    replayed: u64,
    /// Worker restarts after a death.
    respawns: u64,
    /// Workers given up on with their partition unfinished.
    abandoned: u64,
    degraded: bool,
    faults: Vec<FaultEvent>,
    /// Per-worker lifetime sample counters — the `at_job` coordinate space
    /// fault scripts address, stable across micro-batches and resumes.
    worker_seq: Vec<u64>,
    telemetry: Vec<WorkerTelemetry>,
    base_updates: u64,
    base_accuracy: AccuracyWindow,
    base_sentinel: DriftSentinel,
    fault_plan: Option<Arc<FaultPlan>>,
    options: EngineOptions,
}

impl RelaxedLane {
    pub(crate) fn from_model(
        model: AmfModel,
        options: EngineOptions,
        plan: Option<Arc<FaultPlan>>,
    ) -> Self {
        debug_assert_eq!(options.consistency, Consistency::Relaxed);
        let config = *model.config();
        let transform = *model.transform();
        let base_updates = model.update_count();
        let dim = config.dimension;
        let k = options.shards;
        let (user_slab, service_slab, base_accuracy, base_sentinel) = model.into_parts();
        let sentinel_config = *base_sentinel.config();

        let mut users = AtomicSlab::new(dim);
        let mut services = AtomicSlab::new(dim);
        let mut buf = vec![0.0; dim];
        for i in 0..user_slab.len() {
            buf.copy_from_slice(user_slab.factors(i));
            users.push_state(&EntityState {
                factors: buf.clone(),
                tracker: *user_slab.tracker(i),
            });
        }
        for i in 0..service_slab.len() {
            buf.copy_from_slice(service_slab.factors(i));
            services.push_state(&EntityState {
                factors: buf.clone(),
                tracker: *service_slab.tracker(i),
            });
        }

        Self {
            config,
            transform,
            num_users: users.len(),
            num_services: services.len(),
            users,
            services,
            pending: Vec::new(),
            submitted: 0,
            applied: 0,
            lost: 0,
            replayed: 0,
            respawns: 0,
            abandoned: 0,
            degraded: false,
            faults: Vec::new(),
            worker_seq: vec![0; k],
            telemetry: (0..k)
                .map(|_| WorkerTelemetry {
                    window: AccuracyWindow::default(),
                    sentinel: DriftSentinel::new(sentinel_config),
                })
                .collect(),
            base_updates,
            base_accuracy,
            base_sentinel,
            fault_plan: plan,
            options,
        }
    }

    pub(crate) fn options(&self) -> &EngineOptions {
        &self.options
    }

    pub(crate) fn config(&self) -> &AmfConfig {
        &self.config
    }

    pub(crate) fn submitted(&self) -> u64 {
        self.submitted
    }

    pub(crate) fn processed(&self) -> u64 {
        self.applied
    }

    pub(crate) fn is_degraded(&self) -> bool {
        self.degraded
    }

    pub(crate) fn fault_events(&self) -> Vec<FaultEvent> {
        self.faults.clone()
    }

    pub(crate) fn fault_stats(&self) -> FaultStats {
        FaultStats {
            worker_panics: self.faults.len() as u64,
            injected_panics: self.faults.iter().filter(|f| f.injected).count() as u64,
            respawns: self.respawns,
            jobs_replayed: self.replayed,
            samples_lost: self.lost,
            abandoned_workers: self.abandoned,
        }
    }

    pub(crate) fn ensure_user(&mut self, user: usize) {
        self.num_users = self.num_users.max(user + 1);
        self.densify();
    }

    pub(crate) fn ensure_service(&mut self, service: usize) {
        self.num_services = self.num_services.max(service + 1);
        self.densify();
    }

    pub(crate) fn feed_batch<I>(&mut self, samples: I)
    where
        I: IntoIterator<Item = (usize, usize, f64)>,
    {
        for (user, service, raw) in samples {
            self.num_users = self.num_users.max(user + 1);
            self.num_services = self.num_services.max(service + 1);
            self.pending.push((user, service, raw));
            self.submitted += 1;
            if self.pending.len() >= self.options.relaxed_batch {
                self.flush();
            }
        }
    }

    pub(crate) fn drain(&mut self) {
        self.flush();
    }

    pub(crate) fn snapshot(&mut self) -> AmfModel {
        self.flush();
        let users = self.users.to_factor_slab();
        let services = self.services.to_factor_slab();
        let mut window = self.base_accuracy.clone();
        let mut sentinel = self.base_sentinel.clone();
        for telemetry in &self.telemetry {
            window.absorb(&telemetry.window);
            sentinel.merge_counts(&telemetry.sentinel);
        }
        AmfModel::restore_parts(
            self.config,
            self.transform,
            users,
            services,
            self.base_updates + self.applied,
            window,
            sentinel,
        )
    }

    pub(crate) fn into_model(mut self) -> AmfModel {
        self.snapshot()
    }

    /// Materializes fresh entities up to the watermarks (owner-only; always
    /// called while no workers are running, so `&mut` growth is safe).
    fn densify(&mut self) {
        while self.users.len() < self.num_users {
            let id = self.users.len();
            self.users
                .push_state(&EntityState::fresh(&self.config, EntityKind::User, id));
        }
        while self.services.len() < self.num_services {
            let id = self.services.len();
            self.services
                .push_state(&EntityState::fresh(&self.config, EntityKind::Service, id));
        }
    }

    /// Applies the buffered micro-batch with one scoped fan-out: partition
    /// by `user % K`, spawn `K` workers over the shared slabs, fan in. Dead
    /// workers are resumed from their progress watermark; once the respawn
    /// budget is spent, the workers still unfinished are abandoned.
    fn flush(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let batch = std::mem::take(&mut self.pending);
        self.densify();
        let k = self.options.shards;
        let mut parts: Vec<Vec<(usize, usize, f64)>> = (0..k).map(|_| Vec::new()).collect();
        for &sample in &batch {
            parts[sample.0 % k].push(sample);
        }
        let metrics = crate::obs::engine_metrics();
        metrics
            .chunks_dispatched
            .add(parts.iter().filter(|p| !p.is_empty()).count() as u64);
        metrics.jobs_dispatched.add(batch.len() as u64);

        // Per-worker progress through its partition; persists across resume
        // rounds, published by the worker *after* each sample applies.
        let progress: Vec<AtomicU64> = (0..k).map(|_| AtomicU64::new(0)).collect();
        let unfinished = |w: usize| (progress[w].load(Ordering::Acquire) as usize) < parts[w].len();
        let trace = qos_obs::global().trace();
        let mut rounds = 0u32;
        loop {
            let deaths = self.run_round(&parts, &progress);
            if deaths.is_empty() {
                break;
            }
            rounds += 1;
            let give_up = rounds > self.options.max_respawns;
            for death in deaths {
                metrics.worker_panics.inc();
                trace.event("engine_worker_panic", death.message.clone());
                let w = death.worker;
                // The sample in flight at death re-applies on resume:
                // at-least-once, counted as a replay.
                if unfinished(w) {
                    self.replayed += 1;
                    metrics.jobs_replayed.inc();
                }
                self.faults.push(death);
                if !give_up {
                    self.respawns += 1;
                    metrics.respawns.inc();
                    trace.event(
                        "engine_respawn",
                        format!(
                            "worker {w} resuming at job {}",
                            progress[w].load(Ordering::Acquire)
                        ),
                    );
                }
            }
            if give_up {
                // Stop resuming a worker that keeps dying: the rest of its
                // partition is lost, and the engine reports degraded.
                self.degraded = true;
                for (w, part) in parts.iter().enumerate().filter(|&(w, _)| unfinished(w)) {
                    let lost = (part.len() as u64) - progress[w].load(Ordering::Acquire);
                    self.abandoned += 1;
                    metrics.workers_abandoned.inc();
                    trace.event("engine_abandon", format!("worker {w} lost {lost} jobs"));
                }
                break;
            }
        }

        let applied_now: u64 = progress.iter().map(|p| p.load(Ordering::Acquire)).sum();
        let lost_now = batch.len() as u64 - applied_now;
        if lost_now > 0 {
            self.lost += lost_now;
            metrics.samples_lost.add(lost_now);
        }
        self.applied += applied_now;
        for (w, part) in parts.iter().enumerate() {
            self.worker_seq[w] += part.len() as u64;
        }
    }

    /// One fan-out round: spawns a scoped worker per unfinished partition,
    /// joins them all, and returns any deaths (empty = round complete).
    fn run_round(
        &mut self,
        parts: &[Vec<(usize, usize, f64)>],
        progress: &[AtomicU64],
    ) -> Vec<FaultEvent> {
        let users = &self.users;
        let services = &self.services;
        let config = &self.config;
        let transform = &self.transform;
        let plan = self.fault_plan.as_deref();
        let worker_seq = &self.worker_seq;
        let dim = config.dimension;
        let mut deaths = Vec::new();
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(parts.len());
            for ((w, part), telemetry) in parts.iter().enumerate().zip(self.telemetry.iter_mut()) {
                if part.is_empty() || progress[w].load(Ordering::Acquire) as usize >= part.len() {
                    continue;
                }
                let progress = &progress[w];
                let seq_base = worker_seq[w];
                handles.push(scope.spawn(move || {
                    let caught = catch_unwind(AssertUnwindSafe(|| {
                        let mut ubuf = vec![0.0; dim];
                        let mut sbuf = vec![0.0; dim];
                        let start = progress.load(Ordering::Acquire) as usize;
                        for (idx, &(user, service, raw)) in part.iter().enumerate().skip(start) {
                            let seq = seq_base + idx as u64;
                            if let Some(plan) = plan {
                                plan.crash_point(w, seq, KillPhase::Before);
                            }
                            let (outcome, e_user, e_service) = apply_relaxed(
                                config, transform, users, services, user, service, raw, plan, w,
                                seq, &mut ubuf, &mut sbuf,
                            );
                            telemetry.push(&outcome, e_user, e_service);
                            progress.store(idx as u64 + 1, Ordering::Release);
                        }
                    }));
                    caught.err().map(|payload| {
                        let injected = payload.downcast_ref::<InjectedCrash>();
                        let message = if let Some(crash) = injected {
                            format!("injected {:?} kill at job {}", crash.phase, crash.at_job)
                        } else if let Some(text) = payload.downcast_ref::<&str>() {
                            (*text).to_string()
                        } else if let Some(text) = payload.downcast_ref::<String>() {
                            text.clone()
                        } else {
                            "relaxed worker panicked".to_string()
                        };
                        FaultEvent {
                            worker: w,
                            at_job: progress.load(Ordering::Acquire),
                            injected: injected.is_some(),
                            message,
                        }
                    })
                }));
            }
            for handle in handles {
                if let Some(death) = handle
                    .join()
                    .expect("relaxed worker closures catch their own panics")
                {
                    deaths.push(death);
                }
            }
        });
        deaths
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn fresh_slab(dim: usize, entities: usize) -> AtomicSlab {
        let config = AmfConfig::response_time();
        let mut slab = AtomicSlab::new(dim);
        for id in 0..entities {
            let mut state = EntityState::fresh(&config, EntityKind::User, id);
            state.factors.truncate(dim);
            while state.factors.len() < dim {
                state.factors.push(0.1);
            }
            slab.push_state(&state);
        }
        slab
    }

    #[test]
    fn claim_excludes_and_releases() {
        let slab = fresh_slab(4, 2);
        let claim = slab.claim(0);
        // Entity 1 stays claimable while 0 is held.
        drop(slab.claim(1));
        drop(claim);
        // Entity 0 claimable again after release.
        drop(slab.claim(0));
    }

    #[test]
    fn claim_releases_on_panic_unwind() {
        let slab = std::sync::Arc::new(fresh_slab(4, 1));
        let inner = std::sync::Arc::clone(&slab);
        let result = std::thread::spawn(move || {
            let _claim = inner.claim(0);
            panic!("scripted");
        })
        .join();
        assert!(result.is_err());
        // The drop guard must have released the epoch during unwind.
        drop(slab.claim(0));
    }

    #[test]
    fn claimed_increments_never_lose_updates() {
        // The no-lost-update core property at the word level: N threads
        // each perform M read-modify-write cycles on the same entity under
        // its claim; every increment must survive.
        let slab = std::sync::Arc::new(fresh_slab(4, 1));
        slab.store_entity(0, &[0.0; 4], ErrorTracker::from_error(0.0));
        let threads = 4;
        let increments = 500;
        let mut handles = Vec::new();
        for _ in 0..threads {
            let slab = std::sync::Arc::clone(&slab);
            handles.push(std::thread::spawn(move || {
                let mut buf = [0.0; 4];
                for _ in 0..increments {
                    let _claim = slab.claim(0);
                    let tracker = slab.load_entity(0, &mut buf);
                    for v in &mut buf {
                        *v += 1.0;
                    }
                    slab.store_entity(0, &buf, tracker);
                }
            }));
        }
        for handle in handles {
            handle.join().unwrap();
        }
        let mut buf = [0.0; 4];
        slab.load_entity(0, &mut buf);
        let expected = (threads * increments) as f64;
        assert_eq!(buf, [expected; 4]);
    }

    proptest! {
        // Satellite property: no torn reads under concurrent readers.
        // Writers keep every component of an entity equal to a single value
        // (claim → write all lanes to v); seqlock readers must never observe
        // a mixed-value vector, at any dimension.
        #[test]
        fn concurrent_readers_never_observe_torn_entities(
            dim in 1usize..=16,
            writer_rounds in 20usize..80,
        ) {
            let slab = std::sync::Arc::new(fresh_slab(dim, 2));
            slab.store_entity(0, &vec![0.0; dim], ErrorTracker::from_error(0.0));
            let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));

            let writer = {
                let slab = std::sync::Arc::clone(&slab);
                std::thread::spawn(move || {
                    for round in 1..=writer_rounds {
                        let _claim = slab.claim(0);
                        let value = round as f64;
                        slab.store_entity(
                            0,
                            &vec![value; dim],
                            ErrorTracker::from_error(value),
                        );
                    }
                })
            };
            let readers: Vec<_> = (0..2)
                .map(|_| {
                    let slab = std::sync::Arc::clone(&slab);
                    let stop = std::sync::Arc::clone(&stop);
                    std::thread::spawn(move || {
                        let mut buf = vec![0.0; dim];
                        let mut observed = 0usize;
                        // At least one read even if the writer already
                        // finished (single-core schedulers often run the
                        // whole writer before a reader gets a slice).
                        loop {
                            let tracker = slab.read_consistent(0, &mut buf);
                            // A consistent snapshot has all lanes equal to
                            // the tracker's value — any mix is a torn read.
                            for &lane in &buf {
                                assert_eq!(
                                    lane.to_bits(),
                                    buf[0].to_bits(),
                                    "torn vector: {buf:?}"
                                );
                            }
                            assert_eq!(tracker.error().to_bits(), buf[0].to_bits());
                            observed += 1;
                            if stop.load(std::sync::atomic::Ordering::Acquire) {
                                break;
                            }
                        }
                        observed
                    })
                })
                .collect();
            writer.join().unwrap();
            stop.store(true, std::sync::atomic::Ordering::Release);
            for reader in readers {
                let observed = reader.join().unwrap();
                prop_assert!(observed > 0, "reader made no observations");
            }
            let mut buf = vec![0.0; dim];
            slab.load_entity(0, &mut buf);
            prop_assert_eq!(buf[0], writer_rounds as f64);
        }
    }
}
