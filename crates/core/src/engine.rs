//! Sharded concurrent online-update engine with shard crash containment.
//!
//! [`crate::AmfTrainer::feed`] applies the QoS stream strictly sequentially,
//! which caps ingestion at one core. This module scales the same per-sample
//! update (Eq. 16–17 via [`crate::model::apply_observation`]) across threads
//! while keeping the result *identical* to sequential execution:
//!
//! * The user and service factor matrices are partitioned into `K`
//!   lock-striped shards (`entity id % K`); every shard's entities — feature
//!   vector *and* EMA error tracker — are guarded by one per-shard mutex, so
//!   a sample's SGD step and its two tracker updates (Algorithm 1 lines
//!   21–23) commit atomically with respect to other samples.
//! * Incoming samples are fanned out to `K` std-thread workers over bounded
//!   channels (routing by user stripe), in chunks to amortize channel
//!   overhead.
//! * Per-entity ordering is enforced with tickets: the dispatcher stamps each
//!   sample with its user's and service's next sequence numbers, and a worker
//!   only applies a sample when both entities have reached those tickets,
//!   yielding otherwise. Per-user order comes free (FIFO routing by user);
//!   per-service order is what the tickets buy.
//!
//! **Why this gives exact parity.** One online update reads and writes only
//! the two entities it touches, so updates on disjoint entities commute
//! bit-for-bit. With per-entity order fixed to stream order, the inputs of
//! every update are — by induction along each entity's update chain — the
//! same values sequential execution produces, whatever the cross-entity
//! interleaving. Entity initialization is order-independent too
//! ([`crate::model`]'s per-entity seeding), so a drained engine's snapshot is
//! bitwise equal to the sequential [`crate::AmfModel`] fed the same stream.
//! The parity integration tests assert exactly that.
//!
//! # Crash containment and recovery
//!
//! A runtime-adaptation service cannot afford one panicking shard worker to
//! wedge ingestion or lose accepted samples. The engine therefore treats a
//! worker thread as *disposable*:
//!
//! * Every worker's loop runs under `catch_unwind`; a panic marks the worker
//!   dead, logs a [`FaultEvent`], and wakes the dispatcher. Stripe mutexes
//!   recover from poisoning everywhere.
//! * The dispatcher keeps a **per-worker journal** of stamped jobs that are
//!   dispatched but not yet confirmed applied (workers publish a per-worker
//!   applied watermark after every job). On worker death the dispatcher
//!   respawns the shard thread and **replays the journal** from the
//!   watermark. Replay is idempotent: a job whose ordering tickets have
//!   already committed is skipped, so each accepted sample is applied
//!   exactly once and per-entity order is preserved — the result stays
//!   bitwise equal to the sequential run.
//! * For crashes *mid-update* (state mutated, tickets not yet committed),
//!   workers can snapshot the two touched entities into an in-flight backup
//!   before every SGD step ([`EngineOptions::inflight_backup`], forced on
//!   when a [`FaultPlan`] is attached); recovery rolls the torn entities
//!   back before replaying, restoring exactness even for the nastiest crash
//!   point.
//! * Respawns are budgeted ([`EngineOptions::max_respawns`] per worker); a
//!   worker that keeps dying is abandoned, its unapplied samples counted in
//!   [`FaultStats::samples_lost`] rather than hanging [`ShardedEngine::drain`]
//!   forever.
//!
//! Deterministic fault injection for all of the above lives in
//! [`crate::fault::FaultPlan`] (attach via
//! [`ShardedEngine::from_model_with_plan`]).
//!
//! When losing throughput is preferable to blocking (the service's
//! load-shedding path), [`ShardedEngine::feed_batch_shedding`] bounds how
//! long admission may wait on a full queue and sheds the remainder with
//! exact counts instead of blocking forever.
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
use crate::fault::{FaultPlan, InjectedCrash, KillPhase};
use crate::model::{apply_observation, AmfModel, EntityKind, EntityState, FactorSlab};
use crate::stream::{AccuracyWindow, DriftSentinel};
use crate::weights::ErrorTracker;
use crate::AmfError;
use qos_transform::QosTransform;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// The engine's consistency contract: what the parallel result is promised
/// to equal (see DESIGN.md §13 for the full spectrum and the test harness
/// that enforces each point on it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Consistency {
    /// Bitwise sequential equivalence: tickets pin per-entity stream order,
    /// a journal replays crashed workers, and the drained model is
    /// bit-for-bit equal to feeding the stream to [`AmfModel`] one sample at
    /// a time. The conformance oracle — and the default.
    #[default]
    Parity,
    /// Hogwild-style statistically-bounded equivalence: workers claim
    /// entities with atomic epoch flags and apply samples in whatever order
    /// they arrive, so per-entity *ordering* (not per-entity atomicity) is
    /// relaxed. Every accepted sample is still applied — the update count is
    /// exact — but windowed accuracy is only guaranteed within the ε bound
    /// that `tests/relaxed_parity.rs` enforces against the parity engine.
    /// Crash recovery re-applies the in-flight sample (at-least-once)
    /// instead of journal replay.
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

/// Tuning knobs for [`ShardedEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineOptions {
    /// Number of lock stripes *and* worker threads, `K ≥ 1`.
    pub shards: usize,
    /// Bounded per-worker channel depth, in chunks.
    pub queue_capacity: usize,
    /// Samples per dispatched chunk (amortizes channel overhead).
    pub chunk_size: usize,
    /// Record, per entity, the global stream indices of the samples applied
    /// to it — the evidence the parity tests compare against stream order.
    /// Costs one `Vec` push per entity per sample; off by default.
    /// Unsupported in [`Consistency::Relaxed`] mode (there is no global
    /// application order to record).
    pub record_history: bool,
    /// Snapshot the two touched entities before every SGD step so a crash
    /// *mid-update* can be rolled back exactly. Costs two small state clones
    /// per sample; off by default, forced on when a fault plan is attached.
    pub inflight_backup: bool,
    /// Respawn budget per worker before the shard is abandoned and its
    /// unapplied samples are counted as lost instead of retried forever.
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
            queue_capacity: 64,
            chunk_size: 256,
            record_history: false,
            inflight_backup: false,
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

    /// Checks the options are usable.
    ///
    /// # Errors
    ///
    /// Returns [`AmfError::InvalidConfig`] when any knob is zero, or when
    /// history recording is requested in relaxed mode (which has no global
    /// application order to record).
    pub fn validate(&self) -> Result<(), AmfError> {
        if self.shards == 0 {
            return Err(AmfError::InvalidConfig("shards must be >= 1".into()));
        }
        if self.chunk_size == 0 || self.queue_capacity == 0 {
            return Err(AmfError::InvalidConfig(
                "chunk_size and queue_capacity must be >= 1".into(),
            ));
        }
        if self.relaxed_batch == 0 {
            return Err(AmfError::InvalidConfig("relaxed_batch must be >= 1".into()));
        }
        if self.consistency == Consistency::Relaxed && self.record_history {
            return Err(AmfError::InvalidConfig(
                "record_history requires the parity engine (relaxed mode has no \
                 global application order)"
                    .into(),
            ));
        }
        Ok(())
    }
}

/// Load-shedding policy for [`ShardedEngine::feed_batch_shedding`]: how hard
/// admission tries before dropping a chunk on a full queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShedPolicy {
    /// Attempts per chunk before shedding (1 = a single `try_send`).
    pub max_attempts: u32,
    /// Sleep between attempts.
    pub backoff: Duration,
}

impl Default for ShedPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 16,
            backoff: Duration::from_micros(500),
        }
    }
}

/// Outcome of a shedding feed: every offered sample is either queued or shed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FeedOutcome {
    /// Samples queued for application.
    pub queued: u64,
    /// Samples dropped because the target queue stayed full.
    pub shed: u64,
}

/// One recorded worker death.
#[derive(Debug, Clone)]
pub struct FaultEvent {
    /// Which worker died.
    pub worker: usize,
    /// The worker's applied-job watermark at death.
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
    /// Successful worker respawns.
    pub respawns: u64,
    /// Journal jobs replayed to respawned workers (includes already-applied
    /// jobs that replay then skipped).
    pub jobs_replayed: u64,
    /// Accepted samples abandoned because a worker exhausted its respawn
    /// budget (0 in any healthy run).
    pub samples_lost: u64,
    /// Workers currently abandoned.
    pub abandoned_workers: u64,
}

/// One queued observation with its ordering tickets.
///
/// Plain `Copy` data — `(ids, raw value, tickets)` — so journaling a job is a
/// 56-byte memcpy, never a heap clone.
#[derive(Clone, Copy)]
struct Job {
    user: usize,
    service: usize,
    raw: f64,
    /// This sample's position in the user's per-entity sequence.
    user_ticket: u64,
    /// This sample's position in the service's per-entity sequence.
    service_ticket: u64,
    /// Global stream index (history recording only).
    index: u64,
    /// Per-worker dispatch sequence number (journal watermark key).
    seq: u64,
}

/// One lock stripe: the entities whose `id % K` equals the stripe index,
/// stored as a contiguous mini-slab (same layout as the model's
/// [`FactorSlab`]) plus an id → local-slot index. Per-slot metadata
/// (tickets, history) lives in parallel vectors.
struct Stripe {
    dim: usize,
    index: HashMap<usize, usize>,
    factors: Vec<f64>,
    trackers: Vec<ErrorTracker>,
    /// Next per-entity sequence number each slot will accept.
    tickets: Vec<u64>,
    /// Applied global stream indices per slot (filled only when history
    /// recording is on; otherwise the inner vectors stay unallocated).
    histories: Vec<Vec<u64>>,
}

impl Stripe {
    fn new(dim: usize) -> Self {
        Self {
            dim,
            index: HashMap::new(),
            factors: Vec::new(),
            trackers: Vec::new(),
            tickets: Vec::new(),
            histories: Vec::new(),
        }
    }

    /// Appends an entity, copying its factors into the stripe slab.
    fn push_entity(&mut self, id: usize, factors: &[f64], tracker: ErrorTracker) -> usize {
        debug_assert_eq!(factors.len(), self.dim);
        let slot = self.trackers.len();
        self.index.insert(id, slot);
        self.factors.extend_from_slice(factors);
        self.trackers.push(tracker);
        self.tickets.push(0);
        self.histories.push(Vec::new());
        slot
    }

    fn factors_at(&self, slot: usize) -> &[f64] {
        &self.factors[slot * self.dim..(slot + 1) * self.dim]
    }

    /// Simultaneous mutable access to one slot's factors and tracker
    /// (distinct backing vectors, so the split borrow is free).
    fn entity_mut(&mut self, slot: usize) -> (&mut [f64], &mut ErrorTracker) {
        (
            &mut self.factors[slot * self.dim..(slot + 1) * self.dim],
            &mut self.trackers[slot],
        )
    }
}

/// Reusable pre-update snapshot of the two entities an in-flight job
/// touches. The factor buffers are allocated once per worker at engine
/// construction (fixed `d`); arming the backup is two `copy_from_slice`
/// calls and two `Copy` tracker reads — no per-sample allocation.
struct InflightScratch {
    /// Whether the scratch currently holds a live (uncommitted) snapshot.
    armed: bool,
    user: usize,
    service: usize,
    user_ticket: u64,
    service_ticket: u64,
    user_factors: Vec<f64>,
    service_factors: Vec<f64>,
    user_tracker: ErrorTracker,
    service_tracker: ErrorTracker,
}

impl InflightScratch {
    fn new(dim: usize) -> Self {
        Self {
            armed: false,
            user: 0,
            service: 0,
            user_ticket: 0,
            service_ticket: 0,
            user_factors: vec![0.0; dim],
            service_factors: vec![0.0; dim],
            user_tracker: ErrorTracker::new(),
            service_tracker: ErrorTracker::new(),
        }
    }
}

/// Shared per-worker health and progress cell.
struct WorkerCell {
    /// False once the worker's loop has panicked (until respawn).
    alive: AtomicBool,
    /// Jobs completed (applied, or skipped as already-applied on replay):
    /// the journal GC and drain watermark.
    applied: AtomicU64,
    /// The reusable snapshot recovery rolls torn state back from.
    inflight: Mutex<InflightScratch>,
    /// This worker's streaming-accuracy state. Only worker `w` pushes to
    /// cell `w` (the dispatcher reads at merge time), so the lock is
    /// uncontended on the apply path.
    telemetry: Mutex<ShardTelemetry>,
}

/// Per-worker accuracy window and drift sentinel, folded into the model's
/// base telemetry at [`ShardedEngine::snapshot`]/[`ShardedEngine::into_model`]
/// in worker order (deterministic given the routing). Pushed only *after* a
/// job's tickets commit, so replayed-and-skipped jobs are never counted
/// twice; a crash between apply and push loses at most that one in-flight
/// sample's telemetry (best-effort, the model state itself is exact).
struct ShardTelemetry {
    window: AccuracyWindow,
    sentinel: DriftSentinel,
}

struct Shared {
    config: AmfConfig,
    transform: QosTransform,
    users: Vec<Mutex<Stripe>>,
    services: Vec<Mutex<Stripe>>,
    record_history: bool,
    backup_enabled: bool,
    cells: Vec<WorkerCell>,
    /// Caught worker panics, oldest first.
    faults: Mutex<Vec<FaultEvent>>,
    /// Sleep/wake pair for [`ShardedEngine::drain`]; all state it waits on
    /// lives in the atomics above, so the mutex guards nothing but the wait.
    progress: Mutex<()>,
    drained: Condvar,
    fault_plan: Option<Arc<FaultPlan>>,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    // A panicking worker must not wedge every other worker on poison errors;
    // recovery restores any state a panic could have torn mid-update.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Shared {
    /// Local slot of `id` in `stripe`, creating its deterministic fresh
    /// state on first touch.
    fn slot(&self, stripe: &mut Stripe, kind: EntityKind, id: usize) -> usize {
        if let Some(&slot) = stripe.index.get(&id) {
            return slot;
        }
        let fresh = EntityState::fresh(&self.config, kind, id);
        stripe.push_entity(id, &fresh.factors, fresh.tracker)
    }

    fn apply(&self, w: usize, job: &Job, telemetry: &mut ShardTelemetry) {
        let (u_stripe, s_stripe) = (
            job.user % self.users.len(),
            job.service % self.services.len(),
        );
        loop {
            // Lock order is always user stripe then service stripe; the two
            // stripe arrays are disjoint, so this cannot deadlock.
            let mut users = lock(&self.users[u_stripe]);
            let ui = self.slot(&mut users, EntityKind::User, job.user);
            if users.tickets[ui] > job.user_ticket {
                // Already applied before a crash: this is a journal replay
                // of a completed job — skipping keeps replay idempotent.
                return;
            }
            if users.tickets[ui] == job.user_ticket {
                let mut services = lock(&self.services[s_stripe]);
                let si = self.slot(&mut services, EntityKind::Service, job.service);
                if services.tickets[si] > job.service_ticket {
                    // Tickets commit together, so this mirrors the user-side
                    // skip; defensive (unreachable when the user ticket
                    // still matches).
                    return;
                }
                if services.tickets[si] == job.service_ticket {
                    if let Some(plan) = &self.fault_plan {
                        // Scripted clean worker death: fires before any
                        // state is touched.
                        plan.crash_point(w, job.seq, KillPhase::Before);
                    }
                    if self.backup_enabled {
                        let mut scratch = lock(&self.cells[w].inflight);
                        scratch.user = job.user;
                        scratch.service = job.service;
                        scratch.user_ticket = job.user_ticket;
                        scratch.service_ticket = job.service_ticket;
                        scratch.user_factors.copy_from_slice(users.factors_at(ui));
                        scratch
                            .service_factors
                            .copy_from_slice(services.factors_at(si));
                        scratch.user_tracker = users.trackers[ui];
                        scratch.service_tracker = services.trackers[si];
                        scratch.armed = true;
                    }
                    let (user_factors, user_tracker) = users.entity_mut(ui);
                    let (service_factors, service_tracker) = services.entity_mut(si);
                    let outcome = apply_observation(
                        &self.config,
                        &self.transform,
                        user_factors,
                        user_tracker,
                        service_factors,
                        service_tracker,
                        job.raw,
                    );
                    if let Some(plan) = &self.fault_plan {
                        // Scripted mid-update death: factors mutated, tickets
                        // not yet committed — recovery must roll back.
                        plan.crash_point(w, job.seq, KillPhase::Mid);
                    }
                    users.tickets[ui] += 1;
                    services.tickets[si] += 1;
                    if self.record_history {
                        users.histories[ui].push(job.index);
                        services.histories[si].push(job.index);
                    }
                    // Post-commit: the job is now definitively applied, so
                    // it is safe to count it exactly once (replay skips exit
                    // above, before this point).
                    let e_u = users.trackers[ui].error();
                    let e_s = services.trackers[si].error();
                    drop(services);
                    drop(users);
                    telemetry
                        .window
                        .push(outcome.r, outcome.g, outcome.sample_error);
                    let verdict = telemetry.sentinel.observe(e_u, e_s);
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
                    if self.backup_enabled {
                        lock(&self.cells[w].inflight).armed = false;
                    }
                    return;
                }
            }
            // An earlier sample of one of the two entities is still in
            // flight on another worker; it is queued (or being replayed
            // after a crash) and will run, so back off and retry.
            drop(users);
            std::thread::yield_now();
        }
    }

    /// The worker loop: applies chunks and publishes the per-job watermark.
    /// Any panic is contained here — recorded, health flag dropped, and the
    /// dispatcher woken to respawn.
    fn worker(&self, w: usize, jobs: &Receiver<Vec<Job>>) {
        // Per-shard chunk-apply latency; registered once per worker spawn
        // (the format! and registry lock happen here, never per chunk).
        let apply_ns =
            qos_obs::global().histogram_labeled("engine.chunk_apply_ns", &format!("shard-{w}"));
        let caught = catch_unwind(AssertUnwindSafe(|| {
            while let Ok(chunk) = jobs.recv() {
                let started = std::time::Instant::now();
                // One telemetry lock per chunk, not per sample: only worker
                // `w` ever locks cell `w` on this path, but even an
                // uncontended lock/unlock pair is measurable at per-sample
                // frequency. Held across apply's stripe locks — safe, since
                // no other thread takes this cell's lock while the worker is
                // mid-chunk (the dispatcher merges only after a drain).
                let mut telemetry = lock(&self.cells[w].telemetry);
                for job in &chunk {
                    self.apply(w, job, &mut telemetry);
                    self.cells[w].applied.store(job.seq + 1, Ordering::Release);
                }
                drop(telemetry);
                apply_ns.record_duration(started.elapsed());
                self.drained.notify_all();
            }
        }));
        if let Err(payload) = caught {
            let injected = payload.downcast_ref::<InjectedCrash>();
            let message = if let Some(crash) = injected {
                format!("injected {:?} kill at job {}", crash.phase, crash.at_job)
            } else if let Some(text) = payload.downcast_ref::<&str>() {
                (*text).to_string()
            } else if let Some(text) = payload.downcast_ref::<String>() {
                text.clone()
            } else {
                "worker panicked".to_string()
            };
            self.cells[w].alive.store(false, Ordering::Release);
            crate::obs::engine_metrics().worker_panics.inc();
            qos_obs::global()
                .trace()
                .event("engine_worker_panic", message.clone());
            lock(&self.faults).push(FaultEvent {
                worker: w,
                at_job: self.cells[w].applied.load(Ordering::Acquire),
                injected: injected.is_some(),
                message,
            });
            self.drained.notify_all();
        }
    }

    /// Attempts to cancel a lost job's ordering tickets (abandoned-worker
    /// path): bumps each touched entity's ticket past the job *as if* it had
    /// been applied, without touching factors, so live workers sharing a
    /// service with the lost job stop waiting for it. Returns `false` while
    /// a predecessor sample is still in flight — retry after other workers
    /// make progress. Each side's bump is idempotent (equality-gated), so a
    /// partially-cancelled job can be retried safely.
    fn try_cancel(&self, job: &Job) -> bool {
        {
            let mut users = lock(&self.users[job.user % self.users.len()]);
            let slot = self.slot(&mut users, EntityKind::User, job.user);
            if users.tickets[slot] < job.user_ticket {
                return false;
            }
            if users.tickets[slot] == job.user_ticket {
                users.tickets[slot] += 1;
            }
        }
        let mut services = lock(&self.services[job.service % self.services.len()]);
        let slot = self.slot(&mut services, EntityKind::Service, job.service);
        if services.tickets[slot] < job.service_ticket {
            return false;
        }
        if services.tickets[slot] == job.service_ticket {
            services.tickets[slot] += 1;
        }
        true
    }

    /// Rolls back the torn state of `w`'s in-flight job, if its tickets
    /// never committed. Disarms the scratch either way.
    fn rollback_inflight(&self, w: usize) {
        let mut scratch = lock(&self.cells[w].inflight);
        if !scratch.armed {
            return;
        }
        scratch.armed = false;
        let mut users = lock(&self.users[scratch.user % self.users.len()]);
        if let Some(&slot) = users.index.get(&scratch.user) {
            if users.tickets[slot] == scratch.user_ticket {
                let (factors, tracker) = users.entity_mut(slot);
                factors.copy_from_slice(&scratch.user_factors);
                *tracker = scratch.user_tracker;
            }
        }
        drop(users);
        let mut services = lock(&self.services[scratch.service % self.services.len()]);
        if let Some(&slot) = services.index.get(&scratch.service) {
            if services.tickets[slot] == scratch.service_ticket {
                let (factors, tracker) = services.entity_mut(slot);
                factors.copy_from_slice(&scratch.service_factors);
                *tracker = scratch.service_tracker;
            }
        }
    }
}

/// The bitwise-parity threaded core: ingests a QoS stream with `K` worker
/// threads while guaranteeing sequential-equivalent results, and survives
/// worker crashes without losing accepted samples (see the module docs for
/// the recovery protocol).
///
/// The core is a *dispatcher* handle: `feed_batch` stamps tickets and
/// routes, workers own the hot loop. [`ShardedEngine`] wraps it (alongside
/// the in-thread fast path and the relaxed lane) and routes based on
/// [`EngineOptions::consistency`].
pub(crate) struct ParityCore {
    shared: Arc<Shared>,
    senders: Vec<SyncSender<Vec<Job>>>,
    workers: Vec<Option<JoinHandle<()>>>,
    /// Per-worker chunk under construction (exact/blocking path).
    pending: Vec<Vec<Job>>,
    /// Per-worker chunks stamped but not yet accepted by the channel. The
    /// dispatcher never blocks on a channel send — chunks wait here and
    /// [`ShardedEngine::pump`] moves them with `try_send`, so recovery and
    /// ticket cancellation keep making progress even when a queue is full.
    outbox: Vec<VecDeque<Vec<Job>>>,
    /// Stamped-but-unconfirmed jobs per worker, oldest first — the replay
    /// source after a worker death (a superset of the outbox's jobs).
    journal: Vec<VecDeque<Job>>,
    /// Lost jobs (abandoned workers) whose ordering tickets still need
    /// cancelling; retried in [`ShardedEngine::pump`] until empty.
    cancel_backlog: Vec<Job>,
    /// Per-worker dispatch sequence counters (`journal` watermark space).
    dispatched: Vec<u64>,
    /// Per-worker respawn budget consumed.
    respawns: Vec<u32>,
    /// Workers whose respawn budget ran out.
    abandoned: Vec<bool>,
    /// Dispatcher-side per-entity ticket counters.
    user_tickets: HashMap<usize, u64>,
    service_tickets: HashMap<usize, u64>,
    /// Entity-count watermarks (mirror the sequential model's dense
    /// registration: ids up to the maximum seen exist after a snapshot).
    num_users: usize,
    num_services: usize,
    submitted: u64,
    shed: u64,
    replayed: u64,
    lost: u64,
    /// Update count carried over from a pre-trained source model.
    base_updates: u64,
    /// Accuracy window carried over from the source model; per-worker
    /// windows fold into a clone of this at snapshot time, keeping windowed
    /// MRE/NMAE continuous across sequential → sharded transitions.
    base_accuracy: AccuracyWindow,
    /// Drift sentinel carried over from the source model (alarm counts
    /// accumulate across engine generations; detector state restarts per
    /// worker stream).
    base_sentinel: DriftSentinel,
    /// Per-shard outbox backlog gauges, registered once at construction so
    /// the pump never touches the registry lock.
    backlog_gauges: Vec<Arc<qos_obs::Gauge>>,
    /// Lifetime high-watermark of the summed outbox depth.
    outbox_hwm: usize,
    options: EngineOptions,
}

impl ParityCore {
    /// Wraps an existing (possibly trained) model with a deterministic fault
    /// script attached: shard workers consult `plan` at every apply and
    /// crash or stall where scripted. Attaching a plan forces
    /// [`EngineOptions::inflight_backup`] on, so mid-update kills recover
    /// exactly. Options are assumed validated by the caller.
    fn from_model_with_plan(
        model: AmfModel,
        mut options: EngineOptions,
        plan: Option<Arc<FaultPlan>>,
    ) -> Result<Self, AmfError> {
        if plan.is_some() {
            options.inflight_backup = true;
        }
        let k = options.shards;
        let config = *model.config();
        let transform = *model.transform();
        let base_updates = model.update_count();
        let dim = config.dimension;
        let (users, services, base_accuracy, base_sentinel) = model.into_parts();
        let (num_users, num_services) = (users.len(), services.len());
        let sentinel_config = *base_sentinel.config();

        let mut user_stripes: Vec<Stripe> = (0..k).map(|_| Stripe::new(dim)).collect();
        let mut service_stripes: Vec<Stripe> = (0..k).map(|_| Stripe::new(dim)).collect();
        for id in 0..num_users {
            user_stripes[id % k].push_entity(id, users.factors(id), *users.tracker(id));
        }
        for id in 0..num_services {
            service_stripes[id % k].push_entity(id, services.factors(id), *services.tracker(id));
        }

        let shared = Arc::new(Shared {
            config,
            transform,
            users: user_stripes.into_iter().map(Mutex::new).collect(),
            services: service_stripes.into_iter().map(Mutex::new).collect(),
            record_history: options.record_history,
            backup_enabled: options.inflight_backup,
            cells: (0..k)
                .map(|_| WorkerCell {
                    alive: AtomicBool::new(true),
                    applied: AtomicU64::new(0),
                    inflight: Mutex::new(InflightScratch::new(dim)),
                    telemetry: Mutex::new(ShardTelemetry {
                        window: AccuracyWindow::default(),
                        sentinel: DriftSentinel::new(sentinel_config),
                    }),
                })
                .collect(),
            faults: Mutex::new(Vec::new()),
            progress: Mutex::new(()),
            drained: Condvar::new(),
            fault_plan: plan,
        });

        let mut engine = Self {
            shared,
            senders: Vec::with_capacity(k),
            workers: (0..k).map(|_| None).collect(),
            pending: (0..k).map(|_| Vec::new()).collect(),
            outbox: (0..k).map(|_| VecDeque::new()).collect(),
            journal: (0..k).map(|_| VecDeque::new()).collect(),
            cancel_backlog: Vec::new(),
            dispatched: vec![0; k],
            respawns: vec![0; k],
            abandoned: vec![false; k],
            user_tickets: HashMap::new(),
            service_tickets: HashMap::new(),
            num_users,
            num_services,
            submitted: 0,
            shed: 0,
            replayed: 0,
            lost: 0,
            base_updates,
            base_accuracy,
            base_sentinel,
            backlog_gauges: (0..k)
                .map(|w| {
                    qos_obs::global().gauge_labeled("engine.shard_backlog", &format!("shard-{w}"))
                })
                .collect(),
            outbox_hwm: 0,
            options,
        };
        for w in 0..k {
            let (tx, handle) = engine.spawn_worker(w, 0)?;
            engine.senders.push(tx);
            engine.workers[w] = Some(handle);
        }
        Ok(engine)
    }

    fn spawn_worker(
        &self,
        w: usize,
        generation: u32,
    ) -> Result<(SyncSender<Vec<Job>>, JoinHandle<()>), AmfError> {
        let (tx, rx) = std::sync::mpsc::sync_channel::<Vec<Job>>(self.options.queue_capacity);
        let shared = Arc::clone(&self.shared);
        let name = if generation == 0 {
            format!("amf-shard-{w}")
        } else {
            format!("amf-shard-{w}-r{generation}")
        };
        let handle = std::thread::Builder::new()
            .name(name)
            .spawn(move || shared.worker(w, &rx))
            .map_err(AmfError::Io)?;
        Ok((tx, handle))
    }

    /// The engine's tuning options.
    pub fn options(&self) -> &EngineOptions {
        &self.options
    }

    /// The model hyperparameters.
    pub fn config(&self) -> &AmfConfig {
        &self.shared.config
    }

    /// Number of samples accepted by [`ShardedEngine::feed_batch`] /
    /// queued by [`ShardedEngine::feed_batch_shedding`] so far.
    pub fn submitted(&self) -> u64 {
        self.submitted
    }

    /// Number of samples workers have fully applied so far.
    pub fn processed(&self) -> u64 {
        self.shared
            .cells
            .iter()
            .map(|c| c.applied.load(Ordering::Acquire))
            .sum()
    }

    /// Aggregate fault counters (all zero in a fault-free run).
    pub fn fault_stats(&self) -> FaultStats {
        let faults = lock(&self.shared.faults);
        FaultStats {
            worker_panics: faults.len() as u64,
            injected_panics: faults.iter().filter(|f| f.injected).count() as u64,
            respawns: self.respawns.iter().map(|&r| u64::from(r)).sum(),
            jobs_replayed: self.replayed,
            samples_lost: self.lost,
            abandoned_workers: self.abandoned.iter().filter(|&&a| a).count() as u64,
        }
    }

    /// The recorded worker deaths, oldest first.
    pub fn fault_events(&self) -> Vec<FaultEvent> {
        lock(&self.shared.faults).clone()
    }

    /// Whether any shard is currently dead or abandoned — predictions served
    /// meanwhile should be treated as degraded.
    pub fn is_degraded(&self) -> bool {
        self.abandoned.iter().any(|&a| a)
            || self
                .shared
                .cells
                .iter()
                .any(|c| !c.alive.load(Ordering::Acquire))
    }

    /// Stamps a sample with its ordering tickets and bookkeeping. Must be
    /// called in global stream order — the tickets *are* the per-entity
    /// stream order. The per-worker `seq` is assigned later, when the job
    /// is actually committed for dispatch (shed jobs never consume seq
    /// space, which is what keeps the applied watermark gapless).
    fn stamp(&mut self, user: usize, service: usize, raw: f64) -> Job {
        let user_ticket = self.user_tickets.entry(user).or_insert(0);
        let service_ticket = self.service_tickets.entry(service).or_insert(0);
        let job = Job {
            user,
            service,
            raw,
            user_ticket: *user_ticket,
            service_ticket: *service_ticket,
            index: self.submitted,
            seq: 0,
        };
        *user_ticket += 1;
        *service_ticket += 1;
        self.submitted += 1;
        self.num_users = self.num_users.max(user + 1);
        self.num_services = self.num_services.max(service + 1);
        job
    }

    /// Queues a batch of `(user, service, raw QoS)` observations, fanning
    /// them out to the shard workers. Returns once every sample is *queued*
    /// (bounded queues apply backpressure); use [`ShardedEngine::drain`] to
    /// wait for application. Worker deaths encountered while queuing are
    /// recovered transparently.
    pub fn feed_batch<I>(&mut self, samples: I)
    where
        I: IntoIterator<Item = (usize, usize, f64)>,
    {
        let k = self.options.shards;
        for (user, service, raw) in samples {
            let w = user % k;
            let job = self.stamp(user, service, raw);
            self.pending[w].push(job);
            if self.pending[w].len() >= self.options.chunk_size {
                let chunk = std::mem::take(&mut self.pending[w]);
                self.dispatch(w, chunk);
            }
        }
        self.flush();
    }

    /// Load-shedding admission: like [`ShardedEngine::feed_batch`] but a
    /// chunk that cannot be queued within `policy`'s attempt budget is
    /// dropped (before its tickets commit) instead of blocking. Returns the
    /// exact queued/shed split. Per-entity ordering of *queued* samples is
    /// preserved; global parity with the unshed stream is, by construction,
    /// not (samples are missing).
    pub fn feed_batch_shedding<I>(&mut self, samples: I, policy: ShedPolicy) -> FeedOutcome
    where
        I: IntoIterator<Item = (usize, usize, f64)>,
    {
        let k = self.options.shards;
        let mut outcome = FeedOutcome::default();
        let mut buf: Vec<Vec<Job>> = (0..k).map(|_| Vec::new()).collect();
        for (user, service, raw) in samples {
            let w = user % k;
            let job = self.stamp(user, service, raw);
            buf[w].push(job);
            if buf[w].len() >= self.options.chunk_size {
                let chunk = std::mem::take(&mut buf[w]);
                self.offer_chunk(w, chunk, policy, &mut outcome);
            }
        }
        for (w, chunk) in buf.into_iter().enumerate() {
            if !chunk.is_empty() {
                self.offer_chunk(w, chunk, policy, &mut outcome);
            }
        }
        outcome
    }

    /// Offers one stamped chunk with bounded retries, shedding on a
    /// persistently full queue. A shed chunk's ordering tickets are
    /// *cancelled* (bumped past, like an abandoned worker's lost jobs)
    /// rather than rolled back — later samples of the same entities were
    /// already stamped relative to them, so cancellation is what keeps the
    /// admitted stream's per-entity order gapless.
    fn offer_chunk(
        &mut self,
        w: usize,
        mut chunk: Vec<Job>,
        policy: ShedPolicy,
        outcome: &mut FeedOutcome,
    ) {
        let n = chunk.len() as u64;
        if self.abandoned[w] {
            self.shed += n;
            crate::obs::engine_metrics().samples_shed.add(n);
            outcome.shed += n;
            self.cancel_backlog.extend(chunk);
            self.cancel_pass();
            return;
        }
        // Seqs are provisional until the channel accepts the chunk; nothing
        // else consumes this worker's seq space between attempts, so they
        // stay stable across retries and shed chunks leave no seq gap.
        for (i, job) in chunk.iter_mut().enumerate() {
            job.seq = self.dispatched[w] + i as u64;
        }
        let mut attempts = 0u32;
        loop {
            // Keep recovery, replay, and cancellation moving while we wait.
            self.pump();
            if self.abandoned[w] {
                self.shed += n;
                crate::obs::engine_metrics().samples_shed.add(n);
                outcome.shed += n;
                self.cancel_backlog.extend(chunk);
                self.cancel_pass();
                return;
            }
            // Only send directly when no replay chunks are queued ahead of
            // us — overtaking them would break per-worker seq order.
            if self.outbox[w].is_empty() && self.shared.cells[w].alive.load(Ordering::Acquire) {
                match self.senders[w].try_send(chunk.clone()) {
                    Ok(()) => {
                        let metrics = crate::obs::engine_metrics();
                        metrics.chunks_dispatched.inc();
                        metrics.jobs_dispatched.add(n);
                        self.dispatched[w] += n;
                        for job in chunk {
                            self.journal[w].push_back(job);
                        }
                        self.gc_journal(w);
                        outcome.queued += n;
                        return;
                    }
                    Err(TrySendError::Full(_)) => {
                        crate::obs::engine_metrics().queue_full.inc();
                    }
                    Err(TrySendError::Disconnected(_)) => {}
                }
            }
            attempts += 1;
            if attempts >= policy.max_attempts.max(1) {
                self.shed += n;
                crate::obs::engine_metrics().samples_shed.add(n);
                outcome.shed += n;
                self.cancel_backlog.extend(chunk);
                self.cancel_pass();
                return;
            }
            std::thread::sleep(policy.backoff);
        }
    }

    /// Registers a user eagerly (id and factors exist before any sample).
    /// Safe while workers are mid-stream: creation takes the stripe lock.
    pub fn ensure_user(&mut self, user: usize) {
        self.num_users = self.num_users.max(user + 1);
        let stripe = user % self.options.shards;
        let mut guard = lock(&self.shared.users[stripe]);
        self.shared.slot(&mut guard, EntityKind::User, user);
    }

    /// Registers a service eagerly; see [`ShardedEngine::ensure_user`].
    pub fn ensure_service(&mut self, service: usize) {
        self.num_services = self.num_services.max(service + 1);
        let stripe = service % self.options.shards;
        let mut guard = lock(&self.shared.services[stripe]);
        self.shared.slot(&mut guard, EntityKind::Service, service);
    }

    /// Blocks until every queued sample has been applied, respawning and
    /// replaying any workers that die along the way. Returns early only if
    /// a worker exhausts its respawn budget (see
    /// [`FaultStats::samples_lost`]).
    pub fn drain(&mut self) {
        let drain_ns = qos_obs::global().histogram("engine.drain_ns");
        let _span = qos_obs::global()
            .trace()
            .span("engine_drain")
            .with_histogram(&drain_ns);
        self.flush();
        loop {
            self.pump();
            let done = self.cancel_backlog.is_empty()
                && (0..self.options.shards).all(|w| {
                    self.abandoned[w]
                        || (self.outbox[w].is_empty()
                            && self.shared.cells[w].applied.load(Ordering::Acquire)
                                >= self.dispatched[w])
                });
            if done {
                return;
            }
            let guard = lock(&self.shared.progress);
            // Timed wait: worker death can race the notify, and the pump
            // above must re-run regardless.
            let _ = self
                .shared
                .drained
                .wait_timeout(guard, Duration::from_millis(2));
        }
    }

    /// Drains, then assembles the current state into a standalone
    /// [`AmfModel`] (cloning entity state; the engine keeps running).
    ///
    /// Ids never touched but below a touched id are materialized with their
    /// deterministic initial state, matching the sequential model's dense
    /// registration.
    pub fn snapshot(&mut self) -> AmfModel {
        self.drain();
        let users = self.collect_slab(EntityKind::User, self.num_users);
        let services = self.collect_slab(EntityKind::Service, self.num_services);
        let updates = self.base_updates + self.processed();
        let (accuracy, sentinel) = self.merged_telemetry();
        AmfModel::restore_parts(
            self.shared.config,
            self.shared.transform,
            users,
            services,
            updates,
            accuracy,
            sentinel,
        )
    }

    /// Folds the per-worker accuracy windows and sentinel alarm counts into
    /// clones of the carried-over base telemetry, in worker order 0..K —
    /// deterministic given the stream's shard routing. Call after
    /// [`ShardedEngine::drain`] for a complete view.
    fn merged_telemetry(&self) -> (AccuracyWindow, DriftSentinel) {
        let mut window = self.base_accuracy.clone();
        let mut sentinel = self.base_sentinel.clone();
        for cell in &self.shared.cells {
            let telemetry = lock(&cell.telemetry);
            window.absorb(&telemetry.window);
            sentinel.merge_counts(&telemetry.sentinel);
        }
        (window, sentinel)
    }

    /// Drains, stops the workers, and returns the final model (entity state
    /// is copied out of the stripe slabs — a flat memcpy per stripe visit,
    /// no per-entity heap traffic).
    pub fn into_model(mut self) -> AmfModel {
        self.drain();
        let updates = self.base_updates + self.processed();
        let (accuracy, sentinel) = self.merged_telemetry();
        self.shutdown();
        let users = self.collect_slab(EntityKind::User, self.num_users);
        let services = self.collect_slab(EntityKind::Service, self.num_services);
        AmfModel::restore_parts(
            self.shared.config,
            self.shared.transform,
            users,
            services,
            updates,
            accuracy,
            sentinel,
        )
    }

    /// Copies the global stream indices applied to `user` (in application
    /// order) into `out`, replacing its contents and reusing its capacity.
    /// Returns `false` — with `out` cleared — unless
    /// [`EngineOptions::record_history`] is on and the user has a slot.
    /// Call [`ShardedEngine::drain`] first for a complete log.
    pub fn user_history_into(&self, user: usize, out: &mut Vec<u64>) -> bool {
        out.clear();
        if !self.options.record_history {
            return false;
        }
        let guard = lock(&self.shared.users[user % self.options.shards]);
        match guard.index.get(&user) {
            Some(&slot) => {
                out.extend_from_slice(&guard.histories[slot]);
                true
            }
            None => false,
        }
    }

    /// Like [`ShardedEngine::user_history_into`] for a service.
    pub fn service_history_into(&self, service: usize, out: &mut Vec<u64>) -> bool {
        out.clear();
        if !self.options.record_history {
            return false;
        }
        let guard = lock(&self.shared.services[service % self.options.shards]);
        match guard.index.get(&service) {
            Some(&slot) => {
                out.extend_from_slice(&guard.histories[slot]);
                true
            }
            None => false,
        }
    }

    /// Journals a stamped chunk and hands it to the pump. Never blocks: a
    /// full channel leaves the chunk in the outbox, and the backpressure
    /// loop keeps pumping (recovery, cancellation) while it waits for the
    /// worker to catch up — so a worker stalled on a ticket the dispatcher
    /// must cancel can never deadlock the dispatcher.
    fn dispatch(&mut self, w: usize, mut chunk: Vec<Job>) {
        if self.abandoned[w] {
            // Routed to a dead shard: count as lost, and release the jobs'
            // ordering tickets so co-routed services on live shards proceed.
            self.lost += chunk.len() as u64;
            crate::obs::engine_metrics()
                .samples_lost
                .add(chunk.len() as u64);
            self.cancel_backlog.extend(chunk);
            self.cancel_pass();
            return;
        }
        let metrics = crate::obs::engine_metrics();
        metrics.chunks_dispatched.inc();
        metrics.jobs_dispatched.add(chunk.len() as u64);
        for job in &mut chunk {
            job.seq = self.dispatched[w];
            self.dispatched[w] += 1;
            self.journal[w].push_back(*job);
        }
        self.outbox[w].push_back(chunk);
        self.pump();
        while self.outbox[w].len() > self.options.queue_capacity && !self.abandoned[w] {
            std::thread::sleep(Duration::from_micros(50));
            self.pump();
        }
    }

    /// Drops journal entries the worker has confirmed applied.
    fn gc_journal(&mut self, w: usize) {
        let applied = self.shared.cells[w].applied.load(Ordering::Acquire);
        while self.journal[w].front().is_some_and(|job| job.seq < applied) {
            self.journal[w].pop_front();
        }
    }

    /// Retries ticket cancellation for lost jobs; each pass is non-blocking
    /// (a job whose predecessors are still in flight stays in the backlog).
    fn cancel_pass(&mut self) {
        if self.cancel_backlog.is_empty() {
            return;
        }
        let shared = Arc::clone(&self.shared);
        self.cancel_backlog.retain(|job| !shared.try_cancel(job));
    }

    /// One non-blocking maintenance sweep: cancel lost tickets, respawn (or
    /// abandon) dead workers, and move outbox chunks into worker queues with
    /// `try_send`. Every dispatcher-side wait loops over this, which is what
    /// makes the recovery protocol deadlock-free — no step here can block on
    /// a worker, and workers only ever wait on tickets that a future pump
    /// releases (via apply, replay, or cancellation).
    fn pump(&mut self) {
        self.cancel_pass();
        let metrics = crate::obs::engine_metrics();
        let depth = self.outbox.iter().map(VecDeque::len).sum::<usize>();
        metrics.outbox_depth.set(depth as f64);
        if depth > self.outbox_hwm {
            self.outbox_hwm = depth;
            metrics.outbox_depth_hwm.set(depth as f64);
        }
        // Per-shard backlog plus the load-imbalance ratio (max applied /
        // mean applied): pre-registered gauge handles and relaxed atomic
        // loads only — the pump runs in every dispatcher wait loop.
        let mut max_applied = 0u64;
        let mut sum_applied = 0u64;
        for w in 0..self.options.shards {
            self.backlog_gauges[w].set(self.outbox[w].len() as f64);
            let applied = self.shared.cells[w].applied.load(Ordering::Acquire);
            max_applied = max_applied.max(applied);
            sum_applied += applied;
        }
        if sum_applied > 0 {
            let mean = sum_applied as f64 / self.options.shards as f64;
            metrics.shard_imbalance.set(max_applied as f64 / mean);
        }
        for w in 0..self.options.shards {
            if self.abandoned[w] {
                continue;
            }
            if !self.shared.cells[w].alive.load(Ordering::Acquire) {
                self.respawn_or_abandon(w);
                if self.abandoned[w] || !self.shared.cells[w].alive.load(Ordering::Acquire) {
                    continue;
                }
            }
            self.gc_journal(w);
            while let Some(chunk) = self.outbox[w].pop_front() {
                match self.senders[w].try_send(chunk) {
                    Ok(()) => {}
                    Err(TrySendError::Full(back)) => {
                        crate::obs::engine_metrics().queue_full.inc();
                        self.outbox[w].push_front(back);
                        break;
                    }
                    Err(TrySendError::Disconnected(back)) => {
                        // Died between the health check and the send; the
                        // next pump respawns and rebuilds the outbox.
                        self.outbox[w].push_front(back);
                        break;
                    }
                }
            }
        }
    }

    /// Recovers a dead worker: roll back torn in-flight state, respawn the
    /// thread on a fresh channel, and stage the unapplied journal suffix
    /// for replay. Once the respawn budget is exhausted the worker is
    /// abandoned instead (unapplied jobs counted lost, tickets cancelled).
    fn respawn_or_abandon(&mut self, w: usize) {
        // A crash mid-update left the two touched entities torn; restore
        // their pre-update snapshot (no-op if the job's tickets committed).
        self.shared.rollback_inflight(w);
        if self.respawns[w] >= self.options.max_respawns {
            self.abandon_worker(w);
            return;
        }
        self.respawns[w] += 1;
        if let Some(handle) = self.workers[w].take() {
            let _ = handle.join();
        }
        match self.spawn_worker(w, self.respawns[w]) {
            Ok((tx, handle)) => {
                crate::obs::engine_metrics().respawns.inc();
                self.senders[w] = tx;
                self.workers[w] = Some(handle);
                self.shared.cells[w].alive.store(true, Ordering::Release);
                // Rebuild the outbox as the unapplied journal suffix. Jobs
                // the dead incarnation applied without confirming are
                // skipped by the ticket check on replay, so each accepted
                // sample still applies exactly once.
                self.gc_journal(w);
                self.outbox[w].clear();
                self.replayed += self.journal[w].len() as u64;
                crate::obs::engine_metrics()
                    .jobs_replayed
                    .add(self.journal[w].len() as u64);
                qos_obs::global().trace().event(
                    "engine_respawn",
                    format!("worker {w} replaying {} jobs", self.journal[w].len()),
                );
                let chunk_size = self.options.chunk_size.max(1);
                let mut chunk: Vec<Job> = Vec::new();
                for job in &self.journal[w] {
                    chunk.push(*job);
                    if chunk.len() >= chunk_size {
                        self.outbox[w].push_back(std::mem::take(&mut chunk));
                    }
                }
                if !chunk.is_empty() {
                    self.outbox[w].push_back(chunk);
                }
            }
            Err(_) => {
                // OS refused a thread; the worker stays dead and the next
                // pump retries, bounded by the respawn budget.
            }
        }
    }

    /// Gives up on worker `w`: counts its unapplied jobs as lost, releases
    /// their ordering tickets, and stops routing to it — so `drain`
    /// completes (degraded) instead of hanging forever.
    fn abandon_worker(&mut self, w: usize) {
        if self.abandoned[w] {
            return;
        }
        self.abandoned[w] = true;
        self.gc_journal(w);
        self.outbox[w].clear();
        let lost = std::mem::take(&mut self.journal[w]);
        let metrics = crate::obs::engine_metrics();
        metrics.workers_abandoned.inc();
        metrics.samples_lost.add(lost.len() as u64);
        qos_obs::global().trace().event(
            "engine_abandon",
            format!("worker {w} lost {} jobs", lost.len()),
        );
        self.lost += lost.len() as u64;
        self.cancel_backlog.extend(lost);
        self.cancel_pass();
    }

    fn flush(&mut self) {
        for w in 0..self.pending.len() {
            if !self.pending[w].is_empty() {
                let chunk = std::mem::take(&mut self.pending[w]);
                self.dispatch(w, chunk);
            }
        }
    }

    fn shutdown(&mut self) {
        self.senders.clear(); // closes every channel
        for handle in self.workers.iter_mut().filter_map(Option::take) {
            let _ = handle.join();
        }
    }

    /// Assembles one side's state into a dense model slab, materializing
    /// never-touched ids below the watermark with their deterministic fresh
    /// state (matching the sequential model's dense registration).
    fn collect_slab(&self, kind: EntityKind, count: usize) -> FactorSlab {
        let stripes = match kind {
            EntityKind::User => &self.shared.users,
            EntityKind::Service => &self.shared.services,
        };
        let mut slab = FactorSlab::with_capacity(self.shared.config.dimension, count);
        for id in 0..count {
            let guard = lock(&stripes[id % self.options.shards]);
            match guard.index.get(&id) {
                Some(&slot) => slab.push_copied(guard.factors_at(slot), guard.trackers[slot]),
                None => slab.push_fresh(&self.shared.config, kind, id),
            }
        }
        slab
    }
}

impl Drop for ParityCore {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// In-thread fast path for `K = 1` under [`Consistency::Parity`]: a single
/// shard has no cross-thread parallelism to win, so routing samples through
/// a channel, a ticket check, and a stripe mutex only taxes the sequential
/// kernel (~4× in `BENCH_CORE.json` before this path existed). The fast lane
/// applies samples directly on the calling thread via [`AmfModel::observe`]
/// — which *is* the sequential reference, so parity holds by definition.
struct FastLane {
    model: AmfModel,
    /// Samples applied by this engine (excludes the wrapped model's
    /// pre-existing updates).
    applied: u64,
    /// Per-entity applied stream indices, kept only under
    /// [`EngineOptions::record_history`].
    user_histories: Vec<Vec<u64>>,
    service_histories: Vec<Vec<u64>>,
    options: EngineOptions,
}

impl FastLane {
    fn from_model(model: AmfModel, options: EngineOptions) -> Self {
        Self {
            model,
            applied: 0,
            user_histories: Vec::new(),
            service_histories: Vec::new(),
            options,
        }
    }

    fn feed_batch<I>(&mut self, samples: I)
    where
        I: IntoIterator<Item = (usize, usize, f64)>,
    {
        let started = std::time::Instant::now();
        let mut n = 0u64;
        for (user, service, raw) in samples {
            if self.options.record_history {
                let index = self.applied + n;
                if self.user_histories.len() <= user {
                    self.user_histories.resize_with(user + 1, Vec::new);
                }
                if self.service_histories.len() <= service {
                    self.service_histories.resize_with(service + 1, Vec::new);
                }
                self.user_histories[user].push(index);
                self.service_histories[service].push(index);
            }
            self.model.observe(user, service, raw);
            n += 1;
        }
        self.applied += n;
        if n > 0 {
            // The fast lane has no dispatcher, but its ingestion still shows
            // up on the engine counters (one "chunk" per feed call, timed as
            // shard 0's apply) so obs-level invariants — samples in means
            // jobs dispatched, applies have a latency — hold across every
            // lane.
            let metrics = crate::obs::engine_metrics();
            metrics.chunks_dispatched.inc();
            metrics.jobs_dispatched.add(n);
            metrics
                .fast_chunk_apply_ns
                .record_duration(started.elapsed());
        }
    }

    fn history_of(histories: &[Vec<u64>], id: usize, out: &mut Vec<u64>) -> bool {
        match histories.get(id) {
            Some(h) => {
                out.extend_from_slice(h);
                true
            }
            None => false,
        }
    }
}

/// The lane a [`ShardedEngine`] routed to at construction.
enum Lane {
    /// `K = 1`, parity, no fault plan: in-thread sequential fast path.
    Fast(FastLane),
    /// `K ≥ 2` (or any fault plan) under [`Consistency::Parity`]: the
    /// ticketed, journaled, bitwise-exact threaded core.
    Parity(ParityCore),
    /// [`Consistency::Relaxed`]: the Hogwild-style epoch-claim lane.
    Relaxed(crate::relaxed::RelaxedLane),
}

/// Concurrent wrapper around the AMF model state: ingests a QoS stream
/// across `K` shards under a selectable [`Consistency`] contract, and
/// survives worker crashes (see the module docs for the parity recovery
/// protocol, and DESIGN.md §13 for the relaxed lane's weaker guarantee).
///
/// Construction routes to one of three lanes:
///
/// * [`Consistency::Parity`] with `shards == 1` and no fault plan — the
///   in-thread fast lane: samples run through [`AmfModel::observe`] on the
///   calling thread, which is bitwise-equal to sequential by definition and
///   skips the channel/ticket/mutex tax entirely.
/// * [`Consistency::Parity`] otherwise — the ticketed threaded core with
///   journal replay and bitwise sequential equivalence.
/// * [`Consistency::Relaxed`] — the lock-free fast lane: entity-striped
///   atomic epoch claims, no ordering tickets, statistical (not bitwise)
///   equivalence, enforced by `tests/relaxed_parity.rs`.
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
    /// attached: workers consult `plan` at every apply and crash or stall
    /// where scripted. In parity mode a plan forces
    /// [`EngineOptions::inflight_backup`] on (mid-update kills roll back
    /// exactly); in relaxed mode recovery re-applies the in-flight sample
    /// instead (at-least-once — see [`Consistency::Relaxed`]).
    ///
    /// # Errors
    ///
    /// Returns [`AmfError::InvalidConfig`] for invalid options.
    pub fn from_model_with_plan(
        model: AmfModel,
        options: EngineOptions,
        plan: Option<Arc<FaultPlan>>,
    ) -> Result<Self, AmfError> {
        options.validate()?;
        let lane = match options.consistency {
            Consistency::Relaxed => Lane::Relaxed(crate::relaxed::RelaxedLane::from_model(
                model, options, plan,
            )),
            // A fault plan needs a worker thread to kill: keep K = 1 on the
            // threaded core when one is attached (the fault suites depend on
            // it); collapse to the in-thread path otherwise.
            Consistency::Parity if options.shards == 1 && plan.is_none() => {
                Lane::Fast(FastLane::from_model(model, options))
            }
            Consistency::Parity => {
                Lane::Parity(ParityCore::from_model_with_plan(model, options, plan)?)
            }
        };
        Ok(Self { lane })
    }

    /// The engine's tuning options.
    pub fn options(&self) -> &EngineOptions {
        match &self.lane {
            Lane::Fast(fast) => &fast.options,
            Lane::Parity(core) => core.options(),
            Lane::Relaxed(lane) => lane.options(),
        }
    }

    /// The model hyperparameters.
    pub fn config(&self) -> &AmfConfig {
        match &self.lane {
            Lane::Fast(fast) => fast.model.config(),
            Lane::Parity(core) => core.config(),
            Lane::Relaxed(lane) => lane.config(),
        }
    }

    /// The consistency contract this engine runs under.
    pub fn consistency(&self) -> Consistency {
        self.options().consistency
    }

    /// Number of samples accepted by [`ShardedEngine::feed_batch`] /
    /// queued by [`ShardedEngine::feed_batch_shedding`] so far.
    pub fn submitted(&self) -> u64 {
        match &self.lane {
            Lane::Fast(fast) => fast.applied,
            Lane::Parity(core) => core.submitted(),
            Lane::Relaxed(lane) => lane.submitted(),
        }
    }

    /// Number of samples fully applied so far.
    pub fn processed(&self) -> u64 {
        match &self.lane {
            Lane::Fast(fast) => fast.applied,
            Lane::Parity(core) => core.processed(),
            Lane::Relaxed(lane) => lane.processed(),
        }
    }

    /// Aggregate fault counters (all zero in a fault-free run).
    pub fn fault_stats(&self) -> FaultStats {
        match &self.lane {
            Lane::Fast(_) => FaultStats::default(),
            Lane::Parity(core) => core.fault_stats(),
            Lane::Relaxed(lane) => lane.fault_stats(),
        }
    }

    /// The recorded worker deaths, oldest first.
    pub fn fault_events(&self) -> Vec<FaultEvent> {
        match &self.lane {
            Lane::Fast(_) => Vec::new(),
            Lane::Parity(core) => core.fault_events(),
            Lane::Relaxed(lane) => lane.fault_events(),
        }
    }

    /// Whether any shard is currently dead or abandoned — predictions served
    /// meanwhile should be treated as degraded.
    pub fn is_degraded(&self) -> bool {
        match &self.lane {
            Lane::Fast(_) => false,
            Lane::Parity(core) => core.is_degraded(),
            Lane::Relaxed(lane) => lane.is_degraded(),
        }
    }

    /// Queues one observation. Prefer [`ShardedEngine::feed_batch`] for
    /// streams: single samples still flush a whole chunk dispatch.
    pub fn feed(&mut self, user: usize, service: usize, raw: f64) {
        self.feed_batch([(user, service, raw)]);
    }

    /// Queues a batch of `(user, service, raw QoS)` observations. Parity
    /// lanes return once every sample is *queued* (bounded queues apply
    /// backpressure); the relaxed lane returns once every buffered
    /// micro-batch it filled has been applied. Use
    /// [`ShardedEngine::drain`] to wait for full application.
    pub fn feed_batch<I>(&mut self, samples: I)
    where
        I: IntoIterator<Item = (usize, usize, f64)>,
    {
        match &mut self.lane {
            Lane::Fast(fast) => fast.feed_batch(samples),
            Lane::Parity(core) => core.feed_batch(samples),
            Lane::Relaxed(lane) => lane.feed_batch(samples),
        }
    }

    /// Load-shedding admission: like [`ShardedEngine::feed_batch`] but a
    /// chunk that cannot be queued within `policy`'s attempt budget is
    /// dropped instead of blocking, with exact queued/shed counts. The fast
    /// and relaxed lanes apply samples synchronously and never shed.
    pub fn feed_batch_shedding<I>(&mut self, samples: I, policy: ShedPolicy) -> FeedOutcome
    where
        I: IntoIterator<Item = (usize, usize, f64)>,
    {
        match &mut self.lane {
            Lane::Fast(fast) => {
                let before = fast.applied;
                fast.feed_batch(samples);
                FeedOutcome {
                    queued: fast.applied - before,
                    shed: 0,
                }
            }
            Lane::Parity(core) => core.feed_batch_shedding(samples, policy),
            Lane::Relaxed(lane) => lane.feed_batch_shedding(samples),
        }
    }

    /// Registers a user eagerly (id and factors exist before any sample).
    pub fn ensure_user(&mut self, user: usize) {
        match &mut self.lane {
            Lane::Fast(fast) => fast.model.ensure_user(user),
            Lane::Parity(core) => core.ensure_user(user),
            Lane::Relaxed(lane) => lane.ensure_user(user),
        }
    }

    /// Registers a service eagerly; see [`ShardedEngine::ensure_user`].
    pub fn ensure_service(&mut self, service: usize) {
        match &mut self.lane {
            Lane::Fast(fast) => fast.model.ensure_service(service),
            Lane::Parity(core) => core.ensure_service(service),
            Lane::Relaxed(lane) => lane.ensure_service(service),
        }
    }

    /// Blocks until every queued sample has been applied, recovering any
    /// workers that die along the way. Returns early only if a parity worker
    /// exhausts its respawn budget (see [`FaultStats::samples_lost`]).
    pub fn drain(&mut self) {
        match &mut self.lane {
            Lane::Fast(_) => {}
            Lane::Parity(core) => core.drain(),
            Lane::Relaxed(lane) => lane.drain(),
        }
    }

    /// Drains, then assembles the current state into a standalone
    /// [`AmfModel`] (cloning entity state; the engine keeps running).
    pub fn snapshot(&mut self) -> AmfModel {
        match &mut self.lane {
            Lane::Fast(fast) => fast.model.clone(),
            Lane::Parity(core) => core.snapshot(),
            Lane::Relaxed(lane) => lane.snapshot(),
        }
    }

    /// Drains, stops any workers, and returns the final model.
    pub fn into_model(self) -> AmfModel {
        match self.lane {
            Lane::Fast(fast) => fast.model,
            Lane::Parity(core) => core.into_model(),
            Lane::Relaxed(lane) => lane.into_model(),
        }
    }

    /// Copies the global stream indices applied to `user` (in application
    /// order) into `out`, replacing its contents and reusing its capacity.
    /// Returns `false` — with `out` cleared — unless
    /// [`EngineOptions::record_history`] is on and the user has a slot.
    /// Call [`ShardedEngine::drain`] first for a complete log.
    pub fn user_history_into(&self, user: usize, out: &mut Vec<u64>) -> bool {
        out.clear();
        if !self.options().record_history {
            return false;
        }
        match &self.lane {
            Lane::Fast(fast) => FastLane::history_of(&fast.user_histories, user, out),
            Lane::Parity(core) => core.user_history_into(user, out),
            Lane::Relaxed(_) => false, // rejected by validate()
        }
    }

    /// Like [`ShardedEngine::user_history_into`] for a service.
    pub fn service_history_into(&self, service: usize, out: &mut Vec<u64>) -> bool {
        out.clear();
        if !self.options().record_history {
            return false;
        }
        match &self.lane {
            Lane::Fast(fast) => FastLane::history_of(&fast.service_histories, service, out),
            Lane::Parity(core) => core.service_history_into(service, out),
            Lane::Relaxed(_) => false,
        }
    }

    /// Global stream indices applied to `user`, as an owned vector; see
    /// [`ShardedEngine::user_history_into`] for the allocation-free variant.
    pub fn user_history(&self, user: usize) -> Option<Vec<u64>> {
        let mut out = Vec::new();
        self.user_history_into(user, &mut out).then_some(out)
    }

    /// Global stream indices applied to `service`; see
    /// [`ShardedEngine::user_history`].
    pub fn service_history(&self, service: usize) -> Option<Vec<u64>> {
        let mut out = Vec::new();
        self.service_history_into(service, &mut out).then_some(out)
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
                EngineOptions {
                    shards,
                    chunk_size: 32,
                    ..EngineOptions::default()
                },
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
    fn backup_mode_keeps_bitwise_parity() {
        // The in-flight backup path must not perturb results when nothing
        // crashes.
        let samples = stream(3_000, 11, 23);
        let expected = sequential(&samples);
        let mut engine = ShardedEngine::new(
            AmfConfig::response_time(),
            EngineOptions {
                shards: 3,
                chunk_size: 64,
                inflight_backup: true,
                ..EngineOptions::default()
            },
        )
        .unwrap();
        engine.feed_batch(samples.iter().copied());
        let got = engine.into_model();
        assert!(factors_equal(&expected, &got));
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
    fn history_matches_stream_order() {
        let samples = stream(600, 5, 9);
        let mut engine = ShardedEngine::new(
            AmfConfig::response_time(),
            EngineOptions {
                shards: 3,
                chunk_size: 16,
                record_history: true,
                ..EngineOptions::default()
            },
        )
        .unwrap();
        engine.feed_batch(samples.iter().copied());
        engine.drain();
        for u in 0..5 {
            let expected: Vec<u64> = samples
                .iter()
                .enumerate()
                .filter(|(_, &(user, _, _))| user == u)
                .map(|(i, _)| i as u64)
                .collect();
            assert_eq!(engine.user_history(u).unwrap(), expected, "user {u}");
        }
        for s in 0..9 {
            let expected: Vec<u64> = samples
                .iter()
                .enumerate()
                .filter(|(_, &(_, service, _))| service == s)
                .map(|(i, _)| i as u64)
                .collect();
            assert_eq!(engine.service_history(s).unwrap(), expected, "service {s}");
        }
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
    fn injected_kill_recovers_with_parity() {
        let samples = stream(2_000, 9, 15);
        let expected = sequential(&samples);
        let plan = Arc::new(FaultPlan::new(0).kill_worker(1, 40, KillPhase::Before));
        let mut engine = ShardedEngine::from_model_with_plan(
            AmfModel::new(AmfConfig::response_time()).unwrap(),
            EngineOptions {
                shards: 3,
                chunk_size: 16,
                ..EngineOptions::default()
            },
            Some(plan),
        )
        .unwrap();
        engine.feed_batch(samples.iter().copied());
        engine.drain();
        let stats = engine.fault_stats();
        assert_eq!(stats.worker_panics, 1);
        assert_eq!(stats.injected_panics, 1);
        assert_eq!(stats.respawns, 1);
        assert_eq!(stats.samples_lost, 0);
        assert!(stats.jobs_replayed > 0);
        let got = engine.into_model();
        assert!(factors_equal(&expected, &got), "kill recovery broke parity");
        assert_eq!(got.update_count(), samples.len() as u64);
    }

    #[test]
    fn mid_update_kill_rolls_back_and_recovers() {
        let samples = stream(1_500, 7, 13);
        let expected = sequential(&samples);
        let plan = Arc::new(FaultPlan::new(0).kill_worker(0, 25, KillPhase::Mid));
        let mut engine = ShardedEngine::from_model_with_plan(
            AmfModel::new(AmfConfig::response_time()).unwrap(),
            EngineOptions {
                shards: 2,
                chunk_size: 8,
                ..EngineOptions::default()
            },
            Some(plan),
        )
        .unwrap();
        engine.feed_batch(samples.iter().copied());
        let got = engine.into_model();
        assert!(
            factors_equal(&expected, &got),
            "mid-update rollback broke parity"
        );
    }

    #[test]
    fn respawn_budget_abandons_instead_of_hanging() {
        let mut plan = FaultPlan::new(0);
        // Kill worker 0 on every respawn attempt at the same job.
        for _ in 0..50 {
            plan = plan.kill_worker(0, 10, KillPhase::Before);
        }
        // All kills share (worker, job, phase); each fires once, so each
        // respawned incarnation dies again at job 10 until the budget runs
        // out.
        let plan = Arc::new(plan);
        let samples = stream(400, 4, 6);
        let mut engine = ShardedEngine::from_model_with_plan(
            AmfModel::new(AmfConfig::response_time()).unwrap(),
            EngineOptions {
                shards: 2,
                chunk_size: 8,
                max_respawns: 3,
                ..EngineOptions::default()
            },
            Some(plan),
        )
        .unwrap();
        engine.feed_batch(samples.iter().copied());
        engine.drain(); // must terminate
        let stats = engine.fault_stats();
        assert_eq!(stats.abandoned_workers, 1);
        assert!(stats.samples_lost > 0);
        assert!(engine.is_degraded());
        // The surviving shard's work is intact and the model is usable.
        let model = engine.into_model();
        assert!(model.update_count() > 0);
        assert!(model.update_count() < samples.len() as u64);
    }

    #[test]
    fn shedding_on_stalled_worker_drops_with_exact_counts() {
        // Stall worker 0 long enough that its 1-chunk queue stays full.
        let plan = Arc::new(FaultPlan::new(0).stall_worker(0, 0, Duration::from_millis(150)));
        let mut engine = ShardedEngine::from_model_with_plan(
            AmfModel::new(AmfConfig::response_time()).unwrap(),
            EngineOptions {
                shards: 1,
                chunk_size: 4,
                queue_capacity: 1,
                ..EngineOptions::default()
            },
            Some(plan),
        )
        .unwrap();
        let samples = stream(200, 3, 5);
        let outcome = engine.feed_batch_shedding(
            samples.iter().copied(),
            ShedPolicy {
                max_attempts: 2,
                backoff: Duration::from_micros(100),
            },
        );
        assert_eq!(outcome.queued + outcome.shed, 200);
        assert!(outcome.shed > 0, "stall should force shedding");
        assert!(outcome.queued > 0, "first chunks fit the queue");
        let model = engine.into_model();
        assert_eq!(model.update_count(), outcome.queued);
    }

    #[test]
    fn shedding_without_pressure_queues_everything() {
        let samples = stream(1_000, 6, 9);
        let expected = sequential(&samples);
        let mut engine = ShardedEngine::new(
            AmfConfig::response_time(),
            EngineOptions {
                shards: 2,
                chunk_size: 32,
                ..EngineOptions::default()
            },
        )
        .unwrap();
        let outcome = engine.feed_batch_shedding(samples.iter().copied(), ShedPolicy::default());
        assert_eq!(outcome.shed, 0);
        assert_eq!(outcome.queued, 1_000);
        let got = engine.into_model();
        assert!(
            factors_equal(&expected, &got),
            "unshed run must keep parity"
        );
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
    fn relaxed_options_reject_history_and_zero_batch() {
        let history = EngineOptions {
            record_history: true,
            ..EngineOptions::with_consistency(2, Consistency::Relaxed)
        };
        assert!(matches!(
            ShardedEngine::new(AmfConfig::response_time(), history),
            Err(AmfError::InvalidConfig(_))
        ));
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
    fn fast_lane_records_history_at_single_shard() {
        // K=1 without a plan routes to the in-thread fast lane, which must
        // honor the history contract the threaded core provides.
        let samples = stream(300, 4, 7);
        let mut engine = ShardedEngine::new(
            AmfConfig::response_time(),
            EngineOptions {
                shards: 1,
                record_history: true,
                ..EngineOptions::default()
            },
        )
        .unwrap();
        engine.feed_batch(samples.iter().copied());
        for u in 0..4 {
            let expected: Vec<u64> = samples
                .iter()
                .enumerate()
                .filter(|(_, &(user, _, _))| user == u)
                .map(|(i, _)| i as u64)
                .collect();
            assert_eq!(engine.user_history(u).unwrap(), expected, "user {u}");
        }
        let expected: Vec<u64> = samples
            .iter()
            .enumerate()
            .filter(|(_, &(_, service, _))| service == 2)
            .map(|(i, _)| i as u64)
            .collect();
        assert_eq!(engine.service_history(2).unwrap(), expected);
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
    fn relaxed_injected_kill_reapplies_and_counts_once() {
        let samples = stream(2_000, 9, 15);
        let plan = Arc::new(FaultPlan::new(0).kill_worker(1, 40, KillPhase::Mid));
        let mut engine = ShardedEngine::from_model_with_plan(
            AmfModel::new(AmfConfig::response_time()).unwrap(),
            EngineOptions {
                relaxed_batch: 512,
                ..EngineOptions::with_consistency(3, Consistency::Relaxed)
            },
            Some(plan),
        )
        .unwrap();
        engine.feed_batch(samples.iter().copied());
        engine.drain();
        let stats = engine.fault_stats();
        assert_eq!(stats.worker_panics, 1);
        assert_eq!(stats.injected_panics, 1);
        assert_eq!(stats.respawns, 1);
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
    fn relaxed_respawn_budget_degrades_instead_of_hanging() {
        let mut plan = FaultPlan::new(0);
        for _ in 0..50 {
            plan = plan.kill_worker(0, 10, KillPhase::Before);
        }
        let plan = Arc::new(plan);
        let samples = stream(400, 4, 6);
        let mut engine = ShardedEngine::from_model_with_plan(
            AmfModel::new(AmfConfig::response_time()).unwrap(),
            EngineOptions {
                relaxed_batch: 128,
                max_respawns: 3,
                ..EngineOptions::with_consistency(2, Consistency::Relaxed)
            },
            Some(plan),
        )
        .unwrap();
        engine.feed_batch(samples.iter().copied());
        engine.drain(); // must terminate
        let stats = engine.fault_stats();
        assert!(stats.samples_lost > 0);
        assert!(engine.is_degraded());
        let model = engine.into_model();
        assert!(model.update_count() > 0);
        assert!(model.update_count() < samples.len() as u64);
        assert!(engine_stats_finite(&model));
    }
}
