//! The serving plane: a `poll(2)` readiness loop + EDF pending queue +
//! fixed worker pool over a [`QosPredictionService`], with keep-alive,
//! pipelining, deadlines, admission control, and a graceful drain.
//!
//! ## Architecture (DESIGN.md §15)
//!
//! One **poller** thread owns every socket: the listener, a wake channel,
//! and a bounded table of non-blocking client connections (each a
//! [`crate::conn::ConnState`] state machine). Requests parsed off a
//! connection are stamped with a deadline expiry and admitted into a
//! bounded **earliest-deadline-first queue** ([`crate::edf::EdfQueue`]);
//! a fixed pool of **workers** pops the soonest-to-expire request, routes
//! it through the prediction service, and sends the completion back to the
//! poller (wake channel), which flushes responses **in request order** per
//! connection — pipelined clients get HTTP/1.1 semantics even though the
//! work completes out of order.
//!
//! ## Admission control (three levels)
//!
//! 1. **Connection table full** — the poller stops polling the listener:
//!    accept backpressure, new connections wait in the SYN backlog.
//! 2. **EDF queue full** — the request is answered `503 overloaded`
//!    inline, without touching a worker (fast-reject).
//! 3. **Deadline** — a request whose `x-amf-deadline-ms` budget is already
//!    zero fast-rejects inline; workers re-check expiry at pop (reject
//!    after queue wait) and handlers re-check mid-batch.
//!
//! Per-connection fairness: a connection may have at most 32 requests in
//! flight — beyond that the poller stops re-arming its reads (TCP
//! backpressure), so one greedy pipelined peer cannot monopolize queue
//! slots.
//!
//! ## Drain
//!
//! [`ServePlane::stop`] flips the draining flag (visible in `/healthz`),
//! closes the EDF queue (workers flush every admitted request, then
//! exit), and wakes the poller, which stops re-arming reads, answers
//! still-arriving connections `503 draining`, renders every in-flight
//! response with `Connection: close`, and exits once the last connection
//! flushes — an *idle* keep-alive client cannot hang the drain.

use crate::conn::{CompletedResponse, ConnState, ReadEvent, ReadOutcome, ReqTiming, RespKind};
use crate::edf::{EdfQueue, PushError};
use crate::http::{self, Request};
use crate::poller::{self, PollFd, WakeReceiver, Waker, INTEREST_READ, INTEREST_WRITE};
use qos_obs::{FlightRecorder, Json, LogConfig, Ring, StageClock, TailExemplars, TraceRecord};
use qos_service::telemetry::health_body_from;
use qos_service::QosPredictionService;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Schema tag of every JSON body the plane emits.
pub const SERVE_SCHEMA: &str = "amf-serve/v1";

/// Poller tick: upper bound on how long completions/timeouts wait when no
/// socket readiness arrives (wakes cut it short).
const TICK: Duration = Duration::from_millis(25);

/// Per-connection in-flight quota: beyond it reads pause (TCP
/// backpressure) until responses flush.
const MAX_INFLIGHT_PER_CONN: u64 = 32;

/// First value of the minted-trace-id counter (ids are `amf-<16 hex>`).
const TRACE_SEED: u64 = 1;

/// Slowest-N requests kept per interval as tail exemplars.
const EXEMPLAR_CAPACITY: usize = 8;

/// Recent trace records retained for flight dumps.
const FLIGHT_RING_CAPACITY: usize = 256;

/// Deadline-reject fraction per interval that triggers an automatic flight
/// dump (above a minimum sample floor).
const SLO_DUMP_THRESHOLD: f64 = 0.5;

/// Minimum spacing between automatic flight dumps (a manual
/// `POST /debug/dump` bypasses it).
const FLIGHT_COOLDOWN: Duration = Duration::from_millis(500);

/// Serving-plane configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Fixed worker-pool size.
    pub workers: usize,
    /// Bounded EDF-queue capacity; beyond it requests fast-reject `503`.
    pub max_pending: usize,
    /// Per-request body cap (`413` beyond it).
    pub max_body_bytes: usize,
    /// Read window for a partial request (`408` + close past it) and the
    /// write-stall bound for an unresponsive reader.
    pub io_timeout: Duration,
    /// Deadline budget applied when a request carries no
    /// `x-amf-deadline-ms` header.
    pub default_deadline: Duration,
    /// Hard cap on client-supplied deadlines (keeps one client from
    /// pinning a worker arbitrarily long).
    pub max_deadline: Duration,
    /// Bounded connection-table size; at the cap the listener is not
    /// polled (accept backpressure via the SYN backlog).
    pub max_connections: usize,
    /// Requests served per connection before it is closed
    /// (`Connection: close` on the final response).
    pub max_requests_per_conn: u64,
    /// Idle keep-alive connections are closed after this long.
    pub idle_timeout: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            max_pending: 128,
            max_body_bytes: 1024 * 1024,
            io_timeout: Duration::from_secs(2),
            default_deadline: Duration::from_secs(1),
            max_deadline: Duration::from_secs(30),
            max_connections: 256,
            max_requests_per_conn: 1024,
            idle_timeout: Duration::from_secs(30),
        }
    }
}

/// Operational counters of a [`ServePlane`] (all cumulative).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Connections admitted into the connection table.
    pub accepted: u64,
    /// Requests fully parsed and admitted for routing.
    pub requests: u64,
    /// Jobs a worker has popped off the EDF queue.
    pub dequeued: u64,
    /// `200` responses.
    pub ok: u64,
    /// `4xx` protocol-error responses (400/404/405/408/413/422/431).
    pub client_errors: u64,
    /// Fast-rejects: EDF pending queue full (`503`).
    pub rejected_overload: u64,
    /// Deadline rejects: zero budget on arrival, budget burned in queue,
    /// or mid-batch expiry (`503`).
    pub rejected_deadline: u64,
    /// Rejected because the plane was draining (`503`).
    pub rejected_draining: u64,
    /// Worker panics caught by the pool (must stay 0; the pool survives).
    pub worker_panics: u64,
    /// Connections lost to transport errors with work pending.
    pub io_errors: u64,
    /// Keep-alive connections reaped by the idle timeout.
    pub idle_closed: u64,
    /// Observation records queued for training.
    pub observe_queued: u64,
    /// Observation records shed by the bounded input queue.
    pub observe_shed: u64,
    /// Individual predictions served.
    pub predictions: u64,
    /// Predictions answered below the `model` rung (degraded answers).
    pub degraded_answers: u64,
    /// Rank queries served.
    pub ranks: u64,
}

#[derive(Default)]
struct Counters {
    accepted: AtomicU64,
    requests: AtomicU64,
    dequeued: AtomicU64,
    ok: AtomicU64,
    client_errors: AtomicU64,
    rejected_overload: AtomicU64,
    rejected_deadline: AtomicU64,
    rejected_draining: AtomicU64,
    worker_panics: AtomicU64,
    io_errors: AtomicU64,
    idle_closed: AtomicU64,
    observe_queued: AtomicU64,
    observe_shed: AtomicU64,
    predictions: AtomicU64,
    degraded_answers: AtomicU64,
    ranks: AtomicU64,
}

impl Counters {
    fn snapshot(&self) -> ServeStats {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        ServeStats {
            accepted: get(&self.accepted),
            requests: get(&self.requests),
            dequeued: get(&self.dequeued),
            ok: get(&self.ok),
            client_errors: get(&self.client_errors),
            rejected_overload: get(&self.rejected_overload),
            rejected_deadline: get(&self.rejected_deadline),
            rejected_draining: get(&self.rejected_draining),
            worker_panics: get(&self.worker_panics),
            io_errors: get(&self.io_errors),
            idle_closed: get(&self.idle_closed),
            observe_queued: get(&self.observe_queued),
            observe_shed: get(&self.observe_shed),
            predictions: get(&self.predictions),
            degraded_answers: get(&self.degraded_answers),
            ranks: get(&self.ranks),
        }
    }
}

/// One admitted request travelling to the worker pool.
struct Job {
    conn_id: usize,
    gen: u64,
    seq: u64,
    request: Box<Request>,
    expires: Instant,
    enqueued: Instant,
    keep_alive_wanted: bool,
    trace_id: String,
    endpoint: &'static str,
    stages: StageClock,
}

/// A worker's answer travelling back to the poller.
struct Completion {
    conn_id: usize,
    gen: u64,
    seq: u64,
    response: CompletedResponse,
}

struct PlaneState {
    service: Arc<QosPredictionService>,
    config: ServeConfig,
    counters: Counters,
    stop: AtomicBool,
    draining: AtomicBool,
    open_connections: AtomicU64,
    queue: EdfQueue<Job>,
    /// Minted-trace-id counter (starts at `TRACE_SEED`).
    trace_seq: AtomicU64,
    /// Slowest-N requests of the current/previous interval.
    exemplars: TailExemplars,
    /// Last-N completed requests, whatever their latency.
    flight_ring: Ring<TraceRecord>,
    /// Hot-path histograms, resolved once: the registry's by-name lookup
    /// (lock + string scan) is too heavy to repeat per request.
    queue_wait_us: std::sync::Arc<qos_obs::Histogram>,
    deadline_slack_us: std::sync::Arc<qos_obs::Histogram>,
    /// Incident dump sink (file-backed when started with a flight log).
    flight: FlightRecorder,
    /// Cooldown clock for automatic dumps.
    last_dump: Mutex<Option<Instant>>,
}

impl PlaneState {
    /// Mirrors the plane's counters into the process-global registry so
    /// `/metrics` scrapes and snapshots carry `serve.*` families alongside
    /// the service/engine instrumentation.
    fn publish_metrics(&self) {
        let stats = self.counters.snapshot();
        let global = qos_obs::global();
        for (name, value) in [
            ("serve.accepted", stats.accepted),
            ("serve.requests", stats.requests),
            ("serve.ok", stats.ok),
            ("serve.client_errors", stats.client_errors),
            ("serve.rejected_overload", stats.rejected_overload),
            ("serve.rejected_deadline", stats.rejected_deadline),
            ("serve.rejected_draining", stats.rejected_draining),
            ("serve.worker_panics", stats.worker_panics),
            ("serve.io_errors", stats.io_errors),
            ("serve.idle_closed", stats.idle_closed),
            ("serve.observe_queued", stats.observe_queued),
            ("serve.observe_shed", stats.observe_shed),
            ("serve.predictions", stats.predictions),
            ("serve.degraded_answers", stats.degraded_answers),
            ("serve.ranks", stats.ranks),
            ("serve.flight_dumps", self.flight.dumps()),
            ("serve.flight_write_errors", self.flight.write_errors()),
        ] {
            global.counter(name).set(value);
        }
        global
            .gauge("serve.open_connections")
            .set(self.open_connections.load(Ordering::Relaxed) as f64);
        // Mean requests served per admitted connection: the keep-alive
        // reuse signal (1.0 ≙ the old one-request-per-connection plane).
        let per_conn = if stats.accepted > 0 {
            stats.requests as f64 / stats.accepted as f64
        } else {
            0.0
        };
        global.gauge("serve.requests_per_conn").set(per_conn);
        global
            .gauge("serve.draining")
            .set(if self.draining.load(Ordering::Relaxed) {
                1.0
            } else {
                0.0
            });
    }

    fn snapshot(&self) -> Json {
        self.publish_metrics();
        let mut snap = self.service.stats_snapshot();
        snap.set(
            "exemplars",
            Json::Arr(
                self.exemplars
                    .snapshot()
                    .iter()
                    .map(TraceRecord::to_json)
                    .collect(),
            ),
        );
        snap
    }

    /// Extracts (or mints) the trace id for a parsed request. A malformed
    /// client id is *replaced*, never rejected.
    fn trace_id_for(&self, request: &Request) -> String {
        match request.header("x-amf-trace-id") {
            Some(id) if qos_obs::valid_trace_id(id) => id.to_string(),
            _ => qos_obs::mint_trace_id(&self.trace_seq),
        }
    }

    /// Captures the flight recorder's context window (recent records, tail
    /// exemplars, trace events, metrics snapshot) and dumps it. Automatic
    /// triggers (`force == false`) respect the cooldown and return `None`
    /// when suppressed; the manual poke always dumps.
    fn flight_dump(&self, reason: &str, force: bool) -> Option<Json> {
        {
            let mut last = match self.last_dump.lock() {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
            if !force {
                if let Some(at) = *last {
                    if at.elapsed() < FLIGHT_COOLDOWN {
                        return None;
                    }
                }
            }
            *last = Some(Instant::now());
        }
        let records = self.flight_ring.snapshot();
        let exemplars = self.exemplars.snapshot();
        let events = qos_obs::global().trace().events();
        let metrics = self.snapshot();
        Some(
            self.flight
                .dump(reason, &records, &exemplars, &events, &metrics),
        )
    }
}

/// The serving plane. See the module docs for the request lifecycle.
pub struct ServePlane {
    state: Arc<PlaneState>,
    addr: SocketAddr,
    waker: Arc<Waker>,
    poller: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServePlane {
    /// Binds `addr` (port 0 for ephemeral) and starts the poller and the
    /// worker pool.
    ///
    /// # Errors
    ///
    /// Returns the bind/spawn error.
    pub fn start(
        addr: &str,
        service: Arc<QosPredictionService>,
        config: ServeConfig,
    ) -> std::io::Result<Self> {
        Self::start_with_flight(addr, service, config, None)
    }

    /// [`ServePlane::start`] with a file-backed flight recorder: incident
    /// dumps (worker panic, drift alarm, SLO burst, `POST /debug/dump`)
    /// are appended as `amf-flight/v1` JSONL to the rotating log `flight`,
    /// if given.
    ///
    /// # Errors
    ///
    /// Returns the bind/spawn error.
    pub fn start_with_flight(
        addr: &str,
        service: Arc<QosPredictionService>,
        config: ServeConfig,
        flight: Option<LogConfig>,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let bound = listener.local_addr()?;
        let state = Arc::new(PlaneState {
            service,
            config,
            counters: Counters::default(),
            stop: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            open_connections: AtomicU64::new(0),
            queue: EdfQueue::new(config.max_pending.max(1)),
            trace_seq: AtomicU64::new(TRACE_SEED),
            exemplars: TailExemplars::new(EXEMPLAR_CAPACITY),
            flight_ring: Ring::new(FLIGHT_RING_CAPACITY),
            queue_wait_us: qos_obs::global().histogram("serve.queue_wait_us"),
            deadline_slack_us: qos_obs::global().histogram("serve.deadline_slack_us"),
            flight: FlightRecorder::new(flight),
            last_dump: Mutex::new(None),
        });

        let (waker, wake_rx) = poller::wake_pair()?;
        let waker = Arc::new(waker);
        let (completion_tx, completion_rx) = mpsc::channel::<Completion>();

        let mut workers = Vec::with_capacity(config.workers.max(1));
        for i in 0..config.workers.max(1) {
            let worker_state = Arc::clone(&state);
            let tx = completion_tx.clone();
            let worker_waker = Arc::clone(&waker);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("amf-serve-worker-{i}"))
                    .spawn(move || worker_loop(&worker_state, &tx, &worker_waker))?,
            );
        }
        drop(completion_tx);

        let poll_state = Arc::clone(&state);
        let poller = std::thread::Builder::new()
            .name("amf-serve-poller".into())
            .spawn(move || poller_loop(&poll_state, &listener, wake_rx, &completion_rx))?;

        qos_obs::global()
            .trace()
            .event("serve_plane_start", bound.to_string());
        Ok(Self {
            state,
            addr: bound,
            waker,
            poller: Some(poller),
            workers,
        })
    }

    /// The bound address (the real port for port-0 binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current operational counters.
    pub fn stats(&self) -> ServeStats {
        self.state.counters.snapshot()
    }

    /// Connections currently held in the table.
    pub fn open_connections(&self) -> u64 {
        self.state.open_connections.load(Ordering::Relaxed)
    }

    /// Whether the plane is draining (stop initiated).
    pub fn draining(&self) -> bool {
        self.state.draining.load(Ordering::Relaxed)
    }

    /// Graceful drain: stop admitting, flush every queued and in-flight
    /// request (responses carry `Connection: close`), join all threads,
    /// publish a final snapshot. Returns the final counters.
    pub fn stop(mut self) -> ServeStats {
        self.shutdown();
        self.state.counters.snapshot()
    }

    fn shutdown(&mut self) {
        let Some(poller) = self.poller.take() else {
            return;
        };
        // Order matters: draining first (healthz flips, late requests get
        // 503), then stop + queue close so workers flush every admitted
        // job and exit, then wake the poller so it observes the flags
        // without waiting out its tick.
        self.state.draining.store(true, Ordering::SeqCst);
        self.state.stop.store(true, Ordering::SeqCst);
        self.state.queue.close();
        self.waker.wake();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // Workers are gone; every completion is in the channel. Wake once
        // more so the poller flushes them all and winds down.
        self.waker.wake();
        let _ = poller.join();
        self.state.publish_metrics();
        qos_obs::global()
            .trace()
            .event("serve_plane_stop", self.addr.to_string());
    }
}

impl Drop for ServePlane {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for ServePlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServePlane")
            .field("addr", &self.addr)
            .field("stats", &self.stats())
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------------

fn worker_loop(state: &PlaneState, completions: &mpsc::Sender<Completion>, waker: &Waker) {
    while let Some(mut job) = state.queue.pop() {
        state.counters.dequeued.fetch_add(1, Ordering::Relaxed);
        let wait = job.enqueued.elapsed();
        state
            .queue_wait_us
            .record(u64::try_from(wait.as_micros()).unwrap_or(u64::MAX));
        job.stages.set(
            StageClock::QUEUE,
            u64::try_from(wait.as_nanos()).unwrap_or(u64::MAX),
        );

        let mut now = Instant::now();
        let response = if now > job.expires {
            // Reject-after-wait: the queue time burned the whole budget —
            // the client has given up; serving it would be wasted work.
            CompletedResponse::new(
                503,
                "application/json",
                error_body("deadline exceeded in queue"),
                job.keep_alive_wanted,
                RespKind::RejDeadline,
            )
        } else {
            // A panic in one request's handler must never take down the
            // pool; it is counted, answered 500, and the worker moves on.
            let started = now;
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                route(&job.request, state, job.expires)
            }));
            now = Instant::now();
            job.stages.set(
                StageClock::EXECUTE,
                u64::try_from(
                    now.checked_duration_since(started)
                        .unwrap_or(Duration::ZERO)
                        .as_nanos(),
                )
                .unwrap_or(u64::MAX),
            );
            match outcome {
                Ok((status, content_type, body)) => CompletedResponse::new(
                    status,
                    content_type,
                    body,
                    job.keep_alive_wanted,
                    RespKind::from_status(status),
                ),
                Err(_) => {
                    state.counters.worker_panics.fetch_add(1, Ordering::Relaxed);
                    qos_obs::global().trace().event(
                        "serve_worker_panic",
                        format!("endpoint={} trace_id={}", job.endpoint, job.trace_id),
                    );
                    // A handler panic is exactly the incident the flight
                    // recorder exists for: capture the context window now.
                    state.flight_dump("worker_panic", false);
                    CompletedResponse::new(
                        500,
                        "application/json",
                        error_body("internal error"),
                        // A panicked handler leaves no framing doubt, but
                        // trust is gone: close the connection.
                        false,
                        RespKind::Panic,
                    )
                }
            }
        };
        let slack_us = match job.expires.checked_duration_since(now) {
            Some(left) => i64::try_from(left.as_micros()).unwrap_or(i64::MAX),
            None => now
                .checked_duration_since(job.expires)
                .and_then(|over| i64::try_from(over.as_micros()).ok())
                .map_or(i64::MIN, |over| -over),
        };
        let response = response.with_trace(TraceRecord {
            trace_id: std::mem::take(&mut job.trace_id),
            endpoint: job.endpoint,
            status: 0, // bound at flush
            stages: job.stages,
            deadline_slack_us: slack_us,
        });
        if completions
            .send(Completion {
                conn_id: job.conn_id,
                gen: job.gen,
                seq: job.seq,
                response,
            })
            .is_err()
        {
            return;
        }
        waker.wake();
    }
}

// ---------------------------------------------------------------------------
// Poller (event loop)
// ---------------------------------------------------------------------------

enum Token {
    Waker,
    Listener,
    Conn(usize),
}

struct ConnTable {
    slots: Vec<Option<ConnState>>,
    free: Vec<usize>,
    open: usize,
    next_gen: u64,
}

impl ConnTable {
    fn new() -> Self {
        Self {
            slots: Vec::new(),
            free: Vec::new(),
            open: 0,
            next_gen: 1,
        }
    }

    fn insert(&mut self, stream: TcpStream, peer: SocketAddr, now: Instant) -> usize {
        let gen = self.next_gen;
        self.next_gen += 1;
        let conn = ConnState::new(stream, peer, gen, now);
        self.open += 1;
        if let Some(id) = self.free.pop() {
            self.slots[id] = Some(conn);
            id
        } else {
            self.slots.push(Some(conn));
            self.slots.len() - 1
        }
    }

    fn close(&mut self, id: usize) {
        if self.slots[id].take().is_some() {
            self.free.push(id);
            self.open -= 1;
        }
    }
}

fn poller_loop(
    state: &PlaneState,
    listener: &TcpListener,
    mut wake_rx: WakeReceiver,
    completions: &mpsc::Receiver<Completion>,
) {
    let config = state.config;
    let mut table = ConnTable::new();
    let mut fds: Vec<PollFd> = Vec::new();
    let mut tokens: Vec<Token> = Vec::new();
    let mut ready_reads: Vec<usize> = Vec::new();
    let mut drain_started: Option<Instant> = None;
    let drain_grace = config.io_timeout.max(Duration::from_millis(250)) + Duration::from_secs(2);
    // Flight-recorder maintenance cadence: exemplar-window rotation plus
    // the drift-alarm and SLO-burst triggers, once per interval.
    const FLIGHT_INTERVAL: Duration = Duration::from_secs(1);
    let mut last_interval = Instant::now();
    let mut prev_drift = {
        let (user_alarms, service_alarms) = state.service.drift_alarms();
        user_alarms + service_alarms
    };
    let mut prev_requests = 0u64;
    let mut prev_deadline_rejects = 0u64;

    loop {
        let draining = state.draining.load(Ordering::SeqCst);
        let stop = state.stop.load(Ordering::SeqCst);
        if stop {
            if drain_started.is_none() {
                drain_started = Some(Instant::now());
            }
            let grace_over = drain_started.is_some_and(|t| t.elapsed() > drain_grace);
            if table.open == 0 || grace_over {
                break; // remaining connections (if any) drop force-closed
            }
        }

        fds.clear();
        tokens.clear();
        fds.push(PollFd::new(&wake_rx, INTEREST_READ));
        tokens.push(Token::Waker);
        // Accept backpressure: at the table cap the listener is simply not
        // polled — new connections queue in the kernel backlog. During a
        // drain the listener stays polled so late arrivals get a prompt
        // `503 draining` instead of a hang.
        if draining || table.open < config.max_connections {
            fds.push(PollFd::new(listener, INTEREST_READ));
            tokens.push(Token::Listener);
        }
        for (id, slot) in table.slots.iter().enumerate() {
            let Some(conn) = slot else { continue };
            let mut interest = 0i16;
            if conn.wants_read(MAX_INFLIGHT_PER_CONN, request_budget(conn, &config)) {
                interest |= INTEREST_READ;
            }
            if conn.wants_write() {
                interest |= INTEREST_WRITE;
            }
            if interest != 0 {
                fds.push(PollFd::new(&conn.stream, interest));
                tokens.push(Token::Conn(id));
            }
        }

        let _ = poller::poll(&mut fds, TICK);
        let now = Instant::now();

        let mut accept_ready = false;
        ready_reads.clear();
        for (fd, token) in fds.iter().zip(tokens.iter()) {
            match token {
                Token::Waker => {
                    if fd.readable() {
                        wake_rx.drain();
                    }
                }
                Token::Listener => accept_ready = fd.readable(),
                Token::Conn(id) => {
                    if fd.readable() {
                        ready_reads.push(*id);
                    }
                }
            }
        }

        // 1. Worker completions — park each response on its connection
        //    (generation-checked so a recycled slot never gets a stale
        //    response).
        while let Ok(completion) = completions.try_recv() {
            if let Some(conn) = table
                .slots
                .get_mut(completion.conn_id)
                .and_then(Option::as_mut)
            {
                if conn.gen == completion.gen {
                    conn.complete(completion.seq, completion.response);
                }
            }
        }

        // 2. New connections.
        if accept_ready {
            accept_burst(state, listener, &mut table, draining, now);
        }

        // 3. Reads: sockets that turned readable, plus buffered pipelines
        //    whose quota freed up.
        for id in 0..table.slots.len() {
            let Some(conn) = table.slots[id].as_mut() else {
                continue;
            };
            let readable = ready_reads.contains(&id);
            let budget = request_budget(conn, &config);
            if !readable && !conn.wants_parse(MAX_INFLIGHT_PER_CONN, budget) {
                continue;
            }
            let (events, outcome) =
                conn.read_and_parse(config.max_body_bytes, MAX_INFLIGHT_PER_CONN, budget, now);
            for event in events {
                match event {
                    ReadEvent::Request(request, seq, timing) => {
                        admit_request(state, conn, id, seq, request, timing, now);
                    }
                    ReadEvent::Error(e, seq) => {
                        state.counters.requests.fetch_add(1, Ordering::Relaxed);
                        conn.complete(
                            seq,
                            reject(
                                e.status().unwrap_or(400),
                                e.message(),
                                RespKind::ClientError,
                            ),
                        );
                    }
                }
            }
            if outcome == ReadOutcome::HardClose {
                if conn.outstanding() > 0 || conn.wants_write() || conn.has_buffered() {
                    state.counters.io_errors.fetch_add(1, Ordering::Relaxed);
                }
                table.close(id);
            }
        }

        // 4. Flush + write + sweep every connection.
        for id in 0..table.slots.len() {
            let Some(conn) = table.slots[id].as_mut() else {
                continue;
            };
            if draining {
                conn.reads_stopped = true;
            }
            absorb_flushed(
                state,
                conn.flush_ready(draining, config.max_requests_per_conn),
            );
            if conn.wants_write() && conn.write_some(now).is_err() {
                state.counters.io_errors.fetch_add(1, Ordering::Relaxed);
                table.close(id);
                continue;
            }
            let Some(conn) = table.slots[id].as_mut() else {
                continue;
            };
            if conn.done() {
                table.close(id);
                continue;
            }
            // Slowloris guard: a request mid-arrival past the read window
            // is answered 408 and the connection winds down.
            if conn
                .partial_since
                .is_some_and(|t| now.duration_since(t) > config.io_timeout)
            {
                let seq = conn.fail_partial();
                state.counters.requests.fetch_add(1, Ordering::Relaxed);
                conn.complete(
                    seq,
                    reject(408, "request read timed out", RespKind::ClientError),
                );
                absorb_flushed(
                    state,
                    conn.flush_ready(draining, config.max_requests_per_conn),
                );
                let _ = conn.write_some(now);
                continue;
            }
            // Write stall: pending bytes but no progress for a full read
            // window — the peer stopped reading; drop it.
            if conn.wants_write() && now.duration_since(conn.last_activity) > config.io_timeout {
                state.counters.io_errors.fetch_add(1, Ordering::Relaxed);
                table.close(id);
                continue;
            }
            // Idle keep-alive reap (drain closes idles immediately).
            let idle_for = now.duration_since(conn.last_activity);
            let idle = conn.outstanding() == 0 && !conn.wants_write() && !conn.has_buffered();
            if idle && (draining || idle_for > config.idle_timeout) {
                if !draining {
                    state.counters.idle_closed.fetch_add(1, Ordering::Relaxed);
                }
                table.close(id);
            }
        }

        // 5. Flight-recorder maintenance: rotate the exemplar window and
        //    evaluate the automatic dump triggers once per interval.
        if now.duration_since(last_interval) >= FLIGHT_INTERVAL {
            last_interval = now;
            state.exemplars.rotate();
            let (user_alarms, service_alarms) = state.service.drift_alarms();
            let drift = user_alarms + service_alarms;
            if drift > prev_drift {
                state.flight_dump("drift_alarm", false);
            }
            prev_drift = drift;
            let requests = state.counters.requests.load(Ordering::Relaxed);
            let deadline_rejects = state.counters.rejected_deadline.load(Ordering::Relaxed);
            let d_requests = requests.saturating_sub(prev_requests);
            let d_rejects = deadline_rejects.saturating_sub(prev_deadline_rejects);
            // Minimum sample floor so a lone reject on a quiet plane does
            // not read as an SLO incident.
            if d_requests >= 20 && d_rejects as f64 / d_requests as f64 > SLO_DUMP_THRESHOLD {
                state.flight_dump("slo_violation", false);
            }
            prev_requests = requests;
            prev_deadline_rejects = deadline_rejects;
        }

        state
            .open_connections
            .store(table.open as u64, Ordering::Relaxed);
    }
    state.open_connections.store(0, Ordering::Relaxed);
}

/// Counts each rendered response and feeds its trace record (when present)
/// into the flight ring and the tail exemplars.
fn absorb_flushed(state: &PlaneState, rendered: Vec<(u16, RespKind, Option<TraceRecord>)>) {
    for (_, kind, trace) in rendered {
        count_response(state, kind);
        if let Some(record) = trace {
            state.exemplars.offer(&record);
            state.flight_ring.push(record);
        }
    }
}

/// Remaining request budget before `max_requests_per_conn` closes `conn`.
fn request_budget(conn: &ConnState, config: &ServeConfig) -> u64 {
    config
        .max_requests_per_conn
        .saturating_sub(conn.served + conn.outstanding())
}

fn accept_burst(
    state: &PlaneState,
    listener: &TcpListener,
    table: &mut ConnTable,
    draining: bool,
    now: Instant,
) {
    loop {
        match listener.accept() {
            Ok((stream, peer)) => {
                if draining {
                    state
                        .counters
                        .rejected_draining
                        .fetch_add(1, Ordering::Relaxed);
                    reject_inline(state, stream, "draining");
                    continue;
                }
                if table.open >= state.config.max_connections {
                    // Raced past the backpressure gate (burst within one
                    // poll round): shed instead of overfilling the table.
                    state
                        .counters
                        .rejected_overload
                        .fetch_add(1, Ordering::Relaxed);
                    reject_inline(state, stream, "overloaded");
                    continue;
                }
                if stream.set_nonblocking(true).is_err() {
                    state.counters.io_errors.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                let _ = stream.set_nodelay(true);
                state.counters.accepted.fetch_add(1, Ordering::Relaxed);
                table.insert(stream, peer, now);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
            Err(_) => return,
        }
    }
}

/// Best-effort `503` written synchronously from the poller (short write
/// timeout so a slow peer cannot stall the event loop).
fn reject_inline(state: &PlaneState, mut stream: TcpStream, error: &str) {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
    let bytes = http::render_response(503, "application/json", &error_body(error), false);
    if std::io::Write::write_all(&mut stream, &bytes).is_err() {
        state.counters.io_errors.fetch_add(1, Ordering::Relaxed);
    }
}

/// Parses the deadline header and either fast-rejects inline (bad header,
/// zero budget, queue full, draining) or admits the request into the EDF
/// queue. Every path stamps the request's trace: inline rejects finish
/// their stage clock here; admitted jobs carry it to the worker.
fn admit_request(
    state: &PlaneState,
    conn: &mut ConnState,
    conn_id: usize,
    seq: u64,
    request: Box<Request>,
    timing: ReqTiming,
    now: Instant,
) {
    state.counters.requests.fetch_add(1, Ordering::Relaxed);
    let keep_alive_wanted = request.wants_keep_alive();
    let trace_id = state.trace_id_for(&request);
    let endpoint = endpoint_label(&request);
    let admit_started = Instant::now();
    let mut stages = StageClock::new();
    stages.set(StageClock::ACCEPT, timing.accept_ns);
    stages.set(StageClock::PARSE, timing.parse_ns);
    // Finishes the stage clock for a request answered inline from the
    // poller (never queued, never executed).
    let inline_trace =
        |trace_id: String, endpoint: &'static str, mut stages: StageClock, slack_us: i64| {
            stages.set(
                StageClock::ADMISSION,
                u64::try_from(admit_started.elapsed().as_nanos()).unwrap_or(u64::MAX),
            );
            TraceRecord {
                trace_id,
                endpoint,
                status: 0, // bound at flush
                stages,
                deadline_slack_us: slack_us,
            }
        };
    let deadline = match request.header("x-amf-deadline-ms") {
        Some(raw) => match raw.parse::<u64>() {
            Ok(ms) => Duration::from_millis(ms).min(state.config.max_deadline),
            Err(_) => {
                conn.complete(
                    seq,
                    respond(
                        400,
                        error_body("bad x-amf-deadline-ms"),
                        RespKind::ClientError,
                        keep_alive_wanted,
                    )
                    .with_trace(inline_trace(trace_id, endpoint, stages, 0)),
                );
                return;
            }
        },
        None => state.config.default_deadline,
    };
    // Slack available at admission: the whole remaining budget. Observed
    // for every request with a well-formed deadline (including the zero
    // budgets below) so reject-on-arrival tuning sees the full
    // distribution.
    let slack_us = i64::try_from(deadline.as_micros()).unwrap_or(i64::MAX);
    state
        .deadline_slack_us
        .record(u64::try_from(deadline.as_micros()).unwrap_or(u64::MAX));
    // Reject-on-arrival: a zero budget can never be met — answer from the
    // poller without spending a queue slot or a worker.
    if deadline.is_zero() {
        conn.complete(
            seq,
            respond(
                503,
                error_body("deadline exceeded in queue"),
                RespKind::RejDeadline,
                keep_alive_wanted,
            )
            .with_trace(inline_trace(trace_id, endpoint, stages, 0)),
        );
        return;
    }
    stages.set(
        StageClock::ADMISSION,
        u64::try_from(admit_started.elapsed().as_nanos()).unwrap_or(u64::MAX),
    );
    let expires = now + deadline;
    let job = Job {
        conn_id,
        gen: conn.gen,
        seq,
        request,
        expires,
        enqueued: now,
        keep_alive_wanted,
        trace_id,
        endpoint,
        stages,
    };
    match state.queue.try_push(expires, job) {
        Ok(()) => {}
        Err(PushError::Full(job)) => conn.complete(
            seq,
            respond(
                503,
                error_body("overloaded"),
                RespKind::RejOverload,
                keep_alive_wanted,
            )
            .with_trace(inline_trace(
                job.trace_id,
                job.endpoint,
                job.stages,
                slack_us,
            )),
        ),
        Err(PushError::Closed(job)) => conn.complete(
            seq,
            respond(
                503,
                error_body("draining"),
                RespKind::RejDraining,
                keep_alive_wanted,
            )
            .with_trace(inline_trace(
                job.trace_id,
                job.endpoint,
                job.stages,
                slack_us,
            )),
        ),
    }
}

fn respond(
    status: u16,
    body: String,
    kind: RespKind,
    keep_alive_wanted: bool,
) -> CompletedResponse {
    CompletedResponse::new(status, "application/json", body, keep_alive_wanted, kind)
}

/// An error response that also ends the connection (protocol trust gone).
fn reject(status: u16, message: &str, kind: RespKind) -> CompletedResponse {
    respond(status, error_body(message), kind, false)
}

/// Status-class accounting, applied exactly once per response at render
/// time (handler-level counters live in the handlers).
fn count_response(state: &PlaneState, kind: RespKind) {
    let counter = match kind {
        RespKind::Ok => &state.counters.ok,
        RespKind::ClientError => &state.counters.client_errors,
        RespKind::RejOverload => &state.counters.rejected_overload,
        RespKind::RejDeadline => &state.counters.rejected_deadline,
        RespKind::RejDraining => &state.counters.rejected_draining,
        // The panic itself was counted by the worker; the 500 is not an
        // ok/client-error/reject.
        RespKind::Panic => return,
    };
    counter.fetch_add(1, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Routing (unchanged protocol semantics from the blocking plane)
// ---------------------------------------------------------------------------

type RouteResponse = (u16, String, String);

/// Static trace label for a request's route. Known paths get themselves;
/// everything else shares one label so trace storage never allocates on
/// the hot path and dump cardinality cannot be driven by client paths.
fn endpoint_label(request: &Request) -> &'static str {
    match request.route() {
        "/v1/observe" => "/v1/observe",
        "/v1/predict" => "/v1/predict",
        "/v1/rank" => "/v1/rank",
        "/metrics" => "/metrics",
        "/snapshot.json" => "/snapshot.json",
        "/healthz" => "/healthz",
        "/debug/exemplars" => "/debug/exemplars",
        "/debug/dump" => "/debug/dump",
        _ => "other",
    }
}

fn route(request: &Request, state: &PlaneState, expires: Instant) -> RouteResponse {
    let json = |status: u16, body: String| (status, "application/json".to_string(), body);
    match (request.method.as_str(), request.route()) {
        ("POST", "/v1/observe") => handle_observe(request, state),
        ("POST", "/v1/predict") => handle_predict(request, state, expires),
        ("POST", "/v1/rank") => handle_rank(request, state),
        ("GET", "/metrics") => {
            let snapshot = state.snapshot();
            (
                200,
                qos_obs::CONTENT_TYPE.to_string(),
                qos_obs::render_prometheus(&snapshot),
            )
        }
        ("GET", "/snapshot.json") => json(200, state.snapshot().to_string_compact()),
        ("GET", "/healthz") => json(200, health_body_from(&state.snapshot())),
        ("GET", "/debug/exemplars") => {
            let mut out = Json::obj();
            out.set("schema", Json::Str(SERVE_SCHEMA.into()))
                .set("op", Json::Str("exemplars".into()))
                .set(
                    "exemplars",
                    Json::Arr(
                        state
                            .exemplars
                            .snapshot()
                            .iter()
                            .map(TraceRecord::to_json)
                            .collect(),
                    ),
                );
            json(200, out.to_string_compact())
        }
        ("POST", "/debug/dump") => {
            // The manual flight-recorder poke: always dumps (no cooldown)
            // and answers with the dump document itself so callers can
            // inspect it without file access.
            let doc = state.flight_dump("manual", true).unwrap_or_else(Json::obj);
            json(200, doc.to_string_compact())
        }
        ("GET" | "POST", _) => json(404, error_body("not found")),
        _ => json(405, error_body("method not allowed")),
    }
}

/// `POST /v1/observe` — newline-delimited JSON records. Not idempotent:
/// clients must never retry (DESIGN.md §14 retry-safety table). Garbage
/// lines are counted, never fatal; valid records ride the bounded input
/// queue (load-shedding) and are applied in one batch drain.
fn handle_observe(request: &Request, state: &PlaneState) -> RouteResponse {
    let body = match request.body_str() {
        Ok(body) => body,
        Err(e) => return (400, "application/json".to_string(), error_body(e.message())),
    };
    let mut queued = 0u64;
    let mut shed = 0u64;
    let mut invalid = 0u64;
    for line in body.lines().filter(|l| !l.trim().is_empty()) {
        let Some(record) = parse_observe_line(line) else {
            invalid += 1;
            continue;
        };
        if state.service.offer(record) {
            queued += 1;
        } else {
            shed += 1;
        }
    }
    let applied = state.service.drain_inputs() as u64;
    state
        .counters
        .observe_queued
        .fetch_add(queued, Ordering::Relaxed);
    state
        .counters
        .observe_shed
        .fetch_add(shed, Ordering::Relaxed);
    let mut out = Json::obj();
    out.set("schema", Json::Str(SERVE_SCHEMA.into()))
        .set("op", Json::Str("observe".into()))
        .set("queued", Json::UInt(queued))
        .set("shed", Json::UInt(shed))
        .set("invalid", Json::UInt(invalid))
        .set("applied", Json::UInt(applied));
    (200, "application/json".to_string(), out.to_string_compact())
}

fn parse_observe_line(line: &str) -> Option<qos_service::QosRecord> {
    let parsed = Json::parse(line).ok()?;
    let user = parsed.get("user")?.as_str()?.to_string();
    let service = parsed.get("service")?.as_str()?.to_string();
    let timestamp = parsed.get("timestamp").and_then(Json::as_u64).unwrap_or(0);
    // `null` (JSON's only spelling of a non-finite float) maps to NaN so
    // the value still reaches the guard and is *counted* as quarantined
    // garbage rather than silently vanishing at the protocol layer.
    let value = match parsed.get("value") {
        Some(Json::Null) => f64::NAN,
        Some(v) => v.as_f64()?,
        None => return None,
    };
    Some(qos_service::QosRecord {
        user,
        service,
        timestamp,
        value,
    })
}

/// `POST /v1/predict` — newline-delimited `{"user","service"}` pairs.
/// Idempotent (read-only): safe to retry. Every answer is a degraded-mode
/// prediction tagged with its fallback-ladder source; the deadline budget
/// is re-checked between items.
fn handle_predict(request: &Request, state: &PlaneState, expires: Instant) -> RouteResponse {
    let body = match request.body_str() {
        Ok(body) => body,
        Err(e) => return (400, "application/json".to_string(), error_body(e.message())),
    };
    let mut results = Vec::new();
    let mut invalid = 0u64;
    let mut degraded = 0u64;
    for line in body.lines().filter(|l| !l.trim().is_empty()) {
        if Instant::now() > expires {
            // Budget burned mid-batch: a partial answer is not a valid
            // prediction set, and predict is idempotent — fail cleanly and
            // let the client retry with a fresh budget.
            return (
                503,
                "application/json".to_string(),
                error_body("deadline exceeded mid-batch"),
            );
        }
        let pair = Json::parse(line).ok().and_then(|parsed| {
            let user = parsed.get("user")?.as_str()?.to_string();
            let service = parsed.get("service")?.as_str()?.to_string();
            Some((user, service))
        });
        let Some((user, service)) = pair else {
            invalid += 1;
            continue;
        };
        let prediction = state.service.predict_degraded(&user, &service);
        if !prediction.source.is_model() {
            degraded += 1;
        }
        let mut entry = Json::obj();
        entry
            .set("user", Json::Str(user))
            .set("service", Json::Str(service))
            .set("value", Json::Num(prediction.value))
            .set("source", Json::Str(prediction.source.label().into()));
        results.push(entry);
    }
    state
        .counters
        .predictions
        .fetch_add(results.len() as u64, Ordering::Relaxed);
    state
        .counters
        .degraded_answers
        .fetch_add(degraded, Ordering::Relaxed);
    let mut out = Json::obj();
    out.set("schema", Json::Str(SERVE_SCHEMA.into()))
        .set("op", Json::Str("predict".into()))
        .set("invalid", Json::UInt(invalid))
        .set("degraded", Json::UInt(degraded))
        .set("results", Json::Arr(results));
    (200, "application/json".to_string(), out.to_string_compact())
}

/// `POST /v1/rank` — one JSON object `{"user": ..., "k": ...}`. Idempotent
/// (read-only): safe to retry. An unknown user is a clean `422`, not a
/// degraded guess — ranking candidates for nobody is a caller bug.
fn handle_rank(request: &Request, state: &PlaneState) -> RouteResponse {
    let json = |status: u16, body: String| (status, "application/json".to_string(), body);
    let body = match request.body_str() {
        Ok(body) => body,
        Err(e) => return json(400, error_body(e.message())),
    };
    let Ok(parsed) = Json::parse(body.trim()) else {
        return json(400, error_body("rank body is not valid JSON"));
    };
    let Some(user) = parsed.get("user").and_then(Json::as_str) else {
        return json(400, error_body("rank body missing \"user\""));
    };
    let k = parsed
        .get("k")
        .and_then(Json::as_u64)
        .unwrap_or(5)
        .min(1000) as usize;
    match state.service.rank_candidates(user, k) {
        Ok(ranked) => {
            state.counters.ranks.fetch_add(1, Ordering::Relaxed);
            let results = ranked
                .into_iter()
                .map(|(service, value)| {
                    let mut entry = Json::obj();
                    entry
                        .set("service", Json::Str(service))
                        .set("value", Json::Num(value));
                    entry
                })
                .collect();
            let mut out = Json::obj();
            out.set("schema", Json::Str(SERVE_SCHEMA.into()))
                .set("op", Json::Str("rank".into()))
                .set("user", Json::Str(user.to_string()))
                .set("results", Json::Arr(results));
            json(200, out.to_string_compact())
        }
        Err(e) => json(422, error_body_owned(e.to_string())),
    }
}

fn error_body(message: &str) -> String {
    error_body_owned(message.to_string())
}

fn error_body_owned(message: String) -> String {
    let mut out = Json::obj();
    out.set("schema", Json::Str(SERVE_SCHEMA.into()))
        .set("error", Json::Str(message));
    out.to_string_compact()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qos_service::ServiceConfig;
    use std::io::{Read, Write};

    fn test_plane(config: ServeConfig) -> ServePlane {
        let service = Arc::new(QosPredictionService::new(ServiceConfig {
            input_queue_capacity: 1024,
            ..ServiceConfig::default()
        }));
        ServePlane::start("127.0.0.1:0", service, config).expect("bind")
    }

    /// Writes `raw`, half-closes, and reads everything the server sends
    /// (the EOF makes the keep-alive server flush and close).
    fn raw_request(addr: SocketAddr, raw: &[u8]) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(raw).unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        response
    }

    fn post(addr: SocketAddr, path: &str, body: &str, headers: &str) -> (u16, String) {
        let (status, _, body) = post_with_head(addr, path, body, headers);
        (status, body)
    }

    fn post_with_head(
        addr: SocketAddr,
        path: &str,
        body: &str,
        headers: &str,
    ) -> (u16, String, String) {
        let raw = format!(
            "POST {path} HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n{headers}\r\n{body}",
            body.len()
        );
        let response = raw_request(addr, raw.as_bytes());
        let (head, body) = response.split_once("\r\n\r\n").expect("blank line");
        let status = head
            .split_whitespace()
            .nth(1)
            .expect("status")
            .parse()
            .unwrap();
        (status, head.to_string(), body.to_string())
    }

    /// Case-insensitive header lookup in a raw response head.
    fn header_value(head: &str, name: &str) -> Option<String> {
        head.lines().find_map(|line| {
            let (key, value) = line.split_once(':')?;
            key.trim()
                .eq_ignore_ascii_case(name)
                .then(|| value.trim().to_string())
        })
    }

    /// Reads exactly one response off an open keep-alive stream.
    fn read_one_response(stream: &mut TcpStream) -> (u16, String) {
        let (status, _, body) = read_one_response_full(stream);
        (status, body)
    }

    /// Like [`read_one_response`], also returning the raw head.
    fn read_one_response_full(stream: &mut TcpStream) -> (u16, String, String) {
        let mut buf = Vec::new();
        let mut chunk = [0u8; 4096];
        let (head_end, body_len) = loop {
            if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                let head = std::str::from_utf8(&buf[..pos]).unwrap();
                let len = head
                    .lines()
                    .find_map(|l| {
                        l.to_ascii_lowercase()
                            .strip_prefix("content-length:")
                            .map(str::to_string)
                    })
                    .and_then(|v| v.trim().parse::<usize>().ok())
                    .unwrap_or(0);
                break (pos + 4, len);
            }
            let n = stream.read(&mut chunk).unwrap();
            assert!(n > 0, "EOF before response head");
            buf.extend_from_slice(&chunk[..n]);
        };
        while buf.len() < head_end + body_len {
            let n = stream.read(&mut chunk).unwrap();
            assert!(n > 0, "EOF before response body");
            buf.extend_from_slice(&chunk[..n]);
        }
        let head = std::str::from_utf8(&buf[..head_end]).unwrap().to_string();
        let status = head.split_whitespace().nth(1).unwrap().parse().unwrap();
        let body = String::from_utf8(buf[head_end..head_end + body_len].to_vec()).unwrap();
        (status, head, body)
    }

    #[test]
    fn observe_predict_rank_round_trip() {
        let plane = test_plane(ServeConfig::default());
        let addr = plane.local_addr();
        let mut observations = String::new();
        for t in 0..60u64 {
            observations.push_str(&format!(
                "{{\"user\":\"u{}\",\"service\":\"s{}\",\"timestamp\":{t},\"value\":{}}}\n",
                t % 3,
                t % 4,
                0.5 + (t % 5) as f64
            ));
        }
        let (status, body) = post(addr, "/v1/observe", &observations, "");
        assert_eq!(status, 200, "{body}");
        let parsed = Json::parse(&body).unwrap();
        assert_eq!(parsed.get("queued").and_then(Json::as_u64), Some(60));
        assert_eq!(parsed.get("applied").and_then(Json::as_u64), Some(60));
        assert_eq!(parsed.get("shed").and_then(Json::as_u64), Some(0));

        let (status, body) = post(
            addr,
            "/v1/predict",
            "{\"user\":\"u0\",\"service\":\"s1\"}\n{\"user\":\"ghost\",\"service\":\"s1\"}\n",
            "",
        );
        assert_eq!(status, 200, "{body}");
        let parsed = Json::parse(&body).unwrap();
        let results = parsed.get("results").and_then(Json::as_arr).unwrap();
        assert_eq!(results.len(), 2);
        for entry in results {
            let value = entry.get("value").and_then(Json::as_f64).unwrap();
            assert!(value.is_finite());
            assert!(entry.get("source").and_then(Json::as_str).is_some());
        }

        let (status, body) = post(addr, "/v1/rank", "{\"user\":\"u0\",\"k\":2}", "");
        assert_eq!(status, 200, "{body}");
        let parsed = Json::parse(&body).unwrap();
        assert_eq!(
            parsed
                .get("results")
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(2)
        );

        let stats = plane.stop();
        assert_eq!(stats.worker_panics, 0);
        assert_eq!(stats.ok, 3);
        assert_eq!(stats.predictions, 2);
        assert_eq!(stats.ranks, 1);
        assert!(stats.degraded_answers >= 1, "ghost user degrades");
    }

    #[test]
    fn client_trace_ids_echo_and_minted_ids_are_stable_format() {
        let plane = test_plane(ServeConfig::default());
        let addr = plane.local_addr();

        // A well-formed client id is echoed verbatim.
        let observe = "{\"user\":\"u0\",\"service\":\"s0\",\"timestamp\":1,\"value\":0.5}\n";
        let (status, head, _) = post_with_head(
            addr,
            "/v1/observe",
            observe,
            "x-amf-trace-id: my-trace.01\r\n",
        );
        assert_eq!(status, 200);
        assert_eq!(
            header_value(&head, "x-amf-trace-id").as_deref(),
            Some("my-trace.01")
        );
        // The stage breakdown header parses back through the shared codec.
        let stage_us = header_value(&head, "x-amf-stage-us").expect("stage header");
        let parsed = qos_obs::StageClock::parse_header_us(&stage_us).expect("parseable stages");
        assert!(parsed.iter().sum::<u64>() > 0, "{stage_us}");

        // Without a client id the server mints one (amf-<16 hex>).
        let (status, head, _) = post_with_head(addr, "/v1/observe", observe, "");
        assert_eq!(status, 200);
        let minted = header_value(&head, "x-amf-trace-id").expect("minted id");
        assert!(minted.starts_with("amf-"), "{minted}");
        assert_eq!(minted.len(), 4 + 16, "{minted}");

        plane.stop();
    }

    #[test]
    fn malformed_trace_ids_are_replaced_not_rejected() {
        let plane = test_plane(ServeConfig::default());
        let addr = plane.local_addr();
        for bad in ["has space", "semi;colon", &"x".repeat(65)] {
            let (status, head, body) = post_with_head(
                addr,
                "/v1/observe",
                "{\"user\":\"u0\",\"service\":\"s0\",\"timestamp\":1,\"value\":0.5}\n",
                &format!("x-amf-trace-id: {bad}\r\n"),
            );
            assert_eq!(status, 200, "'{bad}' must not 400: {body}");
            let echoed = header_value(&head, "x-amf-trace-id").expect("id header");
            assert_ne!(echoed, bad, "malformed id must be replaced");
            assert!(echoed.starts_with("amf-"), "{echoed}");
        }
        plane.stop();
    }

    #[test]
    fn pipelined_trace_ids_come_back_in_request_order() {
        let plane = test_plane(ServeConfig::default());
        // Three pipelined requests in one write, distinct trace ids.
        let mut batch = String::new();
        for id in ["t-a", "t-b", "t-c"] {
            batch.push_str(&format!(
                "GET /healthz HTTP/1.1\r\nHost: x\r\nx-amf-trace-id: {id}\r\n\r\n"
            ));
        }
        let raw = raw_request(plane.local_addr(), batch.as_bytes());
        // Walk the concatenated responses in arrival order.
        let mut rest = raw.as_str();
        for id in ["t-a", "t-b", "t-c"] {
            let (head, tail) = rest.split_once("\r\n\r\n").expect("response head");
            assert!(head.contains(" 200 "), "{head}");
            assert_eq!(
                header_value(head, "x-amf-trace-id").as_deref(),
                Some(id),
                "responses must flush in request order"
            );
            let body_len: usize = header_value(head, "content-length")
                .and_then(|v| v.parse().ok())
                .expect("content-length");
            rest = &tail[body_len..];
        }
        let stats = plane.stop();
        assert_eq!(stats.accepted, 1);
        assert_eq!(stats.ok, 3);
    }

    #[test]
    fn exemplars_and_slack_histogram_surface_after_traffic() {
        let plane = test_plane(ServeConfig::default());
        let addr = plane.local_addr();
        for i in 0..6 {
            let (status, _) = post(
                addr,
                "/v1/observe",
                &format!(
                    "{{\"user\":\"u{i}\",\"service\":\"s0\",\"timestamp\":1,\"value\":0.5}}\n"
                ),
                "x-amf-deadline-ms: 400\r\n",
            );
            assert_eq!(status, 200);
        }
        // /debug/exemplars exposes the slowest recent requests with ids.
        let response = raw_request(addr, b"GET /debug/exemplars HTTP/1.1\r\nHost: x\r\n\r\n");
        let (_, body) = response.split_once("\r\n\r\n").unwrap();
        let parsed = Json::parse(body).unwrap();
        let exemplars = parsed.get("exemplars").and_then(Json::as_arr).unwrap();
        assert!(!exemplars.is_empty());
        for ex in exemplars {
            assert!(ex.get("trace_id").and_then(Json::as_str).is_some());
            assert!(ex.get("total_us").and_then(Json::as_u64).is_some());
            assert!(ex.get("stages_us").is_some());
        }
        // The deadline-slack histogram rendered into /metrics.
        let metrics = raw_request(addr, b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(
            metrics.contains("amf_serve_deadline_slack_us_bucket"),
            "slack histogram missing from exposition"
        );
        plane.stop();
    }

    #[test]
    fn manual_dump_returns_inline_flight_document() {
        let plane = test_plane(ServeConfig::default());
        let addr = plane.local_addr();
        let (status, body) = post(
            addr,
            "/v1/observe",
            "{\"user\":\"u0\",\"service\":\"s0\",\"timestamp\":1,\"value\":0.5}\n",
            "",
        );
        assert_eq!(status, 200, "{body}");
        let (status, body) = post(addr, "/debug/dump", "", "");
        assert_eq!(status, 200, "{body}");
        let parsed = Json::parse(&body).unwrap();
        assert_eq!(
            parsed.get("schema").and_then(Json::as_str),
            Some("amf-flight/v1")
        );
        assert_eq!(parsed.get("reason").and_then(Json::as_str), Some("manual"));
        assert!(!parsed
            .get("records")
            .and_then(Json::as_arr)
            .unwrap()
            .is_empty());
        plane.stop();
    }

    #[test]
    fn keep_alive_serves_many_requests_on_one_connection() {
        let plane = test_plane(ServeConfig::default());
        let mut stream = TcpStream::connect(plane.local_addr()).unwrap();
        for round in 0..5 {
            stream
                .write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
                .unwrap();
            let (status, body) = read_one_response(&mut stream);
            assert_eq!(status, 200, "round {round}: {body}");
        }
        let stats = plane.stop();
        assert_eq!(stats.accepted, 1, "one connection served every request");
        assert_eq!(stats.ok, 5);
    }

    #[test]
    fn zero_deadline_is_rejected_on_arrival() {
        let plane = test_plane(ServeConfig::default());
        let addr = plane.local_addr();
        let (status, body) = post(
            addr,
            "/v1/predict",
            "{\"user\":\"u\",\"service\":\"s\"}\n",
            "x-amf-deadline-ms: 0\r\n",
        );
        assert_eq!(status, 503, "{body}");
        assert!(body.contains("deadline"));
        let stats = plane.stop();
        assert_eq!(stats.rejected_deadline, 1);
        assert_eq!(stats.worker_panics, 0);
    }

    #[test]
    fn bad_deadline_header_is_400() {
        let plane = test_plane(ServeConfig::default());
        let (status, body) = post(
            plane.local_addr(),
            "/v1/predict",
            "{}",
            "x-amf-deadline-ms: soon\r\n",
        );
        assert_eq!(status, 400, "{body}");
        plane.stop();
    }

    #[test]
    fn unknown_rank_user_is_422_and_routes_404_405() {
        let plane = test_plane(ServeConfig::default());
        let addr = plane.local_addr();
        let (status, _) = post(addr, "/v1/rank", "{\"user\":\"nobody\"}", "");
        assert_eq!(status, 422);
        let (status, _) = post(addr, "/v1/unknown", "{}", "");
        assert_eq!(status, 404);
        let response = raw_request(addr, b"DELETE /v1/rank HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(response.starts_with("HTTP/1.1 405"));
        let stats = plane.stop();
        assert_eq!(stats.worker_panics, 0);
    }

    #[test]
    fn health_metrics_snapshot_served() {
        let plane = test_plane(ServeConfig::default());
        let addr = plane.local_addr();
        let health = raw_request(addr, b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(health.starts_with("HTTP/1.1 200"), "{health}");
        assert!(health.contains("\"status\":\"ok\""), "{health}");
        let metrics = raw_request(addr, b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(
            metrics.contains("amf_serve_requests"),
            "serve counters exported"
        );
        assert!(
            metrics.contains("amf_serve_open_connections"),
            "connection gauge exported: {}",
            &metrics[..metrics.len().min(400)]
        );
        let snapshot = raw_request(addr, b"GET /snapshot.json HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(snapshot.contains(qos_obs::SCHEMA));
        plane.stop();
    }

    #[test]
    fn drain_is_graceful_and_port_released() {
        let plane = test_plane(ServeConfig::default());
        let addr = plane.local_addr();
        let (status, _) = post(
            addr,
            "/v1/observe",
            "{\"user\":\"u\",\"service\":\"s\",\"value\":1.0}\n",
            "",
        );
        assert_eq!(status, 200);
        let stats = plane.stop();
        assert_eq!(stats.worker_panics, 0);
        // Fully drained: the port rebinds immediately.
        assert!(
            TcpListener::bind(addr).is_ok(),
            "port still held after stop"
        );
    }

    #[test]
    fn drain_does_not_hang_on_idle_keep_alive_client() {
        // The PR 8 drain regression: an idle persistent connection (no
        // request in flight, no EOF) must not block stop().
        let plane = test_plane(ServeConfig::default());
        let mut stream = TcpStream::connect(plane.local_addr()).unwrap();
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let (status, _) = read_one_response(&mut stream);
        assert_eq!(status, 200);
        // The connection now sits idle; stop() must still return promptly.
        let started = Instant::now();
        let stats = plane.stop();
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "drain hung on an idle keep-alive client: {:?}",
            started.elapsed()
        );
        assert_eq!(stats.worker_panics, 0);
        // And the idle client observes the close.
        let mut rest = Vec::new();
        stream
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        let _ = stream.read_to_end(&mut rest);
    }

    #[test]
    fn repeated_start_stop_never_hangs() {
        // The drain-path regression pin (poller shape): shutdown must
        // terminate promptly every time, scrape or no scrape.
        for round in 0..25 {
            let plane = test_plane(ServeConfig {
                workers: 2,
                ..ServeConfig::default()
            });
            if round % 3 == 0 {
                let health = raw_request(plane.local_addr(), b"GET /healthz HTTP/1.1\r\n\r\n");
                assert!(health.starts_with("HTTP/1.1 200"));
            }
            let stats = plane.stop();
            assert_eq!(stats.worker_panics, 0, "round {round}");
        }
    }
}
