//! `servebench` — the serving benchmark's HTTP client.
//!
//! Starts the shipped `amf-qos serve` binary on seeded inputs, drives one
//! workload against it over HTTP from this single process (at most two
//! connections; one thread for the HTTP traffic), checks every answer, and
//! prints each metric by name and unit. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics, or with `--trace 1` the per-layer ones.
//!
//! ```text
//! servebench --workload read-small|ingest-paper|adapt-open --seed N
//!            --seconds S --trace 0|1 --server PATH [--layers PATH]
//!            --work-dir DIR
//! ```
//!
//! See `servebench/README.md` for the workloads, metrics and their limits.

mod check;
mod conn;
mod open;
mod record;
mod server;

use conn::Conn;
use open::{OpenLoop, LIMIT_US};
use record::{Tally, TraceLog};
use servebench::inputs::PAIRS_PER_PREDICT;
use servebench::json::{self, Value};
use servebench::stats::{self, Dist, Rung, OVER_LIMIT_SHARE};
use servebench::wire::{self, write_request};
use servebench::{FleetInputs, Kind, Mix, Req, RequestStream, Workload};
use server::Server;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

/// Servers started per run; `setup_s` is the median of their set-ups.
const SETUP_SPAWNS: usize = 5;
/// A run whose `mre` is above this has a broken model, whatever its speed.
const MRE_CEILING: f64 = 1.0;
/// A run whose generator sent its median request later than this after
/// its due time fell behind schedule: it measured the client, not the
/// server, and is invalid. (Its p99 lag is printed; host stalls hit the
/// generator as they hit the server, and timing from the due time already
/// charges them.)
const GEN_LAG_P50_MAX_US: f64 = 1_000.0;
/// `adapt-open`'s fixed offered rate, below the capacity knee.
const REFERENCE_RATE: f64 = 400.0;
/// Ratio between successive ladder rungs.
const LADDER_STEP: f64 = 1.15;
/// Ladder rungs tried at most before giving up on finding the limit.
const LADDER_MAX_RUNGS: usize = 30;
/// Requests per endpoint in the traced run's endpoint sweep.
const SWEEP_PER_KIND: usize = 200;

/// Requests sent, closed loop, before anything is timed. The prefix is a
/// fixed stretch of the workload's own stream, so `mre`, read right after
/// it, sees the same training on every commit.
fn prefix_requests(workload: Workload) -> u64 {
    match workload {
        Workload::ReadSmall => 20_000,
        Workload::IngestPaper | Workload::AdaptOpen => 1_000,
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    server: PathBuf,
    layers: Option<PathBuf>,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut server = None;
    let mut layers = None;
    let mut work_dir = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed: not a number")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "--seconds: not a number")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            "--server" => server = Some(PathBuf::from(value)),
            "--layers" => layers = Some(PathBuf::from(value)),
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds: u64 = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        server: server.ok_or("--server is required")?,
        layers,
        work_dir: work_dir.ok_or("--work-dir is required")?,
    })
}

/// One reported metric.
struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
}

/// Everything a run reports.
#[derive(Default)]
struct Report {
    /// Correctness-checked traffic: every request here must be answered
    /// 2xx and pass the checks.
    checked: Tally,
    /// Further reasons the run is not correct.
    problems: Vec<String>,
    metrics: Vec<Metric>,
    /// Human-readable lines printed before the metrics.
    notes: Vec<String>,
}

impl Report {
    fn metric(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.metrics.push(Metric {
            name: name.into(),
            unit,
            value,
        });
    }

    fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    fn correct(&self) -> bool {
        self.problems.is_empty()
            && self.checked.incorrect == 0
            && self.checked.failed() == 0
            && self.metrics.iter().all(|m| m.value.is_finite())
    }

    fn print(&self) {
        for line in &self.notes {
            println!("{line}");
        }
        for m in &self.metrics {
            println!("metric {:<40} {:>16.4} {}", m.name, m.value, m.unit);
        }
        for e in self.checked.errors.iter().chain(&self.problems) {
            println!("FAILED CHECK: {e}");
        }
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.checked.attempted.max(1),
            self.checked.failed() + self.checked.incorrect
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() {
                format!("{}", m.value)
            } else {
                "null".to_string()
            };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        println!("{out}");
    }
}

enum Stop {
    Count(u64),
    For(Duration),
}

/// The closed loop: one request at a time over `conn`, each timed from its
/// send.
fn closed(
    conn: &mut Conn,
    mut next_req: impl FnMut() -> Req,
    stop: Stop,
    tally: &mut Tally,
    origin: Instant,
) {
    let started = Instant::now();
    let mut bytes = Vec::with_capacity(1024);
    let mut sent_count = 0u64;
    loop {
        match stop {
            Stop::Count(n) if sent_count >= n => break,
            Stop::For(d) if started.elapsed() >= d => break,
            _ => {}
        }
        let req = next_req();
        bytes.clear();
        write_request(&req, &mut bytes);
        let sent = Instant::now();
        let outcome = conn.exchange(&bytes);
        let received = Instant::now();
        let latency_us = received.duration_since(sent).as_secs_f64() * 1e6;
        tally.record(&req, &bytes, outcome, latency_us, (sent, received, origin));
        sent_count += 1;
    }
}

/// Median relative error of the model's predictions for the held-out
/// probe pairs against the generator's ground truth at `slice`.
fn probe_mre(
    conn: &mut Conn,
    inputs: &FleetInputs,
    slice: usize,
    report: &mut Report,
    origin: Instant,
) -> f64 {
    let mut tally = Tally::default();
    let mut chunks = inputs.probe.chunks(PAIRS_PER_PREDICT);
    let requests = chunks.len() as u64;
    let next = || Req::Predict(chunks.next().expect("one chunk per request").to_vec());
    closed(conn, next, Stop::Count(requests), &mut tally, origin);
    let truth = inputs.probe_truth(slice);
    let mre = if tally.values.len() == truth.len() {
        let errors: Vec<f64> = truth
            .iter()
            .zip(&tally.values)
            .filter(|(a, _)| **a > 0.0)
            .map(|(a, p)| (p - a).abs() / a)
            .collect();
        stats::median(&errors)
    } else {
        report.problems.push("probe predictions missing".into());
        f64::NAN
    };
    tally.lat_us.clear();
    report.checked.absorb(tally);
    mre
}

/// Reads `/snapshot.json`'s counters.
fn snapshot(conn: &mut Conn) -> Result<Value, String> {
    let resp = conn.exchange(&wire::get("/snapshot.json"))?;
    if resp.status != 200 {
        return Err(format!("/snapshot.json answered {}", resp.status));
    }
    let doc = json::parse(std::str::from_utf8(&resp.body).map_err(|_| "snapshot is not UTF-8")?)?;
    doc.get("counters")
        .cloned()
        .ok_or_else(|| "snapshot has no counters".into())
}

fn counter_delta(before: &Value, after: &Value, name: &str) -> f64 {
    let get = |v: &Value| v.get(name).and_then(Value::as_f64).unwrap_or(0.0);
    get(after) - get(before)
}

/// Latency and throughput of one timed window.
struct Timed {
    /// Median latency over the window, µs.
    p50: f64,
    /// Blocked p99 (see [`stats::blocked_p99`]), µs.
    p99: f64,
    /// Blocks behind `p99`.
    blocks: usize,
    /// Answers timed.
    n: usize,
    /// Blocked 2xx rate (see [`stats::blocked_rate`]).
    ok_per_s: f64,
}

impl Timed {
    /// `start_s`: when the window's traffic started, seconds since origin.
    fn of(tally: &Tally, start_s: f64) -> Self {
        let (p99, blocks) = stats::blocked_p99(&tally.lat_us);
        Self {
            p50: Dist::of(tally.lat_us.clone()).p50,
            p99,
            blocks,
            n: tally.lat_us.len(),
            ok_per_s: stats::blocked_rate(start_s, &tally.done_s),
        }
    }

    /// A one-connection closed loop offers exactly the rate it achieves,
    /// so that rate is its capacity when it meets the latency limit.
    fn closed_loop_capacity(&self) -> f64 {
        if self.p99 <= LIMIT_US {
            self.ok_per_s
        } else {
            self.ok_per_s * LIMIT_US / self.p99
        }
    }
}

/// `(all, stolen)` CPU time of the host so far, in ticks, from the first
/// line of `/proc/stat`; zeros where it cannot be read.
fn host_cpu() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (ticks.iter().sum(), ticks.get(7).copied().unwrap_or(0))
}

/// Share of the host's CPU time the hypervisor took between two readings
/// of [`host_cpu`]: a measure of how noisy the machine was.
struct Steal {
    from: (u64, u64),
    to: (u64, u64),
}

impl Steal {
    fn share(&self) -> f64 {
        pct(
            self.to.1.saturating_sub(self.from.1),
            self.to.0.saturating_sub(self.from.0),
        )
    }
}

fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

fn run(args: &Args) -> Result<Report, String> {
    let origin = Instant::now();
    let workload = args.workload;
    let secs = args.seconds as f64;
    let inputs = FleetInputs::generate(workload.fleet(), args.seed);
    let dir = args
        .work_dir
        .join(format!("{}-{}", workload.name(), args.seed));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let warm = dir.join("warm.txt");
    std::fs::write(&warm, inputs.warm_triplets())
        .map_err(|e| format!("{}: {e}", warm.display()))?;
    let mut report = Report::default();
    report.note(format!(
        "workload {} seed {} fleet {} warm-up {} triplets, stream {} records, probe {} pairs",
        workload.name(),
        args.seed,
        workload.fleet().label(),
        inputs.warm.len(),
        inputs.stream.len(),
        inputs.probe.len()
    ));

    let mut setups = Vec::with_capacity(SETUP_SPAWNS);
    let mut server: Option<Server> = None;
    for _ in 0..SETUP_SPAWNS {
        drop(server.take());
        let (s, took) = Server::spawn(&args.server, &warm, inputs.warm.len(), &dir)?;
        setups.push(took);
        server = Some(s);
    }
    let server = server.expect("SETUP_SPAWNS > 0");
    let setup_s = stats::median(&setups);
    report.note(format!("setup_s samples {setups:.4?}"));

    let mut stream = RequestStream::new(&inputs, args.seed, workload.mix());
    let mut conn = Conn::new(server.addr());

    // Warm-up window, discarded from timing.
    let mut prefix = Tally::default();
    closed(
        &mut conn,
        || stream.next_req(),
        Stop::Count(prefix_requests(workload)),
        &mut prefix,
        origin,
    );
    prefix.lat_us.clear();
    report.checked.absorb(prefix);
    let mre = probe_mre(
        &mut conn,
        &inputs,
        stream.current_slice(),
        &mut report,
        origin,
    );
    // Peak memory after the same fixed work on every run: later, the
    // stores grow with however many records the timed window got through.
    let rss_mb = server.peak_rss_mib()?;

    // The timed window, untraced, and the server's CPU time over it.
    let mut timed = Tally::default();
    let steal_from = host_cpu();
    let mut cpu_s = -server.cpu_seconds()?;
    let (dist, capacity, mut open_loop) = match workload {
        Workload::ReadSmall | Workload::IngestPaper => {
            let start_s = origin.elapsed().as_secs_f64();
            closed(
                &mut conn,
                || stream.next_req(),
                Stop::For(Duration::from_secs(args.seconds)),
                &mut timed,
                origin,
            );
            cpu_s += server.cpu_seconds()?;
            let dist = Timed::of(&timed, start_s);
            let capacity = dist.closed_loop_capacity();
            (dist, capacity, None)
        }
        Workload::AdaptOpen => {
            let mut open_loop = OpenLoop::new(server.addr(), origin)?;
            let mut lead_in = Tally::default();
            open_loop.run(
                &mut stream,
                REFERENCE_RATE,
                Duration::from_millis(500),
                &mut lead_in,
            )?;
            lead_in.lat_us.clear();
            report.checked.absorb(lead_in);
            let start_s = origin.elapsed().as_secs_f64();
            cpu_s = -server.cpu_seconds()?;
            let reference = open_loop.run(
                &mut stream,
                REFERENCE_RATE,
                Duration::from_secs_f64(0.5 * secs),
                &mut timed,
            )?;
            cpu_s += server.cpu_seconds()?;
            let lag_p50 = Dist::of(reference.lag_us.clone()).p50;
            let (lag_p99, _) = stats::blocked_p99(&reference.lag_us);
            report.note(format!(
                "reference {REFERENCE_RATE} req/s: gen_lag_p50_us {lag_p50:.1} gen_lag_p99_us {lag_p99:.1} (blocked, n {}), \
                 achieved {:.1} req/s, backlog mid {} end {}, over-limit {:.4} (slices {:.4?})",
                reference.lag_us.len(),
                reference.achieved_per_s,
                reference.backlog_mid,
                reference.backlog_end,
                reference.over_share(),
                reference.slice_over
            ));
            if lag_p50 > GEN_LAG_P50_MAX_US {
                return Err(format!(
                    "invalid run: the generator fell behind schedule (lag p50 {lag_p50:.0} µs)"
                ));
            }
            let mut rungs = vec![Rung {
                rate: REFERENCE_RATE,
                over: reference.over_share(),
            }];
            let rung_window = Duration::from_secs_f64((secs / 12.0).max(0.5));
            let mut rate = REFERENCE_RATE;
            while rungs.last().is_some_and(|r| r.over <= OVER_LIMIT_SHARE)
                && rungs.len() <= LADDER_MAX_RUNGS
            {
                rate *= LADDER_STEP;
                let mut tally = Tally::default();
                let rung = open_loop.run(&mut stream, rate, rung_window, &mut tally)?;
                let dist = Dist::of(tally.lat_us.clone());
                report.note(format!(
                    "rung {rate:7.1} req/s: over-limit {:.4} (slices {:.3?}, whole {:.4}), p50 {:.0} us p99 {:.0} us (n {}), \
                     achieved {:.1}/s, refused {}, transport {}, gen_lag_p99 {:.0} us, backlog mid {} end {}",
                    rung.over_share(),
                    rung.slice_over,
                    rung.over as f64 / rung.sent as f64,
                    dist.p50,
                    dist.p99,
                    dist.n,
                    rung.achieved_per_s,
                    tally.refused,
                    tally.transport,
                    Dist::of(rung.lag_us.clone()).p99,
                    rung.backlog_mid,
                    rung.backlog_end
                ));
                if tally.incorrect > 0 || tally.other_status > 0 {
                    report.problems.extend(tally.errors.clone());
                    report
                        .problems
                        .push(format!("rung {rate:.1}: wrong answers"));
                }
                rungs.push(Rung {
                    rate,
                    over: rung.over_share(),
                });
            }
            let capacity = stats::capacity(&rungs).unwrap_or_else(|| {
                report.note(format!(
                    "the ladder never reached the limit: capacity is at least {rate:.1} req/s"
                ));
                rate
            });
            (Timed::of(&timed, start_s), capacity, Some(open_loop))
        }
    };
    let steal = Steal {
        from: steal_from,
        to: host_cpu(),
    };
    report.note(format!(
        "timed window: {} attempted, {} ok, p50/p99 over {} answers ({} blocks), {} of {} predictions degraded, \
         host steal {:.1}% of CPU time",
        timed.attempted,
        timed.ok,
        dist.n,
        dist.blocks,
        timed.degraded,
        timed.predictions,
        100.0 * steal.share()
    ));
    if dist.n < stats::BLOCK {
        report
            .problems
            .push(format!("p99 rests on only {} samples", dist.n));
    }
    if mre.is_nan() || mre > MRE_CEILING {
        report
            .problems
            .push(format!("mre {mre} above the sanity ceiling {MRE_CEILING}"));
    }
    // Every end-to-end metric is printed; the JSON result carries the ones
    // steady enough to gate on (see README.md, "Left out of the gate").
    let e2e = [
        ("setup_s", "s", setup_s, true),
        ("p50_us", "us", dist.p50, false),
        ("p99_us", "us", dist.p99, false),
        ("ok_per_s", "1/s", dist.ok_per_s, false),
        ("capacity_rps", "1/s", capacity, false),
        (
            "fail_ratio",
            "ratio",
            stats::fail_ratio(
                timed.attempted,
                timed.transport,
                timed.refused + timed.other_status,
            ),
            false,
        ),
        (
            "degraded_ratio",
            "ratio",
            pct(timed.degraded, timed.predictions),
            false,
        ),
        ("cpu_us_per_req", "us", cpu_s * 1e6 / timed.ok as f64, false),
        ("mre", "ratio", mre, true),
        ("rss_mb", "MiB", rss_mb, true),
    ];
    report.checked.absorb(timed);
    for (name, unit, value, gated) in e2e {
        if gated && !args.trace {
            report.metric(name, unit, value);
        } else {
            report.note(format!(
                "{:<47} {value:>16.4} {unit}",
                format!("e2e {name}")
            ));
        }
    }
    if !args.trace {
        return Ok(report);
    }

    // The traced run: replay the workload recording stage clocks and spans,
    // sweep every endpoint, then time the layers in-process.
    let before = snapshot(&mut conn)?;
    let mut replay = Tally::traced(origin);
    let connects_before = conn.connects + open_loop.as_ref().map_or(0, OpenLoop::connects);
    let replay_span = open_span(&mut replay, "replay");
    let start_s = origin.elapsed().as_secs_f64();
    match &mut open_loop {
        None => {
            let window = Duration::from_secs_f64(secs / 2.0);
            closed(
                &mut conn,
                || stream.next_req(),
                Stop::For(window),
                &mut replay,
                origin,
            );
        }
        Some(open_loop) => {
            open_loop.run(
                &mut stream,
                REFERENCE_RATE,
                Duration::from_secs_f64(0.25 * secs),
                &mut replay,
            )?;
        }
    }
    let replay_dist = Timed::of(&replay, start_s);
    close_span(&mut replay, replay_span);
    let connects =
        conn.connects + open_loop.as_ref().map_or(0, OpenLoop::connects) - connects_before;
    report.note(format!(
        "traced   p50_us {:.2} p99_us {:.2} ok_per_s {:.1} (n {}) vs untraced p50_us {:.2} p99_us {:.2} ok_per_s {:.1} (n {})",
        replay_dist.p50,
        replay_dist.p99,
        replay_dist.ok_per_s,
        replay_dist.n,
        dist.p50,
        dist.p99,
        dist.ok_per_s,
        dist.n
    ));

    let mut sweep = Tally::traced(origin);
    let sweep_span = open_span(&mut sweep, "sweep");
    for kind in Kind::ALL {
        let mut kind_stream = RequestStream::new(&inputs, args.seed, Mix::only(kind));
        closed(
            &mut conn,
            || kind_stream.next_req(),
            Stop::Count(SWEEP_PER_KIND as u64),
            &mut sweep,
            origin,
        );
    }
    close_span(&mut sweep, sweep_span);
    let after = snapshot(&mut conn)?;

    let replay_log = replay.trace.take().expect("traced tally");
    let sweep_log = sweep.trace.take().expect("traced tally");
    let observes = (replay_log.stages[Kind::Observe.index()].len()
        + sweep_log.stages[Kind::Observe.index()].len()) as f64;
    let stage_mean = |log: &TraceLog, kinds: &[Kind], stage: usize| {
        let v: Vec<f64> = kinds
            .iter()
            .flat_map(|k| log.stages[k.index()].iter().map(move |s| s[stage] as f64))
            .collect();
        Dist::of(v)
    };
    let queue = stage_mean(&replay_log, &Kind::ALL, 3);
    for (i, stage) in ["accept", "parse", "admission", "queue", "execute", "flush"]
        .iter()
        .enumerate()
    {
        let d = stage_mean(&replay_log, &Kind::ALL, i);
        report.note(format!(
            "server stage {stage:<9} mean {:.3} us p99 {:.0} us (n {})",
            d.mean, d.p99, d.n
        ));
    }
    report.metric("serve.conn.connects", "count", connects as f64);
    report.metric(
        "serve.conn.outside_stages_us",
        "us",
        Dist::of(replay_log.outside_us.clone()).mean,
    );
    report.metric("serve.edf.queue_us.mean", "us", queue.mean);
    report.metric("serve.edf.queue_us.p99", "us", queue.p99);
    report.metric(
        "serve.edf.rejects",
        "count",
        counter_delta(&before, &after, "serve.rejected_overload")
            + counter_delta(&before, &after, "serve.rejected_deadline"),
    );
    for kind in Kind::ALL {
        report.metric(
            format!("serve.plane.execute_us.{}", kind.label()),
            "us",
            stage_mean(&sweep_log, &[kind], 4).mean,
        );
    }
    report.metric(
        "core.engine.chunks_per_observe",
        "count",
        counter_delta(&before, &after, "engine.chunks_dispatched") / observes,
    );
    report.metric(
        "core.engine.jobs_per_observe",
        "count",
        counter_delta(&before, &after, "engine.jobs_dispatched") / observes,
    );
    report.metric(
        "trace.p50_overhead_ratio",
        "ratio",
        replay_dist.p50 / dist.p50,
    );
    report.checked.absorb(replay);
    report.checked.absorb(sweep);

    dump_samples(&dir, &replay_log)?;
    dump_spans(&dir.join("spans-http.jsonl"), &[&replay_log, &sweep_log])?;
    let rss = server.peak_rss_mib()?;
    report.note(format!(
        "server peak rss at the end of the run {rss:.1} MiB"
    ));
    drop(server);
    let layers = args.layers.as_deref().ok_or("--trace 1 needs --layers")?;
    run_layers(layers, args, &dir, &mut report)?;
    Ok(report)
}

fn open_span(tally: &mut Tally, name: &str) -> usize {
    tally.trace.as_mut().expect("traced tally").spans.open(name)
}

fn close_span(tally: &mut Tally, id: usize) {
    tally.trace.as_mut().expect("traced tally").spans.close(id);
}

/// Writes the sampled requests (each as a little-endian `u32` length and
/// the bytes) and 2xx response bodies (one per line) for the layer timings.
fn dump_samples(dir: &Path, log: &TraceLog) -> Result<(), String> {
    let mut requests = Vec::new();
    for r in &log.requests {
        requests.extend_from_slice(
            &u32::try_from(r.len())
                .map_err(|_| "request too large")?
                .to_le_bytes(),
        );
        requests.extend_from_slice(r);
    }
    std::fs::write(dir.join("requests.bin"), requests).map_err(|e| format!("requests.bin: {e}"))?;
    let mut responses = Vec::new();
    for body in &log.responses {
        responses.extend_from_slice(body);
        responses.push(b'\n');
    }
    std::fs::write(dir.join("responses.ndjson"), responses)
        .map_err(|e| format!("responses.ndjson: {e}"))
}

fn dump_spans(path: &Path, logs: &[&TraceLog]) -> Result<(), String> {
    let mut out = String::new();
    for log in logs {
        log.spans.write_jsonl(&mut out);
    }
    std::fs::write(path, out).map_err(|e| format!("{}: {e}", path.display()))
}

/// Runs the in-process layer timings and merges their metrics.
fn run_layers(bin: &Path, args: &Args, dir: &Path, report: &mut Report) -> Result<(), String> {
    let output = Command::new(bin)
        .args([
            "--workload",
            args.workload.name(),
            "--seed",
            &args.seed.to_string(),
            "--dump",
        ])
        .arg(dir)
        .output()
        .map_err(|e| format!("running {}: {e}", bin.display()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    for line in stdout.lines().take_while(|l| !l.starts_with('{')) {
        report.note(line.to_string());
    }
    if !output.status.success() {
        return Err(format!(
            "servebench-layers failed ({}): {}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let last = stdout
        .lines()
        .last()
        .ok_or("servebench-layers printed nothing")?;
    let doc = json::parse(last)?;
    if doc.get("correct") != Some(&Value::Bool(true)) {
        report
            .problems
            .push("servebench-layers reported a failed check".into());
    }
    let Some(Value::Obj(metrics)) = doc.get("metrics") else {
        return Err("servebench-layers printed no metrics".into());
    };
    for (name, m) in metrics {
        let value = m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
        let unit = match m.get("unit").and_then(Value::as_str) {
            Some("ns") => "ns",
            Some("us") => "us",
            Some("ratio") => "ratio",
            _ => "count",
        };
        report.metric(name.clone(), unit, value);
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            report.print();
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::from(2)
        }
    }
}
